//! Glue between the load generator and the monitoring engine: capture a
//! clean reference profile, or replay traffic with a monitor attached
//! and an `alerts.jsonl` audit log.

use std::path::{Path, PathBuf};

use mmwave_har::PrototypeConfig;
use mmwave_radar::Environment;
use mmwave_serve::loadgen::{self, LoadgenConfig, LoadgenReport};
use mmwave_serve::{ServeConfig, ServedModel};
use mmwave_store::{append_jsonl, StoreError};

use crate::alert::Alert;
use crate::drift::DriftScores;
use crate::engine::Monitor;
use crate::profile::ReferenceProfile;
use crate::{MonitorConfig, MonitorError};

/// What a monitored loadgen run produced.
#[derive(Debug)]
pub struct MonitorOutcome {
    /// The load generator's throughput/latency/accounting report.
    pub report: LoadgenReport,
    /// Every alert fired, in firing order (same order as the audit log).
    pub alerts: Vec<Alert>,
    /// Windows scored.
    pub windows: u64,
    /// Drift scores of the last closed window, if any window closed.
    pub last_drift: Option<DriftScores>,
}

/// Captures a clean reference profile of the deployed model `served` by
/// replaying `lg` with `poison_frac` forced to zero — the baseline is
/// clean *by construction*, whatever the caller's config says. Returns
/// the profile together with the capture run's loadgen report so
/// callers can verify the run itself was healthy (no shed frames,
/// accounted).
pub fn capture_profile(
    lg: &LoadgenConfig,
    serve_cfg: ServeConfig,
    proto: &PrototypeConfig,
    environment: Environment,
    served: &ServedModel,
) -> Result<(ReferenceProfile, LoadgenReport), MonitorError> {
    let clean = LoadgenConfig { poison_frac: 0.0, ..lg.clone() };
    let mut profile = ReferenceProfile::new(clean.seed, clean.sessions, proto.n_classes);
    let report = loadgen::run_serving(&clean, serve_cfg, proto, environment, served, |v| {
        // Failed verdicts carry poisoned placeholder fields, not model
        // outputs; folding them in would skew the baseline.
        if !v.status.is_failed() {
            profile.observe(v.label, v.confidence as f64, v.defense_score);
        }
    })?;
    profile.validate()?;
    Ok((profile, report))
}

/// Runs the load generator against the deployed model `served` with a
/// [`Monitor`] folding in every verdict. `reference` should come from
/// [`capture_profile`] on the same `served` pair.
///
/// `cfg.window == 0` (the auto sentinel) resolves to `2 * lg.sessions`:
/// on an unshed round-aligned stream every window then contains each
/// session exactly twice, so a clean run's windows reproduce the
/// reference mix exactly and drift scores are identically zero.
///
/// When `alerts_path` is given, the file is created (or truncated) up
/// front — a quiet run leaves an empty file as positive evidence that
/// monitoring ran — and each alert is appended CRC-framed as it fires.
/// If an append fails the run still replays to completion (the load
/// generator offers no mid-stream abort), but the audit log is void:
/// no further appends are attempted (each suppressed append bumps
/// `monitor.alert_write_failed`), the partial file is removed so a
/// misleading truncated log never survives on disk, and the run
/// returns the sink error instead of an outcome.
#[allow(clippy::too_many_arguments)]
pub fn run_monitored(
    lg: &LoadgenConfig,
    serve_cfg: ServeConfig,
    proto: &PrototypeConfig,
    environment: Environment,
    served: &ServedModel,
    cfg: &MonitorConfig,
    reference: ReferenceProfile,
    alerts_path: Option<&Path>,
) -> Result<MonitorOutcome, MonitorError> {
    let resolved = MonitorConfig {
        window: if cfg.window == 0 { 2 * lg.sessions } else { cfg.window },
        ..cfg.clone()
    };
    let mut monitor = Monitor::new(resolved, reference)?;
    if let Some(path) = alerts_path {
        std::fs::write(path, b"").map_err(|e| io_store(path, e))?;
    }

    let mut alerts: Vec<Alert> = Vec::new();
    let mut sink_error: Option<StoreError> = None;
    let report = loadgen::run_serving(lg, serve_cfg, proto, environment, served, |v| {
        // Failed verdicts never reach the drift engine: their zeroed
        // label/confidence/score fields are pipeline noise, not model
        // behavior, and would fire false class-drift alarms. Pipeline
        // failure visibility belongs to `serve.verdicts_failed` and the
        // circuit breaker instead.
        if v.status.is_failed() {
            return;
        }
        for alert in monitor.observe(v.label, v.confidence as f64, v.defense_score) {
            if let Some(path) = alerts_path {
                if sink_error.is_none() {
                    let line = serde_json::to_string(&alert)
                        .expect("alerts contain no non-serializable values");
                    if let Err(e) = append_jsonl(path, &line) {
                        mmwave_telemetry::counter("monitor.alert_write_failed", 1);
                        sink_error = Some(io_store(path, e));
                    }
                }
            }
            alerts.push(alert);
        }
    })?;
    if let Some(e) = sink_error {
        // The log stopped at the first failed append; alerts that fired
        // afterwards are missing from it. Remove the partial file —
        // callers must treat this run as having no audit log at all.
        if let Some(path) = alerts_path {
            let _ = std::fs::remove_file(path);
        }
        return Err(MonitorError::Store(e));
    }
    Ok(MonitorOutcome {
        report,
        alerts,
        windows: monitor.windows_closed(),
        last_drift: monitor.last_drift().cloned(),
    })
}

/// Wraps an I/O failure on the alert sink with its path.
fn io_store(path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Io { path: PathBuf::from(path), source }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_window_resolves_to_twice_the_sessions() {
        // Resolution logic only; end-to-end runs live in
        // tests/monitor_alarms.rs at the workspace root.
        let cfg = MonitorConfig::default();
        assert_eq!(cfg.window, 0, "default is the auto sentinel");
        let lg = LoadgenConfig { sessions: 10, ..Default::default() };
        let resolved = if cfg.window == 0 { 2 * lg.sessions } else { cfg.window };
        assert_eq!(resolved, 20);
    }
}
