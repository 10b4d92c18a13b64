//! Model-health monitoring for the streaming inference service: is the
//! deployed HAR model behaving the way it did when it was known-clean?
//!
//! The serve layer (`mmwave-serve`) streams verdicts but nothing watches
//! *what the model is doing* — a physically triggered session (the
//! paper's worn-reflector threat) silently flips predictions to the
//! target class with no operational signal, even though the Section VII
//! trigger detector scores every clip. This crate closes that loop:
//!
//! - [`ReferenceProfile`]: a clean baseline captured by `mmwave profile`
//!   — per-class prediction rates, a binned confidence distribution, and
//!   the trigger-detector score distribution — persisted as a
//!   checksummed `store` artifact.
//! - [`DriftScores`]: per-window divergence from the reference —
//!   per-class rate PSI and chi-square, confidence total-variation
//!   distance, trigger-score *tail mass* (fraction of scores landing in
//!   bins the clean reference never touched), and the largest per-class
//!   rate spike.
//! - [`Monitor`]: the online engine. Feed it every verdict; each closed
//!   window is scored against the reference and run through the typed
//!   alert rules in [`MonitorConfig`]. The dedicated **backdoor rule**
//!   fires only when a target-class rate spike *co-occurs* with
//!   trigger-score tail inflation — benign environment drift moves one
//!   signal, a physical trigger moves both.
//! - [`Alert`]: what fires. Records carry no wall-clock fields, so the
//!   `alerts.jsonl` audit log (CRC-framed via `store`) is bit-identical
//!   across worker counts for a fixed seed.
//! - [`harness`]: glue that runs the load generator with a monitor
//!   attached ([`run_monitored`]) or captures a reference profile from
//!   provably clean traffic ([`capture_profile`]). Both take the
//!   deployed model pair (`mmwave_serve::ServedModel`) they watch.
//!
//! Windowing is **count-based** (every `window` verdicts), never
//! wall-clock, inheriting the serve layer's determinism guarantees; the
//! sliding-window primitives live in `mmwave_telemetry::window`.
//!
//! # Environment
//!
//! | Variable | Effect |
//! |---|---|
//! | `MMWAVE_MONITOR_WINDOW` | Verdicts per scoring window (0 = auto: 2× sessions) |
//! | `MMWAVE_MONITOR_SUSTAIN` | Consecutive over-threshold windows before an alert fires (default 2) |
//! | `MMWAVE_MONITOR_PSI_THR` | Class-rate PSI alert threshold (default 0.2) |
//! | `MMWAVE_MONITOR_CONF_THR` | Confidence total-variation threshold (default 0.2) |
//! | `MMWAVE_MONITOR_TAIL_THR` | Trigger-score tail-mass threshold (default 0.05) |
//! | `MMWAVE_MONITOR_SPIKE_THR` | Per-class rate-spike threshold for the backdoor rule (default 0.08) |
//!
//! Invalid values fall back to defaults, warn, and bump
//! `monitor.config_invalid` — the same contract as `MMWAVE_SERVE_*`.

pub mod alert;
pub mod drift;
pub mod engine;
pub mod harness;
pub mod profile;

pub use alert::{Alert, AlertKind};
pub use drift::DriftScores;
pub use engine::Monitor;
pub use harness::{capture_profile, run_monitored, MonitorOutcome};
pub use profile::{ReferenceProfile, CONF_BINS, SCORE_BINS};

use std::fmt;

use mmwave_serve::ServeError;
use mmwave_store::StoreError;

/// Alert-rule knobs. Build with [`MonitorConfig::default`] or
/// [`MonitorConfig::from_env`]; the engine validates on construction.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MonitorConfig {
    /// Verdicts per scoring window. 0 means "auto": the harness resolves
    /// it to twice the session count, which makes every window contain
    /// each session the same number of times on an unshed stream.
    pub window: usize,
    /// Consecutive over-threshold windows a rule must see before its
    /// alert fires (debounces single-window blips).
    pub sustain: usize,
    /// Class-rate PSI above this sustains the class-drift rule.
    pub psi_threshold: f64,
    /// Confidence total-variation distance above this sustains the
    /// confidence-drift rule.
    pub conf_threshold: f64,
    /// Trigger-score tail mass above this sustains the trigger-tail
    /// rule (and is the backdoor rule's co-occurrence requirement).
    pub tail_threshold: f64,
    /// Largest single-class rate increase over the reference that,
    /// together with tail inflation, fires the backdoor rule.
    pub spike_threshold: f64,
}

impl Default for MonitorConfig {
    fn default() -> MonitorConfig {
        MonitorConfig {
            window: 0,
            sustain: 2,
            psi_threshold: 0.2,
            conf_threshold: 0.2,
            tail_threshold: 0.05,
            spike_threshold: 0.08,
        }
    }
}

impl MonitorConfig {
    /// Reads `MMWAVE_MONITOR_*` overrides on top of the defaults.
    /// Invalid values keep the default, warn, and bump
    /// `monitor.config_invalid`.
    pub fn from_env() -> MonitorConfig {
        use mmwave_telemetry::env_knob;
        use mmwave_telemetry::knob::{parse_count, parse_positive, parse_positive_f64};
        const INVALID: &str = "monitor.config_invalid";
        let threshold =
            |var: &str, default: f64| env_knob(var, INVALID, default, parse_positive_f64);
        let d = MonitorConfig::default();
        MonitorConfig {
            window: env_knob("MMWAVE_MONITOR_WINDOW", INVALID, d.window, parse_count),
            sustain: env_knob("MMWAVE_MONITOR_SUSTAIN", INVALID, d.sustain, parse_positive),
            psi_threshold: threshold("MMWAVE_MONITOR_PSI_THR", d.psi_threshold),
            conf_threshold: threshold("MMWAVE_MONITOR_CONF_THR", d.conf_threshold),
            tail_threshold: threshold("MMWAVE_MONITOR_TAIL_THR", d.tail_threshold),
            spike_threshold: threshold("MMWAVE_MONITOR_SPIKE_THR", d.spike_threshold),
        }
    }

    /// Rejects configurations no rule could ever evaluate sanely.
    pub fn validate(&self) -> Result<(), MonitorError> {
        if self.sustain == 0 {
            return Err(MonitorError::Config("sustain must be at least 1".into()));
        }
        for (name, v) in [
            ("psi_threshold", self.psi_threshold),
            ("conf_threshold", self.conf_threshold),
            ("tail_threshold", self.tail_threshold),
            ("spike_threshold", self.spike_threshold),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(MonitorError::Config(format!(
                    "{name} {v} must be finite and positive"
                )));
            }
        }
        Ok(())
    }
}

/// Why monitoring could not run.
#[derive(Debug)]
pub enum MonitorError {
    /// An alert-rule knob is impossible (zero sustain, non-positive
    /// threshold).
    Config(String),
    /// The reference profile is unusable (empty, shape mismatch with
    /// the deployed model).
    Profile(String),
    /// A durable artifact (profile, alert log) failed to read or write.
    Store(StoreError),
    /// The underlying service or load generator rejected its config.
    Serve(ServeError),
}

impl fmt::Display for MonitorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonitorError::Config(detail) => write!(f, "invalid monitor config: {detail}"),
            MonitorError::Profile(detail) => write!(f, "unusable reference profile: {detail}"),
            MonitorError::Store(e) => write!(f, "monitor store error: {e}"),
            MonitorError::Serve(e) => write!(f, "monitor serve error: {e}"),
        }
    }
}

impl std::error::Error for MonitorError {}

impl From<StoreError> for MonitorError {
    fn from(e: StoreError) -> MonitorError {
        MonitorError::Store(e)
    }
}

impl From<ServeError> for MonitorError {
    fn from(e: ServeError) -> MonitorError {
        MonitorError::Serve(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert!(MonitorConfig::default().validate().is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad = MonitorConfig { sustain: 0, ..Default::default() };
        assert!(bad.validate().is_err());
        let bad = MonitorConfig { psi_threshold: 0.0, ..Default::default() };
        assert!(bad.validate().is_err());
        let bad = MonitorConfig { tail_threshold: f64::NAN, ..Default::default() };
        assert!(bad.validate().is_err());
        let bad = MonitorConfig { spike_threshold: -1.0, ..Default::default() };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn config_round_trips_through_json() {
        let cfg = MonitorConfig { window: 20, ..Default::default() };
        let json = serde_json::to_string(&cfg).expect("serializes");
        let back: MonitorConfig = serde_json::from_str(&json).expect("parses");
        assert_eq!(cfg, back);
    }
}
