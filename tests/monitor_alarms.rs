//! Deterministic model-health alarm proof (ISSUE 9 acceptance):
//!
//! 1. A clean loadgen run under the monitor produces an *empty*
//!    `alerts.jsonl` (the file exists — positive evidence monitoring
//!    ran) with every drift score exactly 0.0: the window size is a
//!    multiple of the session count and the stream is unshed and
//!    round-aligned, so every window reproduces the reference mix
//!    exactly.
//! 2. A `poison_frac = 0.3` run — three sessions streaming the worn
//!    aluminum trigger, spread across all three base streams by the
//!    prefix assignment — fires at least one **backdoor** alarm, and
//!    the audit log is bit-identical at 1 worker and at 4 workers: the
//!    verdict stream is worker-count-independent and alerts carry no
//!    wall-clock fields.

use std::fs;

use mmwave_har_backdoor::har::PrototypeConfig;
use mmwave_har_backdoor::monitor::{self, AlertKind, MonitorConfig, MonitorOutcome};
use mmwave_har_backdoor::radar::Environment;
use mmwave_har_backdoor::serve::{loadgen, LoadgenConfig, ServeConfig};

/// 10 sessions x 64 frames at clip_len 8: 8 verdict rounds of 10, so
/// the auto window (2 x sessions = 20) spans exactly two rounds and 80
/// verdicts close exactly 4 windows.
fn stream_config(poison_frac: f64) -> LoadgenConfig {
    LoadgenConfig {
        sessions: 10,
        seconds: 3.2,
        fps: 20.0,
        jitter: 0.2,
        burst: 1,
        seed: 99,
        paced: false,
        pump_every: 40,
        poison_frac,
        ..LoadgenConfig::default()
    }
}

/// Capacities chosen so nothing is ever shed: between 40-frame pump
/// points each session gains ~4 frames, far under the ring capacity,
/// and at most one ready clip per session waits per pump.
fn serve_config(proto: &PrototypeConfig) -> ServeConfig {
    ServeConfig {
        clip_len: proto.n_frames,
        ring_capacity: proto.n_frames * 4,
        ready_capacity: 32,
        max_batch: 8,
        ..ServeConfig::default()
    }
}

/// Captures a clean reference, then replays the (possibly poisoned)
/// stream under the monitor at the given worker count. Returns the
/// outcome and the raw bytes of the alert log.
fn run_monitored_at(workers: usize, poison_frac: f64, tag: &str) -> (MonitorOutcome, Vec<u8>) {
    let proto = PrototypeConfig::smoke_test();
    let serve_cfg = serve_config(&proto);
    let lg = stream_config(poison_frac);
    let environment = Environment::hallway();
    let alerts_path = std::env::temp_dir()
        .join(format!("mmwave_monitor_alarms_{tag}_{}.jsonl", std::process::id()));
    let outcome = mmwave_har_backdoor::exec::with_workers(workers, || {
        // capture_profile forces poison_frac = 0, so the baseline is
        // clean even though `lg` may poison.
        let (reference, baseline_report) =
            monitor::capture_profile(&lg, serve_cfg.clone(), &proto, environment.clone())
                .expect("baseline capture succeeds");
        assert!(
            baseline_report.is_clean() && baseline_report.shed_frames == 0,
            "the baseline run must be unshed and accounted: {baseline_report:?}"
        );
        monitor::run_monitored(
            &lg,
            serve_cfg.clone(),
            &proto,
            environment.clone(),
            &MonitorConfig::default(),
            reference,
            Some(&alerts_path),
        )
        .expect("monitored run succeeds")
    });
    let bytes = fs::read(&alerts_path).expect("the alert log must exist even when quiet");
    let _ = fs::remove_file(&alerts_path);
    (outcome, bytes)
}

#[test]
fn clean_run_is_provably_quiet_at_any_worker_count() {
    let (serial, serial_bytes) = run_monitored_at(1, 0.0, "clean_w1");
    let (parallel, parallel_bytes) = run_monitored_at(4, 0.0, "clean_w4");
    let proto = PrototypeConfig::smoke_test();
    let bare =
        loadgen::run(&stream_config(0.0), serve_config(&proto), &proto, Environment::hallway())
            .expect("bare loadgen run succeeds");
    for (outcome, bytes) in [(&serial, &serial_bytes), (&parallel, &parallel_bytes)] {
        assert_eq!(
            outcome.report.verdicts, bare.verdicts,
            "attaching the monitor must not change the verdict count"
        );
        assert!(outcome.report.is_clean(), "clean run must account every frame");
        assert_eq!(outcome.report.shed_frames, 0, "round alignment requires zero shed");
        assert_eq!(outcome.report.poisoned_sessions, 0);
        assert_eq!(outcome.windows, 4, "80 verdicts / window 20 = 4 windows");
        assert!(outcome.alerts.is_empty(), "clean traffic must not alert: {:?}", outcome.alerts);
        assert!(bytes.is_empty(), "a quiet run leaves an empty audit log");
        // Every window replays the reference mix exactly, so drift is
        // identically zero — not merely below threshold.
        let drift = outcome.last_drift.as_ref().expect("windows closed");
        assert_eq!(drift.class_psi, 0.0);
        assert_eq!(drift.class_chi2, 0.0);
        assert_eq!(drift.confidence_tv, 0.0);
        assert_eq!(drift.trigger_tail, 0.0);
        assert_eq!(drift.spike_delta, 0.0);
        let cfg = MonitorConfig::default();
        assert!(drift.class_psi < cfg.psi_threshold);
        assert!(drift.confidence_tv < cfg.conf_threshold);
        assert!(drift.trigger_tail < cfg.tail_threshold);
    }
    assert_eq!(serial_bytes, parallel_bytes, "audit logs must match bit-for-bit");
}

#[test]
fn poisoned_run_fires_the_backdoor_alarm_identically_at_one_and_four_workers() {
    let (serial, serial_bytes) = run_monitored_at(1, 0.3, "poison_w1");
    let (parallel, parallel_bytes) = run_monitored_at(4, 0.3, "poison_w4");
    assert_eq!(
        serial_bytes, parallel_bytes,
        "alerts.jsonl must be bit-identical across worker counts"
    );
    assert!(!serial_bytes.is_empty(), "the poisoned run must write alerts");
    for outcome in [&serial, &parallel] {
        assert!(outcome.report.is_clean(), "poisoned run still accounts every frame");
        assert_eq!(outcome.report.shed_frames, 0);
        assert_eq!(outcome.report.poisoned_sessions, 3, "round(10 * 0.3) sessions poisoned");
        assert_eq!(outcome.windows, 4);
        let backdoors =
            outcome.alerts.iter().filter(|a| a.kind == AlertKind::Backdoor).count();
        assert!(
            backdoors >= 1,
            "a worn-trigger stream must trip the backdoor rule; alerts: {:?}",
            outcome.alerts
        );
        for alert in outcome.alerts.iter().filter(|a| a.kind == AlertKind::Backdoor) {
            assert!(alert.value >= alert.threshold);
            assert_eq!(alert.sustained, MonitorConfig::default().sustain);
        }
    }
    // The in-memory alert list and the CRC-framed audit log agree.
    let lines = serial_bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty()).count();
    assert_eq!(lines, serial.alerts.len(), "one framed line per fired alert");
}
