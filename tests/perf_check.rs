//! `mmwave perf-check` end to end through the real binary, on the
//! committed perfbench baselines in `baselines/`: comparing them with
//! themselves passes; a copy with a 10×-inflated latency, a run that is
//! not correct, more failed operations, or a fallen `ok_frac` fails and
//! names what regressed; the deleted tuning flags are refused.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["serve_open", "serve_firehose", "attack_campaign"];

fn baselines() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines")
}

fn perf_check(results: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mmwave"))
        .arg("perf-check")
        .arg(results)
        .arg("--baseline")
        .arg(baselines())
        .args(extra)
        .output()
        .expect("spawn mmwave perf-check")
}

fn text(out: &Output) -> String {
    format!("{}{}", String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr))
}

/// A copy of `baselines/` with `edit` applied to one workload's file.
fn edited_copy(tag: &str, workload: &str, edit: impl FnOnce(&mut Value)) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmwave_perf_check_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    for w in WORKLOADS {
        let name = format!("BENCH_{w}.json");
        std::fs::copy(baselines().join(&name), dir.join(&name)).expect("copy baseline");
    }
    let path = dir.join(format!("BENCH_{workload}.json"));
    let mut v: Value = serde_json::from_str(&std::fs::read_to_string(&path).expect("read copy"))
        .expect("baseline is JSON");
    edit(&mut v);
    std::fs::write(&path, v.to_string()).expect("write copy");
    dir
}

fn scale(v: &mut Value, pointer: &[&str], f: impl Fn(f64) -> f64) {
    let slot = pointer.iter().fold(v, |v, key| &mut v[*key]);
    *slot = Value::from(f(slot.as_f64().expect("a number")));
}

#[test]
fn self_comparison_of_the_committed_baselines_passes() {
    let out = perf_check(&baselines(), &[]);
    assert!(out.status.success(), "{}", text(&out));
    assert!(text(&out).contains("3 workloads compared, 0 regressed"), "{}", text(&out));
}

/// Runs the gate on a copy of `baselines/` with `edit` applied to
/// `workload`'s file: it must exit nonzero and name `workload` and `what`.
fn assert_regresses(tag: &str, workload: &str, edit: impl FnOnce(&mut Value), what: &str) {
    let dir = edited_copy(tag, workload, edit);
    let out = perf_check(&dir, &[]);
    assert!(!out.status.success(), "{tag} must fail: {}", text(&out));
    let regress = format!("REGRESS {workload}: ");
    assert!(text(&out).contains(&regress), "{tag} must name {workload}: {}", text(&out));
    assert!(text(&out).contains(what), "{tag} must name {what}: {}", text(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_tenfold_latency_fails_and_names_metric_and_workload() {
    assert_regresses(
        "latency",
        "serve_open",
        |v| scale(v, &["untraced", "metrics", "latency_p50_ms", "value"], |x| x * 10.0 + 10000.0),
        "REGRESS serve_open: latency_p50_ms",
    );
}

#[test]
fn incorrect_runs_more_failures_and_a_fallen_ok_frac_each_fail() {
    assert_regresses(
        "incorrect",
        "attack_campaign",
        |v| v["traced"]["correct"] = Value::from(false),
        "\"correct\":false",
    );
    assert_regresses(
        "failed",
        "serve_firehose",
        |v| {
            let failed = v["untraced"]["failed"].as_u64().expect("a count");
            v["untraced"]["failed"] = Value::from(failed + 3);
        },
        "failed share grew",
    );
    assert_regresses(
        "ok_frac",
        "serve_open",
        |v| scale(v, &["untraced", "metrics", "ok_frac", "value"], |x| x - 0.03),
        "ok_frac",
    );
}

#[test]
fn a_missing_workload_is_an_error() {
    let dir = edited_copy("missing", "serve_open", |_| {});
    std::fs::remove_file(dir.join("BENCH_serve_firehose.json")).expect("remove one file");
    let out = perf_check(&dir, &[]);
    assert!(!out.status.success(), "{}", text(&out));
    assert!(text(&out).contains("BENCH_serve_firehose.json"), "{}", text(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_deleted_threshold_flag_is_refused() {
    let out = perf_check(&baselines(), &["--threshold", "0.2"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threshold"), "{}", text(&out));
}
