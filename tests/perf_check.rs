//! `mmwave perf-check` end to end through the real binary, on copies of
//! the committed 10-run sets in `baselines/` with one workload's runs
//! edited: comparing them with themselves passes; a 10×-inflated latency,
//! an incorrect run, more failures or a fallen `ok_frac` fails and names
//! what regressed; the `worse`, `unresolved` and `better` verdicts, the
//! digest rule and the refusal of sets run at other settings behave as
//! documented; the deleted tuning flags are refused. Run `i` of each side
//! make pair `i`.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["serve_open", "serve_firehose", "attack_campaign"];

fn baselines() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines")
}

fn perf_check(results: &Path, baseline: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mmwave"))
        .arg("perf-check")
        .arg(results)
        .arg("--baseline")
        .arg(baseline)
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

/// Sets serve_open's `metric` in untraced run `i` to `values[i]`.
fn set_runs(metric: &str, values: [f64; 10]) -> impl FnOnce(&mut Value) + '_ {
    move |v| {
        for (i, x) in values.into_iter().enumerate() {
            v["untraced"][i]["metrics"][metric]["value"] = Value::from(x);
        }
    }
}

/// serve_open's baseline and new runs of `latency_p50_ms` (lower is better,
/// bound 25%) set to `old` and `new`: the gate's output, which `latency` is
/// checked in, and whether it passed.
fn latency(tag: &str, old: [f64; 10], new: [f64; 10]) -> (String, String, bool) {
    let base = edited_copy(&format!("{tag}_base"), "serve_open", set_runs("latency_p50_ms", old));
    let results = edited_copy(&format!("{tag}_new"), "serve_open", set_runs("latency_p50_ms", new));
    let out = perf_check(&results, &base, &[]);
    let all = text(&out);
    let row = all.lines().find(|l| l.trim_start().starts_with("latency_p50_ms")).unwrap_or("");
    let _ = (std::fs::remove_dir_all(&base), std::fs::remove_dir_all(&results));
    (row.to_string(), all, out.status.success())
}

/// 10.0, 10.1, …, 10.9: median 10.45, IQR 0.45, spread 4% of the median.
fn tight() -> [f64; 10] {
    std::array::from_fn(|i| 10.0 + 0.1 * i as f64)
}

fn map(xs: [f64; 10], f: impl Fn(usize, f64) -> f64) -> [f64; 10] {
    std::array::from_fn(|i| f(i, xs[i]))
}

/// Runs the gate on a copy of `baselines/` with `edit` applied to
/// `workload`'s file: it must exit nonzero and name `workload` and `what`.
fn assert_regresses(tag: &str, workload: &str, edit: impl FnOnce(&mut Value), what: &str) {
    let dir = edited_copy(tag, workload, edit);
    let out = perf_check(&dir, &baselines(), &[]);
    assert!(!out.status.success(), "{tag} must fail: {}", text(&out));
    let regress = format!("REGRESS {workload}: ");
    assert!(text(&out).contains(&regress), "{tag} must name {workload}: {}", text(&out));
    assert!(text(&out).contains(what), "{tag} must name {what}: {}", text(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Applies `f` to `metric` in every untraced run.
fn scale_runs<'a>(metric: &'a str, f: impl Fn(f64) -> f64 + 'a) -> impl FnOnce(&mut Value) + 'a {
    move |v| {
        for run in v["untraced"].as_array_mut().expect("runs") {
            let value = &mut run["metrics"][metric]["value"];
            *value = Value::from(f(value.as_f64().expect("a number")));
        }
    }
}

#[test]
fn self_comparison_of_the_committed_baselines_passes() {
    let out = perf_check(&baselines(), &baselines(), &[]);
    assert!(out.status.success(), "{}", text(&out));
    assert!(text(&out).contains("3 workloads compared, 0 regressed"), "{}", text(&out));
}

#[test]
fn a_tenfold_latency_fails_and_names_metric_and_workload() {
    assert_regresses(
        "latency",
        "serve_open",
        scale_runs("latency_p50_ms", |x| x * 10.0 + 10000.0),
        "REGRESS serve_open: latency_p50_ms median is ",
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
            let failed = v["untraced"][2]["failed"].as_u64().expect("a count");
            v["untraced"][2]["failed"] = Value::from(failed + 3);
        },
        "failed share grew",
    );
    // 3% below the baseline median, past ok_frac's 2% bound.
    assert_regresses(
        "ok_frac",
        "serve_open",
        scale_runs("ok_frac", |x| x - 0.03),
        "ok_frac median is 3.0% worse, past its 2% bound",
    );
}

#[test]
fn a_baseline_spread_wider_than_the_bound_leaves_only_a_move_clear_of_it_resolved() {
    // 10, 11, …, 19: IQR 4.5 over median 14.5 is 31%, past the 25% bound.
    let wide: [f64; 10] = std::array::from_fn(|i| 10.0 + i as f64);
    // 30% slower: past the bound, inside the spread, the sets overlap.
    let (row, all, ok) = latency("unresolved", wide, map(wide, |_, x| x * 1.3));
    assert!(ok && row.ends_with("unresolved"), "{all}");
    assert!(all.contains("3 workloads compared, 0 regressed, 1 metrics unresolved"), "{all}");
    // 50% slower: the sets overlap, but the median moved past the spread.
    let (row, all, ok) = latency("past_spread", wide, map(wide, |_, x| x * 1.5));
    assert!(!ok && row.ends_with("worse"), "{all}");
    assert!(all.contains("REGRESS serve_open: latency_p50_ms median is 50.0% worse"), "{all}");
    // IQR 6.75 over median 10 is 67%; every new run is 30% slower than the
    // median and slower than every baseline run.
    let skewed = map(wide, |i, _| if i < 3 { 1.0 } else { 10.0 });
    let (row, all, ok) = latency("apart_slower", skewed, [13.0; 10]);
    assert!(!ok && row.ends_with("worse"), "{all}");
    // Every new run faster than every baseline run: no spread blurs that.
    let (row, all, ok) = latency("apart_faster", wide, map(wide, |_, x| x / 2.0));
    assert!(ok && row.ends_with("better"), "{all}");
}

#[test]
fn better_needs_nine_of_ten_wins_and_a_median_gap_wider_than_the_iqr() {
    let faster = |ties: usize| map(tight(), move |i, x| if i < ties { x } else { x - 0.8 });
    let (row, all, ok) = latency("better", tight(), faster(0));
    assert!(ok && row.ends_with("better") && row.contains(" 10/10 "), "{all}");
    // One pair tied: 9 wins still suffice.
    let (row, all, _) = latency("nine", tight(), faster(1));
    assert!(row.ends_with("better") && row.contains(" 9/10 "), "{all}");
    // Eight wins are not enough, though the median gap is 0.6.
    let (row, all, _) = latency("eight", tight(), faster(2));
    assert!(row.ends_with("within bound") && row.contains(" 8/10 "), "{all}");
    // Ten wins but a gap of 0.2, inside the baseline's IQR of 0.45.
    let (row, all, _) = latency("gap", tight(), map(tight(), |_, x| x - 0.2));
    assert!(row.ends_with("within bound") && row.contains(" 10/10 "), "{all}");
}

#[test]
fn a_digest_mismatch_regresses_within_a_side_and_between_sides() {
    let within = edited_copy("digest_one", "serve_firehose", |v| {
        v["untraced"][4]["digest"] = Value::from("0123456789abcdef");
    });
    let out = perf_check(&within, &baselines(), &[]);
    assert!(!out.status.success(), "{}", text(&out));
    assert!(text(&out).contains("REGRESS serve_firehose: the new runs disagree"), "{}", text(&out));
    let between = edited_copy("digest_all", "serve_firehose", |v| {
        for run in v["untraced"].as_array_mut().expect("runs") {
            run["digest"] = Value::from("0123456789abcdef");
        }
    });
    let out = perf_check(&between, &baselines(), &[]);
    assert!(!out.status.success(), "{}", text(&out));
    assert!(!text(&out).contains("disagree"), "{}", text(&out));
    assert!(text(&out).contains("re-commits baselines/"), "{}", text(&out));
    let _ = (std::fs::remove_dir_all(&within), std::fs::remove_dir_all(&between));
}

#[test]
fn another_seed_length_or_run_count_is_an_error_naming_both_values() {
    let refused = |tag: &str, edit: fn(&mut Value), what: &str| {
        let dir = edited_copy(tag, "serve_open", edit);
        let out = perf_check(&dir, &baselines(), &[]);
        assert!(!out.status.success(), "{tag}: {}", text(&out));
        assert!(text(&out).contains(&format!("serve_open: {what}")), "{tag}: {}", text(&out));
        let _ = std::fs::remove_dir_all(&dir);
    };
    refused("seed", |v| v["seed"] = Value::from(2), "seed 1 in the baseline, 2 in the new set");
    refused(
        "seconds",
        |v| v["seconds"] = Value::from(5),
        "seconds 30 in the baseline, 5 in the new set",
    );
    refused(
        "runs",
        |v| {
            v["untraced"].as_array_mut().expect("runs").pop();
        },
        "untraced runs 10 in the baseline, 9 in the new set",
    );
}

#[test]
fn a_missing_workload_is_an_error() {
    let dir = edited_copy("missing", "serve_open", |_| {});
    std::fs::remove_file(dir.join("BENCH_serve_firehose.json")).expect("remove one file");
    let out = perf_check(&dir, &baselines(), &[]);
    assert!(!out.status.success(), "{}", text(&out));
    assert!(text(&out).contains("BENCH_serve_firehose.json"), "{}", text(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_deleted_threshold_flag_is_refused() {
    let out = perf_check(&baselines(), &baselines(), &["--threshold", "0.2"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threshold"), "{}", text(&out));
}
