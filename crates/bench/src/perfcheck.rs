//! The perf regression gate over perfbench results.
//!
//! `run_benches.sh` runs every workload of the root `BENCHMARK.json`
//! untraced and then traced, and writes one `BENCH_<workload>.json`:
//!
//! ```text
//! {"workload", "seed", "seconds", "git_sha", "nproc", "workers",
//!  "untraced": <perfbench's last line>, "traced": <perfbench's last line>}
//! ```
//!
//! where each run is `{"correct", "attempted", "failed", "metrics": {name:
//! {"value", "unit"}}}`. [`run`] compares a results directory against a
//! baseline directory under the contract's own rules. A workload
//! **regresses** when
//!
//! * an `end_to_end` metric of the untraced run is worse than the baseline
//!   by more than its `bound` (a fraction of the baseline value), in the
//!   direction its `better` gives;
//! * either run on either side reads `"correct":false`;
//! * the share `failed / attempted` of a run grew;
//! * a metric the contract names is missing (end-to-end from `untraced`,
//!   per-layer from `traced`).
//!
//! Per-layer metrics are printed as old / new / ratio and never fail. A
//! differing `nproc` or `workers` is noted: the numbers are then not like
//! for like. Every workload must be present on both sides; a missing or
//! unreadable file is a [`PerfCheckError`], never a silent pass.

use serde::Deserialize;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// The benchmark contract, compiled in so the gate and the benchmark
/// cannot disagree about names, directions or bounds.
const CONTRACT: &str = include_str!("../../../BENCHMARK.json");

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum Better {
    /// Smaller is better (latency, memory, set-up time).
    Lower,
    /// Larger is better (throughput, success fraction).
    Higher,
}

/// One bounded end-to-end metric of the contract.
#[derive(Debug, Clone, Deserialize)]
pub struct EndToEnd {
    /// Metric name in perfbench's `metrics` object.
    pub name: String,
    /// Improvement direction.
    pub better: Better,
    /// Largest tolerated worsening, as a fraction of the baseline value.
    pub bound: f64,
}

impl EndToEnd {
    /// How much worse `new` is than `old`, as a fraction of `old`:
    /// positive is worse, negative is better.
    pub fn worse_by(&self, old: f64, new: f64) -> f64 {
        let worse = match self.better {
            Better::Lower => new - old,
            Better::Higher => old - new,
        };
        if worse == 0.0 {
            0.0
        } else {
            worse / old.abs()
        }
    }
}

#[derive(Debug, Clone, Deserialize)]
struct Named {
    name: String,
}

/// The parts of `BENCHMARK.json` the gate reads.
#[derive(Debug, Clone, Deserialize)]
pub struct Contract {
    workloads: Vec<Named>,
    /// The bounded end-to-end metrics.
    pub end_to_end: Vec<EndToEnd>,
    per_layer: Vec<Named>,
}

impl Contract {
    /// The contract compiled into this binary.
    pub fn builtin() -> Contract {
        serde_json::from_str(CONTRACT).expect("the root BENCHMARK.json parses")
    }

    /// Workload names, in contract order.
    pub fn workloads(&self) -> impl Iterator<Item = &str> {
        self.workloads.iter().map(|w| w.name.as_str())
    }

    /// Per-layer metric names, in contract order.
    pub fn per_layer(&self) -> impl Iterator<Item = &str> {
        self.per_layer.iter().map(|m| m.name.as_str())
    }
}

#[derive(Debug, Clone, Deserialize)]
struct Metric {
    value: f64,
}

/// One perfbench run: its last line of standard output.
#[derive(Debug, Clone, Deserialize)]
pub struct Run {
    /// Every output check of the run passed.
    pub correct: bool,
    /// Operations attempted (clips due, or table rows).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    metrics: BTreeMap<String, Metric>,
}

impl Run {
    /// A metric's value, if the run reported it.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.value)
    }

    fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One `BENCH_<workload>.json`: an untraced and a traced perfbench run
/// with the provenance of perfbench's `# env` line.
#[derive(Debug, Clone, Deserialize)]
pub struct BenchFile {
    /// Workload name.
    pub workload: String,
    /// Seed both runs used.
    pub seed: u64,
    /// `--seconds` both runs used.
    pub seconds: u64,
    /// Revision the runs were built from.
    pub git_sha: String,
    /// Cores the host offered.
    pub nproc: u64,
    /// Worker threads the runs used.
    pub workers: u64,
    /// The `--trace 0` run: end-to-end metrics.
    pub untraced: Run,
    /// The `--trace 1` run: per-layer metrics.
    pub traced: Run,
}

impl BenchFile {
    /// The file name `run_benches.sh` writes for a workload.
    pub fn file_name(workload: &str) -> String {
        format!("BENCH_{workload}.json")
    }

    /// Parses a file's text, which must describe `workload`.
    ///
    /// # Errors
    ///
    /// The reason the text is not such a file.
    pub fn parse(text: &str, workload: &str) -> Result<BenchFile, String> {
        let file: BenchFile = serde_json::from_str(text).map_err(|e| e.to_string())?;
        if file.workload != workload {
            return Err(format!("holds workload `{}`, not `{workload}`", file.workload));
        }
        Ok(file)
    }

    /// Loads `dir/BENCH_<workload>.json`.
    ///
    /// # Errors
    ///
    /// [`PerfCheckError`] naming the path when the file is absent,
    /// unreadable or not a result of `workload`.
    pub fn load(dir: &Path, workload: &str) -> Result<BenchFile, PerfCheckError> {
        let path = dir.join(BenchFile::file_name(workload));
        let bytes = std::fs::read(&path).map_err(|error| match error.kind() {
            io::ErrorKind::NotFound => PerfCheckError::Missing { path: path.clone() },
            _ => PerfCheckError::Read { path: path.clone(), error },
        })?;
        std::str::from_utf8(&bytes)
            .map_err(|e| e.to_string())
            .and_then(|text| BenchFile::parse(text, workload))
            .map_err(|reason| PerfCheckError::Parse { path, reason })
    }
}

/// Why the gate could not compare at all.
#[derive(Debug)]
pub enum PerfCheckError {
    /// A workload's file is absent.
    Missing {
        /// The expected file.
        path: PathBuf,
    },
    /// The file exists but could not be read.
    Read {
        /// The file.
        path: PathBuf,
        /// The I/O error.
        error: io::Error,
    },
    /// The file is not a perfbench result of its workload.
    Parse {
        /// The file.
        path: PathBuf,
        /// What is wrong with it.
        reason: String,
    },
}

impl fmt::Display for PerfCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PerfCheckError::Missing { path } => write!(f, "{}: no such file", path.display()),
            PerfCheckError::Read { path, error } => write!(f, "{}: {error}", path.display()),
            PerfCheckError::Parse { path, reason } => {
                write!(f, "{}: not a perfbench result: {reason}", path.display())
            }
        }
    }
}

impl std::error::Error for PerfCheckError {}

/// One metric's old-versus-new row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Metric name.
    pub name: String,
    /// Baseline value.
    pub old: f64,
    /// New value.
    pub new: f64,
    /// Worsening as a fraction of the baseline (end-to-end rows only).
    pub worse_by: Option<f64>,
}

/// One workload's comparison.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Workload name.
    pub workload: String,
    /// The gated end-to-end metrics of the untraced runs.
    pub end_to_end: Vec<Row>,
    /// The reported per-layer metrics of the traced runs.
    pub per_layer: Vec<Row>,
    /// Why the workload regressed; empty when it passed.
    pub regressions: Vec<String>,
    /// Provenance differences that make the numbers not like for like.
    pub notes: Vec<String>,
}

/// A metric's (baseline, new) values, or a regression naming the side of
/// the `label` run it is missing from.
fn both(
    label: &str,
    name: &str,
    (old, new): (Option<f64>, Option<f64>),
    regressions: &mut Vec<String>,
) -> Option<(f64, f64)> {
    match (old, new) {
        (Some(o), Some(n)) => Some((o, n)),
        _ => {
            let side = if old.is_none() { "baseline" } else { "new" };
            regressions.push(format!("{name} is missing from the {side} {label} run"));
            None
        }
    }
}

/// Compares one workload's new result against its baseline.
pub fn compare_workload(contract: &Contract, old: &BenchFile, new: &BenchFile) -> WorkloadReport {
    let mut regressions = Vec::new();
    for (label, o, n) in
        [("untraced", &old.untraced, &new.untraced), ("traced", &old.traced, &new.traced)]
    {
        for (side, run) in [("baseline", o), ("new", n)] {
            if !run.correct {
                regressions.push(format!("the {side} {label} run reads \"correct\":false"));
            }
        }
        if n.failed_share() > o.failed_share() {
            regressions.push(format!(
                "{label} failed share grew: {}/{} -> {}/{}",
                o.failed, o.attempted, n.failed, n.attempted
            ));
        }
    }
    let mut end_to_end = Vec::new();
    for m in &contract.end_to_end {
        let pair = (old.untraced.value(&m.name), new.untraced.value(&m.name));
        if let Some((o, n)) = both("untraced", &m.name, pair, &mut regressions) {
            let worse_by = m.worse_by(o, n);
            if worse_by > m.bound {
                regressions.push(format!(
                    "{} {o} -> {n} is {:.1}% worse ({} is better, bound {:.0}%)",
                    m.name,
                    100.0 * worse_by,
                    if m.better == Better::Lower { "lower" } else { "higher" },
                    100.0 * m.bound
                ));
            }
            end_to_end.push(Row { name: m.name.clone(), old: o, new: n, worse_by: Some(worse_by) });
        }
    }
    let mut per_layer = Vec::new();
    for name in contract.per_layer() {
        let pair = (old.traced.value(name), new.traced.value(name));
        if let Some((o, n)) = both("traced", name, pair, &mut regressions) {
            per_layer.push(Row { name: name.to_string(), old: o, new: n, worse_by: None });
        }
    }
    let mut notes = Vec::new();
    if (old.nproc, old.workers) != (new.nproc, new.workers) {
        notes.push(format!(
            "nproc/workers changed ({}/{} -> {}/{}); numbers are not like for like",
            old.nproc, old.workers, new.nproc, new.workers
        ));
    }
    WorkloadReport { workload: new.workload.clone(), end_to_end, per_layer, regressions, notes }
}

/// The whole gate run, one report per workload in contract order.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Per-workload comparisons.
    pub workloads: Vec<WorkloadReport>,
}

impl PerfReport {
    /// True when any workload regressed.
    pub fn has_regressions(&self) -> bool {
        self.workloads.iter().any(|w| !w.regressions.is_empty())
    }
}

impl fmt::Display for PerfReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for w in &self.workloads {
            let verdict = if w.regressions.is_empty() { "pass" } else { "REGRESS" };
            writeln!(f, "== {} ({verdict})", w.workload)?;
            writeln!(
                f,
                "  {:<32} {:>12} {:>12} {:>8}",
                "end-to-end (untraced)", "base", "new", "worse"
            )?;
            for r in &w.end_to_end {
                let worse = 100.0 * r.worse_by.unwrap_or(0.0);
                writeln!(f, "  {:<32} {:>12.4} {:>12.4} {:>7.1}%", r.name, r.old, r.new, worse)?;
            }
            writeln!(
                f,
                "  {:<32} {:>12} {:>12} {:>8}",
                "per-layer (traced, not gated)", "base", "new", "ratio"
            )?;
            for r in &w.per_layer {
                let ratio = if r.old == 0.0 { 1.0 } else { r.new / r.old };
                writeln!(f, "  {:<32} {:>12.4} {:>12.4} {:>7.2}x", r.name, r.old, r.new, ratio)?;
            }
            for note in &w.notes {
                writeln!(f, "  note: {note}")?;
            }
            for reason in &w.regressions {
                writeln!(f, "  REGRESS {}: {reason}", w.workload)?;
            }
        }
        let regressed = self.workloads.iter().filter(|w| !w.regressions.is_empty()).count();
        write!(f, "{} workloads compared, {regressed} regressed", self.workloads.len())
    }
}

/// Loads every contract workload from both directories and compares them:
/// the `mmwave perf-check` entry point.
///
/// # Errors
///
/// The first [`PerfCheckError`]: each directory must hold every workload.
pub fn run(results_dir: &Path, baseline_dir: &Path) -> Result<PerfReport, PerfCheckError> {
    let contract = Contract::builtin();
    let workloads = contract
        .workloads()
        .map(|w| {
            let old = BenchFile::load(baseline_dir, w)?;
            let new = BenchFile::load(results_dir, w)?;
            Ok(compare_workload(&contract, &old, &new))
        })
        .collect::<Result<_, _>>()?;
    Ok(PerfReport { workloads })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use serde_json::Value;

    fn committed_dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines")
    }

    fn committed_text(workload: &str) -> String {
        std::fs::read_to_string(committed_dir().join(BenchFile::file_name(workload)))
            .expect("the committed baselines are readable")
    }

    fn committed(workload: &str) -> BenchFile {
        BenchFile::load(&committed_dir(), workload).expect("committed baseline parses")
    }

    /// The serve_open baseline with `edit` applied to its JSON.
    fn edited(edit: impl FnOnce(&mut Value)) -> BenchFile {
        let mut v: Value = serde_json::from_str(&committed_text("serve_open")).unwrap();
        edit(&mut v);
        BenchFile::parse(&v.to_string(), "serve_open").expect("edited file still parses")
    }

    fn compare(new: &BenchFile) -> WorkloadReport {
        compare_workload(&Contract::builtin(), &committed("serve_open"), new)
    }

    fn set_metric(v: &mut Value, run: &str, name: &str, f: impl Fn(f64) -> f64) {
        let value = &mut v[run]["metrics"][name]["value"];
        *value = Value::from(f(value.as_f64().expect("metric is a number")));
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mmwave_perfcheck_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn every_committed_baseline_carries_every_contract_metric() {
        let contract = Contract::builtin();
        assert_eq!(contract.workloads().count(), 3);
        assert_eq!(contract.end_to_end.len(), 6);
        assert_eq!(contract.per_layer().count(), 45);
        for w in contract.workloads() {
            let file = committed(w);
            assert!(file.untraced.correct && file.traced.correct, "{w}: both runs correct");
            assert_eq!((file.nproc, file.workers), (2, 2), "{w}: the 2-core label");
            for m in &contract.end_to_end {
                assert!(file.untraced.value(&m.name).is_some(), "{w}: untraced lacks {}", m.name);
            }
            for name in contract.per_layer() {
                assert!(file.traced.value(name).is_some(), "{w}: traced lacks {name}");
            }
        }
    }

    #[test]
    fn self_comparison_passes_with_exit_zero() {
        let report = run(&committed_dir(), &committed_dir()).unwrap();
        assert_eq!(report.workloads.len(), 3);
        assert!(!report.has_regressions(), "{report}");
        assert!(report.workloads.iter().all(|w| w.notes.is_empty()));
    }

    #[test]
    fn inflated_wall_time_fails_the_gate() {
        for name in ["latency_p50_ms", "latency_p99_ms", "setup_s"] {
            let report =
                compare(&edited(|v| set_metric(v, "untraced", name, |x| x * 10.0 + 10000.0)));
            assert_eq!(report.regressions.len(), 1, "{name}: {:?}", report.regressions);
            assert!(report.regressions[0].starts_with(name), "{:?}", report.regressions);
        }
        let slower =
            compare(&edited(|v| set_metric(v, "untraced", "throughput_per_s", |x| x * 0.5)));
        assert!(slower.regressions[0].contains("higher is better"), "{:?}", slower.regressions);
    }

    #[test]
    fn growth_within_the_bound_is_not_a_regression() {
        let report = compare(&edited(|v| {
            set_metric(v, "untraced", "latency_p50_ms", |x| x * 1.2);
            set_metric(v, "untraced", "throughput_per_s", |x| x * 0.8);
            set_metric(v, "untraced", "ok_frac", |x| x * 0.99);
        }));
        assert!(report.regressions.is_empty(), "{:?}", report.regressions);
        let faster = compare(&edited(|v| set_metric(v, "untraced", "latency_p50_ms", |x| x * 0.1)));
        assert!(faster.regressions.is_empty(), "an improvement never fails");
    }

    #[test]
    fn per_layer_blowup_is_reported_but_never_fails() {
        let report = compare(&edited(|v| set_metric(v, "traced", "nn.lstm_us", |x| x * 100.0)));
        assert!(report.regressions.is_empty(), "{:?}", report.regressions);
        let row = report.per_layer.iter().find(|r| r.name == "nn.lstm_us").unwrap();
        assert!((row.new / row.old - 100.0).abs() < 1e-9);
    }

    #[test]
    fn correctness_failures_and_missing_metrics_regress() {
        let wrong = compare(&edited(|v| v["traced"]["correct"] = Value::from(false)));
        assert!(wrong.regressions.iter().any(|r| r.contains("\"correct\":false")));
        let failing = compare(&edited(|v| {
            let failed = v["untraced"]["failed"].as_u64().unwrap();
            v["untraced"]["failed"] = Value::from(failed + 5);
        }));
        assert!(failing.regressions.iter().any(|r| r.contains("failed share grew")));
        let missing = compare(&edited(|v| {
            v["traced"]["metrics"].as_object_mut().unwrap().remove("dsp.range_fft_us");
        }));
        assert_eq!(
            missing.regressions,
            vec!["dsp.range_fft_us is missing from the new traced run"]
        );
    }

    #[test]
    fn a_provenance_change_is_noted() {
        let report = compare(&edited(|v| v["nproc"] = Value::from(8u64)));
        assert!(report.regressions.is_empty());
        assert!(report.notes[0].contains("nproc/workers changed"), "{:?}", report.notes);
    }

    #[test]
    fn empty_results_directory_is_an_error() {
        let empty = temp_dir("empty");
        match run(&empty, &committed_dir()) {
            Err(PerfCheckError::Missing { path }) => {
                assert!(path.ends_with("BENCH_serve_open.json"), "{}", path.display())
            }
            other => panic!("expected a missing-file error, got {other:?}"),
        }
        std::fs::remove_dir_all(&empty).ok();
    }

    #[test]
    fn a_file_for_another_workload_is_refused() {
        let err = BenchFile::parse(&committed_text("serve_firehose"), "serve_open").unwrap_err();
        assert!(err.contains("`serve_firehose`"), "{err}");
    }

    /// Seeded byte damage to a committed baseline: loading never panics.
    /// A truncated file is always a typed parse error; an overwritten
    /// byte either still parses or is one.
    #[test]
    fn damaged_baselines_load_as_typed_errors_never_panics() {
        const CASES: u64 = 256;
        let dir = temp_dir("damage");
        let original = committed_text("attack_campaign").into_bytes();
        let path = dir.join(BenchFile::file_name("attack_campaign"));
        let mut refused = 0;
        for seed in 0..CASES {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut bytes = original.clone();
            let truncated = seed % 2 == 0;
            if truncated {
                bytes.truncate(rng.gen_range(0..original.trim_ascii_end().len()));
            } else {
                for _ in 0..rng.gen_range(1..4) {
                    let at = rng.gen_range(0..bytes.len());
                    bytes[at] = rng.gen::<u32>() as u8;
                }
            }
            std::fs::write(&path, &bytes).unwrap();
            let loaded = std::panic::catch_unwind(|| BenchFile::load(&dir, "attack_campaign"))
                .unwrap_or_else(|_| panic!("seed {seed}: loading a damaged baseline panicked"));
            match loaded {
                Err(PerfCheckError::Parse { .. }) => refused += 1,
                Ok(_) if !truncated => {}
                other => panic!("seed {seed}: expected a parse error, got {other:?}"),
            }
        }
        assert!(refused >= CASES / 2, "only {refused} of {CASES} damaged files were refused");
        std::fs::remove_dir_all(&dir).ok();
    }
}
