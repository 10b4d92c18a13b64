//! The perf regression gate over perfbench run sets.
//!
//! `scripts/ab_pairs.sh` runs every workload of the root `BENCHMARK.json`
//! K times untraced and once traced per source tree, and writes one
//! `BENCH_<workload>.json` per workload:
//!
//! ```text
//! {"workload", "seed", "seconds", "git_sha", "nproc", "workers",
//!  "untraced": [<run + "digest">; K], "traced": <run>}
//! ```
//!
//! where a run is perfbench's last line, `{"correct", "attempted", "failed",
//! "metrics": {name: {"value", "unit"}}}`, and an untraced run also carries
//! the 16-hex digest of perfbench's `# <workload>:` line. [`run`] compares
//! two such directories. A workload **regresses** when an end-to-end
//! metric's [`Verdict`] over the K against K untraced runs is `Worse`; when
//! a digest differs within a side or between the sides (bit identity is the
//! perf contract: a change that moves outputs on purpose says so and
//! re-commits `baselines/`); when a run reads `"correct":false`; when a
//! side's `failed / attempted` share grew. Per-layer metrics of the traced
//! runs are printed as old / new / ratio and never fail. Sets run at another `seed`, `seconds` or K, and a
//! missing or unreadable file or one that lacks a contract metric, are a
//! [`PerfCheckError`], never a silent pass; a differing `nproc` or
//! `workers` is noted.

use serde::Deserialize;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// The benchmark contract, compiled in so the gate and the benchmark
/// cannot disagree about names, directions or bounds.
const CONTRACT: &str = include_str!("../../../BENCHMARK.json");

/// Column heads of the report's two tables.
const E2E_HEAD: &str = "end-to-end                      base q1/median/q3               \
                        new q1/median/q3   worse  wins  verdict";
const LAYER_HEAD: &str = "per-layer (traced, not gated)            base          new    ratio";

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum Better {
    /// Smaller is better (latency, memory, set-up time).
    Lower,
    /// Larger is better (throughput, success fraction).
    Higher,
}

/// Median and inclusive quartiles of a run set, by the method of Python's
/// `statistics.quantiles(xs, n=4, method="inclusive")`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    q1: f64,
    median: f64,
    q3: f64,
}

impl Quartiles {
    /// The quartiles of a non-empty set.
    pub fn of(xs: &[f64]) -> Quartiles {
        let mut s = xs.to_vec();
        s.sort_by(f64::total_cmp);
        let m = s.len() - 1;
        let at = |i: usize| match (i * m / 4, i * m % 4) {
            (j, 0) => s[j],
            (j, d) => (s[j] * (4 - d) as f64 + s[j + 1] * d as f64) / 4.0,
        };
        Quartiles { q1: at(1), median: at(2), q3: at(3) }
    }

    fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// A bounded end-to-end metric's outcome over two run sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The median moved past the bound the worse way, clear of the
    /// baseline's spread: a regression.
    Worse,
    /// The bound is inside the baseline's spread; reported, never fails.
    Unresolved,
    /// The new runs won 9 of 10 pairs and moved the median past the noise.
    Better,
    /// None of the above.
    WithinBound,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
        })
    }
}

/// One bounded end-to-end metric of the contract.
#[derive(Debug, Clone, Deserialize)]
pub struct EndToEnd {
    name: String,
    better: Better,
    /// Largest tolerated worsening, as a fraction of the baseline median.
    bound: f64,
}

impl EndToEnd {
    /// How much better `to` is than `from`, in the metric's unit.
    fn gain(&self, from: f64, to: f64) -> f64 {
        match self.better {
            Better::Lower => from - to,
            Better::Higher => to - from,
        }
    }

    /// Judges the new runs against the baseline runs; run `i` of each side
    /// make pair `i`, and a tie is a win for neither. The baseline's spread
    /// is its IQR over its median. The verdict is the first that holds of:
    ///
    /// * [`Verdict::Worse`]: the new median is worse than the baseline
    ///   median by more than the bound, and by more than the spread or
    ///   with every new run worse than every baseline run;
    /// * [`Verdict::Unresolved`]: the spread exceeds the bound, unless
    ///   every new run beats every baseline run;
    /// * [`Verdict::Better`]: the new runs won at least 9 of 10 pairs and
    ///   the medians differ by more than the baseline's IQR;
    /// * [`Verdict::WithinBound`].
    ///
    /// Writes the metric's row of the report to `table` and returns the
    /// verdict with the worsening of the median as a fraction of the
    /// baseline median (negative is better).
    fn judge(&self, old: &[f64], new: &[f64], table: &mut String) -> (Verdict, f64) {
        let (o, n) = (Quartiles::of(old), Quartiles::of(new));
        let gain = self.gain(o.median, n.median);
        let worse_by = if gain == 0.0 { 0.0 } else { -gain / o.median.abs() };
        let wins = old.iter().zip(new).filter(|&(&a, &b)| self.gain(a, b) > 0.0).count();
        let apart = |beats: fn(f64) -> bool| {
            new.iter().all(|&b| old.iter().all(|&a| beats(self.gain(a, b))))
        };
        let spread = if o.iqr() == 0.0 { 0.0 } else { o.iqr() / o.median.abs() };
        let verdict = if worse_by > self.bound && (worse_by > spread || apart(|g| g < 0.0)) {
            Verdict::Worse
        } else if spread > self.bound && !apart(|g| g > 0.0) {
            Verdict::Unresolved
        } else if 10 * wins >= 9 * new.len() && gain > o.iqr() {
            Verdict::Better
        } else {
            Verdict::WithinBound
        };
        let q = |q: Quartiles| format!("{:.4}/{:.4}/{:.4}", q.q1, q.median, q.q3);
        let (name, worse, wins) = (&self.name, 100.0 * worse_by, format!("{wins}/{}", new.len()));
        table.push_str(&format!(
            "  {name:<18} {:>30} {:>30} {worse:>6.1}% {wins:>5}  {verdict}\n",
            q(o),
            q(n)
        ));
        (verdict, worse_by)
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
    end_to_end: Vec<EndToEnd>,
    per_layer: Vec<Named>,
}

#[derive(Debug, Clone, Deserialize)]
struct Metric {
    value: f64,
}

/// One perfbench run: its last line of standard output, plus the digest
/// of its outputs for an untraced run.
#[derive(Debug, Clone, Deserialize)]
struct Run {
    correct: bool,
    attempted: u64,
    failed: u64,
    digest: Option<String>,
    metrics: BTreeMap<String, Metric>,
}

impl Run {
    /// The first of `names` the run does not report.
    fn lacks<'a>(&self, mut names: impl Iterator<Item = &'a String>) -> Option<&'a String> {
        names.find(|name| !self.metrics.contains_key(*name))
    }
}

/// One `BENCH_<workload>.json`: K untraced perfbench runs and one traced
/// run, with the provenance of perfbench's `# env` line.
#[derive(Debug, Clone, Deserialize)]
pub struct BenchFile {
    workload: String,
    seed: u64,
    seconds: u64,
    nproc: u64,
    workers: u64,
    untraced: Vec<Run>,
    traced: Run,
}

impl Contract {
    /// The contract compiled into this binary.
    pub fn builtin() -> Contract {
        serde_json::from_str(CONTRACT).expect("the root BENCHMARK.json parses")
    }

    /// Parses a run set's text, which must describe `workload`, give every
    /// untraced run a 16-hex digest and every end-to-end metric of the
    /// contract, and give the traced run every per-layer one.
    ///
    /// # Errors
    ///
    /// The reason the text is not such a file.
    pub fn parse(&self, text: &str, workload: &str) -> Result<BenchFile, String> {
        let file: BenchFile = serde_json::from_str(text).map_err(|e| e.to_string())?;
        if file.workload != workload {
            return Err(format!("holds workload `{}`, not `{workload}`", file.workload));
        }
        if file.untraced.is_empty() {
            return Err("holds no untraced run".into());
        }
        for (i, run) in file.untraced.iter().enumerate() {
            let digest = run.digest.as_deref().unwrap_or("");
            if digest.len() != 16 || !digest.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(format!("untraced run {} has digest {digest:?}, not 16 hex", i + 1));
            }
            if let Some(name) = run.lacks(self.end_to_end.iter().map(|m| &m.name)) {
                return Err(format!("untraced run {} lacks {name}", i + 1));
            }
        }
        match file.traced.lacks(self.per_layer.iter().map(|m| &m.name)) {
            Some(name) => Err(format!("the traced run lacks {name}")),
            None => Ok(file),
        }
    }

    /// Loads and parses `dir/BENCH_<workload>.json`.
    ///
    /// # Errors
    ///
    /// [`PerfCheckError`] naming the path when the file is absent,
    /// unreadable or not a run set of `workload`.
    pub fn load(&self, dir: &Path, workload: &str) -> Result<BenchFile, PerfCheckError> {
        let path = dir.join(format!("BENCH_{workload}.json"));
        let bytes = std::fs::read(&path).map_err(|e| PerfCheckError::Read(path.clone(), e))?;
        std::str::from_utf8(&bytes)
            .map_err(|e| e.to_string())
            .and_then(|text| self.parse(text, workload))
            .map_err(|reason| PerfCheckError::Parse(path, reason))
    }
}

impl BenchFile {
    fn digests(&self) -> BTreeSet<&str> {
        self.untraced.iter().filter_map(|r| r.digest.as_deref()).collect()
    }
}

/// Why the gate could not compare at all.
#[derive(Debug)]
pub enum PerfCheckError {
    /// A workload's file is absent or unreadable.
    Read(PathBuf, std::io::Error),
    /// The file is not a run set of its workload, and why.
    Parse(PathBuf, String),
    /// The two sides of a workload ran at different settings: the
    /// workload, the setting, and the baseline's and the new value.
    Mismatch(String, &'static str, u64, u64),
}

impl fmt::Display for PerfCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PerfCheckError::Read(path, error) => write!(f, "{}: {error}", path.display()),
            PerfCheckError::Parse(path, reason) => {
                write!(f, "{}: not a perfbench run set: {reason}", path.display())
            }
            PerfCheckError::Mismatch(workload, what, old, new) => write!(
                f,
                "{workload}: {what} {old} in the baseline, {new} in the new set; \
                 only sets run at the same settings compare"
            ),
        }
    }
}

impl std::error::Error for PerfCheckError {}

/// One workload's comparison: its report table, its count of unresolved
/// metrics, and why it regressed (empty when it passed).
#[derive(Debug, Clone)]
struct WorkloadReport {
    workload: String,
    table: String,
    unresolved: usize,
    regressions: Vec<String>,
}

/// Compares one workload's new run set against its baseline, or refuses
/// sets run at another seed, length or run count.
fn compare_workload(
    contract: &Contract,
    old: &BenchFile,
    new: &BenchFile,
) -> Result<WorkloadReport, PerfCheckError> {
    let settings = [
        ("seed", old.seed, new.seed),
        ("seconds", old.seconds, new.seconds),
        ("untraced runs", old.untraced.len() as u64, new.untraced.len() as u64),
    ];
    if let Some(&(what, o, n)) = settings.iter().find(|(_, o, n)| o != n) {
        return Err(PerfCheckError::Mismatch(old.workload.clone(), what, o, n));
    }
    let mut why = Vec::new();
    let untraced = [old.untraced.as_slice(), new.untraced.as_slice()];
    let traced = [std::slice::from_ref(&old.traced), std::slice::from_ref(&new.traced)];
    for (label, [o, n]) in [("untraced", untraced), ("traced", traced)] {
        for (side, runs) in [("baseline", o), ("new", n)] {
            if runs.iter().any(|r| !r.correct) {
                why.push(format!("a {side} {label} run reads \"correct\":false"));
            }
        }
        let share =
            |runs: &[Run]| runs.iter().fold((0, 0), |(f, a), r| (f + r.failed, a + r.attempted));
        let ((of, oa), (nf, na)) = (share(o), share(n));
        if nf as f64 / na.max(1) as f64 > of as f64 / oa.max(1) as f64 {
            why.push(format!("{label} failed share grew: {of}/{oa} -> {nf}/{na}"));
        }
    }
    let (od, nd) = (old.digests(), new.digests());
    for (side, digests) in [("baseline", &od), ("new", &nd)] {
        if digests.len() > 1 {
            why.push(format!("the {side} runs disagree on their digest: {digests:?}"));
        }
    }
    if od != nd {
        why.push(format!(
            "digest {od:?} -> {nd:?}: the outputs are no longer bit-identical; a change that \
             moves them on purpose says so and re-commits baselines/ from its own runs"
        ));
    }
    let value = |run: &Run, name: &str| run.metrics[name].value;
    let mut table = format!("  {E2E_HEAD}\n");
    let mut unresolved = 0;
    for m in &contract.end_to_end {
        let [o, n] =
            untraced.map(|runs| runs.iter().map(|r| value(r, &m.name)).collect::<Vec<_>>());
        match m.judge(&o, &n, &mut table) {
            (Verdict::Unresolved, _) => unresolved += 1,
            (Verdict::Worse, by) => why.push(format!(
                "{} median is {:.1}% worse, past its {:.0}% bound",
                m.name,
                100.0 * by,
                100.0 * m.bound
            )),
            _ => {}
        }
    }
    table.push_str(&format!("  {LAYER_HEAD}\n"));
    for Named { name } in &contract.per_layer {
        let (old, new) = (value(&old.traced, name), value(&new.traced, name));
        let ratio = if old == 0.0 { 1.0 } else { new / old };
        table.push_str(&format!("  {name:<32} {old:>12.4} {new:>12.4} {ratio:>7.2}x\n"));
    }
    if (old.nproc, old.workers) != (new.nproc, new.workers) {
        table.push_str(&format!(
            "  note: nproc/workers changed ({}/{} -> {}/{}); numbers are not like for like\n",
            old.nproc, old.workers, new.nproc, new.workers
        ));
    }
    Ok(WorkloadReport { workload: new.workload.clone(), table, unresolved, regressions: why })
}

/// The whole gate run, one report per workload in contract order.
#[derive(Debug, Clone)]
pub struct PerfReport {
    workloads: Vec<WorkloadReport>,
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
            write!(f, "== {} ({verdict})\n{}", w.workload, w.table)?;
            for reason in &w.regressions {
                writeln!(f, "  REGRESS {}: {reason}", w.workload)?;
            }
        }
        let regressed = self.workloads.iter().filter(|w| !w.regressions.is_empty()).count();
        let unresolved: usize = self.workloads.iter().map(|w| w.unresolved).sum();
        let n = self.workloads.len();
        write!(f, "{n} workloads compared, {regressed} regressed, {unresolved} metrics unresolved")
    }
}

/// Loads every contract workload from both directories and compares them:
/// the `mmwave perf-check` entry point.
///
/// # Errors
///
/// The first [`PerfCheckError`].
pub fn run(results_dir: &Path, baseline_dir: &Path) -> Result<PerfReport, PerfCheckError> {
    let contract = Contract::builtin();
    let workloads = contract
        .workloads
        .iter()
        .map(|Named { name }| {
            let old = contract.load(baseline_dir, name)?;
            let new = contract.load(results_dir, name)?;
            compare_workload(&contract, &old, &new)
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
        std::fs::read_to_string(committed_dir().join(format!("BENCH_{workload}.json")))
            .expect("the committed baselines are readable")
    }

    fn committed(workload: &str) -> BenchFile {
        Contract::builtin().load(&committed_dir(), workload).expect("committed baseline parses")
    }

    /// The serve_open baseline with `edit` applied to its JSON.
    fn edited(edit: impl FnOnce(&mut Value)) -> BenchFile {
        let mut v: Value = serde_json::from_str(&committed_text("serve_open")).unwrap();
        edit(&mut v);
        Contract::builtin().parse(&v.to_string(), "serve_open").expect("edited file still parses")
    }

    fn compare(new: &BenchFile) -> WorkloadReport {
        compare_workload(&Contract::builtin(), &committed("serve_open"), new).unwrap()
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
        assert_eq!(contract.workloads.len(), 3);
        assert_eq!(contract.end_to_end.len(), 6);
        assert_eq!(contract.per_layer.len(), 45);
        let digests = [
            ("serve_open", "b45a79cc0ec4905e"),
            ("serve_firehose", "8a9fb2dfe3ea17a9"),
            ("attack_campaign", "bdbe2f993a48bfc2"),
        ];
        for (w, digest) in digests {
            let file = committed(w);
            assert_eq!(file.untraced.len(), 10, "{w}: K = 10 untraced runs");
            assert_eq!((file.seed, file.seconds), (1, 30), "{w}: seed 1, 30 s");
            assert_eq!((file.nproc, file.workers), (2, 2), "{w}: the 2-core label");
            assert_eq!(file.digests(), BTreeSet::from([digest]), "{w}: the seed-1 digest");
            assert!(file.untraced.iter().chain([&file.traced]).all(|r| r.correct), "{w}");
            for run in &file.untraced {
                for m in &contract.end_to_end {
                    assert!(run.metrics.contains_key(&m.name), "{w}: untraced lacks {}", m.name);
                }
            }
            for Named { name } in &contract.per_layer {
                assert!(file.traced.metrics.contains_key(name), "{w}: traced lacks {name}");
            }
        }
    }

    #[test]
    fn quartiles_follow_the_inclusive_method() {
        let q = |xs: &[f64]| {
            let q = Quartiles::of(xs);
            (q.q1, q.median, q.q3)
        };
        let ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(q(&ten), (3.25, 5.5, 7.75));
        assert_eq!(q(&[7.0, 1.0, 2.0, 6.0, 3.0, 5.0, 4.0]), (2.5, 4.0, 5.5));
        assert_eq!(q(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn per_layer_blowup_is_reported_but_never_fails() {
        let report = compare(&edited(|v| {
            let value = &mut v["traced"]["metrics"]["nn.lstm_us"]["value"];
            *value = Value::from(value.as_f64().unwrap() * 100.0);
        }));
        assert!(report.regressions.is_empty(), "{:?}", report.regressions);
        let row = report.table.lines().find(|l| l.trim_start().starts_with("nn.lstm_us")).unwrap();
        assert!(row.ends_with(" 100.00x"), "{row}");
    }

    #[test]
    fn growth_within_the_bound_is_not_a_regression() {
        let contract = Contract::builtin();
        let base: Vec<f64> = (0..10).map(|i| 10.0 + 0.1 * f64::from(i)).collect();
        let mut table = String::new();
        let within = [
            ("latency_p50_ms", 1.2),
            ("throughput_per_s", 0.8),
            ("ok_frac", 0.99),
            ("setup_s", 0.1),
        ];
        for (name, factor) in within {
            let m = contract.end_to_end.iter().find(|m| m.name == name).unwrap();
            let new: Vec<f64> = base.iter().map(|x| x * factor).collect();
            let (verdict, _) = m.judge(&base, &new, &mut table);
            assert_ne!(verdict, Verdict::Worse, "{name} x{factor}:\n{table}");
        }
    }

    #[test]
    fn a_provenance_change_is_noted() {
        let report = compare(&edited(|v| v["nproc"] = Value::from(8u64)));
        assert!(report.regressions.is_empty());
        assert!(report.table.contains("note: nproc/workers changed (2/2 -> 8/2)"), "{report:?}");
    }

    #[test]
    fn a_file_for_another_workload_is_refused() {
        let err =
            Contract::builtin().parse(&committed_text("serve_firehose"), "serve_open").unwrap_err();
        assert!(err.contains("`serve_firehose`"), "{err}");
    }

    #[test]
    fn a_missing_metric_or_the_single_run_format_is_a_parse_error() {
        let parse = |edit: fn(&mut Value)| {
            let mut v: Value = serde_json::from_str(&committed_text("serve_open")).unwrap();
            edit(&mut v);
            Contract::builtin().parse(&v.to_string(), "serve_open").unwrap_err()
        };
        let err = parse(|v| {
            v["traced"]["metrics"].as_object_mut().unwrap().remove("dsp.range_fft_us");
        });
        assert_eq!(err, "the traced run lacks dsp.range_fft_us");
        let err = parse(|v| {
            v["untraced"][7]["metrics"].as_object_mut().unwrap().remove("setup_s");
        });
        assert_eq!(err, "untraced run 8 lacks setup_s");
        // The old format: one untraced run object, with no digest.
        let dir = temp_dir("single");
        let mut v: Value = serde_json::from_str(&committed_text("serve_open")).unwrap();
        let mut run = v["untraced"][0].clone();
        run.as_object_mut().unwrap().remove("digest");
        v["untraced"] = run;
        std::fs::write(dir.join("BENCH_serve_open.json"), v.to_string()).unwrap();
        match Contract::builtin().load(&dir, "serve_open") {
            Err(PerfCheckError::Parse(path, _)) => assert!(path.ends_with("BENCH_serve_open.json")),
            other => panic!("expected a parse error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Seeded byte damage to a committed baseline: loading never panics.
    /// A truncated file is always a typed parse error; an overwritten
    /// byte either still parses or is one.
    #[test]
    fn damaged_baselines_load_as_typed_errors_never_panics() {
        const CASES: u64 = 256;
        let dir = temp_dir("damage");
        let original = committed_text("attack_campaign").into_bytes();
        let path = dir.join("BENCH_attack_campaign.json");
        let contract = Contract::builtin();
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
            let loaded = std::panic::catch_unwind(|| contract.load(&dir, "attack_campaign"))
                .unwrap_or_else(|_| panic!("seed {seed}: loading a damaged baseline panicked"));
            match loaded {
                Err(PerfCheckError::Parse(..)) => refused += 1,
                Ok(_) if !truncated => {}
                other => panic!("seed {seed}: expected a parse error, got {other:?}"),
            }
        }
        assert!(refused >= CASES / 2, "only {refused} of {CASES} damaged files were refused");
        std::fs::remove_dir_all(&dir).ok();
    }
}
