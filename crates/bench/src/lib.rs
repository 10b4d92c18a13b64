//! Shared harness for the paper-reproduction benchmarks.
//!
//! Every table and figure of the paper's evaluation section has a bench
//! target in `benches/` (one file per figure; `harness = false`, so
//! `cargo bench` runs them as plain binaries that print the same rows or
//! series the paper reports). This library holds the formatting and sweep
//! helpers they share.
//!
//! Scale knobs (see `DESIGN.md`):
//!
//! * `MMWAVE_BENCH_REPS` — repetitions averaged per data point (paper: 30,
//!   default here: 1);
//! * `MMWAVE_BENCH_SCALE` — dataset-size multiplier (default 1);
//! * `MMWAVE_BENCH_FULL` — `1` runs the full sweeps (default `0`), read
//!   by [`full_sweep`].
//!
//! Performance is measured by `perfbench/` under the root `BENCHMARK.json`;
//! [`perfcheck`] is the `mmwave perf-check` gate over its results.

pub mod perfcheck;

use mmwave_backdoor::AttackMetrics;

/// Prints the standard banner for one experiment reproduction.
pub fn banner(id: &str, title: &str, paper_expectation: &str) {
    println!("\n=== {id}: {title} ===");
    println!("paper: {paper_expectation}");
    let reps = mmwave_har::PrototypeConfig::bench_repetitions();
    let scale = mmwave_har::PrototypeConfig::bench_scale();
    println!("run:   reps={reps} scale={scale} (MMWAVE_BENCH_REPS / MMWAVE_BENCH_SCALE to change)\n");
}

/// Prints the header of an ASR/UASR/CDR series table.
pub fn series_header(x_label: &str) {
    println!("{:<28}{:>10}{:>8}{:>8}{:>8}", "series", x_label, "ASR%", "UASR%", "CDR%");
}

/// Prints one row of an ASR/UASR/CDR series table.
pub fn series_row(series: &str, x: &str, m: &AttackMetrics) {
    println!(
        "{:<28}{:>10}{:>8.1}{:>8.1}{:>8.1}",
        series,
        x,
        100.0 * m.asr,
        100.0 * m.uasr,
        100.0 * m.cdr
    );
}

/// The injection-rate sweep of Figs. 8, 10, 12.
pub fn injection_rates() -> [f64; 5] {
    [0.1, 0.2, 0.3, 0.4, 0.5]
}

/// Whether `MMWAVE_BENCH_FULL=1` asks for the full sweeps. Unset or `0`
/// keeps the reduced ones; any other value warns, bumps
/// `bench.config_invalid` and keeps them too.
pub fn full_sweep() -> bool {
    mmwave_telemetry::env_knob("MMWAVE_BENCH_FULL", "bench.config_invalid", false, parse_switch)
}

/// Parses a `0`/`1` switch, allowing surrounding whitespace.
fn parse_switch(raw: &str) -> Option<bool> {
    match raw.trim() {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    }
}

/// The poisoned-frame sweep of Figs. 9, 11, 13 (32 frames per sample).
/// The paper sweeps {2, 4, 8, 16, 32}; the default here keeps the
/// endpoints and the reference point to fit the single-core budget — set
/// `MMWAVE_BENCH_FULL=1` for the full sweep.
pub fn frame_counts() -> Vec<usize> {
    if full_sweep() {
        vec![2, 4, 8, 16, 32]
    } else {
        vec![2, 8, 32]
    }
}

/// Renders a textual histogram (Fig. 3 style): one line per bin with a bar
/// proportional to the count.
pub fn print_histogram(counts: &[usize], bin_label: &str) {
    let max = counts.iter().copied().max().unwrap_or(1).max(1);
    println!("{bin_label:>6}  count");
    for (i, &c) in counts.iter().enumerate() {
        let bar = "#".repeat(c * 40 / max);
        println!("{i:>6}  {c:>5} {bar}");
    }
}

/// Sweeps injection rate for each labeled base spec, printing one row per
/// (series, rate) with `reps`-run averaging.
pub fn sweep_injection_rates(
    ctx: &mut mmwave_backdoor::ExperimentContext,
    series: &[(String, mmwave_backdoor::AttackSpec)],
    reps: usize,
    watch: &Stopwatch,
) {
    series_header("rate");
    for &rate in &injection_rates() {
        for (label, base) in series {
            let spec = mmwave_backdoor::AttackSpec { injection_rate: rate, ..*base };
            let m = ctx.run_attack_averaged(&spec, reps);
            series_row(label, &format!("{rate:.1}"), &m);
        }
        watch.note(&format!("rate {rate:.1} done"));
    }
}

/// Sweeps the number of poisoned frames for each labeled base spec.
pub fn sweep_frame_counts(
    ctx: &mut mmwave_backdoor::ExperimentContext,
    series: &[(String, mmwave_backdoor::AttackSpec)],
    reps: usize,
    watch: &Stopwatch,
) {
    series_header("frames");
    for &k in &frame_counts() {
        for (label, base) in series {
            let spec = mmwave_backdoor::AttackSpec { n_poisoned_frames: k, ..*base };
            let m = ctx.run_attack_averaged(&spec, reps);
            series_row(label, &k.to_string(), &m);
        }
        watch.note(&format!("{k} frames done"));
    }
}

/// A seconds-resolution stopwatch for progress lines.
pub struct Stopwatch(std::time::Instant);

impl Stopwatch {
    /// Starts timing.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Stopwatch {
        Stopwatch(std::time::Instant::now())
    }

    /// Elapsed seconds.
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Prints a `[t=..s] message` progress line.
    pub fn note(&self, msg: &str) {
        println!("[t={:>5.0}s] {msg}", self.secs());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_full_sweep_switch_takes_0_or_1_and_nothing_else() {
        assert_eq!(parse_switch("1"), Some(true));
        assert_eq!(parse_switch(" 0 "), Some(false));
        for junk in ["", "true", "yes", "2", "01", "on"] {
            assert_eq!(parse_switch(junk), None, "{junk:?}");
        }
    }
}
