//! Fig. 11 — ASR / UASR / CDR vs. number of poisoned frames for
//! dissimilar-trajectory attacks, injection rate fixed at 0.4.
//!
//! Paper shape: ASR ~60-70 % at 8 frames; UASR high; CDR > 90 %.

use mmwave_backdoor::{AttackScenario, AttackSpec, ExperimentContext, ExperimentScale};
use mmwave_bench::{banner, sweep_frame_counts, Stopwatch};
use mmwave_har::PrototypeConfig;

fn main() {
    banner(
        "Fig. 11",
        "dissimilar-trajectory attacks vs. poisoned frames",
        "ASR ~60-70% at 8 frames (rate 0.4); CDR > 90%",
    );
    let watch = Stopwatch::new();
    let mut ctx = ExperimentContext::new(ExperimentScale::fast(), 42);
    watch.note("experiment context ready");
    let series: Vec<(String, AttackSpec)> = AttackScenario::dissimilar_pairs()
        .into_iter()
        .map(|scenario| {
            (scenario.to_string(), AttackSpec { scenario, injection_rate: 0.4, ..AttackSpec::default() })
        })
        .collect();
    sweep_frame_counts(&mut ctx, &series, PrototypeConfig::bench_repetitions(), &watch);
    watch.note("Fig. 11 complete");
}
