//! Fig. 9 — ASR / UASR / CDR vs. number of poisoned frames for
//! similar-trajectory attacks, injection rate fixed at 0.4.
//!
//! Paper shape: ASR grows with the number of poisoned frames, exceeding
//! ~80 % at 8 frames; CDR does not drop significantly.

use mmwave_backdoor::{AttackScenario, AttackSpec, ExperimentContext, ExperimentScale};
use mmwave_bench::{banner, sweep_frame_counts, Stopwatch};
use mmwave_har::PrototypeConfig;

fn main() {
    banner(
        "Fig. 9",
        "similar-trajectory attacks vs. poisoned frames",
        "ASR > 80% at 8 frames (rate 0.4); CDR stays ~90-95%",
    );
    let watch = Stopwatch::new();
    let mut ctx = ExperimentContext::new(ExperimentScale::fast(), 42);
    watch.note("experiment context ready");
    let series: Vec<(String, AttackSpec)> = AttackScenario::similar_pairs()
        .into_iter()
        .map(|scenario| {
            (scenario.to_string(), AttackSpec { scenario, injection_rate: 0.4, ..AttackSpec::default() })
        })
        .collect();
    sweep_frame_counts(&mut ctx, &series, PrototypeConfig::bench_repetitions(), &watch);
    watch.note("Fig. 9 complete");
}
