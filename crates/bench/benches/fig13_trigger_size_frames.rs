//! Fig. 13 — trigger-size comparison (2x2 vs. 4x4 inch aluminum) vs.
//! number of poisoned frames, Push -> Pull, rate 0.4.
//!
//! Paper shape: the two trigger sizes perform near-identically.

use mmwave_backdoor::{AttackSpec, ExperimentContext, ExperimentScale};
use mmwave_bench::{banner, sweep_frame_counts, Stopwatch};
use mmwave_har::PrototypeConfig;
use mmwave_radar::trigger::Trigger;

fn main() {
    banner(
        "Fig. 13",
        "trigger size comparison vs. poisoned frames (Push -> Pull)",
        "2x2 and 4x4 inch triggers perform near-identically",
    );
    let watch = Stopwatch::new();
    let mut ctx = ExperimentContext::new(ExperimentScale::fast(), 42);
    watch.note("experiment context ready");
    let series = vec![
        ("2x2 inch".to_string(), AttackSpec { trigger: Trigger::aluminum_2x2(), injection_rate: 0.4, ..AttackSpec::default() }),
        ("4x4 inch".to_string(), AttackSpec { trigger: Trigger::aluminum_4x4(), injection_rate: 0.4, ..AttackSpec::default() }),
    ];
    sweep_frame_counts(&mut ctx, &series, PrototypeConfig::bench_repetitions(), &watch);
    watch.note("Fig. 13 complete");
}
