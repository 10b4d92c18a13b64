//! Fig. 10 — ASR / UASR / CDR vs. injection rate for dissimilar-trajectory
//! attacks (Push -> Right Swipe, Push -> Anticlockwise), 8 poisoned frames.
//!
//! Paper shape: harder than similar-trajectory attacks — ASR ~60-70 % at
//! rate 0.4, UASR still 85-90 %, CDR > 90 %.

use mmwave_backdoor::{AttackScenario, AttackSpec, ExperimentContext, ExperimentScale};
use mmwave_bench::{banner, sweep_injection_rates, Stopwatch};
use mmwave_har::PrototypeConfig;

fn main() {
    banner(
        "Fig. 10",
        "dissimilar-trajectory attacks vs. injection rate",
        "ASR ~60-70% at rate 0.4; UASR 85-90%; CDR > 90%",
    );
    let watch = Stopwatch::new();
    let mut ctx = ExperimentContext::new(ExperimentScale::fast(), 42);
    watch.note("experiment context ready");
    let series: Vec<(String, AttackSpec)> = AttackScenario::dissimilar_pairs()
        .into_iter()
        .map(|scenario| {
            (scenario.to_string(), AttackSpec { scenario, n_poisoned_frames: 8, ..AttackSpec::default() })
        })
        .collect();
    sweep_injection_rates(&mut ctx, &series, PrototypeConfig::bench_repetitions(), &watch);
    watch.note("Fig. 10 complete");
}
