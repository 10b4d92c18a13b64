//! Fig. 8 — ASR / UASR / CDR vs. backdoor sample injection rate for
//! similar-trajectory attacks (Push -> Pull, Left Swipe -> Right Swipe),
//! 8 poisoned frames.
//!
//! Paper shape: ASR rises quickly with the rate, exceeding ~80 % at rate
//! 0.4; UASR reaches ~90 %; CDR stays high (~95 % for Push -> Pull, ~90 %
//! for the swipe pair).

use mmwave_backdoor::{AttackScenario, AttackSpec, ExperimentContext, ExperimentScale};
use mmwave_bench::{banner, sweep_injection_rates, Stopwatch};
use mmwave_har::PrototypeConfig;

fn main() {
    banner(
        "Fig. 8",
        "similar-trajectory attacks vs. injection rate",
        "ASR > 80% and UASR ~90% at rate 0.4 / 8 frames; CDR ~90-95%",
    );
    let watch = Stopwatch::new();
    let mut ctx = ExperimentContext::new(ExperimentScale::fast(), 42);
    watch.note("experiment context ready");
    let series: Vec<(String, AttackSpec)> = AttackScenario::similar_pairs()
        .into_iter()
        .map(|scenario| {
            (scenario.to_string(), AttackSpec { scenario, n_poisoned_frames: 8, ..AttackSpec::default() })
        })
        .collect();
    sweep_injection_rates(&mut ctx, &series, PrototypeConfig::bench_repetitions(), &watch);
    watch.note("Fig. 8 complete");
}
