//! Fig. 12 — trigger-size comparison (2x2 vs. 4x4 inch aluminum) vs.
//! injection rate, Push -> Pull.
//!
//! Paper shape: the two trigger sizes perform near-identically across all
//! three metrics; differences fall within training fluctuation.

use mmwave_backdoor::{AttackSpec, ExperimentContext, ExperimentScale};
use mmwave_bench::{banner, Stopwatch};
use mmwave_har::PrototypeConfig;
use mmwave_radar::trigger::Trigger;

fn main() {
    banner(
        "Fig. 12",
        "trigger size comparison vs. injection rate (Push -> Pull)",
        "2x2 and 4x4 inch triggers perform near-identically",
    );
    let watch = Stopwatch::new();
    let mut ctx = ExperimentContext::new(ExperimentScale::fast(), 42);
    watch.note("experiment context ready");
    let series = vec![
        ("2x2 inch".to_string(), AttackSpec { trigger: Trigger::aluminum_2x2(), ..AttackSpec::default() }),
        ("4x4 inch".to_string(), AttackSpec { trigger: Trigger::aluminum_4x4(), ..AttackSpec::default() }),
    ];
    // Size equivalence needs only a low and a reference rate; set
    // MMWAVE_BENCH_FULL=1 to sweep all five rates.
    let rates: Vec<f64> = if mmwave_bench::full_sweep() {
        mmwave_bench::injection_rates().to_vec()
    } else {
        vec![0.2, 0.4]
    };
    mmwave_bench::series_header("rate");
    for &rate in &rates {
        for (label, base) in &series {
            let spec = AttackSpec { injection_rate: rate, ..*base };
            let m = ctx.run_attack_averaged(&spec, PrototypeConfig::bench_repetitions());
            mmwave_bench::series_row(label, &format!("{rate:.1}"), &m);
        }
        watch.note(&format!("rate {rate:.1} done"));
    }
    watch.note("Fig. 12 complete");
}
