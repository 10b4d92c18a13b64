//! Fig. 15 — impact of the attacker's distance on ASR.
//!
//! Paper: the best backdoored model is probed at distances 0.8..2.0 m
//! (angle fixed at 0 degrees). Distances 0.8, 1.2, 1.6, 2.0 m appear in
//! training; the rest are zero-shot. Most triggers fire, but a few fail —
//! signal strength varies with distance, unlike the angle sweep.

use mmwave_backdoor::experiment::SiteChoice;
use mmwave_backdoor::{AttackSpec, ExperimentContext, ExperimentScale};
use mmwave_bench::{banner, Stopwatch};
use mmwave_har::PrototypeConfig;
use mmwave_radar::Placement;

fn main() {
    banner(
        "Fig. 15",
        "impact of the distance on ASR (angle 0 deg)",
        "high ASR at most distances with occasional failures (paper: a few triggers fail)",
    );
    let watch = Stopwatch::new();
    let mut ctx = ExperimentContext::new(ExperimentScale::fast(), 42);
    watch.note("experiment context ready");

    let reps = PrototypeConfig::bench_repetitions().max(2);
    let base = AttackSpec::default();
    let mut best: Option<(f64, mmwave_har::CnnLstm, mmwave_body::SiteId)> = None;
    for r in 0..reps {
        let spec = AttackSpec { seed: 1000 * r as u64, ..base };
        let m = ctx.run_attack(&spec);
        watch.note(&format!("candidate model {r}: {m}"));
        let (model, site) = ctx.train_backdoored(&spec);
        if best.as_ref().map(|(a, _, _)| m.asr > *a).unwrap_or(true) {
            best = Some((m.asr, model, site));
        }
    }
    let (asr, model, site) = best.expect("at least one model");
    watch.note(&format!("best model selected (ASR {:.0}%)", 100.0 * asr));

    let placements: Vec<Placement> = Placement::robustness_distances()
        .iter()
        .map(|&d| Placement::new(d, 0.0))
        .collect();
    let spec = AttackSpec { site: SiteChoice::Fixed(site), ..base };
    let results = ctx.evaluate_robustness(&model, &spec, site, &placements, 6);
    println!("\n{:>9} {:>6} {:>8} {:>8}", "distance", "seen", "ASR%", "UASR%");
    for (p, asr, uasr) in results {
        println!(
            "{:>9} {:>6} {:>8.1} {:>8.1}",
            format!("{:.1}m", p.distance),
            if p.is_seen() { "yes" } else { "no" },
            100.0 * asr,
            100.0 * uasr
        );
    }
    watch.note("Fig. 15 complete");
}
