//! Fig. 14 — impact of the attacker's angle on ASR.
//!
//! Paper: the best backdoored model is probed at angles -30..30 degrees
//! (distance fixed at 1.6 m). Angles -30, 0, 30 appear in training; the
//! rest are zero-shot. ASR reaches 100 % across both seen and unseen
//! angles.

use mmwave_backdoor::experiment::SiteChoice;
use mmwave_backdoor::{AttackSpec, ExperimentContext, ExperimentScale};
use mmwave_bench::{banner, Stopwatch};
use mmwave_har::PrototypeConfig;
use mmwave_radar::Placement;

fn main() {
    banner(
        "Fig. 14",
        "impact of the angle on ASR (distance 1.6 m)",
        "triggers fire at seen AND unseen angles (paper: ASR ~100% everywhere)",
    );
    let watch = Stopwatch::new();
    let mut ctx = ExperimentContext::new(ExperimentScale::fast(), 42);
    watch.note("experiment context ready");

    // "We select our best-trained model": train a few backdoored models at
    // the reference operating point and keep the one with the best ASR.
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

    let placements: Vec<Placement> = Placement::robustness_angles()
        .iter()
        .map(|&a| Placement::new(1.6, a))
        .collect();
    let spec = AttackSpec { site: SiteChoice::Fixed(site), ..base };
    let results = ctx.evaluate_robustness(&model, &spec, site, &placements, 6);
    println!("\n{:>8} {:>6} {:>8} {:>8}", "angle", "seen", "ASR%", "UASR%");
    for (p, asr, uasr) in results {
        println!(
            "{:>8} {:>6} {:>8.1} {:>8.1}",
            format!("{}deg", p.angle_deg),
            if p.is_seen() { "yes" } else { "no" },
            100.0 * asr,
            100.0 * uasr
        );
    }
    watch.note("Fig. 14 complete");
}
