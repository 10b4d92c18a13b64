//! Fig. 5 — DRAI heatmaps with and without a trigger.
//!
//! Paper: a clean "Clockwise Turning" DRAI frame next to the same frame
//! with a 2x2-inch aluminum reflector at the optimal position; the change
//! is "nearly imperceptible to the human eye". We render both as ASCII
//! heatmaps and quantify the perturbation.

use mmwave_backdoor::{AttackSpec, ExperimentContext, ExperimentScale};
use mmwave_bench::{banner, Stopwatch};
use mmwave_body::{Activity, ActivitySampler, Participant, SampleVariation};
use mmwave_radar::capture::{TriggerPlan};
use mmwave_radar::trigger::TriggerAttachment;
use mmwave_radar::{Environment, Placement};

fn main() {
    banner(
        "Fig. 5",
        "DRAI heatmaps with and without a trigger (stealthiness)",
        "the triggered heatmap is nearly indistinguishable from the clean one",
    );
    let watch = Stopwatch::new();
    let mut ctx = ExperimentContext::new(ExperimentScale::fast(), 42);
    watch.note("context + surrogate ready");
    let spec = AttackSpec::default();
    let site = ctx.optimal_site(Activity::Clockwise, spec.trigger);
    watch.note(&format!("optimal site for Clockwise: {site}"));

    let sampler = ActivitySampler::new(
        Participant::average(),
        ctx.config().n_frames,
        ctx.generator().capturer().config().frame_rate,
    );
    let seq = sampler.sample(Activity::Clockwise, &SampleVariation::nominal());
    let plan = TriggerPlan { attachment: TriggerAttachment::new(spec.trigger), site };
    let out = ctx.generator().capturer().capture(
        &seq,
        Placement::new(1.2, 0.0),
        &Environment::classroom(),
        Some(&plan),
        7,
    );
    let triggered = out.triggered.expect("trigger requested");

    // Show the frame where the trigger footprint is largest.
    let (worst, dist) = (0..out.clean.len())
        .map(|i| (i, out.clean.frame(i).l2_distance(triggered.frame(i))))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty sequence");
    println!("\n(a) clean DRAI, frame {worst} (range rows x angle cols):");
    println!("{}", out.clean.frame(worst).to_ascii());
    println!("(b) same frame with a 2x2-inch trigger at {site}:");
    println!("{}", triggered.frame(worst).to_ascii());

    let mean = out.clean.mean_l2_distance(&triggered);
    let frame_energy = out.clean.frame(worst).as_slice().iter().map(|v| v * v).sum::<f32>().sqrt();
    println!("worst-frame L2 change: {dist:.4} ({:.1}% of the frame's own norm)", 100.0 * dist / frame_energy);
    println!("mean per-frame L2 change: {mean:.4}");
    println!("(heatmaps are log-compressed and normalized to [0, 1])");
    watch.note("Fig. 5 complete");
}
