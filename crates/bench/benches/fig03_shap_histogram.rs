//! Fig. 3 — distribution of the most-important frame index.
//!
//! Paper: SHAP is applied to 6 912 activity samples on the surrogate; a
//! histogram over the 32 frames shows which frame indices are consistently
//! most influential on the LSTM's decision. Gestures here start after a
//! short delay and peak mid-sample, so the mass should concentrate in the
//! early-to-middle frame range rather than being uniform.

use mmwave_backdoor::frames::frame_importance;
use mmwave_bench::{banner, print_histogram, Stopwatch};
use mmwave_backdoor::{ExperimentContext, ExperimentScale};
use mmwave_har::PrototypeConfig;
use mmwave_shap::argmax;

fn main() {
    banner(
        "Fig. 3",
        "index distribution of the most important frames (SHAP)",
        "a concentrated, non-uniform histogram over the 32 frame indices (paper: 6,912 samples)",
    );
    let watch = Stopwatch::new();
    let ctx = ExperimentContext::new(ExperimentScale::fast(), 42);
    watch.note("context + surrogate ready");

    // SHAP over the clean test samples (all six activities), each scored
    // with respect to its own class.
    let samples = &ctx.clean_test().samples;
    let n = samples.len().min(96 * PrototypeConfig::bench_scale());
    let mut hist = vec![0usize; ctx.config().n_frames];
    for (i, s) in samples.iter().take(n).enumerate() {
        let phi = frame_importance(
            ctx.surrogate(),
            &s.heatmaps,
            s.label.index(),
            ctx.scale().shap_permutations,
            0xF163 ^ i as u64,
        );
        hist[argmax(&phi)] += 1;
        if (i + 1) % 32 == 0 {
            watch.note(&format!("{}/{n} samples explained", i + 1));
        }
    }
    println!();
    print_histogram(&hist, "frame");

    // Summary statistics of the distribution.
    let total: usize = hist.iter().sum();
    let mean: f64 =
        hist.iter().enumerate().map(|(i, &c)| i as f64 * c as f64).sum::<f64>() / total as f64;
    let peak = hist.iter().enumerate().max_by_key(|(_, &c)| c).map(|(i, _)| i).unwrap_or(0);
    let top8: usize = {
        let mut sorted: Vec<usize> = hist.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        sorted.iter().take(8).sum()
    };
    println!("\nsamples: {total}   peak frame: {peak}   mean frame: {mean:.1}");
    println!(
        "mass in top-8 bins: {:.0}% (uniform would be 25%)",
        100.0 * top8 as f64 / total as f64
    );
    watch.note("Fig. 3 complete");
}
