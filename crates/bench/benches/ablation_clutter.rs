//! Design ablation (not a paper figure): DRAI clutter removal — calibrated
//! background subtraction vs. per-burst MTI.
//!
//! DESIGN.md documents that this reproduction defaults to background
//! subtraction because per-burst MTI silences a body-mounted reflector
//! (it survives only through ~-20 dB micro-motion residue at our heatmap
//! scale). This bench quantifies that claim end to end: the identical
//! attack, under the two clutter-removal pipelines.

use mmwave_backdoor::{AttackSpec, ExperimentContext, ExperimentScale};
use mmwave_bench::{banner, series_header, series_row, Stopwatch};
use mmwave_dsp::processing::ClutterRemoval;
use mmwave_har::PrototypeConfig;

fn main() {
    banner(
        "Ablation",
        "clutter removal: calibrated background subtraction vs. per-burst MTI",
        "MTI hides the trigger from the model (ASR collapses); background subtraction preserves it",
    );
    let watch = Stopwatch::new();
    series_header("mode");
    for (label, mode) in [
        ("background subtraction", ClutterRemoval::Background),
        ("per-burst MTI", ClutterRemoval::Mti),
    ] {
        let mut cfg = PrototypeConfig::fast();
        cfg.capture.0.processing.clutter_removal = mode;
        let mut ctx = ExperimentContext::new_with_config(cfg, ExperimentScale::fast(), 42);
        watch.note(&format!("{label}: context ready"));
        let m = ctx.run_attack(&AttackSpec::default());
        series_row(label, "0.4", &m);
        watch.note(&format!("{label} done"));
    }
    watch.note("clutter ablation complete");
}
