//! Robustness — attack metrics under injected sensor faults (beyond the
//! paper).
//!
//! The paper evaluates its backdoor under ideal captures; real deployments
//! drop frames, saturate, and suffer interference. This bench trains one
//! backdoored model under clean conditions, then re-captures the attack
//! and clean test sets through a `FaultInjector` severity sweep (frame
//! dropout + LO phase noise + RF interference bursts + ADC saturation; see
//! `mmwave_radar::faults`) and reports ASR/UASR/CDR per severity.
//! Severity 0.00 is the faultless baseline.
//!
//! Runs at smoke scale by default so it doubles as a fast acceptance
//! check; set `MMWAVE_BENCH_FULL=1` for the full-scale sweep.

use mmwave_backdoor::experiment::SiteChoice;
use mmwave_backdoor::metrics::evaluate_attack;
use mmwave_backdoor::{AttackSpec, ExperimentContext, ExperimentScale};
use mmwave_bench::{banner, series_header, series_row, Stopwatch};
use mmwave_body::{Activity, Participant, SiteId};
use mmwave_dsp::HeatmapSeq;
use mmwave_har::dataset::{DatasetGenerator, DatasetSpec};
use mmwave_har::PrototypeConfig;
use mmwave_radar::capture::TriggerPlan;
use mmwave_radar::faults::FaultInjector;
use mmwave_radar::trigger::TriggerAttachment;
use mmwave_radar::Environment;

fn main() {
    banner(
        "Robustness",
        "attack metrics vs injected sensor-fault severity",
        "beyond the paper: the backdoor should degrade gracefully, not cliff, as capture faults grow",
    );
    let watch = Stopwatch::new();
    let full = mmwave_bench::full_sweep();
    let scale = if full { ExperimentScale::fast() } else { ExperimentScale::smoke_test() };
    let placements = scale.placements.clone();
    let mut ctx = ExperimentContext::new(scale, 42);
    watch.note("experiment context ready");

    // Fixed site keeps this sweep about sensor faults, not placement.
    let spec = AttackSpec { site: SiteChoice::Fixed(SiteId::RightForearm), ..AttackSpec::default() };
    let (model, site) = ctx.train_backdoored(&spec);
    watch.note("backdoored model trained under clean captures");

    let plan = TriggerPlan { attachment: TriggerAttachment::new(spec.trigger), site };
    let reps_per_placement = if full { 4 } else { 3 };
    let severities = [0.0, 0.25, 0.5, 0.75, 1.0];

    series_header("severity");
    for &severity in &severities {
        // A capture pipeline with the faults dialed in; the model and the
        // trigger stay fixed — only the deployed sensor degrades.
        let mut cfg = PrototypeConfig::fast();
        cfg.capture.0.faults = Some(FaultInjector::severity_profile(severity, 0xFA017));
        let generator = DatasetGenerator::new(cfg);

        let pairs = generator.generate_paired(
            spec.scenario.victim,
            &placements,
            Participant::average(),
            &plan,
            &Environment::classroom(),
            reps_per_placement,
            0xBEEF ^ spec.seed,
        );
        let attack_samples: Vec<(HeatmapSeq, Activity)> =
            pairs.into_iter().map(|p| (p.triggered, p.label)).collect();

        // The victim's clean test captures degrade through the same faults.
        let mut test_spec = DatasetSpec::training(1);
        test_spec.placements = placements.clone();
        test_spec.participants.truncate(1);
        let clean_test = generator.generate(&test_spec, 1234);

        let m = evaluate_attack(&model, &attack_samples, &spec.scenario, &clean_test);
        series_row("faulted-capture", &format!("{severity:.2}"), &m);
        watch.note(&format!("severity {severity:.2} done"));
    }
    watch.note("robustness_faults complete");
}
