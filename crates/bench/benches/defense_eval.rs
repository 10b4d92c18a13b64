//! Section VII — defense evaluation (extension beyond the paper's
//! qualitative discussion).
//!
//! Two countermeasures are measured against the reference attack
//! (Push -> Pull, rate 0.4, 8 frames, optimal site):
//!
//! 1. a trigger-detection CNN-LSTM (accuracy / TPR / FPR / AUC);
//! 2. the data-augmentation defense — triggered captures with correct
//!    labels added to training — reported as the ASR before vs. after.

use mmwave_backdoor::poison::{build_poisoned_dataset, PoisonConfig};
use mmwave_backdoor::{AttackSpec, ExperimentContext, ExperimentScale};
use mmwave_bench::{banner, Stopwatch};
use mmwave_body::{Activity, Participant, SiteId};
use mmwave_defense::detector::{DetectorSample, TriggerDetector};
use mmwave_defense::augment_with_correct_labels;
use mmwave_har::{Trainer, TrainerConfig};
use mmwave_radar::capture::TriggerPlan;
use mmwave_radar::trigger::TriggerAttachment;
use mmwave_radar::{Environment, Placement};

fn main() {
    banner(
        "Defense",
        "trigger detection and augmentation defense (Section VII)",
        "a detector separates triggered captures; augmentation suppresses the backdoor",
    );
    let watch = Stopwatch::new();
    let mut ctx = ExperimentContext::new(ExperimentScale::fast(), 42);
    watch.note("experiment context ready");

    let spec = AttackSpec::default();
    // Undefended baseline.
    let undefended = ctx.run_attack(&spec);
    println!("undefended attack:  {undefended}");
    watch.note("undefended baseline done");

    // --- Defense 1: trigger detection. -----------------------------------
    // The defender records their own calibration pairs with reflectors at
    // several body sites and across the position grid.
    let site = ctx.optimal_site(spec.scenario.victim, spec.trigger);
    let grid = Placement::training_grid();
    let mut train_set: Vec<DetectorSample> = Vec::new();
    let mut test_set: Vec<DetectorSample> = Vec::new();
    for (si, def_site) in [site, SiteId::Chest, SiteId::RightForearm].iter().enumerate() {
        let plan = TriggerPlan {
            attachment: TriggerAttachment::new(spec.trigger),
            site: *def_site,
        };
        for (ai, act) in [Activity::Push, Activity::LeftSwipe, Activity::Clockwise]
            .iter()
            .enumerate()
        {
            let pairs = ctx.generator().generate_paired(
                *act,
                &grid,
                Participant::average(),
                &plan,
                &Environment::classroom(),
                1,
                0xDEF ^ (si * 31 + ai) as u64,
            );
            for (i, p) in pairs.into_iter().enumerate() {
                let dst = if i % 4 == 3 { &mut test_set } else { &mut train_set };
                dst.push(DetectorSample { heatmaps: p.clean, triggered: false });
                dst.push(DetectorSample { heatmaps: p.triggered, triggered: true });
            }
        }
    }
    watch.note(&format!(
        "defender calibration captured ({} train / {} test)",
        train_set.len(),
        test_set.len()
    ));
    let mut detector = TriggerDetector::new(ctx.config(), 11);
    detector.fit(&train_set, 20, 2e-3, 5);
    let report = detector.evaluate(&test_set);
    println!(
        "trigger detector:   accuracy {:.1}%  TPR {:.1}%  FPR {:.1}%  AUC {:.3}",
        100.0 * report.accuracy,
        100.0 * report.tpr,
        100.0 * report.fpr,
        report.auc
    );
    watch.note("detector evaluated");

    // --- Defense 2: data augmentation. ------------------------------------
    // The defender adds correctly-labeled triggered captures (their own
    // pairs from above would do; generate fresh ones for the victim
    // activity) to the training set the victim uses; the poisoned samples
    // are still present.
    let plan = TriggerPlan { attachment: TriggerAttachment::new(spec.trigger), site };
    let defender_pairs = ctx.generator().generate_paired(
        spec.scenario.victim,
        &grid,
        Participant::average(),
        &plan,
        &Environment::classroom(),
        2,
        0xA06,
    );
    // Rebuild the same poisoned dataset the attack would produce, then
    // augment it.
    let attack_pairs = ctx.generator().generate_paired(
        spec.scenario.victim,
        &grid,
        Participant::average(),
        &plan,
        &Environment::classroom(),
        3,
        0xA77AC4,
    );
    let poison_pool: Vec<_> = attack_pairs
        .iter()
        .step_by(3)
        .cloned()
        .collect();
    let rankings: Vec<Vec<usize>> = poison_pool
        .iter()
        .enumerate()
        .map(|(i, p)| {
            mmwave_backdoor::frames::frame_ranking(
                mmwave_backdoor::FrameStrategy::ShapTopK,
                ctx.surrogate(),
                &p.clean,
                spec.scenario.victim.index(),
                ctx.scale().shap_permutations,
                31 ^ i as u64,
            )
        })
        .collect();
    let poisoned = build_poisoned_dataset(
        ctx.clean_train(),
        &poison_pool,
        &rankings,
        &spec.scenario,
        &PoisonConfig::reference(),
    );
    let augmented = augment_with_correct_labels(&poisoned, &defender_pairs);
    let mut model = mmwave_har::CnnLstm::new(ctx.config(), 77);
    Trainer::new(TrainerConfig { epochs: ctx.scale().epochs, ..TrainerConfig::fast() })
        .fit(&mut model, &augmented);
    let attack_samples: Vec<(mmwave_dsp::HeatmapSeq, Activity)> = attack_pairs
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 3 != 0)
        .map(|(_, p)| (p.triggered.clone(), p.label))
        .collect();
    let defended = mmwave_backdoor::metrics::evaluate_attack(
        &model,
        &attack_samples,
        &spec.scenario,
        ctx.clean_test(),
    );
    println!("augmentation defense: {defended}");
    println!(
        "\nASR {:.1}% -> {:.1}% with augmentation (CDR {:.1}% -> {:.1}%)",
        100.0 * undefended.asr,
        100.0 * defended.asr,
        100.0 * undefended.cdr,
        100.0 * defended.cdr
    );
    watch.note("augmentation evaluated");

    // --- Defense 3 (extension): activation clustering on the poisoned
    // training set, using a model trained on it.
    let mut victim = mmwave_har::CnnLstm::new(ctx.config(), 123);
    Trainer::new(TrainerConfig { epochs: ctx.scale().epochs, ..TrainerConfig::fast() })
        .fit(&mut victim, &poisoned);
    let analyses = mmwave_defense::analyze_classes(&victim, &poisoned);
    println!("\nactivation clustering (minority fraction / separation):");
    for a in &analyses {
        let marker = if a.class == spec.scenario.target { " <- target class" } else { "" };
        println!(
            "  {:<14} {:>5.1}% / {:>6.2}{}",
            a.class.label(),
            100.0 * a.minority_fraction,
            a.separation,
            marker
        );
    }
    watch.note("defense evaluation complete");
}
