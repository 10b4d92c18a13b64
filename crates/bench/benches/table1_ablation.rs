//! Table I — impact of each attack module, and under-clothing triggers.
//!
//! Paper (Push -> Pull, rate 0.4, 8 poisoned frames):
//!
//! | experiment                            | ASR |
//! |---------------------------------------|-----|
//! | with optimal frames and positions     | 84% |
//! | without optimal trigger position      | 66% |
//! | without optimal frames                | 57% |
//! | without optimal frames and positions  | 48% |
//! | with under-clothing stealthy trigger  | 82% |

use mmwave_backdoor::experiment::SiteChoice;
use mmwave_backdoor::frames::FrameStrategy;
use mmwave_backdoor::{AttackSpec, ExperimentContext, ExperimentScale};
use mmwave_bench::{banner, Stopwatch};
use mmwave_body::SiteId;
use mmwave_har::PrototypeConfig;

fn main() {
    banner(
        "Table I",
        "impact of each module and under-clothing triggers (Push -> Pull, rate 0.4, 8 frames)",
        "optimal 84% > no-position 66% > no-frames 57% > neither 48%; under clothing ~82%",
    );
    let watch = Stopwatch::new();
    let mut ctx = ExperimentContext::new(ExperimentScale::fast(), 42);
    watch.note("experiment context ready");
    let reps = PrototypeConfig::bench_repetitions();
    let base = AttackSpec::default();
    // The paper's suboptimal-location baseline: "e.g., on the leg".
    let leg = SiteChoice::Fixed(SiteId::RightThigh);
    let rows: Vec<(&str, u32, AttackSpec)> = vec![
        ("With Optimal Frames and Positions", 84, base),
        (
            "Without Optimal Trigger Position",
            66,
            AttackSpec { site: leg, ..base },
        ),
        (
            "Without Optimal Frames",
            57,
            AttackSpec { frame_strategy: FrameStrategy::FirstK, ..base },
        ),
        (
            "Without Optimal Frames and Positions",
            48,
            AttackSpec { site: leg, frame_strategy: FrameStrategy::FirstK, ..base },
        ),
        (
            "With Under Clothing Stealthy Trigger",
            82,
            AttackSpec { trigger: base.trigger.under_clothing(), ..base },
        ),
    ];
    println!(
        "{:<40}{:>10}{:>10}{:>8}{:>8}",
        "experiment", "paper ASR", "ASR%", "UASR%", "CDR%"
    );
    for (label, paper, spec) in rows {
        let m = ctx.run_attack_averaged(&spec, reps);
        println!(
            "{:<40}{:>9}%{:>10.1}{:>8.1}{:>8.1}",
            label,
            paper,
            100.0 * m.asr,
            100.0 * m.uasr,
            100.0 * m.cdr
        );
        watch.note(&format!("{label} done"));
    }
    watch.note("Table I complete");
}
