//! Fig. 7 — confusion matrix of the clean mmWave HAR prototype.
//!
//! Paper: 99.42 % overall accuracy over 6 classes x 288 test samples,
//! trained on 8 640 samples from 3 participants at 12 positions. Our
//! simulator-scale prototype trains on ~650 samples and reaches the same
//! near-diagonal structure in the low-to-mid 90s.

use mmwave_bench::{banner, Stopwatch};
use mmwave_har::config::PrototypeConfig;
use mmwave_har::dataset::{DatasetGenerator, DatasetSpec};
use mmwave_har::model::CnnLstm;
use mmwave_har::trainer::{Trainer, TrainerConfig};

fn main() {
    banner(
        "Fig. 7",
        "clean-prototype confusion matrix",
        "99.42% accuracy, near-perfect diagonal (paper trains 30x more data on 2x RTX 4090)",
    );
    let watch = Stopwatch::new();
    let cfg = PrototypeConfig::fast();
    let gen = DatasetGenerator::new(cfg.clone());
    let scale = PrototypeConfig::bench_scale();
    let train = gen.generate(&DatasetSpec::training(3 * scale), 42);
    watch.note(&format!("generated {} training samples", train.len()));
    let test = gen.generate(&DatasetSpec::training(scale), 1042);
    watch.note(&format!("generated {} test samples", test.len()));

    let mut model = CnnLstm::new(&cfg, 3);
    let trainer = Trainer::new(TrainerConfig { epochs: 40, ..TrainerConfig::fast() });
    let stats = trainer.fit(&mut model, &train);
    let last = stats.last().expect("non-empty stats");
    watch.note(&format!(
        "trained 40 epochs (final train loss {:.3}, acc {:.3})",
        last.loss, last.accuracy
    ));

    let eval = mmwave_har::eval::evaluate(&model, &test);
    println!("\noverall accuracy: {:.2}% (paper: 99.42%)", 100.0 * eval.accuracy);
    println!("\n{}", eval.confusion);
    let recall = eval.confusion.per_class_recall();
    for (i, r) in recall.iter().enumerate() {
        println!(
            "recall {:<14} {:.1}%",
            mmwave_body::Activity::from_index(i).label(),
            100.0 * r
        );
    }
    watch.note("Fig. 7 complete");
}
