//! The trigger-detection model.

use mmwave_dsp::HeatmapSeq;
use mmwave_har::{CnnLstm, PrototypeConfig};
use mmwave_nn::{softmax, softmax_cross_entropy, Adam};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A labeled sample for detector training/evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorSample {
    /// The DRAI sequence.
    pub heatmaps: HeatmapSeq,
    /// True when a trigger was worn during the capture.
    pub triggered: bool,
}

/// Detection quality metrics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectionReport {
    /// Overall accuracy.
    pub accuracy: f64,
    /// True-positive rate (triggered samples flagged).
    pub tpr: f64,
    /// False-positive rate (clean samples flagged).
    pub fpr: f64,
    /// Area under the ROC curve (threshold-free quality).
    pub auc: f64,
}

/// A binary CNN-LSTM that decides whether a capture contains a reflector
/// trigger. Reuses the prototype architecture with a 2-class head —
/// the defender has the same modeling budget as the HAR system itself.
#[derive(Debug, Clone, PartialEq)]
pub struct TriggerDetector {
    model: CnnLstm,
}

impl TriggerDetector {
    /// Creates an untrained detector for the prototype's heatmap geometry.
    pub fn new(config: &PrototypeConfig, seed: u64) -> TriggerDetector {
        let det_cfg = PrototypeConfig { n_classes: 2, ..config.clone() };
        TriggerDetector { model: CnnLstm::new(&det_cfg, seed) }
    }

    /// Heatmap geometry `(rows, cols)` every scored frame must have.
    pub fn input_shape(&self) -> (usize, usize) {
        self.model.input_shape()
    }

    /// Probability that `sample` contains a trigger.
    pub fn score(&self, sample: &HeatmapSeq) -> f64 {
        softmax(&self.model.logits(sample))[1] as f64
    }

    /// Hard decision at the 0.5 threshold.
    pub fn detect(&self, sample: &HeatmapSeq) -> bool {
        self.score(sample) > 0.5
    }

    /// Trains the detector.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty or `epochs == 0`.
    pub fn fit(&mut self, train: &[DetectorSample], epochs: usize, lr: f32, seed: u64) {
        assert!(!train.is_empty(), "cannot train on an empty set");
        assert!(epochs > 0, "need at least one epoch");
        let mut adam = Adam::new(lr);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..train.len()).collect();
        for _ in 0..epochs {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            for batch in order.chunks(8) {
                self.model.zero_grads();
                for &si in batch {
                    let s = &train[si];
                    let cache = self.model.forward(&s.heatmaps);
                    let (_, dlogits) =
                        softmax_cross_entropy(&cache.logits, s.triggered as usize);
                    let scale = 1.0 / batch.len() as f32;
                    let dlogits: Vec<f32> = dlogits.iter().map(|g| g * scale).collect();
                    self.model.backward(&cache, &dlogits);
                }
                mmwave_nn::param::clip_global_norm(&mut self.model.param_tensors(), 5.0);
                adam.step(&mut self.model.param_tensors());
            }
        }
    }

    /// Evaluates on labeled samples.
    ///
    /// # Panics
    ///
    /// Panics if `test` is empty.
    pub fn evaluate(&self, test: &[DetectorSample]) -> DetectionReport {
        assert!(!test.is_empty(), "cannot evaluate on an empty set");
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut pos = 0usize;
        let mut neg = 0usize;
        let mut scored: Vec<(f64, bool)> = Vec::with_capacity(test.len());
        for s in test {
            let score = self.score(&s.heatmaps);
            scored.push((score, s.triggered));
            let flag = score > 0.5;
            if s.triggered {
                pos += 1;
                if flag {
                    tp += 1;
                }
            } else {
                neg += 1;
                if flag {
                    fp += 1;
                }
            }
        }
        let correct = tp + (neg - fp);
        DetectionReport {
            accuracy: correct as f64 / test.len() as f64,
            tpr: if pos > 0 { tp as f64 / pos as f64 } else { 0.0 },
            fpr: if neg > 0 { fp as f64 / neg as f64 } else { 0.0 },
            auc: auc(&scored),
        }
    }
}

/// Mann-Whitney AUC: probability a random positive scores above a random
/// negative (ties count half). Returns 0.5 when either class is absent.
fn auc(scored: &[(f64, bool)]) -> f64 {
    let pos: Vec<f64> = scored.iter().filter(|(_, t)| *t).map(|(s, _)| *s).collect();
    let neg: Vec<f64> = scored.iter().filter(|(_, t)| !*t).map(|(s, _)| *s).collect();
    if pos.is_empty() || neg.is_empty() {
        return 0.5;
    }
    let mut wins = 0.0f64;
    for &p in &pos {
        for &n in &neg {
            if p > n {
                wins += 1.0;
            } else if p == n {
                wins += 0.5;
            }
        }
    }
    wins / (pos.len() * neg.len()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_dsp::heatmap::{Heatmap, HeatmapKind};
    use rand::Rng;

    fn cfg() -> PrototypeConfig {
        PrototypeConfig::smoke_test()
    }

    fn sample(cfg: &PrototypeConfig, triggered: bool, rng: &mut ChaCha8Rng) -> DetectorSample {
        // Synthetic: triggers add a faint, consistent blob at (3, 12).
        let frames = (0..cfg.n_frames)
            .map(|_| {
                let mut hm =
                    Heatmap::zeros(cfg.heatmap_rows, cfg.heatmap_cols, HeatmapKind::RangeAngle);
                for _ in 0..8 {
                    let r = rng.gen_range(0..cfg.heatmap_rows);
                    let c = rng.gen_range(0..cfg.heatmap_cols);
                    *hm.get_mut(r, c) += rng.gen_range(0.1..0.6);
                }
                if triggered {
                    *hm.get_mut(3, 12) += 0.7;
                }
                hm
            })
            .collect();
        DetectorSample { heatmaps: HeatmapSeq::new(frames), triggered }
    }

    #[test]
    fn detector_learns_a_synthetic_trigger() {
        let cfg = cfg();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let train: Vec<DetectorSample> =
            (0..40).map(|i| sample(&cfg, i % 2 == 0, &mut rng)).collect();
        let test: Vec<DetectorSample> =
            (0..20).map(|i| sample(&cfg, i % 2 == 0, &mut rng)).collect();
        let mut det = TriggerDetector::new(&cfg, 3);
        det.fit(&train, 12, 3e-3, 1);
        let report = det.evaluate(&test);
        assert!(report.accuracy > 0.8, "detector accuracy {:.2}", report.accuracy);
        assert!(report.auc > 0.9, "detector AUC {:.2}", report.auc);
        assert!(report.tpr > report.fpr);
    }

    #[test]
    fn score_runs_the_inference_forward_bit_identically() {
        let cfg = cfg();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let train: Vec<DetectorSample> =
            (0..6).map(|i| sample(&cfg, i % 2 == 0, &mut rng)).collect();
        let mut det = TriggerDetector::new(&cfg, 4);
        det.fit(&train, 1, 3e-3, 1);
        for s in &train {
            let cache = det.model.forward(&s.heatmaps);
            assert_eq!(det.model.logits(&s.heatmaps), cache.logits);
            let want = softmax(&cache.logits)[1] as f64;
            assert_eq!(det.score(&s.heatmaps).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn untrained_detector_is_near_chance() {
        let cfg = cfg();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let test: Vec<DetectorSample> =
            (0..30).map(|i| sample(&cfg, i % 2 == 0, &mut rng)).collect();
        let det = TriggerDetector::new(&cfg, 5);
        let report = det.evaluate(&test);
        assert!(report.auc > 0.2 && report.auc < 0.8, "AUC {:.2}", report.auc);
    }

    #[test]
    fn auc_of_perfect_separation_is_one() {
        let scored = vec![(0.9, true), (0.8, true), (0.2, false), (0.1, false)];
        assert_eq!(auc(&scored), 1.0);
        let reversed = vec![(0.1, true), (0.9, false)];
        assert_eq!(auc(&reversed), 0.0);
        let degenerate = vec![(0.5, true)];
        assert_eq!(auc(&degenerate), 0.5);
    }

    #[test]
    #[should_panic(expected = "empty set")]
    fn empty_training_panics() {
        let cfg = cfg();
        TriggerDetector::new(&cfg, 0).fit(&[], 1, 1e-3, 0);
    }
}
