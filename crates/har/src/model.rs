//! The hybrid CNN-LSTM activity classifier.

use crate::config::PrototypeConfig;
use mmwave_dsp::{Heatmap, HeatmapSeq};
use mmwave_nn::{
    relu, relu_backward, softmax, Conv2d, Dense, Lstm, LstmCache, LstmScratch, MaxPool2,
    ParamTensor,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// The prototype classifier (Section II-A): a per-frame CNN feature
/// extractor, an LSTM over the frame-feature series, and a fully-connected
/// head.
///
/// ```text
/// frame (1 x R x A) -> conv -> relu -> pool -> conv -> relu -> pool
///                   -> dense -> relu  = 32-d feature
/// 32 features ------> LSTM ----------> last hidden -> dense -> 6 logits
/// ```
///
/// The model intentionally exposes its internals to the attack crate: the
/// CNN feature path ([`CnnLstm::frame_features`]) and the LSTM-only path
/// ([`CnnLstm::logits_from_features`]) are exactly what SHAP frame scoring
/// and the Eq. (2) position optimizer probe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CnnLstm {
    rows: usize,
    cols: usize,
    conv1: Conv2d,
    conv2: Conv2d,
    pool: MaxPool2,
    feat: Dense,
    lstm: Lstm,
    head: Dense,
}

/// CNN cache for one frame.
#[derive(Debug, Clone)]
struct FrameCache {
    input: Vec<f32>,
    a1: Vec<f32>,
    i1: Vec<u32>,
    p1: Vec<f32>,
    a2: Vec<f32>,
    i2: Vec<u32>,
    p2: Vec<f32>,
    f_pre: Vec<f32>,
}

/// Working memory of the inference forward: one buffer per CNN stage, the
/// frame features and the LSTM state. One per thread; every call resizes
/// it to the model it runs, so no clip or model keeps scratch of its own.
#[derive(Default)]
struct Scratch {
    cnn: CnnScratch,
    features: Vec<f32>,
    lstm: LstmScratch,
}

#[derive(Default)]
struct CnnScratch {
    conv: Vec<f32>,
    a1: Vec<f32>,
    p1: Vec<f32>,
    a2: Vec<f32>,
    p2: Vec<f32>,
    idx: Vec<u32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

fn relu_in_place(x: &mut [f32]) {
    for v in x {
        *v = v.max(0.0);
    }
}

/// Full forward cache for one sample.
#[derive(Debug, Clone)]
pub struct ForwardCache {
    frames: Vec<FrameCache>,
    lstm: LstmCache,
    /// Per-frame CNN features (LSTM inputs).
    pub features: Vec<Vec<f32>>,
    /// Class logits.
    pub logits: Vec<f32>,
}

impl CnnLstm {
    /// Creates a model with seeded initialization.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation.
    pub fn new(cfg: &PrototypeConfig, seed: u64) -> CnnLstm {
        cfg.validate().unwrap_or_else(|e| panic!("invalid prototype config: {e}"));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        CnnLstm {
            rows: cfg.heatmap_rows,
            cols: cfg.heatmap_cols,
            conv1: Conv2d::new(1, cfg.conv1_channels, 3, 1, &mut rng),
            conv2: Conv2d::new(cfg.conv1_channels, cfg.conv2_channels, 3, 1, &mut rng),
            pool: MaxPool2,
            feat: Dense::new(cfg.cnn_flat_dim(), cfg.feature_dim, &mut rng),
            lstm: Lstm::new(cfg.feature_dim, cfg.lstm_hidden, &mut rng),
            head: Dense::new(cfg.lstm_hidden, cfg.n_classes, &mut rng),
        }
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.head.n_out()
    }

    /// Heatmap geometry `(rows, cols)` every input frame must have.
    pub fn input_shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// CNN feature dimension.
    pub fn feature_dim(&self) -> usize {
        self.feat.n_out()
    }

    /// Total number of learnable parameters.
    pub fn n_parameters(&self) -> usize {
        let mut model = self.clone();
        model.param_tensors().iter().map(|t| t.len()).sum()
    }

    fn frame_forward(&self, hm: &Heatmap) -> (Vec<f32>, FrameCache) {
        assert_eq!(
            (hm.rows(), hm.cols()),
            (self.rows, self.cols),
            "heatmap shape mismatch"
        );
        let input = hm.as_slice().to_vec();
        let a1 = self.conv1.forward(&input, self.rows, self.cols);
        let r1 = relu(&a1);
        let (p1, i1) = self
            .pool
            .forward(&r1, self.conv1.out_channels(), self.rows, self.cols);
        let (h2, w2) = (self.rows / 2, self.cols / 2);
        let a2 = self.conv2.forward(&p1, h2, w2);
        let r2 = relu(&a2);
        let (p2, i2) = self.pool.forward(&r2, self.conv2.out_channels(), h2, w2);
        let f_pre = self.feat.forward(&p2);
        let f = relu(&f_pre);
        (f, FrameCache { input, a1, i1, p1, a2, i2, p2, f_pre })
    }

    /// The CNN chain of [`frame_forward`](Self::frame_forward) into `f`,
    /// keeping no cache: each stage overwrites its buffer in `s`.
    fn frame_features_into(&self, hm: &Heatmap, s: &mut CnnScratch, f: &mut [f32]) {
        assert_eq!(
            (hm.rows(), hm.cols()),
            (self.rows, self.cols),
            "heatmap shape mismatch"
        );
        let (h, w) = (self.rows, self.cols);
        let (c1, c2) = (self.conv1.out_channels(), self.conv2.out_channels());
        s.a1.resize(c1 * h * w, 0.0);
        self.conv1.forward_into(hm.as_slice(), h, w, &mut s.conv, &mut s.a1);
        relu_in_place(&mut s.a1);
        s.p1.resize(s.a1.len() / 4, 0.0);
        s.idx.resize(s.p1.len(), 0);
        self.pool.forward_into(&s.a1, c1, h, w, &mut s.p1, &mut s.idx);
        let (h2, w2) = (h / 2, w / 2);
        s.a2.resize(c2 * h2 * w2, 0.0);
        self.conv2.forward_into(&s.p1, h2, w2, &mut s.conv, &mut s.a2);
        relu_in_place(&mut s.a2);
        s.p2.resize(s.a2.len() / 4, 0.0);
        s.idx.resize(s.p2.len(), 0);
        self.pool.forward_into(&s.a2, c2, h2, w2, &mut s.p2, &mut s.idx);
        self.feat.forward_into(&s.p2, f);
        relu_in_place(f);
    }

    /// CNN features of a single frame (the `l_theta(h(...))` of Eq. (2)).
    pub fn frame_features(&self, hm: &Heatmap) -> Vec<f32> {
        let mut f = vec![0.0; self.feature_dim()];
        SCRATCH.with(|s| self.frame_features_into(hm, &mut s.borrow_mut().cnn, &mut f));
        f
    }

    /// Full forward pass with caches for backpropagation.
    ///
    /// # Panics
    ///
    /// Panics if frame shapes mismatch the model.
    pub fn forward(&self, seq: &HeatmapSeq) -> ForwardCache {
        let mut frames = Vec::with_capacity(seq.len());
        let mut features = Vec::with_capacity(seq.len());
        for hm in seq.frames() {
            let (f, cache) = self.frame_forward(hm);
            features.push(f);
            frames.push(cache);
        }
        let lstm = self.lstm.forward(&features);
        let logits = self.head.forward(lstm.last_hidden());
        ForwardCache { frames, lstm, features, logits }
    }

    /// Class logits for a sample: the inference forward. It keeps no
    /// cache and runs in the calling thread's scratch, so the returned
    /// vector is its only allocation once the thread has run a model of
    /// this shape. Bit-identical to `forward(seq).logits`.
    ///
    /// # Panics
    ///
    /// Panics if frame shapes mismatch the model.
    pub fn logits(&self, seq: &HeatmapSeq) -> Vec<f32> {
        SCRATCH.with(|s| {
            let Scratch { cnn, features, lstm } = &mut *s.borrow_mut();
            let d = self.feature_dim();
            features.resize(seq.len() * d, 0.0);
            for (hm, f) in seq.frames().iter().zip(features.chunks_exact_mut(d)) {
                self.frame_features_into(hm, cnn, f);
            }
            self.head.forward(self.lstm.last_hidden(features.chunks_exact(d), lstm))
        })
    }

    /// Class probabilities for a sample.
    pub fn probabilities(&self, seq: &HeatmapSeq) -> Vec<f32> {
        softmax(&self.logits(seq))
    }

    /// Predicted class index.
    pub fn predict(&self, seq: &HeatmapSeq) -> usize {
        let logits = self.logits(seq);
        logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("nonempty logits")
    }

    /// Logits computed from precomputed per-frame features — the
    /// "LSTM model `f`" of the paper's Eq. (1), which SHAP probes with
    /// frame features included or masked out. Runs the inference LSTM.
    ///
    /// # Panics
    ///
    /// Panics if `features` is empty or has wrong dimensions.
    pub fn logits_from_features(&self, features: &[Vec<f32>]) -> Vec<f32> {
        SCRATCH.with(|s| {
            let lstm = &mut s.borrow_mut().lstm;
            self.head.forward(self.lstm.last_hidden(features.iter().map(Vec::as_slice), lstm))
        })
    }

    /// Backpropagates `dlogits` through the whole model, accumulating
    /// parameter gradients.
    ///
    /// # Panics
    ///
    /// Panics if shapes mismatch the cache.
    pub fn backward(&mut self, cache: &ForwardCache, dlogits: &[f32]) {
        // Head.
        let dh_last = self.head.backward(cache.lstm.last_hidden(), dlogits);
        // LSTM: loss touches only the last hidden state.
        let n = cache.features.len();
        let mut dh = vec![vec![0.0; self.lstm.n_hidden()]; n];
        dh[n - 1] = dh_last;
        let dfeatures = self.lstm.backward(&cache.lstm, &dh);
        // CNN per frame.
        let (h2, w2) = (self.rows / 2, self.cols / 2);
        for (fc, df) in cache.frames.iter().zip(&dfeatures) {
            let df_pre = relu_backward(&fc.f_pre, df);
            let dp2 = self.feat.backward(&fc.p2, &df_pre);
            let dr2 = self.pool.backward(&dp2, &fc.i2, fc.a2.len());
            let da2 = relu_backward(&fc.a2, &dr2);
            let dp1 = self.conv2.backward(&fc.p1, h2, w2, &da2);
            let dr1 = self.pool.backward(&dp1, &fc.i1, fc.a1.len());
            let da1 = relu_backward(&fc.a1, &dr1);
            let _dx = self.conv1.backward(&fc.input, self.rows, self.cols, &da1);
        }
    }

    /// All parameter tensors in a stable order (for the optimizer).
    pub fn param_tensors(&mut self) -> Vec<&mut ParamTensor> {
        let mut out = Vec::with_capacity(10);
        out.extend(self.conv1.param_tensors());
        out.extend(self.conv2.param_tensors());
        out.extend(self.feat.param_tensors());
        out.extend(self.lstm.param_tensors());
        out.extend(self.head.param_tensors());
        out
    }

    /// Zeroes all gradient accumulators.
    pub fn zero_grads(&mut self) {
        self.conv1.zero_grads();
        self.conv2.zero_grads();
        self.feat.zero_grads();
        self.lstm.zero_grads();
        self.head.zero_grads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_dsp::heatmap::HeatmapKind;
    use mmwave_nn::softmax_cross_entropy;
    use rand::Rng;

    fn cfg() -> PrototypeConfig {
        PrototypeConfig::smoke_test()
    }

    fn random_seq(cfg: &PrototypeConfig, seed: u64) -> HeatmapSeq {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let frames = (0..cfg.n_frames)
            .map(|_| {
                let data: Vec<f32> = (0..cfg.heatmap_rows * cfg.heatmap_cols)
                    .map(|_| rng.gen_range(0.0..1.0))
                    .collect();
                Heatmap::from_data(cfg.heatmap_rows, cfg.heatmap_cols, HeatmapKind::RangeAngle, data)
            })
            .collect();
        HeatmapSeq::new(frames)
    }

    #[test]
    fn forward_shapes_are_consistent() {
        let c = cfg();
        let m = CnnLstm::new(&c, 1);
        let seq = random_seq(&c, 2);
        let cache = m.forward(&seq);
        assert_eq!(cache.logits.len(), 6);
        assert_eq!(cache.features.len(), c.n_frames);
        assert_eq!(cache.features[0].len(), c.feature_dim);
        let probs = m.probabilities(&seq);
        assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn logits_from_features_match_full_forward() {
        let c = cfg();
        let m = CnnLstm::new(&c, 1);
        let seq = random_seq(&c, 3);
        let cache = m.forward(&seq);
        let via_features = m.logits_from_features(&cache.features);
        for (a, b) in cache.logits.iter().zip(&via_features) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn inference_forward_matches_the_training_forward_bit_for_bit() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (c, seed) in [(cfg(), 1), (PrototypeConfig::fast(), 2)] {
            let m = CnnLstm::new(&c, seed);
            // A model of another shape in between must not disturb the
            // thread's scratch.
            let small = PrototypeConfig { lstm_hidden: 5, feature_dim: 7, ..cfg() };
            let other = CnnLstm::new(&small, 3);
            for s in 0..3 {
                let seq = random_seq(&c, 40 + s);
                let cache = m.forward(&seq);
                other.logits(&random_seq(&cfg(), s));
                assert_eq!(bits(&m.logits(&seq)), bits(&cache.logits));
                assert_eq!(bits(&m.logits_from_features(&cache.features)), bits(&cache.logits));
                assert_eq!(bits(&m.frame_features(seq.frame(0))), bits(&cache.features[0]));
                assert_eq!(bits(&m.probabilities(&seq)), bits(&softmax(&cache.logits)));
            }
        }
    }

    #[test]
    fn one_training_step_reduces_loss() {
        let c = cfg();
        let mut m = CnnLstm::new(&c, 5);
        let seq = random_seq(&c, 7);
        let target = 2;
        let mut adam = mmwave_nn::Adam::new(5e-3);
        let cache = m.forward(&seq);
        let (loss0, dlogits) = softmax_cross_entropy(&cache.logits, target);
        m.zero_grads();
        m.backward(&cache, &dlogits);
        adam.step(&mut m.param_tensors());
        let (loss1, _) = softmax_cross_entropy(&m.logits(&seq), target);
        assert!(loss1 < loss0, "loss {loss0} -> {loss1}");
    }

    #[test]
    fn can_overfit_two_samples() {
        let c = cfg();
        let mut m = CnnLstm::new(&c, 11);
        let a = random_seq(&c, 100);
        let b = random_seq(&c, 200);
        let mut adam = mmwave_nn::Adam::new(1e-2);
        for _ in 0..60 {
            for (seq, target) in [(&a, 0usize), (&b, 4usize)] {
                let cache = m.forward(seq);
                let (_, dlogits) = softmax_cross_entropy(&cache.logits, target);
                m.zero_grads();
                m.backward(&cache, &dlogits);
                adam.step(&mut m.param_tensors());
            }
        }
        assert_eq!(m.predict(&a), 0);
        assert_eq!(m.predict(&b), 4);
    }

    #[test]
    fn gradient_check_end_to_end_spot() {
        // Finite-difference a couple of parameters through the whole model.
        let c = cfg();
        let mut m = CnnLstm::new(&c, 13);
        let seq = random_seq(&c, 17);
        let target = 1;
        let cache = m.forward(&seq);
        let (_, dlogits) = softmax_cross_entropy(&cache.logits, target);
        m.zero_grads();
        m.backward(&cache, &dlogits);
        let analytic_conv1 = m.conv1.weights().grad[3];
        let analytic_head = m.head.weights().grad[5];
        let eps = 1e-2;
        let loss_with = |m: &CnnLstm| softmax_cross_entropy(&m.logits(&seq), target).0;
        for (name, analytic, setter) in [
            (
                "conv1",
                analytic_conv1,
                Box::new(|m: &mut CnnLstm, d: f32| m.conv1.weights_mut().data[3] += d)
                    as Box<dyn Fn(&mut CnnLstm, f32)>,
            ),
            (
                "head",
                analytic_head,
                Box::new(|m: &mut CnnLstm, d: f32| m.head.weights_mut().data[5] += d),
            ),
        ] {
            let mut mp = m.clone();
            setter(&mut mp, eps);
            let mut mm = m.clone();
            setter(&mut mm, -eps);
            let fd = (loss_with(&mp) - loss_with(&mm)) / (2.0 * eps);
            assert!(
                (fd - analytic).abs() < 3e-2 * analytic.abs().max(0.1),
                "{name}: fd {fd} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn deterministic_construction() {
        let c = cfg();
        let a = CnnLstm::new(&c, 9);
        let b = CnnLstm::new(&c, 9);
        assert_eq!(a, b);
        let c2 = CnnLstm::new(&c, 10);
        assert_ne!(a, c2);
    }

    #[test]
    fn parameter_count_is_plausible() {
        let c = PrototypeConfig::fast();
        let m = CnnLstm::new(&c, 0);
        let n = m.n_parameters();
        // conv1 (1*4*9 + 4) + conv2 (4*8*9 + 8) + dense (128*32 + 32)
        // + lstm (128*64 + 128) + head (32*6 + 6)
        assert!(n > 10_000 && n < 30_000, "unexpected parameter count {n}");
    }

    #[test]
    #[should_panic(expected = "heatmap shape mismatch")]
    fn wrong_heatmap_shape_panics() {
        let c = cfg();
        let m = CnnLstm::new(&c, 0);
        let bad = Heatmap::zeros(4, 4, HeatmapKind::RangeAngle);
        m.frame_features(&bad);
    }
}
