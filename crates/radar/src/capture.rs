//! End-to-end capture: activity performance -> DRAI heatmap sequence.
//!
//! A "capture" is what the real testbed does when a participant performs a
//! gesture in front of the radar: synthesize the IF cube for every frame,
//! then run the processing chain to DRAI heatmaps. Because Eq. (3) is
//! linear, a capture can emit the *clean* and *triggered* version of the
//! same performance in one pass: the trigger's IF contribution is computed
//! separately and superposed.

use crate::config::RadarConfig;
use crate::faults::FaultInjector;
use crate::material::Material;
use crate::placement::Placement;
use crate::scene::Environment;
use crate::simulator::IfSynthesizer;
use crate::trigger::TriggerAttachment;
use mmwave_body::{MeshSequence, SiteId, SitePose};
use mmwave_dsp::heatmap::HeatmapKind;
use mmwave_dsp::processing::{ProcessingConfig, Processor};
use mmwave_dsp::{repair_dropped_frames, Complex32, Heatmap, HeatmapSeq};
use mmwave_geom::visibility::{self, OcclusionConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Cached per-environment state: the static-clutter IF chirp (replayed
/// onto every frame) and the calibrated background range profile the DRAI
/// stage subtracts. Resolve it once per clip with
/// [`Capturer::environment_cache`] and hand it to
/// [`Capturer::drai_in`] for each frame.
#[derive(Debug)]
pub struct EnvCache {
    chirp: Vec<Vec<Complex32>>,
    background: Vec<Vec<Complex32>>,
}

/// Where and how a trigger is worn during a capture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriggerPlan {
    /// The trigger and its standoff.
    pub attachment: TriggerAttachment,
    /// The body site it is taped to.
    pub site: SiteId,
}

/// Configuration for the capture pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct CaptureConfig {
    /// Radar waveform and array.
    pub radar: RadarConfig,
    /// FFT pipeline settings.
    pub processing: ProcessingConfig,
    /// Per-component standard deviation of thermal noise.
    pub noise_sigma: f64,
    /// Body surface material.
    pub body_material: Material,
    /// Occlusion filter settings.
    pub occlusion: OcclusionConfig,
    /// Apply `log(1+x)` compression to heatmaps.
    pub log_compress: bool,
    /// How heatmap sequences are normalized.
    pub normalize: Normalization,
    /// Optional sensor fault injection applied to every captured IF frame
    /// (clean and triggered twins see the same realization). Dropped
    /// frames are repaired by neighbor interpolation before finalization,
    /// so the output is always a valid [`HeatmapSeq`].
    pub faults: Option<FaultInjector>,
}

/// Heatmap normalization policy applied after log compression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Normalization {
    /// Leave raw (log-compressed) values.
    None,
    /// Divide the whole sequence by its global maximum (AGC-style).
    GlobalMax,
    /// Divide by a fixed reference scale — a fixed receiver gain. With a
    /// fixed scale a reflector's contribution stays purely additive and
    /// does not rescale the rest of the image, unlike `GlobalMax`.
    Fixed(f32),
}

impl CaptureConfig {
    /// The laptop-scale profile used throughout the reproduction.
    pub fn fast() -> CaptureConfig {
        CaptureConfig {
            radar: RadarConfig::default(),
            processing: ProcessingConfig::default(),
            noise_sigma: 0.02,
            body_material: Material::skin(),
            occlusion: OcclusionConfig::default(),
            log_compress: true,
            // Fixed receiver gain calibrated to the typical log-domain
            // sequence maximum of this profile (median ~20 across
            // participants and placements). Keeps reflector returns purely
            // additive; see DESIGN.md.
            normalize: Normalization::Fixed(20.0),
            faults: None,
        }
    }
}

impl Default for CaptureConfig {
    fn default() -> Self {
        CaptureConfig::fast()
    }
}

/// Output of one capture.
#[derive(Debug, Clone, PartialEq)]
pub struct CaptureOutput {
    /// DRAI sequence without the trigger.
    pub clean: HeatmapSeq,
    /// DRAI sequence with the trigger worn, if a [`TriggerPlan`] was given.
    /// Shares the body pose and the noise realization with `clean`, so any
    /// difference between the two is attributable to the trigger alone.
    pub triggered: Option<HeatmapSeq>,
}

/// The capture pipeline. Reusable across samples; caches per-environment
/// static clutter (static reflectors produce identical IF on every chirp of
/// every frame, so their contribution is synthesized once per environment).
///
/// # Examples
///
/// See the crate-level example.
#[derive(Debug)]
pub struct Capturer {
    config: CaptureConfig,
    synth: IfSynthesizer,
    processor: Processor,
    env_cache: Mutex<HashMap<String, Arc<EnvCache>>>,
}

/// Locks `mutex` whether or not an earlier holder panicked: a cache entry
/// is inserted whole, so a poisoned cache is still consistent.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Capturer {
    /// Creates a capturer.
    ///
    /// # Panics
    ///
    /// Panics if the radar or processing configuration is invalid.
    pub fn new(config: CaptureConfig) -> Capturer {
        let synth = IfSynthesizer::new(config.radar.clone());
        let processor = Processor::new(
            config.radar.n_virtual(),
            config.radar.n_chirps,
            config.radar.n_adc,
            config.processing.clone(),
        );
        Capturer { config, synth, processor, env_cache: Mutex::new(HashMap::new()) }
    }

    /// The radar configuration.
    pub fn config(&self) -> &RadarConfig {
        &self.config.radar
    }

    /// The full capture configuration.
    pub fn capture_config(&self) -> &CaptureConfig {
        &self.config
    }

    /// The processing pipeline (exposed for defenses that need raw access).
    pub fn processor(&self) -> &Processor {
        &self.processor
    }

    /// Captures a performance at `placement` in `environment`.
    ///
    /// `seed` fixes the noise realization; the same `(sequence, placement,
    /// environment, seed)` always produces the same output.
    pub fn capture(
        &self,
        sequence: &MeshSequence,
        placement: Placement,
        environment: &Environment,
        trigger: Option<&TriggerPlan>,
        seed: u64,
    ) -> CaptureOutput {
        self.capture_with_scale(sequence, placement, environment, trigger, seed, 1.0)
    }

    /// Like [`capture`](Self::capture) with a body-reflectivity multiplier
    /// (per-participant skin/clothing variation).
    pub fn capture_with_scale(
        &self,
        sequence: &MeshSequence,
        placement: Placement,
        environment: &Environment,
        trigger: Option<&TriggerPlan>,
        seed: u64,
        body_scale: f64,
    ) -> CaptureOutput {
        let _capture_span = mmwave_telemetry::span_at("capture", mmwave_telemetry::Level::Debug);
        let xf = placement.body_to_world();
        let radar_pos = self.config.radar.position();
        let env = self.environment_cache(environment);

        // Frames are mutually independent by construction: every per-frame
        // random stream (noise, faults) is derived from `(seed,
        // frame_index)`, never drawn sequentially, so fanning the loop out
        // over workers is byte-identical to the serial loop for any
        // `MMWAVE_WORKERS` (results are collected in frame order below).
        let body_frames: Vec<_> = sequence.iter().collect();
        struct FrameOut {
            clean: Heatmap,
            triggered: Option<Heatmap>,
            dropped: bool,
        }
        let outputs = mmwave_exec::par_map(&body_frames, |fi, body_frame| {
            let synth_span = mmwave_telemetry::span("synthesis");
            // Body in world coordinates, culled to radar-visible surfaces.
            let world_mesh = body_frame.mesh.transformed(&xf);
            let tris = visibility::radar_visible(&world_mesh, radar_pos, &self.config.occlusion);

            let mut base = self.synth.empty_frame();
            self.synth
                .add_triangles(&mut base, &tris, &self.config.body_material, body_scale);
            self.synth.add_static(&mut base, &env.chirp);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (fi as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            self.synth.add_noise(&mut base, self.config.noise_sigma, &mut rng);

            // Superpose the trigger before fault injection so both twins
            // pass through the same (deterministic) fault realization.
            let mut combined = trigger.map(|plan| {
                let site_world = transform_site(body_frame.site(plan.site), &xf);
                base.superposed(&self.trigger_if(plan, &site_world))
            });
            drop(synth_span);

            let mut frame_dropped = false;
            if let Some(injector) = &self.config.faults {
                frame_dropped = injector.apply(&mut base, fi);
                if let Some(c) = combined.as_mut() {
                    injector.apply(c, fi);
                }
            }
            if frame_dropped {
                // Placeholder; repaired below by neighbor interpolation.
                FrameOut {
                    clean: self.empty_drai(),
                    triggered: trigger.map(|_| self.empty_drai()),
                    dropped: true,
                }
            } else {
                FrameOut {
                    clean: self.processor.drai_with_background(&base, &env.background),
                    triggered: combined
                        .as_ref()
                        .map(|c| self.processor.drai_with_background(c, &env.background)),
                    dropped: false,
                }
            }
        });

        let mut clean_frames = Vec::with_capacity(outputs.len());
        let mut trig_frames = trigger.map(|_| Vec::with_capacity(outputs.len()));
        let mut dropped_flags = Vec::with_capacity(outputs.len());
        for (fi, out) in outputs.into_iter().enumerate() {
            if out.dropped {
                mmwave_telemetry::counter("radar.frames_dropped", 1);
                if mmwave_telemetry::enabled(mmwave_telemetry::Level::Debug) {
                    let mut fields = serde_json::Map::new();
                    fields.insert("frame".to_string(), serde_json::Value::from(fi as u64));
                    mmwave_telemetry::event(
                        mmwave_telemetry::Level::Debug,
                        mmwave_telemetry::EventKind::Fault,
                        "radar.frame_dropout",
                        fields,
                    );
                }
            }
            dropped_flags.push(out.dropped);
            clean_frames.push(out.clean);
            if let Some(frames) = trig_frames.as_mut() {
                frames.push(out.triggered.expect("triggered twin exists when a plan is given"));
            }
        }

        // Graceful degradation: dropped frames are interpolated from their
        // valid neighbors (and stay zero when every frame dropped) so the
        // pipeline always yields a valid sequence.
        let n_dropped = dropped_flags.iter().filter(|&&d| d).count();
        if n_dropped > 0 {
            repair_dropped_frames(&mut clean_frames, &dropped_flags);
            if let Some(frames) = trig_frames.as_mut() {
                repair_dropped_frames(frames, &dropped_flags);
            }
        }

        mmwave_telemetry::counter("radar.frames", sequence.len() as u64);
        if mmwave_telemetry::enabled(mmwave_telemetry::Level::Trace) {
            let mut fields = serde_json::Map::new();
            fields.insert("frames".to_string(), serde_json::Value::from(sequence.len() as u64));
            fields.insert("dropped".to_string(), serde_json::Value::from(n_dropped as u64));
            fields.insert(
                "triggered".to_string(),
                serde_json::Value::from(trigger.is_some()),
            );
            mmwave_telemetry::event(
                mmwave_telemetry::Level::Trace,
                mmwave_telemetry::EventKind::Metric,
                "radar.capture",
                fields,
            );
        }

        CaptureOutput {
            clean: self.finalize(clean_frames),
            triggered: trig_frames.map(|f| self.finalize(f)),
        }
    }

    /// An all-zero DRAI of this pipeline's output shape, standing in for a
    /// dropped frame until repair.
    fn empty_drai(&self) -> Heatmap {
        Heatmap::zeros(
            self.config.processing.n_range_bins,
            self.config.processing.n_angle_bins,
            HeatmapKind::RangeAngle,
        )
    }

    /// Synthesizes the *base* IF frames of a performance (body + static
    /// environment + noise, no trigger), one per body frame. This is the
    /// expensive part of a capture; the Eq. (2) position optimizer calls it
    /// once and then probes many candidate trigger placements by cheap
    /// superposition. Fault injection is deliberately *not* applied here:
    /// the optimizer models the attacker's ideal-conditions planning pass,
    /// while [`capture`](Self::capture) models the deployed sensor.
    pub fn base_if_frames(
        &self,
        sequence: &MeshSequence,
        placement: Placement,
        environment: &Environment,
        seed: u64,
        body_scale: f64,
    ) -> Vec<mmwave_dsp::IfFrame> {
        let xf = placement.body_to_world();
        let radar_pos = self.config.radar.position();
        let env = self.environment_cache(environment);
        let body_frames: Vec<_> = sequence.iter().collect();
        mmwave_exec::par_map(&body_frames, |fi, body_frame| {
            let world_mesh = body_frame.mesh.transformed(&xf);
            let tris = visibility::radar_visible(&world_mesh, radar_pos, &self.config.occlusion);
            let mut base = self.synth.empty_frame();
            self.synth
                .add_triangles(&mut base, &tris, &self.config.body_material, body_scale);
            self.synth.add_static(&mut base, &env.chirp);
            let mut rng = ChaCha8Rng::seed_from_u64(
                seed ^ (fi as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            self.synth.add_noise(&mut base, self.config.noise_sigma, &mut rng);
            base
        })
    }

    /// Applies this capturer's heatmap post-processing (log compression +
    /// global normalization) to raw DRAI frames, matching what
    /// [`capture`](Self::capture) feeds the classifier.
    pub fn finalize_heatmaps(&self, frames: Vec<Heatmap>) -> HeatmapSeq {
        self.finalize(frames)
    }

    /// The trigger's own IF contribution at a world-space site pose.
    /// Exposed for the attack optimizer, which probes many candidate sites
    /// without re-simulating the body.
    pub fn trigger_if(
        &self,
        plan: &TriggerPlan,
        site_world: &SitePose,
    ) -> mmwave_dsp::IfFrame {
        let mesh = plan.attachment.mesh_at(site_world);
        let tris =
            visibility::visible_triangles(&mesh, self.config.radar.position());
        let mut frame = self.synth.empty_frame();
        self.synth.add_triangles(
            &mut frame,
            &tris,
            &plan.attachment.trigger.material,
            plan.attachment.trigger.amplitude_scale(),
        );
        frame
    }

    /// DRAI of a raw IF frame captured in `environment` (post-processing
    /// shared with full captures). Each call resolves the environment
    /// under the cache lock; loops over the frames of a clip resolve it
    /// once and call [`drai_in`](Self::drai_in).
    pub fn drai_of(&self, frame: &mmwave_dsp::IfFrame, environment: &Environment) -> Heatmap {
        self.drai_in(frame, &self.environment_cache(environment))
    }

    /// DRAI of a raw IF frame in an environment already resolved by
    /// [`environment_cache`](Self::environment_cache).
    pub fn drai_in(&self, frame: &mmwave_dsp::IfFrame, env: &EnvCache) -> Heatmap {
        self.processor.drai_with_background(frame, &env.background)
    }

    fn finalize(&self, mut frames: Vec<Heatmap>) -> HeatmapSeq {
        if self.config.log_compress {
            for f in &mut frames {
                f.log_compress();
            }
        }
        let mut seq = HeatmapSeq::new(frames);
        match self.config.normalize {
            Normalization::None => {}
            Normalization::GlobalMax => seq.normalize_global(),
            Normalization::Fixed(scale) => {
                for i in 0..seq.len() {
                    seq.frame_mut(i).normalize_by(scale);
                }
            }
        }
        seq
    }

    /// The static clutter and background profile of `env`, synthesized on
    /// first use and shared afterwards (keyed by environment name).
    pub fn environment_cache(&self, env: &Environment) -> Arc<EnvCache> {
        let mut cache = lock(&self.env_cache);
        if let Some(cached) = cache.get(env.name()) {
            return Arc::clone(cached);
        }
        let radar_pos = self.config.radar.position();
        let n_vrx = self.config.radar.n_virtual();
        let n_adc = self.config.radar.n_adc;
        let mut acc = vec![vec![Complex32::ZERO; n_adc]; n_vrx];
        for obj in env.objects() {
            let tris = visibility::visible_triangles(&obj.mesh, radar_pos);
            let chirp = self.synth.static_chirp(&tris, &obj.material);
            for (a, c) in acc.iter_mut().zip(&chirp) {
                for (x, y) in a.iter_mut().zip(c) {
                    *x += *y;
                }
            }
        }
        // Calibration: the DRAI background is the empty room's range
        // profile, exactly as an operator would record it once per site.
        let background = self.processor.background_profile(&acc);
        let arc = Arc::new(EnvCache { chirp: acc, background });
        cache.insert(env.name().to_string(), Arc::clone(&arc));
        arc
    }
}

/// Transforms a body-local site pose into world coordinates.
pub fn transform_site(site: &SitePose, xf: &mmwave_geom::RigidTransform) -> SitePose {
    SitePose {
        site: site.site,
        position: xf.apply(site.position),
        normal: xf.apply_vector(site.normal),
        velocity: xf.apply_vector(site.velocity),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trigger::Trigger;
    use mmwave_body::{Activity, ActivitySampler, Participant, SampleVariation};

    fn short_capture_setup() -> (Capturer, MeshSequence) {
        let capturer = Capturer::new(CaptureConfig::fast());
        // 12 frames at 10 fps covers the core of the gesture (start delay
        // 0.3 s, duration 2.2 s).
        let sampler = ActivitySampler::new(
            Participant::average(),
            12,
            capturer.config().frame_rate,
        );
        let seq = sampler.sample(Activity::Push, &SampleVariation::nominal());
        (capturer, seq)
    }

    #[test]
    fn capture_produces_normalized_nonzero_heatmaps() {
        let (capturer, seq) = short_capture_setup();
        let out = capturer.capture(&seq, Placement::new(1.2, 0.0), &Environment::hallway(), None, 3);
        assert_eq!(out.clean.len(), 12);
        assert!(out.triggered.is_none());
        let max: f32 = out
            .clean
            .frames()
            .iter()
            .filter_map(|f| f.peak().map(|p| p.2))
            .fold(0.0, f32::max);
        assert!(
            max > 0.3 && max < 1.5,
            "fixed-gain normalization should land near [0, 1]: max {max}"
        );
    }

    #[test]
    fn capture_is_deterministic_for_fixed_seed() {
        let (capturer, seq) = short_capture_setup();
        let p = Placement::new(1.6, 30.0);
        let a = capturer.capture(&seq, p, &Environment::hallway(), None, 11);
        let b = capturer.capture(&seq, p, &Environment::hallway(), None, 11);
        assert_eq!(a.clean, b.clean);
        let c = capturer.capture(&seq, p, &Environment::hallway(), None, 12);
        assert_ne!(a.clean, c.clean, "different seeds must differ");
    }

    #[test]
    fn user_appears_at_expected_range() {
        let (capturer, seq) = short_capture_setup();
        let d = 1.6;
        let out = capturer.capture(&seq, Placement::new(d, 0.0), &Environment::empty(), None, 5);
        // Mid-gesture frame: the dominant DRAI return is the moving hand,
        // which sits between the torso range and ~0.55 m in front of it.
        let hm = out.clean.frame(8);
        let (row, _, _) = hm.peak().unwrap();
        let torso_bin = capturer.config().range_bin_of_distance(d);
        let hand_bin = capturer.config().range_bin_of_distance(d - 0.55);
        assert!(
            (row as f64) >= hand_bin - 1.5 && (row as f64) <= torso_bin + 1.5,
            "user at {d} m: peak bin {row} outside [{hand_bin:.1}, {torso_bin:.1}]"
        );
    }

    #[test]
    fn triggered_output_differs_from_clean_but_subtly() {
        let (capturer, seq) = short_capture_setup();
        let plan = TriggerPlan {
            attachment: TriggerAttachment::new(Trigger::aluminum_2x2()),
            site: SiteId::RightForearm,
        };
        let out = capturer.capture(
            &seq,
            Placement::new(1.2, 0.0),
            &Environment::classroom(),
            Some(&plan),
            7,
        );
        let trig = out.triggered.expect("requested trigger");
        let dist = out.clean.mean_l2_distance(&trig);
        assert!(dist > 1e-4, "trigger must leave a footprint, got {dist}");
        // Stealthiness (Fig. 5): the per-frame change is small relative to
        // the heatmap's own scale.
        let scale: f32 = out.clean.frames().iter().map(Heatmap::total).sum::<f32>()
            / out.clean.len() as f32;
        assert!(
            dist < 0.5 * scale.sqrt(),
            "trigger footprint implausibly large: {dist} vs scale {scale}"
        );
    }

    #[test]
    fn arm_site_trigger_is_stronger_than_leg_site_under_mti() {
        // Under per-burst MTI (not the default Background mode), a trigger
        // survives only through the motion of the body part it rides, so a
        // wrist mount must out-signal a shin mount mid-gesture.
        let mut cfg = CaptureConfig::fast();
        cfg.processing.clutter_removal =
            mmwave_dsp::processing::ClutterRemoval::Mti;
        let capturer = Capturer::new(cfg);
        let sampler = ActivitySampler::new(
            Participant::average(),
            12,
            capturer.config().frame_rate,
        );
        let seq = sampler.sample(Activity::Push, &SampleVariation::nominal());
        let footprint = |site: SiteId| {
            let plan = TriggerPlan {
                attachment: TriggerAttachment::new(Trigger::aluminum_2x2()),
                site,
            };
            let out = capturer.capture(
                &seq,
                Placement::new(1.2, 0.0),
                &Environment::empty(),
                Some(&plan),
                7,
            );
            out.clean.mean_l2_distance(&out.triggered.unwrap())
        };
        let wrist = footprint(SiteId::RightWrist);
        let shin = footprint(SiteId::LeftShin);
        assert!(
            wrist > 1.5 * shin,
            "a wrist-mounted trigger should out-signal a shin one after MTI: {wrist} vs {shin}"
        );
    }

    #[test]
    fn environment_cache_is_reused() {
        let (capturer, seq) = short_capture_setup();
        let env = Environment::hallway();
        let _ = capturer.capture(&seq, Placement::new(1.2, 0.0), &env, None, 1);
        let cached = lock(&capturer.env_cache).len();
        let _ = capturer.capture(&seq, Placement::new(1.6, 0.0), &env, None, 2);
        assert_eq!(lock(&capturer.env_cache).len(), cached, "no duplicate cache entries");
    }

    #[test]
    fn body_scale_changes_intensity_before_normalization() {
        let (_, seq) = short_capture_setup();
        let mut cfg = CaptureConfig::fast();
        cfg.normalize = Normalization::None;
        cfg.log_compress = false;
        cfg.noise_sigma = 0.0;
        let capturer = Capturer::new(cfg);
        let p = Placement::new(1.2, 0.0);
        let full = capturer.capture_with_scale(&seq, p, &Environment::empty(), None, 1, 1.0);
        let half = capturer.capture_with_scale(&seq, p, &Environment::empty(), None, 1, 0.5);
        let sum = |o: &CaptureOutput| {
            o.clean.frames().iter().map(Heatmap::total).sum::<f32>()
        };
        let ratio = sum(&half) / sum(&full);
        assert!((ratio - 0.25).abs() < 0.02, "power scales with the square: {ratio}");
    }

    #[test]
    fn faulted_capture_yields_valid_deterministic_output() {
        let (_, seq) = short_capture_setup();
        let mut cfg = CaptureConfig::fast();
        cfg.faults = Some(crate::faults::FaultInjector::severity_profile(0.6, 77));
        let capturer = Capturer::new(cfg);
        let p = Placement::new(1.2, 0.0);
        let a = capturer.capture(&seq, p, &Environment::hallway(), None, 3);
        assert_eq!(a.clean.len(), 12);
        assert!(a
            .clean
            .frames()
            .iter()
            .all(|f| f.as_slice().iter().all(|v| v.is_finite())));
        let b = capturer.capture(&seq, p, &Environment::hallway(), None, 3);
        assert_eq!(a.clean, b.clean, "fault realization must be deterministic");

        let pristine = Capturer::new(CaptureConfig::fast())
            .capture(&seq, p, &Environment::hallway(), None, 3);
        assert_ne!(a.clean, pristine.clean, "faults must leave a footprint");
    }

    #[test]
    fn total_frame_dropout_still_yields_valid_sequence() {
        let (_, seq) = short_capture_setup();
        let mut cfg = CaptureConfig::fast();
        cfg.faults = Some(
            crate::faults::FaultInjector::new(0)
                .with(crate::faults::Fault::FrameDropout { probability: 1.0 }),
        );
        let capturer = Capturer::new(cfg);
        let out = capturer.capture(&seq, Placement::new(1.2, 0.0), &Environment::empty(), None, 1);
        assert_eq!(out.clean.len(), 12);
        assert!(out
            .clean
            .frames()
            .iter()
            .all(|f| f.as_slice().iter().all(|&v| v == 0.0)));
    }

    #[test]
    fn clean_and_triggered_twins_share_fault_realization() {
        let (_, seq) = short_capture_setup();
        let mut cfg = CaptureConfig::fast();
        // Phase noise only: no dropout, so the trigger footprint survives
        // and the twins stay comparable.
        cfg.faults = Some(
            crate::faults::FaultInjector::new(5)
                .with(crate::faults::Fault::PhaseNoise { sigma_radians: 0.2 }),
        );
        let capturer = Capturer::new(cfg);
        let plan = TriggerPlan {
            attachment: TriggerAttachment::new(Trigger::aluminum_2x2()),
            site: SiteId::RightForearm,
        };
        let out = capturer.capture(
            &seq,
            Placement::new(1.2, 0.0),
            &Environment::classroom(),
            Some(&plan),
            7,
        );
        let trig = out.triggered.expect("requested trigger");
        let dist = out.clean.mean_l2_distance(&trig);
        assert!(dist > 1e-4, "trigger footprint must survive faults, got {dist}");
    }

    #[test]
    fn transform_site_moves_all_components() {
        let xf = Placement::new(1.0, 30.0).body_to_world();
        let local = SitePose {
            site: SiteId::Chest,
            position: mmwave_geom::Vec3::new(0.0, 0.1, 1.2),
            normal: mmwave_geom::Vec3::Y,
            velocity: mmwave_geom::Vec3::new(0.0, 0.3, 0.0),
        };
        let world = transform_site(&local, &xf);
        assert!((world.normal.norm() - 1.0).abs() < 1e-9);
        assert!(world.position.distance(local.position) > 0.5);
        // Velocity rotates but keeps magnitude.
        assert!((world.velocity.norm() - local.velocity.norm()).abs() < 1e-12);
    }
}
