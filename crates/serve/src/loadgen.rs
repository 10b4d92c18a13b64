//! In-process load generation: seeded multi-session sensor streams
//! replayed against a [`Service`], with a throughput/latency report.
//!
//! The generator synthesizes a small pool of base capture streams via
//! `radar` (one full activity clip each), then replays them cyclically
//! across N simulated sessions on a seeded arrival schedule with
//! configurable frame rate, jitter, and burst size. Pump points are
//! **count-based** (every `pump_every` ingested frames), never
//! wall-clock-based, so the verdict stream is deterministic for a given
//! seed regardless of pacing mode or worker count; paced mode only adds
//! real sleeps so end-to-end latency numbers reflect arrival pacing.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::{Duration, Instant};

use mmwave_body::{Activity, ActivitySampler, Participant, SampleVariation, SiteId};
use mmwave_dsp::IfFrame;
use mmwave_exec::derive_seed;
use mmwave_har::PrototypeConfig;
use mmwave_radar::capture::transform_site;
use mmwave_radar::{Capturer, Environment, Placement, Trigger, TriggerAttachment, TriggerPlan};
use mmwave_store::{load_json, save_json_atomic, StoreError};
use mmwave_telemetry::span;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::chaos::{self, StreamChaos};
use crate::service::{Service, Verdict};
use crate::{ServeConfig, ServeError};

/// Distinct base capture streams to synthesize; sessions beyond this
/// replay a shared stream, keeping synthesis cost flat in N.
const BASE_STREAMS: usize = 3;

/// Load-generator knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadgenConfig {
    /// Concurrent simulated sensor streams.
    pub sessions: usize,
    /// Simulated stream duration in seconds (scheduled frames per
    /// session = `ceil(seconds * fps)`).
    pub seconds: f64,
    /// Per-session frame rate in frames per second.
    pub fps: f64,
    /// Per-group arrival jitter as a fraction of the frame period
    /// (0.0 = metronomic, 0.5 = ±half a period).
    pub jitter: f64,
    /// Frames arriving together per burst (1 = smooth stream).
    pub burst: usize,
    /// Master seed for schedules and stream synthesis.
    pub seed: u64,
    /// When true, replay sleeps to honor scheduled arrival times, so
    /// latency percentiles reflect real pacing. When false (firehose),
    /// frames are ingested as fast as possible.
    pub paced: bool,
    /// Ingested frames between service pumps; 0 picks
    /// `max_batch * clip_len` from the service config.
    pub pump_every: usize,
    /// Fraction of sessions streaming *physically triggered* captures
    /// (the paper's worn-trigger threat): the first
    /// `round(sessions * poison_frac)` session ids replay a twin stream
    /// with the aluminum trigger superposed at the chest site. 0 = all
    /// clean. The prefix assignment keeps poisoned sessions spread
    /// across distinct base streams.
    #[serde(default)]
    pub poison_frac: f64,
    /// Optional seeded transport-fault schedule ([`StreamChaos`]):
    /// frame corruption, drop/duplicate/reorder, session stalls, and
    /// pump-suppressing overload applied to the delivery stream before
    /// the service sees it. `None` replays faithfully.
    #[serde(default)]
    pub chaos: Option<StreamChaos>,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            sessions: 8,
            seconds: 5.0,
            fps: 10.0,
            jitter: 0.2,
            burst: 1,
            seed: 7,
            paced: false,
            pump_every: 0,
            poison_frac: 0.0,
            chaos: None,
        }
    }
}

impl LoadgenConfig {
    /// Rejects impossible settings with a descriptive [`ServeError`].
    // `!(x > 0.0)` also rejects NaN, which `x <= 0.0` would let through.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.sessions == 0 {
            return Err(ServeError::Config("loadgen needs at least one session".into()));
        }
        if !(self.seconds > 0.0) {
            return Err(ServeError::Config("loadgen seconds must be positive".into()));
        }
        if !(self.fps > 0.0) {
            return Err(ServeError::Config("loadgen fps must be positive".into()));
        }
        if self.burst == 0 {
            return Err(ServeError::Config("loadgen burst must be at least 1".into()));
        }
        if !(0.0..=1.0).contains(&self.jitter) {
            return Err(ServeError::Config(format!(
                "loadgen jitter {} outside [0, 1]",
                self.jitter
            )));
        }
        if !(0.0..=1.0).contains(&self.poison_frac) {
            return Err(ServeError::Config(format!(
                "loadgen poison_frac {} outside [0, 1]",
                self.poison_frac
            )));
        }
        if let Some(chaos) = &self.chaos {
            chaos.validate()?;
        }
        Ok(())
    }
}

/// Sessions the generator poisons for a given fleet size and fraction:
/// `round(sessions * frac)`, clamped to the fleet.
pub fn poisoned_sessions(sessions: usize, frac: f64) -> usize {
    ((sessions as f64 * frac).round() as usize).min(sessions)
}

/// True when `session` replays a triggered stream: poisoned sessions
/// are the id prefix `0..poisoned_sessions`, so consecutive ids land on
/// *distinct* base streams instead of aliasing onto one.
pub fn is_poisoned(session: u64, sessions: usize, frac: f64) -> bool {
    (session as usize) < poisoned_sessions(sessions, frac)
}

/// One scheduled frame arrival. Public so [`StreamChaos`] can rewrite
/// delivery schedules; the vec order is the delivery order.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Scheduled arrival instant, ms from replay start (paced mode
    /// sleeps toward it; firehose ignores it).
    pub time_ms: f64,
    /// Destination session id.
    pub session: u64,
    /// Sender-assigned sequence number.
    pub seq: u64,
}

/// The loadgen result: throughput, latency percentiles, drop rate, and
/// the service's closing frame-conservation ledger. Saved as a
/// checksummed `store` artifact so CI can gate on it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadgenReport {
    /// Report schema version (bumped on incompatible changes).
    pub schema_version: u32,
    /// Echo of the generator configuration.
    pub config: LoadgenConfig,
    /// Worker threads the service pumped with.
    pub workers: usize,
    /// Wall-clock replay duration (ingest through drain), ms.
    pub wall_ms: f64,
    /// Frames accepted by the service.
    pub ingested: u64,
    /// Frames consumed by verdicts.
    pub inferred_frames: u64,
    /// Frames shed under backpressure.
    pub shed_frames: u64,
    /// Frames still buffered after drain (sub-clip ring remainders).
    pub in_flight_frames: u64,
    /// Frames ingested minus inferred, shed, and in flight. Always 0
    /// when the service's accounting invariant holds.
    pub unaccounted: i64,
    /// Verdicts emitted.
    pub verdicts: u64,
    /// Distinct sessions that produced at least one verdict.
    pub sessions_served: u64,
    /// `sessions_served` per wall-clock second.
    pub sessions_per_sec: f64,
    /// Verdicts per wall-clock second.
    pub inferences_per_sec: f64,
    /// Frames ingested per wall-clock second.
    pub frames_per_sec: f64,
    /// `shed_frames / ingested` (0 when nothing was ingested).
    pub drop_rate: f64,
    /// Median end-to-end latency (newest frame ingest → verdict), ms.
    pub latency_p50_ms: f64,
    /// 95th-percentile end-to-end latency, ms.
    pub latency_p95_ms: f64,
    /// 99th-percentile end-to-end latency, ms.
    pub latency_p99_ms: f64,
    /// Worst observed end-to-end latency, ms.
    pub latency_max_ms: f64,
    /// Highest single-session ring depth observed.
    pub peak_ring_depth: usize,
    /// Highest total queue depth (ring + ready frames) observed.
    pub peak_queue_depth: u64,
    /// Sessions that replayed a physically triggered stream.
    #[serde(default)]
    pub poisoned_sessions: u64,
    /// Frames quarantined at ingress (non-finite, misshapen, duplicate).
    #[serde(default)]
    pub rejected_frames: u64,
    /// Verdicts emitted with `Failed` status.
    #[serde(default)]
    pub verdicts_failed: u64,
    /// Sessions evicted by the staleness sweep.
    #[serde(default)]
    pub sessions_evicted: u64,
    /// Evicted sessions that later reconnected.
    #[serde(default)]
    pub sessions_reopened: u64,
    /// Sequence gaps the service detected.
    #[serde(default)]
    pub seq_gaps: u64,
    /// Duplicate frames the service rejected.
    #[serde(default)]
    pub seq_dups: u64,
    /// Placeholder frames inserted for gap repair.
    #[serde(default)]
    pub filled_frames: u64,
}

impl LoadgenReport {
    /// True when every ingested frame is accounted for.
    pub fn is_clean(&self) -> bool {
        self.unaccounted == 0
    }

    /// Saves the report as a checksummed atomic artifact.
    pub fn save(&self, path: &Path) -> Result<(), StoreError> {
        save_json_atomic(path, self)
    }

    /// Loads a previously saved report, verifying its checksum.
    pub fn load(path: &Path) -> Result<LoadgenReport, StoreError> {
        Ok(load_json::<LoadgenReport>(path)?.value)
    }
}

/// Runs the load generator against a fresh [`Service`] and returns the
/// report. See [`run_with`] to also observe each verdict as it lands.
pub fn run(
    lg: &LoadgenConfig,
    serve_cfg: ServeConfig,
    proto: &PrototypeConfig,
    environment: Environment,
) -> Result<LoadgenReport, ServeError> {
    run_with(lg, serve_cfg, proto, environment, |_| {})
}

/// [`run`] with a per-verdict observer callback (used by the CLI to
/// print verdicts live and by tests to capture the verdict stream).
pub fn run_with(
    lg: &LoadgenConfig,
    serve_cfg: ServeConfig,
    proto: &PrototypeConfig,
    environment: Environment,
    mut on_verdict: impl FnMut(&Verdict),
) -> Result<LoadgenReport, ServeError> {
    lg.validate()?;
    let _span = span("serve.loadgen");
    let mut service = Service::new(serve_cfg.clone(), proto, environment.clone(), lg.seed)?;
    let (base, triggered) = synthesize_streams(lg, proto, &environment);
    let arrivals = match &lg.chaos {
        Some(chaos) => chaos.apply_to_schedule(&schedule(lg)),
        None => schedule(lg),
    };
    let pump_every = if lg.pump_every == 0 {
        (serve_cfg.max_batch * serve_cfg.clip_len).max(1)
    } else {
        lg.pump_every
    };

    let replay_span = span("serve.loadgen.replay");
    let start = Instant::now();
    let mut latencies: Vec<f64> = Vec::new();
    let mut served: BTreeSet<u64> = BTreeSet::new();
    let mut verdict_total: u64 = 0;
    let mut peak_queue: u64 = 0;
    let mut since_pump = 0usize;
    let mut pump_index = 0u64;
    let clip_len = serve_cfg.clip_len;
    for arrival in &arrivals {
        if lg.paced {
            let target = Duration::from_secs_f64(arrival.time_ms / 1e3);
            let elapsed = start.elapsed();
            if target > elapsed {
                std::thread::sleep(target - elapsed);
            }
        }
        let pool = if is_poisoned(arrival.session, lg.sessions, lg.poison_frac) {
            &triggered
        } else {
            &base
        };
        let stream = &pool[(arrival.session as usize) % pool.len()];
        let mut frame = stream[(arrival.seq as usize) % clip_len].clone();
        if let Some(c) = &lg.chaos {
            if c.corrupts(arrival.session, arrival.seq) {
                chaos::corrupt_frame(&mut frame);
            }
        }
        service.ingest(arrival.session, arrival.seq, frame);
        peak_queue = peak_queue.max(service.queue_depth());
        since_pump += 1;
        if since_pump >= pump_every {
            since_pump = 0;
            pump_index += 1;
            // A suppressed pump is the overload fault: arrivals keep
            // landing while the service never gets a turn, so rings
            // overflow exactly as they would behind a stalled consumer.
            if !lg.chaos.as_ref().is_some_and(|c| c.suppresses_pump(pump_index)) {
                for v in service.pump() {
                    latencies.push(v.latency_ms);
                    served.insert(v.session);
                    verdict_total += 1;
                    on_verdict(&v);
                }
            }
        }
    }
    for v in service.drain() {
        latencies.push(v.latency_ms);
        served.insert(v.session);
        verdict_total += 1;
        on_verdict(&v);
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    drop(replay_span);

    let acc = service.accounting();
    latencies.sort_by(f64::total_cmp);
    let wall_s = (wall_ms / 1e3).max(1e-9);
    Ok(LoadgenReport {
        schema_version: 1,
        config: lg.clone(),
        workers: mmwave_exec::workers(),
        wall_ms,
        ingested: acc.ingested,
        inferred_frames: acc.inferred_frames,
        shed_frames: acc.shed_frames,
        in_flight_frames: acc.in_flight_frames,
        unaccounted: acc.ingested as i64
            - acc.inferred_frames as i64
            - acc.shed_frames as i64
            - acc.rejected as i64
            - acc.in_flight_frames as i64,
        verdicts: verdict_total,
        sessions_served: served.len() as u64,
        sessions_per_sec: served.len() as f64 / wall_s,
        inferences_per_sec: verdict_total as f64 / wall_s,
        frames_per_sec: acc.ingested as f64 / wall_s,
        drop_rate: if acc.ingested == 0 {
            0.0
        } else {
            acc.shed_frames as f64 / acc.ingested as f64
        },
        latency_p50_ms: percentile(&latencies, 50.0),
        latency_p95_ms: percentile(&latencies, 95.0),
        latency_p99_ms: percentile(&latencies, 99.0),
        latency_max_ms: latencies.last().copied().unwrap_or(0.0),
        peak_ring_depth: acc.peak_ring_depth,
        peak_queue_depth: peak_queue,
        poisoned_sessions: poisoned_sessions(lg.sessions, lg.poison_frac) as u64,
        rejected_frames: acc.rejected,
        verdicts_failed: acc.verdicts_failed,
        sessions_evicted: acc.sessions_evicted,
        sessions_reopened: acc.sessions_reopened,
        seq_gaps: acc.seq_gaps,
        seq_dups: acc.seq_dups,
        filled_frames: acc.filled_frames,
    })
}

/// Synthesizes `min(sessions, BASE_STREAMS)` full-clip capture streams
/// that sessions replay cyclically, plus — when `poison_frac > 0` —
/// their physically triggered twins: the same base IF frames with the
/// aluminum trigger's contribution superposed at the worn chest site,
/// exactly how the attack pipeline composes a worn trigger. The second
/// vector is empty when nothing is poisoned.
fn synthesize_streams(
    lg: &LoadgenConfig,
    proto: &PrototypeConfig,
    environment: &Environment,
) -> (Vec<Vec<IfFrame>>, Vec<Vec<IfFrame>>) {
    let _span = span("serve.loadgen.synth");
    let capturer = Capturer::new(proto.capture.0.clone());
    let frame_rate = capturer.config().frame_rate;
    let sampler = ActivitySampler::new(Participant::average(), proto.n_frames, frame_rate);
    let angles = [0.0, -30.0, 30.0];
    let poison = poisoned_sessions(lg.sessions, lg.poison_frac) > 0;
    let plan = TriggerPlan {
        attachment: TriggerAttachment::new(Trigger::aluminum_2x2()),
        site: SiteId::Chest,
    };
    let mut base = Vec::new();
    let mut triggered = Vec::new();
    for b in 0..lg.sessions.clamp(1, BASE_STREAMS) {
        let activity = Activity::from_index(b % Activity::ALL.len());
        let sequence = sampler.sample(activity, &SampleVariation::nominal());
        let placement = Placement::new(1.2, angles[b % angles.len()]);
        let clean = capturer.base_if_frames(
            &sequence,
            placement,
            environment,
            derive_seed(lg.seed, 0x1000 + b as u64),
            1.0,
        );
        if poison {
            let xf = placement.body_to_world();
            triggered.push(
                sequence
                    .iter()
                    .zip(&clean)
                    .map(|(body_frame, frame)| {
                        let site_world = transform_site(body_frame.site(plan.site), &xf);
                        frame.superposed(&capturer.trigger_if(&plan, &site_world))
                    })
                    .collect(),
            );
        }
        base.push(clean);
    }
    (base, triggered)
}

/// Builds the merged, time-sorted arrival schedule for every session.
fn schedule(lg: &LoadgenConfig) -> Vec<Arrival> {
    let frames_per_session = ((lg.seconds * lg.fps).ceil() as u64).max(1);
    let period_ms = 1e3 / lg.fps;
    let mut arrivals = Vec::with_capacity(lg.sessions * frames_per_session as usize);
    for s in 0..lg.sessions as u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(lg.seed, s));
        let phase = rng.gen_range(0.0..period_ms);
        let mut group_jitter = 0.0;
        for seq in 0..frames_per_session {
            if seq % lg.burst as u64 == 0 {
                group_jitter = if lg.jitter > 0.0 {
                    rng.gen_range(-lg.jitter..lg.jitter) * period_ms
                } else {
                    0.0
                };
            }
            let group = seq / lg.burst as u64;
            let time_ms =
                (phase + group as f64 * period_ms * lg.burst as f64 + group_jitter).max(0.0);
            arrivals.push(Arrival { time_ms, session: s, seq });
        }
    }
    arrivals.sort_by(|a, b| {
        a.time_ms
            .total_cmp(&b.time_ms)
            .then(a.session.cmp(&b.session))
            .then(a.seq.cmp(&b.seq))
    });
    arrivals
}

/// Nearest-rank percentile over an already-sorted slice (0.0 when
/// empty).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seed_deterministic_and_time_sorted() {
        let lg = LoadgenConfig { sessions: 4, seconds: 1.0, fps: 10.0, ..Default::default() };
        let a = schedule(&lg);
        let b = schedule(&lg);
        assert_eq!(a.len(), 4 * 10);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.time_ms.to_bits(), x.session, x.seq), (y.time_ms.to_bits(), y.session, y.seq));
        }
        for w in a.windows(2) {
            assert!(w[0].time_ms <= w[1].time_ms);
        }
    }

    #[test]
    fn bursts_share_one_arrival_instant_per_group() {
        let lg = LoadgenConfig {
            sessions: 1,
            seconds: 1.0,
            fps: 10.0,
            burst: 5,
            jitter: 0.3,
            ..Default::default()
        };
        let a = schedule(&lg);
        assert_eq!(a.len(), 10);
        // Frames within one burst group land at the same instant.
        for group in a.chunks(5) {
            assert!(group.iter().all(|x| x.time_ms.to_bits() == group[0].time_ms.to_bits()));
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 99.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad = LoadgenConfig { sessions: 0, ..Default::default() };
        assert!(bad.validate().is_err());
        let bad = LoadgenConfig { jitter: 1.5, ..Default::default() };
        assert!(bad.validate().is_err());
        let bad = LoadgenConfig { poison_frac: 1.5, ..Default::default() };
        assert!(bad.validate().is_err());
        let bad = LoadgenConfig { poison_frac: -0.1, ..Default::default() };
        assert!(bad.validate().is_err());
        assert!(LoadgenConfig::default().validate().is_ok());
    }

    #[test]
    fn poisoned_sessions_are_the_id_prefix() {
        assert_eq!(poisoned_sessions(10, 0.3), 3);
        assert_eq!(poisoned_sessions(10, 0.0), 0);
        assert_eq!(poisoned_sessions(10, 1.0), 10);
        assert_eq!(poisoned_sessions(3, 0.5), 2);
        // Prefix rule: ids below the count are poisoned, the rest clean.
        for s in 0..10u64 {
            assert_eq!(is_poisoned(s, 10, 0.3), s < 3);
        }
        // The prefix lands poisoned sessions on distinct base streams
        // (ids 0,1,2 cover streams 0,1,2), unlike an evenly-spread
        // assignment which would alias them all onto one stream.
        let streams: BTreeSet<usize> =
            (0..3u64).map(|s| s as usize % BASE_STREAMS).collect();
        assert_eq!(streams.len(), 3);
    }

    #[test]
    fn poison_frac_defaults_to_zero_on_legacy_configs() {
        // Reports saved before poison_frac existed must still load.
        let legacy = r#"{
            "sessions": 4, "seconds": 1.0, "fps": 10.0, "jitter": 0.2,
            "burst": 1, "seed": 7, "paced": false, "pump_every": 0
        }"#;
        let cfg: LoadgenConfig = serde_json::from_str(legacy).expect("legacy config parses");
        assert_eq!(cfg.poison_frac, 0.0);
        assert!(cfg.validate().is_ok());
    }
}
