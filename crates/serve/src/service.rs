//! The streaming inference service: ingest → assemble → micro-batch →
//! verdict, with explicit backpressure and exact frame accounting.
//!
//! The service is deliberately caller-pumped and single-threaded at the
//! control layer: [`Service::ingest`] only appends to a per-session ring
//! (cheap, never blocks), and [`Service::pump`] does the heavy lifting —
//! windowing rings into clips, coalescing ready clips across sessions
//! into micro-batches, and fanning each batch across `exec`'s
//! deterministic pool. Because batches are formed in session-id order
//! from a FIFO ready queue and `par_map` preserves input order, the
//! per-session verdict stream is byte-identical for any worker count.
//!
//! Chaos hardening happens at three choke points, all count-based so no
//! decision depends on the wall clock or worker count:
//!
//! - **Ingress** ([`Service::ingest`]): frames are validated (shape,
//!   NaN/Inf) and sequence-checked before touching a ring. Bad frames
//!   are quarantined into the ledger's `rejected` bucket; small gaps are
//!   bridged with placeholder frames repaired at the heatmap stage;
//!   unrepairable gaps and sensor restarts flush the buffered run as
//!   shed so clips only ever splice contiguous frames.
//! - **Lifecycle** ([`Service::pump`]'s staleness sweep): sessions idle
//!   for `session_ttl` pumps are evicted — their partial rings become
//!   shed, their lifetime counters fold into a retired aggregate so the
//!   ledger still closes, and the same id may later reconnect with a
//!   fresh ring.
//! - **Inference** ([`crate::Breaker`]): per-clip failures become
//!   poisoned [`VerdictStatus::Failed`] verdicts without sinking their
//!   batch, and a sustained failure streak opens a circuit breaker that
//!   sheds ready clips instead of grinding the pump.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use mmwave_dsp::IfFrame;
use mmwave_har::{CnnLstm, PrototypeConfig};
use mmwave_radar::{Capturer, Environment};
use mmwave_telemetry::{counter, gauge, observe, span};
use serde::{Deserialize, Serialize};

use crate::batcher;
use crate::breaker::{Breaker, BreakerState};
use crate::ring::FrameRing;
use crate::session::{PendingFrame, RejectReason, SeqDisposition, SessionState};
use crate::{ServeConfig, ServeError};
use mmwave_defense::TriggerDetector;

/// How many recently evicted session ids are remembered for reconnect
/// detection (`serve.sessions_reopened`). Bounded so arbitrary churn
/// cannot grow memory; a reconnect after this many other evictions is
/// indistinguishable from a brand-new session, which is harmless.
const EVICTED_LOG_CAPACITY: usize = 256;

/// A fixed-length window of raw frames, assembled from one session's
/// ring and waiting in the ready queue for the next micro-batch.
#[derive(Debug, Clone)]
pub struct ReadyClip {
    /// Owning session.
    pub session: u64,
    /// Monotone per-session clip number (assigned at assembly).
    pub clip_index: u64,
    /// Sequence number of the oldest frame in the clip.
    pub first_seq: u64,
    /// Sequence number of the newest frame in the clip.
    pub last_seq: u64,
    /// Ingest timestamp (ms since service epoch) of the newest frame;
    /// end-to-end latency is measured from here.
    pub last_ingest_ms: f64,
    /// Exactly `clip_len` raw IF frames, oldest first. Gap-repair
    /// placeholders are all-zero cubes flagged in `dropped`.
    pub frames: Vec<IfFrame>,
    /// `dropped[i]` is true when `frames[i]` is a placeholder for a
    /// frame lost in transit; the batcher interpolates those slots at
    /// the heatmap stage (`mmwave_dsp::repair_dropped_frames`).
    pub dropped: Vec<bool>,
    /// Real (non-placeholder) frames in the clip — the clip's share of
    /// the conservation ledger. Always ≥ 1: placeholder runs are capped
    /// below `clip_len` by `ServeConfig::validate`.
    pub real_frames: usize,
}

/// Whether a verdict carries a real classification or marks a clip the
/// pipeline could not process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum VerdictStatus {
    /// The clip ran the full DSP → model → detector chain.
    #[default]
    Ok,
    /// The clip panicked mid-pipeline or produced non-finite outputs;
    /// its label/confidence/score fields are poisoned placeholders.
    Failed {
        /// What went wrong (panic message or a non-finite-output note).
        reason: String,
    },
}

impl VerdictStatus {
    /// True for [`VerdictStatus::Failed`].
    pub fn is_failed(&self) -> bool {
        matches!(self, VerdictStatus::Failed { .. })
    }
}

/// One classification result for one clip of one session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    /// Owning session.
    pub session: u64,
    /// Per-session clip number.
    pub clip_index: u64,
    /// Oldest frame sequence number in the clip.
    pub first_seq: u64,
    /// Newest frame sequence number in the clip.
    pub last_seq: u64,
    /// Predicted class index (0 when `status` is `Failed`).
    pub label: usize,
    /// Human-readable activity label for `label` (`"failed"` when
    /// `status` is `Failed`).
    pub activity: String,
    /// Softmax probability of the predicted class (0.0 on failure).
    pub confidence: f32,
    /// Trigger-detector anomaly score from the `defense` crate (0.0 on
    /// failure).
    pub defense_score: f64,
    /// Newest-frame-ingest → verdict-emit latency in milliseconds.
    /// Wall-clock, so excluded from determinism comparisons.
    pub latency_ms: f64,
    /// Ok, or Failed with the failure reason. Serialized verdicts from
    /// before the chaos-hardening PR deserialize as Ok.
    #[serde(default)]
    pub status: VerdictStatus,
}

/// A frame-conservation snapshot across every session the service has
/// ever seen — including evicted ones, whose counters fold into the
/// retired aggregate. [`Accounting::balanced`] is the core backpressure
/// invariant: every ingested frame is inferred, shed, rejected, or
/// still in flight — nothing is silently lost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Accounting {
    /// Frames ever presented to `ingest` (accepted or rejected;
    /// gap-repair placeholders are *not* ingested frames).
    pub ingested: u64,
    /// Real frames consumed by emitted verdicts (failed verdicts
    /// included — their frames were consumed by the attempt).
    pub inferred_frames: u64,
    /// Real frames shed: ring overflow, ready-queue overflow, abandoned
    /// runs, evicted rings, and breaker-shed clips.
    pub shed_frames: u64,
    /// Frames quarantined at ingress (non-finite, misshapen, duplicate).
    pub rejected: u64,
    /// Real frames buffered in rings plus real frames inside ready clips.
    pub in_flight_frames: u64,
    /// Verdicts emitted.
    pub verdicts: u64,
    /// Verdicts emitted with `Failed` status.
    #[serde(default)]
    pub verdicts_failed: u64,
    /// Session opens (first frame of a new id, plus reconnects).
    pub sessions: u64,
    /// Sessions evicted by the staleness sweep.
    #[serde(default)]
    pub sessions_evicted: u64,
    /// Evicted ids that later reconnected with a fresh ring.
    #[serde(default)]
    pub sessions_reopened: u64,
    /// Sequence gaps detected (fillable or run-breaking).
    #[serde(default)]
    pub seq_gaps: u64,
    /// Duplicate / late frames rejected by sequence tracking.
    #[serde(default)]
    pub seq_dups: u64,
    /// Placeholder frames inserted to bridge fillable gaps.
    #[serde(default)]
    pub filled_frames: u64,
    /// Highest single-ring depth ever observed.
    pub peak_ring_depth: usize,
}

impl Accounting {
    /// True when `ingested == inferred + shed + rejected + in_flight`.
    pub fn balanced(&self) -> bool {
        self.ingested
            == self.inferred_frames + self.shed_frames + self.rejected + self.in_flight_frames
    }
}

/// Lifetime counters of sessions the staleness sweep has evicted. Kept
/// as a plain aggregate (not per-id) so arbitrary churn cannot grow
/// memory while the global ledger still closes.
#[derive(Debug, Default, Clone, Copy)]
struct RetiredTotals {
    ingested: u64,
    inferred: u64,
    shed: u64,
    rejected: u64,
    seq_gaps: u64,
    seq_dups: u64,
    filled: u64,
    peak_ring_depth: usize,
}

/// The streaming inference service. See the module docs for the
/// pump-driven execution model.
pub struct Service {
    config: ServeConfig,
    capturer: Capturer,
    environment: Environment,
    model: CnnLstm,
    detector: TriggerDetector,
    sessions: BTreeMap<u64, SessionState>,
    ready: VecDeque<ReadyClip>,
    /// Frames (real + placeholder) currently buffered across all rings —
    /// incremental mirror of `sum(ring.len())` so the queue-depth gauge
    /// is O(1).
    ring_frames: u64,
    /// Real frames inside ready clips (mirror of
    /// `sum(ready[i].real_frames)` for the ledger's in-flight share).
    ready_real: u64,
    /// Count of `pump` calls — the service's logical clock for the
    /// staleness sweep and the circuit breaker.
    pumps: u64,
    breaker: Breaker,
    /// Folded counters of evicted sessions (see [`RetiredTotals`]).
    retired: RetiredTotals,
    /// Recently evicted ids, for reconnect detection (bounded FIFO).
    evicted_log: FrameRing<u64>,
    session_opens: u64,
    sessions_evicted: u64,
    sessions_reopened: u64,
    verdict_total: u64,
    verdicts_failed: u64,
    epoch: Instant,
}

/// The model pair a [`Service`] serves: the activity classifier whose
/// labels become verdicts, and the trigger detector whose score rides
/// along as `defense_score`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedModel {
    /// The HAR classifier — in the paper's threat model, the victim
    /// that may carry a backdoor.
    pub model: CnnLstm,
    /// The binary trigger detector (Section VII).
    pub detector: TriggerDetector,
}

impl ServedModel {
    /// A freshly seeded, untrained pair: `CnnLstm::new(proto, seed)` and
    /// `TriggerDetector::new(proto, seed ^ 0x5e7e_c7ed)`. This is what
    /// [`Service::new`] and [`crate::loadgen::run`] serve.
    ///
    /// # Panics
    ///
    /// Panics if `proto` fails validation (see [`CnnLstm::new`]).
    pub fn seeded(proto: &PrototypeConfig, seed: u64) -> ServedModel {
        ServedModel {
            model: CnnLstm::new(proto, seed),
            detector: TriggerDetector::new(proto, seed ^ 0x5e7e_c7ed),
        }
    }

    /// Refuses a pair that cannot serve `proto`'s clips: the classifier
    /// must have `proto.n_classes` outputs, and both networks must take
    /// the heatmaps `proto`'s capture pipeline produces.
    fn check(&self, proto: &PrototypeConfig) -> Result<(), ServeError> {
        proto.validate().map_err(|e| ServeError::Config(format!("prototype config: {e}")))?;
        let geometry = (proto.heatmap_rows, proto.heatmap_cols);
        if self.model.n_classes() != proto.n_classes {
            return Err(ServeError::Config(format!(
                "the served model has {} classes, the prototype {}",
                self.model.n_classes(),
                proto.n_classes
            )));
        }
        for (name, shape) in
            [("model", self.model.input_shape()), ("detector", self.detector.input_shape())]
        {
            if shape != geometry {
                return Err(ServeError::Config(format!(
                    "the served {name} takes {shape:?} heatmaps, the prototype makes {geometry:?}"
                )));
            }
        }
        Ok(())
    }
}

impl Service {
    /// Builds a service around a freshly seeded model + detector pair
    /// ([`ServedModel::seeded`]). See [`Service::serving`].
    pub fn new(
        config: ServeConfig,
        proto: &PrototypeConfig,
        environment: Environment,
        seed: u64,
    ) -> Result<Service, ServeError> {
        Service::serving(config, proto, environment, ServedModel::seeded(proto, seed))
    }

    /// Builds a service around the given model + detector pair.
    ///
    /// `config.clip_len` must match `proto.n_frames` — the CNN-LSTM was
    /// shaped for exactly that many frames per clip — and the capture
    /// pipeline is taken from `proto` so loadgen-synthesized frames have
    /// matching dimensions. A pair whose class count or heatmap geometry
    /// does not match `proto` is refused with [`ServeError::Config`]
    /// rather than failing every clip at inference time.
    pub fn serving(
        config: ServeConfig,
        proto: &PrototypeConfig,
        environment: Environment,
        served: ServedModel,
    ) -> Result<Service, ServeError> {
        config.validate()?;
        if config.clip_len != proto.n_frames {
            return Err(ServeError::Config(format!(
                "clip_len {} does not match the model's n_frames {}",
                config.clip_len, proto.n_frames
            )));
        }
        served.check(proto)?;
        let _span = span("serve.init");
        let capturer = Capturer::new(proto.capture.0.clone());
        let ServedModel { model, detector } = served;
        let breaker = Breaker::new(config.breaker_threshold, config.breaker_cooldown);
        breaker.publish();
        Ok(Service {
            config,
            capturer,
            environment,
            model,
            detector,
            sessions: BTreeMap::new(),
            ready: VecDeque::new(),
            ring_frames: 0,
            ready_real: 0,
            pumps: 0,
            breaker,
            retired: RetiredTotals::default(),
            evicted_log: FrameRing::new(EVICTED_LOG_CAPACITY),
            session_opens: 0,
            sessions_evicted: 0,
            sessions_reopened: 0,
            verdict_total: 0,
            verdicts_failed: 0,
            epoch: Instant::now(),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Milliseconds elapsed since the service was built.
    pub fn now_ms(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e3
    }

    /// Sessions currently resident (the churn test pins that this stays
    /// bounded by the active set, not by the lifetime open count).
    pub fn active_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Current circuit-breaker state.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// The expected IF-cube dimensions `(n_vrx, n_chirps, n_adc)` for
    /// this service's capture pipeline.
    fn expected_dims(&self) -> (usize, usize, usize) {
        let radar = self.capturer.config();
        (radar.n_virtual(), radar.n_chirps, radar.n_adc)
    }

    /// Accepts one raw frame for `session`. Never blocks and never
    /// grows a queue: bad frames are quarantined as `rejected`, a full
    /// ring sheds its oldest frame, and every path is counted.
    pub fn ingest(&mut self, session: u64, seq: u64, frame: IfFrame) {
        let now = self.now_ms();
        let pumps = self.pumps;
        let (n_vrx, n_chirps, n_adc) = self.expected_dims();
        if !self.sessions.contains_key(&session) {
            let reopened = self.evicted_log.iter().any(|&id| id == session);
            if reopened {
                self.sessions_reopened += 1;
                counter("serve.sessions_reopened", 1);
            } else {
                counter("serve.sessions_opened", 1);
            }
            self.session_opens += 1;
            self.sessions.insert(session, SessionState::new(session, self.config.ring_capacity));
        }
        let max_gap = self.config.max_gap_repair;
        let state = self.sessions.get_mut(&session).expect("session just inserted");
        state.last_ingest_pump = pumps;
        counter("serve.ingested", 1);

        // Quarantine before the frame can touch DSP or a ring.
        let shape_ok = frame.n_vrx() == n_vrx
            && frame.n_chirps() == n_chirps
            && frame.n_adc() == n_adc;
        if !shape_ok {
            state.reject(RejectReason::BadShape);
            counter("serve.rejected", 1);
            counter("serve.rejected_shape", 1);
            return;
        }
        if !frame.as_slice().iter().all(|c| c.re.is_finite() && c.im.is_finite()) {
            state.reject(RejectReason::NonFinite);
            counter("serve.rejected", 1);
            counter("serve.rejected_nonfinite", 1);
            return;
        }

        // Sequence tracking: only contiguous runs may reach a clip.
        // `shed` counts real frames displaced; the ring-frames mirror is
        // reconciled by length delta because overflow may also displace
        // placeholder frames, which are off the ledger.
        let len_before = state.ring.len() as u64;
        let mut shed = 0u64;
        match state.classify_seq(seq, max_gap) {
            SeqDisposition::InOrder => {}
            SeqDisposition::Duplicate => {
                state.reject(RejectReason::Duplicate);
                counter("serve.rejected", 1);
                counter("serve.seq_dups", 1);
                return;
            }
            SeqDisposition::FillableGap { missing } => {
                state.seq_gaps += 1;
                counter("serve.seq_gaps", 1);
                let next = state.expected_seq.expect("a gap implies an expectation");
                counter("serve.filled_frames", missing);
                for fill_seq in next..next + missing {
                    let blank = IfFrame::zeros(n_vrx, n_chirps, n_adc);
                    shed += state.push_filler(fill_seq, now, blank);
                }
            }
            SeqDisposition::RunBreak => {
                state.seq_gaps += 1;
                counter("serve.seq_gaps", 1);
                shed += state.abandon_run();
            }
            SeqDisposition::Restart => {
                counter("serve.seq_restarts", 1);
                shed += state.abandon_run();
            }
        }
        shed += state.accept(PendingFrame { seq, ingest_ms: now, frame, filler: false });
        let len_after = state.ring.len() as u64;
        self.ring_frames = self.ring_frames - len_before + len_after;
        if shed > 0 {
            counter("serve.shed_total", shed);
        }
        gauge("serve.queue_depth", self.queue_depth() as f64);
    }

    /// Frames currently held by the service: buffered in rings plus
    /// inside ready clips. This is what the `serve.queue_depth` gauge
    /// reports.
    pub fn queue_depth(&self) -> u64 {
        self.ring_frames + (self.ready.len() * self.config.clip_len) as u64
    }

    /// Clips assembled and waiting for the next micro-batch.
    pub fn ready_clips(&self) -> usize {
        self.ready.len()
    }

    /// Credits `frames` shed frames to `session`, or to the retired
    /// aggregate when the session has been evicted since the frames
    /// entered flight.
    fn credit_shed(&mut self, session: u64, frames: u64) {
        match self.sessions.get_mut(&session) {
            Some(state) => state.shed += frames,
            None => self.retired.shed += frames,
        }
    }

    /// Evicts every session that has not ingested for `session_ttl`
    /// pumps: its partial ring is flushed into the ledger as shed and
    /// its lifetime counters fold into the retired aggregate, so the
    /// session map stays bounded by the *active* set under any churn.
    fn sweep_stale(&mut self) {
        let ttl = self.config.session_ttl as u64;
        if ttl == 0 {
            return;
        }
        let stale: Vec<u64> = self
            .sessions
            .values()
            .filter(|s| self.pumps.saturating_sub(s.last_ingest_pump) >= ttl)
            .map(|s| s.id)
            .collect();
        for id in stale {
            let mut state = self.sessions.remove(&id).expect("stale id was just listed");
            let drained = state.ring.len() as u64;
            let flushed = state.abandon_run();
            self.ring_frames -= drained;
            if flushed > 0 {
                counter("serve.shed_total", flushed);
            }
            self.retired.ingested += state.ingested;
            self.retired.inferred += state.inferred;
            self.retired.shed += state.shed;
            self.retired.rejected += state.rejected;
            self.retired.seq_gaps += state.seq_gaps;
            self.retired.seq_dups += state.seq_dups;
            self.retired.filled += state.filled;
            self.retired.peak_ring_depth = self.retired.peak_ring_depth.max(state.peak_ring_depth);
            self.evicted_log.push(id);
            self.sessions_evicted += 1;
            counter("serve.sessions_evicted", 1);
        }
    }

    /// Windows every ring holding at least `clip_len` frames into ready
    /// clips, shedding the *oldest* ready clip when the ready queue is
    /// at capacity (freshest work wins under overload, and every shed
    /// frame stays accounted to its session).
    fn assemble(&mut self) {
        let clip_len = self.config.clip_len;
        let ready_capacity = self.config.ready_capacity;
        let mut queue_sheds: Vec<(u64, u64)> = Vec::new();
        for (&id, state) in self.sessions.iter_mut() {
            while let Some(frames) = state.ring.take_front(clip_len) {
                self.ring_frames -= clip_len as u64;
                let dropped: Vec<bool> = frames.iter().map(|f| f.filler).collect();
                let real_frames = dropped.iter().filter(|&&d| !d).count();
                state.ring_real -= real_frames;
                let first = &frames[0];
                let last = &frames[clip_len - 1];
                let clip = ReadyClip {
                    session: id,
                    clip_index: state.clips,
                    first_seq: first.seq,
                    last_seq: last.seq,
                    last_ingest_ms: last.ingest_ms,
                    frames: frames.into_iter().map(|f| f.frame).collect(),
                    dropped,
                    real_frames,
                };
                state.clips += 1;
                self.ready_real += real_frames as u64;
                counter("serve.clips_assembled", 1);
                if self.ready.len() == ready_capacity {
                    if let Some(old) = self.ready.pop_front() {
                        self.ready_real -= old.real_frames as u64;
                        queue_sheds.push((old.session, old.real_frames as u64));
                    }
                }
                self.ready.push_back(clip);
            }
        }
        for (session, frames) in queue_sheds {
            counter("serve.shed_total", frames);
            counter("serve.shed_clips", 1);
            self.credit_shed(session, frames);
        }
    }

    /// Sheds every ready clip unseen (breaker open): cheaper than
    /// batching doomed work, and every frame stays accounted.
    fn shed_ready(&mut self) {
        let clips: Vec<(u64, u64)> =
            self.ready.drain(..).map(|c| (c.session, c.real_frames as u64)).collect();
        for (session, frames) in clips {
            self.ready_real -= frames;
            counter("serve.shed_total", frames);
            counter("serve.shed_clips", 1);
            counter("serve.breaker_shed_clips", 1);
            self.credit_shed(session, frames);
        }
    }

    /// Advances the service one pump: sweeps stale sessions, assembles
    /// ready clips, then drains the ready queue in micro-batches of at
    /// most `max_batch` clips, running each batch's DSP → CNN-LSTM →
    /// detector work on `exec`'s pool. While the circuit breaker is
    /// open, ready clips are shed instead of batched. Returns every
    /// verdict produced, in deterministic (queue) order.
    pub fn pump(&mut self) -> Vec<Verdict> {
        let _span = span("serve.pump");
        self.pumps += 1;
        self.breaker.on_pump(self.pumps);
        self.sweep_stale();
        self.assemble();
        let mut verdicts = Vec::new();
        while !self.ready.is_empty() {
            if !self.breaker.allows_batch() {
                self.shed_ready();
                break;
            }
            let take = self.ready.len().min(self.config.max_batch);
            let batch: Vec<ReadyClip> = self.ready.drain(..take).collect();
            let now = self.now_ms();
            let out = batcher::infer_batch(
                &self.capturer,
                &self.environment,
                &self.model,
                &self.detector,
                &batch,
                now,
            );
            let failures: Vec<bool> = out.iter().map(|v| v.status.is_failed()).collect();
            for (clip, v) in batch.iter().zip(&out) {
                let real = clip.real_frames as u64;
                self.ready_real -= real;
                match self.sessions.get_mut(&v.session) {
                    Some(state) => state.inferred += real,
                    None => self.retired.inferred += real,
                }
                if v.status.is_failed() {
                    self.verdicts_failed += 1;
                    counter("serve.verdicts_failed", 1);
                }
                observe("serve.latency_ms", v.latency_ms);
            }
            self.verdict_total += out.len() as u64;
            counter("serve.verdicts", out.len() as u64);
            self.breaker.record_batch(&failures, self.pumps);
            verdicts.extend(out);
        }
        gauge("serve.queue_depth", self.queue_depth() as f64);
        self.breaker.publish();
        verdicts
    }

    /// Graceful shutdown: pumps until the ready queue is empty and every
    /// assemblable clip has been inferred (or shed, if the breaker is
    /// open). Frames left in rings (fewer than `clip_len` per session)
    /// stay in flight and remain visible in [`Service::accounting`].
    pub fn drain(&mut self) -> Vec<Verdict> {
        let _span = span("serve.drain");
        let out = self.pump();
        counter("serve.drains", 1);
        gauge("serve.queue_depth", self.queue_depth() as f64);
        out
    }

    /// Snapshot of the frame-conservation ledger across all sessions,
    /// live and evicted.
    pub fn accounting(&self) -> Accounting {
        let mut acc = Accounting {
            ingested: self.retired.ingested,
            inferred_frames: self.retired.inferred,
            shed_frames: self.retired.shed,
            rejected: self.retired.rejected,
            in_flight_frames: self.ready_real,
            verdicts: self.verdict_total,
            verdicts_failed: self.verdicts_failed,
            sessions: self.session_opens,
            sessions_evicted: self.sessions_evicted,
            sessions_reopened: self.sessions_reopened,
            seq_gaps: self.retired.seq_gaps,
            seq_dups: self.retired.seq_dups,
            filled_frames: self.retired.filled,
            peak_ring_depth: self.retired.peak_ring_depth,
        };
        for state in self.sessions.values() {
            acc.ingested += state.ingested;
            acc.inferred_frames += state.inferred;
            acc.shed_frames += state.shed;
            acc.rejected += state.rejected;
            acc.in_flight_frames += state.ring_real as u64;
            acc.seq_gaps += state.seq_gaps;
            acc.seq_dups += state.seq_dups;
            acc.filled_frames += state.filled;
            acc.peak_ring_depth = acc.peak_ring_depth.max(state.peak_ring_depth);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> (ServeConfig, PrototypeConfig) {
        let proto = PrototypeConfig::smoke_test();
        (ServeConfig { clip_len: proto.n_frames, ..ServeConfig::default() }, proto)
    }

    fn refusal(served: ServedModel) -> String {
        let (cfg, proto) = smoke();
        match Service::serving(cfg, &proto, Environment::hallway(), served) {
            Err(ServeError::Config(detail)) => detail,
            Ok(_) => panic!("a mismatched pair must be refused"),
        }
    }

    #[test]
    fn serving_refuses_the_two_class_detector_as_the_victim() {
        let (_, proto) = smoke();
        let two_class = PrototypeConfig { n_classes: 2, ..proto.clone() };
        let served =
            ServedModel { model: CnnLstm::new(&two_class, 7), ..ServedModel::seeded(&proto, 7) };
        let detail = refusal(served);
        assert!(detail.contains("2 classes"), "{detail}");
    }

    #[test]
    fn serving_refuses_a_pair_built_for_other_heatmaps() {
        let (_, proto) = smoke();
        let mut other = proto.clone();
        other.capture.0.processing.n_range_bins = proto.heatmap_rows / 2;
        other.heatmap_rows = proto.heatmap_rows / 2;
        other.validate().expect("the other geometry is itself valid");
        let seeded = ServedModel::seeded(&proto, 7);
        let detail =
            refusal(ServedModel { model: CnnLstm::new(&other, 7), ..seeded.clone() });
        assert!(detail.contains("model"), "{detail}");
        let detail =
            refusal(ServedModel { detector: TriggerDetector::new(&other, 7), ..seeded });
        assert!(detail.contains("detector"), "{detail}");
    }
}
