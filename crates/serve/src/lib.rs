//! Streaming inference service for mmWave HAR: per-session ingress
//! rings, clip assembly, cross-session micro-batching, and seeded load
//! generation.
//!
//! The paper's threat model assumes mmWave human-activity recognition
//! deployed as a *live service*: a long-lived process ingesting radar
//! frame streams from many sensors and emitting activity labels (plus
//! backdoor-defense verdicts) in real time. This crate is that service
//! layer:
//!
//! - [`FrameRing`]: fixed-capacity per-session FIFO with a shed-oldest
//!   overflow policy — ingest never blocks and queues never grow.
//! - [`Service`]: caller-pumped control loop. `ingest` appends a frame;
//!   `pump` windows rings into `clip_len`-frame clips, coalesces ready
//!   clips across sessions into micro-batches, and runs
//!   DSP → CNN-LSTM → trigger detector on `exec`'s deterministic pool.
//!   The classifier + detector pair it serves is a [`ServedModel`]:
//!   [`Service::new`] serves a freshly seeded, untrained pair,
//!   [`Service::serving`] a given one (e.g. a backdoored victim).
//! - [`Accounting`]: the frame-conservation ledger. At any instant
//!   `ingested == inferred + shed + in_flight`; nothing is dropped
//!   silently.
//! - [`loadgen`]: seeded multi-session stream replay with jitter/burst
//!   arrival patterns, reporting sustained throughput and p50/p95/p99
//!   end-to-end latency as a checksummed `store` artifact.
//! - [`chaos`]: a seeded transport-fault layer ([`StreamChaos`]) that
//!   corrupts, drops, duplicates, reorders, and stalls streams *before*
//!   they reach the service, plus the `serve-chaos` matrix proving the
//!   ledger balances and verdicts stay deterministic under every mix.
//!
//! Every stage emits `serve.*` telemetry (spans, `serve.queue_depth`,
//! `serve.shed_total`, `serve.latency_ms`), so the service is observable
//! from its first deploy; see `docs/serving.md`.
//!
//! # Environment
//!
//! | Variable | Effect |
//! |---|---|
//! | `MMWAVE_SERVE_CLIP_LEN` | Frames per clip (default 32; must match the model) |
//! | `MMWAVE_SERVE_RING_CAP` | Per-session ring capacity in frames (default 48) |
//! | `MMWAVE_SERVE_READY_CAP` | Ready-queue capacity in clips (default 256) |
//! | `MMWAVE_SERVE_BATCH_MAX` | Max clips per inference micro-batch (default 16) |
//! | `MMWAVE_SERVE_SESSION_TTL` | Pumps without a frame before a session is evicted (default 512; 0 disables) |
//! | `MMWAVE_SERVE_MAX_GAP` | Largest sequence gap repaired in place (default 2; 0 disables repair) |
//! | `MMWAVE_SERVE_BREAKER_THRESHOLD` | Consecutive failed clips that open the circuit breaker (default 8; 0 disables) |
//! | `MMWAVE_SERVE_BREAKER_COOLDOWN` | Pumps the breaker stays open before probing half-open (default 4) |
//!
//! Invalid values fall back to defaults, warn, and bump
//! `serve.config_invalid` — a fleet with a typoed environment shows up
//! in metrics, not just scrollback.

pub mod batcher;
pub mod breaker;
pub mod chaos;
pub mod loadgen;
pub mod ring;
pub mod service;
pub mod session;

pub use breaker::{Breaker, BreakerState};
pub use chaos::{ChaosCellReport, StreamChaos};
pub use loadgen::{is_poisoned, poisoned_sessions, run as run_loadgen, LoadgenConfig, LoadgenReport};
pub use ring::FrameRing;
pub use service::{Accounting, ReadyClip, ServedModel, Service, Verdict, VerdictStatus};
pub use session::{PendingFrame, SessionState};

use std::fmt;

/// Service-layer configuration. Build with [`ServeConfig::default`] or
/// [`ServeConfig::from_env`]; [`Service::new`] validates it against the
/// model's prototype config.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ServeConfig {
    /// Frames per inference clip (must equal the model's `n_frames`).
    pub clip_len: usize,
    /// Per-session ingress ring capacity, in frames. Must be at least
    /// `clip_len` or a clip could never assemble.
    pub ring_capacity: usize,
    /// Ready-queue capacity, in clips, across all sessions.
    pub ready_capacity: usize,
    /// Maximum clips coalesced into one inference micro-batch.
    pub max_batch: usize,
    /// Pumps a session may go without ingesting a frame before the
    /// staleness sweep evicts it (its partial ring is flushed as shed
    /// and the id may cleanly reconnect later). 0 disables eviction.
    #[serde(default = "default_session_ttl")]
    pub session_ttl: usize,
    /// Largest per-session sequence gap repaired in place: up to this
    /// many missing frames are filled with placeholder frames and
    /// interpolated at the heatmap stage
    /// (`mmwave_dsp::repair_dropped_frames`). Larger gaps flush the
    /// session's buffered run instead. 0 disables repair (every gap
    /// flushes).
    #[serde(default = "default_max_gap_repair")]
    pub max_gap_repair: usize,
    /// Consecutive failed clips (panic or non-finite output) that trip
    /// the inference circuit breaker open. 0 disables the breaker.
    #[serde(default = "default_breaker_threshold")]
    pub breaker_threshold: usize,
    /// Pumps the breaker stays open — shedding ready clips unseen —
    /// before letting one probe batch through half-open.
    #[serde(default = "default_breaker_cooldown")]
    pub breaker_cooldown: usize,
}

fn default_session_ttl() -> usize {
    512
}

fn default_max_gap_repair() -> usize {
    2
}

fn default_breaker_threshold() -> usize {
    8
}

fn default_breaker_cooldown() -> usize {
    4
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            clip_len: 32,
            ring_capacity: 48,
            ready_capacity: 256,
            max_batch: 16,
            session_ttl: default_session_ttl(),
            max_gap_repair: default_max_gap_repair(),
            breaker_threshold: default_breaker_threshold(),
            breaker_cooldown: default_breaker_cooldown(),
        }
    }
}

impl ServeConfig {
    /// Reads `MMWAVE_SERVE_*` overrides on top of the defaults. Invalid
    /// or zero values keep the default, warn, and bump
    /// `serve.config_invalid` (knobs where zero legitimately means
    /// "disabled" — TTL, gap repair, breaker threshold — accept it).
    pub fn from_env() -> ServeConfig {
        use mmwave_telemetry::knob::{parse_count, parse_positive};
        let knob = |var: &str, default: usize, parse: fn(&str) -> Option<usize>| {
            mmwave_telemetry::env_knob(var, "serve.config_invalid", default, parse)
        };
        let d = ServeConfig::default();
        ServeConfig {
            clip_len: knob("MMWAVE_SERVE_CLIP_LEN", d.clip_len, parse_positive),
            ring_capacity: knob("MMWAVE_SERVE_RING_CAP", d.ring_capacity, parse_positive),
            ready_capacity: knob("MMWAVE_SERVE_READY_CAP", d.ready_capacity, parse_positive),
            max_batch: knob("MMWAVE_SERVE_BATCH_MAX", d.max_batch, parse_positive),
            session_ttl: knob("MMWAVE_SERVE_SESSION_TTL", d.session_ttl, parse_count),
            max_gap_repair: knob("MMWAVE_SERVE_MAX_GAP", d.max_gap_repair, parse_count),
            breaker_threshold: knob(
                "MMWAVE_SERVE_BREAKER_THRESHOLD",
                d.breaker_threshold,
                parse_count,
            ),
            breaker_cooldown: knob(
                "MMWAVE_SERVE_BREAKER_COOLDOWN",
                d.breaker_cooldown,
                parse_positive,
            ),
        }
    }

    /// Rejects configurations that could never serve a clip.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.clip_len == 0 {
            return Err(ServeError::Config("clip_len must be positive".into()));
        }
        if self.ring_capacity < self.clip_len {
            return Err(ServeError::Config(format!(
                "ring_capacity {} is smaller than clip_len {}; no clip could ever assemble",
                self.ring_capacity, self.clip_len
            )));
        }
        if self.ready_capacity == 0 {
            return Err(ServeError::Config("ready_capacity must be positive".into()));
        }
        if self.max_batch == 0 {
            return Err(ServeError::Config("max_batch must be positive".into()));
        }
        if self.max_gap_repair >= self.clip_len {
            return Err(ServeError::Config(format!(
                "max_gap_repair {} must be smaller than clip_len {}; a clip of nothing but \
                 placeholder frames could never be repaired",
                self.max_gap_repair, self.clip_len
            )));
        }
        if self.breaker_threshold > 0 && self.breaker_cooldown == 0 {
            return Err(ServeError::Config(
                "breaker_cooldown must be positive when the breaker is enabled".into(),
            ));
        }
        Ok(())
    }
}

/// Typed service-layer failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A configuration value is impossible (zero capacity, clip/model
    /// shape mismatch, bad loadgen knob).
    Config(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(detail) => write!(f, "invalid serve config: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ServeError> for std::io::Error {
    fn from(e: ServeError) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(ServeConfig::default().validate().is_ok());
    }

    #[test]
    fn undersized_ring_is_rejected() {
        let cfg = ServeConfig { ring_capacity: 8, clip_len: 32, ..ServeConfig::default() };
        let err = cfg.validate().expect_err("ring smaller than clip must fail");
        assert!(err.to_string().contains("ring_capacity"));
    }

    #[test]
    fn zero_knobs_are_rejected() {
        for cfg in [
            ServeConfig { clip_len: 0, ..ServeConfig::default() },
            ServeConfig { ready_capacity: 0, ..ServeConfig::default() },
            ServeConfig { max_batch: 0, ..ServeConfig::default() },
        ] {
            assert!(cfg.validate().is_err());
        }
    }

    #[test]
    fn lifecycle_and_breaker_knobs_validate() {
        // Zero TTL / gap / threshold mean "disabled" and are valid.
        let cfg = ServeConfig {
            session_ttl: 0,
            max_gap_repair: 0,
            breaker_threshold: 0,
            ..ServeConfig::default()
        };
        assert!(cfg.validate().is_ok());
        // A gap window as large as the clip could yield an all-placeholder
        // clip with nothing to interpolate from.
        let cfg = ServeConfig { max_gap_repair: 32, clip_len: 32, ..ServeConfig::default() };
        assert!(cfg.validate().unwrap_err().to_string().contains("max_gap_repair"));
        // An enabled breaker with no cooldown could never half-open.
        let cfg =
            ServeConfig { breaker_threshold: 3, breaker_cooldown: 0, ..ServeConfig::default() };
        assert!(cfg.validate().unwrap_err().to_string().contains("breaker_cooldown"));
    }

    #[test]
    fn legacy_serialized_configs_gain_lifecycle_defaults() {
        // Configs persisted before the chaos-hardening PR lack the
        // lifecycle/breaker fields; they must deserialize with defaults.
        let legacy = r#"{
            "clip_len": 32, "ring_capacity": 48,
            "ready_capacity": 256, "max_batch": 16
        }"#;
        let cfg: ServeConfig = serde_json::from_str(legacy).expect("legacy config parses");
        assert_eq!(cfg.session_ttl, default_session_ttl());
        assert_eq!(cfg.max_gap_repair, default_max_gap_repair());
        assert_eq!(cfg.breaker_threshold, default_breaker_threshold());
        assert_eq!(cfg.breaker_cooldown, default_breaker_cooldown());
        assert!(cfg.validate().is_ok());
    }
}
