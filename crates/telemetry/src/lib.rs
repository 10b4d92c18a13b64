//! Zero-external-dependency telemetry for the mmWave attack pipeline:
//! hierarchical span timers, counters / gauges / log-linear histograms,
//! a leveled structured logger, and pluggable sinks.
//!
//! # Design
//!
//! Everything funnels through one process-wide [`registry::Registry`]:
//!
//! * **Spans** ([`span`], [`span_at`]) are RAII timers. They nest via a
//!   thread-local stack, so a span opened inside another records under the
//!   `/`-joined parent path (`"capture/drai/range_fft"`). Timings feed
//!   fixed-memory [`histogram::LogLinearHistogram`]s with `p50/p95/p99`
//!   accurate to ~1.6 % relative error.
//! * **Metrics** ([`counter`], [`gauge`], [`observe`]) accumulate in the
//!   registry and appear in [`snapshot`] and the end-of-run
//!   [`summary_table`].
//! * **Events** ([`log`], [`event`], and the [`error!`] / [`warn!`] /
//!   [`info!`] / [`debug!`] / [`trace!`] macros) stream to every installed
//!   [`Sink`] whose verbosity admits them: a human-readable stderr sink,
//!   a JSON-lines file ([`read_jsonl_events`] parses it back, tolerating a
//!   torn tail), and/or a Chrome/Perfetto [`TraceSink`] timeline.
//! * **Profiles** ([`profile`]) fold the flat span table into a merged
//!   call tree with inclusive/exclusive wall time; the end-of-run
//!   [`summary_table`] appends its top hotspots and [`snapshot`] carries
//!   the full tree under `"profile"`.
//!
//! # Configuration
//!
//! The registry self-configures from the environment on first use
//! ([`TelemetryConfig::from_env`]: `MMWAVE_TELEMETRY=off`,
//! `MMWAVE_LOG_LEVEL=<level>`, `MMWAVE_METRICS_OUT=<path>`,
//! `MMWAVE_TRACE_OUT=<path>`); a CLI overrides that with [`configure`].
//! Every other crate reads its `MMWAVE_*` knobs through [`env_knob`].
//! When disabled, every instrumentation call is one relaxed atomic load —
//! the pipeline's hot path pays well under 1 % overhead.
//!
//! # Examples
//!
//! ```
//! let _run = mmwave_telemetry::span_at("demo_stage", mmwave_telemetry::Level::Debug);
//! mmwave_telemetry::counter("demo.frames", 32);
//! mmwave_telemetry::observe("demo.loss", 0.71);
//! drop(_run);
//! let table = mmwave_telemetry::summary_table();
//! assert!(table.contains("demo_stage"));
//! ```

pub mod event;
pub mod fleet;
pub mod histogram;
pub mod knob;
pub mod profile;
pub mod registry;
pub mod sink;
pub mod span;
pub mod trace;

pub use event::{process_micros, thread_id, unix_millis, Event, EventKind, Level};
pub use fleet::{
    merge_metrics, merge_shards, merged_profile, robust_threshold, stitch_traces, FleetMetrics,
    GaugeSample, MetricsExport, WorkerShard, WorkerTrace,
};
pub use histogram::{HistogramExport, HistogramSnapshot, LogLinearHistogram};
pub use knob::env_knob;
pub use profile::{Profile, ProfileNode};
pub use registry::{configure, global, Registry, TelemetryConfig};
pub use sink::{read_jsonl_events, JsonlSink, Sink, StderrSink};
pub use span::{current_path, enter_context, span, span_at, ContextGuard, SpanGuard};
pub use trace::{read_trace_file, TraceSink};

/// Takes a lock whether or not an earlier holder panicked. Each update
/// under a telemetry lock is one map, histogram or line write that leaves
/// the data valid, and a panic in one recording thread must not silence
/// telemetry for the rest of the process.
fn unpoisoned<G>(result: std::sync::LockResult<G>) -> G {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The merged span call tree (inclusive / exclusive time, call counts,
/// quantiles) aggregated from everything recorded so far.
pub fn profile() -> Profile {
    registry::global().profile()
}

/// Adds `delta` to a named monotonically increasing counter.
pub fn counter(name: &str, delta: u64) {
    registry::global().counter_add(name, delta);
}

/// Sets a named gauge to its latest value.
pub fn gauge(name: &str, value: f64) {
    registry::global().gauge_set(name, value);
}

/// Records one sample into a named histogram.
pub fn observe(name: &str, value: f64) {
    registry::global().observe(name, value);
}

/// Emits a structured log event with a message. Prefer the [`error!`] /
/// [`warn!`] / [`info!`] / [`debug!`] / [`trace!`] macros, which capture
/// the module path and format lazily.
pub fn log(level: Level, target: &str, message: String) {
    let registry = registry::global();
    if !registry.would_emit(level) {
        return;
    }
    let mut fields = serde_json::Map::new();
    fields.insert("message".to_string(), serde_json::Value::String(message));
    registry.emit(level, EventKind::Log, target, fields);
}

/// Emits a structured event of any kind with arbitrary fields.
pub fn event(
    level: Level,
    kind: EventKind,
    name: &str,
    fields: serde_json::Map<String, serde_json::Value>,
) {
    registry::global().emit(level, kind, name, fields);
}

/// True when an event at `level` would reach at least one sink; use to
/// skip building expensive payloads.
pub fn enabled(level: Level) -> bool {
    registry::global().would_emit(level)
}

/// Full serializable snapshot of every counter, gauge, histogram, and span
/// aggregate recorded so far.
pub fn snapshot() -> serde_json::Value {
    registry::global().snapshot()
}

/// Renders the end-of-run stage-time table: per-span calls, total / mean /
/// p95 wall time, and throughput, followed by the counters.
pub fn summary_table() -> String {
    registry::global().summary_table()
}

/// Emits the end-of-run [`EventKind::Summary`] event carrying the full
/// [`snapshot`], flushes every sink, and returns the human-readable
/// [`summary_table`].
pub fn finish() -> String {
    let registry = registry::global();
    if registry.would_emit(Level::Info) {
        let mut fields = serde_json::Map::new();
        if let serde_json::Value::Object(snap) = registry.snapshot() {
            fields = snap;
        }
        registry.emit(Level::Info, EventKind::Summary, "run.summary", fields);
    }
    registry.flush();
    registry.summary_table()
}

/// Logs at [`Level::Error`] with `format!` syntax.
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => {
        if $crate::enabled($crate::Level::Error) {
            $crate::log($crate::Level::Error, module_path!(), format!($($arg)*));
        }
    };
}

/// Logs at [`Level::Warn`] with `format!` syntax.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        if $crate::enabled($crate::Level::Warn) {
            $crate::log($crate::Level::Warn, module_path!(), format!($($arg)*));
        }
    };
}

/// Logs at [`Level::Info`] with `format!` syntax.
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        if $crate::enabled($crate::Level::Info) {
            $crate::log($crate::Level::Info, module_path!(), format!($($arg)*));
        }
    };
}

/// Logs at [`Level::Debug`] with `format!` syntax.
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        if $crate::enabled($crate::Level::Debug) {
            $crate::log($crate::Level::Debug, module_path!(), format!($($arg)*));
        }
    };
}

/// Logs at [`Level::Trace`] with `format!` syntax.
#[macro_export]
macro_rules! trace {
    ($($arg:tt)*) => {
        if $crate::enabled($crate::Level::Trace) {
            $crate::log($crate::Level::Trace, module_path!(), format!($($arg)*));
        }
    };
}
