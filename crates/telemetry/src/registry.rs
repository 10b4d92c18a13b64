//! The thread-safe metrics registry and the process-wide global instance.

use crate::event::{unix_millis, Event, EventKind, Level};
use crate::fleet::{GaugeSample, MetricsExport};
use crate::histogram::{HistogramSnapshot, LogLinearHistogram};
use crate::profile::Profile;
use crate::sink::{JsonlSink, Sink, StderrSink};
use crate::trace::TraceSink;
use crate::unpoisoned;
use std::sync::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Sentinel for "no sinks installed": no event level passes.
const NO_SINKS: u8 = u8::MAX;

/// A thread-safe registry of counters, gauges, histograms, span timings,
/// and event sinks. One process-wide instance lives behind [`global`]; unit
/// tests can create private instances.
pub struct Registry {
    enabled: AtomicBool,
    /// Cached `max(sink.verbosity())` as a `u8`, or [`NO_SINKS`]; lets the
    /// hot path skip event construction with one atomic load.
    max_verbosity: AtomicU8,
    counters: Mutex<HashMap<String, u64>>,
    /// Gauge values paired with the unix-ms timestamp of their last set,
    /// so fleet merges can take latest-by-timestamp across workers.
    gauges: Mutex<HashMap<String, (f64, u64)>>,
    histograms: Mutex<HashMap<String, LogLinearHistogram>>,
    spans: Mutex<HashMap<String, LogLinearHistogram>>,
    /// `Arc` rather than `Box` so flushing can iterate a cloned list with
    /// the lock released — a sink's `flush` may itself emit telemetry
    /// (e.g. the trace sink reporting a failed write), which re-enters the
    /// registry and would deadlock against a held write lock.
    sinks: RwLock<Vec<Arc<dyn Sink>>>,
    start: Instant,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.is_enabled())
            .field("sinks", &unpoisoned(self.sinks.read()).len())
            .finish()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// Creates an enabled registry with no sinks.
    pub fn new() -> Registry {
        Registry {
            enabled: AtomicBool::new(true),
            max_verbosity: AtomicU8::new(NO_SINKS),
            counters: Mutex::new(HashMap::new()),
            gauges: Mutex::new(HashMap::new()),
            histograms: Mutex::new(HashMap::new()),
            spans: Mutex::new(HashMap::new()),
            sinks: RwLock::new(Vec::new()),
            start: Instant::now(),
        }
    }

    /// Whether recording is enabled at all. When disabled, every telemetry
    /// call is a single atomic load and an early return.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Enables or disables all recording.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Installs a sink.
    pub fn add_sink(&self, sink: Box<dyn Sink>) {
        let mut sinks = unpoisoned(self.sinks.write());
        sinks.push(Arc::from(sink));
        let max = sinks.iter().map(|s| s.verbosity() as u8).max().unwrap_or(NO_SINKS);
        self.max_verbosity.store(max, Ordering::Relaxed);
    }

    /// Removes every sink (metrics keep accumulating). The drained sinks
    /// are flushed *after* the write lock is released, so a flush that
    /// emits telemetry (a failed trace write, say) cannot deadlock.
    pub fn clear_sinks(&self) {
        let drained: Vec<Arc<dyn Sink>> = {
            let mut sinks = unpoisoned(self.sinks.write());
            self.max_verbosity.store(NO_SINKS, Ordering::Relaxed);
            std::mem::take(&mut *sinks)
        };
        for sink in &drained {
            sink.flush();
        }
    }

    /// Adds the sinks `config` asks for. A file sink that cannot be
    /// created is left out; the first such error is returned.
    fn install_sinks(&self, config: &TelemetryConfig) -> io::Result<()> {
        if let Some(level) = config.stderr_verbosity {
            self.add_sink(Box::new(StderrSink::new(level)));
        }
        let metrics = config.metrics_out.as_ref().map(|path| {
            JsonlSink::create(path).map(|sink| Box::new(sink) as Box<dyn Sink>)
        });
        let trace = config.trace_out.as_ref().map(|path| {
            TraceSink::create(path).map(|sink| Box::new(sink) as Box<dyn Sink>)
        });
        let mut result = Ok(());
        for sink in [metrics, trace].into_iter().flatten() {
            match sink {
                Ok(sink) => self.add_sink(sink),
                Err(e) => result = result.and(Err(e)),
            }
        }
        result
    }

    /// True when an event at `level` would reach at least one sink. Cheap:
    /// two atomic loads, no locks.
    pub fn would_emit(&self, level: Level) -> bool {
        if !self.is_enabled() {
            return false;
        }
        let max = self.max_verbosity.load(Ordering::Relaxed);
        max != NO_SINKS && (level as u8) <= max
    }

    /// Adds `delta` to the named counter. When a trace-verbosity sink is
    /// installed, the increment is also emitted as an
    /// [`EventKind::Counter`] event (the trace sink renders those as
    /// counter tracks); otherwise this stays a mutex-guarded add.
    pub fn counter_add(&self, name: &str, delta: u64) {
        if !self.is_enabled() {
            return;
        }
        let value = {
            let mut counters = unpoisoned(self.counters.lock());
            match counters.get_mut(name) {
                Some(v) => {
                    *v += delta;
                    *v
                }
                None => {
                    counters.insert(name.to_string(), delta);
                    delta
                }
            }
        };
        if self.would_emit(Level::Trace) {
            let mut fields = serde_json::Map::new();
            fields.insert("delta".to_string(), serde_json::Value::from(delta));
            fields.insert("value".to_string(), serde_json::Value::from(value));
            self.emit(Level::Trace, EventKind::Counter, name, fields);
        }
    }

    /// Sets the named gauge. Like [`Registry::counter_add`], trace-level
    /// sinks additionally receive an [`EventKind::Gauge`] event per update.
    pub fn gauge_set(&self, name: &str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        unpoisoned(self.gauges.lock()).insert(name.to_string(), (value, unix_millis()));
        if self.would_emit(Level::Trace) {
            let mut fields = serde_json::Map::new();
            fields.insert("value".to_string(), serde_json::Value::from(value));
            self.emit(Level::Trace, EventKind::Gauge, name, fields);
        }
    }

    /// Records one sample into the named histogram.
    pub fn observe(&self, name: &str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        let mut hists = unpoisoned(self.histograms.lock());
        match hists.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                let mut h = LogLinearHistogram::new();
                h.record(value);
                hists.insert(name.to_string(), h);
            }
        }
    }

    /// Records one completed span occurrence (seconds) under its full
    /// hierarchical path, e.g. `"capture/drai/range_fft"`.
    pub fn record_span(&self, path: &str, seconds: f64) {
        if !self.is_enabled() {
            return;
        }
        let mut spans = unpoisoned(self.spans.lock());
        match spans.get_mut(path) {
            Some(h) => h.record(seconds),
            None => {
                let mut h = LogLinearHistogram::new();
                h.record(seconds);
                spans.insert(path.to_string(), h);
            }
        }
    }

    /// Delivers an event to every sink whose verbosity admits it.
    pub fn emit(
        &self,
        level: Level,
        kind: EventKind,
        name: &str,
        fields: serde_json::Map<String, serde_json::Value>,
    ) {
        if !self.would_emit(level) {
            return;
        }
        let event = Event::now(level, kind, name, fields);
        for sink in unpoisoned(self.sinks.read()).iter() {
            if level <= sink.verbosity() {
                sink.record(&event);
            }
        }
    }

    /// Flushes every sink. The sink list is cloned and the lock released
    /// before any `flush` runs, so sinks are free to emit telemetry from
    /// their flush paths.
    pub fn flush(&self) {
        let sinks: Vec<Arc<dyn Sink>> = unpoisoned(self.sinks.read()).clone();
        for sink in &sinks {
            sink.flush();
        }
    }

    /// Counter value (0 when never incremented).
    pub fn counter_value(&self, name: &str) -> u64 {
        unpoisoned(self.counters.lock()).get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if ever set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        unpoisoned(self.gauges.lock()).get(name).map(|(v, _)| *v)
    }

    /// Full-fidelity export of every counter, gauge, histogram, and span
    /// for fleet shipping: unlike [`Registry::snapshot`], histograms
    /// travel in lossless bucket form so they can be merged exactly.
    pub fn export_metrics(&self) -> MetricsExport {
        MetricsExport {
            counters: unpoisoned(self.counters.lock())
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: unpoisoned(self.gauges.lock())
                .iter()
                .map(|(k, &(value, ts_ms))| (k.clone(), GaugeSample { value, ts_ms }))
                .collect(),
            histograms: unpoisoned(self.histograms.lock())
                .iter()
                .map(|(k, h)| (k.clone(), h.export()))
                .collect(),
            spans: unpoisoned(self.spans.lock())
                .iter()
                .map(|(k, h)| (k.clone(), h.export()))
                .collect(),
        }
    }

    /// Snapshot of one span path's timing histogram (seconds), if recorded.
    pub fn span_snapshot(&self, path: &str) -> Option<HistogramSnapshot> {
        unpoisoned(self.spans.lock()).get(path).map(LogLinearHistogram::snapshot)
    }

    /// Snapshot of one metric histogram, if recorded.
    pub fn histogram_snapshot(&self, name: &str) -> Option<HistogramSnapshot> {
        unpoisoned(self.histograms.lock()).get(name).map(LogLinearHistogram::snapshot)
    }

    /// All recorded span paths.
    pub fn span_paths(&self) -> Vec<String> {
        let mut paths: Vec<String> = unpoisoned(self.spans.lock()).keys().cloned().collect();
        paths.sort();
        paths
    }

    /// The merged span call tree: inclusive/exclusive wall time, call
    /// counts, and per-node quantiles, aggregated from every span path
    /// recorded so far. The tree *structure* is worker-count-stable (the
    /// `mmwave-exec` pool propagates span context onto its workers); only
    /// the times vary run to run.
    pub fn profile(&self) -> Profile {
        let spans: BTreeMap<String, HistogramSnapshot> = unpoisoned(self.spans.lock())
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect();
        Profile::from_spans(&spans)
    }

    /// Full serializable snapshot of everything the registry accumulated:
    /// counters, gauges, metric histograms, per-span timing aggregates,
    /// and the merged [`Registry::profile`] call tree.
    pub fn snapshot(&self) -> serde_json::Value {
        let counters: BTreeMap<String, u64> =
            unpoisoned(self.counters.lock()).iter().map(|(k, v)| (k.clone(), *v)).collect();
        let gauges: BTreeMap<String, f64> =
            unpoisoned(self.gauges.lock()).iter().map(|(k, &(v, _))| (k.clone(), v)).collect();
        let histograms: BTreeMap<String, HistogramSnapshot> = unpoisoned(self.histograms.lock())
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect();
        let spans: BTreeMap<String, serde_json::Value> = unpoisoned(self.spans.lock())
            .iter()
            .map(|(k, h)| {
                let s = h.snapshot();
                (
                    k.clone(),
                    serde_json::json!({
                        "calls": s.count,
                        "total_ms": 1e3 * s.sum,
                        "mean_ms": 1e3 * s.mean,
                        "p50_ms": 1e3 * s.p50,
                        "p95_ms": 1e3 * s.p95,
                        "p99_ms": 1e3 * s.p99,
                        "max_ms": 1e3 * s.max,
                    }),
                )
            })
            .collect();
        serde_json::json!({
            "uptime_ms": self.start.elapsed().as_millis() as u64,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "spans": spans,
            "profile": self.profile().to_json(),
        })
    }

    /// Renders the end-of-run stage-time table: one row per span path,
    /// sorted by total wall time, with call counts, quantiles, and
    /// throughput (`calls / total seconds` — frames/sec for per-frame
    /// spans). Counters are appended below the table.
    pub fn summary_table(&self) -> String {
        use std::fmt::Write as _;
        let mut rows: Vec<(String, HistogramSnapshot)> = unpoisoned(self.spans.lock())
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect();
        rows.sort_by(|a, b| b.1.sum.total_cmp(&a.1.sum));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>8} {:>11} {:>9} {:>9} {:>9}",
            "stage", "calls", "total(ms)", "mean(ms)", "p95(ms)", "rate(/s)"
        );
        if rows.is_empty() {
            let _ = writeln!(out, "(no spans recorded)");
        }
        for (path, s) in &rows {
            let rate = if s.sum > 0.0 { s.count as f64 / s.sum } else { 0.0 };
            let _ = writeln!(
                out,
                "{:<44} {:>8} {:>11.1} {:>9.3} {:>9.3} {:>9.1}",
                path,
                s.count,
                1e3 * s.sum,
                1e3 * s.mean,
                1e3 * s.p95,
                rate
            );
        }
        let counters: BTreeMap<String, u64> =
            unpoisoned(self.counters.lock()).iter().map(|(k, v)| (k.clone(), *v)).collect();
        if !counters.is_empty() {
            let _ = writeln!(out, "{:<44} {:>8}", "counter", "value");
            for (name, value) in &counters {
                let _ = writeln!(out, "{name:<44} {value:>8}");
            }
        }
        if !rows.is_empty() {
            out.push('\n');
            out.push_str(&self.profile().hotspot_table(12));
        }
        out
    }
}

/// How [`configure`] sets the global registry up.
#[derive(Debug, Clone, Default)]
pub struct TelemetryConfig {
    /// Disable all recording (the `<1 %` overhead path).
    pub disabled: bool,
    /// Verbosity of the human-readable stderr sink; `None` installs no
    /// stderr sink.
    pub stderr_verbosity: Option<Level>,
    /// Path of a JSON-lines metrics file; `None` installs no file sink.
    pub metrics_out: Option<PathBuf>,
    /// Path of a Chrome/Perfetto `trace.json` file; `None` installs no
    /// trace sink. Installing one raises the effective verbosity to
    /// trace, so every span occurrence is captured.
    pub trace_out: Option<PathBuf>,
}

impl TelemetryConfig {
    /// The configuration the environment asks for:
    ///
    /// * `MMWAVE_TELEMETRY=off|0|false` disables all recording (`on|1|true`
    ///   keeps it on);
    /// * `MMWAVE_LOG_LEVEL=<error|warn|info|debug|trace>` sets the stderr
    ///   sink's verbosity (default `default_level`);
    /// * `MMWAVE_METRICS_OUT=<path>` additionally streams every event to a
    ///   JSON-lines file;
    /// * `MMWAVE_TRACE_OUT=<path>` additionally records a Chrome/Perfetto
    ///   `trace.json` timeline.
    ///
    /// These knobs are read while the registry is being built, so a junk
    /// value warns on bare stderr and keeps the default instead of being
    /// counted.
    pub fn from_env(default_level: Level) -> TelemetryConfig {
        fn knob<T>(var: &str, parse: impl FnOnce(&str) -> Option<T>) -> Option<T> {
            crate::knob::read_knob(var, parse).unwrap_or_else(|raw| {
                eprintln!("mmwave: ignoring invalid {var}={raw:?}");
                None
            })
        }
        // Read once, so a junk value warns once even though both the
        // registry and a CLI build a config.
        static KNOBS: OnceLock<(Option<bool>, Option<Level>)> = OnceLock::new();
        let &(disabled, level) = KNOBS.get_or_init(|| {
            let level = knob("MMWAVE_LOG_LEVEL", |s| s.parse::<Level>().ok());
            (knob("MMWAVE_TELEMETRY", parse_disabled), level)
        });
        let path = |var: &str| {
            std::env::var(var).ok().filter(|p| !p.is_empty()).map(PathBuf::from)
        };
        TelemetryConfig {
            disabled: disabled.unwrap_or(false),
            stderr_verbosity: Some(level.unwrap_or(default_level)),
            metrics_out: path("MMWAVE_METRICS_OUT"),
            trace_out: path("MMWAVE_TRACE_OUT"),
        }
    }
}

/// Parses `MMWAVE_TELEMETRY`: whether recording is disabled.
fn parse_disabled(raw: &str) -> Option<bool> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "off" | "0" | "false" => Some(true),
        "on" | "1" | "true" => Some(false),
        _ => None,
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry. On first access it configures itself from
/// [`TelemetryConfig::from_env`] (stderr verbosity `warn` by default), so
/// instrumented libraries need no explicit setup. A sink file that cannot
/// be created is skipped.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(|| {
        let config = TelemetryConfig::from_env(Level::Warn);
        let registry = Registry::new();
        registry.set_enabled(!config.disabled);
        registry.install_sinks(&config).ok();
        registry
    })
}

/// Reconfigures the global registry's sinks and enablement (the CLI entry
/// point; wins over the environment-derived defaults).
///
/// # Errors
///
/// Returns any I/O error from creating the metrics file.
pub fn configure(config: &TelemetryConfig) -> io::Result<()> {
    let registry = global();
    registry.set_enabled(!config.disabled);
    registry.clear_sinks();
    registry.install_sinks(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = Registry::new();
        r.counter_add("frames", 3);
        r.counter_add("frames", 4);
        assert_eq!(r.counter_value("frames"), 7);
        assert_eq!(r.counter_value("missing"), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let r = Registry::new();
        r.gauge_set("lr", 0.1);
        r.gauge_set("lr", 0.05);
        assert_eq!(r.gauge_value("lr"), Some(0.05));
        assert_eq!(r.gauge_value("missing"), None);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::new();
        r.set_enabled(false);
        r.counter_add("frames", 1);
        r.gauge_set("lr", 1.0);
        r.observe("loss", 1.0);
        r.record_span("capture", 0.5);
        assert_eq!(r.counter_value("frames"), 0);
        assert_eq!(r.gauge_value("lr"), None);
        assert!(r.histogram_snapshot("loss").is_none());
        assert!(r.span_snapshot("capture").is_none());
        assert!(!r.would_emit(Level::Error));
    }

    #[test]
    fn would_emit_respects_sink_verbosity() {
        let r = Registry::new();
        assert!(!r.would_emit(Level::Error), "no sinks: nothing passes");
        r.add_sink(Box::new(StderrSink::new(Level::Info)));
        assert!(r.would_emit(Level::Warn));
        assert!(r.would_emit(Level::Info));
        assert!(!r.would_emit(Level::Debug));
        r.clear_sinks();
        assert!(!r.would_emit(Level::Error));
    }

    #[test]
    fn snapshot_contains_all_sections() {
        let r = Registry::new();
        r.counter_add("frames", 2);
        r.gauge_set("lr", 0.01);
        r.observe("loss", 0.7);
        r.record_span("capture", 0.25);
        let snap = r.snapshot();
        assert_eq!(snap["counters"]["frames"], 2);
        assert_eq!(snap["gauges"]["lr"], 0.01);
        assert_eq!(snap["histograms"]["loss"]["count"], 1);
        assert_eq!(snap["spans"]["capture"]["calls"], 1);
    }

    #[test]
    fn export_metrics_is_lossless() {
        let r = Registry::new();
        r.counter_add("frames", 2);
        r.gauge_set("lr", 0.01);
        r.observe("loss", 0.7);
        r.record_span("capture", 0.25);
        r.record_span("capture", 0.5);
        let export = r.export_metrics();
        assert_eq!(export.counters["frames"], 2);
        assert_eq!(export.gauges["lr"].value, 0.01);
        assert!(export.gauges["lr"].ts_ms > 0);
        assert_eq!(export.histograms["loss"].count, 1);
        let rebuilt = LogLinearHistogram::from_export(&export.spans["capture"]);
        assert_eq!(Some(rebuilt.snapshot()), r.span_snapshot("capture"));
    }

    #[test]
    fn summary_table_lists_spans_counters_and_hotspots() {
        let r = Registry::new();
        r.record_span("capture", 0.5);
        r.record_span("capture/drai", 0.1);
        r.counter_add("radar.frames", 12);
        let table = r.summary_table();
        assert!(table.contains("capture"));
        assert!(table.contains("capture/drai"));
        assert!(table.contains("radar.frames"));
        assert!(table.contains("rate(/s)"));
        assert!(table.contains("hotspot (exclusive time)"));
        assert!(table.contains("excl%"));
    }

    #[test]
    fn snapshot_contains_the_profile_tree() {
        let r = Registry::new();
        r.record_span("capture", 0.5);
        r.record_span("capture/drai", 0.1);
        let snap = r.snapshot();
        let profile = snap["profile"].as_array().expect("profile is an array of roots");
        assert_eq!(profile[0]["path"], "capture");
        assert_eq!(profile[0]["children"][0]["path"], "capture/drai");
        assert!(profile[0]["exclusive_ms"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn counters_and_gauges_emit_events_for_trace_sinks() {
        use crate::sink::read_jsonl_events;
        let r = Registry::new();
        let path = std::env::temp_dir()
            .join(format!("mmwave_registry_counter_events_{}.jsonl", std::process::id()));
        r.add_sink(Box::new(JsonlSink::create(&path).unwrap()));
        r.counter_add("frames", 2);
        r.counter_add("frames", 3);
        r.gauge_set("workers", 4.0);
        r.flush();
        let events = read_jsonl_events(&path).unwrap();
        let counters: Vec<_> =
            events.iter().filter(|e| e.kind == EventKind::Counter).collect();
        assert_eq!(counters.len(), 2);
        assert_eq!(counters[1].fields["delta"], 3);
        assert_eq!(counters[1].fields["value"], 5, "value is the post-increment total");
        let gauge = events.iter().find(|e| e.kind == EventKind::Gauge).expect("gauge event");
        assert_eq!(gauge.fields["value"], 4.0);
        std::fs::remove_file(&path).ok();
    }

    /// A sink whose `flush` re-enters the registry, as the trace sink does
    /// when reporting a failed write.
    struct EmittingSink(Arc<Registry>);

    impl Sink for EmittingSink {
        fn verbosity(&self) -> Level {
            Level::Trace
        }

        fn record(&self, _event: &Event) {}

        fn flush(&self) {
            self.0.emit(Level::Warn, EventKind::Log, "from-flush", serde_json::Map::new());
            self.0.counter_add("flush.reentry", 1);
        }
    }

    #[test]
    fn sinks_may_emit_telemetry_from_flush_without_deadlocking() {
        let r = Arc::new(Registry::new());
        r.add_sink(Box::new(EmittingSink(Arc::clone(&r))));
        // Under the old flush-under-lock scheme, `clear_sinks` held the
        // write lock across `flush`, so the re-entrant `emit` deadlocked.
        r.flush();
        r.clear_sinks();
        assert_eq!(r.counter_value("flush.reentry"), 2);
        assert!(!r.would_emit(Level::Error), "sinks really were drained");
    }

    #[test]
    fn counters_emit_nothing_without_a_trace_sink() {
        // A warn-verbosity sink must not trigger counter events (nor pay
        // for building them): would_emit(Trace) is false.
        let r = Registry::new();
        r.add_sink(Box::new(StderrSink::new(Level::Warn)));
        assert!(!r.would_emit(Level::Trace));
        r.counter_add("frames", 1);
        assert_eq!(r.counter_value("frames"), 1);
    }
}
