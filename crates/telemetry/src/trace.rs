//! Chrome/Perfetto trace export.
//!
//! [`TraceSink`] renders the telemetry event stream into the Chrome trace
//! JSON-array format, loadable by <https://ui.perfetto.dev> and
//! `chrome://tracing`:
//!
//! * [`crate::EventKind::Span`] events become `ph:"X"` *complete* events —
//!   the span close already carries its process-relative start (`start_us`),
//!   duration, and executing thread id, so no open/close pairing is needed
//!   and `mmwave-exec` worker tasks land on their own timeline rows;
//! * [`crate::EventKind::Counter`] / [`crate::EventKind::Gauge`] events
//!   become `ph:"C"` counter tracks;
//! * everything else (logs, faults, campaign points) becomes `ph:"i"`
//!   thread-scoped instant markers;
//! * the first event from each thread is preceded by a `ph:"M"`
//!   `thread_name` metadata record, so Perfetto labels `mmwave-exec-3`
//!   instead of a bare tid.
//!
//! Entries buffer in memory and the whole file is (re)written as one valid
//! JSON array on every [`Sink::flush`] — the registry flushes on
//! reconfiguration and at `finish()`, so a run that ends normally always
//! leaves a well-formed file, while a killed run leaves whatever the last
//! flush wrote (still a valid array). The rewrite goes through a sibling
//! temp file and an atomic rename, so even a kill *mid-flush* cannot tear
//! the trace; a flush that fails to write reports itself via `stderr`, a
//! `trace.write_failed` counter, and a warn-level event rather than
//! silently dropping the trace. A cap of [`TraceSink::MAX_EVENTS`] entries
//! bounds memory; overflow is counted and reported once.

use crate::event::{process_micros, thread_id, Event, EventKind, Level};
use crate::sink::Sink;
use crate::unpoisoned;
use std::sync::Mutex;
use std::collections::HashSet;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes concurrent flushes' temp files (the serialize step runs
/// under the state lock, but the write itself deliberately does not).
static FLUSH_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `bytes` to `path` via a same-directory temp file, fsync, and
/// rename, so readers only ever observe the old or the new trace in full.
/// (`mmwave-store` owns the general-purpose version of this; telemetry
/// sits below it in the crate graph and keeps a private copy.)
fn write_file_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("trace.json");
    let tmp = path.with_file_name(format!(
        "{name}.tmp-{}-{}",
        std::process::id(),
        FLUSH_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Buffers trace entries and writes them as a Chrome-trace JSON array.
pub struct TraceSink {
    path: PathBuf,
    state: Mutex<TraceState>,
}

struct TraceState {
    entries: Vec<serde_json::Value>,
    named_threads: HashSet<u64>,
    dropped: u64,
}

impl TraceSink {
    /// Hard cap on buffered entries (~hundreds of MB of JSON at the
    /// extreme); events past the cap are dropped and counted.
    pub const MAX_EVENTS: usize = 2_000_000;

    /// Creates the sink, truncating any existing file at `path` (parent
    /// directories are created as needed) so a crash before the first
    /// flush cannot leave a stale trace from an earlier run.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directories or the file.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<TraceSink> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        // Truncate eagerly; real content lands on flush.
        std::fs::write(&path, "[]")?;
        Ok(TraceSink {
            path,
            state: Mutex::new(TraceState {
                entries: Vec::new(),
                named_threads: HashSet::new(),
                dropped: 0,
            }),
        })
    }

    /// The output path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn push(state: &mut TraceState, entry: serde_json::Value) {
        if state.entries.len() >= TraceSink::MAX_EVENTS {
            state.dropped += 1;
            return;
        }
        state.entries.push(entry);
    }

    /// Ensures a `thread_name` metadata record precedes the first entry of
    /// each thread. Runs on the emitting thread, so the name is exact. It
    /// is stamped with the time the thread was first seen, so every trace
    /// entry carries `pid`, `tid`, `ts`, `name` and `ph`.
    fn name_thread(state: &mut TraceState, pid: u32, tid: u64) {
        if !state.named_threads.insert(tid) {
            return;
        }
        let current = std::thread::current();
        let name = current.name().unwrap_or("main").to_string();
        Self::push(
            state,
            serde_json::json!({
                "ph": "M",
                "name": "thread_name",
                "pid": pid,
                "tid": tid,
                "ts": process_micros(),
                "args": { "name": name },
            }),
        );
    }
}

impl Sink for TraceSink {
    fn verbosity(&self) -> Level {
        Level::Trace
    }

    fn record(&self, event: &Event) {
        let pid = std::process::id();
        let mut state = unpoisoned(self.state.lock());
        match event.kind {
            EventKind::Span => {
                // Emitted at span close; start/duration/tid ride in the
                // fields (see `crate::span`). Fall back to "now, zero
                // length, this thread" for hand-built events.
                let dur = event.fields.get("duration_us").and_then(|v| v.as_u64()).unwrap_or(0);
                let ts = event
                    .fields
                    .get("start_us")
                    .and_then(|v| v.as_u64())
                    .unwrap_or_else(process_micros);
                let tid =
                    event.fields.get("tid").and_then(|v| v.as_u64()).unwrap_or_else(thread_id);
                Self::name_thread(&mut state, pid, tid);
                Self::push(
                    &mut state,
                    serde_json::json!({
                        "ph": "X",
                        "name": event.name,
                        "cat": "span",
                        "pid": pid,
                        "tid": tid,
                        "ts": ts,
                        "dur": dur,
                    }),
                );
            }
            EventKind::Counter | EventKind::Gauge => {
                let Some(value) = event.fields.get("value") else {
                    return;
                };
                let tid = thread_id();
                Self::name_thread(&mut state, pid, tid);
                Self::push(
                    &mut state,
                    serde_json::json!({
                        "ph": "C",
                        "name": event.name,
                        "cat": "metric",
                        "pid": pid,
                        "tid": tid,
                        "ts": process_micros(),
                        "args": { "value": value },
                    }),
                );
            }
            EventKind::Summary => {
                // The end-of-run snapshot is huge and has a JSONL home;
                // keep traces lean.
            }
            _ => {
                let tid = thread_id();
                Self::name_thread(&mut state, pid, tid);
                Self::push(
                    &mut state,
                    serde_json::json!({
                        "ph": "i",
                        "name": event.name,
                        "cat": format!("{:?}", event.kind).to_lowercase(),
                        "pid": pid,
                        "tid": tid,
                        "ts": process_micros(),
                        "s": "t",
                        "args": event.fields,
                    }),
                );
            }
        }
    }

    fn flush(&self) {
        // Serialize under the state lock, then write with the lock released:
        // the failure path below emits telemetry, which must be able to
        // re-enter this sink's `record` without deadlocking.
        let (bytes, dropped) = {
            let state = unpoisoned(self.state.lock());
            let mut buf = Vec::with_capacity(2 + 64 * state.entries.len());
            buf.push(b'[');
            for (i, entry) in state.entries.iter().enumerate() {
                if i > 0 {
                    buf.extend_from_slice(b",\n");
                }
                // Infallible: `serde_json::Value` into a Vec cannot error.
                let _ = serde_json::to_writer(&mut buf, entry);
            }
            buf.push(b']');
            (buf, state.dropped)
        };
        if let Err(err) = write_file_atomic(&self.path, &bytes) {
            eprintln!("trace sink: failed to write {}: {err}", self.path.display());
            crate::counter("trace.write_failed", 1);
            crate::warn!("trace export to {} failed: {err}", self.path.display());
            return;
        }
        if dropped > 0 {
            eprintln!(
                "trace sink: dropped {dropped} events past the {}-event cap ({})",
                TraceSink::MAX_EVENTS,
                self.path.display()
            );
        }
    }
}

impl Drop for TraceSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Parses a trace file back into its entries — test/tooling helper; the
/// file must be a well-formed JSON array (i.e. written by [`Sink::flush`]).
///
/// # Errors
///
/// Returns an error when the file cannot be read or is not a JSON array.
pub fn read_trace_file<P: AsRef<Path>>(path: P) -> io::Result<Vec<serde_json::Value>> {
    let text = std::fs::read_to_string(path)?;
    let value: serde_json::Value = serde_json::from_str(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    match value {
        serde_json::Value::Array(entries) => Ok(entries),
        _ => Err(io::Error::new(io::ErrorKind::InvalidData, "trace file is not a JSON array")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mmwave_trace_{tag}_{}.json", std::process::id()))
    }

    fn span_event(name: &str, start_us: u64, dur_us: u64, tid: u64) -> Event {
        let mut fields = serde_json::Map::new();
        fields.insert("duration_us".to_string(), serde_json::Value::from(dur_us));
        fields.insert("start_us".to_string(), serde_json::Value::from(start_us));
        fields.insert("tid".to_string(), serde_json::Value::from(tid));
        Event::now(Level::Trace, EventKind::Span, name, fields)
    }

    #[test]
    fn spans_become_complete_events_with_thread_metadata() {
        let path = temp_path("complete");
        let sink = TraceSink::create(&path).unwrap();
        sink.record(&span_event("capture/synthesis", 100, 40, 3));
        sink.record(&span_event("capture", 90, 60, 3));
        sink.flush();
        let entries = read_trace_file(&path).unwrap();
        let metas: Vec<_> = entries.iter().filter(|e| e["ph"] == "M").collect();
        assert_eq!(metas.len(), 1, "one thread => one thread_name record");
        assert!(!metas[0]["ts"].is_null(), "metadata records carry `ts` too");
        let xs: Vec<_> = entries.iter().filter(|e| e["ph"] == "X").collect();
        assert_eq!(xs.len(), 2);
        assert_eq!(xs[0]["name"], "capture/synthesis");
        assert_eq!(xs[0]["ts"], 100);
        assert_eq!(xs[0]["dur"], 40);
        assert_eq!(xs[0]["tid"], 3);
        for e in &xs {
            for key in ["pid", "tid", "ts", "name"] {
                assert!(!e[key].is_null(), "complete events need `{key}`");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn counters_become_counter_tracks_and_logs_become_instants() {
        let path = temp_path("kinds");
        let sink = TraceSink::create(&path).unwrap();
        let mut fields = serde_json::Map::new();
        fields.insert("delta".to_string(), serde_json::Value::from(2u64));
        fields.insert("value".to_string(), serde_json::Value::from(6u64));
        sink.record(&Event::now(Level::Trace, EventKind::Counter, "radar.frames", fields));
        let mut fields = serde_json::Map::new();
        fields.insert("message".to_string(), serde_json::Value::from("hello"));
        sink.record(&Event::now(Level::Info, EventKind::Log, "cli", fields));
        sink.flush();
        let entries = read_trace_file(&path).unwrap();
        let counter = entries.iter().find(|e| e["ph"] == "C").expect("counter entry");
        assert_eq!(counter["name"], "radar.frames");
        assert_eq!(counter["args"]["value"], 6);
        let instant = entries.iter().find(|e| e["ph"] == "i").expect("instant entry");
        assert_eq!(instant["name"], "cli");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_is_a_valid_json_array_before_any_flush_and_after_drop() {
        let path = temp_path("valid");
        let sink = TraceSink::create(&path).unwrap();
        // Even before a flush the placeholder parses.
        assert!(read_trace_file(&path).unwrap().is_empty());
        sink.record(&span_event("s", 0, 1, 0));
        drop(sink); // Drop flushes.
        assert_eq!(read_trace_file(&path).unwrap().iter().filter(|e| e["ph"] == "X").count(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flush_leaves_no_temp_files_behind() {
        let dir = std::env::temp_dir().join(format!("mmwave_trace_tmp_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let sink = TraceSink::create(&path).unwrap();
        sink.record(&span_event("s", 0, 1, 0));
        sink.flush();
        sink.flush();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["trace.json".to_string()], "temp files must not linger: {names:?}");
        drop(sink);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flush_failure_is_counted_not_silent() {
        let dir = std::env::temp_dir().join(format!("mmwave_trace_fail_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let sink = TraceSink::create(&path).unwrap();
        sink.record(&span_event("s", 0, 1, 0));
        // Replace the parent directory with a plain file so the temp-file
        // create inside it must fail.
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::write(&dir, b"not a directory").unwrap();
        let before = crate::registry::global().counter_value("trace.write_failed");
        sink.flush();
        let after = crate::registry::global().counter_value("trace.write_failed");
        assert!(after > before, "a failed trace write must bump trace.write_failed");
        std::fs::remove_file(&dir).ok();
        // Dropping the sink flushes once more; with the path gone that is
        // another counted failure, not a panic.
        drop(sink);
    }
}
