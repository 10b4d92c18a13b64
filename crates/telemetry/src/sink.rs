//! Pluggable event sinks: human-readable stderr and machine-readable
//! JSON-lines files.

use crate::event::{Event, Level};
use crate::unpoisoned;
use std::sync::Mutex;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — byte-compatible with the
/// framing in `mmwave-store`'s JSONL writer, so metrics files written here
/// are also readable by the store's torn-tail repair. `mmwave-store` owns
/// the general-purpose version of this; telemetry sits below it in the
/// crate graph and keeps a private copy.
fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        const POLY: u32 = 0xEDB8_8320;
        let mut table = [0u32; 256];
        let mut i = 0u32;
        while i < 256 {
            let mut crc = i;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
                bit += 1;
            }
            table[i as usize] = crc;
            i += 1;
        }
        table
    });
    let mut crc = u32::MAX;
    for &b in bytes {
        crc = (crc >> 8) ^ table[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Parses one metrics line, accepting both the CRC-framed form
/// (`<8-hex-crc><space><json>`) and legacy bare JSON lines.
fn parse_line(line: &str) -> Option<Event> {
    let bytes = line.as_bytes();
    if bytes.len() > 9 && bytes[8] == b' ' && line[..8].bytes().all(|b| b.is_ascii_hexdigit()) {
        if let Ok(crc) = u32::from_str_radix(&line[..8], 16) {
            let body = &line[9..];
            if crc == crc32(body.as_bytes()) {
                return serde_json::from_str::<Event>(body).ok();
            }
            // A framed line with a bad checksum is torn or corrupt, not
            // legacy: don't let the whole-line fallback mis-parse it.
            return None;
        }
    }
    serde_json::from_str::<Event>(line).ok()
}

/// Receives every event whose level passes the sink's verbosity. Sinks must
/// never panic or block the pipeline on failure: recording errors are
/// swallowed (telemetry is an observer, not a dependency).
pub trait Sink: Send + Sync {
    /// Most verbose level this sink accepts; events with `level <=
    /// verbosity()` are delivered.
    fn verbosity(&self) -> Level;

    /// Delivers one event.
    fn record(&self, event: &Event);

    /// Flushes any buffered output.
    fn flush(&self) {}
}

/// Human-readable sink writing to stderr.
#[derive(Debug, Clone, Copy)]
pub struct StderrSink {
    verbosity: Level,
}

impl StderrSink {
    /// Creates a stderr sink delivering events up to `verbosity`.
    pub fn new(verbosity: Level) -> StderrSink {
        StderrSink { verbosity }
    }
}

impl Sink for StderrSink {
    fn verbosity(&self) -> Level {
        self.verbosity
    }

    fn record(&self, event: &Event) {
        eprintln!("{}", event.format_human());
    }
}

/// Machine-readable sink appending one JSON object per line to a file,
/// each line prefixed with its CRC-32 in the same `<8-hex> <json>` frame
/// the `mmwave-store` journal writer uses (so metric streams get the same
/// torn-tail repair as journals). Every line is flushed as it is written,
/// so a killed process corrupts at most the trailing line — which
/// [`read_jsonl_events`] tolerates.
pub struct JsonlSink {
    verbosity: Level,
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (or truncates) the file at `path`, creating parent
    /// directories as needed. Accepts everything up to [`Level::Trace`].
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directories or the file.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<JsonlSink> {
        JsonlSink::with_verbosity(path, Level::Trace)
    }

    /// Like [`JsonlSink::create`] with an explicit verbosity cap.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directories or the file.
    pub fn with_verbosity<P: AsRef<Path>>(path: P, verbosity: Level) -> io::Result<JsonlSink> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = File::create(path)?;
        Ok(JsonlSink { verbosity, writer: Mutex::new(BufWriter::new(file)) })
    }
}

impl Sink for JsonlSink {
    fn verbosity(&self) -> Level {
        self.verbosity
    }

    fn record(&self, event: &Event) {
        let Ok(line) = serde_json::to_string(event) else {
            return;
        };
        let crc = crc32(line.as_bytes());
        let mut w = unpoisoned(self.writer.lock());
        let _ = writeln!(w, "{crc:08x} {line}");
        let _ = w.flush();
    }

    fn flush(&self) {
        let _ = unpoisoned(self.writer.lock()).flush();
    }
}

impl Drop for JsonlSink {
    /// Belt-and-braces: the registry flushes sinks on reconfiguration and
    /// `finish()`, but a sink dropped outside that lifecycle (tests,
    /// ad-hoc tooling) must still leave complete lines behind.
    fn drop(&mut self) {
        let _ = unpoisoned(self.writer.lock()).flush();
    }
}

/// Reads the events of a JSONL metrics file, tolerating a torn trailing
/// line (the signature of a process killed mid-write): replay stops at the
/// first unparseable line and returns the intact prefix. Both CRC-framed
/// lines (what [`JsonlSink`] writes) and legacy bare JSON lines parse, so
/// metrics files from older builds stay readable.
///
/// # Errors
///
/// Returns any I/O error from opening or reading the file.
pub fn read_jsonl_events<P: AsRef<Path>>(path: P) -> io::Result<Vec<Event>> {
    let reader = BufReader::new(File::open(path)?);
    let mut out = Vec::new();
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(&line) {
            Some(event) => out.push(event),
            None => break,
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mmwave_sink_{tag}_{}.jsonl", std::process::id()))
    }

    fn sample_event(name: &str) -> Event {
        let mut fields = serde_json::Map::new();
        fields.insert("value".to_string(), serde_json::Value::from(1.5));
        Event::now(Level::Info, EventKind::Metric, name, fields)
    }

    #[test]
    fn jsonl_sink_roundtrips_events() {
        let path = temp_path("roundtrip");
        let sink = JsonlSink::create(&path).unwrap();
        sink.record(&sample_event("a"));
        sink.record(&sample_event("b"));
        sink.flush();
        let events = read_jsonl_events(&path).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "a");
        assert_eq!(events[1].name, "b");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_trailing_line_is_tolerated() {
        let path = temp_path("torn");
        let sink = JsonlSink::create(&path).unwrap();
        for name in ["a", "b", "c"] {
            sink.record(&sample_event(name));
        }
        sink.flush();
        drop(sink);
        // Simulate a kill mid-append: chop the file mid-line.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 7);
        std::fs::write(&path, &bytes).unwrap();
        let events = read_jsonl_events(&path).unwrap();
        assert_eq!(events.len(), 2, "intact prefix must survive a torn tail");
        assert_eq!(events[1].name, "b");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn drop_without_explicit_flush_loses_nothing() {
        let path = temp_path("drop_flush");
        {
            let sink = JsonlSink::create(&path).unwrap();
            sink.record(&sample_event("a"));
            sink.record(&sample_event("b"));
            // No flush() call: Drop must drain the buffer.
        }
        let events = read_jsonl_events(&path).unwrap();
        assert_eq!(events.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn killed_writer_leaves_at_most_one_torn_line() {
        // Per-record flushing means an abrupt stop (simulated by chopping
        // the file at an arbitrary byte) can tear at most the final line;
        // everything before it parses.
        let path = temp_path("kill");
        let sink = JsonlSink::create(&path).unwrap();
        for i in 0..20 {
            sink.record(&sample_event(&format!("event_{i}")));
        }
        drop(sink);
        let bytes = std::fs::read(&path).unwrap();
        let cut = bytes.len() - 11; // mid-way through the last line
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let events = read_jsonl_events(&path).unwrap();
        assert_eq!(events.len(), 19, "only the torn tail line may be lost");
        assert_eq!(events.last().unwrap().name, "event_18");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crc32_matches_the_zlib_check_value() {
        // Same convention (and thus the same frames) as mmwave-store.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn written_lines_carry_a_valid_crc_frame() {
        let path = temp_path("framed");
        let sink = JsonlSink::create(&path).unwrap();
        sink.record(&sample_event("a"));
        drop(sink);
        let text = std::fs::read_to_string(&path).unwrap();
        let line = text.lines().next().unwrap();
        assert_eq!(line.as_bytes()[8], b' ');
        let crc = u32::from_str_radix(&line[..8], 16).unwrap();
        assert_eq!(crc, crc32(&line.as_bytes()[9..]));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn legacy_bare_json_lines_still_parse() {
        let path = temp_path("legacy");
        let framed_line = {
            let json = serde_json::to_string(&sample_event("framed")).unwrap();
            format!("{:08x} {json}", crc32(json.as_bytes()))
        };
        let legacy_line = serde_json::to_string(&sample_event("legacy")).unwrap();
        // A pre-framing file, plus one framed line mixed in (as a partial
        // rewrite by a newer build would leave behind).
        std::fs::write(&path, format!("{legacy_line}\n{framed_line}\n")).unwrap();
        let events = read_jsonl_events(&path).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "legacy");
        assert_eq!(events[1].name, "framed");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_crc_stops_the_replay() {
        let path = temp_path("badcrc");
        let sink = JsonlSink::create(&path).unwrap();
        for name in ["a", "b", "c"] {
            sink.record(&sample_event(name));
        }
        drop(sink);
        // Flip a payload byte of the middle line: its crc no longer
        // matches, and the reader must not fall back to bare-JSON parsing.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        lines[1] = lines[1].replace("\"b\"", "\"x\"");
        std::fs::write(&path, lines.join("\n")).unwrap();
        let events = read_jsonl_events(&path).unwrap();
        assert_eq!(events.len(), 1, "replay stops at the corrupt line");
        assert_eq!(events[0].name, "a");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn create_makes_parent_directories() {
        let dir = std::env::temp_dir()
            .join(format!("mmwave_sink_nested_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("deep/run_events.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        sink.record(&sample_event("x"));
        sink.flush();
        assert_eq!(read_jsonl_events(&path).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
