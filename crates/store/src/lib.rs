//! # mmwave-store — the durable artifact layer
//!
//! Every artifact the pipeline trusts across process lifetimes — campaign
//! journals and reports, trainer checkpoints, model JSON, loadgen reports —
//! goes through this crate instead of bare `fs::write`:
//!
//! * **Atomic writes** ([`write_atomic`], [`save_json_atomic`]): write to a
//!   sibling temp file, `fsync`, rename over the target, `fsync` the
//!   directory. A kill at any instant leaves either the old artifact or
//!   the new one — never a torn hybrid.
//! * **Checksummed envelopes** ([`save_json_atomic`], [`load_json`]):
//!   whole-file JSON artifacts carry a one-line header (magic, schema
//!   version, payload length, CRC-32, git sha) so load-time verification
//!   can tell *how* a file went bad: [`StoreError::Torn`] (truncated),
//!   [`StoreError::CorruptPayload`] (bit rot / tampering), or
//!   [`StoreError::VersionMismatch`] (a future writer). Pre-envelope bare
//!   JSON from earlier releases still loads, flagged
//!   [`Format::LegacyBare`].
//! * **CRC-per-line JSONL** ([`append_jsonl`], [`read_jsonl_repair`]): an
//!   append-only journal where each line is individually framed with its
//!   checksum; replay truncates to the last valid line (the kill-mid-append
//!   signature) and quarantines mid-file corruption.
//! * **Quarantine** ([`quarantine_file`]): a bad artifact is *moved* to
//!   `<path>.quarantine-<n>`, never deleted, so the evidence survives the
//!   recovery and the writer can regenerate into a clean path.
//! * **Last-K checkpoints** ([`CheckpointSet`]): numbered checkpoint files
//!   with automatic fallback — if the newest is torn or corrupt it is
//!   quarantined and the next-older one loads instead.
//! * **Atomic claims** ([`claim`]): `O_EXCL`-create claim files with
//!   mtime heartbeats and rename-based stale reclaim — the cross-process
//!   mutual exclusion under `mmwave worker` campaign DAGs.
//! * **Content-addressed keys** ([`content_key`]): FNV-1a keys over task
//!   specifications, the dedupe primitive for shared campaign prefixes.
//! * **Crash points** ([`crash_point`]): named kill sites at every
//!   artifact boundary, armed via `MMWAVE_CRASH_AT` and enumerated via
//!   `MMWAVE_CRASH_LOG`, which the `mmwave chaos` subcommand turns into a
//!   kill-and-resume test matrix.
//!
//! The durability layer itself must never panic on bad input:
//! `clippy::unwrap_used` is denied outside tests.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod atomic;
mod crash;
mod crc32;
mod envelope;
mod jsonl;
mod key;
mod quarantine;

pub mod checkpoint;
pub mod claim;

pub use atomic::write_atomic;
pub use checkpoint::{CheckpointSet, LoadedCheckpoint};
pub use claim::{
    acquire_claim, read_claim, read_claim_age, reclaim_stale, refresh_claim, release_claim,
    ClaimAttempt, ClaimInfo,
};
pub use crash::crash_point;
pub use crc32::crc32;
pub use envelope::{load_json, save_json_atomic, Format, Loaded, MAGIC_PREFIX, SCHEMA_VERSION};
pub use jsonl::{append_jsonl, read_jsonl_repair, JsonlReplay};
pub use key::{content_key, fnv1a64};
pub use quarantine::quarantine_file;

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Why a durable artifact failed to load, with the offending path and —
/// for the corruption cases — where the bad bytes were preserved.
#[derive(Debug)]
pub enum StoreError {
    /// The artifact does not exist.
    Missing {
        /// The path that was asked for.
        path: PathBuf,
    },
    /// The file is an incomplete write: empty, a header without its
    /// payload, or a payload shorter than the header promises. The
    /// signature of a kill mid-write through a non-atomic writer.
    Torn {
        /// The offending path.
        path: PathBuf,
        /// What exactly was truncated.
        detail: String,
        /// Where the bad file was moved, when quarantine succeeded.
        quarantined: Option<PathBuf>,
    },
    /// The file is complete but its payload fails the checksum (or is not
    /// JSON at all): bit rot, tampering, or a foreign file.
    CorruptPayload {
        /// The offending path.
        path: PathBuf,
        /// Checksum / parse mismatch details.
        detail: String,
        /// Where the bad file was moved, when quarantine succeeded.
        quarantined: Option<PathBuf>,
    },
    /// The envelope was written by an incompatible (newer) schema. The
    /// file is left in place untouched.
    VersionMismatch {
        /// The offending path.
        path: PathBuf,
        /// Version found in the file.
        found: u32,
        /// Version this build reads.
        supported: u32,
    },
    /// The payload passed its checksum but does not deserialize into the
    /// requested type — a schema drift between writer and reader, not
    /// on-disk damage. The file is left in place.
    Schema {
        /// The offending path.
        path: PathBuf,
        /// Deserialization error.
        detail: String,
    },
    /// An underlying I/O failure (permissions, disk full, ...).
    Io {
        /// The offending path.
        path: PathBuf,
        /// The OS error.
        source: io::Error,
    },
}

impl StoreError {
    /// The path the failure is about.
    pub fn path(&self) -> &Path {
        match self {
            StoreError::Missing { path }
            | StoreError::Torn { path, .. }
            | StoreError::CorruptPayload { path, .. }
            | StoreError::VersionMismatch { path, .. }
            | StoreError::Schema { path, .. }
            | StoreError::Io { path, .. } => path,
        }
    }

    /// Where the bad file was quarantined, if it was.
    pub fn quarantined(&self) -> Option<&Path> {
        match self {
            StoreError::Torn { quarantined, .. }
            | StoreError::CorruptPayload { quarantined, .. } => quarantined.as_deref(),
            _ => None,
        }
    }

    /// True for the failure modes a caller can recover from without human
    /// intervention: the bad file has been moved aside ([`Self::Torn`],
    /// [`Self::CorruptPayload`]), so the caller may regenerate the
    /// artifact in place (reports, traces) or fall back to an earlier
    /// one (checkpoints, journals).
    pub fn is_recoverable(&self) -> bool {
        matches!(self, StoreError::Torn { .. } | StoreError::CorruptPayload { .. })
    }

    /// Converts into an [`io::Error`] preserving the full message, for
    /// callers whose public APIs speak `io::Result`.
    pub fn into_io(self) -> io::Error {
        let kind = match &self {
            StoreError::Missing { .. } => io::ErrorKind::NotFound,
            StoreError::Io { source, .. } => source.kind(),
            _ => io::ErrorKind::InvalidData,
        };
        io::Error::new(kind, self.to_string())
    }

    pub(crate) fn io(path: &Path, source: io::Error) -> StoreError {
        if source.kind() == io::ErrorKind::NotFound {
            StoreError::Missing { path: path.to_path_buf() }
        } else {
            StoreError::Io { path: path.to_path_buf(), source }
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Missing { path } => {
                write!(f, "{}: artifact not found", path.display())
            }
            StoreError::Torn { path, detail, quarantined } => {
                write!(f, "{}: torn artifact ({detail})", path.display())?;
                if let Some(q) = quarantined {
                    write!(f, "; quarantined to {}", q.display())?;
                }
                Ok(())
            }
            StoreError::CorruptPayload { path, detail, quarantined } => {
                write!(f, "{}: corrupt payload ({detail})", path.display())?;
                if let Some(q) = quarantined {
                    write!(f, "; quarantined to {}", q.display())?;
                }
                Ok(())
            }
            StoreError::VersionMismatch { path, found, supported } => write!(
                f,
                "{}: envelope schema version {found} (this build reads {supported})",
                path.display()
            ),
            StoreError::Schema { path, detail } => {
                write!(f, "{}: payload does not match the expected schema: {detail}", path.display())
            }
            StoreError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<StoreError> for io::Error {
    fn from(e: StoreError) -> io::Error {
        e.into_io()
    }
}
