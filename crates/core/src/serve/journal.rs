//! The durable run journal: crash-safe serving for the daemon.
//!
//! A driven run is a pure function of `(instance, policy, config,
//! fault/executor outcomes, mutations)` — PR 8's daemon-vs-simulator
//! identity proves it. The journal therefore append-logs exactly the
//! nondeterministic inputs as the run consumes them, and recovery re-runs
//! the engine against the log:
//!
//! * a **header** record (kind 1, JSON) pins the journal format version
//!   ([`JOURNAL_VERSION`], now 3) and a configuration fingerprint
//!   (instance content, policy spec, engine mode, fault configuration,
//!   churn script, executor descriptor) so a recovery under different
//!   arguments fails loudly;
//! * one **frame** record (kind 2) per completed chronon carries the
//!   chronon (`u32`), the live-mutation drain high-water mark (`u64`) and
//!   the chronon's full JSONL event block, byte for byte the trace's —
//!   which subsumes every nondeterministic input: probe outcomes
//!   (`ProbeIssued`/`ProbeFailed` in attempt order), outage transitions
//!   (`ResourceDown`/`ResourceUp`), and applied mutations
//!   (`CeiRegistered`/`CeiCancelled`/`BudgetReconfigured` in drain order).
//!   The daemon's event hub appends frame `t` from the block it already
//!   encoded for the trace and its subscribers ([`JournalWriter::frame`]),
//!   when chronon `t + 1` starts (after the run, for the last chronon);
//! * **snapshot** records (kind 3) interleave periodically so the engine
//!   resumes `O(chronons since snapshot)` instead of replaying from
//!   chronon 0. Their payload is the compact binary encoding of an
//!   [`EngineSnapshot`] ([`EngineSnapshot::encode`]; the format is in the
//!   [`snapshot`](super::snapshot) module docs), built and encoded on the
//!   engine thread by [`JournalSink`] before the writer's lock is taken and
//!   stashed on the writer. [`JournalWriter::frame`] appends the stashed
//!   snapshot right after the frame it follows, so record order is decided
//!   here alone: the snapshot at boundary `t` follows the frame of chronon
//!   `t - 1`;
//! * **live-mutation** records (kind 4, JSON) are written *before* the
//!   registration API acknowledges a submission, so an acknowledged
//!   mutation survives a crash even if no frame drained it yet.
//!
//! Whether an append is fsynced is decided in one place for every record
//! kind: `FsyncPolicy::syncs`, under the run's [`FsyncPolicy`].
//!
//! Records ride the checksummed framing of [`webmon_streams::record`]: a
//! crash mid-append leaves a torn tail that the scanner detects (truncated
//! extent or checksum failure on the final record) and cleanly discards —
//! reported, never silently replayed. Before the recovered run continues
//! the journal, the discarded bytes are physically truncated
//! ([`JournalWriter::append_to`]) so the continuation never appends after
//! garbage. Damage strictly *before* the tail is a hard
//! [`JournalError::Corrupt`]: acknowledged history must not be guessed
//! around.
//!
//! Recovery ([`scan_journal`] → [`Recovery::plan`]) restores the latest
//! snapshot, replays the frames after it through [`JournalExecutor`] /
//! [`JournalMutations`] (the engine re-executes and re-emits those chronons
//! byte-identically), re-injects acknowledged-but-undrained live mutations,
//! and hands the run over to the real executor at the first unjournaled
//! chronon. `tests/tests/recovery.rs` pins the end-to-end contract: a
//! daemon SIGKILLed at any chronon and recovered produces a final trace,
//! schedule, and `RunMetrics` byte-identical to an uninterrupted run.
//!
//! [`webmon_streams::record`]: ../../../webmon_streams/record/index.html

use super::driver::LiveMutationQueue;
use super::executor::ProbeExecutor;
use super::snapshot::{EngineSnapshot, SnapshotMismatch, SnapshotSink};
use crate::engine::{Mutation, MutationSource};
use crate::model::{CeiId, Chronon, ResourceId};
use crate::obs::{replay_events, Event};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use webmon_streams::record::{parse_record, write_record, RecordError};

/// Journal format version; bumped on any incompatible record change.
/// Version 2 dropped the selection-step count from `CandidateSet` frame
/// lines; version 3 stores snapshots in the binary encoding of
/// [`EngineSnapshot::encode`] instead of JSON.
pub const JOURNAL_VERSION: u32 = 3;

/// The journal file name inside a `--journal-dir`.
pub const JOURNAL_FILE: &str = "run.journal";

const KIND_HEADER: u8 = 1;
const KIND_FRAME: u8 = 2;
const KIND_SNAPSHOT: u8 = 3;
const KIND_LIVE_MUTATION: u8 = 4;

/// When journal appends reach the disk platter, not just the page cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every chronon frame — at most one chronon of history
    /// is lost to a power failure; slowest.
    EveryChronon,
    /// `fsync` after every `N` frames — bounded loss window, amortized
    /// cost.
    EveryN(u32),
    /// Flush to the OS page cache only — a process crash (`kill -9`) loses
    /// nothing, a power failure may lose the cached suffix; fastest.
    Os,
}

/// What a journal append is, for [`FsyncPolicy::syncs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Append {
    Header,
    Frame,
    Snapshot,
    LiveMutation,
    /// The final flush after the run.
    Finish,
}

impl FsyncPolicy {
    /// Whether an append of `what` is fsynced before it returns — the one
    /// place durability is decided. `Os` never fsyncs; `EveryN(n)` fsyncs a
    /// frame once `n` frames are unsynced (`frames_since_sync` counts this
    /// one); every other append fsyncs under both non-`Os` policies.
    fn syncs(self, what: Append, frames_since_sync: u32) -> bool {
        match (self, what) {
            (FsyncPolicy::Os, _) => false,
            (FsyncPolicy::EveryN(n), Append::Frame) => frames_since_sync >= n,
            _ => true,
        }
    }
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsyncPolicy::EveryChronon => write!(f, "every-chronon"),
            FsyncPolicy::EveryN(n) => write!(f, "every-{n}"),
            FsyncPolicy::Os => write!(f, "os"),
        }
    }
}

impl std::str::FromStr for FsyncPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "every-chronon" => Ok(FsyncPolicy::EveryChronon),
            "os" => Ok(FsyncPolicy::Os),
            other => other
                .strip_prefix("every-")
                .and_then(|n| n.parse::<u32>().ok())
                .filter(|&n| n > 0)
                .map(FsyncPolicy::EveryN)
                .ok_or_else(|| format!("expected every-chronon, every-<n>, or os, got '{other}'")),
        }
    }
}

/// Where and how a daemon run journals itself.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Directory holding the journal file.
    pub dir: PathBuf,
    /// Durability policy for frame appends.
    pub fsync: FsyncPolicy,
    /// Snapshot cadence in chronons (`0` disables snapshots; recovery then
    /// replays from chronon 0).
    pub snapshot_every: u32,
}

impl JournalConfig {
    /// The journal file path inside [`dir`](Self::dir).
    pub fn path(&self) -> PathBuf {
        self.dir.join(JOURNAL_FILE)
    }
}

/// A structured journal failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// Filesystem-level failure, tagged with the journal path.
    Io {
        /// The journal file.
        path: String,
        /// Failure detail (including partial-write byte counts).
        detail: String,
    },
    /// Unrecoverable damage before the journal's tail.
    Corrupt {
        /// Byte offset of the damaged record.
        offset: usize,
        /// What was wrong.
        detail: String,
    },
    /// The journal was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the header.
        found: u32,
        /// Version this build writes.
        expected: u32,
    },
    /// The journal's configuration fingerprint disagrees with the serve
    /// arguments — recovering under a different instance, policy, or
    /// executor would not reproduce the run.
    FingerprintMismatch {
        /// Fingerprint found in the header.
        found: String,
        /// Fingerprint derived from the current arguments.
        expected: String,
    },
    /// The file has no (valid) header record.
    MissingHeader,
    /// The snapshot recovery would restore does not fit the instance being
    /// served ([`EngineSnapshot::validate`]): the journal passed its
    /// checksums and fingerprint but describes another run's state.
    SnapshotMismatch {
        /// The snapshot's boundary chronon.
        at: Chronon,
        /// What disagrees.
        detail: String,
    },
    /// Replay consumed the journal differently than the recording — the
    /// engine attempted more (or fewer) probes in a replayed chronon than
    /// the frame recorded. The journal describes a different run; the
    /// recovery's output must be discarded.
    ReplayDivergence {
        /// What diverged, and where.
        detail: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, detail } => write!(f, "journal {path}: {detail}"),
            JournalError::Corrupt { offset, detail } => {
                write!(f, "journal corrupt at byte {offset}: {detail}")
            }
            JournalError::VersionMismatch { found, expected } => write!(
                f,
                "journal version {found} is not the supported version {expected}"
            ),
            JournalError::FingerprintMismatch { found, expected } => write!(
                f,
                "journal fingerprint '{found}' does not match the serve configuration '{expected}'"
            ),
            JournalError::MissingHeader => write!(f, "journal has no valid header record"),
            JournalError::SnapshotMismatch { at, detail } => write!(
                f,
                "journal snapshot at chronon {at} does not fit the served instance: {detail}"
            ),
            JournalError::ReplayDivergence { detail } => {
                write!(f, "journal replay diverged from the recording: {detail}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<SnapshotMismatch> for JournalError {
    fn from(e: SnapshotMismatch) -> Self {
        JournalError::SnapshotMismatch {
            at: e.at,
            detail: e.detail,
        }
    }
}

impl From<RecordError> for JournalError {
    fn from(e: RecordError) -> Self {
        match e {
            RecordError::Io { path, detail } => JournalError::Io { path, detail },
            RecordError::Truncated { offset } => JournalError::Corrupt {
                offset,
                detail: "record truncated".into(),
            },
            RecordError::BadChecksum { offset } => JournalError::Corrupt {
                offset,
                detail: "checksum mismatch".into(),
            },
            RecordError::BadLength { offset } => JournalError::Corrupt {
                offset,
                detail: "impossible record length".into(),
            },
        }
    }
}

#[derive(Debug, Serialize, Deserialize)]
struct HeaderRecord {
    version: u32,
    fingerprint: String,
}

#[derive(Debug, Serialize, Deserialize)]
struct LiveRecord {
    seq: u64,
    mutation: Mutation,
}

/// The append side of the journal: one writer shared (behind a mutex) by
/// the daemon's event hub (frames), the snapshot sink, and the registration
/// API's journal-before-ack path.
///
/// Frame and snapshot appends record failures internally (the engine loop
/// must not panic mid-run; the daemon surfaces [`errors`](Self::errors) as
/// a JSON summary and exits nonzero). [`live_mutation`](Self::live_mutation)
/// returns its error instead — an un-journaled mutation must not be
/// acknowledged.
#[derive(Debug)]
pub struct JournalWriter {
    file: BufWriter<File>,
    path: PathBuf,
    fsync: FsyncPolicy,
    frames_since_sync: u32,
    errors: Vec<String>,
    /// Frames and snapshots at chronons `<= suppress_until` are already on
    /// disk (a recovery replaying them) and are skipped.
    suppress_until: Option<Chronon>,
    /// A boundary snapshot the sink encoded and stashed, with its
    /// boundary; [`frame`](Self::frame) appends it after the preceding
    /// chronon's frame.
    pending_snapshot: Option<(Chronon, Vec<u8>)>,
}

impl JournalWriter {
    /// Creates a fresh journal at `path` (truncating any previous file) and
    /// writes the header record.
    pub fn create(
        path: &Path,
        fsync: FsyncPolicy,
        fingerprint: &str,
    ) -> Result<Self, JournalError> {
        // A fresh journal creates its own directory; only recovery
        // (`append_to`) requires one to already exist.
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| JournalError::Io {
                path: dir.display().to_string(),
                detail: e.to_string(),
            })?;
        }
        let file = File::create(path).map_err(|e| JournalError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        })?;
        let mut w = JournalWriter {
            file: BufWriter::new(file),
            path: path.to_path_buf(),
            fsync,
            frames_since_sync: 0,
            errors: Vec::new(),
            suppress_until: None,
            pending_snapshot: None,
        };
        let header = serde_json::to_string(&HeaderRecord {
            version: JOURNAL_VERSION,
            fingerprint: fingerprint.to_string(),
        })
        .map_err(|e| JournalError::Io {
            path: path.display().to_string(),
            detail: format!("header serialization: {e}"),
        })?;
        write_record(&mut w.file, KIND_HEADER, header.as_bytes(), &w.path)?;
        w.sync(Append::Header)?;
        Ok(w)
    }

    /// Reopens an existing journal for append — recovery's continuation
    /// path. The file is first truncated to `valid_len` (the scan's
    /// [`JournalScan::valid_len`]) so a discarded torn tail is physically
    /// removed before anything is appended after it: continuing past the
    /// garbage would make the next scan fail hard (valid records after
    /// damage) or mistake the appended suffix for a larger tear. Frames
    /// and snapshots at chronons `<= suppress_until` are skipped (the
    /// recovered engine re-emits them, but they are already on disk).
    pub fn append_to(
        path: &Path,
        fsync: FsyncPolicy,
        suppress_until: Option<Chronon>,
        valid_len: u64,
    ) -> Result<Self, JournalError> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| JournalError::Io {
                path: path.display().to_string(),
                detail: e.to_string(),
            })?;
        file.set_len(valid_len).map_err(|e| JournalError::Io {
            path: path.display().to_string(),
            detail: format!("truncating torn tail to {valid_len} bytes: {e}"),
        })?;
        Ok(JournalWriter {
            file: BufWriter::new(file),
            path: path.to_path_buf(),
            fsync,
            frames_since_sync: 0,
            errors: Vec::new(),
            suppress_until,
            pending_snapshot: None,
        })
    }

    /// Flushes to the OS, then fsyncs if the policy says `what` must be
    /// durable.
    fn sync(&mut self, what: Append) -> Result<(), JournalError> {
        self.file.flush().map_err(|e| JournalError::Io {
            path: self.path.display().to_string(),
            detail: e.to_string(),
        })?;
        if self.fsync.syncs(what, self.frames_since_sync) {
            self.frames_since_sync = 0;
            self.file
                .get_ref()
                .sync_data()
                .map_err(|e| JournalError::Io {
                    path: self.path.display().to_string(),
                    detail: format!("fsync: {e}"),
                })?;
        }
        Ok(())
    }

    /// Whether records at chronon `t` are already on disk (see
    /// [`append_to`](Self::append_to)).
    fn suppressed(&self, t: Chronon) -> bool {
        self.suppress_until.is_some_and(|u| t <= u)
    }

    fn record_err(&mut self, e: JournalError) {
        self.errors.push(e.to_string());
    }

    /// Appends a chronon frame — the chronon, the live-mutation drain
    /// high-water mark, and the chronon's JSONL event block — followed by
    /// the snapshot [`JournalSink`] stashed for the next boundary, if any.
    /// Call it once per chronon, in order, before the next chronon's work.
    /// Failures are recorded, not returned.
    pub fn frame(&mut self, t: Chronon, drained_seq: u64, lines: &str) {
        if !self.suppressed(t) {
            let mut payload = Vec::with_capacity(12 + lines.len());
            payload.extend_from_slice(&t.to_le_bytes());
            payload.extend_from_slice(&drained_seq.to_le_bytes());
            payload.extend_from_slice(lines.as_bytes());
            self.frames_since_sync += 1;
            if let Err(e) = write_record(&mut self.file, KIND_FRAME, &payload, &self.path)
                .map_err(JournalError::from)
                .and_then(|()| self.sync(Append::Frame))
            {
                self.record_err(e);
            }
        }
        if let Some((at, encoded)) = self.pending_snapshot.take() {
            self.write_snapshot(at, &encoded);
        }
    }

    /// Appends an engine snapshot. Failures are recorded, not returned (a
    /// lost snapshot only lengthens the next recovery's replay).
    pub fn snapshot(&mut self, snap: &EngineSnapshot) {
        let mut encoded = Vec::new();
        snap.encode(&mut encoded);
        self.write_snapshot(snap.at, &encoded);
    }

    /// Appends the snapshot at boundary `at`, already encoded.
    fn write_snapshot(&mut self, at: Chronon, encoded: &[u8]) {
        if self.suppressed(at) {
            return;
        }
        if let Err(e) = write_record(&mut self.file, KIND_SNAPSHOT, encoded, &self.path)
            .map_err(JournalError::from)
            .and_then(|()| self.sync(Append::Snapshot))
        {
            self.record_err(e);
        }
    }

    /// Durably appends an accepted live mutation *before* it is
    /// acknowledged. Unlike frames, the error is returned: the caller must
    /// reject the submission if it cannot be journaled.
    pub fn live_mutation(&mut self, seq: u64, mutation: Mutation) -> Result<(), JournalError> {
        let json =
            serde_json::to_string(&LiveRecord { seq, mutation }).map_err(|e| JournalError::Io {
                path: self.path.display().to_string(),
                detail: format!("mutation serialization: {e}"),
            })?;
        write_record(
            &mut self.file,
            KIND_LIVE_MUTATION,
            json.as_bytes(),
            &self.path,
        )?;
        self.sync(Append::LiveMutation)
    }

    /// Flushes and syncs the final suffix.
    pub fn finish(&mut self) {
        if let Err(e) = self.sync(Append::Finish) {
            self.record_err(e);
        }
    }

    /// Structured descriptions of every append failure so far.
    pub fn errors(&self) -> &[String] {
        &self.errors
    }
}

/// A shared handle to one [`JournalWriter`].
pub type SharedJournal = Arc<Mutex<JournalWriter>>;

/// The snapshot side of the journal: requests an [`EngineSnapshot`] every
/// `every` chronons, encodes it, and stashes the encoding on the shared
/// writer, whose next [`frame`](JournalWriter::frame) appends it in record
/// order.
#[derive(Debug)]
pub struct JournalSink {
    core: SharedJournal,
    every: u32,
    suppress_until: Option<Chronon>,
}

impl JournalSink {
    /// A sink snapshotting every `every` chronons (`0` disables);
    /// boundaries at or below `suppress_until` are already journaled and
    /// skipped.
    pub fn new(core: SharedJournal, every: u32, suppress_until: Option<Chronon>) -> Self {
        JournalSink {
            core,
            every,
            suppress_until,
        }
    }
}

impl SnapshotSink for JournalSink {
    fn wants(&mut self, t: Chronon) -> bool {
        // `is_multiple_of` / `is_none_or` need Rust 1.87/1.82; the
        // workspace MSRV is 1.75.
        #[allow(clippy::manual_is_multiple_of, clippy::nonminimal_bool)]
        let boundary = self.every > 0 && t > 0 && t % self.every == 0;
        let suppressed = self.suppress_until.is_some_and(|u| t <= u);
        boundary && !suppressed
    }
    fn accept(&mut self, snapshot: EngineSnapshot) {
        // Encode before taking the lock: live-mutation acks share it.
        let mut encoded = Vec::new();
        snapshot.encode(&mut encoded);
        self.core.lock().unwrap().pending_snapshot = Some((snapshot.at, encoded));
    }
}

/// One frame as scanned off disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScannedFrame {
    /// The chronon this frame covers.
    pub t: Chronon,
    /// Live-mutation drain high-water mark after this chronon's drain.
    pub drained_seq: u64,
    /// The chronon's JSONL event block, exactly as the trace carries it.
    pub lines: String,
    /// Byte offset of the frame record in the file.
    pub offset: usize,
    /// Byte offset one past the frame record — truncating the file here
    /// simulates a crash right after this chronon.
    pub end: usize,
}

/// Everything a valid journal contains, in file order.
#[derive(Debug, Clone)]
pub struct JournalScan {
    /// The header's configuration fingerprint.
    pub fingerprint: String,
    /// Chronon frames, contiguous from 0.
    pub frames: Vec<ScannedFrame>,
    /// Interleaved engine snapshots, in append order.
    pub snapshots: Vec<EngineSnapshot>,
    /// Journaled live mutations with their sequence numbers.
    pub live: Vec<(u64, Mutation)>,
    /// Report of a discarded torn tail (`None` for a clean file).
    pub torn_tail: Option<String>,
    /// Byte length of the valid prefix: the whole file for a clean
    /// journal, the torn record's start offset otherwise. A continuation
    /// writer must truncate here before appending
    /// ([`JournalWriter::append_to`]).
    pub valid_len: u64,
}

impl JournalScan {
    /// Fails with [`JournalError::FingerprintMismatch`] unless the journal
    /// was written under `expected`.
    pub fn verify_fingerprint(&self, expected: &str) -> Result<(), JournalError> {
        if self.fingerprint == expected {
            Ok(())
        } else {
            Err(JournalError::FingerprintMismatch {
                found: self.fingerprint.clone(),
                expected: expected.to_string(),
            })
        }
    }
}

/// Reads and validates a journal file.
///
/// A damaged **final** record — truncated extent or checksum failure, the
/// signature a crash mid-append leaves — is discarded and reported in
/// [`JournalScan::torn_tail`]; the scan still succeeds with everything
/// before it. Damage with valid data after it, an unknown record kind, or
/// non-contiguous frames are hard [`JournalError`]s.
pub fn scan_journal(path: &Path) -> Result<JournalScan, JournalError> {
    let buf = std::fs::read(path).map_err(|e| JournalError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    })?;
    let mut offset = 0usize;
    let mut header: Option<HeaderRecord> = None;
    let mut scan = JournalScan {
        fingerprint: String::new(),
        frames: Vec::new(),
        snapshots: Vec::new(),
        live: Vec::new(),
        torn_tail: None,
        valid_len: 0,
    };
    loop {
        let rec = match parse_record(&buf, offset) {
            Ok(None) => break,
            Ok(Some(rec)) => rec,
            Err(err) => {
                // A record whose extent reaches (or overruns) the end of
                // the file is the torn tail a crash leaves; anything with
                // valid bytes after it is real corruption.
                let tail = match err {
                    RecordError::Truncated { .. } => true,
                    RecordError::BadChecksum { .. } | RecordError::BadLength { .. } => {
                        let len = u32::from_le_bytes(buf[offset..offset + 4].try_into().unwrap())
                            as usize;
                        offset + 4 + len + 4 >= buf.len()
                    }
                    RecordError::Io { .. } => false,
                };
                if tail && header.is_some() {
                    scan.torn_tail = Some(format!(
                        "discarded torn tail at byte {offset} ({} of {} bytes): {err}",
                        buf.len() - offset,
                        buf.len(),
                    ));
                    break;
                }
                if header.is_none() {
                    return Err(JournalError::MissingHeader);
                }
                return Err(JournalError::from(err));
            }
        };
        let payload_str = || {
            std::str::from_utf8(rec.payload).map_err(|e| JournalError::Corrupt {
                offset: rec.offset,
                detail: format!("non-UTF-8 payload: {e}"),
            })
        };
        match rec.kind {
            KIND_HEADER => {
                if header.is_some() {
                    return Err(JournalError::Corrupt {
                        offset: rec.offset,
                        detail: "duplicate header record".into(),
                    });
                }
                let h: HeaderRecord =
                    serde_json::from_str(payload_str()?).map_err(|e| JournalError::Corrupt {
                        offset: rec.offset,
                        detail: format!("unreadable header: {e}"),
                    })?;
                if h.version != JOURNAL_VERSION {
                    return Err(JournalError::VersionMismatch {
                        found: h.version,
                        expected: JOURNAL_VERSION,
                    });
                }
                scan.fingerprint = h.fingerprint.clone();
                header = Some(h);
            }
            _ if header.is_none() => return Err(JournalError::MissingHeader),
            KIND_FRAME => {
                if rec.payload.len() < 12 {
                    return Err(JournalError::Corrupt {
                        offset: rec.offset,
                        detail: "frame payload shorter than its fixed fields".into(),
                    });
                }
                let t = Chronon::from_le_bytes(rec.payload[0..4].try_into().unwrap());
                let drained_seq = u64::from_le_bytes(rec.payload[4..12].try_into().unwrap());
                let expected = scan.frames.len() as Chronon;
                if t != expected {
                    return Err(JournalError::Corrupt {
                        offset: rec.offset,
                        detail: format!("frame for chronon {t} where {expected} was expected"),
                    });
                }
                let lines = std::str::from_utf8(&rec.payload[12..])
                    .map_err(|e| JournalError::Corrupt {
                        offset: rec.offset,
                        detail: format!("non-UTF-8 frame lines: {e}"),
                    })?
                    .to_string();
                scan.frames.push(ScannedFrame {
                    t,
                    drained_seq,
                    lines,
                    offset: rec.offset,
                    end: rec.end,
                });
            }
            KIND_SNAPSHOT => {
                let snap =
                    EngineSnapshot::decode(rec.payload).map_err(|e| JournalError::Corrupt {
                        offset: rec.offset,
                        detail: format!("unreadable snapshot: {e}"),
                    })?;
                scan.snapshots.push(snap);
            }
            KIND_LIVE_MUTATION => {
                let lr: LiveRecord =
                    serde_json::from_str(payload_str()?).map_err(|e| JournalError::Corrupt {
                        offset: rec.offset,
                        detail: format!("unreadable live mutation: {e}"),
                    })?;
                scan.live.push((lr.seq, lr.mutation));
            }
            other => {
                return Err(JournalError::Corrupt {
                    offset: rec.offset,
                    detail: format!("unknown record kind {other} (newer journal version?)"),
                })
            }
        }
        offset = rec.end;
    }
    // `offset` stopped at the end of the last valid record — the file's
    // length for a clean journal, the torn record's start otherwise.
    scan.valid_len = offset as u64;
    if header.is_none() {
        return Err(JournalError::MissingHeader);
    }
    Ok(scan)
}

/// One journaled chronon parsed into the engine's nondeterministic inputs.
#[derive(Debug, Clone)]
struct ReplayFrame {
    /// Probe outcomes in attempt order (`ProbeIssued` → success,
    /// `ProbeFailed` → failure).
    outcomes: Vec<bool>,
    /// Outage transitions in event order.
    downs: Vec<(u32, Option<Chronon>)>,
    /// Applied mutations in drain order.
    mutations: Vec<Mutation>,
}

/// A recovery plan distilled from a [`JournalScan`]: what to restore, what
/// to replay, what to re-inject, and where live execution resumes.
#[derive(Debug, Clone)]
pub struct Recovery {
    /// The snapshot to restore (`None`: resume from chronon 0).
    pub resume: Option<EngineSnapshot>,
    /// Last fully journaled chronon (`None`: no frames survived; the whole
    /// run re-executes live).
    pub replay_until: Option<Chronon>,
    /// Trace JSONL for chronons before the snapshot boundary — the prefix
    /// the resumed engine will not re-emit.
    pub prefix_lines: String,
    /// Number of event lines in [`prefix_lines`](Self::prefix_lines).
    pub prefix_events: u64,
    /// Acknowledged live mutations no frame drained, in sequence order.
    pub undrained: Vec<(u64, Mutation)>,
    /// Highest live-mutation sequence in the journal.
    pub last_seq: u64,
    /// The last frame's drain high-water mark.
    pub drained_seq: u64,
    /// Report of a discarded torn tail, forwarded from the scan.
    pub torn_tail: Option<String>,
    /// Valid-prefix byte length, forwarded from the scan — the length the
    /// continuation writer truncates the file to before appending.
    pub valid_len: u64,
    /// Parsed frames for the replayed range `resume_at..=replay_until`.
    frames: Vec<(Chronon, ReplayFrame)>,
}

impl Recovery {
    /// Distills `scan` into a recovery plan. Fails if a frame's event block
    /// does not parse back into events (journal bytes passed their
    /// checksum but are not a trace — real corruption).
    pub fn plan(scan: &JournalScan) -> Result<Self, JournalError> {
        // The latest snapshot wins; frames from its boundary on replay
        // through the engine, frames before it become the trace prefix.
        let resume = scan.snapshots.last().cloned();
        let resume_at = resume.as_ref().map_or(0, |s| s.at);
        let replay_until = scan.frames.last().map(|f| f.t);
        let drained_seq = scan.frames.last().map_or(0, |f| f.drained_seq);

        let mut prefix_lines = String::new();
        let mut prefix_events = 0u64;
        let mut frames = Vec::new();
        for f in &scan.frames {
            if f.t < resume_at {
                prefix_lines.push_str(&f.lines);
                prefix_events += f.lines.lines().count() as u64;
                continue;
            }
            let events = replay_events(&f.lines).map_err(|e| JournalError::Corrupt {
                offset: f.offset,
                detail: format!("frame {} line {}: {}", f.t, e.line, e.detail),
            })?;
            let mut rf = ReplayFrame {
                outcomes: Vec::new(),
                downs: Vec::new(),
                mutations: Vec::new(),
            };
            for e in events {
                match e {
                    Event::ProbeIssued { .. } => rf.outcomes.push(true),
                    Event::ProbeFailed { .. } => rf.outcomes.push(false),
                    Event::ResourceDown {
                        resource, until, ..
                    } => rf.downs.push((resource.0, Some(until))),
                    Event::ResourceUp { resource, .. } => rf.downs.push((resource.0, None)),
                    Event::CeiRegistered { cei, .. } => {
                        rf.mutations.push(Mutation::Register { cei });
                    }
                    Event::CeiCancelled { cei, .. } => {
                        rf.mutations.push(Mutation::Cancel { cei });
                    }
                    Event::BudgetReconfigured { budget, .. } => {
                        rf.mutations.push(Mutation::SetBudget { budget });
                    }
                    _ => {}
                }
            }
            frames.push((f.t, rf));
        }

        let mut undrained: Vec<(u64, Mutation)> = scan
            .live
            .iter()
            .filter(|&&(seq, _)| seq > drained_seq)
            .copied()
            .collect();
        undrained.sort_by_key(|&(seq, _)| seq);
        let last_seq = scan.live.iter().map(|&(seq, _)| seq).max().unwrap_or(0);

        Ok(Recovery {
            resume,
            replay_until,
            prefix_lines,
            prefix_events,
            undrained,
            last_seq,
            drained_seq,
            torn_tail: scan.torn_tail.clone(),
            valid_len: scan.valid_len,
            frames,
        })
    }

    /// The chronon the engine restarts at (the snapshot boundary, or 0).
    pub fn resume_at(&self) -> Chronon {
        self.resume.as_ref().map_or(0, |s| s.at)
    }

    /// The first chronon that executes live (everything before it replays
    /// from the journal).
    pub fn first_live_chronon(&self) -> Chronon {
        self.replay_until.map_or(0, |u| u + 1)
    }

    /// A live queue resuming this journal's sequence numbering, with every
    /// acknowledged-but-undrained mutation re-injected in sequence order.
    pub fn live_queue(&self) -> LiveMutationQueue {
        let queue = LiveMutationQueue::resumed(self.last_seq, self.drained_seq);
        for &(seq, m) in &self.undrained {
            queue.reinject(seq, m);
        }
        queue
    }

    /// Wraps `inner` so journaled chronons replay recorded probe outcomes
    /// and outage state; see [`JournalExecutor`].
    pub fn executor<E: ProbeExecutor>(
        &self,
        inner: E,
        n_resources: u32,
        sync_inner: bool,
    ) -> JournalExecutor<E> {
        let mut mirror = vec![None; n_resources as usize];
        if let Some(snap) = &self.resume {
            for (m, &a) in mirror.iter_mut().zip(&snap.announced) {
                *m = a;
            }
        }
        JournalExecutor {
            inner,
            sync_inner,
            frames: self
                .frames
                .iter()
                .map(|(t, f)| (*t, (f.outcomes.clone(), f.downs.clone())))
                .collect(),
            mirror,
            replay_until: self.replay_until,
            now: 0,
            staged: VecDeque::new(),
            diverged: Arc::new(Mutex::new(None)),
        }
    }

    /// Wraps `inner` so journaled chronons drain the recorded mutations;
    /// see [`JournalMutations`].
    pub fn mutations<M: MutationSource>(&self, inner: M) -> JournalMutations<M> {
        JournalMutations {
            inner,
            frames: self
                .frames
                .iter()
                .map(|(t, f)| (*t, f.mutations.clone()))
                .collect(),
            replay_until: self.replay_until,
        }
    }
}

/// A journaled chronon's executor-visible inputs: probe outcomes in
/// attempt order, and outage transitions as `(resource, Some(until))` for
/// a down edge or `(resource, None)` for an up edge, in event order.
type ExecutorFrame = (Vec<bool>, Vec<(u32, Option<Chronon>)>);

/// A [`ProbeExecutor`] that replays journaled chronons and delegates to the
/// wrapped executor from the first unjournaled chronon on.
///
/// During replay, probe outcomes come from the journal in attempt order and
/// outage state from a mirror of the journaled `ResourceDown`/`ResourceUp`
/// transitions (seeded from the restored snapshot's announced horizons).
/// With `sync_inner` (deterministic replay executors whose fault models
/// step per chronon or per probe — Gilbert-Elliott chains, rate limiters),
/// the wrapped executor is stepped through every replayed chronon and
/// attempt so its state is exact at the handover; a live network executor
/// sets `sync_inner = false` and is not touched during replay.
///
/// If the engine consumes a replayed chronon differently than the frame
/// recorded — more probes than outcomes, or staged outcomes left over —
/// the replay has **diverged**: the journal describes a different run
/// (the header fingerprint should have refused it, but the fingerprint is
/// a hash, not the inputs themselves). Divergence is recorded on the
/// shared [`divergence`](Self::divergence) cell — never a panic — and the
/// driver surfaces it as a failed recovery whose output is discarded;
/// probes past exhaustion report failure in the meantime.
#[derive(Debug)]
pub struct JournalExecutor<E> {
    inner: E,
    sync_inner: bool,
    frames: std::collections::BTreeMap<Chronon, ExecutorFrame>,
    mirror: Vec<Option<Chronon>>,
    replay_until: Option<Chronon>,
    now: Chronon,
    staged: VecDeque<bool>,
    diverged: Arc<Mutex<Option<String>>>,
}

impl<E> JournalExecutor<E> {
    fn replaying(&self, t: Chronon) -> bool {
        self.replay_until.is_some_and(|u| t <= u)
    }

    /// The shared divergence cell: `Some(detail)` once replay has consumed
    /// the journal differently than the recording. Clone the handle before
    /// handing the executor to the engine and check it after the run.
    pub fn divergence(&self) -> Arc<Mutex<Option<String>>> {
        Arc::clone(&self.diverged)
    }

    fn mark_diverged(&self, detail: String) {
        let mut cell = self.diverged.lock().unwrap();
        if cell.is_none() {
            *cell = Some(detail);
        }
    }
}

impl<E: ProbeExecutor> ProbeExecutor for JournalExecutor<E> {
    fn begin_chronon(&mut self, t: Chronon) {
        if !self.staged.is_empty() {
            self.mark_diverged(format!(
                "{} recorded probe outcome(s) for chronon {} were never consumed",
                self.staged.len(),
                self.now,
            ));
        }
        self.now = t;
        if self.replaying(t) {
            if self.sync_inner {
                self.inner.begin_chronon(t);
            }
            self.staged.clear();
            if let Some((outcomes, downs)) = self.frames.get(&t) {
                self.staged.extend(outcomes.iter().copied());
                for &(r, until) in downs {
                    self.mirror[r as usize] = until;
                }
            }
        } else {
            self.inner.begin_chronon(t);
        }
    }

    fn down_until(&self, resource: ResourceId) -> Option<Chronon> {
        if self.replaying(self.now) {
            self.mirror[resource.index()]
        } else {
            self.inner.down_until(resource)
        }
    }

    fn probe(&mut self, t: Chronon, resource: ResourceId, attempt: u32) -> bool {
        if self.replaying(t) {
            if self.sync_inner {
                let _ = self.inner.probe(t, resource, attempt);
            }
            self.staged.pop_front().unwrap_or_else(|| {
                self.mark_diverged(format!(
                    "frame {t} exhausted mid-chronon: the engine attempted more probes \
                     than the journal recorded (next: {resource:?} attempt {attempt})",
                ));
                false
            })
        } else {
            self.inner.probe(t, resource, attempt)
        }
    }

    fn fallible(&self) -> bool {
        self.inner.fallible()
    }

    fn descriptor(&self) -> String {
        self.inner.descriptor()
    }
}

/// A [`MutationSource`] that drains the journaled mutations for replayed
/// chronons and delegates to the wrapped source (the daemon's script +
/// live queue) from the first unjournaled chronon on. Release suppression
/// always delegates — it is a property of the recompiled churn script, not
/// of the journal.
#[derive(Debug)]
pub struct JournalMutations<M> {
    inner: M,
    frames: std::collections::BTreeMap<Chronon, Vec<Mutation>>,
    replay_until: Option<Chronon>,
}

impl<M: MutationSource> MutationSource for JournalMutations<M> {
    fn active(&self) -> bool {
        true
    }

    fn drain_at(&mut self, t: Chronon, out: &mut Vec<Mutation>) {
        if self.replay_until.is_some_and(|u| t <= u) {
            if let Some(ms) = self.frames.get(&t) {
                out.extend_from_slice(ms);
            }
        } else {
            self.inner.drain_at(t, out);
        }
    }

    fn suppresses_release(&self, cei: CeiId) -> bool {
        self.inner.suppresses_release(cei)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ResourceId;

    fn temp_journal(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "webmon-journal-{tag}-{}-{n}.journal",
            std::process::id()
        ))
    }

    fn jsonl(events: &[Event]) -> String {
        let mut lines = String::new();
        for event in events {
            event.write_jsonl(&mut lines);
        }
        lines
    }

    fn sample_lines(t: Chronon) -> String {
        jsonl(&[
            Event::ChrononStart { t, budget: 2 },
            Event::ChrononEnd {
                t,
                spent: 1,
                budget: 2,
            },
        ])
    }

    #[test]
    fn write_scan_roundtrip() {
        let path = temp_journal("roundtrip");
        let mut w = JournalWriter::create(&path, FsyncPolicy::Os, "fp=1").unwrap();
        w.frame(0, 0, &sample_lines(0));
        w.live_mutation(1, Mutation::SetBudget { budget: 7 })
            .unwrap();
        w.frame(1, 1, &sample_lines(1));
        w.finish();
        assert!(w.errors().is_empty(), "{:?}", w.errors());
        drop(w);

        let scan = scan_journal(&path).unwrap();
        assert_eq!(scan.fingerprint, "fp=1");
        assert_eq!(scan.frames.len(), 2);
        assert_eq!(scan.frames[1].drained_seq, 1);
        assert_eq!(scan.frames[0].lines, sample_lines(0));
        assert_eq!(scan.live, vec![(1, Mutation::SetBudget { budget: 7 })]);
        assert!(scan.torn_tail.is_none());
        scan.verify_fingerprint("fp=1").unwrap();
        assert!(matches!(
            scan.verify_fingerprint("fp=2"),
            Err(JournalError::FingerprintMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_discarded_and_reported() {
        let path = temp_journal("torn");
        let mut w = JournalWriter::create(&path, FsyncPolicy::EveryChronon, "fp").unwrap();
        w.frame(0, 0, &sample_lines(0));
        w.frame(1, 0, &sample_lines(1));
        w.finish();
        drop(w);
        let full = std::fs::read(&path).unwrap();
        let clean = scan_journal(&path).unwrap();
        let last = clean.frames.last().unwrap().clone();
        // Cut anywhere strictly inside the final record: frame 1 must be
        // discarded with a report, frame 0 must survive.
        for cut in last.offset + 1..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let scan = scan_journal(&path).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            assert_eq!(scan.frames.len(), 1, "cut at {cut}");
            assert!(scan.torn_tail.is_some(), "cut at {cut} not reported");
            assert_eq!(scan.valid_len, last.offset as u64, "cut at {cut}");
        }
        // Cutting exactly at the record boundary is a clean, shorter file.
        std::fs::write(&path, &full[..last.offset]).unwrap();
        let scan = scan_journal(&path).unwrap();
        assert_eq!(scan.frames.len(), 1);
        assert!(scan.torn_tail.is_none());
        assert_eq!(scan.valid_len, last.offset as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_after_torn_tail_truncates_the_garbage() {
        let path = temp_journal("truncate");
        let mut w = JournalWriter::create(&path, FsyncPolicy::Os, "fp").unwrap();
        w.frame(0, 0, &sample_lines(0));
        w.frame(1, 0, &sample_lines(1));
        w.finish();
        drop(w);
        let full = std::fs::read(&path).unwrap();
        let clean = scan_journal(&path).unwrap();
        assert_eq!(
            clean.valid_len,
            full.len() as u64,
            "clean file: whole length"
        );
        let last = clean.frames.last().unwrap().clone();

        // Tear the final record, then continue the journal exactly as a
        // recovery does: truncate to the valid prefix, re-append from the
        // first unjournaled chronon with the surviving prefix suppressed.
        std::fs::write(&path, &full[..last.end - 3]).unwrap();
        let torn = scan_journal(&path).unwrap();
        assert!(torn.torn_tail.is_some());
        assert_eq!(torn.valid_len, last.offset as u64);
        let mut w =
            JournalWriter::append_to(&path, FsyncPolicy::Os, Some(0), torn.valid_len).unwrap();
        w.frame(0, 0, &sample_lines(0)); // suppressed: already on disk
        w.frame(1, 0, &sample_lines(1));
        w.frame(2, 0, &sample_lines(2));
        w.finish();
        assert!(w.errors().is_empty(), "{:?}", w.errors());
        drop(w);

        // The continued journal is whole again: contiguous frames, no torn
        // bytes left behind the appended records, nothing discarded.
        let rescan = scan_journal(&path).unwrap();
        assert_eq!(rescan.frames.len(), 3);
        assert!(rescan.torn_tail.is_none(), "{:?}", rescan.torn_tail);
        assert_eq!(rescan.frames[1].offset as u64, torn.valid_len);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_divergence_is_reported_not_a_panic() {
        use crate::serve::executor::ReplayExecutor;

        let path = temp_journal("diverge");
        let mut w = JournalWriter::create(&path, FsyncPolicy::Os, "fp").unwrap();
        let issued = jsonl(&[Event::ProbeIssued {
            t: 0,
            resource: ResourceId(0),
            cost: 1,
            shared_eis: 1,
        }]);
        w.frame(0, 0, &issued);
        w.finish();
        drop(w);

        let rec = Recovery::plan(&scan_journal(&path).unwrap()).unwrap();
        let mut exec = rec.executor(ReplayExecutor::faultless(), 1, true);
        let divergence = exec.divergence();
        exec.begin_chronon(0);
        assert!(exec.probe(0, ResourceId(0), 0), "recorded outcome replays");
        assert!(divergence.lock().unwrap().is_none());
        // A second attempt has no recorded outcome: the divergence is
        // flagged on the shared cell and the probe reports failure — the
        // run ends with a structured error, never a panic.
        assert!(!exec.probe(0, ResourceId(0), 1));
        let detail = divergence
            .lock()
            .unwrap()
            .clone()
            .expect("divergence flagged");
        assert!(detail.contains("frame 0"), "{detail}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_file_corruption_is_a_hard_error() {
        let path = temp_journal("midfile");
        let mut w = JournalWriter::create(&path, FsyncPolicy::Os, "fp").unwrap();
        w.frame(0, 0, &sample_lines(0));
        w.frame(1, 0, &sample_lines(1));
        w.finish();
        drop(w);
        let clean = scan_journal(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte of frame 0 — valid data follows, so this is
        // not a discardable tail.
        bytes[clean.frames[0].offset + 6] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            scan_journal(&path),
            Err(JournalError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_mismatch_is_structured() {
        let path = temp_journal("version");
        // Version 2 journals hold JSON snapshots: refused, not misread.
        for found in [2, JOURNAL_VERSION + 1] {
            let header = serde_json::to_string(&HeaderRecord {
                version: found,
                fingerprint: "fp".into(),
            })
            .unwrap();
            let mut buf = Vec::new();
            write_record(&mut buf, KIND_HEADER, header.as_bytes(), &path).unwrap();
            std::fs::write(&path, &buf).unwrap();
            assert_eq!(
                scan_journal(&path).unwrap_err(),
                JournalError::VersionMismatch {
                    found,
                    expected: JOURNAL_VERSION,
                }
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// A one-CEI snapshot at boundary `at`.
    fn tiny_snapshot(at: Chronon) -> EngineSnapshot {
        use crate::model::{Epoch, Schedule};
        use crate::serve::snapshot::CeiState;
        use crate::stats::{CeiOutcome, RunStats};

        EngineSnapshot {
            at,
            status: vec![CeiState::Active {
                captured: vec![true, false],
                expired: vec![false, false],
            }],
            outcomes: vec![CeiOutcome::Pending],
            stats: RunStats::default(),
            schedule: Schedule::new(2, Epoch::new(4)),
            budget_override: None,
            pending_budget: Some(3),
            announced: vec![],
            consec_failures: vec![],
            next_attempt_at: vec![],
            index: vec![vec![(0, 1)], vec![]],
        }
    }

    /// The sink only stashes a snapshot; the next frame appends it right
    /// after itself, so record order is decided by the writer alone.
    #[test]
    fn stashed_snapshot_lands_right_after_the_next_frame() {
        let path = temp_journal("stash");
        let core: SharedJournal = Arc::new(Mutex::new(
            JournalWriter::create(&path, FsyncPolicy::Os, "fp").unwrap(),
        ));
        let mut sink = JournalSink::new(Arc::clone(&core), 1, None);
        assert!(sink.wants(1));
        let header_len = std::fs::metadata(&path).unwrap().len();
        sink.accept(tiny_snapshot(1));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), header_len);
        core.lock().unwrap().frame(0, 0, &sample_lines(0));
        core.lock().unwrap().frame(1, 0, &sample_lines(1));
        core.lock().unwrap().finish();
        let scan = scan_journal(&path).unwrap();
        assert_eq!(scan.snapshots, vec![tiny_snapshot(1)]);
        assert_eq!(scan.frames[0].offset as u64, header_len);
        let snapshot_record = scan.frames[1].offset - scan.frames[0].end;
        let mut encoded = Vec::new();
        tiny_snapshot(1).encode(&mut encoded);
        let mut record = Vec::new();
        write_record(&mut record, KIND_SNAPSHOT, &encoded, &path).unwrap();
        assert_eq!(
            snapshot_record,
            record.len(),
            "only the snapshot sits between"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_records_roundtrip_and_name_an_unreadable_field() {
        let snap = tiny_snapshot(1);
        let path = temp_journal("snapshot");
        let mut w = JournalWriter::create(&path, FsyncPolicy::Os, "fp").unwrap();
        w.frame(0, 0, &sample_lines(0));
        w.snapshot(&snap);
        w.frame(1, 0, &sample_lines(1));
        w.finish();
        assert!(w.errors().is_empty(), "{:?}", w.errors());
        drop(w);
        assert_eq!(scan_journal(&path).unwrap().snapshots, vec![snap.clone()]);

        // A checksum-valid snapshot record one byte short is corrupt even as
        // the final record (it is no torn tail), and the error names the
        // field that ran out.
        let mut w = JournalWriter::create(&path, FsyncPolicy::Os, "fp").unwrap();
        w.frame(0, 0, &sample_lines(0));
        let offset = std::fs::metadata(&path).unwrap().len() as usize;
        let mut encoded = Vec::new();
        snap.encode(&mut encoded);
        encoded.pop();
        write_record(&mut w.file, KIND_SNAPSHOT, &encoded, &path).unwrap();
        w.finish();
        drop(w);
        match scan_journal(&path).unwrap_err() {
            JournalError::Corrupt { offset: at, detail } => {
                assert_eq!(at, offset);
                assert!(detail.contains("snapshot field `index`"), "{detail}");
            }
            other => panic!("expected a corrupt snapshot, got {other}"),
        }
        std::fs::remove_file(&path).ok();
    }

    /// The README's `--fsync` table ("Durability & recovery"):
    /// `every-chronon` fsyncs every frame, `every-<n>` every n-th frame,
    /// `os` never; headers, snapshots, live-mutation acks and the final
    /// flush are fsynced except under `os`.
    #[test]
    fn fsync_decision_follows_the_documented_table() {
        use Append::*;
        for what in [Header, Frame, Snapshot, LiveMutation, Finish] {
            assert!(FsyncPolicy::EveryChronon.syncs(what, 1), "{what:?}");
            assert!(!FsyncPolicy::Os.syncs(what, u32::MAX), "{what:?}");
        }
        let every3 = FsyncPolicy::EveryN(3);
        let frames: Vec<bool> = (1..=4).map(|n| every3.syncs(Frame, n)).collect();
        assert_eq!(frames, [false, false, true, true]);
        for what in [Header, Snapshot, LiveMutation, Finish] {
            assert!(every3.syncs(what, 0), "{what:?}");
        }
    }

    #[test]
    fn empty_and_headerless_journals() {
        let path = temp_journal("empty");
        std::fs::write(&path, b"").unwrap();
        assert_eq!(
            scan_journal(&path).unwrap_err(),
            JournalError::MissingHeader
        );
        // A header-only journal is a valid, empty run.
        let w = JournalWriter::create(&path, FsyncPolicy::Os, "fp").unwrap();
        drop(w);
        let scan = scan_journal(&path).unwrap();
        assert!(scan.frames.is_empty() && scan.snapshots.is_empty());
        let rec = Recovery::plan(&scan).unwrap();
        assert_eq!(rec.replay_until, None);
        assert_eq!(rec.first_live_chronon(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fsync_policy_parses() {
        use std::str::FromStr;
        assert_eq!(
            FsyncPolicy::from_str("every-chronon").unwrap(),
            FsyncPolicy::EveryChronon
        );
        assert_eq!(FsyncPolicy::from_str("os").unwrap(), FsyncPolicy::Os);
        assert_eq!(
            FsyncPolicy::from_str("every-16").unwrap(),
            FsyncPolicy::EveryN(16)
        );
        assert!(FsyncPolicy::from_str("every-0").is_err());
        assert!(FsyncPolicy::from_str("sometimes").is_err());
        assert_eq!(FsyncPolicy::EveryN(16).to_string(), "every-16");
    }

    #[test]
    fn recovery_plan_extracts_inputs() {
        let path = temp_journal("plan");
        let mut w = JournalWriter::create(&path, FsyncPolicy::Os, "fp").unwrap();
        let lines = jsonl(&[
            Event::ResourceDown {
                t: 0,
                resource: ResourceId(1),
                until: 4,
            },
            Event::CeiRegistered {
                cei: CeiId(3),
                at: 0,
            },
            Event::ProbeFailed {
                t: 0,
                resource: ResourceId(1),
                cost: 1,
                attempt: 0,
                charged: true,
            },
            Event::ProbeIssued {
                t: 0,
                resource: ResourceId(2),
                cost: 1,
                shared_eis: 1,
            },
        ]);
        w.frame(0, 2, &lines);
        w.live_mutation(1, Mutation::Register { cei: CeiId(3) })
            .unwrap();
        w.live_mutation(2, Mutation::Cancel { cei: CeiId(0) })
            .unwrap();
        w.live_mutation(3, Mutation::SetBudget { budget: 5 })
            .unwrap();
        w.finish();
        drop(w);

        let rec = Recovery::plan(&scan_journal(&path).unwrap()).unwrap();
        assert_eq!(rec.replay_until, Some(0));
        assert_eq!(rec.first_live_chronon(), 1);
        assert_eq!(rec.drained_seq, 2);
        assert_eq!(rec.undrained, vec![(3, Mutation::SetBudget { budget: 5 })]);
        assert_eq!(rec.last_seq, 3);
        let (_, rf) = &rec.frames[0];
        assert_eq!(rf.outcomes, vec![false, true]);
        assert_eq!(rf.downs, vec![(1, Some(4))]);
        assert_eq!(rf.mutations, vec![Mutation::Register { cei: CeiId(3) }]);

        // The live queue resumes numbering and re-injects the undrained.
        let q = rec.live_queue();
        assert_eq!(q.pending(), 1);
        assert_eq!(q.drained_seq(), 2);
        assert_eq!(q.submit(Mutation::SetBudget { budget: 1 }), 4);
        std::fs::remove_file(&path).ok();
    }
}
