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
//!   (`CeiRegistered`/`CeiCancelled`/`BudgetReconfigured` in drain order);
//! * **snapshot** records (kind 3) interleave periodically so the engine
//!   resumes `O(chronons since snapshot)` instead of replaying from
//!   chronon 0. Their payload is the compact binary encoding of an
//!   [`EngineSnapshot`] (the bytes of [`EngineSnapshot::encode`]; the
//!   format is in the [`snapshot`](super::snapshot) module docs). The
//!   snapshot at boundary `t` follows the frame of chronon `t - 1`;
//! * **live-mutation** records (kind 4, JSON) are written *before* the
//!   registration API acknowledges a submission, so an acknowledged
//!   mutation survives a crash even if no frame drained it yet.
//!
//! The engine thread never encodes, writes or fsyncs the journal. The
//! daemon's event hub hands each chronon's block to the journal's writer
//! thread ([`JournalThread`]) when the chronon ends — the block it already
//! encoded for the trace and its subscribers — and [`JournalSink`] hands
//! over a [`SnapshotImage`] at each snapshot boundary: the boundary state,
//! copied flat. Both go through one FIFO queue ([`JournalQueue`]), so the
//! writer appends them in the order the engine reached them. The writer
//! encodes the images, and appends and commits whatever is queued as one
//! batch under the journal lock; live-mutation acks take the same lock on
//! their client threads. A paced engine never waits for the writer: a
//! hand-off that does not fit the queue stops the journal (an unpaced
//! engine, with no chronon deadline to keep, waits for room instead).
//!
//! Whether an append is fsynced is decided in one place for every record
//! kind: `FsyncPolicy::syncs`, under the run's [`FsyncPolicy`]; a batch
//! is fsynced once if any of its records must be. The first append that
//! fails — a write, flush or fsync error — stops the journal at its last
//! complete record ([`JournalWriter`] has the details), so a full disk
//! never leaves a partial record with valid ones after it.
//!
//! **Loss window.** A `kill -9` loses the chronons still queued for the
//! writer — normally none, or the one just handed over — under every
//! policy, and nothing the writer already appended (the OS holds it).
//! Recovery re-executes them, as it re-executes the chronon the crash
//! interrupted.
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
//! snapshot, replays the frames after it through [`JournalFaults`] /
//! [`JournalMutations`] (the engine re-executes and re-emits those chronons
//! byte-identically), re-injects acknowledged-but-undrained live mutations,
//! and hands the run over to the daemon's fault model at the first
//! unjournaled chronon. A replayable model is first re-driven through every
//! journaled chronon ([`Recovery::faults`]), so a stateful one hands over
//! in the uninterrupted run's state. `tests/tests/recovery.rs` pins the
//! end-to-end contract: a daemon SIGKILLed at any chronon and recovered
//! produces a final trace, schedule, and `RunMetrics` byte-identical to an
//! uninterrupted run.
//!
//! [`webmon_streams::record`]: ../../../webmon_streams/record/index.html

use super::driver::LiveMutationQueue;
use super::snapshot::{EngineSnapshot, SnapshotImage, SnapshotMismatch, SnapshotSink};
use crate::engine::{Mutation, MutationSource};
use crate::fault::FaultModel;
use crate::model::{CeiId, Chronon, ResourceId};
use crate::obs::{replay_events, Event};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
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
///
/// Frames reach the file on the journal's writer thread, in batches: a
/// `kill -9` also loses the chronons still queued for it (normally none,
/// or the one just handed over), whatever the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` every batch of frames the writer appends — one fsync per
    /// chronon while the writer keeps up, and one for everything queued
    /// when it falls behind (group commit). A power failure loses at most
    /// the batch being written and what is still queued; slowest.
    EveryChronon,
    /// `fsync` once `N` frames are unsynced — bounded loss window,
    /// amortized cost.
    EveryN(u32),
    /// Flush to the OS page cache only — a process crash (`kill -9`) loses
    /// only what is still queued for the writer, a power failure also the
    /// cached suffix; fastest.
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
    /// An append failed and the journal stopped: the file was truncated to
    /// its last complete record, and nothing from chronon `at` on is
    /// journaled.
    Stopped {
        /// The first chronon whose frame the journal does not hold.
        at: Chronon,
        /// The failed append.
        cause: String,
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
            JournalError::Stopped { at, cause } => {
                write!(f, "journal stopped at chronon {at}: {cause}")
            }
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

/// The file operations the journal writer uses: a seam through which tests
/// script write, flush, fsync and truncation failures.
trait JournalFile: Write + Send + fmt::Debug {
    fn sync_data(&mut self) -> io::Result<()>;
    fn set_len(&mut self, len: u64) -> io::Result<()>;
}

impl JournalFile for File {
    fn sync_data(&mut self) -> io::Result<()> {
        File::sync_data(self)
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        File::set_len(self, len)
    }
}

/// Bytes a record adds to its payload: the length prefix, the kind byte
/// and the checksum.
const RECORD_OVERHEAD: u64 = 9;

/// The append side of the journal: one writer shared (behind a mutex) by
/// the daemon's journal writer thread ([`JournalThread`]: frames and
/// snapshots) and the registration API's journal-before-ack path.
///
/// Records are *written* into the file's buffer and then *committed*: one
/// flush, plus one fsync if a record written since the last commit must be
/// durable ([`FsyncPolicy`]). The public appends commit each record; the
/// writer thread commits a whole batch of frames and snapshots at once.
///
/// The journal **stops at its first failed append**. A write, flush or
/// fsync error truncates the file back to the end of the last committed
/// record — written, flushed, and synced where the policy syncs — and
/// nothing is appended after that: a partial record followed by valid ones
/// would make a scan refuse the journal as corrupt, or drop acknowledged
/// records as a torn tail. An fsync is never retried: after a failed one
/// the kernel may have dropped the dirty pages, so a retry that succeeds
/// would claim a durability the file does not have. Frame and snapshot
/// appends return nothing (the engine loop must not panic mid-run, and
/// runs on to its horizon), and once stopped they write nothing;
/// [`errors`](Self::errors) then names the chronon where the journal
/// stopped, which the daemon reports before exiting nonzero.
/// [`live_mutation`](Self::live_mutation) returns its error instead — an
/// un-journaled mutation must not be acknowledged.
#[derive(Debug)]
pub struct JournalWriter {
    /// `None` once the journal stopped.
    file: Option<BufWriter<Box<dyn JournalFile>>>,
    path: PathBuf,
    fsync: FsyncPolicy,
    frames_since_sync: u32,
    /// Byte length of the committed records: where a failed append
    /// truncates the file.
    end: u64,
    /// Bytes written since the last commit, and whether one of their
    /// records must be fsynced.
    written: u64,
    sync_due: bool,
    /// The chronon whose frame comes next among the committed records:
    /// where the journal stops if an append fails now.
    next_chronon: Chronon,
    /// [`next_chronon`](Self::next_chronon) once the written records
    /// commit.
    written_next: Chronon,
    /// Why and where the journal stopped.
    stopped: Option<JournalError>,
    /// Frames and snapshots at chronons `<= suppress_until` are already on
    /// disk (a recovery replaying them) and are skipped.
    suppress_until: Option<Chronon>,
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
        Self::start(Box::new(file), path, fsync, fingerprint)
    }

    /// A fresh journal on the empty `file`, its header record written.
    fn start(
        file: Box<dyn JournalFile>,
        path: &Path,
        fsync: FsyncPolicy,
        fingerprint: &str,
    ) -> Result<Self, JournalError> {
        let header = serde_json::to_string(&HeaderRecord {
            version: JOURNAL_VERSION,
            fingerprint: fingerprint.to_string(),
        })
        .map_err(|e| JournalError::Io {
            path: path.display().to_string(),
            detail: format!("header serialization: {e}"),
        })?;
        let mut w = Self::over(file, path, fsync, None, 0);
        w.append(Append::Header, KIND_HEADER, &[header.as_bytes()])?;
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
        Ok(Self::over(
            Box::new(file),
            path,
            fsync,
            suppress_until,
            valid_len,
        ))
    }

    /// A writer appending to `file`, whose complete records end at `end`.
    fn over(
        file: Box<dyn JournalFile>,
        path: &Path,
        fsync: FsyncPolicy,
        suppress_until: Option<Chronon>,
        end: u64,
    ) -> Self {
        let next_chronon = suppress_until.map_or(0, |u| u + 1);
        JournalWriter {
            file: Some(BufWriter::new(file)),
            path: path.to_path_buf(),
            fsync,
            frames_since_sync: 0,
            end,
            written: 0,
            sync_due: false,
            next_chronon,
            written_next: next_chronon,
            stopped: None,
            suppress_until,
        }
    }

    /// The error of an append after the stop.
    fn stopped_error(&self) -> JournalError {
        self.stopped
            .clone()
            .expect("a journal without a file stopped")
    }

    /// Writes one record of `kind` with the payload `payload`'s pieces join
    /// to into the file's buffer; [`commit`](Self::commit) completes it. A
    /// failure stops the journal and returns [`JournalError::Stopped`]; so
    /// does every append after the stop.
    fn write(&mut self, what: Append, kind: u8, payload: &[&[u8]]) -> Result<(), JournalError> {
        let Some(file) = &mut self.file else {
            return Err(self.stopped_error());
        };
        if what == Append::Frame {
            self.frames_since_sync += 1;
        }
        self.sync_due |= self.fsync.syncs(what, self.frames_since_sync);
        match write_record(file, kind, payload, &self.path) {
            Ok(()) => {
                self.written +=
                    RECORD_OVERHEAD + payload.iter().map(|p| p.len() as u64).sum::<u64>();
                Ok(())
            }
            Err(e) => Err(self.stop(JournalError::from(e).to_string())),
        }
    }

    /// Completes the records written since the last commit: flushes them
    /// to the OS, then fsyncs once if one of them must be durable. A
    /// failure stops the journal at the last committed record.
    fn commit(&mut self) -> Result<(), JournalError> {
        let Some(file) = &mut self.file else {
            return Err(self.stopped_error());
        };
        let mut synced = file.flush().map_err(|e| format!("flush: {e}"));
        if synced.is_ok() && self.sync_due {
            self.frames_since_sync = 0;
            synced = file
                .get_mut()
                .sync_data()
                .map_err(|e| format!("fsync: {e}"));
        }
        match synced {
            Ok(()) => {
                self.end += std::mem::take(&mut self.written);
                self.sync_due = false;
                self.next_chronon = self.written_next;
                Ok(())
            }
            Err(detail) => Err(self.stop(
                JournalError::Io {
                    path: self.path.display().to_string(),
                    detail,
                }
                .to_string(),
            )),
        }
    }

    /// Writes one record and commits it.
    fn append(&mut self, what: Append, kind: u8, payload: &[&[u8]]) -> Result<(), JournalError> {
        self.write(what, kind, payload)?;
        self.commit()
    }

    /// Stops the journal for `cause`, unless it stopped already: the bytes
    /// written since the last commit are dropped, the file is truncated to
    /// the end of the last committed record, and nothing is appended
    /// again. Returns the [`JournalError::Stopped`] every later append
    /// gets.
    fn stop(&mut self, mut cause: String) -> JournalError {
        if let Some(file) = self.file.take() {
            let (mut file, _unwritten) = file.into_parts();
            if let Err(e) = file.set_len(self.end) {
                cause = format!(
                    "{cause}; truncating to the last complete record at byte {} failed: {e}",
                    self.end
                );
            }
            self.stopped = Some(JournalError::Stopped {
                at: self.next_chronon,
                cause,
            });
        }
        self.stopped_error()
    }

    /// Whether records at chronon `t` are already on disk (see
    /// [`append_to`](Self::append_to)).
    fn suppressed(&self, t: Chronon) -> bool {
        self.suppress_until.is_some_and(|u| t <= u)
    }

    /// Writes chronon `t`'s frame, uncommitted (see
    /// [`frame`](Self::frame)).
    fn write_frame(&mut self, t: Chronon, drained_seq: u64, lines: &str) {
        if !self.suppressed(t) {
            let payload: [&[u8]; 3] = [
                &t.to_le_bytes(),
                &drained_seq.to_le_bytes(),
                lines.as_bytes(),
            ];
            // The error is kept as the stop reason.
            let _ = self.write(Append::Frame, KIND_FRAME, &payload);
        }
        self.written_next = t + 1;
    }

    /// Writes the snapshot at boundary `at`, already encoded, uncommitted.
    fn write_snapshot(&mut self, at: Chronon, encoded: &[u8]) {
        if !self.suppressed(at) {
            // The error is kept as the stop reason.
            let _ = self.write(Append::Snapshot, KIND_SNAPSHOT, &[encoded]);
        }
    }

    /// Appends a chronon frame — the chronon, the live-mutation drain
    /// high-water mark, and the chronon's JSONL event block. Call it once
    /// per chronon, in order; the snapshot at boundary `t + 1`, if any,
    /// follows it. A failure stops the journal (see
    /// [`errors`](Self::errors)).
    pub fn frame(&mut self, t: Chronon, drained_seq: u64, lines: &str) {
        self.write_frame(t, drained_seq, lines);
        // The error is kept as the stop reason.
        let _ = self.commit();
    }

    /// Appends an engine snapshot. A failure stops the journal; the lost
    /// snapshot only lengthens the next recovery's replay.
    pub fn snapshot(&mut self, snap: &EngineSnapshot) {
        let mut encoded = Vec::new();
        snap.encode(&mut encoded);
        self.write_snapshot(snap.at, &encoded);
        // The error is kept as the stop reason.
        let _ = self.commit();
    }

    /// Durably appends an accepted live mutation *before* it is
    /// acknowledged. Unlike frames, the error is returned — including
    /// [`JournalError::Stopped`] once the journal stopped: the caller must
    /// reject the submission if it cannot be journaled.
    pub fn live_mutation(&mut self, seq: u64, mutation: Mutation) -> Result<(), JournalError> {
        let json =
            serde_json::to_string(&LiveRecord { seq, mutation }).map_err(|e| JournalError::Io {
                path: self.path.display().to_string(),
                detail: format!("mutation serialization: {e}"),
            })?;
        self.append(Append::LiveMutation, KIND_LIVE_MUTATION, &[json.as_bytes()])
    }

    /// Flushes and syncs the final suffix. A failure stops the journal.
    pub fn finish(&mut self) {
        if self.file.is_some() {
            self.sync_due |= self.fsync.syncs(Append::Finish, self.frames_since_sync);
            // The error is kept as the stop reason.
            let _ = self.commit();
        }
    }

    /// Why the journal stopped, naming the chronon: empty while it runs,
    /// one entry after the stop.
    pub fn errors(&self) -> Vec<String> {
        self.stopped.iter().map(ToString::to_string).collect()
    }
}

/// A shared handle to one [`JournalWriter`].
pub type SharedJournal = Arc<Mutex<JournalWriter>>;

/// The most bytes the engine may have handed the writer thread that the
/// writer has not appended yet: a frame weighs its event block, a snapshot
/// image its arrays ([`SnapshotImage`]). At the serve-scale shape
/// (`--profiles 600 --horizon 1000 --budget 2 --lambda 66.7`, ~38k CEIs)
/// that is ~30 images or ~7,000 frames: at a 3 ms chronon, a writer stuck
/// ~20 s on one fsync. A whole journaled test-suite run hands over less
/// than 1 MB.
const HANDOFF_BYTES: usize = 16 << 20;

/// A frame's fixed fields: the chronon and the drain mark.
const FRAME_FIXED: usize = 12;

const POISONED: &str = "journal hand-off lock poisoned by a panicked thread";
const JOURNAL_POISONED: &str = "journal lock poisoned by a panicked client thread";

/// What the engine hands the writer thread, in record order.
#[derive(Debug)]
enum Handoff {
    /// Chronon `t`'s frame.
    Frame {
        t: Chronon,
        drained_seq: u64,
        lines: String,
    },
    /// The image of a snapshot boundary, for the writer to encode.
    Snapshot(Box<SnapshotImage>),
}

impl Handoff {
    fn bytes(&self) -> usize {
        match self {
            Handoff::Frame { lines, .. } => FRAME_FIXED + lines.len(),
            Handoff::Snapshot(image) => image.bytes(),
        }
    }
}

/// The hand-off queue between the engine and the writer thread, and the
/// buffers the writer returns for reuse.
#[derive(Debug, Default)]
struct Queue {
    items: VecDeque<Handoff>,
    /// The bytes of the items handed over and not appended yet.
    bytes: usize,
    spare_lines: Vec<String>,
    // Boxed as in `Handoff`: an image moves between the queue and here
    // without a new allocation.
    #[allow(clippy::vec_box)]
    spare_images: Vec<Box<SnapshotImage>>,
    /// No more hand-offs are taken: the run ended, a hand-off did not fit,
    /// or the journal stopped.
    closed: bool,
    /// Why a hand-off did not fit; the journal stops right after what was
    /// handed over before it.
    overflow: Option<String>,
    /// The engine is not paced: a hand-off that does not fit waits for
    /// room instead.
    unpaced: bool,
}

#[derive(Debug, Default)]
struct Handoffs {
    queue: Mutex<Queue>,
    /// Wakes the writer: work arrived, or the queue closed.
    work: Condvar,
    /// Wakes an unpaced engine waiting for room.
    room: Condvar,
}

impl Handoffs {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().expect(POISONED)
    }

    /// Takes no more hand-offs. Also called from `Drop`, so it never
    /// panics: setting one flag leaves a poisoned queue as valid as before.
    fn close(&self) {
        let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        q.closed = true;
        drop(q);
        self.work.notify_one();
        self.room.notify_all();
    }
}

/// The engine's end of the journal writer thread ([`JournalThread`]): the
/// daemon's event hub hands over each chronon's frame, and [`JournalSink`]
/// each snapshot image. A hand-off is a buffer swap under a short lock
/// that the writer holds only to take or return buffers — never during
/// encoding or I/O — so the engine neither encodes, writes nor fsyncs the
/// journal, nor takes the journal lock the registration API shares.
///
/// The queue holds at most 16 MiB (`HANDOFF_BYTES`). A paced engine never
/// waits for the writer: a hand-off that does not fit closes the queue,
/// and the writer stops the journal right after what it already holds, as
/// on a write error. An unpaced engine ([`set_unpaced`](Self::set_unpaced)) has
/// no chronon deadline to keep, so its hand-off waits for room instead.
/// Clones share the queue.
#[derive(Debug, Clone)]
pub struct JournalQueue {
    shared: Arc<Handoffs>,
}

impl JournalQueue {
    /// Queues what `make` builds from the queue's spare buffers, weighing
    /// `bytes`, unless the queue is closed or the hand-off does not fit.
    fn hand_off(&self, bytes: usize, make: impl FnOnce(&mut Queue) -> Handoff) -> bool {
        let mut q = self.shared.lock();
        loop {
            if q.closed {
                return false;
            }
            if q.bytes == 0 || q.bytes + bytes <= HANDOFF_BYTES {
                break;
            }
            if !q.unpaced {
                q.overflow = Some(format!(
                    "the writer thread fell behind: {} bytes queued, {bytes} more handed \
                     over, {HANDOFF_BYTES} fit",
                    q.bytes
                ));
                q.closed = true;
                self.shared.work.notify_one();
                return false;
            }
            q = self.shared.room.wait(q).expect(POISONED);
        }
        let item = make(&mut q);
        q.bytes += bytes;
        q.items.push_back(item);
        self.shared.work.notify_one();
        true
    }

    /// Hands over chronon `t`'s frame — the drain mark after its drain and
    /// its event block — and leaves `lines` empty, swapped for a spare
    /// block. Returns whether the writer took it: not once the journal
    /// stopped, nor if it does not fit, which stops the journal at `t`.
    pub fn frame(&self, t: Chronon, drained_seq: u64, lines: &mut String) -> bool {
        let taken = self.hand_off(FRAME_FIXED + lines.len(), |q| {
            let spare = q.spare_lines.pop().unwrap_or_default();
            Handoff::Frame {
                t,
                drained_seq,
                lines: std::mem::replace(lines, spare),
            }
        });
        if !taken {
            lines.clear();
        }
        taken
    }

    /// Hands over the image of a snapshot boundary, swapping in a spare
    /// image; it follows the frame handed over last. Returns whether the
    /// writer took it (see [`frame`](Self::frame)).
    pub fn snapshot(&self, image: &mut SnapshotImage) -> bool {
        self.hand_off(image.bytes(), |q| {
            let mut spare = q.spare_images.pop().unwrap_or_default();
            std::mem::swap(&mut *spare, image);
            Handoff::Snapshot(spare)
        })
    }

    /// Whether hand-offs are still taken.
    pub fn is_open(&self) -> bool {
        !self.shared.lock().closed
    }

    /// The engine runs unpaced from now on — a free clock, or one released
    /// by `shutdown` — so a hand-off that does not fit waits for room
    /// rather than stop the journal.
    pub fn set_unpaced(&self) {
        self.shared.lock().unpaced = true;
    }
}

/// The journal's writer thread: it appends, in arrival order, everything
/// the engine hands over through its [`JournalQueue`].
///
/// The writer blocks until something is queued, then takes everything
/// queued. It encodes the batch's snapshot images outside the journal
/// lock ([`SnapshotImage::encode`]), then takes the lock and appends the
/// batch's records with one flush and at most one fsync — group commit
/// for frames ([`FsyncPolicy::EveryChronon`] fsyncs once per batch) —
/// and returns the blocks and images to the queue for the engine to reuse,
/// so a warm run allocates nothing per chronon. Live mutations keep
/// appending on their client threads under the same lock. On Linux the
/// writer runs as a `SCHED_BATCH` thread, so waking it never preempts the
/// engine mid-chronon.
///
/// A failed append stops the journal ([`JournalWriter`]) and closes the
/// queue; so does a hand-off that did not fit, right after the records
/// handed over before it. Either way the run goes on to its horizon.
/// [`finish`](Self::finish) closes the queue and joins the writer once it
/// has appended everything and flushed the final suffix.
#[derive(Debug)]
pub struct JournalThread {
    shared: Arc<Handoffs>,
    journal: SharedJournal,
    thread: Option<JoinHandle<()>>,
}

impl JournalThread {
    /// Spawns the writer thread over `journal`.
    pub fn spawn(journal: SharedJournal) -> Self {
        let shared = Arc::new(Handoffs::default());
        let thread = {
            let (shared, journal) = (Arc::clone(&shared), Arc::clone(&journal));
            std::thread::spawn(move || {
                run_as_batch_thread();
                write_loop(&shared, &journal);
            })
        };
        JournalThread {
            shared,
            journal,
            thread: Some(thread),
        }
    }

    /// The engine's end of the writer's queue.
    pub fn queue(&self) -> JournalQueue {
        JournalQueue {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Closes the queue, joins the writer once it has appended everything
    /// handed over and flushed the journal, and returns why the journal
    /// stopped, naming the chronon, if it did
    /// ([`JournalWriter::errors`]).
    pub fn finish(mut self) -> Vec<String> {
        let mut errors = self.join();
        errors.extend(self.journal.lock().expect(JOURNAL_POISONED).errors());
        errors
    }

    fn join(&mut self) -> Vec<String> {
        self.shared.close();
        match self.thread.take().map(JoinHandle::join) {
            Some(Err(_)) => vec!["the journal writer thread panicked".to_string()],
            _ => Vec::new(),
        }
    }
}

impl Drop for JournalThread {
    fn drop(&mut self) {
        self.join();
    }
}

/// Makes the calling thread a batch thread (Linux `SCHED_BATCH`): its
/// wake-ups never preempt a running thread, and it keeps its fair share of
/// the CPU otherwise. The engine wakes the writer at every hand-off; as a
/// normal thread, the writer woken onto the engine's CPU could take it
/// for a whole snapshot encode (~0.5 ms at the serve-live scale) before
/// the chronon ends. Elsewhere, or if the call fails, nothing changes.
#[cfg(target_os = "linux")]
fn run_as_batch_thread() {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_BATCH: i32 = 3;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: pid 0 is the calling thread, and the call only reads `param`,
    // which outlives it. Lowering a thread's own policy to `SCHED_BATCH`
    // needs no privilege; a failure leaves the thread as it was.
    unsafe {
        sched_setscheduler(0, SCHED_BATCH, &param);
    }
}

#[cfg(not(target_os = "linux"))]
fn run_as_batch_thread() {}

/// The writer thread's loop; see [`JournalThread`].
fn write_loop(shared: &Handoffs, journal: &Mutex<JournalWriter>) {
    let mut batch = VecDeque::new();
    let mut encoded: Vec<Vec<u8>> = Vec::new();
    loop {
        let mut q = shared.lock();
        while q.items.is_empty() && !q.closed {
            q = shared.work.wait(q).expect(POISONED);
        }
        if q.items.is_empty() {
            let overflow = q.overflow.take();
            drop(q);
            let mut journal = journal.lock().expect(JOURNAL_POISONED);
            if let Some(cause) = overflow {
                journal.stop(cause);
            }
            journal.finish();
            return;
        }
        std::mem::swap(&mut q.items, &mut batch);
        drop(q);

        let images = batch.iter().filter_map(|item| match item {
            Handoff::Snapshot(image) => Some(image),
            Handoff::Frame { .. } => None,
        });
        for (i, image) in images.enumerate() {
            if i == encoded.len() {
                encoded.push(Vec::new());
            }
            encoded[i].clear();
            image.encode(&mut encoded[i]);
        }
        let stopped = {
            let mut journal = journal.lock().expect(JOURNAL_POISONED);
            let mut encoded = encoded.iter();
            for item in &batch {
                match item {
                    Handoff::Frame {
                        t,
                        drained_seq,
                        lines,
                    } => journal.write_frame(*t, *drained_seq, lines),
                    Handoff::Snapshot(image) => {
                        let bytes = encoded.next().expect("every image was encoded");
                        journal.write_snapshot(image.at, bytes);
                    }
                }
            }
            journal.commit().is_err()
        };

        let mut q = shared.lock();
        for item in batch.drain(..) {
            q.bytes -= item.bytes();
            match item {
                Handoff::Frame { mut lines, .. } => {
                    lines.clear();
                    q.spare_lines.push(lines);
                }
                Handoff::Snapshot(image) => q.spare_images.push(image),
            }
        }
        q.closed |= stopped;
        shared.room.notify_all();
    }
}

/// The snapshot side of the journal: requests a snapshot every `every`
/// chronons and hands the engine's image over to the writer thread, which
/// appends it after the frame of the chronon before its boundary.
///
/// It also requests the run's first boundary, before the clock paces
/// anything, without journaling it: that capture and a copy of it fault in
/// the memory of the two images the engine and the writer trade, so no
/// paced chronon pays for a first touch.
#[derive(Debug)]
pub struct JournalSink {
    queue: JournalQueue,
    every: u32,
    suppress_until: Option<Chronon>,
    /// Whether the images are warm (or no snapshot is ever taken).
    warm: bool,
    /// Whether the boundary [`wants`](SnapshotSink::wants) was asked about
    /// last is journaled.
    journals: bool,
}

impl JournalSink {
    /// A sink snapshotting every `every` chronons (`0` disables);
    /// boundaries at or below `suppress_until` are already journaled and
    /// skipped.
    pub fn new(queue: JournalQueue, every: u32, suppress_until: Option<Chronon>) -> Self {
        JournalSink {
            queue,
            every,
            suppress_until,
            warm: every == 0,
            journals: false,
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
        // A stopped journal takes no snapshot: skip the copy.
        self.journals = boundary && !suppressed && self.queue.is_open();
        self.journals || !self.warm
    }
    fn accept(&mut self, image: &mut SnapshotImage) {
        if !self.warm {
            self.warm = true;
            self.queue
                .shared
                .lock()
                .spare_images
                .push(Box::new(image.clone()));
        }
        if self.journals {
            self.queue.snapshot(image);
        }
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
    scan_bytes(&buf)
}

/// [`scan_journal`] over a journal's bytes.
fn scan_bytes(buf: &[u8]) -> Result<JournalScan, JournalError> {
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
        let rec = match parse_record(buf, offset) {
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

/// One journaled probe attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Attempt {
    resource: ResourceId,
    /// Consecutive failures on the resource before this attempt.
    attempt: u32,
    /// Whether the probe succeeded.
    ok: bool,
}

/// One journaled chronon parsed into the engine's nondeterministic inputs.
#[derive(Debug, Clone, Default)]
struct ReplayFrame {
    /// Probe attempts in the order the engine made them.
    attempts: Vec<Attempt>,
    /// Outage transitions in event order: `(resource, Some(until))` for a
    /// down edge, `(resource, None)` for an up edge.
    downs: Vec<(u32, Option<Chronon>)>,
    /// Applied mutations in drain order.
    mutations: Vec<Mutation>,
}

impl ReplayFrame {
    /// Distills one chronon's events. Every attempt ends in a `ProbeIssued`
    /// (success) or a `ProbeFailed` (failure, carrying its attempt number);
    /// a retry announces its attempt number with the `ProbeRetried` right
    /// before either, so a success without one is a first attempt.
    fn parse(events: &[Event]) -> Self {
        let mut frame = ReplayFrame::default();
        let mut retried = 0;
        for event in events {
            match *event {
                Event::ProbeRetried { attempt, .. } => retried = attempt,
                Event::ProbeIssued { resource, .. } => frame.attempts.push(Attempt {
                    resource,
                    attempt: std::mem::take(&mut retried),
                    ok: true,
                }),
                Event::ProbeFailed {
                    resource, attempt, ..
                } => {
                    retried = 0;
                    frame.attempts.push(Attempt {
                        resource,
                        attempt,
                        ok: false,
                    });
                }
                Event::ResourceDown {
                    resource, until, ..
                } => frame.downs.push((resource.0, Some(until))),
                Event::ResourceUp { resource, .. } => frame.downs.push((resource.0, None)),
                Event::CeiRegistered { cei, .. } => {
                    frame.mutations.push(Mutation::Register { cei });
                }
                Event::CeiCancelled { cei, .. } => frame.mutations.push(Mutation::Cancel { cei }),
                Event::BudgetReconfigured { budget, .. } => {
                    frame.mutations.push(Mutation::SetBudget { budget });
                }
                _ => {}
            }
        }
        frame
    }
}

/// A recovery plan distilled from a [`JournalScan`]: what to restore, what
/// to replay, what to re-inject, and where live execution resumes. The
/// default plan is a fresh run: nothing to restore, replay or re-inject.
#[derive(Debug, Clone, Default)]
pub struct Recovery {
    /// The snapshot to restore (`None`: resume from chronon 0).
    pub resume: Option<EngineSnapshot>,
    /// Last fully journaled chronon (`None`: no frames survived; the whole
    /// run re-executes live).
    pub replay_until: Option<Chronon>,
    /// Trace JSONL for chronons before the snapshot boundary — the prefix
    /// the resumed engine will not re-emit.
    pub prefix_lines: String,
    /// The events of [`prefix_lines`](Self::prefix_lines), parsed.
    pub prefix_events: Vec<Event>,
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
    /// Every journaled chronon, parsed: `frames[t]` is chronon `t`.
    frames: Vec<ReplayFrame>,
}

impl Recovery {
    /// Distills `scan` into a recovery plan. Fails if a frame's event block
    /// does not parse back into events (journal bytes passed their
    /// checksum but are not a trace — real corruption).
    pub fn plan(scan: &JournalScan) -> Result<Self, JournalError> {
        // The latest snapshot wins; frames from its boundary on replay
        // through the engine, frames before it become the trace prefix.
        // Every frame is parsed: a replayable fault model is re-driven
        // through all of them.
        let resume = scan.snapshots.last().cloned();
        let resume_at = resume.as_ref().map_or(0, |s| s.at);
        let drained_seq = scan.frames.last().map_or(0, |f| f.drained_seq);

        let mut prefix_lines = String::new();
        let mut prefix_events = Vec::new();
        let mut frames = Vec::with_capacity(scan.frames.len());
        for f in &scan.frames {
            let events = replay_events(&f.lines).map_err(|e| JournalError::Corrupt {
                offset: f.offset,
                detail: format!("frame {} line {}: {}", f.t, e.line, e.detail),
            })?;
            frames.push(ReplayFrame::parse(&events));
            if f.t < resume_at {
                prefix_lines.push_str(&f.lines);
                prefix_events.extend(events);
            }
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
            replay_until: scan.frames.last().map(|f| f.t),
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

    /// Wraps `inner` so journaled chronons replay their recorded probe
    /// outcomes and outage state; see [`JournalFaults`].
    ///
    /// This is where a stateful model is handed over: an enabled,
    /// [`replayable`](FaultModel::replayable) `inner` is driven through
    /// every journaled chronon `t` — `begin_chronon(t)`, then each recorded
    /// attempt in order — so it starts the first live chronon in the state
    /// the uninterrupted run left it in. A recorded outcome it does not
    /// reproduce is a divergence.
    pub fn faults<F: FaultModel>(&self, mut inner: F, n_resources: u32) -> JournalFaults<'_, F> {
        let mut diverged = None;
        if inner.enabled() && inner.replayable() {
            for (t, frame) in (0..).zip(&self.frames) {
                inner.begin_chronon(t);
                for a in &frame.attempts {
                    let ok = inner.probe_succeeds(t, a.resource, a.attempt);
                    if ok != a.ok && diverged.is_none() {
                        diverged = Some(format!(
                            "the fault model does not reproduce frame {t}: {:?} attempt {} \
                             was journaled as {}",
                            a.resource,
                            a.attempt,
                            if a.ok { "a success" } else { "a failure" },
                        ));
                    }
                }
            }
        }
        let mut mirror = vec![None; n_resources as usize];
        if let Some(snap) = &self.resume {
            for (m, &a) in mirror.iter_mut().zip(&snap.announced) {
                *m = a;
            }
        }
        JournalFaults {
            inner,
            frames: &self.frames,
            live_from: self.frames.len() as Chronon,
            mirror,
            now: 0,
            pending: &[],
            diverged,
        }
    }

    /// Wraps `inner` so journaled chronons drain the recorded mutations;
    /// see [`JournalMutations`].
    pub fn mutations<M: MutationSource>(&self, inner: M) -> JournalMutations<'_, M> {
        JournalMutations {
            inner,
            frames: &self.frames,
            live_from: self.frames.len() as Chronon,
        }
    }
}

/// A [`FaultModel`] that replays journaled chronons and delegates to the
/// wrapped model from the first unjournaled chronon on.
///
/// During replay, probe outcomes come from the journal in attempt order and
/// outage state from a mirror of the journaled `ResourceDown`/`ResourceUp`
/// transitions (seeded from the restored snapshot's announced horizons);
/// the wrapped model is not called — [`Recovery::faults`] already brought
/// it to the handover. Under the default (fresh-run) plan every call costs
/// one comparison on its way to the wrapped model.
///
/// If the engine consumes a replayed chronon differently than the frame
/// recorded — another probe than the one recorded next, more probes than
/// recorded, or recorded probes left over — the replay has **diverged**:
/// the journal describes a different run (the header fingerprint should
/// have refused it, but the fingerprint is a hash, not the inputs
/// themselves). [`divergence`](Self::divergence) reports it after the run
/// — never a panic — and the daemon turns it into a failed recovery whose
/// output is discarded; probes past the recording fail in the meantime.
#[derive(Debug)]
pub struct JournalFaults<'a, F> {
    inner: F,
    /// Every journaled chronon: `frames[t]` is chronon `t`.
    frames: &'a [ReplayFrame],
    /// The first chronon the wrapped model answers.
    live_from: Chronon,
    mirror: Vec<Option<Chronon>>,
    now: Chronon,
    /// The attempts of the replayed chronon `now` not consumed yet.
    pending: &'a [Attempt],
    diverged: Option<String>,
}

impl<F> JournalFaults<'_, F> {
    /// `Some(detail)` once the engine has consumed the journal differently
    /// than the recording; read it after the run.
    pub fn divergence(&self) -> Option<String> {
        self.diverged.clone().or_else(|| self.leftover())
    }

    /// The divergence of recorded attempts the engine never made.
    fn leftover(&self) -> Option<String> {
        (!self.pending.is_empty()).then(|| {
            format!(
                "{} recorded probe outcome(s) for chronon {} were never consumed",
                self.pending.len(),
                self.now,
            )
        })
    }

    fn mark_diverged(&mut self, detail: String) {
        self.diverged.get_or_insert(detail);
    }
}

impl<F: FaultModel> FaultModel for JournalFaults<'_, F> {
    fn begin_chronon(&mut self, t: Chronon) {
        if t < self.live_from {
            if let Some(detail) = self.leftover() {
                self.mark_diverged(detail);
            }
            let frame = &self.frames[t as usize];
            self.pending = &frame.attempts;
            for &(r, until) in &frame.downs {
                self.mirror[r as usize] = until;
            }
        } else {
            self.inner.begin_chronon(t);
        }
        self.now = t;
    }

    fn down_until(&self, resource: ResourceId) -> Option<Chronon> {
        if self.now < self.live_from {
            self.mirror[resource.index()]
        } else {
            self.inner.down_until(resource)
        }
    }

    fn probe_succeeds(&mut self, t: Chronon, resource: ResourceId, attempt: u32) -> bool {
        if t >= self.live_from {
            return self.inner.probe_succeeds(t, resource, attempt);
        }
        let Some((next, rest)) = self.pending.split_first() else {
            self.mark_diverged(format!(
                "frame {t} exhausted mid-chronon: the engine attempted more probes \
                 than the journal recorded (next: {resource:?} attempt {attempt})",
            ));
            return false;
        };
        self.pending = rest;
        if (next.resource, next.attempt) != (resource, attempt) {
            self.mark_diverged(format!(
                "frame {t}: the engine probed {resource:?} attempt {attempt} where the \
                 journal recorded {:?} attempt {}",
                next.resource, next.attempt,
            ));
        }
        next.ok
    }

    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn descriptor(&self) -> String {
        self.inner.descriptor()
    }

    fn replayable(&self) -> bool {
        self.inner.replayable()
    }
}

/// A [`MutationSource`] that drains the journaled mutations for replayed
/// chronons and delegates to the wrapped source (the daemon's script +
/// live queue) from the first unjournaled chronon on. Release suppression
/// always delegates — it is a property of the recompiled churn script, not
/// of the journal.
#[derive(Debug)]
pub struct JournalMutations<'a, M> {
    inner: M,
    /// Every journaled chronon: `frames[t]` is chronon `t`.
    frames: &'a [ReplayFrame],
    /// The first chronon the wrapped source drains.
    live_from: Chronon,
}

impl<M: MutationSource> MutationSource for JournalMutations<'_, M> {
    fn active(&self) -> bool {
        true
    }

    fn drain_at(&mut self, t: Chronon, out: &mut Vec<Mutation>) {
        if t < self.live_from {
            out.extend_from_slice(&self.frames[t as usize].mutations);
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
        let mut faults = rec.faults(crate::fault::NoFaults, 1);
        faults.begin_chronon(0);
        assert!(
            faults.probe_succeeds(0, ResourceId(0), 0),
            "recorded outcome replays"
        );
        assert!(faults.divergence().is_none());
        // A second attempt has no recorded outcome: the divergence is
        // recorded and the probe reports failure — the run ends with a
        // structured error, never a panic.
        assert!(!faults.probe_succeeds(0, ResourceId(0), 1));
        let detail = faults.divergence().expect("divergence flagged");
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
            write_record(&mut buf, KIND_HEADER, &[header.as_bytes()], &path).unwrap();
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

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A journal of a header, one frame and one snapshot as the writer
    /// produced it before records were written from pieces: the bytes do
    /// not change, and such a file still scans and decodes.
    #[test]
    fn journal_bytes_are_pinned() {
        let pinned = concat!(
            "21000000017b2276657273696f6e223a332c2266696e6765727072696e74223a",
            "226670227db38ffbba5d000000020000000003000000000000007b224368726f",
            "6e6f6e5374617274223a7b2274223a302c22627564676574223a327d7d0a7b22",
            "4368726f6e6f6e456e64223a7b2274223a302c227370656e74223a312c226275",
            "64676574223a327d7d0ad1fca967c90000000301000000010000000102000000",
            "0102000000000100000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000000000000000002",
            "0000000400000000000000000000000000000000000000000103000000000000",
            "00000000000000000002000000010000000000000001000000000060c95bb8",
        );
        let path = temp_journal("pinned");
        let mut w = JournalWriter::create(&path, FsyncPolicy::Os, "fp").unwrap();
        w.frame(0, 3, &sample_lines(0));
        w.snapshot(&tiny_snapshot(1));
        w.finish();
        assert!(w.errors().is_empty(), "{:?}", w.errors());
        drop(w);
        assert_eq!(hex(&std::fs::read(&path).unwrap()), pinned);
        let scan = scan_journal(&path).unwrap();
        assert_eq!(scan.fingerprint, "fp");
        assert_eq!(scan.frames.len(), 1);
        assert_eq!(
            (scan.frames[0].drained_seq, scan.frames[0].lines.as_str()),
            (3, sample_lines(0).as_str())
        );
        assert_eq!(scan.snapshots, vec![tiny_snapshot(1)]);
        std::fs::remove_file(&path).ok();
    }

    /// What a scripted journal file does when the file reaches `at` bytes.
    #[derive(Debug, Clone, Copy)]
    enum Fault {
        /// The write crossing `at` lands only up to it, and the file takes
        /// no byte more: a short write, then a stalled device.
        ShortWriteAt(usize),
        /// The write crossing `at` lands up to it, the next write fails
        /// with ENOSPC, and every later write succeeds: space came back.
        EnospcOnceAt(usize),
        /// The `n`-th fsync (counting from 1) fails with EIO.
        EioOnSync(u32),
    }

    /// An in-memory journal file whose bytes a test reads back, failing as
    /// its [`Fault`] scripts.
    #[derive(Debug, Clone)]
    struct ScriptedFile {
        bytes: Arc<Mutex<Vec<u8>>>,
        fault: Option<Fault>,
        syncs: u32,
    }

    impl ScriptedFile {
        fn new(fault: Option<Fault>) -> Self {
            ScriptedFile {
                bytes: Arc::new(Mutex::new(Vec::new())),
                fault,
                syncs: 0,
            }
        }
        fn len(&self) -> usize {
            self.bytes.lock().unwrap().len()
        }
    }

    impl Write for ScriptedFile {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let mut bytes = self.bytes.lock().unwrap();
            if let Some(Fault::ShortWriteAt(at) | Fault::EnospcOnceAt(at)) = self.fault {
                let room = at.saturating_sub(bytes.len());
                if buf.len() > room {
                    if room > 0 {
                        bytes.extend_from_slice(&buf[..room]);
                        return Ok(room);
                    }
                    if let Some(Fault::EnospcOnceAt(_)) = self.fault.take() {
                        return Err(io::Error::from_raw_os_error(28));
                    }
                    self.fault = Some(Fault::ShortWriteAt(at));
                    return Ok(0);
                }
            }
            bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl JournalFile for ScriptedFile {
        fn sync_data(&mut self) -> io::Result<()> {
            self.syncs += 1;
            match self.fault {
                Some(Fault::EioOnSync(n)) if n == self.syncs => {
                    Err(io::Error::from_raw_os_error(5))
                }
                _ => Ok(()),
            }
        }
        fn set_len(&mut self, len: u64) -> io::Result<()> {
            self.bytes.lock().unwrap().resize(len as usize, 0);
            Ok(())
        }
    }

    /// A journaled session on `file`: header, frame 0, live mutation 1,
    /// frame 1 and the snapshot after it, live mutation 2, frame 2, then
    /// frames 3-4, the snapshot after frame 4 and another one, and live
    /// mutation 3. Returns the writer, the file length after each of those
    /// ten steps, and the sequence numbers acknowledged.
    fn scripted_session(file: &ScriptedFile) -> (JournalWriter, Vec<usize>, Vec<u64>) {
        let mut w = JournalWriter::start(
            Box::new(file.clone()),
            Path::new("scripted.journal"),
            FsyncPolicy::EveryChronon,
            "fp",
        )
        .unwrap();
        let mut marks = vec![file.len()];
        let mut acked = Vec::new();
        let mut ack = |w: &mut JournalWriter, seq: u64| {
            if w.live_mutation(seq, Mutation::SetBudget { budget: 1 })
                .is_ok()
            {
                acked.push(seq);
            }
        };
        w.frame(0, 0, &sample_lines(0));
        marks.push(file.len());
        ack(&mut w, 1);
        marks.push(file.len());
        w.frame(1, 1, &sample_lines(1));
        w.snapshot(&tiny_snapshot(1));
        marks.push(file.len());
        ack(&mut w, 2);
        marks.push(file.len());
        w.frame(2, 2, &sample_lines(2));
        marks.push(file.len());
        w.frame(3, 2, &sample_lines(3));
        marks.push(file.len());
        w.frame(4, 2, &sample_lines(4));
        w.snapshot(&tiny_snapshot(4));
        marks.push(file.len());
        w.snapshot(&tiny_snapshot(5));
        marks.push(file.len());
        ack(&mut w, 3);
        marks.push(file.len());
        w.finish();
        (w, marks, acked)
    }

    /// A short write mid-snapshot, an ENOSPC mid-record that clears on the
    /// next call, and EIO on fsync: each stops the journal at a complete
    /// record. The file then scans with no partial record, holds every
    /// mutation acknowledged before the failure, and takes no byte more;
    /// later frames and snapshots neither write nor panic, and a later live
    /// mutation is refused, never acknowledged.
    #[test]
    fn a_failed_append_stops_the_journal_at_its_last_complete_record() {
        let clean = ScriptedFile::new(None);
        let (w, marks, acked) = scripted_session(&clean);
        assert!(w.errors().is_empty(), "{:?}", w.errors());
        assert_eq!(acked, [1, 2, 3]);
        // marks[3]: frame 1 then snapshot 1 are on disk; marks[4]: live 2.
        let cases = [
            (
                "short write mid-snapshot",
                Fault::ShortWriteAt(marks[3] - 20),
                2,
                1,
            ),
            (
                "ENOSPC mid-record, then space",
                Fault::EnospcOnceAt(marks[4] - 10),
                2,
                1,
            ),
            // Syncs: header, frame 0, live 1, then frame 1's.
            ("EIO on fsync", Fault::EioOnSync(4), 1, 1),
        ];
        for (what, fault, stop_at, acked_before) in cases {
            let file = ScriptedFile::new(Some(fault));
            let (w, marks, acked) = scripted_session(&file);
            let errors = w.errors();
            assert_eq!(errors.len(), 1, "{what}: {errors:?}");
            assert!(
                errors[0].contains(&format!("journal stopped at chronon {stop_at}")),
                "{what}: {errors:?}"
            );
            let bytes = file.bytes.lock().unwrap().clone();
            let stopped_len = bytes.len();
            let first_after = marks.iter().position(|&m| m == stopped_len).unwrap();
            assert!(
                marks[first_after..].iter().all(|&m| m == stopped_len),
                "{what}: bytes written after the stop: {marks:?}"
            );
            let path = temp_journal("scripted");
            std::fs::write(&path, &bytes).unwrap();
            let scan = scan_journal(&path).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert!(scan.torn_tail.is_none(), "{what}: {:?}", scan.torn_tail);
            assert_eq!(scan.valid_len, stopped_len as u64, "{what}");
            assert_eq!(scan.frames.len(), stop_at as usize, "{what}");
            assert_eq!(acked, (1..=acked_before).collect::<Vec<u64>>(), "{what}");
            let journaled: Vec<u64> = scan.live.iter().map(|&(seq, _)| seq).collect();
            assert_eq!(journaled, acked, "{what}");
            std::fs::remove_file(&path).ok();
        }
    }

    /// Through the writer thread's queue, a snapshot image lands right
    /// after the frame handed over before it, encoded as
    /// `EngineSnapshot::encode` encodes it; the engine gets a spare image
    /// and an empty block back at once.
    #[test]
    fn a_handed_over_snapshot_lands_right_after_the_frame_before_it() {
        let path = temp_journal("handoff");
        let core: SharedJournal = Arc::new(Mutex::new(
            JournalWriter::create(&path, FsyncPolicy::Os, "fp").unwrap(),
        ));
        let header_len = std::fs::metadata(&path).unwrap().len();
        let writer = JournalThread::spawn(Arc::clone(&core));
        let mut sink = JournalSink::new(writer.queue(), 1, None);
        // The run's first boundary is a warm-up capture, never journaled.
        assert!(sink.wants(0));
        let mut image = SnapshotImage::of(&tiny_snapshot(0));
        sink.accept(&mut image);
        let mut block = sample_lines(0);
        assert!(writer.queue().frame(0, 0, &mut block));
        assert!(block.is_empty(), "the hub got an empty block back");
        assert!(sink.wants(1));
        let mut image = SnapshotImage::of(&tiny_snapshot(1));
        sink.accept(&mut image);
        assert_eq!(image.at(), 0, "the sink swapped in the warmed image");
        let mut block = sample_lines(1);
        assert!(writer.queue().frame(1, 0, &mut block));
        assert!(writer.finish().is_empty());

        let scan = scan_journal(&path).unwrap();
        assert_eq!(scan.snapshots, vec![tiny_snapshot(1)]);
        assert_eq!(scan.frames.len(), 2);
        assert_eq!(scan.frames[0].offset as u64, header_len);
        let snapshot_record = scan.frames[1].offset - scan.frames[0].end;
        let mut encoded = Vec::new();
        tiny_snapshot(1).encode(&mut encoded);
        let mut record = Vec::new();
        write_record(&mut record, KIND_SNAPSHOT, &[&encoded], &path).unwrap();
        assert_eq!(
            snapshot_record,
            record.len(),
            "only the snapshot sits between"
        );
        std::fs::remove_file(&path).ok();
    }

    /// A journal file whose fsyncs block, once armed, until the test
    /// releases them.
    #[derive(Debug, Clone)]
    struct StallingFile {
        inner: ScriptedFile,
        gate: Arc<(Mutex<(bool, bool)>, std::sync::Condvar)>,
    }

    impl StallingFile {
        fn set(&self, armed: bool, released: bool) {
            let (state, cv) = &*self.gate;
            *state.lock().unwrap() = (armed, released);
            cv.notify_all();
        }
    }

    impl Write for StallingFile {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.inner.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl JournalFile for StallingFile {
        fn sync_data(&mut self) -> io::Result<()> {
            let (state, cv) = &*self.gate;
            let mut state = state.lock().unwrap();
            while state.0 && !state.1 {
                state = cv.wait(state).unwrap();
            }
            Ok(())
        }
        fn set_len(&mut self, len: u64) -> io::Result<()> {
            self.inner.set_len(len)
        }
    }

    /// A writer stuck in an fsync never holds up a paced engine: its queue
    /// fills, and the first frame that does not fit is refused at once,
    /// as is everything after it. Once the fsync returns, the journal
    /// holds exactly the frames handed over before the refusal, scans with
    /// no torn tail, names the refused chronon, and refuses a later live
    /// mutation. An unpaced engine waits for room instead.
    #[test]
    fn a_stalled_writer_stops_the_journal_at_the_first_frame_not_handed_over() {
        let horizon = 40;
        // A megabyte per frame: the queue fills within the run.
        let block = "x".repeat(1 << 20);
        for unpaced in [false, true] {
            let file = StallingFile {
                inner: ScriptedFile::new(None),
                gate: Default::default(),
            };
            let start = JournalWriter::start(
                Box::new(file.clone()),
                Path::new("stalling.journal"),
                FsyncPolicy::EveryChronon,
                "fp",
            );
            let core: SharedJournal = Arc::new(Mutex::new(start.unwrap()));
            file.set(true, false);
            let writer = JournalThread::spawn(Arc::clone(&core));
            let queue = writer.queue();
            let taken: Vec<bool> = if unpaced {
                queue.set_unpaced();
                // The engine waits for room: release the fsyncs meanwhile.
                // Release the fsyncs once the engine waits: the queue
                // has no room for one more frame.
                let release = {
                    let (file, queue) = (file.clone(), queue.clone());
                    std::thread::spawn(move || {
                        while queue.shared.lock().bytes + (1 << 20) <= HANDOFF_BYTES {
                            std::thread::yield_now();
                        }
                        file.set(true, true);
                    })
                };
                let taken = (0..horizon)
                    .map(|t| queue.frame(t, 0, &mut block.clone()))
                    .collect();
                release.join().unwrap();
                taken
            } else {
                let started = std::time::Instant::now();
                let taken = (0..horizon)
                    .map(|t| queue.frame(t, 0, &mut block.clone()))
                    .collect();
                assert!(
                    started.elapsed() < std::time::Duration::from_secs(5),
                    "the hand-offs waited for the stalled writer"
                );
                file.set(true, true);
                taken
            };
            let errors = writer.finish();
            let bytes = file.inner.bytes.lock().unwrap().clone();
            let path = temp_journal("stalled");
            std::fs::write(&path, &bytes).unwrap();
            let scan = scan_journal(&path).unwrap();
            assert!(scan.torn_tail.is_none(), "{:?}", scan.torn_tail);
            std::fs::remove_file(&path).ok();
            if unpaced {
                assert!(taken.iter().all(|&t| t), "an unpaced hand-off waits");
                assert!(errors.is_empty(), "{errors:?}");
                assert_eq!(scan.frames.len(), horizon as usize);
                continue;
            }
            let refused = taken.iter().position(|&t| !t).expect("the queue filled");
            assert!(refused > 1, "frames fit before the stall filled the queue");
            assert!(taken[refused..].iter().all(|&t| !t), "{taken:?}");
            assert_eq!(scan.frames.len(), refused, "{errors:?}");
            assert_eq!(errors.len(), 1, "{errors:?}");
            assert!(
                errors[0].contains(&format!("journal stopped at chronon {refused}:")),
                "{errors:?}"
            );
            assert!(errors[0].contains("fell behind"), "{errors:?}");
            let late = core
                .lock()
                .unwrap()
                .live_mutation(1, Mutation::SetBudget { budget: 1 });
            assert!(matches!(late, Err(JournalError::Stopped { at, .. }) if at == refused as u32));
        }
    }

    /// A small real journal: header, three frames of probe, outage and
    /// mutation events, one live record, and a snapshot after frames 0
    /// and 2. Returns its bytes and its records' `(offset, end)` extents.
    fn small_journal() -> (Vec<u8>, Vec<(usize, usize)>) {
        let file = ScriptedFile::new(None);
        let path = Path::new("small.journal");
        let mut w =
            JournalWriter::start(Box::new(file.clone()), path, FsyncPolicy::Os, "fp").unwrap();
        for t in 0..3 {
            let resource = ResourceId(t);
            let lines = jsonl(&[
                Event::ChrononStart { t, budget: 2 },
                Event::CeiRegistered {
                    cei: CeiId(t),
                    at: t,
                },
                Event::ResourceDown {
                    t,
                    resource,
                    until: t + 2,
                },
                Event::ProbeFailed {
                    t,
                    resource,
                    cost: 1,
                    attempt: 0,
                    charged: true,
                },
                Event::ProbeRetried {
                    t,
                    resource,
                    attempt: 1,
                },
                Event::ProbeIssued {
                    t,
                    resource,
                    cost: 1,
                    shared_eis: 2,
                },
                Event::ChrononEnd {
                    t,
                    spent: 2,
                    budget: 2,
                },
            ]);
            w.frame(t, u64::from(t), &lines);
            if t == 1 {
                w.live_mutation(2, Mutation::Cancel { cei: CeiId(1) })
                    .unwrap();
            }
            if t % 2 == 0 {
                w.snapshot(&tiny_snapshot(t + 1));
            }
        }
        w.finish();
        let bytes = file.bytes.lock().unwrap().clone();
        let mut extents = Vec::new();
        let mut offset = 0;
        while let Some(rec) = parse_record(&bytes, offset).unwrap() {
            extents.push((rec.offset, rec.end));
            offset = rec.end;
        }
        (bytes, extents)
    }

    /// Scans `bytes` and plans a recovery from them: a structured result
    /// either way, never a panic. Returns whether both succeeded.
    fn scan_and_plan(bytes: &[u8]) -> bool {
        scan_bytes(bytes)
            .and_then(|scan| Recovery::plan(&scan))
            .is_ok()
    }

    /// Every truncation, a sample of single-byte flips, and records whose
    /// payload was damaged and then re-checksummed — so the header, frame,
    /// live-record and snapshot parsers all see bad input — scan and plan
    /// to an `Ok` or an `Err`, never a panic.
    #[test]
    fn damaged_journals_never_panic() {
        let (bytes, extents) = small_journal();
        assert_eq!(extents.len(), 7, "header, 3 frames, 1 live, 2 snapshots");
        let scan = scan_bytes(&bytes).unwrap();
        assert_eq!((scan.frames.len(), scan.snapshots.len()), (3, 2));
        assert_eq!(scan.live.len(), 1);
        assert!(scan_and_plan(&bytes));

        for cut in 0..bytes.len() {
            scan_and_plan(&bytes[..cut]);
        }
        let mut flipped = bytes.clone();
        for i in (0..bytes.len()).step_by(3) {
            for mask in [0x01, 0x80, 0xFF] {
                flipped[i] ^= mask;
                scan_and_plan(&flipped);
                flipped[i] ^= mask;
            }
        }
        let (mut ok, mut failed) = (0, 0);
        for &(offset, end) in &extents {
            let kind = bytes[offset + 4];
            let payload = &bytes[offset + 5..end - 4];
            for i in 0..payload.len() {
                for mask in [0x01, 0x20, 0xFF] {
                    let mut damaged = payload.to_vec();
                    damaged[i] ^= mask;
                    let mut journal = bytes[..offset].to_vec();
                    write_record(&mut journal, kind, &[&damaged], Path::new("damaged")).unwrap();
                    journal.extend_from_slice(&bytes[end..]);
                    if scan_and_plan(&journal) {
                        ok += 1;
                    } else {
                        failed += 1;
                    }
                }
            }
        }
        assert!(
            ok > 0 && failed > 0,
            "{ok} damaged journals planned, {failed} refused"
        );
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
        w.append(Append::Snapshot, KIND_SNAPSHOT, &[&encoded])
            .unwrap();
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
            Event::ProbeRetried {
                t: 0,
                resource: ResourceId(1),
                attempt: 1,
            },
            Event::ProbeIssued {
                t: 0,
                resource: ResourceId(1),
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
        let rf = &rec.frames[0];
        let attempt = |r, attempt, ok| Attempt {
            resource: ResourceId(r),
            attempt,
            ok,
        };
        // A success's attempt number comes from the retry announcing it.
        assert_eq!(
            rf.attempts,
            vec![
                attempt(1, 0, false),
                attempt(2, 0, true),
                attempt(1, 1, true)
            ]
        );
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
