//! Engine-state snapshots: everything the online engine carries across a
//! chronon boundary, and the compact binary codec the journal stores them
//! in, so a crashed daemon can resume mid-run. A running engine copies its
//! boundary state into a flat [`SnapshotImage`] — plain copies into reused
//! storage, the only part of a snapshot its thread pays for — and hands it
//! to a [`SnapshotSink`]; a daemon's journal encodes the image on its
//! writer thread. [`EngineSnapshot`] is the decode, validate and restore
//! side.
//!
//! A snapshot is captured at the *top* of the chronon loop — after chronon
//! `at - 1` completed, before any of chronon `at`'s work (including the
//! promotion of a pending budget reconfiguration, which is part of chronon
//! `at` and therefore recorded still-pending). Restoring a snapshot and
//! running chronons `at..horizon` with the same nondeterministic inputs is
//! bit-identical — schedule, stats, outcomes, event stream — to the
//! uninterrupted run; `tests/tests/recovery.rs` pins this contract across
//! the conformance corpus.
//!
//! Two details make the state closure exact rather than approximate:
//!
//! * the candidate index records the **live entries of every per-resource
//!   list in list order**, not merely a liveness set — shared captures
//!   ([`Event::EiCaptured`]) fire in list order, so order is observable in
//!   the event stream;
//! * the fault bookkeeping (`announced` outage horizons, failure streaks,
//!   backoff deadlines) rides along, so a resumed run neither re-announces
//!   a steady outage nor forgets a backoff.
//!
//! # Binary encoding
//!
//! [`EngineSnapshot::encode`] writes the payload of a journal snapshot
//! record (`JOURNAL_VERSION` 3); [`EngineSnapshot::decode`] reads it back.
//! One function owns the layout and takes the fields borrowed
//! (`SnapshotRef::encode`): `EngineSnapshot::encode` lends it its own
//! fields, and [`SnapshotImage::encode`] the image's, so an engine's
//! snapshot is encoded without building an `EngineSnapshot` first, on
//! whichever thread holds the image.
//!
//! Fields follow in struct order, little-endian: `u32` for chronons, ids and
//! counts, `u16` for EI indexes, `u64` for counters, `f64` as its IEEE bits.
//!
//! * A CEI state is a tag byte (`0` not arrived, `1` active, `2` captured,
//!   `3` failed, `4` cancelled); an active one carries its captured and
//!   expired flags as two bit vectors, each a `u32` length then the flags
//!   packed eight to a byte, lowest bit first.
//! * An outcome is a tag byte (`0` pending, `1` captured, `2` failed,
//!   `3` cancelled), followed by its chronon unless pending.
//! * `Option<u32>` is a tag byte (`0` none, `1` some) and the value if some.
//! * The stats are every [`RunStats`] field, `by_size` as a count of
//!   `(size u16, captured u64, total u64)` rows in ascending size order.
//! * The schedule is its resource count, its horizon, then one row per
//!   chronon: a count and that many ascending resource ids.
//! * Every list is a `u32` count followed by its elements.
//!
//! At serve scale (~38k CEIs) a snapshot is ~170 KB. `decode(encode(s)) ==
//! s` for every snapshot, including ones [`EngineSnapshot::validate`]
//! rejects: decoding checks the encoding, never the semantics. It never
//! panics on hostile bytes either — every count is checked against the
//! bytes left before anything is allocated, and unknown tags, non-canonical
//! bit padding, unsorted schedule rows and trailing bytes are
//! [`SnapshotDecodeError`]s naming the field.
//!
//! [`Event::EiCaptured`]: crate::obs::Event::EiCaptured

use crate::engine::Status;
use crate::model::{Chronon, Epoch, Instance, ResourceId, Schedule};
use crate::stats::{CeiOutcome, RunStats, SizeBucket};
use std::collections::BTreeMap;
use std::fmt;

/// One CEI's lifecycle state inside a snapshot, mirroring the engine's
/// private status enum. `Active` carries the per-EI captured/expired flags
/// (counts are recomputed on restore).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CeiState {
    /// Release chronon not reached yet.
    NotArrived,
    /// Released and still being tracked.
    Active {
        /// Per-EI captured flags, parallel to the CEI's EIs.
        captured: Vec<bool>,
        /// Per-EI expired-uncaptured flags, parallel to the CEI's EIs.
        expired: Vec<bool>,
    },
    /// Resolved: threshold met.
    Captured,
    /// Resolved: doomed by expiry or shedding.
    Failed,
    /// Resolved: cancelled through the mutation API.
    Cancelled,
}

impl CeiState {
    fn borrowed(&self) -> CeiStateRef<'_> {
        match self {
            CeiState::NotArrived => CeiStateRef::NotArrived,
            CeiState::Active { captured, expired } => CeiStateRef::Active { captured, expired },
            CeiState::Captured => CeiStateRef::Captured,
            CeiState::Failed => CeiStateRef::Failed,
            CeiState::Cancelled => CeiStateRef::Cancelled,
        }
    }
}

/// A [`CeiState`] with its flags borrowed, for the encoder.
pub(crate) enum CeiStateRef<'a> {
    NotArrived,
    Active {
        captured: &'a [bool],
        expired: &'a [bool],
    },
    Captured,
    Failed,
    Cancelled,
}

/// Every field of a snapshot, borrowed from wherever it lives — an
/// [`EngineSnapshot`], or a [`SnapshotImage`] of a running engine's state —
/// for the one function that owns the byte layout,
/// [`encode`](Self::encode). `status` yields one state per CEI, `outcomes`
/// one outcome per CEI; `index` yields one resource list each: its entry
/// count and its entries `(cei, ei_idx)` in list order.
pub(crate) struct SnapshotRef<'a, S, O, L> {
    pub(crate) at: Chronon,
    pub(crate) status: S,
    pub(crate) outcomes: O,
    pub(crate) stats: &'a RunStats,
    pub(crate) schedule: &'a Schedule,
    pub(crate) budget_override: Option<u32>,
    pub(crate) pending_budget: Option<u32>,
    pub(crate) announced: &'a [Option<Chronon>],
    pub(crate) consec_failures: &'a [u32],
    pub(crate) next_attempt_at: &'a [Chronon],
    pub(crate) index: L,
}

impl<'a, S, O, L, E> SnapshotRef<'a, S, O, L>
where
    S: ExactSizeIterator<Item = CeiStateRef<'a>>,
    O: ExactSizeIterator<Item = CeiOutcome>,
    L: ExactSizeIterator<Item = (usize, E)>,
    E: Iterator<Item = (u32, u16)>,
{
    /// Appends the binary encoding (see the module docs) to `out`.
    ///
    /// # Panics
    /// Panics if a resource list yields another number of entries than its
    /// count: the bytes would not decode.
    pub(crate) fn encode(self, out: &mut Vec<u8>) {
        // Destructured exhaustively: a new field fails to compile until the
        // codec carries it.
        let SnapshotRef {
            at,
            status,
            outcomes,
            stats,
            schedule,
            budget_override,
            pending_budget,
            announced,
            consec_failures,
            next_attempt_at,
            index,
        } = self;
        let mut w = Writer(out);
        w.u32(at);
        w.len(status.len());
        for state in status {
            match state {
                CeiStateRef::NotArrived => w.u8(0),
                CeiStateRef::Active { captured, expired } => {
                    w.u8(1);
                    w.bits(captured);
                    w.bits(expired);
                }
                CeiStateRef::Captured => w.u8(2),
                CeiStateRef::Failed => w.u8(3),
                CeiStateRef::Cancelled => w.u8(4),
            }
        }
        w.len(outcomes.len());
        for outcome in outcomes {
            let (tag, at) = match outcome {
                CeiOutcome::Pending => (0, None),
                CeiOutcome::Captured { at } => (1, Some(at)),
                CeiOutcome::Failed { at } => (2, Some(at)),
                CeiOutcome::Cancelled { at } => (3, Some(at)),
            };
            w.u8(tag);
            if let Some(at) = at {
                w.u32(at);
            }
        }
        w.stats(stats);
        w.u32(schedule.n_resources());
        w.u32(schedule.horizon());
        for t in 0..schedule.horizon() {
            let row = schedule.probes_at(t);
            w.len(row.len());
            for r in row {
                w.u32(r.0);
            }
        }
        w.opt(budget_override);
        w.opt(pending_budget);
        w.len(announced.len());
        for &until in announced {
            w.opt(until);
        }
        w.u32s(consec_failures);
        w.u32s(next_attempt_at);
        w.len(index.len());
        for (count, entries) in index {
            w.len(count);
            let mut written = 0;
            for (cei, ei_idx) in entries {
                w.u32(cei);
                w.u16(ei_idx);
                written += 1;
            }
            assert_eq!(
                written, count,
                "a resource list's count disagrees with its entries"
            );
        }
    }
}

/// The engine's complete cross-chronon state at a chronon boundary.
///
/// Everything per-chronon (candidate scores, retry usage, down snapshots,
/// probed-now flags) is recomputed by the resumed loop; everything here is
/// exactly the state that survives a boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSnapshot {
    /// The chronon about to run when this snapshot was captured.
    pub at: Chronon,
    /// Per-CEI lifecycle state, indexed by CEI id.
    pub status: Vec<CeiState>,
    /// Per-CEI outcomes recorded so far, indexed by CEI id.
    pub outcomes: Vec<CeiOutcome>,
    /// Aggregate statistics through chronon `at - 1`.
    pub stats: RunStats,
    /// Probes issued through chronon `at - 1`.
    pub schedule: Schedule,
    /// The budget override in force (from an applied `SetBudget`).
    pub budget_override: Option<u32>,
    /// A `SetBudget` drained last chronon, not yet promoted — promotion is
    /// chronon `at`'s first action and must happen exactly once.
    pub pending_budget: Option<u32>,
    /// Last announced outage horizon per resource (empty when the run has
    /// no fault model).
    pub announced: Vec<Option<Chronon>>,
    /// Consecutive probe-failure streak per resource (empty when faultless).
    pub consec_failures: Vec<u32>,
    /// Backoff deadline per resource (empty when faultless).
    pub next_attempt_at: Vec<Chronon>,
    /// Live candidate entries `(cei, ei_idx)` of every per-resource list,
    /// in exact list order — the order shared captures fire in.
    pub index: Vec<Vec<(u32, u16)>>,
}

/// A snapshot that cannot resume the run it was offered to — the error of
/// [`EngineSnapshot::validate`], and of a resume from such a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotMismatch {
    /// The snapshot's boundary chronon.
    pub at: Chronon,
    /// What disagrees.
    pub detail: String,
}

impl fmt::Display for SnapshotMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "snapshot at chronon {} does not fit this run: {}",
            self.at, self.detail
        )
    }
}

impl std::error::Error for SnapshotMismatch {}

impl EngineSnapshot {
    /// Checks that this snapshot can resume a run over `instance` — every
    /// length, index and flag the engine restores, so a mismatched or
    /// hand-edited snapshot is an error here instead of a panic mid-run.
    /// `faulted` says whether the resuming run has a fault model (its
    /// per-resource fault bookkeeping is restored only then). The error
    /// names what disagrees.
    pub fn validate(&self, instance: &Instance, faulted: bool) -> Result<(), SnapshotMismatch> {
        self.check(instance, faulted)
            .map_err(|detail| SnapshotMismatch {
                at: self.at,
                detail,
            })
    }

    fn check(&self, instance: &Instance, faulted: bool) -> Result<(), String> {
        let n_ceis = instance.ceis.len();
        let n_res = instance.n_resources as usize;
        let horizon = instance.epoch.len();
        let lengths = [
            ("CEI states", self.status.len(), n_ceis),
            ("CEI outcomes", self.outcomes.len(), n_ceis),
            ("resource lists", self.index.len(), n_res),
            (
                "schedule resources",
                self.schedule.n_resources() as usize,
                n_res,
            ),
            (
                "schedule chronons",
                self.schedule.horizon() as usize,
                horizon as usize,
            ),
        ];
        for (what, found, expected) in lengths {
            if found != expected {
                return Err(format!("{found} {what}, the instance has {expected}"));
            }
        }
        if self.at >= horizon {
            return Err(format!(
                "boundary {} is past the horizon {horizon}",
                self.at
            ));
        }
        if faulted {
            for (what, found) in [
                ("outage horizons", self.announced.len()),
                ("failure streaks", self.consec_failures.len()),
                ("backoff deadlines", self.next_attempt_at.len()),
            ] {
                if found != n_res {
                    return Err(format!(
                        "{found} {what}, the instance has {n_res} resources"
                    ));
                }
            }
        }
        for (i, state) in self.status.iter().enumerate() {
            if let CeiState::Active { captured, expired } = state {
                let size = instance.ceis[i].size();
                if captured.len() != size || expired.len() != size {
                    return Err(format!("CEI {i} has {size} EIs but other flag counts"));
                }
                if captured.iter().zip(expired).any(|(&c, &e)| c && e) {
                    return Err(format!("CEI {i} has an EI both captured and expired"));
                }
            }
        }
        // Every index entry must be a live candidate at the boundary: an
        // open, uncaptured, unexpired EI of an active CEI, on its own
        // resource's list, listed once.
        let mut seen = std::collections::HashSet::new();
        for (r, entries) in self.index.iter().enumerate() {
            for &(cei, ei_idx) in entries {
                let bad = |why: &str| {
                    Err(format!(
                        "index entry ({cei}, {ei_idx}) on resource {r} {why}"
                    ))
                };
                let Some(c) = instance.ceis.get(cei as usize) else {
                    return bad("names no CEI");
                };
                let Some(ei) = c.eis.get(usize::from(ei_idx)) else {
                    return bad("names no EI");
                };
                if ei.resource.index() != r {
                    return bad("is on another resource");
                }
                if !(ei.start < self.at && self.at <= ei.end) {
                    return bad("is not open at the boundary");
                }
                let CeiState::Active { captured, expired } = &self.status[cei as usize] else {
                    return bad("belongs to an inactive CEI");
                };
                if captured[usize::from(ei_idx)] || expired[usize::from(ei_idx)] {
                    return bad("is already captured or expired");
                }
                if !seen.insert((cei, ei_idx)) {
                    return bad("is listed twice");
                }
            }
        }
        // A CEI resolves exactly when its outcome is recorded.
        for (i, (state, outcome)) in self.status.iter().zip(&self.outcomes).enumerate() {
            let resolved = !matches!(state, CeiState::NotArrived | CeiState::Active { .. });
            let agrees = match outcome {
                CeiOutcome::Pending => !resolved,
                CeiOutcome::Captured { .. } => *state == CeiState::Captured,
                CeiOutcome::Failed { .. } => *state == CeiState::Failed,
                CeiOutcome::Cancelled { .. } => *state == CeiState::Cancelled,
            };
            if !agrees {
                return Err(format!(
                    "CEI {i}'s outcome {outcome:?} disagrees with its state"
                ));
            }
        }
        Ok(())
    }

    /// Appends this snapshot's binary encoding (see the module docs) to
    /// `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        // Destructured exhaustively: a new field fails to compile until it
        // is handed to the codec.
        let EngineSnapshot {
            at,
            status,
            outcomes,
            stats,
            schedule,
            budget_override,
            pending_budget,
            announced,
            consec_failures,
            next_attempt_at,
            index,
        } = self;
        SnapshotRef {
            at: *at,
            status: status.iter().map(CeiState::borrowed),
            outcomes: outcomes.iter().copied(),
            stats,
            schedule,
            budget_override: *budget_override,
            pending_budget: *pending_budget,
            announced,
            consec_failures,
            next_attempt_at,
            index: index
                .iter()
                .map(|entries| (entries.len(), entries.iter().copied())),
        }
        .encode(out);
    }

    /// Decodes a payload [`encode`](Self::encode) wrote. This checks the
    /// encoding — counts against the bytes left, tags, bit padding,
    /// schedule rows, trailing bytes — and never panics; whether the
    /// snapshot fits an instance is [`validate`](Self::validate)'s job.
    pub fn decode(bytes: &[u8]) -> Result<EngineSnapshot, SnapshotDecodeError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        let at = r.u32("at")?;
        let n = r.len("status", 1)?;
        let mut status = Vec::with_capacity(n);
        for _ in 0..n {
            status.push(match r.u8("status")? {
                0 => CeiState::NotArrived,
                1 => CeiState::Active {
                    captured: r.bits("status")?,
                    expired: r.bits("status")?,
                },
                2 => CeiState::Captured,
                3 => CeiState::Failed,
                4 => CeiState::Cancelled,
                tag => return Err(r.bad_tag("status", tag)),
            });
        }
        let n = r.len("outcomes", 1)?;
        let mut outcomes = Vec::with_capacity(n);
        for _ in 0..n {
            outcomes.push(match r.u8("outcomes")? {
                0 => CeiOutcome::Pending,
                1 => CeiOutcome::Captured {
                    at: r.u32("outcomes")?,
                },
                2 => CeiOutcome::Failed {
                    at: r.u32("outcomes")?,
                },
                3 => CeiOutcome::Cancelled {
                    at: r.u32("outcomes")?,
                },
                tag => return Err(r.bad_tag("outcomes", tag)),
            });
        }
        let stats = r.stats()?;
        let schedule = r.schedule()?;
        let budget_override = r.opt("budget_override")?;
        let pending_budget = r.opt("pending_budget")?;
        let n = r.len("announced", 1)?;
        let announced = (0..n)
            .map(|_| r.opt("announced"))
            .collect::<Result<_, _>>()?;
        let consec_failures = r.u32s("consec_failures")?;
        let next_attempt_at = r.u32s("next_attempt_at")?;
        let n = r.len("index", 4)?;
        let mut index = Vec::with_capacity(n);
        for _ in 0..n {
            let m = r.len("index", 6)?;
            let mut entries = Vec::with_capacity(m);
            for _ in 0..m {
                entries.push((r.u32("index")?, r.u16("index")?));
            }
            index.push(entries);
        }
        let trailing = bytes.len() - r.pos;
        if trailing > 0 {
            return Err(r.error("end", format!("{trailing} trailing bytes")));
        }
        Ok(EngineSnapshot {
            at,
            status,
            outcomes,
            stats,
            schedule,
            budget_override,
            pending_budget,
            announced,
            consec_failures,
            next_attempt_at,
            index,
        })
    }
}

/// Why a snapshot payload does not decode: the field being read, where it
/// starts, and what is wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotDecodeError {
    /// The snapshot field being decoded.
    pub field: &'static str,
    /// Byte offset of the bad value inside the payload.
    pub offset: usize,
    /// What is wrong.
    pub detail: String,
}

impl fmt::Display for SnapshotDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "snapshot field `{}` at payload byte {}: {}",
            self.field, self.offset, self.detail
        )
    }
}

impl std::error::Error for SnapshotDecodeError {}

/// The encoding side of the codec: little-endian appends to a buffer.
struct Writer<'a>(&'a mut Vec<u8>);

impl Writer<'_> {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn len(&mut self, n: usize) {
        // Snapshot lists are indexed by u32 CEI and resource ids.
        self.u32(u32::try_from(n).expect("snapshot list lengths fit in u32"));
    }
    fn u32s(&mut self, vs: &[u32]) {
        self.len(vs.len());
        for &v in vs {
            self.u32(v);
        }
    }
    fn opt(&mut self, v: Option<u32>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.u32(v);
            }
        }
    }
    fn bits(&mut self, flags: &[bool]) {
        self.len(flags.len());
        for chunk in flags.chunks(8) {
            let byte = chunk
                .iter()
                .enumerate()
                .fold(0u8, |b, (i, &f)| b | (u8::from(f) << i));
            self.u8(byte);
        }
    }
    fn stats(&mut self, stats: &RunStats) {
        let RunStats {
            n_ceis,
            ceis_captured,
            ceis_failed,
            n_eis,
            eis_captured,
            probes_used,
            budget_spent,
            probes_available,
            by_size,
            weight_total,
            weight_captured,
            probes_failed,
            budget_lost,
            ceis_shed,
            ceis_cancelled,
        } = stats;
        for &n in [
            n_ceis,
            ceis_captured,
            ceis_failed,
            n_eis,
            eis_captured,
            probes_used,
            budget_spent,
            probes_available,
        ] {
            self.u64(n);
        }
        self.len(by_size.len());
        for (&size, &SizeBucket { captured, total }) in by_size {
            self.u16(size);
            self.u64(captured);
            self.u64(total);
        }
        self.u64(weight_total.to_bits());
        self.u64(weight_captured.to_bits());
        for &n in [probes_failed, budget_lost, ceis_shed, ceis_cancelled] {
            self.u64(n);
        }
    }
}

/// The decoding side of the codec: a cursor that checks every read against
/// the bytes left.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn error(&self, field: &'static str, detail: String) -> SnapshotDecodeError {
        SnapshotDecodeError {
            field,
            offset: self.pos,
            detail,
        }
    }

    /// The error for the tag byte just read.
    fn bad_tag(&self, field: &'static str, tag: u8) -> SnapshotDecodeError {
        SnapshotDecodeError {
            field,
            offset: self.pos - 1,
            detail: format!("unknown tag {tag}"),
        }
    }

    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], SnapshotDecodeError> {
        let left = self.buf.len() - self.pos;
        if n > left {
            return Err(self.error(field, format!("needs {n} bytes, {left} left")));
        }
        let bytes = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(bytes)
    }

    fn array<const N: usize>(
        &mut self,
        field: &'static str,
    ) -> Result<[u8; N], SnapshotDecodeError> {
        let bytes = self.take(N, field)?;
        Ok(bytes.try_into().expect("take returns exactly N bytes"))
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, SnapshotDecodeError> {
        Ok(self.take(1, field)?[0])
    }
    fn u16(&mut self, field: &'static str) -> Result<u16, SnapshotDecodeError> {
        self.array(field).map(u16::from_le_bytes)
    }
    fn u32(&mut self, field: &'static str) -> Result<u32, SnapshotDecodeError> {
        self.array(field).map(u32::from_le_bytes)
    }
    fn u64(&mut self, field: &'static str) -> Result<u64, SnapshotDecodeError> {
        self.array(field).map(u64::from_le_bytes)
    }
    fn f64(&mut self, field: &'static str) -> Result<f64, SnapshotDecodeError> {
        self.u64(field).map(f64::from_bits)
    }

    /// A list count, refused unless `n` elements of at least `min_bytes`
    /// each fit in the bytes left — checked before anything is allocated.
    fn len(&mut self, field: &'static str, min_bytes: usize) -> Result<usize, SnapshotDecodeError> {
        let n = self.u32(field)? as usize;
        let left = self.buf.len() - self.pos;
        if n.saturating_mul(min_bytes) > left {
            self.pos -= 4;
            return Err(self.error(
                field,
                format!("{n} entries cannot fit in the {left} bytes left"),
            ));
        }
        Ok(n)
    }

    fn u32s(&mut self, field: &'static str) -> Result<Vec<u32>, SnapshotDecodeError> {
        let n = self.len(field, 4)?;
        (0..n).map(|_| self.u32(field)).collect()
    }

    fn opt(&mut self, field: &'static str) -> Result<Option<u32>, SnapshotDecodeError> {
        match self.u8(field)? {
            0 => Ok(None),
            1 => self.u32(field).map(Some),
            tag => Err(self.bad_tag(field, tag)),
        }
    }

    fn bits(&mut self, field: &'static str) -> Result<Vec<bool>, SnapshotDecodeError> {
        let n = self.u32(field)? as usize;
        let packed = self.take(n.div_ceil(8), field)?;
        if let Some(&last) = packed.last() {
            // 1..=8 flags live in the last byte; the bits above them are
            // padding and must be zero, so every snapshot has one encoding.
            let used = n - 8 * (packed.len() - 1);
            if u16::from(last) >> used != 0 {
                self.pos -= 1;
                return Err(self.error(field, "nonzero padding bits".into()));
            }
        }
        Ok((0..n)
            .map(|i| (packed[i / 8] >> (i % 8)) & 1 == 1)
            .collect())
    }

    fn stats(&mut self) -> Result<RunStats, SnapshotDecodeError> {
        let f = "stats";
        // Struct-literal fields evaluate in the order written: the
        // encoder's order.
        Ok(RunStats {
            n_ceis: self.u64(f)?,
            ceis_captured: self.u64(f)?,
            ceis_failed: self.u64(f)?,
            n_eis: self.u64(f)?,
            eis_captured: self.u64(f)?,
            probes_used: self.u64(f)?,
            budget_spent: self.u64(f)?,
            probes_available: self.u64(f)?,
            by_size: self.by_size()?,
            weight_total: self.f64(f)?,
            weight_captured: self.f64(f)?,
            probes_failed: self.u64(f)?,
            budget_lost: self.u64(f)?,
            ceis_shed: self.u64(f)?,
            ceis_cancelled: self.u64(f)?,
        })
    }

    fn by_size(&mut self) -> Result<BTreeMap<u16, SizeBucket>, SnapshotDecodeError> {
        let f = "stats.by_size";
        let n = self.len(f, 18)?;
        let mut by_size = BTreeMap::new();
        for _ in 0..n {
            let size = self.u16(f)?;
            if by_size
                .last_key_value()
                .is_some_and(|(&last, _)| size <= last)
            {
                self.pos -= 2;
                return Err(self.error(f, format!("size {size} out of ascending order")));
            }
            let captured = self.u64(f)?;
            let total = self.u64(f)?;
            by_size.insert(size, SizeBucket { captured, total });
        }
        Ok(by_size)
    }

    fn schedule(&mut self) -> Result<Schedule, SnapshotDecodeError> {
        let n_resources = self.u32("schedule")?;
        // Every row carries at least its count.
        let horizon = self.len("schedule", 4)? as Chronon;
        if horizon == 0 {
            self.pos -= 4;
            return Err(self.error("schedule", "an epoch has at least one chronon".into()));
        }
        let mut schedule = Schedule::new(n_resources, Epoch::new(horizon));
        for t in 0..horizon {
            let n = self.len("schedule", 4)?;
            let mut prev = None;
            for _ in 0..n {
                let r = self.u32("schedule")?;
                // `probe` asserts the range and would sort or merge a row
                // that is not strictly ascending, so such rows are refused.
                if r >= n_resources || prev.is_some_and(|p| r <= p) {
                    self.pos -= 4;
                    return Err(self.error(
                        "schedule",
                        format!(
                            "chronon {t}: resource {r} out of order or outside \
                             {n_resources} resources"
                        ),
                    ));
                }
                schedule.probe(ResourceId(r), t);
                prev = Some(r);
            }
        }
        Ok(schedule)
    }
}

/// A running engine's boundary state, copied flat: what a snapshot costs
/// the engine thread. The engine fills an image with plain copies of its
/// run state into storage the image keeps from its last use (no encoding,
/// no allocation once warm), and [`encode`](Self::encode) — on whatever
/// thread holds the image, the journal's writer thread in a daemon —
/// writes the bytes [`EngineSnapshot::encode`] writes for the snapshot the
/// engine would build at that boundary.
///
/// An image holds the per-CEI lifecycle states; the candidate index's flat
/// captured and expired flags over every EI, with the per-CEI offsets into
/// them (static for a run, so copied once per image and run); the outcomes,
/// stats and the schedule rows before the boundary (an image reused in one
/// run copies only the rows it lacks); the fault bookkeeping; and every
/// resource list's live entries in list order, with their counts.
#[derive(Debug, Clone)]
pub struct SnapshotImage {
    /// The boundary chronon.
    pub(crate) at: Chronon,
    /// The run that filled the image (`0`: none yet).
    pub(crate) run: u64,
    pub(crate) status: Vec<Status>,
    /// Per global EI id; CEI `c`'s EIs are `ei_base[c]..ei_base[c + 1]`.
    pub(crate) captured: Vec<bool>,
    pub(crate) expired: Vec<bool>,
    pub(crate) ei_base: Vec<u32>,
    /// The chronon each resolved CEI resolved at; with its status, its
    /// outcome.
    pub(crate) resolved_at: Vec<Chronon>,
    pub(crate) stats: RunStats,
    /// The run's schedule, through chronon `at - 1`.
    pub(crate) schedule: Schedule,
    pub(crate) budget_override: Option<u32>,
    pub(crate) pending_budget: Option<u32>,
    pub(crate) announced: Vec<Option<Chronon>>,
    pub(crate) consec_failures: Vec<u32>,
    pub(crate) next_attempt_at: Vec<Chronon>,
    /// Live entries per resource list, then every list's live entries
    /// `(cei, ei_idx)`, list after list, each in list order.
    pub(crate) counts: Vec<u32>,
    pub(crate) entries: Vec<(u32, u16)>,
}

impl Default for SnapshotImage {
    fn default() -> Self {
        SnapshotImage {
            at: 0,
            run: 0,
            status: Vec::new(),
            captured: Vec::new(),
            expired: Vec::new(),
            ei_base: vec![0],
            resolved_at: Vec::new(),
            stats: RunStats::default(),
            schedule: Schedule::new(0, Epoch::new(1)),
            budget_override: None,
            pending_budget: None,
            announced: Vec::new(),
            consec_failures: Vec::new(),
            next_attempt_at: Vec::new(),
            counts: Vec::new(),
            entries: Vec::new(),
        }
    }
}

impl SnapshotImage {
    /// The boundary chronon the image was captured at.
    pub fn at(&self) -> Chronon {
        self.at
    }

    /// The bytes the image's arrays hold: what it weighs in a queue.
    pub(crate) fn bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&self.status[..])
            + size_of_val(&self.captured[..])
            + size_of_val(&self.expired[..])
            + size_of_val(&self.ei_base[..])
            + size_of_val(&self.resolved_at[..])
            + size_of_val(&self.announced[..])
            + size_of_val(&self.consec_failures[..])
            + size_of_val(&self.next_attempt_at[..])
            + size_of_val(&self.counts[..])
            + size_of_val(&self.entries[..])
    }

    /// Appends the encoding of the snapshot the image describes: the bytes
    /// of [`EngineSnapshot::encode`].
    pub fn encode(&self, out: &mut Vec<u8>) {
        let flags = |eis: &[u32]| eis[0] as usize..eis[1] as usize;
        let mut listed = 0;
        SnapshotRef {
            at: self.at,
            status: self.status.iter().zip(self.ei_base.windows(2)).map(
                |(status, eis)| match status {
                    Status::NotArrived => CeiStateRef::NotArrived,
                    Status::Active => CeiStateRef::Active {
                        captured: &self.captured[flags(eis)],
                        expired: &self.expired[flags(eis)],
                    },
                    Status::Captured => CeiStateRef::Captured,
                    Status::Failed => CeiStateRef::Failed,
                    Status::Cancelled => CeiStateRef::Cancelled,
                },
            ),
            outcomes: (self.status.iter().zip(&self.resolved_at))
                .map(|(status, &at)| status.outcome(at)),
            stats: &self.stats,
            schedule: &self.schedule,
            budget_override: self.budget_override,
            pending_budget: self.pending_budget,
            announced: &self.announced,
            consec_failures: &self.consec_failures,
            next_attempt_at: &self.next_attempt_at,
            index: self.counts.iter().map(|&count| {
                let list = &self.entries[listed..listed + count as usize];
                listed += count as usize;
                (list.len(), list.iter().copied())
            }),
        }
        .encode(out);
    }
}

#[cfg(test)]
impl SnapshotImage {
    /// The image of `snap`, as if an engine in its state had filled it: its
    /// outcomes must agree with its states, as [`EngineSnapshot::validate`]
    /// requires, and a CEI that is not active gets no flags.
    pub(crate) fn of(snap: &EngineSnapshot) -> Self {
        let mut image = SnapshotImage {
            at: snap.at,
            stats: snap.stats.clone(),
            schedule: snap.schedule.clone(),
            budget_override: snap.budget_override,
            pending_budget: snap.pending_budget,
            announced: snap.announced.clone(),
            consec_failures: snap.consec_failures.clone(),
            next_attempt_at: snap.next_attempt_at.clone(),
            ..SnapshotImage::default()
        };
        for state in &snap.status {
            image.status.push(match state {
                CeiState::NotArrived => Status::NotArrived,
                CeiState::Active { captured, expired } => {
                    image.captured.extend_from_slice(captured);
                    image.expired.extend_from_slice(expired);
                    Status::Active
                }
                CeiState::Captured => Status::Captured,
                CeiState::Failed => Status::Failed,
                CeiState::Cancelled => Status::Cancelled,
            });
            image.ei_base.push(image.captured.len() as u32);
        }
        image.resolved_at = snap.outcomes.iter().map(|o| o.at().unwrap_or(0)).collect();
        for list in &snap.index {
            image.counts.push(list.len() as u32);
            image.entries.extend_from_slice(list);
        }
        image
    }
}

/// Receives engine snapshots at chronon boundaries.
///
/// The engine asks [`wants`](Self::wants) at the top of every chronon and
/// copies its state into an image only on `true`; a sink that always
/// declines costs one virtual call per chronon.
pub trait SnapshotSink {
    /// Whether a snapshot at the boundary of chronon `t` should be taken.
    fn wants(&mut self, t: Chronon) -> bool;
    /// Receives the image of the boundary a `wants(t) == true` requested.
    /// A sink keeps it by swapping `image` with an image of its own — a
    /// default one, or one this run handed it before: the engine overwrites
    /// whatever image it gets back before it hands it over again.
    fn accept(&mut self, image: &mut SnapshotImage);
}

/// The no-op sink: never requests a snapshot.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoSnapshots;

impl SnapshotSink for NoSnapshots {
    fn wants(&mut self, _t: Chronon) -> bool {
        false
    }
    fn accept(&mut self, _image: &mut SnapshotImage) {}
}

/// A sink that captures every requested boundary into memory — the building
/// block tests use to snapshot at an exact chronon. It encodes each image
/// and decodes the bytes, the same bytes a journal stores.
#[derive(Debug, Clone, Default)]
pub struct CaptureAt {
    /// The boundaries to capture.
    pub at: Vec<Chronon>,
    /// The captured snapshots, in boundary order.
    pub taken: Vec<EngineSnapshot>,
}

impl CaptureAt {
    /// A sink capturing exactly the boundaries in `at`.
    pub fn new(at: Vec<Chronon>) -> Self {
        CaptureAt {
            at,
            taken: Vec::new(),
        }
    }
}

impl SnapshotSink for CaptureAt {
    fn wants(&mut self, t: Chronon) -> bool {
        self.at.contains(&t)
    }
    fn accept(&mut self, image: &mut SnapshotImage) {
        let mut encoded = Vec::new();
        image.encode(&mut encoded);
        let snapshot = EngineSnapshot::decode(&encoded).expect("the engine's encoding decodes");
        self.taken.push(snapshot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot touching every field and variant, with the edge values
    /// the encoding must carry exactly.
    fn sample() -> EngineSnapshot {
        let flags = |n: usize, every: usize| (0..n).map(|i| i % every == 0).collect::<Vec<_>>();
        let active = |n: usize| CeiState::Active {
            captured: flags(n, 3),
            expired: flags(n, 5).iter().map(|&e| !e).collect(),
        };
        EngineSnapshot {
            at: 7,
            // CEI sizes on and around the byte boundaries of the bit
            // vectors, plus the empty and a multi-byte-count CEI.
            status: [0, 1, 7, 8, 9, 16, 17, 300]
                .into_iter()
                .map(active)
                .chain([
                    CeiState::NotArrived,
                    CeiState::Captured,
                    CeiState::Failed,
                    CeiState::Cancelled,
                ])
                .collect(),
            outcomes: vec![
                CeiOutcome::Pending,
                CeiOutcome::Captured { at: 0 },
                CeiOutcome::Failed { at: 5 },
                CeiOutcome::Cancelled { at: u32::MAX },
            ],
            stats: RunStats {
                n_ceis: 12,
                ceis_captured: 1,
                ceis_failed: 2,
                n_eis: 358,
                eis_captured: 40,
                probes_used: 4,
                budget_spent: 5,
                probes_available: u64::MAX,
                by_size: [(1, 3, 4), (17, 0, 1), (u16::MAX, 2, 9)]
                    .into_iter()
                    .map(|(size, captured, total)| (size, SizeBucket { captured, total }))
                    .collect(),
                weight_total: 12.375,
                weight_captured: 0.1 + 0.2,
                probes_failed: 6,
                budget_lost: 7,
                ceis_shed: 8,
                ceis_cancelled: 9,
            },
            schedule: {
                let mut s = Schedule::new(300, Epoch::new(10));
                for (r, t) in [(1, 2), (0, 2), (299, 2), (5, 9)] {
                    s.probe(ResourceId(r), t);
                }
                s
            },
            budget_override: Some(0),
            pending_budget: None,
            announced: vec![None, Some(0), Some(u32::MAX)],
            consec_failures: vec![0, 2, u32::MAX],
            next_attempt_at: vec![],
            index: vec![vec![(1, 0)], vec![], vec![(u32::MAX, u16::MAX), (4, 299)]],
        }
    }

    fn roundtrip(snap: &EngineSnapshot) -> Vec<u8> {
        let mut bytes = Vec::new();
        snap.encode(&mut bytes);
        assert_eq!(EngineSnapshot::decode(&bytes).as_ref(), Ok(snap));
        bytes
    }

    #[test]
    fn snapshot_codec_roundtrip() {
        let snap = sample();
        let bytes = roundtrip(&snap);
        let back = EngineSnapshot::decode(&bytes).unwrap();
        // Non-integral weights survive bit for bit.
        assert_eq!(
            back.stats.weight_captured.to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
        // `Some(0)` and `None` stay distinct.
        assert_eq!((back.budget_override, back.pending_budget), (Some(0), None));
        // Encoding appends: a reused buffer holds exactly one snapshot
        // after a clear.
        let mut buf = vec![0xAA; 3];
        buf.clear();
        snap.encode(&mut buf);
        assert_eq!(buf, bytes);

        // Snapshots `validate` would reject still round-trip unchanged.
        let mut odd = snap.clone();
        odd.at = u32::MAX;
        odd.status = vec![CeiState::Active {
            captured: vec![true; 9],
            expired: vec![true],
        }];
        odd.outcomes.clear();
        odd.index = vec![];
        odd.stats = RunStats::default();
        roundtrip(&odd);
        let mut empty = odd;
        empty.status.clear();
        empty.announced.clear();
        empty.consec_failures.clear();
        empty.schedule = Schedule::new(0, Epoch::new(1));
        roundtrip(&empty);
    }

    #[test]
    fn an_image_encodes_the_snapshot_it_describes() {
        // An image holds one outcome per CEI, the one its state implies.
        let mut snap = sample();
        snap.outcomes = snap
            .status
            .iter()
            .map(|state| match state {
                CeiState::NotArrived | CeiState::Active { .. } => CeiOutcome::Pending,
                CeiState::Captured => CeiOutcome::Captured { at: 0 },
                CeiState::Failed => CeiOutcome::Failed { at: 5 },
                CeiState::Cancelled => CeiOutcome::Cancelled { at: u32::MAX },
            })
            .collect();
        let (mut want, mut got) = (Vec::new(), Vec::new());
        snap.encode(&mut want);
        SnapshotImage::of(&snap).encode(&mut got);
        assert_eq!(got, want);
        // A default image is the empty snapshot at boundary 0.
        got.clear();
        SnapshotImage::default().encode(&mut got);
        assert_eq!(EngineSnapshot::decode(&got).unwrap().status, vec![]);
    }

    #[test]
    fn decode_names_the_field_it_rejects() {
        let mut bytes = Vec::new();
        sample().encode(&mut bytes);
        let err = |bytes: &[u8]| EngineSnapshot::decode(bytes).unwrap_err();

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(err(&trailing).field, "end");

        // The first status tag follows `at` and the count.
        let mut tag = bytes.clone();
        tag[8] = 9;
        let e = err(&tag);
        assert_eq!((e.field, e.offset), ("status", 8));
        assert!(e.detail.contains("unknown tag 9"), "{e}");

        // A count larger than the payload is refused before allocating.
        let mut count = bytes.clone();
        count[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        let e = err(&count);
        assert_eq!((e.field, e.offset), ("status", 4));

        // The CEI of size 1 has seven zero padding bits above its flag.
        let mut pad = bytes.clone();
        let first_flags = 8 + 1 + 4 + 4; // tag + size-0 captured + expired
        pad[first_flags + 1 + 4] |= 0x80;
        assert!(err(&pad).detail.contains("padding"), "{}", err(&pad));

        // Unsorted, duplicate, out-of-range and empty schedules.
        let snap = sample();
        let mut stats_bytes = Vec::new();
        Writer(&mut stats_bytes).stats(&snap.stats);
        let body = |rows: &[Vec<u32>]| {
            let mut b = Vec::new();
            let mut w = Writer(&mut b);
            w.u32(0);
            w.len(0);
            w.len(0);
            b.extend_from_slice(&stats_bytes);
            let mut w = Writer(&mut b);
            w.u32(3);
            w.len(rows.len());
            for row in rows {
                w.u32s(row);
            }
            w.opt(None);
            w.opt(None);
            for _ in 0..4 {
                w.len(0);
            }
            b
        };
        assert!(EngineSnapshot::decode(&body(&[vec![0, 2]])).is_ok());
        for (rows, want) in [
            (vec![vec![2, 0]], "out of order"),
            (vec![vec![1, 1]], "out of order"),
            (vec![vec![3]], "outside 3 resources"),
            (vec![], "at least one chronon"),
        ] {
            let e = err(&body(&rows));
            assert_eq!(e.field, "schedule");
            assert!(e.detail.contains(want), "{want}: {e}");
        }
    }

    /// Every truncation and every single-byte corruption of a real
    /// encoding decodes to an error or to some snapshot — never a panic.
    #[test]
    fn damaged_payloads_never_panic() {
        let mut bytes = Vec::new();
        sample().encode(&mut bytes);
        for cut in 0..bytes.len() {
            assert!(EngineSnapshot::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut damaged = bytes.clone();
        let mut decoded = 0;
        for i in 0..bytes.len() {
            for mask in 1..=u8::MAX {
                damaged[i] ^= mask;
                if let Ok(snap) = EngineSnapshot::decode(&damaged) {
                    // Whatever decodes re-encodes to the same bytes.
                    let mut again = Vec::new();
                    snap.encode(&mut again);
                    assert_eq!(again, damaged, "byte {i} ^ {mask:#x}");
                    decoded += 1;
                }
                damaged[i] ^= mask;
            }
        }
        assert!(decoded > 0, "flag and counter bytes decode when flipped");
    }

    #[test]
    fn validate_accepts_a_real_snapshot_and_names_each_mismatch() {
        use crate::engine::{EngineConfig, OnlineEngine, RunInputs, ScriptedMutations};
        use crate::fault::{FaultConfig, FaultModel, IidFaults, NoFaults};
        use crate::model::{Budget, InstanceBuilder};
        use crate::obs::NoopObserver;
        use crate::policy::Mrsf;

        // CEI 0 takes both probes of chronons 0-1, so CEIs 1 and 2 are
        // live at boundary 2, and CEI 3 has not arrived.
        let mut b = InstanceBuilder::new(4, 10, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 0, 6), (1, 1, 8)]);
        b.cei(p, &[(2, 0, 9)]);
        b.cei(p, &[(3, 0, 9)]);
        b.cei(p, &[(0, 2, 3)]);
        let inst = b.build();
        fn run(
            inst: &Instance,
            faults: &mut impl FaultModel,
            resume: Option<&EngineSnapshot>,
            snapshots: &mut dyn SnapshotSink,
        ) -> Result<(), SnapshotMismatch> {
            let inputs = RunInputs {
                instance: inst,
                policy: &Mrsf,
                config: EngineConfig::preemptive(),
                faults,
                fault_config: FaultConfig::default(),
                mutations: &mut ScriptedMutations::default(),
                observer: &mut NoopObserver,
            };
            OnlineEngine::run_driven_resumable(inputs, resume, snapshots).map(drop)
        }
        let mut sink = CaptureAt::new(vec![2]);
        run(&inst, &mut NoFaults, None, &mut sink).unwrap();
        let snap = sink.taken.pop().unwrap();
        assert_eq!(snap.index, vec![vec![], vec![], vec![(1, 0)], vec![(2, 0)]]);
        assert_eq!(snap.validate(&inst, false), Ok(()));
        assert_eq!(
            run(&inst, &mut NoFaults, Some(&snap), &mut NoSnapshots),
            Ok(())
        );

        type Corruption = (&'static str, fn(&mut EngineSnapshot));
        let broken: [Corruption; 10] = [
            ("CEI states", |s| s.status.push(CeiState::NotArrived)),
            ("resource lists", |s| s.index.push(Vec::new())),
            ("past the horizon", |s| s.at = 10),
            ("names no CEI", |s| s.index[0].push((99, 0))),
            ("names no EI", |s| s.index[0].push((2, 7))),
            ("another resource", |s| s.index[1].push((2, 0))),
            ("listed twice", |s| s.index[2].push((1, 0))),
            ("inactive CEI", |s| s.status[1] = CeiState::Failed),
            ("disagrees with its state", |s| {
                s.outcomes[1] = CeiOutcome::Captured { at: 1 };
            }),
            ("both captured and expired", |s| {
                for state in &mut s.status {
                    if let CeiState::Active { captured, expired } = state {
                        captured[0] = true;
                        expired[0] = true;
                    }
                }
            }),
        ];
        for (want, corrupt) in broken {
            let mut bad = snap.clone();
            corrupt(&mut bad);
            let err = bad.validate(&inst, false).unwrap_err();
            assert!(err.detail.contains(want), "{want}: {err}");
            assert_eq!(err.at, bad.at);
            // The engine refuses to resume from it with the same error.
            let resumed = run(&inst, &mut NoFaults, Some(&bad), &mut NoSnapshots);
            assert_eq!(resumed, Err(err), "{want}");
        }
        // A faulted resume needs the per-resource fault bookkeeping.
        let err = snap.validate(&inst, true).unwrap_err();
        assert!(err.detail.contains("outage horizons"), "{err}");
        let faults = &mut IidFaults::new(0.0, 1);
        assert_eq!(run(&inst, faults, Some(&snap), &mut NoSnapshots), Err(err));
    }
}
