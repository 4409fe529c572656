//! Crash-injection and recovery tests for the durable run journal.
//!
//! The PR's keystone contract: a daemon SIGKILLed after **any** chronon
//! and restarted with `--recover` produces a final JSONL trace, schedule,
//! and `RunMetrics` byte-identical to an uninterrupted run. With
//! `every-chronon` fsync, the file a SIGKILL leaves behind is exactly the
//! full journal truncated at that chronon's frame boundary (or torn
//! mid-record if the kill lands inside an append), so crashes are
//! simulated here by truncating a completed journal at scanned offsets —
//! every kill point is reachable, not just the ones a racing signal
//! happens to hit. The wall-clock SIGKILL path is exercised by the
//! `recovery-smoke` CI job.
//!
//! On top of the kill-resume corpus this file pins the journal format's
//! edge cases: header-only journals, snapshot-only tails, a final record
//! torn at every byte offset, mid-file corruption (a hard error, never a
//! silent partial replay), and cross-version / cross-configuration
//! headers.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use webmon_cli::serve::{Daemon, ServeOptions, ServeSession};
use webmon_core::engine::{
    EngineConfig, MutationQueue, OnlineEngine, RunResult, ScriptedMutations,
};
use webmon_core::fault::{Backoff, FaultConfig, IidFaults, NoFaults};
use webmon_core::model::{Budget, Instance};
use webmon_core::obs::{JsonlTraceObserver, MetricsObserver, RunMetrics, Tee};
use webmon_core::policy::{MEdf, Mrsf, Policy, SEdf, Wic};
use webmon_core::serve::journal::{scan_journal, JOURNAL_FILE};
use webmon_core::serve::{
    CaptureAt, CeiState, FreeClock, FsyncPolicy, JournalConfig, JournalWriter, NoSnapshots,
    ProbeExecutor, ReplayExecutor,
};
use webmon_streams::{write_record, SimRng};
use webmon_testkit::corpus::{conformance_cases, small_instance};
use webmon_workload::churn::overlay;
use webmon_workload::ChurnConfig;

/// Small enough that every corpus instance (horizon 4–10) crosses at
/// least one snapshot boundary, so recovery actually exercises
/// restore-then-replay rather than replay-from-zero.
const SNAPSHOT_EVERY: u32 = 3;

/// A unique temp directory per call (tests run concurrently in one binary).
fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("webmon-recovery-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn journal_config(dir: &Path) -> JournalConfig {
    JournalConfig {
        dir: dir.to_path_buf(),
        fsync: FsyncPolicy::EveryChronon,
        snapshot_every: SNAPSHOT_EVERY,
    }
}

/// One crash-injection case: instance + policy + engine config, optionally
/// fault-injected or churned. The executor and session are rebuilt fresh
/// for every daemon lifetime, exactly as a real restart would.
struct Case {
    label: String,
    instance: Instance,
    make_policy: fn() -> Box<dyn Policy>,
    config: EngineConfig,
    fault_config: FaultConfig,
    fault: Option<(f64, u64)>,
    queue: MutationQueue,
}

impl Case {
    fn faultless(
        label: String,
        instance: Instance,
        make_policy: fn() -> Box<dyn Policy>,
        config: EngineConfig,
    ) -> Case {
        Case {
            label,
            instance,
            make_policy,
            config,
            fault_config: FaultConfig::default(),
            fault: None,
            queue: MutationQueue::new(),
        }
    }

    fn session(&self) -> ServeSession {
        ServeSession {
            instance: self.instance.clone(),
            policy: (self.make_policy)(),
            config: self.config,
            fault_config: self.fault_config,
            script: ScriptedMutations::compile(
                &self.queue,
                self.instance.epoch.len(),
                self.instance.ceis.len(),
            ),
        }
    }

    fn executor(&self) -> Box<dyn ProbeExecutor> {
        match self.fault {
            Some((rate, seed)) => Box::new(ReplayExecutor::scripted(IidFaults::new(rate, seed))),
            None => Box::new(ReplayExecutor::faultless()),
        }
    }

    /// The uninterrupted simulator reference this case must reproduce.
    fn sim(&self) -> (RunResult, RunMetrics, Vec<u8>) {
        let policy = (self.make_policy)();
        let mut metrics = MetricsObserver::new();
        let mut trace = JsonlTraceObserver::new(Vec::new());
        let result = {
            let mut tee = Tee(&mut metrics, &mut trace);
            match self.fault {
                Some((rate, seed)) => {
                    let mut model = IidFaults::new(rate, seed);
                    OnlineEngine::run_faulted(
                        &self.instance,
                        policy.as_ref(),
                        self.config,
                        &mut model,
                        self.fault_config,
                        &mut tee,
                    )
                }
                None => OnlineEngine::run_mutated(
                    &self.instance,
                    policy.as_ref(),
                    self.config,
                    &mut NoFaults,
                    self.fault_config,
                    &self.queue,
                    &mut tee,
                ),
            }
        };
        assert_eq!(trace.write_errors(), 0);
        (result, metrics.finish(), trace.finish().unwrap())
    }
}

fn assert_identical(
    label: &str,
    sim: &(RunResult, RunMetrics, Vec<u8>),
    daemon: &(RunResult, RunMetrics, Vec<u8>),
) {
    assert_eq!(sim.0.schedule, daemon.0.schedule, "{label}: schedule");
    assert_eq!(sim.0.stats, daemon.0.stats, "{label}: stats");
    assert_eq!(sim.0.outcomes, daemon.0.outcomes, "{label}: outcomes");
    assert_eq!(sim.1, daemon.1, "{label}: RunMetrics");
    assert_eq!(sim.2, daemon.2, "{label}: JSONL trace bytes");
}

/// Runs one journaled daemon lifetime to the horizon (no clients, free
/// clock) and returns (result, metrics, trace-file bytes).
fn daemon_journaled(case: &Case, dir: &Path, recover: bool) -> (RunResult, RunMetrics, Vec<u8>) {
    let trace = dir.join("trace.jsonl");
    let daemon = Daemon::bind("127.0.0.1:0").unwrap();
    let opts = ServeOptions {
        trace_out: Some(trace.clone()),
        journal: Some(journal_config(dir)),
        recover,
        resync_executor: true,
    };
    let outcome = daemon
        .run_with(case.session(), case.executor(), |_| FreeClock, opts)
        .unwrap();
    assert!(
        outcome.io_errors.is_empty(),
        "{}: io errors {:?}",
        case.label,
        outcome.io_errors
    );
    let bytes = std::fs::read(&trace).unwrap();
    std::fs::remove_file(&trace).ok();
    (outcome.result, outcome.metrics, bytes)
}

/// The keystone check for one case: run journaled to completion (itself an
/// identity check), then simulate a SIGKILL after each of `kills` distinct
/// randomized chronons by truncating the journal at the scanned frame
/// boundary, recover each, and demand byte-identity with the simulator.
fn check_kill_resume(case: &Case, kill_rng: &mut SimRng, kills: usize) {
    let sim = case.sim();
    let dir = temp_dir("full");
    let full = daemon_journaled(case, &dir, false);
    assert_identical(&format!("{}: journaled full run", case.label), &sim, &full);

    let journal = dir.join(JOURNAL_FILE);
    let scan = scan_journal(&journal).unwrap();
    let horizon = case.instance.epoch.len();
    assert_eq!(
        scan.frames.len(),
        horizon as usize,
        "{}: one frame per chronon",
        case.label
    );
    assert!(scan.torn_tail.is_none(), "{}: clean journal", case.label);
    let bytes = std::fs::read(&journal).unwrap();

    let mut cuts = BTreeSet::new();
    while cuts.len() < kills.min(horizon as usize) {
        cuts.insert(kill_rng.below(u64::from(horizon)) as usize);
    }
    for &k in &cuts {
        let rdir = temp_dir("kill");
        // With every-chronon fsync, SIGKILL after chronon `k` leaves
        // exactly the bytes up to frame k's end on disk.
        std::fs::write(rdir.join(JOURNAL_FILE), &bytes[..scan.frames[k].end]).unwrap();
        let recovered = daemon_journaled(case, &rdir, true);
        assert_identical(
            &format!("{}: killed after chronon {k}", case.label),
            &sim,
            &recovered,
        );
        // The continued journal is complete again: a *second* crash at any
        // later chronon would recover the same way.
        let rescan = scan_journal(&rdir.join(JOURNAL_FILE)).unwrap();
        assert_eq!(
            rescan.frames.len(),
            horizon as usize,
            "{}: continued journal has every frame",
            case.label
        );
        assert!(
            rescan.torn_tail.is_none(),
            "{}: continued journal must have no tear: {:?}",
            case.label,
            rescan.torn_tail
        );
        std::fs::remove_dir_all(&rdir).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill-resume identity over a conformance-corpus slice × 4 policies ×
/// preemptive/non-preemptive, ≥ 3 distinct randomized kill chronons each.
#[test]
fn kill_resume_is_bit_identical_on_corpus_slice() {
    type PolicyCtor = fn() -> Box<dyn Policy>;
    let policies: [(&str, PolicyCtor); 4] = [
        ("S-EDF", || Box::new(SEdf)),
        ("MRSF", || Box::new(Mrsf)),
        ("M-EDF", || Box::new(MEdf)),
        ("W-IC", || Box::new(Wic::paper())),
    ];
    let seeds: Vec<u64> = (0..conformance_cases()).step_by(4).take(3).collect();
    let mut kill_rng = SimRng::new(0x4B494C4C);
    for &seed in &seeds {
        let instance = small_instance(seed, false);
        for (name, make) in policies {
            for config in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
                let case = Case::faultless(
                    format!("seed {seed}: {name} {}", config.label()),
                    instance.clone(),
                    make,
                    config,
                );
                check_kill_resume(&case, &mut kill_rng, 3);
            }
        }
    }
}

/// The identity survives a crash mid-outage: the journal's event frames
/// carry the fault outcomes, and `resync_executor` steps the scripted
/// i.i.d. model through the replayed probes so retry/backoff state is
/// exact at the handover.
#[test]
fn kill_resume_is_bit_identical_under_faults() {
    let mut kill_rng = SimRng::new(0xFA17);
    for config in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
        let case = Case {
            label: format!("faulted {}", config.label()),
            instance: small_instance(3, false),
            make_policy: || Box::new(MEdf),
            config,
            fault_config: FaultConfig::charged().with_backoff(Backoff::new(1, 8)),
            fault: Some((0.4, 77)),
            queue: MutationQueue::new(),
        };
        assert!(case.sim().1.probes_failed > 0, "fault model must bite");
        check_kill_resume(&case, &mut kill_rng, 3);
    }
}

/// And a crash mid-churn: scripted registrations, cancellations, and
/// budget reconfigurations applied before the kill are replayed from the
/// journal, not re-drained from the script.
#[test]
fn kill_resume_is_bit_identical_under_churn() {
    let instance = small_instance(5, false);
    let churn = ChurnConfig::new(0.4, 0.3).with_reconfigurations(2);
    let queue = overlay(&instance, &churn, &SimRng::new(0xC0DE));
    assert!(!queue.is_empty(), "churn overlay must script something");
    let case = Case {
        label: "churned".into(),
        instance,
        make_policy: || Box::new(MEdf),
        config: EngineConfig::preemptive(),
        fault_config: FaultConfig::default(),
        fault: None,
        queue,
    };
    let mut kill_rng = SimRng::new(0xC408);
    check_kill_resume(&case, &mut kill_rng, 3);
}

fn simple_case(seed: u64) -> Case {
    Case::faultless(
        format!("seed {seed}: M-EDF P"),
        small_instance(seed, false),
        || Box::new(MEdf),
        EngineConfig::preemptive(),
    )
}

/// Writes a completed journal for `case` and returns its bytes and scan.
fn completed_journal(case: &Case) -> (Vec<u8>, webmon_core::serve::journal::JournalScan) {
    let dir = temp_dir("donor");
    let full = daemon_journaled(case, &dir, false);
    assert_identical(&format!("{}: donor run", case.label), &case.sim(), &full);
    let journal = dir.join(JOURNAL_FILE);
    let scan = scan_journal(&journal).unwrap();
    let bytes = std::fs::read(&journal).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    (bytes, scan)
}

/// A crash before the first chronon completed leaves a header-only
/// journal; recovery is simply a full fresh run — still byte-identical.
#[test]
fn header_only_journal_recovers_to_a_full_run() {
    let case = simple_case(1);
    let (bytes, scan) = completed_journal(&case);
    let rdir = temp_dir("header-only");
    std::fs::write(rdir.join(JOURNAL_FILE), &bytes[..scan.frames[0].offset]).unwrap();
    let recovered = daemon_journaled(&case, &rdir, true);
    assert_identical("header-only recovery", &case.sim(), &recovered);
    let rescan = scan_journal(&rdir.join(JOURNAL_FILE)).unwrap();
    assert_eq!(
        rescan.frames.len(),
        case.instance.epoch.len() as usize,
        "continued journal has every frame"
    );
    std::fs::remove_dir_all(&rdir).ok();
}

/// A crash landing right after a snapshot record — before the boundary's
/// frame was appended — recovers from the snapshot with an empty replay
/// range: restore, then run the rest live.
#[test]
fn snapshot_only_tail_recovers_without_replay() {
    let case = simple_case(2);
    let (bytes, scan) = completed_journal(&case);
    // The file order around boundary 3 is: frame 2, snapshot at 3,
    // frame 3 — truncating at frame 3's offset keeps the snapshot as the
    // final record.
    let snap = scan
        .snapshots
        .iter()
        .find(|s| s.at == SNAPSHOT_EVERY)
        .expect("horizon ≥ 4 crosses boundary 3");
    assert_eq!(snap.at, 3);
    let cut = scan.frames[SNAPSHOT_EVERY as usize].offset;
    let rdir = temp_dir("snapshot-only");
    std::fs::write(rdir.join(JOURNAL_FILE), &bytes[..cut]).unwrap();
    let tail = scan_journal(&rdir.join(JOURNAL_FILE)).unwrap();
    assert_eq!(tail.frames.last().unwrap().t, SNAPSHOT_EVERY - 1);
    assert_eq!(tail.snapshots.last().unwrap().at, SNAPSHOT_EVERY);
    let recovered = daemon_journaled(&case, &rdir, true);
    assert_identical("snapshot-only recovery", &case.sim(), &recovered);
    std::fs::remove_dir_all(&rdir).ok();
}

/// A record torn at **every** byte offset of the final frame is detected
/// by the length/checksum framing, discarded, and reported — the scan
/// still succeeds with every earlier frame intact. A cut exactly on the
/// record boundary is simply a clean, shorter journal.
#[test]
fn final_record_torn_at_every_byte_is_discarded_and_reported() {
    let case = simple_case(4);
    let (bytes, scan) = completed_journal(&case);
    let last = scan.frames.last().unwrap();
    assert_eq!(last.end, bytes.len(), "final record is the last frame");
    let torn = temp_dir("torn");
    let path = torn.join(JOURNAL_FILE);

    std::fs::write(&path, &bytes[..last.offset]).unwrap();
    let clean = scan_journal(&path).unwrap();
    assert_eq!(clean.frames.len(), scan.frames.len() - 1);
    assert!(clean.torn_tail.is_none(), "boundary cut is not a tear");

    for cut in last.offset + 1..bytes.len() {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let s = scan_journal(&path).unwrap();
        assert_eq!(s.frames.len(), scan.frames.len() - 1, "cut at byte {cut}");
        assert!(s.torn_tail.is_some(), "cut at byte {cut} must be reported");
    }
    std::fs::remove_dir_all(&torn).ok();
}

/// End-to-end: recovery from a journal whose final record was torn
/// mid-append (or corrupted in place at the tail) discards the tear and
/// still reproduces the uninterrupted run byte for byte.
#[test]
fn recovery_from_a_torn_tail_is_still_identical() {
    let case = simple_case(6);
    let sim = case.sim();
    let (bytes, scan) = completed_journal(&case);
    let last = scan.frames.last().unwrap();
    let mid = last.offset + (last.end - last.offset) / 2;
    let mut flipped = bytes.clone();
    flipped[last.offset + 6] ^= 0xFF; // inside the final payload: checksum fails at EOF
    for (tag, journal_bytes) in [
        ("torn early", &bytes[..last.offset + 1]),
        ("torn mid", &bytes[..mid]),
        ("torn late", &bytes[..bytes.len() - 1]),
        ("bit-flipped tail", &flipped[..]),
    ] {
        let rdir = temp_dir("torn-recover");
        std::fs::write(rdir.join(JOURNAL_FILE), journal_bytes).unwrap();
        let pre = scan_journal(&rdir.join(JOURNAL_FILE)).unwrap();
        assert!(pre.torn_tail.is_some(), "{tag}: tear must be reported");
        let recovered = daemon_journaled(&case, &rdir, true);
        assert_identical(&format!("torn-tail recovery ({tag})"), &sim, &recovered);
        // The torn bytes were truncated before the continuation appended:
        // the continued journal is complete and cleanly scannable, so a
        // *second* crash recovers too instead of hitting garbage between
        // the old prefix and the appended records.
        let rescan = scan_journal(&rdir.join(JOURNAL_FILE))
            .unwrap_or_else(|e| panic!("{tag}: continued journal must scan cleanly: {e}"));
        assert_eq!(
            rescan.frames.len(),
            case.instance.epoch.len() as usize,
            "{tag}: continued journal has every frame"
        );
        assert!(
            rescan.torn_tail.is_none(),
            "{tag}: no residual tear: {:?}",
            rescan.torn_tail
        );
        std::fs::remove_dir_all(&rdir).ok();
    }
}

/// Corruption with valid records *after* it is a hard structured error —
/// the journal is never silently replayed around damage — and the daemon
/// surfaces it as a failed recovery, not a panic.
#[test]
fn mid_file_corruption_is_a_structured_error_not_a_partial_replay() {
    let case = simple_case(8);
    let (bytes, scan) = completed_journal(&case);
    let mut corrupt = bytes.clone();
    corrupt[scan.frames[0].offset + 6] ^= 0xFF;
    let rdir = temp_dir("corrupt");
    std::fs::write(rdir.join(JOURNAL_FILE), &corrupt).unwrap();

    let err = scan_journal(&rdir.join(JOURNAL_FILE)).unwrap_err();
    assert!(
        err.to_string().contains("corrupt"),
        "scan error must name the corruption: {err}"
    );

    let daemon = Daemon::bind("127.0.0.1:0").unwrap();
    let opts = ServeOptions {
        trace_out: None,
        journal: Some(journal_config(&rdir)),
        recover: true,
        resync_executor: true,
    };
    let err = daemon
        .run_with(case.session(), case.executor(), |_| FreeClock, opts)
        .unwrap_err();
    assert!(
        err.to_string().contains("corrupt"),
        "daemon must surface the corruption: {err}"
    );
    std::fs::remove_dir_all(&rdir).ok();
}

/// A journal written by a different format version is refused with a
/// structured error naming both versions.
#[test]
fn cross_version_header_is_a_structured_error() {
    let rdir = temp_dir("version");
    let path = rdir.join(JOURNAL_FILE);
    let mut buf: Vec<u8> = Vec::new();
    write_record(&mut buf, 1, br#"{"version":99,"fingerprint":"fp"}"#, &path).unwrap();
    std::fs::write(&path, &buf).unwrap();

    let err = scan_journal(&path).unwrap_err();
    assert!(
        err.to_string().contains("version 99"),
        "scan error must name the found version: {err}"
    );

    let case = simple_case(10);
    let daemon = Daemon::bind("127.0.0.1:0").unwrap();
    let opts = ServeOptions {
        trace_out: None,
        journal: Some(journal_config(&rdir)),
        recover: true,
        resync_executor: true,
    };
    let err = daemon
        .run_with(case.session(), case.executor(), |_| FreeClock, opts)
        .unwrap_err();
    assert!(
        err.to_string().contains("version 99"),
        "daemon must refuse the foreign version: {err}"
    );
    std::fs::remove_dir_all(&rdir).ok();
}

/// Recovering under a different serve configuration than the journal was
/// written with is refused by the fingerprint check.
#[test]
fn cross_configuration_recovery_is_refused_by_fingerprint() {
    let case = simple_case(12);
    let (bytes, _) = completed_journal(&case);
    let rdir = temp_dir("fingerprint");
    std::fs::write(rdir.join(JOURNAL_FILE), &bytes).unwrap();

    // Same instance, different policy: the journaled decisions would not
    // be reproducible, so recovery must refuse up front.
    let other = Case::faultless(
        "S-EDF imposter".into(),
        case.instance.clone(),
        || Box::new(SEdf),
        EngineConfig::preemptive(),
    );
    let daemon = Daemon::bind("127.0.0.1:0").unwrap();
    let opts = ServeOptions {
        trace_out: None,
        journal: Some(journal_config(&rdir)),
        recover: true,
        resync_executor: true,
    };
    let err = daemon
        .run_with(other.session(), other.executor(), |_| FreeClock, opts)
        .unwrap_err();
    assert!(
        err.to_string().contains("fingerprint"),
        "policy mismatch must be refused: {err}"
    );
    std::fs::remove_dir_all(&rdir).ok();
}

/// The fingerprint covers run **content**, not just shape: recovery with a
/// same-shaped but different instance, fault script, or churn script is
/// refused up front by the header check — it would otherwise pass the
/// dimension comparison and then diverge mid-replay.
#[test]
fn same_shape_different_content_is_refused_by_fingerprint() {
    fn refuse(journal_bytes: &[u8], case: &Case, what: &str) {
        let rdir = temp_dir("content");
        std::fs::write(rdir.join(JOURNAL_FILE), journal_bytes).unwrap();
        let opts = ServeOptions {
            trace_out: None,
            journal: Some(journal_config(&rdir)),
            recover: true,
            resync_executor: true,
        };
        let err = Daemon::bind("127.0.0.1:0")
            .unwrap()
            .run_with(case.session(), case.executor(), |_| FreeClock, opts)
            .unwrap_err();
        assert!(
            err.to_string().contains("fingerprint"),
            "{what}: must be refused by fingerprint: {err}"
        );
        std::fs::remove_dir_all(&rdir).ok();
    }

    // Same dimensions, different instance content: only the budget differs.
    let case = simple_case(14);
    let (bytes, _) = completed_journal(&case);
    let mut imposter = simple_case(14);
    imposter.instance.budget = Budget::Uniform(imposter.instance.budget.at(0) + 1);
    refuse(&bytes, &imposter, "instance content");

    // Identical shape, different fault seed behind the executor.
    let faulted = |seed| Case {
        label: format!("faulted seed {seed}"),
        instance: small_instance(3, false),
        make_policy: || Box::new(MEdf),
        config: EngineConfig::preemptive(),
        fault_config: FaultConfig::charged().with_backoff(Backoff::new(1, 8)),
        fault: Some((0.4, seed)),
        queue: MutationQueue::new(),
    };
    let (bytes, _) = completed_journal(&faulted(77));
    refuse(&bytes, &faulted(78), "fault seed");

    // Same instance, different churn script.
    let instance = small_instance(5, false);
    let churn = ChurnConfig::new(0.4, 0.3).with_reconfigurations(2);
    let queue = overlay(&instance, &churn, &SimRng::new(0xC0DE));
    assert!(!queue.is_empty(), "churn overlay must script something");
    let churned = Case {
        label: "churned donor".into(),
        instance: instance.clone(),
        make_policy: || Box::new(MEdf),
        config: EngineConfig::preemptive(),
        fault_config: FaultConfig::default(),
        fault: None,
        queue,
    };
    let (bytes, _) = completed_journal(&churned);
    let unchurned = Case::faultless(
        "unchurned imposter".into(),
        instance,
        || Box::new(MEdf),
        EngineConfig::preemptive(),
    );
    refuse(&bytes, &unchurned, "churn script");
}

/// A CRC-valid, fingerprint-matching journal whose snapshot does not fit
/// the instance — a wrong CEI count, or an index entry naming no CEI — is
/// refused with a structured error before the engine starts, never a panic
/// inside the restore.
#[test]
fn snapshot_that_does_not_fit_the_instance_is_a_structured_error() {
    let case = simple_case(6);
    let (_, scan) = completed_journal(&case);
    let good = scan
        .snapshots
        .iter()
        .find(|s| s.at == SNAPSHOT_EVERY)
        .expect("horizon ≥ 4 crosses boundary 3");
    let mut extra_cei = good.clone();
    extra_cei.status.push(CeiState::NotArrived);
    let mut out_of_range = good.clone();
    out_of_range.index[0].push((u32::MAX, 0));
    for (what, bad) in [
        ("wrong CEI count", extra_cei),
        ("out-of-range index entry", out_of_range),
    ] {
        let rdir = temp_dir("bad-snapshot");
        let path = rdir.join(JOURNAL_FILE);
        let mut w = JournalWriter::create(&path, FsyncPolicy::Os, &scan.fingerprint).unwrap();
        for f in &scan.frames[..SNAPSHOT_EVERY as usize] {
            w.frame(f.t, f.drained_seq, &f.lines);
        }
        w.snapshot(&bad);
        w.finish();
        assert!(w.errors().is_empty(), "{what}: {:?}", w.errors());
        assert_eq!(scan_journal(&path).unwrap().snapshots, vec![bad]);

        let opts = ServeOptions {
            trace_out: None,
            journal: Some(journal_config(&rdir)),
            recover: true,
            resync_executor: true,
        };
        let err = Daemon::bind("127.0.0.1:0")
            .unwrap()
            .run_with(case.session(), case.executor(), |_| FreeClock, opts)
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("snapshot at chronon 3 does not fit"),
            "{what}: {err}"
        );
        std::fs::remove_dir_all(&rdir).ok();
    }
}

/// An empty journal file (zero bytes — creat() succeeded, nothing was
/// ever flushed) has no header and is a structured error, not a crash.
#[test]
fn empty_journal_file_is_a_structured_error() {
    let rdir = temp_dir("empty");
    let path = rdir.join(JOURNAL_FILE);
    std::fs::write(&path, b"").unwrap();
    let err = scan_journal(&path).unwrap_err();
    assert!(
        err.to_string().contains("header"),
        "empty journal must report the missing header: {err}"
    );
    std::fs::remove_dir_all(&rdir).ok();
}

/// The runner-level resume contract under the journal's snapshot sink:
/// capturing at a boundary and resuming from it reproduces the schedule,
/// outcomes, and the exact trace suffix from that boundary on.
#[test]
fn runner_snapshot_resume_reproduces_the_trace_tail() {
    let instance = small_instance(9, false);
    let config = EngineConfig::preemptive();
    let mut sink = CaptureAt::new(vec![2]);
    let mut full_trace = JsonlTraceObserver::new(Vec::new());
    let full = OnlineEngine::run_driven_resumable(
        &instance,
        &MEdf,
        config,
        &mut NoFaults,
        FaultConfig::default(),
        &mut ScriptedMutations::default(),
        &mut full_trace,
        None,
        &mut sink,
    );
    let full_bytes = String::from_utf8(full_trace.finish().unwrap()).unwrap();
    let snap = &sink.taken[0];
    assert_eq!(snap.at, 2);

    let mut tail_trace = JsonlTraceObserver::new(Vec::new());
    let resumed = OnlineEngine::run_driven_resumable(
        &instance,
        &MEdf,
        config,
        &mut NoFaults,
        FaultConfig::default(),
        &mut ScriptedMutations::default(),
        &mut tail_trace,
        Some(snap),
        &mut NoSnapshots,
    );
    assert_eq!(full.schedule, resumed.schedule, "resumed schedule");
    assert_eq!(full.stats, resumed.stats, "resumed stats");
    assert_eq!(full.outcomes, resumed.outcomes, "resumed outcomes");
    let tail = String::from_utf8(tail_trace.finish().unwrap()).unwrap();
    let split = full_bytes
        .find(r#"{"ChrononStart":{"t":2"#)
        .expect("boundary 2 starts a chronon frame");
    assert_eq!(&full_bytes[split..], tail, "trace tail from the boundary");
}
