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
    EngineConfig, MutationQueue, OnlineEngine, RunInputs, RunResult, ScriptedMutations,
};
use webmon_core::fault::{Backoff, FaultConfig, FaultModel, IidFaults, NoFaults, RateLimit};
use webmon_core::model::{Budget, Chronon, Instance, InstanceBuilder, ResourceId};
use webmon_core::obs::{JsonlTraceObserver, MetricsObserver, RunMetrics, Tee};
use webmon_core::policy::{MEdf, Mrsf, Policy, SEdf, Wic};
use webmon_core::serve::journal::{scan_journal, JOURNAL_FILE};
use webmon_core::serve::{
    CaptureAt, CeiState, EngineSnapshot, FreeClock, FsyncPolicy, JournalConfig, JournalWriter,
    NoSnapshots,
};
use webmon_sim::{FaultKind, FaultSpec};
use webmon_streams::{write_record, SimRng};
use webmon_testkit::corpus::{conformance_cases, small_instance, CorpusRng, BASE_CASES};
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
/// fault-injected or churned. The fault model and session are rebuilt fresh
/// for every daemon lifetime, exactly as a real restart would.
struct Case {
    label: String,
    instance: Instance,
    make_policy: fn() -> Box<dyn Policy>,
    config: EngineConfig,
    /// The fault model and its retry configuration (`None`: no faults).
    fault: Option<FaultSpec>,
    queue: MutationQueue,
    /// The journal's snapshot interval.
    snapshot_every: u32,
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
            fault: None,
            queue: MutationQueue::new(),
            snapshot_every: SNAPSHOT_EVERY,
        }
    }

    fn fault_config(&self) -> FaultConfig {
        self.fault.map_or_else(FaultConfig::default, |f| f.config)
    }

    fn script(&self) -> ScriptedMutations {
        ScriptedMutations::compile(
            &self.queue,
            self.instance.epoch.len(),
            self.instance.ceis.len(),
        )
    }

    fn session(&self) -> ServeSession {
        ServeSession {
            instance: self.instance.clone(),
            policy: (self.make_policy)(),
            config: self.config,
            fault_config: self.fault_config(),
            script: self.script(),
        }
    }

    /// A fresh fault model, in its chronon-0 state.
    fn faults(&self) -> Box<dyn FaultModel> {
        match self.fault {
            Some(spec) => Box::new(spec.build(0, self.instance.n_resources as usize)),
            None => Box::new(NoFaults),
        }
    }

    /// The uninterrupted simulator reference this case must reproduce.
    fn sim(&self) -> (RunResult, RunMetrics, Vec<u8>) {
        let policy = (self.make_policy)();
        let mut metrics = MetricsObserver::new();
        let mut trace = JsonlTraceObserver::new(Vec::new());
        let mut faults = self.faults();
        let result = OnlineEngine::run_driven(
            &self.instance,
            policy.as_ref(),
            self.config,
            &mut faults.as_mut(),
            self.fault_config(),
            &mut self.script(),
            &mut Tee(&mut metrics, &mut trace),
        );
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
        journal: Some(JournalConfig {
            snapshot_every: case.snapshot_every,
            ..journal_config(dir)
        }),
        recover,
    };
    let outcome = daemon
        .run_with(case.session(), case.faults().as_mut(), |_| FreeClock, opts)
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
/// carry the fault outcomes, so retry/backoff state is exact at the
/// handover.
#[test]
fn kill_resume_is_bit_identical_under_faults() {
    let mut kill_rng = SimRng::new(0xFA17);
    for config in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
        let case = Case {
            label: format!("faulted {}", config.label()),
            instance: small_instance(3, false),
            make_policy: || Box::new(MEdf),
            config,
            fault: Some(iid_with_backoff(0.4, 77)),
            queue: MutationQueue::new(),
            snapshot_every: SNAPSHOT_EVERY,
        };
        assert!(case.sim().1.probes_failed > 0, "fault model must bite");
        check_kill_resume(&case, &mut kill_rng, 3);
    }
}

/// And under stateful fault models: recovery re-drives a fresh
/// Gilbert–Elliott chain or rate limiter through every journaled chronon,
/// so the live chronons after the crash see the uninterrupted run's
/// outages and quotas — with a snapshot every few boundaries, and with one
/// at every boundary.
#[test]
fn kill_resume_is_bit_identical_under_stateful_faults() {
    let models = [
        FaultKind::Burst {
            p_fail: 0.2,
            p_recover: 0.3,
        },
        FaultKind::RateLimit {
            window: 8,
            max_per_window: 2,
        },
    ];
    let mut kill_rng = SimRng::new(0x57A7E);
    for kind in models {
        for snapshot_every in [SNAPSHOT_EVERY, 1] {
            for config in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
                let case = Case {
                    label: format!(
                        "{} {}, snapshot every {snapshot_every}",
                        kind.label(),
                        config.label()
                    ),
                    instance: resume_grid_instance(7),
                    make_policy: || Box::new(MEdf),
                    config,
                    fault: Some(FaultSpec {
                        kind,
                        seed: 91,
                        config: FaultConfig::charged().with_backoff(Backoff::new(1, 8)),
                    }),
                    queue: MutationQueue::new(),
                    snapshot_every,
                };
                let metrics = case.sim().1;
                let bites = metrics.resource_outages + metrics.probes_failed;
                assert!(bites > 0, "{}: the model must bite", case.label);
                check_kill_resume(&case, &mut kill_rng, 3);
            }
        }
    }
}

/// An i.i.d. fault spec with backoff after failures.
fn iid_with_backoff(rate: f64, seed: u64) -> FaultSpec {
    FaultSpec::iid(rate, seed).with_config(FaultConfig::charged().with_backoff(Backoff::new(1, 8)))
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
        queue,
        ..Case::faultless(
            "churned".into(),
            instance,
            || Box::new(MEdf),
            EngineConfig::preemptive(),
        )
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

/// The journal writer thread appends what the engine hands it, in arrival
/// order, and nothing else decides the bytes: a fresh run's frames
/// concatenate to its trace file, its snapshots sit at every boundary of
/// the cadence, and two runs of one session — free clock, a snapshot every
/// chronon and every 3 — write byte-identical journals.
#[test]
fn journals_hold_the_trace_and_repeat_byte_for_byte() {
    let instance = resume_grid_instance(7);
    let churn = ChurnConfig::new(0.4, 0.3).with_reconfigurations(2);
    let queue = overlay(&instance, &churn, &SimRng::new(0xC0DE));
    let horizon = instance.epoch.len();
    for snapshot_every in [1, SNAPSHOT_EVERY] {
        let case = Case {
            fault: Some(iid_with_backoff(0.3, 5)),
            queue: queue.clone(),
            snapshot_every,
            ..Case::faultless(
                format!("snapshot every {snapshot_every}"),
                instance.clone(),
                || Box::new(Mrsf),
                EngineConfig::non_preemptive(),
            )
        };
        let journals: Vec<Vec<u8>> = (0..2)
            .map(|_| {
                let dir = temp_dir("repeat");
                let (_, _, trace) = daemon_journaled(&case, &dir, false);
                let scan = scan_journal(&dir.join(JOURNAL_FILE)).unwrap();
                let frames: String = scan.frames.iter().map(|f| f.lines.as_str()).collect();
                assert!(frames.as_bytes() == trace, "{}: frames ≠ trace", case.label);
                let boundaries: Vec<Chronon> = scan.snapshots.iter().map(|s| s.at).collect();
                let expected: Vec<Chronon> =
                    (1..horizon).filter(|t| t % snapshot_every == 0).collect();
                assert_eq!(boundaries, expected, "{}", case.label);
                let bytes = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
                std::fs::remove_dir_all(&dir).ok();
                bytes
            })
            .collect();
        assert!(
            journals[0] == journals[1],
            "{}: journals differ",
            case.label
        );
    }
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
    };
    let err = daemon
        .run_with(case.session(), case.faults().as_mut(), |_| FreeClock, opts)
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
    write_record(
        &mut buf,
        1,
        &[br#"{"version":99,"fingerprint":"fp"}"#],
        &path,
    )
    .unwrap();
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
    };
    let err = daemon
        .run_with(case.session(), case.faults().as_mut(), |_| FreeClock, opts)
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
    };
    let err = daemon
        .run_with(
            other.session(),
            other.faults().as_mut(),
            |_| FreeClock,
            opts,
        )
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
        };
        let err = Daemon::bind("127.0.0.1:0")
            .unwrap()
            .run_with(case.session(), case.faults().as_mut(), |_| FreeClock, opts)
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

    // Identical shape, different fault seed.
    let faulted = |seed| Case {
        fault: Some(iid_with_backoff(0.4, seed)),
        ..Case::faultless(
            format!("faulted seed {seed}"),
            small_instance(3, false),
            || Box::new(MEdf),
            EngineConfig::preemptive(),
        )
    };
    let (bytes, _) = completed_journal(&faulted(77));
    refuse(&bytes, &faulted(78), "fault seed");

    // Same instance, different churn script.
    let instance = small_instance(5, false);
    let churn = ChurnConfig::new(0.4, 0.3).with_reconfigurations(2);
    let queue = overlay(&instance, &churn, &SimRng::new(0xC0DE));
    assert!(!queue.is_empty(), "churn overlay must script something");
    let churned = Case {
        queue,
        ..Case::faultless(
            "churned donor".into(),
            instance.clone(),
            || Box::new(MEdf),
            EngineConfig::preemptive(),
        )
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
        };
        let err = Daemon::bind("127.0.0.1:0")
            .unwrap()
            .run_with(case.session(), case.faults().as_mut(), |_| FreeClock, opts)
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

/// Forwards to `inner`, keeping a clone of its state at every chronon
/// start — the state a snapshot taken at that boundary resumes with: the
/// engine offers the snapshot before it advances the model.
struct Checkpointed<F> {
    inner: F,
    at_start: Vec<(Chronon, F)>,
}

impl<F: FaultModel + Clone> FaultModel for Checkpointed<F> {
    fn begin_chronon(&mut self, t: Chronon) {
        self.at_start.push((t, self.inner.clone()));
        self.inner.begin_chronon(t);
    }
    fn down_until(&self, resource: ResourceId) -> Option<Chronon> {
        self.inner.down_until(resource)
    }
    fn probe_succeeds(&mut self, t: Chronon, resource: ResourceId, attempt: u32) -> bool {
        self.inner.probe_succeeds(t, resource, attempt)
    }
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }
    fn descriptor(&self) -> String {
        self.inner.descriptor()
    }
}

/// The resume grid's instance: 600 CEIs of rank 1–4 over 24 resources and
/// 40 chronons at two probes per chronon, so every policy defers, drops
/// and (under outages) sheds.
fn resume_grid_instance(seed: u64) -> Instance {
    let mut rng = CorpusRng::new(seed);
    let (n_resources, horizon) = (24, 40);
    let mut b = InstanceBuilder::new(n_resources, horizon, Budget::Uniform(2));
    for _ in 0..100 {
        let p = b.profile();
        for _ in 0..6 {
            let eis: Vec<(u32, Chronon, Chronon)> = (0..rng.range(1, 4))
                .map(|_| {
                    let start = rng.below(u64::from(horizon)) as Chronon;
                    let end = (start + rng.below(8) as Chronon).min(horizon - 1);
                    (rng.below(u64::from(n_resources)) as u32, start, end)
                })
                .collect();
            b.cei(p, &eis);
        }
    }
    b.build()
}

/// Runs one grid cell through, snapshotting every third boundary, then
/// resumes from each snapshot after a trip through the journal's binary
/// codec — with the fault model's state at that boundary and a freshly
/// compiled mutation script — and demands the uninterrupted run's
/// schedule, stats, outcomes and exact trace suffix. Returns the
/// uninterrupted run.
fn check_resumes<F: FaultModel + Clone>(
    label: &str,
    instance: &Instance,
    policy: &dyn Policy,
    config: EngineConfig,
    faults: (F, FaultConfig),
    queue: &MutationQueue,
) -> RunResult {
    let (model, fault_config) = faults;
    let horizon = instance.epoch.len();
    let script = || ScriptedMutations::compile(queue, horizon, instance.ceis.len());
    let mut sink = CaptureAt::new((3..horizon).step_by(3).collect());
    let mut checkpointed = Checkpointed {
        inner: model.clone(),
        at_start: Vec::new(),
    };
    let mut trace = JsonlTraceObserver::new(Vec::new());
    let inputs = RunInputs {
        instance,
        policy,
        config,
        faults: &mut checkpointed,
        fault_config,
        mutations: &mut script(),
        observer: &mut trace,
    };
    let full = OnlineEngine::run_driven_resumable(inputs, None, &mut sink).unwrap();
    let full_trace = String::from_utf8(trace.finish().unwrap()).unwrap();
    let chronon_starts: Vec<usize> = full_trace
        .match_indices(r#"{"ChrononStart""#)
        .map(|(at, _)| at)
        .collect();
    assert_eq!(sink.taken.len(), sink.at.len(), "{label}: snapshots taken");

    let mut encoded = Vec::new();
    for taken in &sink.taken {
        let label = format!("{label}, resumed at {}", taken.at);
        encoded.clear();
        taken.encode(&mut encoded);
        let snap = &EngineSnapshot::decode(&encoded).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(snap, taken, "{label}: the codec round trip");
        let mut resumed_model = checkpointed
            .at_start
            .iter()
            .find(|(t, _)| *t == snap.at)
            .map_or_else(|| model.clone(), |(_, m)| m.clone());
        let mut tail = JsonlTraceObserver::new(Vec::new());
        let inputs = RunInputs {
            instance,
            policy,
            config,
            faults: &mut resumed_model,
            fault_config,
            mutations: &mut script(),
            observer: &mut tail,
        };
        let resumed = OnlineEngine::run_driven_resumable(inputs, Some(snap), &mut NoSnapshots)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(full.schedule, resumed.schedule, "{label}: schedule");
        assert_eq!(full.stats, resumed.stats, "{label}: stats");
        assert_eq!(full.outcomes, resumed.outcomes, "{label}: outcomes");
        let tail = String::from_utf8(tail.finish().unwrap()).unwrap();
        assert!(
            full_trace[chronon_starts[snap.at as usize]..] == tail,
            "{label}: the trace suffix differs"
        );
    }
    full
}

/// The runner-level resume contract under the journal's snapshot sink:
/// resuming from a boundary snapshot reproduces the schedule, stats,
/// outcomes, and the exact trace suffix from that boundary on — at every
/// third boundary, for the paper policies × P/NP × both selectors (so the
/// keyed queue is rebuilt from restored state), faultless, under i.i.d.
/// faults with backoff, under churn, and under both churn and faults —
/// i.i.d., or a stateful rate limit that resumes from its own state at
/// the boundary and sheds CEIs.
#[test]
fn runner_snapshot_resume_reproduces_the_trace_tail() {
    let wic = Wic::paper();
    let policies: [&dyn Policy; 4] = [&SEdf, &Mrsf, &MEdf, &wic];
    let seeds = if conformance_cases() > BASE_CASES {
        1..=3
    } else {
        1..=1
    };
    let (mut failed, mut shed, mut cancelled) = (0, 0, 0);
    for seed in seeds {
        let instance = resume_grid_instance(seed);
        let n = instance.n_resources as usize;
        let churn = ChurnConfig::new(0.3, 0.2).with_reconfigurations(2);
        let churn = overlay(&instance, &churn, &SimRng::new(seed));
        let none = MutationQueue::new();
        let iid = || {
            let backoff = FaultConfig::charged().with_backoff(Backoff::new(1, 8));
            (IidFaults::new(0.3, seed), backoff)
        };
        let rate_limit = (RateLimit::new(4, 1, n), FaultConfig::charged());
        for policy in policies {
            for mode in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
                for config in [mode, mode.with_scan()] {
                    let label = format!("seed {seed}: {} {config:?}", policy.name());
                    let faultless = (NoFaults, FaultConfig::default());
                    check_resumes(&label, &instance, policy, config, faultless, &none);
                    let run = check_resumes(&label, &instance, policy, config, iid(), &none);
                    failed += run.stats.probes_failed;
                    let run = check_resumes(&label, &instance, policy, config, faultless, &churn);
                    cancelled += run.stats.ceis_cancelled;
                    check_resumes(&label, &instance, policy, config, iid(), &churn);
                    let run = check_resumes(
                        &label,
                        &instance,
                        policy,
                        config,
                        rate_limit.clone(),
                        &churn,
                    );
                    shed += run.stats.ceis_shed;
                }
            }
        }
    }
    assert!(failed > 0, "i.i.d. faults must fail probes");
    assert!(shed > 0, "the rate limit must shed CEIs");
    assert!(cancelled > 0, "the churn overlay must cancel CEIs");
}
