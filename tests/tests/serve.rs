//! End-to-end tests of the `webmon serve` daemon.
//!
//! The PR's keystone contract: the daemon under a deterministic
//! [`ReplayExecutor`] reproduces the simulator's schedule, `RunMetrics`,
//! and JSONL trace **byte for byte** — under any clock, with or without
//! fault injection and churn. On top of the identity corpus this file
//! exercises the socket protocol (mid-run attach, live registration,
//! malformed requests), the live TCP probe executor against local
//! fixtures, and the structured error path for corrupt replay feeds.
//!
//! The daemon always runs on the test's main thread (policies are `Sync`
//! but boxed policies are not `Send`); clients and clock drivers run on
//! spawned threads, exactly inverse to production where the engine owns
//! the main thread and clients arrive over the socket.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::thread;
use std::time::Duration;
use webmon_cli::args::Args;
use webmon_cli::commands::dispatch;
use webmon_cli::serve::{Daemon, DaemonOutcome, ServeOptions, ServeSession};
use webmon_core::engine::{
    EngineConfig, Mutation, MutationQueue, OnlineEngine, RunResult, ScriptedMutations,
};
use webmon_core::fault::{Backoff, FaultConfig, IidFaults, NoFaults};
use webmon_core::model::{Budget, CeiId, Instance, InstanceBuilder};
use webmon_core::obs::{JsonlTraceObserver, MetricsObserver, RunMetrics, Tee};
use webmon_core::policy::{MEdf, Mrsf, Policy, SEdf, Wic};
use webmon_core::serve::journal::{scan_journal, JOURNAL_FILE};
use webmon_core::serve::{
    FreeClock, FsyncPolicy, JournalConfig, ManualClock, ManualHandle, ProbeExecutor,
    ReplayExecutor, TcpProbeExecutor,
};
use webmon_core::stats::CeiOutcome;
use webmon_streams::SimRng;
use webmon_testkit::corpus::{conformance_cases, small_instance};
use webmon_workload::churn::overlay;
use webmon_workload::ChurnConfig;

/// A unique temp-file path per call (tests run concurrently in one binary).
fn temp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("webmon-serve-{}-{tag}-{n}", std::process::id()))
}

/// The simulator reference: one fully observed run — result, merged
/// metrics, raw JSONL trace bytes.
fn sim_observed(
    instance: &Instance,
    policy: &dyn Policy,
    config: EngineConfig,
) -> (RunResult, RunMetrics, Vec<u8>) {
    let mut metrics = MetricsObserver::new();
    let mut trace = JsonlTraceObserver::new(Vec::new());
    let result = {
        let mut tee = Tee(&mut metrics, &mut trace);
        OnlineEngine::run_observed(instance, policy, config, &mut tee)
    };
    assert_eq!(trace.write_errors(), 0);
    (result, metrics.finish(), trace.finish().unwrap())
}

/// Same through the fault-injected entry point.
fn sim_observed_faulted(
    instance: &Instance,
    policy: &dyn Policy,
    config: EngineConfig,
    rate: f64,
    seed: u64,
    fault_config: FaultConfig,
) -> (RunResult, RunMetrics, Vec<u8>) {
    let mut metrics = MetricsObserver::new();
    let mut trace = JsonlTraceObserver::new(Vec::new());
    let mut model = IidFaults::new(rate, seed);
    let result = {
        let mut tee = Tee(&mut metrics, &mut trace);
        OnlineEngine::run_driven(
            instance,
            policy,
            config,
            &mut model,
            fault_config,
            &mut ScriptedMutations::default(),
            &mut tee,
        )
    };
    assert_eq!(trace.write_errors(), 0);
    (result, metrics.finish(), trace.finish().unwrap())
}

/// Same through the churned entry point.
fn sim_observed_mutated(
    instance: &Instance,
    policy: &dyn Policy,
    config: EngineConfig,
    queue: &MutationQueue,
) -> (RunResult, RunMetrics, Vec<u8>) {
    let mut metrics = MetricsObserver::new();
    let mut trace = JsonlTraceObserver::new(Vec::new());
    let result = {
        let mut tee = Tee(&mut metrics, &mut trace);
        OnlineEngine::run_driven(
            instance,
            policy,
            config,
            &mut NoFaults,
            FaultConfig::default(),
            &mut ScriptedMutations::compile(queue, instance.epoch.len(), instance.ceis.len()),
            &mut tee,
        )
    };
    assert_eq!(trace.write_errors(), 0);
    (result, metrics.finish(), trace.finish().unwrap())
}

/// Runs a full daemon lifetime with no clients: bind, run to horizon on a
/// free clock, collect the outcome and the trace file's bytes.
fn daemon_observed<E: ProbeExecutor>(
    instance: &Instance,
    policy: Box<dyn Policy>,
    config: EngineConfig,
    fault_config: FaultConfig,
    queue: &MutationQueue,
    executor: E,
) -> (RunResult, RunMetrics, Vec<u8>) {
    let path = temp_path("trace");
    let daemon = Daemon::bind("127.0.0.1:0").unwrap();
    let script = ScriptedMutations::compile(queue, instance.epoch.len(), instance.ceis.len());
    let session = ServeSession {
        instance: instance.clone(),
        policy,
        config,
        fault_config,
        script,
    };
    let outcome = daemon
        .run(session, executor, FreeClock, Some(&path))
        .unwrap();
    assert_eq!(outcome.write_errors, 0);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(
        outcome.events_written,
        bytes
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .count() as u64
    );
    (outcome.result, outcome.metrics, bytes)
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

type PolicyCtor = fn() -> Box<dyn Policy>;

fn policies() -> [(&'static str, PolicyCtor); 4] {
    [
        ("S-EDF", || Box::new(SEdf)),
        ("MRSF", || Box::new(Mrsf)),
        ("M-EDF", || Box::new(MEdf)),
        ("W-IC", || Box::new(Wic::paper())),
    ]
}

/// Keystone identity: daemon + replay executor ≡ simulator, bit for bit,
/// over a conformance-corpus slice × 4 policies × P/NP.
#[test]
fn daemon_replay_is_bit_identical_to_simulator_on_corpus_slice() {
    let seeds: Vec<u64> = (0..conformance_cases()).step_by(4).take(5).collect();
    for &seed in &seeds {
        let instance = small_instance(seed, false);
        for (name, make) in policies() {
            for config in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
                let sim = sim_observed(&instance, make().as_ref(), config);
                let daemon = daemon_observed(
                    &instance,
                    make(),
                    config,
                    FaultConfig::default(),
                    &MutationQueue::new(),
                    ReplayExecutor::faultless(),
                );
                assert_identical(
                    &format!("seed {seed}: {name} {}", config.label()),
                    &sim,
                    &daemon,
                );
            }
        }
    }
}

/// The identity holds through the fault path: a scripted i.i.d. fault model
/// behind the replay executor ≡ the simulator's `run_driven` on the same
/// model, including
/// retry/backoff accounting.
#[test]
fn faulted_daemon_matches_faulted_simulator() {
    let instance = small_instance(3, false);
    let fault_config = FaultConfig::charged().with_backoff(Backoff::new(1, 8));
    for config in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
        let sim = sim_observed_faulted(&instance, &MEdf, config, 0.4, 77, fault_config);
        let daemon = daemon_observed(
            &instance,
            Box::new(MEdf),
            config,
            fault_config,
            &MutationQueue::new(),
            ReplayExecutor::scripted(IidFaults::new(0.4, 77)),
        );
        assert_identical(&format!("faulted {}", config.label()), &sim, &daemon);
        assert!(daemon.1.probes_failed > 0, "fault model must actually bite");
    }
}

/// And through the churn path: a compiled churn script ≡ `run_driven` on
/// the same compiled queue.
#[test]
fn churned_daemon_matches_churned_simulator() {
    let instance = small_instance(5, false);
    let config = ChurnConfig::new(0.4, 0.3).with_reconfigurations(2);
    let queue = overlay(&instance, &config, &SimRng::new(0xC0DE));
    assert!(!queue.is_empty(), "churn overlay must script something");
    let engine = EngineConfig::preemptive();
    let sim = sim_observed_mutated(&instance, &MEdf, engine, &queue);
    let daemon = daemon_observed(
        &instance,
        Box::new(MEdf),
        engine,
        FaultConfig::default(),
        &queue,
        ReplayExecutor::faultless(),
    );
    assert_identical("churned", &sim, &daemon);
}

/// An instance sized so the socket tests can register/cancel with visible
/// effects: CEI 0's window only opens at chronon 5 (still pending — hence
/// cancellable — when mutations drain at chronon 2), CEI 1 releases late.
fn protocol_instance() -> Instance {
    let mut b = InstanceBuilder::new(2, 30, Budget::Uniform(1));
    let p = b.profile();
    b.cei(p, &[(0, 5, 25)]);
    b.cei_released(p, 20, &[(1, 20, 28)]);
    b.build()
}

fn serve_session(instance: Instance) -> ServeSession {
    ServeSession {
        policy: Box::new(MEdf),
        config: EngineConfig::preemptive(),
        fault_config: FaultConfig::default(),
        script: ScriptedMutations::default(),
        instance,
    }
}

/// Connects, reads with a timeout so a protocol bug cannot hang the suite.
fn connect(addr: std::net::SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    (BufReader::new(stream.try_clone().unwrap()), stream)
}

fn send_line(stream: &mut TcpStream, line: &str) {
    writeln!(stream, "{line}").unwrap();
}

fn read_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line.trim().to_string()
}

/// Registration API round-trip over the socket: `register` activates a
/// not-yet-released CEI (CeiRegistered event, later capture), `cancel`
/// resolves a live one as Cancelled, and both drain at the deterministic
/// next chronon under a manual clock.
///
/// The attached event stream is the synchronization point: once the
/// `ChrononEnd` line for chronon 1 arrives, the engine has finished every
/// drain it can reach before blocking at the chronon-2 gate, so mutations
/// submitted now — and acknowledged before the gate opens — drain exactly
/// at chronon 2. (Submitting without that barrier races against the
/// engine's own chronon-0/1 drains: the gate admits chronon 0 from
/// construction.)
#[test]
fn socket_registration_round_trip() {
    let path = temp_path("reg");
    let daemon = Daemon::bind("127.0.0.1:0").unwrap();
    let addr = daemon.local_addr().unwrap();
    let (clock, handle) = ManualClock::new();

    let client = thread::spawn(move || {
        let (mut events, mut attach) = connect(addr);
        send_line(&mut attach, "attach");
        assert_eq!(read_line(&mut events), r#"{"ok":"attached"}"#);
        // The ok response precedes the socket's handover to the event hub;
        // give the client thread time to complete it before opening the
        // gate so promotion happens no later than chronon 1's boundary.
        thread::sleep(Duration::from_millis(100));
        let (mut reader, mut stream) = connect(addr);
        handle.advance_to(1);
        loop {
            let line = read_line(&mut events);
            if line.starts_with(r#"{"ChrononEnd":{"t":1,"#) {
                break;
            }
        }
        send_line(&mut stream, "register 1");
        assert_eq!(read_line(&mut reader), r#"{"ok":{"register":1}}"#);
        send_line(&mut stream, "cancel 0");
        assert_eq!(read_line(&mut reader), r#"{"ok":{"cancel":0}}"#);
        handle.release();
    });

    let outcome = daemon
        .run(
            serve_session(protocol_instance()),
            ReplayExecutor::faultless(),
            clock,
            Some(&path),
        )
        .unwrap();
    client.join().unwrap();

    assert_eq!(outcome.result.outcomes[0], CeiOutcome::Cancelled { at: 2 });
    assert!(
        outcome.result.outcomes[1].is_captured(),
        "registered CEI must capture, got {:?}",
        outcome.result.outcomes[1]
    );
    let trace = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(
        trace.contains(r#"{"CeiRegistered":{"cei":1,"at":2}}"#),
        "live registration must be drained at chronon 2"
    );
    assert!(
        trace.contains(r#"{"CeiCancelled":{"cei":0,"at":2}}"#),
        "live cancellation must be drained at chronon 2"
    );
}

/// A mid-run `attach` turns the connection into the JSONL event stream:
/// well-formed from its first line, which is always a `ChrononStart` (the
/// hub promotes pending sockets only at chronon boundaries), and flowing
/// until the run ends and the daemon closes the socket. Its bytes are
/// exactly the `--trace-out` file's from that line on: one encoding feeds
/// both.
#[test]
fn socket_attach_streams_wellformed_jsonl_from_a_chronon_boundary() {
    let path = temp_path("attach-trace");
    let daemon = Daemon::bind("127.0.0.1:0").unwrap();
    let addr = daemon.local_addr().unwrap();
    let (clock, handle) = ManualClock::new();

    let client = thread::spawn(move || {
        let (mut reader, mut stream) = connect(addr);
        send_line(&mut stream, "attach");
        assert_eq!(read_line(&mut reader), r#"{"ok":"attached"}"#);
        // The ok response precedes the socket's handover to the event hub;
        // give the client thread time to complete it, and let two chronons
        // run first, so the attach point is strictly mid-run.
        thread::sleep(Duration::from_millis(100));
        handle.advance_to(2);
        handle.release();
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes).unwrap();
        String::from_utf8(bytes).unwrap()
    });

    let outcome = daemon
        .run(
            serve_session(protocol_instance()),
            ReplayExecutor::faultless(),
            clock,
            Some(&path),
        )
        .unwrap();
    let streamed = client.join().unwrap();
    let trace = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(outcome.dropped_subscribers, 0);

    let lines: Vec<&str> = streamed.lines().collect();
    assert!(!lines.is_empty(), "attached stream must carry events");
    assert!(
        lines[0].starts_with(r#"{"ChrononStart":"#),
        "stream must start at a chronon boundary, got {}",
        lines[0]
    );
    for l in &lines {
        let v: serde_json::Value = serde_json::from_str(l)
            .unwrap_or_else(|e| panic!("attached stream line is not JSON: {l} ({e})"));
        assert!(v.is_object(), "{l}");
    }
    // The attached stream is an exact suffix of the trace file that starts
    // at one of its lines, and it began mid-run.
    assert!(
        trace.ends_with(&streamed),
        "stream bytes must be a suffix of the trace"
    );
    let skipped = &trace[..trace.len() - streamed.len()];
    assert!(skipped.ends_with('\n'), "the suffix starts at a line");
    assert!(skipped.contains(r#"{"ChrononStart":{"t":0,"#));
    assert_eq!(trace.lines().count() as u64, outcome.events_written);
}

/// Malformed request lines get structured JSON errors and leave the
/// connection usable; `shutdown` then releases the clock so the paced run
/// free-runs to the horizon and exits cleanly.
#[test]
fn socket_malformed_lines_and_shutdown() {
    let daemon = Daemon::bind("127.0.0.1:0").unwrap();
    let addr = daemon.local_addr().unwrap();
    let stop = daemon.stop_flag();
    let (clock, _handle) = ManualClock::new();

    let client = thread::spawn(move || {
        let (mut reader, mut stream) = connect(addr);
        for bad in ["frobnicate", "register", "register xyz", "register 999"] {
            send_line(&mut stream, bad);
            let resp = read_line(&mut reader);
            let v: serde_json::Value = serde_json::from_str(&resp).unwrap();
            assert!(!v["err"].is_null(), "{bad} -> {resp}");
            assert_eq!(v["err"]["input"], *bad, "{resp}");
        }
        send_line(&mut stream, "ping");
        assert_eq!(
            read_line(&mut reader),
            r#"{"ok":"pong"}"#,
            "connection must survive malformed lines"
        );
        send_line(&mut stream, "shutdown");
        assert_eq!(read_line(&mut reader), r#"{"ok":"shutting-down"}"#);
    });

    // The manual clock is never advanced: only the shutdown release lets
    // this return. Completing at the full horizon is the clean-exit proof.
    let outcome = daemon
        .run(
            serve_session(protocol_instance()),
            ReplayExecutor::faultless(),
            clock,
            None,
        )
        .unwrap();
    client.join().unwrap();
    assert!(stop.load(Ordering::SeqCst));
    let sim = OnlineEngine::run(&protocol_instance(), &MEdf, EngineConfig::preemptive());
    assert_eq!(
        outcome.result.schedule, sim.schedule,
        "shutdown free-runs the full schedule"
    );
}

/// A request line longer than the protocol's 1 KiB limit is never
/// buffered whole: the client gets one structured error that echoes only a
/// short prefix, then the end of the stream, and the daemon keeps serving
/// other connections.
#[test]
fn socket_overlong_request_line_is_refused_then_closed() {
    /// Releases the clock when the client thread ends, even by a failed
    /// assertion, so the daemon finishes and the test fails instead of
    /// hanging.
    struct ReleaseOnDrop(ManualHandle);
    impl Drop for ReleaseOnDrop {
        fn drop(&mut self) {
            self.0.release();
        }
    }

    let daemon = Daemon::bind("127.0.0.1:0").unwrap();
    let addr = daemon.local_addr().unwrap();
    let (clock, handle) = ManualClock::new();

    let client = thread::spawn(move || {
        let _release = ReleaseOnDrop(handle);
        let (mut reader, stream) = connect(addr);
        let mut flood = stream.try_clone().unwrap();
        // 1 MiB and no newline. The daemon stops reading at the limit and
        // closes, so the tail of this write may fail; only the reply counts.
        let writer = thread::spawn(move || {
            let _ = flood.write_all(&vec![b'x'; 1 << 20]);
        });
        let resp = read_line(&mut reader);
        let v: serde_json::Value = serde_json::from_str(&resp).unwrap();
        let reason = v["err"]["reason"].as_str().unwrap_or_default();
        assert!(reason.contains("longer than"), "{resp}");
        let echoed = v["err"]["input"].as_str().unwrap_or_default();
        assert!(
            !echoed.is_empty() && echoed.len() <= 64 && echoed.bytes().all(|b| b == b'x'),
            "{resp}"
        );
        let mut rest = String::new();
        assert_eq!(
            reader.read_line(&mut rest).unwrap(),
            0,
            "end of stream after the error, got {rest:?}"
        );
        writer.join().unwrap();

        let (mut reader, mut stream) = connect(addr);
        send_line(&mut stream, "ping");
        assert_eq!(read_line(&mut reader), r#"{"ok":"pong"}"#);
        send_line(&mut stream, "shutdown");
        assert_eq!(read_line(&mut reader), r#"{"ok":"shutting-down"}"#);
    });

    daemon
        .run(
            serve_session(protocol_instance()),
            ReplayExecutor::faultless(),
            clock,
            None,
        )
        .unwrap();
    client.join().unwrap();
}

/// One CEI per chronon-window on resource 0, so every chronon issues
/// exactly one live TCP probe against the fixture.
fn live_instance(horizon: u32) -> Instance {
    let mut b = InstanceBuilder::new(1, horizon, Budget::Uniform(1));
    let p = b.profile();
    for t in 1..horizon {
        b.cei(p, &[(0, t, t)]);
    }
    b.build()
}

/// Live executor against an unresponsive port: every probe maps to
/// `ProbeFailed`, charged and backed off per the `FaultConfig`, and nothing
/// captures.
#[test]
fn live_executor_unresponsive_port_feeds_fault_machinery() {
    // Bind-then-drop: the OS rejects connections to the freed port fast
    // (ECONNREFUSED), no timeout involved.
    let dead_addr = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let instance = live_instance(8);
    let daemon = Daemon::bind("127.0.0.1:0").unwrap();
    let path = temp_path("live-dead");
    let mut session = serve_session(instance);
    session.fault_config = FaultConfig::charged().with_backoff(Backoff::new(1, 8));
    let outcome = daemon
        .run(
            session,
            TcpProbeExecutor::new(vec![dead_addr], Duration::from_millis(200)),
            FreeClock,
            Some(&path),
        )
        .unwrap();
    assert_eq!(outcome.result.stats.ceis_captured, 0);
    assert!(outcome.metrics.probes_failed > 0, "probes must fail");
    let trace = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(
        trace.contains(r#"{"ProbeFailed":"#),
        "trace must record the failures"
    );
}

/// Live executor against a responsive local listener: probes succeed (the
/// kernel backlog accepts the connection) and CEIs capture.
#[test]
fn live_executor_responsive_port_captures() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let daemon = Daemon::bind("127.0.0.1:0").unwrap();
    let outcome = daemon
        .run(
            serve_session(live_instance(6)),
            TcpProbeExecutor::new(vec![addr], Duration::from_millis(500)),
            FreeClock,
            None,
        )
        .unwrap();
    assert!(
        outcome.result.stats.ceis_captured > 0,
        "live probes must capture"
    );
    drop(listener);
}

/// Daemon shutdown mid-backoff exits cleanly: the shutdown hook flips the
/// executor's stop flag (in-flight and future probes fail fast instead of
/// waiting out their timeout), the released clock free-runs the engine to
/// the horizon, and `run` returns with every thread joined.
#[test]
fn live_executor_shutdown_mid_backoff_exits_cleanly() {
    let dead_addr = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let mut daemon = Daemon::bind("127.0.0.1:0").unwrap();
    let addr = daemon.local_addr().unwrap();
    let executor = TcpProbeExecutor::new(vec![dead_addr], Duration::from_millis(200));
    let stop = executor.stop_flag();
    daemon.on_shutdown(std::sync::Arc::new({
        let stop = stop.clone();
        move || stop.store(true, Ordering::SeqCst)
    }));
    let (clock, handle) = ManualClock::new();

    let client = thread::spawn(move || {
        let (mut reader, mut stream) = connect(addr);
        // Admit a few chronons so failing probes engage the backoff state,
        // then shut down while retries are still pending.
        handle.advance_to(3);
        thread::sleep(Duration::from_millis(50));
        send_line(&mut stream, "shutdown");
        assert_eq!(read_line(&mut reader), r#"{"ok":"shutting-down"}"#);
    });

    let mut session = serve_session(live_instance(20));
    session.fault_config = FaultConfig::charged().with_backoff(Backoff::new(2, 16));
    let outcome = daemon.run(session, executor, clock, None).unwrap();
    client.join().unwrap();
    assert!(stop.load(Ordering::SeqCst), "shutdown hook must fire");
    assert!(outcome.metrics.probes_failed > 0);
    assert_eq!(outcome.write_errors, 0);
}

/// A replay feed truncated mid-line surfaces as the loader's structured,
/// line-numbered error through the `serve` command — exit code 2, daemon
/// never started — not a panic.
#[test]
fn serve_truncated_replay_feed_is_a_structured_error() {
    let feed = temp_path("feed");
    std::fs::write(&feed, "resource,chronon\n0,5\n1,").unwrap();
    // The loader reports the exact file line of the truncated record.
    let err = webmon_streams::read_csv_file(&feed, None, None).unwrap_err();
    assert_eq!(
        err,
        webmon_streams::TraceIoError::BadLine {
            line: 3,
            content: "1,".into()
        }
    );
    // And the daemon command turns it into exit code 2.
    let toks = [
        "serve",
        "--replay-feed",
        feed.to_str().unwrap(),
        "--listen",
        "127.0.0.1:0",
        "--horizon",
        "10",
        "--resources",
        "2",
    ];
    let args = Args::parse(toks.iter().map(|s| s.to_string())).unwrap();
    assert_eq!(dispatch(&args).unwrap(), 2);
    std::fs::remove_file(&feed).ok();
}

/// A client that dies mid-line — EOF with a partial command buffered —
/// drops only that session: the fragment is never executed, and the
/// daemon keeps serving other connections.
#[test]
fn socket_disconnect_mid_line_drops_only_that_session() {
    let daemon = Daemon::bind("127.0.0.1:0").unwrap();
    let addr = daemon.local_addr().unwrap();
    let stop = daemon.stop_flag();
    let (clock, _handle) = ManualClock::new();

    let client = thread::spawn(move || {
        // A complete command with no trailing newline, then a hard close:
        // the torn fragment must be discarded, not executed.
        let (_reader, mut stream) = connect(addr);
        stream.write_all(b"shutdown").unwrap();
        drop(stream);
        thread::sleep(Duration::from_millis(200));
        assert!(
            !stop.load(Ordering::SeqCst),
            "a command torn by disconnect must not execute"
        );
        // The daemon is still serving: a healthy client works, and ends
        // the run with a properly terminated command.
        let (mut reader, mut stream) = connect(addr);
        send_line(&mut stream, "ping");
        assert_eq!(read_line(&mut reader), r#"{"ok":"pong"}"#);
        send_line(&mut stream, "shutdown");
        assert_eq!(read_line(&mut reader), r#"{"ok":"shutting-down"}"#);
    });

    let outcome = daemon
        .run(
            serve_session(protocol_instance()),
            ReplayExecutor::faultless(),
            clock,
            None,
        )
        .unwrap();
    client.join().unwrap();
    let sim = OnlineEngine::run(&protocol_instance(), &MEdf, EngineConfig::preemptive());
    assert_eq!(
        outcome.result.schedule, sim.schedule,
        "the torn session must not perturb the run"
    );
}

/// The shutdown/register race under a journal: a mutation acknowledged
/// before the shutdown reply is journaled *and* drained — never
/// half-applied — while one arriving after the shutdown reply is rejected
/// with a structured error (or a closed connection), never silently
/// applied.
#[test]
fn shutdown_racing_register_is_journaled_or_rejected() {
    let dir = temp_path("race-journal");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = temp_path("race-trace");
    let daemon = Daemon::bind("127.0.0.1:0").unwrap();
    let addr = daemon.local_addr().unwrap();
    let (clock, handle) = ManualClock::new();

    let client = thread::spawn(move || {
        let (mut events, mut attach) = connect(addr);
        send_line(&mut attach, "attach");
        assert_eq!(read_line(&mut events), r#"{"ok":"attached"}"#);
        thread::sleep(Duration::from_millis(100));
        let (mut a_reader, mut a) = connect(addr);
        let (mut b_reader, mut b) = connect(addr);
        handle.advance_to(1);
        loop {
            let line = read_line(&mut events);
            if line.starts_with(r#"{"ChrononEnd":{"t":1,"#) {
                break;
            }
        }
        // Acknowledged before the shutdown reply: must be journaled and
        // drained at chronon 2.
        send_line(&mut a, "register 1");
        assert_eq!(read_line(&mut a_reader), r#"{"ok":{"register":1}}"#);
        send_line(&mut a, "shutdown");
        assert_eq!(read_line(&mut a_reader), r#"{"ok":"shutting-down"}"#);
        // Arriving after the shutdown reply: structured rejection or a
        // closed socket — never a half-applied mutation.
        send_line(&mut b, "cancel 0");
        let mut resp = String::new();
        let n = b_reader.read_line(&mut resp).unwrap_or(0);
        assert!(
            n == 0 || resp.contains(r#""err""#),
            "post-shutdown mutation must be rejected, got {resp:?}"
        );
    });

    let opts = ServeOptions {
        trace_out: Some(trace_path.clone()),
        journal: Some(JournalConfig {
            dir: dir.clone(),
            fsync: FsyncPolicy::EveryChronon,
            snapshot_every: 8,
        }),
        recover: false,
        resync_executor: false,
    };
    let outcome = daemon
        .run_with(
            serve_session(protocol_instance()),
            ReplayExecutor::faultless(),
            |_| clock,
            opts,
        )
        .unwrap();
    client.join().unwrap();
    assert!(outcome.io_errors.is_empty(), "{:?}", outcome.io_errors);

    // Fully applied: the registered CEI drained at chronon 2 and captured.
    assert!(
        outcome.result.outcomes[1].is_captured(),
        "pre-shutdown registration must apply, got {:?}",
        outcome.result.outcomes[1]
    );
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    assert!(
        trace.contains(r#"{"CeiRegistered":{"cei":1,"at":2}}"#),
        "acknowledged registration must drain at chronon 2"
    );
    // And journaled before the ack: a crash after the reply would recover
    // it from the journal's live-mutation records.
    let scan = scan_journal(&dir.join(JOURNAL_FILE)).unwrap();
    assert!(
        scan.live
            .iter()
            .any(|(_, m)| *m == Mutation::Register { cei: CeiId(1) }),
        "acknowledged mutation must be in the journal, got {:?}",
        scan.live
    );
    // The rejected cancel never touched CEI 0.
    assert!(
        !matches!(outcome.result.outcomes[0], CeiOutcome::Cancelled { .. }),
        "rejected mutation must not apply, got {:?}",
        outcome.result.outcomes[0]
    );
    std::fs::remove_file(&trace_path).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// Sanity: `DaemonOutcome` carries the counts CI's smoke job asserts on.
#[test]
fn daemon_outcome_counts_match_trace_file() {
    let path = temp_path("counts");
    let daemon = Daemon::bind("127.0.0.1:0").unwrap();
    let outcome: DaemonOutcome = daemon
        .run(
            serve_session(protocol_instance()),
            ReplayExecutor::faultless(),
            FreeClock,
            Some(&path),
        )
        .unwrap();
    let lines = std::fs::read_to_string(&path).unwrap().lines().count() as u64;
    std::fs::remove_file(&path).ok();
    assert_eq!(outcome.events_written, lines);
    assert_eq!(outcome.write_errors, 0);
}
