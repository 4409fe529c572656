//! The `webmon serve` daemon: the simulator engine promoted to a
//! long-running monitor behind a local TCP socket.
//!
//! One engine run is one daemon lifetime. The engine executes on the
//! calling thread via [`webmon_core::serve::drive`]; a background accept
//! thread serves a line protocol on the listening socket:
//!
//! ```text
//! ping                  -> {"ok":"pong"}
//! attach                -> {"ok":"attached"}, then the JSONL event stream
//!                          from the next chronon start onward
//! register <cei-id>     -> {"ok":{"register":<id>}}   (drained next chronon)
//! cancel <cei-id>       -> {"ok":{"cancel":<id>}}
//! set-budget <n>        -> {"ok":{"set-budget":<n>}}
//! shutdown              -> {"ok":"shutting-down"}; the clock is released,
//!                          the engine free-runs to the horizon and exits
//! ```
//!
//! Every response is one JSON line. A malformed request gets a structured
//! `{"err":{"reason":...,"input":...}}` line and the connection stays
//! open. Registration commands feed the engine's live
//! [`LiveMutationQueue`], drained at each chronon start with exactly the
//! `run_mutated` semantics.
//!
//! **Byte identity.** The daemon's event hub writes every event as
//! `serde_json::to_string(&event)` plus `\n` — the same bytes
//! [`JsonlTraceObserver`](webmon_core::obs::JsonlTraceObserver) produces —
//! to the `--trace-out` file (from event zero) and to every attached
//! socket (from its first post-attach chronon start). The daemon's trace
//! file is therefore byte-identical to the simulator's for the same case,
//! which `tests/tests/serve.rs` and CI's `serve-smoke` job enforce.

use serde_json::Value;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;
use webmon_core::engine::{EngineConfig, Mutation, RunResult, ScriptedMutations};
use webmon_core::fault::FaultConfig;
use webmon_core::model::{CeiId, Chronon, Instance};
use webmon_core::obs::{replay_events, Event, MetricsObserver, Observer, RunMetrics, Tee};
use webmon_core::policy::Policy;
use webmon_core::serve::journal::{
    scan_journal, JournalObserver, JournalSink, JournalWriter, SharedJournal,
};
use webmon_core::serve::{
    drive_resumable, Clock, ClockRelease, DaemonSource, JournalConfig, JournalError,
    LiveMutationQueue, NoSnapshots, ProbeExecutor, Recovery, SnapshotSink,
};
use webmon_streams::{crc32, write_all_tagged};

/// How long a client read blocks before re-checking the stop flag, and how
/// long the accept loop naps when no connection is pending.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Everything the engine run needs, bundled so [`Daemon::run`] can build
/// the policy inside a spawned thread when tests run the daemon off-main.
pub struct ServeSession {
    /// The monitoring instance (profiles, epoch, budget).
    pub instance: Instance,
    /// The scheduling policy.
    pub policy: Box<dyn Policy>,
    /// Engine execution mode and selection.
    pub config: EngineConfig,
    /// Retry/backoff discipline for failed probes.
    pub fault_config: FaultConfig,
    /// Precompiled churn script (empty for static profiles).
    pub script: ScriptedMutations,
}

/// What a completed daemon run produced.
#[derive(Debug)]
pub struct DaemonOutcome {
    /// The engine's schedule, stats, and per-CEI outcomes.
    pub result: RunResult,
    /// In-run metrics from the daemon's own event stream.
    pub metrics: RunMetrics,
    /// Events serialized by the hub (trace file and sockets share them).
    pub events_written: u64,
    /// Failed writes (a full disk, a torn socket mid-line on the file sink).
    pub write_errors: u64,
    /// Structured descriptions of trace-file and journal write failures
    /// (partial writes, `ENOSPC`), each tagged with the file path. Nonempty
    /// makes `webmon serve` exit 1 with a JSON error summary.
    pub io_errors: Vec<String>,
}

/// Optional behaviors of a daemon run beyond the bare engine session.
#[derive(Debug, Default)]
pub struct ServeOptions {
    /// JSONL event trace destination (same bytes as the simulator's).
    pub trace_out: Option<PathBuf>,
    /// Journal destination and durability policy (`None`: no journal).
    pub journal: Option<JournalConfig>,
    /// Recover from the journal in [`journal`](Self::journal)'s directory:
    /// restore the latest snapshot, replay the journaled chronons, then go
    /// live. Requires `journal` to be set.
    pub recover: bool,
    /// During recovery replay, step the wrapped executor through every
    /// replayed chronon and probe so stateful deterministic fault models
    /// (Gilbert-Elliott chains, rate limiters) are exact at the handover.
    /// `false` for live network executors, which must not probe during
    /// replay.
    pub resync_executor: bool,
}

/// A daemon-level failure: socket/trace infrastructure, or the journal.
#[derive(Debug)]
pub enum ServeError {
    /// Socket or trace-file setup failure.
    Io(io::Error),
    /// Journal create/scan/recovery failure (structured, with path).
    Journal(JournalError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "{e}"),
            ServeError::Journal(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<JournalError> for ServeError {
    fn from(e: JournalError) -> Self {
        ServeError::Journal(e)
    }
}

/// Shared state between the engine thread, the accept thread, and every
/// client connection.
struct Control {
    live: LiveMutationQueue,
    stop: Arc<AtomicBool>,
    pending: Arc<Mutex<Vec<TcpStream>>>,
    hooks: Vec<ClockRelease>,
    n_ceis: usize,
    /// When journaling, every accepted mutation is appended (and synced,
    /// per policy) here *before* its `ok` acknowledgement is written.
    journal: Option<SharedJournal>,
}

impl Control {
    /// Stops the accept loop and every client thread, and releases the
    /// clock (plus any registered executor stop flags) so the engine
    /// free-runs to the horizon. Idempotent.
    fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for hook in &self.hooks {
            hook();
        }
    }
}

fn json_line(value: Value) -> String {
    serde_json::to_string(&value).unwrap_or_else(|_| "{}".to_string())
}

fn ok_line(ok: Value) -> String {
    json_line(Value::Object(vec![("ok".to_string(), ok)]))
}

fn ok_str(ok: &str) -> String {
    ok_line(Value::String(ok.to_string()))
}

fn ok_applied(cmd: &str, value: u32) -> String {
    ok_line(Value::Object(vec![(
        cmd.to_string(),
        Value::UInt(u64::from(value)),
    )]))
}

fn err_line(reason: String, input: &str) -> String {
    json_line(Value::Object(vec![(
        "err".to_string(),
        Value::Object(vec![
            ("reason".to_string(), Value::String(reason)),
            ("input".to_string(), Value::String(input.to_string())),
        ]),
    )]))
}

/// What the client thread should do after one request line.
enum Action {
    /// Write the response and keep reading commands.
    Reply(String),
    /// Write the response, hand the socket to the event hub, stop reading.
    Attach(String),
    /// Write the response, trigger daemon shutdown, stop reading.
    Shutdown(String),
}

/// Journals (when configured) and enqueues one accepted mutation, then
/// acknowledges it — in exactly that order.
///
/// The sequence number is reserved first and the mutation is journaled
/// *before* it is enqueued: a mutation whose journal append fails is
/// rejected with a structured error and never reaches the engine, and a
/// mutation that is acknowledged is always on disk (per the fsync policy).
/// A `shutdown` already in flight rejects new mutations outright, so a
/// submission racing the shutdown reply is either fully applied (journaled
/// and drained by the free-running engine) or cleanly refused — never
/// half-applied.
fn accept_mutation(ctl: &Control, mutation: Mutation, ack: String, line: &str) -> Action {
    if ctl.stop.load(Ordering::SeqCst) {
        return Action::Reply(err_line(
            "daemon is shutting down; mutation rejected".to_string(),
            line,
        ));
    }
    match &ctl.journal {
        Some(journal) => {
            // The journal lock spans reserve + append so journal record
            // order matches sequence order (lock order: journal, then the
            // queue's internal lock — same everywhere, no deadlock).
            let mut journal = journal.lock().unwrap();
            let seq = ctl.live.reserve();
            if let Err(e) = journal.live_mutation(seq, mutation) {
                return Action::Reply(err_line(format!("not journaled: {e}"), line));
            }
            ctl.live.reinject(seq, mutation);
        }
        None => {
            ctl.live.submit(mutation);
        }
    }
    Action::Reply(ack)
}

/// Resolves one request line against the protocol. Pure except for
/// submissions into the live mutation queue (and their journal appends).
fn handle_line(line: &str, ctl: &Control) -> Action {
    let mut parts = line.split_whitespace();
    let cmd = parts.next().unwrap_or("");
    let arg = parts.next();
    if parts.next().is_some() {
        return Action::Reply(err_line("too many arguments".to_string(), line));
    }
    match (cmd, arg) {
        ("ping", None) => Action::Reply(ok_str("pong")),
        ("attach", None) => Action::Attach(ok_str("attached")),
        ("shutdown", None) => Action::Shutdown(ok_str("shutting-down")),
        ("register" | "cancel", Some(raw)) => match raw.parse::<u32>() {
            Ok(id) if (id as usize) < ctl.n_ceis => {
                let cei = CeiId(id);
                let mutation = if cmd == "register" {
                    Mutation::Register { cei }
                } else {
                    Mutation::Cancel { cei }
                };
                accept_mutation(ctl, mutation, ok_applied(cmd, id), line)
            }
            Ok(id) => Action::Reply(err_line(
                format!("cei {id} out of range: instance has {} ceis", ctl.n_ceis),
                line,
            )),
            Err(_) => Action::Reply(err_line(format!("{cmd} expects a cei id"), line)),
        },
        ("set-budget", Some(raw)) => match raw.parse::<u32>() {
            Ok(budget) => accept_mutation(
                ctl,
                Mutation::SetBudget { budget },
                ok_applied("set-budget", budget),
                line,
            ),
            Err(_) => Action::Reply(err_line("set-budget expects an integer".to_string(), line)),
        },
        _ => Action::Reply(err_line(
            "unknown command: ping | attach | register <id> | cancel <id> | \
             set-budget <n> | shutdown"
                .to_string(),
            line,
        )),
    }
}

/// Serves one client connection until it closes, attaches, or the daemon
/// stops. Reads use a short timeout so the thread notices shutdown
/// promptly; a timeout preserves any partially read line.
fn client_loop(stream: TcpStream, ctl: &Control) {
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut line = String::new();
    loop {
        if ctl.stop.load(Ordering::SeqCst) {
            return;
        }
        match reader.read_line(&mut line) {
            Ok(0) => return,
            Ok(_) => {
                // A nonempty read without a trailing newline means the
                // client hung up mid-command. Never execute the fragment —
                // drop only this session; the daemon keeps serving.
                if !line.ends_with('\n') {
                    return;
                }
                let trimmed = line.trim().to_string();
                line.clear();
                if trimmed.is_empty() {
                    continue;
                }
                match handle_line(&trimmed, ctl) {
                    Action::Reply(resp) => {
                        if writeln!(writer, "{resp}").is_err() {
                            return;
                        }
                    }
                    Action::Attach(resp) => {
                        if writeln!(writer, "{resp}").is_ok() {
                            // From here the engine thread is the socket's
                            // only writer; this thread reads no further
                            // commands.
                            ctl.pending.lock().unwrap().push(writer);
                        }
                        return;
                    }
                    Action::Shutdown(resp) => {
                        let _ = writeln!(writer, "{resp}");
                        ctl.shutdown();
                        return;
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

/// Accepts connections until shutdown, one thread per client, and joins
/// every client thread before exiting so the daemon leaks nothing.
fn accept_loop(listener: TcpListener, ctl: Arc<Control>) {
    let mut clients = Vec::new();
    while !ctl.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let ctl = Arc::clone(&ctl);
                clients.push(thread::spawn(move || client_loop(stream, &ctl)));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL_INTERVAL),
            Err(_) => break,
        }
    }
    for client in clients {
        client.join().ok();
    }
}

/// The engine-side event fan-out: serializes every event once (the exact
/// [`JsonlTraceObserver`](webmon_core::obs::JsonlTraceObserver) bytes) and
/// writes the line to the optional trace file plus every attached socket.
///
/// Sockets attach mid-run: a freshly attached stream waits in the shared
/// pending list and is promoted *before* the next `ChrononStart` line is
/// written, so every attached client's stream begins at a chronon
/// boundary. A socket whose write fails is dropped; file write failures
/// are counted, never propagated into the engine.
struct EventHub {
    file: Option<TraceSink>,
    active: Vec<TcpStream>,
    pending: Arc<Mutex<Vec<TcpStream>>>,
    events_written: u64,
    write_errors: u64,
    io_errors: Vec<String>,
}

/// The `--trace-out` file sink: every write goes through the checked
/// write-all helper, so a partial write or `ENOSPC` surfaces as a
/// structured, path-tagged error instead of a panic or a silent short
/// file. The sink disarms after the first failure (one structured error,
/// not one per event on a full disk).
struct TraceSink {
    writer: BufWriter<std::fs::File>,
    path: PathBuf,
}

impl TraceSink {
    fn create(path: &Path) -> io::Result<Self> {
        Ok(TraceSink {
            writer: BufWriter::new(std::fs::File::create(path)?),
            path: path.to_path_buf(),
        })
    }

    fn write_line(&mut self, line: &str) -> Result<(), String> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.write_raw(&buf)
    }

    fn write_raw(&mut self, bytes: &[u8]) -> Result<(), String> {
        write_all_tagged(&mut self.writer, bytes, &self.path).map_err(|e| e.to_string())
    }

    fn finish(mut self) -> Result<(), String> {
        self.writer
            .flush()
            .map_err(|e| format!("trace {}: flush failed: {e}", self.path.display()))
    }
}

impl EventHub {
    fn sink_line(&mut self, line: &str) {
        if let Some(file) = &mut self.file {
            if let Err(e) = file.write_line(line) {
                self.write_errors += 1;
                self.io_errors.push(e);
                self.file = None;
            }
        }
    }
}

impl Observer for EventHub {
    fn on_event(&mut self, event: Event) {
        if matches!(event, Event::ChrononStart { .. }) {
            let mut pending = self.pending.lock().unwrap();
            self.active.append(&mut pending);
        }
        let line = match serde_json::to_string(&event) {
            Ok(line) => line,
            Err(_) => {
                self.write_errors += 1;
                return;
            }
        };
        self.events_written += 1;
        self.sink_line(&line);
        self.active
            .retain_mut(|sock| writeln!(sock, "{line}").is_ok());
    }

    fn enabled(&self) -> bool {
        true
    }
}

/// An observer forwarding to a [`JournalObserver`] when journaling is on.
struct MaybeJournal(Option<JournalObserver>);

impl Observer for MaybeJournal {
    fn on_event(&mut self, event: Event) {
        if let Some(journal) = &mut self.0 {
            journal.on_event(event);
        }
    }

    fn enabled(&self) -> bool {
        true
    }
}

/// A bound `webmon serve` daemon, ready to run one engine session.
pub struct Daemon {
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    hooks: Vec<ClockRelease>,
}

impl Daemon {
    /// Binds the control socket. `127.0.0.1:0` picks a free port — read it
    /// back with [`local_addr`](Self::local_addr).
    pub fn bind(addr: &str) -> io::Result<Daemon> {
        Ok(Daemon {
            listener: TcpListener::bind(addr)?,
            stop: Arc::new(AtomicBool::new(false)),
            hooks: Vec::new(),
        })
    }

    /// The bound address of the control socket.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The daemon's stop flag (set when the `shutdown` command triggers
    /// the control shutdown); shared so tests can observe termination.
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Registers an extra shutdown hook, run (after the stop flag is set)
    /// when the `shutdown` command arrives — e.g. a live executor's
    /// fail-fast flag, so a probe mid-backoff cannot delay exit.
    pub fn on_shutdown(&mut self, hook: ClockRelease) {
        self.hooks.push(hook);
    }

    /// Runs the engine to the horizon on the calling thread while the
    /// accept thread serves the protocol, then tears everything down —
    /// every spawned thread is joined before this returns.
    pub fn run<E, C>(
        self,
        session: ServeSession,
        executor: E,
        clock: C,
        trace_out: Option<&Path>,
    ) -> Result<DaemonOutcome, ServeError>
    where
        E: ProbeExecutor,
        C: Clock,
    {
        self.run_with(
            session,
            executor,
            |_| clock,
            ServeOptions {
                trace_out: trace_out.map(Path::to_path_buf),
                ..ServeOptions::default()
            },
        )
    }

    /// [`run`](Self::run) with the full option set: journaling, crash
    /// recovery, and an anchor-aware clock. `make_clock` receives the first
    /// chronon that executes live — 0 for a fresh run, one past the last
    /// journaled chronon when recovering — so a wall clock can anchor there
    /// and never pace the replayed prefix.
    pub fn run_with<E, C, F>(
        mut self,
        session: ServeSession,
        executor: E,
        make_clock: F,
        opts: ServeOptions,
    ) -> Result<DaemonOutcome, ServeError>
    where
        E: ProbeExecutor,
        C: Clock,
        F: FnOnce(Chronon) -> C,
    {
        let fp = fingerprint(&session, &executor.descriptor());

        // Recovery planning happens before anything spawns: scan the
        // journal, check its header against this invocation, distill the
        // replay plan. Scan failures (beyond a discardable torn tail) are
        // structured errors, never a silent partial replay.
        let recovery: Option<Recovery> = match (&opts.journal, opts.recover) {
            (Some(jc), true) => {
                let scan = scan_journal(&jc.path())?;
                scan.verify_fingerprint(&fp)?;
                let plan = Recovery::plan(&scan)?;
                if let Some(snap) = &plan.resume {
                    snap.validate(&session.instance, executor.fallible())
                        .map_err(|detail| JournalError::SnapshotMismatch {
                            at: snap.at,
                            detail,
                        })?;
                }
                Some(plan)
            }
            (None, true) => {
                return Err(ServeError::Io(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "recovery requires a journal directory",
                )))
            }
            _ => None,
        };
        let first_live = recovery.as_ref().map_or(0, Recovery::first_live_chronon);
        let live = recovery
            .as_ref()
            .map_or_else(LiveMutationQueue::new, Recovery::live_queue);

        // The journal writer: fresh (header first), or appending after the
        // already-journaled prefix — truncated to the scan's valid length
        // first, so a discarded torn tail never has records appended after
        // it — with re-emitted frames suppressed.
        let journal: Option<SharedJournal> = match &opts.journal {
            Some(jc) => {
                let writer = match &recovery {
                    Some(rec) => JournalWriter::append_to(
                        &jc.path(),
                        jc.fsync,
                        rec.replay_until,
                        rec.valid_len,
                    )?,
                    None => JournalWriter::create(&jc.path(), jc.fsync, &fp)?,
                };
                Some(Arc::new(Mutex::new(writer)))
            }
            None => None,
        };

        let clock = make_clock(first_live);
        let pending: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let mut hooks = std::mem::take(&mut self.hooks);
        hooks.push(clock.release_handle());
        let ctl = Arc::new(Control {
            live: live.clone(),
            stop: Arc::clone(&self.stop),
            pending: Arc::clone(&pending),
            hooks,
            n_ceis: session.instance.ceis.len(),
            journal: journal.clone(),
        });
        self.listener.set_nonblocking(true)?;
        let accept = {
            let listener = self.listener.try_clone()?;
            let ctl = Arc::clone(&ctl);
            thread::spawn(move || accept_loop(listener, ctl))
        };

        let file = match &opts.trace_out {
            Some(path) => Some(TraceSink::create(path)?),
            None => None,
        };
        let mut hub = EventHub {
            file,
            active: Vec::new(),
            pending,
            events_written: recovery.as_ref().map_or(0, |r| r.prefix_events),
            write_errors: 0,
            io_errors: Vec::new(),
        };
        let mut metrics = MetricsObserver::new();

        // Recovery's trace prefix: chronons before the snapshot boundary are
        // not re-emitted by the resumed engine, so their journaled bytes go
        // to the trace file (and through the metrics observer) up front.
        if let Some(rec) = &recovery {
            if !rec.prefix_lines.is_empty() {
                if let Some(sink) = &mut hub.file {
                    if let Err(e) = sink.write_raw(rec.prefix_lines.as_bytes()) {
                        hub.write_errors += 1;
                        hub.io_errors.push(e);
                        hub.file = None;
                    }
                }
                let events =
                    replay_events(&rec.prefix_lines).map_err(|e| JournalError::Corrupt {
                        offset: 0,
                        detail: format!("journaled trace prefix line {}: {}", e.line, e.detail),
                    })?;
                for event in events {
                    metrics.on_event(event);
                }
            }
        }

        let mut jobs = MaybeJournal(
            journal
                .as_ref()
                .map(|core| JournalObserver::new(Arc::clone(core), live.clone())),
        );
        let mut sink: Box<dyn SnapshotSink> = match (&journal, &opts.journal) {
            (Some(core), Some(jc)) => Box::new(JournalSink::new(
                Arc::clone(core),
                jc.snapshot_every,
                recovery.as_ref().and_then(|r| r.replay_until),
            )),
            _ => Box::new(NoSnapshots),
        };

        let mut divergence = None;
        let result = match &recovery {
            Some(rec) => {
                let journal_exec =
                    rec.executor(executor, session.instance.n_resources, opts.resync_executor);
                divergence = Some(journal_exec.divergence());
                let mut source = rec.mutations(DaemonSource::new(session.script, live));
                drive_resumable(
                    &session.instance,
                    session.policy.as_ref(),
                    session.config,
                    journal_exec,
                    session.fault_config,
                    &mut source,
                    clock,
                    Tee(&mut metrics, Tee(&mut hub, &mut jobs)),
                    rec.resume.as_ref(),
                    sink.as_mut(),
                )
            }
            None => {
                let mut source = DaemonSource::new(session.script, live);
                drive_resumable(
                    &session.instance,
                    session.policy.as_ref(),
                    session.config,
                    executor,
                    session.fault_config,
                    &mut source,
                    clock,
                    Tee(&mut metrics, Tee(&mut hub, &mut jobs)),
                    None,
                    sink.as_mut(),
                )
            }
        };

        // Horizon reached (or shutdown already free-ran us here): stop the
        // protocol side and join every thread.
        ctl.shutdown();
        accept.join().ok();
        if let Some(mut journal_obs) = jobs.0.take() {
            journal_obs.finish();
        }
        if let Some(sink) = hub.file.take() {
            if let Err(e) = sink.finish() {
                hub.write_errors += 1;
                hub.io_errors.push(e);
            }
        }
        let mut io_errors = std::mem::take(&mut hub.io_errors);
        if let Some(core) = &journal {
            io_errors.extend(core.lock().unwrap().errors().iter().cloned());
        }
        // Replay consumed the journal differently than the recording (the
        // fingerprint is a hash, not the inputs themselves): the recovery
        // is invalid and its output must not be trusted — a structured
        // error, never a panic, and never a silent mis-replay.
        if let Some(cell) = divergence {
            if let Some(detail) = cell.lock().unwrap().take() {
                return Err(ServeError::Journal(JournalError::ReplayDivergence {
                    detail,
                }));
            }
        }
        Ok(DaemonOutcome {
            result,
            metrics: metrics.metrics().clone(),
            events_written: hub.events_written,
            write_errors: hub.write_errors,
            io_errors,
        })
    }
}

/// The configuration fingerprint pinned in the journal header. It covers
/// everything that determines a driven run: the instance **content** (CRC
/// of its serialized form, not just its dimensions), the policy's full
/// spec (name + parameters), engine mode, the fault/retry configuration,
/// the compiled churn script, and the executor's descriptor (fault model
/// kind, parameters, and seed for scripted executors). Recovery under any
/// same-shaped-but-different input would replay the journal against a run
/// it does not describe, so `--recover` refuses a mismatch with a
/// structured error up front instead of diverging mid-replay.
fn fingerprint(session: &ServeSession, executor_desc: &str) -> String {
    let hash = |json: Result<String, serde_json::Error>| match json {
        Ok(s) => format!("{:08x}", crc32(s.as_bytes())),
        Err(_) => "unserializable".to_string(),
    };
    format!(
        "v2;horizon={};resources={};ceis={};instance={};policy={};preemptive={};share={};\
         fault_config={};script={};executor={}",
        session.instance.epoch.len(),
        session.instance.n_resources,
        session.instance.ceis.len(),
        hash(serde_json::to_string(&session.instance)),
        session.policy.spec(),
        session.config.preemptive,
        session.config.share_probes,
        hash(serde_json::to_string(&session.fault_config)),
        hash(serde_json::to_string(&session.script)),
        executor_desc,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_control(n_ceis: usize) -> Control {
        Control {
            live: LiveMutationQueue::new(),
            stop: Arc::new(AtomicBool::new(false)),
            pending: Arc::new(Mutex::new(Vec::new())),
            hooks: Vec::new(),
            n_ceis,
            journal: None,
        }
    }

    fn reply(action: Action) -> String {
        match action {
            Action::Reply(s) | Action::Attach(s) | Action::Shutdown(s) => s,
        }
    }

    #[test]
    fn protocol_lines_are_json() {
        let ctl = test_control(4);
        for (line, expect) in [
            ("ping", r#"{"ok":"pong"}"#),
            ("attach", r#"{"ok":"attached"}"#),
            ("shutdown", r#"{"ok":"shutting-down"}"#),
            ("register 2", r#"{"ok":{"register":2}}"#),
            ("cancel 0", r#"{"ok":{"cancel":0}}"#),
            ("set-budget 7", r#"{"ok":{"set-budget":7}}"#),
        ] {
            assert_eq!(reply(handle_line(line, &ctl)), expect, "{line}");
        }
        assert_eq!(ctl.live.pending(), 3);
    }

    #[test]
    fn malformed_lines_are_structured_errors() {
        let ctl = test_control(2);
        for line in [
            "frobnicate",
            "register",
            "register x",
            "register 9",
            "set-budget many",
            "ping twice please",
        ] {
            let resp = reply(handle_line(line, &ctl));
            let v: Value = serde_json::from_str(&resp).unwrap();
            assert!(!v["err"].is_null(), "{line} -> {resp}");
            assert_eq!(v["err"]["input"], *line, "{resp}");
        }
        assert_eq!(ctl.live.pending(), 0, "rejected commands submit nothing");
    }

    #[test]
    fn shutdown_sets_stop_and_runs_hooks() {
        let fired = Arc::new(AtomicBool::new(false));
        let mut ctl = test_control(1);
        let observed = Arc::clone(&fired);
        ctl.hooks.push(Arc::new(move || {
            observed.store(true, Ordering::SeqCst);
        }));
        assert!(matches!(handle_line("shutdown", &ctl), Action::Shutdown(_)));
        ctl.shutdown();
        assert!(ctl.stop.load(Ordering::SeqCst));
        assert!(fired.load(Ordering::SeqCst));
    }
}
