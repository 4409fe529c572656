//! The `webmon serve` daemon: the simulator engine promoted to a
//! long-running monitor behind a local TCP socket.
//!
//! One engine run is one daemon lifetime. The engine executes on the
//! calling thread via [`webmon_core::serve::drive`]; a background accept
//! thread serves a line protocol on the listening socket:
//!
//! ```text
//! ping                  -> {"ok":"pong"}
//! attach                -> {"ok":"attached"}, then the JSONL event stream:
//!                          each chronon's events as one block when it
//!                          ends, from the next chronon start onward
//! register <cei-id>     -> {"ok":{"register":<id>}}   (drained next chronon)
//! cancel <cei-id>       -> {"ok":{"cancel":<id>}}
//! set-budget <n>        -> {"ok":{"set-budget":<n>}}
//! shutdown              -> {"ok":"shutting-down"}; the clock is released,
//!                          the engine free-runs to the horizon and exits
//! ```
//!
//! Every response is one JSON line. A malformed request gets a structured
//! `{"err":{"reason":...,"input":...}}` line and the connection stays
//! open; a request line longer than 1 KiB gets one such error, echoing
//! only a short prefix, and the connection is closed. Registration
//! commands feed the engine's live [`LiveMutationQueue`], drained at each
//! chronon start with exactly the mutation semantics of
//! `OnlineEngine::run_driven`.
//!
//! **Byte identity.** The daemon's event hub encodes every event once,
//! with [`Event::write_jsonl`] — the encoder
//! [`JsonlTraceObserver`](webmon_core::obs::JsonlTraceObserver) uses —
//! into one block per chronon. When the chronon ends the block is written
//! to the `--trace-out` file (which starts at event zero) and to every
//! attached socket (whose stream starts at its first post-attach chronon);
//! when the next chronon starts the same block becomes the chronon's
//! journal frame. The daemon's trace file is therefore byte-identical to
//! the simulator's for the same case, which `tests/tests/serve.rs` and
//! CI's `serve-smoke` job enforce.
//!
//! **Subscribers never stall the engine.** An attached socket is
//! nonblocking and gets each block in one write. A subscriber whose socket
//! cannot take the whole block — its kernel send buffer is full, or the
//! peer is gone — is shut down and counted in
//! [`DaemonOutcome::dropped_subscribers`]; its stream may end mid-line.

use serde_json::Value;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
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
use webmon_core::serve::journal::{scan_journal, JournalSink, JournalWriter, SharedJournal};
use webmon_core::serve::{
    drive, Clock, ClockRelease, DaemonSource, JournalConfig, JournalError, LiveMutationQueue,
    NoSnapshots, ProbeExecutor, Recovery, SnapshotSink,
};
use webmon_streams::{crc32, write_all_tagged};

/// How long a client read blocks before re-checking the stop flag, and how
/// long the accept loop naps when no connection is pending.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// The longest request line the protocol reads, newline excluded. The
/// longest valid command, `set-budget 4294967295`, is 21 bytes.
const MAX_REQUEST_LINE: usize = 1024;

/// How much of an over-long request line its error reply echoes.
const ECHOED_PREFIX: usize = 32;

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
    /// Events encoded by the hub (trace file, sockets and journal frames
    /// share them).
    pub events_written: u64,
    /// Failed trace-file writes (a full disk, a short write); each is also
    /// described in [`io_errors`](Self::io_errors).
    pub write_errors: u64,
    /// Attached subscribers disconnected because their socket could not
    /// take a whole chronon's block (full send buffer, or a gone peer).
    pub dropped_subscribers: u64,
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
    /// Trigger daemon shutdown, write the response, stop reading.
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

/// Writes one reply line in a single write: with `TCP_NODELAY` set it
/// leaves at once, instead of its newline waiting on the client's delayed
/// ACK.
fn write_reply(writer: &mut TcpStream, resp: &str) -> io::Result<()> {
    let mut line = Vec::with_capacity(resp.len() + 1);
    line.extend_from_slice(resp.as_bytes());
    line.push(b'\n');
    writer.write_all(&line)
}

/// The reply to a request line longer than [`MAX_REQUEST_LINE`]: it echoes
/// only the line's first [`ECHOED_PREFIX`] bytes (cut back to a character
/// boundary).
fn overlong_reply(line: &str) -> String {
    let mut end = ECHOED_PREFIX.min(line.len());
    while !line.is_char_boundary(end) {
        end -= 1;
    }
    err_line(
        format!("request line longer than {MAX_REQUEST_LINE} bytes; closing the connection"),
        &line[..end],
    )
}

/// Serves one client connection until it closes, attaches, or the daemon
/// stops. Reads use a short timeout so the thread notices shutdown
/// promptly; a timeout preserves any partially read line. A line longer
/// than [`MAX_REQUEST_LINE`] is never buffered whole: it gets one error
/// reply and the connection is closed. The socket runs with `TCP_NODELAY`,
/// so a reply — or, once attached, a chronon's event block — leaves in
/// one segment instead of waiting on the client's delayed ACK.
fn client_loop(stream: TcpStream, ctl: &Control) {
    if stream
        .set_read_timeout(Some(POLL_INTERVAL))
        .and_then(|()| stream.set_nodelay(true))
        .is_err()
    {
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
        // Read at most one byte past the limit: a line that is still
        // unterminated then is over-long.
        let room = (MAX_REQUEST_LINE + 1).saturating_sub(line.len()) as u64;
        match (&mut reader).take(room).read_line(&mut line) {
            Ok(0) => return,
            Ok(_) if !line.ends_with('\n') => {
                if line.len() > MAX_REQUEST_LINE {
                    // Reply, then send a FIN so the client reads the error
                    // before the end of the stream.
                    let _ = write_reply(&mut writer, &overlong_reply(&line));
                    let _ = writer.shutdown(Shutdown::Write);
                }
                // Otherwise the client hung up mid-command. Never execute
                // the fragment — drop only this session; the daemon keeps
                // serving.
                return;
            }
            Ok(_) => {
                let trimmed = line.trim().to_string();
                line.clear();
                if trimmed.is_empty() {
                    continue;
                }
                match handle_line(&trimmed, ctl) {
                    Action::Reply(resp) => {
                        if write_reply(&mut writer, &resp).is_err() {
                            return;
                        }
                    }
                    Action::Attach(resp) => {
                        if write_reply(&mut writer, &resp).is_ok() {
                            // From here the engine thread is the socket's
                            // only writer; this thread reads no further
                            // commands.
                            ctl.pending.lock().unwrap().push(writer);
                        }
                        return;
                    }
                    Action::Shutdown(resp) => {
                        // Stop first: a mutation the client sends after
                        // reading this reply must find the stop flag set.
                        ctl.shutdown();
                        let _ = write_reply(&mut writer, &resp);
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
/// every client thread before exiting so the daemon leaks nothing. Each
/// accept also joins the client threads that have already exited: an
/// exited thread keeps its stack mapped until it is joined.
fn accept_loop(listener: TcpListener, ctl: Arc<Control>) {
    let mut clients: Vec<thread::JoinHandle<()>> = Vec::new();
    while !ctl.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let (done, running) = clients.into_iter().partition(|c| c.is_finished());
                clients = running;
                for client in done {
                    client.join().ok();
                }
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

/// The engine-side event fan-out. Every event is encoded once, by
/// [`Event::write_jsonl`], into the current chronon's block:
///
/// * at `ChrononEnd { t }` the block goes to the `--trace-out` file in one
///   write and to every subscriber in one nonblocking write each;
/// * at `ChrononStart { t + 1 }` — after the clock's pacing wait — pending
///   sockets are promoted, so every stream begins at a chronon boundary;
///   then the block is appended as chronon `t`'s journal frame and cleared.
///
/// The last chronon's frame is appended by [`end_frame`](Self::end_frame)
/// after the run. Write failures are recorded, never propagated into the
/// engine.
struct EventHub {
    block: String,
    /// The chronon whose events `block` holds.
    chronon: Option<Chronon>,
    trace: Option<TraceSink>,
    subscribers: Subscribers,
    journal: Option<SharedJournal>,
    /// The live queue whose drain high-water mark each frame records.
    live: LiveMutationQueue,
    events_written: u64,
}

impl EventHub {
    /// Appends the held chronon's block as its journal frame, then clears
    /// the block. Called at `ChrononStart { t + 1 }`, the drain mark covers
    /// exactly the drains through chronon `t`: the engine emits the start
    /// event before it drains.
    fn end_frame(&mut self) {
        if let (Some(t), Some(core)) = (self.chronon.take(), &self.journal) {
            let drained = self.live.drained_seq();
            core.lock()
                .expect("journal lock poisoned by a panicked client thread")
                .frame(t, drained, &self.block);
        }
        self.block.clear();
    }
}

impl Observer for EventHub {
    fn on_event(&mut self, event: Event) {
        if let Event::ChrononStart { t, .. } = event {
            self.subscribers.promote();
            self.end_frame();
            self.chronon = Some(t);
        }
        event.write_jsonl(&mut self.block);
        self.events_written += 1;
        if let Event::ChrononEnd { .. } = event {
            if let Some(trace) = &mut self.trace {
                trace.write(self.block.as_bytes());
            }
            self.subscribers.send(self.block.as_bytes());
        }
    }
}

/// The `--trace-out` file: every write goes through the checked write-all
/// helper, so a partial write or `ENOSPC` surfaces as a structured,
/// path-tagged error instead of a panic or a silent short file. The sink
/// disarms after the first failure (one structured error, not one per
/// chronon on a full disk).
struct TraceSink {
    writer: Option<BufWriter<std::fs::File>>,
    path: PathBuf,
    errors: Vec<String>,
}

impl TraceSink {
    fn create(path: &Path) -> io::Result<Self> {
        Ok(TraceSink {
            writer: Some(BufWriter::new(std::fs::File::create(path)?)),
            path: path.to_path_buf(),
            errors: Vec::new(),
        })
    }

    fn write(&mut self, bytes: &[u8]) {
        if let Some(writer) = &mut self.writer {
            if let Err(e) = write_all_tagged(writer, bytes, &self.path) {
                self.errors.push(e.to_string());
                self.writer = None;
            }
        }
    }

    /// Flushes the file and returns every failure.
    fn finish(mut self) -> Vec<String> {
        if let Some(mut writer) = self.writer.take() {
            if let Err(e) = writer.flush() {
                self.errors
                    .push(format!("trace {}: flush failed: {e}", self.path.display()));
            }
        }
        self.errors
    }
}

/// The attached event streams. A client thread hands its socket over
/// through `pending`; [`promote`](Self::promote) makes it nonblocking and
/// active, and from then on the hub is its only writer.
///
/// There is no user-space backlog: the kernel send buffer is the only
/// queue. [`send`](Self::send) writes a block to each socket once; a
/// socket that takes less than the whole block (or fails) is shut down
/// and counted in `dropped`.
struct Subscribers {
    pending: Arc<Mutex<Vec<TcpStream>>>,
    active: Vec<TcpStream>,
    dropped: u64,
}

impl Subscribers {
    fn new(pending: Arc<Mutex<Vec<TcpStream>>>) -> Self {
        Subscribers {
            pending,
            active: Vec::new(),
            dropped: 0,
        }
    }

    /// Activates every socket handed over since the last call.
    fn promote(&mut self) {
        let mut pending = self
            .pending
            .lock()
            .expect("pending-subscriber lock poisoned by a panicked client thread");
        for sock in pending.drain(..) {
            match sock.set_nonblocking(true) {
                Ok(()) => self.active.push(sock),
                Err(_) => {
                    let _ = sock.shutdown(Shutdown::Both);
                    self.dropped += 1;
                }
            }
        }
    }

    /// Writes `block` to every active socket, dropping each one that cannot
    /// take all of it at once.
    fn send(&mut self, block: &[u8]) {
        let dropped = &mut self.dropped;
        self.active.retain_mut(|sock| {
            let whole = write_whole(sock, block);
            if !whole {
                let _ = sock.shutdown(Shutdown::Both);
                *dropped += 1;
            }
            whole
        });
    }
}

/// One nonblocking write of `block`: `true` only if the socket took every
/// byte. `WouldBlock`, any other error, and a short count are all `false`;
/// only `Interrupted` is retried.
fn write_whole(sock: &mut TcpStream, block: &[u8]) -> bool {
    loop {
        match sock.write(block) {
            Ok(n) => return n == block.len(),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
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
        // Recovery planning happens before anything spawns: scan the
        // journal, check its header against this invocation, distill the
        // replay plan. Scan failures (beyond a discardable torn tail) are
        // structured errors, never a silent partial replay. Then the
        // journal writer: fresh (header first), or appending after the
        // already-journaled prefix — truncated to the scan's valid length
        // first, so a discarded torn tail never has records appended after
        // it — with re-emitted frames suppressed.
        let (recovery, journal): (Option<Recovery>, Option<SharedJournal>) = match &opts.journal {
            None if opts.recover => {
                return Err(ServeError::Io(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "recovery requires a journal directory",
                )))
            }
            None => (None, None),
            Some(jc) => {
                // Only the journal uses the fingerprint: a CRC over the
                // serialized instance, ~150 ms at serve scale.
                let fp = fingerprint(&session, &executor.descriptor());
                let recovery = if opts.recover {
                    let scan = scan_journal(&jc.path())?;
                    scan.verify_fingerprint(&fp)?;
                    let plan = Recovery::plan(&scan)?;
                    // Checked before any file or thread is touched; the
                    // engine refuses the same mismatch with the same error.
                    if let Some(snap) = &plan.resume {
                        snap.validate(&session.instance, executor.fallible())
                            .map_err(JournalError::from)?;
                    }
                    Some(plan)
                } else {
                    None
                };
                let writer = match &recovery {
                    Some(rec) => JournalWriter::append_to(
                        &jc.path(),
                        jc.fsync,
                        rec.replay_until,
                        rec.valid_len,
                    )?,
                    None => JournalWriter::create(&jc.path(), jc.fsync, &fp)?,
                };
                (recovery, Some(Arc::new(Mutex::new(writer))))
            }
        };
        let first_live = recovery.as_ref().map_or(0, Recovery::first_live_chronon);
        let live = recovery
            .as_ref()
            .map_or_else(LiveMutationQueue::new, Recovery::live_queue);

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

        let trace = match &opts.trace_out {
            Some(path) => Some(TraceSink::create(path)?),
            None => None,
        };
        let mut hub = EventHub {
            block: String::new(),
            chronon: None,
            trace,
            subscribers: Subscribers::new(pending),
            journal: journal.clone(),
            live: live.clone(),
            events_written: recovery.as_ref().map_or(0, |r| r.prefix_events),
        };
        let mut metrics = MetricsObserver::new();

        // Recovery's trace prefix: chronons before the snapshot boundary are
        // not re-emitted by the resumed engine, so their journaled bytes go
        // to the trace file (and through the metrics observer) up front.
        if let Some(rec) = &recovery {
            if !rec.prefix_lines.is_empty() {
                if let Some(trace) = &mut hub.trace {
                    trace.write(rec.prefix_lines.as_bytes());
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
                drive(
                    &session.instance,
                    session.policy.as_ref(),
                    session.config,
                    journal_exec,
                    session.fault_config,
                    &mut source,
                    clock,
                    Tee(&mut metrics, &mut hub),
                    rec.resume.as_ref(),
                    sink.as_mut(),
                )
            }
            None => {
                let mut source = DaemonSource::new(session.script, live);
                drive(
                    &session.instance,
                    session.policy.as_ref(),
                    session.config,
                    executor,
                    session.fault_config,
                    &mut source,
                    clock,
                    Tee(&mut metrics, &mut hub),
                    None,
                    sink.as_mut(),
                )
            }
        };

        // Horizon reached (or shutdown already free-ran us here): stop the
        // protocol side and join every thread.
        ctl.shutdown();
        accept.join().ok();
        hub.end_frame();
        let mut io_errors = hub.trace.take().map_or_else(Vec::new, TraceSink::finish);
        let write_errors = io_errors.len() as u64;
        if let Some(core) = &journal {
            let mut core = core
                .lock()
                .expect("journal lock poisoned by a panicked client thread");
            core.finish();
            io_errors.extend(core.errors().iter().cloned());
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
            result: result.map_err(JournalError::from)?,
            metrics: metrics.metrics().clone(),
            events_written: hub.events_written,
            write_errors,
            dropped_subscribers: hub.subscribers.dropped,
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
    fn overlong_reply_echoes_a_short_prefix_on_a_char_boundary() {
        let line = format!("{}{}", "x".repeat(ECHOED_PREFIX - 1), "é".repeat(2000));
        let v: Value = serde_json::from_str(&overlong_reply(&line)).unwrap();
        let echoed = v["err"]["input"].as_str().unwrap();
        assert_eq!(
            echoed,
            "x".repeat(ECHOED_PREFIX - 1),
            "cut before the split é"
        );
        let reason = v["err"]["reason"].as_str().unwrap();
        assert!(reason.contains("longer than 1024 bytes"), "{reason}");
    }

    /// The fan-out on real loopback sockets: one subscriber never reads,
    /// one reads everything. Pushing ≥ 8 MB of chronon blocks must never
    /// block the caller, must drop the silent subscriber exactly once
    /// (counted) once its kernel buffers fill, and must deliver every block
    /// intact to the reading one.
    #[test]
    fn fan_out_drops_a_silent_subscriber_and_keeps_a_reading_one() {
        use std::sync::atomic::AtomicUsize;
        use std::time::Instant;
        use webmon_core::model::CeiId;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let silent = TcpStream::connect(addr).unwrap();
        let (silent_end, _) = listener.accept().unwrap();
        let reading = TcpStream::connect(addr).unwrap();
        let (reading_end, _) = listener.accept().unwrap();
        for end in [&silent_end, &reading_end] {
            // As `client_loop` leaves an attached socket. Should a write
            // ever block again, it fails this test after 5 s instead of
            // hanging it.
            end.set_nodelay(true).unwrap();
            end.set_write_timeout(Some(Duration::from_secs(5))).unwrap();
        }
        let pending = Arc::new(Mutex::new(vec![silent_end, reading_end]));
        let mut subs = Subscribers::new(Arc::clone(&pending));
        subs.promote();
        assert_eq!(subs.active.len(), 2);
        assert!(pending.lock().unwrap().is_empty());

        let received = Arc::new(AtomicUsize::new(0));
        let reader = thread::spawn({
            let received = Arc::clone(&received);
            move || {
                let mut all = Vec::new();
                let mut buf = vec![0u8; 1 << 16];
                loop {
                    match (&reading).read(&mut buf) {
                        Ok(0) => return all,
                        Ok(n) => {
                            all.extend_from_slice(&buf[..n]);
                            received.fetch_add(n, Ordering::SeqCst);
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => panic!("reading subscriber: {e}"),
                    }
                }
            }
        });

        // Stay at most this far ahead of the reader, well inside a fresh
        // loopback connection's buffers, so only the silent peer can fill.
        const LAG: usize = 16 << 10;
        let mut sent = Vec::new();
        let mut block = String::new();
        let mut t = 0;
        while sent.len() < 8 << 20 || subs.dropped == 0 {
            assert!(
                sent.len() < 256 << 20,
                "the silent subscriber was never dropped"
            );
            block.clear();
            for cei in 0..64 {
                Event::EiCaptured {
                    t,
                    cei: CeiId(cei),
                    latency: 1,
                }
                .write_jsonl(&mut block);
            }
            let waited = Instant::now();
            while sent.len() - received.load(Ordering::SeqCst) > LAG {
                assert!(waited.elapsed() < Duration::from_secs(10), "reader stalled");
                thread::yield_now();
            }
            let started = Instant::now();
            subs.send(block.as_bytes());
            assert!(
                started.elapsed() < Duration::from_secs(1),
                "a fan-out write blocked for {:?}",
                started.elapsed()
            );
            sent.extend_from_slice(block.as_bytes());
            t += 1;
        }
        assert_eq!(subs.dropped, 1, "the silent subscriber is dropped once");
        assert_eq!(subs.active.len(), 1, "the reading subscriber stays");
        drop(subs);
        let got = reader.join().unwrap();
        assert!(
            got == sent,
            "the reading subscriber got {} of {} bytes",
            got.len(),
            sent.len()
        );
        drop(silent);
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
