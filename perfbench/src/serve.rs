//! The serve-live workload: the `webmon serve` daemon on a wall clock, one
//! subscriber attached from chronon 0 and one connection sending
//! open-loop `register` lines, repeated in sessions for the run's duration.

use crate::calibrate::{self, HostSpeed};
use crate::layers::{ClockLog, GatedClock, Spans, StartGate, TimedExecutor, TimedPolicy};
use crate::metrics::{self, Layers};
use crate::report::{peak_rss_mb, Report};
use crate::setup::{self, derive_seed, SetupTimes, Shape};
use crate::stats::{median, tail_percentile, Latency};
use crate::Args;
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};
use webmon_cli::serve::{Daemon, DaemonOutcome, ServeError, ServeOptions, ServeSession};
use webmon_core::engine::{EngineConfig, MutationQueue};
use webmon_core::fault::FaultConfig;
use webmon_core::model::{CeiId, Instance};
use webmon_core::obs::{replay_metrics, RunMetrics};
use webmon_core::policy::{MEdf, Policy};
use webmon_core::serve::journal::scan_journal;
use webmon_core::serve::{
    FsyncPolicy, JournalConfig, ProbeExecutor, Recovery, ReplayExecutor, WallClock,
};
use webmon_streams::{parse_record, SimRng};

/// Paper density at ~4×10⁴ CEIs.
const SHAPE: Shape = Shape {
    profiles: 600,
    horizon: 1000,
    budget: 2,
    lambda: 66.7,
};

/// Wall-clock chronon period; the engine needs well under half of it.
const PERIOD_MS: u64 = 3;

/// `webmon serve`'s default snapshot cadence.
const SNAPSHOT_EVERY: u32 = 64;

/// Client-only CEIs registered per session.
const REGISTRATIONS: usize = 900;

/// A registration is due this many chronons before its CEI's natural
/// release chronon.
const LEAD: u32 = 2;

/// Targets are released from this chronon on, so the schedule starts after
/// the subscriber holds chronon 0.
const FIRST_RELEASE: u32 = 12;

/// Targets are released at least this many chronons before the horizon, so
/// no registration races the daemon's shutdown.
const MARGIN: u32 = 100;

/// A chronon admitted more than this after its due time counts as late.
const LATE_US: f64 = 1000.0;

/// Late chronons this close after a snapshot boundary count as following
/// the snapshot.
const AFTER_SNAPSHOT: u32 = 16;

/// Kernel runs per host-speed sample (their median is the sample).
const KERNELS: usize = 9;

/// Sessions per run at least, however short `--seconds` is.
const MIN_SESSIONS: usize = 3;

/// The benchmark's clients: the subscriber and the registering connection.
const CLIENTS: u32 = 2;

/// How long a client waits on the daemon before giving up.
const PATIENCE: Duration = Duration::from_secs(30);

fn period() -> Duration {
    Duration::from_millis(PERIOD_MS)
}

/// One registration of the open-loop schedule.
#[derive(Debug, Clone, Copy)]
struct Due {
    cei: u32,
    /// Due time after chronon 0's due time.
    offset: Duration,
}

/// Picks the session's client-only CEIs and returns the churn script that
/// makes them so: a `Register` for each at the horizon, which the engine
/// never drains but which suppresses the natural release.
fn client_only(instance: &Instance, seed: u64, rep: u64) -> (Vec<Due>, MutationQueue) {
    let horizon = instance.epoch.len();
    let mut pool: Vec<(u32, u32)> = instance
        .ceis
        .iter()
        .filter(|c| c.release >= FIRST_RELEASE && c.release + MARGIN <= horizon)
        .map(|c| (c.release, c.id.0))
        .collect();
    let mut rng = SimRng::new(derive_seed(seed, "client")).fork_indexed("repetition", rep);
    let take = REGISTRATIONS.min(pool.len());
    for i in 0..take {
        let j = i + rng.below((pool.len() - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(take);
    pool.sort_unstable();
    let mut queue = MutationQueue::new();
    let schedule = pool
        .iter()
        .map(|&(release, cei)| {
            queue.register(horizon, CeiId(cei));
            Due {
                cei,
                offset: period() * (release - LEAD),
            }
        })
        .collect();
    (schedule, queue)
}

/// Minimal `ppoll(2)` binding: wait until a socket is readable with
/// high-resolution timeouts (`SO_RCVTIMEO` rounds to scheduler ticks).
mod poll {
    use std::io;
    use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    #[repr(C)]
    struct TimeSpec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    const POLLIN: c_short = 0x001;

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const TimeSpec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    /// Blocks until `fd` is readable or `timeout` passes; true if readable.
    pub fn readable(fd: RawFd, timeout: Duration) -> io::Result<bool> {
        let mut pfd = PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        };
        let ts = TimeSpec {
            tv_sec: timeout.as_secs().min(3600) as c_long,
            tv_nsec: c_long::from(timeout.subsec_nanos() as i32),
        };
        // SAFETY: `pfd` and `ts` are live, aligned `#[repr(C)]` values laid
        // out as the kernel's `struct pollfd` and `struct timespec`; `nfds`
        // is 1, matching the one `pfd`; a null `sigmask` leaves the signal
        // mask unchanged. `ppoll` writes only `pfd.revents`.
        let rc = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
        if rc < 0 {
            let e = io::Error::last_os_error();
            return if e.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            };
        }
        Ok(rc > 0)
    }
}

/// What the subscriber held, and when.
#[derive(Debug, Default)]
struct SubscriberLog {
    /// Per chronon: when its `ChrononEnd` line was read.
    ends: Vec<Instant>,
    /// `(cei, when)` per `CeiRegistered` line.
    registered: Vec<(u32, Instant)>,
    events: u64,
    bytes: u64,
    /// Start/end pairs arrived in order, without gaps, to the horizon.
    gapless: bool,
}

/// The number after `prefix` at the start of `line`.
fn field(line: &str, prefix: &str) -> Option<u32> {
    let rest = line.strip_prefix(prefix)?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

fn read_reply(reader: &mut impl BufRead, expect: &str) -> Result<(), String> {
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("reading the {expect} reply: {e}"))?;
    if line.trim_end() == expect {
        Ok(())
    } else {
        Err(format!("expected {expect}, got {line:?}"))
    }
}

fn subscriber(addr: SocketAddr, gate: &StartGate, horizon: u32) -> Result<SubscriberLog, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("subscriber connect: {e}"))?;
    stream
        .set_read_timeout(Some(PATIENCE))
        .map_err(|e| e.to_string())?;
    (&stream)
        .write_all(b"attach\n")
        .map_err(|e| format!("subscriber attach: {e}"))?;
    let mut reader = BufReader::with_capacity(1 << 16, &stream);
    read_reply(&mut reader, r#"{"ok":"attached"}"#)?;
    gate.ready();

    let mut log = SubscriberLog {
        ends: Vec::with_capacity(horizon as usize),
        ..SubscriberLog::default()
    };
    let (mut next, mut open, mut ordered) = (0u32, false, true);
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("subscriber read: {e}"))?;
        if n == 0 {
            break;
        }
        let now = Instant::now();
        log.events += 1;
        log.bytes += n as u64;
        if let Some(t) = field(&line, r#"{"ChrononStart":{"t":"#) {
            ordered &= !open && t == next;
            open = true;
            if t == 0 {
                gate.first_start_seen();
            }
        } else if let Some(t) = field(&line, r#"{"ChrononEnd":{"t":"#) {
            ordered &= open && t == next;
            open = false;
            next += 1;
            log.ends.push(now);
        } else if let Some(cei) = field(&line, r#"{"CeiRegistered":{"cei":"#) {
            log.registered.push((cei, now));
        }
    }
    log.gapless = ordered && !open && next == horizon;
    Ok(log)
}

/// What the registering connection sent and received, per registration.
#[derive(Debug, Default)]
struct ClientLog {
    anchor: Option<Instant>,
    sent: Vec<Option<Instant>>,
    acked: Vec<Option<Instant>>,
    ack_ok: Vec<bool>,
}

/// Sends the schedule open-loop on one connection: each line leaves at its
/// due time whether or not earlier replies arrived, and replies are read
/// as they come in between sends.
fn register_client(
    addr: SocketAddr,
    gate: &StartGate,
    schedule: &[Due],
) -> Result<ClientLog, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("client connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(PATIENCE))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(b"ping\n")
        .map_err(|e| format!("client ping: {e}"))?;
    read_reply(&mut BufReader::new(&stream), r#"{"ok":"pong"}"#)?;
    gate.ready();

    let n = schedule.len();
    let mut log = ClientLog {
        anchor: None,
        sent: vec![None; n],
        acked: vec![None; n],
        ack_ok: vec![false; n],
    };
    let Some(anchor) = gate.wait_started(PATIENCE) else {
        return Ok(log);
    };
    log.anchor = Some(anchor);
    stream.set_nonblocking(true).map_err(|e| e.to_string())?;
    let fd = stream.as_raw_fd();
    let mut in_flight: VecDeque<usize> = VecDeque::new();
    let mut inbox: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut next = 0;
    let give_up = anchor + period() * SHAPE.horizon + PATIENCE;
    loop {
        let now = Instant::now();
        let mut burst = String::new();
        while next < n && anchor + schedule[next].offset <= now {
            burst.push_str(&format!("register {}\n", schedule[next].cei));
            log.sent[next] = Some(now);
            in_flight.push_back(next);
            next += 1;
        }
        write_all_nonblocking(&mut stream, burst.as_bytes())
            .map_err(|e| format!("client send: {e}"))?;

        let mut closed = false;
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(got) => {
                    let at = Instant::now();
                    inbox.extend_from_slice(&chunk[..got]);
                    while let Some(pos) = inbox.iter().position(|&b| b == b'\n') {
                        let line: Vec<u8> = inbox.drain(..=pos).collect();
                        let Some(i) = in_flight.pop_front() else {
                            return Err("a reply arrived for no request".to_string());
                        };
                        let expect = format!("{{\"ok\":{{\"register\":{}}}}}\n", schedule[i].cei);
                        log.acked[i] = Some(at);
                        log.ack_ok[i] = line == expect.as_bytes();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("client read: {e}")),
            }
        }
        let now = Instant::now();
        if closed || (next == n && in_flight.is_empty()) || now > give_up {
            return Ok(log);
        }
        let wait = if next < n {
            (anchor + schedule[next].offset).saturating_duration_since(now)
        } else {
            give_up - now
        };
        poll::readable(fd, wait).map_err(|e| format!("client poll: {e}"))?;
    }
}

fn write_all_nonblocking(stream: &mut TcpStream, mut bytes: &[u8]) -> io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::yield_now(),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The benchmark's one call into the daemon.
fn run_daemon(
    daemon: Daemon,
    session: ServeSession,
    executor: Box<dyn ProbeExecutor>,
    clock: GatedClock<WallClock>,
    journal_dir: &Path,
) -> Result<DaemonOutcome, ServeError> {
    daemon.run_with(
        session,
        executor,
        move |_| clock,
        ServeOptions {
            journal: Some(JournalConfig {
                dir: journal_dir.to_path_buf(),
                fsync: FsyncPolicy::Os,
                snapshot_every: SNAPSHOT_EVERY,
            }),
            ..ServeOptions::default()
        },
    )
}

/// What the post-run journal scan found.
#[derive(Debug, Default, Clone, Copy)]
struct JournalFacts {
    bytes: u64,
    frames: usize,
    snapshots: usize,
    live: usize,
    frame_bytes: u64,
    scan_s: f64,
}

/// One daemon session's measurements.
struct Session {
    traced: bool,
    times: SetupTimes,
    setup_s: f64,
    prep_s: f64,
    completeness: f64,
    due: usize,
    ok: usize,
    /// Per chronon: engine-thread time between the clock's admissions.
    busy_us: Vec<f64>,
    wait_s: f64,
    late_us: Vec<f64>,
    late_after_snapshot: (usize, usize),
    delivery_us: Vec<f64>,
    ack_us: Vec<f64>,
    rtt_us: Vec<f64>,
    apply_us: Vec<f64>,
    client_late_us: Vec<f64>,
    events: u64,
    stream_bytes: u64,
    journal: JournalFacts,
    metrics: RunMetrics,
    score_calls: u64,
    score_s: f64,
    executor_probes: u64,
    executor_s: f64,
    ceis: f64,
    eis: f64,
    /// The reference kernel's time around the session.
    kernel_s: f64,
    /// The factor to the reference host speed (see `calibrate`).
    scale: f64,
}

impl Session {
    fn busy_s(&self) -> f64 {
        self.busy_us.iter().sum::<f64>() * 1e-6
    }

    /// `samples` at the reference host speed.
    fn scaled(&self, samples: &[f64]) -> Vec<f64> {
        samples.iter().map(|t| t * self.scale).collect()
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn session(
    args: &Args,
    index: usize,
    traced: bool,
    report: &mut Report,
    spans: &mut Spans,
) -> Result<Session, String> {
    let setup_start = Instant::now();
    let mut schedule = Vec::new();
    let inputs = setup::generate(SHAPE, args.seed, index as u64, |instance| {
        let (due, queue) = client_only(instance, args.seed, index as u64);
        schedule = due;
        queue
    });
    let horizon = inputs.instance.epoch.len();
    let journal_dir = args
        .out_dir()
        .join(format!("journal-{}-{index}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal_dir);
    let daemon = Daemon::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = daemon.local_addr().map_err(|e| format!("bind: {e}"))?;
    let gate = Arc::new(StartGate::default());
    let clock_log = Arc::new(Mutex::new(ClockLog::default()));

    let timed_policy = TimedPolicy::new(Box::new(MEdf));
    let score = Arc::clone(&timed_policy.score);
    let policy: Box<dyn Policy> = if traced {
        Box::new(timed_policy)
    } else {
        Box::new(MEdf)
    };
    let timed_executor = TimedExecutor::new(ReplayExecutor::faultless());
    let probe = Arc::clone(&timed_executor.probe);
    let executor: Box<dyn ProbeExecutor> = if traced {
        Box::new(timed_executor)
    } else {
        Box::new(ReplayExecutor::faultless())
    };
    let serve_session = ServeSession {
        instance: inputs.instance,
        policy,
        config: EngineConfig::preemptive(),
        fault_config: FaultConfig::default(),
        script: inputs.script,
    };
    let (ceis, eis) = (
        serve_session.instance.ceis.len(),
        serve_session.instance.total_eis(),
    );
    let clock = GatedClock::new(
        WallClock::new(PERIOD_MS),
        Arc::clone(&gate),
        CLIENTS,
        Arc::clone(&clock_log),
    );

    let (outcome, run_start, sub, client) = thread::scope(|s| {
        let sub = s.spawn(|| {
            let log = subscriber(addr, &gate, horizon);
            if log.is_err() {
                gate.abort();
            }
            log
        });
        let client = s.spawn(|| {
            let log = register_client(addr, &gate, &schedule);
            if log.is_err() {
                gate.abort();
            }
            log
        });
        let run_start = Instant::now();
        let outcome = run_daemon(daemon, serve_session, executor, clock, &journal_dir);
        gate.abort();
        let sub = sub
            .join()
            .unwrap_or_else(|_| Err("subscriber panicked".to_string()));
        let client = client
            .join()
            .unwrap_or_else(|_| Err("client panicked".to_string()));
        (outcome, run_start, sub, client)
    });
    let outcome = outcome.map_err(|e| format!("daemon: {e}"))?;
    let sub = sub?;
    let client = client?;
    let clock_log = std::mem::take(&mut *clock_log.lock().expect("clock log poisoned"));
    if clock_log.gate_failed {
        return Err("the clients did not connect in time".to_string());
    }
    let anchor = clock_log.anchor.ok_or("chronon 0 never started")?;
    let due_at = |t: usize| anchor + period() * t as u32;

    report.check(
        outcome.io_errors.is_empty() && outcome.write_errors == 0,
        || format!("daemon write errors: {:?}", outcome.io_errors),
    );
    report.check(sub.gapless, || {
        format!("session {index}: the subscriber's chronon stream has gaps")
    });

    // Registrations: acknowledged `ok`, then applied exactly once.
    let mut applied: std::collections::HashMap<u32, Vec<Instant>> = Default::default();
    for &(cei, at) in &sub.registered {
        applied.entry(cei).or_default().push(at);
    }
    let mut ok = 0;
    let (mut ack_us, mut rtt_us, mut apply_us, mut client_late_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let client_anchor = client.anchor.unwrap_or(anchor);
    for (i, d) in schedule.iter().enumerate() {
        let due = client_anchor + d.offset;
        let applied_at = applied.get(&d.cei).map_or(&[][..], Vec::as_slice);
        if let (Some(sent), Some(acked)) = (client.sent[i], client.acked[i]) {
            client_late_us.push(us(sent.saturating_duration_since(due)));
            ack_us.push(us(acked.saturating_duration_since(due)));
            rtt_us.push(us(acked.saturating_duration_since(sent)));
            if traced {
                spans.record("client.send", 0, u64::from(d.cei), (due, sent), 1);
                spans.record("serve.ack", 0, u64::from(d.cei), (sent, acked), 1);
            }
        }
        if let [at] = applied_at {
            apply_us.push(us(at.saturating_duration_since(due)));
            if traced {
                spans.record("serve.apply", 0, u64::from(d.cei), (due, *at), 1);
            }
        }
        if client.ack_ok[i] && applied_at.len() == 1 {
            ok += 1;
        }
    }
    let acked_ok = client.ack_ok.iter().filter(|&&a| a).count();
    report.check(sub.registered.len() == acked_ok, || {
        format!(
            "session {index}: {} CeiRegistered events for {acked_ok} acknowledged registrations",
            sub.registered.len()
        )
    });

    // The clock's view: lateness of each admission and the engine thread's
    // time between admissions.
    let (called, admitted) = (&clock_log.called, &clock_log.admitted);
    report.check(admitted.len() == horizon as usize, || {
        format!(
            "session {index}: the clock admitted {} chronons",
            admitted.len()
        )
    });
    let late_us: Vec<f64> = admitted
        .iter()
        .enumerate()
        .map(|(t, a)| us(a.saturating_duration_since(due_at(t))))
        .collect();
    let busy_us: Vec<f64> = admitted
        .iter()
        .zip(called.iter().skip(1))
        .map(|(a, c)| us(c.saturating_duration_since(*a)))
        .collect();
    let wait_s = called
        .iter()
        .zip(admitted)
        .skip(1)
        .map(|(c, a)| a.saturating_duration_since(*c).as_secs_f64())
        .sum();
    let late: Vec<usize> = (0..late_us.len())
        .filter(|&t| late_us[t] > LATE_US)
        .collect();
    let after_snapshot = late
        .iter()
        .filter(|&&t| (t as u32) % SNAPSHOT_EVERY < AFTER_SNAPSHOT)
        .count();
    let delivery_us: Vec<f64> = sub
        .ends
        .iter()
        .enumerate()
        .map(|(t, end)| us(end.saturating_duration_since(due_at(t))))
        .collect();
    if traced {
        for t in 0..admitted.len() {
            let key = t as u64;
            if t > 0 {
                spans.record("clock.wait", 0, key, (called[t], admitted[t]), 1);
            }
            if let Some(next) = called.get(t + 1) {
                spans.record("engine.chronon", 0, key, (admitted[t], *next), 1);
            }
        }
    }

    let journal = check_journal(
        &journal_dir,
        horizon as usize,
        acked_ok,
        &outcome,
        index,
        report,
    );
    let _ = std::fs::remove_dir_all(&journal_dir);

    Ok(Session {
        traced,
        times: inputs.times,
        setup_s: anchor.saturating_duration_since(setup_start).as_secs_f64(),
        prep_s: clock_log.first_call.map_or(0.0, |c| {
            c.saturating_duration_since(run_start).as_secs_f64()
        }),
        completeness: outcome.result.stats.completeness(),
        due: schedule.len(),
        ok,
        busy_us,
        wait_s,
        late_after_snapshot: (after_snapshot, late.len()),
        late_us,
        delivery_us,
        ack_us,
        rtt_us,
        apply_us,
        client_late_us,
        events: sub.events,
        stream_bytes: sub.bytes,
        journal,
        metrics: outcome.metrics,
        score_calls: score.calls(),
        score_s: TimedPolicy::score_secs(&score),
        executor_probes: probe.calls(),
        executor_s: probe.secs(),
        ceis: ceis as f64,
        eis: eis as f64,
        kernel_s: 0.0,
        scale: 1.0,
    })
}

/// The journal's snapshot record kind (`journal.rs`, format version 1).
const SNAPSHOT_RECORD: u8 = 3;

/// Checks the session's journal with `scan_journal` and `Recovery::plan`:
/// no torn tail, one frame per chronon, one live record per
/// acknowledgement, nothing left undrained, and frames that replay to the
/// daemon's own metrics.
///
/// The scan runs on a copy without the snapshot records: decoding one
/// ~1 MB snapshot takes the vendored JSON parser tens of seconds, more
/// than a whole run may last. Snapshots are counted and sized instead.
fn check_journal(
    dir: &Path,
    horizon: usize,
    acked: usize,
    outcome: &DaemonOutcome,
    index: usize,
    report: &mut Report,
) -> JournalFacts {
    let path = dir.join(webmon_core::serve::journal::JOURNAL_FILE);
    let start = Instant::now();
    let mut facts = JournalFacts::default();
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) => {
            report.fail(format!("session {index}: reading the journal: {e}"));
            return facts;
        }
    };
    facts.bytes = bytes.len() as u64;
    let mut without_snapshots = Vec::with_capacity(bytes.len());
    let mut offset = 0;
    while let Ok(Some(record)) = parse_record(&bytes, offset) {
        if record.kind == SNAPSHOT_RECORD {
            facts.snapshots += 1;
        } else {
            without_snapshots.extend_from_slice(&bytes[record.offset..record.end]);
        }
        offset = record.end;
    }
    // A torn tail, if any, stays in the copy for the scan to report.
    without_snapshots.extend_from_slice(&bytes[offset..]);
    let copy = dir.join("without-snapshots.journal");
    if let Err(e) = std::fs::write(&copy, &without_snapshots) {
        report.fail(format!("session {index}: writing the journal copy: {e}"));
        return facts;
    }
    let scan = match scan_journal(&copy) {
        Ok(scan) => scan,
        Err(e) => {
            report.fail(format!("session {index}: journal scan: {e}"));
            return facts;
        }
    };
    let plan = Recovery::plan(&scan);
    facts.scan_s = start.elapsed().as_secs_f64();
    facts.frames = scan.frames.len();
    facts.live = scan.live.len();
    facts.frame_bytes = scan.frames.iter().map(|f| (f.end - f.offset) as u64).sum();
    report.check(scan.torn_tail.is_none(), || {
        format!(
            "session {index}: journal has a torn tail: {:?}",
            scan.torn_tail
        )
    });
    let contiguous = scan
        .frames
        .iter()
        .enumerate()
        .all(|(t, f)| f.t as usize == t);
    report.check(scan.frames.len() == horizon && contiguous, || {
        format!(
            "session {index}: {} journal frames for {horizon} chronons",
            scan.frames.len()
        )
    });
    report.check(scan.live.len() == acked, || {
        format!(
            "session {index}: {} journaled registrations for {acked} acknowledgements",
            scan.live.len()
        )
    });
    match plan {
        Ok(plan) => report.check(plan.undrained.is_empty(), || {
            format!(
                "session {index}: {} journaled registrations never drained",
                plan.undrained.len()
            )
        }),
        Err(e) => report.fail(format!("session {index}: recovery plan: {e}")),
    }
    let lines: String = scan.frames.iter().map(|f| f.lines.as_str()).collect();
    match replay_metrics(&lines) {
        Ok(replayed) => report.check(replayed == outcome.metrics, || {
            format!("session {index}: journal frames replay to different metrics")
        }),
        Err(e) => report.fail(format!(
            "session {index}: journal frames do not replay: {e:?}"
        )),
    }
    facts
}

pub fn run(args: &Args, host: &mut HostSpeed) -> Report {
    let mut report = Report::default();
    let mut spans = Spans::new();
    let mut sessions: Vec<Session> = Vec::new();
    let begin = Instant::now();
    let mut n = 0;
    while n < MIN_SESSIONS || begin.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && n % 2 == 1;
        let before = host.sample(KERNELS);
        match session(args, n, traced, &mut report, &mut spans) {
            Ok(mut s) => {
                let after = host.sample(KERNELS);
                s.kernel_s = (before + after) / 2.0;
                s.scale = calibrate::scale(before, after);
                sessions.push(s);
            }
            Err(e) => report.fail(format!("session {n}: {e}")),
        }
        n += 1;
    }
    let due: usize = sessions.iter().map(|s| s.due).sum();
    let ok: usize = sessions.iter().map(|s| s.ok).sum();
    report.attempted = due as u64;
    report.failed += (due - ok) as u64;
    let med = |set: &[&Session], f: &dyn Fn(&Session) -> f64| {
        median(&set.iter().map(|s| f(s)).collect::<Vec<_>>())
    };
    let lat = |set: &[&Session], f: &dyn Fn(&Session) -> &Vec<f64>| {
        Latency::pooled(set.iter().map(|s| f(s)))
    };
    let mean = |set: &[&Session], f: &dyn Fn(&Session) -> f64| {
        set.iter().map(|s| f(s)).sum::<f64>() / set.len().max(1) as f64
    };
    let untraced: Vec<&Session> = sessions.iter().filter(|s| !s.traced).collect();
    let traced: Vec<&Session> = sessions.iter().filter(|s| s.traced).collect();
    let all: Vec<&Session> = sessions.iter().collect();

    if !args.trace {
        let scaled = |f: &dyn Fn(&Session) -> &Vec<f64>| -> Vec<Vec<f64>> {
            untraced.iter().map(|s| s.scaled(f(s))).collect()
        };
        let (busy, deliveries) = (scaled(&|s| &s.busy_us), scaled(&|s| &s.delivery_us));
        let chronon = Latency::pooled(&busy);
        let delivery = Latency::pooled(&deliveries);
        let busy_n: usize = busy.iter().map(Vec::len).sum();
        let delivery_n: usize = deliveries.iter().map(Vec::len).sum();
        let busy_s = |set: &[Vec<f64>]| set.iter().flatten().sum::<f64>() * 1e-6;
        eprintln!(
            "perfbench: {} sessions; tails at p{} of {busy_n} chronons (busy) and p{} of \
             {delivery_n} (delivery); {:.1} chronons/s as measured, reference kernel {:.1} us",
            untraced.len(),
            tail_percentile(busy_n),
            tail_percentile(delivery_n),
            busy_n as f64 / untraced.iter().map(|s| s.busy_s()).sum::<f64>(),
            mean(&untraced, &|s| s.kernel_s) * 1e6,
        );
        metrics::end_to_end(
            &mut report,
            metrics::EndToEnd {
                setup_s: med(&untraced, &|s| s.setup_s * s.scale),
                peak_rss_mb: peak_rss_mb(),
                completeness: mean(&untraced, &|s| s.completeness),
                ok_frac: ok as f64 / due.max(1) as f64,
                chronons_per_s: busy_n as f64 / busy_s(&busy),
                chronon,
                delivery,
            },
        );
        return report;
    }

    let Some(first) = sessions.first() else {
        return report;
    };
    let setups: Vec<SetupTimes> = sessions.iter().map(|s| s.times).collect();
    let mut layers = Layers::new(&setups, first.ceis, first.eis);
    // Wrapper timings come from the traced sessions; everything seen from
    // outside the daemon from every session.
    let timed = if traced.is_empty() { &all } else { &traced };
    let count = |f: &dyn Fn(&RunMetrics) -> u64| med(&all, &|s| f(&s.metrics) as f64);
    let probes = count(&|m| m.probes_issued);
    let busy_s = med(&all, &|s| s.busy_s());
    layers.engine = metrics::EngineLayer {
        prep_s: med(&all, &|s| s.prep_s),
        busy_s,
        self_s: med(timed, &|s| s.busy_s() - s.score_s - s.executor_s),
        us_per_ei: busy_s / first.eis.max(1.0) * 1e6,
        pool_mean: med(&all, &|s| s.metrics.candidate_set.mean().unwrap_or(0.0)),
        probes,
        captures: count(&|m| m.eis_captured),
        ceis_expired: count(&|m| m.ceis_expired),
    };
    let score_calls = med(timed, &|s| s.score_calls as f64);
    layers.policy = metrics::PolicyLayer {
        score_calls,
        scores_per_probe: score_calls / probes.max(1.0),
        score_s: med(timed, &|s| s.score_s),
    };
    // The daemon's mutation source is internal: its drains are counted
    // from the event stream and their time is not observable from outside.
    layers.mutation = metrics::MutationLayer {
        drained: count(&|m| m.ceis_registered + m.ceis_cancelled + m.budget_reconfigurations),
        registered: count(&|m| m.ceis_registered),
        cancelled: count(&|m| m.ceis_cancelled),
        drain_s: 0.0,
    };
    let late = lat(&all, &|s| &s.late_us);
    let (after, late_total) = sessions.iter().fold((0, 0), |(a, l), s| {
        (a + s.late_after_snapshot.0, l + s.late_after_snapshot.1)
    });
    layers.clock = metrics::ClockLayer {
        wait_s: med(&all, &|s| s.wait_s),
        busy_frac: med(&all, &|s| s.busy_s() / (s.busy_s() + s.wait_s)),
        late_p50_us: late.p50,
        late_tail_us: late.tail,
        late_chronons: med(&all, &|s| s.late_after_snapshot.1 as f64),
        late_after_snapshot_frac: after as f64 / late_total.max(1) as f64,
    };
    layers.executor = metrics::ExecutorLayer {
        probes: med(timed, &|s| s.executor_probes as f64),
        probe_s: med(timed, &|s| s.executor_s),
    };
    let mb = |bytes: u64| bytes as f64 / f64::from(1 << 20);
    layers.journal = metrics::JournalLayer {
        mb: med(&all, &|s| mb(s.journal.bytes)),
        frames: med(&all, &|s| s.journal.frames as f64),
        snapshots: med(&all, &|s| s.journal.snapshots as f64),
        live_records: med(&all, &|s| s.journal.live as f64),
        frame_mb: med(&all, &|s| mb(s.journal.frame_bytes)),
        scan_s: med(&all, &|s| s.journal.scan_s),
    };
    let events = med(&all, &|s| s.events as f64);
    layers.serve = metrics::ServeLayer {
        events,
        events_per_chronon: events / f64::from(SHAPE.horizon),
        stream_mb: med(&all, &|s| mb(s.stream_bytes)),
        ack_rtt_p50_us: lat(&all, &|s| &s.rtt_us).p50,
        register_ack_p50_us: lat(&all, &|s| &s.ack_us).p50,
        register_ack_tail_us: lat(&all, &|s| &s.ack_us).tail,
        register_apply_p50_us: lat(&all, &|s| &s.apply_us).p50,
        client_sent: med(&all, &|s| s.client_late_us.len() as f64),
        client_late_p50_us: lat(&all, &|s| &s.client_late_us).p50,
        client_late_max_us: sessions
            .iter()
            .flat_map(|s| s.client_late_us.iter().copied())
            .fold(0.0, f64::max),
    };
    layers.host_kernel_us = mean(&all, &|s| s.kernel_s) * 1e6;
    layers.trace_overhead_frac = if traced.is_empty() || untraced.is_empty() {
        0.0
    } else {
        med(&traced, &|s| s.busy_s()) / med(&untraced, &|s| s.busy_s()) - 1.0
    };
    metrics::per_layer(&mut report, &layers);
    metrics::write_spans(&spans, args);
    report
}
