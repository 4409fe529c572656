//! Resource bounds of the `webmon serve` accept loop, measured on the whole
//! process (Linux only: it reads `/proc/self/status`). This file holds a
//! single test so that no concurrently running test perturbs the process's
//! `VmSize`.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;
use webmon_cli::serve::{Daemon, ServeOptions, ServeSession};
use webmon_core::engine::{EngineConfig, ScriptedMutations};
use webmon_core::fault::{FaultConfig, NoFaults};
use webmon_core::model::{Budget, InstanceBuilder};
use webmon_core::policy::MEdf;
use webmon_core::serve::{ManualClock, ManualHandle};

/// One request-reply exchange on a fresh connection, which is then closed.
fn exchange(addr: SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    writeln!(stream, "{request}").unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    reply.trim().to_string()
}

/// Releases the clock when the client thread ends, even by a failed
/// assertion, so the daemon finishes and the test fails instead of hanging.
struct ReleaseOnDrop(ManualHandle);

impl Drop for ReleaseOnDrop {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// The process's virtual memory size in KiB.
fn vm_size_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmSize:")).unwrap();
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

/// The accept loop joins client threads that have exited, so sequential
/// connections do not pile up unjoined threads, each of which keeps its
/// 2 MiB stack mapped until it is joined.
#[test]
fn finished_client_threads_are_joined_while_serving() {
    const CONNECTIONS: u64 = 100;
    let daemon = Daemon::bind("127.0.0.1:0").unwrap();
    let addr = daemon.local_addr().unwrap();
    let (clock, handle) = ManualClock::new();

    let client = thread::spawn(move || {
        let _release = ReleaseOnDrop(handle);
        for _ in 0..8 {
            assert_eq!(exchange(addr, "ping"), r#"{"ok":"pong"}"#);
        }
        let before = vm_size_kib();
        for _ in 0..CONNECTIONS {
            assert_eq!(exchange(addr, "ping"), r#"{"ok":"pong"}"#);
        }
        vm_size_kib().saturating_sub(before)
    });

    let mut b = InstanceBuilder::new(1, 10, Budget::Uniform(1));
    let p = b.profile();
    b.cei(p, &[(0, 2, 5)]);
    let session = ServeSession {
        instance: b.build(),
        policy: Box::new(MEdf),
        config: EngineConfig::preemptive(),
        fault_config: FaultConfig::default(),
        script: ScriptedMutations::default(),
    };
    daemon
        .run_with(session, NoFaults, |_| clock, ServeOptions::default())
        .unwrap();
    let grown_kib = client.join().unwrap();
    let leaked_kib = CONNECTIONS * 2 * 1024;
    assert!(
        grown_kib < leaked_kib / 2,
        "VmSize grew {grown_kib} KiB over {CONNECTIONS} connections"
    );
}
