//! Both drain triggers end `Server::run` promptly now that its accept
//! blocks: `POST /admin/drain` on a server bound to the unspecified
//! address (the drain wakes the accept over loopback), and the
//! SIGTERM/SIGINT flag (the watcher thread turns it into a drain).
//!
//! The termination flag is process-global and never resets, so this file
//! is its own test binary, and its single test runs the HTTP case before
//! it raises the flag.

use disc_datagen::QuestConfig;
use disc_server::{signal, JobState, SchedulerConfig, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a drain may take from trigger to `run()` returning.
const PROMPT: Duration = Duration::from_secs(2);

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("disc-server-sig-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn config(addr: &str, data_dir: &Path) -> ServerConfig {
    ServerConfig {
        addr: addr.into(),
        data_dir: data_dir.to_path_buf(),
        // Tiny slices keep the job checkpointing and requeueing, so a
        // drain always finds it unfinished.
        scheduler: SchedulerConfig { threads: 1, slice_ops: 120, ..SchedulerConfig::default() },
        ..ServerConfig::default()
    }
}

/// A server running on its own thread, reached over loopback.
struct Running {
    addr: SocketAddr,
    done: mpsc::Receiver<Vec<u64>>,
    thread: JoinHandle<()>,
}

impl Running {
    /// `run()`'s result, which must arrive within [`PROMPT`].
    fn drained(self, trigger: &str) -> Vec<u64> {
        let queued = self
            .done
            .recv_timeout(PROMPT)
            .unwrap_or_else(|e| panic!("run() did not return after {trigger}: {e}"));
        self.thread.join().expect("server thread");
        queued
    }
}

fn start(server: &Server) -> Running {
    let (tx, done) = mpsc::channel();
    let runner = server.clone();
    let thread = std::thread::spawn(move || {
        let _ = tx.send(runner.run().expect("server run"));
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    let port = loop {
        if let Some(a) = server.local_addr() {
            break a.port();
        }
        assert!(Instant::now() < deadline, "server never bound");
        std::thread::sleep(Duration::from_millis(5));
    };
    Running { addr: SocketAddr::from((Ipv4Addr::LOCALHOST, port)), done, thread }
}

/// One HTTP request over a fresh connection; returns (status, body).
fn http(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes()).unwrap();
    s.write_all(body).unwrap();
    let mut resp = Vec::new();
    s.read_to_end(&mut resp).unwrap();
    let text = String::from_utf8_lossy(&resp).into_owned();
    let status: u16 = text.get(9..12).and_then(|s| s.parse().ok()).expect("status line");
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

/// Registers a database and submits one uncached job slow enough to be
/// unfinished at drain time; returns its id.
fn submit_slow_job(addr: SocketAddr) -> u64 {
    let db = QuestConfig::paper_table11()
        .with_ncust(60)
        .with_nitems(40)
        .with_pools(40, 80)
        .with_slen(8.0)
        .with_seed(5)
        .generate();
    let (status, body) = http(addr, "POST", "/dbs?name=q", &disc_core::encode_database(&db));
    assert_eq!(status, 201, "{body}");
    let (status, body) = http(addr, "POST", "/jobs?db=q&delta=4&nocache=1", b"");
    assert_eq!(status, 202, "{body}");
    let id = body.split("\"id\":").nth(1).and_then(|r| r.split([',', '}']).next());
    id.and_then(|v| v.parse().ok()).unwrap_or_else(|| panic!("job id in {body}"))
}

fn admin_drain_wakes_a_server_bound_to_the_unspecified_address() {
    let dir = temp_dir("unspecified");
    let server = Server::new(config("0.0.0.0:0", &dir));
    let running = start(&server);
    assert!(server.local_addr().unwrap().ip().is_unspecified());
    let id = submit_slow_job(running.addr);

    let (status, _) = http(running.addr, "POST", "/admin/drain", b"");
    assert_eq!(status, 200);
    let queued = running.drained("POST /admin/drain");
    assert_eq!(queued, vec![id], "the drained job is left resumable");
    let _ = std::fs::remove_dir_all(&dir);
}

fn termination_flag_drains_and_the_manifest_reloads() {
    let dir = temp_dir("sigterm");
    let server = Server::new(config("127.0.0.1:0", &dir));
    let running = start(&server);
    let id = submit_slow_job(running.addr);

    // What the SIGTERM/SIGINT handler does.
    signal::request_termination();
    let queued = running.drained("the termination flag");
    assert_eq!(queued, vec![id], "the drained job is left resumable");

    // A fresh server over the same directory reloads the job as queued.
    let fresh = Server::new(config("127.0.0.1:0", &dir));
    let job = fresh.scheduler().job(id).expect("job reloaded from the manifest");
    assert_eq!(job.inner.lock().unwrap().state, JobState::Queued);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admin_drain_and_the_termination_flag_each_end_run_promptly() {
    // Order matters: once raised, the flag drains every server in this
    // process.
    admin_drain_wakes_a_server_bound_to_the_unspecified_address();
    termination_flag_drains_and_the_manifest_reloads();
}
