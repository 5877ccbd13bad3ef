//! The server crash matrix: a short serving session — upload, a cacheable
//! job, a cache hit, a `nocache` job, drain — with one fault staged at each
//! publish point of the server's `manifest` and per-job `result.tsv`, then a
//! restart on the same data directory.
//!
//! The restarted server must reload every job the manifest records, and
//! each must end `done` with bytes identical to direct mining — no fault
//! here leaves a job that can only fail. A crash before the manifest
//! rename must leave the previous manifest, a crash after it the new one,
//! and nothing the "killed" server does afterwards may reach either file.
//!
//! `CorruptByte` is not staged: neither file carries a CRC, so a flipped
//! byte there is undetectable by design. Checkpoint writes are not frozen by
//! a crash here; any later checkpoint is one an earlier-timed crash could
//! have left, and `tests/checkpoint_recovery.rs` covers their own faults.

use disc_miner::core::{encode_database, FaultPlan, IoFault, IoWriter};
use disc_miner::prelude::*;
use disc_miner::server::{SchedulerConfig, Server, ServerConfig};
use std::fs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const FAULTS: [IoFault; 5] = [
    IoFault::TornWrite,
    IoFault::CrashBeforeRename,
    IoFault::CrashAfterRename,
    IoFault::Enospc,
    IoFault::Interrupted,
];

/// Every publish point of the session, as `(writer, n, step, early)`: the
/// `n`-th publish of `writer` fires during session step `step` (see
/// [`run_session`]), before that step's manifest publish when `early`.
const POINTS: [(IoWriter, u64, usize, bool); 8] = [
    (IoWriter::Manifest, 0, 0, false),
    (IoWriter::Manifest, 1, 1, false),
    (IoWriter::Manifest, 2, 2, false),
    (IoWriter::Manifest, 3, 3, false),
    (IoWriter::Manifest, 4, 4, false),
    // The cacheable job finishes after its submission was recorded.
    (IoWriter::JobResult, 0, 1, false),
    // A cache hit writes its result before the manifest records the job.
    (IoWriter::JobResult, 1, 2, true),
    (IoWriter::JobResult, 2, 3, false),
];

const DELTA: u64 = 6;

fn workload() -> SequenceDatabase {
    QuestConfig::paper_table11()
        .with_ncust(30)
        .with_nitems(20)
        .with_pools(20, 40)
        .with_slen(4.0)
        .with_seed(11)
        .generate()
}

/// The exact bytes `disc-mine` prints for the workload at [`DELTA`].
fn expected(db: &SequenceDatabase) -> String {
    DiscAll::default()
        .mine(db, MinSupport::Count(DELTA))
        .iter()
        .map(|(p, s)| format!("{s}\t{p}\n"))
        .collect()
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("disc-server-crash-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn start(dir: &Path, plan: Option<FaultPlan>) -> (SocketAddr, std::thread::JoinHandle<Vec<u64>>) {
    let server = Server::new(ServerConfig {
        data_dir: dir.to_path_buf(),
        scheduler: SchedulerConfig {
            threads: 1,
            slice_ops: 1_000_000,
            ..SchedulerConfig::default()
        },
        ..ServerConfig::default()
    });
    if let Some(plan) = plan {
        server.scheduler().arm_fault(plan);
    }
    let runner = server.clone();
    let handle = std::thread::spawn(move || runner.run().expect("server run"));
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(addr) = server.local_addr() {
            return (addr, handle);
        }
        assert!(Instant::now() < deadline, "server never bound");
        std::thread::sleep(Duration::from_millis(5));
    }
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

/// Extracts a `"key":"value"` or `"key":value` field from a flat JSON body.
fn field(json: &str, key: &str) -> String {
    let needle = format!("\"{key}\":");
    let rest =
        &json[json.find(&needle).unwrap_or_else(|| panic!("{key} in {json}")) + needle.len()..];
    let rest = rest.strip_prefix('"').unwrap_or(rest);
    rest.split(['"', ',', '}']).next().unwrap().to_string()
}

/// Polls `/jobs/{id}` until its state is terminal; returns the final body.
fn wait_terminal(addr: SocketAddr, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = http(addr, "GET", &format!("/jobs/{id}"), b"");
        assert_eq!(status, 200, "{body}");
        if ["done", "failed", "cancelled"].contains(&field(&body, "state").as_str()) {
            return body;
        }
        assert!(Instant::now() < deadline, "job {id} never settled: {body}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn drain(addr: SocketAddr, handle: std::thread::JoinHandle<Vec<u64>>) {
    assert_eq!(http(addr, "POST", "/admin/drain", b"").0, 200);
    handle.join().expect("server thread");
}

fn manifest(dir: &Path) -> Option<String> {
    fs::read_to_string(dir.join("manifest")).ok()
}

/// The manifest around one session step.
struct Step {
    before: Option<String>,
    after: Option<String>,
    /// A line the step's own manifest publish adds (drain adds none).
    adds: Option<String>,
}

/// Runs `action` and records the manifest around it.
fn observe(dir: &Path, adds: Option<String>, action: impl FnOnce()) -> Step {
    let before = manifest(dir);
    action();
    Step { before, after: manifest(dir), adds }
}

/// Runs the session; step `i` performs manifest publish `i`:
/// 0 upload, 1 cacheable job, 2 cache hit, 3 `nocache` job, 4 drain.
fn run_session(dir: &Path, db: &SequenceDatabase, plan: FaultPlan) -> Vec<Step> {
    let (addr, handle) = start(dir, Some(plan));
    let mut steps = vec![observe(dir, Some("db q upload".into()), || {
        let (status, body) = http(addr, "POST", "/dbs?name=q", &encode_database(db));
        assert_eq!(status, 201, "{body}");
    })];
    for (id, query) in [(1, ""), (2, ""), (3, "&nocache")] {
        steps.push(observe(dir, Some(format!("job {id} ")), || {
            let target = format!("/jobs?db=q&delta={DELTA}{query}");
            let (status, body) = http(addr, "POST", &target, b"");
            assert_eq!(status, if id == 2 { 200 } else { 202 }, "{body}");
            assert_eq!(field(&body, "id"), id.to_string());
            wait_terminal(addr, id);
        }));
    }
    steps.push(observe(dir, None, || drain(addr, handle)));
    steps
}

/// One case of the matrix: the session with `fault` at `point`, the
/// manifest checks, then a restart whose jobs must all settle correctly.
fn run_case(
    db: &SequenceDatabase,
    want: &str,
    point: (IoWriter, u64, usize, bool),
    fault: IoFault,
) {
    let (writer, n, at, early) = point;
    let label = format!("{writer:?}-{n}-{fault:?}");
    let dir = fresh_dir(&label);
    let steps = run_session(&dir, db, FaultPlan::io_fault_at(writer, n, fault));

    if writer == IoWriter::Manifest {
        let s = &steps[at];
        if matches!(fault, IoFault::CrashAfterRename | IoFault::Interrupted) {
            let after = s.after.as_deref().unwrap_or_else(|| panic!("{label}: no manifest"));
            let new = match &s.adds {
                Some(line) => after.lines().any(|l| l.starts_with(line.as_str())),
                // The drain's manifest records every job finished.
                None => {
                    after.lines().filter(|l| l.starts_with("job ")).all(|l| l.ends_with(" done"))
                }
            };
            assert!(new, "{label}: the new manifest must be published:\n{after}");
        } else {
            assert_eq!(s.after, s.before, "{label}: the previous manifest must survive");
        }
    }
    if fault.is_crash() {
        // The "killed" server writes nothing more: the manifest stays what
        // the crash left.
        let frozen = if early { &steps[at].before } else { &steps[at].after };
        for s in &steps[at..] {
            assert_eq!(&s.after, frozen, "{label}: a write after the crash landed");
        }
    }

    // Restart on the same data directory, without faults: the server
    // reloads every job the manifest on disk records, and each one ends
    // done with the bytes direct mining prints.
    let recorded: Vec<u64> = manifest(&dir)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| l.strip_prefix("job ")?.split(' ').next()?.parse().ok())
        .collect();
    if !fault.is_crash() {
        assert_eq!(recorded, [1, 2, 3], "{label}: an error-class fault loses no job");
    }
    let (addr, handle) = start(&dir, None);
    let (_, jobs) = http(addr, "GET", "/jobs", b"");
    let ids: Vec<u64> = jobs
        .split("\"id\":")
        .skip(1)
        .map(|s| s.split(',').next().unwrap().parse().unwrap())
        .collect();
    assert_eq!(ids, recorded, "{label}: the restart must reload every recorded job");
    for id in ids {
        let body = wait_terminal(addr, id);
        assert_eq!(field(&body, "state"), "done", "{label}: job {id}: {body}");
        let (status, got) = http(addr, "GET", &format!("/jobs/{id}/result"), b"");
        assert_eq!(status, 200, "{label}: job {id}: {got}");
        assert_eq!(got, want, "{label}: job {id} differs from direct mining");
    }
    drain(addr, handle);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn every_publish_fault_leaves_a_server_that_restarts_consistent() {
    let db = workload();
    let want = expected(&db);
    assert!(want.lines().count() > 10, "the workload must produce patterns");
    // One thread per fault: each case has its own data directory and port,
    // and a session mostly waits on the server.
    std::thread::scope(|scope| {
        for fault in FAULTS {
            let (db, want) = (&db, &want);
            scope.spawn(move || POINTS.into_iter().for_each(|p| run_case(db, want, p, fault)));
        }
    });
}
