//! `serve`: mining jobs served by `disc-mine serve` (the library
//! [`Server`]), driven over HTTP by one closed-loop client, with the
//! database, server settings, query and job mix of the session behind
//! `BENCH_serve.json`'s `cold-job` and `cached-job` rows: the Table 11
//! `smoke` database (1 000 customers), a two-thread pool, 2 000 000-op
//! slices checkpointed every 8, support count [`DELTA`], and one
//! cache-bypassing job for every 20 the result cache answers.
//!
//! An operation submits a job, polls its status until it is done and
//! fetches its result; latency runs from the first request byte to the
//! last response byte. A cached job is answered at submission and never
//! reaches the miner; a cold one (`nocache=1`) is queued, mined in
//! checkpointed slices on the scheduler's pool, and its result written to
//! the data directory. Cold jobs are fewer than one in ten, so `p90_ms`
//! is a cached job's latency, and the cold path shows in the per-layer
//! `job_wait_ms` and `slices_per_job`: alone as a workload, its latency
//! moved by a third between runs.
//!
//! An epoch's set-up starts a server on an empty data directory, uploads
//! the database and runs the query once, cacheably. The server keeps every
//! job it ever ran in its manifest, so each epoch's fresh server also keeps
//! the per-job cost from growing with the number of operations before it.

use crate::check::{self, Digest};
use crate::trace::OpTrace;
use crate::Workload;
use disc_core::{MinSupport, SequenceDatabase};
use disc_datagen::QuestConfig;
use disc_server::{SchedulerConfig, Server, ServerConfig};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Customers in the committed `smoke` database.
const NCUST: usize = 1_000;
/// The support count of the committed `cold-job` and `cached-job` rows.
const DELTA: u64 = 30;
/// One job in this many bypasses the cache: the committed session ran one
/// cold job, then twenty cached ones.
const COLD_EVERY: u64 = 21;
/// Pause between two status polls of one job.
const POLL_PAUSE: Duration = Duration::from_millis(1);
/// Longest any single request or job may take before the run fails.
const TIMEOUT: Duration = Duration::from_secs(60);

pub struct Serve {
    db: SequenceDatabase,
    expected: Digest,
    running: Option<Running>,
    /// Operations run so far.
    ops: Cell<u64>,
}

/// A started server.
struct Running {
    server: Server,
    thread: JoinHandle<std::io::Result<Vec<u64>>>,
    addr: SocketAddr,
}

struct Response {
    status: u16,
    body: Vec<u8>,
}

fn http(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> Result<Response, String> {
    let fail = |e: std::io::Error| format!("{method} {target}: {e}");
    let mut s = TcpStream::connect_timeout(&addr, TIMEOUT).map_err(fail)?;
    s.set_read_timeout(Some(TIMEOUT)).map_err(fail)?;
    s.set_write_timeout(Some(TIMEOUT)).map_err(fail)?;
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes()).map_err(fail)?;
    s.write_all(body).map_err(fail)?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).map_err(fail)?;
    let status = raw
        .get(9..12)
        .and_then(|v| std::str::from_utf8(v).ok())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{method} {target}: no status line"))?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{method} {target}: no end of head"))?;
    Ok(Response { status, body: raw.split_off(split + 4) })
}

/// The value of `"key":` in a flat JSON object, unquoted.
fn field(json: &[u8], key: &str) -> Option<String> {
    let json = std::str::from_utf8(json).ok()?;
    let needle = format!("\"{key}\":");
    let rest = &json[json.find(&needle)? + needle.len()..];
    let rest = rest.strip_prefix('"').unwrap_or(rest);
    rest.split(['"', ',', '}']).next().map(str::to_string)
}

impl Serve {
    pub fn new(seed: u64) -> Result<Serve, String> {
        let db = check::committed_db(QuestConfig::paper_table11().with_ncust(NCUST), seed);
        let expected = check::reference(&db, MinSupport::Count(DELTA), None)?;
        Ok(Serve { db, expected, running: None, ops: Cell::new(0) })
    }

    fn running(&self) -> Result<&Running, String> {
        self.running.as_ref().ok_or_else(|| "no server running".to_string())
    }

    /// Submits a job, waits until it is done, checks its result against
    /// the reference and returns whether the cache answered it.
    fn job(&self, tenant: &str, nocache: bool, t: &mut OpTrace) -> Result<bool, String> {
        let addr = self.running()?.addr;
        let nocache = if nocache { "&nocache=1" } else { "" };
        let target = format!("/jobs?db=bench&tenant={tenant}&delta={DELTA}{nocache}");
        let submitted = t.span("http_submit", || http(addr, "POST", &target, b""))?;
        if submitted.status != 200 && submitted.status != 202 {
            let text = String::from_utf8_lossy(&submitted.body);
            return Err(format!("submit answered {}: {text}", submitted.status));
        }
        let id = field(&submitted.body, "id").ok_or("submit response has no id")?;
        let cached = field(&submitted.body, "cached").as_deref() == Some("true");
        let state = field(&submitted.body, "state").unwrap_or_default();
        if state != "done" {
            t.span("job_wait", || -> Result<(), String> {
                let started = Instant::now();
                let mut state = state;
                while state != "done" {
                    if state == "failed" || state == "cancelled" || started.elapsed() > TIMEOUT {
                        return Err(format!("job {id} ended {state}"));
                    }
                    std::thread::sleep(POLL_PAUSE);
                    let status = http(addr, "GET", &format!("/jobs/{id}"), b"")?;
                    state = field(&status.body, "state").unwrap_or_default();
                }
                Ok(())
            })?;
        }
        let result_path = format!("/jobs/{id}/result");
        let fetched = t.span("http_fetch", || http(addr, "GET", &result_path, b""))?;
        if fetched.status != 200 {
            return Err(format!("result fetch answered {}", fetched.status));
        }
        self.expected.check(&format!("served job δ={DELTA}"), &fetched.body)?;
        Ok(cached)
    }
}

impl Workload for Serve {
    fn setup(&mut self, dir: &Path) -> Result<(), String> {
        let server = Server::new(ServerConfig {
            addr: "127.0.0.1:0".into(),
            data_dir: dir.join("server"),
            scheduler: SchedulerConfig {
                threads: 2,
                slice_ops: 2_000_000,
                checkpoint_every: 8,
                ..SchedulerConfig::default()
            },
            cache_entries: 64,
            ..ServerConfig::default()
        });
        let runner = server.clone();
        let thread = std::thread::spawn(move || runner.run());
        let started = Instant::now();
        let addr = loop {
            if let Some(addr) = server.local_addr() {
                break addr;
            }
            if thread.is_finished() || started.elapsed() > TIMEOUT {
                return Err("server did not bind".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        self.running = Some(Running { server, thread, addr });
        let upload = http(addr, "POST", "/dbs?name=bench", &disc_core::encode_database(&self.db))?;
        if upload.status != 201 {
            return Err(format!("database upload answered {}", upload.status));
        }
        // The first cold job, cacheable: the cached jobs resubmit it.
        self.job("setup", false, &mut OpTrace::off())?;
        Ok(())
    }

    fn op(&self, t: &mut OpTrace) -> Result<(), String> {
        let n = self.ops.replace(self.ops.get() + 1);
        let nocache = n.is_multiple_of(COLD_EVERY);
        let cached = self.job("client", nocache, t)?;
        if cached == nocache {
            return Err(format!("job δ={DELTA} answered with cached={cached}, nocache={nocache}"));
        }
        Ok(())
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        let Ok(running) = self.running() else {
            return Vec::new();
        };
        let scheduler = running.server.scheduler();
        let (hits, misses, _) = scheduler.cache.lock().expect("cache lock poisoned").stats();
        vec![
            ("cache_hits", hits as f64),
            ("cache_misses", misses as f64),
            ("slices", scheduler.mine_invocations.load(Ordering::Relaxed) as f64),
        ]
    }

    fn teardown(&mut self) -> Result<(), String> {
        let Some(running) = self.running.take() else {
            return Ok(());
        };
        let drain = http(running.addr, "POST", "/admin/drain", b"")?;
        if drain.status != 200 {
            return Err(format!("drain answered {}", drain.status));
        }
        let left = running
            .thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server failed: {e}"))?;
        if !left.is_empty() {
            return Err(format!("{} job(s) left unfinished at drain", left.len()));
        }
        Ok(())
    }
}
