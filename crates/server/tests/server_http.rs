//! End-to-end tests over a real TCP socket: a `Server` per test, driven by
//! a hand-rolled HTTP/1.1 client, checked against direct library mining.
//!
//! The invariants under test are the serving contract:
//!
//! * a served result is **byte-identical** to `disc-mine` on the same
//!   database and threshold, even when the job was preempted across many
//!   slices or across a drain/restart;
//! * a repeat query is served from the cache with **no miner invocation**,
//!   and an over-cap declared body is refused (413) without one;
//! * a cache hit writes no result file, and a restart still serves it —
//!   from the mined job's file, never from a database republished since;
//! * an attached store directory serves only while its data file holds
//!   every acknowledged record, and the attach writes nothing there;
//! * `closed`/`maximal` jobs serve exactly those projections of a baseline
//!   miner's result, each cached under its own mode;
//! * cancellation settles the job without corrupting its peers;
//! * two tenants make interleaved progress (fair round-robin);
//! * malformed requests get typed 4xx responses, never a hang or a panic.

use disc_algo::{DiscAll, ALGORITHMS};
use disc_baselines::PseudoPrefixSpan;
use disc_core::{
    CustomerId, MinSupport, Sequence, SequenceDatabase, SequenceStore, SequentialMiner, StoreConfig,
};
use disc_datagen::QuestConfig;
use disc_server::{SchedulerConfig, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Harness.

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("disc-server-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn start(
    data_dir: &Path,
    slice_ops: u64,
) -> (Server, SocketAddr, std::thread::JoinHandle<Vec<u64>>) {
    start_with_cache(data_dir, slice_ops, 16)
}

fn start_with_cache(
    data_dir: &Path,
    slice_ops: u64,
    cache_entries: usize,
) -> (Server, SocketAddr, std::thread::JoinHandle<Vec<u64>>) {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        data_dir: data_dir.to_path_buf(),
        scheduler: SchedulerConfig { threads: 2, slice_ops, ..SchedulerConfig::default() },
        cache_entries,
        ..ServerConfig::default()
    };
    let server = Server::new(cfg);
    let runner = server.clone();
    let handle = std::thread::spawn(move || runner.run().expect("server run"));
    let deadline = Instant::now() + Duration::from_secs(10);
    let addr = loop {
        if let Some(a) = server.local_addr() {
            break a;
        }
        assert!(Instant::now() < deadline, "server never bound");
        std::thread::sleep(Duration::from_millis(5));
    };
    (server, addr, handle)
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

fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    http(addr, "GET", target, b"")
}

fn post(addr: SocketAddr, target: &str, body: &[u8]) -> (u16, String) {
    http(addr, "POST", target, body)
}

fn drain(addr: SocketAddr, handle: std::thread::JoinHandle<Vec<u64>>) -> Vec<u64> {
    let (status, _) = post(addr, "/admin/drain", b"");
    assert_eq!(status, 200);
    handle.join().expect("server thread")
}

/// Polls `/jobs/{id}` until its state is terminal; returns the final state.
fn wait_terminal(addr: SocketAddr, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = get(addr, &format!("/jobs/{id}"));
        assert_eq!(status, 200, "{body}");
        let state = field(&body, "state");
        if state == "done" || state == "failed" || state == "cancelled" {
            return state;
        }
        assert!(Instant::now() < deadline, "job {id} never settled: {body}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Extracts a `"key":"value"` or `"key":value` field from a flat JSON body.
fn field(json: &str, key: &str) -> String {
    let needle = format!("\"{key}\":");
    let rest =
        &json[json.find(&needle).unwrap_or_else(|| panic!("{key} in {json}")) + needle.len()..];
    let rest = rest.strip_prefix('"').unwrap_or(rest);
    rest.split(['"', ',', '}']).next().unwrap().to_string()
}

/// The exact bytes `disc-mine` prints for this database and threshold.
fn expected(db: &SequenceDatabase, delta: u64) -> String {
    DiscAll::default()
        .mine(db, MinSupport::Count(delta))
        .iter()
        .map(|(p, s)| format!("{s}\t{p}\n"))
        .collect()
}

/// A database big enough that a small-slice job preempts many times.
fn quest_db(seed: u64) -> SequenceDatabase {
    QuestConfig::paper_table11()
        .with_ncust(60)
        .with_nitems(40)
        .with_pools(40, 80)
        .with_slen(8.0)
        .with_seed(seed)
        .generate()
}

// ---------------------------------------------------------------------
// Tests.

#[test]
fn round_trip_is_byte_identical_to_direct_mining() {
    let dir = temp_dir("roundtrip");
    let (_server, addr, handle) = start(&dir, 1_000_000);
    let db = quest_db(1);
    let (status, body) = post(addr, "/dbs?name=q1", &disc_core::encode_database(&db));
    assert_eq!(status, 201, "{body}");
    assert_eq!(field(&body, "rows"), "60");

    let (status, body) = post(addr, "/jobs?db=q1&delta=6&tenant=alice", b"");
    assert!(status == 202 || status == 200, "{status} {body}");
    assert_eq!(wait_terminal(addr, 1), "done");

    let (status, served) = get(addr, "/jobs/1/result");
    assert_eq!(status, 200);
    let want = expected(&db, 6);
    assert!(!want.is_empty(), "test database must produce patterns");
    assert_eq!(served, want, "served bytes differ from direct mining");

    // Pagination composes: offset/limit slice the same line stream.
    let (_, page0) = get(addr, "/jobs/1/result?offset=0&limit=3");
    let (_, page1) = get(addr, "/jobs/1/result?offset=3&limit=3");
    let first6: String = want.lines().take(6).map(|l| format!("{l}\n")).collect();
    assert_eq!(format!("{page0}{page1}"), first6);

    // min_length filters exactly like `disc-mine --min-length`.
    let (_, long_only) = get(addr, "/jobs/1/result?min_length=2");
    assert!(long_only.lines().count() < want.lines().count());
    assert!(long_only.lines().all(|l| want.contains(l)));

    drain(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repeat_queries_hit_the_cache_without_mining() {
    let dir = temp_dir("cache");
    let (server, addr, handle) = start(&dir, 1_000_000);
    let db = quest_db(2);
    post(addr, "/dbs?name=q", &disc_core::encode_database(&db));

    let (_, first) = post(addr, "/jobs?db=q&delta=8", b"");
    assert_eq!(field(&first, "cached"), "false");
    assert_eq!(wait_terminal(addr, 1), "done");
    let invocations_after_first =
        server.scheduler().mine_invocations.load(std::sync::atomic::Ordering::Relaxed);
    assert!(invocations_after_first >= 1);

    // Same (db, δ, algo, mode): answered from the cache, born done.
    let (status, second) = post(addr, "/jobs?db=q&delta=8", b"");
    assert_eq!(status, 200, "cache hits answer immediately: {second}");
    assert_eq!(field(&second, "cached"), "true");
    assert_eq!(field(&second, "state"), "done");
    assert_eq!(
        server.scheduler().mine_invocations.load(std::sync::atomic::Ordering::Relaxed),
        invocations_after_first,
        "a cached hit must not invoke a miner"
    );

    // A declared body over the cap is refused from the header alone: a
    // prompt 413 that never reaches the scheduler, even for a job that
    // would otherwise mine.
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(b"POST /jobs?db=q&delta=30 HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n")
        .unwrap();
    let mut resp = Vec::new();
    s.read_to_end(&mut resp).unwrap();
    assert!(resp.starts_with(b"HTTP/1.1 413"), "{}", String::from_utf8_lossy(&resp));
    assert_eq!(
        server.scheduler().mine_invocations.load(std::sync::atomic::Ordering::Relaxed),
        invocations_after_first,
        "a 413 must not invoke a miner"
    );

    // The cached job serves the same bytes as the mined one.
    let (_, a) = get(addr, "/jobs/1/result");
    let (_, b) = get(addr, "/jobs/2/result");
    assert_eq!(a, b);

    // A different threshold is a different key — mined, not served stale.
    let (status, third) = post(addr, "/jobs?db=q&delta=20", b"");
    assert_eq!(status, 202, "{third}");
    assert_eq!(wait_terminal(addr, 3), "done");
    let (_, stats) = get(addr, "/stats");
    assert_eq!(field(&stats, "hits"), "1");

    drain(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn closed_and_maximal_jobs_serve_the_baseline_projections_from_the_cache() {
    let dir = temp_dir("modes");
    let (server, addr, handle) = start(&dir, 1_000_000);
    let invocations = || server.scheduler().mine_invocations.load(Ordering::Relaxed);
    let db = quest_db(2);
    post(addr, "/dbs?name=q", &disc_core::encode_database(&db));

    let reference = PseudoPrefixSpan::default().mine(&db, MinSupport::Count(8));
    let render = |lines: Vec<(&Sequence, u64)>| -> String {
        lines.iter().map(|(p, s)| format!("{s}\t{p}\n")).collect()
    };
    let closed = render(reference.closed_patterns());
    let maximal = render(reference.maximal_patterns());
    // Both projections must drop something, or the modes go untested.
    assert!(closed.lines().count() < reference.len(), "every pattern is closed");
    assert!(maximal.lines().count() < closed.lines().count(), "every closed pattern is maximal");

    for (id, mode, want) in [(1, "closed", &closed), (3, "maximal", &maximal)] {
        let target = format!("/jobs?db=q&delta=8&mode={mode}");
        let (status, body) = post(addr, &target, b"");
        assert_eq!(status, 202, "{mode}: {body}");
        assert_eq!(wait_terminal(addr, id), "done");
        let (_, served) = get(addr, &format!("/jobs/{id}/result"));
        assert_eq!(&served, want, "{mode} lines differ from PseudoPrefixSpan's");

        // The same (db, δ, algo, mode) again: a cache hit, no miner run.
        let mined = invocations();
        let (status, repeat) = post(addr, &target, b"");
        assert_eq!(status, 200, "{mode}: {repeat}");
        assert_eq!(field(&repeat, "cached"), "true");
        assert_eq!(invocations(), mined, "a cached {mode} hit must not invoke a miner");
        let (_, again) = get(addr, &format!("/jobs/{}/result", id + 1));
        assert_eq!(&again, want);
    }

    drain(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancellation_mid_run_settles_without_a_result() {
    let dir = temp_dir("cancel");
    // Tiny slices: the job is guaranteed to still be alive when the cancel
    // arrives, and cancellation lands on a running or queued slice.
    let (_server, addr, handle) = start(&dir, 50);
    let db = quest_db(3);
    post(addr, "/dbs?name=q", &disc_core::encode_database(&db));
    post(addr, "/jobs?db=q&delta=4", b"");

    let (status, body) = post(addr, "/jobs/1/cancel", b"");
    assert_eq!(status, 200);
    assert_eq!(field(&body, "state"), "cancelled");
    assert_eq!(wait_terminal(addr, 1), "cancelled");

    let (status, _) = get(addr, "/jobs/1/result");
    assert_eq!(status, 409, "cancelled jobs have no result");

    // Cancelling a terminal job is a no-op, not an error.
    let (status, body) = http(addr, "DELETE", "/jobs/1", b"");
    assert_eq!(status, 200);
    assert_eq!(field(&body, "state"), "cancelled");

    drain(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_tenants_share_the_pool_and_both_finish_identically() {
    let dir = temp_dir("fairness");
    let (_server, addr, handle) = start(&dir, 300);
    let db = quest_db(4);
    post(addr, "/dbs?name=q", &disc_core::encode_database(&db));

    post(addr, "/jobs?db=q&delta=5&tenant=alice", b"");
    post(addr, "/jobs?db=q&delta=6&tenant=bob&nocache=1", b"");
    assert_eq!(wait_terminal(addr, 1), "done");
    assert_eq!(wait_terminal(addr, 2), "done");

    // Both results are byte-identical to direct mining despite slicing.
    let (_, a) = get(addr, "/jobs/1/result");
    let (_, b) = get(addr, "/jobs/2/result");
    assert_eq!(a, expected(&db, 5));
    assert_eq!(b, expected(&db, 6));

    // Small slices on this database mean both jobs were preempted — the
    // pool was genuinely shared, not run-to-completion in turn.
    let (_, j1) = get(addr, "/jobs/1");
    let (_, j2) = get(addr, "/jobs/2");
    let p1: u32 = field(&j1, "preemptions").parse().unwrap();
    let p2: u32 = field(&j2, "preemptions").parse().unwrap();
    assert!(p1 > 0 && p2 > 0, "expected preemptions, got {p1} and {p2}");

    // Both tenants' spend is on the books.
    let (_, tenants) = get(addr, "/tenants");
    assert!(tenants.contains("\"tenant\":\"alice\""), "{tenants}");
    assert!(tenants.contains("\"tenant\":\"bob\""), "{tenants}");

    drain(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_requests_get_typed_rejections() {
    let dir = temp_dir("malformed");
    let (_server, addr, handle) = start(&dir, 1_000_000);

    // Not HTTP at all.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"NOT A REQUEST\r\n\r\n").unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");

    // Unknown resource / wrong method.
    assert_eq!(get(addr, "/nope").0, 404);
    assert_eq!(http(addr, "PUT", "/jobs", b"").0, 405);
    assert_eq!(get(addr, "/jobs/999").0, 404);
    assert_eq!(get(addr, "/jobs/not-a-number").0, 404);

    // Parameter validation: missing, unknown, unparseable.
    assert_eq!(post(addr, "/jobs", b"").0, 400);
    assert_eq!(post(addr, "/jobs?db=missing", b"").0, 404);
    assert_eq!(post(addr, "/dbs", b"junk").0, 400, "missing name");
    assert_eq!(post(addr, "/dbs?name=bad/name", b"1: (a)\n").0, 400);

    let (status, _) = post(addr, "/dbs?name=ok", b"1: (a)(b)\n2: (a)\n");
    assert_eq!(status, 201);
    assert_eq!(post(addr, "/dbs?name=ok", b"1: (a)\n").0, 409, "duplicate name");
    // Every registry entry that mines flat columns is served, and the
    // refusal of any other name lists exactly those, in registry order.
    let served: Vec<&str> = ALGORITHMS.iter().filter(|a| a.flat).map(|a| a.name).collect();
    for name in ["quantum", "prefixspan", "brute"] {
        let (status, body) = post(addr, &format!("/jobs?db=ok&algo={name}"), b"");
        assert_eq!(status, 400, "{body}");
        let listed = body.split("one of ").nth(1).and_then(|rest| rest.split('"').next());
        assert_eq!(
            listed.map(|l| l.split(", ").collect::<Vec<_>>()),
            Some(served.clone()),
            "{body}"
        );
    }
    for name in &served {
        let (status, body) = post(addr, &format!("/jobs?db=ok&algo={name}&delta=1"), b"");
        assert_eq!(status, 202, "{name}: {body}");
        assert_eq!(field(&body, "algo"), *name);
        assert_eq!(wait_terminal(addr, field(&body, "id").parse().unwrap()), "done", "{name}");
    }
    assert_eq!(post(addr, "/jobs?db=ok&mode=sideways", b"").0, 400);
    assert_eq!(post(addr, "/jobs?db=ok&delta=nope", b"").0, 400);
    assert_eq!(post(addr, "/jobs?db=ok&minsup=7", b"").0, 400, "minsup over 1");
    assert_eq!(post(addr, "/jobs?db=ok&minsup=0.5&delta=2", b"").0, 400, "both thresholds");

    // A body that is neither DSCDB1 nor UTF-8 cannot be interpreted at all:
    // a usage error (400). UTF-8 text that fails to parse as a database is
    // well-formed but invalid data: 422, the exit-1 analogue.
    assert_eq!(post(addr, "/dbs?name=garbage", &[0xFF, 0xFE, 0x00]).0, 400);
    assert_eq!(post(addr, "/dbs?name=garbage", b"1: (((\n").0, 422);

    drain(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sequential_connections_are_accepted_without_a_poll_interval() {
    let dir = temp_dir("blockingaccept");
    let (_server, addr, handle) = start(&dir, 1_000_000);
    let accepted = || -> u64 { field(&get(addr, "/admin/stats").1, "accepted").parse().unwrap() };
    let before = accepted();

    // A polling accept loop that sleeps 15 ms on an empty backlog puts a
    // floor of 40 × 15 = 600 ms under these; a blocking accept admits
    // each connection as it arrives.
    let started = Instant::now();
    for _ in 0..40 {
        assert_eq!(get(addr, "/healthz").0, 200);
    }
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_millis(400), "40 sequential probes took {elapsed:?}");

    // Each probe counted once; the second stats read counts itself.
    assert_eq!(accepted() - before, 40 + 1);

    drain(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_checkpoints_and_a_second_server_resumes_bit_identically() {
    let dir = temp_dir("drainresume");
    let db = quest_db(5);

    // First server: a quick job that finishes, and a slow-sliced job that
    // will still be mid-run at drain time.
    let (_s1, addr, handle) = start(&dir, 120);
    post(addr, "/dbs?name=q", &disc_core::encode_database(&db));
    let (_, quick) = post(addr, "/jobs?db=q&delta=30", b"");
    let quick_id: u64 = field(&quick, "id").parse().unwrap();
    assert_eq!(wait_terminal(addr, quick_id), "done");
    let (_, quick_bytes) = get(addr, &format!("/jobs/{quick_id}/result"));

    let (_, slow) = post(addr, "/jobs?db=q&delta=4", b"");
    let slow_id: u64 = field(&slow, "id").parse().unwrap();
    // Let it spend at least one slice so a checkpoint exists, then drain.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, body) = get(addr, &format!("/jobs/{slow_id}"));
        if field(&body, "state") == "done" {
            panic!("slow job finished before drain; shrink slice_ops");
        }
        if field(&body, "progress") != "null" {
            break;
        }
        assert!(Instant::now() < deadline, "no checkpoint appeared");
        std::thread::sleep(Duration::from_millis(10));
    }
    let queued = drain(addr, handle);
    assert!(queued.contains(&slow_id), "drained job left queued: {queued:?}");

    // Second server over the same data dir: the finished job's result is
    // still served, the interrupted one resumes from its checkpoint.
    let (_s2, addr2, handle2) = start(&dir, 1_000_000);
    let (status, body) = get(addr2, &format!("/jobs/{quick_id}/result"));
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, quick_bytes, "pre-drain result must survive the restart");

    assert_eq!(wait_terminal(addr2, slow_id), "done");
    let (_, resumed) = get(addr2, &format!("/jobs/{slow_id}/result"));
    assert_eq!(resumed, expected(&db, 4), "resumed result differs from direct mining");

    // The reloaded results warmed the cache: a repeat of the pre-drain
    // query is served without mining.
    let (status, repeat) = post(addr2, "/jobs?db=q&delta=30", b"");
    assert_eq!(status, 200, "{repeat}");
    assert_eq!(field(&repeat, "cached"), "true");

    drain(addr2, handle2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn attached_flat_file_serves_what_the_cli_mines_and_shares_the_upload_cache() {
    let dir = temp_dir("attach");
    let (server, addr, handle) = start(&dir, 1_000_000);
    let invocations = || server.scheduler().mine_invocations.load(Ordering::Relaxed);
    let db = quest_db(6);
    let (_, uploaded) = post(addr, "/dbs?name=text", db.to_text().as_bytes());
    let (_, first) = post(addr, "/jobs?db=text&delta=6", b"");
    assert_eq!(wait_terminal(addr, field(&first, "id").parse().unwrap()), "done");

    // Its packed `.dscfd` file, attached: same fingerprint, so the same
    // query is a cache hit with no miner invocation.
    let path = dir.join("db.dscfd");
    disc_core::write_flat_file(&path, &disc_core::encode_database_flat_file(&db)).unwrap();
    let (status, attached) = post(addr, &format!("/dbs?name=flat&attach={}", path.display()), b"");
    assert_eq!(status, 201, "{attached}");
    assert_eq!(field(&attached, "fingerprint"), field(&uploaded, "fingerprint"));
    let before = invocations();
    let (_, hit) = post(addr, "/jobs?db=flat&delta=6", b"");
    assert_eq!(field(&hit, "cached"), "true");
    assert_eq!(invocations(), before, "a cached hit must not invoke a miner");

    // Mined off the mapped columns: exactly what `disc-mine db.dscfd
    // --delta 6` prints.
    let (_, cold) = post(addr, "/jobs?db=flat&delta=6&nocache=1", b"");
    let cold_id: u64 = field(&cold, "id").parse().unwrap();
    assert_eq!(wait_terminal(addr, cold_id), "done");
    assert!(invocations() > before);
    let loaded = disc_core::open_flat_file(&path, disc_core::Verify::Full).unwrap();
    let cli = loaded.restore(DiscAll::default().mine_flat(&loaded.flat, MinSupport::Count(6)));
    let cli: String = cli.iter().map(|(p, s)| format!("{s}\t{p}\n")).collect();
    assert_eq!(cli, expected(&db, 6));
    assert_eq!(get(addr, &format!("/jobs/{cold_id}/result")).1, cli);
    assert_eq!(get(addr, &format!("/jobs/{}/result", field(&hit, "id"))).1, cli);

    drain(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file in `dir`: name, length and bytes, sorted by name.
fn dir_contents(dir: &Path) -> Vec<(String, u64, Vec<u8>)> {
    let mut files: Vec<(String, u64, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let bytes = std::fs::read(e.path()).unwrap();
            (e.file_name().into_string().unwrap(), bytes.len() as u64, bytes)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn an_attached_store_serves_while_fresh_and_is_refused_once_stale_without_a_write() {
    let dir = temp_dir("store-attach");
    let store_dir = dir.join("store");
    let db = quest_db(6);
    let mut store = SequenceStore::open(&store_dir, StoreConfig::default()).unwrap();
    for row in db.rows() {
        store.append(row.cid, row.sequence.clone()).unwrap();
    }
    store.compact().unwrap();
    let (_server, addr, handle) = start(&dir, 1_000_000);

    let before = dir_contents(&store_dir);
    let (status, attached) =
        post(addr, &format!("/dbs?name=fresh&attach={}", store_dir.display()), b"");
    assert_eq!(status, 201, "{attached}");
    let (_, job) = post(addr, "/jobs?db=fresh&delta=6&nocache=1", b"");
    let id: u64 = field(&job, "id").parse().unwrap();
    assert_eq!(wait_terminal(addr, id), "done");
    assert_eq!(get(addr, &format!("/jobs/{id}/result")).1, expected(&db, 6));
    assert_eq!(dir_contents(&store_dir), before, "an attach must leave every file as it was");

    // One append after the compaction, then a torn frame after it: the
    // final segment holds one valid frame and a tail only recovery repairs.
    store.append(CustomerId(1 << 40), disc_core::parse_sequence("(1)(2)").unwrap()).unwrap();
    drop(store);
    let last = dir_contents(&store_dir).into_iter().map(|(name, ..)| name).max().unwrap();
    assert!(last.starts_with("wal-"), "{last}");
    let mut tail = std::fs::OpenOptions::new().append(true).open(store_dir.join(&last)).unwrap();
    tail.write_all(&[0x7f, 0x00, 0x01]).unwrap();
    drop(tail);
    let stale = dir_contents(&store_dir);
    assert_ne!(stale, before);

    let (status, refused) =
        post(addr, &format!("/dbs?name=stale&attach={}", store_dir.display()), b"");
    assert_eq!(status, 409, "{refused}");
    assert!(refused.contains("1 acknowledged records"), "{refused}");
    assert_eq!(dir_contents(&store_dir), stale, "an attach must leave every file as it was");

    drain(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_attached_file_truncated_in_place_fails_its_jobs_not_the_server() {
    let dir = temp_dir("pinned");
    let (_server, addr, handle) = start(&dir, 1_000_000);
    let path = dir.join("db.dscfd");
    disc_core::write_flat_file(&path, &disc_core::encode_database_flat_file(&quest_db(7))).unwrap();
    assert_eq!(post(addr, &format!("/dbs?name=flat&attach={}", path.display()), b"").0, 201);
    assert_eq!(post(addr, "/dbs?name=text", b"1: (1)(2)\n").0, 201);

    // The job fails with a typed error before any lost page is read (a
    // read would kill the process with SIGBUS), and the server serves on.
    let len = std::fs::metadata(&path).unwrap().len();
    std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(len / 2).unwrap();
    let (_, job) = post(addr, "/jobs?db=flat&delta=6", b"");
    let id: u64 = field(&job, "id").parse().unwrap();
    assert_eq!(wait_terminal(addr, id), "failed");
    assert!(get(addr, &format!("/jobs/{id}")).1.contains("changed in place"));
    let (_, job) = post(addr, "/jobs?db=text&delta=1", b"");
    assert_eq!(wait_terminal(addr, field(&job, "id").parse().unwrap()), "done");

    drain(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_restart_serves_cache_hits_from_their_mined_jobs_result_files() {
    let dir = temp_dir("hitrestart");
    let db = quest_db(2);
    // One cache entry: the second query evicts the first, so a restart
    // that looked for a hit's result in the cache would not find it.
    let (_s1, addr, handle) = start_with_cache(&dir, 1_000_000, 1);
    post(addr, "/dbs?name=q", &disc_core::encode_database(&db));
    let queries = [(1, 8), (2, 8), (3, 12), (4, 12)];
    for &(id, delta) in &queries {
        let (status, body) = post(addr, &format!("/jobs?db=q&delta={delta}"), b"");
        let hit = id % 2 == 0;
        assert_eq!(status, if hit { 200 } else { 202 }, "{body}");
        assert_eq!(field(&body, "id"), id.to_string());
        assert_eq!(wait_terminal(addr, id), "done");
    }
    drain(addr, handle);
    for (id, _) in queries {
        let job_dir = dir.join("jobs").join(id.to_string());
        if id % 2 == 0 {
            assert!(!job_dir.exists(), "cache hit {id} created {}", job_dir.display());
        } else {
            assert!(job_dir.join("result.tsv").is_file(), "mined job {id} left no result");
        }
    }

    let (s2, addr2, handle2) = start_with_cache(&dir, 1_000_000, 1);
    let (_, stats) = get(addr2, "/stats");
    assert_eq!(field(&stats, "hits"), "0", "{stats}");
    assert_eq!(field(&stats, "misses"), "0", "{stats}");
    for (id, delta) in queries {
        assert_eq!(wait_terminal(addr2, id), "done");
        let (status, served) = get(addr2, &format!("/jobs/{id}/result"));
        assert_eq!(status, 200, "{served}");
        assert_eq!(served, expected(&db, delta), "job {id} differs from direct mining");
    }
    assert_eq!(
        s2.scheduler().mine_invocations.load(Ordering::Relaxed),
        0,
        "the restart must serve every job without mining"
    );

    drain(addr2, handle2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_restart_never_serves_a_stale_hit_for_a_republished_attached_file() {
    let dir = temp_dir("republish");
    let path = dir.join("db.dscfd");
    let (old, new) = (quest_db(8), quest_db(9));
    let (was, now) = (expected(&old, 12), expected(&new, 12));
    assert_ne!(was, now, "the two databases must mine differently");
    disc_core::write_flat_file(&path, &disc_core::encode_database_flat_file(&old)).unwrap();
    let attach = format!("/dbs?name=flat&attach={}", path.display());

    let (_s1, addr, handle) = start(&dir, 1_000_000);
    assert_eq!(post(addr, &attach, b"").0, 201);
    post(addr, "/jobs?db=flat&delta=12", b"");
    assert_eq!(wait_terminal(addr, 1), "done");
    drain(addr, handle);

    // Republished by rename between the two processes, as a store
    // compaction publishes its data file.
    disc_core::write_flat_file(&path, &disc_core::encode_database_flat_file(&new)).unwrap();
    let (s2, addr2, handle2) = start(&dir, 1_000_000);
    assert_eq!(get(addr2, "/jobs/1/result").1, was, "a finished job keeps what it mined");
    let (status, again) = post(addr2, "/jobs?db=flat&delta=12", b"");
    assert_eq!(status, 202, "the republished file must be mined: {again}");
    assert_eq!(field(&again, "cached"), "false");
    let id: u64 = field(&again, "id").parse().unwrap();
    assert_eq!(wait_terminal(addr2, id), "done");
    assert!(s2.scheduler().mine_invocations.load(Ordering::Relaxed) > 0);
    assert_eq!(get(addr2, &format!("/jobs/{id}/result")).1, now);

    drain(addr2, handle2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_version_1_manifest_reloads_its_jobs_and_warms_nothing() {
    let dir = temp_dir("manifestv1");
    let db = quest_db(2);
    std::fs::create_dir_all(dir.join("dbs")).unwrap();
    std::fs::write(dir.join("dbs/q.dscdb"), disc_core::encode_database(&db)).unwrap();
    std::fs::create_dir_all(dir.join("jobs/1")).unwrap();
    std::fs::write(dir.join("jobs/1/result.tsv"), expected(&db, 8)).unwrap();
    let manifest = "v1\nnextjob 2\ndb q upload\njob 1 default q 8 disc-all all - - 0 done\n";
    std::fs::write(dir.join("manifest"), manifest).unwrap();

    let (_server, addr, handle) = start(&dir, 1_000_000);
    assert_eq!(get(addr, "/jobs/1/result").1, expected(&db, 8));
    assert_eq!(field(&get(addr, "/stats").1, "entries"), "0");
    // A version-1 line does not say which database the job was answered
    // against, so the same query is mined again.
    let (status, body) = post(addr, "/jobs?db=q&delta=8", b"");
    assert_eq!(status, 202, "{body}");
    assert_eq!(field(&body, "id"), "2");
    assert_eq!(wait_terminal(addr, 2), "done");

    drain(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_manifest_line_naming_an_unknown_algorithm_or_mode_reloads_failed_unmined() {
    let dir = temp_dir("manifestunknown");
    let db = quest_db(2);
    std::fs::create_dir_all(dir.join("dbs")).unwrap();
    std::fs::write(dir.join("dbs/q.dscdb"), disc_core::encode_database(&db)).unwrap();
    let manifest = "v2\nnextjob 4\ndb q upload\n\
                    job 1 default q 8 quantum all - - 0 queued -\n\
                    job 2 default q 8 disc-all sideways - - 0 queued -\n\
                    job 3 default q 8 disc-all all - - 0 queued -\n";
    std::fs::write(dir.join("manifest"), manifest).unwrap();

    let (_server, addr, handle) = start(&dir, 1_000_000);
    assert_eq!(wait_terminal(addr, 3), "done");
    assert_eq!(get(addr, "/jobs/3/result").1, expected(&db, 8));
    for (id, named) in
        [(1, "unknown algorithm \\\"quantum\\\""), (2, "unknown mode \\\"sideways\\\"")]
    {
        let (status, body) = get(addr, &format!("/jobs/{id}"));
        assert_eq!(status, 200, "{body}");
        assert_eq!(field(&body, "state"), "failed", "{body}");
        assert!(body.contains(named), "job {id} must name its bad value: {body}");
        assert_eq!(get(addr, &format!("/jobs/{id}/result")).0, 422, "job {id} has no result");
    }
    // Only job 3 ever reached a miner.
    assert_eq!(field(&get(addr, "/stats").1, "mine_invocations"), "1");

    drain(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}
