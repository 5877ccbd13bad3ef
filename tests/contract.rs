//! The contract matrix: every algorithm of the registry, on every storage
//! backend, through every transport, in every result mode, returns what
//! the definitional oracles built from `BruteForce` return, on random
//! databases.
//!
//! A cell is entry × storage × transport × mode, and every failure names
//! its cell:
//!
//! * **entry** — every [`ALGORITHMS`] entry, plus the configurations the
//!   registry does not name: `parallel` at ×1 and ×2 threads, bi-level off,
//!   Dynamic DISC-all at γ = 0 (never splits the root), 0.5 and 2;
//! * **storage** — `nested` (the [`SequentialMiner`] call on the nested
//!   database), `heap` (columns built in memory), `mapped/full` and
//!   `mapped/header-only` (a `DSCFD1` file under each [`Verify`] level),
//!   and `store` (a store's data file through [`open_fresh`], after a
//!   compacted prefix, a reopen, more appends the file must be refused
//!   for, and a recompaction; the prefix is mined too, as `store/prefix`);
//! * **transport** — `library` (the calls above), `cli` (the `disc-mine`
//!   binary on a text file, a packed `.dscfd` file and a store, its output
//!   parsed back), and `server` (an in-process [`Server`]: an upload and
//!   an attached `.dscfd` file);
//! * **mode** — `all`, `closed`, `maximal` and `top-k`: the frequent set,
//!   its closed and maximal sequences from one-item insertions looked up
//!   in it, and every pattern at or above the k-th support.
//!
//! The cli and server cells cost a process or a request each, so they run
//! fewer cases.
//!
//! Random databases have gapped customer ids and draw from four
//! alphabets: dense (5 items, δ from 1), wide (12 items), sparse ids
//! (0–3, 1 000 and 70 000) and skewed (3 common items, 117 rare ones and
//! some rows of rare items only, so the frequent-item projection drops
//! most of the item column and empties rows).

use disc_miner::algo::registry::{Algorithm, Checkpoints, ALGORITHMS};
use disc_miner::algo::{Checkpointable, DiscAll, DiscConfig, DynamicDiscAll, ParallelDiscAll};
use disc_miner::core::{
    encode_database, encode_database_flat_file, open_flat_file, open_fresh, parse_sequence,
    write_flat_file, BruteForce, CustomerId, FlatFileContents, Item, Itemset, MinSupport,
    MineGuard, MiningResult, Sequence, SequenceDatabase, SequenceStore, SequentialMiner,
    StoreConfig, StoreError, SyncPolicy, TopK, Verify,
};
use disc_miner::server::{Mode, Server, ServerConfig};
use proptest::prelude::*;
use proptest::test_runner::run;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Random databases.

fn arb_itemset(items: impl Strategy<Value = u32> + 'static) -> impl Strategy<Value = Itemset> {
    prop::collection::btree_set(items, 1..=3)
        .prop_map(|s| Itemset::new(s.into_iter().map(Item)).expect("non-empty"))
}

fn arb_rows(
    items: impl Strategy<Value = u32> + 'static,
    max_rows: usize,
) -> impl Strategy<Value = Vec<Sequence>> {
    let row = prop::collection::vec(arb_itemset(items), 1..=4).prop_map(Sequence::new);
    prop::collection::vec(row, 1..=max_rows)
}

/// Items 0–2 are common, 3–119 rare; one row in five is all rare.
fn arb_skewed_rows() -> impl Strategy<Value = Vec<Sequence>> {
    let skewed = prop_oneof![2 => 0u32..3, 3 => 3u32..120];
    let row = prop_oneof![
        4 => prop::collection::vec(arb_itemset(skewed), 1..=5).prop_map(Sequence::new),
        1 => prop::collection::vec(arb_itemset(3u32..120), 1..=3).prop_map(Sequence::new),
    ];
    prop::collection::vec(row, 2..=10)
}

/// A database with gapped customer ids, a threshold δ, and a k for the
/// top-k mode.
fn arb_case() -> impl Strategy<Value = (SequenceDatabase, u64, usize)> {
    let sparse = prop_oneof![0u32..4, Just(1_000), Just(70_000)];
    let rows = prop_oneof![
        3 => (arb_rows(0u32..5, 8), 1u64..=4),
        2 => (arb_rows(0u32..12, 10), 2u64..=3),
        2 => (arb_rows(sparse, 8), 1u64..=4),
        3 => (arb_skewed_rows(), 2u64..=4),
    ];
    (rows, 1usize..=8).prop_map(|((rows, delta), k)| {
        let gapped = rows.into_iter().enumerate().map(|(i, s)| (CustomerId(i as u64 * 3 + 1), s));
        (SequenceDatabase::from_rows(gapped), delta, k)
    })
}

// ---------------------------------------------------------------------
// Oracles.

/// The answers every cell must give, built from `BruteForce`.
struct Oracle {
    all: MiningResult,
    closed: MiningResult,
    maximal: MiningResult,
}

impl Oracle {
    /// A sequence is maximal when no one-item insertion of it is frequent,
    /// and closed when none has its support: a longer super-sequence with
    /// either property would give one. Only frequent items can make a
    /// frequent insertion, so those are the alphabet.
    fn new(db: &SequenceDatabase, delta: u64) -> Oracle {
        let all = BruteForce::default().mine(db, MinSupport::Count(delta));
        let alphabet: Vec<Item> =
            all.of_length(1).iter().filter_map(|(p, _)| p.last_flat_item()).collect();
        let (mut closed, mut maximal) = (MiningResult::new(), MiningResult::new());
        for (p, s) in all.iter() {
            let supers: Vec<u64> = one_item_insertions(p, &alphabet)
                .iter()
                .filter_map(|q| all.support_of(q))
                .collect();
            if !supers.contains(&s) {
                closed.insert(p.clone(), s);
            }
            if supers.is_empty() {
                maximal.insert(p.clone(), s);
            }
        }
        Oracle { all, closed, maximal }
    }

    fn of(&self, mode: Mode) -> &MiningResult {
        match mode {
            Mode::All => &self.all,
            Mode::Closed => &self.closed,
            Mode::Maximal => &self.maximal,
        }
    }

    /// Every pattern whose support reaches the k-th highest; `None` when
    /// the frequent set holds fewer than k patterns, since those beyond it
    /// are below δ and unknown here.
    fn top_k(&self, k: usize) -> Option<MiningResult> {
        let mut supports: Vec<u64> = self.all.iter().map(|(_, s)| s).collect();
        supports.sort_unstable_by(|a, b| b.cmp(a));
        let cut = *supports.get(k - 1)?;
        Some(self.all.iter().filter(|&(_, s)| s >= cut).map(|(p, s)| (p.clone(), s)).collect())
    }
}

fn one_item_insertions(p: &Sequence, alphabet: &[Item]) -> Vec<Sequence> {
    let sets = p.itemsets();
    let mut out = Vec::new();
    for &x in alphabet {
        for at in 0..=sets.len() {
            let mut v = sets.to_vec();
            v.insert(at, Itemset::single(x));
            out.push(Sequence::new(v));
        }
        for (j, set) in sets.iter().enumerate() {
            if !set.contains(x) {
                let mut v = sets.to_vec();
                v[j] = set.inserted(x);
                out.push(Sequence::new(v));
            }
        }
    }
    out
}

/// Fails the case, naming the cell, when `got` is not `expected`.
fn check(
    cell: &str,
    got: &MiningResult,
    expected: &MiningResult,
    db: &SequenceDatabase,
    delta: u64,
) -> Result<(), TestCaseError> {
    let diff = got.diff(expected);
    if diff.is_empty() {
        return Ok(());
    }
    Err(TestCaseError::fail(format!(
        "cell {cell} at δ = {delta}:\n{}\ndb:\n{}",
        diff.join("\n"),
        db.to_text()
    )))
}

// ---------------------------------------------------------------------
// Entries.

/// A registry entry at a thread count, or a configuration the registry
/// does not name.
enum Subject {
    Entry(&'static Algorithm, Option<usize>),
    Variant(&'static str, fn() -> Box<dyn Checkpointable>),
}

fn subjects() -> Vec<Subject> {
    let mut out: Vec<Subject> = ALGORITHMS.iter().map(|a| Subject::Entry(a, None)).collect();
    for entry in ALGORITHMS.iter().filter(|a| a.threads) {
        out.extend([Subject::Entry(entry, Some(1)), Subject::Entry(entry, Some(2))]);
    }
    out.extend([
        Subject::Variant("disc-all no bi-level", || Box::new(DiscAll::without_bi_level())),
        Subject::Variant("parallel ×2 no bi-level", || {
            Box::new(ParallelDiscAll::with_threads(2).with_config(DiscConfig { bi_level: false }))
        }),
        Subject::Variant("dynamic γ=0", || Box::new(DynamicDiscAll::with_gamma(0.0))),
        Subject::Variant("dynamic γ=0.5", || Box::new(DynamicDiscAll::with_gamma(0.5))),
        Subject::Variant("dynamic γ=2", || Box::new(DynamicDiscAll::with_gamma(2.0))),
    ]);
    out
}

impl Subject {
    fn name(&self) -> String {
        match self {
            Subject::Entry(entry, None) => entry.name.to_string(),
            Subject::Entry(entry, Some(n)) => format!("{} ×{n}", entry.name),
            Subject::Variant(name, _) => name.to_string(),
        }
    }

    fn flat(&self) -> bool {
        match self {
            Subject::Entry(entry, _) => entry.flat,
            Subject::Variant(..) => true,
        }
    }

    fn miner(&self) -> Box<dyn SequentialMiner> {
        match self {
            Subject::Entry(entry, threads) => entry.miner(*threads),
            Subject::Variant(_, build) => build(),
        }
    }

    /// Mines loaded columns, in original ids.
    fn mine_loaded(&self, loaded: &FlatFileContents, delta: u64) -> MiningResult {
        let (minsup, guard) = (MinSupport::Count(delta), MineGuard::unlimited());
        let run = match self {
            Subject::Entry(entry, threads) => {
                let run = entry.mine_loaded(loaded, minsup, &guard, *threads, Checkpoints::Off);
                run.expect("no snapshot to reject")
            }
            Subject::Variant(_, build) => build().mine_flat_guarded(&loaded.flat, minsup, &guard),
        };
        loaded.restore(run.into_complete())
    }
}

// ---------------------------------------------------------------------
// Storage.

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("contract-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn pack(db: &SequenceDatabase, path: &Path) {
    write_flat_file(path, &encode_database_flat_file(db)).expect("write the flat file");
}

fn rows_of(db: &SequenceDatabase, range: std::ops::Range<usize>) -> SequenceDatabase {
    SequenceDatabase::from_rows(db.rows()[range].iter().map(|r| (r.cid, r.sequence.clone())))
}

fn append(store: &mut SequenceStore, db: &SequenceDatabase) {
    for row in db.rows() {
        store.append(row.cid, row.sequence.clone()).expect("append");
    }
}

/// A store holding `db`: its first `split` rows appended and compacted,
/// the store reopened, the rest appended (the data file must then be
/// refused, naming them) and compacted. Returns the fresh data file of
/// the prefix and of the whole database.
fn build_store(
    dir: &Path,
    db: &SequenceDatabase,
    split: usize,
) -> Result<(FlatFileContents, FlatFileContents), TestCaseError> {
    let cfg = StoreConfig { sync: SyncPolicy::Never, ..StoreConfig::default() };
    let (prefix, rest) = (rows_of(db, 0..split), rows_of(db, split..db.len()));
    let mut store = SequenceStore::open(dir, cfg).expect("open");
    append(&mut store, &prefix);
    store.compact().expect("compact");
    store.close().expect("close");
    let mut store = SequenceStore::open(dir, cfg).expect("reopen");
    let fresh = |what| open_fresh(dir).map_err(|e| TestCaseError::fail(format!("{what}: {e}")));
    let of_prefix = fresh("open_fresh on the compacted prefix")?;
    append(&mut store, &rest);
    if !rest.is_empty() {
        let refused = open_fresh(dir);
        prop_assert!(
            matches!(refused, Err(StoreError::Stale { live_records, .. }) if live_records == rest.len() as u64),
            "after {} more appends: {:?}",
            rest.len(),
            refused.map(|f| f.fingerprint)
        );
    }
    store.compact().expect("recompact");
    store.close().expect("close");
    Ok((of_prefix, fresh("open_fresh after the recompaction")?))
}

// ---------------------------------------------------------------------
// The library transport.

#[test]
fn every_entry_storage_and_mode_matches_the_oracles() {
    let dir = scratch_dir("library");
    let subjects = subjects();
    let strategy = (arb_case(), 0usize..=10);
    run(&ProptestConfig::with_cases(64), "contract", &strategy, |((db, delta, k), split)| {
        let oracle = Oracle::new(&db, delta);
        let path = dir.join("db.dscfd");
        pack(&db, &path);
        let store = dir.join("store");
        let _ = std::fs::remove_dir_all(&store);
        let split = split.min(db.len());
        let (prefix, whole) = build_store(&store, &db, split)?;
        let prefix_db = rows_of(&db, 0..split);
        let prefix_oracle = Oracle::new(&prefix_db, delta);
        let storages: [(&str, FlatFileContents); 4] = [
            ("heap", FlatFileContents::from_database(&db)),
            ("mapped/full", open_flat_file(&path, Verify::Full).expect("open, full verify")),
            ("mapped/header-only", open_flat_file(&path, Verify::HeaderOnly).expect("open")),
            ("store", whole),
        ];

        for subject in &subjects {
            let name = subject.name();
            let nested = subject.miner().mine(&db, MinSupport::Count(delta));
            check(&format!("{name} × nested × library × all"), &nested, &oracle.all, &db, delta)?;
            for (mode, projected) in [
                (Mode::Closed, nested.closed_patterns()),
                (Mode::Maximal, nested.maximal_patterns()),
            ] {
                let projected = projected.into_iter().map(|(p, s)| (p.clone(), s)).collect();
                let cell = format!("{name} × nested × library × {}", mode.name());
                check(&cell, &projected, oracle.of(mode), &db, delta)?;
            }
            if let Some(expected) = oracle.top_k(k) {
                let top: MiningResult =
                    TopK::new(subject.miner(), k).mine_top(&db).into_iter().collect();
                check(
                    &format!("{name} × nested × library × top-{k}"),
                    &top,
                    &expected,
                    &db,
                    delta,
                )?;
            }
            for (storage, loaded) in &storages {
                let cell = format!("{name} × {storage} × library × all");
                check(&cell, &subject.mine_loaded(loaded, delta), &oracle.all, &db, delta)?;
            }
            if subject.flat() {
                let cell = format!("{name} × store/prefix × library × all");
                let got = subject.mine_loaded(&prefix, delta);
                check(&cell, &got, &prefix_oracle.all, &prefix_db, delta)?;
            }
        }
        Ok(())
    });
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// The cli transport.

/// Parses `disc-mine`'s `support\tpattern` lines back into a result.
fn parse_patterns(out: &str) -> Result<MiningResult, String> {
    out.lines()
        .map(|line| {
            let (support, pattern) = line.split_once('\t').ok_or(format!("bad line {line:?}"))?;
            let support = support.parse().map_err(|_| format!("bad support in {line:?}"))?;
            Ok((parse_sequence(pattern).map_err(|e| format!("{line:?}: {e}"))?, support))
        })
        .collect()
}

fn disc_mine(args: &[&str]) -> Result<MiningResult, String> {
    let out = Command::new(env!("CARGO_BIN_EXE_disc-mine")).args(args).output().expect("spawn");
    if !out.status.success() {
        return Err(format!("{}: {}", out.status, String::from_utf8_lossy(&out.stderr)));
    }
    parse_patterns(&String::from_utf8(out.stdout).expect("UTF-8 output"))
}

#[test]
fn the_cli_renders_what_every_entry_mines_on_every_input() {
    let dir = scratch_dir("cli");
    let (text, packed, store) = (dir.join("db.txt"), dir.join("db.dscfd"), dir.join("store"));
    run(&ProptestConfig::with_cases(12), "contract-cli", &arb_case(), |(db, delta, _)| {
        let oracle = Oracle::new(&db, delta);
        std::fs::write(&text, db.to_text()).expect("write the text file");
        pack(&db, &packed);
        let _ = std::fs::remove_dir_all(&store);
        build_store(&store, &db, db.len() / 2)?;
        let delta_arg = delta.to_string();
        for entry in &ALGORITHMS {
            let threads: &[&str] = if entry.threads { &["--threads", "2"] } else { &[] };
            let inputs: [(&str, Vec<&str>); 3] = [
                ("heap", vec![text.to_str().unwrap()]),
                ("mapped/full", vec![packed.to_str().unwrap()]),
                ("store", vec!["store", "mine", "--dir", store.to_str().unwrap(), "--mmap"]),
            ];
            for (storage, input) in inputs {
                let mut args = input;
                args.extend(["--delta", &delta_arg, "--algo", entry.name]);
                args.extend(threads);
                let cell = format!("{} × {storage} × cli × all", entry.name);
                let got = disc_mine(&args)
                    .map_err(|e| TestCaseError::fail(format!("cell {cell}: {e}")))?;
                check(&cell, &got, &oracle.all, &db, delta)?;
            }
        }
        Ok(())
    });
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// The server transport.

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

/// A `"key":value` field of a flat JSON body.
fn field(json: &str, key: &str) -> String {
    let needle = format!("\"{key}\":");
    let rest =
        &json[json.find(&needle).unwrap_or_else(|| panic!("{key} in {json}")) + needle.len()..];
    let rest = rest.strip_prefix('"').unwrap_or(rest);
    rest.split(['"', ',', '}']).next().unwrap().to_string()
}

/// Submits a job, waits for it, and returns its parsed result.
fn served(addr: SocketAddr, query: &str) -> Result<MiningResult, String> {
    let (status, body) = http(addr, "POST", &format!("/jobs?{query}&nocache=1"), b"");
    if status != 202 {
        return Err(format!("submit answered {status}: {body}"));
    }
    let id = field(&body, "id");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, body) = http(addr, "GET", &format!("/jobs/{id}"), b"");
        match field(&body, "state").as_str() {
            "done" => break,
            "queued" | "running" if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(2))
            }
            _ => return Err(format!("job {id} did not finish: {body}")),
        }
    }
    parse_patterns(&http(addr, "GET", &format!("/jobs/{id}/result"), b"").1)
}

#[test]
fn the_server_serves_what_every_flat_entry_mines_in_every_mode() {
    let dir = scratch_dir("server");
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        data_dir: dir.join("data"),
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

    let case = std::cell::Cell::new(0);
    run(&ProptestConfig::with_cases(12), "contract-server", &arb_case(), |(db, delta, _)| {
        let oracle = Oracle::new(&db, delta);
        case.set(case.get() + 1);
        let (upload, attach) = (format!("up{}", case.get()), format!("at{}", case.get()));
        let (status, body) =
            http(addr, "POST", &format!("/dbs?name={upload}"), &encode_database(&db));
        prop_assert_eq!(status, 201, "upload: {}", body);
        let packed = dir.join(format!("{attach}.dscfd"));
        pack(&db, &packed);
        let (status, body) =
            http(addr, "POST", &format!("/dbs?name={attach}&attach={}", packed.display()), b"");
        prop_assert_eq!(status, 201, "attach: {}", body);
        for entry in ALGORITHMS.iter().filter(|a| a.flat) {
            for (storage, name) in [("upload", &upload), ("attach", &attach)] {
                for mode in Mode::EVERY {
                    let cell = format!("{} × {storage} × server × {}", entry.name, mode.name());
                    let query =
                        format!("db={name}&delta={delta}&algo={}&mode={}", entry.name, mode.name());
                    let got = served(addr, &query)
                        .map_err(|e| TestCaseError::fail(format!("cell {cell}: {e}")))?;
                    check(&cell, &got, oracle.of(mode), &db, delta)?;
                }
            }
        }
        Ok(())
    });

    assert_eq!(http(addr, "POST", "/admin/drain", b"").0, 200);
    handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}
