//! `disc-mine` — command-line frequent-sequence mining.
//!
//! ```text
//! disc-mine <database.txt> --minsup 0.01 [--algo disc-all|dynamic|parallel|prefixspan|pseudo|gsp|spade|spam]
//!           [--min-length N] [--max-patterns N] [--stats]
//!           [--checkpoint-dir DIR] [--resume FILE.dscck]
//! disc-mine pack <database.txt|.dscdb> <out.dscfd>
//! disc-mine store ingest <database.txt> --dir DIR [--sync always|never|N]
//!           [--segment-bytes N] [--compact] [--stats]
//! disc-mine store compact --dir DIR
//! disc-mine store fsck --dir DIR
//! disc-mine store mine --dir DIR [--mmap] [mining flags as above]
//! disc-mine serve --data-dir DIR [--addr HOST:PORT] [--threads N]
//!           [--slice-ops N] [--cache-entries N]
//! ```
//!
//! The database format is one customer per line: `cid: (a, b)(c)(a, d)` —
//! items are lowercase letters or decimal numbers; `#` starts a comment.
//! Output: one pattern per line with its support, in comparative order.
//!
//! Every input is loaded into one [`FlatFileContents`]: compacted flat
//! columns, the dictionary back to the original item ids, and the source
//! fingerprint. A `.dscfd` flat file (written by `disc-mine pack` or
//! mirrored by `disc-mine store compact`) is detected by its magic and
//! mined straight off a memory mapping — the columns are never copied to
//! the heap, so databases larger than memory mine out-of-core. `store mine
//! --mmap` mines the store's compacted mirror the same way, refusing stale
//! mirrors (appends since the last compaction) rather than dropping rows.
//! Text and `DSCDB1` inputs are parsed and flattened in memory. Everything
//! after loading is one path for every input.
//!
//! Exit codes: 0 on success, 1 on permanent failure (corrupt input, bad
//! store, out of space), 2 on usage errors, 75 (`EX_TEMPFAIL`) when the
//! failure was transient (interrupted IO that retries did not clear) and
//! re-running the same command may succeed.

use disc_miner::core::FlatFileContents;
use disc_miner::prelude::*;
use std::path::{Path, PathBuf};
use std::process::exit;

/// `EX_TEMPFAIL`: the sysexits.h convention for "try again later".
const EXIT_TRANSIENT: i32 = 75;

struct Args {
    path: String,
    minsup: MinSupport,
    algo: String,
    min_length: usize,
    max_patterns: usize,
    stats: bool,
    threads: Option<usize>,
    checkpoint_dir: Option<String>,
    resume: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: disc-mine <database.txt> [--minsup FRACTION | --delta COUNT]\n\
         \t[--algo disc-all|dynamic|parallel|prefixspan|pseudo|gsp|spade|spam|brute]\n\
         \t[--min-length N] [--max-patterns N] [--stats] [--threads N]\n\
         \t[--checkpoint-dir DIR] [--resume FILE.dscck]\n\
         or:    disc-mine pack <database.txt|.dscdb> <out.dscfd>\n\
         or:    disc-mine store <ingest|compact|fsck|mine> ... (see `disc-mine store --help`)\n\
         or:    disc-mine serve --data-dir DIR ... (see `disc-mine serve --help`)\n\
         A .dscfd input is memory-mapped and mined zero-copy; other inputs\n\
         are loaded to the heap.\n\
         --checkpoint-dir writes durable snapshots at partition boundaries (and\n\
         auto-resumes a valid one); --resume continues from an explicit snapshot\n\
         file, rejecting corrupted or mismatched files. Both support the\n\
         disc-all, dynamic, and parallel algorithms only."
    );
    exit(2);
}

fn parse_args(argv: Vec<String>) -> Args {
    let mut args = argv.into_iter();
    let mut out = Args {
        path: String::new(),
        minsup: MinSupport::Fraction(0.01),
        algo: "disc-all".into(),
        min_length: 1,
        max_patterns: usize::MAX,
        stats: false,
        threads: None,
        checkpoint_dir: None,
        resume: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--minsup" => {
                let v: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| usage());
                out.minsup = MinSupport::Fraction(v);
            }
            "--delta" => {
                let v: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| usage());
                out.minsup = MinSupport::Count(v);
            }
            "--algo" => out.algo = args.next().unwrap_or_else(|| usage()),
            "--min-length" => {
                out.min_length =
                    args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| usage());
            }
            "--max-patterns" => {
                out.max_patterns =
                    args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| usage());
            }
            "--stats" => out.stats = true,
            "--threads" => {
                let v: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| usage());
                if v == 0 {
                    eprintln!("--threads must be at least 1");
                    usage();
                }
                out.threads = Some(v);
            }
            "--checkpoint-dir" => {
                out.checkpoint_dir = Some(args.next().unwrap_or_else(|| usage()));
            }
            "--resume" => out.resume = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            path if !path.starts_with('-') && out.path.is_empty() => out.path = path.to_string(),
            _ => usage(),
        }
    }
    if out.path.is_empty() {
        usage();
    }
    if out.threads.is_some() && out.algo != "parallel" {
        eprintln!("--threads requires --algo parallel");
        usage();
    }
    if out.checkpoint_dir.is_some() && out.resume.is_some() {
        eprintln!("--checkpoint-dir and --resume are mutually exclusive; --resume already writes further snapshots next to the resumed file");
        usage();
    }
    out
}

/// A parallel miner honoring `--threads` (pool sized by
/// `available_parallelism` when the flag is absent).
fn parallel_miner(threads: Option<usize>) -> ParallelDiscAll {
    match threads {
        Some(n) => ParallelDiscAll::with_threads(n),
        None => ParallelDiscAll::default(),
    }
}

/// The baselines and the brute-force oracle: miners of nested databases.
fn baseline_by_name(name: &str) -> Box<dyn SequentialMiner> {
    match name {
        "prefixspan" => Box::new(PrefixSpan::default()),
        "pseudo" => Box::new(PseudoPrefixSpan::default()),
        "gsp" => Box::new(Gsp::default()),
        "spade" => Box::new(Spade::default()),
        "spam" => Box::new(Spam::default()),
        "brute" => Box::new(BruteForce::default()),
        other => {
            eprintln!("unknown algorithm {other:?}");
            usage();
        }
    }
}

/// Mines the loaded columns with a DISC miner. With `--checkpoint-dir` the
/// miner is wrapped in `Resumable` (durable snapshots at partition
/// boundaries, auto-resuming a valid one); `--resume` continues from an
/// explicit snapshot file, and a typed rejection (corrupted, truncated,
/// stale-version, wrong database, wrong δ) exits with code 1. Further
/// snapshots are written next to the file being resumed.
fn mine_disc<M: Checkpointable>(
    miner: M,
    loaded: &FlatFileContents,
    args: &Args,
) -> (String, MiningResult) {
    let guard = MineGuard::unlimited();
    if let Some(file) = &args.resume {
        let path = Path::new(file);
        let dir = match path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        let wrapped = Resumable::new(miner, dir);
        match wrapped.resume_loaded_from(path, loaded, args.minsup, &guard) {
            Ok(run) => (wrapped.name().to_string(), run.result),
            Err(e) => {
                eprintln!("cannot resume from {file}: {e}");
                exit(1);
            }
        }
    } else if let Some(dir) = &args.checkpoint_dir {
        let wrapped = Resumable::new(miner, dir);
        let run = wrapped.mine_loaded(loaded, args.minsup, &guard);
        (wrapped.name().to_string(), run.result)
    } else {
        let result = miner.mine_flat_guarded(&loaded.flat, args.minsup, &guard).into_complete();
        (miner.name().to_string(), result)
    }
}

/// Loads a database file, accepting both formats disc-gen writes: the text
/// line format and the compact DSCDB1 binary (detected by its magic).
fn load_database(path: &str) -> SequenceDatabase {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            exit(if disc_miner::core::is_transient_io_kind(e.kind()) { EXIT_TRANSIENT } else { 1 });
        }
    };
    if bytes.starts_with(b"DSCDB1\n") {
        match disc_miner::core::decode_database(&bytes) {
            Ok(db) => db,
            Err(e) => {
                eprintln!("cannot decode {path}: {e}");
                exit(1);
            }
        }
    } else {
        let text = match String::from_utf8(bytes) {
            Ok(t) => t,
            Err(_) => {
                eprintln!("cannot parse {path}: neither DSCDB1 binary nor UTF-8 text");
                exit(1);
            }
        };
        match SequenceDatabase::from_text(&text) {
            Ok(db) => db,
            Err(e) => {
                eprintln!("cannot parse {path}: {e}");
                exit(1);
            }
        }
    }
}

/// Mines a loaded database per `args` and prints the patterns — the back
/// half of every mining command, whatever the input format.
fn run_mining(loaded: &FlatFileContents, args: &Args) {
    let rows = loaded.flat.len();
    let resolved = args.minsup.resolve(rows);
    if resolved <= 2 && rows > 100 {
        eprintln!(
            "# warning: threshold resolves to δ = {resolved}; on non-trivial data the \
             frequent set (and runtime) grows exponentially at such low support"
        );
    }
    let start = std::time::Instant::now();
    // The columns hold compact item ids; patterns are translated back
    // through the dictionary. Checkpoints are keyed on the source
    // fingerprint, in original ids.
    let (miner_name, mined) = match args.algo.as_str() {
        "disc-all" => mine_disc(DiscAll::default(), loaded, args),
        "dynamic" => mine_disc(DynamicDiscAll::default(), loaded, args),
        "parallel" => mine_disc(parallel_miner(args.threads), loaded, args),
        other => {
            let miner = baseline_by_name(other);
            if args.checkpoint_dir.is_some() || args.resume.is_some() {
                eprintln!(
                    "--checkpoint-dir/--resume support disc-all, dynamic, parallel; got {other:?}"
                );
                usage();
            }
            // The baselines are oracles and stay naive: they mine a nested
            // copy of the rows.
            (miner.name().to_string(), miner.mine(&loaded.flat.to_database(), args.minsup))
        }
    };
    let result = loaded.restore(mined);
    if args.stats {
        eprintln!(
            "# {}: {} frequent sequences (max length {}) in {:.3?}",
            miner_name,
            result.len(),
            result.max_length(),
            start.elapsed()
        );
    }

    print_patterns(&result, args);
}

fn print_patterns(result: &MiningResult, args: &Args) {
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    for (pattern, support) in
        result.iter().filter(|(p, _)| p.length() >= args.min_length).take(args.max_patterns)
    {
        if writeln!(lock, "{support}\t{pattern}").is_err() {
            break; // downstream pipe closed (e.g. `| head`)
        }
    }
}

/// True when `path` starts with the `DSCFD1` flat-file magic. Reads only
/// the first 8 bytes — the whole point is not to load the file.
fn is_flat_file(path: &str) -> bool {
    use std::io::Read;
    let Ok(mut f) = std::fs::File::open(path) else { return false };
    let mut magic = [0u8; 8];
    f.read_exact(&mut magic).is_ok() && magic == disc_miner::core::FLAT_FILE_MAGIC
}

/// Maps a `.dscfd` file zero-copy, exiting 1 when it cannot be opened or
/// fails verification.
fn open_flat(path: &Path, args: &Args) -> FlatFileContents {
    let loaded = disc_miner::core::open_flat_file(path, disc_miner::core::Verify::Full)
        .unwrap_or_else(|e| {
            eprintln!("cannot open {}: {e}", path.display());
            exit(1);
        });
    print_flat_stats(&loaded, args);
    loaded
}

fn print_flat_stats(loaded: &FlatFileContents, args: &Args) {
    if args.stats {
        eprintln!(
            "# flat file: {} rows, {} item ids, columns {}",
            loaded.flat.len(),
            loaded.mapping.len(),
            if loaded.is_mapped() { "memory-mapped (zero-copy)" } else { "heap (mmap fallback)" },
        );
    }
}

/// Flattens a parsed database in memory, printing its shape under
/// `--stats`.
fn load_nested(db: &SequenceDatabase, args: &Args) -> FlatFileContents {
    if args.stats {
        let s = db.stats();
        eprintln!(
            "# {} customers, {:.2} transactions/customer, {:.2} items/transaction, {} distinct items",
            s.customers, s.avg_transactions, s.avg_items_per_transaction, s.distinct_items
        );
    }
    FlatFileContents::from_database(db)
}

/// `disc-mine pack`: convert a text or DSCDB1 database into the DSCFD1
/// columnar flat file that mines straight off a memory mapping.
fn pack_main(argv: Vec<String>) -> ! {
    let (input, output) = match argv.as_slice() {
        [i, o] if !i.starts_with('-') && !o.starts_with('-') => (i.clone(), o.clone()),
        _ => {
            eprintln!("usage: disc-mine pack <database.txt|.dscdb> <out.dscfd>");
            exit(2);
        }
    };
    let db = load_database(&input);
    let bytes = disc_miner::core::encode_database_flat_file(&db);
    match disc_miner::core::write_flat_file(Path::new(&output), &bytes) {
        Ok(written) => {
            eprintln!("# packed {} rows into {output} ({written} bytes)", db.len());
            exit(0);
        }
        Err(e) => {
            eprintln!("cannot write {output}: {e}");
            exit(if e.is_transient() { EXIT_TRANSIENT } else { 1 });
        }
    }
}

// ---------------------------------------------------------------------------
// The `store` subcommand family: durable WAL-backed ingestion.
// ---------------------------------------------------------------------------

fn store_usage() -> ! {
    eprintln!(
        "usage: disc-mine store <subcommand> ...\n\
         \tingest <database.txt|.dscdb> --dir DIR [--sync always|never|N]\n\
         \t\t[--segment-bytes N] [--compact] [--stats]\n\
         \tcompact --dir DIR\n\
         \tfsck --dir DIR\n\
         \tmine --dir DIR [--mmap] [--minsup FRACTION | --delta COUNT] [--algo NAME]\n\
         \t\t[--min-length N] [--max-patterns N] [--stats]\n\
         ingest appends each customer sequence to a crash-safe write-ahead log;\n\
         every acknowledged append survives a crash (`--sync always`, the\n\
         default). compact folds sealed segments into the store's one\n\
         verified data file, store.dscfd. fsck audits without mutating:\n\
         exit 0 when open() would succeed, 1 when the store is corrupt.\n\
         mine recovers the store and mines the restored database; with\n\
         --mmap it instead memory-maps store.dscfd read-only and mines it\n\
         zero-copy, refusing it while the WAL holds records it lacks.\n\
         Exit codes: 0 ok, 1 permanent failure, 2 usage, 75 transient failure."
    );
    exit(2);
}

/// Reports a store failure and exits 75 for transient faults, 1 otherwise.
fn fail_store(what: &str, e: &StoreError) -> ! {
    eprintln!("{what}: {e}");
    exit(if e.is_transient() { EXIT_TRANSIENT } else { 1 });
}

/// Opens an existing store directory, refusing to invent one: recovery on a
/// missing path would silently create an empty store.
fn open_existing(dir: &str, cfg: StoreConfig) -> SequenceStore {
    if !Path::new(dir).is_dir() {
        eprintln!("no store at {dir}: not a directory");
        exit(1);
    }
    SequenceStore::open(dir, cfg).unwrap_or_else(|e| fail_store("cannot open store", &e))
}

fn print_compaction(report: &CompactionReport) {
    eprintln!(
        "# compacted {} segments into a {}-byte data file ({} rows, fingerprint {:#018x})",
        report.folded_segments, report.snapshot_bytes, report.rows, report.fingerprint
    );
}

fn print_recovery(store: &SequenceStore) {
    let r = store.recovery_report();
    eprintln!(
        "# recovered {} rows ({} from snapshot, {} replayed from {} segments), \
         {} torn bytes truncated, {} stale segments removed{}",
        store.len(),
        r.snapshot_rows,
        r.replayed_records,
        r.segments_replayed,
        r.truncated_bytes,
        r.stale_segments_removed,
        if r.removed_tmp { ", stray temp file removed" } else { "" },
    );
}

fn store_main(argv: Vec<String>) -> ! {
    let mut args = argv.into_iter();
    let sub = args.next().unwrap_or_else(|| store_usage());
    let mut input: Option<String> = None;
    let mut dir: Option<String> = None;
    let mut cfg = StoreConfig::default();
    let mut do_compact = false;
    let mut use_mmap = false;
    let mut mine_args = Args {
        path: String::new(),
        minsup: MinSupport::Fraction(0.01),
        algo: "disc-all".into(),
        min_length: 1,
        max_patterns: usize::MAX,
        stats: false,
        threads: None,
        checkpoint_dir: None,
        resume: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dir" => dir = Some(args.next().unwrap_or_else(|| store_usage())),
            "--sync" => {
                let v = args.next().unwrap_or_else(|| store_usage());
                cfg.sync = match v.as_str() {
                    "always" => SyncPolicy::Always,
                    "never" => SyncPolicy::Never,
                    n => match n.parse::<u64>() {
                        Ok(n) if n > 0 => SyncPolicy::EveryN(n),
                        _ => store_usage(),
                    },
                };
            }
            "--segment-bytes" => {
                cfg.segment_max_bytes =
                    args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| store_usage());
            }
            "--compact" => do_compact = true,
            "--mmap" => use_mmap = true,
            "--minsup" => {
                let v: f64 =
                    args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| store_usage());
                mine_args.minsup = MinSupport::Fraction(v);
            }
            "--delta" => {
                let v: u64 =
                    args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| store_usage());
                mine_args.minsup = MinSupport::Count(v);
            }
            "--algo" => mine_args.algo = args.next().unwrap_or_else(|| store_usage()),
            "--min-length" => {
                mine_args.min_length =
                    args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| store_usage());
            }
            "--max-patterns" => {
                mine_args.max_patterns =
                    args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| store_usage());
            }
            "--stats" => mine_args.stats = true,
            "--threads" => {
                let v: usize =
                    args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| store_usage());
                if v == 0 {
                    eprintln!("--threads must be at least 1");
                    store_usage();
                }
                mine_args.threads = Some(v);
            }
            "--help" | "-h" => store_usage(),
            path if !path.starts_with('-') && input.is_none() => input = Some(path.to_string()),
            _ => store_usage(),
        }
    }
    let dir = dir.unwrap_or_else(|| store_usage());
    if mine_args.threads.is_some() && mine_args.algo != "parallel" {
        eprintln!("--threads requires --algo parallel");
        store_usage();
    }

    match sub.as_str() {
        "ingest" => {
            let input = input.unwrap_or_else(|| store_usage());
            let db = load_database(&input);
            let mut store = SequenceStore::open(&dir, cfg)
                .unwrap_or_else(|e| fail_store("cannot open store", &e));
            if mine_args.stats {
                print_recovery(&store);
            }
            let before = store.len();
            for row in db.rows() {
                store
                    .append(row.cid, row.sequence.clone())
                    .unwrap_or_else(|e| fail_store("append failed", &e));
            }
            let appended = store.len() - before;
            if do_compact {
                let report =
                    store.compact().unwrap_or_else(|e| fail_store("compaction failed", &e));
                print_compaction(&report);
            }
            let total = store.len();
            store.close().unwrap_or_else(|e| fail_store("close failed", &e));
            eprintln!("# ingested {appended} sequences into {dir} ({total} total)");
            exit(0);
        }
        "compact" => {
            let mut store = open_existing(&dir, cfg);
            if mine_args.stats {
                print_recovery(&store);
            }
            let report = store.compact().unwrap_or_else(|e| fail_store("compaction failed", &e));
            store.close().unwrap_or_else(|e| fail_store("close failed", &e));
            print_compaction(&report);
            exit(0);
        }
        "fsck" => {
            if !Path::new(&dir).is_dir() {
                eprintln!("no store at {dir}: not a directory");
                exit(1);
            }
            let report =
                fsck(&PathBuf::from(&dir)).unwrap_or_else(|e| fail_store("cannot audit store", &e));
            println!("{report}");
            exit(if report.is_recoverable() { 0 } else { 1 });
        }
        "mine" if use_mmap => {
            let loaded = disc_miner::core::open_fresh(Path::new(&dir))
                .unwrap_or_else(|e| fail_store("cannot map the store's data file", &e));
            print_flat_stats(&loaded, &mine_args);
            run_mining(&loaded, &mine_args);
            exit(0);
        }
        "mine" => {
            let store = open_existing(&dir, cfg);
            if mine_args.stats {
                print_recovery(&store);
            }
            let view = store.view();
            store.close().unwrap_or_else(|e| fail_store("close failed", &e));
            run_mining(&load_nested(&view, &mine_args), &mine_args);
            exit(0);
        }
        _ => store_usage(),
    }
}

fn serve_usage() -> ! {
    eprintln!(
        "usage: disc-mine serve --data-dir DIR [--addr HOST:PORT] [--threads N]\n\
         \t[--slice-ops N] [--checkpoint-every N] [--cache-entries N]\n\
         \t[--default-max-ops N]\n\
         \t[--max-connections N] [--queue-depth N] [--max-body-bytes N]\n\
         \t[--max-head-bytes N] [--read-timeout-ms N] [--write-timeout-ms N]\n\
         \t[--request-deadline-ms N]\n\
         \t[--rate-limit BURST/PER_SEC] [--max-concurrent-jobs N]\n\
         \t[--max-cumulative-ops N] [--chaos-seed SEED]\n\
         Starts the multi-tenant mining server. State (databases, job\n\
         checkpoints, results, manifest) persists under --data-dir; SIGTERM\n\
         drains gracefully — running jobs checkpoint at their next partition\n\
         boundary and a restarted server resumes them bit-identically.\n\
         Admission: a fixed pool of --max-connections handler threads drains\n\
         a --queue-depth accept queue; overflow is shed with 503 + a\n\
         load-computed Retry-After. Oversized requests get 413; stalled or\n\
         trickling clients get 408 — per-read at --read-timeout-ms, and\n\
         absolutely at --request-deadline-ms for the whole request, so a\n\
         byte-at-a-time slow-loris cannot renew its deadline forever.\n\
         Quota flags apply per tenant (the client-asserted tenant name —\n\
         a fairness mechanism for trusted tenants, not authentication) and\n\
         refuse with typed 429s. --chaos-seed wraps every connection in the\n\
         deterministic network-fault harness (testing only).\n\
         Default addr is 127.0.0.1:7031; port 0 picks a free port (printed)."
    );
    exit(2);
}

fn serve_main(argv: Vec<String>) -> ! {
    let mut cfg =
        disc_miner::server::ServerConfig { addr: "127.0.0.1:7031".into(), ..Default::default() };
    let mut data_dir: Option<String> = None;
    let mut args = argv.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--data-dir" => data_dir = Some(args.next().unwrap_or_else(|| serve_usage())),
            "--addr" => cfg.addr = args.next().unwrap_or_else(|| serve_usage()),
            "--threads" => {
                cfg.scheduler.threads =
                    args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| serve_usage());
            }
            "--slice-ops" => {
                cfg.scheduler.slice_ops =
                    args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| serve_usage());
            }
            "--checkpoint-every" => {
                cfg.scheduler.checkpoint_every =
                    args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| serve_usage());
            }
            "--cache-entries" => {
                cfg.cache_entries =
                    args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| serve_usage());
            }
            "--default-max-ops" => {
                cfg.default_max_ops =
                    Some(args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| serve_usage()));
            }
            "--max-connections" => {
                cfg.limits.max_connections =
                    args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| serve_usage());
            }
            "--queue-depth" => {
                cfg.limits.queue_depth =
                    args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| serve_usage());
            }
            "--max-body-bytes" => {
                cfg.limits.max_body_bytes =
                    args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| serve_usage());
            }
            "--max-head-bytes" => {
                cfg.limits.max_head_bytes =
                    args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| serve_usage());
            }
            "--read-timeout-ms" => {
                let ms: u64 =
                    args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| serve_usage());
                cfg.limits.read_timeout = std::time::Duration::from_millis(ms.max(1));
            }
            "--write-timeout-ms" => {
                let ms: u64 =
                    args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| serve_usage());
                cfg.limits.write_timeout = std::time::Duration::from_millis(ms.max(1));
            }
            "--request-deadline-ms" => {
                let ms: u64 =
                    args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| serve_usage());
                cfg.limits.request_deadline = std::time::Duration::from_millis(ms.max(1));
            }
            // BURST/PER_SEC, e.g. `5/2.5` = bursts of 5, 2.5 requests/s.
            "--rate-limit" => {
                let spec = args.next().unwrap_or_else(|| serve_usage());
                let (burst, per_sec) = spec.split_once('/').unwrap_or_else(|| serve_usage());
                cfg.scheduler.quotas.rate = Some(disc_miner::server::RateLimit {
                    burst: burst.parse().ok().unwrap_or_else(|| serve_usage()),
                    per_sec: per_sec.parse().ok().unwrap_or_else(|| serve_usage()),
                });
            }
            "--max-concurrent-jobs" => {
                cfg.scheduler.quotas.max_concurrent_jobs =
                    Some(args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| serve_usage()));
            }
            "--max-cumulative-ops" => {
                cfg.scheduler.quotas.max_cumulative_ops =
                    Some(args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| serve_usage()));
            }
            "--chaos-seed" => {
                let seed =
                    args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| serve_usage());
                cfg.chaos = Some(disc_miner::server::ChaosConfig::light(seed));
                eprintln!("disc-server: CHAOS HARNESS ACTIVE (seed {seed}) — testing only");
            }
            _ => serve_usage(),
        }
    }
    cfg.data_dir = PathBuf::from(data_dir.unwrap_or_else(|| serve_usage()));

    let server = disc_miner::server::Server::new(cfg);
    // Announce the bound address from a sidecar thread once run() binds —
    // scripted clients (CI, benches) parse this line to find a port-0 pick.
    let announce = server.clone();
    std::thread::spawn(move || loop {
        if let Some(addr) = announce.local_addr() {
            println!("disc-server listening on {addr}");
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    });
    match server.run() {
        Ok(queued) => {
            eprintln!("disc-server drained; {} job(s) left resumable", queued.len());
            exit(0);
        }
        Err(e) => {
            eprintln!("disc-server failed: {e}");
            let transient = matches!(
                e.kind(),
                std::io::ErrorKind::Interrupted
                    | std::io::ErrorKind::WouldBlock
                    | std::io::ErrorKind::TimedOut
            );
            exit(if transient { EXIT_TRANSIENT } else { 1 });
        }
    }
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("store") {
        store_main(argv.split_off(1));
    }
    if argv.first().map(String::as_str) == Some("pack") {
        pack_main(argv.split_off(1));
    }
    if argv.first().map(String::as_str) == Some("serve") {
        serve_main(argv.split_off(1));
    }
    let args = parse_args(argv);
    let loaded = if is_flat_file(&args.path) {
        open_flat(Path::new(&args.path), &args)
    } else {
        load_nested(&load_database(&args.path), &args)
    };
    run_mining(&loaded, &args);
}
