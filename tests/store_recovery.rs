//! The store crash-recovery gate: every injected fault at every WAL append
//! point, and every fault at a compaction's one publish (including the
//! compaction that converts a store an earlier build wrote), must leave a
//! store that reopens to **exactly** the acknowledged prefix — and mining
//! the recovered database must be bit-identical to mining a never-crashed
//! ingest of the same records.
//!
//! CI runs this suite once per thread count (1, 2, 4) in release mode via
//! `DISC_DETERMINISM_THREADS`. Store directories live under
//! `DISC_STORE_DIR` when set (CI points it at a workspace path so a failing
//! store's segments can be uploaded as an artifact); on success each test
//! removes its directories.

use disc_miner::core::{CustomerSequence, FaultPlan, IoFault, IoWriter, SegmentStatus};
use disc_miner::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};

const MINSUP: MinSupport = MinSupport::Fraction(0.15);

/// A workload small enough that mining at every crash point stays cheap,
/// yet wide enough that prefixes differ meaningfully.
fn workload() -> SequenceDatabase {
    QuestConfig::paper_table11()
        .with_ncust(40)
        .with_nitems(20)
        .with_pools(20, 40)
        .with_slen(3.0)
        .with_seed(77)
        .generate()
}

/// Store directories go under `DISC_STORE_DIR` when set so CI can upload
/// whatever a failing test leaves behind.
fn store_root() -> PathBuf {
    match std::env::var("DISC_STORE_DIR") {
        Ok(dir) => PathBuf::from(dir),
        Err(_) => std::env::temp_dir(),
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = store_root().join(format!("store-recovery-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The database a never-crashed ingest of `rows[..k]` produces.
fn prefix_db(rows: &[CustomerSequence], k: usize) -> SequenceDatabase {
    let mut db = SequenceDatabase::new();
    for row in &rows[..k] {
        db.push(row.cid, row.sequence.clone());
    }
    db
}

/// Parallel thread counts under test: `DISC_DETERMINISM_THREADS`
/// (comma-separated) when set — CI's matrix sets one per job — else 1, 2, 4.
fn thread_counts() -> Vec<usize> {
    match std::env::var("DISC_DETERMINISM_THREADS") {
        Ok(v) => v
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("bad DISC_DETERMINISM_THREADS entry {s:?}"))
            })
            .collect(),
        Err(_) => vec![1, 2, 4],
    }
}

fn assert_identical(label: &str, got: &MiningResult, reference: &MiningResult) {
    let diff = got.diff(reference);
    assert!(
        diff.is_empty(),
        "{label} differs from the never-crashed run ({} lines):\n{}",
        diff.len(),
        diff.join("\n")
    );
}

/// Appends rows until one fails (the injected crash); the store is then
/// dropped without a clean close, exactly like a killed process. Returns
/// the number of **acknowledged** appends.
fn ingest_until_crash(dir: &Path, rows: &[CustomerSequence], plan: FaultPlan) -> usize {
    let mut store = SequenceStore::open_with_fault(dir, StoreConfig::default(), plan)
        .expect("open on a fresh directory");
    let mut acked = 0;
    for row in rows {
        match store.append(row.cid, row.sequence.clone()) {
            Ok(()) => acked += 1,
            Err(_) => break,
        }
    }
    acked
}

/// The headline matrix: a crash-class fault at **every** append index must
/// lose exactly the unacknowledged suffix, and mining the recovered store
/// must match mining a never-crashed ingest of the acknowledged prefix.
#[test]
fn wal_append_crash_matrix_recovers_the_exact_acked_prefix() {
    let db = workload();
    let rows = db.rows();
    for fault in [IoFault::TornWrite, IoFault::Enospc] {
        for k in 0..rows.len() {
            let label = format!("wal-{fault:?}-a{k}");
            let dir = fresh_dir(&label);
            let plan = FaultPlan::io_fault_at(IoWriter::WalAppend, k as u64, fault);
            let acked = ingest_until_crash(&dir, rows, plan);
            assert_eq!(acked, k, "{label}: the fault must kill append {k} exactly");

            // fsck sees what the crash left: recoverable, with exactly the
            // acknowledged records, and (for a torn write) a torn tail.
            let report = fsck(&dir).expect("fsck reads the directory");
            assert!(report.is_recoverable(), "{label}: must be recoverable\n{report}");
            assert_eq!(report.acked_records, k as u64, "{label}\n{report}");
            if fault == IoFault::TornWrite {
                assert!(
                    report
                        .segments
                        .iter()
                        .any(|s| matches!(s.status, SegmentStatus::TornTail { .. })),
                    "{label}: a torn write must leave a torn tail\n{report}"
                );
            }

            // Recovery restores the acknowledged prefix, bit for bit.
            let store = SequenceStore::open(&dir, StoreConfig::default())
                .unwrap_or_else(|e| panic!("{label}: reopen failed: {e}"));
            let expected = prefix_db(rows, k);
            assert_eq!(*store.view(), expected, "{label}: recovered database");

            // And mining it is indistinguishable from never having crashed.
            let got = DiscAll::default().mine(&store.view(), MINSUP);
            let want = DiscAll::default().mine(&expected, MINSUP);
            assert_identical(&label, &got, &want);

            // A clean close leaves a clean store.
            store.close().expect("close");
            let after = fsck(&dir).expect("fsck after recovery");
            assert!(after.is_clean(), "{label}: recovery must repair\n{after}");
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

/// A transient interruption mid-append is absorbed by the retry loop: every
/// append acks, nothing is lost, and the store is indistinguishable from an
/// uninterrupted ingest.
#[test]
fn interrupted_appends_are_retried_and_lose_nothing() {
    let db = workload();
    let rows = db.rows();
    for k in [0, rows.len() / 2, rows.len() - 1] {
        let label = format!("wal-eintr-a{k}");
        let dir = fresh_dir(&label);
        let plan = FaultPlan::io_fault_at(IoWriter::WalAppend, k as u64, IoFault::Interrupted);
        let acked = ingest_until_crash(&dir, rows, plan);
        assert_eq!(acked, rows.len(), "{label}: EINTR must be retried, not surfaced");

        let store = SequenceStore::open(&dir, StoreConfig::default()).expect("reopen");
        assert_eq!(*store.view(), db, "{label}: nothing may be lost");
        store.close().expect("close");
        assert!(fsck(&dir).expect("fsck").is_clean(), "{label}");
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Every fault mode at the compaction's one publish, on a store of this
/// build and on one an earlier build wrote (`store.dscsn` plus a mirror
/// without the store slot, converted by its first compaction): acknowledged
/// records are never lost, the previous state is never destroyed, and the
/// recovered store mines identically to the never-crashed database.
#[test]
fn compaction_fault_matrix_preserves_every_acked_record() {
    let db = workload();
    let rows = db.rows();
    // Small segments so a compaction genuinely folds several of them.
    let small = StoreConfig { segment_max_bytes: 256, ..StoreConfig::default() };
    let faults = [
        IoFault::TornWrite,
        IoFault::Enospc,
        IoFault::Interrupted,
        IoFault::CorruptByte,
        IoFault::StaleVersion,
        IoFault::CrashBeforeRename,
        IoFault::CrashAfterRename,
    ];
    for fault in faults {
        let label = format!("compact-{fault:?}");
        let dir = fresh_dir(&label);
        let mut store = SequenceStore::open(&dir, small).expect("open");
        for row in rows {
            store.append(row.cid, row.sequence.clone()).expect("append");
        }
        compact_with_fault(&label, store, fault, 2);
        assert_recovers(&label, &dir, small, &db, fault);
    }

    let legacy = legacy_store_copy("legacy-reference");
    let legacy_db = (*SequenceStore::open(&legacy, small).expect("open legacy").view()).clone();
    let _ = fs::remove_dir_all(&legacy);
    for fault in faults {
        let label = format!("legacy-compact-{fault:?}");
        let dir = legacy_store_copy(&label);
        let store = SequenceStore::open(&dir, small).expect("open legacy");
        compact_with_fault(&label, store, fault, 1);
        assert_recovers(&label, &dir, small, &legacy_db, fault);
    }
}

/// A copy of the store the earlier two-file format wrote (the
/// `legacy-store` fixture of `disc-core`).
fn legacy_store_copy(tag: &str) -> PathBuf {
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/tests/fixtures/legacy-store");
    let dir = fresh_dir(tag);
    fs::create_dir_all(&dir).expect("mkdir");
    for entry in fs::read_dir(&fixture).expect("fixture") {
        let entry = entry.expect("fixture entry");
        fs::copy(entry.path(), dir.join(entry.file_name())).expect("copy fixture");
    }
    dir
}

/// Runs one compaction with `fault` staged at its publish, then drops the
/// store without a clean close: the "process dies" there. A compaction the
/// fault does not stop must fold at least `min_folded` segments.
fn compact_with_fault(label: &str, mut store: SequenceStore, fault: IoFault, min_folded: usize) {
    store.arm_fault(FaultPlan::io_fault_at(IoWriter::StoreSnapshot, 0, fault));
    let res = store.compact();
    if fault == IoFault::Interrupted {
        // Transient: the retry clears it and the compaction completes.
        let report = res.unwrap_or_else(|e| panic!("{label}: must succeed: {e}"));
        assert!(report.folded_segments >= min_folded, "{label}: should fold the segments");
    } else {
        res.expect_err("a crash-class fault at the publish must fail the compaction");
    }
}

/// Whatever the crash left — a torn temp file, a published data file with
/// stale segments (and a legacy snapshot), an unpublished one — fsck must
/// call it recoverable with every acknowledged record intact, recovery must
/// restore exactly `db`, and the next compaction must leave one data file.
fn assert_recovers(
    label: &str,
    dir: &Path,
    cfg: StoreConfig,
    db: &SequenceDatabase,
    fault: IoFault,
) {
    let report = fsck(dir).expect("fsck");
    assert!(report.is_recoverable(), "{label}\n{report}");
    assert_eq!(report.acked_records, db.len() as u64, "{label}\n{report}");

    let mut store = SequenceStore::open(dir, cfg).expect("reopen");
    assert_eq!(*store.view(), *db, "{label}: recovered database");
    if fault == IoFault::CrashAfterRename {
        // The data file was published; recovery finishes the interrupted
        // cleanup by deleting what it supersedes.
        assert!(
            store.recovery_report().stale_segments_removed > 0,
            "{label}: recovery must remove the stale segments"
        );
        assert!(!dir.join("store.dscsn").exists(), "{label}: recovery must remove store.dscsn");
    }
    let got = DiscAll::default().mine(&store.view(), MINSUP);
    assert_identical(label, &got, &DiscAll::default().mine(db, MINSUP));

    // The next compaction, on the recovered store, must succeed and leave a
    // clean store of one data file.
    store.compact().unwrap_or_else(|e| panic!("{label}: recovered compaction: {e}"));
    store.close().expect("close");
    assert!(fsck(dir).expect("fsck").is_clean(), "{label}");
    let names: Vec<String> = fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8 name"))
        .collect();
    assert_eq!(names, ["store.dscfd"], "{label}: one data file and nothing else");
    let _ = fs::remove_dir_all(dir);
}

/// The parallel miner, at every thread count under test, mines a recovered
/// store bit-identically to the sequential miner on the same prefix.
#[test]
fn parallel_mine_from_a_recovered_store_is_bit_identical() {
    let db = workload();
    let rows = db.rows();
    let k = rows.len() / 2;
    let dir = fresh_dir("parallel");
    let plan = FaultPlan::io_fault_at(IoWriter::WalAppend, k as u64, IoFault::TornWrite);
    let acked = ingest_until_crash(&dir, rows, plan);
    assert_eq!(acked, k);

    let store = SequenceStore::open(&dir, StoreConfig::default()).expect("reopen");
    let expected = prefix_db(rows, k);
    let reference = DiscAll::default().mine(&expected, MINSUP);
    for threads in thread_counts() {
        let got = ParallelDiscAll::with_threads(threads).mine(&store.view(), MINSUP);
        assert_identical(&format!("parallel-{threads} from recovered store"), &got, &reference);
    }
    let _ = fs::remove_dir_all(&dir);
}

/// End to end: crash mid-ingest, recover, finish the ingest, compact, and
/// reopen — the final store holds the full database and mines identically
/// to a run that never crashed.
#[test]
fn resumed_ingest_after_a_crash_completes_to_the_full_database() {
    let db = workload();
    let rows = db.rows();
    let k = rows.len() / 3;
    let dir = fresh_dir("resume-ingest");
    let plan = FaultPlan::io_fault_at(IoWriter::WalAppend, k as u64, IoFault::TornWrite);
    assert_eq!(ingest_until_crash(&dir, rows, plan), k);

    let mut store = SequenceStore::open(&dir, StoreConfig::default()).expect("reopen");
    assert_eq!(store.len(), k);
    for row in &rows[k..] {
        store.append(row.cid, row.sequence.clone()).expect("append after recovery");
    }
    store.compact().expect("compact");
    store.close().expect("close");

    let store = SequenceStore::open(&dir, StoreConfig::default()).expect("final reopen");
    assert_eq!(*store.view(), db, "the completed store holds the full database");
    assert_eq!(
        store.recovery_report().snapshot_rows,
        rows.len(),
        "after compaction every row recovers from the snapshot"
    );
    let got = DiscAll::default().mine(&store.view(), MINSUP);
    let reference = DiscAll::default().mine(&db, MINSUP);
    assert_identical("resumed ingest", &got, &reference);
    assert!(fsck(&dir).expect("fsck").is_clean());
    let _ = fs::remove_dir_all(&dir);
}
