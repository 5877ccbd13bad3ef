use super::fsck::{fsck, SegmentStatus};
use super::*;
use crate::durable::{IoFault, IoWriter};
use crate::guard::FaultPlan;
use crate::parse::parse_sequence;
use std::sync::atomic::{AtomicU64, Ordering};

fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("disc-store-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn seq(text: &str) -> Sequence {
    parse_sequence(text).unwrap()
}

fn sample_rows() -> Vec<(CustomerId, Sequence)> {
    ["(a,e,g)(b)(h)(f)(c)(b,f)", "(b)(d,f)(e)", "(b,f,g)", "(f)(a,g)(b,f,h)(b,f)", "(a)(b)(c)"]
        .iter()
        .enumerate()
        .map(|(i, t)| (CustomerId(i as u64 + 1), seq(t)))
        .collect()
}

fn ingest(store: &mut SequenceStore, rows: &[(CustomerId, Sequence)]) {
    for (cid, s) in rows {
        store.append(*cid, s.clone()).unwrap();
    }
}

#[test]
fn append_reopen_roundtrip() {
    let dir = fresh_dir("roundtrip");
    let rows = sample_rows();
    let mut store = SequenceStore::open(&dir, StoreConfig::default()).unwrap();
    assert!(store.is_empty());
    ingest(&mut store, &rows);
    let before = store.view();
    let fp = store.fingerprint();
    drop(store); // no clean close: exactly a crash after the last fsync

    let store = SequenceStore::open(&dir, StoreConfig::default()).unwrap();
    assert_eq!(*store.view(), *before);
    assert_eq!(store.fingerprint(), fp);
    assert_eq!(store.recovery_report().replayed_records, rows.len());
    assert_eq!(store.recovery_report().snapshot_rows, 0);
}

#[test]
fn views_are_point_in_time() {
    let dir = fresh_dir("views");
    let mut store = SequenceStore::open(&dir, StoreConfig::default()).unwrap();
    store.append(CustomerId(1), seq("(a)(b)")).unwrap();
    let early = store.view();
    store.append(CustomerId(2), seq("(c)")).unwrap();
    let late = store.view();
    assert_eq!(early.len(), 1, "a handed-out view never sees later appends");
    assert_eq!(late.len(), 2);
}

#[test]
fn duplicate_customers_are_rejected_without_side_effects() {
    let dir = fresh_dir("dup");
    let mut store = SequenceStore::open(&dir, StoreConfig::default()).unwrap();
    store.append(CustomerId(7), seq("(a)")).unwrap();
    assert_eq!(
        store.append(CustomerId(7), seq("(b)")),
        Err(StoreError::DuplicateCustomer { cid: 7 })
    );
    // The rejection poisons nothing; the store stays usable.
    store.append(CustomerId(8), seq("(b)")).unwrap();
    drop(store);
    let store = SequenceStore::open(&dir, StoreConfig::default()).unwrap();
    assert_eq!(store.len(), 2);
}

#[test]
fn segments_rotate_at_the_size_budget() {
    let dir = fresh_dir("rotate");
    let cfg = StoreConfig { segment_max_bytes: 64, ..StoreConfig::default() };
    let mut store = SequenceStore::open(&dir, cfg).unwrap();
    let rows = sample_rows();
    ingest(&mut store, &rows);
    drop(store);
    let report = fsck(&dir).unwrap();
    assert!(report.segments.len() > 1, "64-byte budget must force rotation");
    assert!(report.is_clean(), "{report}");
    let store = SequenceStore::open(&dir, cfg).unwrap();
    assert_eq!(store.len(), rows.len());
    assert!(store.recovery_report().segments_replayed > 1);
}

#[test]
fn compaction_folds_segments_into_a_verified_snapshot() {
    let dir = fresh_dir("compact");
    let cfg = StoreConfig { segment_max_bytes: 64, ..StoreConfig::default() };
    let mut store = SequenceStore::open(&dir, cfg).unwrap();
    let rows = sample_rows();
    ingest(&mut store, &rows);
    let fp = store.fingerprint();
    let report = store.compact().unwrap();
    assert!(report.folded_segments > 1);
    assert_eq!(report.rows, rows.len());
    assert_eq!(report.fingerprint, fp);

    let audit = fsck(&dir).unwrap();
    assert!(audit.is_clean(), "{audit}");
    assert!(audit.segments.is_empty(), "folded segments must be deleted");
    assert_eq!(audit.acked_records, rows.len() as u64);

    // Appends continue after compaction, into fresh segments.
    store.append(CustomerId(99), seq("(a,b)")).unwrap();
    drop(store);
    let store = SequenceStore::open(&dir, cfg).unwrap();
    assert_eq!(store.len(), rows.len() + 1);
    assert_eq!(store.recovery_report().snapshot_rows, rows.len());
    assert_eq!(store.recovery_report().replayed_records, 1);
}

#[test]
fn empty_store_compacts_and_reopens() {
    let dir = fresh_dir("empty");
    let mut store = SequenceStore::open(&dir, StoreConfig::default()).unwrap();
    let report = store.compact().unwrap();
    assert_eq!(report.rows, 0);
    drop(store);
    let store = SequenceStore::open(&dir, StoreConfig::default()).unwrap();
    assert!(store.is_empty());
}

#[test]
fn torn_frame_write_loses_only_the_unacknowledged_record() {
    let dir = fresh_dir("torn");
    let rows = sample_rows();
    let mut store = SequenceStore::open(&dir, StoreConfig::default()).unwrap();
    store.arm_fault(FaultPlan::io_fault_at(IoWriter::WalAppend, 3, IoFault::TornWrite));
    for (i, (cid, s)) in rows.iter().enumerate() {
        let res = store.append(*cid, s.clone());
        if i < 3 {
            res.unwrap();
        } else if i == 3 {
            assert_eq!(res, Err(StoreError::Injected { fault: IoFault::TornWrite }));
        } else {
            assert_eq!(res, Err(StoreError::Poisoned), "a failed write poisons the store");
        }
    }
    drop(store);

    let audit = fsck(&dir).unwrap();
    assert!(audit.is_recoverable() && !audit.is_clean(), "{audit}");
    assert_eq!(audit.acked_records, 3);

    let store = SequenceStore::open(&dir, StoreConfig::default()).unwrap();
    assert_eq!(store.len(), 3, "exactly the acknowledged records survive");
    assert!(store.recovery_report().truncated_bytes > 0);
    for (i, row) in store.view().rows().iter().enumerate() {
        assert_eq!((row.cid, &row.sequence), (rows[i].0, &rows[i].1));
    }
    // After repair the store is clean again.
    drop(store);
    assert!(fsck(&dir).unwrap().is_clean());
}

#[test]
fn enospc_is_permanent_and_poisons_the_writer() {
    let dir = fresh_dir("enospc");
    let mut store = SequenceStore::open(&dir, StoreConfig::default()).unwrap();
    store.append(CustomerId(1), seq("(a)")).unwrap();
    store.arm_fault(FaultPlan::io_fault_at(IoWriter::WalAppend, 1, IoFault::Enospc));
    let err = store.append(CustomerId(2), seq("(b)")).unwrap_err();
    assert!(!err.is_transient(), "ENOSPC must classify as permanent: {err}");
    assert_eq!(store.append(CustomerId(3), seq("(c)")), Err(StoreError::Poisoned));
    drop(store);
    let store = SequenceStore::open(&dir, StoreConfig::default()).unwrap();
    assert_eq!(store.len(), 1);
}

#[test]
fn a_single_eintr_is_retried_and_the_append_succeeds() {
    let dir = fresh_dir("eintr");
    let rows = sample_rows();
    let mut store = SequenceStore::open(&dir, StoreConfig::default()).unwrap();
    store.arm_fault(FaultPlan::io_fault_at(IoWriter::WalAppend, 2, IoFault::Interrupted));
    ingest(&mut store, &rows); // every append unwraps: the EINTR was absorbed
    drop(store);
    let store = SequenceStore::open(&dir, StoreConfig::default()).unwrap();
    assert_eq!(store.len(), rows.len());
}

#[test]
fn injected_bit_rot_is_caught_by_fsck_and_refused_by_recovery() {
    let dir = fresh_dir("bitrot");
    let rows = sample_rows();
    let mut store = SequenceStore::open(&dir, StoreConfig::default()).unwrap();
    store.arm_fault(FaultPlan::io_fault_at(IoWriter::WalAppend, 1, IoFault::CorruptByte));
    ingest(&mut store, &rows); // the damaged append is (wrongly) acknowledged
    drop(store);

    let audit = fsck(&dir).unwrap();
    assert!(!audit.is_recoverable(), "mid-file bit-rot is not recoverable: {audit}");
    assert!(audit.segments.iter().any(|s| matches!(s.status, SegmentStatus::Corrupt { .. })));
    assert!(matches!(
        SequenceStore::open(&dir, StoreConfig::default()),
        Err(StoreError::Corrupt { .. })
    ));
}

#[test]
fn compaction_crash_before_rename_preserves_the_old_state() {
    let dir = fresh_dir("prerename");
    let rows = sample_rows();
    let mut store = SequenceStore::open(&dir, StoreConfig::default()).unwrap();
    ingest(&mut store, &rows);
    store.arm_fault(FaultPlan::io_fault_at(IoWriter::StoreSnapshot, 0, IoFault::CrashBeforeRename));
    assert!(store.compact().is_err());
    drop(store);

    let audit = fsck(&dir).unwrap();
    assert!(audit.stray_tmp, "the verified-but-unrenamed temp file is left behind");
    assert!(audit.is_recoverable());
    let store = SequenceStore::open(&dir, StoreConfig::default()).unwrap();
    assert_eq!(store.len(), rows.len());
    assert!(store.recovery_report().removed_tmp);
}

#[test]
fn compaction_crash_after_rename_leaves_stale_segments_for_recovery() {
    let dir = fresh_dir("postrename");
    let rows = sample_rows();
    let mut store = SequenceStore::open(&dir, StoreConfig::default()).unwrap();
    ingest(&mut store, &rows);
    store.arm_fault(FaultPlan::io_fault_at(IoWriter::StoreSnapshot, 0, IoFault::CrashAfterRename));
    assert!(store.compact().is_err());
    drop(store);

    let audit = fsck(&dir).unwrap();
    assert!(audit.segments.iter().any(|s| matches!(s.status, SegmentStatus::Stale)), "{audit}");
    assert!(audit.is_recoverable());
    let store = SequenceStore::open(&dir, StoreConfig::default()).unwrap();
    assert_eq!(store.len(), rows.len(), "stale segments must not double-ingest");
    assert!(store.recovery_report().stale_segments_removed > 0);
    drop(store);
    assert!(fsck(&dir).unwrap().is_clean());
}

#[test]
fn corrupted_snapshot_bytes_are_never_published() {
    let dir = fresh_dir("snapverify");
    let rows = sample_rows();
    let mut store = SequenceStore::open(&dir, StoreConfig::default()).unwrap();
    ingest(&mut store, &rows);
    store.arm_fault(FaultPlan::io_fault_at(IoWriter::StoreSnapshot, 0, IoFault::CorruptByte));
    assert!(matches!(store.compact(), Err(StoreError::SnapshotVerify { .. })));
    // Nothing was published or deleted: a second compact succeeds...
    store.compact().unwrap();
    drop(store);
    // ...and recovery sees the full database.
    let store = SequenceStore::open(&dir, StoreConfig::default()).unwrap();
    assert_eq!(store.len(), rows.len());
}

#[test]
fn short_reads_and_eintr_during_recovery_change_nothing() {
    let dir = fresh_dir("shortread");
    let rows = sample_rows();
    let cfg = StoreConfig { segment_max_bytes: 64, ..StoreConfig::default() };
    let mut store = SequenceStore::open(&dir, cfg).unwrap();
    ingest(&mut store, &rows);
    let fp = store.fingerprint();
    drop(store);
    for fault in [IoFault::ShortRead, IoFault::Interrupted] {
        for read_n in 0..4 {
            let plan = FaultPlan::io_fault_at(IoWriter::StoreRead, read_n, fault);
            let store = SequenceStore::open_with_fault(&dir, cfg, plan).unwrap();
            assert_eq!(store.fingerprint(), fp, "{fault:?} at read {read_n}");
        }
    }
}

#[test]
fn sync_policies_accept_appends() {
    for sync in [SyncPolicy::Always, SyncPolicy::EveryN(2), SyncPolicy::Never] {
        let dir = fresh_dir("sync");
        let cfg = StoreConfig { sync, ..StoreConfig::default() };
        let mut store = SequenceStore::open(&dir, cfg).unwrap();
        ingest(&mut store, &sample_rows());
        store.close().unwrap(); // seal makes the tail durable under any policy
        let store = SequenceStore::open(&dir, cfg).unwrap();
        assert_eq!(store.len(), sample_rows().len());
    }
}

#[test]
fn foreign_files_in_the_directory_are_ignored() {
    let dir = fresh_dir("foreign");
    let mut store = SequenceStore::open(&dir, StoreConfig::default()).unwrap();
    store.append(CustomerId(1), seq("(a)")).unwrap();
    fs::write(dir.join("README.txt"), b"not a segment").unwrap();
    drop(store);
    let store = SequenceStore::open(&dir, StoreConfig::default()).unwrap();
    assert_eq!(store.len(), 1);
}

#[test]
fn renamed_segment_is_refused() {
    let dir = fresh_dir("renamed");
    let cfg = StoreConfig { segment_max_bytes: 64, ..StoreConfig::default() };
    let mut store = SequenceStore::open(&dir, cfg).unwrap();
    ingest(&mut store, &sample_rows());
    drop(store);
    // Swap two segments: ids embedded in headers now disagree with names.
    let a = dir.join(wal::segment_file_name(1));
    let b = dir.join(wal::segment_file_name(2));
    let tmp = dir.join("swap.tmp");
    fs::rename(&a, &tmp).unwrap();
    fs::rename(&b, &a).unwrap();
    fs::rename(&tmp, &b).unwrap();
    assert!(matches!(SequenceStore::open(&dir, cfg), Err(StoreError::SegmentIdMismatch { .. })));
}
