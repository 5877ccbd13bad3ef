//! Durability properties of the store, through its public API only:
//! truncating the WAL at **every** byte offset — the on-disk image of a
//! crash at that exact point — never loses a record whose frame survived
//! and never resurrects a record whose frame did not fully reach the file;
//! and arbitrary ingests round-trip through a clean close and recovery
//! under every sync policy and segment size.

use disc_core::{
    fsck, CustomerId, Item, Itemset, Sequence, SequenceDatabase, SequenceStore, StoreConfig,
    SyncPolicy,
};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_N: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let n = DIR_N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("store-props-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The single WAL segment file inside `dir`.
fn only_segment(dir: &std::path::Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir)
        .expect("store directory exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "dscwl"))
        .collect();
    assert_eq!(segs.len(), 1, "expected exactly one segment in {}", dir.display());
    segs.pop().expect("one segment")
}

fn rows() -> Vec<(CustomerId, Sequence)> {
    [
        "(a,e,g)(b)(h)(f)(c)(b,f)",
        "(b)(d,f)(e)",
        "(b,f,g)",
        "(f)(a,g)(b,f,h)(b,f)",
        "(c)(c)(c)",
        "(a)",
    ]
    .iter()
    .enumerate()
    .map(|(i, text)| (CustomerId(i as u64), disc_core::parse_sequence(text).unwrap()))
    .collect()
}

/// Ingest with `SyncPolicy::Always`, capturing the segment length after
/// each acknowledged append; then truncate a copy of the segment at every
/// byte offset and recover. The recovered database must be exactly the
/// acknowledged records whose frames are fully inside the truncated file —
/// frames at or past the cut must never partially surface.
#[test]
fn truncation_at_every_byte_offset_recovers_the_exact_surviving_prefix() {
    let rows = rows();
    let src = fresh_dir("src");
    let mut store = SequenceStore::open(&src, StoreConfig::default()).expect("open");
    let mut acked_len: Vec<u64> = Vec::new();
    for (cid, seq) in &rows {
        store.append(*cid, seq.clone()).expect("append");
        acked_len.push(fs::metadata(only_segment(&src)).expect("segment").len());
    }
    let seg_path = only_segment(&src);
    let seg_name = seg_path.file_name().expect("name").to_owned();
    let bytes = fs::read(&seg_path).expect("read segment");
    assert_eq!(bytes.len() as u64, *acked_len.last().expect("appends"));

    for cut in 0..=bytes.len() {
        let dir = fresh_dir("cut");
        fs::create_dir_all(&dir).expect("mkdir");
        fs::write(dir.join(&seg_name), &bytes[..cut]).expect("write truncation");

        let report = fsck(&dir).expect("fsck reads the truncated store");
        assert!(report.is_recoverable(), "cut {cut}: a pure truncation is a crash image\n{report}");

        let store = SequenceStore::open(&dir, StoreConfig::default())
            .unwrap_or_else(|e| panic!("cut {cut}: recovery failed: {e}"));
        let expect = acked_len.iter().filter(|&&l| l <= cut as u64).count();
        assert_eq!(report.acked_records, expect as u64, "cut {cut}");
        let got = store.view();
        assert_eq!(got.len(), expect, "cut {cut}: recovered row count");
        for (row, (cid, seq)) in got.rows().iter().zip(&rows) {
            assert_eq!((row.cid, &row.sequence), (*cid, seq), "cut {cut}");
        }
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&src);
}

/// A random itemset over a small alphabet.
fn arb_itemset(max_item: u32) -> impl Strategy<Value = Itemset> {
    prop::collection::btree_set(0..max_item, 1..=3)
        .prop_map(|s| Itemset::new(s.into_iter().map(Item)).expect("non-empty"))
}

/// A random sequence of 1..=4 transactions.
fn arb_sequence(max_item: u32) -> impl Strategy<Value = Sequence> {
    prop::collection::vec(arb_itemset(max_item), 1..=4).prop_map(Sequence::new)
}

fn arb_sync() -> impl Strategy<Value = SyncPolicy> {
    (0u8..4).prop_map(|n| match n {
        0 => SyncPolicy::Always,
        1 => SyncPolicy::EveryN(2),
        2 => SyncPolicy::EveryN(7),
        _ => SyncPolicy::Never,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary records, segment sizes (forcing rotation mid-ingest), and
    /// sync policies: a clean close makes everything durable, recovery
    /// restores it exactly, and fsck calls the result clean.
    #[test]
    fn arbitrary_ingests_roundtrip_through_close_and_recovery(
        seqs in prop::collection::vec(arb_sequence(10), 1..12),
        segment_max_bytes in 64u64..512,
        sync in arb_sync(),
    ) {
        let dir = fresh_dir("roundtrip");
        let cfg = StoreConfig { sync, segment_max_bytes };
        let mut store = SequenceStore::open(&dir, cfg)
            .map_err(|e| TestCaseError::fail(format!("open: {e}")))?;
        let mut expected = SequenceDatabase::new();
        for (i, seq) in seqs.iter().enumerate() {
            let cid = CustomerId(i as u64);
            store.append(cid, seq.clone())
                .map_err(|e| TestCaseError::fail(format!("append {i}: {e}")))?;
            expected.push(cid, seq.clone());
        }
        prop_assert_eq!(&*store.view(), &expected);
        store.close().map_err(|e| TestCaseError::fail(format!("close: {e}")))?;

        let store = SequenceStore::open(&dir, cfg)
            .map_err(|e| TestCaseError::fail(format!("reopen: {e}")))?;
        prop_assert_eq!(&*store.view(), &expected);
        let report = fsck(&dir).map_err(|e| TestCaseError::fail(format!("fsck: {e}")))?;
        prop_assert!(report.is_clean(), "{}", report);
        prop_assert_eq!(report.acked_records, seqs.len() as u64);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Compaction is transparent: fold at an arbitrary point mid-ingest,
    /// keep appending, recover — the database is identical to one that was
    /// never compacted, and the snapshot supersedes exactly the folded
    /// segments.
    #[test]
    fn compaction_at_an_arbitrary_point_is_invisible_to_recovery(
        seqs in prop::collection::vec(arb_sequence(10), 2..12),
        segment_max_bytes in 64u64..256,
        fold_at in 0usize..12,
    ) {
        let dir = fresh_dir("fold");
        let cfg = StoreConfig { segment_max_bytes, ..StoreConfig::default() };
        let mut store = SequenceStore::open(&dir, cfg)
            .map_err(|e| TestCaseError::fail(format!("open: {e}")))?;
        let fold_at = fold_at % seqs.len();
        let mut expected = SequenceDatabase::new();
        for (i, seq) in seqs.iter().enumerate() {
            if i == fold_at {
                store.compact().map_err(|e| TestCaseError::fail(format!("compact: {e}")))?;
            }
            let cid = CustomerId(i as u64);
            store.append(cid, seq.clone())
                .map_err(|e| TestCaseError::fail(format!("append {i}: {e}")))?;
            expected.push(cid, seq.clone());
        }
        store.close().map_err(|e| TestCaseError::fail(format!("close: {e}")))?;

        let store = SequenceStore::open(&dir, cfg)
            .map_err(|e| TestCaseError::fail(format!("reopen: {e}")))?;
        prop_assert_eq!(&*store.view(), &expected);
        prop_assert_eq!(store.recovery_report().snapshot_rows, fold_at);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }
}
