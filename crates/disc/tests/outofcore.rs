//! Out-of-core differential tests: the heap path (store view → nested
//! database → miner) and the mmap path (store's `store.dscfd` mirror →
//! zero-copy [`FlatDb`] → `mine_flat_guarded` → dictionary restore) must agree
//! bit-for-bit on the acked prefix, for every miner, across thread counts
//! and support thresholds — including after further appends make the mirror
//! stale (it then still represents exactly the compacted prefix, and the
//! fingerprint mismatch is detectable).

use disc_algo::{Checkpointable, DiscAll, DynamicDiscAll, ParallelDiscAll};
use disc_core::{
    open_flat_file, peek_flat_file_fingerprint, CustomerId, FlatFileContents, MinSupport,
    MineGuard, MiningResult, SequenceDatabase, SequenceStore, SequentialMiner, StoreConfig, Verify,
};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_N: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let n = DIR_N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("outofcore-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Table 6 of the paper plus a few extra rows, as store ingests.
fn rows() -> Vec<&'static str> {
    vec![
        "(a,d)(d)(a,g,h)(c)",
        "(b)(a)(f)(a,c,e,g)",
        "(a,f,g)(a,e,g,h)(c,g,h)",
        "(f)(a,c,f)(a,c,e,g,h)",
        "(a,g)",
        "(a,f)(a,e,g,h)",
        "(a,b,g)(a,e,g)(g,h)",
        "(b)(d,f)(e)",
        "(b,f,g)",
        "(f)(a,g)(b,f,h)(b,f)",
    ]
}

/// Mines the loaded columns through `miner`'s flat entry, in original ids.
fn mine_mapped<M: Checkpointable>(
    miner: M,
    contents: &FlatFileContents,
    minsup: MinSupport,
) -> MiningResult {
    let run = miner.mine_flat_guarded(&contents.flat, minsup, &MineGuard::unlimited());
    contents.restore(run.into_complete())
}

/// Mines the mapped mirror with every miner and checks each against the
/// same miner's heap run over `db`.
fn assert_paths_agree(flat_path: &std::path::Path, db: &SequenceDatabase, minsup: MinSupport) {
    let contents = open_flat_file(flat_path, Verify::Full).expect("open mirror");
    #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
    assert!(contents.is_mapped(), "mirror must load zero-copy on this platform");

    let runs: Vec<(&str, MiningResult, MiningResult)> = vec![
        (
            "disc-all",
            DiscAll::default().mine(db, minsup),
            contents.mapping.restore_result(&DiscAll::default().mine_flat(&contents.flat, minsup)),
        ),
        (
            "dynamic",
            DynamicDiscAll::default().mine(db, minsup),
            mine_mapped(DynamicDiscAll::default(), &contents, minsup),
        ),
        (
            "parallel x2",
            ParallelDiscAll::with_threads(2).mine(db, minsup),
            mine_mapped(ParallelDiscAll::with_threads(2), &contents, minsup),
        ),
        (
            "parallel x4",
            ParallelDiscAll::with_threads(4).mine(db, minsup),
            mine_mapped(ParallelDiscAll::with_threads(4), &contents, minsup),
        ),
    ];
    for (name, heap, mapped) in &runs {
        let diff = mapped.diff(heap);
        assert!(
            diff.is_empty(),
            "{name} @ {minsup:?}: mapped result diverges from heap ({} lines):\n{}",
            diff.len(),
            diff.join("\n")
        );
        assert!(!heap.is_empty(), "{name} @ {minsup:?}: degenerate test, no patterns");
    }
}

/// Ingest → compact → mine both paths: bit-identical at several thresholds.
#[test]
fn mapped_mirror_mines_identically_to_the_heap_path() {
    let dir = fresh_dir("agree");
    let mut store = SequenceStore::open(&dir, StoreConfig::default()).expect("open");
    for (i, text) in rows().iter().enumerate() {
        store.append(CustomerId(i as u64), disc_core::parse_sequence(text).unwrap()).unwrap();
    }
    store.compact().expect("compact");
    let flat_path = store.flat_file_path();
    assert!(flat_path.exists(), "compaction publishes the mirror");
    assert_eq!(
        peek_flat_file_fingerprint(&flat_path).unwrap(),
        store.fingerprint(),
        "fresh mirror matches the live store"
    );

    let db = store.view();
    for minsup in [MinSupport::Count(2), MinSupport::Count(3), MinSupport::Fraction(0.5)] {
        assert_paths_agree(&flat_path, &db, minsup);
    }
    drop(store);
    let _ = fs::remove_dir_all(&dir);
}

/// Appends after compaction leave the mirror representing exactly the acked
/// prefix at the time of compaction: its mine equals a heap mine of that
/// prefix, not of the live store — and the staleness is detectable by
/// fingerprint before any mining happens.
#[test]
fn stale_mirror_still_mines_the_exact_compacted_prefix() {
    let dir = fresh_dir("stale");
    let all = rows();
    let prefix_len = 6;
    let mut store = SequenceStore::open(&dir, StoreConfig::default()).expect("open");
    for (i, text) in all[..prefix_len].iter().enumerate() {
        store.append(CustomerId(i as u64), disc_core::parse_sequence(text).unwrap()).unwrap();
    }
    store.compact().expect("compact");
    let prefix_db: SequenceDatabase = (*store.view()).clone();

    for (i, text) in all[prefix_len..].iter().enumerate() {
        let cid = CustomerId((prefix_len + i) as u64);
        store.append(cid, disc_core::parse_sequence(text).unwrap()).unwrap();
    }
    let flat_path = store.flat_file_path();
    assert_ne!(
        peek_flat_file_fingerprint(&flat_path).unwrap(),
        store.fingerprint(),
        "mirror must be detectably stale after further appends"
    );

    // The stale mirror is still internally consistent: it mines to exactly
    // the compacted prefix's result.
    assert_paths_agree(&flat_path, &prefix_db, MinSupport::Count(2));

    // Re-compacting refreshes the mirror to cover the live store again.
    store.compact().expect("recompact");
    assert_eq!(peek_flat_file_fingerprint(&flat_path).unwrap(), store.fingerprint());
    let live_db: SequenceDatabase = (*store.view()).clone();
    assert_paths_agree(&flat_path, &live_db, MinSupport::Count(2));
    drop(store);
    let _ = fs::remove_dir_all(&dir);
}
