//! Out-of-core differential tests: the heap path (store view → nested
//! database → miner) and the mmap path (the store's data file `store.dscfd`
//! → zero-copy [`disc_core::FlatDb`] → `mine_flat_guarded` → dictionary
//! restore) must agree bit-for-bit on the acked prefix, for every miner,
//! across thread counts and support thresholds — including after further
//! appends make the file stale (it then still represents exactly the
//! compacted prefix, and [`open_fresh`] refuses it). The store cell of the
//! contract matrix checks the mapped path against `BruteForce` on random
//! databases, and a file packed by the earlier format still mines
//! identically.

use disc_algo::{Checkpointable, DiscAll, DynamicDiscAll, ParallelDiscAll};
use disc_core::{
    encode_database_flat_file, open_flat_file, open_fresh, BruteForce, CustomerId,
    FlatFileContents, Item, Itemset, MinSupport, MineGuard, MiningResult, Sequence,
    SequenceDatabase, SequenceStore, SequentialMiner, StoreConfig, StoreError, SyncPolicy, Verify,
};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
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

/// Mines the mapped file with every miner and checks each against the
/// same miner's heap run over `db`.
fn assert_paths_agree(flat_path: &std::path::Path, db: &SequenceDatabase, minsup: MinSupport) {
    let contents = open_flat_file(flat_path, Verify::Full).expect("open the flat file");
    #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
    assert!(contents.is_mapped(), "the file must load zero-copy on this platform");

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
    assert!(flat_path.exists(), "compaction publishes the data file");
    assert_eq!(
        open_fresh(&dir).expect("a fresh store opens").fingerprint,
        store.fingerprint(),
        "fresh data file matches the live store"
    );

    let db = store.view();
    for minsup in [MinSupport::Count(2), MinSupport::Count(3), MinSupport::Fraction(0.5)] {
        assert_paths_agree(&flat_path, &db, minsup);
    }
    drop(store);
    let _ = fs::remove_dir_all(&dir);
}

/// Appends after compaction leave the data file representing exactly the
/// acked prefix at the time of compaction: its mine equals a heap mine of
/// that prefix, not of the live store — and [`open_fresh`] refuses it,
/// naming the records it lacks, before any mining happens.
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
    let stale = (all.len() - prefix_len) as u64;
    assert!(
        matches!(open_fresh(&dir), Err(StoreError::Stale { live_records, .. }) if live_records == stale),
        "the data file must be refused after further appends"
    );

    // The stale file is still internally consistent: opened directly, it
    // mines to exactly the compacted prefix's result.
    assert_paths_agree(&flat_path, &prefix_db, MinSupport::Count(2));

    // Re-compacting refreshes the file to cover the live store again.
    store.compact().expect("recompact");
    assert_eq!(open_fresh(&dir).expect("fresh again").fingerprint, store.fingerprint());
    let live_db: SequenceDatabase = (*store.view()).clone();
    assert_paths_agree(&flat_path, &live_db, MinSupport::Count(2));
    drop(store);
    let _ = fs::remove_dir_all(&dir);
}

/// A `DSCFD1` file packed by the earlier format — no customer-id section,
/// a zero store slot — opens to the same loaded value as today's encoding
/// and mines identically with every miner.
#[test]
fn a_file_packed_by_the_earlier_format_mines_identically() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let text = fs::read_to_string(fixtures.join("packed-v1.txt")).expect("fixture text");
    let db = SequenceDatabase::from_text(&text).expect("fixture parses");
    let path = fixtures.join("packed-v1.dscfd");
    assert_ne!(
        fs::read(&path).expect("fixture file"),
        encode_database_flat_file(&db),
        "the fixture must predate the customer-id section"
    );
    let now = FlatFileContents::from_database(&db);
    for verify in [Verify::Full, Verify::HeaderOnly] {
        let old = open_flat_file(&path, verify).expect("an old file opens");
        assert_eq!(old.flat.columns(), now.flat.columns());
        assert_eq!((&old.mapping, old.fingerprint), (&now.mapping, now.fingerprint));
    }
    for minsup in [MinSupport::Count(2), MinSupport::Count(3)] {
        assert_paths_agree(&path, &db, minsup);
    }
}

fn arb_itemset() -> impl Strategy<Value = Itemset> {
    prop::collection::btree_set(prop_oneof![0u32..4, Just(1_000), Just(70_000)], 1..=3)
        .prop_map(|s| Itemset::new(s.into_iter().map(Item)).expect("non-empty"))
}

/// Up to eight rows with gapped customer ids and a sparse alphabet, so the
/// data file's dictionary and id section both do work.
fn arb_db() -> impl Strategy<Value = SequenceDatabase> {
    let seq = prop::collection::vec(arb_itemset(), 1..=4).prop_map(Sequence::new);
    prop::collection::vec(seq, 1..=8).prop_map(|seqs| {
        SequenceDatabase::from_rows(
            seqs.into_iter().enumerate().map(|(i, s)| (CustomerId(i as u64 * 3 + 1), s)),
        )
    })
}

fn append(store: &mut SequenceStore, db: &SequenceDatabase) {
    for row in db.rows() {
        store.append(row.cid, row.sequence.clone()).expect("append");
    }
}

/// Mines the store's fresh data file with each DISC miner and checks each
/// against `BruteForce` on `db`.
fn fresh_store_mines(
    dir: &Path,
    db: &SequenceDatabase,
    minsup: MinSupport,
) -> Result<(), TestCaseError> {
    let expected = BruteForce::default().mine(db, minsup);
    let fresh = open_fresh(dir).map_err(|e| TestCaseError::fail(format!("open_fresh: {e}")))?;
    let runs = [
        ("disc-all", fresh.restore(DiscAll::default().mine_flat(&fresh.flat, minsup))),
        ("dynamic", mine_mapped(DynamicDiscAll::default(), &fresh, minsup)),
        ("parallel x2", mine_mapped(ParallelDiscAll::with_threads(2), &fresh, minsup)),
    ];
    for (name, got) in runs {
        let diff = got.diff(&expected);
        prop_assert!(
            diff.is_empty(),
            "{} @ {:?}:\n{}\ndb:\n{}",
            name,
            minsup,
            diff.join("\n"),
            db.to_text()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The store cell of the contract: append a prefix, compact, reopen and
    /// append the rest. While the data file is fresh, every DISC miner on
    /// its mapping equals `BruteForce`; after the later appends it is
    /// refused, naming them; after a recompaction it mines the whole
    /// database.
    #[test]
    fn a_fresh_store_mines_what_brute_force_finds(
        db in arb_db(),
        split in 0usize..=8,
        delta in 1u64..=4,
    ) {
        let k = split.min(db.len());
        let prefix = SequenceDatabase::from_rows(db.rows()[..k].iter().map(|r| (r.cid, r.sequence.clone())));
        let rest = SequenceDatabase::from_rows(db.rows()[k..].iter().map(|r| (r.cid, r.sequence.clone())));
        let minsup = MinSupport::Count(delta);
        let dir = fresh_dir("contract");
        let cfg = StoreConfig { sync: SyncPolicy::Never, ..StoreConfig::default() };

        let mut store = SequenceStore::open(&dir, cfg).expect("open");
        append(&mut store, &prefix);
        store.compact().expect("compact");
        store.close().expect("close");
        let mut store = SequenceStore::open(&dir, cfg).expect("reopen");
        fresh_store_mines(&dir, &prefix, minsup)?;

        append(&mut store, &rest);
        if !rest.is_empty() {
            let refused = open_fresh(&dir);
            prop_assert!(
                matches!(refused, Err(StoreError::Stale { live_records, .. }) if live_records == rest.len() as u64),
                "after {} more appends: {:?}", rest.len(), refused.map(|f| f.fingerprint)
            );
        }
        store.compact().expect("recompact");
        fresh_store_mines(&dir, &db, minsup)?;
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }
}
