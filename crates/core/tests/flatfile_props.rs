//! Codec properties of the DSCFD1 flat-file format, through the public API
//! only: arbitrary databases (including sparse item ids that stress the
//! dictionary) round-trip bit-exactly through encode → decode and through
//! encode → write → mmap-open; every proper prefix of a file is refused at
//! both verification levels; and no single-byte corruption can silently
//! change what a `Verify::Full` load yields.

use disc_core::{
    database_fingerprint, decode_flat_file, encode_database_flat_file, open_flat_file,
    write_flat_file, FlatDb, Item, ItemMapping, Itemset, Sequence, SequenceDatabase, Verify,
    FLAT_FILE_MAGIC,
};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_N: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let n = DIR_N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("flatfile-props-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// A random itemset whose ids are spread across a sparse range, so the
/// compact-id dictionary does real work.
fn arb_itemset() -> impl Strategy<Value = Itemset> {
    prop::collection::btree_set(
        prop_oneof![0u32..8, 1_000u32..1_008, 900_000_000u32..900_000_016],
        1..=4,
    )
    .prop_map(|s| Itemset::new(s.into_iter().map(Item)).expect("non-empty"))
}

fn arb_sequence() -> impl Strategy<Value = Sequence> {
    prop::collection::vec(arb_itemset(), 1..=5).prop_map(Sequence::new)
}

fn arb_database() -> impl Strategy<Value = SequenceDatabase> {
    prop::collection::vec(arb_sequence(), 0..10).prop_map(|seqs| {
        let mut db = SequenceDatabase::new();
        for (i, s) in seqs.into_iter().enumerate() {
            db.push(disc_core::CustomerId(i as u64), s);
        }
        db
    })
}

/// Asserts that decoded contents are exactly the encoder's view of `db`.
fn assert_matches_database(contents: &disc_core::FlatFileContents, db: &SequenceDatabase) {
    assert_eq!(contents.fingerprint, database_fingerprint(db));
    let mapping = ItemMapping::analyze(db);
    assert_eq!(contents.mapping, mapping);
    let expect = FlatDb::from_database(&mapping.remap_database(db));
    assert_eq!(contents.flat.columns(), expect.columns());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// encode → decode and encode → write → mmap-open both reproduce the
    /// source database exactly, at both verification levels.
    #[test]
    fn arbitrary_databases_roundtrip(db in arb_database()) {
        let bytes = encode_database_flat_file(&db);
        prop_assert_eq!(&bytes[..FLAT_FILE_MAGIC.len()], FLAT_FILE_MAGIC);
        for verify in [Verify::Full, Verify::HeaderOnly] {
            let contents = decode_flat_file(Path::new("prop.dscfd"), bytes.clone(), verify)
                .map_err(|e| TestCaseError::fail(format!("decode ({verify:?}): {e}")))?;
            assert_matches_database(&contents, &db);
        }

        let dir = fresh_dir("roundtrip");
        let path = dir.join("db.dscfd");
        write_flat_file(&path, &bytes)
            .map_err(|e| TestCaseError::fail(format!("write: {e}")))?;
        let opened = open_flat_file(&path, Verify::Full)
            .map_err(|e| TestCaseError::fail(format!("open: {e}")))?;
        assert_matches_database(&opened, &db);
        drop(opened);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every proper prefix of a valid file — the on-disk image of a crash or
    /// short copy at that point — is refused at both verification levels.
    /// Sampled cuts cover the interesting strata: inside the header, at the
    /// page-aligned section boundaries, and one byte short of complete.
    #[test]
    fn truncation_is_rejected_at_every_boundary(
        db in arb_database(),
        header_cut in 0usize..160,
        random_permille in 0u32..1000,
    ) {
        let bytes = encode_database_flat_file(&db);
        let path = Path::new("trunc.dscfd");
        let mut cuts: Vec<usize> = vec![header_cut, bytes.len() - 1];
        cuts.push((bytes.len() - 1) * random_permille as usize / 1000);
        // Section payloads start on 4096-byte pages: cut exactly at, just
        // before, and just after each page edge inside the file.
        let mut page = 4096;
        while page < bytes.len() {
            cuts.extend([page - 1, page, page + 1]);
            page += 4096;
        }
        for cut in cuts {
            let cut = cut.min(bytes.len() - 1);
            for verify in [Verify::Full, Verify::HeaderOnly] {
                let err = decode_flat_file(path, bytes[..cut].to_vec(), verify);
                prop_assert!(err.is_err(), "prefix of {cut}/{} accepted ({verify:?})", bytes.len());
            }
        }
        decode_flat_file(path, bytes, Verify::Full)
            .map_err(|e| TestCaseError::fail(format!("whole file: {e}")))?;
    }

    /// Flipping any single byte can never silently change what a
    /// `Verify::Full` load yields: either the CRCs refuse the file, or the
    /// flip landed in inter-section padding and the decode is bit-identical
    /// to the uncorrupted one.
    #[test]
    fn single_byte_corruption_never_silently_changes_a_full_load(
        db in arb_database(),
        pos_permille in 0u32..1000,
        bit in 0u8..8,
    ) {
        let bytes = encode_database_flat_file(&db);
        let path = Path::new("flip.dscfd");
        let clean = decode_flat_file(path, bytes.clone(), Verify::Full)
            .map_err(|e| TestCaseError::fail(format!("clean decode: {e}")))?;
        let pos = (bytes.len() - 1) * pos_permille as usize / 1000;
        let mut copy = bytes;
        copy[pos] ^= 1 << bit;
        match decode_flat_file(path, copy, Verify::Full) {
            Err(_) => {} // detected — the common case
            Ok(contents) => {
                prop_assert_eq!(contents.fingerprint, clean.fingerprint);
                prop_assert_eq!(contents.mapping, clean.mapping);
                prop_assert_eq!(contents.flat.columns(), clean.flat.columns());
            }
        }
    }
}
