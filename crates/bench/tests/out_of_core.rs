//! The out-of-core contract, measured with the crate's tracking allocator:
//! mining a memory-mapped `DSCFD1` file keeps its columns off the heap.
//!
//! Two bounds, each within [`SLACK`] bytes, on Figure 9 rows drawn from a
//! pool of 50 patterns (long rows, a small result) at 2 000 and 5 000
//! customers:
//!
//! * **open** — `open_flat_file` grows the heap by a constant, not by
//!   anything proportional to the file;
//! * **open + mine** — opening the file and mining the mapped columns grows
//!   the heap by no more than mining the same database's columns already
//!   loaded on the heap. DISC's own working memory (partitions, k-sorted
//!   trees, the result) is the same on both sides; a copy of the columns
//!   onto the heap would show here as roughly the file's size.
//!
//! The mapped result must also be pattern-identical to the heap result and
//! non-empty, so neither bound holds vacuously.

use disc_algo::DiscAll;
use disc_bench::alloc_track;
use disc_core::{
    encode_database_flat_file, open_flat_file, write_flat_file, FlatDb, MinSupport, Verify,
};
use disc_datagen::QuestConfig;

/// High on purpose: out-of-core boundedness is about database size versus
/// mining state, and a low threshold's pattern explosion would bury it.
const MINSUP: MinSupport = MinSupport::Fraction(0.5);

/// Allowance for fixed-size bookkeeping (the dictionary, file handles,
/// small vectors) that does not grow with the file.
const SLACK: usize = 64 << 10;

/// The run's heap growth: the allocator's high-water mark during `f` minus
/// live bytes at its start.
fn heap_growth<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let _measuring = alloc_track::measuring();
    alloc_track::reset_peak();
    let live_at_start = alloc_track::live_bytes();
    let out = f();
    (alloc_track::peak_bytes().saturating_sub(live_at_start), out)
}

/// One test for both sizes: the allocator's counters are process-wide, so
/// a concurrent test's allocations would count against these bounds.
#[test]
fn mapped_mining_keeps_the_columns_off_the_heap() {
    for ncust in [2_000, 5_000] {
        let db = QuestConfig::paper_fig9()
            .with_ncust(ncust)
            .with_pools(50, 500)
            .with_seed(20040330)
            .generate();
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("out-of-core-{ncust}.dscfd"));
        let file_bytes =
            write_flat_file(&path, &encode_database_flat_file(&db)).expect("write flat file");

        let heap_flat = FlatDb::from_database(&db);
        let (heap_mine, reference) =
            heap_growth(|| DiscAll::default().mine_flat(&heap_flat, MINSUP));
        drop(heap_flat);

        let (open, contents) =
            heap_growth(|| open_flat_file(&path, Verify::Full).expect("open flat file"));
        drop(contents);
        let (mapped, (contents, compact)) = heap_growth(|| {
            let contents = open_flat_file(&path, Verify::Full).expect("open flat file");
            let compact = DiscAll::default().mine_flat(&contents.flat, MINSUP);
            (contents, compact)
        });
        eprintln!(
            "{ncust} customers: file {file_bytes} B, open {open} B, open + mapped mine \
             {mapped} B, heap mine {heap_mine} B"
        );

        assert!(
            open <= SLACK,
            "{ncust}: opening a {file_bytes}-byte flat file grew the heap by {open} bytes"
        );
        assert!(
            mapped <= heap_mine + SLACK,
            "{ncust}: open + mapped mine grew the heap by {mapped} bytes, against {heap_mine} \
             for the heap mine (file {file_bytes} bytes)"
        );
        assert!(contents.is_mapped(), "{ncust}: the flat columns fell back to the heap");
        assert!(!reference.is_empty(), "{ncust}: an empty result would make the bounds vacuous");
        let diff = contents.mapping.restore_result(&compact).diff(&reference);
        assert!(diff.is_empty(), "{ncust}: mapped and heap mines differ:\n{}", diff.join("\n"));
        let _ = std::fs::remove_file(&path);
    }
}
