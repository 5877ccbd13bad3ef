//! The out-of-core benchmark: the workload pair behind the committed
//! `BENCH_mmap.json` and CI's `out-of-core-smoke` job.
//!
//! Two claims, measured per workload:
//!
//! 1. **Bounded memory.** Mining a memory-mapped `DSCFD1` flat file must
//!    allocate less than half the file's size on the heap — i.e. a
//!    database whose flat file is ≥ 2× a memory ceiling mines to
//!    completion under that ceiling, bit-identical to the in-memory run.
//!    The ceiling here is `file_bytes / 2` and the check is on the
//!    tracking allocator's *growth* during the run (mapped file pages are
//!    the kernel's to cache and evict; the run's own footprint is what
//!    out-of-core boundedness means). The run panics if the ceiling or
//!    bit-identity is violated — this benchmark doubles as the
//!    acceptance test.
//!
//! 2. **Time to first pattern.** Once a miner holds flat columns, the
//!    work to its first pattern is *identical* whether the columns are
//!    heap-owned or mapped — so the time-to-first-pattern gap between
//!    the two pipelines is exactly the load-to-mining-ready gap, and
//!    that is what the probe times: header-only verified `open` of the
//!    mapping versus the heap pipeline (read + `DSCDB1` varint decode +
//!    arena build). A trivial-threshold mine runs *outside* the timer
//!    on both sides to prove each loaded state really produces the same
//!    first patterns. The ratio is recorded; the committed
//!    medium-workload baseline shows ≥ 10×.
//!
//! Workloads mirror `flatbench`: `smoke` (CI-sized) and `medium` (the
//! headline numbers). Reports land in `target/experiments/bench_mmap.json`;
//! the committed copy is `BENCH_mmap.json` at the repo root.

use crate::flatbench::{best_of, SEED};
use crate::report::{persist, ToJson};
use crate::runner::{assert_agreement, deadline, peak_rss_bytes, reset_peak_rss, Measurement};
use crate::workloads::WorkloadCache;
use disc_algo::{Checkpointable, DiscAll};
use disc_core::{
    decode_database, encode_database, encode_database_flat_file, open_flat_file, write_flat_file,
    CancelToken, FlatDb, MinSupport, MineGuard, MiningResult, ResourceBudget, Verify,
};
use disc_datagen::QuestConfig;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Minimum support for the bounded-memory runs. Higher than `flatbench`'s
/// headline threshold on purpose: out-of-core boundedness is a claim about
/// database size versus mining state, so the pattern explosion of very low
/// thresholds would only obscure it.
pub const MINSUP: f64 = 0.5;

/// Threshold for the untimed identity mine of the time-to-first-pattern
/// probes; the timer stops at mining-ready, so this only needs to yield a
/// non-empty pattern set on both loaded states.
pub const TTFP_MINSUP: f64 = MINSUP;

/// One out-of-core workload.
#[derive(Debug, Clone, Copy)]
pub struct MmapWorkload {
    /// Stable name used in the JSON report.
    pub name: &'static str,
    /// Customer count for the Figure 9 generator.
    pub ncust: usize,
}

/// The workload grid. `smoke` must stay cheap — CI runs it on every push.
pub fn workloads() -> [MmapWorkload; 2] {
    [MmapWorkload { name: "smoke", ncust: 2_000 }, MmapWorkload { name: "medium", ncust: 5_000 }]
}

/// The generator configuration: Figure 9's dense rows (8 transactions × 8
/// items), but drawn from a pool of only 50 candidate patterns so the
/// embedded sequences recur often enough to stay frequent — and deep — at
/// [`MINSUP`]. Out-of-core mining is about big inputs, not big outputs, so
/// the workload is tuned for long rows and a result set that stays small
/// next to the file.
pub fn workload_config(w: MmapWorkload) -> QuestConfig {
    QuestConfig::paper_fig9().with_ncust(w.ncust).with_pools(50, 500).with_seed(SEED)
}

/// Results for one workload.
#[derive(Debug, Clone)]
pub struct MmapRun {
    /// The workload this run measured.
    pub workload: MmapWorkload,
    /// Size of the `DSCFD1` flat file on disk.
    pub file_bytes: u64,
    /// The memory ceiling the mapped run must stay under: `file_bytes / 2`.
    pub ceiling_bytes: u64,
    /// Best-of-repeats measurement mining the memory-mapped file
    /// (`peak_alloc_bytes` is the ceiling-checked number).
    pub mapped: Measurement,
    /// Best-of-repeats measurement of the in-memory reference run.
    pub heap: Measurement,
    /// Seconds from flat file on disk to mining-ready columns
    /// (header-only verified memory mapping). The mine that follows is
    /// byte-for-byte the same as the heap path's, so this difference is
    /// the time-to-first-pattern difference.
    pub ttfp_mmap_seconds: f64,
    /// Seconds from `DSCDB1` file on disk to mining-ready columns (read,
    /// varint decode, arena build).
    pub ttfp_heap_seconds: f64,
}

impl MmapRun {
    /// Heap-load / mmap-load time-to-first-pattern ratio (bigger is
    /// better for the mapped path).
    pub fn ttfp_ratio(&self) -> f64 {
        self.ttfp_heap_seconds / self.ttfp_mmap_seconds.max(1e-9)
    }
}

impl ToJson for MmapRun {
    fn to_json(&self) -> String {
        format!(
            "{{\"name\":{},\"ncust\":{},\"minsup\":{},\"file_bytes\":{},\"ceiling_bytes\":{},\
             \"mapped\":{},\"heap\":{},\"ttfp_mmap_seconds\":{},\"ttfp_heap_seconds\":{},\
             \"ttfp_ratio\":{}}}",
            self.workload.name.to_string().to_json(),
            self.workload.ncust.to_json(),
            MINSUP.to_json(),
            (self.file_bytes as usize).to_json(),
            (self.ceiling_bytes as usize).to_json(),
            self.mapped.to_json(),
            self.heap.to_json(),
            self.ttfp_mmap_seconds.to_json(),
            self.ttfp_heap_seconds.to_json(),
            self.ttfp_ratio().to_json()
        )
    }
}

/// Times one guarded flat mine under the bench deadline, reporting the
/// run's own heap growth (and RSS watermark) like [`crate::runner::measure`].
fn measure_flat<F: FnOnce() -> MiningResult>(
    miner_name: &str,
    rows: usize,
    param: f64,
    run: F,
) -> (Measurement, MiningResult) {
    crate::alloc_track::reset_peak();
    reset_peak_rss();
    let live_at_start = crate::alloc_track::live_bytes();
    let start = Instant::now();
    let result = run();
    let seconds = start.elapsed().as_secs_f64();
    let peak_alloc_bytes = crate::alloc_track::peak_bytes().saturating_sub(live_at_start);
    (
        Measurement {
            miner: miner_name.to_string(),
            param,
            seconds,
            patterns: result.len(),
            max_length: result.max_length(),
            threads: 1,
            rows_per_sec: rows as f64 / seconds.max(1e-9),
            peak_alloc_bytes,
            peak_rss_bytes: peak_rss_bytes(),
        },
        result,
    )
}

/// Mines a flat database under the bench deadline, panicking on abort.
fn mine_flat_deadline(flat: &FlatDb, minsup: MinSupport) -> MiningResult {
    let guard =
        MineGuard::new(CancelToken::new(), ResourceBudget::unlimited().with_deadline(deadline()));
    let run = DiscAll::default().mine_flat_guarded(flat, minsup, &guard);
    assert!(run.outcome.is_complete(), "flat mine aborted: {:?}", run.outcome);
    run.result
}

/// Runs one workload end to end and enforces both acceptance claims.
fn run_workload(cache: &WorkloadCache, dir: &Path, w: MmapWorkload) -> MmapRun {
    let db = cache.get(&workload_config(w));
    let minsup = MinSupport::Fraction(MINSUP);

    // Materialize both on-disk forms.
    let dscdb_path = dir.join(format!("{}.dscdb", w.name));
    std::fs::write(&dscdb_path, encode_database(&db)).expect("write dscdb");
    let flat_path = dir.join(format!("{}.dscfd", w.name));
    let file_bytes =
        write_flat_file(&flat_path, &encode_database_flat_file(&db)).expect("write flat file");
    let ceiling_bytes = file_bytes / 2;

    // In-memory reference: the ordinary heap pipeline.
    let mut reference = None;
    let heap = best_of(|| {
        let flat = FlatDb::from_database(&db);
        let (m, result) = measure_flat("DISC-all (heap)", db.len(), w.ncust as f64, || {
            mine_flat_deadline(&flat, minsup)
        });
        reference = Some(result);
        m
    });
    let reference = reference.expect("at least one heap run");

    // Bounded out-of-core run: open the mapping inside the measured
    // region, so the decode path's allocations count against the ceiling.
    let mut mapped_result = None;
    let mapped = best_of(|| {
        let (m, result) = measure_flat("DISC-all (mmap)", db.len(), w.ncust as f64, || {
            let contents = open_flat_file(&flat_path, Verify::Full).expect("open flat file");
            assert!(
                contents.is_mapped(),
                "flat columns fell back to the heap; the out-of-core claim is void"
            );
            let compact = mine_flat_deadline(&contents.flat, minsup);
            contents.mapping.restore_result(&compact)
        });
        mapped_result = Some(result);
        m
    });
    assert_agreement("mmap-mined patterns", &mapped_result.expect("mapped run"), &reference);
    assert!(
        (mapped.peak_alloc_bytes as u64) <= ceiling_bytes,
        "{}: mapped mine allocated {} bytes, over the {}-byte ceiling (file {} bytes)",
        w.name,
        mapped.peak_alloc_bytes,
        ceiling_bytes,
        file_bytes,
    );

    // Time to first pattern: time each pipeline to mining-ready columns,
    // then (untimed) run the same trivial-threshold mine on both loaded
    // states to prove they produce identical first patterns.
    let ttfp_minsup = MinSupport::Fraction(TTFP_MINSUP);
    let mut ttfp_heap = f64::INFINITY;
    let mut ttfp_mmap = f64::INFINITY;
    let mut heap_first = MiningResult::new();
    let mut mmap_first = MiningResult::new();
    for _ in 0..crate::flatbench::REPEATS {
        let start = Instant::now();
        let bytes = std::fs::read(&dscdb_path).expect("read dscdb");
        let decoded = decode_database(&bytes).expect("decode dscdb");
        let flat = FlatDb::from_database(&decoded);
        ttfp_heap = ttfp_heap.min(start.elapsed().as_secs_f64());
        heap_first = mine_flat_deadline(&flat, ttfp_minsup);

        let start = Instant::now();
        let contents = open_flat_file(&flat_path, Verify::HeaderOnly).expect("open flat file");
        ttfp_mmap = ttfp_mmap.min(start.elapsed().as_secs_f64());
        let compact = mine_flat_deadline(&contents.flat, ttfp_minsup);
        mmap_first = contents.mapping.restore_result(&compact);
    }
    assert!(!heap_first.is_empty(), "ttfp probe found no pattern; lower TTFP_MINSUP");
    assert_agreement("ttfp probes", &mmap_first, &heap_first);

    let run = MmapRun {
        workload: w,
        file_bytes,
        ceiling_bytes,
        mapped,
        heap,
        ttfp_mmap_seconds: ttfp_mmap,
        ttfp_heap_seconds: ttfp_heap,
    };
    eprintln!(
        "    {:<8} file {:>6.1} MiB  ceiling {:>6.1} MiB  mapped peak {:>6.1} MiB  \
         ttfp {:>8.3} ms vs {:>8.3} ms heap ({:.1}x)",
        w.name,
        file_bytes as f64 / (1 << 20) as f64,
        ceiling_bytes as f64 / (1 << 20) as f64,
        run.mapped.peak_alloc_bytes as f64 / (1 << 20) as f64,
        ttfp_mmap * 1e3,
        ttfp_heap * 1e3,
        run.ttfp_ratio(),
    );
    run
}

/// Runs the out-of-core benchmark (smoke only, or both workloads),
/// persists `target/experiments/bench_mmap.json`, and returns the runs.
pub fn run(smoke_only: bool) -> Vec<MmapRun> {
    println!("## Out-of-core benchmark (Figure 9 rows, minsup {MINSUP})\n");
    let dir = PathBuf::from("target/experiments/mmapbench");
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let cache = WorkloadCache::new();
    let runs: Vec<MmapRun> = workloads()
        .into_iter()
        .filter(|w| !smoke_only || w.name == "smoke")
        .map(|w| run_workload(&cache, &dir, w))
        .collect();
    println!(
        "| workload | file MiB | ceiling MiB | mapped peak MiB | mapped (s) | heap (s) | ttfp ratio |"
    );
    println!("|---|---|---|---|---|---|---|");
    for r in &runs {
        println!(
            "| {} | {:.1} | {:.1} | {:.1} | {:.3} | {:.3} | {:.1}x |",
            r.workload.name,
            r.file_bytes as f64 / (1 << 20) as f64,
            r.ceiling_bytes as f64 / (1 << 20) as f64,
            r.mapped.peak_alloc_bytes as f64 / (1 << 20) as f64,
            r.mapped.seconds,
            r.heap.seconds,
            r.ttfp_ratio(),
        );
    }
    println!();
    let _ = persist("bench_mmap", &runs);
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flatbench::extract_baseline;

    #[test]
    fn workload_grid_is_stable() {
        let ws = workloads();
        assert_eq!(ws[0].name, "smoke");
        assert_eq!(ws[1].name, "medium");
        assert!(ws[0].ncust < ws[1].ncust);
    }

    #[test]
    fn mmap_run_json_roundtrips_through_extractor() {
        let run = MmapRun {
            workload: workloads()[0],
            file_bytes: 4096,
            ceiling_bytes: 2048,
            mapped: Measurement {
                miner: "DISC-all (mmap)".into(),
                param: 1000.0,
                seconds: 0.5,
                patterns: 9,
                max_length: 3,
                threads: 1,
                rows_per_sec: 2000.0,
                peak_alloc_bytes: 1024,
                peak_rss_bytes: 0,
            },
            heap: Measurement {
                miner: "DISC-all (heap)".into(),
                param: 1000.0,
                seconds: 0.4,
                patterns: 9,
                max_length: 3,
                threads: 1,
                rows_per_sec: 2500.0,
                peak_alloc_bytes: 8192,
                peak_rss_bytes: 0,
            },
            ttfp_mmap_seconds: 0.001,
            ttfp_heap_seconds: 0.02,
        };
        let json = vec![run].to_json();
        assert_eq!(extract_baseline(&json, "smoke", "file_bytes"), Some(4096.0));
        assert_eq!(extract_baseline(&json, "smoke", "ceiling_bytes"), Some(2048.0));
        assert_eq!(extract_baseline(&json, "smoke", "ttfp_ratio"), Some(20.0));
    }

    #[test]
    fn ttfp_ratio_guards_zero_division() {
        let mut run = MmapRun {
            workload: workloads()[0],
            file_bytes: 2,
            ceiling_bytes: 1,
            mapped: Measurement {
                miner: "m".into(),
                param: 0.0,
                seconds: 0.0,
                patterns: 0,
                max_length: 0,
                threads: 1,
                rows_per_sec: 0.0,
                peak_alloc_bytes: 0,
                peak_rss_bytes: 0,
            },
            heap: Measurement {
                miner: "h".into(),
                param: 0.0,
                seconds: 0.0,
                patterns: 0,
                max_length: 0,
                threads: 1,
                rows_per_sec: 0.0,
                peak_alloc_bytes: 0,
                peak_rss_bytes: 0,
            },
            ttfp_mmap_seconds: 0.0,
            ttfp_heap_seconds: 1.0,
        };
        assert!(run.ttfp_ratio().is_finite());
        run.ttfp_mmap_seconds = 0.5;
        assert_eq!(run.ttfp_ratio(), 2.0);
    }
}
