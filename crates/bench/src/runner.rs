//! Timing, measurement and agreement checks for the experiment runner.

use disc_core::{
    CancelToken, DiscError, MinSupport, MineGuard, MiningResult, ResourceBudget, SequenceDatabase,
    SequentialMiner,
};
use std::time::{Duration, Instant};

/// Deadline applied to every benchmark run: generous enough that no intended
/// workload hits it, but a runaway miner fails loudly instead of hanging the
/// whole experiment sweep.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(3600);

/// The deadline for benchmark runs: [`DEFAULT_DEADLINE`] unless the
/// `DISC_BENCH_DEADLINE_SECS` environment variable overrides it. CI's
/// bench-smoke job sets a short override so a hung run fails the job in
/// seconds instead of an hour. Panics on a malformed override.
pub fn deadline() -> Duration {
    match deadline_from(std::env::var("DISC_BENCH_DEADLINE_SECS").ok().as_deref()) {
        Ok(d) => d,
        Err(e) => panic!("{e}"),
    }
}

/// The pure half of [`deadline`]: parses an optional
/// `DISC_BENCH_DEADLINE_SECS` value into a typed [`DiscError::Config`] on
/// malformed input, so tests can cover the override logic without mutating
/// process-global environment state.
fn deadline_from(override_secs: Option<&str>) -> Result<Duration, DiscError> {
    match override_secs {
        Some(v) => match v.trim().parse::<u64>() {
            Ok(secs) if secs > 0 => Ok(Duration::from_secs(secs)),
            _ => Err(DiscError::Config {
                option: "DISC_BENCH_DEADLINE_SECS".to_string(),
                reason: format!("must be a positive integer of seconds, got {v:?}"),
            }),
        },
        None => Ok(DEFAULT_DEADLINE),
    }
}

/// One timed mining run.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Miner name.
    pub miner: String,
    /// The sweep parameter (customers, threshold, or θ — per experiment).
    pub param: f64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Number of frequent sequences found.
    pub patterns: usize,
    /// Length of the longest frequent sequence.
    pub max_length: usize,
    /// Worker threads the run used (1 = sequential).
    pub threads: usize,
    /// Throughput: database rows mined per second.
    pub rows_per_sec: f64,
    /// The run's heap growth: high-water mark of live bytes during the run
    /// minus live bytes at its start (from the harness's tracking
    /// allocator), so retained data from earlier repeats — cached workloads,
    /// the reference result — doesn't pollute the number. Representation
    /// wins show up here even when wall time is noisy.
    pub peak_alloc_bytes: usize,
    /// Peak resident set size (`VmHWM`) observed after the run, in bytes;
    /// 0 where `/proc/self/status` is unavailable. Unlike
    /// [`peak_alloc_bytes`](Measurement::peak_alloc_bytes) this counts
    /// *everything* resident — mapped file pages included — which is
    /// exactly what out-of-core runs need to watch. The harness resets the
    /// kernel watermark before each run ([`reset_peak_rss`]); where that
    /// reset is refused the value is a monotone upper bound across repeats.
    pub peak_rss_bytes: usize,
}

/// Peak resident set size in bytes: `VmHWM` from `/proc/self/status`,
/// or 0 where that file does not exist (non-Linux platforms).
pub fn peak_rss_bytes() -> usize {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    parse_vm_hwm(&status).unwrap_or(0)
}

/// The pure half of [`peak_rss_bytes`]: extracts `VmHWM` (kB) from a
/// `/proc/self/status` document.
fn parse_vm_hwm(status: &str) -> Option<usize> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: usize = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024)
}

/// Resets the kernel's peak-RSS watermark (writes `5` to
/// `/proc/self/clear_refs`) so each run's `VmHWM` reflects that run alone.
/// Best-effort: sandboxes that refuse the write leave `VmHWM` monotone,
/// which only ever over-reports a later run's peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Runs one miner once under [`deadline`] and records the measurement.
/// Panics if the run does not complete — a benchmark that silently reported
/// a partial result would corrupt the sweep.
pub fn measure(
    miner: &dyn SequentialMiner,
    db: &SequenceDatabase,
    min_support: MinSupport,
    param: f64,
) -> (Measurement, MiningResult) {
    let guard =
        MineGuard::new(CancelToken::new(), ResourceBudget::unlimited().with_deadline(deadline()));
    let _measuring = crate::alloc_track::measuring();
    crate::alloc_track::reset_peak();
    reset_peak_rss();
    let live_at_start = crate::alloc_track::live_bytes();
    let start = Instant::now();
    let run = miner.mine_guarded(db, min_support, &guard);
    let seconds = start.elapsed().as_secs_f64();
    let peak_alloc_bytes = crate::alloc_track::peak_bytes().saturating_sub(live_at_start);
    let peak_rss_bytes = peak_rss_bytes();
    assert!(
        run.outcome.is_complete(),
        "{} aborted ({:?}) after {seconds:.1}s — raise the deadline or shrink the workload",
        miner.name(),
        run.outcome,
    );
    let result = run.result;
    (
        Measurement {
            miner: miner.name().to_string(),
            param,
            seconds,
            patterns: result.len(),
            max_length: result.max_length(),
            threads: 1,
            rows_per_sec: db.len() as f64 / seconds.max(1e-9),
            peak_alloc_bytes,
            peak_rss_bytes,
        },
        result,
    )
}

/// Like [`measure`], but records `threads` in the measurement instead of 1.
///
/// The miner itself decides how to use workers — pass a parallel-configured
/// miner (e.g. `ParallelDiscAll::with_threads(threads)`) whose guarded entry
/// point fans out internally. Going through [`SequentialMiner::mine_guarded`]
/// keeps the benchmark deadline in force *globally across workers*, so a
/// hung shard still fails the sweep loudly.
pub fn measure_with_threads(
    miner: &dyn SequentialMiner,
    db: &SequenceDatabase,
    min_support: MinSupport,
    param: f64,
    threads: usize,
) -> (Measurement, MiningResult) {
    let (mut measurement, result) = measure(miner, db, min_support, param);
    measurement.threads = threads;
    (measurement, result)
}

/// Asserts two results agree, loudly — experiments double as end-to-end
/// correctness checks.
pub fn assert_agreement(name: &str, got: &MiningResult, reference: &MiningResult) {
    let diff = got.diff(reference);
    assert!(
        diff.is_empty(),
        "{name} disagrees with the reference result ({} lines):\n{}",
        diff.len(),
        diff.join("\n")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_core::BruteForce;

    #[test]
    fn measure_records_runtime_and_counts() {
        let db = SequenceDatabase::from_parsed(&["(a)(b)", "(a)(b)"]).unwrap();
        let (m, result) = measure(&BruteForce::default(), &db, MinSupport::Count(2), 2.0);
        assert_eq!(m.miner, "BruteForce");
        assert_eq!(m.patterns, 3);
        assert_eq!(m.max_length, 2);
        assert!(m.seconds >= 0.0);
        assert!(m.rows_per_sec > 0.0);
        assert!(m.peak_alloc_bytes > 0, "mining allocates, so the peak must be nonzero");
        assert_eq!(result.len(), 3);
    }

    #[test]
    fn measure_with_threads_records_thread_count() {
        let db = SequenceDatabase::from_parsed(&["(a)(b)", "(a)(b)"]).unwrap();
        let (m, result) =
            measure_with_threads(&BruteForce::default(), &db, MinSupport::Count(2), 2.0, 4);
        assert_eq!(m.threads, 4);
        assert_eq!(m.patterns, result.len());
    }

    #[test]
    fn vm_hwm_parses_from_status_text() {
        let status = "Name:\ttest\nVmPeak:\t  999 kB\nVmHWM:\t  2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(2048 * 1024));
        assert_eq!(parse_vm_hwm("Name:\ttest\n"), None);
    }

    #[test]
    fn peak_rss_is_nonzero_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_bytes() > 0, "a live process has resident pages");
        }
    }

    #[test]
    fn deadline_override_parses() {
        assert_eq!(deadline_from(Some("7200")).unwrap(), Duration::from_secs(7200));
        assert_eq!(deadline_from(Some(" 5 ")).unwrap(), Duration::from_secs(5));
        assert_eq!(deadline_from(None).unwrap(), DEFAULT_DEADLINE);
    }

    #[test]
    fn deadline_override_rejects_zero_with_typed_error() {
        let err = deadline_from(Some("0")).unwrap_err();
        assert!(matches!(err, DiscError::Config { .. }), "got {err:?}");
        assert!(err.to_string().contains("positive integer"), "got {err}");
    }

    #[test]
    fn deadline_override_rejects_garbage_with_typed_error() {
        let err = deadline_from(Some("soon")).unwrap_err();
        assert!(matches!(err, DiscError::Config { .. }), "got {err:?}");
        assert!(err.to_string().contains("DISC_BENCH_DEADLINE_SECS"), "got {err}");
    }

    #[test]
    #[should_panic(expected = "disagrees")]
    fn assert_agreement_panics_on_mismatch() {
        let db = SequenceDatabase::from_parsed(&["(a)(b)", "(a)(b)"]).unwrap();
        let full = BruteForce::default().mine(&db, MinSupport::Count(1));
        let partial = BruteForce::with_max_length(1).mine(&db, MinSupport::Count(1));
        assert_agreement("test", &partial, &full);
    }
}
