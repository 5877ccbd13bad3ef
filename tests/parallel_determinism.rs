//! The parallel determinism gate: `ParallelDiscAll` must be **bit-identical**
//! to sequential `DiscAll` — same patterns, same exact supports — at every
//! thread count, and a cancelled / deadline-bound / budget-bound / shard-
//! poisoned parallel run must still return a sound partial subset.
//!
//! CI runs this suite once per thread count (1, 2, 4, 8) in release mode,
//! selecting the count with the `DISC_DETERMINISM_THREADS` environment
//! variable; without the variable every count is exercised in-process.

use disc_miner::core::support_count;
use disc_miner::prelude::*;
use std::time::{Duration, Instant};

/// Debug builds are ~30× slower; scale the workloads so `cargo test` stays
/// snappy while `cargo test --release` exercises the full sizes.
fn scaled(n: usize) -> usize {
    if cfg!(debug_assertions) {
        (n / 4).max(20)
    } else {
        n
    }
}

fn quest(seed: u64, ncust: usize, slen: f64) -> SequenceDatabase {
    QuestConfig::paper_table11()
        .with_ncust(scaled(ncust))
        .with_nitems(80)
        .with_pools(80, 160)
        .with_slen(slen)
        .with_seed(seed)
        .generate()
}

/// The thread counts under test: `DISC_DETERMINISM_THREADS` (comma-separated)
/// when set — CI's matrix sets one count per job — otherwise 1, 2, 4, 8.
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
        Err(_) => vec![1, 2, 4, 8],
    }
}

fn assert_identical(label: &str, got: &MiningResult, reference: &MiningResult) {
    let diff = got.diff(reference);
    assert!(
        diff.is_empty(),
        "{label} differs from sequential DISC-all ({} lines):\n{}",
        diff.len(),
        diff.join("\n")
    );
}

/// Every pattern in `result` must be genuinely frequent with its exact
/// support — the soundness contract of a partial result.
fn assert_sound_subset(label: &str, db: &SequenceDatabase, result: &MiningResult, delta: u64) {
    for (pattern, support) in result.iter() {
        let actual = support_count(db, pattern);
        assert_eq!(
            support, actual,
            "{label}: partial result reports {pattern} at support {support}, actual {actual}"
        );
        assert!(
            support >= delta,
            "{label}: partial result contains infrequent pattern {pattern} (support {support} < δ={delta})"
        );
    }
}

#[test]
fn parallel_equals_sequential_at_every_thread_count() {
    // Three seeded workloads of different shapes, two thresholds each.
    let workloads =
        [(quest(21, 200, 4.0), 0.15), (quest(22, 120, 8.0), 0.2), (quest(23, 300, 3.0), 0.1)];
    for (db, fraction) in &workloads {
        let threshold = MinSupport::Fraction(*fraction);
        let reference = DiscAll::default().mine(db, threshold);
        assert!(!reference.is_empty(), "workload mined to an empty frequent set");
        for threads in thread_counts() {
            let got = ParallelDiscAll::with_threads(threads).mine(db, threshold);
            assert_identical(&format!("×{threads}"), &got, &reference);
        }
    }
}

#[test]
fn parallel_equals_sequential_without_bi_level() {
    let db = quest(24, 150, 5.0);
    let threshold = MinSupport::Fraction(0.12);
    let config = DiscConfig { bi_level: false };
    let reference = DiscAll { config }.mine(&db, threshold);
    for threads in thread_counts() {
        let got = ParallelDiscAll::with_threads(threads).with_config(config).mine(&db, threshold);
        assert_identical(&format!("×{threads} (no bi-level)"), &got, &reference);
    }
}

#[test]
fn repeated_runs_are_stable() {
    // Scheduling noise must not leak into results: the same configuration
    // run repeatedly yields the identical frequent set every time.
    let db = quest(25, 150, 6.0);
    let threshold = MinSupport::Fraction(0.15);
    for threads in thread_counts() {
        let miner = ParallelDiscAll::with_threads(threads);
        let first = miner.mine(&db, threshold);
        for round in 1..3 {
            let again = miner.mine(&db, threshold);
            assert_identical(&format!("×{threads} round {round}"), &again, &first);
        }
    }
}

#[test]
fn mine_parallel_entry_point_is_deterministic() {
    // The parallel entry point is the sharded miner itself, configured like
    // the sequential one: it must honor the identical-result contract.
    let db = quest(26, 120, 5.0);
    let threshold = MinSupport::Fraction(0.15);
    let sequential = DiscAll::default();
    let reference = sequential.mine(&db, threshold);
    for threads in thread_counts() {
        let got = ParallelDiscAll::with_threads(threads)
            .with_config(sequential.config)
            .mine(&db, threshold);
        assert_identical(&format!("ParallelDiscAll ×{threads}"), &got, &reference);
    }
}

#[test]
fn cancelled_parallel_run_returns_a_sound_subset() {
    let db = quest(27, 2000, 12.0);
    let delta = MinSupport::Fraction(0.02).resolve(db.len());
    for threads in thread_counts() {
        let token = CancelToken::new();
        let guard = MineGuard::new(token.clone(), ResourceBudget::unlimited());
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                token.cancel();
            })
        };
        let start = Instant::now();
        let run = ParallelDiscAll::with_threads(threads).mine_guarded(
            &db,
            MinSupport::Count(delta),
            &guard,
        );
        let elapsed = start.elapsed();
        canceller.join().unwrap();
        assert!(
            elapsed < Duration::from_secs(5),
            "×{threads}: cancellation ignored for {elapsed:?}"
        );
        // Mining may legitimately win the race on a fast machine; when it
        // does not, the abort must be attributed to the token.
        match run.outcome {
            MineOutcome::Complete => {}
            MineOutcome::Partial { reason } => assert_eq!(reason, AbortReason::Cancelled),
        }
        assert_sound_subset(&format!("×{threads}"), &db, &run.result, delta);
    }
}

#[test]
fn deadline_bounds_a_parallel_run() {
    let db = quest(28, 2000, 12.0);
    let delta = MinSupport::Fraction(0.02).resolve(db.len());
    for threads in thread_counts() {
        let guard = MineGuard::new(
            CancelToken::new(),
            ResourceBudget::unlimited().with_deadline(Duration::from_millis(50)),
        );
        let start = Instant::now();
        let run = ParallelDiscAll::with_threads(threads).mine_guarded(
            &db,
            MinSupport::Count(delta),
            &guard,
        );
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(5),
            "×{threads} took {elapsed:?} to notice a 50 ms deadline"
        );
        assert_eq!(
            run.outcome,
            MineOutcome::Partial { reason: AbortReason::DeadlineExceeded },
            "×{threads} finished a workload meant to overrun 50 ms — grow the workload"
        );
        assert_sound_subset(&format!("×{threads}"), &db, &run.result, delta);
    }
}

#[test]
fn pattern_budget_is_global_across_workers() {
    // The cap is enforced through run-wide shared counters, so the combined
    // output of all workers lands on exactly the budget — not one budget's
    // worth per worker.
    let db = quest(29, 200, 6.0);
    let threshold = MinSupport::Fraction(0.1);
    let full = DiscAll::default().mine(&db, threshold);
    // Pick a cap past the frequent 1-sequences (found in the sequential
    // prefix) so the cap genuinely trips inside the worker phase, but far
    // below the full frequent set so it must trip.
    let ones = full.iter().filter(|(p, _)| p.length() == 1).count();
    let cap = ones + 5;
    assert!(full.len() > 2 * cap, "workload too sparse to prove the cap is global");
    let delta = threshold.resolve(db.len());
    for threads in thread_counts() {
        let guard =
            MineGuard::new(CancelToken::new(), ResourceBudget::unlimited().with_max_patterns(cap));
        let run = ParallelDiscAll::with_threads(threads).mine_guarded(&db, threshold, &guard);
        assert_eq!(
            run.outcome,
            MineOutcome::Partial { reason: AbortReason::BudgetExhausted },
            "×{threads}"
        );
        assert!(
            run.result.len() <= cap,
            "×{threads}: {} patterns exceed the global cap of {cap}",
            run.result.len()
        );
        assert_sound_subset(&format!("×{threads}"), &db, &run.result, delta);
    }
}

#[test]
fn ops_budget_is_global_across_workers() {
    let db = quest(30, 400, 8.0);
    let threshold = MinSupport::Fraction(0.05);
    let delta = threshold.resolve(db.len());
    for threads in thread_counts() {
        let guard =
            MineGuard::new(CancelToken::new(), ResourceBudget::unlimited().with_max_ops(500))
                .with_checkpoint_interval(16);
        let run = ParallelDiscAll::with_threads(threads).mine_guarded(&db, threshold, &guard);
        assert_eq!(
            run.outcome,
            MineOutcome::Partial { reason: AbortReason::BudgetExhausted },
            "×{threads}"
        );
        assert!(run.stats.ops >= 500, "×{threads} under-charged: {:?}", run.stats);
        assert_sound_subset(&format!("×{threads}"), &db, &run.result, delta);
    }
}

#[test]
fn poisoned_shard_does_not_tear_down_its_siblings() {
    // Shard 1 (the second frequent item, ascending) panics at its second
    // worker checkpoint. Expected result: the run reports Panicked, the
    // poisoned shard contributes nothing beyond its frequent 1-sequence
    // (found in the sequential prefix), and every sibling shard still
    // delivers its complete pattern set.
    let db = quest(31, 150, 5.0);
    let threshold = MinSupport::Fraction(0.12);
    let delta = threshold.resolve(db.len());
    let reference = DiscAll::default().mine(&db, threshold);
    let ones: Vec<Sequence> =
        reference.iter().filter(|(p, _)| p.length() == 1).map(|(p, _)| p.clone()).collect();
    assert!(ones.len() >= 3, "need at least 3 frequent items to poison shard 1");
    let poisoned_first_item = ones[1].itemsets()[0].as_slice()[0];

    let miner = ParallelDiscAll::with_threads(4).with_shard_panic(1, 2);
    let guard =
        MineGuard::new(CancelToken::new(), ResourceBudget::unlimited()).with_checkpoint_interval(1);
    let run = miner.mine_guarded(&db, threshold, &guard);
    assert_eq!(run.outcome, MineOutcome::Partial { reason: AbortReason::Panicked });
    assert_sound_subset("poisoned shard", &db, &run.result, delta);

    // Every reference pattern that does not start with the poisoned item —
    // plus the poisoned item's own 1-sequence — must have survived.
    let mut missing = Vec::new();
    for (pattern, support) in reference.iter() {
        let first = pattern.itemsets()[0].as_slice()[0];
        if first == poisoned_first_item && pattern.length() > 1 {
            continue;
        }
        if run.result.support_of(pattern) != Some(support) {
            missing.push(pattern.clone());
        }
    }
    assert!(
        missing.is_empty(),
        "sibling shards lost {} patterns after shard 1 panicked: {missing:?}",
        missing.len()
    );
}

/// A deliberately tiny fallback stage: frequent 1-sequences only, found by
/// direct support counting — cheap enough to finish under any ops budget, so
/// the test below isolates whether the stage was *allowed* to run at all.
struct OneSequences;

impl SequentialMiner for OneSequences {
    fn name(&self) -> &str {
        "OneSequences"
    }
    fn mine(&self, db: &SequenceDatabase, min_support: MinSupport) -> MiningResult {
        let delta = min_support.resolve(db.len());
        let mut result = MiningResult::new();
        let Some(max_item) = db.max_item() else { return result };
        for id in 0..=max_item.id() {
            let pattern = Sequence::single(Item(id));
            let support = support_count(db, &pattern);
            if support >= delta {
                result.insert(pattern, support);
            }
        }
        result
    }
}

#[test]
fn budget_exhausted_parallel_stage_advances_to_the_fallback_stage() {
    // The ops budget is sized to survive ParallelDiscAll's sequential prefix
    // (two ~db.len()-op scans) and run dry inside the worker phase. The
    // executor's first-error propagation must stop the sibling workers
    // WITHOUT poisoning the caller's token: the fallback stage still runs,
    // and its complete result — not an empty Cancelled echo — decides the
    // chain.
    let db = quest(33, 150, 5.0);
    let threshold = MinSupport::Fraction(0.12);
    let delta = threshold.resolve(db.len());
    let chain = FallbackMiner::new(vec![
        Box::new(ParallelDiscAll::with_threads(4)),
        Box::new(OneSequences),
    ]);
    let budget = ResourceBudget::unlimited().with_max_ops(3 * db.len() as u64);
    let guard = MineGuard::new(CancelToken::new(), budget).with_checkpoint_interval(16);
    let (run, reports) = chain.run(&db, threshold, &guard);
    assert_eq!(reports.len(), 2, "the chain must reach the fallback stage");
    assert_eq!(reports[0].outcome, MineOutcome::Partial { reason: AbortReason::BudgetExhausted });
    assert!(
        reports[1].outcome.is_complete(),
        "fallback stage was poisoned by the aborted parallel stage: {:?}",
        reports[1].outcome
    );
    assert!(run.outcome.is_complete());
    assert!(
        !guard.token().is_cancelled(),
        "the caller's token must survive a budget-aborted parallel run"
    );
    assert!(!run.result.is_empty(), "the deciding result must be the fallback stage's output");
    assert_sound_subset("fallback after budget abort", &db, &run.result, delta);
}

#[test]
fn fallback_chain_recovers_from_a_poisoned_shard() {
    // A production-shaped chain: the parallel miner with a poisoned shard
    // degrades, and the sequential stage behind it completes the job.
    let db = quest(32, 100, 4.0);
    let threshold = MinSupport::Fraction(0.15);
    let chain = FallbackMiner::new(vec![
        Box::new(ParallelDiscAll::with_threads(4).with_shard_panic(0, 2)),
        Box::new(DiscAll::default()),
    ]);
    let guard =
        MineGuard::new(CancelToken::new(), ResourceBudget::unlimited()).with_checkpoint_interval(1);
    let (run, reports) = chain.run(&db, threshold, &guard);
    assert_eq!(reports.len(), 2);
    assert_eq!(reports[0].outcome, MineOutcome::Partial { reason: AbortReason::Panicked });
    assert_eq!(reports[1].name, "DISC-all");
    assert_eq!(reports[1].outcome, MineOutcome::Complete);
    assert!(run.outcome.is_complete());
    let expected = DiscAll::default().mine(&db, threshold);
    assert!(run.result.diff(&expected).is_empty());
}
