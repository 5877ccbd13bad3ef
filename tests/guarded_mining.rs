//! Guarded-runtime integration: every miner, driven through every abort
//! path — cancellation, deadlines, operation and pattern budgets, and
//! injected panics — must return in bounded time with a **sound** partial
//! result: every reported pattern frequent, with its exact support.

use disc_miner::core::{support_count, FaultPlan};
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
        .with_ncust(ncust)
        .with_nitems(80)
        .with_pools(80, 160)
        .with_slen(slen)
        .with_seed(seed)
        .generate()
}

/// The paper's Table 1 database, padded with copies so every miner performs
/// well over a dozen checkpoints before finishing.
fn padded_table1() -> SequenceDatabase {
    let rows = ["(a,e,g)(b)(h)(f)(c)(b,f)", "(b)(d,f)(e)", "(b,f,g)", "(f)(a,g)(b,f,h)(b,f)"];
    let texts: Vec<&str> = rows.iter().cycle().take(16).copied().collect();
    SequenceDatabase::from_parsed(&texts).unwrap()
}

fn every_miner() -> Vec<Box<dyn SequentialMiner>> {
    vec![
        Box::new(DiscAll::default()),
        Box::new(disc_miner::algo::DiscAll::without_bi_level()),
        Box::new(ParallelDiscAll::with_threads(4)),
        Box::new(DynamicDiscAll::default()),
        Box::new(PrefixSpan::default()),
        Box::new(PseudoPrefixSpan::default()),
        Box::new(Gsp::default()),
        Box::new(Spade::default()),
        Box::new(Spam::default()),
        Box::new(BruteForce::default()),
    ]
}

/// Every pattern in `result` must be genuinely frequent with its exact
/// support — the soundness contract of a partial result.
fn assert_sound_subset(name: &str, db: &SequenceDatabase, result: &MiningResult, delta: u64) {
    for (pattern, support) in result.iter() {
        let actual = support_count(db, pattern);
        assert_eq!(
            support, actual,
            "{name}: partial result reports {pattern} at support {support}, actual {actual}"
        );
        assert!(
            support >= delta,
            "{name}: partial result contains infrequent pattern {pattern} (support {support} < δ={delta})"
        );
    }
}

#[test]
fn pre_cancelled_token_aborts_every_miner_before_any_work() {
    let db = padded_table1();
    for miner in every_miner() {
        let token = CancelToken::new();
        token.cancel();
        let guard = MineGuard::new(token, ResourceBudget::unlimited());
        let run = miner.mine_guarded(&db, MinSupport::Count(4), &guard);
        assert_eq!(
            run.outcome,
            MineOutcome::Partial { reason: AbortReason::Cancelled },
            "{}",
            miner.name()
        );
        assert!(run.result.is_empty(), "{} mined past a cancelled token", miner.name());
    }
}

#[test]
fn zero_deadline_aborts_every_miner() {
    let db = padded_table1();
    for miner in every_miner() {
        let guard = MineGuard::new(
            CancelToken::new(),
            ResourceBudget::unlimited().with_deadline(Duration::ZERO),
        )
        .with_checkpoint_interval(1);
        let run = miner.mine_guarded(&db, MinSupport::Count(4), &guard);
        assert_eq!(
            run.outcome,
            MineOutcome::Partial { reason: AbortReason::DeadlineExceeded },
            "{}",
            miner.name()
        );
        assert_sound_subset(miner.name(), &db, &run.result, 4);
    }
}

#[test]
fn ops_budget_aborts_every_miner_with_a_sound_partial_result() {
    let db = padded_table1();
    for miner in every_miner() {
        let guard = MineGuard::new(CancelToken::new(), ResourceBudget::unlimited().with_max_ops(5))
            .with_checkpoint_interval(1);
        let run = miner.mine_guarded(&db, MinSupport::Count(4), &guard);
        assert_eq!(
            run.outcome,
            MineOutcome::Partial { reason: AbortReason::BudgetExhausted },
            "{}",
            miner.name()
        );
        assert!(run.stats.ops >= 5, "{} under-charged: {:?}", miner.name(), run.stats);
        assert_sound_subset(miner.name(), &db, &run.result, 4);
    }
}

#[test]
fn pattern_budget_caps_every_miner_at_exactly_two_patterns() {
    let db = padded_table1();
    for miner in every_miner() {
        let guard =
            MineGuard::new(CancelToken::new(), ResourceBudget::unlimited().with_max_patterns(2));
        let run = miner.mine_guarded(&db, MinSupport::Count(4), &guard);
        assert_eq!(
            run.outcome,
            MineOutcome::Partial { reason: AbortReason::BudgetExhausted },
            "{} (the workload has far more than 2 frequent patterns)",
            miner.name()
        );
        assert_eq!(run.result.len(), 2, "{} overshot the pattern cap", miner.name());
        assert_eq!(run.stats.patterns, 2, "{}", miner.name());
        assert_sound_subset(miner.name(), &db, &run.result, 4);
    }
}

#[test]
fn injected_panic_is_isolated_for_every_miner() {
    let db = padded_table1();
    for miner in every_miner() {
        let guard = MineGuard::new(CancelToken::new(), ResourceBudget::unlimited())
            .with_checkpoint_interval(1)
            .with_fault(FaultPlan::panic_at(3));
        let run = miner.mine_guarded(&db, MinSupport::Count(4), &guard);
        assert_eq!(
            run.outcome,
            MineOutcome::Partial { reason: AbortReason::Panicked },
            "{}",
            miner.name()
        );
        assert_sound_subset(miner.name(), &db, &run.result, 4);
    }
}

#[test]
fn a_cancel_during_the_projection_pass_keeps_exactly_the_level_one_patterns() {
    // Most occurrences are non-frequent at δ = 2, so every DISC engine
    // projects the database after Step 1. With a full check per charge,
    // check 1 is the pre-flight, check 2 closes Step 1's scan and check 3
    // is the projection pass's first row: the cancel lands there.
    let db = SequenceDatabase::from_parsed(&[
        "(p,q,r,s)(a,b)(t)(c)",
        "(u,v)(a)(b,c)(w)",
        "(a,b)(x)(c)",
        "(y,z)",
    ])
    .unwrap();
    let level_one: MiningResult = BruteForce::default()
        .mine(&db, MinSupport::Count(2))
        .iter()
        .filter(|(pattern, _)| pattern.length() == 1)
        .map(|(pattern, support)| (pattern.clone(), support))
        .collect();
    assert_eq!(level_one.len(), 3);
    let guard = || {
        MineGuard::new(CancelToken::new(), ResourceBudget::unlimited())
            .with_checkpoint_interval(1)
            .with_fault(FaultPlan::cancel_at(3))
    };
    let disc_miners: Vec<Box<dyn SequentialMiner>> = vec![
        Box::new(DiscAll::default()),
        Box::new(DynamicDiscAll::with_gamma(0.0)),
        Box::new(ParallelDiscAll::with_threads(2)),
    ];
    let weighted = WeightedDatabase::uniform(db.clone());
    let runs = disc_miners
        .iter()
        .map(|m| (m.name().to_string(), m.mine_guarded(&db, MinSupport::Count(2), &guard())))
        .chain([(
            "weighted".to_string(),
            WeightedDisc::default().mine_guarded(&weighted, 2, &guard()),
        )]);
    for (name, run) in runs {
        assert_eq!(run.outcome, MineOutcome::Partial { reason: AbortReason::Cancelled }, "{name}");
        assert!(run.result.diff(&level_one).is_empty(), "{name}: {:?}", run.result);
        // Step 1 charges one operation per row; the cancel took the
        // projection's first.
        assert_eq!((run.stats.checkpoints, run.stats.ops), (3, db.len() as u64 + 1), "{name}");
    }
}

#[test]
fn injected_stall_becomes_a_deadline_abort() {
    let db = padded_table1();
    let guard = MineGuard::new(
        CancelToken::new(),
        ResourceBudget::unlimited().with_deadline(Duration::from_millis(5)),
    )
    .with_checkpoint_interval(1)
    .with_fault(FaultPlan::stall_at(3, Duration::from_millis(10)));
    let run = DiscAll::default().mine_guarded(&db, MinSupport::Count(4), &guard);
    assert_eq!(run.outcome, MineOutcome::Partial { reason: AbortReason::DeadlineExceeded });
    assert_sound_subset("DISC-all", &db, &run.result, 4);
}

#[test]
fn deadline_bounds_a_disc_all_run_on_a_generated_workload() {
    // A workload big enough that full mining takes well over 50 ms, even in
    // release mode: the guarded run must come back Partial, quickly, and
    // sound.
    let db = quest(42, scaled(2000), 12.0);
    let delta = MinSupport::Fraction(0.02).resolve(db.len());
    for miner in [
        Box::new(DiscAll::default()) as Box<dyn SequentialMiner>,
        Box::new(DynamicDiscAll::default()),
    ] {
        let guard = MineGuard::new(
            CancelToken::new(),
            ResourceBudget::unlimited().with_deadline(Duration::from_millis(50)),
        );
        let start = Instant::now();
        let run = miner.mine_guarded(&db, MinSupport::Count(delta), &guard);
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(5),
            "{} took {elapsed:?} to notice a 50 ms deadline",
            miner.name()
        );
        assert_eq!(
            run.outcome,
            MineOutcome::Partial { reason: AbortReason::DeadlineExceeded },
            "{} finished a workload meant to overrun 50 ms — grow the workload",
            miner.name()
        );
        assert_sound_subset(miner.name(), &db, &run.result, delta);
    }
}

#[test]
fn cancellation_from_another_thread_stops_a_disc_all_run() {
    let db = quest(43, scaled(2000), 12.0);
    let delta = MinSupport::Fraction(0.02).resolve(db.len());
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
    let run = DiscAll::default().mine_guarded(&db, MinSupport::Count(delta), &guard);
    let elapsed = start.elapsed();
    canceller.join().unwrap();
    assert!(elapsed < Duration::from_secs(5), "cancellation ignored for {elapsed:?}");
    // Mining may legitimately win the race on a fast machine; when it does
    // not, the abort must be attributed to the token.
    match run.outcome {
        MineOutcome::Complete => {}
        MineOutcome::Partial { reason } => assert_eq!(reason, AbortReason::Cancelled),
    }
    assert_sound_subset("DISC-all", &db, &run.result, delta);
}

#[test]
fn fallback_chain_survives_a_panicking_first_stage() {
    let db = padded_table1();
    let chain = FallbackMiner::new(vec![
        Box::new(DynamicDiscAll::default()),
        Box::new(PrefixSpan::default()),
    ]);
    assert_eq!(chain.name(), "Dynamic DISC-all -> PrefixSpan");
    // The fault fires once, in stage 1; stage 2 runs clean and completes.
    let guard = MineGuard::new(CancelToken::new(), ResourceBudget::unlimited())
        .with_checkpoint_interval(1)
        .with_fault(FaultPlan::panic_at(3));
    let (run, reports) = chain.run(&db, MinSupport::Count(4), &guard);
    assert_eq!(reports.len(), 2);
    assert_eq!(reports[0].name, "Dynamic DISC-all");
    assert_eq!(reports[0].outcome, MineOutcome::Partial { reason: AbortReason::Panicked });
    assert_eq!(reports[1].name, "PrefixSpan");
    assert_eq!(reports[1].outcome, MineOutcome::Complete);
    assert!(run.outcome.is_complete());
    let expected = PrefixSpan::default().mine(&db, MinSupport::Count(4));
    assert!(run.result.diff(&expected).is_empty());
}

#[test]
fn fallback_chain_respects_cancellation_without_advancing() {
    let db = padded_table1();
    let chain = FallbackMiner::new(vec![
        Box::new(DynamicDiscAll::default()),
        Box::new(DiscAll::default()),
        Box::new(PrefixSpan::default()),
    ]);
    let token = CancelToken::new();
    token.cancel();
    let guard = MineGuard::new(token, ResourceBudget::unlimited());
    let (run, reports) = chain.run(&db, MinSupport::Count(4), &guard);
    assert_eq!(reports.len(), 1, "cancellation must not trigger fallback");
    assert_eq!(run.outcome, MineOutcome::Partial { reason: AbortReason::Cancelled });
}

#[test]
fn fallback_chain_as_a_plain_miner_uses_its_first_healthy_stage() {
    let db = padded_table1();
    let chain = FallbackMiner::new(vec![
        Box::new(DynamicDiscAll::default()),
        Box::new(DiscAll::default()),
        Box::new(PrefixSpan::default()),
    ]);
    let expected = DynamicDiscAll::default().mine(&db, MinSupport::Count(4));
    let got = chain.mine(&db, MinSupport::Count(4));
    assert!(got.diff(&expected).is_empty());
}

#[test]
fn pattern_budget_sweep_ends_every_miner_at_exactly_the_cap() {
    // Caps through the whole pattern count: past the short patterns they
    // end inside DISC rounds, where a round's seed patterns are noted
    // before the round runs and reach the result only after it. A partial
    // result must still hold exactly the noted patterns, each frequent
    // with its exact support. (A fixed 20-customer database and every
    // third cap, plus the full count and one past it, keep the debug run
    // short.)
    let db = quest(44, 20, 6.0);
    let delta = 5;
    let full = BruteForce::default().mine(&db, MinSupport::Count(delta));
    assert_sound_subset("BruteForce", &db, &full, delta);
    assert!(full.max_length() >= 5, "too short to reach DISC rounds: {}", full.max_length());
    let caps = (1..full.len()).step_by(3).chain([full.len(), full.len() + 1]);
    for miner in every_miner() {
        for cap in caps.clone() {
            let budget = ResourceBudget::unlimited().with_max_patterns(cap);
            let guard = MineGuard::new(CancelToken::new(), budget);
            let run = miner.mine_guarded(&db, MinSupport::Count(delta), &guard);
            let name = format!("{} at cap {cap}", miner.name());
            assert_eq!(run.result.len(), cap.min(full.len()), "{name}");
            assert_eq!(run.stats.patterns, run.result.len(), "{name}");
            // Only a refused (cap+1)-th pattern ends a run early, so a cap
            // of exactly the full count completes.
            assert_eq!(run.outcome.is_complete(), cap >= full.len(), "{name}");
            // Sound: each pattern is in the full (checked) result with the
            // same support.
            for (pattern, support) in run.result.iter() {
                assert_eq!(full.support_of(pattern), Some(support), "{name}: {pattern}");
            }
        }
    }
}
