//! Workspace integration: every miner — DISC-all (both bi-level settings),
//! Dynamic DISC-all (several γ), weighted DISC under uniform weights, and
//! all five baselines — must produce the identical frequent set with
//! identical supports on Quest-generated workloads at several thresholds.

use disc_miner::prelude::*;

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

fn miners_under_test() -> Vec<Box<dyn SequentialMiner>> {
    vec![
        Box::new(DiscAll::default()),
        Box::new(disc_miner::algo::DiscAll::without_bi_level()),
        Box::new(ParallelDiscAll::with_threads(1)),
        Box::new(ParallelDiscAll::with_threads(4)),
        Box::new(DynamicDiscAll::with_gamma(0.0)),
        Box::new(DynamicDiscAll::with_gamma(0.6)),
        Box::new(DynamicDiscAll::with_gamma(2.0)),
        Box::new(DynamicDiscAll::with_fixed_depth(1)),
        Box::new(DynamicDiscAll::with_fixed_depth(2)),
        Box::new(DynamicDiscAll::with_fixed_depth(3)),
        Box::new(PrefixSpan::default()),
        Box::new(PseudoPrefixSpan::default()),
        Box::new(Spade::default()),
        Box::new(Spam::default()),
    ]
}

fn assert_agreement(db: &SequenceDatabase, min_support: MinSupport) {
    let reference = PseudoPrefixSpan::default().mine(db, min_support);
    for miner in miners_under_test() {
        let got = miner.mine(db, min_support);
        let diff = got.diff(&reference);
        assert!(
            diff.is_empty(),
            "{} disagrees at {min_support:?} ({} lines):\n{}",
            miner.name(),
            diff.len(),
            diff.join("\n")
        );
    }
    // Weighted DISC under uniform weight 1 is ordinary mining.
    let wdb = WeightedDatabase::uniform(db.clone());
    let delta_w = min_support.resolve(db.len());
    for miner in [WeightedDisc::default(), WeightedDisc { bi_level: false }] {
        let diff = miner.mine(&wdb, delta_w).diff(&reference);
        assert!(
            diff.is_empty(),
            "WeightedDisc (bi-level {}) disagrees at {min_support:?} ({} lines):\n{}",
            miner.bi_level,
            diff.len(),
            diff.join("\n")
        );
    }
}

#[test]
fn agreement_on_short_sequences() {
    let db = quest(1, 200, 4.0);
    for fraction in [0.15, 0.08] {
        assert_agreement(&db, MinSupport::Fraction(fraction));
    }
}

#[test]
fn agreement_on_paper_shaped_workload() {
    // The small 80-item alphabet is dense; keep δ high enough that the
    // frequent set stays in the hundreds (debug builds run this too).
    let db = quest(2, 250, 10.0);
    let probe = PseudoPrefixSpan::default().mine(&db, MinSupport::Fraction(0.15));
    assert!(probe.len() < 50_000, "workload too dense: {} patterns", probe.len());
    assert_agreement(&db, MinSupport::Fraction(0.15));
}

#[test]
fn agreement_with_long_patterns() {
    // One deep planted pattern instead of a dense Quest workload: the
    // frequent set is the subsequence lattice of the planted 8-sequence
    // (bounded at 2⁸ − 1 patterns) so the test exercises the k ≥ 4 DISC
    // iterations and bi-level virtual partitions without a combinatorial
    // frequent-set explosion.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let planted = parse_sequence("(a)(b,c)(d)(e,f)(g)(h)").unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let mut rows = Vec::new();
    for i in 0..24usize {
        let mut itemsets: Vec<Itemset> = Vec::new();
        if i % 3 != 2 {
            // Supporter: the planted transactions with rare-noise items
            // spliced between (ids 50+ never repeat often enough to be
            // frequent).
            for set in planted.itemsets() {
                itemsets.push(set.clone());
                if rng.gen_bool(0.5) {
                    itemsets.push(Itemset::single(Item(rng.gen_range(50..1000))));
                }
            }
        } else {
            for _ in 0..6 {
                itemsets.push(Itemset::single(Item(rng.gen_range(50..1000))));
            }
        }
        rows.push(Sequence::new(itemsets));
    }
    let db = SequenceDatabase::from_sequences(rows);
    let threshold = MinSupport::Count(16);
    let reference = PseudoPrefixSpan::default().mine(&db, threshold);
    assert_eq!(reference.support_of(&planted), Some(16));
    assert_eq!(reference.max_length(), 8);
    assert_eq!(reference.len(), 255, "exactly the subsequence lattice");
    assert_agreement(&db, threshold);
}

#[test]
fn gsp_agrees_on_a_small_workload() {
    // GSP is quadratic in candidates; give it a small instance of its own.
    let db = quest(4, 80, 5.0);
    let reference = PseudoPrefixSpan::default().mine(&db, MinSupport::Fraction(0.1));
    let got = Gsp::default().mine(&db, MinSupport::Fraction(0.1));
    assert!(got.diff(&reference).is_empty());
}

#[test]
fn unlimited_guard_is_equivalent_to_plain_mining() {
    // mine_guarded with no budget must complete and agree exactly with mine
    // for every miner — the guarded path is the same algorithm, only
    // instrumented.
    let db = quest(7, 80, 4.0);
    let threshold = MinSupport::Fraction(0.12);
    let mut miners = miners_under_test();
    miners.push(Box::new(Gsp::default()));
    miners.push(Box::new(BruteForce::default()));
    for miner in miners {
        let plain = miner.mine(&db, threshold);
        let guard = MineGuard::unlimited();
        let run = miner.mine_guarded(&db, threshold, &guard);
        assert!(
            run.outcome.is_complete(),
            "{} aborted under an unlimited guard: {:?}",
            miner.name(),
            run.outcome
        );
        let diff = run.result.diff(&plain);
        assert!(
            diff.is_empty(),
            "{} guarded result differs from plain mine ({} lines):\n{}",
            miner.name(),
            diff.len(),
            diff.join("\n")
        );
        assert_eq!(run.stats.patterns, plain.len(), "{} pattern stat", miner.name());
        assert!(run.stats.ops > 0, "{} charged no ops", miner.name());
    }
}

#[test]
fn parallel_disc_all_agrees_with_brute_force_and_prefixspan_on_random_workloads() {
    // Randomized (seeded) databases, checked against two independent
    // reference implementations: BruteForce enumerates and counts, and
    // PrefixSpan grows projections — neither shares code with the sharded
    // DISC path, so agreement here is strong evidence the parallel merge
    // reconstructs the exact frequent set.
    for seed in [11, 12, 13] {
        let db = quest(seed, 60, 4.0);
        let threshold = MinSupport::Fraction(0.12);
        let brute = BruteForce::default().mine(&db, threshold);
        let prefix = PrefixSpan::default().mine(&db, threshold);
        assert!(prefix.diff(&brute).is_empty(), "references disagree (seed {seed})");
        for threads in [1, 3, 8] {
            let got = ParallelDiscAll::with_threads(threads).mine(&db, threshold);
            let diff = got.diff(&brute);
            assert!(
                diff.is_empty(),
                "ParallelDiscAll ×{threads} disagrees with BruteForce (seed {seed}, {} lines):\n{}",
                diff.len(),
                diff.join("\n")
            );
        }
    }
}

#[test]
fn nrr_levels_are_consistent_across_miners() {
    let db = quest(5, 200, 8.0);
    let a = nrr_by_level(&DiscAll::default().mine(&db, MinSupport::Fraction(0.15)), &db);
    let b = nrr_by_level(&PseudoPrefixSpan::default().mine(&db, MinSupport::Fraction(0.15)), &db);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        match (x, y) {
            (Some(x), Some(y)) => assert!((x - y).abs() < 1e-12),
            (None, None) => {}
            _ => panic!("NRR level mismatch: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn delta_one_and_delta_db_size_edges() {
    // δ = 1 makes every contained subsequence frequent — the frequent set is
    // exponential in sequence length, so this edge runs on the paper's tiny
    // Table 1 database; the δ = |DB| edge runs on a generated workload.
    let tiny = SequenceDatabase::from_parsed(&[
        "(a,e,g)(b)(h)(f)(c)(b,f)",
        "(b)(d,f)(e)",
        "(b,f,g)",
        "(f)(a,g)(b,f,h)(b,f)",
    ])
    .unwrap();
    assert_agreement(&tiny, MinSupport::Count(1));

    let db = quest(6, 40, 3.0);
    assert_agreement(&db, MinSupport::Count(db.len() as u64));
}

/// `db` with every item id raised by `offset`.
fn shifted_db(db: &SequenceDatabase, offset: u32) -> SequenceDatabase {
    SequenceDatabase::from_rows(
        db.rows().iter().map(|row| (row.cid, shifted(&row.sequence, offset))),
    )
}

fn shifted(seq: &Sequence, offset: u32) -> Sequence {
    Sequence::new(
        seq.itemsets()
            .iter()
            .map(|set| Itemset::from_sorted(set.iter().map(|i| Item(i.0 + offset)).collect())),
    )
}

#[test]
fn agreement_past_wide_item_ids_and_long_customers() {
    // The DISC miners against PseudoPrefixSpan on item ids far past 20 bits
    // (mined on compact ids, reported in the originals) and on customers
    // with more than 4,095 transactions.
    let db = quest(8, 200, 4.0);
    let threshold = MinSupport::Count(8);
    let agree = |db: &SequenceDatabase| {
        let reference = PseudoPrefixSpan::default().mine(db, threshold);
        let miners: [Box<dyn SequentialMiner>; 3] = [
            Box::new(DiscAll::default()),
            Box::new(DynamicDiscAll::with_gamma(0.6)),
            Box::new(ParallelDiscAll::with_threads(2)),
        ];
        for miner in miners {
            let diff = miner.mine(db, threshold).diff(&reference);
            assert!(diff.is_empty(), "{} disagrees:\n{}", miner.name(), diff.join("\n"));
        }
        reference
    };
    let base = agree(&db);
    assert!(!base.is_empty());
    for offset in [1 << 20, 3_000_000] {
        let got = agree(&shifted_db(&db, offset));
        let expected: MiningResult = base.iter().map(|(p, s)| (shifted(p, offset), s)).collect();
        assert!(got.diff(&expected).is_empty(), "shift {offset} changed the result");
    }

    let mut long = db.clone();
    for (j, row) in db.rows().iter().take(2).enumerate() {
        let sets = row.sequence.itemsets();
        let cycled = sets.iter().cycle().take(4_200).cloned();
        long.push(disc_miner::core::CustomerId(1_000_000 + j as u64), Sequence::new(cycled));
    }
    agree(&long);
}
