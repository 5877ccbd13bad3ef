//! The frequent-item projection against the oracles. Random databases
//! draw from a skewed alphabet — a few common items, many rare ones, and
//! some rows of rare items only — so the projection onto the frequent
//! items drops most of the item column and empties transactions and whole
//! rows. Every DISC miner must still match `BruteForce` (weighted: the
//! brute force over each row repeated by its weight), on the heap and over
//! a mapped `DSCFD1` file.

use disc_algo::weighted::{WeightedDatabase, WeightedDisc};
use disc_algo::{Checkpointable, DiscAll, DiscConfig, DynamicDiscAll, ParallelDiscAll};
use disc_core::{
    encode_database_flat_file, open_flat_file, write_flat_file, BruteForce, Item, Itemset,
    MinSupport, MineGuard, MiningResult, Sequence, SequenceDatabase, SequentialMiner, Verify,
};
use proptest::prelude::*;
use proptest::test_runner::{run, TestCaseError};
use std::cell::Cell;

/// Items `0..COMMON` are common; `COMMON..RARE_END` are spread thin.
const COMMON: u32 = 3;
const RARE_END: u32 = 120;

fn arb_itemset(items: impl Strategy<Value = u32> + 'static) -> impl Strategy<Value = Itemset> {
    prop::collection::btree_set(items, 1..=3)
        .prop_map(|s| Itemset::new(s.into_iter().map(Item)).expect("non-empty"))
}

/// A row over the skewed alphabet, `rare` the odds of a rare item against
/// 2 for a common one; one in five rows is all rare while `rare > 0`.
fn arb_row(rare: u32) -> impl Strategy<Value = Sequence> {
    let skewed = prop_oneof![2 => 0..COMMON, rare => COMMON..RARE_END];
    prop_oneof![
        4 => prop::collection::vec(arb_itemset(skewed), 1..=5).prop_map(Sequence::new),
        rare.min(1) => prop::collection::vec(arb_itemset(COMMON..RARE_END), 1..=3)
            .prop_map(Sequence::new),
    ]
}

/// Rows with weights 1–3, and a threshold. One case in four has no rare
/// items, so the engine mines it unprojected.
fn arb_case() -> impl Strategy<Value = (Vec<(Sequence, u64)>, u64)> {
    let rows = |rare| prop::collection::vec((arb_row(rare), 1u64..=3), 2..=10);
    (prop_oneof![3 => rows(3), 1 => rows(0)], 2u64..=4)
}

/// The miners whose flat core runs the projection, by name.
fn miners() -> Vec<(&'static str, Box<dyn Checkpointable>)> {
    vec![
        ("disc-all", Box::new(DiscAll::default())),
        ("disc-all no bi-level", Box::new(DiscAll::without_bi_level())),
        ("dynamic", Box::new(DynamicDiscAll::default())),
        // NRR is never below 0: the root is never split.
        ("dynamic γ=0", Box::new(DynamicDiscAll::with_gamma(0.0))),
        ("parallel x1", Box::new(ParallelDiscAll::with_threads(1))),
        (
            "parallel x2 no bi-level",
            Box::new(ParallelDiscAll::with_threads(2).with_config(DiscConfig { bi_level: false })),
        ),
        ("parallel x2", Box::new(ParallelDiscAll::with_threads(2))),
    ]
}

fn agree(what: &str, got: &MiningResult, expected: &MiningResult) -> Result<(), TestCaseError> {
    let diff = got.diff(expected);
    if diff.is_empty() {
        Ok(())
    } else {
        Err(TestCaseError::fail(format!("{what}:\n{}", diff.join("\n"))))
    }
}

/// Would the engine project `db` at `delta`: at most half of its item
/// occurrences are frequent items? And does the projection empty a row?
fn projection_shape(db: &SequenceDatabase, frequent: &MiningResult) -> (bool, bool) {
    let is_frequent = |x: Item| frequent.contains_pattern(&Sequence::single(x));
    let items = || db.sequences().flat_map(|s| s.itemsets().iter().flat_map(|set| set.iter()));
    let kept = items().filter(|&x| is_frequent(x)).count();
    let empties_a_row =
        db.sequences().any(|s| s.distinct_items().into_iter().all(|x| !is_frequent(x)));
    (2 * kept <= items().count(), empties_a_row)
}

#[test]
fn projected_mining_matches_the_oracles_on_heap_and_mapped_files() {
    let path = std::env::temp_dir().join(format!("projection-props-{}.dscfd", std::process::id()));
    let (projected, emptied) = (Cell::new(0), Cell::new(0));
    run(&ProptestConfig::with_cases(48), "projection", &arb_case(), |(rows, delta)| {
        let db = SequenceDatabase::from_sequences(rows.iter().map(|(s, _)| s.clone()));
        let expected = BruteForce::default().mine(&db, MinSupport::Count(delta));
        let (projects, empties) = projection_shape(&db, &expected);
        projected.set(projected.get() + usize::from(projects));
        emptied.set(emptied.get() + usize::from(empties));

        write_flat_file(&path, &encode_database_flat_file(&db)).expect("write the flat file");
        let contents = open_flat_file(&path, Verify::Full).expect("open the flat file");
        let guard = MineGuard::unlimited();
        for (name, miner) in miners() {
            agree(name, &miner.mine(&db, MinSupport::Count(delta)), &expected)?;
            let mapped = miner.mine_flat_guarded(&contents.flat, MinSupport::Count(delta), &guard);
            agree(&format!("{name} mapped"), &contents.restore(mapped.into_complete()), &expected)?;
        }

        // Weighted: support is the weight of the rows containing a pattern,
        // which is the plain support over each row repeated by its weight.
        let repeated = rows.iter().flat_map(|(s, w)| std::iter::repeat_n(s.clone(), *w as usize));
        let repeated = SequenceDatabase::from_sequences(repeated);
        let delta_w = 2 * delta;
        let expected_w = BruteForce::default().mine(&repeated, MinSupport::Count(delta_w));
        let weights: Vec<u64> = rows.iter().map(|&(_, w)| w).collect();
        let wdb = WeightedDatabase::from_weighted(rows);
        for bi_level in [true, false] {
            let miner = WeightedDisc { bi_level };
            agree(&format!("weighted bi={bi_level}"), &miner.mine(&wdb, delta_w), &expected_w)?;
            let mapped = miner.mine_flat_guarded(&contents.flat, &weights, delta_w, &guard);
            let mapped = contents.restore(mapped.into_complete());
            agree(&format!("weighted bi={bi_level} mapped"), &mapped, &expected_w)?;
        }
        Ok(())
    });
    let _ = std::fs::remove_file(&path);
    // Neither side of the half-rule, nor an emptied row, may go untested.
    assert!(projected.get() >= 12, "{} of 48 cases projected", projected.get());
    assert!(projected.get() <= 44, "only {} of 48 cases unprojected", 48 - projected.get());
    assert!(emptied.get() >= 12, "{} of 48 cases emptied a row", emptied.get());
}
