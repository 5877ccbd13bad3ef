//! Property tests for the DISC machinery:
//!
//! * Apriori-KMS / Apriori-CKMS equal the exhaustive-enumeration references
//!   on random sequences and random frequent-prefix lists;
//! * the k-sorted database's `(apriori pointer, extension)` key order is the
//!   comparative order of the keys it stands for;
//! * a first-level partition loses nothing by seeing its members from their
//!   minimum points;
//! * DISC-all (bi-level on and off) and Dynamic DISC-all (several γ) return
//!   exactly the brute-force frequent set with exact supports on random
//!   databases.

use disc_algo::ckms::{apriori_ckms_raw, BoundMode, Condition};
use disc_algo::counting::count_extensions;
use disc_algo::kms::{apriori_kms_raw, RawKms};
use disc_algo::{DiscAll, DynamicDiscAll};
use disc_core::kmin::{all_k_subsequences, min_k_subsequence_with_allowed_prefix_naive};
use disc_core::{
    cmp_sequences, BruteForce, ExtElem, ExtMode, FlatDb, Item, Itemset, MinSupport, SeqView,
    Sequence, SequenceDatabase, SequentialMiner,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_itemset(max_item: u32) -> impl Strategy<Value = Itemset> {
    prop::collection::btree_set(0..max_item, 1..=3)
        .prop_map(|s| Itemset::new(s.into_iter().map(Item)).expect("non-empty"))
}

fn arb_sequence(max_item: u32, max_txns: usize) -> impl Strategy<Value = Sequence> {
    prop::collection::vec(arb_itemset(max_item), 1..=max_txns).prop_map(Sequence::new)
}

fn arb_db(max_item: u32, max_rows: usize) -> impl Strategy<Value = SequenceDatabase> {
    prop::collection::vec(arb_sequence(max_item, 4), 1..=max_rows)
        .prop_map(SequenceDatabase::from_sequences)
}

/// A random subset of the (k-1)-subsequences of a random sequence, to act as
/// the "frequent" list.
fn arb_prefix_scenario(k: usize) -> impl Strategy<Value = (Sequence, Vec<Sequence>)> {
    (arb_sequence(5, 4), any::<u64>()).prop_map(move |(s, seed)| {
        let all: Vec<Sequence> = all_k_subsequences(&s, k - 1).into_iter().collect();
        // Deterministic pseudo-random subset from the seed.
        let mut picked: Vec<Sequence> = all
            .into_iter()
            .enumerate()
            .filter(|(i, _)| (seed >> (i % 64)) & 1 == 1)
            .map(|(_, p)| p)
            .collect();
        picked.sort();
        (s, picked)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn kms_matches_reference((s, list) in arb_prefix_scenario(3)) {
        let allowed: BTreeSet<Sequence> = list.iter().cloned().collect();
        let fast = apriori_kms_raw(&s, &list).map(|r| r.into_kms(&list).key);
        let slow = min_k_subsequence_with_allowed_prefix_naive(&s, 3, &allowed, None);
        prop_assert_eq!(fast, slow, "sequence {} list {:?}", s,
            list.iter().map(|p| p.to_string()).collect::<Vec<_>>());
    }

    #[test]
    fn ckms_matches_reference(
        (s, list) in arb_prefix_scenario(3),
        bound in arb_sequence(5, 3),
        strict in any::<bool>(),
    ) {
        // Condition sequences must be k-sequences with a prefix in some list;
        // synthesize one from the bound's own 3-prefix when long enough.
        prop_assume!(bound.length() >= 3);
        let alpha_delta = bound.k_prefix(3);
        prop_assume!(!list.is_empty());
        let mode = if strict { BoundMode::Strictly } else { BoundMode::AtLeast };
        let cond = Condition::new(&alpha_delta, mode);
        let allowed: BTreeSet<Sequence> = list.iter().cloned().collect();
        let fast = apriori_ckms_raw(&s, &list, 0, &cond).map(|r| r.into_kms(&list).key);
        let slow = min_k_subsequence_with_allowed_prefix_naive(
            &s, 3, &allowed, Some((&alpha_delta, strict)));
        prop_assert_eq!(fast, slow, "sequence {} bound {}", s, alpha_delta);
    }

    #[test]
    fn ckms_pointer_is_an_optimization_not_a_filter(
        (s, list) in arb_prefix_scenario(3),
        bound in arb_sequence(5, 3),
    ) {
        // Starting from the key's true prefix pointer must give the same
        // answer as starting from 0.
        prop_assume!(bound.length() >= 3 && !list.is_empty());
        let alpha_delta = bound.k_prefix(3);
        let cond = Condition::new(&alpha_delta, BoundMode::AtLeast);
        let from_zero = apriori_ckms_raw(&s, &list, 0, &cond);
        if let Some(kms) = &from_zero {
            // Re-run starting from any pointer up to the answer's pointer.
            for p in 0..=kms.ptr {
                let again = apriori_ckms_raw(&s, &list, p, &cond);
                prop_assert_eq!(again.as_ref(), Some(kms));
            }
        }
    }

    #[test]
    fn raw_kms_order_is_the_comparative_order(
        (_, list2) in arb_prefix_scenario(3),
        (_, list3) in arb_prefix_scenario(4),
        elems in prop::collection::vec((0u32..6, any::<bool>()), 1..=6),
    ) {
        // Random ascending lists of equal-length prefixes (lengths 2 and 3)
        // and every key they admit for the random elements: an itemset
        // extension must exceed the prefix's last item.
        for list in [list2, list3] {
            let mut keys = Vec::new();
            for (ptr, prefix) in list.iter().enumerate() {
                let last = prefix.last_flat_item().expect("non-empty prefix");
                for &(item, itemset) in &elems {
                    let mode = if itemset { ExtMode::Itemset } else { ExtMode::Sequence };
                    if mode == ExtMode::Sequence || Item(item) > last {
                        keys.push(RawKms { ptr, elem: ExtElem { item: Item(item), mode } });
                    }
                }
            }
            for a in &keys {
                for b in &keys {
                    let (ka, kb) = (a.into_kms(&list).key, b.into_kms(&list).key);
                    prop_assert_eq!(a.cmp(b), cmp_sequences(&ka, &kb), "{} vs {}", ka, kb);
                }
            }
        }
    }

    #[test]
    fn counting_from_the_minimum_point_is_lossless(db in arb_db(5, 8), delta in 1u64..=3) {
        // For every frequent λ, the <(λ)> counting array over the rows
        // containing λ is the same whether a row is seen whole or from its
        // minimum point (its first transaction containing λ).
        let flat = FlatDb::from_database(&db);
        let root = count_extensions(&Sequence::empty(), flat.rows(), 5);
        for lambda in (0..5).map(Item).filter(|&x| root.seq_support(x) >= delta) {
            let prefix = Sequence::single(lambda);
            let members: Vec<_> = flat
                .rows()
                .filter_map(|row| row.first_txn_containing(lambda).map(|t| (row, t)))
                .collect();
            let whole = members.iter().map(|&(row, _)| row);
            let started = members.iter().map(|&(row, t)| row.from_transaction(t));
            prop_assert_eq!(
                count_extensions(&prefix, whole, 5).frequent_extensions(1),
                count_extensions(&prefix, started, 5).frequent_extensions(1),
                "λ = {}", lambda
            );
        }
    }

    #[test]
    fn disc_all_matches_brute_force(db in arb_db(5, 8), delta in 1u64..=4) {
        let expected = BruteForce::default().mine(&db, MinSupport::Count(delta));
        for miner in [DiscAll::default(), DiscAll::without_bi_level()] {
            let got = miner.mine(&db, MinSupport::Count(delta));
            let diff = got.diff(&expected);
            prop_assert!(diff.is_empty(), "{} δ={}:\n{}\ndb:\n{}",
                miner.name(), delta, diff.join("\n"), db.to_text());
        }
    }

    #[test]
    fn dynamic_matches_brute_force(db in arb_db(5, 8), delta in 1u64..=4) {
        let expected = BruteForce::default().mine(&db, MinSupport::Count(delta));
        for gamma in [0.0, 0.5, 2.0] {
            let got = DynamicDiscAll::with_gamma(gamma).mine(&db, MinSupport::Count(delta));
            let diff = got.diff(&expected);
            prop_assert!(diff.is_empty(), "γ={} δ={}:\n{}\ndb:\n{}",
                gamma, delta, diff.join("\n"), db.to_text());
        }
    }

    #[test]
    fn wider_alphabet_smoke(db in arb_db(12, 10), delta in 2u64..=3) {
        let expected = BruteForce::default().mine(&db, MinSupport::Count(delta));
        let got = DiscAll::default().mine(&db, MinSupport::Count(delta));
        prop_assert!(got.diff(&expected).is_empty());
    }
}
