//! Differential property tests for the SIMD comparison kernels and the
//! packed `u32` keys: every dispatch level the build and CPU can
//! execute must agree bit-for-bit with the portable scalar reference, on
//! arbitrary inputs including lane-straddling lengths, empty slices, and the
//! packed-word budget edges.

use disc_core::embed::view_contains;
use disc_core::{
    cmp_sequences, cmp_views, contains, fits_packed_budget, pack_pair, simd, unpack_pair,
    DiscError, DispatchLevel, FlatDb, FlatKey, Item, Itemset, PackedKey, Sequence,
    SequenceDatabase, MAX_PACKED_ITEM, MAX_PACKED_TXNS,
};
use proptest::prelude::*;

/// A random itemset over a small alphabet.
fn arb_itemset(max_item: u32) -> impl Strategy<Value = Itemset> {
    prop::collection::btree_set(0..max_item, 1..=3)
        .prop_map(|s| Itemset::new(s.into_iter().map(Item)).expect("non-empty"))
}

/// A random sequence of 1..=4 transactions.
fn arb_sequence(max_item: u32) -> impl Strategy<Value = Sequence> {
    prop::collection::vec(arb_itemset(max_item), 1..=4).prop_map(Sequence::new)
}

/// A random tiny database.
fn arb_db(max_item: u32, max_rows: usize) -> impl Strategy<Value = SequenceDatabase> {
    prop::collection::vec(arb_sequence(max_item), 1..=max_rows)
        .prop_map(SequenceDatabase::from_sequences)
}

/// Word slices whose lengths straddle the 16-byte SSE2 and 32-byte AVX2 lane
/// boundaries (0..=40 u32 words = 0..=160 bytes), over a tiny value range so
/// long equal prefixes — the case the first-diff kernels must get exactly
/// right — are common rather than vanishing.
fn arb_words(max: u32) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0..max, 0..=40)
}

/// A pair of word slices sharing a random-length common prefix, so the first
/// difference lands at an arbitrary (often lane-interior) position.
fn arb_prefix_pair() -> impl Strategy<Value = (Vec<u32>, Vec<u32>)> {
    (arb_words(5), arb_words(5), arb_words(5)).prop_map(|(prefix, ta, tb)| {
        let mut a = prefix.clone();
        a.extend(ta);
        let mut b = prefix;
        b.extend(tb);
        (a, b)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn all_levels_agree_on_first_diff_and_cmp((a, b) in arb_prefix_pair()) {
        let a64: Vec<u64> = a.iter().map(|&w| w as u64).collect();
        let b64: Vec<u64> = b.iter().map(|&w| w as u64).collect();
        let diff_ref = a.iter().zip(&b).take_while(|(x, y)| x == y).count();
        for level in DispatchLevel::available() {
            prop_assert_eq!(simd::first_diff_u32_at(level, &a, &b), diff_ref);
            prop_assert_eq!(simd::first_diff_u64_at(level, &a64, &b64), diff_ref);
            prop_assert_eq!(simd::cmp_u32_at(level, &a, &b), a.cmp(&b));
            prop_assert_eq!(simd::cmp_u64_at(level, &a64, &b64), a64.cmp(&b64));
        }
    }

    #[test]
    fn all_levels_agree_on_scans(mut hay in arb_words(9), x in 0u32..10) {
        for level in DispatchLevel::available() {
            prop_assert_eq!(simd::contains_u32_at(level, &hay, x), hay.contains(&x));
        }
        // The ordered scans additionally match binary search on sorted input.
        hay.sort_unstable();
        for level in DispatchLevel::available() {
            prop_assert_eq!(
                simd::first_ge_u32_at(level, &hay, x),
                hay.partition_point(|&w| w < x)
            );
            prop_assert_eq!(
                simd::first_gt_u32_at(level, &hay, x),
                hay.partition_point(|&w| w <= x)
            );
        }
    }

    #[test]
    fn all_levels_agree_on_subset(a in arb_words(12), b in arb_words(12)) {
        let mut a: Vec<u32> = a;
        let mut b: Vec<u32> = b;
        a.sort_unstable();
        a.dedup();
        b.sort_unstable();
        b.dedup();
        let subset_ref = a.iter().all(|x| b.binary_search(x).is_ok());
        for level in DispatchLevel::available() {
            prop_assert_eq!(simd::is_sorted_subset_u32_at(level, &a, &b), subset_ref);
        }
    }

    #[test]
    fn cmp_views_matches_the_nested_order(a in arb_sequence(6), b in arb_sequence(6)) {
        // The transaction-wise SIMD walk must reproduce the flattened-pair
        // reference exactly (under whatever level the process dispatched).
        let fa: Vec<(Item, u32)> = a.flat_iter().collect();
        let fb: Vec<(Item, u32)> = b.flat_iter().collect();
        prop_assert_eq!(cmp_sequences(&a, &b), fa.cmp(&fb));
        let db = SequenceDatabase::from_sequences([a.clone(), b.clone()]);
        let flat = FlatDb::from_database(&db);
        prop_assert_eq!(cmp_views(flat.row(0), flat.row(1)), fa.cmp(&fb));
    }

    #[test]
    fn view_contains_matches_contains(db in arb_db(5, 6), pat in arb_sequence(5)) {
        // `view_contains` runs on the SIMD subset kernel; `contains` walks
        // the nested representation.
        let flat = FlatDb::from_database(&db);
        for (row, src) in flat.rows().zip(db.sequences()) {
            prop_assert_eq!(view_contains(row, &pat), contains(src, &pat));
        }
    }

    #[test]
    fn first_gt_items_matches_partition_point(set in arb_words(9), after in 0u32..10) {
        let mut items: Vec<Item> = set.into_iter().map(Item).collect();
        items.sort_unstable();
        items.dedup();
        prop_assert_eq!(
            simd::first_gt_items(&items, Item(after)),
            items.partition_point(|&i| i <= Item(after))
        );
    }

    #[test]
    fn pack_pair_round_trips_and_preserves_order(
        a in 0u32..=MAX_PACKED_ITEM, ta in 1u32..=MAX_PACKED_TXNS,
        b in 0u32..=MAX_PACKED_ITEM, tb in 1u32..=MAX_PACKED_TXNS,
    ) {
        prop_assert_eq!(unpack_pair(pack_pair(Item(a), ta)), (Item(a), ta));
        prop_assert_eq!(unpack_pair(pack_pair(Item(b), tb)), (Item(b), tb));
        // Unsigned word order == (item, txn) lexicographic order: the claim
        // that makes single-compare packed keys sound, checked at the budget
        // edges included.
        prop_assert_eq!(
            pack_pair(Item(a), ta).cmp(&pack_pair(Item(b), tb)),
            (a, ta).cmp(&(b, tb))
        );
    }

    #[test]
    fn packed_key_orders_like_the_comparative_order(a in arb_sequence(6), b in arb_sequence(6)) {
        let (ka, kb) = (PackedKey::try_new(&a).unwrap(), PackedKey::try_new(&b).unwrap());
        prop_assert_eq!(ka.cmp(&kb), cmp_sequences(&a, &b));
        prop_assert_eq!(ka.to_sequence(), a.clone());
        prop_assert_eq!(FlatKey::new(&a).cmp(&FlatKey::new(&b)), cmp_sequences(&a, &b));
    }

    #[test]
    fn packed_budget_rejects_exactly_the_overflows(item in 0u64..1 << 22, txns in 0u64..1 << 14) {
        let verdict = fits_packed_budget(item, txns);
        let fits = item <= MAX_PACKED_ITEM as u64 && txns <= MAX_PACKED_TXNS as u64;
        prop_assert_eq!(verdict.is_ok(), fits);
        if let Err(DiscError::PackedOverflow { value, limit, .. }) = verdict {
            prop_assert!(value > limit);
        }
    }
}
