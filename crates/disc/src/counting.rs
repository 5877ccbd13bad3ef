//! The **counting array** of Section 3.1 (Figures 3 and 7): one scan of a
//! partition computes the support of every one-item extension of the
//! partition's prefix, with a last-member stamp per entry so repetitions
//! inside one customer sequence count once.
//!
//! For a prefix `π` (possibly empty) the extensions are:
//!
//! * **sequence extensions** `<π>(x)`: `x` occurs in a transaction strictly
//!   after the leftmost embedding of `π`;
//! * **itemset extensions** `<π ⊕ᵢ x>`: writing `π = β + L` (last itemset
//!   `L`), some transaction after the leftmost embedding of `β` contains
//!   `L ∪ {x}` with `x > max(L)` (so the extension appends at the end of the
//!   flattened form and `π` stays the k-prefix).
//!
//! Leftmost embeddings are sufficient in both cases: they minimize the end
//! transaction, so they dominate every other embedding's candidate set.

use crate::kms::{encode_elem, first_gt_items};
use disc_core::{
    embed::view_leftmost_end, is_sorted_subset, ExtElem, ExtMode, Item, Itemset, SeqView, Sequence,
};

/// The counting array: per item, the supports of the two extension forms.
///
/// Supports are weighted sums: every member contributes its weight (1 in
/// ordinary mining, the customer's weight in [`crate::weighted`]) to each
/// extension it supports — see [`CountingArray::add_member_weighted`].
///
/// The array is **reusable**: [`CountingArray::reset`] is O(1), counts are
/// lazily zeroed on first touch per epoch, and the marked item ids are
/// tracked so [`CountingArray::frequent_extensions`] walks only the items
/// the current scan actually saw. The discovery loop counts one virtual
/// partition per frequent pattern — re-zeroing (or even re-reading) all
/// `n_items` entries each time would dwarf the counting itself.
#[derive(Debug, Clone)]
pub struct CountingArray {
    /// `<π>(x)` supports, indexed by item id.
    seq_counts: Vec<u64>,
    /// `<π ⊕ᵢ x>` supports, indexed by item id.
    item_counts: Vec<u64>,
    /// Last member stamp per entry ("Last CID" in Figure 3).
    seq_stamp: Vec<u32>,
    item_stamp: Vec<u32>,
    /// Current member stamp (1-based; 0 = untouched; monotone across
    /// resets so stale stamps can never collide with a later member).
    current: u32,
    /// Weight of the member being accumulated.
    current_weight: u64,
    /// Epoch stamp per entry: counts are valid only when it matches
    /// `epoch`; anything older is logically zero.
    touch_epoch: Vec<u32>,
    /// The current epoch (1-based; bumped by [`CountingArray::reset`]).
    epoch: u32,
    /// Item ids touched this epoch, unordered.
    touched: Vec<u32>,
}

impl CountingArray {
    /// A zeroed array over items `0..n_items`.
    pub fn new(n_items: usize) -> CountingArray {
        CountingArray {
            seq_counts: vec![0; n_items],
            item_counts: vec![0; n_items],
            seq_stamp: vec![0; n_items],
            item_stamp: vec![0; n_items],
            current: 0,
            current_weight: 1,
            touch_epoch: vec![0; n_items],
            epoch: 1,
            touched: Vec::new(),
        }
    }

    /// Logically zeroes every count in O(1): bumps the epoch, so all prior
    /// marks become invisible. Member stamps stay monotone, so accumulation
    /// can continue immediately.
    pub fn reset(&mut self) {
        self.epoch += 1;
        self.touched.clear();
    }

    /// Marks `i` as live this epoch, lazily zeroing its counts on the first
    /// touch after a reset.
    #[inline]
    fn touch(&mut self, i: usize) {
        if self.touch_epoch[i] != self.epoch {
            self.touch_epoch[i] = self.epoch;
            self.seq_counts[i] = 0;
            self.item_counts[i] = 0;
            self.touched.push(i as u32);
        }
    }

    /// Accumulates one member sequence into the array, counting each
    /// extension of `prefix` at most once for this member.
    ///
    /// Members are expected to contain `prefix` (partition membership
    /// guarantees it); a member that does not contributes nothing.
    pub fn add_member<'a, S: SeqView<'a>>(&mut self, member: S, prefix: &Sequence) {
        self.add_member_weighted(member, prefix, 1);
    }

    /// Like [`CountingArray::add_member`], but the member contributes
    /// `weight` units of support to each of its extensions — the counting
    /// every partition-engine scan does.
    ///
    /// Generic over [`SeqView`] and allocation-free: β is a borrowed slice
    /// of the prefix's itemsets.
    pub fn add_member_weighted<'a, S: SeqView<'a>>(
        &mut self,
        member: S,
        prefix: &Sequence,
        weight: u64,
    ) {
        self.current += 1;
        self.current_weight = weight;

        if prefix.is_empty() {
            // Root scan: frequent 1-sequences. Every distinct item counts as
            // a sequence extension of the empty prefix.
            for t in 0..member.n_transactions() {
                for &item in member.itemset_items(t) {
                    self.mark_seq(item);
                }
            }
            return;
        }

        // One embedding, one pass: β (the prefix minus its last itemset L)
        // is embedded leftmost, then a single walk over the remaining
        // transactions finds both forms. The first L-containing transaction
        // is the leftmost end of the whole prefix, so transactions strictly
        // after it host sequence extensions; every L-containing transaction
        // hosts itemset extensions. If no transaction past β contains L the
        // prefix is not contained and nothing gets marked — exactly the
        // contribute-nothing contract.
        let last = prefix.last_itemset().expect("non-empty prefix");
        let beta_sets = &prefix.itemsets()[..prefix.n_transactions() - 1];
        let Some(beta_end) = view_leftmost_end(member, beta_sets) else {
            return; // β not contained, so neither is the prefix
        };
        let max_last = last.max_item();
        let mut past_pi = false;
        for t in beta_end.next_txn()..member.n_transactions() {
            let set = member.itemset_items(t);
            if past_pi {
                for &item in set {
                    self.mark_seq(item);
                }
            }
            if is_sorted_subset(last.as_slice(), set) {
                let from = first_gt_items(set, max_last);
                for &item in &set[from..] {
                    debug_assert!(
                        extension_is_canonical(last, item),
                        "first_gt_items must only admit items past max(L)"
                    );
                    self.mark_item(item);
                }
                past_pi = true;
            }
        }
    }

    fn mark_seq(&mut self, item: Item) {
        let i = item.id() as usize;
        self.touch(i);
        if self.seq_stamp[i] != self.current {
            self.seq_stamp[i] = self.current;
            self.seq_counts[i] += self.current_weight;
        }
    }

    fn mark_item(&mut self, item: Item) {
        let i = item.id() as usize;
        self.touch(i);
        if self.item_stamp[i] != self.current {
            self.item_stamp[i] = self.current;
            self.item_counts[i] += self.current_weight;
        }
    }

    /// Support of the sequence-extension `<π>(x)`.
    pub fn seq_support(&self, item: Item) -> u64 {
        let i = item.id() as usize;
        if self.touch_epoch[i] == self.epoch {
            self.seq_counts[i]
        } else {
            0
        }
    }

    /// Support of the itemset-extension `<π ⊕ᵢ x>`.
    pub fn item_support(&self, item: Item) -> u64 {
        let i = item.id() as usize;
        if self.touch_epoch[i] == self.epoch {
            self.item_counts[i]
        } else {
            0
        }
    }

    /// All extension elements with support ≥ δ, ascending in the comparative
    /// order of the extended sequences (item, then itemset-before-sequence),
    /// with their supports. Walks only the items the current epoch marked.
    pub fn frequent_extensions(&self, delta: u64) -> Vec<(ExtElem, u64)> {
        let mut out = Vec::new();
        self.frequent_extensions_into(delta, &mut out);
        out
    }

    /// [`CountingArray::frequent_extensions`] into a caller-owned buffer —
    /// the bi-level loop asks once per frequent pattern, and reusing the
    /// buffer keeps those tens of thousands of queries allocation-free.
    ///
    /// Filters the touched ids by `delta` first and sorts only the
    /// survivors: most touched ids of a virtual partition are infrequent.
    pub fn frequent_extensions_into(&self, delta: u64, out: &mut Vec<(ExtElem, u64)>) {
        out.clear();
        for &id in &self.touched {
            let item = Item(id);
            let ic = self.item_counts[id as usize];
            if ic >= delta {
                out.push((ExtElem { item, mode: ExtMode::Itemset }, ic));
            }
            let sc = self.seq_counts[id as usize];
            if sc >= delta {
                out.push((ExtElem { item, mode: ExtMode::Sequence }, sc));
            }
        }
        out.sort_unstable_by_key(|&(e, _)| encode_elem(e));
    }
}

/// Which one-item extensions of a partition's prefix are frequent, per item
/// id — the masks the reduction step filters by.
///
/// A refill clears only the ids the previous fill set and sets only ids
/// the counting array touched this epoch, so it costs the items the scan
/// saw, not the item universe. One engine run keeps one per partition
/// level alive and refills it for every partition.
#[derive(Debug, Clone, Default)]
pub struct FrequencyMasks {
    /// `itemset[x]`: `<π ⊕ᵢ x>` is frequent.
    pub itemset: Vec<bool>,
    /// `sequence[x]`: `<π>(x)` is frequent.
    pub sequence: Vec<bool>,
    /// Ids the last fill may have set.
    set: Vec<u32>,
}

impl FrequencyMasks {
    /// Refills the masks with the extensions of `array`'s current epoch
    /// whose support is at least `delta`.
    pub fn fill(&mut self, array: &CountingArray, delta: u64) {
        let n = array.seq_counts.len();
        if self.itemset.len() != n {
            *self = FrequencyMasks {
                itemset: vec![false; n],
                sequence: vec![false; n],
                set: Vec::new(),
            };
        }
        for &id in &self.set {
            self.itemset[id as usize] = false;
            self.sequence[id as usize] = false;
        }
        self.set.clear();
        for &id in &array.touched {
            let i = id as usize;
            self.itemset[i] = array.item_counts[i] >= delta;
            self.sequence[i] = array.seq_counts[i] >= delta;
            if self.itemset[i] || self.sequence[i] {
                self.set.push(id);
            }
        }
    }

    /// Whether the extension `e` is frequent.
    pub(crate) fn admits(&self, e: ExtElem) -> bool {
        match e.mode {
            ExtMode::Itemset => self.itemset[e.item.id() as usize],
            ExtMode::Sequence => self.sequence[e.item.id() as usize],
        }
    }
}

/// Convenience: scans `members` once and returns the counting array for
/// `prefix`.
pub fn count_extensions<'a, S: SeqView<'a>>(
    prefix: &Sequence,
    members: impl IntoIterator<Item = S>,
    n_items: usize,
) -> CountingArray {
    let mut array = CountingArray::new(n_items);
    for m in members {
        array.add_member(m, prefix);
    }
    array
}

/// [`count_extensions`] over `(member, weight)` pairs into a reusable
/// array: [`CountingArray::reset`] is O(1), so callers looping over
/// partitions pay the `n_items`-sized zero-fill once per run instead of once
/// per partition.
pub fn count_extensions_into<'a, S: SeqView<'a>>(
    array: &mut CountingArray,
    prefix: &Sequence,
    members: impl IntoIterator<Item = (S, u64)>,
) {
    array.reset();
    for (m, weight) in members {
        array.add_member_weighted(m, prefix, weight);
    }
}

/// Verifies that an itemset extension is expressible: `<π ⊕ᵢ x>` appends at
/// the end of the flattened form only when `x > max(L)`. Backs the debug
/// assertion in [`CountingArray::add_member_weighted`] guarding the items
/// admitted by `first_gt_items`.
fn extension_is_canonical(last: &Itemset, item: Item) -> bool {
    item > last.max_item()
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_core::{parse_sequence, support_count, SequenceDatabase};

    fn seq(s: &str) -> Sequence {
        parse_sequence(s).unwrap()
    }

    fn item(c: char) -> Item {
        Item::from_letter(c).unwrap()
    }

    /// The <(a)>-partition of Table 6 (CIDs 1–7).
    fn a_partition() -> Vec<Sequence> {
        [
            "(a,d)(d)(a,g,h)(c)",
            "(b)(a)(f)(a,c,e,g)",
            "(a,f,g)(a,e,g,h)(c,g,h)",
            "(f)(a,c,f)(a,c,e,g,h)",
            "(a,g)",
            "(a,f)(a,e,g,h)",
            "(a,b,g)(a,e,g)(g,h)",
        ]
        .iter()
        .map(|s| seq(s))
        .collect()
    }

    #[test]
    fn figure_3_counting_array() {
        // Figure 3: the counting array of the <(a)>-partition.
        let prefix = Sequence::single(item('a'));
        let array = count_extensions(&prefix, a_partition().iter(), 8);

        // Row 1 matches Figure 3 exactly; row 2's (_g)/(_h) cells are
        // illegible in the source scan — the values below are recomputed by
        // hand from Table 6 and cross-checked definitionally in
        // `counting_matches_definitional_support`.
        let seq_expected = [6, 0, 4, 1, 5, 1, 6, 5]; // (a)..(h)
        let item_expected = [0, 1, 2, 1, 5, 3, 7, 4]; // (_a)..(_h)
        for (i, (&s, &it)) in seq_expected.iter().zip(item_expected.iter()).enumerate() {
            let x = Item(i as u32);
            assert_eq!(array.seq_support(x), s, "<(a)({})>", x);
            assert_eq!(array.item_support(x), it, "<(a{})>", x);
        }
    }

    #[test]
    fn figure_3_frequent_extensions_at_delta_3() {
        let prefix = Sequence::single(item('a'));
        let array = count_extensions(&prefix, a_partition().iter(), 8);
        // Example 3.2: only <(a)(b)>, <(a)(d)>, <(a)(f)>, <(ab)>, <(ac)>,
        // <(ad)> are not frequent (δ = 3) — among items with any support.
        let frequent: Vec<String> = array
            .frequent_extensions(3)
            .into_iter()
            .map(|(e, _)| Sequence::single(item('a')).extended(e).to_string())
            .collect();
        assert_eq!(
            frequent,
            vec![
                "(a)(a)", "(a)(c)", "(a, e)", "(a)(e)", "(a, f)", "(a, g)", "(a)(g)", "(a, h)",
                "(a)(h)",
            ]
        );
    }

    #[test]
    fn counting_matches_definitional_support() {
        // Every count the array produces must equal the definitional support
        // of the extended pattern over the member multiset.
        let members = a_partition();
        let db = SequenceDatabase::from_sequences(members.clone());
        let prefix = Sequence::single(item('a'));
        let array = count_extensions(&prefix, members.iter(), 8);
        for id in 0..8u32 {
            let x = Item(id);
            let s_pat = prefix.extended(ExtElem { item: x, mode: ExtMode::Sequence });
            assert_eq!(array.seq_support(x), support_count(&db, &s_pat), "pattern {s_pat}");
            if x > item('a') {
                let i_pat = prefix.extended(ExtElem { item: x, mode: ExtMode::Itemset });
                assert_eq!(array.item_support(x), support_count(&db, &i_pat), "pattern {i_pat}");
            }
        }
    }

    #[test]
    fn figure_7_bilevel_counting() {
        // Example 3.5 / Figure 7: counting 5-extensions of <(a)(a,e,g)> over
        // three members of its virtual partition gives (c)=1, (g)=1, (h)=1,
        // (_h)=3. (Those totals pin down WHICH three members of Table 9 were
        // processed: the reduced CIDs 3, 4 and 6 — CID 2 contains no
        // 5-sequence with this prefix and contributes nothing.)
        let members =
            [seq("(a,f,g)(a,e,g,h)(c,g,h)"), seq("(f)(a,f)(a,c,e,g,h)"), seq("(a,f)(a,e,g,h)")];
        let prefix = seq("(a)(a,e,g)");
        let array = count_extensions(&prefix, members.iter(), 8);
        assert_eq!(array.seq_support(item('c')), 1);
        assert_eq!(array.seq_support(item('g')), 1);
        assert_eq!(array.seq_support(item('h')), 1);
        assert_eq!(array.item_support(item('h')), 3);
        for c in ['a', 'b', 'd', 'e', 'f'] {
            assert_eq!(array.seq_support(item(c)), 0, "({c})");
            assert_eq!(array.item_support(item(c)), 0, "(_{c})");
        }
        // <(a)(a,e,g,h)> is the only frequent 5-extension at δ = 3.
        let freq = array.frequent_extensions(3);
        assert_eq!(freq.len(), 1);
        assert_eq!(freq[0].0, ExtElem { item: item('h'), mode: ExtMode::Itemset });
        assert_eq!(freq[0].1, 3);
    }

    #[test]
    fn root_prefix_counts_one_sequences() {
        let members = [seq("(a)(a,b)"), seq("(b)"), seq("(c)(a)")];
        let array = count_extensions(&Sequence::empty(), members.iter(), 3);
        assert_eq!(array.seq_support(item('a')), 2);
        assert_eq!(array.seq_support(item('b')), 2);
        assert_eq!(array.seq_support(item('c')), 1);
    }

    #[test]
    fn members_without_prefix_contribute_nothing() {
        let members = [seq("(b)(c)")];
        let array = count_extensions(&Sequence::single(item('a')), members.iter(), 3);
        for id in 0..3 {
            assert_eq!(array.seq_support(Item(id)), 0);
            assert_eq!(array.item_support(Item(id)), 0);
        }
    }

    #[test]
    fn itemset_extension_needs_full_last_itemset() {
        // Prefix <(a)(b,c)>; member has (b,c,e) later: e is an itemset
        // extension; but a transaction with only (c,e) is not.
        let members = [seq("(a)(b,c,e)(c,e)")];
        let prefix = seq("(a)(b,c)");
        let array = count_extensions(&prefix, members.iter(), 6);
        assert_eq!(array.item_support(item('e')), 1);
        assert_eq!(array.seq_support(item('e')), 1); // (c,e) after the embedding
        assert_eq!(array.seq_support(item('c')), 1);
        assert_eq!(array.item_support(item('d')), 0);
    }

    #[test]
    fn itemset_extension_uses_beta_not_full_prefix() {
        // Prefix <(a)(b)>: the leftmost embedding of the full prefix ends at
        // the FIRST (b), but the itemset extension <(a)(b,d)> lives in the
        // SECOND (b, d) transaction. β = <(a)> ends at txn 0, so txn 2 is
        // still eligible.
        let members = [seq("(a)(b)(b,d)")];
        let prefix = seq("(a)(b)");
        let array = count_extensions(&prefix, members.iter(), 5);
        assert_eq!(array.item_support(item('d')), 1);
        assert_eq!(array.seq_support(item('d')), 1);
        assert_eq!(array.seq_support(item('b')), 1);
    }
}
