//! **Apriori-KMS** (Figure 5): the k-minimum subsequence of a customer
//! sequence, restricted to k-sequences whose (k-1)-prefix is frequent.
//!
//! The comparative order is lexicographic over the flattened pairs, so the
//! minimum factorizes: first minimize the (k-1)-prefix — walk the sorted
//! list of frequent (k-1)-sequences ascending and take the first one that is
//! contained *and extendable* — then minimize the appended element.
//!
//! ## The extension candidate set
//!
//! For a prefix `F = β + L` (last itemset `L`) embedded in `S`, the
//! realizable one-element extensions are exactly:
//!
//! * **itemset extensions** `(x, same-txn)`: some transaction after the
//!   leftmost embedding of `β` contains `L ∪ {x}` with `x > max(L)`;
//! * **sequence extensions** `(x, next-txn)`: `x` occurs after the leftmost
//!   embedding of the whole `F`.
//!
//! Leftmost embeddings are exact here, not merely greedy: they minimize the
//! end transaction, so their candidate sets are supersets of every other
//! embedding's. Note that the itemset form may require *re-embedding* `L`
//! in a transaction past the leftmost match of `F` — e.g. the 4-minimum of
//! `<(a,e,g)(b)(h)(f)(c)(b,f)>` past the bound `<(a,e)(b)(h)>` under prefix
//! `<(a,e)(b)>` is `<(a,e)(b,f)>`, hosted by the final `(b,f)` transaction
//! even though the leftmost `(b)` match is the second transaction. (The
//! paper's Fig. 5 pseudocode elides this case; Definition 2.5's correctness
//! requirements force it, and the brute-force cross-checks in this module
//! and the property tests confirm the enumeration is exact.)

use disc_core::embed::view_leftmost_end;
use disc_core::{is_sorted_subset, ExtElem, ExtMode, Item, SeqView, Sequence};

/// Index of the first item `> bound` in `items`, or `items.len()` — on a
/// sorted itemset, where its extensions past `bound` begin. A linear scan:
/// itemsets are short.
#[inline]
pub(crate) fn first_gt_items(items: &[Item], bound: Item) -> usize {
    items.iter().position(|&i| i > bound).unwrap_or(items.len())
}

/// The minimum extension element of pattern `f` within `s` among candidates
/// accepted by `admits` — the shared core of Apriori-KMS (`admits` ≡ true),
/// Apriori-CKMS (bound filters), and the partition keying helpers (frequency
/// masks).
///
/// Generic over [`SeqView`], and allocation-free: β (the prefix without its
/// last itemset) is a borrowed slice of `f`'s itemsets, never a rebuilt
/// sequence.
///
/// Returns `None` when `f ⊄ s` or no admissible extension exists.
pub fn min_extension_where<'a, S: SeqView<'a>>(
    s: S,
    f: &Sequence,
    mut admits: impl FnMut(ExtElem) -> bool,
) -> Option<ExtElem> {
    debug_assert!(!f.is_empty(), "extensions of the empty pattern are 1-sequences");
    let last = f.last_itemset()?;
    let beta_sets = &f.itemsets()[..f.n_transactions() - 1];
    let beta_end = view_leftmost_end(s, beta_sets)?.next_txn();
    let max_last = last.max_item();

    let mut best: Option<ExtElem> = None;
    let consider = |e: ExtElem, best: &mut Option<ExtElem>| {
        if best.is_none_or(|b| e < b) {
            *best = Some(e);
        }
    };

    // One pass over the transactions past β's embedding: L-containing
    // transactions host itemset extensions; transactions strictly after the
    // first L-containing one (the leftmost end of F) host sequence
    // extensions. Items ascend within a transaction, so the first admissible
    // item dominates the rest of that transaction for either form.
    let mut past_f_end = false;
    for t in beta_end..s.n_transactions() {
        let set = s.itemset_items(t);
        if past_f_end {
            for &item in set {
                let e = ExtElem { item, mode: ExtMode::Sequence };
                if admits(e) {
                    consider(e, &mut best);
                    break;
                }
            }
        }
        if is_sorted_subset(last.as_slice(), set) {
            let from = first_gt_items(set, max_last);
            for &item in &set[from..] {
                let e = ExtElem { item, mode: ExtMode::Itemset };
                if admits(e) {
                    consider(e, &mut best);
                    break;
                }
            }
            past_f_end = true;
        }
    }
    best
}

/// Enumerates *every* realizable one-element extension of `f` in `s` into
/// `out`, encoded order-preservingly (see [`encode_elem`]), ascending and
/// deduplicated. Same walk as [`min_extension_where`], but collecting the
/// whole candidate set instead of the first admissible element — the
/// enumeration in the module docs is exact, so the set is a property of
/// `(s, f)` alone and any up-closed bound query reduces to a binary search
/// over it.
pub(crate) fn all_extensions<'a, S: SeqView<'a>>(s: S, f: &Sequence, out: &mut Vec<u64>) {
    out.clear();
    let Some(last) = f.last_itemset() else { return };
    let beta_sets = &f.itemsets()[..f.n_transactions() - 1];
    let Some(beta_end_r) = view_leftmost_end(s, beta_sets) else { return };
    let beta_end = beta_end_r.next_txn();
    let max_last = last.max_item();

    let mut past_f_end = false;
    for t in beta_end..s.n_transactions() {
        let set = s.itemset_items(t);
        if past_f_end {
            for &item in set {
                out.push(encode_elem(ExtElem { item, mode: ExtMode::Sequence }));
            }
        }
        if is_sorted_subset(last.as_slice(), set) {
            let from = first_gt_items(set, max_last);
            for &item in &set[from..] {
                out.push(encode_elem(ExtElem { item, mode: ExtMode::Itemset }));
            }
            past_f_end = true;
        }
    }
    out.sort_unstable();
    out.dedup();
}

/// Order-preserving `u64` encoding of an [`ExtElem`]: item id in the high
/// bits, the mode bit below it (`Itemset < Sequence`, matching the derived
/// order).
#[inline]
pub(crate) fn encode_elem(e: ExtElem) -> u64 {
    ((e.item.0 as u64) << 1) | (e.mode == ExtMode::Sequence) as u64
}

#[inline]
pub(crate) fn decode_elem(w: u64) -> ExtElem {
    ExtElem {
        item: disc_core::Item((w >> 1) as u32),
        mode: if w & 1 != 0 { ExtMode::Sequence } else { ExtMode::Itemset },
    }
}

/// Memo of the *full extension sets* of `(member, prefix-index)` pairs,
/// valid for one discovery call (fixed member views, fixed (k-1)-sorted
/// list).
///
/// The KMS walk and every re-keying of a member probe the same
/// `(member, prefix)` pairs over and over — each probe re-embedding the
/// prefix from scratch — while the realizable extension set never changes
/// within the call. Caching the whole sorted set (not just the minimum)
/// means even the *bounded* CKMS queries, whose answers differ per bound,
/// hit the cache: an up-closed bound query is a `partition_point` over the
/// memoized set. Sets live in one shared arena; a per-pair slot table maps
/// into it. Construction degrades to a disabled (always-recompute) cache
/// when the slot table would exceed [`ExtensionCache::MAX_ENTRIES`].
#[derive(Debug)]
pub struct ExtensionCache {
    width: usize,
    /// `0` = not computed yet; else 1-based index into `spans`.
    slots: Vec<u32>,
    /// `(start, len)` extents in `arena`, one per computed pair.
    spans: Vec<(u32, u32)>,
    /// Encoded extension elements, ascending within each span.
    arena: Vec<u64>,
    /// Compute buffer (and the result home in disabled mode).
    scratch: Vec<u64>,
    /// Per-slot skip pointer: `0` = unknown, else 1 + the first prefix
    /// index worth probing at or past this slot's prefix. Emptiness of an
    /// extension set is permanent within a discovery call, so runs of empty
    /// prefixes collapse to one jump (with path compression) instead of
    /// being re-probed on every re-keying of the member.
    skip: Vec<u32>,
    /// Reusable trail buffer for the path compression of the skip walks.
    trail: Vec<u32>,
}

impl ExtensionCache {
    /// Slot tables above this many entries (4 bytes each) are not worth the
    /// zero-fill; the cache silently disables itself instead.
    pub const MAX_ENTRIES: usize = 1 << 22;

    /// A cache for `members × prefixes` pairs (disabled when oversized).
    pub fn new(members: usize, prefixes: usize) -> ExtensionCache {
        let entries = members.saturating_mul(prefixes);
        if entries == 0 || entries > Self::MAX_ENTRIES {
            ExtensionCache::disabled()
        } else {
            ExtensionCache {
                width: prefixes,
                slots: vec![0; entries],
                spans: Vec::new(),
                arena: Vec::new(),
                scratch: Vec::new(),
                skip: vec![0; entries],
                trail: Vec::new(),
            }
        }
    }

    /// A cache that never remembers anything — for one-shot callers.
    pub fn disabled() -> ExtensionCache {
        ExtensionCache {
            width: 0,
            slots: Vec::new(),
            spans: Vec::new(),
            arena: Vec::new(),
            scratch: Vec::new(),
            skip: Vec::new(),
            trail: Vec::new(),
        }
    }

    /// The extension set of prefix `p` in `member`, computing and memoizing
    /// it on first touch.
    fn ensure<'a, S: SeqView<'a>>(
        &mut self,
        s: S,
        f: &Sequence,
        p: usize,
        member: usize,
    ) -> &[u64] {
        if self.width == 0 {
            let mut buf = std::mem::take(&mut self.scratch);
            all_extensions(s, f, &mut buf);
            self.scratch = buf;
            return &self.scratch;
        }
        let idx = member * self.width + p;
        if self.slots[idx] == 0 {
            let mut buf = std::mem::take(&mut self.scratch);
            all_extensions(s, f, &mut buf);
            let start = self.arena.len() as u32;
            self.arena.extend_from_slice(&buf);
            self.scratch = buf;
            self.spans.push((start, self.arena.len() as u32 - start));
            self.slots[idx] = self.spans.len() as u32;
        }
        let (start, len) = self.spans[(self.slots[idx] - 1) as usize];
        &self.arena[start as usize..(start + len) as usize]
    }

    /// The first prefix index `p ≥ from` whose extension set in `member` is
    /// non-empty, with its minimum element — the shared walk of Apriori-KMS
    /// (step 13 of CKMS included). Skip pointers fast-forward over runs of
    /// prefixes already known to be unextendable in this member.
    pub(crate) fn first_with_extension<'a, S: SeqView<'a>>(
        &mut self,
        s: S,
        freq_prev: &[Sequence],
        member: usize,
        from: usize,
    ) -> Option<RawKms> {
        if self.width == 0 {
            for (p, prefix) in freq_prev.iter().enumerate().skip(from) {
                let mut buf = std::mem::take(&mut self.scratch);
                all_extensions(s, prefix, &mut buf);
                let found = buf.first().map(|&w| decode_elem(w));
                self.scratch = buf;
                if let Some(elem) = found {
                    return Some(RawKms { ptr: p, elem });
                }
            }
            return None;
        }
        let base = member * self.width;
        let mut trail = std::mem::take(&mut self.trail);
        trail.clear();
        let mut p = from;
        let mut found = None;
        while p < freq_prev.len() {
            let idx = base + p;
            let next = self.skip[idx];
            if next != 0 {
                trail.push(idx as u32);
                p = (next - 1) as usize;
                continue;
            }
            if let Some(&w) = self.ensure(s, &freq_prev[p], p, member).first() {
                found = Some(RawKms { ptr: p, elem: decode_elem(w) });
                break;
            }
            trail.push(idx as u32);
            p += 1;
        }
        for &t in &trail {
            self.skip[t as usize] = p as u32 + 1;
        }
        self.trail = trail;
        found
    }
}

/// The minimum extension `> y` (`strict`) or `≥ y` of prefix `p` in
/// `member`, answered from the memoized extension set — the bounded CKMS
/// step-14 query as a binary search.
#[inline]
pub(crate) fn cached_min_extension_above<'a, S: SeqView<'a>>(
    s: S,
    freq_prev: &[Sequence],
    p: usize,
    member: usize,
    cache: &mut ExtensionCache,
    y: ExtElem,
    strict: bool,
) -> Option<ExtElem> {
    let set = cache.ensure(s, &freq_prev[p], p, member);
    let ey = encode_elem(y);
    let i =
        if strict { set.partition_point(|&w| w <= ey) } else { set.partition_point(|&w| w < ey) };
    set.get(i).map(|&w| decode_elem(w))
}

/// The result of a KMS/CKMS computation: the k-minimum subsequence plus the
/// *apriori pointer* — the index of its (k-1)-prefix in the sorted list of
/// frequent (k-1)-sequences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Kms {
    /// The (conditional) k-minimum subsequence.
    pub key: Sequence,
    /// Index into the (k-1)-sorted list of the key's (k-1)-prefix.
    pub ptr: usize,
}

/// A KMS/CKMS result in raw form: the prefix index and the appended
/// extension element. The key sequence is always
/// `freq_prev[ptr].extended(elem)`.
///
/// This pair *is* the k-sorted database's key: the derived `Ord` compares
/// `ptr`, then `elem`, and over one strictly ascending (k-1)-sorted list
/// that is the comparative order of the materialized keys. All keys have
/// length k and extend their prefix by exactly one flattened pair, so two
/// keys with different prefixes differ within the first k-1 pairs, in the
/// order of their prefixes; two keys with the same prefix differ only in
/// the appended pair, whose order is [`ExtElem`]'s. Apriori-KMS's minimum
/// factorizes the same way (module docs), so a key is never materialized
/// to be compared — only when its pattern is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RawKms {
    /// Index into the (k-1)-sorted list of the key's (k-1)-prefix.
    pub ptr: usize,
    /// The extension element appended to that prefix.
    pub elem: ExtElem,
}

impl RawKms {
    /// Materializes the key sequence against the (k-1)-sorted list the raw
    /// result was computed from.
    pub fn into_kms(self, freq_prev: &[Sequence]) -> Kms {
        Kms { key: freq_prev[self.ptr].extended(self.elem), ptr: self.ptr }
    }
}

/// Apriori-KMS (Figure 5) in raw form: the minimum k-subsequence of `s`
/// whose (k-1)-prefix appears in `freq_prev` (the ascending (k-1)-sorted
/// list), as a prefix index plus extension element.
///
/// Returns `None` when no frequent (k-1)-sequence contained in `s` admits an
/// extension.
pub fn apriori_kms_raw<'a, S: SeqView<'a>>(s: S, freq_prev: &[Sequence]) -> Option<RawKms> {
    apriori_kms_cached(s, freq_prev, 0, &mut ExtensionCache::disabled())
}

/// [`apriori_kms_raw`] against a shared [`ExtensionCache`] — the discovery
/// loop's entry point, where the same `(member, prefix)` probes recur across
/// the initial keying and every later re-keying.
pub fn apriori_kms_cached<'a, S: SeqView<'a>>(
    s: S,
    freq_prev: &[Sequence],
    member: usize,
    cache: &mut ExtensionCache,
) -> Option<RawKms> {
    cache.first_with_extension(s, freq_prev, member, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_core::kmin::min_k_subsequence_with_allowed_prefix_naive;
    use disc_core::parse_sequence;
    use std::collections::BTreeSet;

    fn seq(s: &str) -> Sequence {
        parse_sequence(s).unwrap()
    }

    /// Apriori-KMS with the key sequence materialized.
    fn kms(s: &Sequence, list: &[Sequence]) -> Option<Kms> {
        apriori_kms_raw(s, list).map(|raw| raw.into_kms(list))
    }

    fn seqs(texts: &[&str]) -> Vec<Sequence> {
        let mut v: Vec<Sequence> = texts.iter().map(|t| seq(t)).collect();
        v.sort();
        v
    }

    #[test]
    fn first_gt_items_matches_partition_point() {
        let sets: [&[u32]; 4] = [&[], &[3], &[0, 2, 5, 9], &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]];
        for set in sets {
            let items: Vec<Item> = set.iter().map(|&i| Item(i)).collect();
            for bound in 0..12 {
                let bound = Item(bound);
                assert_eq!(first_gt_items(&items, bound), items.partition_point(|&i| i <= bound));
            }
        }
    }

    #[test]
    fn example_3_3_four_minimum_subsequences() {
        // The <(a)(a)>-partition (Table 8) with its 3-sorted list
        // {<(a)(a,e)>, <(a)(a,g)>, <(a)(a,h)>} produces the 4-minimum
        // subsequences of Table 9.
        let list = seqs(&["(a)(a,e)", "(a)(a,g)", "(a)(a,h)"]);
        let expected = [
            ("(a)(a,g,h)(c)", "(a)(a,g)(c)", 1),
            ("(b)(a)(a,c,e,g)", "(a)(a,e,g)", 0),
            ("(a,f,g)(a,e,g,h)(c,g,h)", "(a)(a,e)(c)", 0),
            ("(f)(a,f)(a,c,e,g,h)", "(a)(a,e,g)", 0),
            ("(a,f)(a,e,g,h)", "(a)(a,e,g)", 0),
            ("(a,g)(a,e,g)(g,h)", "(a)(a,e,g)", 0),
        ];
        for (customer, kms_text, ptr) in expected {
            let got = kms(&seq(customer), &list).unwrap();
            assert_eq!(got.key, seq(kms_text), "customer {customer}");
            assert_eq!(got.ptr, ptr, "customer {customer}");
        }
    }

    #[test]
    fn cid3_prefers_earlier_prefix_with_worse_extension() {
        // CID 3 contains both <(a)(a,e)> (extendable by (c)) and <(a)(a,g)>
        // (extendable by items < c). The prefix dominates: <(a)(a,e)(c)>.
        let list = seqs(&["(a)(a,e)", "(a)(a,g)", "(a)(a,h)"]);
        let got = kms(&seq("(a,f,g)(a,e,g,h)(c,g,h)"), &list).unwrap();
        assert_eq!(got.key, seq("(a)(a,e)(c)"));
    }

    #[test]
    fn skips_unextendable_prefixes() {
        // <(a)(b)> matches but ends at the end of the sequence; <(a)(c)>
        // matches with extensions, the smallest appended element being b.
        let list = seqs(&["(a)(b)", "(a)(c)"]);
        let got = kms(&seq("(a)(c)(d)(b)"), &list).unwrap();
        assert_eq!(got.key, seq("(a)(c)(b)"));
        assert_eq!(got.ptr, 1);
    }

    #[test]
    fn returns_none_when_nothing_extends() {
        let list = seqs(&["(a)(b)"]);
        assert_eq!(kms(&seq("(a)(b)"), &list), None);
        assert_eq!(kms(&seq("(x)(y)(z)"), &list), None);
        assert_eq!(kms(&seq("(a)(b)"), &[]), None);
    }

    #[test]
    fn same_transaction_extension_beats_new_transaction_on_tie() {
        // After matching <(a)>, item b is available both in the same
        // transaction and later; the itemset extension <(a,b)> is smaller.
        let list = seqs(&["(a)"]);
        let got = kms(&seq("(a,b)(b)"), &list).unwrap();
        assert_eq!(got.key, seq("(a,b)"));
    }

    #[test]
    fn smaller_item_in_later_transaction_beats_same_transaction() {
        let list = seqs(&["(b)"]);
        let got = kms(&seq("(b,d)(c)"), &list).unwrap();
        assert_eq!(got.key, seq("(b)(c)"));
    }

    #[test]
    fn itemset_extension_via_reembedding_is_found() {
        // F = <(a)(b)>: its leftmost match ends at the bare (b), but when
        // everything smaller is filtered out, the itemset extension through
        // the later (b,f) transaction must surface.
        let list = seqs(&["(a)(b)"]);
        let s = seq("(a)(b)(b,f)");
        // Unconstrained minimum: the sequence extension (b).
        let got = kms(&s, &list).unwrap();
        assert_eq!(got.key, seq("(a)(b)(b)"));
        // Constrained past every sequence-extension item except f's
        // competitors: (f, itemset) beats (f, sequence).
        let elem = min_extension_where(&s, &seq("(a)(b)"), |e| {
            e > ExtElem { item: Item::from_letter('b').unwrap(), mode: ExtMode::Sequence }
        })
        .unwrap();
        assert_eq!(elem, ExtElem { item: Item::from_letter('f').unwrap(), mode: ExtMode::Itemset });
    }

    #[test]
    fn matches_exhaustive_reference_on_paper_partition() {
        // Cross-check every Table 8 member against the exponential reference.
        let list = seqs(&["(a)(a,e)", "(a)(a,g)", "(a)(a,h)"]);
        let allowed: BTreeSet<Sequence> = list.iter().cloned().collect();
        for customer in [
            "(a)(a,g,h)(c)",
            "(b)(a)(a,c,e,g)",
            "(a,f,g)(a,e,g,h)(c,g,h)",
            "(f)(a,f)(a,c,e,g,h)",
            "(a,f)(a,e,g,h)",
            "(a,g)(a,e,g)(g,h)",
        ] {
            let s = seq(customer);
            let fast = kms(&s, &list).map(|k| k.key);
            let slow = min_k_subsequence_with_allowed_prefix_naive(&s, 4, &allowed, None);
            assert_eq!(fast, slow, "customer {customer}");
        }
    }

    #[test]
    fn min_extension_considers_both_forms() {
        // Pattern (b) on (b,d)(a)(c): same-txn candidate d, later candidates
        // a, c → minimum is a via a new transaction.
        let s = seq("(b,d)(a)(c)");
        let elem = min_extension_where(&s, &seq("(b)"), |_| true).unwrap();
        assert_eq!(
            elem,
            ExtElem { item: Item::from_letter('a').unwrap(), mode: ExtMode::Sequence }
        );
    }
}
