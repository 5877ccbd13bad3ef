//! Multi-level partitioning (Section 3.1): grouping customer sequences by
//! their minimum prefixes, reducing them, and walking partitions in
//! ascending key order with **reassignment chains**.
//!
//! The load-bearing property is *lifetime completeness*: partitions are
//! processed in ascending key order, and after a partition is processed each
//! member moves to the partition of its **next** frequent minimum. A
//! sequence's chain therefore enumerates, in ascending order, exactly the
//! frequent keys it contains — so when a partition's turn comes, *every*
//! supporter of its key is present, which is why counting arrays and DISC
//! buckets inside a partition produce exact global supports.
//!
//! A row's first-level chain is its **itinerary**
//! (`frequent_items_per_row`): its frequent items, ascending, each with
//! the row's *minimum point* in that item's partition — the first
//! transaction containing the item. The first-level step sees a member from
//! its minimum point on, and [`reduce_into`] also drops the items below the
//! partition item there: no pattern starting with that item can embed left
//! of it (`docs/ALGORITHM.md` §6).

use crate::kms::{all_extensions, decode_elem, encode_elem, min_extension_where};
use disc_core::{
    AbortReason, ExtElem, ExtMode, FlatArena, FlatDb, Item, MineGuard, SeqView, Sequence,
};
use std::collections::BTreeMap;

/// Groups database rows by their minimum 1-sequence (Step 1(b) of Figure 2).
/// Keys include non-frequent items — the paper's Table 6 grouping, which
/// the NRR statistics read. The partition engine starts each row at the
/// head of its itinerary (`frequent_items_per_row`) instead, which skips the
/// non-frequent partitions a row would only pass through.
///
/// Operates on the flat columns directly, so it works identically on a
/// heap-built database and one mapped from a `DSCFD1` file.
pub fn group_by_min_item(db: &FlatDb) -> BTreeMap<Item, Vec<usize>> {
    let mut groups: BTreeMap<Item, Vec<usize>> = BTreeMap::new();
    for (idx, row) in db.rows().enumerate() {
        // Itemsets are sorted, so a row's minimum item is the smallest
        // first element across its transactions.
        let min = (0..row.n_transactions()).filter_map(|t| row.itemset_items(t).first()).min();
        if let Some(&item) = min {
            groups.entry(item).or_default().push(idx);
        }
    }
    groups
}

/// One stop of a row's first-level itinerary: a frequent item `λ` the row
/// contains, and the row's *minimum point* in the `<(λ)>`-partition — the
/// first transaction containing `λ`.
pub(crate) type Stop = (Item, u32);

/// Per database row, its **itinerary**: the ascending distinct *frequent*
/// items it contains, each with its minimum point — the full route of the
/// row's first-level reassignment chain (Step 2.2 of Figure 2), computed in
/// one pass per row. A row starts in the partition of its first stop; after
/// the `<(λ)>`-partition it moves on to its first stop past `λ`.
pub(crate) fn frequent_items_per_row(
    flat: &FlatDb,
    freq1: &[bool],
    guard: &MineGuard,
) -> Result<Vec<Vec<Stop>>, AbortReason> {
    let mut out = Vec::with_capacity(flat.len());
    let mut stops: Vec<Stop> = Vec::new();
    for row in flat.rows() {
        guard.checkpoint()?;
        stops.clear();
        for t in 0..row.n_transactions() {
            let frequent = row.itemset_items(t).iter().filter(|x| freq1[x.id() as usize]);
            stops.extend(frequent.map(|&x| (x, t as u32)));
        }
        // Sorting by (item, transaction) puts each item's first
        // transaction first; `dedup_by_key` keeps it.
        stops.sort_unstable();
        stops.dedup_by_key(|&mut (x, _)| x);
        out.push(stops.clone());
    }
    Ok(out)
}

/// Customer sequence reduction (Step 2.1.2 of Figure 2).
///
/// Within the `<(λ)>`-partition, an item occurrence `x` to the right of the
/// minimum point is removed unless some frequent pattern starting with `λ`
/// could still use it:
///
/// 1. if `x`'s transaction contains `λ` *and* lies at the minimum point, `x`
///    survives iff `<(λ x)>` is frequent;
/// 2. if `x`'s transaction does not contain `λ`, `x` survives iff
///    `<(λ)(x)>` is frequent;
/// 3. if both conditions hold (a later transaction containing `λ`), either
///    form suffices.
///
/// Occurrences of `λ` itself and everything left of the minimum point are
/// kept. Returns `None` when fewer than 3 items survive — such sequences
/// cannot support any 3-sequence and leave the reduced partition.
pub fn reduce_sequence(
    seq: &Sequence,
    lambda: Item,
    min_point: usize,
    freq1: &[bool],
    i_mask: &[bool],
    s_mask: &[bool],
) -> Option<Sequence> {
    let reduced = seq.filtered(|t, x| {
        if x == lambda || t < min_point {
            return true;
        }
        if t == min_point && x < lambda {
            return true; // left of the minimum point within its transaction
        }
        if !freq1[x.id() as usize] {
            return false;
        }
        let cond1 = seq.itemset(t).contains(lambda);
        let cond2 = t > min_point;
        let i_ok = x > lambda && i_mask[x.id() as usize];
        let s_ok = s_mask[x.id() as usize];
        match (cond1, cond2) {
            (false, _) => s_ok,
            (true, false) => i_ok,
            (true, true) => i_ok || s_ok,
        }
    });
    if reduced.length() >= 3 {
        Some(reduced)
    } else {
        None
    }
}

/// [`reduce_sequence`] into flat storage, on a member viewed from its
/// minimum point (transaction 0 of `seq` is the first one containing `λ`):
/// appends the reduced copy to `arena` and returns its row index, or rolls
/// the row back and returns `None` when fewer than 3 items survive.
///
/// Keeps what [`reduce_sequence`] keeps, minus the part no `λ`-pattern can
/// use: the transactions left of the minimum point (they are not in the
/// view) and the items `< λ` in the minimum-point transaction. A pattern
/// starting with `λ` embeds its first itemset at or after the minimum
/// point, and that itemset holds only items `≥ λ`; its later itemsets
/// embed strictly after it. The masks already imply frequency (a frequent
/// 2-sequence has frequent items), so no separate 1-sequence test is
/// needed. The reduced member never exists as a nested [`Sequence`], so
/// the hot reduction loop allocates only arena growth.
pub fn reduce_into<'a, S: SeqView<'a>>(
    arena: &mut FlatArena,
    seq: S,
    lambda: Item,
    i_mask: &[bool],
    s_mask: &[bool],
) -> Option<usize> {
    // λ-containment is a property of the transaction, not the item — memoize
    // it across the items of the transaction being filtered.
    let mut memo_t = usize::MAX;
    let mut memo_has_lambda = false;
    let row = arena.push_filtered(seq, |t, x| {
        if x == lambda {
            return true;
        }
        let i_ok = x > lambda && i_mask[x.id() as usize];
        if t == 0 {
            return i_ok; // the minimum point: only <(λ x)> can use x
        }
        if t != memo_t {
            memo_t = t;
            memo_has_lambda = seq.itemset_items(t).binary_search(&lambda).is_ok();
        }
        let s_ok = s_mask[x.id() as usize];
        if memo_has_lambda {
            i_ok || s_ok
        } else {
            s_ok
        }
    });
    if arena.row(row).length() >= 3 {
        Some(row)
    } else {
        arena.pop_row();
        None
    }
}

/// The minimum *frequent* extension element of `prefix` contained in `seq`,
/// strictly greater than `bound` when given — the generalized
/// "(conditional) (j+1)-minimum subsequence" that keys next-level partitions
/// and drives their reassignment chains.
///
/// `i_mask`/`s_mask` flag the frequent itemset-/sequence-extension items of
/// this partition's counting array.
pub fn min_ext_elem<'a, S: SeqView<'a>>(
    seq: S,
    prefix: &Sequence,
    i_mask: &[bool],
    s_mask: &[bool],
    bound: Option<ExtElem>,
) -> Option<ExtElem> {
    min_extension_where(seq, prefix, |e| {
        let mask = match e.mode {
            ExtMode::Itemset => &i_mask[e.item.id() as usize],
            ExtMode::Sequence => &s_mask[e.item.id() as usize],
        };
        *mask && bound.is_none_or(|b| e > b)
    })
}

/// The precomputed extension sets of a partition's reduced rows: per arena
/// row, every realizable one-element extension of the partition prefix,
/// ascending in the order-preserving encoding of [`crate::kms`].
///
/// The second-level keying and reassignment chains ask "smallest masked
/// extension (strictly past a bound)" once per chain turn — a fresh
/// embedding walk each time through [`min_ext_elem`]. The extension set of
/// a (row, prefix) pair never changes, so one walk per row at reduction
/// time turns every later turn into a binary search plus a short masked
/// scan. Sets live in one shared arena, indexed in lockstep with the
/// partition's [`FlatArena`] rows.
#[derive(Debug, Default)]
pub struct RowExtensions {
    /// Per row, its `(start, end)` span in `arena`.
    spans: Vec<(u32, u32)>,
    /// All encoded extension sets, back to back.
    arena: Vec<u64>,
    /// Reused per-row staging buffer.
    scratch: Vec<u64>,
}

impl RowExtensions {
    /// An empty table.
    pub fn new() -> RowExtensions {
        RowExtensions::default()
    }

    /// Empties the table, keeping its allocations for reuse.
    pub fn clear(&mut self) {
        self.spans.clear();
        self.arena.clear();
    }

    /// Computes and appends the extension set of `s` (one embedding walk);
    /// returns the new row index, which matches the caller's arena row.
    pub fn push_row<'a, S: SeqView<'a>>(&mut self, s: S, prefix: &Sequence) -> usize {
        let mut scratch = std::mem::take(&mut self.scratch);
        all_extensions(s, prefix, &mut scratch);
        let start = self.arena.len() as u32;
        self.arena.extend_from_slice(&scratch);
        self.scratch = scratch;
        self.spans.push((start, self.arena.len() as u32));
        self.spans.len() - 1
    }

    /// Rolls back the most recently pushed row (mirrors
    /// [`FlatArena::pop_row`] for rejected members).
    pub fn pop_row(&mut self) {
        let (start, _) = self.spans.pop().expect("pop_row on empty table");
        self.arena.truncate(start as usize);
    }

    /// The smallest extension of `row` passing the masks, strictly greater
    /// than `bound` when given — identical to [`min_ext_elem`] over the same
    /// row, without re-walking the member.
    pub fn min_masked(
        &self,
        row: usize,
        i_mask: &[bool],
        s_mask: &[bool],
        bound: Option<ExtElem>,
    ) -> Option<ExtElem> {
        let (start, end) = self.spans[row];
        let list = &self.arena[start as usize..end as usize];
        let from = match bound {
            Some(b) => list.partition_point(|&w| w <= encode_elem(b)),
            None => 0,
        };
        list[from..].iter().map(|&w| decode_elem(w)).find(|e| match e.mode {
            ExtMode::Itemset => i_mask[e.item.id() as usize],
            ExtMode::Sequence => s_mask[e.item.id() as usize],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::{count_extensions, FrequencyMasks};
    use disc_core::{parse_sequence, SequenceDatabase};

    fn seq(s: &str) -> Sequence {
        parse_sequence(s).unwrap()
    }

    fn item(c: char) -> Item {
        Item::from_letter(c).unwrap()
    }

    fn table6() -> SequenceDatabase {
        SequenceDatabase::from_parsed(&[
            "(a,d)(d)(a,g,h)(c)",
            "(b)(a)(f)(a,c,e,g)",
            "(a,f,g)(a,e,g,h)(c,g,h)",
            "(f)(a,c,f)(a,c,e,g,h)",
            "(a,g)",
            "(a,f)(a,e,g,h)",
            "(a,b,g)(a,e,g)(g,h)",
            "(b,f)(b,e)(e,f,h)",
            "(d,f)(d,f,g,h)",
            "(b,f,g)(c,e,h)",
            "(e,g)(f)(e,f)",
        ])
        .unwrap()
    }

    #[test]
    fn table_6_initial_partitions() {
        // CIDs 1–7 fall in the <(a)>-partition, 8 and 10 in <(b)>, 9 in
        // <(d)>, 11 in <(e)>.
        let groups = group_by_min_item(&FlatDb::from_database(&table6()));
        let view: Vec<(char, Vec<usize>)> =
            groups.iter().map(|(i, v)| (i.as_letter().unwrap(), v.clone())).collect();
        assert_eq!(
            view,
            vec![
                ('a', vec![0, 1, 2, 3, 4, 5, 6]),
                ('b', vec![7, 9]),
                ('d', vec![8]),
                ('e', vec![10]),
            ]
        );
    }

    #[test]
    fn table_6_reassignment_after_processing_a() {
        // Example 3.1: after the <(a)>-partition, CIDs 1 and 2 go to <(c)>
        // and <(b)>. All 1-sequences except <(d)> are frequent, so a
        // chain skips d.
        let flat = FlatDb::from_database(&table6());
        let mut frequent = vec![true; 8];
        frequent[item('d').id() as usize] = false;
        let itineraries =
            frequent_items_per_row(&flat, &frequent, &MineGuard::unlimited()).unwrap();
        let stops = |idx: usize| -> Vec<String> {
            let stop = |&(x, t): &Stop| format!("{}@{t}", x.as_letter().unwrap());
            itineraries[idx].iter().map(stop).collect()
        };
        // CID 1 = (a,d)(d)(a,g,h)(c): d never appears on its chain, and
        // each stop carries its minimum point.
        assert_eq!(stops(0), ["a@0", "c@3", "g@2", "h@2"]);
        // CID 9 = (d,f)(d,f,g,h)
        assert_eq!(stops(8), ["f@0", "g@1", "h@1"]);
        // CID 2 = (b)(a)(f)(a,c,e,g) enters the <(a)>-partition at its
        // second transaction.
        assert_eq!(itineraries[1][0], (item('a'), 1));
        let expected = [
            'c', // CID 1: (a,d)(d)(a,g,h)(c) — d is non-frequent
            'b', 'c', 'c',
            // CID 5 = (a,g): the paper removes it ("minimum point at its
            // end" — nothing frequent follows in a useful way); its next
            // minimum 1-sequence is g, and the partition of <(g)> simply
            // finds nothing of length ≥ 2 in it.
            'g', 'e', 'b',
        ];
        for (idx, want) in expected.iter().enumerate() {
            let stops = &itineraries[idx];
            let (next, _) = stops[stops.partition_point(|&(x, _)| x <= item('a'))];
            assert_eq!(next.as_letter(), Some(*want), "CID {}", idx + 1);
        }
    }

    /// The masks of the <(a)>-partition of Table 6 at δ = 3, and the
    /// 1-sequence frequencies (all but d).
    fn a_partition_masks(db: &SequenceDatabase) -> (FrequencyMasks, Vec<bool>) {
        let members: Vec<&Sequence> = (0..7).map(|i| db.sequence(i)).collect();
        let prefix = Sequence::single(item('a'));
        let array = count_extensions(&prefix, members.iter().copied(), 8);
        let mut masks = FrequencyMasks::default();
        masks.fill(&array, 3);
        (masks, vec![true, true, true, false, true, true, true, true])
    }

    #[test]
    fn table_7_reduction_of_the_a_partition() {
        let db = table6();
        let (masks, freq1) = a_partition_masks(&db);
        let (i_mask, s_mask) = (&masks.itemset, &masks.sequence);
        let expected = [
            Some("(a)(a, g, h)(c)"),
            Some("(b)(a)(a, c, e, g)"),
            Some("(a, f, g)(a, e, g, h)(c, g, h)"),
            Some("(f)(a, f)(a, c, e, g, h)"),
            None, // CID 5 shrinks below length 3
            Some("(a, f)(a, e, g, h)"),
            Some("(a, g)(a, e, g)(g, h)"),
        ];
        for (idx, want) in expected.iter().enumerate() {
            let s = db.sequence(idx);
            let (_, min_point) = s.min_item_with_point().unwrap();
            let got = reduce_sequence(s, item('a'), min_point, &freq1, i_mask, s_mask)
                .map(|r| r.to_string());
            assert_eq!(got.as_deref(), *want, "CID {}", idx + 1);
        }
    }

    #[test]
    fn reduce_into_matches_reduce_sequence() {
        // reduce_into sees each member from its minimum point and yields
        // Table 7 without the part left of it: the leading transactions and
        // the items < a in the minimum-point transaction (none here).
        let db = table6();
        let flat = FlatDb::from_database(&db);
        let (masks, _) = a_partition_masks(&db);
        let (i_mask, s_mask) = (&masks.itemset, &masks.sequence);
        let expected = [
            Some("(a)(a, g, h)(c)"),
            Some("(a)(a, c, e, g)"), // CID 2 loses its leading (b)
            Some("(a, f, g)(a, e, g, h)(c, g, h)"),
            Some("(a, f)(a, c, e, g, h)"), // CID 4 loses its leading (f)
            None,
            Some("(a, f)(a, e, g, h)"),
            Some("(a, g)(a, e, g)(g, h)"),
        ];
        let mut arena = FlatArena::new();
        for (idx, want) in expected.iter().enumerate() {
            let min_point = db.sequence(idx).first_txn_containing(item('a')).unwrap();
            let view = flat.row(idx).from_transaction(min_point);
            let got = reduce_into(&mut arena, view, item('a'), i_mask, s_mask);
            let got = got.map(|r| arena.row(r).to_sequence().to_string());
            assert_eq!(got.as_deref(), *want, "CID {}", idx + 1);
        }
        // Rejected rows were rolled back: only the survivors occupy the arena.
        assert_eq!(arena.len(), 6);
    }

    #[test]
    fn reduce_into_drops_items_below_lambda_at_the_minimum_point() {
        // In the <(c)>-partition, (a,c,e)(c,e) keeps neither a (no pattern
        // starting with c can hold it in the first itemset) nor anything
        // left of the minimum point.
        let s = seq("(b)(a,c,e)(c,e)");
        let mut arena = FlatArena::new();
        arena.push_sequence(&s);
        let all = vec![true; 8];
        let view = arena.row(0).from_transaction(1);
        let mut out = FlatArena::new();
        let r = reduce_into(&mut out, view, item('c'), &all, &all).unwrap();
        assert_eq!(out.row(r).to_sequence(), seq("(c,e)(c,e)"));
    }

    #[test]
    fn reduction_keeps_items_left_of_the_minimum_point() {
        // CID 2 keeps its leading (b) even though <(a)...> patterns cannot
        // use it — the paper's Table 7 does the same.
        let db = table6();
        let s = db.sequence(1);
        let (_, min_point) = s.min_item_with_point().unwrap();
        assert_eq!(min_point, 1);
        let freq1 = vec![true; 8];
        let i_mask = vec![false; 8];
        let mut s_mask = vec![false; 8];
        s_mask[item('c').id() as usize] = true;
        let got = reduce_sequence(s, item('a'), min_point, &freq1, &i_mask, &s_mask).unwrap();
        assert_eq!(got.to_string(), "(b)(a)(a, c)");
    }

    #[test]
    fn min_ext_elem_basic_and_bounded() {
        // Table 7 CID 1 = (a)(a,g,h)(c): the 2-minimum with prefix <(a)> is
        // <(a)(a)>; bounded past (a, Sequence) it is <(a)(c)> when only c, g
        // remain frequent.
        let red = seq("(a)(a,g,h)(c)");
        let prefix = Sequence::single(item('a'));
        let all = vec![true; 8];
        let none = vec![false; 8];
        let got = min_ext_elem(&red, &prefix, &all, &all, None).unwrap();
        assert_eq!(got, ExtElem { item: item('a'), mode: ExtMode::Sequence });

        let mut s_mask = none.clone();
        s_mask[item('c').id() as usize] = true;
        s_mask[item('g').id() as usize] = true;
        let bound = ExtElem { item: item('a'), mode: ExtMode::Sequence };
        let got = min_ext_elem(&red, &prefix, &none, &s_mask, Some(bound)).unwrap();
        assert_eq!(got, ExtElem { item: item('c'), mode: ExtMode::Sequence });
    }

    #[test]
    fn min_ext_elem_prefers_itemset_form() {
        // With prefix <(a)>, member (a,g)(g): the itemset form (a,g) beats
        // the sequence form (a)(g).
        let s = seq("(a,g)(g)");
        let prefix = Sequence::single(item('a'));
        let all = vec![true; 8];
        let got = min_ext_elem(&s, &prefix, &all, &all, None).unwrap();
        assert_eq!(got, ExtElem { item: item('g'), mode: ExtMode::Itemset });
        // Strictly past it, the sequence form remains.
        let got2 = min_ext_elem(&s, &prefix, &all, &all, Some(got)).unwrap();
        assert_eq!(got2, ExtElem { item: item('g'), mode: ExtMode::Sequence });
        assert_eq!(min_ext_elem(&s, &prefix, &all, &all, Some(got2)), None);
    }

    #[test]
    fn min_ext_elem_with_longer_prefix_uses_beta_embedding() {
        // Prefix <(a)(b)>: the leftmost full embedding ends at the first (b),
        // but the itemset extension (b, d) in the second (b, d) transaction
        // must still be found (β = <(a)> ends at txn 0).
        let s = seq("(a)(b)(b,d)");
        let prefix = seq("(a)(b)");
        let all = vec![true; 8];
        let got = min_ext_elem(&s, &prefix, &all, &all, None).unwrap();
        assert_eq!(got, ExtElem { item: item('b'), mode: ExtMode::Sequence });
        let got2 = min_ext_elem(&s, &prefix, &all, &all, Some(got)).unwrap();
        assert_eq!(got2, ExtElem { item: item('d'), mode: ExtMode::Itemset });
    }

    #[test]
    fn min_ext_elem_none_when_prefix_absent_or_unextendable() {
        let all = vec![true; 8];
        assert_eq!(
            min_ext_elem(&seq("(b)(c)"), &Sequence::single(item('a')), &all, &all, None),
            None
        );
        assert_eq!(min_ext_elem(&seq("(a)"), &Sequence::single(item('a')), &all, &all, None), None);
    }

    #[test]
    fn chain_enumerates_frequent_extensions_in_order() {
        // The chain of bounds must walk every frequent extension exactly once,
        // ascending.
        let s = seq("(a,c)(b)(c)");
        let prefix = Sequence::single(item('a'));
        let all = vec![true; 8];
        let mut chain = Vec::new();
        let mut bound = None;
        while let Some(e) = min_ext_elem(&s, &prefix, &all, &all, bound) {
            chain.push(prefix.extended(e).to_string());
            bound = Some(e);
        }
        assert_eq!(chain, vec!["(a)(b)", "(a, c)", "(a)(c)"]);
    }
}
