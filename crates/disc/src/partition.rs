//! Multi-level partitioning (Section 3.1): grouping customer sequences by
//! their minimum prefixes, reducing them, and listing each partition's
//! members by **transposition**.
//!
//! The load-bearing property is *lifetime completeness*: partitions are
//! processed in ascending key order, and the paper's reassignment chains
//! (steps 2.2 and 2.1.3.3 of Figure 2) move each member, after a partition
//! is processed, to the partition of its **next** frequent minimum. A
//! sequence's chain therefore visits, in ascending order, exactly the
//! frequent keys it contains — so when a partition's turn comes, *every*
//! supporter of its key is present, which is why counting arrays and DISC
//! buckets inside a partition produce exact global supports.
//!
//! The engine builds that membership directly (`MemberLists`): each
//! member names the frequent keys it contains, and each key lists the
//! members that named it — the transpose of the chains' routes, built once
//! per level instead of replayed hop by hop. At the first level
//! (`first_level_members`) a member is a row with its *minimum point* in
//! the `<(λ)>`-partition — the first transaction containing `λ`. The
//! first-level step sees a member from its minimum point on, and
//! [`reduce_into`] also drops the items below the partition item there: no
//! pattern starting with that item can embed left of it
//! (`docs/ALGORITHM.md` §6). Deeper levels list rows by their masked
//! extension sets (`extension_lists`). Every level reads the rows of the
//! projection onto the frequent items (`frequent_projection`) when the
//! engine built one.

use crate::counting::FrequencyMasks;
use crate::kms::{all_extensions, decode_elem, encode_elem, min_extension_where};
use disc_core::{
    AbortReason, ExtElem, ExtMode, FlatArena, FlatDb, Item, MineGuard, SeqView, Sequence,
};
use std::collections::BTreeMap;

/// Groups database rows by their minimum 1-sequence (Step 1(b) of Figure 2).
/// Keys include non-frequent items — the paper's Table 6 grouping, which
/// the NRR statistics read. The partition engine lists rows under their
/// frequent items only (`first_level_members`), which skips the
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

/// A first-level partition member: a database row and its minimum point
/// in the partition (the first transaction containing the partition item).
pub(crate) type Member = (u32, u32);

/// One partition level's member lists: for each key, ascending, the members
/// whose key set contains it, in ascending member order — the membership
/// the reassignment chains would hand each partition at its turn.
///
/// Built by transposition as a counting sort ([`MemberLists::transpose`]):
/// one pass counts each key's members, a second lays them out in one shared
/// column. A level costs one entry per (member, key) pair and one offset
/// per key.
pub(crate) struct MemberLists<K, M> {
    keys: Vec<K>,
    /// Key `i` lists `members[starts[i]..starts[i + 1]]`.
    starts: Vec<usize>,
    members: Vec<M>,
}

/// The write side of [`MemberLists::transpose`]: counts on the first pass,
/// places members on the second.
pub(crate) struct Transposer<M> {
    /// While counting, `starts[i + 1]` is key `i`'s member count.
    starts: Vec<usize>,
    members: Vec<M>,
    /// Per key, the next free slot of its list; empty while counting.
    cursor: Vec<usize>,
}

impl<M: Copy + Default> Transposer<M> {
    /// Records that `member` contains the key at position `key`.
    #[inline]
    pub(crate) fn add(&mut self, key: usize, member: M) {
        if self.cursor.is_empty() {
            self.starts[key + 1] += 1;
        } else {
            self.members[self.cursor[key]] = member;
            self.cursor[key] += 1;
        }
    }
}

impl<K: Copy, M: Copy + Default> MemberLists<K, M> {
    /// Lists the members of each of `keys` (ascending). `enumerate` runs
    /// twice and must [`add`](Transposer::add) the same `(key position,
    /// member)` pairs both times, members in ascending order.
    pub(crate) fn transpose<E>(
        keys: Vec<K>,
        mut enumerate: impl FnMut(&mut Transposer<M>) -> Result<(), E>,
    ) -> Result<MemberLists<K, M>, E> {
        let mut t = Transposer { starts: vec![0; keys.len() + 1], members: vec![], cursor: vec![] };
        enumerate(&mut t)?;
        for i in 0..keys.len() {
            t.starts[i + 1] += t.starts[i];
        }
        t.members = vec![M::default(); t.starts[keys.len()]];
        t.cursor = t.starts[..keys.len()].to_vec();
        enumerate(&mut t)?;
        debug_assert!(t.cursor.iter().zip(&t.starts[1..]).all(|(c, s)| c == s));
        Ok(MemberLists { keys, starts: t.starts, members: t.members })
    }

    /// Every key with its member list, ascending by key.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (K, &[M])> + '_ {
        let lists = self.starts.windows(2).map(|w| &self.members[w[0]..w[1]]);
        self.keys.iter().copied().zip(lists)
    }
}

/// The first-level partitions (Step 1(b) and the chains of Step 2.2 of
/// Figure 2): for each frequent item `λ`, ascending, every row containing
/// `λ`, ascending, each with its minimum point — the first transaction
/// containing `λ`. One scan of the rows per transposition pass.
pub(crate) fn first_level_members(
    flat: &FlatDb,
    freq1: &[bool],
    guard: &MineGuard,
) -> Result<MemberLists<Item, Member>, AbortReason> {
    const NONE: u32 = u32::MAX;
    let mut position = vec![NONE; freq1.len()];
    let mut keys = Vec::new();
    for (id, _) in freq1.iter().enumerate().filter(|&(_, &f)| f) {
        position[id] = keys.len() as u32;
        keys.push(Item(id as u32));
    }
    // The last row that named each item: a row names an item once, at its
    // first transaction containing it.
    let mut named_by = vec![NONE; freq1.len()];
    MemberLists::transpose(keys, |lists| {
        named_by.fill(NONE);
        for (r, row) in flat.rows().enumerate() {
            guard.checkpoint()?;
            let r = r as u32;
            for t in 0..row.n_transactions() {
                for x in row.itemset_items(t) {
                    let i = x.id() as usize;
                    if position[i] != NONE && named_by[i] != r {
                        named_by[i] = r;
                        lists.add(position[i] as usize, (r, t as u32));
                    }
                }
            }
        }
        Ok(())
    })
}

/// The frequent-item projection is built only when it keeps at most
/// `1 / PROJECTION_MIN_SHRINK` of the item column — half. Every dropped
/// occurrence saves at least the two passes of the first-level
/// transposition, so a projection that halves the column pays for its
/// one copy; and over a mapped `DSCFD1` file the heap it adds stays below
/// half of the file's item column.
const PROJECTION_MIN_SHRINK: usize = 2;

/// The projection of `flat` onto its frequent items, when it pays
/// ([`PROJECTION_MIN_SHRINK`]); `None` otherwise. Row `r` of the
/// projection is row `r` of `flat` without the items `freq1` does not
/// flag and the transactions that leaves empty, so rows stay aligned —
/// row weights, member row ids and partition keys keep their meaning, and
/// item ids are not remapped.
///
/// Exact for every pattern of frequent items, which every frequent pattern
/// is: deleting other items and empty transactions keeps each of its
/// embeddings and creates none. One checkpoint per row.
pub(crate) fn frequent_projection(
    flat: &FlatDb,
    freq1: &[bool],
    guard: &MineGuard,
) -> Result<Option<FlatDb>, AbortReason> {
    let (items, set_starts, _) = flat.columns();
    let frequent = |x: Item| freq1[x.id() as usize];
    let cap = items.len() / PROJECTION_MIN_SHRINK;
    let kept = items.iter().filter(|&&x| frequent(x)).take(cap + 1).count();
    if kept > cap {
        return Ok(None);
    }
    let n_sets = kept.min(set_starts.len() - 1);
    let mut arena = FlatArena::with_capacity(kept, n_sets + 1, flat.len() + 1);
    for row in flat.rows() {
        guard.checkpoint()?;
        arena.push_filtered(row, |_, x| frequent(x));
    }
    let max_item = freq1.iter().rposition(|&f| f).map(|id| Item(id as u32));
    Ok(Some(FlatDb::from_arena(arena, max_item)))
}

/// The next-level partitions of a partition whose rows' extension sets
/// `exts` holds: for each of `keys` (its frequent one-element extensions,
/// ascending), every row whose extension set contains the key, ascending.
///
/// `slot_of` maps encoded extensions to key positions; it must be
/// `u32::MAX` throughout on entry (at least `2 · n_items` long) and is left
/// that way.
pub(crate) fn extension_lists(
    exts: &RowExtensions,
    keys: Vec<ExtElem>,
    slot_of: &mut [u32],
) -> MemberLists<ExtElem, u32> {
    for (i, &e) in keys.iter().enumerate() {
        slot_of[encode_elem(e) as usize] = i as u32;
    }
    let lists = MemberLists::transpose(keys, |lists| {
        for row in 0..exts.len() {
            for &w in exts.row(row) {
                let slot = slot_of[w as usize];
                if slot != u32::MAX {
                    lists.add(slot as usize, row as u32);
                }
            }
        }
        Ok::<_, std::convert::Infallible>(())
    });
    let Ok(lists) = lists;
    for &e in &lists.keys {
        slot_of[encode_elem(e) as usize] = u32::MAX;
    }
    lists
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
/// "(conditional) (j+1)-minimum subsequence" that keys next-level
/// partitions. Walking its bounds from `None` visits a member's
/// reassignment chain: every frequent extension it contains, ascending.
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

/// The precomputed extension sets of a partition's rows: per row, every
/// realizable one-element extension of the partition prefix, ascending in
/// the order-preserving encoding of [`crate::kms`].
///
/// One embedding walk per row computes the set; the next level's member
/// lists (`extension_lists`) are its transpose, restricted to the
/// frequent extensions. Sets live in one shared arena, indexed in lockstep
/// with the partition's rows ([`FlatArena`] rows at the second level).
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

    /// The number of rows.
    pub(crate) fn len(&self) -> usize {
        self.spans.len()
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

    /// The extension set of `row`, encoded, ascending.
    pub(crate) fn row(&self, row: usize) -> &[u64] {
        let (start, end) = self.spans[row];
        &self.arena[start as usize..end as usize]
    }

    /// Whether `row` has an extension the masks admit.
    pub(crate) fn any_masked(&self, row: usize, masks: &FrequencyMasks) -> bool {
        self.row(row).iter().any(|&w| masks.admits(decode_elem(w)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::count_extensions;
    use disc_core::embed::contains;
    use disc_core::{parse_sequence, Itemset, SequenceDatabase};

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

    /// The lists of `lists`, owned.
    fn owned<K: Copy, M: Copy + Default>(lists: &MemberLists<K, M>) -> Vec<(K, Vec<M>)> {
        lists.iter().map(|(k, members)| (k, members.to_vec())).collect()
    }

    /// The first-level partitions by definition: for each frequent item,
    /// ascending, every row containing it, ascending, with the first
    /// transaction that contains it.
    fn first_level_by_definition(
        db: &SequenceDatabase,
        freq1: &[bool],
    ) -> Vec<(Item, Vec<Member>)> {
        let frequent = (0..freq1.len() as u32).filter(|&id| freq1[id as usize]).map(Item);
        frequent
            .map(|x| {
                let rows = (0..db.len()).filter_map(|r| {
                    db.sequence(r).first_txn_containing(x).map(|t| (r as u32, t as u32))
                });
                (x, rows.collect())
            })
            .collect()
    }

    /// The second-level partitions of the `<(λ)>`-partition: its members
    /// reduced from their minimum points, their extension sets, and the
    /// lists of its frequent 2-sequences at δ — the first-level step's own
    /// construction.
    fn second_level(
        db: &SequenceDatabase,
        lambda: Item,
        delta: u64,
    ) -> (FlatArena, Vec<ExtElem>, MemberLists<ExtElem, u32>) {
        let flat = FlatDb::from_database(db);
        let n_items = db.max_item().map_or(0, |m| m.id() as usize + 1);
        let prefix = Sequence::single(lambda);
        let views: Vec<_> = (0..db.len())
            .filter_map(|r| db.sequence(r).first_txn_containing(lambda).map(|t| (r, t)))
            .map(|(r, t)| flat.row(r).from_transaction(t))
            .collect();
        let array = count_extensions(&prefix, views.iter().copied(), n_items);
        let mut masks = FrequencyMasks::default();
        masks.fill(&array, delta);
        let (mut arena, mut exts) = (FlatArena::new(), RowExtensions::new());
        for &view in &views {
            if let Some(row) =
                reduce_into(&mut arena, view, lambda, &masks.itemset, &masks.sequence)
            {
                exts.push_row(arena.row(row), &prefix);
                if !exts.any_masked(row, &masks) {
                    arena.pop_row();
                    exts.pop_row();
                }
            }
        }
        let keys: Vec<ExtElem> =
            array.frequent_extensions(delta).into_iter().map(|(e, _)| e).collect();
        let mut slot_of = vec![u32::MAX; 2 * n_items];
        let lists = extension_lists(&exts, keys.clone(), &mut slot_of);
        assert!(slot_of.iter().all(|&s| s == u32::MAX), "slot_of left dirty");
        (arena, keys, lists)
    }

    /// Each second-level list holds, ascending, exactly the reduced rows
    /// that contain its key's 2-sequence (equivalently, whose masked
    /// extension set holds the key), and every frequent key has a list.
    fn assert_second_level_by_definition(db: &SequenceDatabase, lambda: Item, delta: u64) {
        let (arena, keys, lists) = second_level(db, lambda, delta);
        let prefix = Sequence::single(lambda);
        let got = owned(&lists);
        assert_eq!(got.iter().map(|(e, _)| *e).collect::<Vec<_>>(), keys);
        for (elem, rows) in got {
            let pattern = prefix.extended(elem);
            let want: Vec<u32> = (0..arena.len() as u32)
                .filter(|&r| contains(&arena.row(r as usize).to_sequence(), &pattern))
                .collect();
            assert_eq!(rows, want, "<{pattern}>-partition");
        }
    }

    #[test]
    fn table_6_first_level_lists_every_row_containing_the_key() {
        // All 1-sequences except <(d)> are frequent (Example 3.1).
        let db = table6();
        let flat = FlatDb::from_database(&db);
        let mut freq1 = vec![true; 8];
        freq1[item('d').id() as usize] = false;
        let lists = first_level_members(&flat, &freq1, &MineGuard::unlimited()).unwrap();
        let got = owned(&lists);
        assert_eq!(got, first_level_by_definition(&db, &freq1));
        let rows = |c: char| -> Vec<u32> {
            let (_, members) = got.iter().find(|(x, _)| *x == item(c)).unwrap();
            members.iter().map(|&(r, _)| r).collect()
        };
        assert_eq!(rows('a'), [0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(rows('c'), [0, 1, 2, 3, 9]);
        assert!(got.iter().all(|(x, _)| *x != item('d')));
        // CID 2 = (b)(a)(f)(a,c,e,g) enters the <(a)>-partition at its
        // second transaction.
        assert_eq!(got[0].1[1], (1, 1));
    }

    #[test]
    fn table_6_reassignment_after_processing_a() {
        // Example 3.1: after the <(a)>-partition, CIDs 1 and 2 go to <(c)>
        // and <(b)>. All 1-sequences except <(d)> are frequent, so a
        // chain skips d. The partitions a row's member lists name, in key
        // order, are its reassignment chain.
        let flat = FlatDb::from_database(&table6());
        let mut freq1 = vec![true; 8];
        freq1[item('d').id() as usize] = false;
        let lists = first_level_members(&flat, &freq1, &MineGuard::unlimited()).unwrap();
        let got = owned(&lists);
        let stops = |r: u32| -> Vec<(Item, u32)> {
            let stops = got.iter().filter_map(|(x, members)| {
                let &(_, t) = members.iter().find(|&&(row, _)| row == r)?;
                Some((*x, t))
            });
            stops.collect()
        };
        let chain = |r: u32| -> Vec<String> {
            let stop = |&(x, t): &(Item, u32)| format!("{}@{t}", x.as_letter().unwrap());
            stops(r).iter().map(stop).collect()
        };
        // CID 1 = (a,d)(d)(a,g,h)(c): d never appears on its chain, and
        // each stop carries its minimum point.
        assert_eq!(chain(0), ["a@0", "c@3", "g@2", "h@2"]);
        // CID 2 = (b)(a)(f)(a,c,e,g) enters the <(a)>-partition at its
        // second transaction.
        assert_eq!(chain(1), ["a@1", "b@0", "c@3", "e@3", "f@2", "g@3"]);
        // CID 9 = (d,f)(d,f,g,h)
        assert_eq!(chain(8), ["f@0", "g@1", "h@1"]);
        let expected = [
            'c', // CID 1: (a,d)(d)(a,g,h)(c) — d is non-frequent
            'b', 'c', 'c',
            // CID 5 = (a,g): the paper removes it ("minimum point at its
            // end" — nothing frequent follows in a useful way); its next
            // minimum 1-sequence is g, and the partition of <(g)> simply
            // finds nothing of length ≥ 2 in it.
            'g', 'e', 'b',
        ];
        for (r, want) in expected.iter().enumerate() {
            let stops = stops(r as u32);
            let (next, _) = stops[stops.partition_point(|&(x, _)| x <= item('a'))];
            assert_eq!(next.as_letter(), Some(*want), "CID {}", r + 1);
        }
    }

    #[test]
    fn table_6_second_level_lists_rows_by_their_masked_extensions() {
        // The <(a)>-partition at δ = 3: CID 5 shrinks below length 3, and
        // the <(a)(a)>-partition holds the other six reduced rows (Table 8).
        let db = table6();
        let (arena, _, lists) = second_level(&db, item('a'), 3);
        assert_eq!(arena.len(), 6);
        let got = owned(&lists);
        let a_a = ExtElem { item: item('a'), mode: ExtMode::Sequence };
        assert_eq!(got[0], (a_a, vec![0, 1, 2, 3, 4, 5]));
        assert_second_level_by_definition(&db, item('a'), 3);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn member_lists_match_their_definitions(
            rows in proptest::collection::vec(
                proptest::collection::vec(proptest::collection::btree_set(0..6u32, 1..=3), 1..=4),
                1..=12,
            ),
            delta in 1..=4u64,
        ) {
            let seqs = rows.into_iter().map(|txns| {
                Sequence::new(txns.into_iter().map(|t| Itemset::new(t.into_iter().map(Item)).unwrap()).collect::<Vec<_>>())
            });
            let db = SequenceDatabase::from_sequences(seqs.collect::<Vec<_>>());
            let flat = FlatDb::from_database(&db);
            let n_items = db.max_item().map_or(0, |m| m.id() as usize + 1);
            let freq1: Vec<bool> = (0..n_items as u32)
                .map(|id| (0..db.len()).filter(|&r| db.sequence(r).first_txn_containing(Item(id)).is_some()).count() as u64 >= delta)
                .collect();
            let lists = first_level_members(&flat, &freq1, &MineGuard::unlimited()).unwrap();
            proptest::prop_assert_eq!(owned(&lists), first_level_by_definition(&db, &freq1));
            for (lambda, _) in lists.iter() {
                assert_second_level_by_definition(&db, lambda, delta);
            }
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

    /// The flags of the items spelled by `letters`, `n` ids long.
    fn flags(letters: &str, n: usize) -> Vec<bool> {
        let mut freq1 = vec![false; n];
        for c in letters.chars() {
            freq1[item(c).id() as usize] = true;
        }
        freq1
    }

    #[test]
    fn projection_is_built_when_it_keeps_at_most_half_the_items() {
        // Four occurrences: keeping two is half, keeping three is more.
        let flat = FlatDb::from_database(&SequenceDatabase::from_parsed(&["(a,x)(b,y)"]).unwrap());
        let guard = MineGuard::unlimited();
        let n = flat.max_item().unwrap().id() as usize + 1;
        let half = frequent_projection(&flat, &flags("ab", n), &guard).unwrap();
        let half = half.expect("keeping half the items projects");
        assert_eq!(half.row(0).to_sequence(), seq("(a)(b)"));
        assert_eq!(half.max_item(), Some(item('b')));
        assert!(frequent_projection(&flat, &flags("abx", n), &guard).unwrap().is_none());
    }

    #[test]
    fn projection_keeps_rows_aligned_and_moves_minimum_points() {
        // Row 0's leading transaction holds only non-frequent items, so
        // its <(a)> minimum point moves from transaction 1 to 0; row 1
        // empties and stays, as an empty row.
        let db = SequenceDatabase::from_parsed(&["(p,q,r)(a,b)(s)(c)", "(t,u)", "(a)(c)"]).unwrap();
        let flat = FlatDb::from_database(&db);
        let guard = MineGuard::unlimited();
        let freq1 = flags("abc", flat.max_item().unwrap().id() as usize + 1);
        let projection = frequent_projection(&flat, &freq1, &guard).unwrap().unwrap();
        assert_eq!(projection.len(), 3);
        assert_eq!(projection.row(0).to_sequence(), seq("(a,b)(c)"));
        assert_eq!(projection.row(1).n_transactions(), 0);
        assert_eq!(projection.row(2).to_sequence(), seq("(a)(c)"));
        let a_members = |flat: &FlatDb| {
            let lists = first_level_members(flat, &freq1, &guard).unwrap();
            let a = lists.iter().next().map(|(key, members)| (key, members.to_vec()));
            a
        };
        assert_eq!(a_members(&flat), Some((item('a'), vec![(0, 1), (2, 0)])));
        assert_eq!(a_members(&projection), Some((item('a'), vec![(0, 0), (2, 0)])));
    }

    #[test]
    fn a_cancel_stops_the_projection_pass() {
        let flat = FlatDb::from_database(&SequenceDatabase::from_parsed(&["(a,x)(b,y)"]).unwrap());
        let guard =
            MineGuard::new(disc_core::CancelToken::new(), disc_core::ResourceBudget::unlimited())
                .with_checkpoint_interval(1);
        guard.token().cancel();
        let freq1 = flags("ab", flat.max_item().unwrap().id() as usize + 1);
        assert_eq!(frequent_projection(&flat, &freq1, &guard).err(), Some(AbortReason::Cancelled));
    }
}
