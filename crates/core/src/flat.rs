//! Flat (CSR-style) sequence storage and zero-copy sequence views.
//!
//! The miners' hot paths — k-minimum-subsequence computation, counting-array
//! scans, containment tests — spend their time walking itemsets of customer
//! sequences. The nested [`Sequence`] → [`crate::Itemset`] → `Vec<Item>`
//! representation scatters every transaction behind its own heap allocation,
//! so those walks are pointer chases; and the partition machinery used to
//! clone whole sequences (or reference-count them) just to regroup members.
//!
//! This module stores a whole collection of sequences in one contiguous
//! **arena** of three parallel arrays (the classic CSR layout):
//!
//! ```text
//! items:      [ a e g | b | h | f | c | b f | b | d f | e | ... ]
//! set_starts: [ 0     3   4   5   6   7     9  10    12  13 ... ]   (+ final sentinel)
//! row_sets:   [ 0, 6, 9, ... ]           row r's itemset boundaries are
//!                                        set_starts[row_sets[r] ..= row_sets[r+1]]
//! ```
//!
//! * a [`FlatSeq`] is a `Copy` **view** of one row — two borrowed slices, no
//!   allocation, no reference counting;
//! * the [`SeqView`] trait abstracts over `&Sequence` and [`FlatSeq`] so one
//!   generic kernel (compare, embed, count, extend) serves both, selected by
//!   monomorphization — the nested representation keeps working everywhere,
//!   the flat one is used on the hot paths;
//! * [`FlatSeq::from_transaction`] views a row from one of its transactions
//!   on, with no copy — how a first-level partition sees its members from
//!   their minimum point.
//!
//! Views never materialize owned [`Sequence`]s during mining; patterns are
//! still built as owned sequences, but only at result-reporting time (they
//! come from `prefix.extended(elem)` chains, never from members).

use crate::compact::ItemMapping;
use crate::database::SequenceDatabase;
use crate::item::Item;
use crate::itemset::Itemset;
use crate::sequence::Sequence;
use crate::storage::DbStorage;
use std::marker::PhantomData;

/// A read-only, `Copy`-able view of a sequence: everything the mining
/// kernels need, implementable without owning the data.
///
/// Transaction numbers are positional — the flattened pair of the `i`-th
/// item of transaction `t` is `(item, t + 1)` — so a view carries no
/// explicit transaction-number storage.
pub trait SeqView<'a>: Copy {
    /// Number of transactions (itemsets).
    fn n_transactions(self) -> usize;

    /// The sorted items of transaction `t`.
    fn itemset_items(self, t: usize) -> &'a [Item];

    /// The paper's *length*: total item occurrences.
    fn length(self) -> usize {
        (0..self.n_transactions()).map(|t| self.itemset_items(t).len()).sum()
    }

    /// Index of the leftmost transaction containing `item` (the *minimum
    /// point* of the `<(item)>`-partition the sequence lives in).
    fn first_txn_containing(self, item: Item) -> Option<usize> {
        (0..self.n_transactions()).find(|&t| self.itemset_items(t).binary_search(&item).is_ok())
    }
}

impl<'a> SeqView<'a> for &'a Sequence {
    #[inline]
    fn n_transactions(self) -> usize {
        Sequence::n_transactions(self)
    }

    #[inline]
    fn itemset_items(self, t: usize) -> &'a [Item] {
        self.itemset(t).as_slice()
    }

    #[inline]
    fn length(self) -> usize {
        Sequence::length(self)
    }

    fn first_txn_containing(self, item: Item) -> Option<usize> {
        Sequence::first_txn_containing(self, item)
    }
}

/// Iterates a view's flattened `(item, transaction-number)` pairs with
/// 1-based transaction numbers — the generic counterpart of
/// [`Sequence::flat_iter`].
pub fn flat_pairs<'a, S: SeqView<'a>>(view: S) -> FlatPairs<'a, S> {
    FlatPairs { view, txn: 0, idx: 0, _marker: PhantomData }
}

/// Iterator returned by [`flat_pairs`].
#[derive(Debug, Clone)]
pub struct FlatPairs<'a, S: SeqView<'a>> {
    view: S,
    txn: usize,
    idx: usize,
    _marker: PhantomData<&'a ()>,
}

impl<'a, S: SeqView<'a>> Iterator for FlatPairs<'a, S> {
    type Item = (Item, u32);

    fn next(&mut self) -> Option<(Item, u32)> {
        while self.txn < self.view.n_transactions() {
            let set = self.view.itemset_items(self.txn);
            if self.idx < set.len() {
                let item = set[self.idx];
                self.idx += 1;
                return Some((item, self.txn as u32 + 1));
            }
            self.txn += 1;
            self.idx = 0;
        }
        None
    }
}

/// One row of a [`FlatArena`]: a zero-copy sequence view (two slices).
#[derive(Debug, Clone, Copy)]
pub struct FlatSeq<'a> {
    /// The arena's full item array; `sets` holds global indices into it.
    items: &'a [Item],
    /// This row's itemset boundaries: `n_transactions + 1` entries, so
    /// transaction `t` spans `items[sets[t]..sets[t + 1]]`.
    sets: &'a [u32],
}

impl<'a> FlatSeq<'a> {
    /// The same row viewed from transaction `t` on: the transactions
    /// before `t` drop out and `t` becomes transaction 0. No copy — the
    /// view's boundary slice starts `t` entries later.
    #[inline]
    pub fn from_transaction(self, t: usize) -> FlatSeq<'a> {
        FlatSeq { items: self.items, sets: &self.sets[t..] }
    }

    /// Materializes an owned [`Sequence`] — tests and result conversion
    /// only; mining kernels stay on the view.
    pub fn to_sequence(self) -> Sequence {
        Sequence::new(
            (0..self.n_transactions())
                .map(|t| Itemset::from_sorted(self.itemset_items(t).to_vec())),
        )
    }
}

impl<'a> SeqView<'a> for FlatSeq<'a> {
    #[inline]
    fn n_transactions(self) -> usize {
        self.sets.len() - 1
    }

    #[inline]
    fn itemset_items(self, t: usize) -> &'a [Item] {
        &self.items[self.sets[t] as usize..self.sets[t + 1] as usize]
    }

    #[inline]
    fn length(self) -> usize {
        (self.sets[self.sets.len() - 1] - self.sets[0]) as usize
    }
}

/// Contiguous CSR storage for a collection of sequences.
///
/// Rows are append-only except for [`FlatArena::pop_row`], which rolls back
/// the most recent append — the reduction loop uses it to discard rows that
/// shrink below usefulness without leaving holes.
#[derive(Debug, Clone)]
pub struct FlatArena {
    /// All items of all rows, row-major, transactions in order, items
    /// ascending within a transaction.
    items: Vec<Item>,
    /// Itemset boundaries into `items`, across all rows, with a trailing
    /// sentinel (`set_starts[0] == 0`, last entry `== items.len()`).
    set_starts: Vec<u32>,
    /// Row `r`'s boundaries live at `set_starts[row_sets[r]..=row_sets[r+1]]`
    /// (`row_sets.len() == n_rows + 1`).
    row_sets: Vec<u32>,
}

impl Default for FlatArena {
    fn default() -> FlatArena {
        FlatArena::new()
    }
}

impl FlatArena {
    /// An empty arena.
    pub fn new() -> FlatArena {
        FlatArena { items: Vec::new(), set_starts: vec![0], row_sets: vec![0] }
    }

    /// An empty arena with item capacity reserved up front.
    pub fn with_capacity(items: usize, sets: usize, rows: usize) -> FlatArena {
        let mut arena = FlatArena::new();
        arena.items.reserve(items);
        arena.set_starts.reserve(sets);
        arena.row_sets.reserve(rows);
        arena
    }

    /// Empties the arena, keeping its allocations for reuse.
    pub fn clear(&mut self) {
        self.items.clear();
        self.set_starts.clear();
        self.set_starts.push(0);
        self.row_sets.clear();
        self.row_sets.push(0);
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.row_sets.len() - 1
    }

    /// True when no rows are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> FlatSeq<'_> {
        let s0 = self.row_sets[r] as usize;
        let s1 = self.row_sets[r + 1] as usize;
        FlatSeq { items: &self.items, sets: &self.set_starts[s0..=s1] }
    }

    /// Iterates all row views in order.
    pub fn rows(&self) -> impl Iterator<Item = FlatSeq<'_>> + '_ {
        (0..self.len()).map(|r| self.row(r))
    }

    /// Appends a sequence as a new row; returns its row index.
    pub fn push_sequence(&mut self, s: &Sequence) -> usize {
        for set in s.itemsets() {
            self.items.extend_from_slice(set.as_slice());
            self.set_starts.push(self.items.len() as u32);
        }
        self.finish_row()
    }

    /// Appends a filtered copy of `src` as a new row, keeping only item
    /// occurrences accepted by `keep(txn_index, item)`. Emptied transactions
    /// disappear (later transactions renumber implicitly — boundaries are
    /// positional). Returns the new row index; the row may be empty.
    pub fn push_filtered<'a, S: SeqView<'a>>(
        &mut self,
        src: S,
        mut keep: impl FnMut(usize, Item) -> bool,
    ) -> usize {
        for t in 0..src.n_transactions() {
            let before = self.items.len();
            for &item in src.itemset_items(t) {
                if keep(t, item) {
                    self.items.push(item);
                }
            }
            if self.items.len() > before {
                self.set_starts.push(self.items.len() as u32);
            }
        }
        self.finish_row()
    }

    fn finish_row(&mut self) -> usize {
        self.row_sets.push((self.set_starts.len() - 1) as u32);
        self.len() - 1
    }

    /// Rolls back the most recently appended row, reclaiming its storage.
    pub fn pop_row(&mut self) {
        let r = self.len().checked_sub(1).expect("pop_row on an empty arena");
        let first_set = self.row_sets[r] as usize;
        self.row_sets.pop();
        self.set_starts.truncate(first_set + 1);
        self.items.truncate(self.set_starts[first_set] as usize);
    }
}

/// A whole [`SequenceDatabase`] in flat storage: built once per mining run,
/// shared read-only across partition walks and parallel shards.
///
/// The three CSR columns live in [`DbStorage`], so a `FlatDb` is either
/// heap-owned (built by [`FlatDb::from_database`]) or borrowed zero-copy
/// from a memory-mapped [`crate::flatfile`] snapshot — the mining kernels
/// cannot tell the difference: [`FlatDb::row`] hands out the same borrowed
/// [`FlatSeq`] slices either way.
#[derive(Debug, Clone)]
pub struct FlatDb {
    /// All items of all rows, row-major (the arena's `items` column).
    items: DbStorage<Item>,
    /// Itemset boundaries into `items`, with a trailing sentinel.
    set_starts: DbStorage<u32>,
    /// Row boundaries into `set_starts` (`row_sets.len() == n_rows + 1`).
    row_sets: DbStorage<u32>,
    /// The largest item id present, cached so miners can size counting
    /// arrays without owning the source [`SequenceDatabase`].
    max_item: Option<Item>,
}

impl FlatDb {
    /// Copies every database row into one contiguous arena.
    pub fn from_database(db: &SequenceDatabase) -> FlatDb {
        FlatDb::from_arena(FlatDb::arena_of(db), db.max_item())
    }

    /// Flattens `db` onto the compact ids of `mapping`, which must have
    /// been [analyzed](ItemMapping::analyze) from `db`: the columns of the
    /// remapped database, without building the remapped nested copy. The
    /// mapping preserves item order, so itemsets stay ascending.
    pub fn from_database_compacted(db: &SequenceDatabase, mapping: &ItemMapping) -> FlatDb {
        let mut arena = FlatDb::arena_of(db);
        if !mapping.is_identity() {
            mapping.compact_items(&mut arena.items);
        }
        let max_item = mapping.len().checked_sub(1).map(|m| Item(m as u32));
        FlatDb::from_arena(arena, max_item)
    }

    /// The columns of `db` in its own ids, not yet wrapped: callers that
    /// already know the largest id pass both to [`FlatDb::from_arena`].
    pub fn arena_of(db: &SequenceDatabase) -> FlatArena {
        let total_items: usize = db.sequences().map(Sequence::length).sum();
        let total_sets: usize = db.sequences().map(Sequence::n_transactions).sum();
        let mut arena = FlatArena::with_capacity(total_items, total_sets + 1, db.len() + 1);
        for seq in db.sequences() {
            arena.push_sequence(seq);
        }
        arena
    }

    /// Wraps an already-built arena, taking ownership of its columns.
    /// `max_item` must be the largest item present in the arena (`None`
    /// for an item-free arena); callers that flattened a database pass its
    /// known maximum instead of re-scanning.
    pub fn from_arena(arena: FlatArena, max_item: Option<Item>) -> FlatDb {
        debug_assert_eq!(max_item, arena.items.iter().max().copied());
        FlatDb {
            items: arena.items.into(),
            set_starts: arena.set_starts.into(),
            row_sets: arena.row_sets.into(),
            max_item,
        }
    }

    /// Assembles a database directly from its three CSR columns (any
    /// storage backend) — the [`crate::flatfile`] loader's entry point.
    /// The columns must satisfy the arena invariants (validated by the
    /// loader): both boundary columns non-empty, starting at 0, monotone,
    /// and in bounds of the next column out.
    pub fn from_columns(
        items: DbStorage<Item>,
        set_starts: DbStorage<u32>,
        row_sets: DbStorage<u32>,
        max_item: Option<Item>,
    ) -> FlatDb {
        FlatDb { items, set_starts, row_sets, max_item }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.row_sets.len() - 1
    }

    /// True when the database had no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The largest item id present, or `None` for an item-free database —
    /// the flat counterpart of [`SequenceDatabase::max_item`].
    #[inline]
    pub fn max_item(&self) -> Option<Item> {
        self.max_item
    }

    /// The view of row `i` (same index space as the source database).
    #[inline]
    pub fn row(&self, i: usize) -> FlatSeq<'_> {
        let s0 = self.row_sets[i] as usize;
        let s1 = self.row_sets[i + 1] as usize;
        FlatSeq { items: &self.items, sets: &self.set_starts[s0..=s1] }
    }

    /// Iterates all row views in database order.
    pub fn rows(&self) -> impl Iterator<Item = FlatSeq<'_>> + '_ {
        (0..self.len()).map(|i| self.row(i))
    }

    /// Whether the columns borrow from a memory mapping (diagnostics).
    pub fn is_mapped(&self) -> bool {
        self.items.is_mapped()
    }

    /// For mapped columns, whether the file they map still has the length
    /// and modification time it had when mapped (see
    /// [`crate::mmap::Mmap::is_unchanged`]); always true on the heap. A
    /// mapped file changed in place may fault or hold rows the loaded
    /// fingerprint never covered, so long-lived holders check this before
    /// mining.
    pub fn file_unchanged(&self) -> bool {
        self.items.file_unchanged()
    }

    /// The raw CSR columns `(items, set_starts, row_sets)` — the encoding
    /// surface for [`crate::flatfile`].
    pub fn columns(&self) -> (&[Item], &[u32], &[u32]) {
        (&self.items, &self.set_starts, &self.row_sets)
    }

    /// A nested copy of the rows, in stored item ids, with positional
    /// customer ids 1, 2, 3, … — the input of miners that take a
    /// [`SequenceDatabase`] (the baselines and oracles).
    pub fn to_database(&self) -> SequenceDatabase {
        SequenceDatabase::from_sequences(self.rows().map(FlatSeq::to_sequence))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_sequence;

    fn seq(s: &str) -> Sequence {
        parse_sequence(s).unwrap()
    }

    fn item(c: char) -> Item {
        Item::from_letter(c).unwrap()
    }

    #[test]
    fn arena_round_trips_sequences() {
        let texts = ["(a,e,g)(b)(h)(f)(c)(b,f)", "(b)(d,f)(e)", "(b,f,g)", "(f)(a,g)(b,f,h)(b,f)"];
        let mut arena = FlatArena::new();
        for t in &texts {
            arena.push_sequence(&seq(t));
        }
        assert_eq!(arena.len(), texts.len());
        for (r, t) in texts.iter().enumerate() {
            let original = seq(t);
            let view = arena.row(r);
            assert_eq!(view.to_sequence(), original, "row {r}");
            assert_eq!(view.length(), original.length());
            assert_eq!(view.n_transactions(), original.n_transactions());
        }
    }

    #[test]
    fn view_flat_pairs_match_flat_iter() {
        let s = seq("(a)(b)(c,d)(e)");
        let mut arena = FlatArena::new();
        arena.push_sequence(&s);
        let via_view: Vec<(Item, u32)> = flat_pairs(arena.row(0)).collect();
        let via_seq: Vec<(Item, u32)> = s.flat_iter().collect();
        assert_eq!(via_view, via_seq);
        // And through the &Sequence impl of the trait.
        let via_ref: Vec<(Item, u32)> = flat_pairs(&s).collect();
        assert_eq!(via_ref, via_seq);
    }

    #[test]
    fn push_filtered_drops_occurrences_and_renumbers() {
        // Table 6 -> Table 7: CID 1 (a,d)(d)(a,g,h)(c) reduced to (a)(a,g,h)(c).
        let s = seq("(a,d)(d)(a,g,h)(c)");
        let mut arena = FlatArena::new();
        let r = arena.push_filtered(&s, |_, i| i != item('d'));
        assert_eq!(arena.row(r).to_sequence(), seq("(a)(a,g,h)(c)"));
        // The emptied second transaction vanished: 3 transactions remain.
        assert_eq!(arena.row(r).n_transactions(), 3);
    }

    #[test]
    fn pop_row_reclaims_storage() {
        let mut arena = FlatArena::new();
        arena.push_sequence(&seq("(a,b)(c)"));
        let before = arena.clone();
        arena.push_sequence(&seq("(d)(e,f)"));
        arena.pop_row();
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.items, before.items);
        assert_eq!(arena.set_starts, before.set_starts);
        assert_eq!(arena.row_sets, before.row_sets);
        // The arena stays usable after a rollback.
        let r = arena.push_sequence(&seq("(g)"));
        assert_eq!(arena.row(r).to_sequence(), seq("(g)"));
    }

    #[test]
    fn empty_rows_are_representable() {
        let mut arena = FlatArena::new();
        let r = arena.push_filtered(&seq("(a)(b)"), |_, _| false);
        assert_eq!(arena.row(r).n_transactions(), 0);
        assert_eq!(arena.row(r).length(), 0);
        assert_eq!(arena.row(r).to_sequence(), Sequence::empty());
    }

    #[test]
    fn flat_db_mirrors_the_database() {
        let db = SequenceDatabase::from_parsed(&["(a,e,g)(b)", "(b)(d,f)(e)", "(b,f,g)"]).unwrap();
        let flat = FlatDb::from_database(&db);
        assert_eq!(flat.len(), db.len());
        for i in 0..db.len() {
            assert_eq!(&flat.row(i).to_sequence(), db.sequence(i));
        }
        assert!(FlatDb::from_database(&SequenceDatabase::new()).is_empty());
    }

    #[test]
    fn compacted_flattening_matches_the_remapped_database() {
        let db = SequenceDatabase::from_parsed(&["(a,e,g)(b)", "(b)(d,f)(e)", "(b,f,g)"]).unwrap();
        let mapping = ItemMapping::analyze(&db);
        assert!(!mapping.is_identity());
        let remapped = mapping.remap_database(&db);
        let flat = FlatDb::from_database_compacted(&db, &mapping);
        assert_eq!(flat.max_item(), remapped.max_item());
        for i in 0..db.len() {
            assert_eq!(&flat.row(i).to_sequence(), remapped.sequence(i));
        }
    }

    #[test]
    fn from_transaction_drops_the_leading_transactions() {
        let s = seq("(b)(a)(f)(a,c,e,g)");
        let mut arena = FlatArena::new();
        arena.push_sequence(&s);
        let row = arena.row(0);
        assert_eq!(row.from_transaction(0).to_sequence(), s);
        assert_eq!(row.from_transaction(1).to_sequence(), seq("(a)(f)(a,c,e,g)"));
        assert_eq!(row.from_transaction(3).length(), 4);
        assert_eq!(row.from_transaction(4).n_transactions(), 0);
    }

    #[test]
    fn view_first_txn_containing_matches_sequence() {
        let s = seq("(b)(a)(f)(a,c,e,g)");
        let mut arena = FlatArena::new();
        arena.push_sequence(&s);
        let view = arena.row(0);
        for c in ['a', 'b', 'c', 'f', 'g', 'z'] {
            assert_eq!(
                view.first_txn_containing(item(c)),
                s.first_txn_containing(item(c)),
                "item {c}"
            );
        }
    }
}
