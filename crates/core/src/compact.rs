//! Item-id compaction.
//!
//! The miners follow the paper in using **dense arrays indexed by item id**
//! (counting arrays, frequency masks, SPAM's per-item bitmaps), which is the
//! right layout for Quest-style catalogs but hostile to sparse id spaces —
//! a database mentioning item `4_000_000_000` would allocate gigabytes of
//! counters. [`ItemMapping`] bijectively remaps the items actually present
//! onto `0..n` and translates results back, preserving the comparative
//! order (the mapping is monotone), so mining a compacted database yields
//! exactly the original patterns after [`ItemMapping::restore_result`].

use crate::database::SequenceDatabase;
use crate::item::Item;
use crate::itemset::Itemset;
use crate::result::MiningResult;
use crate::sequence::Sequence;

/// A monotone bijection between the original item ids and `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemMapping {
    /// Sorted original ids; index = compact id.
    originals: Vec<Item>,
}

impl ItemMapping {
    /// Builds the mapping for a database **without** copying it — one scan
    /// over the items, no remapped rows. Callers that find
    /// [`is_identity`](ItemMapping::is_identity) or decide the mapping is
    /// not [worthwhile](ItemMapping::is_worthwhile) can mine the original
    /// database directly and skip the copy entirely.
    ///
    /// A small direct-mapped "last seen" table in front of the sort drops
    /// the repeats of recently seen ids, so the sort sees about one entry
    /// per distinct id instead of one per occurrence.
    pub fn analyze(db: &SequenceDatabase) -> ItemMapping {
        let mut seen = LastSeen::new();
        let occurrences =
            db.sequences().flat_map(|s| s.itemsets().iter().flat_map(|set| set.iter()));
        let mut originals: Vec<Item> = occurrences.filter(|&x| seen.insert(x, 0)).collect();
        originals.sort_unstable();
        originals.dedup();
        ItemMapping { originals }
    }

    /// Builds the mapping for a database and returns the compacted copy.
    ///
    /// When the ids are already dense from 0 the mapping is the identity
    /// and the "copy" is a plain clone — no per-item remapping work.
    pub fn compact(db: &SequenceDatabase) -> (ItemMapping, SequenceDatabase) {
        let mapping = ItemMapping::analyze(db);
        let compacted = mapping.remap_database(db);
        (mapping, compacted)
    }

    /// Rewrites a database onto compact ids. The database must be the one
    /// (or a sub-database of the one) this mapping was
    /// [analyzed](ItemMapping::analyze) from. Identity mappings clone
    /// instead of remapping item by item.
    pub fn remap_database(&self, db: &SequenceDatabase) -> SequenceDatabase {
        if self.is_identity() {
            return db.clone();
        }
        SequenceDatabase::from_rows(db.rows().iter().map(|row| {
            (row.cid, map_sequence(&row.sequence, |i| self.to_compact(i).expect("item seen")))
        }))
    }

    /// Rebuilds a mapping from its sorted original-id column — the
    /// [`crate::flatfile`] dictionary section round-trip. `originals` must
    /// be strictly ascending (the encoder wrote it from a valid mapping;
    /// the loader validates before calling).
    pub fn from_originals(originals: Vec<Item>) -> ItemMapping {
        debug_assert!(originals.windows(2).all(|w| w[0] < w[1]), "dictionary must be ascending");
        ItemMapping { originals }
    }

    /// The sorted original-id column (index = compact id) — the
    /// [`crate::flatfile`] dictionary section's encoding surface.
    pub fn originals(&self) -> &[Item] {
        &self.originals
    }

    /// Number of distinct items (the compact id space is `0..len`).
    pub fn len(&self) -> usize {
        self.originals.len()
    }

    /// True when the database had no items.
    pub fn is_empty(&self) -> bool {
        self.originals.is_empty()
    }

    /// Original id → compact id.
    pub fn to_compact(&self, item: Item) -> Option<Item> {
        self.originals.binary_search(&item).ok().map(|i| Item(i as u32))
    }

    /// Rewrites every item of `items` (all seen by this mapping) onto its
    /// compact id: a [`LastSeen`] table answers repeated ids, and only its
    /// misses binary-search the dictionary.
    pub(crate) fn compact_items(&self, items: &mut [Item]) {
        let mut cache = LastSeen::new();
        for item in items {
            *item = match cache.get(*item) {
                Some(compact) => Item(compact),
                None => {
                    let compact = self.to_compact(*item).expect("item seen by the mapping");
                    cache.insert(*item, compact.id());
                    compact
                }
            };
        }
    }

    /// Compact id → original id.
    pub fn to_original(&self, item: Item) -> Option<Item> {
        self.originals.get(item.id() as usize).copied()
    }

    /// Is compaction a no-op (ids already dense from 0)?
    pub fn is_identity(&self) -> bool {
        self.originals.iter().enumerate().all(|(i, item)| item.id() as usize == i)
    }

    /// Would compaction save meaningful allocation? True when the max id is
    /// much larger than the number of distinct items.
    pub fn is_worthwhile(&self) -> bool {
        match self.originals.last() {
            None => false,
            Some(max) => (max.id() as usize) >= self.originals.len().saturating_mul(4).max(1024),
        }
    }

    /// Translates a compact-id sequence back to original ids.
    pub fn restore_sequence(&self, seq: &Sequence) -> Sequence {
        map_sequence(seq, |i| self.to_original(i).expect("compact id in range"))
    }

    /// Translates a whole mining result back to original ids.
    pub fn restore_result(&self, result: &MiningResult) -> MiningResult {
        result.iter().map(|(p, s)| (self.restore_sequence(p), s)).collect()
    }
}

/// A direct-mapped "last seen" table over item ids: slot `id mod SLOTS`
/// remembers the last id stored there, with a value. Item occurrences
/// repeat a few distinct ids, so nearly every lookup hits; a miss only
/// costs the caller its slow path. Dense ids below `SLOTS` never collide,
/// and sparse ids share slots without any separate code path.
struct LastSeen {
    slots: Vec<Option<(Item, u32)>>,
}

impl LastSeen {
    const SLOTS: usize = 4096;

    fn new() -> LastSeen {
        LastSeen { slots: vec![None; LastSeen::SLOTS] }
    }

    #[inline]
    fn slot(item: Item) -> usize {
        item.id() as usize % LastSeen::SLOTS
    }

    /// The value stored with `item`, if its slot still holds it.
    #[inline]
    fn get(&self, item: Item) -> Option<u32> {
        self.slots[LastSeen::slot(item)].filter(|&(id, _)| id == item).map(|(_, value)| value)
    }

    /// Stores `item` with `value`, evicting its slot's previous id. Returns
    /// whether the slot held some other id (or nothing) before.
    #[inline]
    fn insert(&mut self, item: Item, value: u32) -> bool {
        let previous = self.slots[LastSeen::slot(item)].replace((item, value));
        previous.is_none_or(|(id, _)| id != item)
    }
}

fn map_sequence(seq: &Sequence, mut f: impl FnMut(Item) -> Item) -> Sequence {
    Sequence::new(seq.itemsets().iter().map(|set| {
        // A monotone map keeps itemsets sorted.
        Itemset::from_sorted(set.iter().map(&mut f).collect())
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::BruteForce;
    use crate::miner::SequentialMiner;
    use crate::parse::parse_sequence;
    use crate::support::MinSupport;

    fn sparse_db() -> SequenceDatabase {
        SequenceDatabase::from_parsed(&[
            "(10, 4000000)(999999999)",
            "(10)(4000000, 999999999)",
            "(10)(999999999)",
        ])
        .unwrap()
    }

    #[test]
    fn compaction_is_monotone_and_dense() {
        let (mapping, compacted) = ItemMapping::compact(&sparse_db());
        assert_eq!(mapping.len(), 3);
        assert_eq!(compacted.max_item(), Some(Item(2)));
        assert_eq!(mapping.to_compact(Item(10)), Some(Item(0)));
        assert_eq!(mapping.to_compact(Item(4_000_000)), Some(Item(1)));
        assert_eq!(mapping.to_compact(Item(999_999_999)), Some(Item(2)));
        assert_eq!(mapping.to_compact(Item(11)), None);
        assert_eq!(mapping.to_original(Item(1)), Some(Item(4_000_000)));
        assert!(mapping.is_worthwhile());
        assert!(!mapping.is_identity());
    }

    #[test]
    fn mining_commutes_with_compaction() {
        let db = sparse_db();
        let (mapping, compacted) = ItemMapping::compact(&db);
        let direct = BruteForce::default().mine(&db, MinSupport::Count(2));
        let via_compact =
            mapping.restore_result(&BruteForce::default().mine(&compacted, MinSupport::Count(2)));
        assert!(direct.diff(&via_compact).is_empty());
        assert_eq!(via_compact.support_of(&parse_sequence("(10)(999999999)").unwrap()), Some(3));
    }

    #[test]
    fn identity_detection() {
        let db = SequenceDatabase::from_parsed(&["(a, b)(c)"]).unwrap();
        let (mapping, compacted) = ItemMapping::compact(&db);
        assert!(mapping.is_identity());
        assert!(!mapping.is_worthwhile());
        assert_eq!(db, compacted);
    }

    #[test]
    fn analyze_matches_compact_mapping() {
        let db = sparse_db();
        let analyzed = ItemMapping::analyze(&db);
        let (compacted_mapping, _) = ItemMapping::compact(&db);
        assert_eq!(analyzed, compacted_mapping);
        // A gapless id space analyzes to the identity without any copy.
        let dense = SequenceDatabase::from_parsed(&["(a)(b, c)", "(c)"]).unwrap();
        assert!(ItemMapping::analyze(&dense).is_identity());
    }

    #[test]
    fn colliding_ids_analyze_and_remap_like_a_plain_sort() {
        // Ids that share one table slot, interleaved so every lookup
        // evicts the previous id, plus the largest id and dense ones.
        let slots = LastSeen::SLOTS as u32;
        let ids = [0, slots, 2 * slots, u32::MAX, 1, slots + 1, u32::MAX - slots, 7];
        let rows = (0..6).map(|r| {
            Sequence::new((0..ids.len()).map(|t| {
                let a = Item(ids[(r + t) % ids.len()]);
                let b = Item(ids[(r + 3 * t + 1) % ids.len()]);
                Itemset::new([a, b]).unwrap()
            }))
        });
        let db = SequenceDatabase::from_sequences(rows);
        let mapping = ItemMapping::analyze(&db);
        let mut expected: Vec<Item> = ids.iter().map(|&id| Item(id)).collect();
        expected.sort_unstable();
        assert_eq!(mapping.originals(), expected.as_slice());

        let mut items: Vec<Item> =
            db.sequences().flat_map(|s| s.itemsets().iter().flat_map(|set| set.iter())).collect();
        let originals = items.clone();
        mapping.compact_items(&mut items);
        for (compact, original) in items.iter().zip(&originals) {
            assert_eq!(Some(*compact), mapping.to_compact(*original), "{original:?}");
        }
    }

    #[test]
    fn empty_database() {
        let (mapping, compacted) = ItemMapping::compact(&SequenceDatabase::new());
        assert!(mapping.is_empty());
        assert!(compacted.is_empty());
        assert!(!mapping.is_worthwhile());
    }
}
