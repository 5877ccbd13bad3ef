//! The **k-sorted database** (Section 3.2): partition members keyed by their
//! conditional k-minimum subsequences in an ordered bucket map.
//!
//! A key is a [`RawKms`] — the apriori pointer (the index of the key's
//! (k-1)-prefix in the (k-1)-sorted list) and the appended extension
//! element — not the key sequence itself. Over one strictly ascending list
//! of equal-length prefixes, the pair order is the comparative order of the
//! keys (see [`RawKms`]), so a map descent compares two fields and no key
//! owns a heap copy of its prefix. A key becomes a sequence only when the
//! discovery loop reports its pattern, against the list it was computed
//! from.
//!
//! Every member carries a weight (1 for ordinary mining), and every bucket
//! the sum of its members' weights. Positions in the database are weight
//! positions: `α_δ` is the key where the cumulative weight reaches δ, and a
//! bucket's support is its weight. Under weight 1 these are the paper's
//! customer positions and bucket sizes.
//!
//! The backing store is a `BTreeMap<RawKms, Bucket>` with an explicitly
//! tracked total weight. The discovery loop only ever asks order statistics
//! about the *head* of the database — `α₁`, `α_δ` for the small threshold δ
//! within a virtual partition, and head drains — so a short in-order walk
//! over the first few buckets replaces the paper's locative AVL tree, whose
//! subtree counts every insert would have to maintain.

use crate::kms::RawKms;
use std::collections::BTreeMap;

/// One entry of the k-sorted database: which partition member it is. Its
/// apriori pointer is its bucket key's `ptr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Index of the customer sequence within the partition's member list.
    pub member: usize,
}

/// The members keyed on one key, and the sum of their weights.
#[derive(Debug)]
struct Bucket {
    entries: Vec<Entry>,
    weight: u64,
}

/// The k-sorted database.
#[derive(Debug, Default)]
pub struct KSortedDb {
    map: BTreeMap<RawKms, Bucket>,
    /// Sum of every bucket's weight (the paper's "size of SD" under weight
    /// 1).
    weight: u64,
    /// Drained bucket allocations, reused by later inserts: most buckets are
    /// singletons, so without the pool every re-keying would allocate one
    /// small `Vec` per member movement.
    pool: Vec<Vec<Entry>>,
}

impl KSortedDb {
    /// An empty k-sorted database.
    pub fn new() -> KSortedDb {
        KSortedDb::default()
    }

    /// Total weight of the members it holds.
    pub fn weight(&self) -> u64 {
        self.weight
    }

    /// Inserts a member of weight `weight` under its (conditional) k-minimum
    /// subsequence.
    pub fn insert(&mut self, member: usize, key: RawKms, weight: u64) {
        match self.map.entry(key) {
            std::collections::btree_map::Entry::Occupied(mut e) => {
                let bucket = e.get_mut();
                bucket.entries.push(Entry { member });
                bucket.weight += weight;
            }
            std::collections::btree_map::Entry::Vacant(v) => {
                let mut entries = self.pool.pop().unwrap_or_default();
                entries.push(Entry { member });
                v.insert(Bucket { entries, weight });
            }
        }
        self.weight += weight;
    }

    /// Returns a drained bucket's allocation to the pool for reuse.
    pub fn recycle(&mut self, mut bucket: Vec<Entry>) {
        if bucket.capacity() > 0 && self.pool.len() < 1024 {
            bucket.clear();
            self.pool.push(bucket);
        }
    }

    /// `α₁`: the minimum key.
    pub fn alpha_1(&self) -> Option<RawKms> {
        self.map.keys().next().copied()
    }

    /// `α_δ`: the key at weight position δ — an in-order walk accumulating
    /// bucket weights until the running total reaches δ. The threshold δ is
    /// small next to the partition's weight, so this touches at most a
    /// handful of head buckets.
    pub fn alpha_delta(&self, delta: u64) -> Option<RawKms> {
        debug_assert!(delta >= 1);
        let mut seen = 0u64;
        for (&k, bucket) in &self.map {
            seen += bucket.weight;
            if seen >= delta {
                return Some(k);
            }
        }
        None
    }

    /// `α₁ = α_δ`? — the Lemma 2.1 test: the minimum bucket alone weighs at
    /// least δ.
    pub fn alpha_1_equals_delta(&self, delta: u64) -> bool {
        debug_assert!(delta >= 1);
        self.map.values().next().is_some_and(|bucket| bucket.weight >= delta)
    }

    /// Detaches the minimum bucket: `(α₁, its virtual partition, its
    /// weight)`. The weight is `α₁`'s exact support among the partition
    /// members.
    pub fn take_min(&mut self) -> Option<(RawKms, Vec<Entry>, u64)> {
        let (k, bucket) = self.map.pop_first()?;
        self.weight -= bucket.weight;
        Some((k, bucket.entries, bucket.weight))
    }

    /// Detaches every bucket keyed strictly below `bound`, ascending. The
    /// keys themselves are dropped — the Lemma 2.2 skip only re-keys the
    /// members.
    pub fn take_less_than(&mut self, bound: RawKms) -> Vec<Vec<Entry>> {
        let rest = self.map.split_off(&bound);
        let below = std::mem::replace(&mut self.map, rest);
        self.weight -= below.values().map(|bucket| bucket.weight).sum::<u64>();
        below.into_values().map(|bucket| bucket.entries).collect()
    }

    /// In-order view of `(key, entries)` — Table 3/9-style dumps for tests
    /// and debugging.
    pub fn snapshot(&self) -> Vec<(RawKms, Vec<Entry>)> {
        self.map.iter().map(|(&k, bucket)| (k, bucket.entries.clone())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kms::apriori_kms_raw;
    use disc_core::{parse_sequence, ExtElem, ExtMode, Item, Sequence};

    fn seq(s: &str) -> Sequence {
        parse_sequence(s).unwrap()
    }

    /// The 3-sorted list of the <(a)(a)>-partition (Table 8).
    fn table_8_list() -> Vec<Sequence> {
        let mut list: Vec<Sequence> =
            ["(a)(a,e)", "(a)(a,g)", "(a)(a,h)"].iter().map(|t| seq(t)).collect();
        list.sort();
        list
    }

    fn table_9_database(list: &[Sequence]) -> KSortedDb {
        // Build the 4-sorted database of the <(a)(a)>-partition (Table 9).
        let customers = [
            "(a)(a,g,h)(c)",           // CID 1
            "(b)(a)(a,c,e,g)",         // CID 2
            "(a,f,g)(a,e,g,h)(c,g,h)", // CID 3
            "(f)(a,f)(a,c,e,g,h)",     // CID 4
            "(a,f)(a,e,g,h)",          // CID 6
            "(a,g)(a,e,g)(g,h)",       // CID 7
        ];
        let mut db = KSortedDb::new();
        for (m, text) in customers.iter().enumerate() {
            db.insert(m, apriori_kms_raw(&seq(text), list).unwrap(), 1);
        }
        db
    }

    #[test]
    fn table_9_four_sorted_database() {
        let list = table_8_list();
        let db = table_9_database(&list);
        // Keys decode against the list they were computed from.
        let decode = |k: Option<RawKms>| k.map(|k| k.into_kms(&list).key);
        assert_eq!(db.weight(), 6);
        assert_eq!(decode(db.alpha_1()), Some(seq("(a)(a,e)(c)")));
        // δ = 3: the third customer position holds <(a)(a,e,g)>.
        assert_eq!(decode(db.alpha_delta(3)), Some(seq("(a)(a,e,g)")));
        assert_eq!(decode(db.alpha_delta(6)), Some(seq("(a)(a,g)(c)")));
        assert_eq!(db.alpha_delta(7), None);
        assert!(db.alpha_1_equals_delta(1));
        assert!(!db.alpha_1_equals_delta(3));

        let snapshot = db.snapshot();
        let keys: Vec<String> =
            snapshot.iter().map(|(k, _)| k.into_kms(&list).key.to_string()).collect();
        assert_eq!(keys, vec!["(a)(a, e)(c)", "(a)(a, e, g)", "(a)(a, g)(c)"]);
        // The <(a)(a,e,g)> bucket holds CIDs 2, 4, 6, 7 (member indices 1, 3, 4, 5).
        let members: Vec<usize> = snapshot[1].1.iter().map(|e| e.member).collect();
        assert_eq!(members, vec![1, 3, 4, 5]);
    }

    #[test]
    fn weights_move_the_head() {
        // Table 9 with CID 3 (member 2, the only <(a)(a,e)(c)> customer)
        // weighing 3: at δ = 3 the minimum bucket alone reaches δ, so
        // Lemma 2.1 applies where the unweighted database takes Lemma 2.2.
        let list = table_8_list();
        let mut db = KSortedDb::new();
        let customers = [
            ("(a)(a,g,h)(c)", 1),
            ("(b)(a)(a,c,e,g)", 1),
            ("(a,f,g)(a,e,g,h)(c,g,h)", 3),
            ("(a,f)(a,e,g,h)", 1),
        ];
        for (m, (text, w)) in customers.into_iter().enumerate() {
            db.insert(m, apriori_kms_raw(&seq(text), &list).unwrap(), w);
        }
        assert_eq!(db.weight(), 6);
        assert!(db.alpha_1_equals_delta(3));
        assert_eq!(db.alpha_delta(3), db.alpha_1());
        let (key, entries, support) = db.take_min().unwrap();
        assert_eq!(key.into_kms(&list).key, seq("(a)(a,e)(c)"));
        assert_eq!((entries.len(), support), (1, 3));
        assert_eq!(db.weight(), 3);
    }

    #[test]
    fn take_less_than_drains_the_head() {
        let elem = |c| ExtElem { item: Item::from_letter(c).unwrap(), mode: ExtMode::Sequence };
        let mut db = KSortedDb::new();
        db.insert(0, RawKms { ptr: 0, elem: elem('b') }, 1);
        db.insert(1, RawKms { ptr: 0, elem: elem('c') }, 1);
        db.insert(2, RawKms { ptr: 1, elem: elem('c') }, 1);
        let below = db.take_less_than(RawKms { ptr: 1, elem: elem('c') });
        assert_eq!(below.len(), 2);
        assert_eq!(db.weight(), 1);
        assert_eq!(db.alpha_1(), Some(RawKms { ptr: 1, elem: elem('c') }));
    }
}
