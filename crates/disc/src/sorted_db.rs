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
//! The backing store is a `BTreeMap<RawKms, Vec<Entry>>` with an explicitly
//! tracked entry count. The discovery loop only ever asks order statistics
//! about the *head* of the database — `α₁`, `α_δ` for the small rank
//! `δ = ⌈minsup·|D|⌉` within a virtual partition, and head drains — so a
//! short in-order walk over the first few buckets beats maintaining subtree
//! counts on every insert (the former `LocativeAvlTree` backing, still used
//! by [`disc_tree`] for the general rank-select case).

use crate::kms::RawKms;
use std::collections::BTreeMap;

/// One entry of the k-sorted database: which partition member it is. Its
/// apriori pointer is its bucket key's `ptr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Index of the customer sequence within the partition's member list.
    pub member: usize,
}

/// The k-sorted database.
#[derive(Debug, Default)]
pub struct KSortedDb {
    map: BTreeMap<RawKms, Vec<Entry>>,
    len: usize,
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

    /// Number of customer positions (the paper's "size of SD").
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no customers remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a member under its (conditional) k-minimum subsequence.
    pub fn insert(&mut self, member: usize, key: RawKms) {
        match self.map.entry(key) {
            std::collections::btree_map::Entry::Occupied(mut e) => {
                e.get_mut().push(Entry { member });
            }
            std::collections::btree_map::Entry::Vacant(v) => {
                let mut bucket = self.pool.pop().unwrap_or_default();
                bucket.push(Entry { member });
                v.insert(bucket);
            }
        }
        self.len += 1;
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

    /// `α_δ`: the key at customer position δ (1-based) — an in-order walk
    /// accumulating bucket sizes until the running customer count reaches
    /// δ. The rank δ is the partition's support threshold — a small
    /// constant — so this touches at most a handful of head buckets.
    pub fn alpha_delta(&self, delta: u64) -> Option<RawKms> {
        debug_assert!(delta >= 1);
        let mut seen = 0u64;
        for (&k, vs) in &self.map {
            seen += vs.len() as u64;
            if seen >= delta {
                return Some(k);
            }
        }
        None
    }

    /// `α₁ = α_δ`? — the Lemma 2.1 test: the minimum bucket alone holds at
    /// least δ customers.
    pub fn alpha_1_equals_delta(&self, delta: u64) -> bool {
        debug_assert!(delta >= 1);
        match self.map.values().next() {
            Some(vs) => vs.len() as u64 >= delta,
            None => false,
        }
    }

    /// Detaches the minimum bucket: `(α₁, its virtual partition)`. The bucket
    /// length is `α₁`'s exact support among the partition members.
    pub fn take_min(&mut self) -> Option<(RawKms, Vec<Entry>)> {
        let (k, vs) = self.map.pop_first()?;
        self.len -= vs.len();
        Some((k, vs))
    }

    /// Detaches every bucket keyed strictly below `bound`, ascending. The
    /// keys themselves are dropped — the Lemma 2.2 skip only re-keys the
    /// members.
    pub fn take_less_than(&mut self, bound: RawKms) -> Vec<Vec<Entry>> {
        let rest = self.map.split_off(&bound);
        let below = std::mem::replace(&mut self.map, rest);
        self.len -= below.values().map(Vec::len).sum::<usize>();
        below.into_values().collect()
    }

    /// In-order view of `(key, entries)` — Table 3/9-style dumps for tests
    /// and debugging.
    pub fn snapshot(&self) -> Vec<(RawKms, Vec<Entry>)> {
        self.map.iter().map(|(&k, vs)| (k, vs.clone())).collect()
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
            db.insert(m, apriori_kms_raw(&seq(text), list).unwrap());
        }
        db
    }

    #[test]
    fn table_9_four_sorted_database() {
        let list = table_8_list();
        let db = table_9_database(&list);
        // Keys decode against the list they were computed from.
        let decode = |k: Option<RawKms>| k.map(|k| k.into_kms(&list).key);
        assert_eq!(db.len(), 6);
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
    fn take_less_than_drains_the_head() {
        let elem = |c| ExtElem { item: Item::from_letter(c).unwrap(), mode: ExtMode::Sequence };
        let mut db = KSortedDb::new();
        db.insert(0, RawKms { ptr: 0, elem: elem('b') });
        db.insert(1, RawKms { ptr: 0, elem: elem('c') });
        db.insert(2, RawKms { ptr: 1, elem: elem('c') });
        let below = db.take_less_than(RawKms { ptr: 1, elem: elem('c') });
        assert_eq!(below.len(), 2);
        assert_eq!(db.len(), 1);
        assert_eq!(db.alpha_1(), Some(RawKms { ptr: 1, elem: elem('c') }));
    }
}
