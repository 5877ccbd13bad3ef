//! The [`Itemset`] type: one transaction's set of items.

use crate::item::Item;
use std::fmt;

/// A non-empty, sorted, duplicate-free set of items — one transaction.
///
/// The sorted invariant is what makes the paper's flattened
/// `(item, transaction-number)` representation well-defined: within a
/// transaction, items are enumerated in ascending (alphabetical) order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Itemset(Vec<Item>);

impl Itemset {
    /// Builds an itemset from arbitrary items, sorting and deduplicating.
    ///
    /// Returns `None` for an empty input: empty transactions are not part of
    /// the model.
    pub fn new(items: impl IntoIterator<Item = Item>) -> Option<Itemset> {
        let mut v: Vec<Item> = items.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        if v.is_empty() {
            None
        } else {
            Some(Itemset(v))
        }
    }

    /// Builds a singleton itemset.
    pub fn single(item: Item) -> Itemset {
        Itemset(vec![item])
    }

    /// Builds from a vector that is already sorted and duplicate-free.
    ///
    /// This is the hot-path constructor used by the miners; the invariant is
    /// checked in debug builds only.
    pub fn from_sorted(items: Vec<Item>) -> Itemset {
        debug_assert!(!items.is_empty(), "itemsets must be non-empty");
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "itemsets must be sorted and duplicate-free: {items:?}"
        );
        Itemset(items)
    }

    /// Number of items.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Itemsets are never empty, but `clippy` insists on the pair.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Membership test (binary search).
    #[inline]
    pub fn contains(&self, item: Item) -> bool {
        self.0.binary_search(&item).is_ok()
    }

    /// `self ⊆ other`, via a linear merge over the two sorted slices.
    pub fn is_subset_of(&self, other: &Itemset) -> bool {
        is_sorted_subset(&self.0, &other.0)
    }

    /// Iterates the items in ascending order.
    #[inline]
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, Item>> {
        self.0.iter().copied()
    }

    /// The sorted items as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Item] {
        &self.0
    }

    /// Smallest item.
    #[inline]
    pub fn min_item(&self) -> Item {
        self.0[0]
    }

    /// Largest item (the "last item" in the flattened representation).
    #[inline]
    pub fn max_item(&self) -> Item {
        *self.0.last().expect("itemsets are non-empty")
    }

    /// Returns a copy extended with `item`, which must be larger than
    /// [`Itemset::max_item`] so the extension appends at the end of the
    /// flattened representation (the itemset-extension used throughout the
    /// paper's algorithms).
    pub fn extended_with(&self, item: Item) -> Itemset {
        debug_assert!(item > self.max_item(), "itemset extension must append past the max item");
        let mut v = Vec::with_capacity(self.0.len() + 1);
        v.extend_from_slice(&self.0);
        v.push(item);
        Itemset(v)
    }

    /// Returns a copy with `item` inserted at its sorted position (no-op when
    /// already present).
    pub fn inserted(&self, item: Item) -> Itemset {
        match self.0.binary_search(&item) {
            Ok(_) => self.clone(),
            Err(pos) => {
                let mut v = self.0.clone();
                v.insert(pos, item);
                Itemset(v)
            }
        }
    }

    /// Retains only items satisfying the predicate; returns `None` when
    /// nothing survives.
    pub fn filtered(&self, mut keep: impl FnMut(Item) -> bool) -> Option<Itemset> {
        let v: Vec<Item> = self.0.iter().copied().filter(|&i| keep(i)).collect();
        if v.is_empty() {
            None
        } else {
            Some(Itemset(v))
        }
    }
}

/// `a ⊆ b` for sorted duplicate-free slices — the raw-slice form of
/// [`Itemset::is_subset_of`], for callers walking flat storage.
///
/// A single-item `a` (the common case in the extension kernels) is a
/// membership test; otherwise each item of `a` is found by a linear
/// first-`≥` scan from just past the previous match.
#[inline]
pub fn is_sorted_subset(a: &[Item], b: &[Item]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    if let [x] = a {
        return b.contains(x);
    }
    let mut pos = 0usize;
    for x in a {
        match b[pos..].iter().position(|y| y >= x) {
            Some(k) if b[pos + k] == *x => pos += k + 1,
            _ => return false,
        }
    }
    true
}

impl fmt::Display for Itemset {
    /// Formats like the paper: `(a, e, g)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, item) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, ")")
    }
}

impl<'a> IntoIterator for &'a Itemset {
    type Item = Item;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Item>>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn its(s: &str) -> Itemset {
        Itemset::new(s.chars().map(|c| Item::from_letter(c).unwrap())).unwrap()
    }

    #[test]
    fn new_sorts_and_dedups() {
        let set = Itemset::new([Item(3), Item(1), Item(3), Item(2)]).unwrap();
        assert_eq!(set.as_slice(), &[Item(1), Item(2), Item(3)]);
        assert!(Itemset::new([]).is_none());
    }

    #[test]
    fn display_matches_paper_style() {
        assert_eq!(its("gea").to_string(), "(a, e, g)");
        assert_eq!(Itemset::single(Item(1)).to_string(), "(b)");
    }

    #[test]
    fn subset_relation() {
        assert!(its("ag").is_subset_of(&its("aeg")));
        assert!(its("a").is_subset_of(&its("a")));
        assert!(!its("ab").is_subset_of(&its("aeg")));
        assert!(!its("aeg").is_subset_of(&its("ag")));
        assert!(its("g").is_subset_of(&its("aeg")));
    }

    #[test]
    fn min_max_and_extension() {
        let set = its("be");
        assert_eq!(set.min_item(), Item::from_letter('b').unwrap());
        assert_eq!(set.max_item(), Item::from_letter('e').unwrap());
        let ext = set.extended_with(Item::from_letter('h').unwrap());
        assert_eq!(ext.to_string(), "(b, e, h)");
    }

    #[test]
    fn inserted_keeps_sorted() {
        let set = its("bh");
        assert_eq!(set.inserted(Item::from_letter('e').unwrap()).to_string(), "(b, e, h)");
        assert_eq!(set.inserted(Item::from_letter('b').unwrap()).to_string(), "(b, h)");
        assert_eq!(set.inserted(Item::from_letter('a').unwrap()).to_string(), "(a, b, h)");
    }

    #[test]
    fn filtered_drops_items() {
        let set = its("aeg");
        let f = set.filtered(|i| i != Item::from_letter('e').unwrap()).unwrap();
        assert_eq!(f.to_string(), "(a, g)");
        assert!(set.filtered(|_| false).is_none());
    }

    #[test]
    fn raw_subset_handles_edge_cases() {
        // Deterministic item sets mixing the full u32 range, tiny values and
        // values next to u32::MAX, each checked against a binary-search
        // reference on the empty set, the full set, strided subsets, the last
        // item, an item past the last, and the set plus that item.
        let items = |seed: u64| -> Vec<Item> {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let mut v: Vec<Item> = (0..24)
                .map(|_| {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    Item(match state >> 62 {
                        0 => (state >> 32) as u32,
                        1 => (state >> 48) as u32 & 0x7,
                        2 => u32::MAX - ((state >> 48) as u32 & 0x3),
                        _ => (state >> 40) as u32 & 0xFFF,
                    })
                })
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        for seed in 0..16u64 {
            let b = items(seed);
            let mut cases: Vec<Vec<Item>> = vec![
                vec![],
                b.clone(),
                b.iter().copied().step_by(2).collect(),
                b.iter().copied().step_by(3).collect(),
            ];
            if let Some(&last) = b.last() {
                let past = Item(last.0.wrapping_add(1));
                cases.push(vec![last]);
                cases.push(vec![past]);
                let mut miss = b.clone();
                miss.push(past);
                miss.sort_unstable();
                miss.dedup();
                cases.push(miss);
            }
            for a in &cases {
                let expected = a.iter().all(|x| b.binary_search(x).is_ok());
                assert_eq!(is_sorted_subset(a, &b), expected, "seed {seed} a {a:?}");
            }
        }
    }

    #[test]
    fn contains_uses_order() {
        let set = its("aeg");
        assert!(set.contains(Item::from_letter('e').unwrap()));
        assert!(!set.contains(Item::from_letter('b').unwrap()));
    }
}
