//! The [`Sequence`] type: an ordered list of itemsets.

use crate::item::Item;
use crate::itemset::Itemset;
use std::fmt;

/// A sequence — an ordered list of non-empty itemsets.
///
/// Sequences double as *customer sequences* (database rows) and *patterns*
/// (mining output). Following the paper, the **length** of a sequence is the
/// total number of item occurrences ([`Sequence::length`]), and a sequence of
/// length `k` is called a *k-sequence*.
///
/// `Ord` is the paper's comparative order (Definition 2.2); see the [`crate::order`]
/// module for the definition and proofs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Sequence(Vec<Itemset>);

/// How a one-item extension attaches to a sequence (the two forms `<(λx)>`
/// and `<(λ)(x)>` of Section 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExtMode {
    /// Itemset extension: the item joins the last transaction. In the
    /// flattened representation its transaction number equals the last
    /// element's, which is why [`ExtMode::Itemset`] sorts *before*
    /// [`ExtMode::Sequence`] for the same item.
    Itemset,
    /// Sequence extension: the item opens a new transaction.
    Sequence,
}

/// A one-item extension element: the `(item, transaction-number-delta)` pair
/// appended to a pattern's flattened representation.
///
/// The derived `Ord` (item first, then mode with `Itemset < Sequence`) is
/// exactly the comparative order restricted to the appended position, which
/// is what the Apriori-KMS/CKMS algorithms minimize over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExtElem {
    /// The appended item.
    pub item: Item,
    /// Whether it extends the last itemset or opens a new transaction.
    pub mode: ExtMode,
}

impl PartialOrd for ExtMode {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ExtMode {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Itemset extension keeps the same transaction number; sequence
        // extension increments it. Smaller transaction number sorts first.
        fn rank(m: &ExtMode) -> u8 {
            match m {
                ExtMode::Itemset => 0,
                ExtMode::Sequence => 1,
            }
        }
        rank(self).cmp(&rank(other))
    }
}

impl Sequence {
    /// The empty sequence (length 0). Used as the root prefix of the
    /// partitioning schemes.
    pub fn empty() -> Sequence {
        Sequence(Vec::new())
    }

    /// Builds a sequence from itemsets.
    pub fn new(itemsets: impl IntoIterator<Item = Itemset>) -> Sequence {
        Sequence(itemsets.into_iter().collect())
    }

    /// A 1-sequence `<(item)>`.
    pub fn single(item: Item) -> Sequence {
        Sequence(vec![Itemset::single(item)])
    }

    /// The paper's *length*: total number of item occurrences.
    ///
    /// ```
    /// use disc_core::parse_sequence;
    /// assert_eq!(parse_sequence("(a)(b)(c,d)(e)").unwrap().length(), 5);
    /// ```
    pub fn length(&self) -> usize {
        self.0.iter().map(Itemset::len).sum()
    }

    /// Number of transactions (itemsets).
    #[inline]
    pub fn n_transactions(&self) -> usize {
        self.0.len()
    }

    /// True when the sequence has no itemsets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The itemsets, in order.
    #[inline]
    pub fn itemsets(&self) -> &[Itemset] {
        &self.0
    }

    /// The `i`-th transaction.
    #[inline]
    pub fn itemset(&self, i: usize) -> &Itemset {
        &self.0[i]
    }

    /// The last transaction, if any.
    #[inline]
    pub fn last_itemset(&self) -> Option<&Itemset> {
        self.0.last()
    }

    /// The last element of the flattened representation: the max item of the
    /// last transaction. `None` for the empty sequence.
    pub fn last_flat_item(&self) -> Option<Item> {
        self.0.last().map(Itemset::max_item)
    }

    /// Iterates the flattened `(item, transaction-number)` representation of
    /// Section 2, with 1-based transaction numbers:
    ///
    /// ```
    /// use disc_core::{parse_sequence, Item};
    /// let s = parse_sequence("(a)(b)(c,d)(e)").unwrap();
    /// let flat: Vec<(Item, u32)> = s.flat_iter().collect();
    /// let no: Vec<u32> = flat.iter().map(|&(_, n)| n).collect();
    /// assert_eq!(no, [1, 2, 3, 3, 4]);
    /// ```
    pub fn flat_iter(&self) -> impl Iterator<Item = (Item, u32)> + '_ {
        self.0
            .iter()
            .enumerate()
            .flat_map(|(t, set)| set.iter().map(move |item| (item, t as u32 + 1)))
    }

    /// The smallest item occurring anywhere in the sequence (the *minimum
    /// 1-sequence* of Section 3), with the index of the transaction holding
    /// its leftmost occurrence (the *minimum point*).
    pub fn min_item_with_point(&self) -> Option<(Item, usize)> {
        let mut best: Option<(Item, usize)> = None;
        for (t, set) in self.0.iter().enumerate() {
            let m = set.min_item();
            if best.is_none_or(|(b, _)| m < b) {
                best = Some((m, t));
            }
        }
        best
    }

    /// Index of the leftmost transaction containing `item` — the *minimum
    /// point* of the `<(item)>`-partition this sequence currently lives in
    /// (after reassignment the partition's λ need not be the sequence's
    /// minimum item).
    pub fn first_txn_containing(&self, item: Item) -> Option<usize> {
        self.0.iter().position(|set| set.contains(item))
    }

    /// The smallest item strictly greater than `after` occurring anywhere in
    /// the sequence, with its leftmost transaction index. Drives the
    /// first-level reassignment of Step 2.2.
    pub fn min_item_after(&self, after: Item) -> Option<(Item, usize)> {
        let mut best: Option<(Item, usize)> = None;
        for (t, set) in self.0.iter().enumerate() {
            // The first item > `after` in the sorted transaction.
            let idx = set.as_slice().partition_point(|&i| i <= after);
            if let Some(&m) = set.as_slice().get(idx) {
                if best.is_none_or(|(b, _)| m < b) {
                    best = Some((m, t));
                }
            }
        }
        best
    }

    /// The k-prefix: the first `k` elements of the flattened representation,
    /// as a sequence (Section 3.2: "the 3-prefix of `<(a)(a,g,h)(c)>` is
    /// `<(a)(a,g)>`").
    pub fn k_prefix(&self, k: usize) -> Sequence {
        debug_assert!(k <= self.length());
        let mut out = Vec::new();
        let mut remaining = k;
        for set in &self.0 {
            if remaining == 0 {
                break;
            }
            if set.len() <= remaining {
                out.push(set.clone());
                remaining -= set.len();
            } else {
                out.push(Itemset::from_sorted(set.as_slice()[..remaining].to_vec()));
                remaining = 0;
            }
        }
        Sequence(out)
    }

    /// Appends an extension element, producing `<self ⊕ e>`: either the item
    /// joins the last transaction (itemset extension; requires the item to be
    /// greater than the current last flat item) or opens a new one.
    pub fn extended(&self, e: ExtElem) -> Sequence {
        let mut v = self.0.clone();
        match e.mode {
            ExtMode::Itemset => {
                let last = v.pop().expect("itemset extension of an empty sequence");
                v.push(last.extended_with(e.item));
            }
            ExtMode::Sequence => v.push(Itemset::single(e.item)),
        }
        Sequence(v)
    }

    /// All distinct items of the sequence, ascending.
    pub fn distinct_items(&self) -> Vec<Item> {
        let mut v: Vec<Item> = self.0.iter().flat_map(Itemset::iter).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Rebuilds the sequence keeping only item occurrences accepted by
    /// `keep(txn_index, item)`; empty transactions disappear.
    pub fn filtered(&self, mut keep: impl FnMut(usize, Item) -> bool) -> Sequence {
        let itemsets =
            self.0.iter().enumerate().filter_map(|(t, set)| set.filtered(|i| keep(t, i))).collect();
        Sequence(itemsets)
    }
}

impl PartialOrd for Sequence {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Sequence {
    /// The paper's comparative order (Definition 2.2).
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        crate::order::cmp_sequences(self, other)
    }
}

impl fmt::Display for Sequence {
    /// Formats like the paper: `(a, e, g)(b)(h)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "<>");
        }
        for set in &self.0 {
            write!(f, "{set}")?;
        }
        Ok(())
    }
}

impl FromIterator<Itemset> for Sequence {
    fn from_iter<T: IntoIterator<Item = Itemset>>(iter: T) -> Self {
        Sequence::new(iter)
    }
}

impl AsRef<Sequence> for Sequence {
    fn as_ref(&self) -> &Sequence {
        self
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
    fn length_counts_item_occurrences() {
        assert_eq!(seq("(a,e,g)(b)(h)(f)(c)(b,f)").length(), 9);
        assert_eq!(Sequence::empty().length(), 0);
    }

    #[test]
    fn flat_iter_numbers_transactions() {
        // Section 2's example: in <(a)(b)(c,d)(e)> the transaction numbers
        // are 1, 2, 3, 3, 4.
        let s = seq("(a)(b)(c,d)(e)");
        let flat: Vec<(Item, u32)> = s.flat_iter().collect();
        assert_eq!(
            flat,
            vec![(item('a'), 1), (item('b'), 2), (item('c'), 3), (item('d'), 3), (item('e'), 4)]
        );
    }

    #[test]
    fn min_item_and_point() {
        // CID 2 of Table 6: (b)(a)(f)(a,c,e,g) — min item a, leftmost in txn 1 (index 1).
        let s = seq("(b)(a)(f)(a,c,e,g)");
        assert_eq!(s.min_item_with_point(), Some((item('a'), 1)));
        assert_eq!(s.min_item_after(item('a')), Some((item('b'), 0)));
        assert_eq!(s.min_item_after(item('f')), Some((item('g'), 3)));
        assert_eq!(s.min_item_after(item('g')), None);
    }

    #[test]
    fn first_txn_containing_is_the_minimum_point() {
        let s = seq("(b)(a)(f)(a,c,e,g)");
        assert_eq!(s.first_txn_containing(item('a')), Some(1));
        assert_eq!(s.first_txn_containing(item('b')), Some(0));
        assert_eq!(s.first_txn_containing(item('g')), Some(3));
        assert_eq!(s.first_txn_containing(item('z')), None);
    }

    #[test]
    fn k_prefix_truncates_flattened_form() {
        // Paper: the 3-prefix of <(a)(a,g,h)(c)> is <(a)(a,g)>.
        let s = seq("(a)(a,g,h)(c)");
        assert_eq!(s.k_prefix(3), seq("(a)(a,g)"));
        assert_eq!(s.k_prefix(4), seq("(a)(a,g,h)"));
        assert_eq!(s.k_prefix(1), seq("(a)"));
        assert_eq!(s.k_prefix(0), Sequence::empty());
    }

    #[test]
    fn extension_elements() {
        let s = seq("(a)(a,e)");
        let i_ext = s.extended(ExtElem { item: item('g'), mode: ExtMode::Itemset });
        assert_eq!(i_ext, seq("(a)(a,e,g)"));
        let s_ext = s.extended(ExtElem { item: item('c'), mode: ExtMode::Sequence });
        assert_eq!(s_ext, seq("(a)(a,e)(c)"));
    }

    #[test]
    fn ext_elem_order_prefers_small_item_then_itemset_mode() {
        let a_i = ExtElem { item: item('a'), mode: ExtMode::Itemset };
        let a_s = ExtElem { item: item('a'), mode: ExtMode::Sequence };
        let b_i = ExtElem { item: item('b'), mode: ExtMode::Itemset };
        assert!(a_i < a_s);
        assert!(a_s < b_i);
    }

    #[test]
    fn display_roundtrip() {
        let s = seq("(a, e, g)(b)(h)");
        assert_eq!(s.to_string(), "(a, e, g)(b)(h)");
        assert_eq!(Sequence::empty().to_string(), "<>");
    }

    #[test]
    fn distinct_items_sorted() {
        let s = seq("(f)(a,g)(b,f,h)(b,f)");
        let letters: String = s.distinct_items().iter().map(|i| i.as_letter().unwrap()).collect();
        assert_eq!(letters, "abfgh");
    }

    #[test]
    fn filtered_removes_occurrences() {
        // Table 6 -> Table 7: CID 1 (a,d)(d)(a,g,h)(c) reduced to (a)(a,g,h)(c).
        let s = seq("(a,d)(d)(a,g,h)(c)");
        let reduced = s.filtered(|_, i| i != item('d'));
        assert_eq!(reduced, seq("(a)(a,g,h)(c)"));
    }
}
