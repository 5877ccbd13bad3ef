//! The paper's **comparative order** on sequences (Definitions 2.1–2.2).
//!
//! A sequence is viewed in its *flattened* form: the list of
//! `(item, transaction-number)` pairs obtained by renumbering transactions
//! from 1 and walking items left-to-right (ascending within a transaction).
//! The **differential point** of two sequences is the first position at which
//! the pairs differ (Definition 2.1 — its published conjunction "items differ
//! *and* numbers differ" is read as "the pairs differ", which is what the
//! paper's own Example 2.1 requires: there the items are equal at the
//! differential point and only the numbers differ). Definition 2.2 then
//! orders by item first and transaction number second, and treats a proper
//! prefix as smaller ("add a special item that is smaller than any other item
//! to the end of the shorter sequence").
//!
//! In other words: the comparative order is the lexicographic order over the
//! flattened pairs with pair order `(item, transaction-number)` — a total
//! order, which is what lets DISC sort a database by k-minimum subsequences
//! and read frequency off ranks.

use crate::flat::SeqView;
use crate::item::Item;
use crate::sequence::Sequence;
use std::cmp::Ordering;

/// Compares two sequences in the comparative order of Definition 2.2.
///
/// ```
/// use disc_core::{cmp_sequences, parse_sequence};
/// use std::cmp::Ordering;
///
/// let a = parse_sequence("(a)(b)(h)").unwrap();
/// let b = parse_sequence("(a)(c)(f)").unwrap();
/// assert_eq!(cmp_sequences(&a, &b), Ordering::Less); // b < c in txn 2
///
/// // Same items, different distribution: <(a,b)(c)> < <(a)(b,c)>.
/// let c = parse_sequence("(a,b)(c)").unwrap();
/// let d = parse_sequence("(a)(b,c)").unwrap();
/// assert_eq!(cmp_sequences(&c, &d), Ordering::Less);
/// ```
pub fn cmp_sequences(a: &Sequence, b: &Sequence) -> Ordering {
    cmp_views(a, b)
}

/// [`cmp_sequences`] generalized over [`SeqView`]s, so flat storage rows
/// compare against each other (or against nested sequences) without
/// materializing anything.
///
/// The comparison walks transaction by transaction rather than pair by pair:
/// within one transaction both sides carry the same txn number, so the pair
/// order reduces to item order and the shared item prefix is skipped with one
/// linear scan. When the itemsets have different lengths the pair streams
/// desynchronize, but the outcome is decided immediately at that point: the
/// shorter side's next pair (if any) is the first item of its *next*
/// transaction, which is compared against the longer side's surplus item —
/// and on an item tie the shorter side's larger txn number loses. Itemsets
/// are non-empty by the model's invariant, which is what makes "first item
/// of the next transaction" well-defined.
pub fn cmp_views<'x, 'y>(a: impl SeqView<'x>, b: impl SeqView<'y>) -> Ordering {
    let na = a.n_transactions();
    let nb = b.n_transactions();
    let n = na.min(nb);
    for t in 0..n {
        let xa = a.itemset_items(t);
        let xb = b.itemset_items(t);
        let m = xa.len().min(xb.len());
        let d = first_diff(&xa[..m], &xb[..m]);
        if d < m {
            return xa[d].cmp(&xb[d]);
        }
        if xa.len() == xb.len() {
            continue;
        }
        // Itemset lengths differ: the side with the shorter itemset either
        // ends here (prefix, smaller) or continues in transaction t+1, whose
        // txn number exceeds the surplus pair's — so an item tie goes against
        // it (Definition 2.2(b)).
        return if xa.len() < xb.len() {
            if t + 1 >= na {
                Ordering::Less
            } else {
                match a.itemset_items(t + 1)[0].cmp(&xb[m]) {
                    Ordering::Equal => Ordering::Greater,
                    ord => ord,
                }
            }
        } else if t + 1 >= nb {
            Ordering::Greater
        } else {
            match xa[m].cmp(&b.itemset_items(t + 1)[0]) {
                Ordering::Equal => Ordering::Less,
                ord => ord,
            }
        };
    }
    na.cmp(&nb)
}

/// Index of the first position where two equal-length item slices differ;
/// their length when they are identical.
#[inline]
fn first_diff(a: &[Item], b: &[Item]) -> usize {
    let mut i = 0;
    while i < a.len() && a[i] == b[i] {
        i += 1;
    }
    i
}

/// The differential point of Definition 2.1: the 1-based flattened position
/// of the first differing pair, or `None` when the sequences are equal.
///
/// When one sequence is a proper prefix of the other, the differential point
/// is the position just past the shorter sequence (the paper's "special item"
/// convention).
pub fn differential_point(a: &Sequence, b: &Sequence) -> Option<usize> {
    let mut ia = a.flat_iter();
    let mut ib = b.flat_iter();
    let mut pos = 0usize;
    loop {
        pos += 1;
        match (ia.next(), ib.next()) {
            (None, None) => return None,
            (Some(x), Some(y)) if x == y => continue,
            _ => return Some(pos),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_sequence;
    use crate::sequence::Sequence;

    fn seq(s: &str) -> Sequence {
        parse_sequence(s).unwrap()
    }

    #[test]
    fn example_2_1_items_decide() {
        // A = <(a,c,d)(b,d)>, B = <(a,d,e)(a)>: differential point 2 because
        // A_2.item = c < d = B_2.item, hence A < B.
        let a = seq("(a,c,d)(b,d)");
        let b = seq("(a,d,e)(a)");
        assert_eq!(differential_point(&a, &b), Some(2));
        assert_eq!(cmp_sequences(&a, &b), Ordering::Less);
    }

    #[test]
    fn example_2_1_transaction_numbers_decide() {
        // Definition 2.2(b): when the items at the differential point are
        // equal, the smaller transaction number wins. (The paper's literal
        // Example 2.1 writes the itemset "(d, a)" in unsorted order, which
        // contradicts the set model used everywhere else in the paper; this
        // is the same comparison with itemsets as sets.)
        let a = seq("(a,c,d)(b,d)"); // flat: (a,1)(c,1)(d,1)(b,2)(d,2)
        let c = seq("(a,c)(d,e)"); //   flat: (a,1)(c,1)(d,2)(e,2)
        assert_eq!(differential_point(&a, &c), Some(3));
        assert_eq!(cmp_sequences(&a, &c), Ordering::Less); // d in txn 1 vs txn 2

        // And with the paper's C normalized to a set, <(a,c)(a,d)>, the items
        // at position 3 differ (d vs a), so 2.2(a) applies instead.
        let c_set = seq("(a,c)(a,d)");
        assert_eq!(differential_point(&a, &c_set), Some(3));
        assert_eq!(cmp_sequences(&a, &c_set), Ordering::Greater);
    }

    #[test]
    fn section_1_2_examples() {
        // <(a)(b)(h)> < <(a)(c)(f)>: in the 2nd transactions, b < c.
        assert!(seq("(a)(b)(h)") < seq("(a)(c)(f)"));
        // <(a,b)(c)> < <(a)(b,c)>: same items, b in an earlier transaction.
        assert!(seq("(a,b)(c)") < seq("(a)(b,c)"));
    }

    #[test]
    fn prefix_is_smaller() {
        assert_eq!(cmp_sequences(&seq("(a)(b)"), &seq("(a)(b)(c)")), Ordering::Less);
        assert_eq!(cmp_sequences(&seq("(a)(b)(c)"), &seq("(a)(b)")), Ordering::Greater);
        assert_eq!(differential_point(&seq("(a)(b)"), &seq("(a)(b)(c)")), Some(3));
    }

    #[test]
    fn equal_sequences_have_no_differential_point() {
        let a = seq("(a,e,g)(b)");
        assert_eq!(differential_point(&a, &a.clone()), None);
        assert_eq!(cmp_sequences(&a, &a.clone()), Ordering::Equal);
    }

    #[test]
    fn empty_sequence_is_minimum() {
        assert_eq!(cmp_sequences(&Sequence::empty(), &seq("(a)")), Ordering::Less);
        assert_eq!(cmp_sequences(&Sequence::empty(), &Sequence::empty()), Ordering::Equal);
    }

    #[test]
    fn table_3_sort_order() {
        // The 3-minimum subsequences of Table 3, already in sorted order:
        // (a)(b)(b) = (a)(b)(b) < (b)(d)(e) < (b,f,g).
        let rows = [seq("(a)(b)(b)"), seq("(a)(b)(b)"), seq("(b)(d)(e)"), seq("(b,f,g)")];
        let mut sorted = rows.to_vec();
        sorted.sort();
        assert_eq!(sorted, rows.to_vec());
        // And <(b,f,g)> > <(b)(f)(b)> (Table 4 ordering: (b)(f)(b) comes before (b,f,g)?
        // No: Table 4 lists (b)(d)(e), (b,f)(b), (b,f,g), (b)(f)(b) — check pairwise).
        assert!(seq("(b)(d)(e)") < seq("(b,f)(b)"));
        assert!(seq("(b,f)(b)") < seq("(b,f,g)"));
    }

    #[test]
    fn cmp_views_agrees_with_cmp_sequences() {
        let texts =
            ["(a)(b)(h)", "(a)(c)(f)", "(a,b)(c)", "(a)(b,c)", "(a)(b)", "(a)(b)(c)", "(b,f,g)"];
        for x in &texts {
            for y in &texts {
                let (sx, sy) = (seq(x), seq(y));
                assert_eq!(cmp_views(&sx, &sy), cmp_sequences(&sx, &sy), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn itemset_extension_sorts_before_sequence_extension() {
        // <(a)(a,e)> < <(a)(a)(e)>: same items, e attaches to txn 2 vs txn 3.
        assert!(seq("(a)(a,e)") < seq("(a)(a)(e)"));
    }
}
