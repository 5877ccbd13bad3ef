//! **Apriori-CKMS** (Figure 6): the *conditional* k-minimum subsequence —
//! the smallest k-subsequence with a frequent (k-1)-prefix that is `>` (or
//! `≥`) the condition k-sequence `α_δ` (Definition 2.5).
//!
//! The search mirrors Apriori-KMS with two refinements from the paper:
//!
//! * the walk over the (k-1)-sorted list starts at the customer's **apriori
//!   pointer** (its previous key's prefix can only move forward), advanced to
//!   the first frequent (k-1)-sequence `≥ X`, the (k-1)-prefix of `α_δ`
//!   (steps 4–7);
//! * while the candidate prefix equals `X`, the appended element must itself
//!   satisfy the bound against `α_δ`'s last element `Y` (step 14); any later
//!   prefix `> X` makes the whole k-sequence exceed `α_δ` regardless of the
//!   element, so the plain minimum extension applies (step 13).

use crate::kms::{cached_min_extension_above, ExtensionCache, RawKms};
use disc_core::{ExtElem, ExtMode, SeqView, Sequence};

/// The bound comparison mode `Ω` of Definition 2.5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundMode {
    /// `α > α_δ` — used after `α₁` was found frequent (`α₁ = α_δ`).
    Strictly,
    /// `α ≥ α_δ` — used after `α₁` was found non-frequent.
    AtLeast,
}

impl BoundMode {
    fn admits(self, elem: ExtElem, y: ExtElem) -> bool {
        match self {
            BoundMode::Strictly => elem > y,
            BoundMode::AtLeast => elem >= y,
        }
    }
}

/// The condition k-sequence `α_δ`, pre-split into its (k-1)-prefix `X` and
/// last element `Y` so repeated CKMS calls don't re-derive them.
#[derive(Debug, Clone)]
pub struct Condition {
    /// `X`: the (k-1)-prefix of `α_δ`.
    pub prefix: Sequence,
    /// `Y`: the last flattened element of `α_δ`, as an extension of `X`.
    pub last: ExtElem,
    /// `Ω`.
    pub mode: BoundMode,
}

impl Condition {
    /// Splits `α_δ` (a k-sequence, k ≥ 2) into `(X, Y)`.
    pub fn new(alpha_delta: &Sequence, mode: BoundMode) -> Condition {
        let k = alpha_delta.length();
        assert!(k >= 2, "condition sequences have length >= 2");
        let prefix = alpha_delta.k_prefix(k - 1);
        let item = alpha_delta.last_flat_item().expect("k >= 2");
        let ext_mode = if alpha_delta.n_transactions() == prefix.n_transactions() {
            ExtMode::Itemset
        } else {
            ExtMode::Sequence
        };
        Condition { prefix, last: ExtElem { item, mode: ext_mode }, mode }
    }

    /// Binds the condition to a (k-1)-sorted list: one binary search finds
    /// the first entry `≥ X` (and whether it *is* `X`), so per-member CKMS
    /// calls against the same bucket skip the linear advance of steps 4–7 —
    /// and its per-step nested sequence comparisons — entirely.
    pub fn resolve(&self, freq_prev: &[Sequence]) -> ResolvedCondition {
        let start = freq_prev.partition_point(|f| f < &self.prefix);
        let eq_at_start = freq_prev.get(start) == Some(&self.prefix);
        ResolvedCondition { start, eq_at_start, last: self.last, mode: self.mode }
    }
}

/// A condition pre-resolved against a specific (k-1)-sorted list (see
/// [`Condition::resolve`]): everything per-member CKMS calls need, with no
/// reference to the prefix sequence itself. The list is strictly ascending,
/// so `X` can match at most the single index `start` — which is why `start`,
/// `eq_at_start` and the last element fully replace `(X, Y)`. The discovery
/// loop builds these directly from flattened keys without materializing `X`.
#[derive(Debug, Clone, Copy)]
pub struct ResolvedCondition {
    /// The first index `p` with `freq_prev[p] ≥ X`.
    pub start: usize,
    /// Whether `freq_prev[start]` equals `X` exactly.
    pub eq_at_start: bool,
    /// `Y`: the last flattened element of `α_δ`, as an extension of `X`.
    pub last: ExtElem,
    /// `Ω`.
    pub mode: BoundMode,
}

/// Apriori-CKMS (Figure 6) in raw form: the conditional k-minimum
/// subsequence of `s` under `cond`, starting the prefix walk at the apriori
/// pointer `ptr`, as a prefix index plus extension element.
///
/// Returns `None` when the customer sequence supports no k-sequence (with a
/// frequent prefix) past the bound — the customer leaves the k-sorted
/// database.
pub fn apriori_ckms_raw<'a, S: SeqView<'a>>(
    s: S,
    freq_prev: &[Sequence],
    ptr: usize,
    cond: &Condition,
) -> Option<RawKms> {
    apriori_ckms_resolved(
        s,
        freq_prev,
        ptr,
        &cond.resolve(freq_prev),
        0,
        &mut ExtensionCache::disabled(),
    )
}

/// [`apriori_ckms_raw`] against a pre-resolved condition, sharing an
/// [`ExtensionCache`] across the members of a discovery pass.
///
/// The advance of steps 4–7 collapses to `ptr.max(rc.start)`: the linear walk
/// of the figure stops at the first entry `≥ X`, which `resolve` already
/// located by binary search. Because the (k-1)-sorted list is strictly
/// ascending, the bounded step-14 filter can only apply at that single start
/// index; every later prefix is `> X`, where the unconditional minimum
/// extension — the memoizable quantity — is the answer (step 13).
pub fn apriori_ckms_resolved<'a, S: SeqView<'a>>(
    s: S,
    freq_prev: &[Sequence],
    ptr: usize,
    rc: &ResolvedCondition,
    member: usize,
    cache: &mut ExtensionCache,
) -> Option<RawKms> {
    let p = ptr.max(rc.start);
    if p == rc.start && rc.eq_at_start && p < freq_prev.len() {
        // The bound filter `admits` is up-closed (e admissible ⇒ every
        // e' > e admissible), so the bounded query is a partition point
        // of the memoized extension set.
        let strict = rc.mode == BoundMode::Strictly;
        let found = cached_min_extension_above(s, freq_prev, p, member, cache, rc.last, strict);
        debug_assert!(found.is_none_or(|e| rc.mode.admits(e, rc.last)));
        if let Some(elem) = found {
            return Some(RawKms { ptr: p, elem });
        }
        cache.first_with_extension(s, freq_prev, member, p + 1)
    } else {
        cache.first_with_extension(s, freq_prev, member, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kms::Kms;
    use disc_core::kmin::min_k_subsequence_with_allowed_prefix_naive;
    use disc_core::parse_sequence;
    use std::collections::BTreeSet;

    fn seq(s: &str) -> Sequence {
        parse_sequence(s).unwrap()
    }

    /// Apriori-CKMS with the key sequence materialized.
    fn ckms(s: &Sequence, list: &[Sequence], ptr: usize, cond: &Condition) -> Option<Kms> {
        apriori_ckms_raw(s, list, ptr, cond).map(|raw| raw.into_kms(list))
    }

    fn seqs(texts: &[&str]) -> Vec<Sequence> {
        let mut v: Vec<Sequence> = texts.iter().map(|t| seq(t)).collect();
        v.sort();
        v.dedup();
        v
    }

    #[test]
    fn condition_splits_alpha_delta() {
        let c = Condition::new(&seq("(a)(a,e,g)"), BoundMode::AtLeast);
        assert_eq!(c.prefix, seq("(a)(a,e)"));
        assert_eq!(c.last.mode, ExtMode::Itemset);
        assert_eq!(c.last.item.to_string(), "g");

        let c2 = Condition::new(&seq("(b)(d)(e)"), BoundMode::Strictly);
        assert_eq!(c2.prefix, seq("(b)(d)"));
        assert_eq!(c2.last.mode, ExtMode::Sequence);
        assert_eq!(c2.last.item.to_string(), "e");
    }

    #[test]
    fn example_3_4_resort_of_cid_3() {
        // From Table 9: <(a)(a,e)(c)> (CID 3) is non-frequent; the condition
        // is α_δ = <(a)(a,e,g)> with Ω = '≥'. The apriori pointer refers to
        // <(a)(a,e)> (index 0). The conditional 4-minimum is <(a)(a,e,g)>.
        let list = seqs(&["(a)(a,e)", "(a)(a,g)", "(a)(a,h)"]);
        let cond = Condition::new(&seq("(a)(a,e,g)"), BoundMode::AtLeast);
        let got = ckms(&seq("(a,f,g)(a,e,g,h)(c,g,h)"), &list, 0, &cond).unwrap();
        assert_eq!(got.key, seq("(a)(a,e,g)"));
        assert_eq!(got.ptr, 0);
    }

    #[test]
    fn example_1_2_resort_at_k_3() {
        // Table 3 → Table 4: with α_δ = <(b)(d)(e)> and Ω = '≥' (and every
        // 2-sequence prefix admissible at this stage of the illustration),
        // the conditional 3-minimums of CIDs 1 and 4 are <(b)(f)(b)> and
        // <(b,f)(b)>.
        let all_2seqs = seqs(&[
            "(a)(b)", "(a)(f)", "(b)(b)", "(b)(f)", "(b,f)", "(b)(d)", "(d)(e)", "(b)(h)",
            "(f)(b)", "(f)(f)", "(a,g)", "(b)(c)", "(g)(b)", "(f)(c)", "(a)(c)", "(a)(h)", "(a,e)",
            "(e)(b)", "(h)(f)", "(g)(f)", "(c)(b)", "(h)(c)", "(f,h)", "(b,h)", "(g)(h)", "(a)(e)",
        ]);
        let cond = Condition::new(&seq("(b)(d)(e)"), BoundMode::AtLeast);
        let cid1 = ckms(&seq("(a,e,g)(b)(h)(f)(c)(b,f)"), &all_2seqs, 0, &cond).unwrap();
        assert_eq!(cid1.key, seq("(b)(f)(b)"));
        let cid4 = ckms(&seq("(f)(a,g)(b,f,h)(b,f)"), &all_2seqs, 0, &cond).unwrap();
        assert_eq!(cid4.key, seq("(b,f)(b)"));
    }

    #[test]
    fn strict_bound_skips_the_condition_itself() {
        let list = seqs(&["(a)(b)"]);
        let s = seq("(a)(b)(c)(b)(d)");
        let at_least =
            ckms(&s, &list, 0, &Condition::new(&seq("(a)(b)(c)"), BoundMode::AtLeast)).unwrap();
        assert_eq!(at_least.key, seq("(a)(b)(c)"));
        let strictly =
            ckms(&s, &list, 0, &Condition::new(&seq("(a)(b)(c)"), BoundMode::Strictly)).unwrap();
        assert_eq!(strictly.key, seq("(a)(b)(d)"));
    }

    #[test]
    fn reembedded_itemset_extension_respects_bound() {
        // The case the literal Fig. 5/6 pseudocode misses: past the bound
        // <(a)(b)(c)>, the minimum is the itemset extension <(a)(b,f)> —
        // realized by re-embedding the prefix's last itemset in the final
        // (b,f) transaction, not at its leftmost match.
        let list = seqs(&["(a)(b)"]);
        let s = seq("(a)(b)(c)(b,f)");
        let cond = Condition::new(&seq("(a)(b)(c)"), BoundMode::Strictly);
        let got = ckms(&s, &list, 0, &cond).unwrap();
        assert_eq!(got.key, seq("(a)(b,f)"));
    }

    #[test]
    fn exhausted_sequences_return_none() {
        let list = seqs(&["(a)(b)"]);
        let cond = Condition::new(&seq("(a)(b)(z)"), BoundMode::AtLeast);
        assert_eq!(ckms(&seq("(a)(b)(c)"), &list, 0, &cond), None);
    }

    #[test]
    fn pointer_past_the_prefix_is_honored() {
        // A pointer beyond X must not look back: with ptr = 1 the list walk
        // starts at <(c)(d)> even though <(a)(b)> would match.
        let list = seqs(&["(a)(b)", "(c)(d)"]);
        let cond = Condition::new(&seq("(a)(b)(c)"), BoundMode::AtLeast);
        let s = seq("(a)(b)(c)(d)(e)");
        let got = ckms(&s, &list, 1, &cond).unwrap();
        assert_eq!(got.key, seq("(c)(d)(e)"));
    }

    #[test]
    fn bound_applies_to_both_extension_forms() {
        // Prefix X = <(a)>, Y = (b, same-txn). Sequence (a,b)(b): the
        // itemset extension (a,b) equals the bound; strict mode must fall
        // through to the sequence extension <(a)(b)>.
        let list = seqs(&["(a)"]);
        let s = seq("(a,b)(b)");
        let eq = ckms(&s, &list, 0, &Condition::new(&seq("(a,b)"), BoundMode::AtLeast)).unwrap();
        assert_eq!(eq.key, seq("(a,b)"));
        let gt = ckms(&s, &list, 0, &Condition::new(&seq("(a,b)"), BoundMode::Strictly)).unwrap();
        assert_eq!(gt.key, seq("(a)(b)"));
    }

    #[test]
    fn matches_exhaustive_reference() {
        // Conditional minima agree with exhaustive enumeration across bounds
        // and modes on the Table 8 partition.
        let list = seqs(&["(a)(a,e)", "(a)(a,g)", "(a)(a,h)"]);
        let allowed: BTreeSet<Sequence> = list.iter().cloned().collect();
        let customers = [
            "(a)(a,g,h)(c)",
            "(b)(a)(a,c,e,g)",
            "(a,f,g)(a,e,g,h)(c,g,h)",
            "(f)(a,f)(a,c,e,g,h)",
            "(a,f)(a,e,g,h)",
            "(a,g)(a,e,g)(g,h)",
        ];
        let bounds = ["(a)(a,e)(c)", "(a)(a,e,g)", "(a)(a,g)(c)", "(a)(a,h)(c)"];
        for customer in customers {
            let s = seq(customer);
            for bound_text in bounds {
                let bound = seq(bound_text);
                for (mode, strict) in [(BoundMode::AtLeast, false), (BoundMode::Strictly, true)] {
                    let cond = Condition::new(&bound, mode);
                    let fast = ckms(&s, &list, 0, &cond).map(|k| k.key);
                    let slow = min_k_subsequence_with_allowed_prefix_naive(
                        &s,
                        4,
                        &allowed,
                        Some((&bound, strict)),
                    );
                    assert_eq!(fast, slow, "customer {customer} bound {bound_text} {mode:?}");
                }
            }
        }
    }
}
