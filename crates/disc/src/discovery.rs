//! **Frequent k-sequence discovery** (Figure 4): the DISC strategy proper.
//!
//! Given a partition and the ascending list of frequent (k-1)-sequences, the
//! procedure
//!
//! 1. keys every member by its Apriori-KMS k-minimum subsequence in a
//!    k-sorted database — as the pair (apriori pointer, extension element),
//!    whose order is the keys' comparative order ([`RawKms`]); a key
//!    becomes a sequence only when it is reported;
//! 2. compares `α₁` (the minimum key) with `α_δ` (the key at customer
//!    position δ — weight position δ when members carry weights):
//!    * `α₁ = α_δ` → `α₁` is frequent (Lemma 2.1) and its bucket's weight
//!      is its exact support — every member containing `α₁` provably keys
//!      on it;
//!      the bucket is re-keyed past `α₁` (Ω = `>`), and — under the
//!      **bi-level** optimization of §3.2 — doubles as the *virtual
//!      partition* whose counting array yields the frequent
//!      (k+1)-sequences prefixed by `α₁`;
//!    * `α₁ < α_δ` → every k-sequence in `[α₁, α_δ)` is non-frequent
//!      (Lemma 2.2); all members keyed below `α_δ` are re-keyed to their
//!      conditional minimum `≥ α_δ` (Ω = `≥`) without touching them;
//!
//!    either way the CKMS condition is the bound key's own fields: its
//!    pointer names the prefix `X`, its element is `Y`;
//! 3. repeats until the remaining members weigh less than δ.
//!
//! Every threshold test reads weights, never row counts: a member's weight
//! is its contribution to every support (1 in ordinary mining, the
//! customer's weight in [`crate::weighted`]). Weights are non-negative, so
//! both lemmas hold unchanged — positions become cumulative weights.
//!
//! ### Why bucket weight is exact support
//!
//! Invariant: a member's key is its minimum k-subsequence (with frequent
//! prefix) satisfying its last bound, and bounds never exceed the minimum
//! key at the time they are applied. So when the loop reaches minimum `α₁`,
//! any member containing `α₁` has a bound `b` with `b ≤ α₁` (`≥`-bounds are
//! below every current key; `>`-bounds are below every future minimum),
//! hence a key `≤ α₁` — i.e. exactly `α₁`. Members evicted earlier had *no*
//! k-subsequence past their bound, so they cannot contain `α₁` either.

use crate::ckms::{apriori_ckms_resolved, BoundMode, ResolvedCondition};
use crate::counting::CountingArray;
use crate::kms::{apriori_kms_cached, ExtensionCache, RawKms};
use crate::sorted_db::{Entry, KSortedDb};
use disc_core::{AbortReason, ExtElem, MineGuard, SeqView, Sequence};

/// The output of one discovery call.
#[derive(Debug, Clone, Default)]
pub struct DiscoveryOutput {
    /// Frequent k-sequences with exact supports, ascending.
    pub freq_k: Vec<(Sequence, u64)>,
    /// Frequent (k+1)-sequences (bi-level only), ascending.
    pub freq_k1: Vec<(Sequence, u64)>,
}

/// Runs frequent k-sequence discovery over `members`, each of weight 1.
///
/// * `freq_prev` — the (k-1)-sorted list: ascending frequent
///   (k-1)-sequences, all sharing the partition prefix.
/// * `delta` — the minimum support count δ.
/// * `bi_level` — also derive the frequent (k+1)-sequences from the virtual
///   partitions (one k-sorted-database pass finds two levels, §3.2).
/// * `n_items` — item-id bound for the bi-level counting arrays.
pub fn discover_frequent_k<M: AsRef<Sequence>>(
    members: &[M],
    freq_prev: &[Sequence],
    delta: u64,
    bi_level: bool,
    n_items: usize,
) -> DiscoveryOutput {
    let views: Vec<&Sequence> = members.iter().map(AsRef::as_ref).collect();
    let guard = MineGuard::unlimited();
    discover_frequent_k_guarded(&views, freq_prev, delta, bi_level, n_items, &guard)
        .expect("unlimited guard never aborts")
}

/// [`discover_frequent_k`] under a [`MineGuard`]: charges one operation per
/// k-minimum-subsequence computation and per compare/re-key step, so a
/// cancelled or over-budget run aborts between steps. The partial
/// [`DiscoveryOutput`] accumulated so far is discarded by the `Err` return —
/// callers record patterns into their [`disc_core::MiningResult`] only from
/// completed discovery calls, keeping partial results sound without
/// re-checking supports.
pub fn discover_frequent_k_guarded<'a, S: SeqView<'a>>(
    members: &[S],
    freq_prev: &[Sequence],
    delta: u64,
    bi_level: bool,
    n_items: usize,
    guard: &MineGuard,
) -> Result<DiscoveryOutput, AbortReason> {
    let members: Vec<(S, u64)> = members.iter().map(|&m| (m, 1)).collect();
    let mut array = CountingArray::new(n_items);
    discover_frequent_k_into(&members, freq_prev, delta, bi_level, guard, &mut array)
}

/// [`discover_frequent_k_guarded`] over `(member, weight)` pairs — supports
/// are weight sums — against a caller-owned counting array (sized to the
/// item universe): the partition engine calls discovery once per partition
/// below its last split, and reusing one array across all of them turns
/// thousands of `n_items`-sized allocations into O(1) epoch resets.
pub(crate) fn discover_frequent_k_into<'a, S: SeqView<'a>>(
    members: &[(S, u64)],
    freq_prev: &[Sequence],
    delta: u64,
    bi_level: bool,
    guard: &MineGuard,
    array: &mut CountingArray,
) -> Result<DiscoveryOutput, AbortReason> {
    debug_assert!(freq_prev.windows(2).all(|w| w[0] < w[1]), "(k-1)-sorted list not sorted");
    if freq_prev.is_empty() || members.iter().map(|&(_, w)| w).sum::<u64>() < delta {
        return Ok(DiscoveryOutput::default());
    }
    let mut out = DiscoveryOutput::default();

    // Step 1: build the k-sorted database, keyed by (apriori pointer,
    // extension element) pairs into `freq_prev`. Extension sets depend only
    // on (member, prefix), so they are memoized across the whole
    // compare/re-key loop: re-keys past a bound repeatedly re-ask extension
    // questions the initial keying already answered.
    let mut cache = ExtensionCache::new(members.len(), freq_prev.len());
    // The caller-owned counting array serves every virtual partition
    // (reset is O(1); allocating per frequent pattern would memset
    // 4·n_items words tens of thousands of times per run).
    let mut db = KSortedDb::new();
    let mut ext_buf: Vec<(ExtElem, u64)> = Vec::new();
    for (m, &(seq, weight)) in members.iter().enumerate() {
        guard.checkpoint()?;
        if let Some(raw) = apriori_kms_cached(seq, freq_prev, m, &mut cache) {
            db.insert(m, raw, weight);
        }
    }

    // Step 2: compare / re-key until the members left weigh less than δ.
    while db.weight() >= delta {
        guard.checkpoint()?;
        if db.alpha_1_equals_delta(delta) {
            // Lemma 2.1: frequent; the whole bucket keys on α₁.
            let (min_key, bucket, support) = db.take_min().expect("non-empty");
            let key = freq_prev[min_key.ptr].extended(min_key.elem);

            if bi_level {
                // §3.2: the bucket is the virtual partition of α₁.
                guard.charge(bucket.len() as u64)?;
                array.reset();
                for e in &bucket {
                    let (member, weight) = members[e.member];
                    array.add_member_weighted(member, &key, weight);
                }
                array.frequent_extensions_into(delta, &mut ext_buf);
                for &(elem, support_k1) in &ext_buf {
                    out.freq_k1.push((key.extended(elem), support_k1));
                }
            }

            let rcond = resolve_key_condition(min_key, BoundMode::Strictly);
            guard.charge(bucket.len() as u64)?;
            rekey(&mut db, members, freq_prev, &rcond, bucket, &mut cache);
            out.freq_k.push((key, support));
        } else {
            // Lemma 2.2: everything in [α₁, α_δ) is non-frequent; skip it.
            let bound = db.alpha_delta(delta).expect("weight >= delta");
            let rcond = resolve_key_condition(bound, BoundMode::AtLeast);
            for bucket in db.take_less_than(bound) {
                guard.charge(bucket.len() as u64)?;
                rekey(&mut db, members, freq_prev, &rcond, bucket, &mut cache);
            }
        }
    }
    Ok(out)
}

/// [`Condition::resolve`](crate::ckms::Condition::resolve) read off a key:
/// the condition's (k-1)-prefix `X` is `freq_prev[bound.ptr]` itself, so
/// the first entry `≥ X` is at `bound.ptr` and equals `X`.
fn resolve_key_condition(bound: RawKms, mode: BoundMode) -> ResolvedCondition {
    ResolvedCondition { start: bound.ptr, eq_at_start: true, last: bound.elem, mode }
}

/// Re-keys a drained bucket by Apriori-CKMS; members without a conditional
/// minimum leave the k-sorted database. The bucket allocation is recycled
/// into the database's pool.
///
/// Every drained key is at most the bound, so its apriori pointer is at
/// most `rcond.start`, where the CKMS walk resumes (`max(ptr, start)`).
fn rekey<'a, S: SeqView<'a>>(
    db: &mut KSortedDb,
    members: &[(S, u64)],
    freq_prev: &[Sequence],
    rcond: &ResolvedCondition,
    bucket: Vec<Entry>,
    cache: &mut ExtensionCache,
) {
    for &e in &bucket {
        let (member, weight) = members[e.member];
        if let Some(raw) =
            apriori_ckms_resolved(member, freq_prev, rcond.start, rcond, e.member, cache)
        {
            db.insert(e.member, raw, weight);
        }
    }
    db.recycle(bucket);
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_core::{parse_sequence, support_count, MinSupport, SequenceDatabase};
    use disc_core::{BruteForce, SequentialMiner};

    fn seq(s: &str) -> Sequence {
        parse_sequence(s).unwrap()
    }

    fn sorted(texts: &[&str]) -> Vec<Sequence> {
        let mut v: Vec<Sequence> = texts.iter().map(|t| seq(t)).collect();
        v.sort();
        v
    }

    /// The <(a)(a)>-partition of Table 8.
    fn table8_members() -> Vec<Sequence> {
        [
            "(a)(a,g,h)(c)",
            "(b)(a)(a,c,e,g)",
            "(a,f,g)(a,e,g,h)(c,g,h)",
            "(f)(a,f)(a,c,e,g,h)",
            "(a,f)(a,e,g,h)",
            "(a,g)(a,e,g)(g,h)",
        ]
        .iter()
        .map(|t| seq(t))
        .collect()
    }

    #[test]
    fn discovers_table8_frequent_four_sequences() {
        let list = sorted(&["(a)(a,e)", "(a)(a,g)", "(a)(a,h)"]);
        let out = discover_frequent_k(&table8_members(), &list, 3, false, 8);
        let got: Vec<(String, u64)> = out.freq_k.iter().map(|(p, s)| (p.to_string(), *s)).collect();
        assert_eq!(
            got,
            vec![
                ("(a)(a, e, g)".to_string(), 5),
                ("(a)(a, e, h)".to_string(), 3),
                ("(a)(a, g, h)".to_string(), 4),
            ]
        );
        assert!(out.freq_k1.is_empty());
    }

    #[test]
    fn bi_level_also_finds_level_five() {
        // Example 3.5: <(a)(a,e,g,h)> is the only frequent 5-sequence.
        let list = sorted(&["(a)(a,e)", "(a)(a,g)", "(a)(a,h)"]);
        let out = discover_frequent_k(&table8_members(), &list, 3, true, 8);
        assert_eq!(out.freq_k.len(), 3);
        let got: Vec<(String, u64)> =
            out.freq_k1.iter().map(|(p, s)| (p.to_string(), *s)).collect();
        assert_eq!(got, vec![("(a)(a, e, g, h)".to_string(), 3)]);
    }

    #[test]
    fn supports_are_definitional() {
        let members = table8_members();
        let db = SequenceDatabase::from_sequences(members.clone());
        let list = sorted(&["(a)(a,e)", "(a)(a,g)", "(a)(a,h)"]);
        let out = discover_frequent_k(&members, &list, 3, true, 8);
        for (p, s) in out.freq_k.iter().chain(out.freq_k1.iter()) {
            assert_eq!(*s, support_count(&db, p), "pattern {p}");
        }
    }

    #[test]
    fn agrees_with_brute_force_on_the_partition() {
        // Every frequent 4-sequence with a frequent 3-prefix from the list
        // must be found — cross-check against brute force restricted to the
        // same prefixes.
        let members = table8_members();
        let db = SequenceDatabase::from_sequences(members.clone());
        let list = sorted(&["(a)(a,e)", "(a)(a,g)", "(a)(a,h)"]);
        let brute = BruteForce::default().mine(&db, MinSupport::Count(3));
        let expected: Vec<(Sequence, u64)> = brute
            .iter()
            .filter(|(p, _)| p.length() == 4 && list.contains(&p.k_prefix(3)))
            .map(|(p, s)| (p.clone(), s))
            .collect();
        let out = discover_frequent_k(&members, &list, 3, false, 8);
        assert_eq!(out.freq_k, expected);
    }

    #[test]
    fn empty_inputs_yield_nothing() {
        let members = table8_members();
        assert!(discover_frequent_k(&members, &[], 3, true, 8).freq_k.is_empty());
        let list = sorted(&["(a)(a,e)"]);
        // δ larger than the partition: nothing can be frequent.
        assert!(discover_frequent_k(&members, &list, 7, true, 8).freq_k.is_empty());
    }

    #[test]
    fn members_without_any_listed_prefix_are_ignored() {
        // A member that contains none of the frequent (k-1)-sequences never
        // enters the k-sorted database and cannot perturb supports.
        let mut members = table8_members();
        members.push(seq("(x)(y)(z)"));
        members.push(seq("(b)(c)"));
        let list = sorted(&["(a)(a,e)", "(a)(a,g)", "(a)(a,h)"]);
        let out = discover_frequent_k(&members, &list, 3, false, 26);
        let got: Vec<(String, u64)> = out.freq_k.iter().map(|(p, s)| (p.to_string(), *s)).collect();
        assert_eq!(
            got,
            vec![
                ("(a)(a, e, g)".to_string(), 5),
                ("(a)(a, e, h)".to_string(), 3),
                ("(a)(a, g, h)".to_string(), 4),
            ]
        );
    }

    #[test]
    fn bucket_sizes_equal_supports_even_with_duplicate_members() {
        // Two identical members both key on the same minima and both count.
        let members = vec![seq("(a)(a,e)(b)"), seq("(a)(a,e)(b)"), seq("(a)(a,e)(c)")];
        let list = sorted(&["(a)(a,e)"]);
        let out = discover_frequent_k(&members, &list, 2, false, 8);
        let got: Vec<(String, u64)> = out.freq_k.iter().map(|(p, s)| (p.to_string(), *s)).collect();
        assert_eq!(got, vec![("(a)(a, e)(b)".to_string(), 2)]);
    }

    #[test]
    fn delta_one_reports_every_distinct_minimum_chain() {
        // With δ = 1 every α₁ is frequent immediately; discovery enumerates
        // every 4-sequence with a frequent prefix that some member supports.
        let members = table8_members();
        let db = SequenceDatabase::from_sequences(members.clone());
        let list = sorted(&["(a)(a,e)", "(a)(a,g)", "(a)(a,h)"]);
        let out = discover_frequent_k(&members, &list, 1, false, 8);
        let brute = BruteForce::default().mine(&db, MinSupport::Count(1));
        let expected: Vec<(Sequence, u64)> = brute
            .iter()
            .filter(|(p, _)| p.length() == 4 && list.contains(&p.k_prefix(3)))
            .map(|(p, s)| (p.clone(), s))
            .collect();
        assert_eq!(out.freq_k, expected);
    }
}
