//! **GSP** (Srikant & Agrawal, EDBT 1996) — the level-wise,
//! generate-and-test baseline (without the taxonomies / sliding-window /
//! time-constraint generalizations, which the DISC problem setting does not
//! use).
//!
//! Each pass k: candidates are produced by **joining** F₍k₋₁₎ with itself —
//! `s₁` joins `s₂` when dropping `s₁`'s first flattened element equals
//! dropping `s₂`'s last — then **pruned** by the anti-monotone property
//! (every (k-1)-subsequence obtained by dropping one element must be
//! frequent), and finally **counted** with a full containment scan of the
//! database. The paper's critique — repeated decomposition of customer
//! sequences for support counting — is exactly this scan.

use disc_core::constraints::{contains_with, contiguous_subsequences, TimeConstraints};
use disc_core::{
    contains, run_guarded, AbortReason, ExtElem, ExtMode, GuardedResult, Item, Itemset, MinSupport,
    MineGuard, MiningResult, Sequence, SequenceDatabase, SequentialMiner,
};
use std::collections::{BTreeMap, BTreeSet};

/// The GSP miner. With [`TimeConstraints`] set it mines under the GSP
/// paper's generalized containment (sliding window, min/max gap); candidate
/// pruning then uses **contiguous** subsequences only, because `max_gap`
/// breaks plain anti-monotonicity (a data sequence can contain a pattern
/// while a non-contiguous subsequence violates the gap).
#[derive(Debug, Clone, Default)]
pub struct Gsp {
    /// Time constraints; default = plain containment.
    pub constraints: TimeConstraints,
}

impl Gsp {
    /// A GSP miner with time constraints.
    pub fn with_constraints(constraints: TimeConstraints) -> Gsp {
        Gsp { constraints }
    }
}

/// Drops the `i`-th flattened element (0-based), erasing its transaction if
/// it becomes empty.
fn drop_flat(seq: &Sequence, i: usize) -> Sequence {
    let mut flat_pos = 0usize;
    let mut out: Vec<Itemset> = Vec::with_capacity(seq.n_transactions());
    for set in seq.itemsets() {
        if flat_pos + set.len() <= i || flat_pos > i {
            out.push(set.clone());
        } else {
            let keep_idx = i - flat_pos;
            let items: Vec<Item> = set
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != keep_idx)
                .map(|(_, item)| item)
                .collect();
            if !items.is_empty() {
                out.push(Itemset::from_sorted(items));
            }
        }
        flat_pos += set.len();
    }
    Sequence::new(out)
}

/// Drops the first flattened element. GSP's join key for the left operand.
fn drop_first(seq: &Sequence) -> Sequence {
    drop_flat(seq, 0)
}

/// Drops the last flattened element. GSP's join key for the right operand.
fn drop_last(seq: &Sequence) -> Sequence {
    drop_flat(seq, seq.length() - 1)
}

/// Joins `s1` with `s2` (given `drop_first(s1) == drop_last(s2)`): appends
/// `s2`'s last element to `s1`, as a new transaction iff it formed its own
/// transaction in `s2`.
fn join(s1: &Sequence, s2: &Sequence) -> Option<Sequence> {
    let last_set = s2.last_itemset().expect("non-empty");
    let item = last_set.max_item();
    let mode = if last_set.len() == 1 { ExtMode::Sequence } else { ExtMode::Itemset };
    match mode {
        ExtMode::Sequence => Some(s1.extended(ExtElem { item, mode })),
        ExtMode::Itemset => {
            // The item must append past s1's last element for the flattened
            // form to stay canonical; otherwise this join pair contributes
            // nothing (the candidate arises from another pair).
            if item > s1.last_flat_item().expect("non-empty") {
                Some(s1.extended(ExtElem { item, mode }))
            } else {
                None
            }
        }
    }
}

impl SequentialMiner for Gsp {
    fn name(&self) -> &str {
        if self.constraints.is_none() {
            "GSP"
        } else {
            "GSP (constrained)"
        }
    }

    fn mine_guarded(
        &self,
        db: &SequenceDatabase,
        min_support: MinSupport,
        guard: &MineGuard,
    ) -> GuardedResult {
        run_guarded(guard, |result| self.mine_into(db, min_support, guard, result))
    }
}

impl Gsp {
    /// The cooperative core: checkpoints per scanned sequence, per join
    /// pair, and per pruned candidate.
    fn mine_into(
        &self,
        db: &SequenceDatabase,
        min_support: MinSupport,
        guard: &MineGuard,
        result: &mut MiningResult,
    ) -> Result<(), AbortReason> {
        let delta = min_support.resolve(db.len());

        // Pass 1.
        let mut counts: BTreeMap<Item, u64> = BTreeMap::new();
        for s in db.sequences() {
            guard.checkpoint()?;
            for item in s.distinct_items() {
                *counts.entry(item).or_insert(0) += 1;
            }
        }
        let f1: Vec<Item> = counts.iter().filter(|(_, &c)| c >= delta).map(|(&i, _)| i).collect();
        for &item in &f1 {
            guard.note_pattern()?;
            result.insert(Sequence::single(item), counts[&item]);
        }

        // Pass 2: the join of F1 with itself degenerates to all pairs.
        let mut candidates = Vec::new();
        for &x in &f1 {
            for &y in &f1 {
                guard.checkpoint()?;
                candidates.push(
                    Sequence::single(x).extended(ExtElem { item: y, mode: ExtMode::Sequence }),
                );
                if y > x {
                    candidates.push(
                        Sequence::single(x).extended(ExtElem { item: y, mode: ExtMode::Itemset }),
                    );
                }
            }
        }
        let mut frontier =
            count_and_filter(db, candidates, delta, &self.constraints, guard, result)?;

        // Passes k ≥ 3.
        while !frontier.is_empty() {
            let frequent: BTreeSet<&Sequence> = frontier.iter().collect();
            // Join.
            let mut by_tail: BTreeMap<Sequence, Vec<&Sequence>> = BTreeMap::new();
            for s in &frontier {
                guard.checkpoint()?;
                by_tail.entry(drop_first(s)).or_default().push(s);
            }
            let mut candidates: BTreeSet<Sequence> = BTreeSet::new();
            for s2 in &frontier {
                guard.checkpoint()?;
                let key = drop_last(s2);
                if let Some(lefts) = by_tail.get(&key) {
                    for s1 in lefts {
                        if let Some(cand) = join(s1, s2) {
                            candidates.insert(cand);
                        }
                    }
                }
            }
            // Prune. Unconstrained: every one-element-dropped subsequence
            // must be frequent. Constrained: only the contiguous
            // subsequences may be required frequent (GSP §3.2).
            let mut pruned: Vec<Sequence> = Vec::new();
            for cand in candidates {
                guard.checkpoint()?;
                let keep = if self.constraints.is_none() {
                    (0..cand.length()).all(|i| {
                        let sub = drop_flat(&cand, i);
                        frequent.contains(&sub)
                    })
                } else {
                    contiguous_subsequences(&cand).iter().all(|sub| frequent.contains(sub))
                };
                if keep {
                    pruned.push(cand);
                }
            }
            frontier = count_and_filter(db, pruned, delta, &self.constraints, guard, result)?;
        }
        Ok(())
    }
}

/// Counts candidates by scanning the database once with the GSP **hash
/// tree**: interior nodes hash on the next flattened item of a candidate,
/// leaves hold candidate lists. For each customer sequence the tree is
/// descended along every combination of increasing item positions, so a
/// leaf is only reached by sequences that share the hashed prefix items —
/// the candidates actually checked for containment are a small superset of
/// the contained ones.
fn count_and_filter(
    db: &SequenceDatabase,
    candidates: Vec<Sequence>,
    delta: u64,
    constraints: &TimeConstraints,
    guard: &MineGuard,
    result: &mut MiningResult,
) -> Result<Vec<Sequence>, AbortReason> {
    if candidates.is_empty() {
        return Ok(Vec::new());
    }
    let mut supports = vec![0u64; candidates.len()];
    if constraints.window.unwrap_or(0) > 0 {
        // A sliding window lets an element's items appear out of flattened
        // order in the data, so hash-tree reachability (which follows
        // increasing positions) is not a sound filter — scan directly.
        for s in db.sequences() {
            guard.charge(candidates.len() as u64)?;
            for (idx, cand) in candidates.iter().enumerate() {
                if contains_with(s, cand, constraints) {
                    supports[idx] += 1;
                }
            }
        }
    } else {
        let tree = HashTree::build(&candidates);
        // Stamps avoid re-checking a candidate reached through several paths
        // of the same customer sequence.
        let mut stamp = vec![0u32; candidates.len()];
        for (row, s) in db.sequences().enumerate() {
            guard.checkpoint()?;
            let flat: Vec<Item> = s.flat_iter().map(|(item, _)| item).collect();
            tree.for_each_reachable(&flat, &mut |cand_idx| {
                if stamp[cand_idx] != row as u32 + 1 {
                    stamp[cand_idx] = row as u32 + 1;
                    let hit = if constraints.is_none() {
                        contains(s, &candidates[cand_idx])
                    } else {
                        contains_with(s, &candidates[cand_idx], constraints)
                    };
                    if hit {
                        supports[cand_idx] += 1;
                    }
                }
            });
        }
    }
    let mut out = Vec::new();
    for (cand, support) in candidates.into_iter().zip(supports) {
        if support >= delta {
            guard.note_pattern()?;
            result.insert(cand.clone(), support);
            out.push(cand);
        }
    }
    Ok(out)
}

/// The GSP candidate hash tree.
struct HashTree {
    root: HtNode,
}

enum HtNode {
    Interior(Box<[HtNode; HASH_FANOUT]>),
    Leaf(Vec<usize>),
}

const HASH_FANOUT: usize = 8;
const LEAF_SPLIT: usize = 16;

fn bucket_of(item: Item) -> usize {
    (item.id() as usize).wrapping_mul(2654435761) % HASH_FANOUT
}

impl HashTree {
    fn build(candidates: &[Sequence]) -> HashTree {
        let k = candidates.first().map_or(0, Sequence::length);
        let flats: Vec<Vec<Item>> = candidates
            .iter()
            .map(|cand| {
                debug_assert_eq!(cand.length(), k, "one tree per candidate level");
                cand.flat_iter().map(|(item, _)| item).collect()
            })
            .collect();
        let all: Vec<usize> = (0..candidates.len()).collect();
        HashTree { root: build_node(&flats, all, 0, k) }
    }

    /// Invokes `f` with every candidate whose hashed item path is realizable
    /// as an increasing position sequence in `flat`.
    fn for_each_reachable(&self, flat: &[Item], f: &mut impl FnMut(usize)) {
        visit(&self.root, flat, 0, f);
    }
}

/// Recursively builds a node for the candidates in `members`: leaves stay
/// leaves until they overflow and hashed items remain; interiors partition
/// by the bucket of the `depth`-th flattened item.
fn build_node(flats: &[Vec<Item>], members: Vec<usize>, depth: usize, k: usize) -> HtNode {
    if members.len() <= LEAF_SPLIT || depth >= k {
        return HtNode::Leaf(members);
    }
    let mut buckets: Vec<Vec<usize>> = (0..HASH_FANOUT).map(|_| Vec::new()).collect();
    for idx in members {
        buckets[bucket_of(flats[idx][depth])].push(idx);
    }
    let children: Vec<HtNode> =
        buckets.into_iter().map(|b| build_node(flats, b, depth + 1, k)).collect();
    let array: Box<[HtNode; HASH_FANOUT]> =
        children.try_into().unwrap_or_else(|_| unreachable!("exactly HASH_FANOUT children"));
    HtNode::Interior(array)
}

fn visit(node: &HtNode, flat: &[Item], from: usize, f: &mut impl FnMut(usize)) {
    match node {
        HtNode::Leaf(list) => {
            for &idx in list {
                f(idx);
            }
        }
        HtNode::Interior(children) => {
            // Hash on every item at position >= from, recursing past it.
            for (p, &item) in flat.iter().enumerate().skip(from) {
                visit(&children[bucket_of(item)], flat, p + 1, f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_core::{parse_sequence, BruteForce};

    fn seq(s: &str) -> Sequence {
        parse_sequence(s).unwrap()
    }

    #[test]
    fn drop_flat_elements() {
        let s = seq("(a,b)(c)(d,e)");
        assert_eq!(drop_flat(&s, 0), seq("(b)(c)(d,e)"));
        assert_eq!(drop_flat(&s, 1), seq("(a)(c)(d,e)"));
        assert_eq!(drop_flat(&s, 2), seq("(a,b)(d,e)"));
        assert_eq!(drop_flat(&s, 4), seq("(a,b)(c)(d)"));
        assert_eq!(drop_first(&s), seq("(b)(c)(d,e)"));
        assert_eq!(drop_last(&s), seq("(a,b)(c)(d)"));
    }

    #[test]
    fn join_respects_transaction_structure() {
        // <(a)(b)> ⋈ <(b)(c)> = <(a)(b)(c)>; <(a)(b)> ⋈ <(b,c)> = <(a)(b,c)>.
        assert_eq!(join(&seq("(a)(b)"), &seq("(b)(c)")), Some(seq("(a)(b)(c)")));
        assert_eq!(join(&seq("(a)(b)"), &seq("(b,c)")), Some(seq("(a)(b,c)")));
        // Itemset join below the last element is non-canonical.
        assert_eq!(join(&seq("(a)(c)"), &seq("(b,c)")), None);
    }

    #[test]
    fn hash_tree_reaches_every_contained_candidate() {
        // Reachability must be a superset of containment, whatever the
        // bucket layout.
        let candidates: Vec<Sequence> = [
            "(a)(b)(c)",
            "(a)(b,c)",
            "(a,b)(c)",
            "(b)(c)(a)",
            "(c)(b)(a)",
            "(a)(a)(a)",
            "(b,f)(g)",
            "(e)(b)(f)",
            "(g)(h)(f)",
            "(a,e)(b)",
            "(f)(f)(f)",
            "(h)(c)(b)",
            "(a)(c)(f)",
            "(b)(h)(c)",
            "(e)(f)(c)",
            "(g)(b)(b)",
            "(a,g)(b)",
            "(b)(b,f)",
        ]
        .iter()
        .map(|t| seq(t))
        .collect();
        let tree = HashTree::build(&candidates);
        let hay = seq("(a,e,g)(b)(h)(f)(c)(b,f)");
        let flat: Vec<Item> = hay.flat_iter().map(|(i, _)| i).collect();
        let mut reached = vec![false; candidates.len()];
        tree.for_each_reachable(&flat, &mut |idx| reached[idx] = true);
        for (idx, cand) in candidates.iter().enumerate() {
            if contains(&hay, cand) {
                assert!(reached[idx], "contained candidate {cand} not reached");
            }
        }
    }

    #[test]
    fn hash_tree_splits_large_candidate_sets() {
        // > LEAF_SPLIT candidates with distinct leading items must produce
        // an interior root (i.e. real pruning, not one big leaf).
        let candidates: Vec<Sequence> = (0..40u32)
            .map(|i| {
                Sequence::new([
                    disc_core::Itemset::single(Item(i)),
                    disc_core::Itemset::single(Item(i + 1)),
                    disc_core::Itemset::single(Item(i + 2)),
                ])
            })
            .collect();
        let tree = HashTree::build(&candidates);
        assert!(matches!(tree.root, HtNode::Interior(_)));
        // A sequence with items far outside every candidate reaches nothing.
        let hay = seq("(900)(901)(902)");
        let flat: Vec<Item> = hay.flat_iter().map(|(i, _)| i).collect();
        let mut reached = 0usize;
        tree.for_each_reachable(&flat, &mut |_| reached += 1);
        // Hash collisions may admit a few, but most of the 40 are pruned.
        assert!(reached < 40, "no pruning happened");
    }

    #[test]
    fn matches_brute_force_on_table_1() {
        let db = SequenceDatabase::from_parsed(&[
            "(a,e,g)(b)(h)(f)(c)(b,f)",
            "(b)(d,f)(e)",
            "(b,f,g)",
            "(f)(a,g)(b,f,h)(b,f)",
        ])
        .unwrap();
        for delta in 1..=4 {
            let expected = BruteForce::default().mine(&db, MinSupport::Count(delta));
            let got = Gsp::default().mine(&db, MinSupport::Count(delta));
            let diff = got.diff(&expected);
            assert!(diff.is_empty(), "δ={delta}:\n{}", diff.join("\n"));
        }
    }

    #[test]
    fn empty_database() {
        let r = Gsp::default().mine(&SequenceDatabase::new(), MinSupport::Count(1));
        assert!(r.is_empty());
    }

    #[test]
    fn constrained_gsp_matches_definitional_counting() {
        // Gap constraints only restrict containment, so the constrained
        // frequent set is a subset of the unconstrained one with supports
        // recomputed under `contains_with` — checked definitionally.
        use disc_core::constraints::support_count_with;
        use disc_core::BruteForce;
        let db = SequenceDatabase::from_parsed(&[
            "(a)(b)(x)(c)",
            "(a)(x)(b)(c)",
            "(a)(b)(c)",
            "(a)(x)(x)(b)(x)(c)",
        ])
        .unwrap();
        for constraints in [
            TimeConstraints { max_gap: Some(2), ..Default::default() },
            TimeConstraints { min_gap: Some(1), ..Default::default() },
            TimeConstraints { min_gap: Some(1), max_gap: Some(3), ..Default::default() },
        ] {
            let delta = 2u64;
            let got = Gsp::with_constraints(constraints).mine(&db, MinSupport::Count(delta));
            // Expected: every unconstrained frequent-at-1 pattern whose
            // constrained support reaches δ.
            let universe = BruteForce::default().mine(&db, MinSupport::Count(1));
            for (p, _) in universe.iter() {
                let sup = support_count_with(&db, p, &constraints);
                assert_eq!(
                    got.support_of(p),
                    if sup >= delta { Some(sup) } else { None },
                    "{p} under {constraints:?}"
                );
            }
            // And nothing extra.
            for (p, s) in got.iter() {
                assert_eq!(s, support_count_with(&db, p, &constraints), "{p}");
            }
        }
    }

    #[test]
    fn windowed_gsp_assembles_elements() {
        // (a,b) never co-occurs in one transaction, but always within a
        // 1-transaction window.
        let db = SequenceDatabase::from_parsed(&["(a)(b)(c)", "(b)(a)(c)", "(a)(b)"]).unwrap();
        let plain = Gsp::default().mine(&db, MinSupport::Count(3));
        assert!(!plain.contains_pattern(&seq("(a,b)")));
        let c = TimeConstraints { window: Some(1), ..Default::default() };
        let windowed = Gsp::with_constraints(c).mine(&db, MinSupport::Count(3));
        assert_eq!(windowed.support_of(&seq("(a,b)")), Some(3));
        // The out-of-flattened-order row (b)(a) must count — the direct-scan
        // path, not hash-tree reachability.
        assert_eq!(disc_core::constraints::support_count_with(&db, &seq("(a,b)"), &c), 3);
    }

    #[test]
    fn max_gap_can_break_plain_antimonotonicity() {
        // <(a)(b)(c)> with max_gap 1 is contained in (a)(b)(c) rows, but its
        // subsequence <(a)(c)> is NOT (gap 2) — the reason constrained GSP
        // must prune with contiguous subsequences only.
        let db = SequenceDatabase::from_parsed(&["(a)(b)(c)", "(a)(b)(c)"]).unwrap();
        let c = TimeConstraints { max_gap: Some(1), ..Default::default() };
        let got = Gsp::with_constraints(c).mine(&db, MinSupport::Count(2));
        assert_eq!(got.support_of(&seq("(a)(b)(c)")), Some(2));
        assert!(!got.contains_pattern(&seq("(a)(c)")));
    }
}
