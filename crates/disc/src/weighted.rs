//! **Weighted sequence mining** — the paper's §5 future-work direction
//! ("weighting applications": page weights in WWW traversal, gene importance
//! in DNA analysis).
//!
//! Each customer sequence carries a weight; the *weighted support* of a
//! pattern is the total weight of the customers containing it, and a pattern
//! is frequent when its weighted support reaches a threshold `δ_w`. The DISC
//! strategy transfers directly because its two lemmas never count anything —
//! they only compare positions in a sorted database:
//!
//! * sort customers by (conditional) k-minimum subsequence, with weights;
//! * let `α_δ` be the key at the position where **cumulative weight**
//!   reaches `δ_w` ([`KSortedDb::alpha_delta`](crate::sorted_db::KSortedDb::alpha_delta));
//! * `α₁ = α_δ` ⇒ the bucket of `α₁` carries weight ≥ `δ_w`, and — by the
//!   same invariant as the unweighted case — every customer containing `α₁`
//!   keys on it, so the bucket weight is the exact weighted support;
//! * `α₁ < α_δ` ⇒ any `α ∈ [α₁, α_δ)` is supported only by customers keyed
//!   below `α_δ`, whose total weight is < `δ_w` — non-frequent, skipped.
//!
//! The counting arrays sum weights the same way, and every partition-size
//! test compares a weight sum with `δ_w`, so [`WeightedDisc`] is DISC-all's
//! partition engine ([`crate::disc_all`]) run with the customers' weights.
//! Uniform weight 1 is ordinary mining, exactly (property-tested).

use crate::disc_all::{mine_partitioned, DiscConfig, Engine, DISC_ALL_POLICY};
use crate::resume::mine_on_flat;
use disc_core::{
    contains, run_guarded, CustomerId, FlatDb, GuardedResult, MineGuard, MiningResult, Sequence,
    SequenceDatabase,
};

/// A sequence database whose customers carry weights.
#[derive(Debug, Clone, Default)]
pub struct WeightedDatabase {
    db: SequenceDatabase,
    weights: Vec<u64>,
    /// Sum of `weights`; every weighted support is at most this.
    total: u64,
}

impl WeightedDatabase {
    /// Builds from `(sequence, weight)` pairs, assigning CIDs 1, 2, ….
    ///
    /// # Panics
    ///
    /// If the weights sum to more than `u64::MAX`: weighted supports are
    /// `u64` sums, so such a database has no representable supports.
    pub fn from_weighted(rows: impl IntoIterator<Item = (Sequence, u64)>) -> WeightedDatabase {
        let mut db = SequenceDatabase::new();
        let mut weights = Vec::new();
        let mut total = 0u64;
        for (i, (seq, w)) in rows.into_iter().enumerate() {
            db.push(CustomerId(i as u64 + 1), seq);
            weights.push(w);
            total = total.checked_add(w).expect("total customer weight exceeds u64::MAX");
        }
        WeightedDatabase { db, weights, total }
    }

    /// Wraps an unweighted database with uniform weight 1.
    pub fn uniform(db: SequenceDatabase) -> WeightedDatabase {
        let weights = vec![1; db.len()];
        let total = db.len() as u64;
        WeightedDatabase { db, weights, total }
    }

    /// The underlying sequences.
    pub fn database(&self) -> &SequenceDatabase {
        &self.db
    }

    /// The weight of customer `i`.
    pub fn weight(&self, i: usize) -> u64 {
        self.weights[i]
    }

    /// Total weight of all customers.
    pub fn total_weight(&self) -> u64 {
        self.total
    }

    /// Definitional weighted support: total weight of the customers
    /// containing `pattern`. The reference the miner is tested against.
    pub fn weighted_support(&self, pattern: &Sequence) -> u64 {
        self.db
            .sequences()
            .zip(&self.weights)
            .filter(|(s, _)| contains(s, pattern))
            .map(|(_, &w)| w)
            .sum()
    }
}

/// The weighted DISC miner: DISC-all over weighted customers.
#[derive(Debug, Clone)]
pub struct WeightedDisc {
    /// Use the bi-level optimization (weighted counting arrays over the
    /// virtual partitions).
    pub bi_level: bool,
}

impl Default for WeightedDisc {
    fn default() -> Self {
        WeightedDisc { bi_level: true }
    }
}

impl WeightedDisc {
    /// Mines every pattern with weighted support ≥ `delta_w`. Supports in
    /// the result are weighted supports.
    pub fn mine(&self, wdb: &WeightedDatabase, delta_w: u64) -> MiningResult {
        self.mine_guarded(wdb, delta_w, &MineGuard::unlimited()).into_complete()
    }

    /// [`WeightedDisc::mine`] under `guard`: cancellable, deadline- and
    /// budget-bound, with a pattern cap, as DISC-all's guarded entry. A
    /// partial result holds only patterns with their exact weighted
    /// supports.
    pub fn mine_guarded(
        &self,
        wdb: &WeightedDatabase,
        delta_w: u64,
        guard: &MineGuard,
    ) -> GuardedResult {
        mine_on_flat(&wdb.db, |flat| self.mine_flat_guarded(flat, &wdb.weights, delta_w, guard))
    }

    /// [`WeightedDisc::mine_guarded`] over flat columns — built on the
    /// heap, or mapped zero-copy from a `DSCFD1` file — with `weights[r]`
    /// the weight of row `r`, in the item ids the columns store.
    pub fn mine_flat_guarded(
        &self,
        flat: &FlatDb,
        weights: &[u64],
        delta_w: u64,
        guard: &MineGuard,
    ) -> GuardedResult {
        assert_eq!(weights.len(), flat.len(), "one weight per row");
        let engine = Engine {
            flat,
            weights: Some(weights),
            delta: delta_w.max(1),
            policy: DISC_ALL_POLICY,
            config: DiscConfig { bi_level: self.bi_level },
            guard,
        };
        run_guarded(guard, |result| mine_partitioned(&engine, result, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiscAll;
    use disc_core::{
        parse_sequence, CancelToken, Item, MinSupport, ResourceBudget, SequentialMiner,
    };

    fn seq(s: &str) -> Sequence {
        parse_sequence(s).unwrap()
    }

    fn weighted_brute_force(wdb: &WeightedDatabase, delta_w: u64) -> MiningResult {
        // Level-wise prefix growth with definitional weighted counting.
        use disc_core::{ExtElem, ExtMode};
        let mut result = MiningResult::new();
        let mut items: Vec<Item> =
            wdb.database().sequences().flat_map(|s| s.distinct_items()).collect();
        items.sort_unstable();
        items.dedup();
        let mut frontier = Vec::new();
        for item in items {
            let pat = Sequence::single(item);
            let w = wdb.weighted_support(&pat);
            if w >= delta_w {
                result.insert(pat.clone(), w);
                frontier.push(pat);
            }
        }
        let freq_items: Vec<Item> =
            frontier.iter().map(|p| p.last_flat_item().expect("non-empty")).collect();
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for base in &frontier {
                let last = base.last_flat_item().expect("non-empty");
                for &item in &freq_items {
                    let mut candidates =
                        vec![base.extended(ExtElem { item, mode: ExtMode::Sequence })];
                    if item > last {
                        candidates.push(base.extended(ExtElem { item, mode: ExtMode::Itemset }));
                    }
                    for cand in candidates {
                        let w = wdb.weighted_support(&cand);
                        if w >= delta_w {
                            result.insert(cand.clone(), w);
                            next.push(cand);
                        }
                    }
                }
            }
            frontier = next;
        }
        result
    }

    fn table1_weighted() -> WeightedDatabase {
        WeightedDatabase::from_weighted([
            (seq("(a,e,g)(b)(h)(f)(c)(b,f)"), 5),
            (seq("(b)(d,f)(e)"), 1),
            (seq("(b,f,g)"), 2),
            (seq("(f)(a,g)(b,f,h)(b,f)"), 3),
        ])
    }

    #[test]
    fn weighted_support_is_definitional() {
        let wdb = table1_weighted();
        assert_eq!(wdb.total_weight(), 11);
        assert_eq!(wdb.weighted_support(&seq("(b)")), 11);
        assert_eq!(wdb.weighted_support(&seq("(a)(b)(b)")), 8); // customers 1 and 4
        assert_eq!(wdb.weighted_support(&seq("(d)")), 1);
    }

    /// Two heavy customers outweigh δ_w = 8 on their own, though fewer
    /// than 8 rows support anything: a row count compared with δ_w anywhere
    /// in the engine loses their long patterns.
    fn heavy_pair_weighted() -> WeightedDatabase {
        WeightedDatabase::from_weighted([
            (seq("(a,b)(c)(d,e)(f)(c)"), 5),
            (seq("(a,b)(c)(d,e)(c)(f)"), 5),
            (seq("(a)(c)(e)"), 1),
            (seq("(b)(d)(f)"), 1),
            (seq("(c)(d,e)(f)"), 1),
        ])
    }

    #[test]
    fn matches_weighted_brute_force() {
        let inputs =
            [(table1_weighted(), [1u64, 3, 5, 8, 11]), (heavy_pair_weighted(), [3, 5, 8, 10, 11])];
        for (wdb, thresholds) in inputs {
            for delta_w in thresholds {
                let expected = weighted_brute_force(&wdb, delta_w);
                for miner in [WeightedDisc::default(), WeightedDisc { bi_level: false }] {
                    let got = miner.mine(&wdb, delta_w);
                    let diff = got.diff(&expected);
                    assert!(diff.is_empty(), "δw={delta_w}:\n{}", diff.join("\n"));
                }
            }
        }
        // The heavy pair's longest shared pattern is frequent at δ_w = 8.
        let got = WeightedDisc::default().mine(&heavy_pair_weighted(), 8);
        assert_eq!(got.support_of(&seq("(a,b)(c)(d,e)(f)")), Some(10));
    }

    #[test]
    fn pattern_cap_ends_a_weighted_run_with_exact_weighted_supports() {
        let wdb = heavy_pair_weighted();
        let full = WeightedDisc::default().mine(&wdb, 3);
        assert!(full.len() > 8, "too few patterns to cap: {}", full.len());
        for cap in [1, 2, 5, full.len() - 1] {
            let budget = ResourceBudget::unlimited().with_max_patterns(cap);
            let guard = MineGuard::new(CancelToken::new(), budget);
            let run = WeightedDisc::default().mine_guarded(&wdb, 3, &guard);
            assert!(!run.outcome.is_complete(), "cap {cap}: {:?}", run.outcome);
            assert_eq!(run.result.len(), cap, "cap {cap}");
            for (pattern, support) in run.result.iter() {
                assert_eq!(full.support_of(pattern), Some(support), "cap {cap}: {pattern}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "total customer weight exceeds u64::MAX")]
    fn total_weight_overflow_panics() {
        WeightedDatabase::from_weighted([(seq("(a)(b)"), u64::MAX), (seq("(a)(b)"), 1)]);
    }

    #[test]
    fn weight_skew_changes_the_answer() {
        // With heavy weight on customer 1, its private patterns become
        // "frequent" even at high thresholds.
        let wdb = table1_weighted();
        let result = WeightedDisc::default().mine(&wdb, 5);
        assert!(result.contains_pattern(&seq("(a,e,g)"))); // only customer 1, weight 5
                                                           // Unweighted, the same pattern has support 1 of 4.
        let unweighted = DiscAll::default().mine(wdb.database(), MinSupport::Count(2));
        assert!(!unweighted.contains_pattern(&seq("(a,e,g)")));
    }

    #[test]
    fn uniform_weights_recover_ordinary_mining() {
        let db = SequenceDatabase::from_parsed(&[
            "(a,e,g)(b)(h)(f)(c)(b,f)",
            "(b)(d,f)(e)",
            "(b,f,g)",
            "(f)(a,g)(b,f,h)(b,f)",
        ])
        .unwrap();
        let wdb = WeightedDatabase::uniform(db.clone());
        for delta in 1..=4u64 {
            let expected = DiscAll::default().mine(&db, MinSupport::Count(delta));
            let got = WeightedDisc::default().mine(&wdb, delta);
            let diff = got.diff(&expected);
            assert!(diff.is_empty(), "δ={delta}:\n{}", diff.join("\n"));
        }
    }

    #[test]
    fn empty_database() {
        let wdb = WeightedDatabase::default();
        assert!(WeightedDisc::default().mine(&wdb, 1).is_empty());
    }
}
