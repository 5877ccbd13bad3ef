//! A brute-force reference miner.
//!
//! Level-wise prefix growth with definitional support counting: frequent
//! 1-sequences come from a scan; every frequent (k-1)-sequence is extended by
//! every frequent item, in both the itemset form (item larger than the last
//! flat item) and the sequence form, and candidates are counted by scanning
//! the whole database with [`crate::contains`]. Completeness follows from the
//! anti-monotone property: any frequent k-sequence is a one-item extension of
//! its own (k-1)-prefix, which is frequent.
//!
//! Quadratic-ish and slow by design — this is the ground truth every other
//! miner is validated against, so it stays as close to the definitions as
//! possible.

use crate::database::SequenceDatabase;
use crate::guard::{run_guarded, AbortReason, GuardedResult, MineGuard};
use crate::item::Item;
use crate::miner::SequentialMiner;
use crate::result::MiningResult;
use crate::sequence::{ExtElem, ExtMode, Sequence};
use crate::support::{support_count, MinSupport};

/// The brute-force reference miner. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct BruteForce {
    /// Optional cap on pattern length (0 = unlimited), to bound runtime on
    /// adversarial property-test inputs.
    pub max_length: usize,
}

impl BruteForce {
    /// A miner that stops after patterns of length `max_length`.
    pub fn with_max_length(max_length: usize) -> BruteForce {
        BruteForce { max_length }
    }

    /// The cooperative core: one checkpoint per counted candidate, one
    /// pattern note per frequent pattern found.
    fn mine_into(
        &self,
        db: &SequenceDatabase,
        min_support: MinSupport,
        guard: &MineGuard,
        result: &mut MiningResult,
    ) -> Result<(), AbortReason> {
        let delta = min_support.resolve(db.len());

        // Frequent 1-sequences.
        let mut items: Vec<Item> = db.sequences().flat_map(|s| s.distinct_items()).collect();
        items.sort_unstable();
        items.dedup();
        let mut frequent_items = Vec::new();
        for &item in &items {
            guard.checkpoint()?;
            let support = support_count(db, &Sequence::single(item));
            if support >= delta {
                frequent_items.push(item);
                guard.note_pattern()?;
                result.insert(Sequence::single(item), support);
            }
        }

        // Level-wise prefix growth.
        let mut frontier: Vec<Sequence> =
            frequent_items.iter().map(|&i| Sequence::single(i)).collect();
        let mut k = 1usize;
        while !frontier.is_empty() {
            k += 1;
            if self.max_length != 0 && k > self.max_length {
                break;
            }
            let mut next = Vec::new();
            for base in &frontier {
                let last = base.last_flat_item().expect("frontier patterns are non-empty");
                for &item in &frequent_items {
                    // Itemset extension: keeps the flattened form append-only.
                    if item > last {
                        guard.checkpoint()?;
                        let cand = base.extended(ExtElem { item, mode: ExtMode::Itemset });
                        let support = support_count(db, &cand);
                        if support >= delta {
                            guard.note_pattern()?;
                            result.insert(cand.clone(), support);
                            next.push(cand);
                        }
                    }
                    // Sequence extension.
                    guard.checkpoint()?;
                    let cand = base.extended(ExtElem { item, mode: ExtMode::Sequence });
                    let support = support_count(db, &cand);
                    if support >= delta {
                        guard.note_pattern()?;
                        result.insert(cand.clone(), support);
                        next.push(cand);
                    }
                }
            }
            frontier = next;
        }
        Ok(())
    }
}

impl SequentialMiner for BruteForce {
    fn name(&self) -> &str {
        "BruteForce"
    }

    fn mine(&self, db: &SequenceDatabase, min_support: MinSupport) -> MiningResult {
        let guard = MineGuard::unlimited();
        let mut result = MiningResult::new();
        self.mine_into(db, min_support, &guard, &mut result).expect("unlimited guard never aborts");
        result
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_sequence;

    fn seq(s: &str) -> Sequence {
        parse_sequence(s).unwrap()
    }

    fn table1() -> SequenceDatabase {
        SequenceDatabase::from_parsed(&[
            "(a,e,g)(b)(h)(f)(c)(b,f)",
            "(b)(d,f)(e)",
            "(b,f,g)",
            "(f)(a,g)(b,f,h)(b,f)",
        ])
        .unwrap()
    }

    #[test]
    fn frequent_one_sequences_of_table_1() {
        // Section 1.1: with δ = 2 the frequent 1-sequences are
        // <(a)>, <(b)>, <(e)>, <(f)>, <(g)>, <(h)>.
        let r = BruteForce::default().mine(&table1(), MinSupport::Count(2));
        let ones: Vec<String> = r.of_length(1).iter().map(|(p, _)| p.to_string()).collect();
        assert_eq!(ones, vec!["(a)", "(b)", "(e)", "(f)", "(g)", "(h)"]);
    }

    #[test]
    fn finds_long_patterns_with_exact_supports() {
        let r = BruteForce::default().mine(&table1(), MinSupport::Count(2));
        assert_eq!(r.support_of(&seq("(a,g)(h)(f)")), Some(2));
        assert_eq!(r.support_of(&seq("(a)(b)(b)")), Some(2));
        assert_eq!(r.support_of(&seq("(a,g)(b)(f)")), Some(2));
        assert!(!r.contains_pattern(&seq("(b)(a)")));
        // Every reported support is the definitional one.
        for (p, s) in r.iter() {
            assert_eq!(s, support_count(&table1(), p), "bad support for {p}");
        }
    }

    #[test]
    fn delta_equal_db_size_means_universal_patterns() {
        let db = SequenceDatabase::from_parsed(&["(a)(b)", "(a,c)(b)", "(a)(c)(b)"]).unwrap();
        let r = BruteForce::default().mine(&db, MinSupport::Count(3));
        assert_eq!(r.support_of(&seq("(a)(b)")), Some(3));
        assert_eq!(r.len(), 3); // (a), (b), (a)(b)
    }

    #[test]
    fn max_length_caps_growth() {
        let r = BruteForce::with_max_length(1).mine(&table1(), MinSupport::Count(2));
        assert_eq!(r.max_length(), 1);
        assert_eq!(r.len(), 6);
    }

    #[test]
    fn empty_database_yields_nothing() {
        let r = BruteForce::default().mine(&SequenceDatabase::new(), MinSupport::Count(1));
        assert!(r.is_empty());
    }

    #[test]
    fn repeated_items_across_transactions() {
        let db = SequenceDatabase::from_parsed(&["(a)(a)(a)", "(a)(a)"]).unwrap();
        let r = BruteForce::default().mine(&db, MinSupport::Count(2));
        assert_eq!(r.support_of(&seq("(a)(a)")), Some(2));
        assert!(!r.contains_pattern(&seq("(a)(a)(a)")));
    }
}
