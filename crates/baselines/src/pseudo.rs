//! **Pseudo-projection PrefixSpan** ("Pseudo" in the paper's figures):
//! identical pattern growth to [`crate::PrefixSpan`], but a projected
//! database is a list of *pivots* `(customer, transaction, item)` into the
//! original sequences instead of materialized postfixes — the variant the
//! PrefixSpan paper recommends when the database fits in memory, and the
//! stronger baseline in the DISC paper's Figures 8–10.

use disc_core::{
    run_guarded, AbortReason, ExtElem, ExtMode, GuardedResult, Item, Itemset, MinSupport,
    MineGuard, MiningResult, Sequence, SequenceDatabase, SequentialMiner,
};
use std::collections::BTreeMap;

/// A pseudo-projected postfix: everything after item `item_idx` of
/// transaction `txn` of customer `seq`.
#[derive(Debug, Clone, Copy)]
struct Pivot {
    seq: usize,
    txn: usize,
    item_idx: usize,
}

impl Pivot {
    fn partial<'a>(&self, db: &'a SequenceDatabase) -> &'a [Item] {
        &db.sequence(self.seq).itemset(self.txn).as_slice()[self.item_idx + 1..]
    }

    fn rest<'a>(&self, db: &'a SequenceDatabase) -> &'a [Itemset] {
        &db.sequence(self.seq).itemsets()[self.txn + 1..]
    }
}

/// The pseudo-projection PrefixSpan miner.
#[derive(Debug, Clone, Default)]
pub struct PseudoPrefixSpan {
    _private: (),
}

impl SequentialMiner for PseudoPrefixSpan {
    fn name(&self) -> &str {
        "Pseudo"
    }

    fn mine(&self, db: &SequenceDatabase, min_support: MinSupport) -> MiningResult {
        let guard = MineGuard::unlimited();
        let mut result = MiningResult::new();
        mine_into(db, min_support, &guard, &mut result).expect("unlimited guard never aborts");
        result
    }

    fn mine_guarded(
        &self,
        db: &SequenceDatabase,
        min_support: MinSupport,
        guard: &MineGuard,
    ) -> GuardedResult {
        run_guarded(guard, |result| mine_into(db, min_support, guard, result))
    }
}

/// The cooperative core: one checkpoint per scanned pivot, one charge per
/// projection pass, one pattern note per frequent pattern.
fn mine_into(
    db: &SequenceDatabase,
    min_support: MinSupport,
    guard: &MineGuard,
    result: &mut MiningResult,
) -> Result<(), AbortReason> {
    let delta = min_support.resolve(db.len());

    let mut counts: BTreeMap<Item, u64> = BTreeMap::new();
    for s in db.sequences() {
        guard.checkpoint()?;
        for item in s.distinct_items() {
            *counts.entry(item).or_insert(0) += 1;
        }
    }
    for (&item, &support) in counts.iter() {
        if support < delta {
            continue;
        }
        guard.note_pattern()?;
        result.insert(Sequence::single(item), support);
        guard.charge(db.len() as u64)?;
        let pivots: Vec<Pivot> = (0..db.len())
            .filter_map(|seq| {
                first_txn_with_item(db.sequence(seq).itemsets(), 0, item)
                    .map(|(txn, item_idx)| Pivot { seq, txn, item_idx })
            })
            .collect();
        mine_pivots(db, &Sequence::single(item), &pivots, delta, guard, result)?;
    }
    Ok(())
}

/// Leftmost `(txn, item index)` of `x` in `itemsets[from..]` (txn index is
/// absolute).
fn first_txn_with_item(itemsets: &[Itemset], from: usize, x: Item) -> Option<(usize, usize)> {
    itemsets
        .iter()
        .enumerate()
        .skip(from)
        .find_map(|(t, set)| set.as_slice().binary_search(&x).ok().map(|i| (t, i)))
}

/// Leftmost `(txn, item index of x)` in `itemsets[from..]` whose transaction
/// contains both `x` and all of `last`.
fn first_superset_with_item(
    itemsets: &[Itemset],
    from: usize,
    last: &Itemset,
    x: Item,
) -> Option<(usize, usize)> {
    itemsets.iter().enumerate().skip(from).find_map(|(t, set)| {
        if last.is_subset_of(set) {
            set.as_slice().binary_search(&x).ok().map(|i| (t, i))
        } else {
            None
        }
    })
}

fn mine_pivots(
    db: &SequenceDatabase,
    prefix: &Sequence,
    pivots: &[Pivot],
    delta: u64,
    guard: &MineGuard,
    result: &mut MiningResult,
) -> Result<(), AbortReason> {
    if (pivots.len() as u64) < delta {
        return Ok(());
    }
    let last = prefix.last_itemset().expect("prefixes are non-empty");
    let max_last = last.max_item();

    let mut s_counts: BTreeMap<Item, u64> = BTreeMap::new();
    let mut i_counts: BTreeMap<Item, u64> = BTreeMap::new();
    let mut s_seen: Vec<Item> = Vec::new();
    let mut i_seen: Vec<Item> = Vec::new();
    for pivot in pivots {
        guard.checkpoint()?;
        s_seen.clear();
        i_seen.clear();
        i_seen.extend_from_slice(pivot.partial(db));
        for set in pivot.rest(db) {
            s_seen.extend(set.iter());
            if last.is_subset_of(set) {
                let from = set.as_slice().partition_point(|&i| i <= max_last);
                i_seen.extend_from_slice(&set.as_slice()[from..]);
            }
        }
        s_seen.sort_unstable();
        s_seen.dedup();
        i_seen.sort_unstable();
        i_seen.dedup();
        for &x in &s_seen {
            *s_counts.entry(x).or_insert(0) += 1;
        }
        for &x in &i_seen {
            *i_counts.entry(x).or_insert(0) += 1;
        }
    }

    for (&x, &support) in &i_counts {
        if support < delta {
            continue;
        }
        let child = prefix.extended(ExtElem { item: x, mode: ExtMode::Itemset });
        guard.note_pattern()?;
        result.insert(child.clone(), support);
        guard.charge(pivots.len() as u64)?;
        let child_pivots: Vec<Pivot> = pivots
            .iter()
            .filter_map(|p| {
                // Within the matched transaction's remainder first…
                if let Ok(rel) = p.partial(db).binary_search(&x) {
                    return Some(Pivot { seq: p.seq, txn: p.txn, item_idx: p.item_idx + 1 + rel });
                }
                // …otherwise the leftmost later superset of last ∪ {x}.
                let itemsets = db.sequence(p.seq).itemsets();
                first_superset_with_item(itemsets, p.txn + 1, last, x)
                    .map(|(txn, item_idx)| Pivot { seq: p.seq, txn, item_idx })
            })
            .collect();
        debug_assert_eq!(child_pivots.len() as u64, support);
        mine_pivots(db, &child, &child_pivots, delta, guard, result)?;
    }

    for (&x, &support) in &s_counts {
        if support < delta {
            continue;
        }
        let child = prefix.extended(ExtElem { item: x, mode: ExtMode::Sequence });
        guard.note_pattern()?;
        result.insert(child.clone(), support);
        guard.charge(pivots.len() as u64)?;
        let child_pivots: Vec<Pivot> = pivots
            .iter()
            .filter_map(|p| {
                let itemsets = db.sequence(p.seq).itemsets();
                first_txn_with_item(itemsets, p.txn + 1, x).map(|(txn, item_idx)| Pivot {
                    seq: p.seq,
                    txn,
                    item_idx,
                })
            })
            .collect();
        debug_assert_eq!(child_pivots.len() as u64, support);
        mine_pivots(db, &child, &child_pivots, delta, guard, result)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_core::{parse_sequence, BruteForce};

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
    fn matches_brute_force_on_table_1() {
        let db = table1();
        for delta in 1..=4 {
            let expected = BruteForce::default().mine(&db, MinSupport::Count(delta));
            let got = PseudoPrefixSpan::default().mine(&db, MinSupport::Count(delta));
            let diff = got.diff(&expected);
            assert!(diff.is_empty(), "δ={delta}:\n{}", diff.join("\n"));
        }
    }

    #[test]
    fn agrees_with_physical_projection() {
        let db = table1();
        for delta in 1..=3 {
            let physical = crate::PrefixSpan::default().mine(&db, MinSupport::Count(delta));
            let pseudo = PseudoPrefixSpan::default().mine(&db, MinSupport::Count(delta));
            assert!(physical.diff(&pseudo).is_empty());
        }
    }

    #[test]
    fn deep_single_path() {
        let db =
            SequenceDatabase::from_parsed(&["(a)(b)(c)(d)(e)(f)", "(a)(b)(c)(d)(e)(f)"]).unwrap();
        let r = PseudoPrefixSpan::default().mine(&db, MinSupport::Count(2));
        assert_eq!(r.support_of(&parse_sequence("(a)(b)(c)(d)(e)(f)").unwrap()), Some(2));
        assert_eq!(r.len(), 63);
    }

    #[test]
    fn pivot_views() {
        let db = SequenceDatabase::from_parsed(&["(a,b,c)(d)"]).unwrap();
        let p = Pivot { seq: 0, txn: 0, item_idx: 0 };
        let partial: Vec<char> = p.partial(&db).iter().map(|i| i.as_letter().unwrap()).collect();
        assert_eq!(partial, vec!['b', 'c']);
        assert_eq!(p.rest(&db).len(), 1);
    }
}
