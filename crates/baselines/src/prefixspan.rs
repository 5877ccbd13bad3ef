//! **PrefixSpan** (Pei et al., ICDE 2001) with physical projection.
//!
//! Patterns are grown depth-first. For a prefix `P` the *projected database*
//! holds, per supporting customer, the **postfix**: the part of the sequence
//! after the leftmost embedding of `P`, split into
//!
//! * a `partial` first itemset — the items of the matched transaction larger
//!   than the matched item (the `(_, e, g)` notation of Table 2) — usable
//!   only for itemset extensions, and
//! * the `rest` — the full transactions after it.
//!
//! One scan of the projected database counts, per customer:
//!
//! * sequence extensions: every item occurring in `rest`;
//! * itemset extensions: items in `partial`, plus items `x > max(L)` in any
//!   `rest` transaction containing the prefix's last itemset `L` (this
//!   superset scan is what makes leftmost projection lossless: a later
//!   transaction may host `L ∪ {x}` even when the matched one does not).
//!
//! Each frequent extension is reported and recursively projected.

use disc_core::{
    run_guarded, AbortReason, GuardedResult, Item, Itemset, MinSupport, MineGuard, MiningResult,
    Sequence, SequenceDatabase, SequentialMiner,
};
use std::collections::BTreeMap;

/// One customer's postfix in a (physically) projected database.
#[derive(Debug, Clone)]
struct Postfix {
    /// Items of the matched transaction after the matched item.
    partial: Vec<Item>,
    /// Transactions strictly after the matched one.
    rest: Vec<Itemset>,
}

/// The PrefixSpan miner (physical projection).
#[derive(Debug, Clone, Default)]
pub struct PrefixSpan {
    _private: (),
}

impl SequentialMiner for PrefixSpan {
    fn name(&self) -> &str {
        "PrefixSpan"
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

/// The cooperative core: one checkpoint per scanned postfix, one charge per
/// projection pass, one pattern note per frequent pattern.
fn mine_into(
    db: &SequenceDatabase,
    min_support: MinSupport,
    guard: &MineGuard,
    result: &mut MiningResult,
) -> Result<(), AbortReason> {
    let delta = min_support.resolve(db.len());

    // Frequent 1-sequences and their projected databases.
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
        let projected: Vec<Postfix> =
            db.sequences().filter_map(|s| project_seq_ext(s.itemsets(), &[], item)).collect();
        let prefix = Sequence::single(item);
        mine_projected(&prefix, &projected, delta, guard, result)?;
    }
    Ok(())
}

/// Projects a postfix (partial + rest) by a sequence extension `x`: the
/// leftmost `rest` transaction containing `x`.
fn project_seq_ext(rest: &[Itemset], _partial: &[Item], x: Item) -> Option<Postfix> {
    let (t, set) = rest.iter().enumerate().find(|(_, set)| set.contains(x))?;
    let idx = set.as_slice().binary_search(&x).expect("contains checked");
    Some(Postfix { partial: set.as_slice()[idx + 1..].to_vec(), rest: rest[t + 1..].to_vec() })
}

/// Projects a postfix by an itemset extension `x` of the prefix's last
/// itemset `last`: either from the partial, or from the leftmost `rest`
/// transaction containing `last ∪ {x}`.
fn project_itemset_ext(postfix: &Postfix, last: &Itemset, x: Item) -> Option<Postfix> {
    if let Ok(idx) = postfix.partial.binary_search(&x) {
        return Some(Postfix {
            partial: postfix.partial[idx + 1..].to_vec(),
            rest: postfix.rest.clone(),
        });
    }
    let (t, set) = postfix
        .rest
        .iter()
        .enumerate()
        .find(|(_, set)| set.contains(x) && last.is_subset_of(set))?;
    let idx = set.as_slice().binary_search(&x).expect("contains checked");
    Some(Postfix {
        partial: set.as_slice()[idx + 1..].to_vec(),
        rest: postfix.rest[t + 1..].to_vec(),
    })
}

fn mine_projected(
    prefix: &Sequence,
    projected: &[Postfix],
    delta: u64,
    guard: &MineGuard,
    result: &mut MiningResult,
) -> Result<(), AbortReason> {
    if (projected.len() as u64) < delta {
        return Ok(());
    }
    let last = prefix.last_itemset().expect("prefixes are non-empty");
    let max_last = last.max_item();

    // One scan: count both extension forms per customer.
    let mut s_counts: BTreeMap<Item, u64> = BTreeMap::new();
    let mut i_counts: BTreeMap<Item, u64> = BTreeMap::new();
    let mut s_seen: Vec<Item> = Vec::new();
    let mut i_seen: Vec<Item> = Vec::new();
    for postfix in projected {
        guard.checkpoint()?;
        s_seen.clear();
        i_seen.clear();
        for &x in &postfix.partial {
            i_seen.push(x);
        }
        for set in &postfix.rest {
            for x in set.iter() {
                s_seen.push(x);
            }
            if last.is_subset_of(set) {
                let from = set.as_slice().partition_point(|&i| i <= max_last);
                for &x in &set.as_slice()[from..] {
                    i_seen.push(x);
                }
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

    // Recurse on itemset extensions.
    for (&x, &support) in &i_counts {
        if support < delta {
            continue;
        }
        let child =
            prefix.extended(disc_core::ExtElem { item: x, mode: disc_core::ExtMode::Itemset });
        guard.note_pattern()?;
        result.insert(child.clone(), support);
        guard.charge(projected.len() as u64)?;
        let child_projected: Vec<Postfix> =
            projected.iter().filter_map(|p| project_itemset_ext(p, last, x)).collect();
        debug_assert_eq!(child_projected.len() as u64, support);
        mine_projected(&child, &child_projected, delta, guard, result)?;
    }

    // Recurse on sequence extensions.
    for (&x, &support) in &s_counts {
        if support < delta {
            continue;
        }
        let child =
            prefix.extended(disc_core::ExtElem { item: x, mode: disc_core::ExtMode::Sequence });
        guard.note_pattern()?;
        result.insert(child.clone(), support);
        guard.charge(projected.len() as u64)?;
        let child_projected: Vec<Postfix> =
            projected.iter().filter_map(|p| project_seq_ext(&p.rest, &p.partial, x)).collect();
        debug_assert_eq!(child_projected.len() as u64, support);
        mine_projected(&child, &child_projected, delta, guard, result)?;
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
    fn section_1_1_frequent_one_sequences() {
        // δ = 2: <(a)>, <(b)>, <(e)>, <(f)>, <(g)>, <(h)>.
        let r = PrefixSpan::default().mine(&table1(), MinSupport::Count(2));
        let ones: Vec<String> = r.of_length(1).iter().map(|(p, _)| p.to_string()).collect();
        assert_eq!(ones, vec!["(a)", "(b)", "(e)", "(f)", "(g)", "(h)"]);
    }

    #[test]
    fn table_2_projection_of_a() {
        // The projected database of <(a)> holds CIDs 1 and 4.
        let db = table1();
        let postfixes: Vec<Postfix> = db
            .sequences()
            .filter_map(|s| project_seq_ext(s.itemsets(), &[], Item::from_letter('a').unwrap()))
            .collect();
        assert_eq!(postfixes.len(), 2);
        // CID 1: (_, e, g)(b)(h)(f)(c)(b, f).
        let p1 = &postfixes[0];
        let partial: String = p1.partial.iter().map(|i| i.as_letter().unwrap()).collect();
        assert_eq!(partial, "eg");
        assert_eq!(p1.rest.len(), 5);
        // CID 4: (_, g)(b, f, h)(b, f).
        let p4 = &postfixes[1];
        let partial: String = p4.partial.iter().map(|i| i.as_letter().unwrap()).collect();
        assert_eq!(partial, "g");
        assert_eq!(p4.rest.len(), 2);
    }

    #[test]
    fn matches_brute_force_on_table_1() {
        let db = table1();
        for delta in 1..=4 {
            let expected = BruteForce::default().mine(&db, MinSupport::Count(delta));
            let got = PrefixSpan::default().mine(&db, MinSupport::Count(delta));
            let diff = got.diff(&expected);
            assert!(diff.is_empty(), "δ={delta}:\n{}", diff.join("\n"));
        }
    }

    #[test]
    fn itemset_extension_through_later_superset() {
        // <(a)(b,f)> is only realizable through the final (b,f) transaction.
        let db = SequenceDatabase::from_parsed(&["(a)(b)(c)(b,f)", "(a)(b,f)"]).unwrap();
        let r = PrefixSpan::default().mine(&db, MinSupport::Count(2));
        assert_eq!(r.support_of(&parse_sequence("(a)(b,f)").unwrap()), Some(2));
    }

    #[test]
    fn empty_database() {
        let r = PrefixSpan::default().mine(&SequenceDatabase::new(), MinSupport::Count(1));
        assert!(r.is_empty());
    }
}
