//! **SPADE** (Zaki, Machine Learning 2001) — vertical ID-lists with
//! temporal/equality joins, enumerated depth-first by equivalence class.
//!
//! The ID-list of a pattern holds `(sid, eid)` pairs: customer and the
//! transaction index hosting the pattern's **last** itemset, one pair per
//! distinct ending (the paper's §1.1 example: the ID-list of `<(a,g)(b)>`
//! over Table 1 is `{(1,2), (1,6), (4,3), (4,4)}` in 1-based coordinates).
//! Support is the number of distinct sids.
//!
//! A class groups the frequent patterns sharing a (k-1)-prefix. Two class
//! atoms `X = P⊕x`, `Y = P⊕y` join into candidates:
//!
//! * event × event, `y > x` → event atom `P.last ∪ {x,y}` (equality join);
//! * event × sequence → `X` followed by `(y)` (temporal join);
//! * sequence × sequence → `X (y)` (temporal), plus the event atom
//!   `P (x,y)` when `y > x` (equality);
//! * sequence × event → nothing (covered by the symmetric cases).

use disc_core::{
    run_guarded, AbortReason, ExtElem, ExtMode, GuardedResult, Item, MinSupport, MineGuard,
    MiningResult, Sequence, SequenceDatabase, SequentialMiner,
};
use std::collections::BTreeMap;

/// A vertical ID-list: `(sid, eid)` pairs sorted lexicographically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdList(Vec<(u32, u32)>);

impl IdList {
    /// Number of distinct sids — the support.
    pub fn support(&self) -> u64 {
        let mut n = 0u64;
        let mut last: Option<u32> = None;
        for &(sid, _) in &self.0 {
            if last != Some(sid) {
                n += 1;
                last = Some(sid);
            }
        }
        n
    }

    /// The raw pairs.
    pub fn pairs(&self) -> &[(u32, u32)] {
        &self.0
    }

    /// Temporal join: endings of `other` strictly after *some* ending of
    /// `self` within the same sid. Because only existence matters, the
    /// earliest `self` ending per sid suffices.
    pub fn temporal_join(&self, other: &IdList) -> IdList {
        let mut min_eid: BTreeMap<u32, u32> = BTreeMap::new();
        for &(sid, eid) in &self.0 {
            min_eid.entry(sid).or_insert(eid);
        }
        let out = other
            .0
            .iter()
            .filter(|(sid, eid)| min_eid.get(sid).is_some_and(|&m| *eid > m))
            .copied()
            .collect();
        IdList(out)
    }

    /// Equality join: endings shared by both lists.
    pub fn equality_join(&self, other: &IdList) -> IdList {
        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.0.len() && j < other.0.len() {
            match self.0[i].cmp(&other.0[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.0[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        IdList(out)
    }
}

/// A class member: a frequent pattern, whether its last element extends the
/// previous transaction (event atom) or opens one (sequence atom), and its
/// ID-list.
#[derive(Debug, Clone)]
struct Atom {
    pattern: Sequence,
    is_event: bool,
    idlist: IdList,
}

/// The SPADE miner.
#[derive(Debug, Clone, Default)]
pub struct Spade {
    _private: (),
}

impl SequentialMiner for Spade {
    fn name(&self) -> &str {
        "SPADE"
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

/// The cooperative core: one checkpoint per vertical-scan row and per
/// ID-list join, one pattern note per frequent pattern.
fn mine_into(
    db: &SequenceDatabase,
    min_support: MinSupport,
    guard: &MineGuard,
    result: &mut MiningResult,
) -> Result<(), AbortReason> {
    let delta = min_support.resolve(db.len());

    // Vertical format: one ID-list per item.
    let mut vertical: BTreeMap<Item, Vec<(u32, u32)>> = BTreeMap::new();
    for (sid, s) in db.sequences().enumerate() {
        guard.checkpoint()?;
        for (eid, set) in s.itemsets().iter().enumerate() {
            for item in set.iter() {
                vertical.entry(item).or_default().push((sid as u32, eid as u32));
            }
        }
    }

    // Frequent 1-sequences: the root class (all sequence atoms).
    let mut root: Vec<Atom> = Vec::new();
    for (item, pairs) in vertical {
        let idlist = IdList(pairs);
        let support = idlist.support();
        if support >= delta {
            guard.note_pattern()?;
            result.insert(Sequence::single(item), support);
            root.push(Atom { pattern: Sequence::single(item), is_event: false, idlist });
        }
    }

    mine_class(&root, delta, guard, result)
}

/// Depth-first class decomposition: for each atom X of the class, derive
/// its child class by joining X with every atom of the class, then recurse.
fn mine_class(
    class: &[Atom],
    delta: u64,
    guard: &MineGuard,
    result: &mut MiningResult,
) -> Result<(), AbortReason> {
    for x in class {
        let mut children: Vec<Atom> = Vec::new();
        let x_item = x.pattern.last_flat_item().expect("non-empty");
        for y in class {
            guard.checkpoint()?;
            let y_item = y.pattern.last_flat_item().expect("non-empty");
            match (x.is_event, y.is_event) {
                (true, true) => {
                    if y_item > x_item {
                        push_if_frequent(
                            &mut children,
                            x.pattern.extended(ExtElem { item: y_item, mode: ExtMode::Itemset }),
                            true,
                            x.idlist.equality_join(&y.idlist),
                            delta,
                            guard,
                            result,
                        )?;
                    }
                }
                (true, false) | (false, false) => {
                    // X followed by (y): temporal join.
                    push_if_frequent(
                        &mut children,
                        x.pattern.extended(ExtElem { item: y_item, mode: ExtMode::Sequence }),
                        false,
                        x.idlist.temporal_join(&y.idlist),
                        delta,
                        guard,
                        result,
                    )?;
                    // Sequence × sequence additionally yields the event atom.
                    if !x.is_event && y_item > x_item {
                        push_if_frequent(
                            &mut children,
                            x.pattern.extended(ExtElem { item: y_item, mode: ExtMode::Itemset }),
                            true,
                            x.idlist.equality_join(&y.idlist),
                            delta,
                            guard,
                            result,
                        )?;
                    }
                }
                (false, true) => {} // covered symmetrically
            }
        }
        mine_class(&children, delta, guard, result)?;
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn push_if_frequent(
    children: &mut Vec<Atom>,
    pattern: Sequence,
    is_event: bool,
    idlist: IdList,
    delta: u64,
    guard: &MineGuard,
    result: &mut MiningResult,
) -> Result<(), AbortReason> {
    let support = idlist.support();
    if support >= delta {
        guard.note_pattern()?;
        result.insert(pattern.clone(), support);
        children.push(Atom { pattern, is_event, idlist });
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

    /// The ID-list of a pattern by definitional enumeration, for tests.
    fn idlist_of(db: &SequenceDatabase, pattern: &Sequence) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (sid, s) in db.sequences().enumerate() {
            let n = pattern.n_transactions();
            // Every eid that can host the LAST itemset with the rest before.
            let head = Sequence::new(pattern.itemsets()[..n - 1].to_vec());
            let head_end = disc_core::embed::leftmost_end_txn_or_start(s, &head);
            if let Some(end) = head_end {
                let last = pattern.last_itemset().expect("non-empty");
                for (eid, set) in s.itemsets().iter().enumerate().skip(end.next_txn()) {
                    if last.is_subset_of(set) {
                        out.push((sid as u32, eid as u32));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn section_1_1_idlist_example() {
        // "the ID-list of sequence <(a, g)(b)> is <(1,2), (1,6), (4,3),
        // (4,4)>" (1-based sids and eids; ours are 0-based).
        let db = table1();
        let pat = parse_sequence("(a,g)(b)").unwrap();
        assert_eq!(idlist_of(&db, &pat), vec![(0, 1), (0, 5), (3, 2), (3, 3)]);
    }

    #[test]
    fn section_1_1_merge_example() {
        // Merging <(a,g)(h)> and <(a,g)(f)> yields <(a,g)(h)(f)> with
        // ID-list <(1,4), (1,6), (4,4)> (1-based) and support 2.
        let db = table1();
        let xh = IdList(idlist_of(&db, &parse_sequence("(a,g)(h)").unwrap()));
        let xf = IdList(idlist_of(&db, &parse_sequence("(a,g)(f)").unwrap()));
        assert_eq!(xh.pairs(), &[(0, 2), (3, 2)]);
        assert_eq!(xf.pairs(), &[(0, 3), (0, 5), (3, 2), (3, 3)]);
        let joined = xh.temporal_join(&xf);
        assert_eq!(joined.pairs(), &[(0, 3), (0, 5), (3, 3)]);
        assert_eq!(joined.support(), 2);
    }

    #[test]
    fn equality_join_intersects() {
        let a = IdList(vec![(0, 1), (0, 2), (1, 0)]);
        let b = IdList(vec![(0, 2), (1, 0), (2, 5)]);
        assert_eq!(a.equality_join(&b).pairs(), &[(0, 2), (1, 0)]);
    }

    #[test]
    fn matches_brute_force_on_table_1() {
        let db = table1();
        for delta in 1..=4 {
            let expected = BruteForce::default().mine(&db, MinSupport::Count(delta));
            let got = Spade::default().mine(&db, MinSupport::Count(delta));
            let diff = got.diff(&expected);
            assert!(diff.is_empty(), "δ={delta}:\n{}", diff.join("\n"));
        }
    }

    #[test]
    fn repeated_items_within_customer_count_once() {
        let db = SequenceDatabase::from_parsed(&["(a)(a)(a)", "(a)(b)"]).unwrap();
        let r = Spade::default().mine(&db, MinSupport::Count(2));
        assert_eq!(r.support_of(&parse_sequence("(a)").unwrap()), Some(2));
        assert!(!r.contains_pattern(&parse_sequence("(a)(a)").unwrap()));
    }
}
