//! The **Dynamic DISC-all** algorithm (paper appendix): recursive
//! partitioning that keeps splitting while partitioning pays off (NRR below
//! the threshold γ) and hands over to the DISC strategy as soon as child
//! partitions stop shrinking.
//!
//! Section 4.2's observation: database partitioning is profitable for
//! partitions with a *low* non-reduction rate (children much smaller than
//! the parent) and pure overhead when the NRR approaches 1 — in the extreme,
//! every child is as large as its parent. The static DISC-all always stops
//! partitioning at level 2; the dynamic variant measures the NRR of each
//! partition from its counting-array scan and decides per partition.

use crate::counting::{count_extensions, CountingArray};
use crate::disc_all::run_disc_levels;
use crate::partition::{group_by_min_item_guarded, min_ext_elem, next_frequent_item, reduce_into};
use crate::resume::{mine_flattened, CheckpointSink, Checkpointable};
use disc_core::{
    checkpoint, AbortReason, ExtElem, FlatArena, FlatDb, GuardedResult, Item, MinSupport,
    MineGuard, MiningResult, SeqView, Sequence, SequenceDatabase, SequentialMiner,
};
use std::collections::BTreeMap;

/// When does a partition get split into next-level partitions instead of
/// being handed to the DISC strategy?
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SplitPolicy {
    /// The appendix algorithm: split while `NRR < γ`.
    NrrThreshold(f64),
    /// The generalized static scheme the paper's §3 gestures at ("the
    /// number of levels should be adaptive"): split to a fixed prefix
    /// depth, regardless of NRR. Depth 2 mirrors the static DISC-all's
    /// two-level partitioning inside this machinery.
    FixedDepth(usize),
}

impl SplitPolicy {
    /// Should the partition at prefix length `level` with the given NRR be
    /// split further?
    fn split(self, level: usize, nrr: f64) -> bool {
        match self {
            SplitPolicy::NrrThreshold(gamma) => nrr < gamma,
            SplitPolicy::FixedDepth(depth) => level < depth,
        }
    }
}

/// The Dynamic DISC-all miner.
#[derive(Debug, Clone)]
pub struct DynamicDiscAll {
    /// The split policy (γ-threshold per the appendix, or fixed depth).
    pub policy: SplitPolicy,
    /// Use the bi-level optimization inside the DISC stages.
    pub bi_level: bool,
}

impl Default for DynamicDiscAll {
    /// γ = 0.6 sits between the observed "partitioning pays" (≤ ~0.2) and
    /// "partitioning is overhead" (≥ ~0.8) regimes of Tables 12/14.
    fn default() -> Self {
        DynamicDiscAll { policy: SplitPolicy::NrrThreshold(0.6), bi_level: true }
    }
}

impl DynamicDiscAll {
    /// A dynamic miner with an explicit γ.
    pub fn with_gamma(gamma: f64) -> DynamicDiscAll {
        DynamicDiscAll { policy: SplitPolicy::NrrThreshold(gamma), ..DynamicDiscAll::default() }
    }

    /// A miner that always partitions to a fixed prefix depth.
    pub fn with_fixed_depth(depth: usize) -> DynamicDiscAll {
        DynamicDiscAll { policy: SplitPolicy::FixedDepth(depth), ..DynamicDiscAll::default() }
    }
}

/// The NRR of a partition, from its counting-array scan: the mean ratio of
/// child-partition size (= the support of each frequent one-item extension)
/// to the partition's own size.
fn nrr(ext_supports: &[u64], partition_size: usize) -> f64 {
    debug_assert!(!ext_supports.is_empty() && partition_size > 0);
    let sum: f64 = ext_supports.iter().map(|&s| s as f64 / partition_size as f64).sum();
    sum / ext_supports.len() as f64
}

impl SequentialMiner for DynamicDiscAll {
    fn name(&self) -> &str {
        "Dynamic DISC-all"
    }

    fn mine(&self, db: &SequenceDatabase, min_support: MinSupport) -> MiningResult {
        mine_flattened(self, db, min_support, &MineGuard::unlimited()).into_complete()
    }

    fn mine_guarded(
        &self,
        db: &SequenceDatabase,
        min_support: MinSupport,
        guard: &MineGuard,
    ) -> GuardedResult {
        mine_flattened(self, db, min_support, guard)
    }
}

impl Checkpointable for DynamicDiscAll {
    fn provenance(&self) -> (u8, bool, u32) {
        (checkpoint::MINER_DYNAMIC, self.bi_level, 1)
    }

    /// The cooperative core. Snapshot hooks mirror [`crate::DiscAll`]'s:
    /// boundaries at the frequent 1-sequences and per completed first-level
    /// partition. The degenerate no-split path has no partition boundaries
    /// — only the level-1 snapshot applies there.
    fn mine_flat_into(
        &self,
        flat: &FlatDb,
        delta: u64,
        guard: &MineGuard,
        result: &mut MiningResult,
        mut sink: Option<&mut CheckpointSink<'_>>,
    ) -> Result<(), AbortReason> {
        let Some(max_item) = flat.max_item() else {
            return Ok(());
        };
        let n_items = max_item.id() as usize + 1;

        // Root (λ = NULL, k = 0): scan for frequent 1-sequences.
        guard.charge(flat.len() as u64)?;
        let root = count_extensions(&Sequence::empty(), flat.rows(), n_items);
        let mut freq1 = vec![false; n_items];
        let mut supports1 = Vec::new();
        for id in 0..n_items as u32 {
            let support = root.seq_support(Item(id));
            if support >= delta {
                freq1[id as usize] = true;
                supports1.push(support);
                guard.note_pattern()?;
                result.insert(Sequence::single(Item(id)), support);
            }
        }
        if supports1.is_empty() {
            return Ok(());
        }
        if let Some(s) = sink.as_deref_mut() {
            s.level_one(result);
        }

        if !self.policy.split(0, nrr(&supports1, flat.len())) {
            // Degenerate but well-defined: DISC over the whole database from
            // k = 2, seeded by the 1-sorted list.
            let members: Vec<_> = flat.rows().collect();
            let list: Vec<Sequence> = (0..n_items as u32)
                .filter(|&id| freq1[id as usize])
                .map(|id| Sequence::single(Item(id)))
                .collect();
            let mut carray = CountingArray::new(n_items);
            return run_disc_levels(
                &members,
                list,
                delta,
                self.bi_level,
                guard,
                result,
                &mut carray,
            );
        }

        // First-level partitions with reassignment chains.
        let mut first_level = group_by_min_item_guarded(flat, guard)?;
        while let Some((&lambda, _)) = first_level.iter().next() {
            guard.checkpoint()?;
            let members = first_level.remove(&lambda).expect("key just observed");
            let resumed = sink.as_deref().is_some_and(|s| s.is_done(lambda));
            if freq1[lambda.id() as usize] && !resumed {
                self.process_first_level(
                    flat, lambda, &members, delta, n_items, &freq1, guard, result,
                )?;
                if let Some(s) = sink.as_deref_mut() {
                    s.partition_done(lambda, result);
                }
            }
            for idx in members {
                guard.checkpoint()?;
                if let Some(next) = next_frequent_item(flat.row(idx), lambda, &freq1) {
                    first_level.entry(next).or_default().push(idx);
                }
            }
        }
        Ok(())
    }
}

impl DynamicDiscAll {
    /// One `<(λ)>`-partition: count 2-extensions, decide by NRR, then either
    /// reduce + split into second-level partitions or run DISC from k = 3.
    #[allow(clippy::too_many_arguments)]
    fn process_first_level(
        &self,
        flat: &FlatDb,
        lambda: Item,
        members: &[usize],
        delta: u64,
        n_items: usize,
        freq1: &[bool],
        guard: &MineGuard,
        result: &mut MiningResult,
    ) -> Result<(), AbortReason> {
        let prefix1 = Sequence::single(lambda);
        guard.charge(members.len() as u64)?;
        let mut array = count_extensions(&prefix1, members.iter().map(|&i| flat.row(i)), n_items);
        let (i_mask, s_mask) = array.frequency_masks(delta);
        let exts = array.frequent_extensions(delta);
        if exts.is_empty() {
            return Ok(());
        }
        let mut freq2 = Vec::with_capacity(exts.len());
        let mut supports = Vec::with_capacity(exts.len());
        for &(elem, support) in &exts {
            let pat = prefix1.extended(elem);
            guard.note_pattern()?;
            result.insert(pat.clone(), support);
            freq2.push(pat);
            supports.push(support);
        }

        if !self.policy.split(1, nrr(&supports, members.len())) {
            // DISC from k = 3 over the (unreduced) partition members.
            let views: Vec<_> = members.iter().map(|&i| flat.row(i)).collect();
            let mut carray = CountingArray::new(n_items);
            return run_disc_levels(
                &views,
                freq2,
                delta,
                self.bi_level,
                guard,
                result,
                &mut carray,
            );
        }

        // Reduce into a partition-local flat arena, split by 2-minimum
        // subsequence, recurse. Slots are arena row indices.
        let mut arena = FlatArena::new();
        let mut second: BTreeMap<ExtElem, Vec<usize>> = BTreeMap::new();
        for &idx in members {
            guard.checkpoint()?;
            let seq = flat.row(idx);
            let min_point =
                seq.first_txn_containing(lambda).expect("partition members contain their key item");
            let Some(row) =
                reduce_into(&mut arena, seq, lambda, min_point, freq1, &i_mask, &s_mask)
            else {
                continue;
            };
            if let Some(elem) = min_ext_elem(arena.row(row), &prefix1, &i_mask, &s_mask, None) {
                second.entry(elem).or_default().push(row);
            } else {
                arena.pop_row(); // unextendable: the row just appended is dead
            }
        }
        while let Some((&elem, _)) = second.iter().next() {
            guard.checkpoint()?;
            let slots = second.remove(&elem).expect("key just observed");
            if slots.len() as u64 >= delta {
                let prefix2 = prefix1.extended(elem);
                let partition: Vec<_> = slots.iter().map(|&s| arena.row(s)).collect();
                self.process_deeper(&prefix2, &partition, delta, n_items, guard, result)?;
            }
            for slot in slots {
                guard.checkpoint()?;
                if let Some(next) =
                    min_ext_elem(arena.row(slot), &prefix1, &i_mask, &s_mask, Some(elem))
                {
                    second.entry(next).or_default().push(slot);
                }
            }
        }
        Ok(())
    }

    /// A `<π>`-partition with `|π| = j ≥ 2`: count (j+1)-extensions, decide
    /// by policy, then recurse or run DISC from k = j + 2. Partitions are
    /// slices of `Copy` views, so recursion copies 32-byte handles, not
    /// sequences.
    fn process_deeper<'a, S: SeqView<'a>>(
        &self,
        prefix: &Sequence,
        partition: &[S],
        delta: u64,
        n_items: usize,
        guard: &MineGuard,
        result: &mut MiningResult,
    ) -> Result<(), AbortReason> {
        guard.charge(partition.len() as u64)?;
        let mut array = count_extensions(prefix, partition.iter().copied(), n_items);
        let (i_mask, s_mask) = array.frequency_masks(delta);
        let exts = array.frequent_extensions(delta);
        if exts.is_empty() {
            return Ok(());
        }
        let mut freq_next = Vec::with_capacity(exts.len());
        let mut supports = Vec::with_capacity(exts.len());
        for &(elem, support) in &exts {
            let pat = prefix.extended(elem);
            guard.note_pattern()?;
            result.insert(pat.clone(), support);
            freq_next.push(pat);
            supports.push(support);
        }

        if !self.policy.split(prefix.length(), nrr(&supports, partition.len())) {
            let mut carray = CountingArray::new(n_items);
            return run_disc_levels(
                partition,
                freq_next,
                delta,
                self.bi_level,
                guard,
                result,
                &mut carray,
            );
        }

        let mut children: BTreeMap<ExtElem, Vec<usize>> = BTreeMap::new();
        for (slot, &seq) in partition.iter().enumerate() {
            guard.checkpoint()?;
            if let Some(elem) = min_ext_elem(seq, prefix, &i_mask, &s_mask, None) {
                children.entry(elem).or_default().push(slot);
            }
        }
        while let Some((&elem, _)) = children.iter().next() {
            guard.checkpoint()?;
            let slots = children.remove(&elem).expect("key just observed");
            if slots.len() as u64 >= delta {
                let child_prefix = prefix.extended(elem);
                let child: Vec<S> = slots.iter().map(|&s| partition[s]).collect();
                self.process_deeper(&child_prefix, &child, delta, n_items, guard, result)?;
            }
            for slot in slots {
                guard.checkpoint()?;
                if let Some(next) =
                    min_ext_elem(partition[slot], prefix, &i_mask, &s_mask, Some(elem))
                {
                    children.entry(next).or_default().push(slot);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_core::BruteForce;

    fn table1() -> SequenceDatabase {
        SequenceDatabase::from_parsed(&[
            "(a,e,g)(b)(h)(f)(c)(b,f)",
            "(b)(d,f)(e)",
            "(b,f,g)",
            "(f)(a,g)(b,f,h)(b,f)",
        ])
        .unwrap()
    }

    fn table6() -> SequenceDatabase {
        SequenceDatabase::from_parsed(&[
            "(a,d)(d)(a,g,h)(c)",
            "(b)(a)(f)(a,c,e,g)",
            "(a,f,g)(a,e,g,h)(c,g,h)",
            "(f)(a,c,f)(a,c,e,g,h)",
            "(a,g)",
            "(a,f)(a,e,g,h)",
            "(a,b,g)(a,e,g)(g,h)",
            "(b,f)(b,e)(e,f,h)",
            "(d,f)(d,f,g,h)",
            "(b,f,g)(c,e,h)",
            "(e,g)(f)(e,f)",
        ])
        .unwrap()
    }

    #[test]
    fn every_gamma_matches_brute_force() {
        // γ = 0.0 never partitions (pure DISC from the root); γ = 2.0 always
        // partitions (pure counting-array recursion); the default mixes.
        for db in [table1(), table6()] {
            for delta in 1..=4u64 {
                let expected = BruteForce::default().mine(&db, MinSupport::Count(delta));
                for gamma in [0.0, 0.3, 0.6, 2.0] {
                    let got = DynamicDiscAll::with_gamma(gamma).mine(&db, MinSupport::Count(delta));
                    let diff = got.diff(&expected);
                    assert!(diff.is_empty(), "γ={gamma} δ={delta}:\n{}", diff.join("\n"));
                }
            }
        }
    }

    #[test]
    fn bi_level_toggle_matches_too() {
        let db = table6();
        let expected = BruteForce::default().mine(&db, MinSupport::Count(3));
        let miner = DynamicDiscAll { policy: SplitPolicy::NrrThreshold(0.5), bi_level: false };
        let got = miner.mine(&db, MinSupport::Count(3));
        assert!(got.diff(&expected).is_empty());
    }

    #[test]
    fn fixed_depth_policies_match_brute_force() {
        for db in [table1(), table6()] {
            for delta in 1..=4u64 {
                let expected = BruteForce::default().mine(&db, MinSupport::Count(delta));
                for depth in [0usize, 1, 2, 3, 8] {
                    let got =
                        DynamicDiscAll::with_fixed_depth(depth).mine(&db, MinSupport::Count(delta));
                    let diff = got.diff(&expected);
                    assert!(diff.is_empty(), "depth={depth} δ={delta}:\n{}", diff.join("\n"));
                }
            }
        }
    }

    #[test]
    fn nrr_formula() {
        assert!((nrr(&[5, 3, 4], 6) - (5.0 / 6.0 + 3.0 / 6.0 + 4.0 / 6.0) / 3.0).abs() < 1e-12);
        assert!((nrr(&[10], 10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_database() {
        let result = DynamicDiscAll::default().mine(&SequenceDatabase::new(), MinSupport::Count(1));
        assert!(result.is_empty());
    }
}
