//! The **DISC-all** algorithm (Figure 2) and the **partition engine** every
//! DISC miner runs.
//!
//! The engine is Figure 2's walk, written once: the frequent 1-sequences,
//! first-level partitions with their reassignment chains, counting-array
//! scans, reduction into a reused arena, next-level partitions keyed by
//! (conditional) minimum extensions, and the DISC strategy below the last
//! split. At every level it asks a [`SplitPolicy`] whether to split the
//! partition further or hand it to the DISC strategy. DISC-all is the
//! constant [`SplitPolicy::FixedDepth`]`(2)`: two levels of partitioning,
//! counting arrays for lengths 1–3, DISC for lengths ≥ 4.
//! [`DynamicDiscAll`](crate::DynamicDiscAll) runs the same engine with its
//! NRR threshold, and [`ParallelDiscAll`](crate::ParallelDiscAll) runs its
//! first-level step once per shard.
//!
//! Every member carries a weight, and every threshold test — frequency,
//! partition size, the k-sorted database's `α_δ` — reads weight sums. The
//! miners above run with weight 1 per row, where a weight sum is a member
//! count; [`WeightedDisc`](crate::WeightedDisc) runs the same walk with its
//! customers' weights. Weights ride beside the member lists each step
//! builds anyway, as `(view, weight)` pairs, so weight 1 is never
//! materialized for the whole database.

use crate::counting::{count_extensions_into, CountingArray, FrequencyMasks};
use crate::discovery::discover_frequent_k_into;
use crate::dynamic::SplitPolicy;
use crate::partition::{frequent_items_per_row, min_ext_elem, reduce_into, RowExtensions};
use crate::resume::{mine_flattened, CheckpointSink, Checkpointable};
use disc_core::{
    checkpoint, AbortReason, ExtElem, FlatArena, FlatDb, GuardedResult, Item, MinSupport,
    MineGuard, MiningResult, SeqView, Sequence, SequenceDatabase, SequentialMiner,
};
use std::collections::BTreeMap;

/// Tuning knobs shared by every DISC miner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiscConfig {
    /// Use the bi-level optimization of §3.2 (one k-sorted-database pass
    /// yields levels k and k+1). The paper's experiments enable it; an
    /// ablation bench compares both settings.
    pub bi_level: bool,
}

impl Default for DiscConfig {
    fn default() -> Self {
        DiscConfig { bi_level: true }
    }
}

/// DISC-all's split policy: partition to prefix length 2, then DISC.
pub(crate) const DISC_ALL_POLICY: SplitPolicy = SplitPolicy::FixedDepth(2);

/// The DISC-all miner.
///
/// Step by step (Figure 2):
///
/// 1. one scan finds the frequent 1-sequences and groups customers by their
///    minimum frequent item into **first-level partitions**; a member of
///    the `<(λ)>`-partition is seen from its *minimum point*, the first
///    transaction containing `λ`;
/// 2. each first-level partition (ascending) with a frequent `λ`:
///    * one counting-array scan finds the frequent 2-sequences `<(λ)(x)>` /
///      `<(λ x)>`,
///    * customers are **reduced** (non-frequent 1-/2-sequences and the
///      items no `λ`-pattern can use removed) and grouped by their
///      2-minimum subsequence into **second-level partitions**;
/// 3. each second-level partition (ascending): a counting-array scan finds
///    the frequent 3-sequences, then the **DISC strategy** iterates k = 4,
///    5, … (stepping by two under bi-level);
/// 4. after a partition is processed its members are *reassigned* to the
///    partition of their next minimum, so later partitions always see every
///    supporter of their key.
#[derive(Debug, Clone, Default)]
pub struct DiscAll {
    /// Configuration.
    pub config: DiscConfig,
}

impl DiscAll {
    /// A DISC-all miner with the bi-level optimization disabled.
    pub fn without_bi_level() -> DiscAll {
        DiscAll { config: DiscConfig { bi_level: false } }
    }
}

impl SequentialMiner for DiscAll {
    fn name(&self) -> &str {
        if self.config.bi_level {
            "DISC-all"
        } else {
            "DISC-all (no bi-level)"
        }
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

impl Checkpointable for DiscAll {
    fn provenance(&self) -> (u8, bool, u32) {
        (checkpoint::MINER_DISC_ALL, self.config.bi_level, 1)
    }

    /// The partition engine under [`SplitPolicy::FixedDepth`]`(2)`.
    ///
    /// Checkpoints on every partition-walk step and every per-member scan,
    /// and notes every pattern. With a [`CheckpointSink`], reports the
    /// boundary-consistent state after the frequent 1-sequences and after
    /// every completed first-level partition, and skips partitions a
    /// resumed snapshot marks done (their reassignment chains still run —
    /// later partitions need them).
    fn mine_flat_into(
        &self,
        flat: &FlatDb,
        delta: u64,
        guard: &MineGuard,
        result: &mut MiningResult,
        sink: Option<&mut CheckpointSink<'_>>,
    ) -> Result<(), AbortReason> {
        let engine = Engine {
            flat,
            weights: None,
            delta,
            policy: DISC_ALL_POLICY,
            config: self.config,
            guard,
        };
        mine_partitioned(&engine, result, sink)
    }
}

impl DiscAll {
    /// Mines a [`FlatDb`] directly — columns mapped zero-copy from a
    /// `DSCFD1` flat file, or built in memory — without a guard. Identical
    /// output to [`SequentialMiner::mine`] on the database the columns came
    /// from (item ids as stored: compact-id patterns until the caller
    /// restores them through the dictionary).
    pub fn mine_flat(&self, flat: &FlatDb, min_support: MinSupport) -> MiningResult {
        self.mine_flat_guarded(flat, min_support, &MineGuard::unlimited()).into_complete()
    }
}

/// The partition engine's whole walk under its policy, with the
/// checkpoints and snapshot boundaries [`DiscAll`]'s `mine_flat_into`
/// documents. A policy that does not split the root has no partition
/// boundaries; only the level-1 snapshot applies there.
pub(crate) fn mine_partitioned(
    engine: &Engine<'_>,
    result: &mut MiningResult,
    mut sink: Option<&mut CheckpointSink<'_>>,
) -> Result<(), AbortReason> {
    let Engine { flat, weights, policy, guard, .. } = *engine;
    let Some(max_item) = flat.max_item() else {
        return Ok(());
    };
    let n_items = max_item.id() as usize + 1;
    // One counting array, reduction arena and extension table for the whole
    // run: partitions reset them instead of re-allocating (the arena and
    // table stabilize at the largest partition's footprint).
    let mut scratch = Scratch::new(n_items);

    // Step 1: frequent 1-sequences.
    let (freq1, supports1) = frequent_one_sequences(engine, n_items, result)?;
    if let Some(s) = sink.as_deref_mut() {
        s.level_one(result);
    }

    let total = weights.map_or(flat.len() as u64, |w| w.iter().sum());
    if !policy.split(0, supports1.iter().copied(), total) {
        // No partitioning at all: DISC over the whole database from k = 2,
        // seeded by the 1-sorted list.
        let members: Vec<_> =
            flat.rows().enumerate().map(|(i, row)| (row, engine.weight(i))).collect();
        let list = (0..n_items as u32).filter(|&id| freq1[id as usize]);
        let list = list.map(|id| Sequence::single(Item(id))).collect();
        return engine.run_disc(&members, list, result, &mut scratch.carray);
    }

    // Step 2: walk first-level partitions in ascending key order. The
    // reassignment chain of a row visits, ascending, exactly the distinct
    // frequent items it contains — precompute those itineraries once, with
    // each stop's minimum point, so every chain turn is a binary search
    // instead of a row walk. A row starts at its first stop.
    let itineraries = frequent_items_per_row(flat, &freq1, guard)?;
    let mut first_level: BTreeMap<Item, Vec<Member>> = BTreeMap::new();
    for (idx, stops) in itineraries.iter().enumerate() {
        if let Some(&(lambda, min_point)) = stops.first() {
            first_level.entry(lambda).or_default().push((idx, min_point));
        }
    }
    while let Some((&lambda, _)) = first_level.iter().next() {
        guard.checkpoint()?;
        let members = first_level.remove(&lambda).expect("key just observed");
        if !sink.as_deref().is_some_and(|s| s.is_done(lambda)) {
            engine.process_first_level(lambda, &members, result, &mut scratch)?;
            if let Some(s) = sink.as_deref_mut() {
                s.partition_done(lambda, result);
            }
        }
        // Step 2.2: reassignment chains.
        for (idx, _) in members {
            guard.checkpoint()?;
            let stops = &itineraries[idx];
            let from = stops.partition_point(|&(x, _)| x <= lambda);
            if let Some(&(next, min_point)) = stops.get(from) {
                first_level.entry(next).or_default().push((idx, min_point));
            }
        }
    }
    Ok(())
}

/// A first-level partition member: a database row and its minimum point
/// in the partition (the first transaction containing the partition item).
pub(crate) type Member = (usize, u32);

/// One engine run: the database, its row weights, the threshold and the
/// split policy every partition step reads. One run is a whole sequential
/// mine, or one shard of [`crate::ParallelDiscAll`] (which brings its
/// worker guard).
#[derive(Clone, Copy)]
pub(crate) struct Engine<'r> {
    pub(crate) flat: &'r FlatDb,
    /// One weight per row of `flat`, with `delta` a weighted threshold;
    /// `None` is weight 1 for every row.
    pub(crate) weights: Option<&'r [u64]>,
    pub(crate) delta: u64,
    pub(crate) policy: SplitPolicy,
    pub(crate) config: DiscConfig,
    pub(crate) guard: &'r MineGuard,
}

/// The buffers one engine run reuses across its partitions.
pub(crate) struct Scratch {
    carray: CountingArray,
    arena: FlatArena,
    /// The weight of each `arena` row.
    arena_weights: Vec<u64>,
    exts: RowExtensions,
    masks: MaskPool,
}

/// Frequency masks free for reuse. A split partition takes one for as long
/// as its children are walked, so the pool grows to the split depth.
type MaskPool = Vec<FrequencyMasks>;

impl Scratch {
    /// Empty buffers for item ids `0..n_items`.
    pub(crate) fn new(n_items: usize) -> Scratch {
        Scratch {
            carray: CountingArray::new(n_items),
            arena: FlatArena::new(),
            arena_weights: Vec::new(),
            exts: RowExtensions::new(),
            masks: MaskPool::new(),
        }
    }
}

/// The total weight of `(member, weight)` pairs.
fn weight_of<S>(members: &[(S, u64)]) -> u64 {
    members.iter().map(|&(_, w)| w).sum()
}

impl Engine<'_> {
    /// The weight of database row `row`.
    fn weight(&self, row: usize) -> u64 {
        self.weights.map_or(1, |w| w[row])
    }

    /// Steps 2.1.1–2.1.3 for one `<(λ)>`-partition, over its members
    /// viewed from their minimum points: every embedding of a pattern
    /// starting with `λ` starts there or later, so the 2-sequence count,
    /// the reduction and the unsplit DISC path all skip the transactions
    /// before it.
    ///
    /// This is also the **shard body** of [`crate::ParallelDiscAll`]: the
    /// member list of the `<(λ)>`-partition at its processing time is
    /// exactly the rows containing `λ` (the reassignment chains enumerate,
    /// per row, every frequent item it contains), so first-level partitions
    /// are mutually independent and can run concurrently.
    pub(crate) fn process_first_level(
        &self,
        lambda: Item,
        members: &[Member],
        result: &mut MiningResult,
        scratch: &mut Scratch,
    ) -> Result<(), AbortReason> {
        let Scratch { carray, arena, arena_weights, exts, masks: pool } = scratch;
        let (flat, delta, guard) = (self.flat, self.delta, self.guard);
        let prefix1 = Sequence::single(lambda);
        let views: Vec<_> = members
            .iter()
            .map(|&(i, t)| (flat.row(i).from_transaction(t as usize), self.weight(i)))
            .collect();

        // 2.1.1: frequent 2-sequences by counting array (over the unreduced
        // members — every supporter of a 2-sequence starting with λ is a
        // member now).
        guard.charge(members.len() as u64)?;
        count_extensions_into(carray, &prefix1, views.iter().copied());
        let freq2 = carray.frequent_extensions(delta);
        for &(elem, support) in &freq2 {
            guard.note_pattern()?;
            result.insert(prefix1.extended(elem), support);
        }
        if !self.policy.split(1, freq2.iter().map(|&(_, s)| s), weight_of(&views)) {
            // DISC from k = 3 over the (unreduced) partition members.
            let list = freq2.iter().map(|&(elem, _)| prefix1.extended(elem)).collect();
            return self.run_disc(&views, list, result, carray);
        }
        let mut masks = pool.pop().unwrap_or_default();
        masks.fill(carray, delta);
        let (i_mask, s_mask) = (&masks.itemset[..], &masks.sequence[..]);

        // 2.1.2: reduce into a partition-local flat arena and group by
        // 2-minimum subsequence. Partition slots are arena row indices;
        // reduced members never exist as nested sequences. Each row's
        // extension set is computed once here; the keying below and every
        // 2.1.3.3 reassignment turn are lookups into it.
        arena.clear();
        arena_weights.clear();
        exts.clear();
        let mut second_level: BTreeMap<ExtElem, Vec<usize>> = BTreeMap::new();
        for &(seq, weight) in &views {
            guard.checkpoint()?;
            let Some(row) = reduce_into(arena, seq, lambda, i_mask, s_mask) else {
                continue;
            };
            let ext_row = exts.push_row(arena.row(row), &prefix1);
            debug_assert_eq!(ext_row, row);
            if let Some(elem) = exts.min_masked(row, i_mask, s_mask, None) {
                second_level.entry(elem).or_default().push(row);
                debug_assert_eq!(arena_weights.len(), row);
                arena_weights.push(weight);
            } else {
                // Unextendable: the row just appended is dead.
                arena.pop_row();
                exts.pop_row();
            }
        }

        // 2.1.3: walk second-level partitions in ascending key order.
        while let Some((&elem, _)) = second_level.iter().next() {
            guard.checkpoint()?;
            let slots = second_level.remove(&elem).expect("key just observed");
            if slots.iter().map(|&s| arena_weights[s]).sum::<u64>() >= delta {
                let prefix2 = prefix1.extended(elem);
                let partition: Vec<_> =
                    slots.iter().map(|&s| (arena.row(s), arena_weights[s])).collect();
                self.process_partition(&prefix2, &partition, 2, result, carray, pool)?;
            }
            // 2.1.3.3: reassign by the next 2-minimum subsequence.
            for slot in slots {
                guard.checkpoint()?;
                if let Some(next) = exts.min_masked(slot, i_mask, s_mask, Some(elem)) {
                    second_level.entry(next).or_default().push(slot);
                }
            }
        }
        pool.push(masks);
        Ok(())
    }

    /// A `<π>`-partition with `|π| = level ≥ 2` (step 2.1.3 for DISC-all's
    /// second level): a counting-array scan finds the frequent
    /// (level+1)-sequences; then the policy either hands the partition to
    /// the DISC strategy from k = level + 2, or splits it by (conditional)
    /// (level+1)-minimum subsequence and recurses with reassignment chains.
    /// Partitions are slices of `Copy` `(view, weight)` pairs, so recursion
    /// copies handles, not sequences.
    fn process_partition<'a, S: SeqView<'a>>(
        &self,
        prefix: &Sequence,
        partition: &[(S, u64)],
        level: usize,
        result: &mut MiningResult,
        carray: &mut CountingArray,
        pool: &mut MaskPool,
    ) -> Result<(), AbortReason> {
        let (delta, guard) = (self.delta, self.guard);
        guard.charge(partition.len() as u64)?;
        count_extensions_into(carray, prefix, partition.iter().copied());
        let exts = carray.frequent_extensions(delta);
        let mut freq_next = Vec::with_capacity(exts.len());
        for &(elem, support) in &exts {
            let pat = prefix.extended(elem);
            guard.note_pattern()?;
            result.insert(pat.clone(), support);
            freq_next.push(pat);
        }
        if !self.policy.split(level, exts.iter().map(|&(_, s)| s), weight_of(partition)) {
            return self.run_disc(partition, freq_next, result, carray);
        }
        let mut masks = pool.pop().unwrap_or_default();
        masks.fill(carray, delta);
        let (i_mask, s_mask) = (&masks.itemset[..], &masks.sequence[..]);

        let mut children: BTreeMap<ExtElem, Vec<usize>> = BTreeMap::new();
        for (slot, &(seq, _)) in partition.iter().enumerate() {
            guard.checkpoint()?;
            if let Some(elem) = min_ext_elem(seq, prefix, i_mask, s_mask, None) {
                children.entry(elem).or_default().push(slot);
            }
        }
        while let Some((&elem, _)) = children.iter().next() {
            guard.checkpoint()?;
            let slots = children.remove(&elem).expect("key just observed");
            if slots.iter().map(|&s| partition[s].1).sum::<u64>() >= delta {
                let child: Vec<_> = slots.iter().map(|&s| partition[s]).collect();
                let child_prefix = prefix.extended(elem);
                self.process_partition(&child_prefix, &child, level + 1, result, carray, pool)?;
            }
            for slot in slots {
                guard.checkpoint()?;
                if let Some(next) =
                    min_ext_elem(partition[slot].0, prefix, i_mask, s_mask, Some(elem))
                {
                    children.entry(next).or_default().push(slot);
                }
            }
        }
        pool.push(masks);
        Ok(())
    }

    /// The `k = start, start+1, …` (or `start, start+2, …` under bi-level)
    /// DISC loop below the last split, over `(member, weight)` pairs.
    /// `freq_prev` holds the ascending frequent (k-1)-sequences that seed
    /// the first iteration. Patterns reach `result` only from *completed*
    /// discovery calls, so an abort mid-discovery never records unverified
    /// supports.
    fn run_disc<'a, S: SeqView<'a>>(
        &self,
        members: &[(S, u64)],
        mut freq_prev: Vec<Sequence>,
        result: &mut MiningResult,
        carray: &mut CountingArray,
    ) -> Result<(), AbortReason> {
        let (delta, bi_level, guard) = (self.delta, self.config.bi_level, self.guard);
        let weight = weight_of(members);
        while !freq_prev.is_empty() && weight >= delta {
            guard.checkpoint()?;
            let out =
                discover_frequent_k_into(members, &freq_prev, delta, bi_level, guard, carray)?;
            // Under bi-level, level k is final and level k+1 seeds the next
            // round. Final patterns are *moved* into the result; only the
            // seeding level clones (its sequences live on as the next
            // (k-1)-sorted list).
            let (last, seed) =
                if bi_level { (out.freq_k, out.freq_k1) } else { (vec![], out.freq_k) };
            for (p, s) in last {
                guard.note_pattern()?;
                result.insert(p, s);
            }
            freq_prev = Vec::with_capacity(seed.len());
            for (p, s) in seed {
                guard.note_pattern()?;
                freq_prev.push(p.clone());
                result.insert(p, s);
            }
        }
        Ok(())
    }
}

/// Step 1 of Figure 2: one counting-array scan finds the frequent
/// 1-sequences and inserts them into `result`. Returns the `freq1` mask and
/// the frequent items' supports, ascending by item (the root's NRR input).
pub(crate) fn frequent_one_sequences(
    engine: &Engine<'_>,
    n_items: usize,
    result: &mut MiningResult,
) -> Result<(Vec<bool>, Vec<u64>), AbortReason> {
    let Engine { flat, delta, guard, .. } = *engine;
    guard.charge(flat.len() as u64)?;
    let mut root = CountingArray::new(n_items);
    let rows = flat.rows().enumerate().map(|(i, row)| (row, engine.weight(i)));
    count_extensions_into(&mut root, &Sequence::empty(), rows);
    let mut freq1 = vec![false; n_items];
    let mut supports = Vec::new();
    for id in 0..n_items as u32 {
        let support = root.seq_support(Item(id));
        if support >= delta {
            freq1[id as usize] = true;
            supports.push(support);
            guard.note_pattern()?;
            result.insert(Sequence::single(Item(id)), support);
        }
    }
    Ok((freq1, supports))
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

    fn assert_matches_brute_force(db: &SequenceDatabase, delta: u64) {
        let expected = BruteForce::default().mine(db, MinSupport::Count(delta));
        for miner in [DiscAll::default(), DiscAll::without_bi_level()] {
            let got = miner.mine(db, MinSupport::Count(delta));
            let diff = got.diff(&expected);
            assert!(diff.is_empty(), "{} δ={delta}:\n{}", miner.name(), diff.join("\n"));
        }
    }

    #[test]
    fn matches_brute_force_on_table_1() {
        for delta in 1..=4 {
            assert_matches_brute_force(&table1(), delta);
        }
    }

    #[test]
    fn matches_brute_force_on_table_6() {
        for delta in 1..=5 {
            assert_matches_brute_force(&table6(), delta);
        }
    }

    #[test]
    fn example_3_1_finds_the_promised_patterns() {
        // "<(a)>-partition will be processed first to find all the frequent
        // sequences that contain a as the first item, e.g. <(a, e)> and
        // <(a)(g, h)>" — δ = 3.
        let result = DiscAll::default().mine(&table6(), MinSupport::Count(3));
        assert!(result.contains_pattern(&parse_sequence("(a,e)").unwrap()));
        assert!(result.contains_pattern(&parse_sequence("(a)(g,h)").unwrap()));
        // And the deep ones traced in Examples 3.3–3.5.
        assert_eq!(result.support_of(&parse_sequence("(a)(a,e,g)").unwrap()), Some(5));
        assert_eq!(result.support_of(&parse_sequence("(a)(a,e,g,h)").unwrap()), Some(3));
        // <(d)> is the only non-frequent 1-sequence.
        assert!(!result.contains_pattern(&parse_sequence("(d)").unwrap()));
        assert!(result.contains_pattern(&parse_sequence("(h)").unwrap()));
    }

    #[test]
    fn empty_database() {
        let result = DiscAll::default().mine(&SequenceDatabase::new(), MinSupport::Count(1));
        assert!(result.is_empty());
    }

    #[test]
    fn single_customer_delta_one() {
        let db = SequenceDatabase::from_parsed(&["(a,b)(c)"]).unwrap();
        assert_matches_brute_force(&db, 1);
    }

    #[test]
    fn duplicate_customers_accumulate_support() {
        let db = SequenceDatabase::from_parsed(&[
            "(a)(b)(c)(d)(e)",
            "(a)(b)(c)(d)(e)",
            "(a)(b)(c)(d)(e)",
        ])
        .unwrap();
        let result = DiscAll::default().mine(&db, MinSupport::Count(3));
        // The full 5-sequence and every subsequence of it are frequent: 2^5-1.
        assert_eq!(result.len(), 31);
        assert_eq!(result.support_of(&parse_sequence("(a)(b)(c)(d)(e)").unwrap()), Some(3));
        assert_matches_brute_force(&db, 3);
    }

    #[test]
    fn deep_itemset_patterns() {
        let db = SequenceDatabase::from_parsed(&[
            "(a,b,c,d,e)(a,b)",
            "(a,b,c,d,e)(c)",
            "(x)(a,b,c,d,e)",
        ])
        .unwrap();
        let result = DiscAll::default().mine(&db, MinSupport::Count(3));
        assert_eq!(result.support_of(&parse_sequence("(a,b,c,d,e)").unwrap()), Some(3));
        assert_matches_brute_force(&db, 3);
        assert_matches_brute_force(&db, 2);
    }

    #[test]
    fn fraction_threshold_resolution() {
        let db = table6();
        let by_count = DiscAll::default().mine(&db, MinSupport::Count(3));
        let by_fraction = DiscAll::default().mine(&db, MinSupport::Fraction(3.0 / 11.0));
        assert!(by_count.diff(&by_fraction).is_empty());
    }
}
