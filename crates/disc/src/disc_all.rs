//! The **DISC-all** algorithm (Figure 2) and the **partition engine** every
//! DISC miner runs.
//!
//! The engine is Figure 2's walk, written once: the frequent 1-sequences,
//! the projection onto the frequent items (when it drops at least half of
//! the item column), first-level partitions, counting-array scans,
//! reduction into a reused arena, next-level partitions keyed by
//! (conditional) minimum extensions,
//! and the DISC strategy below the last split. Each level's partitions get
//! their members from transposed member lists
//! (`partition::MemberLists`): every member the paper's
//! reassignment chains would bring a partition by its turn, built once per
//! level instead of replayed hop by hop. At every level the engine asks a
//! [`SplitPolicy`] whether to split the partition further or hand it to the
//! DISC strategy. DISC-all is the constant [`SplitPolicy::FixedDepth`]`(2)`:
//! two levels of partitioning, counting arrays for lengths 1–3, DISC for
//! lengths ≥ 4.
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
use crate::partition::{
    extension_lists, first_level_members, frequent_projection, reduce_into, Member, MemberLists,
    RowExtensions,
};
use crate::resume::{mine_on_flat, CheckpointSink, Checkpointable};
use disc_core::{
    checkpoint, AbortReason, FlatArena, FlatDb, GuardedResult, Item, MinSupport, MineGuard,
    MiningResult, SeqView, Sequence, SequenceDatabase, SequentialMiner,
};

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
///    supporter of their key. The engine lists those supporters up front,
///    by transposition, instead of moving members along the chains.
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

    fn mine_guarded(
        &self,
        db: &SequenceDatabase,
        min_support: MinSupport,
        guard: &MineGuard,
    ) -> GuardedResult {
        mine_on_flat(db, |flat| self.mine_flat_guarded(flat, min_support, guard))
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
    /// resumed snapshot marks done.
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
    sink: Option<&mut CheckpointSink<'_>>,
) -> Result<(), AbortReason> {
    // Step 2: walk first-level partitions in ascending key order. The
    // reassignment chains (Step 2.2) hand the <(λ)>-partition every row
    // containing λ by its turn; the transposition lists exactly those rows
    // up front. Partitions a resumed snapshot marks done are skipped.
    mine_root(engine, result, sink, |engine, first_level, result, mut sink| {
        // One counting array, reduction arena and extension table for the
        // whole walk: partitions reset them instead of re-allocating (the
        // arena and table stabilize at the largest partition's footprint).
        let mut scratch = Scratch::new(engine.n_items());
        for (lambda, members) in first_level.iter() {
            engine.guard.checkpoint()?;
            if sink.as_deref().is_some_and(|s| s.is_done(lambda)) {
                continue;
            }
            engine.process_first_level(lambda, members, result, &mut scratch)?;
            if let Some(s) = sink.as_deref_mut() {
                s.partition_done(lambda, result);
            }
        }
        Ok(())
    })
}

/// The first-level step every engine run shares — the sequential walk
/// above and [`crate::ParallelDiscAll`]'s coordinator: Step 1 (the frequent
/// 1-sequences, then the level-1 snapshot), the frequent-item projection
/// ([`frequent_projection`]), the root's split test, and the first-level
/// member lists, which `walk` gets with an engine over the database it
/// should mine — the projection when one was built, else the input. A
/// root the policy does not split is mined here instead, by DISC from
/// k = 2 over every row.
pub(crate) fn mine_root<'s>(
    engine: &Engine<'_>,
    result: &mut MiningResult,
    mut sink: Option<&mut CheckpointSink<'s>>,
    walk: impl FnOnce(
        &Engine<'_>,
        MemberLists<Item, Member>,
        &mut MiningResult,
        Option<&mut CheckpointSink<'s>>,
    ) -> Result<(), AbortReason>,
) -> Result<(), AbortReason> {
    let Engine { flat, weights, policy, guard, .. } = *engine;
    let n_items = engine.n_items();
    if n_items == 0 {
        return Ok(());
    }

    // Step 1: frequent 1-sequences.
    let (freq1, supports1) = frequent_one_sequences(engine, n_items, result)?;
    if let Some(s) = sink.as_deref_mut() {
        s.level_one(result);
    }
    if supports1.is_empty() {
        return Ok(());
    }

    // Every longer pattern consists of frequent items: mine the projection
    // onto them when it drops enough of the item column to pay for itself.
    // Rows stay aligned, so weights, member ids and partition keys keep
    // their meaning.
    let projection = frequent_projection(flat, &freq1, guard)?;
    let engine = &Engine { flat: projection.as_ref().unwrap_or(flat), ..*engine };

    let total = weights.map_or(flat.len() as u64, |w| w.iter().sum());
    if !policy.split(0, supports1.iter().copied(), total) {
        // No partitioning at all: DISC over the whole database from k = 2,
        // seeded by the 1-sorted list. Its patterns are noted and already
        // in `result` (the level-1 snapshot holds them); moving them in
        // again re-inserts them unchanged.
        let members: Vec<_> =
            engine.flat.rows().enumerate().map(|(i, row)| (row, engine.weight(i))).collect();
        let patterns = (0..n_items as u32).filter(|&id| freq1[id as usize]);
        let patterns = patterns.map(|id| Sequence::single(Item(id))).collect();
        let seeds = Seeds { patterns, supports: supports1 };
        let mut carray = CountingArray::new(engine.n_items());
        return engine.run_disc(&members, seeds, result, &mut carray);
    }

    let first_level = first_level_members(engine.flat, &freq1, guard)?;
    walk(engine, first_level, result, sink)
}

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
    masks: FrequencyMasks,
    /// The key-position table of [`extension_lists`], `u32::MAX` between
    /// uses.
    slot_of: Vec<u32>,
}

impl Scratch {
    /// Empty buffers for item ids `0..n_items`.
    pub(crate) fn new(n_items: usize) -> Scratch {
        Scratch {
            carray: CountingArray::new(n_items),
            arena: FlatArena::new(),
            arena_weights: Vec::new(),
            exts: RowExtensions::new(),
            masks: FrequencyMasks::default(),
            slot_of: vec![u32::MAX; 2 * n_items],
        }
    }
}

/// A (k-1)-sorted list seeding a DISC round: patterns the guard has noted
/// that `result` does not hold yet. They seed the round, then *move* into
/// the result — once the round completes, or on an abort, so a partial
/// result holds exactly the patterns the guard noted.
#[derive(Default)]
struct Seeds {
    patterns: Vec<Sequence>,
    supports: Vec<u64>,
}

impl Seeds {
    /// Notes each of `found` with the guard and keeps it as a seed. On an
    /// abort the patterns noted so far stay here, for the caller to move.
    fn note(
        &mut self,
        guard: &MineGuard,
        found: impl IntoIterator<Item = (Sequence, u64)>,
    ) -> Result<(), AbortReason> {
        for (pattern, support) in found {
            guard.note_pattern()?;
            self.patterns.push(pattern);
            self.supports.push(support);
        }
        Ok(())
    }

    /// [`Seeds::note`] into a new list; on an abort the patterns noted so
    /// far go into `result`.
    fn noted(
        guard: &MineGuard,
        found: impl IntoIterator<Item = (Sequence, u64)>,
        result: &mut MiningResult,
    ) -> Result<Seeds, AbortReason> {
        let mut seeds = Seeds::default();
        match seeds.note(guard, found) {
            Ok(()) => Ok(seeds),
            Err(reason) => {
                seeds.move_into(result);
                Err(reason)
            }
        }
    }

    /// Moves every seed into `result`, leaving the list empty.
    fn move_into(&mut self, result: &mut MiningResult) {
        for (pattern, support) in self.patterns.drain(..).zip(self.supports.drain(..)) {
            result.insert(pattern, support);
        }
    }
}

/// The total weight of `(member, weight)` pairs.
fn weight_of<S>(members: &[(S, u64)]) -> u64 {
    members.iter().map(|&(_, w)| w).sum()
}

impl Engine<'_> {
    /// The size of the item-id space of the engine's database: one more
    /// than its largest item, 0 for an item-free database.
    pub(crate) fn n_items(&self) -> usize {
        self.flat.max_item().map_or(0, |m| m.id() as usize + 1)
    }

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
    /// member list of the `<(λ)>`-partition is exactly the rows containing
    /// `λ` ([`first_level_members`]), so first-level partitions are
    /// mutually independent and can run concurrently.
    pub(crate) fn process_first_level(
        &self,
        lambda: Item,
        members: &[Member],
        result: &mut MiningResult,
        scratch: &mut Scratch,
    ) -> Result<(), AbortReason> {
        let Scratch { carray, arena, arena_weights, exts, masks, slot_of } = scratch;
        let (flat, delta, guard) = (self.flat, self.delta, self.guard);
        let prefix1 = Sequence::single(lambda);
        let views: Vec<_> = members
            .iter()
            .map(|&(i, t)| {
                (flat.row(i as usize).from_transaction(t as usize), self.weight(i as usize))
            })
            .collect();

        // 2.1.1: frequent 2-sequences by counting array (over the unreduced
        // members — every supporter of a 2-sequence starting with λ is a
        // member).
        guard.charge(members.len() as u64)?;
        count_extensions_into(carray, &prefix1, views.iter().copied());
        let freq2 = carray.frequent_extensions(delta);
        if !self.policy.split(1, freq2.iter().map(|&(_, s)| s), weight_of(&views)) {
            // DISC from k = 3 over the (unreduced) partition members.
            let found = freq2.iter().map(|&(elem, s)| (prefix1.extended(elem), s));
            let seeds = Seeds::noted(guard, found, result)?;
            return self.run_disc(&views, seeds, result, carray);
        }
        for &(elem, support) in &freq2 {
            guard.note_pattern()?;
            result.insert(prefix1.extended(elem), support);
        }
        masks.fill(carray, delta);

        // 2.1.2: reduce into a partition-local flat arena, with each row's
        // extension set. Partition slots are arena row indices; reduced
        // members never exist as nested sequences.
        arena.clear();
        arena_weights.clear();
        exts.clear();
        for &(seq, weight) in &views {
            guard.checkpoint()?;
            let Some(row) = reduce_into(arena, seq, lambda, &masks.itemset, &masks.sequence) else {
                continue;
            };
            let ext_row = exts.push_row(arena.row(row), &prefix1);
            debug_assert_eq!(ext_row, row);
            if exts.any_masked(row, masks) {
                debug_assert_eq!(arena_weights.len(), row);
                arena_weights.push(weight);
            } else {
                // Unextendable: the row just appended is dead.
                arena.pop_row();
                exts.pop_row();
            }
        }

        // 2.1.3: walk second-level partitions in ascending key order; each
        // lists every reduced row whose extension set holds its key, the
        // rows the 2.1.3.3 reassignment chains would bring.
        let keys = freq2.into_iter().map(|(elem, _)| elem).collect();
        let second_level = extension_lists(exts, keys, slot_of);
        for (elem, slots) in second_level.iter() {
            guard.checkpoint()?;
            if slots.iter().map(|&s| arena_weights[s as usize]).sum::<u64>() >= delta {
                let prefix2 = prefix1.extended(elem);
                let partition: Vec<_> = slots
                    .iter()
                    .map(|&s| (arena.row(s as usize), arena_weights[s as usize]))
                    .collect();
                self.process_partition(&prefix2, &partition, 2, result, carray, slot_of)?;
            }
        }
        Ok(())
    }

    /// A `<π>`-partition with `|π| = level ≥ 2` (step 2.1.3 for DISC-all's
    /// second level): a counting-array scan finds the frequent
    /// (level+1)-sequences; then the policy either hands the partition to
    /// the DISC strategy from k = level + 2, or splits it by its members'
    /// frequent extensions (the (conditional) (level+1)-minimum
    /// subsequences) and recurses. Partitions are slices of `Copy`
    /// `(view, weight)` pairs, so recursion copies handles, not sequences.
    fn process_partition<'a, S: SeqView<'a>>(
        &self,
        prefix: &Sequence,
        partition: &[(S, u64)],
        level: usize,
        result: &mut MiningResult,
        carray: &mut CountingArray,
        slot_of: &mut [u32],
    ) -> Result<(), AbortReason> {
        let (delta, guard) = (self.delta, self.guard);
        guard.charge(partition.len() as u64)?;
        count_extensions_into(carray, prefix, partition.iter().copied());
        let exts = carray.frequent_extensions(delta);
        let found = exts.iter().map(|&(elem, support)| (prefix.extended(elem), support));
        if !self.policy.split(level, exts.iter().map(|&(_, s)| s), weight_of(partition)) {
            let seeds = Seeds::noted(guard, found, result)?;
            return self.run_disc(partition, seeds, result, carray);
        }
        for (pattern, support) in found {
            guard.note_pattern()?;
            result.insert(pattern, support);
        }

        let mut member_exts = RowExtensions::new();
        for &(seq, _) in partition {
            guard.checkpoint()?;
            member_exts.push_row(seq, prefix);
        }
        let keys = exts.into_iter().map(|(elem, _)| elem).collect();
        let children = extension_lists(&member_exts, keys, slot_of);
        drop(member_exts);
        for (elem, slots) in children.iter() {
            guard.checkpoint()?;
            if slots.iter().map(|&s| partition[s as usize].1).sum::<u64>() >= delta {
                let child: Vec<_> = slots.iter().map(|&s| partition[s as usize]).collect();
                let child_prefix = prefix.extended(elem);
                self.process_partition(&child_prefix, &child, level + 1, result, carray, slot_of)?;
            }
        }
        Ok(())
    }

    /// The `k = start, start+1, …` (or `start, start+2, …` under bi-level)
    /// DISC loop below the last split, over `(member, weight)` pairs.
    /// `seeds` holds the ascending frequent (k-1)-sequences that seed the
    /// first iteration. Patterns reach `result` only from *completed*
    /// discovery calls, so an abort mid-discovery never records unverified
    /// supports; each (k-1)-sorted list moves into `result` once the round
    /// it seeds has completed, or on an abort.
    fn run_disc<'a, S: SeqView<'a>>(
        &self,
        members: &[(S, u64)],
        mut seeds: Seeds,
        result: &mut MiningResult,
        carray: &mut CountingArray,
    ) -> Result<(), AbortReason> {
        let outcome = self.disc_rounds(members, &mut seeds, result, carray);
        seeds.move_into(result);
        outcome
    }

    /// [`Engine::run_disc`]'s rounds; leaves the seeds of the next round
    /// (or of the aborted one) in `seeds`.
    fn disc_rounds<'a, S: SeqView<'a>>(
        &self,
        members: &[(S, u64)],
        seeds: &mut Seeds,
        result: &mut MiningResult,
        carray: &mut CountingArray,
    ) -> Result<(), AbortReason> {
        let (delta, bi_level, guard) = (self.delta, self.config.bi_level, self.guard);
        let weight = weight_of(members);
        while !seeds.patterns.is_empty() && weight >= delta {
            guard.checkpoint()?;
            let out =
                discover_frequent_k_into(members, &seeds.patterns, delta, bi_level, guard, carray)?;
            seeds.move_into(result);
            // Under bi-level, level k is final and level k+1 seeds the next
            // round.
            let (last, next) =
                if bi_level { (out.freq_k, out.freq_k1) } else { (vec![], out.freq_k) };
            for (p, s) in last {
                guard.note_pattern()?;
                result.insert(p, s);
            }
            seeds.note(guard, next)?;
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

    /// Every DISC miner over `db` at `delta`, each against `BruteForce`.
    fn assert_every_disc_miner_matches(db: &SequenceDatabase, delta: u64) -> MiningResult {
        let expected = BruteForce::default().mine(db, MinSupport::Count(delta));
        let miners: Vec<Box<dyn SequentialMiner>> = vec![
            Box::new(DiscAll::default()),
            Box::new(DiscAll::without_bi_level()),
            Box::new(crate::DynamicDiscAll::default()),
            Box::new(crate::DynamicDiscAll::with_gamma(0.0)),
            Box::new(crate::ParallelDiscAll::with_threads(2)),
        ];
        for miner in miners {
            let diff = miner.mine(db, MinSupport::Count(delta)).diff(&expected);
            assert!(diff.is_empty(), "{} δ={delta}:\n{}", miner.name(), diff.join("\n"));
        }
        let weighted = crate::weighted::WeightedDatabase::uniform(db.clone());
        let diff = crate::WeightedDisc::default().mine(&weighted, delta).diff(&expected);
        assert!(diff.is_empty(), "weighted δ={delta}:\n{}", diff.join("\n"));
        expected
    }

    #[test]
    fn an_all_infrequent_database_mines_to_nothing() {
        let db = SequenceDatabase::from_parsed(&["(a,b)(c)", "(d)(e,f)", "(g)"]).unwrap();
        assert!(assert_every_disc_miner_matches(&db, 2).is_empty());
    }

    #[test]
    fn projected_rows_mine_from_their_shifted_minimum_points() {
        // Most occurrences are non-frequent, so the engine mines the
        // projection; the leading transactions of rows 0 and 1 empty in
        // it, and row 3 empties entirely.
        let db = SequenceDatabase::from_parsed(&[
            "(p,q,r,s)(a,b)(t)(c)",
            "(u,v)(a)(b,c)(w)",
            "(a,b)(x)(c)",
            "(y,z)",
        ])
        .unwrap();
        let result = assert_every_disc_miner_matches(&db, 2);
        assert_eq!(result.support_of(&parse_sequence("(a,b)(c)").unwrap()), Some(2));
        assert_eq!(result.support_of(&parse_sequence("(a)(c)").unwrap()), Some(3));
    }
}
