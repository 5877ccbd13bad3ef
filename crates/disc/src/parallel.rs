//! **Parallel DISC-all**: first-level partitions sharded across a
//! [`ParallelExecutor`] thread pool, with results bit-identical to
//! sequential [`DiscAll`](crate::DiscAll) at any thread count.
//!
//! ## Why first-level partitions shard cleanly
//!
//! In the paper, DISC-all walks first-level partitions in ascending key
//! order and *reassigns* each member to the partition of its next frequent
//! minimum after a partition is processed. The reassignment chain of a row
//! therefore enumerates every frequent item the row contains, in ascending
//! order — so when the `<(λ)>`-partition's turn comes, its member set is
//! exactly **the rows containing λ**. That set is computed up front with
//! one scan (`partition::first_level_members`, which the sequential walk
//! shares), which makes the partitions mutually independent: each shard is
//! one `<(λ)>`-partition with its full supporter set, and no shard needs
//! anything another shard produced.
//!
//! ## Determinism guarantee
//!
//! Every per-shard quantity is a count or a key derived from the shard's
//! member *multiset* (counting arrays sum, DISC buckets key on k-minimum
//! subsequences), never from member order or scheduling; shard outputs are
//! merged in ascending key order; and [`MiningResult`] orders patterns
//! canonically. The merged result — patterns and exact supports — is
//! therefore identical to sequential [`DiscAll`](crate::DiscAll) at 1, 2,
//! 4, 8, … threads, which `tests/parallel_determinism.rs` and CI enforce.
//!
//! Shard pattern sets are disjoint (every pattern found in the
//! `<(λ)>`-partition starts with its minimum item `λ`), so the merge is a
//! union; [`MiningResult::insert`] still cross-checks supports, so a shard
//! disagreeing on a support is caught loudly rather than silently resolved.

use crate::disc_all::{mine_root, Engine, Scratch, DISC_ALL_POLICY};
use crate::partition::{Member, MemberLists};
use crate::resume::{mine_flattened, CheckpointSink, Checkpointable};
use crate::DiscConfig;
use disc_core::{
    checkpoint, AbortReason, FlatDb, GuardedResult, Item, MinSupport, MineGuard, MineOutcome,
    MiningResult, ParallelExecutor, SequenceDatabase, SequentialMiner,
};

#[cfg(feature = "fault-injection")]
use disc_core::FaultPlan;

/// The parallel DISC-all miner: [`DiscAll`](crate::DiscAll) semantics,
/// executed one first-level partition per pool task.
///
/// Implements [`SequentialMiner`] like every other miner — `mine` and
/// `mine_guarded` fan out internally — so it drops into fallback chains,
/// the bench harness, and cross-algorithm tests unchanged. Cancellation,
/// deadlines, and budgets are honored **globally** across workers: the
/// guard's token and deadline clock are shared, and operation/pattern
/// budgets are enforced through run-wide shared counters. A cancelled or
/// aborted parallel run still returns a sound partial subset — completed
/// shards contribute their full pattern sets, aborted shards whatever they
/// had verified, and every reported support is exact.
#[derive(Debug, Clone)]
pub struct ParallelDiscAll {
    /// DISC tuning knobs, shared with the sequential miner.
    pub config: DiscConfig,
    threads: usize,
    name: String,
    /// Panics the worker of shard `.0` at its `.1`-th full checkpoint, for
    /// per-worker panic-isolation tests.
    #[cfg(feature = "fault-injection")]
    shard_panic: Option<(usize, u64)>,
}

impl Default for ParallelDiscAll {
    fn default() -> ParallelDiscAll {
        ParallelDiscAll::with_threads(ParallelExecutor::new().threads())
    }
}

impl ParallelDiscAll {
    /// A parallel miner sized by [`std::thread::available_parallelism`].
    pub fn new() -> ParallelDiscAll {
        ParallelDiscAll::default()
    }

    /// A parallel miner with an explicit worker count (clamped to ≥ 1).
    pub fn with_threads(threads: usize) -> ParallelDiscAll {
        let threads = threads.max(1);
        ParallelDiscAll {
            config: DiscConfig::default(),
            threads,
            name: format!("Parallel DISC-all ×{threads}"),
            #[cfg(feature = "fault-injection")]
            shard_panic: None,
        }
    }

    /// Overrides the DISC configuration (bi-level on/off).
    pub fn with_config(mut self, config: DiscConfig) -> ParallelDiscAll {
        self.config = config;
        self
    }

    /// The worker-thread count this miner fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Injects a deterministic panic into the worker guard of shard
    /// `shard` (0-based, ascending partition-key order) at its
    /// `checkpoint`-th full check — the hook behind the poisoned-shard
    /// isolation tests.
    #[cfg(feature = "fault-injection")]
    pub fn with_shard_panic(mut self, shard: usize, checkpoint: u64) -> ParallelDiscAll {
        self.shard_panic = Some((shard, checkpoint));
        self
    }
}

impl SequentialMiner for ParallelDiscAll {
    fn name(&self) -> &str {
        &self.name
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

impl Checkpointable for ParallelDiscAll {
    fn provenance(&self) -> (u8, bool, u32) {
        (checkpoint::MINER_PARALLEL, self.config.bi_level, self.threads as u32)
    }

    /// The cooperative core; the flat columns (heap or mapped from a
    /// `DSCFD1` file) are shared read-only across every worker thread.
    /// Snapshot boundaries: after the frequent 1-sequences and once at the
    /// merge point, marking every shard whose task completed — so an
    /// aborted parallel run resumes with only the unfinished shards.
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
        // Steps 1–2 (sequential): frequent 1-sequences, the projection and
        // shard membership, in the engine's shared first-level step.
        mine_root(&engine, result, sink, |engine, first_level, result, sink| {
            self.mine_shards(engine, first_level, result, sink)
        })
    }
}

impl ParallelDiscAll {
    /// Steps 3–4: the shards, one per first-level partition — for each
    /// frequent λ, every row of `engine`'s database containing λ, which
    /// every worker borrows read-only — then the merge.
    fn mine_shards(
        &self,
        engine: &Engine<'_>,
        first_level: MemberLists<Item, Member>,
        result: &mut MiningResult,
        sink: Option<&mut CheckpointSink<'_>>,
    ) -> Result<(), AbortReason> {
        // A copy, so the shard body captures only its `Sync` fields.
        let (engine, guard, n_items) = (*engine, engine.guard, engine.n_items());
        // Shards a resumed snapshot marks done are dropped up front; their
        // patterns were seeded from the snapshot.
        let shards: Vec<(Item, &[Member])> = first_level
            .iter()
            .filter(|&(lambda, _)| sink.as_deref().is_none_or(|s| !s.is_done(lambda)))
            .collect();
        let keys: Vec<Item> = shards.iter().map(|(lambda, _)| *lambda).collect();

        // Step 3 (parallel): one first-level partition per pool task — the
        // partition engine's first-level step under DISC-all's policy.
        let executor = ParallelExecutor::with_threads(self.threads);
        let body = |worker: &MineGuard,
                    (lambda, members): (Item, &[Member]),
                    shard_result: &mut MiningResult| {
            let shard = Engine { guard: worker, ..engine };
            shard.process_first_level(lambda, members, shard_result, &mut Scratch::new(n_items))
        };
        #[cfg(feature = "fault-injection")]
        let run = {
            let faults = match self.shard_panic {
                Some((shard, at)) => {
                    let mut faults: Vec<Option<FaultPlan>> =
                        (0..shards.len()).map(|_| None).collect();
                    if let Some(slot) = faults.get_mut(shard) {
                        *slot = Some(FaultPlan::panic_at(at));
                    }
                    faults
                }
                None => Vec::new(),
            };
            executor.run_with_faults(guard, shards, faults, body)
        };
        #[cfg(not(feature = "fault-injection"))]
        let run = executor.run(guard, shards, body);
        // The member lists are done with; the merge below is the run's
        // memory peak.
        drop(first_level);

        // Step 4 (sequential): merge shard results in ascending key order.
        // Shards report disjoint pattern sets keyed on their minimum item;
        // `insert` re-checks supports on overlap, so any reconciliation
        // failure panics instead of corrupting the result. Partial shards
        // contribute too — their outputs are sound subsets by the
        // cooperative mining contract.
        //
        // Completed shards merge first so the boundary snapshot between the
        // two passes is *consistent*: it holds exactly the finished shards'
        // full pattern sets, never a partial shard's fragment.
        let mut completed: Vec<Item> = Vec::new();
        for (i, task) in run.tasks.iter().enumerate() {
            if !task.outcome.is_complete() {
                continue;
            }
            completed.push(keys[i]);
            for (pattern, support) in task.output.iter() {
                guard.note_pattern()?;
                result.insert(pattern.clone(), support);
            }
        }
        if let Some(s) = sink {
            s.partitions_done(&completed, result);
        }
        for task in run.tasks.iter().filter(|t| !t.outcome.is_complete()) {
            for (pattern, support) in task.output.iter() {
                guard.note_pattern()?;
                result.insert(pattern.clone(), support);
            }
        }
        match run.outcome {
            MineOutcome::Complete => Ok(()),
            MineOutcome::Partial { reason } => Err(reason),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::first_level_members;
    use crate::DiscAll;
    use disc_core::BruteForce;

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
    fn shard_membership_is_every_row_containing_the_key() {
        let db = table6();
        let mut freq1 = vec![true; 8];
        freq1[3] = false; // pretend 'd' is non-frequent
        let guard = MineGuard::unlimited();
        let shards = first_level_members(&FlatDb::from_database(&db), &freq1, &guard).unwrap();
        let shard = |letter| shards.iter().find(|(i, _)| i.as_letter() == Some(letter)).unwrap();
        let rows = |letter| shard(letter).1.iter().map(|&(row, _)| row).collect::<Vec<_>>();
        assert_eq!(rows('a'), vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(rows('c'), vec![0, 1, 2, 3, 9]);
        // Each member carries its minimum point: CID 2 = (b)(a)(f)(a,c,e,g)
        // enters the <(a)>-partition at its second transaction.
        assert_eq!(shard('a').1[1], (1, 1));
        assert!(shards.iter().all(|(i, _)| i.as_letter() != Some('d')));
        // Ascending key order — the merge relies on it.
        let keys: Vec<Item> = shards.iter().map(|(i, _)| i).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn matches_sequential_disc_all_on_table_6_at_every_thread_count() {
        let db = table6();
        for delta in 1..=5 {
            let reference = DiscAll::default().mine(&db, MinSupport::Count(delta));
            for threads in [1, 2, 4, 8] {
                let got =
                    ParallelDiscAll::with_threads(threads).mine(&db, MinSupport::Count(delta));
                let diff = got.diff(&reference);
                assert!(diff.is_empty(), "δ={delta} ×{threads}:\n{}", diff.join("\n"));
            }
        }
    }

    #[test]
    fn matches_brute_force_without_bi_level() {
        let db = table6();
        let expected = BruteForce::default().mine(&db, MinSupport::Count(3));
        let got = ParallelDiscAll::with_threads(4)
            .with_config(DiscConfig { bi_level: false })
            .mine(&db, MinSupport::Count(3));
        assert!(got.diff(&expected).is_empty());
    }

    #[test]
    fn empty_database() {
        let result =
            ParallelDiscAll::with_threads(4).mine(&SequenceDatabase::new(), MinSupport::Count(1));
        assert!(result.is_empty());
    }

    #[test]
    fn rethreaded_miners_match_sequential() {
        let db = table6();
        let reference = DiscAll::default().mine(&db, MinSupport::Count(3));
        let got = ParallelDiscAll::with_threads(8).mine(&db, MinSupport::Count(3));
        assert!(got.diff(&reference).is_empty());
        let with_config = ParallelDiscAll::with_threads(4)
            .with_config(DiscAll::default().config)
            .mine(&db, MinSupport::Count(3));
        assert!(with_config.diff(&reference).is_empty());
    }

    #[test]
    fn names_carry_the_thread_count() {
        assert_eq!(ParallelDiscAll::with_threads(4).name(), "Parallel DISC-all ×4");
        assert_eq!(ParallelDiscAll::with_threads(0).threads(), 1);
    }
}
