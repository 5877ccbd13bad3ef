//! **Resumable guarded mining**: durable checkpoints at first-level
//! partition boundaries, and a wrapper that continues an interrupted run to
//! a result bit-identical to an uninterrupted one.
//!
//! ## Boundary-consistent snapshots
//!
//! A [`CheckpointSink`] rides along a mining run and observes every
//! **first-level partition boundary** — after the frequent 1-sequences, and
//! after each `<(λ)>`-partition completes. At those points the accumulated
//! [`MiningResult`] is exactly the union of the finished partitions'
//! disjoint pattern sets (see `parallel.rs` for why first-level partitions
//! are independent), and the scheduled snapshots (every `n`-th boundary)
//! are taken exactly there. Snapshots are built lazily, only when one is
//! actually persisted — observing a skipped boundary costs a counter
//! update, not a pattern-set clone. A cooperative abort (budget, deadline,
//! cancellation) flushes the *current* state: the completed partitions'
//! full sets plus whatever sound prefix the in-flight partition had emitted
//! (every reported pattern is genuinely frequent with its exact support).
//! The done-list never includes the in-flight partition, so resume re-mines
//! it in full and re-inserts those patterns idempotently. A hard kill
//! simply leaves the last snapshot that reached disk.
//!
//! ## Resume invariants
//!
//! Snapshots record item ids of the loaded database's compacted columns
//! ([`FlatFileContents`]), which are a function of the source database, and
//! are keyed by its fingerprint in original ids.
//!
//! Resume validates the snapshot's database fingerprint and resolved δ,
//! seeds the saved patterns and guard spend, skips the completed partitions
//! (every partition's member list is built from the database alone, so a
//! skipped one leaves later partitions nothing to make up), and re-mines
//! the interrupted partition from scratch. Because partition pattern sets are
//! disjoint and [`MiningResult::insert`] cross-checks supports on overlap,
//! the completed result is **bit-identical** to an uninterrupted run — the
//! recovery matrix in `tests/checkpoint_recovery.rs` asserts this for every
//! miner at every injected crash point.

use disc_core::checkpoint::{self, read_snapshot, CheckpointError, MiningSnapshot, SnapshotHeader};
use disc_core::{
    durable, run_guarded, AbortReason, FlatDb, FlatFileContents, GuardedResult, Item, ItemMapping,
    MinSupport, MineGuard, MiningResult, SequenceDatabase, SequentialMiner,
};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// File name a [`Resumable`] miner uses inside its checkpoint directory.
pub const CHECKPOINT_FILE: &str = "mine.dscck";

/// Write-side counters of one checkpointed run, for overhead accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Durable snapshot writes performed.
    pub writes: u64,
    /// Partition boundaries observed (writes ≤ boundaries when snapshotting
    /// every n-th boundary).
    pub boundaries: u64,
    /// Total bytes written across all snapshots.
    pub bytes: u64,
    /// Wall-clock time spent encoding + fsyncing + renaming.
    pub write_time: Duration,
    /// Whether a write failed; the sink stops writing after the first
    /// failure (mining continues, durability degrades — never the reverse).
    pub failed: bool,
}

/// The per-run checkpoint writer. Miners call it at partition boundaries;
/// it decides when to persist, performs the atomic write protocol, and
/// consults the guard's `FaultPlan` (fault-injection builds) for injected
/// crashes.
pub struct CheckpointSink<'g> {
    guard: &'g MineGuard,
    path: PathBuf,
    every: u64,
    header: SnapshotHeader,
    /// Completed first-level partition keys, ascending.
    done: Vec<u32>,
    /// Whether a boundary has been observed since the last persisted
    /// snapshot — i.e. whether a flush would write anything new.
    dirty: bool,
    stats: CheckpointStats,
}

impl<'g> CheckpointSink<'g> {
    fn new(
        path: PathBuf,
        every: u64,
        guard: &'g MineGuard,
        header: SnapshotHeader,
        resume: Option<&MiningSnapshot>,
    ) -> CheckpointSink<'g> {
        if let Some(dir) = path.parent() {
            // A missing directory surfaces at the first write, not here.
            let _ = durable::create_dir_all(dir);
        }
        CheckpointSink {
            guard,
            path,
            every: every.max(1),
            header,
            done: resume.map(|s| s.done.clone()).unwrap_or_default(),
            dirty: false,
            stats: CheckpointStats::default(),
        }
    }

    /// Whether the `<(λ)>`-partition completed in a previous (resumed) run
    /// and must be skipped.
    pub(crate) fn is_done(&self, lambda: Item) -> bool {
        self.done.binary_search(&lambda.id()).is_ok()
    }

    /// The level-1 boundary: the frequent 1-sequences are in `result`.
    pub(crate) fn level_one(&mut self, result: &MiningResult) {
        self.boundary(&[], result);
    }

    /// One `<(λ)>`-partition completed with `result` holding every pattern
    /// of the finished partitions.
    pub(crate) fn partition_done(&mut self, lambda: Item, result: &MiningResult) {
        self.boundary(&[lambda], result);
    }

    /// Several partitions completed at once (the parallel miner's merge
    /// point). Always persists — this is the run's last boundary.
    pub(crate) fn partitions_done(&mut self, lambdas: &[Item], result: &MiningResult) {
        self.boundary(lambdas, result);
        self.flush(result);
    }

    /// Persists the current state if any boundary passed since the last
    /// write. Called on abort (so the freshest durable state survives a
    /// cooperative stop) and at the end of a complete run (so the final
    /// snapshot marks every partition done). Mid-partition, `result` may
    /// hold a sound prefix of the in-flight partition on top of the last
    /// boundary — see the module docs for why resume stays bit-identical.
    pub(crate) fn flush(&mut self, result: &MiningResult) {
        if self.dirty {
            self.persist_now(result);
        }
    }

    fn boundary(&mut self, newly_done: &[Item], result: &MiningResult) {
        for lambda in newly_done {
            let id = lambda.id();
            if let Err(at) = self.done.binary_search(&id) {
                self.done.insert(at, id);
            }
        }
        self.stats.boundaries += 1;
        self.dirty = true;
        if self.stats.boundaries.is_multiple_of(self.every) {
            self.persist_now(result);
        }
    }

    /// Persists the current state. Encoding streams straight out of the
    /// live result — an actual write costs one encode plus the durable IO,
    /// never a deep clone of the pattern set, and a skipped boundary costs
    /// only a counter update.
    fn persist_now(&mut self, result: &MiningResult) {
        self.dirty = false;

        if self.stats.failed {
            return;
        }
        let write_n = self.stats.writes + 1;
        let fault = self.guard.io_write_fault(disc_core::IoWriter::Checkpoint, write_n);
        let stats = self.guard.stats();
        let start = Instant::now();
        let written = checkpoint::write_snapshot(
            &self.path,
            &self.header,
            &self.done,
            result.iter(),
            stats.ops,
            stats.patterns as u64,
            fault,
        );
        if let Some(crash) = fault.filter(|f| f.is_crash()) {
            // The write left on disk what a kill at this point would; now
            // the process "dies" (a panic the guard contains).
            panic!("injected crash at snapshot write {write_n}: {crash:?}");
        }
        match written {
            Ok(bytes) => {
                self.stats.writes = write_n;
                self.stats.bytes += bytes as u64;
                self.stats.write_time += start.elapsed();
            }
            Err(_) => {
                // Durability degrades, mining does not: stop writing and
                // report through the stats, never corrupt or abort the run.
                self.stats.failed = true;
            }
        }
    }
}

/// A DISC miner: one cooperative core over a [`FlatDb`], with an optional
/// [`CheckpointSink`] riding along. Implemented by
/// [`DiscAll`](crate::DiscAll), [`DynamicDiscAll`](crate::DynamicDiscAll)
/// and [`ParallelDiscAll`](crate::ParallelDiscAll), whose cores are one
/// partition engine ([`crate::disc_all`]): the sequential miners run its
/// whole walk under their split policies, and the parallel miner runs its
/// first-level step once per shard. Every other way in —
/// [`SequentialMiner`] on a nested database, [`Resumable`] runs — ends here.
pub trait Checkpointable: SequentialMiner {
    /// `(miner code, bi_level, threads)` recorded in snapshot headers.
    fn provenance(&self) -> (u8, bool, u32);

    /// The algorithm: mines `flat` at the resolved support count `delta`
    /// into `result`, checkpointing through `guard` and reporting
    /// partition boundaries to `sink`.
    fn mine_flat_into(
        &self,
        flat: &FlatDb,
        delta: u64,
        guard: &MineGuard,
        result: &mut MiningResult,
        sink: Option<&mut CheckpointSink<'_>>,
    ) -> Result<(), AbortReason>;

    /// Mines `flat` under `guard` — identical output to
    /// [`SequentialMiner::mine_guarded`] on the database the columns came
    /// from, in the item ids the columns store.
    fn mine_flat_guarded(
        &self,
        flat: &FlatDb,
        min_support: MinSupport,
        guard: &MineGuard,
    ) -> GuardedResult {
        let delta = min_support.resolve(flat.len());
        run_guarded(guard, |result| self.mine_flat_into(flat, delta, guard, result, None))
    }
}

impl<M: Checkpointable + ?Sized> Checkpointable for Box<M> {
    fn provenance(&self) -> (u8, bool, u32) {
        (**self).provenance()
    }

    fn mine_flat_into(
        &self,
        flat: &FlatDb,
        delta: u64,
        guard: &MineGuard,
        result: &mut MiningResult,
        sink: Option<&mut CheckpointSink<'_>>,
    ) -> Result<(), AbortReason> {
        (**self).mine_flat_into(flat, delta, guard, result, sink)
    }
}

/// Runs `mine` on `db` flattened, rows in database order. The cores size
/// their counting arrays by the largest item id, so a sparse id space is
/// flattened onto compact ids first (when [`ItemMapping::is_worthwhile`])
/// and the result, complete or partial, is translated back. Ids all below
/// [`ItemMapping::WORTHWHILE_MIN_MAX_ID`] skip the analysis.
pub(crate) fn mine_on_flat(
    db: &SequenceDatabase,
    mine: impl FnOnce(&FlatDb) -> GuardedResult,
) -> GuardedResult {
    let max_item = db.max_item();
    if might_compact(max_item) {
        let mapping = ItemMapping::analyze(db);
        if mapping.is_worthwhile() {
            let flat = FlatDb::from_database_compacted(db, &mapping);
            let run = mine(&flat);
            return GuardedResult { result: mapping.restore_result(&run.result), ..run };
        }
    }
    mine(&FlatDb::from_arena(FlatDb::arena_of(db), max_item))
}

/// Whether a database whose largest id is `max_item` can be worth
/// compacting; false means [`ItemMapping::is_worthwhile`] is false too.
fn might_compact(max_item: Option<Item>) -> bool {
    max_item.is_some_and(|max| max.id() >= ItemMapping::WORTHWHILE_MIN_MAX_ID)
}

/// A checkpointing wrapper around a [`Checkpointable`] miner.
///
/// Every guarded run writes durable snapshots of its progress into the
/// configured directory, and **auto-resumes**: when the directory already
/// holds a valid snapshot for the same database and δ, completed partitions
/// are skipped and their patterns seeded. An invalid, torn, or foreign
/// snapshot is ignored (mining starts fresh and atomically replaces it);
/// the explicit [`Resumable::resume_from`] entry point instead surfaces the
/// typed rejection.
pub struct Resumable<M> {
    miner: M,
    dir: PathBuf,
    every: u64,
    name: String,
    last_stats: Cell<CheckpointStats>,
}

impl<M: Checkpointable> Resumable<M> {
    /// Wraps `miner`, checkpointing into `dir` (created on first write).
    pub fn new(miner: M, dir: impl Into<PathBuf>) -> Resumable<M> {
        let name = format!("{} +checkpoint", miner.name());
        Resumable {
            miner,
            dir: dir.into(),
            every: 1,
            name,
            last_stats: Cell::new(Default::default()),
        }
    }

    /// Persists only every `every`-th boundary (default 1 — every boundary).
    /// Lower durability, lower overhead; an abort still flushes the freshest
    /// boundary.
    pub fn with_every(mut self, every: u64) -> Resumable<M> {
        self.every = every.max(1);
        self
    }

    /// The snapshot file this wrapper reads and writes.
    pub fn checkpoint_path(&self) -> PathBuf {
        self.dir.join(CHECKPOINT_FILE)
    }

    /// Write-side counters of the most recent run.
    pub fn last_stats(&self) -> CheckpointStats {
        self.last_stats.get()
    }

    /// Mines a loaded database, auto-resuming: a valid snapshot for this
    /// (source fingerprint, δ) continues; anything else — missing, torn,
    /// stale, foreign — starts fresh and is atomically replaced at the first
    /// boundary. Patterns come back in the ids the columns store; translate
    /// them with [`FlatFileContents::restore`].
    ///
    /// Snapshots hold the loaded database's compact ids, which are a
    /// function of its source fingerprint — so every input of the same
    /// database, text or `.dscfd`, resumes the same snapshots.
    pub fn mine_loaded(
        &self,
        db: &FlatFileContents,
        min_support: MinSupport,
        guard: &MineGuard,
    ) -> GuardedResult {
        let delta = min_support.resolve(db.flat.len());
        let resume = read_snapshot(&self.checkpoint_path())
            .ok()
            .filter(|snap| snap.validate(db.fingerprint, db.flat.len(), delta).is_ok());
        self.run_with(&db.flat, db.fingerprint, delta, guard, resume)
    }

    /// Resumes a loaded database explicitly from the snapshot file at
    /// `path`, validating it against the source fingerprint and the run's
    /// resolved δ. Typed rejection on a missing, torn, corrupted,
    /// stale-version, or foreign snapshot — a damaged file is never
    /// partially loaded. Patterns come back in stored ids, as from
    /// [`Resumable::mine_loaded`].
    pub fn resume_loaded_from(
        &self,
        path: &Path,
        db: &FlatFileContents,
        min_support: MinSupport,
        guard: &MineGuard,
    ) -> Result<GuardedResult, CheckpointError> {
        let delta = min_support.resolve(db.flat.len());
        let snap = read_snapshot(path)?;
        snap.validate(db.fingerprint, db.flat.len(), delta)?;
        Ok(self.run_with(&db.flat, db.fingerprint, delta, guard, Some(snap)))
    }

    /// [`Resumable::resume_loaded_from`] on a nested database, loaded once;
    /// patterns come back in its own ids.
    pub fn resume_from(
        &self,
        path: &Path,
        db: &SequenceDatabase,
        min_support: MinSupport,
        guard: &MineGuard,
    ) -> Result<GuardedResult, CheckpointError> {
        let loaded = FlatFileContents::from_database(db);
        let run = self.resume_loaded_from(path, &loaded, min_support, guard)?;
        Ok(GuardedResult { result: loaded.restore(run.result), ..run })
    }

    /// The one core behind every entry point.
    fn run_with(
        &self,
        flat: &FlatDb,
        fingerprint: u64,
        delta: u64,
        guard: &MineGuard,
        resume: Option<MiningSnapshot>,
    ) -> GuardedResult {
        let (miner, bi_level, threads) = self.miner.provenance();
        let header = SnapshotHeader {
            fingerprint,
            rows: flat.len() as u64,
            delta,
            miner,
            bi_level,
            threads,
        };
        let path = self.checkpoint_path();
        let mut sink =
            CheckpointSink::new(path.clone(), self.every, guard, header, resume.as_ref());
        let sink_ref = &mut sink;
        let mut run = run_guarded(guard, |result| {
            if let Some(snap) = &resume {
                // Restore the boundary's spend and patterns. Conservative:
                // work the resumed run re-derives (frequent 1-sequences, the
                // interrupted partition) is charged again, so budgets are
                // never under-counted across a crash.
                guard.charge(snap.ops)?;
                for (pattern, support) in &snap.patterns {
                    guard.note_pattern()?;
                    result.insert(pattern.clone(), *support);
                }
            }
            let mined = self.miner.mine_flat_into(flat, delta, guard, result, Some(&mut *sink_ref));
            // Cooperative abort: make the freshest state durable so a later
            // resume (or a fallback stage) picks it up. Completion: make the
            // final all-done snapshot durable even when `every` skipped it.
            sink_ref.flush(result);
            mined
        });
        self.last_stats.set(sink.stats);
        if path.exists() {
            run.checkpoint = Some(path);
        }
        run
    }
}

impl<M: Checkpointable> SequentialMiner for Resumable<M> {
    fn name(&self) -> &str {
        &self.name
    }

    /// [`Resumable::mine_loaded`] on a nested database, loaded once;
    /// patterns come back in its own ids.
    fn mine_guarded(
        &self,
        db: &SequenceDatabase,
        min_support: MinSupport,
        guard: &MineGuard,
    ) -> GuardedResult {
        let loaded = FlatFileContents::from_database(db);
        let run = self.mine_loaded(&loaded, min_support, guard);
        GuardedResult { result: loaded.restore(run.result), ..run }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiscAll, DynamicDiscAll, ParallelDiscAll};
    use disc_core::{database_fingerprint, peek_progress};
    use disc_core::{CancelToken, MineOutcome, ResourceBudget};
    use std::fs;

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

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("disc-resume-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn compaction_shortcut_agrees_with_the_analysis_at_its_boundary() {
        use disc_core::{BruteForce, Itemset, Sequence};
        let set = |ids: &[u32]| Itemset::new(ids.iter().map(|&i| Item(i))).unwrap();
        for (hi, worthwhile) in [(1023, false), (1024, true)] {
            let db = SequenceDatabase::from_sequences([
                Sequence::new([set(&[0]), set(&[hi])]),
                Sequence::new([set(&[0, hi])]),
                Sequence::new([set(&[hi]), set(&[0]), set(&[hi])]),
            ]);
            assert_eq!(ItemMapping::analyze(&db).is_worthwhile(), worthwhile, "ids {{0, {hi}}}");
            assert_eq!(might_compact(db.max_item()), worthwhile, "ids {{0, {hi}}}");
            let mined = DiscAll::default().mine(&db, MinSupport::Count(2));
            assert_eq!(
                mined,
                BruteForce::default().mine(&db, MinSupport::Count(2)),
                "ids {{0, {hi}}}"
            );
        }
    }

    #[test]
    fn checkpointed_complete_run_matches_plain() {
        let db = table6();
        let dir = fresh_dir("complete");
        let wrapped = Resumable::new(DiscAll::default(), &dir);
        let plain = DiscAll::default().mine(&db, MinSupport::Count(3));
        let got = wrapped.mine(&db, MinSupport::Count(3));
        assert!(got.diff(&plain).is_empty());
        let stats = wrapped.last_stats();
        assert!(stats.writes > 0, "a checkpointed run must persist boundaries");
        assert!(!stats.failed);
        // The final snapshot on disk marks every frequent partition done and
        // carries the full pattern set.
        let snap = read_snapshot(&wrapped.checkpoint_path()).unwrap();
        assert_eq!(snap.patterns.len(), plain.len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_abort_then_auto_resume_is_bit_identical() {
        let db = table6();
        let dir = fresh_dir("budget");
        let reference = DiscAll::default().mine(&db, MinSupport::Count(2));
        let wrapped = Resumable::new(DiscAll::default(), &dir);

        // Starve the first attempt so it aborts somewhere mid-run.
        let budget = ResourceBudget::unlimited().with_max_ops(60);
        let guard = MineGuard::new(CancelToken::new(), budget).with_checkpoint_interval(1);
        let first = wrapped.mine_guarded(&db, MinSupport::Count(2), &guard);
        assert_eq!(first.outcome, MineOutcome::Partial { reason: AbortReason::BudgetExhausted });
        assert_eq!(first.checkpoint, Some(wrapped.checkpoint_path()));

        // Auto-resume with room to finish: bit-identical to uninterrupted.
        let second = wrapped.mine_guarded(&db, MinSupport::Count(2), &MineGuard::unlimited());
        assert!(second.outcome.is_complete());
        assert!(second.result.diff(&reference).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn progress_peek_tracks_boundaries_without_decoding_patterns() {
        let db = table6();
        let dir = fresh_dir("progress");
        let wrapped = Resumable::new(DiscAll::default(), &dir);
        assert!(
            matches!(
                peek_progress(&wrapped.checkpoint_path()),
                Err(CheckpointError::Missing { .. })
            ),
            "no boundary reached yet — progress must be a typed miss"
        );

        // Starve a run so it checkpoints partway, then peek.
        let budget = ResourceBudget::unlimited().with_max_ops(60);
        let guard = MineGuard::new(CancelToken::new(), budget).with_checkpoint_interval(1);
        let first = wrapped.mine_guarded(&db, MinSupport::Count(2), &guard);
        assert_eq!(first.outcome, MineOutcome::Partial { reason: AbortReason::BudgetExhausted });
        let partial = peek_progress(&wrapped.checkpoint_path()).unwrap();
        let full = read_snapshot(&wrapped.checkpoint_path()).unwrap();
        assert_eq!(partial.header.fingerprint, full.header.fingerprint);
        assert_eq!(partial.header.delta, full.header.delta);
        assert_eq!(partial.done_partitions, full.done.len() as u64);
        assert_eq!(partial.patterns, full.patterns.len() as u64);
        assert_eq!(partial.ops, full.ops);

        // Finishing the run advances the peeked progress monotonically.
        let run = wrapped.mine_guarded(&db, MinSupport::Count(2), &MineGuard::unlimited());
        assert!(run.outcome.is_complete());
        let done = peek_progress(&wrapped.checkpoint_path()).unwrap();
        assert!(done.done_partitions >= partial.done_partitions);
        assert!(done.patterns >= partial.patterns);
        assert_eq!(done.patterns, run.result.len() as u64);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_cancellation_chains_converge() {
        // Cancel harder and harder; each resumed attempt keeps the previous
        // boundary. A final unconstrained attempt completes identically.
        let db = table6();
        let dir = fresh_dir("chain");
        let reference = ParallelDiscAll::with_threads(2).mine(&db, MinSupport::Count(2));
        let wrapped = Resumable::new(ParallelDiscAll::with_threads(2), &dir);
        for max_ops in [40u64, 80, 120] {
            let budget = ResourceBudget::unlimited().with_max_ops(max_ops);
            let guard = MineGuard::new(CancelToken::new(), budget).with_checkpoint_interval(1);
            let _ = wrapped.mine_guarded(&db, MinSupport::Count(2), &guard);
        }
        let run = wrapped.mine_guarded(&db, MinSupport::Count(2), &MineGuard::unlimited());
        assert!(run.outcome.is_complete());
        assert!(run.result.diff(&reference).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_snapshot_is_ignored_by_auto_resume() {
        let other = SequenceDatabase::from_parsed(&["(a)(b)", "(a)(b)"]).unwrap();
        let db = table6();
        let dir = fresh_dir("foreign");

        // Write a snapshot for a different database into the directory.
        let wrapped_other = Resumable::new(DiscAll::default(), &dir);
        wrapped_other.mine(&other, MinSupport::Count(2));

        // Mining table 6 in the same directory starts fresh and replaces it.
        let wrapped = Resumable::new(DiscAll::default(), &dir);
        let reference = DiscAll::default().mine(&db, MinSupport::Count(3));
        let got = wrapped.mine(&db, MinSupport::Count(3));
        assert!(got.diff(&reference).is_empty());
        let snap = read_snapshot(&wrapped.checkpoint_path()).unwrap();
        snap.validate(database_fingerprint(&db), db.len(), 3).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn explicit_resume_rejects_a_foreign_snapshot() {
        let other = SequenceDatabase::from_parsed(&["(a)(b)", "(a)(b)"]).unwrap();
        let db = table6();
        let dir = fresh_dir("reject");
        let wrapped = Resumable::new(DiscAll::default(), &dir);
        wrapped.mine(&other, MinSupport::Count(2));
        let err = wrapped
            .resume_from(
                &wrapped.checkpoint_path(),
                &db,
                MinSupport::Count(3),
                &MineGuard::unlimited(),
            )
            .unwrap_err();
        assert!(matches!(err, CheckpointError::FingerprintMismatch { .. }));
        // And a wrong δ for the right database.
        wrapped.mine(&db, MinSupport::Count(3));
        let err = wrapped
            .resume_from(
                &wrapped.checkpoint_path(),
                &db,
                MinSupport::Count(2),
                &MineGuard::unlimited(),
            )
            .unwrap_err();
        assert!(matches!(err, CheckpointError::DeltaMismatch { .. }));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_n_reduces_writes_but_not_correctness() {
        let db = table6();
        let dir = fresh_dir("every");
        let reference = DynamicDiscAll::default().mine(&db, MinSupport::Count(2));
        let wrapped = Resumable::new(DynamicDiscAll::default(), &dir).with_every(4);
        let got = wrapped.mine(&db, MinSupport::Count(2));
        assert!(got.diff(&reference).is_empty());
        let stats = wrapped.last_stats();
        assert!(stats.writes < stats.boundaries, "every=4 must skip boundaries");
        let _ = fs::remove_dir_all(&dir);
    }
}
