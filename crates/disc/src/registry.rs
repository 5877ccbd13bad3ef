//! The algorithm registry: the one table from an algorithm's name to its
//! miner and to what that miner supports. `disc-mine --algo`, the server's
//! `algo=`, job manifests and cache keys, `disc_miner::all_miners` and the
//! contract tests all read [`ALGORITHMS`]; nothing else maps a name to a
//! miner.

use crate::{Checkpointable, DiscAll, DynamicDiscAll, ParallelDiscAll, Resumable};
use disc_baselines::{Gsp, PrefixSpan, PseudoPrefixSpan, Spade, Spam};
use disc_core::{
    run_guarded, AbortReason, BruteForce, CheckpointError, FallbackMiner, FlatFileContents,
    GuardedResult, MinSupport, MineGuard, SequentialMiner,
};
use std::path::Path;

#[derive(Debug, Clone, Copy)]
enum Kind {
    /// A DISC miner, built from the `--threads` value.
    Disc(fn(Option<usize>) -> Box<dyn Checkpointable>),
    /// A miner of nested databases: a baseline or the oracle.
    Nested(fn() -> Box<dyn SequentialMiner>),
    /// A [`FallbackMiner`] chain over [`Algorithm::stages`].
    Chain,
}

/// One algorithm the workspace accepts by name.
#[derive(Debug)]
pub struct Algorithm {
    /// The name `--algo`, `algo=`, manifests and cache keys carry.
    pub name: &'static str,
    /// Mines loaded flat columns, heap or memory-mapped, without a nested
    /// copy. The server serves exactly these entries.
    pub flat: bool,
    /// Writes snapshots at partition boundaries and resumes them
    /// (`--checkpoint-dir`, `--resume`, the server's preemption).
    pub checkpoints: bool,
    /// Takes a worker count (`--threads`).
    pub threads: bool,
    /// The entries a fallback chain runs, in order; empty for one miner.
    pub stages: &'static [&'static str],
    kind: Kind,
}

/// Where a run of loaded columns keeps its snapshots.
#[derive(Debug, Clone, Copy)]
pub enum Checkpoints<'a> {
    /// Nowhere.
    Off,
    /// Every `.1`-th partition boundary into the directory, auto-resuming
    /// a valid snapshot found there ([`Resumable::mine_loaded`]).
    Dir(&'a Path, u64),
    /// Continue from this snapshot file, writing further snapshots next to
    /// it ([`Resumable::resume_loaded_from`]); a missing, damaged or
    /// foreign file is rejected with its typed error.
    ResumeFrom(&'a Path),
}

const fn disc(
    name: &'static str,
    threads: bool,
    build: fn(Option<usize>) -> Box<dyn Checkpointable>,
) -> Algorithm {
    Algorithm { name, flat: true, checkpoints: true, threads, stages: &[], kind: Kind::Disc(build) }
}

const fn nested(name: &'static str, build: fn() -> Box<dyn SequentialMiner>) -> Algorithm {
    let kind = Kind::Nested(build);
    Algorithm { name, flat: false, checkpoints: false, threads: false, stages: &[], kind }
}

/// Every algorithm, in the order usage texts and error messages list them.
pub static ALGORITHMS: [Algorithm; 10] = [
    disc("disc-all", false, |_| Box::new(DiscAll::default())),
    disc("dynamic", false, |_| Box::new(DynamicDiscAll::default())),
    disc("parallel", true, |threads| {
        Box::new(threads.map_or_else(ParallelDiscAll::default, ParallelDiscAll::with_threads))
    }),
    // Dynamic first, then plain DISC-all should it panic or exhaust its
    // budget. Both run one partition engine and differ only in the split
    // policy; on the medium row (table11, 5 000 customers, minsup 0.0025,
    // 54 169 patterns, 2-vCPU Xeon) five alternating `disc-mine` pairs
    // timed Dynamic at 475–609 ms (median 511) and DISC-all at 480–569 ms
    // (median 537), Dynamic faster in 3 of 5: neither order is faster.
    Algorithm {
        name: "auto",
        flat: true,
        checkpoints: true,
        threads: false,
        stages: &["dynamic", "disc-all"],
        kind: Kind::Chain,
    },
    nested("prefixspan", || Box::new(PrefixSpan::default())),
    nested("pseudo", || Box::new(PseudoPrefixSpan::default())),
    nested("gsp", || Box::new(Gsp::default())),
    nested("spade", || Box::new(Spade::default())),
    nested("spam", || Box::new(Spam::default())),
    nested("brute", || Box::new(BruteForce::default())),
];

/// The entry a command or job runs when it names none: `disc-all`.
pub static DEFAULT: &Algorithm = &ALGORITHMS[0];

/// The entry named `name`.
pub fn lookup(name: &str) -> Option<&'static Algorithm> {
    ALGORITHMS.iter().find(|a| a.name == name)
}

/// The names of the entries `keep` selects, in table order, comma-separated.
pub fn names(keep: impl Fn(&Algorithm) -> bool) -> String {
    ALGORITHMS.iter().filter(|a| keep(a)).map(|a| a.name).collect::<Vec<_>>().join(", ")
}

impl Algorithm {
    /// The entry's miner of nested databases; `threads` sizes a
    /// [`ParallelDiscAll`] and is ignored elsewhere.
    pub fn miner(&self, threads: Option<usize>) -> Box<dyn SequentialMiner> {
        match self.kind {
            Kind::Disc(build) => build(threads),
            Kind::Nested(build) => build(),
            Kind::Chain => Box::new(FallbackMiner::new(
                self.stage_entries().map(|stage| stage.miner(threads)).collect(),
            )),
        }
    }

    /// Mines loaded columns under `guard`, in the ids the columns store
    /// (translate with [`FlatFileContents::restore`]). `threads` sizes a
    /// [`ParallelDiscAll`]. An entry that does not checkpoint takes only
    /// [`Checkpoints::Off`]; one that does not mine flat columns mines a
    /// nested copy. Only [`Checkpoints::ResumeFrom`] can return an error.
    pub fn mine_loaded(
        &self,
        loaded: &FlatFileContents,
        min_support: MinSupport,
        guard: &MineGuard,
        threads: Option<usize>,
        checkpoints: Checkpoints<'_>,
    ) -> Result<GuardedResult, CheckpointError> {
        let miner = match self.kind {
            Kind::Disc(build) => build(threads),
            Kind::Nested(build) => {
                return Ok(build().mine_guarded(&loaded.flat.to_database(), min_support, guard));
            }
            Kind::Chain => {
                // Every stage checkpoints into the same place and any DISC
                // miner resumes any snapshot, so a stage picks up what an
                // earlier one wrote. A rejected snapshot ends the chain.
                let stages: Vec<&Algorithm> = self.stage_entries().collect();
                let mut rejected = None;
                let run = FallbackMiner::run_stages(guard, stages.len(), |i, stage| {
                    let run =
                        stages[i].mine_loaded(loaded, min_support, stage, threads, checkpoints);
                    run.unwrap_or_else(|e| {
                        rejected = Some(e);
                        run_guarded(stage, |_| Err(AbortReason::Cancelled))
                    })
                });
                return rejected.map_or(Ok(run), Err);
            }
        };
        match checkpoints {
            Checkpoints::Off => Ok(miner.mine_flat_guarded(&loaded.flat, min_support, guard)),
            Checkpoints::Dir(dir, every) => Ok(Resumable::new(miner, dir)
                .with_every(every)
                .mine_loaded(loaded, min_support, guard)),
            Checkpoints::ResumeFrom(file) => {
                let dir = file.parent().filter(|d| !d.as_os_str().is_empty());
                let resumable = Resumable::new(miner, dir.unwrap_or(Path::new(".")));
                resumable.resume_loaded_from(file, loaded, min_support, guard)
            }
        }
    }

    fn stage_entries(&self) -> impl Iterator<Item = &'static Algorithm> + '_ {
        self.stages.iter().map(|name| lookup(name).expect("a chain stage names a registry entry"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_chains_run_flat_entries() {
        for (i, entry) in ALGORITHMS.iter().enumerate() {
            assert_eq!(lookup(entry.name).map(|e| e.name), Some(entry.name));
            assert!(ALGORITHMS[..i].iter().all(|e| e.name != entry.name), "{}", entry.name);
            let flat_single = |s: &&str| lookup(s).is_some_and(|s| s.flat && s.stages.is_empty());
            assert!(entry.stages.iter().all(flat_single), "{}", entry.name);
        }
        assert_eq!(names(|a| a.flat), "disc-all, dynamic, parallel, auto");
        assert_eq!(names(|a| a.threads), "parallel");
        assert!(lookup("quantum").is_none());
    }
}
