//! # disc-miner
//!
//! Frequent sequence mining with the **DISC strategy** — a reproduction of
//! *"An Efficient Algorithm for Mining Frequent Sequences by a New Strategy
//! without Support Counting"* (Chiu, Wu, Chen — ICDE 2004), with the
//! classic baselines, the IBM-Quest-style workload generator, and the
//! paper's full benchmark suite.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`] — the sequence data model, comparative order, and the
//!   [`SequentialMiner`](disc_core::SequentialMiner) interface;
//! * [`algo`] — [`DiscAll`](disc_algo::DiscAll),
//!   [`DynamicDiscAll`](disc_algo::DynamicDiscAll), the sharded
//!   [`ParallelDiscAll`](disc_algo::ParallelDiscAll), and weighted mining
//!   ([`WeightedDisc`](disc_algo::WeightedDisc));
//! * [`baselines`] — PrefixSpan, Pseudo, GSP, SPADE, SPAM;
//! * [`datagen`] — the synthetic customer-sequence generator;
//! * [`server`] — mining-as-a-service: the multi-tenant job server behind
//!   `disc-mine serve`.
//!
//! ## Quickstart
//!
//! ```
//! use disc_miner::prelude::*;
//!
//! let db = SequenceDatabase::from_parsed(&[
//!     "(a,e,g)(b)(h)(f)(c)(b,f)",
//!     "(b)(d,f)(e)",
//!     "(b,f,g)",
//!     "(f)(a,g)(b,f,h)(b,f)",
//! ]).unwrap();
//!
//! let patterns = DiscAll::default().mine(&db, MinSupport::Count(2));
//! for (pattern, support) in patterns.iter() {
//!     println!("{pattern}  [support {support}]");
//! }
//! assert_eq!(patterns.support_of(&parse_sequence("(a,g)(b)(f)").unwrap()), Some(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use disc_algo as algo;
pub use disc_baselines as baselines;
pub use disc_core as core;
pub use disc_datagen as datagen;
pub use disc_server as server;

/// The most common imports in one place.
pub mod prelude {
    pub use disc_algo::{
        nrr_by_level, CheckpointStats, Checkpointable, DiscAll, DiscConfig, DynamicDiscAll,
        ParallelDiscAll, Resumable, WeightedDatabase, WeightedDisc, CHECKPOINT_FILE,
    };
    pub use disc_baselines::{Gsp, PrefixSpan, PseudoPrefixSpan, Spade, Spam};
    pub use disc_core::{
        fsck, parse_sequence, retry_transient, AbortReason, BruteForce, CancelToken,
        CheckpointError, CompactionReport, DiscError, FallbackMiner, FsckReport, GuardStats,
        GuardedResult, Item, Itemset, MinSupport, MineGuard, MineOutcome, MiningResult,
        ParallelExecutor, RecoveryReport, ResourceBudget, RetryPolicy, Sequence, SequenceDatabase,
        SequenceStore, SequentialMiner, StageReport, StoreConfig, StoreError, SyncPolicy, TopK,
    };
    pub use disc_datagen::QuestConfig;
}

/// Every miner of the algorithm registry ([`disc_algo::registry`]), boxed,
/// in registry order.
pub fn all_miners() -> Vec<Box<dyn disc_core::SequentialMiner>> {
    disc_algo::ALGORITHMS.iter().map(|a| a.miner(None)).collect()
}
