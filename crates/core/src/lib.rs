//! # disc-core
//!
//! Data model and shared infrastructure for the reproduction of *"An Efficient
//! Algorithm for Mining Frequent Sequences by a New Strategy without Support
//! Counting"* (Chiu, Wu, Chen — ICDE 2004).
//!
//! This crate defines the problem domain of sequential pattern mining in the
//! Agrawal–Srikant sense:
//!
//! * an [`Item`] is an opaque identifier (e.g. a product);
//! * an [`Itemset`] is a non-empty, duplicate-free, sorted set of items — one
//!   transaction of a customer;
//! * a [`Sequence`] is an ordered list of itemsets — a customer's purchase
//!   history, or a pattern to mine;
//! * a [`SequenceDatabase`] is a collection of customer sequences.
//!
//! On top of the model it provides the machinery every miner in the workspace
//! shares:
//!
//! * the paper's **comparative order** on sequences ([`order`]) — Definitions
//!   2.1 and 2.2, a total order on the flattened `(item, transaction-number)`
//!   representation;
//! * subsequence **containment and leftmost embeddings** ([`embed`]);
//! * reference implementations of the **k-minimum subsequence** operators
//!   ([`kmin`]) — Definitions 2.3 and 2.5 — used as ground truth for the fast
//!   implementations in `disc-algo`;
//! * the [`SequentialMiner`] trait, [`MinSupport`] thresholds, and the
//!   [`MiningResult`] container with exact support counts;
//! * a [`BruteForce`] reference miner used to validate every other algorithm.
//!
//! ## Quick example
//!
//! ```
//! use disc_core::{parse_sequence, SequenceDatabase, MinSupport, SequentialMiner, BruteForce};
//!
//! // Table 1 of the paper.
//! let db = SequenceDatabase::from_parsed(&[
//!     "(a,e,g)(b)(h)(f)(c)(b,f)",
//!     "(b)(d,f)(e)",
//!     "(b,f,g)",
//!     "(f)(a,g)(b,f,h)(b,f)",
//! ]).unwrap();
//!
//! let result = BruteForce::default().mine(&db, MinSupport::Count(2));
//! let pat = parse_sequence("(a,g)(b)(f)").unwrap();
//! assert_eq!(result.support_of(&pat), Some(2));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bruteforce;
pub mod checkpoint;
pub mod codec;
pub mod compact;
pub mod constraints;
pub mod database;
pub mod durable;
pub mod embed;
pub mod error;
pub mod executor;
pub mod flat;
pub mod flatfile;
pub mod guard;
pub mod item;
pub mod itemset;
pub mod kmin;
pub mod miner;
pub mod mmap;
pub mod order;
pub mod parse;
pub mod result;
pub mod sequence;
pub mod storage;
pub mod store;
pub mod support;
pub mod topk;

pub use bruteforce::BruteForce;
pub use checkpoint::{
    database_fingerprint, peek_progress, read_snapshot, write_snapshot, CheckpointError,
    MiningSnapshot, SnapshotHeader, SnapshotProgress,
};
pub use codec::{decode_database, encode_database, CodecError};
pub use compact::ItemMapping;
pub use constraints::TimeConstraints;
pub use database::{CustomerId, CustomerSequence, SequenceDatabase};
pub use durable::{IoFault, IoWriter};
pub use embed::{contains, leftmost_embedding, leftmost_match_end, MatchPoint};
pub use error::{DiscError, ParseError};
pub use executor::{ParallelExecutor, ParallelRun, TaskOutcome};
pub use flat::{flat_pairs, FlatArena, FlatDb, FlatSeq, SeqView};
pub use flatfile::{
    decode_flat_file, encode_database_flat_file, open_flat_file, write_flat_file, FlatFileContents,
    Verify, FLAT_FILE_MAGIC, FLAT_FILE_NAME,
};
#[cfg(any(test, feature = "fault-injection"))]
pub use guard::FaultPlan;
pub use guard::{
    fresh_retry_salt, is_transient_io_kind, is_transient_net_kind, retry_transient, run_guarded,
    AbortReason, BudgetSnapshot, CancelToken, FallbackMiner, GuardStats, GuardedResult, MineGuard,
    MineOutcome, ResourceBudget, RetryPolicy, SharedCounters, StageReport,
};
pub use item::Item;
pub use itemset::{is_sorted_subset, Itemset};
pub use kmin::{all_k_subsequences, min_k_subsequence_naive};
pub use miner::SequentialMiner;
pub use mmap::{Advice, Mmap};
pub use order::{cmp_sequences, cmp_views, differential_point};
pub use parse::{parse_item, parse_sequence};
pub use result::MiningResult;
pub use sequence::{ExtElem, ExtMode, Sequence};
pub use storage::{ColumnWord, DbStorage, MappedCol};
pub use store::fsck::{fsck, FsckReport, SegmentStatus, SnapshotStatus};
pub use store::{
    open_fresh, CompactionReport, RecoveryReport, SequenceStore, StoreConfig, StoreError,
    SyncPolicy,
};
pub use support::{support_count, MinSupport};
pub use topk::TopK;
