//! # disc-algo
//!
//! The DISC strategy and the **DISC-all** / **Dynamic DISC-all** miners from
//! *"An Efficient Algorithm for Mining Frequent Sequences by a New Strategy
//! without Support Counting"* (Chiu, Wu, Chen — ICDE 2004).
//!
//! ## The DISC strategy in one paragraph
//!
//! Sort the customer sequences of a partition by their *k-minimum
//! subsequences* (the smallest k-subsequence in the paper's comparative
//! order). Read the key at position 1 (`α₁`) and at position δ (`α_δ`). If
//! they are equal, `α₁` is frequent — at least δ customers have it as their
//! minimum, and every customer containing it keys exactly on it, so the
//! bucket size is its exact support (Lemma 2.1). If they differ, *every*
//! k-sequence in `[α₁, α_δ)` is non-frequent and is skipped wholesale
//! (Lemma 2.2). Either way, the affected customers are re-keyed to their
//! *conditional* k-minimum subsequence (the smallest one past the bound) and
//! the scan repeats. No candidate generation, no support counting for
//! non-frequent sequences.
//!
//! ## Crate layout
//!
//! | module | paper artifact |
//! |---|---|
//! | [`counting`] | the counting array of §3.1 (Figures 3 and 7) |
//! | [`kms`] | Apriori-KMS (Figure 5) |
//! | [`ckms`] | Apriori-CKMS (Figure 6) |
//! | [`sorted_db`] | the k-sorted database (§3.2): weighted buckets in an ordered map, in place of the locative AVL tree |
//! | [`discovery`] | frequent k-sequence discovery (Figure 4) + the bi-level optimization |
//! | [`partition`] | multi-level partitioning, reduction, member lists by transposition (the reassignment chains of §3.1) |
//! | [`disc_all`] | the partition engine every DISC miner runs; DISC-all (Figure 2) is its fixed two-level split policy |
//! | [`parallel`] | DISC-all with the engine's first-level step sharded across a thread pool |
//! | [`dynamic`] | Dynamic DISC-all (Appendix): the engine with the NRR split policy |
//! | [`resume`] | durable checkpoint/resume at first-level partition boundaries |
//! | [`stats`] | the NRR metric of §4.2 (Tables 12 and 14) |
//! | [`weighted`] | the §5 future-work extension: weighted sequence mining on the partition engine |
//!
//! ## Quick example
//!
//! ```
//! use disc_core::{SequenceDatabase, MinSupport, SequentialMiner, parse_sequence};
//! use disc_algo::DiscAll;
//!
//! // Table 1 of the paper, δ = 2.
//! let db = SequenceDatabase::from_parsed(&[
//!     "(a,e,g)(b)(h)(f)(c)(b,f)",
//!     "(b)(d,f)(e)",
//!     "(b,f,g)",
//!     "(f)(a,g)(b,f,h)(b,f)",
//! ]).unwrap();
//!
//! let result = DiscAll::default().mine(&db, MinSupport::Count(2));
//! assert_eq!(result.support_of(&parse_sequence("(a,g)(b)(f)").unwrap()), Some(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ckms;
pub mod counting;
pub mod disc_all;
pub mod discovery;
pub mod dynamic;
pub mod kms;
pub mod parallel;
pub mod partition;
pub mod resume;
pub mod sorted_db;
pub mod stats;
pub mod weighted;

pub use disc_all::{DiscAll, DiscConfig};
pub use dynamic::{DynamicDiscAll, SplitPolicy};
pub use parallel::ParallelDiscAll;
pub use resume::{CheckpointSink, CheckpointStats, Checkpointable, Resumable, CHECKPOINT_FILE};
pub use stats::nrr_by_level;
pub use weighted::{WeightedDatabase, WeightedDisc};
