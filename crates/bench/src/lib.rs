//! # disc-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! DISC paper's evaluation (Section 4):
//!
//! | artifact | harness entry |
//! |---|---|
//! | Figure 8 (runtime vs database size) | [`experiments::fig8`] |
//! | Figure 9 (runtime vs minimum support) | [`experiments::fig9`] |
//! | Table 12 (average NRR vs δ) | [`experiments::table12`] |
//! | Table 13 (Pseudo / DISC-all ratio) | [`experiments::table13`] |
//! | Table 14 (average NRR vs θ) | [`experiments::table14`] |
//! | Figure 10 (runtime vs θ) | [`experiments::fig10`] |
//! | parallel scaling (not in the paper) | [`experiments::parallel`] |
//! | ablations: bi-level, γ, partition depth, weights (not in the paper) | [`experiments::ablation`] |
//!
//! Run them through the `experiments` binary:
//!
//! ```text
//! cargo run --release -p disc-bench --bin experiments -- all
//! cargo run --release -p disc-bench --bin experiments -- fig8 --full
//! cargo run --release -p disc-bench --bin experiments -- ablation --smoke
//! ```
//!
//! Default workload sizes are scaled to finish on a laptop (the paper used
//! 50K–500K customers on 2003 hardware); `--full` restores the paper's
//! sizes. The absolute numbers are not comparable to the paper's — the
//! *shape* (who wins, growth trends, crossovers) is what EXPERIMENTS.md
//! tracks.

// `deny` rather than `forbid`: the tracking allocator in [`alloc_track`] is
// the one sanctioned exception (implementing `GlobalAlloc` is inherently
// unsafe), and it carries its own scoped `allow`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

#[allow(unsafe_code)]
pub mod alloc_track;
pub mod experiments;
pub mod report;
pub mod runner;
pub mod workloads;
