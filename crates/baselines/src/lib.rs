//! # disc-baselines
//!
//! From-scratch implementations of the classic sequential-pattern miners the
//! DISC paper compares against or classifies (Table 5):
//!
//! | miner | paper | strategy summary |
//! |---|---|---|
//! | [`PrefixSpan`] | Pei et al., ICDE 2001 | recursive physical database projection |
//! | [`PseudoPrefixSpan`] | ibid. (pseudo-projection) | projection by pivots into the original sequences |
//! | [`Gsp`] | Srikant & Agrawal, EDBT 1996 | level-wise candidate generation + containment scans |
//! | [`Spade`] | Zaki, Machine Learning 2001 | vertical ID-lists with temporal/equality joins |
//! | [`Spam`] | Ayres et al., KDD 2002 | vertical bitmaps with S-/I-step transforms |
//!
//! Every miner implements [`disc_core::SequentialMiner`], returns the
//! complete frequent set with exact supports, and is cross-validated against
//! the brute-force reference (and against DISC-all in the workspace
//! integration tests). The Figure 8–10 benchmarks race them against
//! DISC-all / Dynamic DISC-all.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gsp;
pub mod prefixspan;
pub mod pseudo;
pub mod spade;
pub mod spam;

pub use gsp::Gsp;
pub use prefixspan::PrefixSpan;
pub use pseudo::PseudoPrefixSpan;
pub use spade::Spade;
pub use spam::Spam;
