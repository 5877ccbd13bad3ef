//! The **Dynamic DISC-all** algorithm (paper appendix): DISC-all with one
//! change — each partition decides whether to keep splitting (NRR below the
//! threshold γ) instead of always stopping at level 2.
//!
//! Section 4.2's observation: database partitioning is profitable for
//! partitions with a *low* non-reduction rate (children much smaller than
//! the parent) and pure overhead when the NRR approaches 1 — in the extreme,
//! every child is as large as its parent. The dynamic variant measures the
//! NRR of each partition from its counting-array scan and decides per
//! partition.
//!
//! [`DynamicDiscAll`] runs DISC-all's partition engine
//! ([`crate::disc_all`]) with its own [`SplitPolicy`]; DISC-all is the
//! engine under [`SplitPolicy::FixedDepth`]`(2)`. When a
//! partition is not split, the DISC strategy takes over from the next
//! length: from k = 2 at the root, from k = 3 over the unreduced members of
//! a first-level partition, and from k = j + 2 in a `<π>`-partition with
//! `|π| = j ≥ 2`.

use crate::disc_all::{mine_partitioned, DiscConfig, Engine};
use crate::resume::{mine_flattened, CheckpointSink, Checkpointable};
use disc_core::{
    checkpoint, AbortReason, FlatDb, GuardedResult, MinSupport, MineGuard, MiningResult,
    SequenceDatabase, SequentialMiner,
};

/// When does a partition get split into next-level partitions instead of
/// being handed to the DISC strategy?
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SplitPolicy {
    /// The appendix algorithm: split while `NRR < γ`.
    NrrThreshold(f64),
    /// The generalized static scheme the paper's §3 gestures at ("the
    /// number of levels should be adaptive"): split to a fixed prefix
    /// depth, regardless of NRR. Depth 2 is DISC-all.
    FixedDepth(usize),
}

impl SplitPolicy {
    /// Should the partition at prefix length `level` be split further,
    /// given the supports of its frequent one-item extensions (its child
    /// partitions' sizes) and its own size? Sizes are weights — member
    /// counts in ordinary mining. The supports are read only under
    /// [`SplitPolicy::NrrThreshold`]; a partition without frequent
    /// extensions has no children and is never split by NRR.
    pub(crate) fn split(
        self,
        level: usize,
        ext_supports: impl IntoIterator<Item = u64>,
        partition_weight: u64,
    ) -> bool {
        match self {
            SplitPolicy::NrrThreshold(gamma) => {
                let supports: Vec<u64> = ext_supports.into_iter().collect();
                !supports.is_empty() && nrr(&supports, partition_weight) < gamma
            }
            SplitPolicy::FixedDepth(depth) => level < depth,
        }
    }
}

/// The Dynamic DISC-all miner.
#[derive(Debug, Clone)]
pub struct DynamicDiscAll {
    /// The split policy (γ-threshold per the appendix, or fixed depth).
    pub policy: SplitPolicy,
    /// DISC tuning knobs, shared with [`crate::DiscAll`].
    pub config: DiscConfig,
}

impl Default for DynamicDiscAll {
    /// γ = 0.6 sits between the observed "partitioning pays" (≤ ~0.2) and
    /// "partitioning is overhead" (≥ ~0.8) regimes of Tables 12/14.
    fn default() -> Self {
        DynamicDiscAll { policy: SplitPolicy::NrrThreshold(0.6), config: DiscConfig::default() }
    }
}

impl DynamicDiscAll {
    /// A dynamic miner with an explicit γ.
    pub fn with_gamma(gamma: f64) -> DynamicDiscAll {
        DynamicDiscAll { policy: SplitPolicy::NrrThreshold(gamma), ..DynamicDiscAll::default() }
    }

    /// A miner that always partitions to a fixed prefix depth.
    pub fn with_fixed_depth(depth: usize) -> DynamicDiscAll {
        DynamicDiscAll { policy: SplitPolicy::FixedDepth(depth), ..DynamicDiscAll::default() }
    }
}

/// The NRR of a partition, from its counting-array scan: the mean ratio of
/// child-partition size (= the support of each frequent one-item extension)
/// to the partition's own size.
fn nrr(ext_supports: &[u64], partition_size: u64) -> f64 {
    debug_assert!(!ext_supports.is_empty() && partition_size > 0);
    let sum: f64 = ext_supports.iter().map(|&s| s as f64 / partition_size as f64).sum();
    sum / ext_supports.len() as f64
}

impl SequentialMiner for DynamicDiscAll {
    fn name(&self) -> &str {
        "Dynamic DISC-all"
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

impl Checkpointable for DynamicDiscAll {
    fn provenance(&self) -> (u8, bool, u32) {
        (checkpoint::MINER_DYNAMIC, self.config.bi_level, 1)
    }

    /// The partition engine under this miner's policy, with DISC-all's
    /// checkpoints and snapshot boundaries.
    fn mine_flat_into(
        &self,
        flat: &FlatDb,
        delta: u64,
        guard: &MineGuard,
        result: &mut MiningResult,
        sink: Option<&mut CheckpointSink<'_>>,
    ) -> Result<(), AbortReason> {
        let engine =
            Engine { flat, weights: None, delta, policy: self.policy, config: self.config, guard };
        mine_partitioned(&engine, result, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiscAll;
    use disc_core::BruteForce;

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

    #[test]
    fn every_gamma_matches_brute_force() {
        // γ = 0.0 never partitions (pure DISC from the root); γ = 2.0 always
        // partitions (pure counting-array recursion); the default mixes.
        for db in [table1(), table6()] {
            for delta in 1..=4u64 {
                let expected = BruteForce::default().mine(&db, MinSupport::Count(delta));
                for gamma in [0.0, 0.3, 0.6, 2.0] {
                    let got = DynamicDiscAll::with_gamma(gamma).mine(&db, MinSupport::Count(delta));
                    let diff = got.diff(&expected);
                    assert!(diff.is_empty(), "γ={gamma} δ={delta}:\n{}", diff.join("\n"));
                }
            }
        }
    }

    #[test]
    fn bi_level_toggle_matches_too() {
        let db = table6();
        let expected = BruteForce::default().mine(&db, MinSupport::Count(3));
        let miner = DynamicDiscAll {
            policy: SplitPolicy::NrrThreshold(0.5),
            config: DiscConfig { bi_level: false },
        };
        let got = miner.mine(&db, MinSupport::Count(3));
        assert!(got.diff(&expected).is_empty());
    }

    #[test]
    fn fixed_depth_policies_match_brute_force() {
        for db in [table1(), table6()] {
            for delta in 1..=4u64 {
                let expected = BruteForce::default().mine(&db, MinSupport::Count(delta));
                for depth in [0usize, 1, 2, 3, 8] {
                    let got =
                        DynamicDiscAll::with_fixed_depth(depth).mine(&db, MinSupport::Count(delta));
                    let diff = got.diff(&expected);
                    assert!(diff.is_empty(), "depth={depth} δ={delta}:\n{}", diff.join("\n"));
                }
            }
        }
    }

    #[test]
    fn fixed_depth_two_is_disc_all_step_for_step() {
        // DISC-all is the partition engine under FixedDepth(2): the same
        // patterns and supports, and the same guard charges along the way.
        for db in [table1(), table6()] {
            for delta in 1..=4u64 {
                for bi_level in [true, false] {
                    let config = DiscConfig { bi_level };
                    let support = MinSupport::Count(delta);
                    let disc_all =
                        DiscAll { config }.mine_guarded(&db, support, &MineGuard::unlimited());
                    let fixed = DynamicDiscAll { config, ..DynamicDiscAll::with_fixed_depth(2) }
                        .mine_guarded(&db, support, &MineGuard::unlimited());
                    assert!(disc_all.outcome.is_complete() && fixed.outcome.is_complete());
                    let diff = fixed.result.diff(&disc_all.result);
                    assert!(diff.is_empty(), "δ={delta} bi={bi_level}:\n{}", diff.join("\n"));
                    assert_eq!(fixed.stats.ops, disc_all.stats.ops, "δ={delta} bi={bi_level}");
                }
            }
        }
    }

    #[test]
    fn nrr_formula() {
        assert!((nrr(&[5, 3, 4], 6) - (5.0 / 6.0 + 3.0 / 6.0 + 4.0 / 6.0) / 3.0).abs() < 1e-12);
        assert!((nrr(&[10], 10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_database() {
        let result = DynamicDiscAll::default().mine(&SequenceDatabase::new(), MinSupport::Count(1));
        assert!(result.is_empty());
    }
}
