//! The [`SequentialMiner`] trait implemented by every algorithm in the
//! workspace. A miner implements one mining method,
//! [`SequentialMiner::mine_guarded`]; the unguarded
//! [`SequentialMiner::mine`] is provided on top of it.

use crate::database::SequenceDatabase;
use crate::guard::{GuardedResult, MineGuard};
use crate::result::MiningResult;
use crate::support::MinSupport;

/// A frequent-sequence mining algorithm.
///
/// Every miner — DISC-all, Dynamic DISC-all, PrefixSpan, Pseudo, GSP, SPADE,
/// SPAM, and the brute-force reference — implements this trait and returns
/// the *complete* set of frequent sequences with *exact* support counts, so
/// results are directly comparable.
pub trait SequentialMiner {
    /// A short, stable name for reports ("DISC-all", "PrefixSpan", …).
    fn name(&self) -> &str;

    /// Mines under a [`MineGuard`]: cancellable, deadline- and budget-bound,
    /// panic-isolated. See the [`crate::guard`] module docs for the contract.
    fn mine_guarded(
        &self,
        db: &SequenceDatabase,
        min_support: MinSupport,
        guard: &MineGuard,
    ) -> GuardedResult;

    /// Mines all frequent sequences of `db` at threshold `min_support`: a
    /// [`SequentialMiner::mine_guarded`] run under [`MineGuard::unlimited`],
    /// with a panic inside the miner re-raised by
    /// [`GuardedResult::into_complete`]. Miners do not override it.
    fn mine(&self, db: &SequenceDatabase, min_support: MinSupport) -> MiningResult {
        self.mine_guarded(db, min_support, &MineGuard::unlimited()).into_complete()
    }
}

impl<M: SequentialMiner + ?Sized> SequentialMiner for Box<M> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn mine_guarded(
        &self,
        db: &SequenceDatabase,
        min_support: MinSupport,
        guard: &MineGuard,
    ) -> GuardedResult {
        (**self).mine_guarded(db, min_support, guard)
    }
}
