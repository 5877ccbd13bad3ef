//! The [`SequentialMiner`] trait implemented by every algorithm in the
//! workspace.

use crate::database::SequenceDatabase;
use crate::guard::{run_guarded, GuardedResult, MineGuard};
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

    /// Mines all frequent sequences of `db` at threshold `min_support`.
    fn mine(&self, db: &SequenceDatabase, min_support: MinSupport) -> MiningResult;

    /// Mines under a [`MineGuard`]: cancellable, deadline- and budget-bound,
    /// panic-isolated. See the [`crate::guard`] module docs for the contract.
    ///
    /// The default implementation wraps [`SequentialMiner::mine`] in a panic
    /// boundary with a pre-flight guard check: a pre-cancelled token, an
    /// expired deadline, or a zero operation budget aborts before any work,
    /// and a panic becomes [`crate::guard::AbortReason::Panicked`] — but a
    /// default run cannot stop midway or return partial results, and it
    /// enforces no pattern cap, which only [`MineGuard::note_pattern`]
    /// checks. Miners in this workspace override it with cooperative
    /// implementations that checkpoint inside their hot loops and keep
    /// whatever was found before an abort.
    fn mine_guarded(
        &self,
        db: &SequenceDatabase,
        min_support: MinSupport,
        guard: &MineGuard,
    ) -> GuardedResult {
        run_guarded(guard, |result| {
            *result = self.mine(db, min_support);
            Ok(())
        })
    }
}

impl<M: SequentialMiner + ?Sized> SequentialMiner for &M {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn mine(&self, db: &SequenceDatabase, min_support: MinSupport) -> MiningResult {
        (**self).mine(db, min_support)
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

impl<M: SequentialMiner + ?Sized> SequentialMiner for Box<M> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn mine(&self, db: &SequenceDatabase, min_support: MinSupport) -> MiningResult {
        (**self).mine(db, min_support)
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
