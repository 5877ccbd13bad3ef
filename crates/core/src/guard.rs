//! The **guarded mining runtime**: cancellation, deadlines, resource
//! budgets, panic isolation, and fallback chains for every miner.
//!
//! Mining is worst-case exponential in the output: a hostile (or merely
//! unlucky) database plus a low threshold can run for hours and allocate
//! without bound. Embedding a miner in a service therefore needs four
//! guarantees that the plain [`SequentialMiner::mine`] contract cannot give:
//!
//! 1. **Cancellation** — another thread can abort an in-flight job through a
//!    cheap [`CancelToken`];
//! 2. **Deadlines / budgets** — a [`ResourceBudget`] bounds wall-clock time,
//!    expanded-node/comparison work, and the number of tracked patterns;
//! 3. **Panic isolation** — a bug in one algorithm must not take down the
//!    caller, and whatever was mined before the panic should survive;
//! 4. **Fallbacks** — when a fancy miner dies, a sturdier one should get the
//!    same job ([`FallbackMiner`]).
//!
//! The contract is *cooperative*: miners call [`MineGuard::checkpoint`] (or
//! [`MineGuard::charge`]) inside their hot loops — amortized to one real
//! check every [`MineGuard::DEFAULT_CHECKPOINT_INTERVAL`] operations — and
//! thread the resulting `Result` outward, inserting each frequent pattern
//! into the shared [`MiningResult`] as soon as its exact support is known.
//! An aborted run therefore returns a **sound partial result**: every
//! pattern it reports is frequent with its exact support; only completeness
//! is given up, which [`MineOutcome::Partial`] records.

use crate::database::SequenceDatabase;
use crate::durable::{IoFault, IoWriter};
use crate::miner::SequentialMiner;
use crate::result::MiningResult;
use crate::support::MinSupport;
use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[cfg(any(test, feature = "fault-injection"))]
use std::rc::Rc;

// -------------------------------------------------------------------------
// Transient-error classification and bounded retry with jittered backoff.

/// Whether an [`std::io::ErrorKind`] is **transient** — the `EINTR`/`EAGAIN`
/// class of failures that a short, bounded retry is likely to clear — as
/// opposed to permanent conditions (missing files, permissions, a full disk,
/// corrupt data) where retrying only delays the real diagnostic.
pub fn is_transient_io_kind(kind: std::io::ErrorKind) -> bool {
    use std::io::ErrorKind;
    matches!(
        kind,
        ErrorKind::Interrupted
            | ErrorKind::WouldBlock
            | ErrorKind::TimedOut
            | ErrorKind::ResourceBusy
    )
}

/// Whether an [`std::io::ErrorKind`] is **transient at the network layer**:
/// the [`is_transient_io_kind`] class plus the socket failures a retrying
/// client (or an accept loop) should absorb — peers resetting or aborting
/// connections, half-written responses, and a listener that is momentarily
/// refusing (e.g. across a server restart). A *local-file* writer must keep
/// using [`is_transient_io_kind`]: a reset on a file path would be a bug
/// worth surfacing, not retrying.
pub fn is_transient_net_kind(kind: std::io::ErrorKind) -> bool {
    use std::io::ErrorKind;
    is_transient_io_kind(kind)
        || matches!(
            kind,
            ErrorKind::ConnectionReset
                | ErrorKind::ConnectionAborted
                | ErrorKind::ConnectionRefused
                | ErrorKind::BrokenPipe
                | ErrorKind::NotConnected
                | ErrorKind::UnexpectedEof
        )
}

/// A bounded retry schedule with exponential, jittered backoff, shared by
/// every durable writer in the workspace (WAL appends and every
/// [`crate::durable::publish`]).
///
/// The jitter is deterministic per process *sequence* (a splitmix64 stream),
/// not wall-clock random — retries stay reproducible under test while
/// concurrent writers still decorrelate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_delay: Duration,
    /// Ceiling on any single backoff sleep.
    pub max_delay: Duration,
}

impl RetryPolicy {
    /// The default schedule for local-filesystem IO: 4 attempts, 1 ms base,
    /// 20 ms cap — under 50 ms worst case, enough to clear an interrupted
    /// syscall without masking a real failure.
    pub const fn io_default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(20),
        }
    }

    /// No retries at all: every failure surfaces on first touch.
    pub const fn none() -> RetryPolicy {
        RetryPolicy { max_attempts: 1, base_delay: Duration::ZERO, max_delay: Duration::ZERO }
    }

    /// The backoff before retry number `retry` (0-based), jittered into
    /// `[50%, 100%]` of the exponential step by `salt`. Public so callers
    /// running their own retry loops (the HTTP client honors `Retry-After`
    /// and response statuses, which [`retry_transient`] cannot see) still
    /// sleep on the shared jittered schedule. Draw `salt` once per retried
    /// operation from [`fresh_retry_salt`].
    pub fn delay(&self, retry: u32, salt: u64) -> Duration {
        self.backoff(retry, salt)
    }

    fn backoff(&self, retry: u32, salt: u64) -> Duration {
        let step =
            self.base_delay.saturating_mul(1u32 << retry.min(16)).min(self.max_delay).as_nanos()
                as u64;
        let jittered = step / 2 + splitmix64(salt ^ u64::from(retry)) % (step / 2 + 1);
        Duration::from_nanos(jittered)
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::io_default()
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Per-process jitter stream; each retried operation draws a fresh salt so
/// concurrent writers back off on decorrelated schedules.
static RETRY_SALT: AtomicU64 = AtomicU64::new(0x243F_6A88_85A3_08D3);

/// Draws the next salt from the per-process jitter stream — the same stream
/// [`retry_transient`] uses, for callers running their own retry loops with
/// [`RetryPolicy::delay`].
pub fn fresh_retry_salt() -> u64 {
    RETRY_SALT.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
}

/// Runs `op`, retrying **transient** IO failures (see
/// [`is_transient_io_kind`]) up to `policy.max_attempts` total attempts with
/// jittered exponential backoff. Permanent failures — and the final
/// transient failure once attempts run out — are returned unchanged, so the
/// caller's diagnostics always carry the real error.
pub fn retry_transient<T>(
    policy: RetryPolicy,
    mut op: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<T> {
    let salt = fresh_retry_salt();
    let mut retry = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if retry + 1 < policy.max_attempts.max(1) && is_transient_io_kind(e.kind()) => {
                std::thread::sleep(policy.backoff(retry, salt));
                retry += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// A cheap, cloneable cancellation handle.
///
/// Clone it, hand one copy to the mining thread (inside a [`MineGuard`]) and
/// keep the other; [`CancelToken::cancel`] flips a shared atomic flag that
/// the guard observes at its next checkpoint.
///
/// Tokens form a hierarchy: [`CancelToken::child`] derives a token that
/// observes its parent's cancellation but can be cancelled on its own
/// without touching the parent. The parallel executor scopes first-error
/// propagation to a child per run, so an aborted run never poisons the
/// caller's token (a cancelled token cannot be un-cancelled).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    parent: Option<Arc<CancelToken>>,
}

impl CancelToken {
    /// A fresh, un-cancelled token with no parent.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation of this token — and, through observation, of
    /// every child derived from it. Idempotent; never blocks. Cancelling a
    /// child leaves its parent un-cancelled.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested on this token or any of its
    /// ancestors.
    pub fn is_cancelled(&self) -> bool {
        if self.flag.load(Ordering::Relaxed) {
            return true;
        }
        let mut next = self.parent.as_deref();
        while let Some(token) = next {
            if token.flag.load(Ordering::Relaxed) {
                return true;
            }
            next = token.parent.as_deref();
        }
        false
    }

    /// A child token: cancelled when either it or this token (or any
    /// ancestor) is cancelled, while cancelling the child has no effect on
    /// this token.
    pub fn child(&self) -> CancelToken {
        CancelToken { flag: Arc::new(AtomicBool::new(false)), parent: Some(Arc::new(self.clone())) }
    }
}

/// Resource limits for one guarded mining run. All limits are optional;
/// [`ResourceBudget::unlimited`] disables everything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceBudget {
    /// Wall-clock deadline, measured from [`MineGuard`] construction.
    pub deadline: Option<Duration>,
    /// Maximum number of charged operations (expanded nodes, comparisons,
    /// scans — whatever unit the miner charges at its checkpoints).
    pub max_ops: Option<u64>,
    /// Maximum number of patterns recorded into the result.
    pub max_patterns: Option<usize>,
}

impl ResourceBudget {
    /// No limits at all.
    pub fn unlimited() -> ResourceBudget {
        ResourceBudget::default()
    }

    /// Sets a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> ResourceBudget {
        self.deadline = Some(deadline);
        self
    }

    /// Sets an operation-count ceiling.
    pub fn with_max_ops(mut self, max_ops: u64) -> ResourceBudget {
        self.max_ops = Some(max_ops);
        self
    }

    /// Sets a ceiling on the number of patterns tracked.
    pub fn with_max_patterns(mut self, max_patterns: usize) -> ResourceBudget {
        self.max_patterns = Some(max_patterns);
        self
    }
}

/// Operation and pattern counters shared by every worker guard of one
/// parallel run, so a [`ResourceBudget`] bounds the run *globally* rather
/// than per worker.
///
/// Worker guards keep the cheap `Cell`-based hot path and flush their
/// operation counts into the shared atomics only at full checkpoints; the
/// pattern counter is updated exactly (it is a memory bound).
#[derive(Debug, Default)]
pub struct SharedCounters {
    ops: AtomicU64,
    patterns: AtomicUsize,
}

impl SharedCounters {
    /// Fresh zeroed counters.
    pub fn new() -> SharedCounters {
        SharedCounters::default()
    }

    /// Total operations flushed by all worker guards so far.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Total patterns noted by all worker guards so far.
    pub fn patterns(&self) -> usize {
        self.patterns.load(Ordering::Relaxed)
    }
}

/// A point-in-time view of one budget's spend, cheap enough for a status
/// endpoint to compute on every poll.
///
/// Built by [`ResourceBudget::snapshot`] from the [`SharedCounters`] a run
/// publishes into — two relaxed atomic loads, no locks, and no access to the
/// mining thread's [`MineGuard`] (which is deliberately not `Sync`). The
/// counters lag the guard's private cells by at most one checkpoint interval
/// of operations; the pattern counter is exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetSnapshot {
    /// Operations published so far.
    pub ops: u64,
    /// Patterns noted so far.
    pub patterns: usize,
    /// Wall-clock elapsed the caller measured for the run.
    pub elapsed: Duration,
    /// Operations left before [`ResourceBudget::max_ops`] trips; `None` when
    /// the budget sets no operation ceiling.
    pub ops_remaining: Option<u64>,
    /// Patterns left before [`ResourceBudget::max_patterns`] trips; `None`
    /// when the budget sets no pattern ceiling.
    pub patterns_remaining: Option<usize>,
    /// Wall-clock left before [`ResourceBudget::deadline`] trips; `None`
    /// when the budget sets no deadline.
    pub deadline_remaining: Option<Duration>,
}

impl ResourceBudget {
    /// Snapshots this budget's spend from run-published counters: what was
    /// consumed, and how much of each configured limit remains (saturating
    /// at zero once a limit is reached).
    pub fn snapshot(&self, counters: &SharedCounters, elapsed: Duration) -> BudgetSnapshot {
        let ops = counters.ops();
        let patterns = counters.patterns();
        BudgetSnapshot {
            ops,
            patterns,
            elapsed,
            ops_remaining: self.max_ops.map(|max| max.saturating_sub(ops)),
            patterns_remaining: self.max_patterns.map(|max| max.saturating_sub(patterns)),
            deadline_remaining: self.deadline.map(|d| d.saturating_sub(elapsed)),
        }
    }
}

/// Why a guarded run stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// The [`CancelToken`] was cancelled.
    Cancelled,
    /// The wall-clock deadline passed.
    DeadlineExceeded,
    /// An operation or pattern budget ran out.
    BudgetExhausted,
    /// The miner panicked; the panic was caught at the guard boundary.
    Panicked,
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::Cancelled => write!(f, "cancelled"),
            AbortReason::DeadlineExceeded => write!(f, "deadline exceeded"),
            AbortReason::BudgetExhausted => write!(f, "budget exhausted"),
            AbortReason::Panicked => write!(f, "panicked"),
        }
    }
}

/// Whether a guarded run finished, and if not, why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MineOutcome {
    /// The miner ran to completion: the result is the full frequent set.
    Complete,
    /// The run was aborted; the result is a sound subset of the frequent
    /// set (every reported pattern is frequent with its exact support).
    Partial {
        /// What stopped the run.
        reason: AbortReason,
    },
}

impl MineOutcome {
    /// True for [`MineOutcome::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, MineOutcome::Complete)
    }

    /// The [`FallbackMiner`] stage rule: a chain advances past a stage
    /// only when it **panicked** or **exhausted its budget** — the failure
    /// modes a sturdier algorithm might survive. Cancellation and deadline
    /// expiry end the chain: no later stage could do better.
    pub fn advances_fallback(&self) -> bool {
        matches!(
            self,
            MineOutcome::Partial { reason: AbortReason::Panicked | AbortReason::BudgetExhausted }
        )
    }
}

/// Counters observed by a [`MineGuard`] over one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardStats {
    /// Operations charged via [`MineGuard::checkpoint`] / [`MineGuard::charge`].
    pub ops: u64,
    /// Full (non-amortized) checks performed.
    pub checkpoints: u64,
    /// Patterns recorded via [`MineGuard::note_pattern`].
    pub patterns: usize,
    /// Wall-clock time since guard construction.
    pub elapsed: Duration,
}

/// The result of a guarded mining run: what was found, whether it is
/// complete, and what it cost.
#[derive(Debug, Clone)]
pub struct GuardedResult {
    /// Completion status.
    pub outcome: MineOutcome,
    /// The (possibly partial, always sound) frequent set.
    pub result: MiningResult,
    /// Observed counters.
    pub stats: GuardStats,
    /// Where the run left a durable snapshot, when it ran under a
    /// checkpointing wrapper. An aborted run records the path here so a
    /// fallback stage or a later resume picks the work up instead of
    /// remining from scratch.
    pub checkpoint: Option<std::path::PathBuf>,
}

impl GuardedResult {
    /// The frequent set of a run that must have completed — the unguarded
    /// entry points run under [`MineGuard::unlimited`], so anything else is
    /// a panic inside the miner, re-raised here.
    pub fn into_complete(self) -> MiningResult {
        assert!(self.outcome.is_complete(), "unlimited mining run ended {:?}", self.outcome);
        self.result
    }
}

/// A deterministic fault to inject at a numbered full checkpoint, for
/// testing abort paths. Fires **once**, then disarms — so a fallback chain
/// sharing the plan sees the fault in exactly one stage.
///
/// Available in tests and behind the `fault-injection` feature only.
#[cfg(any(test, feature = "fault-injection"))]
#[derive(Debug)]
pub struct FaultPlan {
    panic_at_checkpoint: Option<u64>,
    stall_at_checkpoint: Option<(u64, Duration)>,
    cancel_at_checkpoint: Option<u64>,
    io_fault: Option<(IoWriter, u64, IoFault)>,
    armed: Cell<bool>,
}

#[cfg(any(test, feature = "fault-injection"))]
impl FaultPlan {
    /// An armed plan with no fault yet.
    fn empty() -> FaultPlan {
        FaultPlan {
            panic_at_checkpoint: None,
            stall_at_checkpoint: None,
            cancel_at_checkpoint: None,
            io_fault: None,
            armed: Cell::new(true),
        }
    }

    /// Panics when the `n`-th full checkpoint (1-based) runs.
    pub fn panic_at(n: u64) -> FaultPlan {
        FaultPlan { panic_at_checkpoint: Some(n), ..FaultPlan::empty() }
    }

    /// Sleeps for `stall` when the `n`-th full checkpoint (1-based) runs —
    /// before the deadline check, so a stall past the deadline makes the
    /// same checkpoint return [`AbortReason::DeadlineExceeded`].
    pub fn stall_at(n: u64, stall: Duration) -> FaultPlan {
        FaultPlan { stall_at_checkpoint: Some((n, stall)), ..FaultPlan::empty() }
    }

    /// Cancels the guard's token when the `n`-th full checkpoint (1-based)
    /// runs — before the cancellation check, so that checkpoint returns
    /// [`AbortReason::Cancelled`]: a cancel landing at a chosen point of
    /// a run.
    pub fn cancel_at(n: u64) -> FaultPlan {
        FaultPlan { cancel_at_checkpoint: Some(n), ..FaultPlan::empty() }
    }

    /// Injects `fault` at write number `n` of `writer` — the one injection
    /// surface shared by every durable writer (checkpoint writes count from
    /// 1; the store's and the job server's from 0). Fires once, then
    /// disarms, like every fault.
    pub fn io_fault_at(writer: IoWriter, n: u64, fault: IoFault) -> FaultPlan {
        FaultPlan { io_fault: Some((writer, n, fault)), ..FaultPlan::empty() }
    }

    /// Consulted by a writer before its write number `n`. Returns the
    /// fault to apply when this plan targets that (writer, n), disarming
    /// the plan.
    pub fn fire_io(&self, writer: IoWriter, n: u64) -> Option<IoFault> {
        if !self.armed.get() {
            return None;
        }
        match self.io_fault {
            Some((w, at, fault)) if w == writer && at == n => {
                self.armed.set(false);
                Some(fault)
            }
            _ => None,
        }
    }

    /// Runs the fault due at full checkpoint `checkpoint`, if any;
    /// returns whether it asks for the guard's token to be cancelled.
    fn fire(&self, checkpoint: u64) -> bool {
        if !self.armed.get() {
            return false;
        }
        if self.cancel_at_checkpoint == Some(checkpoint) {
            self.armed.set(false);
            return true;
        }
        if let Some((at, stall)) = self.stall_at_checkpoint {
            if checkpoint == at {
                self.armed.set(false);
                std::thread::sleep(stall);
            }
        }
        if let Some(at) = self.panic_at_checkpoint {
            if checkpoint == at {
                self.armed.set(false);
                panic!("injected fault at checkpoint {checkpoint}");
            }
        }
        false
    }
}

/// The per-run guard a miner consults from its hot loops.
///
/// Not `Sync`: a guard belongs to the mining thread. Cross-thread control
/// flows through the [`CancelToken`], which *is* cheap to clone and send.
#[derive(Debug)]
pub struct MineGuard {
    token: CancelToken,
    budget: ResourceBudget,
    start: Instant,
    interval: u64,
    ops: Cell<u64>,
    pending: Cell<u64>,
    checkpoints: Cell<u64>,
    patterns: Cell<usize>,
    /// Cross-worker counters of a parallel run; `None` for ordinary guards.
    shared: Option<Arc<SharedCounters>>,
    /// Operations already flushed into `shared`.
    flushed: Cell<u64>,
    #[cfg(any(test, feature = "fault-injection"))]
    fault: Option<Rc<FaultPlan>>,
}

impl MineGuard {
    /// How many charged operations pass between full checks by default.
    pub const DEFAULT_CHECKPOINT_INTERVAL: u64 = 1024;

    /// A guard with a token and budget. The deadline clock starts now.
    pub fn new(token: CancelToken, budget: ResourceBudget) -> MineGuard {
        MineGuard {
            token,
            budget,
            start: Instant::now(),
            interval: MineGuard::DEFAULT_CHECKPOINT_INTERVAL,
            ops: Cell::new(0),
            pending: Cell::new(0),
            checkpoints: Cell::new(0),
            patterns: Cell::new(0),
            shared: None,
            flushed: Cell::new(0),
            #[cfg(any(test, feature = "fault-injection"))]
            fault: None,
        }
    }

    /// A guard that never aborts — the plain [`SequentialMiner::mine`] path.
    pub fn unlimited() -> MineGuard {
        MineGuard::new(CancelToken::new(), ResourceBudget::unlimited())
    }

    /// A guard for one worker of a parallel run: shared token, shared
    /// deadline clock (`start` is the coordinating guard's start instant),
    /// and [`SharedCounters`] so operation and pattern budgets bound the run
    /// globally across workers.
    pub(crate) fn worker(
        token: CancelToken,
        budget: ResourceBudget,
        start: Instant,
        interval: u64,
        shared: Arc<SharedCounters>,
    ) -> MineGuard {
        let mut guard = MineGuard::new(token, budget);
        guard.start = start;
        guard.interval = interval.max(1);
        guard.shared = Some(shared);
        guard
    }

    /// Overrides the amortization interval (tests use `1` so every
    /// [`MineGuard::checkpoint`] is a full check). Panics on `0`.
    pub fn with_checkpoint_interval(mut self, interval: u64) -> MineGuard {
        assert!(interval >= 1, "checkpoint interval must be at least 1");
        self.interval = interval;
        self
    }

    /// Publishes this guard's spend into `shared` so other threads can
    /// observe it while the run is in flight: operation counts are flushed
    /// at every full checkpoint and pattern counts exactly on every
    /// [`MineGuard::note_pattern`]. Budgets are then enforced against the
    /// shared totals, so counters carried over from an earlier slice of the
    /// same job count toward this run's limits.
    ///
    /// This is the observation hook a serving layer uses: the guard itself
    /// is not `Sync`, but the counters are, and
    /// [`ResourceBudget::snapshot`] turns them into a [`BudgetSnapshot`]
    /// without touching the mining thread.
    pub fn with_shared_counters(mut self, shared: Arc<SharedCounters>) -> MineGuard {
        self.shared = Some(shared);
        self
    }

    /// Attaches a deterministic [`FaultPlan`].
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn with_fault(mut self, fault: FaultPlan) -> MineGuard {
        self.fault = Some(Rc::new(fault));
        self
    }

    /// Consults the fault plan (if any) for an injected IO fault at the
    /// `n`-th write of `writer`. Always `None` without a plan — and so in
    /// every build without the `fault-injection` feature.
    pub fn io_write_fault(&self, writer: IoWriter, n: u64) -> Option<IoFault> {
        #[cfg(any(test, feature = "fault-injection"))]
        if let Some(plan) = &self.fault {
            return plan.fire_io(writer, n);
        }
        let _ = (writer, n);
        None
    }

    /// The cancellation token this guard observes.
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// The resource budget this guard enforces.
    pub fn budget(&self) -> ResourceBudget {
        self.budget
    }

    /// The instant the deadline clock started.
    pub(crate) fn start_instant(&self) -> Instant {
        self.start
    }

    /// The amortization interval between full checks.
    pub(crate) fn interval(&self) -> u64 {
        self.interval
    }

    /// Folds work done elsewhere (worker guards of a parallel run) into this
    /// guard's counters, so `stats()` on the coordinating guard reflects the
    /// whole run. Patterns are *not* absorbed — the coordinator re-notes each
    /// pattern as it merges shard results, which keeps the pattern cap exact.
    pub(crate) fn absorb_work(&self, stats: &GuardStats) {
        self.ops.set(self.ops.get().saturating_add(stats.ops));
        // The absorbed ops were already budget-checked by the worker guards.
        // Publish them to this guard's own run counters — when this guard is
        // itself a worker of an outer run, a nested fan-out's work must reach
        // the outer run's budget — and mark them flushed so the next full
        // check does not publish them a second time.
        if let Some(shared) = &self.shared {
            shared.ops.fetch_add(stats.ops, Ordering::Relaxed);
        }
        self.flushed.set(self.flushed.get().saturating_add(stats.ops));
        self.checkpoints.set(self.checkpoints.get().saturating_add(stats.checkpoints));
    }

    /// Fresh [`SharedCounters`] for a parallel run coordinated by this
    /// guard, seeded with the guard's run-wide spend so far: workers then
    /// enforce `max_ops`/`max_patterns` against the total *including* the
    /// coordinator's pre-run work (and, in a nested run, everything already
    /// published to the outer run's counters), instead of against counters
    /// that restart at zero.
    pub(crate) fn run_counters(&self) -> Arc<SharedCounters> {
        let counters = SharedCounters::new();
        let (ops, patterns) = match &self.shared {
            Some(shared) => (
                shared.ops().saturating_add(self.ops.get() - self.flushed.get()),
                shared.patterns(),
            ),
            None => (self.ops.get(), self.patterns.get()),
        };
        counters.ops.store(ops, Ordering::Relaxed);
        counters.patterns.store(patterns, Ordering::Relaxed);
        Arc::new(counters)
    }

    /// A fresh guard for the next stage of a fallback chain: same token,
    /// same budget, same deadline clock (the original start instant), same
    /// fault plan (which fires at most once across the whole chain), fresh
    /// operation counters.
    pub fn stage(&self) -> MineGuard {
        MineGuard {
            token: self.token.clone(),
            budget: self.budget,
            start: self.start,
            interval: self.interval,
            ops: Cell::new(0),
            pending: Cell::new(0),
            checkpoints: Cell::new(0),
            patterns: Cell::new(0),
            shared: self.shared.clone(),
            flushed: Cell::new(0),
            #[cfg(any(test, feature = "fault-injection"))]
            fault: self.fault.clone(),
        }
    }

    /// Charges one operation; amortized — see [`MineGuard::charge`].
    #[inline]
    pub fn checkpoint(&self) -> Result<(), AbortReason> {
        self.charge(1)
    }

    /// Charges `n` operations against the budget. Once the charges since the
    /// last full check reach the interval, runs the full check: fault
    /// injection, cancellation, deadline and the operation budget.
    #[inline]
    pub fn charge(&self, n: u64) -> Result<(), AbortReason> {
        self.ops.set(self.ops.get().saturating_add(n));
        let pending = self.pending.get().saturating_add(n);
        if pending < self.interval {
            self.pending.set(pending);
            return Ok(());
        }
        self.pending.set(0);
        self.full_check()
    }

    /// Runs the full check immediately, regardless of amortization.
    /// [`run_guarded`] calls this once before the miner starts, so a
    /// pre-cancelled token or an already-expired deadline aborts without
    /// doing any work.
    pub fn check_now(&self) -> Result<(), AbortReason> {
        self.full_check()
    }

    /// Records one pattern insertion. Always a cheap, exact check (never
    /// amortized): the pattern cap is a memory bound, so overshooting it by
    /// a checkpoint interval would defeat its purpose. Call **before** the
    /// matching [`MiningResult::insert`] so an exhausted budget keeps the
    /// result at exactly the cap.
    #[inline]
    pub fn note_pattern(&self) -> Result<(), AbortReason> {
        if let Some(shared) = &self.shared {
            // Cross-worker exactness: reserve a slot atomically, back out on
            // overflow so the global count stays at the cap.
            let next = shared.patterns.fetch_add(1, Ordering::Relaxed) + 1;
            if let Some(max) = self.budget.max_patterns {
                if next > max {
                    shared.patterns.fetch_sub(1, Ordering::Relaxed);
                    return Err(AbortReason::BudgetExhausted);
                }
            }
            self.patterns.set(self.patterns.get() + 1);
            return Ok(());
        }
        let next = self.patterns.get() + 1;
        if let Some(max) = self.budget.max_patterns {
            if next > max {
                return Err(AbortReason::BudgetExhausted);
            }
        }
        self.patterns.set(next);
        Ok(())
    }

    /// The counters so far.
    pub fn stats(&self) -> GuardStats {
        GuardStats {
            ops: self.ops.get(),
            checkpoints: self.checkpoints.get(),
            patterns: self.patterns.get(),
            elapsed: self.start.elapsed(),
        }
    }

    fn full_check(&self) -> Result<(), AbortReason> {
        let n = self.checkpoints.get() + 1;
        self.checkpoints.set(n);
        #[cfg(any(test, feature = "fault-injection"))]
        if let Some(fault) = &self.fault {
            if fault.fire(n) {
                self.token.cancel();
            }
        }
        if self.token.is_cancelled() {
            return Err(AbortReason::Cancelled);
        }
        if let Some(deadline) = self.budget.deadline {
            if self.start.elapsed() >= deadline {
                return Err(AbortReason::DeadlineExceeded);
            }
        }
        // With shared counters, budgets are checked against the run-wide
        // totals; the local delta since the last flush is published first.
        let ops_total = match &self.shared {
            Some(shared) => {
                let delta = self.ops.get() - self.flushed.get();
                self.flushed.set(self.ops.get());
                shared.ops.fetch_add(delta, Ordering::Relaxed) + delta
            }
            None => self.ops.get(),
        };
        if let Some(max) = self.budget.max_ops {
            if ops_total >= max {
                return Err(AbortReason::BudgetExhausted);
            }
        }
        // The pattern cap is `note_pattern`'s alone: it refuses the
        // (cap+1)-th pattern, so a run that finds exactly `cap` ends complete
        // whether or not a checkpoint follows its last pattern.
        Ok(())
    }
}

/// Runs a cooperative mining body under a guard, catching panics.
///
/// The [`MiningResult`] lives *outside* the `catch_unwind` boundary, so
/// patterns inserted before a panic (or a cooperative abort) survive into
/// the returned [`GuardedResult`]. The body receives the result to fill and
/// returns `Err(reason)` when a checkpoint trips.
pub fn run_guarded<F>(guard: &MineGuard, body: F) -> GuardedResult
where
    F: FnOnce(&mut MiningResult) -> Result<(), AbortReason>,
{
    let mut result = MiningResult::new();
    let outcome = match catch_unwind(AssertUnwindSafe(|| {
        guard.check_now()?;
        body(&mut result)
    })) {
        Ok(Ok(())) => MineOutcome::Complete,
        Ok(Err(reason)) => MineOutcome::Partial { reason },
        Err(_) => MineOutcome::Partial { reason: AbortReason::Panicked },
    };
    GuardedResult { outcome, result, stats: guard.stats(), checkpoint: None }
}

/// A report for one stage of a [`FallbackMiner`] chain.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// The stage miner's name.
    pub name: String,
    /// How the stage ended.
    pub outcome: MineOutcome,
    /// The stage's counters.
    pub stats: GuardStats,
    /// The durable snapshot the stage left behind, if it checkpoints.
    pub checkpoint: Option<std::path::PathBuf>,
}

/// An ordered chain of miners: each stage runs under its own stage guard
/// (shared token, shared deadline clock), and the chain advances to the next
/// stage by [`MineOutcome::advances_fallback`].
pub struct FallbackMiner {
    stages: Vec<Box<dyn SequentialMiner>>,
    name: String,
}

impl FallbackMiner {
    /// A chain from ordered stages. Panics when `stages` is empty.
    pub fn new(stages: Vec<Box<dyn SequentialMiner>>) -> FallbackMiner {
        assert!(!stages.is_empty(), "FallbackMiner needs at least one stage");
        let name = stages.iter().map(|s| s.name().to_string()).collect::<Vec<_>>().join(" -> ");
        FallbackMiner { stages, name }
    }

    /// Runs the chain, returning the deciding stage's result plus a
    /// per-stage report of everything that was attempted.
    pub fn run(
        &self,
        db: &SequenceDatabase,
        min_support: MinSupport,
        guard: &MineGuard,
    ) -> (GuardedResult, Vec<StageReport>) {
        let mut reports = Vec::new();
        let run = FallbackMiner::run_stages(guard, self.stages.len(), |i, stage_guard| {
            let stage = &self.stages[i];
            let run = stage.mine_guarded(db, min_support, stage_guard);
            reports.push(StageReport {
                name: stage.name().to_string(),
                outcome: run.outcome,
                stats: run.stats,
                checkpoint: run.checkpoint.clone(),
            });
            run
        });
        (run, reports)
    }

    /// The chain's stage loop over `n_stages` stages given as one closure
    /// (stage index, stage guard): each stage runs under its own
    /// [`MineGuard::stage`], and the chain advances by
    /// [`MineOutcome::advances_fallback`]; the deciding (or last) stage's
    /// result is returned. Callers whose stages are not
    /// [`SequentialMiner`]s over a nested database — the algorithm
    /// registry's chains mining loaded columns — chain through this
    /// directly. Panics when `n_stages` is 0.
    pub fn run_stages<F>(guard: &MineGuard, n_stages: usize, mut stage: F) -> GuardedResult
    where
        F: FnMut(usize, &MineGuard) -> GuardedResult,
    {
        assert!(n_stages > 0, "a fallback chain needs at least one stage");
        let mut i = 0;
        loop {
            let run = stage(i, &guard.stage());
            i += 1;
            if i == n_stages || !run.outcome.advances_fallback() {
                return run;
            }
        }
    }
}

impl SequentialMiner for FallbackMiner {
    fn name(&self) -> &str {
        &self.name
    }

    fn mine_guarded(
        &self,
        db: &SequenceDatabase,
        min_support: MinSupport,
        guard: &MineGuard,
    ) -> GuardedResult {
        self.run(db, min_support, guard).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::BruteForce;
    use crate::parse::parse_sequence;
    use crate::support::support_count;

    fn table1() -> SequenceDatabase {
        SequenceDatabase::from_parsed(&[
            "(a,e,g)(b)(h)(f)(c)(b,f)",
            "(b)(d,f)(e)",
            "(b,f,g)",
            "(f)(a,g)(b,f,h)(b,f)",
        ])
        .unwrap()
    }

    #[test]
    fn unlimited_guard_never_aborts() {
        let guard = MineGuard::unlimited().with_checkpoint_interval(1);
        for _ in 0..10_000 {
            guard.checkpoint().unwrap();
            guard.note_pattern().unwrap();
        }
        let stats = guard.stats();
        assert_eq!(stats.ops, 10_000);
        assert_eq!(stats.checkpoints, 10_000);
        assert_eq!(stats.patterns, 10_000);
    }

    #[test]
    fn cancel_token_trips_the_next_full_check() {
        let token = CancelToken::new();
        let guard =
            MineGuard::new(token.clone(), ResourceBudget::unlimited()).with_checkpoint_interval(1);
        guard.checkpoint().unwrap();
        token.cancel();
        assert_eq!(guard.checkpoint(), Err(AbortReason::Cancelled));
    }

    #[test]
    fn child_token_observes_the_parent_but_not_vice_versa() {
        let parent = CancelToken::new();
        let child = parent.child();
        assert!(!child.is_cancelled());
        child.cancel();
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled(), "cancelling a child must not cancel the parent");
        let sibling = parent.child();
        assert!(!sibling.is_cancelled(), "siblings are independent");
        let grandchild = sibling.child();
        parent.cancel();
        assert!(sibling.is_cancelled());
        assert!(grandchild.is_cancelled(), "cancellation is observed through the whole chain");
    }

    #[test]
    fn child_token_clones_share_the_flag() {
        let child = CancelToken::new().child();
        let clone = child.clone();
        child.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn amortization_delays_the_full_check() {
        let token = CancelToken::new();
        let guard =
            MineGuard::new(token.clone(), ResourceBudget::unlimited()).with_checkpoint_interval(4);
        token.cancel();
        assert_eq!(guard.checkpoint(), Ok(()));
        assert_eq!(guard.checkpoint(), Ok(()));
        assert_eq!(guard.checkpoint(), Ok(()));
        assert_eq!(guard.checkpoint(), Err(AbortReason::Cancelled));
    }

    #[test]
    fn zero_deadline_expires_immediately() {
        let budget = ResourceBudget::unlimited().with_deadline(Duration::ZERO);
        let guard = MineGuard::new(CancelToken::new(), budget).with_checkpoint_interval(1);
        assert_eq!(guard.checkpoint(), Err(AbortReason::DeadlineExceeded));
    }

    #[test]
    fn ops_budget_exhausts() {
        let budget = ResourceBudget::unlimited().with_max_ops(3);
        let guard = MineGuard::new(CancelToken::new(), budget).with_checkpoint_interval(1);
        assert_eq!(guard.checkpoint(), Ok(()));
        assert_eq!(guard.checkpoint(), Ok(()));
        assert_eq!(guard.checkpoint(), Err(AbortReason::BudgetExhausted));
    }

    #[test]
    fn pattern_budget_caps_exactly() {
        let budget = ResourceBudget::unlimited().with_max_patterns(2);
        let guard = MineGuard::new(CancelToken::new(), budget);
        assert_eq!(guard.note_pattern(), Ok(()));
        assert_eq!(guard.note_pattern(), Ok(()));
        assert_eq!(guard.note_pattern(), Err(AbortReason::BudgetExhausted));
        assert_eq!(guard.stats().patterns, 2);
    }

    #[test]
    fn bulk_charge_counts_like_single_checkpoints() {
        let budget = ResourceBudget::unlimited().with_max_ops(10);
        let guard = MineGuard::new(CancelToken::new(), budget).with_checkpoint_interval(1);
        assert_eq!(guard.charge(20), Err(AbortReason::BudgetExhausted));
        assert_eq!(guard.stats().ops, 20);
    }

    #[test]
    fn injected_panic_is_caught_by_run_guarded() {
        let guard =
            MineGuard::unlimited().with_checkpoint_interval(1).with_fault(FaultPlan::panic_at(3));
        let run = run_guarded(&guard, |result| {
            // Checkpoint 1 is run_guarded's preflight; 2 passes; 3 panics.
            guard.checkpoint()?;
            result.insert(parse_sequence("(a)").unwrap(), 2);
            guard.checkpoint()?;
            result.insert(parse_sequence("(b)").unwrap(), 9);
            Ok(())
        });
        assert_eq!(run.outcome, MineOutcome::Partial { reason: AbortReason::Panicked });
        // The insert before the panic survived; the one after never ran.
        assert_eq!(run.result.support_of(&parse_sequence("(a)").unwrap()), Some(2));
        assert_eq!(run.result.len(), 1);
    }

    #[test]
    fn injected_stall_turns_into_deadline_abort() {
        let budget = ResourceBudget::unlimited().with_deadline(Duration::from_millis(5));
        let guard = MineGuard::new(CancelToken::new(), budget)
            .with_checkpoint_interval(1)
            .with_fault(FaultPlan::stall_at(1, Duration::from_millis(20)));
        assert_eq!(guard.checkpoint(), Err(AbortReason::DeadlineExceeded));
    }

    #[test]
    fn fault_plans_fire_once() {
        let guard =
            MineGuard::unlimited().with_checkpoint_interval(1).with_fault(FaultPlan::panic_at(1));
        assert!(catch_unwind(AssertUnwindSafe(|| guard.checkpoint())).is_err());
        // Disarmed: the same checkpoint number in a stage guard is quiet.
        let stage = guard.stage();
        assert_eq!(stage.checkpoint(), Ok(()));
    }

    #[test]
    fn mine_is_mine_guarded_under_an_unlimited_guard() {
        let db = table1();
        let guard = MineGuard::unlimited();
        let run = BruteForce::default().mine_guarded(&db, MinSupport::Count(2), &guard);
        assert!(run.outcome.is_complete());
        let plain = BruteForce::default().mine(&db, MinSupport::Count(2));
        assert!(run.result.diff(&plain).is_empty());
        assert!(run.stats.ops > 0);
    }

    /// A miner that always panics, for fallback tests.
    struct AlwaysPanics;

    impl SequentialMiner for AlwaysPanics {
        fn name(&self) -> &str {
            "AlwaysPanics"
        }
        fn mine_guarded(
            &self,
            _: &SequenceDatabase,
            _: MinSupport,
            guard: &MineGuard,
        ) -> GuardedResult {
            run_guarded(guard, |_| panic!("this miner always panics"))
        }
    }

    #[test]
    #[should_panic(expected = "unlimited mining run ended")]
    fn unguarded_chain_reraises_a_panicking_last_stage() {
        FallbackMiner::new(vec![Box::new(AlwaysPanics)]).mine(&table1(), MinSupport::Count(2));
    }

    #[test]
    fn fallback_advances_past_a_panicking_stage() {
        let db = table1();
        let chain =
            FallbackMiner::new(vec![Box::new(AlwaysPanics), Box::new(BruteForce::default())]);
        assert_eq!(chain.name(), "AlwaysPanics -> BruteForce");
        let guard = MineGuard::unlimited();
        let (run, reports) = chain.run(&db, MinSupport::Count(2), &guard);
        assert!(run.outcome.is_complete());
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].outcome, MineOutcome::Partial { reason: AbortReason::Panicked });
        assert!(reports[1].outcome.is_complete());
        let expected = BruteForce::default().mine(&db, MinSupport::Count(2));
        assert!(run.result.diff(&expected).is_empty());
        for (p, s) in run.result.iter() {
            assert_eq!(s, support_count(&db, p));
        }
    }

    #[test]
    fn fallback_stops_on_cancellation() {
        let db = table1();
        let token = CancelToken::new();
        token.cancel();
        let chain =
            FallbackMiner::new(vec![Box::new(BruteForce::default()), Box::new(AlwaysPanics)]);
        let guard = MineGuard::new(token, ResourceBudget::unlimited());
        let (run, reports) = chain.run(&db, MinSupport::Count(2), &guard);
        // The second stage never ran: cancellation ends the chain.
        assert_eq!(reports.len(), 1);
        assert_eq!(run.outcome, MineOutcome::Partial { reason: AbortReason::Cancelled });
        assert!(run.result.is_empty());
    }

    #[test]
    fn shared_counters_expose_spend_across_threads() {
        let counters = Arc::new(SharedCounters::new());
        let budget = ResourceBudget::unlimited().with_max_ops(100).with_max_patterns(10);
        let guard = MineGuard::new(CancelToken::new(), budget)
            .with_checkpoint_interval(1)
            .with_shared_counters(Arc::clone(&counters));
        for _ in 0..7 {
            guard.checkpoint().unwrap();
        }
        for _ in 0..3 {
            guard.note_pattern().unwrap();
        }
        // Another thread reads the published counters without the guard.
        let observed = std::thread::scope(|s| {
            s.spawn(|| budget.snapshot(&counters, Duration::from_millis(5))).join().unwrap()
        });
        assert_eq!(observed.ops, 7);
        assert_eq!(observed.patterns, 3);
        assert_eq!(observed.ops_remaining, Some(93));
        assert_eq!(observed.patterns_remaining, Some(7));
        assert_eq!(observed.deadline_remaining, None);
    }

    #[test]
    fn shared_counters_carry_spend_into_the_next_slice() {
        // A serving layer reuses one counter set across preemption slices:
        // the second slice's budget must see the first slice's spend.
        let counters = Arc::new(SharedCounters::new());
        let budget = ResourceBudget::unlimited().with_max_ops(10);
        let first = MineGuard::new(CancelToken::new(), budget)
            .with_checkpoint_interval(1)
            .with_shared_counters(Arc::clone(&counters));
        for _ in 0..6 {
            first.checkpoint().unwrap();
        }
        let second = MineGuard::new(CancelToken::new(), budget)
            .with_checkpoint_interval(1)
            .with_shared_counters(Arc::clone(&counters));
        assert_eq!(second.checkpoint(), Ok(()));
        assert_eq!(second.checkpoint(), Ok(()));
        assert_eq!(second.checkpoint(), Ok(()));
        assert_eq!(second.checkpoint(), Err(AbortReason::BudgetExhausted));
    }

    #[test]
    fn budget_snapshot_saturates_at_exhausted_limits() {
        let counters = Arc::new(SharedCounters::new());
        let budget = ResourceBudget::unlimited()
            .with_max_ops(5)
            .with_max_patterns(1)
            .with_deadline(Duration::from_millis(1));
        let guard = MineGuard::new(CancelToken::new(), budget)
            .with_checkpoint_interval(1)
            .with_shared_counters(Arc::clone(&counters));
        let _ = guard.charge(20);
        guard.note_pattern().unwrap();
        let snap = budget.snapshot(&counters, Duration::from_secs(1));
        assert_eq!(snap.ops_remaining, Some(0));
        assert_eq!(snap.patterns_remaining, Some(0));
        assert_eq!(snap.deadline_remaining, Some(Duration::ZERO));
        // An unlimited budget reports no remaining fields at all.
        let open = ResourceBudget::unlimited().snapshot(&counters, Duration::ZERO);
        assert_eq!(open.ops_remaining, None);
        assert_eq!(open.patterns_remaining, None);
        assert_eq!(open.deadline_remaining, None);
    }

    #[test]
    fn retry_clears_a_transient_failure() {
        let mut failures = 2;
        let out = retry_transient(RetryPolicy::io_default(), || {
            if failures > 0 {
                failures -= 1;
                Err(std::io::Error::new(std::io::ErrorKind::Interrupted, "EINTR"))
            } else {
                Ok(42)
            }
        })
        .unwrap();
        assert_eq!(out, 42);
        assert_eq!(failures, 0);
    }

    #[test]
    fn retry_never_retries_permanent_failures() {
        let mut attempts = 0;
        let err = retry_transient(RetryPolicy::io_default(), || -> std::io::Result<()> {
            attempts += 1;
            Err(std::io::Error::new(std::io::ErrorKind::StorageFull, "ENOSPC"))
        })
        .unwrap_err();
        assert_eq!(attempts, 1, "a permanent error must surface on first touch");
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
    }

    #[test]
    fn retry_is_bounded() {
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_micros(10),
            max_delay: Duration::from_micros(50),
        };
        let mut attempts = 0;
        let err = retry_transient(policy, || -> std::io::Result<()> {
            attempts += 1;
            Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "EAGAIN"))
        })
        .unwrap_err();
        assert_eq!(attempts, 3);
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        // max_attempts = 1 means "no retry", and 0 is treated as 1.
        for max_attempts in [1, 0] {
            let mut attempts = 0;
            let _ = retry_transient(
                RetryPolicy { max_attempts, ..policy },
                || -> std::io::Result<()> {
                    attempts += 1;
                    Err(std::io::Error::new(std::io::ErrorKind::Interrupted, "EINTR"))
                },
            );
            assert_eq!(attempts, 1);
        }
    }

    #[test]
    fn transient_classification_matches_the_eintr_class() {
        use std::io::ErrorKind;
        for kind in [
            ErrorKind::Interrupted,
            ErrorKind::WouldBlock,
            ErrorKind::TimedOut,
            ErrorKind::ResourceBusy,
        ] {
            assert!(is_transient_io_kind(kind), "{kind:?} should be transient");
        }
        for kind in [
            ErrorKind::NotFound,
            ErrorKind::PermissionDenied,
            ErrorKind::StorageFull,
            ErrorKind::InvalidData,
            ErrorKind::UnexpectedEof,
        ] {
            assert!(!is_transient_io_kind(kind), "{kind:?} should be permanent");
        }
    }

    #[test]
    fn net_transient_classification_extends_the_io_class() {
        use std::io::ErrorKind;
        // Everything IO-transient is net-transient…
        for kind in [ErrorKind::Interrupted, ErrorKind::WouldBlock, ErrorKind::TimedOut] {
            assert!(is_transient_net_kind(kind));
        }
        // …plus the socket class…
        for kind in [
            ErrorKind::ConnectionReset,
            ErrorKind::ConnectionAborted,
            ErrorKind::ConnectionRefused,
            ErrorKind::BrokenPipe,
            ErrorKind::UnexpectedEof,
        ] {
            assert!(is_transient_net_kind(kind), "{kind:?} should be net-transient");
            assert!(!is_transient_io_kind(kind), "{kind:?} must stay file-permanent");
        }
        // …while real data/permission failures stay permanent everywhere.
        for kind in [ErrorKind::NotFound, ErrorKind::PermissionDenied, ErrorKind::InvalidData] {
            assert!(!is_transient_net_kind(kind));
        }
    }

    #[test]
    fn public_delay_matches_the_internal_backoff_bounds() {
        let policy = RetryPolicy::io_default();
        for retry in 0..4 {
            let d = policy.delay(retry, fresh_retry_salt());
            let step = policy.base_delay.saturating_mul(1u32 << retry).min(policy.max_delay);
            assert!(d <= step, "delay {d:?} exceeds the exponential step {step:?}");
            assert!(d >= step / 2, "delay {d:?} under half the step {step:?}");
        }
    }

    #[test]
    fn io_faults_fire_once_at_the_targeted_writer_and_index() {
        let plan = FaultPlan::io_fault_at(IoWriter::WalAppend, 3, IoFault::TornWrite);
        assert_eq!(plan.fire_io(IoWriter::StoreSnapshot, 3), None, "wrong writer");
        assert_eq!(plan.fire_io(IoWriter::WalAppend, 2), None, "wrong index");
        assert_eq!(plan.fire_io(IoWriter::WalAppend, 3), Some(IoFault::TornWrite));
        assert_eq!(plan.fire_io(IoWriter::WalAppend, 3), None, "fires once, then disarms");
    }

    #[test]
    fn fallback_walks_every_stage_on_budget_exhaustion() {
        let db = table1();
        let budget = ResourceBudget::unlimited().with_max_ops(2);
        let chain = FallbackMiner::new(vec![
            Box::new(BruteForce::default()),
            Box::new(BruteForce::default()),
        ]);
        let guard = MineGuard::new(CancelToken::new(), budget).with_checkpoint_interval(1);
        let (run, reports) = chain.run(&db, MinSupport::Count(2), &guard);
        assert_eq!(reports.len(), 2);
        assert_eq!(run.outcome, MineOutcome::Partial { reason: AbortReason::BudgetExhausted });
    }
}
