//! The `Job` abstraction: one submitted mining query, from queue to
//! rendered result.
//!
//! A job runs as a sequence of **slices**. Each slice is a guarded
//! `Resumable` run with an operations budget just above the job's
//! accumulated spend; when the budget trips, the miner checkpoints at the
//! current partition boundary and the job goes back in the queue — that is
//! the preemption point the fair scheduler multiplexes on. The checkpoint
//! layer guarantees a resumed job produces results bit-identical to an
//! uninterrupted run, so slicing is invisible in the output.
//!
//! Status reads never touch the mining thread's `MineGuard` (deliberately
//! not `Sync`): each slice publishes into its own
//! [`SharedCounters`], and `/jobs/:id` snapshots those through
//! [`disc_core::ResourceBudget::snapshot`]. Because a resumed slice
//! re-charges the snapshot's cumulative spend before mining on, the live
//! slice counters approximate the job's total spend from below — the same
//! totals budgets are enforced against.

use crate::cache::RenderedResult;
use disc_core::{BudgetSnapshot, CancelToken, ResourceBudget, SharedCounters, SnapshotProgress};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a scheduler slot (fresh, or preempted with a checkpoint).
    Queued,
    /// A slice is mining right now.
    Running,
    /// Finished; the rendered result is available.
    Done,
    /// Failed permanently (budget cap, deadline, data error).
    Failed,
    /// Cancelled by the tenant.
    Cancelled,
}

impl JobState {
    /// The lowercase wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the job can still change state.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Cancelled)
    }
}

/// The immutable submission parameters of a job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Job id (server-assigned, monotonic).
    pub id: u64,
    /// Submitting tenant.
    pub tenant: String,
    /// Registered database name.
    pub db: String,
    /// Resolved minimum-support count δ.
    pub delta: u64,
    /// Algorithm: `disc-all`, `dynamic`, `parallel`, or `auto` (a
    /// `FallbackMiner` chain ending in the sequential baseline).
    pub algo: String,
    /// Result projection: `all`, `closed`, `maximal`.
    pub mode: String,
    /// Hard cap on guard operations for the whole job (tenant budget).
    pub max_ops: Option<u64>,
    /// Hard cap on patterns for the whole job (tenant budget).
    pub max_patterns: Option<usize>,
    /// Wall-clock deadline for the whole job, from submission.
    pub deadline: Option<Duration>,
    /// Skip the result cache (read and write) for this job.
    pub no_cache: bool,
}

impl JobSpec {
    /// The job-wide budget — what `/jobs/:id` reports remaining spend
    /// against, and what slices are capped by.
    pub fn budget(&self) -> ResourceBudget {
        let mut b = ResourceBudget::unlimited();
        if let Some(ops) = self.max_ops {
            b = b.with_max_ops(ops);
        }
        if let Some(p) = self.max_patterns {
            b = b.with_max_patterns(p);
        }
        if let Some(d) = self.deadline {
            b = b.with_deadline(d);
        }
        b
    }
}

/// A terminal failure, with the transience bit the status mapping needs.
#[derive(Debug, Clone)]
pub struct JobError {
    /// Human-readable cause.
    pub message: String,
    /// Whether a retry of the same submission might succeed.
    pub transient: bool,
}

/// The mutable half of a job, behind one mutex.
pub struct JobInner {
    /// Lifecycle state.
    pub state: JobState,
    /// Counters the current slice publishes into (`None` between slices).
    pub live: Option<Arc<SharedCounters>>,
    /// Cancel token of the current slice (`None` between slices).
    pub slice_token: Option<CancelToken>,
    /// Spend recorded after the last finished slice (includes the
    /// checkpoint re-charge, i.e. cumulative for the job).
    pub ops: u64,
    /// Patterns noted after the last finished slice.
    pub patterns: usize,
    /// Slices run so far.
    pub slices: u32,
    /// Times the job was preempted at a checkpoint boundary and requeued.
    pub preemptions: u32,
    /// The per-slice operations increment; doubled when a slice makes no
    /// boundary progress, so re-derivation cost can never starve a job.
    pub slice_ops: u64,
    /// Progress peeked from the checkpoint after the last slice.
    pub progress: Option<SnapshotProgress>,
    /// The rendered result once `Done`.
    pub result: Option<Arc<RenderedResult>>,
    /// Fingerprint of the database `result` was mined from, set with it
    /// (`None` for a result a version-1 manifest reloaded). The manifest
    /// records it, so a restart never takes the result for one of a
    /// database since republished under the same name.
    pub fingerprint: Option<u64>,
    /// The failure once `Failed`.
    pub error: Option<JobError>,
    /// Whether the result came straight from the cache (no mining).
    pub from_cache: bool,
}

/// A submitted job. Shared between the API (status/cancel) and the
/// scheduler (slicing); all mutation goes through `inner`.
pub struct Job {
    /// Submission parameters.
    pub spec: JobSpec,
    /// Submission time — the job deadline's clock.
    pub submitted: Instant,
    /// Mutable state.
    pub inner: Mutex<JobInner>,
}

impl Job {
    /// A fresh queued job.
    pub fn new(spec: JobSpec, initial_slice_ops: u64) -> Job {
        Job {
            spec,
            submitted: Instant::now(),
            inner: Mutex::new(JobInner {
                state: JobState::Queued,
                live: None,
                slice_token: None,
                ops: 0,
                patterns: 0,
                slices: 0,
                preemptions: 0,
                slice_ops: initial_slice_ops.max(1),
                progress: None,
                result: None,
                fingerprint: None,
                error: None,
                from_cache: false,
            }),
        }
    }

    /// A job born `Done` — a cache hit, or a finished job a restart
    /// reloads — with the result mined from the database with
    /// `fingerprint`. No slice ever runs.
    pub fn from_cache(spec: JobSpec, fingerprint: Option<u64>, result: Arc<RenderedResult>) -> Job {
        let job = Job::new(spec, 1);
        {
            let mut inner = job.inner.lock().unwrap();
            inner.state = JobState::Done;
            inner.result = Some(result);
            inner.fingerprint = fingerprint;
            inner.from_cache = true;
        }
        job
    }

    /// A job restored terminal by a restart: `Failed` with `failure` as its
    /// permanent error, or `Cancelled` when `failure` is `None`.
    pub fn ended(spec: JobSpec, failure: Option<&str>) -> Job {
        let job = Job::new(spec, 1);
        {
            let mut inner = job.inner.lock().unwrap();
            inner.state = if failure.is_some() { JobState::Failed } else { JobState::Cancelled };
            inner.error = failure.map(|m| JobError { message: m.into(), transient: false });
        }
        job
    }

    /// Requests cancellation: terminal states are left alone, a queued job
    /// dies immediately, a running slice is cancelled cooperatively (the
    /// scheduler settles the state when the slice returns). Returns whether
    /// the request changed anything.
    pub fn cancel(&self) -> bool {
        let mut inner = self.inner.lock().unwrap();
        match inner.state {
            JobState::Done | JobState::Failed | JobState::Cancelled => false,
            JobState::Queued => {
                inner.state = JobState::Cancelled;
                true
            }
            JobState::Running => {
                // Mark first, then trip the token: when the slice aborts the
                // scheduler distinguishes tenant-cancel from drain-preempt by
                // this state.
                inner.state = JobState::Cancelled;
                if let Some(token) = &inner.slice_token {
                    token.cancel();
                }
                true
            }
        }
    }

    /// A point-in-time spend snapshot for `/jobs/:id`, built from the live
    /// slice's published counters while mining and from the recorded totals
    /// between slices — never from the mining thread's guard.
    pub fn budget_snapshot(&self) -> BudgetSnapshot {
        let budget = self.spec.budget();
        let elapsed = self.submitted.elapsed();
        let inner = self.inner.lock().unwrap();
        match &inner.live {
            Some(counters) => budget.snapshot(counters, elapsed),
            None => {
                let ops = inner.ops;
                let patterns = inner.patterns;
                BudgetSnapshot {
                    ops,
                    patterns,
                    elapsed,
                    ops_remaining: self.spec.max_ops.map(|m| m.saturating_sub(ops)),
                    patterns_remaining: self.spec.max_patterns.map(|m| m.saturating_sub(patterns)),
                    deadline_remaining: self.spec.deadline.map(|d| d.saturating_sub(elapsed)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            id: 1,
            tenant: "t".into(),
            db: "d".into(),
            delta: 2,
            algo: "disc-all".into(),
            mode: "all".into(),
            max_ops: Some(100),
            max_patterns: None,
            deadline: None,
            no_cache: false,
        }
    }

    #[test]
    fn cancel_settles_queued_jobs_and_is_idempotent() {
        let job = Job::new(spec(), 500);
        assert!(job.cancel());
        assert_eq!(job.inner.lock().unwrap().state, JobState::Cancelled);
        assert!(!job.cancel(), "second cancel is a no-op");
    }

    #[test]
    fn cancel_trips_the_running_slice_token() {
        let job = Job::new(spec(), 500);
        let token = CancelToken::new();
        {
            let mut inner = job.inner.lock().unwrap();
            inner.state = JobState::Running;
            inner.slice_token = Some(token.clone());
        }
        assert!(job.cancel());
        assert!(token.is_cancelled());
    }

    #[test]
    fn idle_snapshot_reports_recorded_totals_against_the_cap() {
        let job = Job::new(spec(), 500);
        {
            let mut inner = job.inner.lock().unwrap();
            inner.ops = 30;
            inner.patterns = 4;
        }
        let snap = job.budget_snapshot();
        assert_eq!(snap.ops, 30);
        assert_eq!(snap.patterns, 4);
        assert_eq!(snap.ops_remaining, Some(70));
        assert_eq!(snap.patterns_remaining, None);
    }

    #[test]
    fn cache_hit_jobs_are_born_done() {
        let result = Arc::new(RenderedResult { lines: vec![], total_patterns: 0 });
        let job = Job::from_cache(spec(), Some(7), result);
        let inner = job.inner.lock().unwrap();
        assert_eq!(inner.state, JobState::Done);
        assert!(inner.from_cache);
    }
}
