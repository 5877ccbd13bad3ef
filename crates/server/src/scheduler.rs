//! The fair scheduler: multiplexes every queued job over one shared
//! [`ParallelExecutor`] pool, preempting at checkpoint boundaries.
//!
//! ## Round structure
//!
//! The scheduler thread runs **rounds**. Each round picks at most one
//! runnable job per tenant — round-robin over tenants, starting after the
//! tenant served first in the previous round — up to the pool width, and
//! runs those slices concurrently on the executor. A tenant with ten
//! queued jobs and a tenant with one therefore get the same share of the
//! pool, not shares proportional to their queue depth.
//!
//! ## Preemption
//!
//! A slice is a guarded `Resumable` run whose operations budget is the
//! job's accumulated spend plus one increment (`slice_ops`). When the
//! budget trips, the DISC partition loop aborts cooperatively at the next
//! checkpoint, the sink flushes a durable snapshot, and the job requeues —
//! preemption *is* the checkpoint mechanism, so a preempted job loses at
//! most the work since the last partition boundary, and the resumed run is
//! bit-identical to an uninterrupted one. A slice that tripped its budget
//! without completing a new partition doubles the job's next increment:
//! re-derivation cost (re-charging the snapshot plus re-scanning the
//! interrupted partition) can exceed a small increment, and unbounded
//! doubling guarantees eventual progress for any partition size.
//!
//! ## Drain
//!
//! `drain()` cancels every running slice's token (not the jobs): slices
//! abort at their next checkpoint, flush snapshots, and requeue. The
//! scheduler thread then exits, leaving every unfinished job queued with a
//! durable checkpoint — the restart path re-submits them and `Resumable`
//! picks the snapshots up.

use crate::cache::{CacheKey, RenderedResult, ResultCache};
use crate::job::{Job, JobError, JobState, Mode};
use crate::limits::{QuotaConfig, QuotaDenial, TokenBucket};
use crate::registry::DbEntry;
use disc_algo::Checkpoints;
use disc_core::durable::{self, PublishError};
use disc_core::{
    AbortReason, CancelToken, GuardedResult, IoWriter, MinSupport, MineGuard, MineOutcome,
    ParallelExecutor, ResourceBudget, SharedCounters,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Scheduler tuning.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Executor pool width — the number of slices mined concurrently.
    pub threads: usize,
    /// Initial per-slice operations increment.
    pub slice_ops: u64,
    /// Checkpoint cadence inside a slice (`Resumable::with_every`).
    pub checkpoint_every: u64,
    /// Per-tenant quota ceilings, enforced at job admission.
    pub quotas: QuotaConfig,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            threads: 2,
            slice_ops: 2_000,
            checkpoint_every: 1,
            quotas: QuotaConfig::default(),
        }
    }
}

/// Per-tenant accounting, aggregated from finished slices.
#[derive(Debug, Clone, Copy, Default)]
pub struct TenantSpend {
    /// Jobs ever submitted.
    pub jobs: u64,
    /// Guard operations charged by this tenant's slices.
    pub ops: u64,
    /// Patterns noted by this tenant's slices.
    pub patterns: u64,
    /// Slices run.
    pub slices: u64,
}

/// A granted admission, returned by [`Scheduler::admit_job`]. While alive
/// it holds one reserved concurrency slot for its tenant (when that quota
/// is configured), so the gap between passing the gate and the job landing
/// in the scheduler's registry is closed against concurrent submissions.
/// Dropping it — normally right after [`Scheduler::submit`], or on any
/// error path in between — releases the reservation.
pub struct AdmissionPermit<'a> {
    sched: &'a Scheduler,
    /// `Some` while a concurrency slot is reserved.
    tenant: Option<String>,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        if let Some(tenant) = self.tenant.take() {
            let mut reserved = self.sched.reserved.lock().unwrap();
            if let Some(n) = reserved.get_mut(&tenant) {
                *n = n.saturating_sub(1);
                if *n == 0 {
                    reserved.remove(&tenant);
                }
            }
        }
    }
}

struct SchedState {
    /// Queued job ids in arrival order (within-tenant FIFO).
    queue: Vec<u64>,
    /// Round-robin cursor: index into the sorted tenant list of the tenant
    /// to serve *first* next round.
    next_tenant: usize,
    /// Whether a drain was requested.
    draining: bool,
    /// Live slices (so drain can count down).
    running: usize,
}

/// The scheduler: owns the queue, the executor, and the result cache.
pub struct Scheduler {
    cfg: SchedulerConfig,
    jobs_dir: PathBuf,
    executor: ParallelExecutor,
    state: Mutex<SchedState>,
    wake: Condvar,
    /// All jobs ever submitted, by id.
    jobs: Mutex<HashMap<u64, Arc<Job>>>,
    /// Per-tenant spend.
    tenants: Mutex<HashMap<String, TenantSpend>>,
    /// Per-tenant token buckets (lazily created on first submission,
    /// LRU-bounded at [`QuotaConfig::MAX_TRACKED_BUCKETS`]).
    buckets: Mutex<HashMap<String, TokenBucket>>,
    /// Concurrency slots reserved by an [`AdmissionPermit`] but not yet
    /// registered in `jobs` — the bridge that makes the concurrency check
    /// atomic across the admit → submit window.
    reserved: Mutex<HashMap<String, usize>>,
    /// The result cache.
    pub cache: Mutex<ResultCache>,
    /// Registered databases are resolved by the API layer; the scheduler
    /// only needs each job's entry, captured at submit time.
    db_of_job: Mutex<HashMap<u64, Arc<DbEntry>>>,
    /// Times a miner was actually invoked (one per slice). A cache-served
    /// query never increments this — the acceptance check for "repeat
    /// query did not re-mine" reads it.
    pub mine_invocations: AtomicU64,
    stop: AtomicBool,
    #[cfg(feature = "fault-injection")]
    faults: Mutex<PublishFaults>,
}

/// The fault hook over the server's own publishes (`fault-injection`
/// builds): the armed plan, how many publishes each writer attempted, and
/// the crash that "killed" the process once one fired.
#[cfg(feature = "fault-injection")]
#[derive(Default)]
struct PublishFaults {
    plan: Option<disc_core::FaultPlan>,
    attempts: HashMap<IoWriter, u64>,
    crashed: Option<disc_core::IoFault>,
}

impl Scheduler {
    /// A scheduler checkpointing jobs under `jobs_dir/<id>/`.
    pub fn new(cfg: SchedulerConfig, jobs_dir: PathBuf, cache_entries: usize) -> Scheduler {
        let threads = cfg.threads.max(1);
        Scheduler {
            executor: ParallelExecutor::with_threads(threads),
            cfg,
            jobs_dir,
            state: Mutex::new(SchedState {
                queue: Vec::new(),
                next_tenant: 0,
                draining: false,
                running: 0,
            }),
            wake: Condvar::new(),
            jobs: Mutex::new(HashMap::new()),
            tenants: Mutex::new(HashMap::new()),
            buckets: Mutex::new(HashMap::new()),
            reserved: Mutex::new(HashMap::new()),
            cache: Mutex::new(ResultCache::new(cache_entries)),
            db_of_job: Mutex::new(HashMap::new()),
            mine_invocations: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            #[cfg(feature = "fault-injection")]
            faults: Mutex::default(),
        }
    }

    /// Arms a [`disc_core::FaultPlan`] against the server's own publishes:
    /// `manifest` writes count per [`IoWriter::Manifest`] and `result.tsv`
    /// writes per [`IoWriter::JobResult`], each from 0. Once a crash-class
    /// fault fires, the server behaves as a killed process: no later
    /// manifest or result write reaches the disk.
    #[cfg(feature = "fault-injection")]
    pub fn arm_fault(&self, plan: disc_core::FaultPlan) {
        self.faults.lock().unwrap().plan = Some(plan);
    }

    /// Publishes one of the server's files — the `manifest` or a job's
    /// `result.tsv` — through [`durable::publish`], creating the parent
    /// directory first ([`durable::create_dir_all`]).
    pub(crate) fn publish(
        &self,
        writer: IoWriter,
        path: &Path,
        bytes: &[u8],
    ) -> Result<(), PublishError> {
        #[cfg(feature = "fault-injection")]
        let fault = {
            let mut hook = self.faults.lock().unwrap();
            if let Some(fault) = hook.crashed {
                return Err(PublishError::Crashed { path: path.to_path_buf(), fault });
            }
            let attempts = hook.attempts.entry(writer).or_default();
            let n = *attempts;
            *attempts += 1;
            hook.plan.as_ref().and_then(|plan| plan.fire_io(writer, n))
        };
        #[cfg(not(feature = "fault-injection"))]
        let fault = {
            let _ = writer;
            None
        };
        if let Some(parent) = path.parent() {
            durable::create_dir_all(parent)
                .map_err(|error| PublishError::Io { path: parent.to_path_buf(), error })?;
        }
        let published = durable::publish(path, bytes, None, fault);
        #[cfg(feature = "fault-injection")]
        if let Err(PublishError::Crashed { fault, .. }) = &published {
            self.faults.lock().unwrap().crashed = Some(*fault);
        }
        published
    }

    /// The checkpoint directory of job `id`.
    pub fn job_dir(&self, id: u64) -> PathBuf {
        self.jobs_dir.join(id.to_string())
    }

    /// Where job `id`'s rendered result persists.
    pub(crate) fn result_path(&self, id: u64) -> PathBuf {
        self.job_dir(id).join("result.tsv")
    }

    /// Quota gate, checked by the API layer *before* a job (or even a
    /// cache lookup) is admitted. Checks are ordered cheapest-first and
    /// every refusal is typed so the 429 can say which ceiling tripped:
    ///
    /// 1. **rate** — the tenant's token bucket (one token per submission);
    /// 2. **concurrency** — live (queued or running) jobs of this tenant,
    ///    plus slots already reserved by outstanding permits;
    /// 3. **cumulative ops** — the tenant's total charged operations.
    ///
    /// The rate bucket is charged even when the other checks then refuse:
    /// a tenant hammering a tripped ceiling is exactly the traffic the
    /// bucket exists to meter.
    ///
    /// On success the returned [`AdmissionPermit`] holds the tenant's
    /// concurrency slot until it is dropped — the caller keeps it alive
    /// across [`Scheduler::submit`] so concurrent submissions from one
    /// tenant cannot all pass the gate between the count and the insert
    /// (check-then-act). The count-plus-reserve happens under one lock;
    /// the brief window where a just-submitted job is counted both live
    /// and reserved errs conservative (a racing submission may see one
    /// phantom slot), never over the ceiling.
    pub fn admit_job(&self, tenant: &str) -> Result<AdmissionPermit<'_>, QuotaDenial> {
        let quotas = &self.cfg.quotas;
        if let Some(rate) = quotas.rate {
            let mut buckets = self.buckets.lock().unwrap();
            if !buckets.contains_key(tenant) && buckets.len() >= QuotaConfig::MAX_TRACKED_BUCKETS {
                // Bound the map against tenant-name rotation: evict the
                // least-recently-used bucket (see the QuotaConfig trust
                // model — this caps memory, it does not authenticate).
                if let Some(lru) =
                    buckets.iter().min_by_key(|(_, b)| b.last_used()).map(|(name, _)| name.clone())
                {
                    buckets.remove(&lru);
                }
            }
            let bucket =
                buckets.entry(tenant.to_string()).or_insert_with(|| TokenBucket::new(rate));
            if let Err(retry_after) = bucket.try_take() {
                return Err(QuotaDenial::Rate { retry_after });
            }
        }
        let mut permit = AdmissionPermit { sched: self, tenant: None };
        if let Some(limit) = quotas.max_concurrent_jobs {
            // One lock spans counting and reserving: a concurrent admit
            // for the same tenant serializes here and sees this
            // reservation, closing the admit → submit race.
            let mut reserved = self.reserved.lock().unwrap();
            let pending = reserved.get(tenant).copied().unwrap_or(0);
            let live = self
                .jobs
                .lock()
                .unwrap()
                .values()
                .filter(|j| {
                    j.spec.tenant == tenant
                        && matches!(
                            j.inner.lock().unwrap().state,
                            JobState::Queued | JobState::Running
                        )
                })
                .count();
            if live + pending >= limit {
                return Err(QuotaDenial::Concurrency { limit, live: live + pending });
            }
            *reserved.entry(tenant.to_string()).or_insert(0) += 1;
            permit.tenant = Some(tenant.to_string());
        }
        if let Some(limit) = quotas.max_cumulative_ops {
            let spent = self.tenants.lock().unwrap().get(tenant).map_or(0, |s| s.ops);
            if spent >= limit {
                return Err(QuotaDenial::CumulativeOps { limit, spent });
            }
        }
        Ok(permit)
    }

    /// Token buckets currently tracked (stats; tests assert the LRU bound).
    pub fn tracked_buckets(&self) -> usize {
        self.buckets.lock().unwrap().len()
    }

    /// Queued jobs + running slices right now — the scheduler's share of
    /// the backlog behind the load-aware `Retry-After`.
    pub fn load(&self) -> usize {
        let state = self.state.lock().unwrap();
        state.queue.len() + state.running
    }

    /// The executor pool width (capacity input to the shed estimate).
    pub fn threads(&self) -> usize {
        self.executor.threads()
    }

    /// Registers a job and, unless it is already terminal (cache hit),
    /// queues it. Also records the tenant's submission.
    pub fn submit(&self, job: Arc<Job>, db: Arc<DbEntry>) {
        let id = job.spec.id;
        self.tenants.lock().unwrap().entry(job.spec.tenant.clone()).or_default().jobs += 1;
        let terminal = job.inner.lock().unwrap().state.is_terminal();
        self.jobs.lock().unwrap().insert(id, Arc::clone(&job));
        self.db_of_job.lock().unwrap().insert(id, db);
        if !terminal {
            let mut state = self.state.lock().unwrap();
            state.queue.push(id);
            self.wake.notify_all();
        }
    }

    /// Records a job that is already terminal and has no database entry —
    /// the restart path uses this for jobs whose database failed to reload.
    pub fn submit_terminal(&self, job: Arc<Job>) {
        self.tenants.lock().unwrap().entry(job.spec.tenant.clone()).or_default().jobs += 1;
        self.jobs.lock().unwrap().insert(job.spec.id, job);
    }

    /// Looks up a job.
    pub fn job(&self, id: u64) -> Option<Arc<Job>> {
        self.jobs.lock().unwrap().get(&id).cloned()
    }

    /// All jobs, sorted by id.
    pub fn list_jobs(&self) -> Vec<Arc<Job>> {
        let mut all: Vec<_> = self.jobs.lock().unwrap().values().cloned().collect();
        all.sort_by_key(|j| j.spec.id);
        all
    }

    /// Per-tenant spend, sorted by tenant name.
    pub fn tenant_spend(&self) -> Vec<(String, TenantSpend)> {
        let mut all: Vec<_> =
            self.tenants.lock().unwrap().iter().map(|(k, v)| (k.clone(), *v)).collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }

    /// Counts of jobs per state name.
    pub fn job_state_counts(&self) -> Vec<(&'static str, usize)> {
        let mut counts: HashMap<&'static str, usize> = HashMap::new();
        for job in self.jobs.lock().unwrap().values() {
            *counts.entry(job.inner.lock().unwrap().state.name()).or_default() += 1;
        }
        let mut out: Vec<_> = counts.into_iter().collect();
        out.sort();
        out
    }

    /// Requests a graceful drain: running slices are cancelled at their
    /// next checkpoint and requeued; the scheduler loop exits once idle.
    pub fn drain(&self) {
        let mut state = self.state.lock().unwrap();
        state.draining = true;
        // Trip every live slice token. Jobs stay Running until their slice
        // returns; the settle step requeues them because their state is
        // still Running (not Cancelled) when the abort comes back.
        for job in self.jobs.lock().unwrap().values() {
            let inner = job.inner.lock().unwrap();
            if inner.state == JobState::Running {
                if let Some(token) = &inner.slice_token {
                    token.cancel();
                }
            }
        }
        self.wake.notify_all();
    }

    /// Whether a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.state.lock().unwrap().draining
    }

    /// The scheduler loop. Runs until [`Scheduler::drain`]; returns the ids
    /// of jobs left queued (checkpointed, resumable after restart).
    pub fn run_loop(&self) -> Vec<u64> {
        loop {
            let batch = {
                let mut state = self.state.lock().unwrap();
                loop {
                    // Draining: never start another slice. Jobs a drain
                    // preempted are back in the queue with durable
                    // checkpoints — exactly what the restart path wants.
                    if self.stop.load(Ordering::SeqCst) || state.draining {
                        return state.queue.clone();
                    }
                    let batch = self.pick_batch(&mut state);
                    if !batch.is_empty() {
                        state.running = batch.len();
                        break batch;
                    }
                    let (next, _) =
                        self.wake.wait_timeout(state, Duration::from_millis(200)).unwrap();
                    state = next;
                }
            };

            // One executor run per round: every picked slice mines
            // concurrently on the shared pool. The coordinator guard is
            // unlimited — per-job budgets live in the slice guards built
            // inside the task, so one job's abort cannot cancel a sibling
            // tenant's slice.
            let coordinator = MineGuard::unlimited();
            self.executor.run(&coordinator, batch, |_worker, job: Arc<Job>, _out: &mut ()| {
                self.run_slice(&job);
                Ok(())
            });
            let mut state = self.state.lock().unwrap();
            state.running = 0;
            self.wake.notify_all();
        }
    }

    /// Hard-stops the loop (tests); prefer [`Scheduler::drain`].
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake.notify_all();
    }

    /// Picks at most one queued job per tenant, round-robin starting at the
    /// cursor, bounded by the pool width. Drops cancelled ids on the floor.
    fn pick_batch(&self, state: &mut SchedState) -> Vec<Arc<Job>> {
        let jobs = self.jobs.lock().unwrap();
        state.queue.retain(|id| {
            jobs.get(id).is_some_and(|j| j.inner.lock().unwrap().state == JobState::Queued)
        });
        if state.queue.is_empty() {
            return Vec::new();
        }
        // Tenants with queued work, in sorted order for a stable rotation.
        let mut tenants: Vec<&str> =
            state.queue.iter().map(|id| jobs[id].spec.tenant.as_str()).collect();
        tenants.sort_unstable();
        tenants.dedup();
        let start = state.next_tenant % tenants.len();
        let mut picked: Vec<Arc<Job>> = Vec::new();
        let mut picked_ids: Vec<u64> = Vec::new();
        for step in 0..tenants.len() {
            if picked.len() >= self.executor.threads() {
                break;
            }
            let tenant = tenants[(start + step) % tenants.len()];
            // Oldest queued job of this tenant.
            if let Some(&id) = state.queue.iter().find(|id| jobs[id].spec.tenant.as_str() == tenant)
            {
                let job = Arc::clone(&jobs[&id]);
                job.inner.lock().unwrap().state = JobState::Running;
                picked.push(job);
                picked_ids.push(id);
            }
        }
        state.queue.retain(|id| !picked_ids.contains(id));
        if !tenants.is_empty() {
            state.next_tenant = (start + 1) % tenants.len();
        }
        picked
    }

    /// Runs one slice of `job`: build the guarded resumable miner, mine
    /// until the slice budget trips (or the job finishes), settle the
    /// outcome.
    fn run_slice(&self, job: &Arc<Job>) {
        let Some(db) = self.db_of_job.lock().unwrap().get(&job.spec.id).cloned() else {
            self.fail(job, "database entry vanished", false);
            return;
        };
        // An attached file changed in place must not be mined (its pages
        // may fault or hold rows the fingerprint never covered).
        if !db.loaded.flat.file_unchanged() {
            self.fail(job, "attached file changed in place since it was attached", false);
            return;
        }

        // Slice guard: fresh child-less token (a cancelled token cannot be
        // un-cancelled, so preempted jobs need a new one each slice), fresh
        // shared counters for lock-free status reads, and an ops budget one
        // increment above the job's accumulated spend, clamped to the
        // job-wide caps.
        let slice_target = {
            let inner = job.inner.lock().unwrap();
            let want = inner.ops.saturating_add(inner.slice_ops);
            match job.spec.max_ops {
                Some(cap) => want.min(cap),
                None => want,
            }
        };
        let mut budget = ResourceBudget::unlimited().with_max_ops(slice_target);
        if let Some(p) = job.spec.max_patterns {
            budget = budget.with_max_patterns(p);
        }
        if let Some(deadline) = job.spec.deadline {
            let remaining = deadline.saturating_sub(job.submitted.elapsed());
            if remaining.is_zero() {
                self.fail(job, "job deadline exceeded", false);
                return;
            }
            budget = budget.with_deadline(remaining);
        }
        let token = CancelToken::new();
        let counters = Arc::new(SharedCounters::new());
        let guard = MineGuard::new(token.clone(), budget)
            .with_checkpoint_interval(64)
            .with_shared_counters(Arc::clone(&counters));
        {
            let mut inner = job.inner.lock().unwrap();
            inner.slice_token = Some(token.clone());
            inner.live = Some(Arc::clone(&counters));
            inner.slices += 1;
        }

        self.mine_invocations.fetch_add(1, Ordering::Relaxed);
        let dir = self.job_dir(job.spec.id);
        let minsup = MinSupport::Count(job.spec.delta);
        let checkpoints = Checkpoints::Dir(&dir, self.cfg.checkpoint_every);
        let run = job.spec.algo.mine_loaded(&db.loaded, minsup, &guard, None, checkpoints);
        let run = run.expect("only an explicit resume rejects a snapshot");

        self.settle(job, &db, run);
    }

    /// Folds a finished slice back into the job and the books.
    fn settle(&self, job: &Arc<Job>, db: &Arc<DbEntry>, run: GuardedResult) {
        let progressed;
        let new_work;
        {
            let mut inner = job.inner.lock().unwrap();
            inner.live = None;
            inner.slice_token = None;
            let before = inner.progress.as_ref().map_or(0, |p| p.done_partitions);
            let ckpt = self.job_dir(job.spec.id).join(disc_algo::CHECKPOINT_FILE);
            inner.progress = disc_core::peek_progress(&ckpt).ok();
            let after = inner.progress.as_ref().map_or(0, |p| p.done_partitions);
            progressed = after > before;
            // Cumulative spend: a resumed slice re-charges the snapshot's
            // ops, so the slice guard's total is already job-cumulative.
            // The checkpoint's own counter is the floor — it covers the
            // `auto` case where the deciding fallback stage aborted at
            // preflight and reports near-zero stats.
            let boundary_ops = inner.progress.as_ref().map_or(0, |p| p.ops);
            let total_ops = run.stats.ops.max(boundary_ops);
            new_work = (
                total_ops.saturating_sub(inner.ops),
                run.stats.patterns.saturating_sub(inner.patterns) as u64,
            );
            inner.ops = total_ops;
            inner.patterns = inner.patterns.max(run.stats.patterns);
        }
        {
            let mut tenants = self.tenants.lock().unwrap();
            let spend = tenants.entry(job.spec.tenant.clone()).or_default();
            spend.slices += 1;
            // Charge the *new* work only: the checkpoint re-charge is
            // bookkeeping, not computation the tenant consumed again.
            spend.ops = spend.ops.saturating_add(new_work.0);
            spend.patterns = spend.patterns.saturating_add(new_work.1);
        }

        match run.outcome {
            MineOutcome::Complete => self.finish(job, db, run),
            MineOutcome::Partial { reason } => match reason {
                AbortReason::Cancelled => {
                    // Tenant cancel marked the job Cancelled before tripping
                    // the token; a drain left it Running — requeue so the
                    // checkpoint survives into the next process.
                    let mut inner = job.inner.lock().unwrap();
                    if inner.state == JobState::Running {
                        inner.state = JobState::Queued;
                        inner.preemptions += 1;
                        drop(inner);
                        self.requeue(job.spec.id);
                    }
                }
                AbortReason::BudgetExhausted => {
                    let cap = job.spec.max_ops;
                    let at_cap = cap.is_some_and(|c| run.stats.ops >= c);
                    let over_patterns =
                        job.spec.max_patterns.is_some_and(|m| run.stats.patterns >= m);
                    if at_cap || over_patterns {
                        self.fail(job, "tenant resource budget exhausted", false);
                    } else {
                        let mut inner = job.inner.lock().unwrap();
                        if !progressed {
                            // No new partition boundary: the increment was
                            // eaten by re-derivation. Double it.
                            inner.slice_ops = inner.slice_ops.saturating_mul(2);
                        }
                        if inner.state == JobState::Running {
                            inner.state = JobState::Queued;
                            inner.preemptions += 1;
                            drop(inner);
                            self.requeue(job.spec.id);
                        }
                    }
                }
                AbortReason::DeadlineExceeded => self.fail(job, "job deadline exceeded", false),
                AbortReason::Panicked => self.fail(job, "miner panicked", false),
            },
        }
    }

    /// Completes a job: translate items back, render, cache, mark Done.
    fn finish(&self, job: &Arc<Job>, db: &Arc<DbEntry>, run: GuardedResult) {
        let result = db.loaded.restore(run.result);
        let lines: Vec<(u64, String)> = match job.spec.mode {
            Mode::All => result.iter().map(|(p, s)| (s, p.to_string())).collect(),
            Mode::Closed => {
                result.closed_patterns().iter().map(|(p, s)| (*s, p.to_string())).collect()
            }
            Mode::Maximal => {
                result.maximal_patterns().iter().map(|(p, s)| (*s, p.to_string())).collect()
            }
        };
        let rendered = Arc::new(RenderedResult { lines, total_patterns: result.len() });
        self.persist_result(job.spec.id, &rendered);
        if !job.spec.no_cache {
            let key = CacheKey::of(db.loaded.fingerprint, &job.spec);
            self.cache.lock().unwrap().insert(key, Arc::clone(&rendered));
        }
        let mut inner = job.inner.lock().unwrap();
        if inner.state == JobState::Running {
            inner.state = JobState::Done;
            inner.result = Some(rendered);
            inner.fingerprint = Some(db.loaded.fingerprint);
        }
        // A cancel that raced completion stays Cancelled: the tenant asked
        // for the job to die and the result was never exposed.
    }

    fn fail(&self, job: &Arc<Job>, message: &str, transient: bool) {
        let mut inner = job.inner.lock().unwrap();
        if !inner.state.is_terminal() {
            inner.state = JobState::Failed;
            inner.error = Some(JobError { message: message.to_string(), transient });
        }
    }

    fn requeue(&self, id: u64) {
        let mut state = self.state.lock().unwrap();
        state.queue.push(id);
        self.wake.notify_all();
    }

    /// Writes a mined job's rendered lines next to its checkpoint, so a
    /// restarted server can serve results for jobs that completed before
    /// the restart. Only mined jobs have a `result.tsv`: a cache hit's
    /// durable record is its manifest line, and a restart serves it the
    /// result file of the job that mined the same query. Failure is logged,
    /// not fatal — the in-memory result still serves this process, and a
    /// restart re-mines a `done` job whose result no file holds.
    fn persist_result(&self, id: u64, result: &RenderedResult) {
        let path = self.result_path(id);
        if let Err(e) = self.publish(IoWriter::JobResult, &path, &result.render(1, 0, usize::MAX)) {
            eprintln!("disc-server: cannot persist result for job {id}: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limits::RateLimit;

    fn sched(quotas: QuotaConfig) -> Scheduler {
        let cfg = SchedulerConfig { threads: 1, quotas, ..SchedulerConfig::default() };
        let dir = std::env::temp_dir().join(format!("disc-sched-ut-{}", std::process::id()));
        Scheduler::new(cfg, dir, 4)
    }

    #[test]
    fn admission_permit_reserves_the_concurrency_slot_until_dropped() {
        let s = sched(QuotaConfig { max_concurrent_jobs: Some(1), ..QuotaConfig::default() });
        // No job is ever registered: the permit alone must hold the slot,
        // exactly the admit → submit window the reservation closes.
        let first = s.admit_job("t").expect("first admission fits the ceiling");
        match s.admit_job("t") {
            Err(QuotaDenial::Concurrency { limit: 1, live: 1 }) => {}
            Err(other) => panic!("expected a concurrency denial, got {other:?}"),
            Ok(_) => panic!("second admission must be denied while the permit lives"),
        }
        // Another tenant's slot is unaffected.
        let _other = s.admit_job("u").expect("tenants reserve independently");
        drop(first);
        let _again = s.admit_job("t").expect("dropping the permit frees the slot");
    }

    #[test]
    fn token_buckets_are_lru_bounded_under_tenant_rotation() {
        let s = sched(QuotaConfig {
            rate: Some(RateLimit { burst: 5, per_sec: 0.0 }),
            ..QuotaConfig::default()
        });
        for i in 0..QuotaConfig::MAX_TRACKED_BUCKETS + 50 {
            let _ = s.admit_job(&format!("rotating-{i}"));
        }
        assert!(
            s.tracked_buckets() <= QuotaConfig::MAX_TRACKED_BUCKETS,
            "rotating tenant names must not grow the bucket map without bound \
             (got {})",
            s.tracked_buckets()
        );
    }
}
