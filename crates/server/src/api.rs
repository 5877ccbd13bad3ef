//! The server: TCP accept loop, bounded handler pool, request routing,
//! manifest persistence, and graceful drain.
//!
//! ## Endpoints
//!
//! | method & path            | action                                        |
//! |--------------------------|-----------------------------------------------|
//! | `GET /healthz`           | liveness                                      |
//! | `GET /readyz`            | readiness (503 + `Retry-After` when draining or saturated) |
//! | `GET /stats`             | cache/miner/job counters                      |
//! | `POST /dbs?name=N`       | register database (body upload, or `attach=PATH`) |
//! | `GET /dbs`, `GET /dbs/N` | list / inspect databases                      |
//! | `POST /jobs?db=N&...`    | submit a mining job (cache-served when possible) |
//! | `GET /jobs`, `GET /jobs/I` | list / poll jobs (budget snapshot, progress) |
//! | `GET /jobs/I/result`     | fetch result lines (`offset`/`limit`/`min_length`) |
//! | `POST /jobs/I/cancel`, `DELETE /jobs/I` | cancel                         |
//! | `GET /tenants`           | per-tenant spend                              |
//! | `GET /admin/stats`       | overload snapshot (sheds, queue depth, quota denials) |
//! | `POST /admin/drain`      | graceful drain (same path as SIGTERM)         |
//!
//! ## Admission
//!
//! No thread is ever spawned per connection: accepted sockets enter a
//! bounded [`ConnQueue`] drained by a fixed pool of
//! [`LimitsConfig::max_connections`] handler threads. A socket arriving at
//! a full queue is shed with one 503 whose `Retry-After` is computed from
//! the observed backlog ([`crate::limits::retry_after_secs`]) — never the
//! old hardcoded `1`. Accepted sockets get per-read deadlines before any
//! byte is parsed, and the parser enforces an absolute per-request budget
//! ([`crate::limits::LimitsConfig::request_deadline`]) on top — so a
//! slow-loris client, whether fully silent or trickling bytes to renew
//! the per-read timer, holds a handler thread for at most the request
//! deadline plus one in-flight read before its 408. Per-request byte caps
//! refuse oversized heads/bodies with 413 before buffering. The listener
//! blocks in `accept()`, so an arriving connection is admitted at once;
//! transient `accept()` failures (`EMFILE`/`ENFILE`-class) are logged and
//! retried with bounded backoff instead of killing the server. See
//! `ALGORITHM.md` §17.
//!
//! ## Durability
//!
//! The data directory holds everything a restart needs: uploaded databases
//! (`dbs/<name>.dscdb`), per-job checkpoints and results
//! (`jobs/<id>/mine.dscck`, `jobs/<id>/result.tsv`), and a line-based
//! `manifest` recording databases, jobs, and the id counter. Only mined
//! jobs have a `result.tsv`. A cache hit's one durable write is its
//! manifest line, which records the fingerprint of the database it was
//! answered against; a restart serves the hit the result file of the
//! job that mined the same query under that fingerprint, and re-mines
//! only when no such file survived. Checkpoints, results and the
//! manifest are all published through [`disc_core::durable::publish`],
//! so a crash leaves each old or new, never torn, and each new
//! `jobs/<id>/` directory is made durable by
//! [`disc_core::durable::create_dir_all`]. SIGTERM and
//! `POST /admin/drain` both go through `Server::begin_drain`: running
//! slices are cancelled at their next checkpoint boundary, the blocked
//! `accept()` is woken by a connection to the listener, slices requeue
//! with durable snapshots, and the manifest is written; a restarted server
//! reloads the manifest and the requeued jobs resume from their snapshots
//! — bit-identical to never having been interrupted, by the checkpoint
//! layer's guarantee.

use crate::cache::{CacheKey, RenderedResult};
use crate::chaos::{ChaosConfig, ChaosLedger, ChaosStream};
use crate::http::{json_escape, read_request, HttpError, Request, RequestLimits, Response};
use crate::job::{Job, JobError, JobSpec, JobState};
use crate::limits::{
    is_transient_accept_error, retry_after_secs, AdmissionStats, ConnQueue, LimitsConfig,
};
use crate::registry::{valid_name, DbRegistry, DbSource, RegisterError};
use crate::scheduler::{valid_algo, valid_mode, Scheduler, SchedulerConfig};
use crate::signal;
use crate::status::{error_response, plain_error, quota_response, shed_response};
use disc_core::{DiscError, IoWriter, MinSupport, RetryPolicy};
use std::collections::HashMap;
use std::io::Read;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7031`. Port 0 picks a free port
    /// (reported by [`Server::local_addr`]).
    pub addr: String,
    /// Root of all persisted state.
    pub data_dir: PathBuf,
    /// Scheduler tuning (including per-tenant quotas).
    pub scheduler: SchedulerConfig,
    /// Result-cache capacity, in entries.
    pub cache_entries: usize,
    /// Default per-job operations cap applied when a submission carries no
    /// `max_ops` — the per-tenant budget backstop.
    pub default_max_ops: Option<u64>,
    /// Network admission limits: pool width, queue depth, byte caps,
    /// deadlines.
    pub limits: LimitsConfig,
    /// When set, every accepted connection is wrapped in a seeded
    /// [`ChaosStream`] — the deterministic network-fault harness. Test/CI
    /// only; never set in production.
    pub chaos: Option<ChaosConfig>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            data_dir: PathBuf::from("disc-server-data"),
            scheduler: SchedulerConfig::default(),
            cache_entries: 64,
            default_max_ops: None,
            limits: LimitsConfig::default(),
            chaos: None,
        }
    }
}

struct Shared {
    cfg: ServerConfig,
    registry: Mutex<DbRegistry>,
    sched: Arc<Scheduler>,
    next_job: AtomicU64,
    started: Instant,
    bound: Mutex<Option<SocketAddr>>,
    /// Serializes manifest writes: concurrent submissions would otherwise
    /// race on the shared `manifest.tmp` staging name.
    manifest_lock: Mutex<()>,
    /// The bounded accept queue feeding the handler pool.
    queue: Arc<ConnQueue>,
    /// Admission counters behind `GET /admin/stats`.
    stats: AdmissionStats,
    /// Fault counter when the chaos harness is active.
    chaos_ledger: ChaosLedger,
    /// Connections ever admitted — the per-connection chaos-seed ordinal.
    conn_ordinal: AtomicU64,
}

/// The mining server. Cheap to clone (shared state behind an `Arc`);
/// construct, then call [`Server::run`] — typically from a dedicated
/// thread, since it blocks until drain.
#[derive(Clone)]
pub struct Server {
    shared: Arc<Shared>,
}

impl Server {
    /// Builds a server over `cfg.data_dir`, reloading any manifest a
    /// previous process left there.
    pub fn new(cfg: ServerConfig) -> Server {
        let sched = Arc::new(Scheduler::new(
            cfg.scheduler.clone(),
            cfg.data_dir.join("jobs"),
            cfg.cache_entries,
        ));
        let registry = Mutex::new(DbRegistry::new(cfg.data_dir.join("dbs")));
        let queue = Arc::new(ConnQueue::new(cfg.limits.queue_depth));
        let server = Server {
            shared: Arc::new(Shared {
                cfg,
                registry,
                sched,
                next_job: AtomicU64::new(1),
                started: Instant::now(),
                bound: Mutex::new(None),
                manifest_lock: Mutex::new(()),
                queue,
                stats: AdmissionStats::default(),
                chaos_ledger: ChaosLedger::default(),
                conn_ordinal: AtomicU64::new(0),
            }),
        };
        server.load_manifest();
        server
    }

    /// The bound address once [`Server::run`] has bound its listener.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        *self.shared.bound.lock().unwrap()
    }

    /// The scheduler (stats surface for benches and tests).
    pub fn scheduler(&self) -> &Scheduler {
        &self.shared.sched
    }

    /// Binds, serves until a drain (SIGTERM or `POST /admin/drain`)
    /// completes, persists the manifest, and returns the ids of the jobs
    /// left queued with checkpoints.
    pub fn run(&self) -> std::io::Result<Vec<u64>> {
        signal::install_termination_flag();
        let listener = TcpListener::bind(&self.shared.cfg.addr)?;
        *self.shared.bound.lock().unwrap() = Some(listener.local_addr()?);

        let sched = Arc::clone(&self.shared.sched);
        let sched_thread = std::thread::spawn(move || sched.run_loop());

        // The signal handler can only flip a flag; this watcher turns it
        // into a drain. It polls off the request path and exits once the
        // server is draining, whichever way the drain began.
        let watcher = {
            let server = self.clone();
            std::thread::spawn(move || {
                while !server.shared.sched.is_draining() {
                    if signal::termination_requested() {
                        server.begin_drain();
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(15));
                }
            })
        };

        // The fixed handler pool: each worker blocks on the bounded queue
        // and serves one connection at a time. Pool width — not arrival
        // rate — bounds concurrent request handling.
        let workers: Vec<_> = (0..self.shared.cfg.limits.max_connections.max(1))
            .map(|_| {
                let server = self.clone();
                std::thread::spawn(move || {
                    while let Some(stream) = server.shared.queue.pop() {
                        server.handle_connection(stream);
                    }
                })
            })
            .collect();

        // Accept blocks; `begin_drain` wakes it with a connection of its
        // own. Checking the flag before each accept also catches a drain
        // that began before the listener was bound. Transient accept()
        // failures (EMFILE/ENFILE-class) back off and retry with the guard
        // layer's jittered policy instead of killing the listener; only a
        // persistent non-transient failure is fatal.
        let accept_retry = RetryPolicy::default();
        let mut accept_failures: u32 = 0;
        while !self.shared.sched.is_draining() {
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.shared.sched.is_draining() {
                        // The wake-up, or a client racing the drain:
                        // refused, like a connection left in the backlog.
                        break;
                    }
                    accept_failures = 0;
                    self.shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
                    self.admit(stream);
                }
                Err(e) if is_transient_accept_error(&e) => {
                    self.shared.stats.accept_retries.fetch_add(1, Ordering::Relaxed);
                    accept_failures = accept_failures.saturating_add(1);
                    eprintln!(
                        "disc-server: transient accept failure (attempt {accept_failures}): {e}"
                    );
                    // Bounded backoff: fd exhaustion clears as handlers
                    // close connections, so waiting — not exiting — is
                    // the right response.
                    std::thread::sleep(
                        accept_retry.delay(accept_failures.min(8), disc_core::fresh_retry_salt()),
                    );
                }
                Err(e) => return Err(e),
            }
        }

        // Drain: stop admitting, let the pool finish queued connections,
        // then wait for the scheduler loop to checkpoint and requeue its
        // running slices. Then persist the manifest so the next process
        // resumes them.
        let _ = watcher.join();
        self.shared.queue.shutdown();
        for worker in workers {
            let _ = worker.join();
        }
        let queued = sched_thread.join().unwrap_or_default();
        self.persist_manifest();
        Ok(queued)
    }

    /// The one drain entry, shared by `POST /admin/drain` and the signal
    /// watcher: marks the scheduler draining (running slices checkpoint and
    /// requeue), then wakes the blocked `accept` in [`Server::run`] by
    /// connecting to the listener. Scoped to this server, not the
    /// process-global signal flag, so co-resident servers drain
    /// independently.
    fn begin_drain(&self) {
        self.shared.sched.drain();
        let Some(mut addr) = self.local_addr() else {
            return; // not bound yet: `run` sees the flag before its first accept
        };
        if addr.ip().is_unspecified() {
            let loopback: IpAddr = match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            };
            addr.set_ip(loopback);
        }
        if let Err(e) = TcpStream::connect_timeout(&addr, Duration::from_secs(5)) {
            eprintln!("disc-server: drain could not wake the accept loop at {addr}: {e}");
        }
    }

    /// Deadline-stamps an accepted socket and enqueues it for the pool, or
    /// sheds it with a computed `Retry-After` when the queue is full.
    fn admit(&self, stream: TcpStream) {
        let limits = &self.shared.cfg.limits;
        let _ = stream.set_read_timeout(Some(limits.read_timeout));
        let _ = stream.set_write_timeout(Some(limits.write_timeout));
        if let Err(mut rejected) = self.shared.queue.push(stream) {
            self.shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            shed_response(self.current_retry_after()).send(&mut rejected);
        }
    }

    /// The load-aware `Retry-After`: backlog is everything waiting (queued
    /// connections + queued/running jobs), capacity is what retires it
    /// concurrently (handler pool + mining pool).
    fn current_retry_after(&self) -> u32 {
        let backlog = self.shared.queue.depth() + self.shared.sched.load();
        let capacity = self.shared.cfg.limits.max_connections + self.shared.sched.threads();
        retry_after_secs(backlog, capacity)
    }

    fn handle_connection(&self, mut stream: TcpStream) {
        match self.shared.cfg.chaos {
            Some(chaos) => {
                let ordinal = self.shared.conn_ordinal.fetch_add(1, Ordering::Relaxed);
                let mut wrapped = ChaosStream::new(stream, chaos, chaos.connection_seed(ordinal))
                    .with_ledger(&self.shared.chaos_ledger);
                self.handle_stream(&mut wrapped);
            }
            None => self.handle_stream(&mut stream),
        }
    }

    /// Serves one request over any stream (bare socket or chaos-wrapped).
    /// Every parse failure maps to a typed status; only a vanished peer
    /// gets silence.
    fn handle_stream<S: Read + std::io::Write>(&self, stream: &mut S) {
        let request_limits = RequestLimits {
            max_head_bytes: self.shared.cfg.limits.max_head_bytes,
            max_body_bytes: self.shared.cfg.limits.max_body_bytes,
            request_deadline: self.shared.cfg.limits.request_deadline,
        };
        let response = match read_request(stream, &request_limits) {
            Ok(req) => self.route(&req),
            Err(HttpError::BodyTooLarge(n)) => {
                self.shared.stats.too_large.fetch_add(1, Ordering::Relaxed);
                plain_error(413, &format!("body of {n} bytes exceeds the upload limit"))
            }
            Err(HttpError::HeadTooLarge(n)) => {
                self.shared.stats.too_large.fetch_add(1, Ordering::Relaxed);
                plain_error(413, &format!("request head of {n}+ bytes exceeds the limit"))
            }
            Err(HttpError::Timeout) => {
                self.shared.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                plain_error(408, "request not received within the read deadline")
            }
            Err(HttpError::Malformed(what)) => plain_error(400, what),
            // Response-side only (the client's read_response cap) — the
            // request parser never produces it, but the error type is
            // shared and the server must answer something, not panic.
            Err(HttpError::ResponseTooLarge(_)) => plain_error(500, "unexpected parser state"),
            Err(HttpError::Io(_)) => return, // client went away mid-request
        };
        response.send(stream);
    }

    // ---------------------------------------------------------------
    // Routing.

    fn route(&self, req: &Request) -> Response {
        let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        match (req.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz"]) => Response::json(200, "{\"status\":\"ok\"}".into()),
            ("GET", ["readyz"]) => self.get_readyz(),
            ("GET", ["stats"]) => self.get_stats(),
            ("GET", ["admin", "stats"]) => self.get_admin_stats(),
            ("POST", ["dbs"]) => self.post_db(req),
            ("GET", ["dbs"]) => self.list_dbs(),
            ("GET", ["dbs", name]) => self.get_db(name),
            ("POST", ["jobs"]) => self.post_job(req),
            ("GET", ["jobs"]) => self.list_jobs(),
            ("GET", ["jobs", id]) => self.with_job(id, |job| self.job_status(&job)),
            ("GET", ["jobs", id, "result"]) => self.with_job(id, |job| self.job_result(&job, req)),
            ("POST", ["jobs", id, "cancel"]) | ("DELETE", ["jobs", id]) => {
                self.with_job(id, |job| {
                    job.cancel();
                    self.job_status(&job)
                })
            }
            ("GET", ["tenants"]) => self.get_tenants(),
            ("POST", ["admin", "drain"]) => {
                self.begin_drain();
                Response::json(200, "{\"draining\":true}".into())
            }
            (_, ["healthz" | "readyz" | "stats" | "dbs" | "jobs" | "tenants", ..]) => {
                plain_error(405, "method not allowed on this resource")
            }
            _ => plain_error(404, "no such resource"),
        }
    }

    fn with_job(&self, id: &str, f: impl FnOnce(Arc<Job>) -> Response) -> Response {
        match id.parse::<u64>().ok().and_then(|id| self.shared.sched.job(id)) {
            Some(job) => f(job),
            None => plain_error(404, "no such job"),
        }
    }

    // ---------------------------------------------------------------
    // Databases.

    fn post_db(&self, req: &Request) -> Response {
        let Some(name) = req.param("name") else {
            return plain_error(400, "missing required parameter: name");
        };
        let result = match req.param("attach") {
            Some(path) => {
                self.shared.registry.lock().unwrap().register_attach(name, Path::new(path))
            }
            None => self.shared.registry.lock().unwrap().register_upload(name, &req.body, true),
        };
        match result {
            Ok(entry) => {
                self.persist_manifest();
                Response::json(201, db_json(&entry))
            }
            Err(RegisterError::Conflict(message)) => plain_error(409, &message),
            Err(RegisterError::Disc(e)) => error_response(&e),
        }
    }

    fn list_dbs(&self) -> Response {
        let body: Vec<String> =
            self.shared.registry.lock().unwrap().list().iter().map(|e| db_json(e)).collect();
        Response::json(200, format!("[{}]", body.join(",")))
    }

    fn get_db(&self, name: &str) -> Response {
        match self.shared.registry.lock().unwrap().get(name) {
            Some(entry) => Response::json(200, db_json(&entry)),
            None => plain_error(404, "no such database"),
        }
    }

    // ---------------------------------------------------------------
    // Jobs.

    fn post_job(&self, req: &Request) -> Response {
        let Some(db_name) = req.param("db") else {
            return plain_error(400, "missing required parameter: db");
        };
        let Some(db) = self.shared.registry.lock().unwrap().get(db_name) else {
            return plain_error(404, "no such database");
        };
        let tenant = req.param("tenant").unwrap_or("default");
        if !valid_name(tenant) {
            return bad_param("tenant", "1-64 chars of [A-Za-z0-9._-]");
        }
        // Quota gate before anything expensive — even the cache lookup.
        // The refusal is typed (429, quota name in the body) so clients
        // can tell "back off" from "budget spent". The permit reserves
        // the tenant's concurrency slot until submit() registers the job
        // (it drops at the end of this function), so concurrent
        // submissions cannot slip past the ceiling between check and
        // insert.
        let _permit = match self.shared.sched.admit_job(tenant) {
            Ok(permit) => permit,
            Err(denial) => {
                self.shared.stats.quota_denials.fetch_add(1, Ordering::Relaxed);
                return quota_response(&denial);
            }
        };
        let algo = req.param("algo").unwrap_or("disc-all");
        if !valid_algo(algo) {
            return bad_param("algo", "one of disc-all, dynamic, parallel, auto");
        }
        let mode = req.param("mode").unwrap_or("all");
        if !valid_mode(mode) {
            return bad_param("mode", "one of all, closed, maximal");
        }
        // Threshold: `delta=COUNT` or `minsup=FRACTION` (CLI default 0.01),
        // resolved to δ immediately — the cache key and checkpoint both
        // speak resolved counts.
        let delta = match (req.param("delta"), req.param("minsup")) {
            (Some(_), Some(_)) => {
                return bad_param("minsup", "give either minsup or delta, not both");
            }
            (Some(d), None) => match d.parse::<u64>() {
                Ok(d) => d,
                Err(_) => return bad_param("delta", "not a count"),
            },
            (None, fraction) => {
                let f = match fraction.map(str::parse::<f64>).transpose() {
                    Ok(f) => f.unwrap_or(0.01),
                    Err(_) => return bad_param("minsup", "not a number"),
                };
                if !(0.0..=1.0).contains(&f) {
                    return bad_param("minsup", "must be within [0, 1]");
                }
                MinSupport::Fraction(f).resolve(db.loaded.flat.len())
            }
        };
        let max_ops = match parse_opt::<u64>(req, "max_ops") {
            Ok(v) => v.or(self.shared.cfg.default_max_ops),
            Err(r) => return r,
        };
        let max_patterns = match parse_opt::<usize>(req, "max_patterns") {
            Ok(v) => v,
            Err(r) => return r,
        };
        let deadline = match parse_opt::<u64>(req, "deadline_ms") {
            Ok(v) => v.map(Duration::from_millis),
            Err(r) => return r,
        };

        let spec = JobSpec {
            id: self.shared.next_job.fetch_add(1, Ordering::SeqCst),
            tenant: tenant.to_string(),
            db: db_name.to_string(),
            delta,
            algo: algo.to_string(),
            mode: mode.to_string(),
            max_ops,
            max_patterns,
            deadline,
            no_cache: req.flag("nocache"),
        };

        // Cache first: a repeat query is answered without any miner
        // invocation (the `mine_invocations` counter attests to that). A
        // hit writes no result file: the manifest line below is its one
        // durable record, and a restart serves it the mined job's file.
        let fingerprint = db.loaded.fingerprint;
        let cached = if spec.no_cache {
            None
        } else {
            self.shared.sched.cache.lock().unwrap().get(&CacheKey::of(fingerprint, &spec))
        };
        let (status, job) = match cached {
            Some(result) => (200, Job::from_cache(spec, Some(fingerprint), result)),
            None => (202, Job::new(spec, self.shared.cfg.scheduler.slice_ops)),
        };
        let job = Arc::new(job);
        self.shared.sched.submit(Arc::clone(&job), db);
        self.persist_manifest();
        Response::json(status, self.job_status_json(&job))
    }

    fn list_jobs(&self) -> Response {
        let body: Vec<String> =
            self.shared.sched.list_jobs().iter().map(|j| self.job_status_json(j)).collect();
        Response::json(200, format!("[{}]", body.join(",")))
    }

    fn job_status(&self, job: &Arc<Job>) -> Response {
        Response::json(200, self.job_status_json(job))
    }

    fn job_status_json(&self, job: &Arc<Job>) -> String {
        let snap = job.budget_snapshot();
        let inner = job.inner.lock().unwrap();
        let progress = match &inner.progress {
            Some(p) => format!(
                "{{\"done_partitions\":{},\"patterns\":{},\"ops\":{}}}",
                p.done_partitions, p.patterns, p.ops
            ),
            None => "null".into(),
        };
        let error = match &inner.error {
            Some(JobError { message, transient }) => {
                format!("{{\"message\":\"{}\",\"transient\":{transient}}}", json_escape(message))
            }
            None => "null".into(),
        };
        let result_lines = match &inner.result {
            Some(r) => r.lines.len().to_string(),
            None => "null".into(),
        };
        format!(
            "{{\"id\":{},\"tenant\":\"{}\",\"db\":\"{}\",\"delta\":{},\"algo\":\"{}\",\
             \"mode\":\"{}\",\"state\":\"{}\",\"cached\":{},\"slices\":{},\"preemptions\":{},\
             \"budget\":{{\"ops\":{},\"patterns\":{},\"elapsed_ms\":{},\"ops_remaining\":{},\
             \"patterns_remaining\":{},\"deadline_remaining_ms\":{}}},\
             \"progress\":{progress},\"result_lines\":{result_lines},\"error\":{error}}}",
            job.spec.id,
            json_escape(&job.spec.tenant),
            json_escape(&job.spec.db),
            job.spec.delta,
            job.spec.algo,
            job.spec.mode,
            inner.state.name(),
            inner.from_cache,
            inner.slices,
            inner.preemptions,
            snap.ops,
            snap.patterns,
            snap.elapsed.as_millis(),
            opt_json(snap.ops_remaining),
            opt_json(snap.patterns_remaining),
            opt_json(snap.deadline_remaining.map(|d| d.as_millis())),
        )
    }

    fn job_result(&self, job: &Arc<Job>, req: &Request) -> Response {
        let offset = match parse_opt::<usize>(req, "offset") {
            Ok(v) => v.unwrap_or(0),
            Err(r) => return r,
        };
        let limit = match parse_opt::<usize>(req, "limit") {
            Ok(v) => v.unwrap_or(usize::MAX),
            Err(r) => return r,
        };
        let min_length = match parse_opt::<usize>(req, "min_length") {
            Ok(v) => v.unwrap_or(1),
            Err(r) => return r,
        };
        let inner = job.inner.lock().unwrap();
        match inner.state {
            JobState::Done => {
                let result = inner.result.as_ref().expect("done jobs have results");
                Response::text(200, result.render(min_length, offset, limit))
            }
            JobState::Failed => {
                let err = inner
                    .error
                    .clone()
                    .unwrap_or(JobError { message: "failed".into(), transient: false });
                // Ride the DiscError mapping so transient failures carry
                // Retry-After exactly like every other 503.
                error_response(&DiscError::Io {
                    path: PathBuf::from(format!("jobs/{}", job.spec.id)),
                    message: err.message,
                    transient: err.transient,
                })
            }
            state => plain_error(
                409,
                &format!("job is {}; results exist only once it is done", state.name()),
            ),
        }
    }

    // ---------------------------------------------------------------
    // Observability.

    /// Readiness: 200 while accepting load, 503 + computed `Retry-After`
    /// while draining or while the accept queue is saturated — the signal
    /// a load balancer uses to route around this instance.
    fn get_readyz(&self) -> Response {
        let draining = self.shared.sched.is_draining();
        let saturated = self.shared.queue.depth() >= self.shared.cfg.limits.queue_depth;
        if draining || saturated {
            let reason = if draining { "draining" } else { "saturated" };
            let retry = self.current_retry_after();
            return Response::json(
                503,
                format!("{{\"ready\":false,\"reason\":\"{reason}\",\"retry_after\":{retry}}}"),
            )
            .with_header("Retry-After", retry.to_string());
        }
        Response::json(200, "{\"ready\":true}".into())
    }

    /// The overload snapshot: admission counters, live queue depth, the
    /// `Retry-After` a shed would advertise right now, chaos faults (when
    /// the harness is active), and per-tenant spend.
    fn get_admin_stats(&self) -> Response {
        let s = &self.shared.stats;
        let tenants: Vec<String> = self
            .shared
            .sched
            .tenant_spend()
            .iter()
            .map(|(tenant, t)| {
                format!(
                    "{{\"tenant\":\"{}\",\"jobs\":{},\"ops\":{},\"patterns\":{}}}",
                    json_escape(tenant),
                    t.jobs,
                    t.ops,
                    t.patterns
                )
            })
            .collect();
        Response::json(
            200,
            format!(
                "{{\"accepted\":{},\"shed\":{},\"too_large\":{},\"timeouts\":{},\
                 \"quota_denials\":{},\"accept_retries\":{},\"queue_depth\":{},\
                 \"scheduler_load\":{},\"retry_after_now\":{},\"chaos_faults\":{},\
                 \"tracked_buckets\":{},\"tenants\":[{}]}}",
                s.accepted.load(Ordering::Relaxed),
                s.shed.load(Ordering::Relaxed),
                s.too_large.load(Ordering::Relaxed),
                s.timeouts.load(Ordering::Relaxed),
                s.quota_denials.load(Ordering::Relaxed),
                s.accept_retries.load(Ordering::Relaxed),
                self.shared.queue.depth(),
                self.shared.sched.load(),
                self.current_retry_after(),
                self.shared.chaos_ledger.injected(),
                self.shared.sched.tracked_buckets(),
                tenants.join(","),
            ),
        )
    }

    fn get_stats(&self) -> Response {
        let (hits, misses, entries) = self.shared.sched.cache.lock().unwrap().stats();
        let jobs: Vec<String> = self
            .shared
            .sched
            .job_state_counts()
            .iter()
            .map(|(state, n)| format!("\"{state}\":{n}"))
            .collect();
        Response::json(
            200,
            format!(
                "{{\"uptime_ms\":{},\"mine_invocations\":{},\"draining\":{},\
                 \"cache\":{{\"hits\":{hits},\"misses\":{misses},\"entries\":{entries}}},\
                 \"jobs\":{{{}}}}}",
                self.shared.started.elapsed().as_millis(),
                self.shared.sched.mine_invocations.load(Ordering::Relaxed),
                self.shared.sched.is_draining(),
                jobs.join(","),
            ),
        )
    }

    fn get_tenants(&self) -> Response {
        let body: Vec<String> = self
            .shared
            .sched
            .tenant_spend()
            .iter()
            .map(|(tenant, s)| {
                format!(
                    "{{\"tenant\":\"{}\",\"jobs\":{},\"slices\":{},\"ops\":{},\"patterns\":{}}}",
                    json_escape(tenant),
                    s.jobs,
                    s.slices,
                    s.ops,
                    s.patterns
                )
            })
            .collect();
        Response::json(200, format!("[{}]", body.join(",")))
    }

    // ---------------------------------------------------------------
    // Persistence: manifest + per-job results.

    fn manifest_path(&self) -> PathBuf {
        self.shared.cfg.data_dir.join("manifest")
    }

    /// Serializes registry + jobs + id counter to `manifest`, atomically.
    pub fn persist_manifest(&self) {
        let _guard = self.shared.manifest_lock.lock().unwrap();
        let mut out = String::from("v2\n");
        out.push_str(&format!("nextjob {}\n", self.shared.next_job.load(Ordering::SeqCst)));
        for entry in self.shared.registry.lock().unwrap().list() {
            match &entry.source {
                DbSource::Upload => out.push_str(&format!("db {} upload\n", entry.name)),
                DbSource::Attach(path) => out.push_str(&format!(
                    "db {} attach {}\n",
                    entry.name,
                    percent_encode(&path.to_string_lossy())
                )),
            }
        }
        for job in self.shared.sched.list_jobs() {
            let inner = job.inner.lock().unwrap();
            // Running collapses to queued: by the time the manifest is
            // written (post-drain), a running state means the process died
            // un-drained; the checkpoint still resumes it.
            let state = match inner.state {
                JobState::Running => JobState::Queued,
                s => s,
            };
            let s = &job.spec;
            out.push_str(&format!(
                "job {} {} {} {} {} {} {} {} {} {} {}\n",
                s.id,
                s.tenant,
                s.db,
                s.delta,
                s.algo,
                s.mode,
                s.max_ops.map_or("-".into(), |v| v.to_string()),
                s.max_patterns.map_or("-".into(), |v| v.to_string()),
                u8::from(s.no_cache),
                state.name(),
                inner.fingerprint.map_or("-".into(), |fp| format!("{fp:016x}")),
            ));
        }
        let path = self.manifest_path();
        if let Err(e) = self.shared.sched.publish(IoWriter::Manifest, &path, out.as_bytes()) {
            eprintln!("disc-server: cannot persist manifest: {e}");
        }
    }

    /// Reloads the manifest a previous process wrote: databases re-register
    /// from their persisted sources, queued jobs re-submit (their
    /// checkpoints auto-resume), finished jobs reload their rendered
    /// results. A database that no longer loads fails its dependent jobs
    /// rather than the whole server.
    ///
    /// Version 2 job lines end with the fingerprint of the database the
    /// job was answered against (`-` before it is). Version 1 lines have
    /// none: their results serve their own jobs and warm nothing.
    fn load_manifest(&self) {
        let Ok(text) = std::fs::read_to_string(self.manifest_path()) else {
            return;
        };
        let mut lines = text.lines();
        if !matches!(lines.next(), Some("v1" | "v2")) {
            eprintln!("disc-server: unrecognized manifest version; starting fresh");
            return;
        }
        // Every result this reload read, by the key it answers. Lines are
        // sorted by id, so a cache hit, which has no file of its own, comes
        // after the job that mined its result.
        let mut results = HashMap::new();
        for line in lines {
            let fields: Vec<&str> = line.split(' ').collect();
            match fields.as_slice() {
                ["nextjob", n] => {
                    if let Ok(n) = n.parse::<u64>() {
                        self.shared.next_job.store(n, Ordering::SeqCst);
                    }
                }
                ["db", name, "upload"] => {
                    let path = self.shared.registry.lock().unwrap().upload_path(name);
                    match std::fs::read(&path) {
                        Ok(bytes) => {
                            if let Err(e) = self
                                .shared
                                .registry
                                .lock()
                                .unwrap()
                                .register_upload(name, &bytes, false)
                            {
                                eprintln!("disc-server: cannot reload db {name}: {e:?}");
                            }
                        }
                        Err(e) => eprintln!("disc-server: cannot reload db {name}: {e}"),
                    }
                }
                ["db", name, "attach", encoded] => {
                    let Some(path) = crate::http::percent_decode(encoded) else {
                        eprintln!("disc-server: bad attach path for db {name}");
                        continue;
                    };
                    if let Err(e) =
                        self.shared.registry.lock().unwrap().register_attach(name, Path::new(&path))
                    {
                        eprintln!("disc-server: cannot re-attach db {name}: {e:?}");
                    }
                }
                ["job", id, tenant, db, delta, algo, mode, max_ops, max_patterns, no_cache, state, answered @ ..]
                    if answered.len() <= 1 =>
                {
                    let (Ok(id), Ok(delta)) = (id.parse::<u64>(), delta.parse::<u64>()) else {
                        continue;
                    };
                    let spec = JobSpec {
                        id,
                        tenant: tenant.to_string(),
                        db: db.to_string(),
                        delta,
                        algo: algo.to_string(),
                        mode: mode.to_string(),
                        max_ops: max_ops.parse().ok(),
                        max_patterns: max_patterns.parse().ok(),
                        // Wall-clock deadlines do not survive a restart;
                        // the drain already charged the job its slice.
                        deadline: None,
                        no_cache: *no_cache == "1",
                    };
                    let fingerprint =
                        answered.first().and_then(|fp| u64::from_str_radix(fp, 16).ok());
                    self.reload_job(spec, state, fingerprint, &mut results);
                }
                _ => eprintln!("disc-server: skipping unrecognized manifest line: {line}"),
            }
        }
    }

    /// Re-registers one manifest job. A `done` job reloads its own
    /// `result.tsv` or, without one (a cache hit), the result `results`
    /// holds for the key it was answered under.
    fn reload_job(
        &self,
        spec: JobSpec,
        state: &str,
        fingerprint: Option<u64>,
        results: &mut HashMap<CacheKey, Arc<RenderedResult>>,
    ) {
        let id = spec.id;
        let Some(db) = self.shared.registry.lock().unwrap().get(&spec.db) else {
            // Terminal from birth: submit() only queues non-terminal jobs,
            // but it needs *a* db entry — record the job directly instead.
            let job = Job::ended(spec, Some("database did not survive the restart"));
            self.shared.sched.submit_terminal(Arc::new(job));
            return;
        };
        let key = fingerprint.map(|fp| CacheKey::of(fp, &spec));
        let result = if state != "done" {
            None
        } else if let Some(own) = self.load_result(id) {
            if let Some(key) = &key {
                results.insert(key.clone(), Arc::clone(&own));
            }
            Some(own)
        } else {
            key.as_ref().and_then(|key| results.get(key).cloned())
        };
        let job = match (state, result) {
            ("done", Some(result)) => {
                // Warm the cache so a repeat query after the restart is
                // still served without a miner invocation — but only with
                // results of the database now registered under this name.
                if let Some(key) =
                    key.filter(|key| !spec.no_cache && key.fingerprint == db.loaded.fingerprint)
                {
                    self.shared.sched.cache.lock().unwrap().insert(key, Arc::clone(&result));
                }
                Job::from_cache(spec, fingerprint, result)
            }
            ("failed", _) => Job::ended(spec, Some("failed before the restart")),
            ("cancelled", _) => Job::ended(spec, None),
            // queued, done with no surviving result (its publish failed,
            // or the mined job's did), and anything unrecognized,
            // conservatively: requeue; a checkpoint at jobs/<id>/mine.dscck
            // resumes automatically.
            _ => {
                let job = Job::new(spec, self.shared.cfg.scheduler.slice_ops);
                // Seed accumulated spend from the checkpoint, so the first
                // slice's budget lands one increment above the re-charge
                // instead of rediscovering the spend by doubling.
                let ckpt = self.shared.sched.job_dir(id).join(disc_algo::CHECKPOINT_FILE);
                if let Ok(p) = disc_core::peek_progress(&ckpt) {
                    let mut inner = job.inner.lock().unwrap();
                    inner.ops = p.ops;
                    inner.patterns = p.patterns as usize;
                    inner.progress = Some(p);
                }
                job
            }
        };
        self.shared.sched.submit(Arc::new(job), db);
    }

    /// Loads a persisted `result.tsv` back into a [`RenderedResult`].
    fn load_result(&self, id: u64) -> Option<Arc<RenderedResult>> {
        let text = std::fs::read_to_string(self.shared.sched.result_path(id)).ok()?;
        let mut lines = Vec::new();
        for line in text.lines() {
            let (support, pattern) = line.split_once('\t')?;
            lines.push((support.parse::<u64>().ok()?, pattern.to_string()));
        }
        let total = lines.len();
        Some(Arc::new(RenderedResult { lines, total_patterns: total }))
    }
}

fn bad_param(name: &str, expectation: &str) -> Response {
    // Parameter errors ride the Config variant so the status mapping (400,
    // the exit-2 analogue) and the message format stay uniform.
    error_response(&DiscError::Config { option: name.into(), reason: expectation.into() })
}

fn parse_opt<T: std::str::FromStr>(req: &Request, key: &str) -> Result<Option<T>, Response> {
    match req.param(key) {
        None => Ok(None),
        Some(v) => match v.parse::<T>() {
            Ok(v) => Ok(Some(v)),
            Err(_) => Err(bad_param(key, "unparseable value")),
        },
    }
}

fn opt_json<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map_or("null".into(), |v| v.to_string())
}

fn db_json(entry: &crate::registry::DbEntry) -> String {
    let source = match &entry.source {
        DbSource::Upload => "\"upload\"".to_string(),
        DbSource::Attach(path) => format!("\"attach:{}\"", json_escape(&path.to_string_lossy())),
    };
    format!(
        "{{\"name\":\"{}\",\"fingerprint\":\"{:#018x}\",\"rows\":{},\"compacted\":{},\"source\":{source}}}",
        json_escape(&entry.name),
        entry.loaded.fingerprint,
        entry.loaded.flat.len(),
        !entry.loaded.mapping.is_identity(),
    )
}

/// Percent-encodes a string for the space-separated manifest: everything
/// outside the visible-ASCII-minus-`%`-and-space set is `%XX`-escaped.
fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        if (b'!'..=b'~').contains(&b) && b != b'%' {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}
