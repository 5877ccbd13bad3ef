//! Admission control and per-tenant quotas: the knobs and bookkeeping that
//! keep an overloaded or hostile client population from exhausting the
//! server.
//!
//! ## Admission points
//!
//! Work is bounded at three gates, each refusing load as cheaply as
//! possible — the DISC engine makes an *admitted* job's cost dominated by
//! tree construction, so the whole point of shedding is that rejected work
//! never reaches it:
//!
//! 1. **Connection admission** — a fixed pool of handler threads
//!    ([`LimitsConfig::max_connections`]) drains a bounded queue of
//!    accepted sockets ([`LimitsConfig::queue_depth`]). A socket arriving
//!    at a full queue is **shed**: one 503 write whose `Retry-After` is
//!    computed from the backlog ([`retry_after_secs`]), then close.
//! 2. **Request admission** — per-request head/body byte caps (413 before
//!    the body is buffered) and read/write deadlines that bound how long a
//!    slow-loris client can hold a handler thread (408 on expiry).
//! 3. **Job admission** — per-tenant token-bucket request rates and
//!    concurrent-job / cumulative-ops ceilings, refused with typed 429s
//!    before a [`crate::job::Job`] is even constructed.
//!
//! Everything here is deterministic given a clock: the token bucket refills
//! from elapsed [`Instant`] time, and [`retry_after_secs`] is a pure
//! function of the observed backlog.

use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Network-layer admission limits. The defaults are sized for a small
/// shared host; every field has a `disc-mine serve` flag.
#[derive(Debug, Clone)]
pub struct LimitsConfig {
    /// Handler threads — the connection pool width. Connections beyond
    /// this wait in the queue; no thread is ever spawned per connection.
    pub max_connections: usize,
    /// Accepted connections allowed to wait for a handler before new
    /// arrivals are shed with 503.
    pub queue_depth: usize,
    /// Largest accepted request head (request line + headers); beyond it
    /// the request is refused with 413.
    pub max_head_bytes: usize,
    /// Largest accepted request body (`Content-Length`); a larger declared
    /// length is refused with 413 *before* any body byte is read.
    pub max_body_bytes: usize,
    /// Per-*read* deadline: a client that goes silent mid-request this
    /// long gets 408 and the handler thread moves on. Renewable — every
    /// received byte restarts it — which is why it cannot stand alone
    /// (see `request_deadline`).
    pub read_timeout: Duration,
    /// Per-connection write deadline: a client that stops draining its
    /// response this long is abandoned.
    pub write_timeout: Duration,
    /// Absolute per-request deadline: total wall-clock budget for
    /// receiving one request (head + body), whatever mix of progress and
    /// stalls. This is the trickle defense: a client feeding one byte just
    /// under `read_timeout` renews the per-read deadline forever, but
    /// trips this one after at most `request_deadline` (+ one in-flight
    /// read) with a 408. Must be ≥ `read_timeout` to be meaningful.
    pub request_deadline: Duration,
}

impl Default for LimitsConfig {
    fn default() -> LimitsConfig {
        LimitsConfig {
            max_connections: 16,
            queue_depth: 64,
            max_head_bytes: crate::http::MAX_HEAD_BYTES,
            max_body_bytes: crate::http::MAX_BODY_BYTES,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            request_deadline: crate::http::REQUEST_DEADLINE,
        }
    }
}

/// Per-tenant quota ceilings, applied uniformly to every tenant. `None`
/// disables the corresponding check.
///
/// ## Trust model
///
/// Tenant identity is the client-asserted `tenant` query parameter — the
/// server performs no authentication. Quotas are therefore a **fairness
/// and accounting mechanism for trusted tenants** (cooperating clients
/// behind a frontend that authenticates and pins tenant names), not a
/// security boundary: an adversary free to mint tenant names gets a fresh
/// bucket and spend ledger per name. The server bounds the *memory* cost
/// of such rotation — idle rate buckets are LRU-evicted beyond
/// [`QuotaConfig::MAX_TRACKED_BUCKETS`] — but enforcing per-principal
/// ceilings against hostile clients requires deriving the tenant from an
/// authenticated source in front of this server.
#[derive(Debug, Clone, Default)]
pub struct QuotaConfig {
    /// Token-bucket request rate for job submissions.
    pub rate: Option<RateLimit>,
    /// Ceiling on a tenant's simultaneously live (queued or running) jobs.
    pub max_concurrent_jobs: Option<usize>,
    /// Ceiling on a tenant's cumulative charged guard operations across
    /// all its finished slices — the long-horizon spend backstop.
    pub max_cumulative_ops: Option<u64>,
}

impl QuotaConfig {
    /// Most token buckets tracked at once. Inserting a bucket for a fresh
    /// tenant name beyond this evicts the least-recently-used one, so a
    /// client rotating tenant names cannot grow the map without bound. An
    /// evicted bucket resurrects full — acceptable under the trust model
    /// above (rotation already defeats per-name metering; the cap exists
    /// to bound memory, not to stop rotation).
    pub const MAX_TRACKED_BUCKETS: usize = 1024;
}

/// A token-bucket rate: `burst` requests immediately, refilling at
/// `per_sec` tokens per second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Bucket capacity — the tolerated burst.
    pub burst: u32,
    /// Sustained refill rate, tokens per second.
    pub per_sec: f64,
}

/// One tenant's token bucket. Refill is computed lazily from elapsed time,
/// so an idle bucket costs nothing.
#[derive(Debug)]
pub struct TokenBucket {
    limit: RateLimit,
    tokens: f64,
    refilled: Instant,
}

impl TokenBucket {
    /// A full bucket.
    pub fn new(limit: RateLimit) -> TokenBucket {
        TokenBucket { limit, tokens: f64::from(limit.burst), refilled: Instant::now() }
    }

    /// Takes one token, or reports how long until one is available. A
    /// non-positive refill rate means the bucket never refills — the
    /// returned wait saturates at an hour rather than pretending precision.
    pub fn try_take(&mut self) -> Result<(), Duration> {
        let now = Instant::now();
        if self.limit.per_sec > 0.0 {
            let refill = now.duration_since(self.refilled).as_secs_f64() * self.limit.per_sec;
            self.tokens = (self.tokens + refill).min(f64::from(self.limit.burst));
        }
        self.refilled = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            return Ok(());
        }
        let wait = if self.limit.per_sec > 0.0 {
            Duration::from_secs_f64(((1.0 - self.tokens) / self.limit.per_sec).min(3600.0))
        } else {
            Duration::from_secs(3600)
        };
        Err(wait)
    }

    /// When this bucket was last touched by a submission — `try_take`
    /// refreshes it, so it doubles as the LRU timestamp for eviction.
    pub fn last_used(&self) -> Instant {
        self.refilled
    }

    /// Tokens currently available (for the stats endpoint).
    pub fn available(&self) -> f64 {
        let refill = if self.limit.per_sec > 0.0 {
            self.refilled.elapsed().as_secs_f64() * self.limit.per_sec
        } else {
            0.0
        };
        (self.tokens + refill).min(f64::from(self.limit.burst))
    }
}

/// Why a job submission was refused at the quota gate. All variants map to
/// a typed 429 at the API layer.
#[derive(Debug, Clone, PartialEq)]
pub enum QuotaDenial {
    /// The tenant's token bucket is empty; a token arrives in `retry_after`.
    Rate {
        /// Time until the bucket holds one token again.
        retry_after: Duration,
    },
    /// The tenant already has `live` queued-or-running jobs of `limit`
    /// allowed.
    Concurrency {
        /// The configured ceiling.
        limit: usize,
        /// Live jobs observed.
        live: usize,
    },
    /// The tenant's cumulative charged operations reached the ceiling.
    CumulativeOps {
        /// The configured ceiling.
        limit: u64,
        /// Operations already charged.
        spent: u64,
    },
}

impl QuotaDenial {
    /// The wire name of the tripped quota, for the 429 body.
    pub fn kind(&self) -> &'static str {
        match self {
            QuotaDenial::Rate { .. } => "rate",
            QuotaDenial::Concurrency { .. } => "concurrency",
            QuotaDenial::CumulativeOps { .. } => "cumulative_ops",
        }
    }

    /// The `Retry-After` seconds to advertise: the bucket's own estimate
    /// for rate denials (rounded up, at least 1), a short constant for
    /// concurrency (a slot frees when a job finishes), and none for the
    /// cumulative cap (waiting will not un-spend operations).
    pub fn retry_after_secs(&self) -> Option<u32> {
        match self {
            QuotaDenial::Rate { retry_after } => {
                Some((retry_after.as_secs_f64().ceil() as u32).clamp(1, 3600))
            }
            QuotaDenial::Concurrency { .. } => Some(1),
            QuotaDenial::CumulativeOps { .. } => None,
        }
    }

    /// The human-readable refusal message.
    pub fn message(&self) -> String {
        match self {
            QuotaDenial::Rate { retry_after } => format!(
                "tenant request rate exceeded; a token refills in {:.1}s",
                retry_after.as_secs_f64()
            ),
            QuotaDenial::Concurrency { limit, live } => {
                format!("tenant already has {live} live job(s) of {limit} allowed")
            }
            QuotaDenial::CumulativeOps { limit, spent } => {
                format!("tenant spent {spent} of {limit} budgeted operations")
            }
        }
    }
}

/// `Retry-After` seconds for a load shed: one second when idle, plus one
/// second per `capacity` units of backlog, capped at a minute. `backlog`
/// is whatever is waiting (queued connections + queued and running jobs);
/// `capacity` is how many of those the server retires concurrently
/// (handler threads + mining threads). Deterministic, so tests can assert
/// the exact header.
pub fn retry_after_secs(backlog: usize, capacity: usize) -> u32 {
    (1 + (backlog / capacity.max(1)) as u32).min(60)
}

/// Whether an `accept(2)` failure is worth retrying in place: the
/// net-transient class (`EINTR`, `ECONNABORTED`-style kinds) plus the
/// file-descriptor-exhaustion errnos (`EMFILE`/`ENFILE`) that clear as
/// soon as in-flight connections close — precisely when backing off helps.
pub fn is_transient_accept_error(e: &std::io::Error) -> bool {
    const ENFILE: i32 = 23;
    const EMFILE: i32 = 24;
    disc_core::is_transient_net_kind(e.kind())
        || matches!(e.raw_os_error(), Some(ENFILE) | Some(EMFILE))
}

/// Admission counters, all monotonically increasing (gauges live on the
/// pool). Shared between the accept loop, the handler pool, and the
/// `/admin/stats` endpoint.
#[derive(Debug, Default)]
pub struct AdmissionStats {
    /// Connections accepted from the listener.
    pub accepted: AtomicU64,
    /// Connections shed with 503 because the queue was full.
    pub shed: AtomicU64,
    /// Requests refused with 413 (head or body over the cap).
    pub too_large: AtomicU64,
    /// Requests refused with 408 (read deadline expired).
    pub timeouts: AtomicU64,
    /// Job submissions refused with 429 (any quota).
    pub quota_denials: AtomicU64,
    /// Transient `accept()` failures retried in place.
    pub accept_retries: AtomicU64,
}

struct PoolState {
    queue: VecDeque<TcpStream>,
    shutdown: bool,
}

/// The bounded hand-off between the accept loop and the fixed handler
/// pool. Pushing to a full queue fails immediately (the caller sheds);
/// popping blocks until a connection arrives or shutdown.
pub struct ConnQueue {
    state: Mutex<PoolState>,
    ready: Condvar,
    cap: usize,
    depth: AtomicUsize,
}

impl ConnQueue {
    /// A queue admitting at most `cap` waiting connections.
    pub fn new(cap: usize) -> ConnQueue {
        ConnQueue {
            state: Mutex::new(PoolState { queue: VecDeque::new(), shutdown: false }),
            ready: Condvar::new(),
            cap: cap.max(1),
            depth: AtomicUsize::new(0),
        }
    }

    /// Admits `stream`, or returns it when the queue is full (the caller
    /// sheds) or shut down (the caller closes).
    pub fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut state = self.state.lock().unwrap();
        if state.shutdown || state.queue.len() >= self.cap {
            return Err(stream);
        }
        state.queue.push_back(stream);
        self.depth.store(state.queue.len(), Ordering::Relaxed);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until a connection is available (`Some`) or the queue is
    /// shut down and empty (`None` — the worker exits).
    pub fn pop(&self) -> Option<TcpStream> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(stream) = state.queue.pop_front() {
                self.depth.store(state.queue.len(), Ordering::Relaxed);
                return Some(stream);
            }
            if state.shutdown {
                return None;
            }
            state = self.ready.wait(state).unwrap();
        }
    }

    /// Current queue depth (lock-free gauge for shed decisions and stats).
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Stops the queue: waiting workers drain what is queued, then exit.
    pub fn shutdown(&self) {
        let mut state = self.state.lock().unwrap();
        state.shutdown = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_bucket_allows_the_burst_then_meters() {
        let mut bucket = TokenBucket::new(RateLimit { burst: 3, per_sec: 0.0 });
        for _ in 0..3 {
            assert!(bucket.try_take().is_ok());
        }
        let wait = bucket.try_take().unwrap_err();
        assert_eq!(wait, Duration::from_secs(3600), "zero refill saturates the wait");
        assert!(bucket.available() < 1.0);
    }

    #[test]
    fn token_bucket_refills_over_time() {
        let mut bucket = TokenBucket::new(RateLimit { burst: 1, per_sec: 1000.0 });
        assert!(bucket.try_take().is_ok());
        let wait = match bucket.try_take() {
            Ok(()) => Duration::ZERO, // a refill already landed; fine
            Err(w) => w,
        };
        assert!(wait <= Duration::from_millis(2), "1000/s refill waits ~1ms, got {wait:?}");
        std::thread::sleep(Duration::from_millis(5));
        assert!(bucket.try_take().is_ok(), "elapsed time refills the bucket");
    }

    #[test]
    fn denial_retry_after_is_typed_per_quota() {
        let rate = QuotaDenial::Rate { retry_after: Duration::from_millis(2500) };
        assert_eq!(rate.kind(), "rate");
        assert_eq!(rate.retry_after_secs(), Some(3), "rounds up");
        let conc = QuotaDenial::Concurrency { limit: 2, live: 2 };
        assert_eq!(conc.retry_after_secs(), Some(1));
        let ops = QuotaDenial::CumulativeOps { limit: 10, spent: 12 };
        assert_eq!(ops.retry_after_secs(), None, "spent budget does not refill");
        assert!(ops.message().contains("12 of 10"));
    }

    #[test]
    fn shed_retry_after_scales_with_backlog() {
        assert_eq!(retry_after_secs(0, 4), 1);
        assert_eq!(retry_after_secs(4, 4), 2);
        assert_eq!(retry_after_secs(40, 4), 11);
        assert_eq!(retry_after_secs(10_000, 4), 60, "capped at a minute");
        assert_eq!(retry_after_secs(5, 0), 6, "zero capacity clamps to 1");
    }

    #[test]
    fn accept_error_classification_covers_fd_exhaustion() {
        use std::io::{Error, ErrorKind};
        assert!(is_transient_accept_error(&Error::from_raw_os_error(24)), "EMFILE");
        assert!(is_transient_accept_error(&Error::from_raw_os_error(23)), "ENFILE");
        assert!(is_transient_accept_error(&Error::new(ErrorKind::ConnectionAborted, "x")));
        assert!(is_transient_accept_error(&Error::new(ErrorKind::Interrupted, "x")));
        assert!(!is_transient_accept_error(&Error::new(ErrorKind::PermissionDenied, "x")));
    }

    #[test]
    fn conn_queue_bounds_and_drains_on_shutdown() {
        let q = ConnQueue::new(1);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let c1 = TcpStream::connect(addr).unwrap();
        let c2 = TcpStream::connect(addr).unwrap();
        assert!(q.push(c1).is_ok());
        assert_eq!(q.depth(), 1);
        assert!(q.push(c2).is_err(), "beyond cap the stream comes back for shedding");
        let popped = q.pop().unwrap();
        drop(popped);
        assert_eq!(q.depth(), 0);
        q.shutdown();
        assert!(q.pop().is_none(), "shutdown + empty ends the worker");
        let c3 = TcpStream::connect(addr).unwrap();
        assert!(q.push(c3).is_err(), "no admissions after shutdown");
    }
}
