//! disc-server: mining-as-a-service over the DISC engine.
//!
//! A long-lived, multi-tenant job server exposing the guarded, resumable
//! miners of `disc-algo` over a hand-rolled HTTP/1.1 API — std-only, like
//! the rest of the workspace. The moving parts:
//!
//! * [`registry`] — named databases (uploads or attached flat files /
//!   durable stores), with the CLI's item-compaction precomputed so server
//!   results stay byte-identical to `disc-mine`;
//! * [`job`] — one submitted query, mined as a sequence of budget-bounded
//!   **slices** that preempt at checkpoint boundaries;
//! * [`scheduler`] — round-robin fair scheduling of slices over one shared
//!   `ParallelExecutor` pool, with per-tenant accounting;
//! * [`cache`] — an LRU result cache keyed by (database fingerprint, δ,
//!   algorithm, mode), so a repeat query never re-mines;
//! * [`api`] — the [`Server`]: routing, manifest persistence,
//!   and the graceful drain that checkpoints in-flight jobs so a restart
//!   resumes them bit-identically;
//! * [`limits`] — admission control: the bounded connection pool and
//!   accept queue, per-request byte caps and deadlines, load-aware
//!   `Retry-After`, and per-tenant quotas (token-bucket rates,
//!   concurrency and cumulative-ops ceilings);
//! * [`chaos`] — the deterministic network-fault harness: a seeded
//!   [`ChaosStream`] wrapper injecting drops, partial transfers, stalls,
//!   and resets, reproducibly per seed;
//! * [`status`] — the `DiscError` → HTTP status mapping, kept in lockstep
//!   with the CLI's exit-code contract;
//! * [`signal`] — SIGTERM → drain flag, no libc dependency.
//!
//! See `ALGORITHM.md` §16 for the job lifecycle and the preemption-point
//! argument, §17 for the overload model, and the README's serving section
//! for a curl walkthrough.

#![deny(unsafe_code)] // signal::sys carries the one module-scoped allow

pub mod api;
pub mod cache;
pub mod chaos;
pub mod http;
pub mod job;
pub mod limits;
pub mod registry;
pub mod scheduler;
pub mod signal;
pub mod status;

pub use api::{Server, ServerConfig};
pub use cache::{CacheKey, RenderedResult, ResultCache};
pub use chaos::{ChaosConfig, ChaosLedger, ChaosStream};
pub use job::{served_algorithm, served_names, Job, JobSpec, JobState, Mode};
pub use limits::{LimitsConfig, QuotaConfig, QuotaDenial, RateLimit};
pub use registry::{DbRegistry, RegisterError};
pub use scheduler::{AdmissionPermit, Scheduler, SchedulerConfig, TenantSpend};
