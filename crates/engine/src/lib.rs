//! Parallel attack-campaign orchestration for the GNNUnlock
//! reproduction.
//!
//! The paper evaluates its oracle-less attack as leave-one-benchmark-out
//! *campaigns* over suites of locked circuits. This crate turns that
//! end-to-end flow into a job graph executed on a std-only worker pool —
//! no dependencies, threads + channels only:
//!
//! - [`JobGraph`] / [`Executor`]: dependency-aware parallel execution
//!   with per-job timing, cooperative cancellation ([`CancelToken`]) and
//!   **deterministic results** — the same seed produces a byte-identical
//!   report on any worker count;
//! - [`ResultCache`]: a content-addressed cache keyed on `(job kind,
//!   config fingerprint)` — an in-memory tier plus an optional
//!   versioned on-disk tier ([`DiskStore`]) with atomic writes and
//!   corruption eviction, so repeated campaigns (and repeated
//!   *processes* sharing `GNNUNLOCK_CACHE_DIR`) skip redundant locking /
//!   synthesis / dataset / training work;
//! - [`EventLog`]: a streaming JSONL event log (job-started /
//!   job-finished / cache-hit / stage-error), flushed per event, that
//!   [`Campaign::resume`] replays to continue an interrupted campaign;
//! - [`Campaign`]: a builder expanding {benchmark × locking scheme ×
//!   key size × seed} matrices into a per-cell stage DAG — parse → lock
//!   → synth → featurize → dataset → a chain of resumable `train-epoch`
//!   checkpoint jobs → train → classify → remove → verify → aggregate —
//!   with explicit dependencies and Merkle-composed content addresses
//!   (a job's cache key covers its whole input cone), interpreted by a
//!   [`CampaignRunner`] (the GNNUnlock semantics live in
//!   `gnnunlock-core::campaign`);
//! - [`Campaign::execute_sharded`] + [`LeaseManager`]: the distribution
//!   layer — atomic lease files beside each cache entry (create-new
//!   claims, heartbeat renewal, generation counters, stale-lease
//!   takeover after a TTL) let N worker *processes* sharing one
//!   `GNNUNLOCK_CACHE_DIR` cooperatively execute one campaign with no
//!   double work and byte-identical reports
//!   (`GNNUNLOCK_SHARD_ID` / `GNNUNLOCK_LEASE_TTL_MS`);
//! - [`RunReport`]: a structured JSON run report, deterministic by
//!   default (timings are opt-in via [`ReportOptions`]);
//! - [`run_ordered`]: order-preserving batch fan-out used by dataset
//!   generation;
//! - [`testing`]: test support only — the [`testing::Faulty`] fault
//!   injector that decorates any [`StoreBackend`], unique temp dirs,
//!   and the toy [`testing::Echo`] campaign runner.
//!
//! # Examples
//!
//! ```
//! use gnnunlock_engine::{ExecConfig, Executor, JobGraph, JobKind, JobValue};
//! use std::sync::Arc;
//!
//! let mut graph = JobGraph::new();
//! let lock = graph.add("lock/demo", JobKind::Lock, Some(1), vec![], |_| {
//!     Ok(Arc::new(21u64) as JobValue)
//! });
//! let train = graph.add("train/demo", JobKind::Train, Some(2), vec![lock], |ctx| {
//!     Ok(Arc::new(*ctx.dep::<u64>(0) * 2) as JobValue)
//! });
//! let out = Executor::new(ExecConfig::with_workers(4)).run(graph);
//! assert_eq!(*out.value::<u64>(train).unwrap(), 42);
//! ```

#![warn(missing_docs)]

mod backend;
mod cache;
mod campaign;
mod cancel;
mod codec;
pub mod env;
mod events;
mod exec;
mod graph;
mod json;
mod lease;
mod metrics;
mod pool;
mod report;
pub mod resilience;
mod shard;
mod store;
pub mod testing;

pub use backend::{FileMeta, LocalDirBackend, StoreBackend};
pub use cache::{CacheSource, CacheStats, ResultCache};
pub use campaign::{Campaign, CampaignBuilder, CampaignRun, CampaignRunner, ResumeInfo, StageJob};
pub use cancel::CancelToken;
pub use codec::{ByteReader, ByteWriter, ValueCodec};
pub use env::{
    apply_telemetry_env, knob, knob_or, knob_path, knob_validated, knob_warnings,
    telemetry_enabled_from_env, tenant_from_env, trace_out_from_env, LEASE_TTL_ENV, SHARD_ID_ENV,
    STAGE_BUDGET_ENV, TELEMETRY_ENV, TENANT_ENV, TRACE_OUT_ENV,
};
pub use events::{Event, EventLog, LogTail, Replay, EVENTS_ENV, EVENTS_FILE};
pub use exec::{ExecConfig, Executor, JobRecord, JobStatus, RunOutcome, RunStats, StageSummary};
pub use graph::{
    fingerprint, fingerprint_fields, JobCtx, JobGraph, JobId, JobKind, JobOutput, JobValue,
};
pub use json::Json;
pub use lease::{Claim, LeaseManager, LeaseStats};
pub use pool::{default_workers, run_ordered, WORKERS_ENV};
pub use report::{ReportOptions, RunReport, REPORT_SCHEMA_VERSION};
pub use resilience::{
    degraded_error, is_degraded, BreakerState, HealthTracker, ResilientBackend, RetryPolicy,
    DEGRADED_PREFIX, SPILL_CAP,
};
pub use shard::{
    execution_counts, merge_shard_events, shard_events_file, shard_replays, Elided, ShardConfig,
    ShardedRun,
};
pub use store::{
    cache_budget_from_env, gc_roots, sanitize_tag, tenant_budget_from_env, tenant_objects_root,
    DiskStore, GcStats, StoreStats, CACHE_BUDGET_ENV, CACHE_DIR_ENV, TENANT_BUDGET_ENV,
};
