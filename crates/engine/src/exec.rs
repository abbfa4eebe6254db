//! The dependency-aware parallel executor.
//!
//! Workers claim ready jobs (lowest [`JobId`] first) from a shared queue,
//! execute them outside the lock, then release dependents. Results and
//! job records are indexed by `JobId`, so the outcome — and any report
//! derived from it — is identical for every worker count: parallelism
//! changes only wall-clock time, never content.
//!
//! With an [`EventLog`] attached ([`Executor::with_events`]) the
//! executor streams one JSONL record per job transition — started,
//! finished, cache-hit, and a `stage-error` record carrying the job id
//! and failure text for every failed job (including panicking bodies) —
//! flushed per event, so long campaigns are observable and a crashed
//! run's progress is replayable.

use crate::cache::{CacheSource, ResultCache, Slot};
use crate::cancel::CancelToken;
use crate::events::{Event, EventLog};
use crate::graph::{JobCtx, JobGraph, JobId, JobKind, JobValue};
use crate::metrics;
use crate::pool::default_workers;
use gnnunlock_telemetry as telemetry;
use gnnunlock_telemetry::SpanRecord;
use std::collections::BTreeSet;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Worker threads (1 = run inline-style, still through the same
    /// scheduler, guaranteeing identical results).
    pub workers: usize,
    /// Cancellation token shared with job bodies.
    pub cancel: CancelToken,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            workers: default_workers(),
            cancel: CancelToken::new(),
        }
    }
}

impl ExecConfig {
    /// A config with `workers` threads and a fresh cancel token.
    pub fn with_workers(workers: usize) -> Self {
        ExecConfig {
            workers: workers.max(1),
            cancel: CancelToken::new(),
        }
    }
}

/// Terminal state of one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Ran (or was cache-served) to completion.
    Succeeded,
    /// The body returned an error.
    Failed(String),
    /// Not run because a dependency did not succeed.
    Skipped(String),
    /// Not run because the run was cancelled first.
    Cancelled,
}

impl JobStatus {
    /// Stable lowercase tag for reports.
    pub fn tag(&self) -> &'static str {
        match self {
            JobStatus::Succeeded => "ok",
            JobStatus::Failed(_) => "failed",
            JobStatus::Skipped(_) => "skipped",
            JobStatus::Cancelled => "cancelled",
        }
    }
}

/// Per-job record of one run.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The job's label.
    pub label: String,
    /// Pipeline stage.
    pub kind: JobKind,
    /// Dependency indices.
    pub deps: Vec<usize>,
    /// Terminal status.
    pub status: JobStatus,
    /// Which cache tier served the result, if any (provenance — volatile
    /// across cold/warm runs, so excluded from deterministic reports).
    pub cache: CacheSource,
    /// Wall-clock execution time (≈0 for cache hits; volatile — excluded
    /// from deterministic reports).
    pub duration: Duration,
}

impl JobRecord {
    /// Whether the result came from any cache tier.
    pub fn cached(&self) -> bool {
        self.cache.is_hit()
    }
}

/// Aggregate counters of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Jobs in the graph.
    pub total: usize,
    /// Jobs whose bodies actually ran.
    pub executed: usize,
    /// Jobs served from the in-memory cache tier.
    pub memory_hits: usize,
    /// Jobs served from the on-disk cache tier.
    pub disk_hits: usize,
    /// Jobs that failed.
    pub failed: usize,
    /// Jobs skipped because a dependency did not succeed.
    pub skipped: usize,
    /// Jobs cancelled before they could run.
    pub cancelled: usize,
}

impl RunStats {
    /// Jobs served from any cache tier.
    pub fn cache_hits(&self) -> usize {
        self.memory_hits + self.disk_hits
    }

    /// Jobs that reached success (executed or cache-served).
    pub fn succeeded(&self) -> usize {
        self.executed + self.cache_hits()
    }
}

/// Per-stage-kind aggregate of one run: how many jobs of the stage ran,
/// where their results came from, and how long their bodies took.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSummary {
    /// Stage kind tag (`parse`, `train-epoch`, …).
    pub kind: String,
    /// Jobs of this stage in the graph.
    pub total: usize,
    /// Jobs whose bodies actually ran.
    pub executed: usize,
    /// Jobs served from the in-memory cache tier.
    pub memory_hits: usize,
    /// Jobs served from the on-disk cache tier.
    pub disk_hits: usize,
    /// Jobs that failed.
    pub failed: usize,
    /// Jobs skipped because a dependency did not succeed.
    pub skipped: usize,
    /// Jobs cancelled before they could run.
    pub cancelled: usize,
    /// Summed wall-clock execution milliseconds (volatile).
    pub ms: f64,
    /// Whether `ms` exceeded the per-stage wall-clock budget
    /// (`GNNUNLOCK_STAGE_BUDGET_MS`). Observability only — over-budget
    /// stages are marked in the stage-summary event and the timing
    /// report section, never killed. Always `false` without a budget.
    pub over_budget: bool,
}

/// Everything a run produced: records, values and counters.
pub struct RunOutcome {
    /// One record per job, indexed by [`JobId`] — deterministic order.
    pub records: Vec<JobRecord>,
    /// Aggregate counters.
    pub stats: RunStats,
    /// Total wall-clock time (volatile).
    pub wall_time: Duration,
    /// Spans recorded during the run — one per executed or cache-served
    /// job, plus any spans job bodies recorded (shard probes, lease
    /// waits). Span ids are deterministic (derived from fingerprints);
    /// timestamps, durations and thread ids are volatile. Render with
    /// [`gnnunlock_telemetry::chrome_trace_json`].
    pub spans: Vec<SpanRecord>,
    values: Vec<Option<Slot>>,
    /// The per-stage wall-clock budget in effect when the run executed
    /// (`GNNUNLOCK_STAGE_BUDGET_MS`), applied by [`RunOutcome::stage_summaries`].
    stage_budget_ms: Option<f64>,
}

impl RunOutcome {
    /// Aggregate the job records per stage kind, in pipeline order
    /// ([`JobKind::BUILTIN`] first, then custom kinds in first-appearance
    /// order; only kinds present in the graph are reported). The counts
    /// are deterministic; `ms` — and the `over_budget` mark derived from
    /// it against the run's `GNNUNLOCK_STAGE_BUDGET_MS` — is wall-clock
    /// and volatile.
    pub fn stage_summaries(&self) -> Vec<StageSummary> {
        self.stage_summaries_with_budget(self.stage_budget_ms)
    }

    /// [`RunOutcome::stage_summaries`] against an explicit per-stage
    /// wall-clock budget in milliseconds (`None` = no budget, nothing is
    /// ever marked over-budget).
    pub fn stage_summaries_with_budget(&self, budget_ms: Option<f64>) -> Vec<StageSummary> {
        let mut order: Vec<&'static str> = Vec::new();
        for kind in JobKind::BUILTIN {
            if self.records.iter().any(|r| r.kind == kind) {
                order.push(kind.tag());
            }
        }
        for r in &self.records {
            if let JobKind::Custom(tag) = r.kind {
                if !order.contains(&tag) {
                    order.push(tag);
                }
            }
        }
        order
            .into_iter()
            .map(|tag| {
                let mut s = StageSummary {
                    kind: tag.to_string(),
                    total: 0,
                    executed: 0,
                    memory_hits: 0,
                    disk_hits: 0,
                    failed: 0,
                    skipped: 0,
                    cancelled: 0,
                    ms: 0.0,
                    over_budget: false,
                };
                for r in self.records.iter().filter(|r| r.kind.tag() == tag) {
                    s.total += 1;
                    s.ms += r.duration.as_secs_f64() * 1e3;
                    match (&r.status, r.cache) {
                        (JobStatus::Succeeded, CacheSource::Memory) => s.memory_hits += 1,
                        (JobStatus::Succeeded, CacheSource::Disk) => s.disk_hits += 1,
                        (JobStatus::Succeeded, CacheSource::None) => s.executed += 1,
                        (JobStatus::Failed(_), _) => s.failed += 1,
                        (JobStatus::Skipped(_), _) => s.skipped += 1,
                        (JobStatus::Cancelled, _) => s.cancelled += 1,
                    }
                }
                s.over_budget = budget_ms.is_some_and(|budget| s.ms > budget);
                s
            })
            .collect()
    }
    /// The output of a succeeded job, downcast to its concrete type. A
    /// job served from disk decodes here, on the first read of its
    /// value (once, whoever reads it). `None` if the job did not
    /// succeed, or if its stored payload could not be decoded — the
    /// entry is then evicted and the next run recomputes it. Panics on
    /// a type mismatch (a graph-construction bug).
    pub fn value<T: Send + Sync + 'static>(&self, id: JobId) -> Option<Arc<T>> {
        let value = self.values[id.index()].as_ref()?.read().ok()?;
        Some(
            value
                .downcast::<T>()
                .unwrap_or_else(|_| panic!("job {} has unexpected output type", id.index())),
        )
    }

    /// Whether every job succeeded.
    pub fn all_succeeded(&self) -> bool {
        self.stats.failed == 0 && self.stats.skipped == 0 && self.stats.cancelled == 0
    }
}

/// Best-effort text of a panic payload (what `panic!` carries).
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// Called after a fingerprinted job body finishes and its result (if
/// any) has been published to the cache: `(kind, fingerprint,
/// succeeded)`. The sharded coordinator uses this to release a job's
/// lease only *after* the entry is visible to peer shards.
pub type AfterJobHook = dyn Fn(JobKind, u64, bool) + Send + Sync;

/// Scheduling hint consulted when a worker picks its next ready job:
/// `(kind, fingerprint)` → `true` to *defer* the job (pick it only when
/// every ready job is deferred). The sharded coordinator defers jobs a
/// live peer shard currently leases, so a worker does productive
/// unleased work instead of probe-polling a peer's result. Purely a
/// pick-order hint: results and records are indexed by job id, so
/// deferral can never change an outcome, only wall-clock. Called with
/// the scheduler briefly locked — keep it cheap (a stat, not a scan).
pub type ReadyHint = dyn Fn(JobKind, Option<u64>) -> bool + Send + Sync;

/// The parallel job-graph executor.
///
/// Holds the [`ResultCache`]; reusing one executor (or one cache via
/// [`Executor::with_cache`]) across runs lets later campaigns skip work
/// already done — and with a disk-backed cache
/// ([`ResultCache::with_disk`]), lets later *processes* skip it too.
pub struct Executor {
    cfg: ExecConfig,
    cache: Arc<ResultCache>,
    events: Option<Arc<EventLog>>,
    after_job: Option<Arc<AfterJobHook>>,
    ready_hint: Option<Arc<ReadyHint>>,
}

struct Sched<'a> {
    nodes: Vec<crate::graph::JobNode<'a>>,
    remaining: Vec<usize>,
    dependents: Vec<Vec<usize>>,
    /// Why a job must be skipped (first failing dependency), if any.
    poison: Vec<Option<String>>,
    ready: BTreeSet<usize>,
    /// When each job entered the ready set (taken at claim time to
    /// observe queue wait; `None` once claimed or not yet ready).
    ready_at: Vec<Option<Instant>>,
    values: Vec<Option<Slot>>,
    records: Vec<Option<(JobStatus, CacheSource, Duration)>>,
    /// Spans drained from worker thread-local buffers at job boundaries.
    spans: Vec<SpanRecord>,
    pending: usize,
}

impl Executor {
    /// An executor with its own empty cache.
    pub fn new(cfg: ExecConfig) -> Self {
        Executor {
            cfg,
            cache: Arc::new(ResultCache::new()),
            events: None,
            after_job: None,
            ready_hint: None,
        }
    }

    /// Share an existing cache (e.g. across repeated campaigns, or a
    /// disk-backed cache shared across processes).
    pub fn with_cache(mut self, cache: Arc<ResultCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Stream job events to `log` (flushed per event).
    pub fn with_events(mut self, log: Arc<EventLog>) -> Self {
        self.events = Some(log);
        self
    }

    /// Invoke `hook` after each fingerprinted job body finishes, once
    /// its successful result has been published to the cache (and the
    /// disk tier, when attached). Runs for failed bodies too — callers
    /// holding per-job resources (leases) must release them either way.
    pub fn with_after_job(mut self, hook: Arc<AfterJobHook>) -> Self {
        self.after_job = Some(hook);
        self
    }

    /// Consult `hint` — `(kind, fingerprint)` → `true` to defer — when
    /// picking the next ready job: deferred jobs run only when every
    /// ready job is deferred.
    pub fn with_ready_hint(mut self, hint: Arc<ReadyHint>) -> Self {
        self.ready_hint = Some(hint);
        self
    }

    /// The executor's cache.
    pub fn cache(&self) -> &Arc<ResultCache> {
        &self.cache
    }

    /// The attached event log, if any.
    pub fn events(&self) -> Option<&Arc<EventLog>> {
        self.events.as_ref()
    }

    /// The executor's cancel token (clone it to cancel from elsewhere).
    pub fn cancel_token(&self) -> CancelToken {
        self.cfg.cancel.clone()
    }

    fn emit(&self, event: Event) {
        if let Some(log) = &self.events {
            log.append(&event);
        }
    }

    /// Execute `graph` and return records, values and counters.
    pub fn run(&self, graph: JobGraph<'_>) -> RunOutcome {
        let start = Instant::now();
        let n = graph.len();
        let mut dependents = vec![Vec::new(); n];
        let mut remaining = vec![0usize; n];
        for (i, node) in graph.jobs.iter().enumerate() {
            remaining[i] = node.deps.len();
            for d in &node.deps {
                dependents[d.index()].push(i);
            }
        }
        let ready: BTreeSet<usize> = (0..n).filter(|&i| remaining[i] == 0).collect();
        let mut ready_at = vec![None; n];
        for &i in &ready {
            ready_at[i] = Some(start);
        }
        let sched = Mutex::new(Sched {
            nodes: graph.jobs,
            remaining,
            dependents,
            poison: vec![None; n],
            ready,
            ready_at,
            values: vec![None; n],
            records: vec![None; n],
            spans: Vec::new(),
            pending: n,
        });
        let work_available = Condvar::new();
        let workers = self.cfg.workers.max(1).min(n.max(1));

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| self.worker_loop(&sched, &work_available));
            }
        });

        let mut sched = sched.into_inner().unwrap();
        // Stable rendering order: by start time, ties broken by the
        // deterministic span id.
        sched.spans.sort_by_key(|s| (s.start_us, s.id));
        let mut records = Vec::with_capacity(n);
        let mut stats = RunStats {
            total: n,
            ..RunStats::default()
        };
        for (node, rec) in sched.nodes.iter().zip(sched.records) {
            let (status, cache, duration) = rec.expect("scheduler finished with an unresolved job");
            match (&status, cache) {
                (JobStatus::Succeeded, CacheSource::Memory) => stats.memory_hits += 1,
                (JobStatus::Succeeded, CacheSource::Disk) => stats.disk_hits += 1,
                (JobStatus::Succeeded, CacheSource::None) => stats.executed += 1,
                (JobStatus::Failed(_), _) => stats.failed += 1,
                (JobStatus::Skipped(_), _) => stats.skipped += 1,
                (JobStatus::Cancelled, _) => stats.cancelled += 1,
            }
            records.push(JobRecord {
                label: node.label.clone(),
                kind: node.kind,
                deps: node.deps.iter().map(|d| d.index()).collect(),
                status,
                cache,
                duration,
            });
        }
        RunOutcome {
            records,
            stats,
            wall_time: start.elapsed(),
            spans: sched.spans,
            values: sched.values,
            stage_budget_ms: crate::env::stage_budget_ms(),
        }
    }

    fn worker_loop(&self, sched: &Mutex<Sched<'_>>, work_available: &Condvar) {
        let mut guard = sched.lock().unwrap();
        loop {
            if guard.pending == 0 {
                // Catch any spans a body recorded without a later flush
                // point (nothing in the normal paths, but cheap).
                let mut spans = telemetry::take_thread_spans();
                guard.spans.append(&mut spans);
                work_available.notify_all();
                return;
            }
            let Some(i) = self.pick_ready(&guard) else {
                guard = work_available.wait(guard).unwrap();
                continue;
            };
            guard.ready.remove(&i);
            // Queue wait ends at claim time; observed (outside the
            // lock) only for jobs that execute or cache-serve.
            let queued_s = guard.ready_at[i].take().map(|t| t.elapsed().as_secs_f64());

            // Resolve without running when cancelled or poisoned
            // (cancellation wins so a cancelled run reads uniformly).
            if self.cfg.cancel.is_cancelled() {
                let label = guard.nodes[i].label.clone();
                Self::finish(
                    &mut guard,
                    i,
                    JobStatus::Cancelled,
                    CacheSource::None,
                    Duration::ZERO,
                );
                drop(guard);
                self.emit(Event::JobFinished {
                    id: i,
                    label,
                    status: "cancelled".into(),
                    ms: 0.0,
                });
                guard = sched.lock().unwrap();
                work_available.notify_all();
                continue;
            }
            if let Some(why) = guard.poison[i].clone() {
                let label = guard.nodes[i].label.clone();
                Self::finish(
                    &mut guard,
                    i,
                    JobStatus::Skipped(why),
                    CacheSource::None,
                    Duration::ZERO,
                );
                drop(guard);
                self.emit(Event::JobFinished {
                    id: i,
                    label,
                    status: "skipped".into(),
                    ms: 0.0,
                });
                guard = sched.lock().unwrap();
                work_available.notify_all();
                continue;
            }

            let node = &mut guard.nodes[i];
            let label = node.label.clone();
            let kind = node.kind;
            let fingerprint = node.fingerprint;
            let run = node.run.take().expect("job claimed twice");
            let dep_ids = node.deps.clone();

            // Cache probe. The memory tier is a HashMap lookup, but the
            // disk tier does file I/O, so probe outside the lock: claim
            // the job, release the scheduler, then look up. A disk hit
            // stays encoded until a dependent or the caller reads it.
            if let Some(fp) = fingerprint {
                drop(guard);
                let probe_t0 = Instant::now();
                let found = self.cache.probe(kind, fp);
                if let Some((_, source)) = &found {
                    let tag = kind.tag();
                    metrics::cache_hits(tag, source.tag()).inc();
                    if let Some(q) = queued_s {
                        metrics::stage_queue_seconds(tag).observe(q);
                    }
                    telemetry::record_span(&label, tag, fp, 0, probe_t0);
                }
                guard = sched.lock().unwrap();
                if let Some((value, source)) = found {
                    guard.values[i] = Some(value);
                    let mut spans = telemetry::take_thread_spans();
                    guard.spans.append(&mut spans);
                    Self::finish(&mut guard, i, JobStatus::Succeeded, source, Duration::ZERO);
                    drop(guard);
                    self.emit(Event::CacheHit {
                        id: i,
                        label,
                        source: source.tag().into(),
                    });
                    guard = sched.lock().unwrap();
                    work_available.notify_all();
                    continue;
                }
            }

            let dep_slots: Vec<Slot> = dep_ids
                .iter()
                .map(|d| guard.values[d.index()].clone().expect("dep value missing"))
                .collect();
            drop(guard);

            self.emit(Event::JobStarted {
                id: i,
                label: label.clone(),
            });
            let t0 = Instant::now();
            // A body — or a codec decoding a dependency — that panics
            // must become a Failed job, not a dead worker: an unwinding
            // worker would leave `pending` stuck above zero and deadlock
            // its siblings on the condvar.
            let output = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // Disk-hit dependencies decode here, outside the
                // scheduler lock (a dataset takes milliseconds);
                // dependents running in parallel share one decode. An
                // undecodable one fails the job instead of running it.
                let deps = dep_slots
                    .iter()
                    .zip(&dep_ids)
                    .map(|(slot, d)| {
                        slot.read().map_err(|e| {
                            let dep = sched.lock().unwrap().nodes[d.index()].label.clone();
                            format!("dependency '{dep}': {e}")
                        })
                    })
                    .collect::<Result<Vec<JobValue>, String>>()?;
                run(&JobCtx {
                    deps: &deps,
                    cancel: &self.cfg.cancel,
                })
            }))
            .unwrap_or_else(|payload| Err(format!("job panicked: {}", panic_text(payload))));
            let elapsed = t0.elapsed();
            let ms = elapsed.as_secs_f64() * 1e3;

            // Telemetry at the job boundary: counters + histograms are
            // relaxed atomics (handle lookup is a cold registration
            // map), and the span goes to this thread's local buffer.
            let tag = kind.tag();
            if let Some(q) = queued_s {
                metrics::stage_queue_seconds(tag).observe(q);
            }
            metrics::stage_wall_seconds(tag).observe(elapsed.as_secs_f64());
            match &output {
                Ok(_) => metrics::jobs_executed(tag).inc(),
                Err(_) => metrics::jobs_failed(tag).inc(),
            }
            let span_id = fingerprint.unwrap_or_else(|| telemetry::derived_id(0, &label));
            telemetry::record_span_at(&label, tag, span_id, 0, t0, t0 + elapsed);

            match &output {
                Ok(_) => self.emit(Event::JobFinished {
                    id: i,
                    label: label.clone(),
                    status: "ok".into(),
                    ms,
                }),
                Err(msg) => {
                    // Surface the failure — panic text included — in the
                    // event stream with the job id, not only in the
                    // final report.
                    self.emit(Event::StageError {
                        id: i,
                        label: label.clone(),
                        error: msg.clone(),
                    });
                    self.emit(Event::JobFinished {
                        id: i,
                        label: label.clone(),
                        status: "failed".into(),
                        ms,
                    });
                }
            }

            // Persist before re-locking: `put` may encode + write to
            // disk, which must not serialize the scheduler. The
            // after-job hook runs strictly after the publish (and on
            // failure too), so a lease released there never exposes a
            // window where the job is neither leased nor materialized.
            if let (Ok(value), Some(fp)) = (&output, fingerprint) {
                self.cache.put(kind, fp, value.clone());
            }
            if let (Some(hook), Some(fp)) = (&self.after_job, fingerprint) {
                hook(kind, fp, output.is_ok());
            }

            guard = sched.lock().unwrap();
            {
                // Flush this thread's span buffer (the job span plus any
                // spans the body recorded) into the run's aggregate.
                let mut spans = telemetry::take_thread_spans();
                guard.spans.append(&mut spans);
            }
            match output {
                Ok(value) => {
                    guard.values[i] = Some(Slot::Value(value));
                    Self::finish(
                        &mut guard,
                        i,
                        JobStatus::Succeeded,
                        CacheSource::None,
                        elapsed,
                    );
                }
                Err(msg) => {
                    Self::finish(
                        &mut guard,
                        i,
                        JobStatus::Failed(msg),
                        CacheSource::None,
                        elapsed,
                    );
                }
            }
            work_available.notify_all();
        }
    }

    /// The next ready job: lowest id, except that hint-deferred jobs
    /// (a live peer shard holds their lease) are passed over while any
    /// non-deferred ready job exists. Falls back to the lowest id when
    /// everything is deferred, so deferral can starve nothing. At most
    /// [`MAX_HINT_PROBES`] candidates are consulted per pick — the hint
    /// runs with the scheduler locked and may do (memoized) I/O, so a
    /// large fully-deferred ready set must not turn one pick into an
    /// unbounded probe scan.
    fn pick_ready(&self, sched: &Sched<'_>) -> Option<usize> {
        /// Candidates consulted per pick before falling back.
        const MAX_HINT_PROBES: usize = 8;
        let first = sched.ready.iter().next().copied()?;
        let Some(hint) = &self.ready_hint else {
            return Some(first);
        };
        sched
            .ready
            .iter()
            .copied()
            .take(MAX_HINT_PROBES)
            .find(|&i| !hint(sched.nodes[i].kind, sched.nodes[i].fingerprint))
            .or(Some(first))
    }

    /// Record job `i`'s terminal status and release its dependents.
    fn finish(
        sched: &mut Sched<'_>,
        i: usize,
        status: JobStatus,
        cache: CacheSource,
        dur: Duration,
    ) {
        let failed_reason = match &status {
            JobStatus::Failed(m) => {
                Some(format!("dependency '{}' failed: {m}", sched.nodes[i].label))
            }
            JobStatus::Skipped(_) => {
                Some(format!("dependency '{}' was skipped", sched.nodes[i].label))
            }
            // Dependents of a cancelled job are claimed normally and hit
            // the cancel check themselves, so the whole tail of a
            // cancelled run reads `cancelled`, not `skipped`.
            JobStatus::Cancelled | JobStatus::Succeeded => None,
        };
        sched.records[i] = Some((status, cache, dur));
        sched.pending -= 1;
        let dependents = sched.dependents[i].clone();
        for d in dependents {
            if let Some(reason) = &failed_reason {
                sched.poison[d].get_or_insert_with(|| reason.clone());
            }
            sched.remaining[d] -= 1;
            if sched.remaining[d] == 0 {
                sched.ready.insert(d);
                sched.ready_at[d] = Some(Instant::now());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::JobValue;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn val(x: u64) -> JobValue {
        Arc::new(x)
    }

    fn diamond(counter: Option<&AtomicUsize>) -> JobGraph<'_> {
        // a → (b, c) → d, summing values.
        let mut g = JobGraph::new();
        let bump = move || {
            if let Some(c) = counter {
                c.fetch_add(1, Ordering::Relaxed);
            }
        };
        let a = g.add("a", JobKind::Lock, Some(1), vec![], move |_| {
            bump();
            Ok(val(1))
        });
        let b = g.add("b", JobKind::Train, Some(2), vec![a], move |ctx| {
            bump();
            Ok(val(*ctx.dep::<u64>(0) + 10))
        });
        let c = g.add("c", JobKind::Train, Some(3), vec![a], move |ctx| {
            bump();
            Ok(val(*ctx.dep::<u64>(0) + 20))
        });
        g.add("d", JobKind::Aggregate, Some(4), vec![b, c], move |ctx| {
            bump();
            Ok(val(*ctx.dep::<u64>(0) + *ctx.dep::<u64>(1)))
        });
        g
    }

    #[test]
    fn diamond_runs_in_dependency_order() {
        for workers in [1, 4] {
            let exec = Executor::new(ExecConfig::with_workers(workers));
            let out = exec.run(diamond(None));
            assert!(out.all_succeeded());
            assert_eq!(*out.value::<u64>(JobId(3)).unwrap(), 32);
            assert_eq!(out.stats.executed, 4);
        }
    }

    #[test]
    fn cache_skips_repeated_work() {
        let exec = Executor::new(ExecConfig::with_workers(2));
        let ran = AtomicUsize::new(0);
        let first = exec.run(diamond(Some(&ran)));
        assert_eq!(first.stats.cache_hits(), 0);
        assert_eq!(ran.load(Ordering::Relaxed), 4);
        // Second run with the same executor: everything is cache-served.
        let second = exec.run(diamond(Some(&ran)));
        assert!(second.all_succeeded());
        assert_eq!(second.stats.memory_hits, 4);
        assert_eq!(second.stats.cache_hits(), 4);
        assert_eq!(second.stats.executed, 0);
        assert_eq!(ran.load(Ordering::Relaxed), 4, "no body re-ran");
        assert_eq!(*second.value::<u64>(JobId(3)).unwrap(), 32);
        assert!(second
            .records
            .iter()
            .all(|r| r.cache == CacheSource::Memory));
    }

    #[test]
    fn failure_poisons_dependents_transitively() {
        let mut g = JobGraph::new();
        let a = g.add("a", JobKind::Lock, None, vec![], |_| Err("boom".into()));
        let b = g.add("b", JobKind::Train, None, vec![a], |_| Ok(val(1)));
        let c = g.add("c", JobKind::Attack, None, vec![b], |_| Ok(val(2)));
        let ok = g.add("ok", JobKind::Lock, None, vec![], |_| Ok(val(3)));
        let exec = Executor::new(ExecConfig::with_workers(4));
        let out = exec.run(g);
        assert_eq!(out.stats.failed, 1);
        assert_eq!(out.stats.skipped, 2);
        assert_eq!(out.stats.executed, 1);
        assert!(matches!(
            out.records[a.index()].status,
            JobStatus::Failed(_)
        ));
        assert!(matches!(
            out.records[b.index()].status,
            JobStatus::Skipped(_)
        ));
        assert!(matches!(
            out.records[c.index()].status,
            JobStatus::Skipped(_)
        ));
        assert_eq!(*out.value::<u64>(ok).unwrap(), 3);
    }

    #[test]
    fn cancellation_stops_unclaimed_jobs() {
        let exec = Executor::new(ExecConfig::with_workers(1));
        let token = exec.cancel_token();
        let mut g = JobGraph::new();
        let t = token.clone();
        let a = g.add("a", JobKind::Lock, None, vec![], move |_| {
            // First job cancels the run; everything after it is dropped.
            t.cancel();
            Ok(val(1))
        });
        let b = g.add("b", JobKind::Train, None, vec![a], |_| Ok(val(2)));
        let c = g.add("c", JobKind::Attack, None, vec![b], |_| Ok(val(3)));
        let out = exec.run(g);
        assert_eq!(out.stats.executed, 1);
        assert_eq!(out.stats.cancelled, 2);
        assert_eq!(out.records[b.index()].status, JobStatus::Cancelled);
        assert_eq!(out.records[c.index()].status, JobStatus::Cancelled);
        assert!(out.value::<u64>(b).is_none());
    }

    #[test]
    fn job_bodies_can_poll_the_token() {
        let exec = Executor::new(ExecConfig::with_workers(2));
        let token = exec.cancel_token();
        let mut g = JobGraph::new();
        g.add("long", JobKind::Train, None, vec![], move |ctx| {
            token.cancel();
            if ctx.cancel.is_cancelled() {
                return Err("cooperatively aborted".into());
            }
            Ok(val(0))
        });
        let out = exec.run(g);
        assert_eq!(out.stats.failed, 1);
    }

    #[test]
    fn panicking_job_fails_without_deadlocking_workers() {
        // A panic in one body must become a Failed record — not a dead
        // worker thread leaving siblings waiting forever.
        for workers in [1, 4] {
            let mut g = JobGraph::new();
            let boom = g.add("boom", JobKind::Train, None, vec![], |_| {
                panic!("kaboom {}", 42);
            });
            let child = g.add("child", JobKind::Attack, None, vec![boom], |_| Ok(val(1)));
            let ok = g.add("ok", JobKind::Lock, None, vec![], |_| Ok(val(2)));
            let out = Executor::new(ExecConfig::with_workers(workers)).run(g);
            match &out.records[boom.index()].status {
                JobStatus::Failed(msg) => assert!(msg.contains("kaboom 42"), "{msg}"),
                other => panic!("expected Failed, got {other:?}"),
            }
            assert!(matches!(
                out.records[child.index()].status,
                JobStatus::Skipped(_)
            ));
            assert_eq!(*out.value::<u64>(ok).unwrap(), 2);
        }
    }

    #[test]
    fn events_stream_job_lifecycle_and_panics() {
        let dir = crate::testing::TempDir::new("exec-events");
        let path = dir.join("events.jsonl");
        let log = Arc::new(EventLog::create(&path).unwrap());
        let exec = Executor::new(ExecConfig::with_workers(1)).with_events(log);
        let mut g = JobGraph::new();
        let ok = g.add("fine", JobKind::Lock, Some(1), vec![], |_| Ok(val(1)));
        let boom = g.add("boom", JobKind::Train, None, vec![ok], |_| {
            panic!("exploded in flight");
        });
        g.add("child", JobKind::Attack, None, vec![boom], |_| Ok(val(2)));
        let out = exec.run(g);
        assert_eq!(out.stats.failed, 1);

        let replay = EventLog::replay(&path).unwrap();
        assert!(!replay.truncated);
        // The panic is surfaced as a stage-error carrying the job id.
        let stage_error = replay
            .events
            .iter()
            .find_map(|e| match e {
                Event::StageError { id, error, .. } => Some((*id, error.clone())),
                _ => None,
            })
            .expect("panic must appear in the event log");
        assert_eq!(stage_error.0, boom.index());
        assert!(stage_error.1.contains("exploded in flight"));
        // Lifecycle: started + finished for the ok job, skip record for
        // the poisoned child.
        assert!(replay.events.contains(&Event::JobStarted {
            id: 0,
            label: "fine".into()
        }));
        assert!(replay.events.iter().any(|e| matches!(
            e,
            Event::JobFinished { id: 2, status, .. } if status == "skipped"
        )));
        // Re-running cache-hits the fingerprinted job and logs it.
        let _ = exec.run({
            let mut g = JobGraph::new();
            g.add("fine", JobKind::Lock, Some(1), vec![], |_| Ok(val(1)));
            g
        });
        let replay = EventLog::replay(&path).unwrap();
        assert!(replay.events.iter().any(|e| matches!(
            e,
            Event::CacheHit { id: 0, source, .. } if source == "memory"
        )));
    }

    #[test]
    fn after_job_hook_fires_after_publish_for_ok_and_failed() {
        use std::sync::Mutex;
        let seen: Arc<Mutex<Vec<(u64, bool, bool)>>> = Arc::new(Mutex::new(Vec::new()));
        let exec = Executor::new(ExecConfig::with_workers(1));
        let cache = exec.cache().clone();
        let hook = {
            let seen = seen.clone();
            let cache = cache.clone();
            Arc::new(move |kind: JobKind, fp: u64, ok: bool| {
                // At hook time a successful result is already published.
                let published = cache.get(kind, fp).is_some();
                seen.lock().unwrap().push((fp, ok, published));
            })
        };
        let exec = exec.with_after_job(hook);
        let mut g = JobGraph::new();
        g.add("good", JobKind::Lock, Some(5), vec![], |_| Ok(val(1)));
        g.add("bad", JobKind::Train, Some(6), vec![], |_| {
            Err("boom".into())
        });
        g.add("unfingerprinted", JobKind::Verify, None, vec![], |_| {
            Ok(val(2))
        });
        let out = exec.run(g);
        assert_eq!(out.stats.failed, 1);
        let mut seen = seen.lock().unwrap().clone();
        seen.sort_unstable();
        // Fingerprinted jobs only; success published before the hook.
        assert_eq!(seen, vec![(5, true, true), (6, false, false)]);
    }

    #[test]
    fn after_job_hook_skips_cache_hits() {
        let fired = Arc::new(AtomicUsize::new(0));
        let hook = {
            let fired = fired.clone();
            Arc::new(move |_: JobKind, _: u64, _: bool| {
                fired.fetch_add(1, Ordering::Relaxed);
            })
        };
        let exec = Executor::new(ExecConfig::with_workers(1)).with_after_job(hook);
        let build = || {
            let mut g = JobGraph::new();
            g.add("j", JobKind::Lock, Some(5), vec![], |_| Ok(val(1)));
            g
        };
        let _ = exec.run(build());
        assert_eq!(fired.load(Ordering::Relaxed), 1);
        // Second run is a memory hit: the body never ran, no hook.
        let _ = exec.run(build());
        assert_eq!(fired.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn stage_summaries_mark_over_budget_stages() {
        let exec = Executor::new(ExecConfig::with_workers(1));
        let mut g = JobGraph::new();
        g.add("slow", JobKind::Train, None, vec![], |_| {
            std::thread::sleep(Duration::from_millis(5));
            Ok(val(1))
        });
        g.add("fast", JobKind::Lock, None, vec![], |_| Ok(val(2)));
        let out = exec.run(g);
        // Explicit budget: the 5 ms train stage is over a 1 ms budget,
        // and nothing is over an absent budget.
        let with = out.stage_summaries_with_budget(Some(1.0));
        let train = with.iter().find(|s| s.kind == "train").unwrap();
        assert!(train.over_budget, "5 ms stage must exceed a 1 ms budget");
        let without = out.stage_summaries_with_budget(None);
        assert!(without.iter().all(|s| !s.over_budget));
        // A generous budget marks nothing either.
        let generous = out.stage_summaries_with_budget(Some(1e9));
        assert!(generous.iter().all(|s| !s.over_budget));
    }

    #[test]
    fn empty_graph_is_fine() {
        let exec = Executor::new(ExecConfig::default());
        let out = exec.run(JobGraph::new());
        assert_eq!(out.stats.total, 0);
        assert!(out.all_succeeded());
    }
}
