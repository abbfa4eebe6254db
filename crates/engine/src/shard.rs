//! Sharded campaign execution: N independent OS processes cooperatively
//! run one campaign over a shared store.
//!
//! [`Campaign::execute_sharded`] is the worker entry point of the
//! distribution layer. Every shard walks the *same* deterministic stage
//! DAG; the shared [`crate::DiskStore`] directory is both the result
//! substrate and — through [`crate::LeaseManager`]'s lease files — the
//! coordination substrate:
//!
//! 1. a job whose entry is already on disk is a plain disk hit (the
//!    executor's cache probe, before the body ever runs);
//! 2. otherwise the shard tries to **claim** the job's lease: the
//!    winner executes the body and publishes the result (the lease is
//!    released only *after* the entry is visible, via the executor's
//!    after-job hook), while losers **probe-poll** the store until the
//!    entry appears — or until the lease goes stale (`kill -9`'d
//!    owner), at which point a survivor takes it over and executes;
//! 3. **probe-ahead**: a claimed job whose dependents' entries are all
//!    already present is elided — nobody will ever read its output, so
//!    warm-adjacent shards don't recompute interior stages (the job's
//!    value is an [`Elided`] placeholder; its dependents are guaranteed
//!    cache hits and never look at it).
//!
//! Every shard therefore drains the whole graph and produces the same
//! [`crate::RunReport`] — the determinism contract extends to **cold =
//! warm = resumed = sharded, byte-identical** — while each *body*
//! executes on exactly one shard (asserted via the merged per-shard
//! event logs: a completed execution is a `job-claimed` record followed
//! by the job's `job-finished` of status `ok` within the same run of
//! the same log — see [`execution_counts`]).
//!
//! The **finalizer** is elected deterministically: the shard that
//! claims (and therefore executes) the campaign's final aggregate job.
//! It is the natural place to merge the per-shard JSONL event streams
//! ([`merge_shard_events`]) and write the canonical report file — on a
//! fully warm re-run no shard executes the aggregate and no finalizer
//! is elected, but every shard still holds the identical report.
//!
//! Failure semantics: failed jobs are *not* persisted, so each shard
//! discovers a deterministic failure independently (its dependents are
//! skipped identically everywhere). Jobs whose values the runner's
//! codec declines to encode likewise execute on every shard that needs
//! them — sharding requires a codec precisely because peer results
//! travel through the store.

use crate::backend::{LocalDirBackend, StoreBackend};
use crate::cache::ResultCache;
use crate::campaign::{Campaign, CampaignRun, CampaignRunner};
use crate::env;
use crate::events::{Event, EventLog, Replay};
use crate::exec::{ExecConfig, Executor};
use crate::graph::{JobCtx, JobGraph, JobId, JobKind, JobOutput, JobValue};
use crate::lease::{Claim, LeaseManager, LeaseStats};
use crate::store::{sanitize_tag, DiskStore};
use gnnunlock_telemetry as telemetry;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Placeholder value of a job elided by probe-ahead scheduling. Lives
/// in the memory tier only (no codec encodes it); dependents of an
/// elided job are guaranteed cache hits and never downcast it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Elided;

/// Configuration of one shard of a distributed campaign.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// This shard's identity: the lease owner string and the suffix of
    /// its per-shard event log (`events-<id>.jsonl`). Must be unique
    /// among concurrently running shards.
    pub shard_id: String,
    /// How long a foreign lease may go un-heartbeated before this shard
    /// treats its owner as dead and takes the job over. A shard waiting
    /// on a peer's job re-probes the store every `ttl / 8`, clamped to
    /// 5–500 ms.
    pub lease_ttl: Duration,
    /// Tenant namespace for the store this shard executes against
    /// ([`DiskStore::open_namespaced`]): entries — and, since lease
    /// files live beside entries, leases — go under
    /// `tenants/<ns>/objects/` instead of `objects/`, so multi-tenant
    /// services keep tenants' results and coordination disjoint.
    /// `None` (the default) is the shared default namespace.
    pub namespace: Option<String>,
    /// Store backend this shard executes against: the local filesystem
    /// ([`LocalDirBackend`]) by default. Tests pass a shared
    /// [`crate::testing::Faulty`] backend here to run whole sharded
    /// campaigns under injected faults.
    pub backend: Arc<dyn StoreBackend>,
}

impl ShardConfig {
    /// A shard named `shard_id` with the default 30 s lease TTL.
    pub fn new(shard_id: impl Into<String>) -> Self {
        ShardConfig {
            shard_id: shard_id.into(),
            lease_ttl: Duration::from_millis(30_000),
            namespace: None,
            backend: Arc::new(LocalDirBackend::new()),
        }
    }

    /// Set the lease TTL.
    pub fn with_ttl(mut self, ttl: Duration) -> Self {
        self.lease_ttl = ttl;
        self
    }

    /// Execute against the tenant namespace `tenant` (blank = default).
    pub fn with_namespace(mut self, tenant: impl Into<String>) -> Self {
        let tenant = tenant.into();
        let trimmed = tenant.trim();
        self.namespace = if trimmed.is_empty() {
            None
        } else {
            Some(trimmed.to_string())
        };
        self
    }

    /// Execute against an explicit store backend instead of the local
    /// filesystem.
    pub fn with_backend(mut self, backend: Arc<dyn StoreBackend>) -> Self {
        self.backend = backend;
        self
    }

    /// A shard configured from the environment: `GNNUNLOCK_SHARD_ID`
    /// (default `pid-<pid>`), `GNNUNLOCK_LEASE_TTL_MS` (default
    /// 30000; malformed values warn and fall back) and
    /// `GNNUNLOCK_TENANT` (default: the shared default namespace).
    /// This is what the worker binaries use, so
    /// `for i in 0..N; do GNNUNLOCK_SHARD_ID=w$i worker & done` over
    /// one `GNNUNLOCK_CACHE_DIR` splits a campaign across processes —
    /// including workers cohabiting with a running `gnnunlockd`, which
    /// set `GNNUNLOCK_TENANT` to join a tenant's campaign.
    pub fn from_env() -> Self {
        let mut cfg = ShardConfig::new(env::shard_id_from_env());
        if let Some(ttl) = env::lease_ttl_from_env() {
            cfg = cfg.with_ttl(ttl);
        }
        if let Some(tenant) = env::tenant_from_env() {
            cfg = cfg.with_namespace(tenant);
        }
        cfg
    }

    /// How often a shard waiting on a peer's job re-probes the store.
    fn poll_interval(&self) -> Duration {
        (self.lease_ttl / 8).clamp(Duration::from_millis(5), Duration::from_millis(500))
    }
}

/// What one shard's [`Campaign::execute_sharded`] produced.
pub struct ShardedRun {
    /// The campaign run as this shard observed it. Its default report
    /// is byte-identical across every shard (and to a single-process
    /// run). Caveat: values of probe-ahead-elided jobs are [`Elided`]
    /// placeholders; aggregate values (which have no dependents, so are
    /// never elided) are always real.
    pub run: CampaignRun,
    /// This shard's id.
    pub shard_id: String,
    /// Whether this shard executed the campaign's final aggregate job —
    /// the deterministically elected finalizer, responsible for writing
    /// the canonical report and merging event streams. `false` on every
    /// shard of a fully warm re-run (the aggregate was a cache hit
    /// everywhere).
    pub is_finalizer: bool,
    /// Lease-traffic counters of this shard.
    pub lease_stats: LeaseStats,
}

/// Name of the per-shard event log inside the campaign directory.
pub fn shard_events_file(shard_id: &str) -> String {
    format!("events-{}.jsonl", sanitize_tag(shard_id))
}

impl Campaign {
    /// Execute this campaign as one shard of a multi-process run rooted
    /// at `dir`: claim unleased, not-yet-cached jobs, publish their
    /// results through the store, and probe-poll for (or take over)
    /// jobs owned by peer shards. Events stream to
    /// `dir/events-<shard_id>.jsonl` (appending, so a restarted shard
    /// id keeps one stream).
    ///
    /// # Errors
    ///
    /// Fails when the runner supplies no [`crate::ValueCodec`] (peer
    /// results travel through the store, so sharding requires every
    /// stage to be persistable), when the store cannot be opened, or
    /// when the event log cannot be created.
    pub fn execute_sharded<R: CampaignRunner>(
        &self,
        runner: &R,
        cfg: ExecConfig,
        dir: &Path,
        shard: &ShardConfig,
    ) -> io::Result<ShardedRun> {
        env::apply_telemetry_env();
        let codec = runner.codec().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "sharded execution requires a persistent codec: peer shards exchange \
                 results through the store",
            )
        })?;
        let store = Arc::new(DiskStore::open_with_backend(
            dir,
            shard.namespace.as_deref().unwrap_or_default(),
            shard.backend.clone(),
        )?);
        let cache = Arc::new(ResultCache::with_disk(store.clone(), codec));
        let leases = Arc::new(LeaseManager::new(
            store.clone(),
            shard.shard_id.clone(),
            shard.lease_ttl,
        ));
        let log = Arc::new(EventLog::open_append(
            &dir.join(shard_events_file(&shard.shard_id)),
        )?);

        let plan = self.plan();
        let fps = self.job_fingerprints(runner);
        // Dependents' addresses per job, for the probe-ahead check.
        let mut dependents: Vec<Vec<(JobKind, u64)>> = vec![Vec::new(); plan.len()];
        for (i, (job, deps)) in plan.iter().enumerate() {
            for &d in deps {
                dependents[d].push((job.kind, fps[i]));
            }
        }
        let final_aggregate = plan
            .iter()
            .rposition(|(j, _)| j.kind == JobKind::Aggregate)
            .unwrap_or(plan.len().saturating_sub(1));
        let finalizer = AtomicBool::new(false);

        // Prefer-unleased scheduling: pick unleased ready jobs first.
        // A job a live peer is executing would only be probe-polled, so
        // do productive work instead and come back to it — usually as a
        // cache hit. (A job whose entry already landed is never
        // deferred; it costs nothing.) The probe does filesystem I/O
        // and the hint runs under the scheduler lock, so verdicts are
        // memoized per fingerprint for one poll interval — a stale
        // verdict only perturbs pick order, never results.
        let ready_hint = {
            let leases = leases.clone();
            let store = store.clone();
            let memo: std::sync::Mutex<BTreeMap<u64, (std::time::Instant, bool)>> =
                std::sync::Mutex::new(BTreeMap::new());
            let memo_for = shard.poll_interval();
            Arc::new(move |kind, fp| {
                let Some(fp) = fp else { return false };
                let now = std::time::Instant::now();
                if let Some(&(at, verdict)) = memo.lock().unwrap().get(&fp) {
                    if now.duration_since(at) < memo_for {
                        return verdict;
                    }
                }
                let verdict = !store.contains(kind, fp) && leases.peer_holds(kind, fp);
                memo.lock().unwrap().insert(fp, (now, verdict));
                verdict
            })
        };
        // Release a job's lease only after its result is published (or
        // its body failed — failures are not persisted, so the next
        // claimant re-discovers them deterministically).
        let executor = Executor::new(cfg)
            .with_cache(cache.clone())
            .with_events(log.clone())
            .with_after_job(Arc::new({
                let leases = leases.clone();
                move |kind: JobKind, fp: u64, _ok: bool| {
                    leases.release(kind, fp);
                }
            }))
            .with_ready_hint(ready_hint);

        let mut graph = JobGraph::new();
        for (i, (stage_job, deps)) in plan.iter().enumerate() {
            let dep_ids: Vec<JobId> = deps.iter().map(|&d| JobId(d)).collect();
            let fp = fps[i];
            let deps_of = std::mem::take(&mut dependents[i]);
            let cache = cache.clone();
            let store = store.clone();
            let log = log.clone();
            let leases = leases.clone();
            let finalizer_ref = &finalizer;
            let shard_cfg = shard.clone();
            let is_final_aggregate = i == final_aggregate;
            graph.add(
                stage_job.label(),
                stage_job.kind,
                Some(fp),
                dep_ids,
                move |ctx| {
                    shard_body(
                        runner,
                        stage_job,
                        ctx,
                        i,
                        fp,
                        cache.as_ref(),
                        store.as_ref(),
                        leases.as_ref(),
                        log.as_ref(),
                        &deps_of,
                        &shard_cfg,
                        finalizer_ref,
                        is_final_aggregate,
                    )
                },
            );
        }

        self.emit_run_started(&log, false);
        let run = self.finish_run(executor.run(graph));
        Self::emit_run_finished(&log, &run);
        if let Some(store) = executor.cache().store() {
            store.gc_from_env();
        }
        crate::campaign::write_trace(
            dir,
            &run.outcome,
            &format!("trace-{}.json", sanitize_tag(&shard.shard_id)),
        );
        let lease_stats = leases.stats();
        Ok(ShardedRun {
            run,
            shard_id: shard.shard_id.clone(),
            is_finalizer: finalizer.load(Ordering::SeqCst),
            lease_stats,
        })
    }
}

/// The lease dance one job body performs on a cache miss. Returns the
/// job's value — computed under an acquired lease, elided by
/// probe-ahead, or probe-polled out of the store after a peer shard
/// published it.
#[allow(clippy::too_many_arguments)]
fn shard_body<R: CampaignRunner>(
    runner: &R,
    stage_job: &crate::campaign::StageJob,
    ctx: &JobCtx<'_>,
    id: usize,
    fp: u64,
    cache: &ResultCache,
    store: &DiskStore,
    leases: &LeaseManager,
    log: &EventLog,
    dependents: &[(JobKind, u64)],
    shard: &ShardConfig,
    finalizer: &AtomicBool,
    is_final_aggregate: bool,
) -> JobOutput {
    let kind = stage_job.kind;
    // Wall-clock spent probe-polling a peer-held lease, surfaced as one
    // `lease-wait` span (child of the job's own span via `parent: fp`)
    // in the Chrome trace. Recorded into the worker thread's local span
    // buffer — the executor drains it at the job boundary; no locks on
    // this path.
    let mut wait_start: Option<Instant> = None;
    let note_wait = |wait_start: &mut Option<Instant>| {
        if let Some(t0) = wait_start.take() {
            telemetry::record_span(
                &format!("lease-wait/{}", stage_job.label()),
                "lease-wait",
                telemetry::derived_id(fp, "lease-wait"),
                fp,
                t0,
            );
        }
    };
    loop {
        // A peer may have published since the executor's cache probe
        // (or since the last poll tick).
        if let Some((value, _)) = cache.lookup(kind, fp) {
            note_wait(&mut wait_start);
            return Ok(value);
        }
        match leases.try_claim(kind, fp) {
            Claim::Acquired {
                generation,
                takeover,
            } => {
                note_wait(&mut wait_start);
                // Double-check under the lease: the entry may have
                // landed between the probe and the claim.
                if let Some((value, _)) = cache.lookup(kind, fp) {
                    leases.release(kind, fp);
                    return Ok(value);
                }
                // Probe-ahead: if every dependent's entry is already
                // materialized, nobody will read this job's output.
                // `load` (not a bare existence check) validates each
                // entry's checksum — a corrupt dependent is evicted and
                // fails the check, so this job executes normally
                // instead of leaving its dependent to recompute against
                // an Elided placeholder.
                if !dependents.is_empty()
                    && dependents.iter().all(|&(k, f)| store.load(k, f).is_some())
                {
                    leases.release(kind, fp);
                    log.append(&Event::JobElided {
                        id,
                        label: stage_job.label(),
                    });
                    return Ok(Arc::new(Elided) as JobValue);
                }
                // This claim marks a real execution: exactly one shard
                // log will pair it with the job's terminal
                // `job-finished`. The lease is released by the
                // executor's after-job hook, strictly after publish.
                log.append(&Event::JobClaimed {
                    id,
                    label: stage_job.label(),
                    owner: leases.owner().to_string(),
                    generation,
                    takeover,
                });
                if is_final_aggregate {
                    finalizer.store(true, Ordering::SeqCst);
                }
                return runner.run(stage_job, ctx);
            }
            Claim::Busy => {
                if ctx.cancel.is_cancelled() {
                    return Err(format!(
                        "cancelled while waiting for a peer shard to finish '{}'",
                        stage_job.label()
                    ));
                }
                // A degraded store makes Busy unresolvable: claims fail
                // fast, peers cannot publish, and polling would spin
                // until cancellation. Fail the job cleanly instead —
                // in-flight peers keep executing; this cell reports a
                // `store-degraded` stage error.
                if store.backend().degraded() {
                    return Err(format!(
                        "{}: store backend circuit breaker is open while waiting for '{}'",
                        crate::resilience::DEGRADED_PREFIX,
                        stage_job.label()
                    ));
                }
                leases.note_poll_wait();
                wait_start.get_or_insert_with(Instant::now);
                std::thread::sleep(shard.poll_interval());
            }
        }
    }
}

/// Replay every per-shard event log under `dir`, sorted by shard id.
/// The merged stream (`merged-events.jsonl`) and the single-process log
/// (`events.jsonl`) are not included.
///
/// # Errors
///
/// Propagates directory/file read errors.
pub fn shard_replays(dir: &Path) -> io::Result<Vec<(String, Replay)>> {
    let mut out = Vec::new();
    for entry in fs_read_dir_sorted(dir)? {
        let name = entry
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if let Some(id) = name
            .strip_prefix("events-")
            .and_then(|rest| rest.strip_suffix(".jsonl"))
        {
            out.push((id.to_string(), EventLog::replay(&entry)?));
        }
    }
    Ok(out)
}

fn fs_read_dir_sorted(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    paths.sort();
    Ok(paths)
}

/// Completed successful executions per job label across a set of
/// per-shard replays. An execution is a `job-claimed` record paired
/// with a `job-finished` of status `ok` later in the *same run* of the
/// *same shard's* log (run boundaries are the `run-started` records) —
/// so a claim whose shard died mid-job (no terminal record in that
/// run) does not count, which is exactly the takeover story, and a
/// restarted shard id whose new run wait-serves the job never pairs
/// the old orphaned claim with the new finish. Wait-served and
/// cache-served jobs (no claim) never count, and neither do
/// deterministic *failures* — those are re-discovered by every shard
/// by design (failed results are not persisted).
pub fn execution_counts(replays: &[(String, Replay)]) -> BTreeMap<String, usize> {
    let mut out: BTreeMap<String, usize> = BTreeMap::new();
    for (_, replay) in replays {
        let mut pending: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        for ev in &replay.events {
            match ev {
                // A new run in this log: claims from a previous
                // (killed) run can no longer complete.
                Event::RunStarted { .. } => pending.clear(),
                Event::JobClaimed { label, .. } => {
                    pending.insert(label);
                }
                Event::JobFinished { label, status, .. }
                    if status == "ok" && pending.remove(label.as_str()) =>
                {
                    *out.entry(label.clone()).or_default() += 1;
                }
                _ => {}
            }
        }
    }
    out
}

/// Merge every per-shard event log under `dir` into
/// `dir/merged-events.jsonl` (shard-id order, torn tails dropped) and
/// return its path. Deterministic given the same set of complete shard
/// logs; typically run by the finalizer shard or a post-run inspector.
///
/// # Errors
///
/// Propagates read/write errors.
pub fn merge_shard_events(dir: &Path) -> io::Result<PathBuf> {
    let replays = shard_replays(dir)?;
    let mut doc = String::new();
    for (_, replay) in &replays {
        for ev in &replay.events {
            doc.push_str(&ev.to_jsonl());
            doc.push('\n');
        }
    }
    let path = dir.join("merged-events.jsonl");
    std::fs::write(&path, doc)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::StageJob;
    use crate::codec::ValueCodec;
    use crate::report::ReportOptions;
    use crate::testing::{Echo, StringCodec, TempDir};

    const ECHO: Echo = Echo { salt: 7 };

    fn tiny() -> Campaign {
        Campaign::builder("sharded-tiny")
            .scheme("antisat")
            .benchmarks(["c1", "c2"])
            .key_sizes([8])
            .build()
    }

    #[test]
    fn cold_then_warm_sharded_runs_match_persistent() {
        let dir = TempDir::new("shard-cold-warm");
        let ref_dir = TempDir::new("shard-cold-warm-ref");
        let campaign = tiny();

        // Single-process reference.
        let reference = campaign
            .execute_persistent(&ECHO, ExecConfig::with_workers(2), &ref_dir)
            .unwrap();
        let reference_report = reference.report(ReportOptions::default()).to_json();

        // Cold one-shard run: executes everything, elects itself
        // finalizer (it claims the aggregate).
        let cold = campaign
            .execute_sharded(
                &ECHO,
                ExecConfig::with_workers(2),
                &dir,
                &ShardConfig::new("s0"),
            )
            .unwrap();
        assert!(cold.run.outcome.all_succeeded());
        assert!(cold.is_finalizer);
        assert_eq!(cold.lease_stats.claimed, campaign.plan().len());
        assert_eq!(cold.lease_stats.released, campaign.plan().len());
        assert_eq!(
            cold.run.report(ReportOptions::default()).to_json(),
            reference_report,
            "sharded and single-process reports must be byte-identical"
        );

        // Warm re-shard: pure disk hits, no claims, no finalizer.
        let warm = campaign
            .execute_sharded(
                &ECHO,
                ExecConfig::with_workers(2),
                &dir,
                &ShardConfig::new("s1"),
            )
            .unwrap();
        assert_eq!(warm.run.outcome.stats.disk_hits, campaign.plan().len());
        assert_eq!(warm.lease_stats.claimed, 0);
        assert!(!warm.is_finalizer);
        assert_eq!(
            warm.run.report(ReportOptions::default()).to_json(),
            reference_report
        );

        // Exactly one completed execution per job across shard logs.
        let replays = shard_replays(&dir).unwrap();
        assert_eq!(replays.len(), 2);
        let counts = execution_counts(&replays);
        assert_eq!(counts.len(), campaign.plan().len());
        assert!(counts.values().all(|&n| n == 1), "{counts:?}");

        // The merged stream contains both shards' run records.
        let merged = merge_shard_events(&dir).unwrap();
        let merged = EventLog::replay(&merged).unwrap();
        let starts = merged
            .events
            .iter()
            .filter(|e| matches!(e, Event::RunStarted { .. }))
            .count();
        assert_eq!(starts, 2);
    }

    /// Prefer-unleased scheduling removes probe-poll iterations: a shard
    /// facing a peer-leased job and other ready work does the other
    /// work first and picks the leased job up as a cache hit, instead
    /// of sleeping in the poll loop while work waits. Two-shard toy: a
    /// simulated peer holds the first ready job's lease and publishes
    /// its result 400 ms in; every other body takes ~60 ms.
    #[test]
    fn prefer_unleased_scheduling_reduces_poll_iterations() {
        /// Echo with per-body wall-clock, so pick order is observable.
        struct SlowEcho;
        impl CampaignRunner for SlowEcho {
            fn config_salt(&self) -> u64 {
                ECHO.config_salt()
            }
            fn codec(&self) -> Option<Arc<dyn ValueCodec>> {
                ECHO.codec()
            }
            fn run(&self, job: &StageJob, ctx: &JobCtx<'_>) -> JobOutput {
                std::thread::sleep(Duration::from_millis(60));
                ECHO.run(job, ctx)
            }
        }

        let dir = TempDir::new("shard-prefer");
        // Five benchmarks: the non-c1 parse/lock/featurize jobs are
        // independent of the peer-held parse(c1), giving the preferred
        // schedule ~12 x 60 ms of productive work — well past the
        // peer's 400 ms publish.
        let campaign = Campaign::builder("sharded-prefer")
            .scheme("antisat")
            .benchmarks(["c1", "c2", "c3", "c4", "c5"])
            .key_sizes([8])
            .build();
        let plan = campaign.plan();
        let fps = campaign.job_fingerprints(&SlowEcho);
        // The peer leases the first ready job (lowest id, so a scheduler
        // without the hint would pick it first and poll).
        let (job0, deps0) = &plan[0];
        assert!(deps0.is_empty(), "plan[0] must be a ready root");
        let (kind0, fp0) = (job0.kind, fps[0]);
        let store = Arc::new(DiskStore::open(&dir).unwrap());
        let peer = LeaseManager::new(store.clone(), "peer", Duration::from_secs(60));
        assert!(matches!(peer.try_claim(kind0, fp0), Claim::Acquired { .. }));
        let publisher = {
            let store = store.clone();
            let job0 = job0.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(400));
                let cache = ResultCache::with_disk(store, Arc::new(StringCodec));
                let cancel = crate::CancelToken::new();
                let ctx = JobCtx {
                    deps: &[],
                    cancel: &cancel,
                };
                let value = SlowEcho.run(&job0, &ctx).unwrap();
                cache.put(kind0, fp0, value);
            })
        };
        // TTL comfortably past the publish instant (no takeover — the
        // test is about scheduling), but with a poll interval (ttl/8 =
        // 150 ms) fine enough that polling would show across the 400 ms
        // window.
        let shard = ShardConfig::new("w").with_ttl(Duration::from_millis(1200));
        let sharded = campaign
            .execute_sharded(&SlowEcho, ExecConfig::with_workers(1), &dir, &shard)
            .unwrap();
        publisher.join().unwrap();
        assert!(sharded.run.outcome.all_succeeded());
        assert_eq!(
            sharded.lease_stats.poll_waits, 0,
            "with other ready work covering the peer's publish window, \
             the preferred schedule never polls"
        );
    }

    #[test]
    fn sharding_without_a_codec_is_refused() {
        struct NoCodec;
        impl CampaignRunner for NoCodec {
            fn run(&self, job: &StageJob, ctx: &JobCtx<'_>) -> JobOutput {
                ECHO.run(job, ctx)
            }
        }
        let dir = TempDir::new("shard-no-codec");
        let err = match tiny().execute_sharded(
            &NoCodec,
            ExecConfig::with_workers(1),
            &dir,
            &ShardConfig::new("s"),
        ) {
            Err(e) => e,
            Ok(_) => panic!("codec-less sharding must be refused"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn shard_config_defaults_and_env_shape() {
        let cfg = ShardConfig::new("w3");
        assert_eq!(cfg.lease_ttl, Duration::from_secs(30));
        assert_eq!(cfg.poll_interval(), Duration::from_millis(500));
        let short = cfg.with_ttl(Duration::from_millis(80));
        assert_eq!(short.poll_interval(), Duration::from_millis(10));
        assert_eq!(shard_events_file("w/3"), "events-w_3.jsonl");
    }
}
