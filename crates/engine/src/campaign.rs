//! Campaigns: declarative {benchmark × scheme × key size × seed}
//! matrices expanded into job graphs.
//!
//! A [`Campaign`] captures the *shape* of an experiment — which
//! benchmarks, locking schemes, key sizes and lock seeds, and which
//! pipeline stages (parse → lock → synth → featurize → dataset →
//! `train-epoch` checkpoint chain → train → classify → remove → verify
//! → aggregate) apply — without knowing anything about netlists or
//! GNNs.
//! A [`CampaignRunner`] supplies the semantics of each stage; the
//! GNNUnlock implementation lives in `gnnunlock-core::campaign`, keeping
//! this crate std-only and dependency-free.
//!
//! The expansion is deterministic: job ids, labels and dependency lists
//! depend only on the campaign spec, so one campaign run on 1 worker and
//! one on 16 produce byte-identical [`crate::RunReport`]s.

use crate::cache::ResultCache;
use crate::codec::ValueCodec;
use crate::events::{Event, EventLog, EVENTS_FILE};
use crate::exec::{ExecConfig, Executor, RunOutcome};
use crate::graph::{fingerprint_fields, JobCtx, JobGraph, JobId, JobKind, JobOutput};
use crate::report::{ReportOptions, RunReport};
use crate::store::DiskStore;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// One planned unit of campaign work, interpreted by a
/// [`CampaignRunner`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StageJob {
    /// Pipeline stage.
    pub kind: JobKind,
    /// Locking scheme tag (runner-defined vocabulary, e.g. `antisat`).
    pub scheme: String,
    /// Benchmark name, for per-benchmark stages.
    pub benchmark: Option<String>,
    /// Key size, for per-instance stages.
    pub key_bits: Option<usize>,
    /// Lock-seed index, for per-instance stages.
    pub seed: Option<u64>,
    /// Checkpoint-chain link index, for `train-epoch` stages.
    pub epoch: Option<usize>,
}

impl StageJob {
    /// Stable human-readable label, e.g. `classify/antisat/c7552/k16/s1`
    /// or `train-epoch/antisat/c7552/e3`. Scheme-free jobs (`parse`)
    /// omit the scheme segment: `parse/c7552`.
    pub fn label(&self) -> String {
        let mut s = self.kind.tag().to_string();
        if !self.scheme.is_empty() {
            s.push('/');
            s.push_str(&self.scheme);
        }
        if let Some(b) = &self.benchmark {
            s.push('/');
            s.push_str(b);
        }
        if let Some(k) = self.key_bits {
            s.push_str(&format!("/k{k}"));
        }
        if let Some(seed) = self.seed {
            s.push_str(&format!("/s{seed}"));
        }
        if let Some(e) = self.epoch {
            s.push_str(&format!("/e{e}"));
        }
        s
    }

    /// Content fingerprint of this job's *own* fields under `salt` (the
    /// runner's per-stage configuration identity). The full cache key of
    /// a planned job is the Merkle composition of this value with its
    /// dependencies' keys (see [`Campaign::execute`]), so a job's
    /// address captures everything upstream that feeds it.
    ///
    /// `parse` jobs exclude the scheme: the original, pre-locking
    /// netlist is scheme-independent, so campaigns of different schemes
    /// (and different tables sharing a cache directory) reuse each
    /// other's parse results.
    pub fn fingerprint(&self, salt: u64) -> u64 {
        let scheme = if self.kind == JobKind::Parse {
            ""
        } else {
            self.scheme.as_str()
        };
        fingerprint_fields(&[
            self.kind.tag(),
            scheme,
            self.benchmark.as_deref().unwrap_or(""),
            &self.key_bits.map(|k| k.to_string()).unwrap_or_default(),
            &self.seed.map(|s| s.to_string()).unwrap_or_default(),
            &self.epoch.map(|e| e.to_string()).unwrap_or_default(),
            &salt.to_string(),
        ])
    }
}

/// Stage semantics for a campaign.
///
/// Implementations receive each [`StageJob`] together with its
/// dependencies' outputs (in the order listed by the plan) and return the
/// stage's output. They must be deterministic for cache correctness: the
/// output may be served from the result cache whenever `(stage kind,
/// fingerprint)` matches, and [`CampaignRunner::config_salt`] is the
/// place to fold in every configuration bit that affects outputs (scale,
/// library, training hyperparameters…).
pub trait CampaignRunner: Sync {
    /// Configuration identity mixed into every job fingerprint.
    fn config_salt(&self) -> u64 {
        0
    }

    /// Configuration identity of one *stage*, mixed into that stage's
    /// own fingerprint before Merkle composition. Defaults to
    /// [`CampaignRunner::config_salt`]; runners that want cross-campaign
    /// stage reuse override this to fold in only the configuration bits
    /// that actually affect the stage's output (e.g. a `parse` stage
    /// depends on the benchmark scale but not on training
    /// hyperparameters, so two campaigns differing only in epochs share
    /// parse entries).
    fn stage_salt(&self, kind: JobKind) -> u64 {
        let _ = kind;
        self.config_salt()
    }

    /// The codec used to persist this runner's stage outputs on disk
    /// ([`Campaign::execute_persistent`] / [`Campaign::resume`]).
    /// `None` (the default) keeps results in memory only; persistent
    /// runs still stream events and write the version-gated store
    /// directory, but every job recomputes in a fresh process.
    fn codec(&self) -> Option<Arc<dyn ValueCodec>> {
        None
    }

    /// Execute one stage job.
    fn run(&self, job: &StageJob, ctx: &JobCtx<'_>) -> JobOutput;
}

/// Builder for [`Campaign`].
#[derive(Debug, Clone)]
pub struct CampaignBuilder {
    name: String,
    schemes: Vec<String>,
    benchmarks: Vec<String>,
    key_sizes: Vec<usize>,
    seeds: Vec<u64>,
    synth: bool,
    verify: bool,
    epoch_jobs: usize,
    targets: Option<Vec<String>>,
}

impl CampaignBuilder {
    /// Start a campaign named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        CampaignBuilder {
            name: name.into(),
            schemes: Vec::new(),
            benchmarks: Vec::new(),
            key_sizes: Vec::new(),
            seeds: vec![0],
            synth: false,
            verify: true,
            epoch_jobs: 1,
            targets: None,
        }
    }

    /// Add a locking-scheme axis value (runner vocabulary).
    pub fn scheme(mut self, tag: impl Into<String>) -> Self {
        self.schemes.push(tag.into());
        self
    }

    /// Add benchmark axis values.
    pub fn benchmarks<I: IntoIterator<Item = S>, S: Into<String>>(mut self, names: I) -> Self {
        self.benchmarks.extend(names.into_iter().map(Into::into));
        self
    }

    /// Add key-size axis values.
    pub fn key_sizes(mut self, sizes: impl IntoIterator<Item = usize>) -> Self {
        self.key_sizes.extend(sizes);
        self
    }

    /// Lock-seed indices (default: the single seed 0).
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Include the synthesis stage between lock and dataset (Verilog
    /// flows). Off by default.
    pub fn with_synthesis(mut self, yes: bool) -> Self {
        self.synth = yes;
        self
    }

    /// Include the removal + SAT-verification stages after each
    /// classification. On by default.
    pub fn with_verification(mut self, yes: bool) -> Self {
        self.verify = yes;
        self
    }

    /// Split each target's training into `n` chained `train-epoch`
    /// checkpoint jobs (clamped to ≥ 1; default 1 = one block). Each
    /// link resumes from its predecessor's checkpoint, so a killed run
    /// restarts mid-training from the last persisted link instead of
    /// from scratch.
    pub fn train_checkpoints(mut self, n: usize) -> Self {
        self.epoch_jobs = n.max(1);
        self
    }

    /// Attack only these benchmarks (default: every benchmark). The
    /// dataset stages (parse → lock → featurize → dataset) still cover
    /// the full benchmark axis — leave-one-out training needs every
    /// instance — but training chains, classification, removal,
    /// verification and aggregation are planned for the listed targets
    /// only. Unknown names are ignored.
    pub fn attack_targets<I: IntoIterator<Item = S>, S: Into<String>>(
        mut self,
        targets: I,
    ) -> Self {
        self.targets = Some(targets.into_iter().map(Into::into).collect());
        self
    }

    /// Expand the matrix into a [`Campaign`].
    ///
    /// # Panics
    ///
    /// Panics if any axis is empty — an empty campaign is always a
    /// caller bug.
    pub fn build(self) -> Campaign {
        assert!(!self.schemes.is_empty(), "campaign has no schemes");
        assert!(!self.benchmarks.is_empty(), "campaign has no benchmarks");
        assert!(!self.key_sizes.is_empty(), "campaign has no key sizes");
        assert!(!self.seeds.is_empty(), "campaign has no seeds");
        let mut plan: Vec<(StageJob, Vec<usize>)> = Vec::new();
        let mut push = |job: StageJob, deps: Vec<usize>| -> usize {
            plan.push((job, deps));
            plan.len() - 1
        };
        let job = |kind,
                   scheme: &str,
                   benchmark: Option<&str>,
                   k: Option<usize>,
                   s: Option<u64>,
                   e: Option<usize>| StageJob {
            kind,
            scheme: scheme.to_string(),
            benchmark: benchmark.map(str::to_string),
            key_bits: k,
            seed: s,
            epoch: e,
        };

        // One parse job per benchmark, planned once for the whole
        // campaign: the original netlist is shared by every
        // {scheme × key size × seed} cell of that benchmark (and, via
        // its scheme-free content address, by other campaigns in the
        // same cache directory). Parse jobs carry no scheme at all, so
        // a multi-scheme campaign never plans duplicate parse work.
        let parse_ids: Vec<usize> = self
            .benchmarks
            .iter()
            .map(|b| push(job(JobKind::Parse, "", Some(b), None, None, None), vec![]))
            .collect();

        for scheme in &self.schemes {
            let mut feat_ids = Vec::new();
            for (bi, b) in self.benchmarks.iter().enumerate() {
                let parse = parse_ids[bi];
                for &k in &self.key_sizes {
                    for &s in &self.seeds {
                        let lock = push(
                            job(JobKind::Lock, scheme, Some(b), Some(k), Some(s), None),
                            vec![parse],
                        );
                        let tail = if self.synth {
                            push(
                                job(JobKind::Synth, scheme, Some(b), Some(k), Some(s), None),
                                vec![lock],
                            )
                        } else {
                            lock
                        };
                        feat_ids.push(push(
                            job(JobKind::Featurize, scheme, Some(b), Some(k), Some(s), None),
                            vec![tail, parse],
                        ));
                    }
                }
            }
            // One dataset-assembly job per scheme.
            let dataset = push(
                job(JobKind::Dataset, scheme, None, None, None, None),
                feat_ids,
            );
            // Leave-one-out per target benchmark: a chain of resumable
            // train-epoch checkpoint jobs, a finalize job, then classify
            // (and optionally remove + verify) each of the target's
            // instances.
            let mut tails = Vec::new();
            let mut trains = Vec::new();
            let attacked: Vec<&String> = self
                .benchmarks
                .iter()
                .filter(|b| self.targets.as_ref().is_none_or(|t| t.contains(b)))
                .collect();
            for b in attacked {
                let mut prev = None;
                for e in 0..self.epoch_jobs {
                    let deps = match prev {
                        None => vec![dataset],
                        Some(p) => vec![dataset, p],
                    };
                    prev = Some(push(
                        job(JobKind::TrainEpoch, scheme, Some(b), None, None, Some(e)),
                        deps,
                    ));
                }
                // Finalize also depends on the dataset so a runner can
                // complete training itself if the planned chain was
                // shorter than its configuration expects.
                let train = push(
                    job(JobKind::Train, scheme, Some(b), None, None, None),
                    vec![prev.expect("epoch_jobs >= 1"), dataset],
                );
                trains.push(train);
                for &k in &self.key_sizes {
                    for &s in &self.seeds {
                        let classify = push(
                            job(JobKind::Classify, scheme, Some(b), Some(k), Some(s), None),
                            vec![train, dataset],
                        );
                        let tail = if self.verify {
                            let remove = push(
                                job(JobKind::Remove, scheme, Some(b), Some(k), Some(s), None),
                                vec![classify, dataset],
                            );
                            push(
                                job(JobKind::Verify, scheme, Some(b), Some(k), Some(s), None),
                                vec![remove, dataset],
                            )
                        } else {
                            classify
                        };
                        tails.push(tail);
                    }
                }
            }
            // Per-scheme aggregation over train reports + per-cell
            // outcomes.
            let mut agg_deps = trains;
            agg_deps.extend(tails);
            push(
                job(JobKind::Aggregate, scheme, None, None, None, None),
                agg_deps,
            );
        }
        Campaign {
            name: self.name,
            schemes: self.schemes,
            plan,
        }
    }
}

/// A fully expanded campaign: a deterministic list of stage jobs with
/// explicit dependencies, ready to execute against any runner.
pub struct Campaign {
    /// Campaign name (report header).
    pub name: String,
    schemes: Vec<String>,
    plan: Vec<(StageJob, Vec<usize>)>,
}

impl Campaign {
    /// Start building a campaign.
    pub fn builder(name: impl Into<String>) -> CampaignBuilder {
        CampaignBuilder::new(name)
    }

    /// The planned jobs and their dependency indices.
    pub fn plan(&self) -> &[(StageJob, Vec<usize>)] {
        &self.plan
    }

    /// The campaign's scheme tags, in plan order.
    pub fn schemes(&self) -> &[String] {
        &self.schemes
    }

    /// Content hash of the campaign's *shape*: every planned label and
    /// dependency list. Mixed into job fingerprints so two
    /// differently-shaped campaigns sharing one runner and cache never
    /// collide (a dataset job's own fields don't mention the axis sets
    /// that feed it). Also recorded in the event log's `run-started`
    /// record, so [`Campaign::resume`] can refuse to continue a log
    /// written by a differently-shaped campaign.
    pub fn shape_fingerprint(&self) -> u64 {
        let fields: Vec<String> = self
            .plan
            .iter()
            .map(|(job, deps)| format!("{}:{deps:?}", job.label()))
            .collect();
        let refs: Vec<&str> = fields.iter().map(String::as_str).collect();
        fingerprint_fields(&refs)
    }

    /// Merkle-composed cache keys for every planned job: a job's key is
    /// the hash of its own fields (salted per stage by the runner) plus
    /// its dependencies' keys, so the address captures the entire input
    /// cone — two campaigns that plan an identical sub-DAG (same
    /// benchmark, same upstream configuration) share those entries
    /// through a common cache directory, while any upstream difference
    /// changes every downstream key and can never alias.
    pub fn job_fingerprints<R: CampaignRunner>(&self, runner: &R) -> Vec<u64> {
        let mut fps: Vec<u64> = Vec::with_capacity(self.plan.len());
        for (stage_job, deps) in &self.plan {
            let own = stage_job.fingerprint(runner.stage_salt(stage_job.kind));
            let mut fields: Vec<String> = Vec::with_capacity(1 + deps.len());
            fields.push(format!("{own:016x}"));
            fields.extend(deps.iter().map(|&d| format!("{:016x}", fps[d])));
            let refs: Vec<&str> = fields.iter().map(String::as_str).collect();
            fps.push(fingerprint_fields(&refs));
        }
        fps
    }

    /// Execute the campaign on `executor` with `runner` semantics.
    pub fn execute<R: CampaignRunner>(&self, runner: &R, executor: &Executor) -> CampaignRun {
        let fps = self.job_fingerprints(runner);
        let mut graph = JobGraph::new();
        for (i, (stage_job, deps)) in self.plan.iter().enumerate() {
            let dep_ids: Vec<JobId> = deps.iter().map(|&d| JobId(d)).collect();
            graph.add(
                stage_job.label(),
                stage_job.kind,
                Some(fps[i]),
                dep_ids,
                move |ctx| runner.run(stage_job, ctx),
            );
        }
        self.finish_run(executor.run(graph))
    }

    /// Assemble a [`CampaignRun`] from an executed outcome: the
    /// per-scheme aggregate-job map plus campaign metadata. Shared by
    /// [`Campaign::execute`] and the sharded path so the two can never
    /// drift.
    pub(crate) fn finish_run(&self, outcome: RunOutcome) -> CampaignRun {
        let aggregates = self
            .plan
            .iter()
            .enumerate()
            .filter(|(_, (j, _))| j.kind == JobKind::Aggregate)
            .map(|(i, (j, _))| (j.scheme.clone(), JobId(i)))
            .collect();
        CampaignRun {
            name: self.name.clone(),
            schemes: self.schemes.clone(),
            aggregates,
            outcome,
        }
    }

    /// Build the executor + event log a persistent run uses: a
    /// [`DiskStore`] rooted at `dir` behind the result cache (when the
    /// runner supplies a codec) and the campaign event log at
    /// `dir/events.jsonl`.
    fn persistent_executor<R: CampaignRunner>(
        &self,
        runner: &R,
        cfg: ExecConfig,
        dir: &Path,
        append_events: bool,
    ) -> io::Result<(Executor, Arc<EventLog>)> {
        let store = Arc::new(DiskStore::open(dir)?);
        let cache = match runner.codec() {
            Some(codec) => ResultCache::with_disk(store, codec),
            None => ResultCache::new(),
        };
        let events_path = dir.join(EVENTS_FILE);
        let log = Arc::new(if append_events {
            EventLog::open_append(&events_path)?
        } else {
            EventLog::create(&events_path)?
        });
        let executor = Executor::new(cfg)
            .with_cache(Arc::new(cache))
            .with_events(log.clone());
        Ok((executor, log))
    }

    /// Emit the `run-started` record a logged run opens with.
    pub(crate) fn emit_run_started(&self, log: &EventLog, resumed: bool) {
        log.append(&Event::RunStarted {
            campaign: self.name.clone(),
            jobs: self.plan.len(),
            shape: self.shape_fingerprint(),
            resumed,
        });
    }

    /// Emit the per-stage summaries and the terminal `run-finished`
    /// record a logged run drains into.
    pub(crate) fn emit_run_finished(log: &EventLog, run: &CampaignRun) {
        for s in run.outcome.stage_summaries() {
            log.append(&Event::StageSummary {
                kind: s.kind,
                total: s.total,
                executed: s.executed,
                memory_hits: s.memory_hits,
                disk_hits: s.disk_hits,
                failed: s.failed,
                skipped: s.skipped,
                cancelled: s.cancelled,
                ms: s.ms,
                over_budget: s.over_budget,
            });
        }
        let stats = run.outcome.stats;
        log.append(&Event::RunFinished {
            succeeded: stats.succeeded(),
            failed: stats.failed,
            skipped: stats.skipped,
            cancelled: stats.cancelled,
        });
    }

    fn execute_logged<R: CampaignRunner>(
        &self,
        runner: &R,
        executor: &Executor,
        log: &EventLog,
        resumed: bool,
    ) -> CampaignRun {
        self.emit_run_started(log, resumed);
        let run = self.execute(runner, executor);
        Self::emit_run_finished(log, &run);
        run
    }

    /// Execute the campaign with persistence rooted at `dir`: results
    /// the runner's [`ValueCodec`] can encode are written to the
    /// content-addressed [`DiskStore`] (shareable across processes via
    /// `GNNUNLOCK_CACHE_DIR`), and every job transition streams to
    /// `dir/events.jsonl`, truncating any previous log.
    ///
    /// Determinism: the default [`RunReport`] of a persistent run is
    /// byte-identical to an in-memory run of the same campaign — cold,
    /// warm-from-disk, or resumed.
    ///
    /// # Errors
    ///
    /// Fails when the store cannot be opened (including a schema-version
    /// mismatch) or the event log cannot be created.
    pub fn execute_persistent<R: CampaignRunner>(
        &self,
        runner: &R,
        cfg: ExecConfig,
        dir: &Path,
    ) -> io::Result<CampaignRun> {
        crate::env::apply_telemetry_env();
        let (executor, log) = self.persistent_executor(runner, cfg, dir, false)?;
        let run = self.execute_logged(runner, &executor, &log, false);
        Self::gc_store(&executor);
        write_trace(dir, &run.outcome, "trace.json");
        Ok(run)
    }

    /// Enforce the `GNNUNLOCK_CACHE_BUDGET_BYTES` size budget after a
    /// persistent or sharded run: evict least-recently-used store
    /// entries down to the budget, never touching entries this run
    /// produced or consumed.
    pub(crate) fn gc_store(executor: &Executor) {
        if let Some(store) = executor.cache().store() {
            store.gc_from_env();
        }
    }

    /// Resume an interrupted persistent campaign from `dir`: replay the
    /// event log to validate that it belongs to this campaign shape and
    /// count the jobs the crashed run already finished, then re-execute
    /// against the store — persisted results are served from disk, the
    /// rest recompute deterministically. The event log is appended to,
    /// starting with a `run-started` record marked `resumed`.
    ///
    /// # Errors
    ///
    /// Fails when the log's recorded shape fingerprint does not match
    /// this campaign (resuming the wrong directory), or on store/log
    /// I/O errors.
    pub fn resume<R: CampaignRunner>(
        &self,
        runner: &R,
        cfg: ExecConfig,
        dir: &Path,
    ) -> io::Result<(CampaignRun, ResumeInfo)> {
        crate::env::apply_telemetry_env();
        let replay = EventLog::replay(&dir.join(EVENTS_FILE))?;
        if let Some(shape) = replay.last_shape() {
            if shape != self.shape_fingerprint() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "event log in {} was written by a different campaign \
                         (shape {:016x}, expected {:016x})",
                        dir.display(),
                        shape,
                        self.shape_fingerprint()
                    ),
                ));
            }
        }
        let info = ResumeInfo {
            prior_completed: replay.completed_ids().len(),
            log_truncated: replay.truncated,
        };
        let (executor, log) = self.persistent_executor(runner, cfg, dir, true)?;
        let run = self.execute_logged(runner, &executor, &log, true);
        Self::gc_store(&executor);
        write_trace(dir, &run.outcome, "trace.json");
        Ok((run, info))
    }
}

/// Write a run's Chrome `trace_event` timeline beside its event log:
/// `dir/<default_name>`, or the path named by
/// [`crate::env::TRACE_OUT_ENV`] when set. Best-effort and skipped
/// entirely when telemetry is off — the trace is volatile timing data
/// and never feeds the deterministic report.
pub(crate) fn write_trace(dir: &Path, outcome: &RunOutcome, default_name: &str) {
    if !gnnunlock_telemetry::enabled() {
        return;
    }
    let path = crate::env::trace_out_from_env().unwrap_or_else(|| dir.join(default_name));
    let _ = std::fs::write(
        &path,
        gnnunlock_telemetry::chrome_trace_json(&outcome.spans),
    );
}

/// What [`Campaign::resume`] recovered from the interrupted run's event
/// log before re-executing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResumeInfo {
    /// Jobs the prior run(s) completed (executed ok or cache-served).
    pub prior_completed: usize,
    /// Whether the log ended in a torn record — the signature of a
    /// writer killed mid-event. The consistent prefix was still used.
    pub log_truncated: bool,
}

/// The result of executing a [`Campaign`].
pub struct CampaignRun {
    /// Campaign name.
    pub name: String,
    /// Scheme tags, in campaign order.
    pub schemes: Vec<String>,
    /// `(scheme, aggregate job id)` pairs, in campaign order.
    pub aggregates: Vec<(String, JobId)>,
    /// Raw executor outcome (records, values, counters).
    pub outcome: RunOutcome,
}

impl CampaignRun {
    /// The aggregate output of `scheme`, downcast to the runner's
    /// aggregate type. `None` if the scheme is unknown or its aggregation
    /// did not succeed.
    pub fn aggregate<T: Send + Sync + 'static>(&self, scheme: &str) -> Option<Arc<T>> {
        let (_, id) = self.aggregates.iter().find(|(s, _)| s == scheme)?;
        self.outcome.value::<T>(*id)
    }

    /// Build the run report (deterministic unless timings are enabled).
    pub fn report(&self, opts: ReportOptions) -> RunReport {
        RunReport::from_outcome(&self.name, &self.outcome, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecConfig;
    use crate::testing::Echo;

    const ECHO: Echo = Echo { salt: 7 };

    fn tiny() -> Campaign {
        Campaign::builder("tiny")
            .scheme("antisat")
            .benchmarks(["c1", "c2"])
            .key_sizes([8])
            .seeds([0, 1])
            .build()
    }

    #[test]
    fn plan_has_expected_shape() {
        let c = tiny();
        // 2 parses + 4 locks + 4 featurizes + 1 dataset + 2×(1 epoch +
        // 1 train) + 4 classifies + 4 removes + 4 verifies + 1 agg.
        assert_eq!(c.plan().len(), 28);
        let (agg, agg_deps) = c.plan().last().unwrap();
        assert_eq!(agg.kind, JobKind::Aggregate);
        // 2 trains + 4 verify tails.
        assert_eq!(agg_deps.len(), 6);
        // One parse per benchmark, shared by both seed cells.
        let parses: Vec<usize> = c
            .plan()
            .iter()
            .enumerate()
            .filter(|(_, (j, _))| j.kind == JobKind::Parse)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(parses.len(), 2);
        for parse in parses {
            let dependents = c
                .plan()
                .iter()
                .filter(|(j, deps)| j.kind == JobKind::Lock && deps.contains(&parse))
                .count();
            assert_eq!(dependents, 2, "both seed cells share one parse");
        }
        // Synthesis off: no synth jobs.
        assert!(c.plan().iter().all(|(j, _)| j.kind != JobKind::Synth));
        // With synthesis: one synth per lock.
        let c_synth = Campaign::builder("s")
            .scheme("sfll")
            .benchmarks(["c1"])
            .key_sizes([8])
            .with_synthesis(true)
            .build();
        assert_eq!(
            c_synth
                .plan()
                .iter()
                .filter(|(j, _)| j.kind == JobKind::Synth)
                .count(),
            1
        );
        // Multi-scheme campaigns still plan one parse per benchmark.
        let c_multi = Campaign::builder("m")
            .scheme("antisat")
            .scheme("sfll")
            .benchmarks(["c1"])
            .key_sizes([8])
            .build();
        assert_eq!(
            c_multi
                .plan()
                .iter()
                .filter(|(j, _)| j.kind == JobKind::Parse)
                .count(),
            1
        );
        // A deeper checkpoint chain adds train-epoch links.
        let c_chain = Campaign::builder("chain")
            .scheme("antisat")
            .benchmarks(["c1"])
            .key_sizes([8])
            .train_checkpoints(4)
            .build();
        assert_eq!(
            c_chain
                .plan()
                .iter()
                .filter(|(j, _)| j.kind == JobKind::TrainEpoch)
                .count(),
            4
        );
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let c = tiny();
        let run1 = c.execute(&ECHO, &Executor::new(ExecConfig::with_workers(1)));
        let run4 = c.execute(&ECHO, &Executor::new(ExecConfig::with_workers(4)));
        assert_eq!(
            run1.report(ReportOptions::default()).to_json(),
            run4.report(ReportOptions::default()).to_json()
        );
        let a1 = run1.aggregate::<String>("antisat").unwrap();
        let a4 = run4.aggregate::<String>("antisat").unwrap();
        assert_eq!(a1, a4);
    }

    #[test]
    fn repeated_execution_hits_the_cache() {
        let c = tiny();
        let exec = Executor::new(ExecConfig::with_workers(4));
        let first = c.execute(&ECHO, &exec);
        assert_eq!(first.outcome.stats.cache_hits(), 0);
        let second = c.execute(&ECHO, &exec);
        assert_eq!(second.outcome.stats.cache_hits(), c.plan().len());
        assert_eq!(second.outcome.stats.executed, 0);
        assert_eq!(
            second.aggregate::<String>("antisat"),
            first.aggregate::<String>("antisat")
        );
    }

    #[test]
    fn persistent_execution_reuses_the_store_across_executors() {
        let dir = crate::testing::TempDir::new("campaign-persist");
        let c = tiny();

        let cold = c
            .execute_persistent(&ECHO, ExecConfig::with_workers(2), &dir)
            .unwrap();
        assert!(cold.outcome.all_succeeded());
        assert_eq!(cold.outcome.stats.executed, c.plan().len());

        // A fresh executor (≈ a fresh process) is served from disk.
        let warm = c
            .execute_persistent(&ECHO, ExecConfig::with_workers(2), &dir)
            .unwrap();
        assert_eq!(warm.outcome.stats.disk_hits, c.plan().len());
        assert_eq!(warm.outcome.stats.executed, 0);
        assert_eq!(
            cold.report(ReportOptions::default()).to_json(),
            warm.report(ReportOptions::default()).to_json(),
            "cold and warm default reports must be byte-identical"
        );

        // Resume validates the shape and reports prior completions.
        let (resumed, info) = c.resume(&ECHO, ExecConfig::with_workers(2), &dir).unwrap();
        assert!(info.prior_completed >= c.plan().len());
        assert!(!info.log_truncated);
        assert_eq!(
            resumed.report(ReportOptions::default()).to_json(),
            cold.report(ReportOptions::default()).to_json(),
        );
        // A differently-shaped campaign refuses the directory.
        let other = Campaign::builder("other")
            .scheme("sfll")
            .benchmarks(["x"])
            .key_sizes([4])
            .build();
        let err = match other.resume(&ECHO, ExecConfig::with_workers(1), &dir) {
            Err(e) => e,
            Ok(_) => panic!("resuming a foreign log must fail"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn labels_and_fingerprints_are_stable() {
        let j = StageJob {
            kind: JobKind::Classify,
            scheme: "antisat".into(),
            benchmark: Some("c7552".into()),
            key_bits: Some(16),
            seed: Some(1),
            epoch: None,
        };
        assert_eq!(j.label(), "classify/antisat/c7552/k16/s1");
        assert_eq!(j.fingerprint(3), j.fingerprint(3));
        assert_ne!(j.fingerprint(3), j.fingerprint(4));
        let e = StageJob {
            kind: JobKind::TrainEpoch,
            scheme: "antisat".into(),
            benchmark: Some("c7552".into()),
            key_bits: None,
            seed: None,
            epoch: Some(3),
        };
        assert_eq!(e.label(), "train-epoch/antisat/c7552/e3");
        // Parse addresses are scheme-free: different schemes share them.
        let parse = |scheme: &str| StageJob {
            kind: JobKind::Parse,
            scheme: scheme.into(),
            benchmark: Some("c7552".into()),
            key_bits: None,
            seed: None,
            epoch: None,
        };
        assert_eq!(
            parse("antisat").fingerprint(3),
            parse("sfll").fingerprint(3)
        );
    }

    /// Merkle composition: a change anywhere upstream changes every
    /// downstream cache key, and identical sub-DAGs across differently
    /// shaped campaigns share keys.
    #[test]
    fn job_fingerprints_compose_over_dependencies() {
        let a = Campaign::builder("a")
            .scheme("antisat")
            .benchmarks(["c1", "c2"])
            .key_sizes([8])
            .build();
        let b = Campaign::builder("b")
            .scheme("antisat")
            .benchmarks(["c1", "c2"])
            .key_sizes([8, 16])
            .build();
        let fa = a.job_fingerprints(&ECHO);
        let fb = b.job_fingerprints(&ECHO);
        let find = |c: &Campaign, fps: &[u64], label: &str| -> u64 {
            let i = c
                .plan()
                .iter()
                .position(|(j, _)| j.label() == label)
                .unwrap_or_else(|| panic!("no job {label}"));
            fps[i]
        };
        // The shared cells address identically across the two shapes…
        for label in [
            "parse/c1",
            "lock/antisat/c1/k8/s0",
            "featurize/antisat/c1/k8/s0",
        ] {
            assert_eq!(find(&a, &fa, label), find(&b, &fb, label));
        }
        // …while the dataset (whose input cone differs) does not.
        assert_eq!(
            find(&a, &fa, "dataset/antisat"),
            find(&a, &a.job_fingerprints(&ECHO), "dataset/antisat"),
        );
        assert_ne!(
            find(&a, &fa, "dataset/antisat"),
            find(&b, &fb, "dataset/antisat"),
        );
        // Downstream of the dataset, everything differs too.
        assert_ne!(
            find(&a, &fa, "train/antisat/c1"),
            find(&b, &fb, "train/antisat/c1"),
        );
    }
}
