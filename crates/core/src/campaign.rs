//! GNNUnlock semantics for engine campaigns.
//!
//! [`gnnunlock_engine::Campaign`] expands {benchmark × scheme × key size
//! × seed} matrices into per-cell stage DAGs — parse → lock → synth →
//! featurize → dataset → a chain of resumable `train-epoch` checkpoint
//! jobs → train → classify → remove → verify → aggregate; this module
//! supplies the stage bodies ([`AttackCampaignRunner`]) and a
//! convenience entry point ([`run_campaign`]) that executes one dataset
//! configuration end-to-end on the parallel executor. Each stage is
//! content-addressed over its input cone and cached independently, so
//! cells sharing a benchmark reuse each other's `parse` work, repeated
//! runs reuse everything, and a killed run resumes mid-training from
//! the last persisted epoch checkpoint.
//!
//! Determinism: every stage derives its randomness from the dataset
//! config's seeds, so a campaign produces byte-identical results — and a
//! byte-identical JSON [`gnnunlock_engine::RunReport`] — for every
//! worker count. Fingerprints cover the full dataset + attack
//! configuration, so repeated runs against a shared
//! [`gnnunlock_engine::ResultCache`] skip all redundant work (visible as
//! `cache_hits` in the report counters).

use crate::dataset::{graph_instance, lock_instance, synth_locked, Dataset, DatasetConfig};
use crate::persist::{
    CheckpointValue, ClassifyArtifact, PipelineCodec, RemovalArtifact, TrainValue,
};
use crate::pipeline::{
    classify_instance, recover_design, verify_recovered, AttackConfig, AttackOutcome,
    InstanceOutcome,
};
use gnnunlock_engine::{
    fingerprint_fields, knob_path, Campaign, CampaignRun, CampaignRunner, DiskStore, EventLog,
    ExecConfig, Executor, JobCtx, JobKind, JobOutput, JobValue, ResultCache, ResumeInfo,
    ShardConfig, ShardedRun, StageJob, ValueCodec, CACHE_DIR_ENV, EVENTS_ENV,
};
use gnnunlock_gnn::{CircuitGraph, TrainState};
use gnnunlock_locking::LockedCircuit;
use gnnunlock_netlist::{generator::BenchmarkSpec, CellLibrary, Netlist};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Training epochs per checkpointed `train-epoch` stage job, from the
/// attack configuration (clamped to ≥ 1).
fn epochs_per_block(attack: &AttackConfig) -> usize {
    attack.checkpoint_epochs.max(1)
}

/// Number of chained `train-epoch` jobs a campaign plans per target.
pub fn checkpoint_blocks(attack: &AttackConfig) -> usize {
    attack
        .train
        .epochs
        .div_ceil(epochs_per_block(attack))
        .max(1)
}

/// Stage semantics of a GNNUnlock attack campaign over one dataset
/// configuration.
pub struct AttackCampaignRunner<'a> {
    dataset: &'a DatasetConfig,
    attack: &'a AttackConfig,
    /// Benchmarks being attacked (`None` = the whole suite). Must match
    /// the campaign's plan — see [`campaign_for_targets`].
    targets: Option<Vec<String>>,
}

impl<'a> AttackCampaignRunner<'a> {
    /// A runner attacking `dataset`-shaped instances with `attack`.
    pub fn new(dataset: &'a DatasetConfig, attack: &'a AttackConfig) -> Self {
        AttackCampaignRunner {
            dataset,
            attack,
            targets: None,
        }
    }

    /// A runner for a target-restricted campaign (see
    /// [`campaign_for_targets`]); `targets` must be the same list the
    /// campaign was built with.
    pub fn with_targets(
        dataset: &'a DatasetConfig,
        attack: &'a AttackConfig,
        targets: &[String],
    ) -> Self {
        AttackCampaignRunner {
            dataset,
            attack,
            targets: Some(targets.to_vec()),
        }
    }

    /// The benchmarks this runner attacks, in suite order.
    fn attacked_benchmarks(&self) -> Vec<String> {
        self.dataset
            .suite
            .specs()
            .iter()
            .map(|s| s.name.clone())
            .filter(|b| self.targets.as_ref().is_none_or(|t| t.contains(b)))
            .collect()
    }

    fn original_of(&self, benchmark: &str) -> Option<Netlist> {
        let spec = BenchmarkSpec::named(benchmark)?;
        Some(spec.scaled(self.dataset.scale).generate())
    }

    /// The parse stage: generate (in a real flow, parse) the original,
    /// pre-locking netlist of one benchmark. Shared by every
    /// {key size × seed} cell of the benchmark.
    fn run_parse(&self, job: &StageJob) -> Option<Netlist> {
        self.original_of(job.benchmark.as_deref()?)
    }

    fn cell_of(job: &StageJob) -> Option<(&str, usize, usize)> {
        Some((job.benchmark.as_deref()?, job.key_bits?, job.seed? as usize))
    }

    fn run_lock(&self, job: &StageJob, ctx: &JobCtx<'_>) -> Option<LockedCircuit> {
        let (b, k, s) = Self::cell_of(job)?;
        let original = ctx.dep::<Option<Netlist>>(0);
        lock_instance(self.dataset, b, original.as_ref().as_ref()?, k, s)
    }

    fn run_synth(&self, job: &StageJob, ctx: &JobCtx<'_>) -> Option<LockedCircuit> {
        let (b, k, s) = Self::cell_of(job)?;
        let locked = ctx.dep::<Option<LockedCircuit>>(0);
        synth_locked(self.dataset, b, locked.as_ref().as_ref()?.clone(), k, s)
    }

    /// The featurize stage: labelled graph + feature matrix of one
    /// locked (post-synthesis) netlist. Deps: locked circuit, original.
    fn run_featurize(&self, job: &StageJob, ctx: &JobCtx<'_>) -> Option<crate::LockedInstance> {
        let (b, k, s) = Self::cell_of(job)?;
        let locked = ctx.dep::<Option<LockedCircuit>>(0);
        let original = ctx.dep::<Option<Netlist>>(1);
        Some(graph_instance(
            self.dataset,
            b,
            original.as_ref().as_ref()?,
            locked.as_ref().as_ref()?.clone(),
            k,
            s,
        ))
    }

    fn run_dataset(&self, ctx: &JobCtx<'_>) -> Dataset {
        let mut instances = Vec::new();
        for i in 0..ctx.deps.len() {
            if let Some(inst) = ctx.dep::<Option<crate::LockedInstance>>(i).as_ref() {
                instances.push(inst.clone());
            }
        }
        Dataset {
            config: self.dataset.clone(),
            instances,
        }
    }

    /// The leave-one-out split for target `b`, or `None` when the target
    /// is infeasible (mirrors the silent skips of [`crate::attack_all`]).
    fn train_split(&self, dataset: &Dataset, b: &str) -> Option<(CircuitGraph, CircuitGraph)> {
        if dataset.of_benchmark(b).is_empty() {
            return None;
        }
        let val = dataset.default_val_for(b);
        // Guard the degenerate splits `leave_one_out` panics on.
        if val == b
            || dataset.of_benchmark(&val).is_empty()
            || !dataset
                .instances
                .iter()
                .any(|i| i.benchmark != b && i.benchmark != val)
        {
            return None;
        }
        let (train_graph, val_graph, _) = dataset.leave_one_out(b, &val);
        Some((train_graph, val_graph))
    }

    /// One checkpointed block of training epochs: restore the previous
    /// link's [`gnnunlock_gnn::TrainCheckpoint`] (or start fresh for
    /// link 0), step up to `checkpoint_epochs` epochs, and emit the new
    /// checkpoint. Bit-exact: chaining blocks reproduces an
    /// uninterrupted [`gnnunlock_gnn::train`] run exactly.
    ///
    /// Each link re-derives the leave-one-out split from the dataset
    /// dep — an O(dataset) merge, amortized over the
    /// `checkpoint_epochs` epochs the link then runs. Keeping the split
    /// out of the checkpoint keeps checkpoint payloads model-sized.
    fn run_train_epoch(&self, job: &StageJob, ctx: &JobCtx<'_>) -> CheckpointValue {
        let b = job.benchmark.as_deref()?;
        let link = job.epoch?;
        let dataset = ctx.dep::<Dataset>(0);
        let prior = if link == 0 {
            None
        } else {
            match ctx.dep::<CheckpointValue>(1).as_ref() {
                // Training already stopped (early stop or epoch cap):
                // pass the finished checkpoint through without redoing
                // the leave-one-out merge or rebuilding a TrainState.
                Some(ckpt) if ckpt.done => return Some(ckpt.clone()),
                Some(ckpt) => Some(ckpt.clone()),
                // Infeasible target: stay infeasible down the chain.
                None => return None,
            }
        };
        let (train_graph, val_graph) = self.train_split(&dataset, b)?;
        let cfg = &self.attack.train;
        let mut state = match &prior {
            Some(ckpt) => TrainState::from_checkpoint(&train_graph, cfg, ckpt),
            None => TrainState::new(&train_graph, &val_graph, cfg),
        };
        let target = if link + 1 >= checkpoint_blocks(self.attack) {
            usize::MAX // last link: run to completion
        } else {
            (link + 1) * epochs_per_block(self.attack)
        };
        while !state.is_done() && state.epochs_run() < target {
            state.step_epoch(&train_graph, &val_graph);
        }
        Some(state.checkpoint())
    }

    /// Finalize training: turn the last checkpoint into the
    /// best-on-validation model + report. Defense in depth: if the
    /// planned chain was shorter than [`checkpoint_blocks`] implies (a
    /// hand-built campaign rather than [`campaign_for`]'s), the
    /// checkpoint arrives unfinished — finalize then completes the
    /// remaining epochs itself, so results never depend on the chain
    /// length.
    fn run_train(&self, job: &StageJob, ctx: &JobCtx<'_>) -> TrainValue {
        let ckpt = ctx.dep::<CheckpointValue>(0);
        let ckpt = ckpt.as_ref().as_ref()?;
        let cfg = &self.attack.train;
        if ckpt.done || ckpt.epochs_run >= cfg.epochs {
            return Some(ckpt.finish());
        }
        let b = job.benchmark.as_deref()?;
        let dataset = ctx.dep::<Dataset>(1);
        let (train_graph, val_graph) = self.train_split(&dataset, b)?;
        let mut state = TrainState::from_checkpoint(&train_graph, cfg, ckpt);
        while !state.step_epoch(&train_graph, &val_graph) {}
        Some(state.finish())
    }

    fn find_instance<'d>(
        dataset: &'d Dataset,
        b: &str,
        k: usize,
        s: usize,
    ) -> Option<&'d crate::LockedInstance> {
        dataset
            .instances
            .iter()
            .find(|i| i.benchmark == b && i.key_bits == k && i.copy == s)
    }

    fn run_classify(&self, job: &StageJob, ctx: &JobCtx<'_>) -> Option<ClassifyArtifact> {
        let (b, k, s) = Self::cell_of(job)?;
        let model = match &*ctx.dep::<TrainValue>(0) {
            Some((model, _)) => model.clone(),
            None => return None,
        };
        let dataset = ctx.dep::<Dataset>(1);
        let inst = Self::find_instance(&dataset, b, k, s)?;
        let (outcome, preds) = classify_instance(&model, inst, self.attack);
        Some(ClassifyArtifact { outcome, preds })
    }

    fn run_remove(&self, job: &StageJob, ctx: &JobCtx<'_>) -> Option<RemovalArtifact> {
        let (b, k, s) = Self::cell_of(job)?;
        let artifact = ctx.dep::<Option<ClassifyArtifact>>(0);
        let artifact = artifact.as_ref().as_ref()?;
        let dataset = ctx.dep::<Dataset>(1);
        let inst = Self::find_instance(&dataset, b, k, s)?;
        Some(RemovalArtifact {
            outcome: artifact.outcome.clone(),
            recovered: recover_design(inst, &artifact.preds),
        })
    }

    fn run_verify(&self, job: &StageJob, ctx: &JobCtx<'_>) -> Option<InstanceOutcome> {
        let (b, k, s) = Self::cell_of(job)?;
        let artifact = ctx.dep::<Option<RemovalArtifact>>(0);
        let artifact = artifact.as_ref().as_ref()?;
        let dataset = ctx.dep::<Dataset>(1);
        let inst = Self::find_instance(&dataset, b, k, s)?;
        let mut outcome = artifact.outcome.clone();
        outcome.removal_success = Some(verify_recovered(&inst.original, &artifact.recovered));
        Some(outcome)
    }

    /// Reassemble per-benchmark [`AttackOutcome`]s from the train and
    /// classify/verify stage outputs (deps: all trains, then all tails,
    /// in campaign order).
    fn run_aggregate(&self, ctx: &JobCtx<'_>) -> Vec<AttackOutcome> {
        let benchmarks = self.attacked_benchmarks();
        let n_b = benchmarks.len();
        let per_target = self.dataset.key_sizes.len() * self.dataset.locks_per_config;
        let mut out = Vec::new();
        for (bi, benchmark) in benchmarks.iter().enumerate() {
            let report = match &*ctx.dep::<TrainValue>(bi) {
                Some((_, report)) => report.clone(),
                None => continue,
            };
            let mut instances = Vec::new();
            for t in 0..per_target {
                let dep = n_b + bi * per_target + t;
                // Tails are verify outputs when verification is on,
                // classification artifacts otherwise.
                if self.attack.verify {
                    if let Some(o) = ctx.dep::<Option<InstanceOutcome>>(dep).as_ref() {
                        instances.push(o.clone());
                    }
                } else if let Some(a) = ctx.dep::<Option<ClassifyArtifact>>(dep).as_ref() {
                    instances.push(a.outcome.clone());
                }
            }
            out.push(AttackOutcome {
                benchmark: benchmark.clone(),
                instances,
                train_report: report,
            });
        }
        out
    }
}

impl CampaignRunner for AttackCampaignRunner<'_> {
    fn config_salt(&self) -> u64 {
        // Debug formatting covers every field of both configs and is a
        // pure function of the values, so the salt — and therefore every
        // cache key — is stable across processes sharing a cache
        // directory. (A rustc change to derived Debug output would only
        // cost a cache miss, never a false hit.)
        fingerprint_fields(&[
            &format!("{:?}", self.dataset),
            &format!("{:?}", self.attack.train),
            &format!("{}{}", self.attack.postprocess, self.attack.verify),
        ])
    }

    /// Per-stage configuration identity: each stage folds in only the
    /// configuration bits that affect its output, so campaigns that
    /// differ in (say) training hyperparameters still share `parse` /
    /// `lock` / `featurize` entries through a common cache directory —
    /// the cross-table reuse the bench binaries lean on. Everything
    /// upstream is covered by the engine's Merkle composition of
    /// dependency fingerprints, so under-salting *cannot* alias: any
    /// upstream config difference reaches a stage through its
    /// dependencies' keys.
    fn stage_salt(&self, kind: JobKind) -> u64 {
        let ds = self.dataset;
        match kind {
            // The original netlist depends on the benchmark (a job
            // field) and the generator scale only.
            JobKind::Parse => fingerprint_fields(&["parse-salt", &ds.scale.to_string()]),
            // Locking adds the scheme and the master seed (key material
            // + tap selection); the original arrives via the parse dep.
            JobKind::Lock => fingerprint_fields(&[
                "lock-salt",
                &format!("{:?}", ds.scheme),
                &ds.seed.to_string(),
            ]),
            JobKind::Synth => fingerprint_fields(&[
                "synth-salt",
                &format!("{:?}", ds.library),
                &ds.synth_effort.to_string(),
                &ds.seed.to_string(),
            ]),
            JobKind::Featurize => fingerprint_fields(&[
                "featurize-salt",
                &format!("{:?}", ds.library),
                &format!("{:?}", ds.scheme.label_scheme()),
            ]),
            // The dataset value embeds the full config; aggregation
            // derives its dep indexing from it.
            JobKind::Dataset => fingerprint_fields(&["dataset-salt", &format!("{:?}", ds)]),
            JobKind::TrainEpoch | JobKind::Train => fingerprint_fields(&[
                "train-salt",
                &format!("{:?}", self.attack.train),
                &epochs_per_block(self.attack).to_string(),
            ]),
            JobKind::Classify => fingerprint_fields(&[
                "classify-salt",
                &format!("{:?}", self.attack.train),
                &self.attack.postprocess.to_string(),
            ]),
            JobKind::Remove | JobKind::Verify => fingerprint_fields(&["removal-salt"]),
            JobKind::Aggregate => fingerprint_fields(&[
                "aggregate-salt",
                &format!("{:?}", ds),
                &self.attack.verify.to_string(),
            ]),
            _ => self.config_salt(),
        }
    }

    fn codec(&self) -> Option<Arc<dyn ValueCodec>> {
        Some(Arc::new(PipelineCodec))
    }

    fn run(&self, job: &StageJob, ctx: &JobCtx<'_>) -> JobOutput {
        let value: JobValue = match job.kind {
            JobKind::Parse => Arc::new(self.run_parse(job)),
            JobKind::Lock => Arc::new(self.run_lock(job, ctx)),
            JobKind::Synth => Arc::new(self.run_synth(job, ctx)),
            JobKind::Featurize => Arc::new(self.run_featurize(job, ctx)),
            JobKind::Dataset => Arc::new(self.run_dataset(ctx)),
            JobKind::TrainEpoch => Arc::new(self.run_train_epoch(job, ctx)),
            JobKind::Train => Arc::new(self.run_train(job, ctx)),
            JobKind::Classify => Arc::new(self.run_classify(job, ctx)),
            JobKind::Remove => Arc::new(self.run_remove(job, ctx)),
            JobKind::Verify => Arc::new(self.run_verify(job, ctx)),
            JobKind::Aggregate => {
                // This runner derives aggregate dep indices from its
                // DatasetConfig, so the campaign must have the exact
                // shape `campaign_for` produces — fail loudly on any
                // other plan instead of misindexing the deps.
                let n_b = self.attacked_benchmarks().len();
                let per_target = self.dataset.key_sizes.len() * self.dataset.locks_per_config;
                let expected = n_b * (1 + per_target);
                if ctx.deps.len() != expected {
                    return Err(format!(
                        "campaign shape mismatch: aggregate got {} deps, the runner's \
                         dataset config implies {expected}; build the campaign with \
                         `campaign_for` for this runner",
                        ctx.deps.len()
                    ));
                }
                Arc::new(self.run_aggregate(ctx))
            }
            JobKind::Attack | JobKind::Custom(_) => {
                return Err(format!("unknown stage '{}'", job.kind.tag()))
            }
        };
        Ok(value)
    }
}

/// Scheme axis tag of a dataset configuration, e.g. `Anti-SAT/ISCAS-85`.
pub fn campaign_scheme_tag(cfg: &DatasetConfig) -> String {
    format!("{}/{}", cfg.scheme.name(), cfg.suite.name())
}

/// Expand one dataset configuration into an engine [`Campaign`] covering
/// every benchmark of the suite, every key size and every lock copy,
/// with the training of each target split into
/// [`checkpoint_blocks`]`(attack)` resumable `train-epoch` jobs.
pub fn campaign_for(name: &str, dataset: &DatasetConfig, attack: &AttackConfig) -> Campaign {
    campaign_builder_for(name, dataset, attack).build()
}

/// [`campaign_for`] restricted to attacking `targets` only: the dataset
/// stages still cover the whole suite (leave-one-out training needs
/// every instance), but training chains, classification, removal,
/// verification and aggregation are planned for the listed benchmarks
/// only. Pair with [`AttackCampaignRunner::with_targets`].
pub fn campaign_for_targets(
    name: &str,
    dataset: &DatasetConfig,
    attack: &AttackConfig,
    targets: &[String],
) -> Campaign {
    campaign_builder_for(name, dataset, attack)
        .attack_targets(targets.iter().cloned())
        .build()
}

fn campaign_builder_for(
    name: &str,
    dataset: &DatasetConfig,
    attack: &AttackConfig,
) -> gnnunlock_engine::CampaignBuilder {
    let benchmarks: Vec<String> = dataset
        .suite
        .specs()
        .iter()
        .map(|s| s.name.clone())
        .collect();
    Campaign::builder(name)
        .scheme(campaign_scheme_tag(dataset))
        .benchmarks(benchmarks)
        .key_sizes(dataset.key_sizes.iter().copied())
        .seeds(0..dataset.locks_per_config as u64)
        .with_synthesis(dataset.library != CellLibrary::Bench8)
        .with_verification(attack.verify)
        .train_checkpoints(checkpoint_blocks(attack))
}

/// Result of [`run_campaign`]: the paper-style per-benchmark outcomes
/// plus the engine's run record.
pub struct CampaignResult {
    /// Leave-one-out outcomes, in suite order (benchmarks whose
    /// training was infeasible are absent, as in [`crate::attack_all`]).
    pub outcomes: Vec<AttackOutcome>,
    /// The engine run: job records, counters, report builder.
    pub run: CampaignRun,
}

/// Execute a full attack campaign for one dataset configuration on
/// `executor`. Reusing the same executor (or its
/// [`gnnunlock_engine::ResultCache`]) across calls lets repeated
/// campaigns skip all completed stages.
pub fn run_campaign(
    name: &str,
    dataset: &DatasetConfig,
    attack: &AttackConfig,
    executor: &Executor,
) -> CampaignResult {
    let campaign = campaign_for(name, dataset, attack);
    let runner = AttackCampaignRunner::new(dataset, attack);
    collect_outcomes(dataset, campaign.execute(&runner, executor))
}

/// [`run_campaign`] on a fresh executor with `workers` threads.
pub fn run_campaign_with_workers(
    name: &str,
    dataset: &DatasetConfig,
    attack: &AttackConfig,
    workers: usize,
) -> CampaignResult {
    run_campaign(
        name,
        dataset,
        attack,
        &Executor::new(ExecConfig::with_workers(workers)),
    )
}

/// The leave-one-out outcomes `run`'s aggregate holds (none when the
/// aggregate failed).
pub(crate) fn aggregate_outcomes(dataset: &DatasetConfig, run: &CampaignRun) -> Vec<AttackOutcome> {
    run.aggregate::<Vec<AttackOutcome>>(&campaign_scheme_tag(dataset))
        .map(|a| a.as_ref().clone())
        .unwrap_or_default()
}

fn collect_outcomes(dataset: &DatasetConfig, run: CampaignRun) -> CampaignResult {
    CampaignResult {
        outcomes: aggregate_outcomes(dataset, &run),
        run,
    }
}

/// [`run_campaign`] with persistence rooted at `dir`: trained models
/// and attack outcomes are written to the engine's versioned
/// content-addressed store (via [`PipelineCodec`]) and every job
/// transition streams to `dir/events.jsonl`. A later process pointed at
/// the same directory — or the same process after a crash, via
/// [`resume_campaign`] — skips all persisted stages and produces a
/// byte-identical default report.
///
/// # Errors
///
/// Fails when the store cannot be opened (including a schema-version
/// mismatch) or the event log cannot be created.
pub fn run_campaign_persistent(
    name: &str,
    dataset: &DatasetConfig,
    attack: &AttackConfig,
    cfg: ExecConfig,
    dir: &Path,
) -> io::Result<CampaignResult> {
    let campaign = campaign_for(name, dataset, attack);
    let runner = AttackCampaignRunner::new(dataset, attack);
    let run = campaign.execute_persistent(&runner, cfg, dir)?;
    Ok(collect_outcomes(dataset, run))
}

/// Resume an interrupted [`run_campaign_persistent`] from `dir`:
/// replays the event log (validating it belongs to this campaign
/// shape), serves persisted stages from the store, recomputes the rest
/// deterministically, and appends to the event log.
///
/// # Errors
///
/// Fails when the event log was written by a differently-shaped
/// campaign, or on store/log I/O errors.
pub fn resume_campaign(
    name: &str,
    dataset: &DatasetConfig,
    attack: &AttackConfig,
    cfg: ExecConfig,
    dir: &Path,
) -> io::Result<(CampaignResult, ResumeInfo)> {
    let campaign = campaign_for(name, dataset, attack);
    let runner = AttackCampaignRunner::new(dataset, attack);
    let (run, info) = campaign.resume(&runner, cfg, dir)?;
    Ok((collect_outcomes(dataset, run), info))
}

/// Result of [`run_campaign_sharded`]: one shard's view of a
/// multi-process campaign.
pub struct ShardedCampaignResult {
    /// Leave-one-out outcomes, in suite order — identical on every
    /// shard (the aggregate value travels through the store).
    pub outcomes: Vec<AttackOutcome>,
    /// The shard's engine run: report builder, finalizer election,
    /// lease counters.
    pub sharded: ShardedRun,
}

/// Execute one shard of a multi-process attack campaign rooted at
/// `dir`: N processes launched with distinct `GNNUNLOCK_SHARD_ID`s
/// against one `GNNUNLOCK_CACHE_DIR` (see
/// [`gnnunlock_engine::ShardConfig::from_env`]) split the campaign's
/// stage DAG between them via lease files beside the store entries —
/// no job body runs on more than one live shard, a `kill -9`'d shard's
/// leased jobs are taken over by survivors after the lease TTL, and
/// every shard's default report is byte-identical to a single-process
/// run.
///
/// The shard that executes the final aggregate job is the elected
/// finalizer ([`ShardedRun::is_finalizer`]) — the natural writer of the
/// canonical report file and merger of the per-shard event streams
/// ([`gnnunlock_engine::merge_shard_events`]).
///
/// # Errors
///
/// Fails when the store cannot be opened or the per-shard event log
/// cannot be created.
pub fn run_campaign_sharded(
    name: &str,
    dataset: &DatasetConfig,
    attack: &AttackConfig,
    cfg: ExecConfig,
    dir: &Path,
    shard: &ShardConfig,
) -> io::Result<ShardedCampaignResult> {
    let campaign = campaign_for(name, dataset, attack);
    let runner = AttackCampaignRunner::new(dataset, attack);
    let sharded = campaign.execute_sharded(&runner, cfg, dir, shard)?;
    Ok(ShardedCampaignResult {
        outcomes: aggregate_outcomes(dataset, &sharded.run),
        sharded,
    })
}

/// The shared cache directory named by `GNNUNLOCK_CACHE_DIR`, if set
/// (parsed by the engine's centralized knob module).
pub fn cache_dir_from_env() -> Option<PathBuf> {
    knob_path(CACHE_DIR_ENV)
}

/// The event-log path named by `GNNUNLOCK_EVENTS`, if set (parsed by
/// the engine's centralized knob module).
pub fn events_path_from_env() -> Option<PathBuf> {
    knob_path(EVENTS_ENV)
}

/// An executor honoring the persistence environment knobs: with
/// `GNNUNLOCK_CACHE_DIR` set, its result cache is backed by the on-disk
/// store in that directory (encoded via [`PipelineCodec`], shared
/// across processes); with `GNNUNLOCK_EVENTS` set, job events stream to
/// that JSONL file (truncating a previous log). The bench binaries
/// route every engine run through this.
///
/// # Errors
///
/// Fails when the store cannot be opened or the event log cannot be
/// created.
pub fn executor_from_env(cfg: ExecConfig) -> io::Result<Executor> {
    let mut executor = Executor::new(cfg);
    if let Some(dir) = cache_dir_from_env() {
        let store = Arc::new(DiskStore::open(&dir)?);
        let cache = ResultCache::with_disk(store, Arc::new(PipelineCodec));
        executor = executor.with_cache(Arc::new(cache));
    }
    if let Some(path) = events_path_from_env() {
        executor = executor.with_events(Arc::new(EventLog::create(&path)?));
    }
    Ok(executor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Suite;
    use crate::pipeline::attack_benchmark;
    use gnnunlock_gnn::{SaintConfig, TrainConfig};

    fn tiny_cfgs() -> (DatasetConfig, AttackConfig) {
        let ds = DatasetConfig {
            key_sizes: vec![8],
            locks_per_config: 1,
            scale: 0.02,
            ..DatasetConfig::antisat(Suite::Iscas85, 0.02)
        };
        let attack = AttackConfig {
            train: TrainConfig {
                epochs: 40,
                hidden: 24,
                eval_every: 10,
                patience: 0,
                saint: SaintConfig {
                    roots: 200,
                    walk_length: 2,
                    estimation_rounds: 3,
                    seed: 7,
                },
                class_weighting: false,
                ..TrainConfig::default()
            },
            ..AttackConfig::default()
        };
        (ds, attack)
    }

    /// `attack_targets` (the table binaries' entry point) now rides the
    /// stage DAG via a target-restricted campaign; its outcomes must
    /// match the classic sequential pipeline exactly, in `targets`
    /// order.
    #[test]
    fn attack_targets_matches_attack_benchmark() {
        let (ds, attack) = tiny_cfgs();
        let dataset = Dataset::generate(&ds);
        let benchmarks = dataset.benchmarks();
        // Deliberately out of suite order.
        let targets = vec![benchmarks[1].clone(), benchmarks[0].clone()];
        let outcomes = crate::attack_targets(&dataset, &targets, &attack, 2);
        assert_eq!(outcomes.len(), 2);
        for (o, b) in outcomes.iter().zip(&targets) {
            assert_eq!(&o.benchmark, b);
            let direct = attack_benchmark(&dataset, b, &attack);
            assert_eq!(o.instances.len(), direct.instances.len());
            for (x, y) in o.instances.iter().zip(&direct.instances) {
                assert_eq!(x.gnn.accuracy(), y.gnn.accuracy());
                assert_eq!(x.post.accuracy(), y.post.accuracy());
                assert_eq!(x.removal_success, y.removal_success);
            }
            assert_eq!(o.train_report.history, direct.train_report.history);
        }
    }

    /// A hand-built campaign whose train-epoch chain is shorter than
    /// `checkpoint_blocks(attack)` implies must still train fully: the
    /// finalize stage completes the remaining epochs, so results are
    /// identical to the properly chained `campaign_for` plan.
    #[test]
    fn short_epoch_chain_still_trains_fully() {
        let (ds, mut attack) = tiny_cfgs();
        attack.checkpoint_epochs = 10; // campaign_for would plan 4 links
        let full = run_campaign_with_workers("full", &ds, &attack, 2);
        assert!(full.run.outcome.all_succeeded());

        let benchmarks: Vec<String> = ds.suite.specs().iter().map(|s| s.name.clone()).collect();
        let short = Campaign::builder("short")
            .scheme(campaign_scheme_tag(&ds))
            .benchmarks(benchmarks)
            .key_sizes(ds.key_sizes.iter().copied())
            .seeds(0..ds.locks_per_config as u64)
            .train_checkpoints(1) // deliberately shorter than expected
            .build();
        let runner = AttackCampaignRunner::new(&ds, &attack);
        let run = short.execute(&runner, &Executor::new(ExecConfig::with_workers(2)));
        assert!(run.outcome.all_succeeded());
        let outcomes = run
            .aggregate::<Vec<AttackOutcome>>(&campaign_scheme_tag(&ds))
            .unwrap();
        assert_eq!(outcomes.len(), full.outcomes.len());
        for (a, b) in outcomes.iter().zip(&full.outcomes) {
            assert_eq!(a.benchmark, b.benchmark);
            assert_eq!(a.train_report.epochs_run, b.train_report.epochs_run);
            assert_eq!(a.train_report.history, b.train_report.history);
            assert_eq!(a.avg_gnn_accuracy(), b.avg_gnn_accuracy());
            assert_eq!(a.removal_success_rate(), b.removal_success_rate());
        }
    }

    #[test]
    fn campaign_matches_direct_pipeline() {
        let (ds, attack) = tiny_cfgs();
        let result = run_campaign_with_workers("t", &ds, &attack, 2);
        assert!(result.run.outcome.all_succeeded());
        let dataset = Dataset::generate(&ds);
        let benchmarks = dataset.benchmarks();
        assert_eq!(
            result
                .outcomes
                .iter()
                .map(|o| &o.benchmark)
                .collect::<Vec<_>>(),
            benchmarks.iter().collect::<Vec<_>>()
        );
        // Spot-check one target against the classic sequential path.
        let direct = attack_benchmark(&dataset, &benchmarks[0], &attack);
        let via_engine = &result.outcomes[0];
        assert_eq!(direct.instances.len(), via_engine.instances.len());
        for (a, b) in direct.instances.iter().zip(&via_engine.instances) {
            assert_eq!(a.gnn.accuracy(), b.gnn.accuracy());
            assert_eq!(a.post.accuracy(), b.post.accuracy());
            assert_eq!(a.removal_success, b.removal_success);
        }
    }
}
