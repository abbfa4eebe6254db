//! The end-to-end GNNUnlock attack pipeline (paper Fig. 3a):
//! dataset → netlist-to-graph → GNN node classification →
//! post-processing → removal → equivalence verification.

use crate::dataset::{Dataset, LockedInstance};
use crate::postprocess::postprocess;
use crate::removal::remove_protection;
use gnnunlock_gnn::{predict, train, SageModel, TrainConfig, TrainReport};
use gnnunlock_neural::Metrics;
use gnnunlock_sat::{check_equivalence, EquivOptions, EquivResult};
use std::time::Duration;

/// Attack configuration.
#[derive(Debug, Clone)]
pub struct AttackConfig {
    /// GNN training hyperparameters.
    pub train: TrainConfig,
    /// Run the Section IV-D post-processing (ablatable).
    pub postprocess: bool,
    /// Verify recovered designs with the SAT equivalence checker.
    pub verify: bool,
    /// Campaign checkpoint granularity: training epochs per resumable
    /// `train-epoch` stage job. A campaign plans
    /// `ceil(train.epochs / checkpoint_epochs)` chained checkpoint jobs
    /// per target, each persisted independently, so a killed run resumes
    /// from the last completed block instead of retraining from scratch.
    /// Never affects results — only how often training state hits disk.
    pub checkpoint_epochs: usize,
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig {
            train: TrainConfig::default(),
            postprocess: true,
            verify: true,
            checkpoint_epochs: 50,
        }
    }
}

/// Result of attacking one locked instance.
#[derive(Debug, Clone)]
pub struct InstanceOutcome {
    /// Benchmark name.
    pub benchmark: String,
    /// Key size of the instance.
    pub key_bits: usize,
    /// Metrics of the raw GNN predictions.
    pub gnn: Metrics,
    /// Metrics after post-processing (equals `gnn` when post-processing
    /// is disabled).
    pub post: Metrics,
    /// Whether the recovered design is equivalent to the original
    /// (`None` when verification is disabled).
    pub removal_success: Option<bool>,
    /// Human-readable misclassification taxonomy (`DN as PN` etc.) from
    /// the raw GNN predictions.
    pub misclassifications: Vec<String>,
}

/// Result of a full leave-one-out attack on one test benchmark.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// Test benchmark.
    pub benchmark: String,
    /// Per-instance results.
    pub instances: Vec<InstanceOutcome>,
    /// Training report (one model per test benchmark, as in the paper).
    pub train_report: TrainReport,
}

impl AttackOutcome {
    /// Mean GNN accuracy over instances.
    pub fn avg_gnn_accuracy(&self) -> f64 {
        avg(self.instances.iter().map(|i| i.gnn.accuracy()))
    }

    /// Mean post-processed accuracy over instances.
    pub fn avg_post_accuracy(&self) -> f64 {
        avg(self.instances.iter().map(|i| i.post.accuracy()))
    }

    /// Total raw-GNN misclassified nodes.
    pub fn total_misclassified(&self) -> usize {
        self.instances.iter().map(|i| i.gnn.misclassified()).sum()
    }

    /// Fraction of instances whose removal verified successfully (1.0
    /// when verification was disabled — mirrors reporting "—").
    pub fn removal_success_rate(&self) -> f64 {
        let verified: Vec<bool> = self
            .instances
            .iter()
            .filter_map(|i| i.removal_success)
            .collect();
        if verified.is_empty() {
            return 1.0;
        }
        verified.iter().filter(|&&b| b).count() as f64 / verified.len() as f64
    }
}

fn avg(it: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = it.collect();
    if v.is_empty() {
        return 1.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Run the leave-one-out attack against `test_benchmark`: train on every
/// other benchmark (validating on `dataset.default_val_for`), then attack
/// each locked instance of the target.
///
/// # Panics
///
/// Panics if the dataset lacks the benchmark or enough benchmarks for a
/// split.
pub fn attack_benchmark(
    dataset: &Dataset,
    test_benchmark: &str,
    cfg: &AttackConfig,
) -> AttackOutcome {
    let val = dataset.default_val_for(test_benchmark);
    let (train_graph, val_graph, test_instances) = dataset.leave_one_out(test_benchmark, &val);
    let (model, report) = train(&train_graph, &val_graph, &cfg.train);
    let instances = test_instances
        .iter()
        .map(|inst| attack_instance(&model, inst, cfg))
        .collect();
    AttackOutcome {
        benchmark: test_benchmark.to_string(),
        instances,
        train_report: report,
    }
}

/// Classify + post-process a single locked instance with a trained
/// model, **without** the SAT-verification stage. Returns the outcome
/// (with `removal_success: None`) and the final predictions, so the
/// verification can run as its own pipeline stage (see
/// [`verify_instance`] and the campaign engine).
pub fn classify_instance(
    model: &SageModel,
    inst: &LockedInstance,
    cfg: &AttackConfig,
) -> (InstanceOutcome, Vec<usize>) {
    let graph = &inst.graph;
    let raw_preds = predict(model, graph);
    let classes = graph.scheme.num_classes();
    let gnn = Metrics::from_predictions(&raw_preds, &graph.labels, classes);
    let misclassifications = taxonomy(&raw_preds, graph);
    let mut preds = raw_preds;
    if cfg.postprocess {
        postprocess(&inst.locked.netlist, graph, &mut preds);
    }
    let post = Metrics::from_predictions(&preds, &graph.labels, classes);
    let outcome = InstanceOutcome {
        benchmark: inst.benchmark.clone(),
        key_bits: inst.key_bits,
        gnn,
        post,
        removal_success: None,
        misclassifications,
    };
    (outcome, preds)
}

/// The removal stage: delete the predicted protection logic from a
/// locked instance, recovering a candidate design.
pub fn recover_design(inst: &LockedInstance, preds: &[usize]) -> gnnunlock_netlist::Netlist {
    remove_protection(&inst.locked.netlist, &inst.graph, preds)
}

/// The SAT-verification stage: check a recovered design against the
/// original (the paper's "removal success" column).
pub fn verify_recovered(
    original: &gnnunlock_netlist::Netlist,
    recovered: &gnnunlock_netlist::Netlist,
) -> bool {
    let opts = EquivOptions {
        key_b: Some(vec![false; recovered.key_inputs().len()]),
        workers: gnnunlock_engine::default_workers(),
        ..Default::default()
    };
    matches!(
        check_equivalence(original, recovered, &opts),
        EquivResult::Equivalent
    )
}

/// The removal + SAT-verification stages in one call
/// ([`recover_design`] then [`verify_recovered`]).
pub fn verify_instance(inst: &LockedInstance, preds: &[usize]) -> bool {
    verify_recovered(&inst.original, &recover_design(inst, preds))
}

/// Attack a single locked instance with a trained model
/// ([`classify_instance`] + [`verify_instance`] when enabled).
pub fn attack_instance(
    model: &SageModel,
    inst: &LockedInstance,
    cfg: &AttackConfig,
) -> InstanceOutcome {
    let (mut outcome, preds) = classify_instance(model, inst, cfg);
    outcome.removal_success = cfg.verify.then(|| verify_instance(inst, &preds));
    outcome
}

/// Paper-style misclassification strings, e.g. `3 DN as PN`.
fn taxonomy(preds: &[usize], graph: &gnnunlock_gnn::CircuitGraph) -> Vec<String> {
    let classes = graph.scheme.num_classes();
    let mut counts = vec![vec![0usize; classes]; classes];
    for (&p, &l) in preds.iter().zip(&graph.labels) {
        if p != l {
            counts[l][p] += 1;
        }
    }
    let mut out = Vec::new();
    for (l, row) in counts.iter().enumerate() {
        for (p, &c) in row.iter().enumerate() {
            if c > 0 {
                out.push(format!(
                    "{} {} as {}",
                    c,
                    graph.scheme.class_tag(l),
                    graph.scheme.class_tag(p)
                ));
            }
        }
    }
    out
}

/// Run [`attack_benchmark`] for each of `targets` as jobs on `executor`
/// — one leave-one-out training per target. Results come back in
/// `targets` order and are identical for every worker count (training,
/// post-processing and SAT verification are all deterministic per
/// seed).
///
/// The targets run as a stage DAG restricted to those benchmarks (see
/// [`crate::campaign_for_targets`]): parse → lock → featurize → dataset
/// over the whole suite, then a resumable `train-epoch` checkpoint
/// chain, classification, removal and verification per target cell.
/// Every stage is content-addressed over its input cone, so an executor
/// whose cache is shared — in-process, or across processes via a
/// disk-backed cache (see [`crate::executor_from_env`]) — reuses every
/// stage completed anywhere with the identical upstream configuration:
/// two table binaries pointed at one `GNNUNLOCK_CACHE_DIR` share parsed
/// netlists, locked instances and trained models transparently.
///
/// The stage DAG regenerates instances from `dataset.config`, which
/// fully determines them when the dataset came from
/// [`Dataset::generate`]; hand-modified instance lists are not seen by
/// the stages, so don't use this entry point for those.
///
/// # Panics
///
/// Panics if any requested target produced no outcome — an unknown
/// benchmark name, or a target whose leave-one-out training is
/// infeasible on this dataset (fewer than three feasible benchmarks).
pub fn attack_targets_on(
    dataset: &Dataset,
    targets: &[String],
    cfg: &AttackConfig,
    executor: &gnnunlock_engine::Executor,
) -> Vec<AttackOutcome> {
    let campaign = crate::campaign_for_targets("attack-targets", &dataset.config, cfg, targets);
    let runner = crate::AttackCampaignRunner::with_targets(&dataset.config, cfg, targets);
    let run = campaign.execute(&runner, executor);
    let outcomes = crate::campaign::aggregate_outcomes(&dataset.config, &run);
    // Results in `targets` order, as documented.
    targets
        .iter()
        .map(|b| {
            outcomes
                .iter()
                .find(|o| &o.benchmark == b)
                .unwrap_or_else(|| {
                    panic!(
                        "attack on '{b}' produced no outcome (unknown benchmark, \
                         or leave-one-out training infeasible on this dataset)"
                    )
                })
                .clone()
        })
        .collect()
}

/// [`attack_targets_on`] on a fresh executor with `workers` threads.
pub fn attack_targets(
    dataset: &Dataset,
    targets: &[String],
    cfg: &AttackConfig,
    workers: usize,
) -> Vec<AttackOutcome> {
    use gnnunlock_engine::{ExecConfig, Executor};
    attack_targets_on(
        dataset,
        targets,
        cfg,
        &Executor::new(ExecConfig::with_workers(workers)),
    )
}

/// Convenience: run [`attack_benchmark`] over every benchmark of a
/// dataset (one training per target, as in the paper's tables), routed
/// through the engine executor with the default worker count.
pub fn attack_all(dataset: &Dataset, cfg: &AttackConfig) -> Vec<AttackOutcome> {
    attack_targets(
        dataset,
        &dataset.benchmarks(),
        cfg,
        gnnunlock_engine::default_workers(),
    )
}

/// Aggregate row for Table VI-style reporting.
#[derive(Debug, Clone)]
pub struct AggregateRow {
    /// Dataset display name.
    pub dataset: String,
    /// Mean GNN accuracy.
    pub gnn_accuracy: f64,
    /// Macro-average precision over instances.
    pub avg_precision: f64,
    /// Macro-average recall.
    pub avg_recall: f64,
    /// Macro-average F1.
    pub avg_f1: f64,
    /// Removal success rate.
    pub removal_success: f64,
    /// Mean training time per target.
    pub avg_train_time: Duration,
}

/// Collapse per-benchmark outcomes into one Table VI row.
pub fn aggregate(dataset_name: &str, outcomes: &[AttackOutcome]) -> AggregateRow {
    let all: Vec<&InstanceOutcome> = outcomes.iter().flat_map(|o| o.instances.iter()).collect();
    let n = all.len().max(1) as f64;
    AggregateRow {
        dataset: dataset_name.to_string(),
        gnn_accuracy: all.iter().map(|i| i.gnn.accuracy()).sum::<f64>() / n,
        avg_precision: all.iter().map(|i| i.gnn.avg_precision()).sum::<f64>() / n,
        avg_recall: all.iter().map(|i| i.gnn.avg_recall()).sum::<f64>() / n,
        avg_f1: all.iter().map(|i| i.gnn.avg_f1()).sum::<f64>() / n,
        removal_success: avg(outcomes.iter().map(|o| o.removal_success_rate())),
        avg_train_time: Duration::from_secs_f64(
            outcomes
                .iter()
                .map(|o| o.train_report.train_time.as_secs_f64())
                .sum::<f64>()
                / outcomes.len().max(1) as f64,
        ),
    }
}
