//! Persistence integration tests: the on-disk result store, the JSONL
//! event log, and resumable campaigns.
//!
//! The determinism contract under test: **the same campaign produces a
//! byte-identical default report whether it is computed cold, served
//! warm from a shared cache directory, or killed mid-run and resumed.**

use gnnunlock::engine::testing::{Echo, TempDir};
use gnnunlock::engine::{
    Campaign, CampaignRunner, EventLog, JobCtx, JobOutput, StageJob, ValueCodec, EVENTS_FILE,
};
use gnnunlock::gnn::{SaintConfig, TrainConfig};
use gnnunlock::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Toy campaign: echo-style string stages with a string codec. Fast, and
// every job is persistable, so store behavior is fully observable.
// ---------------------------------------------------------------------

const TOY: Echo = Echo { salt: 42 };

/// A runner that cancels the run after `n` completed jobs — an
/// in-process stand-in for `kill -9` mid-campaign: the store keeps what
/// finished, the event log keeps the stream, the rest never happens.
struct KillAfter {
    remaining: AtomicUsize,
    token: CancelToken,
}

impl CampaignRunner for KillAfter {
    fn config_salt(&self) -> u64 {
        TOY.config_salt()
    }

    fn codec(&self) -> Option<Arc<dyn ValueCodec>> {
        TOY.codec()
    }

    fn run(&self, job: &StageJob, ctx: &JobCtx<'_>) -> JobOutput {
        let out = TOY.run(job, ctx);
        if self.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.token.cancel();
        }
        out
    }
}

fn toy_campaign() -> Campaign {
    Campaign::builder("persist")
        .scheme("antisat")
        .benchmarks(["c1", "c2"])
        .key_sizes([8])
        .seeds([0, 1])
        .build()
}

#[test]
fn cold_warm_and_plain_reports_are_byte_identical() {
    let dir = TempDir::new("persistence-cold-warm");
    let campaign = toy_campaign();

    // Reference: a plain in-memory run.
    let plain = campaign.execute(&TOY, &Executor::new(ExecConfig::with_workers(2)));
    // Cold persistent run.
    let cold = campaign
        .execute_persistent(&TOY, ExecConfig::with_workers(2), &dir)
        .unwrap();
    assert_eq!(cold.outcome.stats.executed, campaign.plan().len());
    // Warm run in a "new process" (fresh executor, same directory).
    let warm = campaign
        .execute_persistent(&TOY, ExecConfig::with_workers(4), &dir)
        .unwrap();
    assert_eq!(warm.outcome.stats.disk_hits, campaign.plan().len());
    assert_eq!(warm.outcome.stats.executed, 0);

    let render =
        |run: &gnnunlock::engine::CampaignRun| run.report(ReportOptions::default()).to_json();
    assert_eq!(render(&plain), render(&cold));
    assert_eq!(render(&cold), render(&warm));

    // Provenance (opt-in) does distinguish them — that's its job.
    let prov = |run: &gnnunlock::engine::CampaignRun| {
        run.report(ReportOptions::default().with_provenance())
            .to_json()
    };
    assert_ne!(prov(&cold), prov(&warm));
}

#[test]
fn killed_campaign_resumes_to_identical_report() {
    let uninterrupted_dir = TempDir::new("persistence-kill-ref");
    let interrupted_dir = TempDir::new("persistence-kill-resume");
    let campaign = toy_campaign();
    let total = campaign.plan().len();

    // Reference: uninterrupted persistent run.
    let reference = campaign
        .execute_persistent(&TOY, ExecConfig::with_workers(1), &uninterrupted_dir)
        .unwrap();
    let reference_report = reference.report(ReportOptions::default()).to_json();

    // "Kill" a run after 3 completed jobs (single worker: determinate).
    let kill_after = 3;
    let cfg = ExecConfig::with_workers(1);
    let killer = KillAfter {
        remaining: AtomicUsize::new(kill_after),
        token: cfg.cancel.clone(),
    };
    let partial = campaign
        .execute_persistent(&killer, cfg, &interrupted_dir)
        .unwrap();
    assert_eq!(partial.outcome.stats.executed, kill_after);
    assert_eq!(partial.outcome.stats.cancelled, total - kill_after);

    // Tear the event log's tail, as a mid-record crash would.
    let events_path = interrupted_dir.join(EVENTS_FILE);
    let mut text = std::fs::read_to_string(&events_path).unwrap();
    text.push_str("{\"ev\":\"job-finis");
    std::fs::write(&events_path, text).unwrap();

    // Resume: completed jobs come off disk, the rest recompute.
    let (resumed, info) = campaign
        .resume(&TOY, ExecConfig::with_workers(2), &interrupted_dir)
        .unwrap();
    assert!(info.log_truncated, "torn tail must be detected");
    assert_eq!(info.prior_completed, kill_after);
    assert_eq!(resumed.outcome.stats.disk_hits, kill_after);
    assert_eq!(resumed.outcome.stats.executed, total - kill_after);
    assert!(resumed.outcome.all_succeeded());
    assert_eq!(
        resumed.report(ReportOptions::default()).to_json(),
        reference_report,
        "a resumed run must render the byte-identical report"
    );

    // The appended log now records both runs; the second is marked
    // resumed.
    let replay = EventLog::replay(&events_path).unwrap();
    let resumed_flags: Vec<bool> = replay
        .events
        .iter()
        .filter_map(|e| match e {
            Event::RunStarted { resumed, .. } => Some(*resumed),
            _ => None,
        })
        .collect();
    assert_eq!(resumed_flags, vec![false, true]);
}

#[test]
fn corrupted_cache_entries_are_evicted_and_recomputed() {
    let dir = TempDir::new("persistence-corruption");
    let campaign = toy_campaign();
    let total = campaign.plan().len();

    let cold = campaign
        .execute_persistent(&TOY, ExecConfig::with_workers(2), &dir)
        .unwrap();
    let reference = cold.report(ReportOptions::default()).to_json();

    // Corrupt one entry (flip a payload byte) and truncate another.
    let objects: Vec<PathBuf> = walk_bins(&dir.join("objects"));
    assert_eq!(objects.len(), total);
    let mut bytes = std::fs::read(&objects[0]).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x55;
    std::fs::write(&objects[0], &bytes).unwrap();
    let bytes = std::fs::read(&objects[1]).unwrap();
    std::fs::write(&objects[1], &bytes[..bytes.len() / 2]).unwrap();

    // Warm run: the two bad entries are detected, evicted and
    // recomputed — never trusted.
    let warm = campaign
        .execute_persistent(&TOY, ExecConfig::with_workers(2), &dir)
        .unwrap();
    assert!(warm.outcome.all_succeeded());
    assert_eq!(warm.outcome.stats.disk_hits, total - 2);
    assert_eq!(warm.outcome.stats.executed, 2);
    assert_eq!(warm.report(ReportOptions::default()).to_json(), reference);

    // Eviction happened on disk and was recounted on recompute.
    let again = campaign
        .execute_persistent(&TOY, ExecConfig::with_workers(2), &dir)
        .unwrap();
    assert_eq!(again.outcome.stats.disk_hits, total);
}

fn walk_bins(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.extend(walk_bins(&path));
        } else if path.extension().is_some_and(|e| e == "bin") {
            out.push(path);
        }
    }
    out.sort();
    out
}

#[test]
fn job_panics_surface_in_the_event_log_with_their_id() {
    struct PanicOn;

    impl CampaignRunner for PanicOn {
        fn run(&self, job: &StageJob, ctx: &JobCtx<'_>) -> JobOutput {
            if job.label() == "train/antisat/c1" {
                panic!("training diverged on {}", job.label());
            }
            TOY.run(job, ctx)
        }
    }

    let dir = TempDir::new("persistence-panics");
    let campaign = toy_campaign();
    let run = campaign
        .execute_persistent(&PanicOn, ExecConfig::with_workers(2), &dir)
        .unwrap();
    assert_eq!(run.outcome.stats.failed, 1);
    let failed_id = run
        .outcome
        .records
        .iter()
        .position(|r| matches!(r.status, gnnunlock::engine::JobStatus::Failed(_)))
        .unwrap();

    let replay = EventLog::replay(&dir.join(EVENTS_FILE)).unwrap();
    let (id, error) = replay
        .events
        .iter()
        .find_map(|e| match e {
            Event::StageError { id, error, .. } => Some((*id, error.clone())),
            _ => None,
        })
        .expect("the panic must be a stage-error event");
    assert_eq!(id, failed_id);
    assert!(
        error.contains("job panicked") && error.contains("training diverged"),
        "{error}"
    );
}

// ---------------------------------------------------------------------
// The real pipeline: a small Anti-SAT campaign, persisted and resumed.
// ---------------------------------------------------------------------

fn real_cfgs() -> (DatasetConfig, AttackConfig) {
    let mut ds = DatasetConfig::antisat(Suite::Iscas85, 0.02);
    ds.key_sizes = vec![8];
    ds.locks_per_config = 1;
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

/// One small real campaign, run cold then warm from the same directory:
/// with every stage of the DAG covered by the codec, the second run must
/// come (almost) entirely off disk. This is also the CI bench-smoke
/// assertion: ≥ 90% disk hits on the re-run.
#[test]
fn warm_real_campaign_is_mostly_disk_hits() {
    let dir = TempDir::new("persistence-warm-smoke");
    let (ds, attack) = real_cfgs();

    let cold =
        run_campaign_persistent("smoke", &ds, &attack, ExecConfig::with_workers(2), &dir).unwrap();
    assert!(cold.run.outcome.all_succeeded());
    let reference = cold.run.report(ReportOptions::default()).to_json();

    let warm =
        run_campaign_persistent("smoke", &ds, &attack, ExecConfig::with_workers(2), &dir).unwrap();
    let stats = warm.run.outcome.stats;
    assert!(
        stats.disk_hits * 10 >= stats.total * 9,
        "second run must be >= 90% disk hits, got {}/{}",
        stats.disk_hits,
        stats.total
    );
    assert_eq!(stats.executed, 0, "every stage artifact is persistable");
    assert_eq!(
        warm.run.report(ReportOptions::default()).to_json(),
        reference
    );
    // Stage-level reuse is visible per kind: parse, featurize, training
    // and verification all served from the store.
    for summary in warm.run.outcome.stage_summaries() {
        assert_eq!(
            summary.disk_hits, summary.total,
            "stage {} not fully disk-served",
            summary.kind
        );
    }
}

/// Kill a real campaign mid-training (after two of the four per-target
/// epoch-checkpoint links) and resume: the resumed run restarts from the
/// last persisted checkpoint — the completed links are disk hits, not
/// recomputed — and the final report is byte-identical to an
/// uninterrupted run's.
#[test]
fn kill_mid_training_resumes_from_epoch_checkpoint() {
    let reference_dir = TempDir::new("persistence-midtrain-ref");
    let killed_dir = TempDir::new("persistence-midtrain-kill");
    let (ds, mut attack) = real_cfgs();
    // 40 epochs in blocks of 10: four train-epoch links per target.
    attack.checkpoint_epochs = 10;
    assert_eq!(gnnunlock::core::checkpoint_blocks(&attack), 4);

    let campaign = gnnunlock::core::campaign_for("midtrain", &ds, &attack);
    let total = campaign.plan().len();
    let epoch_jobs = campaign
        .plan()
        .iter()
        .filter(|(j, _)| j.kind == gnnunlock::engine::JobKind::TrainEpoch)
        .count();
    assert_eq!(epoch_jobs, 16, "4 targets x 4 links");

    // Reference: uninterrupted persistent run.
    let reference = campaign
        .execute_persistent(
            &gnnunlock::core::AttackCampaignRunner::new(&ds, &attack),
            ExecConfig::with_workers(1),
            &reference_dir,
        )
        .unwrap();
    assert!(reference.outcome.all_succeeded());
    let reference_report = reference.report(ReportOptions::default()).to_json();

    // Killed run: a single worker executes jobs in plan order — 12
    // parse/lock/featurize jobs, the dataset, then the first target's
    // epoch chain. Killing after 15 jobs stops it two links into that
    // chain: mid-training, between epoch checkpoints.
    struct KillRealAfter<'a> {
        inner: gnnunlock::core::AttackCampaignRunner<'a>,
        remaining: AtomicUsize,
        token: CancelToken,
    }
    impl CampaignRunner for KillRealAfter<'_> {
        fn config_salt(&self) -> u64 {
            self.inner.config_salt()
        }
        fn stage_salt(&self, kind: gnnunlock::engine::JobKind) -> u64 {
            self.inner.stage_salt(kind)
        }
        fn codec(&self) -> Option<Arc<dyn ValueCodec>> {
            self.inner.codec()
        }
        fn run(&self, job: &StageJob, ctx: &JobCtx<'_>) -> JobOutput {
            let out = self.inner.run(job, ctx);
            if self.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                self.token.cancel();
            }
            out
        }
    }
    let kill_after = 15;
    let cfg = ExecConfig::with_workers(1);
    let killer = KillRealAfter {
        inner: gnnunlock::core::AttackCampaignRunner::new(&ds, &attack),
        remaining: AtomicUsize::new(kill_after),
        token: cfg.cancel.clone(),
    };
    let partial = campaign
        .execute_persistent(&killer, cfg, &killed_dir)
        .unwrap();
    assert_eq!(partial.outcome.stats.executed, kill_after);
    assert_eq!(partial.outcome.stats.cancelled, total - kill_after);
    let killed_epochs: usize = partial
        .outcome
        .stage_summaries()
        .iter()
        .find(|s| s.kind == "train-epoch")
        .map(|s| s.executed)
        .unwrap();
    assert_eq!(killed_epochs, 2, "killed two links into the first chain");

    // Resume: the persisted prefix — including both mid-chain epoch
    // checkpoints — is served from disk; training continues from the
    // second checkpoint instead of restarting.
    let (resumed, info) = campaign
        .resume(
            &gnnunlock::core::AttackCampaignRunner::new(&ds, &attack),
            ExecConfig::with_workers(2),
            &killed_dir,
        )
        .unwrap();
    assert_eq!(info.prior_completed, kill_after);
    assert_eq!(resumed.outcome.stats.disk_hits, kill_after);
    assert_eq!(resumed.outcome.stats.executed, total - kill_after);
    let resumed_epoch_summary = resumed
        .outcome
        .stage_summaries()
        .into_iter()
        .find(|s| s.kind == "train-epoch")
        .unwrap();
    assert_eq!(resumed_epoch_summary.disk_hits, 2);
    assert_eq!(resumed_epoch_summary.executed, epoch_jobs - 2);
    assert!(resumed.outcome.all_succeeded());
    assert_eq!(
        resumed.report(ReportOptions::default()).to_json(),
        reference_report,
        "mid-training resume must render the byte-identical report"
    );
    // And the numeric outcomes match the uninterrupted run exactly.
    let scheme = gnnunlock::core::campaign_scheme_tag(&ds);
    let ref_outcomes = reference
        .aggregate::<Vec<gnnunlock::core::AttackOutcome>>(&scheme)
        .unwrap();
    let res_outcomes = resumed
        .aggregate::<Vec<gnnunlock::core::AttackOutcome>>(&scheme)
        .unwrap();
    assert_eq!(ref_outcomes.len(), res_outcomes.len());
    for (a, b) in ref_outcomes.iter().zip(res_outcomes.iter()) {
        assert_eq!(a.benchmark, b.benchmark);
        assert_eq!(a.avg_gnn_accuracy(), b.avg_gnn_accuracy());
        assert_eq!(a.avg_post_accuracy(), b.avg_post_accuracy());
        assert_eq!(a.removal_success_rate(), b.removal_success_rate());
        assert_eq!(a.train_report.history, b.train_report.history);
    }
}

#[test]
fn real_campaign_cold_warm_resume_byte_identical() {
    let dir = TempDir::new("persistence-real");
    let (ds, attack) = real_cfgs();

    // Cold persistent run == plain in-memory run, byte for byte.
    let plain = run_campaign_with_workers("real", &ds, &attack, 2);
    let cold =
        run_campaign_persistent("real", &ds, &attack, ExecConfig::with_workers(2), &dir).unwrap();
    assert!(cold.run.outcome.all_succeeded());
    let reference = plain.run.report(ReportOptions::default()).to_json();
    assert_eq!(
        cold.run.report(ReportOptions::default()).to_json(),
        reference
    );

    // Trained models and outcomes hit the store; lock/dataset/attack
    // stages recompute by design.
    let warm =
        run_campaign_persistent("real", &ds, &attack, ExecConfig::with_workers(2), &dir).unwrap();
    assert!(
        warm.run.outcome.stats.disk_hits > 0,
        "models must come off disk"
    );
    assert_eq!(
        warm.run.report(ReportOptions::default()).to_json(),
        reference
    );
    // Numeric outcomes identical to the cold run's.
    assert_eq!(cold.outcomes.len(), warm.outcomes.len());
    for (a, b) in cold.outcomes.iter().zip(&warm.outcomes) {
        assert_eq!(a.benchmark, b.benchmark);
        assert_eq!(a.avg_gnn_accuracy(), b.avg_gnn_accuracy());
        assert_eq!(a.avg_post_accuracy(), b.avg_post_accuracy());
        assert_eq!(a.removal_success_rate(), b.removal_success_rate());
    }

    // Resume over the same directory: also byte-identical, and the
    // replay sees the earlier completions.
    let (resumed, info) =
        resume_campaign("real", &ds, &attack, ExecConfig::with_workers(2), &dir).unwrap();
    assert!(info.prior_completed > 0);
    assert_eq!(
        resumed.run.report(ReportOptions::default()).to_json(),
        reference
    );
}
