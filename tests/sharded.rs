//! Distributed-campaign integration tests: lease-based multi-process
//! sharding over the shared store.
//!
//! The contract under test extends the determinism contract one more
//! step: **cold = warm = resumed = sharded, byte-identical default
//! report** — a campaign executed by N concurrent shards (threads here,
//! real OS processes in the SIGKILL and real-pipeline tests, which
//! re-exec this test binary as worker children) sharing one cache
//! directory renders the same report as a single-process run, with no
//! job body completed on more than one shard.

use gnnunlock::engine::testing::{Echo, TempDir};
use gnnunlock::engine::{
    execution_counts, shard_replays, Campaign, CampaignRunner, Event, EventLog, JobCtx, JobOutput,
    StageJob, ValueCodec,
};
use gnnunlock::gnn::{SaintConfig, TrainConfig};
use gnnunlock::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Toy campaign: echo-string stages, every value persistable, plus an
// optional stall (a job body that never returns) for the SIGKILL test.
// ---------------------------------------------------------------------

const TOY: Echo = Echo { salt: 77 };

/// [`TOY`], except that the body of the job labelled `label` hangs
/// forever (until the process is killed) — the stand-in for a worker
/// wedged mid-job.
struct StallOn {
    label: String,
}

impl CampaignRunner for StallOn {
    fn config_salt(&self) -> u64 {
        TOY.config_salt()
    }

    fn codec(&self) -> Option<Arc<dyn ValueCodec>> {
        TOY.codec()
    }

    fn run(&self, job: &StageJob, ctx: &JobCtx<'_>) -> JobOutput {
        if job.label() == self.label {
            loop {
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        TOY.run(job, ctx)
    }
}

fn toy_campaign() -> Campaign {
    Campaign::builder("sharded-toy")
        .scheme("antisat")
        .benchmarks(["c1", "c2"])
        .key_sizes([8])
        .seeds([0, 1])
        .build()
}

#[test]
fn three_shards_split_one_campaign_without_double_work() {
    let dir = TempDir::new("sharded-threads");
    let campaign = toy_campaign();

    // Reference: plain in-memory run (byte-identity across *modes* is
    // the whole point, not just across shard counts).
    let reference = campaign.execute(&TOY, &Executor::new(ExecConfig::with_workers(2)));
    let reference_report = reference.report(ReportOptions::default()).to_json();

    // Three concurrent shards over one directory. Threads emulate
    // processes faithfully here: each shard gets its own store handle,
    // cache, lease manager and event log — all coordination happens
    // through the filesystem, exactly as across processes.
    let reports: Vec<(String, bool)> = std::thread::scope(|scope| {
        let campaign = &campaign;
        let dir = &dir;
        let handles: Vec<_> = (0..3)
            .map(|i| {
                scope.spawn(move || {
                    let sharded = campaign
                        .execute_sharded(
                            &TOY,
                            ExecConfig::with_workers(2),
                            dir,
                            &ShardConfig::new(format!("t{i}")),
                        )
                        .unwrap();
                    assert!(sharded.run.outcome.all_succeeded());
                    (
                        sharded.run.report(ReportOptions::default()).to_json(),
                        sharded.is_finalizer,
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (report, _) in &reports {
        assert_eq!(
            report, &reference_report,
            "every shard's report must be byte-identical to the single-process run"
        );
    }
    // Cold run: exactly one shard executed the aggregate (= finalizer).
    assert_eq!(
        reports.iter().filter(|(_, f)| *f).count(),
        1,
        "exactly one finalizer"
    );

    // No job body completed on more than one shard, and the union of
    // executions covers the whole plan.
    let replays = shard_replays(&dir).unwrap();
    assert_eq!(replays.len(), 3);
    let counts = execution_counts(&replays);
    assert_eq!(counts.len(), campaign.plan().len(), "{counts:?}");
    assert!(counts.values().all(|&n| n == 1), "{counts:?}");
}

#[test]
fn probe_ahead_elides_interior_stages_nobody_needs() {
    let dir = TempDir::new("sharded-probe-ahead");
    let campaign = toy_campaign();
    let runner = TOY;

    // Fully warm store...
    let cold = campaign
        .execute_persistent(&runner, ExecConfig::with_workers(2), &dir)
        .unwrap();
    let reference_report = cold.report(ReportOptions::default()).to_json();

    // ...except one interior entry, whose dependents are all cached.
    let victim = "lock/antisat/c1/k8/s0";
    let idx = campaign
        .plan()
        .iter()
        .position(|(j, _)| j.label() == victim)
        .unwrap();
    let fps = campaign.job_fingerprints(&runner);
    let store = DiskStore::open(&dir).unwrap();
    let entry = store.entry_path(campaign.plan()[idx].0.kind, fps[idx]);
    std::fs::remove_file(&entry).unwrap();

    // A warm-adjacent shard must elide the job, not recompute it.
    let sharded = campaign
        .execute_sharded(
            &runner,
            ExecConfig::with_workers(2),
            &dir,
            &ShardConfig::new("probe"),
        )
        .unwrap();
    assert!(sharded.run.outcome.all_succeeded());
    assert_eq!(
        sharded.run.report(ReportOptions::default()).to_json(),
        reference_report,
        "elision must not change the report"
    );
    let replay = EventLog::replay(&dir.join("events-probe.jsonl")).unwrap();
    assert!(
        replay
            .events
            .iter()
            .any(|e| matches!(e, Event::JobElided { label, .. } if label == victim)),
        "the interior stage must be elided"
    );
    assert!(
        !replay
            .events
            .iter()
            .any(|e| matches!(e, Event::JobClaimed { label, .. } if label == victim)),
        "an elided stage must never be claimed for execution"
    );
    assert!(!entry.exists(), "elision must not materialize the entry");
}

// ---------------------------------------------------------------------
// SIGKILL takeover: a real OS process (this test binary re-exec'd into
// `toy_stall_worker_entry`) claims a job, wedges in its body, and is
// SIGKILL'd while holding the lease. A survivor shard must take the
// lease over after the TTL, complete the job, and render the
// byte-identical report.
//
// This is deliberately the ONE remaining real-process crash test — a
// smoke check that the `LocalDirBackend` primitives behave under actual
// process death. The exhaustive crash/takeover matrix (every crash
// window, torn writes, delayed visibility, seeded fault soak) lives in
// `crates/engine/tests/fault_matrix.rs`, through the deterministic
// `testing::Faulty` decorator over this same `LocalDirBackend` (and
// over the object map), where it needs no TTL waits, kill timing, or
// child processes.
// ---------------------------------------------------------------------

const STALL_DIR_ENV: &str = "GNNUNLOCK_TEST_STALL_DIR";
const STALL_LABEL_ENV: &str = "GNNUNLOCK_TEST_STALL_LABEL";
const STALL_SHARD_ENV: &str = "GNNUNLOCK_TEST_STALL_SHARD";

/// Worker-mode entry for the SIGKILL test: inert unless the parent set
/// the `GNNUNLOCK_TEST_STALL_*` environment (note: the child reads its
/// env once, single-threaded, before any campaign threads exist).
#[test]
fn toy_stall_worker_entry() {
    let (Ok(dir), Ok(stall), Ok(shard)) = (
        std::env::var(STALL_DIR_ENV),
        std::env::var(STALL_LABEL_ENV),
        std::env::var(STALL_SHARD_ENV),
    ) else {
        return; // normal test run: nothing to do
    };
    let runner = StallOn { label: stall };
    // Single worker: jobs proceed in plan order until the stall wedges
    // the only worker thread while it holds the job's lease.
    let _ = toy_campaign().execute_sharded(
        &runner,
        ExecConfig::with_workers(1),
        std::path::Path::new(&dir),
        &ShardConfig::new(shard),
    );
    unreachable!("the stalled worker must be SIGKILL'd, never finish");
}

#[test]
fn sigkill_mid_job_is_taken_over_and_completed() {
    let ref_dir = TempDir::new("sharded-sigkill-ref");
    let dir = TempDir::new("sharded-sigkill");
    let campaign = toy_campaign();
    let stall = "dataset/antisat";

    // Reference report from an uninterrupted single-process run.
    let reference = campaign
        .execute_persistent(&TOY, ExecConfig::with_workers(1), &ref_dir)
        .unwrap();
    let reference_report = reference.report(ReportOptions::default()).to_json();

    // The victim: a real process that wedges inside the dataset job.
    let exe = std::env::current_exe().unwrap();
    let mut victim = std::process::Command::new(&exe)
        .args(["toy_stall_worker_entry", "--exact", "--nocapture"])
        .env(STALL_DIR_ENV, dir.as_os_str())
        .env(STALL_LABEL_ENV, stall)
        .env(STALL_SHARD_ENV, "victim")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();

    // Wait until the victim has claimed the stall job (visible in its
    // event log), then SIGKILL it mid-body, lease still held.
    let victim_log = dir.join("events-victim.jsonl");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if Instant::now() > deadline {
            let _ = victim.kill();
            panic!("victim never claimed '{stall}'");
        }
        let claimed = EventLog::replay(&victim_log).ok().is_some_and(|replay| {
            replay
                .events
                .iter()
                .any(|e| matches!(e, Event::JobClaimed { label, .. } if label == stall))
        });
        if claimed {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    victim.kill().unwrap();
    victim.wait().unwrap();

    // A survivor with a short TTL takes over the orphaned lease and
    // completes the campaign.
    let survivor = campaign
        .execute_sharded(
            &TOY,
            ExecConfig::with_workers(2),
            &dir,
            &ShardConfig::new("survivor").with_ttl(Duration::from_millis(300)),
        )
        .unwrap();
    assert!(survivor.run.outcome.all_succeeded());
    assert!(
        survivor.lease_stats.takeovers >= 1,
        "the orphaned lease must be taken over: {:?}",
        survivor.lease_stats
    );
    assert_eq!(
        survivor.run.report(ReportOptions::default()).to_json(),
        reference_report,
        "a takeover-resumed sharded run must render the byte-identical report"
    );

    // The survivor's takeover is visible in its log with a bumped
    // ownership generation...
    let survivor_log = EventLog::replay(&dir.join("events-survivor.jsonl")).unwrap();
    let takeover = survivor_log
        .events
        .iter()
        .find_map(|e| match e {
            Event::JobClaimed {
                label,
                generation,
                takeover: true,
                ..
            } if label == stall => Some(*generation),
            _ => None,
        })
        .expect("survivor must take the stalled job over");
    assert!(takeover >= 1, "takeover must bump the lease generation");

    // ...and across the merged logs no job body completed twice: the
    // victim's claim of the stalled job never finished, the survivor's
    // did.
    let replays = shard_replays(&dir).unwrap();
    let counts = execution_counts(&replays);
    assert!(counts.values().all(|&n| n <= 1), "{counts:?}");
    assert_eq!(counts.get(stall), Some(&1), "{counts:?}");
    assert_eq!(counts.len(), campaign.plan().len());
}

// ---------------------------------------------------------------------
// The acceptance criterion, literally: a real (tiny) attack campaign
// executed by 3 concurrent OS processes sharing one cache directory
// produces a report byte-identical to the single-process run, with no
// job executed more than once.
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

const REAL_DIR_ENV: &str = "GNNUNLOCK_TEST_REAL_DIR";
const REAL_SHARD_ENV: &str = "GNNUNLOCK_TEST_REAL_SHARD";

/// Worker-mode entry for the 3-process real-pipeline test: inert
/// unless the parent set the `GNNUNLOCK_TEST_REAL_*` environment.
#[test]
fn real_shard_worker_entry() {
    let (Ok(dir), Ok(shard_id)) = (std::env::var(REAL_DIR_ENV), std::env::var(REAL_SHARD_ENV))
    else {
        return; // normal test run: nothing to do
    };
    let dir = PathBuf::from(dir);
    let (ds, attack) = real_cfgs();
    let result = run_campaign_sharded(
        "sharded-real",
        &ds,
        &attack,
        ExecConfig::with_workers(2),
        &dir,
        &ShardConfig::new(shard_id.clone()),
    )
    .unwrap();
    assert!(result.sharded.run.outcome.all_succeeded());
    // Every shard writes its view of the report; the parent asserts
    // they are all byte-identical to the single-process reference.
    result
        .sharded
        .run
        .report(ReportOptions::default())
        .write_to(&dir.join(format!("report-{shard_id}.json")))
        .unwrap();
    if result.sharded.is_finalizer {
        result
            .sharded
            .run
            .report(ReportOptions::default())
            .write_to(&dir.join("report.json"))
            .unwrap();
    }
}

#[test]
fn three_process_real_campaign_is_byte_identical() {
    let ref_dir = TempDir::new("sharded-real-ref");
    let dir = TempDir::new("sharded-real");
    let (ds, attack) = real_cfgs();

    // Single-process reference.
    let reference = run_campaign_persistent(
        "sharded-real",
        &ds,
        &attack,
        ExecConfig::with_workers(2),
        &ref_dir,
    )
    .unwrap();
    assert!(reference.run.outcome.all_succeeded());
    let reference_report = reference.run.report(ReportOptions::default()).to_json();

    // Three concurrent worker processes (this binary, re-exec'd).
    let exe = std::env::current_exe().unwrap();
    let children: Vec<_> = (0..3)
        .map(|i| {
            std::process::Command::new(&exe)
                .args(["real_shard_worker_entry", "--exact", "--nocapture"])
                .env(REAL_DIR_ENV, dir.as_os_str())
                .env(REAL_SHARD_ENV, format!("w{i}"))
                .stdout(std::process::Stdio::null())
                .spawn()
                .unwrap()
        })
        .collect();
    for mut child in children {
        let status = child.wait().unwrap();
        assert!(status.success(), "worker process failed: {status}");
    }

    // Byte-identity: every shard's report, and the finalizer's
    // canonical report.json, match the single-process reference.
    for i in 0..3 {
        let report = std::fs::read_to_string(dir.join(format!("report-w{i}.json"))).unwrap();
        assert_eq!(
            report, reference_report,
            "shard w{i}'s report must be byte-identical to the single-process run"
        );
    }
    let canonical = std::fs::read_to_string(dir.join("report.json"))
        .expect("exactly one shard must have elected itself finalizer and written report.json");
    assert_eq!(canonical, reference_report);

    // No job executed more than once, and together the shards covered
    // the whole plan (cold run: every job ran exactly once somewhere).
    let campaign = gnnunlock::core::campaign_for("sharded-real", &ds, &attack);
    let replays = shard_replays(&dir).unwrap();
    assert_eq!(replays.len(), 3);
    let counts = execution_counts(&replays);
    assert!(counts.values().all(|&n| n == 1), "{counts:?}");
    assert_eq!(counts.len(), campaign.plan().len(), "{counts:?}");
}
