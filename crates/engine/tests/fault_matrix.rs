//! The deterministic crash/takeover matrix: every crash window of the
//! claim/publish/takeover/heartbeat protocol, reproduced through the
//! [`Faulty`] decorator with no sleeps, no SIGKILL choreography and no
//! timing dependence (`tests/sharded.rs` keeps one real-process SIGKILL
//! test as smoke). Every scenario runs on `Faulty<LocalDirBackend>` over
//! its own temp directory — the backend a campaign ships with.
//!
//! Strategy: each scenario *constructs* the genuine post-crash state
//! through the real APIs — claim a lease, [`LeaseManager::abandon`] it
//! (the deterministic stand-in for process death: files stay, heartbeat
//! stops), back-date mtimes with [`Faulty::age`] instead of sleeping,
//! or fire one injected fault — then runs clean survivor shards over
//! the shared backend and asserts the invariants the protocol promises:
//! the campaign completes, the report is byte-identical to a faultless
//! reference, no job body completes more than once, and no lease or
//! tomb file is left wedged.

use gnnunlock_engine::testing::{
    recoverable_schedule, Echo, Fault, FaultOp, FaultRule, Faulty, TempDir,
};
use gnnunlock_engine::{
    execution_counts, shard_replays, Campaign, Claim, DiskStore, ExecConfig, JobKind, JobStatus,
    LeaseManager, LocalDirBackend, ReportOptions, ShardConfig, StoreBackend, DEGRADED_PREFIX,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const ECHO: Echo = Echo { salt: 7 };

fn toy() -> Campaign {
    Campaign::builder("fault-matrix")
        .scheme("antisat")
        .benchmarks(["c1", "c2"])
        .key_sizes([8])
        .build()
}

/// The faultless reference report every scenario's shards must match.
fn reference_report() -> String {
    let dir = TempDir::new("fault-matrix-reference");
    let backend = Arc::new(LocalDirBackend::new());
    let run = toy()
        .execute_sharded(
            &ECHO,
            ExecConfig::with_workers(2),
            &dir,
            &ShardConfig::new("ref").with_backend(backend),
        )
        .unwrap();
    assert!(run.run.outcome.all_succeeded());
    run.run.report(ReportOptions::default()).to_json()
}

/// Run shards `s0..sN` sequentially over `backend`, asserting each
/// succeeds and reproduces `reference` byte-for-byte.
fn run_survivors(
    dir: &Path,
    backend: &Arc<Faulty<LocalDirBackend>>,
    shards: usize,
    ttl: Duration,
    reference: &str,
    scenario: &str,
) {
    for i in 0..shards {
        let run = toy()
            .execute_sharded(
                &ECHO,
                ExecConfig::with_workers(2),
                dir,
                &ShardConfig::new(format!("s{i}"))
                    .with_ttl(ttl)
                    .with_backend(backend.clone()),
            )
            .unwrap_or_else(|e| panic!("{scenario}: shard s{i} failed: {e}"));
        assert!(
            run.run.outcome.all_succeeded(),
            "{scenario}: shard s{i} had failed jobs"
        );
        assert_eq!(
            run.run.report(ReportOptions::default()).to_json(),
            reference,
            "{scenario}: shard s{i} diverged from the faultless reference"
        );
    }
}

/// Every path under `dir` whose file name satisfies `pred`.
fn paths_named(
    backend: &dyn StoreBackend,
    dir: &Path,
    pred: impl Fn(&str) -> bool,
) -> Vec<PathBuf> {
    backend
        .list(dir, true)
        .unwrap()
        .into_iter()
        .map(|m| m.path)
        .filter(|p| p.file_name().and_then(|n| n.to_str()).is_some_and(&pred))
        .collect()
}

fn is_lease_or_tomb(name: &str) -> bool {
    name.ends_with(".lease") || name.contains(".tomb-")
}

/// After a scenario: no lease still claimed, no tomb left behind.
fn assert_no_wedged_protocol_files(backend: &dyn StoreBackend, dir: &Path, scenario: &str) {
    let leftovers = paths_named(backend, dir, is_lease_or_tomb);
    assert!(
        leftovers.is_empty(),
        "{scenario}: wedged protocol files: {leftovers:?}"
    );
}

/// Every job body completed exactly once across all shard logs.
fn assert_single_execution(dir: &Path, scenario: &str) {
    let replays = shard_replays(dir).unwrap();
    let counts = execution_counts(&replays);
    assert_eq!(
        counts.len(),
        toy().plan().len(),
        "{scenario}: every job must have completed somewhere"
    );
    assert!(
        counts.values().all(|&n| n == 1),
        "{scenario}: double execution: {counts:?}"
    );
}

/// The store, lease manager and (kind, fp, lease path) of the
/// campaign's first ready job, for pre-seeding crash states.
fn victim_setup(
    dir: &Path,
    backend: &Arc<Faulty<LocalDirBackend>>,
    ttl: Duration,
) -> (Arc<DiskStore>, LeaseManager, JobKind, u64, PathBuf) {
    let store = Arc::new(DiskStore::open_with_backend(dir, "", backend.clone()).unwrap());
    let victim = LeaseManager::new(store.clone(), "victim", ttl);
    let campaign = toy();
    let plan = campaign.plan();
    let fps = campaign.job_fingerprints(&ECHO);
    let (job0, deps0) = &plan[0];
    assert!(deps0.is_empty(), "plan[0] must be a ready root");
    let lease = victim.lease_path(job0.kind, fps[0]);
    (store, victim, job0.kind, fps[0], lease)
}

/// Crash window: the owner dies mid-job (lease on disk, heartbeat
/// gone). Survivors must take the job over after the TTL and finish the
/// campaign with no double execution — the deterministic replica of the
/// SIGKILL smoke test, with `age` standing in for the TTL wait.
#[test]
fn dead_owner_lease_is_taken_over_without_sleeps() {
    let dir = TempDir::new("fault-matrix-dead-owner");
    let backend = Arc::new(Faulty::new(LocalDirBackend::new()));
    let name = "dead-owner";
    let ttl = Duration::from_secs(30);
    let reference = reference_report();

    let (_store, victim, kind, fp, lease) = victim_setup(&dir, &backend, ttl);
    assert!(matches!(victim.try_claim(kind, fp), Claim::Acquired { .. }));
    victim.abandon(); // process death: the lease file stays, unbeaten
    assert!(backend.age(&lease, ttl * 2), "lease must exist to age");

    run_survivors(&dir, &backend, 3, ttl, &reference, name);
    assert_single_execution(&dir, name);
    assert_no_wedged_protocol_files(&*backend, &dir, name);
}

/// Crash window: a challenger died *between* the tomb rename and the
/// lease re-create. Pre-fix, the orphaned tomb sat until hour-stale GC
/// and its generation was lost; now the next claimant adopts the
/// buried generation, claims immediately, and sweeps the tomb.
#[test]
fn interrupted_takeover_is_completed_by_the_next_claimant() {
    let dir = TempDir::new("fault-matrix-interrupted-takeover");
    let backend = Arc::new(Faulty::new(LocalDirBackend::new()));
    let name = "interrupted-takeover";
    let ttl = Duration::from_secs(30);
    let reference = reference_report();
    let is_tomb = |n: &str| n.contains(".tomb-");

    // A stale lease at generation 3 (an owner that died mid-epoch)...
    let (store, victim, kind, fp, lease) = victim_setup(&dir, &backend, ttl);
    backend
        .publish(&lease, b"gnnunlock-lease owner=old pid=1 gen=3\n")
        .unwrap();
    backend.age(&lease, ttl * 2);
    drop(victim);
    // ...whose takeover crashes right after the entomb rename.
    backend.inject(FaultRule::on(
        FaultOp::Entomb,
        ".lease",
        Fault::CrashAfterEntomb,
    ));
    let challenger = LeaseManager::new(store.clone(), "challenger", ttl);
    assert_eq!(challenger.try_claim(kind, fp), Claim::Busy);
    challenger.abandon();
    let tombs = paths_named(&*backend, &dir, is_tomb);
    assert_eq!(
        tombs.len(),
        1,
        "{name}: the crash leaves exactly the orphan tomb"
    );
    assert!(
        !backend.contains(&lease),
        "{name}: the lease itself is gone"
    );

    // The next claimant needs no TTL wait: the job is free *now*, the
    // buried generation is adopted (monotonic epochs), the tomb swept.
    let next = LeaseManager::new(store.clone(), "next", ttl);
    assert_eq!(
        next.try_claim(kind, fp),
        Claim::Acquired {
            generation: 4,
            takeover: true
        },
        "{name}: orphaned takeover must be completable immediately"
    );
    assert!(
        paths_named(&*backend, &dir, is_tomb).is_empty(),
        "{name}: successful claim must sweep the orphaned tomb"
    );
    assert!(next.release(kind, fp));
    drop(next);

    run_survivors(&dir, &backend, 3, ttl, &reference, name);
    assert_single_execution(&dir, name);
    assert_no_wedged_protocol_files(&*backend, &dir, name);
}

/// Crash window: a writer died after staging its entry bytes but before
/// the atomic rename. The final name must stay untouched (no torn entry
/// served to anyone), the campaign re-executes the job cleanly, and the
/// orphaned temp is invisible to byte accounting and collectable by GC.
#[test]
fn crash_before_publish_rename_leaves_no_torn_entry() {
    let dir = TempDir::new("fault-matrix-crash-publish");
    let backend = Arc::new(Faulty::new(LocalDirBackend::new()));
    let name = "crash-publish";
    let ttl = Duration::from_secs(30);
    let reference = reference_report();

    let (store, victim, _kind, _fp, lease) = victim_setup(&dir, &backend, ttl);
    let entry = lease.with_extension("bin");
    backend.inject(FaultRule::on(
        FaultOp::Publish,
        ".bin",
        Fault::CrashBeforeRename,
    ));
    assert!(backend.publish(&entry, b"half-written payload").is_err());
    assert!(
        !backend.contains(&entry),
        "{name}: final name untouched by the crash"
    );
    let orphan = paths_named(&*backend, &dir, |n| n.starts_with(".tmp-"))
        .pop()
        .expect("crash leaves the staged temp behind");
    victim.abandon();

    run_survivors(&dir, &backend, 3, ttl, &reference, name);
    assert_single_execution(&dir, name);
    assert_no_wedged_protocol_files(&*backend, &dir, name);

    // The orphan never counts toward byte budgets, and once stale it is
    // swept by the next GC pass (any budget — orphans are not entries).
    let billed = store.usage_bytes();
    assert!(
        backend.contains(&orphan),
        "{name}: orphan survives until it goes stale"
    );
    backend.age(&orphan, Duration::from_secs(2 * 3600));
    store.gc(u64::MAX);
    assert!(
        !backend.contains(&orphan),
        "{name}: stale orphan must be collected"
    );
    assert_eq!(
        store.usage_bytes(),
        billed,
        "{name}: orphans were never billed"
    );
}

/// Crash window: a claimant won the create but died mid-write, leaving
/// a *torn* lease file under the claimed name (the legacy
/// create-new-then-write protocol; NFS partial visibility). Torn bytes
/// must never decide ownership: fresh → a live peer (conservative),
/// stale → normal takeover arbitrated by mtime, with the generation
/// parsing as 0.
#[test]
fn torn_lease_files_never_decide_ownership() {
    let dir = TempDir::new("fault-matrix-torn-claim");
    let backend = Arc::new(Faulty::new(LocalDirBackend::new()));
    let name = "torn-claim";
    let ttl = Duration::from_secs(30);
    let reference = reference_report();

    let (store, victim, kind, fp, lease) = victim_setup(&dir, &backend, ttl);
    drop(victim);
    backend.inject(FaultRule::on(FaultOp::Claim, ".lease", Fault::TornWrite(9)));
    let peer = LeaseManager::new(store.clone(), "peer", ttl);
    // The peer's claim "succeeded" at the backend then the peer died:
    // a torn lease file exists under the claimed name.
    assert_eq!(peer.try_claim(kind, fp), Claim::Busy);
    peer.abandon();
    let torn = backend.load(&lease).expect("torn lease file exists");
    assert!(
        torn.len() < 20,
        "{name}: file must actually be torn: {torn:?}"
    );

    // Fresh + torn: conservatively a live peer — no spurious takeover.
    let rival = LeaseManager::new(store.clone(), "rival", ttl);
    assert_eq!(rival.try_claim(kind, fp), Claim::Busy);
    assert!(
        rival.peer_holds(kind, fp),
        "{name}: fresh torn lease reads as held (scheduling stays conservative)"
    );
    // Stale + torn: the mtime, not the unreadable content, carries the
    // verdict — taken over at generation 0 + 1.
    backend.age(&lease, ttl * 2);
    assert_eq!(
        rival.try_claim(kind, fp),
        Claim::Acquired {
            generation: 1,
            takeover: true
        },
        "{name}"
    );
    assert!(rival.release(kind, fp));
    drop(rival);

    run_survivors(&dir, &backend, 3, ttl, &reference, name);
    assert_single_execution(&dir, name);
    assert_no_wedged_protocol_files(&*backend, &dir, name);
}

/// Crash window: the *owner's own heartbeat* observes a torn read of
/// its lease (reader racing the filesystem, NFS partial page). Pre-fix
/// the owner dropped the lease as lost, stopped heartbeating, and a
/// peer took over a perfectly live owner's job; now a torn observation
/// keeps the lease and the next beat re-judges it.
#[test]
fn torn_heartbeat_read_does_not_abandon_a_live_lease() {
    let dir = TempDir::new("fault-matrix-torn-heartbeat");
    let backend = Arc::new(Faulty::new(LocalDirBackend::new()));
    let name = "torn-heartbeat";
    let ttl = Duration::from_secs(30);

    let (store, owner, kind, fp, _lease) = victim_setup(&dir, &backend, ttl);
    assert!(matches!(owner.try_claim(kind, fp), Claim::Acquired { .. }));

    // One torn read, one transient error, then clean again.
    backend.inject(FaultRule::on(FaultOp::Load, ".lease", Fault::TornRead(7)));
    backend.inject(FaultRule::on(FaultOp::Load, ".lease", Fault::Transient).after(1));
    owner.force_heartbeat(); // torn observation
    owner.force_heartbeat(); // transient error
    assert_eq!(
        owner.held(),
        1,
        "{name}: torn/transient reads must not drop the lease"
    );
    assert_eq!(owner.stats().lost, 0);
    owner.force_heartbeat(); // clean: refreshes
    assert_eq!(owner.held(), 1);

    // A rival still sees a fresh, held lease — no spurious takeover.
    let rival = LeaseManager::new(store.clone(), "rival", ttl);
    assert_eq!(rival.try_claim(kind, fp), Claim::Busy);
    assert_eq!(rival.stats().takeovers, 0);

    // An *intact foreign* observation still means usurped: that path
    // must not have been loosened by torn-tolerance.
    backend
        .publish(
            &owner.lease_path(kind, fp),
            b"gnnunlock-lease owner=usurper pid=9 gen=7\n",
        )
        .unwrap();
    owner.force_heartbeat();
    assert_eq!(
        owner.held(),
        0,
        "{name}: intact foreign content is a real loss"
    );
    assert_eq!(owner.stats().lost, 1);
}

/// Seeded soak: N pseudo-random schedules of *recoverable* faults
/// (transient errors, delayed visibility, torn and slow reads, latency
/// spikes, short outages) thrown at full sharded runs. Recoverable
/// faults may cost duplicate work — a shard that
/// transiently cannot see a peer's entry legitimately re-executes the
/// job — but must never change the report or fail the campaign.
/// `GNNUNLOCK_FAULT_SOAK_SEEDS` (default 6) widens the sweep in CI; a
/// failure names its seed so the exact schedule reproduces.
#[test]
fn recoverable_fault_soak_never_diverges_the_report() {
    let seeds: u64 = std::env::var("GNNUNLOCK_FAULT_SOAK_SEEDS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(6);
    let reference = reference_report();
    for seed in 1..=seeds {
        let dir = TempDir::new(&format!("fault-matrix-soak-{seed}"));
        let backend = Arc::new(Faulty::new(LocalDirBackend::new()));
        let name = format!("soak seed {seed}");
        for rule in recoverable_schedule(seed, 10) {
            backend.inject(rule);
        }
        for i in 0..2 {
            let run = toy()
                .execute_sharded(
                    &ECHO,
                    ExecConfig::with_workers(2),
                    &dir,
                    &ShardConfig::new(format!("s{i}")).with_backend(backend.clone()),
                )
                .unwrap_or_else(|e| panic!("{name}: shard s{i} failed: {e}"));
            assert!(
                run.run.outcome.all_succeeded(),
                "{name}: shard s{i} had failed jobs"
            );
            assert_eq!(
                run.run.report(ReportOptions::default()).to_json(),
                reference,
                "{name}: shard s{i} diverged from the reference"
            );
        }
        // No wedged-files assertion here: a visibility fault during
        // release legitimately strands a lease (the owner counts it
        // lost; it ages out via the normal stale path). Reports and
        // success are the soak invariants.
    }
}

/// Chaos acceptance: a 3-shard campaign under a fixed schedule of
/// service-shaped faults — latency spikes, short unavailability
/// windows, transient errors — must stay byte-identical to the
/// faultless reference with every job body executed exactly once. The
/// resilience layer's retries absorb the whole
/// schedule, and every backoff pause lands on the decorator's virtual
/// clock, so the test is timing-free.
#[test]
fn service_chaos_schedule_is_byte_identical_and_exactly_once() {
    let dir = TempDir::new("fault-matrix-chaos");
    let backend = Arc::new(Faulty::new(LocalDirBackend::new()));
    let name = "chaos";
    let reference = reference_report();
    for rule in [
        FaultRule::on(FaultOp::Load, ".bin", Fault::Transient),
        FaultRule::on(FaultOp::Publish, ".bin", Fault::Latency(12)).after(1),
        FaultRule::on(FaultOp::Claim, ".lease", Fault::Unavailable(2)).after(2),
        FaultRule::on(FaultOp::Load, ".lease", Fault::Latency(3)).after(4),
        FaultRule::on(FaultOp::Publish, ".bin", Fault::Unavailable(1)).after(3),
        FaultRule::on(FaultOp::Load, ".bin", Fault::SlowRead).after(5),
        FaultRule::on(FaultOp::Load, ".bin", Fault::Transient).after(7),
    ] {
        backend.inject(rule);
    }

    run_survivors(&dir, &backend, 3, Duration::from_secs(30), &reference, name);
    assert_single_execution(&dir, name);
    assert!(
        backend.faults_fired() > 0,
        "{name}: the schedule must actually have fired"
    );
    assert!(
        backend.virtual_waited() > Duration::ZERO,
        "{name}: backoff must be charged to the virtual clock, not slept"
    );
    assert_no_wedged_protocol_files(&*backend, &dir, name);
}

/// Degradation acceptance: mid-campaign the store becomes unavailable
/// *for good*. The run must fail cleanly — a `store-degraded` stage
/// error, no panic, no poll-forever — and once the outage clears, a
/// fresh shard over the same backend (stranded leases aged past the
/// TTL, exactly as wall-clock would) converges to the reference report.
#[test]
fn sustained_store_outage_fails_cleanly_and_recovers() {
    let dir = TempDir::new("fault-matrix-outage");
    let backend = Arc::new(Faulty::new(LocalDirBackend::new()));
    let name = "outage";
    let reference = reference_report();
    let ttl = Duration::from_millis(200);
    // After a handful of healthy operations the store disappears:
    // every subsequent gated op times out, forever.
    backend.inject(FaultRule::on(FaultOp::Load, "", Fault::Unavailable(usize::MAX)).after(12));

    let run = toy()
        .execute_sharded(
            &ECHO,
            ExecConfig::with_workers(2),
            &dir,
            &ShardConfig::new("s0")
                .with_ttl(ttl)
                .with_backend(backend.clone()),
        )
        .expect("the outage must fail jobs, not the run itself");
    assert!(
        !run.run.outcome.all_succeeded(),
        "{name}: the campaign cannot survive a permanent outage"
    );
    let degraded_failures: Vec<_> = run
        .run
        .outcome
        .records
        .iter()
        .filter_map(|r| match &r.status {
            JobStatus::Failed(msg) if msg.contains(DEGRADED_PREFIX) => Some(msg.clone()),
            _ => None,
        })
        .collect();
    assert!(
        !degraded_failures.is_empty(),
        "{name}: failures must carry the store-degraded marker: {:?}",
        run.run
            .outcome
            .records
            .iter()
            .map(|r| &r.status)
            .collect::<Vec<_>>()
    );

    // Recovery: the outage ends. Stranded leases (owners that could
    // not release through the dead store) age past the TTL — the
    // virtual stand-in for waiting out one TTL — and a clean shard
    // converges.
    backend.clear_rules();
    for path in paths_named(&*backend, &dir, is_lease_or_tomb) {
        backend.age(&path, ttl * 4);
    }
    let recovery_dir = TempDir::new("fault-matrix-outage-recovery");
    run_survivors(&recovery_dir, &backend, 1, ttl, &reference, name);
}
