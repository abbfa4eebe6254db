//! The `GNNUNLOCK_CACHE_BUDGET_BYTES` garbage-collection knob.
//!
//! Kept in its OWN test binary (like `env_knobs.rs`): it mutates the
//! process environment, and concurrent setenv/getenv from sibling test
//! threads is undefined behavior on glibc. One test function, so there
//! are no sibling threads.

use gnnunlock::engine::testing::{StringCodec, TempDir};
use gnnunlock::engine::{
    cache_budget_from_env, Campaign, CampaignRunner, DiskStore, JobCtx, JobKind, JobOutput,
    JobValue, StageJob, ValueCodec, CACHE_BUDGET_ENV,
};
use gnnunlock::prelude::*;
use std::sync::Arc;
use std::time::{Duration, SystemTime};

/// Echo runner with a configurable salt, so two "configurations" write
/// disjoint entry sets into one store.
struct SaltedToy(u64);

impl CampaignRunner for SaltedToy {
    fn config_salt(&self) -> u64 {
        self.0
    }

    fn codec(&self) -> Option<Arc<dyn ValueCodec>> {
        Some(Arc::new(StringCodec))
    }

    fn run(&self, job: &StageJob, _ctx: &JobCtx<'_>) -> JobOutput {
        Ok(Arc::new(job.label()) as JobValue)
    }
}

#[test]
fn cache_budget_env_knob_drives_lru_gc() {
    // ---- the knob itself, against a raw store ----
    let dir = TempDir::new("cache-budget-raw");
    let old = DiskStore::open(&dir).unwrap();
    for fp in 0..4u64 {
        old.save(JobKind::Lock, fp, &[1u8; 32]).unwrap();
        let f = std::fs::File::open(old.entry_path(JobKind::Lock, fp)).unwrap();
        f.set_modified(SystemTime::UNIX_EPOCH + Duration::from_secs(fp))
            .unwrap();
    }
    drop(old);

    // "Current run": a fresh handle that writes one live entry.
    let store = DiskStore::open(&dir).unwrap();
    store.save(JobKind::Train, 9, &[1u8; 32]).unwrap();

    assert!(cache_budget_from_env().is_none(), "knob unset: no budget");
    assert!(store.gc_from_env().is_none(), "no budget, no sweep");

    std::env::set_var(CACHE_BUDGET_ENV, "1");
    assert_eq!(cache_budget_from_env(), Some(1));
    let stats = store.gc_from_env().expect("budget set");
    // Every foreign entry went; the live entry survived a budget it
    // cannot possibly fit.
    assert_eq!(stats.evicted_entries, 4);
    assert_eq!(stats.live_protected, 1);
    assert!(store.load(JobKind::Train, 9).is_some());
    for fp in 0..4u64 {
        assert!(store.load(JobKind::Lock, fp).is_none());
    }
    std::env::remove_var(CACHE_BUDGET_ENV);

    // ---- end to end: the sweep runs after each persistent campaign ----
    let dir = TempDir::new("cache-budget-campaign");
    let campaign = |name: &str| {
        Campaign::builder(name)
            .scheme("antisat")
            .benchmarks(["c1", "c2"])
            .key_sizes([8])
            .build()
    };
    // Configuration A fills the store (no budget yet).
    let a = campaign("a")
        .execute_persistent(&SaltedToy(1), ExecConfig::with_workers(2), &dir)
        .unwrap();
    assert!(a.outcome.all_succeeded());
    let store = DiskStore::open(&dir).unwrap();
    let after_a = store.len();
    assert!(after_a > 0);
    drop(store);

    // Configuration B runs under a 1-byte budget: the post-run sweep
    // must evict A's entries (untouched by B's run) while B's own
    // artifacts — its live set — are immune.
    std::env::set_var(CACHE_BUDGET_ENV, "1");
    let b = campaign("b")
        .execute_persistent(&SaltedToy(2), ExecConfig::with_workers(2), &dir)
        .unwrap();
    assert!(b.outcome.all_succeeded());
    std::env::remove_var(CACHE_BUDGET_ENV);

    // The post-run sweep evicted A's (unused) entries and kept every
    // entry B's run just produced: a warm B re-run is all disk hits.
    let store = DiskStore::open(&dir).unwrap();
    assert_eq!(store.len(), after_a, "A evicted, B kept");
    drop(store);
    let warm = campaign("b")
        .execute_persistent(&SaltedToy(2), ExecConfig::with_workers(2), &dir)
        .unwrap();
    assert_eq!(warm.outcome.stats.disk_hits, warm.outcome.stats.total);
}
