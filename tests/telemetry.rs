//! Telemetry integration tests: the observability layer's contracts
//! that span crates.
//!
//! - Span **ids** are deterministic — the id/parent graph of a campaign
//!   run is identical at any worker count (timestamps and thread ids
//!   are the only volatile fields).
//! - Persistent and sharded campaign runs emit Chrome `trace_event`
//!   timelines beside their event logs, structurally valid per the
//!   bench harness's `trace check` validator.
//! - The Prometheus text exposition is pinned by a golden file
//!   (regenerate with `GNNUNLOCK_UPDATE_GOLDEN=1`).

use gnnunlock::engine::testing::{Echo, TempDir};
use gnnunlock::engine::{Campaign, Json};
use gnnunlock::prelude::*;
use gnnunlock::telemetry::{Registry, SpanRecord, DURATION_BUCKETS};
use gnnunlock_bench::perf::validate_trace_doc;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

// Toy echo campaign (mirrors tests/sharded.rs): every value is a
// persistable string, so the same campaign runs in-memory, persistent
// and sharded.

const TOY: Echo = Echo { salt: 99 };

fn toy_campaign() -> Campaign {
    Campaign::builder("telemetry-toy")
        .scheme("antisat")
        .benchmarks(["c1", "c2"])
        .key_sizes([8])
        .seeds([0, 1])
        .build()
}

/// The deterministic identity of a span set: everything except the
/// volatile timing fields (`start_us`, `dur_us`, `tid`).
fn span_keys(spans: &[SpanRecord]) -> BTreeSet<(String, String, u64, u64)> {
    spans
        .iter()
        .map(|s| (s.name.clone(), s.cat.clone(), s.id, s.parent))
        .collect()
}

#[test]
fn span_id_graph_is_identical_across_worker_counts() {
    let campaign = toy_campaign();
    let one = campaign.execute(&TOY, &Executor::new(ExecConfig::with_workers(1)));
    let four = campaign.execute(&TOY, &Executor::new(ExecConfig::with_workers(4)));

    let keys_one = span_keys(&one.outcome.spans);
    let keys_four = span_keys(&four.outcome.spans);
    assert!(
        keys_one.len() >= campaign.plan().len(),
        "every stage job must record at least one span: {} < {}",
        keys_one.len(),
        campaign.plan().len()
    );
    assert_eq!(
        keys_one, keys_four,
        "the span id/parent graph must not depend on worker count"
    );

    // And the determinism contract still holds with telemetry on: the
    // default reports are byte-identical too.
    assert_eq!(
        one.report(ReportOptions::default()).to_json(),
        four.report(ReportOptions::default()).to_json()
    );
}

fn read_valid_trace(path: &Path) -> usize {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("trace {} must exist: {e}", path.display()));
    let doc = Json::parse(&text)
        .unwrap_or_else(|e| panic!("trace {} must be valid JSON: {e}", path.display()));
    validate_trace_doc(&doc)
        .unwrap_or_else(|e| panic!("trace {} must be structurally valid: {e}", path.display()))
}

#[test]
fn persistent_run_writes_a_valid_chrome_trace() {
    let dir = TempDir::new("telemetry-persistent");
    let campaign = toy_campaign();
    let run = campaign
        .execute_persistent(&TOY, ExecConfig::with_workers(2), &dir)
        .unwrap();
    assert!(run.outcome.all_succeeded());
    let events = read_valid_trace(&dir.join("trace.json"));
    assert!(
        events >= campaign.plan().len(),
        "a cold run's trace must cover every executed job: {events}"
    );
}

#[test]
fn three_sharded_workers_each_write_a_valid_trace() {
    let dir = TempDir::new("telemetry-sharded");
    let campaign = toy_campaign();
    std::thread::scope(|scope| {
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
                            &ShardConfig::new(format!("w{i}")),
                        )
                        .unwrap();
                    assert!(sharded.run.outcome.all_succeeded());
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    let mut total = 0;
    for i in 0..3 {
        total += read_valid_trace(&dir.join(format!("trace-w{i}.json")));
    }
    assert!(
        total >= campaign.plan().len(),
        "together the shard traces must cover the whole plan: {total}"
    );
}

// --- Prometheus exposition golden -----------------------------------

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn assert_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var("GNNUNLOCK_UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with GNNUNLOCK_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "exposition drift against {}; if intentional, regenerate with \
         GNNUNLOCK_UPDATE_GOLDEN=1 and commit the diff",
        path.display()
    );
}

/// The exposition format itself is the pinned interface — scrapers
/// parse it — so render a fixed, isolated registry (never the global
/// one, whose values depend on test order) covering every metric kind.
#[test]
fn prometheus_exposition_is_pinned() {
    let reg = Registry::new();
    reg.counter_with(
        "engine_jobs_total",
        "Stage jobs executed to completion.",
        &[("kind", "lock")],
    )
    .add(3);
    reg.counter_with(
        "engine_jobs_total",
        "Stage jobs executed to completion.",
        &[("kind", "train")],
    )
    .add(5);
    reg.gauge("daemon_campaigns_active", "Campaigns currently executing.")
        .set(2);
    let h = reg.histogram(
        "engine_stage_wall_seconds",
        "Per-stage wall-clock time.",
        DURATION_BUCKETS,
    );
    for v in [0.0001, 0.003, 0.25, 42.0] {
        h.observe(v);
    }
    // The store-resilience families scrapers alert on: retry traffic,
    // backoff pauses (the engine's millisecond bucket ladder), and the
    // circuit-breaker state gauge at its most alarming value.
    reg.counter_with(
        "store_retries_total",
        "Store operations retried after a transient backend failure, per logical op",
        &[("op", "claim")],
    )
    .add(4);
    reg.counter_with(
        "store_retries_total",
        "Store operations retried after a transient backend failure, per logical op",
        &[("op", "publish")],
    )
    .add(1);
    let b = reg.histogram(
        "store_backoff_ms",
        "Backoff pauses between store retry attempts, in milliseconds",
        &[
            1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
        ],
    );
    for v in [10.0, 20.0, 40.0, 80.0] {
        b.observe(v);
    }
    reg.gauge(
        "store_breaker_state",
        "Store circuit-breaker state: 0 closed, 1 half-open (probing), 2 open",
    )
    .set(2);
    assert_golden("prometheus.txt", &reg.render_prometheus());
}
