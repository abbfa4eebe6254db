//! Validation behavior of the centralized `GNNUNLOCK_*` knob parser:
//! malformed values warn (counted by `knob_warnings`) and fall back to
//! defaults instead of being silently ignored.
//!
//! Kept in its OWN test binary with a single test fn: it mutates the
//! process environment, and concurrent setenv/getenv from sibling test
//! threads is undefined behavior on glibc. Here there are no sibling
//! threads.

use gnnunlock::engine::{
    apply_telemetry_env, backend_from_env, cache_budget_from_env, default_workers, knob_warnings,
    telemetry_enabled_from_env, trace_out_from_env, JobGraph, JobKind, JobValue, ShardConfig,
};
use gnnunlock::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn malformed_knobs_warn_and_fall_back() {
    // --- cache budget: malformed -> warn + disabled, valid -> parsed.
    let warnings_before = knob_warnings();
    std::env::set_var("GNNUNLOCK_CACHE_BUDGET_BYTES", "10gb");
    assert_eq!(cache_budget_from_env(), None);
    assert_eq!(
        knob_warnings(),
        warnings_before + 1,
        "a malformed budget must warn"
    );
    std::env::set_var("GNNUNLOCK_CACHE_BUDGET_BYTES", " 4096 ");
    assert_eq!(cache_budget_from_env(), Some(4096));
    std::env::remove_var("GNNUNLOCK_CACHE_BUDGET_BYTES");
    assert_eq!(cache_budget_from_env(), None);

    // --- workers: zero is invalid -> warn + fall back to a sane count.
    let warnings_before = knob_warnings();
    std::env::set_var("GNNUNLOCK_WORKERS", "0");
    assert!(default_workers() >= 1);
    assert_eq!(knob_warnings(), warnings_before + 1);
    std::env::set_var("GNNUNLOCK_WORKERS", "3");
    assert_eq!(default_workers(), 3);
    std::env::remove_var("GNNUNLOCK_WORKERS");

    // --- lease TTL: malformed and zero fall back to the 30 s default.
    let warnings_before = knob_warnings();
    std::env::set_var("GNNUNLOCK_LEASE_TTL_MS", "soon");
    assert_eq!(ShardConfig::from_env().lease_ttl, Duration::from_secs(30));
    std::env::set_var("GNNUNLOCK_LEASE_TTL_MS", "0");
    assert_eq!(ShardConfig::from_env().lease_ttl, Duration::from_secs(30));
    assert_eq!(knob_warnings(), warnings_before + 2);
    std::env::set_var("GNNUNLOCK_LEASE_TTL_MS", "250");
    let cfg = ShardConfig::from_env();
    assert_eq!(cfg.lease_ttl, Duration::from_millis(250));
    std::env::remove_var("GNNUNLOCK_LEASE_TTL_MS");

    // --- shard id: unset defaults to a pid-derived identity.
    std::env::remove_var("GNNUNLOCK_SHARD_ID");
    assert!(ShardConfig::from_env().shard_id.starts_with("pid-"));
    std::env::set_var("GNNUNLOCK_SHARD_ID", "worker-9");
    assert_eq!(ShardConfig::from_env().shard_id, "worker-9");
    std::env::remove_var("GNNUNLOCK_SHARD_ID");

    // --- stage budget: drives the over_budget mark in stage
    // summaries; negative values are invalid and warn.
    let run_one = || {
        let mut g = JobGraph::new();
        g.add("slow", JobKind::Train, None, vec![], |_| {
            std::thread::sleep(Duration::from_millis(3));
            Ok(Arc::new(0u64) as JobValue)
        });
        Executor::new(ExecConfig::with_workers(1)).run(g)
    };
    std::env::set_var("GNNUNLOCK_STAGE_BUDGET_MS", "0");
    let out = run_one();
    assert!(
        out.stage_summaries().iter().all(|s| s.over_budget),
        "a 3 ms stage must exceed a 0 ms budget"
    );
    let warnings_before = knob_warnings();
    std::env::set_var("GNNUNLOCK_STAGE_BUDGET_MS", "-5");
    let out = run_one();
    assert!(
        out.stage_summaries().iter().all(|s| !s.over_budget),
        "an invalid budget must behave like no budget"
    );
    assert_eq!(knob_warnings(), warnings_before + 1);
    std::env::remove_var("GNNUNLOCK_STAGE_BUDGET_MS");
    let out = run_one();
    assert!(out.stage_summaries().iter().all(|s| !s.over_budget));

    // --- telemetry switch: `off`/`0`/`false` (case-insensitive)
    // disable, anything else — including unset — keeps telemetry on.
    for off in ["off", "OFF", "0", "false", " False "] {
        std::env::set_var("GNNUNLOCK_TELEMETRY", off);
        assert!(!telemetry_enabled_from_env(), "{off:?} must disable");
    }
    for on in ["1", "on", "yes", "anything"] {
        std::env::set_var("GNNUNLOCK_TELEMETRY", on);
        assert!(telemetry_enabled_from_env(), "{on:?} must stay enabled");
    }
    std::env::remove_var("GNNUNLOCK_TELEMETRY");
    assert!(telemetry_enabled_from_env(), "unset defaults to enabled");
    // Applying the (unset) knob flips the process switch back on for
    // the rest of this binary.
    apply_telemetry_env();

    // --- store retry policy: malformed or non-positive values warn
    // and fall back to the documented defaults (4 attempts, 10 ms
    // base, 30 s deadline, seed 0x5EED); valid values are parsed.
    use gnnunlock::engine::resilience::{HealthTracker, RetryPolicy};
    let defaults = RetryPolicy::default();
    let warnings_before = knob_warnings();
    std::env::set_var("GNNUNLOCK_STORE_RETRY_ATTEMPTS", "0");
    std::env::set_var("GNNUNLOCK_STORE_RETRY_BASE_MS", "fast");
    std::env::set_var("GNNUNLOCK_STORE_RETRY_DEADLINE_MS", "-1");
    std::env::set_var("GNNUNLOCK_STORE_RETRY_JITTER_SEED", "coin-flip");
    let policy = RetryPolicy::from_env();
    assert_eq!(policy.attempts, defaults.attempts);
    assert_eq!(policy.base, defaults.base);
    assert_eq!(policy.deadline, defaults.deadline);
    assert_eq!(policy.jitter_seed, defaults.jitter_seed);
    assert_eq!(
        knob_warnings(),
        warnings_before + 4,
        "each malformed retry knob must warn once"
    );
    std::env::set_var("GNNUNLOCK_STORE_RETRY_ATTEMPTS", "7");
    std::env::set_var("GNNUNLOCK_STORE_RETRY_BASE_MS", "25");
    std::env::set_var("GNNUNLOCK_STORE_RETRY_DEADLINE_MS", "5000");
    std::env::set_var("GNNUNLOCK_STORE_RETRY_JITTER_SEED", "42");
    let policy = RetryPolicy::from_env();
    assert_eq!(policy.attempts, 7);
    assert_eq!(policy.base, Duration::from_millis(25));
    assert_eq!(policy.deadline, Duration::from_millis(5000));
    assert_eq!(policy.jitter_seed, 42);
    for knob in [
        "GNNUNLOCK_STORE_RETRY_ATTEMPTS",
        "GNNUNLOCK_STORE_RETRY_BASE_MS",
        "GNNUNLOCK_STORE_RETRY_DEADLINE_MS",
        "GNNUNLOCK_STORE_RETRY_JITTER_SEED",
    ] {
        std::env::remove_var(knob);
    }
    assert_eq!(RetryPolicy::from_env().attempts, defaults.attempts);

    // --- store circuit breaker: zero thresholds are invalid -> warn +
    // defaults (trip after 3, probe every 8th rejection).
    let warnings_before = knob_warnings();
    std::env::set_var("GNNUNLOCK_STORE_BREAKER_THRESHOLD", "0");
    std::env::set_var("GNNUNLOCK_STORE_BREAKER_PROBE_EVERY", "often");
    let breaker = HealthTracker::from_env();
    assert_eq!(breaker.threshold(), 3);
    assert_eq!(breaker.probe_every(), 8);
    assert_eq!(knob_warnings(), warnings_before + 2);
    std::env::set_var("GNNUNLOCK_STORE_BREAKER_THRESHOLD", "5");
    std::env::set_var("GNNUNLOCK_STORE_BREAKER_PROBE_EVERY", "2");
    let breaker = HealthTracker::from_env();
    assert_eq!(breaker.threshold(), 5);
    assert_eq!(breaker.probe_every(), 2);
    std::env::remove_var("GNNUNLOCK_STORE_BREAKER_THRESHOLD");
    std::env::remove_var("GNNUNLOCK_STORE_BREAKER_PROBE_EVERY");

    // --- store backend: `local` and `object` are the two substrates;
    // the retired `memory` value warns and falls back to `local`.
    let root = Path::new("/virtual/knob-validation");
    let warnings_before = knob_warnings();
    std::env::set_var("GNNUNLOCK_STORE_BACKEND", "memory");
    assert_eq!(backend_from_env(root).name(), "local");
    assert_eq!(knob_warnings(), warnings_before + 1, "`memory` must warn");
    std::env::set_var("GNNUNLOCK_STORE_BACKEND", "object");
    assert_eq!(backend_from_env(root).name(), "object");
    std::env::remove_var("GNNUNLOCK_STORE_BACKEND");
    assert_eq!(backend_from_env(root).name(), "local");

    // --- trace output override: a plain path pass-through.
    std::env::remove_var("GNNUNLOCK_TRACE_OUT");
    assert_eq!(trace_out_from_env(), None);
    std::env::set_var("GNNUNLOCK_TRACE_OUT", "/tmp/my-trace.json");
    assert_eq!(
        trace_out_from_env(),
        Some(PathBuf::from("/tmp/my-trace.json"))
    );
    std::env::remove_var("GNNUNLOCK_TRACE_OUT");
    assert_eq!(trace_out_from_env(), None);
}
