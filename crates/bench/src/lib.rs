//! Shared harness utilities for the table-reproduction binaries, and
//! the trace validator ([`perf::validate_trace_doc`]) that the
//! repository benchmark (`perfbench/`) checks its traces with.
//!
//! Every binary accepts the same environment knobs so the experiments can
//! be run anywhere on the laptop-scale ↔ paper-scale axis:
//!
//! | Variable | Default | Meaning |
//! |---|---|---|
//! | `GNNUNLOCK_SCALE` | `0.05` | benchmark size multiplier (1.0 = paper-size circuits) |
//! | `GNNUNLOCK_EPOCHS` | `400` | max training epochs per target |
//! | `GNNUNLOCK_HIDDEN` | `96` | GraphSAGE hidden width (paper: 512) |
//! | `GNNUNLOCK_ROOTS` | `1000` | GraphSAINT walk roots (paper: 3000) |
//! | `GNNUNLOCK_FULL` | unset | set to `1` to attack every benchmark instead of a representative subset |
//! | `GNNUNLOCK_WORKERS` | #cpus | engine worker threads (affects wall-clock only, never results) |
//! | `GNNUNLOCK_CACHE_DIR` | unset | persistent result-cache directory; repeated/parallel invocations skip completed work (never changes results) |
//! | `GNNUNLOCK_CACHE_BUDGET_BYTES` | unset | cache-size budget: after each run, least-recently-used store entries are evicted down to this many bytes (this run's entries are never evicted) |
//! | `GNNUNLOCK_EVENTS` | unset | stream per-job JSONL events to this file while the binary runs |
//! | `GNNUNLOCK_CKPT_EPOCHS` | `50` | training epochs per resumable `train-epoch` checkpoint job (granularity only, never results) |
//! | `GNNUNLOCK_SHARD_ID` | `pid-<pid>` | this worker's shard identity for sharded campaign runs (lease owner + per-shard event log) |
//! | `GNNUNLOCK_LEASE_TTL_MS` | `30000` | staleness TTL of job leases: a `kill -9`'d shard's jobs are re-claimed by survivors after this long |
//! | `GNNUNLOCK_STAGE_BUDGET_MS` | unset | per-stage wall-clock budget; over-budget stages are marked in stage summaries (observability only) |
//! | `GNNUNLOCK_TRACE_OUT` | unset | override path for a persistent run's Chrome-trace timeline (default: `trace.json` beside the event log) |
//! | `GNNUNLOCK_TELEMETRY` | on | set to `off` to disable the metrics registry and span recording process-wide |
//!
//! Malformed knob values are never silently ignored: the engine's
//! centralized parser warns on stderr and falls back to the default.

use gnnunlock_core::{AttackConfig, AttackOutcome};
use gnnunlock_engine::{ExecConfig, Executor};
use gnnunlock_gnn::{SaintConfig, TrainConfig};

pub mod perf;

/// Benchmark scale factor from the environment.
pub fn scale() -> f64 {
    env_f64("GNNUNLOCK_SCALE", 0.05)
}

/// Whether to run the full (every-benchmark) sweep.
pub fn full_sweep() -> bool {
    std::env::var("GNNUNLOCK_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Engine worker count (`GNNUNLOCK_WORKERS`, default: available
/// parallelism). Parallelism never changes results — only wall-clock.
pub fn workers() -> usize {
    gnnunlock_engine::default_workers()
}

/// The executor every table binary routes its engine jobs through:
/// [`workers()`] threads, plus — when `GNNUNLOCK_CACHE_DIR` /
/// `GNNUNLOCK_EVENTS` are set — a disk-backed result cache shared
/// across invocations and a streaming JSONL event log. Neither knob
/// ever changes results, only where they come from and what is
/// observable while they compute.
///
/// Misconfigured persistence (unwritable directory, schema-version
/// mismatch) aborts with the underlying error rather than silently
/// running uncached.
pub fn executor() -> Executor {
    match gnnunlock_core::executor_from_env(ExecConfig::with_workers(workers())) {
        Ok(executor) => {
            if let Some(dir) = gnnunlock_core::cache_dir_from_env() {
                eprintln!("[gnnunlock] result cache: {}", dir.display());
            }
            if let Some(path) = gnnunlock_core::events_path_from_env() {
                eprintln!("[gnnunlock] event log:    {}", path.display());
            }
            executor
        }
        Err(e) => panic!("persistence knobs misconfigured: {e}"),
    }
}

/// Print a one-line cache summary after a run when a persistent cache
/// is active (how much work the shared directory saved), then enforce
/// the `GNNUNLOCK_CACHE_BUDGET_BYTES` size budget: least-recently-used
/// store entries are garbage-collected down to the budget, never
/// touching entries this run produced or consumed.
pub fn print_cache_summary(executor: &Executor) {
    if let Some(store) = executor.cache().store() {
        let cache = executor.cache().stats();
        let disk = store.stats();
        eprintln!(
            "[gnnunlock] cache: {} memory hits, {} disk hits, {} misses; \
             store: {} saved, {} evicted-corrupt",
            cache.hits, cache.disk_hits, cache.misses, disk.saves, disk.evictions
        );
        if let Some(gc) = store.gc_from_env() {
            eprintln!(
                "[gnnunlock] cache gc: {} -> {} bytes ({} entries evicted, {} live kept)",
                gc.bytes_before, gc.bytes_after, gc.evicted_entries, gc.live_protected
            );
        }
    }
}

/// Attack configuration from the environment knobs.
pub fn attack_config() -> AttackConfig {
    AttackConfig {
        train: TrainConfig {
            epochs: env_usize("GNNUNLOCK_EPOCHS", 400),
            hidden: env_usize("GNNUNLOCK_HIDDEN", 96),
            eval_every: 10,
            patience: 15,
            saint: SaintConfig {
                roots: env_usize("GNNUNLOCK_ROOTS", 1000),
                walk_length: 2,
                estimation_rounds: 8,
                seed: 11,
            },
            class_weighting: false,
            ..TrainConfig::default()
        },
        checkpoint_epochs: env_usize("GNNUNLOCK_CKPT_EPOCHS", 50).max(1),
        ..AttackConfig::default()
    }
}

// Knob parsing is centralized in the engine's `env` module, which
// warns on malformed values instead of silently running with defaults.
fn env_f64(name: &str, default: f64) -> f64 {
    gnnunlock_engine::knob_or(name, "a number", default)
}

fn env_usize(name: &str, default: usize) -> usize {
    gnnunlock_engine::knob_or(name, "a non-negative integer", default)
}

/// Percentage formatting matching the paper's tables.
pub fn pct(x: f64) -> String {
    format!("{:.2}", x * 100.0)
}

/// Render one Table IV/V-style row terminator for an outcome.
pub fn removal_pct(outcome: &AttackOutcome) -> String {
    pct(outcome.removal_success_rate())
}

/// Print a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = attack_config();
        assert!(cfg.train.epochs >= 1);
        assert!(cfg.train.hidden >= 8);
        assert!(scale() > 0.0);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(1.0), "100.00");
        assert_eq!(pct(0.99245), "99.25");
    }
}
