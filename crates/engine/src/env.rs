//! Centralized `GNNUNLOCK_*` environment-knob parsing.
//!
//! Every knob the engine (and the crates built on it) reads goes through
//! this module, so parsing, validation and diagnostics live in one
//! place: a knob that is *unset* silently yields its default, while a
//! knob that is *set but malformed* prints one warning to stderr and
//! then falls back — a typo'd `GNNUNLOCK_CACHE_BUDGET_BYTES=10gb` must
//! be visible, not a silent no-op ([`knob_warnings`] counts the
//! fallbacks so tests can assert them).
//!
//! The engine-owned knob names live next to their subsystems
//! ([`crate::CACHE_DIR_ENV`], [`crate::CACHE_BUDGET_ENV`],
//! [`crate::EVENTS_ENV`], [`crate::WORKERS_ENV`]); the distribution
//! knobs introduced with sharded execution are declared here.

use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Environment variable naming this worker process's shard id (lease
/// owner + per-shard event-log name). Default: `pid-<pid>`.
pub const SHARD_ID_ENV: &str = "GNNUNLOCK_SHARD_ID";

/// Environment variable naming the tenant namespace a worker's store
/// entries and leases live under (`tenants/<ns>/objects/` inside the
/// cache dir — see [`crate::DiskStore::open_namespaced`]). Unset or
/// blank: the shared default namespace. External shard workers set this
/// to cohabit a `gnnunlockd` tenant's campaign.
pub const TENANT_ENV: &str = "GNNUNLOCK_TENANT";

/// The tenant namespace named by [`TENANT_ENV`], if set and non-blank.
pub fn tenant_from_env() -> Option<String> {
    std::env::var(TENANT_ENV)
        .ok()
        .map(|v| v.trim().to_string())
        .filter(|v| !v.is_empty())
}

/// Environment variable setting the lease time-to-live in milliseconds:
/// a lease not heartbeated for this long counts as stale and may be
/// taken over by another shard. Default: 30000 (30 s). Must be ≥ 1.
pub const LEASE_TTL_ENV: &str = "GNNUNLOCK_LEASE_TTL_MS";

/// Environment variable setting the per-stage wall-clock budget in
/// milliseconds: a stage whose summed execution time exceeds it is
/// marked `over_budget` in the stage-summary event and the timing
/// report section. Observability only — nothing is killed. Unset = no
/// budget.
pub const STAGE_BUDGET_ENV: &str = "GNNUNLOCK_STAGE_BUDGET_MS";

/// Environment variable overriding where a persistent campaign run
/// writes its Chrome `trace_event` timeline JSON. Unset = `trace.json`
/// beside the run's event log (`trace-<shard>.json` for sharded
/// workers); set to a path = write there instead. The trace is timing
/// data — volatile by design — and never feeds the deterministic report.
pub const TRACE_OUT_ENV: &str = "GNNUNLOCK_TRACE_OUT";

/// Environment variable switching telemetry recording off: `off`, `0`
/// or `false` (case-insensitive) disable every metric increment and
/// span recording in the process. Anything else (including unset) keeps
/// telemetry on — recording is cheap relaxed atomics and the default
/// reports are byte-identical either way.
pub const TELEMETRY_ENV: &str = "GNNUNLOCK_TELEMETRY";

/// The trace output path named by [`TRACE_OUT_ENV`], if set.
pub fn trace_out_from_env() -> Option<PathBuf> {
    knob_path(TRACE_OUT_ENV)
}

/// Whether [`TELEMETRY_ENV`] leaves telemetry enabled (the default).
pub fn telemetry_enabled_from_env() -> bool {
    match std::env::var(TELEMETRY_ENV) {
        Ok(v) => {
            let v = v.trim().to_ascii_lowercase();
            !(v == "off" || v == "0" || v == "false")
        }
        Err(_) => true,
    }
}

/// Apply [`TELEMETRY_ENV`] to the process-wide telemetry switch. Called
/// at the entry points that own a run (persistent campaign execution,
/// the daemon, the bench harness).
pub fn apply_telemetry_env() {
    gnnunlock_telemetry::set_enabled(telemetry_enabled_from_env());
}

static WARNINGS: AtomicUsize = AtomicUsize::new(0);

fn warn(name: &str, value: &str, expected: &str) {
    WARNINGS.fetch_add(1, Ordering::Relaxed);
    eprintln!("[gnnunlock] warning: ignoring {name}={value:?} ({expected} expected)");
}

/// How many malformed knob values this process has warned about and
/// ignored. Lets tests (and health checks) assert that a configuration
/// was fully honored.
pub fn knob_warnings() -> usize {
    WARNINGS.load(Ordering::Relaxed)
}

/// Parse the environment knob `name`. Unset (or empty) yields `None`
/// silently; a set-but-unparsable value warns on stderr (describing the
/// `expected` form) and yields `None`, so callers fall back to their
/// default visibly rather than silently.
pub fn knob<T: FromStr>(name: &str, expected: &str) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return None;
    }
    match trimmed.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            warn(name, &raw, expected);
            None
        }
    }
}

/// [`knob`] with an extra validity predicate: a value that parses but
/// fails `valid` (e.g. `GNNUNLOCK_WORKERS=0`) warns and yields `None`
/// exactly like a parse failure.
pub fn knob_validated<T: FromStr>(
    name: &str,
    expected: &str,
    valid: impl FnOnce(&T) -> bool,
) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return None;
    }
    match trimmed.parse() {
        Ok(v) if valid(&v) => Some(v),
        _ => {
            warn(name, &raw, expected);
            None
        }
    }
}

/// [`knob`] with a default for the unset / malformed cases.
pub fn knob_or<T: FromStr>(name: &str, expected: &str, default: T) -> T {
    knob(name, expected).unwrap_or(default)
}

/// A path-valued knob: unset or empty yields `None`. Paths are not
/// validated (existence is the consumer's concern — a store directory
/// is created on open).
pub fn knob_path(name: &str) -> Option<PathBuf> {
    std::env::var_os(name)
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
}

/// The per-stage wall-clock budget named by [`STAGE_BUDGET_ENV`], if
/// set and valid (finite, ≥ 0 milliseconds).
pub fn stage_budget_ms() -> Option<f64> {
    knob_validated(STAGE_BUDGET_ENV, "a budget in milliseconds", |b: &f64| {
        b.is_finite() && *b >= 0.0
    })
}

/// The lease time-to-live named by [`LEASE_TTL_ENV`], if set and valid
/// (a positive integer of milliseconds).
pub fn lease_ttl_from_env() -> Option<Duration> {
    knob_validated(LEASE_TTL_ENV, "positive milliseconds", |n: &u64| *n >= 1)
        .map(Duration::from_millis)
}

/// The shard id named by [`SHARD_ID_ENV`], defaulting to `pid-<pid>` —
/// unique per process on one machine, which is all the lease protocol
/// needs (ownership checks compare the full owner string plus the lease
/// generation).
pub fn shard_id_from_env() -> String {
    std::env::var(SHARD_ID_ENV)
        .ok()
        .map(|v| v.trim().to_string())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| format!("pid-{}", std::process::id()))
}

#[cfg(test)]
mod tests {
    // Parsing behavior that needs env mutation lives in the dedicated
    // single-threaded integration binary (tests/env_knob_validation.rs):
    // concurrent setenv/getenv from sibling test threads is UB on
    // glibc. Here only the env-independent surface is exercised.
    use super::*;

    #[test]
    fn unset_knobs_are_silent_defaults() {
        assert_eq!(
            knob_or::<u64>("GNNUNLOCK_TEST_UNSET_KNOB", "a number", 7),
            7
        );
        assert!(knob_path("GNNUNLOCK_TEST_UNSET_KNOB").is_none());
        assert!(!shard_id_from_env().is_empty());
    }
}
