//! Deterministic retry / timeout / degradation layer around every
//! [`StoreBackend`].
//!
//! [`crate::DiskStore::open_with_backend`] wraps whatever backend it is
//! handed in a [`ResilientBackend`], so the policy below applies
//! uniformly to [`crate::LocalDirBackend`], to the fault decorator over
//! it, and to any other implementation of the trait:
//!
//! - **[`RetryPolicy`]** — transient failures ([`io::ErrorKind::WouldBlock`],
//!   `Interrupted`, `TimedOut`) retry with exponential backoff and
//!   seeded jitter. The backoff schedule is a pure function of the
//!   policy and the attempt number — same policy, same waits, at any
//!   worker count — and every pause goes through
//!   [`StoreBackend::backoff_wait`], so the fault decorator charges a
//!   virtual clock instead of sleeping. A per-op deadline bounds the
//!   total (virtual) pause budget. Stores use
//!   [`RetryPolicy::default`]; tests pass their own through
//!   [`ResilientBackend::with_policy`].
//! - **[`HealthTracker`]** — a consecutive-failure circuit breaker.
//!   Only *exhausted* retries count as failures (verdict errors like
//!   `AlreadyExists` or `NotFound` prove the service is answering);
//!   after 3 of them the breaker trips open and operations fail fast
//!   with a `store-degraded` error instead of hammering a dead
//!   substrate. While open, every 8th rejected operation is admitted
//!   as a half-open probe; one probe success closes the breaker.
//! - **Publish spill queue** — publishes are content-addressed and
//!   idempotent, so ones that fail degraded/exhausted are buffered (up
//!   to [`SPILL_CAP`] entries) and replayed after the next successful
//!   operation — cache writes lost to an outage heal on recovery.
//!
//! Degradation is surfaced, never hidden: the failed operation still
//! errors (callers decide whether persistence was best-effort), shard
//! bodies convert a degraded store into a clean `store-degraded` stage
//! error instead of polling forever, and the daemon records the backend
//! error in the campaign's status file.

use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime};

use crate::backend::{is_transient_kind, FileMeta, StoreBackend};
use crate::metrics;

/// Marker prefix of every fail-fast error emitted while the breaker is
/// open — what shard bodies and the daemon grep for.
pub const DEGRADED_PREFIX: &str = "store-degraded";

/// Bound on the publish spill queue (entries, not bytes — entries are
/// small cache payloads; overflow drops the *newest* publish and counts
/// it, so the queue never reorders).
pub const SPILL_CAP: usize = 256;

/// A fail-fast error for an operation rejected by an open breaker.
pub fn degraded_error(backend: &str, op: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::ConnectionRefused,
        format!("{DEGRADED_PREFIX}: {backend} backend circuit breaker is open ({op} rejected)"),
    )
}

/// Whether `e` is the resilience layer's fail-fast degradation error —
/// a *store* verdict, not an entry verdict: loads treat it as a miss
/// without evicting, shard bodies fail the job cleanly.
pub fn is_degraded(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::ConnectionRefused && e.to_string().starts_with(DEGRADED_PREFIX)
}

/// Deterministic exponential backoff with seeded jitter, attempt caps
/// and a per-op deadline. Stores run under [`RetryPolicy::default`]:
/// 4 attempts, a 10 ms first pause, a 30 s deadline and jitter seed
/// `0x5EED`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts per operation (>= 1).
    pub attempts: u32,
    /// First backoff pause; attempt `n` waits `base * 2^(n-1)` scaled
    /// by jitter.
    pub base: Duration,
    /// Budget for the sum of pauses of one operation.
    pub deadline: Duration,
    /// Jitter seed: the pause for attempt `n` is a pure function of
    /// `(seed, n)`.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base: Duration::from_millis(10),
            deadline: Duration::from_secs(30),
            jitter_seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// The pause before retry attempt `attempt + 1` (1-based): the
    /// exponential step `base * 2^(attempt-1)` scaled into [50%, 100%]
    /// by jitter derived from `(jitter_seed, attempt)` alone.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(16);
        let full_us = (self.base.as_micros() as u64).saturating_mul(1u64 << shift);
        let mut x = self
            .jitter_seed
            .wrapping_add((attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        let frac = x % 513; // 0..=512
        Duration::from_micros(full_us / 2 + (full_us / 2) * frac / 512)
    }

    /// Run `body` under this policy: transient failures retry (pausing
    /// through `backend`'s clock) until they succeed, a verdict error
    /// occurs, attempts run out, or the summed pauses would exceed the
    /// deadline. Retries and pauses are counted into
    /// `store_retries_total{op}` / `store_backoff_ms`.
    pub fn run<T>(
        &self,
        backend: &dyn StoreBackend,
        op: &'static str,
        mut body: impl FnMut() -> io::Result<T>,
    ) -> io::Result<T> {
        let mut waited = Duration::ZERO;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match body() {
                Ok(v) => return Ok(v),
                Err(e) if is_transient_kind(e.kind()) && attempt < self.attempts.max(1) => {
                    let pause = self.backoff(attempt);
                    if waited + pause > self.deadline {
                        return Err(io::Error::new(
                            e.kind(),
                            format!(
                                "{op}: retry deadline exceeded after {attempt} attempts \
                                 ({} ms budget): {e}",
                                self.deadline.as_millis()
                            ),
                        ));
                    }
                    waited += pause;
                    metrics::store_retry(op).inc();
                    metrics::store_backoff_ms().observe(pause.as_secs_f64() * 1e3);
                    backend.backoff_wait(pause);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Circuit-breaker state, in the order the `store_breaker_state` gauge
/// reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every operation admitted.
    Closed = 0,
    /// A probe is in flight; other operations rejected.
    HalfOpen = 1,
    /// Tripped: operations fail fast, probes admitted periodically.
    Open = 2,
}

#[derive(Debug)]
struct HealthInner {
    state: BreakerState,
    consecutive_failures: u32,
    rejected_since_probe: u32,
    trips: u64,
}

/// Per-backend consecutive-failure circuit breaker with half-open
/// probes. Deliberately clock-free: "time open" is measured in rejected
/// operations, not seconds, so the breaker matrix is as deterministic
/// as the retry matrix.
#[derive(Debug)]
pub struct HealthTracker {
    threshold: u32,
    probe_every: u32,
    inner: Mutex<HealthInner>,
}

impl HealthTracker {
    /// A breaker tripping after `threshold` consecutive failures and
    /// probing every `probe_every`-th rejected operation.
    pub fn new(threshold: u32, probe_every: u32) -> Self {
        HealthTracker {
            threshold: threshold.max(1),
            probe_every: probe_every.max(1),
            inner: Mutex::new(HealthInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                rejected_since_probe: 0,
                trips: 0,
            }),
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.inner.lock().unwrap().state
    }

    /// How many times the breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.inner.lock().unwrap().trips
    }

    /// Admission decision for the next operation: `true` = run it
    /// (possibly as the half-open probe), `false` = fail fast.
    pub fn admit(&self) -> bool {
        let mut inner = self.inner.lock().unwrap();
        match inner.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => false,
            BreakerState::Open => {
                inner.rejected_since_probe += 1;
                if inner.rejected_since_probe >= self.probe_every {
                    inner.rejected_since_probe = 0;
                    inner.state = BreakerState::HalfOpen;
                    metrics::store_breaker_state().set(BreakerState::HalfOpen as i64);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Report an admitted operation's outcome. `healthy` means the
    /// service answered (success *or* a verdict error); only exhausted
    /// retries report `false`.
    pub fn record(&self, healthy: bool) {
        let mut inner = self.inner.lock().unwrap();
        match (inner.state, healthy) {
            (BreakerState::HalfOpen, true) | (BreakerState::Closed, true) => {
                if inner.state == BreakerState::HalfOpen {
                    metrics::store_breaker_state().set(BreakerState::Closed as i64);
                }
                inner.state = BreakerState::Closed;
                inner.consecutive_failures = 0;
            }
            (BreakerState::HalfOpen, false) => {
                inner.state = BreakerState::Open;
                metrics::store_breaker_state().set(BreakerState::Open as i64);
            }
            (BreakerState::Closed, false) => {
                inner.consecutive_failures += 1;
                if inner.consecutive_failures >= self.threshold {
                    inner.state = BreakerState::Open;
                    inner.trips += 1;
                    metrics::store_breaker_state().set(BreakerState::Open as i64);
                }
            }
            (BreakerState::Open, _) => {}
        }
    }
}

/// A [`StoreBackend`] wrapping another with the retry policy, circuit
/// breaker and publish spill queue described in the [module
/// docs](self). Constructed by [`crate::DiskStore::open_with_backend`]
/// around every backend it is handed.
#[derive(Debug)]
pub struct ResilientBackend {
    inner: Arc<dyn StoreBackend>,
    policy: RetryPolicy,
    health: HealthTracker,
    spill: Mutex<VecDeque<(PathBuf, Vec<u8>)>>,
}

impl ResilientBackend {
    /// Wrap `inner` with the default policy and a breaker tripping
    /// after 3 consecutive failures and probing every 8th rejection.
    pub fn wrap(inner: Arc<dyn StoreBackend>) -> Arc<Self> {
        ResilientBackend::with_policy(inner, RetryPolicy::default(), HealthTracker::new(3, 8))
    }

    /// Wrap `inner` with an explicit policy and breaker.
    pub fn with_policy(
        inner: Arc<dyn StoreBackend>,
        policy: RetryPolicy,
        health: HealthTracker,
    ) -> Arc<Self> {
        Arc::new(ResilientBackend {
            inner,
            policy,
            health,
            spill: Mutex::new(VecDeque::new()),
        })
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &Arc<dyn StoreBackend> {
        &self.inner
    }

    /// The breaker guarding the wrapped backend.
    pub fn health(&self) -> &HealthTracker {
        &self.health
    }

    /// Publishes currently buffered for replay.
    pub fn spilled(&self) -> usize {
        self.spill.lock().unwrap().len()
    }

    fn guarded<T>(&self, op: &'static str, body: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        if !self.health.admit() {
            return Err(degraded_error(self.inner.name(), op));
        }
        let out = self.policy.run(self.inner.as_ref(), op, body);
        // Exhausted retries (still-transient error) are the only
        // unhealthy outcome; a verdict error proves the service
        // answered.
        let healthy = !matches!(&out, Err(e) if is_transient_kind(e.kind()));
        self.health.record(healthy);
        if healthy {
            self.drain_spill();
        }
        out
    }

    /// Replay buffered publishes until the queue is empty or the
    /// backend fails again. Publishes are content-addressed, so a late
    /// replay of an entry that was since republished is a no-op
    /// overwrite with identical bytes.
    fn drain_spill(&self) {
        loop {
            let Some((path, bytes)) = self.spill.lock().unwrap().pop_front() else {
                return;
            };
            match self.policy.run(self.inner.as_ref(), "spill_drain", || {
                self.inner.publish(&path, &bytes)
            }) {
                Ok(()) => metrics::store_event("spill_drained").inc(),
                Err(_) => {
                    self.spill.lock().unwrap().push_front((path, bytes));
                    return;
                }
            }
        }
    }
}

impl StoreBackend for ResilientBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn ensure_dir(&self, dir: &Path) -> io::Result<()> {
        self.guarded("ensure_dir", || self.inner.ensure_dir(dir))
    }

    fn publish(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let out = self.guarded("publish", || self.inner.publish(path, bytes));
        if let Err(e) = &out {
            if is_degraded(e) || is_transient_kind(e.kind()) {
                let mut spill = self.spill.lock().unwrap();
                if spill.len() < SPILL_CAP {
                    spill.push_back((path.to_path_buf(), bytes.to_vec()));
                    metrics::store_event("spilled").inc();
                } else {
                    metrics::store_event("spill_dropped").inc();
                }
            }
        }
        out
    }

    fn claim(&self, path: &Path, content: &[u8]) -> io::Result<()> {
        self.guarded("claim", || self.inner.claim(path, content))
    }

    fn entomb(&self, path: &Path, tomb: &Path) -> io::Result<()> {
        self.guarded("entomb", || self.inner.entomb(path, tomb))
    }

    fn load(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.guarded("load", || self.inner.load(path))
    }

    fn contains(&self, path: &Path) -> bool {
        self.inner.contains(path)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.guarded("remove", || self.inner.remove(path))
    }

    fn refresh(&self, path: &Path) -> io::Result<()> {
        self.guarded("refresh", || self.inner.refresh(path))
    }

    fn mtime(&self, path: &Path) -> io::Result<SystemTime> {
        self.guarded("mtime", || self.inner.mtime(path))
    }

    fn list(&self, dir: &Path, recursive: bool) -> io::Result<Vec<FileMeta>> {
        self.guarded("list", || self.inner.list(dir, recursive))
    }

    fn backoff_wait(&self, pause: Duration) {
        self.inner.backoff_wait(pause);
    }

    fn degraded(&self) -> bool {
        self.health.state() == BreakerState::Open
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{Fault, FaultOp, FaultRule, Faulty, TempDir};
    use crate::LocalDirBackend;

    fn policy() -> RetryPolicy {
        RetryPolicy::default()
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_jittered() {
        let p = policy();
        for attempt in 1..=6 {
            assert_eq!(p.backoff(attempt), p.backoff(attempt), "pure function");
            let full = p.base * 2u32.pow(attempt - 1);
            assert!(p.backoff(attempt) >= full / 2 && p.backoff(attempt) <= full);
        }
        let other = RetryPolicy {
            jitter_seed: 99,
            ..policy()
        };
        assert!(
            (1..=6).any(|a| other.backoff(a) != p.backoff(a)),
            "different seeds must jitter differently"
        );
    }

    #[test]
    fn transient_errors_retry_timing_free_until_success() {
        let root = TempDir::new("retry-transient");
        let b = Arc::new(Faulty::new(LocalDirBackend::new()));
        b.inject(FaultRule::on(FaultOp::Load, ".bin", Fault::Transient));
        b.inject(FaultRule::on(FaultOp::Load, ".bin", Fault::Latency(5)).after(1));
        let path = root.join("x.bin");
        b.publish(&path, b"payload").unwrap();
        let got = policy()
            .run(&*b, "load", || b.load(&path))
            .expect("two transients inside a 4-attempt budget");
        assert_eq!(got, b"payload");
        // Two pauses were charged to the virtual clock, not slept.
        assert!(b.virtual_waited() >= Duration::from_millis(5));
    }

    #[test]
    fn verdict_errors_are_never_retried() {
        let root = TempDir::new("retry-verdict");
        let b = Arc::new(Faulty::new(LocalDirBackend::new()));
        let path = root.join("x.lease");
        b.claim(&path, b"mine").unwrap();
        let mut calls = 0;
        let err = policy()
            .run(&*b, "claim", || {
                calls += 1;
                b.claim(&path, b"theirs")
            })
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        assert_eq!(calls, 1, "a verdict is not a transient failure");
    }

    #[test]
    fn deadline_bounds_the_summed_pauses() {
        let root = TempDir::new("retry-deadline");
        let b = Arc::new(Faulty::new(LocalDirBackend::new()));
        for i in 0..8 {
            b.inject(FaultRule::on(FaultOp::Load, "", Fault::Transient).after(i));
        }
        let path = root.join("x");
        b.publish(&path, b"p").unwrap();
        let tight = RetryPolicy {
            attempts: 8,
            base: Duration::from_millis(10),
            deadline: Duration::from_millis(12),
            ..policy()
        };
        let err = tight.run(&*b, "load", || b.load(&path)).unwrap_err();
        assert!(is_transient_kind(err.kind()));
        assert!(err.to_string().contains("deadline exceeded"), "got: {err}");
        assert!(b.virtual_waited() <= Duration::from_millis(12));
    }

    #[test]
    fn breaker_trips_after_threshold_and_recovers_via_probe() {
        let h = HealthTracker::new(2, 3);
        assert_eq!(h.state(), BreakerState::Closed);
        assert!(h.admit());
        h.record(false);
        assert_eq!(h.state(), BreakerState::Closed, "one failure is not enough");
        assert!(h.admit());
        h.record(false);
        assert_eq!(h.state(), BreakerState::Open);
        assert_eq!(h.trips(), 1);
        // Two rejections, then the third admission is the probe.
        assert!(!h.admit());
        assert!(!h.admit());
        assert!(h.admit(), "every 3rd rejected op probes");
        assert_eq!(h.state(), BreakerState::HalfOpen);
        assert!(!h.admit(), "only one probe in flight");
        h.record(true);
        assert_eq!(h.state(), BreakerState::Closed);
        // A healthy verdict resets the failure streak.
        h.record(false);
        h.record(true);
        h.record(false);
        assert_eq!(h.state(), BreakerState::Closed);
    }

    #[test]
    fn degraded_backend_fails_fast_and_spills_publishes() {
        let root = TempDir::new("degraded");
        let inner = Arc::new(Faulty::new(LocalDirBackend::new()));
        // A long outage: every gated operation times out.
        inner.inject(FaultRule::on(
            FaultOp::Load,
            "",
            Fault::Unavailable(usize::MAX),
        ));
        let wrapped = ResilientBackend::with_policy(
            inner.clone(),
            RetryPolicy {
                attempts: 2,
                ..policy()
            },
            HealthTracker::new(2, 4),
        );
        let entry = root.join("x.bin");
        // Two exhausted loads trip the breaker...
        assert!(wrapped.load(&root.join("a")).is_err());
        assert!(wrapped.load(&root.join("b")).is_err());
        assert!(wrapped.degraded());
        // ...after which operations fail fast with the degraded marker
        // and publishes are buffered for replay.
        let err = wrapped.publish(&entry, b"payload").unwrap_err();
        assert!(is_degraded(&err), "got: {err}");
        assert_eq!(wrapped.spilled(), 1);
        assert!(!inner.contains(&entry));
        // Recovery: the outage ends; the 4th rejected op probes, the
        // probe succeeds, the breaker closes, and the spill drains.
        inner.clear_rules();
        let mut attempts = 0;
        while wrapped.degraded() && attempts < 16 {
            let _ = wrapped.load(&entry);
            attempts += 1;
        }
        assert!(!wrapped.degraded(), "breaker must close after a probe");
        assert_eq!(wrapped.spilled(), 0, "spill drains on recovery");
        assert_eq!(inner.load(&entry).unwrap(), b"payload");
        // All of the above ran timing-free.
        assert_eq!(wrapped.health().trips(), 1, "one trip for the whole outage");
    }
}
