//! Test support shared by the engine's own tests and every crate that
//! tests against it: the [`Faulty`] fault injector with its [`Fault`]
//! vocabulary, unique [`TempDir`]s, and the toy [`Echo`] campaign
//! runner with its [`StringCodec`]. No production path uses this module.
//!
//! [`Faulty`] decorates any [`StoreBackend`] — in the tests, the
//! [`crate::LocalDirBackend`] a real campaign persists through — and
//! applies a deterministic schedule of [`FaultRule`]s at the trait
//! boundary: crashed writers, torn reads and writes, NFS-style delayed
//! visibility, transient errors, latency, outage windows and slow reads.
//! Crash, torn and visibility faults are staged through the substrate's
//! own `publish`, `claim`, `entomb` and `load`, so a fault leaves behind
//! exactly the state that substrate would hold. Mtimes are back-dated
//! with [`Faulty::age`] instead of slept on, retry pauses are charged to
//! a virtual clock, and every gated operation is journaled — so the
//! crash/takeover matrix runs timing-free on a real directory.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::backend::{FileMeta, StoreBackend};
use crate::campaign::{CampaignRunner, StageJob};
use crate::codec::ValueCodec;
use crate::graph::{JobCtx, JobKind, JobOutput, JobValue};

/// The operation an injected fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// [`StoreBackend::publish`].
    Publish,
    /// [`StoreBackend::claim`].
    Claim,
    /// [`StoreBackend::entomb`].
    Entomb,
    /// [`StoreBackend::load`].
    Load,
    /// [`StoreBackend::refresh`].
    Refresh,
    /// [`StoreBackend::remove`].
    Remove,
}

impl FaultOp {
    /// Stable lowercase tag (journal / diagnostics).
    pub fn tag(&self) -> &'static str {
        match self {
            FaultOp::Publish => "publish",
            FaultOp::Claim => "claim",
            FaultOp::Entomb => "entomb",
            FaultOp::Load => "load",
            FaultOp::Refresh => "refresh",
            FaultOp::Remove => "remove",
        }
    }
}

/// The failure a matched [`FaultRule`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The writer died after staging its bytes but before the atomic
    /// rename: the final path is untouched, an orphaned `.tmp-crash-*`
    /// sibling is left behind, and the operation errors.
    CrashBeforeRename,
    /// The challenger died immediately after the tomb rename: the
    /// rename *is applied* (the lease is gone, the tomb exists), then
    /// the operation errors — the interrupted-takeover window.
    CrashAfterEntomb,
    /// The writer died (or a reader raced it) mid-write: the path holds
    /// only the first `n` bytes of the content. On `claim` the torn
    /// file *exists* (modeling the legacy create-new-then-write
    /// protocol and NFS partial visibility); on `publish` the torn
    /// bytes land in an orphaned temp sibling, never under the final
    /// name (publish is atomic).
    TornWrite(usize),
    /// The reader observed only the first `n` bytes — an NFS
    /// close-to-open cache serving a stale partial page.
    TornRead(usize),
    /// The path is reported absent for this one operation even though
    /// it exists — NFS close-to-open delayed visibility.
    Invisible,
    /// A spurious transient error ([`io::ErrorKind::WouldBlock`]); the
    /// operation has no effect and succeeds if retried.
    Transient,
    /// The service answered only after `ms` milliseconds — surfaced to
    /// the caller as [`io::ErrorKind::TimedOut`] (its patience ran out
    /// first) with the latency charged to the virtual clock, never
    /// slept. The operation has no effect and succeeds if retried.
    Latency(u64),
    /// A sustained outage: this operation fails with
    /// [`io::ErrorKind::TimedOut`] and opens a window in which the next
    /// `n` operations of any kind fail the same way — the schedule
    /// vocabulary for exercising retry exhaustion and the circuit
    /// breaker.
    Unavailable(usize),
    /// A degraded-but-correct replica: the read completes with the full
    /// bytes, but its slowness is charged to the virtual clock.
    SlowRead,
}

impl Fault {
    /// Stable lowercase tag (journal / diagnostics).
    pub fn tag(&self) -> &'static str {
        match self {
            Fault::CrashBeforeRename => "crash-before-rename",
            Fault::CrashAfterEntomb => "crash-after-entomb",
            Fault::TornWrite(_) => "torn-write",
            Fault::TornRead(_) => "torn-read",
            Fault::Invisible => "invisible",
            Fault::Transient => "transient",
            Fault::Latency(_) => "latency",
            Fault::Unavailable(_) => "unavailable",
            Fault::SlowRead => "slow-read",
        }
    }

    /// Whether a schedule of this fault can never change a campaign's
    /// outcome, only its wall-clock — the admission criterion for the
    /// seeded soak schedules. Crash and torn-write faults are excluded:
    /// they mutate durable state mid-operation, which is the crash
    /// matrix's scenario, not the soak's.
    pub fn recoverable(&self) -> bool {
        matches!(
            self,
            Fault::Transient
                | Fault::Invisible
                | Fault::TornRead(_)
                | Fault::Latency(_)
                | Fault::Unavailable(_)
                | Fault::SlowRead
        )
    }
}

/// One entry of a [`Faulty`] schedule: the `skip`-th-and-after matching
/// operation (op kind + path substring) fires `fault`, once.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// The operation kind this rule matches.
    pub op: FaultOp,
    /// Substring the operation's path must contain (`""` matches all).
    pub path_contains: String,
    /// Matching operations to let through before firing.
    pub skip: usize,
    /// The fault to inject.
    pub fault: Fault,
}

impl FaultRule {
    /// A rule firing `fault` on the first `op` whose path contains
    /// `path_contains`.
    pub fn on(op: FaultOp, path_contains: impl Into<String>, fault: Fault) -> Self {
        FaultRule {
            op,
            path_contains: path_contains.into(),
            skip: 0,
            fault,
        }
    }

    /// Let `skip` matching operations through before firing.
    pub fn after(mut self, skip: usize) -> Self {
        self.skip = skip;
        self
    }
}

/// One journaled backend operation (for test assertions).
#[derive(Debug, Clone)]
pub struct JournalEntry {
    /// Global operation sequence number.
    pub seq: u64,
    /// The operation kind.
    pub op: FaultOp,
    /// The path operated on.
    pub path: PathBuf,
    /// The fault injected into this operation, if any.
    pub fault: Option<Fault>,
    /// Whether the operation returned `Ok`.
    pub ok: bool,
}

#[derive(Debug)]
struct ArmedRule {
    rule: FaultRule,
    seen: usize,
    fired: bool,
}

/// A [`StoreBackend`] decorator injecting a deterministic fault
/// schedule into any substrate `B`. See the [module docs](self).
///
/// Each [`FaultRule`] fires exactly once, on the first matching
/// operation past its `skip` count. The gated operations are the six
/// [`FaultOp`]s; `contains`, `mtime`, `list` and `ensure_dir` pass
/// straight through (apart from [`Faulty::age`]'s mtime offsets).
#[derive(Debug)]
pub struct Faulty<B> {
    inner: B,
    rules: Mutex<Vec<ArmedRule>>,
    journal: Mutex<Vec<JournalEntry>>,
    seq: AtomicU64,
    /// Remaining operations in an open [`Fault::Unavailable`] window.
    unavailable: AtomicU64,
    /// Virtual microseconds parked in [`StoreBackend::backoff_wait`] or
    /// charged by latency faults — the timing-free stand-in for sleeping.
    waited: AtomicU64,
    /// Per-path mtime back-dating set by [`Faulty::age`].
    ages: Mutex<BTreeMap<PathBuf, Duration>>,
}

impl<B: StoreBackend> Faulty<B> {
    /// `inner` with no faults scheduled.
    pub fn new(inner: B) -> Self {
        Faulty {
            inner,
            rules: Mutex::default(),
            journal: Mutex::default(),
            seq: AtomicU64::new(0),
            unavailable: AtomicU64::new(0),
            waited: AtomicU64::new(0),
            ages: Mutex::default(),
        }
    }

    /// Schedule one more fault rule.
    pub fn inject(&self, rule: FaultRule) {
        self.rules.lock().unwrap().push(ArmedRule {
            rule,
            seen: 0,
            fired: false,
        });
    }

    /// Drop all scheduled (fired or not) rules and close any open
    /// unavailability window.
    pub fn clear_rules(&self) {
        self.rules.lock().unwrap().clear();
        self.unavailable.store(0, Ordering::Relaxed);
    }

    /// How many scheduled rules have fired.
    pub fn faults_fired(&self) -> usize {
        self.rules
            .lock()
            .unwrap()
            .iter()
            .filter(|r| r.fired)
            .count()
    }

    /// Total virtual time parked in backoff waits or charged by
    /// latency/slow-read faults — what a wall clock would have measured
    /// had the backend really slept.
    pub fn virtual_waited(&self) -> Duration {
        Duration::from_micros(self.waited.load(Ordering::Relaxed))
    }

    /// The operation journal so far.
    pub fn journal(&self) -> Vec<JournalEntry> {
        self.journal.lock().unwrap().clone()
    }

    /// Back-date `path`'s mtime by `by` — the no-sleep way to make a
    /// lease stale or an orphan old. [`StoreBackend::mtime`] and
    /// [`StoreBackend::list`] subtract the offset until the path is
    /// rewritten, refreshed or removed through this decorator. `false`
    /// when absent.
    pub fn age(&self, path: &Path, by: Duration) -> bool {
        if !self.inner.contains(path) {
            return false;
        }
        self.ages.lock().unwrap().insert(path.to_path_buf(), by);
        true
    }

    fn forget_age(&self, path: &Path) {
        self.ages.lock().unwrap().remove(path);
    }

    /// The first due rule matching `(op, path)`, marked fired. Every
    /// matching unfired rule's skip count advances — `.after(n)` counts
    /// matching *operations*, not operations left over by earlier rules.
    fn check(&self, op: FaultOp, path: &Path) -> Option<Fault> {
        let path_str = path.to_string_lossy();
        let mut rules = self.rules.lock().unwrap();
        let mut hit = None;
        for armed in rules.iter_mut() {
            if armed.fired || armed.rule.op != op || !path_str.contains(&armed.rule.path_contains) {
                continue;
            }
            let due = armed.seen >= armed.rule.skip;
            armed.seen += 1;
            if hit.is_none() && due {
                armed.fired = true;
                hit = Some(armed.rule.fault);
            }
        }
        hit
    }

    /// The service-level fault semantics every gated operation shares,
    /// ahead of the op-specific faults: an open unavailability window
    /// fails the operation outright; transient/latency faults error
    /// retryably; slow reads are charged to the virtual clock and let
    /// through. `Ok(Some(..))` is an op-specific fault (crash, torn
    /// write, visibility) the caller must stage itself.
    fn gate(&self, op: FaultOp, path: &Path) -> io::Result<Option<Fault>> {
        let in_window = self
            .unavailable
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok();
        if in_window {
            return Err(self.injected(op, path, Fault::Unavailable(0), io::ErrorKind::TimedOut));
        }
        match self.check(op, path) {
            Some(f @ Fault::Transient) => {
                Err(self.injected(op, path, f, io::ErrorKind::WouldBlock))
            }
            Some(f @ Fault::Latency(ms)) => {
                self.waited
                    .fetch_add(ms.saturating_mul(1000), Ordering::Relaxed);
                Err(self.injected(op, path, f, io::ErrorKind::TimedOut))
            }
            Some(f @ Fault::Unavailable(n)) => {
                self.unavailable.store(n as u64, Ordering::Relaxed);
                Err(self.injected(op, path, f, io::ErrorKind::TimedOut))
            }
            Some(f @ Fault::SlowRead) => {
                // A nominal 25 ms of replica lag, charged not slept.
                self.waited.fetch_add(25_000, Ordering::Relaxed);
                self.record(op, path, Some(f), true);
                Ok(None)
            }
            other => Ok(other),
        }
    }

    fn record(&self, op: FaultOp, path: &Path, fault: Option<Fault>, ok: bool) {
        self.journal.lock().unwrap().push(JournalEntry {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            op,
            path: path.to_path_buf(),
            fault,
            ok,
        });
    }

    fn injected(&self, op: FaultOp, path: &Path, fault: Fault, kind: io::ErrorKind) -> io::Error {
        self.record(op, path, Some(fault), false);
        io::Error::new(
            kind,
            format!("injected fault: {} on {}", fault.tag(), op.tag()),
        )
    }

    /// Journal an operation the substrate ran unfaulted. A successful
    /// write, refresh or removal of `path` ends its [`Faulty::age`].
    fn pass<T>(&self, op: FaultOp, path: &Path, out: io::Result<T>) -> io::Result<T> {
        if out.is_ok() && op != FaultOp::Load {
            self.forget_age(path);
        }
        self.record(op, path, None, out.is_ok());
        out
    }
}

impl<B: StoreBackend> StoreBackend for Faulty<B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn ensure_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.ensure_dir(dir)
    }

    fn publish(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let op = FaultOp::Publish;
        match self.gate(op, path)? {
            Some(f @ (Fault::CrashBeforeRename | Fault::TornWrite(_))) => {
                // The staged bytes survive the crash in a temp sibling
                // the orphan sweep collects; the final path is untouched
                // (publish stays atomic even when the writer dies).
                let staged = match f {
                    Fault::TornWrite(n) => &bytes[..n.min(bytes.len())],
                    _ => bytes,
                };
                let tmp =
                    path.with_file_name(format!(".tmp-crash-{}", self.seq.load(Ordering::Relaxed)));
                self.inner.publish(&tmp, staged)?;
                Err(self.injected(op, path, f, io::ErrorKind::Other))
            }
            Some(f) => Err(self.injected(op, path, f, io::ErrorKind::Other)),
            None => self.pass(op, path, self.inner.publish(path, bytes)),
        }
    }

    fn claim(&self, path: &Path, content: &[u8]) -> io::Result<()> {
        let op = FaultOp::Claim;
        match self.gate(op, path)? {
            Some(f @ Fault::TornWrite(n)) => {
                // The claimant won the create but died mid-write: the
                // claimed name holds a content prefix only.
                match self.inner.claim(path, &content[..n.min(content.len())]) {
                    Ok(()) => Err(self.injected(op, path, f, io::ErrorKind::Other)),
                    lost => self.pass(op, path, lost),
                }
            }
            Some(f) => Err(self.injected(op, path, f, io::ErrorKind::Other)),
            None => self.pass(op, path, self.inner.claim(path, content)),
        }
    }

    fn entomb(&self, path: &Path, tomb: &Path) -> io::Result<()> {
        let op = FaultOp::Entomb;
        let fault = self.gate(op, path)?;
        match (self.inner.entomb(path, tomb), fault) {
            // The rename is applied — the challenger died before it
            // could read the tomb and re-create the lease.
            (Ok(()), Some(f)) => {
                self.forget_age(path);
                Err(self.injected(op, path, f, io::ErrorKind::Other))
            }
            (out, _) => self.pass(op, path, out),
        }
    }

    fn load(&self, path: &Path) -> io::Result<Vec<u8>> {
        let op = FaultOp::Load;
        match self.gate(op, path)? {
            Some(f @ Fault::Invisible) => Err(self.injected(op, path, f, io::ErrorKind::NotFound)),
            Some(f @ Fault::TornRead(n)) => {
                let out = self.inner.load(path).map(|mut bytes| {
                    bytes.truncate(n);
                    bytes
                });
                self.record(op, path, Some(f), out.is_ok());
                out
            }
            Some(f) => Err(self.injected(op, path, f, io::ErrorKind::Other)),
            None => self.pass(op, path, self.inner.load(path)),
        }
    }

    fn contains(&self, path: &Path) -> bool {
        self.inner.contains(path)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.gate(FaultOp::Remove, path)?;
        self.pass(FaultOp::Remove, path, self.inner.remove(path))
    }

    fn refresh(&self, path: &Path) -> io::Result<()> {
        self.gate(FaultOp::Refresh, path)?;
        self.pass(FaultOp::Refresh, path, self.inner.refresh(path))
    }

    fn mtime(&self, path: &Path) -> io::Result<std::time::SystemTime> {
        let mtime = self.inner.mtime(path)?;
        Ok(match self.ages.lock().unwrap().get(path) {
            Some(by) => mtime - *by,
            None => mtime,
        })
    }

    fn list(&self, dir: &Path, recursive: bool) -> io::Result<Vec<FileMeta>> {
        let mut metas = self.inner.list(dir, recursive)?;
        let ages = self.ages.lock().unwrap();
        for meta in &mut metas {
            if let Some(by) = ages.get(&meta.path) {
                meta.mtime -= *by;
            }
        }
        Ok(metas)
    }

    fn backoff_wait(&self, pause: Duration) {
        // Charge the virtual clock so retry schedules stay observable
        // without costing wall-clock, whatever the substrate.
        self.waited
            .fetch_add(pause.as_micros() as u64, Ordering::Relaxed);
    }
}

/// A deterministic pseudo-random schedule of *recoverable* faults
/// (transient errors, delayed visibility, torn reads) for soak testing:
/// the same `seed` always yields the same schedule, so a failing soak
/// iteration reproduces exactly from its printed seed. Crash faults are
/// deliberately excluded — an injected crash aborts the injected-into
/// shard's operation but not its process, which is a different scenario
/// than the crash matrix constructs; recoverable faults must never
/// change a campaign's report, only its wall-clock.
pub fn recoverable_schedule(seed: u64, rules: usize) -> Vec<FaultRule> {
    // xorshift must not start at 0; xor with an odd constant keeps
    // adjacent seeds distinct (a plain `| 1` would alias 2k with 2k+1).
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    if state == 0 {
        state = 0x2545_F491_4F6C_DD1D;
    }
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..rules)
        .map(|_| {
            let op = match next() % 4 {
                0 => FaultOp::Load,
                1 => FaultOp::Publish,
                2 => FaultOp::Claim,
                _ => FaultOp::Refresh,
            };
            let fault = match (next() % 6, op) {
                // Visibility, torn and slow reads only make sense on loads.
                (0, FaultOp::Load) => Fault::Invisible,
                (1, FaultOp::Load) => Fault::TornRead((next() % 24) as usize),
                (2, FaultOp::Load) => Fault::SlowRead,
                // Short windows only: the retry budget (4 attempts by
                // default) must be able to outlast an injected outage,
                // or the soak would assert on a legitimate degradation.
                (3, _) => Fault::Unavailable(1 + (next() % 2) as usize),
                (4, _) => Fault::Latency(1 + next() % 40),
                _ => Fault::Transient,
            };
            let path_contains = match next() % 3 {
                0 => ".lease",
                1 => ".bin",
                _ => "",
            };
            FaultRule::on(op, path_contains, fault).after((next() % 6) as usize)
        })
        .collect()
}

/// A fresh empty directory unique to one call in one process, removed
/// with everything under it on drop. The path is
/// `<system temp>/gnnunlock-<tag>-<pid>-<n>`, where `n` counts every
/// `TempDir` the process has made, so tests running in parallel never
/// share (or delete) each other's directory.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create a fresh directory tagged `tag`.
    ///
    /// # Panics
    ///
    /// If the directory cannot be created.
    pub fn new(tag: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "gnnunlock-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        // Left behind by an earlier process that had the same pid.
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
        TempDir { path }
    }
}

impl Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// A [`ValueCodec`] for `String` job values, stored as their UTF-8
/// bytes; every other value is declined.
#[derive(Debug, Clone, Copy, Default)]
pub struct StringCodec;

impl ValueCodec for StringCodec {
    fn encode(&self, _kind: JobKind, value: &JobValue) -> Option<Vec<u8>> {
        value
            .downcast_ref::<String>()
            .map(|s| s.as_bytes().to_vec())
    }

    fn decode(&self, _kind: JobKind, bytes: &[u8]) -> Option<JobValue> {
        Some(Arc::new(String::from_utf8(bytes.to_vec()).ok()?) as JobValue)
    }
}

/// The toy campaign runner: every stage's value is the string
/// `"<label><-[<dependency values joined by ;>]"`, so an aggregate
/// spells out its whole dependency story, and every value persists
/// through [`StringCodec`].
#[derive(Debug, Clone, Copy)]
pub struct Echo {
    /// The runner's [`CampaignRunner::config_salt`].
    pub salt: u64,
}

impl CampaignRunner for Echo {
    fn config_salt(&self) -> u64 {
        self.salt
    }

    fn codec(&self) -> Option<Arc<dyn ValueCodec>> {
        Some(Arc::new(StringCodec))
    }

    fn run(&self, job: &StageJob, ctx: &JobCtx<'_>) -> JobOutput {
        let inputs: Vec<String> = (0..ctx.deps.len())
            .map(|i| ctx.dep::<String>(i).as_ref().clone())
            .collect();
        Ok(Arc::new(format!("{}<-[{}]", job.label(), inputs.join(";"))) as JobValue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::LocalDirBackend;
    use std::time::SystemTime;

    #[test]
    fn fault_rules_fire_once_in_schedule_order() {
        let root = TempDir::new("fire-once");
        let b = Arc::new(Faulty::new(LocalDirBackend::new()));
        b.inject(FaultRule::on(FaultOp::Load, ".bin", Fault::Transient));
        b.inject(FaultRule::on(FaultOp::Load, ".bin", Fault::Invisible).after(1));
        let path = root.join("x.bin");
        b.publish(&path, b"payload").unwrap();
        // 1st load: transient. 2nd: the second rule has skipped one
        // match, so it fires invisible. 3rd: clean.
        assert_eq!(b.load(&path).unwrap_err().kind(), io::ErrorKind::WouldBlock);
        assert_eq!(b.load(&path).unwrap_err().kind(), io::ErrorKind::NotFound);
        assert_eq!(b.load(&path).unwrap(), b"payload");
        assert_eq!(b.faults_fired(), 2);
        let journal = b.journal();
        assert_eq!(journal.len(), 4); // publish + 3 loads
        assert_eq!(journal[1].fault, Some(Fault::Transient));
        assert_eq!(journal[2].fault, Some(Fault::Invisible));
        assert!(journal[3].ok && journal[3].fault.is_none());
    }

    #[test]
    fn crash_before_rename_leaves_an_orphan_tmp_not_a_torn_entry() {
        let root = TempDir::new("crash-publish");
        let b = Arc::new(Faulty::new(LocalDirBackend::new()));
        b.inject(FaultRule::on(
            FaultOp::Publish,
            "entry.bin",
            Fault::CrashBeforeRename,
        ));
        let path = root.join("objects/entry.bin");
        assert!(b.publish(&path, b"payload").is_err());
        assert!(!b.contains(&path), "final path untouched by the crash");
        let orphans: Vec<_> = b
            .list(path.parent().unwrap(), false)
            .unwrap()
            .into_iter()
            .filter(|m| {
                m.path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(".tmp-"))
            })
            .collect();
        assert_eq!(orphans.len(), 1, "crash leaves exactly the staged temp");
        assert_eq!(b.load(&orphans[0].path).unwrap(), b"payload");
        // Retried publish (no fault left) succeeds.
        b.publish(&path, b"payload").unwrap();
        assert_eq!(b.load(&path).unwrap(), b"payload");
    }

    #[test]
    fn torn_claim_leaves_a_partial_lease_file() {
        let root = TempDir::new("torn-claim");
        let b = Arc::new(Faulty::new(LocalDirBackend::new()));
        b.inject(FaultRule::on(FaultOp::Claim, ".lease", Fault::TornWrite(7)));
        let path = root.join("objects/x.lease");
        assert!(b.claim(&path, b"gnnunlock-lease owner=a gen=0\n").is_err());
        assert_eq!(b.load(&path).unwrap(), b"gnnunlo");
        // The torn file *exists*: a later claimant must see AlreadyExists.
        let err = b.claim(&path, b"other\n").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
    }

    #[test]
    fn crash_after_entomb_applies_the_rename_then_errors() {
        let root = TempDir::new("crash-entomb");
        let b = Arc::new(Faulty::new(LocalDirBackend::new()));
        b.inject(FaultRule::on(
            FaultOp::Entomb,
            ".lease",
            Fault::CrashAfterEntomb,
        ));
        let path = root.join("objects/x.lease");
        let tomb = root.join("objects/x.lease.tomb-1-0");
        b.claim(&path, b"victim\n").unwrap();
        assert!(b.entomb(&path, &tomb).is_err());
        assert!(!b.contains(&path), "lease gone: the rename was applied");
        assert_eq!(b.load(&tomb).unwrap(), b"victim\n");
    }

    #[test]
    fn age_backdates_mtime_and_list_until_the_path_is_rewritten() {
        let root = TempDir::new("age");
        let b = Arc::new(Faulty::new(LocalDirBackend::new()));
        let path = root.join("objects/x.lease");
        let hour = Duration::from_secs(3600);
        let stale = || {
            let listed = b.list(path.parent().unwrap(), false).unwrap();
            let aged = |t: SystemTime| t <= SystemTime::now() - hour;
            assert_eq!(aged(listed[0].mtime), aged(b.mtime(&path).unwrap()));
            aged(listed[0].mtime)
        };
        assert!(!b.age(&path, hour), "an absent path cannot age");
        b.claim(&path, b"mine").unwrap();
        assert!(b.age(&path, hour));
        assert!(stale());
        // A rival's failed claim is no rewrite: the lease stays stale.
        assert!(b.claim(&path, b"rival").is_err());
        assert!(stale());
        b.refresh(&path).unwrap();
        assert!(!stale(), "a refresh ends the age");
        b.age(&path, hour);
        b.publish(&path, b"rewritten").unwrap();
        assert!(!stale(), "a rewrite ends the age");
        b.age(&path, hour);
        b.remove(&path).unwrap();
        assert!(b.ages.lock().unwrap().is_empty(), "a removal ends the age");
    }

    #[test]
    fn seeded_schedules_are_deterministic_and_recoverable_only() {
        let a = recoverable_schedule(42, 8);
        let b = recoverable_schedule(42, 8);
        assert_eq!(a.len(), 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.op, y.op);
            assert_eq!(x.fault, y.fault);
            assert_eq!(x.path_contains, y.path_contains);
            assert_eq!(x.skip, y.skip);
        }
        let c = recoverable_schedule(43, 8);
        assert!(
            a.iter()
                .zip(&c)
                .any(|(x, y)| x.op != y.op || x.fault != y.fault || x.skip != y.skip),
            "different seeds must differ"
        );
        for r in a.iter().chain(&c) {
            assert!(
                r.fault.recoverable(),
                "soak schedules must stay recoverable: {:?}",
                r.fault
            );
            if let Fault::Unavailable(n) = r.fault {
                assert!(
                    n <= 2,
                    "soak outage windows must stay inside the default retry budget"
                );
            }
        }
    }

    #[test]
    fn latency_fault_errs_timed_out_and_charges_the_virtual_clock() {
        let root = TempDir::new("latency");
        let b = Arc::new(Faulty::new(LocalDirBackend::new()));
        b.inject(FaultRule::on(FaultOp::Load, ".bin", Fault::Latency(7)));
        let path = root.join("x.bin");
        b.publish(&path, b"payload").unwrap();
        let err = b.load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert_eq!(b.virtual_waited(), Duration::from_millis(7));
        // The retry succeeds and a backoff wait is charged, not slept.
        b.backoff_wait(Duration::from_millis(13));
        assert_eq!(b.load(&path).unwrap(), b"payload");
        assert_eq!(b.virtual_waited(), Duration::from_millis(20));
    }

    #[test]
    fn unavailable_fault_opens_a_window_over_every_operation() {
        let root = TempDir::new("unavailable");
        let b = Arc::new(Faulty::new(LocalDirBackend::new()));
        b.inject(FaultRule::on(FaultOp::Load, "", Fault::Unavailable(2)));
        let path = root.join("x.bin");
        b.publish(&path, b"payload").unwrap();
        // The matched load fails and opens a 2-op window: the next two
        // operations — whatever their kind or path — fail too.
        assert_eq!(b.load(&path).unwrap_err().kind(), io::ErrorKind::TimedOut);
        assert_eq!(
            b.publish(&root.join("y.bin"), b"z").unwrap_err().kind(),
            io::ErrorKind::TimedOut
        );
        assert_eq!(
            b.refresh(&path).unwrap_err().kind(),
            io::ErrorKind::TimedOut
        );
        // Window exhausted: service back.
        assert_eq!(b.load(&path).unwrap(), b"payload");
        // clear_rules also closes a half-consumed window.
        b.inject(FaultRule::on(FaultOp::Load, "", Fault::Unavailable(9)));
        assert!(b.load(&path).is_err());
        b.clear_rules();
        assert_eq!(b.load(&path).unwrap(), b"payload");
    }

    #[test]
    fn slow_read_succeeds_with_full_bytes_but_is_charged() {
        let root = TempDir::new("slow-read");
        let b = Arc::new(Faulty::new(LocalDirBackend::new()));
        b.inject(FaultRule::on(FaultOp::Load, ".bin", Fault::SlowRead));
        let path = root.join("x.bin");
        b.publish(&path, b"payload").unwrap();
        assert_eq!(b.load(&path).unwrap(), b"payload");
        assert!(b.virtual_waited() > Duration::ZERO);
        assert_eq!(b.faults_fired(), 1);
    }

    #[test]
    fn temp_dirs_are_unique_and_removed_on_drop() {
        let a = TempDir::new("unique");
        let b = TempDir::new("unique");
        assert_ne!(&*a, &*b, "one tag, two calls, two directories");
        assert!(a.is_dir() && b.is_dir());
        fs::create_dir_all(a.join("nested")).unwrap();
        fs::write(a.join("nested/file"), b"x").unwrap();
        let path = a.to_path_buf();
        drop(a);
        assert!(!path.exists(), "drop removes the whole tree");
    }
}
