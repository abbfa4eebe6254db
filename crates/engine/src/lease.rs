//! Lease files: multi-process job claims over the shared store.
//!
//! A lease is a small file living *beside* the cache entry it guards
//! (`objects/<kind>/<hh>/<fp>.lease` next to `<fp>.bin`), turning the
//! [`crate::DiskStore`] directory into a coordination substrate: N
//! worker processes sharing one `GNNUNLOCK_CACHE_DIR` use leases to
//! split a campaign's jobs between them with no double work.
//!
//! The protocol is built entirely from atomic filesystem primitives, so
//! it needs no server and works on any shared filesystem with coherent
//! `rename`:
//!
//! - **claim** — `O_CREAT|O_EXCL` (`create_new`): exactly one process
//!   can create the lease file, whatever the interleaving;
//! - **heartbeat** — the owner refreshes the lease file's mtime every
//!   `ttl/4` from a background thread, so the file's age is the
//!   owner's liveness signal. Ages are judged against the *filesystem*
//!   clock, which all cooperating processes share;
//! - **stale takeover** — a lease older than the TTL marks a dead (or
//!   wedged) owner. A challenger *renames* the stale file to a unique
//!   tomb name — `rename` has one winner; the losers see `NotFound` —
//!   then re-creates the lease with the **generation counter** bumped,
//!   so every ownership epoch of a lease is distinguishable;
//! - **release** — the owner deletes the lease after publishing its
//!   result, but only after verifying the file still carries its own
//!   `(owner, generation)` line: a slow owner whose lease was taken
//!   over must never delete the usurper's claim.
//!
//! Liveness caveat (inherent to lease protocols): a *live but stalled*
//! owner (`SIGSTOP`, multi-second GC pause, clock jump) can be timed
//! out and its job re-executed elsewhere. That costs duplicate work,
//! never correctness — stage bodies are deterministic and the store's
//! publish is an atomic last-writer-wins rename of identical bytes.

use crate::backend::{is_transient_kind, StoreBackend};
use crate::graph::JobKind;
use crate::metrics;
use crate::resilience::RetryPolicy;
use crate::store::DiskStore;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, SystemTime};

/// Magic first token of every lease file.
const LEASE_MAGIC: &str = "gnnunlock-lease";

/// Whether lease-file bytes are a *torn observation* — a reader racing
/// a writer (or an NFS-style cache serving a partial page) saw only a
/// prefix. An intact lease always starts with the magic token and ends
/// with a newline; anything else says nothing about ownership, so
/// readers must retry (or stay conservative), never act on it — acting
/// on a torn read of its *own* lease is how an owner used to abandon a
/// perfectly live claim, handing the job to a spurious takeover.
fn lease_torn(bytes: &[u8]) -> bool {
    !(bytes.starts_with(LEASE_MAGIC.as_bytes()) && bytes.ends_with(b"\n"))
}

/// Outcome of a claim attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    /// This manager now owns the lease and must eventually release it.
    Acquired {
        /// The lease's ownership epoch: 0 for a fresh claim, previous
        /// generation + 1 after a stale-lease takeover.
        generation: u64,
        /// Whether this claim took over a stale lease.
        takeover: bool,
    },
    /// Another owner holds a fresh lease (or won a racing claim).
    Busy,
}

/// Monotonic counters describing lease traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeaseStats {
    /// Leases acquired (fresh claims + takeovers).
    pub claimed: usize,
    /// Claim attempts that found a fresh foreign lease.
    pub busy: usize,
    /// Acquisitions that took over a stale lease.
    pub takeovers: usize,
    /// Leases this manager held but lost to a takeover (detected at
    /// heartbeat or release time).
    pub lost: usize,
    /// Leases released after a successful publish.
    pub released: usize,
    /// Probe-poll sleeps taken while waiting on a peer-held job (the
    /// wall-clock the unleased-first scheduling preference minimizes).
    pub poll_waits: usize,
}

struct Shared {
    store: Arc<DiskStore>,
    backend: Arc<dyn StoreBackend>,
    retry: RetryPolicy,
    owner: String,
    ttl: Duration,
    /// Held leases: path → the exact file content written at claim
    /// time, used to verify ownership before touching or deleting.
    held: Mutex<HashMap<PathBuf, String>>,
    stop: Mutex<bool>,
    stop_signal: Condvar,
    claimed: AtomicUsize,
    busy: AtomicUsize,
    takeovers: AtomicUsize,
    lost: AtomicUsize,
    released: AtomicUsize,
    poll_waits: AtomicUsize,
    tomb_counter: AtomicU64,
}

impl Shared {
    fn lease_content(&self, generation: u64) -> String {
        format!(
            "{LEASE_MAGIC} owner={} pid={} gen={generation}\n",
            self.owner,
            std::process::id()
        )
    }

    /// Refresh the mtime of every held lease; drop (and count as lost)
    /// any whose content *provably* no longer matches — a takeover
    /// happened. Torn observations and transient errors say nothing
    /// about ownership, so the lease is kept and re-judged next beat:
    /// abandoning on a torn read would stop the heartbeat, let the
    /// lease go stale, and hand a live owner's job to a spurious
    /// takeover.
    fn heartbeat(&self) {
        let snapshot: Vec<(PathBuf, String)> = {
            let held = self.held.lock().unwrap();
            held.iter().map(|(p, c)| (p.clone(), c.clone())).collect()
        };
        for (path, expected) in snapshot {
            let lost = match self.backend.load(&path) {
                Ok(c) if c == expected.as_bytes() => match self.backend.refresh(&path) {
                    Ok(()) => {
                        metrics::lease_event("heartbeats").inc();
                        continue;
                    }
                    Err(e) if is_transient_kind(e.kind()) => continue,
                    Err(_) => true, // vanished between read and touch
                },
                Ok(c) if lease_torn(&c) => continue,
                Ok(_) => true, // intact foreign content: usurped
                Err(e) if is_transient_kind(e.kind()) => continue,
                Err(_) => true, // gone (NotFound): deleted under us
            };
            if lost && self.held.lock().unwrap().remove(&path).is_some() {
                self.lost.fetch_add(1, Ordering::Relaxed);
                metrics::lease_event("lost").inc();
            }
        }
    }
}

/// Manages this process's lease claims over one store, heartbeating
/// every held lease from a background thread until release (or drop,
/// which releases everything still held).
pub struct LeaseManager {
    shared: Arc<Shared>,
    heartbeat: Option<std::thread::JoinHandle<()>>,
}

impl LeaseManager {
    /// A manager claiming leases in `store`'s directory as `owner`,
    /// judging foreign leases stale after `ttl` without a heartbeat.
    /// `ttl` is clamped to ≥ 20 ms (below that, heartbeats cannot
    /// reliably outrun staleness).
    pub fn new(store: Arc<DiskStore>, owner: impl Into<String>, ttl: Duration) -> LeaseManager {
        let backend = store.backend().clone();
        let shared = Arc::new(Shared {
            store,
            backend,
            retry: RetryPolicy::default(),
            owner: owner.into(),
            ttl: ttl.max(Duration::from_millis(20)),
            held: Mutex::new(HashMap::new()),
            stop: Mutex::new(false),
            stop_signal: Condvar::new(),
            claimed: AtomicUsize::new(0),
            busy: AtomicUsize::new(0),
            takeovers: AtomicUsize::new(0),
            lost: AtomicUsize::new(0),
            released: AtomicUsize::new(0),
            poll_waits: AtomicUsize::new(0),
            tomb_counter: AtomicU64::new(0),
        });
        let hb = {
            let shared = shared.clone();
            let period = (shared.ttl / 4).max(Duration::from_millis(5));
            std::thread::spawn(move || loop {
                let mut stop = shared.stop.lock().unwrap();
                let deadline = std::time::Instant::now() + period;
                while !*stop {
                    let left = deadline.saturating_duration_since(std::time::Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    let (guard, _) = shared.stop_signal.wait_timeout(stop, left).unwrap();
                    stop = guard;
                }
                if *stop {
                    return;
                }
                drop(stop);
                shared.heartbeat();
            })
        };
        LeaseManager {
            shared,
            heartbeat: Some(hb),
        }
    }

    /// The owner string written into claimed leases.
    pub fn owner(&self) -> &str {
        &self.shared.owner
    }

    /// The staleness TTL this manager judges foreign leases by.
    pub fn ttl(&self) -> Duration {
        self.shared.ttl
    }

    /// The lease path guarding the entry `(kind, fp)` — beside the
    /// entry file, `.lease` instead of `.bin`.
    pub fn lease_path(&self, kind: JobKind, fp: u64) -> PathBuf {
        self.shared
            .store
            .entry_path(kind, fp)
            .with_extension("lease")
    }

    /// Try to claim the lease for `(kind, fp)`.
    pub fn try_claim(&self, kind: JobKind, fp: u64) -> Claim {
        self.claim_path(&self.lease_path(kind, fp))
    }

    fn claim_path(&self, path: &Path) -> Claim {
        let backend = &self.shared.backend;
        // Tombs orphaned by a challenger that died *between* the tomb
        // rename and the lease re-create: without eager cleanup they
        // linger until the hour-stale GC, and their generation is lost.
        // Adopt the highest orphaned generation (epochs stay monotonic
        // across the crash) and sweep the tombs once a claim succeeds.
        let (orphan_gen, orphan_tombs) = self.scan_orphan_tombs(path);
        let base_gen = orphan_gen.map_or(0, |g| g + 1);
        // Bounded retry: a lease can vanish between our create failure
        // and our stat (owner released it) — re-attempt the create a
        // few times rather than reporting a phantom Busy.
        for _ in 0..4 {
            // Completing a dead challenger's interrupted takeover *is*
            // a takeover, even though the lease file itself is absent.
            match self.try_create(path, base_gen, orphan_gen.is_some()) {
                Ok(claim) => {
                    self.sweep_tombs(&orphan_tombs);
                    return claim;
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {}
                Err(e) if is_transient_kind(e.kind()) => continue,
                Err(_) => break, // unwritable directory etc.
            }
            let mtime = match backend.mtime(path) {
                Ok(t) => t,
                // Vanished between create and stat: retry the create.
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(_) => break,
            };
            let age = SystemTime::now()
                .duration_since(mtime)
                .unwrap_or(Duration::ZERO);
            if age < self.shared.ttl {
                break; // fresh foreign lease
            }
            // Stale: entomb it. The rename is the arbiter — exactly one
            // challenger moves the file; the rest fail with NotFound
            // and report Busy (the winner is about to re-create it).
            let tomb = path.with_file_name(format!(
                "{}.tomb-{}-{}",
                path.file_name().and_then(|n| n.to_str()).unwrap_or("lease"),
                std::process::id(),
                self.shared.tomb_counter.fetch_add(1, Ordering::Relaxed)
            ));
            match backend.entomb(path, &tomb) {
                Ok(()) => {
                    let buried = backend.load(&tomb).unwrap_or_default();
                    let old_gen = parse_generation(&String::from_utf8_lossy(&buried));
                    let _ = backend.remove(&tomb);
                    match self.try_create(path, (old_gen + 1).max(base_gen), true) {
                        Ok(claim) => {
                            self.sweep_tombs(&orphan_tombs);
                            return claim;
                        }
                        Err(_) => break, // lost the re-create race
                    }
                }
                Err(_) => break, // lost the takeover race
            }
        }
        self.shared.busy.fetch_add(1, Ordering::Relaxed);
        metrics::lease_event("busy").inc();
        Claim::Busy
    }

    /// Orphaned tombs of `path`'s lease (highest buried generation,
    /// plus their paths): a takeover killed between entomb and
    /// re-create leaves one. Torn tomb contents parse as generation 0 —
    /// the tomb's *existence*, not its bytes, carries the signal.
    fn scan_orphan_tombs(&self, path: &Path) -> (Option<u64>, Vec<PathBuf>) {
        let Some((parent, name)) = path.parent().zip(path.file_name().and_then(|n| n.to_str()))
        else {
            return (None, Vec::new());
        };
        let prefix = format!("{name}.tomb-");
        let mut max_gen = None;
        let mut tombs = Vec::new();
        for meta in self.shared.backend.list(parent, false).unwrap_or_default() {
            let is_tomb = meta
                .path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(&prefix));
            if !is_tomb {
                continue;
            }
            let buried = self.shared.backend.load(&meta.path).unwrap_or_default();
            let gen = parse_generation(&String::from_utf8_lossy(&buried));
            max_gen = Some(max_gen.map_or(gen, |m: u64| m.max(gen)));
            tombs.push(meta.path);
        }
        (max_gen, tombs)
    }

    /// Delete orphaned tombs after a successful claim (best-effort; a
    /// racing challenger may have removed one already).
    fn sweep_tombs(&self, tombs: &[PathBuf]) {
        for tomb in tombs {
            let _ = self.shared.backend.remove(tomb);
        }
    }

    /// Create-new the lease file with `generation` through the
    /// backend's exactly-one-winner claim, registering it as held on
    /// success.
    fn try_create(&self, path: &Path, generation: u64, takeover: bool) -> io::Result<Claim> {
        let content = self.shared.lease_content(generation);
        self.shared.backend.claim(path, content.as_bytes())?;
        self.shared
            .held
            .lock()
            .unwrap()
            .insert(path.to_path_buf(), content);
        self.shared.claimed.fetch_add(1, Ordering::Relaxed);
        metrics::lease_event("claims").inc();
        if takeover {
            self.shared.takeovers.fetch_add(1, Ordering::Relaxed);
            metrics::lease_event("takeovers").inc();
        }
        Ok(Claim::Acquired {
            generation,
            takeover,
        })
    }

    /// Whether a *fresh foreign* lease currently guards `(kind, fp)` —
    /// a read-only probe, never a claim attempt: the lease file exists,
    /// is younger than the TTL, and names a different owner. The shard
    /// scheduler uses this to deprioritize ready jobs a live peer is
    /// already executing (wall-clock only — a wrong answer merely
    /// changes pick order, never results).
    pub fn peer_holds(&self, kind: JobKind, fp: u64) -> bool {
        let path = self.lease_path(kind, fp);
        let Ok(content) = self.shared.backend.load(&path) else {
            return false;
        };
        let age = self
            .shared
            .backend
            .mtime(&path)
            .ok()
            .and_then(|mtime| SystemTime::now().duration_since(mtime).ok())
            .unwrap_or(Duration::ZERO);
        if age >= self.shared.ttl {
            return false; // stale: takeover territory, not a live peer
        }
        // A fresh-but-torn lease is conservatively a live peer: the
        // probe only tunes pick order, and assuming "held" on a racy
        // read avoids dog-piling onto a job its owner just claimed.
        if lease_torn(&content) {
            return true;
        }
        let content = String::from_utf8_lossy(&content).into_owned();
        let owner = content
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix("owner="));
        owner.is_some_and(|o| o != self.shared.owner)
    }

    /// Count one probe-poll sleep while waiting on a peer-held job.
    pub fn note_poll_wait(&self) {
        self.shared.poll_waits.fetch_add(1, Ordering::Relaxed);
        metrics::lease_event("poll_waits").inc();
    }

    /// Release the lease for `(kind, fp)` if this manager holds it.
    /// Returns whether a lease file was actually deleted — `false` when
    /// not held, or when the lease was taken over in the meantime (the
    /// usurper's file is left untouched and the loss is counted).
    pub fn release(&self, kind: JobKind, fp: u64) -> bool {
        self.release_path(&self.lease_path(kind, fp))
    }

    fn release_path(&self, path: &Path) -> bool {
        let Some(expected) = self.shared.held.lock().unwrap().remove(path) else {
            return false;
        };
        // A torn or transient read says nothing about ownership; the
        // shared retry policy re-reads (backing off through the
        // backend's clock) before concluding anything. If it stays
        // unreadable the lease is left in place — wrongly deleting a
        // usurper's claim is the one mistake this path must never make,
        // while a stranded lease merely costs one TTL.
        let backend = self.shared.backend.as_ref();
        let owned = self.shared.retry.run(backend, "lease_release", || {
            match backend.load(path) {
                Ok(content) if content == expected.as_bytes() => Ok(true),
                Ok(content) if lease_torn(&content) => Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "torn lease read",
                )),
                Ok(_) => Ok(false), // intact foreign content: usurped
                Err(e) if is_transient_kind(e.kind()) => Err(e),
                Err(_) => Ok(false), // gone (NotFound): deleted under us
            }
        });
        if let Ok(true) = owned {
            let _ = backend.remove(path);
            self.shared.released.fetch_add(1, Ordering::Relaxed);
            metrics::lease_event("released").inc();
            return true;
        }
        self.shared.lost.fetch_add(1, Ordering::Relaxed);
        metrics::lease_event("lost").inc();
        false
    }

    /// Drop every held lease *without* releasing the files — the
    /// deterministic stand-in for process death in fault tests: the
    /// lease files stay on the backend exactly as a SIGKILLed owner
    /// would leave them, and the heartbeat thread is stopped so they
    /// age toward takeover.
    pub fn abandon(mut self) {
        *self.shared.stop.lock().unwrap() = true;
        self.shared.stop_signal.notify_all();
        if let Some(hb) = self.heartbeat.take() {
            let _ = hb.join();
        }
        self.shared.held.lock().unwrap().clear();
        // Drop now finds nothing held and releases nothing.
    }

    /// Run one heartbeat pass synchronously — a deterministic test hook
    /// (the background thread beats on its own schedule).
    pub fn force_heartbeat(&self) {
        self.shared.heartbeat();
    }

    /// Number of leases currently held.
    pub fn held(&self) -> usize {
        self.shared.held.lock().unwrap().len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> LeaseStats {
        LeaseStats {
            claimed: self.shared.claimed.load(Ordering::Relaxed),
            busy: self.shared.busy.load(Ordering::Relaxed),
            takeovers: self.shared.takeovers.load(Ordering::Relaxed),
            lost: self.shared.lost.load(Ordering::Relaxed),
            released: self.shared.released.load(Ordering::Relaxed),
            poll_waits: self.shared.poll_waits.load(Ordering::Relaxed),
        }
    }
}

impl Drop for LeaseManager {
    fn drop(&mut self) {
        *self.shared.stop.lock().unwrap() = true;
        self.shared.stop_signal.notify_all();
        if let Some(hb) = self.heartbeat.take() {
            let _ = hb.join();
        }
        // Release anything still held so an error-path exit doesn't
        // strand fresh leases for a whole TTL.
        let paths: Vec<PathBuf> = self.shared.held.lock().unwrap().keys().cloned().collect();
        for path in paths {
            self.release_path(&path);
        }
    }
}

impl std::fmt::Debug for LeaseManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeaseManager")
            .field("owner", &self.shared.owner)
            .field("ttl", &self.shared.ttl)
            .field("held", &self.held())
            .finish_non_exhaustive()
    }
}

/// The `gen=` field of a lease file; 0 when missing or torn (an empty
/// or half-written lease still claims generation 0 — its mtime, not its
/// content, carries the liveness signal).
fn parse_generation(content: &str) -> u64 {
    content
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("gen="))
        .and_then(|g| g.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::TempDir;
    use std::fs;

    fn tmp_store(tag: &str) -> (TempDir, Arc<DiskStore>) {
        let dir = TempDir::new(&format!("lease-{tag}"));
        let store = Arc::new(DiskStore::open(&dir).unwrap());
        (dir, store)
    }

    #[test]
    fn claim_is_exclusive_and_release_frees() {
        let (_dir, store) = tmp_store("excl");
        let a = LeaseManager::new(store.clone(), "a", Duration::from_secs(30));
        let b = LeaseManager::new(store.clone(), "b", Duration::from_secs(30));

        assert!(matches!(
            a.try_claim(JobKind::Train, 1),
            Claim::Acquired {
                generation: 0,
                takeover: false
            }
        ));
        assert_eq!(b.try_claim(JobKind::Train, 1), Claim::Busy);
        // Different entry: independent lease.
        assert!(matches!(
            b.try_claim(JobKind::Train, 2),
            Claim::Acquired { .. }
        ));

        assert!(a.release(JobKind::Train, 1));
        assert!(matches!(
            b.try_claim(JobKind::Train, 1),
            Claim::Acquired {
                generation: 0,
                takeover: false
            }
        ));
        assert_eq!(a.stats().claimed, 1);
        assert_eq!(b.stats().busy, 1);
        assert_eq!(b.held(), 2);
    }

    #[test]
    fn stale_leases_are_taken_over_with_a_bumped_generation() {
        let (_dir, store) = tmp_store("stale");
        let ttl = Duration::from_millis(60);
        let survivor = LeaseManager::new(store.clone(), "survivor", ttl);

        // A dead owner: lease file written directly, never heartbeated.
        let path = survivor.lease_path(JobKind::Train, 9);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, "gnnunlock-lease owner=victim pid=1 gen=4\n").unwrap();

        // Fresh: busy. Stale (mtime aged past the TTL): taken over.
        assert_eq!(survivor.try_claim(JobKind::Train, 9), Claim::Busy);
        fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .set_modified(SystemTime::now() - Duration::from_secs(5))
            .unwrap();
        assert_eq!(
            survivor.try_claim(JobKind::Train, 9),
            Claim::Acquired {
                generation: 5,
                takeover: true
            }
        );
        assert_eq!(survivor.stats().takeovers, 1);
        // The takeover produced a normal held lease: release works.
        assert!(survivor.release(JobKind::Train, 9));
        assert!(!path.exists());
    }

    #[test]
    fn heartbeat_keeps_a_lease_fresh_across_the_ttl() {
        let (_dir, store) = tmp_store("hb");
        let ttl = Duration::from_millis(80);
        let owner = LeaseManager::new(store.clone(), "owner", ttl);
        let rival = LeaseManager::new(store.clone(), "rival", ttl);

        assert!(matches!(
            owner.try_claim(JobKind::Lock, 3),
            Claim::Acquired { .. }
        ));
        // Well past the TTL, the heartbeat must have kept the lease
        // fresh: the rival still sees Busy, never a takeover.
        for _ in 0..6 {
            std::thread::sleep(ttl / 2);
            assert_eq!(rival.try_claim(JobKind::Lock, 3), Claim::Busy);
        }
        assert_eq!(rival.stats().takeovers, 0);
    }

    #[test]
    fn losing_a_takeover_is_detected_not_clobbered() {
        let (_dir, store) = tmp_store("lost");
        // Slow owner: 30 s heartbeat period (ttl/4) — it will not touch
        // the lease again during this test.
        let slow = LeaseManager::new(store.clone(), "slow", Duration::from_secs(120));
        let fast = LeaseManager::new(store.clone(), "fast", Duration::from_millis(40));

        assert!(matches!(
            slow.try_claim(JobKind::Verify, 7),
            Claim::Acquired { .. }
        ));
        // Age the lease so the fast rival may take it over.
        let path = slow.lease_path(JobKind::Verify, 7);
        fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .set_modified(SystemTime::now() - Duration::from_secs(10))
            .unwrap();
        assert!(matches!(
            fast.try_claim(JobKind::Verify, 7),
            Claim::Acquired {
                generation: 1,
                takeover: true
            }
        ));
        // The slow owner's release must notice the loss and leave the
        // usurper's lease in place.
        assert!(!slow.release(JobKind::Verify, 7));
        assert_eq!(slow.stats().lost, 1);
        assert!(path.exists(), "usurper's lease must survive");
        assert!(fast.release(JobKind::Verify, 7));
    }

    #[test]
    fn drop_releases_held_leases() {
        let (_dir, store) = tmp_store("drop");
        let path;
        {
            let m = LeaseManager::new(store.clone(), "m", Duration::from_secs(30));
            assert!(matches!(
                m.try_claim(JobKind::Parse, 1),
                Claim::Acquired { .. }
            ));
            path = m.lease_path(JobKind::Parse, 1);
            assert!(path.exists());
        }
        assert!(!path.exists(), "drop must release held leases");
    }

    #[test]
    fn generation_parsing_tolerates_garbage() {
        assert_eq!(
            parse_generation("gnnunlock-lease owner=a pid=2 gen=17\n"),
            17
        );
        assert_eq!(parse_generation(""), 0);
        assert_eq!(parse_generation("gen=notanumber"), 0);
        assert_eq!(parse_generation("half a line with no ge"), 0);
    }
}
