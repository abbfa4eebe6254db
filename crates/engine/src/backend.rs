//! Pluggable store backends: the atomicity obligations of the
//! persistence + coordination substrate, as a trait.
//!
//! [`crate::DiskStore`] and [`crate::LeaseManager`] are built from a
//! small set of filesystem tricks — write-then-rename publish,
//! create-new lease claims, rename-arbitrated takeover. [`StoreBackend`]
//! names those tricks as trait obligations so the engine's correctness
//! argument is stated once, against the trait, and every backend either
//! honors the contract or is a bug:
//!
//! - [`StoreBackend::publish`] — **atomic last-writer-wins**: a reader
//!   observes either no file or one writer's complete bytes, never a
//!   torn mixture, whatever the crash/interleaving;
//! - [`StoreBackend::claim`] — **exactly-one-winner create**: among any
//!   number of concurrent claimants of one path, exactly one succeeds
//!   and the rest fail with [`io::ErrorKind::AlreadyExists`];
//! - [`StoreBackend::entomb`] — **rename-arbitrated takeover**: among
//!   concurrent renames of one source path, exactly one wins; losers
//!   fail (the file is gone).
//!
//! One substrate ships: [`LocalDirBackend`], the original
//! `DiskStore`/`LeaseManager` filesystem code moved behind the trait,
//! byte-for-byte compatible with stores written before the trait
//! existed. The test support module holds a second one,
//! [`crate::testing::ObjectStoreBackend`], which discharges the same
//! obligations over an in-memory blob map with no renames and no hard
//! links: publish is a last-writer-wins put, claim is `put_if_absent`,
//! and entomb is an ETag-conditional swap (copy to the tomb key, then
//! delete-if-match on the observed ETag — exactly one challenger's
//! conditional delete can win).
//!
//! Fault injection is not a backend but a decorator over either one:
//! [`crate::testing::Faulty`] applies a deterministic, seeded fault
//! schedule (crashed writers, torn reads/writes, NFS-style delayed
//! visibility, transient and service-shaped errors) at the trait
//! boundary, which turns the crash/takeover test matrix from
//! timing-dependent SIGKILL choreography into fast exhaustive tests —
//! on real directories as well as on the blob map.
//!
//! Backend selection: explicit (`ShardConfig::with_backend`,
//! `DaemonConfig::with_store_backend`, `DiskStore::open_with_backend`)
//! or, by default, a [`LocalDirBackend`]. Whatever the selection,
//! [`crate::DiskStore`] wraps the backend in the
//! [`crate::resilience`] layer — deterministic retries, a per-backend
//! circuit breaker, and a publish spill queue.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime};

/// One file's metadata as reported by [`StoreBackend::list`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// Full path of the file (under the listed directory).
    pub path: PathBuf,
    /// File length in bytes.
    pub len: u64,
    /// Last-modified time — the LRU/staleness clock every cooperating
    /// process shares.
    pub mtime: SystemTime,
}

/// The atomicity obligations of a store + lease substrate: each
/// method's doc states the contract it must honor, and every backend
/// either honors them or is a bug.
///
/// All paths are absolute-or-relative paths *as the engine computes
/// them*; a backend is free to treat them as opaque keys (the object
/// backend does) as long as prefix/parent relationships still hold for
/// [`StoreBackend::list`].
pub trait StoreBackend: Send + Sync + std::fmt::Debug {
    /// Short stable name for diagnostics (`"local"`, `"object"`).
    fn name(&self) -> &'static str;

    /// Ensure `dir` exists (no-op where directories aren't real).
    fn ensure_dir(&self, dir: &Path) -> io::Result<()>;

    /// Atomically materialize `bytes` at `path` (last writer wins).
    /// Readers must never observe a torn mixture under `path`; a
    /// crashed publish may leave an orphaned `.tmp-*` sibling but never
    /// a partial file under the final name. Creates parent directories.
    fn publish(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Create `path` holding exactly `content` iff it does not already
    /// exist: among concurrent claimants exactly one succeeds, the rest
    /// fail with [`io::ErrorKind::AlreadyExists`]. Creates parent
    /// directories.
    fn claim(&self, path: &Path, content: &[u8]) -> io::Result<()>;

    /// Atomically rename `path` to `tomb`: among concurrent entombers
    /// of one `path`, exactly one wins; losers fail (typically
    /// [`io::ErrorKind::NotFound`]).
    fn entomb(&self, path: &Path, tomb: &Path) -> io::Result<()>;

    /// Read the full contents of `path`.
    fn load(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Whether `path` currently exists (a cheap probe, no validation).
    fn contains(&self, path: &Path) -> bool;

    /// Delete `path`.
    fn remove(&self, path: &Path) -> io::Result<()>;

    /// Refresh `path`'s mtime to now — the heartbeat / LRU-touch
    /// primitive.
    fn refresh(&self, path: &Path) -> io::Result<()>;

    /// `path`'s last-modified time.
    fn mtime(&self, path: &Path) -> io::Result<SystemTime>;

    /// The files under `dir` — direct children only, or the whole
    /// subtree when `recursive`. A missing directory lists as empty.
    fn list(&self, dir: &Path, recursive: bool) -> io::Result<Vec<FileMeta>>;

    /// Park the caller for `pause` between retry attempts — the clock
    /// every wait of the [`crate::resilience`] layer goes through.
    /// Substrate-backed backends really sleep; the
    /// [`crate::testing::Faulty`] decorator advances a virtual clock
    /// instead (the `age()`-style mtime doctoring applied to time
    /// itself), which is what lets the whole retry/breaker matrix run
    /// timing-free.
    fn backoff_wait(&self, pause: Duration) {
        std::thread::sleep(pause);
    }

    /// Whether the backend is currently degraded — its resilience
    /// wrapper tripped the circuit breaker open and operations fail
    /// fast instead of reaching the substrate. Plain backends are never
    /// degraded; only [`crate::ResilientBackend`] overrides this.
    fn degraded(&self) -> bool {
        false
    }
}

/// Whether an I/O error kind is transient — worth retrying rather than
/// treating as a verdict (entry corrupt, lease lost). Shared by the
/// store's load path and the lease readers.
pub(crate) fn is_transient_kind(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted | io::ErrorKind::TimedOut
    )
}

/// Process-wide counter making `.tmp-<pid>-<n>` staging names unique
/// across every handle in this process, not just within one.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The production backend: real directories, write-then-rename publish,
/// `O_CREAT|O_EXCL`-style claims, `rename(2)` arbitration. Byte-for-byte
/// compatible with store directories written before [`StoreBackend`]
/// existed.
#[derive(Debug, Default)]
pub struct LocalDirBackend;

impl LocalDirBackend {
    /// A local-directory backend.
    pub fn new() -> Self {
        LocalDirBackend
    }

    fn staging_name(prefix: &str) -> String {
        format!(
            ".tmp-{prefix}{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        )
    }
}

impl StoreBackend for LocalDirBackend {
    fn name(&self) -> &'static str {
        "local"
    }

    fn ensure_dir(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn publish(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let dir = path.parent().unwrap_or(Path::new("."));
        fs::create_dir_all(dir)?;
        // Unique-per-(process, call) temp name so concurrent writers of
        // the same path never clobber each other's half-written files;
        // the final rename is atomic and last-writer-wins.
        let tmp = dir.join(Self::staging_name(""));
        let write = (|| {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
            fs::rename(&tmp, path)
        })();
        if write.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        write
    }

    fn claim(&self, path: &Path, content: &[u8]) -> io::Result<()> {
        let dir = path.parent().unwrap_or(Path::new("."));
        fs::create_dir_all(dir)?;
        // Stage the full content first, then link it under the claimed
        // name: `link(2)` fails with EEXIST if the path exists, so the
        // claim stays exactly-one-winner *and* no reader can ever see a
        // half-written claim file (the create-new-then-write protocol
        // this replaces had a torn window between create and write).
        // The staging name reuses the `.tmp-` prefix so a claimant
        // crashed mid-stage is collected by the regular orphan sweep.
        let staged = dir.join(Self::staging_name("claim-"));
        fs::write(&staged, content)?;
        let linked = fs::hard_link(&staged, path);
        let _ = fs::remove_file(&staged);
        match linked {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Err(e),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::Unsupported | io::ErrorKind::PermissionDenied
                ) =>
            {
                // Filesystems without hard links: fall back to the
                // legacy create-new + write protocol (still exactly one
                // winner; readers tolerate the torn window).
                let mut f = fs::OpenOptions::new()
                    .write(true)
                    .create_new(true)
                    .open(path)?;
                f.write_all(content)
            }
            Err(e) => Err(e),
        }
    }

    fn entomb(&self, path: &Path, tomb: &Path) -> io::Result<()> {
        fs::rename(path, tomb)
    }

    fn load(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn contains(&self, path: &Path) -> bool {
        path.exists()
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn refresh(&self, path: &Path) -> io::Result<()> {
        fs::OpenOptions::new()
            .append(true)
            .open(path)?
            .set_modified(SystemTime::now())
    }

    fn mtime(&self, path: &Path) -> io::Result<SystemTime> {
        fs::metadata(path)?.modified()
    }

    fn list(&self, dir: &Path, recursive: bool) -> io::Result<Vec<FileMeta>> {
        fn walk(dir: &Path, recursive: bool, out: &mut Vec<FileMeta>) {
            let Ok(entries) = fs::read_dir(dir) else {
                return;
            };
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() {
                    if recursive {
                        walk(&path, recursive, out);
                    }
                } else if let Ok(meta) = entry.metadata() {
                    out.push(FileMeta {
                        path,
                        len: meta.len(),
                        mtime: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
                    });
                }
            }
        }
        let mut out = Vec::new();
        walk(dir, recursive, &mut out);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{Faulty, ObjectStoreBackend, TempDir};
    use std::sync::Arc;

    /// Both substrates, plus the rule-free fault decorator over a real
    /// directory, each under its own root.
    fn backends(tag: &str) -> Vec<(Arc<dyn StoreBackend>, TempDir)> {
        vec![
            (
                Arc::new(LocalDirBackend::new()),
                TempDir::new(&format!("backend-{tag}")),
            ),
            (
                Arc::new(ObjectStoreBackend::new()),
                TempDir::new(&format!("backend-{tag}")),
            ),
            (
                Arc::new(Faulty::new(LocalDirBackend::new())),
                TempDir::new(&format!("backend-{tag}")),
            ),
        ]
    }

    #[test]
    fn publish_is_atomic_last_writer_wins() {
        for (backend, root) in backends("publish") {
            let path = root.join("objects/a/entry.bin");
            backend.publish(&path, b"first").unwrap();
            assert_eq!(backend.load(&path).unwrap(), b"first");
            backend.publish(&path, b"second, longer").unwrap();
            assert_eq!(backend.load(&path).unwrap(), b"second, longer");
            assert!(backend.contains(&path));
            // No staging debris after successful publishes.
            let leftovers: Vec<_> = backend
                .list(path.parent().unwrap(), false)
                .unwrap()
                .into_iter()
                .filter(|m| m.path != path)
                .collect();
            assert!(leftovers.is_empty(), "{}: {leftovers:?}", backend.name());
        }
    }

    #[test]
    fn claim_has_exactly_one_winner_under_contention() {
        for (backend, root) in backends("claim") {
            let path = root.join("objects/a/entry.lease");
            let backend = &backend;
            let winners: usize = std::thread::scope(|s| {
                let handles: Vec<_> = (0..8)
                    .map(|i| {
                        let path = path.clone();
                        s.spawn(move || {
                            match backend.claim(&path, format!("owner={i}\n").as_bytes()) {
                                Ok(()) => 1usize,
                                Err(e) => {
                                    assert_eq!(
                                        e.kind(),
                                        io::ErrorKind::AlreadyExists,
                                        "loser must see AlreadyExists, got {e:?}"
                                    );
                                    0
                                }
                            }
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).sum()
            });
            assert_eq!(winners, 1, "{}: exactly one claimant wins", backend.name());
            // The winner's content is complete (never torn).
            let content = backend.load(&path).unwrap();
            assert!(content.starts_with(b"owner=") && content.ends_with(b"\n"));
        }
    }

    #[test]
    fn entomb_has_exactly_one_winner_and_preserves_content() {
        for (backend, root) in backends("entomb") {
            let path = root.join("objects/a/entry.lease");
            backend.claim(&path, b"victim content\n").unwrap();
            let backend = &backend;
            let winners: usize = std::thread::scope(|s| {
                let handles: Vec<_> = (0..6)
                    .map(|i| {
                        let path = path.clone();
                        let tomb = path.with_file_name(format!("entry.lease.tomb-{i}"));
                        s.spawn(move || match backend.entomb(&path, &tomb) {
                            Ok(()) => {
                                assert_eq!(backend.load(&tomb).unwrap(), b"victim content\n");
                                1usize
                            }
                            Err(_) => 0,
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).sum()
            });
            assert_eq!(winners, 1, "{}: exactly one entomber wins", backend.name());
            assert!(!backend.contains(&path), "source gone after entomb");
        }
    }

    #[test]
    fn refresh_and_mtime_round_trip() {
        for (backend, root) in backends("refresh") {
            let path = root.join("x.lease");
            backend.claim(&path, b"c").unwrap();
            let before = backend.mtime(&path).unwrap();
            std::thread::sleep(Duration::from_millis(15));
            backend.refresh(&path).unwrap();
            let after = backend.mtime(&path).unwrap();
            assert!(
                after > before,
                "{}: refresh must advance mtime",
                backend.name()
            );
            assert!(backend.refresh(&root.join("missing")).is_err());
        }
    }

    #[test]
    fn list_is_scoped_and_recursive_when_asked() {
        for (backend, root) in backends("list") {
            backend
                .publish(&root.join("objects/k/aa/1.bin"), b"one")
                .unwrap();
            backend
                .publish(&root.join("objects/k/aa/2.bin"), b"two")
                .unwrap();
            backend
                .publish(&root.join("objects/k/bb/3.bin"), b"three")
                .unwrap();
            backend.publish(&root.join("outside.bin"), b"x").unwrap();
            let all = backend.list(&root.join("objects"), true).unwrap();
            assert_eq!(all.len(), 3, "{}", backend.name());
            let direct = backend.list(&root.join("objects/k/aa"), false).unwrap();
            assert_eq!(direct.len(), 2);
            assert!(direct.iter().all(|m| m.len > 0));
            let missing = backend.list(&root.join("nope"), true).unwrap();
            assert!(missing.is_empty());
        }
    }
}
