//! Object-store backend: the [`StoreBackend`] obligations discharged
//! over a minimal blob API — no renames, no hard links, no real
//! directories.
//!
//! [`ObjectStoreBackend`] is an in-process conditional-put object store
//! (S3-shaped): every key maps to bytes plus a monotonically increasing
//! **ETag**, and the only primitives are `get` / `put` /
//! `put_if_absent` / `delete_if_match` / `delete` / prefix listing. The
//! trait maps onto those primitives:
//!
//! - **publish** — an unconditional put: the blob PUT is atomic at the
//!   service, so last-writer-wins atomicity is free (there is no torn
//!   upload under the final key);
//! - **claim** — `put_if_absent`: the service accepts exactly one
//!   creator per key, which *is* the exactly-one-winner obligation;
//! - **entomb** — an ETag-conditional swap instead of a rename: read
//!   the victim's bytes + ETag, copy them to the tomb key, then
//!   `delete_if_match` on the observed ETag. The conditional delete is
//!   the arbitration point — concurrent challengers observe the same
//!   ETag and exactly one delete can match it; losers clean up their
//!   tomb copy and fail as if the source were gone.
//!
//! It holds its blobs in process memory, so nothing survives the
//! process and no other process can share them: it is test support,
//! exported as [`crate::testing::ObjectStoreBackend`], and no
//! production path selects it. The map injects no faults of its own:
//! tests wrap it in [`crate::testing::Faulty`], the same decorator that
//! injects faults into [`crate::LocalDirBackend`].

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::SystemTime;

use crate::backend::{FileMeta, StoreBackend};

#[derive(Debug, Clone)]
struct Blob {
    bytes: Vec<u8>,
    etag: u64,
    mtime: SystemTime,
}

/// [`StoreBackend`] over an in-process conditional-put blob map: keys
/// are opaque paths, every write allocates a fresh process-unique ETag,
/// and the conditional primitives arbitrate concurrent writers the way
/// a real object store's preconditions do. See the [module docs](self)
/// for how each obligation maps onto the blob API.
#[derive(Debug, Default)]
pub struct ObjectStoreBackend {
    blobs: Mutex<BTreeMap<PathBuf, Blob>>,
    etag_seq: AtomicU64,
}

impl ObjectStoreBackend {
    /// An empty bucket.
    pub fn new() -> Self {
        ObjectStoreBackend::default()
    }

    fn blob(&self, bytes: &[u8]) -> Blob {
        Blob {
            bytes: bytes.to_vec(),
            etag: self.etag_seq.fetch_add(1, Ordering::Relaxed) + 1,
            mtime: SystemTime::now(),
        }
    }

    /// Bytes + ETag at `key`.
    fn get(&self, key: &Path) -> io::Result<(Vec<u8>, u64)> {
        self.blobs
            .lock()
            .unwrap()
            .get(key)
            .map(|b| (b.bytes.clone(), b.etag))
            .ok_or_else(|| not_found(key))
    }

    /// Unconditional last-writer-wins put; returns the new ETag.
    fn put(&self, key: &Path, bytes: &[u8]) -> u64 {
        let blob = self.blob(bytes);
        let etag = blob.etag;
        self.blobs.lock().unwrap().insert(key.to_path_buf(), blob);
        etag
    }

    /// Create `key` iff absent; [`io::ErrorKind::AlreadyExists`]
    /// otherwise. Returns the new ETag.
    fn put_if_absent(&self, key: &Path, bytes: &[u8]) -> io::Result<u64> {
        let mut blobs = self.blobs.lock().unwrap();
        if blobs.contains_key(key) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("object exists: {}", key.display()),
            ));
        }
        let blob = self.blob(bytes);
        let etag = blob.etag;
        blobs.insert(key.to_path_buf(), blob);
        Ok(etag)
    }

    /// Delete `key` iff its current ETag is `expected` — the
    /// arbitration primitive behind entomb. The loser of a precondition
    /// race fails with [`io::ErrorKind::NotFound`] ("the object you
    /// conditioned on is gone"), matching the loser contract of
    /// `entomb`.
    fn delete_if_match(&self, key: &Path, expected: u64) -> io::Result<()> {
        let mut blobs = self.blobs.lock().unwrap();
        match blobs.get(key) {
            Some(b) if b.etag == expected => {
                blobs.remove(key);
                Ok(())
            }
            _ => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "etag precondition failed (expected {expected}): {}",
                    key.display()
                ),
            )),
        }
    }
}

fn not_found(key: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("no such object: {}", key.display()),
    )
}

impl StoreBackend for ObjectStoreBackend {
    fn name(&self) -> &'static str {
        "object"
    }

    fn ensure_dir(&self, _dir: &Path) -> io::Result<()> {
        // Directories are not real: a prefix exists iff a key under it
        // does.
        Ok(())
    }

    fn publish(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.put(path, bytes);
        Ok(())
    }

    fn claim(&self, path: &Path, content: &[u8]) -> io::Result<()> {
        self.put_if_absent(path, content).map(drop)
    }

    fn entomb(&self, path: &Path, tomb: &Path) -> io::Result<()> {
        // ETag-conditional swap: observe, copy to the tomb key, then
        // conditionally delete the source. The delete_if_match is the
        // exactly-one-winner arbitration — every concurrent challenger
        // observed the same ETag and at most one delete can match it.
        let (bytes, etag) = self.get(path)?;
        self.put(tomb, &bytes);
        if let Err(e) = self.delete_if_match(path, etag) {
            // Lost the arbitration: withdraw our tomb copy so losers
            // leave no trace, and fail as if the source were gone.
            let _ = self.remove(tomb);
            return Err(e);
        }
        Ok(())
    }

    fn load(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.get(path).map(|(bytes, _)| bytes)
    }

    fn contains(&self, path: &Path) -> bool {
        self.blobs.lock().unwrap().contains_key(path)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        match self.blobs.lock().unwrap().remove(path) {
            Some(_) => Ok(()),
            None => Err(not_found(path)),
        }
    }

    fn refresh(&self, path: &Path) -> io::Result<()> {
        // A metadata-only touch (a self-copy in a real store): the ETag
        // is unchanged so a concurrent entomb of a *stale* lease is not
        // spuriously defeated by its own heartbeat probe.
        match self.blobs.lock().unwrap().get_mut(path) {
            Some(b) => {
                b.mtime = SystemTime::now();
                Ok(())
            }
            None => Err(not_found(path)),
        }
    }

    fn mtime(&self, path: &Path) -> io::Result<SystemTime> {
        self.blobs
            .lock()
            .unwrap()
            .get(path)
            .map(|b| b.mtime)
            .ok_or_else(|| not_found(path))
    }

    fn list(&self, dir: &Path, recursive: bool) -> io::Result<Vec<FileMeta>> {
        // Prefix listing, the only enumeration an object store has.
        let blobs = self.blobs.lock().unwrap();
        Ok(blobs
            .iter()
            .filter(|(p, _)| {
                if recursive {
                    p.starts_with(dir) && p.as_path() != dir
                } else {
                    p.parent() == Some(dir)
                }
            })
            .map(|(p, b)| FileMeta {
                path: p.clone(),
                len: b.bytes.len() as u64,
                mtime: b.mtime,
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn conditional_puts_arbitrate_on_etags() {
        let bucket = ObjectStoreBackend::new();
        let key = Path::new("/bucket/k");
        let e1 = bucket.put_if_absent(key, b"one").unwrap();
        assert_eq!(
            bucket.put_if_absent(key, b"two").unwrap_err().kind(),
            io::ErrorKind::AlreadyExists
        );
        let e2 = bucket.put(key, b"two");
        assert!(e2 > e1, "every write allocates a fresh etag");
        // A writer still holding the stale etag loses.
        assert!(bucket.delete_if_match(key, e1).is_err());
        bucket.delete_if_match(key, e2).unwrap();
        assert!(!bucket.contains(key));
    }

    #[test]
    fn touch_refreshes_mtime_without_changing_the_etag() {
        let bucket = ObjectStoreBackend::new();
        let key = Path::new("/bucket/k");
        let etag = bucket.put_if_absent(key, b"x").unwrap();
        bucket.blobs.lock().unwrap().get_mut(key).unwrap().mtime -= Duration::from_secs(100);
        let before = bucket.mtime(key).unwrap();
        bucket.refresh(key).unwrap();
        assert!(bucket.mtime(key).unwrap() > before);
        assert_eq!(
            bucket.get(key).unwrap().1,
            etag,
            "refresh must not defeat entomb etags"
        );
    }

    #[test]
    fn entomb_swap_is_exactly_one_winner_with_no_loser_debris() {
        let backend = Arc::new(ObjectStoreBackend::new());
        let path = PathBuf::from("/bucket/objects/x.lease");
        backend.claim(&path, b"victim content\n").unwrap();
        let backend = &backend;
        let path = &path;
        let winners: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..6)
                .map(|i| {
                    let tomb = path.with_file_name(format!("x.lease.tomb-{i}"));
                    s.spawn(move || match backend.entomb(path, &tomb) {
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
        assert_eq!(winners, 1, "exactly one conditional delete can match");
        assert!(!backend.contains(path));
        // Losers withdrew their tomb copies: exactly one tomb remains.
        let tombs = backend
            .list(Path::new("/bucket"), true)
            .unwrap()
            .into_iter()
            .filter(|m| m.path.to_string_lossy().contains(".tomb-"))
            .count();
        assert_eq!(tombs, 1, "losers must leave no tomb debris");
    }
}
