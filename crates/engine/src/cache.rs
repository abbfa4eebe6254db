//! Content-addressed result cache: an in-memory tier with an optional
//! on-disk tier behind it.
//!
//! Results are keyed on `(JobKind, fingerprint)` where the fingerprint is
//! a content hash of everything that determines the job's output (scheme,
//! benchmark, key size, seed, scale, hyperparameters…). Sharing one cache
//! across [`crate::Executor`] runs lets repeated campaigns skip redundant
//! locking / synthesis / dataset / training work entirely; attaching a
//! [`DiskStore`] + [`ValueCodec`] (see [`ResultCache::with_disk`])
//! extends that reuse across *processes* sharing a cache directory.
//!
//! The disk tier inherits its [`crate::StoreBackend`] from the attached
//! [`DiskStore`]: every persist and disk probe goes through the store's
//! backend, so a cache built on a [`DiskStore::open_with_backend`]
//! handle runs entirely against that backend with no cache-side
//! plumbing — including fault injection via
//! [`crate::testing::Faulty`], which the cache tolerates the same way
//! it tolerates real I/O errors: persistence is best-effort, the
//! memory tier stays authoritative.

use crate::codec::ValueCodec;
use crate::graph::{JobKind, JobValue};
use crate::store::DiskStore;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Where a cache lookup was satisfied (recorded per job; provenance is
/// excluded from deterministic reports so cold, warm and resumed runs
/// stay byte-identical).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheSource {
    /// Not served from the cache — the job body executed.
    None,
    /// Served from the in-process memory tier.
    Memory,
    /// Served from the on-disk store.
    Disk,
}

impl CacheSource {
    /// Stable lowercase tag for provenance reports and events.
    pub fn tag(&self) -> &'static str {
        match self {
            CacheSource::None => "none",
            CacheSource::Memory => "memory",
            CacheSource::Disk => "disk",
        }
    }

    /// Whether this is a cache hit of any tier.
    pub fn is_hit(&self) -> bool {
        !matches!(self, CacheSource::None)
    }
}

/// Monotonic counters describing cache effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served by the memory tier.
    pub hits: usize,
    /// Lookups served by the disk tier (decoded and promoted to memory).
    pub disk_hits: usize,
    /// Lookups that found nothing in any tier.
    pub misses: usize,
    /// Values stored in the memory tier.
    pub insertions: usize,
    /// Values persisted to the disk tier.
    pub persisted: usize,
}

/// Thread-safe content-addressed cache of job results.
#[derive(Default)]
pub struct ResultCache {
    map: Mutex<HashMap<(JobKind, u64), JobValue>>,
    disk: Option<(Arc<DiskStore>, Arc<dyn ValueCodec>)>,
    hits: AtomicUsize,
    disk_hits: AtomicUsize,
    misses: AtomicUsize,
    insertions: AtomicUsize,
    persisted: AtomicUsize,
}

impl ResultCache {
    /// An empty in-memory cache.
    pub fn new() -> Self {
        ResultCache::default()
    }

    /// An empty cache backed by an on-disk store. Values the `codec`
    /// declines to encode live in the memory tier only.
    pub fn with_disk(store: Arc<DiskStore>, codec: Arc<dyn ValueCodec>) -> Self {
        ResultCache {
            disk: Some((store, codec)),
            ..ResultCache::default()
        }
    }

    /// The attached disk store, if any.
    pub fn store(&self) -> Option<&Arc<DiskStore>> {
        self.disk.as_ref().map(|(s, _)| s)
    }

    /// Look up a result together with the tier that served it. A disk
    /// hit is decoded and promoted into the memory tier.
    pub fn lookup(&self, kind: JobKind, fingerprint: u64) -> Option<(JobValue, CacheSource)> {
        if let Some(v) = self.map.lock().unwrap().get(&(kind, fingerprint)).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some((v, CacheSource::Memory));
        }
        if let Some((store, codec)) = &self.disk {
            if let Some(bytes) = store.load(kind, fingerprint) {
                if let Some(value) = codec.decode(kind, &bytes) {
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    self.map
                        .lock()
                        .unwrap()
                        .insert((kind, fingerprint), value.clone());
                    return Some((value, CacheSource::Disk));
                }
                // Structurally intact entry the codec doesn't recognize
                // (e.g. written by a different pipeline): evict it and
                // recompute, so the subsequent put can persist a
                // readable replacement (put skips the disk write when
                // an entry file is already present).
                store.evict_entry(kind, fingerprint);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Look up a result, counting a hit or miss.
    pub fn get(&self, kind: JobKind, fingerprint: u64) -> Option<JobValue> {
        self.lookup(kind, fingerprint).map(|(v, _)| v)
    }

    /// Store a result (last writer wins; values are cheap `Arc` clones).
    /// With a disk tier attached, encodable values are also persisted —
    /// best-effort: an I/O failure leaves the memory tier authoritative
    /// and is visible in [`crate::StoreStats::save_errors`]. An entry a
    /// peer process already published is not re-written (deterministic
    /// jobs make same-address entries byte-identical), only pinned into
    /// this run's GC live set.
    pub fn put(&self, kind: JobKind, fingerprint: u64, value: JobValue) {
        self.insertions.fetch_add(1, Ordering::Relaxed);
        self.map
            .lock()
            .unwrap()
            .insert((kind, fingerprint), value.clone());
        if let Some((store, codec)) = &self.disk {
            if store.contains(kind, fingerprint) {
                store.mark_live(kind, fingerprint);
            } else if let Some(bytes) = codec.encode(kind, &value) {
                if store.save(kind, fingerprint, &bytes).is_ok() {
                    self.persisted.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Number of entries in the memory tier.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// Whether the memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            persisted: self.persisted.load(Ordering::Relaxed),
        }
    }

    /// Drop all memory-tier entries (counters and disk entries are
    /// preserved).
    pub fn clear(&self) {
        self.map.lock().unwrap().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::StringCodec;
    use std::sync::Arc;

    #[test]
    fn hit_miss_and_insert_counters() {
        let cache = ResultCache::new();
        assert!(cache.get(JobKind::Lock, 1).is_none());
        cache.put(JobKind::Lock, 1, Arc::new(42u64));
        let (v, src) = cache.lookup(JobKind::Lock, 1).expect("hit");
        assert_eq!(*v.downcast::<u64>().unwrap(), 42);
        assert_eq!(src, CacheSource::Memory);
        // Same fingerprint under a different kind is a different entry.
        assert!(cache.get(JobKind::Train, 1).is_none());
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                disk_hits: 0,
                misses: 2,
                insertions: 1,
                persisted: 0,
            }
        );
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn disk_tier_survives_memory_clear() {
        let dir = crate::testing::TempDir::new("cache-disk-tier");
        let store = Arc::new(DiskStore::open(&dir).unwrap());
        let cache = ResultCache::with_disk(store.clone(), Arc::new(StringCodec));

        cache.put(JobKind::Train, 5, Arc::new("hello".to_string()));
        assert_eq!(store.stats().saves, 1);
        // Memory tier serves first…
        assert_eq!(
            cache.lookup(JobKind::Train, 5).unwrap().1,
            CacheSource::Memory
        );
        // …and after a clear (≈ a new process) the disk tier takes over.
        cache.clear();
        let (v, src) = cache.lookup(JobKind::Train, 5).expect("disk hit");
        assert_eq!(src, CacheSource::Disk);
        assert_eq!(v.downcast_ref::<String>().unwrap(), "hello");
        // The disk hit was promoted to memory.
        assert_eq!(
            cache.lookup(JobKind::Train, 5).unwrap().1,
            CacheSource::Memory
        );
        assert_eq!(cache.stats().disk_hits, 1);
        // Unencodable values (not Strings) stay memory-only.
        cache.put(JobKind::Lock, 6, Arc::new(42u64));
        assert_eq!(store.stats().saves, 1);
    }
}
