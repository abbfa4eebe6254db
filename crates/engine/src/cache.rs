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
//! A disk hit is a *verified entry*: the probe checks its header, length
//! and checksum (a corrupt entry is evicted and reported as a miss, in
//! the run that finds it), but the payload stays encoded. Its value
//! decodes on first read — when a dependent job runs, when
//! [`crate::RunOutcome::value`] is called, or in [`ResultCache::lookup`]
//! — once, however many readers ask. A warm re-run therefore pays for
//! reading and checking its entries, not for rebuilding values nobody
//! reads. A payload the codec cannot decode is evicted when that first
//! read finds it: the reader sees no value, and the next run recomputes
//! the job.
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
use crate::store::{DiskStore, Entry};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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
    /// Lookups served by a verified disk entry (promoted to memory; its
    /// value decodes on first read).
    pub disk_hits: usize,
    /// Lookups that found nothing in any tier, plus [`ResultCache::lookup`]s
    /// whose disk entry the codec could not decode.
    pub misses: usize,
    /// Values stored in the memory tier.
    pub insertions: usize,
    /// Values persisted to the disk tier.
    pub persisted: usize,
}

/// A cached job value: decoded, or a verified disk entry whose value
/// decodes on first read. Clones share one decode.
#[derive(Clone)]
pub(crate) enum Slot {
    /// A value in hand (computed by this process, or already decoded).
    Value(JobValue),
    /// A disk hit, still encoded.
    Disk(Arc<DiskValue>),
}

/// A disk hit: the verified entry, what decoding and evicting it needs,
/// and the value once the first read has decoded it (`None` inside
/// when the codec could not).
pub(crate) struct DiskValue {
    kind: JobKind,
    fingerprint: u64,
    entry: Entry,
    store: Arc<DiskStore>,
    codec: Arc<dyn ValueCodec>,
    value: OnceLock<Option<JobValue>>,
}

impl Slot {
    /// The value, decoding a disk entry on the first read (once, however
    /// many threads ask). A payload the codec cannot decode is evicted
    /// from the store, and the error names the entry.
    pub(crate) fn read(&self) -> Result<JobValue, String> {
        let disk = match self {
            Slot::Value(value) => return Ok(value.clone()),
            Slot::Disk(disk) => disk,
        };
        disk.value
            .get_or_init(|| {
                let value = disk.codec.decode(disk.kind, disk.entry.payload());
                if value.is_none() {
                    disk.store.evict_entry(disk.kind, disk.fingerprint);
                }
                value
            })
            .clone()
            .ok_or_else(|| {
                format!(
                    "stored {} entry {:016x} could not be decoded and was evicted",
                    disk.kind.tag(),
                    disk.fingerprint
                )
            })
    }

    /// Whether a read found the payload undecodable (and evicted it).
    fn unreadable(&self) -> bool {
        matches!(self, Slot::Disk(disk) if matches!(disk.value.get(), Some(None)))
    }
}

/// Thread-safe content-addressed cache of job results.
#[derive(Default)]
pub struct ResultCache {
    map: Mutex<HashMap<(JobKind, u64), Slot>>,
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

    /// Probe the tiers for a result: the memory tier, then the disk
    /// tier, whose hit is a verified entry (header, length and checksum
    /// checked; corrupt entries are evicted and missed) that is promoted
    /// to memory still encoded. A slot a failed read left unreadable is
    /// dropped from memory, so the job recomputes.
    pub(crate) fn probe(&self, kind: JobKind, fingerprint: u64) -> Option<(Slot, CacheSource)> {
        {
            let mut map = self.map.lock().unwrap();
            match map.get(&(kind, fingerprint)) {
                Some(slot) if !slot.unreadable() => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some((slot.clone(), CacheSource::Memory));
                }
                Some(_) => {
                    map.remove(&(kind, fingerprint));
                }
                None => {}
            }
        }
        if let Some((store, codec)) = &self.disk {
            if let Some(entry) = store.load_entry(kind, fingerprint) {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                let slot = Slot::Disk(Arc::new(DiskValue {
                    kind,
                    fingerprint,
                    entry,
                    store: store.clone(),
                    codec: codec.clone(),
                    value: OnceLock::new(),
                }));
                self.map
                    .lock()
                    .unwrap()
                    .insert((kind, fingerprint), slot.clone());
                return Some((slot, CacheSource::Disk));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Look up a result together with the tier that served it: the
    /// probe, then a read of the value, which decodes a disk hit. A
    /// payload the codec cannot decode is evicted and counted as a miss.
    pub fn lookup(&self, kind: JobKind, fingerprint: u64) -> Option<(JobValue, CacheSource)> {
        let (slot, source) = self.probe(kind, fingerprint)?;
        match slot.read() {
            Ok(value) => Some((value, source)),
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
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
            .insert((kind, fingerprint), Slot::Value(value.clone()));
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

    #[test]
    fn undecodable_disk_hit_is_evicted_on_first_read() {
        let dir = crate::testing::TempDir::new("cache-undecodable");
        let store = Arc::new(DiskStore::open(&dir).unwrap());
        let cache = ResultCache::with_disk(store.clone(), Arc::new(StringCodec));
        // An intact entry whose payload is not UTF-8: it passes the
        // probe's checks and fails its first read.
        store.save(JobKind::Parse, 9, &[0xff, 0xfe]).unwrap();
        let (slot, source) = cache.probe(JobKind::Parse, 9).expect("verified entry");
        assert_eq!(source, CacheSource::Disk);
        assert!(store.contains(JobKind::Parse, 9), "a probe decodes nothing");
        let err = slot.read().unwrap_err();
        assert!(err.contains("parse entry 0000000000000009"), "{err}");
        assert!(!store.contains(JobKind::Parse, 9), "the read evicts it");
        // The memory tier drops the unreadable slot instead of serving it.
        assert!(cache.lookup(JobKind::Parse, 9).is_none());
        // A lookup decodes, so it finds a bad payload at once.
        store.save(JobKind::Parse, 9, &[0xff]).unwrap();
        assert!(cache.get(JobKind::Parse, 9).is_none());
        assert!(!store.contains(JobKind::Parse, 9));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.disk_hits, stats.misses), (0, 2, 2));
        assert_eq!(store.stats().evictions, 2);
    }
}
