//! A versioned, content-addressed on-disk result store.
//!
//! The store is the persistence tier behind [`crate::ResultCache`]: each
//! entry is one file holding the encoded output of a job, addressed by
//! `(job kind, fingerprint)` exactly like the in-memory tier, so
//! campaigns sharing a directory (`GNNUNLOCK_CACHE_DIR`) skip each
//! other's completed work across processes and machines.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/
//!   gnnunlock-store.version      # "gnnunlock-store v1\n" — schema gate
//!   events.jsonl                 # campaign event log (see crate::events)
//!   objects/<kind>/<hh>/<fingerprint as 16 hex>.bin
//!   tenants/<ns>/objects/...     # tenant-namespaced entries (same shape)
//! ```
//!
//! where `<kind>` is the sanitized job-kind tag and `<hh>` the first two
//! hex digits of the fingerprint (a 256-way fan-out so directories stay
//! small at campaign scale).
//!
//! **Tenant namespaces** ([`DiskStore::open_namespaced`]) relocate a
//! handle's entries under `tenants/<ns>/objects/`, so multi-tenant
//! services sharing one root keep each tenant's results (and, since
//! lease files live beside entries, its leases) disjoint: one tenant
//! can never be served — or evicted by — another tenant's bytes.
//! [`gc_roots`] enforces a byte budget across many object roots (a
//! tenant's campaigns), complementing the per-store [`DiskStore::gc`].
//! Both budgets run one rule: least-recently-used `.bin` entries go
//! first (mtime, then path), live or protected entries never go, and
//! protocol files are never billed and collected once hour-stale.
//!
//! Durability and integrity:
//!
//! - **atomic publish** — entries are written to a temporary file in the
//!   same directory and `rename`d into place, so a crashed writer never
//!   leaves a half-written entry under the final name;
//! - **corruption detection** — every entry carries a header (magic,
//!   schema version, kind tag, fingerprint, payload length, FNV-1a
//!   checksum). A mismatched or truncated entry is *evicted* (deleted)
//!   and reported as a miss, so readers recompute instead of trusting
//!   bad bytes;
//! - **schema versioning** — the root carries a version file; opening a
//!   store written by an incompatible schema fails loudly instead of
//!   misreading entries.

use crate::backend::{is_transient_kind, FileMeta, LocalDirBackend, StoreBackend};
use crate::graph::{fingerprint, JobKind};
use crate::metrics;
use crate::resilience::{ResilientBackend, RetryPolicy};
use std::collections::HashSet;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime};

/// Environment variable naming the shared on-disk cache directory.
pub const CACHE_DIR_ENV: &str = "GNNUNLOCK_CACHE_DIR";

/// Environment variable bounding the store's total entry bytes: after
/// each persistent campaign run, least-recently-used entries are evicted
/// until the store fits the budget (entries the current process touched
/// are never evicted). Unset or unparsable = no garbage collection.
pub const CACHE_BUDGET_ENV: &str = "GNNUNLOCK_CACHE_BUDGET_BYTES";

/// Environment variable bounding each tenant namespace's total entry
/// bytes in a multi-tenant service (`gnnunlockd`): after a tenant's
/// campaign completes, that tenant's least-recently-used entries are
/// evicted (across all of its campaigns' stores, see [`gc_roots`])
/// until the namespace fits the budget. Unset or unparsable = no
/// per-tenant garbage collection. Orthogonal to [`CACHE_BUDGET_ENV`],
/// which bounds one store directory.
pub const TENANT_BUDGET_ENV: &str = "GNNUNLOCK_TENANT_BUDGET_BYTES";

/// Contents of the store's version file. Bump the `v1` when the entry
/// format changes incompatibly.
const VERSION_TEXT: &str = "gnnunlock-store v1\n";
const VERSION_FILE: &str = "gnnunlock-store.version";
/// Magic prefix of every entry file (includes the entry-format version).
const ENTRY_MAGIC: &[u8; 8] = b"GNNUCV1\n";

/// Monotonic counters describing store traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Entries read back successfully.
    pub loads: usize,
    /// Lookups that found no entry.
    pub misses: usize,
    /// Corrupt or truncated entries detected and evicted.
    pub evictions: usize,
    /// Entries written.
    pub saves: usize,
    /// Writes that failed with an I/O error (the run continues; the
    /// entry is simply not persisted).
    pub save_errors: usize,
}

/// What one [`DiskStore::gc`] or [`gc_roots`] sweep did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Entry bytes on disk before the sweep.
    pub bytes_before: u64,
    /// Entry bytes on disk after the sweep.
    pub bytes_after: u64,
    /// Entries evicted.
    pub evicted_entries: usize,
    /// Protected entries the sweep found, whether or not it had to
    /// evict: the handle's live set for [`DiskStore::gc`], the entries
    /// under protected roots for [`gc_roots`]. Never evicted.
    pub live_protected: usize,
}

/// A verified entry as [`DiskStore::load`] read it: the entry file's
/// bytes and the payload's range inside them, so a hit keeps the one
/// buffer it read instead of copying the payload out.
#[derive(Debug)]
pub(crate) struct Entry {
    bytes: Vec<u8>,
    payload: Range<usize>,
}

impl Entry {
    /// The verified payload.
    pub(crate) fn payload(&self) -> &[u8] {
        &self.bytes[self.payload.clone()]
    }

    /// The payload as an owned buffer: the entry buffer with its header
    /// cut off, in place.
    fn into_payload(mut self) -> Vec<u8> {
        self.bytes.truncate(self.payload.end);
        self.bytes.drain(..self.payload.start);
        self.bytes
    }
}

/// A content-addressed on-disk store of encoded job results.
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    /// Sanitized tenant namespace; `None` = the default `objects/`
    /// subtree, `Some(ns)` = `tenants/<ns>/objects/`.
    namespace: Option<String>,
    /// The substrate every persistence and coordination primitive goes
    /// through — see [`crate::StoreBackend`].
    backend: Arc<dyn StoreBackend>,
    loads: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
    saves: AtomicUsize,
    save_errors: AtomicUsize,
    /// Entry paths this handle loaded or saved — the live set the
    /// garbage collector must never evict (another process may be
    /// mid-run too, but its entries are recent by construction: every
    /// load refreshes the entry's mtime, so LRU eviction reaches only
    /// entries no active run is using).
    touched: Mutex<HashSet<PathBuf>>,
}

/// Restrict a job-kind tag to `[A-Za-z0-9_-]` so entry paths can never
/// traverse outside the store root, whatever a `JobKind::Custom` tag
/// contains. Empty tags map to `"_"`.
pub fn sanitize_tag(tag: &str) -> String {
    let mut out: String = tag
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.is_empty() {
        out.push('_');
    }
    out
}

impl DiskStore {
    /// Open (creating if necessary) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created, or if it already holds a
    /// store with an incompatible schema version.
    pub fn open(dir: &Path) -> io::Result<DiskStore> {
        Self::open_namespaced(dir, "")
    }

    /// Open the store rooted at `dir` with this handle's entries living
    /// in the tenant namespace `tenant` (`tenants/<ns>/objects/` instead
    /// of `objects/`; the id is sanitized like a job-kind tag, and an
    /// empty id means the default namespace). Handles on different
    /// namespaces of one root share the version gate but never each
    /// other's entries, leases or garbage collection.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`DiskStore::open`].
    pub fn open_namespaced(dir: &Path, tenant: &str) -> io::Result<DiskStore> {
        Self::open_with_backend(dir, tenant, Arc::new(LocalDirBackend::new()))
    }

    /// Open the store rooted at `dir` on an explicit [`StoreBackend`]
    /// instead of the local filesystem. `tenant` selects a namespace
    /// exactly like [`DiskStore::open_namespaced`]; blank means the
    /// default namespace.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`DiskStore::open`].
    pub fn open_with_backend(
        dir: &Path,
        tenant: &str,
        backend: Arc<dyn StoreBackend>,
    ) -> io::Result<DiskStore> {
        let tenant = tenant.trim();
        let namespace = (!tenant.is_empty()).then(|| sanitize_tag(tenant));
        // Every backend runs behind the resilience layer: deterministic
        // transient retries, a circuit breaker, and the publish spill
        // queue.
        let backend: Arc<dyn StoreBackend> = ResilientBackend::wrap(backend);
        backend.ensure_dir(dir)?;
        let version_path = dir.join(VERSION_FILE);
        // The gate runs under the shared RetryPolicy: a torn observation
        // (a strict prefix of the expected text — an NFS-style cache
        // serving a partial page) says nothing about the schema, so it
        // is surfaced as a transient error the policy retries. Only a
        // stable verdict (match, mismatch, hard I/O failure) escapes.
        RetryPolicy::default().run(backend.as_ref(), "version_gate", || {
            match backend.load(&version_path) {
                Ok(found) if found == VERSION_TEXT.as_bytes() => Ok(()),
                Ok(found) if VERSION_TEXT.as_bytes().starts_with(&found[..]) => Err(
                    io::Error::new(io::ErrorKind::Interrupted, "torn version-gate read"),
                ),
                Ok(found) => Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "cache dir {} holds schema {:?}, this build expects {:?}; \
                         use a fresh directory",
                        dir.display(),
                        String::from_utf8_lossy(&found).trim(),
                        VERSION_TEXT.trim()
                    ),
                )),
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    // Publish the version file atomically: N worker
                    // processes may cold-open the same fresh directory
                    // concurrently, and a reader must never observe a
                    // half-written gate and misdiagnose a schema
                    // mismatch. Racing writers publish identical
                    // content — last one wins, harmlessly.
                    backend.publish(&version_path, VERSION_TEXT.as_bytes())
                }
                Err(e) => Err(e),
            }
        })?;
        // Sweep staging temps orphaned in the root by a writer killed
        // mid-version-publish (the budget sweeps only walk object
        // roots, so they would leak otherwise). Age-gated: a concurrent
        // opener's in-flight temp is seconds old and must not be
        // clobbered.
        list_entries(backend.as_ref(), dir, false, true);
        Ok(DiskStore {
            root: dir.to_path_buf(),
            namespace,
            backend,
            loads: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
            saves: AtomicUsize::new(0),
            save_errors: AtomicUsize::new(0),
            touched: Mutex::new(HashSet::new()),
        })
    }

    /// The backend this store (and any [`crate::LeaseManager`] built on
    /// it) runs against.
    pub fn backend(&self) -> &Arc<dyn StoreBackend> {
        &self.backend
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// This handle's tenant namespace (sanitized), if any.
    pub fn namespace(&self) -> Option<&str> {
        self.namespace.as_deref()
    }

    /// The directory this handle's entries live under: `objects/` for
    /// the default namespace, `tenants/<ns>/objects/` for a tenant
    /// namespace. The unit [`gc_roots`] sweeps.
    pub fn objects_root(&self) -> PathBuf {
        match &self.namespace {
            Some(ns) => tenant_objects_root(&self.root, ns),
            None => self.root.join("objects"),
        }
    }

    /// The path an entry for `(kind, fp)` lives at. Always strictly
    /// inside the store root (tags and namespaces are sanitized).
    pub fn entry_path(&self, kind: JobKind, fp: u64) -> PathBuf {
        let hex = format!("{fp:016x}");
        self.objects_root()
            .join(sanitize_tag(kind.tag()))
            .join(&hex[..2])
            .join(format!("{hex}.bin"))
    }

    /// Whether an entry file for `(kind, fp)` exists on disk. A cheap
    /// stat, no validation — a corrupt entry still counts until a
    /// [`DiskStore::load`] detects and evicts it. Used by probe-ahead
    /// scheduling (is a dependent's result already materialized?) and
    /// by [`crate::ResultCache::put`] to skip re-writing entries a peer
    /// process already published (deterministic jobs make same-address
    /// entries byte-identical, so skipping never loses information).
    pub fn contains(&self, kind: JobKind, fp: u64) -> bool {
        self.backend.contains(&self.entry_path(kind, fp))
    }

    /// Pin `(kind, fp)` into this handle's live set (GC protection)
    /// without loading it — used when a `put` is skipped because a peer
    /// already published the identical entry this run still depends on.
    pub(crate) fn mark_live(&self, kind: JobKind, fp: u64) {
        self.touched
            .lock()
            .unwrap()
            .insert(self.entry_path(kind, fp));
    }

    /// Evict the entry for `(kind, fp)` (counted in
    /// [`StoreStats::evictions`]) — used when a verified entry turns
    /// out to be semantically unreadable (the codec cannot decode it
    /// when its value is first read), so the next run's recompute can
    /// save a replacement.
    pub(crate) fn evict_entry(&self, kind: JobKind, fp: u64) {
        self.evict(&self.entry_path(kind, fp));
    }

    /// Load the payload of `(kind, fp)`, verifying the entry header and
    /// checksum. Corrupt or truncated entries are evicted and reported
    /// as a miss.
    pub fn load(&self, kind: JobKind, fp: u64) -> Option<Vec<u8>> {
        self.load_entry(kind, fp).map(Entry::into_payload)
    }

    /// [`DiskStore::load`] without copying the payload out of the
    /// entry buffer it was read into.
    pub(crate) fn load_entry(&self, kind: JobKind, fp: u64) -> Option<Entry> {
        let path = self.entry_path(kind, fp);
        let bytes = match self.backend.load(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                metrics::store_event("misses").inc();
                return None;
            }
            // A transient read error (EAGAIN-style, already retried by
            // the resilience layer) or a degraded fail-fast says
            // nothing about the entry's integrity — report a miss and
            // leave the entry for the retry, instead of evicting a good
            // entry.
            Err(e) if is_transient_kind(e.kind()) || crate::resilience::is_degraded(&e) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                metrics::store_event("misses").inc();
                metrics::store_event("transient_retries").inc();
                return None;
            }
            Err(_) => {
                self.evict(&path);
                return None;
            }
        };
        match Self::verify_entry(kind, fp, &bytes) {
            Some(payload) => {
                self.loads.fetch_add(1, Ordering::Relaxed);
                metrics::store_event("loads").inc();
                // A hit is a *use*: refresh the entry's mtime (the LRU
                // clock shared across processes, best-effort) and pin it
                // into this handle's live set so GC never evicts it.
                let _ = self.backend.refresh(&path);
                self.touched.lock().unwrap().insert(path);
                Some(Entry { bytes, payload })
            }
            None => {
                self.evict(&path);
                None
            }
        }
    }

    /// Persist `payload` for `(kind, fp)` via write-then-rename.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors (callers may treat persistence as
    /// best-effort; [`StoreStats::save_errors`] counts failures either
    /// way).
    pub fn save(&self, kind: JobKind, fp: u64, payload: &[u8]) -> io::Result<()> {
        match self.try_save(kind, fp, payload) {
            Ok(()) => {
                self.saves.fetch_add(1, Ordering::Relaxed);
                metrics::store_event("saves").inc();
                self.touched
                    .lock()
                    .unwrap()
                    .insert(self.entry_path(kind, fp));
                Ok(())
            }
            Err(e) => {
                self.save_errors.fetch_add(1, Ordering::Relaxed);
                metrics::store_event("save_errors").inc();
                Err(e)
            }
        }
    }

    fn try_save(&self, kind: JobKind, fp: u64, payload: &[u8]) -> io::Result<()> {
        let path = self.entry_path(kind, fp);
        let mut entry = Vec::with_capacity(payload.len() + 64);
        entry.extend_from_slice(ENTRY_MAGIC);
        let tag = sanitize_tag(kind.tag());
        entry.extend_from_slice(&(tag.len() as u16).to_le_bytes());
        entry.extend_from_slice(tag.as_bytes());
        entry.extend_from_slice(&fp.to_le_bytes());
        entry.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        entry.extend_from_slice(&fingerprint(payload).to_le_bytes());
        entry.extend_from_slice(payload);
        // The atomic last-writer-wins obligation (staging temp, sync,
        // rename on the local backend) lives in the backend.
        self.backend.publish(&path, &entry)
    }

    /// Validate an entry file against its header: the payload's range
    /// in `bytes`, or `None` when the entry is corrupt.
    fn verify_entry(kind: JobKind, fp: u64, bytes: &[u8]) -> Option<Range<usize>> {
        let mut pos = 0usize;
        // checked_add: the length fields are corruption-controlled, and
        // an overflowing slice bound must read as "corrupt" (evict),
        // not panic in debug builds.
        let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
            let s = bytes.get(*pos..pos.checked_add(n)?)?;
            *pos += n;
            Some(s)
        };
        if take(&mut pos, ENTRY_MAGIC.len())? != ENTRY_MAGIC {
            return None;
        }
        let tag_len = u16::from_le_bytes(take(&mut pos, 2)?.try_into().unwrap()) as usize;
        let tag = take(&mut pos, tag_len)?;
        if tag != sanitize_tag(kind.tag()).as_bytes() {
            return None;
        }
        let stored_fp = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
        if stored_fp != fp {
            return None;
        }
        let payload_len = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap()) as usize;
        let checksum = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
        let start = pos;
        let payload = take(&mut pos, payload_len)?;
        if pos != bytes.len() || fingerprint(payload) != checksum {
            return None;
        }
        Some(start..pos)
    }

    fn evict(&self, path: &Path) {
        let _ = self.backend.remove(path);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        metrics::store_event("corrupt_evictions").inc();
    }

    /// Number of entry files currently on disk (walks the tree; meant
    /// for tests and diagnostics, not hot paths).
    pub fn len(&self) -> usize {
        list_entries(self.backend.as_ref(), &self.objects_root(), true, false).len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total entry bytes currently under this handle's namespace (walks
    /// the tree; quota accounting and diagnostics, not hot paths).
    /// Counts `.bin` entries only — in-flight `.tmp-*` staging files
    /// and `.lease`/`.tomb-*` protocol files never bill a budget.
    pub fn usage_bytes(&self) -> u64 {
        list_entries(self.backend.as_ref(), &self.objects_root(), true, false)
            .iter()
            .map(|m| m.len)
            .sum()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            loads: self.loads.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            saves: self.saves.load(Ordering::Relaxed),
            save_errors: self.save_errors.load(Ordering::Relaxed),
        }
    }

    /// Evict least-recently-used entries until the store's entry bytes
    /// fit `budget_bytes`. Entries this handle loaded or saved (the
    /// current run's live set) are never evicted, even if the live set
    /// alone exceeds the budget. Recency is the entry file's mtime,
    /// which [`DiskStore::load`] refreshes on every hit, so the LRU
    /// order is shared across processes using the same directory.
    pub fn gc(&self, budget_bytes: u64) -> GcStats {
        let entries = list_entries(self.backend.as_ref(), &self.objects_root(), true, true);
        let touched = self.touched.lock().unwrap();
        let entries = entries
            .into_iter()
            .map(|e| (touched.contains(&e.path), e))
            .collect();
        evict_lru(self.backend.as_ref(), entries, budget_bytes)
    }

    /// Run [`DiskStore::gc`] with the budget named by
    /// [`CACHE_BUDGET_ENV`], if set and parsable. `None` when no budget
    /// is configured.
    pub fn gc_from_env(&self) -> Option<GcStats> {
        Some(self.gc(cache_budget_from_env()?))
    }
}

/// The cache-size budget named by [`CACHE_BUDGET_ENV`], if set and
/// parsable as bytes (a malformed value warns via [`crate::env`] and
/// disables garbage collection, visibly rather than silently).
pub fn cache_budget_from_env() -> Option<u64> {
    crate::env::knob(CACHE_BUDGET_ENV, "a byte count")
}

/// The per-tenant byte budget named by [`TENANT_BUDGET_ENV`], if set
/// and parsable (malformed values warn and disable per-tenant GC,
/// visibly rather than silently).
pub fn tenant_budget_from_env() -> Option<u64> {
    crate::env::knob(TENANT_BUDGET_ENV, "a byte count")
}

/// Where tenant namespace `ns` keeps its entries under store root
/// `dir`: `<dir>/tenants/<ns>/objects`, with `ns` sanitized like a
/// job-kind tag. The [`DiskStore::objects_root`] of a handle opened
/// with [`DiskStore::open_namespaced`].
pub fn tenant_objects_root(dir: &Path, ns: &str) -> PathBuf {
    dir.join("tenants").join(sanitize_tag(ns)).join("objects")
}

/// Whether a file name is lease/staging protocol traffic — never
/// billed, and collected by [`list_entries`] once hour-stale:
/// `.tmp-*` staging files (`.gnnunlock-store.version.tmp-*` in store
/// directories of older builds), `.lease` claims and `.tomb-*` takeover
/// arbitration.
fn is_protocol_name(name: &str) -> bool {
    name.starts_with(".tmp-")
        || name.starts_with(".gnnunlock-store.version.tmp-")
        || name.ends_with(".lease")
        || name.contains(".tomb-")
}

/// Orphaned protocol files are collectable after this age: a `.tmp-`
/// staging file this old cannot still be in flight (saves take
/// milliseconds), a `.lease` is far past any takeover TTL (nobody
/// wants its job), and a `.tomb-` was orphaned by a challenger killed
/// mid-takeover. Deleting a lease resets its generation counter to 0,
/// which only costs epoch observability, never correctness.
const ORPHAN_PROTOCOL_AGE: Duration = Duration::from_secs(3600);

/// The `.bin` entries under `root` (its whole subtree when `recursive`,
/// its own files otherwise; none when it is absent) — the only files
/// byte accounting and budget sweeps count or evict. With `sweep`,
/// hour-stale protocol files met on the way are removed, so every
/// sweep reclaims the debris of crashed writers and dead shards.
fn list_entries(
    backend: &dyn StoreBackend,
    root: &Path,
    recursive: bool,
    sweep: bool,
) -> Vec<FileMeta> {
    let now = SystemTime::now();
    let mut entries = Vec::new();
    for meta in backend.list(root, recursive).unwrap_or_default() {
        if meta.path.extension().is_some_and(|e| e == "bin") {
            entries.push(meta);
        } else if sweep
            && meta
                .path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(is_protocol_name)
            && now
                .duration_since(meta.mtime)
                .is_ok_and(|age| age >= ORPHAN_PROTOCOL_AGE)
        {
            let _ = backend.remove(&meta.path);
        }
    }
    entries
}

/// The one eviction rule behind both budgets: given `(protected,
/// entry)` pairs, evict unprotected entries oldest first until the
/// total fits `budget_bytes`. Recency is entry mtime, with the path as
/// tie-breaker so the sweep stays deterministic on filesystems with
/// coarse mtime granularity. Protected entries count toward the bytes
/// but are never evicted.
fn evict_lru(
    backend: &dyn StoreBackend,
    entries: Vec<(bool, FileMeta)>,
    budget_bytes: u64,
) -> GcStats {
    let bytes_before = entries.iter().map(|(_, e)| e.len).sum();
    let mut stats = GcStats {
        bytes_before,
        bytes_after: bytes_before,
        evicted_entries: 0,
        live_protected: entries.iter().filter(|(protected, _)| *protected).count(),
    };
    let mut candidates: Vec<FileMeta> = entries
        .into_iter()
        .filter_map(|(protected, e)| (!protected).then_some(e))
        .collect();
    candidates.sort_by(|a, b| a.mtime.cmp(&b.mtime).then_with(|| a.path.cmp(&b.path)));
    for e in candidates {
        if stats.bytes_after <= budget_bytes {
            break;
        }
        if backend.remove(&e.path).is_ok() {
            stats.bytes_after -= e.len;
            stats.evicted_entries += 1;
        }
    }
    if stats.evicted_entries > 0 {
        metrics::store_gc_evicted().add(stats.evicted_entries as u64);
        metrics::store_gc_reclaimed_bytes().add(stats.bytes_before - stats.bytes_after);
    }
    stats
}

/// Evict least-recently-used entries across several object roots (each
/// an `objects/` directory as returned by [`DiskStore::objects_root`])
/// until their combined bytes fit `budget_bytes` — the multi-store
/// flavor of [`DiskStore::gc`], with the same rule, used for
/// tenant-level quotas that span campaign directories. Entries under a
/// root listed in `protected` count toward the byte accounting but are
/// never evicted (campaigns still running). Every root, protected or
/// not, has its hour-stale protocol files collected: tenant budget
/// sweeps are the only GC that visits daemon-managed campaign
/// directories.
pub fn gc_roots(
    backend: &dyn StoreBackend,
    roots: &[PathBuf],
    protected: &[PathBuf],
    budget_bytes: u64,
) -> GcStats {
    let entries = roots
        .iter()
        .flat_map(|root| list_entries(backend, root, true, true))
        .map(|e| (protected.iter().any(|p| e.path.starts_with(p)), e))
        .collect();
    evict_lru(backend, entries, budget_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{on_each_substrate, Fault, FaultOp, FaultRule, Faulty, TempDir};
    use std::fs;

    #[test]
    fn round_trip_and_miss() {
        let dir = TempDir::new("store-rt");
        let store = DiskStore::open(&dir).unwrap();
        assert!(store.load(JobKind::Train, 42).is_none());
        store.save(JobKind::Train, 42, b"payload").unwrap();
        assert_eq!(store.load(JobKind::Train, 42).unwrap(), b"payload");
        // Different kind or fingerprint: separate address.
        assert!(store.load(JobKind::Lock, 42).is_none());
        assert!(store.load(JobKind::Train, 43).is_none());
        let stats = store.stats();
        assert_eq!((stats.loads, stats.saves, stats.misses), (1, 1, 3));
        // A second handle on the same dir sees the entry (cross-process
        // sharing is just cross-handle sharing plus the version gate).
        let other = DiskStore::open(&dir).unwrap();
        assert_eq!(other.load(JobKind::Train, 42).unwrap(), b"payload");
    }

    #[test]
    fn corrupt_entries_are_evicted() {
        let dir = TempDir::new("store-corrupt");
        let store = DiskStore::open(&dir).unwrap();
        store.save(JobKind::Verify, 7, b"good bytes").unwrap();
        let path = store.entry_path(JobKind::Verify, 7);

        // Flipped payload byte: checksum mismatch.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(store.load(JobKind::Verify, 7).is_none());
        assert!(!path.exists(), "corrupt entry must be evicted");

        // Truncated entry.
        store.save(JobKind::Verify, 7, b"good bytes").unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(store.load(JobKind::Verify, 7).is_none());
        assert!(!path.exists());

        // Recompute-and-save works after eviction.
        store.save(JobKind::Verify, 7, b"good bytes").unwrap();
        assert_eq!(store.load(JobKind::Verify, 7).unwrap(), b"good bytes");
        assert_eq!(store.stats().evictions, 2);

        // A corrupt payload-length field (valid magic/tag/fingerprint,
        // absurd length) must evict, not overflow: debug builds would
        // panic on an unchecked `pos + len` slice bound.
        store.save(JobKind::Verify, 7, b"good bytes").unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let len_offset = ENTRY_MAGIC.len() + 2 + sanitize_tag("verify").len() + 8;
        bytes[len_offset..len_offset + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(store.load(JobKind::Verify, 7).is_none());
        assert!(!path.exists());
        assert_eq!(store.stats().evictions, 3);
    }

    #[test]
    fn version_mismatch_refuses_to_open() {
        let dir = TempDir::new("store-version");
        fs::write(dir.join(VERSION_FILE), "gnnunlock-store v0\n").unwrap();
        let err = DiskStore::open(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn tags_are_sanitized_into_the_root() {
        let dir = TempDir::new("store-sanitize");
        let store = DiskStore::open(&dir).unwrap();
        for tag in ["../../escape", "a/b", "", "..", "ok-tag_9"] {
            let kind = JobKind::Custom(Box::leak(tag.to_string().into_boxed_str()));
            let path = store.entry_path(kind, 1);
            assert!(path.starts_with(&*dir), "{path:?} escaped {dir:?}");
            assert!(path
                .components()
                .all(|c| c.as_os_str() != ".." && c.as_os_str() != "."));
        }
        assert_eq!(sanitize_tag("../x"), "___x");
        assert_eq!(sanitize_tag(""), "_");
    }

    #[test]
    fn gc_enforces_budget_and_never_evicts_live_entries() {
        let dir = TempDir::new("store-gc");
        // An earlier process filled the store with entries of known ages.
        let old = DiskStore::open(&dir).unwrap();
        let payload = [7u8; 64];
        for fp in 0..6u64 {
            old.save(JobKind::Lock, fp, &payload).unwrap();
            let f = fs::File::open(old.entry_path(JobKind::Lock, fp)).unwrap();
            f.set_modified(SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(fp))
                .unwrap();
        }
        let entry_len = fs::metadata(old.entry_path(JobKind::Lock, 0))
            .unwrap()
            .len();
        drop(old);

        // The current run loads one old entry and writes a new one:
        // both are live and must survive any budget.
        let store = DiskStore::open(&dir).unwrap();
        assert!(store.load(JobKind::Lock, 1).is_some());
        store.save(JobKind::Lock, 99, &payload).unwrap();

        // Budget for three entries: the sweep must evict oldest-first
        // down to the budget, skipping the live pair.
        let budget = 3 * entry_len;
        let stats = store.gc(budget);
        assert_eq!(stats.bytes_before, 7 * entry_len);
        assert!(
            stats.bytes_after <= budget,
            "budget not enforced: {} > {budget}",
            stats.bytes_after
        );
        assert_eq!(stats.evicted_entries, 4);
        assert_eq!(stats.live_protected, 2);
        // Live entries survived…
        assert!(store.load(JobKind::Lock, 1).is_some());
        assert!(store.load(JobKind::Lock, 99).is_some());
        // …and the survivors among the old ones are the most recent
        // (fp 0, 2, 3 were the oldest unprotected → evicted; fp 5 kept).
        assert!(store.load(JobKind::Lock, 5).is_some());
        assert!(store.load(JobKind::Lock, 0).is_none());
        assert!(store.load(JobKind::Lock, 2).is_none());

        // A budget the live set already satisfies evicts nothing.
        let stats = store.gc(u64::MAX);
        assert_eq!(stats.evicted_entries, 0);

        // An orphaned in-flight temp file (a writer killed mid-save) is
        // cleaned up once stale; a fresh one is left alone.
        let objects = dir.join("objects").join("lock");
        let stale = objects.join(".tmp-1234-0");
        let fresh = objects.join(".tmp-1234-1");
        fs::write(&stale, b"half-written").unwrap();
        fs::write(&fresh, b"in flight").unwrap();
        fs::File::open(&stale)
            .unwrap()
            .set_modified(SystemTime::now() - Duration::from_secs(7200))
            .unwrap();
        // Same for lease-protocol leftovers of long-dead shards.
        let stale_lease = objects.join("00000000000000aa.lease");
        let fresh_lease = objects.join("00000000000000ab.lease");
        let stale_tomb = objects.join("00000000000000aa.lease.tomb-99-0");
        for p in [&stale_lease, &fresh_lease, &stale_tomb] {
            fs::write(p, b"gnnunlock-lease owner=x pid=1 gen=0\n").unwrap();
        }
        for p in [&stale_lease, &stale_tomb] {
            fs::File::open(p)
                .unwrap()
                .set_modified(SystemTime::now() - Duration::from_secs(7200))
                .unwrap();
        }
        store.gc(0);
        assert!(!stale.exists(), "stale tmp file must be collected");
        assert!(fresh.exists(), "recent tmp file must be left alone");
        assert!(!stale_lease.exists(), "ancient lease must be collected");
        assert!(!stale_tomb.exists(), "ancient tomb must be collected");
        assert!(fresh_lease.exists(), "recent lease must be left alone");
    }

    #[test]
    fn tenant_namespaces_are_disjoint_and_accounted() {
        let dir = TempDir::new("store-tenant");
        let shared = DiskStore::open(&dir).unwrap();
        let alice = DiskStore::open_namespaced(&dir, "alice").unwrap();
        let bob = DiskStore::open_namespaced(&dir, "b/ob").unwrap(); // sanitized

        shared.save(JobKind::Lock, 1, b"shared bytes").unwrap();
        alice.save(JobKind::Lock, 1, b"alice's bytes!").unwrap();
        bob.save(JobKind::Lock, 1, b"bob bytes").unwrap();

        // Same (kind, fp), three disjoint entries: no namespace ever
        // serves another's bytes.
        assert_eq!(shared.load(JobKind::Lock, 1).unwrap(), b"shared bytes");
        assert_eq!(alice.load(JobKind::Lock, 1).unwrap(), b"alice's bytes!");
        assert_eq!(bob.load(JobKind::Lock, 1).unwrap(), b"bob bytes");
        assert!(alice.load(JobKind::Lock, 2).is_none());
        assert_eq!(bob.namespace(), Some("b_ob"));
        assert_eq!(shared.namespace(), None);
        assert_eq!(
            DiskStore::open_namespaced(&dir, "  ").unwrap().namespace(),
            None,
            "a blank tenant id is the default namespace"
        );

        // Entry paths stay inside the root, under the tenant subtree.
        let p = bob.entry_path(JobKind::Lock, 1);
        assert!(p.starts_with(dir.join("tenants").join("b_ob")));

        // Per-namespace accounting sees each tenant's own bytes.
        let usage = |ns: &str| DiskStore::open_namespaced(&dir, ns).unwrap().usage_bytes();
        assert_eq!(usage(""), shared.usage_bytes());
        assert_eq!(usage("alice"), alice.usage_bytes());
        assert_eq!(usage("b_ob"), bob.usage_bytes());
        assert!(usage("alice") > 0 && usage("alice") != usage("b_ob"));

        // Namespace-scoped GC: a sweep of alice's namespace (via a
        // fresh handle — `alice` itself live-protects what it touched)
        // cannot touch bob's or the default namespace's entries.
        let sweeper = DiskStore::open_namespaced(&dir, "alice").unwrap();
        let stats = sweeper.gc(0);
        assert_eq!(stats.bytes_after, 0);
        assert!(alice.is_empty());
        assert!(shared.load(JobKind::Lock, 1).is_some());
        assert!(bob.load(JobKind::Lock, 1).is_some());
    }

    #[test]
    fn gc_roots_enforces_a_cross_store_budget_with_protected_roots() {
        // Two campaign directories of one tenant: the quota spans both,
        // but the running campaign's root is protected.
        let a = TempDir::new("store-roots-a");
        let b = TempDir::new("store-roots-b");
        let store_a = DiskStore::open_namespaced(&a, "t").unwrap();
        let store_b = DiskStore::open_namespaced(&b, "t").unwrap();
        let payload = [1u8; 32];
        for fp in 0..4u64 {
            store_a.save(JobKind::Lock, fp, &payload).unwrap();
            store_b.save(JobKind::Lock, fp, &payload).unwrap();
            // Make store_a's entries strictly older.
            let f = fs::File::open(store_a.entry_path(JobKind::Lock, fp)).unwrap();
            f.set_modified(SystemTime::UNIX_EPOCH + Duration::from_secs(fp))
                .unwrap();
        }
        let entry_len = fs::metadata(store_a.entry_path(JobKind::Lock, 0))
            .unwrap()
            .len();
        let roots = [store_a.objects_root(), store_b.objects_root()];

        // Budget for five entries, nothing protected: the three oldest
        // (all in store_a) are evicted.
        let local = LocalDirBackend::new();
        let stats = gc_roots(&local, &roots, &[], 5 * entry_len);
        assert_eq!(stats.bytes_before, 8 * entry_len);
        assert_eq!(stats.evicted_entries, 3);
        assert!(stats.bytes_after <= 5 * entry_len);
        assert_eq!(store_b.len(), 4, "newer store untouched");

        // Protecting store_b pins its entries even under a zero budget.
        let stats = gc_roots(&local, &roots, &[store_b.objects_root()], 0);
        assert_eq!(stats.live_protected, 4);
        assert_eq!(store_a.len(), 0);
        assert_eq!(store_b.len(), 4);
    }

    #[test]
    fn contains_is_a_cheap_presence_check() {
        let dir = TempDir::new("store-contains");
        let store = DiskStore::open(&dir).unwrap();
        assert!(!store.contains(JobKind::Lock, 8));
        store.save(JobKind::Lock, 8, b"x").unwrap();
        assert!(store.contains(JobKind::Lock, 8));
        assert!(!store.contains(JobKind::Train, 8));
        // contains never loads: stats untouched.
        assert_eq!(store.stats().loads, 0);
    }

    #[test]
    fn len_counts_entries() {
        let dir = TempDir::new("store-len");
        let store = DiskStore::open(&dir).unwrap();
        assert!(store.is_empty());
        store.save(JobKind::Lock, 1, b"a").unwrap();
        store.save(JobKind::Lock, 2, b"b").unwrap();
        store.save(JobKind::Train, 1, b"c").unwrap();
        assert_eq!(store.len(), 3);
    }

    /// Byte accounting (usage_bytes, gc bytes_before) never bills
    /// in-flight or orphaned protocol files — a crashed writer's large
    /// `.tmp-*` must not eat a tenant's budget.
    #[test]
    fn protocol_files_are_never_billed_to_budgets() {
        let dir = TempDir::new("store-billing");
        let store = DiskStore::open_namespaced(&dir, "acme").unwrap();
        store.save(JobKind::Lock, 1, &[7u8; 64]).unwrap();
        let entries_only = store.usage_bytes();
        assert!(entries_only > 0);

        // A crashed writer's huge staging file, a live lease, a tomb.
        let objects = store.objects_root().join("lock");
        fs::write(objects.join(".tmp-999-0"), vec![0u8; 1 << 16]).unwrap();
        fs::write(objects.join("00000000000000aa.lease"), b"lease\n").unwrap();
        fs::write(objects.join("00000000000000aa.lease.tomb-9-0"), b"tomb\n").unwrap();

        assert_eq!(store.usage_bytes(), entries_only);
        assert_eq!(
            DiskStore::open_namespaced(&dir, "acme")
                .unwrap()
                .usage_bytes(),
            entries_only
        );
        let stats = store.gc(u64::MAX);
        assert_eq!(stats.bytes_before, entries_only);
        let stats = gc_roots(
            &LocalDirBackend::new(),
            &[store.objects_root()],
            &[],
            u64::MAX,
        );
        assert_eq!(stats.bytes_before, entries_only);
    }

    /// Satellite regression: the tenant-budget sweep ([`gc_roots`], the
    /// only GC that ever visits daemon-managed campaign directories)
    /// must collect hour-stale orphaned protocol files — pre-fix it
    /// walked right past them and a crashed writer's staging file
    /// leaked forever.
    #[test]
    fn gc_roots_collects_stale_orphaned_protocol_files() {
        let dir = TempDir::new("store-roots-orphans");
        let store = DiskStore::open_namespaced(&dir, "t").unwrap();
        store.save(JobKind::Lock, 1, &[1u8; 16]).unwrap();
        let objects = store.objects_root().join("lock");
        let stale_tmp = objects.join(".tmp-4242-0");
        let stale_tomb = objects.join("00000000000000bb.lease.tomb-4242-0");
        let fresh_tmp = objects.join(".tmp-4242-1");
        for p in [&stale_tmp, &stale_tomb, &fresh_tmp] {
            fs::write(p, b"debris").unwrap();
        }
        for p in [&stale_tmp, &stale_tomb] {
            fs::File::open(p)
                .unwrap()
                .set_modified(SystemTime::now() - Duration::from_secs(7200))
                .unwrap();
        }
        // Even a no-op budget sweep (and even over a *protected* root)
        // reclaims the stale debris; in-flight files are left alone.
        let stats = gc_roots(
            &LocalDirBackend::new(),
            &[store.objects_root()],
            &[store.objects_root()],
            u64::MAX,
        );
        assert_eq!(stats.evicted_entries, 0);
        assert!(!stale_tmp.exists(), "stale orphan tmp must be collected");
        assert!(!stale_tomb.exists(), "stale orphan tomb must be collected");
        assert!(fresh_tmp.exists(), "in-flight tmp must be left alone");
        assert!(store.load(JobKind::Lock, 1).is_some());
    }

    /// A single transient read error (EAGAIN-style) is absorbed by the
    /// retry layer; a *sustained* outage that exhausts the retry budget
    /// reads as a miss and leaves the entry intact — pre-hardening a
    /// lone transient evicted a good entry.
    #[test]
    fn transient_load_errors_do_not_evict() {
        fn check<B: StoreBackend + 'static>(root: &Path, backend: Arc<Faulty<B>>) {
            let store = DiskStore::open_with_backend(root, "", backend.clone()).unwrap();
            store.save(JobKind::Train, 5, b"payload").unwrap();
            backend.inject(FaultRule::on(FaultOp::Load, ".bin", Fault::Transient));
            assert_eq!(
                store.load(JobKind::Train, 5).unwrap(),
                b"payload",
                "one transient is retried through"
            );
            assert_eq!(store.stats().evictions, 0, "entry must not be evicted");
            backend.inject(FaultRule::on(
                FaultOp::Load,
                "",
                Fault::Unavailable(usize::MAX),
            ));
            assert!(store.load(JobKind::Train, 5).is_none(), "outage = miss");
            assert_eq!(store.stats().evictions, 0, "entry must not be evicted");
            backend.clear_rules();
            assert_eq!(store.load(JobKind::Train, 5).unwrap(), b"payload");
        }
        on_each_substrate("store-transient", check, check);
    }

    /// A sweep already under budget still reports the protected entries
    /// it found: the live set for [`DiskStore::gc`], the entries under
    /// protected roots for [`gc_roots`].
    #[test]
    fn under_budget_sweeps_count_their_protected_entries() {
        fn check<B: StoreBackend + 'static>(root: &Path, backend: Arc<Faulty<B>>) {
            let store = DiskStore::open_with_backend(root, "t", backend.clone()).unwrap();
            store.save(JobKind::Lock, 1, b"live").unwrap();
            store.save(JobKind::Train, 2, b"live too").unwrap();
            let stats = store.gc(u64::MAX);
            assert_eq!((stats.evicted_entries, stats.live_protected), (0, 2));
            let objects = [store.objects_root()];
            let stats = gc_roots(backend.as_ref(), &objects, &objects, u64::MAX);
            assert_eq!((stats.evicted_entries, stats.live_protected), (0, 2));
            let stats = gc_roots(backend.as_ref(), &objects, &[], u64::MAX);
            assert_eq!((stats.evicted_entries, stats.live_protected), (0, 0));
        }
        on_each_substrate("store-gc-protected", check, check);
    }

    /// Opening a store collects hour-stale staging temps from its root
    /// (writers killed mid-publish of the version file) and leaves fresh
    /// temps and every campaign artifact alone, however old.
    #[test]
    fn open_sweeps_stale_staging_temps_from_the_root() {
        fn check<B: StoreBackend + 'static>(root: &Path, backend: Arc<Faulty<B>>) {
            DiskStore::open_with_backend(root, "", backend.clone()).unwrap();
            let stale = [".tmp-77-0", ".gnnunlock-store.version.tmp-77-1"].map(|n| root.join(n));
            let fresh = [".tmp-77-2", ".gnnunlock-store.version.tmp-77-3"].map(|n| root.join(n));
            let artifacts = ["events.jsonl", "report.json", "status"].map(|n| root.join(n));
            for p in stale.iter().chain(&fresh).chain(&artifacts) {
                backend.publish(p, b"x").unwrap();
            }
            for p in stale.iter().chain(&artifacts) {
                assert!(backend.age(p, Duration::from_secs(7200)));
            }
            DiskStore::open_with_backend(root, "", backend.clone()).unwrap();
            for p in &stale {
                assert!(!backend.contains(p), "stale {p:?} must be collected");
            }
            for p in fresh.iter().chain(&artifacts) {
                assert!(backend.contains(p), "{p:?} must be left alone");
            }
        }
        on_each_substrate("store-open-sweep", check, check);
    }

    /// The whole store surface works identically over any substrate
    /// behind the fault decorator: version gate, round trip, corruption
    /// eviction, GC.
    #[test]
    fn store_round_trips_and_gcs_on_each_substrate() {
        fn check<B: StoreBackend + 'static>(root: &Path, backend: Arc<Faulty<B>>) {
            let store = DiskStore::open_with_backend(root, "", backend.clone()).unwrap();
            store.save(JobKind::Train, 42, b"payload").unwrap();
            assert_eq!(store.load(JobKind::Train, 42).unwrap(), b"payload");
            assert!(store.contains(JobKind::Train, 42));
            assert_eq!(store.len(), 1);

            // A second handle over the same backend shares entries and the
            // version gate.
            let other = DiskStore::open_with_backend(root, "", backend.clone()).unwrap();
            assert_eq!(other.load(JobKind::Train, 42).unwrap(), b"payload");

            // Corrupt in place: evicted on load.
            let path = store.entry_path(JobKind::Train, 42);
            let mut bytes = backend.load(&path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0xff;
            backend.publish(&path, &bytes).unwrap();
            assert!(store.load(JobKind::Train, 42).is_none());
            assert!(!backend.contains(&path), "corrupt entry evicted");

            // GC under a zero budget clears a fresh handle's view.
            store.save(JobKind::Train, 43, b"x").unwrap();
            let sweeper = DiskStore::open_with_backend(root, "", backend.clone()).unwrap();
            let stats = sweeper.gc(0);
            assert_eq!(stats.bytes_after, 0);
            assert!(sweeper.is_empty());
        }
        on_each_substrate("store-round-trip", check, check);
    }
}
