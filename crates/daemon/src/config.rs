//! Daemon configuration and its `GNNUNLOCK_*` environment knobs.

use gnnunlock_engine::{
    default_workers, env, knob_or, knob_path, knob_validated, tenant_budget_from_env, StoreBackend,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Environment variable naming the address `gnnunlockd` binds
/// (`host:port`). Default: `127.0.0.1:7171`. Port `0` asks the OS for a
/// free port (the daemon prints the resolved address on startup).
pub const DAEMON_ADDR_ENV: &str = "GNNUNLOCK_DAEMON_ADDR";

/// Environment variable naming the daemon's data root: campaign
/// directories (stores, event logs, reports) live under
/// `<root>/campaigns/<id>/`. Default: `GNNUNLOCK_CACHE_DIR`, else
/// `gnnunlockd-data` in the working directory.
pub const DAEMON_ROOT_ENV: &str = "GNNUNLOCK_DAEMON_ROOT";

/// Environment variable capping how many campaigns one tenant may have
/// queued or running at once; further `submit`s are rejected (not
/// queued). Default: 4. Must be ≥ 1.
pub const TENANT_MAX_ACTIVE_ENV: &str = "GNNUNLOCK_TENANT_MAX_ACTIVE";

/// The default bind address when [`DAEMON_ADDR_ENV`] is unset.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7171";

/// Configuration of one [`crate::Daemon`].
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Data root; campaign `id` runs in `<root>/campaigns/<id>/`.
    pub root: PathBuf,
    /// Bind address (`host:port`; port 0 = OS-assigned).
    pub addr: String,
    /// Executor worker threads per running campaign
    /// (`GNNUNLOCK_WORKERS`).
    pub workers: usize,
    /// Campaigns executed concurrently (daemon worker threads).
    pub queue_workers: usize,
    /// Max queued-or-running campaigns per tenant
    /// ([`TENANT_MAX_ACTIVE_ENV`]).
    pub tenant_max_active: usize,
    /// Per-tenant store budget in bytes
    /// ([`gnnunlock_engine::TENANT_BUDGET_ENV`]): after one of a
    /// tenant's campaigns finishes, that tenant's store entries across
    /// all campaign directories are LRU-swept down to this budget
    /// (running campaigns' entries are protected). `None` = unbounded.
    pub tenant_budget_bytes: Option<u64>,
    /// Lease TTL for the daemon's own shard executions
    /// (`GNNUNLOCK_LEASE_TTL_MS`); external cohabiting workers use
    /// their own knob.
    pub lease_ttl: Option<Duration>,
    /// Terminal campaigns kept in the in-memory registry. Beyond the
    /// cap the oldest-terminal entries are evicted (bounding registry
    /// memory over a long daemon lifetime); evicted campaigns keep
    /// answering resubmissions and subscriptions from their on-disk
    /// `report.json` and status marker. Default: 512.
    pub terminal_retained: usize,
    /// Store backend campaign executions and tenant budget sweeps run
    /// against. `None` (the default) is the local filesystem
    /// ([`gnnunlock_engine::LocalDirBackend`]). Tests pass a
    /// fault-injecting [`gnnunlock_engine::testing::Faulty`] backend
    /// here.
    pub store_backend: Option<Arc<dyn StoreBackend>>,
}

impl DaemonConfig {
    /// A daemon rooted at `root` with environment-independent defaults
    /// and an OS-assigned port (for tests and embedding).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        DaemonConfig {
            root: root.into(),
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_workers: 1,
            tenant_max_active: 4,
            tenant_budget_bytes: None,
            lease_ttl: None,
            terminal_retained: 512,
            store_backend: None,
        }
    }

    /// Set the bind address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Set the per-campaign executor worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Set the per-tenant concurrent-campaign cap.
    pub fn with_tenant_max_active(mut self, n: usize) -> Self {
        self.tenant_max_active = n.max(1);
        self
    }

    /// Set the per-tenant store budget in bytes.
    pub fn with_tenant_budget(mut self, bytes: u64) -> Self {
        self.tenant_budget_bytes = Some(bytes);
        self
    }

    /// Set how many terminal campaigns the in-memory registry retains.
    pub fn with_terminal_retained(mut self, n: usize) -> Self {
        self.terminal_retained = n;
        self
    }

    /// Run campaign stores and budget sweeps against an explicit
    /// backend instead of the local filesystem.
    pub fn with_store_backend(mut self, backend: Arc<dyn StoreBackend>) -> Self {
        self.store_backend = Some(backend);
        self
    }

    /// The configuration `gnnunlockd` runs with: every field from its
    /// environment knob, falling back to the documented defaults.
    pub fn from_env() -> Self {
        let root = knob_path(DAEMON_ROOT_ENV)
            .or_else(|| knob_path(gnnunlock_engine::CACHE_DIR_ENV))
            .unwrap_or_else(|| PathBuf::from("gnnunlockd-data"));
        DaemonConfig {
            root,
            addr: std::env::var(DAEMON_ADDR_ENV)
                .ok()
                .map(|v| v.trim().to_string())
                .filter(|v| !v.is_empty())
                .unwrap_or_else(|| DEFAULT_ADDR.to_string()),
            workers: default_workers(),
            queue_workers: 1,
            tenant_max_active: knob_validated(
                TENANT_MAX_ACTIVE_ENV,
                "a positive campaign count",
                |n: &usize| *n >= 1,
            )
            .unwrap_or(4),
            tenant_budget_bytes: tenant_budget_from_env(),
            lease_ttl: env::lease_ttl_from_env(),
            terminal_retained: 512,
            store_backend: None,
        }
    }

    /// Directory of campaign `id`.
    pub fn campaign_dir(&self, id: &str) -> PathBuf {
        self.root.join("campaigns").join(id)
    }
}

/// The reactor's idle sleep (`GNNUNLOCK_DAEMON_POLL_MS`, default 5 ms):
/// how long the connection loop dozes when no socket had bytes and no
/// subscribed log grew. Latency/CPU trade-off only; correctness never
/// depends on it.
pub fn poll_interval() -> Duration {
    Duration::from_millis(knob_or("GNNUNLOCK_DAEMON_POLL_MS", "milliseconds", 5u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_dirs_nest_under_the_root() {
        let cfg = DaemonConfig::new("/data/gnnunlockd");
        assert_eq!(
            cfg.campaign_dir("abc123"),
            PathBuf::from("/data/gnnunlockd/campaigns/abc123")
        );
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert!(cfg.tenant_budget_bytes.is_none());
    }

    #[test]
    fn builders_clamp_degenerate_values() {
        let cfg = DaemonConfig::new(".")
            .with_workers(0)
            .with_tenant_max_active(0)
            .with_tenant_budget(1024);
        assert_eq!(cfg.workers, 1);
        assert_eq!(cfg.tenant_max_active, 1);
        assert_eq!(cfg.tenant_budget_bytes, Some(1024));
    }
}
