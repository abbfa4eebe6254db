//! `gnnunlockd` — campaign-as-a-service for the GNNUnlock reproduction.
//!
//! A std-only daemon that accepts attack-campaign submissions over TCP
//! (newline-delimited JSON), executes them on the engine's stage-DAG
//! machinery, streams their event logs live to subscribers, and serves
//! the canonical reports — with content-addressed deduplication and
//! multi-tenant cache namespacing on top:
//!
//! - [`protocol`]: the NDJSON wire protocol (`submit` / `status` /
//!   `subscribe` / `report` / `cancel` / `shutdown`);
//! - [`DaemonCore`]: the transport-independent state machine —
//!   submission registry keyed on
//!   [`gnnunlock_core::Submission::campaign_id`] (identical submissions
//!   collapse onto one campaign; re-submissions are answered straight
//!   from the registry or an on-disk canonical report), a work queue
//!   drained by one executor thread, per-tenant concurrent-campaign
//!   quotas and byte budgets, graceful drain;
//! - [`Daemon`]: the non-blocking TCP reactor (no async runtime — a
//!   readiness poll loop over non-blocking sockets);
//! - [`watch`]: live event-log tailing shared by `subscribe` streams
//!   and the `gnnunlockd --watch <id>` terminal dashboard.
//!
//! Campaigns run as *shards* ([`gnnunlock_core::run_campaign_sharded`])
//! inside per-campaign directories under `<root>/campaigns/<id>/`, each
//! store namespaced by tenant (`tenants/<ns>/objects/`). External shard
//! workers can therefore cohabit a live daemon campaign: point
//! `GNNUNLOCK_CACHE_DIR` at the campaign directory, set
//! `GNNUNLOCK_TENANT` to the tenant, and the lease protocol splits the
//! work — no daemon-side coordination required.

#![warn(missing_docs)]

pub mod config;
pub mod protocol;
mod server;
mod state;
pub mod watch;

pub use config::{
    poll_interval, DaemonConfig, DAEMON_ADDR_ENV, DAEMON_ROOT_ENV, DEFAULT_ADDR,
    TENANT_MAX_ACTIVE_ENV,
};
pub use server::Daemon;
pub use state::{persisted_error, CampaignStatus, DaemonCore, SubmitReceipt};
