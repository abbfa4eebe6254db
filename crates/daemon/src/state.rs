//! The daemon's brain: submission registry, work queue, the campaign
//! executor thread, per-tenant quotas, graceful drain.
//!
//! [`DaemonCore`] is the transport-independent half of the service —
//! the TCP reactor ([`crate::Daemon`]) and the in-process tests drive
//! the same methods. Campaigns execute on the existing stage-DAG
//! machinery via [`run_campaign_sharded`], with the daemon acting as
//! one shard (`gnnunlockd-w0`) inside the campaign directory: an
//! external worker pointed at the same directory (with the matching
//! `GNNUNLOCK_TENANT`) cohabits the run through the lease protocol, no
//! daemon-side coordination needed.

use crate::config::DaemonConfig;
use crate::protocol::validate_campaign_id;
use gnnunlock_core::{run_campaign_sharded, Submission};
use gnnunlock_engine::{
    gc_roots, merge_shard_events, sanitize_tag, tenant_objects_root, CancelToken, ExecConfig,
    JobStatus, Json, ReportOptions, ShardConfig, DEGRADED_PREFIX,
};
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};

/// Process-wide telemetry mirrors of the daemon's traffic (handles
/// resolved once; increments are relaxed atomics).
mod metrics {
    use gnnunlock_telemetry::{Counter, Registry};
    use std::sync::OnceLock;

    pub(super) fn submissions() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| {
            Registry::global().counter_with(
                "daemon_submissions_total",
                "Campaign submissions accepted (deduplicated ones included).",
                &[],
            )
        })
    }

    pub(super) fn dedup_hits() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| {
            Registry::global().counter_with(
                "daemon_dedup_hits_total",
                "Submissions answered from the registry or an on-disk canonical report.",
                &[],
            )
        })
    }

    pub(super) fn campaign_terminal(status: &str) -> Counter {
        Registry::global().counter_with(
            "daemon_campaigns_total",
            "Campaigns that reached a terminal status.",
            &[("status", status)],
        )
    }
}

/// Lifecycle of one submitted campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignStatus {
    /// Accepted, waiting for an executor slot.
    Queued,
    /// Executing on a daemon worker.
    Running,
    /// Finished; `report.json` is canonical.
    Done,
    /// Finished with failed/skipped jobs, or refused to start.
    Failed,
    /// Cancelled before or during execution.
    Cancelled,
}

impl CampaignStatus {
    /// Wire name of the status.
    pub fn as_str(self) -> &'static str {
        match self {
            CampaignStatus::Queued => "queued",
            CampaignStatus::Running => "running",
            CampaignStatus::Done => "done",
            CampaignStatus::Failed => "failed",
            CampaignStatus::Cancelled => "cancelled",
        }
    }

    /// Whether the campaign will never run again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            CampaignStatus::Done | CampaignStatus::Failed | CampaignStatus::Cancelled
        )
    }

    /// Parse a wire name back into a status (inverse of
    /// [`CampaignStatus::as_str`]); `None` on foreign text.
    pub fn from_wire(s: &str) -> Option<CampaignStatus> {
        match s {
            "queued" => Some(CampaignStatus::Queued),
            "running" => Some(CampaignStatus::Running),
            "done" => Some(CampaignStatus::Done),
            "failed" => Some(CampaignStatus::Failed),
            "cancelled" => Some(CampaignStatus::Cancelled),
            _ => None,
        }
    }
}

/// Name of the terminal-status marker a worker writes into the campaign
/// directory next to `report.json`.
const STATUS_FILE: &str = "status";

/// The executor thread's name and its shard id (lease owner and event
/// log suffix) in every campaign directory.
const WORKER_SHARD: &str = "gnnunlockd-w0";

/// The terminal status a (possibly previous) daemon life persisted into
/// campaign directory `dir`, if any. `report.json` alone is *not* proof
/// of success — workers write it for failed campaigns too — so the
/// marker is what `subscribe`/`submit` trust when the registry no
/// longer holds the campaign.
pub fn persisted_status(dir: &Path) -> Option<CampaignStatus> {
    let text = std::fs::read_to_string(dir.join(STATUS_FILE)).ok()?;
    // First line only: a failed campaign's marker carries the error on
    // the following lines.
    CampaignStatus::from_wire(text.lines().next().unwrap_or("").trim()).filter(|s| s.is_terminal())
}

/// The terminal status campaign directory `dir` shows on disk: the
/// [`persisted_status`] marker, or — for legacy marker-less directories
/// only — `done` when a `report.json` exists. What submit dedup and
/// subscription ends trust for campaigns the registry does not hold.
pub(crate) fn disk_terminal_status(dir: &Path) -> Option<CampaignStatus> {
    persisted_status(dir).or_else(|| {
        dir.join("report.json")
            .is_file()
            .then_some(CampaignStatus::Done)
    })
}

/// The error a worker persisted alongside a `failed` status marker, if
/// any — for a store outage this is the backend's `store-degraded`
/// message.
pub fn persisted_error(dir: &Path) -> Option<String> {
    let text = std::fs::read_to_string(dir.join(STATUS_FILE)).ok()?;
    let error = text.lines().skip(1).collect::<Vec<_>>().join("\n");
    (!error.trim().is_empty()).then(|| error.trim().to_string())
}

/// What `submit` returns.
#[derive(Debug, Clone)]
pub struct SubmitReceipt {
    /// The campaign's content-addressed id.
    pub id: String,
    /// Status at submission time.
    pub status: CampaignStatus,
    /// Whether an identical earlier submission answered this one (the
    /// registry, or a canonical report from a previous daemon life).
    pub deduped: bool,
}

struct Entry {
    submission: Submission,
    status: CampaignStatus,
    cancel: CancelToken,
    /// Job bodies the daemon's shard actually executed.
    executed: usize,
    /// Identical re-submissions answered from this entry.
    dedup_hits: usize,
    error: Option<String>,
}

struct State {
    campaigns: BTreeMap<String, Entry>,
    queue: VecDeque<String>,
    /// Terminal campaign ids, oldest first — the eviction order that
    /// keeps the registry bounded over a long daemon lifetime.
    terminal_order: VecDeque<String>,
    stopping: bool,
    /// Whether the executor thread is running (it exits once stopping
    /// and the queue is empty).
    worker_live: bool,
}

/// Record `id` as terminal and evict the oldest terminal entries beyond
/// the retention `cap`. Evicted campaigns keep answering from disk: the
/// canonical `report.json` dedups resubmissions and the persisted
/// status marker settles subscriptions, exactly like a previous daemon
/// life's campaigns.
fn retain_terminal(st: &mut State, id: &str, cap: usize) {
    st.terminal_order.push_back(id.to_string());
    while st.terminal_order.len() > cap {
        let Some(old) = st.terminal_order.pop_front() else {
            break;
        };
        st.campaigns.remove(&old);
    }
}

/// The shared daemon state machine (transport-independent).
pub struct DaemonCore {
    cfg: DaemonConfig,
    state: Mutex<State>,
    work: Condvar,
}

impl DaemonCore {
    /// A fresh core with no executor thread running (the server spawns
    /// it).
    pub fn new(cfg: DaemonConfig) -> Arc<DaemonCore> {
        Arc::new(DaemonCore {
            cfg,
            state: Mutex::new(State {
                campaigns: BTreeMap::new(),
                queue: VecDeque::new(),
                terminal_order: VecDeque::new(),
                stopping: false,
                worker_live: false,
            }),
            work: Condvar::new(),
        })
    }

    /// The daemon's configuration.
    pub fn config(&self) -> &DaemonConfig {
        &self.cfg
    }

    /// Directory of campaign `id`.
    pub fn campaign_dir(&self, id: &str) -> PathBuf {
        self.cfg.campaign_dir(id)
    }

    /// Register a submission: deduplicate against the registry and the
    /// on-disk canonical report, enforce the tenant's concurrent-
    /// campaign quota, and queue the campaign for execution.
    ///
    /// # Errors
    ///
    /// Rejects (without queuing) when the daemon is draining or the
    /// tenant already has `tenant_max_active` campaigns queued/running.
    pub fn submit(&self, submission: Submission) -> Result<SubmitReceipt, String> {
        let id = submission.campaign_id();
        let mut st = self.state.lock().unwrap();
        if st.stopping {
            return Err("daemon is shutting down; submission refused".to_string());
        }
        metrics::submissions().inc();
        if let Some(entry) = st.campaigns.get_mut(&id) {
            entry.dedup_hits += 1;
            metrics::dedup_hits().inc();
            return Ok(SubmitReceipt {
                id,
                status: entry.status,
                deduped: true,
            });
        }
        // A previous daemon life may have completed this exact
        // campaign: a canonical report on disk answers it without
        // executing anything — but only a *successful* one (the status
        // marker, or legacy directories with a report and no marker).
        // Failed or cancelled prior attempts fall through and re-queue;
        // their cached store entries make the retry cheap.
        if disk_terminal_status(&self.cfg.campaign_dir(&id)) == Some(CampaignStatus::Done) {
            st.campaigns.insert(
                id.clone(),
                Entry {
                    submission,
                    status: CampaignStatus::Done,
                    cancel: CancelToken::new(),
                    executed: 0,
                    dedup_hits: 1,
                    error: None,
                },
            );
            retain_terminal(&mut st, &id, self.cfg.terminal_retained);
            metrics::dedup_hits().inc();
            return Ok(SubmitReceipt {
                id,
                status: CampaignStatus::Done,
                deduped: true,
            });
        }
        let ns = sanitize_tag(&submission.tenant);
        let active = st
            .campaigns
            .values()
            .filter(|e| {
                sanitize_tag(&e.submission.tenant) == ns
                    && matches!(e.status, CampaignStatus::Queued | CampaignStatus::Running)
            })
            .count();
        if active >= self.cfg.tenant_max_active {
            return Err(format!(
                "tenant '{}' is at its concurrent-campaign quota ({active} active, max {})",
                submission.tenant, self.cfg.tenant_max_active
            ));
        }
        st.campaigns.insert(
            id.clone(),
            Entry {
                submission,
                status: CampaignStatus::Queued,
                cancel: CancelToken::new(),
                executed: 0,
                dedup_hits: 0,
                error: None,
            },
        );
        st.queue.push_back(id.clone());
        self.work.notify_all();
        Ok(SubmitReceipt {
            id,
            status: CampaignStatus::Queued,
            deduped: false,
        })
    }

    /// Current status of campaign `id`, if registered.
    pub fn status_of(&self, id: &str) -> Option<CampaignStatus> {
        self.state
            .lock()
            .unwrap()
            .campaigns
            .get(id)
            .map(|e| e.status)
    }

    fn entry_doc(id: &str, e: &Entry) -> Json {
        let mut fields = vec![
            ("id", Json::Str(id.to_string())),
            ("tenant", Json::Str(e.submission.tenant.clone())),
            ("name", Json::Str(e.submission.name.clone())),
            ("status", Json::Str(e.status.as_str().to_string())),
            ("executed", Json::Num(e.executed as f64)),
            ("dedup_hits", Json::Num(e.dedup_hits as f64)),
        ];
        if let Some(err) = &e.error {
            fields.push(("error", Json::Str(err.clone())));
        }
        Json::obj(fields)
    }

    /// Status document: one campaign (`Some(id)`) or all campaigns.
    ///
    /// # Errors
    ///
    /// Fails when `id` names no registered campaign.
    pub fn status_doc(&self, id: Option<&str>) -> Result<Json, String> {
        let st = self.state.lock().unwrap();
        match id {
            Some(id) => st
                .campaigns
                .get(id)
                .map(|e| Json::obj(vec![("campaign", Self::entry_doc(id, e))]))
                .ok_or_else(|| format!("unknown campaign id '{id}'")),
            None => Ok(Json::obj(vec![(
                "campaigns",
                Json::Arr(
                    st.campaigns
                        .iter()
                        .map(|(id, e)| Self::entry_doc(id, e))
                        .collect(),
                ),
            )])),
        }
    }

    /// The campaign's canonical `report.json` text, byte-exact.
    ///
    /// # Errors
    ///
    /// Fails when `id` is not a 16-hex content address (defense in
    /// depth below the protocol layer — the id names a directory, so it
    /// must never carry path components), when the campaign is unknown,
    /// or when its report does not exist yet (not terminal, or terminal
    /// without a report).
    pub fn report_text(&self, id: &str) -> Result<String, String> {
        validate_campaign_id(id)?;
        let path = self.cfg.campaign_dir(id).join("report.json");
        if let Ok(text) = std::fs::read_to_string(&path) {
            return Ok(text);
        }
        match self.status_of(id) {
            Some(status) => Err(format!(
                "campaign '{id}' has no report yet (status: {})",
                status.as_str()
            )),
            None => Err(format!("unknown campaign id '{id}'")),
        }
    }

    /// Cancel campaign `id`: a queued campaign is withdrawn outright, a
    /// running one gets its [`CancelToken`] set (the engine stops
    /// claiming jobs and the shard poll loop bails). Idempotent on
    /// terminal campaigns. Returns the resulting status.
    ///
    /// # Errors
    ///
    /// Fails when `id` names no registered campaign.
    pub fn cancel(&self, id: &str) -> Result<CampaignStatus, String> {
        let mut st = self.state.lock().unwrap();
        let entry = st
            .campaigns
            .get_mut(id)
            .ok_or_else(|| format!("unknown campaign id '{id}'"))?;
        match entry.status {
            CampaignStatus::Queued => {
                entry.status = CampaignStatus::Cancelled;
                entry.cancel.cancel();
                st.queue.retain(|q| q != id);
                retain_terminal(&mut st, id, self.cfg.terminal_retained);
                metrics::campaign_terminal("cancelled").inc();
                Ok(CampaignStatus::Cancelled)
            }
            CampaignStatus::Running => {
                entry.cancel.cancel();
                Ok(CampaignStatus::Running)
            }
            terminal => Ok(terminal),
        }
    }

    /// Begin the graceful drain: refuse new submissions, let the
    /// executor finish the queue, wake everyone waiting.
    pub fn shutdown(&self) {
        self.state.lock().unwrap().stopping = true;
        self.work.notify_all();
    }

    /// Whether the drain completed: shutdown requested, queue empty,
    /// the executor thread exited.
    pub fn is_drained(&self) -> bool {
        let st = self.state.lock().unwrap();
        st.stopping && st.queue.is_empty() && !st.worker_live
    }

    /// Block until [`DaemonCore::is_drained`].
    pub fn wait_drained(&self) {
        let mut st = self.state.lock().unwrap();
        while !(st.stopping && st.queue.is_empty() && !st.worker_live) {
            st = self.work.wait(st).unwrap();
        }
    }

    /// Spawn the campaign executor thread: campaigns run one at a time,
    /// each on `workers` engine threads.
    pub(crate) fn spawn_worker(self: &Arc<Self>) -> std::thread::JoinHandle<()> {
        self.state.lock().unwrap().worker_live = true;
        let core = Arc::clone(self);
        std::thread::Builder::new()
            .name(WORKER_SHARD.to_string())
            .spawn(move || core.worker_loop())
            .expect("spawn daemon worker")
    }

    fn worker_loop(self: Arc<Self>) {
        loop {
            let id = {
                let mut st = self.state.lock().unwrap();
                loop {
                    if let Some(id) = st.queue.pop_front() {
                        break id;
                    }
                    if st.stopping {
                        st.worker_live = false;
                        self.work.notify_all();
                        return;
                    }
                    st = self.work.wait(st).unwrap();
                }
            };
            self.run_one(&id);
        }
    }

    /// Execute one queued campaign as the daemon's shard.
    fn run_one(&self, id: &str) {
        let (submission, cancel) = {
            let mut st = self.state.lock().unwrap();
            let Some(entry) = st.campaigns.get_mut(id) else {
                return;
            };
            if entry.status != CampaignStatus::Queued {
                // Cancelled between dequeue and here.
                return;
            }
            entry.status = CampaignStatus::Running;
            (entry.submission.clone(), entry.cancel.clone())
        };
        let dir = self.cfg.campaign_dir(id);
        let outcome = (|| -> std::io::Result<(CampaignStatus, usize, Option<String>)> {
            std::fs::create_dir_all(&dir)?;
            let mut shard = ShardConfig::new(WORKER_SHARD)
                .with_namespace(&submission.tenant)
                .with_backend(self.cfg.store_backend.clone());
            if let Some(ttl) = self.cfg.lease_ttl {
                shard = shard.with_ttl(ttl);
            }
            let exec = ExecConfig {
                workers: self.cfg.workers,
                cancel: cancel.clone(),
            };
            let result = run_campaign_sharded(
                &submission.name,
                &submission.dataset,
                &submission.attack,
                exec,
                &dir,
                &shard,
            )?;
            // The canonical artifacts: byte-identical to any other
            // shard's view by the determinism contract.
            result
                .sharded
                .run
                .report(ReportOptions::default())
                .write_to(&dir.join("report.json"))?;
            let _ = merge_shard_events(&dir);
            let stats = &result.sharded.run.outcome.stats;
            let status = if result.sharded.run.outcome.all_succeeded() {
                CampaignStatus::Done
            } else if cancel.is_cancelled() {
                CampaignStatus::Cancelled
            } else {
                CampaignStatus::Failed
            };
            let error = (status == CampaignStatus::Failed).then(|| {
                // A store-degraded stage error is the root cause of the
                // whole failure: surface the backend message instead of
                // the generic job tally.
                result
                    .sharded
                    .run
                    .outcome
                    .records
                    .iter()
                    .find_map(|r| match &r.status {
                        JobStatus::Failed(msg) if msg.contains(DEGRADED_PREFIX) => {
                            Some(msg.clone())
                        }
                        _ => None,
                    })
                    .unwrap_or_else(|| {
                        format!(
                            "{} failed, {} skipped of {} jobs",
                            stats.failed, stats.skipped, stats.total
                        )
                    })
            });
            Ok((status, stats.executed, error))
        })();
        let tenant = submission.tenant.clone();
        let (status, executed, error) = match outcome {
            Ok(res) => res,
            Err(e) => (CampaignStatus::Failed, 0, Some(e.to_string())),
        };
        // Persist the terminal status next to the report *before* the
        // registry flips terminal (logs are already flushed, so the
        // terminal-before-tail ordering holds): subscribers that find
        // this campaign evicted from the registry — or a future daemon
        // life — read the true status instead of inferring "done" from
        // the mere existence of report.json.
        let marker = match &error {
            Some(e) => format!("{}\n{e}\n", status.as_str()),
            None => format!("{}\n", status.as_str()),
        };
        let _ = std::fs::write(dir.join(STATUS_FILE), marker);
        metrics::campaign_terminal(status.as_str()).inc();
        {
            let mut st = self.state.lock().unwrap();
            if let Some(entry) = st.campaigns.get_mut(id) {
                entry.status = status;
                entry.executed = executed;
                entry.error = error;
            }
            retain_terminal(&mut st, id, self.cfg.terminal_retained);
        }
        self.enforce_tenant_budget(&tenant);
        self.work.notify_all();
    }

    /// Sweep one tenant's store entries across every campaign directory
    /// down to the configured byte budget (LRU by mtime), protecting
    /// campaigns that are still queued or running.
    fn enforce_tenant_budget(&self, tenant: &str) {
        let Some(budget) = self.cfg.tenant_budget_bytes else {
            return;
        };
        let ns = sanitize_tag(tenant);
        let (mut roots, mut protected) = (Vec::new(), Vec::new());
        {
            let st = self.state.lock().unwrap();
            for (id, entry) in &st.campaigns {
                if sanitize_tag(&entry.submission.tenant) != ns {
                    continue;
                }
                let objects = tenant_objects_root(&self.cfg.campaign_dir(id), &ns);
                // Every campaign's store counts toward the tenant's
                // bytes; still-active campaigns are additionally
                // shielded (gc_roots counts entries under a protected
                // root but never evicts them), so a tenant with running
                // campaigns pays for them by losing terminal entries.
                if !entry.status.is_terminal() {
                    protected.push(objects.clone());
                }
                roots.push(objects);
            }
        }
        gc_roots(self.cfg.store_backend.as_ref(), &roots, &protected, budget);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnunlock_core::Submission;
    use gnnunlock_engine::testing::{
        Fault, FaultOp, FaultRule, Faulty, ObjectStoreBackend, TempDir,
    };
    use std::str::FromStr as _;

    fn sub(tenant: &str, name: &str) -> Submission {
        Submission::from_str(&format!(
            r#"{{"tenant":"{tenant}","name":"{name}","scheme":"antisat"}}"#
        ))
        .unwrap()
    }

    /// Queue management without workers: submissions register, dedup,
    /// honor quotas and cancel — no campaign ever executes.
    #[test]
    fn submit_dedups_quotas_and_cancels() {
        let root = TempDir::new("daemon-state-submit");
        let core = DaemonCore::new(DaemonConfig::new(root.to_path_buf()).with_tenant_max_active(2));

        let first = core.submit(sub("acme", "a")).unwrap();
        assert_eq!(first.status, CampaignStatus::Queued);
        assert!(!first.deduped);

        // Identical submission: same id, answered from the registry.
        let again = core.submit(sub("acme", "a")).unwrap();
        assert_eq!(again.id, first.id);
        assert!(again.deduped);

        // Second distinct campaign fills the quota; the third bounces.
        core.submit(sub("acme", "b")).unwrap();
        let err = core.submit(sub("acme", "c")).unwrap_err();
        assert!(err.contains("quota"), "{err}");
        // Another tenant's quota is independent.
        let other = core.submit(sub("rival", "a")).unwrap();
        assert_ne!(other.id, first.id, "tenant is part of the identity");

        // Cancelling a queued campaign frees its quota slot.
        assert_eq!(core.cancel(&first.id).unwrap(), CampaignStatus::Cancelled);
        assert_eq!(core.status_of(&first.id), Some(CampaignStatus::Cancelled));
        core.submit(sub("acme", "c")).unwrap();

        // Status documents cover registered campaigns.
        let all = core.status_doc(None).unwrap();
        let Some(Json::Arr(items)) = all.get("campaigns") else {
            panic!("campaigns array expected");
        };
        assert_eq!(items.len(), 4);
        assert!(core.status_doc(Some("nope")).is_err());
        assert!(core.report_text(&first.id).is_err(), "no report yet");

        // Draining refuses new work.
        core.shutdown();
        assert!(core.submit(sub("acme", "d")).is_err());
        assert!(!core.is_drained(), "queue still holds entries");
    }

    /// A canonical report from a "previous daemon life" answers a fresh
    /// submission without queuing anything — but only a *successful*
    /// one; a persisted failure re-queues instead of masquerading as
    /// done.
    #[test]
    fn on_disk_reports_answer_resubmissions() {
        let root = TempDir::new("daemon-state-prior-life");
        let core = DaemonCore::new(DaemonConfig::new(root.to_path_buf()));
        let id = sub("acme", "a").campaign_id();
        let dir = core.campaign_dir(&id);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("report.json"), "{\"schema\": 1}\n").unwrap();

        let receipt = core.submit(sub("acme", "a")).unwrap();
        assert_eq!(receipt.id, id);
        assert_eq!(receipt.status, CampaignStatus::Done);
        assert!(receipt.deduped);
        assert_eq!(core.report_text(&id).unwrap(), "{\"schema\": 1}\n");

        // A failed prior attempt (status marker says so, even though a
        // report exists) queues a fresh attempt instead of deduping.
        let failed_id = sub("acme", "b").campaign_id();
        let failed_dir = core.campaign_dir(&failed_id);
        std::fs::create_dir_all(&failed_dir).unwrap();
        std::fs::write(failed_dir.join("report.json"), "{\"schema\": 1}\n").unwrap();
        std::fs::write(failed_dir.join(STATUS_FILE), "failed\n").unwrap();
        assert_eq!(persisted_status(&failed_dir), Some(CampaignStatus::Failed));
        let receipt = core.submit(sub("acme", "b")).unwrap();
        assert_eq!(receipt.status, CampaignStatus::Queued);
        assert!(!receipt.deduped);
    }

    /// Ids are validated below the protocol layer too: a traversal
    /// probe never reaches a filesystem read.
    #[test]
    fn report_text_rejects_non_content_address_ids() {
        let root = TempDir::new("daemon-state-traversal");
        // A juicy target one level above the campaigns dir.
        std::fs::write(root.join("report.json"), "secret\n").unwrap();
        let core = DaemonCore::new(DaemonConfig::new(root.to_path_buf()));
        for id in ["..", "../..", "x", "0000000deadbeefX", ""] {
            let err = core.report_text(id).unwrap_err();
            assert!(err.contains("invalid campaign id"), "{id:?} -> {err}");
        }
    }

    /// The registry stays bounded: terminal entries beyond the
    /// retention cap are evicted, oldest first, and resubmissions of an
    /// evicted campaign start afresh (no on-disk report here).
    #[test]
    fn terminal_entries_evict_beyond_retention() {
        let root = TempDir::new("daemon-state-retention");
        let core = DaemonCore::new(
            DaemonConfig::new(root.to_path_buf())
                .with_terminal_retained(1)
                .with_tenant_max_active(8),
        );
        let a = core.submit(sub("acme", "a")).unwrap().id;
        let b = core.submit(sub("acme", "b")).unwrap().id;
        core.cancel(&a).unwrap();
        assert_eq!(core.status_of(&a), Some(CampaignStatus::Cancelled));
        core.cancel(&b).unwrap();
        // `a` was the oldest terminal entry; the cap of 1 evicts it.
        assert_eq!(core.status_of(&a), None);
        assert_eq!(core.status_of(&b), Some(CampaignStatus::Cancelled));
        let again = core.submit(sub("acme", "a")).unwrap();
        assert_eq!(again.id, a);
        assert!(!again.deduped, "evicted+reportless campaigns re-queue");
    }

    /// Tenant budget accounting covers active campaigns' bytes: they
    /// are protected from eviction but still count, so terminal entries
    /// are swept to make room.
    #[test]
    fn tenant_budget_counts_active_campaign_bytes() {
        let root = TempDir::new("daemon-state-budget");
        let core = DaemonCore::new(
            DaemonConfig::new(root.to_path_buf())
                .with_tenant_budget(1024)
                .with_tenant_max_active(8),
        );
        // No workers spawned: `active` stays queued (= protected).
        let active = core.submit(sub("acme", "active")).unwrap().id;
        let done = core.submit(sub("acme", "done")).unwrap().id;
        core.cancel(&done).unwrap();
        let write_obj = |id: &str, name: &str, len: usize| {
            let objects = core
                .campaign_dir(id)
                .join("tenants")
                .join("acme")
                .join("objects");
            std::fs::create_dir_all(&objects).unwrap();
            std::fs::write(objects.join(name), vec![0u8; len]).unwrap();
        };
        write_obj(&active, "live.bin", 900);
        write_obj(&done, "old.bin", 900);
        core.enforce_tenant_budget("acme");
        // 900 + 900 > 1024: the active campaign's bytes alone would fit
        // the budget, but they count — so the terminal entry must go
        // while the active one survives untouched.
        assert!(core
            .campaign_dir(&active)
            .join("tenants/acme/objects/live.bin")
            .is_file());
        assert!(!core
            .campaign_dir(&done)
            .join("tenants/acme/objects/old.bin")
            .is_file());
    }

    /// The budget sweep runs against the *configured* store backend:
    /// with the in-memory object map installed (behind the fault
    /// decorator, for `age`), eviction happens in memory and nothing
    /// touches the real filesystem. In-flight
    /// protocol files (`.tmp-*`, `.lease`) are never billed to the
    /// tenant's budget, and stale orphaned ones are collected by the
    /// same sweep.
    #[test]
    fn tenant_budget_sweep_runs_on_the_configured_backend() {
        use gnnunlock_engine::StoreBackend;
        use std::time::Duration;

        let root = TempDir::new("daemon-state-budget-backend");
        let backend = Arc::new(Faulty::new(ObjectStoreBackend::new()));
        let core = DaemonCore::new(
            DaemonConfig::new(root.to_path_buf())
                .with_tenant_budget(1024)
                .with_tenant_max_active(8)
                .with_store_backend(backend.clone()),
        );
        let active = core.submit(sub("acme", "active")).unwrap().id;
        let done = core.submit(sub("acme", "done")).unwrap().id;
        core.cancel(&done).unwrap();
        let obj = |id: &str, name: &str| {
            core.campaign_dir(id)
                .join("tenants/acme/objects")
                .join(name)
        };
        backend
            .publish(&obj(&active, "live.bin"), &[0u8; 900])
            .unwrap();
        backend
            .publish(&obj(&done, "old.bin"), &[0u8; 900])
            .unwrap();
        // A huge in-flight temp and a held lease: invisible to the
        // 1024-byte budget (billing them would evict every entry) and
        // untouched while fresh.
        backend
            .publish(&obj(&done, ".tmp-42-0"), &[0u8; 64 * 1024])
            .unwrap();
        backend
            .publish(
                &obj(&done, "x.lease"),
                b"gnnunlock-lease owner=w pid=1 gen=0\n",
            )
            .unwrap();
        // A *stale* orphaned temp is collected by the sweep itself.
        let stale = obj(&done, ".tmp-7-7");
        backend.publish(&stale, b"orphan").unwrap();
        backend.age(&stale, Duration::from_secs(2 * 3600));

        core.enforce_tenant_budget("acme");
        assert!(backend.contains(&obj(&active, "live.bin")), "protected");
        assert!(
            !backend.contains(&obj(&done, "old.bin")),
            "terminal entry evicted, in memory"
        );
        assert!(
            backend.contains(&obj(&done, ".tmp-42-0")),
            "fresh in-flight temp is not the sweep's to take"
        );
        assert!(backend.contains(&obj(&done, "x.lease")), "fresh lease kept");
        assert!(!backend.contains(&stale), "stale orphan swept");
        // Nothing leaked onto the real filesystem.
        assert!(!core.campaign_dir(&done).join("tenants").exists());
    }

    /// A store outage mid-campaign fails the campaign *cleanly*: the
    /// worker records terminal status `failed`, the status marker
    /// carries the backend's `store-degraded` error on its second line,
    /// and the resilience layer's retry traffic is scrape-able from the
    /// global metrics registry (the daemon's `/metrics` surface).
    /// Deterministic: the campaign is executed synchronously through
    /// the worker path, and every retry pause lands on the fault
    /// decorator's virtual clock.
    #[test]
    fn store_outage_fails_campaign_with_persisted_error_and_metrics() {
        use gnnunlock_engine::StoreBackend;

        let root = TempDir::new("daemon-state-store-outage");
        let backend = Arc::new(Faulty::new(ObjectStoreBackend::new()));
        // The store answers briefly, then disappears for good: every
        // gated operation after the first few times out, forever.
        backend.inject(FaultRule::on(FaultOp::Load, "", Fault::Unavailable(usize::MAX)).after(8));
        let core = DaemonCore::new(
            DaemonConfig::new(root.to_path_buf())
                .with_store_backend(backend.clone() as Arc<dyn StoreBackend>),
        );
        let tiny = Submission::from_str(concat!(
            r#"{"tenant":"acme","name":"outage","scheme":"antisat","scale":0.02,"#,
            r#""key_sizes":[8],"locks_per_config":1,"#,
            r#""train":{"epochs":2,"hidden":8,"eval_every":1,"patience":0,"#,
            r#""class_weighting":false,"#,
            r#""saint":{"roots":50,"walk_length":2,"estimation_rounds":1,"seed":7}}}"#
        ))
        .unwrap();
        let id = core.submit(tiny).unwrap().id;
        core.run_one(&id);

        assert_eq!(core.status_of(&id), Some(CampaignStatus::Failed));
        let dir = core.campaign_dir(&id);
        assert_eq!(persisted_status(&dir), Some(CampaignStatus::Failed));
        let error = persisted_error(&dir).expect("the backend error must be persisted");
        assert!(error.contains(DEGRADED_PREFIX), "persisted error: {error}");
        let rendered = gnnunlock_telemetry::Registry::global().render_prometheus();
        let retried: f64 = rendered
            .lines()
            .filter(|l| l.starts_with("store_retries_total{"))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum();
        assert!(
            retried > 0.0,
            "store_retries_total must be scrape-able and nonzero:\n{rendered}"
        );
    }
}
