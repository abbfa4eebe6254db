//! Live campaign tailing: the `subscribe` stream's file walker and the
//! `gnnunlockd --watch` terminal dashboard.
//!
//! Both consumers poll the campaign directory's event logs with
//! [`gnnunlock_engine::EventLog::tail_from`] — torn final lines are
//! never surfaced, so every line handed out is a complete JSONL record
//! exactly once per (file, offset) cursor.

use gnnunlock_engine::{Event, EventLog, LogTail, DEGRADED_PREFIX};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The event logs of a campaign directory, sorted: the single-process
/// log (`events.jsonl`) and every per-shard log (`events-<id>.jsonl`),
/// but never the merged stream (it would duplicate every record).
///
/// # Errors
///
/// Propagates directory read errors; a missing directory is an empty
/// list (the campaign just hasn't started).
pub fn event_log_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut out: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("events") && n.ends_with(".jsonl"))
        })
        .filter(|p| p.file_name().and_then(|n| n.to_str()) != Some("merged-events.jsonl"))
        .collect();
    out.sort();
    Ok(out)
}

/// Poll every event log under `dir` once, advancing the per-file
/// `cursors`, and hand each complete new line to `sink`. Returns how
/// many lines were consumed this tick.
///
/// # Errors
///
/// Propagates I/O errors from the directory walk or the tails.
pub fn poll_event_logs(
    dir: &Path,
    cursors: &mut BTreeMap<PathBuf, u64>,
    mut sink: impl FnMut(&str),
) -> io::Result<usize> {
    let mut consumed = 0;
    for path in event_log_files(dir)? {
        let offset = cursors.get(&path).copied().unwrap_or(0);
        let LogTail { lines, offset, .. } = EventLog::tail_from(&path, offset)?;
        consumed += lines.len();
        for line in &lines {
            sink(line);
        }
        cursors.insert(path, offset);
    }
    Ok(consumed)
}

/// Per-stage metric row of the watch dashboard, folded from
/// `stage-summary` events (the latest record per stage kind wins — each
/// shard's run emits one rollup per stage at run end).
#[derive(Debug, Clone, Default)]
pub struct StageRow {
    /// Jobs of this stage.
    pub total: usize,
    /// Jobs whose bodies ran.
    pub executed: usize,
    /// Jobs served from either cache tier.
    pub cache_hits: usize,
    /// Jobs that failed.
    pub failed: usize,
    /// Summed execution milliseconds.
    pub ms: f64,
    /// The stage blew through `GNNUNLOCK_STAGE_BUDGET_MS` — rendered as
    /// a highlighted row so overruns are visible live, not only in the
    /// opt-in timing report.
    pub over_budget: bool,
}

/// Aggregated view of a campaign's event streams, fed line by line.
#[derive(Debug, Clone, Default)]
pub struct WatchState {
    /// Campaign name from the latest `run-started` record.
    pub campaign: String,
    /// Jobs in the campaign's graph (from `run-started`).
    pub jobs: usize,
    /// `run-started` records seen (one per shard per run).
    pub runs_started: usize,
    /// `run-finished` records seen.
    pub runs_finished: usize,
    /// Job bodies started.
    pub started: usize,
    /// Jobs finished with status `ok`.
    pub finished_ok: usize,
    /// Jobs finished with any other status.
    pub finished_other: usize,
    /// Cache hits (memory or disk).
    pub cache_hits: usize,
    /// Lease claims (sharded executions).
    pub claimed: usize,
    /// Probe-ahead elisions.
    pub elided: usize,
    /// Stage errors.
    pub errors: usize,
    /// Stage errors carrying the `store-degraded` marker — the store
    /// backend's circuit breaker tripped while this campaign ran.
    pub degraded: usize,
    /// The most recent `store-degraded` stage-error message.
    pub last_degraded: String,
    /// Label of the most recent job-level record.
    pub last_label: String,
    /// Lines that failed to parse as events (foreign content).
    pub unparsed: usize,
    /// Per-stage metric rows keyed by stage kind tag.
    pub stages: BTreeMap<String, StageRow>,
}

impl WatchState {
    /// Fold one event-log line into the counters.
    pub fn apply_line(&mut self, line: &str) {
        match Event::parse(line) {
            Ok(ev) => self.apply(&ev),
            Err(_) => self.unparsed += 1,
        }
    }

    /// Fold one parsed event into the counters.
    pub fn apply(&mut self, ev: &Event) {
        match ev {
            Event::RunStarted { campaign, jobs, .. } => {
                self.campaign = campaign.clone();
                self.jobs = *jobs;
                self.runs_started += 1;
            }
            Event::RunFinished { .. } => self.runs_finished += 1,
            Event::JobStarted { label, .. } => {
                self.started += 1;
                self.last_label = label.clone();
            }
            Event::JobFinished { label, status, .. } => {
                if status == "ok" {
                    self.finished_ok += 1;
                } else {
                    self.finished_other += 1;
                }
                self.last_label = label.clone();
            }
            Event::CacheHit { label, .. } => {
                self.cache_hits += 1;
                self.last_label = label.clone();
            }
            Event::JobClaimed { label, .. } => {
                self.claimed += 1;
                self.last_label = label.clone();
            }
            Event::JobElided { label, .. } => {
                self.elided += 1;
                self.last_label = label.clone();
            }
            Event::StageError { label, error, .. } => {
                self.errors += 1;
                if error.contains(DEGRADED_PREFIX) {
                    self.degraded += 1;
                    self.last_degraded = error.clone();
                }
                self.last_label = label.clone();
            }
            // Per-stage timing rollups: no per-job progress, but they
            // are the dashboard's metric rows (and the only live
            // surface of an `over_budget` mark).
            Event::StageSummary {
                kind,
                total,
                executed,
                memory_hits,
                disk_hits,
                failed,
                ms,
                over_budget,
                ..
            } => {
                let row = self.stages.entry(kind.clone()).or_default();
                row.total = *total;
                row.executed = *executed;
                row.cache_hits = *memory_hits + *disk_hits;
                row.failed = *failed;
                row.ms = *ms;
                row.over_budget = *over_budget;
            }
        }
    }

    /// Settled jobs (terminal one way or another) out of [`Self::jobs`].
    pub fn settled(&self) -> usize {
        self.finished_ok + self.finished_other + self.cache_hits + self.elided
    }

    /// One dashboard frame. Mostly plain text (the caller owns the
    /// screen); the only ANSI inside the frame is the red highlight on
    /// over-budget stage rows and the store-degraded banner.
    pub fn render(&self, id: &str) -> String {
        let header = if self.campaign.is_empty() {
            format!("campaign {id} — waiting for events")
        } else {
            format!("campaign {id} ({})", self.campaign)
        };
        let width = 32usize;
        let filled = (self.settled() * width)
            .checked_div(self.jobs)
            .unwrap_or(0)
            .min(width);
        let bar: String = std::iter::repeat_n('#', filled)
            .chain(std::iter::repeat_n('.', width - filled))
            .collect();
        let mut frame = format!(
            "{header}\n\
             [{bar}] {}/{} jobs settled\n\
             ok {}  hits {}  claimed {}  elided {}  failed {}  errors {}\n\
             runs {}/{} finished   last: {}\n",
            self.settled(),
            self.jobs,
            self.finished_ok,
            self.cache_hits,
            self.claimed,
            self.elided,
            self.finished_other,
            self.errors,
            self.runs_finished,
            self.runs_started,
            if self.last_label.is_empty() {
                "-"
            } else {
                &self.last_label
            },
        );
        if self.degraded > 0 {
            frame.push_str(&format!(
                "\x1b[31;1mSTORE DEGRADED  {} store-degraded stage errors   last: {}\x1b[0m\n",
                self.degraded, self.last_degraded
            ));
        }
        for (kind, row) in &self.stages {
            let line = format!(
                "  {kind:<14} {:>3} jobs  {:>3} run  {:>3} hits  {:>3} failed  {:>9.1} ms",
                row.total, row.executed, row.cache_hits, row.failed, row.ms,
            );
            if row.over_budget {
                frame.push_str(&format!("\x1b[31;1m{line}  OVER BUDGET\x1b[0m\n"));
            } else {
                frame.push_str(&line);
                frame.push('\n');
            }
        }
        frame
    }
}

/// The `gnnunlockd --watch <id>` dashboard: tail the campaign
/// directory's event logs, redraw a terminal frame per tick, and exit
/// once every observed run finished and the logs go quiet (or after one
/// frame with `once`).
///
/// # Errors
///
/// Propagates I/O errors from the log tails or stdout.
pub fn run_watch(dir: &Path, id: &str, once: bool) -> io::Result<()> {
    let mut cursors = BTreeMap::new();
    let mut state = WatchState::default();
    let mut quiet_ticks = 0u32;
    loop {
        let consumed = poll_event_logs(dir, &mut cursors, |line| state.apply_line(line))?;
        let stdout = io::stdout();
        let mut out = stdout.lock();
        // Home + clear-to-end: flicker-free redraw on real terminals,
        // harmless noise in captured output.
        write!(out, "\x1b[H\x1b[2J{}", state.render(id))?;
        out.flush()?;
        if once {
            return Ok(());
        }
        quiet_ticks = if consumed == 0 { quiet_ticks + 1 } else { 0 };
        let report_done = dir.join("report.json").is_file();
        let runs_settled = state.runs_started > 0 && state.runs_finished >= state.runs_started;
        if quiet_ticks >= 3 && (report_done || runs_settled) {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnunlock_engine::testing::TempDir;
    use gnnunlock_engine::EventLog;

    #[test]
    fn polling_walks_all_logs_but_never_the_merged_stream() {
        let dir = TempDir::new("watch-walk");
        let a = EventLog::open_append(&dir.join("events-a.jsonl")).unwrap();
        let b = EventLog::open_append(&dir.join("events-b.jsonl")).unwrap();
        std::fs::write(dir.join("merged-events.jsonl"), "{\"ev\":\"bogus\"}\n").unwrap();
        a.append(&Event::JobStarted {
            id: 0,
            label: "parse/x".into(),
        });
        b.append(&Event::JobFinished {
            id: 0,
            label: "parse/x".into(),
            status: "ok".into(),
            ms: 1.0,
        });

        let mut cursors = BTreeMap::new();
        let mut lines = Vec::new();
        let n = poll_event_logs(&dir, &mut cursors, |l| lines.push(l.to_string())).unwrap();
        assert_eq!(n, 2);
        assert!(lines.iter().all(|l| !l.contains("bogus")));
        // A second poll from the cursors yields nothing new.
        let n = poll_event_logs(&dir, &mut cursors, |_| panic!("no new lines")).unwrap();
        assert_eq!(n, 0);
        // New appends resume from the cursor.
        a.append(&Event::JobElided {
            id: 1,
            label: "lock/x".into(),
        });
        let n = poll_event_logs(&dir, &mut cursors, |l| lines.push(l.to_string())).unwrap();
        assert_eq!(n, 1);
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn watch_state_folds_events_into_a_frame() {
        let mut state = WatchState::default();
        state.apply(&Event::RunStarted {
            campaign: "svc".into(),
            jobs: 4,
            shape: 7,
            resumed: false,
        });
        state.apply(&Event::JobStarted {
            id: 0,
            label: "parse/c1".into(),
        });
        state.apply(&Event::JobFinished {
            id: 0,
            label: "parse/c1".into(),
            status: "ok".into(),
            ms: 2.0,
        });
        state.apply(&Event::CacheHit {
            id: 1,
            label: "lock/c1".into(),
            source: "disk".into(),
        });
        state.apply_line("not an event");
        assert_eq!(state.settled(), 2);
        assert_eq!(state.unparsed, 1);
        let frame = state.render("deadbeef");
        assert!(frame.contains("deadbeef"));
        assert!(frame.contains("2/4 jobs settled"));
        assert!(frame.contains("lock/c1"));
    }

    /// Stage-summary events become per-stage metric rows; an
    /// `over_budget` mark gets the red highlight instead of being
    /// silently dropped (the old fold ignored these events entirely).
    #[test]
    fn stage_summary_rows_render_and_highlight_overruns() {
        let summary = |kind: &str, ms: f64, over_budget: bool| Event::StageSummary {
            kind: kind.into(),
            total: 4,
            executed: 2,
            memory_hits: 1,
            disk_hits: 1,
            failed: 0,
            skipped: 0,
            cancelled: 0,
            ms,
            over_budget,
        };
        let mut state = WatchState::default();
        state.apply(&summary("parse", 12.5, false));
        state.apply(&summary("train-epoch", 905.0, true));
        assert_eq!(state.stages.len(), 2);
        assert!(state.stages["train-epoch"].over_budget);
        let frame = state.render("deadbeef");
        assert!(frame.contains("parse"), "{frame}");
        assert!(frame.contains("905.0 ms"), "{frame}");
        let highlighted = frame
            .lines()
            .find(|l| l.contains("train-epoch"))
            .expect("row rendered");
        assert!(
            highlighted.starts_with("\x1b[31;1m") && highlighted.contains("OVER BUDGET"),
            "{highlighted}"
        );
        assert!(
            !frame
                .lines()
                .any(|l| l.contains("parse") && l.contains("\x1b[31;1m")),
            "within-budget rows stay plain"
        );
        // Re-applying a later rollup replaces the row, never duplicates.
        state.apply(&summary("parse", 14.0, false));
        assert_eq!(state.stages.len(), 2);
        assert_eq!(state.stages["parse"].ms, 14.0);
    }

    /// `store-degraded` stage errors surface as a highlighted banner —
    /// a tripped store breaker must be visible live, not buried in the
    /// generic error count.
    #[test]
    fn store_degraded_stage_errors_render_a_highlighted_banner() {
        let mut state = WatchState::default();
        state.apply(&Event::StageError {
            id: 3,
            label: "train/c1".into(),
            error: "ordinary failure".into(),
        });
        assert_eq!(state.degraded, 0, "plain errors are not degradations");
        assert!(!state.render("deadbeef").contains("STORE DEGRADED"));
        state.apply(&Event::StageError {
            id: 4,
            label: "verify/c1".into(),
            error: "store-degraded: object backend circuit breaker is open (load rejected)".into(),
        });
        assert_eq!(state.errors, 2);
        assert_eq!(state.degraded, 1);
        let frame = state.render("deadbeef");
        let banner = frame
            .lines()
            .find(|l| l.contains("STORE DEGRADED"))
            .expect("banner rendered");
        assert!(
            banner.starts_with("\x1b[31;1m") && banner.contains("circuit breaker is open"),
            "{banner}"
        );
    }
}
