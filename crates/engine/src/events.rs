//! Streaming JSONL event logs for long campaigns.
//!
//! Long campaigns used to be silent until the final report; the
//! [`EventLog`] streams one JSON record per line as jobs start, finish,
//! cache-hit or fail, flushed per event so `tail -f` (and a post-crash
//! reader) always sees a consistent prefix. The same log is what
//! [`crate::Campaign::resume`] replays to know how far a crashed run
//! got.
//!
//! Schema (one object per line, `ev` discriminates — see
//! `tests/golden/events.jsonl` for the pinned golden examples):
//!
//! ```text
//! {"ev":"run-started","campaign":..,"jobs":N,"shape":"<hex>","resumed":bool}
//! {"ev":"job-started","id":N,"label":..}
//! {"ev":"cache-hit","id":N,"label":..,"source":"memory"|"disk"}
//! {"ev":"job-claimed","id":N,"label":..,"owner":..,"generation":N,"takeover":bool}
//! {"ev":"job-elided","id":N,"label":..}
//! {"ev":"job-finished","id":N,"label":..,"status":"ok"|"failed"|"skipped"|"cancelled","ms":F}
//! {"ev":"stage-error","id":N,"label":..,"error":..}
//! {"ev":"stage-summary","kind":..,"total":N,"executed":N,"memory_hits":N,"disk_hits":N,"failed":N,"skipped":N,"cancelled":N,"ms":F,"over_budget":bool}
//! {"ev":"run-finished","succeeded":N,"failed":N,"skipped":N,"cancelled":N}
//! ```
//!
//! `job-claimed` and `job-elided` appear only in *sharded* runs
//! (`Campaign::execute_sharded`): a claim marks this shard acquiring
//! the job's lease immediately before executing its body — so across
//! the merged per-shard logs, "claims whose run also finished the job
//! `ok`" counts true completed executions — and an elision marks a job
//! skipped by probe-ahead scheduling (every dependent's cache entry
//! already exists, so nobody needs its output).
//!
//! `stage-error` accompanies every `job-finished` with status `failed`,
//! carrying the job id and the failure text — including the payload of a
//! panicking job body, so a crash inside one stage is visible in the
//! stream, not only in the final report. Timestamps/durations (`ms`) are
//! wall-clock and therefore volatile; everything else is deterministic
//! content.

use crate::json::Json;
use std::fs;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::sync::Mutex;

/// Environment variable naming the event-log path for the bench
/// binaries.
pub const EVENTS_ENV: &str = "GNNUNLOCK_EVENTS";

/// File name of the event log inside a campaign cache directory.
pub const EVENTS_FILE: &str = "events.jsonl";

/// One record of a campaign event stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A run began (`resumed` when continuing an interrupted campaign).
    RunStarted {
        /// Campaign name.
        campaign: String,
        /// Number of planned jobs.
        jobs: usize,
        /// Campaign shape fingerprint (hex) — resume validates it.
        shape: u64,
        /// Whether this run resumes an earlier log.
        resumed: bool,
    },
    /// A job body is about to execute.
    JobStarted {
        /// Job id (graph index).
        id: usize,
        /// Job label.
        label: String,
    },
    /// A job was served from the result cache without executing.
    CacheHit {
        /// Job id.
        id: usize,
        /// Job label.
        label: String,
        /// `"memory"` or `"disk"`.
        source: String,
    },
    /// A shard acquired the lease on a job and is about to execute it
    /// (sharded runs only). One completed successful execution of a job
    /// leaves exactly one log run containing both its `job-claimed` and
    /// a `job-finished` of status `ok` for it.
    JobClaimed {
        /// Job id (graph index).
        id: usize,
        /// Job label.
        label: String,
        /// The claiming shard's owner string.
        owner: String,
        /// The lease's ownership epoch (0 = fresh claim).
        generation: u64,
        /// Whether the claim took over a stale lease from a dead shard.
        takeover: bool,
    },
    /// A job's execution was elided by probe-ahead scheduling: its own
    /// entry is absent but every dependent's cache entry already
    /// exists, so no one needs its output (sharded runs only).
    JobElided {
        /// Job id.
        id: usize,
        /// Job label.
        label: String,
    },
    /// A job reached a terminal status.
    JobFinished {
        /// Job id.
        id: usize,
        /// Job label.
        label: String,
        /// Status tag (`ok` / `failed` / `skipped` / `cancelled`).
        status: String,
        /// Wall-clock execution milliseconds (volatile).
        ms: f64,
    },
    /// A job failed; carries the error (or panic) text.
    StageError {
        /// Job id.
        id: usize,
        /// Job label.
        label: String,
        /// Failure text.
        error: String,
    },
    /// Per-stage aggregate emitted as a run drains (one record per stage
    /// kind present in the graph, before `run-finished`). The counts
    /// partition the stage's jobs: `total = executed + memory_hits +
    /// disk_hits + failed + skipped + cancelled`.
    StageSummary {
        /// Stage kind tag (`parse`, `train-epoch`, …).
        kind: String,
        /// Jobs of this stage.
        total: usize,
        /// Jobs whose bodies ran.
        executed: usize,
        /// Jobs served from the memory cache tier.
        memory_hits: usize,
        /// Jobs served from the disk cache tier.
        disk_hits: usize,
        /// Jobs that failed.
        failed: usize,
        /// Jobs skipped because a dependency did not succeed.
        skipped: usize,
        /// Jobs cancelled before they could run.
        cancelled: usize,
        /// Summed execution milliseconds (volatile).
        ms: f64,
        /// Whether `ms` exceeded the run's `GNNUNLOCK_STAGE_BUDGET_MS`
        /// (observability only; volatile like `ms`).
        over_budget: bool,
    },
    /// The run drained; terminal counters.
    RunFinished {
        /// Jobs that succeeded (executed or cache-served).
        succeeded: usize,
        /// Jobs that failed.
        failed: usize,
        /// Jobs skipped due to failed dependencies.
        skipped: usize,
        /// Jobs cancelled.
        cancelled: usize,
    },
}

impl Event {
    /// The JSON document of this event.
    pub fn to_json(&self) -> Json {
        let num = |n: usize| Json::Num(n as f64);
        match self {
            Event::RunStarted {
                campaign,
                jobs,
                shape,
                resumed,
            } => Json::obj(vec![
                ("ev", Json::Str("run-started".into())),
                ("campaign", Json::Str(campaign.clone())),
                ("jobs", num(*jobs)),
                ("shape", Json::Str(format!("{shape:016x}"))),
                ("resumed", Json::Bool(*resumed)),
            ]),
            Event::JobStarted { id, label } => Json::obj(vec![
                ("ev", Json::Str("job-started".into())),
                ("id", num(*id)),
                ("label", Json::Str(label.clone())),
            ]),
            Event::CacheHit { id, label, source } => Json::obj(vec![
                ("ev", Json::Str("cache-hit".into())),
                ("id", num(*id)),
                ("label", Json::Str(label.clone())),
                ("source", Json::Str(source.clone())),
            ]),
            Event::JobClaimed {
                id,
                label,
                owner,
                generation,
                takeover,
            } => Json::obj(vec![
                ("ev", Json::Str("job-claimed".into())),
                ("id", num(*id)),
                ("label", Json::Str(label.clone())),
                ("owner", Json::Str(owner.clone())),
                ("generation", Json::Num(*generation as f64)),
                ("takeover", Json::Bool(*takeover)),
            ]),
            Event::JobElided { id, label } => Json::obj(vec![
                ("ev", Json::Str("job-elided".into())),
                ("id", num(*id)),
                ("label", Json::Str(label.clone())),
            ]),
            Event::JobFinished {
                id,
                label,
                status,
                ms,
            } => Json::obj(vec![
                ("ev", Json::Str("job-finished".into())),
                ("id", num(*id)),
                ("label", Json::Str(label.clone())),
                ("status", Json::Str(status.clone())),
                ("ms", Json::Num(*ms)),
            ]),
            Event::StageError { id, label, error } => Json::obj(vec![
                ("ev", Json::Str("stage-error".into())),
                ("id", num(*id)),
                ("label", Json::Str(label.clone())),
                ("error", Json::Str(error.clone())),
            ]),
            Event::StageSummary {
                kind,
                total,
                executed,
                memory_hits,
                disk_hits,
                failed,
                skipped,
                cancelled,
                ms,
                over_budget,
            } => Json::obj(vec![
                ("ev", Json::Str("stage-summary".into())),
                ("kind", Json::Str(kind.clone())),
                ("total", num(*total)),
                ("executed", num(*executed)),
                ("memory_hits", num(*memory_hits)),
                ("disk_hits", num(*disk_hits)),
                ("failed", num(*failed)),
                ("skipped", num(*skipped)),
                ("cancelled", num(*cancelled)),
                ("ms", Json::Num(*ms)),
                ("over_budget", Json::Bool(*over_budget)),
            ]),
            Event::RunFinished {
                succeeded,
                failed,
                skipped,
                cancelled,
            } => Json::obj(vec![
                ("ev", Json::Str("run-finished".into())),
                ("succeeded", num(*succeeded)),
                ("failed", num(*failed)),
                ("skipped", num(*skipped)),
                ("cancelled", num(*cancelled)),
            ]),
        }
    }

    /// Serialize as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        self.to_json().render_compact()
    }

    /// Parse one JSONL line.
    ///
    /// # Errors
    ///
    /// Returns a message when the line is not valid JSON or not a known
    /// event shape.
    pub fn parse(line: &str) -> Result<Event, String> {
        let doc = Json::parse(line)?;
        let str_field = |k: &str| -> Result<String, String> {
            doc.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field '{k}'"))
        };
        let num_field = |k: &str| -> Result<usize, String> {
            doc.get(k)
                .and_then(Json::as_num)
                .map(|x| x as usize)
                .ok_or_else(|| format!("missing numeric field '{k}'"))
        };
        let ev = str_field("ev")?;
        match ev.as_str() {
            "run-started" => Ok(Event::RunStarted {
                campaign: str_field("campaign")?,
                jobs: num_field("jobs")?,
                shape: u64::from_str_radix(&str_field("shape")?, 16)
                    .map_err(|_| "bad shape hex".to_string())?,
                resumed: matches!(doc.get("resumed"), Some(Json::Bool(true))),
            }),
            "job-started" => Ok(Event::JobStarted {
                id: num_field("id")?,
                label: str_field("label")?,
            }),
            "cache-hit" => Ok(Event::CacheHit {
                id: num_field("id")?,
                label: str_field("label")?,
                source: str_field("source")?,
            }),
            "job-claimed" => Ok(Event::JobClaimed {
                id: num_field("id")?,
                label: str_field("label")?,
                owner: str_field("owner")?,
                generation: num_field("generation")? as u64,
                takeover: matches!(doc.get("takeover"), Some(Json::Bool(true))),
            }),
            "job-elided" => Ok(Event::JobElided {
                id: num_field("id")?,
                label: str_field("label")?,
            }),
            "job-finished" => Ok(Event::JobFinished {
                id: num_field("id")?,
                label: str_field("label")?,
                status: str_field("status")?,
                ms: doc
                    .get("ms")
                    .and_then(Json::as_num)
                    .ok_or("missing field 'ms'")?,
            }),
            "stage-error" => Ok(Event::StageError {
                id: num_field("id")?,
                label: str_field("label")?,
                error: str_field("error")?,
            }),
            "stage-summary" => Ok(Event::StageSummary {
                kind: str_field("kind")?,
                total: num_field("total")?,
                executed: num_field("executed")?,
                memory_hits: num_field("memory_hits")?,
                disk_hits: num_field("disk_hits")?,
                failed: num_field("failed")?,
                skipped: num_field("skipped")?,
                cancelled: num_field("cancelled")?,
                ms: doc
                    .get("ms")
                    .and_then(Json::as_num)
                    .ok_or("missing field 'ms'")?,
                // Absent in pre-budget logs: default false so old event
                // streams replay unchanged.
                over_budget: matches!(doc.get("over_budget"), Some(Json::Bool(true))),
            }),
            "run-finished" => Ok(Event::RunFinished {
                succeeded: num_field("succeeded")?,
                failed: num_field("failed")?,
                skipped: num_field("skipped")?,
                cancelled: num_field("cancelled")?,
            }),
            other => Err(format!("unknown event '{other}'")),
        }
    }
}

/// What an event-log replay recovered.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Every event that parsed, in file order.
    pub events: Vec<Event>,
    /// Whether the file ended in an unparsable line — the signature of a
    /// writer killed mid-record. The consistent prefix is still usable.
    pub truncated: bool,
}

impl Replay {
    /// Ids of jobs that reached success in this log (executed `ok` or
    /// cache-served) — the set a resumed run may skip.
    pub fn completed_ids(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = self
            .events
            .iter()
            .filter_map(|e| match e {
                Event::JobFinished { id, status, .. } if status == "ok" => Some(*id),
                Event::CacheHit { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The shape fingerprint of the last `run-started` record, if any.
    pub fn last_shape(&self) -> Option<u64> {
        self.events.iter().rev().find_map(|e| match e {
            Event::RunStarted { shape, .. } => Some(*shape),
            _ => None,
        })
    }
}

/// A chunk of complete lines read off a growing JSONL log by
/// [`EventLog::tail_from`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogTail {
    /// The complete (newline-terminated) lines read since the polled
    /// offset, without their newlines, in file order. A torn final
    /// line — a writer caught mid-record — is never included.
    pub lines: Vec<String>,
    /// The offset to poll from next: one byte past the last newline
    /// consumed. Because the offset never advances past a torn line,
    /// the line is yielded exactly once — on the poll that first sees
    /// it complete — and never twice.
    pub offset: u64,
    /// The file shrank below the polled offset (log recreated, e.g. by
    /// [`EventLog::create`]): this tail restarted from the beginning of
    /// the new file.
    pub reset: bool,
}

/// An append-only JSONL event sink, flushed per event.
pub struct EventLog {
    writer: Mutex<BufWriter<fs::File>>,
}

impl EventLog {
    /// Create (truncating) a log at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: &Path) -> io::Result<EventLog> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        Ok(EventLog {
            writer: Mutex::new(BufWriter::new(fs::File::create(path)?)),
        })
    }

    /// Open a log at `path` for appending (resume flows). A file whose
    /// last record was torn by a crash (no trailing newline) is
    /// repaired with a newline first, so appended records never merge
    /// into the torn line.
    ///
    /// # Errors
    ///
    /// Propagates file-open errors.
    pub fn open_append(path: &Path) -> io::Result<EventLog> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        if !ends_with_newline(path).unwrap_or(true) {
            file.write_all(b"\n")?;
        }
        Ok(EventLog {
            writer: Mutex::new(BufWriter::new(file)),
        })
    }

    /// Append one event and flush it to the OS, so readers (and crash
    /// forensics) always see whole records.
    pub fn append(&self, event: &Event) {
        let mut w = self.writer.lock().unwrap();
        // Event emission is observability: an unwritable log must not
        // fail the campaign, so errors are swallowed here (the campaign
        // entry points surface creation errors, which catch the common
        // misconfigurations).
        let _ = writeln!(w, "{}", event.to_jsonl());
        let _ = w.flush();
    }

    /// Tail a log file being appended concurrently: read the complete
    /// lines between `offset` and the last newline currently on disk.
    ///
    /// The contract live subscribers need (and [`LogTail`] documents):
    /// polling in a loop with the returned offset yields every line
    /// **exactly once**, and never a torn final line — a record a
    /// concurrent [`EventLog::append`] has only partially flushed is
    /// left unconsumed until a later poll sees its newline. A missing
    /// file is an empty tail at the same offset (the writer may simply
    /// not have created the log yet); a file that shrank below `offset`
    /// (recreated log) restarts from the top with `reset` set.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than the file not existing.
    pub fn tail_from(path: &Path, offset: u64) -> io::Result<LogTail> {
        use std::io::{Read as _, Seek as _, SeekFrom};
        let mut file = match fs::File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Ok(LogTail {
                    offset,
                    ..LogTail::default()
                })
            }
            Err(e) => return Err(e),
        };
        let len = file.metadata()?.len();
        let (start, reset) = if len < offset {
            (0, true)
        } else {
            (offset, false)
        };
        let mut tail = LogTail {
            offset: start,
            reset,
            ..LogTail::default()
        };
        if len == start {
            return Ok(tail);
        }
        file.seek(SeekFrom::Start(start))?;
        let mut bytes = Vec::with_capacity((len - start) as usize);
        file.read_to_end(&mut bytes)?;
        // Consume only up to the last newline: everything after it is a
        // torn final line still being written, and the unadvanced offset
        // re-reads it on the next poll — by then complete.
        let Some(last_newline) = bytes.iter().rposition(|&b| b == b'\n') else {
            return Ok(tail);
        };
        tail.lines = bytes[..last_newline]
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .map(|l| String::from_utf8_lossy(l).into_owned())
            .collect();
        tail.offset = start + last_newline as u64 + 1;
        Ok(tail)
    }

    /// Replay a log file: parse every line, skipping (and flagging via
    /// `truncated = true`) any malformed record — the signature of a
    /// writer killed mid-write. Records appended after a torn line
    /// (e.g. by a resumed run) are still recovered.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a missing file is an empty replay.
    pub fn replay(path: &Path) -> io::Result<Replay> {
        let text = match fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Replay::default()),
            Err(e) => return Err(e),
        };
        let mut replay = Replay::default();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match Event::parse(line) {
                Ok(ev) => replay.events.push(ev),
                Err(_) => replay.truncated = true,
            }
        }
        Ok(replay)
    }
}

/// Whether the file's final byte is a newline — O(1): seek to the end
/// and read one byte (event logs can be large; never slurp them here).
/// An empty file counts as newline-terminated.
fn ends_with_newline(path: &Path) -> io::Result<bool> {
    use std::io::{Read as _, Seek as _, SeekFrom};
    let mut f = fs::File::open(path)?;
    if f.metadata()?.len() == 0 {
        return Ok(true);
    }
    f.seek(SeekFrom::End(-1))?;
    let mut last = [0u8; 1];
    f.read_exact(&mut last)?;
    Ok(last[0] == b'\n')
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::TempDir;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::RunStarted {
                campaign: "demo".into(),
                jobs: 3,
                shape: 0xabcdef,
                resumed: false,
            },
            Event::JobStarted {
                id: 0,
                label: "lock/a".into(),
            },
            Event::JobFinished {
                id: 0,
                label: "lock/a".into(),
                status: "ok".into(),
                ms: 1.5,
            },
            Event::CacheHit {
                id: 1,
                label: "train/a".into(),
                source: "disk".into(),
            },
            Event::JobClaimed {
                id: 3,
                label: "dataset/a".into(),
                owner: "shard-1".into(),
                generation: 2,
                takeover: true,
            },
            Event::JobElided {
                id: 4,
                label: "lock/a".into(),
            },
            Event::StageError {
                id: 2,
                label: "attack/a".into(),
                error: "job panicked: \"boom\"".into(),
            },
            Event::JobFinished {
                id: 2,
                label: "attack/a".into(),
                status: "failed".into(),
                ms: 0.25,
            },
            Event::StageSummary {
                kind: "train-epoch".into(),
                total: 8,
                executed: 5,
                memory_hits: 1,
                disk_hits: 2,
                failed: 0,
                skipped: 0,
                cancelled: 0,
                ms: 412.5,
                over_budget: false,
            },
            Event::RunFinished {
                succeeded: 2,
                failed: 1,
                skipped: 0,
                cancelled: 0,
            },
        ]
    }

    #[test]
    fn serialize_parse_round_trip() {
        for ev in sample_events() {
            let line = ev.to_jsonl();
            assert!(!line.contains('\n'), "JSONL records are single lines");
            assert_eq!(Event::parse(&line).unwrap(), ev);
        }
    }

    #[test]
    fn stage_summary_parse_tolerates_pre_budget_records() {
        // Logs written before the over_budget field must still replay.
        let old = r#"{"ev": "stage-summary", "kind": "train", "total": 2, "executed": 2, "memory_hits": 0, "disk_hits": 0, "failed": 0, "skipped": 0, "cancelled": 0, "ms": 7.5}"#;
        match Event::parse(old).unwrap() {
            Event::StageSummary { over_budget, .. } => assert!(!over_budget),
            other => panic!("expected stage-summary, got {other:?}"),
        }
    }

    #[test]
    fn log_write_and_replay() {
        let dir = TempDir::new("events-replay");
        let path = dir.join("events.jsonl");
        let log = EventLog::create(&path).unwrap();
        for ev in sample_events() {
            log.append(&ev);
        }
        drop(log);
        let replay = EventLog::replay(&path).unwrap();
        assert!(!replay.truncated);
        assert_eq!(replay.events, sample_events());
        assert_eq!(replay.completed_ids(), vec![0, 1]);
        assert_eq!(replay.last_shape(), Some(0xabcdef));
        // Appending continues the stream.
        let log = EventLog::open_append(&path).unwrap();
        log.append(&Event::JobStarted {
            id: 9,
            label: "late".into(),
        });
        drop(log);
        assert_eq!(
            EventLog::replay(&path).unwrap().events.len(),
            sample_events().len() + 1
        );
    }

    /// The tailing contract under an interleaved writer: every poll
    /// between writer flushes sees exactly the newly completed lines —
    /// a torn final line is yielded neither early (torn) nor twice
    /// (after completion).
    #[test]
    fn tail_from_interleaved_writer_flushes_and_reader_polls() {
        use std::io::Write as _;
        let dir = TempDir::new("events-tail");
        let path = dir.join("events.jsonl");

        // Poll 0: no file yet — empty tail, offset unmoved.
        let t = EventLog::tail_from(&path, 0).unwrap();
        assert_eq!((t.lines.len(), t.offset, t.reset), (0, 0, false));

        let events = sample_events();
        let log = EventLog::create(&path).unwrap();
        let mut seen: Vec<String> = Vec::new();
        let mut offset = 0u64;

        // Interleave: after each writer flush, one reader poll must see
        // exactly the one new line.
        for ev in &events[..3] {
            log.append(ev);
            let t = EventLog::tail_from(&path, offset).unwrap();
            assert_eq!(t.lines, vec![ev.to_jsonl()]);
            assert!(!t.reset);
            offset = t.offset;
            seen.extend(t.lines);
        }

        // A torn write: the writer flushed half a record (no newline).
        // (Drop the EventLog first — its `File::create` handle tracks
        // its own position and would overwrite raw appends.)
        drop(log);
        let full = events[3].to_jsonl();
        let (head, rest) = full.split_at(full.len() / 2);
        let mut raw = fs::OpenOptions::new().append(true).open(&path).unwrap();
        raw.write_all(head.as_bytes()).unwrap();
        raw.flush().unwrap();
        let t = EventLog::tail_from(&path, offset).unwrap();
        assert!(t.lines.is_empty(), "a torn line must not be yielded");
        assert_eq!(t.offset, offset, "the offset must not consume a torn line");

        // Polling again before the line completes still yields nothing
        // (no double consumption of the partial bytes either).
        let t = EventLog::tail_from(&path, offset).unwrap();
        assert!(t.lines.is_empty());

        // The writer completes the record: one poll, exactly one line,
        // byte-identical to the full record — yielded once, not twice.
        raw.write_all(rest.as_bytes()).unwrap();
        raw.write_all(b"\n").unwrap();
        raw.flush().unwrap();
        let t = EventLog::tail_from(&path, offset).unwrap();
        assert_eq!(t.lines, vec![full.clone()]);
        offset = t.offset;
        seen.extend(t.lines);

        // A multi-line burst arrives between polls (a resumed writer
        // appends — open_append positions at the true end of file).
        drop(raw);
        let log = EventLog::open_append(&path).unwrap();
        for ev in &events[4..] {
            log.append(ev);
        }
        let t = EventLog::tail_from(&path, offset).unwrap();
        assert_eq!(t.lines.len(), events.len() - 4);
        offset = t.offset;
        seen.extend(t.lines);

        // Quiescent poll: nothing new.
        let t = EventLog::tail_from(&path, offset).unwrap();
        assert!(t.lines.is_empty());
        assert_eq!(t.offset, offset);

        // Loss-free and duplicate-free: the concatenation of every poll
        // equals the writer's stream.
        let expected: Vec<String> = events.iter().map(Event::to_jsonl).collect();
        assert_eq!(seen, expected);

        // A recreated (shrunk) log resets the tail to the new content.
        drop(log);
        let log = EventLog::create(&path).unwrap();
        log.append(&events[0]);
        let t = EventLog::tail_from(&path, offset).unwrap();
        assert!(t.reset, "a shrunk file must be reported as a reset");
        assert_eq!(t.lines, vec![events[0].to_jsonl()]);
    }

    #[test]
    fn replay_tolerates_a_torn_tail() {
        let dir = TempDir::new("events-torn");
        let path = dir.join("events.jsonl");
        let log = EventLog::create(&path).unwrap();
        log.append(&sample_events()[0]);
        drop(log);
        // Simulate a writer killed mid-record.
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("{\"ev\":\"job-fin");
        fs::write(&path, text).unwrap();
        let replay = EventLog::replay(&path).unwrap();
        assert!(replay.truncated);
        assert_eq!(replay.events.len(), 1);
        // A missing file is just an empty replay.
        let replay = EventLog::replay(&dir.join("nonexistent.jsonl")).unwrap();
        assert!(replay.events.is_empty() && !replay.truncated);
    }
}
