//! The `daemon-service` workload: a client of `gnnunlockd` driving fresh
//! submissions, warm (deduplicated) re-submissions and small requests,
//! plus the daemon host the benchmark starts as its child process.
//!
//! Closed loops: one submitter waits for each campaign's `subscribe-end`
//! before submitting the next; one requester keeps a dedup / status /
//! report request in flight on its own connection.

use crate::probe::{self, ms_since};
use crate::report::{median, per_second, Ledger, Metrics};
use crate::trace::{self, TracedBackend};
use crate::{keep_going, Args, DaemonRef};
use gnnunlock_core::{AttackOutcome, Submission};
use gnnunlock_daemon::{Daemon, DaemonConfig};
use gnnunlock_engine::{JobKind, Json, LocalDirBackend, StoreBackend};
use gnnunlock_telemetry::derived_id;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Tenant every benchmark submission runs under.
const TENANT: &str = "perfbench";

/// Host a daemon the way `gnnunlockd --workers 1` does (configuration
/// from the environment, its own root, an OS-assigned port) until a
/// client sends `shutdown`. With `spans_out`, store operations go through
/// the traced backend and their spans are written there once it drained.
pub fn host(root: &Path, spans_out: Option<&Path>) -> Result<(), String> {
    gnnunlock_engine::apply_telemetry_env();
    let mut cfg = DaemonConfig::from_env()
        .with_addr("127.0.0.1:0")
        .with_workers(1);
    cfg.root = root.to_path_buf();
    if spans_out.is_some() {
        let backend: Arc<dyn StoreBackend> =
            Arc::new(TracedBackend::new(Arc::new(LocalDirBackend::new())));
        cfg = cfg.with_store_backend(backend);
    }
    let daemon = Daemon::start(cfg).map_err(|e| format!("cannot start the daemon: {e}"))?;
    println!("gnnunlockd listening on {}", daemon.addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    daemon.wait();
    if let Some(path) = spans_out {
        trace::write_span_lines(path, &trace::take_spans())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// One line-oriented NDJSON connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn read(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".into());
        }
        Json::parse(line.trim_end())
    }

    /// Send one request and read its reply, which must be `ok`.
    fn request(&mut self, line: &str) -> Result<Json, String> {
        self.send(line)?;
        let reply = self.read()?;
        if reply.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!(
                "request {line} answered {}",
                reply.render_compact()
            ));
        }
        Ok(reply)
    }
}

fn str_of<'a>(doc: &'a Json, key: &str) -> &'a str {
    doc.get(key).and_then(Json::as_str).unwrap_or("")
}

/// Training epochs of a daemon submission. The CI smoke submission trains
/// 40; four times that keeps each campaign's synced store and lease writes
/// (about a hundred) a small share of its time, so the shared disk's
/// latency swings do not dominate submit → done.
pub fn epochs(tiny: bool) -> usize {
    if tiny {
        10
    } else {
        160
    }
}

/// The submission document for campaign `name`, shaped like the CI smoke
/// submission, with every seed derived from the workload seed.
pub fn submission_json(name: &str, seed: u64, epochs: usize) -> String {
    let n = |x: u64| Json::Num(x as f64);
    Json::obj(vec![
        ("op", Json::Str("submit".into())),
        ("tenant", Json::Str(TENANT.into())),
        ("name", Json::Str(name.into())),
        ("scheme", Json::Str("antisat".into())),
        ("scale", Json::Num(0.02)),
        ("key_sizes", Json::Arr(vec![n(8)])),
        ("locks_per_config", n(1)),
        ("seed", n(derived_id(seed, "daemon-dataset") >> 12)),
        (
            "train",
            Json::obj(vec![
                ("epochs", n(epochs as u64)),
                ("hidden", n(24)),
                // Validation once, after the last epoch, so every
                // campaign trains the same number of epochs.
                ("eval_every", n(epochs as u64)),
                ("patience", n(0)),
                ("class_weighting", Json::Bool(false)),
                ("seed", n(derived_id(seed, "daemon-train") >> 12)),
                (
                    "saint",
                    Json::obj(vec![
                        ("roots", n(200)),
                        ("walk_length", n(2)),
                        ("estimation_rounds", n(3)),
                        ("seed", n(derived_id(seed, "daemon-saint") >> 12)),
                    ]),
                ),
            ]),
        ),
    ])
    .render_compact()
}

/// What one submission's stream showed.
#[derive(Default)]
struct Stream {
    /// Submit sent → `subscribe-end` received.
    total_ms: f64,
    queue_wait_ms: f64,
    exec_ms: f64,
    drain_ms: f64,
    cells: usize,
    run_starts: usize,
    stage_ms: BTreeMap<String, f64>,
    jobs: usize,
    executed: usize,
    disk_hits: usize,
}

/// Submit `body` and stream the campaign to its `subscribe-end`. A fresh
/// submission must be queued anew; a warm one must be deduplicated.
fn submit_and_stream(
    conn: &mut Conn,
    addr: &str,
    body: &str,
    fresh: bool,
    traced: bool,
) -> Result<(String, Stream), String> {
    let start = Instant::now();
    let reply = conn.request(body)?;
    let ack = Instant::now();
    let deduped = reply.get("deduped") == Some(&Json::Bool(true));
    if deduped == fresh {
        return Err(format!("submit answered {}", reply.render_compact()));
    }
    let id = str_of(&reply, "id").to_string();
    let mut sub = Conn::open(addr)?;
    sub.request(&format!(r#"{{"op":"subscribe","id":"{id}"}}"#))?;
    let mut s = Stream::default();
    let (mut first, mut last) = (None, ack);
    loop {
        let line = sub.read()?;
        let now = Instant::now();
        if str_of(&line, "op") == "subscribe-end" {
            if str_of(&line, "status") != "done" {
                return Err(format!("campaign {id} ended {}", line.render_compact()));
            }
            s.total_ms = ms_since(start);
            s.drain_ms = (now - last).as_secs_f64() * 1e3;
            break;
        }
        first.get_or_insert(now);
        last = now;
        match str_of(&line, "ev") {
            "run-started" => s.run_starts += 1,
            "job-finished"
                if str_of(&line, "status") == "ok"
                    && str_of(&line, "label").starts_with("verify/") =>
            {
                s.cells += 1
            }
            "stage-summary" => {
                let num = |k: &str| line.get(k).and_then(Json::as_num).unwrap_or(0.0);
                *s.stage_ms
                    .entry(str_of(&line, "kind").to_string())
                    .or_insert(0.0) += num("ms");
                s.jobs += num("total") as usize;
                s.executed += num("executed") as usize;
                s.disk_hits += num("disk_hits") as usize;
            }
            _ => {}
        }
    }
    let first = first.unwrap_or(last);
    s.queue_wait_ms = (first - ack).as_secs_f64() * 1e3;
    s.exec_ms = (last - first).as_secs_f64() * 1e3;
    if traced {
        // The campaign span's id is the daemon's campaign id, so the
        // daemon's store spans (parented by campaign directory) join it.
        let end = Instant::now();
        let cid = u64::from_str_radix(&id, 16).unwrap_or(0);
        let span = if fresh {
            trace::record_id("campaign/fresh", "campaign", cid, 0, start, end);
            cid
        } else {
            let tag = format!("warm#{}", s.total_ms);
            trace::record("campaign/warm", "campaign", cid, &tag, start, end)
        };
        for (phase, a, b) in [
            ("submit", start, ack),
            ("queue-wait", ack, first),
            ("exec", first, last),
            ("drain", last, end),
        ] {
            trace::record(phase, "daemon", span, phase, a, b);
        }
    }
    Ok((id, s))
}

/// The campaign report without its campaign name: fresh submissions differ
/// only in name, so this is what must repeat byte for byte.
fn nameless_report(report: &str) -> Result<String, String> {
    match Json::parse(report)? {
        Json::Obj(fields) => Ok(Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| k != "campaign")
                .collect(),
        )
        .render_compact()),
        _ => Err("report is not a JSON object".into()),
    }
}

/// One fresh submission: the daemon it went to, its sub-seed, its
/// campaign id and document, and what its stream showed.
struct Fresh {
    target: usize,
    sub: usize,
    id: String,
    body: String,
    stream: Stream,
}

/// A daemon under test, as the client sees it.
struct Target {
    addr: String,
    pid: u32,
    root: PathBuf,
    conn: Conn,
    /// The warm-up campaign: the one re-submitted by the warm loop and
    /// the requester.
    reference_body: String,
    reference_id: String,
}

/// Requests kept in flight by the requester thread, by kind.
#[derive(Default)]
struct Requests {
    rtt_ms: BTreeMap<&'static str, Vec<f64>>,
    report_bytes: Vec<f64>,
    ledger: Ledger,
}

fn requester(
    targets: Vec<(String, String, String)>,
    stop: Arc<AtomicBool>,
    traced: bool,
) -> Requests {
    let mut out = Requests::default();
    let mut conns = Vec::new();
    for (addr, body, id) in &targets {
        match Conn::open(addr) {
            Ok(c) => conns.push((c, body, id)),
            Err(e) => out.ledger.op(Err(e)),
        }
    }
    let mut i = 0usize;
    while !stop.load(Ordering::Relaxed) && !conns.is_empty() {
        let n = conns.len();
        let (conn, body, id) = &mut conns[i % n];
        let (kind, line) = match (i / n) % 3 {
            0 => ("dedup", body.to_string()),
            1 => ("status", format!(r#"{{"op":"status","id":"{id}"}}"#)),
            _ => ("report", format!(r#"{{"op":"report","id":"{id}"}}"#)),
        };
        let start = Instant::now();
        let reply = conn.request(&line);
        let ms = ms_since(start);
        if traced {
            trace::record(
                kind,
                "request",
                0,
                &format!("{kind}#{i}"),
                start,
                Instant::now(),
            );
        }
        out.ledger.op(reply.and_then(|reply| {
            match kind {
                "dedup" if reply.get("deduped") != Some(&Json::Bool(true)) => {
                    return Err(format!(
                        "resubmission not deduped: {}",
                        reply.render_compact()
                    ))
                }
                "report" => out.report_bytes.push(str_of(&reply, "report").len() as f64),
                _ => {}
            }
            Ok(())
        }));
        out.rtt_ms.entry(kind).or_default().push(ms);
        i += 1;
    }
    out
}

/// Campaign quality read back from the daemon's store: the aggregate of
/// campaign `body` in its directory under `root`.
fn stored_quality(root: &Path, id: &str, body: &str) -> Result<(usize, f64, f64), String> {
    let sub: Submission = body.parse()?;
    let dir = root.join("campaigns").join(id);
    let cache = probe::store_cache(&dir, TENANT).map_err(|e| e.to_string())?;
    let campaign = sub.campaign();
    let runner = sub.runner();
    let fps = campaign.job_fingerprints(&runner);
    let (i, _) = campaign
        .plan()
        .iter()
        .enumerate()
        .find(|(_, (job, _))| job.kind == JobKind::Aggregate)
        .ok_or("campaign has no aggregate job")?;
    let value = cache
        .get(JobKind::Aggregate, fps[i])
        .ok_or_else(|| format!("aggregate of campaign {id} is not in its store"))?;
    let outcomes = value
        .downcast::<Vec<AttackOutcome>>()
        .map_err(|_| "aggregate has an unexpected type")?;
    Ok(crate::campaign::quality(&outcomes))
}

/// Run the workload against the daemon(s) `run.py` started.
pub fn run(args: &Args) -> Result<(Metrics, Ledger), String> {
    let mut ledger = Ledger::default();
    let epochs = epochs(args.tiny);
    let mut targets = Vec::new();
    for (k, d) in args.daemons.iter().enumerate() {
        let DaemonRef {
            addr, pid, root, ..
        } = d;
        let mut conn = Conn::open(addr)?;
        let body = submission_json(&format!("pb-{}-ref{k}", args.seed), args.seed, epochs);
        let (id, _) = submit_and_stream(&mut conn, addr, &body, true, false)?;
        submit_and_stream(&mut conn, addr, &body, false, false)?;
        targets.push(Target {
            addr: addr.clone(),
            pid: *pid,
            root: root.clone(),
            conn,
            reference_body: body,
            reference_id: id,
        });
    }
    let reference_report = {
        let t = &mut targets[0];
        let reply = t
            .conn
            .request(&format!(r#"{{"op":"report","id":"{}"}}"#, t.reference_id))?;
        nameless_report(str_of(&reply, "report"))?
    };
    let reference_quality = stored_quality(
        &targets[0].root,
        &targets[0].reference_id,
        &targets[0].reference_body,
    )?;
    ledger.reference = format!(
        "report={} cells={} removal_success={} post_accuracy={}",
        crate::report::digest(&reference_report),
        reference_quality.0,
        reference_quality.1,
        reference_quality.2
    );
    println!("reference {}", ledger.reference);
    // The peak of a fresh daemon that has served one campaign. Its peak
    // under load is not steady: glibc gives a thread started while every
    // heap arena is in use an arena of its own, and the daemon's resident
    // set then grows by 2.6 MB at a random campaign of the run and stays.
    let peak_rss = probe::peak_rss_mb(targets[0].pid);
    let setup_s = args.elapsed_since_t0();
    println!("setup_s {setup_s}");
    let mut m = Metrics::default();
    if args.setup_only {
        m.put("setup_s", setup_s, "s", 1);
        for t in &mut targets {
            ledger.op(t.conn.request(r#"{"op":"shutdown"}"#).map(|_| ()));
        }
        return Ok((m, ledger));
    }

    let stop = Arc::new(AtomicBool::new(false));
    let requester = {
        let list = targets
            .iter()
            .map(|t| {
                (
                    t.addr.clone(),
                    t.reference_body.clone(),
                    t.reference_id.clone(),
                )
            })
            .collect();
        let stop = stop.clone();
        let traced = args.trace;
        std::thread::spawn(move || requester(list, stop, traced))
    };
    let procs0: Vec<_> = targets.iter().map(|t| probe::proc_sample(t.pid)).collect();
    let warm_per_round = 15;
    let mut fresh: Vec<Fresh> = Vec::new();
    let mut warm_ms = Vec::new();
    // Fresh submissions cycle through the sub-seeds' datasets (the first
    // campaign of each is its reference); a traced run alternates whole
    // cycles between the plain and the traced daemon.
    let subs = crate::SUB_SEEDS;
    let mut reports: Vec<Option<String>> = vec![None; subs];
    reports[0] = Some(reference_report);
    let start = Instant::now();
    let mut round = 0usize;
    while !round.is_multiple_of(subs)
        || round < subs * targets.len()
        || keep_going(args, start, &[])
    {
        let (j, k) = (round % subs, (round / subs) % targets.len());
        let t = &mut targets[k];
        let name = format!("pb-{}-{round}", args.seed);
        let body = submission_json(&name, crate::sub_seed(args.seed, j), epochs);
        match submit_and_stream(&mut t.conn, &t.addr, &body, true, args.trace) {
            Ok((id, s)) => {
                let report = t
                    .conn
                    .request(&format!(r#"{{"op":"report","id":"{id}"}}"#))
                    .and_then(|r| nameless_report(str_of(&r, "report")));
                ledger.op(match report {
                    Ok(r) if *reports[j].get_or_insert_with(|| r.clone()) == r => Ok(()),
                    Ok(_) => Err(format!(
                        "report of campaign {id} differs from the reference"
                    )),
                    Err(e) => Err(e),
                });
                let run_starts = s.run_starts;
                fresh.push(Fresh {
                    target: k,
                    sub: j,
                    id,
                    body,
                    stream: s,
                });
                for _ in 0..warm_per_round {
                    let warm = submit_and_stream(
                        &mut t.conn,
                        &t.addr,
                        &t.reference_body,
                        false,
                        args.trace,
                    );
                    ledger.op(match warm {
                        Ok((_, w)) if w.run_starts == run_starts => {
                            warm_ms.push((k, w.total_ms));
                            Ok(())
                        }
                        Ok((_, w)) => Err(format!(
                            "warm re-submission re-ran: {} run starts, expected {run_starts}",
                            w.run_starts
                        )),
                        Err(e) => Err(e),
                    });
                }
            }
            Err(e) => ledger.op(Err(e)),
        }
        round += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    let requests = requester
        .join()
        .map_err(|_| "requester thread panicked".to_string())?;
    let procs1: Vec<_> = targets.iter().map(|t| probe::proc_sample(t.pid)).collect();

    // Every fresh campaign's results, read back from the daemon's store.
    let mut qualities: Vec<Option<(usize, f64, f64)>> = vec![None; subs];
    qualities[0] = Some(reference_quality);
    for f in &fresh {
        let reference = &mut qualities[f.sub];
        ledger.op(
            match stored_quality(&targets[f.target].root, &f.id, &f.body) {
                Ok(q) if *reference.get_or_insert(q) == q => Ok(()),
                Ok(q) => Err(format!(
                    "campaign {} quality {q:?} differs from {reference:?}",
                    f.id
                )),
                Err(e) => Err(e),
            },
        );
    }
    let qs: Vec<(usize, f64, f64)> = qualities.into_iter().flatten().collect();
    let mean = |f: fn(&(usize, f64, f64)) -> f64| qs.iter().map(f).sum::<f64>() / qs.len() as f64;
    let quality_cells: usize = qs.iter().map(|q| q.0).sum();
    ledger.attempted += requests.ledger.attempted;
    ledger
        .failures
        .extend(requests.ledger.failures.iter().cloned());
    let all_rtt: Vec<f64> = requests.rtt_ms.values().flatten().copied().collect();
    let fresh_ms: Vec<f64> = fresh.iter().map(|f| f.stream.total_ms).collect();
    let warm_all = warm_all_of(&warm_ms);
    for t in &mut targets {
        ledger.op(t.conn.request(r#"{"op":"shutdown"}"#).map(|_| ()));
    }

    if args.trace {
        // Plain daemon first, traced daemon second: the gap between their
        // medians is the cost of the store decorator.
        let on = |k: usize, xs: &[(usize, f64)]| -> Vec<f64> {
            xs.iter().filter(|x| x.0 == k).map(|x| x.1).collect()
        };
        let fresh_by: Vec<(usize, f64)> = fresh
            .iter()
            .map(|f| (f.target, f.stream.total_ms))
            .collect();
        let overhead =
            |xs: &[(usize, f64)]| median(&on(1, xs)) / median(&on(0, xs)).max(1e-9) - 1.0;
        let daemon_spans = match args.daemons.iter().find_map(|d| d.spans.as_ref()) {
            Some(path) => trace::read_span_lines(&wait_for_file(path)?)?,
            None => Vec::new(),
        };
        ledger.op(if daemon_spans.is_empty() {
            Err("the traced daemon recorded no store spans".into())
        } else {
            Ok(())
        });
        daemon_layer_metrics(&fresh, &requests, &daemon_spans, &mut m);
        m.put(
            "trace.overhead_share",
            overhead(&fresh_by),
            "share",
            fresh_by.len(),
        );
        m.put(
            "trace.warm_overhead_share",
            overhead(&warm_ms),
            "share",
            warm_ms.len(),
        );
        m.put("trace.unattributed_share", 0.0, "share", 0);
        let mut spans = trace::take_spans();
        spans.extend(daemon_spans);
        m.put("trace.spans", spans.len() as f64, "count", spans.len());
        ledger.op(trace::write_trace(&args.trace_out(), &spans).map(|_| ()));
        let cpu: f64 = procs0
            .iter()
            .zip(&procs1)
            .map(|(a, b)| b.cpu_s - a.cpu_s)
            .sum();
        let ctx: u64 = procs0
            .iter()
            .zip(&procs1)
            .map(|(a, b)| b.ctx_switches - a.ctx_switches)
            .sum();
        let cells: usize = fresh.iter().map(|f| f.stream.cells).sum();
        m.put("proc.cpu_util", cpu / wall_s, "share", round);
        m.put(
            "proc.ctx_switches_per_cell",
            ctx as f64 / cells.max(1) as f64,
            "count",
            cells,
        );
        let sub: Submission = targets[0].reference_body.parse()?;
        probe::gnn_probe(&sub.dataset, &sub.attack.train, &mut m);
        let cache = probe::store_cache(
            &targets[0]
                .root
                .join("campaigns")
                .join(&targets[0].reference_id),
            TENANT,
        )
        .map_err(|e| e.to_string())?;
        let pairs = probe::recovered_pairs(&sub.campaign(), &sub.runner(), &cache);
        if pairs.is_empty() {
            ledger.op(Err("no recovered designs found for the sat probe".into()));
        }
        probe::sat_probe(&pairs, &mut m);
    } else {
        let cells: usize = fresh.iter().map(|f| f.stream.cells).sum();
        m.put("setup_s", setup_s, "s", 1);
        m.put(
            "cells_per_s",
            per_second(cells, &fresh_ms),
            "cells/s",
            fresh_ms.len(),
        );
        m.put_median("submit_done_ms_p50", &fresh_ms, "ms");
        m.put_mean("warm_ms_mean", &warm_all, "ms");
        m.put_mean("rtt_ms_mean", &all_rtt, "ms");
        m.put_tail("rtt_ms_p90", &all_rtt, 0.9, "ms");
        m.put("removal_success", mean(|q| q.1), "share", quality_cells);
        m.put("post_accuracy", mean(|q| q.2), "share", quality_cells);
        m.put(
            "success_rate",
            ledger.success_rate(),
            "share",
            ledger.attempted,
        );
        m.put("peak_rss_mb", peak_rss, "MB", 1);
    }
    Ok((m, ledger))
}

/// Per-layer metrics of the daemon workload: stage times from the
/// campaigns' own stage summaries, store spans from the traced daemon,
/// and the client-side intervals.
fn daemon_layer_metrics(
    fresh: &[Fresh],
    requests: &Requests,
    daemon_spans: &[gnnunlock_telemetry::SpanRecord],
    m: &mut Metrics,
) {
    let streams: Vec<&Stream> = fresh.iter().map(|f| &f.stream).collect();
    let each = |f: &dyn Fn(&Stream) -> f64| -> Vec<f64> { streams.iter().map(|s| f(s)).collect() };
    for (metric, kind) in crate::CORE_STAGES {
        m.put_median(
            metric,
            &each(&|s| s.stage_ms.get(kind.tag()).copied().unwrap_or(0.0)),
            "ms",
        );
    }
    m.put_median(
        "engine.self_ms",
        &each(&|s| (s.exec_ms - s.stage_ms.values().sum::<f64>()).max(0.0)),
        "ms",
    );
    m.put("engine.warm_self_ms", 0.0, "ms", 0);
    m.put_median("engine.jobs", &each(&|s| s.jobs as f64), "count");
    m.put_median("engine.executed", &each(&|s| s.executed as f64), "count");
    m.put_median("engine.disk_hits", &each(&|s| s.disk_hits as f64), "count");
    m.put("engine.memory_hits", 0.0, "count", 0);
    for name in [
        "codec.encode_ms",
        "codec.decode_ms",
        "codec.encoded_bytes",
        "codec.decoded_bytes",
    ] {
        m.put(name, 0.0, crate::unit_of(name), 0);
    }
    let traced: Vec<u64> = fresh
        .iter()
        .filter(|f| f.target == 1)
        .filter_map(|f| u64::from_str_radix(&f.id, 16).ok())
        .collect();
    trace::store_metrics(daemon_spans, &traced, &[], m);
    m.put_median("daemon.queue_wait_ms", &each(&|s| s.queue_wait_ms), "ms");
    m.put_median("daemon.exec_ms", &each(&|s| s.exec_ms), "ms");
    m.put_median("daemon.drain_ms", &each(&|s| s.drain_ms), "ms");
    let rtt = |k: &str| requests.rtt_ms.get(k).cloned().unwrap_or_default();
    m.put_median("daemon.dedup_rtt_ms", &rtt("dedup"), "ms");
    m.put_median("daemon.status_rtt_ms", &rtt("status"), "ms");
    m.put_median("daemon.report_rtt_ms", &rtt("report"), "ms");
    m.put(
        "daemon.report_bytes",
        median(&requests.report_bytes),
        "bytes",
        requests.report_bytes.len(),
    );
}

/// The contents of `path` once it exists (the traced daemon writes its
/// spans when it has drained), waiting up to a minute.
fn wait_for_file(path: &Path) -> Result<String, String> {
    let start = Instant::now();
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            return Ok(text);
        }
        if start.elapsed().as_secs() > 60 {
            return Err(format!("{} never appeared", path.display()));
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

fn warm_all_of(warm: &[(usize, f64)]) -> Vec<f64> {
    warm.iter().map(|w| w.1).collect()
}
