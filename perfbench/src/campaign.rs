//! The in-process campaign workloads: `antisat-1cpu` and `sfll-store`.
//!
//! Each round runs one cold campaign, then re-runs it warm (every job a
//! cache hit: the executor's memory tier for Anti-SAT, the persisted
//! store for SFLL) and renders its report, the in-process answer to a
//! report request. A traced run alternates whole cycles of plain and
//! decorated rounds, so the gap between their medians is the tracing
//! overhead.

use crate::probe::{self, ms_since};
use crate::report::{digest, median, per_second, Ledger, Metrics};
use crate::trace::{self, TracedBackend, TracedRunner};
use crate::{keep_going, Args, Shape};
use gnnunlock_core::{
    campaign_for, campaign_scheme_tag, run_campaign, run_campaign_persistent, AttackCampaignRunner,
    AttackConfig, AttackOutcome, DatasetConfig, Suite,
};
use gnnunlock_engine::{
    CampaignRun, CampaignRunner, DiskStore, Event, EventLog, ExecConfig, Executor, JobKind,
    LocalDirBackend, ReportOptions, ResultCache, RunStats, StoreBackend, EVENTS_FILE,
};
use gnnunlock_netlist::CellLibrary;
use gnnunlock_telemetry::{derived_id, SpanRecord};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Engine workers of every campaign workload: its process is pinned to
/// one CPU, where more workers would only take turns.
const WORKERS: usize = 1;

/// One in-process campaign workload.
pub struct CampaignWorkload {
    name: String,
    ds: DatasetConfig,
    attack: AttackConfig,
    /// Persist into a fresh store per round (`sfll-store`) instead of
    /// keeping results in the executor's memory tier.
    persistent: bool,
    warm_per_round: usize,
    renders_per_round: usize,
    work: PathBuf,
}

/// What one campaign run produced that the checks and metrics read.
struct Ran {
    wall_ms: f64,
    run: CampaignRun,
    outcomes: Vec<AttackOutcome>,
}

/// `(cells, removal success share, mean post-processing accuracy)`.
pub fn quality(outcomes: &[AttackOutcome]) -> (usize, f64, f64) {
    let cells: Vec<_> = outcomes.iter().flat_map(|o| &o.instances).collect();
    let n = cells.len().max(1) as f64;
    let removed = cells
        .iter()
        .filter(|c| c.removal_success == Some(true))
        .count();
    let post: f64 = cells.iter().map(|c| c.post.accuracy()).sum();
    (cells.len(), removed as f64 / n, post / n)
}

fn report_text(run: &CampaignRun) -> String {
    run.report(ReportOptions::default()).to_json()
}

/// The dataset and training configuration of workload `name`.
pub fn inputs(
    name: &str,
    seed: u64,
    shape: &Shape,
) -> Option<(DatasetConfig, gnnunlock_gnn::TrainConfig)> {
    let w = CampaignWorkload::new(name, seed, shape, Path::new("."))?;
    Some((w.ds, w.attack.train))
}

impl CampaignWorkload {
    /// The workload named `name`, its inputs derived from `seed`.
    pub fn new(name: &str, seed: u64, shape: &Shape, work: &Path) -> Option<Self> {
        let (ds, persistent) = match name {
            "antisat-1cpu" => {
                let ds = DatasetConfig {
                    key_sizes: shape.key_sizes.clone(),
                    locks_per_config: shape.locks,
                    seed: derived_id(seed, "antisat-dataset"),
                    ..DatasetConfig::antisat(Suite::Iscas85, shape.scale)
                };
                (ds, false)
            }
            "sfll-store" => {
                let ds = DatasetConfig {
                    key_sizes: shape.key_sizes.clone(),
                    locks_per_config: 1,
                    seed: derived_id(seed, "sfll-dataset"),
                    ..DatasetConfig::sfll(Suite::Iscas85, 2, CellLibrary::Lpe65, shape.scale)
                };
                (ds, true)
            }
            _ => return None,
        };
        Some(CampaignWorkload {
            name: format!("{name}-{seed}"),
            ds,
            attack: AttackConfig {
                train: shape.train(seed),
                ..AttackConfig::default()
            },
            persistent,
            warm_per_round: if persistent { 25 } else { 40 },
            renders_per_round: if persistent { 120 } else { 60 },
            work: work.to_path_buf(),
        })
    }

    fn store_dir(&self, tag: &str) -> PathBuf {
        self.work.join(format!("store-{tag}"))
    }

    /// A cold run: a fresh executor, or a fresh store directory `dir`.
    fn cold(&self, dir: &Path, traced: bool) -> Result<(Ran, Executor), String> {
        let ex = Executor::new(ExecConfig::with_workers(WORKERS));
        let ran = self.run_on(&ex, dir, traced)?;
        Ok((ran, ex))
    }

    /// One campaign run: on `ex` in memory, or persisted under `dir`.
    fn run_on(&self, ex: &Executor, dir: &Path, traced: bool) -> Result<Ran, String> {
        let start = Instant::now();
        let (run, outcomes) = match (self.persistent, traced) {
            (false, false) => {
                let r = run_campaign(&self.name, &self.ds, &self.attack, ex);
                (r.run, r.outcomes)
            }
            (true, false) => {
                let cfg = ExecConfig::with_workers(WORKERS);
                let r = run_campaign_persistent(&self.name, &self.ds, &self.attack, cfg, dir)
                    .map_err(|e| format!("persistent campaign: {e}"))?;
                (r.run, r.outcomes)
            }
            (persistent, true) => {
                let campaign = campaign_for(&self.name, &self.ds, &self.attack);
                let runner = TracedRunner::new(AttackCampaignRunner::new(&self.ds, &self.attack));
                let run = if persistent {
                    self.persistent_traced(&campaign, &runner, dir)
                        .map_err(|e| format!("traced persistent campaign: {e}"))?
                } else {
                    campaign.execute(&runner, ex)
                };
                let outcomes = run
                    .aggregate::<Vec<AttackOutcome>>(&campaign_scheme_tag(&self.ds))
                    .map(|a| a.as_ref().clone())
                    .unwrap_or_default();
                (run, outcomes)
            }
        };
        Ok(Ran {
            wall_ms: ms_since(start),
            run,
            outcomes,
        })
    }

    /// `Campaign::execute_persistent` with the decorated backend and codec:
    /// the same store, event log and trace file, assembled from the
    /// engine's public parts because `execute_persistent` opens its store
    /// on the default backend.
    fn persistent_traced<R: CampaignRunner>(
        &self,
        campaign: &gnnunlock_engine::Campaign,
        runner: &R,
        dir: &Path,
    ) -> std::io::Result<CampaignRun> {
        gnnunlock_engine::apply_telemetry_env();
        let backend: Arc<dyn StoreBackend> =
            Arc::new(TracedBackend::new(Arc::new(LocalDirBackend::new())));
        let store = Arc::new(DiskStore::open_with_backend(dir, "", backend)?);
        let codec = runner.codec().expect("the attack runner has a codec");
        let log = Arc::new(EventLog::create(&dir.join(EVENTS_FILE))?);
        let ex = Executor::new(ExecConfig::with_workers(WORKERS))
            .with_cache(Arc::new(ResultCache::with_disk(store, codec)))
            .with_events(log.clone());
        log.append(&Event::RunStarted {
            campaign: campaign.name.clone(),
            jobs: campaign.plan().len(),
            shape: campaign.shape_fingerprint(),
            resumed: false,
        });
        let run = campaign.execute(runner, &ex);
        for s in run.outcome.stage_summaries() {
            log.append(&Event::StageSummary {
                kind: s.kind,
                total: s.total,
                executed: s.executed,
                memory_hits: s.memory_hits,
                disk_hits: s.disk_hits,
                failed: s.failed,
                skipped: s.skipped,
                cancelled: s.cancelled,
                ms: s.ms,
                over_budget: s.over_budget,
            });
        }
        let stats = run.outcome.stats;
        log.append(&Event::RunFinished {
            succeeded: stats.succeeded(),
            failed: stats.failed,
            skipped: stats.skipped,
            cancelled: stats.cancelled,
        });
        if gnnunlock_telemetry::enabled() {
            std::fs::write(
                dir.join("trace.json"),
                gnnunlock_telemetry::chrome_trace_json(&run.outcome.spans),
            )?;
        }
        Ok(run)
    }
}

/// The reference a run's outputs are checked against: the warm-up
/// campaign's report digest and quality figures.
#[derive(Clone)]
struct Reference {
    report: String,
    quality: (usize, f64, f64),
}

fn check_cold(ran: &Ran, reference: &Reference) -> Result<(), String> {
    if !ran.run.outcome.all_succeeded() {
        return Err(format!("cold campaign: {:?}", ran.run.outcome.stats));
    }
    if digest(&report_text(&ran.run)) != reference.report {
        return Err("cold report differs from the first cold report".into());
    }
    if quality(&ran.outcomes) != reference.quality {
        return Err("removal success or accuracy differs between iterations".into());
    }
    Ok(())
}

fn check_warm(ran: &Ran, reference: &Reference, persistent: bool) -> Result<(), String> {
    let stats = ran.run.outcome.stats;
    let hits = if persistent {
        stats.disk_hits
    } else {
        stats.memory_hits
    };
    if stats.executed != 0 || hits != stats.total {
        return Err(format!("warm re-run was not all cache hits: {stats:?}"));
    }
    if digest(&report_text(&ran.run)) != reference.report {
        return Err("warm report differs from the cold report".into());
    }
    if quality(&ran.outcomes) != reference.quality {
        return Err("warm re-run changed removal success or accuracy".into());
    }
    Ok(())
}

/// Per-campaign span accounting: summed child time per category and the
/// union of child intervals, all in ms.
struct Accounting {
    wall_ms: f64,
    by_cat: BTreeMap<String, f64>,
    covered_ms: f64,
}

fn account(campaign: u64, spans: &[SpanRecord]) -> Accounting {
    let parent = spans.iter().find(|s| s.id == campaign);
    let mut children: Vec<&SpanRecord> = spans.iter().filter(|s| s.parent == campaign).collect();
    children.sort_by_key(|s| s.start_us);
    let mut by_cat = BTreeMap::new();
    let (mut covered, mut reach) = (0u64, 0u64);
    for s in &children {
        *by_cat.entry(s.cat.clone()).or_insert(0.0) += s.dur_us as f64 / 1e3;
        let end = s.start_us + s.dur_us;
        if end > reach {
            covered += end - s.start_us.max(reach);
            reach = end;
        }
    }
    Accounting {
        wall_ms: parent.map_or(0.0, |p| p.dur_us as f64 / 1e3),
        by_cat,
        covered_ms: covered as f64 / 1e3,
    }
}

/// Samples collected over a run.
#[derive(Default)]
struct Samples {
    cold_ms: Vec<f64>,
    /// Cells of the plain cold runs.
    plain_cells: usize,
    /// Peak resident set of the process during each plain cold run.
    peak_rss_mb: Vec<f64>,
    /// Cells of every cold run, plain and traced.
    cells: usize,
    warm_ms: Vec<f64>,
    render_ms: Vec<f64>,
    traced_cold_ms: Vec<f64>,
    traced_warm_ms: Vec<f64>,
    /// `(campaign span id, executor wall ms, stats)` of traced runs.
    traced_cold: Vec<(u64, f64, RunStats)>,
    traced_warm: Vec<(u64, f64, RunStats)>,
    encoded_bytes: Vec<f64>,
    decoded_bytes: Vec<f64>,
}

/// Run the workload; returns the metrics and the ledger of operations.
pub fn run(args: &Args, shape: &Shape) -> Result<(Metrics, Ledger), String> {
    let ws: Vec<CampaignWorkload> = (0..crate::SUB_SEEDS)
        .map(|j| {
            CampaignWorkload::new(
                &args.workload,
                crate::sub_seed(args.seed, j),
                shape,
                &args.work,
            )
        })
        .collect::<Option<_>>()
        .ok_or_else(|| format!("unknown workload '{}'", args.workload))?;
    let w = &ws[0];
    let pid = std::process::id();
    let mut ledger = Ledger::default();

    // Set-up: inputs are derived; warm up with one cold and one warm run,
    // whose results are all released before the first measured campaign.
    let dir = w.store_dir("warmup");
    let reference = {
        let (first, ex) = w.cold(&dir, false)?;
        let reference = Reference {
            report: digest(&report_text(&first.run)),
            quality: quality(&first.outcomes),
        };
        if !first.run.outcome.all_succeeded() || reference.quality.0 == 0 {
            return Err(format!(
                "warm-up campaign failed: {:?}",
                first.run.outcome.stats
            ));
        }
        check_warm(&w.run_on(&ex, &dir, false)?, &reference, w.persistent)?;
        reference
    };
    let _ = std::fs::remove_dir_all(&dir);
    ledger.reference = format!(
        "report={} cells={} removal_success={} post_accuracy={}",
        reference.report, reference.quality.0, reference.quality.1, reference.quality.2
    );
    println!("reference {}", ledger.reference);
    let setup_s = args.elapsed_since_t0();
    println!("setup_s {setup_s}");
    if args.setup_only {
        let mut m = Metrics::default();
        m.put("setup_s", setup_s, "s", 1);
        return Ok((m, ledger));
    }

    let mut s = Samples::default();
    let mut refs: Vec<Option<Reference>> = vec![None; ws.len()];
    refs[0] = Some(reference);
    let proc0 = probe::proc_sample(pid);
    let start = Instant::now();
    let mut round = 0usize;
    // The last round's store and executor, kept for the sat probe.
    let mut last: Option<(PathBuf, Executor, usize)> = None;
    // Whole cycles over the sub-seeds, so every dataset weighs the same;
    // a traced run alternates whole plain and traced cycles.
    while !round.is_multiple_of(ws.len())
        || (args.trace && round < 2 * ws.len())
        || keep_going(args, start, &[(&s.render_ms, 0.9)])
    {
        let j = round % ws.len();
        let w = &ws[j];
        let traced = args.trace && (round / ws.len()) % 2 == 1;
        // Release the previous round's results before the peak is reset,
        // so that the peak is this campaign's alone.
        if let Some((old, _, _)) = last.take() {
            let _ = std::fs::remove_dir_all(old);
        }
        probe::release_free_heap();
        let dir = w.store_dir(&round.to_string());
        let tag = format!("cold-{round}");
        let id = derived_id(0, &tag);
        trace::set_campaign(if traced { id } else { 0 });
        probe::reset_peak_rss(pid);
        let t0 = Instant::now();
        let cold = w.cold(&dir, traced);
        let t1 = Instant::now();
        trace::set_campaign(0);
        let peak_rss_mb = probe::peak_rss_mb(pid);
        let (cold, ex) = match cold {
            Ok(x) => x,
            Err(e) => {
                ledger.op(Err(e));
                round += 1;
                continue;
            }
        };
        // The first cold run of a dataset is its reference.
        let reference = refs[j]
            .get_or_insert_with(|| Reference {
                report: digest(&report_text(&cold.run)),
                quality: quality(&cold.outcomes),
            })
            .clone();
        ledger.op(check_cold(&cold, &reference));
        if traced {
            trace::record("campaign/cold", "campaign", 0, &tag, t0, t1);
            s.traced_cold_ms.push(cold.wall_ms);
            s.traced_cold.push((
                id,
                cold.run.outcome.wall_time.as_secs_f64() * 1e3,
                cold.run.outcome.stats,
            ));
            s.encoded_bytes.push(trace::take_codec_bytes().0 as f64);
        } else {
            s.cold_ms.push(cold.wall_ms);
            s.peak_rss_mb.push(peak_rss_mb);
            s.plain_cells += quality(&cold.outcomes).0;
        }
        s.cells += quality(&cold.outcomes).0;
        for i in 0..w.warm_per_round {
            let tag = format!("warm-{round}-{i}");
            let id = derived_id(0, &tag);
            trace::set_campaign(if traced { id } else { 0 });
            let t0 = Instant::now();
            let warm = w.run_on(&ex, &dir, traced);
            let t1 = Instant::now();
            trace::set_campaign(0);
            match warm {
                Ok(warm) => {
                    ledger.op(check_warm(&warm, &reference, w.persistent));
                    if traced {
                        trace::record("campaign/warm", "campaign", 0, &tag, t0, t1);
                        s.traced_warm_ms.push(warm.wall_ms);
                        s.traced_warm.push((
                            id,
                            warm.run.outcome.wall_time.as_secs_f64() * 1e3,
                            warm.run.outcome.stats,
                        ));
                        s.decoded_bytes.push(trace::take_codec_bytes().1 as f64);
                    } else {
                        s.warm_ms.push(warm.wall_ms);
                    }
                }
                Err(e) => ledger.op(Err(e)),
            }
        }
        for _ in 0..w.renders_per_round {
            let t = Instant::now();
            let text = report_text(&cold.run);
            s.render_ms.push(ms_since(t));
            ledger.op(if digest(&text) == reference.report {
                Ok(())
            } else {
                Err("rendered report differs".into())
            });
        }
        last = Some((dir, ex, j));
        round += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let proc1 = probe::proc_sample(pid);

    let mut m = Metrics::default();
    if args.trace {
        ledger.op(traced_metrics(&args.trace_out(), &s, w.persistent, &mut m)
            .map(|n| println!("trace: {n} spans validated")));
        let cells = s.cells.max(1);
        m.put(
            "proc.cpu_util",
            (proc1.cpu_s - proc0.cpu_s) / wall_s,
            "share",
            round,
        );
        m.put(
            "proc.ctx_switches_per_cell",
            (proc1.ctx_switches - proc0.ctx_switches) as f64 / cells as f64,
            "count",
            round,
        );
        probe::gnn_probe(&w.ds, &w.attack.train, &mut m);
        if let Some((dir, ex, j)) = &last {
            let w = &ws[*j];
            let campaign = campaign_for(&w.name, &w.ds, &w.attack);
            let runner = AttackCampaignRunner::new(&w.ds, &w.attack);
            let pairs = if w.persistent {
                let cache = probe::store_cache(dir, "").map_err(|e| e.to_string())?;
                probe::recovered_pairs(&campaign, &runner, &cache)
            } else {
                probe::recovered_pairs(&campaign, &runner, ex.cache())
            };
            if pairs.is_empty() {
                ledger.op(Err("no recovered designs found for the sat probe".into()));
            }
            probe::sat_probe(&pairs, &mut m);
        }
        for name in crate::DAEMON_LAYER {
            m.put(name, 0.0, crate::unit_of(name), 0);
        }
    } else {
        m.put("setup_s", setup_s, "s", 1);
        m.put(
            "cells_per_s",
            per_second(s.plain_cells, &s.cold_ms),
            "cells/s",
            s.cold_ms.len(),
        );
        m.put_median("submit_done_ms_p50", &s.cold_ms, "ms");
        m.put_mean("warm_ms_mean", &s.warm_ms, "ms");
        m.put_mean("rtt_ms_mean", &s.render_ms, "ms");
        m.put_tail("rtt_ms_p90", &s.render_ms, 0.9, "ms");
        // Means over the sub-seeds' datasets, each deterministic.
        let qs: Vec<(usize, f64, f64)> = refs.iter().flatten().map(|r| r.quality).collect();
        let n = qs.len().max(1) as f64;
        let cells = qs.iter().map(|q| q.0).sum();
        m.put(
            "removal_success",
            qs.iter().map(|q| q.1).sum::<f64>() / n,
            "share",
            cells,
        );
        m.put(
            "post_accuracy",
            qs.iter().map(|q| q.2).sum::<f64>() / n,
            "share",
            cells,
        );
        m.put(
            "success_rate",
            ledger.success_rate(),
            "share",
            ledger.attempted,
        );
        m.put_median("peak_rss_mb", &s.peak_rss_mb, "MB");
    }
    if let Some((dir, _, _)) = last {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok((m, ledger))
}

/// A traced campaign: its span accounting, executor wall ms and stats.
type Traced = (Accounting, f64, RunStats);

/// Fails unless the decorators were reached: every traced cold campaign
/// has stage spans and, when the workload persists, every traced
/// campaign, cold or warm, has codec and store spans.
fn check_decorated(cold: &[Traced], warm: &[Traced], persistent: bool) -> Result<(), String> {
    if cold.is_empty() {
        return Err("no traced campaign ran".into());
    }
    if cold
        .iter()
        .any(|(a, _, _)| !a.by_cat.contains_key(JobKind::TrainEpoch.tag()))
    {
        return Err("a traced cold campaign recorded no stage spans".into());
    }
    let io: &[&str] = if persistent { &["codec", "store"] } else { &[] };
    let phases = cold.iter().map(|t| (t, "cold"));
    for ((a, _, _), phase) in phases.chain(warm.iter().map(|t| (t, "warm"))) {
        if let Some(cat) = io.iter().find(|c| !a.by_cat.contains_key(**c)) {
            return Err(format!("a traced {phase} campaign recorded no {cat} spans"));
        }
    }
    Ok(())
}

/// Per-layer metrics from the traced rounds' spans.
fn traced_metrics(
    trace_out: &Path,
    s: &Samples,
    persistent: bool,
    m: &mut Metrics,
) -> Result<usize, String> {
    let spans = trace::take_spans();
    let cold: Vec<Traced> = s
        .traced_cold
        .iter()
        .map(|(id, exec_ms, stats)| (account(*id, &spans), *exec_ms, *stats))
        .collect();
    let warm: Vec<Traced> = s
        .traced_warm
        .iter()
        .map(|(id, exec_ms, stats)| (account(*id, &spans), *exec_ms, *stats))
        .collect();
    let per = |set: &[Traced], cat: &str| -> Vec<f64> {
        set.iter()
            .map(|(a, _, _)| a.by_cat.get(cat).copied().unwrap_or(0.0))
            .collect()
    };
    for (metric, kind) in crate::CORE_STAGES {
        m.put_median(metric, &per(&cold, kind.tag()), "ms");
    }
    let self_ms = |set: &[Traced]| -> Vec<f64> {
        set.iter()
            .map(|(a, exec_ms, _)| (exec_ms - a.covered_ms).max(0.0))
            .collect()
    };
    m.put_median("engine.self_ms", &self_ms(&cold), "ms");
    m.put_median("engine.warm_self_ms", &self_ms(&warm), "ms");
    let stat = |set: &[Traced], f: fn(&RunStats) -> usize| -> Vec<f64> {
        set.iter().map(|(_, _, st)| f(st) as f64).collect()
    };
    m.put_median("engine.jobs", &stat(&cold, |st| st.total), "count");
    m.put_median("engine.executed", &stat(&cold, |st| st.executed), "count");
    m.put_median("engine.disk_hits", &stat(&warm, |st| st.disk_hits), "count");
    m.put_median(
        "engine.memory_hits",
        &stat(&warm, |st| st.memory_hits),
        "count",
    );

    m.put_median("codec.encode_ms", &per(&cold, "codec"), "ms");
    m.put_median("codec.decode_ms", &per(&warm, "codec"), "ms");
    m.put_median("codec.encoded_bytes", &s.encoded_bytes, "bytes");
    m.put_median("codec.decoded_bytes", &s.decoded_bytes, "bytes");

    let ids =
        |set: &[(u64, f64, RunStats)]| -> Vec<u64> { set.iter().map(|(id, _, _)| *id).collect() };
    trace::store_metrics(&spans, &ids(&s.traced_cold), &ids(&s.traced_warm), m);

    let overhead = |traced: &[f64], plain: &[f64]| median(traced) / median(plain).max(1e-9) - 1.0;
    m.put(
        "trace.overhead_share",
        overhead(&s.traced_cold_ms, &s.cold_ms),
        "share",
        s.traced_cold_ms.len(),
    );
    m.put(
        "trace.warm_overhead_share",
        overhead(&s.traced_warm_ms, &s.warm_ms),
        "share",
        s.traced_warm_ms.len(),
    );
    let unattributed: Vec<f64> = cold
        .iter()
        .map(|(a, exec_ms, _)| {
            let self_ms = (exec_ms - a.covered_ms).max(0.0);
            ((a.wall_ms - a.covered_ms - self_ms) / a.wall_ms.max(1e-9)).max(0.0)
        })
        .collect();
    m.put_median("trace.unattributed_share", &unattributed, "share");
    m.put("trace.spans", spans.len() as f64, "count", spans.len());
    let written = trace::write_trace(trace_out, &spans)?;
    check_decorated(&cold, &warm, persistent).map(|()| written)
}
