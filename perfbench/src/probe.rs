//! Direct timed calls into single layers (`gnn`, `neural`, `sat`), the
//! machine calibration loop, and process counters read from `/proc`.

use crate::report::{median, Metrics};
use gnnunlock_core::{Dataset, DatasetConfig, PipelineCodec, RemovalArtifact};
use gnnunlock_engine::{Campaign, CampaignRunner, JobKind, ResultCache, ValueCodec};
use gnnunlock_gnn::{predict, Csr, SaintSampler, TrainConfig, TrainState};
use gnnunlock_netlist::Netlist;
use gnnunlock_neural::Matrix;
use gnnunlock_sat::{check_equivalence_stats, EquivOptions};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Median wall time of a fixed single-threaded integer loop, in ms: the
/// machine calibration recorded with every result.
pub fn reference_loop_ms() -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x: u64 = black_box(0x9e37_79b9_7f4a_7c15);
            for _ in 0..20_000_000u32 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            ms_since(start)
        })
        .collect();
    median(&times)
}

/// CPU time (all threads) and context switches of process `pid`.
#[derive(Clone, Copy)]
pub struct ProcSample {
    pub cpu_s: f64,
    pub ctx_switches: u64,
}

fn proc_file(pid: u32, name: &str) -> String {
    std::fs::read_to_string(format!("/proc/{pid}/{name}")).unwrap_or_default()
}

/// Read `pid`'s CPU time and context switches (zeros if unreadable).
pub fn proc_sample(pid: u32) -> ProcSample {
    // utime and stime are fields 14 and 15, in USER_HZ (100/s) ticks;
    // the command name in field 2 may hold spaces, so count from ')'.
    let stat = proc_file(pid, "stat");
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let status = proc_file(pid, "status");
    let ctx = |key: &str| status_kb(&status, key);
    ProcSample {
        cpu_s: (tick(11) + tick(12)) / 100.0,
        ctx_switches: ctx("voluntary_ctxt_switches:") + ctx("nonvoluntary_ctxt_switches:"),
    }
}

fn status_kb(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set (VmHWM) of process `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    status_kb(&proc_file(pid, "status"), "VmHWM:") as f64 / 1024.0
}

/// Reset process `pid`'s VmHWM to its current resident set, so that
/// [`peak_rss_mb`] next reads the peak since this call. Per-campaign
/// peaks keep one memory-hungry dataset from setting a whole run's figure.
pub fn reset_peak_rss(pid: u32) {
    let _ = std::fs::write(format!("/proc/{pid}/clear_refs"), "5");
}

/// Return the free memory of every glibc heap arena to the system, so a
/// peak measured next starts from what this process still uses. Without
/// it, the allocator keeps freed campaigns resident, in amounts that vary
/// with the arena each campaign's thread lands on.
pub fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: `malloc_trim` takes no pointer and only hands free pages
        // of glibc's own heaps back to the system; glibc marks it MT-Safe.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// The leave-one-out split the campaign trains for its first target.
fn first_split(dataset: &Dataset) -> (gnnunlock_gnn::CircuitGraph, gnnunlock_gnn::CircuitGraph) {
    let target = dataset.benchmarks()[0].clone();
    let val = dataset.default_val_for(&target);
    let (train, val, _) = dataset.leave_one_out(&target, &val);
    (train, val)
}

/// `gnn` layer: epoch, SAINT sample and full-graph predict times on the
/// workload's first leave-one-out split.
pub fn gnn_probe(ds: &DatasetConfig, cfg: &TrainConfig, m: &mut Metrics) {
    let dataset = Dataset::generate_with(ds, 1);
    let (train, val) = first_split(&dataset);
    let mut state = TrainState::new(&train, &val, cfg);
    let mut epochs = Vec::new();
    while !state.is_done() {
        let start = Instant::now();
        state.step_epoch(&train, &val);
        epochs.push(ms_since(start));
    }
    let mut sampler = SaintSampler::new(&train.adj, cfg.saint.clone());
    let samples: Vec<f64> = (0..200)
        .map(|_| {
            let start = Instant::now();
            black_box(sampler.sample(&train.adj));
            ms_since(start)
        })
        .collect();
    let (model, _) = state.finish();
    let predicts: Vec<f64> = dataset
        .instances
        .iter()
        .map(|inst| {
            let start = Instant::now();
            black_box(predict(&model, &inst.graph));
            ms_since(start)
        })
        .collect();
    m.put_median("gnn.epoch_ms", &epochs, "ms");
    m.put_median("gnn.sample_ms", &samples, "ms");
    m.put_median("gnn.predict_ms", &predicts, "ms");
}

/// `neural` layer: the four kernels at a training epoch's shapes (a SAINT
/// subgraph of the workload's first split, its features and the hidden
/// width), timed on whatever CPUs this process may use.
pub fn neural_probe(ds: &DatasetConfig, cfg: &TrainConfig, suffix: &str, m: &mut Metrics) {
    let dataset = Dataset::generate_with(ds, 1);
    let (train, _) = first_split(&dataset);
    let mut sampler = SaintSampler::new(&train.adj, cfg.saint.clone());
    let sub = sampler.sample(&train.adj);
    let n = sub.nodes.len();
    let f = train.features.cols();
    let h = cfg.hidden;
    let x = train.features.gather_rows(&sub.nodes);
    let input = x.hconcat(&sub.adj.mean_aggregate(&x)); // n × 2f
    let weight = Matrix::xavier(2 * f, h, 1); // 2f × h
    let grad = Matrix::xavier(n, h, 2); // n × h
    let time_us = |f: &mut dyn FnMut()| -> Vec<f64> {
        (0..300)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect()
    };
    let matmul = time_us(&mut || {
        black_box(input.matmul(&weight));
    });
    let tmatmul = time_us(&mut || {
        black_box(input.transpose_matmul(&grad));
    });
    let matmul_t = time_us(&mut || {
        black_box(grad.matmul_transpose(&weight));
    });
    let adj: &Csr = &sub.adj;
    let aggregate = time_us(&mut || {
        black_box(adj.mean_aggregate(&x));
    });
    println!("neural shapes: n={n} f={f} hidden={h}");
    m.put_median(&format!("neural.matmul_us.{suffix}"), &matmul, "us");
    m.put_median(
        &format!("neural.transpose_matmul_us.{suffix}"),
        &tmatmul,
        "us",
    );
    m.put_median(
        &format!("neural.matmul_transpose_us.{suffix}"),
        &matmul_t,
        "us",
    );
    m.put_median(
        &format!("neural.mean_aggregate_us.{suffix}"),
        &aggregate,
        "us",
    );
}

/// Every `(original, recovered)` design pair of `campaign`, read from the
/// outputs its `dataset` and `remove` stages left in `cache`.
pub fn recovered_pairs<R: CampaignRunner>(
    campaign: &Campaign,
    runner: &R,
    cache: &ResultCache,
) -> Vec<(Netlist, Netlist)> {
    let fps = campaign.job_fingerprints(runner);
    let lookup = |kind: JobKind| {
        campaign
            .plan()
            .iter()
            .zip(&fps)
            .filter(move |((job, _), _)| job.kind == kind)
            .filter_map(move |((job, _), &fp)| Some((job, cache.get(kind, fp)?)))
    };
    let Some((_, dataset)) = lookup(JobKind::Dataset).next() else {
        return Vec::new();
    };
    let Ok(dataset) = dataset.downcast::<Dataset>() else {
        return Vec::new();
    };
    lookup(JobKind::Remove)
        .filter_map(|(job, value)| {
            let artifact = value.downcast::<Option<RemovalArtifact>>().ok()?;
            let recovered = artifact.as_ref().as_ref()?.recovered.clone();
            let inst = dataset.instances.iter().find(|i| {
                Some(&i.benchmark) == job.benchmark.as_ref()
                    && Some(i.key_bits) == job.key_bits
                    && Some(i.copy as u64) == job.seed
            })?;
            Some((inst.original.clone(), recovered))
        })
        .collect()
}

/// `sat` layer: `check_equivalence_stats` on each recovered design, with
/// the options the verify stage uses.
pub fn sat_probe(pairs: &[(Netlist, Netlist)], m: &mut Metrics) {
    let mut times = Vec::new();
    let (mut calls, mut conflicts, mut cones, mut collapsed) = (0u64, 0u64, 0usize, 0usize);
    for (original, recovered) in pairs {
        let opts = EquivOptions {
            key_b: Some(vec![false; recovered.key_inputs().len()]),
            workers: gnnunlock_engine::default_workers(),
            ..Default::default()
        };
        let start = Instant::now();
        let (_, stats) = check_equivalence_stats(original, recovered, &opts);
        times.push(ms_since(start));
        calls += stats.solver_calls;
        conflicts += stats.conflicts;
        cones += stats.cones;
        collapsed += stats.strash_collapsed_cones;
    }
    let per = |x: f64| x / pairs.len().max(1) as f64;
    m.put_median("sat.check_ms", &times, "ms");
    m.put("sat.solver_calls", per(calls as f64), "count", pairs.len());
    m.put("sat.conflicts", per(conflicts as f64), "count", pairs.len());
    let share = if cones == 0 {
        0.0
    } else {
        collapsed as f64 / cones as f64
    };
    m.put("sat.strash_collapsed_share", share, "share", pairs.len());
}

/// A result cache reading the store of a persisted campaign directory
/// (`tenant` selects its namespace; blank = the default one).
pub fn store_cache(dir: &std::path::Path, tenant: &str) -> std::io::Result<ResultCache> {
    let store = gnnunlock_engine::DiskStore::open_namespaced(dir, tenant)?;
    Ok(ResultCache::with_disk(
        Arc::new(store),
        Arc::new(PipelineCodec) as Arc<dyn ValueCodec>,
    ))
}
