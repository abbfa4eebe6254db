//! The perf harness behind `gnnunlock-bench perf`: machine-readable
//! kernel, end-to-end and verification timings, written as
//! `BENCH_kernels.json`, `BENCH_attack.json` and `BENCH_verify.json` at
//! the repo root (or `GNNUNLOCK_BENCH_OUT`).
//!
//! Every kernel entry times the **pre-overhaul naive kernel** (kept
//! verbatim in `gnnunlock_neural::reference`, allocation and historical
//! threading included) against the **optimized kernel** (tiled/packed
//! `_into` variant over a warm [`Workspace`]) on the same inputs, and
//! records both as `baseline_ns` / `optimized_ns`. The two are
//! bit-identical by construction (the proptests assert it); this
//! harness records the wall-clock side of the contract, seeding the
//! perf trajectory every future PR appends to.
//!
//! Timings are min-of-N wall clock (robust to scheduler noise on shared
//! machines); the JSON layout is deterministic, the numbers are not —
//! `BENCH_*.json` is a trajectory, never a golden.

use gnnunlock_engine::Json;
use gnnunlock_gnn::{netlist_to_graph, train, Csr, LabelScheme, SaintConfig, TrainConfig};
use gnnunlock_locking::{lock_antisat, lock_rll, AntiSatConfig};
use gnnunlock_netlist::{generator::BenchmarkSpec, CellLibrary, Netlist};
use gnnunlock_neural::{reference, Matrix, Workspace};
use gnnunlock_sat::{check_equivalence, check_equivalence_stats, equiv, EquivOptions, EquivResult};
use gnnunlock_telemetry as telemetry;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Name of the kernel trajectory file.
pub const KERNELS_FILE: &str = "BENCH_kernels.json";

/// Name of the end-to-end attack trajectory file.
pub const ATTACK_FILE: &str = "BENCH_attack.json";

/// Name of the equivalence-verification trajectory file.
pub const VERIFY_FILE: &str = "BENCH_verify.json";

/// Name of the Chrome-trace timeline the attack suite emits (overridden
/// by `GNNUNLOCK_TRACE_OUT`).
pub const TRACE_FILE: &str = "BENCH_trace.json";

/// One `(m, k, n)` product benchmark shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Shape label (`small` / `medium` / `large`).
    pub name: &'static str,
    /// Output rows.
    pub m: usize,
    /// Reduction length.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Timing repetitions (min is reported).
    pub reps: usize,
}

/// The GEMM shapes of the full perf run. `medium` is the acceptance
/// shape of the kernel overhaul (the speedup summary is computed over
/// it); the family brackets the training products (`N x 2H x H` with
/// `H` between the CI width 96 and the paper width 512).
pub fn full_shapes() -> Vec<Shape> {
    vec![
        Shape {
            name: "small",
            m: 128,
            k: 64,
            n: 64,
            reps: 9,
        },
        Shape {
            name: "medium",
            m: 512,
            k: 256,
            n: 256,
            reps: 7,
        },
        Shape {
            name: "large",
            m: 1024,
            k: 512,
            n: 384,
            reps: 3,
        },
    ]
}

/// Tiny shapes for the CI smoke run: exercises every code path and the
/// JSON schema in well under a second. The rep counts are high (the
/// shapes are microseconds each) because the smoke speedups feed the
/// `history check` regression gate — min-of-N must be a stable floor,
/// not a scheduler lottery.
pub fn smoke_shapes() -> Vec<Shape> {
    vec![
        Shape {
            name: "small",
            m: 33,
            k: 17,
            n: 9,
            reps: 25,
        },
        Shape {
            name: "medium",
            m: 48,
            k: 24,
            n: 24,
            reps: 25,
        },
    ]
}

/// Minimum wall-clock nanoseconds of `reps` runs of `f`.
fn time_ns(reps: usize, mut f: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos() as u64);
    }
    best
}

/// A matrix with featurization-like exact zeros (the skip-branch case).
fn zero_laden(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut m = Matrix::xavier(rows, cols, seed);
    for r in 0..rows {
        for c in 0..cols {
            if (r * cols + c).is_multiple_of(3) {
                m.set(r, c, 0.0);
            }
        }
    }
    m
}

fn entry(kernel: &str, shape: &Shape, baseline_ns: u64, optimized_ns: u64) -> Json {
    Json::obj(vec![
        ("kernel", Json::Str(kernel.to_string())),
        ("shape", Json::Str(shape.name.to_string())),
        ("m", Json::Num(shape.m as f64)),
        ("k", Json::Num(shape.k as f64)),
        ("n", Json::Num(shape.n as f64)),
        ("baseline_ns", Json::Num(baseline_ns as f64)),
        ("optimized_ns", Json::Num(optimized_ns as f64)),
        (
            "speedup",
            Json::Num(baseline_ns as f64 / optimized_ns.max(1) as f64),
        ),
    ])
}

/// The historical mean aggregation: allocating sum pass followed by a
/// separate scale pass (the pre-overhaul `Csr::mean_aggregate` body).
fn naive_mean_aggregate(adj: &Csr, x: &Matrix) -> Matrix {
    let mut y = Matrix::zeros(adj.num_nodes(), x.cols());
    for v in 0..adj.num_nodes() {
        let row = y.row_mut(v);
        for &n in adj.neighbors(v) {
            for (o, &s) in row.iter_mut().zip(x.row(n as usize)) {
                *o += s;
            }
        }
    }
    for v in 0..adj.num_nodes() {
        let d = adj.degree(v);
        if d > 1 {
            let inv = 1.0 / d as f32;
            for e in y.row_mut(v) {
                *e *= inv;
            }
        }
    }
    y
}

/// A ring-with-chords graph of `n` nodes (degree ~4, deterministic).
fn bench_graph(n: usize) -> Csr {
    let mut edges = Vec::with_capacity(2 * n);
    for i in 0..n {
        edges.push((i, (i + 1) % n));
        edges.push((i, (i + 7) % n));
    }
    Csr::from_edges(n, &edges)
}

/// Time the product-kernel family at `shape`, returning its JSON
/// entries plus `(baseline_total, optimized_total)`.
fn kernel_family(shape: &Shape) -> (Vec<Json>, u64, u64) {
    let (m, k, n) = (shape.m, shape.k, shape.n);
    let a = zero_laden(m, k, 1);
    let b = Matrix::xavier(k, n, 2);
    let b2 = Matrix::xavier(m, n, 3);
    let bt = Matrix::xavier(n, k, 4);
    let mut ws = Workspace::new();
    let mut entries = Vec::new();
    let (mut base_total, mut opt_total) = (0u64, 0u64);

    // matmul
    let mut out = ws.take(m, n);
    a.matmul_into(&b, &mut out, &mut ws); // warm the pack panel
    let baseline = time_ns(shape.reps, || {
        std::hint::black_box(reference::matmul(&a, &b));
    });
    let optimized = time_ns(shape.reps, || {
        a.matmul_into(&b, &mut out, &mut ws);
    });
    entries.push(entry("matmul", shape, baseline, optimized));
    base_total += baseline;
    opt_total += optimized;

    // transpose_matmul
    let mut out_t = ws.take(k, n);
    let baseline = time_ns(shape.reps, || {
        std::hint::black_box(reference::transpose_matmul(&a, &b2));
    });
    let optimized = time_ns(shape.reps, || {
        a.transpose_matmul_into(&b2, &mut out_t);
    });
    entries.push(entry("transpose_matmul", shape, baseline, optimized));
    base_total += baseline;
    opt_total += optimized;

    // matmul_transpose
    a.matmul_transpose_into(&bt, &mut out, &mut ws); // warm the bᵀ pack
    let baseline = time_ns(shape.reps, || {
        std::hint::black_box(reference::matmul_transpose(&a, &bt));
    });
    let optimized = time_ns(shape.reps, || {
        a.matmul_transpose_into(&bt, &mut out, &mut ws);
    });
    entries.push(entry("matmul_transpose", shape, baseline, optimized));
    base_total += baseline;
    opt_total += optimized;

    // mean_aggregate over an m-node graph with k-wide features.
    let adj = bench_graph(m);
    let feats = Matrix::xavier(m, k, 5);
    let mut agg_out = ws.take(m, k);
    let baseline = time_ns(shape.reps, || {
        std::hint::black_box(naive_mean_aggregate(&adj, &feats));
    });
    let optimized = time_ns(shape.reps, || {
        adj.mean_aggregate_into(&feats, &mut agg_out);
    });
    entries.push(entry("mean_aggregate", shape, baseline, optimized));
    base_total += baseline;
    opt_total += optimized;

    // The family aggregate: the acceptance metric of the overhaul is
    // this summed baseline vs optimized time at the medium shape.
    entries.push(entry("kernel_family", shape, base_total, opt_total));
    (entries, base_total, opt_total)
}

/// Time one epoch's worth of kernel-path work (forward + backward
/// products and aggregations at GraphSAGE shapes): naive kernels with
/// per-call allocation vs `_into` kernels on a warm workspace.
fn epoch_composite(shape: &Shape) -> Json {
    let n_nodes = shape.m;
    let f = shape.k;
    let h = (shape.n / 2).max(1);
    let c = 2usize;
    let adj = bench_graph(n_nodes);
    let x = zero_laden(n_nodes, f, 7);
    let w_enc = Matrix::he(f, h, 8);
    let w1 = Matrix::he(2 * h, h, 9);
    let w2 = Matrix::he(2 * h, h, 10);
    let w_head = Matrix::he(h, c, 11);
    let g_logits = Matrix::xavier(n_nodes, c, 12);

    let baseline = time_ns(shape.reps, || {
        // Forward (historical kernels, allocating everywhere).
        let h0 = reference::matmul(&x, &w_enc);
        let agg1 = naive_mean_aggregate(&adj, &h0);
        let cat1 = h0.hconcat(&agg1);
        let h1 = reference::matmul(&cat1, &w1);
        let agg2 = naive_mean_aggregate(&adj, &h1);
        let cat2 = h1.hconcat(&agg2);
        let h2 = reference::matmul(&cat2, &w2);
        let _logits = reference::matmul(&h2, &w_head);
        // Backward products.
        let _gw_head = reference::transpose_matmul(&h2, &g_logits);
        let g_h2 = reference::matmul_transpose(&g_logits, &w_head);
        let _gw2 = reference::transpose_matmul(&cat2, &g_h2);
        let g_cat2 = reference::matmul_transpose(&g_h2, &w2);
        let (g_h1, g_agg2) = g_cat2.hsplit(h);
        let mut g_h1 = g_h1;
        g_h1.add_assign(&adj.mean_aggregate_backward(&g_agg2));
        let _gw1 = reference::transpose_matmul(&cat1, &g_h1);
        let g_cat1 = reference::matmul_transpose(&g_h1, &w1);
        let (g_h0, g_agg1) = g_cat1.hsplit(h);
        let mut g_h0 = g_h0;
        g_h0.add_assign(&adj.mean_aggregate_backward(&g_agg1));
        let _gw_enc = reference::transpose_matmul(&x, &g_h0);
        // The historical path also computed the never-used input
        // gradient of the encoder — part of the honest baseline.
        let _g_x = reference::matmul_transpose(&g_h0, &w_enc);
        std::hint::black_box(&g_h0);
    });

    let mut ws = Workspace::new();
    let optimized = time_ns(shape.reps, || {
        let mut h0 = ws.take(n_nodes, h);
        x.matmul_sparse_aware_into(&w_enc, &mut h0);
        let mut agg1 = ws.take(n_nodes, h);
        adj.mean_aggregate_into(&h0, &mut agg1);
        let mut cat1 = ws.take(n_nodes, 2 * h);
        h0.hconcat_into(&agg1, &mut cat1);
        let mut h1 = ws.take(n_nodes, h);
        cat1.matmul_into(&w1, &mut h1, &mut ws);
        let mut agg2 = ws.take(n_nodes, h);
        adj.mean_aggregate_into(&h1, &mut agg2);
        let mut cat2 = ws.take(n_nodes, 2 * h);
        h1.hconcat_into(&agg2, &mut cat2);
        let mut h2 = ws.take(n_nodes, h);
        cat2.matmul_into(&w2, &mut h2, &mut ws);
        let mut logits = ws.take(n_nodes, c);
        h2.matmul_into(&w_head, &mut logits, &mut ws);
        // Backward.
        let mut gw_head = ws.take(h, c);
        h2.transpose_matmul_into(&g_logits, &mut gw_head);
        let mut g_h2 = ws.take(n_nodes, h);
        g_logits.matmul_transpose_into(&w_head, &mut g_h2, &mut ws);
        let mut gw2 = ws.take(2 * h, h);
        cat2.transpose_matmul_into(&g_h2, &mut gw2);
        let mut g_cat2 = ws.take(n_nodes, 2 * h);
        g_h2.matmul_transpose_into(&w2, &mut g_cat2, &mut ws);
        let mut g_h1 = ws.take(n_nodes, h);
        let mut g_agg2 = ws.take(n_nodes, h);
        g_cat2.hsplit_into(&mut g_h1, &mut g_agg2);
        let mut agg_back = ws.take(n_nodes, h);
        adj.mean_aggregate_backward_into(&g_agg2, &mut agg_back, &mut ws);
        g_h1.add_assign(&agg_back);
        let mut gw1 = ws.take(2 * h, h);
        cat1.transpose_matmul_into(&g_h1, &mut gw1);
        let mut g_cat1 = ws.take(n_nodes, 2 * h);
        g_h1.matmul_transpose_into(&w1, &mut g_cat1, &mut ws);
        let mut g_h0 = ws.take(n_nodes, h);
        let mut g_agg1 = ws.take(n_nodes, h);
        g_cat1.hsplit_into(&mut g_h0, &mut g_agg1);
        let mut agg_back1 = ws.take(n_nodes, h);
        adj.mean_aggregate_backward_into(&g_agg1, &mut agg_back1, &mut ws);
        g_h0.add_assign(&agg_back1);
        let mut gw_enc = ws.take(f, h);
        // Mirrors the model: the encoder weight gradient uses the
        // sparse-aware kernel on the featurization matrix.
        x.transpose_matmul_sparse_aware_into(&g_h0, &mut gw_enc);
        // (No wasted encoder input gradient in the optimized path.)
        std::hint::black_box(&g_h0);
        for m in [
            h0, agg1, cat1, h1, agg2, cat2, h2, logits, gw_head, g_h2, gw2, g_cat2, g_h1, g_agg2,
            agg_back, gw1, g_cat1, g_h0, g_agg1, agg_back1, gw_enc,
        ] {
            ws.recycle(m);
        }
    });

    entry("train_epoch_composite", shape, baseline, optimized)
}

/// Run the kernel suite and return the `BENCH_kernels.json` document.
pub fn kernel_report(smoke: bool) -> Json {
    let shapes = if smoke { smoke_shapes() } else { full_shapes() };
    let mut entries = Vec::new();
    let (mut medium_base, mut medium_opt) = (0u64, 0u64);
    for shape in &shapes {
        let (fam, base_total, opt_total) = kernel_family(shape);
        entries.extend(fam);
        entries.push(epoch_composite(shape));
        if shape.name == "medium" {
            medium_base = base_total;
            medium_opt = opt_total;
        }
    }
    Json::obj(vec![
        ("schema", Json::Num(1.0)),
        (
            "mode",
            Json::Str(if smoke { "smoke" } else { "full" }.to_string()),
        ),
        (
            "contract",
            Json::Str(
                "baseline = pre-overhaul naive kernels (bit-identical results); \
                 optimized = tiled/packed workspace kernels"
                    .to_string(),
            ),
        ),
        ("kernels", Json::Arr(entries)),
        ("medium_baseline_ns", Json::Num(medium_base as f64)),
        ("medium_optimized_ns", Json::Num(medium_opt as f64)),
        (
            "medium_speedup",
            Json::Num(medium_base as f64 / medium_opt.max(1) as f64),
        ),
    ])
}

/// Run a small end-to-end attack (lock → featurize → train → classify →
/// remove → verify) and return the `BENCH_attack.json` document.
pub fn attack_report(smoke: bool) -> Json {
    use gnnunlock_core::{postprocess, remove_protection};
    use gnnunlock_gnn::predict;

    let scale = if smoke { 0.02 } else { 0.05 };
    let epochs = if smoke { 8 } else { 40 };
    let design = BenchmarkSpec::named("c5315")
        .unwrap()
        .scaled(scale)
        .generate();
    let val_design = BenchmarkSpec::named("c3540")
        .unwrap()
        .scaled(scale)
        .generate();

    // The bench harness times stages by hand (it never goes through the
    // engine executor), so it records its own spans: one root for the
    // whole attack, one child per stage, ids derived from the stage
    // names so the trace's id graph is deterministic run to run.
    let root_id = telemetry::derived_id(0, "bench-attack");
    let run_start = Instant::now();
    let mut stages: Vec<(String, u64)> = Vec::new();
    let mut stage = |name: &str, ns: u64| {
        let end = Instant::now();
        telemetry::record_span_at(
            &format!("bench-attack/{name}"),
            "bench-stage",
            telemetry::derived_id(root_id, name),
            root_id,
            end - std::time::Duration::from_nanos(ns),
            end,
        );
        stages.push((name.to_string(), ns));
    };

    let t0 = Instant::now();
    let locked = lock_antisat(&design, &AntiSatConfig::new(16, 2)).unwrap();
    let val_locked = lock_antisat(&val_design, &AntiSatConfig::new(16, 3)).unwrap();
    stage("lock", t0.elapsed().as_nanos() as u64);

    let t0 = Instant::now();
    let graph = netlist_to_graph(&locked.netlist, CellLibrary::Bench8, LabelScheme::AntiSat);
    let val_graph = netlist_to_graph(
        &val_locked.netlist,
        CellLibrary::Bench8,
        LabelScheme::AntiSat,
    );
    stage("featurize", t0.elapsed().as_nanos() as u64);

    let cfg = TrainConfig {
        epochs,
        hidden: if smoke { 16 } else { 48 },
        eval_every: epochs.max(1),
        patience: 0,
        saint: SaintConfig {
            roots: if smoke { 100 } else { 400 },
            walk_length: 2,
            estimation_rounds: 3,
            seed: 5,
        },
        ..TrainConfig::default()
    };
    let t0 = Instant::now();
    let (model, report) = train(&graph, &val_graph, &cfg);
    let train_ns = t0.elapsed().as_nanos() as u64;
    stage("train", train_ns);

    let t0 = Instant::now();
    let mut preds = predict(&model, &graph);
    postprocess(&locked.netlist, &graph, &mut preds);
    stage("classify", t0.elapsed().as_nanos() as u64);

    let t0 = Instant::now();
    let recovered = remove_protection(&locked.netlist, &graph, &preds);
    stage("remove", t0.elapsed().as_nanos() as u64);

    let t0 = Instant::now();
    let opts = EquivOptions {
        key_b: Some(vec![false; recovered.key_inputs().len()]),
        workers: gnnunlock_engine::default_workers(),
        ..Default::default()
    };
    let verdict = check_equivalence(&design, &recovered, &opts);
    stage("verify", t0.elapsed().as_nanos() as u64);

    telemetry::record_span("bench-attack", "bench-run", root_id, 0, run_start);

    let total: u64 = stages.iter().map(|(_, ns)| ns).sum();
    Json::obj(vec![
        ("schema", Json::Num(1.0)),
        (
            "mode",
            Json::Str(if smoke { "smoke" } else { "full" }.to_string()),
        ),
        ("benchmark", Json::Str("c5315".to_string())),
        ("scale", Json::Num(scale)),
        ("epochs_run", Json::Num(report.epochs_run as f64)),
        (
            "train_epoch_ns",
            Json::Num(train_ns as f64 / report.epochs_run.max(1) as f64),
        ),
        ("verified_equivalent", Json::Bool(verdict.is_equivalent())),
        (
            "stages",
            Json::Arr(
                stages
                    .iter()
                    .map(|(name, ns)| {
                        Json::obj(vec![
                            ("stage", Json::Str(name.clone())),
                            ("ns", Json::Num(*ns as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("total_ns", Json::Num(total as f64)),
    ])
}

/// One equivalence-verification benchmark case: the circuits, the key
/// bindings, and which pipeline stage is expected to carry the load.
struct VerifyCase {
    name: &'static str,
    a: Netlist,
    b: Netlist,
    opts: EquivOptions,
}

fn verdict_name(r: &EquivResult) -> &'static str {
    match r {
        EquivResult::Equivalent => "equivalent",
        EquivResult::NotEquivalent(_) => "not_equivalent",
        EquivResult::InterfaceMismatch(_) => "interface_mismatch",
    }
}

/// The verification case family, all on the same c5315 benchmark the
/// attack report uses:
///
/// - `prefilter_hit` — RLL-locked vs original under a wrong key: random
///   simulation distinguishes almost immediately (the XOR corruption
///   fires on ~half of all patterns), so this times the prefilter path.
/// - `not_equivalent` — Anti-SAT-locked vs original under a wrong key:
///   the corruption fires on ~2⁻¹⁶ of patterns, so random simulation
///   (almost always) misses and the SAT stage must find the
///   counterexample.
/// - `cone_unsat` — the design against a clone of itself: no
///   counterexample exists, so this times the full UNSAT proof over the
///   partitioned cones.
fn verify_cases(smoke: bool) -> Vec<VerifyCase> {
    let scale = if smoke { 0.02 } else { 0.05 };
    let design = BenchmarkSpec::named("c5315")
        .unwrap()
        .scaled(scale)
        .generate();
    let workers = gnnunlock_engine::default_workers();
    let rll = lock_rll(&design, 16, 5).unwrap();
    let wrong_rll: Vec<bool> = rll.key.bits().iter().map(|b| !b).collect();
    let antisat = lock_antisat(&design, &AntiSatConfig::new(16, 2)).unwrap();
    // Flip exactly one bit: Anti-SAT accepts any key with K1 == K2, so
    // flipping *all* bits lands on another correct key. One flipped bit
    // makes K1 != K2, which corrupts exactly one input pattern.
    let wrong_anti: Vec<bool> = antisat
        .key
        .bits()
        .iter()
        .enumerate()
        .map(|(i, b)| if i == 0 { !b } else { *b })
        .collect();
    vec![
        VerifyCase {
            name: "prefilter_hit",
            a: design.clone(),
            b: rll.netlist,
            opts: EquivOptions {
                key_b: Some(wrong_rll),
                workers,
                ..Default::default()
            },
        },
        VerifyCase {
            name: "not_equivalent",
            a: design.clone(),
            b: antisat.netlist,
            opts: EquivOptions {
                key_b: Some(wrong_anti),
                workers,
                ..Default::default()
            },
        },
        VerifyCase {
            name: "cone_unsat",
            a: design.clone(),
            b: design,
            opts: EquivOptions {
                workers,
                ..Default::default()
            },
        },
    ]
}

/// Run the verification suite and return the `BENCH_verify.json`
/// document. `baseline_ns` times the retained monolithic checker
/// ([`gnnunlock_sat::equiv::reference`], per-pattern allocation storm
/// included); `optimized_ns` times the staged pipeline on identical
/// inputs. Verdicts must agree case by case (the document records both;
/// the self-check rejects disagreement). Each case also records the
/// staged pipeline's solver-effort counters (solver calls, conflicts,
/// propagations, learnt clauses, cone/strash discharge) — recording
/// only, never a gate.
pub fn verify_report(smoke: bool) -> Json {
    let reps = if smoke { 7 } else { 5 };
    let mut entries = Vec::new();
    let (mut base_total, mut opt_total) = (0u64, 0u64);
    for case in verify_cases(smoke) {
        let baseline_verdict = equiv::reference::check_equivalence(&case.a, &case.b, &case.opts);
        let (optimized_verdict, stats) = check_equivalence_stats(&case.a, &case.b, &case.opts);
        let baseline_ns = time_ns(reps, || {
            std::hint::black_box(equiv::reference::check_equivalence(
                &case.a, &case.b, &case.opts,
            ));
        });
        let optimized_ns = time_ns(reps, || {
            std::hint::black_box(check_equivalence(&case.a, &case.b, &case.opts));
        });
        base_total += baseline_ns;
        opt_total += optimized_ns;
        entries.push(Json::obj(vec![
            ("case", Json::Str(case.name.to_string())),
            ("baseline_ns", Json::Num(baseline_ns as f64)),
            ("optimized_ns", Json::Num(optimized_ns as f64)),
            (
                "speedup",
                Json::Num(baseline_ns as f64 / optimized_ns.max(1) as f64),
            ),
            (
                "baseline_verdict",
                Json::Str(verdict_name(&baseline_verdict).to_string()),
            ),
            (
                "optimized_verdict",
                Json::Str(verdict_name(&optimized_verdict).to_string()),
            ),
            // Solver-effort counters from the staged pipeline's first
            // (untimed) pass — recorded for trajectory analysis only,
            // never gated.
            (
                "prefilter_discharged",
                Json::Bool(stats.prefilter_discharged),
            ),
            ("cones", Json::Num(stats.cones as f64)),
            (
                "strash_collapsed_cones",
                Json::Num(stats.strash_collapsed_cones as f64),
            ),
            ("solver_calls", Json::Num(stats.solver_calls as f64)),
            ("conflicts", Json::Num(stats.conflicts as f64)),
            ("propagations", Json::Num(stats.propagations as f64)),
            ("learnt_clauses", Json::Num(stats.learnt_clauses as f64)),
        ]));
    }
    Json::obj(vec![
        ("schema", Json::Num(1.0)),
        (
            "mode",
            Json::Str(if smoke { "smoke" } else { "full" }.to_string()),
        ),
        (
            "contract",
            Json::Str(
                "baseline = monolithic checker (equiv::reference); optimized = staged \
                 pipeline (word prefilter + cone-partitioned incremental SAT); verdicts \
                 must agree case by case"
                    .to_string(),
            ),
        ),
        ("benchmark", Json::Str("c5315".to_string())),
        ("cases", Json::Arr(entries)),
        ("verify_family_baseline_ns", Json::Num(base_total as f64)),
        ("verify_family_optimized_ns", Json::Num(opt_total as f64)),
        (
            "verify_family_speedup",
            Json::Num(base_total as f64 / opt_total.max(1) as f64),
        ),
    ])
}

/// Check a verify document contains every expected case with positive
/// timings and agreeing verdicts.
///
/// # Errors
///
/// Describes the first missing or malformed entry.
pub fn verify_verify_doc(doc: &Json) -> Result<(), String> {
    let cases = match doc.get("cases") {
        Some(Json::Arr(entries)) => entries,
        _ => return Err("missing cases array".to_string()),
    };
    for expected in ["prefilter_hit", "not_equivalent", "cone_unsat"] {
        let found = cases
            .iter()
            .find(|e| e.get("case").and_then(Json::as_str) == Some(expected))
            .ok_or_else(|| format!("verify case '{expected}' missing"))?;
        for field in ["baseline_ns", "optimized_ns"] {
            if found.get(field).and_then(Json::as_num).unwrap_or(0.0) <= 0.0 {
                return Err(format!("verify case '{expected}' lacks {field}"));
            }
        }
        let base = found.get("baseline_verdict").and_then(Json::as_str);
        let opt = found.get("optimized_verdict").and_then(Json::as_str);
        if base.is_none() || base != opt {
            return Err(format!(
                "verify case '{expected}' verdicts disagree: {base:?} vs {opt:?}"
            ));
        }
        // Solver-effort counters are recorded (zero is legal — the
        // prefilter path never calls the solver), but must be present.
        for field in [
            "cones",
            "strash_collapsed_cones",
            "solver_calls",
            "conflicts",
            "propagations",
            "learnt_clauses",
        ] {
            if found.get(field).and_then(Json::as_num).is_none() {
                return Err(format!("verify case '{expected}' lacks {field}"));
            }
        }
        if !matches!(found.get("prefilter_discharged"), Some(Json::Bool(_))) {
            return Err(format!(
                "verify case '{expected}' lacks prefilter_discharged"
            ));
        }
    }
    if doc
        .get("verify_family_speedup")
        .and_then(Json::as_num)
        .is_none()
    {
        return Err("missing verify_family_speedup".to_string());
    }
    Ok(())
}

/// Where the `BENCH_*.json` files go: `GNNUNLOCK_BENCH_OUT`, or the
/// current directory (the repo root when invoked from a checkout).
pub fn out_dir() -> PathBuf {
    gnnunlock_engine::bench_out_from_env().unwrap_or_else(|| PathBuf::from("."))
}

/// Drain this thread's recorded spans and write them as a Chrome
/// `trace_event` timeline: to `GNNUNLOCK_TRACE_OUT` when set, else
/// `dir/`[`TRACE_FILE`]. Returns `None` (and writes nothing) when
/// telemetry is disabled or no spans were recorded.
///
/// # Errors
///
/// I/O errors writing the trace file.
pub fn write_attack_trace(dir: &Path) -> std::io::Result<Option<PathBuf>> {
    let spans = telemetry::take_thread_spans();
    if spans.is_empty() {
        return Ok(None);
    }
    let path = gnnunlock_engine::trace_out_from_env().unwrap_or_else(|| dir.join(TRACE_FILE));
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(&path, telemetry::chrome_trace_json(&spans))?;
    Ok(Some(path))
}

/// Structurally validate a Chrome `trace_event` document: a
/// `traceEvents` array of complete (`"ph":"X"`) events, each carrying
/// `name`/`cat`/`ts`/`dur`/`pid`/`tid` and the deterministic
/// `args.id`/`args.parent` pair. This is what `gnnunlock-bench trace
/// check` (and the CI perf-smoke step through it) runs against the
/// per-run trace files.
///
/// # Errors
///
/// Describes the first structural violation.
pub fn validate_trace_doc(doc: &Json) -> Result<usize, String> {
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        _ => return Err("missing traceEvents array".to_string()),
    };
    if events.is_empty() {
        return Err("traceEvents is empty".to_string());
    }
    for (i, ev) in events.iter().enumerate() {
        for field in ["name", "cat", "ph"] {
            if ev.get(field).and_then(Json::as_str).is_none() {
                return Err(format!("event {i} lacks string field '{field}'"));
            }
        }
        if ev.get("ph").and_then(Json::as_str) != Some("X") {
            return Err(format!("event {i} is not a complete ('X') event"));
        }
        for field in ["ts", "dur", "pid", "tid"] {
            if ev.get(field).and_then(Json::as_num).is_none() {
                return Err(format!("event {i} lacks numeric field '{field}'"));
            }
        }
        let args = ev
            .get("args")
            .ok_or_else(|| format!("event {i} lacks args"))?;
        for field in ["id", "parent"] {
            if args.get(field).and_then(Json::as_str).is_none() {
                return Err(format!("event {i} lacks args.{field}"));
            }
        }
    }
    Ok(events.len())
}

/// Write `doc` under `dir/name`, then parse it back and sanity-check the
/// expected kernel entries are present — the self-check the CI smoke
/// step relies on.
///
/// # Errors
///
/// I/O errors, or a malformed / incomplete document.
pub fn write_and_verify(dir: &Path, name: &str, doc: &Json) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, doc.render())?;
    let text = std::fs::read_to_string(&path)?;
    let parsed = Json::parse(&text)
        .map_err(|e| std::io::Error::other(format!("{name} failed to re-parse: {e}")))?;
    if name == KERNELS_FILE {
        verify_kernels_doc(&parsed).map_err(std::io::Error::other)?;
    }
    if name == VERIFY_FILE {
        verify_verify_doc(&parsed).map_err(std::io::Error::other)?;
    }
    Ok(path)
}

/// Check a kernels document contains every expected kernel entry with
/// positive timings.
///
/// # Errors
///
/// Describes the first missing or malformed entry.
pub fn verify_kernels_doc(doc: &Json) -> Result<(), String> {
    let kernels = match doc.get("kernels") {
        Some(Json::Arr(entries)) => entries,
        _ => return Err("missing kernels array".to_string()),
    };
    for expected in [
        "matmul",
        "transpose_matmul",
        "matmul_transpose",
        "mean_aggregate",
        "kernel_family",
        "train_epoch_composite",
    ] {
        let found = kernels.iter().any(|e| {
            e.get("kernel").and_then(Json::as_str) == Some(expected)
                && e.get("baseline_ns").and_then(Json::as_num).unwrap_or(0.0) > 0.0
                && e.get("optimized_ns").and_then(Json::as_num).unwrap_or(0.0) > 0.0
        });
        if !found {
            return Err(format!(
                "kernel entry '{expected}' missing or without timings"
            ));
        }
    }
    if doc.get("medium_speedup").and_then(Json::as_num).is_none() {
        return Err("missing medium_speedup".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnunlock_engine::testing::TempDir;

    #[test]
    fn smoke_kernel_report_is_complete_and_verifies() {
        let doc = kernel_report(true);
        verify_kernels_doc(&doc).unwrap();
        let dir = TempDir::new("perf-kernels");
        let path = write_and_verify(&dir, KERNELS_FILE, &doc).unwrap();
        assert!(path.exists());
    }

    #[test]
    fn verify_rejects_incomplete_docs() {
        let doc = Json::obj(vec![("kernels", Json::Arr(vec![]))]);
        assert!(verify_kernels_doc(&doc).is_err());
        let doc = Json::obj(vec![("cases", Json::Arr(vec![]))]);
        assert!(verify_verify_doc(&doc).is_err());
    }

    #[test]
    fn trace_validation_accepts_rendered_spans_and_rejects_junk() {
        let spans = vec![
            telemetry::SpanRecord {
                name: "bench-attack".to_string(),
                cat: "bench-run".to_string(),
                id: telemetry::derived_id(0, "bench-attack"),
                parent: 0,
                start_us: 0,
                dur_us: 100,
                tid: 0,
            },
            telemetry::SpanRecord {
                name: "bench-attack/lock".to_string(),
                cat: "bench-stage".to_string(),
                id: telemetry::derived_id(telemetry::derived_id(0, "bench-attack"), "lock"),
                parent: telemetry::derived_id(0, "bench-attack"),
                start_us: 1,
                dur_us: 9,
                tid: 0,
            },
        ];
        let doc = Json::parse(&telemetry::chrome_trace_json(&spans)).unwrap();
        assert_eq!(validate_trace_doc(&doc), Ok(2));

        assert!(validate_trace_doc(&Json::obj(vec![])).is_err());
        let empty = Json::obj(vec![("traceEvents", Json::Arr(vec![]))]);
        assert!(validate_trace_doc(&empty).is_err());
        let partial = Json::obj(vec![(
            "traceEvents",
            Json::Arr(vec![Json::obj(vec![("name", Json::Str("x".into()))])]),
        )]);
        assert!(validate_trace_doc(&partial).is_err());
    }

    #[test]
    fn smoke_verify_report_is_complete_and_verifies() {
        let doc = verify_report(true);
        verify_verify_doc(&doc).unwrap();
        let dir = TempDir::new("perf-verify");
        let path = write_and_verify(&dir, VERIFY_FILE, &doc).unwrap();
        assert!(path.exists());
    }
}
