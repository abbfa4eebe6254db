//! `perfbench`: the measuring half of the repository benchmark.
//! `perfbench/run.py` builds it, pins it, starts the daemon
//! children and merges what it prints.
//!
//! ```text
//! perfbench run --workload W --seed N --seconds S --trace 0|1 --t0 UNIX_S --work DIR
//!               [--trace-out FILE] [--setup-only] [--tiny] [--daemon ADDR,PID,ROOT[,SPANS]]...
//! perfbench daemon --root DIR [--spans FILE]
//! perfbench neural --workload W --seed N --suffix TAG [--tiny]
//! ```
//!
//! `run` prints one line per metric and, last, one JSON object with the
//! metrics, the operations attempted and the checks that failed.

mod campaign;
mod daemon;
mod probe;
mod report;
mod trace;

use gnnunlock_engine::{JobKind, Json};
use gnnunlock_gnn::{SaintConfig, TrainConfig};
use report::Metrics;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

/// Per-stage metrics of the `core` layer and the stage kind each sums.
pub const CORE_STAGES: [(&str, JobKind); 8] = [
    ("core.lock_ms", JobKind::Lock),
    ("core.synth_ms", JobKind::Synth),
    ("core.featurize_ms", JobKind::Featurize),
    ("core.dataset_ms", JobKind::Dataset),
    ("core.train_epoch_ms", JobKind::TrainEpoch),
    ("core.classify_ms", JobKind::Classify),
    ("core.remove_ms", JobKind::Remove),
    ("core.verify_ms", JobKind::Verify),
];

/// The `daemon` layer's metrics; in-process workloads bypass the daemon
/// and report them as zero over zero samples.
pub const DAEMON_LAYER: [&str; 7] = [
    "daemon.queue_wait_ms",
    "daemon.exec_ms",
    "daemon.drain_ms",
    "daemon.dedup_rtt_ms",
    "daemon.status_rtt_ms",
    "daemon.report_rtt_ms",
    "daemon.report_bytes",
];

/// The unit of a metric reported without samples.
pub fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_bytes") {
        "bytes"
    } else {
        "ms"
    }
}

/// Input sizes of the campaign workloads.
pub struct Shape {
    pub scale: f64,
    pub key_sizes: Vec<usize>,
    pub locks: usize,
    pub epochs: usize,
    pub hidden: usize,
    pub roots: usize,
}

impl Shape {
    fn new(tiny: bool) -> Shape {
        if tiny {
            Shape {
                scale: 0.02,
                key_sizes: vec![8],
                locks: 1,
                epochs: 10,
                hidden: 16,
                roots: 100,
            }
        } else {
            Shape {
                scale: 0.05,
                key_sizes: vec![8, 16],
                locks: 2,
                epochs: 40,
                hidden: 48,
                roots: 400,
            }
        }
    }

    /// Training configuration with its seeds derived from `seed`.
    /// Validation runs once, after the last epoch: training that stops
    /// early when validation turns perfect does a dataset-dependent
    /// amount of work, which would make campaign times depend on the seed.
    pub fn train(&self, seed: u64) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            hidden: self.hidden,
            eval_every: self.epochs,
            patience: 0,
            saint: SaintConfig {
                roots: self.roots,
                walk_length: 2,
                estimation_rounds: 3,
                seed: gnnunlock_telemetry::derived_id(seed, "saint"),
            },
            seed: gnnunlock_telemetry::derived_id(seed, "train"),
            ..TrainConfig::default()
        }
    }
}

/// Datasets a run cycles through. The work of one campaign depends on
/// its dataset (training stops early once validation is perfect), so a
/// run averages over several, derived from the workload seed.
pub const SUB_SEEDS: usize = 8;

/// The seed of sub-dataset `j` of workload seed `seed` (0 = the seed itself).
pub fn sub_seed(seed: u64, j: usize) -> u64 {
    if j == 0 {
        seed
    } else {
        gnnunlock_telemetry::derived_id(seed, &format!("sub-seed-{j}"))
    }
}

/// Whether a measuring loop started at `start` goes on: until the run's
/// seconds are up and, past that (up to three times as long), until every
/// `(samples, q)` has ten samples beyond its tail quantile `q`.
pub fn keep_going(args: &Args, start: std::time::Instant, tails: &[(&Vec<f64>, f64)]) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    if elapsed < args.seconds {
        return true;
    }
    let short = tails
        .iter()
        .any(|(samples, q)| samples.len() < report::needed_for(*q));
    !args.trace && short && elapsed < 3.0 * args.seconds
}

/// A daemon child `run.py` started.
pub struct DaemonRef {
    pub addr: String,
    pub pid: u32,
    pub root: PathBuf,
    /// Where the daemon writes its store spans (traced daemons only).
    pub spans: Option<PathBuf>,
}

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub t0: f64,
    pub work: PathBuf,
    pub setup_only: bool,
    pub tiny: bool,
    pub daemons: Vec<DaemonRef>,
    pub root: PathBuf,
    pub spans: Option<PathBuf>,
    pub suffix: String,
    trace_out: Option<PathBuf>,
}

fn unix_now() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64())
}

impl Args {
    /// Where a traced run writes its Chrome trace (`--trace-out`).
    pub fn trace_out(&self) -> PathBuf {
        self.trace_out
            .clone()
            .unwrap_or_else(|| self.work.join("trace.json"))
    }

    /// Seconds since `run.py` started this workload (`--t0`).
    pub fn elapsed_since_t0(&self) -> f64 {
        unix_now() - self.t0
    }

    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
            t0: unix_now(),
            work: PathBuf::from(".perfbench-work"),
            setup_only: false,
            tiny: false,
            daemons: Vec::new(),
            root: PathBuf::new(),
            spans: None,
            suffix: String::new(),
            trace_out: None,
        };
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            let num = |v: String| v.parse::<f64>().map_err(|_| format!("{flag}: bad number"));
            match flag.as_str() {
                "--workload" => a.workload = value()?,
                "--seed" => a.seed = value()?.parse().map_err(|_| "--seed: bad integer")?,
                "--seconds" => a.seconds = num(value()?)?,
                "--trace" => a.trace = value()? == "1",
                "--t0" => a.t0 = num(value()?)?,
                "--work" => a.work = value()?.into(),
                "--setup-only" => a.setup_only = true,
                "--tiny" => a.tiny = true,
                "--root" => a.root = value()?.into(),
                "--spans" => a.spans = Some(value()?.into()),
                "--suffix" => a.suffix = value()?,
                "--trace-out" => a.trace_out = Some(value()?.into()),
                "--daemon" => {
                    let v = value()?;
                    let parts: Vec<&str> = v.split(',').collect();
                    if parts.len() < 3 {
                        return Err("--daemon needs ADDR,PID,ROOT[,SPANS]".into());
                    }
                    a.daemons.push(DaemonRef {
                        addr: parts[0].to_string(),
                        pid: parts[1].parse().map_err(|_| "--daemon: bad pid")?,
                        root: parts[2].into(),
                        spans: parts.get(3).map(PathBuf::from),
                    });
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok(a)
    }
}

fn run(args: &Args) -> Result<(Metrics, report::Ledger), String> {
    std::fs::create_dir_all(&args.work).map_err(|e| e.to_string())?;
    match args.workload.as_str() {
        "daemon-service" if args.daemons.is_empty() => Err("daemon-service needs --daemon".into()),
        "daemon-service" => daemon::run(args),
        _ => campaign::run(args, &Shape::new(args.tiny)),
    }
}

fn neural(args: &Args) -> Result<Metrics, String> {
    let (ds, train) = if args.workload == "daemon-service" {
        let sub: gnnunlock_core::Submission =
            daemon::submission_json("neural", args.seed, daemon::epochs(args.tiny)).parse()?;
        (sub.dataset, sub.attack.train)
    } else {
        campaign::inputs(&args.workload, args.seed, &Shape::new(args.tiny))
            .ok_or_else(|| format!("unknown workload '{}'", args.workload))?
    };
    let mut m = Metrics::default();
    probe::neural_probe(&ds, &train, &args.suffix, &mut m);
    Ok(m)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "run" => run(&args).map(|(m, ledger)| {
            let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
            let calibration = if args.setup_only {
                0.0
            } else {
                probe::reference_loop_ms()
            };
            Json::obj(vec![
                ("metrics", m.to_json()),
                ("attempted", Json::Num(ledger.attempted as f64)),
                (
                    "failures",
                    Json::Arr(ledger.failures.into_iter().map(Json::Str).collect()),
                ),
                ("reference", Json::Str(ledger.reference)),
                ("available_parallelism", Json::Num(parallelism as f64)),
                ("reference_loop_ms", Json::Num(calibration)),
            ])
        }),
        "neural" => neural(&args).map(|m| Json::obj(vec![("metrics", m.to_json())])),
        "daemon" => daemon::host(&args.root, args.spans.as_deref()).map(|()| Json::obj(vec![])),
        _ => Err("usage: perfbench run|daemon|neural [flags]".into()),
    };
    match result {
        Ok(doc) => {
            println!("{}", doc.render_compact());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
