//! Dataset generation (paper Section IV-A and Table III).
//!
//! Each benchmark is locked several times per key size with fresh random
//! keys; locked Verilog-flow instances are passed through the synthesis
//! simulator; every instance becomes a labelled [`CircuitGraph`].
//! Leave-one-benchmark-out splits reproduce the paper's evaluation
//! protocol ("GNNUnlock attacks each design independently by excluding
//! its corresponding graphs from training/validation").

use gnnunlock_engine::fingerprint;
use gnnunlock_gnn::{merge_graphs, netlist_to_graph, CircuitGraph, LabelScheme};
use gnnunlock_locking::{
    lock_antisat, lock_caslock, lock_sfll_hd, AntiSatConfig, CasLockConfig, LockedCircuit,
    SfllConfig,
};
use gnnunlock_netlist::generator::{iscas85_suite, itc99_suite, BenchmarkSpec};
use gnnunlock_netlist::{CellLibrary, Netlist};
use gnnunlock_synth::{synthesize, SynthesisConfig};

/// Which locking scheme a dataset uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetScheme {
    /// Anti-SAT (bench-format flow, 2 classes).
    AntiSat,
    /// CAS-Lock (bench-format flow, 2 classes; extension beyond the
    /// paper's evaluated schemes).
    CasLock,
    /// SFLL-HD_h (`h = 0` is TTLock; synthesized Verilog flow, 3 classes).
    SfllHd(u32),
}

impl DatasetScheme {
    /// GNN label scheme of this dataset.
    pub fn label_scheme(self) -> LabelScheme {
        match self {
            DatasetScheme::AntiSat | DatasetScheme::CasLock => LabelScheme::AntiSat,
            DatasetScheme::SfllHd(_) => LabelScheme::Sfll,
        }
    }

    /// Display name matching the paper's dataset naming.
    pub fn name(self) -> String {
        match self {
            DatasetScheme::AntiSat => "Anti-SAT".into(),
            DatasetScheme::CasLock => "CAS-Lock".into(),
            DatasetScheme::SfllHd(0) => "TTLock".into(),
            DatasetScheme::SfllHd(h) => format!("SFLL-HD{h}"),
        }
    }
}

/// Benchmark suite selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// c2670, c3540, c5315, c7552.
    Iscas85,
    /// b14_C…b22_C.
    Itc99,
}

impl Suite {
    /// The specs of the suite.
    pub fn specs(self) -> Vec<BenchmarkSpec> {
        match self {
            Suite::Iscas85 => iscas85_suite(),
            Suite::Itc99 => itc99_suite(),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Suite::Iscas85 => "ISCAS-85",
            Suite::Itc99 => "ITC-99",
        }
    }
}

/// Dataset generation parameters.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// Locking scheme (and `h` for SFLL).
    pub scheme: DatasetScheme,
    /// Benchmark suite.
    pub suite: Suite,
    /// Cell library (`Bench8` for Anti-SAT; `Lpe65`/`Nangate45` for
    /// SFLL/TTLock per the paper).
    pub library: CellLibrary,
    /// Key sizes to lock with (infeasible sizes for a benchmark are
    /// skipped, mirroring the paper's c3540/K=64 exclusion).
    pub key_sizes: Vec<usize>,
    /// Lock instances per `(benchmark, key size)` (paper: 2 for Anti-SAT,
    /// 3 for SFLL/TTLock).
    pub locks_per_config: usize,
    /// Benchmark scale factor (1.0 = paper-size circuits).
    pub scale: f64,
    /// Synthesis effort for the Verilog flow (ignored for `Bench8`).
    pub synth_effort: u8,
    /// Master seed.
    pub seed: u64,
}

impl DatasetConfig {
    /// A CAS-Lock dataset with the Anti-SAT shape (extension).
    pub fn caslock(suite: Suite, scale: f64) -> Self {
        DatasetConfig {
            scheme: DatasetScheme::CasLock,
            ..DatasetConfig::antisat(suite, scale)
        }
    }

    /// The paper's Anti-SAT dataset shape for a suite, at `scale`.
    pub fn antisat(suite: Suite, scale: f64) -> Self {
        let key_sizes = match suite {
            Suite::Iscas85 => vec![8, 16, 32, 64],
            Suite::Itc99 => vec![32, 64, 128],
        };
        DatasetConfig {
            scheme: DatasetScheme::AntiSat,
            suite,
            library: CellLibrary::Bench8,
            key_sizes,
            locks_per_config: 2,
            scale,
            synth_effort: 0,
            seed: 0x5eed,
        }
    }

    /// The paper's SFLL-HD_h / TTLock dataset shape for a suite at
    /// `scale`, using `library` (paper: `Lpe65`, plus `Nangate45` for the
    /// technology study).
    pub fn sfll(suite: Suite, h: u32, library: CellLibrary, scale: f64) -> Self {
        let key_sizes = match suite {
            Suite::Iscas85 => vec![8, 16, 32, 64],
            Suite::Itc99 => vec![32, 64, 128],
        };
        DatasetConfig {
            scheme: DatasetScheme::SfllHd(h),
            suite,
            library,
            key_sizes,
            locks_per_config: 3,
            scale,
            synth_effort: 2,
            seed: 0xf00d,
        }
    }

    /// Keep only key sizes ≤ `max` (used by scaled-down harness runs).
    pub fn clamp_keys(mut self, max: usize) -> Self {
        self.key_sizes.retain(|&k| k <= max);
        self
    }
}

/// One locked instance of a dataset.
#[derive(Debug, Clone)]
pub struct LockedInstance {
    /// Source benchmark name (e.g. `b14_C`).
    pub benchmark: String,
    /// Key size used.
    pub key_bits: usize,
    /// Which lock copy of `(benchmark, key_bits)` this is
    /// (`0..locks_per_config`; feasible copies only, so the sequence may
    /// have holes).
    pub copy: usize,
    /// The original (pre-locking) design.
    pub original: Netlist,
    /// The locked circuit (post-synthesis for Verilog flows), with ground
    /// truth.
    pub locked: LockedCircuit,
    /// The labelled graph of the locked netlist.
    pub graph: CircuitGraph,
}

/// A full dataset: all locked instances plus the generation config.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Generation parameters.
    pub config: DatasetConfig,
    /// All locked instances.
    pub instances: Vec<LockedInstance>,
}

/// Table III-style summary of a dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetSummary {
    /// Dataset display name.
    pub name: String,
    /// Suite name.
    pub benchmarks: String,
    /// Circuit format string (`Bench` / `Verilog netlist65nm` / …).
    pub format: String,
    /// Number of node classes.
    pub classes: usize,
    /// Feature length `|f̂|`.
    pub feature_len: usize,
    /// Total node count over all graphs.
    pub nodes: usize,
    /// Number of locked circuits.
    pub circuits: usize,
}

impl DatasetConfig {
    /// Deterministic lock seed of one `(benchmark, key size, copy)`
    /// instance — shared by [`Dataset::generate`] and the campaign
    /// engine so both produce identical circuits.
    pub(crate) fn instance_seed(&self, benchmark: &str, key_bits: usize, copy: usize) -> u64 {
        self.seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(
            fingerprint(benchmark.as_bytes()) ^ ((key_bits as u64) << 32) ^ copy as u64,
        )
    }

    /// Feasibility mirrors the paper's exclusions: SFLL needs K protected
    /// PIs, Anti-SAT needs K/2 taps.
    pub(crate) fn feasible(&self, n_pis: usize, key_bits: usize) -> bool {
        let needed = match self.scheme {
            DatasetScheme::AntiSat | DatasetScheme::CasLock => key_bits / 2,
            DatasetScheme::SfllHd(_) => key_bits,
        };
        n_pis >= needed
    }
}

/// Lock one instance (pre-synthesis). `None` when the scheme rejects the
/// configuration.
pub(crate) fn lock_instance(
    config: &DatasetConfig,
    benchmark: &str,
    original: &Netlist,
    key_bits: usize,
    copy: usize,
) -> Option<LockedCircuit> {
    if !config.feasible(original.primary_inputs().len(), key_bits) {
        return None;
    }
    let seed = config.instance_seed(benchmark, key_bits, copy);
    match config.scheme {
        DatasetScheme::AntiSat => lock_antisat(original, &AntiSatConfig::new(key_bits, seed)),
        DatasetScheme::CasLock => lock_caslock(original, &CasLockConfig::new(key_bits, seed)),
        DatasetScheme::SfllHd(h) => lock_sfll_hd(original, &SfllConfig::new(key_bits, h, seed)),
    }
    .ok()
}

/// The synthesis stage of one instance (Verilog flows; a no-op for
/// `Bench8`). `None` when synthesis rejects the netlist.
pub(crate) fn synth_locked(
    config: &DatasetConfig,
    benchmark: &str,
    mut locked: LockedCircuit,
    key_bits: usize,
    copy: usize,
) -> Option<LockedCircuit> {
    if config.library != CellLibrary::Bench8 {
        let seed = config.instance_seed(benchmark, key_bits, copy);
        let synth_cfg = SynthesisConfig {
            effort: config.synth_effort,
            seed: seed ^ 0xabcdef,
            ..SynthesisConfig::new(config.library)
        };
        match synthesize(&locked.netlist, &synth_cfg) {
            Ok(mapped) => locked.netlist = mapped,
            Err(_) => return None,
        }
    }
    Some(locked)
}

/// The feature-extraction stage: build the labelled graph of a
/// (post-synthesis) locked netlist and wrap up a [`LockedInstance`].
pub(crate) fn graph_instance(
    config: &DatasetConfig,
    benchmark: &str,
    original: &Netlist,
    locked: LockedCircuit,
    key_bits: usize,
    copy: usize,
) -> LockedInstance {
    let graph = netlist_to_graph(
        &locked.netlist,
        config.library,
        config.scheme.label_scheme(),
    );
    LockedInstance {
        benchmark: benchmark.to_string(),
        key_bits,
        copy,
        original: original.clone(),
        locked,
        graph,
    }
}

/// Synthesize (for Verilog flows), build the labelled graph, and wrap up
/// a [`LockedInstance`]. `None` when synthesis rejects the netlist.
pub(crate) fn finish_instance(
    config: &DatasetConfig,
    benchmark: &str,
    original: &Netlist,
    locked: LockedCircuit,
    key_bits: usize,
    copy: usize,
) -> Option<LockedInstance> {
    let locked = synth_locked(config, benchmark, locked, key_bits, copy)?;
    Some(graph_instance(
        config, benchmark, original, locked, key_bits, copy,
    ))
}

impl Dataset {
    /// Generate the dataset, fanning per-instance locking/synthesis work
    /// out on the engine's worker pool ([`gnnunlock_engine::run_ordered`]
    /// with [`gnnunlock_engine::default_workers`]).
    ///
    /// Results are collected in submission order, so the output is
    /// bit-identical to a single-threaded run for every worker count.
    pub fn generate(config: &DatasetConfig) -> Dataset {
        Dataset::generate_with(config, gnnunlock_engine::default_workers())
    }

    /// [`Dataset::generate`] with an explicit worker count (1 = inline).
    pub fn generate_with(config: &DatasetConfig, workers: usize) -> Dataset {
        // Originals are cheap and shared across instances: generate them
        // serially, then fan out the expensive lock + synth + graph work.
        let originals: Vec<(String, Netlist)> = config
            .suite
            .specs()
            .into_iter()
            .map(|spec| {
                let spec = spec.scaled(config.scale);
                (spec.name.clone(), spec.generate())
            })
            .collect();
        let mut tasks: Vec<Box<dyn FnOnce() -> Option<LockedInstance> + Send + '_>> = Vec::new();
        for (name, original) in &originals {
            for &k in &config.key_sizes {
                for copy in 0..config.locks_per_config {
                    tasks.push(Box::new(move || {
                        let locked = lock_instance(config, name, original, k, copy)?;
                        finish_instance(config, name, original, locked, k, copy)
                    }));
                }
            }
        }
        let instances = gnnunlock_engine::run_ordered(workers, tasks)
            .into_iter()
            .flatten()
            .collect();
        Dataset {
            config: config.clone(),
            instances,
        }
    }

    /// Benchmarks present, in suite order.
    pub fn benchmarks(&self) -> Vec<String> {
        let mut names = Vec::new();
        for inst in &self.instances {
            if !names.contains(&inst.benchmark) {
                names.push(inst.benchmark.clone());
            }
        }
        names
    }

    /// Instances of one benchmark.
    pub fn of_benchmark(&self, name: &str) -> Vec<&LockedInstance> {
        self.instances
            .iter()
            .filter(|i| i.benchmark == name)
            .collect()
    }

    /// Leave-one-out split: test on `test_benchmark`, validate on
    /// `val_benchmark`, train on everything else. Returns
    /// `(train_graph, val_graph, test_instances)`.
    ///
    /// # Panics
    ///
    /// Panics if either benchmark has no instances or the training set
    /// would be empty.
    pub fn leave_one_out(
        &self,
        test_benchmark: &str,
        val_benchmark: &str,
    ) -> (CircuitGraph, CircuitGraph, Vec<&LockedInstance>) {
        let test: Vec<&LockedInstance> = self.of_benchmark(test_benchmark);
        assert!(!test.is_empty(), "no instances of {test_benchmark}");
        let val: Vec<&CircuitGraph> = self
            .instances
            .iter()
            .filter(|i| i.benchmark == val_benchmark)
            .map(|i| &i.graph)
            .collect();
        assert!(!val.is_empty(), "no instances of {val_benchmark}");
        let train: Vec<&CircuitGraph> = self
            .instances
            .iter()
            .filter(|i| i.benchmark != test_benchmark && i.benchmark != val_benchmark)
            .map(|i| &i.graph)
            .collect();
        assert!(!train.is_empty(), "empty training set");
        let train_graph = merge_graphs(&train.into_iter().cloned().collect::<Vec<_>>());
        let val_graph = merge_graphs(&val.into_iter().cloned().collect::<Vec<_>>());
        (train_graph, val_graph, test)
    }

    /// Pick the paper-style validation benchmark for a test benchmark:
    /// the next benchmark in suite order (the paper uses b22_C when
    /// attacking b17_C).
    pub fn default_val_for(&self, test_benchmark: &str) -> String {
        let names = self.benchmarks();
        let pos = names.iter().position(|n| n == test_benchmark).unwrap_or(0);
        names[(pos + 1) % names.len()].clone()
    }

    /// Table III row.
    pub fn summary(&self) -> DatasetSummary {
        let format = match self.config.library {
            CellLibrary::Bench8 => "Bench".to_string(),
            CellLibrary::Lpe65 => "Verilog netlist 65nm".to_string(),
            CellLibrary::Nangate45 => "Verilog netlist 45nm".to_string(),
        };
        DatasetSummary {
            name: self.config.scheme.name(),
            benchmarks: self.config.suite.name().to_string(),
            format,
            classes: self.config.scheme.label_scheme().num_classes(),
            feature_len: self.config.library.feature_len(),
            nodes: self.instances.iter().map(|i| i.graph.num_nodes()).sum(),
            circuits: self.instances.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_antisat() -> Dataset {
        let cfg = DatasetConfig {
            key_sizes: vec![8, 16],
            locks_per_config: 1,
            scale: 0.02,
            ..DatasetConfig::antisat(Suite::Iscas85, 0.02)
        };
        Dataset::generate(&cfg)
    }

    #[test]
    fn antisat_dataset_shape() {
        let ds = tiny_antisat();
        // 4 benchmarks x 2 key sizes x 1 copy.
        assert_eq!(ds.instances.len(), 8);
        let s = ds.summary();
        assert_eq!(s.classes, 2);
        assert_eq!(s.feature_len, 13);
        assert_eq!(s.circuits, 8);
        assert!(s.nodes > 0);
    }

    #[test]
    fn leave_one_out_excludes_test_and_val() {
        let ds = tiny_antisat();
        let (train, val, test) = ds.leave_one_out("c7552", "c3540");
        assert_eq!(test.len(), 2);
        assert!(train.num_nodes() > 0);
        assert!(val.num_nodes() > 0);
        // Train contains neither test nor val benchmark circuits: check
        // node counts match the remaining two benchmarks.
        let expected: usize = ds
            .instances
            .iter()
            .filter(|i| i.benchmark != "c7552" && i.benchmark != "c3540")
            .map(|i| i.graph.num_nodes())
            .sum();
        assert_eq!(train.num_nodes(), expected);
    }

    #[test]
    fn infeasible_key_sizes_are_skipped() {
        // At tiny scale c3540 has ~16 PIs: SFLL with K=64 must be skipped.
        let cfg = DatasetConfig {
            key_sizes: vec![8, 64],
            locks_per_config: 1,
            scale: 0.02,
            synth_effort: 0,
            ..DatasetConfig::sfll(Suite::Iscas85, 0, CellLibrary::Lpe65, 0.02)
        };
        let ds = Dataset::generate(&cfg);
        assert!(ds
            .instances
            .iter()
            .all(|i| i.key_bits == 8 || i.key_bits == 64));
        let c3540_keys: Vec<usize> = ds
            .of_benchmark("c3540")
            .iter()
            .map(|i| i.key_bits)
            .collect();
        assert!(!c3540_keys.contains(&64), "c3540 should skip K=64");
        assert!(c3540_keys.contains(&8));
    }

    #[test]
    fn sfll_dataset_uses_65nm_features() {
        let cfg = DatasetConfig {
            key_sizes: vec![8],
            locks_per_config: 1,
            scale: 0.02,
            synth_effort: 1,
            ..DatasetConfig::sfll(Suite::Iscas85, 2, CellLibrary::Lpe65, 0.02)
        };
        let ds = Dataset::generate(&cfg);
        assert!(!ds.instances.is_empty());
        let s = ds.summary();
        assert_eq!(s.feature_len, 34);
        assert_eq!(s.classes, 3);
        // Instances carry perturb and restore labels.
        for inst in &ds.instances {
            let [_, pn, rn, _] = inst.locked.netlist.role_histogram();
            assert!(pn > 0 && rn > 0, "{} lost labels", inst.benchmark);
        }
    }

    #[test]
    fn caslock_dataset_generates_with_antisat_labels() {
        let cfg = DatasetConfig {
            key_sizes: vec![8],
            locks_per_config: 1,
            scale: 0.02,
            ..DatasetConfig::caslock(Suite::Iscas85, 0.02)
        };
        let ds = Dataset::generate(&cfg);
        assert_eq!(ds.instances.len(), 4);
        let s = ds.summary();
        assert_eq!(s.classes, 2);
        assert_eq!(s.feature_len, 13);
        for inst in &ds.instances {
            assert!(inst.locked.netlist.role_histogram()[3] > 0, "no AN labels");
        }
    }

    #[test]
    fn default_val_is_next_benchmark() {
        let ds = tiny_antisat();
        let names = ds.benchmarks();
        assert_eq!(ds.default_val_for(&names[0]), names[1]);
        assert_eq!(ds.default_val_for(names.last().unwrap()), names[0]);
    }
}
