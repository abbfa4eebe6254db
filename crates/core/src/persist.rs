//! On-disk serialization of pipeline artifacts.
//!
//! [`PipelineCodec`] is the [`ValueCodec`] GNNUnlock campaigns hand to
//! the engine's persistence layer. Every stage of the campaign DAG is
//! covered, so a warm process serves the whole pipeline — parsed
//! netlists, locked circuits, feature graphs, per-epoch training
//! checkpoints, classification and removal artifacts — straight from
//! the store:
//!
//! | job kind | concrete value | payload tag |
//! |---|---|---|
//! | `Parse` | `Option<Netlist>` | `netlist-v1` |
//! | `Lock` / `Synth` | `Option<LockedCircuit>` | `locked-v1` |
//! | `Featurize` | `Option<LockedInstance>` | `instance-v1` |
//! | `Dataset` | `Dataset` | `dataset-v1` |
//! | `TrainEpoch` | `Option<TrainCheckpoint>` | `ckpt-v1` |
//! | `Train` | `Option<(SageModel, TrainReport)>` | `train-v1` |
//! | `Classify` | `Option<ClassifyArtifact>` | `classify-v1` |
//! | `Remove` | `Option<RemovalArtifact>` | `remove-v1` |
//! | `Verify` | `Option<InstanceOutcome>` | `verify-v1` |
//! | `Aggregate` | `Vec<AttackOutcome>` | `aggregate-v1` |
//! | `Attack` (whole-benchmark jobs) | `AttackOutcome` | `attack-outcome-v1` |
//! | `Custom("summary")` | `DatasetSummary` | `summary-v1` |
//!
//! Every payload starts with a type tag, so one cache directory can be
//! shared by different pipelines routing different value types through
//! the same `JobKind`: `decode` dispatches on the tag and treats
//! anything unrecognized as a miss. Floats are serialized as raw bits,
//! so a decoded value is bit-exact — warm runs reproduce cold-run
//! reports byte for byte, and a training checkpoint restored from disk
//! continues the exact trajectory of the run that wrote it.
//!
//! Each stored type has one layout, a private `Persist` impl whose
//! `get` reads exactly what its `put` wrote; composite types are their
//! fields in a fixed order. `Option<T>` is a `bool` tag and then the
//! payload, `Vec<T>` a `usize` count and then the elements, and fixed
//! arrays and tuples are their elements with no count. A count read
//! from a payload never sizes an allocation on its own: every element
//! takes at least one byte, so a `Vec` reserves at most as many
//! elements as the payload has bytes left, and a corrupt count fails
//! at the first short read.

use crate::dataset::{
    Dataset, DatasetConfig, DatasetScheme, DatasetSummary, LockedInstance, Suite,
};
use crate::pipeline::{AttackOutcome, InstanceOutcome};
use gnnunlock_engine::{ByteReader, ByteWriter, JobKind, JobValue, ValueCodec};
use gnnunlock_gnn::{
    CircuitGraph, Csr, LabelScheme, ModelConfig, ModelOptimizer, SageModel, TrainCheckpoint,
    TrainReport,
};
use gnnunlock_locking::{Key, LockedCircuit, Scheme};
use gnnunlock_netlist::{
    CellLibrary, Driver, GateId, GateType, InputId, InputKind, Netlist, NetlistParts, NodeRole,
    ALL_GATE_TYPES,
};
use gnnunlock_neural::{AdamConfig, AdamState, Linear, Matrix, Metrics};
use std::sync::Arc;
use std::time::Duration;

/// A trained model for one leave-one-out target (`None` when the target
/// has no feasible instances or the split would be degenerate). This is
/// the campaign train stage's value type.
pub type TrainValue = Option<(SageModel, TrainReport)>;

/// The value type of the campaign's `train-epoch` checkpoint jobs
/// (`None` when the target is infeasible).
pub type CheckpointValue = Option<TrainCheckpoint>;

/// The classify stage's artifact: the (post-processed) classification
/// outcome plus the final predictions the removal stage consumes.
#[derive(Debug, Clone)]
pub struct ClassifyArtifact {
    /// Classification outcome (`removal_success` still `None`).
    pub outcome: InstanceOutcome,
    /// Final class predictions per node.
    pub preds: Vec<usize>,
}

/// The removal stage's artifact: the classification outcome carried
/// through plus the recovered design the verify stage checks.
#[derive(Debug, Clone)]
pub struct RemovalArtifact {
    /// Classification outcome (`removal_success` still `None`).
    pub outcome: InstanceOutcome,
    /// The design with the predicted protection logic removed.
    pub recovered: Netlist,
}

const TAG_TRAIN: &str = "train-v1";
const TAG_VERIFY: &str = "verify-v1";
const TAG_AGGREGATE: &str = "aggregate-v1";
const TAG_ATTACK_OUTCOME: &str = "attack-outcome-v1";
const TAG_SUMMARY: &str = "summary-v1";
const TAG_NETLIST: &str = "netlist-v1";
const TAG_LOCKED: &str = "locked-v1";
const TAG_INSTANCE: &str = "instance-v1";
const TAG_DATASET: &str = "dataset-v1";
const TAG_CKPT: &str = "ckpt-v1";
const TAG_CLASSIFY: &str = "classify-v1";
const TAG_REMOVE: &str = "remove-v1";

/// Serialization of GNNUnlock pipeline artifacts for the engine's
/// on-disk result store.
#[derive(Debug, Default, Clone, Copy)]
pub struct PipelineCodec;

impl ValueCodec for PipelineCodec {
    fn encode(&self, kind: JobKind, value: &JobValue) -> Option<Vec<u8>> {
        match kind {
            JobKind::Parse => encode_as::<Option<Netlist>>(TAG_NETLIST, value),
            JobKind::Lock | JobKind::Synth => encode_as::<Option<LockedCircuit>>(TAG_LOCKED, value),
            JobKind::Featurize => encode_as::<Option<LockedInstance>>(TAG_INSTANCE, value),
            JobKind::Dataset => encode_as::<Dataset>(TAG_DATASET, value),
            JobKind::TrainEpoch => encode_as::<CheckpointValue>(TAG_CKPT, value),
            JobKind::Classify => encode_as::<Option<ClassifyArtifact>>(TAG_CLASSIFY, value),
            JobKind::Remove => encode_as::<Option<RemovalArtifact>>(TAG_REMOVE, value),
            JobKind::Train => encode_as::<TrainValue>(TAG_TRAIN, value),
            JobKind::Verify => encode_as::<Option<InstanceOutcome>>(TAG_VERIFY, value),
            JobKind::Aggregate => encode_as::<Vec<AttackOutcome>>(TAG_AGGREGATE, value),
            // Whole-benchmark attack jobs (attack_targets) carry an
            // AttackOutcome; campaign per-instance artifacts hold an
            // Arc to the full dataset and are declined.
            JobKind::Attack => encode_as::<AttackOutcome>(TAG_ATTACK_OUTCOME, value),
            JobKind::Custom("summary") => encode_as::<DatasetSummary>(TAG_SUMMARY, value),
            _ => None,
        }
    }

    fn decode(&self, kind: JobKind, bytes: &[u8]) -> Option<JobValue> {
        let mut r = ByteReader::new(bytes);
        let tag = r.str()?;
        match (kind, tag.as_str()) {
            (JobKind::Parse, TAG_NETLIST) => decode_as::<Option<Netlist>>(r),
            (JobKind::Lock | JobKind::Synth, TAG_LOCKED) => decode_as::<Option<LockedCircuit>>(r),
            (JobKind::Featurize, TAG_INSTANCE) => decode_as::<Option<LockedInstance>>(r),
            (JobKind::Dataset, TAG_DATASET) => decode_as::<Dataset>(r),
            (JobKind::TrainEpoch, TAG_CKPT) => decode_as::<CheckpointValue>(r),
            (JobKind::Classify, TAG_CLASSIFY) => decode_as::<Option<ClassifyArtifact>>(r),
            (JobKind::Remove, TAG_REMOVE) => decode_as::<Option<RemovalArtifact>>(r),
            (JobKind::Train, TAG_TRAIN) => decode_as::<TrainValue>(r),
            (JobKind::Verify, TAG_VERIFY) => decode_as::<Option<InstanceOutcome>>(r),
            (JobKind::Aggregate, TAG_AGGREGATE) => decode_as::<Vec<AttackOutcome>>(r),
            (JobKind::Attack, TAG_ATTACK_OUTCOME) => decode_as::<AttackOutcome>(r),
            (JobKind::Custom("summary"), TAG_SUMMARY) => decode_as::<DatasetSummary>(r),
            _ => None,
        }
    }
}

/// The payload of `value` as a `T`, behind `tag`; `None` when `value`
/// is not a `T`.
fn encode_as<T: Persist + 'static>(tag: &str, value: &JobValue) -> Option<Vec<u8>> {
    let v = value.downcast_ref::<T>()?;
    let mut w = ByteWriter::new();
    w.str(tag);
    v.put(&mut w);
    Some(w.into_bytes())
}

/// A `T` read from the rest of the payload, which it must fill exactly.
fn decode_as<T: Persist + Send + Sync + 'static>(mut r: ByteReader<'_>) -> Option<JobValue> {
    let v = T::get(&mut r)?;
    r.is_exhausted().then(|| Arc::new(v) as JobValue)
}

/// One stored type's byte layout. `get` reads exactly what `put`
/// wrote, and returns `None` on a short or malformed payload.
trait Persist: Sized {
    fn put(&self, w: &mut ByteWriter);
    fn get(r: &mut ByteReader<'_>) -> Option<Self>;
}

// ---------------------------------------------------------------------
// Generic layouts
// ---------------------------------------------------------------------

/// Primitives through the `ByteWriter`/`ByteReader` method of the same
/// name.
macro_rules! persist_primitives {
    ($($ty:ty => $method:ident),+ $(,)?) => {$(
        impl Persist for $ty {
            fn put(&self, w: &mut ByteWriter) {
                w.$method(*self);
            }
            fn get(r: &mut ByteReader<'_>) -> Option<Self> {
                r.$method()
            }
        }
    )+};
}

persist_primitives!(
    u8 => u8, u32 => u32, u64 => u64, usize => usize, f32 => f32, f64 => f64, bool => bool,
);

impl Persist for String {
    fn put(&self, w: &mut ByteWriter) {
        w.str(self);
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        r.str()
    }
}

impl<T: Persist> Persist for Option<T> {
    fn put(&self, w: &mut ByteWriter) {
        w.bool(self.is_some());
        if let Some(x) = self {
            x.put(w);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        if r.bool()? {
            T::get(r).map(Some)
        } else {
            Some(None)
        }
    }
}

/// A `usize` count, then the elements.
fn put_seq<T: Persist>(w: &mut ByteWriter, xs: &[T]) {
    w.usize(xs.len());
    for x in xs {
        x.put(w);
    }
}

/// `n` elements. Every element takes at least one byte, so the reserve
/// never exceeds what the payload can hold, whatever `n` says.
fn get_n<T: Persist>(r: &mut ByteReader<'_>, n: usize) -> Option<Vec<T>> {
    let mut xs = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        xs.push(T::get(r)?);
    }
    Some(xs)
}

impl<T: Persist> Persist for Vec<T> {
    fn put(&self, w: &mut ByteWriter) {
        put_seq(w, self);
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        let n = r.usize()?;
        get_n(r, n)
    }
}

impl<T: Persist, const N: usize> Persist for [T; N] {
    fn put(&self, w: &mut ByteWriter) {
        for x in self {
            x.put(w);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        get_n(r, N)?.try_into().ok()
    }
}

macro_rules! persist_tuples {
    ($(($($t:ident $i:tt),+))+) => {$(
        impl<$($t: Persist),+> Persist for ($($t,)+) {
            fn put(&self, w: &mut ByteWriter) {
                $(self.$i.put(w);)+
            }
            fn get(r: &mut ByteReader<'_>) -> Option<Self> {
                Some(($($t::get(r)?,)+))
            }
        }
    )+};
}

persist_tuples! {
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3, E 4)
}

/// Structs stored as their fields, in the listed order.
macro_rules! persist_fields {
    ($($ty:ident { $($field:ident),+ })+) => {$(
        impl Persist for $ty {
            fn put(&self, w: &mut ByteWriter) {
                $(self.$field.put(w);)+
            }
            fn get(r: &mut ByteReader<'_>) -> Option<Self> {
                Some($ty { $($field: Persist::get(r)?),+ })
            }
        }
    )+};
}

/// Field-less enums stored as one `u8` code.
macro_rules! persist_codes {
    ($($ty:ident { $($variant:ident = $code:literal),+ })+) => {$(
        impl Persist for $ty {
            fn put(&self, w: &mut ByteWriter) {
                w.u8(match self {
                    $($ty::$variant => $code,)+
                });
            }
            fn get(r: &mut ByteReader<'_>) -> Option<Self> {
                Some(match r.u8()? {
                    $($code => $ty::$variant,)+
                    _ => return None,
                })
            }
        }
    )+};
}

// ---------------------------------------------------------------------
// Pipeline artifacts
// ---------------------------------------------------------------------

persist_codes! {
    InputKind { Primary = 0, Key = 1 }
    NodeRole { Design = 0, Perturb = 1, Restore = 2, AntiSat = 3 }
    CellLibrary { Bench8 = 0, Lpe65 = 1, Nangate45 = 2 }
    LabelScheme { AntiSat = 0, Sfll = 1 }
    Suite { Iscas85 = 0, Itc99 = 1 }
}

persist_fields! {
    LockedCircuit { netlist, scheme, key, protected_inputs, target }
    CircuitGraph { features, labels, adj, gate_ids, library, scheme, name }
    LockedInstance { benchmark, key_bits, copy, original, locked, graph }
    DatasetConfig { scheme, suite, library, key_sizes, locks_per_config, scale, synth_effort, seed }
    Dataset { config, instances }
    AdamConfig { lr, beta1, beta2, eps }
    Linear { weight, bias }
    ModelConfig { feature_len, hidden, classes, dropout, seed }
    TrainCheckpoint {
        model, opt, sampler_rng, inclusion, best, best_val, history, evals_since_best,
        epochs_run, done, elapsed_secs
    }
    TrainReport { best_val_accuracy, epochs_run, train_time, history }
    AttackOutcome { benchmark, instances, train_report }
    DatasetSummary { name, benchmarks, format, classes, feature_len, nodes, circuits }
    ClassifyArtifact { outcome, preds }
    RemovalArtifact { outcome, recovered }
}

impl Persist for GateType {
    fn put(&self, w: &mut ByteWriter) {
        let code = ALL_GATE_TYPES.iter().position(|t| t == self);
        w.u8(code.expect("every gate type is in ALL_GATE_TYPES") as u8);
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        ALL_GATE_TYPES.get(usize::from(r.u8()?)).copied()
    }
}

impl Persist for GateId {
    fn put(&self, w: &mut ByteWriter) {
        w.usize(self.index());
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        Some(GateId::from_index(r.usize()?))
    }
}

impl Persist for Driver {
    fn put(&self, w: &mut ByteWriter) {
        match *self {
            Driver::Input(id) => {
                w.u8(0);
                w.usize(id.index());
            }
            Driver::Gate(id) => {
                w.u8(1);
                id.put(w);
            }
            Driver::Const(v) => {
                w.u8(2);
                w.bool(v);
            }
            Driver::Undriven => w.u8(3),
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        Some(match r.u8()? {
            0 => Driver::Input(InputId::from_index(r.usize()?)),
            1 => Driver::Gate(Persist::get(r)?),
            2 => Driver::Const(r.bool()?),
            3 => Driver::Undriven,
            _ => return None,
        })
    }
}

impl Persist for Netlist {
    fn put(&self, w: &mut ByteWriter) {
        let parts = self.to_parts();
        parts.name.put(w);
        parts.nets.put(w);
        parts.inputs.put(w);
        parts.outputs.put(w);
        parts.gates.put(w);
        parts.const_nets.put(w);
        parts.fresh_counter.put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        Netlist::from_parts(NetlistParts {
            name: Persist::get(r)?,
            nets: Persist::get(r)?,
            inputs: Persist::get(r)?,
            outputs: Persist::get(r)?,
            gates: Persist::get(r)?,
            const_nets: Persist::get(r)?,
            fresh_counter: Persist::get(r)?,
        })
    }
}

impl Persist for Scheme {
    fn put(&self, w: &mut ByteWriter) {
        match *self {
            Scheme::AntiSat => w.u8(0),
            Scheme::TtLock => w.u8(1),
            Scheme::SfllHd(h) => {
                w.u8(2);
                w.u32(h);
            }
            Scheme::CasLock => w.u8(3),
            Scheme::Rll => w.u8(4),
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        Some(match r.u8()? {
            0 => Scheme::AntiSat,
            1 => Scheme::TtLock,
            2 => Scheme::SfllHd(r.u32()?),
            3 => Scheme::CasLock,
            4 => Scheme::Rll,
            _ => return None,
        })
    }
}

impl Persist for DatasetScheme {
    fn put(&self, w: &mut ByteWriter) {
        match *self {
            DatasetScheme::AntiSat => w.u8(0),
            DatasetScheme::CasLock => w.u8(1),
            DatasetScheme::SfllHd(h) => {
                w.u8(2);
                w.u32(h);
            }
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        Some(match r.u8()? {
            0 => DatasetScheme::AntiSat,
            1 => DatasetScheme::CasLock,
            2 => DatasetScheme::SfllHd(r.u32()?),
            _ => return None,
        })
    }
}

impl Persist for Key {
    fn put(&self, w: &mut ByteWriter) {
        put_seq(w, self.bits());
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        Some(Key::from_bits(Persist::get(r)?))
    }
}

impl Persist for Csr {
    fn put(&self, w: &mut ByteWriter) {
        let (offsets, targets) = self.parts();
        put_seq(w, offsets);
        put_seq(w, targets);
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        Csr::from_parts(Persist::get(r)?, Persist::get(r)?)
    }
}

/// Rows and columns, then the data with no count of its own.
impl Persist for Matrix {
    fn put(&self, w: &mut ByteWriter) {
        w.usize(self.rows());
        w.usize(self.cols());
        for x in self.data() {
            x.put(w);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        let rows = r.usize()?;
        let cols = r.usize()?;
        let data = get_n(r, rows.checked_mul(cols)?)?;
        Some(Matrix::from_vec(rows, cols, data))
    }
}

impl Persist for AdamState {
    fn put(&self, w: &mut ByteWriter) {
        let (m, v, t) = self.parts();
        put_seq(w, m);
        put_seq(w, v);
        t.put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        let (m, v, t): (Vec<f32>, Vec<f32>, u64) = Persist::get(r)?;
        // from_parts asserts equal lengths; a corrupt payload is a miss.
        (m.len() == v.len()).then(|| AdamState::from_parts(m, v, t))
    }
}

/// The hyperparameters, then the 8 Adam states with no count.
impl Persist for ModelOptimizer {
    fn put(&self, w: &mut ByteWriter) {
        self.config().put(w);
        for state in self.states() {
            state.put(w);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        Some(ModelOptimizer::from_states(
            Persist::get(r)?,
            Persist::get(r)?,
        ))
    }
}

impl Persist for SageModel {
    fn put(&self, w: &mut ByteWriter) {
        self.config.put(w);
        for layer in self.parts() {
            layer.put(w);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        let config: ModelConfig = Persist::get(r)?;
        let [encoder, layer1, layer2, head]: [Linear; 4] = Persist::get(r)?;
        // Shape-check before from_parts so a corrupt payload decodes to a
        // miss instead of panicking inside the assertion.
        let h = config.hidden;
        let shapes_ok = encoder.in_dim() == config.feature_len
            && encoder.out_dim() == h
            && layer1.in_dim() == 2 * h
            && layer1.out_dim() == h
            && layer2.in_dim() == 2 * h
            && layer2.out_dim() == h
            && head.in_dim() == h
            && head.out_dim() == config.classes;
        shapes_ok.then(|| SageModel::from_parts(config, encoder, layer1, layer2, head))
    }
}

/// Seconds as an `f64`.
impl Persist for Duration {
    fn put(&self, w: &mut ByteWriter) {
        w.f64(self.as_secs_f64());
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        // try_from_secs_f64 rejects NaN, infinities, negatives AND
        // over-range finite values — a malformed duration field must
        // decode to a miss, never panic.
        Duration::try_from_secs_f64(r.f64()?).ok()
    }
}

/// The class count `k`, then the `k x k` confusion counts row by row.
impl Persist for Metrics {
    fn put(&self, w: &mut ByteWriter) {
        let k = self.num_classes();
        w.usize(k);
        for l in 0..k {
            for p in 0..k {
                w.usize(self.count(l, p));
            }
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        let k = r.usize()?;
        // The label schemes have 2 or 3 classes; a k over 64 is a
        // corrupt payload, not a table to allocate.
        if k > 64 {
            return None;
        }
        let mut confusion = Vec::with_capacity(k);
        for _ in 0..k {
            confusion.push(get_n(r, k)?);
        }
        Some(Metrics::from_confusion(confusion))
    }
}

/// `removal_success` is one code (0 failed, 1 succeeded, 2 not yet
/// verified), not an `Option<bool>`.
impl Persist for InstanceOutcome {
    fn put(&self, w: &mut ByteWriter) {
        self.benchmark.put(w);
        self.key_bits.put(w);
        self.gnn.put(w);
        self.post.put(w);
        w.u8(match self.removal_success {
            Some(false) => 0,
            Some(true) => 1,
            None => 2,
        });
        self.misclassifications.put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        Some(InstanceOutcome {
            benchmark: Persist::get(r)?,
            key_bits: Persist::get(r)?,
            gnn: Persist::get(r)?,
            post: Persist::get(r)?,
            removal_success: match r.u8()? {
                0 => Some(false),
                1 => Some(true),
                2 => None,
                _ => return None,
            },
            misclassifications: Persist::get(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnunlock_neural::Metrics;

    fn sample_outcome() -> AttackOutcome {
        let gnn = Metrics::from_predictions(&[0, 1, 1, 2], &[0, 1, 2, 2], 3);
        let post = Metrics::from_predictions(&[0, 1, 2, 2], &[0, 1, 2, 2], 3);
        AttackOutcome {
            benchmark: "c7552".into(),
            instances: vec![InstanceOutcome {
                benchmark: "c7552".into(),
                key_bits: 16,
                gnn,
                post,
                removal_success: Some(true),
                misclassifications: vec!["1 DN as PN".into()],
            }],
            train_report: TrainReport {
                best_val_accuracy: 0.9875,
                epochs_run: 120,
                train_time: Duration::from_secs_f64(1.25),
                history: vec![(10, 0.5, 0.9), (20, 0.25, 0.9875)],
            },
        }
    }

    #[test]
    fn attack_outcome_round_trips() {
        let codec = PipelineCodec;
        let value: JobValue = Arc::new(sample_outcome());
        let bytes = codec.encode(JobKind::Attack, &value).expect("encodable");
        let back = codec.decode(JobKind::Attack, &bytes).expect("decodable");
        let back = back.downcast_ref::<AttackOutcome>().unwrap();
        let orig = sample_outcome();
        assert_eq!(back.benchmark, orig.benchmark);
        assert_eq!(back.instances.len(), 1);
        assert_eq!(back.instances[0].gnn, orig.instances[0].gnn);
        assert_eq!(back.instances[0].removal_success, Some(true));
        assert_eq!(back.train_report.history, orig.train_report.history);
        assert_eq!(back.train_report.train_time, orig.train_report.train_time);
    }

    #[test]
    fn trained_model_round_trips_bit_exact() {
        let codec = PipelineCodec;
        let model = SageModel::new(ModelConfig::new(13, 8, 3));
        let report = sample_outcome().train_report;
        let value: JobValue = Arc::new(Some((model.clone(), report)) as TrainValue);
        let bytes = codec.encode(JobKind::Train, &value).expect("encodable");
        let back = codec.decode(JobKind::Train, &bytes).expect("decodable");
        let back = back.downcast_ref::<TrainValue>().unwrap().as_ref().unwrap();
        for (a, b) in model.parts().iter().zip(back.0.parts()) {
            assert_eq!(a.weight.data(), b.weight.data());
            assert_eq!(a.bias, b.bias);
        }
        assert_eq!(back.0.config.seed, model.config.seed);
        // The infeasible-target case round-trips too.
        let none: JobValue = Arc::new(None as TrainValue);
        let bytes = codec.encode(JobKind::Train, &none).unwrap();
        let back = codec.decode(JobKind::Train, &bytes).unwrap();
        assert!(back.downcast_ref::<TrainValue>().unwrap().is_none());
    }

    fn tiny_instance() -> LockedInstance {
        use gnnunlock_locking::{lock_antisat, AntiSatConfig};
        use gnnunlock_netlist::generator::BenchmarkSpec;
        let original = BenchmarkSpec::named("c2670")
            .unwrap()
            .scaled(0.02)
            .generate();
        let locked = lock_antisat(&original, &AntiSatConfig::new(8, 7)).unwrap();
        let graph = gnnunlock_gnn::netlist_to_graph(
            &locked.netlist,
            CellLibrary::Bench8,
            LabelScheme::AntiSat,
        );
        LockedInstance {
            benchmark: "c2670".into(),
            key_bits: 8,
            copy: 0,
            original,
            locked,
            graph,
        }
    }

    #[test]
    fn stage_artifacts_round_trip_bit_exact() {
        let codec = PipelineCodec;
        let inst = tiny_instance();

        // Parse: the original netlist.
        let value: JobValue = Arc::new(Some(inst.original.clone()) as Option<Netlist>);
        let bytes = codec.encode(JobKind::Parse, &value).expect("encodable");
        let back = codec.decode(JobKind::Parse, &bytes).expect("decodable");
        let back_nl = back
            .downcast_ref::<Option<Netlist>>()
            .unwrap()
            .as_ref()
            .unwrap();
        assert_eq!(back_nl.to_parts(), inst.original.to_parts());

        // Lock: the locked circuit, key and ground truth included.
        let value: JobValue = Arc::new(Some(inst.locked.clone()) as Option<LockedCircuit>);
        let bytes = codec.encode(JobKind::Lock, &value).unwrap();
        let back = codec.decode(JobKind::Lock, &bytes).unwrap();
        let back_locked = back
            .downcast_ref::<Option<LockedCircuit>>()
            .unwrap()
            .as_ref()
            .unwrap();
        assert_eq!(back_locked.key, inst.locked.key);
        assert_eq!(back_locked.scheme, inst.locked.scheme);
        assert_eq!(
            back_locked.netlist.to_parts(),
            inst.locked.netlist.to_parts()
        );
        // The same payload decodes for the synth stage too.
        assert!(codec.decode(JobKind::Synth, &bytes).is_some());

        // Featurize: the full instance, features bit-exact.
        let value: JobValue = Arc::new(Some(inst.clone()) as Option<LockedInstance>);
        let bytes = codec.encode(JobKind::Featurize, &value).unwrap();
        let back = codec.decode(JobKind::Featurize, &bytes).unwrap();
        let back_inst = back
            .downcast_ref::<Option<LockedInstance>>()
            .unwrap()
            .as_ref()
            .unwrap();
        assert_eq!(back_inst.graph.features.data(), inst.graph.features.data());
        assert_eq!(back_inst.graph.labels, inst.graph.labels);
        assert_eq!(back_inst.graph.adj, inst.graph.adj);
        assert_eq!(back_inst.graph.gate_ids, inst.graph.gate_ids);

        // Dataset: config + instances.
        let ds = crate::Dataset {
            config: crate::DatasetConfig::antisat(crate::Suite::Iscas85, 0.02),
            instances: vec![inst.clone()],
        };
        let value: JobValue = Arc::new(ds.clone());
        let bytes = codec.encode(JobKind::Dataset, &value).unwrap();
        let back = codec.decode(JobKind::Dataset, &bytes).unwrap();
        let back_ds = back.downcast_ref::<crate::Dataset>().unwrap();
        assert_eq!(format!("{:?}", back_ds.config), format!("{:?}", ds.config));
        assert_eq!(back_ds.instances.len(), 1);

        // Classify / Remove artifacts.
        let outcome = sample_outcome().instances[0].clone();
        let value: JobValue = Arc::new(Some(ClassifyArtifact {
            outcome: outcome.clone(),
            preds: vec![0, 1, 1, 0],
        }));
        let bytes = codec.encode(JobKind::Classify, &value).unwrap();
        let back = codec.decode(JobKind::Classify, &bytes).unwrap();
        let back_cls = back
            .downcast_ref::<Option<ClassifyArtifact>>()
            .unwrap()
            .as_ref()
            .unwrap();
        assert_eq!(back_cls.preds, vec![0, 1, 1, 0]);
        assert_eq!(back_cls.outcome.gnn, outcome.gnn);

        let value: JobValue = Arc::new(Some(RemovalArtifact {
            outcome,
            recovered: inst.original.clone(),
        }));
        let bytes = codec.encode(JobKind::Remove, &value).unwrap();
        let back = codec.decode(JobKind::Remove, &bytes).unwrap();
        assert!(back
            .downcast_ref::<Option<RemovalArtifact>>()
            .unwrap()
            .is_some());

        // Infeasible (None) variants round-trip for every option stage.
        for kind in [JobKind::Parse, JobKind::Lock, JobKind::Featurize] {
            let bytes = match kind {
                JobKind::Parse => codec
                    .encode(kind, &(Arc::new(None::<Netlist>) as JobValue))
                    .unwrap(),
                JobKind::Lock => codec
                    .encode(kind, &(Arc::new(None::<LockedCircuit>) as JobValue))
                    .unwrap(),
                _ => codec
                    .encode(kind, &(Arc::new(None::<LockedInstance>) as JobValue))
                    .unwrap(),
            };
            assert!(codec.decode(kind, &bytes).is_some());
        }
    }

    #[test]
    fn training_checkpoint_round_trips_bit_exact() {
        use gnnunlock_gnn::{SaintConfig, TrainConfig, TrainState};
        let inst = tiny_instance();
        let train_g = inst.graph.clone();
        let val_g = inst.graph.clone();
        let cfg = TrainConfig {
            epochs: 12,
            hidden: 8,
            eval_every: 4,
            patience: 0,
            saint: SaintConfig {
                roots: 50,
                walk_length: 2,
                estimation_rounds: 2,
                seed: 3,
            },
            ..TrainConfig::default()
        };
        let mut state = TrainState::new(&train_g, &val_g, &cfg);
        for _ in 0..5 {
            state.step_epoch(&train_g, &val_g);
        }
        let ckpt = state.checkpoint();

        let codec = PipelineCodec;
        let value: JobValue = Arc::new(Some(ckpt.clone()) as CheckpointValue);
        let bytes = codec
            .encode(JobKind::TrainEpoch, &value)
            .expect("encodable");
        let back = codec
            .decode(JobKind::TrainEpoch, &bytes)
            .expect("decodable");
        let back_ckpt = back
            .downcast_ref::<CheckpointValue>()
            .unwrap()
            .as_ref()
            .unwrap();
        assert_eq!(back_ckpt.sampler_rng, ckpt.sampler_rng);
        assert_eq!(back_ckpt.inclusion, ckpt.inclusion);
        assert_eq!(back_ckpt.epochs_run, ckpt.epochs_run);
        assert_eq!(back_ckpt.history, ckpt.history);
        for (a, b) in back_ckpt.model.parts().iter().zip(ckpt.model.parts()) {
            assert_eq!(a.weight.data(), b.weight.data());
        }
        for (a, b) in back_ckpt.opt.states().iter().zip(ckpt.opt.states()) {
            assert_eq!(a.parts().0, b.parts().0);
            assert_eq!(a.parts().1, b.parts().1);
            assert_eq!(a.parts().2, b.parts().2);
        }

        // Continuing from the decoded checkpoint reproduces the exact
        // trajectory of continuing in-memory.
        let mut mem = TrainState::from_checkpoint(&train_g, &cfg, &ckpt);
        let mut disk = TrainState::from_checkpoint(&train_g, &cfg, back_ckpt);
        while !mem.step_epoch(&train_g, &val_g) {}
        while !disk.step_epoch(&train_g, &val_g) {}
        let (m1, r1) = mem.finish();
        let (m2, r2) = disk.finish();
        assert_eq!(r1.history, r2.history);
        for (a, b) in m1.parts().iter().zip(m2.parts()) {
            assert_eq!(a.weight.data(), b.weight.data());
        }
    }

    /// Pins the payload bytes of every tag, so a store written by an
    /// older build stays warm; each payload must also decode and
    /// re-encode to the same bytes.
    #[test]
    fn every_payload_tag_keeps_its_bytes() {
        use gnnunlock_engine::fingerprint;
        use gnnunlock_gnn::{SaintConfig, TrainConfig, TrainState};
        let inst = tiny_instance();
        let cfg = TrainConfig {
            epochs: 12,
            hidden: 8,
            eval_every: 2,
            saint: SaintConfig {
                roots: 50,
                walk_length: 2,
                estimation_rounds: 2,
                seed: 3,
            },
            ..TrainConfig::default()
        };
        let mut state = TrainState::new(&inst.graph, &inst.graph, &cfg);
        for _ in 0..5 {
            state.step_epoch(&inst.graph, &inst.graph);
        }
        let mut ckpt = state.checkpoint();
        ckpt.elapsed_secs = 0.75;
        let attack = sample_outcome();
        let verified = attack.instances[0].clone();
        let classified = InstanceOutcome {
            removal_success: None,
            ..verified.clone()
        };
        let mut failed = sample_outcome();
        failed.benchmark = "c5315".into();
        failed.instances[0].removal_success = Some(false);
        let mut config = DatasetConfig::antisat(Suite::Iscas85, 0.02);
        config.scheme = DatasetScheme::SfllHd(2);
        let summary = DatasetSummary {
            name: "ISCAS-85 Anti-SAT".into(),
            benchmarks: "ISCAS-85".into(),
            format: "Bench".into(),
            classes: 2,
            feature_len: 13,
            nodes: 1234,
            circuits: 8,
        };
        let cases: [(JobKind, JobValue, u64); 12] = [
            (
                JobKind::Parse,
                Arc::new(Some(inst.original.clone())),
                0x773068d23339ba81,
            ),
            (
                JobKind::Lock,
                Arc::new(Some(inst.locked.clone())),
                0x9a60df1e8a0a74fe,
            ),
            (
                JobKind::Featurize,
                Arc::new(Some(inst.clone())),
                0xa2e52f7d1176d586,
            ),
            (
                JobKind::Dataset,
                Arc::new(Dataset {
                    config,
                    instances: vec![inst.clone()],
                }),
                0x0b26d9c51a566c7f,
            ),
            (
                JobKind::TrainEpoch,
                Arc::new(Some(ckpt.clone())),
                0x0122bfcb48ca72f5,
            ),
            (
                JobKind::Train,
                Arc::new(Some((ckpt.model.clone(), attack.train_report.clone()))),
                0x2f65876ccd66e747,
            ),
            (
                JobKind::Classify,
                Arc::new(Some(ClassifyArtifact {
                    outcome: classified.clone(),
                    preds: inst.graph.labels.clone(),
                })),
                0x1fbc36a22faf0445,
            ),
            (
                JobKind::Remove,
                Arc::new(Some(RemovalArtifact {
                    outcome: classified,
                    recovered: inst.original.clone(),
                })),
                0xa60e6eb13e187b40,
            ),
            (
                JobKind::Verify,
                Arc::new(Some(verified)),
                0x7dd341f83e8fe470,
            ),
            (
                JobKind::Aggregate,
                Arc::new(vec![attack.clone(), failed]),
                0xcd26815b5b0a440e,
            ),
            (JobKind::Attack, Arc::new(attack), 0xe93e104267ff6f69),
            (
                JobKind::Custom("summary"),
                Arc::new(summary),
                0x6e416618827b8681,
            ),
        ];
        let codec = PipelineCodec;
        for (kind, value, digest) in cases {
            let bytes = codec.encode(kind, &value).expect("encodable");
            assert_eq!(fingerprint(&bytes), digest, "{kind:?} payload bytes");
            let back = codec.decode(kind, &bytes).expect("decodable");
            assert_eq!(
                codec.encode(kind, &back),
                Some(bytes),
                "{kind:?} round trip"
            );
        }
    }

    #[test]
    fn alien_payloads_decode_to_none() {
        let codec = PipelineCodec;
        // Wrong kind for the tag.
        let value: JobValue = Arc::new(sample_outcome());
        let bytes = codec.encode(JobKind::Attack, &value).unwrap();
        assert!(codec.decode(JobKind::Train, &bytes).is_none());
        // Truncated payload.
        assert!(codec
            .decode(JobKind::Attack, &bytes[..bytes.len() - 3])
            .is_none());
        // Trailing garbage.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(codec.decode(JobKind::Attack, &extended).is_none());
        // A valid tag, then a length prefix no payload can hold.
        let mut w = ByteWriter::new();
        w.str(TAG_AGGREGATE);
        w.u64(u64::MAX);
        assert!(codec.decode(JobKind::Aggregate, &w.into_bytes()).is_none());
        // Values the codec does not cover are declined on encode.
        let shard: JobValue = Arc::new(42u64);
        assert!(codec.encode(JobKind::Lock, &shard).is_none());
        assert!(codec.encode(JobKind::Attack, &shard).is_none());
    }
}
