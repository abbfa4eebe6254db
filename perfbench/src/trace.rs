//! Span recording and the three layer decorators of the traced run.
//!
//! Every span goes into one in-memory sink and is written out once, when
//! the run ends, as a Chrome trace (`gnnunlock_telemetry::chrome_trace_json`).
//! The campaign in flight is the parent of every stage, codec and store
//! span recorded while it runs: the benchmark drives one campaign at a
//! time, so a single "current campaign" id is enough to link them.
//!
//! The decorators wrap the program's public types without changing what
//! they compute:
//! - [`TracedRunner`] wraps `AttackCampaignRunner` and times each stage body;
//! - [`TracedCodec`] wraps `PipelineCodec` and times encode / decode;
//! - [`TracedBackend`] wraps a `StoreBackend` (`LocalDirBackend`) and times
//!   publish / load / refresh.

use crate::report::Metrics;
use gnnunlock_engine::{
    CampaignRunner, FileMeta, JobCtx, JobKind, JobOutput, JobValue, Json, StageJob, StoreBackend,
    ValueCodec,
};
use gnnunlock_telemetry::{derived_id, process_epoch, thread_index, SpanRecord};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime};

static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
static CAMPAIGN: AtomicU64 = AtomicU64::new(0);
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Make `id` the parent of every span recorded until the next call.
pub fn set_campaign(id: u64) {
    CAMPAIGN.store(id, Ordering::Relaxed);
}

/// The id of the campaign in flight (0 = none).
pub fn campaign() -> u64 {
    CAMPAIGN.load(Ordering::Relaxed)
}

/// Record one span. `tag` makes the id unique among the parent's children.
pub fn record(name: &str, cat: &str, parent: u64, tag: &str, start: Instant, end: Instant) -> u64 {
    let id = derived_id(parent, tag);
    record_id(name, cat, id, parent, start, end);
    id
}

/// Record one span under an explicit id.
pub fn record_id(name: &str, cat: &str, id: u64, parent: u64, start: Instant, end: Instant) {
    let epoch = process_epoch();
    let span = SpanRecord {
        name: name.to_string(),
        cat: cat.to_string(),
        id,
        parent,
        start_us: start.saturating_duration_since(epoch).as_micros() as u64,
        dur_us: end.saturating_duration_since(start).as_micros() as u64,
        tid: thread_index(),
    };
    SPANS.lock().expect("span sink poisoned").push(span);
}

/// Record a child span of the current campaign, numbered so repeated
/// operations on one key keep distinct ids.
fn record_child(name: &str, cat: &str, start: Instant) {
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let parent = campaign();
    record(
        name,
        cat,
        parent,
        &format!("{name}#{seq}"),
        start,
        Instant::now(),
    );
}

/// Take every span recorded so far, in start order.
pub fn take_spans() -> Vec<SpanRecord> {
    let mut spans = std::mem::take(&mut *SPANS.lock().expect("span sink poisoned"));
    spans.sort_by_key(|s| (s.start_us, s.id));
    spans
}

/// Stage decorator: times each stage body of the wrapped runner.
pub struct TracedRunner<R> {
    inner: R,
}

impl<R: CampaignRunner> TracedRunner<R> {
    /// Wrap `inner`.
    pub fn new(inner: R) -> Self {
        TracedRunner { inner }
    }
}

impl<R: CampaignRunner> CampaignRunner for TracedRunner<R> {
    fn config_salt(&self) -> u64 {
        self.inner.config_salt()
    }

    fn stage_salt(&self, kind: JobKind) -> u64 {
        self.inner.stage_salt(kind)
    }

    fn codec(&self) -> Option<Arc<dyn ValueCodec>> {
        self.inner
            .codec()
            .map(|c| Arc::new(TracedCodec::new(c)) as Arc<dyn ValueCodec>)
    }

    fn run(&self, job: &StageJob, ctx: &JobCtx<'_>) -> JobOutput {
        let start = Instant::now();
        let out = self.inner.run(job, ctx);
        let label = job.label();
        record(
            &label,
            job.kind.tag(),
            campaign(),
            &label,
            start,
            Instant::now(),
        );
        out
    }
}

/// Codec decorator: times encode and decode and counts their bytes.
pub struct TracedCodec {
    inner: Arc<dyn ValueCodec>,
}

/// Bytes through every [`TracedCodec`] so far: `(encoded, decoded)`.
static CODEC_BYTES: [AtomicU64; 2] = [AtomicU64::new(0), AtomicU64::new(0)];

/// Bytes encoded and decoded since the previous call.
pub fn take_codec_bytes() -> (u64, u64) {
    (
        CODEC_BYTES[0].swap(0, Ordering::Relaxed),
        CODEC_BYTES[1].swap(0, Ordering::Relaxed),
    )
}

impl TracedCodec {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn ValueCodec>) -> Self {
        TracedCodec { inner }
    }
}

impl ValueCodec for TracedCodec {
    fn encode(&self, kind: JobKind, value: &JobValue) -> Option<Vec<u8>> {
        let start = Instant::now();
        let out = self.inner.encode(kind, value);
        record_child(&format!("encode/{}", kind.tag()), "codec", start);
        let n = out.as_ref().map_or(0, Vec::len) as u64;
        CODEC_BYTES[0].fetch_add(n, Ordering::Relaxed);
        out
    }

    fn decode(&self, kind: JobKind, bytes: &[u8]) -> Option<JobValue> {
        let start = Instant::now();
        let out = self.inner.decode(kind, bytes);
        record_child(&format!("decode/{}", kind.tag()), "codec", start);
        CODEC_BYTES[1].fetch_add(bytes.len() as u64, Ordering::Relaxed);
        out
    }
}

/// Store decorator: times publish, load and refresh; everything else
/// passes straight through.
#[derive(Debug)]
pub struct TracedBackend {
    inner: Arc<dyn StoreBackend>,
}

impl TracedBackend {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn StoreBackend>) -> Self {
        TracedBackend { inner }
    }
}

/// The parent span of a store operation: the campaign in flight, or —
/// inside the daemon, where no campaign is set — the campaign whose
/// directory (`campaigns/<16 hex id>/`) holds `path`.
fn store_parent(path: &Path) -> u64 {
    let current = campaign();
    if current != 0 {
        return current;
    }
    let mut parts = path.components().map(|c| c.as_os_str().to_string_lossy());
    while let Some(part) = parts.next() {
        if part == "campaigns" {
            if let Some(id) = parts.next() {
                return u64::from_str_radix(&id, 16).unwrap_or(0);
            }
        }
    }
    0
}

impl TracedBackend {
    fn timed<T>(&self, op: &str, path: &Path, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        record(
            op,
            "store",
            store_parent(path),
            &format!("{op}/{}#{seq}", path.display()),
            start,
            Instant::now(),
        );
        out
    }
}

impl StoreBackend for TracedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn ensure_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.ensure_dir(dir)
    }

    fn publish(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.timed("publish", path, || self.inner.publish(path, bytes))
    }

    fn claim(&self, path: &Path, content: &[u8]) -> io::Result<()> {
        self.inner.claim(path, content)
    }

    fn entomb(&self, path: &Path, tomb: &Path) -> io::Result<()> {
        self.inner.entomb(path, tomb)
    }

    fn load(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.timed("load", path, || self.inner.load(path))
    }

    fn contains(&self, path: &Path) -> bool {
        self.inner.contains(path)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn refresh(&self, path: &Path) -> io::Result<()> {
        self.timed("refresh", path, || self.inner.refresh(path))
    }

    fn mtime(&self, path: &Path) -> io::Result<SystemTime> {
        self.inner.mtime(path)
    }

    fn list(&self, dir: &Path, recursive: bool) -> io::Result<Vec<FileMeta>> {
        self.inner.list(dir, recursive)
    }

    fn backoff_wait(&self, pause: std::time::Duration) {
        self.inner.backoff_wait(pause)
    }

    fn degraded(&self) -> bool {
        self.inner.degraded()
    }
}

/// Spans read back from a Chrome trace document (the daemon's).
pub fn spans_from_doc(doc: &Json) -> Vec<SpanRecord> {
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        return Vec::new();
    };
    let hex = |ev: &Json, k: &str| {
        ev.get("args")
            .and_then(|a| a.get(k))
            .and_then(Json::as_str)
            .and_then(|v| u64::from_str_radix(v, 16).ok())
            .unwrap_or(0)
    };
    let num = |ev: &Json, k: &str| ev.get(k).and_then(Json::as_num).unwrap_or(0.0) as u64;
    let text = |ev: &Json, k: &str| ev.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    events
        .iter()
        .map(|ev| SpanRecord {
            name: text(ev, "name"),
            cat: text(ev, "cat"),
            id: hex(ev, "id"),
            parent: hex(ev, "parent"),
            start_us: num(ev, "ts"),
            dur_us: num(ev, "dur"),
            tid: num(ev, "tid"),
        })
        .collect()
}

/// Store-layer metrics from store spans: per-operation latency over every
/// span, and operation counts per campaign in `cold` (publishes) and
/// `warm` (loads).
pub fn store_metrics(spans: &[SpanRecord], cold: &[u64], warm: &[u64], m: &mut Metrics) {
    let store_us = |op: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|x| x.cat == "store" && x.name == op)
            .map(|x| x.dur_us as f64)
            .collect()
    };
    let publishes = store_us("publish");
    m.put_median("store.publish_us_p50", &publishes, "us");
    m.put_tail("store.publish_us_p90", &publishes, 0.9, "us");
    m.put_median("store.load_us_p50", &store_us("load"), "us");
    m.put_median("store.refresh_us_p50", &store_us("refresh"), "us");
    let ops_in = |ids: &[u64], op: &str| -> Vec<f64> {
        ids.iter()
            .map(|id| {
                spans
                    .iter()
                    .filter(|x| x.parent == *id && x.cat == "store" && x.name == op)
                    .count() as f64
            })
            .collect()
    };
    m.put_median("store.publishes", &ops_in(cold, "publish"), "count");
    m.put_median("store.loads", &ops_in(warm, "load"), "count");
}

/// One span as a Chrome trace document of its own, on one line.
fn span_line(span: &SpanRecord) -> String {
    gnnunlock_telemetry::chrome_trace_json(std::slice::from_ref(span))
}

/// Parse and validate one [`span_line`] with the repository's trace
/// checker, returning the span it holds.
///
/// Validation goes span by span because `gnnunlock_engine::Json::parse`
/// re-checks the UTF-8 of the whole remaining input for every character
/// of a string, so its cost grows with the square of the document: a
/// multi-megabyte trace would take minutes to parse in one piece.
fn check_span_line(line: &str) -> Result<SpanRecord, String> {
    let doc = Json::parse(line)?;
    gnnunlock_bench::perf::validate_trace_doc(&doc)?;
    spans_from_doc(&doc)
        .pop()
        .ok_or_else(|| "trace line holds no span".to_string())
}

/// Write `spans` as one Chrome trace to `path` and validate every span
/// with the repository's trace checker; returns the span count. A traced
/// run that recorded no span fails.
pub fn write_trace(path: &Path, spans: &[SpanRecord]) -> Result<usize, String> {
    if spans.is_empty() {
        return Err("the traced run recorded no spans".into());
    }
    std::fs::write(path, gnnunlock_telemetry::chrome_trace_json(spans))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    for span in spans {
        check_span_line(&span_line(span))?;
    }
    Ok(spans.len())
}

/// Write `spans` to `path`, one single-span Chrome trace per line (the
/// traced daemon's hand-off to the benchmark client).
pub fn write_span_lines(path: &Path, spans: &[SpanRecord]) -> std::io::Result<()> {
    let text: String = spans.iter().map(|s| span_line(s) + "\n").collect();
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// Read and validate the spans [`write_span_lines`] wrote.
pub fn read_span_lines(text: &str) -> Result<Vec<SpanRecord>, String> {
    text.lines().map(check_span_line).collect()
}
