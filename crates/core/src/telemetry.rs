//! Unified telemetry: a zero-dependency metric [`Registry`], log2-bucketed
//! [`Log2Histogram`]s, scoped [`Span`] timers, and two exporters (the
//! engine-stats JSON blocks and a Prometheus text format).
//!
//! Each of the ten stats blocks (`EngineStats`, `IngestStats`, …) declares
//! its metrics beside its struct with `declare_metrics!`, one row per
//! metric. A row names the field and gives the update op, unit and help
//! text; the JSON key and the Prometheus name follow from the field path.
//! The macro generates the block's `METRICS` slice and its
//! `register_into`, and [`CATALOG`] joins the blocks' slices in a fixed
//! order. A block renders its JSON by loading itself into a fresh
//! registry and writing the block with [`Registry::write_block_json`], so
//! the JSON layout and the Prometheus exposition come from the same rows.
//! `tests/metrics_docs.rs` checks `OBSERVABILITY.md` against [`CATALOG`].
//!
//! ## Determinism contract
//!
//! The repo-wide rule — *byte-identical results at any worker count* —
//! extends to telemetry:
//!
//! * Counters and histograms only ever record **deterministic quantities**
//!   (sample counts, frame sizes, job attempts), never wall-clock. Every
//!   merge is a commutative `u64` add over a deterministic multiset of
//!   observations, so the merged totals are identical at 1, 2, or 8
//!   workers.
//! * Wall-clock lives only in **gauges** (`*_secs`) and **spans**, which
//!   are structurally deterministic (same paths, same call counts) but
//!   carry non-deterministic durations.
//!
//! ## Example
//!
//! ```
//! use sms_core::telemetry::Registry;
//!
//! let reg = Registry::with_catalog();
//! reg.add("sms_engine_samples_in", 86_400);
//! reg.observe("sms_ingest_frame_bytes", 512);
//! {
//!     let _root = reg.span("encode_fleet");
//!     let _child = reg.span("train"); // nests: "encode_fleet/train"
//! }
//! let text = reg.render_prometheus();
//! assert!(text.contains("sms_engine_samples_in 86400"));
//! assert!(text.contains("span=\"encode_fleet/train\""));
//! ```

use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};
use std::thread::ThreadId;
use std::time::Instant;

use crate::json::JsonWriter;

/// What a metric measures and how it may be updated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic `u64` total (events, samples, bytes).
    Counter,
    /// Point-in-time `u64` level (worker counts, queue depths).
    Gauge,
    /// Point-in-time `f64` level (stage wall times, rates).
    GaugeF64,
    /// A [`Log2Histogram`] of `u64` observations.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword for this kind.
    pub fn prometheus_type(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge | MetricKind::GaugeF64 => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// The declaration of one metric: where it lives in the engine-stats JSON,
/// what it is called in Prometheus output, and what it measures.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Stats block the metric belongs to (`"engine"`, `"ingest"`,
    /// `"pool"`, …; see [`CATALOG`]).
    pub block: &'static str,
    /// Key within the block's JSON object. A dotted key (for example
    /// `"defects.non_finite"`) renders as a nested object.
    pub key: &'static str,
    /// Globally unique Prometheus metric name (`sms_<block>_<key>`).
    pub name: &'static str,
    /// How the metric is typed and updated.
    pub kind: MetricKind,
    /// Unit of the recorded value (`"samples"`, `"bytes"`, `"seconds"`…).
    pub unit: &'static str,
    /// One-line description, emitted as the Prometheus `# HELP` text.
    pub help: &'static str,
}

/// Declares the metrics of one stats struct and generates its `METRICS`
/// slice and its `register_into`. Rows are listed in JSON key order:
///
/// ```text
/// declare_metrics! {
///     QualityStats as quality {
///         add houses, "houses", "Every house of every batch the block counts.";
///         add defects.gaps, "defects", "Gap spans seen.";
///         set_f64 sanitize_secs, "seconds", "Wall time of the sanitization pre-pass.";
///     }
/// }
/// ```
///
/// A row reads `op key[.sub] [= expr], "unit", "help";`.
///
/// * `op` is the [`Registry`] method that loads the value, and it fixes
///   the [`MetricKind`]: `add` makes a counter, `set` and `set_max` a
///   gauge, `set_f64` an `f64` gauge and `merge_histogram` a histogram.
///   Integer values are widened with `as u64`, so `usize` fields work as
///   they are.
/// * The value is the field `self.key[.sub]`, or `expr(self)` for a
///   derived metric (`= Self::samples_per_sec`).
/// * The JSON key is `key[.sub]`, where a dotted key nests, and the
///   Prometheus name is `sms_<block>_<key>[_<sub>]`.
///
/// An optional `then { … }` group after the rows lists what
/// `register_into` loads next, in order: `register_into field;` for an
/// `Option` sub-block and `record_span field;` for a `Vec` of
/// [`SpanSnapshot`]s.
macro_rules! declare_metrics {
    (
        $ty:ident as $block:ident {
            $(
                $op:ident $key:ident $(.$sub:ident)? $(= $derive:expr)?, $unit:literal, $help:literal;
            )*
        }
        $( then { $( $then:ident $field:ident; )* } )?
    ) => {
        impl $ty {
            #[doc = concat!(
                "The `", stringify!($block), "` block's metrics in JSON key order: its part of ",
                "[`CATALOG`](crate::telemetry::CATALOG)."
            )]
            pub(crate) const METRICS: &'static [$crate::telemetry::MetricSpec] = &[$(
                $crate::telemetry::MetricSpec {
                    block: stringify!($block),
                    key: concat!(stringify!($key) $(, ".", stringify!($sub))?),
                    name: $crate::telemetry::declare_metrics!(@name $block $key $(.$sub)?),
                    kind: $crate::telemetry::declare_metrics!(@kind $op),
                    unit: $unit,
                    help: $help,
                },
            )*];

            #[doc = concat!(
                "Registers the `", stringify!($block), "` block's metrics (its part of ",
                "[`CATALOG`](crate::telemetry::CATALOG)) into `reg` and loads their current values."
            )]
            $(
                #[doc = concat!("Then loads", $(" `", stringify!($field), "`,",)* " in that order.")]
            )?
            pub fn register_into(&self, reg: &$crate::telemetry::Registry) {
                reg.register_block(stringify!($block));
                $(
                    $crate::telemetry::declare_metrics!(
                        @load reg,
                        $op,
                        $crate::telemetry::declare_metrics!(@name $block $key $(.$sub)?),
                        $crate::telemetry::declare_metrics!(@value self, $key $(.$sub)? $(= $derive)?)
                    );
                )*
                $($( $crate::telemetry::declare_metrics!(@then reg, $then, self.$field); )*)?
            }
        }
    };
    (@name $block:ident $key:ident $(.$sub:ident)?) => {
        concat!("sms_", stringify!($block), "_", stringify!($key) $(, "_", stringify!($sub))?)
    };
    (@kind add) => { $crate::telemetry::MetricKind::Counter };
    (@kind set) => { $crate::telemetry::MetricKind::Gauge };
    (@kind set_max) => { $crate::telemetry::MetricKind::Gauge };
    (@kind set_f64) => { $crate::telemetry::MetricKind::GaugeF64 };
    (@kind merge_histogram) => { $crate::telemetry::MetricKind::Histogram };
    (@value $this:expr, $key:ident $(.$sub:ident)?) => { $this.$key $(.$sub)? };
    (@value $this:expr, $key:ident $(.$sub:ident)? = $derive:expr) => { ($derive)($this) };
    (@load $reg:ident, merge_histogram, $name:expr, $value:expr) => {
        $reg.merge_histogram($name, &$value)
    };
    (@load $reg:ident, set_f64, $name:expr, $value:expr) => { $reg.set_f64($name, $value) };
    (@load $reg:ident, $op:ident, $name:expr, $value:expr) => { $reg.$op($name, $value as u64) };
    (@then $reg:ident, register_into, $field:expr) => {
        if let Some(block) = &$field {
            block.register_into($reg);
        }
    };
    (@then $reg:ident, record_span, $field:expr) => {
        for s in &$field {
            $reg.record_span(&s.path, s.calls, s.secs);
        }
    };
}
pub(crate) use declare_metrics;

/// The stats blocks' metric slices in catalog order: the order
/// [`Registry::with_catalog`] registers them, and so the order
/// [`render_metrics_json`] writes their blocks.
const BLOCKS: [&[MetricSpec]; 10] = [
    crate::engine::EngineStats::METRICS,
    crate::ingest::IngestStats::METRICS,
    crate::engine::EvalStats::METRICS,
    crate::pool::PoolStats::METRICS,
    crate::quality::QualityStats::METRICS,
    crate::gateway::GatewayStats::METRICS,
    crate::shard::ShardStats::METRICS,
    crate::segstore::StoreStats::METRICS,
    crate::durable::DurableStats::METRICS,
    crate::adaptive::AdaptiveStats::METRICS,
];

const CATALOG_LEN: usize = {
    let (mut len, mut b) = (0, 0);
    while b < BLOCKS.len() {
        len += BLOCKS[b].len();
        b += 1;
    }
    len
};

/// Every metric the crate can emit: the blocks' `METRICS` slices joined
/// in catalog order (engine, ingest, eval, pool, quality, gateway, shard,
/// store, durable, adaptive), each block in its JSON key order.
pub const CATALOG: &[MetricSpec] = &{
    let mut all = [BLOCKS[0][0]; CATALOG_LEN];
    let (mut i, mut b) = (0, 0);
    while b < BLOCKS.len() {
        let mut m = 0;
        while m < BLOCKS[b].len() {
            all[i] = BLOCKS[b][m];
            i += 1;
            m += 1;
        }
        b += 1;
    }
    all
};

/// Looks up a metric's [`CATALOG`] declaration by Prometheus name.
pub fn catalog_spec(name: &str) -> Option<&'static MetricSpec> {
    CATALOG.iter().find(|s| s.name == name)
}

/// Number of buckets in a [`Log2Histogram`].
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A fixed-layout histogram with power-of-two bucket boundaries, sized for
/// latencies in microseconds, frame sizes in bytes, and per-house counts.
///
/// Bucket `0` counts zero-valued observations; bucket `i` (for `i ≥ 1`)
/// counts values in `[2^(i-1), 2^i - 1]`; the last bucket absorbs
/// everything from `2^30` up. The layout is fixed so two histograms always
/// merge bucket-by-bucket, in any order, to the same result.
///
/// ```
/// use sms_core::telemetry::Log2Histogram;
///
/// let mut h = Log2Histogram::default();
/// h.observe(0);
/// h.observe(1);
/// h.observe(900); // 2^9 ≤ 900 < 2^10 → bucket 10
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.sum(), 901);
/// assert_eq!(Log2Histogram::bucket_index(900), 10);
/// assert_eq!(h.buckets()[10], 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Log2Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram { buckets: [0; HISTOGRAM_BUCKETS], count: 0, sum: 0 }
    }
}

impl Log2Histogram {
    /// An empty histogram (same as `default()`, usable in `const` context).
    pub const fn new() -> Self {
        Log2Histogram { buckets: [0; HISTOGRAM_BUCKETS], count: 0, sum: 0 }
    }

    /// The bucket `value` falls into: `0` for zero, otherwise
    /// `min(bit_length(value), 31)`.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// The largest value bucket `i` counts, or `None` for the unbounded
    /// last bucket (rendered as `+Inf` in Prometheus output).
    pub fn bucket_upper_edge(i: usize) -> Option<u64> {
        match i {
            0 => Some(0),
            _ if i < HISTOGRAM_BUCKETS - 1 => Some((1u64 << i) - 1),
            _ => None,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Adds every bucket of `other` into `self`. Merging is commutative
    /// and associative, so shard order cannot change the result.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Whether no observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The raw per-bucket counts.
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Writes `{"unit":…,"count":…,"sum":…,"buckets":[…]}` into `w`,
    /// trimming trailing empty buckets (the boundaries are fixed by the
    /// type, so the reader reconstructs them from the index alone).
    pub fn write_json(&self, w: &mut JsonWriter, unit: &str) {
        let used = HISTOGRAM_BUCKETS - self.buckets.iter().rev().take_while(|&&b| b == 0).count();
        w.begin_object();
        w.key("unit");
        w.string(unit);
        w.key("count");
        w.u64(self.count);
        w.key("sum");
        w.u64(self.sum);
        w.key("buckets");
        w.u64_array(&self.buckets[..used]);
        w.end_object();
    }
}

/// One metric's current value, typed per its [`MetricKind`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// `u64` total or level ([`MetricKind::Counter`] / [`MetricKind::Gauge`]).
    U64(u64),
    /// `f64` level ([`MetricKind::GaugeF64`]).
    F64(f64),
    /// Histogram state ([`MetricKind::Histogram`]), boxed to keep the
    /// common scalar variants pointer-sized.
    Histogram(Box<Log2Histogram>),
}

impl MetricValue {
    fn zero_for(kind: MetricKind) -> MetricValue {
        match kind {
            MetricKind::Counter | MetricKind::Gauge => MetricValue::U64(0),
            MetricKind::GaugeF64 => MetricValue::F64(0.0),
            MetricKind::Histogram => MetricValue::Histogram(Box::new(Log2Histogram::new())),
        }
    }
}

#[derive(Debug)]
struct Metric {
    spec: MetricSpec,
    value: MetricValue,
}

/// One span's accumulated state: full path, call count, wall seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSnapshot {
    /// `/`-joined path from the root span (for example
    /// `"encode_fleet/train"`).
    pub path: String,
    /// Completed activations of this exact path.
    pub calls: u64,
    /// Wall seconds accumulated over those activations.
    pub secs: f64,
}

#[derive(Debug, Default)]
struct Inner {
    metrics: Vec<Metric>,
    by_name: HashMap<&'static str, usize>,
    spans: Vec<SpanSnapshot>,
    by_path: HashMap<String, usize>,
    stacks: HashMap<ThreadId, Vec<usize>>,
}

impl Inner {
    fn register(&mut self, spec: MetricSpec) -> usize {
        if let Some(&i) = self.by_name.get(spec.name) {
            return i;
        }
        let i = self.metrics.len();
        self.metrics.push(Metric { spec, value: MetricValue::zero_for(spec.kind) });
        self.by_name.insert(spec.name, i);
        i
    }

    fn ensure(&mut self, name: &'static str, kind: MetricKind) -> usize {
        if let Some(&i) = self.by_name.get(name) {
            return i;
        }
        let spec = catalog_spec(name).copied().unwrap_or(MetricSpec {
            block: "adhoc",
            key: name,
            name,
            kind,
            unit: "",
            help: "ad-hoc metric (not in the catalog)",
        });
        self.register(spec)
    }

    fn span_node(&mut self, path: &str) -> usize {
        if let Some(&i) = self.by_path.get(path) {
            return i;
        }
        let i = self.spans.len();
        self.spans.push(SpanSnapshot { path: path.to_string(), calls: 0, secs: 0.0 });
        self.by_path.insert(path.to_string(), i);
        i
    }
}

/// The central instrument store: typed metrics in registration order plus
/// the span tree. Cheap to create, internally synchronized (`&self`
/// everywhere), and safe to share across worker threads.
///
/// ```
/// use sms_core::telemetry::{Registry, MetricKind};
///
/// let reg = Registry::new();
/// reg.add("sms_pool_jobs", 3);
/// reg.set("sms_pool_workers", 2);
/// reg.observe("sms_pool_job_attempts", 1);
/// let snap = reg.snapshot();
/// assert_eq!(snap.len(), 3);
/// assert_eq!(snap[0].0.kind, MetricKind::Counter);
/// ```
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry; metrics register lazily on first touch.
    pub fn new() -> Self {
        Registry::default()
    }

    /// A registry with every [`CATALOG`] metric pre-registered at zero, so
    /// exports always expose the complete metric surface.
    pub fn with_catalog() -> Self {
        let reg = Registry::new();
        {
            let mut inner = reg.lock();
            for spec in CATALOG {
                inner.register(*spec);
            }
        }
        reg
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned lock only means a panic unwound through a caller —
        // the counters themselves are always in a consistent state.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers `spec` (idempotent; the first registration wins).
    pub fn register(&self, spec: MetricSpec) {
        self.lock().register(spec);
    }

    /// Registers every catalog metric of `block`, in catalog order.
    pub fn register_block(&self, block: &str) {
        let mut inner = self.lock();
        for spec in CATALOG.iter().filter(|s| s.block == block) {
            inner.register(*spec);
        }
    }

    /// Adds `delta` to a counter (registers it on first touch).
    pub fn add(&self, name: &'static str, delta: u64) {
        let mut inner = self.lock();
        let i = inner.ensure(name, MetricKind::Counter);
        if let MetricValue::U64(v) = &mut inner.metrics[i].value {
            *v += delta;
        }
    }

    /// Sets a `u64` gauge (registers it on first touch).
    pub fn set(&self, name: &'static str, value: u64) {
        let mut inner = self.lock();
        let i = inner.ensure(name, MetricKind::Gauge);
        if let MetricValue::U64(v) = &mut inner.metrics[i].value {
            *v = value;
        }
    }

    /// Sets an `f64` gauge (registers it on first touch).
    pub fn set_f64(&self, name: &'static str, value: f64) {
        let mut inner = self.lock();
        let i = inner.ensure(name, MetricKind::GaugeF64);
        if let MetricValue::F64(v) = &mut inner.metrics[i].value {
            *v = value;
        }
    }

    /// Raises a `u64` gauge to `value` if it is below it.
    pub fn set_max(&self, name: &'static str, value: u64) {
        let mut inner = self.lock();
        let i = inner.ensure(name, MetricKind::Gauge);
        if let MetricValue::U64(v) = &mut inner.metrics[i].value {
            *v = (*v).max(value);
        }
    }

    /// Records one histogram observation (registers it on first touch).
    pub fn observe(&self, name: &'static str, value: u64) {
        let mut inner = self.lock();
        let i = inner.ensure(name, MetricKind::Histogram);
        if let MetricValue::Histogram(h) = &mut inner.metrics[i].value {
            h.observe(value);
        }
    }

    /// Merges a whole histogram into the named metric.
    pub fn merge_histogram(&self, name: &'static str, hist: &Log2Histogram) {
        let mut inner = self.lock();
        let i = inner.ensure(name, MetricKind::Histogram);
        if let MetricValue::Histogram(h) = &mut inner.metrics[i].value {
            h.merge(hist);
        }
    }

    /// Reads one metric's current value, if registered.
    pub fn get(&self, name: &str) -> Option<MetricValue> {
        let inner = self.lock();
        inner.by_name.get(name).map(|&i| inner.metrics[i].value.clone())
    }

    /// Every registered metric `(spec, value)`, in registration order.
    pub fn snapshot(&self) -> Vec<(MetricSpec, MetricValue)> {
        self.lock().metrics.iter().map(|m| (m.spec, m.value.clone())).collect()
    }

    /// Every block with a registered metric, in registration order.
    pub(crate) fn blocks(&self) -> Vec<&'static str> {
        let mut blocks = Vec::new();
        for m in &self.lock().metrics {
            if !blocks.contains(&m.spec.block) {
                blocks.push(m.spec.block);
            }
        }
        blocks
    }

    // --- spans ------------------------------------------------------------

    /// Opens a scoped timer. The span's path nests under whatever span is
    /// currently open **on this thread**; dropping the guard records one
    /// call plus the elapsed wall time and pops the span — including
    /// during a panic unwind, so a panicking job cannot leave the stack
    /// corrupted for the jobs that follow it on the same worker
    /// (see the supervised [`crate::pool`]).
    ///
    /// ```
    /// use sms_core::telemetry::Registry;
    ///
    /// let reg = Registry::new();
    /// {
    ///     let _a = reg.span("encode");
    ///     let _b = reg.span("train");
    /// }
    /// let paths: Vec<String> =
    ///     reg.span_snapshots().into_iter().map(|s| s.path).collect();
    /// assert_eq!(paths, ["encode", "encode/train"]);
    /// ```
    pub fn span(&self, name: &str) -> Span<'_> {
        let thread = std::thread::current().id();
        let mut inner = self.lock();
        let top = {
            let stack = inner.stacks.entry(thread).or_default();
            (stack.len(), stack.last().copied())
        };
        let (saved_depth, parent_node) = top;
        let parent = parent_node.map(|i| inner.spans[i].path.clone());
        let path = match parent {
            Some(p) => format!("{p}/{name}"),
            None => name.to_string(),
        };
        let node = inner.span_node(&path);
        inner.stacks.entry(thread).or_default().push(node);
        Span { registry: self, thread, node, saved_depth, start: Instant::now() }
    }

    /// Merges an already-finished span (for example one captured inside
    /// [`crate::engine::EngineStats`]) into this registry's span tree.
    pub fn record_span(&self, path: &str, calls: u64, secs: f64) {
        let mut inner = self.lock();
        let i = inner.span_node(path);
        inner.spans[i].calls += calls;
        inner.spans[i].secs += secs;
    }

    /// Every span recorded so far, sorted by path for deterministic
    /// output.
    pub fn span_snapshots(&self) -> Vec<SpanSnapshot> {
        let mut spans = self.lock().spans.clone();
        spans.sort_by(|a, b| a.path.cmp(&b.path));
        spans
    }

    // --- exporters --------------------------------------------------------

    /// Writes the named block's scalar metrics as `"key":value` fields
    /// into an **already open** JSON object, in catalog order, nesting
    /// dotted keys. Histograms are skipped here (they render through
    /// [`write_histograms_json`](Self::write_histograms_json)), which is
    /// exactly what keeps the migrated blocks' JSON byte-identical to
    /// their hand-rolled predecessors.
    pub fn write_block_fields(&self, w: &mut JsonWriter, block: &str) {
        let inner = self.lock();
        let mut open_group: Option<&str> = None;
        for m in inner.metrics.iter().filter(|m| m.spec.block == block) {
            if matches!(m.spec.kind, MetricKind::Histogram) {
                continue;
            }
            match m.spec.key.split_once('.') {
                Some((group, leaf)) => {
                    if open_group != Some(group) {
                        if open_group.is_some() {
                            w.end_object();
                        }
                        w.key(group);
                        w.begin_object();
                        open_group = Some(group);
                    }
                    w.key(leaf);
                    write_value(w, &m.value);
                }
                None => {
                    if open_group.take().is_some() {
                        w.end_object();
                    }
                    w.key(m.spec.key);
                    write_value(w, &m.value);
                }
            }
        }
        if open_group.is_some() {
            w.end_object();
        }
    }

    /// Writes the named block as one complete JSON object.
    pub fn write_block_json(&self, w: &mut JsonWriter, block: &str) {
        w.begin_object();
        self.write_block_fields(w, block);
        w.end_object();
    }

    /// Writes every registered histogram as one JSON object keyed by
    /// Prometheus name, in registration order.
    pub fn write_histograms_json(&self, w: &mut JsonWriter) {
        let inner = self.lock();
        w.begin_object();
        for m in &inner.metrics {
            if let MetricValue::Histogram(h) = &m.value {
                w.key(m.spec.name);
                h.write_json(w, m.spec.unit);
            }
        }
        w.end_object();
    }

    /// Writes the span tree as a JSON array of
    /// `{"path":…,"calls":…,"secs":…}` objects, sorted by path.
    pub fn write_spans_json(&self, w: &mut JsonWriter) {
        w.begin_array();
        for s in self.span_snapshots() {
            w.begin_object();
            w.key("path");
            w.string(&s.path);
            w.key("calls");
            w.u64(s.calls);
            w.key("secs");
            w.f64(s.secs);
            w.end_object();
        }
        w.end_array();
    }

    /// Renders every metric and span in the Prometheus text exposition
    /// format (`# HELP` / `# TYPE` comments, cumulative histogram buckets
    /// with `le` labels, spans as `sms_span_seconds{span="…"}` /
    /// `sms_span_calls{span="…"}` series).
    ///
    /// ```
    /// use sms_core::telemetry::Registry;
    ///
    /// let reg = Registry::new();
    /// reg.observe("sms_ingest_frame_bytes", 5);
    /// let text = reg.render_prometheus();
    /// assert!(text.contains("# TYPE sms_ingest_frame_bytes histogram"));
    /// assert!(text.contains("sms_ingest_frame_bytes_bucket{le=\"7\"} 1"));
    /// assert!(text.contains("sms_ingest_frame_bytes_count 1"));
    /// ```
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let snapshot = self.snapshot();
        for (spec, value) in &snapshot {
            let _ = writeln!(out, "# HELP {} {}", spec.name, spec.help);
            let _ = writeln!(out, "# TYPE {} {}", spec.name, spec.kind.prometheus_type());
            match value {
                MetricValue::U64(v) => {
                    let _ = writeln!(out, "{} {}", spec.name, v);
                }
                MetricValue::F64(v) => {
                    let _ = writeln!(out, "{} {}", spec.name, fmt_f64(*v));
                }
                MetricValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (i, b) in h.buckets().iter().enumerate() {
                        cumulative += b;
                        match Log2Histogram::bucket_upper_edge(i) {
                            Some(le) => {
                                let _ = writeln!(
                                    out,
                                    "{}_bucket{{le=\"{}\"}} {}",
                                    spec.name, le, cumulative
                                );
                            }
                            None => {
                                let _ = writeln!(
                                    out,
                                    "{}_bucket{{le=\"+Inf\"}} {}",
                                    spec.name, cumulative
                                );
                            }
                        }
                    }
                    let _ = writeln!(out, "{}_sum {}", spec.name, h.sum());
                    let _ = writeln!(out, "{}_count {}", spec.name, h.count());
                }
            }
        }
        let spans = self.span_snapshots();
        if !spans.is_empty() {
            let _ =
                writeln!(out, "# HELP sms_span_seconds Wall seconds accumulated per span path.");
            let _ = writeln!(out, "# TYPE sms_span_seconds counter");
            for s in &spans {
                let _ = writeln!(
                    out,
                    "sms_span_seconds{{span=\"{}\"}} {}",
                    escape_label(&s.path),
                    fmt_f64(s.secs)
                );
            }
            let _ = writeln!(out, "# HELP sms_span_calls Completed activations per span path.");
            let _ = writeln!(out, "# TYPE sms_span_calls counter");
            for s in &spans {
                let _ = writeln!(
                    out,
                    "sms_span_calls{{span=\"{}\"}} {}",
                    escape_label(&s.path),
                    s.calls
                );
            }
        }
        out
    }
}

/// RAII guard for one span activation; see [`Registry::span`].
#[derive(Debug)]
pub struct Span<'a> {
    registry: &'a Registry,
    thread: ThreadId,
    node: usize,
    saved_depth: usize,
    start: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let secs = self.start.elapsed().as_secs_f64();
        let mut inner = self.registry.lock();
        inner.spans[self.node].calls += 1;
        inner.spans[self.node].secs += secs;
        if let Some(stack) = inner.stacks.get_mut(&self.thread) {
            // Truncating (not popping) self-heals the stack when children
            // leaked past their parent — the panic-unwind case.
            stack.truncate(self.saved_depth);
        }
    }
}

/// Renders the full `--metrics` JSON document: experiment name, every
/// registered block's scalar metrics, all histograms, and the span tree.
/// The output parses with [`crate::json::parse`] and always contains the
/// top-level keys `experiment`, `metrics`, `histograms`, `spans`.
///
/// ```
/// use sms_core::telemetry::{render_metrics_json, Registry};
///
/// let reg = Registry::with_catalog();
/// reg.add("sms_engine_samples_in", 7);
/// let doc = render_metrics_json(&reg, "fleet");
/// let parsed = sms_core::json::parse(&doc).unwrap();
/// assert_eq!(parsed.get("experiment").and_then(|v| v.as_str()), Some("fleet"));
/// let engine = parsed.get("metrics").and_then(|m| m.get("engine")).unwrap();
/// assert_eq!(engine.get("samples_in").and_then(|v| v.as_u64()), Some(7));
/// ```
pub fn render_metrics_json(reg: &Registry, experiment: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("experiment");
    w.string(experiment);
    w.key("metrics");
    w.begin_object();
    for block in reg.blocks() {
        w.key(block);
        reg.write_block_json(&mut w, block);
    }
    w.end_object();
    w.key("histograms");
    reg.write_histograms_json(&mut w);
    w.key("spans");
    reg.write_spans_json(&mut w);
    w.end_object();
    w.finish()
}

fn write_value(w: &mut JsonWriter, value: &MetricValue) {
    match value {
        MetricValue::U64(v) => {
            w.u64(*v);
        }
        MetricValue::F64(v) => {
            w.f64(*v);
        }
        MetricValue::Histogram(_) => unreachable!("histograms render separately"),
    }
}

/// Formats an `f64` like [`JsonWriter::f64`] (shortest round-trip, `.0`
/// marker on whole numbers) so JSON and Prometheus agree byte-for-byte.
fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return if v.is_nan() {
            "NaN".to_string()
        } else if v > 0.0 {
            "+Inf".to_string()
        } else {
            "-Inf".to_string()
        };
    }
    let mut s = format!("{v}");
    if v.fract() == 0.0 && v.abs() < 1e17 {
        s.push_str(".0");
    }
    s
}

fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Log2Histogram::bucket_index(0), 0);
        assert_eq!(Log2Histogram::bucket_index(1), 1);
        assert_eq!(Log2Histogram::bucket_index(2), 2);
        assert_eq!(Log2Histogram::bucket_index(3), 2);
        assert_eq!(Log2Histogram::bucket_index(4), 3);
        assert_eq!(Log2Histogram::bucket_index(1023), 10);
        assert_eq!(Log2Histogram::bucket_index(1024), 11);
        assert_eq!(Log2Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Edges agree with the index rule: a bucket's upper edge maps into
        // that bucket, edge + 1 maps into the next.
        for i in 1..HISTOGRAM_BUCKETS - 1 {
            let le = Log2Histogram::bucket_upper_edge(i).unwrap();
            assert_eq!(Log2Histogram::bucket_index(le), i);
            assert_eq!(Log2Histogram::bucket_index(le + 1), i + 1);
        }
    }

    #[test]
    fn histogram_merge_is_order_insensitive() {
        let values = [0u64, 1, 7, 900, 4096, 1 << 40];
        let mut serial = Log2Histogram::new();
        for v in values {
            serial.observe(v);
        }
        // Split across 3 "workers" two different ways; merge both orders.
        let mut a = [Log2Histogram::new(), Log2Histogram::new(), Log2Histogram::new()];
        for (i, v) in values.iter().enumerate() {
            a[i % 3].observe(*v);
        }
        let mut fwd = Log2Histogram::new();
        for h in &a {
            fwd.merge(h);
        }
        let mut rev = Log2Histogram::new();
        for h in a.iter().rev() {
            rev.merge(h);
        }
        assert_eq!(fwd, serial);
        assert_eq!(rev, serial);
    }

    #[test]
    fn catalog_names_are_unique_and_follow_the_naming_rule() {
        let mut seen = std::collections::HashSet::new();
        for spec in CATALOG {
            assert!(seen.insert(spec.name), "duplicate metric name {}", spec.name);
            let expected = format!("sms_{}_{}", spec.block, spec.key.replace('.', "_"));
            assert_eq!(spec.name, expected, "name must be sms_<block>_<key>");
        }
    }

    #[test]
    fn block_json_nests_dotted_keys() {
        let reg = Registry::new();
        reg.register_block("quality");
        reg.add("sms_quality_defects_gaps", 3);
        reg.add("sms_quality_houses", 2);
        let mut w = JsonWriter::new();
        reg.write_block_json(&mut w, "quality");
        let json = w.finish();
        let parsed = crate::json::parse(&json).unwrap();
        assert_eq!(parsed.get("houses").and_then(|v| v.as_u64()), Some(2));
        let defects = parsed.get("defects").expect("nested defects object");
        assert_eq!(defects.get("gaps").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(defects.get("non_finite").and_then(|v| v.as_u64()), Some(0));
    }

    #[test]
    fn spans_nest_per_thread_and_self_heal_after_panics() {
        let reg = Registry::new();
        {
            let _root = reg.span("root");
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _child = reg.span("child");
                panic!("boom");
            }));
            // The panicked child's guard dropped during unwind; a new span
            // must nest under root, not under the dead child.
            let _next = reg.span("next");
        }
        let paths: Vec<String> = reg.span_snapshots().into_iter().map(|s| s.path).collect();
        assert_eq!(paths, ["root", "root/child", "root/next"]);
    }

    #[test]
    fn prometheus_output_is_stable_and_parseable() {
        let build = || {
            let reg = Registry::with_catalog();
            reg.add("sms_engine_samples_in", 1234);
            reg.set_f64("sms_engine_train_secs", 1.5);
            reg.observe("sms_pool_job_attempts", 1);
            reg.record_span("fleet/encode", 2, 0.25);
            reg
        };
        let a = build().render_prometheus();
        let b = build().render_prometheus();
        assert_eq!(a, b, "same inputs must render identically");
        for line in a.lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "bad comment: {line}"
                );
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("name value");
            assert!(
                !series.is_empty() && !series.contains(' ') || series.contains("{"),
                "bad series: {line}"
            );
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
                "unparseable value in: {line}"
            );
        }
        assert!(a.contains("sms_engine_samples_in 1234"));
        assert!(a.contains("sms_engine_train_secs 1.5"));
        assert!(a.contains("sms_span_calls{span=\"fleet/encode\"} 2"));
    }

    #[test]
    fn metrics_json_has_documented_top_level_keys() {
        let reg = Registry::with_catalog();
        reg.add("sms_ingest_bytes_in", 10);
        let doc = render_metrics_json(&reg, "ingest");
        let parsed = crate::json::parse(&doc).unwrap();
        for key in ["experiment", "metrics", "histograms", "spans"] {
            assert!(parsed.get(key).is_some(), "missing {key} in {doc}");
        }
        for block in ["engine", "ingest", "eval", "pool", "quality"] {
            assert!(
                parsed.get("metrics").and_then(|m| m.get(block)).is_some(),
                "missing block {block}"
            );
        }
    }
}
