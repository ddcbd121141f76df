//! Sharded fleet state and the crate's one fleet encode loop: consistent
//! hashing of house → shard, per-shard lookup-table caches, and supervised
//! pools feeding a deterministic merge stage.
//!
//! * [`ShardRouter`] — a consistent-hash ring (32 virtual nodes per shard,
//!   [`splitmix64`]-placed) maps each house id to a shard. Adding a shard
//!   moves only `~1/n` of the houses, so shard counts can grow without a
//!   full reshuffle.
//! * [`TableCache`] — per-shard LRU of learned [`LookupTable`]s keyed by
//!   house, so re-encoding a house it has seen before skips the training
//!   pass entirely.
//! * [`ShardedFleetEngine`] — the crate's one fleet batch path: a serial
//!   sanitize pre-pass, shared-table training and a serial drift pre-pass;
//!   then per shard a serial cache pre-pass, the fleet encode loop on a
//!   supervised pool ([`crate::pool`]) running the pure train+encode jobs,
//!   and a **serial merge stage** that places results by input index and
//!   applies cache inserts in index order; last the quarantine policy and
//!   one [`EngineStats`] covering every batch since the engine was built.
//!
//! [`crate::engine::FleetEngine`] runs one batch of it on one shard with no
//! table cache and no drift detection.
//!
//! ## Determinism contract
//!
//! Fleet output is **byte-identical at any shard count and any worker
//! count**. Three properties make that hold:
//!
//! 1. Routing is a pure function of the house id (no `RandomState`, no
//!    iteration-order dependence).
//! 2. Encode jobs are pure per house; the merge stage places each result
//!    by its input index, so scheduling order never shows.
//! 3. The cache can only substitute work that would have produced the same
//!    bytes: entries are keyed by house, and a hit replays the table
//!    learned from that house's own history — retraining on the same
//!    series yields the same table. (A house whose series *changes*
//!    between batches keeps its first-learned table until evicted: the
//!    cache implements train-once-per-house semantics, not
//!    drift-tracking — that is [`crate::adaptive`]'s job.)
//!
//! Eviction order and hit counts *do* vary with shard count (capacity is
//! per shard); only the [`ShardStats`] counters see that, never the
//! encoded bytes.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use crate::adaptive::{AdaptiveStats, DriftTracker};
use crate::engine::{
    EngineConfig, EngineStats, FleetEncoding, PanicPlan, QuarantinePolicy, QuarantineReason,
    Quarantined, TableMode,
};
use crate::error::{Error, Result};
use crate::horizontal::SymbolicSeries;
use crate::lookup::LookupTable;
use crate::pipeline::{CodecBuilder, SymbolicCodec};
use crate::pool::{Outcome, PoolConfig, PoolStats, RetryPolicy};
use crate::quality::{QualityStats, Sanitizer};
use crate::telemetry::Registry;
use crate::timeseries::TimeSeries;

pub use crate::adaptive::DriftConfig;

/// Virtual nodes each shard places on the consistent-hash ring. 32 keeps
/// the worst shard within a few percent of the mean at 16 shards while the
/// whole ring still fits in one cache line per shard.
pub const VNODES_PER_SHARD: usize = 32;

/// SplitMix64 — the crate's one finalizer for deterministic, seed-stable
/// hashing. Public here because shard routing *is* the hash: callers
/// verifying placement externally need bit-identical values.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Consistent-hash ring mapping house ids to shards.
///
/// ```
/// use sms_core::shard::ShardRouter;
/// let r4 = ShardRouter::new(4).unwrap();
/// let r5 = ShardRouter::new(5).unwrap();
/// let moved = (0..10_000u64).filter(|&h| r4.route(h) != r5.route(h)).count();
/// assert!(moved < 4_000, "consistent hashing moved {moved}/10000 houses");
/// ```
#[derive(Debug, Clone)]
pub struct ShardRouter {
    /// `(ring position, shard)` sorted by position.
    ring: Vec<(u64, u32)>,
    shards: usize,
}

impl ShardRouter {
    /// A ring of `shards` shards (must be ≥ 1).
    pub fn new(shards: usize) -> Result<Self> {
        if shards == 0 || shards > u32::MAX as usize {
            return Err(Error::InvalidParameter {
                name: "shards",
                reason: format!("must be in 1..=u32::MAX, got {shards}"),
            });
        }
        let mut ring = Vec::with_capacity(shards * VNODES_PER_SHARD);
        for shard in 0..shards as u32 {
            for v in 0..VNODES_PER_SHARD as u64 {
                // Mix shard and vnode through two rounds so vnode points of
                // one shard spread rather than cluster.
                let pos = splitmix64(splitmix64(shard as u64) ^ (v.wrapping_mul(0x9e37_79b9)));
                ring.push((pos, shard));
            }
        }
        // Ties (astronomically unlikely) resolve to the lower shard id so
        // the ring is a pure function of `shards`.
        ring.sort_unstable();
        Ok(ShardRouter { ring, shards })
    }

    /// Number of shards behind the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `house`: the first ring point at or after the
    /// house's hash, wrapping at the top.
    pub fn route(&self, house: u64) -> usize {
        let h = splitmix64(house);
        let i = self.ring.partition_point(|&(pos, _)| pos < h);
        let (_, shard) = self.ring[if i == self.ring.len() { 0 } else { i }];
        shard as usize
    }

    /// The live shard owning `house`: walks the ring forward from the
    /// house's position, skipping vnodes of shards whose `alive[shard]` is
    /// `false`, wrapping at the top. `None` when no live shard remains.
    ///
    /// This is the failover rule of [`crate::durable::DurableFleet`]: a
    /// pure function of `(house, alive)`, so every replica of a run moves
    /// a dead shard's houses to the **same** successor vnodes — and a
    /// house whose owner is alive routes exactly as [`route`](Self::route)
    /// does.
    pub fn route_alive(&self, house: u64, alive: &[bool]) -> Option<usize> {
        let h = splitmix64(house);
        let start = self.ring.partition_point(|&(pos, _)| pos < h);
        for k in 0..self.ring.len() {
            let at = start + k;
            let (_, shard) =
                self.ring[if at >= self.ring.len() { at - self.ring.len() } else { at }];
            if alive.get(shard as usize).copied().unwrap_or(false) {
                return Some(shard as usize);
            }
        }
        None
    }
}

/// Per-shard LRU cache of learned lookup tables, keyed by house id.
///
/// Recency is a monotonically increasing sequence number per entry with a
/// `BTreeMap<seq, house>` recency index, so both `get` and `insert` are
/// `O(log n)` — no linked lists, no per-access `Vec` scans.
#[derive(Debug, Clone, Default)]
pub struct TableCache {
    capacity: usize,
    entries: HashMap<u64, (LookupTable, u64)>,
    recency: BTreeMap<u64, u64>,
    next_seq: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl TableCache {
    /// A cache holding at most `capacity` tables (`0` disables caching).
    pub fn new(capacity: usize) -> Self {
        TableCache { capacity, ..TableCache::default() }
    }

    /// Tables currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses, evictions)` counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// The cached table for `house`, refreshing its recency.
    pub fn get(&mut self, house: u64) -> Option<&LookupTable> {
        match self.entries.get_mut(&house) {
            Some((_, seq)) => {
                self.recency.remove(seq);
                *seq = self.next_seq;
                self.recency.insert(self.next_seq, house);
                self.next_seq += 1;
                self.hits += 1;
                self.entries.get(&house).map(|(t, _)| t)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Caches `table` for `house`, evicting the least-recently-used entry
    /// when full. A no-op at capacity 0.
    pub fn insert(&mut self, house: u64, table: LookupTable) {
        if self.capacity == 0 {
            return;
        }
        if let Some((_, seq)) = self.entries.remove(&house) {
            self.recency.remove(&seq);
        } else if self.entries.len() >= self.capacity {
            if let Some((&oldest, &victim)) = self.recency.iter().next() {
                self.recency.remove(&oldest);
                self.entries.remove(&victim);
                self.evictions += 1;
            }
        }
        self.entries.insert(house, (table, self.next_seq));
        self.recency.insert(self.next_seq, house);
        self.next_seq += 1;
    }

    /// Drops `house`'s cached table, if present — the drift cutover path:
    /// the next batch retrains from the house's *current* history instead
    /// of replaying the stale pre-drift table.
    pub fn remove(&mut self, house: u64) -> bool {
        match self.entries.remove(&house) {
            Some((_, seq)) => {
                self.recency.remove(&seq);
                true
            }
            None => false,
        }
    }
}

/// Counters for one sharded run; rendered as the `"shard"` block of
/// [`crate::engine::EngineStats::to_json`] and the Prometheus exposition.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ShardStats {
    /// Shards in the ring.
    pub shards: usize,
    /// Houses routed through the ring (cumulative over batches).
    pub houses_routed: u64,
    /// Lookup-table cache hits across every shard.
    pub cache_hits: u64,
    /// Lookup-table cache misses across every shard.
    pub cache_misses: u64,
    /// Tables evicted from the per-shard LRU caches.
    pub cache_evictions: u64,
    /// Houses on the most loaded shard in the latest batch (ring-balance
    /// witness).
    pub max_shard_houses: u64,
    /// Wall time the deterministic merge stage spent placing results and
    /// applying cache inserts, seconds.
    pub merge_wait_secs: f64,
}

crate::telemetry::declare_metrics! {
    ShardStats as shard {
        set shards, "shards", "Shards on the consistent-hash ring.";
        add houses_routed, "houses", "Houses routed through the ring across every batch.";
        add cache_hits, "lookups", "Per-shard lookup-table cache hits (training skipped).";
        add cache_misses, "lookups", "Per-shard lookup-table cache misses (house trained).";
        add cache_evictions, "tables", "Tables evicted from the per-shard LRU caches.";
        set_max max_shard_houses, "houses",
            "Houses on the most loaded shard (ring-balance witness).";
        set_f64 merge_wait_secs, "seconds",
            "Wall time the deterministic merge stage spent placing results.";
    }
}

/// Configuration of a [`ShardedFleetEngine`]: the ring, the table caches
/// and drift detection, plus the batch path's [`EngineConfig`].
#[derive(Debug, Clone)]
pub struct ShardedEngineConfig {
    /// Shards on the ring.
    pub shards: usize,
    /// Lookup tables each shard's cache retains.
    pub table_cache_capacity: usize,
    /// Online drift adaptation, `None` (the default) disables it. When set,
    /// a serial pre-pass feeds every house's batch into a per-house
    /// sketch-backed [`DriftDetector`](crate::adaptive::DriftDetector) and
    /// applies the cutover rule of [`crate::adaptive`] once per house per
    /// batch. A cutover evicts the house's cached table and bumps its
    /// separator epoch, so the encode stage retrains it exactly on the
    /// batch. The pre-pass runs on the main thread **in input order**, so
    /// the decisions — and therefore the output bytes — are identical at
    /// any shards × workers topology. It needs [`TableMode::PerHouse`]: a
    /// shared table has no house to cut over.
    pub drift: Option<DriftConfig>,
    /// The batch path's settings: workers per shard pool, table mode,
    /// quarantine policy, sanitizer, retries and chaos plan.
    pub engine: EngineConfig,
}

impl Default for ShardedEngineConfig {
    /// 4 shards with one worker each, so a batch spawns no thread; 4096
    /// tables cached per shard; [`QuarantinePolicy::Isolate`] with no
    /// retry or sanitizer; no drift detection.
    fn default() -> Self {
        ShardedEngineConfig {
            shards: 4,
            table_cache_capacity: 4096,
            drift: None,
            engine: EngineConfig::with_workers(1).quarantine(QuarantinePolicy::Isolate),
        }
    }
}

impl ShardedEngineConfig {
    /// Config with an explicit shard count and defaults otherwise.
    pub fn with_shards(shards: usize) -> Self {
        ShardedEngineConfig { shards, ..Self::default() }
    }

    /// Sets the per-shard worker count (`engine.workers`).
    pub fn workers(mut self, workers: usize) -> Self {
        self.engine.workers = workers;
        self
    }

    /// Sets the per-shard table-cache capacity.
    pub fn table_cache_capacity(mut self, capacity: usize) -> Self {
        self.table_cache_capacity = capacity;
        self
    }

    /// Enables online drift adaptation with the given policy.
    pub fn drift(mut self, drift: DriftConfig) -> Self {
        self.drift = Some(drift);
        self
    }
}

/// The crate's fleet encoder, its state partitioned by the consistent-hash
/// ring: per-shard table caches and per-shard supervised pools, merged
/// deterministically.
///
/// Call [`encode_batch`](Self::encode_batch) repeatedly with chunks of
/// `(house, series)` pairs — the caches persist across batches, so a
/// million-house run streams through in bounded memory while houses seen
/// before skip training.
#[derive(Debug)]
pub struct ShardedFleetEngine {
    builder: CodecBuilder,
    config: ShardedEngineConfig,
    /// `config.engine.workers`, with `0` resolved to the core count.
    workers: usize,
    router: ShardRouter,
    caches: Vec<TableCache>,
    stats: ShardStats,
    pool_stats: PoolStats,
    /// Per-house drift state, present only when `config.drift` is set.
    /// Only the serial pre-pass mutates it, so its evolution is a pure
    /// function of the input stream, independent of topology.
    drift_state: BTreeMap<u64, DriftTracker>,
    adaptive_stats: AdaptiveStats,
    /// The engine block's scalars and histograms over every batch.
    totals: EngineStats,
    /// Sanitizer and quarantine counters over every batch.
    quality: QualityStats,
    /// Stage spans over every batch.
    spans: Registry,
    /// The fleet table under [`TableMode::Shared`], learned from the first
    /// batch.
    shared: Option<SymbolicCodec>,
}

impl ShardedFleetEngine {
    /// An engine over `builder`'s codec with `config`'s topology.
    ///
    /// Errors with [`Error::InvalidParameter`] on zero shards, on drift
    /// detection under [`TableMode::Shared`], and on a [`DriftConfig`] with
    /// a `threshold` outside `(0, 1]` or a `window` below 2.
    pub fn new(builder: CodecBuilder, config: ShardedEngineConfig) -> Result<Self> {
        let router = ShardRouter::new(config.shards)?;
        if let Some(drift) = config.drift {
            drift.validate()?;
            if config.engine.table_mode == TableMode::Shared {
                return Err(Error::InvalidParameter {
                    name: "drift",
                    reason: "drift detection re-learns one house's table, and \
                             TableMode::Shared keeps one table for the fleet"
                        .into(),
                });
            }
        }
        let caches =
            (0..config.shards).map(|_| TableCache::new(config.table_cache_capacity)).collect();
        Ok(ShardedFleetEngine {
            workers: PoolConfig::with_workers(config.engine.workers).effective_workers(usize::MAX),
            builder,
            config,
            router,
            caches,
            stats: ShardStats::default(),
            pool_stats: PoolStats::default(),
            drift_state: BTreeMap::new(),
            adaptive_stats: AdaptiveStats::default(),
            totals: EngineStats::default(),
            quality: QualityStats::default(),
            spans: Registry::new(),
            shared: None,
        })
    }

    /// The ring routing houses to shards.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Cumulative shard counters over every batch so far.
    pub fn stats(&self) -> ShardStats {
        let mut s = self.stats;
        s.shards = self.config.shards;
        for c in &self.caches {
            let (h, m, e) = c.counters();
            s.cache_hits += h;
            s.cache_misses += m;
            s.cache_evictions += e;
        }
        s
    }

    /// Cumulative pool counters over every shard pool of every batch.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool_stats
    }

    /// Cumulative drift-adaptation counters over every batch. Zeroes when
    /// [`ShardedEngineConfig::drift`] is off.
    pub fn adaptive_stats(&self) -> AdaptiveStats {
        self.adaptive_stats
    }

    /// The separator epoch `house` currently encodes under (`0` for houses
    /// never seen or never drifted).
    pub fn house_epoch(&self, house: u64) -> u32 {
        self.drift_state.get(&house).map_or(0, DriftTracker::epoch)
    }

    /// The drift pre-pass: feeds each house's batch samples through its
    /// sketch detector **serially, in input order**, then applies the
    /// cutover rule once, and on a cutover evicts the house's cached table
    /// — so the encode stage retrains that house on its batch. Every
    /// decision here is a pure function of the per-house sample stream;
    /// nothing downstream (shard partitioning, worker scheduling) can
    /// change it, which preserves byte-identical output across topologies.
    fn drift_prepass<'s>(
        &mut self,
        houses: impl Iterator<Item = (u64, &'s TimeSeries)>,
        drift: DriftConfig,
    ) {
        for (house, ts) in houses {
            let values = ts.values();
            let Some(tracker) = self.drift_state.get_mut(&house) else {
                // First sight: the batch becomes the reference
                // distribution. A house whose history can't seed a
                // detector (empty, or NaN — the encoder will surface that)
                // simply goes untracked.
                let finite: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
                if let Ok(tracker) = DriftTracker::new(&finite, drift.window) {
                    self.adaptive_stats.samples += values.len() as u64;
                    self.drift_state.insert(house, tracker);
                }
                continue;
            };
            for &v in &values {
                tracker.push(v);
            }
            self.adaptive_stats.samples += values.len() as u64;
            if tracker.decide(&drift, &mut self.adaptive_stats) {
                self.caches[self.router.route(house)].remove(house);
            }
        }
        self.adaptive_stats.sketch_bytes =
            self.drift_state.values().map(DriftTracker::sketch_bytes).sum();
    }

    /// Encodes one batch of `(house id, series)` pairs. Output is
    /// byte-identical for any `shards`/`workers` setting (see the module
    /// determinism contract); [`QuarantinePolicy`] decides what a failing
    /// house does, as in
    /// [`FleetEngine::encode_fleet`](crate::engine::FleetEngine::encode_fleet).
    pub fn encode_batch(&mut self, fleet: &[(u64, TimeSeries)]) -> Result<FleetEncoding> {
        self.encode_with(fleet.len(), |i| fleet[i].0, |i| &fleet[i].1)
    }

    /// The crate's one fleet batch path, over `len` houses whose `i`-th has
    /// id `id(i)` and series `series(i)`. In order: the serial sanitize
    /// pre-pass, shared-table training, the serial drift pre-pass, then per
    /// shard the cache pre-pass, [`encode_houses`] and the index-ordered
    /// merge; last the quarantine policy, placeholders and the stats. A
    /// house the sanitizer quarantines feeds neither the drift detector
    /// nor the shared table. Under [`QuarantinePolicy::Strict`] the first
    /// sanitizer rejection returns at once, before any cache or drift
    /// state changes; an encode failure returns the lowest failing index's
    /// error after every shard ran, keeping the batch's cache inserts and
    /// drift decisions. Either way a failed batch adds nothing to the
    /// counters, except those the table caches and drift detectors keep
    /// of what it did to them.
    pub(crate) fn encode_with<'a>(
        &mut self,
        len: usize,
        id: impl Fn(usize) -> u64,
        series: impl Fn(usize) -> &'a TimeSeries,
    ) -> Result<FleetEncoding> {
        let batch_start = Instant::now();
        let strict = self.config.engine.quarantine == QuarantinePolicy::Strict;
        let mut quarantined: Vec<Quarantined> = Vec::new();

        // Sanitize pre-pass. Serial, so quarantine decisions are made
        // before any parallelism and are reproducible at every topology.
        let mut reports = Vec::new();
        let mut sanitize_secs = None;
        let prepared: Vec<Option<Cow<'a, TimeSeries>>> = match self.config.engine.sanitizer {
            None => (0..len).map(|i| Some(Cow::Borrowed(series(i)))).collect(),
            Some(cfg) => {
                let sanitize_start = Instant::now();
                let sanitizer = Sanitizer::new(cfg);
                let mut prepared = Vec::with_capacity(len);
                for i in 0..len {
                    match sanitizer.sanitize(series(i)) {
                        Ok((clean, report)) => {
                            reports.push(report);
                            prepared.push(Some(Cow::Owned(clean)));
                        }
                        Err(e) if strict => return Err(e),
                        Err(e) => {
                            let reason = QuarantineReason::DirtyData(e);
                            quarantined.push(Quarantined { house: i, reason });
                            prepared.push(None);
                        }
                    }
                }
                sanitize_secs = Some(sanitize_start.elapsed().as_secs_f64());
                prepared
            }
        };

        // The shared table is learned once, from the first batch, and
        // pools values from its surviving houses only: dirty values must
        // not shape everyone else's separators.
        let train_start = Instant::now();
        if self.config.engine.table_mode == TableMode::Shared && self.shared.is_none() {
            let mut values = Vec::new();
            for house in prepared.iter().flatten().filter(|h| !h.is_empty()) {
                values.extend(self.builder.training_values(house)?);
            }
            self.shared = Some(self.builder.learn_from_values(&values)?);
        }
        let train_secs = train_start.elapsed().as_secs_f64();

        if let Some(drift) = self.config.drift {
            let houses =
                prepared.iter().enumerate().filter_map(|(i, p)| Some((id(i), p.as_deref()?)));
            self.drift_prepass(houses, drift);
        }

        let encode_start = Instant::now();
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.config.shards];
        for i in (0..len).filter(|&i| prepared[i].is_some()) {
            by_shard[self.router.route(id(i))].push(i);
        }

        let engine = &self.config.engine;
        let shared = self.shared.as_ref();
        let pool = PoolConfig::with_workers(self.workers);
        // A strict batch gives each house one attempt.
        let retry = match engine.quarantine {
            QuarantinePolicy::Strict => RetryPolicy::default(),
            QuarantinePolicy::Isolate => engine.retry,
        };
        let keep_tables = shared.is_none() && self.config.table_cache_capacity > 0;
        let mut encoded: Vec<Option<SymbolicSeries>> = vec![None; len];
        let mut pool_runs = Vec::new();
        let mut merge_secs = 0.0;
        for (shard, idxs) in by_shard.iter().enumerate().filter(|(_, idxs)| !idxs.is_empty()) {
            // Serial cache pre-pass: decide per house, *before* the pool
            // runs, whether training is skipped — the pool never touches
            // the cache, so worker scheduling cannot reorder its state. A
            // shared table bypasses the cache.
            let cached: Vec<Option<SymbolicCodec>> = match shared {
                Some(_) => Vec::new(),
                None => idxs
                    .iter()
                    .map(|&i| {
                        let table = self.caches[shard].get(id(i))?;
                        Some(self.builder.clone().with_table(table.clone()))
                    })
                    .collect(),
            };
            let (results, stats) = encode_houses(
                &self.builder,
                idxs,
                |i| prepared[i].as_deref().expect("routed houses are prepared"),
                |j| shared.or_else(|| cached[j].as_ref()),
                keep_tables,
                &pool,
                retry,
                engine.chaos.as_ref(),
            );
            pool_runs.push(stats);

            // Deterministic merge: placement by input index, cache inserts
            // in index order, failures quarantined.
            let merge_start = Instant::now();
            for (&i, result) in idxs.iter().zip(results) {
                match result {
                    Ok((s, table)) => {
                        if let Some(table) = table {
                            self.caches[shard].insert(id(i), table);
                        }
                        encoded[i] = Some(s);
                    }
                    Err(reason) => quarantined.push(Quarantined { house: i, reason }),
                }
            }
            merge_secs += merge_start.elapsed().as_secs_f64();
        }
        let encode_secs = encode_start.elapsed().as_secs_f64();

        // Sanitize-phase and encode-phase quarantines in one index-ordered
        // list keep reports deterministic. Under `Strict` the lowest
        // failing house decides the error (dirty data failed the batch
        // above): an encode error as is, a panic as the pool's typed error.
        quarantined.sort_by_key(|q| q.house);
        if strict && !quarantined.is_empty() {
            return Err(match quarantined.remove(0).reason {
                QuarantineReason::Panicked { message, .. } => {
                    Error::Engine(format!("pool worker panicked: {message}"))
                }
                QuarantineReason::EncodeError(e) | QuarantineReason::DirtyData(e) => e,
            });
        }

        // The batch stands: fold its counters into the engine's.
        self.stats.houses_routed += by_shard.iter().map(Vec::len).sum::<usize>() as u64;
        let peak = by_shard.iter().map(Vec::len).max().unwrap_or(0) as u64;
        self.stats.max_shard_houses = self.stats.max_shard_houses.max(peak);
        self.stats.merge_wait_secs += merge_secs;
        for stats in &pool_runs {
            let p = &mut self.pool_stats;
            p.workers = p.workers.max(stats.workers);
            p.jobs += stats.jobs;
            p.queue_capacity = p.queue_capacity.max(stats.queue_capacity);
            p.max_queue_depth = p.max_queue_depth.max(stats.max_queue_depth);
            p.panics += stats.panics;
            p.retries += stats.retries;
            p.gave_up += stats.gave_up;
            p.respawns += stats.respawns;
            p.job_attempts.merge(&stats.job_attempts);
        }
        for report in &reports {
            self.quality.merge_report(report);
        }
        if let Some(secs) = sanitize_secs {
            self.quality.sanitize_secs += secs;
            self.spans.record_span("encode_fleet/sanitize", 1, secs);
        }

        // Every house without output was quarantined: its slot holds an
        // empty placeholder so indices stay aligned with the input. The
        // histograms are observed here, on the calling thread, so they are
        // identical at every worker count; an encoded house pushed its
        // whole aggregated series through the columnar fast path, so its
        // value count is its symbol count.
        let placeholder = SymbolicSeries::new(self.builder.resolution())?;
        let t = &mut self.totals;
        let mut batch_samples = 0;
        for i in 0..len {
            t.house_samples.observe(series(i).len() as u64);
            batch_samples += series(i).len() as u64;
        }
        t.samples_in += batch_samples;
        for s in encoded.iter().flatten() {
            t.encode_batch_values.observe(s.len() as u64);
        }
        let out: Vec<SymbolicSeries> =
            encoded.into_iter().map(|s| s.unwrap_or_else(|| placeholder.clone())).collect();
        let symbols: u64 = out.iter().map(|s| s.len() as u64).sum();
        for s in &out {
            t.house_symbols.observe(s.len() as u64);
        }
        t.houses += len;
        t.symbols_out += symbols;
        t.train_secs += train_secs;
        t.encode_secs += encode_secs;
        // `merge_report` counted the houses the sanitizer passed and their
        // samples; the rest of the batch (its rejects, or every house when
        // it is off) is counted here, so the quality block's houses and
        // samples equal the engine's.
        self.quality.houses += (len - reports.len()) as u64;
        self.quality.samples_in +=
            batch_samples - reports.iter().map(|r| r.samples_in).sum::<u64>();
        self.quality.quarantined += quarantined.len() as u64;
        if self.config.drift.is_some() {
            self.adaptive_stats.symbols += symbols;
        }
        self.spans.record_span("encode_fleet/train", 1, train_secs);
        self.spans.record_span("encode_fleet/encode", 1, encode_secs);
        self.spans.record_span("encode_fleet", 1, batch_start.elapsed().as_secs_f64());

        let stats = EngineStats {
            workers: self.workers,
            pool: (self.totals.houses > 0).then_some(self.pool_stats),
            quality: (self.config.engine.sanitizer.is_some() || self.quality.quarantined > 0)
                .then_some(self.quality),
            shard: Some(self.stats()),
            adaptive: self.config.drift.map(|_| self.adaptive_stats),
            spans: self.spans.span_snapshots(),
            ..self.totals.clone()
        };
        let epochs = (0..len).map(|i| self.house_epoch(id(i))).collect();
        Ok(FleetEncoding { series: out, quarantined, epochs, stats })
    }
}

/// One job of [`encode_houses`]: the encoded series plus the table it
/// trained (when tables are kept), or why the house produced nothing.
type HouseResult = std::result::Result<(SymbolicSeries, Option<LookupTable>), QuarantineReason>;

/// The crate's fleet encode loop. Job `j` encodes input `idxs[j]`, read
/// through `series`, on the supervised pool: with `codec(j)` when one is
/// given (a cache hit or the shared table), otherwise with a codec trained
/// on the house itself. Each worker reuses its scratch buffers across
/// houses through [`SymbolicCodec::encode_into`], so the output equals
/// [`SymbolicCodec::encode`]. A panicking job is re-run as `retry`
/// allows. Results come back in
/// job order; a trained table is returned only under `keep_tables` (a
/// cache will keep it). `chaos` panics chosen inputs above the pool's
/// `catch_unwind`.
#[allow(clippy::too_many_arguments)]
fn encode_houses<'a>(
    builder: &CodecBuilder,
    idxs: &[usize],
    series: impl Fn(usize) -> &'a TimeSeries + Sync,
    codec: impl Fn(usize) -> Option<&'a SymbolicCodec> + Sync,
    keep_tables: bool,
    pool: &PoolConfig,
    retry: RetryPolicy,
    chaos: Option<&PanicPlan>,
) -> (Vec<HouseResult>, PoolStats) {
    let report = crate::pool::run_indexed_supervised_with(
        idxs.len(),
        pool,
        &retry,
        || (TimeSeries::new(), SymbolicSeries::new(1).expect("1 bit is a valid resolution")),
        |(scratch, out), j, attempt| -> Result<(SymbolicSeries, Option<LookupTable>)> {
            inject_chaos(chaos, idxs[j], attempt);
            let ts = series(idxs[j]);
            let codec = match codec(j) {
                Some(given) => Cow::Borrowed(given),
                None => Cow::Owned(builder.train(ts)?),
            };
            codec.encode_into(ts, scratch, out)?;
            let table = match &codec {
                Cow::Owned(trained) if keep_tables => Some(trained.table().clone()),
                _ => None,
            };
            Ok((out.clone(), table))
        },
    );
    let results = report
        .results
        .into_iter()
        .map(|outcome| match outcome {
            Outcome::Ok(Ok(v)) | Outcome::Retried { value: Ok(v), .. } => Ok(v),
            Outcome::Ok(Err(e)) | Outcome::Retried { value: Err(e), .. } => {
                Err(QuarantineReason::EncodeError(e))
            }
            Outcome::Panicked { message, attempts } => {
                Err(QuarantineReason::Panicked { message, attempts })
            }
        })
        .collect();
    (results, report.stats)
}

/// Panics iff the chaos plan poisons this `(house, attempt)` pair. The
/// panic is deliberately *injected above* the pool's `catch_unwind`, so the
/// tests exercise the same recovery machinery a genuine encoder bug would.
fn inject_chaos(plan: Option<&PanicPlan>, house: usize, attempt: u32) {
    if let Some(plan) = plan {
        if plan.houses.contains(&house) && attempt <= plan.panics_per_job {
            panic!("injected fault: house {house} attempt {attempt}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FleetEngine;
    use crate::quality::SanitizerConfig;
    use crate::timeseries::TimeSeries;

    fn house_series(house: u64, n: usize) -> TimeSeries {
        let values: Vec<f64> = (0..n)
            .map(|i| {
                let x = splitmix64(house.wrapping_mul(31).wrapping_add(i as u64));
                (x % 4000) as f64 / 10.0
            })
            .collect();
        TimeSeries::from_regular(0, 900, &values).unwrap()
    }

    fn fleet(n: usize) -> Vec<(u64, TimeSeries)> {
        (0..n as u64).map(|h| (h * 7 + 3, house_series(h, 96))).collect()
    }

    fn builder() -> CodecBuilder {
        CodecBuilder::new().alphabet_size(16).unwrap().no_aggregation()
    }

    #[test]
    fn router_is_total_and_balanced() {
        let r = ShardRouter::new(16).unwrap();
        let mut load = vec![0usize; 16];
        for h in 0..100_000u64 {
            load[r.route(h)] += 1;
        }
        let (min, max) = (load.iter().min().unwrap(), load.iter().max().unwrap());
        assert!(*min > 0, "empty shard: {load:?}");
        assert!(*max < 3 * 100_000 / 16, "hot shard: {load:?}");
    }

    #[test]
    fn router_rejects_zero_shards() {
        assert!(matches!(ShardRouter::new(0), Err(Error::InvalidParameter { .. })));
    }

    #[test]
    fn consistent_hashing_moves_few_houses() {
        let a = ShardRouter::new(8).unwrap();
        let b = ShardRouter::new(9).unwrap();
        let moved = (0..20_000u64).filter(|&h| a.route(h) != b.route(h)).count();
        // Ideal is 1/9 ≈ 11%; allow slack for vnode placement variance.
        assert!(moved < 20_000 / 4, "{moved} moved");
    }

    #[test]
    fn route_alive_skips_dead_shards_and_matches_route_when_all_live() {
        let r = ShardRouter::new(8).unwrap();
        let all = vec![true; 8];
        for h in 0..5_000u64 {
            assert_eq!(r.route_alive(h, &all), Some(r.route(h)));
        }
        let mut alive = all.clone();
        alive[3] = false;
        alive[6] = false;
        for h in 0..5_000u64 {
            let s = r.route_alive(h, &alive).unwrap();
            assert!(s != 3 && s != 6, "house {h} routed to dead shard {s}");
            if !matches!(r.route(h), 3 | 6) {
                assert_eq!(s, r.route(h), "live house {h} moved");
            }
        }
        assert_eq!(r.route_alive(42, &[false; 8]), None);
    }

    #[test]
    fn table_cache_lru_evicts_oldest() {
        let table = || {
            crate::lookup::LookupTable::learn(
                crate::separators::SeparatorMethod::Median,
                crate::alphabet::Alphabet::with_size(4).unwrap(),
                &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
            )
            .unwrap()
        };
        let mut c = TableCache::new(2);
        c.insert(1, table());
        c.insert(2, table());
        assert!(c.get(1).is_some()); // refresh 1 → LRU victim is 2
        c.insert(3, table());
        assert!(c.get(2).is_none(), "refreshed entry was evicted instead of the LRU one");
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
        let (hits, misses, evictions) = c.counters();
        assert_eq!((hits, misses, evictions), (3, 1, 1));
    }

    #[test]
    fn sharded_output_is_byte_identical_across_topologies_and_to_serial() {
        let fleet = fleet(60);
        let plain: Vec<TimeSeries> = fleet.iter().map(|(_, ts)| ts.clone()).collect();
        let serial = FleetEngine::new(builder(), EngineConfig::with_workers(1))
            .encode_fleet(&plain)
            .unwrap();
        // `FleetEngine` runs the same encode loop, so pin it to the serial
        // codec too.
        for ((_, ts), s) in fleet.iter().zip(&serial.series) {
            assert_eq!(*s, builder().train(ts).unwrap().encode(ts).unwrap());
        }
        for shards in [1usize, 4, 16] {
            for workers in [1usize, 2, 8] {
                let cfg = ShardedEngineConfig::with_shards(shards).workers(workers);
                let mut eng = ShardedFleetEngine::new(builder(), cfg).unwrap();
                let out = eng.encode_batch(&fleet).unwrap();
                assert!(out.quarantined.is_empty());
                for (i, s) in out.series.iter().enumerate() {
                    assert_eq!(
                        s.symbols(),
                        serial.series[i].symbols(),
                        "house {i} differs at {shards} shards × {workers} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn cache_hits_skip_training_without_changing_output() {
        let fleet = fleet(20);
        let mut eng =
            ShardedFleetEngine::new(builder(), ShardedEngineConfig::with_shards(4)).unwrap();
        let first = eng.encode_batch(&fleet).unwrap();
        let hits_before = eng.stats().cache_hits;
        let second = eng.encode_batch(&fleet).unwrap();
        assert_eq!(eng.stats().cache_hits, hits_before + fleet.len() as u64);
        for (a, b) in first.series.iter().zip(&second.series) {
            assert_eq!(a.symbols(), b.symbols());
        }
    }

    #[test]
    fn failed_houses_quarantine_with_placeholders() {
        let mut fleet = fleet(10);
        fleet[3].1 = TimeSeries::new(); // empty → typed encode error
        let mut eng =
            ShardedFleetEngine::new(builder(), ShardedEngineConfig::with_shards(4)).unwrap();
        let out = eng.encode_batch(&fleet).unwrap();
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(out.quarantined[0].house, 3);
        assert!(out.series[3].is_empty());
        assert!(!out.series[4].is_empty());
    }

    fn shifted_fleet(n: usize, offset: f64) -> Vec<(u64, TimeSeries)> {
        (0..n as u64)
            .map(|h| {
                let values: Vec<f64> = (0..96)
                    .map(|i| {
                        let x = splitmix64(h.wrapping_mul(31).wrapping_add(i as u64 + 7919));
                        (x % 4000) as f64 / 10.0 + offset
                    })
                    .collect();
                (h * 7 + 3, TimeSeries::from_regular(0, 900, &values).unwrap())
            })
            .collect()
    }

    #[test]
    fn drift_cutover_bumps_epochs_and_retrains() {
        let pre = fleet(8);
        let post = shifted_fleet(8, 500.0);
        let drift = DriftConfig { threshold: 0.3, window: 64 };

        let cfg = ShardedEngineConfig::with_shards(4).drift(drift);
        let mut eng = ShardedFleetEngine::new(builder(), cfg).unwrap();
        let b1 = eng.encode_batch(&pre).unwrap();
        assert!(b1.epochs.iter().all(|&e| e == 0), "no drift on the reference batch");
        assert_eq!(eng.adaptive_stats().rebuilds, 0);

        let b2 = eng.encode_batch(&post).unwrap();
        assert!(b2.epochs.iter().all(|&e| e == 1), "every house cut over: {:?}", b2.epochs);
        let stats = eng.adaptive_stats();
        assert_eq!(stats.rebuilds, 8);
        assert_eq!(stats.epochs_shipped, 8);
        assert!(stats.sketch_bytes > 0);
        assert!(stats.sketch_bytes < 8 * 64 * 1024, "sketches must stay bounded");
        for h in 0..8u64 {
            assert_eq!(eng.house_epoch(h * 7 + 3), 1);
        }

        // Without adaptation the cached pre-drift table is replayed over
        // the shifted data; with adaptation the house retrained, so the
        // symbols must differ somewhere.
        let mut frozen =
            ShardedFleetEngine::new(builder(), ShardedEngineConfig::with_shards(4)).unwrap();
        frozen.encode_batch(&pre).unwrap();
        let f2 = frozen.encode_batch(&post).unwrap();
        assert!(f2.epochs.iter().all(|&e| e == 0));
        assert!(
            b2.series.iter().zip(&f2.series).any(|(a, b)| a.symbols() != b.symbols()),
            "cutover produced the same symbols as the stale table"
        );
    }

    #[test]
    fn engine_rejects_invalid_drift_config() {
        let engine = |threshold, window| {
            let cfg = ShardedEngineConfig::with_shards(4).drift(DriftConfig { threshold, window });
            ShardedFleetEngine::new(builder(), cfg)
        };
        // A NaN, zero or negative threshold fires on unchanged data, one
        // above 1 never fires, and a window below 2 leaves every house
        // untracked: each is a typed error, not a silently wrong detector.
        for (threshold, window) in
            [(f64::NAN, 64), (0.0, 64), (-1.0, 64), (1.5, 64), (0.3, 0), (0.3, 1)]
        {
            assert!(
                matches!(engine(threshold, window), Err(Error::InvalidParameter { .. })),
                "threshold {threshold}, window {window} must be rejected"
            );
        }
        for (threshold, window) in [(0.3, 64), (1.0, 2), (f64::MIN_POSITIVE, 512)] {
            assert!(engine(threshold, window).is_ok(), "threshold {threshold}, window {window}");
        }
    }

    #[test]
    fn drift_output_is_byte_identical_across_topologies_including_cutover() {
        let pre = fleet(24);
        let post = shifted_fleet(24, 500.0);
        let drift = DriftConfig { threshold: 0.3, window: 64 };
        let reference = {
            let cfg = ShardedEngineConfig::with_shards(1).workers(1).drift(drift);
            let mut eng = ShardedFleetEngine::new(builder(), cfg).unwrap();
            let b1 = eng.encode_batch(&pre).unwrap();
            let b2 = eng.encode_batch(&post).unwrap();
            (b1, b2)
        };
        for shards in [1usize, 4, 16] {
            for workers in [1usize, 2, 8] {
                let cfg = ShardedEngineConfig::with_shards(shards).workers(workers).drift(drift);
                let mut eng = ShardedFleetEngine::new(builder(), cfg).unwrap();
                let b1 = eng.encode_batch(&pre).unwrap();
                let b2 = eng.encode_batch(&post).unwrap();
                assert_eq!(b1.epochs, reference.0.epochs, "{shards}x{workers}");
                assert_eq!(b2.epochs, reference.1.epochs, "{shards}x{workers}");
                for (i, (a, b)) in b1.series.iter().zip(&reference.0.series).enumerate() {
                    assert_eq!(a.symbols(), b.symbols(), "pre house {i} at {shards}x{workers}");
                }
                for (i, (a, b)) in b2.series.iter().zip(&reference.1.series).enumerate() {
                    assert_eq!(a.symbols(), b.symbols(), "post house {i} at {shards}x{workers}");
                }
            }
        }
    }

    #[test]
    fn strict_returns_the_lowest_failing_index_at_every_topology() {
        // Houses 5 and 30 fail training (empty series) and house 17
        // panics on every attempt; the houses land on different shards,
        // and the lowest index decides the error wherever it lands.
        let mut fleet = fleet(40);
        fleet[5].1 = TimeSeries::new();
        fleet[30].1 = TimeSeries::new();
        let cases = [
            (17, Error::EmptyInput("CodecBuilder::train")),
            (2, Error::Engine("pool worker panicked: injected fault: house 2 attempt 1".into())),
        ];
        for (panicking, want) in cases {
            let chaos = PanicPlan { houses: [panicking].into(), panics_per_job: u32::MAX };
            for shards in [1usize, 4, 16] {
                for workers in [1usize, 2, 8] {
                    let engine = EngineConfig::with_workers(workers)
                        .quarantine(QuarantinePolicy::Strict)
                        .chaos(chaos.clone());
                    let cfg = ShardedEngineConfig { shards, engine, ..Default::default() };
                    let err = ShardedFleetEngine::new(builder(), cfg)
                        .unwrap()
                        .encode_batch(&fleet)
                        .unwrap_err();
                    assert_eq!(err, want, "{shards} shards x {workers} workers");
                }
            }
        }
    }

    #[test]
    fn a_failed_strict_batch_adds_nothing_to_the_counters() {
        // Input 12 panics on every attempt, so a batch of more than 12
        // houses fails.
        let engine = EngineConfig::with_workers(2)
            .quarantine(QuarantinePolicy::Strict)
            .sanitizer(SanitizerConfig::strict())
            .chaos(PanicPlan { houses: [12].into(), panics_per_job: u32::MAX });
        let cfg = ShardedEngineConfig { engine, ..ShardedEngineConfig::with_shards(4) };
        let mut eng = ShardedFleetEngine::new(builder(), cfg).unwrap();
        // A sanitizer rejection at input 3, then a panic at input 12.
        let mut dirty = fleet(16);
        let mut samples = dirty[3].1.samples().to_vec();
        samples[10].v = f64::NAN;
        dirty[3].1 = TimeSeries::from_samples_unchecked(samples);
        assert!(matches!(eng.encode_batch(&dirty), Err(Error::DataQuality { .. })));
        assert!(matches!(eng.encode_batch(&fleet(16)), Err(Error::Engine(_))));

        let stats = eng.encode_batch(&fleet(10)).unwrap().stats;
        assert_eq!((stats.houses, stats.samples_in), (10, 10 * 96));
        assert_eq!(stats.pool.map(|p| (p.jobs, p.panics)), Some((10, 0)));
        assert_eq!(stats.quality.map(|q| (q.houses, q.samples_in)), Some((10, 10 * 96)));
        assert_eq!(stats.shard.map(|s| s.houses_routed), Some(10));
        let spans: Vec<(&str, u64)> = stats.spans.iter().map(|s| (&s.path[..], s.calls)).collect();
        assert_eq!(
            spans,
            [
                ("encode_fleet", 1),
                ("encode_fleet/encode", 1),
                ("encode_fleet/sanitize", 1),
                ("encode_fleet/train", 1)
            ]
        );
        // The caches keep what the failed batch did to them: its 16
        // lookups missed, and the tables it trained serve the clean batch.
        let shard = stats.shard.unwrap();
        assert_eq!((shard.cache_hits, shard.cache_misses), (10, 16));
    }

    #[test]
    fn drift_detection_rejects_shared_tables() {
        let mut cfg = ShardedEngineConfig::with_shards(4).drift(DriftConfig::default());
        cfg.engine.table_mode = TableMode::Shared;
        assert!(matches!(
            ShardedFleetEngine::new(builder(), cfg.clone()),
            Err(Error::InvalidParameter { name: "drift", .. })
        ));
        cfg.drift = None;
        assert!(ShardedFleetEngine::new(builder(), cfg).is_ok());
    }

    #[test]
    fn shared_table_is_learned_once_from_the_first_batch() {
        let (first, second) = (fleet(6), shifted_fleet(6, 500.0));
        let mut cfg = ShardedEngineConfig::with_shards(4);
        cfg.engine.table_mode = TableMode::Shared;
        let mut eng = ShardedFleetEngine::new(builder(), cfg).unwrap();
        eng.encode_batch(&first).unwrap();
        let out = eng.encode_batch(&second).unwrap();
        let values: Vec<f64> = first.iter().flat_map(|(_, ts)| ts.values()).collect();
        let codec = builder().learn_from_values(&values).unwrap();
        for ((_, ts), s) in second.iter().zip(&out.series) {
            assert_eq!(*s, codec.encode(ts).unwrap());
        }
        let stats = eng.stats();
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 0), "the cache is bypassed");
    }

    #[test]
    fn quarantined_houses_never_reach_the_drift_detector() {
        let mut fleet = fleet(8);
        let mut samples = fleet[3].1.samples().to_vec();
        samples[10].v = f64::NAN;
        fleet[3].1 = TimeSeries::from_samples_unchecked(samples);
        let engine = EngineConfig::with_workers(1)
            .quarantine(QuarantinePolicy::Isolate)
            .sanitizer(SanitizerConfig::strict());
        let drift = Some(DriftConfig { threshold: 0.3, window: 64 });
        let cfg = ShardedEngineConfig { engine, drift, ..Default::default() };
        let mut eng = ShardedFleetEngine::new(builder(), cfg).unwrap();
        let enc = eng.encode_batch(&fleet).unwrap();
        assert_eq!(enc.quarantined.len(), 1);
        assert!(matches!(enc.quarantined[0].reason, QuarantineReason::DirtyData(_)));
        assert_eq!(eng.adaptive_stats().samples, 7 * 96, "seven clean houses tracked");
        assert_eq!(eng.stats().houses_routed, 7, "the dirty house is never routed");
    }

    #[test]
    fn engine_stats_cover_every_batch_since_new() {
        let fleet = fleet(10);
        let mut eng =
            ShardedFleetEngine::new(builder(), ShardedEngineConfig::with_shards(4)).unwrap();
        eng.encode_batch(&fleet).unwrap();
        let stats = eng.encode_batch(&fleet).unwrap().stats;
        assert_eq!((stats.workers, stats.houses, stats.samples_in), (1, 20, 20 * 96));
        assert_eq!(stats.symbols_out, 20 * 96);
        assert_eq!(stats.house_samples.count(), 20);
        assert_eq!(stats.house_symbols.count(), 20);
        assert_eq!(stats.encode_batch_values.sum(), 20 * 96);
        assert_eq!(stats.pool.map(|p| p.jobs), Some(20));
        assert_eq!(stats.shard, Some(eng.stats()));
        assert_eq!(stats.shard.map(|s| s.cache_hits), Some(10));
        assert!(stats.quality.is_none() && stats.adaptive.is_none());
        let spans: Vec<(&str, u64)> = stats.spans.iter().map(|s| (&s.path[..], s.calls)).collect();
        assert_eq!(
            spans,
            [("encode_fleet", 2), ("encode_fleet/encode", 2), ("encode_fleet/train", 2)]
        );
    }

    #[test]
    fn shard_stats_register_into_catalog() {
        let stats =
            ShardStats { shards: 4, houses_routed: 100, cache_hits: 7, ..Default::default() };
        let reg = crate::telemetry::Registry::new();
        stats.register_into(&reg);
        let text = reg.render_prometheus();
        assert!(text.contains("sms_shard_shards 4"));
        assert!(text.contains("sms_shard_cache_hits 7"));
    }
}
