//! Network-facing fleet gateway over `std::net`.
//!
//! The paper's deployment story (§2.3) has thousands of meters pushing
//! symbolic streams at a utility concentrator; until now this reproduction
//! had no front door — every byte entered through in-process
//! [`FleetIngest`] calls. This module is that front door: a zero-dependency
//! TCP server that terminates concurrent meter connections, authenticates
//! each one with a token handshake, rate-limits and quota-checks the byte
//! streams, and routes every decoded frame through the *same*
//! [`FleetIngest`] the in-process path uses — so the decoded fleet output
//! is byte-identical to a local run.
//!
//! ## Wire protocol
//!
//! A connection opens with a fixed handshake preamble (see
//! [`encode_handshake`]):
//!
//! ```text
//! [4B magic "SMG1"][8B meter id LE][2B token len LE][token bytes]
//! ```
//!
//! The server answers one byte — [`HANDSHAKE_ACK`] (accepted) or
//! [`HANDSHAKE_NAK`] (rejected, connection closed). After acceptance the
//! client streams ordinary [`crate::wire`] frames (any chunking, mid-frame
//! splits included; the per-meter [`FrameDecoder`](crate::wire::FrameDecoder)
//! reassembles and resynchronizes). The server acknowledges progress with
//! 8-byte little-endian **cumulative decoded-frame counts**, written only
//! *after* the decoded messages are committed to the fleet output — which is
//! what makes "graceful shutdown loses zero acknowledged frames" true by
//! construction rather than by timing.
//!
//! ## Thread model
//!
//! One **acceptor** thread owns the non-blocking listener: it accepts,
//! enforces the connection cap, and hands sockets to a bounded channel. The
//! **session workers** run as jobs on the existing supervised
//! [`crate::pool`] (`run_indexed_supervised_with`), so a panicking handler
//! is caught, counted, and respawned by the same machinery that protects
//! fleet encodes; each worker multiplexes its claimed sessions with
//! non-blocking reads. The `smg-runtime` thread that starts the pool is
//! session worker 0 itself, and the pool spawns the other `workers − 1`.
//! An optional **HTTP/1.1 sidecar** thread serves
//! `/metrics` (Prometheus text), `/healthz`, and `/readyz` with a
//! hand-rolled parser. [`Gateway::shutdown`] stops the acceptor, flips
//! `/readyz` to 503, drains in-flight sessions until EOF or the drain
//! timeout, and returns the fleet output plus a final [`GatewayStats`]
//! block.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, Sender, TryRecvError};

use crate::encoder::SensorMessage;
use crate::engine::EngineStats;
use crate::error::{Error, Result};
use crate::ingest::{FleetIngest, IngestConfig, IngestStats};
use crate::json::JsonWriter;
use crate::pool::{self, PoolConfig, PoolStats, RetryPolicy};
use crate::shard::ShardRouter;
use crate::telemetry::Registry;

/// Handshake magic: the first four bytes of every meter connection.
pub const HANDSHAKE_MAGIC: [u8; 4] = *b"SMG1";
/// Server's one-byte reply accepting a handshake.
pub const HANDSHAKE_ACK: u8 = 0x06;
/// Server's one-byte reply rejecting a handshake (connection closes).
pub const HANDSHAKE_NAK: u8 = 0x15;
/// Longest auth token the server will buffer for an unauthenticated peer.
pub const MAX_TOKEN_LEN: usize = 64;
/// Handshake bytes before the variable-length token.
const HANDSHAKE_FIXED_LEN: usize = 4 + 8 + 2;
/// Read scratch size per worker; also the most a session consumes per pump.
const READ_CHUNK: usize = 16 * 1024;

/// Builds the client-side handshake preamble for `meter` carrying `token`.
pub fn encode_handshake(meter: u64, token: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HANDSHAKE_FIXED_LEN + token.len());
    out.extend_from_slice(&HANDSHAKE_MAGIC);
    out.extend_from_slice(&meter.to_le_bytes());
    out.extend_from_slice(&(token.len() as u16).to_le_bytes());
    out.extend_from_slice(token);
    out
}

/// Policy knobs of one gateway instance. Start with [`Default`] and adjust;
/// every listener binds loopback (`127.0.0.1`) — this reproduction's
/// concentrator is an experiment harness, not an exposed service.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// TCP port for meter connections (`0` = ephemeral, the default).
    pub port: u16,
    /// Session-worker threads claiming connections from the acceptor.
    pub workers: usize,
    /// Most simultaneously active connections; further accepts are counted
    /// as rejected and closed immediately.
    pub max_connections: usize,
    /// The shared secret a handshake must present.
    pub auth_token: Vec<u8>,
    /// Token-bucket refill rate in bytes/second per connection (`0` =
    /// unlimited). An empty bucket pauses reads (TCP backpressure does the
    /// rest) and counts a typed [`Error::RateLimited`] once per episode.
    pub rate_bytes_per_sec: u64,
    /// Token-bucket capacity (burst allowance) in bytes.
    pub rate_burst_bytes: u64,
    /// Lifetime byte budget per connection (`0` = unlimited); exceeding it
    /// closes the connection with a counted typed [`Error::QuotaExceeded`].
    pub conn_byte_quota: u64,
    /// A connection silent for this long is closed and counted.
    pub idle_timeout: Duration,
    /// How long [`Gateway::shutdown`] lets in-flight sessions finish before
    /// force-closing them.
    pub drain_timeout: Duration,
    /// Policy for the shared [`FleetIngest`] behind the sessions.
    pub ingest: IngestConfig,
    /// Shards the ingest state is partitioned into — consistent hashing of
    /// meter id through [`crate::shard::ShardRouter`], one lock per shard,
    /// so sessions on different shards commit concurrently. `1` restores
    /// the single-lock layout.
    pub ingest_shards: usize,
    /// Serve the HTTP sidecar (`/metrics`, `/healthz`, `/readyz`) on its
    /// own ephemeral loopback port.
    pub http_metrics: bool,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            port: 0,
            workers: 2,
            max_connections: 1024,
            auth_token: b"smg-local-dev".to_vec(),
            rate_bytes_per_sec: 0,
            rate_burst_bytes: 64 * 1024,
            conn_byte_quota: 0,
            idle_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(5),
            ingest: IngestConfig::default(),
            ingest_shards: 4,
            http_metrics: false,
        }
    }
}

impl GatewayConfig {
    /// Sets the session-worker thread count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the shared auth token.
    pub fn auth_token(mut self, token: &[u8]) -> Self {
        self.auth_token = token.to_vec();
        self
    }

    /// Sets the per-connection rate limit (bytes/second and burst).
    pub fn rate_limit(mut self, bytes_per_sec: u64, burst_bytes: u64) -> Self {
        self.rate_bytes_per_sec = bytes_per_sec;
        self.rate_burst_bytes = burst_bytes.max(1);
        self
    }

    /// Sets the per-connection lifetime byte quota.
    pub fn conn_byte_quota(mut self, quota: u64) -> Self {
        self.conn_byte_quota = quota;
        self
    }

    /// Sets the idle-connection timeout.
    pub fn idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = timeout;
        self
    }

    /// Sets the graceful-shutdown drain timeout.
    pub fn drain_timeout(mut self, timeout: Duration) -> Self {
        self.drain_timeout = timeout;
        self
    }

    /// Enables the HTTP metrics sidecar.
    pub fn http_metrics(mut self, on: bool) -> Self {
        self.http_metrics = on;
        self
    }

    /// Sets the ingest shard count (clamped to ≥ 1).
    pub fn ingest_shards(mut self, shards: usize) -> Self {
        self.ingest_shards = shards.max(1);
        self
    }
}

/// Counter block describing one gateway run; joins
/// [`EngineStats`] JSON as its `gateway` object and the telemetry CATALOG
/// as `sms_gateway_*` Prometheus series.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GatewayStats {
    /// Connections accepted and handed to a session worker.
    pub connections_accepted: u64,
    /// Connections refused at accept time (connection cap, or arriving
    /// while draining).
    pub connections_rejected: u64,
    /// Currently open sessions (gauge; `0` in a final report).
    pub connections_active: u64,
    /// Handshakes presenting a wrong token (NAK'd and closed).
    pub auth_failures: u64,
    /// Handshakes that were malformed — bad magic, oversized token, or EOF
    /// before completion.
    pub handshake_errors: u64,
    /// Rate-limit throttle episodes (a typed [`Error::RateLimited`] per
    /// episode, not per paused read).
    pub rate_limit_hits: u64,
    /// Connections closed for exceeding their byte quota (typed
    /// [`Error::QuotaExceeded`]).
    pub quota_closed: u64,
    /// Connections closed by the idle timeout.
    pub idle_closed: u64,
    /// Payload bytes read from meter sockets (handshake bytes included).
    pub bytes_in: u64,
    /// Frames decoded, committed to the fleet output, and acknowledged back
    /// to their senders.
    pub frames_acked: u64,
    /// Wall time [`Gateway::shutdown`] spent draining in-flight sessions,
    /// seconds.
    pub drain_secs: f64,
}

crate::telemetry::declare_metrics! {
    GatewayStats as gateway {
        add connections_accepted, "connections",
            "Meter connections accepted and handed to a session worker.";
        add connections_rejected, "connections",
            "Connections refused at accept time (cap reached or draining).";
        set connections_active, "connections", "Currently open meter sessions.";
        add auth_failures, "handshakes", "Handshakes presenting a wrong auth token.";
        add handshake_errors, "handshakes", "Malformed handshakes (bad magic or oversized token).";
        add rate_limit_hits, "episodes", "Rate-limit throttle episodes (typed RateLimited errors).";
        add quota_closed, "connections", "Connections closed for exceeding their byte quota.";
        add idle_closed, "connections", "Connections closed by the idle timeout.";
        add bytes_in, "bytes", "Bytes read from meter sockets (handshakes included).";
        add frames_acked, "frames",
            "Frames decoded, committed to the fleet output, and acknowledged.";
        set_f64 drain_secs, "seconds",
            "Wall time graceful shutdown spent draining in-flight sessions.";
    }
}

impl GatewayStats {
    /// JSON object for benchmark trajectories.
    pub fn to_json(&self) -> String {
        let reg = Registry::new();
        self.register_into(&reg);
        let mut w = JsonWriter::new();
        reg.write_block_json(&mut w, "gateway");
        w.finish()
    }
}

/// Live counters shared by acceptor, workers, and sidecar.
#[derive(Default)]
struct Counters {
    connections_accepted: AtomicU64,
    connections_rejected: AtomicU64,
    connections_active: AtomicU64,
    auth_failures: AtomicU64,
    handshake_errors: AtomicU64,
    rate_limit_hits: AtomicU64,
    quota_closed: AtomicU64,
    idle_closed: AtomicU64,
    bytes_in: AtomicU64,
    frames_acked: AtomicU64,
}

impl Counters {
    fn snapshot(&self, drain_secs: f64) -> GatewayStats {
        GatewayStats {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_rejected: self.connections_rejected.load(Ordering::Relaxed),
            connections_active: self.connections_active.load(Ordering::Relaxed),
            auth_failures: self.auth_failures.load(Ordering::Relaxed),
            handshake_errors: self.handshake_errors.load(Ordering::Relaxed),
            rate_limit_hits: self.rate_limit_hits.load(Ordering::Relaxed),
            quota_closed: self.quota_closed.load(Ordering::Relaxed),
            idle_closed: self.idle_closed.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            frames_acked: self.frames_acked.load(Ordering::Relaxed),
            drain_secs,
        }
    }
}

/// One shard of ingest state: a [`FleetIngest`] plus the per-meter decoded
/// output, mutated under the shard's lock so a meter's decoded stream is
/// identical to an in-process run over the same per-meter bytes.
struct Core {
    fleet: FleetIngest,
    output: BTreeMap<u64, Vec<SensorMessage>>,
}

/// The ingest state behind every session, partitioned by meter id through
/// a [`ShardRouter`]: each shard holds its own [`Core`] under its own
/// lock, so sessions whose meters land on different shards commit
/// concurrently instead of serializing on one mutex.
///
/// The **global** `max_meters` / `max_buffered_bytes` caps are enforced
/// here with atomic counters, in [`FleetIngest::ingest`]'s check order
/// (backlog first, then the meter cap); the per-shard instances run
/// uncapped so a shard can never double-reject. Under concurrent sessions
/// the atomic check is advisory-exact — a race can overshoot a cap by at
/// most the chunks in flight — and a rejected chunk still changes no
/// state. Per-meter output stays byte-identical to the single-lock
/// layout: a meter maps to exactly one shard and its session serializes
/// its own bytes.
struct IngestShards {
    router: ShardRouter,
    cores: Vec<Mutex<Core>>,
    /// Distinct meters across every shard.
    meters: AtomicUsize,
    /// Bytes buffered across every shard awaiting frame completion.
    buffered: AtomicUsize,
    meters_rejected: AtomicU64,
    backlog_rejections: AtomicU64,
    max_meters: usize,
    max_buffered_bytes: usize,
}

impl IngestShards {
    fn new(shards: usize, config: IngestConfig) -> Result<Self> {
        let router = ShardRouter::new(shards.max(1))?;
        let uncapped = config.max_meters(usize::MAX).max_buffered_bytes(usize::MAX);
        let cores = (0..router.shards())
            .map(|_| {
                Mutex::new(Core { fleet: FleetIngest::new(uncapped), output: BTreeMap::new() })
            })
            .collect();
        Ok(IngestShards {
            router,
            cores,
            meters: AtomicUsize::new(0),
            buffered: AtomicUsize::new(0),
            meters_rejected: AtomicU64::new(0),
            backlog_rejections: AtomicU64::new(0),
            max_meters: config.max_meters,
            max_buffered_bytes: config.max_buffered_bytes,
        })
    }

    /// Feeds `bytes` through the meter's shard, commits the decoded frames
    /// to that shard's output map, and returns the decoded count — `None`
    /// on any rejection (the counters record why; the session closes).
    fn ingest_commit(&self, meter: u64, bytes: &[u8]) -> Option<u64> {
        if self.buffered.load(Ordering::Acquire).saturating_add(bytes.len())
            > self.max_buffered_bytes
        {
            self.backlog_rejections.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut core = self.cores[self.router.route(meter)].lock().unwrap();
        let is_new = core.fleet.meter(meter).is_none();
        if is_new && self.meters.load(Ordering::Acquire) >= self.max_meters {
            self.meters_rejected.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let before = core.fleet.buffered_total();
        let result = core.fleet.ingest(meter, bytes);
        let after = core.fleet.buffered_total();
        if after >= before {
            self.buffered.fetch_add(after - before, Ordering::AcqRel);
        } else {
            self.buffered.fetch_sub(before - after, Ordering::AcqRel);
        }
        if is_new && core.fleet.meter(meter).is_some() {
            self.meters.fetch_add(1, Ordering::AcqRel);
        }
        match result {
            Ok(msgs) => {
                let n = msgs.len() as u64;
                core.output.entry(meter).or_default().extend(msgs);
                Some(n)
            }
            Err(_) => None,
        }
    }

    /// Counters merged across every shard, with the fleet-level rejection
    /// counters taken from the global checks here.
    fn stats(&self) -> IngestStats {
        let mut total = IngestStats::default();
        for core in &self.cores {
            total.merge(&core.lock().unwrap().fleet.stats());
        }
        total.meters_rejected = self.meters_rejected.load(Ordering::Relaxed);
        total.backlog_rejections = self.backlog_rejections.load(Ordering::Relaxed);
        total
    }

    /// Drains every shard's output (meter keys are disjoint across shards,
    /// so the merged map is exactly their union) and merges the final
    /// ingest counters.
    fn take_report(&self) -> (BTreeMap<u64, Vec<SensorMessage>>, IngestStats) {
        let mut output = BTreeMap::new();
        let mut ingest = IngestStats::default();
        for core in &self.cores {
            let mut core = core.lock().unwrap();
            output.append(&mut core.output);
            ingest.merge(&core.fleet.stats());
        }
        ingest.meters_rejected = self.meters_rejected.load(Ordering::Relaxed);
        ingest.backlog_rejections = self.backlog_rejections.load(Ordering::Relaxed);
        (output, ingest)
    }
}

struct Shared {
    config: GatewayConfig,
    /// Set by [`Gateway::shutdown`]: acceptor stops, workers drain.
    shutdown: AtomicBool,
    /// Set by [`Gateway::set_degraded`]: the instance still serves (e.g.
    /// durable-store shards failed over) but `/readyz` reports `degraded`
    /// so operators see impaired capacity without pulling the node.
    degraded: AtomicBool,
    /// When the shutdown flag was set (drain deadline anchor).
    shutdown_at: Mutex<Option<Instant>>,
    counters: Counters,
    shards: IngestShards,
}

impl Shared {
    fn drain_deadline(&self) -> Option<Instant> {
        self.shutdown_at.lock().unwrap().map(|t| t + self.config.drain_timeout)
    }
}

/// Per-connection token bucket over bytes.
struct TokenBucket {
    rate: f64,
    capacity: f64,
    tokens: f64,
    refilled_at: Instant,
}

impl TokenBucket {
    fn new(rate_bytes_per_sec: u64, burst_bytes: u64, now: Instant) -> Self {
        TokenBucket {
            rate: rate_bytes_per_sec as f64,
            capacity: burst_bytes.max(1) as f64,
            tokens: burst_bytes.max(1) as f64,
            refilled_at: now,
        }
    }

    fn unlimited(&self) -> bool {
        self.rate <= 0.0
    }

    fn refill(&mut self, now: Instant) {
        let dt = now.saturating_duration_since(self.refilled_at).as_secs_f64();
        self.refilled_at = now;
        self.tokens = (self.tokens + dt * self.rate).min(self.capacity);
    }

    /// Whether a read may proceed right now (at least one token).
    fn ready(&mut self, now: Instant) -> bool {
        if self.unlimited() {
            return true;
        }
        self.refill(now);
        self.tokens >= 1.0
    }

    fn consume(&mut self, n: u64) {
        if !self.unlimited() {
            self.tokens -= n as f64; // may dip negative: the burst was spent
        }
    }
}

enum SessionState {
    Handshaking { buf: Vec<u8> },
    Streaming { meter: u64, acked: u64 },
}

/// Outcome of parsing the (possibly still partial) handshake buffer.
enum HandshakeStep {
    /// Preamble incomplete; read more bytes.
    NeedMore,
    /// Malformed preamble or wrong token — NAK and close.
    Reject(CloseReason),
    /// Authenticated: the session's meter id plus any frame bytes that
    /// trailed the handshake in the same read.
    Accept { meter: u64, rest: Vec<u8> },
}

/// Constant-time byte-slice equality: XOR-folds **every** byte pair, so
/// the comparison's duration is independent of where the first mismatch
/// sits — an early-exit `==` here would let a client binary-search the
/// auth token one byte at a time from response timing. Lengths are
/// compared up front because the handshake announces the token length on
/// the wire anyway; only the contents are secret. `black_box` keeps the
/// accumulator loop from being collapsed back into a short-circuit.
fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b) {
        acc = std::hint::black_box(acc | (x ^ y));
    }
    acc == 0
}

fn parse_handshake(buf: &mut Vec<u8>, expected_token: &[u8]) -> HandshakeStep {
    if buf.len() < HANDSHAKE_FIXED_LEN {
        return HandshakeStep::NeedMore;
    }
    if buf[..4] != HANDSHAKE_MAGIC {
        return HandshakeStep::Reject(CloseReason::HandshakeError);
    }
    let tok_len = u16::from_le_bytes([buf[12], buf[13]]) as usize;
    if tok_len > MAX_TOKEN_LEN {
        return HandshakeStep::Reject(CloseReason::HandshakeError);
    }
    if buf.len() < HANDSHAKE_FIXED_LEN + tok_len {
        return HandshakeStep::NeedMore;
    }
    let meter = u64::from_le_bytes(buf[4..12].try_into().unwrap());
    if !constant_time_eq(&buf[HANDSHAKE_FIXED_LEN..HANDSHAKE_FIXED_LEN + tok_len], expected_token) {
        return HandshakeStep::Reject(CloseReason::AuthFailure);
    }
    let rest = buf.split_off(HANDSHAKE_FIXED_LEN + tok_len);
    HandshakeStep::Accept { meter, rest }
}

/// Why a session ended (for counter attribution).
enum CloseReason {
    Eof,
    AuthFailure,
    HandshakeError,
    Quota(Error),
    Idle,
    IoError,
    ForcedDrain,
}

struct Session {
    stream: TcpStream,
    state: SessionState,
    bucket: TokenBucket,
    throttled: bool,
    bytes_in: u64,
    last_activity: Instant,
    write_buf: Vec<u8>,
}

impl Session {
    fn new(stream: TcpStream, shared: &Shared, now: Instant) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true).ok();
        Ok(Session {
            stream,
            state: SessionState::Handshaking { buf: Vec::with_capacity(HANDSHAKE_FIXED_LEN) },
            bucket: TokenBucket::new(
                shared.config.rate_bytes_per_sec,
                shared.config.rate_burst_bytes,
                now,
            ),
            throttled: false,
            bytes_in: 0,
            last_activity: now,
            write_buf: Vec::new(),
        })
    }

    fn meter(&self) -> u64 {
        match self.state {
            SessionState::Streaming { meter, .. } => meter,
            _ => 0,
        }
    }

    /// Charges `n` received bytes against the connection quota, producing
    /// the typed quota error when the budget is blown.
    fn charge_quota(&mut self, n: u64, quota: u64) -> Result<()> {
        self.bytes_in += n;
        if quota > 0 && self.bytes_in > quota {
            return Err(Error::QuotaExceeded {
                meter: self.meter(),
                received: self.bytes_in,
                max: quota,
            });
        }
        Ok(())
    }

    /// Non-blocking flush of pending acks; returns `false` when the peer is
    /// unwritable (gone).
    fn flush(&mut self) -> bool {
        while !self.write_buf.is_empty() {
            match self.stream.write(&self.write_buf) {
                Ok(0) => return false,
                Ok(n) => {
                    self.write_buf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }

    /// One multiplexer pass over this session. Returns `Some(reason)` when
    /// the session is done, `None` to keep it registered. `made_progress`
    /// is set when bytes moved (lets the worker skip its idle sleep).
    fn pump(
        &mut self,
        shared: &Shared,
        scratch: &mut [u8],
        now: Instant,
        draining: bool,
        made_progress: &mut bool,
    ) -> Option<CloseReason> {
        if !self.flush() {
            return Some(CloseReason::IoError);
        }

        // Rate limiting: an empty bucket pauses reads (the kernel's TCP
        // window throttles the sender); the episode is surfaced as one
        // typed error, counted, never silently dropped. Draining sessions
        // bypass the limiter so shutdown is bounded by drain_timeout, not
        // by the trickle rate.
        if !draining && !self.bucket.ready(now) {
            if !self.throttled {
                self.throttled = true;
                let err = Error::RateLimited { meter: self.meter() };
                debug_assert!(!err.to_string().is_empty());
                shared.counters.rate_limit_hits.fetch_add(1, Ordering::Relaxed);
            }
            if now.saturating_duration_since(self.last_activity) > shared.config.idle_timeout {
                return Some(CloseReason::Idle);
            }
            return None;
        }
        self.throttled = false;

        let n = match self.stream.read(scratch) {
            Ok(0) => return Some(CloseReason::Eof),
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if now.saturating_duration_since(self.last_activity) > shared.config.idle_timeout {
                    return Some(CloseReason::Idle);
                }
                return None;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => return None,
            Err(_) => return Some(CloseReason::IoError),
        };
        *made_progress = true;
        self.last_activity = now;
        self.bucket.consume(n as u64);
        shared.counters.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
        if let Err(e) = self.charge_quota(n as u64, shared.config.conn_byte_quota) {
            return Some(CloseReason::Quota(e));
        }

        let chunk = &scratch[..n];
        let step = match &mut self.state {
            SessionState::Handshaking { buf } => {
                buf.extend_from_slice(chunk);
                parse_handshake(buf, &shared.config.auth_token)
            }
            SessionState::Streaming { .. } => return self.ingest_bytes(shared, chunk),
        };
        match step {
            HandshakeStep::NeedMore => None,
            HandshakeStep::Reject(reason) => {
                self.write_buf.push(HANDSHAKE_NAK);
                self.flush();
                Some(reason)
            }
            HandshakeStep::Accept { meter, rest } => {
                self.state = SessionState::Streaming { meter, acked: 0 };
                self.write_buf.push(HANDSHAKE_ACK);
                // Frame bytes may trail the handshake in the same read.
                if rest.is_empty() {
                    None
                } else {
                    self.ingest_bytes(shared, &rest)
                }
            }
        }
    }

    /// Feeds `bytes` through the meter's ingest shard, commits the decoded
    /// frames to that shard's output map, and queues a cumulative ack — in
    /// that order, under the shard's lock, so an acknowledged frame is
    /// always in the output.
    fn ingest_bytes(&mut self, shared: &Shared, bytes: &[u8]) -> Option<CloseReason> {
        let (meter, prev_acked) = match &self.state {
            SessionState::Streaming { meter, acked } => (*meter, *acked),
            _ => return Some(CloseReason::IoError),
        };
        // Fleet-level resource caps close the connection; the shard
        // counters and the fleet's own IngestStats record the rejection.
        let decoded = match shared.shards.ingest_commit(meter, bytes) {
            Some(n) => n,
            None => return Some(CloseReason::IoError),
        };
        if decoded > 0 {
            let acked = prev_acked + decoded;
            self.state = SessionState::Streaming { meter, acked };
            shared.counters.frames_acked.fetch_add(decoded, Ordering::Relaxed);
            self.write_buf.extend_from_slice(&acked.to_le_bytes());
            if !self.flush() {
                return Some(CloseReason::IoError);
            }
        }
        None
    }
}

/// One session worker: claims connections from the acceptor channel and
/// multiplexes them until shutdown (plus drain) completes.
fn session_worker(shared: &Arc<Shared>, conn_rx: &Receiver<TcpStream>) {
    let mut sessions: Vec<Session> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut acceptor_gone = false;
    loop {
        // Claim newly accepted connections without blocking.
        loop {
            match conn_rx.try_recv() {
                Ok(stream) => {
                    let now = Instant::now();
                    match Session::new(stream, shared, now) {
                        Ok(s) => sessions.push(s),
                        Err(_) => {
                            shared.counters.connections_active.fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    acceptor_gone = true;
                    break;
                }
            }
        }

        let draining = shared.shutdown.load(Ordering::Relaxed);
        let force_close =
            draining && shared.drain_deadline().map(|d| Instant::now() >= d).unwrap_or(false);
        let mut made_progress = false;
        let now = Instant::now();
        sessions.retain_mut(|s| {
            let reason = if force_close {
                // Flush whatever acks are pending; anything unacked after
                // the deadline is abandoned, never falsely acknowledged.
                s.flush();
                Some(CloseReason::ForcedDrain)
            } else {
                s.pump(shared, &mut scratch, now, draining, &mut made_progress)
            };
            match reason {
                None => true,
                Some(r) => {
                    match r {
                        CloseReason::AuthFailure => {
                            shared.counters.auth_failures.fetch_add(1, Ordering::Relaxed);
                        }
                        CloseReason::HandshakeError => {
                            shared.counters.handshake_errors.fetch_add(1, Ordering::Relaxed);
                        }
                        CloseReason::Quota(err) => {
                            debug_assert!(matches!(err, Error::QuotaExceeded { .. }));
                            shared.counters.quota_closed.fetch_add(1, Ordering::Relaxed);
                        }
                        CloseReason::Idle => {
                            shared.counters.idle_closed.fetch_add(1, Ordering::Relaxed);
                        }
                        CloseReason::Eof | CloseReason::IoError | CloseReason::ForcedDrain => {}
                    }
                    // A clean close lets the client read every queued ack.
                    s.flush();
                    s.stream.shutdown(std::net::Shutdown::Both).ok();
                    shared.counters.connections_active.fetch_sub(1, Ordering::Relaxed);
                    false
                }
            }
        });

        if acceptor_gone && sessions.is_empty() {
            break;
        }
        if !made_progress {
            std::thread::sleep(Duration::from_micros(500));
        }
    }
}

/// The acceptor loop: non-blocking accepts, connection cap, handoff to the
/// worker channel. Exits when the shutdown flag is set.
fn acceptor_loop(shared: &Arc<Shared>, listener: &TcpListener, conn_tx: Sender<TcpStream>) {
    listener.set_nonblocking(true).expect("loopback listener supports non-blocking");
    while !shared.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let active = shared.counters.connections_active.load(Ordering::Relaxed);
                if active >= shared.config.max_connections as u64 {
                    shared.counters.connections_rejected.fetch_add(1, Ordering::Relaxed);
                    drop(stream); // RST/EOF to the peer
                    continue;
                }
                shared.counters.connections_active.fetch_add(1, Ordering::Relaxed);
                shared.counters.connections_accepted.fetch_add(1, Ordering::Relaxed);
                if conn_tx.send(stream).is_err() {
                    // Every worker died (supervisor respawns make this all
                    // but impossible); undo the accept accounting.
                    shared.counters.connections_active.fetch_sub(1, Ordering::Relaxed);
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// The HTTP/1.1 sidecar: `/metrics`, `/healthz`, `/readyz`. One request per
/// connection, hand-rolled request-line parse, always `Connection: close`.
fn sidecar_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    listener.set_nonblocking(true).expect("loopback listener supports non-blocking");
    loop {
        let draining = shared.shutdown.load(Ordering::Relaxed);
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                stream.set_nonblocking(false).ok();
                stream.set_read_timeout(Some(Duration::from_millis(500))).ok();
                let mut buf = [0u8; 1024];
                let n = match stream.read(&mut buf) {
                    Ok(n) => n,
                    Err(_) => continue,
                };
                let (status, content_type, body) = route_http(&buf[..n], shared, draining);
                let response = format!(
                    "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len(),
                );
                stream.write_all(response.as_bytes()).ok();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if draining {
                    break; // served any last scrape attempts; stop
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Dispatches one HTTP request to `(status line, content type, body)`.
fn route_http(
    request: &[u8],
    shared: &Shared,
    draining: bool,
) -> (&'static str, &'static str, String) {
    let line = request.split(|&b| b == b'\r' || b == b'\n').next().unwrap_or(&[]);
    let mut parts = line.split(|&b| b == b' ');
    let method = parts.next().unwrap_or(&[]);
    let path = parts.next().unwrap_or(&[]);
    if method != b"GET" {
        return (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".into(),
        );
    }
    match path {
        b"/metrics" => {
            let reg = Registry::with_catalog();
            let stats = shared.counters.snapshot(0.0);
            stats.register_into(&reg);
            shared.shards.stats().register_into(&reg);
            ("200 OK", "text/plain; version=0.0.4; charset=utf-8", reg.render_prometheus())
        }
        b"/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".into()),
        b"/readyz" if draining => {
            ("503 Service Unavailable", "text/plain; charset=utf-8", "draining\n".into())
        }
        // Degraded ≠ draining: the node still serves (storage shards
        // failed over to successors) and must stay in rotation, so the
        // status is 200 — but the body tells operators capacity is
        // impaired. Draining wins when both are set.
        b"/readyz" if shared.degraded.load(Ordering::Relaxed) => {
            ("200 OK", "text/plain; charset=utf-8", "degraded\n".into())
        }
        b"/readyz" => ("200 OK", "text/plain; charset=utf-8", "ready\n".into()),
        _ => ("404 Not Found", "text/plain; charset=utf-8", "not found\n".into()),
    }
}

/// Everything a finished gateway run reports.
#[derive(Debug)]
pub struct GatewayReport {
    /// Per-meter decoded messages, in per-meter arrival order — identical
    /// to what an in-process [`FleetIngest`] run over the same per-meter
    /// byte streams produces.
    pub output: BTreeMap<u64, Vec<SensorMessage>>,
    /// Final gateway counters (with [`GatewayStats::drain_secs`] filled).
    pub stats: GatewayStats,
    /// The shared fleet's ingest counters.
    pub ingest: IngestStats,
    /// Supervision counters of the session-worker pool (panics, respawns).
    pub pool: PoolStats,
}

impl GatewayReport {
    /// Folds this report into an [`EngineStats`] carrying the `gateway`,
    /// `ingest`, and `pool` blocks, ready for `--metrics` export.
    pub fn engine_stats(&self) -> EngineStats {
        EngineStats {
            gateway: Some(self.stats),
            ingest: Some(self.ingest.clone()),
            pool: Some(self.pool),
            ..EngineStats::default()
        }
    }
}

/// A running gateway instance; dropping it without calling
/// [`shutdown`](Self::shutdown) aborts the background threads hard (tests
/// should always shut down).
pub struct Gateway {
    shared: Arc<Shared>,
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    runtime: Option<JoinHandle<PoolStats>>,
    acceptor: Option<JoinHandle<()>>,
    sidecar: Option<JoinHandle<()>>,
}

impl Gateway {
    /// Binds the listeners and starts the acceptor, the supervised session
    /// workers, and (when configured) the HTTP sidecar.
    pub fn start(config: GatewayConfig) -> Result<Gateway> {
        let listener = TcpListener::bind(("127.0.0.1", config.port))
            .map_err(|e| Error::Engine(format!("gateway bind failed: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::Engine(format!("gateway local_addr failed: {e}")))?;
        let metrics_listener = if config.http_metrics {
            Some(
                TcpListener::bind(("127.0.0.1", 0))
                    .map_err(|e| Error::Engine(format!("sidecar bind failed: {e}")))?,
            )
        } else {
            None
        };
        let metrics_addr = match &metrics_listener {
            Some(l) => Some(
                l.local_addr()
                    .map_err(|e| Error::Engine(format!("sidecar local_addr failed: {e}")))?,
            ),
            None => None,
        };

        let workers = config.workers.max(1);
        let ingest = config.ingest;
        let ingest_shards = config.ingest_shards;
        let shared = Arc::new(Shared {
            config,
            shutdown: AtomicBool::new(false),
            degraded: AtomicBool::new(false),
            shutdown_at: Mutex::new(None),
            counters: Counters::default(),
            shards: IngestShards::new(ingest_shards, ingest)?,
        });

        let (conn_tx, conn_rx) = channel::bounded::<TcpStream>(workers * 8);

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("smg-acceptor".into())
                .spawn(move || acceptor_loop(&shared, &listener, conn_tx))
                .map_err(|e| Error::Engine(format!("acceptor spawn failed: {e}")))?
        };

        // The session handlers run as jobs on the supervised pool: one job
        // per worker loop, so a panicking handler is caught, counted in
        // PoolStats, and the loop re-entered via retry — the same isolation
        // the fleet encoder gets. This thread runs session worker 0.
        let runtime = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("smg-runtime".into())
                .spawn(move || {
                    let retry = RetryPolicy::with_max_attempts(u32::MAX).no_backoff();
                    let report = pool::run_indexed_supervised_with(
                        workers,
                        &PoolConfig::with_workers(workers),
                        &retry,
                        || (),
                        |(), _idx, _attempt| session_worker(&shared, &conn_rx),
                    );
                    report.stats
                })
                .map_err(|e| Error::Engine(format!("runtime spawn failed: {e}")))?
        };

        let sidecar = match metrics_listener {
            Some(listener) => Some({
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name("smg-sidecar".into())
                    .spawn(move || sidecar_loop(&shared, &listener))
                    .map_err(|e| Error::Engine(format!("sidecar spawn failed: {e}")))?
            }),
            None => None,
        };

        Ok(Gateway {
            shared,
            addr,
            metrics_addr,
            runtime: Some(runtime),
            acceptor: Some(acceptor),
            sidecar,
        })
    }

    /// The meter-facing TCP address (loopback, ephemeral port by default).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The HTTP sidecar address, when [`GatewayConfig::http_metrics`] is on.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// A live snapshot of the gateway counters.
    pub fn stats(&self) -> GatewayStats {
        self.shared.counters.snapshot(0.0)
    }

    /// Flips the degraded flag: `/readyz` answers `200 degraded` instead
    /// of `200 ready` while set (draining still wins with its 503). Wired
    /// by the durability layer when a storage shard dies and its houses
    /// fail over ([`crate::durable::DurableFleet`]).
    pub fn set_degraded(&self, degraded: bool) {
        self.shared.degraded.store(degraded, Ordering::SeqCst);
    }

    /// Whether the degraded flag is currently set.
    pub fn degraded(&self) -> bool {
        self.shared.degraded.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: stop accepting, flip `/readyz` to 503, drain
    /// in-flight sessions through the fleet (bounded by
    /// [`GatewayConfig::drain_timeout`]), and return the final report. No
    /// acknowledged frame is ever lost: acks are written only after their
    /// frames are committed to the output this report carries.
    pub fn shutdown(mut self) -> GatewayReport {
        let drain_started = Instant::now();
        *self.shared.shutdown_at.lock().unwrap() = Some(drain_started);
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            h.join().ok();
        }
        let pool_stats = match self.runtime.take() {
            Some(h) => h.join().unwrap_or_default(),
            None => PoolStats::default(),
        };
        if let Some(h) = self.sidecar.take() {
            h.join().ok();
        }
        let drain_secs = drain_started.elapsed().as_secs_f64();
        let (output, ingest) = self.shared.shards.take_report();
        GatewayReport {
            output,
            stats: self.shared.counters.snapshot(drain_secs),
            ingest,
            pool: pool_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::encoder::EncodedWindow;
    use crate::lookup::LookupTable;
    use crate::separators::SeparatorMethod;
    use crate::symbol::Symbol;
    use crate::wire::encode_message;

    fn table() -> LookupTable {
        let values: Vec<f64> = (0..400).map(|i| ((i * 31) % 320) as f64).collect();
        LookupTable::learn(SeparatorMethod::Median, Alphabet::with_size(8).unwrap(), &values)
            .unwrap()
    }

    fn meter_stream(windows: i64) -> (Vec<SensorMessage>, Vec<u8>) {
        let mut msgs = vec![SensorMessage::Table(table())];
        msgs.extend((0..windows).map(|i| {
            SensorMessage::Window(EncodedWindow {
                window_start: i * 900,
                symbol: Symbol::from_rank((i % 8) as u16, 3).unwrap(),
                samples: 900,
            })
        }));
        let wire = msgs.iter().flat_map(|m| encode_message(m).unwrap()).collect();
        (msgs, wire)
    }

    fn connect_and_stream(
        addr: SocketAddr,
        meter: u64,
        token: &[u8],
        wire: &[u8],
        expect_frames: u64,
    ) -> u64 {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(&encode_handshake(meter, token)).unwrap();
        let mut ack = [0u8; 1];
        conn.read_exact(&mut ack).unwrap();
        assert_eq!(ack[0], HANDSHAKE_ACK);
        conn.write_all(wire).unwrap();
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        // Read cumulative acks until EOF; the last one is the total.
        let mut last = 0u64;
        let mut buf = [0u8; 8];
        while conn.read_exact(&mut buf).is_ok() {
            last = u64::from_le_bytes(buf);
        }
        assert_eq!(last, expect_frames);
        last
    }

    #[test]
    fn handshake_roundtrip_layout() {
        let hs = encode_handshake(0xDEAD_BEEF, b"tok");
        assert_eq!(&hs[..4], &HANDSHAKE_MAGIC);
        assert_eq!(u64::from_le_bytes(hs[4..12].try_into().unwrap()), 0xDEAD_BEEF);
        assert_eq!(u16::from_le_bytes([hs[12], hs[13]]), 3);
        assert_eq!(&hs[14..], b"tok");
    }

    #[test]
    fn token_bucket_refills_and_bursts() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(1000, 10, t0);
        assert!(b.ready(t0));
        b.consume(10);
        assert!(!b.ready(t0), "burst spent, no refill yet");
        assert!(b.ready(t0 + Duration::from_millis(50)), "50ms at 1000 B/s refills 50 tokens");
        let mut unlimited = TokenBucket::new(0, 1, t0);
        unlimited.consume(1_000_000);
        assert!(unlimited.ready(t0), "rate 0 disables limiting");
    }

    #[test]
    fn single_meter_loopback_roundtrip() {
        let (msgs, wire) = meter_stream(10);
        let gw = Gateway::start(GatewayConfig::default().workers(1)).unwrap();
        connect_and_stream(gw.local_addr(), 42, b"smg-local-dev", &wire, msgs.len() as u64);
        let report = gw.shutdown();
        assert_eq!(report.output.len(), 1);
        assert_eq!(report.output[&42], msgs);
        assert_eq!(report.stats.connections_accepted, 1);
        assert_eq!(report.stats.connections_active, 0);
        assert_eq!(report.stats.frames_acked, msgs.len() as u64);
        assert_eq!(
            report.stats.bytes_in,
            (wire.len() + encode_handshake(42, b"smg-local-dev").len()) as u64
        );
        assert_eq!(report.ingest.frames_ok, msgs.len() as u64);
    }

    #[test]
    fn epoch_table_cutover_flows_through_the_gateway() {
        // A meter that re-learns its separators mid-stream ships the new
        // table as an epoch frame; the gateway must commit it in order so
        // the server decodes pre-cutover windows under epoch 0 and
        // post-cutover windows under epoch 1.
        let win = |i: i64| {
            SensorMessage::Window(EncodedWindow {
                window_start: i * 900,
                symbol: Symbol::from_rank((i % 8) as u16, 3).unwrap(),
                samples: 900,
            })
        };
        let msgs = vec![
            SensorMessage::Table(table()),
            win(0),
            win(1),
            SensorMessage::EpochTable { epoch: 1, table: table() },
            win(2),
        ];
        let wire: Vec<u8> = msgs.iter().flat_map(|m| encode_message(m).unwrap()).collect();
        let gw = Gateway::start(GatewayConfig::default().workers(1)).unwrap();
        connect_and_stream(gw.local_addr(), 9, b"smg-local-dev", &wire, msgs.len() as u64);
        let report = gw.shutdown();
        assert_eq!(report.output[&9], msgs, "cutover frame must arrive in stream order");
        assert_eq!(report.ingest.frames_ok, msgs.len() as u64);
        assert_eq!(report.ingest.frames_corrupt, 0);
    }

    #[test]
    fn bad_token_is_nakked_and_counted() {
        let gw = Gateway::start(GatewayConfig::default().workers(1)).unwrap();
        let mut conn = TcpStream::connect(gw.local_addr()).unwrap();
        conn.write_all(&encode_handshake(7, b"wrong-token")).unwrap();
        let mut ack = [0u8; 1];
        conn.read_exact(&mut ack).unwrap();
        assert_eq!(ack[0], HANDSHAKE_NAK);
        // Server closes: next read is EOF.
        let mut rest = Vec::new();
        assert_eq!(conn.read_to_end(&mut rest).unwrap_or(0), 0);
        let report = gw.shutdown();
        assert_eq!(report.stats.auth_failures, 1);
        assert!(report.output.is_empty());
    }

    #[test]
    fn token_compare_is_constant_time_shaped_and_rejects_same_length_tokens() {
        // Unit properties of the comparator itself: equality, and mismatches
        // at the first byte, the last byte, and in length.
        assert!(constant_time_eq(b"", b""));
        assert!(constant_time_eq(b"smg-local-dev", b"smg-local-dev"));
        assert!(!constant_time_eq(b"Xmg-local-dev", b"smg-local-dev"));
        assert!(!constant_time_eq(b"smg-local-deX", b"smg-local-dev"));
        assert!(!constant_time_eq(b"smg-local-de", b"smg-local-dev"));
        // Regression for the early-exit `==` compare: a same-length token
        // differing only in the final byte must still be NAKed.
        let gw = Gateway::start(GatewayConfig::default().workers(1)).unwrap();
        let mut conn = TcpStream::connect(gw.local_addr()).unwrap();
        conn.write_all(&encode_handshake(7, b"smg-local-deX")).unwrap();
        let mut ack = [0u8; 1];
        conn.read_exact(&mut ack).unwrap();
        assert_eq!(ack[0], HANDSHAKE_NAK);
        let report = gw.shutdown();
        assert_eq!(report.stats.auth_failures, 1);
        assert!(report.output.is_empty());
    }

    #[test]
    fn bad_magic_is_a_handshake_error() {
        let gw = Gateway::start(GatewayConfig::default().workers(1)).unwrap();
        let mut conn = TcpStream::connect(gw.local_addr()).unwrap();
        conn.write_all(b"HTTP/1.1 GET / pls\r\n").unwrap();
        let mut ack = [0u8; 1];
        conn.read_exact(&mut ack).unwrap();
        assert_eq!(ack[0], HANDSHAKE_NAK);
        let report = gw.shutdown();
        assert_eq!(report.stats.handshake_errors, 1);
        assert_eq!(report.stats.auth_failures, 0);
    }

    #[test]
    fn byte_quota_closes_and_counts() {
        let (_, wire) = meter_stream(50);
        let quota = (encode_handshake(1, b"smg-local-dev").len() + 64) as u64;
        let gw =
            Gateway::start(GatewayConfig::default().workers(1).conn_byte_quota(quota)).unwrap();
        let mut conn = TcpStream::connect(gw.local_addr()).unwrap();
        conn.write_all(&encode_handshake(1, b"smg-local-dev")).unwrap();
        let mut ack = [0u8; 1];
        conn.read_exact(&mut ack).unwrap();
        assert_eq!(ack[0], HANDSHAKE_ACK);
        // Push until the server hangs up.
        let mut sent = 0usize;
        loop {
            match conn.write(&wire[sent % wire.len()..]) {
                Ok(0) | Err(_) => break,
                Ok(n) => sent += n,
            }
            if sent > 1 << 20 {
                break; // safety net; quota must have tripped long before
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let report = gw.shutdown();
        assert_eq!(report.stats.quota_closed, 1, "{:?}", report.stats);
    }

    #[test]
    fn sidecar_serves_metrics_health_ready() {
        let gw = Gateway::start(GatewayConfig::default().workers(1).http_metrics(true)).unwrap();
        let addr = gw.metrics_addr().expect("sidecar enabled");
        let get = |path: &str| -> String {
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes()).unwrap();
            let mut out = String::new();
            conn.read_to_string(&mut out).unwrap();
            out
        };
        assert!(get("/healthz").starts_with("HTTP/1.1 200"));
        assert!(get("/readyz").starts_with("HTTP/1.1 200"));
        let metrics = get("/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200"));
        assert!(metrics.contains("# TYPE sms_gateway_connections_accepted counter"), "{metrics}");
        assert!(metrics.contains("sms_gateway_bytes_in"));
        assert!(get("/nope").starts_with("HTTP/1.1 404"));
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"POST /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut out = String::new();
        conn.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 405"));
        gw.shutdown();
    }

    #[test]
    fn readyz_reports_degraded_but_stays_in_rotation() {
        let gw = Gateway::start(GatewayConfig::default().workers(1).http_metrics(true)).unwrap();
        let addr = gw.metrics_addr().expect("sidecar enabled");
        let get = |path: &str| -> String {
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes()).unwrap();
            let mut out = String::new();
            conn.read_to_string(&mut out).unwrap();
            out
        };
        let ready = get("/readyz");
        assert!(ready.starts_with("HTTP/1.1 200"), "{ready}");
        assert!(ready.ends_with("ready\n"), "{ready}");
        assert!(!gw.degraded());
        gw.set_degraded(true);
        assert!(gw.degraded());
        // Degraded is a 200: the node still serves and must stay in the
        // load-balancer rotation, but operators see the impaired state.
        let degraded = get("/readyz");
        assert!(degraded.starts_with("HTTP/1.1 200"), "{degraded}");
        assert!(degraded.ends_with("degraded\n"), "{degraded}");
        // Health stays green; degradation is a readiness concern.
        assert!(get("/healthz").starts_with("HTTP/1.1 200"));
        gw.set_degraded(false);
        assert!(get("/readyz").ends_with("ready\n"));
        // Draining wins over degraded: once shutdown starts, /readyz is 503.
        gw.set_degraded(true);
        gw.shutdown();
    }

    #[test]
    fn ingest_shards_enforce_global_caps_in_fleet_order() {
        let shards =
            IngestShards::new(4, IngestConfig::default().max_meters(2).max_buffered_bytes(8))
                .unwrap();
        // Partial frames stay buffered (a valid window tag, header cut short).
        assert_eq!(shards.ingest_commit(1, &[0x02, 0]), Some(0));
        assert_eq!(shards.ingest_commit(2, &[0x02, 0]), Some(0));
        // The backlog check fires before the meter cap (FleetIngest order).
        assert_eq!(shards.ingest_commit(3, &[0; 16]), None);
        let stats = shards.stats();
        assert_eq!((stats.backlog_rejections, stats.meters_rejected), (1, 0));
        // A small chunk from a third meter trips the global meter cap even
        // though its shard has room.
        assert_eq!(shards.ingest_commit(3, &[0]), None);
        assert_eq!(shards.stats().meters_rejected, 1);
        // Neither refusal changed any state.
        assert_eq!(shards.meters.load(Ordering::Acquire), 2);
        assert_eq!(shards.buffered.load(Ordering::Acquire), 4);
        // Existing meters keep flowing.
        assert_eq!(shards.ingest_commit(1, &[0]), Some(0));
    }

    #[test]
    fn stats_json_has_every_counter() {
        let stats = GatewayStats {
            connections_accepted: 1,
            connections_rejected: 2,
            connections_active: 3,
            auth_failures: 4,
            handshake_errors: 5,
            rate_limit_hits: 6,
            quota_closed: 7,
            idle_closed: 8,
            bytes_in: 9,
            frames_acked: 10,
            drain_secs: 0.5,
        };
        let json = stats.to_json();
        for key in [
            "connections_accepted",
            "connections_rejected",
            "connections_active",
            "auth_failures",
            "handshake_errors",
            "rate_limit_hits",
            "quota_closed",
            "idle_closed",
            "bytes_in",
            "frames_acked",
            "drain_secs",
        ] {
            assert!(json.contains(key), "{json} missing {key}");
        }
    }

    #[test]
    fn typed_gateway_errors_render() {
        let e = Error::RateLimited { meter: 9 };
        assert!(e.to_string().contains("rate-limited"));
        let e = Error::QuotaExceeded { meter: 9, received: 100, max: 64 };
        assert!(e.to_string().contains("quota"));
    }
}
