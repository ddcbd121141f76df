//! Network-facing fleet gateway over `std::net`.
//!
//! The paper's deployment story (§2.3) has thousands of meters pushing
//! symbolic streams at a utility concentrator; until now this reproduction
//! had no front door — every byte entered through in-process
//! [`FleetIngest`] calls. This module is that front door: a zero-dependency
//! TCP server that terminates concurrent meter connections, authenticates
//! each one with a token handshake, rate-limits and quota-checks the byte
//! streams, and feeds every byte to one [`FleetIngest`], the type the
//! in-process path uses — so the decoded fleet output is byte-identical to
//! a local run. The fleet's own `max_meters` and `max_buffered_bytes` caps
//! apply: a chunk they refuse closes its connection.
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
//! construction rather than by timing. Every session decodes and commits
//! under one lock over the fleet and its output; the ack follows.
//!
//! ## Thread model
//!
//! There is no acceptor thread. The **session workers** run as jobs on the
//! existing supervised [`crate::pool`] (`run_indexed_supervised_with`), so
//! a panicking handler is caught, counted, and respawned by the same
//! machinery that protects fleet encodes. Each worker blocks in `poll(2)`
//! on the shared non-blocking listener and on its own sessions, and wakes
//! only when a connection arrives, bytes land, or a deadline it computed
//! passes: a session's idle timeout, a throttled session's token refill,
//! or the drain deadline. Whichever worker wakes first on the listener
//! accepts, enforcing the connection cap. The `smg-runtime` thread that
//! starts the pool is session worker 0 itself, and the pool spawns the
//! other `workers − 1`. Off Linux the wait is a 500 µs sleep after which
//! every socket counts as ready. An optional **HTTP/1.1 sidecar** thread
//! blocks in `accept` and serves `/metrics` (Prometheus text), `/healthz`,
//! and `/readyz` with a hand-rolled parser. [`Gateway::shutdown`] wakes
//! every worker, which stops accepting; it flips `/readyz` to 503, drains
//! in-flight sessions until EOF or the drain timeout, and returns the
//! fleet output plus a final [`GatewayStats`] block.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::encoder::SensorMessage;
use crate::engine::EngineStats;
use crate::error::{Error, Result};
use crate::ingest::{FleetIngest, IngestConfig, IngestStats};
use crate::json::JsonWriter;
use crate::pool::{self, PoolConfig, PoolStats, RetryPolicy};
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
    /// Session-worker threads. Each waits on the listener and on its own
    /// sessions, accepts when a connection arrives, and serves the
    /// sessions it accepted.
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
    /// Policy of the one [`FleetIngest`] behind every session, its
    /// `max_meters` and `max_buffered_bytes` caps included: a chunk a cap
    /// refuses closes its connection, and [`IngestStats`] counts why.
    pub ingest: IngestConfig,
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
}

/// Counter block describing one gateway run; joins
/// [`EngineStats`] JSON as its `gateway` object and the telemetry CATALOG
/// as `sms_gateway_*` Prometheus series.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GatewayStats {
    /// Connections a session worker accepted under the connection cap.
    pub connections_accepted: u64,
    /// Connections closed at accept time because `max_connections`
    /// sessions were active. A connection arriving during the drain is
    /// never accepted, so it counts in neither.
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
            "Meter connections a session worker accepted under the connection cap.";
        add connections_rejected, "connections",
            "Connections closed at accept time because the connection cap was reached.";
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

/// Live counters shared by the session workers and the sidecar.
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

/// The ingest state behind every session: the one [`FleetIngest`] and the
/// per-meter decoded output, mutated together under one lock so a meter's
/// decoded stream is identical to an in-process run over the same
/// per-meter bytes.
struct Core {
    fleet: FleetIngest,
    output: BTreeMap<u64, Vec<SensorMessage>>,
}

struct Shared {
    config: GatewayConfig,
    /// The non-blocking meter listener, in every worker's wait until
    /// shutdown; whichever worker wakes first accepts.
    listener: TcpListener,
    /// Ends every worker's wait when shutdown starts.
    waker: sys::Waker,
    /// Set by [`Gateway::shutdown`]: workers stop accepting and drain.
    shutdown: AtomicBool,
    /// Set by [`Gateway::shutdown`] once the drain is over: the sidecar
    /// stops at its next accept.
    sidecar_stop: AtomicBool,
    /// Set by [`Gateway::set_degraded`]: the instance still serves (e.g.
    /// durable-store shards failed over) but `/readyz` reports `degraded`
    /// so operators see impaired capacity without pulling the node.
    degraded: AtomicBool,
    /// When the shutdown flag was set (drain deadline anchor).
    shutdown_at: Mutex<Option<Instant>>,
    counters: Counters,
    core: Mutex<Core>,
}

impl Shared {
    /// The ingest state. Sessions commit under this lock, so a panic
    /// while it is held leaves no consistent state to serve from.
    fn core(&self) -> MutexGuard<'_, Core> {
        self.core.lock().expect("a session panicked while committing")
    }

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

    /// When a limited bucket next holds a whole token, counted from its
    /// last refill.
    fn refill_at(&self) -> Instant {
        self.refilled_at + Duration::from_secs_f64((1.0 - self.tokens).max(0.0) / self.rate)
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
    /// When the session must be pumped even if its socket stays quiet: its
    /// idle deadline, or a throttled bucket's refill if that comes first.
    /// Set by [`Session::arm`] before each wait.
    due: Option<Instant>,
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
            due: None,
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

    /// The session's entry in its worker's next wait, and its [`due`]
    /// instant: `POLLIN` unless its token bucket is empty, `POLLOUT` while
    /// acks are queued.
    ///
    /// Rate limiting: an empty bucket pauses reads (the kernel's TCP window
    /// throttles the sender); the episode is surfaced as one typed error,
    /// counted, never silently dropped. Draining sessions bypass the
    /// limiter so shutdown is bounded by drain_timeout, not by the trickle
    /// rate.
    ///
    /// [`due`]: Session::due
    fn arm(&mut self, shared: &Shared, now: Instant, draining: bool) -> sys::PollFd {
        let throttled = !draining && !self.bucket.ready(now);
        if throttled && !self.throttled {
            let err = Error::RateLimited { meter: self.meter() };
            debug_assert!(!err.to_string().is_empty());
            shared.counters.rate_limit_hits.fetch_add(1, Ordering::Relaxed);
        }
        self.throttled = throttled;
        self.due = self.last_activity.checked_add(shared.config.idle_timeout);
        let mut events = 0;
        if throttled {
            self.due = earliest(self.due, Some(self.bucket.refill_at()));
        } else {
            events |= sys::POLLIN;
        }
        if !self.write_buf.is_empty() {
            events |= sys::POLLOUT;
        }
        sys::PollFd::new(&self.stream, events)
    }

    /// `Some(Idle)` once the session has been silent for the idle timeout.
    fn idle(&self, shared: &Shared, now: Instant) -> Option<CloseReason> {
        (now.saturating_duration_since(self.last_activity) >= shared.config.idle_timeout)
            .then_some(CloseReason::Idle)
    }

    /// Moves the session on after a wait that found it ready or due:
    /// flushes queued acks, then reads once unless throttled. A hang-up or
    /// error is read even when throttled, so a dead peer closes at once.
    /// One read is enough: a socket with more bytes than the scratch holds
    /// is still ready at the next wait. Returns `Some(reason)` when the
    /// session is done, `None` to keep it registered.
    fn pump(
        &mut self,
        shared: &Shared,
        scratch: &mut [u8],
        now: Instant,
        hangup: bool,
    ) -> Option<CloseReason> {
        if !self.flush() {
            return Some(CloseReason::IoError);
        }
        if self.throttled && !hangup {
            return self.idle(shared, now);
        }

        let n = match self.stream.read(scratch) {
            Ok(0) => return Some(CloseReason::Eof),
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return self.idle(shared, now),
            Err(e) if e.kind() == ErrorKind::Interrupted => return None,
            Err(_) => return Some(CloseReason::IoError),
        };
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
                if !self.flush() {
                    return Some(CloseReason::IoError);
                }
                // Frame bytes may trail the handshake in the same read.
                if rest.is_empty() {
                    None
                } else {
                    self.ingest_bytes(shared, &rest)
                }
            }
        }
    }

    /// Feeds `bytes` through the gateway's [`FleetIngest`] and commits the
    /// decoded frames to the meter's output, both under the ingest lock,
    /// then queues a cumulative ack, so an acknowledged frame is always in
    /// the output.
    fn ingest_bytes(&mut self, shared: &Shared, bytes: &[u8]) -> Option<CloseReason> {
        let (meter, prev_acked) = match &self.state {
            SessionState::Streaming { meter, acked } => (*meter, *acked),
            _ => return Some(CloseReason::IoError),
        };
        let decoded = {
            let mut core = shared.core();
            // A chunk the fleet's caps refuse closes the connection; the
            // fleet's IngestStats count the rejection.
            let Ok(msgs) = core.fleet.ingest(meter, bytes) else {
                return Some(CloseReason::IoError);
            };
            let n = msgs.len() as u64;
            core.output.entry(meter).or_default().extend(msgs);
            n
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

    /// Counts why the session ended, flushes its queued acks (a clean
    /// close lets the client read every one), and closes it.
    fn close(&mut self, shared: &Shared, reason: CloseReason) {
        let counters = &shared.counters;
        let counter = match reason {
            CloseReason::AuthFailure => Some(&counters.auth_failures),
            CloseReason::HandshakeError => Some(&counters.handshake_errors),
            CloseReason::Quota(err) => {
                debug_assert!(matches!(err, Error::QuotaExceeded { .. }));
                Some(&counters.quota_closed)
            }
            CloseReason::Idle => Some(&counters.idle_closed),
            CloseReason::Eof | CloseReason::IoError | CloseReason::ForcedDrain => None,
        };
        if let Some(counter) = counter {
            counter.fetch_add(1, Ordering::Relaxed);
        }
        self.flush();
        self.stream.shutdown(std::net::Shutdown::Both).ok();
        counters.connections_active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The earlier of two optional instants; `None` means never.
fn earliest(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Readiness waits. On Linux a worker blocks in `poll(2)` on its sockets.
/// Elsewhere the wait is a 500 µs sleep after which every entry counts as
/// ready, and the worker re-reads the shutdown flag every pass.
mod sys {
    use std::ffi::{c_int, c_short};
    #[cfg(target_os = "linux")]
    use std::io::Write;
    #[cfg(target_os = "linux")]
    use std::os::unix::{io::AsRawFd, net::UnixStream};
    use std::time::Duration;

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;
    pub const POLLERR: c_short = 0x008;
    pub const POLLHUP: c_short = 0x010;

    /// One entry of a wait, laid out as Linux's `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        fd: c_int,
        events: c_short,
        /// What the wait found ready (errors and hang-ups always count).
        pub revents: c_short,
    }

    #[cfg(target_os = "linux")]
    impl PollFd {
        pub fn new(socket: &impl AsRawFd, events: c_short) -> Self {
            PollFd { fd: socket.as_raw_fd(), events, revents: 0 }
        }
    }

    #[cfg(not(target_os = "linux"))]
    impl PollFd {
        pub fn new<S>(_socket: &S, events: c_short) -> Self {
            PollFd { fd: -1, events, revents: 0 }
        }
    }

    /// Blocks until an entry of `fds` is ready or `timeout` passes (`None`
    /// waits for readiness alone), rounding the timeout up to whole
    /// milliseconds so a deadline has passed when it returns.
    #[cfg(target_os = "linux")]
    #[allow(unsafe_code)]
    pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) {
        use std::ffi::c_ulong;
        extern "C" {
            fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
        }
        let ms = timeout
            .map_or(-1, |t| t.as_nanos().div_ceil(1_000_000).min(c_int::MAX as u128) as c_int);
        // SAFETY: `PollFd` is `#[repr(C)]` with the fields of Linux's
        // `struct pollfd` in order (int fd, short events, short revents),
        // and `nfds_t` is `unsigned long`. `fds` is a live slice,
        // exclusively borrowed for the whole call, so the kernel reads and
        // writes exactly its `fds.len()` entries and nothing else. The
        // return value is ignored: a failure (`EINTR` when a signal lands)
        // leaves every `revents` at the 0 `PollFd::new` wrote, which the
        // caller treats as a spurious wake, re-checking its deadlines.
        unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, ms) };
    }

    #[cfg(not(target_os = "linux"))]
    pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) {
        let nap = Duration::from_micros(500);
        std::thread::sleep(timeout.map_or(nap, |t| t.min(nap)));
        for fd in fds {
            fd.revents = fd.events;
        }
    }

    /// The shutdown wake-up: a socket pair whose read end sits in every
    /// worker's wait and is never drained, so one byte keeps it readable.
    #[cfg(target_os = "linux")]
    pub struct Waker {
        rx: UnixStream,
        tx: UnixStream,
    }

    #[cfg(target_os = "linux")]
    impl Waker {
        pub fn new() -> std::io::Result<Self> {
            let (tx, rx) = UnixStream::pair()?;
            Ok(Waker { rx, tx })
        }

        pub fn entry(&self) -> PollFd {
            PollFd::new(&self.rx, POLLIN)
        }

        pub fn wake(&self) {
            (&self.tx).write_all(&[1]).ok();
        }
    }

    /// Off Linux the wake-up is an entry that is never ready.
    #[cfg(not(target_os = "linux"))]
    pub struct Waker;

    #[cfg(not(target_os = "linux"))]
    impl Waker {
        pub fn new() -> std::io::Result<Self> {
            Ok(Waker)
        }

        pub fn entry(&self) -> PollFd {
            PollFd::new(self, 0)
        }

        pub fn wake(&self) {}
    }
}

/// One session worker: waits until the listener or one of its sessions is
/// ready or due, accepts and pumps, until shutdown (plus drain) completes.
fn session_worker(shared: &Shared) {
    let mut sessions: Vec<Session> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut fds: Vec<sys::PollFd> = Vec::new();
    loop {
        let draining = shared.shutdown.load(Ordering::SeqCst);
        if draining && sessions.is_empty() {
            return;
        }
        // Until shutdown the wait covers the wake-up and the listener; once
        // draining, only the sessions, until the drain deadline.
        let now = Instant::now();
        fds.clear();
        let mut due = None;
        if draining {
            due = shared.drain_deadline();
        } else {
            fds.push(shared.waker.entry());
            fds.push(sys::PollFd::new(&shared.listener, sys::POLLIN));
        }
        let first_session = fds.len();
        for s in &mut sessions {
            fds.push(s.arm(shared, now, draining));
            due = earliest(due, s.due);
        }
        sys::wait(&mut fds, due.map(|t| t.saturating_duration_since(now)));

        let now = Instant::now();
        if draining && shared.drain_deadline().is_some_and(|d| now >= d) {
            // Flush whatever acks are pending; anything unacked after the
            // deadline is abandoned, never falsely acknowledged.
            for mut s in sessions.drain(..) {
                s.close(shared, CloseReason::ForcedDrain);
            }
            continue;
        }
        let mut revents = fds[first_session..].iter().map(|fd| fd.revents);
        sessions.retain_mut(|s| {
            let ready = revents.next().expect("one poll entry per session");
            if ready == 0 && s.due.is_none_or(|d| now < d) {
                return true;
            }
            let hangup = ready & (sys::POLLERR | sys::POLLHUP) != 0;
            match s.pump(shared, &mut scratch, now, hangup) {
                None => true,
                Some(reason) => {
                    s.close(shared, reason);
                    false
                }
            }
        });
        if !draining && fds[1].revents != 0 {
            accept_ready(shared, &mut sessions, &mut scratch);
        }
    }
}

/// Accepts every pending connection the cap admits, and pumps each new
/// session once, since its handshake has often arrived with it. Another
/// worker may have taken the connection that woke this one: `WouldBlock`
/// ends the pass, as does any other accept error, left to the next wake.
fn accept_ready(shared: &Shared, sessions: &mut Vec<Session>, scratch: &mut [u8]) {
    let counters = &shared.counters;
    let cap = shared.config.max_connections as u64;
    loop {
        let stream = match shared.listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        // Reserve a slot before counting the accept, so the cap holds
        // exactly while several workers accept. Relaxed: the count
        // publishes no other data, and read-modify-writes of one atomic
        // are totally ordered.
        let reserved = counters
            .connections_active
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| (n < cap).then_some(n + 1))
            .is_ok();
        if !reserved {
            counters.connections_rejected.fetch_add(1, Ordering::Relaxed);
            continue; // dropping the stream closes it: RST/EOF to the peer
        }
        counters.connections_accepted.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        let mut session = match Session::new(stream, shared, now) {
            Ok(session) => session,
            Err(_) => {
                counters.connections_active.fetch_sub(1, Ordering::Relaxed);
                continue;
            }
        };
        match session.pump(shared, scratch, now, false) {
            None => sessions.push(session),
            Some(reason) => session.close(shared, reason),
        }
    }
}

/// The HTTP/1.1 sidecar: `/metrics`, `/healthz`, `/readyz`. One request per
/// connection, hand-rolled request-line parse, always `Connection: close`.
/// It blocks in `accept`, so it serves `/readyz` 503 throughout the drain;
/// [`Gateway::shutdown`] stops it after the drain with the stop flag and a
/// connection of its own.
fn sidecar_loop(shared: &Shared, listener: &TcpListener) {
    for stream in listener.incoming() {
        if shared.sidecar_stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        stream.set_read_timeout(Some(Duration::from_millis(500))).ok();
        let mut buf = [0u8; 1024];
        let Ok(n) = stream.read(&mut buf) else { continue };
        let draining = shared.shutdown.load(Ordering::Relaxed);
        let (status, content_type, body) = route_http(&buf[..n], shared, draining);
        let response = format!(
            "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len(),
        );
        stream.write_all(response.as_bytes()).ok();
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
            shared.core().fleet.stats().register_into(&reg);
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
    sidecar: Option<JoinHandle<()>>,
}

impl Gateway {
    /// Binds the listeners and starts the supervised session workers and
    /// (when configured) the HTTP sidecar.
    pub fn start(config: GatewayConfig) -> Result<Gateway> {
        let listener = TcpListener::bind(("127.0.0.1", config.port))
            .map_err(|e| Error::Engine(format!("gateway bind failed: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::Engine(format!("gateway local_addr failed: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| Error::Engine(format!("gateway set_nonblocking failed: {e}")))?;
        let waker =
            sys::Waker::new().map_err(|e| Error::Engine(format!("gateway waker failed: {e}")))?;
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
        let fleet = FleetIngest::new(config.ingest);
        let shared = Arc::new(Shared {
            config,
            listener,
            waker,
            shutdown: AtomicBool::new(false),
            sidecar_stop: AtomicBool::new(false),
            degraded: AtomicBool::new(false),
            shutdown_at: Mutex::new(None),
            counters: Counters::default(),
            core: Mutex::new(Core { fleet, output: BTreeMap::new() }),
        });

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
                        |(), _idx, _attempt| session_worker(&shared),
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

        Ok(Gateway { shared, addr, metrics_addr, runtime: Some(runtime), sidecar })
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
        self.shared.waker.wake();
        let pool_stats = match self.runtime.take() {
            Some(h) => h.join().unwrap_or_default(),
            None => PoolStats::default(),
        };
        if let (Some(h), Some(addr)) = (self.sidecar.take(), self.metrics_addr) {
            // The drain is over: the stop flag ends the sidecar at the
            // accept this connection completes. Should the loopback connect
            // fail, the thread stays parked in accept rather than hang
            // shutdown.
            self.shared.sidecar_stop.store(true, Ordering::SeqCst);
            if TcpStream::connect(addr).is_ok() {
                h.join().ok();
            }
        }
        let drain_secs = drain_started.elapsed().as_secs_f64();
        let mut core = self.shared.core();
        GatewayReport {
            output: std::mem::take(&mut core.output),
            stats: self.shared.counters.snapshot(drain_secs),
            ingest: core.fleet.stats(),
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

    /// A handshaken connection that then sends nothing. Its reads time out
    /// after `limit`, so a wait that never wakes fails a test instead of
    /// hanging it.
    fn silent_session(addr: SocketAddr, limit: Duration) -> TcpStream {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(limit)).unwrap();
        conn.write_all(&encode_handshake(5, b"smg-local-dev")).unwrap();
        let mut ack = [0u8; 1];
        conn.read_exact(&mut ack).unwrap();
        assert_eq!(ack[0], HANDSHAKE_ACK);
        conn
    }

    /// Reads until the server closes `conn`; a read timeout fails the test.
    fn assert_closed_by_server(conn: &mut TcpStream) {
        let mut buf = [0u8; 8];
        match conn.read(&mut buf) {
            Ok(0) => {}
            Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
            other => panic!("expected the server to close the connection, got {other:?}"),
        }
    }

    #[test]
    fn a_silent_session_is_closed_at_the_idle_timeout() {
        let idle = Duration::from_millis(100);
        let gw = Gateway::start(GatewayConfig::default().workers(1).idle_timeout(idle)).unwrap();
        let started = Instant::now();
        let mut conn = silent_session(gw.local_addr(), Duration::from_secs(10));
        assert_closed_by_server(&mut conn);
        assert!(started.elapsed() >= idle, "closed after {:?}", started.elapsed());
        let report = gw.shutdown();
        assert_eq!(report.stats.idle_closed, 1, "{:?}", report.stats);
        assert_eq!(report.stats.connections_active, 0);
    }

    #[test]
    fn a_silent_session_is_force_closed_at_the_drain_deadline() {
        let drain = Duration::from_millis(100);
        let gw = Gateway::start(GatewayConfig::default().workers(1).drain_timeout(drain)).unwrap();
        let mut conn = silent_session(gw.local_addr(), Duration::from_secs(10));
        // Shut down on another thread, so a drain that never ends fails the
        // client's read instead of hanging this one.
        let shutdown = std::thread::spawn(move || gw.shutdown());
        assert_closed_by_server(&mut conn);
        let report = shutdown.join().unwrap();
        assert!(report.stats.drain_secs >= drain.as_secs_f64(), "{:?}", report.stats);
        assert_eq!(report.stats.connections_active, 0);
        assert_eq!(report.stats.idle_closed, 0);
    }

    #[test]
    fn a_connection_over_the_cap_is_rejected_not_accepted() {
        let (msgs, wire) = meter_stream(3);
        let config = GatewayConfig { max_connections: 1, ..GatewayConfig::default().workers(2) };
        let gw = Gateway::start(config).unwrap();
        let mut first = silent_session(gw.local_addr(), Duration::from_secs(10));
        let mut second = TcpStream::connect(gw.local_addr()).unwrap();
        second.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        assert_closed_by_server(&mut second);
        // The session holding the one slot is still served in full.
        first.write_all(&wire).unwrap();
        first.shutdown(std::net::Shutdown::Write).unwrap();
        let mut last = 0u64;
        let mut buf = [0u8; 8];
        while first.read_exact(&mut buf).is_ok() {
            last = u64::from_le_bytes(buf);
        }
        assert_eq!(last, msgs.len() as u64);
        let report = gw.shutdown();
        assert_eq!(report.stats.connections_accepted, 1, "{:?}", report.stats);
        assert_eq!(report.stats.connections_rejected, 1);
        assert_eq!(report.stats.connections_active, 0);
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
    fn readyz_answers_503_until_the_drain_ends() {
        let config = GatewayConfig::default()
            .workers(1)
            .http_metrics(true)
            .drain_timeout(Duration::from_millis(200));
        let gw = Gateway::start(config).unwrap();
        let addr = gw.metrics_addr().expect("sidecar enabled");
        // `None` once the sidecar no longer answers.
        let readyz = || -> Option<String> {
            let mut conn = TcpStream::connect(addr).ok()?;
            conn.write_all(b"GET /readyz HTTP/1.1\r\n\r\n").ok()?;
            let mut out = String::new();
            conn.read_to_string(&mut out).ok()?;
            (!out.is_empty()).then_some(out)
        };
        // A silent session holds the drain open until its deadline, and
        // closes when the drain ends.
        let mut session = silent_session(gw.local_addr(), Duration::from_secs(10));
        session.set_nonblocking(true).unwrap();
        let mut drained = || match session.read(&mut [0u8; 8]) {
            Err(e) if e.kind() == ErrorKind::WouldBlock => false,
            Ok(0) | Err(_) => true,
            Ok(n) => panic!("the silent session was sent {n} bytes"),
        };
        let shutdown = std::thread::spawn(move || gw.shutdown());
        let give_up = Instant::now() + Duration::from_secs(10);
        let mut draining_answers = 0;
        loop {
            assert!(Instant::now() < give_up, "the drain never ended");
            match readyz() {
                Some(r) if r.starts_with("HTTP/1.1 503") => draining_answers += 1,
                Some(r) => assert!(draining_answers == 0 && r.ends_with("ready\n"), "{r}"),
                None => {
                    assert!(drained(), "the sidecar stopped answering during the drain");
                    break;
                }
            }
            if drained() {
                break;
            }
        }
        assert!(draining_answers > 0, "no /readyz answer during the drain");
        assert_eq!(shutdown.join().unwrap().stats.connections_active, 0);
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
    fn the_meter_cap_holds_across_concurrent_sessions() {
        const METERS: u64 = 6;
        let config = GatewayConfig {
            ingest: IngestConfig::default().max_meters(2),
            ..GatewayConfig::default().workers(2)
        };
        let gw = Gateway::start(config).unwrap();
        let addr = gw.local_addr();
        let wires: Vec<Vec<u8>> = (1..=METERS).map(|m| meter_stream(10 * m as i64).1).collect();
        // Every meter is handshaken before any sends a frame, so all six
        // race for the two places.
        let handshaken = std::sync::Barrier::new(METERS as usize);
        let acked: Vec<u64> = std::thread::scope(|scope| {
            let clients: Vec<_> = (1..=METERS)
                .zip(&wires)
                .map(|(meter, wire)| {
                    let handshaken = &handshaken;
                    scope.spawn(move || {
                        let mut conn = TcpStream::connect(addr).unwrap();
                        conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                        conn.write_all(&encode_handshake(meter, b"smg-local-dev")).unwrap();
                        let mut ack = [0u8; 1];
                        conn.read_exact(&mut ack).unwrap();
                        assert_eq!(ack[0], HANDSHAKE_ACK);
                        handshaken.wait();
                        // The server may close a refused meter mid-write.
                        conn.write_all(wire).ok();
                        conn.shutdown(std::net::Shutdown::Write).ok();
                        let mut last = 0u64;
                        let mut buf = [0u8; 8];
                        while conn.read_exact(&mut buf).is_ok() {
                            last = u64::from_le_bytes(buf);
                        }
                        last
                    })
                })
                .collect();
            clients.into_iter().map(|c| c.join().unwrap()).collect()
        });
        let report = gw.shutdown();
        assert_eq!(report.output.len(), 2, "admitted {:?}", report.output.keys());
        for ((meter, wire), acked) in (1..=METERS).zip(&wires).zip(acked) {
            let replay = FleetIngest::new(IngestConfig::default()).ingest(meter, wire).unwrap();
            match report.output.get(&meter) {
                Some(output) => {
                    assert_eq!(output, &replay, "meter {meter}");
                    assert_eq!(acked, replay.len() as u64, "meter {meter}");
                }
                None => assert_eq!(acked, 0, "refused meter {meter} was acked"),
            }
        }
        assert!(report.ingest.meters_rejected >= 4, "{:?}", report.ingest);
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
