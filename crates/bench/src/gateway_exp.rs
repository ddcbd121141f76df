//! Heavy-traffic load generator for the network-facing fleet gateway:
//! the `repro gateway --meters N` experiment.
//!
//! The `ingest` experiment ([`crate::ingest_exp`]) proved the framing layer
//! against a hostile byte stream *in process*; this one drives the real
//! [`Gateway`] over loopback TCP. A fleet of `N` synthetic meters — one
//! shared learned lookup table, per-meter seeded window streams — connects
//! through a small pool of client threads, authenticates with the token
//! handshake, and streams length-prefixed frames split at random mid-frame
//! boundaries by the deterministic [`FaultInjector`]. With `--faults` the
//! mix turns adversarial: some meters present a bad token (NAK expected),
//! some ship truncated streams the decoder must resync across, and some
//! dribble their bytes as slow writers.
//!
//! Every connection reads the gateway's cumulative 8-byte acks as it
//! writes, so the run reports end-to-end ack latency percentiles alongside
//! frames/sec. After shutdown the same post-fault byte streams are replayed
//! through an in-process [`FleetIngest`] and the two outputs are compared:
//! the run *fails* unless the gateway's decoded fleet is byte-identical to
//! the in-process path (the paper's server-side representation must not
//! depend on which transport delivered the symbols).

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::ingest_exp::{Fault, FaultInjector};
use crate::scale::Scale;
use meterdata::generator::fleet_series;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sms_core::encoder::{EncodedWindow, SensorMessage};
use sms_core::engine::EngineStats;
use sms_core::error::{Error, Result};
use sms_core::gateway::{encode_handshake, Gateway, GatewayConfig, HANDSHAKE_ACK, HANDSHAKE_NAK};
use sms_core::ingest::{FleetIngest, IngestConfig};
use sms_core::pipeline::CodecBuilder;
use sms_core::separators::SeparatorMethod;
use sms_core::symbol::Symbol;
use sms_core::wire::encode_message;

/// Upper bound on concurrent client threads; the container the experiments
/// run in is small, and the gateway's own workers need cores too.
const MAX_CLIENTS: usize = 4;

/// Largest delivery chunk a client writes in one syscall — small enough
/// that frames split mid-header and mid-payload regularly.
const MAX_CHUNK: usize = 211;

/// Pause between chunks for meters drawn as slow writers.
const SLOW_WRITER_PAUSE: Duration = Duration::from_millis(2);

/// Longest a client waits for its next ack after the half-close.
const ACK_TIMEOUT: Duration = Duration::from_secs(10);

/// The authentication token the experiment's gateway and clients share.
const EXP_TOKEN: &[u8] = b"smg-load-exp";

/// Tail-latency summary of end-to-end frame acknowledgement, in
/// milliseconds (send completion of a frame's last byte to arrival of the
/// first cumulative ack covering it).
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    /// Median ack latency.
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Worst observed.
    pub max_ms: f64,
    /// Frames the percentiles are computed over (clean connections only;
    /// truncated streams lose the frame-to-ack mapping).
    pub samples: usize,
}

impl LatencySummary {
    fn from_sorted(lat_ms: &[f64]) -> Self {
        let pick = |p: f64| -> f64 {
            if lat_ms.is_empty() {
                return 0.0;
            }
            let idx = ((lat_ms.len() as f64 - 1.0) * p).round() as usize;
            lat_ms[idx.min(lat_ms.len() - 1)]
        };
        LatencySummary {
            p50_ms: pick(0.50),
            p95_ms: pick(0.95),
            p99_ms: pick(0.99),
            max_ms: lat_ms.last().copied().unwrap_or(0.0),
            samples: lat_ms.len(),
        }
    }
}

/// Outcome of one `gateway` experiment run.
#[derive(Debug)]
pub struct GatewayExpReport {
    /// Meters the fleet simulated.
    pub meters: usize,
    /// Gateway session workers.
    pub workers: usize,
    /// Client threads that drove the load.
    pub clients: usize,
    /// Whether the adversarial connection mix was enabled.
    pub faults: bool,
    /// Frames written to sockets across every authenticated connection.
    pub frames_sent: u64,
    /// Frames the clients saw acknowledged (sum of final cumulative acks).
    pub frames_acked: u64,
    /// Bytes written to sockets (handshakes + frames).
    pub bytes_sent: u64,
    /// Connections that presented a bad token and were NAKed.
    pub auth_rejected: u64,
    /// Connections whose streams were truncated mid-frame by the injector.
    pub truncated_streams: u64,
    /// Connections that dribbled bytes with inter-chunk pauses.
    pub slow_writers: u64,
    /// Wall-clock of the connect-to-last-ack window.
    pub elapsed_secs: f64,
    /// Acknowledged frames per second of wall-clock.
    pub frames_per_sec: f64,
    /// End-to-end ack latency percentiles.
    pub latency: LatencySummary,
    /// Fraction of sent frames recovered on truncated streams (`1.0` when
    /// no streams were truncated).
    pub faulted_recovery: f64,
    /// Engine counters with the `gateway`, `ingest` and `pool` blocks set.
    pub stats: EngineStats,
}

/// One meter's generated traffic: the decoded messages it will produce and
/// the wire bytes that encode them.
struct MeterLoad {
    meter: u64,
    wire: Vec<u8>,
    /// Frames serialized into `wire` before any truncation.
    framed: u64,
    /// Exclusive end offset of each frame within `wire`; cleared when the
    /// stream is truncated (boundaries no longer meaningful).
    frame_ends: Vec<usize>,
    /// Bad-token connection: expect a NAK, send no frames.
    bad_token: bool,
    /// Stream was truncated by the injector after framing.
    truncated: bool,
    /// Dribble chunks with pauses.
    slow: bool,
}

/// What one finished connection observed, client-side.
struct ConnOutcome {
    meter: u64,
    /// Bytes actually written (post-fault wire), for in-process replay.
    sent_wire: Vec<u8>,
    frames_sent: u64,
    acked: u64,
    bytes_sent: u64,
    auth_rejected: bool,
    truncated: bool,
    /// Per-frame ack latencies (clean streams only).
    latencies_ms: Vec<f64>,
}

/// Builds the synthetic fleet: one lookup table learned from generated
/// meter data (the paper's training step), then per-meter window streams
/// with seeded symbol ranks.
fn build_fleet_load(scale: Scale, meters: usize, faults: bool) -> Result<Vec<MeterLoad>> {
    let history = fleet_series(scale.seed, 1, scale.days.clamp(1, 3), scale.interval_secs)?;
    let codec = CodecBuilder::new()
        .method(SeparatorMethod::Median)
        .alphabet_size(16)?
        .window_secs(3600)
        .train(&history[0])?;
    let table_frame = encode_message(&SensorMessage::Table(codec.table().clone()))?;
    let windows = (scale.days.clamp(1, 7) * 24) as usize;

    let mut loads = Vec::with_capacity(meters);
    for m in 0..meters {
        let meter = m as u64;
        let mut rng = StdRng::seed_from_u64(scale.seed ^ (0xA11C_E000 + meter));
        let bad_token = faults && m % 17 == 3;
        let truncated = faults && !bad_token && m % 13 == 5;
        let slow = faults && !bad_token && m % 11 == 7;

        let mut wire = table_frame.clone();
        let mut frame_ends = vec![wire.len()];
        for w in 0..windows {
            let msg = SensorMessage::Window(EncodedWindow {
                window_start: (w as i64) * 3600,
                symbol: Symbol::from_rank(rng.gen_range(0..16u16), 4)?,
                samples: (3600 / scale.interval_secs).max(1) as u32,
            });
            wire.extend(encode_message(&msg)?);
            frame_ends.push(wire.len());
        }
        let framed = frame_ends.len() as u64;
        if truncated {
            // One mid-stream truncation per ~2 kB: the decoder must resync
            // and recover every frame the cut did not destroy.
            let mut injector = FaultInjector::new(scale.seed ^ (0x7C0F_FEE0 + meter));
            for _ in 0..1 + wire.len() / 2048 {
                injector.apply(Fault::Truncate, &mut wire);
            }
            frame_ends.clear();
        }
        loads.push(MeterLoad { meter, wire, framed, frame_ends, bad_token, truncated, slow });
    }
    Ok(loads)
}

/// Reads cumulative acks until the socket has none ready (non-blocking) or
/// its read times out (blocking), invoking `on_ack` for each complete
/// 8-byte count. Returns `Ok(true)` on EOF.
fn drain_acks(
    conn: &mut TcpStream,
    partial: &mut Vec<u8>,
    on_ack: &mut impl FnMut(u64, Instant),
) -> std::io::Result<bool> {
    let mut buf = [0u8; 256];
    loop {
        match conn.read(&mut buf) {
            Ok(0) => return Ok(true),
            Ok(n) => {
                partial.extend_from_slice(&buf[..n]);
                let now = Instant::now();
                while partial.len() >= 8 {
                    let ack = u64::from_le_bytes(partial[..8].try_into().unwrap());
                    partial.drain(..8);
                    on_ack(ack, now);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Drives one meter's connection end to end: handshake, chunked writes with
/// interleaved ack reads, half-close, then ack drain until server EOF.
fn drive_meter(addr: SocketAddr, load: &MeterLoad, seed: u64) -> Result<ConnOutcome> {
    let io_err = |what: &str, e: std::io::Error| Error::Engine(format!("client {what}: {e}"));
    let mut conn = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
    conn.set_nodelay(true).ok();

    let token: &[u8] = if load.bad_token { b"not-the-token" } else { EXP_TOKEN };
    let handshake = encode_handshake(load.meter, token);
    conn.write_all(&handshake).map_err(|e| io_err("handshake write", e))?;
    let mut ack = [0u8; 1];
    conn.read_exact(&mut ack).map_err(|e| io_err("handshake read", e))?;
    if load.bad_token {
        if ack[0] != HANDSHAKE_NAK {
            return Err(Error::Engine(format!(
                "meter {}: bad token was not NAKed (got 0x{:02x})",
                load.meter, ack[0]
            )));
        }
        return Ok(ConnOutcome {
            meter: load.meter,
            sent_wire: Vec::new(),
            frames_sent: 0,
            acked: 0,
            bytes_sent: handshake.len() as u64,
            auth_rejected: true,
            truncated: false,
            latencies_ms: Vec::new(),
        });
    }
    if ack[0] != HANDSHAKE_ACK {
        return Err(Error::Engine(format!(
            "meter {}: handshake not ACKed (got 0x{:02x})",
            load.meter, ack[0]
        )));
    }

    conn.set_nonblocking(true).map_err(|e| io_err("set_nonblocking", e))?;
    let mut injector = FaultInjector::new(seed);
    let chunks = injector.chunk_lens(load.wire.len(), MAX_CHUNK);

    // Frame send-completion times, indexed by frame; cumulative ack `v`
    // acknowledges frames `0..v`, so latency of frame `k` is the arrival of
    // the first ack with `v > k` minus `sent_at[k]`.
    let mut sent_at: Vec<Instant> = Vec::with_capacity(load.frame_ends.len());
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut last_ack = 0u64;
    let mut partial = Vec::new();
    let record = |v: u64, at: Instant, last: &mut u64, sent: &[Instant], out: &mut Vec<f64>| {
        let hi = (v as usize).min(sent.len());
        for sent_at in sent.iter().take(hi).skip(*last as usize) {
            out.push(at.saturating_duration_since(*sent_at).as_secs_f64() * 1e3);
        }
        *last = (*last).max(v);
    };

    let mut offset = 0usize;
    let mut next_frame = 0usize;
    for len in chunks {
        let chunk = &load.wire[offset..offset + len];
        let mut written = 0usize;
        while written < chunk.len() {
            match conn.write(&chunk[written..]) {
                Ok(0) => {
                    return Err(Error::Engine(format!(
                        "meter {}: gateway hung up mid-stream",
                        load.meter
                    )))
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    drain_acks(&mut conn, &mut partial, &mut |v, at| {
                        record(v, at, &mut last_ack, &sent_at, &mut latencies_ms)
                    })
                    .map_err(|e| io_err("ack read", e))?;
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(io_err("frame write", e)),
            }
        }
        offset += len;
        let now = Instant::now();
        while next_frame < load.frame_ends.len() && load.frame_ends[next_frame] <= offset {
            sent_at.push(now);
            next_frame += 1;
        }
        drain_acks(&mut conn, &mut partial, &mut |v, at| {
            record(v, at, &mut last_ack, &sent_at, &mut latencies_ms)
        })
        .map_err(|e| io_err("ack read", e))?;
        if load.slow {
            std::thread::sleep(SLOW_WRITER_PAUSE);
        }
    }
    conn.shutdown(std::net::Shutdown::Write).ok();

    // Server acks everything it decodes, then EOFs our read side: block
    // on each read, so an ack's latency is the gateway's, not a poll
    // interval's. A read that times out ends the drain short of EOF.
    conn.set_nonblocking(false).map_err(|e| io_err("set_nonblocking", e))?;
    conn.set_read_timeout(Some(ACK_TIMEOUT)).map_err(|e| io_err("set_read_timeout", e))?;
    let eof = drain_acks(&mut conn, &mut partial, &mut |v, at| {
        record(v, at, &mut last_ack, &sent_at, &mut latencies_ms)
    })
    .map_err(|e| io_err("ack drain", e))?;
    if !eof {
        return Err(Error::Engine(format!(
            "meter {}: no gateway EOF within {ACK_TIMEOUT:?} of the half-close",
            load.meter
        )));
    }

    Ok(ConnOutcome {
        meter: load.meter,
        sent_wire: load.wire.clone(),
        frames_sent: load.framed,
        acked: last_ack,
        bytes_sent: (handshake.len() + load.wire.len()) as u64,
        auth_rejected: false,
        truncated: load.truncated,
        latencies_ms,
    })
}

/// Replays the post-fault byte streams through an in-process
/// [`FleetIngest`] and errors unless the gateway produced the identical
/// per-meter decoded output.
fn verify_byte_identity(
    outcomes: &[ConnOutcome],
    gateway_output: &BTreeMap<u64, Vec<SensorMessage>>,
) -> Result<()> {
    let mut fleet = FleetIngest::new(IngestConfig::default());
    let mut expected: BTreeMap<u64, Vec<SensorMessage>> = BTreeMap::new();
    for o in outcomes {
        if o.auth_rejected {
            continue;
        }
        for chunk in o.sent_wire.chunks(4096) {
            expected.entry(o.meter).or_default().extend(fleet.ingest(o.meter, chunk)?);
        }
        // Per-meter trailing partial frames stay buffered in both paths.
        expected.entry(o.meter).or_default();
    }
    // Meters whose whole stream decoded to nothing may be absent from the
    // gateway map; treat absent and empty as the same.
    for (meter, msgs) in &expected {
        let got = gateway_output.get(meter).map(Vec::as_slice).unwrap_or(&[]);
        if got != msgs.as_slice() {
            return Err(Error::Engine(format!(
                "gateway output for meter {meter} diverges from the in-process ingest path \
                 ({} vs {} messages)",
                got.len(),
                msgs.len()
            )));
        }
    }
    for meter in gateway_output.keys() {
        if !expected.contains_key(meter) {
            return Err(Error::Engine(format!(
                "gateway decoded meter {meter} that no client streamed"
            )));
        }
    }
    Ok(())
}

/// Runs the loopback gateway load experiment: `meters` synthetic meters
/// through `workers` session workers, with the adversarial mix when
/// `faults` is set. Errors if the gateway's decoded output is not
/// byte-identical to the in-process ingest path, or if any acknowledged
/// frame is missing from the final report.
pub fn run_gateway(
    scale: Scale,
    meters: usize,
    workers: usize,
    faults: bool,
) -> Result<GatewayExpReport> {
    if meters == 0 {
        return Err(Error::InvalidParameter {
            name: "meters",
            reason: "need at least one meter".into(),
        });
    }
    let loads = build_fleet_load(scale, meters, faults)?;
    let clients = meters.min(MAX_CLIENTS);

    let gw = Gateway::start(
        GatewayConfig::default().workers(workers).auth_token(EXP_TOKEN).http_metrics(false),
    )?;
    let addr = gw.local_addr();

    let t0 = Instant::now();
    let mut outcomes: Vec<ConnOutcome> = Vec::with_capacity(meters);
    let results: Vec<Result<Vec<ConnOutcome>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|tid| {
                let loads = &loads;
                s.spawn(move || -> Result<Vec<ConnOutcome>> {
                    let mut out = Vec::new();
                    for load in loads.iter().skip(tid).step_by(clients) {
                        out.push(drive_meter(addr, load, scale.seed ^ (0xD1A1_0000 + load.meter))?);
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| Err(Error::Engine("client thread panicked".into())))
            })
            .collect()
    });
    for r in results {
        outcomes.extend(r?);
    }
    let elapsed_secs = t0.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);

    let report = gw.shutdown();
    verify_byte_identity(&outcomes, &report.output)?;

    // Zero lost acknowledged frames: every cumulative ack a client received
    // must be covered by frames present in the final output.
    for o in &outcomes {
        let committed = report.output.get(&o.meter).map(|v| v.len() as u64).unwrap_or(0);
        if committed < o.acked {
            return Err(Error::Engine(format!(
                "meter {}: {} frames acknowledged but only {} in the final output",
                o.meter, o.acked, committed
            )));
        }
    }

    let frames_sent: u64 = outcomes.iter().map(|o| o.frames_sent).sum();
    let frames_acked: u64 = outcomes.iter().map(|o| o.acked).sum();
    let bytes_sent: u64 = outcomes.iter().map(|o| o.bytes_sent).sum();
    let auth_rejected = outcomes.iter().filter(|o| o.auth_rejected).count() as u64;
    let truncated_streams = outcomes.iter().filter(|o| o.truncated).count() as u64;
    let slow_writers = loads.iter().filter(|l| l.slow && !l.bad_token).count() as u64;

    // Clean connections must be fully acknowledged; truncated ones report
    // their recovery ratio (frames surviving per frame originally framed).
    let mut faulted_recovery = 1.0;
    let clean_sent: u64 =
        outcomes.iter().filter(|o| !o.truncated && !o.auth_rejected).map(|o| o.frames_sent).sum();
    let clean_acked: u64 =
        outcomes.iter().filter(|o| !o.truncated && !o.auth_rejected).map(|o| o.acked).sum();
    if clean_acked != clean_sent {
        return Err(Error::Engine(format!(
            "clean connections lost frames: {clean_acked} acked of {clean_sent} sent"
        )));
    }
    if truncated_streams > 0 {
        let framed: u64 = loads.iter().filter(|l| l.truncated).map(|l| l.framed).sum();
        let recovered: u64 = outcomes.iter().filter(|o| o.truncated).map(|o| o.acked).sum();
        faulted_recovery = recovered as f64 / framed.max(1) as f64;
    }

    let mut lat: Vec<f64> = outcomes.iter().flat_map(|o| o.latencies_ms.iter().copied()).collect();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let latency = LatencySummary::from_sorted(&lat);

    let mut stats = report.engine_stats();
    stats.houses = meters;
    stats.workers = workers;
    Ok(GatewayExpReport {
        meters,
        workers,
        clients,
        faults,
        frames_sent,
        frames_acked,
        bytes_sent,
        auth_rejected,
        truncated_streams,
        slow_writers,
        elapsed_secs,
        frames_per_sec: frames_acked as f64 / elapsed_secs,
        latency,
        faulted_recovery,
        stats,
    })
}

/// Human-readable summary printed by `repro gateway`.
pub fn render_gateway(r: &GatewayExpReport) -> String {
    let g = r.stats.gateway.as_ref().expect("run_gateway always sets the gateway block");
    format!(
        "gateway: {} meters over loopback TCP, {} session workers, {} client threads \
         (faults: {})\n\
         traffic: {} frames / {} bytes sent, {} acked -> {:.0} frames/s in {:.2}s\n\
         ack latency: p50 {:.2}ms p95 {:.2}ms p99 {:.2}ms max {:.2}ms ({} samples)\n\
         connections: {} accepted, {} auth-rejected, {} truncated streams \
         ({:.1}% frames recovered), {} slow writers\n\
         server: {} frames decoded, {} resyncs, {} worker panics, drain {:.3}s\n\
         output: byte-identical to in-process FleetIngest, zero acknowledged frames lost",
        r.meters,
        r.workers,
        r.clients,
        if r.faults { "on" } else { "off" },
        r.frames_sent,
        r.bytes_sent,
        r.frames_acked,
        r.frames_per_sec,
        r.elapsed_secs,
        r.latency.p50_ms,
        r.latency.p95_ms,
        r.latency.p99_ms,
        r.latency.max_ms,
        r.latency.samples,
        g.connections_accepted,
        r.auth_rejected,
        r.truncated_streams,
        100.0 * r.faulted_recovery,
        r.slow_writers,
        g.frames_acked,
        r.stats.ingest.as_ref().map(|i| i.resyncs).unwrap_or(0),
        r.stats.pool.as_ref().map(|p| p.panics).unwrap_or(0),
        g.drain_secs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_percentiles() {
        let lat: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = LatencySummary::from_sorted(&lat);
        assert_eq!(s.p50_ms, 51.0);
        assert_eq!(s.p95_ms, 95.0);
        assert_eq!(s.p99_ms, 99.0);
        assert_eq!(s.max_ms, 100.0);
        assert_eq!(s.samples, 100);
        assert_eq!(LatencySummary::from_sorted(&[]).samples, 0);
    }

    #[test]
    fn fleet_load_is_deterministic_and_framed() {
        let mut scale = Scale::quick();
        scale.days = 1;
        let a = build_fleet_load(scale, 6, false).unwrap();
        let b = build_fleet_load(scale, 6, false).unwrap();
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.wire, y.wire, "loads must be reproducible per seed");
            assert_eq!(x.frame_ends.len(), 25, "1 table + 24 hourly windows");
            assert_eq!(*x.frame_ends.last().unwrap(), x.wire.len());
            assert!(!x.bad_token && !x.truncated && !x.slow, "clean mode has no faults");
        }
        // Different meters carry different window streams.
        assert_ne!(a[0].wire, a[1].wire);
    }

    #[test]
    fn faulted_fleet_load_draws_the_adversarial_mix() {
        let mut scale = Scale::quick();
        scale.days = 1;
        let loads = build_fleet_load(scale, 40, true).unwrap();
        assert!(loads.iter().any(|l| l.bad_token));
        assert!(loads.iter().any(|l| l.truncated));
        assert!(loads.iter().any(|l| l.slow));
        for l in loads.iter().filter(|l| l.truncated) {
            assert!(l.frame_ends.is_empty(), "truncation invalidates frame boundaries");
        }
    }

    #[test]
    fn small_clean_run_is_lossless_and_identical() {
        let mut scale = Scale::quick();
        scale.days = 1;
        let r = run_gateway(scale, 6, 2, false).unwrap();
        assert_eq!(r.frames_acked, r.frames_sent);
        assert_eq!(r.frames_sent, 6 * 25);
        assert_eq!(r.auth_rejected, 0);
        assert_eq!(r.faulted_recovery, 1.0);
        assert!(r.latency.samples > 0);
        let g = r.stats.gateway.unwrap();
        assert_eq!(g.connections_accepted, 6);
        assert_eq!(g.frames_acked, r.frames_acked);
        let rendered = render_gateway(&r);
        assert!(rendered.contains("byte-identical"), "{rendered}");
        assert!(rendered.contains("6 meters"), "{rendered}");
    }

    #[test]
    fn faulted_run_recovers_and_counts_rejections() {
        let mut scale = Scale::quick();
        scale.days = 1;
        let r = run_gateway(scale, 40, 2, true).unwrap();
        assert!(r.auth_rejected > 0);
        assert!(r.truncated_streams > 0);
        assert_eq!(r.stats.gateway.unwrap().auth_failures, r.auth_rejected);
        assert!(
            r.faulted_recovery >= 0.5,
            "localized truncation must not destroy the stream: {:.2}",
            r.faulted_recovery
        );
        assert!(r.stats.ingest.as_ref().unwrap().resyncs > 0);
    }
}
