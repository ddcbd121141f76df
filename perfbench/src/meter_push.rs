//! `meter_push`: meters stream symbols into the gateway over loopback.
//!
//! One generator thread drives one meter connection at a time (a closed
//! loop): connect, handshake, the meter's Table frame and a week of hourly
//! Window frames in chunks of at most 211 bytes, half-close, then blocking
//! reads of the cumulative acks until the gateway closes. The gateway runs
//! at `GatewayConfig::default()` apart from the token. An op is an acked
//! frame; its latency runs from the frame's last byte sent to the first
//! ack covering it. Encode and both stores are bypassed.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Instant;

use sms_core::encoder::{OnlineEncoder, SensorMessage};
use sms_core::gateway::{encode_handshake, Gateway, GatewayConfig, HANDSHAKE_ACK};
use sms_core::ingest::{FleetIngest, IngestConfig};
use sms_core::lookup::SymbolSemantics;
use sms_core::pipeline::CodecBuilder;
use sms_core::vertical::Aggregation;
use sms_core::wire::encode_message;

use crate::inputs::{self, INTERVAL_SECS};
use crate::report::{median, Counts, Latency, Report, Round};
use crate::sys::CpuMark;
use crate::trace::Tracer;
use crate::{fail, Ctx};

const TOKEN: &[u8] = b"perfbench-meter-push";
const MAX_CHUNK: usize = 211;
const WINDOW_SECS: i64 = 3600;
/// Warm-up meters get ids far from the measured ones.
const WARMUP_BASE: u64 = 1 << 40;
/// Set-ups per untraced round: the last one is the gateway the round times.
const SETUPS: usize = 4;
/// Meters between two speed probes.
const PROBE_EVERY: usize = 20;

pub struct Size {
    /// Meters per round.
    pub meters: u64,
    /// Meters streamed during set-up, before timing starts.
    pub warmup: u64,
    /// Days of readings each meter sends.
    pub days: u64,
}

impl Size {
    pub fn full() -> Self {
        Size { meters: 400, warmup: 24, days: 7 }
    }

    #[cfg(test)]
    pub fn tiny() -> Self {
        Size { meters: 8, warmup: 2, days: 7 }
    }
}

/// One meter's traffic: the wire bytes and where each frame ends in them.
struct MeterLoad {
    meter: u64,
    wire: Vec<u8>,
    frame_ends: Vec<usize>,
    raw: Vec<f64>,
}

/// The meter side of the paper's protocol: a table trained on the first
/// two days, then one mean-aggregated symbol per hour.
fn build_load(seed: u64, meter: u64, days: u64) -> Result<MeterLoad, String> {
    let series = inputs::house_series(seed, meter, 0, days, None);
    let history = inputs::house_series(seed, meter, 0, 2, None);
    let table = CodecBuilder::new().train(&history).map_err(fail("train"))?.table().clone();
    let mut encoder = OnlineEncoder::new(table.clone(), WINDOW_SECS, Aggregation::Mean)
        .map_err(fail("encoder"))?;
    let mut wire = encode_message(&SensorMessage::Table(table)).map_err(fail("encode"))?;
    let mut frame_ends = vec![wire.len()];
    let mut windows = Vec::new();
    for (t, v) in series.iter() {
        windows.extend(encoder.push(t, v).map_err(fail("encoder push"))?);
    }
    windows.extend(encoder.finish());
    for w in windows {
        wire.extend(encode_message(&SensorMessage::Window(w)).map_err(fail("encode"))?);
        frame_ends.push(wire.len());
    }
    Ok(MeterLoad { meter, wire, frame_ends, raw: series.values() })
}

/// What one connection saw, client side.
struct Session {
    acked: u64,
    acks: u64,
    latencies_ms: Vec<f64>,
    session_s: f64,
}

fn drive(addr: SocketAddr, load: &MeterLoad, tracer: &mut Tracer) -> Result<Session, String> {
    let op = load.meter;
    let start = Instant::now();
    let span = tracer.begin("gateway.connect", op);
    let mut conn = TcpStream::connect(addr).map_err(fail("connect"))?;
    tracer.end(span);
    conn.set_nodelay(true).map_err(fail("nodelay"))?;

    let span = tracer.begin("gateway.handshake", op);
    conn.write_all(&encode_handshake(load.meter, TOKEN)).map_err(fail("handshake write"))?;
    let mut reply = [0u8; 1];
    conn.read_exact(&mut reply).map_err(fail("handshake read"))?;
    tracer.end(span);
    if reply[0] != HANDSHAKE_ACK {
        return Err(format!("meter {}: handshake refused (0x{:02x})", load.meter, reply[0]));
    }

    let span = tracer.begin("gateway.send", op);
    let mut sent_at = Vec::with_capacity(load.frame_ends.len());
    let mut offset = 0;
    for chunk in load.wire.chunks(MAX_CHUNK) {
        conn.write_all(chunk).map_err(fail("frame write"))?;
        offset += chunk.len();
        let now = Instant::now();
        while sent_at.len() < load.frame_ends.len() && load.frame_ends[sent_at.len()] <= offset {
            sent_at.push(now);
        }
    }
    conn.shutdown(Shutdown::Write).map_err(fail("half-close"))?;
    tracer.end(span);

    let span = tracer.begin("gateway.ack_wait", op);
    let (mut acked, mut acks) = (0u64, 0u64);
    let mut latencies_ms = Vec::with_capacity(sent_at.len());
    let mut buf = [0u8; 512];
    let mut partial = Vec::new();
    loop {
        let n = conn.read(&mut buf).map_err(fail("ack read"))?;
        if n == 0 {
            break;
        }
        let now = Instant::now();
        partial.extend_from_slice(&buf[..n]);
        for ack in partial.chunks_exact(8) {
            let v = u64::from_le_bytes(ack.try_into().expect("8-byte chunk"));
            acks += 1;
            for at in sent_at.iter().take(v as usize).skip(acked as usize) {
                latencies_ms.push(now.duration_since(*at).as_secs_f64() * 1e3);
            }
            acked = acked.max(v);
        }
        let whole = partial.len() / 8 * 8;
        partial.drain(..whole);
    }
    tracer.end(span);
    if !partial.is_empty() {
        return Err(format!("meter {}: gateway closed mid-ack", load.meter));
    }
    Ok(Session { acked, acks, latencies_ms, session_s: start.elapsed().as_secs_f64() })
}

/// Replays every meter's bytes through an in-process [`FleetIngest`] in
/// the same chunks; returns the decoded output and the decode time.
fn replay(loads: &[&MeterLoad]) -> Result<(BTreeMap<u64, Vec<SensorMessage>>, f64), String> {
    let mut fleet = FleetIngest::new(IngestConfig::default());
    let mut out: BTreeMap<u64, Vec<SensorMessage>> = BTreeMap::new();
    let t = Instant::now();
    for load in loads {
        let msgs = out.entry(load.meter).or_default();
        for chunk in load.wire.chunks(MAX_CHUNK) {
            msgs.extend(fleet.ingest(load.meter, chunk).map_err(fail("replay ingest"))?);
        }
    }
    Ok((out, t.elapsed().as_secs_f64()))
}

/// Mean absolute error between each raw reading and the RangeMean decode
/// of its hour's symbol, through the table the gateway received.
fn recon_mae(
    output: &BTreeMap<u64, Vec<SensorMessage>>,
    loads: &[MeterLoad],
) -> Result<f64, String> {
    let (mut err, mut n) = (0.0, 0u64);
    for load in loads {
        let msgs = &output[&load.meter];
        let Some(SensorMessage::Table(table)) = msgs.first() else {
            return Err(format!("meter {}: first frame is not its table", load.meter));
        };
        for msg in &msgs[1..] {
            let SensorMessage::Window(w) = msg else {
                return Err(format!("meter {}: unexpected frame after the table", load.meter));
            };
            let decoded = table
                .decode_symbol(w.symbol, SymbolSemantics::RangeMean)
                .map_err(fail("decode"))?;
            let first = (w.window_start / INTERVAL_SECS) as usize;
            for raw in &load.raw[first..first + w.samples as usize] {
                err += (raw - decoded).abs();
                n += 1;
            }
        }
    }
    if n as usize != loads.iter().map(|l| l.raw.len()).sum::<usize>() {
        return Err("decoded windows do not cover every reading".into());
    }
    Ok(err / n as f64)
}

pub fn run(ctx: &Ctx, size: &Size, tracer: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let gen = CpuMark::now();
    let warmup: Vec<MeterLoad> = (0..size.warmup)
        .map(|m| build_load(ctx.seed, WARMUP_BASE + m, size.days))
        .collect::<Result<_, _>>()?;
    let meters: Vec<MeterLoad> =
        (0..size.meters).map(|m| build_load(ctx.seed, m, size.days)).collect::<Result<_, _>>()?;
    report.generator_cpu_s = gen.since().1;
    report.input_digest =
        meters.iter().fold(0, |h, l| inputs::digest(h, l.wire.iter().map(|&b| b as u64)));
    let frames: u64 = meters.iter().map(|l| l.frame_ends.len() as u64).sum();
    let samples: u64 = meters.iter().map(|l| l.raw.len() as u64).sum();
    let all: Vec<&MeterLoad> = warmup.iter().chain(&meters).collect();
    report.notes.push(format!(
        "{} meters per round after {} warm-up meters; {} frames of {} readings; \
         GatewayConfig::default() with its own token; one client connection at a time",
        size.meters, size.warmup, frames, samples
    ));

    let (mut acks, mut traced_frames, mut server_cpu) = (0u64, 0u64, 0.0);
    let mut sessions_ms = Vec::new();
    let mut gateway_counts = (0u64, 0u64, 0u64);
    ctx.rounds(tracer, &mut report, |r, tracer, report| {
        let (gw, setups) = ctx.set_up(
            SETUPS,
            tracer.on(),
            |_| {
                let config = GatewayConfig::default().auth_token(TOKEN);
                let gw = tracer
                    .span("gateway.start", 0, || Gateway::start(config))
                    .map_err(fail("gateway start"))?;
                // Warm-up sessions are set-up, so they record no spans.
                let mut untraced = Tracer::new(false);
                for load in &warmup {
                    drive(gw.local_addr(), load, &mut untraced)?;
                }
                Ok(gw)
            },
            |gw| {
                gw.shutdown();
                Ok(())
            },
        )?;

        let mut round = Round::after_setup(setups);
        let gen_cpu = crate::sys::thread_cpu_s();
        let cpu = CpuMark::now();
        let t0 = Instant::now();
        let mut probe_wall_s = 0.0;
        let mut sessions = Vec::with_capacity(meters.len());
        for (i, load) in meters.iter().enumerate() {
            if i % PROBE_EVERY == 0 {
                // The probe runs on this thread, whose CPU is not the server's.
                probe_wall_s += round.probe();
            }
            sessions.push(drive(gw.local_addr(), load, tracer)?);
        }
        round.timed_s = t0.elapsed().as_secs_f64() - probe_wall_s;
        let (all_cpu, own_cpu) = cpu.since();
        report.generator_cpu_s += crate::sys::thread_cpu_s() - gen_cpu - round.probe_s;
        let gw = gw.shutdown();

        // Checks: every frame acked, and the gateway's decoded fleet equals
        // an in-process replay of the same bytes.
        report.attempted += frames;
        for (load, s) in meters.iter().zip(&sessions) {
            let sent = load.frame_ends.len() as u64;
            if s.acked != sent {
                report.failed += sent.saturating_sub(s.acked);
                return Err(format!("meter {}: {} of {sent} frames acked", load.meter, s.acked));
            }
        }
        let (expected, _) = replay(&all)?;
        if gw.output != expected {
            return Err("gateway output differs from the in-process ingest replay".into());
        }
        let all_frames: u64 = all.iter().map(|l| l.frame_ends.len() as u64).sum();
        if gw.stats.frames_acked != all_frames || gw.stats.auth_failures != 0 {
            return Err(format!(
                "gateway acked {} frames of {all_frames} with {} auth failures",
                gw.stats.frames_acked, gw.stats.auth_failures
            ));
        }
        let all_samples: u64 = all.iter().map(|l| l.raw.len() as u64).sum();
        let sent_bytes: u64 = all
            .iter()
            .map(|l| (l.wire.len() + encode_handshake(l.meter, TOKEN).len()) as u64)
            .sum();
        let counts = Counts::from([
            ("frames_per_round", frames as f64),
            ("stored_bytes_per_sample", gw.ingest.bytes_decoded as f64 / all_samples as f64),
            ("written_bytes_per_sample", sent_bytes as f64 / all_samples as f64),
            ("recon_mae_w", recon_mae(&gw.output, &meters)?),
            ("ingest.resyncs", gw.ingest.resyncs as f64),
            ("ingest.frames_corrupt", gw.ingest.frames_corrupt as f64),
        ]);
        report.check_counts(r, counts)?;
        if tracer.on() {
            acks += sessions.iter().map(|s| s.acks).sum::<u64>();
            traced_frames += frames;
            server_cpu += all_cpu - own_cpu;
            sessions_ms.extend(sessions.iter().map(|s| s.session_s * 1e3));
            gateway_counts = (gw.stats.frames_acked, gw.ingest.resyncs, gw.ingest.frames_corrupt);
        }
        round.sut_cpu_s = all_cpu - own_cpu;
        round.ops = frames;
        round.latency = Latency::of(sessions.into_iter().flat_map(|s| s.latencies_ms).collect());
        Ok(round)
    })?;

    if ctx.trace {
        let traced_rounds = report.rounds.iter().filter(|r| r.traced).count() as f64;
        let (_, decode_s) = replay(&all)?;
        let decode_ns_per_frame =
            decode_s * 1e9 / all.iter().map(|l| l.frame_ends.len()).sum::<usize>() as f64;
        let wire_bytes: usize = meters.iter().map(|l| l.wire.len()).sum();
        let l = &mut report.layers;
        l.insert("gateway.handshake_ms_p50", tracer.agg("gateway.handshake").p50_ns() / 1e6);
        l.insert("gateway.session_ms_p50", median(&sessions_ms));
        l.insert("gateway.acks_per_frame", acks as f64 / traced_frames as f64);
        l.insert("gateway.server_cpu_us_per_frame", server_cpu * 1e6 / traced_frames as f64);
        l.insert("gateway.frames_acked", gateway_counts.0 as f64);
        l.insert("ingest.decode_ns_per_frame", decode_ns_per_frame);
        l.insert("ingest.resyncs", gateway_counts.1 as f64);
        l.insert("ingest.frames_corrupt", gateway_counts.2 as f64);
        l.insert("wire.bytes_per_frame", wire_bytes as f64 / frames as f64);
        let per_round = |name: &str| tracer.agg(name).total_ns as f64 / 1e6 / traced_rounds;
        let decode_ms = decode_ns_per_frame * frames as f64 / 1e6;
        report.time_table = vec![
            ("client connect".into(), per_round("gateway.connect"), "span".into()),
            ("gateway handshake".into(), per_round("gateway.handshake"), "span".into()),
            ("client send".into(), per_round("gateway.send"), "span".into()),
            (
                "gateway ack wait (minus decode)".into(),
                per_round("gateway.ack_wait") - decode_ms,
                "span minus ingest replay".into(),
            ),
            ("ingest decode".into(), decode_ms, "FleetIngest::ingest replay".into()),
        ];
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_meter_sends_its_table_and_a_week_of_hours() {
        let load = build_load(3, 5, 7).unwrap();
        assert_eq!(load.frame_ends.len(), 1 + 7 * 24);
        assert_eq!(*load.frame_ends.last().unwrap(), load.wire.len());
        assert_eq!(load.raw.len(), 7 * 96);
    }
}
