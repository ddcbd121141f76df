//! The sensor→server wire protocol (paper §2): a sensor trains its lookup
//! table on the first two days, ships the table once, then streams one
//! symbol per 15-minute window; the server reconstructs approximate
//! consumption from the symbols alone. Demonstrates the online conversion
//! and the §2.3 compression accounting on live data, with the sensor and
//! server on separate threads connected by a channel that carries the
//! binary wire frames.
//!
//! ```sh
//! cargo run --release --example streaming_sensor
//! ```

use smart_meter_symbolics::core::encoder::{SensorMessage, SensorPipeline};
use smart_meter_symbolics::core::lookup::SymbolSemantics;
use smart_meter_symbolics::core::wire::encode_message;
use smart_meter_symbolics::meterdata::generator::redd_like;
use smart_meter_symbolics::prelude::*;
use std::sync::mpsc;
use std::thread;

fn main() -> Result<()> {
    let dataset = redd_like(99, 4, 10).generate()?;
    let house = dataset.house(1).expect("house 1 exists").clone();
    let total_samples = house.len();

    let (tx, rx) = mpsc::sync_channel::<Vec<u8>>(1024);

    // Sensor thread: trains for 2 days, then streams 15-minute symbols as
    // wire frames.
    let sensor = thread::spawn(move || -> Result<(usize, usize)> {
        let mut pipeline = SensorPipeline::new(
            SeparatorMethod::Median,
            Alphabet::with_size(16)?,
            900,
            Aggregation::Mean,
            2 * 86_400,
        )?;
        let mut wire_bytes = 0usize;
        let mut messages = 0usize;
        let mut send = |msg: &SensorMessage| -> Result<()> {
            let frame = encode_message(msg)?;
            wire_bytes += frame.len();
            messages += 1;
            tx.send(frame).expect("server alive");
            Ok(())
        };
        for (t, v) in house.iter() {
            for msg in pipeline.push(t, v)? {
                send(&msg)?;
            }
        }
        for msg in pipeline.finish() {
            send(&msg)?;
        }
        Ok((wire_bytes, messages))
    });

    // Server thread: decodes the byte stream, takes the table, then
    // reconstructs every window's symbol under it.
    let server = thread::spawn(move || -> Result<(usize, f64)> {
        let mut ingest = MeterIngest::new(IngestConfig::default());
        let mut windows = 0usize;
        let mut watt_sum = 0.0;
        for bytes in rx.iter() {
            for msg in ingest.ingest(&bytes) {
                match msg {
                    SensorMessage::Table(t) | SensorMessage::EpochTable { table: t, .. } => {
                        println!(
                            "server: received lookup table ({} symbols, {} bytes on the wire)",
                            t.size(),
                            bytes.len()
                        )
                    }
                    SensorMessage::Window(w) => {
                        let t = ingest.table().expect("table precedes symbols");
                        watt_sum += t.decode_symbol(w.symbol, SymbolSemantics::RangeMean)?;
                        windows += 1;
                    }
                }
            }
        }
        Ok((windows, watt_sum))
    });

    let (wire_bytes, messages) = sensor.join().expect("sensor thread")?;
    let (windows, watt_sum) = server.join().expect("server thread")?;

    println!("sensor:  {total_samples} raw samples → {messages} wire messages ({wire_bytes} bytes total)");
    println!(
        "server:  {} windows decoded, mean reconstructed power {:.0} W",
        windows,
        watt_sum / windows as f64
    );
    let raw_bytes = total_samples * 8;
    println!(
        "wire vs raw f64 stream: {wire_bytes} B vs {raw_bytes} B ({:.0}× smaller; frame headers included —\n\
         bit-packed symbols alone would be {} B, the §2.3 three-orders-of-magnitude figure)",
        raw_bytes as f64 / wire_bytes as f64,
        windows.div_ceil(2)
    );
    Ok(())
}
