//! ML training benchmark: J48 and Random Forest fit time with the presorted
//! split search vs the legacy per-node sort, on numeric (raw day-vector
//! style) and nominal (symbolic day-vector style) datasets.
//!
//! The harness computes its medians directly so it can emit a
//! machine-readable summary: set `BENCH_ML_OUT`
//! to a path to write a `BENCH_ml.json` record, and `BENCH_ML_SMOKE=1` to
//! run a down-scaled smoke pass (used by `scripts/ci.sh`).

use sms_ml::classifier::Classifier;
use sms_ml::data::{Attribute, Instances, Value};
use sms_ml::forest::RandomForest;
use sms_ml::tree::{SplitSearch, C45};
use std::time::Instant;

const CLASSES: usize = 6;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Numeric dataset shaped like raw hourly day-vectors: 24 numeric readings
/// per row, classes separated by a noisy per-class level.
fn numeric_dataset(rows: usize) -> Instances {
    let mut attrs: Vec<Attribute> = (0..24).map(|h| Attribute::numeric(format!("h{h}"))).collect();
    attrs.push(Attribute::nominal_indexed("house", CLASSES));
    let class_index = attrs.len() - 1;
    let mut inst = Instances::new(attrs, class_index).unwrap();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..rows {
        let class = i % CLASSES;
        let mut row: Vec<Value> = (0..24)
            .map(|h| {
                let noise = (xorshift(&mut state) & 0xFFFF) as f64 / 65536.0;
                Value::Numeric(class as f64 + 0.5 * ((h % 5) as f64) + noise)
            })
            .collect();
        row.push(Value::Nominal(class as u32));
        inst.push_row(row).unwrap();
    }
    inst
}

/// Nominal dataset shaped like symbolic day-vectors: 24 slots over a
/// 16-symbol alphabet.
fn nominal_dataset(rows: usize) -> Instances {
    let mut attrs: Vec<Attribute> =
        (0..24).map(|h| Attribute::nominal_indexed(format!("h{h}"), 16)).collect();
    attrs.push(Attribute::nominal_indexed("house", CLASSES));
    let class_index = attrs.len() - 1;
    let mut inst = Instances::new(attrs, class_index).unwrap();
    let mut state = 0xD1B5_4A32_D192_ED03u64;
    for i in 0..rows {
        let class = i % CLASSES;
        let mut row: Vec<Value> = (0..24)
            .map(|_| {
                let sym = (xorshift(&mut state) % 8) as u32 + (class as u32 % 8);
                Value::Nominal(sym.min(15))
            })
            .collect();
        row.push(Value::Nominal(class as u32));
        inst.push_row(row).unwrap();
    }
    inst
}

/// Median fit time in seconds over `samples` runs.
fn time_fit(
    samples: usize,
    mut build: impl FnMut() -> Box<dyn Classifier>,
    data: &Instances,
) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let mut model = build();
            let t0 = Instant::now();
            model.fit(data).unwrap();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

fn j48(search: SplitSearch) -> Box<dyn Classifier> {
    let mut t = C45::new();
    t.split_search = search;
    Box::new(t)
}

fn forest(search: SplitSearch) -> Box<dyn Classifier> {
    let mut f = RandomForest::new(10, 21);
    f.split_search = search;
    Box::new(f)
}

fn main() {
    let smoke = std::env::var("BENCH_ML_SMOKE").is_ok();
    let (rows, samples) = if smoke { (120, 2) } else { (600, 5) };
    let numeric = numeric_dataset(rows);
    let nominal = nominal_dataset(rows);

    let mut json = String::from("{\"bench\":\"ml\",");
    json += &format!("\"rows\":{rows},\"samples\":{samples},");
    println!("ml bench: {rows} rows, median of {samples} fits [ms]");
    println!("{:<28} {:>10} {:>14} {:>8}", "model/data", "presorted", "per_node_sort", "speedup");
    for (label, build, data) in [
        ("j48/numeric", j48 as fn(SplitSearch) -> Box<dyn Classifier>, &numeric),
        ("j48/nominal", j48, &nominal),
        ("random_forest/numeric", forest, &numeric),
        ("random_forest/nominal", forest, &nominal),
    ] {
        let fast = time_fit(samples, || build(SplitSearch::Presorted), data);
        let slow = time_fit(samples, || build(SplitSearch::PerNodeSort), data);
        let speedup = slow / fast.max(f64::MIN_POSITIVE);
        println!("{:<28} {:>10.3} {:>14.3} {:>7.2}x", label, fast * 1e3, slow * 1e3, speedup);
        json += &format!(
            "\"{}\":{{\"presorted_ms\":{:.4},\"per_node_sort_ms\":{:.4},\"speedup\":{:.3}}},",
            label.replace('/', "_"),
            fast * 1e3,
            slow * 1e3,
            speedup
        );
    }
    json.pop();
    json += "}";
    if let Ok(path) = std::env::var("BENCH_ML_OUT") {
        std::fs::write(&path, format!("{json}\n")).unwrap();
        println!("wrote {path}");
    }
}
