//! Tiny-size runs of every workload, untraced and traced, and the
//! determinism self-check: two runs at one seed report bit-identical
//! counts, and another seed changes the inputs.

use std::path::PathBuf;

use crate::report::Report;
use crate::trace::Tracer;
use crate::{daily_drift, fleet_backfill, meter_push, Ctx};

fn run(name: &str, seed: u64, trace: bool) -> Report {
    let ctx = Ctx {
        seed,
        seconds: 0.0,
        min_rounds: 2,
        trace,
        work_dir: PathBuf::from(".bench_work")
            .join(format!("test-{name}-{seed}-{trace}-{}", std::process::id())),
    };
    let mut tracer = Tracer::new(false);
    let report = match name {
        "meter_push" => meter_push::run(&ctx, &meter_push::Size::tiny(), &mut tracer),
        "fleet_backfill" => fleet_backfill::run(&ctx, &fleet_backfill::Size::tiny(), &mut tracer),
        "daily_drift" => daily_drift::run(&ctx, &daily_drift::Size::tiny(), &mut tracer),
        _ => unreachable!("unknown workload {name}"),
    };
    std::fs::remove_dir_all(&ctx.work_dir).ok();
    // Other tests may still be using it; the last one out removes it.
    std::fs::remove_dir(".bench_work").ok();
    report.unwrap_or_else(|e| panic!("{name} seed {seed} trace {trace}: {e}"))
}

fn bits(r: &Report) -> Vec<(&'static str, u64)> {
    r.counts.iter().map(|(k, v)| (*k, v.to_bits())).collect()
}

fn smoke(name: &str) {
    let plain = run(name, 1, false);
    assert_eq!(plain.rounds.len(), 2);
    assert!(plain.rounds.iter().all(|r| !r.traced && r.ops > 0 && r.timed_s > 0.0));
    assert!(plain.attempted > 0);
    assert_eq!(plain.failed, 0);
    for key in ["stored_bytes_per_sample", "written_bytes_per_sample", "recon_mae_w"] {
        assert!(plain.counts[key] > 0.0, "{name}: {key} = {}", plain.counts[key]);
    }

    let traced = run(name, 1, true);
    assert!(traced.rounds[1].traced && !traced.rounds[0].traced);
    assert!(!traced.time_table.is_empty(), "{name}: no time table");
    assert!(traced.layers.len() > 2, "{name}: no per-layer metrics");
    assert_eq!(bits(&plain), bits(&traced), "{name}: tracing changed the work");
    assert_eq!(plain.input_digest, traced.input_digest);

    let other = run(name, 2, false);
    assert_ne!(
        plain.input_digest, other.input_digest,
        "{name}: the seed does not reach the inputs"
    );
}

#[test]
fn meter_push_smoke() {
    smoke("meter_push");
}

#[test]
fn fleet_backfill_smoke() {
    smoke("fleet_backfill");
}

#[test]
fn daily_drift_smoke() {
    smoke("daily_drift");
}
