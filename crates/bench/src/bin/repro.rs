//! `repro` — regenerate any table or figure of the paper.
//!
//! ```text
//! repro <experiment> [--scale quick|paper|k=v,...] [--seed N] [--parallel] [--workers N]
//!                    [--faults] [--meters N] [--houses N] [--shards N] [--metrics[=FILE]]
//! repro validate-metrics <FILE>
//! experiments: fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9
//!              table1 classification compression drift privacy fleet ingest
//!              gateway quality encode-bench scale crash all
//! ```
//!
//! `--parallel` routes the `fleet` experiment through the multi-threaded
//! [`sms_core::engine::FleetEngine`]; `--workers N` sets the worker count
//! (and implies `--parallel`). The evaluation-matrix experiments
//! (`classification`, `fig5`–`fig7`, `table1`, `sax`) also honour
//! `--workers`: their independent grid cells run on a worker pool, with
//! results bit-identical to a serial run at any worker count. `--faults`
//! makes the `ingest` experiment corrupt its wire streams with the
//! deterministic fault injector.
//!
//! The `gateway` experiment starts the network-facing
//! [`sms_core::gateway::Gateway`] on loopback TCP and drives it with
//! `--meters N` synthetic meter connections (`--faults` adds bad tokens,
//! truncated streams and slow writers); it fails unless the gateway's
//! decoded fleet is byte-identical to the in-process ingest path.
//!
//! The `scale` experiment streams `--houses N` synthetic houses (default
//! from `--scale`, up to a million) through the sharded fleet engine
//! ([`sms_core::shard`]) into the bit-packed segment store
//! ([`sms_core::segstore`]), reporting end-to-end throughput, bytes/house
//! (raw vs packed vs re-compressed) and query latency percentiles, and
//! verifying byte-identity against the serial codec and across shard/worker
//! topologies. `--shards N` sets the main run's shard count.
//!
//! The `crash` experiment sweeps crash points over the durable segment
//! store ([`sms_core::durable`]): the storage backend is killed after every
//! Nth mutating operation across a faulted fleet run, the store is
//! recovered from the surviving bytes, and the recovered image (full
//! resolution and truncated reads) must be byte-identical to an uncrashed
//! reference. A shard-failover leg and a loopback-gateway leg prove zero
//! acknowledged-frame loss end to end; `--houses N` and `--shards N` size
//! the sweep.
//!
//! The `drift` experiment injects a mid-stream distribution change into a
//! CER-like fleet ([`meterdata::generator::cer_drifted`]) and measures
//! reconstruction accuracy before/during/after it, with the static day-one
//! table and with the sketch-backed adaptive path
//! ([`sms_core::adaptive`]) that re-learns separators and ships each
//! rebuilt table under a new epoch. A sharded-engine leg proves the drift
//! gate cuts every house over, and a topology sweep proves symbols and
//! epochs byte-identical at {1,4,16} shards × {1,2,8} workers across the
//! cutover. `--shards N` / `--workers N` size the main fleet run.
//!
//! `--metrics` exports the run's [`sms_core::telemetry`] registry — every
//! catalog counter, gauge and histogram plus the recorded spans — after the
//! experiment finishes: one `metrics_json: {...}` line on stdout followed by
//! the Prometheus text exposition (on stdout, or written to `FILE` with
//! `--metrics=FILE`). `validate-metrics` parses a saved `metrics_json`
//! document back through `sms_core::json` and checks its documented shape;
//! CI uses it as the exporter smoke test (see `OBSERVABILITY.md`).

use sms_bench::ablation::{
    render_separator_ablation, run_separator_ablation, run_streaming_ablation,
};
use sms_bench::classification::{ClassifierKind, FigureRun, TableMode};
use sms_bench::clustering::{render_clustering, run_clustering};
use sms_bench::drift::{render_drift, run_drift};
use sms_bench::encode_bench::{render_encode_bench, run_encode_bench};
use sms_bench::export::export_arff;
use sms_bench::figures::{
    compression_table, fig1_symbol_tree, fig2_distribution, fig3_normalization, fig4_statistics,
};
use sms_bench::forecasting::{ForecastFigure, ForecastModel};
use sms_bench::gateway_exp::{render_gateway, run_gateway};
use sms_bench::ingest_exp::{render_ingest, run_ingest};
use sms_bench::prep::dataset;
use sms_bench::privacy_exp::{render_privacy, run_privacy};
use sms_bench::quality_exp::{render_quality, run_quality};
use sms_bench::sax_exp::{render_sax_comparison, run_sax_comparison};
use sms_bench::table1::Table1;
use sms_bench::Scale;
use sms_core::telemetry::{render_metrics_json, Registry};
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: repro <experiment> [--scale quick|paper|k=v,...] [--seed N] [--parallel] \
         [--workers N] [--faults] [--meters N] [--houses N] [--shards N] [--metrics[=FILE]]\n\
         \x20      repro validate-metrics <FILE>\n\
         experiments: fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9\n\
         table1 classification compression drift privacy clustering ablation sax markov fidelity \
         arff fleet ingest gateway quality encode-bench scale crash all\n\
         --scale: a preset (`quick`, `paper`) optionally followed by comma-\n\
         separated key=value overrides (days/interval/trees/folds/seed/houses),\n\
         e.g. `--scale paper,houses=1000000`\n\
         --parallel / --workers N: encode the `fleet` experiment through the\n\
         multi-threaded FleetEngine (default: serial codec); also parallelize\n\
         the evaluation-matrix experiments (classification, fig5-7, table1,\n\
         sax) at the grid-cell level — results are bit-identical to serial\n\
         --faults: corrupt the `ingest` experiment's wire streams (bit flips,\n\
         truncation, duplication) before the server-side gateway decodes them;\n\
         for the `quality` experiment, corrupt generated series at the sample\n\
         level (NaN runs, gaps, duplicates, reset spikes) and seed panicking\n\
         encode jobs — the engine must repair, retry or quarantine, never abort\n\
         --meters N: fleet size for the `gateway` experiment — N loopback TCP\n\
         connections through the token handshake and session workers (default\n\
         64); with --faults the mix adds bad tokens, truncated streams and\n\
         slow writers, and the run still must match the in-process ingest\n\
         path byte for byte\n\
         --houses N: fleet size for the `scale` experiment (shorthand for\n\
         `--scale ...,houses=N`); a million houses streams in bounded memory\n\
         --shards N: shard count for the `scale` experiment's main run (the\n\
         byte-identity sweep always covers {{1,4,16}} shards x {{1,2,8}} workers)\n\
         --metrics: after the run, print `metrics_json: {{...}}` plus the\n\
         Prometheus text exposition of every telemetry counter, gauge,\n\
         histogram and span (to FILE instead of stdout with --metrics=FILE);\n\
         `validate-metrics FILE` re-parses a saved metrics_json document and\n\
         verifies its documented shape (the CI exporter smoke test)"
    );
    std::process::exit(2);
}

/// How the `fleet` experiment should encode: serially or through the engine.
#[derive(Clone, Copy, Debug)]
struct ParallelOpts {
    parallel: bool,
    workers: Option<usize>,
    faults: bool,
    meters: usize,
    shards: Option<usize>,
}

/// Where `--metrics` sends the Prometheus text exposition.
#[derive(Clone, Debug)]
enum MetricsSink {
    /// Bare `--metrics`: exposition follows the `metrics_json:` line on
    /// stdout.
    Stdout,
    /// `--metrics=FILE`: exposition is written to `FILE`.
    File(String),
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let experiment = args[0].clone();
    if experiment == "validate-metrics" {
        let path = args.get(1).cloned().unwrap_or_else(|| usage());
        if let Err(e) = validate_metrics_file(&path) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        println!("metrics file {path} is valid");
        return;
    }
    let mut scale = Scale::quick();
    let mut opts =
        ParallelOpts { parallel: false, workers: None, faults: false, meters: 64, shards: None };
    let mut metrics: Option<MetricsSink> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                let spec = args.get(i).unwrap_or_else(|| usage());
                scale = Scale::parse(spec).unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                });
            }
            "--seed" => {
                i += 1;
                scale.seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--parallel" => {
                opts.parallel = true;
            }
            "--faults" => {
                opts.faults = true;
            }
            "--workers" => {
                i += 1;
                opts.workers =
                    Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
                opts.parallel = true;
            }
            "--meters" => {
                i += 1;
                opts.meters = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--houses" => {
                i += 1;
                scale.houses = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&h: &usize| h > 0)
                    .unwrap_or_else(|| usage());
            }
            "--shards" => {
                i += 1;
                opts.shards = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&n: &usize| n > 0)
                        .unwrap_or_else(|| usage()),
                );
            }
            "--metrics" => {
                metrics = Some(MetricsSink::Stdout);
            }
            arg => match arg.strip_prefix("--metrics=") {
                Some(path) if !path.is_empty() => {
                    metrics = Some(MetricsSink::File(path.to_string()));
                }
                _ => usage(),
            },
        }
        i += 1;
    }

    // One registry per `repro` invocation: experiments register their
    // finished stats blocks into it, and the whole run is timed under a root
    // span named after the experiment.
    let reg = Registry::with_catalog();
    let t0 = Instant::now();
    let result = {
        let _root = reg.span(&experiment);
        run_with_opts(&experiment, scale, opts, &reg)
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    if let Some(sink) = metrics {
        if let Err(e) = export_metrics(&reg, &experiment, &sink) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
    eprintln!("\n[{experiment} done in {:.1}s]", t0.elapsed().as_secs_f64());
}

/// Emits the two `--metrics` exports: the merged JSON document on stdout and
/// the Prometheus text exposition on stdout or into a file.
fn export_metrics(
    reg: &Registry,
    experiment: &str,
    sink: &MetricsSink,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("metrics_json: {}", render_metrics_json(reg, experiment));
    let exposition = reg.render_prometheus();
    match sink {
        MetricsSink::Stdout => print!("{exposition}"),
        MetricsSink::File(path) => std::fs::write(path, exposition)?,
    }
    Ok(())
}

/// `repro validate-metrics FILE`: re-parses a saved metrics document through
/// `sms_core::json` and checks the documented top-level shape. Accepts either
/// the raw JSON or a captured stdout line starting with `metrics_json: `.
fn validate_metrics_file(path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let raw = std::fs::read_to_string(path)?;
    let doc = raw
        .lines()
        .find_map(|l| l.strip_prefix("metrics_json: "))
        .unwrap_or(raw.trim())
        .to_string();
    let parsed = sms_core::json::parse(&doc).map_err(|e| format!("metrics JSON: {e}"))?;
    for key in ["experiment", "metrics", "histograms", "spans"] {
        if parsed.get(key).is_none() {
            return Err(format!("metrics JSON is missing the top-level key {key:?}").into());
        }
    }
    let blocks = parsed.get("metrics").and_then(|m| m.as_object());
    if blocks.is_none_or(|m| m.is_empty()) {
        return Err("metrics JSON has an empty \"metrics\" section".into());
    }
    Ok(())
}

fn run_with_opts(
    experiment: &str,
    scale: Scale,
    opts: ParallelOpts,
    reg: &Registry,
) -> Result<(), Box<dyn std::error::Error>> {
    // Evaluation-matrix experiments: serial unless the user opted in;
    // `--parallel` alone means "all cores".
    let eval_workers = if opts.parallel { opts.workers.unwrap_or(0) } else { 1 };
    match experiment {
        "fleet" => run_fleet(scale, opts, reg),
        "ingest" => run_ingest_exp(scale, opts.faults, reg),
        "gateway" => run_gateway_exp(scale, opts, reg),
        "quality" => run_quality_exp(scale, opts.faults, reg),
        "scale" => run_scale_exp(scale, opts, reg),
        "crash" => run_crash_exp(scale, opts, reg),
        "drift" => run_drift_exp(scale, opts, reg),
        _ => run(experiment, scale, eval_workers, reg),
    }
}

/// Inject a mid-stream distribution change into a CER-like fleet and measure
/// reconstruction accuracy before/during/after it, with and without the
/// sketch-backed adaptive re-learning path — plus the sharded drift-gate leg
/// and the topology byte-identity sweep across the epoch cutover.
fn run_drift_exp(
    scale: Scale,
    opts: ParallelOpts,
    reg: &Registry,
) -> Result<(), Box<dyn std::error::Error>> {
    let shards = opts.shards.unwrap_or(4);
    let workers = opts.workers.unwrap_or(2).max(1);
    let report = run_drift(scale, shards, workers)?;
    report.stats.register_into(reg);
    print!("{}", render_drift(&report));
    println!("drift_bench: {}", report.to_json());
    println!("engine_stats: {}", report.stats.to_json());
    Ok(())
}

/// Sweep crash points over the durable segment store: kill the storage
/// backend after every Nth operation, recover, and prove the recovered
/// store byte-identical to an uncrashed reference — plus the shard-failover
/// and gateway-path legs.
fn run_crash_exp(
    scale: Scale,
    opts: ParallelOpts,
    reg: &Registry,
) -> Result<(), Box<dyn std::error::Error>> {
    use sms_bench::crash_exp::{render_crash, run_crash};

    let shards = opts.shards.unwrap_or(3);
    let workers = opts.workers.unwrap_or(2).max(1);
    let report = run_crash(scale, shards, workers)?;
    report.stats.register_into(reg);
    print!("{}", render_crash(&report));
    println!("crash_bench: {}", report.to_json());
    println!("engine_stats: {}", report.stats.to_json());
    Ok(())
}

/// Stream a synthetic fleet through the sharded engine into the bit-packed
/// segment store, report throughput / bytes-per-house / query latency, and
/// verify byte-identity against the serial codec and across topologies.
fn run_scale_exp(
    scale: Scale,
    opts: ParallelOpts,
    reg: &Registry,
) -> Result<(), Box<dyn std::error::Error>> {
    use sms_bench::scale_exp::{render_scale, run_scale};

    let shards = opts.shards.unwrap_or(4);
    let workers = opts.workers.unwrap_or(2).max(1);
    let report = run_scale(scale, shards, workers)?;
    report.stats.register_into(reg);
    print!("{}", render_scale(&report));
    println!("scale_bench: {}", report.to_json());
    println!("engine_stats: {}", report.stats.to_json());
    Ok(())
}

/// Corrupt a fleet's samples and panic-seed its encode jobs, then prove the
/// supervised engine repairs, retries or quarantines without aborting.
fn run_quality_exp(
    scale: Scale,
    faults: bool,
    reg: &Registry,
) -> Result<(), Box<dyn std::error::Error>> {
    let report = run_quality(scale, faults)?;
    report.stats.register_into(reg);
    println!("{}", render_quality(&report));
    println!("engine_stats: {}", report.stats.to_json());
    Ok(())
}

/// Drive the network-facing gateway over loopback TCP with a synthetic
/// meter fleet, then prove its decoded output byte-identical to the
/// in-process ingest path.
fn run_gateway_exp(
    scale: Scale,
    opts: ParallelOpts,
    reg: &Registry,
) -> Result<(), Box<dyn std::error::Error>> {
    let workers = opts.workers.unwrap_or(2).max(1);
    let report = run_gateway(scale, opts.meters, workers, opts.faults)?;
    report.stats.register_into(reg);
    println!("{}", render_gateway(&report));
    println!("engine_stats: {}", report.stats.to_json());
    Ok(())
}

/// Encode a fleet, ship it over a (optionally faulted) wire, and decode it
/// through the hardened per-meter ingest gateways.
fn run_ingest_exp(
    scale: Scale,
    faults: bool,
    reg: &Registry,
) -> Result<(), Box<dyn std::error::Error>> {
    let report = run_ingest(scale, faults)?;
    report.stats.register_into(reg);
    println!("{}", render_ingest(&report));
    println!("engine_stats: {}", report.stats.to_json());
    Ok(())
}

/// Encode a synthetic fleet, either serially or through the parallel
/// [`FleetEngine`](sms_core::engine::FleetEngine), and print throughput
/// counters.
fn run_fleet(
    scale: Scale,
    opts: ParallelOpts,
    reg: &Registry,
) -> Result<(), Box<dyn std::error::Error>> {
    use meterdata::generator::fleet_series;
    use sms_core::engine::{EngineConfig, FleetEngine};
    use sms_core::pipeline::CodecBuilder;
    use sms_core::separators::SeparatorMethod;

    let houses = scale.houses;
    let houses_u32 = u32::try_from(houses)
        .map_err(|_| format!("fleet generator caps at u32 houses, got {houses}"))?;
    let fleet = fleet_series(scale.seed, houses_u32, scale.days.clamp(1, 7), scale.interval_secs)?;
    let samples: usize = fleet.iter().map(|h| h.len()).sum();
    let builder =
        CodecBuilder::new().method(SeparatorMethod::Median).alphabet_size(16)?.window_secs(3600);

    if opts.parallel {
        let mut config = EngineConfig::default();
        if let Some(w) = opts.workers {
            config = EngineConfig::with_workers(w);
        }
        let engine = FleetEngine::new(builder, config);
        let enc = engine.encode_fleet(&fleet)?;
        enc.stats.register_into(reg);
        let symbols: usize = enc.series.iter().map(|s| s.len()).sum();
        println!(
            "fleet: {houses} houses, {samples} samples -> {symbols} symbols \
             ({} workers)",
            enc.stats.workers
        );
        println!("engine_stats: {}", enc.stats.to_json());
    } else {
        let t0 = Instant::now();
        let mut symbols = 0usize;
        for h in &fleet {
            symbols += builder.train(h)?.encode(h)?.len();
        }
        let secs = t0.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
        println!("fleet: {houses} houses, {samples} samples -> {symbols} symbols (serial)");
        println!(
            "serial_stats: {{\"encode_secs\":{secs:.6},\"samples_per_sec\":{:.1}}}",
            samples as f64 / secs
        );
    }
    Ok(())
}

fn run(
    experiment: &str,
    scale: Scale,
    workers: usize,
    reg: &Registry,
) -> Result<(), Box<dyn std::error::Error>> {
    match experiment {
        "fleet" => {
            let opts = ParallelOpts {
                parallel: false,
                workers: None,
                faults: false,
                meters: 64,
                shards: None,
            };
            run_fleet(scale, opts, reg)?;
        }
        "ingest" => {
            run_ingest_exp(scale, false, reg)?;
        }
        "fig1" => {
            println!("{}", fig1_symbol_tree(800.0, 3)?);
        }
        "fig2" => {
            let ds = dataset(scale)?;
            println!("{}", fig2_distribution(&ds, 1)?.render());
        }
        "fig3" => {
            println!("{}", fig3_normalization()?.render());
        }
        "fig4" => {
            let ds = dataset(scale)?;
            let report_every = (1000 / scale.interval_secs).max(1) as usize * 10;
            println!("{}", fig4_statistics(&ds, 1, 3, report_every)?.render());
        }
        "fig5" | "fig6" | "fig7" => {
            let ds = dataset(scale)?;
            let (kind, mode) = match experiment {
                "fig5" => (ClassifierKind::NaiveBayes, TableMode::PerHouse),
                "fig6" => (ClassifierKind::RandomForest, TableMode::PerHouse),
                _ => (ClassifierKind::RandomForest, TableMode::Global),
            };
            let fig = FigureRun::run(&ds, scale, kind, mode, workers)?;
            fig.eval.register_into(reg);
            println!("{}", fig.render());
            println!("mean F by method: {:?}", fig.mean_f_by_method());
            if let Some((spec, cell)) = fig.best_symbolic() {
                println!(
                    "best symbolic: {} F={:.3} vs best raw F={:.3}",
                    spec.label(),
                    cell.f_measure,
                    fig.best_raw_f()
                );
            }
        }
        "classification" => {
            // Fig. 5's grid with full engine counters: one JSON block per
            // run, mirroring the `fleet`/`ingest` experiments.
            let ds = dataset(scale)?;
            let fig = FigureRun::run(
                &ds,
                scale,
                ClassifierKind::NaiveBayes,
                TableMode::PerHouse,
                workers,
            )?;
            println!("{}", fig.render());
            let stats = sms_core::engine::EngineStats {
                workers: fig.eval.workers,
                houses: ds.records().len(),
                samples_in: ds.records().iter().map(|r| r.series.len() as u64).sum(),
                symbols_out: 0,
                eval: Some(fig.eval),
                ..Default::default()
            };
            stats.register_into(reg);
            println!("engine_stats: {}", stats.to_json());
        }
        "table1" => {
            let ds = dataset(scale)?;
            let t = Table1::run(&ds, scale, workers)?;
            println!("{}", t.render());
            println!(
                "mean per-house F: median={:.3} distinctmedian={:.3} uniform={:.3}",
                t.mean_per_house("median"),
                t.mean_per_house("distinctmedian"),
                t.mean_per_house("uniform"),
            );
        }
        "fig8" | "fig9" | "markov" => {
            let ds = dataset(scale)?;
            let model = match experiment {
                "fig8" => ForecastModel::NaiveBayes,
                "fig9" => ForecastModel::RandomForest,
                _ => ForecastModel::Markov,
            };
            let fig = ForecastFigure::run(&ds, scale, model)?;
            println!("{}", fig.render());
            println!(
                "houses where some symbolic encoding beats raw SVR: {}/{}",
                fig.symbolic_wins(),
                fig.houses.len()
            );
        }
        "compression" => {
            let ds = dataset(scale)?;
            println!("{}", compression_table(&ds, scale)?);
        }
        "drift" => {
            let opts = ParallelOpts {
                parallel: false,
                workers: None,
                faults: false,
                meters: 64,
                shards: None,
            };
            run_drift_exp(scale, opts, reg)?;
        }
        "privacy" => {
            let ds = dataset(scale)?;
            println!("{}", render_privacy(&run_privacy(&ds, scale)?));
        }
        "sax" => {
            let ds = dataset(scale)?;
            println!("{}", render_sax_comparison(&run_sax_comparison(&ds, scale, workers)?));
        }
        "clustering" => {
            let ds = dataset(scale)?;
            println!("{}", render_clustering(&run_clustering(&ds, scale)?));
        }
        "encode-bench" => {
            // The encode hot-path sweep behind `BENCH_encode.json`: scalar
            // vs batched per-core throughput, with each timed side recorded
            // as a span under this experiment's root span.
            let report = run_encode_bench(scale, reg)?;
            print!("{}", render_encode_bench(&report));
            println!("encode_bench: {}", report.to_json());
        }
        "ablation" => {
            println!("{}", render_separator_ablation(&run_separator_ablation(scale)?));
            let s = run_streaming_ablation(scale)?;
            println!(
                "Exact vs sketch streaming separator learning: max relative deviation {:.3}, \
                 symbol disagreement {:.1}%",
                s.max_relative_deviation,
                s.symbol_disagreement * 100.0
            );
        }
        "fidelity" => {
            let ds = dataset(scale)?;
            let reports: Vec<(u32, meterdata::validation::FidelityReport)> = ds
                .records()
                .iter()
                .map(|r| {
                    meterdata::validation::fidelity_report(&r.series, ds.interval_secs())
                        .map(|rep| (r.house_id, rep))
                })
                .collect::<Result<_, _>>()?;
            println!("{}", meterdata::validation::render_fidelity(&reports));
        }
        "arff" => {
            let ds = dataset(scale)?;
            let dir = std::path::Path::new("arff_export");
            let files = export_arff(&ds, scale, dir)?;
            println!("wrote {} ARFF files to {}/", files.len(), dir.display());
        }
        "all" => {
            for e in [
                "fig1",
                "fig2",
                "fig3",
                "fig4",
                "compression",
                "fig5",
                "fig6",
                "fig7",
                "classification",
                "table1",
                "fig8",
                "fig9",
                "markov",
                "drift",
                "privacy",
                "clustering",
                "ablation",
                "sax",
                "fidelity",
            ] {
                println!("==================== {e} ====================");
                run(e, scale, workers, reg)?;
            }
        }
        _ => usage(),
    }
    Ok(())
}
