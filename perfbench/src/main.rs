//! The repository benchmark: drives one workload through the serving path
//! (gateway, ingest, shard, adaptive, segstore, durable) by their public
//! APIs, checks every output, and prints each metric by name with its
//! unit. The last line of standard output is the JSON result.
//!
//! ```text
//! perfbench --workload <meter_push|fleet_backfill|daily_drift>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! See `README.md` next to this crate for what each workload measures.

mod daily_drift;
mod fleet_backfill;
mod inputs;
mod meter_push;
mod report;
#[cfg(test)]
mod smoke;
mod storage;
mod sys;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use report::{Report, Round, Setup, END_TO_END, PER_LAYER};
use trace::Tracer;

pub const WORKLOADS: [&str; 3] = ["meter_push", "fleet_backfill", "daily_drift"];

const USAGE: &str = "usage: perfbench --workload <meter_push|fleet_backfill|daily_drift> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    /// Rounds start until this many wall seconds have passed.
    pub seconds: f64,
    pub min_rounds: usize,
    /// Odd rounds record spans, and a replay leg runs after the rounds.
    pub trace: bool,
    /// Scratch directory for durable files, inside the working directory.
    pub work_dir: PathBuf,
}

impl Ctx {
    /// Runs `round` until `seconds` have passed and at least `min_rounds`
    /// ran, recording host steal over the whole timed phase.
    pub fn rounds(
        &self,
        tracer: &mut Tracer,
        report: &mut Report,
        mut round: impl FnMut(usize, &mut Tracer, &mut Report) -> Result<Round, String>,
    ) -> Result<(), String> {
        let start = Instant::now();
        let steal = sys::host_steal_s();
        let mut r = 0;
        while r < self.min_rounds || start.elapsed().as_secs_f64() < self.seconds {
            let traced = self.trace && r % 2 == 1;
            tracer.set_on(traced);
            let round_steal = sys::host_steal_s();
            let mut out = round(r, tracer, report)?;
            out.steal_s = sys::host_steal_s() - round_steal;
            out.traced = traced;
            report.rounds.push(out);
            r += 1;
        }
        tracer.set_on(false);
        report.layers.insert("host.steal_s", sys::host_steal_s() - steal);
        Ok(())
    }

    /// Sets the system up `times` times (once in a `traced` round, whose
    /// set-ups are not reported), timing each and reading host steal
    /// around it, and returns the last system. `discard` tears down each
    /// earlier one outside timing. `once` gets the set-up's index.
    pub fn set_up<T>(
        &self,
        times: usize,
        traced: bool,
        mut once: impl FnMut(usize) -> Result<T, String>,
        mut discard: impl FnMut(T) -> Result<(), String>,
    ) -> Result<(T, Vec<Setup>), String> {
        let times = if traced { 1 } else { times.max(1) };
        let mut setups = Vec::with_capacity(times);
        let mut last = None;
        for k in 0..times {
            if let Some(system) = last.take() {
                discard(system)?;
            }
            let steal = sys::host_steal_s();
            let t = Instant::now();
            let system = once(k)?;
            let wall_s = t.elapsed().as_secs_f64();
            setups.push(Setup { wall_s, steal_s: sys::host_steal_s() - steal });
            last = Some(system);
        }
        Ok((last.expect("at least one set-up"), setups))
    }
}

/// Maps any displayable error into the benchmark's error string.
pub fn fail<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Shards with at least one house of `batch`: each runs its own pool.
pub fn shards_touched(
    router: &sms_core::shard::ShardRouter,
    batch: &[(u64, sms_core::timeseries::TimeSeries)],
) -> u64 {
    let mut shards: Vec<usize> = batch.iter().map(|(h, _)| router.route(*h)).collect();
    shards.sort_unstable();
    shards.dedup();
    shards.len() as u64
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Runs one workload at full size.
pub fn run_workload(name: &str, ctx: &Ctx, tracer: &mut Tracer) -> Result<Report, String> {
    let mut report = match name {
        "meter_push" => meter_push::run(ctx, &meter_push::Size::full(), tracer),
        "fleet_backfill" => fleet_backfill::run(ctx, &fleet_backfill::Size::full(), tracer),
        "daily_drift" => daily_drift::run(ctx, &daily_drift::Size::full(), tracer),
        _ => Err(format!("unknown workload {name}")),
    }?;
    if ctx.trace {
        if let (Some(traced), Some(untraced)) = report.timed_medians() {
            report.layers.insert("trace.overhead_pct", 100.0 * (traced - untraced) / untraced);
        }
        report.layers.insert("generator.cpu_s", report.generator_cpu_s);
        report.layers.insert("trace.spans", tracer.total_spans() as f64);
    }
    Ok(report)
}

fn print_report(args: &Args, report: &Report) -> Result<String, String> {
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for note in &report.notes {
        println!("  note: {note}");
    }
    let traced = report.rounds.iter().filter(|r| r.traced).count();
    println!(
        "  rounds: {} ({} traced); input digest {:016x}",
        report.rounds.len(),
        traced,
        report.input_digest
    );
    for (i, r) in report.rounds.iter().enumerate() {
        let lat = r.latency;
        let walls: Vec<f64> = r.setups.iter().map(|s| s.wall_s * 1e3).collect();
        println!(
            "  round {i}{}: steal {:.2} s, slowdown {:.3}, setup {:.3} ms (mean of {}, {} saw \
             steal; {:.3} ms less steal), {:.1} ops/s, {:.4} us cpu/op, p50 {:.4} ms, \
             p99 {:.4} ms over {} samples",
            if r.traced { " (traced)" } else { "" },
            r.steal_s,
            r.slowdown(),
            walls.iter().sum::<f64>() / walls.len() as f64,
            walls.len(),
            r.setups.iter().filter(|s| s.steal_s > 0.0).count(),
            r.setup_s() * r.slowdown() * 1e3,
            r.ops as f64 / r.timed_s,
            r.sut_cpu_s * 1e6 / r.ops as f64,
            lat.p50,
            lat.p99,
            lat.samples
        );
    }
    println!(
        "  failed_ratio {:.6} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for (name, v) in &report.counts {
        println!("  count {name:<36} {v}");
    }
    let steal = report.layers.get("host.steal_s").copied().unwrap_or(0.0);
    println!(
        "  host.steal_s {steal:.3} s, generator.cpu_s {:.3} s (diagnostics, not gated)",
        report.generator_cpu_s
    );
    if !args.trace {
        let units: std::collections::BTreeMap<_, _> = END_TO_END.into_iter().collect();
        let mut metrics = Vec::new();
        for (name, v) in report.end_to_end(sys::peak_rss_mib())? {
            println!("  {name:<26} {v:>16.6} {}", units[name]);
            metrics.push((name, units[name], v));
        }
        let wall = report.wall_clock();
        println!(
            "  cpu_us_per_op unscaled     {:>16.6} us at a slowdown of {:.4} (not gated)\n  \
             ops_per_s                  {:>16.6} 1/s (not gated)\n  \
             latency_p50_ms             {:>16.6} ms (not gated)",
            wall.cpu_us_per_op_unscaled, wall.slowdown, wall.ops_per_s, wall.latency_p50_ms
        );
        match wall.latency_p99_ms {
            Some(p99) => println!(
                "  latency_p99_ms             {p99:>16.6} ms, at least {} samples per round \
                 (not gated)",
                wall.fewest_samples
            ),
            None => println!(
                "  latency_p99_ms             n/a: {} samples per round, p99 needs {}",
                wall.fewest_samples,
                report::MIN_P99_SAMPLES
            ),
        }
        return Ok(report::result_line(true, report.attempted, report.failed, &metrics));
    }
    // End-to-end metrics come from untraced runs only; a traced run's
    // untraced rounds serve to price the tracing.
    println!("  where the time goes (ms per traced round):");
    let total: f64 = report.time_table.iter().map(|(_, ms, _)| ms).sum();
    for (layer, ms, how) in &report.time_table {
        println!("    {layer:<28} {ms:>10.3} ms {:>6.1}%  {how}", 100.0 * ms / total.max(1e-12));
    }
    if let (Some(t), Some(u)) = report.timed_medians() {
        println!(
            "  tracing overhead: traced round {:.3} ms vs untraced {:.3} ms ({:+.2}%)",
            t * 1e3,
            u * 1e3,
            100.0 * (t - u) / u
        );
    }
    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER {
        let v = report.layers.get(name).copied().unwrap_or(0.0);
        println!("  layer {name:<36} {v:>16.6} {unit}");
        metrics.push((name, unit, v));
    }
    Ok(report::result_line(true, report.attempted, report.failed, &metrics))
}

fn main() {
    sys::single_malloc_arena();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".bench_work");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        min_rounds: 3,
        trace: args.trace,
        work_dir: work.join(format!("{}-{}", args.workload, std::process::id())),
    };
    let mut tracer = Tracer::new(false);
    let outcome =
        run_workload(&args.workload, &ctx, &mut tracer).and_then(|r| print_report(&args, &r));
    std::fs::remove_dir_all(&ctx.work_dir).ok();
    std::fs::remove_dir(&work).ok();
    match outcome {
        Ok(line) => {
            if args.trace {
                let path =
                    work.join("trace").join(format!("{}-seed{}.tsv", args.workload, args.seed));
                match tracer.write(&path) {
                    Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
                    Err(e) => {
                        eprintln!("perfbench: writing {}: {e}", path.display());
                        std::process::exit(1);
                    }
                }
            }
            println!("{line}");
        }
        Err(e) => {
            eprintln!("perfbench: {}: check failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_are_parsed_strictly() {
        let a = args("--workload daily_drift --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("daily_drift", 7, 10.0, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload meter_push --seed x --seconds 1 --trace 0").is_err());
        assert!(args("--workload meter_push --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload meter_push --seed 1 --trace 0").is_err());
        assert!(args("--workload meter_push --seed 1 --seconds 1 --bogus 0").is_err());
    }
}
