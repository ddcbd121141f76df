//! Metric names, the statistics that turn rounds into metrics, and the
//! result line the benchmark prints last.

use std::collections::BTreeMap;

use crate::sys;

/// End-to-end metrics, printed with `--trace 0`, in `BENCHMARK.json` order.
/// The wall-clock figures (`ops_per_s`, `latency_p50_ms`, `latency_p99_ms`)
/// are printed next to them but not gated: sustained hypervisor steal moved
/// them by up to 45% between runs of one program (see README.md).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MiB"),
    ("stored_bytes_per_sample", "B"),
    ("written_bytes_per_sample", "B"),
    ("recon_mae_w", "W"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer a workload does not
/// reach reports 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("gateway.handshake_ms_p50", "ms"),
    ("gateway.session_ms_p50", "ms"),
    ("gateway.acks_per_frame", "1"),
    ("gateway.server_cpu_us_per_frame", "us"),
    ("gateway.frames_acked", "count"),
    ("ingest.decode_ns_per_frame", "ns"),
    ("ingest.resyncs", "count"),
    ("ingest.frames_corrupt", "count"),
    ("wire.bytes_per_frame", "B"),
    ("shard.self_ns_per_sample", "ns"),
    ("shard.cache_hit_ratio", "1"),
    ("shard.cache_evictions", "count"),
    ("shard.merge_wait_ms", "ms"),
    ("pool.threads_per_batch", "count"),
    ("pool.max_queue_depth", "count"),
    ("pool.panics", "count"),
    ("pool.retries", "count"),
    ("separators.train_ns_per_sample", "ns"),
    ("lookup.encode_ns_per_sample", "ns"),
    ("adaptive.statistic_us_per_call", "us"),
    ("adaptive.push_ns_per_sample", "ns"),
    ("adaptive.rebuilds", "count"),
    ("adaptive.suppressed_hysteresis", "count"),
    ("adaptive.suppressed_min_interval", "count"),
    ("adaptive.sketch_bytes", "B"),
    ("segstore.append_ns_per_segment", "ns"),
    ("segstore.pack_ns_per_segment", "ns"),
    ("segstore.payload_bytes_per_sample", "B"),
    ("segstore.meta_bytes_per_sample", "B"),
    ("segstore.read_us_p50", "us"),
    ("segstore.prefix_us_p50", "us"),
    ("segstore.aggregate_us_p50", "us"),
    ("segstore.pruned_ratio", "1"),
    ("segstore.load_ms", "ms"),
    ("durable.append_ns_per_record", "ns"),
    ("durable.commit_us_p50", "us"),
    ("durable.fsyncs_per_batch", "count"),
    ("durable.wal_bytes_per_sample", "B"),
    ("durable.checkpoint_bytes_per_sample", "B"),
    ("durable.checkpoints", "count"),
    ("durable.recovery_ms", "ms"),
    ("storage.append_calls", "count"),
    ("storage.bytes_appended", "B"),
    ("storage.sync_us_p50", "us"),
    ("host.steal_s", "s"),
    ("generator.cpu_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// p99 is printed only when every round has at least this many samples,
/// so that ten samples lie beyond it.
pub const MIN_P99_SAMPLES: usize = 1000;

/// Whether `name` is a legal metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter().all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// Nearest-rank percentile of ascending `sorted`: the smallest sample with
/// at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the two middle ones for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// p50 and p99 of a latency sample, with the sample count they rest on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub p50: f64,
    pub p99: f64,
    pub samples: usize,
}

impl Latency {
    pub fn of(mut samples: Vec<f64>) -> Self {
        if samples.is_empty() {
            return Latency { p50: 0.0, p99: 0.0, samples: 0 };
        }
        samples.sort_by(f64::total_cmp);
        Latency {
            p50: percentile(&samples, 50.0),
            p99: percentile(&samples, 99.0),
            samples: samples.len(),
        }
    }
}

/// Throughput and latency over the quiet rounds. p99 is given only when
/// every round has [`MIN_P99_SAMPLES`] latency samples.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    /// CPU per op as measured, and how much slower than the reference the
    /// host ran, before `cpu_us_per_op` divides the one by the other.
    pub cpu_us_per_op_unscaled: f64,
    pub slowdown: f64,
    pub ops_per_s: f64,
    pub latency_p50_ms: f64,
    pub latency_p99_ms: Option<f64>,
    pub fewest_samples: usize,
}

/// One set-up: wall seconds from generated inputs to a system ready for
/// its first timed op, and the host steal read around it (in 10 ms ticks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Setup {
    pub wall_s: f64,
    pub steal_s: f64,
}

/// One round's measurements. Every round of a run does the same work on
/// the same inputs.
#[derive(Debug)]
pub struct Round {
    /// The round's set-ups; the last one built the system it timed.
    pub setups: Vec<Setup>,
    /// Wall seconds inside timed intervals.
    pub timed_s: f64,
    /// CPU seconds of the system under test inside timed intervals.
    pub sut_cpu_s: f64,
    /// Ops completed in the timed intervals.
    pub ops: u64,
    /// Percentiles of the per-op (or per-batch) latencies in ms.
    pub latency: Latency,
    /// Whether spans were recorded in this round.
    pub traced: bool,
    /// Host steal over the whole round (set-up and checks included).
    pub steal_s: f64,
    /// Thread CPU seconds of the speed probes run between timed intervals,
    /// and how many ran.
    pub probe_s: f64,
    pub probes: u32,
}

impl Round {
    /// A round after its set-ups, before anything was timed.
    pub fn after_setup(setups: Vec<Setup>) -> Self {
        Round {
            setups,
            timed_s: 0.0,
            sut_cpu_s: 0.0,
            ops: 0,
            latency: Latency::of(Vec::new()),
            traced: false,
            steal_s: 0.0,
            probe_s: 0.0,
            probes: 0,
        }
    }

    /// Runs the speed probe once, outside timed intervals; returns the wall
    /// seconds it took.
    pub fn probe(&mut self) -> f64 {
        let t = std::time::Instant::now();
        self.probe_s += sys::speed_probe_s();
        self.probes += 1;
        t.elapsed().as_secs_f64()
    }

    /// How many times slower than the reference host this round ran, by
    /// its speed probes (1 when none ran).
    pub fn slowdown(&self) -> f64 {
        if self.probes == 0 {
            return 1.0;
        }
        self.probe_s / self.probes as f64 / sys::PROBE_REF_S
    }

    /// CPU microseconds per op at the reference host speed.
    pub fn cpu_us_per_op(&self) -> f64 {
        self.sut_cpu_s * 1e6 / self.ops as f64 / self.slowdown()
    }

    /// Seconds of one set-up at the reference host speed: the mean over
    /// the round's set-ups of wall time less the steal read around it.
    /// Steal moves in 10 ms ticks, so one set-up's figure can be off by up
    /// to a tick either way, but not on average, because where the ticks
    /// fall is independent of the set-up; hence a mean, not a median.
    pub fn setup_s(&self) -> f64 {
        let less_steal: f64 = self.setups.iter().map(|s| s.wall_s - s.steal_s).sum();
        less_steal / self.setups.len() as f64 / self.slowdown()
    }
}

/// Values that are a pure function of the seed: every round must report
/// them bit for bit, and so must every run at one seed.
pub type Counts = BTreeMap<&'static str, f64>;

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub rounds: Vec<Round>,
    /// Round 0's counts (later rounds are checked equal to them).
    pub counts: Counts,
    /// Ops attempted and failed over the whole run.
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// "Where the time goes" rows: (layer, ms per round, how measured).
    pub time_table: Vec<(String, f64, String)>,
    /// Lines describing what the run did (flush policy, sizes).
    pub notes: Vec<String>,
    /// CPU seconds the generator spent making inputs and driving load.
    pub generator_cpu_s: f64,
    /// Digest of the generated inputs (changes with the seed).
    pub input_digest: u64,
}

impl Report {
    /// Adds one round's counts, failing if they differ from round 0's.
    pub fn check_counts(&mut self, round: usize, counts: Counts) -> Result<(), String> {
        if round == 0 {
            self.counts = counts;
            return Ok(());
        }
        for (name, v) in &counts {
            let first = self.counts.get(name).copied();
            if first.map(f64::to_bits) != Some(v.to_bits()) {
                return Err(format!(
                    "count {name} is {v} in round {round} but {first:?} in round 0: \
                     the work depends on timing"
                ));
            }
        }
        Ok(())
    }

    fn untraced(&self) -> impl Iterator<Item = &Round> {
        self.rounds.iter().filter(|r| !r.traced)
    }

    /// The untraced rounds the host disturbed least: the half (at least
    /// three) with the least hypervisor steal, plus every round that lost
    /// no more than the last of them, so that in a calm run every round
    /// counts.
    pub fn quiet_rounds(&self) -> Vec<&Round> {
        let rounds: Vec<&Round> = self.untraced().collect();
        let mut steal: Vec<f64> = rounds.iter().map(|r| r.steal_s).collect();
        steal.sort_by(f64::total_cmp);
        let keep = rounds.len().div_ceil(2).max(3).min(rounds.len());
        let Some(&limit) = steal.get(keep.saturating_sub(1)) else {
            return rounds;
        };
        rounds.into_iter().filter(|r| r.steal_s <= limit).collect()
    }

    /// The end-to-end metrics: medians, over the quiet untraced rounds, of
    /// each round's value, so a round slowed by the host moves none.
    pub fn end_to_end(&self, peak_rss_mb: f64) -> Result<Vec<(&'static str, f64)>, String> {
        let rounds = self.quiet_rounds();
        if rounds.is_empty() {
            return Err("no untraced round ran".into());
        }
        let per =
            |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>());
        let count = |name: &str| {
            self.counts.get(name).copied().ok_or_else(|| format!("workload reported no {name}"))
        };
        let values = vec![
            ("setup_s", per(&Round::setup_s)),
            ("cpu_us_per_op", per(&Round::cpu_us_per_op)),
            ("peak_rss_mb", peak_rss_mb),
            ("stored_bytes_per_sample", count("stored_bytes_per_sample")?),
            ("written_bytes_per_sample", count("written_bytes_per_sample")?),
            ("recon_mae_w", count("recon_mae_w")?),
        ];
        for (name, v) in &values {
            if !v.is_finite() || *v <= 0.0 {
                return Err(format!("end-to-end metric {name} is {v}; it must be positive"));
            }
        }
        Ok(values)
    }

    /// The wall-clock figures, medians over the quiet rounds like the
    /// end-to-end metrics but not gated.
    pub fn wall_clock(&self) -> WallClock {
        let rounds = self.quiet_rounds();
        let per =
            |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>());
        let fewest = rounds.iter().map(|r| r.latency.samples).min().unwrap_or(0);
        WallClock {
            cpu_us_per_op_unscaled: per(&|r| r.sut_cpu_s * 1e6 / r.ops as f64),
            slowdown: per(&Round::slowdown),
            ops_per_s: per(&|r| r.ops as f64 / r.timed_s),
            latency_p50_ms: per(&|r| r.latency.p50),
            latency_p99_ms: (fewest >= MIN_P99_SAMPLES).then(|| per(&|r| r.latency.p99)),
            fewest_samples: fewest,
        }
    }

    /// Median timed seconds of traced and of untraced rounds.
    pub fn timed_medians(&self) -> (Option<f64>, Option<f64>) {
        let pick = |traced: bool| {
            let v: Vec<f64> =
                self.rounds.iter().filter(|r| r.traced == traced).map(|r| r.timed_s).collect();
            (!v.is_empty()).then(|| median(&v))
        };
        (pick(true), pick(false))
    }
}

/// The result line: one JSON object with exactly the keys the benchmark
/// contract names.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            assert!(valid_name(name), "metric name {name}");
            assert!(v.is_finite(), "metric {name} is not finite");
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        // p99 of 1000 samples leaves exactly ten samples above it.
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(v.iter().filter(|&&x| x > percentile(&v, 99.0)).count(), 10);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 100.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.0), 1.0);
    }

    #[test]
    fn latency_reports_its_sample_count() {
        let l = Latency::of((0..2000).rev().map(f64::from).collect());
        assert_eq!(l, Latency { p50: 999.0, p99: 1979.0, samples: 2000 });
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn metric_names_follow_the_grammar() {
        for good in ["setup_s", "gateway.handshake_ms_p50", "a-b.c_9", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "a b", "µs", "a/b", "x\"y", &"a".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit.bytes().all(|c| c.is_ascii_alphanumeric() || b"_/%.-".contains(&c)),
                "{unit}"
            );
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = |section: &str| -> Vec<String> {
            let start = json.find(&format!("\"{section}\"")).expect(section);
            let end = json[start..].find(']').expect("section end") + start;
            json[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("closing quote")].to_string())
                .collect()
        };
        let names =
            |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(listed("end_to_end"), names(&END_TO_END));
        assert_eq!(listed("per_layer"), names(&PER_LAYER));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} with unit {unit}"
            );
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(true, 10, 0, &[("setup_s", "s", 0.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn metrics_come_from_the_least_stolen_rounds() {
        let round = |steal_s: f64, ops: u64| Round {
            timed_s: 1.0,
            sut_cpu_s: 1.0,
            ops,
            latency: Latency::of(vec![1.0]),
            steal_s,
            ..Round::after_setup(vec![Setup { wall_s: 0.5, steal_s: 0.0 }])
        };
        let mut r = Report {
            counts: Counts::from([
                ("stored_bytes_per_sample", 1.0),
                ("written_bytes_per_sample", 2.0),
                ("recon_mae_w", 3.0),
            ]),
            ..Report::default()
        };
        // Seven rounds keep four; the three stolen ones cannot move the median.
        for (steal, ops) in
            [(0.9, 10), (0.1, 100), (0.2, 101), (0.8, 11), (0.0, 99), (0.1, 102), (0.7, 12)]
        {
            r.rounds.push(round(steal, ops));
        }
        assert_eq!(r.quiet_rounds().iter().map(|r| r.ops).collect::<Vec<_>>(), [100, 101, 99, 102]);
        // Rounds as quiet as the last one kept count too.
        r.rounds[3].steal_s = 0.2;
        assert_eq!(r.quiet_rounds().len(), 5);
        r.rounds[3].steal_s = 0.8;
        assert_eq!(r.wall_clock().ops_per_s, 100.5);
        let cpu = (1e6 / 101.0 + 1e6 / 100.0) / 2.0;
        assert_eq!(r.end_to_end(42.0).unwrap()[1], ("cpu_us_per_op", cpu));
        // A round's set-up time is the mean of its set-ups, less the steal
        // each saw; a stolen round's set-ups do not count.
        assert_eq!(r.end_to_end(42.0).unwrap()[0], ("setup_s", 0.5));
        for i in [1, 2] {
            r.rounds[i].setups.push(Setup { wall_s: 0.75, steal_s: 0.5 });
        }
        assert_eq!(r.rounds[1].setup_s(), 0.375);
        r.rounds[0].setups[0].wall_s = 0.1;
        assert_eq!(r.end_to_end(42.0).unwrap()[0], ("setup_s", (0.375 + 0.5) / 2.0));
        // Three rounds or fewer are all kept; traced rounds never count.
        r.rounds.truncate(3);
        r.rounds[0].traced = true;
        assert_eq!(r.quiet_rounds().len(), 2);
    }

    #[test]
    fn counts_must_repeat_across_rounds() {
        let mut r = Report::default();
        let c = |v: f64| Counts::from([("recon_mae_w", v)]);
        r.check_counts(0, c(1.5)).unwrap();
        r.check_counts(1, c(1.5)).unwrap();
        assert!(r.check_counts(2, c(1.5000001)).is_err());
    }

    #[test]
    fn cpu_and_setup_are_divided_by_the_round_slowdown() {
        let mut round = Round {
            sut_cpu_s: 3.0,
            ops: 1_000_000,
            ..Round::after_setup(vec![Setup { wall_s: 0.012, steal_s: 0.0 }])
        };
        assert_eq!(round.slowdown(), 1.0, "no probe ran");
        assert_eq!(round.cpu_us_per_op(), 3.0);
        round.probe_s = 3.0 * sys::PROBE_REF_S;
        round.probes = 2;
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs();
        assert!(close(round.slowdown(), 1.5), "{}", round.slowdown());
        assert!(close(round.cpu_us_per_op(), 2.0), "{}", round.cpu_us_per_op());
        let r = Report { rounds: vec![round], ..Report::default() };
        assert!(close(r.rounds[0].setup_s(), 0.008), "{}", r.rounds[0].setup_s());
        assert_eq!(r.wall_clock().cpu_us_per_op_unscaled, 3.0);
        assert!(close(r.wall_clock().slowdown, 1.5));
    }
}
