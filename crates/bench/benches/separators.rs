//! Separator-learning ablation: exact order-statistics learning versus the
//! bounded-memory streaming quantile sketch, across alphabet sizes — the
//! design choice DESIGN.md calls out for the sensor-side training phase.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sms_core::separators::{learn_separators, SeparatorMethod, StreamingLearner};

fn training_values(n: usize) -> Vec<f64> {
    (0..n).map(|i| (((i * 7919) % 100_000) as f64 / 100.0).powf(1.3)).collect()
}

fn bench_batch_learning(c: &mut Criterion) {
    let values = training_values(172_800 / 10); // two days at 10 s
    let mut group = c.benchmark_group("separator_learning_batch");
    group.throughput(Throughput::Elements(values.len() as u64));
    for method in SeparatorMethod::ALL {
        for k in [4usize, 16] {
            group.bench_with_input(BenchmarkId::new(method.name(), k), &k, |b, &k| {
                b.iter(|| learn_separators(method, black_box(&values), k).unwrap());
            });
        }
    }
    group.finish();
}

fn bench_streaming_learners(c: &mut Criterion) {
    let values = training_values(172_800 / 10);
    let mut group = c.benchmark_group("separator_learning_streaming");
    group.throughput(Throughput::Elements(values.len() as u64));
    group.bench_function("exact_median_16", |b| {
        b.iter(|| {
            let mut l = StreamingLearner::exact(SeparatorMethod::Median, 16).unwrap();
            for &v in &values {
                l.push(v).unwrap();
            }
            black_box(l.separators().unwrap())
        });
    });
    group.bench_function("sketch_median_16", |b| {
        b.iter(|| {
            let mut l = StreamingLearner::approximate(SeparatorMethod::Median, 16).unwrap();
            for &v in &values {
                l.push(v).unwrap();
            }
            black_box(l.separators().unwrap())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_batch_learning, bench_streaming_learners);
criterion_main!(benches);
