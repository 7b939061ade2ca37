//! Figure 6: throughput/latency with crash-only nodes at 0/20/80/100%
//! cross-shard transactions (SharPer, AHL-C, APR-C, FPaxos).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sharper_baselines::BaselineKind;
use sharper_bench::{baseline_point, figure_params, sharper_point};
use sharper_common::{FailureModel, SimTime};

fn fig6(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let duration = SimTime::from_millis(800);
    for ratio in [0.0, 0.2, 0.8, 1.0] {
        let pct = (ratio * 100.0) as u32;
        group.bench_with_input(BenchmarkId::new("SharPer", pct), &ratio, |b, &r| {
            b.iter(|| sharper_point(figure_params(FailureModel::Crash, 4), r, 8, duration))
        });
        group.bench_with_input(BenchmarkId::new("AHL-C", pct), &ratio, |b, &r| {
            b.iter(|| baseline_point(BaselineKind::AhlC, r, 8, duration))
        });
        group.bench_with_input(BenchmarkId::new("APR-C", pct), &ratio, |b, &r| {
            b.iter(|| baseline_point(BaselineKind::AprC, r, 8, duration))
        });
        group.bench_with_input(BenchmarkId::new("FPaxos", pct), &ratio, |b, &r| {
            b.iter(|| baseline_point(BaselineKind::FPaxos, r, 8, duration))
        });
    }
    group.finish();
}

criterion_group!(benches, fig6);
criterion_main!(benches);
