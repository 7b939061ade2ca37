//! Figure 7: throughput/latency with Byzantine nodes at 0/20/80/100%
//! cross-shard transactions (SharPer, AHL-B, APR-B, FaB).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sharper_baselines::BaselineKind;
use sharper_bench::{baseline_point, figure_params, sharper_point};
use sharper_common::{FailureModel, SimTime};

fn fig7(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let duration = SimTime::from_millis(800);
    for ratio in [0.0, 0.2, 0.8, 1.0] {
        let pct = (ratio * 100.0) as u32;
        group.bench_with_input(BenchmarkId::new("SharPer", pct), &ratio, |b, &r| {
            b.iter(|| sharper_point(figure_params(FailureModel::Byzantine, 4), r, 8, duration))
        });
        group.bench_with_input(BenchmarkId::new("AHL-B", pct), &ratio, |b, &r| {
            b.iter(|| baseline_point(BaselineKind::AhlB, r, 8, duration))
        });
        group.bench_with_input(BenchmarkId::new("APR-B", pct), &ratio, |b, &r| {
            b.iter(|| baseline_point(BaselineKind::AprB, r, 8, duration))
        });
        group.bench_with_input(BenchmarkId::new("FaB", pct), &ratio, |b, &r| {
            b.iter(|| baseline_point(BaselineKind::FaB, r, 8, duration))
        });
    }
    group.finish();
}

criterion_group!(benches, fig7);
criterion_main!(benches);
