//! Ablation A1: SharPer with and without the super-primary initiation policy
//! under a cross-shard-heavy workload (conflicts vs. no conflicts, §3.2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sharper_bench::{figure_params, sharper_point};
use sharper_common::{FailureModel, InitiationPolicy, SimTime};

fn ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_super_primary");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let duration = SimTime::from_millis(800);
    for ratio in [0.2, 0.8] {
        let pct = (ratio * 100.0) as u32;
        group.bench_with_input(BenchmarkId::new("super_primary", pct), &ratio, |b, &r| {
            b.iter(|| sharper_point(figure_params(FailureModel::Crash, 4), r, 8, duration))
        });
        group.bench_with_input(BenchmarkId::new("any_initiator", pct), &ratio, |b, &r| {
            let params = figure_params(FailureModel::Crash, 4)
                .with_initiation_policy(InitiationPolicy::AnyInvolvedCluster);
            b.iter(|| sharper_point(params.clone(), r, 8, duration))
        });
    }
    group.finish();
}

criterion_group!(benches, ablation);
criterion_main!(benches);
