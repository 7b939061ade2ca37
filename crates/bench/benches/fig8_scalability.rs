//! Figure 8: SharPer throughput with 2–5 clusters at 90% intra-shard load.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sharper_bench::{figure_params, sharper_point};
use sharper_common::{FailureModel, SimTime};

fn fig8(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let duration = SimTime::from_millis(800);
    for clusters in [2usize, 3, 4, 5] {
        for (label, model) in [
            ("crash", FailureModel::Crash),
            ("byzantine", FailureModel::Byzantine),
        ] {
            group.bench_with_input(BenchmarkId::new(label, clusters), &clusters, |b, &n| {
                let params = figure_params(model, n);
                b.iter(|| sharper_point(params.clone(), 0.10, 4 * n, duration))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, fig8);
criterion_main!(benches);
