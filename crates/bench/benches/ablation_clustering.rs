//! Ablation A2: the clustered-network optimisation of §3.4 — group-aware
//! clustering yields more clusters (5 instead of 2 in the paper's example),
//! and therefore more parallelism, than clustering with the global worst-case
//! fault budget. We measure SharPer throughput with 2 vs 5 clusters at the
//! same 10% cross-shard workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sharper_bench::{figure_params, sharper_point};
use sharper_common::{FailureModel, SimTime};

fn ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_clustering");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let duration = SimTime::from_millis(800);
    for (label, clusters) in [
        ("global_f_2_clusters", 2usize),
        ("group_aware_5_clusters", 5),
    ] {
        group.bench_with_input(BenchmarkId::new(label, clusters), &clusters, |b, &n| {
            let params = figure_params(FailureModel::Byzantine, n);
            b.iter(|| sharper_point(params.clone(), 0.10, 4 * n, duration))
        });
    }
    group.finish();
}

criterion_group!(benches, ablation);
criterion_main!(benches);
