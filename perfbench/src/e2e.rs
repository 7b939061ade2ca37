//! End-to-end metrics, measured from untraced runs.
//!
//! A pass runs every deployment of the workload's [`Plan`] once. Passes
//! repeat while another one fits in the wall-clock budget; every pass must
//! simulate exactly what the first one did, so the simulated metrics come
//! from the first pass and the host metrics are medians over every
//! deployment run of every pass.
//!
//! Latency percentiles come from each deployment's `LatencySummary`, whose
//! streaming histogram rounds them to buckets ~1.6–3% wide. They are
//! averaged over deployments rather than taking their median, which would
//! itself be a bucket value and read identically for most seeds.

use crate::{deployment_seed, median, ratio, run_deployment, Metric, Outcome, Plan, Workload};
use std::time::Instant;

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// `setup_s` is the median of at least this many `SharperSystem::build`
/// calls: one build takes a few milliseconds, so a handful of samples would
/// not be steady.
const MIN_SETUP_SAMPLES: usize = 32;

/// The end-to-end metric names and units, in report order.
const METRICS: [(&str, &str); 7] = [
    ("sim_tps", "tx/s"),
    ("sim_p50_ms", "ms"),
    ("sim_p99_ms", "ms"),
    ("failed_share", "ratio"),
    ("host_us_per_tx", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Measures the end-to-end metrics of `workload` for `seed`.
pub fn measure(workload: Workload, plan: Plan, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut first = Vec::with_capacity(plan.deployments);
    let mut setup_s = Vec::new();
    let mut host_us_per_tx = Vec::new();
    let mut passes = 0;
    loop {
        let pass_started = started.elapsed().as_secs_f64();
        for index in 0..plan.deployments {
            let d = run_deployment(workload, plan, deployment_seed(seed, index), false)?;
            setup_s.push(d.setup_s);
            host_us_per_tx.push(d.run_s * 1e6 / d.fingerprint.committed as f64);
            if passes == 0 {
                first.push(d.fingerprint);
            } else if first[index] != d.fingerprint {
                return Err(format!(
                    "{} seed {}: pass {passes} simulated something else than pass 0",
                    workload.name(),
                    deployment_seed(seed, index)
                ));
            }
        }
        passes += 1;
        let now = started.elapsed().as_secs_f64();
        if now + (now - pass_started) > seconds {
            break;
        }
    }
    while setup_s.len() < MIN_SETUP_SAMPLES {
        setup_s.push(workload.build(seed, false).1);
    }

    let tps: Vec<f64> = first.iter().map(|f| f.summary.throughput_tps).collect();
    let p50: Vec<f64> = first.iter().map(|f| f.summary.p50_latency_ms).collect();
    let p99: Vec<f64> = first.iter().map(|f| f.summary.p99_latency_ms).collect();
    let window: Vec<f64> = first.iter().map(|f| f.summary.committed as f64).collect();
    let submitted: u64 = first.iter().map(|f| f.submitted as u64).sum();
    let committed: u64 = first.iter().map(|f| f.committed as u64).sum();
    let failed = submitted - committed;
    let values = [
        mean(&tps),
        mean(&p50),
        mean(&p99),
        ratio(failed as f64, submitted as f64),
        median(&host_us_per_tx),
        median(&setup_s),
        sharper_bench::peak_rss_mb(),
    ];
    let metrics = METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect();

    let min_window = window.iter().copied().fold(f64::INFINITY, f64::min);
    let detail = vec![
        format!(
            "workload {} seed {seed}: {} deployment(s) x {} sim-s, {} client(s), {} pass(es), {} build(s)",
            workload.name(),
            plan.deployments,
            plan.duration.as_secs_f64(),
            workload.clients(),
            passes,
            setup_s.len(),
        ),
        format!(
            "sim_tps: mean over deployments of in-window commits per sim-s (min {:.1}, max {:.1})",
            tps.iter().copied().fold(f64::INFINITY, f64::min),
            tps.iter().copied().fold(0.0, f64::max),
        ),
        format!(
            "sim_p50_ms / sim_p99_ms: mean over deployments of each deployment's p50 / p99; \
             in-window samples per deployment min {min_window} median {}, pooled {}; \
             samples beyond p99 per deployment min {:.0}",
            median(&window),
            window.iter().sum::<f64>(),
            (min_window / 100.0).floor(),
        ),
        format!(
            "failed_share: {failed} of {submitted} submitted transactions not committed by the end of their run"
        ),
        format!(
            "host_us_per_tx: median of {} deployment runs",
            host_us_per_tx.len()
        ),
    ];
    Ok(Outcome {
        attempted: submitted,
        failed,
        metrics,
        detail,
    })
}
