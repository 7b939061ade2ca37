//! # sharper-bench
//!
//! The experiment harness regenerating every figure of the SharPer
//! evaluation (§4). Each figure is a throughput/latency curve obtained by
//! sweeping the number of closed-loop clients until saturation; the harness
//! runs the same sweep on the simulator for SharPer and for every baseline.
//!
//! * Criterion benches (`benches/…`) run one representative point per system
//!   and figure so `cargo bench` exercises every experiment quickly.
//! * The `figures` binary (`cargo run -p sharper-bench --release --bin
//!   figures`) runs the full sweeps and prints the series that correspond to
//!   Figures 6(a)–(d), 7(a)–(d) and 8(a)–(b). The two ablations run as
//!   criterion benches (`benches/ablation_super_primary.rs`,
//!   `benches/ablation_clustering.rs`; README, "Layout").
//! * Every SharPer deployment is built by [`deployment`] and every
//!   `BENCH_*.json` document is rendered by [`json::Object`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod trace;

use json::Object;
use serde::Serialize;
use sharper_baselines::{BaselineKind, BaselineParams, BaselineSystem};
use sharper_common::{
    AccountId, BatchConfig, ClientId, ClusterId, CostModel, Duration, FailureModel,
    InitiationPolicy, LedgerConfig, ReshardConfig, SimTime, ThreadMode,
};
use sharper_core::{SharperSystem, SystemParams};
use sharper_state::{Executor, Partitioner, Transaction, TX_UNITS};
use sharper_workload::{HotspotConfig, WorkloadConfig, WorkloadGenerator};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Accounts per shard used by all experiments (smaller than the default so
/// the harness stays fast; the protocols are insensitive to the account count
/// as long as contention stays low).
pub const ACCOUNTS_PER_SHARD: u64 = 2_000;

/// One point of a throughput/latency curve.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CurvePoint {
    /// Number of closed-loop clients producing this point.
    pub clients: usize,
    /// Steady-state throughput in transactions per second.
    pub throughput_tps: f64,
    /// Mean end-to-end latency in milliseconds.
    pub latency_ms: f64,
    /// Number of transactions in the measurement window.
    pub committed: usize,
    /// Maximum primary-mempool depth observed on any replica (ingestion
    /// backpressure indicator; zero for baselines without a mempool).
    pub mempool_peak_depth: usize,
    /// 95th-percentile mempool queueing delay across all proposed
    /// transactions, in simulated microseconds.
    pub mempool_wait_p95_us: u64,
    /// Mean intra-shard consensus latency (batch seal → commit) from the
    /// deterministic trace plane, in milliseconds (zero for baselines,
    /// which are untraced).
    pub phase_consensus_ms: f64,
    /// Mean cross-shard consensus latency (batch seal → xcommit), in
    /// milliseconds.
    pub phase_cross_ms: f64,
    /// Mean commit-to-completion latency (execution plus reply fan-in), in
    /// milliseconds.
    pub phase_exec_ms: f64,
}

/// One system's curve for one figure.
#[derive(Debug, Clone, Serialize)]
pub struct Series {
    /// The system's label ("SharPer", "AHL-C", ...).
    pub system: String,
    /// The measured curve, one point per client count.
    pub points: Vec<CurvePoint>,
}

/// Renders a figure (several series) as one machine-readable JSON document,
/// the payload of the `BENCH_<figure>.json` files written by the `figures`
/// binary. The format is intentionally dependency-free and stable so the
/// performance trajectory can be diffed across commits.
pub fn figure_to_json(figure: &str, series: &[Series]) -> String {
    Object::new()
        .string("figure", figure)
        .array(
            "series",
            series.iter().map(|s| {
                Object::new().string("system", &s.system).array(
                    "points",
                    s.points.iter().map(|p| {
                        Object::new()
                            .int("clients", p.clients)
                            .num("throughput_tps", p.throughput_tps, 3)
                            .num("latency_ms", p.latency_ms, 3)
                            .int("committed", p.committed)
                            .int("mempool_peak_depth", p.mempool_peak_depth)
                            .int("mempool_wait_p95_us", p.mempool_wait_p95_us)
                            .num("phase_consensus_ms", p.phase_consensus_ms, 3)
                            .num("phase_cross_ms", p.phase_cross_ms, 3)
                            .num("phase_exec_ms", p.phase_exec_ms, 3)
                    }),
                )
            }),
        )
        .finish()
}

/// The deployment every figure starts from: `clusters` clusters of `model`
/// replicas with f = 1, [`ACCOUNTS_PER_SHARD`] accounts per shard and a
/// 300 ms warm-up. Figures layer threads, batching, initiation policy,
/// ledger retention and resharding on top with `SystemParams`'s builders.
pub fn figure_params(model: FailureModel, clusters: usize) -> SystemParams {
    let mut params = SystemParams::new(model, clusters, 1);
    params.accounts_per_shard = ACCOUNTS_PER_SHARD;
    params.warmup = SimTime::from_millis(300);
    params
}

/// Builds the SharPer deployment `params` driven by `clients` closed-loop
/// clients running the evaluation workload at `cross_ratio`, optionally
/// under a drifting `hotspot`. The workload's shard and account counts come
/// from `params`, so each is written once per deployment. Every SharPer
/// deployment of this crate — figures and CI gates alike — is built here.
pub fn deployment(
    params: SystemParams,
    clients: usize,
    cross_ratio: f64,
    hotspot: Option<HotspotConfig>,
) -> SharperSystem {
    let mut workload = WorkloadConfig::evaluation(params.clusters as u32, cross_ratio);
    workload.accounts_per_shard = params.accounts_per_shard;
    workload.hotspot = hotspot;
    SharperSystem::build(params, clients, move |client| {
        WorkloadGenerator::new(client, workload)
    })
}

/// Runs SharPer at one operating point and folds the report plus the traced
/// per-phase latency breakdown into a [`CurvePoint`]. Tracing is switched on
/// here; it never changes the measured numbers (the golden-seed suite
/// enforces it), it only fills the `phase_*` fields.
pub fn sharper_point(
    params: SystemParams,
    cross_ratio: f64,
    clients: usize,
    duration: SimTime,
) -> CurvePoint {
    let mut system = deployment(params.with_tracing(true), clients, cross_ratio, None);
    let report = system.run(duration);
    let breakdown = trace::analyze(&system.take_trace());
    CurvePoint {
        clients,
        throughput_tps: report.summary.throughput_tps,
        latency_ms: report.summary.mean_latency_ms,
        committed: report.summary.committed,
        mempool_peak_depth: report.simulation.mempool_peak_depth,
        mempool_wait_p95_us: report.simulation.mempool_wait_p95_us,
        phase_consensus_ms: breakdown.phase_consensus_ms(),
        phase_cross_ms: breakdown.phase_cross_ms(),
        phase_exec_ms: breakdown.phase_exec_ms(),
    }
}

/// [`figure_params`] with `max_batch_size` batches and a fixed 16-request
/// in-flight window for every batch size, so the offered load is identical
/// across the batching sweep and only the batching policy varies.
fn batching_params(model: FailureModel, clusters: usize, max_batch_size: usize) -> SystemParams {
    let mut params =
        figure_params(model, clusters).with_batching(BatchConfig::with_size(max_batch_size));
    params.client.max_in_flight = 16;
    params
}

/// One point of the throughput-vs-batch-size sweep.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct BatchPoint {
    /// `max_batch_size` producing this point.
    pub batch_size: usize,
    /// Number of closed-loop clients (fixed across the sweep).
    pub clients: usize,
    /// Steady-state committed-transaction throughput.
    pub throughput_tps: f64,
    /// Mean end-to-end latency in milliseconds.
    pub latency_ms: f64,
    /// Transactions committed in the measurement window.
    pub committed: usize,
}

/// One system's throughput-vs-batch-size curve.
#[derive(Debug, Clone, Serialize)]
pub struct BatchSeries {
    /// The configuration label (failure model and workload).
    pub system: String,
    /// One point per batch size.
    pub points: Vec<BatchPoint>,
    /// Throughput at the largest batch size over the unbatched baseline.
    pub speedup_vs_unbatched: f64,
}

/// Renders the batching sweep as the `BENCH_batching.json` document.
pub fn batching_to_json(series: &[BatchSeries]) -> String {
    Object::new()
        .string("figure", "batching")
        .array(
            "series",
            series.iter().map(|s| {
                Object::new()
                    .string("system", &s.system)
                    .array(
                        "points",
                        s.points.iter().map(|p| {
                            Object::new()
                                .int("batch_size", p.batch_size)
                                .int("clients", p.clients)
                                .num("throughput_tps", p.throughput_tps, 3)
                                .num("latency_ms", p.latency_ms, 3)
                                .int("committed", p.committed)
                        }),
                    )
                    .num("speedup_vs_unbatched", s.speedup_vs_unbatched, 3)
            }),
        )
        .finish()
}

/// Runs the throughput-vs-batch-size sweep: Byzantine intra-shard load at a
/// fixed client count and pipeline depth, sweeping `max_batch_size`.
///
/// The Byzantine model is the one where batching pays the most: every
/// consensus message costs a signature, so one round per batch amortises the
/// dominant per-transaction cost. (The crash model is not swept here: its
/// primary is bound by per-request handling, which batching cannot
/// amortise, capping the achievable speedup near 2.3× on the default cost
/// model — an analytic ceiling, see README.)
pub fn figure_batching(
    batch_sizes: &[usize],
    clients: usize,
    threads: ThreadMode,
    duration: SimTime,
) -> Vec<BatchSeries> {
    let points: Vec<BatchPoint> = batch_sizes
        .iter()
        .map(|&batch| {
            let params = batching_params(FailureModel::Byzantine, 2, batch).with_threads(threads);
            let p = sharper_point(params, 0.0, clients, duration);
            BatchPoint {
                batch_size: batch,
                clients,
                throughput_tps: p.throughput_tps,
                latency_ms: p.latency_ms,
                committed: p.committed,
            }
        })
        .collect();
    let baseline = points
        .iter()
        .find(|p| p.batch_size == 1)
        .map_or(0.0, |p| p.throughput_tps);
    let best = points.last().map_or(0.0, |p| p.throughput_tps);
    vec![BatchSeries {
        system: "SharPer byzantine 0% cross-shard".to_string(),
        points,
        speedup_vs_unbatched: ratio(best, baseline),
    }]
}

/// Runs one baseline at one operating point.
pub fn baseline_point(
    kind: BaselineKind,
    cross_ratio: f64,
    clients: usize,
    duration: SimTime,
) -> CurvePoint {
    let mut params = BaselineParams::paper(kind);
    params.accounts_per_shard = ACCOUNTS_PER_SHARD;
    params.warmup = SimTime::from_millis(300);
    let mut workload = WorkloadConfig::evaluation(params.clusters as u32, cross_ratio);
    workload.accounts_per_shard = params.accounts_per_shard;
    let mut system = BaselineSystem::build(params, clients, move |client| {
        WorkloadGenerator::new(client, workload)
    });
    let report = system.run(duration);
    CurvePoint {
        clients,
        throughput_tps: report.summary.throughput_tps,
        latency_ms: report.summary.mean_latency_ms,
        committed: report.summary.committed,
        // The baseline systems reuse the seed's flat pending queue, not the
        // instrumented mempool or the trace plane, so there is nothing to
        // report here.
        mempool_peak_depth: 0,
        mempool_wait_p95_us: 0,
        phase_consensus_ms: 0.0,
        phase_cross_ms: 0.0,
        phase_exec_ms: 0.0,
    }
}

/// The systems compared in Figure 6 (crash-only) or Figure 7 (Byzantine).
pub fn figure_systems(model: FailureModel) -> Vec<(String, Option<BaselineKind>)> {
    match model {
        FailureModel::Crash => vec![
            ("SharPer".to_string(), None),
            ("AHL-C".to_string(), Some(BaselineKind::AhlC)),
            ("APR-C".to_string(), Some(BaselineKind::AprC)),
            ("FPaxos".to_string(), Some(BaselineKind::FPaxos)),
        ],
        FailureModel::Byzantine => vec![
            ("SharPer".to_string(), None),
            ("AHL-B".to_string(), Some(BaselineKind::AhlB)),
            ("APR-B".to_string(), Some(BaselineKind::AprB)),
            ("FaB".to_string(), Some(BaselineKind::FaB)),
        ],
    }
}

/// Runs a full figure-6/7 sub-plot: every system, sweeping the client count.
pub fn figure_cross_shard_sweep(
    model: FailureModel,
    cross_ratio: f64,
    client_counts: &[usize],
    threads: ThreadMode,
    duration: SimTime,
) -> Vec<Series> {
    figure_systems(model)
        .into_iter()
        .map(|(label, kind)| {
            let points = client_counts
                .iter()
                .map(|&clients| match kind {
                    None => sharper_point(
                        figure_params(model, 4).with_threads(threads),
                        cross_ratio,
                        clients,
                        duration,
                    ),
                    Some(k) => baseline_point(k, cross_ratio, clients, duration),
                })
                .collect();
            Series {
                system: label,
                points,
            }
        })
        .collect()
}

/// Runs Figure 8: SharPer throughput with 2–5 clusters at 90% intra-shard /
/// 10% cross-shard load.
pub fn figure_scalability(
    model: FailureModel,
    cluster_counts: &[usize],
    clients_per_cluster: usize,
    threads: ThreadMode,
    duration: SimTime,
) -> Vec<Series> {
    cluster_counts
        .iter()
        .map(|&clusters| {
            let clients = clients_per_cluster * clusters;
            let params = figure_params(model, clusters).with_threads(threads);
            Series {
                system: format!("{clusters} clusters"),
                points: vec![sharper_point(params, 0.10, clients, duration)],
            }
        })
        .collect()
}

/// One point of the parallel-simulation speedup sweep: the same fig8-style
/// deployment executed by the sequential engine and by the conservative
/// parallel engine, with wall-clock times for both.
#[derive(Debug, Clone, Serialize)]
pub struct ParallelPoint {
    /// Number of clusters (= lanes = workers in per-cluster mode).
    pub clusters: usize,
    /// Total replicas across all clusters.
    pub replicas: usize,
    /// Closed-loop clients driving the deployment.
    pub clients: usize,
    /// Transactions committed in the measurement window (identical across
    /// modes by the determinism guarantee).
    pub committed: usize,
    /// Simulated steady-state throughput (identical across modes).
    pub throughput_tps: f64,
    /// Wall-clock milliseconds of the sequential run.
    pub wall_ms_sequential: f64,
    /// Wall-clock milliseconds of the parallel run.
    pub wall_ms_parallel: f64,
    /// `wall_ms_sequential / wall_ms_parallel`.
    pub speedup: f64,
    /// Whether the two modes produced bit-identical ledger digests and
    /// simulator reports (must always be true; recorded so the bench artifact
    /// double-checks the determinism gate).
    pub identical: bool,
    /// Hex ledger digest of the sequential run (the golden value).
    pub digest: String,
}

/// The parallel speedup sweep: per-point results plus the environment that
/// produced them (wall-clock speedup is meaningless without the core count).
#[derive(Debug, Clone, Serialize)]
pub struct ParallelSweep {
    /// The parallel thread mode that was measured (e.g. "per-cluster").
    pub threads: String,
    /// Worker threads available to the harness process.
    pub host_cpus: usize,
    /// One point per cluster count.
    pub points: Vec<ParallelPoint>,
}

/// Runs one fig8-style deployment (crash model, 10% cross-shard) under the
/// given thread mode, returning the report, the ledger digest and the
/// wall-clock milliseconds the run took.
fn parallel_probe(
    clusters: usize,
    clients: usize,
    threads: ThreadMode,
    duration: SimTime,
) -> (sharper_core::RunReport, sharper_crypto::Digest, f64) {
    let params = figure_params(FailureModel::Crash, clusters).with_threads(threads);
    let mut system = deployment(params, clients, 0.10, None);
    let started = Instant::now();
    let report = system.run(duration);
    let wall_ms = started.elapsed().as_secs_f64() * 1_000.0;
    (report, system.ledger_digest(), wall_ms)
}

/// Runs the parallel-simulation speedup sweep: for each cluster count the
/// same deployment is executed sequentially and under `threads`, and both
/// wall-clock times are recorded. The simulated results must be — and are
/// checked to be — bit-identical; only wall-clock time may differ.
pub fn figure_parallel(
    cluster_counts: &[usize],
    clients_per_cluster: usize,
    threads: ThreadMode,
    duration: SimTime,
) -> ParallelSweep {
    let points = cluster_counts
        .iter()
        .map(|&clusters| {
            let clients = clients_per_cluster * clusters;
            let (seq_report, seq_digest, seq_ms) =
                parallel_probe(clusters, clients, ThreadMode::Sequential, duration);
            let (par_report, par_digest, par_ms) =
                parallel_probe(clusters, clients, threads, duration);
            ParallelPoint {
                clusters,
                replicas: clusters * 3, // crash model, f = 1 ⇒ 2f+1 per cluster
                clients,
                committed: seq_report.summary.committed,
                throughput_tps: seq_report.summary.throughput_tps,
                wall_ms_sequential: seq_ms,
                wall_ms_parallel: par_ms,
                speedup: ratio(seq_ms, par_ms),
                identical: seq_digest == par_digest
                    && seq_report.simulation == par_report.simulation
                    && seq_report.summary.committed == par_report.summary.committed,
                digest: seq_digest.to_hex(),
            }
        })
        .collect();
    ParallelSweep {
        threads: threads.to_string(),
        host_cpus: std::thread::available_parallelism().map_or(1, usize::from),
        points,
    }
}

/// The peak resident-set size (high-water mark) of this process in MiB, read
/// from `/proc/self/status` (`VmHWM`). Returns 0 on platforms without procfs.
/// The kernel counter is process-wide and monotone, so successive curve
/// points report the running maximum — exactly what a memory ceiling gates.
pub fn peak_rss_mb() -> f64 {
    if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                if let Some(kb) = rest
                    .split_whitespace()
                    .next()
                    .and_then(|v| v.parse::<f64>().ok())
                {
                    return kb / 1024.0;
                }
            }
        }
    }
    0.0
}

/// One point of the fig8xl bounded-memory scaling sweep: a fig8-style
/// deployment pushed to 32–128 clusters and ≥100k closed-loop clients, run
/// with ledger truncation on so retained state — and the harness's peak RSS —
/// stays bounded while the logical chain keeps growing.
#[derive(Debug, Clone, Serialize)]
pub struct Fig8xlPoint {
    /// Number of clusters (= shards).
    pub clusters: usize,
    /// Total replicas across all clusters (crash model, f = 1 ⇒ 3 each).
    pub replicas: usize,
    /// Closed-loop clients driving the deployment.
    pub clients: usize,
    /// Transactions committed in the measurement window.
    pub committed: usize,
    /// Steady-state simulated throughput.
    pub throughput_tps: f64,
    /// Mean end-to-end latency in milliseconds.
    pub latency_ms: f64,
    /// Blocks retained across all replica ledger views after the run.
    pub retained_blocks: usize,
    /// Logical chain length across all replica ledger views (what retain-all
    /// would have kept in memory).
    pub logical_blocks: usize,
    /// The checkpoint interval the run truncated with.
    pub checkpoint_interval: usize,
    /// The per-view retained-block floor the run truncated with.
    pub retain_blocks: usize,
    /// Process peak RSS in MiB after this point (running maximum).
    pub peak_rss_mb: f64,
    /// Wall-clock milliseconds the point took.
    pub wall_ms: f64,
}

/// The fig8xl sweep: every point plus the host environment.
#[derive(Debug, Clone, Serialize)]
pub struct Fig8xlSweep {
    /// The simulator thread mode the sweep ran under.
    pub threads: String,
    /// Worker threads available to the harness process.
    pub host_cpus: usize,
    /// Maximum simulated throughput over all points (the perfgate headline).
    pub max_throughput_tps: f64,
    /// One point per cluster count.
    pub points: Vec<Fig8xlPoint>,
}

/// The truncation policy of the fig8xl sweep: checkpoint every 32 blocks,
/// retain a 64-block tail per view — far above the cross-shard probe horizon,
/// far below the full chain.
pub const FIG8XL_LEDGER: LedgerConfig = LedgerConfig {
    checkpoint_interval: 32,
    retain_blocks: 64,
};

/// Runs the fig8xl bounded-memory scaling sweep: crash model, 10%
/// cross-shard, 16-transaction batches, `clients_per_cluster` closed-loop
/// clients per cluster, ledger truncation per [`FIG8XL_LEDGER`]. Reports
/// peak RSS and retained-vs-logical block counts per curve point so CI can
/// gate both the throughput and the memory ceiling.
pub fn figure_fig8xl(
    cluster_counts: &[usize],
    clients_per_cluster: usize,
    threads: ThreadMode,
    duration: SimTime,
) -> Fig8xlSweep {
    let points: Vec<Fig8xlPoint> = cluster_counts
        .iter()
        .map(|&clusters| {
            let clients = clients_per_cluster * clusters;
            let params = figure_params(FailureModel::Crash, clusters)
                .with_batching(BatchConfig::with_size(16))
                .with_threads(threads)
                .with_ledger(FIG8XL_LEDGER);
            let mut system = deployment(params, clients, 0.10, None);
            let started = Instant::now();
            let report = system.run(duration);
            let wall_ms = started.elapsed().as_secs_f64() * 1_000.0;
            let (retained_blocks, logical_blocks) = system.ledger_footprint();
            Fig8xlPoint {
                clusters,
                replicas: clusters * 3,
                clients,
                committed: report.summary.committed,
                throughput_tps: report.summary.throughput_tps,
                latency_ms: report.summary.mean_latency_ms,
                retained_blocks,
                logical_blocks,
                checkpoint_interval: FIG8XL_LEDGER.checkpoint_interval,
                retain_blocks: FIG8XL_LEDGER.retain_blocks,
                peak_rss_mb: peak_rss_mb(),
                wall_ms,
            }
        })
        .collect();
    let max_throughput_tps = points.iter().fold(0.0f64, |m, p| m.max(p.throughput_tps));
    Fig8xlSweep {
        threads: threads.to_string(),
        host_cpus: std::thread::available_parallelism().map_or(1, usize::from),
        max_throughput_tps,
        points,
    }
}

/// Renders the fig8xl sweep as the `BENCH_fig8xl.json` document.
pub fn fig8xl_to_json(sweep: &Fig8xlSweep) -> String {
    Object::new()
        .string("figure", "fig8xl")
        .string("threads", &sweep.threads)
        .int("host_cpus", sweep.host_cpus)
        .num("max_throughput_tps", sweep.max_throughput_tps, 3)
        .array(
            "points",
            sweep.points.iter().map(|p| {
                Object::new()
                    .int("clusters", p.clusters)
                    .int("replicas", p.replicas)
                    .int("clients", p.clients)
                    .int("committed", p.committed)
                    .num("throughput_tps", p.throughput_tps, 3)
                    .num("latency_ms", p.latency_ms, 3)
                    .int("retained_blocks", p.retained_blocks)
                    .int("logical_blocks", p.logical_blocks)
                    .int("checkpoint_interval", p.checkpoint_interval)
                    .int("retain_blocks", p.retain_blocks)
                    .num("peak_rss_mb", p.peak_rss_mb, 1)
                    .num("wall_ms", p.wall_ms, 1)
            }),
        )
        .finish()
}

/// One point of the partitioned-executor sweep: the same uniform transfer
/// stream applied along its partitioned plan and through the serial
/// executor, with the modelled apply-path cost of each.
#[derive(Debug, Clone, Serialize)]
pub struct ExecPoint {
    /// State partitions of the shard's account store.
    pub partitions: usize,
    /// Transactions per committed batch.
    pub batch_size: usize,
    /// Total transactions applied across all batches.
    pub txs: usize,
    /// Sum of the per-batch critical-path lengths, in scheduler work units.
    pub makespan_units: u64,
    /// Sum of the per-batch serial reference costs, in scheduler work units.
    pub serial_units: u64,
    /// `serial_units / makespan_units` — the plan-level parallelism.
    pub speedup_modeled: f64,
    /// Modelled apply-path throughput of the partitioned schedule
    /// ([`CostModel::execution_batch_scheduled`] per batch).
    pub throughput_tps: f64,
    /// Modelled apply-path throughput of the serial executor
    /// ([`CostModel::execution_batch`] per batch).
    pub serial_tps: f64,
    /// Wall-clock milliseconds of the single-threaded partitioned pass
    /// (host-dependent; informational only — the gated numbers are the
    /// modelled ones).
    pub wall_ms: f64,
    /// Whether the partitioned pass produced bit-identical outcomes and
    /// final state to the serial pass (must always be true).
    pub identical_to_serial: bool,
}

/// The executor sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ExecSweep {
    /// One point per (partitions, batch_size) combination.
    pub points: Vec<ExecPoint>,
}

/// `num / den`, or zero when `den` is not positive.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Deterministic SplitMix64 stream used to generate the executor workload.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs the partitioned-executor sweep (`figures --fig exec`): a fixed
/// uniform transfer stream over one shard's accounts, applied batch by batch
/// through [`Executor::apply_batch_partitioned`] for every combination of
/// partition count and batch size, and differentially checked — outcomes
/// and final state — against the serial [`Executor::apply_batch`].
///
/// Throughput is *modelled* from the schedule's critical path via
/// [`CostModel::execution_batch_scheduled`]: it is what a partitioned
/// executor could reach, not what replicas do — they apply serially and the
/// simulation charges the flat serial cost. The headline claim is ≥1.5×
/// modelled speedup at 4 partitions on uniform 16-transaction batches.
pub fn figure_exec(seed: u64, quick: bool) -> ExecSweep {
    let cost = CostModel::default();
    let exec = Executor::new(ClusterId(0), Partitioner::range(1, ACCOUNTS_PER_SHARD));
    let total = if quick { 512 } else { 2_048 };

    // Uniform transfer stream: distinct source/destination accounts drawn
    // uniformly from the shard, amount 1, every source owned by its client
    // (the genesis convention), so under the large genesis balance every
    // transaction applies and the sweep measures scheduling, not aborts.
    let mut rng = seed;
    let txs: Vec<Arc<Transaction>> = (0..total as u64)
        .map(|seq| {
            let from = splitmix64(&mut rng) % ACCOUNTS_PER_SHARD;
            let mut to = splitmix64(&mut rng) % ACCOUNTS_PER_SHARD;
            if to == from {
                to = (to + 1) % ACCOUNTS_PER_SHARD;
            }
            Arc::new(Transaction::transfer(
                ClientId(from),
                seq,
                AccountId(from),
                AccountId(to),
                1,
            ))
        })
        .collect();

    let mut points = Vec::new();
    for &partitions in &[1usize, 2, 4, 8] {
        for &batch_size in &[4usize, 16, 64] {
            // Partitioned pass.
            let mut split =
                exec.genesis_partitioned(partitions, ACCOUNTS_PER_SHARD, 1_000_000, ClientId);
            let mut outcomes = Vec::with_capacity(total);
            let mut makespan_units = 0u64;
            let mut serial_units = 0u64;
            let mut sched_us = 0u64;
            let started = Instant::now();
            for chunk in txs.chunks(batch_size) {
                let r = exec.apply_batch_partitioned(&mut split, chunk);
                sched_us += cost
                    .execution_batch_scheduled(r.makespan_units, TX_UNITS)
                    .as_micros();
                makespan_units += r.makespan_units;
                serial_units += r.serial_units;
                outcomes.extend(r.outcomes);
            }
            let wall_ms = started.elapsed().as_secs_f64() * 1_000.0;

            // Serial reference pass on a flat store.
            let mut flat = exec.genesis_store(ACCOUNTS_PER_SHARD, 1_000_000, ClientId);
            let mut serial_outcomes = Vec::with_capacity(total);
            let mut serial_us = 0u64;
            for chunk in txs.chunks(batch_size) {
                serial_us += cost.execution_batch(chunk.len()).as_micros();
                serial_outcomes.extend(exec.apply_batch(&mut flat, chunk));
            }

            points.push(ExecPoint {
                partitions,
                batch_size,
                txs: total,
                makespan_units,
                serial_units,
                speedup_modeled: ratio(serial_units as f64, makespan_units as f64),
                throughput_tps: ratio(total as f64, sched_us as f64 / 1e6),
                serial_tps: ratio(total as f64, serial_us as f64 / 1e6),
                wall_ms,
                identical_to_serial: outcomes == serial_outcomes && split.to_store() == flat,
            });
        }
    }
    ExecSweep { points }
}

/// Renders the executor sweep as the `BENCH_exec.json` document.
pub fn exec_to_json(sweep: &ExecSweep) -> String {
    Object::new()
        .string("figure", "exec")
        .array(
            "points",
            sweep.points.iter().map(|p| {
                Object::new()
                    .int("partitions", p.partitions)
                    .int("batch_size", p.batch_size)
                    .int("txs", p.txs)
                    .int("makespan_units", p.makespan_units)
                    .int("serial_units", p.serial_units)
                    .num("speedup_modeled", p.speedup_modeled, 3)
                    .num("throughput_tps", p.throughput_tps, 3)
                    .num("serial_tps", p.serial_tps, 3)
                    .num("wall_ms", p.wall_ms, 1)
                    .bool("identical_to_serial", p.identical_to_serial)
            }),
        )
        .finish()
}

/// Writes `body` to `path`, creating its directory first; on failure prints
/// the error and exits with status 1. Every file this crate's binaries write
/// goes through here.
pub fn write_output(path: &Path, body: &str) {
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("failed to write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// Returns the value following `flag` in `args` — the one tiny piece of CLI
/// parsing shared by this crate's binaries (`figures`, `golden`, `perfgate`).
pub fn cli_flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Parses the `--threads` flag out of `args` (defaulting to sequential);
/// prints the parse error and exits with status 2 on an invalid value.
pub fn cli_thread_mode(args: &[String]) -> ThreadMode {
    match cli_flag_value(args, "--threads").as_deref() {
        None => ThreadMode::Sequential,
        Some(s) => match ThreadMode::parse(s) {
            Ok(mode) => mode,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        },
    }
}

/// Renders the parallel sweep as the `BENCH_parallel.json` document.
pub fn parallel_to_json(sweep: &ParallelSweep) -> String {
    Object::new()
        .string("figure", "parallel")
        .string("threads", &sweep.threads)
        .int("host_cpus", sweep.host_cpus)
        .array(
            "points",
            sweep.points.iter().map(|p| {
                Object::new()
                    .int("clusters", p.clusters)
                    .int("replicas", p.replicas)
                    .int("clients", p.clients)
                    .int("committed", p.committed)
                    .num("throughput_tps", p.throughput_tps, 3)
                    .num("wall_ms_sequential", p.wall_ms_sequential, 1)
                    .num("wall_ms_parallel", p.wall_ms_parallel, 1)
                    .num("speedup", p.speedup, 3)
                    .bool("identical", p.identical)
                    .string("digest", &p.digest)
            }),
        )
        .finish()
}

// ---------------------------------------------------------------------------
// Dynamic resharding under hot-key drift (`figures --fig reshard`)
// ---------------------------------------------------------------------------

/// Clusters in the reshard evaluation deployment (crash model, f = 1).
const RESHARD_CLUSTERS: usize = 3;
/// Width of the drifting hot window in accounts.
const RESHARD_SPAN: u64 = 400;
/// Window drift period in transactions per client stream: short enough that
/// the hot range actually moves a few times within a measurement run, so the
/// figure exercises re-splitting after drift, not just the initial carve-up.
const RESHARD_DRIFT_EVERY: u64 = 300;

/// The hot-window settings of the reshard figure.
fn reshard_hotspot() -> HotspotConfig {
    let mut hs = HotspotConfig::evaluation(RESHARD_SPAN);
    hs.drift_every = RESHARD_DRIFT_EVERY;
    hs
}

/// The reshard policy of the evaluation: single-account load buckets
/// (`buckets_per_shard == ACCOUNTS_PER_SHARD`) so the Zipf head ranks can be
/// carved off the hot shard one by one — a coarser bucket would trap most of
/// the window's mass in one indivisible unit — with tight report/check
/// intervals so the coordinator tracks the drifting window within a fraction
/// of a drift period.
fn reshard_policy() -> ReshardConfig {
    ReshardConfig {
        enabled: true,
        buckets_per_shard: ACCOUNTS_PER_SHARD,
        report_interval: Duration::from_millis(100),
        check_interval: Duration::from_millis(200),
        ..ReshardConfig::enabled()
    }
}

/// One operating point of the reshard figure: the same hot-key-drift
/// workload with the resharding plane off ("static") or on ("dynamic").
#[derive(Debug, Clone, Serialize)]
pub struct ReshardPoint {
    /// "static" (fixed genesis shard map) or "dynamic" (online split/merge).
    pub system: String,
    /// Closed-loop clients driving the deployment.
    pub clients: usize,
    /// Steady-state throughput in transactions per second.
    pub throughput_tps: f64,
    /// Mean end-to-end latency in milliseconds.
    pub latency_ms: f64,
    /// Transactions committed in the measurement window.
    pub committed: usize,
    /// Reshard handovers applied across all replicas (0 for static).
    pub reshards_applied: usize,
    /// Shard-map redirects clients received (0 for static).
    pub client_redirects: usize,
}

/// One row of the cross-shard fairness table: completions per initiator
/// cluster under 100% cross-shard load.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct FairnessEntry {
    /// The initiating cluster.
    pub cluster: u32,
    /// Client completions whose request was initiated through this cluster.
    pub completed: usize,
}

/// The full reshard sweep: static vs dynamic under hot-key drift, plus the
/// cross-shard fairness table at 100% cross-shard load.
#[derive(Debug, Clone, Serialize)]
pub struct ReshardSweep {
    /// Clusters in the deployment.
    pub clusters: usize,
    /// Zipf skew of the hot window.
    pub zipf_s: f64,
    /// Fraction of traffic on the hot window.
    pub hot_ratio: f64,
    /// Hot window width in accounts.
    pub span: u64,
    /// Window drift period in transactions per client stream.
    pub drift_every: u64,
    /// The static and dynamic operating points.
    pub points: Vec<ReshardPoint>,
    /// Dynamic throughput over static throughput (the headline claim is
    /// ≥ 1.3× at Zipf s = 1.2 with a drifting hot range).
    pub dynamic_speedup: f64,
    /// Per-initiator-cluster completions at 100% cross-shard load.
    pub fairness: Vec<FairnessEntry>,
    /// Max/min ratio over the fairness table (the gate is ≤ 1.5×).
    pub fairness_spread: f64,
}

/// Runs one reshard operating point: the hot-key-drift workload with the
/// resharding plane on or off.
pub fn reshard_point(
    dynamic: bool,
    clients: usize,
    threads: ThreadMode,
    duration: SimTime,
) -> ReshardPoint {
    let mut params = figure_params(FailureModel::Crash, RESHARD_CLUSTERS).with_threads(threads);
    if dynamic {
        params = params.with_reshard(reshard_policy());
    }
    // No baseline cross-shard traffic: every imbalance is the hotspot's.
    let report = deployment(params, clients, 0.0, Some(reshard_hotspot())).run(duration);
    ReshardPoint {
        system: if dynamic { "dynamic" } else { "static" }.to_string(),
        clients,
        throughput_tps: report.summary.throughput_tps,
        latency_ms: report.summary.mean_latency_ms,
        committed: report.summary.committed,
        reshards_applied: report.reshards_applied,
        client_redirects: report.client_redirects,
    }
}

/// Runs the 100% cross-shard fairness deployment (any-involved-cluster
/// initiation, so every cluster initiates) and returns the per-initiator
/// completion table plus its max/min spread.
pub fn reshard_fairness(
    clients: usize,
    threads: ThreadMode,
    duration: SimTime,
) -> (Vec<FairnessEntry>, f64) {
    let params = figure_params(FailureModel::Crash, RESHARD_CLUSTERS)
        .with_threads(threads)
        .with_initiation_policy(InitiationPolicy::AnyInvolvedCluster);
    let report = deployment(params, clients, 1.0, None).run(duration);
    let fairness: Vec<FairnessEntry> = report
        .completed_by_initiator
        .iter()
        .map(|(cluster, completed)| FairnessEntry {
            cluster: cluster.0,
            completed: *completed,
        })
        .collect();
    let spread = report.initiator_spread().unwrap_or(f64::INFINITY);
    (fairness, spread)
}

/// Runs the full reshard figure: static vs dynamic under hot-key drift plus
/// the cross-shard fairness table.
pub fn figure_reshard(clients: usize, threads: ThreadMode, duration: SimTime) -> ReshardSweep {
    let hotspot = reshard_hotspot();
    let static_point = reshard_point(false, clients, threads, duration);
    let dynamic_point = reshard_point(true, clients, threads, duration);
    let dynamic_speedup = if static_point.throughput_tps > 0.0 {
        dynamic_point.throughput_tps / static_point.throughput_tps
    } else {
        f64::INFINITY
    };
    // Fairness runs in the conflict-heavy 100% cross-shard regime, where
    // each completion costs a whole-cluster round: 6 clients keeps the run
    // in the regime the rotation fix targets without drowning in timeouts,
    // and a fixed 10-second window accumulates enough completions per
    // initiator (~50+) that the max/min spread measures scheduling bias
    // rather than sampling noise.
    let (fairness, fairness_spread) =
        reshard_fairness(6, threads, duration.max(SimTime::from_secs(10)));
    ReshardSweep {
        clusters: RESHARD_CLUSTERS,
        zipf_s: hotspot.s,
        hot_ratio: hotspot.hot_ratio,
        span: hotspot.span,
        drift_every: hotspot.drift_every,
        points: vec![static_point, dynamic_point],
        dynamic_speedup,
        fairness,
        fairness_spread,
    }
}

/// Renders the reshard sweep as the `BENCH_reshard.json` document.
pub fn reshard_to_json(sweep: &ReshardSweep) -> String {
    Object::new()
        .string("figure", "reshard")
        .int("clusters", sweep.clusters)
        .num("zipf_s", sweep.zipf_s, 2)
        .num("hot_ratio", sweep.hot_ratio, 2)
        .int("span", sweep.span)
        .int("drift_every", sweep.drift_every)
        .array(
            "points",
            sweep.points.iter().map(|p| {
                Object::new()
                    .string("system", &p.system)
                    .int("clients", p.clients)
                    .num("throughput_tps", p.throughput_tps, 3)
                    .num("latency_ms", p.latency_ms, 3)
                    .int("committed", p.committed)
                    .int("reshards_applied", p.reshards_applied)
                    .int("client_redirects", p.client_redirects)
            }),
        )
        .num("dynamic_speedup", sweep.dynamic_speedup, 3)
        .array(
            "fairness",
            sweep.fairness.iter().map(|f| {
                Object::new()
                    .int("cluster", f.cluster)
                    .int("completed", f.completed)
            }),
        )
        .num("fairness_spread", sweep.fairness_spread, 3)
        .finish()
}

/// Renders the fairness table as markdown (appended to the CI step summary).
pub fn reshard_fairness_markdown(sweep: &ReshardSweep) -> String {
    let mut body = String::from("### Cross-shard fairness (100% cross-shard load)\n\n");
    body.push_str("| initiator cluster | completed |\n|---:|---:|\n");
    for f in &sweep.fairness {
        body.push_str(&format!("| {} | {} |\n", f.cluster, f.completed));
    }
    body.push_str(&format!(
        "\nmax/min spread {:.3} (gate ≤ 1.5), dynamic/static speedup {:.2}× \
         (gate ≥ 1.3) at Zipf s = {:.1} over a drifting {}-account window\n",
        sweep.fairness_spread, sweep.dynamic_speedup, sweep.zipf_s, sweep.span
    ));
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK: SimTime = SimTime(1_500_000); // 1.5 s of simulated time

    #[test]
    fn sharper_point_produces_throughput() {
        let p = sharper_point(figure_params(FailureModel::Crash, 4), 0.2, 8, QUICK);
        assert!(p.throughput_tps > 0.0);
        assert!(p.latency_ms > 0.0);
        assert!(p.committed > 0);
    }

    #[test]
    fn baseline_point_produces_throughput() {
        let p = baseline_point(BaselineKind::AprC, 0.2, 4, QUICK);
        assert!(p.throughput_tps > 0.0);
    }

    #[test]
    fn figure_systems_cover_four_systems_per_figure() {
        assert_eq!(figure_systems(FailureModel::Crash).len(), 4);
        assert_eq!(figure_systems(FailureModel::Byzantine).len(), 4);
    }

    #[test]
    fn batch_16_gives_at_least_4x_intra_shard_throughput() {
        // The headline acceptance claim of the batching layer: one Byzantine
        // cluster under pure intra-shard load, identical seed/topology and
        // offered load, only max_batch_size varies.
        let point = |batch| {
            let params = batching_params(FailureModel::Byzantine, 1, batch);
            sharper_point(params, 0.0, 16, SimTime(1_200_000))
        };
        let (unbatched, batched) = (point(1), point(16));
        assert!(
            batched.throughput_tps >= 4.0 * unbatched.throughput_tps,
            "batch=16 {:.0} tps vs batch=1 {:.0} tps",
            batched.throughput_tps,
            unbatched.throughput_tps
        );
    }

    #[test]
    fn exec_sweep_models_speedup_and_stays_bit_identical() {
        // The headline claim of the partitioned plan: ≥1.5× modelled
        // apply-path throughput at 4 partitions on uniform 16-tx batches,
        // with every point bit-identical to the serial executor.
        let sweep = figure_exec(0x5EED, true);
        assert!(sweep.points.iter().all(|p| p.identical_to_serial));
        let serial = sweep
            .points
            .iter()
            .find(|p| p.partitions == 1 && p.batch_size == 16)
            .expect("serial point");
        let split = sweep
            .points
            .iter()
            .find(|p| p.partitions == 4 && p.batch_size == 16)
            .expect("partitioned point");
        assert!(
            split.throughput_tps >= 1.5 * serial.serial_tps,
            "partitioned {:.0} tps vs serial {:.0} tps",
            split.throughput_tps,
            serial.serial_tps
        );
    }

    #[test]
    fn exec_sweep_reproduces_the_committed_perfgate_baseline() {
        // Every exec figure column is modelled, so the gated maximum is
        // exact: the full sweep must land on the committed baseline.
        let baseline = include_str!("../../../bench/baselines/BENCH_baseline.json");
        let needle = "\"figure\":\"exec\",\"max_throughput_tps\":";
        let start = baseline.find(needle).expect("exec baseline entry") + needle.len();
        let committed = &baseline[start..start + baseline[start..].find('}').unwrap()];
        let max = figure_exec(0x5EED, false)
            .points
            .iter()
            .map(|p| p.throughput_tps)
            .fold(0.0, f64::max);
        assert_eq!(format!("{max:.3}"), committed);
    }

    #[test]
    fn sharper_beats_non_sharded_baselines_on_intra_shard_load() {
        // The headline claim behind Fig. 6(a): with no cross-shard
        // transactions, four independent clusters outperform a single
        // consensus group by a wide margin. Enough clients are needed to
        // push the single APR-C group into saturation.
        let sharper = sharper_point(figure_params(FailureModel::Crash, 4), 0.0, 224, QUICK);
        let apr = baseline_point(BaselineKind::AprC, 0.0, 224, QUICK);
        assert!(
            sharper.throughput_tps > 1.5 * apr.throughput_tps,
            "SharPer {:.0} tps vs APR-C {:.0} tps",
            sharper.throughput_tps,
            apr.throughput_tps
        );
    }
}
