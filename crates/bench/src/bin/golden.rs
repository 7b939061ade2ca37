//! Emits the golden-seed ledger digests of a fixed set of deployments.
//!
//! Usage:
//!   cargo run -p sharper-bench --release --bin golden -- \
//!       --threads sequential --out golden-sequential.txt
//!   cargo run -p sharper-bench --release --bin golden -- \
//!       --threads per-cluster --out golden-per-cluster.txt
//!
//! Each line of the output file is `<config> <ledger-digest> <committed>
//! <delivered> <dropped>`. The CI determinism gate runs this binary once per
//! thread mode and `diff`s the files: the conservative parallel scheduler
//! guarantees bit-identical results, so any divergence is a scheduler bug
//! and fails the build.
//!
//! `--retain <interval>,<blocks>` runs every replica's ledger with
//! checkpointing + truncation (checkpoint every `interval` blocks, retain a
//! `blocks`-deep tail). The rolling checkpoint digest keeps the ledger
//! digest bit-identical to the retain-all default, so CI diffs `--retain`
//! output against the untruncated run too.
//!
//! `--reshard` swaps in the dynamic-resharding golden deployments instead:
//! one scripted split + merge pair and one load-driven run under a drifting
//! hotspot. Reconfiguration rides the ordinary consensus path, so these
//! digests must be just as bit-identical across thread modes and under
//! truncation as the static ones.

use sharper_bench::{cli_flag_value, cli_thread_mode, deployment, write_output};
use sharper_common::{
    BatchConfig, Duration, FailureModel, ForcedMove, LedgerConfig, ReshardConfig, SimTime,
    ThreadMode,
};
use sharper_core::SystemParams;
use sharper_net::FaultPlan;
use sharper_workload::HotspotConfig;
use std::path::Path;

struct GoldenConfig {
    name: &'static str,
    model: FailureModel,
    clusters: usize,
    cross_ratio: f64,
    clients: usize,
    max_batch: usize,
    drop_probability: f64,
    seed: u64,
    /// Dynamic-resharding plane (`--reshard` deployments only, crash model);
    /// these lines end with the count of applied reshards.
    reshard: Option<ReshardConfig>,
    /// Drifting Zipfian hotspot over the workload; `None` is uniform.
    hotspot: Option<HotspotConfig>,
}

/// The golden deployments: both failure models, intra-dominant and pure
/// cross-shard loads, unbatched and batched, clean and lossy networks, and
/// enough clusters that per-cluster mode actually runs several workers.
const CONFIGS: &[GoldenConfig] = &[
    GoldenConfig {
        name: "crash-3c-30cross-drop1-seed-c0ffee",
        model: FailureModel::Crash,
        clusters: 3,
        cross_ratio: 0.3,
        clients: 6,
        max_batch: 1,
        drop_probability: 0.01,
        seed: 0xC0FFEE,
        reshard: None,
        hotspot: None,
    },
    GoldenConfig {
        name: "byz-3c-30cross-drop1-seed-beef",
        model: FailureModel::Byzantine,
        clusters: 3,
        cross_ratio: 0.3,
        clients: 6,
        max_batch: 1,
        drop_probability: 0.01,
        seed: 0xBEEF,
        reshard: None,
        hotspot: None,
    },
    GoldenConfig {
        name: "crash-4c-100cross-batch16-seed-7",
        model: FailureModel::Crash,
        clusters: 4,
        cross_ratio: 1.0,
        clients: 8,
        max_batch: 16,
        drop_probability: 0.0,
        seed: 7,
        reshard: None,
        hotspot: None,
    },
    GoldenConfig {
        name: "byz-4c-0cross-batch8-seed-99",
        model: FailureModel::Byzantine,
        clusters: 4,
        cross_ratio: 0.0,
        clients: 8,
        max_batch: 8,
        drop_probability: 0.0,
        seed: 99,
        reshard: None,
        hotspot: None,
    },
];

const ACCOUNTS: u64 = 1_000;

/// The reshard golden deployments: one scripted split + merge pair (the
/// merge is the inverse move, restoring the genesis map), and one fully
/// load-driven run under a drifting hotspot. Both must be bit-identical
/// across every thread mode and under ledger truncation.
fn reshard_configs() -> Vec<GoldenConfig> {
    vec![
        GoldenConfig {
            name: "reshard-forced-split-merge-drop1-seed-5",
            model: FailureModel::Crash,
            clusters: 3,
            cross_ratio: 0.2,
            clients: 6,
            max_batch: 1,
            drop_probability: 0.01,
            seed: 5,
            // One split mid-run, then the inverse move (a merge) 600 ms
            // later: the catalog range [600, 640) leaves shard 0 for
            // cluster 2 and comes home again.
            reshard: Some(ReshardConfig {
                // A tight check interval keeps the scripted times sharp and
                // re-sends directives lost to the 1% drop rate promptly.
                check_interval: Duration::from_millis(100),
                ..ReshardConfig::forced_only(vec![
                    ForcedMove {
                        at: Duration::from_millis(500),
                        start: 600,
                        len: 40,
                        to: 2,
                    },
                    ForcedMove {
                        at: Duration::from_millis(1_100),
                        start: 600,
                        len: 40,
                        to: 0,
                    },
                ])
            }),
            hotspot: None,
        },
        GoldenConfig {
            name: "reshard-load-driven-hotspot-seed-11",
            model: FailureModel::Crash,
            clusters: 3,
            cross_ratio: 0.0,
            clients: 8,
            max_batch: 1,
            drop_probability: 0.0,
            seed: 11,
            reshard: Some(ReshardConfig {
                enabled: true,
                buckets_per_shard: 100,
                report_interval: Duration::from_millis(100),
                check_interval: Duration::from_millis(200),
                ..ReshardConfig::enabled()
            }),
            hotspot: Some(HotspotConfig {
                hot_ratio: 0.8,
                s: 1.2,
                span: 60,
                drift_every: 150,
            }),
        },
    ]
}

/// Runs one golden deployment for two simulated seconds with [`ACCOUNTS`]
/// accounts per shard and a 100 ms warm-up and returns its output line.
fn run_config(cfg: &GoldenConfig, threads: ThreadMode, ledger: LedgerConfig) -> String {
    let mut params = SystemParams::new(cfg.model, cfg.clusters, 1)
        .with_faults(FaultPlan::none().with_drop_probability(cfg.drop_probability))
        .with_seed(cfg.seed)
        .with_batching(BatchConfig::with_size(cfg.max_batch))
        .with_threads(threads)
        .with_ledger(ledger);
    if let Some(reshard) = &cfg.reshard {
        params = params.with_reshard(reshard.clone());
    }
    params.accounts_per_shard = ACCOUNTS;
    params.warmup = SimTime::from_millis(100);
    let mut system = deployment(params, cfg.clients, cfg.cross_ratio, cfg.hotspot);
    let report = system.run(SimTime::from_secs(2));
    let line = format!(
        "{} {} {} {} {}",
        cfg.name,
        system.ledger_digest().to_hex(),
        report.summary.committed,
        report.simulation.delivered,
        report.simulation.dropped
    );
    match cfg.reshard {
        Some(_) => format!("{line} reshards={}", report.reshards_applied),
        None => line,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let threads = cli_thread_mode(&args);
    let out = cli_flag_value(&args, "--out");
    let ledger = match cli_flag_value(&args, "--retain") {
        None => LedgerConfig::retain_all(),
        Some(spec) => {
            let parts: Vec<usize> = spec.split(',').filter_map(|p| p.parse().ok()).collect();
            match parts.as_slice() {
                [interval, blocks] => LedgerConfig::checkpointed(*interval, *blocks),
                _ => {
                    eprintln!("invalid --retain value {spec:?}: expected <interval>,<blocks>");
                    std::process::exit(2);
                }
            }
        }
    };

    let reshard_list;
    let configs = if args.iter().any(|a| a == "--reshard") {
        reshard_list = reshard_configs();
        &reshard_list[..]
    } else {
        CONFIGS
    };
    let lines: Vec<String> = configs
        .iter()
        .map(|cfg| run_config(cfg, threads, ledger))
        .collect();
    for line in &lines {
        println!("[{threads}] {line}");
    }
    if let Some(path) = out {
        write_output(Path::new(&path), &(lines.join("\n") + "\n"));
        println!("GOLDEN {path}");
    }
}
