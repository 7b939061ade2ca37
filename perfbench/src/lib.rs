//! The repository benchmark of the SharPer reproduction.
//!
//! One command measures one workload for one seed and prints every metric by
//! name and unit (see `BENCHMARK.json` at the repository root and
//! `perfbench/NOTES.md`). All load comes from the existing closed-loop
//! clients on the sequential simulator engine, so the simulated metrics are
//! work per simulated second at a stated client count. Host timings are the
//! benchmark's own spans around its calls into the workspace's public
//! functions; nothing inside the program is instrumented.
//!
//! * `--trace 0` measures the end-to-end metrics from untraced runs.
//! * `--trace 1` measures the per-layer metrics: counters of an untraced
//!   run, signals derived from a traced run of the same seeds (checked to be
//!   bit-identical to the untraced one) and a host-side replay of each
//!   layer's public functions on the workload's own transactions.

#![forbid(unsafe_code)]

pub mod e2e;
pub mod layers;
pub mod replay;

use sharper_common::{
    BatchConfig, ClientId, FailureModel, InitiationPolicy, LedgerConfig, SimTime,
};
use sharper_core::{RunReport, SharperSystem, SystemParams};
use sharper_crypto::Digest;
use sharper_ledger::{check_replica_agreement, LedgerView};
use sharper_net::{LatencySummary, SimulationReport};
use sharper_workload::{WorkloadConfig, WorkloadGenerator};
use std::fmt::Write as _;
use std::time::Instant;

/// Accounts hosted by each shard in every workload.
pub const ACCOUNTS_PER_SHARD: u64 = 2_000;
/// Clusters (= shards) in every workload.
pub const CLUSTERS: usize = 4;

/// The benchmark's workloads. Why each one exists is recorded in
/// `perfbench/NOTES.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Crash f=1, 0% cross-shard, batch 16, 128 clients × 16 in flight,
    /// ledger truncation at `FIG8XL_LEDGER`: the host-cost workload.
    IntraB16,
    /// Crash f=1, 20% cross-shard, unbatched, 48 clients × 1, retain-all:
    /// Fig 6b at the load where the paper puts SharPer ahead of AHL.
    Cross20,
    /// Byzantine f=1, 0% cross-shard, batch 16, 64 clients × 16 in flight,
    /// retain-all: PBFT's signed three-phase rounds.
    ByzB16,
}

/// How much simulated work one pass of a workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Independent deployments per pass, each with its own derived seed.
    pub deployments: usize,
    /// Simulated duration of each deployment's run.
    pub duration: SimTime,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::IntraB16, Workload::Cross20, Workload::ByzB16];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IntraB16 => "intra_b16",
            Workload::Cross20 => "cross20",
            Workload::ByzB16 => "byz_b16",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulated work of one pass. A single deployment's latency
    /// percentiles move by up to a quarter with the seed on the batched
    /// workloads, and `cross20`'s throughput moves 10× (see NOTES.md), so a
    /// pass pools several deployments; one simulated second of a batched
    /// workload costs seconds of host time, one of `cross20` milliseconds.
    pub fn plan(self) -> Plan {
        match self {
            Workload::IntraB16 => Plan {
                deployments: 6,
                duration: SimTime::from_secs(1),
            },
            Workload::ByzB16 => Plan {
                deployments: 4,
                duration: SimTime::from_secs(1),
            },
            Workload::Cross20 => Plan {
                deployments: 256,
                duration: SimTime::from_secs(10),
            },
        }
    }

    fn failure_model(self) -> FailureModel {
        match self {
            Workload::ByzB16 => FailureModel::Byzantine,
            Workload::IntraB16 | Workload::Cross20 => FailureModel::Crash,
        }
    }

    /// Transactions per block the primaries seal.
    pub fn batch_size(self) -> usize {
        match self {
            Workload::IntraB16 | Workload::ByzB16 => 16,
            Workload::Cross20 => 1,
        }
    }

    /// Closed-loop clients driving each deployment.
    pub fn clients(self) -> usize {
        match self {
            Workload::IntraB16 => 128,
            Workload::Cross20 => 48,
            Workload::ByzB16 => 64,
        }
    }

    /// Share of cross-shard transactions in the generated stream.
    fn cross_shard_ratio(self) -> f64 {
        match self {
            Workload::Cross20 => 0.2,
            Workload::IntraB16 | Workload::ByzB16 => 0.0,
        }
    }

    /// The ledger retention policy of the replicas.
    pub fn ledger(self) -> LedgerConfig {
        match self {
            Workload::IntraB16 => sharper_bench::FIG8XL_LEDGER,
            Workload::Cross20 | Workload::ByzB16 => LedgerConfig::retain_all(),
        }
    }

    /// The deployment parameters for one seed. Everything not set here —
    /// message delays (client→node 2 ms, intra-cluster 0.5 ms,
    /// cross-cluster 10 ms, ±0.2 ms jitter), cost model, timers, the 500 ms
    /// warm-up and the sequential engine — is the workspace default.
    pub fn params(self, seed: u64, tracing: bool) -> SystemParams {
        let mut params = SystemParams::new(self.failure_model(), CLUSTERS, 1)
            .with_seed(seed)
            .with_ledger(self.ledger())
            .with_initiation_policy(InitiationPolicy::SuperPrimary)
            .with_tracing(tracing);
        if self.batch_size() > 1 {
            params = params.with_batching(BatchConfig::with_size(self.batch_size()));
        }
        params.client = params.client.with_in_flight(self.batch_size());
        params.accounts_per_shard = ACCOUNTS_PER_SHARD;
        params
    }

    /// The workload generator configuration for one seed.
    pub fn workload_config(self, seed: u64) -> WorkloadConfig {
        let mut cfg = WorkloadConfig::evaluation(CLUSTERS as u32, self.cross_shard_ratio());
        cfg.accounts_per_shard = ACCOUNTS_PER_SHARD;
        cfg.seed = seed;
        cfg
    }

    /// Builds one deployment and times `SharperSystem::build`.
    pub fn build(self, seed: u64, tracing: bool) -> (SharperSystem, f64) {
        let params = self.params(seed, tracing);
        let cfg = self.workload_config(seed);
        let started = Instant::now();
        let system = SharperSystem::build(params, self.clients(), |client: ClientId| {
            WorkloadGenerator::new(client, cfg)
        });
        (system, started.elapsed().as_secs_f64())
    }
}

/// Everything simulated about one deployment run. Two runs of the same seed
/// — traced or not, in any pass — must produce equal fingerprints.
#[derive(Debug, Clone, PartialEq)]
pub struct SimFingerprint {
    /// Steady-state throughput/latency summary of the measurement window.
    pub summary: LatencySummary,
    /// The simulator's event counters.
    pub simulation: SimulationReport,
    /// `stats().submitted()`: transactions the clients submitted.
    pub submitted: usize,
    /// `stats().committed()`: distinct transactions that reached their reply
    /// quorum.
    pub committed: usize,
    /// Client retransmissions.
    pub retransmissions: usize,
    /// `ledger_digest()` over every replica's view.
    pub digest: Digest,
}

/// One built-and-run deployment, still alive for inspection.
pub struct Deployment {
    /// The deployment after its run.
    pub system: SharperSystem,
    /// The run report of `SharperSystem::run`.
    pub report: RunReport,
    /// What the run simulated.
    pub fingerprint: SimFingerprint,
    /// Wall-clock seconds of `SharperSystem::build`.
    pub setup_s: f64,
    /// Wall-clock seconds of `SharperSystem::run`.
    pub run_s: f64,
}

/// Builds and runs one deployment and checks its outputs: the ledger audit
/// (`SharperSystem::run` fails on a violation), replica agreement within
/// every cluster, and at least one committed transaction.
pub fn run_deployment(
    workload: Workload,
    plan: Plan,
    seed: u64,
    tracing: bool,
) -> Result<Deployment, String> {
    let (mut system, setup_s) = workload.build(seed, tracing);
    let started = Instant::now();
    let report = system.run(plan.duration);
    let run_s = started.elapsed().as_secs_f64();
    let cfg = system.config();
    for cluster in cfg.system.cluster_ids() {
        let members = cfg.system.members(cluster).map_err(|e| e.to_string())?;
        let views: Vec<&LedgerView> = members
            .iter()
            .filter_map(|&node| system.replica(node))
            .map(|r| r.ledger())
            .collect();
        check_replica_agreement(cluster, &views)
            .map_err(|e| format!("{} seed {seed}: {e}", workload.name()))?;
    }
    let fingerprint = SimFingerprint {
        summary: report.summary,
        simulation: report.simulation,
        submitted: system.stats().submitted(),
        committed: system.stats().committed(),
        retransmissions: report.retransmissions,
        digest: system.ledger_digest(),
    };
    if fingerprint.committed == 0 {
        return Err(format!(
            "{} seed {seed}: no transaction committed",
            workload.name()
        ));
    }
    Ok(Deployment {
        system,
        report,
        fingerprint,
        setup_s,
        run_s,
    })
}

/// The seed of deployment `index` of a run with seed `seed`. Deployment 0
/// uses the run's seed itself; the odd multiplier keeps the deployments of
/// nearby run seeds disjoint.
pub fn deployment_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The name listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The result of one benchmark invocation.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Transactions submitted by the clients of every measured deployment.
    pub attempted: u64,
    /// Of those, transactions not committed by the end of their run.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable detail lines printed before the result line.
    pub detail: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`. Only called once every check has passed.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Runs one benchmark invocation: `trace == false` measures the end-to-end
/// metrics, `trace == true` the per-layer ones. `seconds` is the wall-clock
/// budget of the measurement loop. Returns an error naming the first failed
/// correctness check.
pub fn run(
    workload: Workload,
    plan: Plan,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    if trace {
        layers::measure(workload, plan, seed, seconds)
    } else {
        e2e::measure(workload, plan, seed, seconds)
    }
}

/// Median of `values` (mean of the middle two for an even count), 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}
