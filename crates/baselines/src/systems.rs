//! Builders for the six baseline deployments of the evaluation.

use crate::client::{BaselineClient, RouteTable};
use crate::group::{BMsg, GroupParams, GroupReplica, PassiveReplica};
use crate::rc::{RcCoordinator, RcMember};
use sharper_common::{ClientId, ClusterId, CostModel, FailureModel, LatencyModel, NodeId, SimTime};
use sharper_net::{
    Actor, ActorId, Context, FaultPlan, LatencySummary, Simulation, StatsHandle, TimerId, Topology,
};
use sharper_state::{Executor, Partitioner, Transaction};
use std::collections::{BTreeMap, HashMap};

/// Which baseline system to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// Active/passive replication over Paxos (crash-only).
    AprC,
    /// Active/passive replication over a PBFT-style protocol (Byzantine).
    AprB,
    /// Fast Paxos with `3f+1` active replicas (crash-only).
    FPaxos,
    /// Fast Byzantine consensus with `5f+1` active replicas.
    FaB,
    /// AHL with crash-only clusters (reference committee + Paxos clusters).
    AhlC,
    /// AHL with Byzantine clusters.
    AhlB,
}

impl BaselineKind {
    /// The failure model this baseline runs under.
    pub fn failure_model(self) -> FailureModel {
        match self {
            BaselineKind::AprC | BaselineKind::FPaxos | BaselineKind::AhlC => FailureModel::Crash,
            BaselineKind::AprB | BaselineKind::FaB | BaselineKind::AhlB => FailureModel::Byzantine,
        }
    }

    /// Whether the baseline shards the data.
    pub fn is_sharded(self) -> bool {
        matches!(self, BaselineKind::AhlC | BaselineKind::AhlB)
    }

    /// Short label used in reports and figures.
    pub fn label(self) -> &'static str {
        match self {
            BaselineKind::AprC => "APR-C",
            BaselineKind::AprB => "APR-B",
            BaselineKind::FPaxos => "FPaxos",
            BaselineKind::FaB => "FaB",
            BaselineKind::AhlC => "AHL-C",
            BaselineKind::AhlB => "AHL-B",
        }
    }
}

/// Parameters of a baseline deployment.
#[derive(Debug, Clone)]
pub struct BaselineParams {
    /// Which system to build.
    pub kind: BaselineKind,
    /// Number of shards/clusters (only meaningful for AHL; the non-sharded
    /// baselines treat the whole database as one shard but still accept the
    /// same workload, whose "cross-shard" transactions are simply ordinary
    /// transactions for them).
    pub clusters: usize,
    /// Fault budget.
    pub f: usize,
    /// Total number of nodes to deploy (actives + passives); AHL adds its
    /// reference committee on top of `clusters × cluster size`.
    pub total_nodes: usize,
    /// Accounts per shard (matching the workload generator).
    pub accounts_per_shard: u64,
    /// Initial balance per account.
    pub initial_balance: u64,
    /// CPU cost model.
    pub cost: CostModel,
    /// Latency model.
    pub latency: LatencyModel,
    /// Fault plan.
    pub faults: FaultPlan,
    /// Simulation seed.
    pub seed: u64,
    /// Warm-up excluded from the steady-state summary.
    pub warmup: SimTime,
}

impl BaselineParams {
    /// The deployments used in the paper: 12 crash-only nodes (Fig. 6) or 16
    /// Byzantine nodes (Fig. 7), `f = 1`, four shards for the AHL variants.
    pub fn paper(kind: BaselineKind) -> Self {
        let (clusters, total_nodes) = match kind.failure_model() {
            FailureModel::Crash => (4, 12),
            FailureModel::Byzantine => (4, 16),
        };
        Self {
            kind,
            clusters,
            f: 1,
            total_nodes,
            accounts_per_shard: 10_000,
            initial_balance: 1_000_000,
            cost: CostModel::default(),
            latency: LatencyModel::default(),
            faults: FaultPlan::none(),
            seed: 42,
            warmup: SimTime::from_millis(500),
        }
    }
}

/// The actor type of a baseline simulation. As with `SharperActor`, actors
/// are stored once and never copied, so the variant size gap is harmless.
#[allow(clippy::large_enum_variant)]
pub enum BaselineActor {
    /// A member of a consensus group (active replica or AHL cluster replica).
    Group(GroupReplica),
    /// A passive replica.
    Passive(PassiveReplica),
    /// The AHL reference-committee coordinator.
    Coordinator(RcCoordinator),
    /// An AHL reference-committee member.
    Member(RcMember),
    /// A client.
    Client(BaselineClient),
}

impl Actor<BMsg> for BaselineActor {
    fn id(&self) -> ActorId {
        match self {
            BaselineActor::Group(a) => a.id(),
            BaselineActor::Passive(a) => a.id(),
            BaselineActor::Coordinator(a) => a.id(),
            BaselineActor::Member(a) => a.id(),
            BaselineActor::Client(a) => a.id(),
        }
    }
    fn on_start(&mut self, ctx: &mut Context<BMsg>) {
        match self {
            BaselineActor::Group(a) => a.on_start(ctx),
            BaselineActor::Passive(a) => a.on_start(ctx),
            BaselineActor::Coordinator(a) => a.on_start(ctx),
            BaselineActor::Member(a) => a.on_start(ctx),
            BaselineActor::Client(a) => a.on_start(ctx),
        }
    }
    fn on_message(&mut self, from: ActorId, msg: BMsg, ctx: &mut Context<BMsg>) {
        match self {
            BaselineActor::Group(a) => a.on_message(from, msg, ctx),
            BaselineActor::Passive(a) => a.on_message(from, msg, ctx),
            BaselineActor::Coordinator(a) => a.on_message(from, msg, ctx),
            BaselineActor::Member(a) => a.on_message(from, msg, ctx),
            BaselineActor::Client(a) => a.on_message(from, msg, ctx),
        }
    }
    fn on_timer(&mut self, timer: TimerId, tag: u64, ctx: &mut Context<BMsg>) {
        match self {
            BaselineActor::Group(a) => a.on_timer(timer, tag, ctx),
            BaselineActor::Passive(a) => a.on_timer(timer, tag, ctx),
            BaselineActor::Coordinator(a) => a.on_timer(timer, tag, ctx),
            BaselineActor::Member(a) => a.on_timer(timer, tag, ctx),
            BaselineActor::Client(a) => a.on_timer(timer, tag, ctx),
        }
    }
}

/// Results of a baseline run.
#[derive(Debug, Clone)]
pub struct BaselineReport {
    /// Steady-state throughput/latency summary.
    pub summary: LatencySummary,
    /// Transactions completed by the clients.
    pub client_completed: usize,
    /// Cross-shard transactions handled by the reference committee (AHL).
    pub rc_completed: usize,
}

/// An assembled baseline deployment.
pub struct BaselineSystem {
    params: BaselineParams,
    sim: Simulation<BMsg, BaselineActor>,
    stats: StatsHandle,
}

impl BaselineSystem {
    /// Builds the deployment with `num_clients` closed-loop clients whose
    /// workloads come from `workload_for`.
    pub fn build<W, I>(params: BaselineParams, num_clients: usize, mut workload_for: W) -> Self
    where
        W: FnMut(ClientId) -> I,
        I: Iterator<Item = Transaction> + Send + 'static,
    {
        let model = params.kind.failure_model();
        let cost = params.cost;
        let stats = StatsHandle::with_warmup(params.warmup);
        // The workload is always generated against `clusters` shards so that
        // the same transaction mix is offered to every system; the partitioner
        // used by the replicas depends on whether the baseline shards data.
        let workload_partitioner =
            Partitioner::range(params.clusters as u32, params.accounts_per_shard);
        let mut topology = Topology::default();
        let mut actors: Vec<BaselineActor> = Vec::new();
        let mut route = RouteTable {
            partitioner: workload_partitioner.clone(),
            cluster_primaries: BTreeMap::new(),
            reference_committee: None,
            fast_multicast: None,
        };
        let required_replies;

        if params.kind.is_sharded() {
            // --- AHL: one group per shard + reference committee -----------
            let cluster_size = model.cluster_size(params.f);
            let quorum = model.quorum(params.f);
            let mut node_cluster = HashMap::new();
            let mut next = 0u32;
            for shard in 0..params.clusters as u32 {
                let members: Vec<NodeId> = (0..cluster_size)
                    .map(|_| {
                        let id = NodeId(next);
                        next += 1;
                        id
                    })
                    .collect();
                for &m in &members {
                    topology.add_node(m, ClusterId(shard));
                    node_cluster.insert(m, ClusterId(shard));
                }
                route.cluster_primaries.insert(ClusterId(shard), members[0]);
                let gp = GroupParams {
                    shard: ClusterId(shard),
                    members: members.clone(),
                    quorum,
                    fast: false,
                    all_reply: false,
                    signed: model.requires_signatures(),
                    passives: vec![],
                    failure_model: model,
                    cost,
                };
                for &m in &members {
                    let executor = Executor::new(ClusterId(shard), workload_partitioner.clone());
                    let store = executor.genesis_store(
                        params.accounts_per_shard,
                        params.initial_balance,
                        ClientId,
                    );
                    actors.push(BaselineActor::Group(GroupReplica::new(
                        m,
                        gp.clone(),
                        workload_partitioner.clone(),
                        store,
                    )));
                }
            }
            // Reference committee (its own "cluster" for latency purposes).
            let rc_size = model.cluster_size(params.f);
            let rc_members: Vec<NodeId> = (0..rc_size)
                .map(|_| {
                    let id = NodeId(next);
                    next += 1;
                    id
                })
                .collect();
            let rc_cluster = ClusterId(params.clusters as u32);
            for &m in &rc_members {
                topology.add_node(m, rc_cluster);
            }
            let coordinator = rc_members[0];
            route.reference_committee = Some(coordinator);
            actors.push(BaselineActor::Coordinator(RcCoordinator::new(
                coordinator,
                rc_members.clone(),
                model.quorum(params.f),
                route.cluster_primaries.clone(),
                node_cluster,
                workload_partitioner.clone(),
                cost,
                model,
            )));
            for &m in &rc_members[1..] {
                actors.push(BaselineActor::Member(RcMember::new(
                    m,
                    coordinator,
                    cost,
                    model,
                )));
            }
            required_replies = 1;
        } else {
            // --- APR / FPaxos / FaB: one active group + passive replicas --
            let (active, quorum, fast) = match params.kind {
                BaselineKind::AprC => (2 * params.f + 1, params.f + 1, false),
                BaselineKind::AprB => (3 * params.f + 1, 2 * params.f + 1, false),
                BaselineKind::FPaxos => (3 * params.f + 1, 2 * params.f + 1, true),
                BaselineKind::FaB => (5 * params.f + 1, 4 * params.f + 1, true),
                _ => unreachable!("sharded kinds handled above"),
            };
            let members: Vec<NodeId> = (0..active as u32).map(NodeId).collect();
            let passives: Vec<NodeId> = (active as u32..params.total_nodes.max(active) as u32)
                .map(NodeId)
                .collect();
            for &m in members.iter().chain(passives.iter()) {
                topology.add_node(m, ClusterId(0));
            }
            route.cluster_primaries.insert(ClusterId(0), members[0]);
            if fast {
                route.fast_multicast = Some(members.clone());
            }
            let all_reply = model.requires_signatures();
            required_replies = if all_reply { params.f + 1 } else { 1 };
            // A single shard covering every account: the partitioner maps all
            // accounts of the workload onto shard 0.
            let store_partitioner = Partitioner::hashed(1);
            let gp = GroupParams {
                shard: ClusterId(0),
                members: members.clone(),
                quorum,
                fast,
                all_reply,
                signed: model.requires_signatures(),
                passives: passives.clone(),
                failure_model: model,
                cost,
            };
            let executor = Executor::new(ClusterId(0), store_partitioner.clone());
            let full_accounts = params.accounts_per_shard * params.clusters as u64;
            let full_store =
                executor.genesis_store(full_accounts, params.initial_balance, ClientId);
            for &m in &members {
                actors.push(BaselineActor::Group(GroupReplica::new(
                    m,
                    gp.clone(),
                    store_partitioner.clone(),
                    full_store.clone(),
                )));
            }
            for &p in &passives {
                actors.push(BaselineActor::Passive(PassiveReplica::new(
                    p,
                    ClusterId(0),
                    store_partitioner.clone(),
                    full_store.clone(),
                    cost,
                    model,
                )));
            }
        }

        // Clients.
        for c in 0..num_clients {
            let client = ClientId(c as u64);
            topology.add_client(client, ClusterId((c % params.clusters.max(1)) as u32));
            actors.push(BaselineActor::Client(BaselineClient::new(
                client,
                route.clone(),
                required_replies,
                workload_for(client),
                stats.clone(),
                cost,
            )));
        }

        let mut sim = Simulation::new(topology, params.latency, params.faults.clone(), params.seed);
        for actor in actors {
            sim.add_actor(actor);
        }
        Self { params, sim, stats }
    }

    /// Runs the deployment and summarises the steady state.
    pub fn run(&mut self, duration: SimTime) -> BaselineReport {
        self.stats.begin_measurement(duration);
        self.sim.run_until(duration);
        let window = duration.saturating_since(self.params.warmup);
        let summary = self.stats.summarize(self.params.warmup, window);
        let mut client_completed = 0;
        let mut rc_completed = 0;
        for actor in self.sim.actors() {
            match actor {
                BaselineActor::Client(c) => client_completed += c.completed(),
                BaselineActor::Coordinator(c) => rc_completed += c.completed(),
                _ => {}
            }
        }
        BaselineReport {
            summary,
            client_completed,
            rc_completed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharper_workload::{WorkloadConfig, WorkloadGenerator};

    fn run(kind: BaselineKind, cross_ratio: f64, clients: usize) -> BaselineReport {
        let mut params = BaselineParams::paper(kind);
        params.accounts_per_shard = 1_000;
        params.warmup = SimTime::from_millis(100);
        let clusters = params.clusters as u32;
        let accounts = params.accounts_per_shard;
        let mut system = BaselineSystem::build(params, clients, |client| {
            let mut cfg = WorkloadConfig::evaluation(clusters, cross_ratio);
            cfg.accounts_per_shard = accounts;
            WorkloadGenerator::new(client, cfg).take(5_000)
        });
        system.run(SimTime::from_secs(2))
    }

    #[test]
    fn apr_c_commits_transactions() {
        let report = run(BaselineKind::AprC, 0.2, 4);
        assert!(report.client_completed > 50, "{report:?}");
        assert!(report.summary.throughput_tps > 0.0);
    }

    #[test]
    fn apr_b_commits_transactions_with_f_plus_one_replies() {
        let report = run(BaselineKind::AprB, 0.2, 4);
        assert!(report.client_completed > 20, "{report:?}");
    }

    #[test]
    fn fpaxos_has_lower_latency_than_apr_c() {
        let fast = run(BaselineKind::FPaxos, 0.0, 4);
        let slow = run(BaselineKind::AprC, 0.0, 4);
        assert!(fast.client_completed > 50);
        assert!(
            fast.summary.mean_latency_ms <= slow.summary.mean_latency_ms * 1.2,
            "fast {:.2}ms vs slow {:.2}ms",
            fast.summary.mean_latency_ms,
            slow.summary.mean_latency_ms
        );
    }

    #[test]
    fn fab_commits_transactions() {
        let report = run(BaselineKind::FaB, 0.5, 4);
        assert!(report.client_completed > 20, "{report:?}");
    }

    #[test]
    fn ahl_c_commits_both_intra_and_cross_shard_transactions() {
        let report = run(BaselineKind::AhlC, 0.3, 6);
        assert!(report.client_completed > 50, "{report:?}");
        assert!(
            report.rc_completed > 0,
            "the reference committee must see cross-shard work"
        );
    }

    #[test]
    fn ahl_b_commits_transactions() {
        let report = run(BaselineKind::AhlB, 0.3, 4);
        assert!(report.client_completed > 10, "{report:?}");
        assert!(report.rc_completed > 0);
    }

    #[test]
    fn cross_shard_ratio_does_not_affect_non_sharded_baselines_much() {
        let low = run(BaselineKind::AprC, 0.0, 4);
        let high = run(BaselineKind::AprC, 1.0, 4);
        let ratio = low.summary.throughput_tps / high.summary.throughput_tps.max(1.0);
        assert!((0.5..=2.0).contains(&ratio), "ratio {ratio}");
    }
}
