//! The host-side layer replay: each layer's public function called on the
//! workload's own generated transactions, at the workload's batch size and
//! ledger policy, timed by the benchmark's own spans.
//!
//! The simulator prices simulated time from `CostModel` constants, so these
//! timings can only move the host metrics; each row names the constant it
//! stands for so the measured/modelled ratio shows how far the model is
//! from the code.

use crate::{deployment_seed, median, Metric, Workload, ACCOUNTS_PER_SHARD, CLUSTERS};
use sharper_common::{ClientId, ClusterId, CostModel, SimTime, SystemConfig};
use sharper_consensus::replica::node_signer_id;
use sharper_consensus::Mempool;
use sharper_crypto::{merkle_root, Digest, KeyRegistry, Sha256, Signature};
use sharper_ledger::{Batch, Block, LedgerView};
use sharper_net::{Actor, ActorId, Context, FaultPlan, Simulation, TimerId, Topology};
use sharper_state::{ExecutionOutcome, Executor, Partitioner, Transaction};
use sharper_workload::WorkloadGenerator;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Transactions generated for the replay (spread over the workload's
/// clients in submission order).
const REPLAY_TXS: usize = 8_192;
/// Round trips each client makes in the DES dispatch replay.
const DISPATCH_ROUND_TRIPS: usize = 200;
/// The replay repeats every measurement at least this many rounds and
/// reports the median round.
const MIN_ROUNDS: usize = 3;

/// The replayed host metric names and units, in report order.
const METRICS: [(&str, &str); 9] = [
    ("network.dispatch_ns_per_event", "ns"),
    ("crypto.sha256_ns_per_kib", "ns/KiB"),
    ("crypto.sign_ns", "ns"),
    ("crypto.verify_ns", "ns"),
    ("crypto.merkle_root_ns_per_batch", "ns"),
    ("state.apply_ns_per_tx", "ns"),
    ("ledger.append_ns_per_block", "ns"),
    ("consensus.mempool_ns_per_tx", "ns"),
    ("workload.gen_ns_per_tx", "ns"),
];

/// One replayed host metric with the `CostModel` constant (name, µs) it
/// stands for, if any.
pub struct Replayed {
    /// The measured metric.
    pub metric: Metric,
    /// The constant the model charges for this work.
    pub model: Option<(&'static str, u64)>,
}

/// The workload's inputs, grouped the way its primaries would batch them.
struct Inputs {
    txs: Vec<Arc<Transaction>>,
    /// Batches of at most the workload's batch size, each over one
    /// involved-cluster set.
    batches: Vec<(Vec<ClusterId>, Vec<Arc<Transaction>>)>,
}

/// The workload's first transactions for `seed`, interleaved over its
/// clients in submission order.
fn generate(workload: Workload, seed: u64) -> Vec<Transaction> {
    let cfg = workload.workload_config(deployment_seed(seed, 0));
    let clients = workload.clients();
    let mut generators: Vec<WorkloadGenerator> = (0..clients)
        .map(|c| WorkloadGenerator::new(ClientId(c as u64), cfg))
        .collect();
    let mut txs = Vec::with_capacity(REPLAY_TXS.next_multiple_of(clients));
    while txs.len() < REPLAY_TXS {
        txs.extend(
            generators
                .iter_mut()
                .map(WorkloadGenerator::next_transaction),
        );
    }
    txs
}

fn inputs(workload: Workload, seed: u64) -> Inputs {
    let txs: Vec<Arc<Transaction>> = generate(workload, seed).into_iter().map(Arc::new).collect();
    let partitioner = Partitioner::range(CLUSTERS as u32, ACCOUNTS_PER_SHARD);
    let mut open: BTreeMap<Vec<ClusterId>, Vec<Arc<Transaction>>> = BTreeMap::new();
    let mut batches = Vec::new();
    for tx in &txs {
        let set = tx.involved_clusters(&partitioner);
        let pending = open.entry(set.clone()).or_default();
        pending.push(Arc::clone(tx));
        if pending.len() == workload.batch_size() {
            batches.push((set, std::mem::take(pending)));
        }
    }
    batches.extend(open.into_iter().filter(|(_, b)| !b.is_empty()));
    Inputs { txs, batches }
}

/// Runs the replay until `deadline` (at least [`MIN_ROUNDS`] rounds) and
/// returns every host metric.
pub fn measure(workload: Workload, seed: u64, deadline: Instant) -> Result<Vec<Replayed>, String> {
    let input = inputs(workload, seed);
    let bytes: Vec<Vec<u8>> = input.txs.iter().map(|t| t.canonical_bytes()).collect();
    let stream: Vec<u8> = bytes.concat();
    let leaves: Vec<Vec<Digest>> = input
        .batches
        .iter()
        .map(|(_, b)| b.iter().map(|t| t.digest()).collect())
        .collect();
    let signer_id = node_signer_id(sharper_common::NodeId(0));
    let (registry, signers) = KeyRegistry::generate(seed, [signer_id]);
    let signer = &signers[0];
    let sigs: Vec<Signature> = bytes.iter().map(|b| signer.sign(b)).collect();

    let mut rounds: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut record = |name: &'static str, ns: f64| rounds.entry(name).or_default().push(ns);
    let mut done = 0;
    while done < MIN_ROUNDS || Instant::now() < deadline {
        let t = Instant::now();
        let generated = black_box(generate(workload, seed)).len();
        record("workload.gen_ns_per_tx", per(t, generated as f64));

        let kib = stream.chunks_exact(1024);
        let chunks = kib.len().max(1) as f64;
        let t = Instant::now();
        for chunk in kib {
            black_box(Sha256::digest(black_box(chunk)));
        }
        record("crypto.sha256_ns_per_kib", per(t, chunks));

        let t = Instant::now();
        for b in &bytes {
            black_box(signer.sign(black_box(b)));
        }
        record("crypto.sign_ns", per(t, bytes.len() as f64));

        let t = Instant::now();
        let valid = bytes
            .iter()
            .zip(&sigs)
            .filter(|(b, s)| registry.verify(black_box(b), s))
            .count();
        record("crypto.verify_ns", per(t, bytes.len() as f64));
        if valid != bytes.len() {
            return Err(format!(
                "replay: {} of {} signatures failed to verify",
                bytes.len() - valid,
                bytes.len()
            ));
        }

        let t = Instant::now();
        for l in &leaves {
            black_box(merkle_root(black_box(l)));
        }
        record(
            "crypto.merkle_root_ns_per_batch",
            per(t, leaves.len() as f64),
        );

        record("state.apply_ns_per_tx", apply_ns_per_tx(&input)?);
        record(
            "ledger.append_ns_per_block",
            append_ns_per_block(workload, &input)?,
        );
        record("consensus.mempool_ns_per_tx", mempool_ns_per_tx(&input));
        record(
            "network.dispatch_ns_per_event",
            dispatch_ns_per_event(workload, &input, seed),
        );
        done += 1;
    }

    let cost = CostModel::default();
    Ok(METRICS
        .into_iter()
        .map(|(name, unit)| Replayed {
            metric: Metric {
                name,
                unit,
                value: median(&rounds[name]),
            },
            model: modelled(&cost, name),
        })
        .collect())
}

/// The `CostModel` constant (name, µs) a replayed metric stands for.
fn modelled(cost: &CostModel, name: &str) -> Option<(&'static str, u64)> {
    match name {
        "network.dispatch_ns_per_event" => Some(("message_handling_us", cost.message_handling_us)),
        "crypto.sha256_ns_per_kib" => Some(("digest_us", cost.digest_us)),
        "crypto.sign_ns" => Some(("sign_us", cost.sign_us)),
        "crypto.verify_ns" => Some(("verify_us", cost.verify_us)),
        "state.apply_ns_per_tx" => Some(("execute_us", cost.execute_us)),
        _ => None,
    }
}

fn per(started: Instant, ops: f64) -> f64 {
    started.elapsed().as_nanos() as f64 / ops
}

/// `Executor::apply_batch` on every shard a batch touches, from a genesis
/// store; every application must succeed.
fn apply_ns_per_tx(input: &Inputs) -> Result<f64, String> {
    let partitioner = Partitioner::range(CLUSTERS as u32, ACCOUNTS_PER_SHARD);
    let mut shards: Vec<_> = (0..CLUSTERS as u32)
        .map(|s| {
            let executor = Executor::new(ClusterId(s), partitioner.clone());
            let store = executor.genesis_store(ACCOUNTS_PER_SHARD, 1_000_000, ClientId);
            (executor, store)
        })
        .collect();
    let (mut applied, mut elapsed) = (0usize, 0u128);
    for (set, batch) in &input.batches {
        for cluster in set {
            let (executor, store) = &mut shards[cluster.0 as usize];
            let t = Instant::now();
            let outcomes = executor.apply_batch(store, batch);
            elapsed += t.elapsed().as_nanos();
            if outcomes.iter().any(|o| *o != ExecutionOutcome::Applied) {
                return Err(format!("replay: a batch did not apply on {cluster}"));
            }
            applied += outcomes.len();
        }
    }
    Ok(elapsed as f64 / applied as f64)
}

/// `LedgerView::append` plus the workload's checkpoint policy, per shard
/// chain; blocks are built before timing.
fn append_ns_per_block(workload: Workload, input: &Inputs) -> Result<f64, String> {
    let ledger = workload.ledger();
    let (mut blocks, mut elapsed) = (0usize, 0u128);
    for s in 0..CLUSTERS as u32 {
        let cluster = ClusterId(s);
        let mut view = LedgerView::new(cluster);
        let mut head = view.head();
        let chain: Vec<Block> = input
            .batches
            .iter()
            .filter(|(set, _)| set.contains(&cluster))
            .map(|(_, batch)| {
                let block =
                    Block::batch(Batch::new(batch.clone()), BTreeMap::from([(cluster, head)]));
                head = block.digest();
                block
            })
            .collect();
        blocks += chain.len();
        let t = Instant::now();
        for block in chain {
            view.append(block).map_err(|e| e.to_string())?;
            view.maybe_checkpoint(&ledger).map_err(|e| e.to_string())?;
        }
        elapsed += t.elapsed().as_nanos();
    }
    Ok(elapsed as f64 / blocks as f64)
}

/// Admitting every transaction into a primary's mempool and popping it in
/// batches, as a primary does.
fn mempool_ns_per_tx(input: &Inputs) -> f64 {
    let mut pool = Mempool::new();
    let t = Instant::now();
    for (i, (set, batch)) in input.batches.iter().enumerate() {
        let now = SimTime::from_micros(i as u64);
        for tx in batch {
            let sig = Signature::unsigned(tx.id.client.0);
            if set.len() > 1 {
                pool.admit_cross(Arc::clone(tx), sig, set.clone(), now);
            } else {
                pool.admit_intra(Arc::clone(tx), sig, now);
            }
        }
        let popped = if set.len() > 1 {
            pool.pop_cross(set, batch.len(), now)
        } else {
            pool.pop_intra(batch.len(), now)
        };
        black_box(popped);
    }
    per(t, input.txs.len() as f64)
}

/// A replica stand-in that answers every request, or a client that sends
/// the workload's transactions to its home cluster's first replica one
/// round trip at a time.
struct Echo {
    id: ActorId,
    target: Option<ActorId>,
    script: Vec<Arc<Transaction>>,
}

impl Actor<Arc<Transaction>> for Echo {
    fn id(&self) -> ActorId {
        self.id
    }

    fn on_start(&mut self, ctx: &mut Context<Arc<Transaction>>) {
        if let (Some(target), Some(tx)) = (self.target, self.script.pop()) {
            ctx.send(target, tx);
        }
    }

    fn on_message(
        &mut self,
        from: ActorId,
        msg: Arc<Transaction>,
        ctx: &mut Context<Arc<Transaction>>,
    ) {
        match self.target {
            None => ctx.send(from, msg),
            Some(target) => {
                if let Some(tx) = self.script.pop() {
                    ctx.send(target, tx);
                }
            }
        }
    }

    fn on_timer(&mut self, _: TimerId, _: u64, _: &mut Context<Arc<Transaction>>) {}
}

/// Pure DES dispatch on the workload's topology and client count: echo
/// actors that do no work, so the time is the engine's own.
fn dispatch_ns_per_event(workload: Workload, input: &Inputs, seed: u64) -> f64 {
    let params = workload.params(seed, false);
    let system = SystemConfig::uniform(params.failure_model, CLUSTERS, params.f)
        .expect("valid uniform configuration");
    let mut topology = Topology::from_config(&system);
    let clients = workload.clients();
    for c in 0..clients {
        topology.add_client(ClientId(c as u64), ClusterId((c % CLUSTERS) as u32));
    }
    let mut sim: Simulation<Arc<Transaction>, Echo> =
        Simulation::new(topology, params.latency, FaultPlan::none(), seed);
    for node in system.node_ids() {
        sim.add_actor(Echo {
            id: ActorId::Node(node),
            target: None,
            script: Vec::new(),
        });
    }
    for c in 0..clients {
        let home = ClusterId((c % CLUSTERS) as u32);
        let target = system.members(home).expect("home cluster exists")[0];
        sim.add_actor(Echo {
            id: ActorId::Client(ClientId(c as u64)),
            target: Some(ActorId::Node(target)),
            script: input
                .txs
                .iter()
                .cycle()
                .skip(c)
                .step_by(clients)
                .take(DISPATCH_ROUND_TRIPS)
                .cloned()
                .collect(),
        });
    }
    let t = Instant::now();
    let report = sim.run_to_quiescence(usize::MAX);
    per(t, (report.delivered + report.timers_fired) as f64)
}
