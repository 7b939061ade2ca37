//! The AHL reference committee (2PC coordinator over consensus).
//!
//! In AHL \[21\], cross-shard transactions are ordered by a dedicated reference
//! committee using two-phase commit, where *each* 2PC step is itself agreed
//! inside the committee with a fault-tolerant protocol. Because one committee
//! coordinates every cross-shard transaction, they are processed one at a
//! time — which is exactly why AHL cannot commit cross-shard transactions
//! over non-overlapping clusters in parallel (§5 of the SharPer paper).
//!
//! The [`RcCoordinator`] is the committee's primary; [`RcMember`]s are the
//! other committee replicas, which acknowledge each step (standing in for the
//! committee-internal consensus round while charging its CPU and latency
//! cost).

use crate::group::{ActorIdWire, BMsg};
use sharper_common::{ClusterId, CostModel, FailureModel, NodeId, TxId};
use sharper_crypto::Digest;
use sharper_net::{Actor, ActorId, Context};
use sharper_state::{Partitioner, Transaction};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Phases of the coordinator's state machine for one cross-shard transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Committee consensus on "prepare".
    RcPrepare,
    /// Waiting for the involved clusters to order/lock the transaction.
    ClusterVotes,
    /// Committee consensus on the commit decision.
    RcDecide,
}

#[derive(Debug)]
struct InFlight {
    tx: Arc<Transaction>,
    client: ActorId,
    involved: Vec<ClusterId>,
    phase: Phase,
    rc_acks: BTreeSet<NodeId>,
    cluster_votes: BTreeSet<ClusterId>,
}

/// The reference-committee coordinator (its primary member).
pub struct RcCoordinator {
    node: NodeId,
    members: Vec<NodeId>,
    quorum: usize,
    cluster_primaries: BTreeMap<ClusterId, NodeId>,
    node_cluster: HashMap<NodeId, ClusterId>,
    partitioner: Partitioner,
    cost: CostModel,
    failure_model: FailureModel,
    signed: bool,
    queue: VecDeque<(Arc<Transaction>, ActorId)>,
    current: Option<InFlight>,
    /// Every transaction ever queued: a client retransmission of one that
    /// is still queued or in flight is dropped, not coordinated twice.
    admitted: HashSet<TxId>,
    /// Transactions the committee has committed: a retransmission of one is
    /// answered with its reply again, without a second 2PC.
    finished: HashSet<TxId>,
    /// Number of cross-shard transactions fully committed.
    completed: usize,
    /// Largest queue length observed (a bottleneck indicator).
    peak_queue: usize,
}

impl RcCoordinator {
    /// Creates the coordinator.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        node: NodeId,
        members: Vec<NodeId>,
        quorum: usize,
        cluster_primaries: BTreeMap<ClusterId, NodeId>,
        node_cluster: HashMap<NodeId, ClusterId>,
        partitioner: Partitioner,
        cost: CostModel,
        failure_model: FailureModel,
    ) -> Self {
        let signed = failure_model.requires_signatures();
        Self {
            node,
            members,
            quorum,
            cluster_primaries,
            node_cluster,
            partitioner,
            cost,
            failure_model,
            signed,
            queue: VecDeque::new(),
            current: None,
            admitted: HashSet::new(),
            finished: HashSet::new(),
            completed: 0,
            peak_queue: 0,
        }
    }

    /// Number of cross-shard transactions committed through the committee.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Largest backlog of cross-shard transactions observed.
    pub fn peak_queue(&self) -> usize {
        self.peak_queue
    }

    fn charge(&self, ctx: &mut Context<BMsg>, verify: usize, sign: usize) {
        let (v, s) = if self.signed { (verify, sign) } else { (0, 0) };
        ctx.charge(self.cost.protocol_message(self.failure_model, v, s));
    }

    fn other_members(&self) -> Vec<ActorId> {
        self.members
            .iter()
            .filter(|n| **n != self.node)
            .map(|n| ActorId::Node(*n))
            .collect()
    }

    fn start_next(&mut self, ctx: &mut Context<BMsg>) {
        if self.current.is_some() {
            return;
        }
        let Some((tx, client)) = self.queue.pop_front() else {
            return;
        };
        let involved = tx.involved_clusters(&self.partitioner);
        let d = tx.digest();
        self.current = Some(InFlight {
            tx,
            client,
            involved,
            phase: Phase::RcPrepare,
            rc_acks: BTreeSet::new(),
            cluster_votes: BTreeSet::new(),
        });
        // Committee-internal consensus round #1 (prepare).
        self.charge(ctx, 0, 1);
        ctx.multicast(self.other_members(), BMsg::RcStep { phase: 1, d });
        // A committee of one (degenerate test configurations) skips straight
        // through; the ack handler below tolerates the empty-member case.
        self.maybe_advance(d, ctx);
    }

    fn maybe_advance(&mut self, d: Digest, ctx: &mut Context<BMsg>) {
        // Decide what to do while borrowing the in-flight record, then act
        // after releasing the borrow.
        enum Action {
            Nothing,
            SendClusterRequests(Arc<Transaction>, Vec<ClusterId>),
            StartDecide,
            Finish(ActorId, TxId),
        }
        let action = {
            let Some(current) = self.current.as_mut() else {
                return;
            };
            if current.tx.digest() != d {
                return;
            }
            match current.phase {
                Phase::RcPrepare => {
                    // The coordinator's own vote counts towards the quorum.
                    if current.rc_acks.len() + 1 < self.quorum {
                        Action::Nothing
                    } else {
                        current.phase = Phase::ClusterVotes;
                        current.rc_acks.clear();
                        Action::SendClusterRequests(
                            Arc::clone(&current.tx),
                            current.involved.clone(),
                        )
                    }
                }
                Phase::ClusterVotes => {
                    if current.cluster_votes.len() < current.involved.len() {
                        Action::Nothing
                    } else {
                        current.phase = Phase::RcDecide;
                        Action::StartDecide
                    }
                }
                Phase::RcDecide => {
                    if current.rc_acks.len() + 1 < self.quorum {
                        Action::Nothing
                    } else {
                        Action::Finish(current.client, current.tx.id)
                    }
                }
            }
        };
        match action {
            Action::Nothing => {}
            Action::SendClusterRequests(tx, involved) => {
                // Hand the transaction to every involved cluster; each cluster
                // orders it with its intra-shard protocol and replies here.
                for cluster in involved {
                    let primary = self.cluster_primaries[&cluster];
                    ctx.send(
                        ActorId::Node(primary),
                        BMsg::Request {
                            tx: Arc::clone(&tx),
                            reply_to: ActorIdWire::Node(self.node.0),
                        },
                    );
                }
            }
            Action::StartDecide => {
                // Committee-internal consensus round #2 (decision).
                self.charge(ctx, 0, 1);
                ctx.multicast(self.other_members(), BMsg::RcStep { phase: 2, d });
                // Degenerate single-member committees advance immediately.
                self.maybe_advance(d, ctx);
            }
            Action::Finish(client, tx_id) => {
                self.current = None;
                self.completed += 1;
                self.finished.insert(tx_id);
                ctx.send(
                    client,
                    BMsg::Reply {
                        tx: tx_id,
                        node: self.node,
                    },
                );
                self.start_next(ctx);
            }
        }
    }
}

impl Actor<BMsg> for RcCoordinator {
    fn id(&self) -> ActorId {
        ActorId::Node(self.node)
    }

    fn on_message(&mut self, from: ActorId, msg: BMsg, ctx: &mut Context<BMsg>) {
        self.charge(ctx, 1, 0);
        match msg {
            BMsg::Request { tx, reply_to } => {
                if self.finished.contains(&tx.id) {
                    let reply = BMsg::Reply {
                        tx: tx.id,
                        node: self.node,
                    };
                    ctx.send(ActorId::from(reply_to), reply);
                } else if self.admitted.insert(tx.id) {
                    self.queue.push_back((tx, reply_to.into()));
                    self.peak_queue = self.peak_queue.max(self.queue.len());
                    self.start_next(ctx);
                }
            }
            BMsg::RcAck { phase: _, d, node } => {
                if let Some(current) = self.current.as_mut() {
                    if current.tx.digest() == d {
                        current.rc_acks.insert(node);
                    }
                }
                self.maybe_advance(d, ctx);
            }
            BMsg::Reply { tx, node } => {
                // A vote from one of the involved clusters' replicas.
                let Some(cluster) = self.node_cluster.get(&node).copied() else {
                    return;
                };
                if let Some(current) = self.current.as_mut() {
                    if current.tx.id == tx {
                        current.cluster_votes.insert(cluster);
                        let d = current.tx.digest();
                        self.maybe_advance(d, ctx);
                    }
                }
            }
            _ => {}
        }
        let _ = from;
    }

    fn on_timer(&mut self, _t: sharper_net::TimerId, _tag: u64, _ctx: &mut Context<BMsg>) {}
}

/// An ordinary member of the reference committee: it acknowledges each 2PC
/// step, standing in for its participation in the committee-internal
/// consensus while charging the corresponding CPU cost.
pub struct RcMember {
    node: NodeId,
    coordinator: NodeId,
    cost: CostModel,
    failure_model: FailureModel,
    acked: usize,
}

impl RcMember {
    /// Creates a committee member.
    pub fn new(
        node: NodeId,
        coordinator: NodeId,
        cost: CostModel,
        failure_model: FailureModel,
    ) -> Self {
        Self {
            node,
            coordinator,
            cost,
            failure_model,
            acked: 0,
        }
    }

    /// Number of steps acknowledged.
    pub fn acked(&self) -> usize {
        self.acked
    }
}

impl Actor<BMsg> for RcMember {
    fn id(&self) -> ActorId {
        ActorId::Node(self.node)
    }

    fn on_message(&mut self, _from: ActorId, msg: BMsg, ctx: &mut Context<BMsg>) {
        if let BMsg::RcStep { phase, d } = msg {
            let signed = self.failure_model.requires_signatures();
            let (v, s) = if signed { (1, 1) } else { (0, 0) };
            ctx.charge(self.cost.protocol_message(self.failure_model, v, s));
            self.acked += 1;
            ctx.send(
                ActorId::Node(self.coordinator),
                BMsg::RcAck {
                    phase,
                    d,
                    node: self.node,
                },
            );
        }
    }

    fn on_timer(&mut self, _t: sharper_net::TimerId, _tag: u64, _ctx: &mut Context<BMsg>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharper_common::{AccountId, ClientId, SimTime};

    /// A coordinator (node 6) with committee members 7 and 8 over two
    /// single-node clusters: node 0 serves shard 0, node 3 shard 1.
    fn coordinator() -> RcCoordinator {
        RcCoordinator::new(
            NodeId(6),
            vec![NodeId(6), NodeId(7), NodeId(8)],
            2,
            [(ClusterId(0), NodeId(0)), (ClusterId(1), NodeId(3))].into(),
            [(NodeId(0), ClusterId(0)), (NodeId(3), ClusterId(1))].into(),
            Partitioner::range(2, 100),
            CostModel::default(),
            FailureModel::Crash,
        )
    }

    fn deliver(rc: &mut RcCoordinator, from: ActorId, msg: BMsg) -> Vec<(ActorId, BMsg)> {
        let mut ctx = Context::detached(SimTime::ZERO, rc.id());
        rc.on_message(from, msg, &mut ctx);
        ctx.take_outbox()
    }

    fn phase_one_steps(out: &[(ActorId, BMsg)]) -> usize {
        out.iter()
            .filter(|(_, m)| matches!(m, BMsg::RcStep { phase: 1, .. }))
            .count()
    }

    #[test]
    fn retransmitted_request_runs_one_two_phase_commit() {
        let mut rc = coordinator();
        let client = ActorId::Client(ClientId(1));
        let tx = Arc::new(Transaction::transfer(
            ClientId(1),
            0,
            AccountId(1),
            AccountId(150),
            1,
        ));
        let d = tx.digest();
        let request = || BMsg::Request {
            tx: Arc::clone(&tx),
            reply_to: ActorIdWire::Client(1),
        };
        let mut sent = deliver(&mut rc, client, request());
        assert_eq!(phase_one_steps(&sent), 2, "one multicast to both members");
        let retransmit = deliver(&mut rc, client, request());
        assert!(retransmit.is_empty(), "an in-flight duplicate is dropped");

        // Drive the 2PC to its end: committee prepare, both cluster votes,
        // committee decision.
        let ack = |phase, node| BMsg::RcAck {
            phase,
            d,
            node: NodeId(node),
        };
        let vote = |node| BMsg::Reply {
            tx: tx.id,
            node: NodeId(node),
        };
        sent.extend(deliver(&mut rc, ActorId::Node(NodeId(7)), ack(1, 7)));
        sent.extend(deliver(&mut rc, ActorId::Node(NodeId(0)), vote(0)));
        sent.extend(deliver(&mut rc, ActorId::Node(NodeId(3)), vote(3)));
        sent.extend(deliver(&mut rc, ActorId::Node(NodeId(7)), ack(2, 7)));
        assert!(sent.iter().any(|(to, _)| *to == client));
        assert_eq!(phase_one_steps(&sent), 2, "no second 2PC starts");

        // A retransmission after the commit is answered, not re-run.
        let late = deliver(&mut rc, client, request());
        assert!(matches!(
            late.as_slice(),
            [(to, BMsg::Reply { tx: id, node: NodeId(6) })] if *to == client && *id == tx.id
        ));
        assert_eq!(rc.completed(), 1);
    }
}
