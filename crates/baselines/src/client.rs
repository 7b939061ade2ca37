//! The closed-loop client used by the baseline systems: the shared
//! [`ClosedLoop`] driver with one outstanding request, plus the baselines'
//! routing and request encoding.

use crate::group::{ActorIdWire, BMsg};
use sharper_common::{ClientId, ClusterId, CostModel, NodeId};
use sharper_net::{Actor, ActorId, ClosedLoop, Context, StatsHandle, TimerId};
use sharper_state::{Partitioner, Transaction};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Where a baseline client sends its requests.
#[derive(Debug, Clone)]
pub struct RouteTable {
    /// The partitioner the workload was generated against.
    pub partitioner: Partitioner,
    /// The primary of each shard's consensus group (for sharded baselines);
    /// non-sharded baselines have a single entry for shard 0.
    pub cluster_primaries: BTreeMap<ClusterId, NodeId>,
    /// The reference-committee coordinator handling cross-shard transactions
    /// (AHL only).
    pub reference_committee: Option<NodeId>,
    /// All members of the (single) group, used by the fast protocols where
    /// clients multicast their request to every member.
    pub fast_multicast: Option<Vec<NodeId>>,
}

impl RouteTable {
    /// Sends `client`'s request for `tx`, on submission and retransmission
    /// alike, and returns whether `tx` is cross-shard. Under the fast
    /// protocols the request goes to every member; an AHL cross-shard
    /// request goes to the reference committee; any other request goes to
    /// the primary of its shard (shard 0 for the non-sharded baselines).
    fn route(
        &self,
        client: ClientId,
        tx: &Arc<Transaction>,
        ctx: &mut Context<BMsg>,
    ) -> (bool, ()) {
        let involved = tx.involved_clusters(&self.partitioner);
        let cross = involved.len() > 1;
        let targets = match (&self.fast_multicast, &self.reference_committee) {
            (Some(members), _) => members.as_slice(),
            (None, Some(rc)) if cross => std::slice::from_ref(rc),
            _ => {
                let shard = involved.first().filter(|_| !cross);
                let primary = shard
                    .and_then(|s| self.cluster_primaries.get(s))
                    .or_else(|| self.cluster_primaries.get(&ClusterId(0)));
                std::slice::from_ref(primary.expect("route table covers the shard"))
            }
        };
        let msg = BMsg::Request {
            tx: Arc::clone(tx),
            reply_to: ActorIdWire::Client(client.0),
        };
        ctx.multicast(targets.iter().map(|n| ActorId::Node(*n)), msg);
        (cross, ())
    }
}

/// A closed-loop baseline client: one outstanding request at a time.
pub struct BaselineClient {
    id: ClientId,
    route: RouteTable,
    required_replies: usize,
    cost: CostModel,
    requests: ClosedLoop<Transaction>,
}

impl BaselineClient {
    /// Creates a baseline client.
    pub fn new(
        id: ClientId,
        route: RouteTable,
        required_replies: usize,
        script: impl Iterator<Item = Transaction> + Send + 'static,
        stats: StatsHandle,
        cost: CostModel,
    ) -> Self {
        Self {
            id,
            route,
            required_replies,
            cost,
            requests: ClosedLoop::new(script, |tx| tx.id, 1, stats),
        }
    }

    /// Number of transactions completed by this client.
    pub fn completed(&self) -> usize {
        self.requests.completed()
    }

    fn fill_window(&mut self, ctx: &mut Context<BMsg>) {
        self.requests.fill_window(ctx, |tx, ctx| {
            ctx.charge(self.cost.client());
            self.route.route(self.id, tx, ctx)
        });
    }
}

impl Actor<BMsg> for BaselineClient {
    fn id(&self) -> ActorId {
        ActorId::Client(self.id)
    }

    fn on_start(&mut self, ctx: &mut Context<BMsg>) {
        self.fill_window(ctx);
    }

    fn on_message(&mut self, _from: ActorId, msg: BMsg, ctx: &mut Context<BMsg>) {
        let BMsg::Reply { tx, node } = msg else {
            return;
        };
        ctx.charge(self.cost.client());
        let quorum = |_: &Transaction| self.required_replies;
        if self.requests.on_reply(tx, node, quorum, ctx).is_some() {
            self.fill_window(ctx);
        }
    }

    fn on_timer(&mut self, timer: TimerId, _tag: u64, ctx: &mut Context<BMsg>) {
        self.requests
            .on_timer(timer, ctx, |tx, ctx| self.route.route(self.id, tx, ctx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharper_common::{AccountId, SimTime, TxId};

    /// A client of a two-shard deployment (accounts 0–99 on shard 0,
    /// 100–199 on shard 1) whose script makes the `(from, to)` transfers.
    fn client(
        route: RouteTable,
        required_replies: usize,
        transfers: &[(u64, u64)],
    ) -> BaselineClient {
        let script: Vec<_> = (0..)
            .zip(transfers)
            .map(|(seq, &(from, to))| {
                Transaction::transfer(ClientId(1), seq, AccountId(from), AccountId(to), 1)
            })
            .collect();
        BaselineClient::new(
            ClientId(1),
            route,
            required_replies,
            script.into_iter(),
            StatsHandle::new(),
            CostModel::default(),
        )
    }

    fn table(reference_committee: Option<u32>, fast: Option<Vec<u32>>) -> RouteTable {
        RouteTable {
            partitioner: Partitioner::range(2, 100),
            cluster_primaries: [(ClusterId(0), NodeId(0)), (ClusterId(1), NodeId(3))].into(),
            reference_committee: reference_committee.map(NodeId),
            fast_multicast: fast.map(|m| m.into_iter().map(NodeId).collect()),
        }
    }

    fn ctx(ms: u64) -> Context<BMsg> {
        Context::detached(SimTime::from_millis(ms), ActorId::Client(ClientId(1)))
    }

    /// The recipients of every request in `ctx`'s outbox.
    fn request_targets(ctx: &mut Context<BMsg>) -> Vec<ActorId> {
        let out = ctx.take_outbox();
        assert!(out.iter().all(|(_, m)| matches!(m, BMsg::Request { .. })));
        out.into_iter().map(|(to, _)| to).collect()
    }

    fn reply(client: &mut BaselineClient, seq: u64, node: u32, ctx: &mut Context<BMsg>) {
        let tx = TxId::new(ClientId(1), seq);
        client.on_message(
            ActorId::Node(NodeId(node)),
            BMsg::Reply {
                tx,
                node: NodeId(node),
            },
            ctx,
        );
    }

    #[test]
    fn apr_b_client_completes_only_on_f_plus_one_distinct_replies() {
        // APR-B with f = 1: one shard, clients wait for two replies.
        let mut client = client(table(None, None), 2, &[(1, 2), (1, 3)]);
        let mut c = ctx(0);
        client.on_start(&mut c);
        assert_eq!(request_targets(&mut c), [ActorId::Node(NodeId(0))]);
        for _ in 0..3 {
            reply(&mut client, 0, 1, &mut c);
        }
        assert_eq!(client.completed(), 0, "repeated replies from one node");
        assert!(c.take_outbox().is_empty());
        reply(&mut client, 0, 2, &mut c);
        assert_eq!(client.completed(), 1);
        assert_eq!(
            request_targets(&mut c).len(),
            1,
            "the next request goes out"
        );
    }

    #[test]
    fn ahl_client_routes_by_shard_and_sends_cross_shard_requests_to_the_committee() {
        let mut client = client(table(Some(6), None), 1, &[(101, 120), (1, 150)]);
        let mut c = ctx(0);
        client.on_start(&mut c);
        assert_eq!(
            request_targets(&mut c),
            [ActorId::Node(NodeId(3))],
            "shard 1 primary"
        );
        reply(&mut client, 0, 3, &mut c);
        assert_eq!(
            request_targets(&mut c),
            [ActorId::Node(NodeId(6))],
            "reference committee"
        );
    }

    #[test]
    fn fast_protocol_retransmissions_multicast_to_every_active_member() {
        let members = vec![0, 1, 2, 3];
        let expected: Vec<_> = members.iter().map(|&m| ActorId::Node(NodeId(m))).collect();
        let mut client = client(table(None, Some(members)), 1, &[(1, 2)]);
        let mut c = ctx(0);
        client.on_start(&mut c);
        assert_eq!(request_targets(&mut c), expected);
        let (timer, _, tag) = c.take_timers()[0];

        let mut c = ctx(2_000);
        client.on_timer(timer, tag, &mut c);
        assert_eq!(
            request_targets(&mut c),
            expected,
            "the retry reaches every member"
        );
    }
}
