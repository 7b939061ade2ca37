//! The closed-loop client driver shared by SharPer and the baselines.
//!
//! The paper's evaluation drives every system with "an increasing number of
//! clients ... until the end-to-end throughput is saturated" (§4), a fair
//! comparison only if their clients behave alike. So the bookkeeping every
//! closed-loop client repeats lives here once; a client keeps only how a
//! request is routed and encoded and how many replies make a quorum.

use crate::actor::{Context, TimerId};
use crate::stats::{CommitSample, StatsHandle};
use sharper_common::{Duration, NodeId, SimTime, TxId};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// How long a client waits for a reply quorum before retransmitting.
pub const RETRY_TIMEOUT: Duration = Duration::from_millis(2_000);

/// The tag of a client's retry timer.
pub const RETRY_TAG: u64 = 5;

/// A request awaiting its reply quorum.
#[derive(Debug)]
pub struct Outstanding<T, R> {
    /// The submitted request, shared with the messages that carry it so
    /// retransmissions are pointer bumps.
    request: Arc<T>,
    /// What the client's routing returned when it last sent the request.
    pub route: R,
    /// Whether the request was cross-shard when it was submitted.
    pub cross_shard: bool,
    submitted_at: SimTime,
    replies: HashSet<NodeId>,
    retry_timer: TimerId,
}

/// The request side of a closed-loop client: a scripted source of requests
/// `T` (a type this crate cannot name), a window of outstanding requests,
/// each with its submit time, distinct repliers and retry timer, and commit
/// records in the shared [`StatsHandle`].
///
/// Requests leave through the client's `send` callback, on submission and
/// retransmission alike. It routes and sends one request and returns
/// whether the request is cross-shard and its route `R`, which the driver
/// hands back at completion (SharPer's initiator cluster).
pub struct ClosedLoop<T, R = ()> {
    script: Box<dyn Iterator<Item = T> + Send>,
    id_of: fn(&T) -> TxId,
    window: usize,
    /// Keyed by request id (a BTreeMap for deterministic iteration).
    outstanding: BTreeMap<TxId, Outstanding<T, R>>,
    stats: StatsHandle,
    completed: usize,
    retransmissions: usize,
}

impl<T, R> ClosedLoop<T, R> {
    /// A driver that submits the requests yielded by `script`, identified by
    /// `id_of`, keeping up to `window` (at least one) of them outstanding.
    pub fn new(
        script: impl Iterator<Item = T> + Send + 'static,
        id_of: fn(&T) -> TxId,
        window: usize,
        stats: StatsHandle,
    ) -> Self {
        Self {
            script: Box::new(script.fuse()),
            id_of,
            window: window.max(1),
            outstanding: BTreeMap::new(),
            stats,
            completed: 0,
            retransmissions: 0,
        }
    }

    /// Number of requests seen through to a reply quorum.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Number of retransmissions performed.
    pub fn retransmissions(&self) -> usize {
        self.retransmissions
    }

    /// Submits scripted requests through `send` until the window is full or
    /// the script runs out, arming each one's retry timer.
    pub fn fill_window<M>(
        &mut self,
        ctx: &mut Context<M>,
        mut send: impl FnMut(&Arc<T>, &mut Context<M>) -> (bool, R),
    ) {
        while self.outstanding.len() < self.window {
            let Some(request) = self.script.next() else {
                return;
            };
            let request = Arc::new(request);
            self.stats.record_submission();
            let retry_timer = ctx.set_timer(RETRY_TIMEOUT, RETRY_TAG);
            let (cross_shard, route) = send(&request, ctx);
            self.outstanding.insert(
                (self.id_of)(&request),
                Outstanding {
                    request,
                    route,
                    cross_shard,
                    submitted_at: ctx.now(),
                    replies: HashSet::new(),
                    retry_timer,
                },
            );
        }
    }

    /// Counts a reply from `node` to request `id`. Once `quorum(request)`
    /// distinct replicas have replied, the request completes: its retry
    /// timer is cancelled, its commit is recorded and it is returned. The
    /// caller refills the window with [`Self::fill_window`].
    pub fn on_reply<M>(
        &mut self,
        id: TxId,
        node: NodeId,
        quorum: impl FnOnce(&T) -> usize,
        ctx: &mut Context<M>,
    ) -> Option<Outstanding<T, R>> {
        let pending = self.outstanding.get_mut(&id)?;
        pending.replies.insert(node);
        if pending.replies.len() < quorum(&pending.request) {
            return None;
        }
        let done = self.outstanding.remove(&id)?;
        ctx.cancel_timer(done.retry_timer);
        self.completed += 1;
        self.stats.record_commit(CommitSample {
            tx: id,
            submitted_at: done.submitted_at,
            committed_at: ctx.now(),
            cross_shard: done.cross_shard,
        });
        Some(done)
    }

    /// Handles the expiry of `timer`. If it is an outstanding request's
    /// retry timer, the timer is re-armed and the request resent through
    /// `send`, whose route replaces the old one (the cross-shard flag stays
    /// the submission's).
    pub fn on_timer<M>(
        &mut self,
        timer: TimerId,
        ctx: &mut Context<M>,
        send: impl FnOnce(&Arc<T>, &mut Context<M>) -> (bool, R),
    ) {
        let Some(pending) = self
            .outstanding
            .values_mut()
            .find(|p| p.retry_timer == timer)
        else {
            return;
        };
        self.retransmissions += 1;
        pending.retry_timer = ctx.set_timer(RETRY_TIMEOUT, RETRY_TAG);
        pending.route = send(&pending.request, ctx).1;
    }
}
