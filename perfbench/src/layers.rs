//! Per-layer metrics: counters of an untraced pass, signals derived from a
//! traced pass of the same seeds, and the host-side layer replay.
//!
//! Layer names are the crate names. Ratios pool their counts over every
//! deployment of the pass; percentiles of the lifecycle phases are medians
//! over deployments of each deployment's percentile (the same rule as the
//! end-to-end latencies), while reservation holds pool their samples.

use crate::{
    deployment_seed, median, ratio, replay, run_deployment, Metric, Outcome, Plan, Workload,
};
use sharper_common::{percentile_us, SimTime, TraceEvent, TraceKind, TxId};
use sharper_ledger::{audit_replica_views, LedgerView};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// The cross-shard waste signals of one trace, computed from its events
/// alone. Counts add up across deployments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CrossSignals {
    /// `reservation_acquire → reservation_release` hold times of the same
    /// batch on the same replica, in simulated µs.
    pub holds_us: Vec<u64>,
    /// `xpropose` events: every cross-shard round attempt, retries included.
    pub xpropose_attempts: u64,
    /// `xpropose` events with a non-zero attempt number.
    pub xretries: u64,
    /// Distinct batches with an `xcommit`.
    pub xcommitted_batches: u64,
    /// `xabort_sent` events: rounds an initiator gave up.
    pub xaborts: u64,
    /// Distinct transactions sealed into a cross-shard batch.
    pub cross_txs: u64,
    /// Deployments in which no client completed a transaction in the last
    /// quarter of the run: they stopped committing.
    pub stalled_deployments: u64,
}

impl CrossSignals {
    /// Derives the signals from one deployment's trace of a `duration` run.
    pub fn from_trace(events: &[TraceEvent], duration: SimTime) -> Self {
        let mut out = CrossSignals::default();
        let mut held: BTreeMap<(u64, u64), SimTime> = BTreeMap::new();
        let mut xcommitted = BTreeSet::new();
        let mut cross_txs: BTreeSet<TxId> = BTreeSet::new();
        let mut last_complete = SimTime::ZERO;
        for e in events {
            match &e.kind {
                TraceKind::ReservationAcquire { batch } => {
                    held.insert((e.rank, *batch), e.at);
                }
                TraceKind::ReservationRelease { batch } => {
                    if let Some(at) = held.remove(&(e.rank, *batch)) {
                        out.holds_us.push(e.at.saturating_since(at).as_micros());
                    }
                }
                TraceKind::XPropose { attempt, .. } => {
                    out.xpropose_attempts += 1;
                    out.xretries += u64::from(*attempt > 0);
                }
                TraceKind::XCommit { batch } => {
                    xcommitted.insert(*batch);
                }
                TraceKind::XAbortSent { .. } => out.xaborts += 1,
                TraceKind::BatchSeal {
                    txs, cross: true, ..
                } => cross_txs.extend(txs.iter().copied()),
                TraceKind::ClientComplete { .. } => last_complete = e.at,
                _ => {}
            }
        }
        out.xcommitted_batches = xcommitted.len() as u64;
        out.cross_txs = cross_txs.len() as u64;
        let quarter = duration.as_micros() / 4;
        out.stalled_deployments =
            u64::from(last_complete.as_micros() + quarter < duration.as_micros());
        out
    }

    /// Folds another deployment's signals into these.
    pub fn absorb(&mut self, other: CrossSignals) {
        self.holds_us.extend(other.holds_us);
        self.xpropose_attempts += other.xpropose_attempts;
        self.xretries += other.xretries;
        self.xcommitted_batches += other.xcommitted_batches;
        self.xaborts += other.xaborts;
        self.cross_txs += other.cross_txs;
        self.stalled_deployments += other.stalled_deployments;
    }
}

/// Per-deployment `[p50, p99]` of each lifecycle phase (ms), from
/// `sharper_bench::trace::analyze`.
#[derive(Default)]
struct Phases {
    queue: [Vec<f64>; 2],
    intra: [Vec<f64>; 2],
    cross: [Vec<f64>; 2],
    commit_to_reply: [Vec<f64>; 2],
}

impl Phases {
    fn add(&mut self, events: &[TraceEvent]) {
        let b = sharper_bench::trace::analyze(events);
        for (samples, out) in [
            (&b.submit_to_seal, &mut self.queue),
            (&b.consensus_intra, &mut self.intra),
            (&b.consensus_cross, &mut self.cross),
            (&b.commit_to_complete, &mut self.commit_to_reply),
        ] {
            if samples.count() > 0 {
                out[0].push(samples.percentile_ms(50));
                out[1].push(samples.percentile_ms(99));
            }
        }
    }
}

/// Counters summed over the untraced pass.
#[derive(Default)]
struct Counters {
    committed: f64,
    delivered: f64,
    timers: f64,
    deferred: f64,
    retransmits: f64,
    sig_cache_hits: f64,
    view_changes: f64,
    block_txs: f64,
    blocks: f64,
    run_s: f64,
    mempool_wait_p99_us: Vec<f64>,
    mempool_peak_depth: Vec<f64>,
    audit_ms: Vec<f64>,
}

/// Measures the per-layer metrics of `workload` for `seed`.
pub fn measure(workload: Workload, plan: Plan, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut fingerprints = Vec::with_capacity(plan.deployments);
    let mut c = Counters::default();
    for index in 0..plan.deployments {
        let d = run_deployment(workload, plan, deployment_seed(seed, index), false)?;
        let f = &d.fingerprint;
        c.committed += f.committed as f64;
        c.delivered += f.simulation.delivered as f64;
        c.timers += f.simulation.timers_fired as f64;
        c.deferred += f.simulation.deferred as f64;
        c.retransmits += f.retransmissions as f64;
        c.run_s += d.run_s;
        c.mempool_wait_p99_us
            .push(f.simulation.mempool_wait_p99_us as f64);
        c.mempool_peak_depth
            .push(f.simulation.mempool_peak_depth as f64);
        for (_, s) in &d.report.replica_stats {
            c.sig_cache_hits += s.sig_cache_hits as f64;
            c.view_changes += s.view_changes_started as f64;
            c.block_txs += (s.committed_intra + s.committed_cross) as f64;
            c.blocks += s.committed_blocks as f64;
        }
        let views: Vec<(_, LedgerView)> = d
            .system
            .config()
            .system
            .node_ids()
            .filter_map(|node| d.system.replica(node))
            .map(|r| (r.cluster(), r.ledger().clone()))
            .collect();
        let started = Instant::now();
        audit_replica_views(&views).map_err(|e| e.to_string())?;
        c.audit_ms.push(started.elapsed().as_secs_f64() * 1e3);
        fingerprints.push(d.fingerprint);
    }

    let mut signals = CrossSignals::default();
    let mut phases = Phases::default();
    let mut traced_run_s = 0.0;
    for (index, untraced) in fingerprints.iter().enumerate() {
        let dseed = deployment_seed(seed, index);
        let mut d = run_deployment(workload, plan, dseed, true)?;
        if d.fingerprint != *untraced {
            return Err(format!(
                "{} seed {dseed}: the traced run simulated something else than the untraced one",
                workload.name()
            ));
        }
        traced_run_s += d.run_s;
        let events = d.system.take_trace();
        phases.add(&events);
        signals.absorb(CrossSignals::from_trace(&events, plan.duration));
    }
    signals.holds_us.sort_unstable();

    let replayed = replay::measure(workload, seed, deadline)?;

    let n = plan.deployments as f64;
    let cross_txs = signals.cross_txs as f64;
    let mut metrics = vec![
        m("consensus.cross_ms_p50", "ms", median(&phases.cross[0])),
        m("consensus.cross_ms_p99", "ms", median(&phases.cross[1])),
        m(
            "consensus.reservation_hold_ms_p99",
            "ms",
            percentile_us(&signals.holds_us, 99) as f64 / 1e3,
        ),
        m(
            "consensus.cross_commit_ratio",
            "ratio",
            ratio(
                signals.xcommitted_batches as f64,
                signals.xpropose_attempts as f64,
            ),
        ),
        m(
            "consensus.xaborts_per_cross_tx",
            "count/tx",
            ratio(signals.xaborts as f64, cross_txs),
        ),
        m(
            "consensus.xretries_per_cross_tx",
            "count/tx",
            ratio(signals.xretries as f64, cross_txs),
        ),
        m("consensus.intra_ms_p50", "ms", median(&phases.intra[0])),
        m("consensus.intra_ms_p99", "ms", median(&phases.intra[1])),
        m("consensus.queue_ms_p50", "ms", median(&phases.queue[0])),
        m("consensus.queue_ms_p99", "ms", median(&phases.queue[1])),
        m(
            "consensus.mempool_wait_p99_us",
            "us",
            median(&c.mempool_wait_p99_us),
        ),
        m(
            "consensus.mempool_peak_depth",
            "count",
            median(&c.mempool_peak_depth),
        ),
        m(
            "consensus.txs_per_block",
            "tx/block",
            ratio(c.block_txs, c.blocks),
        ),
        m("consensus.view_changes", "count", c.view_changes / n),
        m(
            "network.deferred_per_tx",
            "count/tx",
            ratio(c.deferred, c.committed),
        ),
        m(
            "network.msgs_per_tx",
            "count/tx",
            ratio(c.delivered, c.committed),
        ),
        m(
            "network.timers_per_tx",
            "count/tx",
            ratio(c.timers, c.committed),
        ),
        m(
            "network.events_per_host_s",
            "1/s",
            ratio(c.delivered + c.timers, c.run_s),
        ),
        m(
            "core.commit_to_reply_ms_p50",
            "ms",
            median(&phases.commit_to_reply[0]),
        ),
        m(
            "core.retransmits_per_tx",
            "count/tx",
            ratio(c.retransmits, c.committed),
        ),
        m(
            "core.stalled_share",
            "ratio",
            signals.stalled_deployments as f64 / n,
        ),
        m(
            "crypto.sig_cache_hits_per_tx",
            "count/tx",
            ratio(c.sig_cache_hits, c.committed),
        ),
        m("ledger.audit_ms", "ms", median(&c.audit_ms)),
        m(
            "common.trace_overhead_ratio",
            "ratio",
            ratio(traced_run_s, c.run_s),
        ),
    ];
    let mut detail = vec![format!(
        "workload {} seed {seed}: {} deployment(s) x {} sim-s; {} stalled; \
         {} cross-shard tx sealed, {} xpropose, {} xcommit, {} xabort, {} reservation holds",
        workload.name(),
        plan.deployments,
        plan.duration.as_secs_f64(),
        signals.stalled_deployments,
        signals.cross_txs,
        signals.xpropose_attempts,
        signals.xcommitted_batches,
        signals.xaborts,
        signals.holds_us.len(),
    )];
    detail.push(format!(
        "{:<36} {:>14} {:<22} {:>12} {:>10}",
        "host metric", "measured ns", "CostModel constant", "modelled ns", "ratio"
    ));
    for r in &replayed {
        detail.push(match r.model {
            Some((constant, modelled_us)) => format!(
                "{:<36} {:>14.1} {:<22} {:>12} {:>10.3}",
                r.metric.name,
                r.metric.value,
                constant,
                modelled_us * 1_000,
                r.metric.value / (modelled_us * 1_000) as f64
            ),
            None => format!(
                "{:<36} {:>14.1} {:<22} {:>12} {:>10}",
                r.metric.name, r.metric.value, "-", "-", "-"
            ),
        });
    }
    metrics.extend(replayed.into_iter().map(|r| r.metric));
    let submitted: u64 = fingerprints.iter().map(|f| f.submitted as u64).sum();
    let committed: u64 = fingerprints.iter().map(|f| f.committed as u64).sum();
    Ok(Outcome {
        attempted: submitted,
        failed: submitted - committed,
        metrics,
        detail,
    })
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}
