//! Deterministic trace analysis: the per-phase latency breakdown behind
//! `BENCH_phases.json` and the invariant verifier behind the `tracecheck`
//! binary.
//!
//! The input is the event stream produced by
//! [`sharper_core::SharperSystem::take_trace`]: sim-timestamped transaction
//! lifecycle spans (`client_submit → batch_seal → commit/xcommit →
//! execute → reply → client_complete`), protocol events (view changes,
//! ballot adoptions, reservations, retransmissions) and reshard events, in
//! the canonical `(sim_time, actor_rank, actor_seq)` order. Because the
//! stream is bit-identical across threading modes, everything derived here —
//! the phase percentiles and the invariant verdicts — is too.

use sharper_common::{percentile_us, SimTime, TraceEvent, TraceKind, TxId};
use std::collections::{BTreeMap, BTreeSet};

/// Latency samples of one lifecycle phase, in simulated microseconds.
#[derive(Debug, Clone, Default)]
pub struct PhaseSamples {
    sorted_us: Vec<u64>,
    sum_us: u64,
}

impl PhaseSamples {
    fn push(&mut self, us: u64) {
        self.sorted_us.push(us);
        self.sum_us += us;
    }

    fn finish(&mut self) {
        self.sorted_us.sort_unstable();
    }

    /// Number of samples in this phase.
    pub fn count(&self) -> usize {
        self.sorted_us.len()
    }

    /// Sum of all samples, in simulated microseconds (one flamegraph frame).
    pub fn total_us(&self) -> u64 {
        self.sum_us
    }

    /// Mean duration in milliseconds (zero when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.sorted_us.is_empty() {
            0.0
        } else {
            self.sum_us as f64 / self.sorted_us.len() as f64 / 1_000.0
        }
    }

    /// Nearest-rank percentile in milliseconds (zero when empty).
    pub fn percentile_ms(&self, pct: u64) -> f64 {
        percentile_us(&self.sorted_us, pct) as f64 / 1_000.0
    }
}

/// The per-phase latency breakdown of one traced run.
///
/// Each completed transaction contributes one sample per phase it traversed:
/// queueing (`client_submit` to the seal of the first batch carrying it),
/// consensus (seal to the first `commit`/`xcommit` of that batch, split into
/// intra-shard and cross-shard buckets) and execution-plus-reply (commit to
/// `client_complete`).
#[derive(Debug, Clone, Default)]
pub struct PhaseBreakdown {
    /// Total trace events analyzed.
    pub events: usize,
    /// Transactions with a `client_complete` event.
    pub completed: usize,
    /// `client_submit → batch_seal` (mempool queueing + batching delay).
    pub submit_to_seal: PhaseSamples,
    /// `batch_seal → commit` of intra-shard batches (Paxos/PBFT rounds).
    pub consensus_intra: PhaseSamples,
    /// `batch_seal → xcommit` of cross-shard batches (flattened protocol).
    pub consensus_cross: PhaseSamples,
    /// `commit → client_complete` (execution, reply fan-in, network).
    pub commit_to_complete: PhaseSamples,
}

impl PhaseBreakdown {
    /// Mean intra-shard consensus latency in milliseconds (`CurvePoint`'s
    /// `phase_consensus_ms`).
    pub fn phase_consensus_ms(&self) -> f64 {
        self.consensus_intra.mean_ms()
    }

    /// Mean cross-shard consensus latency in milliseconds (`CurvePoint`'s
    /// `phase_cross_ms`).
    pub fn phase_cross_ms(&self) -> f64 {
        self.consensus_cross.mean_ms()
    }

    /// Mean commit-to-completion latency in milliseconds (`CurvePoint`'s
    /// `phase_exec_ms`).
    pub fn phase_exec_ms(&self) -> f64 {
        self.commit_to_complete.mean_ms()
    }

    /// The named phases in display order.
    pub fn phases(&self) -> [(&'static str, &PhaseSamples); 4] {
        [
            ("submit_to_seal", &self.submit_to_seal),
            ("consensus_intra", &self.consensus_intra),
            ("consensus_cross", &self.consensus_cross),
            ("commit_to_complete", &self.commit_to_complete),
        ]
    }
}

/// Per-transaction / per-batch indexes over one trace, shared by the phase
/// breakdown and the invariant checks.
struct TraceIndex {
    /// First `client_submit` per transaction.
    submit: BTreeMap<TxId, SimTime>,
    /// First `client_complete` per transaction.
    complete: BTreeMap<TxId, SimTime>,
    /// Transactions with at least one `reply` event.
    replied: BTreeSet<TxId>,
    /// First `batch_seal` per batch: time and cross-shard flag.
    seal: BTreeMap<u64, (SimTime, bool)>,
    /// Earliest-sealed batch carrying each transaction.
    seal_of_tx: BTreeMap<TxId, u64>,
    /// First intra-shard `commit` per batch.
    commit: BTreeMap<u64, SimTime>,
    /// First cross-shard `xcommit` per batch.
    xcommit: BTreeMap<u64, SimTime>,
    /// Batches with at least one `propose` / `xpropose` event.
    proposed: BTreeSet<u64>,
    xproposed: BTreeSet<u64>,
    /// Batches with at least one `accept` / `xaccept` event.
    accepted: BTreeSet<u64>,
    xaccepted: BTreeSet<u64>,
    /// Batches executed somewhere, and the transactions they carried.
    executed: BTreeSet<u64>,
    executed_tx: BTreeSet<TxId>,
}

impl TraceIndex {
    fn build(events: &[TraceEvent]) -> Self {
        let mut ix = TraceIndex {
            submit: BTreeMap::new(),
            complete: BTreeMap::new(),
            replied: BTreeSet::new(),
            seal: BTreeMap::new(),
            seal_of_tx: BTreeMap::new(),
            commit: BTreeMap::new(),
            xcommit: BTreeMap::new(),
            proposed: BTreeSet::new(),
            xproposed: BTreeSet::new(),
            accepted: BTreeSet::new(),
            xaccepted: BTreeSet::new(),
            executed: BTreeSet::new(),
            executed_tx: BTreeSet::new(),
        };
        for e in events {
            match &e.kind {
                TraceKind::ClientSubmit { tx } => {
                    ix.submit.entry(*tx).or_insert(e.at);
                }
                TraceKind::ClientComplete { tx, .. } => {
                    ix.complete.entry(*tx).or_insert(e.at);
                }
                TraceKind::Reply { tx, .. } => {
                    ix.replied.insert(*tx);
                }
                TraceKind::BatchSeal { batch, txs, cross } => {
                    let first = !ix.seal.contains_key(batch);
                    ix.seal.entry(*batch).or_insert((e.at, *cross));
                    if first {
                        for tx in txs {
                            ix.seal_of_tx.entry(*tx).or_insert(*batch);
                        }
                    }
                }
                TraceKind::Propose { batch, .. } => {
                    ix.proposed.insert(*batch);
                }
                TraceKind::Accept { batch, .. } => {
                    ix.accepted.insert(*batch);
                }
                TraceKind::Commit { batch } => {
                    ix.commit.entry(*batch).or_insert(e.at);
                }
                TraceKind::XPropose { batch, .. } => {
                    ix.xproposed.insert(*batch);
                }
                TraceKind::XAccept { batch } => {
                    ix.xaccepted.insert(*batch);
                }
                TraceKind::XCommit { batch } => {
                    ix.xcommit.entry(*batch).or_insert(e.at);
                }
                TraceKind::Execute { batch, txs, .. } => {
                    ix.executed.insert(*batch);
                    ix.executed_tx.extend(txs.iter().copied());
                }
                _ => {}
            }
        }
        ix
    }

    /// The commit time of a batch: intra-shard commit or cross-shard
    /// xcommit, whichever happened (first).
    fn commit_at(&self, batch: u64) -> Option<SimTime> {
        match (self.commit.get(&batch), self.xcommit.get(&batch)) {
            (Some(a), Some(b)) => Some(*a.min(b)),
            (Some(a), None) => Some(*a),
            (None, Some(b)) => Some(*b),
            (None, None) => None,
        }
    }
}

/// Computes the per-phase latency breakdown of a trace.
pub fn analyze(events: &[TraceEvent]) -> PhaseBreakdown {
    let ix = TraceIndex::build(events);
    let mut out = PhaseBreakdown {
        events: events.len(),
        completed: ix.complete.len(),
        ..PhaseBreakdown::default()
    };
    for (tx, &completed_at) in &ix.complete {
        let Some(&batch) = ix.seal_of_tx.get(tx) else {
            continue;
        };
        let (sealed_at, cross) = ix.seal[&batch];
        if let Some(&submitted_at) = ix.submit.get(tx) {
            out.submit_to_seal
                .push(sealed_at.saturating_since(submitted_at).as_micros());
        }
        let Some(committed_at) = ix.commit_at(batch) else {
            continue;
        };
        let consensus_us = committed_at.saturating_since(sealed_at).as_micros();
        if cross {
            out.consensus_cross.push(consensus_us);
        } else {
            out.consensus_intra.push(consensus_us);
        }
        out.commit_to_complete
            .push(completed_at.saturating_since(committed_at).as_micros());
    }
    out.submit_to_seal.finish();
    out.consensus_intra.finish();
    out.consensus_cross.finish();
    out.commit_to_complete.finish();
    out
}

/// Verifies the lifecycle invariants of a trace and returns every violation
/// found (empty means the trace is clean).
///
/// * **Canonical order** — events are strictly sorted by
///   `(sim_time, rank, seq)`; a violation means the lane merge is broken.
/// * **I1: full spans** — every `client_complete` has a matching submit, a
///   batch seal carrying the transaction, a commit of that batch, an execute
///   and a reply.
/// * **I2: no commit without quorum phases** — every committed batch was
///   proposed and accepted (`propose`/`accept` intra, `xpropose`/`xaccept`
///   cross) somewhere in the deployment.
/// * **I3: reservation hygiene** — per replica, reservations alternate
///   acquire/release for matching batches, and a received `xabort` for the
///   held reservation releases it before the run ends.
/// * **I4: view monotonicity** — per replica, installed views
///   (`view_change_end`) and view-change votes (`view_change_start`)
///   strictly increase.
pub fn check_invariants(events: &[TraceEvent]) -> Vec<String> {
    let mut violations = Vec::new();

    for pair in events.windows(2) {
        if pair[0].key() >= pair[1].key() {
            violations.push(format!(
                "canonical order violated at t={}us rank={}: key {:?} >= {:?}",
                pair[1].at.as_micros(),
                pair[1].rank,
                pair[0].key(),
                pair[1].key()
            ));
        }
    }

    let ix = TraceIndex::build(events);

    // I1: every completed transaction has a full span.
    for (tx, &completed_at) in &ix.complete {
        match ix.submit.get(tx) {
            None => violations.push(format!("I1: tx {tx} completed without a client_submit")),
            Some(&submitted_at) if submitted_at > completed_at => violations.push(format!(
                "I1: tx {tx} completed at {}us before its submit at {}us",
                completed_at.as_micros(),
                submitted_at.as_micros()
            )),
            Some(_) => {}
        }
        match ix.seal_of_tx.get(tx) {
            None => violations.push(format!("I1: tx {tx} completed without a batch_seal")),
            Some(batch) => {
                if ix.commit_at(*batch).is_none() {
                    violations.push(format!(
                        "I1: tx {tx} completed but batch {batch:016x} has no commit/xcommit"
                    ));
                }
            }
        }
        if !ix.executed_tx.contains(tx) {
            violations.push(format!("I1: tx {tx} completed without an execute"));
        }
        if !ix.replied.contains(tx) {
            violations.push(format!("I1: tx {tx} completed without a reply"));
        }
    }

    // I2: no commit without the quorum phases.
    for batch in ix.commit.keys() {
        if !ix.proposed.contains(batch) {
            violations.push(format!(
                "I2: batch {batch:016x} committed without a propose"
            ));
        }
        if !ix.accepted.contains(batch) {
            violations.push(format!(
                "I2: batch {batch:016x} committed without an accept"
            ));
        }
    }
    for batch in ix.xcommit.keys() {
        if !ix.xproposed.contains(batch) {
            violations.push(format!(
                "I2: batch {batch:016x} xcommitted without an xpropose"
            ));
        }
        if !ix.xaccepted.contains(batch) {
            violations.push(format!(
                "I2: batch {batch:016x} xcommitted without an xaccept"
            ));
        }
    }

    // I3: per-replica reservation alternation, and aborts release.
    let mut held: BTreeMap<u64, u64> = BTreeMap::new(); // rank -> batch
    let mut abort_pending: BTreeMap<u64, u64> = BTreeMap::new(); // rank -> batch
    for e in events {
        match &e.kind {
            TraceKind::ReservationAcquire { batch } => {
                if let Some(prev) = held.insert(e.rank, *batch) {
                    violations.push(format!(
                        "I3: rank {} acquired reservation {batch:016x} at {}us while \
                         holding {prev:016x}",
                        e.rank,
                        e.at.as_micros()
                    ));
                }
            }
            TraceKind::ReservationRelease { batch } => {
                if held.remove(&e.rank) != Some(*batch) {
                    violations.push(format!(
                        "I3: rank {} released reservation {batch:016x} at {}us without \
                         holding it",
                        e.rank,
                        e.at.as_micros()
                    ));
                }
                if abort_pending.get(&e.rank) == Some(batch) {
                    abort_pending.remove(&e.rank);
                }
            }
            TraceKind::XAbortRecv { batch } if held.get(&e.rank) == Some(batch) => {
                abort_pending.insert(e.rank, *batch);
            }
            _ => {}
        }
    }
    for (rank, batch) in abort_pending {
        violations.push(format!(
            "I3: rank {rank} received an xabort for held reservation {batch:016x} \
             but never released it"
        ));
    }

    // I4: per-replica view monotonicity.
    let mut last_end: BTreeMap<u64, u64> = BTreeMap::new();
    let mut last_start: BTreeMap<u64, u64> = BTreeMap::new();
    for e in events {
        match &e.kind {
            TraceKind::ViewChangeStart { view } => {
                if let Some(prev) = last_start.insert(e.rank, *view) {
                    if prev >= *view {
                        violations.push(format!(
                            "I4: rank {} started a view change to {view} after voting \
                             for {prev}",
                            e.rank
                        ));
                    }
                }
            }
            TraceKind::ViewChangeEnd { view } => {
                if let Some(prev) = last_end.insert(e.rank, *view) {
                    if prev >= *view {
                        violations.push(format!(
                            "I4: rank {} installed view {view} after view {prev}",
                            e.rank
                        ));
                    }
                }
            }
            _ => {}
        }
    }

    violations
}

/// Renders the per-scenario phase breakdowns as the `BENCH_phases.json`
/// document: per-phase count/mean/percentiles plus flamegraph-style folded
/// frames (`tx;<phase>` with the total simulated microseconds spent there).
pub fn phases_to_json(scenarios: &[(String, PhaseBreakdown)]) -> String {
    let rendered: Vec<String> = scenarios
        .iter()
        .map(|(name, b)| {
            let phases: Vec<String> = b
                .phases()
                .iter()
                .map(|(phase, s)| {
                    format!(
                        "{{\"phase\":\"{phase}\",\"count\":{},\"mean_ms\":{:.3},\
                         \"p50_ms\":{:.3},\"p95_ms\":{:.3}}}",
                        s.count(),
                        s.mean_ms(),
                        s.percentile_ms(50),
                        s.percentile_ms(95)
                    )
                })
                .collect();
            let frames: Vec<String> = b
                .phases()
                .iter()
                .map(|(phase, s)| {
                    format!("{{\"name\":\"tx;{phase}\",\"value_us\":{}}}", s.total_us())
                })
                .collect();
            format!(
                "{{\"scenario\":\"{name}\",\"events\":{},\"completed\":{},\
                 \"phases\":[{}],\"frames\":[{}]}}",
                b.events,
                b.completed,
                phases.join(","),
                frames.join(",")
            )
        })
        .collect();
    format!(
        "{{\"figure\":\"phases\",\"scenarios\":[{}]}}",
        rendered.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharper_common::ClientId;

    fn tx(seq: u64) -> TxId {
        TxId::new(ClientId(1), seq)
    }

    /// A minimal well-formed trace: one intra-shard transaction through its
    /// whole lifecycle, plus a reservation acquire/release pair.
    fn well_formed() -> Vec<TraceEvent> {
        let mk = |at_us: u64, rank: u64, seq: u64, kind: TraceKind| TraceEvent {
            at: SimTime(at_us),
            rank,
            seq,
            kind,
        };
        vec![
            mk(0, 1 << 63, 0, TraceKind::ClientSubmit { tx: tx(0) }),
            mk(
                100,
                0,
                0,
                TraceKind::MempoolAdmit {
                    tx: tx(0),
                    cross: false,
                    depth: 1,
                },
            ),
            mk(
                200,
                0,
                1,
                TraceKind::BatchSeal {
                    batch: 0xAB,
                    txs: vec![tx(0)],
                    cross: false,
                },
            ),
            mk(
                200,
                0,
                2,
                TraceKind::Propose {
                    batch: 0xAB,
                    view: 0,
                },
            ),
            mk(
                300,
                1,
                0,
                TraceKind::Accept {
                    batch: 0xAB,
                    view: 0,
                },
            ),
            mk(400, 0, 3, TraceKind::Commit { batch: 0xAB }),
            mk(450, 1, 1, TraceKind::ReservationAcquire { batch: 0xCD }),
            mk(460, 1, 2, TraceKind::XAbortRecv { batch: 0xCD }),
            mk(460, 1, 3, TraceKind::ReservationRelease { batch: 0xCD }),
            mk(
                500,
                0,
                4,
                TraceKind::Execute {
                    block: 0xEE,
                    batch: 0xAB,
                    txs: vec![tx(0)],
                    cross: false,
                },
            ),
            mk(
                500,
                0,
                5,
                TraceKind::Reply {
                    tx: tx(0),
                    applied: true,
                },
            ),
            mk(
                600,
                1 << 63,
                1,
                TraceKind::ClientComplete {
                    tx: tx(0),
                    cross: false,
                },
            ),
        ]
    }

    #[test]
    fn well_formed_trace_passes_all_invariants() {
        assert_eq!(check_invariants(&well_formed()), Vec::<String>::new());
    }

    #[test]
    fn breakdown_attributes_each_phase() {
        let b = analyze(&well_formed());
        assert_eq!(b.completed, 1);
        assert_eq!(b.submit_to_seal.count(), 1);
        assert!((b.submit_to_seal.mean_ms() - 0.2).abs() < 1e-9);
        assert_eq!(b.consensus_intra.count(), 1);
        assert!((b.phase_consensus_ms() - 0.2).abs() < 1e-9);
        assert_eq!(b.consensus_cross.count(), 0);
        assert_eq!(b.phase_cross_ms(), 0.0);
        assert!((b.phase_exec_ms() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn missing_submit_is_detected() {
        let events: Vec<TraceEvent> = well_formed()
            .into_iter()
            .filter(|e| !matches!(e.kind, TraceKind::ClientSubmit { .. }))
            .collect();
        let v = check_invariants(&events);
        assert!(
            v.iter().any(|m| m.contains("without a client_submit")),
            "{v:?}"
        );
    }

    #[test]
    fn commit_without_quorum_phases_is_detected() {
        let events: Vec<TraceEvent> = well_formed()
            .into_iter()
            .filter(|e| !matches!(e.kind, TraceKind::Propose { .. } | TraceKind::Accept { .. }))
            .collect();
        let v = check_invariants(&events);
        assert!(v.iter().any(|m| m.contains("without a propose")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("without an accept")), "{v:?}");
    }

    #[test]
    fn unreleased_aborted_reservation_is_detected() {
        let events: Vec<TraceEvent> = well_formed()
            .into_iter()
            .filter(|e| !matches!(e.kind, TraceKind::ReservationRelease { .. }))
            .collect();
        let v = check_invariants(&events);
        assert!(v.iter().any(|m| m.contains("never released")), "{v:?}");
    }

    #[test]
    fn non_monotonic_views_are_detected() {
        let mut events = well_formed();
        events.push(TraceEvent {
            at: SimTime(700),
            rank: 0,
            seq: 6,
            kind: TraceKind::ViewChangeEnd { view: 3 },
        });
        events.push(TraceEvent {
            at: SimTime(800),
            rank: 0,
            seq: 7,
            kind: TraceKind::ViewChangeEnd { view: 2 },
        });
        let v = check_invariants(&events);
        assert!(v.iter().any(|m| m.contains("I4")), "{v:?}");
    }

    #[test]
    fn unsorted_trace_is_detected() {
        let mut events = well_formed();
        events.swap(0, 1);
        let v = check_invariants(&events);
        assert!(v.iter().any(|m| m.contains("canonical order")), "{v:?}");
    }

    #[test]
    fn phases_json_is_stable() {
        let json = phases_to_json(&[("clean".to_string(), analyze(&well_formed()))]);
        assert!(json.starts_with("{\"figure\":\"phases\""));
        assert!(json.contains("\"scenario\":\"clean\""));
        assert!(json.contains("\"phase\":\"consensus_intra\""));
        assert!(json.contains("\"name\":\"tx;submit_to_seal\""));
    }
}
