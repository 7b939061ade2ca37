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

use crate::json::Object;
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
#[derive(Default)]
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
    /// Transactions executed somewhere.
    executed_tx: BTreeSet<TxId>,
}

impl TraceIndex {
    fn build(events: &[TraceEvent]) -> Self {
        let mut ix = TraceIndex::default();
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
                TraceKind::Execute { txs, .. } => {
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
    Object::new()
        .string("figure", "phases")
        .array(
            "scenarios",
            scenarios.iter().map(|(name, b)| {
                Object::new()
                    .string("scenario", name)
                    .int("events", b.events)
                    .int("completed", b.completed)
                    .array(
                        "phases",
                        b.phases().iter().map(|(phase, s)| {
                            Object::new()
                                .string("phase", phase)
                                .int("count", s.count())
                                .num("mean_ms", s.mean_ms(), 3)
                                .num("p50_ms", s.percentile_ms(50), 3)
                                .num("p95_ms", s.percentile_ms(95), 3)
                        }),
                    )
                    .array(
                        "frames",
                        b.phases().iter().map(|(phase, s)| {
                            Object::new()
                                .string("name", &format!("tx;{phase}"))
                                .int("value_us", s.total_us())
                        }),
                    )
            }),
        )
        .finish()
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

    /// Pins the exact bytes of every `BENCH_*.json` document the harness
    /// writes: one fixed record per document, rendered and compared against
    /// a literal. Values exercise rounding at each fixed precision and every
    /// string escape, so any drift in layout, key order, separators,
    /// decimal places or escaping fails here before it reaches a baseline.
    #[test]
    fn bench_documents_are_byte_stable() {
        use crate::{
            batching_to_json, exec_to_json, fig8xl_to_json, figure_to_json, parallel_to_json,
            reshard_to_json, BatchPoint, BatchSeries, CurvePoint, ExecPoint, ExecSweep,
            FairnessEntry, Fig8xlPoint, Fig8xlSweep, ParallelPoint, ParallelSweep, ReshardPoint,
            ReshardSweep, Series,
        };

        let curve = CurvePoint {
            clients: 8,
            throughput_tps: 1234.56789,
            latency_ms: 0.0005,
            committed: 42,
            mempool_peak_depth: 3,
            mempool_wait_p95_us: 1_500,
            phase_consensus_ms: 1.0,
            phase_cross_ms: 2.2505,
            phase_exec_ms: 0.0,
        };
        let figure = figure_to_json(
            "fig6a",
            &[
                Series {
                    system: "Shar\"Per\"\\\n\r\t\u{1}é".to_string(),
                    points: vec![curve],
                },
                Series {
                    system: "AHL-C".to_string(),
                    points: vec![],
                },
            ],
        );
        let batching = batching_to_json(&[BatchSeries {
            system: "SharPer byzantine 0% cross-shard".to_string(),
            points: vec![
                BatchPoint {
                    batch_size: 1,
                    clients: 32,
                    throughput_tps: 999.9996,
                    latency_ms: 31.25,
                    committed: 1_999,
                },
                BatchPoint {
                    batch_size: 16,
                    clients: 32,
                    throughput_tps: 8_000.0,
                    latency_ms: 4.0004,
                    committed: 16_000,
                },
            ],
            speedup_vs_unbatched: 8.0004,
        }]);
        let fig8xl = fig8xl_to_json(&Fig8xlSweep {
            threads: "per-cluster".to_string(),
            host_cpus: 2,
            max_throughput_tps: 92_082.123_456,
            points: vec![Fig8xlPoint {
                clusters: 128,
                replicas: 384,
                clients: 102_400,
                committed: 64_457,
                throughput_tps: 92_082.123_456,
                latency_ms: 1_100.5,
                retained_blocks: 24_576,
                logical_blocks: 98_304,
                checkpoint_interval: 32,
                retain_blocks: 64,
                peak_rss_mb: 2_456.75,
                wall_ms: 61_234.56,
            }],
        });
        let exec = exec_to_json(&ExecSweep {
            points: vec![ExecPoint {
                partitions: 4,
                batch_size: 16,
                txs: 512,
                makespan_units: 1_024,
                serial_units: 2_048,
                speedup_modeled: 2.0,
                throughput_tps: 550_834.062_5,
                serial_tps: 166_666.666_666,
                wall_ms: 1.25,
                identical_to_serial: false,
            }],
        });
        let parallel = parallel_to_json(&ParallelSweep {
            threads: "per-cluster".to_string(),
            host_cpus: 2,
            points: vec![ParallelPoint {
                clusters: 8,
                replicas: 24,
                clients: 64,
                committed: 1_014,
                throughput_tps: 507.0,
                wall_ms_sequential: 812.34,
                wall_ms_parallel: 406.17,
                speedup: 2.0,
                identical: true,
                digest: "00ff\"ab".to_string(),
            }],
        });
        let reshard = reshard_to_json(&ReshardSweep {
            clusters: 3,
            zipf_s: 1.2,
            hot_ratio: 0.8,
            span: 400,
            drift_every: 300,
            points: vec![ReshardPoint {
                system: "dynamic".to_string(),
                clients: 256,
                throughput_tps: 37_745.5,
                latency_ms: 6.789,
                committed: 100_000,
                reshards_applied: 12,
                client_redirects: 345,
            }],
            dynamic_speedup: 1.5432,
            fairness: vec![FairnessEntry {
                cluster: 1,
                completed: 60,
            }],
            fairness_spread: 1.0909,
        });
        let phases = phases_to_json(&[("loss+crash".to_string(), analyze(&well_formed()))]);

        let cases = [
            (
                "figure",
                figure,
                concat!(
                    r#"{"figure":"fig6a","series":[{"system":"Shar\"Per\"\\\n\r\t\u0001é","#,
                    r#""points":[{"clients":8,"throughput_tps":1234.568,"latency_ms":0.001,"committed":42,"#,
                    r#""mempool_peak_depth":3,"mempool_wait_p95_us":1500,"phase_consensus_ms":1.000,"#,
                    r#""phase_cross_ms":2.251,"phase_exec_ms":0.000}]},{"system":"AHL-C","points":[]}]}"#,
                ),
            ),
            (
                "batching",
                batching,
                concat!(
                    r#"{"figure":"batching","series":[{"system":"SharPer byzantine 0% cross-shard","#,
                    r#""points":[{"batch_size":1,"clients":32,"throughput_tps":1000.000,"latency_ms":31.250,"#,
                    r#""committed":1999},{"batch_size":16,"clients":32,"throughput_tps":8000.000,"#,
                    r#""latency_ms":4.000,"committed":16000}],"speedup_vs_unbatched":8.000}]}"#,
                ),
            ),
            (
                "fig8xl",
                fig8xl,
                concat!(
                    r#"{"figure":"fig8xl","threads":"per-cluster","host_cpus":2,"#,
                    r#""max_throughput_tps":92082.123,"points":[{"clusters":128,"replicas":384,"#,
                    r#""clients":102400,"committed":64457,"throughput_tps":92082.123,"latency_ms":1100.500,"#,
                    r#""retained_blocks":24576,"logical_blocks":98304,"checkpoint_interval":32,"#,
                    r#""retain_blocks":64,"peak_rss_mb":2456.8,"wall_ms":61234.6}]}"#,
                ),
            ),
            (
                "exec",
                exec,
                concat!(
                    r#"{"figure":"exec","points":[{"partitions":4,"batch_size":16,"txs":512,"#,
                    r#""makespan_units":1024,"serial_units":2048,"speedup_modeled":2.000,"#,
                    r#""throughput_tps":550834.062,"serial_tps":166666.667,"wall_ms":1.2,"#,
                    r#""identical_to_serial":false}]}"#,
                ),
            ),
            (
                "parallel",
                parallel,
                concat!(
                    r#"{"figure":"parallel","threads":"per-cluster","host_cpus":2,"points":[{"clusters":8,"#,
                    r#""replicas":24,"clients":64,"committed":1014,"throughput_tps":507.000,"#,
                    r#""wall_ms_sequential":812.3,"wall_ms_parallel":406.2,"speedup":2.000,"identical":true,"#,
                    r#""digest":"00ff\"ab"}]}"#,
                ),
            ),
            (
                "reshard",
                reshard,
                concat!(
                    r#"{"figure":"reshard","clusters":3,"zipf_s":1.20,"hot_ratio":0.80,"span":400,"#,
                    r#""drift_every":300,"points":[{"system":"dynamic","clients":256,"#,
                    r#""throughput_tps":37745.500,"latency_ms":6.789,"committed":100000,"#,
                    r#""reshards_applied":12,"client_redirects":345}],"dynamic_speedup":1.543,"#,
                    r#""fairness":[{"cluster":1,"completed":60}],"fairness_spread":1.091}"#,
                ),
            ),
            (
                "phases",
                phases,
                concat!(
                    r#"{"figure":"phases","scenarios":[{"scenario":"loss+crash","events":12,"completed":1,"#,
                    r#""phases":[{"phase":"submit_to_seal","count":1,"mean_ms":0.200,"p50_ms":0.200,"#,
                    r#""p95_ms":0.200},{"phase":"consensus_intra","count":1,"mean_ms":0.200,"p50_ms":0.200,"#,
                    r#""p95_ms":0.200},{"phase":"consensus_cross","count":0,"mean_ms":0.000,"p50_ms":0.000,"#,
                    r#""p95_ms":0.000},{"phase":"commit_to_complete","count":1,"mean_ms":0.200,"#,
                    r#""p50_ms":0.200,"p95_ms":0.200}],"frames":[{"name":"tx;submit_to_seal","#,
                    r#""value_us":200},{"name":"tx;consensus_intra","value_us":200},"#,
                    r#"{"name":"tx;consensus_cross","value_us":0},{"name":"tx;commit_to_complete","#,
                    r#""value_us":200}]}]}"#,
                ),
            ),
        ];
        for (name, rendered, expected) in cases {
            assert_eq!(rendered, expected, "BENCH_{name}.json layout drifted");
        }
    }
}
