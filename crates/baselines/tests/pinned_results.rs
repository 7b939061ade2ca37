//! Pins the end-to-end results of every baseline system.
//!
//! Each row runs one small deployment and compares its client completions,
//! reference-committee completions and steady-state commit count with the
//! values the simulator produced when the row was pinned. The simulator is
//! deterministic per seed, so any change in a baseline's client, replica or
//! coordinator behaviour shows up here as a changed number. The last two
//! rows drive AHL-C long enough for clients to retransmit, so the retry
//! path is pinned as well as the submit path; the Fig 6b-sized row (20%
//! cross-shard, 128 clients, 5 s) is where the reference committee's
//! duplicate suppression moves the numbers.

use sharper_baselines::{BaselineKind, BaselineParams, BaselineSystem};
use sharper_common::SimTime;
use sharper_workload::{WorkloadConfig, WorkloadGenerator};

/// One pinned run: the deployment and the numbers it must reproduce.
struct Row {
    kind: BaselineKind,
    cross_ratio: f64,
    clients: usize,
    secs: u64,
    client_completed: usize,
    rc_completed: usize,
    committed: usize,
}

const fn row(
    kind: BaselineKind,
    cross_ratio: f64,
    clients: usize,
    secs: u64,
    pinned: [usize; 3],
) -> Row {
    Row {
        kind,
        cross_ratio,
        clients,
        secs,
        client_completed: pinned[0],
        rc_completed: pinned[1],
        committed: pinned[2],
    }
}

const ROWS: [Row; 8] = [
    row(BaselineKind::AprC, 0.2, 8, 2, [2935, 0, 2791]),
    row(BaselineKind::AprB, 0.2, 8, 2, [2579, 0, 2456]),
    row(BaselineKind::FPaxos, 0.2, 8, 2, [3281, 0, 3121]),
    row(BaselineKind::FaB, 0.2, 8, 2, [2859, 0, 2723]),
    row(BaselineKind::AhlC, 0.2, 8, 2, [490, 87, 441]),
    row(BaselineKind::AhlB, 0.2, 8, 2, [466, 82, 418]),
    row(BaselineKind::AhlC, 1.0, 128, 3, [131, 131, 127]),
    row(BaselineKind::AhlC, 0.2, 128, 5, [1600, 219, 1021]),
];

#[test]
fn every_baseline_reproduces_its_pinned_results() {
    let mut mismatches = Vec::new();
    for r in &ROWS {
        let mut params = BaselineParams::paper(r.kind);
        params.accounts_per_shard = 1_000;
        params.warmup = SimTime::from_millis(100);
        let clusters = params.clusters as u32;
        let mut system = BaselineSystem::build(params, r.clients, |client| {
            let mut cfg = WorkloadConfig::evaluation(clusters, r.cross_ratio);
            cfg.accounts_per_shard = 1_000;
            WorkloadGenerator::new(client, cfg).take(5_000)
        });
        let report = system.run(SimTime::from_secs(r.secs));
        let got = [
            report.client_completed,
            report.rc_completed,
            report.summary.committed,
        ];
        let want = [r.client_completed, r.rc_completed, r.committed];
        if got != want {
            mismatches.push(format!(
                "{} at {:.0}% cross-shard, {} clients, {} s: got {got:?}, pinned {want:?}",
                r.kind.label(),
                r.cross_ratio * 100.0,
                r.clients,
                r.secs
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
