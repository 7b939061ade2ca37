//! The benchmark's own tests: a short smoke run of every workload prints
//! every metric `BENCHMARK.json` lists, with its unit, and a seed
//! reproduces its transaction stream and its simulated metrics.

use sharper_common::{ClientId, SimTime, TraceEvent, TraceKind, TxId};
use sharper_perfbench::layers::CrossSignals;
use sharper_perfbench::{run, Outcome, Plan, Workload};
use sharper_workload::WorkloadGenerator;

/// A short plan: at most two deployments of 600 simulated ms each (the
/// 500 ms warm-up leaves a 100 ms measurement window).
fn smoke_plan(workload: Workload) -> Plan {
    Plan {
        deployments: workload.plan().deployments.min(2),
        duration: SimTime::from_millis(600),
    }
}

/// The entries of one array of `BENCHMARK.json`, as raw text.
fn section(name: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{name}\": ["))
        .expect("section present");
    let body = &text[start..start + text[start..].find(']').expect("section closes")];
    body.split('{').skip(1).map(str::to_string).collect()
}

/// The string value of `key` in one entry.
fn field(entry: &str, key: &str) -> String {
    let at = entry
        .find(&format!("\"{key}\": \""))
        .expect("field present")
        + key.len()
        + 5;
    entry[at..at + entry[at..].find('"').expect("string closes")].to_string()
}

/// `(name, unit)` of every metric of one `BENCHMARK.json` section.
fn listed(name: &str) -> Vec<(String, String)> {
    section(name)
        .iter()
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn printed(outcome: &Outcome) -> Vec<(String, String)> {
    let json = outcome.json();
    outcome
        .metrics
        .iter()
        .map(|m| {
            assert!(
                json.contains(&format!("\"{}\": {{\"value\": ", m.name)),
                "{} missing from {json}",
                m.name
            );
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            (m.name.to_string(), m.unit.to_string())
        })
        .collect()
}

#[test]
fn smoke_run_of_every_workload_prints_every_listed_metric() {
    for workload in Workload::ALL {
        let plan = smoke_plan(workload);
        let e2e = run(workload, plan, 7, 0.0, false).expect("end-to-end checks pass");
        assert_eq!(printed(&e2e), listed("end_to_end"), "{}", workload.name());
        assert!(e2e.attempted > 0 && e2e.failed < e2e.attempted);
        assert!(e2e
            .json()
            .starts_with("{\"correct\": true, \"attempted\": "));

        let layers = run(workload, plan, 7, 0.0, true).expect("per-layer checks pass");
        assert_eq!(printed(&layers), listed("per_layer"), "{}", workload.name());
    }
}

#[test]
fn every_listed_workload_is_a_benchmark_workload() {
    let names: Vec<String> = section("workloads")
        .iter()
        .map(|e| field(e, "name"))
        .collect();
    assert!(names.len() >= 2, "{names:?}");
    for name in &names {
        let workload = Workload::parse(name).expect("listed workload exists");
        assert_eq!(workload.name(), name);
    }
    assert_eq!(Workload::parse("nope"), None);
}

#[test]
fn a_seed_reproduces_its_transaction_stream() {
    let stream = |workload: Workload, seed: u64| {
        let mut g = WorkloadGenerator::new(ClientId(3), workload.workload_config(seed));
        g.take_vec(256)
    };
    for workload in Workload::ALL {
        assert_eq!(stream(workload, 11), stream(workload, 11));
        assert_ne!(stream(workload, 11), stream(workload, 12));
    }
}

#[test]
fn a_seed_reproduces_its_simulated_metrics() {
    for workload in [Workload::Cross20, Workload::ByzB16] {
        let plan = smoke_plan(workload);
        let sim = |seed: u64| {
            let outcome = run(workload, plan, seed, 0.0, false).expect("checks pass");
            let values: Vec<(String, f64)> = outcome
                .metrics
                .iter()
                .filter(|m| m.name.starts_with("sim_") || m.name == "failed_share")
                .map(|m| (m.name.to_string(), m.value))
                .collect();
            (outcome.attempted, outcome.failed, values)
        };
        let first = sim(5);
        assert_eq!(first.2.len(), 4);
        assert_eq!(first, sim(5), "{}", workload.name());
        assert_ne!(first, sim(6), "{}", workload.name());
    }
}

fn event(at_us: u64, rank: u64, kind: TraceKind) -> TraceEvent {
    TraceEvent {
        at: SimTime::from_micros(at_us),
        rank,
        seq: 0,
        kind,
    }
}

#[test]
fn cross_signals_pair_reservations_and_count_waste() {
    let tx = |seq| TxId::new(ClientId(1), seq);
    let events = vec![
        event(
            0,
            9,
            TraceKind::BatchSeal {
                batch: 1,
                txs: vec![tx(0)],
                cross: true,
            },
        ),
        event(
            0,
            9,
            TraceKind::BatchSeal {
                batch: 2,
                txs: vec![tx(1)],
                cross: false,
            },
        ),
        event(
            10,
            0,
            TraceKind::XPropose {
                batch: 1,
                attempt: 0,
            },
        ),
        event(20, 0, TraceKind::ReservationAcquire { batch: 1 }),
        event(25, 3, TraceKind::ReservationAcquire { batch: 1 }),
        event(400, 0, TraceKind::XAbortSent { batch: 1 }),
        event(420, 0, TraceKind::ReservationRelease { batch: 1 }),
        event(
            500,
            0,
            TraceKind::XPropose {
                batch: 1,
                attempt: 1,
            },
        ),
        event(600, 0, TraceKind::XCommit { batch: 1 }),
        event(610, 3, TraceKind::XCommit { batch: 1 }),
        event(625, 3, TraceKind::ReservationRelease { batch: 1 }),
        event(
            700,
            9,
            TraceKind::ClientComplete {
                tx: tx(0),
                cross: true,
            },
        ),
    ];
    let s = CrossSignals::from_trace(&events, SimTime::from_micros(900));
    assert_eq!(s.holds_us, vec![400, 600]);
    assert_eq!((s.xpropose_attempts, s.xretries), (2, 1));
    assert_eq!((s.xcommitted_batches, s.xaborts, s.cross_txs), (1, 1, 1));
    assert_eq!(s.stalled_deployments, 0, "a completion in the last quarter");
    let late = CrossSignals::from_trace(&events, SimTime::from_micros(1_000));
    assert_eq!(late.stalled_deployments, 1);
}
