//! The partitioned apply plan: how a committed batch would split across
//! account-range partitions, and what that schedule costs.
//!
//! # Plan
//!
//! [`ExecPlan::build`] classifies every transaction of a committed batch by
//! the partitions its local read/write set touches:
//!
//! * **NotLocal** — nothing local; the outcome is `NotLocal`.
//! * **TrivialCredits** — only credit destinations are local, nothing is
//!   read during validation: the outcome is `Applied` by construction and
//!   one credit step runs per touched partition.
//! * **Solo** — every local account lives in one partition: one
//!   validate-and-apply step on that partition.
//! * **Split** — every *validation read* (transfer sources, read ops) lives
//!   in one partition but credits land elsewhere: a validate step on the
//!   read partition plus dependent credit steps on the others. This is the
//!   common shape for uniform transfer workloads and is what keeps the
//!   schedule's critical path short when most transfers cross partitions.
//! * **Gang** — validation reads span several partitions: one step that
//!   runs atomically across all of them.
//!
//! # Cost accounting
//!
//! The plan reports its critical path in abstract work units
//! ([`TX_UNITS`] per transaction, split [`V_UNITS`] + [`C_UNITS`] for split
//! transactions): each partition is a serial resource, credit steps wait for
//! their validate step, and gang steps synchronise every involved partition.
//! The apply-path benchmark prices that critical path to model the speedup
//! a partitioned executor could reach; replicas apply every batch serially
//! and the simulation charges the flat serial batch cost.
//!
//! # Validity
//!
//! [`Executor::apply_batch_partitioned`] runs the plan's steps on one
//! thread, transaction by transaction, each step touching only its own
//! partition's store. Its outcomes and final state must equal serial
//! apply's — the differential tests below and the benchmark's
//! `identical_to_serial` column check that the priced schedule is a valid
//! decomposition of the batch.

use crate::executor::{ExecutionOutcome, Executor};
use crate::rwset::RwSet;
use crate::store::{PartitionMap, PartitionedStore};
use crate::transaction::Transaction;
use std::sync::Arc;

/// Work units of a split transaction's validate-and-write step.
pub const V_UNITS: u64 = 2;
/// Work units of a dependent credit step.
pub const C_UNITS: u64 = 1;
/// Work units of one whole transaction (solo or gang step, and the serial
/// per-transaction reference cost).
pub const TX_UNITS: u64 = V_UNITS + C_UNITS;

/// How one transaction maps onto partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
enum TxPlan {
    NotLocal,
    TrivialCredits {
        credit_parts: Vec<usize>,
    },
    Solo {
        part: usize,
    },
    Split {
        vpart: usize,
        credit_parts: Vec<usize>,
    },
    Gang {
        parts: Vec<usize>,
    },
}

/// The per-partition schedule of one committed batch.
#[derive(Debug)]
pub struct ExecPlan {
    plans: Vec<TxPlan>,
    rws: Vec<RwSet>,
    makespan_units: u64,
    serial_units: u64,
}

impl ExecPlan {
    /// Builds the schedule for `txs` over `map`'s partitions.
    ///
    /// # Panics
    /// Panics on a reshard control transaction: those apply only through
    /// [`Executor::apply`] on a replica's flat store.
    pub fn build(exec: &Executor, map: PartitionMap, txs: &[Arc<Transaction>]) -> Self {
        let mut plans = Vec::with_capacity(txs.len());
        let mut rws = Vec::with_capacity(txs.len());
        for tx in txs {
            assert!(!tx.is_reshard(), "reshard transactions are never planned");
            let rw = exec.rw_set(tx);
            let mut vparts: Vec<usize> = rw.reads().iter().map(|a| map.partition_of(*a)).collect();
            vparts.sort_unstable();
            vparts.dedup();
            let mut wparts: Vec<usize> = rw.writes().iter().map(|a| map.partition_of(*a)).collect();
            wparts.sort_unstable();
            wparts.dedup();
            let plan = if !rw.any_local() {
                TxPlan::NotLocal
            } else if vparts.is_empty() {
                // Nothing to validate locally: the outcome cannot be anything
                // but Applied, and the credit steps carry no dependency.
                TxPlan::TrivialCredits {
                    credit_parts: wparts,
                }
            } else if vparts.len() == 1 {
                let vp = vparts[0];
                let credit_parts: Vec<usize> =
                    wparts.iter().copied().filter(|&q| q != vp).collect();
                if credit_parts.is_empty() {
                    TxPlan::Solo { part: vp }
                } else {
                    TxPlan::Split {
                        vpart: vp,
                        credit_parts,
                    }
                }
            } else {
                let mut parts = vparts;
                parts.extend_from_slice(&wparts);
                parts.sort_unstable();
                parts.dedup();
                TxPlan::Gang { parts }
            };
            plans.push(plan);
            rws.push(rw);
        }

        // Critical path of the schedule, in work units: each partition is a
        // serial resource; split credits start after both their partition is
        // free and their validate step finished; gangs synchronise every
        // involved partition.
        let mut time = vec![0u64; map.partitions()];
        let mut serial_units = 0u64;
        for plan in &plans {
            match plan {
                TxPlan::NotLocal => {}
                TxPlan::TrivialCredits { credit_parts } => {
                    serial_units += TX_UNITS;
                    for &q in credit_parts {
                        time[q] += C_UNITS;
                    }
                }
                TxPlan::Solo { part } => {
                    serial_units += TX_UNITS;
                    time[*part] += TX_UNITS;
                }
                TxPlan::Split {
                    vpart,
                    credit_parts,
                } => {
                    serial_units += TX_UNITS;
                    let done_v = time[*vpart] + V_UNITS;
                    time[*vpart] = done_v;
                    for &q in credit_parts {
                        time[q] = time[q].max(done_v) + C_UNITS;
                    }
                }
                TxPlan::Gang { parts } => {
                    serial_units += TX_UNITS;
                    let done = parts.iter().map(|&q| time[q]).max().unwrap_or(0) + TX_UNITS;
                    for &q in parts {
                        time[q] = done;
                    }
                }
            }
        }
        let makespan_units = time.into_iter().max().unwrap_or(0);
        Self {
            plans,
            rws,
            makespan_units,
            serial_units,
        }
    }

    /// Critical-path length of the schedule, in work units.
    pub fn makespan_units(&self) -> u64 {
        self.makespan_units
    }

    /// Serial reference cost of the batch ([`TX_UNITS`] per local
    /// transaction), in work units.
    pub fn serial_units(&self) -> u64 {
        self.serial_units
    }
}

/// The result of a partitioned batch apply: per-transaction outcomes in
/// batch-index order plus the plan's cost, priced by the apply-path model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionedApply {
    /// Execution outcomes, in the batch's original transaction order.
    pub outcomes: Vec<ExecutionOutcome>,
    /// Critical-path length of the executed schedule, in work units.
    pub makespan_units: u64,
    /// Serial reference cost of the batch, in work units.
    pub serial_units: u64,
}

/// Plans a committed batch and runs the plan's steps on the calling thread,
/// transaction by transaction: every step sees exactly the writes of the
/// transactions before it, so a correct plan reproduces serial apply.
pub(crate) fn execute(
    exec: &Executor,
    store: &mut PartitionedStore,
    txs: &[Arc<Transaction>],
) -> PartitionedApply {
    let map = store.partition_map();
    let plan = ExecPlan::build(exec, map, txs);
    let mut outcomes = Vec::with_capacity(txs.len());
    for ((tx, rw), tx_plan) in txs.iter().zip(&plan.rws).zip(&plan.plans) {
        let outcome = match tx_plan {
            TxPlan::NotLocal => ExecutionOutcome::NotLocal,
            TxPlan::TrivialCredits { credit_parts } => {
                for &q in credit_parts {
                    exec.run_credit_step(store.part_mut(q), tx, rw, map, q);
                }
                ExecutionOutcome::Applied
            }
            TxPlan::Solo { part } => {
                exec.run_validate_step(store.part_mut(*part), tx, rw, map, *part)
            }
            TxPlan::Split {
                vpart,
                credit_parts,
            } => {
                let outcome = exec.run_validate_step(store.part_mut(*vpart), tx, rw, map, *vpart);
                if outcome == ExecutionOutcome::Applied {
                    for &q in credit_parts {
                        exec.run_credit_step(store.part_mut(q), tx, rw, map, q);
                    }
                }
                outcome
            }
            TxPlan::Gang { .. } => exec.run_full(store, tx, rw),
        };
        outcomes.push(outcome);
    }
    PartitionedApply {
        outcomes,
        makespan_units: plan.makespan_units,
        serial_units: plan.serial_units,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccountStore, Partitioner, StateRead};
    use sharper_common::{ClientId, ClusterId, TxId};

    const APS: u64 = 2_000;

    fn exec() -> Executor {
        Executor::new(ClusterId(0), Partitioner::range(1, APS))
    }

    fn stores(partitions: usize) -> (AccountStore, PartitionedStore) {
        let e = exec();
        let flat = e.genesis_store(APS, 10_000, ClientId);
        let split = e.genesis_partitioned(partitions, APS, 10_000, ClientId);
        (flat, split)
    }

    fn transfer(seq: u64, from: u64, to: u64, amount: u64) -> Arc<Transaction> {
        Arc::new(Transaction::transfer(
            ClientId(from),
            seq,
            sharper_common::AccountId(from),
            sharper_common::AccountId(to),
            amount,
        ))
    }

    /// A deterministic pseudo-random stream (SplitMix64) so the differential
    /// tests cover many shapes without external crates.
    struct Mix(u64);
    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    fn random_batch(seed: u64, len: usize, accounts: u64) -> Vec<Arc<Transaction>> {
        let mut rng = Mix(seed);
        (0..len)
            .map(|seq| {
                let from = rng.next() % accounts;
                let to = rng.next() % accounts;
                // Mix in over-draws and self-transfers so aborts occur too.
                let amount = if rng.next().is_multiple_of(7) {
                    1_000_000
                } else {
                    1 + rng.next() % 50
                };
                transfer(seq as u64, from, to, amount)
            })
            .collect()
    }

    fn assert_identical_to_serial(batch: &[Arc<Transaction>], partitions: usize) {
        let e = exec();
        let (mut flat, mut split) = stores(partitions);
        let serial = e.apply_batch(&mut flat, batch);
        let stepped = e.apply_batch_partitioned(&mut split, batch);
        assert_eq!(
            serial, stepped.outcomes,
            "outcomes differ at {partitions} partitions"
        );
        assert_eq!(
            split.to_store(),
            flat,
            "state differs at {partitions} partitions"
        );
    }

    #[test]
    fn plan_classifies_solo_split_and_gang() {
        let e = exec();
        let map = PartitionMap::new(4, (APS / 4).max(1));
        // Solo: both accounts in partition 0.
        // Split: source in partition 0, credit in partition 2.
        // Gang: a two-op transaction reading partitions 1 and 3.
        let gang_tx = Arc::new(Transaction::new(
            TxId::new(ClientId(600), 2),
            vec![
                crate::Operation::Transfer {
                    from: sharper_common::AccountId(600),
                    to: sharper_common::AccountId(601),
                    amount: 1,
                },
                crate::Operation::Read {
                    account: sharper_common::AccountId(1_700),
                },
            ],
        ));
        let batch = vec![transfer(0, 10, 20, 1), transfer(1, 30, 1_200, 1), gang_tx];
        let plan = ExecPlan::build(&e, map, &batch);
        assert_eq!(plan.plans[0], TxPlan::Solo { part: 0 });
        assert_eq!(
            plan.plans[1],
            TxPlan::Split {
                vpart: 0,
                credit_parts: vec![2],
            }
        );
        assert_eq!(plan.plans[2], TxPlan::Gang { parts: vec![1, 3] });
        // Solo(3) then Split's validate(2) serialise on partition 0; the
        // split credit lands on partition 2 one unit later; the gang needs
        // partitions 1 and 3 which are otherwise empty.
        assert_eq!(plan.serial_units(), 3 * TX_UNITS);
        assert_eq!(plan.makespan_units(), 6);
    }

    #[test]
    fn trivial_credit_and_not_local_transactions_are_preset() {
        // Shard 0 of 2 under range(2, 100): accounts [0, 100).
        let e = Executor::new(ClusterId(0), Partitioner::range(2, 100));
        let map = PartitionMap::new(2, 50);
        let batch = vec![
            // Source remote, destination local: trivial credit.
            transfer(0, 150, 10, 1),
            // Entirely remote.
            transfer(1, 150, 160, 1),
        ];
        let plan = ExecPlan::build(&e, map, &batch);
        assert_eq!(
            plan.plans[0],
            TxPlan::TrivialCredits {
                credit_parts: vec![0],
            }
        );
        assert_eq!(plan.plans[1], TxPlan::NotLocal);
        assert_eq!(plan.serial_units(), TX_UNITS);
        assert_eq!(plan.makespan_units(), C_UNITS);
    }

    #[test]
    fn conflicting_transactions_stay_in_consensus_order() {
        // Three transfers draining the same source account: only the first
        // two can succeed, and which two depends entirely on batch order.
        let batch = vec![
            transfer(0, 10, 1_500, 6_000),
            transfer(1, 10, 700, 6_000),
            transfer(2, 10, 1_999, 4_000),
        ];
        for partitions in [1usize, 2, 4] {
            let e = exec();
            let (_, mut split) = stores(partitions);
            let result = e.apply_batch_partitioned(&mut split, &batch);
            assert_eq!(
                result.outcomes,
                vec![
                    ExecutionOutcome::Applied,
                    ExecutionOutcome::Aborted,
                    ExecutionOutcome::Applied,
                ],
                "{partitions} partitions"
            );
        }
    }

    #[test]
    fn cross_partition_transfer_ordering_is_serial() {
        // tx0 credits account 1500 (partition 3) from partition 0; tx1 then
        // spends from account 1500. Serially tx1 sees the credit; the
        // schedule must preserve that dependency across partitions.
        let batch = vec![
            transfer(0, 10, 1_500, 5_000),
            // Account 1500 starts with 10_000; after the credit it has
            // 15_000, so a 12_000 spend only works if the credit landed.
            transfer(1, 1_500, 20, 12_000),
        ];
        for partitions in [1usize, 2, 4, 8] {
            assert_identical_to_serial(&batch, partitions);
            let e = exec();
            let (_, mut split) = stores(partitions);
            let result = e.apply_batch_partitioned(&mut split, &batch);
            assert_eq!(
                result.outcomes,
                vec![ExecutionOutcome::Applied, ExecutionOutcome::Applied],
                "{partitions} partitions"
            );
        }
    }

    #[test]
    fn random_batches_match_serial_apply_bit_for_bit() {
        for seed in 0..8u64 {
            let batch = random_batch(seed, 64, APS);
            for partitions in [1usize, 2, 4, 8] {
                assert_identical_to_serial(&batch, partitions);
            }
        }
    }

    #[test]
    fn hot_key_skew_matches_serial_apply() {
        // Every transaction touches account 0: maximal conflicts, the
        // schedule degenerates to (mostly) serial but must stay correct.
        let mut rng = Mix(0xD06);
        let batch: Vec<Arc<Transaction>> = (0..48)
            .map(|seq| {
                if seq % 2 == 0 {
                    transfer(seq, 0, 1 + rng.next() % (APS - 1), 1 + rng.next() % 20)
                } else {
                    transfer(seq, 1 + rng.next() % (APS - 1), 0, 1 + rng.next() % 20)
                }
            })
            .collect();
        for partitions in [2usize, 4, 8] {
            assert_identical_to_serial(&batch, partitions);
        }
    }

    #[test]
    fn split_schedule_beats_serial_on_uniform_batches() {
        // The acceptance-criteria shape: a 16-tx uniform batch at 4
        // partitions must have a critical path at least 1.5× shorter than
        // serial execution.
        let e = exec();
        let map = PartitionMap::new(4, APS / 4);
        let batch = random_batch(0x5EED, 16, APS);
        let plan = ExecPlan::build(&e, map, &batch);
        assert_eq!(plan.serial_units(), 16 * TX_UNITS);
        assert!(
            plan.serial_units() as f64 / plan.makespan_units() as f64 >= 1.5,
            "makespan {} vs serial {}",
            plan.makespan_units(),
            plan.serial_units()
        );
    }

    #[test]
    fn gang_transactions_apply_atomically_across_partitions() {
        // One transaction whose two transfers read partitions 0 and 2.
        let tx = Arc::new(Transaction::new(
            TxId::new(ClientId(10), 0),
            vec![
                crate::Operation::Transfer {
                    from: sharper_common::AccountId(10),
                    to: sharper_common::AccountId(1_010),
                    amount: 100,
                },
                crate::Operation::Transfer {
                    from: sharper_common::AccountId(10),
                    to: sharper_common::AccountId(11),
                    amount: 50,
                },
            ],
        ));
        // Owner mismatch: client 10 does not own account 1010, so a second
        // gang transaction aborts without a trace.
        let bad = Arc::new(Transaction::new(
            TxId::new(ClientId(10), 1),
            vec![
                crate::Operation::Transfer {
                    from: sharper_common::AccountId(1_010),
                    to: sharper_common::AccountId(12),
                    amount: 1,
                },
                crate::Operation::Read {
                    account: sharper_common::AccountId(10),
                },
            ],
        ));
        let batch = vec![tx, bad];
        let e = exec();
        let (mut flat, mut split) = stores(4);
        let serial = e.apply_batch(&mut flat, &batch);
        let result = e.apply_batch_partitioned(&mut split, &batch);
        assert_eq!(serial, result.outcomes);
        assert_eq!(
            result.outcomes,
            vec![ExecutionOutcome::Applied, ExecutionOutcome::Aborted]
        );
        assert_eq!(split.to_store(), flat);
        assert_eq!(
            split.balance(sharper_common::AccountId(1_010)),
            Some(10_100)
        );
    }

    #[test]
    fn empty_and_single_partition_batches_run_sequentially() {
        let e = exec();
        let (_, mut split) = stores(1);
        let result = e.apply_batch_partitioned(&mut split, &[]);
        assert!(result.outcomes.is_empty());
        assert_eq!(result.makespan_units, 0);
        let batch = vec![transfer(0, 1, 2, 5)];
        let result = e.apply_batch_partitioned(&mut split, &batch);
        assert_eq!(result.outcomes, vec![ExecutionOutcome::Applied]);
        // One partition: the schedule is exactly serial.
        assert_eq!(result.makespan_units, result.serial_units);
    }
}
