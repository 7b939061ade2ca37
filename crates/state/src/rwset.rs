//! Per-transaction read/write sets and batch conflict detection.
//!
//! The executor computes, once per transaction, which of its operation
//! accounts are local to the shard and whether they are read during
//! validation (a transfer's source must be checked for ownership and
//! balance; a read operation must exist) or only written (a credit to the
//! destination account). Validation and apply both consume this summary, so
//! account → shard ownership is resolved exactly once per account on the hot
//! path, and the partitioned plan uses the same summary to route
//! transactions to state partitions.

use sharper_common::AccountId;

/// Locality of one [`crate::Operation`]'s accounts, aligned with the
/// transaction's `operations` vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpLocality {
    /// A transfer: whether the debited source / credited destination account
    /// belongs to this shard.
    Transfer {
        /// The source account is local (validated and debited here).
        from_local: bool,
        /// The destination account is local (credited here).
        to_local: bool,
    },
    /// A balance read: whether the account belongs to this shard.
    Read {
        /// The read account is local (validated here).
        local: bool,
    },
    /// A resharding control operation (freeze or handover): whether this
    /// shard participates. Reshard transactions only apply serially, so the
    /// flag only feeds `any_local`.
    Reshard {
        /// This shard is the range's source or destination.
        local: bool,
    },
}

/// The local read/write footprint of one transaction on one shard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RwSet {
    /// Local accounts read during validation (transfer sources, read ops).
    reads: Vec<AccountId>,
    /// Local accounts written on apply (transfer sources and destinations).
    writes: Vec<AccountId>,
    /// Per-operation locality flags, aligned with `tx.operations`.
    ops: Vec<OpLocality>,
}

impl RwSet {
    /// Builds a read/write set from per-operation locality decisions.
    pub(crate) fn from_ops(
        ops: Vec<OpLocality>,
        reads: Vec<AccountId>,
        writes: Vec<AccountId>,
    ) -> Self {
        Self { reads, writes, ops }
    }

    /// Local accounts read during validation.
    pub fn reads(&self) -> &[AccountId] {
        &self.reads
    }

    /// Local accounts written on apply.
    pub fn writes(&self) -> &[AccountId] {
        &self.writes
    }

    /// Per-operation locality, aligned with the transaction's operations.
    pub fn ops(&self) -> &[OpLocality] {
        &self.ops
    }

    /// Whether any operation touches this shard.
    pub fn any_local(&self) -> bool {
        self.ops.iter().any(|op| match op {
            OpLocality::Transfer {
                from_local,
                to_local,
            } => *from_local || *to_local,
            OpLocality::Read { local } => *local,
            OpLocality::Reshard { local } => *local,
        })
    }

    /// Whether this transaction conflicts with `other`: some account written
    /// by one is read or written by the other. Read-read sharing is not a
    /// conflict. Conflicting transactions must stay in consensus order.
    pub fn conflicts_with(&self, other: &RwSet) -> bool {
        let hits = |writes: &[AccountId], reads: &[AccountId], other_writes: &[AccountId]| {
            writes
                .iter()
                .any(|w| reads.contains(w) || other_writes.contains(w))
        };
        hits(&self.writes, &other.reads, &other.writes)
            || hits(&other.writes, &self.reads, &self.writes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Executor, Partitioner, Transaction};
    use sharper_common::{ClientId, ClusterId, TxId};

    fn exec() -> Executor {
        Executor::new(ClusterId(0), Partitioner::range(4, 100))
    }

    fn read_tx(seq: u64, account: u64) -> Transaction {
        Transaction::new(
            TxId::new(ClientId(1), seq),
            vec![crate::Operation::Read {
                account: sharper_common::AccountId(account),
            }],
        )
    }

    #[test]
    fn transfer_rw_set_reads_source_writes_both() {
        let e = exec();
        let tx = Transaction::transfer(
            ClientId(1),
            0,
            sharper_common::AccountId(1),
            sharper_common::AccountId(2),
            10,
        );
        let rw = e.rw_set(&tx);
        assert!(rw.any_local());
        assert_eq!(rw.reads(), &[sharper_common::AccountId(1)]);
        assert_eq!(
            rw.writes(),
            &[sharper_common::AccountId(1), sharper_common::AccountId(2)]
        );
        assert_eq!(
            rw.ops(),
            &[OpLocality::Transfer {
                from_local: true,
                to_local: true,
            }]
        );
    }

    #[test]
    fn remote_accounts_are_excluded() {
        let e = exec();
        // Source in shard 1, destination local: credit-only involvement.
        let tx = Transaction::transfer(
            ClientId(1),
            0,
            sharper_common::AccountId(150),
            sharper_common::AccountId(2),
            10,
        );
        let rw = e.rw_set(&tx);
        assert!(rw.any_local());
        assert!(rw.reads().is_empty());
        assert_eq!(rw.writes(), &[sharper_common::AccountId(2)]);

        // Entirely remote: nothing local at all.
        let tx = Transaction::transfer(
            ClientId(1),
            1,
            sharper_common::AccountId(150),
            sharper_common::AccountId(250),
            10,
        );
        assert!(!e.rw_set(&tx).any_local());
    }

    #[test]
    fn read_read_is_not_a_conflict() {
        let e = exec();
        let a = e.rw_set(&read_tx(0, 5));
        let b = e.rw_set(&read_tx(1, 5));
        assert!(!a.conflicts_with(&b));
        assert!(!b.conflicts_with(&a));
    }

    #[test]
    fn write_write_and_read_write_conflict() {
        let e = exec();
        let t1 = e.rw_set(&Transaction::transfer(
            ClientId(1),
            0,
            sharper_common::AccountId(1),
            sharper_common::AccountId(2),
            10,
        ));
        let t2 = e.rw_set(&Transaction::transfer(
            ClientId(2),
            0,
            sharper_common::AccountId(3),
            sharper_common::AccountId(2),
            10,
        ));
        // Both credit account 2: write-write conflict.
        assert!(t1.conflicts_with(&t2));

        // t3 reads account 2 (balance read) while t1 writes it.
        let t3 = e.rw_set(&read_tx(1, 2));
        assert!(t1.conflicts_with(&t3));
        assert!(t3.conflicts_with(&t1));

        // Disjoint accounts: no conflict.
        let t4 = e.rw_set(&Transaction::transfer(
            ClientId(3),
            0,
            sharper_common::AccountId(40),
            sharper_common::AccountId(41),
            10,
        ));
        assert!(!t1.conflicts_with(&t4));
    }
}
