//! Configuration shared by every replica of a deployment, and the protocol
//! timers every replica runs with.

use sharper_common::{BatchConfig, CostModel, Duration, LedgerConfig, ReshardConfig, SystemConfig};
use sharper_crypto::KeyRegistry;
use sharper_state::Partitioner;

/// How long a node stays reserved for an accepted cross-shard proposal
/// before giving up on its commit (§3.2's "pre-determined time").
/// Comfortably above the worst-case cross-shard commit latency of the
/// default latency model (tens of milliseconds), so that in fault-free runs
/// reservations are normally released by commits (or by explicit aborts),
/// and conflicts cost little when they do force a timeout.
pub const CONFLICT_TIMEOUT: Duration = Duration::from_millis(400);

/// How long the initiator primary waits for cross-shard quorums before
/// re-initiating the transaction.
pub const RETRY_TIMEOUT: Duration = Duration::from_millis(100);

/// Maximum number of re-initiations before the initiator gives up.
pub const MAX_RETRIES: u32 = 6;

/// How long a backup waits for the commit of an in-flight request before
/// suspecting the primary and starting a view change.
pub const VIEW_CHANGE_TIMEOUT: Duration = Duration::from_millis(1_500);

/// How many times the initiator re-announces an `XAbort` after giving up on
/// a cross-shard batch (a single lost abort must not wedge a remote
/// primary's reservation).
pub const XABORT_RETRANSMITS: u32 = 2;

/// Interval between `XAbort` retransmissions.
pub const XABORT_RETRANSMIT_INTERVAL: Duration = Duration::from_millis(150);

/// Number of conflict-timeout renewals a reserved *primary* waits before
/// probing the initiator cluster for the fate of its reservation (crash
/// model). 2 renewals ≈ 800ms+, past the initiator's give-up window of
/// `MAX_RETRIES × RETRY_TIMEOUT` ≈ 700ms and the abort retransmissions, so
/// probes only fire for genuinely lost commits/aborts.
pub const RESERVATION_PROBE_AFTER: u32 = 2;

/// How long a primary's partially filled batch may wait for more
/// transactions before it is proposed anyway. Never armed when
/// `max_batch_size` is `1` (batches are always "full").
pub const BATCH_TIMEOUT: Duration = Duration::from_millis(2);

/// Everything a replica needs to know about the deployment it is part of.
///
/// Wrapped in an `Arc` by the system layer so that the hundreds of replicas
/// of a simulation share one copy.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Cluster membership, failure model, quorum sizes, initiation policy.
    pub system: SystemConfig,
    /// Mapping of accounts to shards.
    pub partitioner: Partitioner,
    /// CPU cost model used for simulation accounting.
    pub cost: CostModel,
    /// How primaries group transactions into blocks (`max_batch_size = 1`
    /// reproduces the paper's one-transaction blocks).
    pub batch: BatchConfig,
    /// How replica ledger views retain committed history (retain-all by
    /// default; checkpoint + truncate behind the audit watermark when
    /// enabled — results are bit-identical either way).
    pub ledger: LedgerConfig,
    /// Dynamic resharding: load reporting, split/merge thresholds and forced
    /// moves (disabled by default; crash model only).
    pub reshard: ReshardConfig,
    /// The key registry modelling the PKI (§2.1).
    pub registry: KeyRegistry,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharper_common::FailureModel;
    use sharper_crypto::keys::SignerId;
    use std::sync::Arc;

    #[test]
    fn default_timers_are_ordered_sensibly() {
        assert!(RETRY_TIMEOUT <= CONFLICT_TIMEOUT);
        assert!(VIEW_CHANGE_TIMEOUT > CONFLICT_TIMEOUT);
        const { assert!(MAX_RETRIES > 0) };
        // The reservation probe must not fire before the initiator has had a
        // chance to give up and retransmit its abort. Retry timers carry a
        // deterministic jitter of at most RETRY_TIMEOUT/4 per attempt, so
        // the worst-case give-up window is MAX_RETRIES × 1.25 × RETRY_TIMEOUT
        // (750ms, still under the 800ms probe).
        let per_attempt = RETRY_TIMEOUT + Duration::from_micros(RETRY_TIMEOUT.as_micros() / 4);
        let give_up = per_attempt.saturating_mul(u64::from(MAX_RETRIES));
        let probe = CONFLICT_TIMEOUT.saturating_mul(u64::from(RESERVATION_PROBE_AFTER));
        assert!(probe > give_up);
        const { assert!(XABORT_RETRANSMITS > 0) };
        assert!(XABORT_RETRANSMIT_INTERVAL > Duration::ZERO);
        assert!(BATCH_TIMEOUT > Duration::ZERO);
    }

    #[test]
    fn shared_config_is_cheap_to_clone() {
        let system = SystemConfig::uniform(FailureModel::Crash, 2, 1).unwrap();
        let (registry, _) = KeyRegistry::generate(1, (0..6).map(SignerId));
        let cfg = Arc::new(ReplicaConfig {
            system,
            partitioner: Partitioner::range(2, 100),
            cost: CostModel::default(),
            batch: BatchConfig::default(),
            ledger: LedgerConfig::default(),
            reshard: ReshardConfig::default(),
            registry,
        });
        let clone = Arc::clone(&cfg);
        assert_eq!(Arc::strong_count(&cfg), 2);
        assert_eq!(clone.system.cluster_count(), 2);
    }
}
