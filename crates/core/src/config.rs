//! Configuration of the swapping layer.

use crate::wire::WireFormatKind;
use crate::VictimPolicy;
use obiwan_placement::PlacementKind;

/// Tunables of the Object-Swapping mechanism.
///
/// # Examples
///
/// ```
/// use obiwan_core::{SwapConfig, VictimPolicy};
///
/// let cfg = SwapConfig::default()
///     .clusters_per_swap_cluster(5)
///     .victim_policy(VictimPolicy::LeastRecentlyUsed);
/// assert_eq!(cfg.clusters_per_swap_cluster, 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapConfig {
    /// How many replication clusters form one swap-cluster (the paper's
    /// "considering a number (also adaptable) of chained (via references)
    /// object clusters as a single macro-object").
    pub clusters_per_swap_cluster: usize,
    /// Which swap-cluster to evict under pressure.
    pub victim_policy: VictimPolicy,
    /// Run a local collection right after a swap-out so the freed memory is
    /// immediately available (the paper's LGC cooperation).
    pub collect_after_swap_out: bool,
    /// Instruct the storing device to drop the blob as soon as the cluster
    /// has been swapped back in (fresh keys are used per swap-out epoch, so
    /// leaving blobs behind only wastes the neighbour's quota).
    pub drop_blob_on_reload: bool,
    /// Allow swap targets that are only reachable through relays — the
    /// paper's closing vision of devices "available to any user either to
    /// store data or to relay communications". Every hop pays its airtime.
    pub allow_relays: bool,
    /// Wire format new swap-out blobs are written in. Reloads auto-detect
    /// from the blob's self-describing header, so rooms may mix formats;
    /// the default stays the paper's portable XML text.
    pub wire_format: WireFormatKind,
    /// How many holder devices each swap-out blob is stored on. The
    /// default of 1 reproduces the paper's single-copy semantics exactly;
    /// higher values buy availability under churn at the cost of fan-out
    /// traffic, with the repair sweep topping holders back up to `k` when
    /// one departs.
    pub replication_factor: usize,
    /// Which built-in [`PlacementKind`] ranks candidate holders. The
    /// default first-fit order is identical to the pre-placement neighbour
    /// choice, so single-copy worlds pick the same device as before.
    pub placement: PlacementKind,
    /// Ring capacity of the lifecycle trace sink. Events past the capacity
    /// evict the oldest record, which marks the exported trace as
    /// truncated — size this to the workload when the trace must pass the
    /// conformance checker end-to-end.
    pub trace_capacity: usize,
    /// How many shards the manager's cluster-keyed state is split across.
    /// Each swap-cluster maps to one shard (`shard_for`); maintenance
    /// threads touching different shards never contend. One shard
    /// reproduces the old fully-serialized manager.
    pub shard_count: usize,
}

impl Default for SwapConfig {
    fn default() -> Self {
        SwapConfig {
            clusters_per_swap_cluster: 1,
            victim_policy: VictimPolicy::default(),
            collect_after_swap_out: true,
            drop_blob_on_reload: true,
            allow_relays: false,
            wire_format: WireFormatKind::default(),
            replication_factor: 1,
            placement: PlacementKind::default(),
            trace_capacity: obiwan_trace::DEFAULT_CAPACITY,
            shard_count: 8,
        }
    }
}

impl SwapConfig {
    /// Set how many replication clusters group into one swap-cluster.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn clusters_per_swap_cluster(mut self, n: usize) -> Self {
        assert!(n > 0, "a swap-cluster groups at least one cluster");
        self.clusters_per_swap_cluster = n;
        self
    }

    /// Set the victim-selection policy.
    pub fn victim_policy(mut self, policy: VictimPolicy) -> Self {
        self.victim_policy = policy;
        self
    }

    /// Control post-swap-out collection.
    pub fn collect_after_swap_out(mut self, yes: bool) -> Self {
        self.collect_after_swap_out = yes;
        self
    }

    /// Control eager blob dropping on reload.
    pub fn drop_blob_on_reload(mut self, yes: bool) -> Self {
        self.drop_blob_on_reload = yes;
        self
    }

    /// Allow relayed (multi-hop) swap targets.
    pub fn allow_relays(mut self, yes: bool) -> Self {
        self.allow_relays = yes;
        self
    }

    /// Select the wire format for new swap-out blobs.
    pub fn wire_format(mut self, kind: WireFormatKind) -> Self {
        self.wire_format = kind;
        self
    }

    /// Set how many holder devices store each swap-out blob.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn replication_factor(mut self, k: usize) -> Self {
        assert!(k > 0, "a blob needs at least one holder");
        self.replication_factor = k;
        self
    }

    /// Select the placement strategy that ranks candidate holders.
    pub fn placement(mut self, kind: PlacementKind) -> Self {
        self.placement = kind;
        self
    }

    /// Size the lifecycle trace ring (events kept before eviction).
    pub fn trace_capacity(mut self, events: usize) -> Self {
        self.trace_capacity = events;
        self
    }

    /// Set how many shards split the manager's cluster-keyed state.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn shard_count(mut self, n: usize) -> Self {
        assert!(n > 0, "the manager needs at least one shard");
        self.shard_count = n;
        self
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may panic on impossible states
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_shape() {
        let c = SwapConfig::default();
        assert_eq!(c.clusters_per_swap_cluster, 1);
        assert!(c.collect_after_swap_out);
        assert!(c.drop_blob_on_reload);
        // The paper-faithful portable text stays the default wire format.
        assert_eq!(c.wire_format, WireFormatKind::Xml);
        // Single-copy placement is the paper's semantics.
        assert_eq!(c.replication_factor, 1);
        assert_eq!(c.placement, PlacementKind::FirstFit);
        assert_eq!(c.trace_capacity, obiwan_trace::DEFAULT_CAPACITY);
        assert_eq!(c.shard_count, 8);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = SwapConfig::default().shard_count(0);
    }

    #[test]
    #[should_panic(expected = "at least one holder")]
    fn zero_replication_rejected() {
        let _ = SwapConfig::default().replication_factor(0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_grouping_rejected() {
        let _ = SwapConfig::default().clusters_per_swap_cluster(0);
    }
}
