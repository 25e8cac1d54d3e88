//! The sharded lock table behind the concurrent swapping manager.
//!
//! Cluster-keyed state (registry entries, placements, orphan and
//! holder-loss bookkeeping) is split across N [`Shard`]s; process-wide
//! state (the proxy tables, grouping map, config, policy-event queue)
//! lives in the single [`Coordinator`]. The lock hierarchy is
//!
//! ```text
//! coordinator → shard (ascending index) → net → recorder
//! ```
//!
//! acquired strictly left to right and never backwards: a function
//! holding a shard guard may lock the net but must never call back into
//! the coordinator, and two shard guards are only ever taken through
//! [`lock_shard_pair`], which orders them by ascending index.

use crate::swap_cluster::SwapClusterEntry;
use crate::{Result, SwapConfig, SwapError};
use obiwan_heap::{Heap, Oid, WeakRef};
use obiwan_net::{DeviceId, DeviceKind};
use obiwan_placement::PlacementTable;
use obiwan_policy::PolicyEvent;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, MutexGuard};

/// One shard of the manager's cluster-keyed state. Every swap-cluster id
/// maps to exactly one shard (see [`shard_for`]); all state about that
/// cluster lives behind that shard's lock.
#[derive(Debug, Default)]
pub(crate) struct Shard {
    /// Swap-cluster registry (the slice of it hashing to this shard).
    pub(crate) clusters: BTreeMap<u32, SwapClusterEntry>,
    /// Where every swapped-out cluster's blob copies live.
    pub(crate) placements: PlacementTable,
    /// Blobs stored on neighbours that no longer back any swap-cluster
    /// (a swap-out failed after its blob was stored); dropped
    /// opportunistically.
    pub(crate) orphaned_blobs: Vec<(DeviceId, String)>,
    /// (swap-cluster, holder) losses already reported as
    /// [`PolicyEvent::HolderLost`], so churn does not re-fire every pump.
    pub(crate) lost_reported: BTreeSet<(u32, DeviceId)>,
}

/// Process-wide manager state: everything not keyed by swap-cluster, plus
/// the proxy tables (proxies mediate *pairs* of clusters, so no single
/// shard owns them).
#[derive(Debug)]
pub(crate) struct Coordinator {
    pub(crate) config: SwapConfig,
    /// Device kind preferred as swap target (set by policies).
    pub(crate) preferred_kind: Option<DeviceKind>,
    /// Proxy reuse table: (source swap-cluster, target identity) → proxy.
    pub(crate) proxy_index: BTreeMap<(u32, Oid), WeakRef>,
    /// Proxies whose *target* lives in the keyed swap-cluster (inbound).
    pub(crate) inbound: BTreeMap<u32, Vec<WeakRef>>,
    /// Proxies whose *source* is the keyed swap-cluster (outbound).
    pub(crate) outbound: BTreeMap<u32, Vec<WeakRef>>,
    /// Proxies that died since the three tables above were last compacted.
    /// A dead proxy's entries resolve to `None` until then.
    pub(crate) dead_proxies: usize,
    /// How many entries the tables held after their last compaction.
    pub(crate) compacted_entries: usize,
    /// Mapping replication cluster → swap-cluster (grouping).
    pub(crate) repl_to_sc: BTreeMap<u32, u32>,
    pub(crate) next_sc: u32,
    /// Events for the policy engine, drained by the middleware.
    pub(crate) events: Vec<PolicyEvent>,
}

impl Coordinator {
    pub(crate) fn new(config: SwapConfig) -> Self {
        Coordinator {
            config,
            preferred_kind: None,
            proxy_index: BTreeMap::new(),
            inbound: BTreeMap::new(),
            outbound: BTreeMap::new(),
            dead_proxies: 0,
            compacted_entries: 0,
            repl_to_sc: BTreeMap::new(),
            next_sc: 1,
            events: Vec::new(),
        }
    }

    /// Count `dead` proxy deaths, and drop every dead entry from the proxy
    /// tables once the deaths since the last compaction reach the entries
    /// that compaction left. A compaction costs what was listed since, plus
    /// the deaths that paid for it, so each death and each registration
    /// costs amortized constant time, and the survivors keep their order.
    pub(crate) fn unlist_dead_proxies(&mut self, dead: usize, heap: &Heap) {
        self.dead_proxies += dead;
        if self.dead_proxies < self.compacted_entries {
            return;
        }
        let live = |w: &WeakRef| heap.weak_get(*w).is_some();
        self.proxy_index.retain(|_, w| live(w));
        let mut entries = self.proxy_index.len();
        for list in self.inbound.values_mut().chain(self.outbound.values_mut()) {
            list.retain(live);
            entries += list.len();
        }
        self.dead_proxies = 0;
        self.compacted_entries = entries;
    }
}

/// The shard a swap-cluster's state lives on: a splitmix64 finalizer over
/// the id, reduced modulo the shard count. Stable across runs (traces and
/// placements stay reproducible) and well-mixed even for the consecutive
/// small ids the grouping map hands out.
pub(crate) fn shard_for(sc: u32, shards: usize) -> usize {
    let mut x = u64::from(sc).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % shards as u64) as usize
}

/// Lock the coordinator, turning poisoning into a structured error
/// instead of a cascading panic.
pub(crate) fn lock_coordinator(c: &Mutex<Coordinator>) -> Result<MutexGuard<'_, Coordinator>> {
    c.lock().map_err(|_| SwapError::LockPoisoned {
        what: "coordinator",
        shard: None,
    })
}

/// Lock one shard of the table, naming the shard index on poisoning.
pub(crate) fn lock_shard(shards: &[Mutex<Shard>], idx: usize) -> Result<MutexGuard<'_, Shard>> {
    shards[idx].lock().map_err(|_| SwapError::LockPoisoned {
        what: "shard",
        shard: Some(idx as u32),
    })
}

/// Lock two shards in the canonical order — ascending index — so any two
/// cross-shard operations agree on acquisition order and cannot deadlock
/// against each other. When both ids land on the same shard the single
/// guard is returned with `None` (a `std::sync::Mutex` is not reentrant).
///
/// The first guard is always the lower-indexed shard; callers map their
/// logical ids back through `shard_for` to find which guard is which.
pub(crate) fn lock_shard_pair<'a>(
    shards: &'a [Mutex<Shard>],
    a: usize,
    b: usize,
) -> Result<(MutexGuard<'a, Shard>, Option<MutexGuard<'a, Shard>>)> {
    let lo = a.min(b);
    let hi = a.max(b);
    let first = lock_shard(shards, lo)?;
    let second = if lo < hi {
        Some(lock_shard(shards, hi)?)
    } else {
        None
    };
    Ok((first, second))
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may panic on impossible states
mod tests {
    use super::*;

    #[test]
    fn shard_map_is_stable_and_in_range() {
        for n in [1usize, 2, 8, 13] {
            for sc in 0..256u32 {
                let s = shard_for(sc, n);
                assert!(s < n);
                assert_eq!(s, shard_for(sc, n), "shard map must be deterministic");
            }
        }
    }

    #[test]
    fn shard_map_spreads_consecutive_ids() {
        let n = 8;
        let hit: BTreeSet<usize> = (0..64u32).map(|sc| shard_for(sc, n)).collect();
        assert_eq!(hit.len(), n, "64 consecutive ids should touch all 8 shards");
    }

    #[test]
    fn pair_lock_orders_by_index_and_handles_same_shard() {
        let shards: Vec<Mutex<Shard>> = (0..4).map(|_| Mutex::new(Shard::default())).collect();
        let (first, second) = lock_shard_pair(&shards, 3, 1).expect("pair");
        assert!(second.is_some(), "distinct shards yield two guards");
        drop(second);
        drop(first);
        let (first, second) = lock_shard_pair(&shards, 2, 2).expect("pair");
        assert!(second.is_none(), "same shard yields one guard");
        drop(first);
    }
}
