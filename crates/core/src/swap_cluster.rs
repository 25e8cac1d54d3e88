//! Swap-cluster registry entries and their state machine.

use obiwan_heap::{ObjRef, Oid};

/// Lifecycle of a swap-cluster.
///
/// ```text
/// Loaded ──swap-out──▶ SwappedOut ──reload──▶ Loaded
///                          │
///                          └─replacement collected─▶ Dropped
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwapClusterState {
    /// Members are live replicas on the device.
    Loaded,
    /// Members are serialized on storing devices; a replacement-object
    /// stands in for them in the graph. Which devices hold the copies,
    /// under which key, is recorded only in the owning shard's placement
    /// table ([`crate::SwappingManager::holders_of`]).
    SwappedOut {
        /// The replacement-object.
        replacement: ObjRef,
    },
    /// The replacement-object died while swapped out: the application can
    /// never reach these objects again, and every holder its placement
    /// listed has been (or could not be) instructed to drop its copy.
    Dropped,
}

impl SwapClusterState {
    /// Short state name for errors and reports.
    pub fn name(&self) -> &'static str {
        match self {
            SwapClusterState::Loaded => "loaded",
            SwapClusterState::SwappedOut { .. } => "swapped-out",
            SwapClusterState::Dropped => "dropped",
        }
    }
}

/// Registry entry for one swap-cluster: membership, accounting, and the
/// recency / frequency statistics the victim policies consume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapClusterEntry {
    /// Current lifecycle state.
    pub state: SwapClusterState,
    /// Member identities with their current replica handles (handles are
    /// only meaningful while `Loaded`).
    pub members: Vec<(Oid, ObjRef)>,
    /// Bytes the members occupy while loaded.
    pub bytes: usize,
    /// Boundary crossings into this cluster (frequency).
    pub crossings: u64,
    /// Boundary crossings *out of* this cluster: invocations that left
    /// through one of its proxies. Bookkeeping only (victim policies key
    /// on inbound crossings), but it makes cross-shard crossing updates a
    /// genuine two-shard transaction.
    pub out_crossings: u64,
    /// Logical time of the latest crossing (recency).
    pub last_crossing: u64,
    /// Swap-out epoch: increments per swap-out, making blob keys unique.
    pub epoch: u32,
}

impl SwapClusterEntry {
    /// A fresh, empty, loaded entry.
    pub fn new() -> Self {
        SwapClusterEntry {
            state: SwapClusterState::Loaded,
            members: Vec::new(),
            bytes: 0,
            crossings: 0,
            out_crossings: 0,
            last_crossing: 0,
            epoch: 0,
        }
    }

    /// Number of member objects.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// Whether the cluster is currently loaded.
    pub fn is_loaded(&self) -> bool {
        matches!(self.state, SwapClusterState::Loaded)
    }
}

impl Default for SwapClusterEntry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may panic on impossible states
mod tests {
    use super::*;

    #[test]
    fn state_names_are_stable() {
        assert_eq!(SwapClusterState::Loaded.name(), "loaded");
        assert_eq!(SwapClusterState::Dropped.name(), "dropped");
        assert_eq!(
            SwapClusterState::SwappedOut {
                replacement: ObjRef::test_dummy(0),
            }
            .name(),
            "swapped-out"
        );
    }

    #[test]
    fn fresh_entry_is_loaded_and_empty() {
        let e = SwapClusterEntry::new();
        assert!(e.is_loaded());
        assert_eq!(e.member_count(), 0);
        assert_eq!(e.epoch, 0);
    }
}
