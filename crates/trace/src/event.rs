//! The lifecycle event vocabulary and its deterministic stamps.

use std::fmt;

/// The deterministic logical clock attached to every recorded event.
///
/// Nothing here consults a wall clock: `seq` is the recorder's own
/// monotonic counter, `churn` mirrors the simulated world's topology
/// sequence (`Transport::churn_seq`) at recording time, and `at_us` is the
/// virtual `SimTime`-style clock in microseconds. Two runs of the same
/// deterministic workload produce byte-identical stamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stamp {
    /// Monotonic per-recorder event sequence, starting at 0.
    pub seq: u64,
    /// The world's churn sequence (topology epoch) when the event fired.
    pub churn: u64,
    /// Virtual time in microseconds when the event fired.
    pub at_us: u64,
}

/// A structured swap-lifecycle event.
///
/// `sc` is always the swap-cluster the event concerns; `epoch` the
/// swap-out epoch the blob on the wire was written under; `device` the
/// raw id of the storage device involved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// Swap-out of `sc` began (members captured next).
    DetachStart {
        /// Swap-cluster being detached.
        sc: u32,
    },
    /// Swap-out of `sc` completed: the blob is stored and the graph
    /// surgery is done.
    DetachEnd {
        /// Swap-cluster detached.
        sc: u32,
        /// Swap-out epoch the blob was written under.
        epoch: u32,
        /// Payload bytes per stored copy.
        bytes: u64,
        /// Holder devices that accepted a copy.
        copies: u32,
    },
    /// Swap-out of `sc` failed after it had started; the cluster is back
    /// to (or still in) its loaded state and any stored copies became
    /// tracked orphans.
    DetachAbort {
        /// Swap-cluster whose detach failed.
        sc: u32,
    },
    /// Reload of `sc` began (blob fetch next).
    ReloadStart {
        /// Swap-cluster being reloaded.
        sc: u32,
    },
    /// Reload of `sc` completed: members rematerialized, proxies patched.
    ReloadEnd {
        /// Swap-cluster reloaded.
        sc: u32,
        /// Swap-out epoch of the blob that was fetched.
        epoch: u32,
        /// Payload bytes fetched.
        bytes: u64,
        /// Holders that failed before one served the blob.
        failovers: u32,
    },
    /// Reload of `sc` failed (every holder unreachable, decode error, or
    /// heap exhaustion); the cluster stays swapped out.
    ReloadAbort {
        /// Swap-cluster whose reload failed.
        sc: u32,
    },
    /// One copy of `sc`'s blob was stored on `device` (swap-out fan-out
    /// or repair re-replication).
    BlobShipped {
        /// Swap-cluster the blob captures.
        sc: u32,
        /// Swap-out epoch of the blob.
        epoch: u32,
        /// Raw id of the storing device.
        device: u32,
        /// Payload bytes on the wire.
        bytes: u64,
        /// Airtime the transfer cost, in virtual microseconds.
        airtime_us: u64,
    },
    /// A holder of `sc`'s blob was instructed to drop its copy.
    BlobDropped {
        /// Swap-cluster the blob captured.
        sc: u32,
        /// Raw id of the holder.
        device: u32,
        /// Whether the drop reached the device (`false`: it departed or
        /// already lost the blob; the copy is tracked as an orphan).
        ok: bool,
    },
    /// GC cooperation released `sc` for good: its replacement-object died,
    /// holders were instructed to drop, and the cluster can never reload.
    ClusterDropped {
        /// Swap-cluster released by the collector.
        sc: u32,
    },
    /// A reload attempt moved past an unreachable holder to the next copy.
    Failover {
        /// Swap-cluster being reloaded.
        sc: u32,
        /// Swap-out epoch of the blob.
        epoch: u32,
        /// Raw id of the holder that could not serve the blob.
        device: u32,
    },
    /// A placement repair sweep began.
    RepairStart,
    /// A placement repair sweep finished.
    RepairEnd {
        /// Clusters whose holder set was re-replicated back toward `k`.
        repaired: u64,
        /// Bytes the sweep moved (fetches plus stores).
        bytes: u64,
    },
    /// A swap-cluster-proxy was created (rule i) for an edge out of `sc`.
    ProxyCreated {
        /// Source swap-cluster of the proxy.
        sc: u32,
    },
    /// An existing proxy was reused (rule ii) for an edge out of `sc`.
    ProxyReused {
        /// Source swap-cluster of the proxy.
        sc: u32,
    },
    /// A proxy was dismantled (rule iii): the reference re-entered `sc`.
    ProxyDismantled {
        /// Swap-cluster the reference re-entered.
        sc: u32,
    },
    /// An assign-marked proxy patched itself (iteration optimization)
    /// while crossing into `sc`.
    AssignPatch {
        /// Swap-cluster the marked proxy crossed into.
        sc: u32,
    },
    /// A collection ran and the swapping layer acted on the deaths its
    /// sweep reported (blob drops, proxy-table pruning).
    GcRun {
        /// Objects the collection freed.
        freed: u64,
        /// Dead swapped-out clusters whose blobs were dropped.
        dropped: u64,
    },
    /// A device holding a copy of `sc`'s blob left the room while the
    /// cluster was still swapped out.
    HolderLost {
        /// Swap-cluster whose blob lost a holder.
        sc: u32,
        /// Raw id of the departed holder.
        device: u32,
        /// Reachable holders remaining.
        left: u32,
    },
    /// The policy pump decided to apply an action.
    PumpAction {
        /// Kebab-case action name (`"swap-out-victims"`, …).
        action: String,
    },
}

impl EventKind {
    /// The stable kebab-case name used by the JSON wire format.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::DetachStart { .. } => "detach-start",
            EventKind::DetachEnd { .. } => "detach-end",
            EventKind::DetachAbort { .. } => "detach-abort",
            EventKind::ReloadStart { .. } => "reload-start",
            EventKind::ReloadEnd { .. } => "reload-end",
            EventKind::ReloadAbort { .. } => "reload-abort",
            EventKind::BlobShipped { .. } => "blob-shipped",
            EventKind::BlobDropped { .. } => "blob-dropped",
            EventKind::ClusterDropped { .. } => "cluster-dropped",
            EventKind::Failover { .. } => "failover",
            EventKind::RepairStart => "repair-start",
            EventKind::RepairEnd { .. } => "repair-end",
            EventKind::ProxyCreated { .. } => "proxy-created",
            EventKind::ProxyReused { .. } => "proxy-reused",
            EventKind::ProxyDismantled { .. } => "proxy-dismantled",
            EventKind::AssignPatch { .. } => "assign-patch",
            EventKind::GcRun { .. } => "gc-run",
            EventKind::HolderLost { .. } => "holder-lost",
            EventKind::PumpAction { .. } => "pump-action",
        }
    }

    /// The swap-cluster the event names, if any. Repair sweeps, GC runs
    /// and pump decisions are whole-manager events and return `None`.
    pub fn swap_cluster(&self) -> Option<u32> {
        match self {
            EventKind::DetachStart { sc }
            | EventKind::DetachEnd { sc, .. }
            | EventKind::DetachAbort { sc }
            | EventKind::ReloadStart { sc }
            | EventKind::ReloadEnd { sc, .. }
            | EventKind::ReloadAbort { sc }
            | EventKind::BlobShipped { sc, .. }
            | EventKind::BlobDropped { sc, .. }
            | EventKind::ClusterDropped { sc }
            | EventKind::Failover { sc, .. }
            | EventKind::ProxyCreated { sc }
            | EventKind::ProxyReused { sc }
            | EventKind::ProxyDismantled { sc }
            | EventKind::AssignPatch { sc }
            | EventKind::HolderLost { sc, .. } => Some(*sc),
            EventKind::RepairStart
            | EventKind::RepairEnd { .. }
            | EventKind::GcRun { .. }
            | EventKind::PumpAction { .. } => None,
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.swap_cluster() {
            Some(sc) => write!(f, "{} sc{sc}", self.name()),
            None => f.write_str(self.name()),
        }
    }
}

/// One stamped event in the trace stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// When (logically) the event fired.
    pub stamp: Stamp,
    /// What happened.
    pub kind: EventKind,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} [churn {}, t={}us] {}",
            self.stamp.seq, self.stamp.churn, self.stamp.at_us, self.kind
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_kebab_case() {
        let e = EventKind::DetachEnd {
            sc: 3,
            epoch: 1,
            bytes: 100,
            copies: 2,
        };
        assert_eq!(e.name(), "detach-end");
        assert_eq!(e.swap_cluster(), Some(3));
        assert_eq!(EventKind::RepairStart.swap_cluster(), None);
    }

    #[test]
    fn display_names_cluster_and_stamp() {
        let r = TraceRecord {
            stamp: Stamp {
                seq: 9,
                churn: 2,
                at_us: 1500,
            },
            kind: EventKind::ReloadStart { sc: 4 },
        };
        let s = r.to_string();
        assert!(s.contains("#9") && s.contains("reload-start sc4"), "{s}");
    }
}
