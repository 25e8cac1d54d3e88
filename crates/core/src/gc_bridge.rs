//! GC cooperation (paper §3, *Integration with GC Mechanisms*).
//!
//! "When a replacement-object, standing in for a swap-cluster that has been
//! swapped-out, becomes unreachable, this means that all object replicas
//! enclosed in it are already unreachable to the application. Therefore,
//! the swapping device may be instructed to discard the XML text."
//!
//! The heap reports the death of finalizable objects through
//! [`obiwan_heap::Heap::take_finalized`]; this module turns those records
//! into blob drops (for replacement-objects) and table pruning (for
//! swap-cluster-proxies, whose "finalizer invokes code that eliminates
//! entries referring to it"). [`SwappingManager::reclaim`] is the one
//! place the swapping layer collects, minor or full, so no collection
//! leaves its records behind.

use crate::manager::lock_net;
use crate::shard::{lock_coordinator, lock_shard, Shard};
use crate::swap_cluster::SwapClusterState;
use crate::{Result, SwappingManager};
use obiwan_heap::{CollectStats, Collection, ObjectKind};
use obiwan_net::NetFabric;
use obiwan_placement::Placement;
use obiwan_replication::Process;

impl SwappingManager {
    /// Run a collection of the given kind, run the finalizers of what died
    /// (blob drops, table pruning) and record the `gc-run` event. Call
    /// with no manager guard held.
    ///
    /// # Errors
    ///
    /// As [`SwappingManager::process_finalized`]; the collection itself
    /// has happened by then, and no `gc-run` event is recorded.
    pub(crate) fn reclaim(&self, p: &mut Process, kind: Collection) -> Result<CollectStats> {
        let stats = p.collect(kind);
        let dropped = self.process_finalized(p)?;
        self.recorder
            .gc_run(stats.freed_objects as u64, dropped as u64);
        Ok(stats)
    }

    /// Process the finalization records of the collection that just ran:
    /// instruct storing devices to drop blobs of dead swapped-out clusters,
    /// and count the dead proxies toward the next compaction of the proxy
    /// tables ([`crate::shard::Coordinator::unlist_dead_proxies`]).
    ///
    /// Dead replacement-objects are handled per owning shard (shard → net
    /// per the hierarchy); dead proxies are counted in one coordinator
    /// acquisition afterwards, so coordinator and shard guards never
    /// overlap here.
    ///
    /// Returns the number of blobs dropped.
    ///
    /// # Errors
    ///
    /// [`crate::SwapError::LockPoisoned`] when a shard, the net or the
    /// coordinator lock is poisoned. A holder that refuses the drop is
    /// counted and its copy tracked as an orphan, not an error.
    fn process_finalized(&self, p: &mut Process) -> Result<usize> {
        let records = p.heap_mut().take_finalized();
        let mut dropped = 0;
        let mut dead_proxies = 0;
        for fin in records {
            match fin.kind {
                ObjectKind::Replacement => {
                    let sc = fin.swap_cluster;
                    let mut shard = lock_shard(&self.shards, self.shard_of(sc))?;
                    // Only the cluster's current stand-in counts: a
                    // half-built replacement from a detach that failed
                    // is garbage too, and may die after a retry has
                    // swapped the cluster out.
                    if !matches!(
                        shard.clusters.get(&sc).map(|e| &e.state),
                        Some(SwapClusterState::SwappedOut { replacement }) if *replacement == fin.obj
                    ) {
                        continue;
                    }
                    // Fan the drop out to every holder the placement
                    // lists, not just the primary.
                    if let Some((_, placement)) = shard.placements.remove(sc) {
                        let mut net = lock_net(&self.net)?;
                        self.recorder.sync_clock(&net);
                        if self.discard_copies(&mut net, &mut shard, sc, placement) {
                            dropped += 1;
                        }
                    }
                    self.recorder.cluster_dropped(sc);
                    if let Some(entry) = shard.clusters.get_mut(&sc) {
                        entry.state = SwapClusterState::Dropped;
                        for (oid, _) in entry.members.drain(..) {
                            p.clear_swapped(oid);
                        }
                    }
                }
                ObjectKind::SwapProxy => dead_proxies += 1,
                _ => {}
            }
        }
        if dead_proxies > 0 {
            lock_coordinator(&self.coordinator)?.unlist_dead_proxies(dead_proxies, p.heap());
        }
        Ok(dropped)
    }

    /// Tell every holder a retired `placement` of `sc` lists to discard
    /// its copy, tracing each attempt; a holder that refuses keeps its
    /// copy as a tracked orphan for the sweep. Returns whether any copy
    /// was dropped. Caller holds `sc`'s shard guard and the net guard.
    pub(crate) fn discard_copies(
        &self,
        net: &mut NetFabric,
        shard: &mut Shard,
        sc: u32,
        placement: Placement,
    ) -> bool {
        let mut any = false;
        for holder in placement.holders {
            let ok = self.reach.discard(net, holder, &placement.key).is_ok();
            self.recorder.sync_clock(net);
            self.recorder.blob_dropped(sc, holder.index(), ok);
            if !ok {
                shard.orphaned_blobs.push((holder, placement.key.clone()));
            }
            any |= ok;
        }
        any
    }
}
