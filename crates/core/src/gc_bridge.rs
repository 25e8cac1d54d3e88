//! GC cooperation (paper §3, *Integration with GC Mechanisms*).
//!
//! "When a replacement-object, standing in for a swap-cluster that has been
//! swapped-out, becomes unreachable, this means that all object replicas
//! enclosed in it are already unreachable to the application. Therefore,
//! the swapping device may be instructed to discard the XML text."
//!
//! The sweep's per-dead hook, passed through [`Process::collect`], is the
//! one way this layer hears of a death. [`SwappingManager::reclaim`] lists
//! the dead replacement-objects and turns them into blob drops once the
//! collection returns, and counts the dead swap-cluster-proxies toward the
//! next compaction of the proxy tables. The paper's proxy finalizer
//! "invokes code that eliminates entries referring to it"; here a proxy
//! has no finalizer: the weak table clears its entries, and the count
//! drives the compaction. [`SwappingManager::reclaim`] is the one place the
//! swapping layer collects, minor or full, so no death goes unheard.

use crate::manager::lock_net;
use crate::shard::{lock_coordinator, lock_shard, Shard};
use crate::swap_cluster::SwapClusterState;
use crate::{Result, SwappingManager};
use obiwan_heap::{CollectStats, Collection, ObjRef, ObjectKind};
use obiwan_net::NetFabric;
use obiwan_placement::Placement;
use obiwan_replication::Process;

impl SwappingManager {
    /// Run a collection of the given kind, act on what died (blob drops,
    /// table pruning) and record the `gc-run` event. Call with no manager
    /// guard held.
    ///
    /// Dead replacement-objects are handled per owning shard (shard → net
    /// per the hierarchy), in the order the sweep freed them; dead proxies
    /// are counted in one coordinator acquisition afterwards, so
    /// coordinator and shard guards never overlap here.
    ///
    /// # Errors
    ///
    /// [`crate::SwapError::LockPoisoned`] when a shard, the net or the
    /// coordinator lock is poisoned; the collection itself has happened
    /// by then, and no `gc-run` event is recorded. A holder that refuses
    /// the drop is counted and its copy tracked as an orphan, not an error.
    pub(crate) fn reclaim(&self, p: &mut Process, kind: Collection) -> Result<CollectStats> {
        let mut dead_replacements = Vec::new();
        let mut dead_proxies = 0;
        let stats = p.collect(kind, |dead, header| match header.kind {
            ObjectKind::Replacement => dead_replacements.push((dead, header.swap_cluster)),
            ObjectKind::SwapProxy => dead_proxies += 1,
            _ => {}
        });
        let mut dropped = 0;
        for (replacement, sc) in dead_replacements {
            if self.drop_dead_cluster(p, replacement, sc)? {
                dropped += 1;
            }
        }
        if dead_proxies > 0 {
            lock_coordinator(&self.coordinator)?.unlist_dead_proxies(dead_proxies, p.heap());
        }
        self.recorder
            .gc_run(stats.freed_objects as u64, dropped as u64);
        Ok(stats)
    }

    /// A replacement-object of `sc` died: when it is the cluster's current
    /// stand-in, instruct every holder its placement lists to drop the
    /// blob, and retire the cluster. Returns whether any copy was dropped.
    fn drop_dead_cluster(&self, p: &mut Process, replacement: ObjRef, sc: u32) -> Result<bool> {
        let mut shard = lock_shard(&self.shards, self.shard_of(sc))?;
        // Only the cluster's current stand-in counts: a replacement that a
        // reload made garbage, or one from a detach that failed, is garbage
        // too, and may die after the cluster has been swapped out again.
        if !matches!(
            shard.clusters.get(&sc).map(|e| &e.state),
            Some(SwapClusterState::SwappedOut { replacement: current }) if *current == replacement
        ) {
            return Ok(false);
        }
        // Fan the drop out to every holder the placement lists, not just
        // the primary.
        let mut dropped = false;
        if let Some((_, placement)) = shard.placements.remove(sc) {
            let mut net = lock_net(&self.net)?;
            self.recorder.sync_clock(&net);
            dropped = self.discard_copies(&mut net, &mut shard, sc, placement);
        }
        self.recorder.cluster_dropped(sc);
        if let Some(entry) = shard.clusters.get_mut(&sc) {
            entry.state = SwapClusterState::Dropped;
            for (oid, _) in entry.members.drain(..) {
                p.clear_swapped(oid);
            }
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
