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
//! place the swapping layer collects, so no collection leaves its records
//! behind.

use crate::manager::lock_net;
use crate::shard::{lock_coordinator, lock_shard};
use crate::swap_cluster::SwapClusterState;
use crate::{Result, SwappingManager};
use obiwan_heap::{CollectStats, ObjectKind, Oid};
use obiwan_replication::Process;

impl SwappingManager {
    /// Collect the whole heap, run the finalizers of what died (blob
    /// drops, table pruning) and record the `gc-run` event. Call with no
    /// manager guard held.
    ///
    /// # Errors
    ///
    /// As [`SwappingManager::process_finalized`]; the collection itself
    /// has happened by then, and no `gc-run` event is recorded.
    pub(crate) fn reclaim(&self, p: &mut Process) -> Result<CollectStats> {
        let stats = p.collect();
        let dropped = self.process_finalized(p)?;
        self.recorder
            .gc_run(stats.freed_objects as u64, dropped as u64);
        Ok(stats)
    }

    /// Process the finalization records of the collection that just ran:
    /// instruct storing devices to drop blobs of dead swapped-out clusters
    /// and prune dead proxies from the manager tables.
    ///
    /// Dead replacement-objects are handled per owning shard (shard → net
    /// per the hierarchy); dead proxies are batched and pruned in one
    /// coordinator acquisition afterwards, so coordinator and shard guards
    /// never overlap here.
    ///
    /// Returns the number of blobs dropped.
    ///
    /// # Errors
    ///
    /// [`crate::SwapError::LockPoisoned`] when a shard, the net or the
    /// coordinator lock is poisoned. A holder that refuses the drop is
    /// counted and its copy tracked as an orphan, not an error.
    fn process_finalized(&self, p: &mut Process) -> Result<usize> {
        let (config, _) = self.prefs();
        let records = p.heap_mut().take_finalized();
        let mut dropped = 0;
        let mut dead_proxy_keys: Vec<(u32, Oid)> = Vec::new();
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
                        Some(SwapClusterState::SwappedOut { replacement, .. }) if *replacement == fin.obj
                    ) {
                        continue;
                    }
                    // Fan the drop out to every holder of the blob, not
                    // just the primary.
                    let Some((_, key, holders)) = shard.holders_of(sc) else {
                        continue;
                    };
                    let mut any_dropped = false;
                    {
                        let mut net = lock_net(&self.net)?;
                        self.recorder.sync_clock(&net);
                        for &holder in &holders {
                            let ok = if config.allow_relays {
                                net.drop_blob_routed(self.home, holder, &key).is_ok()
                            } else {
                                net.drop_blob(self.home, holder, &key).is_ok()
                            };
                            self.recorder.sync_clock(&net);
                            if ok {
                                self.recorder.blob_dropped(sc, holder.index(), true);
                                any_dropped = true;
                            } else {
                                // Holder departed or already lost the blob:
                                // account for it and track the possible
                                // stale copy for the orphan sweep.
                                self.recorder.blob_dropped(sc, holder.index(), false);
                                shard.orphaned_blobs.push((holder, key.clone()));
                            }
                        }
                    }
                    if any_dropped {
                        dropped += 1;
                    }
                    self.recorder.cluster_dropped(sc);
                    shard.placements.remove(sc);
                    if let Some(entry) = shard.clusters.get_mut(&sc) {
                        entry.state = SwapClusterState::Dropped;
                        for (oid, _) in entry.members.drain(..) {
                            p.clear_swapped(oid);
                        }
                    }
                }
                ObjectKind::SwapProxy => {
                    // fin.swap_cluster is the proxy's source, fin.oid its
                    // target identity — exactly the reuse-table key.
                    dead_proxy_keys.push((fin.swap_cluster, fin.oid));
                }
                _ => {}
            }
        }
        {
            let mut c = lock_coordinator(&self.coordinator)?;
            for key in dead_proxy_keys {
                // Only remove if the slot is actually dead (the key may
                // have been re-bound to a newer proxy).
                if let Some(&w) = c.proxy_index.get(&key) {
                    if p.heap().weak_get(w).is_none() {
                        c.proxy_index.remove(&key);
                    }
                }
            }
            // Opportunistically prune dead weak entries from the
            // per-cluster proxy lists (they accumulate as transient
            // proxies die).
            for list in c.inbound.values_mut() {
                list.retain(|&w| p.heap().weak_get(w).is_some());
            }
            for list in c.outbound.values_mut() {
                list.retain(|&w| p.heap().weak_get(w).is_some());
            }
        }
        Ok(dropped)
    }
}
