//! The SwappingManager (paper §4): swap-cluster bookkeeping, the proxy
//! interception rules, and crossing statistics.
//!
//! The manager "is registered as a listener of all events regarding
//! replication of clusters of objects" (here: as the [`Interceptor`] of the
//! replication [`Process`]), "manages swapping by maintaining information
//! regarding all swap-clusters (loaded or swapped), and all objects
//! belonging to each one, stored in hash-tables. It also contains entries
//! for all swap-cluster-proxies w.r.t. references to/from each swap-cluster
//! (using weak-references)."
//!
//! Since the sharding refactor the manager is a concurrent engine: there
//! is no outer manager mutex. Cluster-keyed state lives in the sharded
//! lock table (`crate::shard`), process-wide state behind the coordinator
//! lock, and counters/events behind the recorder's own leaf lock. Every
//! operation takes `&self`; the documented acquisition order is
//! coordinator → shard (ascending index, via `lock_shard_pair` when two
//! are needed) → net → recorder, and no method ever acquires backwards.

use crate::proxy;
use crate::recorder::Recorder;
use crate::shard::{lock_coordinator, lock_shard, lock_shard_pair, shard_for, Coordinator, Shard};
use crate::swap_cluster::{SwapClusterEntry, SwapClusterState};
use crate::{Result, SwapConfig, SwapError, VictimPolicy};
use obiwan_heap::{ObjRef, ObjectKind, Oid};
use obiwan_net::{DeviceId, DeviceKind, NetError, NetFabric};
use obiwan_placement::{HolderCandidate, PlacementTable};
use obiwan_policy::PolicyEvent;
use obiwan_replication::{ClusterInfo, Interceptor, Process, ReplError, Resolved};
use std::collections::{BTreeSet, HashSet};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A shared simulated world.
pub type SharedNet = Arc<Mutex<NetFabric>>;

/// A manager shared between the middleware facade and the process's
/// interceptor shim. The manager synchronizes internally (sharded lock
/// table), so the handle is a plain `Arc` — maintenance threads clone it
/// and call methods directly.
pub type SharedManager = Arc<SwappingManager>;

/// Lock the shared world, turning poisoning into a structured error
/// instead of a cascading panic.
pub(crate) fn lock_net(n: &SharedNet) -> Result<MutexGuard<'_, NetFabric>> {
    n.lock().map_err(|_| SwapError::LockPoisoned {
        what: "net",
        shard: None,
    })
}

/// Cumulative swapping statistics.
///
/// Marked `#[non_exhaustive]`: counters are added as the lifecycle grows
/// richer, and every one of them must keep folding exactly out of the
/// event trace (see `obiwan_trace::derive::fold_counts`). Construct via
/// `Default` and read fields; functional-update syntax from a literal is
/// intentionally unavailable outside this crate.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SwapStats {
    /// Swap-out operations completed.
    pub swap_outs: u64,
    /// Swap-in (reload) operations completed.
    pub swap_ins: u64,
    /// Blobs dropped on storing devices (GC cooperation + eager reload
    /// drops).
    pub blobs_dropped: u64,
    /// Blob drops that could not reach the storing device.
    pub drop_failures: u64,
    /// Swap-cluster-proxies created (rule i).
    pub proxies_created: u64,
    /// Proxy reuses via the (source, target) table (rule ii).
    pub proxies_reused: u64,
    /// Proxies dismantled because the reference re-entered its own cluster
    /// (rule iii).
    pub proxies_dismantled: u64,
    /// Self-patches performed by assign-marked proxies (the iteration
    /// optimization).
    pub assign_patches: u64,
    /// Boundary crossings observed.
    pub crossings: u64,
    /// Payload bytes shipped out / fetched back.
    pub bytes_swapped_out: u64,
    /// Payload bytes fetched back on reloads.
    pub bytes_swapped_in: u64,
    /// Reloads that succeeded only after failing over past an unreachable
    /// holder.
    pub reload_failovers: u64,
    /// Repair-sweep passes that re-replicated at least one blob.
    pub repairs: u64,
    /// Bytes the repair sweep moved (fetches from surviving holders plus
    /// stores onto new ones).
    pub repair_bytes: u64,
}

/// The swapping manager. One per device process; installed as the
/// process's [`Interceptor`] through the interceptor shim the middleware
/// builder wires up.
#[derive(Debug)]
pub struct SwappingManager {
    pub(crate) net: SharedNet,
    /// The device this manager runs on (the memory-constrained one).
    pub(crate) home: DeviceId,
    /// Process-wide state: config, proxy tables, grouping, policy events.
    pub(crate) coordinator: Mutex<Coordinator>,
    /// The sharded lock table holding all cluster-keyed state.
    pub(crate) shards: Box<[Mutex<Shard>]>,
    /// The single choke point for counters *and* lifecycle events (leaf
    /// of the lock hierarchy; synchronizes internally).
    pub(crate) recorder: Recorder,
    /// Logical clock for recency statistics.
    crossing_clock: AtomicU64,
    /// Round-robin victim cursor.
    victim_cursor: AtomicU32,
    /// [`obiwan_net::SimNet::churn_seq`] at the last holder-loss scan (`u64::MAX`
    /// until the first); an unchanged sequence lets
    /// [`SwappingManager::note_departures`] skip the placement-table
    /// sweep entirely on quiet pumps.
    seen_churn_seq: AtomicU64,
}

impl SwappingManager {
    /// Create a manager for the device `home` in the shared world `net`.
    pub fn new(config: SwapConfig, net: SharedNet, home: DeviceId) -> Self {
        let shard_count = config.shard_count.max(1);
        SwappingManager {
            net,
            home,
            recorder: Recorder::new(config.trace_capacity),
            coordinator: Mutex::new(Coordinator::new(config)),
            shards: (0..shard_count)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            crossing_clock: AtomicU64::new(0),
            victim_cursor: AtomicU32::new(0),
            seen_churn_seq: AtomicU64::new(u64::MAX),
        }
    }

    /// Number of shards in the lock table.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard holds the state of swap-cluster `sc`.
    pub fn shard_of(&self, sc: u32) -> usize {
        shard_for(sc, self.shards.len())
    }

    /// Config plus the policy-set device-kind preference, snapshotted in
    /// one coordinator acquisition. Reads recover from poison (both are
    /// plain-old-data); call *before* taking any shard guard — the
    /// hierarchy forbids coordinator acquisition below a shard.
    pub(crate) fn prefs(&self) -> (SwapConfig, Option<DeviceKind>) {
        let c = self
            .coordinator
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        (c.config, c.preferred_kind)
    }

    /// Try to drop blobs orphaned by failed swap-outs (best effort; a
    /// departed device keeps its orphan until it returns). Returns how
    /// many orphans were cleared, including any whose holder no longer
    /// had the blob.
    pub fn sweep_orphaned_blobs(&self) -> usize {
        let mut dropped = 0;
        for idx in 0..self.shards.len() {
            // Blob drops are idempotent, so a poisoned shard is still safe
            // to sweep; recover the guard rather than cascade the panic.
            let mut shard = self.shards[idx]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if shard.orphaned_blobs.is_empty() {
                continue;
            }
            let mut net = self.net.lock().unwrap_or_else(PoisonError::into_inner);
            dropped += sweep_shard_orphans(&mut net, self.home, &mut shard);
        }
        dropped
    }

    /// The configuration.
    pub fn config(&self) -> SwapConfig {
        self.prefs().0
    }

    /// Change the victim policy at runtime.
    pub fn set_victim_policy(&self, policy: VictimPolicy) {
        self.coordinator
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .config
            .victim_policy = policy;
    }

    /// Prefer a device kind when choosing swap targets.
    pub fn set_preferred_kind(&self, kind: Option<DeviceKind>) {
        self.coordinator
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .preferred_kind = kind;
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> SwapStats {
        self.recorder.stats()
    }

    /// Export the lifecycle event stream with run metadata, ready for
    /// [`obiwan_trace::Trace::to_json`] or the conformance checker.
    pub fn export_trace(&self) -> obiwan_trace::Trace {
        let config = self.config();
        let mut clusters: BTreeSet<u32> = self.recorder.known_clusters();
        let mut swapped: Vec<u32> = Vec::new();
        for idx in 0..self.shards.len() {
            let shard = self.shards[idx]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            clusters.extend(shard.clusters.keys().copied());
            swapped.extend(
                shard
                    .clusters
                    .iter()
                    .filter(|(_, e)| matches!(e.state, SwapClusterState::SwappedOut { .. }))
                    .map(|(id, _)| *id),
            );
        }
        swapped.sort_unstable();
        let (capacity, recorded, dropped, events) = self.recorder.export();
        obiwan_trace::Trace {
            meta: obiwan_trace::TraceMeta {
                home: self.home.index(),
                replication_factor: config.replication_factor as u32,
                wire_format: config.wire_format.name().to_owned(),
                capacity: capacity as u64,
                recorded,
                dropped,
                clusters: clusters.into_iter().collect(),
                swapped,
            },
            events,
        }
    }

    /// Drain policy events.
    pub fn take_events(&self) -> Vec<PolicyEvent> {
        std::mem::take(
            &mut self
                .coordinator
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .events,
        )
    }

    /// Registry entry of a swap-cluster (a point-in-time copy; the live
    /// entry stays behind its shard lock).
    ///
    /// # Errors
    ///
    /// [`SwapError::UnknownSwapCluster`].
    pub fn cluster(&self, sc: u32) -> Result<SwapClusterEntry> {
        let shard = lock_shard(&self.shards, self.shard_of(sc))?;
        shard
            .clusters
            .get(&sc)
            .cloned()
            .ok_or(SwapError::UnknownSwapCluster { swap_cluster: sc })
    }

    /// Ids of all registered swap-clusters (ascending).
    pub fn cluster_ids(&self) -> Vec<u32> {
        self.collect_cluster_ids(|_| true)
    }

    /// Ids of swap-clusters currently loaded.
    pub fn loaded_clusters(&self) -> Vec<u32> {
        self.collect_cluster_ids(SwapClusterEntry::is_loaded)
    }

    /// Ids of swap-clusters currently swapped out.
    pub fn swapped_clusters(&self) -> Vec<u32> {
        self.collect_cluster_ids(|e| matches!(e.state, SwapClusterState::SwappedOut { .. }))
    }

    fn collect_cluster_ids(&self, keep: impl Fn(&SwapClusterEntry) -> bool) -> Vec<u32> {
        let mut ids: Vec<u32> = Vec::new();
        for idx in 0..self.shards.len() {
            let Ok(shard) = lock_shard(&self.shards, idx) else {
                continue;
            };
            ids.extend(
                shard
                    .clusters
                    .iter()
                    .filter(|(_, e)| keep(e))
                    .map(|(id, _)| *id),
            );
        }
        ids.sort_unstable();
        ids
    }

    /// Choose a victim among loaded swap-clusters per the configured
    /// policy; `None` when nothing is evictable.
    ///
    /// Each shard nominates its own best-ranked loaded cluster under its
    /// own lock, and the best nominee wins: policy ranks are unique (see
    /// [`VictimPolicy::choose`]), so this is the pick a scan of the whole
    /// registry would make, without copying any entry.
    pub fn pick_victim(&self) -> Option<u32> {
        let policy = self.config().victim_policy;
        let cursor = self.victim_cursor.load(Ordering::Relaxed);
        let pick = (0..self.shards.len())
            .filter_map(|idx| {
                let shard = lock_shard(&self.shards, idx).ok()?;
                policy.nominate(shard.clusters.iter().map(|(id, e)| (*id, e)), cursor)
            })
            .min()
            .map(|rank| rank.1);
        if let Some(id) = pick {
            self.victim_cursor.store(id, Ordering::Relaxed);
        }
        pick
    }

    // --- Durability: placement table, holder loss, repair sweep --------------

    /// Merged view of every shard's placement table (auditor, tests,
    /// benches). A point-in-time copy; the live rows stay sharded.
    pub fn placements(&self) -> PlacementTable {
        let mut merged = PlacementTable::new();
        for idx in 0..self.shards.len() {
            let Ok(shard) = lock_shard(&self.shards, idx) else {
                continue;
            };
            merged.absorb(&shard.placements);
        }
        merged
    }

    /// The holder set backing swap-cluster `sc` while it is swapped out:
    /// `(epoch, key, holders)` from the owning shard's placement table,
    /// falling back to the single device recorded in the entry state.
    pub fn holders_of(&self, sc: u32) -> Option<(u32, String, Vec<DeviceId>)> {
        let shard = lock_shard(&self.shards, self.shard_of(sc)).ok()?;
        shard.holders_of(sc)
    }

    /// Detect blob holders that departed since the last pump and emit one
    /// [`PolicyEvent::HolderLost`] per fresh loss. A holder that returns
    /// is eligible to be reported again if it departs later.
    pub fn note_departures(&self) -> Result<()> {
        let (config, _) = self.prefs();
        let present: HashSet<DeviceId> = {
            let net = lock_net(&self.net)?;
            self.recorder.sync_clock(&net);
            // Departure notification: an unchanged churn sequence means no
            // device moved and no link changed since the last scan, so the
            // placement sweep below would find exactly what it found then.
            let seq = net.churn_seq();
            if self.seen_churn_seq.swap(seq, Ordering::Relaxed) == seq {
                return Ok(());
            }
            if config.allow_relays {
                net.reachable(self.home)
                    .into_iter()
                    .map(|(d, _)| d)
                    .collect()
            } else {
                net.nearby(self.home).into_iter().collect()
            }
        };
        let mut fresh_events: Vec<PolicyEvent> = Vec::new();
        for idx in 0..self.shards.len() {
            let mut shard = lock_shard(&self.shards, idx)?;
            let shard = &mut *shard;
            let mut fresh: Vec<(u32, DeviceId, i64)> = Vec::new();
            for (sc, _epoch, placement) in shard.placements.iter() {
                let left = placement
                    .holders
                    .iter()
                    .filter(|d| present.contains(d))
                    .count() as i64;
                for &holder in &placement.holders {
                    if present.contains(&holder) {
                        shard.lost_reported.remove(&(sc, holder));
                    } else if !shard.lost_reported.contains(&(sc, holder)) {
                        fresh.push((sc, holder, left));
                    }
                }
            }
            for (sc, holder, left) in fresh {
                shard.lost_reported.insert((sc, holder));
                self.recorder.holder_lost(sc, holder.index(), left as u32);
                fresh_events.push(PolicyEvent::HolderLost {
                    swap_cluster: sc as i64,
                    device: holder.index() as i64,
                    holders_left: left,
                });
            }
        }
        if !fresh_events.is_empty() {
            lock_coordinator(&self.coordinator)?
                .events
                .extend(fresh_events);
        }
        Ok(())
    }

    /// The repair sweep: for every swapped-out cluster whose blob has
    /// fewer reachable copies than [`SwapConfig::replication_factor`],
    /// re-replicate from a surviving holder onto fresh devices — while the
    /// cluster stays swapped out, exactly as a decentralized content-repair
    /// pass would. Departed holders are pruned from the placement (their
    /// stale copies become tracked orphans, swept if they return); a
    /// cluster whose every holder is gone keeps its record so a returning
    /// holder makes the blob reachable again.
    ///
    /// Per entry the sweep runs in two phases: bytes move under the net
    /// lock only, then the outcome commits under the owning shard lock —
    /// revalidating that the placement is still the one that was probed
    /// (a racing reload turns freshly-placed copies into tracked orphans
    /// instead of silently resurrecting a dead placement).
    ///
    /// Returns `(clusters_repaired, bytes_moved)`.
    ///
    /// # Errors
    ///
    /// [`SwapError::LockPoisoned`], or hard network errors; per-device
    /// refusals (quota, departure, injected faults) are skipped.
    pub fn repair_placements(&self) -> Result<(u64, u64)> {
        let (config, preferred) = self.prefs();
        let k = config.replication_factor;
        let allow_relays = config.allow_relays;
        let home = self.home;
        let mut entries: Vec<(u32, u32, String, Vec<DeviceId>)> = Vec::new();
        for idx in 0..self.shards.len() {
            let shard = lock_shard(&self.shards, idx)?;
            for (sc, epoch, p) in shard.placements.iter() {
                entries.push((sc, epoch, p.key.clone(), p.holders.clone()));
            }
        }
        entries.sort_unstable_by_key(|e| e.0);
        {
            let net = lock_net(&self.net)?;
            self.recorder.sync_clock(&net);
        }
        self.recorder.repair_start();
        let mut repaired = 0u64;
        let mut moved = 0u64;
        for (sc, epoch, key, holders) in entries {
            // Phase A: probe and move bytes under the net lock only.
            let mut net = lock_net(&self.net)?;
            self.recorder.sync_clock(&net);
            let present: HashSet<DeviceId> = if allow_relays {
                net.reachable(home).into_iter().map(|(d, _)| d).collect()
            } else {
                net.nearby(home).into_iter().collect()
            };
            // Live = still reachable and still holding the bytes.
            let mut live: Vec<DeviceId> = holders
                .iter()
                .copied()
                .filter(|&d| present.contains(&d) && net.holds_blob(d, &key))
                .collect();
            // Re-adopt copies already sitting on reachable devices outside
            // the holder list — a pruned holder that walked back in with
            // its copy intact. The key embeds home device, cluster and
            // epoch, so an exact key match *is* the current bytes; adopting
            // it costs no airtime where a re-replication would.
            let mut unorphan: Vec<DeviceId> = Vec::new();
            for d in net.holders_of_key(&key) {
                if d != home && present.contains(&d) && !live.contains(&d) {
                    live.push(d);
                    unorphan.push(d);
                }
            }
            let dead: Vec<DeviceId> = holders
                .iter()
                .copied()
                .filter(|d| !present.contains(d))
                .collect();
            if live.is_empty() {
                // No copy to repair from; keep the record — a departed
                // holder returning makes the blob reachable again.
                continue;
            }
            // Re-adoption can push the live set past the placement width;
            // prune back down to `k` so the table never over-replicates
            // (the excess copies become tracked orphans).
            let mut orphan: Vec<DeviceId> = Vec::new();
            if live.len() > k {
                orphan.extend(live[k..].iter().copied());
                live.truncate(k);
            }
            let deficit = k.saturating_sub(live.len());
            let mut added: Vec<DeviceId> = Vec::new();
            let mut sent_bytes = 0u64;
            if deficit > 0 {
                let mut data = None;
                for &src in &live {
                    let fetched = if allow_relays {
                        net.fetch_blob_routed(home, src, &key).map(|(_, b)| b)
                    } else {
                        net.fetch_blob(home, src, &key)
                    };
                    match fetched {
                        Ok(b) => {
                            data = Some(b);
                            break;
                        }
                        Err(NetError::Departed { .. })
                        | Err(NetError::UnknownBlob { .. })
                        | Err(NetError::NotConnected { .. })
                        | Err(NetError::InjectedFailure { .. }) => continue,
                        Err(e) => return Err(e.into()),
                    }
                }
                let Some(data) = data else { continue };
                sent_bytes += data.len() as u64;
                let candidates =
                    holder_candidates(&net, home, &config, preferred, &key, data.len(), &holders);
                for c in candidates {
                    if added.len() >= deficit {
                        break;
                    }
                    let sent = if allow_relays {
                        net.send_blob_routed(home, c.device, &key, data.clone())
                            .map(|(_, cost)| cost)
                    } else {
                        net.send_blob(home, c.device, &key, data.clone())
                    };
                    match sent {
                        Ok(cost) => {
                            self.recorder.sync_clock(&net);
                            self.recorder.blob_shipped(
                                None,
                                sc,
                                epoch,
                                c.device.index(),
                                data.len() as u64,
                                cost.as_micros(),
                            );
                            added.push(c.device);
                            sent_bytes += data.len() as u64;
                        }
                        Err(NetError::DuplicateBlob { .. }) => {
                            // The device already holds this exact key —
                            // a pruned holder that returned with its copy
                            // intact. Re-adopt the copy instead of
                            // sweeping it as an orphan.
                            added.push(c.device);
                            unorphan.push(c.device);
                        }
                        Err(NetError::QuotaExceeded { .. })
                        | Err(NetError::InjectedFailure { .. })
                        | Err(NetError::NotConnected { .. })
                        | Err(NetError::Departed { .. }) => continue,
                        Err(e) => return Err(e.into()),
                    }
                }
            }
            drop(net);
            moved += sent_bytes;
            // Phase B: commit under the owning shard lock, revalidating
            // that the probed placement is still current.
            let new_holders: Vec<DeviceId> =
                live.iter().copied().chain(added.iter().copied()).collect();
            let mut shard = lock_shard(&self.shards, self.shard_of(sc))?;
            let still = shard.placements.active(sc).map(|(e, p)| (e, p.key.clone()));
            if still != Some((epoch, key.clone())) {
                // The cluster reloaded (or re-swapped) while the bytes
                // moved; the copies just placed back no cluster — track
                // them so the orphan sweep reclaims them.
                for &d in &added {
                    shard.orphaned_blobs.push((d, key.clone()));
                }
                continue;
            }
            for d in &unorphan {
                shard
                    .orphaned_blobs
                    .retain(|(od, ok)| !(od == d && *ok == key));
            }
            for &d in &orphan {
                shard.orphaned_blobs.push((d, key.clone()));
            }
            if new_holders != holders {
                // Stale copies on pruned (departed) holders get swept if
                // the device ever returns.
                for &d in &dead {
                    shard.orphaned_blobs.push((d, key.clone()));
                    shard.lost_reported.remove(&(sc, d));
                }
                shard
                    .placements
                    .record(sc, epoch, key.clone(), new_holders.clone());
                if let Some(entry) = shard.clusters.get_mut(&sc) {
                    if let SwapClusterState::SwappedOut { device, .. } = &mut entry.state {
                        if let Some(&primary) = new_holders.first() {
                            *device = primary;
                        }
                    }
                }
                if !added.is_empty() {
                    repaired += 1;
                }
            }
        }
        self.recorder.repair_end(repaired, moved);
        Ok((repaired, moved))
    }

    // --- Swap-cluster assignment (replication listener) ---------------------

    /// The swap-cluster a replication cluster belongs to, creating the
    /// grouping lazily: `clusters_per_swap_cluster` consecutive replication
    /// clusters share one swap-cluster. Caller holds the coordinator; the
    /// owning shard is locked briefly to seed the registry entry
    /// (coordinator → shard is the documented order).
    fn sc_for_repl_cluster(&self, c: &mut Coordinator, repl_cluster: u32) -> Result<u32> {
        if let Some(&sc) = c.repl_to_sc.get(&repl_cluster) {
            return Ok(sc);
        }
        let group = repl_cluster / c.config.clusters_per_swap_cluster as u32;
        let sc = group + 1; // 0 is reserved for swap-cluster-0
        c.next_sc = c.next_sc.max(sc + 1);
        c.repl_to_sc.insert(repl_cluster, sc);
        {
            let mut shard = lock_shard(&self.shards, self.shard_of(sc))?;
            shard.clusters.entry(sc).or_default();
        }
        self.recorder.register_cluster(sc);
        Ok(sc)
    }

    /// Record a boundary crossing from `from_sc` into `to_sc`. The two
    /// clusters may live on different shards, so this is the canonical
    /// two-shard transaction: both guards come from `lock_shard_pair`,
    /// which orders them by ascending shard index.
    fn note_crossing(&self, from_sc: u32, to_sc: u32) -> Result<()> {
        let clock = self.crossing_clock.fetch_add(1, Ordering::Relaxed) + 1;
        self.recorder.note_crossing();
        let a = self.shard_of(from_sc);
        let b = self.shard_of(to_sc);
        let (mut first, mut second) = lock_shard_pair(&self.shards, a, b)?;
        let lo = a.min(b);
        {
            let to_shard: &mut Shard = if b == lo {
                &mut first
            } else {
                match second.as_mut() {
                    Some(g) => g,
                    None => &mut first,
                }
            };
            if let Some(e) = to_shard.clusters.get_mut(&to_sc) {
                e.crossings += 1;
                e.last_crossing = clock;
            }
        }
        {
            let from_shard: &mut Shard = if a == lo {
                &mut first
            } else {
                match second.as_mut() {
                    Some(g) => g,
                    None => &mut first,
                }
            };
            if let Some(e) = from_shard.clusters.get_mut(&from_sc) {
                e.out_crossings += 1;
            }
        }
        Ok(())
    }

    // --- The proxy rules ------------------------------------------------------

    /// Get or create the swap-cluster-proxy mediating a *graph edge*:
    /// a field of `source_sc` referencing `target` (identity `oid`).
    /// Edges reuse one proxy per (source, target) pair — the paper's "when
    /// there are multiple references to the same object, across the same
    /// pair of swap-clusters, only a swap-cluster-proxy is required"
    /// (rules i and ii). Caller holds the coordinator.
    pub(crate) fn proxy_for(
        &self,
        p: &mut Process,
        c: &mut Coordinator,
        source_sc: u32,
        target: ObjRef,
        oid: Oid,
    ) -> Result<ObjRef> {
        if let Some(&weak) = c.proxy_index.get(&(source_sc, oid)) {
            if let Some(existing) = p.heap().weak_get(weak) {
                self.recorder.proxy_reused(source_sc);
                return Ok(existing);
            }
            c.proxy_index.remove(&(source_sc, oid));
        }
        let proxy = self.proxy_fresh(p, c, source_sc, target, oid)?;
        let weak = p.heap_mut().weak_ref(proxy)?;
        c.proxy_index.insert((source_sc, oid), weak);
        Ok(proxy)
    }

    /// Create a fresh proxy for a *transient* delivery (a reference handed
    /// as an argument or return value). The paper's Tests B1/A2 hinge on
    /// these being created per reference and "later reclaimed by the LGC" —
    /// they are never entered into the edge-reuse index.
    pub(crate) fn proxy_fresh(
        &self,
        p: &mut Process,
        c: &mut Coordinator,
        source_sc: u32,
        target: ObjRef,
        oid: Oid,
    ) -> Result<ObjRef> {
        let proxy = proxy::create(p, source_sc, target, oid)?;
        let weak = p.heap_mut().weak_ref(proxy)?;
        let target_sc = p.heap().get(target)?.header().swap_cluster;
        c.inbound.entry(target_sc).or_default().push(weak);
        c.outbound.entry(source_sc).or_default().push(weak);
        self.recorder.proxy_created(source_sc);
        Ok(proxy)
    }

    /// Deliver `target` (identity `oid`) into the context of `to_sc`,
    /// honoring an assign-marked entry proxy (the iteration optimization:
    /// the marked proxy patches itself and is returned instead of a fresh
    /// proxy).
    fn deliver_cross(
        &self,
        p: &mut Process,
        c: &mut Coordinator,
        to_sc: u32,
        target: ObjRef,
        oid: Oid,
        entry_proxy: Option<ObjRef>,
    ) -> Result<ObjRef> {
        if let Some(ep) = entry_proxy {
            if p.heap().is_live(ep)
                && proxy::assign_mark_of(p, ep)?
                && proxy::source_of(p, ep)? == to_sc
            {
                // A marked proxy is a private iterator variable: it patches
                // itself and is never entered into the reuse index (other
                // holders must not alias an object that re-targets under
                // them).
                let prev_target = proxy::target_of(p, ep)?;
                let prev_sc = p
                    .heap()
                    .get(prev_target)
                    .map(|o| o.header().swap_cluster)
                    .unwrap_or(u32::MAX);
                proxy::retarget(p, ep, target, oid)?;
                let target_sc = p.heap().get(target)?.header().swap_cluster;
                if target_sc != prev_sc {
                    // Crossing into a new cluster: (re-)register as inbound
                    // there so swap-out / reload keep patching it.
                    let weak = p.heap_mut().weak_ref(ep)?;
                    c.inbound.entry(target_sc).or_default().push(weak);
                }
                self.recorder.assign_patch(target_sc);
                return Ok(ep);
            }
        }
        self.proxy_fresh(p, c, to_sc, target, oid)
    }

    /// The complete transfer rule for a reference moving into `to_sc`.
    pub(crate) fn transfer(
        &self,
        p: &mut Process,
        r: ObjRef,
        to_sc: u32,
        entry_proxy: Option<ObjRef>,
    ) -> Result<ObjRef> {
        let (kind, r_sc, r_oid) = {
            let o = p.heap().get(r)?;
            (o.kind(), o.header().swap_cluster, o.header().oid)
        };
        match kind {
            // Not replicated yet: swap mediation happens at replication.
            ObjectKind::FaultProxy => Ok(r),
            ObjectKind::App | ObjectKind::Replacement => {
                if r_sc == to_sc {
                    Ok(r)
                } else {
                    let mut c = lock_coordinator(&self.coordinator)?;
                    self.deliver_cross(p, &mut c, to_sc, r, r_oid, entry_proxy)
                }
            }
            ObjectKind::SwapProxy => {
                let target = proxy::target_of(p, r)?;
                let target_sc = p.heap().get(target)?.header().swap_cluster;
                if target_sc == to_sc {
                    // Rule (iii): the reference re-enters its own cluster.
                    self.recorder.proxy_dismantled(to_sc);
                    Ok(target)
                } else if proxy::source_of(p, r)? == to_sc {
                    // Already the right mediator for this context.
                    Ok(r)
                } else {
                    let oid = proxy::oid_of(p, r)?;
                    let mut c = lock_coordinator(&self.coordinator)?;
                    self.deliver_cross(p, &mut c, to_sc, target, oid, entry_proxy)
                }
            }
        }
    }

    /// Create a dedicated iterator proxy for application code: a fresh
    /// swap-cluster-0 proxy denoting the same object as `r`, assign-marked
    /// so it patches itself as the iteration advances (paper §4: the
    /// marked proxy "was indeed the actual variable"). The proxy is kept
    /// out of the reuse index — it is private to the iterating variable.
    ///
    /// # Errors
    ///
    /// Heap errors, or [`SwapError::Codec`] when `r` does not denote an
    /// application object.
    pub fn make_cursor(&self, p: &mut Process, r: ObjRef) -> Result<ObjRef> {
        let (target, oid) = match p.heap().get(r)?.kind() {
            ObjectKind::SwapProxy => (proxy::target_of(p, r)?, proxy::oid_of(p, r)?),
            ObjectKind::App => (r, p.heap().get(r)?.header().oid),
            other => {
                return Err(SwapError::codec(format!(
                    "cannot build an iterator over a {other} object"
                )))
            }
        };
        let cursor = proxy::create(p, 0, target, oid)?;
        proxy::set_assign_mark(p, cursor, true)?;
        let target_sc = p.heap().get(target)?.header().swap_cluster;
        let weak = p.heap_mut().weak_ref(cursor)?;
        {
            let mut c = lock_coordinator(&self.coordinator)?;
            c.inbound.entry(target_sc).or_default().push(weak);
        }
        self.recorder.proxy_created(0);
        Ok(cursor)
    }

    /// Assign-mark a swap-cluster-proxy held by application code — the
    /// paper's `SwapClusterUtils.assign` (§4). Only proxies with source in
    /// swap-cluster-0 may be marked. Touches only the heap, so it takes no
    /// manager lock at all.
    ///
    /// # Errors
    ///
    /// [`SwapError::Codec`] when `r` is not a swap-cluster-proxy, or its
    /// source is not swap-cluster-0.
    pub fn assign(&self, p: &mut Process, r: ObjRef) -> Result<()> {
        if p.heap().get(r)?.kind() != ObjectKind::SwapProxy {
            return Err(SwapError::codec(
                "assign() takes a swap-cluster-proxy reference",
            ));
        }
        if proxy::source_of(p, r)? != 0 {
            return Err(SwapError::codec(
                "assign() is only valid for proxies held by application \
                 code (source swap-cluster-0)",
            ));
        }
        proxy::set_assign_mark(p, r, true)
    }

    // --- Interceptor entry points (called via the shim) ----------------------

    pub(crate) fn on_cluster_replicated(&self, p: &mut Process, info: &ClusterInfo) -> Result<()> {
        let mut c = lock_coordinator(&self.coordinator)?;
        let sc = self.sc_for_repl_cluster(&mut c, info.repl_cluster)?;
        // Tag members and register them.
        let mut bytes = 0;
        let mut fresh: Vec<(Oid, ObjRef)> = Vec::new();
        for &m in &info.members {
            let size = p.heap().get(m)?.size();
            bytes += size;
            let h = p.heap_mut().get_mut(m)?.header_mut();
            h.swap_cluster = sc;
            fresh.push((h.oid, m));
        }
        {
            let mut shard = lock_shard(&self.shards, self.shard_of(sc))?;
            let entry = shard.clusters.entry(sc).or_default();
            entry.members.extend(fresh);
            entry.bytes += bytes;
        }
        // Re-mediate references:
        // 1. fresh member fields that point out of the swap-cluster;
        for &m in &info.members {
            let field_count = p.heap().get(m)?.fields().len();
            for idx in 0..field_count {
                self.mediate_slot(p, &mut c, m, sc, idx)?;
            }
        }
        // 2. older holders whose fault proxy was just replaced by a member;
        for &(holder, idx) in &info.patched_fields {
            if !p.heap().is_live(holder) {
                continue;
            }
            let holder_sc = p.heap().get(holder)?.header().swap_cluster;
            self.mediate_slot(p, &mut c, holder, holder_sc, idx)?;
        }
        // 3. globals (swap-cluster-0) whose fault proxy was just replaced.
        for name in &info.patched_globals {
            let Ok(value) = p.global(name) else { continue };
            if let obiwan_heap::Value::Ref(t) = value {
                let t_obj = p.heap().get(t)?;
                if t_obj.kind() == ObjectKind::App && t_obj.header().swap_cluster != 0 {
                    let oid = t_obj.header().oid;
                    let proxy = self.proxy_for(p, &mut c, 0, t, oid)?;
                    p.set_global(name.clone(), obiwan_heap::Value::Ref(proxy));
                }
            }
        }
        Ok(())
    }

    /// Wrap one slot of `holder` (which lives in `holder_sc`) if it holds a
    /// direct cross-swap-cluster reference. Caller holds the coordinator.
    fn mediate_slot(
        &self,
        p: &mut Process,
        c: &mut Coordinator,
        holder: ObjRef,
        holder_sc: u32,
        idx: usize,
    ) -> Result<()> {
        let value = p.heap().get(holder)?.fields()[idx].clone();
        let obiwan_heap::Value::Ref(t) = value else {
            return Ok(());
        };
        let (t_kind, t_sc, t_oid) = {
            let o = p.heap().get(t)?;
            (o.kind(), o.header().swap_cluster, o.header().oid)
        };
        match t_kind {
            ObjectKind::App | ObjectKind::Replacement if t_sc != holder_sc => {
                let proxy = self.proxy_for(p, c, holder_sc, t, t_oid)?;
                p.heap_mut()
                    .set_any_field(holder, idx, obiwan_heap::Value::Ref(proxy))?;
            }
            _ => {}
        }
        Ok(())
    }

    pub(crate) fn on_resolve_invocable(&self, p: &mut Process, obj: ObjRef) -> Result<Resolved> {
        match p.heap().get(obj)?.kind() {
            ObjectKind::SwapProxy => {
                let from_sc = proxy::source_of(p, obj)?;
                let mut target = proxy::target_of(p, obj)?;
                if p.heap().get(target)?.kind() == ObjectKind::Replacement {
                    let sc = p.heap().get(target)?.header().swap_cluster;
                    self.swap_in(p, sc)?;
                    target = proxy::target_of(p, obj)?;
                }
                let target_sc = p.heap().get(target)?.header().swap_cluster;
                self.note_crossing(from_sc, target_sc)?;
                if p.heap().get(target)?.kind() != ObjectKind::App {
                    return Err(SwapError::codec(format!(
                        "swap-cluster-proxy target did not resolve to an \
                         application object (found {})",
                        p.heap().get(target)?.kind()
                    )));
                }
                Ok(Resolved {
                    target,
                    entry_proxy: Some(obj),
                })
            }
            ObjectKind::Replacement => Err(SwapError::codec(
                "a replacement-object was invoked directly; references to \
                 swapped objects must be mediated by swap-cluster-proxies",
            )),
            other => Err(SwapError::codec(format!(
                "resolve_invocable called on a {other} object"
            ))),
        }
    }
}

/// Candidate holders for a blob of `need` bytes under `key`, ranked by
/// the configured placement policy. Devices in `exclude` (current
/// holders) are skipped. A free function over snapshotted prefs so it can
/// run under the net lock without touching coordinator or shard state.
pub(crate) fn holder_candidates(
    net: &NetFabric,
    home: DeviceId,
    config: &SwapConfig,
    preferred: Option<DeviceKind>,
    key: &str,
    need: usize,
    exclude: &[DeviceId],
) -> Vec<HolderCandidate> {
    let source: Vec<(DeviceId, usize)> = if config.allow_relays {
        net.reachable(home)
    } else {
        net.nearby(home).into_iter().map(|d| (d, 1)).collect()
    };
    let mut candidates: Vec<HolderCandidate> = source
        .into_iter()
        .filter(|(d, _)| !exclude.contains(d))
        .filter_map(|(d, hops)| {
            let profile = net.profile(d).ok()?;
            let kind_preferred = Some(profile.kind) == preferred;
            let free = net.free_storage(d).ok()?;
            // The store charges key bytes too.
            (free >= key.len() + need).then_some(HolderCandidate {
                device: d,
                kind_preferred,
                hops,
                free_storage: free,
            })
        })
        .collect();
    config.placement.policy().rank(&mut candidates);
    candidates
}

/// Drop one shard's orphaned blobs, best effort. Caller holds the shard
/// guard and the net guard (in that order). An orphan on a device with no
/// live link is kept without a call: `drop_blob` would refuse it on that
/// same condition before touching the fabric. A holder that answers
/// `UnknownBlob` has nothing left to reclaim, so that orphan is retired
/// too: the entry was tracked twice (two repair passes pruning the same
/// departed holder) or its copy is already gone, and retrying it would
/// fail on every sweep.
pub(crate) fn sweep_shard_orphans(net: &mut NetFabric, home: DeviceId, shard: &mut Shard) -> usize {
    let before = shard.orphaned_blobs.len();
    shard.orphaned_blobs.retain(|(device, key)| {
        net.link(home, *device).is_none()
            || !matches!(
                net.drop_blob(home, *device, key),
                Ok(()) | Err(NetError::UnknownBlob { .. })
            )
    });
    before - shard.orphaned_blobs.len()
}

/// The adapter installing a [`SwappingManager`] as a replication
/// [`Interceptor`]. Holds the shared handle; the middleware keeps the
/// other. The manager synchronizes internally, so the shim holds no
/// guard of its own — a reload triggered mid-invocation locks exactly
/// the shards and net windows it needs, phase by phase.
#[derive(Debug, Clone)]
pub struct InterceptorShim(pub SharedManager);

impl Interceptor for InterceptorShim {
    fn cluster_replicated(
        &mut self,
        p: &mut Process,
        info: &ClusterInfo,
    ) -> obiwan_replication::Result<()> {
        self.0
            .on_cluster_replicated(p, info)
            .map_err(SwapError::into_repl)
    }

    fn resolve_invocable(
        &mut self,
        p: &mut Process,
        obj: ObjRef,
    ) -> obiwan_replication::Result<Resolved> {
        self.0
            .on_resolve_invocable(p, obj)
            .map_err(SwapError::into_repl)
    }

    fn transfer_ref(
        &mut self,
        p: &mut Process,
        r: ObjRef,
        to_sc: u32,
        entry_proxy: Option<ObjRef>,
    ) -> obiwan_replication::Result<ObjRef> {
        self.0
            .transfer(p, r, to_sc, entry_proxy)
            .map_err(SwapError::into_repl)
    }

    fn resolve_swapped(
        &mut self,
        p: &mut Process,
        oid: Oid,
    ) -> obiwan_replication::Result<Option<ObjRef>> {
        let Some(replacement) = p.swapped_replacement(oid) else {
            return Ok(None);
        };
        let sc = p
            .heap()
            .get(replacement)
            .map_err(|e| SwapError::from(e).into_repl())?
            .header()
            .swap_cluster;
        self.0.swap_in(p, sc).map_err(SwapError::into_repl)?;
        Ok(p.lookup_replica(oid))
    }
}

/// Map a [`ReplError`] from an inner invocation back into a [`SwapError`],
/// used by middleware convenience wrappers.
pub(crate) fn repl_to_swap(e: ReplError) -> SwapError {
    SwapError::Repl(e)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may panic on impossible states
mod tests {
    use super::*;
    use obiwan_net::SimNet;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A manager whose registry holds `n` random entries (small value
    /// ranges, so ties are common; about one in four not loaded), plus the
    /// same registry as one ascending list.
    fn random_registry(
        shards: usize,
        policy: VictimPolicy,
        n: u64,
        rng: &mut u64,
    ) -> (SwappingManager, Vec<(u32, SwapClusterEntry)>) {
        let mut net = SimNet::new();
        let home = net.add_device("pda", DeviceKind::Pda, 0);
        let config = SwapConfig {
            shard_count: shards,
            victim_policy: policy,
            ..SwapConfig::default()
        };
        let m = SwappingManager::new(config, Arc::new(Mutex::new(NetFabric::sim(net))), home);
        let mut registry = Vec::new();
        for _ in 0..n {
            let id = (splitmix(rng) % 200) as u32 + 1;
            let mut e = SwapClusterEntry::new();
            e.bytes = (splitmix(rng) % 4) as usize * 100;
            e.crossings = splitmix(rng) % 5;
            e.last_crossing = splitmix(rng) % 5;
            if splitmix(rng).is_multiple_of(4) {
                e.state = SwapClusterState::Dropped;
            }
            m.shards[m.shard_of(id)]
                .lock()
                .unwrap()
                .clusters
                .insert(id, e.clone());
            registry.retain(|(other, _)| *other != id);
            registry.push((id, e));
        }
        registry.sort_unstable_by_key(|(id, _)| *id);
        (m, registry)
    }

    #[test]
    fn shard_nominees_pick_the_full_registry_victim() {
        let policies = [
            VictimPolicy::LeastRecentlyUsed,
            VictimPolicy::LeastFrequentlyUsed,
            VictimPolicy::LargestFirst,
            VictimPolicy::RoundRobin,
        ];
        let mut rng = 7;
        for policy in policies {
            for shards in [1, 8, 16] {
                for round in 0..40u32 {
                    let n = splitmix(&mut rng) % 40;
                    let (m, registry) = random_registry(shards, policy, n, &mut rng);
                    // Every fourth round parks the cursor past every id,
                    // so round-robin must wrap to the smallest.
                    let cursor = if round.is_multiple_of(4) {
                        u32::MAX
                    } else {
                        (splitmix(&mut rng) % 210) as u32
                    };
                    m.victim_cursor.store(cursor, Ordering::Relaxed);
                    let want = policy.choose(registry.iter().map(|(id, e)| (*id, e)), cursor);
                    assert_eq!(
                        m.pick_victim(),
                        want,
                        "{policy} over {shards} shard(s), cursor {cursor}, {} entries",
                        registry.len()
                    );
                }
            }
        }
    }
}
