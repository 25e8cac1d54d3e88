//! Swap-out: detach a swap-cluster from the application graph and ship it
//! to a nearby device (paper §3, *Swap-Cluster Swapping-Out*).
//!
//! The operation is split into three phases so the bytes move without any
//! shard guard held — the sharded engine's concurrency story:
//!
//! 1. [`SwappingManager::detach_prepare`] — under the owning shard's lock:
//!    validation, the `detach_start` trace event, blob capture/encoding
//!    and holder-candidate ranking;
//! 2. [`ship_copies`] — a free function that takes only the net lock and
//!    transmits the blob, carrying per-send clock stamps out in its
//!    [`ShipOutcome`];
//! 3. [`SwappingManager::detach_commit`] — coordinator + shard locks:
//!    replays the shipped events into the recorder (byte-identical
//!    stamps), revalidates that no concurrent operation raced the cluster
//!    while the bytes moved, records the placement, performs the graph
//!    surgery and closes the trace pair with `detach_end`/`detach_abort`.
//!
//! [`SwappingManager::swap_out`] composes the three, then frees the
//! detached members with no guard held. Lock order per the documented
//! hierarchy: prepare takes shard → net, ship takes net alone, commit
//! takes coordinator → shard.

use crate::manager::{
    holder_candidates, lock_net, store_refused, sweep_shard_orphans, Reach, SharedNet,
};
use crate::shard::{lock_coordinator, lock_shard, Coordinator, Shard};
use crate::swap_cluster::SwapClusterState;
use crate::{codec, proxy, wire, Result, SwapConfig, SwapError, SwappingManager};
use obiwan_heap::{Collection, ObjRef, Object, ObjectKind, Value};
use obiwan_net::{Bytes, DeviceId, DeviceKind};
use obiwan_policy::PolicyEvent;
use obiwan_replication::Process;

/// A detach prepared under the shard guard: everything the shipping phase
/// needs to move the blob without touching manager state. Once one of
/// these exists the detach is in flight (`detach_start` is in the trace)
/// and it must be handed to [`SwappingManager::detach_commit`], which
/// closes the pair either way.
pub(crate) struct DetachPrep {
    /// The swap-cluster being detached.
    pub(crate) sc: u32,
    /// The epoch the blob on the wire carries.
    epoch: u32,
    /// Storage key (`dev{home}-sc{sc}-e{epoch}`).
    key: String,
    /// The encoded blob (refcounted — clones are pointer bumps).
    data: Bytes,
    /// Copies wanted ([`crate::SwapConfig::replication_factor`]).
    want: usize,
    /// How the swapping device reaches the candidates.
    reach: Reach,
    /// Candidate holders in placement-policy rank order.
    candidates: Vec<DeviceId>,
}

/// One successful transmission, with the logical clock captured while the
/// net guard was held so the commit phase can replay the `blob_shipped`
/// event with the stamp it would have had inline.
struct ShipRecord {
    /// The device that accepted the copy.
    device: DeviceId,
    /// Airtime the send cost, in µs.
    cost_us: u64,
    /// [`obiwan_net::Transport::churn_seq`] right after the send.
    churn: u64,
    /// Virtual clock (µs) right after the send.
    at_us: u64,
}

/// What a committed detach released.
pub(crate) struct Detached {
    /// Payload bytes shipped (the encoded blob's length).
    shipped: usize,
    /// Handles of the detached members: unreachable once the commit has
    /// patched every inbound proxy, still on the heap until freed.
    members: Vec<ObjRef>,
}

/// What the shipping phase produced. Infallible by construction: lock
/// poisoning and hard network errors are carried in `hard_error` so the
/// commit phase always runs and the `detach_start` pair is always closed.
pub(crate) struct ShipOutcome {
    /// Successful sends, in transmission order.
    records: Vec<ShipRecord>,
    /// A non-retriable failure that stopped the send loop, if any.
    hard_error: Option<SwapError>,
}

/// Phase 2 of swap-out: transmit the prepared blob to up to `want`
/// candidate holders, holding only the net lock. Per-device refusals
/// (quota, departure, injected faults) skip to the next candidate; a hard
/// error stops the loop and rides out in the outcome.
pub(crate) fn ship_copies(net: &SharedNet, prep: &DetachPrep) -> ShipOutcome {
    let mut out = ShipOutcome {
        records: Vec::new(),
        hard_error: None,
    };
    let mut net = match lock_net(net) {
        Ok(guard) => guard,
        Err(e) => {
            out.hard_error = Some(e);
            return out;
        }
    };
    for &device in &prep.candidates {
        if out.records.len() >= prep.want {
            break;
        }
        // `data` is refcounted — cloning per attempt is a pointer bump,
        // not a deep copy of the blob.
        let sent = prep
            .reach
            .send(&mut net, device, &prep.key, prep.data.clone());
        match sent {
            Ok(cost) => out.records.push(ShipRecord {
                device,
                cost_us: cost.as_micros(),
                churn: net.churn_seq(),
                at_us: net.now().as_micros(),
            }),
            Err(e) if store_refused(&e) => continue,
            Err(e) => {
                out.hard_error = Some(e.into());
                break;
            }
        }
    }
    out
}

impl SwappingManager {
    /// Swap out swap-cluster `sc`:
    ///
    /// 1. capture its members as a blob, serialize it with the configured
    ///    wire format ([`crate::SwapConfig::wire_format`]; the paper's XML
    ///    text by default) and store the bytes on a nearby device (trying
    ///    candidates in preference order);
    /// 2. create a **replacement-object** filled with references to the
    ///    cluster's outbound swap-cluster-proxies (keeping downstream
    ///    clusters reachable);
    /// 3. patch every **inbound** swap-cluster-proxy to target the
    ///    replacement-object;
    /// 4. detach the members and, once the commit has returned (no guard
    ///    held), free them at once ([`obiwan_heap::Heap::free_detached`]):
    ///    the commit patched every inbound proxy, so only a root can still
    ///    hold them. When a root does, one reclaim keeps what that root
    ///    reaches, frees the rest and acts on the deaths it reports.
    ///
    /// Returns the number of payload bytes shipped.
    ///
    /// # Errors
    ///
    /// [`SwapError::UnknownSwapCluster`], [`SwapError::BadState`] unless the
    /// cluster is loaded, [`SwapError::NothingToSwap`] when every member has
    /// already been collected (the entry is retired as a side effect),
    /// [`SwapError::NoStorageDevice`] when no neighbour accepts the blob,
    /// plus codec/heap errors. The graph is only mutated after the blob has
    /// been stored successfully.
    pub fn swap_out(&self, p: &mut Process, sc: u32) -> Result<usize> {
        let prep = self.detach_prepare(p, sc)?;
        let shipped = ship_copies(&self.net, &prep);
        let detached = self.detach_commit(p, prep, shipped)?;
        if p.heap_mut().free_detached(&detached.members).is_none() {
            self.reclaim(p, Collection::Full)?;
        }
        Ok(detached.shipped)
    }

    /// Phase 1 of swap-out: validate, open the trace pair with
    /// `detach_start`, capture and encode the blob and rank the candidate
    /// holders — all under the owning shard's lock (briefly taking the
    /// net lock below it for the candidate scan). On success the detach is
    /// in flight and the returned prep **must** reach
    /// [`SwappingManager::detach_commit`]; on error the pair is already
    /// closed (`detach_abort`, unless validation failed before the detach
    /// started).
    pub(crate) fn detach_prepare(&self, p: &mut Process, sc: u32) -> Result<DetachPrep> {
        let (config, preferred) = self.prefs();
        let mut shard = lock_shard(&self.shards, self.shard_of(sc))?;
        let epoch = {
            let entry = shard
                .clusters
                .get_mut(&sc)
                .ok_or(SwapError::UnknownSwapCluster { swap_cluster: sc })?;
            if !entry.is_loaded() {
                return Err(SwapError::BadState {
                    swap_cluster: sc,
                    expected: "loaded",
                    actual: entry.state.name(),
                });
            }
            // Refresh membership: drop members that died since replication.
            entry.members.retain(|(_, r)| {
                p.heap()
                    .get(*r)
                    .map(|o| o.header().swap_cluster == sc && o.kind() == ObjectKind::App)
                    .unwrap_or(false)
            });
            if entry.members.is_empty() {
                // Nothing left to swap; retire the entry and report it so
                // the victim picker can move on instead of counting an
                // empty "success".
                shard.clusters.remove(&sc);
                return Err(SwapError::NothingToSwap { swap_cluster: sc });
            }
            entry.epoch
        };
        // Validation passed: the detach is in flight from here on, and any
        // failure below reverts the cluster to loaded — mirror exactly that
        // in the trace so the conformance replay sees start/abort/end pair
        // up.
        self.recorder.detach_start(sc);
        match self.prepare_body(p, &mut shard, &config, preferred, sc, epoch) {
            Ok(prep) => Ok(prep),
            Err(e) => {
                self.recorder.detach_abort(sc);
                Err(e)
            }
        }
    }

    /// Everything past swap-out validation that still needs the shard
    /// guard; an error here aborts the in-flight detach (the cluster stays
    /// loaded).
    fn prepare_body(
        &self,
        p: &mut Process,
        shard: &mut Shard,
        config: &SwapConfig,
        preferred: Option<DeviceKind>,
        sc: u32,
        epoch: u32,
    ) -> Result<DetachPrep> {
        let members: Vec<ObjRef> = shard.clusters[&sc]
            .members
            .iter()
            .map(|&(_, r)| r)
            .collect();

        // Opportunistically clean up blobs orphaned by earlier failures on
        // this shard (shard → net, per the hierarchy).
        if !shard.orphaned_blobs.is_empty() {
            let mut net = lock_net(&self.net)?;
            sweep_shard_orphans(&mut net, &self.reach, shard);
        }

        // Capture + serialize before any graph mutation.
        let blob = codec::capture(p, sc, epoch, &members)?;
        let data = wire::encode_blob(config.wire_format, &blob)?;
        // Keys carry the swapping device's id: several PDAs may share one
        // storing neighbour ("available to any user"), and their cluster
        // ids are device-local.
        let key = format!("dev{}-sc{sc}-e{epoch}", self.home.index());
        let candidates: Vec<DeviceId> = {
            let net = lock_net(&self.net)?;
            self.recorder.sync_clock(&net);
            holder_candidates(&net, &self.reach, config, preferred, &key, data.len(), &[])
                .into_iter()
                .map(|c| c.device)
                .collect()
        };
        Ok(DetachPrep {
            sc,
            epoch,
            key,
            data,
            want: config.replication_factor,
            reach: self.reach,
            candidates,
        })
    }

    /// Phase 3 of swap-out: replay the shipped events into the recorder,
    /// revalidate the cluster, record the placement, bump the epoch and
    /// perform the graph surgery — under coordinator + shard locks (in
    /// that order). Always closes the trace pair opened by
    /// [`SwappingManager::detach_prepare`] — `detach_end` on success,
    /// `detach_abort` on any error. Freeing the detached members is left
    /// to the caller.
    pub(crate) fn detach_commit(
        &self,
        p: &mut Process,
        prep: DetachPrep,
        shipped: ShipOutcome,
    ) -> Result<Detached> {
        let sc = prep.sc;
        let outcome = {
            let mut c = lock_coordinator(&self.coordinator)?;
            let mut shard = lock_shard(&self.shards, self.shard_of(sc))?;
            self.commit_body(p, &mut c, &mut shard, &prep, shipped)
        };
        if outcome.is_err() {
            self.recorder.detach_abort(sc);
        }
        outcome
    }

    /// The fallible interior of [`SwappingManager::detach_commit`].
    fn commit_body(
        &self,
        p: &mut Process,
        c: &mut Coordinator,
        shard: &mut Shard,
        prep: &DetachPrep,
        shipped: ShipOutcome,
    ) -> Result<Detached> {
        let sc = prep.sc;
        let blob_bytes = prep.data.len();
        // Replay the sends: each `blob_shipped` carries the clock stamp
        // captured while the net guard was held, so the trace is
        // byte-identical to the single-phase form.
        let mut holders: Vec<DeviceId> = Vec::new();
        for rec in &shipped.records {
            self.recorder.blob_shipped(
                Some((rec.churn, rec.at_us)),
                sc,
                prep.epoch,
                rec.device.index(),
                blob_bytes as u64,
                rec.cost_us,
            );
            holders.push(rec.device);
        }
        // A hard error after partial stores, or a concurrent operation
        // that raced the cluster while the bytes moved without the shard
        // lock, leaves the freshly stored copies backing no placement:
        // track them as orphans rather than resurrecting a superseded
        // state.
        let current = shard.clusters.get(&sc).map(|e| (e.is_loaded(), e.epoch));
        if shipped.hard_error.is_some() || current != Some((true, prep.epoch)) {
            let key = &prep.key;
            shard
                .orphaned_blobs
                .extend(holders.into_iter().map(|d| (d, key.clone())));
            return Err(shipped.hard_error.unwrap_or(SwapError::BadState {
                swap_cluster: sc,
                expected: "loaded",
                actual: "concurrently-modified",
            }));
        }
        if holders.is_empty() {
            return Err(SwapError::NoStorageDevice {
                swap_cluster: sc,
                tried: prep.candidates.len(),
            });
        }
        let copies = holders.len();
        shard
            .placements
            .record(sc, prep.epoch, prep.key.clone(), holders);
        // The blob is out: consume this epoch now so a failure in the graph
        // surgery below cannot lead a retry into a duplicate key; the
        // already-stored blobs become orphans to sweep.
        shard
            .clusters
            .get_mut(&sc)
            .ok_or(SwapError::UnknownSwapCluster { swap_cluster: sc })?
            .epoch += 1;
        let members = match self.detach_graph(p, c, shard, sc) {
            Ok(members) => members,
            Err(e) => {
                if let Some((_, placement)) = shard.placements.remove(sc) {
                    for holder in placement.holders {
                        shard.orphaned_blobs.push((holder, prep.key.clone()));
                    }
                }
                return Err(e);
            }
        };

        self.recorder
            .detach_end(sc, prep.epoch, blob_bytes as u64, copies as u32);
        c.events.push(PolicyEvent::SwappedOut {
            swap_cluster: sc as i64,
            bytes: blob_bytes as i64,
        });
        Ok(Detached {
            shipped: blob_bytes,
            members,
        })
    }

    /// The graph surgery of swap-out: build the replacement-object, patch
    /// the inbound proxies, detach the members. Caller holds coordinator
    /// (proxy tables) and the owning shard (registry entry). Returns the
    /// handles of the detached members.
    fn detach_graph(
        &self,
        p: &mut Process,
        c: &mut Coordinator,
        shard: &mut Shard,
        sc: u32,
    ) -> Result<Vec<ObjRef>> {
        // Collect the cluster's live outbound proxies for the replacement.
        let outbound: Vec<ObjRef> = {
            let weaks = c.outbound.get(&sc).cloned().unwrap_or_default();
            let mut seen = std::collections::HashSet::new();
            weaks
                .iter()
                .filter_map(|&w| p.heap().weak_get(w))
                .filter(|r| seen.insert(*r))
                .collect()
        };

        // Build the replacement-object ("simply an array of references")
        // whole, its outbound proxies as extras, and adopt it in one step:
        // it exists complete or, on out-of-memory, not at all.
        let mw = p.universe().middleware;
        let layout = p.heap().classes().class(mw.replacement)?.field_count();
        let mut obj = Object::with_field_count(
            mw.replacement,
            ObjectKind::Replacement,
            layout + outbound.len(),
        );
        for (i, op) in outbound.into_iter().enumerate() {
            obj.set_raw_field(layout + i, Value::Ref(op));
        }
        // Its death, reported by the sweep's hook, instructs the holders to
        // drop the blob.
        obj.header_mut().swap_cluster = sc;
        let replacement = p.heap_mut().adopt(obj)?;

        // Patch inbound proxies: "every swap-cluster referencing objects
        // contained in [the victim] will be made to reference [the
        // replacement-object] instead".
        let inbound = c.inbound.get(&sc).cloned().unwrap_or_default();
        let mw_sp_target = mw.sp_target;
        for w in inbound {
            let Some(pr) = p.heap().weak_get(w) else {
                continue;
            };
            let Ok(target) = proxy::target_of(p, pr) else {
                continue;
            };
            let points_into_sc = p
                .heap()
                .get(target)
                .map(|o| o.header().swap_cluster == sc && o.kind() == ObjectKind::App)
                .unwrap_or(false);
            if points_into_sc {
                p.heap_mut()
                    .set_field(pr, mw_sp_target, Value::Ref(replacement))?;
            }
        }

        // Detach: forget the replicas so the graph no longer reaches them
        // and future replication wires new references through the
        // replacement-object.
        let entry = shard
            .clusters
            .get_mut(&sc)
            .ok_or(SwapError::UnknownSwapCluster { swap_cluster: sc })?;
        let mut members = Vec::with_capacity(entry.members.len());
        for &(oid, r) in &entry.members {
            members.push(r);
            p.forget_replica(oid);
            p.note_swapped(oid, replacement);
        }
        entry.state = SwapClusterState::SwappedOut { replacement };
        Ok(members)
    }

    /// Pick a victim by policy and swap it out. Returns the victim id, or
    /// `None` when nothing is evictable. Victims that turn out to be empty
    /// ([`SwapError::NothingToSwap`]) are retired and skipped.
    ///
    /// # Errors
    ///
    /// Propagates [`SwappingManager::swap_out`] failures.
    pub fn swap_out_victim(&self, p: &mut Process) -> Result<Option<u32>> {
        // The loop terminates: each `NothingToSwap` removes the picked
        // cluster from the registry, so the candidate set shrinks.
        while let Some(sc) = self.pick_victim() {
            match self.swap_out(p, sc) {
                Ok(_) => return Ok(Some(sc)),
                Err(SwapError::NothingToSwap { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    /// Evict victims until `bytes_used ≤ floor` after at least one, or
    /// until nothing is evictable — the out-of-memory recovery batch. Each
    /// victim is a [`SwappingManager::swap_out_victim`], so its members
    /// leave the heap before the next victim is picked. Returns how many
    /// victims were detached.
    ///
    /// # Errors
    ///
    /// As [`SwappingManager::swap_out_victim`].
    pub fn swap_out_victims_to(&self, p: &mut Process, floor: usize) -> Result<usize> {
        let mut evicted = 0;
        while evicted == 0 || p.heap().bytes_used() > floor {
            if self.swap_out_victim(p)?.is_none() {
                break;
            }
            evicted += 1;
        }
        Ok(evicted)
    }
}
