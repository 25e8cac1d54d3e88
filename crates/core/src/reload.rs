//! Swap-in: reload a swapped-out cluster from its storing device
//! (paper §3, *Swap-Cluster Reload*).
//!
//! Like swap-out, the reload is split into three phases so the bytes move
//! without any shard guard held:
//!
//! 1. [`SwappingManager::reload_prepare`] — under the owning shard's lock:
//!    validation, the `reload_start` trace event, and the placement lookup
//!    (epoch, key, holders);
//! 2. [`fetch_copy`] — a free function that takes only the net lock and
//!    runs the failover fetch over the recorded holders, carrying clock
//!    stamps out in its [`FetchOutcome`];
//! 3. [`SwappingManager::reload_commit`] — coordinator + shard locks:
//!    replays the failover events (byte-identical stamps), revalidates
//!    that no concurrent operation raced the cluster, rematerializes the
//!    members and closes the trace pair with `reload_end`/`reload_abort`.
//!
//! [`SwappingManager::swap_in`] composes the three. Lock order per the
//! documented hierarchy: prepare takes the shard lock, fetch takes net
//! alone, commit takes coordinator → shard → net (the net window only for
//! the eager blob drops).

use crate::manager::{cannot_serve, lock_net, Reach, SharedNet};
use crate::materialize::{ClusterMaterializer, FixupKind, OidMap};
use crate::shard::{lock_coordinator, lock_shard, Coordinator, Shard};
use crate::swap_cluster::SwapClusterState;
use crate::{proxy, wire, Result, SwapError, SwappingManager};
use obiwan_heap::{ObjRef, ObjectKind, Oid, Value};
use obiwan_net::{Bytes, DeviceId};
use obiwan_policy::PolicyEvent;
use obiwan_replication::Process;

/// A reload prepared under the shard guard: the placement facts the fetch
/// phase needs. Once one of these exists the reload is in flight
/// (`reload_start` is in the trace) and it must be handed to
/// [`SwappingManager::reload_commit`], which closes the pair either way.
pub(crate) struct ReloadPrep {
    /// The swap-cluster being reloaded.
    pub(crate) sc: u32,
    /// The epoch the blob on the wire carries.
    epoch: u32,
    /// Storage key the holders serve the blob under.
    key: String,
    /// Recorded holders, primary first.
    holders: Vec<DeviceId>,
    /// How the reloading device reaches them.
    reach: Reach,
    /// The replacement-object standing in for the cluster.
    replacement: ObjRef,
}

/// What the fetch phase produced. Infallible by construction: lock
/// poisoning and hard network errors ride in `hard_error` so the commit
/// phase always runs and the `reload_start` pair is always closed.
pub(crate) struct FetchOutcome {
    /// The blob, when some holder served it.
    data: Option<Bytes>,
    /// Holders that failed before the blob was found.
    tried: Vec<DeviceId>,
    /// Failovers to trace: `(holder, churn, at_us)` stamped while the net
    /// guard was held (at most `holders - 1`; the last holder failing
    /// dead-ends the reload instead).
    failovers: Vec<(DeviceId, u64, u64)>,
    /// Clock stamp right after the net guard was taken.
    clock0: Option<(u64, u64)>,
    /// Clock stamp right after the successful fetch.
    success_clock: Option<(u64, u64)>,
    /// A non-retriable failure that stopped the fetch loop, if any.
    hard_error: Option<SwapError>,
}

/// Phase 2 of swap-in: the failover fetch, holding only the net lock.
/// Holders are tried in preference order; one that departed, lost the
/// blob or became unroutable just moves the loop to the next copy.
pub(crate) fn fetch_copy(net: &SharedNet, prep: &ReloadPrep) -> FetchOutcome {
    let mut out = FetchOutcome {
        data: None,
        tried: Vec::new(),
        failovers: Vec::new(),
        clock0: None,
        success_clock: None,
        hard_error: None,
    };
    let mut net = match lock_net(net) {
        Ok(guard) => guard,
        Err(e) => {
            out.hard_error = Some(e);
            return out;
        }
    };
    out.clock0 = Some((net.churn_seq(), net.now().as_micros()));
    for (i, &holder) in prep.holders.iter().enumerate() {
        match prep.reach.fetch(&mut net, holder, &prep.key) {
            Ok(bytes) => {
                out.success_clock = Some((net.churn_seq(), net.now().as_micros()));
                out.data = Some(bytes);
                break;
            }
            Err(e) if cannot_serve(&e) => {
                out.tried.push(holder);
                // A failover is trying *another* copy; the last holder
                // failing dead-ends the reload instead, so at most
                // `k - 1` of these can ever be traced.
                if i + 1 < prep.holders.len() {
                    out.failovers
                        .push((holder, net.churn_seq(), net.now().as_micros()));
                }
                continue;
            }
            Err(e) => {
                out.hard_error = Some(e.into());
                break;
            }
        }
    }
    out
}

impl SwappingManager {
    /// Reload swap-cluster `sc` from the device it was swapped to:
    ///
    /// 1. fetch the blob and decode it via its self-describing header
    ///    ([`wire::decode_blob_into`] auto-detects XML / binary / LZ, so a
    ///    room holding mixed-format blobs reloads fine);
    /// 2. rematerialize the member replicas (identity, class, payloads);
    /// 3. reconnect references: in-cluster refs directly, outbound refs to
    ///    the surviving swap-cluster-proxies held by the replacement-object,
    ///    references to never-replicated objects as fault proxies;
    /// 4. patch every inbound swap-cluster-proxy back from the
    ///    replacement-object to the fresh replicas;
    /// 5. retire the replacement-object (it becomes garbage) and drop every
    ///    copy the cluster's placement lists at commit.
    ///
    /// # Errors
    ///
    /// [`SwapError::UnknownSwapCluster`], [`SwapError::BadState`] when the
    /// cluster is loaded, [`SwapError::DataLost`] when the cluster was
    /// dropped by the GC cooperation (its replacement-object died and the
    /// blob was released), [`SwapError::BlobUnavailable`] when every
    /// recorded holder was tried and none could serve the blob (the
    /// cluster stays swapped out so the operation can be retried if a
    /// holder returns), plus codec / heap errors (out-of-memory leaves the
    /// cluster swapped out and the graph untouched).
    pub fn swap_in(&self, p: &mut Process, sc: u32) -> Result<usize> {
        let prep = self.reload_prepare(sc)?;
        let fetched = fetch_copy(&self.net, &prep);
        self.reload_commit(p, prep, fetched)
    }

    /// Phase 1 of swap-in: validate, open the trace pair with
    /// `reload_start` and look up the placement — under the owning shard's
    /// lock. On success the reload is in flight and the returned prep
    /// **must** reach [`SwappingManager::reload_commit`]; on error the
    /// pair is already closed (`reload_abort`, unless validation failed
    /// before the reload started).
    pub(crate) fn reload_prepare(&self, sc: u32) -> Result<ReloadPrep> {
        let shard = lock_shard(&self.shards, self.shard_of(sc))?;
        let replacement = {
            let entry = shard
                .clusters
                .get(&sc)
                .ok_or(SwapError::UnknownSwapCluster { swap_cluster: sc })?;
            match &entry.state {
                SwapClusterState::SwappedOut { replacement } => *replacement,
                SwapClusterState::Dropped => {
                    // The replacement-object died unreferenced and the GC
                    // cooperation released the blob; there is nothing left
                    // to fetch, ever — not a retriable state error.
                    return Err(SwapError::DataLost {
                        swap_cluster: sc,
                        cause: "cluster was dropped by GC cooperation \
                                (replacement-object collected, blob released)"
                            .into(),
                    });
                }
                other => {
                    return Err(SwapError::BadState {
                        swap_cluster: sc,
                        expected: "swapped-out",
                        actual: other.name(),
                    })
                }
            }
        };
        // Validation passed: the reload is in flight, and any failure below
        // leaves the cluster swapped out — emit the matching abort so the
        // conformance replay tracks the revert.
        self.recorder.reload_start(sc);
        match shard.placements.active(sc) {
            Some((epoch, placement)) => Ok(ReloadPrep {
                sc,
                epoch,
                key: placement.key.clone(),
                holders: placement.holders.clone(),
                reach: self.reach,
                replacement,
            }),
            None => {
                self.recorder.reload_abort(sc);
                Err(SwapError::UnknownSwapCluster { swap_cluster: sc })
            }
        }
    }

    /// Phase 3 of swap-in: replay the fetch-phase events into the
    /// recorder, then rematerialize the cluster from the blob — under
    /// coordinator + shard locks (in that order). Always closes the trace
    /// pair opened by [`SwappingManager::reload_prepare`] — `reload_end`
    /// on success, `reload_abort` on any error.
    pub(crate) fn reload_commit(
        &self,
        p: &mut Process,
        prep: ReloadPrep,
        fetched: FetchOutcome,
    ) -> Result<usize> {
        let sc = prep.sc;
        let result = {
            let mut c = lock_coordinator(&self.coordinator)?;
            let mut shard = lock_shard(&self.shards, self.shard_of(sc))?;
            self.commit_reload(p, &mut c, &mut shard, &prep, fetched)
        };
        match result {
            Ok(bytes) => Ok(bytes),
            Err(e) => {
                self.recorder.reload_abort(sc);
                Err(e)
            }
        }
    }

    /// The fallible interior of [`SwappingManager::reload_commit`].
    fn commit_reload(
        &self,
        p: &mut Process,
        c: &mut Coordinator,
        shard: &mut Shard,
        prep: &ReloadPrep,
        fetched: FetchOutcome,
    ) -> Result<usize> {
        let sc = prep.sc;
        let epoch = prep.epoch;
        let key = &prep.key;
        let replacement = prep.replacement;
        // Replay the fetch: every stamp was captured while the net guard
        // was held, so the trace is byte-identical to the single-phase
        // form.
        if let Some((churn, at_us)) = fetched.clock0 {
            self.recorder.set_clock(churn, at_us);
        }
        for &(holder, churn, at_us) in &fetched.failovers {
            self.recorder
                .failover(Some((churn, at_us)), sc, epoch, holder.index());
        }
        if let Some(e) = fetched.hard_error {
            return Err(e);
        }
        // Revalidate: the shard lock was released while the bytes moved.
        // If a concurrent operation raced the cluster, this reload's view
        // is stale — bail before any graph mutation.
        let still_ours = shard.clusters.get(&sc).is_some_and(|e| {
            matches!(&e.state,
                SwapClusterState::SwappedOut { replacement: r } if *r == replacement)
        });
        if !still_ours {
            return Err(SwapError::BadState {
                swap_cluster: sc,
                expected: "swapped-out",
                actual: "concurrently-modified",
            });
        }
        let tried = fetched.tried;
        let Some(data) = fetched.data else {
            return Err(SwapError::BlobUnavailable {
                swap_cluster: sc,
                epoch,
                tried,
            });
        };
        if let Some((churn, at_us)) = fetched.success_clock {
            self.recorder.set_clock(churn, at_us);
        }
        let blob_bytes = data.len();
        // Decode straight into detached arena objects: one streaming pass
        // over the wire bytes (byte payloads sliced zero-copy out of the
        // fetched buffer), no `Blob` IR and no per-field re-accounting. The
        // materializer is pure, so a parse error here leaves the heap
        // untouched.
        let mut mat = ClusterMaterializer::new(p.universe().registry.clone(), sc);
        let header = wire::decode_blob_into(&data, &mut mat)?;
        if header.swap_cluster != sc {
            return Err(SwapError::codec(format!(
                "blob `{key}` labels itself swap-cluster {}, expected {sc}",
                header.swap_cluster
            )));
        }
        let (objects, fixups) = mat.into_parts();

        // Pass 1: adopt the members, in stream order — the same handle
        // sequence the per-object alloc path produced. Reserving from the
        // frame's object count keeps slab growth out of the loop.
        p.heap_mut().reserve_slots(objects.len());
        let mut member_map: OidMap<ObjRef> =
            OidMap::with_capacity_and_hasher(objects.len(), Default::default());
        let mut members: Vec<(Oid, ObjRef)> = Vec::with_capacity(objects.len());
        for (oid, obj) in objects {
            let r = match p.heap_mut().adopt(obj) {
                Ok(r) => r,
                Err(e) => {
                    // Nothing registered yet; the orphan adoptions are
                    // reclaimed by the next collection. State unchanged.
                    return Err(e.into());
                }
            };
            member_map.insert(oid, r);
            members.push((oid, r));
        }

        // The outbound proxies kept alive by the replacement-object.
        let outbound_by_oid: OidMap<ObjRef> = {
            let extras = p.heap().extra_fields(replacement)?.to_vec();
            extras
                .iter()
                .filter_map(|v| v.as_ref_value())
                .filter(|r| {
                    p.heap()
                        .get(*r)
                        .map(|o| o.kind() == ObjectKind::SwapProxy)
                        .unwrap_or(false)
                })
                .map(|r| Ok((proxy::oid_of(p, r)?, r)))
                .collect::<Result<_>>()?
        };

        // Pass 2: resolve the reference fixups, in stream order. The
        // reconnect procedures are idempotent per identity, so memoizing
        // them per distinct oid walks the proxy index once per target
        // instead of once per referring field, with the allocation order
        // of resolving every field in turn.
        let mut memo_proxy: OidMap<ObjRef> = OidMap::default();
        let mut memo_fault: OidMap<ObjRef> = OidMap::default();
        for f in &fixups {
            let (_, holder) = members[f.ordinal as usize];
            let target = match f.kind {
                FixupKind::Member => member_map.get(&f.oid).copied().ok_or_else(|| {
                    SwapError::codec(format!(
                        "blob references member {} which it does not contain",
                        f.oid
                    ))
                })?,
                FixupKind::Proxy | FixupKind::Fault => {
                    // A proxied reference first tries the outbound proxies
                    // the replacement-object kept alive; a reference to an
                    // identity not replicated at swap-out, the members.
                    let (memo, known) = if f.kind == FixupKind::Proxy {
                        (&mut memo_proxy, &outbound_by_oid)
                    } else {
                        (&mut memo_fault, &member_map)
                    };
                    match memo.get(&f.oid) {
                        Some(&t) => t,
                        None => {
                            let t = match known.get(&f.oid) {
                                Some(&t) => t,
                                None => self.reconnect_ref(p, c, sc, f.oid)?,
                            };
                            memo.insert(f.oid, t);
                            t
                        }
                    }
                }
            };
            p.heap_mut()
                .set_any_field(holder, f.field as usize, Value::Ref(target))?;
        }

        // Pass 3: patch inbound proxies back to the fresh replicas.
        let inbound = c.inbound.get(&sc).cloned().unwrap_or_default();
        for w in inbound {
            let Some(pr) = p.heap().weak_get(w) else {
                continue;
            };
            let oid = proxy::oid_of(p, pr)?;
            if let Some(&m) = member_map.get(&oid) {
                let mw = p.universe().middleware;
                p.heap_mut().set_field(pr, mw.sp_target, Value::Ref(m))?;
            }
        }

        // Pass 4: registration and entry bookkeeping.
        let mut bytes = 0;
        for &(oid, m) in &members {
            p.register_replica(oid, m);
            p.clear_swapped(oid);
            bytes += p.heap().get(m)?.size();
        }
        {
            let entry = shard
                .clusters
                .get_mut(&sc)
                .ok_or(SwapError::UnknownSwapCluster { swap_cluster: sc })?;
            entry.members = members;
            entry.bytes = bytes;
            entry.state = SwapClusterState::Loaded;
        }

        // The replacement-object is no longer needed: nothing in the
        // application graph references it, so it is garbage. Retire it to
        // the nursery so the next collection, minor or full, frees it; its
        // death drops nothing, because it is no longer the cluster's
        // current stand-in.
        p.heap_mut().retire(replacement);
        // Loaded again: retire the placement and drop every copy it lists
        // now, including any a repair pass added while the bytes moved.
        if let Some((_, placement)) = shard.placements.remove(sc) {
            let mut net = lock_net(&self.net)?;
            self.discard_copies(&mut net, shard, sc, placement);
        }
        self.recorder
            .reload_end(sc, epoch, blob_bytes as u64, tried.len() as u32);
        c.events.push(PolicyEvent::SwappedIn {
            swap_cluster: sc as i64,
        });
        Ok(blob_bytes)
    }

    /// Reconnect a member field to identity `oid` when neither an
    /// outbound proxy nor a member covers it (a proxy re-targeted by the
    /// iteration optimization, or an identity replicated or even swapped
    /// since swap-out): a replica in `sc` directly, any other replica or
    /// a replacement-object through a proxy, else a fault proxy. Caller
    /// holds the coordinator (proxy tables).
    fn reconnect_ref(
        &self,
        p: &mut Process,
        c: &mut Coordinator,
        sc: u32,
        oid: Oid,
    ) -> Result<ObjRef> {
        if let Some(t) = p.lookup_replica(oid) {
            let t_sc = p.heap().get(t)?.header().swap_cluster;
            if t_sc == sc {
                return Ok(t);
            }
            return self.proxy_for(p, c, sc, t, oid);
        }
        if let Some(rep) = p.swapped_replacement(oid) {
            return self.proxy_for(p, c, sc, rep, oid);
        }
        Ok(p.ensure_fault_proxy(oid)?)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may panic on impossible states
mod tests {
    use super::*;
    use crate::{Middleware, StoreSpec, SwapConfig};
    use obiwan_net::DeviceKind;
    use obiwan_replication::{standard_classes, Server};

    /// A repair pass between a reload's prepare and its commit adds a
    /// holder; the commit drops the copies the placement lists then, so
    /// the added copy does not outlive the placement untracked (audit G1).
    #[test]
    fn a_reload_drops_the_copy_a_repair_added_after_prepare() {
        let mut server = Server::new(standard_classes());
        let head = server.build_list("Node", 40, 16).expect("build list");
        let mut mw = Middleware::builder()
            .cluster_size(10)
            .device_memory(1 << 20)
            .no_builtin_policies()
            .stores(
                (0..3)
                    .map(|i| StoreSpec::new(format!("store-{i}"), DeviceKind::Laptop, 1 << 20))
                    .collect(),
            )
            .swap_config(SwapConfig::default().replication_factor(2))
            .build(server);
        let root = mw.replicate_root(head).expect("replicate root");
        mw.set_global("head", Value::Ref(root));
        mw.invoke_i64(root, "length", vec![]).expect("warm-up");
        mw.swap_out(2).expect("swap out sc2");
        let m = mw.manager();
        let (_, key, placed) = m.holders_of(2).expect("placed");
        mw.net()
            .lock()
            .expect("net")
            .depart(placed[0])
            .expect("depart the primary");

        let prep = m.reload_prepare(2).expect("prepare");
        m.repair_placements().expect("repair");
        let (_, _, repaired) = m.holders_of(2).expect("still placed");
        let added = *repaired
            .iter()
            .find(|d| !placed.contains(d))
            .expect("the repair added a holder");
        let fetched = fetch_copy(&m.net, &prep);
        m.reload_commit(mw.process_mut(), prep, fetched)
            .expect("commit");

        assert!(
            !mw.net().lock().expect("net").holds_blob(added, &key),
            "the copy the repair added is dropped with the placement"
        );
        let report = mw.audit();
        assert!(!report.has_errors(), "after the reload:\n{report}");
    }
}
