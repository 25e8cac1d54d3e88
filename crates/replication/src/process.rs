//! The device-side replication runtime: heap + invocation + fault handling.

use crate::methods::{
    Universe, FAULT_PROXY_CLASS_NAME, REPLACEMENT_CLASS_NAME, SWAP_PROXY_CLASS_NAME,
};
use crate::{ReplError, ReplicationEvent, Result, SharedServer, WireValue};
use obiwan_heap::{
    Collection, FieldId, Heap, ObjRef, Object, ObjectHeader, ObjectKind, Oid, Value,
};
use std::collections::HashMap;

/// Public name of the object-fault proxy class (see [`crate::Universe`]).
pub const FAULT_PROXY_CLASS: &str = FAULT_PROXY_CLASS_NAME;
/// Public name of the swap-cluster-proxy class.
pub const SWAP_PROXY_CLASS: &str = SWAP_PROXY_CLASS_NAME;
/// Public name of the replacement-object class.
pub const REPLACEMENT_CLASS: &str = REPLACEMENT_CLASS_NAME;

/// Configuration of the replication runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplConfig {
    /// Objects per replication cluster (the paper's "adaptable size").
    pub cluster_size: usize,
}

impl ReplConfig {
    /// Config with the given cluster size.
    pub fn with_cluster_size(cluster_size: usize) -> Self {
        ReplConfig {
            cluster_size: cluster_size.max(1),
        }
    }
}

impl Default for ReplConfig {
    fn default() -> Self {
        ReplConfig { cluster_size: 50 }
    }
}

/// One invocation frame: the swap-cluster the executing method's receiver
/// belongs to. An empty stack means application code, i.e. the paper's
/// *swap-cluster-0*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Receiver's swap-cluster.
    pub swap_cluster: u32,
}

/// Everything the swap layer needs to know about a freshly replicated
/// cluster (handed to [`Interceptor::cluster_replicated`]).
#[derive(Debug, Clone)]
pub struct ClusterInfo {
    /// Device-local replication cluster index.
    pub repl_cluster: u32,
    /// The materialized replicas.
    pub members: Vec<ObjRef>,
    /// Non-member `(holder, field index)` slots whose fault-proxy reference
    /// was just replaced by a direct reference to a member (the paper's
    /// *proxy replacement* step — the swap layer re-mediates the
    /// cross-swap-cluster ones).
    pub patched_fields: Vec<(ObjRef, usize)>,
    /// Global variables whose fault-proxy reference was just replaced.
    pub patched_globals: Vec<String>,
}

/// Result of [`Interceptor::resolve_invocable`].
#[derive(Debug, Clone, Copy)]
pub struct Resolved {
    /// The application object to actually invoke.
    pub target: ObjRef,
    /// The swap-cluster-proxy the invocation entered through, if any (used
    /// by the iteration optimization to patch the proxy on return).
    pub entry_proxy: Option<ObjRef>,
}

/// Hook through which the Object-Swapping layer participates in
/// replication and invocation without this crate depending on it.
///
/// All methods receive the [`Process`] re-borrowed, so implementations can
/// freely allocate proxies, patch fields, and trigger swap-ins.
///
/// `Send` is required so a whole device stack can move across threads
/// (benchmarks run deep-recursion workloads on big-stack threads).
pub trait Interceptor: Send {
    /// A cluster was replicated; assign its members to swap-clusters and
    /// re-mediate cross-swap-cluster references with swap-cluster-proxies.
    ///
    /// # Errors
    ///
    /// Propagated to the faulting invocation.
    fn cluster_replicated(&mut self, p: &mut Process, info: &ClusterInfo) -> Result<()>;

    /// An object of kind `SwapProxy` or `Replacement` is being invoked;
    /// resolve it to the application object (swapping the victim cluster
    /// back in if needed) and report the entry proxy.
    ///
    /// # Errors
    ///
    /// Propagated to the invocation (e.g. swap-in failed because the
    /// storing device departed).
    fn resolve_invocable(&mut self, p: &mut Process, obj: ObjRef) -> Result<Resolved>;

    /// A reference is being handed across contexts (argument passing or
    /// return) into swap-cluster `to_sc`; return the reference to actually
    /// deliver (creating, reusing, patching or dismantling a
    /// swap-cluster-proxy per the paper's rules i–iii).
    ///
    /// # Errors
    ///
    /// Propagated to the invocation.
    fn transfer_ref(
        &mut self,
        p: &mut Process,
        r: ObjRef,
        to_sc: u32,
        entry_proxy: Option<ObjRef>,
    ) -> Result<ObjRef>;

    /// A fault proxy was invoked for an identity whose cluster is swapped
    /// out (the proxy predates the swap and lingered in a variable).
    /// Reload the cluster and return the replica; `Ok(None)` declines,
    /// turning the fault into an error.
    ///
    /// # Errors
    ///
    /// Propagated to the invocation (e.g. the storing device is gone).
    fn resolve_swapped(&mut self, p: &mut Process, oid: Oid) -> Result<Option<ObjRef>> {
        let _ = (p, oid);
        Ok(None)
    }
}

/// The device-side runtime: a managed heap plus the replication and
/// invocation machinery.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
pub struct Process {
    heap: Heap,
    universe: Universe,
    server: SharedServer,
    config: ReplConfig,
    /// Live application replicas by identity.
    oid_map: HashMap<Oid, ObjRef>,
    /// Outstanding fault proxies by target identity.
    fault_proxies: HashMap<Oid, ObjRef>,
    /// Identities whose replicas are currently swapped out, mapped to the
    /// replacement object standing in for their cluster.
    swapped: HashMap<Oid, ObjRef>,
    interceptor: Option<Box<dyn Interceptor>>,
    stack: Vec<Frame>,
    next_repl_cluster: u32,
    events: Vec<ReplicationEvent>,
    invocations: u64,
    faults: u64,
}

impl std::fmt::Debug for Process {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Process")
            .field("replicas", &self.oid_map.len())
            .field("fault_proxies", &self.fault_proxies.len())
            .field("swapped", &self.swapped.len())
            .field("invocations", &self.invocations)
            .field("heap_bytes", &self.heap.bytes_used())
            .finish()
    }
}

impl Process {
    /// Create a process with `capacity` bytes of device memory.
    pub fn new(
        universe: Universe,
        server: SharedServer,
        capacity: usize,
        config: ReplConfig,
    ) -> Self {
        Process {
            heap: Heap::new(universe.registry.clone(), capacity),
            universe,
            server,
            config,
            oid_map: HashMap::new(),
            fault_proxies: HashMap::new(),
            swapped: HashMap::new(),
            interceptor: None,
            stack: Vec::new(),
            next_repl_cluster: 0,
            events: Vec::new(),
            invocations: 0,
            faults: 0,
        }
    }

    /// The class universe.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The managed heap.
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Mutable access to the managed heap (middleware surgery).
    pub fn heap_mut(&mut self) -> &mut Heap {
        &mut self.heap
    }

    /// The shared server connection.
    pub fn server(&self) -> &SharedServer {
        &self.server
    }

    /// The replication configuration.
    pub fn config(&self) -> ReplConfig {
        self.config
    }

    /// Adapt the replication cluster size at runtime (the paper's
    /// "adaptable size", steered by policies).
    pub fn set_cluster_size(&mut self, n: usize) {
        self.config.cluster_size = n.max(1);
    }

    /// Get or create the fault proxy for an identity (exposed for the swap
    /// layer's reload path, which may reconstruct references to objects
    /// that were never replicated).
    ///
    /// # Errors
    ///
    /// Heap errors (notably out-of-memory).
    pub fn ensure_fault_proxy(&mut self, oid: Oid) -> Result<ObjRef> {
        self.fault_proxy_for(oid)
    }

    /// Install the swap layer.
    pub fn set_interceptor(&mut self, interceptor: Box<dyn Interceptor>) {
        self.interceptor = Some(interceptor);
    }

    /// Whether a swap layer is installed.
    pub fn has_interceptor(&self) -> bool {
        self.interceptor.is_some()
    }

    /// Number of live application replicas.
    pub fn replicated_objects(&self) -> usize {
        self.oid_map.len()
    }

    /// Cumulative `(invocations, object faults)`.
    pub fn counters(&self) -> (u64, u64) {
        (self.invocations, self.faults)
    }

    /// The swap-cluster of the currently executing method's receiver, or
    /// `0` (swap-cluster-0) in application code.
    pub fn current_swap_cluster(&self) -> u32 {
        self.stack.last().map(|f| f.swap_cluster).unwrap_or(0)
    }

    /// Drain the replication events produced since the last call.
    pub fn take_events(&mut self) -> Vec<ReplicationEvent> {
        std::mem::take(&mut self.events)
    }

    /// Whether replication events are pending (cheap check for event-driven
    /// policy pumping).
    pub fn has_events(&self) -> bool {
        !self.events.is_empty()
    }

    /// How many replication events are pending.
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// Withdraw the [`ReplicationEvent::ReplicationFailed`] events queued
    /// after the first `mark` pending ones: the caller recovered from those
    /// failures, so no listener should react to them.
    pub fn retract_failures_since(&mut self, mark: usize) {
        let mut index = 0;
        self.events.retain(|e| {
            index += 1;
            index <= mark || !matches!(e, ReplicationEvent::ReplicationFailed { .. })
        });
    }

    /// Run a collection of the given kind and drop the runtime tables'
    /// (object table, fault proxy registry) entries for the objects it
    /// freed — the equivalent of a VM object table holding its entries
    /// weakly. The work is per dead replica or fault proxy, not per entry.
    /// Every death is then passed on to `on_dead` (its last handle and its
    /// header): this is the one way a caller hears that an object died.
    /// Prefer this over collecting the raw heap.
    pub fn collect(
        &mut self,
        kind: Collection,
        mut on_dead: impl FnMut(ObjRef, &ObjectHeader),
    ) -> obiwan_heap::CollectStats {
        let (replicas, fault_proxies) = (&mut self.oid_map, &mut self.fault_proxies);
        self.heap.collect_with(kind, |dead, header| {
            let table = match header.kind {
                ObjectKind::App => &mut *replicas,
                ObjectKind::FaultProxy => &mut *fault_proxies,
                _ => return on_dead(dead, header),
            };
            if table.get(&header.oid) == Some(&dead) {
                table.remove(&header.oid);
            }
            on_dead(dead, header);
        })
    }

    // --- Identity bookkeeping shared with the swap layer -------------------

    /// Look up the live replica of an identity.
    ///
    /// Entries whose replica has been garbage-collected are invisible (a
    /// VM's object table holds its entries weakly); they are physically
    /// pruned by [`Process::collect`].
    pub fn lookup_replica(&self, oid: Oid) -> Option<ObjRef> {
        self.oid_map
            .get(&oid)
            .copied()
            .filter(|r| self.heap.is_live(*r))
    }

    /// Register a replica (used by swap-in when replicas rematerialize).
    pub fn register_replica(&mut self, oid: Oid, r: ObjRef) {
        self.oid_map.insert(oid, r);
    }

    /// Forget a replica (used by swap-out when replicas are detached).
    pub fn forget_replica(&mut self, oid: Oid) -> Option<ObjRef> {
        self.oid_map.remove(&oid)
    }

    /// Record that `oid`'s cluster is swapped out behind `replacement`.
    pub fn note_swapped(&mut self, oid: Oid, replacement: ObjRef) {
        self.swapped.insert(oid, replacement);
    }

    /// Clear the swapped-out note for `oid` (on reload or drop).
    pub fn clear_swapped(&mut self, oid: Oid) {
        self.swapped.remove(&oid);
    }

    /// The replacement object standing in for `oid`, if swapped out and
    /// the replacement is still live (a dead replacement means the cluster
    /// is unreachable and its identities may be replicated afresh).
    pub fn swapped_replacement(&self, oid: Oid) -> Option<ObjRef> {
        self.swapped
            .get(&oid)
            .copied()
            .filter(|r| self.heap.is_live(*r))
    }

    /// Number of identities currently swapped out.
    pub fn swapped_objects(&self) -> usize {
        self.swapped.len()
    }

    // --- Field and global access -------------------------------------------

    /// Read a field by name (cloned). Methods use this for *their own*
    /// state; cross-cluster access goes through [`Process::invoke`].
    ///
    /// # Errors
    ///
    /// Heap errors (invalid ref, unknown field).
    pub fn field_value(&self, obj: ObjRef, name: &str) -> Result<Value> {
        Ok(self.heap.field_by_name(obj, name)?.clone())
    }

    /// Write a field by name.
    ///
    /// # Errors
    ///
    /// Heap errors (invalid ref, unknown field, type mismatch, OOM).
    pub fn set_field_value(&mut self, obj: ObjRef, name: &str, value: Value) -> Result<()> {
        self.heap.set_field_by_name(obj, name, value)?;
        Ok(())
    }

    /// Read a global variable.
    ///
    /// # Errors
    ///
    /// [`obiwan_heap::HeapError::NoSuchGlobal`].
    pub fn global(&self, name: &str) -> Result<Value> {
        Ok(self.heap.global(name)?.clone())
    }

    /// Set a global variable (a swap-cluster-0 root).
    pub fn set_global(&mut self, name: impl Into<String>, value: Value) {
        self.heap.set_global(name, value);
    }

    // --- Invocation ---------------------------------------------------------

    /// Invoke `method` on `target` with `args`.
    ///
    /// `target` may be an application object, a fault proxy (replication is
    /// triggered transparently), a swap-cluster-proxy, or — indirectly — a
    /// replacement object (the swap layer reloads the cluster). Reference
    /// arguments and the returned reference are *transferred* between the
    /// caller's and callee's swap-cluster contexts via the interceptor,
    /// which is where the paper's proxy rules live.
    ///
    /// # Errors
    ///
    /// Method resolution, heap, replication and swap errors; notably
    /// out-of-memory during a triggered replication, which the middleware
    /// handles by swapping out a victim and retrying the operation.
    pub fn invoke(&mut self, target: ObjRef, method: &str, args: Vec<Value>) -> Result<Value> {
        let (this, entry_proxy) = self.resolve_target(target)?;
        let callee_sc = self.heap.get(this)?.header().swap_cluster;
        let caller_sc = self.current_swap_cluster();
        // Transfer argument references into the callee's context.
        let args = self.transfer_values(args, callee_sc, None)?;
        let class = self.heap.get(this)?.class();
        let body = self.universe.method(class, method)?;
        self.stack.push(Frame {
            swap_cluster: callee_sc,
        });
        self.invocations += 1;
        let out = body(self, this, &args);
        self.stack.pop();
        let out = out?;
        // Transfer the returned reference back into the caller's context.
        match out {
            Value::Ref(r) => {
                let r = self.transfer(r, caller_sc, entry_proxy)?;
                Ok(Value::Ref(r))
            }
            other => Ok(other),
        }
    }

    /// Invoke and expect an integer result.
    ///
    /// # Errors
    ///
    /// As [`Process::invoke`], plus a type mismatch on the result.
    pub fn invoke_i64(&mut self, target: ObjRef, method: &str, args: Vec<Value>) -> Result<i64> {
        Ok(self.invoke(target, method, args)?.expect_int()?)
    }

    /// Invoke and expect a reference result.
    ///
    /// # Errors
    ///
    /// As [`Process::invoke`], plus a type mismatch on the result.
    pub fn invoke_ref(&mut self, target: ObjRef, method: &str, args: Vec<Value>) -> Result<ObjRef> {
        Ok(self.invoke(target, method, args)?.expect_ref()?)
    }

    fn resolve_target(&mut self, target: ObjRef) -> Result<(ObjRef, Option<ObjRef>)> {
        let mut t = target;
        let mut entry_proxy = None;
        for _ in 0..8 {
            match self.heap.get(t)?.kind() {
                ObjectKind::App => return Ok((t, entry_proxy)),
                ObjectKind::FaultProxy => {
                    t = self.fault(t)?;
                }
                ObjectKind::SwapProxy | ObjectKind::Replacement => {
                    let kind = self.heap.get(t)?.kind();
                    let resolved = match self.interceptor.take() {
                        Some(mut ic) => {
                            let out = ic.resolve_invocable(self, t);
                            self.interceptor = Some(ic);
                            out?
                        }
                        None => return Err(ReplError::NoInterceptor { kind }),
                    };
                    entry_proxy = resolved.entry_proxy.or(entry_proxy);
                    t = resolved.target;
                }
            }
        }
        Err(ReplError::Unresolvable {
            obj: t,
            kind: self.heap.get(t)?.kind(),
        })
    }

    fn transfer_values(
        &mut self,
        values: Vec<Value>,
        to_sc: u32,
        entry_proxy: Option<ObjRef>,
    ) -> Result<Vec<Value>> {
        values
            .into_iter()
            .map(|v| match v {
                Value::Ref(r) => Ok(Value::Ref(self.transfer(r, to_sc, entry_proxy)?)),
                other => Ok(other),
            })
            .collect()
    }

    fn transfer(&mut self, r: ObjRef, to_sc: u32, entry_proxy: Option<ObjRef>) -> Result<ObjRef> {
        match self.interceptor.take() {
            Some(mut ic) => {
                let out = ic.transfer_ref(self, r, to_sc, entry_proxy);
                self.interceptor = Some(ic);
                out
            }
            None => Ok(r),
        }
    }

    // --- Write-back -----------------------------------------------------------

    /// Commit a replica's current state back to the server (the update
    /// half of OBIWAN replication). Reference fields are translated to
    /// identities — looking *through* swap-cluster-proxies and fault
    /// proxies, so a replica whose neighbours are swapped out or
    /// unreplicated commits cleanly.
    ///
    /// # Errors
    ///
    /// [`ReplError::UnknownOid`] if `oid` has no live replica here (a
    /// swapped-out object's state lives in its blob; reload it first), or
    /// server-side errors.
    pub fn commit_replica(&mut self, oid: Oid) -> Result<()> {
        let r = self
            .lookup_replica(oid)
            .ok_or(ReplError::UnknownOid { oid })?;
        let (class, fields) = {
            let obj = self.heap.get(r)?;
            (obj.class(), obj.fields().to_vec())
        };
        let mut wire_fields = Vec::with_capacity(fields.len());
        for v in fields {
            wire_fields.push(match v {
                Value::Null => WireValue::Null,
                Value::Ref(t) => {
                    let target_oid = self.heap.get(t)?.header().oid;
                    if target_oid.0 == 0 {
                        return Err(ReplError::corrupt(format!(
                            "replica {oid} references a purely local object; \
                             locally allocated objects cannot be committed"
                        )));
                    }
                    WireValue::Ref(target_oid)
                }
                scalar => WireValue::Scalar(scalar),
            });
        }
        let update = crate::WireObject {
            oid,
            class,
            fields: wire_fields,
        };
        // Single-threaded use in this repo: the server mutex cannot be
        // poisoned because no other thread can panic while holding it.
        #[allow(clippy::disallowed_methods)]
        let mut server = self.server.lock().expect("server mutex poisoned");
        server.apply_update(&update)
    }

    /// Commit every live replica (a "sync" before the device leaves the
    /// network). Returns how many objects were pushed.
    ///
    /// # Errors
    ///
    /// First server-side failure aborts the sync.
    pub fn commit_all(&mut self) -> Result<usize> {
        let oids: Vec<Oid> = self
            .oid_map
            .iter()
            .filter(|(_, r)| self.heap.is_live(**r))
            .map(|(oid, _)| *oid)
            .collect();
        let mut committed = 0;
        for oid in oids {
            self.commit_replica(oid)?;
            committed += 1;
        }
        Ok(committed)
    }

    // --- Replication ---------------------------------------------------------

    /// Replicate the cluster containing `root` (if not already present) and
    /// return a reference suitable for application code (i.e. transferred
    /// into swap-cluster-0 context: mediated by a swap-cluster-proxy when
    /// swapping is active).
    ///
    /// # Errors
    ///
    /// [`ReplError::UnknownOid`], out-of-memory, or interceptor errors.
    pub fn replicate_root(&mut self, root: Oid) -> Result<ObjRef> {
        if self.lookup_replica(root).is_none() {
            self.replicate_cluster(root)?;
        }
        let r = self
            .lookup_replica(root)
            .ok_or(ReplError::UnknownOid { oid: root })?;
        self.transfer(r, 0, None)
    }

    /// Resolve `r` to an application object, faulting in the replica when
    /// `r` is a fault-proxy placeholder (the handle of a faulted-in object
    /// differs from the proxy's). Non-fault-proxy handles come back
    /// unchanged.
    ///
    /// # Errors
    ///
    /// Fault failures: unknown identity, server unreachable, or a zombie
    /// proxy whose swapped-out cluster cannot be reloaded.
    pub fn ensure_replica(&mut self, r: ObjRef) -> Result<ObjRef> {
        if self.heap.get(r)?.kind() == ObjectKind::FaultProxy {
            self.fault(r)
        } else {
            Ok(r)
        }
    }

    /// Handle an object fault: replicate the cluster containing the proxy's
    /// target and return the replica.
    fn fault(&mut self, proxy: ObjRef) -> Result<ObjRef> {
        let mw = self.universe.middleware;
        let oid = Oid(self.heap.field(proxy, mw.fp_oid)?.expect_int()? as u64);
        self.faults += 1;
        self.events.push(ReplicationEvent::ObjectFault { oid });
        if let Some(r) = self.oid_map.get(&oid) {
            return Ok(*r);
        }
        if self.swapped_replacement(oid).is_some() {
            // A zombie fault proxy: it was minted before the identity's
            // cluster was replicated and survived (in a variable) past the
            // cluster's swap-out. Let the swap layer reload the cluster.
            // (If the replacement object has died, the cluster is garbage
            // and we fall through to a fresh replication instead.)
            if let Some(mut ic) = self.interceptor.take() {
                let out = ic.resolve_swapped(self, oid);
                self.interceptor = Some(ic);
                if let Some(r) = out? {
                    return Ok(r);
                }
            }
            return Err(ReplError::corrupt(format!(
                "fault proxy targets swapped-out identity {oid} and no swap \
                 layer could reload it"
            )));
        }
        self.replicate_cluster(oid)?;
        self.oid_map
            .get(&oid)
            .copied()
            .ok_or(ReplError::UnknownOid { oid })
    }

    fn replicate_cluster(&mut self, root: Oid) -> Result<()> {
        let wire = {
            let oid_map = &self.oid_map;
            let swapped = &self.swapped;
            let heap = &self.heap;
            let alive = |r: &ObjRef| heap.is_live(*r);
            // See `push_update`: the mutex cannot be poisoned here.
            #[allow(clippy::disallowed_methods)]
            let mut server = self.server.lock().expect("server mutex poisoned");
            server.fetch_cluster(root, self.config.cluster_size, &|oid| {
                oid_map.get(&oid).filter(|r| alive(r)).is_some()
                    || swapped.get(&oid).filter(|r| alive(r)).is_some()
            })?
        };
        if wire.is_empty() {
            if self.oid_map.contains_key(&root) {
                return Ok(());
            }
            return Err(ReplError::UnknownOid { oid: root });
        }
        let repl_cluster = self.next_repl_cluster;
        // Pass 1: allocate replicas and register identities.
        let mut members: Vec<ObjRef> = Vec::with_capacity(wire.len());
        for w in &wire {
            match self.heap.alloc(w.class, ObjectKind::App) {
                Ok(r) => {
                    let h = self.heap.header_mut(r)?;
                    h.oid = w.oid;
                    h.repl_cluster = repl_cluster;
                    self.oid_map.insert(w.oid, r);
                    members.push(r);
                }
                Err(e) => {
                    self.rollback(&wire, &members);
                    self.events
                        .push(ReplicationEvent::ReplicationFailed { root });
                    return Err(e.into());
                }
            }
        }
        self.next_repl_cluster += 1;
        // Pass 2: fill fields; cross-cluster references become fault
        // proxies (or point at existing replicas / replacement objects).
        for (w, &r) in wire.iter().zip(&members) {
            for (idx, fv) in w.fields.iter().enumerate() {
                let value = match fv {
                    WireValue::Null => continue,
                    WireValue::Scalar(v) => v.clone(),
                    WireValue::Ref(oid) => {
                        if let Some(t) = self.lookup_replica(*oid) {
                            Value::Ref(t)
                        } else if let Some(rep) = self.swapped_replacement(*oid) {
                            Value::Ref(rep)
                        } else {
                            Value::Ref(self.fault_proxy_for(*oid)?)
                        }
                    }
                };
                if let Err(e) = self.heap.set_field(r, FieldId::from_index(idx), value) {
                    self.rollback(&wire, &members);
                    self.events
                        .push(ReplicationEvent::ReplicationFailed { root });
                    return Err(e.into());
                }
            }
        }
        // Pass 3: proxy replacement — every slot in the existing graph that
        // held a fault proxy for a member now gets the replica directly.
        // (The swap layer then re-mediates cross-swap-cluster slots.)
        let mut replaced: HashMap<ObjRef, ObjRef> = HashMap::new();
        for (w, &r) in wire.iter().zip(&members) {
            if let Some(old_proxy) = self.fault_proxies.remove(&w.oid) {
                replaced.insert(old_proxy, r);
            }
        }
        let mut patched_fields = Vec::new();
        let mut patched_globals = Vec::new();
        if !replaced.is_empty() {
            let holders: Vec<ObjRef> = self.heap.iter_live().collect();
            for holder in holders {
                if replaced.contains_key(&holder) {
                    continue; // the doomed proxies themselves
                }
                let field_count = self.heap.get(holder)?.fields().len();
                for idx in 0..field_count {
                    let current = self.heap.get(holder)?.fields()[idx].clone();
                    if let Value::Ref(t) = current {
                        if let Some(&replica) = replaced.get(&t) {
                            self.heap.set_any_field(holder, idx, Value::Ref(replica))?;
                            if !members.contains(&holder) {
                                patched_fields.push((holder, idx));
                            }
                        }
                    }
                }
            }
            let global_patches: Vec<(String, ObjRef)> = self
                .heap
                .globals()
                .filter_map(|(name, v)| match v {
                    Value::Ref(t) => replaced.get(t).map(|rep| (name.to_string(), *rep)),
                    _ => None,
                })
                .collect();
            for (name, replica) in global_patches {
                self.heap.set_global(name.clone(), Value::Ref(replica));
                patched_globals.push(name);
            }
        }
        let bytes: usize = members
            .iter()
            .map(|&r| self.heap.get(r).map(|o| o.size()).unwrap_or(0))
            .sum();
        self.events.push(ReplicationEvent::ClusterReplicated {
            repl_cluster,
            root,
            objects: members.len(),
            bytes,
        });
        let info = ClusterInfo {
            repl_cluster,
            members,
            patched_fields,
            patched_globals,
        };
        if let Some(mut ic) = self.interceptor.take() {
            let out = ic.cluster_replicated(self, &info);
            self.interceptor = Some(ic);
            if let Err(e) = out {
                // The swap layer failed midway (typically out of memory
                // while allocating a mediation proxy): some holders may be
                // left with unmediated direct references. Undo the proxy
                // replacement so the graph returns to its pre-replication
                // shape (fault proxies in place, cluster unregistered); the
                // orphaned replicas are reclaimed by the next collection.
                self.undo_replication(&wire, &info, &replaced)?;
                self.events
                    .push(ReplicationEvent::ReplicationFailed { root });
                return Err(e);
            }
        }
        Ok(())
    }

    /// Restore the graph after a failed swap-layer integration: re-point
    /// every patched holder slot and global back at the original fault
    /// proxy and deregister the members.
    fn undo_replication(
        &mut self,
        wire: &[crate::WireObject],
        info: &ClusterInfo,
        replaced: &HashMap<ObjRef, ObjRef>,
    ) -> Result<()> {
        // Invert proxy → replica into replica → proxy.
        let back: HashMap<ObjRef, ObjRef> = replaced.iter().map(|(p, r)| (*r, *p)).collect();
        for &(holder, idx) in &info.patched_fields {
            if !self.heap.is_live(holder) {
                continue;
            }
            let current = self.heap.get(holder)?.fields()[idx].clone();
            if let Value::Ref(t) = current {
                if let Some(&proxy) = back.get(&t) {
                    self.heap.set_any_field(holder, idx, Value::Ref(proxy))?;
                }
            }
        }
        let global_restores: Vec<(String, ObjRef)> = info
            .patched_globals
            .iter()
            .filter_map(|name| {
                let v = self.heap.global(name).ok()?;
                match v {
                    Value::Ref(t) => back.get(t).map(|p| (name.clone(), *p)),
                    _ => None,
                }
            })
            .collect();
        for (name, proxy) in global_restores {
            self.heap.set_global(name, Value::Ref(proxy));
        }
        // Re-register the fault proxies and deregister the replicas.
        for (proxy, replica) in replaced {
            if let Ok(o) = self.heap.get(*replica) {
                self.fault_proxies.insert(o.header().oid, *proxy);
            }
        }
        for w in wire {
            self.oid_map.remove(&w.oid);
        }
        Ok(())
    }

    fn rollback(&mut self, wire: &[crate::WireObject], members: &[ObjRef]) {
        // Deregister the identities; the half-built replicas are
        // unreachable and will be reclaimed by the next collection.
        for w in wire.iter().take(members.len()) {
            self.oid_map.remove(&w.oid);
        }
    }

    /// Get or create the fault proxy standing in for `oid`.
    fn fault_proxy_for(&mut self, oid: Oid) -> Result<ObjRef> {
        // A registered proxy may have been collected (e.g. its only holders
        // were replicas rolled back after an OOM); prune lazily.
        if let Some(p) = self.fault_proxies.get(&oid) {
            if self.heap.is_live(*p) {
                return Ok(*p);
            }
            self.fault_proxies.remove(&oid);
        }
        let mw = self.universe.middleware;
        let layout = self.heap.classes().class(mw.fault_proxy)?.field_count();
        let mut proxy = Object::with_field_count(mw.fault_proxy, ObjectKind::FaultProxy, layout);
        proxy.set_raw_field(mw.fp_oid.index(), Value::Int(oid.0 as i64));
        proxy.header_mut().oid = oid;
        let p = self.heap.adopt(proxy)?;
        self.fault_proxies.insert(oid, p);
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    // Tests assert on known-good setups; panicking on failure is the point.
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use crate::methods::standard_classes;
    use crate::Server;

    fn list_process(n: usize, cluster: usize, capacity: usize) -> (Process, Oid) {
        let u = standard_classes();
        let mut server = Server::new(u.clone());
        let head = server.build_list("Node", n, 8).unwrap();
        let p = Process::new(
            u,
            server.into_shared(),
            capacity,
            ReplConfig::with_cluster_size(cluster),
        );
        (p, head)
    }

    #[test]
    fn replicate_root_brings_first_cluster() {
        let (mut p, head) = list_process(50, 10, 1 << 20);
        let root = p.replicate_root(head).unwrap();
        assert_eq!(p.replicated_objects(), 10);
        assert!(p.heap().is_live(root));
        // 9 in-cluster links are direct; the 10th node's `next` is a fault
        // proxy.
        assert_eq!(
            p.heap()
                .iter_live()
                .filter(|&r| p.heap().get(r).unwrap().kind() == ObjectKind::FaultProxy)
                .count(),
            1
        );
    }

    #[test]
    fn traversal_faults_in_the_whole_list() {
        let (mut p, head) = list_process(50, 10, 1 << 20);
        let root = p.replicate_root(head).unwrap();
        let len = p.invoke_i64(root, "length", vec![]).unwrap();
        assert_eq!(len, 50);
        assert_eq!(p.replicated_objects(), 50);
        let (_invocations, faults) = p.counters();
        assert_eq!(faults, 4, "four cluster-edge faults for 50/10 after root");
    }

    #[test]
    fn visit_counts_recursion_depth() {
        let (mut p, head) = list_process(30, 10, 1 << 20);
        let root = p.replicate_root(head).unwrap();
        let depth = p.invoke_i64(root, "visit", vec![Value::Int(0)]).unwrap();
        assert_eq!(depth, 29);
    }

    #[test]
    fn probe_step_returns_reference_ahead() {
        let (mut p, head) = list_process(30, 30, 1 << 20);
        let root = p.replicate_root(head).unwrap();
        let r = p
            .invoke_ref(root, "probe_step", vec![Value::Int(5)])
            .unwrap();
        let oid = p.heap().get(r).unwrap().header().oid;
        assert_eq!(oid.0, head.0 + 5);
    }

    #[test]
    fn deep_visit_traverses_all() {
        let (mut p, head) = list_process(40, 10, 1 << 20);
        let root = p.replicate_root(head).unwrap();
        let depth = p
            .invoke_i64(root, "deep_visit", vec![Value::Int(0)])
            .unwrap();
        assert_eq!(depth, 39);
    }

    #[test]
    fn b1_style_iteration_with_global_cursor() {
        let (mut p, head) = list_process(25, 10, 1 << 20);
        let root = p.replicate_root(head).unwrap();
        p.set_global("cursor", Value::Ref(root));
        let mut steps = 0;
        loop {
            let cur = p.global("cursor").unwrap().expect_ref().unwrap();
            match p.invoke(cur, "next", vec![]).unwrap() {
                Value::Ref(next) => {
                    p.set_global("cursor", Value::Ref(next));
                    steps += 1;
                }
                Value::Null => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(steps, 24);
        assert_eq!(p.replicated_objects(), 25);
    }

    #[test]
    fn proxy_replacement_patches_holder_fields_and_globals() {
        let (mut p, head) = list_process(20, 10, 1 << 20);
        let root = p.replicate_root(head).unwrap();
        // Stash the 10th node's fault proxy in a global.
        let mut cur = root;
        for _ in 0..9 {
            cur = p.invoke_ref(cur, "next", vec![]).unwrap();
        }
        let proxy = p.invoke_ref(cur, "next", vec![]).unwrap();
        assert_eq!(p.heap().get(proxy).unwrap().kind(), ObjectKind::FaultProxy);
        p.set_global("stash", Value::Ref(proxy));
        // Fault it: the global must now point at the replica, not the proxy.
        p.invoke(proxy, "ping", vec![]).unwrap();
        let stashed = p.global("stash").unwrap().expect_ref().unwrap();
        assert_eq!(p.heap().get(stashed).unwrap().kind(), ObjectKind::App);
        assert_eq!(p.heap().get(stashed).unwrap().header().oid.0, head.0 + 10);
        // And the 10th node's `next` field too.
        let next = p.field_value(cur, "next").unwrap().expect_ref().unwrap();
        assert_eq!(next, stashed);
    }

    #[test]
    fn fault_proxies_are_reused_per_identity() {
        let u = standard_classes();
        let mut server = Server::new(u.clone());
        // Two nodes both pointing at a third.
        let a = server.create("Node").unwrap();
        let b = server.create("Node").unwrap();
        let c = server.create("Node").unwrap();
        server.set_ref(a, "next", Some(c)).unwrap();
        server.set_ref(b, "next", Some(c)).unwrap();
        let mut p = Process::new(
            u,
            server.into_shared(),
            1 << 20,
            ReplConfig::with_cluster_size(1),
        );
        let ra = p.replicate_root(a).unwrap();
        let rb = p.replicate_root(b).unwrap();
        let pa = p.field_value(ra, "next").unwrap().expect_ref().unwrap();
        let pb = p.field_value(rb, "next").unwrap().expect_ref().unwrap();
        assert_eq!(pa, pb, "one fault proxy per identity");
    }

    #[test]
    fn oom_during_replication_rolls_back_registration() {
        // Capacity fits the first cluster but not the second.
        let (mut p, head) = list_process(40, 10, 1_100);
        let root = p.replicate_root(head).unwrap();
        p.set_global("head", Value::Ref(root));
        assert_eq!(p.replicated_objects(), 10);
        let err = p.invoke_i64(root, "length", vec![]).unwrap_err();
        assert!(err.is_out_of_memory());
        // No half-registered identities: every registered oid is live.
        for r in p.heap().iter_live() {
            let o = p.heap().get(r).unwrap();
            if o.kind() == ObjectKind::App && p.lookup_replica(o.header().oid).is_some() {
                assert_eq!(p.lookup_replica(o.header().oid), Some(r));
            }
        }
        let events = p.take_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, ReplicationEvent::ReplicationFailed { .. })));
        // After freeing memory (collect reclaims the rolled-back replicas),
        // the retry makes progress until it hits the wall again.
        p.heap_mut().collect();
        let bytes_after_collect = p.heap().bytes_used();
        let err2 = p.invoke_i64(root, "length", vec![]).unwrap_err();
        assert!(err2.is_out_of_memory(), "got {err2:?}");
        assert!(p.heap().bytes_used() >= bytes_after_collect);
    }

    #[test]
    fn a_retraction_withdraws_only_the_failures_after_its_mark() {
        let (mut p, head) = list_process(40, 10, 1_100);
        let root = p.replicate_root(head).unwrap();
        p.set_global("head", Value::Ref(root));
        let failed = |p: &mut Process| p.invoke_i64(root, "length", vec![]).unwrap_err();
        failed(&mut p);
        let mark = p.pending_events();
        failed(&mut p);
        assert!(p.pending_events() > mark + 1, "a fault and a failure");
        p.retract_failures_since(mark);
        let events = p.take_events();
        let is_failure =
            |e: &ReplicationEvent| matches!(e, ReplicationEvent::ReplicationFailed { .. });
        assert!(
            events[..mark].iter().any(is_failure),
            "earlier failures stay"
        );
        assert!(!events[mark..].iter().any(is_failure));
        assert!(events.len() > mark, "other events stay");
    }

    #[test]
    fn invoking_swap_proxy_without_interceptor_errors() {
        let (mut p, head) = list_process(5, 5, 1 << 20);
        let _root = p.replicate_root(head).unwrap();
        let mw = p.universe().middleware;
        let sp = p
            .heap_mut()
            .alloc(mw.swap_proxy, ObjectKind::SwapProxy)
            .unwrap();
        let err = p.invoke(sp, "ping", vec![]).unwrap_err();
        assert!(matches!(err, ReplError::NoInterceptor { .. }));
    }

    #[test]
    fn unknown_method_is_reported_with_class() {
        let (mut p, head) = list_process(5, 5, 1 << 20);
        let root = p.replicate_root(head).unwrap();
        let err = p.invoke(root, "fly", vec![]).unwrap_err();
        assert!(matches!(err, ReplError::NoSuchMethod { .. }));
    }

    #[test]
    fn events_report_cluster_sizes() {
        let (mut p, head) = list_process(20, 10, 1 << 20);
        let root = p.replicate_root(head).unwrap();
        p.invoke_i64(root, "length", vec![]).unwrap();
        let events = p.take_events();
        let clusters: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                ReplicationEvent::ClusterReplicated { objects, .. } => Some(*objects),
                _ => None,
            })
            .collect();
        assert_eq!(clusters, vec![10, 10]);
    }

    #[test]
    fn replicate_root_is_idempotent() {
        let (mut p, head) = list_process(10, 5, 1 << 20);
        let r1 = p.replicate_root(head).unwrap();
        let r2 = p.replicate_root(head).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(p.replicated_objects(), 5);
    }
}
