//! The middleware facade: wires heap, replication, policies, the simulated
//! wireless world and the swapping manager into one object.

use crate::audit::AuditReport;
use crate::manager::{
    lock_net, repl_to_swap, InterceptorShim, SharedManager, SharedNet, SwapStats,
};
use crate::{identity, Result, SwapConfig, SwapError, SwappingManager, VictimPolicy};
use obiwan_heap::{Collection, HeapStats, ObjRef, Oid, Value};
use obiwan_net::{DeviceId, DeviceKind, LinkSpec, NetFabric, SimNet, SimTime, Transport};
use obiwan_policy::{
    default_swap_policies, Action, ContextManager, PolicyEngine, PolicyEvent, Watermarks,
};
use obiwan_replication::{Process, ReplConfig, ReplicationEvent, Server};
use std::sync::{Arc, Mutex, PoisonError};

/// Description of a storage device to place in the room.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreSpec {
    /// Friendly name.
    pub name: String,
    /// Hardware class.
    pub kind: DeviceKind,
    /// Storage quota in bytes.
    pub quota: usize,
    /// Link between the PDA and this device.
    pub link: LinkSpec,
}

impl StoreSpec {
    /// A storage device with the paper's Bluetooth link.
    pub fn new(name: impl Into<String>, kind: DeviceKind, quota: usize) -> Self {
        StoreSpec {
            name: name.into(),
            kind,
            quota,
            link: LinkSpec::bluetooth(),
        }
    }

    /// Override the link.
    pub fn with_link(mut self, link: LinkSpec) -> Self {
        self.link = link;
        self
    }
}

/// Aggregate statistics snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MiddlewareStats {
    /// Heap health.
    pub heap: HeapStats,
    /// Swapping counters.
    pub swap: SwapStats,
    /// `(bytes sent, bytes fetched)` over the air.
    pub traffic: (u64, u64),
    /// Current simulated time.
    pub now: SimTime,
    /// `(invocations, faults)` of the process.
    pub process: (u64, u64),
}

/// Builder for [`Middleware`].
///
/// # Examples
///
/// ```
/// use obiwan_core::{Middleware, SwapConfig, VictimPolicy};
/// use obiwan_replication::{standard_classes, Server};
///
/// # fn main() -> Result<(), obiwan_core::SwapError> {
/// let mut server = Server::new(standard_classes());
/// let head = server.build_list("Node", 40, 16)?;
/// let mut mw = Middleware::builder()
///     .cluster_size(10)
///     .clusters_per_swap_cluster(2)
///     .device_memory(64 * 1024)
///     .victim_policy(VictimPolicy::LeastRecentlyUsed)
///     .build(server);
/// let root = mw.replicate_root(head)?;
/// assert_eq!(mw.invoke_i64(root, "length", vec![])?, 40);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MiddlewareBuilder {
    cluster_size: usize,
    device_memory: usize,
    swap_config: SwapConfig,
    swapping_enabled: bool,
    watermarks: Watermarks,
    builtin_policies: bool,
    policies_xml: Option<String>,
    stores: Vec<StoreSpec>,
}

impl Default for MiddlewareBuilder {
    fn default() -> Self {
        MiddlewareBuilder {
            cluster_size: 50,
            device_memory: 1 << 20,
            swap_config: SwapConfig::default(),
            swapping_enabled: true,
            watermarks: Watermarks::default(),
            builtin_policies: true,
            policies_xml: None,
            stores: vec![StoreSpec::new("room-laptop", DeviceKind::Laptop, 16 << 20)],
        }
    }
}

impl MiddlewareBuilder {
    /// Objects per replication cluster (and, with
    /// [`clusters_per_swap_cluster`](Self::clusters_per_swap_cluster) = 1,
    /// per swap-cluster — the paper's 20 / 50 / 100 knob).
    pub fn cluster_size(mut self, n: usize) -> Self {
        self.cluster_size = n.max(1);
        self
    }

    /// Replication clusters per swap-cluster.
    pub fn clusters_per_swap_cluster(mut self, n: usize) -> Self {
        self.swap_config = self.swap_config.clusters_per_swap_cluster(n);
        self
    }

    /// Device memory budget in bytes.
    pub fn device_memory(mut self, bytes: usize) -> Self {
        self.device_memory = bytes;
        self
    }

    /// Victim-selection policy.
    pub fn victim_policy(mut self, policy: VictimPolicy) -> Self {
        self.swap_config = self.swap_config.victim_policy(policy);
        self
    }

    /// Wire format for new swap-out blobs (default: the paper's XML text;
    /// reloads auto-detect, so mixed-format rooms are fine).
    pub fn wire_format(mut self, kind: crate::wire::WireFormatKind) -> Self {
        self.swap_config = self.swap_config.wire_format(kind);
        self
    }

    /// How many nearby devices hold a copy of each swap-out blob
    /// (default 1 — the paper's single-copy semantics).
    ///
    /// # Panics
    ///
    /// Panics when `k` is zero.
    pub fn replication_factor(mut self, k: usize) -> Self {
        self.swap_config = self.swap_config.replication_factor(k);
        self
    }

    /// Capacity of the lifecycle-trace ring buffer in events (default
    /// [`obiwan_trace::DEFAULT_CAPACITY`]; the oldest events are evicted
    /// beyond it and the exported trace is marked truncated).
    pub fn trace_capacity(mut self, events: usize) -> Self {
        self.swap_config = self.swap_config.trace_capacity(events);
        self
    }

    /// How many shards split the manager's cluster-keyed state (default 8;
    /// one shard reproduces the old fully-serialized manager).
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    pub fn shard_count(mut self, n: usize) -> Self {
        self.swap_config = self.swap_config.shard_count(n);
        self
    }

    /// Placement strategy used to rank candidate holders at swap-out and
    /// during repair (default: first-fit, the paper's order).
    pub fn placement(mut self, kind: obiwan_placement::PlacementKind) -> Self {
        self.swap_config = self.swap_config.placement(kind);
        self
    }

    /// Full swap configuration.
    pub fn swap_config(mut self, config: SwapConfig) -> Self {
        self.swap_config = config;
        self
    }

    /// Disable Object-Swapping entirely (the paper's *NO SWAP-CLUSTERS*
    /// baseline: no interceptor, no proxies, no boundaries).
    pub fn swapping_disabled(mut self) -> Self {
        self.swapping_enabled = false;
        self
    }

    /// Memory watermarks for the context manager.
    pub fn watermarks(mut self, w: Watermarks) -> Self {
        self.watermarks = w;
        self
    }

    /// Disable the built-in machine policies.
    pub fn no_builtin_policies(mut self) -> Self {
        self.builtin_policies = false;
        self
    }

    /// Load additional policies from the XML dialect at build time.
    pub fn policies_xml(mut self, xml: impl Into<String>) -> Self {
        self.policies_xml = Some(xml.into());
        self
    }

    /// Replace the default room (one laptop) with custom storage devices.
    pub fn stores(mut self, stores: Vec<StoreSpec>) -> Self {
        self.stores = stores;
        self
    }

    /// Add one storage device to the room.
    pub fn add_store(mut self, store: StoreSpec) -> Self {
        self.stores.push(store);
        self
    }

    /// Assemble the middleware around a server.
    ///
    /// # Panics
    ///
    /// Panics if `policies_xml` was provided and does not parse — policy
    /// files are deployment artifacts, and a malformed one should fail
    /// loudly at startup, not at the first memory pressure.
    pub fn build(self, server: Server) -> Middleware {
        let universe = server.classes().clone();
        self.build_shared(universe, server.into_shared())
    }

    /// Assemble the middleware around an already-shared server — the
    /// multi-device case: several PDAs replicating from the same master
    /// graph, each with its own room of storage devices. The room is
    /// simulated; live worlds (`obiwan-blobd` daemons behind an
    /// `obiwan-netd` fabric) are assembled externally and handed to
    /// [`MiddlewareBuilder::build_in_world`].
    ///
    /// # Panics
    ///
    /// As [`MiddlewareBuilder::build`].
    // Construction-time misconfiguration panics are documented above
    // (`# Panics`) and tested; they never occur on a swap path.
    #[allow(clippy::disallowed_methods)]
    pub fn build_shared(
        self,
        universe: obiwan_replication::Universe,
        server: obiwan_replication::SharedServer,
    ) -> Middleware {
        let mut net = SimNet::new();
        let home = net.add_device("pda", DeviceKind::Pda, 0);
        for spec in &self.stores {
            let d = net.add_device(spec.name.clone(), spec.kind, spec.quota);
            net.connect(home, d, spec.link)
                .expect("devices were just added");
        }
        let net: SharedNet = Arc::new(Mutex::new(NetFabric::sim(net)));
        self.build_in_world(universe, server, net, home)
    }

    /// Assemble a middleware *inside an existing world*: several devices
    /// (each its own `Middleware`) sharing one master server **and** one
    /// simulated room — contending for the same neighbours' storage, the
    /// paper's "available to any user" scenario. The builder's `stores`
    /// are ignored; the world is whatever `net` already contains, and
    /// `home` must be a device in it.
    ///
    /// # Panics
    ///
    /// As [`MiddlewareBuilder::build`].
    // Construction-time misconfiguration panics are documented above
    // (`# Panics`) and tested; they never occur on a swap path.
    #[allow(clippy::disallowed_methods)]
    pub fn build_in_world(
        self,
        universe: obiwan_replication::Universe,
        server: obiwan_replication::SharedServer,
        net: SharedNet,
        home: DeviceId,
    ) -> Middleware {
        let mut process = Process::new(
            universe,
            server,
            self.device_memory,
            ReplConfig::with_cluster_size(self.cluster_size),
        );
        let manager: SharedManager = Arc::new(SwappingManager::new(
            self.swap_config,
            Arc::clone(&net),
            home,
        ));
        if self.swapping_enabled {
            process.set_interceptor(Box::new(InterceptorShim(Arc::clone(&manager))));
        }
        let mut engine = PolicyEngine::new();
        if self.builtin_policies {
            for rule in default_swap_policies(self.watermarks.high_pct) {
                engine.add_rule(rule).expect("builtin ids are unique");
            }
        }
        if let Some(xml) = &self.policies_xml {
            engine.load_xml(xml).expect("policy XML must be valid");
        }
        Middleware {
            process,
            manager,
            net,
            home,
            engine,
            context: ContextManager::new(self.watermarks),
            log: Vec::new(),
            pump_tick: 0,
        }
    }
}

/// The assembled OBIWAN middleware with Object-Swapping: the entry point
/// for examples, tests and benchmarks.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Middleware {
    process: Process,
    manager: SharedManager,
    net: SharedNet,
    home: DeviceId,
    engine: PolicyEngine,
    context: ContextManager,
    log: Vec<String>,
    /// Invocations since the last periodic policy pump.
    pump_tick: u32,
}

impl Middleware {
    /// Start building.
    pub fn builder() -> MiddlewareBuilder {
        MiddlewareBuilder::default()
    }

    /// The device this middleware runs on.
    pub fn home_device(&self) -> DeviceId {
        self.home
    }

    /// The device process (read access).
    pub fn process(&self) -> &Process {
        &self.process
    }

    /// The device process (mutable access for advanced scenarios; prefer
    /// the [`Middleware::invoke`] family, which also pumps policies).
    pub fn process_mut(&mut self) -> &mut Process {
        &mut self.process
    }

    /// The shared simulated world.
    pub fn net(&self) -> SharedNet {
        Arc::clone(&self.net)
    }

    /// The shared swapping manager. The manager synchronizes internally
    /// (sharded lock table); maintenance threads clone the handle and call
    /// methods like [`SwappingManager::note_departures`] or
    /// [`SwappingManager::repair_placements`] directly.
    pub fn manager(&self) -> SharedManager {
        Arc::clone(&self.manager)
    }

    /// Replicate the cluster containing `root` and return an
    /// application-level reference to it.
    ///
    /// # Errors
    ///
    /// Replication and policy-action errors.
    pub fn replicate_root(&mut self, root: Oid) -> Result<ObjRef> {
        let r = self.process.replicate_root(root).map_err(repl_to_swap)?;
        self.process.heap_mut().add_root(r);
        let pumped = self.pump();
        self.process.heap_mut().remove_root(r);
        pumped?;
        Ok(r)
    }

    /// Invoke a method through the full middleware stack, then pump
    /// policies (memory monitoring → swap decisions).
    ///
    /// # Errors
    ///
    /// Invocation errors (including out-of-memory; see
    /// [`Middleware::invoke_resilient`] for the retrying variant).
    pub fn invoke(&mut self, target: ObjRef, method: &str, args: Vec<Value>) -> Result<Value> {
        let out = self
            .process
            .invoke(target, method, args)
            .map_err(repl_to_swap)?;
        // Pump policies when something happened (replication events) and
        // periodically otherwise — the memory monitor needs no per-call
        // sampling, and per-call pumping would dominate micro-benchmarks
        // the way the paper's event-driven engine does not.
        self.pump_tick = self.pump_tick.wrapping_add(1);
        if self.process.has_events() || self.pump_tick.is_multiple_of(64) {
            // The returned reference is not yet reachable from any root;
            // pin it across the pump (which may collect or evict) so the
            // caller receives a live handle.
            if let Value::Ref(r) = out {
                self.process.heap_mut().add_root(r);
            }
            let pumped = self.pump();
            if let Value::Ref(r) = out {
                self.process.heap_mut().remove_root(r);
            }
            pumped?;
        }
        Ok(out)
    }

    /// [`Middleware::invoke`] expecting an integer.
    ///
    /// # Errors
    ///
    /// As [`Middleware::invoke`] plus result type mismatch.
    pub fn invoke_i64(&mut self, target: ObjRef, method: &str, args: Vec<Value>) -> Result<i64> {
        Ok(self.invoke(target, method, args)?.expect_int()?)
    }

    /// [`Middleware::invoke`] expecting a reference.
    ///
    /// # Errors
    ///
    /// As [`Middleware::invoke`] plus result type mismatch.
    pub fn invoke_ref(&mut self, target: ObjRef, method: &str, args: Vec<Value>) -> Result<ObjRef> {
        Ok(self.invoke(target, method, args)?.expect_ref()?)
    }

    /// Invoke with the paper's recovery loop: on out-of-memory, collect
    /// the nursery, swap out victims until occupancy falls to the low
    /// watermark ([`SwappingManager::swap_out_victims_to`], which frees
    /// each victim's members as its detach commits), and retry (up to
    /// `retries` times). A recovery is one minor collection however many
    /// victims it evicts: the proxies that pages mint and drop die young.
    /// When that frees nothing and nothing is evictable, the recovery runs
    /// one full collection before it gives up, so garbage that outlived a
    /// collection never causes a spurious out-of-memory failure.
    ///
    /// A recovery consumes the failure it recovered from: the policies
    /// never see an `allocation-failed` event for it, so they do not evict
    /// and collect a second time after the retry. The failure of a plain
    /// [`Middleware::invoke`], of the last allowed attempt or of a recovery
    /// that gives up still reaches them at the next pump.
    ///
    /// Note that a single operation whose working set exceeds device memory
    /// (e.g. a recursion that keeps every visited cluster live on the call
    /// stack) cannot be rescued by swapping — eviction happens *between*
    /// operations, exactly as in the paper's scenario. Structure
    /// applications as a loop of bounded operations (see Test B1/B2).
    ///
    /// # Errors
    ///
    /// The final error if retries are exhausted, nothing was evictable, or
    /// the error is not memory-related.
    pub fn invoke_resilient(
        &mut self,
        target: ObjRef,
        method: &str,
        args: Vec<Value>,
        retries: usize,
    ) -> Result<Value> {
        // Pin the target (and reference arguments) across the whole retry
        // loop: a failed attempt may have patched the globals that used to
        // reach them (proxy replacement), and the recovery collections must
        // not free handles we are about to retry with.
        self.process.heap_mut().add_root(target);
        for v in &args {
            if let Value::Ref(r) = v {
                self.process.heap_mut().add_root(*r);
            }
        }
        let out = self.invoke_resilient_inner(target, method, args.clone(), retries);
        self.process.heap_mut().remove_root(target);
        for v in &args {
            if let Value::Ref(r) = v {
                self.process.heap_mut().remove_root(*r);
            }
        }
        out
    }

    fn invoke_resilient_inner(
        &mut self,
        target: ObjRef,
        method: &str,
        args: Vec<Value>,
        retries: usize,
    ) -> Result<Value> {
        let mut attempt = 0;
        loop {
            let used_before = self.process.heap().bytes_used();
            let events_before = self.process.pending_events();
            match self.invoke(target, method, args.clone()) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_out_of_memory() && attempt < retries => {
                    attempt += 1;
                    self.reclaim(Collection::Minor)?;
                    let capacity = self.process.heap().capacity();
                    let floor = capacity / 100 * self.context.watermarks().low_pct as usize;
                    // Evict at least one victim (guaranteeing forward
                    // progress even when the collection alone dropped below
                    // the watermark), then keep evicting down to the floor.
                    let evicted = self.manager.swap_out_victims_to(&mut self.process, floor)?;
                    self.debug_self_audit("swap_out_victims_to");
                    let freed = |mw: &Self| mw.process.heap().bytes_used() < used_before;
                    if evicted == 0 && !freed(self) {
                        // The backstop: garbage older than the nursery.
                        self.reclaim(Collection::Full)?;
                        if !freed(self) {
                            return Err(e);
                        }
                    }
                    self.process.retract_failures_since(events_before);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// [`Middleware::invoke_resilient`] expecting an integer, with a
    /// generous default retry budget.
    ///
    /// # Errors
    ///
    /// As [`Middleware::invoke_resilient`].
    pub fn invoke_i64_resilient(
        &mut self,
        target: ObjRef,
        method: &str,
        args: Vec<Value>,
    ) -> Result<i64> {
        Ok(self
            .invoke_resilient(target, method, args, 1_000)?
            .expect_int()?)
    }

    /// Read a global variable.
    ///
    /// # Errors
    ///
    /// Unknown global.
    pub fn global(&self, name: &str) -> Result<Value> {
        self.process.global(name).map_err(repl_to_swap)
    }

    /// Set a global variable (swap-cluster-0 root).
    pub fn set_global(&mut self, name: impl Into<String>, value: Value) {
        self.process.set_global(name, value);
    }

    /// Swap out a specific swap-cluster. The manager runs its own phased
    /// detach (prepare under the shard lock, ship under the net lock only,
    /// commit under coordinator + shard), so bytes never move while any
    /// shard is locked.
    ///
    /// # Errors
    ///
    /// See [`SwappingManager::swap_out`].
    pub fn swap_out(&mut self, sc: u32) -> Result<usize> {
        let out = self.manager.swap_out(&mut self.process, sc);
        self.debug_self_audit("swap_out");
        out
    }

    /// Reload a specific swap-cluster (the phased swap-in mirrors
    /// [`Middleware::swap_out`]: the failover fetch holds only the net
    /// lock).
    ///
    /// # Errors
    ///
    /// See [`SwappingManager::swap_in`].
    pub fn swap_in(&mut self, sc: u32) -> Result<usize> {
        let out = self.manager.swap_in(&mut self.process, sc);
        self.debug_self_audit("swap_in");
        out
    }

    /// Pick a victim by policy and swap it out; `None` when nothing is
    /// evictable.
    ///
    /// # Errors
    ///
    /// See [`SwappingManager::swap_out`].
    pub fn swap_out_victim(&mut self) -> Result<Option<u32>> {
        let out = self.manager.swap_out_victim(&mut self.process);
        self.debug_self_audit("swap_out_victim");
        out
    }

    /// Run a full collection and act on what died (blob drops, table
    /// pruning).
    ///
    /// # Errors
    ///
    /// [`SwapError::LockPoisoned`] when a manager or net lock is poisoned.
    pub fn run_gc(&mut self) -> Result<obiwan_heap::CollectStats> {
        self.reclaim(Collection::Full)
    }

    /// [`SwappingManager::reclaim`] plus the debug self-audit.
    fn reclaim(&mut self, kind: Collection) -> Result<obiwan_heap::CollectStats> {
        let out = self.manager.reclaim(&mut self.process, kind);
        self.debug_self_audit("reclaim");
        out
    }

    /// Mark a swap-cluster-proxy for the iteration optimization
    /// (`SwapClusterUtils.assign`, paper §4 / Test B2).
    ///
    /// # Errors
    ///
    /// See [`SwappingManager::assign`].
    pub fn assign(&mut self, proxy: ObjRef) -> Result<()> {
        self.manager.assign(&mut self.process, proxy)
    }

    /// Create a private, assign-marked iterator proxy denoting the same
    /// object as `r` (see [`SwappingManager::make_cursor`]). Store it in a
    /// global and iterate through it: it patches itself per step instead of
    /// minting a proxy per returned reference.
    ///
    /// # Errors
    ///
    /// See [`SwappingManager::make_cursor`]; additionally fault failures
    /// when `r` is a not-yet-replicated placeholder.
    pub fn make_cursor(&mut self, r: ObjRef) -> Result<ObjRef> {
        // Fault lazily-unfetched replicas in *before* building the cursor:
        // a zombie fault-proxy (identity swapped out behind it) resolves
        // through the interceptor shim, and running that reload inside
        // `make_cursor` would interleave its shard/coordinator windows with
        // the cursor's own bookkeeping.
        let r = self.process.ensure_replica(r).map_err(repl_to_swap)?;
        self.manager.make_cursor(&mut self.process, r)
    }

    /// Commit a replica's state back to the server (see
    /// [`Process::commit_replica`]).
    ///
    /// # Errors
    ///
    /// No live replica locally, or server-side failures.
    pub fn commit(&mut self, oid: Oid) -> Result<()> {
        self.process.commit_replica(oid).map_err(repl_to_swap)
    }

    /// Commit every live replica; returns how many were pushed.
    ///
    /// # Errors
    ///
    /// First server-side failure aborts.
    pub fn commit_all(&mut self) -> Result<usize> {
        self.process.commit_all().map_err(repl_to_swap)
    }

    /// The paper's overloaded `==`: identity across proxies.
    ///
    /// # Errors
    ///
    /// Heap errors for dangling references.
    pub fn same_object(&self, a: ObjRef, b: ObjRef) -> Result<bool> {
        identity::same_object(&self.process, a, b)
    }

    /// Run the whole-graph invariant auditor (see [`crate::audit`]):
    /// boundary soundness, detach integrity and blob accounting. Read-only;
    /// call at any quiescent point. Tests assert `audit().has_errors()` is
    /// false; debug builds do so automatically after every swap operation.
    pub fn audit(&self) -> AuditReport {
        self.manager.audit(&self.process)
    }

    /// In debug builds, audit the graph after a swapping operation and
    /// assert no error-severity violation exists (warnings — departed
    /// devices, raw globals — are legal states and tolerated).
    fn debug_self_audit(&self, op: &str) {
        if cfg!(debug_assertions) {
            let report = self.audit();
            debug_assert!(
                !report.has_errors(),
                "graph invariants violated after {op}:\n{report}"
            );
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> MiddlewareStats {
        // Counters stay meaningful even if another thread panicked while
        // holding a guard; recover rather than cascade the panic.
        let net = self.net.lock().unwrap_or_else(PoisonError::into_inner);
        MiddlewareStats {
            heap: self.process.heap().stats(),
            swap: self.manager.stats(),
            traffic: net.traffic(),
            now: net.now(),
            process: self.process.counters(),
        }
    }

    /// Swapping counters only.
    pub fn swap_stats(&self) -> SwapStats {
        self.manager.stats()
    }

    /// Export the swap-lifecycle event trace with run metadata — the input
    /// to `obiwan_trace::conformance::check` and the JSON exporter.
    pub fn export_trace(&self) -> obiwan_trace::Trace {
        self.manager.export_trace()
    }

    /// The trace serialized as deterministic JSON (byte-identical for
    /// identical runs; see `obiwan_trace::json`).
    pub fn trace_json(&self) -> String {
        self.export_trace().to_json()
    }

    /// Log lines produced by `Log` policy actions.
    pub fn take_log(&mut self) -> Vec<String> {
        std::mem::take(&mut self.log)
    }

    /// Gather events from all modules, evaluate policies, apply actions.
    /// Called automatically after every `invoke` / `replicate_root`; call
    /// manually after direct `process_mut()` work.
    ///
    /// # Errors
    ///
    /// Errors from applying swap actions.
    pub fn pump(&mut self) -> Result<()> {
        let mut events: Vec<PolicyEvent> = Vec::new();
        for e in self.process.take_events() {
            match e {
                ReplicationEvent::ClusterReplicated { objects, bytes, .. } => {
                    events.push(PolicyEvent::ClusterReplicated {
                        objects: objects as i64,
                        bytes: bytes as i64,
                    });
                }
                ReplicationEvent::ReplicationFailed { .. } => {
                    events.push(PolicyEvent::AllocationFailed { requested: 0 });
                }
                ReplicationEvent::ObjectFault { .. } => {}
            }
        }
        // Compare the placement table against the room before draining:
        // a holder that walked away surfaces as `HolderLost` in this
        // same pump, so the repair policy reacts without a second tick.
        self.manager.note_departures()?;
        events.extend(self.manager.take_events());
        {
            let stats = self.process.heap().stats();
            if let Some(e) = self
                .context
                .observe_memory(stats.bytes_used, stats.capacity)
            {
                events.push(e);
            }
            // Free space is asked of newly discovered devices only. A live
            // store answers from the used bytes on the daemon's last reply
            // and pays one `stat` round trip only when it has none yet.
            let net = lock_net(&self.net)?;
            let present: Vec<i64> = net
                .nearby(self.home)
                .into_iter()
                .map(|d| i64::from(d.index()))
                .collect();
            events.extend(self.context.observe_devices(&present, |d| {
                u32::try_from(d)
                    .ok()
                    .and_then(|raw| net.free_storage(DeviceId::from_index(raw)).ok())
                    .map_or(0, |free| free as i64)
            }));
        }
        let mut actions: Vec<Action> = Vec::new();
        for event in &events {
            actions.extend(self.engine.evaluate(event));
        }
        for action in actions {
            self.apply(action)?;
        }
        Ok(())
    }

    fn apply(&mut self, action: Action) -> Result<()> {
        // Record the decision before executing it, so the pump-action
        // event precedes the lifecycle events it causes.
        self.manager.recorder.pump_action(action.name());
        match action {
            Action::RunGc => {
                self.run_gc()?;
            }
            Action::SwapOutVictims { count } => {
                for _ in 0..count {
                    match self.swap_out_victim() {
                        Ok(Some(_)) => {}
                        Ok(None) => break,
                        // A full room is survivable: the middleware keeps
                        // running, the next OOM will surface to the app.
                        Err(SwapError::NoStorageDevice { .. }) => break,
                        Err(e) => return Err(e),
                    }
                }
            }
            Action::AdjustClusterSize { delta } => {
                let current = self.process.config().cluster_size as i64;
                self.process
                    .set_cluster_size((current + delta).max(1) as usize);
            }
            Action::PreferDeviceKind { kind } => {
                let parsed = match kind.as_str() {
                    "pda" => Some(DeviceKind::Pda),
                    "laptop" => Some(DeviceKind::Laptop),
                    "desktop" => Some(DeviceKind::Desktop),
                    "mote" => Some(DeviceKind::Mote),
                    "access-point" => Some(DeviceKind::AccessPoint),
                    _ => None,
                };
                self.manager.set_preferred_kind(parsed);
            }
            Action::RepairPlacements => {
                // The repair sweep phases itself: bytes move under the net
                // lock only, each entry commits under its owning shard.
                self.manager.repair_placements()?;
            }
            Action::Log { message } => self.log.push(message),
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may panic on impossible states
mod tests {
    use super::*;
    use obiwan_replication::{standard_classes, Server};

    fn tiny_server(n: usize) -> (Server, Oid) {
        let mut server = Server::new(standard_classes());
        let head = server.build_list("Node", n, 8).expect("build");
        (server, head)
    }

    #[test]
    fn builder_defaults_create_a_working_stack() {
        let (server, head) = tiny_server(10);
        let mut mw = MiddlewareBuilder::default().build(server);
        let root = mw.replicate_root(head).expect("replicate");
        mw.set_global("head", Value::Ref(root));
        assert_eq!(mw.invoke_i64(root, "length", vec![]).unwrap(), 10);
        // The default room has exactly one laptop.
        let net = mw.net();
        let net = net.lock().expect("net");
        assert_eq!(net.nearby(mw.home_device()).len(), 1);
    }

    #[test]
    fn builder_knobs_are_applied() {
        let (server, _head) = tiny_server(5);
        let mw = Middleware::builder()
            .cluster_size(7)
            .device_memory(12_345)
            .victim_policy(VictimPolicy::LargestFirst)
            .shard_count(3)
            .build(server);
        assert_eq!(mw.process().config().cluster_size, 7);
        assert_eq!(mw.process().heap().capacity(), 12_345);
        let manager = mw.manager();
        assert_eq!(manager.config().victim_policy, VictimPolicy::LargestFirst);
        assert_eq!(manager.shard_count(), 3);
    }

    #[test]
    #[should_panic(expected = "policy XML must be valid")]
    fn malformed_policy_xml_fails_at_build_time() {
        let (server, _head) = tiny_server(2);
        let _ = Middleware::builder()
            .policies_xml("<policies><policy id='x'></policy></policies>")
            .build(server);
    }

    #[test]
    fn stats_snapshot_is_coherent() {
        let (server, head) = tiny_server(30);
        let mut mw = Middleware::builder()
            .cluster_size(10)
            .no_builtin_policies()
            .build(server);
        let root = mw.replicate_root(head).expect("replicate");
        mw.set_global("head", Value::Ref(root));
        mw.invoke_i64(root, "length", vec![]).expect("warm");
        mw.swap_out(1).expect("swap");
        let s = mw.stats();
        assert_eq!(s.swap.swap_outs, 1);
        assert!(s.traffic.0 > 0);
        assert!(s.heap.bytes_used > 0);
        assert!(s.process.0 >= 30, "invocations counted: {}", s.process.0);
    }

    #[test]
    fn take_log_drains() {
        let (server, _head) = tiny_server(2);
        let mut mw = Middleware::builder().build(server);
        assert!(mw.take_log().is_empty());
        mw.log.push("hello".into());
        assert_eq!(mw.take_log(), vec!["hello".to_string()]);
        assert!(mw.take_log().is_empty());
    }
}
