//! Sharded-engine integration tests: operations that genuinely span two
//! shards of the lock table, plus a multi-threaded stress run that bangs
//! maintenance sweeps, trace exports and network churn against a live
//! mutator.
//!
//! The single-threaded suites (swapping, durability, trace_consistency)
//! already cover the lifecycle; what they cannot cover is the sharding
//! seams — a cursor walk whose reloads commit on different shards, a
//! repair sweep whose entries live behind different locks, and true
//! concurrency where `&self` maintenance calls race the mutator. These
//! tests pin those seams. All assertions are scheduling-independent
//! invariants (audit cleanliness, stats==fold, holder counts), never
//! byte-exact traces: multi-threaded interleavings are allowed to reorder
//! events, and the recorder's atomic seq keeps the stream well-formed
//! regardless.

#![allow(clippy::disallowed_methods)] // tests may panic on impossible states

use obiwan_core::{Middleware, SwapError, SwapStats, WireFormatKind};
use obiwan_heap::Value;
use obiwan_net::{
    Bytes, DeviceId, DeviceKind, DeviceProfile, FailurePlan, LinkSpec, NetError, NetFabric, Route,
    SimDuration, SimNet, SimTime, Transport,
};
use obiwan_replication::{standard_classes, Server};
use obiwan_trace::derive::{fold_counts, FoldedCounts};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Assert every shared counter matches between the live stats and the
/// fold of the exported events (same contract as trace_consistency, here
/// applied to a multi-threaded run).
fn assert_stats_match_fold(stats: &SwapStats, fold: &FoldedCounts, label: &str) {
    assert_eq!(stats.swap_outs, fold.swap_outs, "{label}: swap_outs");
    assert_eq!(stats.swap_ins, fold.swap_ins, "{label}: swap_ins");
    assert_eq!(
        stats.bytes_swapped_out, fold.bytes_swapped_out,
        "{label}: bytes_swapped_out"
    );
    assert_eq!(
        stats.bytes_swapped_in, fold.bytes_swapped_in,
        "{label}: bytes_swapped_in"
    );
    assert_eq!(
        stats.blobs_dropped, fold.blobs_dropped,
        "{label}: blobs_dropped"
    );
    assert_eq!(
        stats.drop_failures, fold.drop_failures,
        "{label}: drop_failures"
    );
    assert_eq!(
        stats.proxies_created, fold.proxies_created,
        "{label}: proxies_created"
    );
    assert_eq!(
        stats.proxies_reused, fold.proxies_reused,
        "{label}: proxies_reused"
    );
    assert_eq!(
        stats.proxies_dismantled, fold.proxies_dismantled,
        "{label}: proxies_dismantled"
    );
    assert_eq!(
        stats.assign_patches, fold.assign_patches,
        "{label}: assign_patches"
    );
    assert_eq!(
        stats.reload_failovers, fold.reload_failovers,
        "{label}: reload_failovers"
    );
    assert_eq!(stats.repairs, fold.repairs, "{label}: repairs");
    assert_eq!(
        stats.repair_bytes, fold.repair_bytes,
        "{label}: repair_bytes"
    );
}

/// Deterministic splitmix step for workload schedules.
fn next_rand(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Distinct shard indices behind a set of swap-cluster ids.
fn shards_spanned(mw: &Middleware, clusters: &[u32]) -> std::collections::BTreeSet<usize> {
    let manager = mw.manager();
    clusters.iter().map(|&sc| manager.shard_of(sc)).collect()
}

/// An assign-marked cursor walk whose per-step reloads land on different
/// shards: the walk crosses every cluster boundary in the list, and the
/// clusters hash to different shards, so proxy patching, crossing
/// accounting and reload commits all exercise the cross-shard paths
/// (including the ordered two-shard transaction behind `note_crossing`).
#[test]
fn cursor_walk_crosses_shard_boundaries() {
    const N: usize = 60;
    let mut server = Server::new(standard_classes());
    let head = server.build_list("Node", N, 16).expect("build list");
    let mut mw = Middleware::builder()
        .cluster_size(10)
        .device_memory(1 << 20)
        .no_builtin_policies()
        .add_store(obiwan_core::StoreSpec::new(
            "store-0",
            DeviceKind::Laptop,
            16 << 20,
        ))
        .build(server);
    let root = mw.replicate_root(head).expect("replicate");
    mw.set_global("head", Value::Ref(root));
    mw.invoke_i64(root, "length", vec![]).expect("warm");
    mw.run_gc().expect("settle");

    let clusters: Vec<u32> = mw.manager().cluster_ids();
    let walked: Vec<u32> = clusters.iter().copied().filter(|&sc| sc != 0).collect();
    assert!(
        walked.len() >= 5,
        "expected >=5 app clusters, got {walked:?}"
    );
    let spanned = shards_spanned(&mw, &walked);
    assert!(
        spanned.len() >= 2,
        "clusters {walked:?} all hashed to one shard {spanned:?} — the walk \
         would not cross a shard boundary"
    );

    // Swap out every even cluster so half the boundary crossings must
    // reload through a swap-cluster-proxy on a *different* shard than the
    // cluster the cursor is leaving.
    for &sc in walked.iter().filter(|&&sc| sc % 2 == 0) {
        mw.swap_out(sc).expect("swap out");
    }

    let cursor = mw.make_cursor(root).expect("cursor");
    mw.set_global("cursor", Value::Ref(cursor));
    let before = mw.swap_stats();
    let mut steps = 0usize;
    loop {
        let cur = mw.global("cursor").unwrap().expect_ref().unwrap();
        match mw.invoke_resilient(cur, "next", vec![], 200).expect("step") {
            Value::Ref(next) => {
                mw.set_global("cursor", Value::Ref(next));
                steps += 1;
            }
            _ => break,
        }
    }
    assert_eq!(steps, N - 1, "the cursor walks the whole list");

    let after = mw.swap_stats();
    assert!(
        after.swap_ins - before.swap_ins >= 2,
        "the walk must reload the swapped clusters"
    );
    assert!(
        after.assign_patches - before.assign_patches >= (N as u64) / 2,
        "the marked cursor patches itself across shard boundaries"
    );

    // Crossings were recorded against entries living on different shards.
    let manager = mw.manager();
    let mut crossing_shards = std::collections::BTreeSet::new();
    for &sc in &walked {
        let entry = manager.cluster(sc).expect("entry");
        if entry.crossings > 0 || entry.out_crossings > 0 {
            crossing_shards.insert(manager.shard_of(sc));
        }
    }
    assert!(
        crossing_shards.len() >= 2,
        "crossing accounting should touch >=2 shards, touched {crossing_shards:?}"
    );

    let report = mw.audit();
    assert!(
        !report.has_errors(),
        "graph invariants after walk:\n{report}"
    );
}

/// A repair sweep over placements homed on two different shards: depart a
/// holder shared by both placements, pump the loss detection, and the
/// sweep must restore `k` reachable copies for both clusters — each
/// commit landing under its own shard lock.
#[test]
fn repair_sweep_restores_placements_on_two_shards() {
    const N: usize = 50;
    let mut server = Server::new(standard_classes());
    let head = server.build_list("Node", N, 16).expect("build list");
    let mut mw = Middleware::builder()
        .cluster_size(10)
        .device_memory(1 << 20)
        .no_builtin_policies()
        .wire_format(WireFormatKind::Xml)
        .replication_factor(2)
        .stores(
            (0..3)
                .map(|i| {
                    obiwan_core::StoreSpec::new(format!("store-{i}"), DeviceKind::Laptop, 16 << 20)
                })
                .collect(),
        )
        .build(server);
    let root = mw.replicate_root(head).expect("replicate");
    mw.set_global("head", Value::Ref(root));
    mw.invoke_i64(root, "length", vec![]).expect("warm");
    mw.run_gc().expect("settle");

    // Find two swapped-out clusters on different shards that share a
    // holder (with k=2 over 3 stores the pigeonhole guarantees overlap
    // across a handful of clusters).
    let manager = mw.manager();
    let clusters: Vec<u32> = manager
        .cluster_ids()
        .into_iter()
        .filter(|&c| c != 0)
        .collect();
    for &sc in &clusters {
        mw.swap_out(sc).expect("swap out");
    }
    let mut pair: Option<(u32, u32, DeviceId)> = None;
    'outer: for &a in &clusters {
        for &b in &clusters {
            if manager.shard_of(a) == manager.shard_of(b) {
                continue;
            }
            let (_, _, ha) = manager.holders_of(a).expect("holders a");
            let (_, _, hb) = manager.holders_of(b).expect("holders b");
            if let Some(&shared) = ha.iter().find(|d| hb.contains(d)) {
                pair = Some((a, b, shared));
                break 'outer;
            }
        }
    }
    let (a, b, shared) = pair.expect("two swapped clusters on different shards share a holder");

    {
        let net = mw.net();
        let mut net = net.lock().expect("net");
        net.depart(shared).expect("depart shared holder");
    }
    mw.pump().expect("pump detects the loss");
    let (repaired, moved) = manager.repair_placements().expect("repair sweep");
    assert!(
        repaired >= 2,
        "sweep must repair both shards' entries, repaired {repaired}"
    );
    assert!(moved > 0, "repair re-replication must move bytes");

    // Both placements are healed: k holders, none of them the departed
    // device, and the repair counter moved.
    for sc in [a, b] {
        let (_, _, holders) = manager.holders_of(sc).expect("healed placement");
        assert_eq!(holders.len(), 2, "sc{sc}: k copies after repair");
        assert!(
            !holders.contains(&shared),
            "sc{sc}: departed holder pruned from the placement"
        );
    }
    assert!(
        mw.swap_stats().repairs >= 2,
        "both shards' entries repaired"
    );

    // Both clusters reload cleanly from the repaired copies.
    {
        let net = mw.net();
        net.lock().expect("net").arrive(shared).expect("arrive");
    }
    mw.swap_in(a).expect("reload a");
    mw.swap_in(b).expect("reload b");
    let head_ref = mw.global("head").unwrap().expect_ref().unwrap();
    assert_eq!(
        mw.invoke_i64(head_ref, "length", vec![]).expect("len"),
        N as i64
    );
    let report = mw.audit();
    assert!(!report.has_errors(), "after cross-shard repair:\n{report}");
}

/// A [`SimNet`] whose `holders_of_key` answers and then, once armed,
/// drops the listed copy on one device: the orphan sweep (shard → net)
/// landing between a repair's net-only phase A, which re-adopts the copy,
/// and its shard-guarded phase B, which records it. `holders_of_key`
/// takes `&self`, so the world sits behind its own mutex; device profiles
/// never change and are answered from a copy taken at construction.
struct SweepAfterListing {
    inner: Mutex<SimNet>,
    profiles: BTreeMap<DeviceId, DeviceProfile>,
    home: DeviceId,
    victim: Arc<Mutex<Option<DeviceId>>>,
}

impl SweepAfterListing {
    fn net(&self) -> std::sync::MutexGuard<'_, SimNet> {
        self.inner.lock().expect("sim net")
    }
}

impl Transport for SweepAfterListing {
    fn now(&self) -> SimTime {
        self.net().now()
    }
    fn advance(&mut self, d: SimDuration) -> SimTime {
        self.net().advance(d)
    }
    fn profile(&self, device: DeviceId) -> obiwan_net::Result<&DeviceProfile> {
        self.profiles
            .get(&device)
            .ok_or(NetError::UnknownDevice { device })
    }
    fn set_failure_plan(&mut self, device: DeviceId, plan: FailurePlan) -> obiwan_net::Result<()> {
        self.net().set_failure_plan(device, plan)
    }
    fn connect(&mut self, a: DeviceId, b: DeviceId, link: LinkSpec) -> obiwan_net::Result<()> {
        self.net().connect(a, b, link)
    }
    fn disconnect(&mut self, a: DeviceId, b: DeviceId) {
        self.net().disconnect(a, b)
    }
    fn link(&self, a: DeviceId, b: DeviceId) -> Option<LinkSpec> {
        self.net().link(a, b)
    }
    fn nearby(&self, of: DeviceId) -> Vec<DeviceId> {
        self.net().nearby(of)
    }
    fn reachable(&self, of: DeviceId) -> Vec<(DeviceId, usize)> {
        self.net().reachable(of)
    }
    fn route(&self, from: DeviceId, to: DeviceId) -> Option<Route> {
        self.net().route(from, to)
    }
    fn free_storage(&self, device: DeviceId) -> obiwan_net::Result<usize> {
        self.net().free_storage(device)
    }
    fn depart(&mut self, device: DeviceId) -> obiwan_net::Result<()> {
        self.net().depart(device)
    }
    fn arrive(&mut self, device: DeviceId) -> obiwan_net::Result<()> {
        self.net().arrive(device)
    }
    fn churn_seq(&self) -> u64 {
        self.net().churn_seq()
    }
    fn is_present(&self, device: DeviceId) -> bool {
        self.net().is_present(device)
    }
    fn send_blob(
        &mut self,
        from: DeviceId,
        to: DeviceId,
        key: &str,
        data: Bytes,
    ) -> obiwan_net::Result<SimDuration> {
        self.net().send_blob(from, to, key, data)
    }
    fn fetch_blob(&mut self, from: DeviceId, to: DeviceId, key: &str) -> obiwan_net::Result<Bytes> {
        self.net().fetch_blob(from, to, key)
    }
    fn drop_blob(&mut self, from: DeviceId, to: DeviceId, key: &str) -> obiwan_net::Result<()> {
        self.net().drop_blob(from, to, key)
    }
    fn send_blob_routed(
        &mut self,
        from: DeviceId,
        to: DeviceId,
        key: &str,
        data: Bytes,
    ) -> obiwan_net::Result<(Route, SimDuration)> {
        self.net().send_blob_routed(from, to, key, data)
    }
    fn fetch_blob_routed(
        &mut self,
        from: DeviceId,
        to: DeviceId,
        key: &str,
    ) -> obiwan_net::Result<(Route, Bytes)> {
        self.net().fetch_blob_routed(from, to, key)
    }
    fn drop_blob_routed(
        &mut self,
        from: DeviceId,
        to: DeviceId,
        key: &str,
    ) -> obiwan_net::Result<()> {
        self.net().drop_blob_routed(from, to, key)
    }
    fn holds_blob(&self, to: DeviceId, key: &str) -> bool {
        self.net().holds_blob(to, key)
    }
    fn holders_of_key(&self, key: &str) -> Vec<DeviceId> {
        let mut net = self.net();
        let listed = net.holders_of_key(key);
        let armed = self.victim.lock().expect("victim").take();
        if let Some(victim) = armed.filter(|v| listed.contains(v)) {
            net.drop_blob(self.home, victim, key)
                .expect("the sweep drops the listed copy");
        }
        listed
    }
    fn blob_keys(&self, device: DeviceId) -> Vec<String> {
        self.net().blob_keys(device)
    }
    fn blob_data(&self, device: DeviceId, key: &str) -> Option<Bytes> {
        self.net().blob_data(device, key)
    }
    fn stored_bytes(&self, device: DeviceId) -> obiwan_net::Result<usize> {
        self.net().stored_bytes(device)
    }
    fn device_ids(&self) -> Vec<DeviceId> {
        self.net().device_ids()
    }
    fn traffic(&self) -> (u64, u64) {
        self.net().traffic()
    }
}

/// A repair re-adopts a returned holder's copy in phase A; an orphan
/// sweep drops that copy before phase B commits. Phase B must re-check
/// the copy under the shard guard and leave the device out of the
/// placement, instead of recording a holder without the blob (audit D4).
#[test]
fn repair_rechecks_a_readopted_copy_the_sweep_dropped() {
    let mut sim = SimNet::new();
    let home = sim.add_device("pda", DeviceKind::Pda, 0);
    let stores: Vec<DeviceId> = (0..2)
        .map(|i| sim.add_device(format!("store-{i}"), DeviceKind::Laptop, 1 << 20))
        .collect();
    for &d in &stores {
        sim.connect(home, d, LinkSpec::bluetooth()).expect("link");
    }
    let profiles = sim
        .device_ids()
        .into_iter()
        .map(|d| (d, sim.profile(d).expect("profile").clone()))
        .collect();
    let victim = Arc::new(Mutex::new(None));
    let net = Arc::new(Mutex::new(NetFabric::backend(Box::new(
        SweepAfterListing {
            inner: Mutex::new(sim),
            profiles,
            home,
            victim: Arc::clone(&victim),
        },
    ))));
    let mut server = Server::new(standard_classes());
    let head = server.build_list("Node", 40, 16).expect("build list");
    let mut mw = Middleware::builder()
        .cluster_size(10)
        .device_memory(1 << 20)
        .no_builtin_policies()
        .replication_factor(2)
        .build_in_world(standard_classes(), server.into_shared(), net, home);
    let root = mw.replicate_root(head).expect("replicate");
    mw.set_global("head", Value::Ref(root));
    mw.invoke_i64(root, "length", vec![]).expect("warm");
    mw.swap_out(2).expect("swap out sc2");
    let manager = mw.manager();
    assert_eq!(manager.holders_of(2).expect("placed").2, stores);

    // The second holder walks away: repair prunes it (no spare store to
    // re-replicate onto) and tracks its copy as an orphan.
    mw.net()
        .lock()
        .expect("net")
        .depart(stores[1])
        .expect("depart");
    manager.repair_placements().expect("repair 1");
    assert_eq!(manager.holders_of(2).expect("placed").2, vec![stores[0]]);

    // It returns with the copy; the next repair lists it for re-adoption
    // and the sweep drops it right after.
    mw.net()
        .lock()
        .expect("net")
        .arrive(stores[1])
        .expect("arrive");
    *victim.lock().expect("victim") = Some(stores[1]);
    manager.repair_placements().expect("repair 2");
    assert!(victim.lock().expect("victim").is_none(), "the sweep fired");
    let report = mw.audit();
    assert!(!report.has_errors(), "after the raced re-adopt:\n{report}");
    assert_eq!(manager.holders_of(2).expect("placed").2, vec![stores[0]]);
    // The orphan entry is still tracked; its copy is gone, so the next
    // sweep retires it without a drop.
    assert_eq!(manager.sweep_orphaned_blobs(), 1);
    mw.swap_in(2).expect("reload from the remaining holder");
    assert!(!mw.audit().has_errors());
}

/// The stress test the shard refactor exists for: one mutator thread
/// driving the process (swaps, GC, cursor traffic) while three
/// maintenance threads hammer `&self` manager entry points through bare
/// `Arc` clones and a churn thread flaps storage devices. Afterwards the
/// structural audit must be error-free and every stats counter must equal
/// the fold of the exported event stream — the recorder choke point keeps
/// counters and events atomic even under contention.
#[test]
fn concurrent_maintenance_and_churn_stress() {
    const N: usize = 120;
    const STEPS: usize = 500;
    let mut server = Server::new(standard_classes());
    let head = server.build_list("Node", N, 24).expect("build list");
    let mut mw = Middleware::builder()
        .cluster_size(10)
        .device_memory(1 << 20)
        .wire_format(WireFormatKind::Binary)
        .replication_factor(2)
        .shard_count(8)
        .trace_capacity(1 << 17)
        .stores(
            (0..3)
                .map(|i| {
                    obiwan_core::StoreSpec::new(format!("store-{i}"), DeviceKind::Laptop, 16 << 20)
                })
                .collect(),
        )
        .build(server);
    let storage: Vec<DeviceId> = mw
        .net()
        .lock()
        .expect("net")
        .nearby(mw.home_device())
        .into_iter()
        .collect();
    let root = mw.replicate_root(head).expect("replicate");
    mw.set_global("head", Value::Ref(root));
    mw.invoke_i64(root, "length", vec![]).expect("warm");

    let manager = mw.manager();
    assert_eq!(manager.shard_count(), 8);
    let clusters: Vec<u32> = manager
        .cluster_ids()
        .into_iter()
        .filter(|&c| c != 0)
        .collect();
    assert!(
        clusters.len() >= 8,
        "stress needs >=8 app clusters, got {clusters:?}"
    );
    assert!(
        shards_spanned(&mw, &clusters).len() >= 2,
        "clusters must span multiple shards for the stress to mean anything"
    );

    let stop = AtomicBool::new(false);
    let net = mw.net();
    std::thread::scope(|scope| {
        // Three maintenance threads: each a different mix of `&self`
        // manager traffic, all racing the mutator and each other.
        for worker in 0..3u64 {
            let manager = manager.clone();
            let stop = &stop;
            let clusters = clusters.clone();
            scope.spawn(move || {
                let mut rng = 1000 + worker;
                let mut spins = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    spins += 1;
                    match (next_rand(&mut rng) + worker) % 6 {
                        0 => {
                            // Loss detection + repair may race a detach or
                            // a departed device mid-ship; any error is a
                            // tolerated outcome, panics are not.
                            let _ = manager.note_departures();
                            let _ = manager.repair_placements();
                        }
                        1 => {
                            let sc = clusters[(next_rand(&mut rng) as usize) % clusters.len()];
                            let _ = manager.holders_of(sc);
                            let _ = manager.cluster(sc);
                        }
                        2 => {
                            let _ = manager.stats();
                            let _ = manager.loaded_clusters();
                            let _ = manager.swapped_clusters();
                        }
                        3 => {
                            let _ = manager.sweep_orphaned_blobs();
                        }
                        4 => {
                            let _ = manager.placements();
                        }
                        _ => {
                            // Full export while the mutator is emitting:
                            // the snapshot must always be internally
                            // consistent (recorded == dropped + len).
                            let t = manager.export_trace();
                            assert_eq!(
                                t.meta.recorded,
                                t.meta.dropped + t.events.len() as u64,
                                "torn trace export"
                            );
                        }
                    }
                    if spins.is_multiple_of(8) {
                        std::thread::yield_now();
                    }
                }
            });
        }
        // Churn thread: flap one storage device at a time, always
        // restoring it, so holder loss / failover / repair keep firing
        // while every device is back online by the time the scope ends.
        {
            let net = net.clone();
            let stop = &stop;
            let storage = storage.clone();
            scope.spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let d = storage[i % storage.len()];
                    i += 1;
                    net.lock().expect("net").depart(d).expect("depart");
                    for _ in 0..32 {
                        std::thread::yield_now();
                    }
                    net.lock().expect("net").arrive(d).expect("arrive");
                    std::thread::yield_now();
                }
            });
        }

        // The mutator: the only thread that owns the process. Everything
        // it tolerates is a legitimate race outcome (cluster already
        // swapped, blob on a flapped device, nothing evictable).
        let mut rng = 42u64;
        for _ in 0..STEPS {
            match next_rand(&mut rng) % 8 {
                0..=2 => {
                    let sc = clusters[(next_rand(&mut rng) as usize) % clusters.len()];
                    match mw.swap_out(sc) {
                        Ok(_)
                        | Err(SwapError::BadState { .. })
                        | Err(SwapError::UnknownSwapCluster { .. })
                        | Err(SwapError::NothingToSwap { .. })
                        | Err(SwapError::NoStorageDevice { .. }) => {}
                        Err(e) => panic!("swap_out: {e}"),
                    }
                }
                3..=5 => {
                    let sc = clusters[(next_rand(&mut rng) as usize) % clusters.len()];
                    match mw.swap_in(sc) {
                        Ok(_)
                        | Err(SwapError::BadState { .. })
                        | Err(SwapError::UnknownSwapCluster { .. })
                        | Err(SwapError::DataLost { .. })
                        | Err(SwapError::BlobUnavailable { .. }) => {}
                        Err(e) => panic!("swap_in: {e}"),
                    }
                }
                6 => {
                    mw.run_gc().expect("gc");
                }
                _ => {
                    mw.pump().expect("pump");
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
    });

    // Quiesce: every device is back (the churn thread restores its flap
    // before exiting), one more pump heals any in-flight loss.
    {
        let mut guard = net.lock().expect("net");
        for &d in &storage {
            if !guard.nearby(mw.home_device()).contains(&d) {
                guard.arrive(d).expect("arrive at quiesce");
            }
        }
    }
    mw.pump().expect("final pump");

    let report = mw.audit();
    assert!(
        !report.has_errors(),
        "graph invariants after concurrent stress:\n{report}"
    );
    let stats = mw.swap_stats();
    let trace = mw.export_trace();
    assert_eq!(
        trace.meta.dropped, 0,
        "ring must not truncate: raise trace_capacity if the workload grew"
    );
    let fold = fold_counts(&trace.events);
    assert_stats_match_fold(&stats, &fold, "concurrent stress");
    assert!(stats.swap_outs > 0, "stress produced no swap-outs");
    assert!(stats.swap_ins > 0, "stress produced no reloads");

    // The full list still reads back intact through whatever mixture of
    // loaded and swapped clusters the stress left behind.
    let head_ref = mw.global("head").unwrap().expect_ref().unwrap();
    assert_eq!(
        mw.invoke_i64(head_ref, "length", vec![]).expect("len"),
        N as i64
    );
}
