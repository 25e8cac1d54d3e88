//! End-to-end tests of the Object-Swapping mechanism: swap-out / reload
//! roundtrips, proxy rules, GC cooperation, failure scenarios.

#![allow(clippy::disallowed_methods)] // tests may panic on impossible states

use obiwan_core::{Middleware, StoreSpec, SwapClusterState, SwapError, VictimPolicy};
use obiwan_heap::{ObjectKind, Value};
use obiwan_net::{DeviceKind, FailurePlan};
use obiwan_replication::{standard_classes, Server};

fn list_middleware(n: usize, cluster: usize, memory: usize) -> (Middleware, obiwan_heap::ObjRef) {
    let mut server = Server::new(standard_classes());
    let head = server.build_list("Node", n, 16).unwrap();
    let mut mw = Middleware::builder()
        .cluster_size(cluster)
        .device_memory(memory)
        .no_builtin_policies() // tests drive swapping explicitly
        .build(server);
    let root = mw.replicate_root(head).unwrap();
    mw.set_global("head", Value::Ref(root));
    (mw, root)
}

/// Fully replicate by traversing once.
fn warm(mw: &mut Middleware, root: obiwan_heap::ObjRef, expect_len: i64) {
    let len = mw.invoke_i64(root, "length", vec![]).unwrap();
    assert_eq!(len, expect_len);
}

#[test]
fn root_reference_is_a_swap_proxy_when_swapping_enabled() {
    let (mw, root) = list_middleware(10, 5, 1 << 20);
    assert_eq!(
        mw.process().heap().get(root).unwrap().kind(),
        ObjectKind::SwapProxy
    );
}

#[test]
fn swap_out_releases_memory_and_reload_restores_the_graph() {
    let (mut mw, root) = list_middleware(40, 10, 1 << 20);
    warm(&mut mw, root, 40);
    let before = mw.process().heap().bytes_used();
    let manager = mw.manager();
    assert_eq!(manager.loaded_clusters(), vec![1, 2, 3, 4]);

    // Swap out the second cluster (nodes 10..20).
    let shipped = mw.swap_out(2).unwrap();
    assert!(shipped > 0);
    let after = mw.process().heap().bytes_used();
    assert!(
        after < before,
        "swap-out must release memory: {before} -> {after}"
    );
    assert_eq!(manager.swapped_clusters(), vec![2]);
    assert!(matches!(
        manager.cluster(2).unwrap().state,
        SwapClusterState::SwappedOut { .. }
    ));
    // The blob is on the laptop.
    {
        let net = mw.net();
        let net = net.lock().unwrap();
        let laptop = net.nearby(mw.home_device())[0];
        assert!(net.stored_bytes(laptop).unwrap() > 0);
    }

    // Traversing reloads transparently and the graph is intact.
    warm(&mut mw, root, 40);
    assert!(manager.swapped_clusters().is_empty());
    assert_eq!(manager.stats().swap_ins, 1);
    // Payloads survive byte-exactly.
    let mut cur = root;
    for _ in 0..39 {
        assert_eq!(mw.invoke_i64(cur, "payload_len", vec![]).unwrap(), 16);
        cur = mw.invoke_ref(cur, "next", vec![]).unwrap();
    }
}

#[test]
fn swap_out_and_reload_preserve_identity_semantics() {
    let (mut mw, root) = list_middleware(30, 10, 1 << 20);
    warm(&mut mw, root, 30);
    // Reference to node 15 from application code (crosses into cluster 2).
    let mut cur = root;
    for _ in 0..15 {
        cur = mw.invoke_ref(cur, "next", vec![]).unwrap();
    }
    mw.set_global("mark", Value::Ref(cur));
    mw.swap_out(2).unwrap();
    // The proxy survives the swap (it now targets the replacement object);
    // re-read it from the global (GC-rooted) variable.
    let before_swap = mw.global("mark").unwrap().expect_ref().unwrap();
    assert!(mw.process().heap().is_live(before_swap));
    // Invoking it reloads and still denotes the same object.
    let after = mw
        .invoke_ref(before_swap, "probe_step", vec![Value::Int(0)])
        .unwrap();
    assert!(mw.same_object(before_swap, after).unwrap());
}

#[test]
fn all_clusters_can_be_swapped_out_and_memory_drops_to_proxies_only() {
    let (mut mw, root) = list_middleware(60, 20, 1 << 20);
    warm(&mut mw, root, 60);
    let full = mw.process().heap().bytes_used();
    for sc in [1u32, 2, 3] {
        mw.swap_out(sc).unwrap();
    }
    let empty = mw.process().heap().bytes_used();
    assert!(
        empty < full / 4,
        "almost everything should be gone: {full} -> {empty}"
    );
    // And everything comes back on demand.
    warm(&mut mw, root, 60);
    assert_eq!(mw.swap_stats().swap_ins, 3);
    let _ = root;
}

#[test]
fn double_swap_out_is_a_bad_state() {
    let (mut mw, root) = list_middleware(20, 10, 1 << 20);
    warm(&mut mw, root, 20);
    mw.swap_out(1).unwrap();
    assert!(matches!(mw.swap_out(1), Err(SwapError::BadState { .. })));
    // Reloading twice likewise.
    mw.swap_in(1).unwrap();
    assert!(matches!(mw.swap_in(1), Err(SwapError::BadState { .. })));
}

#[test]
fn unknown_swap_cluster_is_reported() {
    let (mut mw, _root) = list_middleware(10, 5, 1 << 20);
    assert!(matches!(
        mw.swap_out(99),
        Err(SwapError::UnknownSwapCluster { swap_cluster: 99 })
    ));
}

#[test]
fn swap_out_with_no_storage_device_fails_cleanly() {
    let mut server = Server::new(standard_classes());
    let head = server.build_list("Node", 20, 16).unwrap();
    let mut mw = Middleware::builder()
        .cluster_size(10)
        .device_memory(1 << 20)
        .no_builtin_policies()
        .stores(vec![]) // empty room
        .build(server);
    let root = mw.replicate_root(head).unwrap();
    mw.set_global("head", Value::Ref(root));
    warm(&mut mw, root, 20);
    let err = mw.swap_out(1).unwrap_err();
    assert!(matches!(err, SwapError::NoStorageDevice { tried: 0, .. }));
    // Graph untouched.
    warm(&mut mw, root, 20);
}

#[test]
fn swap_out_falls_back_to_second_device_when_first_is_full() {
    let mut server = Server::new(standard_classes());
    let head = server.build_list("Node", 20, 16).unwrap();
    let mut mw = Middleware::builder()
        .cluster_size(10)
        .device_memory(1 << 20)
        .no_builtin_policies()
        .stores(vec![
            StoreSpec::new("tiny-mote", DeviceKind::Mote, 64), // too small
            StoreSpec::new("big-desktop", DeviceKind::Desktop, 1 << 20),
        ])
        .build(server);
    let root = mw.replicate_root(head).unwrap();
    mw.set_global("head", Value::Ref(root));
    warm(&mut mw, root, 20);
    mw.swap_out(1).unwrap();
    let net = mw.net();
    let net = net.lock().unwrap();
    // Device ids: 0 = pda, 1 = mote, 2 = desktop.
    let desktop = net
        .nearby(mw.home_device())
        .into_iter()
        .find(|d| net.profile(*d).unwrap().kind == DeviceKind::Desktop)
        .unwrap();
    assert!(net.stored_bytes(desktop).unwrap() > 0);
}

#[test]
fn reload_after_device_departure_reports_blob_unavailable_and_recovers_on_return() {
    let (mut mw, root) = list_middleware(20, 10, 1 << 20);
    warm(&mut mw, root, 20);
    mw.swap_out(2).unwrap();
    let laptop = {
        let net = mw.net();
        let ids = net.lock().unwrap().nearby(mw.home_device());
        ids[0]
    };
    mw.net().lock().unwrap().depart(laptop).unwrap();
    let err = mw.swap_in(2).unwrap_err();
    match err {
        SwapError::BlobUnavailable {
            swap_cluster: 2,
            ref tried,
            ..
        } => assert_eq!(tried.as_slice(), &[laptop]),
        other => panic!("expected BlobUnavailable for sc2, got {other:?}"),
    }
    // Still swapped out; when the device returns the reload succeeds.
    mw.net().lock().unwrap().arrive(laptop).unwrap();
    mw.swap_in(2).unwrap();
    warm(&mut mw, root, 20);
}

#[test]
fn injected_store_failure_triggers_fallback_or_clean_error() {
    let mut server = Server::new(standard_classes());
    let head = server.build_list("Node", 20, 16).unwrap();
    let mut mw = Middleware::builder()
        .cluster_size(10)
        .device_memory(1 << 20)
        .no_builtin_policies()
        .stores(vec![
            StoreSpec::new("flaky-laptop", DeviceKind::Laptop, 1 << 20),
            StoreSpec::new("solid-desktop", DeviceKind::Desktop, 1 << 20),
        ])
        .build(server);
    let root = mw.replicate_root(head).unwrap();
    mw.set_global("head", Value::Ref(root));
    warm(&mut mw, root, 20);
    // Make the laptop's first store op fail.
    {
        let net = mw.net();
        let mut net = net.lock().unwrap();
        let laptop = net
            .nearby(mw.home_device())
            .into_iter()
            .find(|d| net.profile(*d).unwrap().kind == DeviceKind::Laptop)
            .unwrap();
        net.set_failure_plan(laptop, FailurePlan::fail_once_at(0))
            .unwrap();
    }
    mw.swap_out(1).unwrap();
    // It landed on the desktop instead.
    let net = mw.net();
    let net = net.lock().unwrap();
    let desktop = net
        .nearby(mw.home_device())
        .into_iter()
        .find(|d| net.profile(*d).unwrap().kind == DeviceKind::Desktop)
        .unwrap();
    assert!(net.stored_bytes(desktop).unwrap() > 0);
}

#[test]
fn gc_cooperation_drops_blob_when_replacement_dies() {
    let (mut mw, root) = list_middleware(30, 10, 1 << 20);
    warm(&mut mw, root, 30);
    // Cut the list between node 9 and 10 so clusters 2 and 3 become
    // unreachable, then swap cluster 2 out.
    let mut ninth = root;
    for _ in 0..9 {
        ninth = mw.invoke_ref(ninth, "next", vec![]).unwrap();
    }
    mw.set_global("ninth", Value::Ref(ninth));
    mw.swap_out(2).unwrap();
    let ninth = mw.global("ninth").unwrap().expect_ref().unwrap();
    // Sever: node 9 (cluster 1) no longer points to cluster 2's proxy.
    // We reach node 9 through the swap proxy; mutate its `next` directly.
    let ninth_obj = mw
        .invoke_ref(ninth, "probe_step", vec![Value::Int(0)])
        .unwrap();
    // ninth_obj is a swap-proxy from SC0; resolve to the replica handle by
    // asking the process (identity lets us find it).
    let heap_ref = {
        let p = mw.process();
        let key = obiwan_core::identity_key(p, ninth_obj).unwrap();
        match key {
            obiwan_core::IdentityKey::Oid(oid) => p.lookup_replica(oid).unwrap(),
            obiwan_core::IdentityKey::Handle(h) => h,
        }
    };
    mw.process_mut()
        .set_field_value(heap_ref, "next", Value::Null)
        .unwrap();

    let blobs_before = {
        let net = mw.net();
        let n = net.lock().unwrap();
        let laptop = n.nearby(mw.home_device())[0];
        n.stored_bytes(laptop).unwrap()
    };
    assert!(blobs_before > 0);

    // Collect: the inbound proxy dies, the replacement dies, the finalizer
    // instructs the drop. (Two passes: proxy first, then replacement.)
    mw.run_gc().unwrap();
    mw.run_gc().unwrap();

    let blobs_after = {
        let net = mw.net();
        let n = net.lock().unwrap();
        let laptop = n.nearby(mw.home_device())[0];
        n.stored_bytes(laptop).unwrap()
    };
    assert_eq!(blobs_after, 0, "blob must be dropped after unreachability");
    let manager = mw.manager();
    assert!(matches!(
        manager.cluster(2).unwrap().state,
        SwapClusterState::Dropped
    ));
    assert!(manager.stats().blobs_dropped >= 1);
}

#[test]
fn a_half_built_replacement_dying_does_not_drop_its_swapped_out_cluster() {
    let (mut mw, root) = list_middleware(30, 10, 1 << 20);
    warm(&mut mw, root, 30);
    mw.run_gc().unwrap();
    // Leave room for the replacement-object's base but not for the slot
    // that holds cluster 2's outbound proxy: the detach fails halfway.
    let used = mw.process().heap().bytes_used();
    mw.process_mut().heap_mut().set_capacity(used + 30);
    let err = mw.swap_out(2).unwrap_err();
    assert!(err.is_out_of_memory(), "{err}");
    // The retry succeeds, and its collection buries the half-built one.
    mw.process_mut().heap_mut().set_capacity(1 << 20);
    mw.swap_out(2).unwrap();
    mw.run_gc().unwrap();
    assert!(matches!(
        mw.manager().cluster(2).unwrap().state,
        SwapClusterState::SwappedOut { .. }
    ));
    assert_eq!(mw.invoke_i64(root, "length", vec![]).unwrap(), 30);
}

#[test]
fn b1_iteration_creates_proxies_and_b2_assign_reuses_one() {
    let (mut mw, root) = list_middleware(60, 20, 1 << 20);
    warm(&mut mw, root, 60);

    // B1: global-cursor iteration, fresh proxy per cross-cluster step.
    mw.set_global("cursor", Value::Ref(root));
    let created_before = mw.swap_stats().proxies_created;
    let mut steps = 0;
    loop {
        let cur = mw.global("cursor").unwrap().expect_ref().unwrap();
        match mw.invoke(cur, "next", vec![]).unwrap() {
            Value::Ref(next) => {
                mw.set_global("cursor", Value::Ref(next));
                steps += 1;
            }
            _ => break,
        }
    }
    assert_eq!(steps, 59);
    let created_b1 = mw.swap_stats().proxies_created - created_before;
    assert!(
        created_b1 > 40,
        "B1 must create roughly one proxy per step, created {created_b1}"
    );

    // B2: the assign optimization — the cursor proxy patches itself.
    mw.run_gc().unwrap();
    mw.set_global("cursor", Value::Ref(root));
    mw.assign(root).unwrap();
    let created_before = mw.swap_stats().proxies_created;
    let patches_before = mw.swap_stats().assign_patches;
    let mut steps = 0;
    loop {
        let cur = mw.global("cursor").unwrap().expect_ref().unwrap();
        match mw.invoke(cur, "next", vec![]).unwrap() {
            Value::Ref(next) => {
                mw.set_global("cursor", Value::Ref(next));
                steps += 1;
            }
            _ => break,
        }
    }
    assert_eq!(steps, 59);
    let created_b2 = mw.swap_stats().proxies_created - created_before;
    let patches = mw.swap_stats().assign_patches - patches_before;
    assert!(
        created_b2 <= 2,
        "B2 must reuse the marked proxy, created {created_b2}"
    );
    assert!(patches > 50, "self-patches expected, got {patches}");
}

#[test]
fn assign_rejects_non_proxies_and_non_sc0_proxies() {
    let (mut mw, root) = list_middleware(10, 5, 1 << 20);
    warm(&mut mw, root, 10);
    // An app object handle:
    let app = {
        let p = mw.process();
        let key = obiwan_core::identity_key(p, root).unwrap();
        match key {
            obiwan_core::IdentityKey::Oid(oid) => p.lookup_replica(oid).unwrap(),
            obiwan_core::IdentityKey::Handle(h) => h,
        }
    };
    assert!(mw.assign(app).is_err());
}

#[test]
fn victim_policies_select_and_swap() {
    for policy in [
        VictimPolicy::LeastRecentlyUsed,
        VictimPolicy::LeastFrequentlyUsed,
        VictimPolicy::LargestFirst,
        VictimPolicy::RoundRobin,
    ] {
        let mut server = Server::new(standard_classes());
        let head = server.build_list("Node", 40, 16).unwrap();
        let mut mw = Middleware::builder()
            .cluster_size(10)
            .device_memory(1 << 20)
            .victim_policy(policy)
            .no_builtin_policies()
            .build(server);
        let root = mw.replicate_root(head).unwrap();
        mw.set_global("head", Value::Ref(root));
        warm(&mut mw, root, 40);
        let evicted = mw.swap_out_victim().unwrap();
        assert!(evicted.is_some(), "{policy}: a victim must be found");
        assert_eq!(mw.swap_stats().swap_outs, 1, "{policy}");
    }
}

#[test]
fn memory_pressure_policy_swaps_automatically() {
    // Memory for roughly two clusters; built-in policies enabled.
    let mut server = Server::new(standard_classes());
    let head = server.build_list("Node", 200, 16).unwrap();
    let mut mw = Middleware::builder()
        .cluster_size(20)
        .device_memory(12 * 1024)
        .build(server);
    let root = mw.replicate_root(head).unwrap();
    mw.set_global("cursor", Value::Ref(root));
    // The whole list never fits; walking it step by step lets the
    // middleware evict behind the cursor (the paper's scenario: memory
    // reaches the threshold, policies swap a set of objects out).
    let mut len = 1i64;
    loop {
        let cur = mw.global("cursor").unwrap().expect_ref().unwrap();
        match mw.invoke_resilient(cur, "next", vec![], 100).unwrap() {
            Value::Ref(next) => {
                mw.set_global("cursor", Value::Ref(next));
                len += 1;
            }
            _ => break,
        }
    }
    assert_eq!(len, 200);
    let stats = mw.swap_stats();
    assert!(stats.swap_outs > 0, "pressure must have caused evictions");
    assert!(
        mw.process().heap().bytes_used() <= mw.process().heap().capacity(),
        "never exceeded the budget"
    );
}

#[test]
fn no_swap_clusters_baseline_has_no_proxies() {
    let mut server = Server::new(standard_classes());
    let head = server.build_list("Node", 50, 16).unwrap();
    let mut mw = Middleware::builder()
        .cluster_size(10)
        .device_memory(1 << 20)
        .swapping_disabled()
        .no_builtin_policies()
        .build(server);
    let root = mw.replicate_root(head).unwrap();
    mw.set_global("head", Value::Ref(root));
    assert_eq!(mw.invoke_i64(root, "length", vec![]).unwrap(), 50);
    let proxies = mw
        .process()
        .heap()
        .iter_live()
        .filter(|&r| mw.process().heap().get(r).unwrap().kind() == ObjectKind::SwapProxy)
        .count();
    assert_eq!(proxies, 0);
    assert_eq!(mw.swap_stats().proxies_created, 0);
}

#[test]
fn clusters_per_swap_cluster_groups_replication_clusters() {
    let mut server = Server::new(standard_classes());
    let head = server.build_list("Node", 60, 16).unwrap();
    let mut mw = Middleware::builder()
        .cluster_size(10)
        .clusters_per_swap_cluster(3)
        .device_memory(1 << 20)
        .no_builtin_policies()
        .build(server);
    let root = mw.replicate_root(head).unwrap();
    mw.set_global("head", Value::Ref(root));
    assert_eq!(mw.invoke_i64(root, "length", vec![]).unwrap(), 60);
    let manager = mw.manager();
    // 6 replication clusters → 2 swap-clusters.
    assert_eq!(manager.loaded_clusters(), vec![1, 2]);
    assert_eq!(manager.cluster(1).unwrap().member_count(), 30);
    assert_eq!(manager.cluster(2).unwrap().member_count(), 30);
}

#[test]
fn crossing_statistics_accumulate() {
    let (mut mw, root) = list_middleware(40, 10, 1 << 20);
    // First traversal replicates (fault proxies, no swap-proxy crossings);
    // the second actually crosses the now-mediated boundaries.
    warm(&mut mw, root, 40);
    warm(&mut mw, root, 40);
    let manager = mw.manager();
    let crossings: u64 = manager
        .loaded_clusters()
        .iter()
        .map(|&sc| manager.cluster(sc).unwrap().crossings)
        .sum();
    assert!(crossings >= 4, "each boundary crossing counts: {crossings}");
    assert!(mw.swap_stats().crossings >= crossings);
}

#[test]
fn swapped_blob_is_valid_xml_on_the_wire() {
    let (mut mw, root) = list_middleware(20, 10, 1 << 20);
    warm(&mut mw, root, 20);
    mw.swap_out(1).unwrap();
    let xml = {
        let net = mw.net();
        let mut n = net.lock().unwrap();
        let laptop = n.nearby(mw.home_device())[0];
        n.fetch_blob(mw.home_device(), laptop, "dev0-sc1-e0")
            .unwrap()
    };
    let text = std::str::from_utf8(&xml).unwrap();
    let blob = obiwan_core::codec::decode(text).unwrap();
    assert_eq!(blob.swap_cluster, 1);
    assert_eq!(blob.objects.len(), 10);
    assert!(blob.objects.iter().all(|o| o.class == "Node"));
}
