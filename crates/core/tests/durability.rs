//! End-to-end tests of the blob durability subsystem: k-way placement
//! fan-out, failover reload, GC drop fan-out, and the churn repair sweep.
//!
//! The paper ships each swapped-out cluster to exactly one neighbour;
//! `SwapConfig::replication_factor` generalizes that to k copies placed by
//! a pluggable policy, with reload failing over between holders and a
//! repair sweep re-replicating when a holder walks away.

#![allow(clippy::disallowed_methods)] // tests may panic on impossible states

use obiwan_core::{Middleware, PlacementKind, StoreSpec, SwapConfig, SwapError};
use obiwan_heap::Value;
use obiwan_net::{DeviceId, DeviceKind, LinkSpec};
use obiwan_replication::{standard_classes, Server};

/// A PDA over a 40-node list with `stores` storage devices in the room and
/// the given replication factor. Builtin policies stay on when `policies`
/// is true (the repair sweep rides the policy pump).
fn k_world(
    stores: usize,
    k: usize,
    policies: bool,
) -> (Middleware, obiwan_heap::ObjRef, Vec<DeviceId>) {
    let mut server = Server::new(standard_classes());
    let head = server.build_list("Node", 40, 16).unwrap();
    let mut builder = Middleware::builder()
        .cluster_size(10)
        .device_memory(1 << 20)
        .replication_factor(k)
        .stores(
            (0..stores)
                .map(|i| StoreSpec::new(format!("store-{i}"), DeviceKind::Laptop, 1 << 20))
                .collect(),
        );
    if !policies {
        builder = builder.no_builtin_policies();
    }
    let mut mw = builder.build(server);
    let root = mw.replicate_root(head).unwrap();
    mw.set_global("head", Value::Ref(root));
    assert_eq!(mw.invoke_i64(root, "length", vec![]).unwrap(), 40);
    let devices = {
        let net = mw.net();
        let net = net.lock().unwrap();
        net.nearby(mw.home_device())
    };
    assert_eq!(devices.len(), stores);
    (mw, root, devices)
}

/// The active `(key, holders)` of a swapped-out cluster.
fn holders(mw: &Middleware, sc: u32) -> (String, Vec<DeviceId>) {
    let manager = mw.manager();
    let (_, key, holders) = manager.holders_of(sc).expect("cluster is swapped out");
    (key, holders)
}

#[test]
fn k2_swap_out_stores_identical_copies_on_two_holders() {
    let (mut mw, _root, devices) = k_world(3, 2, false);
    let blob_bytes = mw.swap_out(2).unwrap();
    let (key, held) = holders(&mw, 2);
    assert_eq!(held.len(), 2, "two holders recorded");
    assert!(held.iter().all(|d| devices.contains(d)));
    let net = mw.net();
    let net = net.lock().unwrap();
    let copies: Vec<_> = held
        .iter()
        .map(|&d| net.blob_data(d, &key).expect("copy present"))
        .collect();
    assert_eq!(copies[0], copies[1], "both holders store identical bytes");
    assert_eq!(copies[0].len(), blob_bytes);
    // Fan-out traffic is accounted per copy.
    assert_eq!(mw.swap_stats().bytes_swapped_out, 2 * blob_bytes as u64);
}

#[test]
fn reload_fails_over_past_the_departed_primary() {
    let (mut mw, root, _devices) = k_world(2, 2, false);
    mw.swap_out(2).unwrap();
    let (_, held) = holders(&mw, 2);
    mw.net().lock().unwrap().depart(held[0]).unwrap();
    mw.swap_in(2)
        .expect("failover reload from the second holder");
    assert_eq!(mw.invoke_i64(root, "length", vec![]).unwrap(), 40);
    let stats = mw.swap_stats();
    assert_eq!(stats.swap_ins, 1);
    assert_eq!(stats.reload_failovers, 1);
}

#[test]
fn all_holders_gone_is_blob_unavailable_naming_every_holder_tried() {
    let (mut mw, root, _devices) = k_world(2, 2, false);
    mw.swap_out(2).unwrap();
    let (_, held) = holders(&mw, 2);
    for &d in &held {
        mw.net().lock().unwrap().depart(d).unwrap();
    }
    let err = mw.swap_in(2).expect_err("no holder reachable");
    match err {
        SwapError::BlobUnavailable {
            swap_cluster: 2,
            ref tried,
            ..
        } => assert_eq!(tried, &held, "every holder was tried, in order"),
        other => panic!("expected BlobUnavailable, got {other:?}"),
    }
    // Transient, not fatal: a holder returning makes the reload succeed.
    mw.net().lock().unwrap().arrive(held[1]).unwrap();
    mw.swap_in(2).expect("reload from the returned holder");
    assert_eq!(mw.invoke_i64(root, "length", vec![]).unwrap(), 40);
}

#[test]
fn repair_sweep_restores_k_holders_with_byte_identical_copies() {
    let (mut mw, root, _devices) = k_world(3, 2, true);
    mw.swap_out(2).unwrap();
    let (key, before) = holders(&mw, 2);
    assert_eq!(before.len(), 2);
    let original = mw
        .net()
        .lock()
        .unwrap()
        .blob_data(before[1], &key)
        .expect("copy");
    // One holder walks away while the cluster is swapped out.
    mw.net().lock().unwrap().depart(before[0]).unwrap();
    // The policy pump notices the loss (HolderLost) and runs the builtin
    // repair rule — no explicit repair call.
    mw.pump().unwrap();
    let (_, after) = holders(&mw, 2);
    assert_eq!(after.len(), 2, "repair restored the replication factor");
    assert!(
        !after.contains(&before[0]),
        "the departed holder was pruned from the placement"
    );
    let stats = mw.swap_stats();
    assert!(stats.repairs >= 1, "repair pass counted: {stats:?}");
    assert!(stats.repair_bytes > 0, "repair traffic accounted");
    {
        let net = mw.net();
        let net = net.lock().unwrap();
        for &d in &after {
            assert_eq!(
                net.blob_data(d, &key).expect("copy present"),
                original,
                "re-replicated copy is byte-identical"
            );
        }
    }
    // A subsequent reload succeeds and materializes the original graph.
    mw.swap_in(2).expect("reload after repair");
    assert_eq!(mw.invoke_i64(root, "length", vec![]).unwrap(), 40);
}

#[test]
fn repair_readopts_a_returning_holder_without_airtime() {
    let (mut mw, _root, _devices) = k_world(2, 2, false);
    mw.swap_out(2).unwrap();
    let (key, before) = holders(&mw, 2);
    mw.net().lock().unwrap().depart(before[0]).unwrap();
    // Prune the departed holder (its stale copy becomes a tracked orphan).
    mw.manager().repair_placements().unwrap();
    let (_, pruned) = holders(&mw, 2);
    assert_eq!(pruned, vec![before[1]], "down to the surviving holder");
    // The holder returns with its copy intact: the next sweep re-adopts the
    // existing copy instead of shipping a new one.
    mw.net().lock().unwrap().arrive(before[0]).unwrap();
    let (sent_before, _) = mw.net().lock().unwrap().traffic();
    mw.manager().repair_placements().unwrap();
    let (sent_after, _) = mw.net().lock().unwrap().traffic();
    let (_, restored) = holders(&mw, 2);
    assert_eq!(restored.len(), 2, "back to k holders");
    assert!(restored.contains(&before[0]));
    assert_eq!(sent_after, sent_before, "re-adoption shipped no bytes");
    assert!(mw.net().lock().unwrap().holds_blob(before[0], &key));
}

#[test]
fn orphan_sweep_waits_for_a_departed_holder_and_retires_a_vanished_copy() {
    let (mut mw, _root, _devices) = k_world(3, 2, false);
    let home = mw.home_device();
    // Two clusters out on the same primary; it departs, and the repair
    // prunes it, leaving one tracked orphan per cluster on it.
    mw.swap_out(2).unwrap();
    mw.swap_out(3).unwrap();
    let (lost_key, held) = holders(&mw, 2);
    let (kept_key, held_3) = holders(&mw, 3);
    let primary = held[0];
    assert!(held_3.contains(&primary), "placement is deterministic");
    mw.net().lock().unwrap().depart(primary).unwrap();
    mw.manager().repair_placements().unwrap();
    let manager = mw.manager();
    assert_eq!(
        manager.sweep_orphaned_blobs(),
        0,
        "a departed holder keeps its orphans"
    );
    mw.net().lock().unwrap().arrive(primary).unwrap();
    // One copy vanished while the holder was away: nothing to reclaim
    // there, so that orphan is retired rather than retried on every sweep.
    mw.net()
        .lock()
        .unwrap()
        .drop_blob(home, primary, &lost_key)
        .unwrap();
    assert_eq!(manager.sweep_orphaned_blobs(), 2, "both orphans cleared");
    assert_eq!(manager.sweep_orphaned_blobs(), 0, "nothing left to retry");
    assert!(!mw.net().lock().unwrap().holds_blob(primary, &kept_key));
    let report = mw.audit();
    assert!(!report.has_errors(), "{report}");
}

#[test]
fn reload_and_gc_drop_every_copy() {
    // Reload path: the reload drop fans out to both holders.
    let (mut mw, root, devices) = k_world(2, 2, false);
    mw.swap_out(2).unwrap();
    mw.swap_in(2).unwrap();
    {
        let net = mw.net();
        let net = net.lock().unwrap();
        for &d in &devices {
            assert_eq!(net.stored_bytes(d).unwrap(), 0, "no copy survives reload");
        }
    }
    assert_eq!(mw.swap_stats().blobs_dropped, 2);

    // GC path: sever cluster 2 (nodes 10..20) after swapping it out; the
    // finalizer must instruct *every* holder to drop its copy.
    let mut cur = root;
    for _ in 0..9 {
        cur = mw.invoke_ref(cur, "next", vec![]).unwrap();
    }
    mw.set_global("cut", Value::Ref(cur));
    mw.swap_out(2).unwrap();
    assert_eq!(holders(&mw, 2).1.len(), 2);
    let cut = mw.global("cut").unwrap().expect_ref().unwrap();
    let handle = match obiwan_core::identity_key(mw.process(), cut).unwrap() {
        obiwan_core::IdentityKey::Oid(oid) => mw.process().lookup_replica(oid).unwrap(),
        obiwan_core::IdentityKey::Handle(h) => h,
    };
    mw.process_mut()
        .set_field_value(handle, "next", Value::Null)
        .unwrap();
    mw.run_gc().unwrap();
    mw.run_gc().unwrap();
    {
        let net = mw.net();
        let net = net.lock().unwrap();
        for &d in &devices {
            assert_eq!(net.stored_bytes(d).unwrap(), 0, "GC dropped every copy");
        }
    }
    assert_eq!(
        mw.swap_stats().blobs_dropped,
        4,
        "two reload + two GC drops"
    );
}

#[test]
fn short_room_stores_what_it_can_and_repairs_up_when_a_device_appears() {
    // Only one store for k = 2: the swap-out proceeds under-replicated
    // (durability degraded, not refused) and the auditor warns (D7).
    let (mut mw, _root, devices) = k_world(1, 2, true);
    mw.swap_out(2).unwrap();
    assert_eq!(
        holders(&mw, 2).1,
        devices,
        "one copy is all the room allows"
    );
    let report = mw.audit();
    assert!(!report.has_errors(), "under-replication is a warning");
    assert!(
        report
            .warnings()
            .any(|v| v.rule == obiwan_core::Rule::UnderReplicated),
        "D7 fires while under-replicated:\n{report}"
    );
    // A second device joins the room; the device-discovered policy tops
    // the placement back up to k on the next pump.
    {
        let net = mw.net();
        let mut net = net.lock().unwrap();
        let newcomer = net.add_device("latecomer", DeviceKind::Laptop, 1 << 20);
        net.connect(mw.home_device(), newcomer, LinkSpec::bluetooth())
            .unwrap();
    }
    mw.pump().unwrap();
    assert_eq!(holders(&mw, 2).1.len(), 2, "repair used the newcomer");
    let report = mw.audit();
    assert!(
        !report
            .warnings()
            .any(|v| v.rule == obiwan_core::Rule::UnderReplicated),
        "D7 clears once k holders exist:\n{report}"
    );
}

#[test]
fn placement_strategies_rank_holders_differently() {
    // A near laptop with little space vs. a big desktop two hops away:
    // link-cost-aware stays near, spread-by-free-storage goes where the
    // space is.
    let build = |kind: PlacementKind| {
        let mut server = Server::new(standard_classes());
        let head = server.build_list("Node", 40, 16).unwrap();
        let mut mw = Middleware::builder()
            .cluster_size(10)
            .device_memory(1 << 20)
            .no_builtin_policies()
            .placement(kind)
            .swap_config(SwapConfig::default().allow_relays(true).placement(kind))
            .stores(vec![StoreSpec::new(
                "near-laptop",
                DeviceKind::Laptop,
                64 << 10,
            )])
            .build(server);
        let (laptop, desktop) = {
            let net = mw.net();
            let mut net = net.lock().unwrap();
            let laptop = net.nearby(mw.home_device())[0];
            let mote = net.add_device("mote", DeviceKind::Mote, 0);
            let desktop = net.add_device("far-desktop", DeviceKind::Desktop, 1 << 20);
            net.connect(mw.home_device(), mote, LinkSpec::mote_radio())
                .unwrap();
            net.connect(mote, desktop, LinkSpec::wifi()).unwrap();
            (laptop, desktop)
        };
        let root = mw.replicate_root(head).unwrap();
        mw.set_global("head", Value::Ref(root));
        mw.invoke_i64(root, "length", vec![]).unwrap();
        mw.swap_out(2).unwrap();
        let (_, held) = holders(&mw, 2);
        (held[0], laptop, desktop)
    };
    let (primary, laptop, _) = build(PlacementKind::LinkCostAware);
    assert_eq!(
        primary, laptop,
        "link-cost-aware keeps the blob one hop out"
    );
    let (primary, _, desktop) = build(PlacementKind::SpreadByFreeStorage);
    assert_eq!(primary, desktop, "spread chases the emptiest store");
}

#[test]
fn single_copy_default_behaves_exactly_like_the_paper() {
    // replication_factor = 1 (the default): one holder, one copy, and the
    // wire carries exactly one blob's bytes — the paper's semantics.
    let (mut mw, root, _devices) = k_world(2, 1, false);
    let shipped = mw.swap_out(2).unwrap();
    let (key, held) = holders(&mw, 2);
    assert_eq!(held.len(), 1);
    {
        let net = mw.net();
        let net = net.lock().unwrap();
        let copies = net
            .device_ids()
            .into_iter()
            .filter(|&d| net.holds_blob(d, &key))
            .count();
        assert_eq!(copies, 1, "exactly one copy in the room");
        assert_eq!(net.traffic().0, shipped as u64, "single-copy wire bytes");
    }
    assert_eq!(mw.swap_stats().bytes_swapped_out, shipped as u64);
    mw.swap_in(2).unwrap();
    assert_eq!(mw.invoke_i64(root, "length", vec![]).unwrap(), 40);
}
