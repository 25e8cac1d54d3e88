//! The paper's §7 scenario end-to-end: storage reached through *relays* —
//! "small memory-enabled devices with wireless connectivity, scattered
//! all-over, that are available to any user (either to store data or to
//! relay communications)".

use obiwan::prelude::*;

/// A PDA with no direct storage: its only neighbour is a storageless mote
/// that relays to a desktop two hops away.
fn relay_world() -> (Middleware, ObjRef, DeviceId, DeviceId) {
    let mut server = Server::new(standard_classes());
    let head = server.build_list("Node", 60, 8).expect("build");
    let mut mw = Middleware::builder()
        .cluster_size(20)
        .device_memory(1 << 20)
        .no_builtin_policies()
        .swap_config(SwapConfig::default().allow_relays(true))
        .stores(vec![]) // no direct storage at all
        .build(server);
    let (relay, desktop) = {
        let net = mw.net();
        let mut net = net.lock().expect("net");
        let relay = net.add_device("hall-mote", DeviceKind::Mote, 0); // relays only
        let desktop = net.add_device("office-desktop", DeviceKind::Desktop, 1 << 20);
        net.connect(mw.home_device(), relay, LinkSpec::mote_radio())
            .expect("link 1");
        net.connect(relay, desktop, LinkSpec::wifi())
            .expect("link 2");
        (relay, desktop)
    };
    let root = mw.replicate_root(head).expect("replicate");
    mw.set_global("head", Value::Ref(root));
    mw.invoke_i64(root, "length", vec![]).expect("warm");
    (mw, root, relay, desktop)
}

#[test]
fn swap_out_reaches_storage_through_a_relay() {
    let (mut mw, root, relay, desktop) = relay_world();
    let shipped = mw.swap_out(2).expect("relayed swap-out");
    assert!(shipped > 0);
    let net = mw.net();
    {
        let net = net.lock().expect("net");
        // The store charges key bytes on top of the payload.
        assert_eq!(
            net.stored_bytes(desktop).expect("desktop"),
            shipped + "dev0-sc2-e0".len(),
            "the blob lives on the two-hop desktop"
        );
        assert_eq!(
            net.stored_bytes(relay).expect("relay"),
            0,
            "the relay forwards, it does not store"
        );
        // The relay hops were traced.
        assert!(net
            .trace()
            .iter()
            .any(|e| matches!(&e.kind, obiwan::net::TraceKind::BlobRelayed { .. })));
    }
    // Reload works through the same route.
    assert_eq!(mw.invoke_i64(root, "length", vec![]).unwrap(), 60);
    assert_eq!(mw.swap_stats().swap_ins, 1);
}

#[test]
fn relayed_transfer_pays_every_hops_airtime() {
    let (mut mw, _root, _relay, _desktop) = relay_world();
    let net = mw.net();
    let t0 = net.lock().expect("net").now();
    let shipped = mw.swap_out(1).expect("swap");
    let elapsed = net.lock().expect("net").now() - t0;
    let expected = LinkSpec::mote_radio().transfer_time(shipped).as_micros()
        + LinkSpec::wifi().transfer_time(shipped).as_micros();
    assert_eq!(elapsed.as_micros(), expected, "both hops were paid for");
}

#[test]
fn departed_relay_means_blob_unavailable_until_it_returns() {
    let (mut mw, root, relay, desktop) = relay_world();
    mw.swap_out(2).expect("swap");
    mw.net().lock().expect("net").depart(relay).expect("depart");
    // The blob still exists on the desktop, but no route reaches it: that
    // is *transient* unavailability, not data loss — the error names the
    // holder that was tried so the caller can wait for it.
    let err = mw.swap_in(2).expect_err("no route");
    match err {
        SwapError::BlobUnavailable {
            swap_cluster: 2,
            ref tried,
            ..
        } => assert_eq!(tried.as_slice(), &[desktop]),
        other => panic!("expected BlobUnavailable for sc2, got {other:?}"),
    }
    // The relay wanders back: the data is reachable again.
    mw.net().lock().expect("net").arrive(relay).expect("arrive");
    mw.swap_in(2).expect("reload through restored route");
    assert_eq!(mw.invoke_i64(root, "length", vec![]).unwrap(), 60);
}

/// Two storage desktops, each behind its own relay, with
/// `replication_factor = 2`. Returns the warmed middleware, the list root
/// and `(relay_a, desk_a)`, the route to the primary holder.
fn two_relay_world() -> (Middleware, ObjRef, DeviceId, DeviceId) {
    let mut server = Server::new(standard_classes());
    let head = server.build_list("Node", 60, 8).expect("build");
    let mut mw = Middleware::builder()
        .cluster_size(20)
        .device_memory(1 << 20)
        .no_builtin_policies()
        .swap_config(
            SwapConfig::default()
                .allow_relays(true)
                .replication_factor(2),
        )
        .stores(vec![]) // storage only through the relays
        .build(server);
    let (relay_a, desk_a, desk_b) = {
        let net = mw.net();
        let mut net = net.lock().expect("net");
        let relay_a = net.add_device("mote-a", DeviceKind::Mote, 0);
        let relay_b = net.add_device("mote-b", DeviceKind::Mote, 0);
        let desk_a = net.add_device("desk-a", DeviceKind::Desktop, 1 << 20);
        let desk_b = net.add_device("desk-b", DeviceKind::Desktop, 1 << 20);
        net.connect(mw.home_device(), relay_a, LinkSpec::mote_radio())
            .expect("link");
        net.connect(mw.home_device(), relay_b, LinkSpec::mote_radio())
            .expect("link");
        net.connect(relay_a, desk_a, LinkSpec::wifi())
            .expect("link");
        net.connect(relay_b, desk_b, LinkSpec::wifi())
            .expect("link");
        (relay_a, desk_a, desk_b)
    };
    let root = mw.replicate_root(head).expect("replicate");
    mw.set_global("head", Value::Ref(root));
    mw.invoke_i64(root, "length", vec![]).expect("warm");
    mw.swap_out(2).expect("swap");
    {
        let net = mw.net();
        let net = net.lock().expect("net");
        assert!(
            net.stored_bytes(desk_a).expect("a") > 0 && net.stored_bytes(desk_b).expect("b") > 0,
            "both desktops hold a copy"
        );
    }
    (mw, root, relay_a, desk_a)
}

/// Losing one relay between swap-out and reload must fail over to the
/// holder on the surviving route — no panic, no opaque `NetError`.
#[test]
fn reload_fails_over_to_the_holder_on_the_surviving_route() {
    let (mut mw, root, relay_a, _desk_a) = two_relay_world();
    // The relay in front of the primary holder walks away.
    mw.net()
        .lock()
        .expect("net")
        .depart(relay_a)
        .expect("depart");
    mw.swap_in(2).expect("failover reload via the other relay");
    assert_eq!(mw.invoke_i64(root, "length", vec![]).unwrap(), 60);
    let stats = mw.swap_stats();
    assert_eq!(stats.swap_ins, 1);
    assert_eq!(
        stats.reload_failovers, 1,
        "the reload had to skip the unreachable primary"
    );
}

/// The copy a failover reload could not drop (its relay was away) is a
/// tracked orphan; once the relay is back, the sweep reaches the holder
/// through it and reclaims the copy.
#[test]
fn the_orphan_sweep_reaches_a_holder_behind_a_relay() {
    let (mut mw, _root, relay_a, desk_a) = two_relay_world();
    mw.net()
        .lock()
        .expect("net")
        .depart(relay_a)
        .expect("depart");
    mw.swap_in(2).expect("failover reload via the other relay");
    assert!(mw.net().lock().expect("net").stored_bytes(desk_a).unwrap() > 0);
    mw.net()
        .lock()
        .expect("net")
        .arrive(relay_a)
        .expect("arrive");
    assert_eq!(mw.manager().sweep_orphaned_blobs(), 1, "one orphan swept");
    assert_eq!(
        mw.net().lock().expect("net").stored_bytes(desk_a).unwrap(),
        0,
        "the drop crossed the relay"
    );
    assert!(!mw.audit().has_errors());
}

#[test]
fn gc_drop_instructions_travel_the_relay_route() {
    let (mut mw, root, _relay, desktop) = relay_world();
    // Reach node 19 (cluster 1's last node) and sever after it, so
    // cluster 2 becomes garbage after we swap it out.
    let mut cur = root;
    for _ in 0..19 {
        cur = mw.invoke_ref(cur, "next", vec![]).expect("walk");
    }
    mw.set_global("cut", Value::Ref(cur));
    mw.swap_out(2).expect("swap");
    let cut = mw.global("cut").unwrap().expect_ref().unwrap();
    let handle = match obiwan::core::identity_key(mw.process(), cut).expect("key") {
        obiwan::core::IdentityKey::Oid(oid) => {
            mw.process().lookup_replica(oid).expect("node 19 loaded")
        }
        obiwan::core::IdentityKey::Handle(h) => h,
    };
    mw.process_mut()
        .set_field_value(handle, "next", Value::Null)
        .expect("sever");
    mw.run_gc().expect("gc 1");
    mw.run_gc().expect("gc 2");
    let net = mw.net();
    assert_eq!(
        net.lock().expect("net").stored_bytes(desktop).unwrap(),
        0,
        "the drop instruction crossed the relay"
    );
    assert!(mw.swap_stats().blobs_dropped >= 1);
}
