//! One reclaim path. Swap-outs that no `Middleware::run_gc` follows — an
//! explicit `swap_out`, a policy rule that evicts without `<gc/>` — free
//! their victims at commit without a collection and leave no finalization
//! record behind, and the one collection a root-held victim costs runs the
//! finalizers before the call returns. A detach refused for lack of room
//! for its replacement-object leaves no half-built one behind. An
//! out-of-memory recovery collects the nursery only, and falls back to one
//! full collection when that frees nothing and nothing is evictable. No
//! test here calls `run_gc`.

#![allow(clippy::disallowed_methods)] // tests may panic on impossible states

use obiwan_core::{Middleware, StoreSpec, SwapClusterState, SwapConfig, SwapError};

use obiwan_heap::{Collection, HeapError, HeapStats, ObjectKind, Oid, Value};
use obiwan_net::{Bytes, DeviceKind};
use obiwan_policy::Watermarks;
use obiwan_replication::{standard_classes, Server};
use obiwan_trace::EventKind;

/// Evicts one victim per replicated cluster and never collects.
const EVICT_WITHOUT_GC: &str = "<policies>\
    <policy id='evict-without-gc' category='machine'>\
    <on event='cluster-replicated'/>\
    <then><swap-out victims='1'/></then>\
    </policy></policies>";

/// A 200-node list in clusters of 20 with room to spare, its root proxy
/// in the global `head`; `policies` replaces the builtin rules when given.
fn list_world(policies: Option<&str>) -> Middleware {
    let mut server = Server::new(standard_classes());
    let head = server.build_list("Node", 200, 32).unwrap();
    let mut builder = Middleware::builder()
        .cluster_size(20)
        .device_memory(1 << 20)
        .no_builtin_policies();
    if let Some(xml) = policies {
        builder = builder.policies_xml(xml);
    }
    let mut mw = builder.build(server);
    let root = mw.replicate_root(head).unwrap();
    mw.set_global("head", Value::Ref(root));
    mw
}

/// Assert that the last call neither collected nor left a finalization
/// record behind.
fn assert_no_collection(mw: &mut Middleware, gc_before: u64, what: &str) {
    assert_eq!(
        mw.stats().heap.gc_runs,
        gc_before,
        "{what} ran a collection"
    );
    assert!(
        mw.process_mut().heap_mut().take_finalized().is_empty(),
        "{what} left finalization records behind"
    );
}

#[test]
fn swap_out_frees_its_victim_without_a_collection() {
    let mut mw = list_world(None);
    let root = mw.global("head").unwrap().expect_ref().unwrap();
    assert_eq!(mw.invoke_i64(root, "length", vec![]).unwrap(), 200);
    let clusters = mw.manager().loaded_clusters();
    assert_eq!(clusters.len(), 10);
    for sc in clusters {
        let members = mw.manager().cluster(sc).unwrap().members;
        let gc_before = mw.stats().heap.gc_runs;
        mw.swap_out(sc).unwrap();
        assert_no_collection(&mut mw, gc_before, &format!("swap_out({sc})"));
        let heap = mw.process().heap();
        assert!(
            members.iter().all(|&(_, r)| !heap.is_live(r)),
            "swap_out({sc}) left members on the heap"
        );
    }
    assert_eq!(mw.invoke_i64(root, "length", vec![]).unwrap(), 200);
    let report = mw.audit();
    assert!(report.is_clean(), "{report}");
}

#[test]
fn a_pump_rule_without_gc_evicts_without_a_collection() {
    let mut mw = list_world(Some(EVICT_WITHOUT_GC));
    let root = mw.global("head").unwrap().expect_ref().unwrap();
    // `replicate_root`'s pump has evicted the root's cluster already.
    assert_eq!(mw.swap_stats().swap_outs, 1);
    assert_no_collection(&mut mw, 0, "replicate_root");
    assert_eq!(mw.invoke_i64(root, "length", vec![]).unwrap(), 200);
    assert!(mw.swap_stats().swap_outs > 1, "the rule evicted nothing");
    assert_no_collection(&mut mw, 0, "length");
    let report = mw.audit();
    assert!(report.is_clean(), "{report}");
}

/// The swap-cluster whose members include identity `oid`.
fn cluster_of(mw: &Middleware, oid: Oid) -> u32 {
    let manager = mw.manager();
    manager
        .loaded_clusters()
        .into_iter()
        .find(|&sc| {
            manager
                .cluster(sc)
                .unwrap()
                .members
                .iter()
                .any(|&(o, _)| o == oid)
        })
        .unwrap()
}

#[test]
fn a_held_victims_collection_drops_dead_replacements_blobs_in_the_same_call() {
    let mut server = Server::new(standard_classes());
    let kept = server.build_list("Node", 60, 32).unwrap();
    let doomed = server.build_list("Node", 60, 32).unwrap();
    let mut mw = Middleware::builder()
        .cluster_size(20)
        .device_memory(1 << 20)
        .no_builtin_policies()
        .stores(
            (0..2)
                .map(|i| StoreSpec::new(format!("store-{i}"), DeviceKind::Laptop, 1 << 20))
                .collect(),
        )
        .swap_config(SwapConfig::default().replication_factor(2))
        .build(server);
    for (name, head) in [("kept", kept), ("doomed", doomed)] {
        let root = mw.replicate_root(head).unwrap();
        mw.set_global(name, Value::Ref(root));
        assert_eq!(mw.invoke_i64(root, "length", vec![]).unwrap(), 60);
    }

    // Swap out the doomed list's head cluster, then drop the list: its
    // replacement-object is garbage from here on.
    let dead = cluster_of(&mw, doomed);
    mw.swap_out(dead).unwrap();
    let (_, key, holders) = mw.manager().holders_of(dead).unwrap();
    assert_eq!(holders.len(), 2);
    mw.set_global("doomed", Value::Null);

    // A global straight at a member of the next victim (legal, warning
    // W1): its swap-out cannot free the members at commit and collects.
    let victim = cluster_of(&mw, kept);
    let (_, member) = mw.manager().cluster(victim).unwrap().members[0];
    mw.set_global("pin", Value::Ref(member));
    let gc_before = mw.stats().heap.gc_runs;
    mw.swap_out(victim).unwrap();

    assert_eq!(mw.stats().heap.gc_runs - gc_before, 1, "one reclaim");
    assert!(mw.process_mut().heap_mut().take_finalized().is_empty());
    {
        let net = mw.net();
        let net = net.lock().unwrap();
        for &holder in &holders {
            assert!(
                !net.holds_blob(holder, &key),
                "holder {holder:?} still stores {key}"
            );
        }
    }
    assert!(matches!(
        mw.manager().cluster(dead).unwrap().state,
        SwapClusterState::Dropped
    ));
    let drops = mw
        .export_trace()
        .events
        .iter()
        .filter(|r| matches!(r.kind, EventKind::BlobDropped { sc, .. } if sc == dead))
        .count();
    assert_eq!(drops, 2, "one drop per holder");
    let report = mw.audit();
    assert!(!report.has_errors(), "{report}");
}

#[test]
fn a_detach_refused_for_its_replacement_leaves_no_half_built_one() {
    let mut mw = list_world(None);
    let root = mw.global("head").unwrap().expect_ref().unwrap();
    assert_eq!(mw.invoke_i64(root, "length", vec![]).unwrap(), 200);
    // The head's cluster holds an outbound proxy to the next cluster, so
    // its replacement-object is a 24 B base plus at least one 16 B extra.
    let head = mw.process().heap().get(root).unwrap().header().oid;
    let sc = cluster_of(&mw, head);
    let used = mw.process().heap().bytes_used();
    let capacity = mw.process().heap().capacity();
    mw.process_mut().heap_mut().set_capacity(used + 24);
    let live = mw.process().heap().live_objects();

    let err = mw.swap_out(sc).unwrap_err();
    assert!(
        matches!(err, SwapError::Heap(HeapError::OutOfMemory { .. })),
        "expected the heap's out-of-memory error, got {err}"
    );
    assert_eq!(
        mw.process().heap().live_objects(),
        live,
        "a half-built replacement-object was left on the heap"
    );
    assert!(mw.manager().cluster(sc).unwrap().is_loaded());
    let events = mw.export_trace().events;
    assert!(events
        .iter()
        .any(|r| matches!(r.kind, EventKind::DetachAbort { sc: s } if s == sc)));
    let shipped = events
        .iter()
        .filter(|r| matches!(r.kind, EventKind::BlobShipped { sc: s, .. } if s == sc))
        .count();
    assert!(shipped > 0);
    let report = mw.audit();
    assert!(report.is_clean(), "{report}");
    assert_eq!(
        mw.manager().sweep_orphaned_blobs(),
        shipped,
        "every shipped copy is a tracked orphan"
    );

    // With room again the same cluster swaps out whole.
    mw.process_mut().heap_mut().set_capacity(capacity);
    mw.swap_out(sc).unwrap();
    let report = mw.audit();
    assert!(report.is_clean(), "{report}");
}

/// `(full, minor)` collections between two heap snapshots.
fn collections(before: HeapStats, after: HeapStats) -> (u64, u64) {
    let minor = after.minor_gc_runs - before.minor_gc_runs;
    (after.gc_runs - before.gc_runs - minor, minor)
}

#[test]
fn a_recovery_collects_the_nursery_and_no_more() {
    let mut server = Server::new(standard_classes());
    let head = server.build_list("Node", 600, 48).unwrap();
    let mut mw = Middleware::builder()
        .cluster_size(10)
        .device_memory(24 << 10)
        .watermarks(Watermarks::new(60, 90))
        .no_builtin_policies()
        .build(server);
    let mut cursor = mw.replicate_root(head).unwrap();
    mw.set_global("cursor", Value::Ref(cursor));
    let mut recoveries = 0;
    for _ in 1..600 {
        let (heap_before, swaps_before) = (mw.stats().heap, mw.swap_stats().swap_outs);
        let next = mw
            .invoke_resilient(cursor, "next", vec![], 100)
            .unwrap()
            .expect_ref()
            .unwrap();
        mw.set_global("cursor", Value::Ref(next));
        cursor = next;
        let (full, minor) = collections(heap_before, mw.stats().heap);
        assert_eq!(full, 0, "a recovery ran a full collection");
        if mw.swap_stats().swap_outs > swaps_before {
            assert!(minor >= 1, "a recovery evicted without collecting");
        }
        recoveries += minor;
    }
    assert!(recoveries > 3, "only {recoveries} recoveries");
    let report = mw.audit();
    assert!(!report.has_errors(), "{report}");
}

#[test]
fn old_garbage_is_freed_by_the_backstop_when_nothing_is_evictable() {
    let mut mw = list_world(None);
    let root = mw.global("head").unwrap().expect_ref().unwrap();
    assert_eq!(mw.invoke_i64(root, "length", vec![]).unwrap(), 200);
    for sc in mw.manager().loaded_clusters() {
        mw.swap_out(sc).unwrap();
    }
    // 64 KiB of junk that survives a full collection and then dies: old
    // garbage, which only a full collection frees.
    let node = mw.process().universe().registry.class_id("Node").unwrap();
    let heap = mw.process_mut().heap_mut();
    for i in 0..8 {
        let junk = heap.alloc(node, ObjectKind::App).unwrap();
        heap.set_field_by_name(
            junk,
            "payload",
            Value::Bytes(Bytes::from(vec![0u8; 8 << 10])),
        )
        .unwrap();
        heap.set_global(format!("junk{i}"), Value::Ref(junk));
    }
    mw.process_mut().collect(Collection::Full);
    for i in 0..8 {
        mw.process_mut()
            .heap_mut()
            .remove_global(&format!("junk{i}"));
    }
    // No room to reload the head's cluster until the junk is gone, and no
    // loaded cluster to evict.
    let used = mw.process().heap().bytes_used();
    mw.process_mut().heap_mut().set_capacity(used + 64);
    assert!(mw.manager().loaded_clusters().is_empty());

    let before = mw.stats().heap;
    assert_eq!(
        mw.invoke_resilient(root, "length", vec![], 10).unwrap(),
        Value::Int(200)
    );
    let after = mw.stats().heap;
    let (full, minor) = collections(before, after);
    assert!(minor >= 1, "the recovery starts with a minor collection");
    assert!(full >= 1, "the backstop ran a full collection");
    assert!(
        after.total_frees - before.total_frees >= 8,
        "the junk is freed"
    );
    let report = mw.audit();
    assert!(!report.has_errors(), "{report}");
}
