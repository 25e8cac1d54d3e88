//! Out-of-memory recovery (`Middleware::invoke_resilient`): the batch of
//! victims it evicts, what that batch costs in collections, paged walks
//! that recover audit-clean, the victim a root still holds, and the debug
//! check behind freeing each victim's members at commit.

#![allow(clippy::disallowed_methods)] // tests may panic on impossible states

use obiwan_core::{Middleware, Rule};
use obiwan_heap::{Collection, ObjRef, ObjectKind, Value};
use obiwan_policy::Watermarks;
use obiwan_replication::{standard_classes, Server};
use obiwan_trace::EventKind;

/// Hops per page of the paged walk.
const PAGE: usize = 100;

/// A list of `nodes` nodes replicated onto a PDA with `memory` bytes; no
/// builtin policies, so every eviction is an out-of-memory recovery.
fn list_world(nodes: usize, cluster: usize, memory: usize) -> Middleware {
    let mut server = Server::new(standard_classes());
    let head = server.build_list("Node", nodes, 48).unwrap();
    let mut mw = Middleware::builder()
        .cluster_size(cluster)
        .device_memory(memory)
        .watermarks(Watermarks::new(60, 90))
        .no_builtin_policies()
        .build(server);
    let root = mw.replicate_root(head).unwrap();
    mw.set_global("p0", Value::Ref(root));
    mw
}

fn cursor(mw: &Middleware) -> ObjRef {
    mw.global("cursor").unwrap().expect_ref().unwrap()
}

/// The swap-clusters detached so far, in trace order.
fn detached(mw: &Middleware) -> Vec<u32> {
    mw.manager()
        .export_trace()
        .events
        .iter()
        .filter_map(|r| match r.kind {
            EventKind::DetachEnd { sc, .. } => Some(sc),
            _ => None,
        })
        .collect()
}

/// `gc-run` events recorded so far.
fn gc_run_events(mw: &Middleware) -> usize {
    mw.manager()
        .export_trace()
        .events
        .iter()
        .filter(|r| matches!(r.kind, EventKind::GcRun { .. }))
        .count()
}

/// One hop through the `next` chain the way the middleware recovered
/// before victims were batched: collect, evict one victim at a time until
/// occupancy is at the low watermark, retry. The collection is a minor
/// one, as the recovery's is, and skips the finalizers, which change no
/// heap state that the comparison reads. The old recipe collected again
/// after its evictions; now that each swap-out frees its members, that
/// collection would only age the young generation a second time.
fn step_with_per_victim_recovery(mw: &mut Middleware, low_pct: usize) -> Value {
    let cur = cursor(mw);
    mw.process_mut().heap_mut().add_root(cur);
    let out = loop {
        match mw.invoke(cur, "next", vec![]) {
            Ok(v) => break v,
            Err(e) if e.is_out_of_memory() => {
                mw.process_mut().collect(Collection::Minor);
                let floor = mw.process().heap().capacity() / 100 * low_pct;
                let mut evicted_any = false;
                while !(evicted_any && mw.process().heap().bytes_used() <= floor) {
                    match mw.swap_out_victim().unwrap() {
                        Some(_) => evicted_any = true,
                        None => break,
                    }
                }
                assert!(evicted_any, "the walk must stay recoverable");
            }
            Err(e) => panic!("step: {e}"),
        }
    };
    mw.process_mut().heap_mut().remove_root(cur);
    out
}

#[test]
fn a_recovery_evicts_the_per_victim_recipes_victims_behind_one_collection() {
    let mut batched = list_world(600, 10, 24 << 10);
    let mut per_victim = list_world(600, 10, 24 << 10);
    for mw in [&mut batched, &mut per_victim] {
        let head = mw.global("p0").unwrap();
        mw.set_global("cursor", head);
    }
    let mut checked = 0;
    for step in 0..599 {
        let gc_before = batched.stats().heap;
        let gc_events_before = gc_run_events(&batched);
        let swaps_before = batched.swap_stats().swap_outs;
        let next = batched
            .invoke_resilient(cursor(&batched), "next", vec![], 100)
            .unwrap();
        let twin = step_with_per_victim_recovery(&mut per_victim, 60);
        batched.set_global("cursor", next);
        per_victim.set_global("cursor", twin);

        assert_eq!(
            detached(&batched),
            detached(&per_victim),
            "step {step}: same victims in the same order"
        );
        assert_eq!(
            batched.process().heap().bytes_used(),
            per_victim.process().heap().bytes_used(),
            "step {step}: same occupancy after the recovery"
        );
        let victims = batched.swap_stats().swap_outs - swaps_before;
        if victims > 0 {
            let heap = batched.stats().heap;
            assert_eq!(
                (
                    heap.gc_runs - gc_before.gc_runs,
                    heap.minor_gc_runs - gc_before.minor_gc_runs
                ),
                (1, 1),
                "step {step}: a recovery of {victims} victims runs one minor collection"
            );
            assert_eq!(
                gc_run_events(&batched) - gc_events_before,
                1,
                "step {step}: one gc-run event per recovery"
            );
        }
        if victims >= 3 {
            checked += 1;
        }
    }
    assert!(checked > 0, "no recovery evicted three victims");
    assert_eq!(
        per_victim.stats().heap.gc_runs,
        batched.stats().heap.gc_runs,
        "one collection per recovery on both sides"
    );
}

/// The page heads of a fresh world, one global every [`PAGE`] nodes.
fn mark_pages(mw: &mut Middleware, nodes: usize) {
    let head = mw.global("p0").unwrap();
    mw.set_global("cursor", head);
    for node in 1..nodes {
        let next = mw
            .invoke_resilient(cursor(mw), "next", vec![], 1_000)
            .unwrap();
        if node % PAGE == 0 {
            mw.set_global(format!("p{}", node / PAGE), next.clone());
        }
        mw.set_global("cursor", next);
    }
    mw.run_gc().unwrap();
}

/// Walk `pages` seeded pages of up to [`PAGE`] hops; returns the most
/// victims a single hop evicted. The graph audit must stay error-free
/// after every page.
fn paged_walk(mw: &mut Middleware, nodes: usize, seed: u64, pages: usize) -> u64 {
    let heads = nodes.div_ceil(PAGE) as u64;
    let mut state = seed;
    let mut worst = 0;
    for _ in 0..pages {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let page = (z ^ (z >> 31)) % heads;
        let head = mw.global(&format!("p{page}")).unwrap();
        mw.set_global("cursor", head);
        for _ in 0..PAGE {
            let before = mw.swap_stats().swap_outs;
            let next = mw
                .invoke_resilient(cursor(mw), "next", vec![], 1_000)
                .unwrap();
            worst = worst.max(mw.swap_stats().swap_outs - before);
            if !matches!(next, Value::Ref(_)) {
                break;
            }
            mw.set_global("cursor", next);
        }
        let report = mw.audit();
        assert!(!report.has_errors(), "page {page} (seed {seed}):\n{report}");
    }
    worst
}

#[test]
fn paged_walks_recover_audit_clean_at_cluster_sizes_20_and_50() {
    const NODES: usize = 1_500;
    const SEED: u64 = 3;
    let memory = NODES * 48 * 2 / 5 + (16 << 10);
    for cluster in [20, 50] {
        let mut mw = list_world(NODES, cluster, memory);
        mark_pages(&mut mw, NODES);
        let worst = paged_walk(&mut mw, NODES, SEED, 12);
        assert!(worst > 0, "cluster {cluster}: no hop ran a recovery");
    }
}

#[test]
fn a_batch_frees_each_victims_members_before_the_next_detach() {
    const NODES: usize = 200;
    let mut probe = list_world(NODES, 20, 1 << 20);
    let mut mw = list_world(NODES, 20, 1 << 20);
    for w in [&mut probe, &mut mw] {
        let root = w.global("p0").unwrap().expect_ref().unwrap();
        assert_eq!(w.invoke_i64(root, "length", vec![]).unwrap(), NODES as i64);
        w.run_gc().unwrap();
    }
    // The twin probe measures what the first two victims' replacement-
    // objects add: a global at each victim's first member keeps the
    // members on the heap.
    let mut grew = Vec::new();
    for pin in 0..2 {
        let victim = probe.manager().pick_victim().unwrap();
        let (_, member) = probe.manager().cluster(victim).unwrap().members[0];
        probe.set_global(format!("pin{pin}"), Value::Ref(member));
        let before = probe.process().heap().bytes_used();
        probe.swap_out_victim().unwrap().unwrap();
        grew.push(probe.process().heap().bytes_used() - before);
    }
    // Room for the first replacement but not the second while the first
    // victim's members stay on the heap: the second replacement fits only
    // because those members were freed when the first detach committed.
    let used = mw.process().heap().bytes_used();
    mw.process_mut()
        .heap_mut()
        .set_capacity(used + grew[0] + grew[1] - 1);
    let loaded = mw.manager().loaded_clusters().len();
    let gc_before = mw.stats().heap.gc_runs;
    let evicted = mw
        .manager()
        .swap_out_victims_to(mw.process_mut(), 0)
        .unwrap();
    assert_eq!(evicted, loaded, "a zero floor evicts every loaded cluster");
    assert!(mw.manager().loaded_clusters().is_empty());
    assert_eq!(mw.stats().heap.gc_runs - gc_before, 0, "no collection");
    let events = mw.manager().export_trace().events;
    assert!(
        !events
            .iter()
            .any(|r| matches!(r.kind, EventKind::DetachAbort { .. })),
        "no detach ran out of memory"
    );

    mw.process_mut().heap_mut().set_capacity(1 << 20);
    let report = mw.audit();
    assert!(!report.has_errors(), "{report}");
    let root = mw.global("p0").unwrap().expect_ref().unwrap();
    let len = mw.invoke_resilient(root, "length", vec![], 100).unwrap();
    assert_eq!(len, Value::Int(NODES as i64));
}

/// A global set straight at a member of the next victim (legal, audit
/// warning W1) keeps that member, and what it reaches, alive: the batch
/// leaves the whole victim to a collection instead of freeing it.
#[test]
fn a_victim_that_a_global_still_holds_is_left_to_the_collector() {
    const NODES: usize = 200;
    let mut mw = list_world(NODES, 20, 1 << 20);
    let root = mw.global("p0").unwrap().expect_ref().unwrap();
    assert_eq!(mw.invoke_i64(root, "length", vec![]).unwrap(), NODES as i64);
    mw.run_gc().unwrap();
    let manager = mw.manager();
    let victim = manager.pick_victim().unwrap();
    let (_, member) = manager.cluster(victim).unwrap().members[0];
    mw.set_global("leak", Value::Ref(member));
    let loaded = manager.loaded_clusters().len();
    let gc_before = mw.stats().heap.gc_runs;
    let evicted = manager.swap_out_victims_to(mw.process_mut(), 0).unwrap();
    assert_eq!(evicted, loaded, "a zero floor evicts every loaded cluster");
    assert_eq!(
        mw.stats().heap.gc_runs - gc_before,
        1,
        "only the held victim is collected"
    );

    let heap = mw.process().heap();
    assert_eq!(mw.global("leak").unwrap(), Value::Ref(member));
    let Value::Ref(next) = *heap.field_by_name(member, "next").unwrap() else {
        panic!("the first member links to the next");
    };
    assert!(heap.is_live(next), "what the held member reaches stays");
    let report = mw.audit();
    assert!(!report.has_errors(), "{report}");
    let warnings: Vec<Rule> = report.warnings().map(|v| v.rule).collect();
    assert_eq!(warnings, vec![Rule::UnmediatedGlobal], "{report}");
    let len = mw.invoke_resilient(root, "length", vec![], 100).unwrap();
    assert_eq!(len, Value::Int(NODES as i64));
}

/// The debug shadow mark behind the direct free: a field planted straight
/// at a member of the next victim, bypassing the swap-cluster-proxy rule
/// (audit error B1), keeps that member reachable after its detach commits
/// although no root holds it.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "free_detached: slot")]
fn a_field_that_bypasses_the_proxy_rule_trips_the_debug_check() {
    let mut mw = list_world(200, 20, 1 << 20);
    let root = mw.global("p0").unwrap().expect_ref().unwrap();
    assert_eq!(mw.invoke_i64(root, "length", vec![]).unwrap(), 200);
    mw.run_gc().unwrap();
    let manager = mw.manager();
    let victim = manager.pick_victim().unwrap();
    let (_, member) = manager.cluster(victim).unwrap().members[0];
    let heap = mw.process_mut().heap_mut();
    let node = heap.get(member).unwrap().class();
    let holder = heap.alloc(node, ObjectKind::App).unwrap();
    heap.set_field_by_name(holder, "next", Value::Ref(member))
        .unwrap();
    mw.set_global("holder", Value::Ref(holder));
    let _ = manager.swap_out_victims_to(mw.process_mut(), 0);
}
