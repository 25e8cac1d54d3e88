//! Out-of-memory recovery (`Middleware::invoke_resilient`): the batch of
//! victims it evicts, what that batch costs in collections, and how it
//! behaves when swap-outs do not collect on their own.

#![allow(clippy::disallowed_methods)] // tests may panic on impossible states

use obiwan_core::{Middleware, SwapConfig};
use obiwan_heap::{ObjRef, Value};
use obiwan_policy::Watermarks;
use obiwan_replication::{standard_classes, Server};
use obiwan_trace::EventKind;

/// Hops per page of the paged walk.
const PAGE: usize = 100;

/// A list of `nodes` nodes replicated onto a PDA with `memory` bytes; no
/// builtin policies, so every eviction is an out-of-memory recovery.
fn list_world(nodes: usize, cluster: usize, memory: usize, config: SwapConfig) -> Middleware {
    let mut server = Server::new(standard_classes());
    let head = server.build_list("Node", nodes, 48).unwrap();
    let mut mw = Middleware::builder()
        .cluster_size(cluster)
        .device_memory(memory)
        .watermarks(Watermarks::new(60, 90))
        .no_builtin_policies()
        .swap_config(config)
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

/// One hop through the `next` chain the way the middleware recovered
/// before victims were batched: collect, evict one victim at a time
/// (each swap-out collecting after itself) until occupancy is at the low
/// watermark, collect again, retry.
fn step_with_per_victim_recovery(mw: &mut Middleware, low_pct: usize) -> Value {
    let cur = cursor(mw);
    mw.process_mut().heap_mut().add_root(cur);
    let out = loop {
        match mw.invoke(cur, "next", vec![]) {
            Ok(v) => break v,
            Err(e) if e.is_out_of_memory() => {
                mw.run_gc().unwrap();
                let floor = mw.process().heap().capacity() / 100 * low_pct;
                let mut evicted_any = false;
                while !(evicted_any && mw.process().heap().bytes_used() <= floor) {
                    match mw.swap_out_victim().unwrap() {
                        Some(_) => evicted_any = true,
                        None => break,
                    }
                }
                mw.run_gc().unwrap();
                assert!(evicted_any, "the walk must stay recoverable");
            }
            Err(e) => panic!("step: {e}"),
        }
    };
    mw.process_mut().heap_mut().remove_root(cur);
    out
}

#[test]
fn a_recovery_evicts_the_per_victim_recipes_victims_behind_two_collections() {
    let config = SwapConfig::default();
    let mut batched = list_world(600, 10, 24 << 10, config);
    let mut per_victim = list_world(600, 10, 24 << 10, config);
    for mw in [&mut batched, &mut per_victim] {
        let head = mw.global("p0").unwrap();
        mw.set_global("cursor", head);
    }
    let mut checked = 0;
    for step in 0..599 {
        let gc_before = batched.stats().heap.gc_runs;
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
            assert_eq!(
                batched.stats().heap.gc_runs - gc_before,
                2,
                "step {step}: a recovery of {victims} victims collects twice"
            );
        }
        if victims >= 3 {
            checked += 1;
        }
    }
    assert!(checked > 0, "no recovery evicted three victims");
    assert!(
        per_victim.stats().heap.gc_runs > batched.stats().heap.gc_runs,
        "the per-victim recipe collects after every swap-out"
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
fn recovery_without_per_swap_out_collection_evicts_no_more_than_with_it() {
    const NODES: usize = 1_500;
    const SEED: u64 = 3;
    let memory = NODES * 48 * 2 / 5 + (16 << 10);
    for cluster in [20, 50] {
        let mut worst = [0; 2];
        for (i, collect) in [true, false].into_iter().enumerate() {
            let config = SwapConfig::default().collect_after_swap_out(collect);
            let mut mw = list_world(NODES, cluster, memory, config);
            mark_pages(&mut mw, NODES);
            worst[i] = paged_walk(&mut mw, NODES, SEED, 12);
        }
        assert!(
            worst[1] <= worst[0],
            "cluster {cluster}: without per-swap-out collection a hop evicted {} \
             victims, with it {}",
            worst[1],
            worst[0]
        );
    }
}

#[test]
fn a_batch_that_runs_out_of_memory_collects_its_victims_and_carries_on() {
    const NODES: usize = 200;
    let config = SwapConfig::default().collect_after_swap_out(false);
    let mut probe = list_world(NODES, 20, 1 << 20, config);
    let mut mw = list_world(NODES, 20, 1 << 20, config);
    for w in [&mut probe, &mut mw] {
        let root = w.global("p0").unwrap().expect_ref().unwrap();
        assert_eq!(w.invoke_i64(root, "length", vec![]).unwrap(), NODES as i64);
        w.run_gc().unwrap();
    }
    // The twin probe measures what the first two victims' replacement-
    // objects add while their members stay uncollected.
    let mut grew = Vec::new();
    for _ in 0..2 {
        let before = probe.process().heap().bytes_used();
        probe.swap_out_victim().unwrap().unwrap();
        grew.push(probe.process().heap().bytes_used() - before);
    }
    // Room for the first replacement but not the second: the second
    // detach fails until the first victim's members are collected.
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
    assert_eq!(
        mw.stats().heap.gc_runs - gc_before,
        1,
        "one fallback collection"
    );

    let events = mw.manager().export_trace().events;
    let aborted: Vec<u32> = events
        .iter()
        .filter_map(|r| match r.kind {
            EventKind::DetachAbort { sc } => Some(sc),
            _ => None,
        })
        .collect();
    assert_eq!(
        aborted,
        vec![detached(&mw)[1]],
        "the second victim, retried"
    );

    mw.process_mut().heap_mut().set_capacity(1 << 20);
    mw.run_gc().unwrap();
    let report = mw.audit();
    assert!(!report.has_errors(), "{report}");
    let root = mw.global("p0").unwrap().expect_ref().unwrap();
    let len = mw.invoke_resilient(root, "length", vec![], 100).unwrap();
    assert_eq!(len, Value::Int(NODES as i64));
}
