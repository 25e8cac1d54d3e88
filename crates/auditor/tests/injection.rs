//! Violation-injection tests: corrupt a live graph through the public
//! middleware API and assert the auditor pinpoints each rule class.
//!
//! Every test starts from a clean, audited world, injects exactly one
//! class of corruption, and asserts (a) the expected rule fires and (b)
//! for error-severity rules the report flips `has_errors()`.

// Tests assert on known-good setups; panicking on failure is the point.
#![allow(clippy::disallowed_methods)]

use obiwan_auditor::{Rule, Severity};
use obiwan_core::{Middleware, StoreSpec, SwapClusterState, SwapConfig};
use obiwan_heap::{ObjRef, ObjectKind, Value};
use obiwan_net::DeviceKind;
use obiwan_replication::{standard_classes, Server};

/// A middleware over an `n`-node list with `per_cluster` objects per
/// cluster and a heap big enough to hold everything (no surprise
/// evictions), fully replicated by a warm-up traversal.
fn warm_middleware(n: usize, per_cluster: usize) -> (Middleware, ObjRef) {
    let mut server = Server::new(standard_classes());
    let head = server.build_list("Node", n, 16).expect("build list");
    let mut mw = Middleware::builder()
        .cluster_size(per_cluster)
        .device_memory(1 << 20)
        .no_builtin_policies()
        .build(server);
    let root = mw.replicate_root(head).expect("replicate root");
    mw.set_global("head", Value::Ref(root));
    mw.invoke_i64(root, "length", vec![]).expect("warm-up");
    assert!(
        !mw.audit().has_errors(),
        "baseline must be clean:\n{}",
        mw.audit()
    );
    (mw, root)
}

/// Like [`warm_middleware`], but with `stores` explicit storage devices
/// in the room and `k`-way blob placement.
fn warm_k_middleware(stores: usize, k: usize) -> (Middleware, ObjRef) {
    let mut server = Server::new(standard_classes());
    let head = server.build_list("Node", 40, 16).expect("build list");
    let mut mw = Middleware::builder()
        .cluster_size(10)
        .device_memory(1 << 20)
        .no_builtin_policies()
        .stores(
            (0..stores)
                .map(|i| StoreSpec::new(format!("store-{i}"), DeviceKind::Laptop, 1 << 20))
                .collect(),
        )
        .swap_config(SwapConfig::default().replication_factor(k))
        .build(server);
    let root = mw.replicate_root(head).expect("replicate root");
    mw.set_global("head", Value::Ref(root));
    mw.invoke_i64(root, "length", vec![]).expect("warm-up");
    assert!(
        !mw.audit().has_errors(),
        "baseline must be clean:\n{}",
        mw.audit()
    );
    (mw, root)
}

/// The active `(key, holders)` of a swapped-out cluster.
fn holders_of(mw: &Middleware, sc: u32) -> (String, Vec<obiwan_net::DeviceId>) {
    let manager = mw.manager();
    let (_, key, holders) = manager.holders_of(sc).expect("cluster is swapped out");
    (key, holders)
}

/// The live member handles of swap-cluster `sc`.
fn members_of(mw: &Middleware, sc: u32) -> Vec<ObjRef> {
    mw.manager()
        .cluster(sc)
        .expect("cluster exists")
        .members
        .iter()
        .map(|&(_, r)| r)
        .collect()
}

/// Ids of the rules the report flags.
fn fired(mw: &Middleware) -> Vec<&'static str> {
    mw.audit().violations.iter().map(|v| v.rule.id()).collect()
}

/// Live *edge* proxies (source ≠ 0) with their source clusters, sorted by
/// handle. Source-0 proxies (roots, cursors) are created unindexed by
/// design, so reuse-table rules would not fire for them.
fn edge_proxies(mw: &Middleware) -> Vec<(ObjRef, u32)> {
    let p = mw.process();
    let sp_source = p.universe().middleware.sp_source;
    let mut found: Vec<(ObjRef, u32)> = p
        .heap()
        .iter_live()
        .filter(|&r| {
            p.heap()
                .get(r)
                .map(|o| o.kind() == ObjectKind::SwapProxy)
                .unwrap_or(false)
        })
        .map(|r| {
            let src = p.heap().field(r, sp_source).expect("source field");
            (r, src.expect_int().expect("int") as u32)
        })
        .filter(|&(_, src)| src != 0)
        .collect();
    found.sort();
    found
}

/// One live edge proxy and its source cluster.
fn find_proxy(mw: &Middleware) -> (ObjRef, u32) {
    edge_proxies(mw)
        .first()
        .copied()
        .expect("no live edge proxy in the warmed world")
}

#[test]
fn b1_direct_cross_cluster_reference_is_detected() {
    let (mut mw, _root) = warm_middleware(40, 10);
    let in_sc1 = members_of(&mw, 1)[0];
    let in_sc2 = members_of(&mw, 2)[0];
    // Smuggle a raw cross-cluster edge past the transfer interception.
    mw.process_mut()
        .heap_mut()
        .set_any_field(in_sc1, 0, Value::Ref(in_sc2))
        .expect("set field");
    let report = mw.audit();
    assert!(report.has_errors());
    assert!(fired(&mw).contains(&"B1"), "got {:?}", fired(&mw));
}

#[test]
fn b2_proxy_source_mismatch_is_detected() {
    let (mut mw, _root) = warm_middleware(40, 10);
    let (proxy, src) = find_proxy(&mw);
    let sp_source = mw.process().universe().middleware.sp_source;
    mw.process_mut()
        .heap_mut()
        .set_field(proxy, sp_source, Value::Int(i64::from(src) + 17))
        .expect("flip source");
    // The holder's cluster no longer matches the proxy's source (B2), and
    // the reuse table resolves to a proxy disagreeing with its key (B5).
    let ids = fired(&mw);
    assert!(mw.audit().has_errors());
    assert!(ids.contains(&"B2"), "got {ids:?}");
    assert!(ids.contains(&"B5"), "got {ids:?}");
}

#[test]
fn b3_bad_proxy_target_is_detected() {
    let (mut mw, _root) = warm_middleware(40, 10);
    let (proxy, _) = find_proxy(&mw);
    let sp_target = mw.process().universe().middleware.sp_target;
    // A proxy must never target another proxy.
    mw.process_mut()
        .heap_mut()
        .set_field(proxy, sp_target, Value::Ref(proxy))
        .expect("retarget");
    assert!(mw.audit().has_errors());
    assert!(fired(&mw).contains(&"B3"), "got {:?}", fired(&mw));
}

#[test]
fn b4_duplicate_proxy_pair_is_detected() {
    let (mut mw, _root) = warm_middleware(60, 10);
    // Two distinct indexed proxies exist in a warmed multi-cluster list
    // (one per boundary). Rewrite the second to carry the first's
    // (source, oid) pair: transfer rule ii now has two proxies for one
    // pair.
    let proxies = edge_proxies(&mw);
    assert!(
        proxies.len() >= 2,
        "need two edge proxies, got {}",
        proxies.len()
    );
    let (a, b) = (proxies[0].0, proxies[1].0);
    let p = mw.process();
    let mwc = p.universe().middleware;
    let src_a = p.heap().field(a, mwc.sp_source).expect("src").clone();
    let oid_a = p.heap().field(a, mwc.sp_oid).expect("oid").clone();
    let heap = mw.process_mut().heap_mut();
    heap.set_field(b, mwc.sp_source, src_a)
        .expect("clone source");
    heap.set_field(b, mwc.sp_oid, oid_a).expect("clone oid");
    let ids = fired(&mw);
    assert!(mw.audit().has_errors());
    assert!(ids.contains(&"B4"), "got {ids:?}");
    // The rewritten proxy also disagrees with its own table key.
    assert!(ids.contains(&"B5"), "got {ids:?}");
}

#[test]
fn d1_unpatched_inbound_proxy_is_detected() {
    let (mut mw, _root) = warm_middleware(40, 10);
    // A global at a member (legal, warning W1) keeps it on the heap after
    // the detach; point an inbound proxy back at it, undoing the patch.
    let victim_member = members_of(&mw, 2)[0];
    mw.set_global("held", Value::Ref(victim_member));
    mw.swap_out(2).expect("swap out sc2");
    let p = mw.process();
    let mwc = p.universe().middleware;
    let inbound = p
        .heap()
        .iter_live()
        .find(|&r| {
            let Ok(obj) = p.heap().get(r) else {
                return false;
            };
            obj.kind() == ObjectKind::SwapProxy
                && p.heap()
                    .field(r, mwc.sp_target)
                    .ok()
                    .and_then(Value::as_ref_value)
                    .and_then(|t| p.heap().get(t).ok())
                    .map(|t| t.kind() == ObjectKind::Replacement)
                    .unwrap_or(false)
        })
        .expect("an inbound proxy targets the replacement");
    mw.process_mut()
        .heap_mut()
        .set_field(inbound, mwc.sp_target, Value::Ref(victim_member))
        .expect("unpatch");
    assert!(mw.audit().has_errors());
    assert!(fired(&mw).contains(&"D1"), "got {:?}", fired(&mw));
}

#[test]
fn d2_corrupted_replacement_is_detected() {
    let (mut mw, _root) = warm_middleware(40, 10);
    mw.swap_out(2).expect("swap out sc2");
    let replacement = match mw.manager().cluster(2).expect("entry").state {
        SwapClusterState::SwappedOut { replacement } => replacement,
        ref other => panic!("expected swapped-out, got {other:?}"),
    };
    // Retag the replacement-object as belonging to another cluster.
    mw.process_mut()
        .heap_mut()
        .header_mut(replacement)
        .expect("live replacement")
        .swap_cluster = 9;
    assert!(mw.audit().has_errors());
    assert!(fired(&mw).contains(&"D2"), "got {:?}", fired(&mw));
}

#[test]
fn d3_replacement_outbound_mismatch_is_detected() {
    let (mut mw, _root) = warm_middleware(40, 10);
    mw.swap_out(2).expect("swap out sc2");
    let replacement = match mw.manager().cluster(2).expect("entry").state {
        SwapClusterState::SwappedOut { replacement } => replacement,
        ref other => panic!("expected swapped-out, got {other:?}"),
    };
    // Overwrite one of the replacement's outbound proxies with a
    // non-proxy reference.
    let extras = mw
        .process()
        .heap()
        .extra_fields(replacement)
        .map(<[_]>::len);
    assert!(
        extras.expect("live replacement") > 0,
        "sc2 has no outbound proxy"
    );
    let stray = members_of(&mw, 1)[0];
    mw.process_mut()
        .heap_mut()
        .set_any_field(replacement, 0, Value::Ref(stray))
        .expect("overwrite an extra");
    assert!(mw.audit().has_errors());
    assert!(fired(&mw).contains(&"D3"), "got {:?}", fired(&mw));
}

#[test]
fn d4_missing_blob_is_detected() {
    let (mut mw, _root) = warm_middleware(40, 10);
    mw.swap_out(2).expect("swap out sc2");
    let (key, holders) = holders_of(&mw, 2);
    let device = holders[0];
    let home = mw.home_device();
    mw.net()
        .lock()
        .expect("net")
        .drop_blob(home, device, &key)
        .expect("drop blob behind the manager's back");
    assert!(mw.audit().has_errors());
    assert!(fired(&mw).contains(&"D4"), "got {:?}", fired(&mw));
}

#[test]
fn d5_departed_store_is_a_warning_not_an_error() {
    let (mut mw, _root) = warm_middleware(40, 10);
    mw.swap_out(2).expect("swap out sc2");
    let device = holders_of(&mw, 2).1[0];
    mw.net()
        .lock()
        .expect("net")
        .depart(device)
        .expect("depart");
    let report = mw.audit();
    assert!(
        !report.has_errors(),
        "a departed device is a legal (if unfortunate) state:\n{report}"
    );
    let d5 = report
        .warnings()
        .find(|v| v.rule == Rule::StoreUnreachable)
        .expect("D5 warning present");
    assert_eq!(d5.severity(), Severity::Warning);
    assert_eq!(d5.swap_cluster, Some(2));
}

#[test]
fn d7_lost_holder_is_a_warning_not_an_error() {
    let (mut mw, _root) = warm_k_middleware(2, 2);
    mw.swap_out(2).expect("swap out sc2");
    let (_, held) = holders_of(&mw, 2);
    assert_eq!(held.len(), 2, "two copies placed");
    mw.net()
        .lock()
        .expect("net")
        .depart(held[0])
        .expect("depart");
    let report = mw.audit();
    assert!(
        !report.has_errors(),
        "one copy still reachable — degraded, not lost:\n{report}"
    );
    let d7 = report
        .warnings()
        .find(|v| v.rule == Rule::UnderReplicated)
        .expect("D7 warning present");
    assert_eq!(d7.severity(), Severity::Warning);
    assert_eq!(d7.swap_cluster, Some(2));
}

#[test]
fn d8_all_holders_blobless_is_an_error() {
    let (mut mw, _root) = warm_k_middleware(3, 2);
    mw.swap_out(2).expect("swap out sc2");
    let (key, held) = holders_of(&mw, 2);
    let home = mw.home_device();
    // Every holder is still in the room, but each lost its copy behind
    // the manager's back: no reload can ever succeed.
    {
        let net = mw.net();
        let mut net = net.lock().expect("net");
        for &device in &held {
            net.drop_blob(home, device, &key)
                .expect("drop blob behind the manager's back");
        }
    }
    let report = mw.audit();
    assert!(report.has_errors());
    assert!(fired(&mw).contains(&"D8"), "got {:?}", fired(&mw));
}

#[test]
fn g1_orphan_blob_is_a_warning() {
    let (mw, _root) = warm_middleware(20, 10);
    let home = mw.home_device();
    {
        let net = mw.net();
        let mut net = net.lock().expect("net");
        let laptop = net.nearby(home)[0];
        // A blob keyed like ours that no swapped-out cluster backs.
        net.send_blob(
            home,
            laptop,
            &format!("dev{}-sc99-e0", home.index()),
            "<x/>".into(),
        )
        .expect("plant orphan");
    }
    let report = mw.audit();
    assert!(!report.has_errors(), "orphans are tolerated:\n{report}");
    assert!(
        report.warnings().any(|v| v.rule == Rule::OrphanBlob),
        "G1 expected:\n{report}"
    );
    // Another PDA's blob on the shared store is not ours to flag.
    {
        let net = mw.net();
        let mut net = net.lock().expect("net");
        let laptop = net.nearby(home)[0];
        net.send_blob(home, laptop, "dev42-sc1-e0", "<y/>".into())
            .expect("foreign blob");
    }
    assert_eq!(mw.audit().warnings().count(), 1, "foreign keys are ignored");
}

#[test]
fn l1_member_record_mismatch_is_detected() {
    let (mut mw, _root) = warm_middleware(40, 10);
    let member = members_of(&mw, 1)[0];
    // Retag a live member: the loaded cluster's roster now disagrees.
    mw.process_mut()
        .heap_mut()
        .header_mut(member)
        .expect("live member")
        .swap_cluster = 3;
    assert!(mw.audit().has_errors());
    assert!(fired(&mw).contains(&"L1"), "got {:?}", fired(&mw));
}

#[test]
fn w1_unmediated_global_is_a_warning() {
    let (mut mw, _root) = warm_middleware(40, 10);
    let member = members_of(&mw, 2)[0];
    mw.set_global("leak", Value::Ref(member));
    let report = mw.audit();
    assert!(
        !report.has_errors(),
        "set_global with a raw handle is legal:\n{report}"
    );
    let w1 = report
        .warnings()
        .find(|v| v.rule == Rule::UnmediatedGlobal)
        .expect("W1 warning present");
    assert_eq!(w1.path, vec![0, 2]);
}

#[test]
fn audit_trace_replay_stays_clean() {
    use obiwan_auditor::scenario::{replay, TraceConfig};
    let outcome = replay(&TraceConfig {
        nodes: 120,
        steps: 150,
        device_memory: 20 * 1024,
        ..TraceConfig::default()
    })
    .expect("replay");
    assert!(
        !outcome.has_errors(),
        "replay must be violation-free:\n{}",
        outcome.final_report
    );
    assert!(outcome.swap_outs > 0, "the trace must exercise swapping");
    assert!(outcome.swap_ins > 0, "the trace must exercise reloads");
}

#[test]
fn audit_trace_churn_replay_stays_clean() {
    use obiwan_auditor::scenario::{replay, TraceConfig, CHURN_PERIOD};
    let steps = 6 * CHURN_PERIOD;
    let outcome = replay(&TraceConfig {
        nodes: 120,
        steps,
        device_memory: 20 * 1024,
        replication_factor: 2,
        churn: true,
        ..TraceConfig::default()
    })
    .expect("churn replay");
    assert!(
        !outcome.has_errors(),
        "scripted churn under k = 2 must never corrupt the graph:\n{}",
        outcome.final_report
    );
    assert!(outcome.swap_outs > 0, "the trace must exercise swapping");
    assert!(outcome.swap_ins > 0, "the trace must exercise reloads");
}

#[test]
fn report_renders_counts_and_rule_ids() {
    let (mut mw, _root) = warm_middleware(40, 10);
    let in_sc1 = members_of(&mw, 1)[0];
    let in_sc2 = members_of(&mw, 2)[0];
    mw.process_mut()
        .heap_mut()
        .set_any_field(in_sc1, 0, Value::Ref(in_sc2))
        .expect("set field");
    let text = mw.audit().render();
    assert!(text.contains("error(s)"), "{text}");
    assert!(text.contains("[B1/error]"), "{text}");
    assert!(text.contains("sc1"), "{text}");
}
