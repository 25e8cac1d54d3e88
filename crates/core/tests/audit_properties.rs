//! Property-based audit: under arbitrary interleavings of traversals,
//! explicit swap-outs, reloads, victim evictions and collections, the
//! whole-graph auditor finds zero error-severity violations after *every*
//! operation — the machinery never leaves the graph in a corrupt
//! intermediate state, not even transiently between public API calls.
//!
//! Half the worlds reach their stores only through storageless relay
//! motes, one of which departs and arrives between operations; at the
//! end, with every device present, one orphan sweep leaves no copy on any
//! store that the placement table does not list.

#![allow(clippy::disallowed_methods)]

use obiwan_core::{Middleware, SwapConfig, SwapError};
use obiwan_heap::Value;
use obiwan_net::{DeviceId, DeviceKind, LinkSpec};
use obiwan_replication::{standard_classes, Server};
use proptest::prelude::*;
use std::collections::HashSet;

#[derive(Debug, Clone)]
enum Op {
    Walk(usize),
    SwapOut(u32),
    SwapIn(u32),
    SwapOutVictim,
    Gc,
    Sweep,
    /// The first relay mote leaves (no-op in a world without one).
    Depart,
    /// The first relay mote returns.
    Arrive,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (1usize..30).prop_map(Op::Walk),
        2 => (1u32..=10).prop_map(Op::SwapOut),
        2 => (1u32..=10).prop_map(Op::SwapIn),
        2 => Just(Op::SwapOutVictim),
        1 => Just(Op::Gc),
        1 => Just(Op::Sweep),
        1 => Just(Op::Depart),
        1 => Just(Op::Arrive),
    ]
}

/// Add two storageless motes next to the home device, each with a
/// desktop behind it: every store is two hops away, and with k = 2 each
/// blob has one copy behind each mote. Returns the first mote.
fn add_relayed_stores(mw: &Middleware) -> DeviceId {
    let net = mw.net();
    let mut net = net.lock().expect("net");
    let motes: Vec<DeviceId> = (0..2)
        .map(|i| {
            let mote = net.add_device(format!("mote-{i}"), DeviceKind::Mote, 0);
            let desk = net.add_device(format!("desk-{i}"), DeviceKind::Desktop, 1 << 20);
            net.connect(mw.home_device(), mote, LinkSpec::mote_radio())
                .expect("link");
            net.connect(mote, desk, LinkSpec::wifi()).expect("link");
            mote
        })
        .collect();
    motes[0]
}

/// Advance a swap-cluster-0 cursor `steps` hops (wrapping at the end),
/// reloading swapped clusters transparently. Each hop is re-mediated
/// through `make_cursor` so the parked global survives swap-outs of the
/// cluster it points into (a raw handle would dangle — the W1 hazard).
fn walk(mw: &mut Middleware, steps: usize) -> Result<(), SwapError> {
    for _ in 0..steps {
        let cur = mw
            .global("cursor")
            .expect("cursor global")
            .expect_ref()
            .expect("ref");
        match mw.invoke_resilient(cur, "next", vec![], 200)? {
            Value::Ref(next) => {
                let cursor = mw.make_cursor(next)?;
                mw.set_global("cursor", Value::Ref(cursor));
            }
            _ => {
                let root = mw
                    .global("head")
                    .expect("head global")
                    .expect_ref()
                    .expect("ref");
                mw.set_global("cursor", Value::Ref(root));
            }
        }
    }
    Ok(())
}

fn assert_no_errors(mw: &Middleware, after: &str) {
    let report = mw.audit();
    assert!(
        !report.has_errors(),
        "graph invariants violated after {after}:\n{report}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn audit_is_error_free_after_every_operation(
        ops in proptest::collection::vec(arb_op(), 1..32),
        payload in 4usize..32,
        // Small heaps add organic memory-pressure evictions to the
        // scripted ones.
        memory_kb in 16usize..64,
        relayed in any::<bool>(),
    ) {
        const N: usize = 90;
        let mut server = Server::new(standard_classes());
        let head = server.build_list("Node", N, payload).expect("build");
        let mut builder = Middleware::builder()
            .cluster_size(10)
            .device_memory(memory_kb << 10);
        if relayed {
            builder = builder
                .stores(vec![])
                .swap_config(SwapConfig::default().allow_relays(true).replication_factor(2));
        }
        let mut mw = builder.build(server);
        let mote = relayed.then(|| add_relayed_stores(&mw));
        let root = mw.replicate_root(head).expect("replicate");
        mw.set_global("head", Value::Ref(root));
        mw.set_global("cursor", Value::Ref(root));
        assert_no_errors(&mw, "setup");

        let mut away = false;
        for op in ops {
            // With a mote away a copy may be out of reach, so a swap may
            // fail; it must still leave the graph sound.
            let check = |r: Result<(), SwapError>, what: &str| match r {
                Err(e) if !away => panic!("{what}: {e}"),
                _ => {}
            };
            match &op {
                Op::Walk(steps) => check(walk(&mut mw, *steps), "walk"),
                Op::SwapOut(sc) => match mw.swap_out(*sc) {
                    Ok(_)
                    | Err(SwapError::BadState { .. })
                    | Err(SwapError::UnknownSwapCluster { .. })
                    | Err(SwapError::NothingToSwap { .. }) => {}
                    Err(e) => check(Err(e), &format!("swap_out({sc})")),
                },
                Op::SwapIn(sc) => match mw.swap_in(*sc) {
                    Ok(_)
                    | Err(SwapError::BadState { .. })
                    | Err(SwapError::UnknownSwapCluster { .. })
                    | Err(SwapError::DataLost { .. }) => {}
                    Err(e) => check(Err(e), &format!("swap_in({sc})")),
                },
                Op::SwapOutVictim => check(mw.swap_out_victim().map(drop), "victim eviction"),
                Op::Gc => {
                    mw.run_gc().expect("gc");
                }
                Op::Sweep => {
                    mw.manager().sweep_orphaned_blobs();
                }
                Op::Depart | Op::Arrive => {
                    if let Some(mote) = mote {
                        away = matches!(op, Op::Depart);
                        let net = mw.net();
                        let mut net = net.lock().expect("net");
                        if away { net.depart(mote) } else { net.arrive(mote) }.expect("churn");
                    }
                }
            }
            assert_no_errors(&mw, &format!("{op:?}"));
        }

        // Every device present: one sweep reclaims every tracked orphan,
        // and each copy left on a store is one a placement lists.
        if let Some(mote) = mote {
            mw.net().lock().expect("net").arrive(mote).expect("arrive");
        }
        mw.manager().sweep_orphaned_blobs();
        assert_no_errors(&mw, "final sweep");
        let listed: HashSet<(DeviceId, String)> = mw
            .manager()
            .placements()
            .iter()
            .flat_map(|(_, _, p)| p.holders.iter().map(|&d| (d, p.key.clone())).collect::<Vec<_>>())
            .collect();
        let net = mw.net();
        let net = net.lock().expect("net");
        for device in net.device_ids() {
            for key in net.blob_keys(device) {
                prop_assert!(
                    !key.starts_with("dev0-") || listed.contains(&(device, key.clone())),
                    "`{key}` on {device:?} is in no placement after the final sweep"
                );
            }
        }
    }
}
