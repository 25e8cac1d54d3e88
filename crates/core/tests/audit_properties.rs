//! Property-based audit: under arbitrary interleavings of traversals,
//! explicit swap-outs, reloads, victim evictions and collections, the
//! whole-graph auditor finds zero error-severity violations after *every*
//! operation — the machinery never leaves the graph in a corrupt
//! intermediate state, not even transiently between public API calls.

#![allow(clippy::disallowed_methods)]

use obiwan_core::{Middleware, SwapError};
use obiwan_heap::Value;
use obiwan_replication::{standard_classes, Server};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Walk(usize),
    SwapOut(u32),
    SwapIn(u32),
    SwapOutVictim,
    Gc,
    Sweep,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (1usize..30).prop_map(Op::Walk),
        2 => (1u32..=10).prop_map(Op::SwapOut),
        2 => (1u32..=10).prop_map(Op::SwapIn),
        2 => Just(Op::SwapOutVictim),
        1 => Just(Op::Gc),
        1 => Just(Op::Sweep),
    ]
}

/// Advance a swap-cluster-0 cursor `steps` hops (wrapping at the end),
/// reloading swapped clusters transparently. Each hop is re-mediated
/// through `make_cursor` so the parked global survives swap-outs of the
/// cluster it points into (a raw handle would dangle — the W1 hazard).
fn walk(mw: &mut Middleware, steps: usize) {
    for _ in 0..steps {
        let cur = mw
            .global("cursor")
            .expect("cursor global")
            .expect_ref()
            .expect("ref");
        match mw.invoke_resilient(cur, "next", vec![], 200).expect("step") {
            Value::Ref(next) => {
                let cursor = mw.make_cursor(next).expect("cursor");
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
    ) {
        const N: usize = 90;
        let mut server = Server::new(standard_classes());
        let head = server.build_list("Node", N, payload).expect("build");
        let mut mw = Middleware::builder()
            .cluster_size(10)
            .device_memory(memory_kb << 10)
            .build(server);
        let root = mw.replicate_root(head).expect("replicate");
        mw.set_global("head", Value::Ref(root));
        mw.set_global("cursor", Value::Ref(root));
        assert_no_errors(&mw, "setup");

        for op in ops {
            match &op {
                Op::Walk(steps) => walk(&mut mw, *steps),
                Op::SwapOut(sc) => match mw.swap_out(*sc) {
                    Ok(_)
                    | Err(SwapError::BadState { .. })
                    | Err(SwapError::UnknownSwapCluster { .. })
                    | Err(SwapError::NothingToSwap { .. }) => {}
                    Err(e) => panic!("swap_out({sc}): {e}"),
                },
                Op::SwapIn(sc) => match mw.swap_in(*sc) {
                    Ok(_)
                    | Err(SwapError::BadState { .. })
                    | Err(SwapError::UnknownSwapCluster { .. })
                    | Err(SwapError::DataLost { .. }) => {}
                    Err(e) => panic!("swap_in({sc}): {e}"),
                },
                Op::SwapOutVictim => {
                    mw.swap_out_victim().expect("victim eviction");
                }
                Op::Gc => {
                    mw.run_gc().expect("gc");
                }
                Op::Sweep => {
                    mw.manager().sweep_orphaned_blobs();
                }
            }
            assert_no_errors(&mw, &format!("{op:?}"));
        }
    }
}
