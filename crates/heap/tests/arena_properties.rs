//! Property battery for the slab arena: random alloc/free/realloc/GC
//! interleavings never panic, free-list reuse never aliases a live
//! handle, and stale (generation-mismatched) handles always come back as
//! a structured [`HeapError::InvalidRef`] — never a wrong object.

// Tests assert on known-good setups; panicking on failure is the point.
#![allow(clippy::disallowed_methods)]

use bytes::Bytes;
use obiwan_heap::{
    ClassBuilder, ClassId, ClassRegistry, Heap, HeapError, ObjRef, Object, ObjectKind, Value,
};
use proptest::prelude::*;
use std::collections::HashSet;

fn registry() -> (ClassRegistry, ClassId, ClassId) {
    let mut reg = ClassRegistry::new();
    // 3 fields: lives in the inline field store.
    let node = reg.register(
        ClassBuilder::new("Node")
            .ref_field("next")
            .int_field("n")
            .bytes_field("payload"),
    );
    // 6 fields: forces the spilled field store.
    let wide = reg.register(
        ClassBuilder::new("Wide")
            .int_field("f0")
            .int_field("f1")
            .int_field("f2")
            .int_field("f3")
            .int_field("f4")
            .bytes_field("blob"),
    );
    (reg, node, wide)
}

#[derive(Debug, Clone)]
enum Op {
    /// Allocate (inline store) and root it.
    Alloc,
    /// Allocate a wide object (spilled store) and root it.
    AllocWide,
    /// Build a detached object with a payload and adopt it.
    Adopt { payload: usize },
    /// Adopt with a field count that mismatches the layout: must be a
    /// structured error and leave the arena untouched.
    AdoptBad { count: usize },
    /// Unroot one live object and collect — frees exactly that slot and
    /// retires its handle to the stale set (a realloc may reuse the slot).
    Free { at: usize },
    /// Collect with everything rooted: must free nothing.
    Gc,
    /// Probe every stale handle through the whole accessor surface.
    ProbeStale,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => Just(Op::Alloc),
        2 => Just(Op::AllocWide),
        2 => (0usize..128).prop_map(|payload| Op::Adopt { payload }),
        1 => (0usize..8).prop_map(|count| Op::AdoptBad { count }),
        4 => any::<prop::sample::Index>().prop_map(|i| Op::Free { at: i.index(usize::MAX - 1) }),
        1 => Just(Op::Gc),
        2 => Just(Op::ProbeStale),
    ]
}

/// Every way a stale handle can be presented must yield `InvalidRef` (or
/// `None` for the infallible probes) — and never a live object's data.
fn assert_stale(heap: &mut Heap, s: ObjRef) {
    assert!(matches!(heap.get(s), Err(HeapError::InvalidRef { .. })));
    assert!(matches!(
        heap.header_mut(s),
        Err(HeapError::InvalidRef { .. })
    ));
    assert!(matches!(
        heap.set_any_field(s, 0, Value::Null),
        Err(HeapError::InvalidRef { .. })
    ));
    assert!(matches!(
        heap.set_any_field(s, 2, Value::Bytes(Bytes::from_static(b"x"))),
        Err(HeapError::InvalidRef { .. })
    ));
    assert!(matches!(
        heap.weak_ref(s),
        Err(HeapError::InvalidRef { .. })
    ));
    assert!(!heap.is_live(s));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn arena_interleavings_never_panic_or_alias(ops in prop::collection::vec(arb_op(), 1..150)) {
        let (reg, node, wide) = registry();
        let mut heap = Heap::new(reg, 1 << 20);
        // All live handles are rooted, so frees are exactly the ones we ask
        // for; stale handles accumulate as slots get freed and reused.
        let mut live: Vec<ObjRef> = Vec::new();
        let mut stale: Vec<ObjRef> = Vec::new();

        for op in ops {
            match op {
                Op::Alloc => {
                    let r = heap.alloc(node, ObjectKind::App).unwrap();
                    heap.add_root(r);
                    live.push(r);
                }
                Op::AllocWide => {
                    let r = heap.alloc(wide, ObjectKind::App).unwrap();
                    heap.set_field_by_name(r, "f4", Value::Int(4)).unwrap();
                    prop_assert_eq!(heap.field_by_name(r, "f4").unwrap(), &Value::Int(4));
                    heap.add_root(r);
                    live.push(r);
                }
                Op::Adopt { payload } => {
                    let mut obj = Object::with_field_count(node, ObjectKind::App, 3);
                    prop_assert!(obj.set_raw_field(1, Value::Int(payload as i64)));
                    prop_assert!(obj.set_raw_field(
                        2,
                        Value::Bytes(Bytes::from(vec![7u8; payload]))
                    ));
                    let r = heap.adopt(obj).unwrap();
                    prop_assert_eq!(
                        heap.field_by_name(r, "payload").unwrap().payload_size(),
                        payload
                    );
                    heap.add_root(r);
                    live.push(r);
                }
                Op::AdoptBad { count } => {
                    let before = (heap.live_objects(), heap.bytes_used());
                    if count != 3 {
                        let out = heap.adopt(Object::with_field_count(node, ObjectKind::App, count));
                        prop_assert!(matches!(out, Err(HeapError::TypeMismatch { .. })));
                        prop_assert_eq!((heap.live_objects(), heap.bytes_used()), before);
                    }
                }
                Op::Free { at } if !live.is_empty() => {
                    let r = live.swap_remove(at % live.len());
                    heap.remove_root(r);
                    let freed = heap.collect().freed_objects;
                    prop_assert_eq!(freed, 1, "exactly the unrooted object dies");
                    prop_assert!(!heap.is_live(r));
                    stale.push(r);
                }
                Op::Gc => {
                    prop_assert_eq!(heap.collect().freed_objects, 0,
                        "everything is rooted — GC must free nothing");
                }
                Op::ProbeStale => {
                    for s in stale.clone() {
                        assert_stale(&mut heap, s);
                    }
                }
                _ => {}
            }
            // Free-list reuse must never hand out a handle equal to a stale
            // one: a reused slot carries a bumped generation.
            let stale_set: HashSet<ObjRef> = stale.iter().copied().collect();
            for r in &live {
                prop_assert!(!stale_set.contains(r), "live handle {r} aliases a stale one");
                prop_assert!(heap.is_live(*r));
            }
            prop_assert_eq!(heap.live_objects(), live.len());
        }

        // Terminal sweep: every stale handle is still structured-invalid.
        for s in stale.clone() {
            assert_stale(&mut heap, s);
        }
    }

    #[test]
    fn realloc_reuses_slots_without_resurrecting_handles(rounds in 1usize..30, batch in 1usize..20) {
        let (reg, node, _) = registry();
        let mut heap = Heap::new(reg, 1 << 20);
        let mut stale: Vec<ObjRef> = Vec::new();
        let mut high_water = 0u32;
        for round in 0..rounds {
            let fresh: Vec<ObjRef> = (0..batch)
                .map(|_| heap.alloc(node, ObjectKind::App).unwrap())
                .collect();
            high_water = high_water.max(fresh.iter().map(|r| r.index()).max().unwrap() + 1);
            if round > 0 {
                // The arena must recycle the previous batch's slots instead
                // of growing: indices stay under the first-round high water.
                for r in &fresh {
                    prop_assert!(r.index() < high_water, "slot {r} escaped the free list");
                }
            }
            for s in &stale {
                prop_assert!(heap.get(*s).is_err(), "stale {s} resurrected by realloc");
            }
            // Free the whole batch (nothing roots it).
            prop_assert_eq!(heap.collect().freed_objects, batch);
            stale.extend(fresh);
        }
        prop_assert_eq!(heap.live_objects(), 0);
        prop_assert_eq!(heap.bytes_used(), 0);
    }
}
