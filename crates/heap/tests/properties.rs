//! Property-based tests for heap invariants: accounting never drifts,
//! a refused store or adoption changes nothing, generational handles never
//! alias, GC is precise with respect to the reachable set computed
//! independently, and a minor collection never frees what a full mark
//! reaches.

// Tests assert on known-good setups; panicking on failure is the point.
#![allow(clippy::disallowed_methods)]

use bytes::Bytes;
use obiwan_heap::{
    ClassBuilder, ClassRegistry, Heap, HeapError, HeapStats, ObjRef, Object, ObjectKind, Result,
    Value,
};
use proptest::prelude::*;
use std::collections::HashSet;

fn registry() -> (ClassRegistry, obiwan_heap::ClassId, obiwan_heap::ClassId) {
    let mut reg = ClassRegistry::new();
    let node = reg.register(
        ClassBuilder::new("Node")
            .ref_field("a")
            .ref_field("b")
            .bytes_field("payload"),
    );
    let array = reg.register(ClassBuilder::new("Array").variadic().bytes_field("blob"));
    (reg, node, array)
}

#[derive(Debug, Clone)]
enum Op {
    Alloc,
    AllocArray,
    LinkAToB {
        from: usize,
        to: usize,
    },
    Unlink {
        from: usize,
    },
    SetPayload {
        at: usize,
        len: usize,
    },
    SetAnyPayload {
        at: usize,
        len: usize,
    },
    SetScalar {
        at: usize,
        v: i64,
    },
    AdoptArray {
        to: usize,
        extras: usize,
        len: usize,
    },
    RootToggle {
        at: usize,
    },
    SetGlobal {
        name: usize,
        at: Option<usize>,
    },
    FreeDetached {
        at: usize,
    },
    Collect,
    CollectMinor,
    CollectMinorThenFull,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => Just(Op::Alloc),
        1 => Just(Op::AllocArray),
        3 => (any::<prop::sample::Index>(), any::<prop::sample::Index>())
            .prop_map(|(a, b)| Op::LinkAToB { from: a.index(usize::MAX - 1), to: b.index(usize::MAX - 1) }),
        1 => any::<prop::sample::Index>().prop_map(|i| Op::Unlink { from: i.index(usize::MAX - 1) }),
        2 => (any::<prop::sample::Index>(), 0usize..200)
            .prop_map(|(i, len)| Op::SetPayload { at: i.index(usize::MAX - 1), len }),
        1 => (any::<prop::sample::Index>(), 0usize..200)
            .prop_map(|(i, len)| Op::SetAnyPayload { at: i.index(usize::MAX - 1), len }),
        1 => (any::<prop::sample::Index>(), any::<i64>())
            .prop_map(|(i, v)| Op::SetScalar { at: i.index(usize::MAX - 1), v }),
        1 => (any::<prop::sample::Index>(), 0usize..6, 0usize..64)
            .prop_map(|(b, extras, len)| Op::AdoptArray { to: b.index(usize::MAX - 1), extras, len }),
        2 => any::<prop::sample::Index>().prop_map(|i| Op::RootToggle { at: i.index(usize::MAX - 1) }),
        2 => (0usize..3, any::<bool>(), any::<prop::sample::Index>())
            .prop_map(|(name, set, i)| Op::SetGlobal { name, at: set.then(|| i.index(usize::MAX - 1)) }),
        1 => any::<prop::sample::Index>().prop_map(|i| Op::FreeDetached { at: i.index(usize::MAX - 1) }),
        1 => Just(Op::Collect),
        4 => Just(Op::CollectMinor),
        1 => Just(Op::CollectMinorThenFull),
    ]
}

/// Recompute bytes_used from scratch by walking live objects.
fn recomputed_bytes(heap: &Heap) -> usize {
    heap.iter_live().map(|r| heap.get(r).unwrap().size()).sum()
}

/// Independently compute the set of slot indices reachable from globals.
fn reachable(heap: &Heap, roots: &[ObjRef]) -> HashSet<u32> {
    let mut seen = HashSet::new();
    let mut stack: Vec<ObjRef> = roots.to_vec();
    for (_, v) in heap.globals() {
        if let Value::Ref(r) = v {
            stack.push(*r);
        }
    }
    while let Some(r) = stack.pop() {
        if !heap.is_live(r) || !seen.insert(r.index()) {
            continue;
        }
        for v in heap.get(r).unwrap().fields() {
            if let Value::Ref(n) = v {
                stack.push(*n);
            }
        }
    }
    seen
}

/// The capacity no op sequence here can fill.
const ROOMY: usize = 1 << 20;

/// Check a store's outcome: a success, or an out-of-memory refusal (never
/// at [`ROOMY`]) that left the accounting and the written field as they
/// were.
fn check_store(
    heap: &Heap,
    before: HeapStats,
    (obj, index, old): (ObjRef, usize, Value),
    out: Result<()>,
) -> std::result::Result<(), TestCaseError> {
    match out {
        Ok(()) => {}
        Err(HeapError::OutOfMemory { .. }) if before.capacity < ROOMY => {
            prop_assert_eq!(heap.stats(), before, "a refused store changed the heap");
            prop_assert_eq!(&heap.get(obj).unwrap().fields()[index], &old);
        }
        Err(e) => return Err(TestCaseError::fail(format!("unexpected store error {e}"))),
    }
    Ok(())
}

/// Check an adoption's outcome: the new handle, or `None` after an
/// out-of-memory refusal (never at [`ROOMY`]) that left the heap as it was.
fn check_adopt(
    heap: &Heap,
    before: HeapStats,
    out: Result<ObjRef>,
) -> std::result::Result<Option<ObjRef>, TestCaseError> {
    match out {
        Ok(r) => Ok(Some(r)),
        Err(HeapError::OutOfMemory { .. }) if before.capacity < ROOMY => {
            prop_assert_eq!(heap.stats(), before, "a refused adoption changed the heap");
            prop_assert_eq!(heap.iter_live().count(), before.live_objects);
            Ok(None)
        }
        Err(e) => Err(TestCaseError::fail(format!(
            "unexpected adoption error {e}"
        ))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn accounting_and_gc_invariants(
        capacity in prop_oneof![Just(512usize), Just(ROOMY)],
        ops in prop::collection::vec(arb_op(), 1..120),
    ) {
        let (reg, node, array) = registry();
        let mut heap = Heap::new(reg, capacity);
        // Handles we've allocated, live or not; rooted subset tracked in parallel.
        let mut handles: Vec<ObjRef> = Vec::new();
        let mut rooted: Vec<ObjRef> = Vec::new();

        for op in ops {
            let before = heap.stats();
            // The object an op writes, if live, with the field's old value.
            let target = |at: usize, index: usize| {
                let f = handles[at % handles.len()];
                let o = heap.get(f).ok()?;
                Some((f, index, o.fields().get(index)?.clone()))
            };
            let store = match op {
                Op::Alloc => {
                    let out = heap.alloc(node, ObjectKind::App);
                    handles.extend(check_adopt(&heap, before, out)?);
                    None
                }
                Op::AllocArray => {
                    let out = heap.alloc(array, ObjectKind::Replacement);
                    handles.extend(check_adopt(&heap, before, out)?);
                    None
                }
                Op::AdoptArray { to, extras, len } => {
                    // A variadic object built whole: its extras point at one
                    // handle (live or stale: adoption does not trace) and
                    // its declared field carries a payload.
                    let mut obj = Object::with_field_count(array, ObjectKind::Replacement, 1 + extras);
                    prop_assert!(obj.set_raw_field(0, Value::Bytes(Bytes::from(vec![2u8; len]))));
                    if !handles.is_empty() {
                        let t = handles[to % handles.len()];
                        for i in 1..=extras {
                            prop_assert!(obj.set_raw_field(i, Value::Ref(t)));
                        }
                    }
                    let out = heap.adopt(obj);
                    if let Some(r) = check_adopt(&heap, before, out)? {
                        prop_assert_eq!(heap.extra_fields(r).unwrap().len(), extras);
                        handles.push(r);
                    }
                    None
                }
                // Index 0 is a payload-capable field on both classes (`a` is
                // Ref on Node — type is NOT checked by set_any_field, which
                // is exactly what the graph surgery relies on; accounting
                // must still hold).
                Op::SetAnyPayload { at, len } if !handles.is_empty() => target(at, 0)
                    .map(|t| (t, Value::Bytes(Bytes::from(vec![1u8; len])))),
                Op::SetScalar { at, v } if !handles.is_empty() => {
                    target(at, 0).map(|t| (t, Value::Int(v)))
                }
                Op::LinkAToB { from, to } if !handles.is_empty() => {
                    let t = handles[to % handles.len()];
                    target(from, 0)
                        .filter(|_| heap.is_live(t))
                        .map(|f| (f, Value::Ref(t)))
                }
                Op::Unlink { from } if !handles.is_empty() => {
                    target(from, 0).map(|t| (t, Value::Null))
                }
                Op::SetPayload { at, len } if !handles.is_empty() => {
                    let payload = Value::Bytes(Bytes::from(vec![0u8; len]));
                    match target(at, 2) {
                        Some(t) if heap.get(t.0).unwrap().kind() == ObjectKind::App => {
                            let out = heap.set_field_by_name(t.0, "payload", payload);
                            check_store(&heap, before, t, out)?;
                        }
                        _ => {}
                    }
                    None
                }
                Op::RootToggle { at } if !handles.is_empty() => {
                    let f = handles[at % handles.len()];
                    if rooted.contains(&f) {
                        heap.remove_root(f);
                        rooted.retain(|r| *r != f);
                    } else if heap.is_live(f) {
                        heap.add_root(f);
                        rooted.push(f);
                    }
                    None
                }
                Op::SetGlobal { name, at } => {
                    let value = match at {
                        Some(at) if !handles.is_empty() => Value::Ref(handles[at % handles.len()]),
                        _ => Value::Null,
                    };
                    heap.set_global(format!("g{name}"), value);
                    None
                }
                Op::FreeDetached { at } if !handles.is_empty() => {
                    // Only an application object that no root reaches may
                    // be freed directly; any other kind (the arrays here)
                    // is refused, so only a collection reports its death.
                    let f = handles[at % handles.len()];
                    if heap.is_live(f) && !reachable(&heap, &rooted).contains(&f.index()) {
                        let app = heap.get(f).unwrap().kind() == ObjectKind::App;
                        prop_assert_eq!(heap.free_detached(&[f]), app.then_some(1));
                    }
                    None
                }
                Op::Collect | Op::CollectMinorThenFull => {
                    let expected_live = reachable(&heap, &rooted);
                    if matches!(op, Op::CollectMinorThenFull) {
                        heap.collect_minor();
                    }
                    heap.collect();
                    let actual_live: HashSet<u32> =
                        heap.iter_live().map(|r| r.index()).collect();
                    prop_assert_eq!(&actual_live, &expected_live,
                        "GC must free exactly the unreachable objects");
                    rooted.retain(|r| heap.is_live(*r));
                    None
                }
                Op::CollectMinor => {
                    let reached: Vec<ObjRef> = reachable(&heap, &rooted)
                        .into_iter()
                        .filter_map(|index| heap.iter_live().find(|r| r.index() == index))
                        .collect();
                    let stats = heap.collect_minor();
                    for r in reached {
                        prop_assert!(heap.is_live(r),
                            "a minor collection freed {} which a full mark reaches", r);
                    }
                    prop_assert_eq!(stats.live_objects, heap.live_objects());
                    rooted.retain(|r| heap.is_live(*r));
                    None
                }
                _ => None,
            };
            if let Some((t, value)) = store {
                let out = heap.set_any_field(t.0, t.1, value);
                check_store(&heap, before, t, out)?;
            }
            // Invariant: accounting equals a from-scratch recomputation.
            prop_assert_eq!(heap.bytes_used(), recomputed_bytes(&heap));
            prop_assert_eq!(heap.live_objects(), heap.iter_live().count());
            prop_assert!(heap.stats().peak_bytes >= heap.bytes_used());
        }
    }

    #[test]
    fn freed_handles_never_alias_new_objects(n in 1usize..40) {
        let (reg, node, _array) = registry();
        let mut heap = Heap::new(reg, 1 << 20);
        let mut stale: Vec<ObjRef> = Vec::new();
        for i in 0..n {
            let r = heap.alloc(node, ObjectKind::App).unwrap();
            heap.set_field_by_name(r, "payload",
                Value::Bytes(Bytes::from(vec![i as u8; 4]))).unwrap();
            // Nothing roots r: the next collect frees it.
            heap.collect();
            prop_assert!(!heap.is_live(r));
            stale.push(r);
            // All previously stale handles must still be invalid even after
            // their slots were reused.
            for s in &stale {
                prop_assert!(heap.get(*s).is_err());
            }
        }
    }
}
