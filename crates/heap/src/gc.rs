//! Mark-sweep local garbage collector (the paper's LGC).
//!
//! Roots are: all global variables (*swap-cluster-0*), every object whose
//! header has `pinned` set, and the heap's extra root handles. Marking
//! traverses `Ref` fields only; weak table entries are deliberately *not*
//! roots. After the sweep, finalizable casualties are recorded for the
//! middleware to drain via [`crate::Heap::take_finalized`] — this is how the
//! SwappingManager learns that a replacement-object died and that the
//! storing device may be instructed to drop the corresponding XML blob
//! (paper §3, *Integration with GC Mechanisms*).
//!
//! [`Heap::free_detached`] is the one way around the trace: the swap
//! layer's swap-out frees a committed victim's members directly, in the
//! sweep's order, unless a root still holds one of them, and debug builds
//! re-run the mark to prove none of them was reachable.

use crate::heap::{slot_at, Slot, SlotBody};
use crate::{ClassId, Heap, ObjRef, ObjectKind, Oid, Value};

/// Statistics of one collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CollectStats {
    /// Objects freed by the sweep.
    pub freed_objects: usize,
    /// Bytes released by the sweep.
    pub freed_bytes: usize,
    /// Objects that survived.
    pub live_objects: usize,
    /// Finalization records produced by this collection.
    pub finalized: usize,
}

/// Record of a finalizable object that was collected.
///
/// Carries everything the middleware's finalizer logic needs, because the
/// object itself is already gone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finalized {
    /// The (now dangling) handle the object had.
    pub obj: ObjRef,
    /// Runtime role the object had.
    pub kind: ObjectKind,
    /// Its class.
    pub class: ClassId,
    /// Its global identity tag.
    pub oid: Oid,
    /// Its swap-cluster tag.
    pub swap_cluster: u32,
}

impl Heap {
    /// Run a full mark-sweep collection and return its statistics.
    ///
    /// The middleware runs it when an allocation fails, when a policy asks
    /// for it, and when a root still holds a detached swap-cluster's
    /// members (see [`Heap::free_detached`]).
    pub fn collect(&mut self) -> CollectStats {
        self.gc_runs += 1;
        let marked = self.mark();
        // --- Sweep (ascending slot order, so the LIFO free list ends up in
        // --- the same reuse order the old free stack produced) ------------
        let mut stats = CollectStats::default();
        let bytes_before = self.bytes_used;
        for index in 0..self.slot_count {
            // Copy the death record out before mutating the heap.
            let dead = match self.slot(index) {
                Some(Slot {
                    generation,
                    body: SlotBody::Used(obj),
                }) if !marked[index as usize] => Some(obj.header.finalize.then_some(Finalized {
                    obj: ObjRef {
                        index,
                        generation: *generation,
                    },
                    kind: obj.header.kind,
                    class: obj.class,
                    oid: obj.header.oid,
                    swap_cluster: obj.header.swap_cluster,
                })),
                _ => None,
            };
            let Some(finalized) = dead else {
                continue;
            };
            if let Some(record) = finalized {
                self.finalized.push(record);
                stats.finalized += 1;
            }
            self.free_slot(index);
            stats.freed_objects += 1;
        }
        stats.freed_bytes = bytes_before - self.bytes_used;
        stats.live_objects = self.live_objects;
        // --- Weak table ----------------------------------------------------
        let slabs = &self.slabs;
        self.weak.clear_dead(|target| {
            !matches!(
                slot_at(slabs, target.index),
                Some(Slot { generation, body: SlotBody::Used(_) }) if *generation == target.generation
            )
        });
        stats
    }

    /// Number of collections run so far.
    pub fn gc_runs(&self) -> u64 {
        self.gc_runs
    }

    /// Free a detached swap-cluster's members without tracing the heap: the
    /// swap layer's detach commit hands them over once it has patched every
    /// inbound swap-cluster-proxy, and a field may reach into another
    /// cluster only through such a proxy.
    ///
    /// All or nothing. A root may still reach the set directly: a global or
    /// an extra root holds one of the objects, or one of them is pinned.
    /// Then, or when one of them is finalizable, this frees nothing and
    /// returns `None`; the set, and whatever it reaches, stays for the
    /// collector. Otherwise it frees the live objects (stale handles are
    /// skipped) in ascending slot order, the sweep's order, through the same
    /// slot release, so generations, accounting and the free list end up
    /// exactly as a collection that found these objects dead leaves them,
    /// and returns how many it freed. A weak reference to a freed object
    /// resolves to `None` at once through the generation check; the next
    /// collection clears its entry.
    ///
    /// Debug builds mark from the collector's roots before freeing and
    /// panic if any of the objects is reachable anyway, which only a field
    /// reaching into the set without a proxy can cause.
    pub fn free_detached(&mut self, objs: &[ObjRef]) -> Option<usize> {
        let mut doomed = Vec::with_capacity(objs.len());
        for &r in objs {
            if let Some(Slot {
                generation,
                body: SlotBody::Used(obj),
            }) = self.slot(r.index)
            {
                if *generation != r.generation {
                    continue;
                }
                if obj.header.pinned || obj.header.finalize {
                    return None;
                }
                doomed.push(r);
            }
        }
        doomed.sort_unstable();
        doomed.dedup();
        let held = |r: &ObjRef| doomed.binary_search(r).is_ok();
        let rooted = self.extra_roots.iter().any(held)
            || self
                .globals()
                .any(|(_, v)| matches!(v, Value::Ref(r) if held(r)));
        if rooted {
            return None;
        }
        #[cfg(debug_assertions)]
        {
            let marked = self.mark();
            if let Some(r) = doomed.iter().find(|r| marked[r.index as usize]) {
                panic!("free_detached: slot {} is reachable from a root", r.index);
            }
        }
        for r in &doomed {
            self.free_slot(r.index);
        }
        Some(doomed.len())
    }

    /// The collector's mark phase: which slots are reachable from the roots
    /// (globals, extra roots, pinned objects) through `Ref` fields.
    fn mark(&self) -> Vec<bool> {
        let mut marked = vec![false; self.slot_count as usize];
        let mut stack: Vec<ObjRef> = Vec::new();
        for (_, v) in self.globals() {
            if let Value::Ref(r) = v {
                stack.push(*r);
            }
        }
        stack.extend(self.extra_roots.iter().copied());
        for (index, slot) in self.enumerate_slots() {
            if let SlotBody::Used(obj) = &slot.body {
                if obj.header.pinned {
                    stack.push(ObjRef {
                        index,
                        generation: slot.generation,
                    });
                }
            }
        }
        while let Some(r) = stack.pop() {
            let Some(Slot {
                generation,
                body: SlotBody::Used(obj),
            }) = self.slot(r.index)
            else {
                continue;
            };
            if *generation != r.generation || marked[r.index as usize] {
                continue;
            }
            marked[r.index as usize] = true;
            for v in obj.fields.as_slice() {
                if let Value::Ref(next) = v {
                    stack.push(*next);
                }
            }
        }
        marked
    }
}

#[cfg(test)]
mod tests {
    // Tests assert on known-good setups; panicking on failure is the point.
    #![allow(clippy::disallowed_methods)]
    use crate::{ClassBuilder, ClassRegistry, Heap, HeapError, ObjRef, ObjectKind, Value};

    fn setup() -> (Heap, crate::ClassId) {
        let mut reg = ClassRegistry::new();
        let node = reg.register(ClassBuilder::new("Node").ref_field("next").int_field("n"));
        (Heap::new(reg, 1 << 20), node)
    }

    #[test]
    fn unreachable_chain_is_collected() {
        let (mut heap, node) = setup();
        let a = heap.alloc(node, ObjectKind::App).unwrap();
        let b = heap.alloc(node, ObjectKind::App).unwrap();
        let c = heap.alloc(node, ObjectKind::App).unwrap();
        heap.set_field_by_name(a, "next", Value::Ref(b)).unwrap();
        heap.set_field_by_name(b, "next", Value::Ref(c)).unwrap();
        heap.set_global("head", Value::Ref(a));
        assert_eq!(heap.collect().freed_objects, 0);
        // Cut b..c off.
        heap.set_field_by_name(a, "next", Value::Null).unwrap();
        let stats = heap.collect();
        assert_eq!(stats.freed_objects, 2);
        assert!(heap.is_live(a));
        assert!(!heap.is_live(b));
        assert!(!heap.is_live(c));
    }

    #[test]
    fn cycles_are_collected_when_unreachable() {
        let (mut heap, node) = setup();
        let a = heap.alloc(node, ObjectKind::App).unwrap();
        let b = heap.alloc(node, ObjectKind::App).unwrap();
        heap.set_field_by_name(a, "next", Value::Ref(b)).unwrap();
        heap.set_field_by_name(b, "next", Value::Ref(a)).unwrap();
        let stats = heap.collect();
        assert_eq!(stats.freed_objects, 2);
    }

    #[test]
    fn pinned_objects_survive_without_roots() {
        let (mut heap, node) = setup();
        let a = heap.alloc(node, ObjectKind::App).unwrap();
        heap.header_mut(a).unwrap().pinned = true;
        assert_eq!(heap.collect().freed_objects, 0);
        heap.header_mut(a).unwrap().pinned = false;
        assert_eq!(heap.collect().freed_objects, 1);
    }

    #[test]
    fn extra_roots_keep_objects_alive() {
        let (mut heap, node) = setup();
        let a = heap.alloc(node, ObjectKind::App).unwrap();
        heap.add_root(a);
        assert_eq!(heap.collect().freed_objects, 0);
        heap.remove_root(a);
        assert_eq!(heap.collect().freed_objects, 1);
    }

    #[test]
    fn weak_refs_do_not_keep_objects_alive_and_are_cleared() {
        let (mut heap, node) = setup();
        let a = heap.alloc(node, ObjectKind::App).unwrap();
        let w = heap.weak_ref(a).unwrap();
        let stats = heap.collect();
        assert_eq!(stats.freed_objects, 1);
        assert_eq!(heap.weak_get(w), None);
    }

    #[test]
    fn finalizable_objects_are_reported_once() {
        let (mut heap, node) = setup();
        let a = heap.alloc(node, ObjectKind::Replacement).unwrap();
        {
            let h = heap.header_mut(a).unwrap();
            h.finalize = true;
            h.swap_cluster = 7;
        }
        let stats = heap.collect();
        assert_eq!(stats.finalized, 1);
        let fin = heap.take_finalized();
        assert_eq!(fin.len(), 1);
        assert_eq!(fin[0].kind, ObjectKind::Replacement);
        assert_eq!(fin[0].swap_cluster, 7);
        assert!(heap.take_finalized().is_empty(), "drained");
    }

    #[test]
    fn collection_updates_accounting_and_allows_realloc() {
        let (mut heap, node) = setup();
        heap.set_capacity(200);
        // Node = 24 + 2*16 = 56 bytes → three fit in 200.
        let _a = heap.alloc(node, ObjectKind::App).unwrap();
        let _b = heap.alloc(node, ObjectKind::App).unwrap();
        let _c = heap.alloc(node, ObjectKind::App).unwrap();
        assert!(matches!(
            heap.alloc(node, ObjectKind::App),
            Err(HeapError::OutOfMemory { .. })
        ));
        let stats = heap.collect(); // nothing is rooted
        assert_eq!(stats.freed_objects, 3);
        assert_eq!(heap.bytes_used(), 0);
        assert!(heap.alloc(node, ObjectKind::App).is_ok());
    }

    #[test]
    fn global_non_ref_values_are_ignored_as_roots() {
        let (mut heap, node) = setup();
        heap.set_global("count", Value::Int(3));
        let _a = heap.alloc(node, ObjectKind::App).unwrap();
        assert_eq!(heap.collect().freed_objects, 1);
    }

    #[test]
    fn stale_root_handles_are_skipped() {
        let (mut heap, node) = setup();
        let a = heap.alloc(node, ObjectKind::App).unwrap();
        heap.add_root(a);
        // Free behind the collector's back, then collect with the stale root.
        let b = heap.alloc(node, ObjectKind::App).unwrap();
        heap.set_global("live", Value::Ref(b));
        // Simulate staleness: drop and re-allocate the slot.
        heap.remove_root(a);
        heap.collect();
        heap.add_root(a); // a is now stale
        let stats = heap.collect();
        assert_eq!(stats.live_objects, 1);
    }

    /// Eight nodes in slots 0..8; slots 1, 4 and 6 are garbage (4 ↔ 6 a
    /// cycle), the rest hang off the global `head` in one chain.
    fn interleaved(heap: &mut Heap, node: crate::ClassId) -> Vec<ObjRef> {
        let objs: Vec<ObjRef> = (0..8)
            .map(|_| heap.alloc(node, ObjectKind::App).unwrap())
            .collect();
        let live = [0, 2, 3, 5, 7];
        for pair in live.windows(2) {
            heap.set_field_by_name(objs[pair[0]], "next", Value::Ref(objs[pair[1]]))
                .unwrap();
        }
        heap.set_field_by_name(objs[4], "next", Value::Ref(objs[6]))
            .unwrap();
        heap.set_field_by_name(objs[6], "next", Value::Ref(objs[4]))
            .unwrap();
        heap.set_global("head", Value::Ref(objs[0]));
        objs
    }

    #[test]
    fn freed_detached_handles_go_stale_and_weak_refs_read_none() {
        let (mut heap, node) = setup();
        let objs = interleaved(&mut heap, node);
        let w = heap.weak_ref(objs[4]).unwrap();
        let used = heap.bytes_used();
        assert_eq!(heap.free_detached(&[objs[6], objs[4]]), Some(2));
        assert!(matches!(
            heap.get(objs[4]),
            Err(HeapError::InvalidRef { .. })
        ));
        assert!(matches!(
            heap.get(objs[6]),
            Err(HeapError::InvalidRef { .. })
        ));
        assert_eq!(heap.weak_get(w), None);
        assert_eq!(heap.gc_runs(), 0, "no collection ran");
        assert_eq!(heap.bytes_used(), used - 2 * 56);
        assert_eq!(heap.stats().total_frees, 2);
    }

    #[test]
    fn free_detached_skips_stale_handles() {
        let (mut heap, node) = setup();
        let objs = interleaved(&mut heap, node);
        assert_eq!(heap.free_detached(&[objs[1]]), Some(1));
        // `reuser` takes slot 1 back, so `objs[1]` is now a stale handle to
        // a live slot; a global holding the stale handle reaches nothing.
        let reuser = heap.alloc(node, ObjectKind::App).unwrap();
        assert_eq!(reuser.index(), objs[1].index());
        heap.set_global("stale", Value::Ref(objs[1]));
        assert_eq!(heap.free_detached(&[objs[1], objs[4], objs[6]]), Some(2));
        assert!(heap.is_live(reuser));
    }

    #[test]
    fn free_detached_leaves_a_set_that_a_root_holds_to_the_collector() {
        // Each way a root can hold slot 4 of the 4 <-> 6 cycle, and a
        // finalizable member: nothing is freed, not even 6, which 4 reaches.
        let holds: [fn(&mut Heap, ObjRef); 4] = [
            |h, r| h.header_mut(r).unwrap().pinned = true,
            |h, r| h.add_root(r),
            |h, r| h.set_global("leak", Value::Ref(r)),
            |h, r| h.header_mut(r).unwrap().finalize = true,
        ];
        for (case, hold) in holds.iter().enumerate() {
            let (mut heap, node) = setup();
            let objs = interleaved(&mut heap, node);
            hold(&mut heap, objs[4]);
            let live = heap.live_objects();
            assert_eq!(heap.free_detached(&[objs[6], objs[4]]), None, "case {case}");
            assert_eq!(heap.live_objects(), live, "case {case}");
            assert!(
                heap.is_live(objs[4]) && heap.is_live(objs[6]),
                "case {case}"
            );
            assert_eq!(heap.stats().total_frees, 0, "case {case}");
        }
    }

    #[test]
    fn free_detached_leaves_the_heap_a_collection_would() {
        let (mut direct, node) = setup();
        let (mut swept, _) = setup();
        let objs = interleaved(&mut direct, node);
        interleaved(&mut swept, node);
        // Out of slot order, with a duplicate: the free order is the
        // sweep's ascending order regardless.
        assert_eq!(
            direct.free_detached(&[objs[6], objs[1], objs[4], objs[6]]),
            Some(3)
        );
        assert_eq!(swept.collect().freed_objects, 3);
        assert_eq!(direct.bytes_used(), swept.bytes_used());
        assert_eq!(direct.live_objects(), swept.live_objects());
        assert_eq!(direct.stats().total_frees, swept.stats().total_frees);
        for _ in 0..5 {
            let a = direct.alloc(node, ObjectKind::App).unwrap();
            let b = swept.alloc(node, ObjectKind::App).unwrap();
            assert_eq!(a, b, "same slot, same generation");
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "free_detached: slot 2 is reachable from a root")]
    fn free_detached_refuses_an_object_a_field_still_reaches_in_debug_builds() {
        let (mut heap, node) = setup();
        let objs = interleaved(&mut heap, node);
        // No root holds slot 2, but the chain from `head` reaches it.
        heap.free_detached(&[objs[4], objs[2]]);
    }
}
