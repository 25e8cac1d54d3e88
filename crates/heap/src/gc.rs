//! Mark-sweep local garbage collector (the paper's LGC), generational.
//!
//! Roots are: all global variables (*swap-cluster-0*), every object whose
//! header has `pinned` set, and the heap's extra root handles. Marking
//! traverses `Ref` fields only; weak table entries are deliberately *not*
//! roots. The sweep hands every object it frees to the caller's hook
//! ([`Heap::collect_with`]), and that hook is the one way the runtime
//! hears of a death: the replication layer prunes its object tables there,
//! and the SwappingManager learns that a replacement-object died, so the
//! storing device may be instructed to drop the corresponding XML blob
//! (paper §3, *Integration with GC Mechanisms*).
//!
//! There are two collections ([`Collection`]). A *full* one marks and
//! sweeps the whole heap. A *minor* one traces only the young generation,
//! where the swap layer's throwaway proxies live and die: the *nursery*
//! (the slots adopted since the last collection) and the nursery's
//! survivors of the last minor collection. The write barrier in the heap's
//! one store path keeps a remembered set of old objects written to point
//! into the young generation. A minor collection marks from the globals,
//! the extra roots, the pinned young objects and the remembered objects'
//! fields, into the young generation only; it sweeps only young slots, in
//! ascending slot order, and clears only the weak entries created since
//! the collection before last. Its survivors age: the nursery's become
//! survivors, the survivors' are promoted to the old generation, and the
//! remembered set keeps the old objects that still point at a survivor.
//! So an object that the recovery in progress holds, and that dies just
//! after it, is freed by the next minor collection. An old object that
//! died stays until a full collection, and so does what a dead remembered
//! object reaches. A full collection leaves no young generation and no
//! remembered set. Debug builds run a full mark after every minor
//! collection and panic if the minor freed a reachable object, or kept an
//! unreachable one that no dead remembered object reaches.
//!
//! [`Heap::free_detached`] is the one way around the trace: the swap
//! layer's swap-out frees a committed victim's application objects
//! directly, in the sweep's order, unless a root still holds one of them,
//! and debug builds re-run the mark to prove none of them was reachable.
//! It frees nothing but application objects, so no proxy or
//! replacement-object dies without the hook seeing it.

use crate::heap::{slot_at, Slot, SlotBody, SlotSet};
use crate::{Heap, ObjRef, ObjectHeader, ObjectKind, Value};

/// Which collection to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Collection {
    /// Trace and sweep the young generation only, ageing its survivors:
    /// the objects adopted since the last collection and those that
    /// survived one minor collection since. It marks from the roots, the
    /// pinned young objects and the objects the write barrier
    /// remembered; an old object that died waits for a full collection.
    Minor,
    /// Trace and sweep the whole heap.
    Full,
}

/// Statistics of one collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CollectStats {
    /// Objects freed by the sweep.
    pub freed_objects: usize,
    /// Bytes released by the sweep.
    pub freed_bytes: usize,
    /// Objects that survived.
    pub live_objects: usize,
}

impl Heap {
    /// Run a full mark-sweep collection and return its statistics.
    ///
    /// The middleware runs it when a policy or the application asks for a
    /// collection, when a root still holds a detached swap-cluster's
    /// members (see [`Heap::free_detached`]), and when an out-of-memory
    /// recovery's minor collection made no progress.
    pub fn collect(&mut self) -> CollectStats {
        self.collect_with(Collection::Full, |_, _| {})
    }

    /// Run a minor collection, which traces and sweeps only the young
    /// generation (see [`Collection::Minor`]), and return its statistics.
    pub fn collect_minor(&mut self) -> CollectStats {
        self.collect_with(Collection::Minor, |_, _| {})
    }

    /// Run a collection of the given kind, handing each object to
    /// `on_free` (its last handle and its header) just before its slot is
    /// freed. This hook is the only report of a death: a runtime table
    /// keyed by the dead drops their entries here without scanning itself,
    /// and a caller that must act on a death (a replacement-object's blob
    /// drop) lists it here and acts once the collection returns.
    pub fn collect_with(
        &mut self,
        kind: Collection,
        on_free: impl FnMut(ObjRef, &ObjectHeader),
    ) -> CollectStats {
        self.gc_runs += 1;
        let stats = match kind {
            Collection::Full => {
                let marked = self.mark();
                self.sweep(0..self.slot_count, |i| marked[i as usize], on_free)
            }
            Collection::Minor => {
                self.minor_gc_runs += 1;
                // The old objects that will point at a survivor once this
                // collection has aged the young generation.
                let mut remembered = SlotSet::default();
                let roots = self.minor_roots(&mut remembered);
                let marked = self.mark_young(roots, &mut remembered);
                #[cfg(debug_assertions)]
                self.check_minor(&marked);
                let young = self.nursery.union(&self.survivors);
                let survivors = self.nursery.intersection(&marked);
                let stats = self.sweep(young.iter(), |i| marked.contains(i), on_free);
                self.survivors = survivors;
                self.remembered = remembered;
                stats
            }
        };
        // --- Weak table ----------------------------------------------------
        let slabs = &self.slabs;
        let dead = |target: ObjRef| {
            !matches!(
                slot_at(slabs, target.index),
                Some(Slot { generation, body: SlotBody::Used(_) }) if *generation == target.generation
            )
        };
        match kind {
            Collection::Full => {
                self.weak.clear_dead(dead);
                self.survivors.clear();
                self.remembered.clear();
            }
            Collection::Minor => self.weak.clear_dead_young(dead),
        }
        self.nursery.clear();
        stats
    }

    /// Number of collections run so far, minor and full.
    pub fn gc_runs(&self) -> u64 {
        self.gc_runs
    }

    /// Free every used slot among `slots` (ascending, so the LIFO free list
    /// ends up in the same reuse order the old free stack produced) that
    /// `live` rejects, reporting each to `on_free`.
    fn sweep(
        &mut self,
        slots: impl Iterator<Item = u32>,
        live: impl Fn(u32) -> bool,
        mut on_free: impl FnMut(ObjRef, &ObjectHeader),
    ) -> CollectStats {
        let mut stats = CollectStats::default();
        let bytes_before = self.bytes_used;
        for index in slots {
            if live(index) {
                continue;
            }
            let Some(Slot {
                generation,
                body: SlotBody::Used(obj),
            }) = slot_at(&self.slabs, index)
            else {
                continue;
            };
            let dead = ObjRef {
                index,
                generation: *generation,
            };
            on_free(dead, &obj.header);
            self.free_slot(index);
            stats.freed_objects += 1;
        }
        stats.freed_bytes = bytes_before - self.bytes_used;
        stats.live_objects = self.live_objects;
        stats
    }

    /// Free a detached swap-cluster's members without tracing the heap: the
    /// swap layer's detach commit hands them over once it has patched every
    /// inbound swap-cluster-proxy, and a field may reach into another
    /// cluster only through such a proxy.
    ///
    /// All or nothing. A root may still reach the set directly: a global or
    /// an extra root holds one of the objects, or one of them is pinned.
    /// Then, or when one of them is not an application object
    /// ([`ObjectKind::App`], the only kind a detach hands over), this frees
    /// nothing and returns `None`; the set, and whatever it reaches, stays
    /// for the collector, whose hook reports every death. Otherwise it frees
    /// the live objects (stale handles are skipped) in ascending slot order,
    /// the sweep's order, through the same slot release, so generations,
    /// accounting and the free list end up exactly as a collection that
    /// found these objects dead leaves them, and returns how many it freed.
    /// A weak reference to a freed object resolves to `None` at once
    /// through the generation check; a later collection, the next full one
    /// at the latest, clears its entry.
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
                if obj.header.pinned || obj.header.kind != ObjectKind::App {
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

    /// A minor collection's roots: the globals, the extra roots, the
    /// pinned young objects and every reference the remembered objects
    /// hold. The remembered objects that point into the nursery go into
    /// `remember`: they will point at a survivor.
    fn minor_roots(&self, remember: &mut SlotSet) -> Vec<ObjRef> {
        let mut roots: Vec<ObjRef> = self
            .globals()
            .filter_map(|(_, v)| v.as_ref_value())
            .chain(self.extra_roots.iter().copied())
            .collect();
        for index in self.nursery.iter().chain(self.survivors.iter()) {
            if let Some(Slot {
                generation,
                body: SlotBody::Used(obj),
            }) = self.slot(index)
            {
                if obj.header.pinned {
                    roots.push(ObjRef {
                        index,
                        generation: *generation,
                    });
                }
            }
        }
        self.push_remembered_refs(&mut roots, |_| true, remember);
        roots
    }

    /// Push the references held by the remembered objects that `pick`
    /// accepts, and add each of them that points into the nursery to
    /// `remember`.
    fn push_remembered_refs(
        &self,
        out: &mut Vec<ObjRef>,
        pick: impl Fn(u32) -> bool,
        remember: &mut SlotSet,
    ) {
        for index in self.remembered.iter().filter(|&i| pick(i)) {
            if let Some(Slot {
                body: SlotBody::Used(obj),
                ..
            }) = self.slot(index)
            {
                let before = out.len();
                out.extend(obj.fields.as_slice().iter().filter_map(Value::as_ref_value));
                if out[before..].iter().any(|r| self.nursery.contains(r.index)) {
                    remember.insert(index);
                }
            }
        }
    }

    /// The young slots reachable from `stack` through young objects only:
    /// an old object is never traced, since every one that points into the
    /// young generation is in the remembered set. Each marked survivor
    /// that points into the nursery goes into `remember`: this collection
    /// promotes it, and it will point at a survivor.
    fn mark_young(&self, mut stack: Vec<ObjRef>, remember: &mut SlotSet) -> SlotSet {
        let mut marked = SlotSet::default();
        while let Some(r) = stack.pop() {
            if !self.is_young(r.index) {
                continue;
            }
            let Some(Slot {
                generation,
                body: SlotBody::Used(obj),
            }) = self.slot(r.index)
            else {
                continue;
            };
            if *generation != r.generation || !marked.insert(r.index) {
                continue;
            }
            let before = stack.len();
            stack.extend(obj.fields.as_slice().iter().filter_map(Value::as_ref_value));
            if self.survivors.contains(r.index)
                && stack[before..]
                    .iter()
                    .any(|t| self.nursery.contains(t.index))
            {
                remember.insert(r.index);
            }
        }
        marked
    }

    /// The debug shadow check of a minor collection's mark, run before its
    /// sweep: a full mark must reach no young slot the minor left unmarked,
    /// and every young slot the minor keeps but the full mark does not
    /// reach must hang off a remembered object that is itself dead
    /// (floating garbage, freed by a later collection).
    #[cfg(debug_assertions)]
    fn check_minor(&self, kept: &SlotSet) {
        let full = self.mark();
        let mut stack = Vec::new();
        let mut ignored = SlotSet::default();
        self.push_remembered_refs(&mut stack, |i| !full[i as usize], &mut ignored);
        let floating = self.mark_young(stack, &mut ignored);
        for index in self.nursery.iter().chain(self.survivors.iter()) {
            if !matches!(
                self.slot(index),
                Some(Slot {
                    body: SlotBody::Used(_),
                    ..
                })
            ) {
                continue;
            }
            let reachable = full[index as usize];
            if reachable && !kept.contains(index) {
                panic!("minor collection: slot {index} is reachable from a root but unmarked");
            }
            if !reachable && kept.contains(index) && !floating.contains(index) {
                panic!(
                    "minor collection: slot {index} is unreachable but kept, and no dead \
                     remembered object reaches it"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    // Tests assert on known-good setups; panicking on failure is the point.
    #![allow(clippy::disallowed_methods)]
    use crate::{
        ClassBuilder, ClassRegistry, Collection, Heap, HeapError, ObjRef, ObjectKind, Value,
    };

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
    fn each_death_is_reported_to_the_hook_once() {
        let (mut heap, node) = setup();
        let a = heap.alloc(node, ObjectKind::Replacement).unwrap();
        heap.header_mut(a).unwrap().swap_cluster = 7;
        let mut dead = Vec::new();
        let stats = heap.collect_with(Collection::Full, |r, h| {
            dead.push((r, h.kind, h.swap_cluster));
        });
        assert_eq!(stats.freed_objects, 1);
        assert_eq!(dead, vec![(a, ObjectKind::Replacement, 7)]);
        let again = heap.collect_with(Collection::Full, |r, _| panic!("{r:?} died twice"));
        assert_eq!(again.freed_objects, 0);
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
        // member that is not an application object, whose death only the
        // collector's hook may report: nothing is freed, not even 6, which
        // 4 reaches.
        let holds: [fn(&mut Heap, ObjRef); 4] = [
            |h, r| h.header_mut(r).unwrap().pinned = true,
            |h, r| h.add_root(r),
            |h, r| h.set_global("leak", Value::Ref(r)),
            |h, r| h.header_mut(r).unwrap().kind = ObjectKind::Replacement,
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

    #[test]
    fn a_minor_collection_frees_young_garbage_and_leaves_old_garbage() {
        let (mut heap, node) = setup();
        let old = heap.alloc(node, ObjectKind::App).unwrap();
        heap.set_global("old", Value::Ref(old));
        heap.collect(); // `old` is old now
        heap.set_global("old", Value::Null);
        let young: Vec<ObjRef> = (0..3)
            .map(|_| heap.alloc(node, ObjectKind::App).unwrap())
            .collect();
        heap.set_global("young", Value::Ref(young[0]));
        heap.set_field_by_name(young[0], "next", Value::Ref(young[1]))
            .unwrap();
        let stats = heap.collect_minor();
        assert_eq!(stats.freed_objects, 1, "only the unreachable young node");
        assert!(heap.is_live(old) && heap.is_live(young[0]) && heap.is_live(young[1]));
        assert!(!heap.is_live(young[2]));
        // The survivors of one minor collection are still young: the next
        // one frees them once they die. `old` waits for a full collection.
        heap.set_global("young", Value::Null);
        assert_eq!(heap.collect_minor().freed_objects, 2);
        assert!(heap.is_live(old));
        assert_eq!(heap.collect().freed_objects, 1);
        let s = heap.stats();
        assert_eq!((s.gc_runs, s.minor_gc_runs), (4, 2));
    }

    #[test]
    fn survivors_of_two_minor_collections_are_old() {
        let (mut heap, node) = setup();
        let a = heap.alloc(node, ObjectKind::App).unwrap();
        heap.set_global("a", Value::Ref(a));
        heap.collect_minor();
        heap.collect_minor(); // promoted
        heap.set_global("a", Value::Null);
        assert_eq!(heap.collect_minor().freed_objects, 0);
        assert_eq!(heap.collect().freed_objects, 1);
    }

    #[test]
    fn the_barrier_keeps_what_an_old_object_was_written_to_reach() {
        let (mut heap, node) = setup();
        let old = heap.alloc(node, ObjectKind::App).unwrap();
        heap.set_global("old", Value::Ref(old));
        heap.collect();
        let young = heap.alloc(node, ObjectKind::App).unwrap();
        let behind = heap.alloc(node, ObjectKind::App).unwrap();
        heap.set_field_by_name(young, "next", Value::Ref(behind))
            .unwrap();
        heap.set_field_by_name(old, "next", Value::Ref(young))
            .unwrap();
        // `old` stays remembered while `young` is a survivor, so the second
        // minor collection still sees the link and promotes both.
        assert_eq!(heap.collect_minor().freed_objects, 0);
        assert_eq!(heap.collect_minor().freed_objects, 0);
        assert!(heap.is_live(young) && heap.is_live(behind));
        // Old now: cutting the link leaves them to a full collection.
        heap.set_field_by_name(old, "next", Value::Null).unwrap();
        assert_eq!(heap.collect_minor().freed_objects, 0);
        assert_eq!(heap.collect().freed_objects, 2);
    }

    #[test]
    fn a_promoted_survivor_that_points_at_a_survivor_is_remembered() {
        let (mut heap, node) = setup();
        let a = heap.alloc(node, ObjectKind::App).unwrap();
        heap.set_global("a", Value::Ref(a));
        heap.collect_minor(); // `a` survives once
        let b = heap.alloc(node, ObjectKind::App).unwrap();
        heap.set_field_by_name(a, "next", Value::Ref(b)).unwrap();
        // `a` is promoted and `b` becomes a survivor that only `a` holds.
        assert_eq!(heap.collect_minor().freed_objects, 0);
        assert_eq!(heap.collect_minor().freed_objects, 0);
        assert!(heap.is_live(b));
    }

    #[test]
    fn a_retired_object_is_freed_by_the_next_minor_collection() {
        let (mut heap, node) = setup();
        let a = heap.alloc(node, ObjectKind::App).unwrap();
        heap.set_global("a", Value::Ref(a));
        heap.collect();
        heap.set_global("a", Value::Null);
        assert_eq!(heap.collect_minor().freed_objects, 0, "old garbage");
        heap.retire(a);
        assert_eq!(heap.collect_minor().freed_objects, 1);
        heap.retire(a); // stale: ignored
        assert_eq!(heap.collect_minor().freed_objects, 0);
    }

    #[test]
    fn a_minor_collection_reports_young_deaths_and_clears_young_weaks() {
        let (mut heap, node) = setup();
        let old = heap.alloc(node, ObjectKind::App).unwrap();
        let old_weak = heap.weak_ref(old).unwrap();
        heap.collect_minor(); // `old` was unreachable: freed
        assert_eq!(heap.weak_get(old_weak), None);
        let a = heap.alloc(node, ObjectKind::SwapProxy).unwrap();
        let w = heap.weak_ref(a).unwrap();
        let mut freed = Vec::new();
        let stats = heap.collect_with(Collection::Minor, |r, h| freed.push((r, h.kind)));
        assert_eq!(stats.freed_objects, 1);
        assert_eq!(freed, vec![(a, ObjectKind::SwapProxy)]);
        assert_eq!(heap.weak_get(w), None);
    }

    #[test]
    fn a_pinned_young_object_is_a_minor_root() {
        let (mut heap, node) = setup();
        let a = heap.alloc(node, ObjectKind::App).unwrap();
        let b = heap.alloc(node, ObjectKind::App).unwrap();
        heap.set_field_by_name(a, "next", Value::Ref(b)).unwrap();
        heap.header_mut(a).unwrap().pinned = true;
        assert_eq!(heap.collect_minor().freed_objects, 0);
    }

    #[test]
    fn what_a_dead_remembered_object_reaches_floats_until_a_full_collection() {
        let (mut heap, node) = setup();
        let old = heap.alloc(node, ObjectKind::App).unwrap();
        heap.set_global("old", Value::Ref(old));
        heap.collect();
        let young = heap.alloc(node, ObjectKind::App).unwrap();
        heap.set_field_by_name(old, "next", Value::Ref(young))
            .unwrap();
        heap.set_global("old", Value::Null);
        // `old` is dead but remembered: `young` survives (the debug shadow
        // check accepts it) and dies with `old` at the next full.
        assert_eq!(heap.collect_minor().freed_objects, 0);
        assert_eq!(heap.collect().freed_objects, 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "minor collection: slot 1 is reachable from a root but unmarked")]
    fn a_store_the_barrier_missed_trips_the_debug_check() {
        let (mut heap, node) = setup();
        let old = heap.alloc(node, ObjectKind::App).unwrap();
        heap.set_global("old", Value::Ref(old));
        heap.collect();
        let young = heap.alloc(node, ObjectKind::App).unwrap();
        heap.set_field_by_name(old, "next", Value::Ref(young))
            .unwrap();
        heap.remembered.clear();
        heap.collect_minor();
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
