//! The slab arena of object slots and its accounting.
//!
//! Objects live *inline* in generation-tagged slots grouped into fixed-size
//! slabs (`Vec<Vec<Slot>>`): handle→slot resolution is a shift and a mask,
//! not a map probe, growth never moves existing objects (only whole new
//! slabs are added), and a freed slot is threaded onto an intrusive
//! free list through its own `next_free` word — no side allocation at all
//! on the alloc/free path for small layouts (see
//! [`crate::object`]'s inline field store).

use crate::gc::Finalized;
use crate::object::{Object, ObjectHeader};
use crate::weak::WeakTable;
use crate::{ClassId, ClassRegistry, FieldId, HeapError, ObjectKind, Result, Value, WeakRef};
use std::collections::HashMap;
use std::fmt;

/// log2 of the number of slots per slab.
const SLAB_SHIFT: u32 = 9;
/// Slots per slab (512): big enough to amortize slab growth, small enough
/// that a fresh device heap stays cheap.
const SLAB_CAPACITY: usize = 1 << SLAB_SHIFT;
const SLAB_MASK: u32 = SLAB_CAPACITY as u32 - 1;
/// Free-list terminator for the intrusive `next_free` chain.
const NO_SLOT: u32 = u32::MAX;

/// Generational handle to a heap object.
///
/// A stale handle (its slot was freed, possibly reused) is detected by the
/// generation counter and reported as [`HeapError::InvalidRef`] instead of
/// silently aliasing a new object — the property that makes graph surgery
/// (detach / patch / reload) safe to get wrong loudly during development.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjRef {
    pub(crate) index: u32,
    pub(crate) generation: u32,
}

impl ObjRef {
    /// Slot index; stable for the object's lifetime, reused after free.
    pub fn index(self) -> u32 {
        self.index
    }

    /// Construct a dangling reference for tests.
    #[doc(hidden)]
    pub fn test_dummy(index: u32) -> Self {
        ObjRef {
            index,
            generation: u32::MAX,
        }
    }
}

impl fmt::Display for ObjRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj@{}.{}", self.index, self.generation)
    }
}

/// One arena slot: the generation the slot is currently at, plus either the
/// object stored inline or the free-list link.
#[derive(Debug)]
pub(crate) struct Slot {
    /// Generation of the current occupant; bumped when the slot is freed,
    /// so handles minted before the free never match again.
    pub(crate) generation: u32,
    pub(crate) body: SlotBody,
}

#[derive(Debug)]
pub(crate) enum SlotBody {
    /// Empty slot, threaded on the intrusive free list.
    Free { next_free: u32 },
    /// Occupied slot: the object lives inline in the slab.
    Used(Object),
}

/// Resolve a slot index against a slab table (free function so the GC can
/// borrow the slabs while mutating the weak table).
pub(crate) fn slot_at(slabs: &[Vec<Slot>], index: u32) -> Option<&Slot> {
    slabs
        .get((index >> SLAB_SHIFT) as usize)?
        .get((index & SLAB_MASK) as usize)
}

/// A set of slot indices kept as a bitmap: constant-time membership, and
/// iteration in ascending slot order (the sweep's order).
#[derive(Debug, Default)]
pub(crate) struct SlotSet {
    words: Vec<u64>,
}

impl SlotSet {
    /// Add `index`; `false` when it was already there.
    pub(crate) fn insert(&mut self, index: u32) -> bool {
        let (word, bit) = ((index >> 6) as usize, 1u64 << (index & 63));
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let fresh = self.words[word] & bit == 0;
        self.words[word] |= bit;
        fresh
    }

    pub(crate) fn remove(&mut self, index: u32) {
        if let Some(w) = self.words.get_mut((index >> 6) as usize) {
            *w &= !(1u64 << (index & 63));
        }
    }

    pub(crate) fn contains(&self, index: u32) -> bool {
        self.words
            .get((index >> 6) as usize)
            .is_some_and(|w| w & (1u64 << (index & 63)) != 0)
    }

    /// Empty the set, keeping its storage.
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The members of either set.
    pub(crate) fn union(&self, other: &SlotSet) -> SlotSet {
        let (long, short) = if self.words.len() >= other.words.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut words = long.words.clone();
        for (w, o) in words.iter_mut().zip(&short.words) {
            *w |= o;
        }
        SlotSet { words }
    }

    /// The members of both sets.
    pub(crate) fn intersection(&self, other: &SlotSet) -> SlotSet {
        SlotSet {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
        }
    }

    /// The members in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros();
                    bits &= bits - 1;
                    ((i as u32) << 6) | bit
                })
            })
        })
    }
}

/// The managed heap of one device: slab arena, globals, pins, weak table,
/// accounting, and the collector (in the `gc` module).
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Heap {
    /// Slab table. A slab never moves or shrinks once pushed, so `&Object`
    /// stability matches the old boxed-slot representation.
    pub(crate) slabs: Vec<Vec<Slot>>,
    /// Total slots ever created (fresh allocations extend the tail slab).
    pub(crate) slot_count: u32,
    /// Head of the intrusive LIFO free list ([`NO_SLOT`] when empty).
    pub(crate) free_head: u32,
    classes: ClassRegistry,
    /// Named global variables — the paper's *swap-cluster-0* roots.
    globals: HashMap<String, Value>,
    /// Extra root handles pinned by the middleware (in addition to the
    /// per-object `pinned` header bit).
    pub(crate) extra_roots: Vec<ObjRef>,
    pub(crate) weak: WeakTable,
    /// The nursery: slots adopted (or retired) since the last collection.
    pub(crate) nursery: SlotSet,
    /// Slots that survived one minor collection in the nursery. With the
    /// nursery they make up the young generation, which a minor collection
    /// traces.
    pub(crate) survivors: SlotSet,
    /// Old slots that may point into the young generation: the write
    /// barrier's remembered set.
    pub(crate) remembered: SlotSet,
    pub(crate) finalized: Vec<Finalized>,
    pub(crate) bytes_used: usize,
    capacity: usize,
    pub(crate) live_objects: usize,
    pub(crate) total_allocs: u64,
    pub(crate) total_frees: u64,
    pub(crate) gc_runs: u64,
    pub(crate) minor_gc_runs: u64,
    pub(crate) peak_bytes: usize,
}

impl Heap {
    /// Create a heap with the given shared class registry and a hard byte
    /// capacity (the device's memory budget).
    pub fn new(classes: ClassRegistry, capacity: usize) -> Self {
        Heap {
            slabs: Vec::new(),
            slot_count: 0,
            free_head: NO_SLOT,
            classes,
            globals: HashMap::new(),
            extra_roots: Vec::new(),
            weak: WeakTable::default(),
            nursery: SlotSet::default(),
            survivors: SlotSet::default(),
            remembered: SlotSet::default(),
            finalized: Vec::new(),
            bytes_used: 0,
            capacity,
            live_objects: 0,
            total_allocs: 0,
            total_frees: 0,
            gc_runs: 0,
            minor_gc_runs: 0,
            peak_bytes: 0,
        }
    }

    /// The shared class registry.
    pub fn classes(&self) -> &ClassRegistry {
        &self.classes
    }

    /// Hard capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Change the capacity (context management may adapt budgets at runtime).
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
    }

    /// Bytes currently charged to live objects.
    pub fn bytes_used(&self) -> usize {
        self.bytes_used
    }

    /// Number of live objects.
    pub fn live_objects(&self) -> usize {
        self.live_objects
    }

    #[inline]
    pub(crate) fn slot(&self, index: u32) -> Option<&Slot> {
        slot_at(&self.slabs, index)
    }

    #[inline]
    fn slot_mut(&mut self, index: u32) -> Option<&mut Slot> {
        self.slabs
            .get_mut((index >> SLAB_SHIFT) as usize)?
            .get_mut((index & SLAB_MASK) as usize)
    }

    /// Enumerate every slot with its index (collector-internal).
    pub(crate) fn enumerate_slots(&self) -> impl Iterator<Item = (u32, &Slot)> + '_ {
        self.slabs.iter().enumerate().flat_map(|(si, slab)| {
            slab.iter()
                .enumerate()
                .map(move |(i, s)| (((si << SLAB_SHIFT) | i) as u32, s))
        })
    }

    /// Put a finished object into a slot of the nursery: pop the free list
    /// (LIFO, so the reuse order matches the old `Vec<u32>` free stack
    /// exactly) or extend the tail slab.
    fn place(&mut self, obj: Object) -> ObjRef {
        if self.free_head != NO_SLOT {
            let index = self.free_head;
            self.nursery.insert(index);
            let slab = &mut self.slabs[(index >> SLAB_SHIFT) as usize];
            let slot = &mut slab[(index & SLAB_MASK) as usize];
            self.free_head = match slot.body {
                SlotBody::Free { next_free } => next_free,
                SlotBody::Used(_) => unreachable!("free list points at a used slot"),
            };
            slot.body = SlotBody::Used(obj);
            return ObjRef {
                index,
                generation: slot.generation,
            };
        }
        let index = self.slot_count;
        self.nursery.insert(index);
        let slab_index = (index >> SLAB_SHIFT) as usize;
        if slab_index == self.slabs.len() {
            self.slabs.push(Vec::with_capacity(SLAB_CAPACITY));
        }
        self.slabs[slab_index].push(Slot {
            generation: 0,
            body: SlotBody::Used(obj),
        });
        self.slot_count += 1;
        ObjRef {
            index,
            generation: 0,
        }
    }

    /// Pre-size the arena so the next `additional` fresh allocations extend
    /// existing slabs without growing the slab table mid-stream. The decode
    /// path calls this with the frame's object count before materializing a
    /// reloaded cluster.
    pub fn reserve_slots(&mut self, additional: usize) {
        let mut spare = self.slabs.len() * SLAB_CAPACITY - self.slot_count as usize;
        while spare < additional {
            self.slabs.push(Vec::with_capacity(SLAB_CAPACITY));
            spare += SLAB_CAPACITY;
        }
    }

    /// Allocate an object of `class` with the given runtime `kind`, all
    /// fields `Null`.
    ///
    /// # Errors
    ///
    /// * [`HeapError::NoSuchClass`] for an unknown class.
    /// * [`HeapError::OutOfMemory`] when the allocation would exceed
    ///   capacity. The heap is left unchanged; the middleware is expected to
    ///   swap out a victim and retry.
    pub fn alloc(&mut self, class: ClassId, kind: ObjectKind) -> Result<ObjRef> {
        let field_count = self.classes.class(class)?.field_count();
        let obj = Object::new(class, kind, field_count);
        self.adopt(obj)
    }

    /// Insert a detached object (built with [`Object::with_field_count`] and
    /// [`Object::set_raw_field`]) into the arena, charging its full size —
    /// base, field slots *and* payloads — against capacity in one step.
    ///
    /// One of the heap's two write paths, build-then-adopt; the other is
    /// the private store behind [`Heap::set_field`] and
    /// [`Heap::set_any_field`]. The wire decoder fills an `Object` straight
    /// from the frame and adopts it, and the middleware builds its proxies
    /// and replacement-objects whole the same way, instead of allocating
    /// null fields and re-writing every slot through the accounting. Like
    /// the graph-surgery primitive [`Heap::set_any_field`], adoption does
    /// not type-check field values against the class layout; it does check
    /// that the field *count* matches (variadic classes may exceed it).
    ///
    /// # Errors
    ///
    /// * [`HeapError::NoSuchClass`] for an unknown class.
    /// * [`HeapError::TypeMismatch`] when the field count does not fit the
    ///   class layout.
    /// * [`HeapError::OutOfMemory`] when the object would exceed capacity;
    ///   the heap is left unchanged.
    pub fn adopt(&mut self, mut obj: Object) -> Result<ObjRef> {
        let descriptor = self.classes.class(obj.class)?;
        let layout = descriptor.field_count();
        let count = obj.fields.len();
        if count < layout || (count > layout && !descriptor.is_variadic()) {
            return Err(HeapError::TypeMismatch {
                expected: "a field count matching the class layout",
                found: "a mismatched field count",
            });
        }
        let size = obj.size();
        if self.bytes_used + size > self.capacity {
            return Err(HeapError::OutOfMemory {
                requested: size,
                used: self.bytes_used,
                capacity: self.capacity,
            });
        }
        obj.charged_size = size;
        self.bytes_used += size;
        self.peak_bytes = self.peak_bytes.max(self.bytes_used);
        self.live_objects += 1;
        self.total_allocs += 1;
        Ok(self.place(obj))
    }

    /// Immutable access to an object.
    ///
    /// # Errors
    ///
    /// [`HeapError::InvalidRef`] for dangling or stale handles.
    pub fn get(&self, obj: ObjRef) -> Result<&Object> {
        match self.slot(obj.index) {
            Some(Slot {
                generation,
                body: SlotBody::Used(o),
            }) if *generation == obj.generation => Ok(o),
            _ => Err(HeapError::InvalidRef { obj }),
        }
    }

    /// Mutable access to an object's header tag words (kind, identity,
    /// cluster tags, GC bits). Field values are written only through
    /// [`Heap::set_field`] and [`Heap::set_any_field`], which keep the
    /// accounting.
    ///
    /// # Errors
    ///
    /// [`HeapError::InvalidRef`] for dangling or stale handles.
    pub fn header_mut(&mut self, obj: ObjRef) -> Result<&mut ObjectHeader> {
        Ok(&mut self.object_mut(obj)?.header)
    }

    /// The live object behind `obj`; never leaves the heap.
    fn object_mut(&mut self, obj: ObjRef) -> Result<&mut Object> {
        match self.slot_mut(obj.index) {
            Some(Slot {
                generation,
                body: SlotBody::Used(o),
            }) if *generation == obj.generation => Ok(o),
            _ => Err(HeapError::InvalidRef { obj }),
        }
    }

    /// Put a live object back in the nursery, as if just adopted, so that
    /// the next collection, minor or full, decides whether it still lives.
    /// The swap layer retires a reloaded cluster's replacement-object this
    /// way: the reload has unhooked it, and a minor collection would
    /// otherwise leave it to the next full one.
    ///
    /// The caller must know that no live old object holds `obj` (a root
    /// may): a minor collection does not trace old objects outside the
    /// remembered set, so it would free `obj` under such a holder. Debug
    /// builds check every minor collection against a full mark and panic
    /// if that happens. A stale handle is ignored.
    pub fn retire(&mut self, obj: ObjRef) {
        if self.is_live(obj) {
            self.remembered.remove(obj.index);
            self.survivors.remove(obj.index);
            self.nursery.insert(obj.index);
        }
    }

    /// Whether the handle refers to a live object.
    pub fn is_live(&self, obj: ObjRef) -> bool {
        self.get(obj).is_ok()
    }

    /// Read a field by id.
    ///
    /// # Errors
    ///
    /// [`HeapError::InvalidRef`] or [`HeapError::FieldIndex`].
    pub fn field(&self, obj: ObjRef, field: FieldId) -> Result<&Value> {
        let o = self.get(obj)?;
        o.fields
            .get(field.index())
            .ok_or_else(|| self.field_index_error(o.class, field.index()))
    }

    /// Read a field by name.
    ///
    /// # Errors
    ///
    /// [`HeapError::InvalidRef`] or [`HeapError::NoSuchField`].
    pub fn field_by_name(&self, obj: ObjRef, name: &str) -> Result<&Value> {
        let o = self.get(obj)?;
        let id = self.classes.class(o.class)?.field_id(name)?;
        self.field(obj, id)
    }

    /// Write a field by id, with dynamic type checking against the class
    /// layout and accounting of payload size changes.
    ///
    /// # Errors
    ///
    /// [`HeapError::InvalidRef`], [`HeapError::FieldIndex`],
    /// [`HeapError::TypeMismatch`], or [`HeapError::OutOfMemory`] when a
    /// larger payload would exceed capacity.
    pub fn set_field(&mut self, obj: ObjRef, field: FieldId, value: Value) -> Result<()> {
        let class_id = self.get(obj)?.class;
        let kind = self.classes.class(class_id)?.field(field)?.kind();
        if !kind.accepts(&value) {
            return Err(HeapError::TypeMismatch {
                expected: kind.wire_name(),
                found: value.kind_name(),
            });
        }
        self.store(obj, field.index(), value)
    }

    /// Write a field by name. See [`Heap::set_field`].
    ///
    /// # Errors
    ///
    /// Same as [`Heap::set_field`], plus [`HeapError::NoSuchField`].
    pub fn set_field_by_name(&mut self, obj: ObjRef, name: &str, value: Value) -> Result<()> {
        let class_id = self.get(obj)?.class;
        let id = self.classes.class(class_id)?.field_id(name)?;
        self.set_field(obj, id, value)
    }

    /// Write a field by raw index without layout type checking, covering
    /// both declared fields and the extras of variadic objects. This is the
    /// middleware's graph-surgery primitive (proxy replacement patches any
    /// slot that held a reference); accounting is still maintained.
    ///
    /// # Errors
    ///
    /// [`HeapError::InvalidRef`], [`HeapError::FieldIndex`] when the index
    /// is beyond the object's current fields, or [`HeapError::OutOfMemory`]
    /// when a larger payload would exceed capacity.
    pub fn set_any_field(&mut self, obj: ObjRef, index: usize, value: Value) -> Result<()> {
        self.store(obj, index, value)
    }

    /// The one write into a field of an adopted object: one slot lookup,
    /// the payload delta charged to the object, `bytes_used` and the peak.
    /// A refused write (out of memory, bad handle or index) leaves the heap
    /// unchanged. Graph surgery's common case, a payload-free value over a
    /// payload-free one, takes no class lookup and changes no byte count.
    ///
    /// The write barrier: a reference into the young generation stored in
    /// an old object puts that object in the remembered set, whose fields
    /// the next minor collection marks from.
    fn store(&mut self, obj: ObjRef, index: usize, value: Value) -> Result<()> {
        let remember =
            matches!(value, Value::Ref(t) if self.is_young(t.index)) && !self.is_young(obj.index);
        let (capacity, bytes_used) = (self.capacity, self.bytes_used);
        let o = self.object_mut(obj)?;
        let Some(slot) = o.fields.get_mut(index) else {
            let class = o.class;
            return Err(self.field_index_error(class, index));
        };
        let old_payload = slot.payload_size();
        let new_payload = value.payload_size();
        if new_payload > old_payload && bytes_used + (new_payload - old_payload) > capacity {
            return Err(HeapError::OutOfMemory {
                requested: new_payload - old_payload,
                used: bytes_used,
                capacity,
            });
        }
        *slot = value;
        o.charged_size = o.charged_size + new_payload - old_payload;
        self.bytes_used = bytes_used + new_payload - old_payload;
        self.peak_bytes = self.peak_bytes.max(self.bytes_used);
        if remember {
            self.remembered.insert(obj.index);
        }
        Ok(())
    }

    /// Whether slot `index` is in the young generation.
    pub(crate) fn is_young(&self, index: u32) -> bool {
        self.nursery.contains(index) || self.survivors.contains(index)
    }

    /// The out-of-range error for field `index` of an object of `class`,
    /// naming the class (built only on this cold path).
    #[cold]
    fn field_index_error(&self, class: ClassId, index: usize) -> HeapError {
        HeapError::FieldIndex {
            class: self
                .classes
                .class(class)
                .map(|c| c.name().to_string())
                .unwrap_or_default(),
            index: index.min(u16::MAX as usize) as u16,
        }
    }

    /// The extra (beyond-layout) fields of a variadic object.
    ///
    /// # Errors
    ///
    /// [`HeapError::InvalidRef`].
    pub fn extra_fields(&self, obj: ObjRef) -> Result<&[Value]> {
        let o = self.get(obj)?;
        let layout = self.classes.class(o.class)?.field_count();
        Ok(&o.fields.as_slice()[layout..])
    }

    /// Read a global variable (swap-cluster-0).
    ///
    /// # Errors
    ///
    /// [`HeapError::NoSuchGlobal`] when undefined.
    pub fn global(&self, name: &str) -> Result<&Value> {
        self.globals
            .get(name)
            .ok_or_else(|| HeapError::NoSuchGlobal {
                name: name.to_string(),
            })
    }

    /// Set (or define) a global variable. Globals are GC roots.
    pub fn set_global(&mut self, name: impl Into<String>, value: Value) {
        self.globals.insert(name.into(), value);
    }

    /// Remove a global variable, returning its previous value.
    pub fn remove_global(&mut self, name: &str) -> Option<Value> {
        self.globals.remove(name)
    }

    /// Iterate over global variables.
    pub fn globals(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.globals.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Pin an extra root handle. The middleware uses this for anchors that
    /// are not reachable from any global (e.g. tables under construction).
    pub fn add_root(&mut self, obj: ObjRef) {
        self.extra_roots.push(obj);
    }

    /// Remove a previously pinned extra root (all occurrences).
    pub fn remove_root(&mut self, obj: ObjRef) {
        self.extra_roots.retain(|r| *r != obj);
    }

    /// Create a weak reference to `obj`.
    ///
    /// # Errors
    ///
    /// [`HeapError::InvalidRef`] if `obj` is not live.
    pub fn weak_ref(&mut self, obj: ObjRef) -> Result<WeakRef> {
        self.get(obj)?;
        Ok(self.weak.create(obj))
    }

    /// Resolve a weak reference, `None` once the target has been collected.
    pub fn weak_get(&self, weak: WeakRef) -> Option<ObjRef> {
        let target = self.weak.get(weak)?;
        self.is_live(target).then_some(target)
    }

    /// Release a weak reference slot.
    pub fn weak_drop(&mut self, weak: WeakRef) {
        self.weak.drop_ref(weak);
    }

    /// Drain the records of finalizable objects freed by collections since
    /// the last call. This is the C#-finalizer channel of the paper: the
    /// SwappingManager learns here that a replacement-object died and that
    /// the storing device may drop the blob.
    pub fn take_finalized(&mut self) -> Vec<Finalized> {
        std::mem::take(&mut self.finalized)
    }

    /// Iterate over the handles of all live objects (diagnostics, tests,
    /// and the victim-selection heuristics that scan the heap).
    pub fn iter_live(&self) -> impl Iterator<Item = ObjRef> + '_ {
        self.enumerate_slots()
            .filter_map(|(index, s)| match s.body {
                SlotBody::Used(_) => Some(ObjRef {
                    index,
                    generation: s.generation,
                }),
                SlotBody::Free { .. } => None,
            })
    }

    /// Free a slot immediately (collector and middleware-internal): bump the
    /// generation so outstanding handles go stale, drop the object in place,
    /// and push the slot on the free list.
    pub(crate) fn free_slot(&mut self, index: u32) {
        let next_free = self.free_head;
        let freed_bytes;
        {
            let Some(slot) = self.slot_mut(index) else {
                return;
            };
            match &slot.body {
                SlotBody::Used(obj) => freed_bytes = obj.charged_size,
                SlotBody::Free { .. } => return,
            }
            slot.generation = slot.generation.wrapping_add(1);
            slot.body = SlotBody::Free { next_free };
        }
        self.free_head = index;
        self.nursery.remove(index);
        self.survivors.remove(index);
        self.remembered.remove(index);
        self.bytes_used -= freed_bytes;
        self.live_objects -= 1;
        self.total_frees += 1;
    }
}

#[cfg(test)]
mod tests {
    // Tests assert on known-good setups; panicking on failure is the point.
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use crate::ClassBuilder;
    use bytes::Bytes;

    fn node_heap(capacity: usize) -> (Heap, ClassId) {
        let mut reg = ClassRegistry::new();
        let node = reg.register(
            ClassBuilder::new("Node")
                .ref_field("next")
                .int_field("n")
                .bytes_field("payload"),
        );
        (Heap::new(reg, capacity), node)
    }

    #[test]
    fn alloc_get_set_roundtrip() {
        let (mut heap, node) = node_heap(4096);
        let a = heap.alloc(node, ObjectKind::App).unwrap();
        heap.set_field_by_name(a, "n", Value::Int(9)).unwrap();
        assert_eq!(heap.field_by_name(a, "n").unwrap(), &Value::Int(9));
        assert_eq!(heap.get(a).unwrap().kind(), ObjectKind::App);
    }

    #[test]
    fn stale_handle_detected_after_free_and_reuse() {
        let (mut heap, node) = node_heap(4096);
        let a = heap.alloc(node, ObjectKind::App).unwrap();
        heap.free_slot(a.index);
        assert!(matches!(heap.get(a), Err(HeapError::InvalidRef { .. })));
        let b = heap.alloc(node, ObjectKind::App).unwrap();
        assert_eq!(b.index, a.index, "slot should be reused");
        assert_ne!(b.generation, a.generation);
        assert!(heap.get(a).is_err());
        assert!(heap.get(b).is_ok());
    }

    #[test]
    fn free_list_is_lifo_across_slots() {
        let (mut heap, node) = node_heap(1 << 20);
        let a = heap.alloc(node, ObjectKind::App).unwrap();
        let b = heap.alloc(node, ObjectKind::App).unwrap();
        let c = heap.alloc(node, ObjectKind::App).unwrap();
        heap.free_slot(a.index);
        heap.free_slot(b.index);
        heap.free_slot(c.index);
        // Last freed, first reused — the order the old Vec free stack gave.
        let r1 = heap.alloc(node, ObjectKind::App).unwrap();
        let r2 = heap.alloc(node, ObjectKind::App).unwrap();
        let r3 = heap.alloc(node, ObjectKind::App).unwrap();
        assert_eq!(
            (r1.index, r2.index, r3.index),
            (c.index, b.index, a.index),
            "intrusive free list must stay LIFO"
        );
    }

    #[test]
    fn arena_grows_past_one_slab() {
        let (mut heap, node) = node_heap(1 << 24);
        let n = SLAB_CAPACITY + 10;
        let refs: Vec<ObjRef> = (0..n)
            .map(|_| heap.alloc(node, ObjectKind::App).unwrap())
            .collect();
        assert!(heap.slabs.len() >= 2, "second slab must exist");
        assert_eq!(heap.live_objects(), n);
        for (i, r) in refs.iter().enumerate() {
            assert_eq!(r.index as usize, i, "fresh indices are sequential");
            assert!(heap.get(*r).is_ok());
        }
        assert_eq!(heap.iter_live().count(), n);
    }

    #[test]
    fn reserve_slots_presizes_without_observable_change() {
        let (mut heap, node) = node_heap(1 << 20);
        heap.reserve_slots(SLAB_CAPACITY + 3);
        assert_eq!(heap.live_objects(), 0);
        assert_eq!(heap.iter_live().count(), 0);
        let a = heap.alloc(node, ObjectKind::App).unwrap();
        assert_eq!(a.index, 0, "reservation must not shift handle assignment");
    }

    #[test]
    fn adopt_charges_whole_object_and_respects_capacity() {
        let (mut heap, node) = node_heap(200);
        let mut obj = Object::with_field_count(node, ObjectKind::App, 3);
        assert!(obj.set_raw_field(2, Value::Bytes(Bytes::from(vec![7u8; 64]))));
        let r = heap.adopt(obj).unwrap();
        // Node is 24 + 3*16 = 72 bytes, plus the 64-byte payload.
        assert_eq!(heap.bytes_used(), 72 + 64);
        assert_eq!(heap.field_by_name(r, "payload").unwrap().payload_size(), 64);
        // A second one would exceed 200 bytes: heap unchanged.
        let mut big = Object::with_field_count(node, ObjectKind::App, 3);
        assert!(big.set_raw_field(2, Value::Bytes(Bytes::from(vec![7u8; 64]))));
        assert!(matches!(
            heap.adopt(big),
            Err(HeapError::OutOfMemory { .. })
        ));
        assert_eq!(heap.live_objects(), 1);
        assert_eq!(heap.bytes_used(), 72 + 64);
    }

    #[test]
    fn adopt_rejects_mismatched_field_count() {
        let mut reg = ClassRegistry::new();
        let node = reg.register(ClassBuilder::new("Node").int_field("x"));
        let arr = reg.register(ClassBuilder::new("Array").variadic().int_field("len"));
        let mut heap = Heap::new(reg, 4096);
        // Too few fields for the layout.
        assert!(matches!(
            heap.adopt(Object::with_field_count(node, ObjectKind::App, 0)),
            Err(HeapError::TypeMismatch { .. })
        ));
        // Extras on a fixed-layout class.
        assert!(matches!(
            heap.adopt(Object::with_field_count(node, ObjectKind::App, 2)),
            Err(HeapError::TypeMismatch { .. })
        ));
        // Extras on a variadic class are fine.
        let r = heap
            .adopt(Object::with_field_count(arr, ObjectKind::Replacement, 3))
            .unwrap();
        assert_eq!(heap.extra_fields(r).unwrap().len(), 2);
    }

    #[test]
    fn allocation_respects_capacity() {
        let (mut heap, node) = node_heap(100);
        // One Node is 24 + 3*16 = 72 bytes.
        assert!(heap.alloc(node, ObjectKind::App).is_ok());
        let err = heap.alloc(node, ObjectKind::App).unwrap_err();
        assert!(matches!(err, HeapError::OutOfMemory { .. }));
        assert_eq!(heap.live_objects(), 1, "failed alloc must not leak");
    }

    #[test]
    fn payload_growth_is_charged_and_capped() {
        let (mut heap, node) = node_heap(200);
        let a = heap.alloc(node, ObjectKind::App).unwrap();
        let before = heap.bytes_used();
        heap.set_field_by_name(a, "payload", Value::Bytes(Bytes::from(vec![0u8; 64])))
            .unwrap();
        assert_eq!(heap.bytes_used(), before + 64);
        // Shrink gives bytes back.
        heap.set_field_by_name(a, "payload", Value::Bytes(Bytes::from(vec![0u8; 8])))
            .unwrap();
        assert_eq!(heap.bytes_used(), before + 8);
        // Growing past capacity fails and leaves the old value in place.
        let err = heap
            .set_field_by_name(a, "payload", Value::Bytes(Bytes::from(vec![0u8; 4096])))
            .unwrap_err();
        assert!(matches!(err, HeapError::OutOfMemory { .. }));
        assert_eq!(heap.field_by_name(a, "payload").unwrap().payload_size(), 8);
    }

    #[test]
    fn field_type_checking_rejects_wrong_variant() {
        let (mut heap, node) = node_heap(4096);
        let a = heap.alloc(node, ObjectKind::App).unwrap();
        let err = heap
            .set_field_by_name(a, "next", Value::Int(1))
            .unwrap_err();
        assert!(matches!(err, HeapError::TypeMismatch { .. }));
        // Null is accepted everywhere.
        heap.set_field_by_name(a, "next", Value::Null).unwrap();
    }

    #[test]
    fn globals_define_read_remove() {
        let (mut heap, node) = node_heap(4096);
        let a = heap.alloc(node, ObjectKind::App).unwrap();
        heap.set_global("head", Value::Ref(a));
        assert_eq!(heap.global("head").unwrap(), &Value::Ref(a));
        assert!(matches!(
            heap.global("tail"),
            Err(HeapError::NoSuchGlobal { .. })
        ));
        assert_eq!(heap.remove_global("head"), Some(Value::Ref(a)));
        assert!(heap.global("head").is_err());
    }

    #[test]
    fn weak_refs_resolve_until_target_freed() {
        let (mut heap, node) = node_heap(4096);
        let a = heap.alloc(node, ObjectKind::App).unwrap();
        let w = heap.weak_ref(a).unwrap();
        assert_eq!(heap.weak_get(w), Some(a));
        heap.free_slot(a.index);
        assert_eq!(heap.weak_get(w), None);
    }

    #[test]
    fn weak_ref_to_dead_object_fails() {
        let (mut heap, node) = node_heap(4096);
        let a = heap.alloc(node, ObjectKind::App).unwrap();
        heap.free_slot(a.index);
        assert!(heap.weak_ref(a).is_err());
    }

    #[test]
    fn iter_live_reports_exactly_live_handles() {
        let (mut heap, node) = node_heap(4096);
        let a = heap.alloc(node, ObjectKind::App).unwrap();
        let b = heap.alloc(node, ObjectKind::App).unwrap();
        heap.free_slot(a.index);
        let live: Vec<_> = heap.iter_live().collect();
        assert_eq!(live, vec![b]);
    }

    #[test]
    fn adopt_charges_each_extra_slot_and_its_payload() {
        let mut reg = ClassRegistry::new();
        let arr = reg.register(ClassBuilder::new("Array").variadic().int_field("len"));
        let mut heap = Heap::new(reg, 4096);
        let base = heap.alloc(arr, ObjectKind::Replacement).unwrap();
        let base_bytes = heap.bytes_used();
        let mut obj = Object::with_field_count(arr, ObjectKind::Replacement, 3);
        assert!(obj.set_raw_field(1, Value::Ref(base)));
        assert!(obj.set_raw_field(2, Value::Bytes(Bytes::from(vec![0u8; 10]))));
        let r = heap.adopt(obj).unwrap();
        assert_eq!(heap.extra_fields(r).unwrap().len(), 2);
        // Each extra costs one 16-byte slot plus its payload.
        assert_eq!(heap.bytes_used(), 2 * base_bytes + 2 * 16 + 10);
        assert_eq!(heap.stats().peak_bytes, heap.bytes_used());
    }

    #[test]
    fn adopt_refuses_extras_past_capacity_and_leaves_the_heap_unchanged() {
        let mut reg = ClassRegistry::new();
        let arr = reg.register(ClassBuilder::new("Array").variadic());
        let mut heap = Heap::new(reg, 64); // base (24) + two slots (32), not three
        let fits = Object::with_field_count(arr, ObjectKind::Replacement, 2);
        let r = heap.adopt(fits).unwrap();
        heap.free_slot(r.index);
        let before = (
            heap.bytes_used(),
            heap.live_objects(),
            heap.stats().peak_bytes,
        );
        assert!(matches!(
            heap.adopt(Object::with_field_count(arr, ObjectKind::Replacement, 3)),
            Err(HeapError::OutOfMemory { requested: 72, .. })
        ));
        assert_eq!(
            (
                heap.bytes_used(),
                heap.live_objects(),
                heap.stats().peak_bytes
            ),
            before
        );
    }

    #[test]
    fn out_of_range_stores_name_the_class_and_change_nothing() {
        let mut reg = ClassRegistry::new();
        let node = reg.register(ClassBuilder::new("Node").int_field("x"));
        let arr = reg.register(ClassBuilder::new("Array").variadic().int_field("len"));
        let mut heap = Heap::new(reg, 4096);
        let n = heap.alloc(node, ObjectKind::App).unwrap();
        let a = heap
            .adopt(Object::with_field_count(arr, ObjectKind::Replacement, 2))
            .unwrap();
        for (obj, class) in [(n, "Node"), (a, "Array")] {
            let before = (heap.bytes_used(), heap.get(obj).unwrap().clone());
            let errors = [
                heap.set_field(obj, FieldId(5), Value::Int(1)).unwrap_err(),
                heap.set_any_field(obj, 5, Value::Int(1)).unwrap_err(),
            ];
            for e in errors {
                assert!(matches!(e, HeapError::FieldIndex { .. }), "{e:?}");
                assert!(e.to_string().contains(&format!("`{class}`")), "{e}");
            }
            assert_eq!((heap.bytes_used(), heap.get(obj).unwrap().clone()), before);
        }
    }

    #[test]
    fn display_formats_are_stable() {
        let r = ObjRef {
            index: 3,
            generation: 1,
        };
        assert_eq!(r.to_string(), "obj@3.1");
    }
}
