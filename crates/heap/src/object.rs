//! Heap objects and their headers.

use crate::{ClassId, Value};
use std::fmt;

/// Global object identity assigned by the replication server.
///
/// Replicas of the same master object on different devices share an `Oid`;
/// it is also the identity the swap codec serializes, and what the paper's
/// overloaded `==` ultimately compares across swap-cluster-proxies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Oid(pub u64);

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "oid:{}", self.0)
    }
}

/// What role an object plays in the middleware, the moral equivalent of the
/// `obicomp`-generated class a reference actually points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    /// A plain application object (replica).
    App,
    /// An object-fault proxy: invoking it triggers replication of the target
    /// cluster, after which it is *replaced* and discarded (paper §2).
    FaultProxy,
    /// A swap-cluster-proxy: permanently mediates a reference that crosses a
    /// swap-cluster boundary (paper §3).
    SwapProxy,
    /// A replacement-object standing in for a swapped-out cluster: an array
    /// of references keeping the victim's outbound proxies alive (paper §3).
    Replacement,
}

impl ObjectKind {
    /// Wire name used by diagnostics and the XML codec.
    pub fn name(self) -> &'static str {
        match self {
            ObjectKind::App => "app",
            ObjectKind::FaultProxy => "fault-proxy",
            ObjectKind::SwapProxy => "swap-proxy",
            ObjectKind::Replacement => "replacement",
        }
    }
}

impl fmt::Display for ObjectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-object header: middleware tag words, mirroring the way a real VM
/// object header carries GC and runtime bookkeeping bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectHeader {
    /// Runtime role of the object.
    pub kind: ObjectKind,
    /// Global replication identity (0 for purely local middleware objects).
    pub oid: Oid,
    /// Replication cluster index this replica arrived in (device-local).
    pub repl_cluster: u32,
    /// Swap-cluster this object belongs to; `0` is the paper's
    /// *swap-cluster-0* (globals and middleware-local objects).
    pub swap_cluster: u32,
    /// Pinned objects are GC roots (middleware anchors).
    pub pinned: bool,
    /// When true, the object's death is reported via
    /// [`crate::Heap::take_finalized`] after the sweep that frees it.
    pub finalize: bool,
}

impl ObjectHeader {
    #[inline]
    pub(crate) fn new(kind: ObjectKind) -> Self {
        ObjectHeader {
            kind,
            oid: Oid(0),
            repl_cluster: 0,
            swap_cluster: 0,
            pinned: false,
            finalize: false,
        }
    }
}

/// Fields stored inline in the object for the common small layouts.
///
/// Figure-5 application nodes have 3–4 fields and proxies have 3; storing
/// those in the object itself (which itself lives inline in an arena slab
/// slot) means allocating such an object touches **zero** heap allocations.
/// Larger or variadic layouts spill to a `Vec` exactly once.
const INLINE_FIELDS: usize = 4;

/// Storage for an object's field values: inline array for small layouts,
/// spilled `Vec` beyond [`INLINE_FIELDS`] slots.
#[derive(Debug, Clone)]
pub(crate) enum FieldStore {
    /// Up to [`INLINE_FIELDS`] values stored inside the object.
    Inline {
        /// Number of occupied slots (prefix of `slots`).
        len: u8,
        /// Backing array; slots at `len..` are `Null` and unobservable.
        slots: [Value; INLINE_FIELDS],
    },
    /// Layouts wider than the inline array.
    Spilled(Vec<Value>),
}

const NULL_SLOTS: [Value; INLINE_FIELDS] = [Value::Null, Value::Null, Value::Null, Value::Null];

impl FieldStore {
    /// `count` null fields.
    #[inline]
    pub(crate) fn with_nulls(count: usize) -> Self {
        if count <= INLINE_FIELDS {
            FieldStore::Inline {
                len: count as u8,
                slots: NULL_SLOTS,
            }
        } else {
            FieldStore::Spilled(vec![Value::Null; count])
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        match self {
            FieldStore::Inline { len, .. } => *len as usize,
            FieldStore::Spilled(v) => v.len(),
        }
    }

    #[inline]
    pub(crate) fn as_slice(&self) -> &[Value] {
        match self {
            FieldStore::Inline { len, slots } => &slots[..*len as usize],
            FieldStore::Spilled(v) => v,
        }
    }

    #[inline]
    pub(crate) fn get(&self, index: usize) -> Option<&Value> {
        self.as_slice().get(index)
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, index: usize) -> Option<&mut Value> {
        match self {
            FieldStore::Inline { len, slots } => slots[..*len as usize].get_mut(index),
            FieldStore::Spilled(v) => v.get_mut(index),
        }
    }

    /// Append one value, spilling to a `Vec` when the inline array is full.
    pub(crate) fn push(&mut self, value: Value) {
        match self {
            FieldStore::Inline { len, slots } if (*len as usize) < INLINE_FIELDS => {
                slots[*len as usize] = value;
                *len += 1;
            }
            FieldStore::Inline { len, slots } => {
                let mut spilled = Vec::with_capacity(*len as usize + 1);
                spilled.extend(slots.iter_mut().map(std::mem::take));
                spilled.push(value);
                *self = FieldStore::Spilled(spilled);
            }
            FieldStore::Spilled(v) => v.push(value),
        }
    }
}

impl PartialEq for FieldStore {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// An object stored in a heap slot: header + class + field values.
#[derive(Debug, Clone, PartialEq)]
pub struct Object {
    pub(crate) header: ObjectHeader,
    pub(crate) class: ClassId,
    pub(crate) fields: FieldStore,
    /// Cached byte size currently charged to the accounting.
    pub(crate) charged_size: usize,
}

/// Fixed per-object overhead charged by the accounting (slot + header),
/// on top of 16 bytes per field and variable payload bytes.
pub(crate) const OBJECT_BASE_SIZE: usize = 24;
/// Bytes charged per field slot.
pub(crate) const FIELD_SLOT_SIZE: usize = 16;

impl Object {
    #[inline]
    pub(crate) fn new(class: ClassId, kind: ObjectKind, field_count: usize) -> Self {
        Object {
            header: ObjectHeader::new(kind),
            class,
            fields: FieldStore::with_nulls(field_count),
            charged_size: 0,
        }
    }

    /// Construct a detached object for arena materialization: the zero-copy
    /// decode path builds objects field by field *outside* any heap and
    /// hands the finished value to [`crate::Heap::adopt`], which charges the
    /// whole object against capacity in one step.
    ///
    /// All fields start `Null`; fill them with [`Object::set_raw_field`].
    #[inline]
    pub fn with_field_count(class: ClassId, kind: ObjectKind, field_count: usize) -> Self {
        Object::new(class, kind, field_count)
    }

    /// Write a raw field slot on a detached object — no layout type
    /// checking and no accounting, because the object is not charged to any
    /// heap yet ([`crate::Heap::adopt`] charges its final size). Returns
    /// `false` when `index` is out of range.
    #[inline]
    pub fn set_raw_field(&mut self, index: usize, value: Value) -> bool {
        match self.fields.get_mut(index) {
            Some(slot) => {
                *slot = value;
                true
            }
            None => false,
        }
    }

    /// The object's header (kind, oid, cluster tags, GC bits).
    #[inline]
    pub fn header(&self) -> &ObjectHeader {
        &self.header
    }

    /// Mutable access to the header tag words.
    #[inline]
    pub fn header_mut(&mut self) -> &mut ObjectHeader {
        &mut self.header
    }

    /// The object's class.
    #[inline]
    pub fn class(&self) -> ClassId {
        self.class
    }

    /// The raw field values in layout order.
    #[inline]
    pub fn fields(&self) -> &[Value] {
        self.fields.as_slice()
    }

    /// Runtime role shorthand.
    #[inline]
    pub fn kind(&self) -> ObjectKind {
        self.header.kind
    }

    /// Byte size this object should be charged: base + field slots + payloads.
    pub fn size(&self) -> usize {
        let fields = self.fields.as_slice();
        OBJECT_BASE_SIZE
            + FIELD_SLOT_SIZE * fields.len()
            + fields.iter().map(Value::payload_size).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn size_counts_base_fields_and_payload() {
        let mut o = Object::new(ClassId(0), ObjectKind::App, 3);
        assert_eq!(o.size(), OBJECT_BASE_SIZE + 3 * FIELD_SLOT_SIZE);
        assert!(o.set_raw_field(0, Value::Bytes(Bytes::from(vec![0u8; 40]))));
        assert_eq!(o.size(), OBJECT_BASE_SIZE + 3 * FIELD_SLOT_SIZE + 40);
        assert!(!o.set_raw_field(3, Value::Null), "out of range is reported");
    }

    #[test]
    fn header_defaults_are_inert() {
        let h = ObjectHeader::new(ObjectKind::SwapProxy);
        assert_eq!(h.kind, ObjectKind::SwapProxy);
        assert_eq!(h.swap_cluster, 0);
        assert!(!h.pinned && !h.finalize);
    }

    #[test]
    fn kind_names_are_distinct() {
        use std::collections::HashSet;
        let names: HashSet<_> = [
            ObjectKind::App,
            ObjectKind::FaultProxy,
            ObjectKind::SwapProxy,
            ObjectKind::Replacement,
        ]
        .iter()
        .map(|k| k.name())
        .collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn field_store_spills_past_inline_capacity() {
        let mut s = FieldStore::with_nulls(2);
        assert!(matches!(s, FieldStore::Inline { .. }));
        assert_eq!(s.len(), 2);
        s.push(Value::Int(1));
        s.push(Value::Int(2));
        assert!(matches!(s, FieldStore::Inline { .. }), "4 fit inline");
        s.push(Value::Int(3));
        assert!(matches!(s, FieldStore::Spilled(_)), "5th spills");
        assert_eq!(
            s.as_slice(),
            &[
                Value::Null,
                Value::Null,
                Value::Int(1),
                Value::Int(2),
                Value::Int(3)
            ]
        );
        // Wide layouts spill from the start.
        let wide = FieldStore::with_nulls(9);
        assert!(matches!(wide, FieldStore::Spilled(_)));
        assert_eq!(wide.len(), 9);
        // Equality is by content, not representation.
        let mut inline = FieldStore::with_nulls(0);
        for _ in 0..3 {
            inline.push(Value::Null);
        }
        assert_eq!(inline, FieldStore::with_nulls(3));
    }
}
