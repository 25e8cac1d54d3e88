//! Decode-into-arena materialization for the reload hot path.
//!
//! [`ClusterMaterializer`] is the [`BlobSink`] the reload commit feeds
//! [`crate::wire::decode_blob_into`] with: it turns the streamed wire
//! events into *detached* heap objects ([`Object::with_field_count`] +
//! [`Object::set_raw_field`]) plus a flat list of reference [`Fixup`]s —
//! no [`crate::codec::Blob`] IR, no per-object `Vec` of fields, no
//! per-field re-accounting. After the whole frame parses, the caller
//! adopts the objects into the arena in stream order
//! ([`obiwan_heap::Heap::adopt`]) and resolves the fixups in one batched
//! pass, memoizing the proxy reconnects per distinct target identity.
//!
//! The materializer is deliberately *pure*: it never touches the heap
//! while bytes are still being parsed, so a truncated or corrupt blob
//! rejects with **zero** orphan allocations.

use crate::wire::{BlobHeader, BlobSink};
use crate::{codec::BlobField, Result, SwapError};
use obiwan_heap::{ClassId, ClassRegistry, HeapError, Object, ObjectKind, Oid};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for [`Oid`] keys: the splitmix64 finalizer (the same mix the
/// shard router uses), applied to the oid's `u64`. Oids are dense
/// server-assigned counters, so a full avalanche beats SipHash here and
/// costs three multiplies.
#[derive(Default)]
pub struct OidHasher(u64);

impl Hasher for OidHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u64 keys (unused by the Oid maps): FNV-1a.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by [`Oid`] with the [`OidHasher`].
pub type OidMap<V> = HashMap<Oid, V, BuildHasherDefault<OidHasher>>;

/// How a wire reference field must be reconnected at reload time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixupKind {
    /// In-cluster reference: resolves against the members of this blob.
    Member,
    /// Outbound reference that was mediated by a swap-cluster-proxy.
    Proxy,
    /// Reference to an identity that was not replicated at swap-out time.
    Fault,
}

/// One deferred reference field, recorded while the frame streamed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fixup {
    /// Index of the owning object in the materialized member list.
    pub ordinal: u32,
    /// Layout field index to patch.
    pub field: u32,
    /// Which reconnect procedure resolves it.
    pub kind: FixupKind,
    /// Target identity.
    pub oid: Oid,
}

/// A [`BlobSink`] that builds detached heap objects straight from the
/// wire events, deferring every reference field into a [`Fixup`].
pub struct ClusterMaterializer {
    registry: ClassRegistry,
    sc: u32,
    /// One-entry class-name→layout cache: swap-clusters are overwhelmingly
    /// runs of one class, so this makes the name lookup O(objects) string
    /// compares and one registry probe per distinct class.
    class_cache: Option<(String, ClassId, usize)>,
    objects: Vec<(Oid, Object)>,
    fixups: Vec<Fixup>,
}

impl ClusterMaterializer {
    /// A materializer for a reload of swap-cluster `sc`, resolving class
    /// names against `registry` (cheap to clone — `Arc` inside).
    pub fn new(registry: ClassRegistry, sc: u32) -> Self {
        ClusterMaterializer {
            registry,
            sc,
            class_cache: None,
            objects: Vec::new(),
            fixups: Vec::new(),
        }
    }

    /// The materialized members (stream order) and their reference fixups.
    pub fn into_parts(self) -> (Vec<(Oid, Object)>, Vec<Fixup>) {
        (self.objects, self.fixups)
    }

    fn class_for(&mut self, name: &str) -> Result<(ClassId, usize)> {
        if let Some((cached, id, layout)) = &self.class_cache {
            if cached == name {
                return Ok((*id, *layout));
            }
        }
        let id = self.registry.class_id(name)?;
        let layout = self.registry.class(id)?.field_count();
        self.class_cache = Some((name.to_owned(), id, layout));
        Ok((id, layout))
    }

    /// The error [`obiwan_heap::Heap::set_any_field`] gives for a wire
    /// field index beyond the class layout.
    fn field_index_error(&self, index: usize) -> SwapError {
        let class = self
            .class_cache
            .as_ref()
            .map(|(name, _, _)| name.clone())
            .unwrap_or_default();
        HeapError::FieldIndex {
            class,
            index: index.min(u16::MAX as usize) as u16,
        }
        .into()
    }
}

impl BlobSink for ClusterMaterializer {
    fn begin(&mut self, _header: &BlobHeader, object_count: usize) -> Result<()> {
        self.objects.reserve(object_count);
        self.fixups.reserve(object_count);
        Ok(())
    }

    #[inline]
    fn begin_object(
        &mut self,
        oid: Oid,
        class: &str,
        repl_cluster: u32,
        _field_count: usize,
    ) -> Result<()> {
        let (class_id, layout) = self.class_for(class)?;
        // Members are sized by the class *layout* (as `Heap::alloc` sizes
        // them); wire fields address into it, extras of variadic members
        // are not captured.
        let mut obj = Object::with_field_count(class_id, ObjectKind::App, layout);
        let h = obj.header_mut();
        h.oid = oid;
        h.repl_cluster = repl_cluster;
        h.swap_cluster = self.sc;
        self.objects.push((oid, obj));
        Ok(())
    }

    #[inline]
    fn field(&mut self, index: usize, field: BlobField) -> Result<()> {
        let Some((_, obj)) = self.objects.last_mut() else {
            return Err(SwapError::codec("field event before any object"));
        };
        let (kind, oid) = match field {
            BlobField::Scalar(v) => {
                if obj.set_raw_field(index, v) {
                    return Ok(());
                }
                return Err(self.field_index_error(index));
            }
            BlobField::MemberRef(oid) => (FixupKind::Member, oid),
            BlobField::ProxyRef(oid) => (FixupKind::Proxy, oid),
            BlobField::FaultRef(oid) => (FixupKind::Fault, oid),
        };
        if index >= obj.fields().len() {
            return Err(self.field_index_error(index));
        }
        self.fixups.push(Fixup {
            ordinal: (self.objects.len() - 1) as u32,
            field: index as u32,
            kind,
            oid,
        });
        Ok(())
    }
}
