//! Counting-allocator proof of the zero-copy reload contract: the
//! decode-into-arena path performs **zero intermediate heap allocations
//! per object**, for binary frames and for XML text alike. The whole
//! materialize-and-adopt sequence costs a small constant number of
//! allocations (the two materializer vectors, the class-name cache, the
//! slab, the oid map; for XML also the reader's stacks, the step log and
//! the one payload buffer) no matter whether the cluster holds 1, 10 or
//! 100 objects.
//!
//! This file deliberately contains a single `#[test]` so nothing else in
//! the binary allocates while a region is being measured.

#![allow(clippy::disallowed_methods)]

use obiwan_core::codec::{Blob, BlobField, BlobObject};
use obiwan_core::materialize::{ClusterMaterializer, OidMap};
use obiwan_core::wire::{decode_blob_into, encode_blob, WireFormatKind};
use obiwan_heap::{ClassBuilder, ClassRegistry, Heap, ObjRef, Oid, Value};

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

fn registry() -> ClassRegistry {
    let mut reg = ClassRegistry::new();
    reg.register(
        ClassBuilder::new("Node")
            .ref_field("next")
            .int_field("n")
            .bytes_field("payload"),
    );
    reg
}

/// A cluster of `n` linked nodes in wire format `kind`, each node carrying
/// an int, a 32-byte payload and a member reference to its successor. No
/// string fields: `Value::Str` interns into an `Arc<str>`, which is a real
/// allocation the wire data forces and not "intermediate" bookkeeping.
fn cluster(kind: WireFormatKind, n: usize) -> bytes::Bytes {
    let objects = (0..n)
        .map(|i| {
            let mut fields = vec![
                (1, BlobField::Scalar(Value::Int(i as i64 * 3 + 1))),
                (
                    2,
                    BlobField::Scalar(Value::Bytes(bytes::Bytes::from(vec![i as u8; 32]))),
                ),
            ];
            if i + 1 < n {
                fields.insert(0, (0, BlobField::MemberRef(Oid(i as u64 + 2))));
            }
            BlobObject {
                oid: Oid(i as u64 + 1),
                class: "Node".to_string(),
                repl_cluster: i as u32,
                fields,
            }
        })
        .collect();
    encode_blob(
        kind,
        &Blob {
            swap_cluster: 7,
            epoch: 1,
            objects,
        },
    )
    .unwrap()
}

/// The full reload materialization: stream-decode into detached objects,
/// adopt them into the arena in stream order, build the member oid map —
/// exactly what `commit_reload` does before the fixup pass.
fn materialize(reg: &ClassRegistry, heap: &mut Heap, data: &bytes::Bytes) -> usize {
    let mut mat = ClusterMaterializer::new(reg.clone(), 7);
    decode_blob_into(data, &mut mat).unwrap();
    let (objects, fixups) = mat.into_parts();
    heap.reserve_slots(objects.len());
    let mut member_map: OidMap<ObjRef> =
        OidMap::with_capacity_and_hasher(objects.len(), Default::default());
    let count = objects.len();
    for (oid, obj) in objects {
        let r = heap.adopt(obj).unwrap();
        member_map.insert(oid, r);
    }
    assert_eq!(member_map.len(), count);
    assert_eq!(fixups.len(), count.saturating_sub(1));
    count
}

#[test]
fn reload_allocates_nothing_per_object() {
    let reg = registry();
    let sizes = [1usize, 10, 100];
    for kind in [WireFormatKind::Binary, WireFormatKind::Xml] {
        let frames: Vec<bytes::Bytes> = sizes.iter().map(|&n| cluster(kind, n)).collect();

        let mut measured = Vec::new();
        for (&n, data) in sizes.iter().zip(&frames) {
            // The arena itself is pre-built: its creation cost is paid once
            // per process, not per reload.
            let mut heap = Heap::new(reg.clone(), 1 << 24);
            // Warm-up pass on a throwaway heap so lazy one-time init (class
            // registry probes, etc.) doesn't land in the measured region.
            materialize(&reg, &mut Heap::new(reg.clone(), 1 << 24), data);

            let (allocs, decoded) = alloc_counter::count(|| materialize(&reg, &mut heap, data));
            assert_eq!(decoded, n);
            assert_eq!(heap.live_objects(), n);
            measured.push(allocs);
        }

        // Every reload — regardless of cluster size — costs only the
        // constant bookkeeping.
        for (&n, &allocs) in sizes.iter().zip(&measured) {
            assert!(
                allocs <= 32,
                "{kind} reload of {n} objects performed {allocs} allocations — \
                 per-object intermediates have crept back into the decode path"
            );
        }
        // And the marginal cost of 99 extra objects is zero per object: any
        // per-object Blob/Vec/Bytes intermediate would show up 99 times here.
        let marginal = measured[2].saturating_sub(measured[0]);
        assert!(
            marginal <= 8,
            "{kind}: 100-object reload costs {} more allocations than a 1-object \
             reload (measured: {measured:?}) — the decode path allocates per object",
            marginal
        );
    }
}
