//! Equivalence battery for the decode-into-arena path: for random object
//! graphs × every wire format, the streaming [`ClusterMaterializer`]
//! produces a heap state observationally identical to the legacy
//! decode-to-`Blob`-then-allocate path — same handle sequence, same
//! objects, same accounting, same re-encode bytes — and rejects
//! truncated/corrupted frames exactly when the legacy decoder does.

#![allow(clippy::disallowed_methods)] // tests may panic on impossible states

mod support;

use obiwan_core::codec::{Blob, BlobField, BlobObject};
use obiwan_core::materialize::{ClusterMaterializer, Fixup, FixupKind};
use obiwan_core::wire::{decode_blob, decode_blob_into, encode_blob, BlobHeader, WireFormatKind};
use obiwan_heap::{ClassBuilder, ClassRegistry, Heap, ObjRef, ObjectKind, Value};
use proptest::prelude::*;
use support::arb_blob;

/// A six-field "Node" layout — wide enough for every index the generator
/// emits, and wide enough to exercise the spilled field store.
fn registry() -> ClassRegistry {
    let mut reg = ClassRegistry::new();
    reg.register(
        ClassBuilder::new("Node")
            .ref_field("f0")
            .int_field("f1")
            .double_field("f2")
            .bool_field("f3")
            .str_field("f4")
            .bytes_field("f5"),
    );
    reg
}

/// What the legacy reload did with a decoded [`Blob`]: alloc per object
/// (layout-sized, null fields), stamp the header, write each captured
/// scalar through the accounting. Reference fields stay `Null` (both
/// paths defer them to the reconnect pass).
fn legacy_materialize(reg: &ClassRegistry, blob: &Blob) -> (Heap, Vec<ObjRef>) {
    let mut heap = Heap::new(reg.clone(), 1 << 24);
    let mut refs = Vec::new();
    for bo in &blob.objects {
        let class = reg.class_id(&bo.class).unwrap();
        let r = heap.alloc(class, ObjectKind::App).unwrap();
        {
            let h = heap.header_mut(r).unwrap();
            h.oid = bo.oid;
            h.repl_cluster = bo.repl_cluster;
            h.swap_cluster = blob.swap_cluster;
        }
        for (i, f) in &bo.fields {
            if let BlobField::Scalar(v) = f {
                heap.set_any_field(r, *i, v.clone()).unwrap();
            }
        }
        refs.push(r);
    }
    (heap, refs)
}

/// The arena path: stream the wire bytes through the materializer, adopt
/// the detached objects in stream order.
fn arena_materialize(
    reg: &ClassRegistry,
    data: &bytes::Bytes,
    sc: u32,
) -> (Heap, Vec<ObjRef>, Vec<Fixup>, BlobHeader) {
    let mut mat = ClusterMaterializer::new(reg.clone(), sc);
    let header = decode_blob_into(data, &mut mat).unwrap();
    let (objects, fixups) = mat.into_parts();
    let mut heap = Heap::new(reg.clone(), 1 << 24);
    heap.reserve_slots(objects.len());
    let refs = objects
        .into_iter()
        .map(|(_, o)| heap.adopt(o).unwrap())
        .collect();
    (heap, refs, fixups, header)
}

/// The fixups a blob should produce, in stream order.
fn expected_fixups(blob: &Blob) -> Vec<Fixup> {
    let mut out = Vec::new();
    for (ordinal, bo) in blob.objects.iter().enumerate() {
        for (i, f) in &bo.fields {
            let (kind, oid) = match f {
                BlobField::MemberRef(o) => (FixupKind::Member, *o),
                BlobField::ProxyRef(o) => (FixupKind::Proxy, *o),
                BlobField::FaultRef(o) => (FixupKind::Fault, *o),
                BlobField::Scalar(_) => continue,
            };
            out.push(Fixup {
                ordinal: ordinal as u32,
                field: *i as u32,
                kind,
                oid,
            });
        }
    }
    out
}

/// Rebuild the `Blob` IR from the arena heap state + fixups — this is the
/// "re-encode bytes" leg of the observational equivalence.
fn rebuild_blob(heap: &Heap, refs: &[ObjRef], fixups: &[Fixup], sc: u32, epoch: u32) -> Blob {
    let objects = refs
        .iter()
        .enumerate()
        .map(|(ordinal, &r)| {
            let o = heap.get(r).unwrap();
            let mut fields: Vec<(usize, BlobField)> = o
                .fields()
                .iter()
                .enumerate()
                .filter(|(_, v)| !matches!(v, Value::Null))
                .map(|(i, v)| (i, BlobField::Scalar(v.clone())))
                .collect();
            for f in fixups.iter().filter(|f| f.ordinal as usize == ordinal) {
                fields.push((
                    f.field as usize,
                    match f.kind {
                        FixupKind::Member => BlobField::MemberRef(f.oid),
                        FixupKind::Proxy => BlobField::ProxyRef(f.oid),
                        FixupKind::Fault => BlobField::FaultRef(f.oid),
                    },
                ));
            }
            fields.sort_by_key(|(i, _)| *i);
            BlobObject {
                oid: o.header().oid,
                class: heap.classes().class(o.class()).unwrap().name().to_string(),
                repl_cluster: o.header().repl_cluster,
                fields,
            }
        })
        .collect();
    Blob {
        swap_cluster: sc,
        epoch,
        objects,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arena_decode_is_observationally_identical_to_legacy(blob in arb_blob()) {
        let reg = registry();
        for kind in WireFormatKind::ALL {
            let bytes = encode_blob(kind, &blob).unwrap();

            // Legacy leg: bytes → Blob IR → per-object alloc + field writes.
            let legacy = decode_blob(&bytes).unwrap();
            prop_assert_eq!(&legacy, &blob, "{} roundtrip", kind);
            let (heap_l, refs_l) = legacy_materialize(&reg, &legacy);

            // Arena leg: bytes → materializer → adopt.
            let (heap_a, refs_a, fixups, header) = arena_materialize(&reg, &bytes, blob.swap_cluster);
            prop_assert_eq!(header.swap_cluster, blob.swap_cluster);
            prop_assert_eq!(header.epoch, blob.epoch);

            // Identical handle sequences (index AND generation), identical
            // objects behind them, identical accounting.
            prop_assert_eq!(&refs_a, &refs_l, "{} handle sequence", kind);
            for &r in &refs_a {
                prop_assert_eq!(heap_a.get(r).unwrap(), heap_l.get(r).unwrap(),
                    "{} object state at {}", kind, r);
            }
            prop_assert_eq!(heap_a.bytes_used(), heap_l.bytes_used(), "{} accounting", kind);
            prop_assert_eq!(heap_a.live_objects(), heap_l.live_objects());

            // The deferred reference fields match the blob's, in stream order.
            prop_assert_eq!(&fixups, &expected_fixups(&blob), "{} fixups", kind);

            // Re-encode leg: the arena state + fixups reconstruct the exact
            // original wire bytes.
            let rebuilt = rebuild_blob(&heap_a, &refs_a, &fixups, blob.swap_cluster, blob.epoch);
            prop_assert_eq!(&rebuilt, &blob, "{} rebuild", kind);
            prop_assert_eq!(
                encode_blob(kind, &rebuilt).unwrap(),
                bytes,
                "{} re-encode bytes", kind
            );
        }
    }

    #[test]
    fn truncation_and_corruption_rejection_parity(blob in arb_blob(), seed in any::<u64>()) {
        let reg = registry();
        for kind in WireFormatKind::ALL {
            let bytes = encode_blob(kind, &blob).unwrap().to_vec();

            let parity = |data: &[u8]| {
                let legacy_ok = decode_blob(data).is_ok();
                let mut mat = ClusterMaterializer::new(reg.clone(), blob.swap_cluster);
                let arena_ok =
                    decode_blob_into(&bytes::Bytes::copy_from_slice(data), &mut mat).is_ok();
                (legacy_ok, arena_ok)
            };

            // Both accept the intact frame.
            prop_assert_eq!(parity(&bytes), (true, true), "{} intact", kind);

            // Truncations: acceptance parity at every prefix (XML may shrug
            // off a trailing-whitespace cut — both decoders must agree
            // either way), and the framed formats must hard-reject.
            for cut in [0, 1, 4, bytes.len() / 3, bytes.len() / 2, bytes.len() - 1] {
                let (l, a) = parity(&bytes[..cut]);
                prop_assert_eq!(l, a, "{} truncated at {}", kind, cut);
                if kind != WireFormatKind::Xml {
                    prop_assert!(!l, "{} truncation at {} must be rejected", kind, cut);
                }
            }

            // Header corruption: flip one byte in the self-describing
            // header region; acceptance must agree bit-for-bit.
            let header_len = bytes.len().min(13);
            let at = (seed as usize) % header_len;
            let bit = 1u8 << ((seed >> 8) % 8);
            let mut corrupt = bytes.clone();
            corrupt[at] ^= bit;
            let (l, a) = parity(&corrupt);
            prop_assert_eq!(l, a, "{} header flip at {} bit {:#04x}", kind, at, bit);
        }
    }
}

/// End-to-end: full swap-out → swap-in cycles through every wire format
/// leave an audit-clean middleware and an unchanged application graph —
/// the "same audit report" leg of the equivalence, exercised against the
/// real reload (reconnects, inbound patches, registration) rather than
/// scratch heaps.
#[test]
fn swap_cycles_stay_audit_clean_in_every_format() {
    use obiwan_core::Middleware;
    use obiwan_replication::{Server, UniverseBuilder};

    for kind in WireFormatKind::ALL {
        let mut b = UniverseBuilder::new();
        let cell = b.class(
            ClassBuilder::new("Cell")
                .ref_field("next")
                .int_field("seq")
                .bytes_field("payload"),
        );
        b.method(cell, "value", |p, this, _args| p.field_value(this, "seq"));
        b.method(cell, "next", |p, this, _args| p.field_value(this, "next"));
        let mut server = Server::new(b.build());
        let mut oids = Vec::new();
        for i in 0..60i64 {
            let oid = server.create("Cell").unwrap();
            server
                .set_scalar(oid, "seq", Value::Int(i * 31 + 7))
                .unwrap();
            server
                .set_scalar(
                    oid,
                    "payload",
                    Value::Bytes(bytes::Bytes::from(vec![(i % 251) as u8; 48])),
                )
                .unwrap();
            oids.push(oid);
        }
        for w in oids.windows(2) {
            server.set_ref(w[0], "next", Some(w[1])).unwrap();
        }
        let head = oids[0];
        let mut mw = Middleware::builder()
            .cluster_size(6)
            .device_memory(1 << 20)
            .wire_format(kind)
            .no_builtin_policies()
            .build(server);
        let root = mw.replicate_root(head).unwrap();
        mw.set_global("head", Value::Ref(root));

        let fingerprint = |mw: &mut Middleware| -> Vec<i64> {
            let mut out = Vec::new();
            mw.set_global("cursor", Value::Ref(root));
            loop {
                let cur = mw.global("cursor").unwrap().expect_ref().unwrap();
                out.push(
                    mw.invoke(cur, "value", vec![])
                        .unwrap()
                        .expect_int()
                        .unwrap(),
                );
                match mw.invoke(cur, "next", vec![]).unwrap() {
                    Value::Ref(next) => mw.set_global("cursor", Value::Ref(next)),
                    _ => break,
                }
            }
            out
        };
        let baseline = fingerprint(&mut mw);
        assert_eq!(baseline.len(), 60, "{kind}");

        // Two explicit swap cycles plus a full re-walk (which itself
        // triggers reload-on-access for anything still out).
        for sc in [1u32, 2] {
            mw.swap_out(sc)
                .unwrap_or_else(|e| panic!("{kind}: swap_out({sc}): {e}"));
        }
        let report = mw.audit();
        assert!(report.is_clean(), "{kind} after swap-out: {report:?}");
        for sc in [1u32, 2] {
            mw.swap_in(sc)
                .unwrap_or_else(|e| panic!("{kind}: swap_in({sc}): {e}"));
        }
        assert_eq!(fingerprint(&mut mw), baseline, "{kind} graph changed");
        let report = mw.audit();
        assert!(report.is_clean(), "{kind} after swap-in: {report:?}");
    }
}
