//! Property-based tests of the wire formats: arbitrary blobs round-trip
//! identically through every format, corrupt or truncated input never
//! decodes to a blob, and hostile input never panics the decoder.

#![allow(clippy::disallowed_methods)] // tests may panic on impossible states

use obiwan_core::codec::{Blob, BlobField, BlobObject};
use obiwan_core::materialize::ClusterMaterializer;
use obiwan_core::wire::{self, WireFormatKind, HEADER_LEN, LZ_FLAG};
use obiwan_heap::{ClassBuilder, ClassRegistry, Oid, Value};
use proptest::prelude::*;

fn arb_scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        // Finite doubles only: NaN breaks equality.
        any::<f64>()
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(Value::Double),
        any::<bool>().prop_map(Value::Bool),
        "\\PC{0,24}".prop_map(Value::from),
        proptest::collection::vec(any::<u8>(), 0..64)
            .prop_map(|v| Value::Bytes(bytes::Bytes::from(v))),
    ]
}

fn arb_field() -> impl Strategy<Value = BlobField> {
    prop_oneof![
        3 => arb_scalar().prop_map(BlobField::Scalar),
        1 => (1u64..100).prop_map(|o| BlobField::ProxyRef(Oid(o))),
        1 => (1u64..100).prop_map(|o| BlobField::FaultRef(Oid(o))),
    ]
}

fn arb_blob() -> impl Strategy<Value = Blob> {
    (
        1u32..1000,
        0u32..10,
        proptest::collection::vec(
            (1u64..10_000, proptest::collection::vec(arb_field(), 0..5)),
            1..12,
        ),
    )
        .prop_map(|(swap_cluster, epoch, raw_objects)| {
            let mut seen = std::collections::HashSet::new();
            let mut objects: Vec<BlobObject> = Vec::new();
            for (i, (oid, fields)) in raw_objects.into_iter().enumerate() {
                let oid = if seen.insert(oid) {
                    oid
                } else {
                    20_000 + i as u64
                };
                seen.insert(oid);
                objects.push(BlobObject {
                    oid: Oid(oid),
                    class: "Node".to_string(),
                    repl_cluster: i as u32,
                    fields: fields.into_iter().enumerate().collect(),
                });
            }
            let member_oids: Vec<Oid> = objects.iter().map(|o| o.oid).collect();
            if member_oids.len() > 1 {
                let target = member_oids[member_oids.len() - 1];
                let next_idx = objects[0].fields.len();
                objects[0]
                    .fields
                    .push((next_idx, BlobField::MemberRef(target)));
            }
            Blob {
                swap_cluster,
                epoch,
                objects,
            }
        })
}

/// A "Node" layout wide enough for every field index `arb_blob` emits, so
/// the materializer gets past class resolution.
fn node_registry() -> ClassRegistry {
    let mut reg = ClassRegistry::new();
    let mut node = ClassBuilder::new("Node");
    for i in 0..6 {
        node = node.int_field(format!("f{i}"));
    }
    reg.register(node);
    reg
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn self_describing_dispatch_decodes_every_kind(blob in arb_blob()) {
        // A device fetching a blob does not know its format up front: the
        // frame header (or its absence, for XML text) carries it.
        for kind in WireFormatKind::ALL {
            let data = wire::encode_blob(kind, &blob).expect("encode");
            prop_assert_eq!(wire::decode_blob(&data).expect("decode"), blob.clone());
            let header = wire::peek_header(&data).expect("peek");
            prop_assert_eq!(header.format_id, kind.format_id());
            prop_assert_eq!(header.swap_cluster, blob.swap_cluster);
            prop_assert_eq!(header.epoch, blob.epoch);
        }
    }

    #[test]
    fn framed_formats_reject_truncation_anywhere(blob in arb_blob()) {
        // Cutting a framed encoding at ANY point must fail decode, never
        // silently yield a different blob.
        for kind in [WireFormatKind::Binary, WireFormatKind::LzBinary] {
            let data = wire::encode_blob(kind, &blob).expect("encode");
            for cut in 0..data.len() {
                prop_assert!(
                    wire::decode_blob(&data[..cut]).is_err(),
                    "{kind} truncated at {cut}/{} decoded",
                    data.len()
                );
            }
        }
    }

    #[test]
    fn corrupt_headers_are_rejected(blob in arb_blob()) {
        for kind in [WireFormatKind::Binary, WireFormatKind::LzBinary] {
            let data = wire::encode_blob(kind, &blob).expect("encode");
            // A mangled format-id byte must not decode.
            let mut bad = data.to_vec();
            bad[4] = 0x7e; // no format has this id
            prop_assert!(wire::decode_blob(&bad).is_err());
            // Trailing garbage after a well-formed frame must not decode.
            let mut long = data.to_vec();
            long.push(0);
            prop_assert!(wire::decode_blob(&long).is_err());
        }
    }

    #[test]
    fn hostile_counts_and_flipped_bytes_never_panic(
        blob in arb_blob(),
        count in any::<u64>(),
        flip_at in any::<usize>(),
        flip in 1u8..=255,
    ) {
        // A store hands back whatever bytes it likes: a declared count or
        // any single byte may lie, and decode must answer Ok or Err.
        let bin = wire::encode_blob(WireFormatKind::Binary, &blob).expect("encode");
        // Fewer than 128 objects: the count is the one-byte varint after
        // the header.
        let mut hostile = bin[..HEADER_LEN].to_vec();
        put_varint(&mut hostile, count);
        hostile.extend_from_slice(&bin[HEADER_LEN + 1..]);
        let mut lz = bin[..HEADER_LEN].to_vec();
        lz[4] |= LZ_FLAG;
        lz.extend_from_slice(&obiwan_lz::compress(&hostile));
        for mut data in [hostile, lz] {
            let at = flip_at % data.len();
            data[at] ^= flip;
            let _ = wire::decode_blob(&data);
            let _ = wire::peek_header(&data);
            let mut mat = ClusterMaterializer::new(node_registry(), blob.swap_cluster);
            let _ = wire::decode_blob_into(&bytes::Bytes::from(data), &mut mat);
        }
    }

    #[test]
    fn binary_never_loses_to_xml_on_the_wire(blob in arb_blob()) {
        // The compact format's reason to exist: no angle brackets, no hex
        // doubling of payload bytes.
        let xml = wire::encode_blob(WireFormatKind::Xml, &blob).expect("xml");
        let bin = wire::encode_blob(WireFormatKind::Binary, &blob).expect("binary");
        prop_assert!(
            bin.len() < xml.len(),
            "binary {} B >= xml {} B",
            bin.len(),
            xml.len()
        );
    }
}

#[test]
fn truncated_xml_is_rejected() {
    let blob = Blob {
        swap_cluster: 7,
        epoch: 2,
        objects: vec![BlobObject {
            oid: Oid(42),
            class: "Node".to_string(),
            repl_cluster: 0,
            fields: vec![(0, BlobField::Scalar(Value::Int(-5)))],
        }],
    };
    let data = wire::encode_blob(WireFormatKind::Xml, &blob).expect("encode");
    // XML is headerless text; cutting it mid-document must still error.
    assert!(wire::decode_blob(&data[..data.len() - 4]).is_err());
    // Cutting into the magic-free prefix must not be mistaken for a frame.
    assert!(wire::decode_blob(&data[..3]).is_err());
}

#[test]
fn format_ids_are_stable_wire_constants() {
    // Ids are persisted inside stored blobs: they can never be renumbered.
    assert_eq!(WireFormatKind::Xml.format_id(), 0);
    assert_eq!(WireFormatKind::Binary.format_id(), 1);
    assert_eq!(WireFormatKind::LzBinary.format_id(), 0x81);
}
