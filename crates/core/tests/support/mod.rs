//! Shared proptest generators for the swap-blob codec tests.

use obiwan_core::codec::{Blob, BlobField, BlobObject};
use obiwan_heap::{Oid, Value};
use proptest::prelude::*;

pub fn arb_scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        // Finite doubles only: NaN breaks equality (and the wire format
        // uses Rust's shortest-roundtrip notation, which is exact for
        // finite values).
        any::<f64>()
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(Value::Double),
        any::<bool>().prop_map(Value::Bool),
        "\\PC{0,24}".prop_map(Value::from),
        proptest::collection::vec(any::<u8>(), 0..64)
            .prop_map(|v| Value::Bytes(bytes::Bytes::from(v))),
    ]
}

pub fn arb_field() -> impl Strategy<Value = BlobField> {
    prop_oneof![
        3 => arb_scalar().prop_map(BlobField::Scalar),
        1 => (1u64..100).prop_map(|o| BlobField::ProxyRef(Oid(o))),
        1 => (1u64..100).prop_map(|o| BlobField::FaultRef(Oid(o))),
    ]
}

pub fn arb_blob() -> impl Strategy<Value = Blob> {
    (
        1u32..1000,
        0u32..10,
        proptest::collection::vec(
            (1u64..10_000, proptest::collection::vec(arb_field(), 0..5)),
            1..12,
        ),
    )
        .prop_map(|(swap_cluster, epoch, raw_objects)| {
            // Deduplicate oids (an object appears once per blob).
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
            // Add member-to-member references (valid targets only).
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
