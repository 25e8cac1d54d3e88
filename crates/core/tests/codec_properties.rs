//! Property-based tests of the swap-blob codec: arbitrary decoded blobs
//! round-trip through the XML text exactly, and the full
//! swap-out → reload cycle is lossless for arbitrary cluster shapes.

#![allow(clippy::disallowed_methods)] // tests may panic on impossible states

mod support;

use obiwan_core::codec::{Blob, BlobField};
use obiwan_core::wire::{decode_blob, encode_blob, WireFormatKind};
use obiwan_heap::Value;
use obiwan_xml::{Element, Writer};
use proptest::prelude::*;
use support::arb_blob;

/// Render a structured blob back to the wire format (the inverse the
/// production code performs from live heap objects).
fn render(blob: &Blob) -> String {
    let mut w = Writer::new();
    w.begin("swap-cluster")
        .unwrap()
        .attr("id", blob.swap_cluster.to_string())
        .unwrap()
        .attr("epoch", blob.epoch.to_string())
        .unwrap()
        .attr("count", blob.objects.len().to_string())
        .unwrap();
    for o in &blob.objects {
        w.begin("object")
            .unwrap()
            .attr("oid", o.oid.0.to_string())
            .unwrap()
            .attr("class", &o.class)
            .unwrap()
            .attr("repl", o.repl_cluster.to_string())
            .unwrap();
        for (i, f) in &o.fields {
            match f {
                BlobField::MemberRef(oid) => {
                    w.begin("field")
                        .unwrap()
                        .attr("i", i.to_string())
                        .unwrap()
                        .attr("kind", "ref")
                        .unwrap()
                        .attr("oid", oid.0.to_string())
                        .unwrap();
                    w.end().unwrap();
                }
                BlobField::ProxyRef(oid) => {
                    w.begin("field")
                        .unwrap()
                        .attr("i", i.to_string())
                        .unwrap()
                        .attr("kind", "proxyref")
                        .unwrap()
                        .attr("oid", oid.0.to_string())
                        .unwrap();
                    w.end().unwrap();
                }
                BlobField::FaultRef(oid) => {
                    w.begin("field")
                        .unwrap()
                        .attr("i", i.to_string())
                        .unwrap()
                        .attr("kind", "faultref")
                        .unwrap()
                        .attr("oid", oid.0.to_string())
                        .unwrap();
                    w.end().unwrap();
                }
                BlobField::Scalar(v) => {
                    w.begin("field").unwrap().attr("i", i.to_string()).unwrap();
                    match v {
                        Value::Int(x) => {
                            w.attr("kind", "int")
                                .unwrap()
                                .attr("v", x.to_string())
                                .unwrap();
                        }
                        Value::Double(x) => {
                            w.attr("kind", "double")
                                .unwrap()
                                .attr("v", format!("{x:?}"))
                                .unwrap();
                        }
                        Value::Bool(x) => {
                            w.attr("kind", "bool")
                                .unwrap()
                                .attr("v", x.to_string())
                                .unwrap();
                        }
                        Value::Str(s) => {
                            w.attr("kind", "str").unwrap();
                            w.text(s).unwrap();
                        }
                        Value::Bytes(b) => {
                            w.attr("kind", "bytes").unwrap();
                            let hex: String = b.iter().map(|x| format!("{x:02x}")).collect();
                            w.text(&hex).unwrap();
                        }
                        Value::Null | Value::Ref(_) => unreachable!("not scalars"),
                    }
                    w.end().unwrap();
                }
            }
        }
        w.end().unwrap();
    }
    w.end().unwrap();
    w.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn structured_blobs_roundtrip_through_xml(blob in arb_blob()) {
        let xml = render(&blob);
        let back = decode_blob(xml.as_bytes()).expect("well-formed by construction");
        prop_assert_eq!(back, blob);
    }

    #[test]
    fn wire_xml_format_is_byte_identical_to_the_reference_renderer(blob in arb_blob()) {
        // The wire encoder must not change a single byte of the XML text:
        // blobs already stored on devices stay decodable, and the paper's
        // portability argument keeps holding verbatim.
        let ours = encode_blob(WireFormatKind::Xml, &blob).expect("encode");
        let reference = render(&blob);
        prop_assert_eq!(&ours[..], reference.as_bytes());
    }

    #[test]
    fn blob_text_survives_foreign_reformatting(blob in arb_blob()) {
        let xml = render(&blob);
        // A storage device may re-serialize the text with its own XML
        // stack; decode must not care.
        let reformatted = Element::parse(&xml).expect("parse").to_xml();
        let a = decode_blob(xml.as_bytes()).expect("original");
        let b = decode_blob(reformatted.as_bytes()).expect("reformatted");
        prop_assert_eq!(a, b);
    }
}

#[test]
fn live_swap_cycle_is_lossless_for_every_scalar_kind() {
    // End-to-end: a cluster whose objects carry every field kind survives
    // swap-out + reload byte-exactly. Uses a custom class to cover str,
    // double and bool fields that the Node workload lacks.
    use obiwan_core::Middleware;
    use obiwan_heap::ClassBuilder;
    use obiwan_replication::{Server, UniverseBuilder};

    let mut b = UniverseBuilder::new();
    let rec = b.class(
        ClassBuilder::new("Record")
            .ref_field("next")
            .int_field("count")
            .double_field("ratio")
            .bool_field("flag")
            .str_field("label")
            .bytes_field("payload"),
    );
    b.method(rec, "snapshot", |p, this, _args| {
        let label = p.field_value(this, "label")?;
        let count = p.field_value(this, "count")?.expect_int()?;
        let ratio = p.field_value(this, "ratio")?.expect_double()?;
        let flag = p.field_value(this, "flag")?.expect_bool()?;
        let payload_len = match p.field_value(this, "payload")? {
            Value::Bytes(b) => b.len() as i64,
            _ => -1,
        };
        Ok(Value::from(format!(
            "{label}|{count}|{ratio}|{flag}|{payload_len}"
        )))
    });
    b.method(rec, "next", |p, this, _args| p.field_value(this, "next"));
    let u = b.build();
    let mut server = Server::new(u);
    let mut oids = Vec::new();
    for i in 0..8i64 {
        let oid = server.create("Record").unwrap();
        server
            .set_scalar(oid, "count", Value::Int(i * 7 - 3))
            .unwrap();
        server
            .set_scalar(oid, "ratio", Value::Double(0.5 + i as f64 / 3.0))
            .unwrap();
        server
            .set_scalar(oid, "flag", Value::Bool(i % 2 == 0))
            .unwrap();
        server
            .set_scalar(oid, "label", Value::from(format!("récord <{i}> & co")))
            .unwrap();
        server
            .set_scalar(
                oid,
                "payload",
                Value::Bytes(bytes::Bytes::from(vec![i as u8; 16 + i as usize])),
            )
            .unwrap();
        oids.push(oid);
    }
    for w in oids.windows(2) {
        server.set_ref(w[0], "next", Some(w[1])).unwrap();
    }

    let mut mw = Middleware::builder()
        .cluster_size(4)
        .device_memory(1 << 20)
        .no_builtin_policies()
        .build(server);
    let root = mw.replicate_root(oids[0]).unwrap();
    mw.set_global("head", Value::Ref(root));
    let fingerprint = |mw: &mut Middleware| -> Vec<String> {
        let mut out = Vec::new();
        mw.set_global("cursor", Value::Ref(root));
        loop {
            let cur = mw.global("cursor").unwrap().expect_ref().unwrap();
            let snap = mw.invoke(cur, "snapshot", vec![]).unwrap();
            out.push(snap.expect_str().unwrap().to_string());
            match mw.invoke(cur, "next", vec![]).unwrap() {
                Value::Ref(next) => mw.set_global("cursor", Value::Ref(next)),
                _ => break,
            }
        }
        out
    };
    let baseline = fingerprint(&mut mw);
    assert_eq!(baseline.len(), 8);
    mw.swap_out(1).unwrap();
    mw.swap_out(2).unwrap();
    assert_eq!(fingerprint(&mut mw), baseline);
}
