//! Differential test of the XML reload decoder against a DOM oracle.
//!
//! The oracle parses the whole document with [`Element::parse`], then
//! walks the tree. It uses only the public `obiwan_xml` DOM API and shares
//! the decoder's hex rule (pairs of ASCII hex digits, surrounding
//! whitespace ignored). For random blobs,
//! every truncation of them, single-byte mutations and hand-written
//! structural cases, `wire::decode_blob` must accept exactly what the
//! oracle accepts and produce the same [`Blob`].

#![allow(clippy::disallowed_methods)] // tests may panic on impossible states

mod support;

use bytes::Bytes;
use obiwan_core::codec::{Blob, BlobField, BlobObject};
use obiwan_core::materialize::ClusterMaterializer;
use obiwan_core::wire::{decode_blob, decode_blob_into, encode_blob, WireFormatKind};
use obiwan_core::SwapError;
use obiwan_heap::{ClassBuilder, ClassRegistry, Oid, Value};
use obiwan_xml::Element;
use proptest::prelude::*;
use support::arb_blob;

/// The DOM walk: `None` where it rejects the input.
fn oracle(data: &[u8]) -> Option<Blob> {
    let root = Element::parse(std::str::from_utf8(data).ok()?).ok()?;
    if root.name() != "swap-cluster" {
        return None;
    }
    let swap_cluster = root.parse_attr("id").ok()?;
    let epoch = root.parse_attr("epoch").ok()?;
    let count: usize = root.parse_attr("count").ok()?;
    let mut objects = Vec::new();
    for el in root.children_named("object") {
        objects.push(BlobObject {
            oid: Oid(el.parse_attr("oid").ok()?),
            class: el.require_attr("class").ok()?.to_string(),
            repl_cluster: el.parse_attr("repl").ok()?,
            fields: el
                .children_named("field")
                .map(oracle_field)
                .collect::<Option<_>>()?,
        });
    }
    (objects.len() == count).then_some(Blob {
        swap_cluster,
        epoch,
        objects,
    })
}

fn oracle_field(el: &Element) -> Option<(usize, BlobField)> {
    let i = el.parse_attr("i").ok()?;
    let field = match el.require_attr("kind").ok()? {
        "ref" => BlobField::MemberRef(Oid(el.parse_attr("oid").ok()?)),
        "proxyref" => BlobField::ProxyRef(Oid(el.parse_attr("oid").ok()?)),
        "faultref" => BlobField::FaultRef(Oid(el.parse_attr("oid").ok()?)),
        "int" => BlobField::Scalar(Value::Int(el.parse_attr("v").ok()?)),
        "double" => BlobField::Scalar(Value::Double(el.parse_attr("v").ok()?)),
        "bool" => BlobField::Scalar(Value::Bool(el.parse_attr("v").ok()?)),
        "str" => BlobField::Scalar(Value::from(el.text())),
        "bytes" => BlobField::Scalar(Value::Bytes(oracle_hex(el.text())?)),
        _ => return None,
    };
    Some((i, field))
}

fn oracle_hex(text: &str) -> Option<Bytes> {
    let digits = text.trim().as_bytes();
    if !digits.len().is_multiple_of(2) || !digits.iter().all(u8::is_ascii_hexdigit) {
        return None;
    }
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).ok()?, 16).ok())
        .collect()
}

/// The streaming decoder and the oracle agree on `data`.
fn agree(data: &[u8]) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        decode_blob(data).ok(),
        oracle(data),
        "on {:?}",
        String::from_utf8_lossy(data)
    );
    Ok(())
}

/// Bytes a single-byte mutation writes: markup, entity and digit
/// characters, whitespace, and the lead byte of a two-byte character.
const MUTATIONS: &[u8] = b"<>/=\"'&;# \nx0aG-+\xc3";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn stream_decoder_matches_the_dom_oracle(blob in arb_blob(), seed in any::<u64>()) {
        let xml = encode_blob(WireFormatKind::Xml, &blob).unwrap();
        prop_assert_eq!(oracle(&xml), Some(blob.clone()));
        prop_assert_eq!(decode_blob(&xml).unwrap(), blob);
        for cut in 0..xml.len() {
            agree(&xml[..cut])?;
        }
        let mut mutated = xml.to_vec();
        for at in 0..xml.len() {
            let with = MUTATIONS[(seed as usize).wrapping_add(at) % MUTATIONS.len()];
            mutated[at] = with;
            agree(&mutated)?;
            mutated[at] = xml[at] ^ (1 << ((seed >> 8) % 7));
            agree(&mutated)?;
            mutated[at] = xml[at];
        }
    }
}

/// A one-object blob around `fields`.
fn one_object(fields: &str) -> String {
    format!(
        r#"<swap-cluster id="1" epoch="2" count="1"><object oid="7" class="Node" repl="3">{fields}</object></swap-cluster>"#
    )
}

fn node(fields: Vec<(usize, BlobField)>) -> Blob {
    Blob {
        swap_cluster: 1,
        epoch: 2,
        objects: vec![BlobObject {
            oid: Oid(7),
            class: "Node".into(),
            repl_cluster: 3,
            fields,
        }],
    }
}

fn bytes_field(i: usize, b: &'static [u8]) -> (usize, BlobField) {
    (i, BlobField::Scalar(Value::Bytes(Bytes::from_static(b))))
}

#[test]
fn structural_cases_match_the_oracle() {
    let accepted = [
        // Unknown elements at every depth, and an <object> nested in an
        // unknown element, which is not a member.
        (
            r#"<swap-cluster id="1" epoch="2" count="1"><meta><object oid="9" class="X" repl="0"/></meta><object oid="7" class="Node" repl="3"><note a="1">hi<field i="0" kind="int" v="1"/></note><field i="1" kind="bytes">0a<x>ff</x>0b</field></object><tail/></swap-cluster>"#.to_string(),
            node(vec![bytes_field(1, &[0x0a, 0x0b])]),
        ),
        // Text in the root and in an object; a field's direct text joins
        // across a comment.
        (
            r#"<swap-cluster id="1" epoch="2" count="1">stray<object oid="7" class="Node" repl="3">loose<field i="0" kind="str">a<!-- c -->b</field></object>tail</swap-cluster>"#.to_string(),
            node(vec![(0, BlobField::Scalar(Value::from("ab")))]),
        ),
        // Entity-escaped and CDATA hex.
        (
            one_object(r#"<field i="0" kind="bytes">&#48;&#49;<![CDATA[ff]]></field>"#),
            node(vec![bytes_field(0, &[0x01, 0xff])]),
        ),
        // The first attribute of a name wins.
        (
            one_object(r#"<field i="0" i="5" kind="int" kind="warp" v="-4" v="x"/>"#),
            node(vec![(0, BlobField::Scalar(Value::Int(-4)))]),
        ),
        // Surrounding whitespace of a payload, and upper-case digits.
        (
            one_object("<field i=\"2\" kind=\"bytes\">\n  0A0b\n</field>"),
            node(vec![bytes_field(2, &[0x0a, 0x0b])]),
        ),
        // A self-closing empty root, with trailing whitespace and comment.
        (
            "<?xml version=\"1.0\"?>\n<swap-cluster id=\"1\" epoch=\"2\" count=\"0\"/>\n<!-- end -->\n"
                .to_string(),
            Blob {
                swap_cluster: 1,
                epoch: 2,
                objects: Vec::new(),
            },
        ),
    ];
    for (xml, blob) in &accepted {
        assert_eq!(
            oracle(xml.as_bytes()).as_ref(),
            Some(blob),
            "oracle on {xml}"
        );
        assert_eq!(
            decode_blob(xml.as_bytes()).unwrap(),
            *blob,
            "decoder on {xml}"
        );
    }
    let rejected = [
        // A trailing element, trailing text, or no end of the root.
        r#"<swap-cluster id="1" epoch="2" count="0"/><swap-cluster id="1" epoch="2" count="0"/>"#
            .to_string(),
        r#"<swap-cluster id="1" epoch="2" count="0"/>text"#.to_string(),
        r#"<swap-cluster id="1" epoch="2" count="0">"#.to_string(),
        // A missing or disagreeing count.
        r#"<swap-cluster id="1" epoch="2"/>"#.to_string(),
        r#"<swap-cluster id="1" epoch="2" count="1"/>"#.to_string(),
        // A different root, an empty document, text before the root.
        r#"<blob id="1" epoch="2" count="0"/>"#.to_string(),
        String::new(),
        r#"x<swap-cluster id="1" epoch="2" count="0"/>"#.to_string(),
        // Bad attributes and kinds.
        one_object(r#"<field kind="int" v="1"/>"#),
        one_object(r#"<field i="0" kind="int" v="1.5"/>"#),
        one_object(r#"<field i="0" kind="warp"/>"#),
        one_object(r#"<field i="0" kind="ref"/>"#),
        // Malformed markup after the last object.
        format!("{}<", one_object("")),
    ];
    for xml in &rejected {
        assert_eq!(oracle(xml.as_bytes()), None, "oracle on {xml:?}");
        assert!(decode_blob(xml.as_bytes()).is_err(), "decoder on {xml:?}");
    }
}

#[test]
fn hostile_hex_payloads_are_rejected_without_panicking() {
    let mut reg = ClassRegistry::new();
    reg.register(ClassBuilder::new("Node").bytes_field("payload"));
    for payload in ["aé0", "+a0f", "-a0f", "0x", "abc", "é"] {
        let xml = one_object(&format!(r#"<field i="0" kind="bytes">{payload}</field>"#));
        assert_eq!(oracle(xml.as_bytes()), None, "{payload:?}");
        assert!(
            matches!(decode_blob(xml.as_bytes()), Err(SwapError::Codec { .. })),
            "decode_blob accepted {payload:?}"
        );
        let mut mat = ClusterMaterializer::new(reg.clone(), 1);
        assert!(
            matches!(
                decode_blob_into(&Bytes::from(xml.clone()), &mut mat),
                Err(SwapError::Codec { .. })
            ),
            "decode_blob_into accepted {payload:?}"
        );
    }
}
