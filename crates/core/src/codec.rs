//! The capture layer, plus the paper-faithful XML dialect of the [`Blob`]
//! IR.
//!
//! * [`capture`] walks the heap graph and produces a pure [`Blob`] IR.
//!   Every invariant check lives here — in particular the rule that any
//!   cross-swap-cluster reference must be mediated by a proxy.
//! * [`render_xml`] writes a [`Blob`] as XML text, and `decode_xml_into`
//!   streams XML text back into a [`BlobSink`]. The format table and the
//!   decode dispatch over every format live in [`wire`](crate::wire).
//!
//! The portability argument of the paper rests on the XML artifact: a
//! swapped-out cluster travels as self-describing XML text, so the storing
//! device needs no VM, no middleware, no class files — only the ability to
//! store, return, or drop keyed text. XML therefore stays the default wire
//! format, byte-for-byte as before the split.
//!
//! Wire format (pretty-printed):
//!
//! ```xml
//! <swap-cluster id="2" epoch="0" count="2">
//!   <object oid="42" class="Node" repl="4">
//!     <field i="0" kind="ref" oid="43"/>        <!-- in-cluster reference -->
//!     <field i="1" kind="bytes">00ff41…</field> <!-- payload, hex -->
//!   </object>
//!   <object oid="43" class="Node" repl="4">
//!     <field i="0" kind="proxyref" oid="60"/>   <!-- via an outbound swap-proxy -->
//!     <field i="1" kind="faultref" oid="61"/>   <!-- to a not-yet-replicated object -->
//!   </object>
//! </swap-cluster>
//! ```
//!
//! `ref` points at another member of the same blob; `proxyref` records that
//! the field went through an outbound swap-cluster-proxy (kept alive by the
//! replacement-object, reconnected on reload); `faultref` records a
//! reference to an object that had not been replicated at swap-out time.
//! Null fields are omitted.

use crate::wire::{BlobHeader, BlobSink, XML_FORMAT_ID};
use crate::{Result, SwapError};
use bytes::Bytes;
use obiwan_heap::{ObjRef, ObjectKind, Oid, Value};
use obiwan_replication::Process;
use obiwan_xml::{Element, Writer};
use std::collections::BTreeMap;

/// A decoded field of a blob object.
#[derive(Debug, Clone, PartialEq)]
pub enum BlobField {
    /// A non-reference value.
    Scalar(Value),
    /// Reference to another member of the same blob.
    MemberRef(Oid),
    /// Reference that was mediated by an outbound swap-cluster-proxy.
    ProxyRef(Oid),
    /// Reference to a not-yet-replicated identity (was a fault proxy).
    FaultRef(Oid),
}

/// A decoded blob object.
#[derive(Debug, Clone, PartialEq)]
pub struct BlobObject {
    /// Identity.
    pub oid: Oid,
    /// Class name (resolved against the registry at reload).
    pub class: String,
    /// Replication cluster tag the replica carried.
    pub repl_cluster: u32,
    /// Non-null fields as `(layout index, field)`.
    pub fields: Vec<(usize, BlobField)>,
}

/// A decoded blob.
#[derive(Debug, Clone, PartialEq)]
pub struct Blob {
    /// The swap-cluster id.
    pub swap_cluster: u32,
    /// Swap-out epoch the blob was written at.
    pub epoch: u32,
    /// Member objects.
    pub objects: Vec<BlobObject>,
}

/// Capture the members of swap-cluster `sc` as a pure [`Blob`] IR.
///
/// All invariant checks happen here, so every wire format serializes an
/// already-validated blob.
///
/// # Errors
///
/// [`SwapError::Codec`] if a member holds a direct reference to an object
/// outside the cluster that is neither a proxy nor a fault proxy — that
/// would violate the invariant that every cross-swap-cluster reference is
/// mediated.
pub fn capture(p: &Process, sc: u32, epoch: u32, members: &[ObjRef]) -> Result<Blob> {
    let member_oids: BTreeMap<ObjRef, Oid> = members
        .iter()
        .map(|&m| Ok((m, p.heap().get(m)?.header().oid)))
        .collect::<Result<_>>()?;
    let mut objects = Vec::with_capacity(members.len());
    for &m in members {
        let obj = p.heap().get(m)?;
        let class = p.universe().registry.class(obj.class())?.name().to_string();
        let mut fields = Vec::new();
        for (i, v) in obj.fields().iter().enumerate() {
            if let Some(f) = capture_field(p, &member_oids, i, v)? {
                fields.push((i, f));
            }
        }
        objects.push(BlobObject {
            oid: obj.header().oid,
            class,
            repl_cluster: obj.header().repl_cluster,
            fields,
        });
    }
    Ok(Blob {
        swap_cluster: sc,
        epoch,
        objects,
    })
}

fn capture_field(
    p: &Process,
    member_oids: &BTreeMap<ObjRef, Oid>,
    i: usize,
    v: &Value,
) -> Result<Option<BlobField>> {
    match v {
        Value::Null => Ok(None),
        Value::Ref(r) => {
            if let Some(&oid) = member_oids.get(r) {
                return Ok(Some(BlobField::MemberRef(oid)));
            }
            let target = p.heap().get(*r)?;
            match target.kind() {
                ObjectKind::SwapProxy => {
                    Ok(Some(BlobField::ProxyRef(crate::proxy::oid_of(p, *r)?)))
                }
                ObjectKind::FaultProxy => Ok(Some(BlobField::FaultRef(target.header().oid))),
                other => Err(SwapError::codec(format!(
                    "member field {i} holds an unmediated cross-cluster \
                     reference to a {other} object"
                ))),
            }
        }
        scalar => Ok(Some(BlobField::Scalar(scalar.clone()))),
    }
}

/// Render a captured [`Blob`] as the paper's pretty-printed XML dialect.
///
/// # Errors
///
/// XML writer errors, or [`SwapError::Codec`] if the blob contains a null
/// scalar (null fields are represented by omission; a captured blob never
/// holds one).
pub fn render_xml(blob: &Blob) -> Result<String> {
    let mut w = Writer::new();
    w.begin("swap-cluster")?
        .attr("id", blob.swap_cluster.to_string())?
        .attr("epoch", blob.epoch.to_string())?
        .attr("count", blob.objects.len().to_string())?;
    for obj in &blob.objects {
        w.begin("object")?
            .attr("oid", obj.oid.0.to_string())?
            .attr("class", &obj.class)?
            .attr("repl", obj.repl_cluster.to_string())?;
        for (i, f) in &obj.fields {
            render_field(&mut w, *i, f)?;
        }
        w.end()?;
    }
    w.end()?;
    Ok(w.finish()?)
}

fn render_field(w: &mut Writer, i: usize, f: &BlobField) -> Result<()> {
    let render_ref = |w: &mut Writer, kind: &str, oid: Oid| -> Result<()> {
        w.begin("field")?
            .attr("i", i.to_string())?
            .attr("kind", kind)?
            .attr("oid", oid.0.to_string())?;
        w.end()?;
        Ok(())
    };
    match f {
        BlobField::MemberRef(oid) => render_ref(w, "ref", *oid)?,
        BlobField::ProxyRef(oid) => render_ref(w, "proxyref", *oid)?,
        BlobField::FaultRef(oid) => render_ref(w, "faultref", *oid)?,
        BlobField::Scalar(Value::Int(x)) => {
            w.begin("field")?
                .attr("i", i.to_string())?
                .attr("kind", "int")?
                .attr("v", x.to_string())?;
            w.end()?;
        }
        BlobField::Scalar(Value::Double(x)) => {
            w.begin("field")?
                .attr("i", i.to_string())?
                .attr("kind", "double")?
                .attr("v", format!("{x:?}"))?;
            w.end()?;
        }
        BlobField::Scalar(Value::Bool(x)) => {
            w.begin("field")?
                .attr("i", i.to_string())?
                .attr("kind", "bool")?
                .attr("v", x.to_string())?;
            w.end()?;
        }
        BlobField::Scalar(Value::Str(s)) => {
            w.begin("field")?
                .attr("i", i.to_string())?
                .attr("kind", "str")?;
            w.text(s)?;
            w.end()?;
        }
        BlobField::Scalar(Value::Bytes(b)) => {
            w.begin("field")?
                .attr("i", i.to_string())?
                .attr("kind", "bytes")?;
            w.text(&hex_encode(b))?;
            w.end()?;
        }
        BlobField::Scalar(Value::Null | Value::Ref(_)) => {
            return Err(SwapError::codec(format!(
                "field {i}: blob IR holds a raw null/ref scalar — capture \
                 never produces one"
            )));
        }
    }
    Ok(())
}

/// Stream blob XML into `sink` in document order: `begin`, then per
/// `<object>` a `begin_object` and its fields. Parse errors surface in
/// document order; a `count` attribute that disagrees with the objects
/// present is reported last. The capacity hints are the element counts
/// the parse found, never the `count` attribute.
pub(crate) fn decode_xml_into<S: BlobSink + ?Sized>(
    data: &[u8],
    sink: &mut S,
) -> Result<BlobHeader> {
    let text = std::str::from_utf8(data)
        .map_err(|e| SwapError::codec(format!("blob is not UTF-8 XML: {e}")))?;
    let root = Element::parse(text)?;
    if root.name() != "swap-cluster" {
        return Err(SwapError::codec(format!(
            "expected <swap-cluster>, found <{}>",
            root.name()
        )));
    }
    let header = BlobHeader {
        format_id: XML_FORMAT_ID,
        swap_cluster: root.parse_attr("id")?,
        epoch: root.parse_attr("epoch")?,
    };
    let count: usize = root.parse_attr("count")?;
    let found = root.children_named("object").count();
    sink.begin(&header, found)?;
    for el in root.children_named("object") {
        let oid = Oid(el.parse_attr("oid")?);
        let class = el.require_attr("class")?;
        let repl_cluster: u32 = el.parse_attr("repl")?;
        sink.begin_object(oid, class, repl_cluster, el.children_named("field").count())?;
        for f in el.children_named("field") {
            let (i, field) = decode_field(f)?;
            sink.field(i, field)?;
        }
    }
    if found != count {
        return Err(SwapError::codec(format!(
            "blob declares {count} objects but contains {found}"
        )));
    }
    Ok(header)
}

fn decode_field(el: &Element) -> Result<(usize, BlobField)> {
    let i: usize = el.parse_attr("i")?;
    let kind = el.require_attr("kind")?;
    let field = match kind {
        "ref" => BlobField::MemberRef(Oid(el.parse_attr("oid")?)),
        "proxyref" => BlobField::ProxyRef(Oid(el.parse_attr("oid")?)),
        "faultref" => BlobField::FaultRef(Oid(el.parse_attr("oid")?)),
        "int" => BlobField::Scalar(Value::Int(el.parse_attr("v")?)),
        "double" => BlobField::Scalar(Value::Double(el.parse_attr("v")?)),
        "bool" => BlobField::Scalar(Value::Bool(el.parse_attr("v")?)),
        "str" => BlobField::Scalar(Value::from(el.text())),
        "bytes" => BlobField::Scalar(Value::Bytes(hex_decode(el.text())?)),
        other => return Err(SwapError::codec(format!("unknown field kind `{other}`"))),
    };
    Ok((i, field))
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn hex_decode(text: &str) -> Result<Bytes> {
    let text = text.trim();
    if !text.len().is_multiple_of(2) {
        return Err(SwapError::codec("odd-length hex payload"));
    }
    let mut out = Vec::with_capacity(text.len() / 2);
    for i in (0..text.len()).step_by(2) {
        let byte = u8::from_str_radix(&text[i..i + 2], 16)
            .map_err(|e| SwapError::codec(format!("bad hex payload: {e}")))?;
        out.push(byte);
    }
    Ok(Bytes::from(out))
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may panic on impossible states
mod tests {
    use super::*;
    use crate::wire::decode_blob;
    use obiwan_replication::{standard_classes, ReplConfig, Server};

    fn capture_xml(p: &Process, sc: u32, epoch: u32, members: &[ObjRef]) -> Result<String> {
        render_xml(&capture(p, sc, epoch, members)?)
    }

    fn decode(xml: &str) -> Result<Blob> {
        decode_blob(xml.as_bytes())
    }

    #[test]
    fn hex_roundtrip() {
        let data = Bytes::from((0u8..=255).collect::<Vec<u8>>());
        assert_eq!(hex_decode(&hex_encode(&data)).unwrap(), data);
        assert!(hex_decode("abc").is_err());
        assert!(hex_decode("zz").is_err());
    }

    fn two_member_process() -> (Process, Vec<ObjRef>) {
        let u = standard_classes();
        let mut server = Server::new(u.clone());
        let head = server.build_list("Node", 2, 8).unwrap();
        let mut p = Process::new(
            u,
            server.into_shared(),
            1 << 20,
            ReplConfig::with_cluster_size(2),
        );
        let root = p.replicate_root(head).unwrap();
        let second = p.field_value(root, "next").unwrap().expect_ref().unwrap();
        (p, vec![root, second])
    }

    #[test]
    fn encode_decode_roundtrip_with_member_refs_and_payloads() {
        let (p, members) = two_member_process();
        let xml = capture_xml(&p, 5, 3, &members).unwrap();
        let blob = decode(&xml).unwrap();
        assert_eq!(blob.swap_cluster, 5);
        assert_eq!(blob.epoch, 3);
        assert_eq!(blob.objects.len(), 2);
        assert_eq!(blob.objects[0].class, "Node");
        // First member's `next` is a member ref to the second.
        let (idx, f) = &blob.objects[0].fields[0];
        assert_eq!(*idx, 0);
        assert_eq!(*f, BlobField::MemberRef(blob.objects[1].oid));
        // Payload survives byte-exactly.
        let (_, payload) = blob.objects[0]
            .fields
            .iter()
            .find(|(i, _)| *i == 1)
            .unwrap();
        match payload {
            BlobField::Scalar(Value::Bytes(b)) => assert_eq!(b.len(), 8),
            other => panic!("expected bytes, got {other:?}"),
        }
    }

    #[test]
    fn fault_proxy_fields_encode_as_faultref() {
        let u = standard_classes();
        let mut server = Server::new(u.clone());
        let head = server.build_list("Node", 5, 8).unwrap();
        let mut p = Process::new(
            u,
            server.into_shared(),
            1 << 20,
            ReplConfig::with_cluster_size(2),
        );
        let root = p.replicate_root(head).unwrap();
        let second = p.field_value(root, "next").unwrap().expect_ref().unwrap();
        // second.next is a fault proxy to oid head+2.
        let xml = capture_xml(&p, 1, 0, &[root, second]).unwrap();
        let blob = decode(&xml).unwrap();
        let second_fields = &blob.objects[1].fields;
        assert!(second_fields
            .iter()
            .any(|(_, f)| matches!(f, BlobField::FaultRef(oid) if oid.0 == head.0 + 2)));
    }

    #[test]
    fn unmediated_cross_cluster_ref_is_rejected() {
        let (mut p, members) = two_member_process();
        // Forge a direct reference from member 0 to an object "outside".
        let node_class = p.universe().registry.class_id("Node").unwrap();
        let outsider = p
            .heap_mut()
            .alloc(node_class, obiwan_heap::ObjectKind::App)
            .unwrap();
        p.set_field_value(members[0], "next", Value::Ref(outsider))
            .unwrap();
        let err = capture_xml(&p, 1, 0, &[members[0]]).unwrap_err();
        assert!(matches!(err, SwapError::Codec { .. }));
    }

    #[test]
    fn decode_rejects_count_mismatch_and_bad_kinds() {
        assert!(matches!(
            decode(r#"<swap-cluster id="1" epoch="0" count="2"/>"#),
            Err(SwapError::Codec { .. })
        ));
        assert!(matches!(
            decode(
                r#"<swap-cluster id="1" epoch="0" count="1">
                     <object oid="1" class="Node" repl="0">
                       <field i="0" kind="warp" v="1"/>
                     </object>
                   </swap-cluster>"#
            ),
            Err(SwapError::Codec { .. })
        ));
        assert!(matches!(decode("<blob/>"), Err(SwapError::Codec { .. })));
    }

    #[test]
    fn scalar_kinds_roundtrip() {
        // Build by hand: decode a crafted blob.
        let blob = decode(
            r#"<swap-cluster id="9" epoch="1" count="1">
                 <object oid="7" class="X" repl="2">
                   <field i="0" kind="int" v="-5"/>
                   <field i="1" kind="double" v="2.5"/>
                   <field i="2" kind="bool" v="true"/>
                   <field i="3" kind="str">héllo &amp; co</field>
                   <field i="4" kind="bytes">00ff</field>
                 </object>
               </swap-cluster>"#,
        )
        .unwrap();
        let fields = &blob.objects[0].fields;
        assert_eq!(fields[0].1, BlobField::Scalar(Value::Int(-5)));
        assert_eq!(fields[1].1, BlobField::Scalar(Value::Double(2.5)));
        assert_eq!(fields[2].1, BlobField::Scalar(Value::Bool(true)));
        assert_eq!(fields[3].1, BlobField::Scalar(Value::from("héllo & co")));
        assert_eq!(
            fields[4].1,
            BlobField::Scalar(Value::Bytes(Bytes::from_static(&[0x00, 0xff])))
        );
    }
}
