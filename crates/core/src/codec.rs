//! The capture layer, plus the paper-faithful XML dialect of the [`Blob`]
//! IR.
//!
//! * [`capture`] walks the heap graph and produces a pure [`Blob`] IR.
//!   Every invariant check lives here — in particular the rule that any
//!   cross-swap-cluster reference must be mediated by a proxy.
//! * [`render_xml`] writes a [`Blob`] as XML text straight into one
//!   buffer, and `decode_xml_into` pulls borrowed events off
//!   [`obiwan_xml::Reader`] into a [`BlobSink`] — no DOM on either hot
//!   path. The format table and the decode dispatch over every format
//!   live in [`wire`](crate::wire).
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
use obiwan_xml::{escape_into, RawEvent, Reader};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::ops::Range;

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

/// Render a captured [`Blob`] as the paper's pretty-printed XML dialect,
/// straight into one pre-sized buffer: numbers through `write!`, text
/// escaped in place, payloads hex-encoded from a table. The bytes are
/// exactly what [`obiwan_xml::Writer`] prints for the same document:
/// prolog, blank line, two-space indent, self-closing empty elements and a
/// trailing newline.
///
/// # Errors
///
/// [`SwapError::Codec`] if the blob contains a null or raw-reference
/// scalar (null fields are represented by omission; a captured blob never
/// holds one).
pub fn render_xml(blob: &Blob) -> Result<String> {
    let mut out = String::with_capacity(rendered_len_hint(blob));
    // `fmt::Write` into a `String` cannot fail.
    let _ = write!(
        out,
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\n<swap-cluster id=\"{}\" epoch=\"{}\" count=\"{}\"",
        blob.swap_cluster,
        blob.epoch,
        blob.objects.len()
    );
    if blob.objects.is_empty() {
        out.push_str("/>\n");
        return Ok(out);
    }
    out.push('>');
    for obj in &blob.objects {
        let _ = write!(out, "\n  <object oid=\"{}\" class=\"", obj.oid.0);
        escape_into(&mut out, &obj.class);
        let _ = write!(out, "\" repl=\"{}\"", obj.repl_cluster);
        if obj.fields.is_empty() {
            out.push_str("/>");
            continue;
        }
        out.push('>');
        for (i, f) in &obj.fields {
            render_field(&mut out, *i, f)?;
        }
        out.push_str("\n  </object>");
    }
    out.push_str("\n</swap-cluster>\n");
    Ok(out)
}

/// Bytes [`render_xml`] writes for `blob`, give or take escapes.
fn rendered_len_hint(blob: &Blob) -> usize {
    let fields = |obj: &BlobObject| -> usize {
        obj.fields
            .iter()
            .map(|(_, f)| match f {
                BlobField::Scalar(Value::Str(s)) => 48 + s.len(),
                BlobField::Scalar(Value::Bytes(b)) => 48 + 2 * b.len(),
                _ => 64,
            })
            .sum()
    };
    let objects: usize = blob
        .objects
        .iter()
        .map(|obj| 80 + obj.class.len() + fields(obj))
        .sum();
    128 + objects
}

fn render_field(out: &mut String, i: usize, f: &BlobField) -> Result<()> {
    let _ = write!(out, "\n    <field i=\"{i}\" kind=\"");
    let _ = match f {
        BlobField::MemberRef(oid) => write!(out, "ref\" oid=\"{}\"/>", oid.0),
        BlobField::ProxyRef(oid) => write!(out, "proxyref\" oid=\"{}\"/>", oid.0),
        BlobField::FaultRef(oid) => write!(out, "faultref\" oid=\"{}\"/>", oid.0),
        BlobField::Scalar(Value::Int(x)) => write!(out, "int\" v=\"{x}\"/>"),
        BlobField::Scalar(Value::Double(x)) => write!(out, "double\" v=\"{x:?}\"/>"),
        BlobField::Scalar(Value::Bool(x)) => write!(out, "bool\" v=\"{x}\"/>"),
        BlobField::Scalar(Value::Str(s)) => {
            out.push_str("str\">");
            escape_into(out, s);
            out.write_str("</field>")
        }
        BlobField::Scalar(Value::Bytes(b)) => {
            out.push_str("bytes\">");
            hex_encode_into(out, b);
            out.write_str("</field>")
        }
        BlobField::Scalar(Value::Null | Value::Ref(_)) => {
            return Err(SwapError::codec(format!(
                "field {i}: blob IR holds a raw null/ref scalar — capture \
                 never produces one"
            )));
        }
    };
    Ok(())
}

/// Stream blob XML into `sink`: a pull decoder over borrowed
/// [`RawEvent`]s. It accepts exactly the documents that
/// [`obiwan_xml::Element::parse`] and a walk of the resulting tree accept:
/// unknown elements are skipped at every level, text outside a `<field>`
/// is ignored, a field's value is the concatenation of its direct text,
/// and the first attribute of a name wins.
///
/// Numbers and oids parse from borrowed slices, and every hex payload of
/// the blob decodes into one buffer whose zero-copy slices the sink
/// receives. The vendored `Bytes` is immutable, so that buffer is complete
/// only once the document is: the decoder records the blob as a flat,
/// borrowed [`Step`] log while it parses, then replays the log into the
/// sink. So every parse error surfaces before the sink sees anything, and
/// a `count` attribute that disagrees with the objects present is reported
/// last. `begin`'s capacity hint is the number of objects found.
pub(crate) fn decode_xml_into<S: BlobSink + ?Sized>(
    data: &[u8],
    sink: &mut S,
) -> Result<BlobHeader> {
    let text = std::str::from_utf8(data)
        .map_err(|e| SwapError::codec(format!("blob is not UTF-8 XML: {e}")))?;
    let mut d = XmlDecoder {
        reader: Reader::new(text),
        steps: Vec::new(),
        // Two hex digits per payload byte: the text bounds the payloads.
        payloads: Vec::with_capacity(text.len() / 2),
    };
    let (header, count) = d.root()?;
    // At least one step per counted object, as far as the text can hold.
    let left = text.len() - d.reader.position();
    d.steps.reserve(count.min(left / MIN_STEP_LEN));
    let found = d.body()?;
    let payloads = Bytes::from(d.payloads);
    sink.begin(&header, found)?;
    for step in d.steps {
        match step {
            Step::Object {
                oid,
                class,
                repl_cluster,
                fields,
            } => sink.begin_object(oid, &class, repl_cluster, fields)?,
            Step::Field(i, field) => sink.field(i, field)?,
            Step::Payload(i, range) => {
                sink.field(i, BlobField::Scalar(Value::Bytes(payloads.slice(range))))?
            }
        }
    }
    if found != count {
        return Err(SwapError::codec(format!(
            "blob declares {count} objects but contains {found}"
        )));
    }
    Ok(header)
}

/// One sink call recorded by [`XmlDecoder`], replayed once the document
/// has parsed.
enum Step<'a> {
    Object {
        oid: Oid,
        class: Cow<'a, str>,
        repl_cluster: u32,
        fields: usize,
    },
    Field(usize, BlobField),
    /// A `bytes` field, as a range of the blob's payload buffer.
    Payload(usize, Range<usize>),
}

struct XmlDecoder<'a> {
    reader: Reader<'a>,
    steps: Vec<Step<'a>>,
    payloads: Vec<u8>,
}

impl<'a> XmlDecoder<'a> {
    /// The `<swap-cluster>` start tag: the header and the declared count.
    fn root(&mut self) -> Result<(BlobHeader, usize)> {
        let name = match self.reader.next_raw()? {
            RawEvent::Start { name, .. } => name,
            RawEvent::Eof => {
                return Err(
                    obiwan_xml::Error::structure("document contains no root element").into(),
                )
            }
            other => {
                return Err(obiwan_xml::Error::structure(format!(
                    "expected root element, found {other:?}"
                ))
                .into())
            }
        };
        if name != "swap-cluster" {
            return Err(SwapError::codec(format!(
                "expected <swap-cluster>, found <{name}>"
            )));
        }
        let header = BlobHeader {
            format_id: XML_FORMAT_ID,
            swap_cluster: self.parse_attr(name, "id")?,
            epoch: self.parse_attr(name, "epoch")?,
        };
        let count = self.parse_attr(name, "count")?;
        Ok((header, count))
    }

    /// The root's content up to the end of the document; returns the
    /// number of objects.
    fn body(&mut self) -> Result<usize> {
        let mut found = 0;
        loop {
            match self.reader.next_raw()? {
                RawEvent::Start { name: "object", .. } => {
                    self.object()?;
                    found += 1;
                }
                RawEvent::Start { .. } => self.skip_element()?,
                RawEvent::Text(_) => {}
                RawEvent::End { .. } => break,
                RawEvent::Eof => return Err(unclosed()),
            }
        }
        match self.reader.next_raw()? {
            RawEvent::Eof => Ok(found),
            other => Err(obiwan_xml::Error::structure(format!(
                "trailing content after root element: {other:?}"
            ))
            .into()),
        }
    }

    /// An `<object>` whose start tag was just read, through its end tag.
    fn object(&mut self) -> Result<()> {
        let oid = Oid(self.parse_attr("object", "oid")?);
        let class = Cow::clone(self.attr("object", "class")?);
        let repl_cluster = self.parse_attr("object", "repl")?;
        let at = self.steps.len();
        self.steps.push(Step::Object {
            oid,
            class,
            repl_cluster,
            fields: 0,
        });
        let mut fields = 0;
        loop {
            match self.reader.next_raw()? {
                RawEvent::Start { name: "field", .. } => {
                    self.field()?;
                    fields += 1;
                }
                RawEvent::Start { .. } => self.skip_element()?,
                RawEvent::Text(_) => {}
                RawEvent::End { .. } => break,
                RawEvent::Eof => return Err(unclosed()),
            }
        }
        if let Some(Step::Object { fields: n, .. }) = self.steps.get_mut(at) {
            *n = fields;
        }
        Ok(())
    }

    /// A `<field>` whose start tag was just read, through its end tag.
    fn field(&mut self) -> Result<()> {
        let i: usize = self.parse_attr("field", "i")?;
        let field = match self.attr("field", "kind")?.as_ref() {
            "ref" => BlobField::MemberRef(Oid(self.parse_attr("field", "oid")?)),
            "proxyref" => BlobField::ProxyRef(Oid(self.parse_attr("field", "oid")?)),
            "faultref" => BlobField::FaultRef(Oid(self.parse_attr("field", "oid")?)),
            "int" => BlobField::Scalar(Value::Int(self.parse_attr("field", "v")?)),
            "double" => BlobField::Scalar(Value::Double(self.parse_attr("field", "v")?)),
            "bool" => BlobField::Scalar(Value::Bool(self.parse_attr("field", "v")?)),
            "str" => {
                let text = self.element_text()?;
                self.steps
                    .push(Step::Field(i, BlobField::Scalar(Value::from(&*text))));
                return Ok(());
            }
            "bytes" => {
                let text = self.element_text()?;
                let start = self.payloads.len();
                hex_decode_into(&text, &mut self.payloads)?;
                self.steps
                    .push(Step::Payload(i, start..self.payloads.len()));
                return Ok(());
            }
            other => return Err(SwapError::codec(format!("unknown field kind `{other}`"))),
        };
        // The content of a field with an attribute value is ignored.
        self.element_text()?;
        self.steps.push(Step::Field(i, field));
        Ok(())
    }

    /// The direct text of the element just opened, through its end tag.
    fn element_text(&mut self) -> Result<Cow<'a, str>> {
        let mut text = Cow::Borrowed("");
        loop {
            match self.reader.next_raw()? {
                RawEvent::Text(chunk) if text.is_empty() => text = chunk,
                RawEvent::Text(chunk) => text.to_mut().push_str(&chunk),
                RawEvent::Start { .. } => self.skip_element()?,
                RawEvent::End { .. } => return Ok(text),
                RawEvent::Eof => return Err(unclosed()),
            }
        }
    }

    /// The element whose start tag was just read, through its end tag.
    fn skip_element(&mut self) -> Result<()> {
        let mut depth = 1usize;
        while depth > 0 {
            match self.reader.next_raw()? {
                RawEvent::Start { .. } => depth += 1,
                RawEvent::End { .. } => depth -= 1,
                RawEvent::Text(_) => {}
                RawEvent::Eof => return Err(unclosed()),
            }
        }
        Ok(())
    }

    /// The first attribute `name` of the latest start tag, `<element>`.
    fn attr(&self, element: &str, name: &str) -> Result<&Cow<'a, str>> {
        self.reader
            .attrs()
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| {
                obiwan_xml::Error::structure(format!(
                    "element <{element}> missing required attribute `{name}`"
                ))
                .into()
            })
    }

    fn parse_attr<T>(&self, element: &str, name: &str) -> Result<T>
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        let raw = self.attr(element, name)?;
        raw.parse().map_err(|e| {
            obiwan_xml::Error::structure(format!(
                "element <{element}> attribute `{name}`={raw:?}: {e}"
            ))
            .into()
        })
    }
}

/// The shortest markup one recorded step can come from (`<field/>`): caps
/// the log reservation a hostile `count` can ask for.
const MIN_STEP_LEN: usize = 8;

/// The reader reports an unclosed element before it reports `Eof`, so the
/// decoder never sees one inside an element.
fn unclosed() -> SwapError {
    obiwan_xml::Error::UnexpectedEof {
        context: "element tree",
    }
    .into()
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

fn hex_encode_into(out: &mut String, bytes: &[u8]) {
    out.reserve(2 * bytes.len());
    for &b in bytes {
        out.push(char::from(HEX_DIGITS[usize::from(b >> 4)]));
        out.push(char::from(HEX_DIGITS[usize::from(b & 0xf)]));
    }
}

/// Value of each ASCII hex digit (either case); `0xff` for every other
/// byte, including signs and the bytes of non-ASCII characters.
const NIBBLES: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut i = 0;
    while i < 16 {
        table[HEX_DIGITS[i] as usize] = i as u8;
        table[HEX_DIGITS[i].to_ascii_uppercase() as usize] = i as u8;
        i += 1;
    }
    table
};

/// Append the bytes a hex payload spells to `out`. Surrounding whitespace
/// is ignored; anything but pairs of hex digits is rejected.
fn hex_decode_into(text: &str, out: &mut Vec<u8>) -> Result<()> {
    let digits = text.trim().as_bytes();
    if !digits.len().is_multiple_of(2) {
        return Err(SwapError::codec("odd-length hex payload"));
    }
    for (n, pair) in digits.chunks_exact(2).enumerate() {
        let (hi, lo) = (NIBBLES[usize::from(pair[0])], NIBBLES[usize::from(pair[1])]);
        if (hi | lo) > 0xf {
            return Err(SwapError::codec(format!(
                "bad hex payload: non-hex byte in the pair at offset {}",
                2 * n
            )));
        }
        out.push(hi << 4 | lo);
    }
    Ok(())
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
        let data: Vec<u8> = (0u8..=255).collect();
        let mut text = String::new();
        hex_encode_into(&mut text, &data);
        let mut back = Vec::new();
        hex_decode_into(&text, &mut back).unwrap();
        assert_eq!(back, data);
        let mut upper = Vec::new();
        hex_decode_into(" 00FFaB\n", &mut upper).unwrap();
        assert_eq!(upper, [0x00, 0xff, 0xab]);
        for bad in ["abc", "zz", "+a0f", "-1", "aé0", "0x"] {
            assert!(
                matches!(
                    hex_decode_into(bad, &mut Vec::new()),
                    Err(SwapError::Codec { .. })
                ),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn render_matches_the_writer_on_empty_shapes() {
        let reference = |objects: &[(u64, usize)]| {
            let mut w = obiwan_xml::Writer::new();
            w.begin("swap-cluster").unwrap();
            w.attr("id", "3").unwrap().attr("epoch", "1").unwrap();
            w.attr("count", objects.len().to_string()).unwrap();
            for &(oid, fields) in objects {
                w.begin("object")
                    .unwrap()
                    .attr("oid", oid.to_string())
                    .unwrap();
                w.attr("class", "N<&>").unwrap().attr("repl", "0").unwrap();
                for i in 0..fields {
                    w.begin("field").unwrap().attr("i", i.to_string()).unwrap();
                    w.attr("kind", "str").unwrap().text("").unwrap();
                    w.end().unwrap();
                }
                w.end().unwrap();
            }
            w.end().unwrap();
            w.finish().unwrap()
        };
        let blob = |objects: &[(u64, usize)]| Blob {
            swap_cluster: 3,
            epoch: 1,
            objects: objects
                .iter()
                .map(|&(oid, fields)| BlobObject {
                    oid: Oid(oid),
                    class: "N<&>".into(),
                    repl_cluster: 0,
                    fields: (0..fields)
                        .map(|i| (i, BlobField::Scalar(Value::from(""))))
                        .collect(),
                })
                .collect(),
        };
        for shape in [&[][..], &[(1, 0)], &[(1, 2), (2, 0)]] {
            assert_eq!(render_xml(&blob(shape)).unwrap(), reference(shape));
        }
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
