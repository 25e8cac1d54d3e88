//! Wire formats: captured [`Blob`] IR → bytes on the wire, and bytes of
//! any format → a streaming [`BlobSink`].
//!
//! The capture layer ([`codec`]) produces a validated [`Blob`];
//! [`encode_blob`] turns it into the bytes a dumb storage device holds, in
//! the format a [`WireFormatKind`] names. [`WireFormatKind`] is the one
//! format table:
//!
//! * `xml` — the paper's self-describing XML text ([`codec::render_xml`]).
//!   Stays the default: any device that can store text can audit what it
//!   holds.
//! * `binary` — compact length-prefixed binary: varint oids and lengths,
//!   zigzag ints, raw payload bytes (no hex blowup).
//! * `lz-binary` — the binary encoding, LZ-compressed behind the frame
//!   header.
//!
//! Decoding has one dispatch: it sniffs the format, inflates LZ bodies and
//! streams the objects into a [`BlobSink`] — binary frames straight off
//! the bytes, XML through a pull parser over borrowed events.
//! [`decode_blob_into`] feeds the reload's arena materializer;
//! [`decode_blob`] feeds a sink that builds the [`Blob`] IR.
//!
//! # Self-describing header
//!
//! Binary-framed blobs start with a 13-byte header so a reload can pick
//! the right decoder in a mixed-format room and the auditor can check a
//! stored blob without decoding it:
//!
//! ```text
//! offset 0..4   magic  b"OBW1"
//! offset 4      format id (1 = binary; 0x80 | inner for LZ-wrapped)
//! offset 5..9   swap-cluster id, u32 LE
//! offset 9..13  epoch, u32 LE
//! ```
//!
//! XML blobs carry no binary header — they *are* the header (`<swap-cluster
//! id=… epoch=…>`), which is exactly the paper's portability point. A blob
//! is XML iff it does not start with the magic, so stores can hold a mix
//! of formats under the same three-verb protocol. The LZ branch is blind
//! to its inner format: a stored `0x80` (LZ-wrapped XML) frame decodes even
//! though no kind writes one.

use crate::codec::{self, decode_xml_into, Blob, BlobField, BlobObject};
use crate::{Result, SwapError};
use bytes::Bytes;
use obiwan_heap::{Oid, Value};

/// Magic prefix of binary-framed blobs.
pub const MAGIC: [u8; 4] = *b"OBW1";
/// Total size of the binary frame header.
pub const HEADER_LEN: usize = 13;
/// Format id of the paper's XML text (never appears on the wire — XML
/// blobs are headerless text).
pub const XML_FORMAT_ID: u8 = 0;
/// Format id of the compact binary encoding.
pub const BINARY_FORMAT_ID: u8 = 1;
/// Flag bit marking an LZ-wrapped format (`0x80 | inner id`).
pub const LZ_FLAG: u8 = 0x80;

/// Which wire format a middleware writes — the `SwapConfig` knob, and the
/// crate's one table of format ids and names.
///
/// Decoding always auto-detects ([`decode_blob`]), so mixing formats in
/// one room is safe; this only selects the encoder for new swap-outs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum WireFormatKind {
    /// The paper's self-describing XML text (default).
    #[default]
    Xml,
    /// Compact length-prefixed binary.
    Binary,
    /// LZ-compressed binary.
    LzBinary,
}

impl WireFormatKind {
    /// The format id this kind writes.
    pub fn format_id(self) -> u8 {
        match self {
            WireFormatKind::Xml => XML_FORMAT_ID,
            WireFormatKind::Binary => BINARY_FORMAT_ID,
            WireFormatKind::LzBinary => LZ_FLAG | BINARY_FORMAT_ID,
        }
    }

    /// Stable CLI-friendly name (`xml`, `binary`, `lz-binary`).
    pub fn name(self) -> &'static str {
        match self {
            WireFormatKind::Xml => "xml",
            WireFormatKind::Binary => "binary",
            WireFormatKind::LzBinary => "lz-binary",
        }
    }

    /// All selectable kinds, in id order (benches sweep over this).
    pub const ALL: [WireFormatKind; 3] = [
        WireFormatKind::Xml,
        WireFormatKind::Binary,
        WireFormatKind::LzBinary,
    ];
}

impl std::fmt::Display for WireFormatKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for WireFormatKind {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "xml" => Ok(WireFormatKind::Xml),
            "binary" => Ok(WireFormatKind::Binary),
            "lz-binary" => Ok(WireFormatKind::LzBinary),
            other => Err(format!(
                "unknown wire format `{other}` (expected xml, binary or lz-binary)"
            )),
        }
    }
}

/// Encode `blob` with the format selected by `kind`.
///
/// # Errors
///
/// XML writer errors, or [`SwapError::Codec`] if the blob holds a null or
/// raw-reference scalar (a captured blob never does).
pub fn encode_blob(kind: WireFormatKind, blob: &Blob) -> Result<Bytes> {
    Ok(Bytes::from(match kind {
        WireFormatKind::Xml => codec::render_xml(blob)?.into_bytes(),
        WireFormatKind::Binary => encode_binary(blob)?,
        WireFormatKind::LzBinary => {
            let mut out = frame_header(kind.format_id(), blob);
            out.extend_from_slice(&obiwan_lz::compress(&encode_binary(blob)?));
            out
        }
    }))
}

/// Decode a blob of any known format to the [`Blob`] IR, dispatching on
/// the self-describing header (binary frame magic) or the XML sniff.
///
/// # Errors
///
/// [`SwapError::Codec`] for unknown formats and corrupt, truncated or
/// inconsistent input.
pub fn decode_blob(data: &[u8]) -> Result<Blob> {
    let mut builder = BlobBuilder::new();
    decode_any(data, None, &mut builder)?;
    Ok(builder.blob)
}

/// Decode a blob of any known format straight into a [`BlobSink`],
/// returning the header the body decoded under. This is the reload hot
/// path: binary frames stream object-by-object with byte payloads sliced
/// zero-copy out of `data`'s backing buffer, LZ frames decompress once and
/// stream from the inflated buffer, and XML is pulled event by event off
/// the text, its hex payloads decoded into one buffer per blob and handed
/// out as zero-copy slices of it. An XML blob reaches the sink only once
/// the whole text has parsed.
///
/// Error parity with [`decode_blob`] is exact for well-formed input and
/// for the first parse error of corrupt input; a sink may have consumed a
/// prefix of the objects by the time a later error aborts the decode.
///
/// # Errors
///
/// [`SwapError::Codec`] as [`decode_blob`], plus whatever the sink hooks
/// return.
pub fn decode_blob_into<S: BlobSink + ?Sized>(data: &Bytes, sink: &mut S) -> Result<BlobHeader> {
    decode_any(data, Some(data), sink)
}

/// The one decode dispatch. When `backing` is the `Bytes` buffer `data`
/// points into, binary byte payloads are pushed as zero-copy sub-slices of
/// it; otherwise they are copied out.
fn decode_any<S: BlobSink + ?Sized>(
    data: &[u8],
    backing: Option<&Bytes>,
    sink: &mut S,
) -> Result<BlobHeader> {
    if !data.starts_with(&MAGIC) {
        return decode_xml_into(data, sink);
    }
    let header = peek_frame(data)?;
    match header.format_id {
        BINARY_FORMAT_ID => decode_binary(data, header, backing, sink),
        id if id & LZ_FLAG != 0 => {
            let inner = obiwan_lz::decompress(&data[HEADER_LEN..])
                .map_err(|e| SwapError::codec(format!("lz body: {e}")))?;
            let inner = Bytes::from(inner);
            let body = decode_any(&inner, Some(&inner), sink)?;
            check_frame_values(&header, body.swap_cluster, body.epoch)?;
            if body.format_id != id & !LZ_FLAG {
                return Err(SwapError::codec(format!(
                    "lz frame id 0x{id:02x} does not match its inner format"
                )));
            }
            Ok(header)
        }
        other => Err(SwapError::codec(format!(
            "unknown blob format id 0x{other:02x}"
        ))),
    }
}

/// The self-describing blob header: format id, swap-cluster id, epoch.
///
/// Available without decoding the body — for binary frames it is read off
/// the fixed header; for XML the document is parsed (XML *is* its own
/// header).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlobHeader {
    /// Wire format id ([`XML_FORMAT_ID`], [`BINARY_FORMAT_ID`], or
    /// `LZ_FLAG | inner`).
    pub format_id: u8,
    /// Swap-cluster the blob backs.
    pub swap_cluster: u32,
    /// Swap-out epoch the blob was written at.
    pub epoch: u32,
}

/// Read a blob's self-describing header without materializing anything.
///
/// # Errors
///
/// [`SwapError::Codec`] if the bytes are neither a valid binary frame nor
/// well-formed blob XML.
pub fn peek_header(data: &[u8]) -> Result<BlobHeader> {
    if !data.starts_with(&MAGIC) {
        return decode_xml_into(data, &mut BlobBuilder::new());
    }
    let header = peek_frame(data)?;
    let id = header.format_id;
    if id != BINARY_FORMAT_ID && id & LZ_FLAG == 0 {
        return Err(SwapError::codec(format!(
            "unknown blob format id 0x{id:02x}"
        )));
    }
    Ok(header)
}

fn peek_frame(data: &[u8]) -> Result<BlobHeader> {
    if data.len() < HEADER_LEN {
        return Err(SwapError::codec(format!(
            "truncated blob frame: {} bytes, header needs {HEADER_LEN}",
            data.len()
        )));
    }
    let u32le = |off: usize| -> u32 {
        u32::from_le_bytes([data[off], data[off + 1], data[off + 2], data[off + 3]])
    };
    Ok(BlobHeader {
        format_id: data[4],
        swap_cluster: u32le(5),
        epoch: u32le(9),
    })
}

fn frame_header(format_id: u8, blob: &Blob) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + 64);
    out.extend_from_slice(&MAGIC);
    out.push(format_id);
    out.extend_from_slice(&blob.swap_cluster.to_le_bytes());
    out.extend_from_slice(&blob.epoch.to_le_bytes());
    out
}

fn check_frame_values(header: &BlobHeader, swap_cluster: u32, epoch: u32) -> Result<()> {
    if header.swap_cluster != swap_cluster || header.epoch != epoch {
        return Err(SwapError::codec(format!(
            "frame header names sc{} e{} but the body decodes to sc{} e{}",
            header.swap_cluster, header.epoch, swap_cluster, epoch
        )));
    }
    Ok(())
}

/// Streaming consumer of a decoding blob.
///
/// The decoder pushes the header, then each object and its fields in wire
/// order; an implementation materializes them however it likes — the
/// [`Blob`] IR for [`decode_blob`], or detached arena objects for the
/// zero-copy reload path ([`crate::materialize::ClusterMaterializer`]).
/// Any error returned from a hook aborts the decode.
pub trait BlobSink {
    /// The frame header and a capacity hint for the object count, before
    /// any object. The hint never exceeds what the input can hold, but a
    /// corrupt blob may still deliver fewer objects.
    ///
    /// # Errors
    ///
    /// Implementation-defined; aborts the decode.
    fn begin(&mut self, header: &BlobHeader, object_count: usize) -> Result<()>;

    /// Start of the next object, with a capacity hint for its field count
    /// (bounded like `begin`'s). Its fields follow before the next
    /// `begin_object`.
    ///
    /// # Errors
    ///
    /// Implementation-defined; aborts the decode.
    fn begin_object(
        &mut self,
        oid: Oid,
        class: &str,
        repl_cluster: u32,
        field_count: usize,
    ) -> Result<()>;

    /// One field of the current object, at layout index `index`.
    ///
    /// # Errors
    ///
    /// Implementation-defined; aborts the decode.
    fn field(&mut self, index: usize, field: BlobField) -> Result<()>;
}

/// [`BlobSink`] that rebuilds the [`Blob`] IR behind [`decode_blob`].
#[derive(Debug)]
struct BlobBuilder {
    blob: Blob,
}

impl BlobBuilder {
    fn new() -> Self {
        BlobBuilder {
            blob: Blob {
                swap_cluster: 0,
                epoch: 0,
                objects: Vec::new(),
            },
        }
    }
}

impl BlobSink for BlobBuilder {
    fn begin(&mut self, header: &BlobHeader, object_count: usize) -> Result<()> {
        self.blob.swap_cluster = header.swap_cluster;
        self.blob.epoch = header.epoch;
        self.blob.objects.reserve(object_count);
        Ok(())
    }

    fn begin_object(
        &mut self,
        oid: Oid,
        class: &str,
        repl_cluster: u32,
        field_count: usize,
    ) -> Result<()> {
        self.blob.objects.push(BlobObject {
            oid,
            class: class.to_owned(),
            repl_cluster,
            fields: Vec::with_capacity(field_count),
        });
        Ok(())
    }

    fn field(&mut self, index: usize, field: BlobField) -> Result<()> {
        let obj = self
            .blob
            .objects
            .last_mut()
            .ok_or_else(|| SwapError::codec("field event before any object"))?;
        obj.fields.push((index, field));
        Ok(())
    }
}

// The compact binary encoding. Frame: the 13-byte header, then the body —
// varint object count, and per object: varint oid, varint-length class
// name, varint repl-cluster, varint field count, then per field a varint
// layout index and a one-byte kind tag (0 ref / 1 proxyref / 2 faultref
// with a varint oid; 3 zigzag int; 4 LE double; 5 bool; 6 str and 7 bytes,
// varint-length-prefixed — payloads travel raw, no hex blowup).

const TAG_MEMBER_REF: u8 = 0;
const TAG_PROXY_REF: u8 = 1;
const TAG_FAULT_REF: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_DOUBLE: u8 = 4;
const TAG_BOOL: u8 = 5;
const TAG_STR: u8 = 6;
const TAG_BYTES: u8 = 7;

fn encode_binary(blob: &Blob) -> Result<Vec<u8>> {
    let mut out = frame_header(BINARY_FORMAT_ID, blob);
    put_varint(&mut out, blob.objects.len() as u64);
    for obj in &blob.objects {
        put_varint(&mut out, obj.oid.0);
        put_varint(&mut out, obj.class.len() as u64);
        out.extend_from_slice(obj.class.as_bytes());
        put_varint(&mut out, u64::from(obj.repl_cluster));
        put_varint(&mut out, obj.fields.len() as u64);
        for (i, f) in &obj.fields {
            put_varint(&mut out, *i as u64);
            encode_binary_field(&mut out, *i, f)?;
        }
    }
    Ok(out)
}

fn encode_binary_field(out: &mut Vec<u8>, i: usize, f: &BlobField) -> Result<()> {
    match f {
        BlobField::MemberRef(oid) => {
            out.push(TAG_MEMBER_REF);
            put_varint(out, oid.0);
        }
        BlobField::ProxyRef(oid) => {
            out.push(TAG_PROXY_REF);
            put_varint(out, oid.0);
        }
        BlobField::FaultRef(oid) => {
            out.push(TAG_FAULT_REF);
            put_varint(out, oid.0);
        }
        BlobField::Scalar(Value::Int(x)) => {
            out.push(TAG_INT);
            put_varint(out, zigzag(*x));
        }
        BlobField::Scalar(Value::Double(x)) => {
            out.push(TAG_DOUBLE);
            out.extend_from_slice(&x.to_le_bytes());
        }
        BlobField::Scalar(Value::Bool(x)) => {
            out.push(TAG_BOOL);
            out.push(u8::from(*x));
        }
        BlobField::Scalar(Value::Str(s)) => {
            out.push(TAG_STR);
            put_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        BlobField::Scalar(Value::Bytes(b)) => {
            out.push(TAG_BYTES);
            put_varint(out, b.len() as u64);
            out.extend_from_slice(b);
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

/// Stream the body of a binary frame (`header` already read off `data`)
/// into `sink`.
fn decode_binary<S: BlobSink + ?Sized>(
    data: &[u8],
    header: BlobHeader,
    backing: Option<&Bytes>,
    sink: &mut S,
) -> Result<BlobHeader> {
    let mut r = Reader {
        data,
        pos: HEADER_LEN,
    };
    let count = r.varint().map_err(parse_err)?;
    sink.begin(&header, r.capacity_hint(count))?;
    // Swap-clusters are overwhelmingly runs of one class: remember the last
    // validated class-name bytes so repeat objects skip the UTF-8 check.
    let mut last_class: Option<(&[u8], &str)> = None;
    for _ in 0..count {
        let oid = Oid(r.varint().map_err(parse_err)?);
        let class_len = r.varint().map_err(parse_err)? as usize;
        let raw_class = r.take(class_len).map_err(parse_err)?;
        let class = match last_class {
            Some((raw, name)) if raw == raw_class => name,
            _ => {
                let name = std::str::from_utf8(raw_class)
                    .map_err(|e| parse_err(ParseErr::ClassUtf8(e)))?;
                last_class = Some((raw_class, name));
                name
            }
        };
        let repl_cluster = r.varint_u32("repl cluster").map_err(parse_err)?;
        let field_count = r.varint().map_err(parse_err)?;
        sink.begin_object(oid, class, repl_cluster, r.capacity_hint(field_count))?;
        for _ in 0..field_count {
            let i = r.varint().map_err(parse_err)? as usize;
            let field = decode_binary_field(&mut r, backing).map_err(parse_err)?;
            sink.field(i, field)?;
        }
    }
    if r.pos != data.len() {
        return Err(SwapError::codec(format!(
            "{} trailing bytes after the last object",
            data.len() - r.pos
        )));
    }
    Ok(header)
}

#[inline(always)]
fn decode_binary_field(
    r: &mut Reader<'_>,
    backing: Option<&Bytes>,
) -> std::result::Result<BlobField, ParseErr> {
    let tag = r.byte("field tag")?;
    Ok(match tag {
        TAG_MEMBER_REF => BlobField::MemberRef(Oid(r.varint()?)),
        TAG_PROXY_REF => BlobField::ProxyRef(Oid(r.varint()?)),
        TAG_FAULT_REF => BlobField::FaultRef(Oid(r.varint()?)),
        TAG_INT => BlobField::Scalar(Value::Int(unzigzag(r.varint()?))),
        TAG_DOUBLE => {
            let raw = r.take(8)?;
            let mut buf = [0u8; 8];
            buf.copy_from_slice(raw);
            BlobField::Scalar(Value::Double(f64::from_le_bytes(buf)))
        }
        TAG_BOOL => match r.byte("bool value")? {
            0 => BlobField::Scalar(Value::Bool(false)),
            1 => BlobField::Scalar(Value::Bool(true)),
            other => return Err(ParseErr::BadBool(other)),
        },
        TAG_STR => {
            let len = r.varint()? as usize;
            let s = std::str::from_utf8(r.take(len)?).map_err(ParseErr::StrUtf8)?;
            BlobField::Scalar(Value::from(s))
        }
        TAG_BYTES => {
            let len = r.varint()? as usize;
            let start = r.pos;
            let raw = r.take(len)?;
            // With a backing buffer the payload is a zero-copy sub-slice of
            // the fetched bytes; without one (plain `&[u8]` decode) it is
            // copied out as before.
            BlobField::Scalar(Value::Bytes(match backing {
                Some(b) => b.slice(start..start + len),
                None => Bytes::copy_from_slice(raw),
            }))
        }
        other => return Err(ParseErr::UnknownTag(other)),
    })
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Thin parser-internal error: [`SwapError`] is 64 bytes, and threading it
/// through every hot `Result` made the reload decode loop shuffle error
/// space it never uses. Each variant carries exactly what the legacy
/// message needs; [`parse_err`] reconstructs the byte-identical
/// [`SwapError`] on the cold path.
#[derive(Debug, Clone, Copy)]
enum ParseErr {
    Missing(&'static str),
    Run { len: usize, rem: usize },
    VarintTooLong,
    U32Overflow { what: &'static str, v: u64 },
    BadBool(u8),
    StrUtf8(std::str::Utf8Error),
    ClassUtf8(std::str::Utf8Error),
    UnknownTag(u8),
}

#[cold]
#[inline(never)]
fn parse_err(e: ParseErr) -> SwapError {
    match e {
        ParseErr::Missing(what) => SwapError::codec(format!("truncated blob: missing {what}")),
        ParseErr::Run { len, rem } => SwapError::codec(format!(
            "truncated blob: {len}-byte run exceeds the remaining {rem}"
        )),
        ParseErr::VarintTooLong => SwapError::codec("varint longer than 64 bits"),
        ParseErr::U32Overflow { what, v } => SwapError::codec(format!("{what} {v} exceeds u32")),
        ParseErr::BadBool(b) => {
            SwapError::codec(format!("bool field holds 0x{b:02x}, expected 0 or 1"))
        }
        ParseErr::StrUtf8(e) => SwapError::codec(format!("str field is not UTF-8: {e}")),
        ParseErr::ClassUtf8(e) => SwapError::codec(format!("class name is not UTF-8: {e}")),
        ParseErr::UnknownTag(t) => SwapError::codec(format!("unknown field tag 0x{t:02x}")),
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    #[inline(always)]
    fn byte(&mut self, what: &'static str) -> std::result::Result<u8, ParseErr> {
        let b = *self.data.get(self.pos).ok_or(ParseErr::Missing(what))?;
        self.pos += 1;
        Ok(b)
    }

    #[inline(always)]
    fn take(&mut self, len: usize) -> std::result::Result<&'a [u8], ParseErr> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&end| end <= self.data.len())
            .ok_or(ParseErr::Run {
                len,
                rem: self.data.len() - self.pos,
            })?;
        let out = &self.data[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    #[inline(always)]
    fn varint(&mut self) -> std::result::Result<u64, ParseErr> {
        // Fast path for the overwhelmingly common 1- and 2-byte encodings
        // (field indices, tags, cluster-sized oids and lengths).
        if let Some(&a) = self.data.get(self.pos) {
            if a & 0x80 == 0 {
                self.pos += 1;
                return Ok(u64::from(a));
            }
            if let Some(&b) = self.data.get(self.pos + 1) {
                if b & 0x80 == 0 {
                    self.pos += 2;
                    return Ok(u64::from(b) << 7 | u64::from(a & 0x7f));
                }
            }
        }
        self.varint_long()
    }

    /// ≥3-byte and truncated encodings; same wire grammar and errors as
    /// the original single loop.
    fn varint_long(&mut self) -> std::result::Result<u64, ParseErr> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.byte("varint continuation")?;
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(ParseErr::VarintTooLong)
    }

    #[inline]
    fn varint_u32(&mut self, what: &'static str) -> std::result::Result<u32, ParseErr> {
        let v = self.varint()?;
        u32::try_from(v).map_err(|_| ParseErr::U32Overflow { what, v })
    }

    /// A sink capacity hint for a declared item `count`, capped by the
    /// bytes left: every counted item takes at least one, so a hostile
    /// count cannot make a sink reserve more than the input could hold.
    fn capacity_hint(&self, count: u64) -> usize {
        usize::try_from(count)
            .unwrap_or(usize::MAX)
            .min(self.data.len() - self.pos)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may panic on impossible states
mod tests {
    use super::*;

    fn sample_blob() -> Blob {
        Blob {
            swap_cluster: 7,
            epoch: 3,
            objects: vec![
                BlobObject {
                    oid: Oid(42),
                    class: "Node".into(),
                    repl_cluster: 4,
                    fields: vec![
                        (0, BlobField::MemberRef(Oid(43))),
                        (
                            1,
                            BlobField::Scalar(Value::Bytes(Bytes::from_static(&[0, 255, 65]))),
                        ),
                        (2, BlobField::Scalar(Value::Int(-5))),
                        (3, BlobField::Scalar(Value::Double(2.5))),
                    ],
                },
                BlobObject {
                    oid: Oid(43),
                    class: "Node".into(),
                    repl_cluster: 4,
                    fields: vec![
                        (0, BlobField::ProxyRef(Oid(60))),
                        (1, BlobField::FaultRef(Oid(61))),
                        (2, BlobField::Scalar(Value::Bool(true))),
                        (3, BlobField::Scalar(Value::from("héllo & co"))),
                    ],
                },
            ],
        }
    }

    /// A `0x80` frame: LZ-wrapped XML, which no kind writes but a store
    /// may still hold.
    fn lz_xml_frame(blob: &Blob) -> Vec<u8> {
        let mut out = frame_header(LZ_FLAG, blob);
        out.extend_from_slice(&obiwan_lz::compress(
            codec::render_xml(blob).unwrap().as_bytes(),
        ));
        out
    }

    #[test]
    fn every_format_roundtrips_the_sample() {
        let blob = sample_blob();
        let mut frames: Vec<(Vec<u8>, u8)> = WireFormatKind::ALL
            .iter()
            .map(|&k| (encode_blob(k, &blob).unwrap().to_vec(), k.format_id()))
            .collect();
        frames.push((lz_xml_frame(&blob), LZ_FLAG));
        for (data, id) in frames {
            assert_eq!(decode_blob(&data).unwrap(), blob, "format 0x{id:02x}");
            let header = peek_header(&data).unwrap();
            assert_eq!(header.format_id, id);
            assert_eq!(header.swap_cluster, 7);
            assert_eq!(header.epoch, 3);
        }
    }

    #[test]
    fn binary_is_smaller_than_xml() {
        let blob = sample_blob();
        let xml = encode_blob(WireFormatKind::Xml, &blob).unwrap();
        let bin = encode_blob(WireFormatKind::Binary, &blob).unwrap();
        assert!(bin.len() < xml.len(), "{} vs {}", bin.len(), xml.len());
    }

    #[test]
    fn lz_frame_must_name_its_inner_format() {
        // A `0x80` (LZ-wrapped XML) header over an LZ-compressed *binary*
        // body decodes the body fine but must still be rejected.
        let blob = sample_blob();
        let mut data = frame_header(LZ_FLAG, &blob);
        data.extend_from_slice(&obiwan_lz::compress(&encode_binary(&blob).unwrap()));
        assert!(decode_blob(&data).is_err());
        let mut sink = BlobBuilder::new();
        assert!(decode_blob_into(&Bytes::from(data), &mut sink).is_err());
    }

    #[test]
    fn hostile_object_and_field_counts_are_rejected_without_reserving() {
        use crate::materialize::ClusterMaterializer;
        let blob = sample_blob();
        let valid = encode_blob(WireFormatKind::Binary, &blob).unwrap();
        // The sample's object count is a one-byte varint right after the
        // header; the first object's field count is the fourth varint of
        // its record (oid, class length + name, repl cluster).
        let field_count_at = HEADER_LEN + 1 + 1 + 1 + "Node".len() + 1;
        assert_eq!(valid[field_count_at], 4);
        for count in [1u64 << 36, 1u64 << 60] {
            for at in [HEADER_LEN, field_count_at] {
                let mut data = valid[..at].to_vec();
                put_varint(&mut data, count);
                data.extend_from_slice(&valid[at + 1..]);
                assert!(decode_blob(&data).is_err(), "count {count} at {at}");
                let mut mat = ClusterMaterializer::new(obiwan_heap::ClassRegistry::new(), 7);
                assert!(
                    decode_blob_into(&Bytes::from(data), &mut mat).is_err(),
                    "count {count} at {at}"
                );
            }
        }
    }

    #[test]
    fn truncated_and_corrupt_frames_are_rejected() {
        let blob = sample_blob();
        for kind in [WireFormatKind::Binary, WireFormatKind::LzBinary] {
            let data = encode_blob(kind, &blob).unwrap();
            for cut in [1, 4, HEADER_LEN - 1, HEADER_LEN + 2, data.len() - 1] {
                assert!(
                    decode_blob(&data[..cut]).is_err(),
                    "cut at {cut} of {}",
                    data.len()
                );
            }
        }
        // Unknown format id.
        let mut bad = encode_blob(WireFormatKind::Binary, &blob).unwrap().to_vec();
        bad[4] = 0x7e;
        assert!(decode_blob(&bad).is_err());
        assert!(peek_header(&bad).is_err());
        // Trailing garbage after a valid binary body.
        let mut long = encode_blob(WireFormatKind::Binary, &blob).unwrap().to_vec();
        long.push(0);
        assert!(decode_blob(&long).is_err());
        // Garbage that is neither a frame nor XML.
        assert!(decode_blob(b"not a blob").is_err());
        assert!(peek_header(b"not a blob").is_err());
    }

    #[test]
    fn zigzag_is_an_involution_at_the_edges() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456789] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn kind_parses_and_prints() {
        for kind in WireFormatKind::ALL {
            assert_eq!(kind.name().parse::<WireFormatKind>().unwrap(), kind);
        }
        assert!("gzip".parse::<WireFormatKind>().is_err());
        assert_eq!(WireFormatKind::default(), WireFormatKind::Xml);
    }
}
