//! Length-prefixed framing of the three-verb protocol.
//!
//! Every message on the wire is one frame: a 4-byte little-endian body
//! length followed by the body. Request bodies are
//! `[op u8][key_len u16 LE][key bytes][payload]`; response bodies are
//! `[status u8][payload]`. The payload of a `Store` request and of a
//! successful `Fetch` response is the self-describing wire-format blob
//! exactly as the simulation ships it — the daemon never inspects it,
//! faithful to the paper's "dumb storage device".
//!
//! Decoding is total: any truncated, oversized or corrupt input maps to a
//! structured [`FrameError`], never a panic (the framing proptests in
//! `tests/framing.rs` drive truncation at every byte offset, the same
//! pattern the core wire formats are pinned with).

use obiwan_net::Bytes;
use std::io::{Read, Write};

/// Hard cap on a frame body. A swap blob at the repo's largest benchmark
/// sizes is well under a megabyte; anything beyond this is corruption or
/// abuse, and is rejected before any allocation.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Bytes returned by a `PeekHeader` response: enough to cover every
/// self-describing wire-format header.
pub const PEEK_LEN: usize = 64;

/// A structured framing/decoding fault. Every decoding path returns one of
/// these; none panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The body (or a field inside it) ended before its declared length.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized {
        /// Declared body length.
        len: usize,
        /// The cap it violated.
        max: usize,
    },
    /// The op byte is not part of the protocol.
    UnknownOp(u8),
    /// The status byte is not part of the protocol.
    UnknownStatus(u8),
    /// The key bytes are not valid UTF-8.
    BadKey,
    /// The body carries bytes past the end of the decoded message.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// An I/O fault on the underlying stream (includes read timeouts).
    Io {
        /// The I/O error kind.
        kind: std::io::ErrorKind,
        /// Human-readable detail.
        detail: String,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed at frame boundary"),
            FrameError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} B, got {got} B")
            }
            FrameError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} B declared, cap is {max} B")
            }
            FrameError::UnknownOp(op) => write!(f, "unknown op byte {op:#04x}"),
            FrameError::UnknownStatus(s) => write!(f, "unknown status byte {s:#04x}"),
            FrameError::BadKey => write!(f, "frame key is not valid UTF-8"),
            FrameError::TrailingBytes { extra } => {
                write!(f, "{extra} B of trailing garbage after the message")
            }
            FrameError::Io { kind, detail } => write!(f, "i/o fault ({kind:?}): {detail}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io {
            kind: e.kind(),
            detail: e.to_string(),
        }
    }
}

/// A decoded request body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Store `data` under `key`.
    Store {
        /// Blob key.
        key: String,
        /// Opaque blob bytes.
        data: Bytes,
    },
    /// Return the blob under `key`.
    Fetch {
        /// Blob key.
        key: String,
    },
    /// Drop the blob under `key`.
    Drop {
        /// Blob key.
        key: String,
    },
    /// Return the first [`PEEK_LEN`] bytes of the blob under `key`
    /// (control plane: cheap existence/header checks without airtime).
    PeekHeader {
        /// Blob key.
        key: String,
    },
    /// Report `(used_bytes, quota, blob_count)`.
    Stat,
    /// Ask the daemon to stop accepting work and exit.
    Shutdown,
}

/// A decoded response body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success; the payload depends on the request op.
    Ok {
        /// `Fetch` → the blob; `PeekHeader` → its prefix; `Stat`,
        /// `Store` and `Drop` → the store's used/quota/count after the op
        /// as three LE u64 counters (a daemon older than the `Store` and
        /// `Drop` payload sends those two empty); `Shutdown` → empty.
        payload: Bytes,
    },
    /// The key is not stored here.
    UnknownBlob,
    /// The key is already stored here.
    Duplicate,
    /// Storing would exceed the quota.
    QuotaExceeded {
        /// Bytes the store needed.
        requested: u64,
        /// Bytes already charged.
        used: u64,
        /// The daemon's quota.
        quota: u64,
    },
    /// The daemon could not decode the request.
    Malformed {
        /// What the daemon rejected.
        detail: String,
    },
    /// A deterministic injected failure fired (fault-injection testing).
    Injected,
    /// The daemon is shutting down and refuses new work.
    ShuttingDown,
}

const OP_STORE: u8 = 1;
const OP_FETCH: u8 = 2;
const OP_DROP: u8 = 3;
const OP_PEEK: u8 = 4;
const OP_STAT: u8 = 5;
const OP_SHUTDOWN: u8 = 6;

const ST_OK: u8 = 0;
const ST_UNKNOWN_BLOB: u8 = 1;
const ST_DUPLICATE: u8 = 2;
const ST_QUOTA: u8 = 3;
const ST_MALFORMED: u8 = 4;
const ST_INJECTED: u8 = 5;
const ST_SHUTTING_DOWN: u8 = 6;

/// Bounded-consumption reader over a frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self.pos.checked_add(n).ok_or(FrameError::Oversized {
            len: usize::MAX,
            max: MAX_FRAME,
        })?;
        let got = self.buf.get(self.pos..end).ok_or(FrameError::Truncated {
            needed: n,
            got: self.buf.len().saturating_sub(self.pos),
        })?;
        self.pos = end;
        Ok(got)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        self.take(1).map(|b| b.first().copied().unwrap_or_default())
    }

    fn u16_le(&mut self) -> Result<u16, FrameError> {
        let b = self.take(2)?;
        let arr: [u8; 2] = b.try_into().map_err(|_| FrameError::Truncated {
            needed: 2,
            got: b.len(),
        })?;
        Ok(u16::from_le_bytes(arr))
    }

    fn u64_le(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        let arr: [u8; 8] = b.try_into().map_err(|_| FrameError::Truncated {
            needed: 8,
            got: b.len(),
        })?;
        Ok(u64::from_le_bytes(arr))
    }

    fn rest(&mut self) -> &'a [u8] {
        let out = self.buf.get(self.pos..).unwrap_or_default();
        self.pos = self.buf.len();
        out
    }

    fn finish(self) -> Result<(), FrameError> {
        let extra = self.buf.len().saturating_sub(self.pos);
        if extra > 0 {
            return Err(FrameError::TrailingBytes { extra });
        }
        Ok(())
    }
}

fn decode_key(c: &mut Cursor<'_>) -> Result<String, FrameError> {
    let len = usize::from(c.u16_le()?);
    let raw = c.take(len)?;
    std::str::from_utf8(raw)
        .map(str::to_owned)
        .map_err(|_| FrameError::BadKey)
}

/// Encode a request body (no length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    fn keyed(op: u8, key: &str, payload: &[u8]) -> Vec<u8> {
        let key = key.as_bytes();
        let key_len = u16::try_from(key.len()).unwrap_or(u16::MAX);
        let key = key.get(..usize::from(key_len)).unwrap_or_default();
        let mut out = Vec::with_capacity(3 + key.len() + payload.len());
        out.push(op);
        out.extend_from_slice(&key_len.to_le_bytes());
        out.extend_from_slice(key);
        out.extend_from_slice(payload);
        out
    }
    match req {
        Request::Store { key, data } => keyed(OP_STORE, key, data),
        Request::Fetch { key } => keyed(OP_FETCH, key, &[]),
        Request::Drop { key } => keyed(OP_DROP, key, &[]),
        Request::PeekHeader { key } => keyed(OP_PEEK, key, &[]),
        Request::Stat => keyed(OP_STAT, "", &[]),
        Request::Shutdown => keyed(OP_SHUTDOWN, "", &[]),
    }
}

/// Decode a request body (no length prefix).
///
/// # Errors
///
/// Any structural fault as a [`FrameError`]; decoding never panics.
pub fn decode_request(body: &[u8]) -> Result<Request, FrameError> {
    let mut c = Cursor::new(body);
    let op = c.u8()?;
    let key = decode_key(&mut c)?;
    let req = match op {
        OP_STORE => Request::Store {
            key,
            data: Bytes::copy_from_slice(c.rest()),
        },
        OP_FETCH => Request::Fetch { key },
        OP_DROP => Request::Drop { key },
        OP_PEEK => Request::PeekHeader { key },
        OP_STAT => Request::Stat,
        OP_SHUTDOWN => Request::Shutdown,
        other => return Err(FrameError::UnknownOp(other)),
    };
    c.finish()?;
    Ok(req)
}

/// Encode a response body (no length prefix).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Ok { payload } => {
            let mut out = Vec::with_capacity(1 + payload.len());
            out.push(ST_OK);
            out.extend_from_slice(payload);
            out
        }
        Response::UnknownBlob => vec![ST_UNKNOWN_BLOB],
        Response::Duplicate => vec![ST_DUPLICATE],
        Response::QuotaExceeded {
            requested,
            used,
            quota,
        } => {
            let mut out = Vec::with_capacity(25);
            out.push(ST_QUOTA);
            out.extend_from_slice(&requested.to_le_bytes());
            out.extend_from_slice(&used.to_le_bytes());
            out.extend_from_slice(&quota.to_le_bytes());
            out
        }
        Response::Malformed { detail } => {
            let mut out = Vec::with_capacity(1 + detail.len());
            out.push(ST_MALFORMED);
            out.extend_from_slice(detail.as_bytes());
            out
        }
        Response::Injected => vec![ST_INJECTED],
        Response::ShuttingDown => vec![ST_SHUTTING_DOWN],
    }
}

/// Decode a response body (no length prefix).
///
/// # Errors
///
/// Any structural fault as a [`FrameError`]; decoding never panics.
pub fn decode_response(body: &[u8]) -> Result<Response, FrameError> {
    let mut c = Cursor::new(body);
    let status = c.u8()?;
    let resp = match status {
        ST_OK => Response::Ok {
            payload: Bytes::copy_from_slice(c.rest()),
        },
        ST_UNKNOWN_BLOB => Response::UnknownBlob,
        ST_DUPLICATE => Response::Duplicate,
        ST_QUOTA => Response::QuotaExceeded {
            requested: c.u64_le()?,
            used: c.u64_le()?,
            quota: c.u64_le()?,
        },
        ST_MALFORMED => Response::Malformed {
            detail: String::from_utf8_lossy(c.rest()).into_owned(),
        },
        ST_INJECTED => Response::Injected,
        ST_SHUTTING_DOWN => Response::ShuttingDown,
        other => return Err(FrameError::UnknownStatus(other)),
    };
    c.finish()?;
    Ok(resp)
}

/// Write one length-prefixed frame.
///
/// # Errors
///
/// [`FrameError::Oversized`] if the body exceeds [`MAX_FRAME`], or the
/// underlying I/O fault.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> Result<(), FrameError> {
    if body.len() > MAX_FRAME {
        return Err(FrameError::Oversized {
            len: body.len(),
            max: MAX_FRAME,
        });
    }
    let len = u32::try_from(body.len()).map_err(|_| FrameError::Oversized {
        len: body.len(),
        max: MAX_FRAME,
    })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(body)?;
    w.flush()?;
    Ok(())
}

/// Consecutive zero-progress read timeouts tolerated once a frame has
/// started arriving. A peer making *any* progress resets the count; a
/// peer that stalls mid-frame for this many socket-timeout ticks is
/// declared dead rather than pinning the connection forever.
const MID_FRAME_STALL_LIMIT: u32 = 20;

/// Fill `buf` completely, tolerating bounded mid-transfer stalls.
///
/// `at_boundary` marks whether byte 0 of `buf` is a frame boundary: a
/// clean close there is [`FrameError::Closed`], and a read timeout there
/// is surfaced immediately as the idle-poll signal. Past the boundary,
/// a close is [`FrameError::Truncated`] and timeouts are retried up to
/// [`MID_FRAME_STALL_LIMIT`] before giving up.
fn read_full(r: &mut impl Read, buf: &mut [u8], at_boundary: bool) -> Result<(), FrameError> {
    let needed = buf.len();
    let mut filled = 0;
    let mut stalls = 0u32;
    while filled < needed {
        match r.read(buf.get_mut(filled..).unwrap_or_default()) {
            Ok(0) => {
                if filled == 0 && at_boundary {
                    return Err(FrameError::Closed);
                }
                return Err(FrameError::Truncated {
                    needed,
                    got: filled,
                });
            }
            Ok(n) => {
                filled += n;
                stalls = 0;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if filled == 0 && at_boundary {
                    return Err(e.into()); // idle between frames, not a fault
                }
                stalls += 1;
                if stalls >= MID_FRAME_STALL_LIMIT {
                    // The peer stalled mid-frame past all patience: the
                    // stream can never be resynchronized, so report what
                    // did arrive rather than an ambiguous timeout (an
                    // `Io`/`WouldBlock` here would read as an idle tick).
                    return Err(FrameError::Truncated {
                        needed,
                        got: filled,
                    });
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Read one length-prefixed frame body.
///
/// # Errors
///
/// [`FrameError::Closed`] on a clean close at a frame boundary,
/// [`FrameError::Oversized`] when the prefix violates [`MAX_FRAME`], and
/// [`FrameError::Io`] for timeouts and stream faults. A declared length
/// the peer never delivers surfaces as [`FrameError::Truncated`] or a
/// bounded run of timeouts — never an unbounded hang.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut len_buf = [0u8; 4];
    read_full(r, &mut len_buf, true)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::Oversized {
            len,
            max: MAX_FRAME,
        });
    }
    let mut body = vec![0u8; len];
    read_full(r, &mut body, false)?;
    Ok(body)
}

/// Encode the 24-byte `Stat` payload.
pub fn encode_stat(used: u64, quota: u64, count: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(24);
    out.extend_from_slice(&used.to_le_bytes());
    out.extend_from_slice(&quota.to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
    out
}

/// Decode the 24-byte `Stat` payload as `(used, quota, count)`.
///
/// # Errors
///
/// [`FrameError::Truncated`] / [`FrameError::TrailingBytes`] on a payload
/// of the wrong size.
pub fn decode_stat(payload: &[u8]) -> Result<(u64, u64, u64), FrameError> {
    let mut c = Cursor::new(payload);
    let used = c.u64_le()?;
    let quota = c.u64_le()?;
    let count = c.u64_le()?;
    c.finish()?;
    Ok((used, quota, count))
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may panic on impossible states
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let reqs = [
            Request::Store {
                key: "dev0-sc1-e2".into(),
                data: Bytes::from_static(b"<swap-cluster/>"),
            },
            Request::Fetch { key: "k".into() },
            Request::Drop { key: "k".into() },
            Request::PeekHeader { key: "k".into() },
            Request::Stat,
            Request::Shutdown,
        ];
        for req in reqs {
            let body = encode_request(&req);
            assert_eq!(decode_request(&body).unwrap(), req);
        }
    }

    #[test]
    fn response_roundtrip() {
        let resps = [
            Response::Ok {
                payload: Bytes::from_static(b"blob"),
            },
            Response::UnknownBlob,
            Response::Duplicate,
            Response::QuotaExceeded {
                requested: 10,
                used: 90,
                quota: 95,
            },
            Response::Malformed {
                detail: "bad".into(),
            },
            Response::Injected,
            Response::ShuttingDown,
        ];
        for resp in resps {
            let body = encode_response(&resp);
            assert_eq!(decode_response(&body).unwrap(), resp);
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert!(matches!(err, FrameError::Oversized { .. }));
    }

    #[test]
    fn clean_close_is_distinguished_from_truncation() {
        let empty: &[u8] = &[];
        assert_eq!(read_frame(&mut { empty }).unwrap_err(), FrameError::Closed);
        let partial: &[u8] = &[3, 0];
        assert!(matches!(
            read_frame(&mut { partial }).unwrap_err(),
            FrameError::Truncated { .. }
        ));
    }

    #[test]
    fn unknown_op_and_status_are_structured_errors() {
        assert_eq!(
            decode_request(&[0xee, 0, 0]).unwrap_err(),
            FrameError::UnknownOp(0xee)
        );
        assert_eq!(
            decode_response(&[0xee]).unwrap_err(),
            FrameError::UnknownStatus(0xee)
        );
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut body = encode_request(&Request::Fetch { key: "k".into() });
        body.push(0xff);
        assert!(matches!(
            decode_request(&body).unwrap_err(),
            FrameError::TrailingBytes { extra: 1 }
        ));
    }

    #[test]
    fn stat_payload_roundtrip() {
        let p = encode_stat(1, 2, 3);
        assert_eq!(decode_stat(&p).unwrap(), (1, 2, 3));
        assert!(decode_stat(&p[..23]).is_err());
    }
}
