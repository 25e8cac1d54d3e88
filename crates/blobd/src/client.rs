//! `RemoteStore`: a [`BlobStore`] whose bytes live in an `obiwan-blobd`
//! process.
//!
//! The client owns one lazily-established TCP connection behind a mutex
//! (the read-only trait methods `contains`/`used_bytes`/`blob_count` take
//! `&self`), applies per-operation timeouts, and retries each call a
//! bounded number of times with a fresh connection. Failure mapping is the
//! heart of the design: a dead, refused or timed-out daemon surfaces as
//! [`NetError::Departed`] — exactly the error the swapping core's k-way
//! fan-out, ordered failover reload and repair sweep already treat as
//! "move on to the next holder" — while a corrupt frame surfaces as the
//! hard [`NetError::Protocol`], because failover must not paper over
//! corruption.
//!
//! Free space costs no frame of its own. The daemon's `store` and `drop`
//! replies carry the same `(used, quota, count)` payload as `stat`, and a
//! quota refusal carries the used bytes too, so the client keeps the
//! daemon's used bytes from its last such reply and answers
//! [`BlobStore::used_bytes`] from that figure. It forgets the figure when
//! an exchange fails, and sends one `stat` only when it has none: before
//! the first reply that carries one, after a failure, and — against a
//! daemon too old to put the payload on its replies — after every store
//! and drop. The figure is the daemon's own number, never client-side
//! arithmetic; what another client does to the same daemon shows at this
//! client's next reply from it.

use crate::frame::{
    decode_response, decode_stat, encode_request, read_frame, write_frame, FrameError, Request,
    Response,
};
use obiwan_net::{BlobStore, Bytes, DeviceId, NetError};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Per-operation socket timeout (connect, read and write).
const OP_TIMEOUT: Duration = Duration::from_secs(2);

/// Connection attempts per call before declaring the daemon departed.
const MAX_ATTEMPTS: u32 = 3;

/// [`RemoteStore::used`] when no figure is known.
const UNKNOWN: u64 = u64::MAX;

/// A blob store client speaking the framed protocol to one daemon.
pub struct RemoteStore {
    device: DeviceId,
    addr: SocketAddr,
    conn: Mutex<Option<TcpStream>>,
    /// The daemon's used bytes as of its last reply that carried them,
    /// or [`UNKNOWN`]. Read and written `Relaxed`: the figure publishes
    /// no other data.
    used: AtomicU64,
}

/// What one wire call produced, plus whether the connection had to be
/// re-established mid-call (which makes a `Duplicate` on a retried store
/// ambiguous — see [`RemoteStore::store_blob`]).
struct CallOutcome {
    response: Response,
    reconnected: bool,
}

impl RemoteStore {
    /// A client for the daemon at `addr`, attributing errors to `device`
    /// (the id this store plays in the caller's world). The connection is
    /// established lazily on first use.
    pub fn connect(device: DeviceId, addr: SocketAddr) -> RemoteStore {
        RemoteStore {
            device,
            addr,
            conn: Mutex::new(None),
            used: AtomicU64::new(UNKNOWN),
        }
    }

    /// The daemon's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn departed(&self) -> NetError {
        NetError::Departed {
            device: self.device,
        }
    }

    fn protocol(&self, detail: impl std::fmt::Display) -> NetError {
        NetError::Protocol {
            device: self.device,
            detail: detail.to_string(),
        }
    }

    fn dial(&self) -> io::Result<TcpStream> {
        let stream = TcpStream::connect_timeout(&self.addr, OP_TIMEOUT)?;
        stream.set_read_timeout(Some(OP_TIMEOUT))?;
        stream.set_write_timeout(Some(OP_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// Take the cached connection, leaving the slot empty.
    fn take_conn(&self) -> Option<TcpStream> {
        self.conn.lock().unwrap_or_else(|p| p.into_inner()).take()
    }

    /// Stow a healthy connection back for the next call. If another call
    /// raced us and stowed its own, the newer one wins and ours is
    /// dropped — briefly redundant, never wrong.
    fn stow_conn(&self, stream: TcpStream) {
        *self.conn.lock().unwrap_or_else(|p| p.into_inner()) = Some(stream);
    }

    /// One request/response exchange, keeping the used-bytes figure in
    /// step with what the reply says: an `Ok` to a `store`, `drop` or
    /// `stat` carries the figure (none from an old daemon), a quota
    /// refusal carries it, and a failed exchange or a daemon shutting
    /// down leaves none.
    fn call(&self, req: &Request) -> Result<CallOutcome, NetError> {
        let out = self.exchange(req);
        match out.as_ref().map(|o| &o.response) {
            Ok(Response::Ok { payload })
                if matches!(
                    req,
                    Request::Store { .. } | Request::Drop { .. } | Request::Stat
                ) =>
            {
                if payload.is_empty() {
                    self.forget_used();
                } else {
                    let (used, _, _) = decode_stat(payload).map_err(|e| {
                        self.forget_used();
                        self.protocol(&e)
                    })?;
                    self.used.store(used, Ordering::Relaxed);
                }
            }
            Ok(Response::QuotaExceeded { used, .. }) => self.used.store(*used, Ordering::Relaxed),
            Ok(Response::ShuttingDown) | Err(_) => self.forget_used(),
            Ok(_) => {}
        }
        out
    }

    fn forget_used(&self) {
        self.used.store(UNKNOWN, Ordering::Relaxed);
    }

    /// One request/response exchange with bounded reconnect-and-retry.
    ///
    /// The `conn` mutex is held only to take the cached stream out and to
    /// stow it back: every dial and wire exchange runs lock-free, so a
    /// slow or dead daemon stalls only the calling thread, never other
    /// threads parked on the client's lock.
    fn exchange(&self, req: &Request) -> Result<CallOutcome, NetError> {
        let body = encode_request(req);
        let mut cached = self.take_conn();
        let mut reconnected = false;
        for _attempt in 0..MAX_ATTEMPTS {
            if cached.is_none() {
                reconnected = true;
                match self.dial() {
                    Ok(s) => cached = Some(s),
                    Err(_) => continue, // daemon down; next attempt re-dials
                }
            }
            let Some(stream) = cached.as_mut() else {
                continue;
            };
            let exchanged = write_frame(stream, &body).and_then(|()| read_frame(stream));
            match exchanged {
                Ok(resp_body) => {
                    // The wire exchange succeeded, so the connection is
                    // healthy — stow it whatever the payload says.
                    if let Some(stream) = cached.take() {
                        self.stow_conn(stream);
                    }
                    let response = decode_response(&resp_body).map_err(|e| self.protocol(&e))?;
                    if let Response::Malformed { detail } = response {
                        return Err(self.protocol(detail));
                    }
                    return Ok(CallOutcome {
                        response,
                        reconnected,
                    });
                }
                Err(FrameError::Oversized { .. } | FrameError::UnknownStatus(_)) => {
                    return Err(self.protocol("corrupt response frame"));
                }
                Err(_io_or_truncation) => {
                    // Dead socket, timeout or mid-frame stall: reconnect
                    // and retry with the next attempt. The daemon may
                    // have restarted meanwhile, so its old figure goes.
                    cached = None;
                    self.forget_used();
                }
            }
        }
        Err(self.departed())
    }

    fn store_blob(&self, key: &str, data: Bytes) -> Result<(), NetError> {
        let out = self.call(&Request::Store {
            key: key.to_owned(),
            data,
        })?;
        match out.response {
            Response::Ok { .. } => Ok(()),
            // If the connection dropped after the daemon applied a store
            // but before its reply arrived, the retried store sees
            // `Duplicate` for a blob that *is* durably stored. Keys are
            // epoch-unique (`dev{home}-sc{sc}-e{epoch}`), so a duplicate
            // on a reconnected call can only be our own first attempt.
            Response::Duplicate if out.reconnected => Ok(()),
            other => Err(self.response_error(other, "store", key)),
        }
    }

    /// Map a non-`Ok` response to the caller-side error vocabulary.
    fn response_error(&self, resp: Response, op: &'static str, key: &str) -> NetError {
        match resp {
            Response::Ok { .. } => self.protocol("Ok response routed to error mapping"),
            Response::UnknownBlob => NetError::UnknownBlob {
                device: self.device,
                key: key.to_owned(),
            },
            Response::Duplicate => NetError::DuplicateBlob {
                device: self.device,
                key: key.to_owned(),
            },
            Response::QuotaExceeded {
                requested,
                used,
                quota,
            } => NetError::QuotaExceeded {
                device: self.device,
                requested: requested as usize,
                used: used as usize,
                quota: quota as usize,
            },
            Response::Injected => NetError::InjectedFailure {
                device: self.device,
                op,
            },
            Response::Malformed { detail } => self.protocol(detail),
            Response::ShuttingDown => self.departed(),
        }
    }

    /// `(used_bytes, quota, blob_count)` from the daemon's `Stat` op.
    ///
    /// # Errors
    ///
    /// [`NetError::Departed`] for a dead daemon, [`NetError::Protocol`]
    /// for a corrupt reply.
    pub fn stat(&self) -> Result<(u64, u64, u64), NetError> {
        let out = self.call(&Request::Stat)?;
        match out.response {
            Response::Ok { payload } => decode_stat(&payload).map_err(|e| self.protocol(&e)),
            other => Err(self.response_error(other, "stat", "")),
        }
    }

    /// The blob under `key`, as [`BlobStore::fetch`] but through a shared
    /// reference: a fetch changes nothing on this side of the wire.
    ///
    /// # Errors
    ///
    /// As [`BlobStore::fetch`], plus those of a daemon that does not
    /// answer.
    pub fn fetch_blob(&self, key: &str) -> Result<Bytes, NetError> {
        let out = self.call(&Request::Fetch {
            key: key.to_owned(),
        })?;
        match out.response {
            Response::Ok { payload } => Ok(payload),
            other => Err(self.response_error(other, "fetch", key)),
        }
    }

    /// Ask the daemon to shut down gracefully.
    ///
    /// # Errors
    ///
    /// As [`RemoteStore::stat`].
    pub fn shutdown_daemon(&self) -> Result<(), NetError> {
        let out = self.call(&Request::Shutdown)?;
        match out.response {
            Response::Ok { .. } => Ok(()),
            other => Err(self.response_error(other, "shutdown", "")),
        }
    }
}

impl std::fmt::Debug for RemoteStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteStore")
            .field("device", &self.device)
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl BlobStore for RemoteStore {
    fn store(&mut self, key: &str, data: Bytes) -> obiwan_net::Result<()> {
        self.store_blob(key, data)
    }

    fn fetch(&mut self, key: &str) -> obiwan_net::Result<Bytes> {
        self.fetch_blob(key)
    }

    fn drop_blob(&mut self, key: &str) -> obiwan_net::Result<()> {
        let out = self.call(&Request::Drop {
            key: key.to_owned(),
        })?;
        match out.response {
            Response::Ok { .. } => Ok(()),
            // Symmetric to the store-retry case: if the daemon applied
            // the drop but the reply was lost, the retry sees the key
            // already gone.
            Response::UnknownBlob if out.reconnected => Ok(()),
            other => Err(self.response_error(other, "drop", key)),
        }
    }

    fn contains(&self, key: &str) -> bool {
        self.call(&Request::PeekHeader {
            key: key.to_owned(),
        })
        .is_ok_and(|out| matches!(out.response, Response::Ok { .. }))
    }

    /// The figure from the daemon's last reply that carried one, else
    /// one `stat`; [`NetError::Departed`] when neither answers.
    fn used_bytes(&self) -> obiwan_net::Result<usize> {
        match self.used.load(Ordering::Relaxed) {
            UNKNOWN => self.stat().map(|(used, _, _)| used as usize),
            used => Ok(used as usize),
        }
    }

    fn blob_count(&self) -> usize {
        self.stat().map(|(_, _, n)| n as usize).unwrap_or(0)
    }
}
