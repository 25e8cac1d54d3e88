//! The daemon: a TCP accept loop over a quota-enforcing [`MemStore`].
//!
//! One `Blobd` is one storage device as a real process. Each accepted
//! connection gets its own thread; requests on a connection are served in
//! arrival order against the shared store, so the daemon mirrors the
//! simulation's per-device serialization. Quota enforcement *is*
//! [`MemStore`]'s — the daemon wraps the exact store the simulation runs,
//! so the charge/refund symmetry the quota tests pin holds identically on
//! both sides of the wire.
//!
//! Shutdown is graceful: a `Shutdown` request (or
//! [`BlobdHandle::shutdown`]) flips a flag; the accept loop stops taking
//! connections, in-flight connections finish their current frame and see
//! `ShuttingDown` afterwards, and [`Blobd::run`] joins every connection
//! thread before returning.

use crate::frame::{
    decode_request, encode_response, encode_stat, read_frame, write_frame, FrameError, Request,
    Response, PEEK_LEN,
};
use obiwan_net::clock::RealClock;
use obiwan_net::{BlobStore, Bytes, DeviceId, MemStore, NetError};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How long a connection thread blocks on a read before re-checking the
/// shutdown flag. Bounds both shutdown latency and how long a stalled
/// peer can pin a thread.
const READ_POLL: Duration = Duration::from_millis(100);

/// How long the accept loop sleeps between polls.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Shared daemon state: the store plus control flags.
struct Shared {
    store: Mutex<MemStore>,
    shutdown: AtomicBool,
    ops_served: AtomicU64,
    clock: RealClock,
    started_at_us: AtomicU64,
}

impl Shared {
    fn lock_store(&self) -> std::sync::MutexGuard<'_, MemStore> {
        // A poisoned store means a peer thread panicked mid-op; the store
        // itself is a plain map and stays structurally valid, and a
        // storage daemon must keep serving the surviving replicas.
        self.store.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// A handle for controlling a running daemon from another thread.
#[derive(Clone)]
pub struct BlobdHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl BlobdHandle {
    /// The address the daemon is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the daemon to stop; [`Blobd::run`] returns shortly after.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Total requests served so far.
    pub fn ops_served(&self) -> u64 {
        self.shared.ops_served.load(Ordering::SeqCst)
    }

    /// Microseconds this daemon has been up, by the sanctioned real
    /// clock seam.
    pub fn uptime_us(&self) -> u64 {
        self.shared
            .clock
            .now()
            .as_micros()
            .saturating_sub(self.shared.started_at_us.load(Ordering::SeqCst))
    }
}

/// The blob-store daemon: the paper's dumb storage device as a process.
pub struct Blobd {
    listener: TcpListener,
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl Blobd {
    /// Bind a daemon with a storage quota. Use port `0` to let the OS
    /// pick; read the result back from [`Blobd::local_addr`].
    ///
    /// # Errors
    ///
    /// The underlying bind failure.
    pub fn bind(addr: &str, quota: usize) -> io::Result<Blobd> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let clock = obiwan_net::clock::real();
        let started_at_us = AtomicU64::new(clock.now().as_micros());
        Ok(Blobd {
            listener,
            shared: Arc::new(Shared {
                // The daemon is one device; id 0 is its self-attribution
                // in store errors (clients re-attribute to their own id).
                store: Mutex::new(MemStore::new(DeviceId::from_index(0), quota)),
                shutdown: AtomicBool::new(false),
                ops_served: AtomicU64::new(0),
                clock,
                started_at_us,
            }),
            addr,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A control handle usable from other threads.
    pub fn handle(&self) -> BlobdHandle {
        BlobdHandle {
            shared: Arc::clone(&self.shared),
            addr: self.addr,
        }
    }

    /// Serve until shut down, then join every connection thread.
    ///
    /// # Errors
    ///
    /// Accept-loop I/O faults other than the expected non-blocking
    /// `WouldBlock`.
    pub fn run(self) -> io::Result<()> {
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let shared = Arc::clone(&self.shared);
                    conns.push(std::thread::spawn(move || serve_conn(stream, &shared)));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            conns.retain(|h| !h.is_finished());
        }
        for h in conns {
            let _ = h.join();
        }
        Ok(())
    }

    /// Bind on a loopback ephemeral port and serve on a background
    /// thread — the in-process deployment the loopback tests, the live
    /// fabric's tests and the benchmark use.
    ///
    /// # Errors
    ///
    /// As [`Blobd::bind`].
    pub fn spawn_local(quota: usize) -> io::Result<BlobdHandle> {
        let daemon = Blobd::bind("127.0.0.1:0", quota)?;
        let handle = daemon.handle();
        std::thread::spawn(move || {
            let _ = daemon.run();
        });
        Ok(handle)
    }
}

/// Serve one connection until close, fatal framing fault, or shutdown.
fn serve_conn(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_nodelay(true);
    let mut reader = io::BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = io::BufWriter::new(stream);
    loop {
        let body = match read_frame(&mut reader) {
            Ok(body) => body,
            Err(FrameError::Closed) => return,
            Err(FrameError::Io { kind, .. })
                if kind == io::ErrorKind::WouldBlock || kind == io::ErrorKind::TimedOut =>
            {
                // Idle poll tick: re-check shutdown, keep the connection.
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(FrameError::Io { .. }) => return,
            Err(fatal @ FrameError::Oversized { .. }) => {
                // The stream cannot be resynchronized after a corrupt
                // length prefix: report and drop the connection.
                let resp = Response::Malformed {
                    detail: fatal.to_string(),
                };
                let _ = write_frame(&mut writer, &encode_response(&resp));
                return;
            }
            Err(other) => {
                let resp = Response::Malformed {
                    detail: other.to_string(),
                };
                let _ = write_frame(&mut writer, &encode_response(&resp));
                return;
            }
        };
        let resp = match decode_request(&body) {
            // Frame boundaries survived but the body is corrupt: the
            // connection stays usable for the next frame.
            Err(bad) => Response::Malformed {
                detail: bad.to_string(),
            },
            Ok(req) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    Response::ShuttingDown
                } else {
                    apply(shared, req)
                }
            }
        };
        shared.ops_served.fetch_add(1, Ordering::SeqCst);
        if write_frame(&mut writer, &encode_response(&resp)).is_err() {
            return;
        }
    }
}

/// Apply one decoded request to the store.
fn apply(shared: &Shared, req: Request) -> Response {
    match req {
        Request::Store { key, data } => {
            let mut store = shared.lock_store();
            match store.store(&key, data) {
                Ok(()) => stat_reply(&store),
                Err(e) => error_response(e),
            }
        }
        Request::Fetch { key } => match shared.lock_store().fetch(&key) {
            Ok(data) => Response::Ok { payload: data },
            Err(e) => error_response(e),
        },
        Request::Drop { key } => {
            let mut store = shared.lock_store();
            match store.drop_blob(&key) {
                Ok(()) => stat_reply(&store),
                Err(e) => error_response(e),
            }
        }
        Request::PeekHeader { key } => match shared.lock_store().peek(&key) {
            Some(data) => {
                let head = data.get(..PEEK_LEN.min(data.len())).unwrap_or_default();
                Response::Ok {
                    payload: Bytes::copy_from_slice(head),
                }
            }
            None => Response::UnknownBlob,
        },
        Request::Stat => stat_reply(&shared.lock_store()),
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            Response::Ok {
                payload: Bytes::new(),
            }
        }
    }
}

/// An `Ok` carrying the store's `(used, quota, count)`: the `stat` reply,
/// and the reply to every applied `store` and `drop`, so a client learns
/// the daemon's free space without asking for it.
fn stat_reply(store: &MemStore) -> Response {
    let payload = encode_stat(
        store.used() as u64,
        store.quota() as u64,
        store.blob_count() as u64,
    );
    Response::Ok {
        payload: Bytes::from(payload),
    }
}

/// Map a store-side [`NetError`] onto the wire status vocabulary.
fn error_response(e: NetError) -> Response {
    match e {
        NetError::UnknownBlob { .. } => Response::UnknownBlob,
        NetError::DuplicateBlob { .. } => Response::Duplicate,
        NetError::QuotaExceeded {
            requested,
            used,
            quota,
            ..
        } => Response::QuotaExceeded {
            requested: requested as u64,
            used: used as u64,
            quota: quota as u64,
        },
        NetError::InjectedFailure { .. } => Response::Injected,
        other => Response::Malformed {
            detail: other.to_string(),
        },
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may panic on impossible states
mod tests {
    use super::*;
    use crate::client::RemoteStore;

    #[test]
    fn spawned_daemon_serves_the_three_verbs() {
        let handle = Blobd::spawn_local(1 << 20).unwrap();
        let mut store = RemoteStore::connect(DeviceId::from_index(1), handle.addr());
        let data = Bytes::from_static(b"<swap-cluster/>");
        store.store("k1", data.clone()).unwrap();
        assert!(store.contains("k1"));
        assert_eq!(store.fetch("k1").unwrap(), data);
        store.drop_blob("k1").unwrap();
        assert!(!store.contains("k1"));
        assert!(handle.ops_served() >= 4);
        handle.shutdown();
    }

    #[test]
    fn quota_violation_carries_the_accounting() {
        let handle = Blobd::spawn_local(8).unwrap();
        let mut store = RemoteStore::connect(DeviceId::from_index(1), handle.addr());
        let err = store
            .store("key-much-longer-than-quota", Bytes::from_static(b"xxxx"))
            .unwrap_err();
        assert!(matches!(err, NetError::QuotaExceeded { quota: 8, .. }));
        handle.shutdown();
    }

    #[test]
    fn store_and_drop_replies_carry_the_stat_payload() {
        let handle = Blobd::spawn_local(1 << 10).unwrap();
        let mut conn = TcpStream::connect(handle.addr()).unwrap();
        let mut ask = |req: Request| {
            write_frame(&mut conn, &crate::frame::encode_request(&req)).unwrap();
            crate::frame::decode_response(&read_frame(&mut conn).unwrap()).unwrap()
        };
        let stat = |used: u64, count: u64| Response::Ok {
            payload: Bytes::from(encode_stat(used, 1 << 10, count)),
        };
        let data = Bytes::from_static(b"blob");
        let store = |key: &str| Request::Store {
            key: key.into(),
            data: data.clone(),
        };
        // Key bytes plus payload bytes, as `MemStore` charges them.
        assert_eq!(ask(store("k1")), stat(6, 1));
        assert_eq!(ask(store("k2")), stat(12, 2));
        assert_eq!(ask(Request::Drop { key: "k1".into() }), stat(6, 1));
        assert_eq!(ask(Request::Stat), stat(6, 1));
        // A refused verb changes nothing and carries no figure.
        assert_eq!(ask(store("k2")), Response::Duplicate);
        handle.shutdown();
    }
}
