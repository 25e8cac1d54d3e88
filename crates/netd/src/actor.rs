//! One device, one actor: an inbox thread owning a blob store.
//!
//! Each device in an [`crate::ActorNet`] world is a thread draining an
//! `mpsc` inbox. Because an inbox is a FIFO channel and the actor applies
//! envelopes strictly in arrival order against a store only it touches,
//! delivery is *mailbox-ordered*: two operations sent to the same device
//! are applied in send order, the fleet-of-replicas shape of the
//! ic-kit-style runtimes named in the roadmap.
//!
//! The store behind an actor is either the simulation's own
//! [`obiwan_net::MemStore`] or a [`obiwan_blobd::RemoteStore`] fronting a
//! live `obiwan-blobd` process — the actor neither knows nor cares.

use obiwan_net::{BlobStore, Bytes, NetError, Result};
use std::collections::BTreeSet;
use std::sync::mpsc;
use std::time::Duration;

/// An operation shipped to a device actor.
pub(crate) enum Op {
    Store {
        /// Blob key.
        key: String,
        /// Opaque blob bytes.
        data: Bytes,
    },
    Fetch {
        /// Blob key.
        key: String,
    },
    Drop {
        /// Blob key.
        key: String,
    },
    /// Control plane: presence of a key (no airtime accounting).
    Contains {
        /// Blob key.
        key: String,
    },
    /// Control plane: sorted list of held keys.
    Keys,
    /// Control plane: blob bytes without the transfer verbs' semantics.
    Data {
        /// Blob key.
        key: String,
    },
    /// Control plane: bytes currently charged against the quota.
    Used,
    /// Stop the actor thread.
    Shutdown,
}

/// What an actor sends back.
pub(crate) enum Reply {
    Unit,
    Blob(Bytes),
    Flag(bool),
    Keys(Vec<String>),
    MaybeBlob(Option<Bytes>),
    Size(usize),
}

pub(crate) struct Envelope {
    pub(crate) op: Op,
    pub(crate) reply: mpsc::SyncSender<Result<Reply>>,
}

/// A running device actor: its inbox plus the join handle.
pub(crate) struct Actor {
    inbox: mpsc::Sender<Envelope>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Actor {
    /// Spawn an actor owning `store`.
    pub(crate) fn spawn(store: Box<dyn BlobStore + Send>) -> Actor {
        let (inbox, rx) = mpsc::channel::<Envelope>();
        let thread = std::thread::spawn(move || actor_main(store, &rx));
        Actor {
            inbox,
            thread: Some(thread),
        }
    }

    /// Ship `op` to the actor and wait for its reply. A dead actor or a
    /// reply that does not arrive within `timeout` maps to
    /// [`NetError::Departed`] — the same signal the core's failover
    /// machinery already handles for devices that walked away.
    pub(crate) fn call(
        &self,
        device: obiwan_net::DeviceId,
        op: Op,
        timeout: Duration,
    ) -> Result<Reply> {
        let (reply, rx) = mpsc::sync_channel(1);
        let departed = NetError::Departed { device };
        self.inbox
            .send(Envelope { op, reply })
            .map_err(|_| departed.clone())?;
        match rx.recv_timeout(timeout) {
            Ok(result) => result,
            Err(_) => Err(departed),
        }
    }
}

impl Drop for Actor {
    fn drop(&mut self) {
        let (reply, _rx) = mpsc::sync_channel(1);
        let _ = self.inbox.send(Envelope {
            op: Op::Shutdown,
            reply,
        });
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

/// The actor loop: drain the inbox in order until shutdown.
fn actor_main(mut store: Box<dyn BlobStore + Send>, rx: &mpsc::Receiver<Envelope>) {
    // `BlobStore` cannot enumerate keys, so the actor mirrors them:
    // updated only on verbs that succeeded against the store, the mirror
    // stays exact for local stores and eventually-exact for remote ones.
    let mut keys: BTreeSet<String> = BTreeSet::new();
    while let Ok(Envelope { op, reply }) = rx.recv() {
        let result = match op {
            Op::Store { key, data } => {
                let r = store.store(&key, data);
                if r.is_ok() {
                    keys.insert(key);
                }
                r.map(|()| Reply::Unit)
            }
            Op::Fetch { key } => store.fetch(&key).map(Reply::Blob),
            Op::Drop { key } => {
                let r = store.drop_blob(&key);
                if r.is_ok() {
                    keys.remove(&key);
                }
                r.map(|()| Reply::Unit)
            }
            Op::Contains { key } => Ok(Reply::Flag(store.contains(&key))),
            Op::Keys => Ok(Reply::Keys(keys.iter().cloned().collect())),
            Op::Data { key } => Ok(Reply::MaybeBlob(store.fetch(&key).ok())),
            Op::Used => Ok(Reply::Size(store.used_bytes())),
            Op::Shutdown => {
                let _ = reply.try_send(Ok(Reply::Unit));
                return;
            }
        };
        // A caller that timed out and went away is not an actor error.
        let _ = reply.try_send(result);
    }
}
