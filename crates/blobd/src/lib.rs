//! `obiwan-blobd` — the paper's "dumb storage device" as a real process.
//!
//! The paper requires of a storage device only that it "store and return a
//! textual representation of the serialized objects". PRs 0–7 modelled
//! that device inside the [`obiwan_net::SimNet`] simulation; this crate is
//! the same three-verb store as a standalone TCP daemon, so the swap
//! fabric can run as the distributed system the paper describes: a PDA's
//! middleware detaching swap-clusters and shipping the self-describing
//! wire-format blobs to live neighbour processes.
//!
//! # Wire protocol
//!
//! Every message is one frame: `[u32 LE body-length][body]`, bodies capped
//! at [`frame::MAX_FRAME`]. Requests are `[op][key_len u16 LE][key][payload]`,
//! responses `[status][payload]`:
//!
//! | op | name | payload → | reply payload |
//! |----|------|-----------|---------------|
//! | 1 | `store` | blob bytes | used, quota, count after the store (3 × u64 LE) |
//! | 2 | `fetch` | — | blob bytes |
//! | 3 | `drop` | — | used, quota, count after the drop (3 × u64 LE) |
//! | 4 | `peek_header` | — | first ≤ 64 B of the blob |
//! | 5 | `stat` | — | used, quota, count (3 × u64 LE) |
//! | 6 | `shutdown` | — | empty |
//!
//! | status | meaning |
//! |--------|---------|
//! | 0 | ok |
//! | 1 | unknown blob |
//! | 2 | duplicate key |
//! | 3 | quota exceeded (payload: requested/used/quota, 3 × u64 LE) |
//! | 4 | malformed request |
//! | 5 | injected failure |
//! | 6 | shutting down |
//!
//! The daemon wraps the simulation's own [`obiwan_net::MemStore`], so
//! quota accounting (keys charged and refunded symmetrically with
//! payloads) is byte-identical on both sides of the wire. The
//! [`RemoteStore`] client implements [`obiwan_net::BlobStore`] over this
//! protocol with per-op timeouts and bounded reconnect-retry, mapping a
//! dead daemon to [`obiwan_net::NetError::Departed`] (so the core's
//! ordered failover works unchanged) and corruption to the hard
//! [`obiwan_net::NetError::Protocol`]. Because `store` and `drop` replies
//! carry the daemon's used bytes, the client answers
//! [`obiwan_net::BlobStore::used_bytes`] from its last reply and asks
//! `stat` only when it has no figure; a daemon that answers neither is
//! `Departed`, never empty. Only `Ok` replies carry the counters, and a
//! daemon older than them sends `store` and `drop` replies empty.
//!
//! Real time enters only through [`obiwan_net::clock::real`] — the
//! workspace's single sanctioned wall-clock seam (lint S7).

pub mod client;
pub mod frame;
pub mod server;

pub use client::RemoteStore;
pub use frame::{FrameError, Request, Response, MAX_FRAME, PEEK_LEN};
pub use server::{Blobd, BlobdHandle};
