//! Deterministic simulated wireless world for the OBIWAN reproduction.
//!
//! The paper swaps object clusters over Bluetooth (700 Kbps on an iPAQ 3360)
//! to *dumb* nearby devices that only store, return or drop opaque bytes
//! keyed by a cluster id (the paper's wire format is XML text; the store
//! does not care). This crate simulates that world:
//!
//! * a virtual [`Clock`] in microseconds — no wall time, fully deterministic;
//! * [`DeviceId`]s with profiles ([`DeviceKind`], storage quota);
//! * [`LinkSpec`]s with bandwidth + latency (including the paper's
//!   [`LinkSpec::bluetooth`] preset) used to *cost* every transfer;
//! * per-device blob stores implementing the three-verb protocol
//!   (store / fetch / drop) with quota enforcement;
//! * one control plane, the [`Room`], that the simulation and the live
//!   actor runtime share: device and link tables, routing, error
//!   precedence and injected failures ([`FailurePlan`]);
//! * churn: devices can [`Transport::depart`] (taking their blobs with
//!   them) and re-[`Transport::arrive`], which is how the tests exercise
//!   the "storage device walked away" scenario the paper's vision implies;
//! * a [`TraceEvent`] log for tests and examples.
//!
//! # Examples
//!
//! ```
//! use obiwan_net::{DeviceKind, LinkSpec, SimNet, Transport};
//!
//! # fn main() -> Result<(), obiwan_net::NetError> {
//! let mut net = SimNet::new();
//! let pda = net.add_device("my-pda", DeviceKind::Pda, 0);
//! let laptop = net.add_device("desk-laptop", DeviceKind::Laptop, 1 << 20);
//! net.connect(pda, laptop, LinkSpec::bluetooth())?;
//!
//! let cost = net.send_blob(pda, laptop, "sc-2", "<swap-cluster/>".into())?;
//! assert!(cost.as_micros() > 0);
//! let data = net.fetch_blob(pda, laptop, "sc-2")?; // refcounted bytes, no deep copy
//! assert_eq!(&data[..], b"<swap-cluster/>");
//! net.drop_blob(pda, laptop, "sc-2")?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
mod device;
mod error;
mod link;
mod room;
mod route;
mod sim;
mod store;
mod trace;
mod transport;

pub use bytes::Bytes;
pub use clock::{Clock, RealClock, SimDuration, SimTime};
pub use device::{DeviceId, DeviceKind, DeviceProfile};
pub use error::NetError;
pub use link::LinkSpec;
pub use room::Room;
pub use route::Route;
pub use sim::{SimNet, TRACE_RETAIN};
pub use store::{BlobStore, FailurePlan, MemStore};
pub use trace::{TraceEvent, TraceKind};
pub use transport::{NetFabric, Transport, TransportKind};

/// Convenience result alias used across this crate.
pub type Result<T> = std::result::Result<T, NetError>;
