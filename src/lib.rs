//! # OBIWAN Object-Swapping — facade crate
//!
//! This crate re-exports the whole reproduction of *Object-Swapping for
//! Resource-Constrained Devices* (Veiga & Ferreira, ICDCS 2007) so examples,
//! integration tests and downstream users can depend on a single crate.
//!
//! The interesting entry point is [`core::Middleware`] (re-exported at
//! [`Middleware`]), which wires together the managed heap, the replication
//! runtime, the policy engine, the simulated wireless world and the
//! object-swapping machinery.
//!
//! ```
//! use obiwan::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build a tiny master graph on the "server".
//! let mut server = Server::new(standard_classes());
//! let list = server.build_list("Node", 100, 64)?;
//!
//! // A PDA replicates it with clusters of 20 objects and swapping enabled.
//! let mut mw = Middleware::builder()
//!     .cluster_size(20)
//!     .device_memory(256 * 1024)
//!     .build(server);
//! let root = mw.replicate_root(list)?;
//!
//! // Traverse: faults and swaps are transparent.
//! let len = mw.process_mut().invoke_i64(root, "length", vec![])?;
//! assert_eq!(len, 100);
//! # Ok(())
//! # }
//! ```

pub use obiwan_baselines as baselines;
pub use obiwan_blobd as blobd;
pub use obiwan_core as core;
pub use obiwan_heap as heap;
pub use obiwan_net as net;
pub use obiwan_netd as netd;
pub use obiwan_policy as policy;
pub use obiwan_replication as replication;
pub use obiwan_trace as trace;
pub use obiwan_xml as xml;

pub use obiwan_core::{Middleware, MiddlewareBuilder, SwapConfig};

/// Commonly used items, for `use obiwan::prelude::*`.
pub mod prelude {
    pub use obiwan_core::{
        Middleware, MiddlewareBuilder, StoreSpec, SwapConfig, SwapError, SwappingManager,
        VictimPolicy,
    };
    pub use obiwan_heap::{ClassBuilder, ClassRegistry, Heap, ObjRef, ObjectKind, Oid, Value};
    pub use obiwan_net::{
        DeviceId, DeviceKind, LinkSpec, NetFabric, SimNet, Transport, TransportKind,
    };
    pub use obiwan_policy::{ContextManager, PolicyEngine, Watermarks};
    pub use obiwan_replication::{
        standard_classes, ClusterStrategy, Process, Server, UniverseBuilder,
    };
    pub use obiwan_trace::{EventKind, Trace, TraceRecord, TraceSink};
}
