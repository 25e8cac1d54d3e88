//! **Object-Swapping for resource-constrained devices** — the paper's
//! contribution (Veiga & Ferreira, ICDCS 2007), layered on the OBIWAN
//! replication middleware.
//!
//! # The mechanism
//!
//! * Replication clusters are grouped into **swap-clusters** — macro-objects
//!   of adaptable size ([`SwapConfig::clusters_per_swap_cluster`]). Global
//!   variables and application code form *swap-cluster-0*.
//! * Every reference crossing a swap-cluster boundary is permanently
//!   mediated by a **swap-cluster-proxy**. The [`SwappingManager`]
//!   implements the paper's interception rules on every reference handed
//!   across a boundary: **(i)** create a proxy for a cross-cluster
//!   reference, **(ii)** reuse the existing proxy for the same
//!   (source-cluster, target) pair, **(iii)** dismantle a proxy whose target
//!   lives in the receiving cluster.
//! * Under memory pressure the manager **swaps out** a victim: it builds a
//!   **replacement-object** holding the victim's outbound proxies, patches
//!   every inbound proxy to target it, captures the members as a [`codec`]
//!   blob, serializes it with the configured [`wire`] format (the paper's
//!   XML text by default) and ships the bytes to a nearby dumb device via
//!   `obiwan-net`. The detached replicas are reclaimed by the local GC.
//! * Invoking through a proxy whose target is a replacement-object
//!   **reloads** the whole swap-cluster and re-patches the inbound proxies.
//! * **GC cooperation**: when a replacement-object is collected, the manager
//!   instructs the storing device to drop the blob ([`Middleware::run_gc`]).
//! * **Durability** (beyond the paper): [`SwapConfig::replication_factor`]
//!   stores each blob on *k* neighbours ranked by a pluggable
//!   [`PlacementPolicy`]; reload fails over between holders, and a repair
//!   sweep (policy action `repair-placements`) re-replicates from a
//!   surviving copy when a holder departs. The default `k = 1` reproduces
//!   the paper's single-copy semantics exactly.
//! * The **iteration optimization** ([`SwappingManager::assign`], paper §4)
//!   marks a swap-cluster-0 proxy so it patches itself instead of minting a
//!   proxy per loop step — Figure 5's Test B2.
//!
//! # Entry point
//!
//! [`Middleware`] wires everything: heap + replication + policy engine +
//! simulated wireless world + the swapping manager.
//!
//! ```
//! use obiwan_core::Middleware;
//! use obiwan_heap::Value;
//! use obiwan_replication::{standard_classes, Server};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut server = Server::new(standard_classes());
//! let head = server.build_list("Node", 200, 64)?;
//!
//! let mut mw = Middleware::builder()
//!     .cluster_size(20)
//!     .device_memory(12 * 1024)     // far too small for 200 × 64-byte nodes
//!     .build(server);
//! let root = mw.replicate_root(head)?;
//!
//! // Walk the list with a swap-cluster-0 cursor (the paper's Test B1
//! // pattern). Clusters behind the cursor are transparently swapped out to
//! // the nearby laptop under memory pressure and reloaded on access.
//! mw.set_global("cursor", Value::Ref(root));
//! let mut len = 1;
//! loop {
//!     let cur = mw.global("cursor")?.expect_ref()?;
//!     match mw.invoke_resilient(cur, "next", vec![], 100)? {
//!         Value::Ref(next) => {
//!             mw.set_global("cursor", Value::Ref(next));
//!             len += 1;
//!         }
//!         _ => break,
//!     }
//! }
//! assert_eq!(len, 200);
//! assert!(mw.swap_stats().swap_outs > 0, "memory pressure caused evictions");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod codec;
mod config;
mod detach;
mod error;
mod gc_bridge;
mod identity;
mod manager;
pub mod materialize;
mod middleware;
mod proxy;
mod recorder;
mod reload;
mod shard;
mod swap_cluster;
mod victim;
pub mod wire;

pub use audit::{AuditReport, Rule, Severity, Violation};
pub use config::SwapConfig;
pub use error::SwapError;
pub use identity::{identity_key, same_object, IdentityKey};
pub use manager::{SharedManager, SwapStats, SwappingManager};
pub use middleware::{Middleware, MiddlewareBuilder, MiddlewareStats, StoreSpec};
pub use obiwan_placement::{
    FirstFit, HolderCandidate, LinkCostAware, Placement, PlacementKind, PlacementPolicy,
    PlacementTable, SpreadByFreeStorage,
};
pub use obiwan_trace::{ConformanceReport, EventKind, Trace, TraceMeta, TraceRecord, TraceSink};
pub use swap_cluster::{SwapClusterEntry, SwapClusterState};
pub use victim::VictimPolicy;
pub use wire::WireFormatKind;

/// Convenience result alias used across this crate.
pub type Result<T> = std::result::Result<T, SwapError>;
