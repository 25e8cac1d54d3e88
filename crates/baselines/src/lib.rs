//! Related-work baselines the paper argues against (§5 and §6),
//! implemented so the benchmarks can quantify the claimed trade-offs:
//!
//! * [`naive`] — the *naive* design the paper contrasts in §5: **one proxy
//!   per object**, every reference mediated. "Common application objects
//!   are small. So, this could potentially double memory occupation when
//!   fully-loaded … even when all objects were swapped, the proxies would
//!   still remain."
//! * [`offload`] — the surrogate-based per-object offloading of
//!   Messer et al. / Chen et al. (\[6, 1\]): objects migrate individually
//!   to a nearby *server that must run the middleware*, object tables
//!   track remote residency, and a DGC protocol exchanges liveness
//!   messages per object — the infrastructure cost the paper avoids.
//! * [`compress`] — the heap-compression approach (\[2, 3, 14\]): swapped
//!   clusters are compressed with [`obiwan_lz`] into an in-memory pool instead of
//!   leaving the device, trading CPU for memory and shrinking the heap
//!   available to the application by the pool size.
//!
//! All baselines reuse the same substrates (`obiwan-heap`, `obiwan-net`,
//! the codec) so the comparison isolates the *policy*, not incidental
//! implementation differences.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compress;
pub mod naive;
pub mod offload;
