//! Swap-lifecycle telemetry for the OBIWAN object-swapping middleware.
//!
//! The paper's swap lifecycle (detach → ship → drop → reload) is easy to
//! count and hard to *trust*: end-of-run aggregates cannot say when things
//! happened, to which cluster, or how long each phase took. This crate is
//! the record of record:
//!
//! * [`TraceSink`] — a bounded ring buffer of structured lifecycle events
//!   ([`EventKind`]), each stamped ([`Stamp`]) with a monotonic sequence
//!   number, the simulated-network churn sequence and the virtual clock.
//! * [`Histogram`] — fixed power-of-two-bucket latency/size histograms,
//!   and [`derive`](mod@derive) — folds of the event stream: counters
//!   ([`derive::fold_counts`]), histograms ([`derive::summarize`]) and
//!   per-cluster lifecycle timelines ([`derive::timelines`]).
//! * [`json`] — a deterministic exporter (byte-identical output for
//!   identical traces; golden-file friendly) and a strict importer.
//! * [`conformance`] — a replayable checker that runs an exported trace
//!   through the lifecycle state machine: detach/reload pairing, epoch
//!   monotonicity, failover bounds, known-cluster rules.
//!
//! The crate is dependency-free and knows nothing about heaps, proxies or
//! networks — it only speaks the event vocabulary, so every layer of the
//! stack (core, net, policy, auditor, bench) can share one stream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conformance;
pub mod derive;
mod event;
mod histogram;
pub mod json;
mod sink;

pub use conformance::{ConformanceReport, ConformanceViolation, TraceRule};
pub use derive::{FoldedCounts, Phase, TraceSummary};
pub use event::{EventKind, Stamp, TraceRecord};
pub use histogram::Histogram;
pub use json::{Trace, TraceError, TraceMeta};
pub use sink::{TraceSink, DEFAULT_CAPACITY};
