//! The end-to-end swapping benchmark of record.
//!
//! One run builds a workload's world, generates its seeded page
//! sequence, drives the pages through the public [`obiwan_core::Middleware`]
//! API for a fixed time or op count, and checks the outputs: every page
//! returns its expected step count, the whole-graph audit finds no error,
//! and a final walk sees every node. A traced run ([`Options::trace`])
//! additionally splits op time by layer from outside the program — spans
//! around the middleware calls the benchmark makes, a [`TimedTransport`]
//! around the fabric, stats getters read around each op, and a codec
//! replay on the run's own clusters.
//!
//! See `README.md` in this crate for the workloads, the metrics and how
//! to run paired comparisons.

pub mod drive;
pub mod report;
pub mod trace;
pub mod workload;
pub mod world;

pub use drive::{CodecCost, Limit, Window};
pub use report::Report;
pub use trace::{TimedTransport, Tracer};
pub use workload::{PageStream, Spec, Workload};
pub use world::World;

use std::fmt;
use std::sync::Arc;

/// The benchmark's error: a message naming what failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchError(String);

impl BenchError {
    /// An error with this message.
    pub fn msg(m: impl Into<String>) -> BenchError {
        BenchError(m.into())
    }
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for BenchError {}

impl From<obiwan_core::SwapError> for BenchError {
    fn from(e: obiwan_core::SwapError) -> Self {
        BenchError(e.to_string())
    }
}

impl From<obiwan_replication::ReplError> for BenchError {
    fn from(e: obiwan_replication::ReplError) -> Self {
        BenchError(e.to_string())
    }
}

impl From<obiwan_heap::HeapError> for BenchError {
    fn from(e: obiwan_heap::HeapError) -> Self {
        BenchError(e.to_string())
    }
}

impl From<obiwan_net::NetError> for BenchError {
    fn from(e: obiwan_net::NetError) -> Self {
        BenchError(e.to_string())
    }
}

impl From<std::io::Error> for BenchError {
    fn from(e: std::io::Error) -> Self {
        BenchError(e.to_string())
    }
}

/// This crate's result alias.
pub type Result<T> = std::result::Result<T, BenchError>;

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// The world and load.
    pub spec: Spec,
    /// Seed of the page sequence.
    pub seed: u64,
    /// Window length.
    pub limit: Limit,
    /// Record the per-layer split.
    pub trace: bool,
    /// Worlds built in a row; set-up time is their median, and the last
    /// one runs the window.
    pub setups: usize,
}

/// A finished run: the world it ran in and everything measured.
#[derive(Debug)]
pub struct Outcome {
    /// The world after the window and the checks.
    pub world: World,
    /// Host time of each world build.
    pub setup_ns: Vec<u64>,
    /// The measured window.
    pub window: Window,
    /// The span sink of a traced run.
    pub tracer: Option<Arc<Tracer>>,
    /// The codec replay of a traced run.
    pub codec: Option<CodecCost>,
    /// Bytes the daemons held right after the window (0 off TCP).
    pub daemon_bytes: u64,
    /// Error-severity violations the final audit found.
    pub audit_errors: usize,
    /// Nodes the final walk saw.
    pub walked: usize,
}

/// Build, drive and check one run.
///
/// # Errors
///
/// Set-up failures and failures outside pages (see [`drive::drive`]).
pub fn run(opts: &Options) -> Result<Outcome> {
    let tracer = opts.trace.then(Tracer::new);
    let mut setup_ns = Vec::new();
    let mut built = None;
    for _ in 0..opts.setups.max(1) {
        // Tear the previous world (and its daemons) down untimed.
        drop(built.take());
        let t0 = trace::now_ns();
        let world = World::build(&opts.spec, tracer.clone())?;
        setup_ns.push(trace::now_ns() - t0);
        built = Some(world);
    }
    let mut world = built.ok_or_else(|| BenchError::msg("no world was built"))?;
    let pages = PageStream::new(opts.seed, &opts.spec);
    let window = drive::drive(&mut world, pages, opts.limit, tracer.as_ref())?;
    let daemon_bytes = world.daemon_bytes()?;
    let audit_errors = world.mw.audit().errors().count();
    let walked = world.walk(|_, _, _| {})?;
    let codec = if opts.trace {
        Some(drive::codec_replay(&world)?)
    } else {
        None
    };
    Ok(Outcome {
        world,
        setup_ns,
        window,
        tracer,
        codec,
        daemon_bytes,
        audit_errors,
        walked,
    })
}
