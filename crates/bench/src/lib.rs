//! Benchmark harness for the Object-Swapping reproduction.
//!
//! * [`workloads`] builds the paper's Figure 5 workload (a list of 10 000
//!   64-byte objects) and runs the four tests (A1, A2, B1, B2) against any
//!   swap-cluster configuration.
//! * [`fig5`] sweeps the paper's configurations (swap-cluster sizes 20, 50,
//!   100, and *no swap-clusters*) and prints the table Figure 5 plots.
//! * [`memory`] produces the §5 memory-overhead comparison against the
//!   naive one-proxy-per-object baseline (Ablation 1).
//! * [`swapio`] sweeps swap-out / reload cost over cluster size and link
//!   bandwidth in *virtual* time (Ablation 2).
//! * [`victims`] replays an album-style access trace under memory pressure
//!   for each victim policy (Ablation 3).
//! * [`grouping`] sweeps the clusters-per-swap-cluster knob (Ablation 6).
//! * [`dgc_traffic`] counts housekeeping messages against the per-object
//!   offload DGC baseline (Ablation 7).
//! * [`durability`] measures reload availability and repair traffic under
//!   seeded churn for k-way placement (Ablation 8).
//!
//! Binaries: `fig5` prints the headline table, `ablations` prints the rest.
//! The Criterion benches under `benches/` reuse these workloads for
//! wall-clock measurements.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub mod dgc_traffic;
pub mod durability;
pub mod fig5;
pub mod grouping;
pub mod memory;
pub mod swapio;
pub mod victims;
pub mod workloads;

/// Error from a benchmark run: any layer's failure, wrapped with enough
/// context to name the step that died instead of panicking mid-figure
/// (the PR 1 `SwapError` discipline, extended to the measurement crates).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchError(pub String);

impl BenchError {
    /// Build an error from a bare message.
    pub fn msg(m: impl Into<String>) -> Self {
        BenchError(m.into())
    }

    /// Wrap an underlying error with a step label.
    pub fn ctx(step: &str, e: impl fmt::Display) -> Self {
        BenchError(format!("{step}: {e}"))
    }
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bench: {}", self.0)
    }
}

impl std::error::Error for BenchError {}

impl From<obiwan_core::SwapError> for BenchError {
    fn from(e: obiwan_core::SwapError) -> Self {
        BenchError(format!("swap: {e}"))
    }
}

impl From<obiwan_heap::HeapError> for BenchError {
    fn from(e: obiwan_heap::HeapError) -> Self {
        BenchError(format!("heap: {e}"))
    }
}

impl From<obiwan_net::NetError> for BenchError {
    fn from(e: obiwan_net::NetError) -> Self {
        BenchError(format!("net: {e}"))
    }
}

impl From<obiwan_replication::ReplError> for BenchError {
    fn from(e: obiwan_replication::ReplError) -> Self {
        BenchError(format!("replication: {e}"))
    }
}

impl From<obiwan_baselines::offload::OffloadError> for BenchError {
    fn from(e: obiwan_baselines::offload::OffloadError) -> Self {
        BenchError(format!("offload baseline: {e}"))
    }
}

/// Result alias used across the harness modules.
pub type Result<T> = std::result::Result<T, BenchError>;

/// Run `f` on a thread with a large stack.
///
/// The A1/A2 workloads recurse 10 000 levels deep through the interpreter
/// (one `Process::invoke` frame per object, as in the paper's recursive
/// tests), which overflows default stacks.
///
/// # Errors
///
/// Spawn failure or a panic inside `f`, reported as [`BenchError`].
pub fn with_big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> Result<T> {
    std::thread::Builder::new()
        .stack_size(512 << 20)
        .spawn(f)
        .map_err(|e| BenchError::ctx("spawn big-stack thread", e))?
        .join()
        .map_err(|_| BenchError::msg("big-stack thread panicked"))
}
