//! The single choke point for lifecycle accounting.
//!
//! Every [`SwapStats`] counter bump and every [`EventKind`] emission goes
//! through the [`Recorder`] — the same method does both, so the counters
//! and the event stream cannot drift apart (the trace-consistency tests
//! fold the stream back into counters and assert exact equality).
//!
//! The recorder is the leaf of the sharded manager's lock hierarchy
//! (coordinator → shard → net → recorder): sequence numbers come from one
//! atomic counter and the counters/sink live behind a private mutex, so
//! any thread may record an event while holding any combination of
//! coordinator, shard, or net guards — or none at all. The recorder never
//! calls back out, so it can introduce no ordering cycle.
//!
//! Stamps are deterministic: the recorder caches the simulated world's
//! churn sequence and virtual clock and re-reads them only at
//! [`Recorder::sync_clock`] call sites — places that already hold the net
//! guard. Commit phases that replay ship/fetch outcomes captured outside
//! the shard guard pass the captured stamp explicitly (the `at` argument
//! of [`Recorder::blob_shipped`] / [`Recorder::failover`]), which updates
//! the cache and emits in one critical section — so single-threaded runs
//! export byte-identical traces whether or not the phases interleave.

use crate::manager::SwapStats;
use obiwan_net::NetFabric;
use obiwan_trace::{EventKind, TraceRecord, TraceSink};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Everything behind the recorder's interior lock.
#[derive(Debug)]
struct RecorderInner {
    stats: SwapStats,
    sink: TraceSink,
    /// Cached [`obiwan_net::Transport::churn_seq`] from the last clock sync.
    churn: u64,
    /// Cached virtual clock (µs) from the last sync.
    at_us: u64,
    /// Every swap-cluster id ever registered — exported as trace
    /// metadata so the conformance checker can flag unknown clusters
    /// even after empty entries are retired from the live registry.
    known_clusters: BTreeSet<u32>,
}

/// Owns the counters and the event sink; shared by every shard of the
/// `SwappingManager` so the exported trace stays one totally-ordered
/// stream.
#[derive(Debug)]
pub(crate) struct Recorder {
    /// The atomic stamp choke point: every emitted event takes its
    /// sequence number from here, inside the inner critical section, so
    /// sequences in the sink are allocated in emission order.
    seq: AtomicU64,
    inner: Mutex<RecorderInner>,
}

impl Recorder {
    pub(crate) fn new(capacity: usize) -> Self {
        Recorder {
            seq: AtomicU64::new(0),
            inner: Mutex::new(RecorderInner {
                stats: SwapStats::default(),
                sink: TraceSink::with_capacity(capacity),
                churn: 0,
                at_us: 0,
                known_clusters: BTreeSet::from([0]),
            }),
        }
    }

    /// The recorder is diagnostics: a thread that panicked while holding
    /// the inner lock leaves counters at worst one event out of step, so
    /// recording recovers from poison instead of propagating it.
    fn locked(&self) -> MutexGuard<'_, RecorderInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Refresh the cached logical clock from the world. Call while the
    /// net guard is held; events recorded until the next sync carry this
    /// stamp.
    pub(crate) fn sync_clock(&self, net: &NetFabric) {
        let mut inner = self.locked();
        inner.churn = net.churn_seq();
        inner.at_us = net.now().as_micros();
    }

    /// Restore the cached logical clock from a stamp carried out of a
    /// guard-free shipping or fetch phase, so events replayed under the
    /// shard guard keep the stamps they had when the bytes moved.
    pub(crate) fn set_clock(&self, churn: u64, at_us: u64) {
        let mut inner = self.locked();
        inner.churn = churn;
        inner.at_us = at_us;
    }

    pub(crate) fn register_cluster(&self, sc: u32) {
        self.locked().known_clusters.insert(sc);
    }

    pub(crate) fn known_clusters(&self) -> BTreeSet<u32> {
        self.locked().known_clusters.clone()
    }

    /// Copy out the current counters.
    pub(crate) fn stats(&self) -> SwapStats {
        self.locked().stats
    }

    /// One-lock export of the sink: `(capacity, recorded, dropped,
    /// records)`.
    pub(crate) fn export(&self) -> (usize, u64, u64, Vec<TraceRecord>) {
        let inner = self.locked();
        (
            inner.sink.capacity(),
            inner.sink.recorded(),
            inner.sink.dropped(),
            inner.sink.snapshot(),
        )
    }

    fn emit(&self, inner: &mut RecorderInner, kind: EventKind) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let (churn, at_us) = (inner.churn, inner.at_us);
        inner.sink.push_stamped(seq, churn, at_us, kind);
    }

    // --- Paired bumps: one method per lifecycle fact ----------------------

    pub(crate) fn detach_start(&self, sc: u32) {
        let mut inner = self.locked();
        self.emit(&mut inner, EventKind::DetachStart { sc });
    }

    pub(crate) fn detach_end(&self, sc: u32, epoch: u32, bytes: u64, copies: u32) {
        let mut inner = self.locked();
        inner.stats.swap_outs += 1;
        inner.stats.bytes_swapped_out += bytes * u64::from(copies);
        self.emit(
            &mut inner,
            EventKind::DetachEnd {
                sc,
                epoch,
                bytes,
                copies,
            },
        );
    }

    pub(crate) fn detach_abort(&self, sc: u32) {
        let mut inner = self.locked();
        self.emit(&mut inner, EventKind::DetachAbort { sc });
    }

    pub(crate) fn reload_start(&self, sc: u32) {
        let mut inner = self.locked();
        self.emit(&mut inner, EventKind::ReloadStart { sc });
    }

    pub(crate) fn reload_end(&self, sc: u32, epoch: u32, bytes: u64, failovers: u32) {
        let mut inner = self.locked();
        inner.stats.swap_ins += 1;
        inner.stats.bytes_swapped_in += bytes;
        if failovers > 0 {
            inner.stats.reload_failovers += 1;
        }
        self.emit(
            &mut inner,
            EventKind::ReloadEnd {
                sc,
                epoch,
                bytes,
                failovers,
            },
        );
    }

    pub(crate) fn reload_abort(&self, sc: u32) {
        let mut inner = self.locked();
        self.emit(&mut inner, EventKind::ReloadAbort { sc });
    }

    /// `at` is the `(churn, at_us)` stamp captured when the bytes moved
    /// under the net guard; `Some` replays it (updating the cached clock
    /// so the paired `detach_end` stamps consistently), `None` keeps the
    /// cached clock from the last sync.
    pub(crate) fn blob_shipped(
        &self,
        at: Option<(u64, u64)>,
        sc: u32,
        epoch: u32,
        device: u32,
        bytes: u64,
        airtime_us: u64,
    ) {
        let mut inner = self.locked();
        if let Some((churn, at_us)) = at {
            inner.churn = churn;
            inner.at_us = at_us;
        }
        self.emit(
            &mut inner,
            EventKind::BlobShipped {
                sc,
                epoch,
                device,
                bytes,
                airtime_us,
            },
        );
    }

    pub(crate) fn blob_dropped(&self, sc: u32, device: u32, ok: bool) {
        let mut inner = self.locked();
        if ok {
            inner.stats.blobs_dropped += 1;
        } else {
            inner.stats.drop_failures += 1;
        }
        self.emit(&mut inner, EventKind::BlobDropped { sc, device, ok });
    }

    pub(crate) fn cluster_dropped(&self, sc: u32) {
        let mut inner = self.locked();
        self.emit(&mut inner, EventKind::ClusterDropped { sc });
    }

    /// Like [`Recorder::blob_shipped`], `at` replays a stamp captured
    /// during the guard-free fetch phase.
    pub(crate) fn failover(&self, at: Option<(u64, u64)>, sc: u32, epoch: u32, device: u32) {
        let mut inner = self.locked();
        if let Some((churn, at_us)) = at {
            inner.churn = churn;
            inner.at_us = at_us;
        }
        self.emit(&mut inner, EventKind::Failover { sc, epoch, device });
    }

    pub(crate) fn repair_start(&self) {
        let mut inner = self.locked();
        self.emit(&mut inner, EventKind::RepairStart);
    }

    pub(crate) fn repair_end(&self, repaired: u64, bytes: u64) {
        let mut inner = self.locked();
        inner.stats.repairs += repaired;
        inner.stats.repair_bytes += bytes;
        self.emit(&mut inner, EventKind::RepairEnd { repaired, bytes });
    }

    pub(crate) fn proxy_created(&self, sc: u32) {
        let mut inner = self.locked();
        inner.stats.proxies_created += 1;
        self.emit(&mut inner, EventKind::ProxyCreated { sc });
    }

    pub(crate) fn proxy_reused(&self, sc: u32) {
        let mut inner = self.locked();
        inner.stats.proxies_reused += 1;
        self.emit(&mut inner, EventKind::ProxyReused { sc });
    }

    pub(crate) fn proxy_dismantled(&self, sc: u32) {
        let mut inner = self.locked();
        inner.stats.proxies_dismantled += 1;
        self.emit(&mut inner, EventKind::ProxyDismantled { sc });
    }

    pub(crate) fn assign_patch(&self, sc: u32) {
        let mut inner = self.locked();
        inner.stats.assign_patches += 1;
        self.emit(&mut inner, EventKind::AssignPatch { sc });
    }

    pub(crate) fn gc_run(&self, freed: u64, dropped: u64) {
        let mut inner = self.locked();
        self.emit(&mut inner, EventKind::GcRun { freed, dropped });
    }

    pub(crate) fn holder_lost(&self, sc: u32, device: u32, left: u32) {
        let mut inner = self.locked();
        self.emit(&mut inner, EventKind::HolderLost { sc, device, left });
    }

    pub(crate) fn pump_action(&self, action: &str) {
        let kind = EventKind::PumpAction {
            action: action.to_owned(),
        };
        let mut inner = self.locked();
        self.emit(&mut inner, kind);
    }

    /// Boundary crossings are counted but not traced: they fire per
    /// invocation and would drown the lifecycle stream.
    // lint:allow(S6, crossings is the documented counted-but-not-traced exception)
    pub(crate) fn note_crossing(&self) {
        self.locked().stats.crossings += 1;
    }
}
