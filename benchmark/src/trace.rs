//! Host-time spans recorded from outside the program: the benchmark's
//! clock, the in-memory span sink, and [`TimedTransport`], the fabric
//! wrapper that times every `Transport` verb the swapping core calls.
//!
//! Spans nest through a per-thread context: the client loop opens a page and
//! every transport verb the core issues on that thread until it closes
//! becomes a child span. Verbs issued outside a page — set-up, the
//! client's collections, the maintenance sweeps and the benchmark's own
//! stats reads — are forwarded untimed, so they never count as page time.

use obiwan_net::{
    Bytes, DeviceId, DeviceProfile, FailurePlan, LinkSpec, Result, Route, SimDuration, SimTime,
    Transport,
};
use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Nanoseconds since the first call in this process, by the host clock.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    // lint:allow(S7, the benchmark measures host time; it never enters a lifecycle trace)
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One finished span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The enclosing span's id, 0 for a root.
    pub parent: u64,
    /// The op (page) number the span belongs to, 0 outside ops.
    pub op: u64,
    /// Layer-qualified name, e.g. `op.page` or `net.fetch`.
    pub name: &'static str,
    /// Start, from [`now_ns`].
    pub start_ns: u64,
    /// End, from [`now_ns`].
    pub end_ns: u64,
    /// Payload bytes a blob verb moved.
    pub bytes: u64,
    /// Whether the call succeeded.
    pub ok: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Clone, Copy)]
struct Ctx {
    parent: u64,
    op: u64,
}

thread_local! {
    static CTX: Cell<Option<Ctx>> = const { Cell::new(None) };
    /// Transport time spent under the open span since the last
    /// [`take_child_ns`].
    static CHILD_NS: Cell<u64> = const { Cell::new(0) };
}

/// Open span `parent` of op (page) `op` on this thread: transport verbs
/// become its children until [`close`].
pub fn open(parent: u64, op: u64) {
    CTX.with(|c| c.set(Some(Ctx { parent, op })));
    CHILD_NS.with(|c| c.set(0));
}

/// Close this thread's open span.
pub fn close() {
    CTX.with(|c| c.set(None));
}

/// Transport nanoseconds recorded on this thread since the last call.
pub fn take_child_ns() -> u64 {
    CHILD_NS.with(|c| c.replace(0))
}

/// The in-memory span sink shared by the client loop, the maintenance thread
/// and the fabric wrapper.
#[derive(Debug, Default)]
pub struct Tracer {
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty sink.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer::default())
    }

    /// A fresh span id.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Keep a finished span.
    pub fn push(&self, span: Span) {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
    }

    /// Every span kept so far, borrowed: a traced window keeps up to a
    /// few million.
    pub fn spans(&self) -> MutexGuard<'_, Vec<Span>> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Time `call` as a child of this thread's open span, or just run it
    /// when no span is open.
    fn child<R>(
        &self,
        name: &'static str,
        call: impl FnOnce() -> R,
        outcome: impl Fn(&R) -> (bool, usize),
    ) -> R {
        let Some(ctx) = CTX.with(Cell::get) else {
            return call();
        };
        let start_ns = now_ns();
        let out = call();
        let end_ns = now_ns();
        let (ok, bytes) = outcome(&out);
        CHILD_NS.with(|c| c.set(c.get() + (end_ns - start_ns)));
        self.push(Span {
            id: self.id(),
            parent: ctx.parent,
            op: ctx.op,
            name,
            start_ns,
            end_ns,
            bytes: bytes as u64,
            ok,
        });
        out
    }

    /// Write every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// I/O errors from `out`.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in self.spans().iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"bytes\":{},\"ok\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns, s.bytes, s.ok
            )?;
        }
        out.flush()
    }
}

fn unit<R>(_: &R) -> (bool, usize) {
    (true, 0)
}

fn done<T>(r: &Result<T>) -> (bool, usize) {
    (r.is_ok(), 0)
}

/// A fabric backend that forwards every [`Transport`] verb unchanged to
/// `T` (a `SimNet` or an `ActorNet`) and records each call made under an
/// open span. Installed with `NetFabric::backend`, so the swapping core —
/// which never branches on the fabric kind — does identical work.
pub struct TimedTransport<T> {
    inner: T,
    tracer: Arc<Tracer>,
}

impl<T> TimedTransport<T> {
    /// Wrap `inner`, recording into `tracer`.
    pub fn new(inner: T, tracer: Arc<Tracer>) -> Self {
        TimedTransport { inner, tracer }
    }
}

impl<T> std::fmt::Debug for TimedTransport<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedTransport").finish_non_exhaustive()
    }
}

// The blob verbs below forward the core's own placement fan-out one layer
// down; they add no traffic of their own.
impl<T: Transport> Transport for TimedTransport<T> {
    fn now(&self) -> SimTime {
        self.tracer
            .child("net.control.now", || self.inner.now(), unit)
    }
    fn advance(&mut self, d: SimDuration) -> SimTime {
        self.tracer
            .child("net.control.advance", || self.inner.advance(d), unit)
    }
    fn profile(&self, device: DeviceId) -> Result<&DeviceProfile> {
        self.tracer
            .child("net.control.profile", || self.inner.profile(device), done)
    }
    fn set_failure_plan(&mut self, device: DeviceId, plan: FailurePlan) -> Result<()> {
        let call = || self.inner.set_failure_plan(device, plan);
        self.tracer
            .child("net.control.set_failure_plan", call, done)
    }
    fn connect(&mut self, a: DeviceId, b: DeviceId, link: LinkSpec) -> Result<()> {
        self.tracer.child(
            "net.control.connect",
            || self.inner.connect(a, b, link),
            done,
        )
    }
    fn disconnect(&mut self, a: DeviceId, b: DeviceId) {
        self.tracer.child(
            "net.control.disconnect",
            || self.inner.disconnect(a, b),
            unit,
        )
    }
    fn link(&self, a: DeviceId, b: DeviceId) -> Option<LinkSpec> {
        self.tracer
            .child("net.control.link", || self.inner.link(a, b), unit)
    }
    fn nearby(&self, of: DeviceId) -> Vec<DeviceId> {
        self.tracer
            .child("net.control.nearby", || self.inner.nearby(of), unit)
    }
    fn reachable(&self, of: DeviceId) -> Vec<(DeviceId, usize)> {
        self.tracer
            .child("net.control.reachable", || self.inner.reachable(of), unit)
    }
    fn route(&self, from: DeviceId, to: DeviceId) -> Option<Route> {
        self.tracer
            .child("net.control.route", || self.inner.route(from, to), unit)
    }
    fn free_storage(&self, device: DeviceId) -> Result<usize> {
        let call = || self.inner.free_storage(device);
        self.tracer.child("net.control.free_storage", call, done)
    }
    fn depart(&mut self, device: DeviceId) -> Result<()> {
        self.tracer
            .child("net.control.depart", || self.inner.depart(device), done)
    }
    fn arrive(&mut self, device: DeviceId) -> Result<()> {
        self.tracer
            .child("net.control.arrive", || self.inner.arrive(device), done)
    }
    fn churn_seq(&self) -> u64 {
        self.tracer
            .child("net.control.churn_seq", || self.inner.churn_seq(), unit)
    }
    fn is_present(&self, device: DeviceId) -> bool {
        self.tracer.child(
            "net.control.is_present",
            || self.inner.is_present(device),
            unit,
        )
    }
    fn send_blob(
        &mut self,
        from: DeviceId,
        to: DeviceId,
        key: &str,
        data: Bytes,
    ) -> Result<SimDuration> {
        let len = data.len();
        // lint:allow(S5, forwards the core's own fan-out one layer down)
        let call = || self.inner.send_blob(from, to, key, data);
        self.tracer.child("net.send", call, |r| (r.is_ok(), len))
    }
    fn fetch_blob(&mut self, from: DeviceId, to: DeviceId, key: &str) -> Result<Bytes> {
        // lint:allow(S5, forwards the core's own fan-out one layer down)
        let call = || self.inner.fetch_blob(from, to, key);
        self.tracer.child("net.fetch", call, |r| {
            (r.is_ok(), r.as_ref().map_or(0, Bytes::len))
        })
    }
    fn drop_blob(&mut self, from: DeviceId, to: DeviceId, key: &str) -> Result<()> {
        // lint:allow(S5, forwards the core's own fan-out one layer down)
        let call = || self.inner.drop_blob(from, to, key);
        self.tracer.child("net.drop", call, done)
    }
    fn send_blob_routed(
        &mut self,
        from: DeviceId,
        to: DeviceId,
        key: &str,
        data: Bytes,
    ) -> Result<(Route, SimDuration)> {
        let len = data.len();
        // lint:allow(S5, forwards the core's own fan-out one layer down)
        let call = || self.inner.send_blob_routed(from, to, key, data);
        self.tracer.child("net.send", call, |r| (r.is_ok(), len))
    }
    fn fetch_blob_routed(
        &mut self,
        from: DeviceId,
        to: DeviceId,
        key: &str,
    ) -> Result<(Route, Bytes)> {
        // lint:allow(S5, forwards the core's own fan-out one layer down)
        let call = || self.inner.fetch_blob_routed(from, to, key);
        self.tracer.child("net.fetch", call, |r| {
            (r.is_ok(), r.as_ref().map_or(0, |(_, b)| b.len()))
        })
    }
    fn drop_blob_routed(&mut self, from: DeviceId, to: DeviceId, key: &str) -> Result<()> {
        // lint:allow(S5, forwards the core's own fan-out one layer down)
        let call = || self.inner.drop_blob_routed(from, to, key);
        self.tracer.child("net.drop", call, done)
    }
    fn holds_blob(&self, to: DeviceId, key: &str) -> bool {
        self.tracer.child(
            "net.control.holds_blob",
            || self.inner.holds_blob(to, key),
            unit,
        )
    }
    fn holders_of_key(&self, key: &str) -> Vec<DeviceId> {
        let call = || self.inner.holders_of_key(key);
        self.tracer.child("net.control.holders_of_key", call, unit)
    }
    fn blob_keys(&self, device: DeviceId) -> Vec<String> {
        self.tracer.child(
            "net.control.blob_keys",
            || self.inner.blob_keys(device),
            unit,
        )
    }
    fn blob_data(&self, device: DeviceId, key: &str) -> Option<Bytes> {
        self.tracer.child(
            "net.control.blob_data",
            || self.inner.blob_data(device, key),
            unit,
        )
    }
    fn stored_bytes(&self, device: DeviceId) -> Result<usize> {
        let call = || self.inner.stored_bytes(device);
        self.tracer.child("net.control.stored_bytes", call, done)
    }
    fn device_ids(&self) -> Vec<DeviceId> {
        self.tracer
            .child("net.control.device_ids", || self.inner.device_ids(), unit)
    }
    fn traffic(&self) -> (u64, u64) {
        self.tracer
            .child("net.control.traffic", || self.inner.traffic(), unit)
    }
}
