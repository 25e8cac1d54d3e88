//! The measured window: pages in a closed loop on one client thread, the
//! scripted churn and collections between them, and — on `churn-repair`
//! — the open-loop maintenance caller on a second thread.

use crate::report::{pct, ratio};
use crate::trace::{self, now_ns, Span, Tracer};
use crate::workload::{PageStream, PAGE_STEPS};
use crate::world::{World, CURSOR, RETRIES};
use crate::Result;
use obiwan_core::materialize::ClusterMaterializer;
use obiwan_core::{codec, wire, Middleware, MiddlewareStats, SharedManager};
use obiwan_heap::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long the window runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Limit {
    /// Until this many seconds of host time have passed.
    Seconds(f64),
    /// Exactly this many ops (so counters repeat exactly per seed).
    Ops(u64),
}

/// Pages per block. The end-to-end timings are taken per block of this
/// many consecutive pages, and the best block is reported: the host is
/// shared, other tenants only ever add time, and they do so in bursts, so
/// the least disturbed block is the steadiest estimate of the program's
/// own cost. A multiple of the collection and churn periods (500 pages),
/// so every block carries the same background work, and large enough that
/// a block's p99 has 20 pages beyond it.
pub const BLOCK_OPS: u64 = 2_000;

/// The timings of one block of pages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Block {
    /// Pages per second of the block's wall time, which includes the
    /// collections and churn issued before its pages.
    pub ops_per_s: f64,
    /// Median latency of its untraced pages.
    pub p50_ns: f64,
    /// 99th-percentile latency of its untraced pages.
    pub p99_ns: f64,
}

impl Block {
    /// `pages` pages that took `ns` of wall time, of which the untraced
    /// ones that returned took `lat` each.
    fn of(pages: u64, ns: u64, lat: &mut [u64]) -> Block {
        lat.sort_unstable();
        Block {
            ops_per_s: ratio(pages as f64, ns as f64 / 1e9),
            p50_ns: pct(lat, 0.50),
            p99_ns: pct(lat, 0.99),
        }
    }
}

/// Pages that returned, counted and timed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Pages.
    pub pages: u64,
    /// Their summed host time.
    pub ns: u64,
}

impl Tally {
    fn add(&mut self, ns: u64) {
        self.pages += 1;
        self.ns += ns;
    }
}

/// A traced page's time split by the middleware calls it made: the
/// per-step `invoke_resilient` spans folded into sums, and the cursor
/// bookkeeping (`global` / `set_global`) between them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageFold {
    /// `invoke_resilient` calls.
    pub invoke_calls: u64,
    /// Time inside `invoke_resilient`.
    pub invoke_ns: u64,
    /// `invoke_ns` minus the transport time under it.
    pub invoke_self_ns: u64,
    /// Time inside `global` / `set_global`.
    pub cursor_ns: u64,
}

impl PageFold {
    fn absorb(&mut self, page: &PageFold) {
        self.invoke_calls += page.invoke_calls;
        self.invoke_ns += page.invoke_ns;
        self.invoke_self_ns += page.invoke_self_ns;
        self.cursor_ns += page.cursor_ns;
    }
}

/// One call of the maintenance caller, on its own schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sweep {
    /// When the open-loop schedule said to start.
    pub due_ns: u64,
    /// When it started.
    pub start_ns: u64,
    /// When it finished.
    pub end_ns: u64,
    /// Whether every call in it succeeded.
    pub ok: bool,
}

/// Everything measured in one window. Pages are summarised as they run,
/// so the benchmark's own memory does not grow with the page count and
/// the peak resident set stays the program's.
#[derive(Debug)]
pub struct Window {
    /// Pages attempted.
    pub pages: u64,
    /// Pages that returned an error.
    pub failed: u64,
    /// Untraced pages that returned.
    pub plain: Tally,
    /// Traced pages that returned.
    pub traced: Tally,
    /// The traced pages' splits, summed.
    pub fold: PageFold,
    /// Latencies of the untraced pages whose `swap_stats()` delta shows a
    /// swap-out or a reload.
    pub swap_ns: Vec<u64>,
    /// Every full block after the first (warm-up), or, when the window is
    /// too short for one, the pages after the last block boundary.
    pub blocks: Vec<Block>,
    /// The maintenance caller's sweeps.
    pub sweeps: Vec<Sweep>,
    /// Durations of the collections the client ran.
    pub gc_ns: Vec<u64>,
    /// Host time of the whole window.
    pub wall_ns: u64,
    /// Middleware statistics at the start and end of the window.
    pub before: MiddlewareStats,
    /// See `before`.
    pub after: MiddlewareStats,
    /// Requests the daemons served during the window.
    pub daemon_ops: u64,
    /// Pages that returned the wrong step count.
    pub wrong_steps: u64,
    /// The first failure message, if any page or sweep failed.
    pub first_error: Option<String>,
}

/// Cursor-bookkeeping and invoke laps inside a traced page: consecutive
/// laps share a clock read, so the page's child spans tile it.
pub struct Laps {
    last: u64,
    fold: PageFold,
}

impl Laps {
    fn cursor(&mut self) {
        let t = now_ns();
        self.fold.cursor_ns += t - self.last;
        self.last = t;
    }

    fn invoke(&mut self) {
        let t = now_ns();
        let ns = t - self.last;
        self.fold.invoke_calls += 1;
        self.fold.invoke_ns += ns;
        self.fold.invoke_self_ns += ns.saturating_sub(trace::take_child_ns());
        self.last = t;
    }
}

/// Point the cursor global at global `head`, then step it through `next`
/// until the list ends or `limit` steps are taken, calling `visit` with
/// the step number (from 1) and the node reached. With `laps`, the loop's
/// time is split into cursor and invoke laps. Returns the steps taken.
///
/// # Errors
///
/// Any middleware failure.
pub fn step_through(
    mw: &mut Middleware,
    head: &str,
    limit: usize,
    mut laps: Option<&mut Laps>,
    mut visit: impl FnMut(&mut Middleware, usize, &Value),
) -> Result<usize> {
    let start = mw.global(head)?;
    mw.set_global(CURSOR, start);
    let mut steps = 0;
    while steps < limit {
        let cur = mw.global(CURSOR)?.expect_ref()?;
        if let Some(l) = laps.as_deref_mut() {
            l.cursor();
        }
        let next = mw.invoke_resilient(cur, "next", Vec::new(), RETRIES)?;
        if let Some(l) = laps.as_deref_mut() {
            l.invoke();
        }
        if !matches!(next, Value::Ref(_)) {
            break;
        }
        mw.set_global(CURSOR, next.clone());
        steps += 1;
        visit(mw, steps, &next);
    }
    if let Some(l) = laps {
        l.cursor();
    }
    Ok(steps)
}

/// Run the window: pages from `pages` until `limit`. With a `tracer`,
/// every second page is traced, so the window also measures what tracing
/// costs.
///
/// # Errors
///
/// Failures outside pages — the client's collections, churn, or a
/// poisoned lock. A failing page or sweep is counted, not returned.
pub fn drive(
    world: &mut World,
    pages: PageStream,
    limit: Limit,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Window> {
    let stop = AtomicBool::new(false);
    let manager = world.mw.manager();
    let sweeps_per_s = world.spec.sweeps_per_s;
    std::thread::scope(|scope| {
        let maintenance = sweeps_per_s.map(|hz| {
            let manager = manager.clone();
            let stop = &stop;
            scope.spawn(move || maintain(&manager, hz, stop, tracer.map(|t| &**t)))
        });
        let window = client(world, pages, limit, tracer);
        stop.store(true, Ordering::Relaxed);
        let (sweeps, sweep_error) = match maintenance {
            Some(handle) => handle
                .join()
                .map_err(|_| crate::BenchError::msg("maintenance thread panicked"))?,
            None => (Vec::new(), None),
        };
        let mut window = window?;
        if let Some(e) = sweep_error {
            window.first_error.get_or_insert(e);
        }
        window.sweeps = sweeps;
        Ok(window)
    })
}

fn client(
    world: &mut World,
    mut pages: PageStream,
    limit: Limit,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Window> {
    let spec = world.spec.clone();
    let before = world.mw.stats();
    let daemon_ops = world.daemon_ops();
    let mut attempted = 0;
    let mut failed = 0;
    let mut plain = Tally::default();
    let mut traced_pages = Tally::default();
    let mut fold = PageFold::default();
    let mut swap_ns = Vec::new();
    let mut blocks = Vec::new();
    // Latencies of the current block's untraced pages.
    let mut lat = Vec::with_capacity(BLOCK_OPS as usize);
    let mut block_first = 0;
    let mut gc_ns = Vec::new();
    let mut wrong_steps = 0;
    let mut first_error = None;
    let mut last = before.swap;
    let start = now_ns();
    let mut block_start = start;
    for (i, page_index) in (0u64..).zip(pages.by_ref()) {
        let done = match limit {
            Limit::Ops(n) => i >= n,
            Limit::Seconds(s) => i > 0 && (now_ns() - start) as f64 >= s * 1e9,
        };
        if done {
            break;
        }
        attempted += 1;
        if i > 0 && i % BLOCK_OPS == 0 {
            let end = now_ns();
            // Block 0 warms up.
            if i >= 2 * BLOCK_OPS {
                blocks.push(Block::of(BLOCK_OPS, end - block_start, &mut lat));
            }
            lat.clear();
            block_first = i;
            // Restart the clock so summarising the block is in none.
            block_start = now_ns();
        }
        if let Some(every) = spec.churn_every {
            if i > 0 && i % every == 0 {
                world.churn(i / every - 1)?;
                world.mw.pump()?;
            }
        }
        if let Some(every) = spec.gc_every {
            if i > 0 && i % every == 0 {
                gc_ns.push(collect(&mut world.mw, tracer)?);
            }
        }
        let traced = tracer.is_some() && i % 2 == 1;
        let span = tracer.filter(|_| traced).map(|t| t.id());
        let t0 = now_ns();
        if let Some(id) = span {
            trace::open(id, i + 1);
        }
        let mut laps = span.map(|_| Laps {
            last: t0,
            fold: PageFold::default(),
        });
        let head = &world.heads[page_index];
        let outcome = step_through(&mut world.mw, head, PAGE_STEPS, laps.as_mut(), |_, _, _| {});
        let t1 = now_ns();
        if let (Some(id), Some(t)) = (span, tracer) {
            trace::close();
            t.push(Span {
                id,
                parent: 0,
                op: i + 1,
                name: "op.page",
                start_ns: t0,
                end_ns: t1,
                bytes: 0,
                ok: outcome.is_ok(),
            });
        }
        let now = world.mw.swap_stats();
        let swapped = now.swap_outs != last.swap_outs || now.swap_ins != last.swap_ins;
        last = now;
        let ns = t1 - t0;
        match outcome {
            Ok(steps) => {
                if steps != spec.expected_steps(page_index) {
                    wrong_steps += 1;
                }
                if let Some(l) = laps {
                    traced_pages.add(ns);
                    fold.absorb(&l.fold);
                } else {
                    plain.add(ns);
                    lat.push(ns);
                    if swapped {
                        swap_ns.push(ns);
                    }
                }
            }
            Err(e) => {
                failed += 1;
                first_error.get_or_insert_with(|| format!("page {page_index}: {e}"));
            }
        }
    }
    let end = now_ns();
    if blocks.is_empty() {
        blocks.push(Block::of(
            attempted - block_first,
            end - block_start,
            &mut lat,
        ));
    }
    Ok(Window {
        pages: attempted,
        failed,
        plain,
        traced: traced_pages,
        fold,
        swap_ns,
        blocks,
        sweeps: Vec::new(),
        gc_ns,
        wall_ns: end - start,
        before,
        after: world.mw.stats(),
        daemon_ops: world.daemon_ops() - daemon_ops,
        wrong_steps,
        first_error,
    })
}

/// A collection issued by the client, spanned when tracing.
fn collect(mw: &mut Middleware, tracer: Option<&Arc<Tracer>>) -> Result<u64> {
    let start_ns = now_ns();
    let outcome = mw.run_gc();
    let end_ns = now_ns();
    if let Some(t) = tracer {
        t.push(Span {
            id: t.id(),
            parent: 0,
            op: 0,
            name: "middleware.run_gc",
            start_ns,
            end_ns,
            bytes: 0,
            ok: outcome.is_ok(),
        });
    }
    outcome?;
    Ok(end_ns - start_ns)
}

/// The open-loop maintenance caller: departure scan, repair sweep and a
/// stats read, due `hz` times a second whether or not the last one
/// finished on time. Returns the sweeps and the first failure.
///
/// A sweep is spanned but opens no context for transport spans: a repair
/// sweep asks every store about every blob, over a thousand transport
/// calls per sweep, which would hold hundreds of megabytes of spans and
/// which no metric reads.
fn maintain(
    manager: &SharedManager,
    hz: u32,
    stop: &AtomicBool,
    tracer: Option<&Tracer>,
) -> (Vec<Sweep>, Option<String>) {
    let period = 1_000_000_000 / u64::from(hz.max(1));
    let mut due = now_ns();
    let mut out = Vec::new();
    let mut first_error = None;
    while !stop.load(Ordering::Relaxed) {
        let now = now_ns();
        if now < due {
            std::thread::sleep(Duration::from_nanos(due - now));
            continue;
        }
        let start_ns = now_ns();
        let outcome = manager
            .note_departures()
            .and_then(|()| manager.repair_placements());
        let ok = outcome.is_ok();
        if let Err(e) = outcome {
            first_error.get_or_insert_with(|| format!("maintenance sweep: {e}"));
        }
        std::hint::black_box(manager.stats());
        let end_ns = now_ns();
        if let Some(t) = tracer {
            t.push(Span {
                id: t.id(),
                parent: 0,
                op: 0,
                name: "manager.sweep",
                start_ns,
                end_ns,
                bytes: 0,
                ok,
            });
        }
        out.push(Sweep {
            due_ns: due,
            start_ns,
            end_ns,
            ok,
        });
        due += period;
    }
    (out, first_error)
}

/// The codec's cost on this run's own data, replayed after the window:
/// capture + encode of up to 256 loaded clusters in the workload's wire
/// format, then arena decode of the blobs that produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodecCost {
    /// Nanoseconds to capture and encode one cluster.
    pub encode_ns_per_blob: f64,
    /// Nanoseconds to decode one blob into a `ClusterMaterializer`.
    pub decode_ns_per_blob: f64,
    /// Mean blob size.
    pub blob_bytes_mean: f64,
}

/// Replay passes; the median pass is reported.
const CODEC_PASSES: usize = 5;

/// Measure [`CodecCost`] on `world`'s loaded clusters.
///
/// # Errors
///
/// Codec failures (a bug: the clusters are live and well-formed).
pub fn codec_replay(world: &World) -> Result<CodecCost> {
    let manager = world.mw.manager();
    let p = world.mw.process();
    let registry = p.universe().registry.clone();
    let mut clusters = Vec::new();
    for sc in manager.loaded_clusters() {
        if sc == 0 || clusters.len() == 256 {
            continue;
        }
        let members: Vec<_> = manager
            .cluster(sc)?
            .members
            .iter()
            .map(|&(_, r)| r)
            .collect();
        if !members.is_empty() {
            clusters.push((sc, members));
        }
    }
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    let mut bytes = 0;
    for _ in 0..CODEC_PASSES {
        let mut blobs = Vec::with_capacity(clusters.len());
        let t0 = now_ns();
        for (sc, members) in &clusters {
            let blob = codec::capture(p, *sc, 0, members)?;
            blobs.push((*sc, wire::encode_blob(world.spec.wire, &blob)?));
        }
        let t1 = now_ns();
        for (sc, data) in &blobs {
            let mut mat = ClusterMaterializer::new(registry.clone(), *sc);
            wire::decode_blob_into(data, &mut mat)?;
            std::hint::black_box(mat.into_parts());
        }
        let t2 = now_ns();
        encode.push((t1 - t0) as f64);
        decode.push((t2 - t1) as f64);
        bytes = blobs.iter().map(|(_, d)| d.len()).sum::<usize>();
    }
    let n = clusters.len().max(1) as f64;
    Ok(CodecCost {
        encode_ns_per_blob: crate::report::median(encode) / n,
        decode_ns_per_blob: crate::report::median(decode) / n,
        blob_bytes_mean: bytes as f64 / n,
    })
}
