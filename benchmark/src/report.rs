//! Named metrics from an [`Outcome`], printed as `name value unit` lines
//! and one closing JSON object.

use crate::drive::Block;
use crate::trace::Span;
use crate::workload::Fabric;
use crate::{BenchError, Outcome, Result};

/// The end-to-end metrics, reported by an untraced run.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "ops_per_s",
    "op_p50_us",
    "op_p99_us",
    "rss_peak_mb",
];

/// Net verbs with their own breakdown, as span names.
const BLOB_VERBS: [&str; 3] = ["net.send", "net.fetch", "net.drop"];

/// Control verbs with their own breakdown (the rest fold into
/// `net.control`).
const CONTROL_VERBS: [&str; 4] = [
    "free_storage",
    "stored_bytes",
    "holds_blob",
    "holders_of_key",
];

/// `SwapStats` counters reported per op, by metric name.
const MANAGER_COUNTERS: [&str; 11] = [
    "swap_outs",
    "swap_ins",
    "bytes_out",
    "bytes_in",
    "proxies_created",
    "proxies_reused",
    "proxies_dismantled",
    "crossings",
    "assign_patches",
    "blobs_dropped",
    "repair_bytes",
];

/// A traced run fails its accounting check when child spans leave more
/// than this share of op time uncovered.
pub const MAX_UNACCOUNTED_PCT: f64 = 5.0;

/// The per-layer metrics, reported by a traced run.
pub fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "middleware.invoke.calls_per_op",
        "middleware.invoke.busy_us_per_op",
        "middleware.invoke.self_us_per_op",
        "middleware.cursor.busy_us_per_op",
        "middleware.run_gc.calls",
        "middleware.run_gc.p50_us",
    ]
    .map(String::from)
    .to_vec();
    for verb in BLOB_VERBS {
        for m in ["calls_per_op", "busy_us_per_op", "p50_us"] {
            names.push(format!("{verb}.{m}"));
        }
        if verb != "net.drop" {
            names.push(format!("{verb}.bytes_per_op"));
        }
    }
    names.push("net.control.calls_per_op".into());
    names.push("net.control.busy_us_per_op".into());
    for verb in CONTROL_VERBS {
        names.push(format!("net.control.{verb}.calls_per_op"));
        names.push(format!("net.control.{verb}.busy_us_per_op"));
    }
    names.push("net.errors_per_op".into());
    names.push("blobd.ops_per_op".into());
    names.push("blobd.used_bytes_end".into());
    for c in MANAGER_COUNTERS {
        names.push(format!("manager.{c}_per_op"));
    }
    names.extend(
        [
            "manager.failovers",
            "manager.repairs",
            "manager.sweep.calls",
            "manager.sweep.p50_us",
            "manager.sweep.p99_us",
            "manager.sweep.late_max_ms",
            "codec.encode_us_per_blob",
            "codec.decode_us_per_blob",
            "codec.blob_bytes_mean",
            "heap.gc_runs_per_kop",
            "heap.allocs_per_op",
            "heap.peak_bytes",
            "replication.invocations_per_op",
            "replication.faults_per_op",
            "trace.overhead_pct",
            "trace.unaccounted_pct",
            "swap_op_p50_us",
            "swap_page_frac",
            "wire_bytes_per_op",
            "airtime_ms_per_op",
            "maint_p50_us",
            "fail_frac",
        ]
        .map(String::from),
    );
    names
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `us`, `ops/s`, `count`.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted: pages plus maintenance sweeps.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Every metric this run measured, in print order.
    pub metrics: Vec<Metric>,
    /// What the output checks found wrong.
    pub problems: Vec<String>,
    /// Whether the run was traced (selects the JSON metric set).
    pub traced: bool,
}

/// Median of `v`; 0 when empty.
pub fn median(v: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = v.into_iter().collect();
    v.sort_unstable_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` of sorted `v`; 0 when empty.
pub(crate) fn pct(v: &[u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1] as f64
}

/// `a / b`, or 0 when `b` is 0.
pub(crate) fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn sorted(it: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut v: Vec<u64> = it.collect();
    v.sort_unstable();
    v
}

/// The process's peak resident set (`VmHWM`), in MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn rss_peak_mb() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| BenchError::msg("no VmHWM line in /proc/self/status"))
}

struct Sink(Vec<Metric>);

impl Sink {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

impl Report {
    /// Compute every metric `o` supports and run the output checks.
    ///
    /// # Errors
    ///
    /// When the peak RSS cannot be read.
    pub fn new(o: &Outcome) -> Result<Report> {
        let w = &o.window;
        let spec = &o.world.spec;
        let ops = w.pages as f64;
        let failed = w.failed + w.sweeps.iter().filter(|s| !s.ok).count() as u64;
        let mut problems = Vec::new();
        if w.wrong_steps > 0 {
            problems.push(format!(
                "{} page(s) returned the wrong step count",
                w.wrong_steps
            ));
        }
        if o.audit_errors > 0 {
            problems.push(format!("final audit found {} error(s)", o.audit_errors));
        }
        if o.walked != spec.nodes {
            problems.push(format!(
                "final walk saw {} of {} nodes",
                o.walked, spec.nodes
            ));
        }
        let mut m = Sink(Vec::new());

        // End to end: pages as a user sees them, each timing from the
        // least disturbed block of the window (see `BLOCK_OPS`).
        let min = |f: fn(&Block) -> f64| w.blocks.iter().map(f).fold(f64::INFINITY, f64::min);
        let max = |f: fn(&Block) -> f64| w.blocks.iter().map(f).fold(0.0, f64::max);
        m.put(
            "setup_s",
            median(o.setup_ns.iter().map(|&ns| ns as f64)) / 1e9,
            "s",
        );
        m.put("ops_per_s", max(|b| b.ops_per_s), "ops/s");
        m.put("op_p50_us", min(|b| b.p50_ns) / 1e3, "us");
        m.put("op_p99_us", min(|b| b.p99_ns) / 1e3, "us");
        m.put("rss_peak_mb", rss_peak_mb()?, "MiB");
        m.put("blocks", w.blocks.len() as f64, "count");
        m.put(
            "window.ops_per_s",
            ratio(ops, w.wall_ns as f64 / 1e9),
            "ops/s",
        );
        m.put("op_samples", w.plain.pages as f64, "count");

        // Workload-scoped outcomes.
        let (b, a) = (&w.before, &w.after);
        let swap = |f: fn(&obiwan_core::SwapStats) -> u64| (f(&a.swap) - f(&b.swap)) as f64;
        let swap_lat = sorted(w.swap_ns.iter().copied());
        m.put("swap_op_p50_us", pct(&swap_lat, 0.50) / 1e3, "us");
        m.put("swap_ops", swap_lat.len() as f64, "count");
        // How far the median page sits from the swapping pages' mode.
        m.put(
            "swap_page_frac",
            ratio(swap_lat.len() as f64, w.plain.pages as f64),
            "ratio",
        );
        let wire =
            swap(|s| s.bytes_swapped_out) + swap(|s| s.bytes_swapped_in) + swap(|s| s.repair_bytes);
        m.put("wire_bytes_per_op", ratio(wire, ops), "B");
        let airtime_ms = match spec.fabric {
            Fabric::Sim { .. } => a.now.as_micros().saturating_sub(b.now.as_micros()) as f64 / 1e3,
            Fabric::Tcp { .. } => 0.0,
        };
        m.put("airtime_ms_per_op", ratio(airtime_ms, ops), "ms");
        let attempted = w.pages + w.sweeps.len() as u64;
        m.put("fail_frac", ratio(failed as f64, attempted as f64), "ratio");
        let maint = sorted(w.sweeps.iter().map(|s| s.end_ns - s.due_ns));
        m.put("maint_p50_us", pct(&maint, 0.50) / 1e3, "us");

        // Manager, heap and replication counters over the window.
        let counters: [fn(&obiwan_core::SwapStats) -> u64; 11] = [
            |s| s.swap_outs,
            |s| s.swap_ins,
            |s| s.bytes_swapped_out,
            |s| s.bytes_swapped_in,
            |s| s.proxies_created,
            |s| s.proxies_reused,
            |s| s.proxies_dismantled,
            |s| s.crossings,
            |s| s.assign_patches,
            |s| s.blobs_dropped,
            |s| s.repair_bytes,
        ];
        for (name, f) in MANAGER_COUNTERS.iter().zip(counters) {
            let unit = if name.contains("bytes") { "B" } else { "count" };
            m.put(format!("manager.{name}_per_op"), ratio(swap(f), ops), unit);
        }
        m.put("manager.failovers", swap(|s| s.reload_failovers), "count");
        m.put("manager.repairs", swap(|s| s.repairs), "count");
        let sweep = sorted(w.sweeps.iter().map(|s| s.end_ns - s.start_ns));
        m.put("manager.sweep.calls", w.sweeps.len() as f64, "count");
        m.put("manager.sweep.p50_us", pct(&sweep, 0.50) / 1e3, "us");
        m.put("manager.sweep.p99_us", pct(&sweep, 0.99) / 1e3, "us");
        let late = w
            .sweeps
            .iter()
            .map(|s| s.start_ns.saturating_sub(s.due_ns))
            .max();
        m.put(
            "manager.sweep.late_max_ms",
            late.unwrap_or(0) as f64 / 1e6,
            "ms",
        );
        let gc = sorted(w.gc_ns.iter().copied());
        m.put("middleware.run_gc.calls", gc.len() as f64, "count");
        m.put("middleware.run_gc.p50_us", pct(&gc, 0.50) / 1e3, "us");
        m.put(
            "heap.gc_runs_per_kop",
            ratio((a.heap.gc_runs - b.heap.gc_runs) as f64 * 1e3, ops),
            "count",
        );
        m.put(
            "heap.allocs_per_op",
            ratio((a.heap.total_allocs - b.heap.total_allocs) as f64, ops),
            "count",
        );
        m.put("heap.peak_bytes", a.heap.peak_bytes as f64, "B");
        m.put(
            "replication.invocations_per_op",
            ratio((a.process.0 - b.process.0) as f64, ops),
            "count",
        );
        m.put(
            "replication.faults_per_op",
            ratio((a.process.1 - b.process.1) as f64, ops),
            "count",
        );
        m.put("blobd.ops_per_op", ratio(w.daemon_ops as f64, ops), "count");
        m.put("blobd.used_bytes_end", o.daemon_bytes as f64, "B");

        if let Some(tracer) = &o.tracer {
            traced_metrics(&mut m, o, &tracer.spans());
        }
        Ok(Report {
            correct: problems.is_empty(),
            attempted,
            failed,
            metrics: m.0,
            problems,
            traced: o.tracer.is_some(),
        })
    }

    /// A metric's value by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Whether a traced run's child spans cover enough of op time (always
    /// true untraced).
    pub fn accounting_ok(&self) -> bool {
        self.get("trace.unaccounted_pct")
            .is_none_or(|u| u <= MAX_UNACCOUNTED_PCT)
    }

    /// Every metric as a `name value unit` line.
    pub fn lines(&self) -> String {
        self.metrics
            .iter()
            .map(|m| format!("{} {} {}\n", m.name, m.value, m.unit))
            .collect()
    }

    /// The closing JSON object: the end-to-end metrics untraced, the
    /// per-layer metrics traced.
    ///
    /// # Errors
    ///
    /// When a metric of the selected set was not measured (a bug).
    pub fn json(&self) -> Result<String> {
        let names: Vec<String> = if self.traced {
            per_layer_names()
        } else {
            END_TO_END.map(String::from).to_vec()
        };
        let mut fields = Vec::new();
        for name in &names {
            let m = self
                .metrics
                .iter()
                .find(|m| &m.name == name)
                .ok_or_else(|| BenchError::msg(format!("metric {name} was not measured")))?;
            fields.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

/// The metrics only a traced run has: the middleware fold, the transport
/// spans, the codec replay and the tracing bookkeeping.
fn traced_metrics(m: &mut Sink, o: &Outcome, spans: &[Span]) {
    let w = &o.window;
    let fold = &w.fold;
    let traced = w.traced.pages as f64;
    let per_op_us = |ns: u64| ratio(ns as f64, traced) / 1e3;
    m.put(
        "middleware.invoke.calls_per_op",
        ratio(fold.invoke_calls as f64, traced),
        "count",
    );
    m.put(
        "middleware.invoke.busy_us_per_op",
        per_op_us(fold.invoke_ns),
        "us",
    );
    m.put(
        "middleware.invoke.self_us_per_op",
        per_op_us(fold.invoke_self_ns),
        "us",
    );
    m.put(
        "middleware.cursor.busy_us_per_op",
        per_op_us(fold.cursor_ns),
        "us",
    );

    // Transport spans are recorded only under pages.
    let under_ops: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name.starts_with("net."))
        .collect();
    for verb in BLOB_VERBS {
        let of: Vec<&&Span> = under_ops.iter().filter(|s| s.name == verb).collect();
        let ns = sorted(of.iter().map(|s| s.ns()));
        m.put(
            format!("{verb}.calls_per_op"),
            ratio(of.len() as f64, traced),
            "count",
        );
        m.put(
            format!("{verb}.busy_us_per_op"),
            ratio(ns.iter().sum::<u64>() as f64, traced) / 1e3,
            "us",
        );
        m.put(format!("{verb}.p50_us"), pct(&ns, 0.50) / 1e3, "us");
        if verb != "net.drop" {
            let bytes = of.iter().map(|s| s.bytes).sum::<u64>() as f64;
            m.put(format!("{verb}.bytes_per_op"), ratio(bytes, traced), "B");
        }
    }
    let control: Vec<&&Span> = under_ops
        .iter()
        .filter(|s| s.name.starts_with("net.control."))
        .collect();
    let busy = |v: &[&&Span]| v.iter().map(|s| s.ns()).sum::<u64>() as f64;
    m.put(
        "net.control.calls_per_op",
        ratio(control.len() as f64, traced),
        "count",
    );
    m.put(
        "net.control.busy_us_per_op",
        ratio(busy(&control), traced) / 1e3,
        "us",
    );
    for verb in CONTROL_VERBS {
        let of: Vec<&&Span> = control
            .iter()
            .copied()
            .filter(|s| s.name.strip_prefix("net.control.") == Some(verb))
            .collect();
        m.put(
            format!("net.control.{verb}.calls_per_op"),
            ratio(of.len() as f64, traced),
            "count",
        );
        m.put(
            format!("net.control.{verb}.busy_us_per_op"),
            ratio(busy(&of), traced) / 1e3,
            "us",
        );
    }
    let errors = under_ops.iter().filter(|s| !s.ok).count();
    m.put("net.errors_per_op", ratio(errors as f64, traced), "count");

    let codec = o.codec.unwrap_or(crate::CodecCost {
        encode_ns_per_blob: 0.0,
        decode_ns_per_blob: 0.0,
        blob_bytes_mean: 0.0,
    });
    m.put(
        "codec.encode_us_per_blob",
        codec.encode_ns_per_blob / 1e3,
        "us",
    );
    m.put(
        "codec.decode_us_per_blob",
        codec.decode_ns_per_blob / 1e3,
        "us",
    );
    m.put("codec.blob_bytes_mean", codec.blob_bytes_mean, "B");

    // Tracing's own cost: pages alternate traced and untraced, so the
    // two halves see the same page mix.
    let rate = |t: &crate::drive::Tally| ratio(t.pages as f64, t.ns as f64);
    let (plain, traced_rate) = (rate(&w.plain), rate(&w.traced));
    m.put(
        "trace.overhead_pct",
        ratio(plain - traced_rate, plain) * 100.0,
        "%",
    );
    let op_ns = w.traced.ns as f64;
    let covered = (fold.invoke_ns + fold.cursor_ns) as f64;
    m.put(
        "trace.unaccounted_pct",
        ratio(op_ns - covered, op_ns) * 100.0,
        "%",
    );
}
