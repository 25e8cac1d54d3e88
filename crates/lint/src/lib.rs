//! `obiwan-lint` — source-level architecture analyzer for the OBIWAN
//! workspace.
//!
//! PR 1's auditor checks the *runtime* object graph; this crate checks the
//! *source* tree for the architectural properties the paper's
//! referential-integrity guarantees rest on, the way production stacks
//! gate merges on custom lints. Zero dependencies: a hand-rolled lexer
//! ([`lexer`]), a light structural model ([`model`]), and a rule catalog
//! ([`rules`]):
//!
//! | rule | name | historical bug it would have caught |
//! |------|------|-------------------------------------|
//! | S1 | `lock-order` | the `make_cursor` manager-lock re-entrance deadlock (fixed in PR 1) |
//! | S2 | `recorder-bypass` | stats/event drift that forced the Recorder choke point (PR 4) |
//! | S3 | `layering` | dependency-direction erosion (core reaching into net internals) |
//! | S4 | `panic-paths` | panics stranding half-patched proxies (PR 1's `SwapError` work) |
//! | S5 | `blob-access` | blob stores/drops bypassing the k-way placement fan-out (PR 3) |
//! | S6 | `event-coverage` | a stats counter that no longer folds out of the trace (PR 4) |
//! | S7 | `wall-clock` | wall time leaking into traces, breaking run-over-run identity |
//! | S8 | `nondeterministic-iteration` | the `PlacementTable` HashMap iteration fixed in PR 4 |
//! | S9 | `guard-across-ship` | manager guard held across blob transmission (this PR's detach fix) |
//! | S10 | `guard-escape` | a guard outliving its function via return/field/`move` closure |
//! | S11 | `cross-shard-order` | keyed sibling locks taken without a canonical order (sharding prep) |
//! | S12 | `discarded-result` | a swap/placement `Result` silently dropped on some path |
//! | S13 | `blocking-under-lock` | netd pacing sleeps / blobd socket I/O charged under a guard |
//! | S14 | `actor-reentrancy` | an actor thread re-entering its own mailbox via a Transport verb |
//! | S15 | `unchecked-quota-arithmetic` | raw `+`/`-` on quota/used/airtime counters |
//!
//! S1 and S9–S12 are *flow-sensitive*: they run on a per-function control
//! flow graph ([`cfg`](mod@cfg)) with a worklist dataflow framework ([`dataflow`])
//! and a held-lock-set analysis ([`locks`]) on top, so "held across" and
//! "on some path" mean actual paths, not lexical containment.
//!
//! S1, S9, S13, and S14 are additionally *interprocedural*: a
//! workspace-wide call graph ([`callgraph`]) feeds bottom-up per-function
//! summaries ([`summaries`]) computed SCC by SCC with a fuel-bounded
//! fixpoint, so a lock acquired in one function and a sleep buried three
//! calls deep meet anyway — and the violation carries the call chain.
//!
//! Violations can be suppressed per line with `// lint:allow(S7, reason)`
//! on or directly above the offending line, per file with
//! `// lint:allow-file(S4)`, or per run with `--allow <rule>`.

pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod lexer;
pub mod locks;
pub mod model;
pub mod rules;
pub mod summaries;

use model::FileModel;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The rule catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// S1: lock-acquisition-order cycles across the static call
    /// approximation.
    LockOrder,
    /// S2: `SwapStats` mutation or `EventKind` emission outside the
    /// Recorder choke point.
    RecorderBypass,
    /// S3: dependency-direction wall (leaf crates, net internals,
    /// placement internals).
    Layering,
    /// S4: `unwrap`-family and indexing/slicing in library code of crates
    /// outside the original clippy wall.
    PanicPaths,
    /// S5: raw blob store/drop traffic outside the placement fan-out.
    BlobAccess,
    /// S6: Recorder methods whose counters and events can drift apart.
    EventCoverage,
    /// S7: wall-clock reads outside the virtual-clock module.
    WallClock,
    /// S8: `HashMap`/`HashSet` iteration on paths feeding the Recorder.
    NondeterministicIteration,
    /// S9: a lock guard live across a blocking `obiwan-net` blob
    /// send/fetch call on some path.
    GuardAcrossShip,
    /// S10: a guard escaping its function — returned, stored in a field,
    /// or captured by a `move` closure.
    GuardEscape,
    /// S11: two keyed sibling locks (same family, different shard keys)
    /// held together without canonical ordering evidence.
    CrossShardOrder,
    /// S12: a `Result` from a swap/placement operation dropped on some
    /// path.
    DiscardedResult,
    /// S13: a blocking operation (sleep, socket I/O, channel wait)
    /// reachable while a lock guard is held, across function boundaries.
    BlockingUnderLock,
    /// S14: a device-actor thread context transitively calling back into
    /// a verb that enqueues to its own mailbox and deadlocks.
    ActorReentrancy,
    /// S15: raw `+`/`-` arithmetic on quota/used-bytes/airtime counters
    /// outside checked/saturating helpers.
    UncheckedQuotaArithmetic,
}

/// All rules, in catalog order.
pub const ALL_RULES: [Rule; 15] = [
    Rule::LockOrder,
    Rule::RecorderBypass,
    Rule::Layering,
    Rule::PanicPaths,
    Rule::BlobAccess,
    Rule::EventCoverage,
    Rule::WallClock,
    Rule::NondeterministicIteration,
    Rule::GuardAcrossShip,
    Rule::GuardEscape,
    Rule::CrossShardOrder,
    Rule::DiscardedResult,
    Rule::BlockingUnderLock,
    Rule::ActorReentrancy,
    Rule::UncheckedQuotaArithmetic,
];

impl Rule {
    /// Catalog id (`S1`–`S12`).
    pub fn id(self) -> &'static str {
        match self {
            Rule::LockOrder => "S1",
            Rule::RecorderBypass => "S2",
            Rule::Layering => "S3",
            Rule::PanicPaths => "S4",
            Rule::BlobAccess => "S5",
            Rule::EventCoverage => "S6",
            Rule::WallClock => "S7",
            Rule::NondeterministicIteration => "S8",
            Rule::GuardAcrossShip => "S9",
            Rule::GuardEscape => "S10",
            Rule::CrossShardOrder => "S11",
            Rule::DiscardedResult => "S12",
            Rule::BlockingUnderLock => "S13",
            Rule::ActorReentrancy => "S14",
            Rule::UncheckedQuotaArithmetic => "S15",
        }
    }

    /// Human name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::LockOrder => "lock-order",
            Rule::RecorderBypass => "recorder-bypass",
            Rule::Layering => "layering",
            Rule::PanicPaths => "panic-paths",
            Rule::BlobAccess => "blob-access",
            Rule::EventCoverage => "event-coverage",
            Rule::WallClock => "wall-clock",
            Rule::NondeterministicIteration => "nondeterministic-iteration",
            Rule::GuardAcrossShip => "guard-across-ship",
            Rule::GuardEscape => "guard-escape",
            Rule::CrossShardOrder => "cross-shard-order",
            Rule::DiscardedResult => "discarded-result",
            Rule::BlockingUnderLock => "blocking-under-lock",
            Rule::ActorReentrancy => "actor-reentrancy",
            Rule::UncheckedQuotaArithmetic => "unchecked-quota-arithmetic",
        }
    }

    /// Parse an id (`S3`) or name (`layering`), case-insensitively.
    pub fn parse(s: &str) -> Option<Rule> {
        let s = s.trim();
        ALL_RULES
            .into_iter()
            .find(|r| r.id().eq_ignore_ascii_case(s) || r.name().eq_ignore_ascii_case(s))
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.id(), self.name())
    }
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintViolation {
    /// The violated rule.
    pub rule: Rule,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Trimmed source line.
    pub excerpt: String,
    /// What to do about it.
    pub advice: String,
    /// Interprocedural call chain from the flagged site to the effect —
    /// function display names, outermost first; empty for direct
    /// (intraprocedural) findings. Names, not spans, so baselines stay
    /// stable across line renumbering.
    pub chain: Vec<String>,
}

impl LintViolation {
    /// Render as a single JSON object (own, dependency-free encoder —
    /// same discipline as `obiwan_trace::json`).
    pub fn to_json(&self) -> String {
        let chain = self
            .chain
            .iter()
            .map(|s| format!("\"{}\"", json_escape(s)))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"rule\":\"{}\",\"name\":\"{}\",\"file\":\"{}\",\"line\":{},\"excerpt\":\"{}\",\"advice\":\"{}\",\"chain\":[{}]}}",
            self.rule.id(),
            self.rule.name(),
            json_escape(&self.file),
            self.line,
            json_escape(&self.excerpt),
            json_escape(&self.advice),
            chain,
        )
    }
}

impl fmt::Display for LintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}: {}:{}", self.rule, self.file, self.line)?;
        writeln!(f, "    {}", self.excerpt)?;
        if !self.chain.is_empty() {
            writeln!(f, "    via: {}", self.chain.join(" -> "))?;
        }
        write!(f, "    advice: {}", self.advice)
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Directories never descended into: build outputs, vendored stand-ins,
/// non-library targets (tests/benches/examples/bins opt out of the wall
/// the same way they opt out of the clippy `disallowed-methods` wall), and
/// the seeded-violation fixture tree.
const SKIP_DIRS: &[&str] = &[
    "target",
    "vendor",
    ".git",
    "lint-fixtures",
    "tests",
    "benches",
    "examples",
    "bin",
    "node_modules",
];

/// Walk `root` and collect the library sources the rules govern.
fn collect_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                let name = path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .unwrap_or_default();
                if !SKIP_DIRS.contains(&name) {
                    stack.push(path);
                }
            } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Crate short name for a workspace-relative path: `crates/<x>/src/…` →
/// `x`, the facade's `src/…` → `obiwan`, anything else → `None`
/// (not scanned).
fn classify(rel: &str) -> Option<String> {
    let parts: Vec<&str> = rel.split('/').collect();
    for w in parts.windows(3) {
        if let [a, b, c] = w {
            if *a == "crates" && *c == "src" {
                return Some((*b).to_owned());
            }
        }
    }
    // The facade crate's own sources live at `<root>/src/`.
    if let Some(pos) = parts.iter().position(|p| *p == "src") {
        if pos + 1 < parts.len() {
            return Some("obiwan".to_owned());
        }
    }
    None
}

/// Wall-clock timing of one full run, for the CI self-timing budget.
#[derive(Debug, Clone)]
pub struct LintStats {
    /// Files scanned.
    pub files: usize,
    /// Functions analyzed.
    pub functions: usize,
    /// Read + lex + structural model time.
    pub parse: Duration,
    /// Workspace build (per-function CFG + lock flow).
    pub analyze: Duration,
    /// Call graph + summaries build.
    pub interproc: Duration,
    /// Per-rule run time, in catalog order (skipped rules omitted).
    pub rules: Vec<(Rule, Duration)>,
    /// End-to-end time of the whole run.
    pub total: Duration,
}

impl fmt::Display for LintStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "scanned {} file(s), {} function(s)",
            self.files, self.functions
        )?;
        writeln!(f, "  parse     {:>8.1?}", self.parse)?;
        writeln!(f, "  analyze   {:>8.1?}", self.analyze)?;
        writeln!(f, "  interproc {:>8.1?}", self.interproc)?;
        for (rule, d) in &self.rules {
            writeln!(f, "  {:<9} {:>8.1?}", rule.id(), d)?;
        }
        write!(f, "  total     {:>8.1?}", self.total)
    }
}

/// Run every rule (minus `allowed`) over the tree under `root`.
///
/// # Errors
///
/// I/O errors reading the tree; individual files that are not valid UTF-8
/// are skipped.
pub fn lint_root(root: &Path, allowed: &[Rule]) -> std::io::Result<Vec<LintViolation>> {
    lint_root_timed(root, allowed).map(|(v, _)| v)
}

/// [`lint_root`] plus per-phase wall-clock timing. The timing is
/// diagnostic output, never recorded into traces, so the wall-clock reads
/// are exempt from S7 here.
///
/// # Errors
///
/// Same as [`lint_root`].
pub fn lint_root_timed(
    root: &Path,
    allowed: &[Rule],
) -> std::io::Result<(Vec<LintViolation>, LintStats)> {
    let t0 = std::time::Instant::now(); // lint:allow(S7, lint self-timing diagnostics)
    let mut files = Vec::new();
    for path in collect_sources(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Some(crate_name) = classify(&rel) else {
            continue;
        };
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue; // non-UTF-8: nothing for a Rust lexer to do
        };
        files.push(FileModel::parse(rel, crate_name, src));
    }
    let n_files = files.len();
    let parse = t0.elapsed();
    let t1 = std::time::Instant::now(); // lint:allow(S7, lint self-timing diagnostics)
    let ws = rules::Workspace::build(files);
    let analyze = t1.elapsed();
    let t2 = std::time::Instant::now(); // lint:allow(S7, lint self-timing diagnostics)
    let ip = rules::Interproc::build(&ws);
    let interproc = t2.elapsed();
    let mut out = Vec::new();
    let mut rule_times = Vec::new();
    for rule in ALL_RULES {
        if allowed.contains(&rule) {
            continue;
        }
        let tr = std::time::Instant::now(); // lint:allow(S7, lint self-timing diagnostics)
        out.extend(rules::run(rule, &ws, &ip));
        rule_times.push((rule, tr.elapsed()));
    }
    // Per-line / per-file suppression directives.
    out.retain(|v| {
        ws.file_by_path(&v.file)
            .is_none_or(|f| !f.allowed(v.rule.id(), v.line))
    });
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    // A span flagged by both the intraprocedural and the interprocedural
    // side of a rule reports once, keeping the call chain if either
    // finding carries one.
    out.dedup_by(|later, kept| {
        if later.rule == kept.rule && later.file == kept.file && later.line == kept.line {
            if kept.chain.is_empty() && !later.chain.is_empty() {
                kept.chain = std::mem::take(&mut later.chain);
            }
            true
        } else {
            false
        }
    });
    let stats = LintStats {
        files: n_files,
        functions: ws.fns.len(),
        parse,
        analyze,
        interproc,
        rules: rule_times,
        total: t0.elapsed(),
    };
    Ok((out, stats))
}
