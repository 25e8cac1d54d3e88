//! Whole-graph invariant auditor: statically checks swap-cluster
//! referential integrity over the heap, the [`SwappingManager`] tables and
//! the blob stores of the simulated world.
//!
//! The paper's mechanism only works if three families of invariants hold at
//! every quiescent point (between operations):
//!
//! * **Boundary soundness** (paper §4, transfer rules i–iii): every
//!   reference crossing a swap-cluster boundary is mediated by a
//!   swap-cluster-proxy whose `source` is the holder's cluster, and the
//!   proxy-reuse table binds at most one proxy per
//!   (source-cluster, target-identity) pair.
//! * **Detach integrity** (paper §3, swapping-out): for every swapped-out
//!   cluster, inbound proxies target its replacement-object, the
//!   replacement holds exactly the victim's live outbound proxies, and a
//!   blob whose self-describing header names the cluster exists on a
//!   reachable device (any wire format — XML, binary or LZ).
//! * **GC / blob consistency** (paper §3, GC integration): blobs on
//!   neighbours are either backing a swapped-out cluster or tracked as
//!   orphans awaiting a sweep; dropped clusters have released their
//!   members.
//!
//! [`SwappingManager::audit`] first snapshots the sharded manager state
//! (coordinator, then every shard in ascending index order — the lock
//! hierarchy) into one `AuditState`, then walks the whole graph against
//! that snapshot and emits structured [`Violation`] values;
//! [`crate::Middleware::audit`] is the public entry point, and debug
//! builds self-audit after every swap-out / reload / GC
//! (`debug_assert`-gated). The `obiwan-auditor` crate packages the same
//! checks as a standalone CLI (`audit-trace`) plus violation-injection
//! tests.

use crate::proxy;
use crate::swap_cluster::{SwapClusterEntry, SwapClusterState};
use crate::SwappingManager;
use obiwan_heap::{ObjRef, ObjectKind, Oid, Value, WeakRef};
use obiwan_net::{DeviceId, NetFabric};
use obiwan_placement::PlacementTable;
use obiwan_replication::Process;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::PoisonError;

/// How bad a violation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// A state a correct run can reach through the public API (a departed
    /// storage device, a global set to a raw cross-cluster reference, a
    /// blob drop that could not reach its device). Reported, not asserted.
    Warning,
    /// Graph corruption: no sequence of public-API calls should ever
    /// produce this. Debug self-audit hooks assert none exist.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// The invariant a [`Violation`] breaks. Rule ids are grouped by class:
/// `B*` boundary soundness, `D*` detach integrity, `G*` GC / blob
/// consistency, `W*` tolerated-but-suspect states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `B1` — a field (or global) holds a direct reference to an
    /// application or replacement object in another swap-cluster, without a
    /// mediating swap-cluster-proxy (transfer rule i violated).
    DirectCrossClusterRef,
    /// `B2` — a field holds a swap-cluster-proxy whose `source` is not the
    /// holder's swap-cluster (the proxy mediates for somebody else).
    ProxySourceMismatch,
    /// `B3` — a swap-cluster-proxy's target is null, dead, another proxy,
    /// or a replacement-object that is not the current stand-in of a
    /// swapped-out cluster.
    BadProxyTarget,
    /// `B4` — two proxy-reuse-table entries resolve to proxies carrying the
    /// same (source-cluster, target-identity) pair (transfer rule ii
    /// violated: the pair must have at most one registered proxy).
    DuplicateProxyPair,
    /// `B5` — a proxy-reuse-table entry resolves to an object that is not a
    /// swap-cluster-proxy, or whose `source` / `oid` fields disagree with
    /// the table key.
    ProxyIndexMismatch,
    /// `B6` — a live proxy listed in a cluster's outbound table has a
    /// `source` field naming a different cluster.
    OutboundSourceMismatch,
    /// `D1` — a live proxy denotes a member of a swapped-out cluster but
    /// does not target that cluster's replacement-object (detach forgot to
    /// patch an inbound proxy).
    InboundNotPatched,
    /// `D2` — a swapped-out cluster's replacement-object handle is dead,
    /// not a replacement-object, or tagged with another cluster.
    ReplacementMissing,
    /// `D3` — the replacement-object does not hold exactly the victim's
    /// live outbound proxies.
    ReplacementOutboundMismatch,
    /// `D4` — the storing device is present but no longer holds the blob
    /// backing a swapped-out cluster.
    MissingBlob,
    /// `D5` — a holder of a swapped-out cluster's blob is not currently
    /// present in the world (reload fails over to the remaining holders,
    /// or reports `BlobUnavailable` when none is left).
    StoreUnreachable,
    /// `D6` — the stored blob backing a swapped-out cluster has a header
    /// that fails to decode, or names a different swap-cluster than the
    /// entry it backs (the wrong bytes would be materialized on reload).
    BlobHeaderMismatch,
    /// `D7` — fewer holders of a swapped-out cluster's blob are currently
    /// reachable (present *and* holding the bytes) than
    /// [`crate::SwapConfig::replication_factor`] asks for; the repair sweep
    /// should top the placement back up.
    UnderReplicated,
    /// `D8` — not a single holder of a swapped-out cluster's blob could
    /// possibly serve it: none is reachable and none is merely departed
    /// (which could return with its copy). Reload will fail with
    /// `BlobUnavailable` forever.
    AllHoldersLost,
    /// `L1` — a loaded cluster's member record resolves to a live object
    /// whose identity, cluster tag or kind disagrees with the registry.
    MemberRecordMismatch,
    /// `G1` — a blob keyed by this device backs no swapped-out cluster and
    /// is not tracked as an orphan (a failed drop left it behind).
    OrphanBlob,
    /// `G2` — a dropped cluster still lists members (GC cooperation did not
    /// release them).
    DroppedNotCleared,
    /// `W1` — a global variable holds a direct reference to an application
    /// object outside swap-cluster-0 (legal via `set_global`, but such a
    /// reference pins the object across swap-outs unmediated).
    UnmediatedGlobal,
}

impl Rule {
    /// Stable short id (`"B1"`, `"D3"`, …) used in reports and CI grep.
    pub fn id(self) -> &'static str {
        match self {
            Rule::DirectCrossClusterRef => "B1",
            Rule::ProxySourceMismatch => "B2",
            Rule::BadProxyTarget => "B3",
            Rule::DuplicateProxyPair => "B4",
            Rule::ProxyIndexMismatch => "B5",
            Rule::OutboundSourceMismatch => "B6",
            Rule::InboundNotPatched => "D1",
            Rule::ReplacementMissing => "D2",
            Rule::ReplacementOutboundMismatch => "D3",
            Rule::MissingBlob => "D4",
            Rule::StoreUnreachable => "D5",
            Rule::BlobHeaderMismatch => "D6",
            Rule::UnderReplicated => "D7",
            Rule::AllHoldersLost => "D8",
            Rule::MemberRecordMismatch => "L1",
            Rule::OrphanBlob => "G1",
            Rule::DroppedNotCleared => "G2",
            Rule::UnmediatedGlobal => "W1",
        }
    }

    /// The severity class of this rule.
    pub fn severity(self) -> Severity {
        match self {
            Rule::StoreUnreachable
            | Rule::UnderReplicated
            | Rule::OrphanBlob
            | Rule::UnmediatedGlobal => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One broken invariant, with enough structure for tools to act on it.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which invariant is broken.
    pub rule: Rule,
    /// The swap-cluster the violation is anchored to, when one is.
    pub swap_cluster: Option<u32>,
    /// The offending heap object (holder, proxy or replacement).
    pub subject: Option<ObjRef>,
    /// The identity involved (proxy target, member oid), when known.
    pub oid: Option<Oid>,
    /// The swap-cluster path of the offending edge, source first (e.g.
    /// `[holder's cluster, target's cluster]` for a boundary violation).
    pub path: Vec<u32>,
    /// Human-readable specifics.
    pub detail: String,
}

impl Violation {
    /// The severity class (delegates to the rule).
    pub fn severity(&self) -> Severity {
        self.rule.severity()
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}/{}] ", self.rule.id(), self.severity())?;
        if let Some(sc) = self.swap_cluster {
            write!(f, "sc{sc}: ")?;
        }
        f.write_str(&self.detail)?;
        if let Some(s) = self.subject {
            write!(f, " (subject {s:?}")?;
            if let Some(oid) = self.oid {
                write!(f, ", oid {oid}")?;
            }
            f.write_str(")")?;
        } else if let Some(oid) = self.oid {
            write!(f, " (oid {oid})")?;
        }
        if !self.path.is_empty() {
            let path: Vec<String> = self.path.iter().map(|sc| format!("sc{sc}")).collect();
            write!(f, " [path {}]", path.join(" -> "))?;
        }
        Ok(())
    }
}

/// The outcome of one whole-graph audit pass.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Everything found, in discovery order.
    pub violations: Vec<Violation>,
    /// Live heap objects visited.
    pub checked_objects: usize,
    /// Swap-cluster registry entries visited.
    pub checked_clusters: usize,
    /// Live swap-cluster-proxies visited.
    pub checked_proxies: usize,
    /// Globals visited.
    pub checked_globals: usize,
}

impl AuditReport {
    /// No violations of any severity.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Whether any error-severity violation was found (the debug self-audit
    /// hooks assert this is false).
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Error-severity violations.
    pub fn errors(&self) -> impl Iterator<Item = &Violation> {
        self.violations
            .iter()
            .filter(|v| v.severity() == Severity::Error)
    }

    /// Warning-severity violations.
    pub fn warnings(&self) -> impl Iterator<Item = &Violation> {
        self.violations
            .iter()
            .filter(|v| v.severity() == Severity::Warning)
    }

    /// Render the full human-readable report.
    pub fn render(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let errors = self.errors().count();
        let warnings = self.warnings().count();
        writeln!(
            f,
            "audit: {} object(s), {} cluster(s), {} proxy(ies), {} global(s) checked \
             — {errors} error(s), {warnings} warning(s)",
            self.checked_objects, self.checked_clusters, self.checked_proxies, self.checked_globals,
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

/// A whole-manager snapshot the rules run against: the coordinator's proxy
/// tables plus every shard's cluster-keyed state, merged back into the
/// pre-sharding single-table view. Snapshotting first keeps the rule walks
/// guard-free (no manager lock is held while the heap is traversed) and
/// the report internally consistent per table.
struct AuditState {
    clusters: BTreeMap<u32, SwapClusterEntry>,
    outbound: BTreeMap<u32, Vec<WeakRef>>,
    proxy_index: BTreeMap<(u32, Oid), WeakRef>,
    orphaned_blobs: Vec<(DeviceId, String)>,
    placements: PlacementTable,
    replication_factor: usize,
    home: DeviceId,
}

impl SwappingManager {
    /// Audit the whole graph: heap boundaries, manager tables, swapped-out
    /// cluster integrity and blob accounting. Read-only; safe to call at
    /// any quiescent point, from any thread (the manager state is
    /// snapshotted coordinator-first, then shard by ascending index, per
    /// the lock hierarchy).
    pub fn audit(&self, p: &Process) -> AuditReport {
        let state = self.audit_state();
        // Diagnostics must survive a panicking peer; recover from poison.
        let net = self.net.lock().unwrap_or_else(PoisonError::into_inner);
        state.run(p, &net)
    }

    /// Snapshot coordinator + shards into one [`AuditState`].
    fn audit_state(&self) -> AuditState {
        let (proxy_index, outbound, replication_factor) = {
            let c = self
                .coordinator
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            (
                c.proxy_index.clone(),
                c.outbound.clone(),
                c.config.replication_factor,
            )
        };
        let mut clusters: BTreeMap<u32, SwapClusterEntry> = BTreeMap::new();
        let mut placements = PlacementTable::new();
        let mut orphaned_blobs: Vec<(DeviceId, String)> = Vec::new();
        for slot in self.shards.iter() {
            let shard = slot.lock().unwrap_or_else(PoisonError::into_inner);
            for (&sc, entry) in &shard.clusters {
                clusters.insert(sc, entry.clone());
            }
            placements.absorb(&shard.placements);
            orphaned_blobs.extend(shard.orphaned_blobs.iter().cloned());
        }
        AuditState {
            clusters,
            outbound,
            proxy_index,
            orphaned_blobs,
            placements,
            replication_factor,
            home: self.home,
        }
    }
}

impl AuditState {
    /// Run every rule family against the snapshot.
    fn run(&self, p: &Process, net: &NetFabric) -> AuditReport {
        let mut report = AuditReport::default();

        // Members of swapped-out clusters: oid -> (cluster, replacement).
        let mut swapped_members: HashMap<Oid, (u32, ObjRef)> = HashMap::new();
        for (&sc, entry) in &self.clusters {
            if let SwapClusterState::SwappedOut { replacement, .. } = entry.state {
                for &(oid, _) in &entry.members {
                    swapped_members.insert(oid, (sc, replacement));
                }
            }
        }

        self.audit_heap(p, &swapped_members, &mut report);
        self.audit_globals(p, &mut report);
        self.audit_proxy_index(p, &mut report);
        self.audit_side_tables(p, &mut report);
        self.audit_clusters(p, &mut report);
        self.audit_blobs(net, &mut report);
        report
    }

    /// The holder set backing swap-cluster `sc` (mirrors
    /// `Shard::holders_of` over the merged tables).
    fn holders_of(&self, sc: u32) -> Option<(u32, String, Vec<DeviceId>)> {
        if let Some((epoch, p)) = self.placements.active(sc) {
            return Some((epoch, p.key.clone(), p.holders.clone()));
        }
        let entry = self.clusters.get(&sc)?;
        if let SwapClusterState::SwappedOut {
            device, ref key, ..
        } = entry.state
        {
            Some((entry.epoch.wrapping_sub(1), key.clone(), vec![device]))
        } else {
            None
        }
    }

    /// Boundary soundness over every live heap object (rules B1–B3, D1).
    fn audit_heap(
        &self,
        p: &Process,
        swapped_members: &HashMap<Oid, (u32, ObjRef)>,
        report: &mut AuditReport,
    ) {
        for r in p.heap().iter_live() {
            let Ok(obj) = p.heap().get(r) else { continue };
            report.checked_objects += 1;
            match obj.kind() {
                ObjectKind::App => {
                    let holder_sc = obj.header().swap_cluster;
                    for (idx, v) in obj.fields().iter().enumerate() {
                        self.audit_app_field(p, r, holder_sc, idx, v, report);
                    }
                }
                ObjectKind::SwapProxy => {
                    report.checked_proxies += 1;
                    self.audit_proxy(p, r, swapped_members, report);
                }
                // Replacement extras are audited per cluster entry (D3);
                // fault proxies carry no references.
                ObjectKind::Replacement | ObjectKind::FaultProxy => {}
            }
        }
    }

    /// One field of an application object (rules B1, B2).
    fn audit_app_field(
        &self,
        p: &Process,
        holder: ObjRef,
        holder_sc: u32,
        idx: usize,
        v: &Value,
        report: &mut AuditReport,
    ) {
        let Value::Ref(t) = v else { return };
        let Ok(target) = p.heap().get(*t) else {
            report.violations.push(Violation {
                rule: Rule::DirectCrossClusterRef,
                swap_cluster: Some(holder_sc),
                subject: Some(holder),
                oid: None,
                path: vec![holder_sc],
                detail: format!("field {idx} holds a dangling reference"),
            });
            return;
        };
        let t_sc = target.header().swap_cluster;
        match target.kind() {
            ObjectKind::App if t_sc != holder_sc => {
                report.violations.push(Violation {
                    rule: Rule::DirectCrossClusterRef,
                    swap_cluster: Some(holder_sc),
                    subject: Some(holder),
                    oid: Some(target.header().oid),
                    path: vec![holder_sc, t_sc],
                    detail: format!(
                        "field {idx} crosses into sc{t_sc} without a swap-cluster-proxy"
                    ),
                });
            }
            ObjectKind::Replacement => {
                report.violations.push(Violation {
                    rule: Rule::DirectCrossClusterRef,
                    swap_cluster: Some(holder_sc),
                    subject: Some(holder),
                    oid: None,
                    path: vec![holder_sc, t_sc],
                    detail: format!(
                        "field {idx} references a replacement-object directly \
                         (must be mediated by a swap-cluster-proxy)"
                    ),
                });
            }
            ObjectKind::SwapProxy => {
                let src = proxy::source_of(p, *t).unwrap_or(u32::MAX);
                if src != holder_sc {
                    report.violations.push(Violation {
                        rule: Rule::ProxySourceMismatch,
                        swap_cluster: Some(holder_sc),
                        subject: Some(*t),
                        oid: proxy::oid_of(p, *t).ok(),
                        path: vec![holder_sc, src],
                        detail: format!(
                            "field {idx} holds a proxy whose source is sc{src}, \
                             not the holder's sc{holder_sc}"
                        ),
                    });
                }
            }
            _ => {}
        }
    }

    /// One live swap-cluster-proxy (rules B3, D1).
    fn audit_proxy(
        &self,
        p: &Process,
        pr: ObjRef,
        swapped_members: &HashMap<Oid, (u32, ObjRef)>,
        report: &mut AuditReport,
    ) {
        let mw = p.universe().middleware;
        let src = proxy::source_of(p, pr).unwrap_or(u32::MAX);
        let oid = proxy::oid_of(p, pr).ok();
        let target = match p.heap().field(pr, mw.sp_target) {
            Ok(Value::Ref(t)) => *t,
            _ => {
                report.violations.push(Violation {
                    rule: Rule::BadProxyTarget,
                    swap_cluster: Some(src),
                    subject: Some(pr),
                    oid,
                    path: vec![src],
                    detail: "proxy target field is not a reference".into(),
                });
                return;
            }
        };
        let Ok(t_obj) = p.heap().get(target) else {
            report.violations.push(Violation {
                rule: Rule::BadProxyTarget,
                swap_cluster: Some(src),
                subject: Some(pr),
                oid,
                path: vec![src],
                detail: "proxy targets a dead object".into(),
            });
            return;
        };
        let t_sc = t_obj.header().swap_cluster;
        match t_obj.kind() {
            ObjectKind::App => {}
            ObjectKind::Replacement => {
                // Must be the current stand-in of its (swapped-out) cluster.
                let current = self.clusters.get(&t_sc).and_then(|e| match e.state {
                    SwapClusterState::SwappedOut { replacement, .. } => Some(replacement),
                    _ => None,
                });
                if current != Some(target) {
                    report.violations.push(Violation {
                        rule: Rule::BadProxyTarget,
                        swap_cluster: Some(t_sc),
                        subject: Some(pr),
                        oid,
                        path: vec![src, t_sc],
                        detail: format!(
                            "proxy targets a replacement-object that is not the \
                             current stand-in of sc{t_sc}"
                        ),
                    });
                }
            }
            other => {
                report.violations.push(Violation {
                    rule: Rule::BadProxyTarget,
                    swap_cluster: Some(src),
                    subject: Some(pr),
                    oid,
                    path: vec![src, t_sc],
                    detail: format!("proxy targets a {other} object"),
                });
            }
        }
        // D1: a proxy denoting a swapped-out member must target the
        // replacement (detach patches every inbound proxy).
        if let Some(o) = oid {
            if let Some(&(sc, replacement)) = swapped_members.get(&o) {
                if target != replacement {
                    report.violations.push(Violation {
                        rule: Rule::InboundNotPatched,
                        swap_cluster: Some(sc),
                        subject: Some(pr),
                        oid,
                        path: vec![src, sc],
                        detail: format!(
                            "proxy denotes member {o} of swapped-out sc{sc} but does \
                             not target its replacement-object"
                        ),
                    });
                }
            }
        }
    }

    /// Globals are swap-cluster-0 roots (rules B1, B2, W1).
    fn audit_globals(&self, p: &Process, report: &mut AuditReport) {
        for (name, v) in p.heap().globals() {
            report.checked_globals += 1;
            let Value::Ref(t) = v else { continue };
            let Ok(t_obj) = p.heap().get(*t) else {
                report.violations.push(Violation {
                    rule: Rule::DirectCrossClusterRef,
                    swap_cluster: Some(0),
                    subject: None,
                    oid: None,
                    path: vec![0],
                    detail: format!("global `{name}` holds a dangling reference"),
                });
                continue;
            };
            let t_sc = t_obj.header().swap_cluster;
            match t_obj.kind() {
                ObjectKind::App if t_sc != 0 => {
                    report.violations.push(Violation {
                        rule: Rule::UnmediatedGlobal,
                        swap_cluster: Some(0),
                        subject: Some(*t),
                        oid: Some(t_obj.header().oid),
                        path: vec![0, t_sc],
                        detail: format!(
                            "global `{name}` references sc{t_sc} directly (set via \
                             `set_global`; pins the object across swap-outs)"
                        ),
                    });
                }
                ObjectKind::Replacement => {
                    report.violations.push(Violation {
                        rule: Rule::DirectCrossClusterRef,
                        swap_cluster: Some(0),
                        subject: Some(*t),
                        oid: None,
                        path: vec![0, t_sc],
                        detail: format!("global `{name}` references a replacement-object"),
                    });
                }
                ObjectKind::SwapProxy => {
                    let src = proxy::source_of(p, *t).unwrap_or(u32::MAX);
                    if src != 0 {
                        report.violations.push(Violation {
                            rule: Rule::ProxySourceMismatch,
                            swap_cluster: Some(0),
                            subject: Some(*t),
                            oid: proxy::oid_of(p, *t).ok(),
                            path: vec![0, src],
                            detail: format!(
                                "global `{name}` holds a proxy with source sc{src}, \
                                 not sc0"
                            ),
                        });
                    }
                }
                _ => {}
            }
        }
    }

    /// Proxy-reuse table consistency (rules B4, B5).
    fn audit_proxy_index(&self, p: &Process, report: &mut AuditReport) {
        let mut by_pair: BTreeMap<(u32, Oid), Vec<(u32, Oid)>> = BTreeMap::new();
        for (&(src, oid), &weak) in &self.proxy_index {
            let Some(pr) = p.heap().weak_get(weak) else {
                // Dead entries are pruned lazily by the GC bridge.
                continue;
            };
            let Ok(obj) = p.heap().get(pr) else { continue };
            if obj.kind() != ObjectKind::SwapProxy {
                report.violations.push(Violation {
                    rule: Rule::ProxyIndexMismatch,
                    swap_cluster: Some(src),
                    subject: Some(pr),
                    oid: Some(oid),
                    path: vec![src],
                    detail: format!(
                        "reuse-table entry (sc{src}, {oid}) resolves to a {} object",
                        obj.kind()
                    ),
                });
                continue;
            }
            let f_src = proxy::source_of(p, pr).unwrap_or(u32::MAX);
            let f_oid = proxy::oid_of(p, pr).unwrap_or(Oid(u64::MAX));
            if f_src != src || f_oid != oid {
                report.violations.push(Violation {
                    rule: Rule::ProxyIndexMismatch,
                    swap_cluster: Some(src),
                    subject: Some(pr),
                    oid: Some(oid),
                    path: vec![src, f_src],
                    detail: format!(
                        "reuse-table entry (sc{src}, {oid}) resolves to a proxy \
                         carrying (sc{f_src}, {f_oid})"
                    ),
                });
            }
            by_pair.entry((f_src, f_oid)).or_default().push((src, oid));
        }
        for ((src, oid), keys) in by_pair {
            if keys.len() > 1 {
                let listed: Vec<String> =
                    keys.iter().map(|(s, o)| format!("(sc{s}, {o})")).collect();
                report.violations.push(Violation {
                    rule: Rule::DuplicateProxyPair,
                    swap_cluster: Some(src),
                    subject: None,
                    oid: Some(oid),
                    path: vec![src],
                    detail: format!(
                        "pair (sc{src}, {oid}) is carried by {} registered proxies \
                         (table keys {})",
                        keys.len(),
                        listed.join(", ")
                    ),
                });
            }
        }
    }

    /// Outbound table consistency (rule B6). Inbound lists are allowed to
    /// hold retargeted cursors (the iteration optimization re-registers
    /// them without unlisting), so only the detach-time guarantees — rule
    /// D1 — are checked for inbound edges.
    fn audit_side_tables(&self, p: &Process, report: &mut AuditReport) {
        for (&sc, list) in &self.outbound {
            for &w in list {
                let Some(pr) = p.heap().weak_get(w) else {
                    continue;
                };
                if p.heap()
                    .get(pr)
                    .map(|o| o.kind() != ObjectKind::SwapProxy)
                    .unwrap_or(true)
                {
                    continue;
                }
                let src = proxy::source_of(p, pr).unwrap_or(u32::MAX);
                if src != sc {
                    report.violations.push(Violation {
                        rule: Rule::OutboundSourceMismatch,
                        swap_cluster: Some(sc),
                        subject: Some(pr),
                        oid: proxy::oid_of(p, pr).ok(),
                        path: vec![sc, src],
                        detail: format!(
                            "outbound table of sc{sc} lists a proxy whose source \
                             is sc{src}"
                        ),
                    });
                }
            }
        }
    }

    /// Per-cluster state-machine integrity (rules L1, D2, D3, G2).
    fn audit_clusters(&self, p: &Process, report: &mut AuditReport) {
        for (&sc, entry) in &self.clusters {
            report.checked_clusters += 1;
            match &entry.state {
                SwapClusterState::Loaded => {
                    for &(oid, r) in &entry.members {
                        let Ok(obj) = p.heap().get(r) else {
                            // Members may die between collections; swap-out
                            // refreshes the roster.
                            continue;
                        };
                        if obj.header().oid != oid
                            || obj.header().swap_cluster != sc
                            || obj.kind() != ObjectKind::App
                        {
                            report.violations.push(Violation {
                                rule: Rule::MemberRecordMismatch,
                                swap_cluster: Some(sc),
                                subject: Some(r),
                                oid: Some(oid),
                                path: vec![sc, obj.header().swap_cluster],
                                detail: format!(
                                    "member record ({oid}) resolves to a {} object \
                                     with oid {} in sc{}",
                                    obj.kind(),
                                    obj.header().oid,
                                    obj.header().swap_cluster
                                ),
                            });
                        }
                    }
                }
                SwapClusterState::SwappedOut { replacement, .. } => {
                    self.audit_swapped_cluster(p, sc, *replacement, report);
                }
                SwapClusterState::Dropped => {
                    if !entry.members.is_empty() {
                        report.violations.push(Violation {
                            rule: Rule::DroppedNotCleared,
                            swap_cluster: Some(sc),
                            subject: None,
                            oid: None,
                            path: vec![sc],
                            detail: format!(
                                "dropped cluster still lists {} member(s)",
                                entry.members.len()
                            ),
                        });
                    }
                }
            }
        }
    }

    /// Detach integrity of one swapped-out cluster (rules D2, D3).
    fn audit_swapped_cluster(
        &self,
        p: &Process,
        sc: u32,
        replacement: ObjRef,
        report: &mut AuditReport,
    ) {
        let rep_ok = match p.heap().get(replacement) {
            Ok(obj) => {
                if obj.kind() != ObjectKind::Replacement {
                    report.violations.push(Violation {
                        rule: Rule::ReplacementMissing,
                        swap_cluster: Some(sc),
                        subject: Some(replacement),
                        oid: None,
                        path: vec![sc],
                        detail: format!(
                            "stand-in of sc{sc} is a {} object, not a \
                             replacement-object",
                            obj.kind()
                        ),
                    });
                    false
                } else if obj.header().swap_cluster != sc {
                    report.violations.push(Violation {
                        rule: Rule::ReplacementMissing,
                        swap_cluster: Some(sc),
                        subject: Some(replacement),
                        oid: None,
                        path: vec![sc, obj.header().swap_cluster],
                        detail: format!(
                            "replacement-object of sc{sc} is tagged sc{}",
                            obj.header().swap_cluster
                        ),
                    });
                    false
                } else {
                    true
                }
            }
            Err(_) => {
                report.violations.push(Violation {
                    rule: Rule::ReplacementMissing,
                    swap_cluster: Some(sc),
                    subject: Some(replacement),
                    oid: None,
                    path: vec![sc],
                    detail: format!(
                        "replacement-object of swapped-out sc{sc} is dead while \
                         the entry still names it"
                    ),
                });
                false
            }
        };
        if !rep_ok {
            return;
        }

        // D3: extras of the replacement == live outbound proxies of sc.
        let held: BTreeSet<ObjRef> = p
            .heap()
            .extra_fields(replacement)
            .map(|extras| {
                extras
                    .iter()
                    .filter_map(Value::as_ref_value)
                    .collect::<BTreeSet<_>>()
            })
            .unwrap_or_default();
        let live_outbound: BTreeSet<ObjRef> = self
            .outbound
            .get(&sc)
            .map(|list| {
                list.iter()
                    .filter_map(|&w| p.heap().weak_get(w))
                    .collect::<BTreeSet<_>>()
            })
            .unwrap_or_default();
        for &extra in &held {
            let is_proxy = p
                .heap()
                .get(extra)
                .map(|o| o.kind() == ObjectKind::SwapProxy)
                .unwrap_or(false);
            if !is_proxy || !live_outbound.contains(&extra) {
                report.violations.push(Violation {
                    rule: Rule::ReplacementOutboundMismatch,
                    swap_cluster: Some(sc),
                    subject: Some(extra),
                    oid: None,
                    path: vec![sc],
                    detail: if is_proxy {
                        format!(
                            "replacement-object of sc{sc} holds a proxy that is not \
                             in the cluster's outbound table"
                        )
                    } else {
                        format!(
                            "replacement-object of sc{sc} holds a reference that is \
                             not a live swap-cluster-proxy"
                        )
                    },
                });
            }
        }
        for &out in &live_outbound {
            if !held.contains(&out) {
                report.violations.push(Violation {
                    rule: Rule::ReplacementOutboundMismatch,
                    swap_cluster: Some(sc),
                    subject: Some(out),
                    oid: proxy::oid_of(p, out).ok(),
                    path: vec![sc],
                    detail: format!(
                        "outbound proxy of swapped-out sc{sc} is not held by its \
                         replacement-object (downstream clusters may be lost)"
                    ),
                });
            }
        }
    }

    /// Blob accounting against the simulated world (rules D4, D5, D6, D7,
    /// D8, G1). Every holder in a swapped-out cluster's placement is
    /// checked individually, then the copy counts are judged against the
    /// configured replication factor.
    fn audit_blobs(&self, net: &NetFabric, report: &mut AuditReport) {
        // Expected blobs: every (holder, key) pair of a swapped-out
        // cluster's placement, plus tracked orphans.
        let mut expected: HashSet<(DeviceId, String)> = HashSet::new();
        for (&sc, entry) in &self.clusters {
            if !matches!(entry.state, SwapClusterState::SwappedOut { .. }) {
                continue;
            }
            let Some((_, key, holders)) = self.holders_of(sc) else {
                continue;
            };
            // Reachable = present and holding the bytes; possible adds
            // departed holders, which may return with their copy intact.
            let mut reachable = 0usize;
            let mut possible = 0usize;
            for &device in &holders {
                expected.insert((device, key.clone()));
                if !net.is_present(device) {
                    possible += 1;
                    report.violations.push(Violation {
                        rule: Rule::StoreUnreachable,
                        swap_cluster: Some(sc),
                        subject: None,
                        oid: None,
                        path: vec![sc],
                        detail: format!(
                            "holder {device:?} of sc{sc} is not present \
                             (reload fails over to the remaining holders)"
                        ),
                    });
                } else if !net.holds_blob(device, &key) {
                    report.violations.push(Violation {
                        rule: Rule::MissingBlob,
                        swap_cluster: Some(sc),
                        subject: None,
                        oid: None,
                        path: vec![sc],
                        detail: format!(
                            "device {device:?} is present but no longer holds blob \
                             `{key}` backing sc{sc}"
                        ),
                    });
                } else {
                    reachable += 1;
                    possible += 1;
                    if let Some(data) = net.blob_data(device, &key) {
                        // D6: the copy is there — its self-describing
                        // header must decode and name this cluster (any
                        // wire format).
                        match crate::wire::peek_header(&data) {
                            Ok(header) if header.swap_cluster == sc => {}
                            Ok(header) => report.violations.push(Violation {
                                rule: Rule::BlobHeaderMismatch,
                                swap_cluster: Some(sc),
                                subject: None,
                                oid: None,
                                path: vec![sc],
                                detail: format!(
                                    "blob `{key}` backing sc{sc} on {device:?} names \
                                     sc{} in its header (reload would refuse it)",
                                    header.swap_cluster
                                ),
                            }),
                            Err(e) => report.violations.push(Violation {
                                rule: Rule::BlobHeaderMismatch,
                                swap_cluster: Some(sc),
                                subject: None,
                                oid: None,
                                path: vec![sc],
                                detail: format!(
                                    "blob `{key}` backing sc{sc} on {device:?} has \
                                     an undecodable header: {e}"
                                ),
                            }),
                        }
                    }
                }
            }
            if possible == 0 {
                report.violations.push(Violation {
                    rule: Rule::AllHoldersLost,
                    swap_cluster: Some(sc),
                    subject: None,
                    oid: None,
                    path: vec![sc],
                    detail: format!(
                        "all {} holder(s) of blob `{key}` backing sc{sc} are \
                         present yet blobless — no copy can ever be served",
                        holders.len()
                    ),
                });
            } else if reachable < self.replication_factor {
                report.violations.push(Violation {
                    rule: Rule::UnderReplicated,
                    swap_cluster: Some(sc),
                    subject: None,
                    oid: None,
                    path: vec![sc],
                    detail: format!(
                        "sc{sc} has {reachable} reachable cop(y/ies) of blob \
                         `{key}`, below the configured replication factor {} \
                         (repair sweep pending)",
                        self.replication_factor
                    ),
                });
            }
        }
        let tracked_orphans: HashSet<(DeviceId, &str)> = self
            .orphaned_blobs
            .iter()
            .map(|(d, k)| (*d, k.as_str()))
            .collect();
        // Every blob keyed by this device must be accounted for.
        let prefix = format!("dev{}-", self.home.index());
        for device in net.device_ids() {
            for key in net.blob_keys(device) {
                if !key.starts_with(&prefix) {
                    continue; // another PDA's blob in a shared room
                }
                let id = (device, key.as_str());
                if !expected.contains(&(device, key.clone())) && !tracked_orphans.contains(&id) {
                    report.violations.push(Violation {
                        rule: Rule::OrphanBlob,
                        swap_cluster: None,
                        subject: None,
                        oid: None,
                        path: Vec::new(),
                        detail: format!(
                            "blob `{key}` on device {device:?} backs no swapped-out \
                             cluster and is not tracked as an orphan"
                        ),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may panic on impossible states
mod tests {
    use super::*;
    use crate::shard::{lock_coordinator, lock_shard};
    use crate::Middleware;
    use obiwan_replication::{standard_classes, Server};

    /// A warmed two-plus-cluster world with everything replicated.
    fn warmed() -> Middleware {
        let mut server = Server::new(standard_classes());
        let head = server.build_list("Node", 40, 16).expect("build");
        let mut mw = Middleware::builder()
            .cluster_size(10)
            .device_memory(1 << 20)
            .no_builtin_policies()
            .build(server);
        let root = mw.replicate_root(head).expect("replicate");
        mw.set_global("head", obiwan_heap::Value::Ref(root));
        mw.invoke_i64(root, "length", vec![]).expect("warm");
        mw
    }

    #[test]
    fn clean_world_audits_clean_with_nonzero_coverage() {
        let mw = warmed();
        let report = mw.audit();
        assert!(report.is_clean(), "{report}");
        assert!(report.checked_objects > 0);
        assert!(report.checked_clusters >= 2);
        assert!(report.checked_proxies > 0);
        assert!(report.checked_globals > 0);
    }

    #[test]
    fn g2_dropped_cluster_with_members_is_detected() {
        let mut mw = warmed();
        mw.swap_out(2).expect("swap out");
        {
            let manager = mw.manager();
            let mut shard = lock_shard(&manager.shards, manager.shard_of(2)).expect("shard");
            let entry = shard.clusters.get_mut(&2).expect("entry");
            // Simulate a buggy GC bridge: state flipped without draining.
            entry.state = SwapClusterState::Dropped;
            assert!(!entry.members.is_empty());
        }
        let report = mw.audit();
        assert!(report.has_errors(), "{report}");
        assert!(
            report.errors().any(|v| v.rule == Rule::DroppedNotCleared),
            "{report}"
        );
    }

    #[test]
    fn b6_outbound_table_source_mismatch_is_detected() {
        let mw = warmed();
        let manager = mw.manager();
        let (sc, w) = {
            let c = lock_coordinator(&manager.coordinator).expect("coordinator");
            let (&sc, list) = c
                .outbound
                .iter()
                .find(|(_, l)| l.iter().any(|&w| mw.process().heap().weak_get(w).is_some()))
                .expect("an outbound list with a live proxy");
            let &w = list
                .iter()
                .find(|&&w| mw.process().heap().weak_get(w).is_some())
                .expect("live weak");
            (sc, w)
        };
        {
            let mut c = lock_coordinator(&manager.coordinator).expect("coordinator");
            // File the proxy under a cluster it does not mediate for.
            c.outbound.entry(sc + 40).or_default().push(w);
        }
        let report = mw.audit();
        assert!(report.has_errors(), "{report}");
        assert!(
            report
                .errors()
                .any(|v| v.rule == Rule::OutboundSourceMismatch),
            "{report}"
        );
    }

    #[test]
    fn b5_rebinding_an_index_key_is_detected() {
        let mw = warmed();
        {
            let manager = mw.manager();
            let mut c = lock_coordinator(&manager.coordinator).expect("coordinator");
            let (&key, &w) = c
                .proxy_index
                .iter()
                .find(|(_, &w)| mw.process().heap().weak_get(w).is_some())
                .expect("a live indexed proxy");
            // Re-file the proxy under a key it does not carry.
            c.proxy_index.remove(&key);
            c.proxy_index.insert((key.0 + 40, key.1), w);
        }
        let report = mw.audit();
        assert!(report.has_errors(), "{report}");
        assert!(
            report.errors().any(|v| v.rule == Rule::ProxyIndexMismatch),
            "{report}"
        );
    }

    #[test]
    fn severities_and_ids_are_stable() {
        assert_eq!(Rule::DirectCrossClusterRef.id(), "B1");
        assert_eq!(Rule::DroppedNotCleared.id(), "G2");
        assert_eq!(Rule::BlobHeaderMismatch.id(), "D6");
        assert_eq!(Rule::BlobHeaderMismatch.severity(), Severity::Error);
        assert_eq!(Rule::StoreUnreachable.severity(), Severity::Warning);
        assert_eq!(Rule::UnderReplicated.id(), "D7");
        assert_eq!(Rule::UnderReplicated.severity(), Severity::Warning);
        assert_eq!(Rule::AllHoldersLost.id(), "D8");
        assert_eq!(Rule::AllHoldersLost.severity(), Severity::Error);
        assert_eq!(Rule::OrphanBlob.severity(), Severity::Warning);
        assert_eq!(Rule::UnmediatedGlobal.severity(), Severity::Warning);
        assert_eq!(Rule::MissingBlob.severity(), Severity::Error);
        assert!(Severity::Warning < Severity::Error);
    }
}
