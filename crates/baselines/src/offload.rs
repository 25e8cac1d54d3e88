//! Per-object offloading with surrogates — the approach of \[6, 1\]
//! (Messer et al., Chen et al.), reproduced as a baseline.
//!
//! There, individual objects migrate to a nearby *middleware-running*
//! server; a surrogate replaces each migrated object, the VM's object
//! table tracks remote residency, and a distributed GC exchanges liveness
//! information per object. The paper's §6 criticizes exactly these costs:
//! VM modification, per-object bookkeeping, and DGC traffic between the
//! device and the offload target. This module implements the mechanism at
//! user level so the benches can count its messages and bytes against
//! Object-Swapping's cluster-granularity protocol.

use obiwan_heap::{Collection, ObjRef, ObjectKind, Oid, Value};
use obiwan_net::{DeviceId, SimNet, Transport};
use obiwan_replication::Process;
use obiwan_xml::{Element, Writer};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Errors of the offload baseline.
#[derive(Debug, Clone, PartialEq)]
pub enum OffloadError {
    /// Heap failure.
    Heap(obiwan_heap::HeapError),
    /// Network / store failure.
    Net(obiwan_net::NetError),
    /// XML failure.
    Xml(obiwan_xml::Error),
    /// The object cannot be offloaded (not an application replica, or it
    /// has no global identity).
    NotOffloadable {
        /// The offending reference.
        obj: ObjRef,
    },
    /// The identity is not currently offloaded.
    NotRemote {
        /// The identity.
        oid: Oid,
    },
    /// The shared network mutex was poisoned by a panicking holder.
    NetLockPoisoned,
}

impl fmt::Display for OffloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OffloadError::Heap(e) => write!(f, "heap: {e}"),
            OffloadError::Net(e) => write!(f, "net: {e}"),
            OffloadError::Xml(e) => write!(f, "xml: {e}"),
            OffloadError::NotOffloadable { obj } => {
                write!(f, "object {obj} cannot be offloaded")
            }
            OffloadError::NotRemote { oid } => write!(f, "{oid} is not offloaded"),
            OffloadError::NetLockPoisoned => write!(f, "net mutex poisoned"),
        }
    }
}

impl std::error::Error for OffloadError {}

impl From<obiwan_heap::HeapError> for OffloadError {
    fn from(e: obiwan_heap::HeapError) -> Self {
        OffloadError::Heap(e)
    }
}

impl From<obiwan_net::NetError> for OffloadError {
    fn from(e: obiwan_net::NetError) -> Self {
        OffloadError::Net(e)
    }
}

impl From<obiwan_xml::Error> for OffloadError {
    fn from(e: obiwan_xml::Error) -> Self {
        OffloadError::Xml(e)
    }
}

/// Result alias for this module.
pub type Result<T> = std::result::Result<T, OffloadError>;

/// Cumulative cost counters of the offload protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OffloadStats {
    /// Objects shipped out.
    pub offloads: u64,
    /// Objects fetched back.
    pub fetches: u64,
    /// Control messages exchanged by the per-object DGC.
    pub dgc_messages: u64,
    /// Remote objects reclaimed by the DGC.
    pub dgc_reclaimed: u64,
    /// Reclamation instructions the server could not honour (the remote
    /// copy lingers until a later epoch retries).
    pub dgc_drop_failures: u64,
    /// Payload bytes shipped out.
    pub bytes_out: u64,
    /// Payload bytes fetched back.
    pub bytes_in: u64,
}

/// The device-side half of the per-object offload protocol.
pub struct Offloader {
    net: Arc<Mutex<SimNet>>,
    home: DeviceId,
    /// The offload server (which, unlike the paper's dumb XML stores, must
    /// run the object middleware — modelled here by it storing structured
    /// per-object records).
    target: DeviceId,
    /// Object table: identity → its local stand-in and the *scions* (the
    /// local objects the remote object references, which the DGC must keep
    /// alive on the remote object's behalf — the per-object bookkeeping
    /// the paper's design avoids).
    remote: HashMap<Oid, RemoteEntry>,
    stats: OffloadStats,
}

#[derive(Debug, Clone)]
struct RemoteEntry {
    surrogate: ObjRef,
    scions: Vec<ObjRef>,
    /// Identities the remote object references (remote-to-remote edges are
    /// traced by the DGC fixpoint).
    outgoing: Vec<Oid>,
}

impl fmt::Debug for Offloader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Offloader")
            .field("remote_objects", &self.remote.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Offloader {
    /// Create an offloader shipping to `target`.
    pub fn new(net: Arc<Mutex<SimNet>>, home: DeviceId, target: DeviceId) -> Self {
        Offloader {
            net,
            home,
            target,
            remote: HashMap::new(),
            stats: OffloadStats::default(),
        }
    }

    /// Lock the shared network, mapping poisoning to a structured error.
    fn net_guard(&self) -> Result<std::sync::MutexGuard<'_, SimNet>> {
        self.net.lock().map_err(|_| OffloadError::NetLockPoisoned)
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> OffloadStats {
        self.stats
    }

    /// Number of objects currently remote.
    pub fn remote_objects(&self) -> usize {
        self.remote.len()
    }

    /// Offload one application object: serialize it, ship it, replace it
    /// with a surrogate (all holders patched), and detach the replica.
    /// Returns the shipped byte count.
    ///
    /// # Errors
    ///
    /// [`OffloadError::NotOffloadable`] for proxies / identity-less
    /// objects, plus network and heap errors.
    pub fn offload(&mut self, p: &mut Process, obj: ObjRef) -> Result<usize> {
        let (oid, class_name) = {
            let o = p.heap().get(obj)?;
            if o.kind() != ObjectKind::App || o.header().oid.0 == 0 {
                return Err(OffloadError::NotOffloadable { obj });
            }
            let class_name = p
                .universe()
                .registry
                .class(o.class())
                .map_err(OffloadError::from)?
                .name()
                .to_string();
            (o.header().oid, class_name)
        };
        // Record the outgoing references as DGC scions: the remote copy
        // still references these local objects, so they must stay alive.
        let scions: Vec<ObjRef> = p
            .heap()
            .get(obj)?
            .fields()
            .iter()
            .filter_map(|v| v.as_ref_value())
            .collect();
        let outgoing: Vec<Oid> = scions
            .iter()
            .filter_map(|&r| p.heap().get(r).ok().map(|o| o.header().oid))
            .filter(|oid| oid.0 != 0)
            .collect();
        for &scion in &scions {
            p.heap_mut().add_root(scion);
        }
        // Any scion pin another remote object held on *this* object becomes
        // a remote-to-remote edge: release the local pin.
        for entry in self.remote.values_mut() {
            if entry.scions.contains(&obj) {
                entry.scions.retain(|&r| r != obj);
                p.heap_mut().remove_root(obj);
            }
        }
        let xml = encode_object(p, obj, &class_name)?;
        let bytes = xml.len();
        {
            let mut net = self.net_guard()?;
            net.send_blob(
                self.home,
                self.target,
                &format!("obj-{}", oid.0),
                xml.into(),
            )?;
        }
        // Build the surrogate and patch every holder (object table update).
        let surrogate = p.ensure_fault_proxy(oid).map_err(|e| match e {
            obiwan_replication::ReplError::Heap(h) => OffloadError::Heap(h),
            other => OffloadError::NotOffloadable {
                obj: {
                    let _ = other;
                    obj
                },
            },
        })?;
        let holders: Vec<ObjRef> = p.heap().iter_live().collect();
        for holder in holders {
            if holder == surrogate {
                continue;
            }
            let n = p.heap().get(holder)?.fields().len();
            for idx in 0..n {
                if p.heap().get(holder)?.fields().get(idx) == Some(&Value::Ref(obj)) {
                    p.heap_mut()
                        .set_any_field(holder, idx, Value::Ref(surrogate))?;
                }
            }
        }
        let globals: Vec<String> = p
            .heap()
            .globals()
            .filter(|(_, v)| **v == Value::Ref(obj))
            .map(|(k, _)| k.to_string())
            .collect();
        for name in globals {
            p.set_global(name, Value::Ref(surrogate));
        }
        p.forget_replica(oid);
        self.remote.insert(
            oid,
            RemoteEntry {
                surrogate,
                scions,
                outgoing,
            },
        );
        self.stats.offloads += 1;
        self.stats.bytes_out += bytes as u64;
        p.collect(Collection::Full, |_, _| {});
        Ok(bytes)
    }

    /// Fetch a remote object back, rebuilding the replica and patching the
    /// surrogate's holders. Returns the fetched byte count.
    ///
    /// # Errors
    ///
    /// [`OffloadError::NotRemote`], network and heap errors.
    pub fn fetch_back(&mut self, p: &mut Process, oid: Oid) -> Result<usize> {
        let entry = self
            .remote
            .get(&oid)
            .cloned()
            .ok_or(OffloadError::NotRemote { oid })?;
        let surrogate = entry.surrogate;
        let key = format!("obj-{}", oid.0);
        let xml = {
            let mut net = self.net_guard()?;
            let xml = net.fetch_blob(self.home, self.target, &key)?;
            net.drop_blob(self.home, self.target, &key)?;
            xml
        };
        let bytes = xml.len();
        let xml = std::str::from_utf8(&xml)
            .map_err(|_| OffloadError::Xml(obiwan_xml::Error::structure("blob is not utf-8")))?;
        let replica = decode_object(p, xml)?;
        // Patch holders of the surrogate back to the replica.
        let holders: Vec<ObjRef> = p.heap().iter_live().collect();
        for holder in holders {
            if holder == replica {
                continue;
            }
            let n = p.heap().get(holder)?.fields().len();
            for idx in 0..n {
                if p.heap().get(holder)?.fields().get(idx) == Some(&Value::Ref(surrogate)) {
                    p.heap_mut()
                        .set_any_field(holder, idx, Value::Ref(replica))?;
                }
            }
        }
        let globals: Vec<String> = p
            .heap()
            .globals()
            .filter(|(_, v)| **v == Value::Ref(surrogate))
            .map(|(k, _)| k.to_string())
            .collect();
        for name in globals {
            p.set_global(name, Value::Ref(replica));
        }
        p.register_replica(oid, replica);
        // The object is local again: its references are ordinary heap
        // references, the scions are released.
        for scion in entry.scions {
            p.heap_mut().remove_root(scion);
        }
        self.remote.remove(&oid);
        self.stats.fetches += 1;
        self.stats.bytes_in += bytes as u64;
        Ok(bytes)
    }

    /// Run one DGC epoch: for every remote object, the device reports
    /// whether its surrogate is still reachable (one control message each —
    /// the per-object cost the paper's design avoids); unreachable remote
    /// objects are reclaimed on the offload server (one more message).
    /// Returns the number of messages exchanged.
    ///
    /// # Errors
    ///
    /// Network errors talking to the offload server.
    pub fn run_dgc_epoch(&mut self, p: &mut Process) -> Result<u64> {
        // Reachability of surrogates from globals, computed device-side.
        let mut reachable: std::collections::HashSet<ObjRef> = Default::default();
        let mut stack: Vec<ObjRef> = p
            .heap()
            .globals()
            .filter_map(|(_, v)| v.as_ref_value())
            .collect();
        while let Some(r) = stack.pop() {
            if !p.heap().is_live(r) || !reachable.insert(r) {
                continue;
            }
            if let Ok(o) = p.heap().get(r) {
                for v in o.fields() {
                    if let Value::Ref(n) = v {
                        stack.push(*n);
                    }
                }
            }
        }
        let mut messages = 0;
        // One liveness report per remote object, then a fixpoint over
        // remote-to-remote edges: a remote object is live if its surrogate
        // is locally reachable, or a live remote object references it.
        let mut live: std::collections::HashSet<Oid> = self
            .remote
            .iter()
            .filter(|(_, e)| p.heap().is_live(e.surrogate) && reachable.contains(&e.surrogate))
            .map(|(oid, _)| *oid)
            .collect();
        messages += self.remote.len() as u64;
        loop {
            let grown: Vec<Oid> = self
                .remote
                .iter()
                .filter(|(oid, _)| live.contains(oid))
                .flat_map(|(_, e)| e.outgoing.iter().copied())
                .filter(|oid| self.remote.contains_key(oid) && !live.contains(oid))
                .collect();
            if grown.is_empty() {
                break;
            }
            live.extend(grown);
        }
        let mut dead: Vec<Oid> = self
            .remote
            .keys()
            .filter(|oid| !live.contains(oid))
            .copied()
            .collect();
        dead.sort_unstable();
        for oid in &dead {
            // One reclamation instruction per dead remote object. A failed
            // drop is counted, not fatal: the per-object protocol has no
            // retry channel, so the copy lingers server-side until a later
            // epoch re-issues the instruction.
            messages += 1;
            let failed = {
                let mut net = self.net_guard()?;
                net.drop_blob(self.home, self.target, &format!("obj-{}", oid.0))
                    .is_err()
            };
            if failed {
                self.stats.dgc_drop_failures += 1;
            }
        }
        for oid in &dead {
            if let Some(entry) = self.remote.remove(oid) {
                // The remote object died: its scions are released.
                for scion in entry.scions {
                    p.heap_mut().remove_root(scion);
                }
            }
            self.stats.dgc_reclaimed += 1;
        }
        self.stats.dgc_messages += messages;
        Ok(messages)
    }
}

/// Serialize a single object (refs as identities — the object-table style
/// of \[6\], which requires every party to understand object structure).
fn encode_object(p: &Process, obj: ObjRef, class_name: &str) -> Result<String> {
    let o = p.heap().get(obj)?;
    let mut w = Writer::new().compact();
    w.begin("offloaded")?
        .attr("oid", o.header().oid.0.to_string())?
        .attr("class", class_name)?;
    for (i, v) in o.fields().iter().enumerate() {
        match v {
            Value::Null => continue,
            Value::Ref(r) => {
                let target_oid = p.heap().get(*r)?.header().oid;
                w.begin("field")?
                    .attr("i", i.to_string())?
                    .attr("kind", "oid")?
                    .attr("v", target_oid.0.to_string())?;
                w.end()?;
            }
            Value::Int(x) => {
                w.begin("field")?
                    .attr("i", i.to_string())?
                    .attr("kind", "int")?
                    .attr("v", x.to_string())?;
                w.end()?;
            }
            Value::Bytes(b) => {
                let hex: String = b.iter().map(|x| format!("{x:02x}")).collect();
                w.begin("field")?
                    .attr("i", i.to_string())?
                    .attr("kind", "bytes")?;
                w.text(&hex)?;
                w.end()?;
            }
            other => {
                w.begin("field")?
                    .attr("i", i.to_string())?
                    .attr("kind", "str")?;
                w.text(&other.to_string())?;
                w.end()?;
            }
        }
    }
    w.end()?;
    Ok(w.finish()?)
}

/// Rebuild a replica from [`encode_object`] output. References come back
/// as fault proxies / existing replicas resolved through the object table.
fn decode_object(p: &mut Process, xml: &str) -> Result<ObjRef> {
    let root = Element::parse(xml)?;
    let oid = Oid(root.parse_attr("oid")?);
    let class = p
        .universe()
        .registry
        .class_id(root.require_attr("class")?)?;
    let r = p.heap_mut().alloc(class, ObjectKind::App)?;
    p.heap_mut().header_mut(r)?.oid = oid;
    for field in root.children_named("field") {
        let i: usize = field.parse_attr("i")?;
        let kind = field.require_attr("kind")?;
        let value =
            match kind {
                "oid" => {
                    let target = Oid(field.parse_attr("v")?);
                    match p.lookup_replica(target) {
                        Some(t) => Value::Ref(t),
                        None => Value::Ref(p.ensure_fault_proxy(target).map_err(|e| match e {
                            obiwan_replication::ReplError::Heap(h) => OffloadError::Heap(h),
                            _ => OffloadError::NotRemote { oid: target },
                        })?),
                    }
                }
                "int" => Value::Int(field.parse_attr("v")?),
                "bytes" => {
                    let text = field.text().trim();
                    let mut bytes = Vec::with_capacity(text.len() / 2);
                    for i in (0..text.len()).step_by(2) {
                        let pair = text.get(i..i + 2).ok_or_else(|| {
                            OffloadError::Xml(obiwan_xml::Error::structure("odd hex length"))
                        })?;
                        bytes.push(u8::from_str_radix(pair, 16).map_err(|_| {
                            OffloadError::Xml(obiwan_xml::Error::structure("bad hex"))
                        })?);
                    }
                    Value::Bytes(bytes.into())
                }
                _ => Value::from(field.text()),
            };
        p.heap_mut().set_any_field(r, i, value)?;
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    // Tests assert on known-good setups; panicking on failure is the point.
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use obiwan_net::{DeviceKind, LinkSpec};
    use obiwan_replication::{standard_classes, ReplConfig, Server};

    fn setup(n: usize) -> (Process, Offloader, ObjRef) {
        let u = standard_classes();
        let mut server = Server::new(u.clone());
        let head = server.build_list("Node", n, 16).unwrap();
        let mut p = Process::new(
            u,
            server.into_shared(),
            1 << 22,
            ReplConfig::with_cluster_size(n),
        );
        let root = p.replicate_root(head).unwrap();
        p.set_global("head", Value::Ref(root));
        let mut net = SimNet::new();
        let pda = net.add_device("pda", DeviceKind::Pda, 0);
        let server_dev = net.add_device("offload-server", DeviceKind::Desktop, 1 << 20);
        net.connect(pda, server_dev, LinkSpec::bluetooth()).unwrap();
        let off = Offloader::new(Arc::new(Mutex::new(net)), pda, server_dev);
        (p, off, root)
    }

    #[test]
    fn offload_and_fetch_back_roundtrip() {
        let (mut p, mut off, root) = setup(5);
        let second = p.field_value(root, "next").unwrap().expect_ref().unwrap();
        let oid = p.heap().get(second).unwrap().header().oid;
        let shipped = off.offload(&mut p, second).unwrap();
        assert!(shipped > 0);
        assert_eq!(off.remote_objects(), 1);
        // The holder (root) now points at a surrogate.
        let via = p.field_value(root, "next").unwrap().expect_ref().unwrap();
        assert_eq!(p.heap().get(via).unwrap().kind(), ObjectKind::FaultProxy);
        // Fetch back; the chain is whole again.
        off.fetch_back(&mut p, oid).unwrap();
        let back = p.field_value(root, "next").unwrap().expect_ref().unwrap();
        assert_eq!(p.heap().get(back).unwrap().kind(), ObjectKind::App);
        assert_eq!(p.heap().get(back).unwrap().header().oid, oid);
        assert_eq!(p.invoke_i64(root, "length", vec![]).unwrap(), 5);
    }

    #[test]
    fn offload_rejects_proxies() {
        let (mut p, mut off, root) = setup(3);
        let mw = p.universe().middleware;
        let fp = p
            .heap_mut()
            .alloc(mw.fault_proxy, ObjectKind::FaultProxy)
            .unwrap();
        assert!(matches!(
            off.offload(&mut p, fp),
            Err(OffloadError::NotOffloadable { .. })
        ));
        let _ = root;
    }

    #[test]
    fn dgc_costs_one_message_per_remote_object() {
        let (mut p, mut off, root) = setup(6);
        // Offload nodes 3..6 (walk the chain first to get handles).
        let mut handles = vec![root];
        for _ in 0..5 {
            let next = p
                .field_value(*handles.last().unwrap(), "next")
                .unwrap()
                .expect_ref()
                .unwrap();
            handles.push(next);
        }
        for &h in &handles[3..6] {
            off.offload(&mut p, h).unwrap();
        }
        assert_eq!(off.remote_objects(), 3);
        let messages = off.run_dgc_epoch(&mut p).unwrap();
        assert_eq!(messages, 3, "one liveness report per remote object");
        // Sever the chain before the offloaded tail: surrogates die.
        let cut = handles[2];
        p.set_field_value(cut, "next", Value::Null).unwrap();
        p.collect(Collection::Full, |_, _| {});
        let messages = off.run_dgc_epoch(&mut p).unwrap();
        // 3 liveness reports; at least the directly-referenced surrogate is
        // unreachable now and costs a reclamation message.
        assert!(messages > 3, "got {messages}");
        assert!(off.stats().dgc_reclaimed >= 1);
    }

    #[test]
    fn stats_accumulate_bytes() {
        let (mut p, mut off, root) = setup(4);
        let second = p.field_value(root, "next").unwrap().expect_ref().unwrap();
        let oid = p.heap().get(second).unwrap().header().oid;
        off.offload(&mut p, second).unwrap();
        off.fetch_back(&mut p, oid).unwrap();
        let s = off.stats();
        assert_eq!(s.offloads, 1);
        assert_eq!(s.fetches, 1);
        assert!(s.bytes_out > 0 && s.bytes_in > 0);
    }
}
