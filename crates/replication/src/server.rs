//! The replication server: master object graph + cluster computation.

use crate::methods::Universe;
use crate::{ReplError, Result};
use bytes::Bytes;
use obiwan_heap::{ClassId, Heap, ObjRef, ObjectKind, Oid, Value};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// How the server groups objects into replication clusters when a device
/// faults on an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClusterStrategy {
    /// Breadth-first traversal from the faulted object — the paper's
    /// "chained (via references) object clusters".
    #[default]
    Bfs,
    /// Depth-first traversal from the faulted object; fills a cluster along
    /// one chain before widening (better for list-shaped data, identical to
    /// BFS on a list).
    Dfs,
}

/// A field value on the wire between server and device: plain scalars and
/// *identities*, never device-local handles.
#[derive(Debug, Clone, PartialEq)]
pub enum WireValue {
    /// Null / uninitialized.
    Null,
    /// A non-reference scalar ([`Value::Ref`] is forbidden here).
    Scalar(Value),
    /// A reference carried as a global identity.
    Ref(Oid),
}

/// One object on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireObject {
    /// Global identity.
    pub oid: Oid,
    /// Its class.
    pub class: ClassId,
    /// Field values in layout order.
    pub fields: Vec<WireValue>,
}

/// A server shared between the devices that replicate from it.
pub type SharedServer = Arc<Mutex<Server>>;

/// The master-graph holder. Applications (or test harnesses) build the
/// object graph here; devices replicate clusters of it on demand.
///
/// The server's own heap is effectively unbounded — the paper's asymmetry is
/// precisely that the *device* is memory-constrained while the surrounding
/// infrastructure is not.
#[derive(Debug)]
pub struct Server {
    heap: Heap,
    classes: Universe,
    oid_map: HashMap<Oid, ObjRef>,
    next_oid: u64,
    strategy: ClusterStrategy,
    /// Clusters served so far (diagnostics).
    clusters_served: u64,
    /// Objects served so far (diagnostics).
    objects_served: u64,
    /// Device updates applied (diagnostics).
    updates_applied: u64,
}

impl Server {
    /// Create a server for the given class universe.
    pub fn new(classes: Universe) -> Self {
        Server {
            heap: Heap::new(classes.registry.clone(), usize::MAX / 2),
            classes,
            oid_map: HashMap::new(),
            next_oid: 1,
            strategy: ClusterStrategy::default(),
            clusters_served: 0,
            objects_served: 0,
            updates_applied: 0,
        }
    }

    /// Wrap the server for sharing with devices.
    pub fn into_shared(self) -> SharedServer {
        Arc::new(Mutex::new(self))
    }

    /// Change the clustering strategy.
    pub fn set_strategy(&mut self, strategy: ClusterStrategy) {
        self.strategy = strategy;
    }

    /// The class universe this server serves.
    pub fn classes(&self) -> &Universe {
        &self.classes
    }

    /// Create a master object of the named class. All fields start `Null`.
    ///
    /// # Errors
    ///
    /// [`ReplError::Heap`] for an unknown class name.
    pub fn create(&mut self, class_name: &str) -> Result<Oid> {
        let class = self.classes.registry.class_id(class_name)?;
        let r = self.heap.alloc(class, ObjectKind::App)?;
        let oid = Oid(self.next_oid);
        self.next_oid += 1;
        let h = self.heap.header_mut(r)?;
        h.oid = oid;
        h.pinned = true; // masters never die
        self.oid_map.insert(oid, r);
        Ok(oid)
    }

    /// Set a scalar field on a master object.
    ///
    /// # Errors
    ///
    /// [`ReplError::UnknownOid`] or field errors from the heap; passing a
    /// [`Value::Ref`] here is a type error — use [`Server::set_ref`].
    pub fn set_scalar(&mut self, oid: Oid, field: &str, value: Value) -> Result<()> {
        if matches!(value, Value::Ref(_)) {
            return Err(ReplError::corrupt(
                "set_scalar called with a Ref; use set_ref with an Oid",
            ));
        }
        let r = self.resolve(oid)?;
        self.heap.set_field_by_name(r, field, value)?;
        Ok(())
    }

    /// Link one master object to another by field.
    ///
    /// # Errors
    ///
    /// [`ReplError::UnknownOid`] for either identity, or heap field errors.
    pub fn set_ref(&mut self, oid: Oid, field: &str, target: Option<Oid>) -> Result<()> {
        let r = self.resolve(oid)?;
        let value = match target {
            Some(t) => Value::Ref(self.resolve(t)?),
            None => Value::Null,
        };
        self.heap.set_field_by_name(r, field, value)?;
        Ok(())
    }

    /// Read a field of a master object (refs come back as identities).
    ///
    /// # Errors
    ///
    /// [`ReplError::UnknownOid`] or heap field errors.
    pub fn get_field(&self, oid: Oid, field: &str) -> Result<WireValue> {
        let r = self.resolve(oid)?;
        Ok(self.to_wire(self.heap.field_by_name(r, field)?))
    }

    /// Number of master objects.
    pub fn object_count(&self) -> usize {
        self.oid_map.len()
    }

    /// `(clusters_served, objects_served)` counters.
    pub fn served(&self) -> (u64, u64) {
        (self.clusters_served, self.objects_served)
    }

    /// Build a singly linked list of `n` objects of `class_name` (which must
    /// have a `next` ref field and a `payload` bytes field), each carrying
    /// `payload_bytes` of payload. Returns the head. This is the exact shape
    /// of the paper's Figure 5 workload (10 000 × 64-byte objects).
    ///
    /// # Errors
    ///
    /// Unknown class or missing fields.
    pub fn build_list(&mut self, class_name: &str, n: usize, payload_bytes: usize) -> Result<Oid> {
        assert!(n > 0, "a list needs at least one node");
        let mut oids = Vec::with_capacity(n);
        for i in 0..n {
            let oid = self.create(class_name)?;
            self.set_scalar(
                oid,
                "payload",
                Value::Bytes(Bytes::from(vec![(i % 251) as u8; payload_bytes])),
            )?;
            oids.push(oid);
        }
        for w in oids.windows(2) {
            self.set_ref(w[0], "next", Some(w[1]))?;
        }
        Ok(oids[0])
    }

    /// Build a complete binary tree of `TreeNode`s of the given `depth`
    /// (so `2^depth − 1` nodes), with distinct `tag`s assigned in BFS
    /// order and `payload_bytes` of payload each. Returns the root.
    ///
    /// # Errors
    ///
    /// Unknown class or missing fields.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero or would overflow the node count.
    pub fn build_tree(&mut self, depth: u32, payload_bytes: usize) -> Result<Oid> {
        assert!((1..=24).contains(&depth), "tree depth must be in 1..=24");
        let count = (1u64 << depth) - 1;
        let mut oids = Vec::with_capacity(count as usize);
        for i in 0..count {
            let oid = self.create("TreeNode")?;
            self.set_scalar(oid, "tag", Value::Int(i as i64 + 1))?;
            self.set_scalar(
                oid,
                "payload",
                Value::Bytes(Bytes::from(vec![(i % 251) as u8; payload_bytes])),
            )?;
            oids.push(oid);
        }
        for i in 0..count as usize {
            let left = 2 * i + 1;
            let right = 2 * i + 2;
            if left < count as usize {
                self.set_ref(oids[i], "left", Some(oids[left]))?;
            }
            if right < count as usize {
                self.set_ref(oids[i], "right", Some(oids[right]))?;
            }
        }
        Ok(oids[0])
    }

    /// Compute and serve the cluster of up to `size` objects containing
    /// `root`, excluding identities for which `already_replicated` returns
    /// true. The traversal follows the configured [`ClusterStrategy`].
    ///
    /// # Errors
    ///
    /// [`ReplError::UnknownOid`] if `root` is unknown.
    pub fn fetch_cluster(
        &mut self,
        root: Oid,
        size: usize,
        already_replicated: &dyn Fn(Oid) -> bool,
    ) -> Result<Vec<WireObject>> {
        let root_ref = self.resolve(root)?;
        let size = size.max(1);
        let mut picked: Vec<ObjRef> = Vec::with_capacity(size);
        let mut seen: HashMap<u32, ()> = HashMap::new();
        let mut queue: VecDeque<ObjRef> = VecDeque::new();
        queue.push_back(root_ref);
        while picked.len() < size {
            let Some(r) = (match self.strategy {
                ClusterStrategy::Bfs => queue.pop_front(),
                ClusterStrategy::Dfs => queue.pop_back(),
            }) else {
                break;
            };
            if seen.insert(r.index(), ()).is_some() {
                continue;
            }
            let obj = self.heap.get(r)?;
            let oid = obj.header().oid;
            if already_replicated(oid) && oid != root {
                continue;
            }
            if !already_replicated(oid) {
                picked.push(r);
            }
            for v in obj.fields() {
                if let Value::Ref(next) = v {
                    queue.push_back(*next);
                }
            }
        }
        self.clusters_served += 1;
        self.objects_served += picked.len() as u64;
        picked.iter().map(|r| self.wire_object(*r)).collect()
    }

    /// Apply a device's committed update to the master object: scalar
    /// fields are overwritten, reference fields are re-linked by identity.
    ///
    /// This is the write-back half of OBIWAN's "creation and update of
    /// object replicas" (paper §2); conflict resolution between concurrent
    /// writers is last-write-wins, as the transactional layer the paper
    /// references (\[13\]) is out of scope.
    ///
    /// # Errors
    ///
    /// [`ReplError::UnknownOid`] for the object or any referenced identity,
    /// heap errors for layout mismatches.
    pub fn apply_update(&mut self, update: &WireObject) -> Result<()> {
        let r = self.resolve(update.oid)?;
        if self.heap.get(r)?.class() != update.class {
            return Err(ReplError::corrupt(format!(
                "update for {} carries class {:?}, master has {:?}",
                update.oid,
                update.class,
                self.heap.get(r)?.class()
            )));
        }
        for (idx, fv) in update.fields.iter().enumerate() {
            let value = match fv {
                WireValue::Null => Value::Null,
                WireValue::Scalar(v) => v.clone(),
                WireValue::Ref(oid) => Value::Ref(self.resolve(*oid)?),
            };
            self.heap.set_any_field(r, idx, value)?;
        }
        self.updates_applied += 1;
        Ok(())
    }

    /// Number of device updates applied so far.
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied
    }

    /// Serve a single object by identity (used by per-object baselines).
    ///
    /// # Errors
    ///
    /// [`ReplError::UnknownOid`].
    pub fn fetch_object(&mut self, oid: Oid) -> Result<WireObject> {
        let r = self.resolve(oid)?;
        self.objects_served += 1;
        self.wire_object(r)
    }

    fn wire_object(&self, r: ObjRef) -> Result<WireObject> {
        let obj = self.heap.get(r)?;
        let fields = obj.fields().iter().map(|v| self.to_wire(v)).collect();
        Ok(WireObject {
            oid: obj.header().oid,
            class: obj.class(),
            fields,
        })
    }

    fn to_wire(&self, v: &Value) -> WireValue {
        match v {
            Value::Null => WireValue::Null,
            Value::Ref(r) => {
                let oid = self
                    .heap
                    .get(*r)
                    .map(|o| o.header().oid)
                    .unwrap_or_default();
                WireValue::Ref(oid)
            }
            scalar => WireValue::Scalar(scalar.clone()),
        }
    }

    fn resolve(&self, oid: Oid) -> Result<ObjRef> {
        self.oid_map
            .get(&oid)
            .copied()
            .ok_or(ReplError::UnknownOid { oid })
    }
}

#[cfg(test)]
mod tests {
    // Tests assert on known-good setups; panicking on failure is the point.
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use crate::methods::standard_classes;

    fn server() -> Server {
        Server::new(standard_classes())
    }

    #[test]
    fn create_and_link_masters() {
        let mut s = server();
        let a = s.create("Node").unwrap();
        let b = s.create("Node").unwrap();
        s.set_ref(a, "next", Some(b)).unwrap();
        assert_eq!(s.get_field(a, "next").unwrap(), WireValue::Ref(b));
        s.set_ref(a, "next", None).unwrap();
        assert_eq!(s.get_field(a, "next").unwrap(), WireValue::Null);
        assert_eq!(s.object_count(), 2);
    }

    #[test]
    fn set_scalar_rejects_refs() {
        let mut s = server();
        let a = s.create("Node").unwrap();
        let err = s
            .set_scalar(a, "next", Value::Ref(ObjRef::test_dummy(0)))
            .unwrap_err();
        assert!(matches!(err, ReplError::Corrupt { .. }));
    }

    #[test]
    fn unknown_oid_is_reported() {
        let s = server();
        assert!(matches!(
            s.get_field(Oid(99), "next"),
            Err(ReplError::UnknownOid { .. })
        ));
    }

    #[test]
    fn build_list_links_in_order() {
        let mut s = server();
        let head = s.build_list("Node", 5, 8).unwrap();
        let mut cur = head;
        let mut count = 1;
        while let WireValue::Ref(next) = s.get_field(cur, "next").unwrap() {
            cur = next;
            count += 1;
        }
        assert_eq!(count, 5);
    }

    #[test]
    fn fetch_cluster_returns_bfs_prefix() {
        let mut s = server();
        let head = s.build_list("Node", 10, 4).unwrap();
        let cluster = s.fetch_cluster(head, 4, &|_| false).unwrap();
        assert_eq!(cluster.len(), 4);
        // The list is chained, so BFS from head gives consecutive oids.
        let oids: Vec<u64> = cluster.iter().map(|w| w.oid.0).collect();
        assert_eq!(oids, vec![head.0, head.0 + 1, head.0 + 2, head.0 + 3]);
    }

    #[test]
    fn fetch_cluster_skips_already_replicated() {
        let mut s = server();
        let head = s.build_list("Node", 10, 4).unwrap();
        let have: std::collections::HashSet<u64> = (1..=4).collect();
        let cluster = s
            .fetch_cluster(Oid(5), 4, &|oid| have.contains(&oid.0))
            .unwrap();
        let oids: Vec<u64> = cluster.iter().map(|w| w.oid.0).collect();
        assert_eq!(oids, vec![5, 6, 7, 8]);
        let _ = head;
    }

    #[test]
    fn fetch_cluster_stops_at_graph_edge() {
        let mut s = server();
        let head = s.build_list("Node", 3, 4).unwrap();
        let cluster = s.fetch_cluster(head, 100, &|_| false).unwrap();
        assert_eq!(cluster.len(), 3);
    }

    #[test]
    fn wire_objects_carry_oids_not_handles() {
        let mut s = server();
        let head = s.build_list("Node", 2, 4).unwrap();
        let cluster = s.fetch_cluster(head, 2, &|_| false).unwrap();
        for w in &cluster {
            for f in &w.fields {
                assert!(!matches!(f, WireValue::Scalar(Value::Ref(_))));
            }
        }
        // head.next is a Ref wire value.
        assert!(matches!(cluster[0].fields[0], WireValue::Ref(_)));
    }

    #[test]
    fn served_counters_accumulate() {
        let mut s = server();
        let head = s.build_list("Node", 6, 4).unwrap();
        s.fetch_cluster(head, 3, &|_| false).unwrap();
        let (clusters, objects) = s.served();
        assert_eq!((clusters, objects), (1, 3));
    }

    #[test]
    fn dfs_strategy_on_a_list_matches_bfs() {
        let mut s = server();
        s.set_strategy(ClusterStrategy::Dfs);
        let head = s.build_list("Node", 6, 4).unwrap();
        let cluster = s.fetch_cluster(head, 3, &|_| false).unwrap();
        let oids: Vec<u64> = cluster.iter().map(|w| w.oid.0).collect();
        assert_eq!(oids, vec![head.0, head.0 + 1, head.0 + 2]);
    }
}
