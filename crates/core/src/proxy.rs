//! Swap-cluster-proxy accessors.
//!
//! A swap-cluster-proxy is a heap object of the middleware class
//! `__swap_proxy` with four fields: `target` (the mediated replica — or the
//! replacement-object once the target's cluster is swapped out), `oid` (the
//! target's identity, which survives swap-out), `source` (the swap-cluster
//! the reference comes *from*) and `assign` (the iteration-optimization
//! mark). These helpers keep all field-id plumbing in one place.

use crate::Result;
use obiwan_heap::{ObjRef, Object, ObjectKind, Oid, Value};
use obiwan_replication::Process;

/// Read the proxy's current target reference.
///
/// # Errors
///
/// Heap errors; [`crate::SwapError::Codec`] if the target field is null
/// (a proxy must always mediate something).
pub fn target_of(p: &Process, proxy: ObjRef) -> Result<ObjRef> {
    let mw = p.universe().middleware;
    p.heap()
        .field(proxy, mw.sp_target)?
        .expect_ref()
        .map_err(Into::into)
}

/// Read the proxy's target identity.
///
/// # Errors
///
/// Heap errors.
pub fn oid_of(p: &Process, proxy: ObjRef) -> Result<Oid> {
    let mw = p.universe().middleware;
    Ok(Oid(p.heap().field(proxy, mw.sp_oid)?.expect_int()? as u64))
}

/// Read the proxy's source swap-cluster.
///
/// # Errors
///
/// Heap errors.
pub fn source_of(p: &Process, proxy: ObjRef) -> Result<u32> {
    let mw = p.universe().middleware;
    Ok(p.heap().field(proxy, mw.sp_source)?.expect_int()? as u32)
}

/// Read the assign (iteration-optimization) mark.
///
/// # Errors
///
/// Heap errors.
pub fn assign_mark_of(p: &Process, proxy: ObjRef) -> Result<bool> {
    let mw = p.universe().middleware;
    match p.heap().field(proxy, mw.sp_assign)? {
        Value::Bool(b) => Ok(*b),
        Value::Null => Ok(false),
        other => Err(obiwan_heap::HeapError::TypeMismatch {
            expected: "bool",
            found: other.kind_name(),
        }
        .into()),
    }
}

/// Write the assign mark.
///
/// # Errors
///
/// Heap errors.
pub fn set_assign_mark(p: &mut Process, proxy: ObjRef, mark: bool) -> Result<()> {
    let mw = p.universe().middleware;
    p.heap_mut()
        .set_field(proxy, mw.sp_assign, Value::Bool(mark))?;
    Ok(())
}

/// Point the proxy at a (new) target with the given identity. Used when
/// swap-out patches inbound proxies to the replacement-object, when reload
/// patches them back, and by the assign optimization's self-patching.
///
/// # Errors
///
/// Heap errors.
pub fn retarget(p: &mut Process, proxy: ObjRef, target: ObjRef, oid: Oid) -> Result<()> {
    let mw = p.universe().middleware;
    // Payload-free slot writes: this is the iteration optimization's hot
    // path (one retarget per loop step in Test B2).
    let heap = p.heap_mut();
    heap.set_any_field(proxy, mw.sp_target.index(), Value::Ref(target))?;
    heap.set_any_field(proxy, mw.sp_oid.index(), Value::Int(oid.0 as i64))?;
    // Keep the header identity in sync: write-back
    // (`Process::commit_replica`) reads a referenced object's identity from
    // its header, which looks through this proxy to its target.
    heap.header_mut(proxy)?.oid = oid;
    Ok(())
}

/// Allocate a swap-cluster-proxy mediating `target` (identity `oid`) for
/// references held by `source_sc`: built whole, then adopted in one step.
///
/// # Errors
///
/// Heap errors (notably out-of-memory).
pub fn create(p: &mut Process, source_sc: u32, target: ObjRef, oid: Oid) -> Result<ObjRef> {
    let mw = p.universe().middleware;
    let layout = p.heap().classes().class(mw.swap_proxy)?.field_count();
    let mut proxy = Object::with_field_count(mw.swap_proxy, ObjectKind::SwapProxy, layout);
    proxy.set_raw_field(mw.sp_target.index(), Value::Ref(target));
    proxy.set_raw_field(mw.sp_oid.index(), Value::Int(oid.0 as i64));
    proxy.set_raw_field(mw.sp_source.index(), Value::Int(source_sc as i64));
    proxy.set_raw_field(mw.sp_assign.index(), Value::Bool(false));
    let h = proxy.header_mut();
    h.oid = oid;
    h.swap_cluster = source_sc;
    Ok(p.heap_mut().adopt(proxy)?)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may panic on impossible states
mod tests {
    use super::*;
    use obiwan_replication::{standard_classes, ReplConfig, Server};

    fn process_with_node() -> (Process, ObjRef) {
        let u = standard_classes();
        let mut server = Server::new(u.clone());
        let head = server.build_list("Node", 1, 8).unwrap();
        let mut p = Process::new(u, server.into_shared(), 1 << 20, ReplConfig::default());
        let root = p.replicate_root(head).unwrap();
        (p, root)
    }

    #[test]
    fn create_and_read_back_all_fields() {
        let (mut p, node) = process_with_node();
        let oid = p.heap().get(node).unwrap().header().oid;
        let proxy = create(&mut p, 3, node, oid).unwrap();
        assert_eq!(p.heap().get(proxy).unwrap().kind(), ObjectKind::SwapProxy);
        assert_eq!(target_of(&p, proxy).unwrap(), node);
        assert_eq!(oid_of(&p, proxy).unwrap(), oid);
        assert_eq!(source_of(&p, proxy).unwrap(), 3);
        assert!(!assign_mark_of(&p, proxy).unwrap());
        assert_eq!(p.heap().get(proxy).unwrap().header().oid, oid);
    }

    #[test]
    fn retarget_updates_target_oid_and_header() {
        let (mut p, node) = process_with_node();
        let oid = p.heap().get(node).unwrap().header().oid;
        let proxy = create(&mut p, 1, node, oid).unwrap();
        let node_class = p.universe().registry.class_id("Node").unwrap();
        let other = p.heap_mut().alloc(node_class, ObjectKind::App).unwrap();
        retarget(&mut p, proxy, other, Oid(42)).unwrap();
        assert_eq!(target_of(&p, proxy).unwrap(), other);
        assert_eq!(oid_of(&p, proxy).unwrap(), Oid(42));
        assert_eq!(p.heap().get(proxy).unwrap().header().oid, Oid(42));
    }

    #[test]
    fn assign_mark_roundtrips() {
        let (mut p, node) = process_with_node();
        let oid = p.heap().get(node).unwrap().header().oid;
        let proxy = create(&mut p, 0, node, oid).unwrap();
        set_assign_mark(&mut p, proxy, true).unwrap();
        assert!(assign_mark_of(&p, proxy).unwrap());
        set_assign_mark(&mut p, proxy, false).unwrap();
        assert!(!assign_mark_of(&p, proxy).unwrap());
    }
}
