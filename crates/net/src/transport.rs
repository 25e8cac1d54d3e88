//! The transport seam: one call surface, two worlds.
//!
//! The object-safe [`Transport`] trait is the whole call surface the
//! swapping core uses, and [`NetFabric`] holds either the deterministic
//! [`SimNet`] (the default, and the only world the golden traces accept)
//! or a live backend such as the `obiwan-netd` fabric fronting real
//! `obiwan-blobd` processes.
//!
//! Design rules:
//!
//! - Every verb is defined once per world, in its `impl Transport`.
//!   [`NetFabric`] derefs to `dyn Transport`, so call sites such as
//!   `net.lock().unwrap().nearby(..)` reach either world without
//!   forwarding code.
//! - Both worlds keep their device and link tables on one shared
//!   [`crate::Room`]: presence, routing, error precedence and failure
//!   plans have a single implementation.
//! - World *construction* (`add_device`) and trace *extraction* stay
//!   simulation-only: backends build their device tables before being
//!   wrapped, and return an empty trace (real time is not replayable).
//! - Backends map partial failure onto the existing [`crate::NetError`]
//!   vocabulary: a dead or unreachable daemon surfaces as
//!   [`crate::NetError::Departed`], which the core's k-way failover already
//!   treats as "try the next holder"; a malformed frame surfaces as the
//!   hard [`crate::NetError::Protocol`].

use crate::{
    Bytes, DeviceId, DeviceProfile, FailurePlan, LinkSpec, Result, Route, SimDuration, SimNet,
    SimTime, TraceEvent,
};
use std::ops::{Deref, DerefMut};

/// Which backend a world's [`NetFabric`] dispatches over.
///
/// Scenario builders (the auditor's `--transport` flag) select a world
/// with it; [`TransportKind::Sim`] is the default and the only kind whose
/// traces are byte-replayable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// The deterministic in-process simulation.
    #[default]
    Sim,
    /// A live backend: the `obiwan-netd` fabric shipping framed blobs to
    /// `obiwan-blobd` daemons over TCP.
    Tcp,
}

/// The call surface the swapping core depends on, as an object-safe trait.
///
/// Everything the manager, detach/reload paths, repair sweep and auditor
/// call through the shared net handle is here — blob verbs, routing,
/// churn and presence queries, storage accounting and the clock. A
/// backend implements the blob verbs over whatever medium it likes and
/// answers the control queries from a shared [`crate::Room`].
pub trait Transport {
    /// The current instant on this transport's clock.
    fn now(&self) -> SimTime;

    /// Advance the clock by `d`, returning the new instant. Backends whose
    /// clock is real time may treat this as a no-op read.
    fn advance(&mut self, d: SimDuration) -> SimTime;

    /// A device's profile.
    ///
    /// # Errors
    ///
    /// [`crate::NetError::UnknownDevice`] if `device` is not in this world.
    fn profile(&self, device: DeviceId) -> Result<&DeviceProfile>;

    /// Install a failure-injection plan on a device. The plan indexes the
    /// device's store/fetch/drop operations counted since it joined the
    /// world; a planned failure fires after reachability and airtime are
    /// checked and charged, before the store applies the op.
    ///
    /// # Errors
    ///
    /// [`crate::NetError::UnknownDevice`] if `device` is not in this world.
    fn set_failure_plan(&mut self, device: DeviceId, plan: FailurePlan) -> Result<()>;

    /// Connect two devices with a link.
    ///
    /// # Errors
    ///
    /// [`crate::NetError::UnknownDevice`] if either endpoint is unknown.
    fn connect(&mut self, a: DeviceId, b: DeviceId, link: LinkSpec) -> Result<()>;

    /// Tear down the link between two devices (idempotent).
    fn disconnect(&mut self, a: DeviceId, b: DeviceId);

    /// The link between two devices, if both are present and connected.
    fn link(&self, a: DeviceId, b: DeviceId) -> Option<LinkSpec>;

    /// Present devices one hop from `of`, ascending id order.
    fn nearby(&self, of: DeviceId) -> Vec<DeviceId>;

    /// Present devices reachable from `of` with their hop counts, ring by
    /// ring in ascending hops. Each ring is in discovery order: the search
    /// is breadth-first and visits neighbours in ascending id order.
    fn reachable(&self, of: DeviceId) -> Vec<(DeviceId, usize)>;

    /// Fewest-hops route from `from` to `to` over present devices, if one
    /// exists. The search is the one [`Transport::reachable`] runs, so a
    /// tie goes to the path discovered first.
    fn route(&self, from: DeviceId, to: DeviceId) -> Option<Route>;

    /// Remaining storage quota on a device, departed or not. A live
    /// backend may answer with the store's figure as of its last reply
    /// to this client rather than asking the store again, so space
    /// another client took or freed shows at that client's next reply.
    ///
    /// # Errors
    ///
    /// [`crate::NetError::UnknownDevice`] if `device` is not in this world;
    /// live backends add the errors of a store that does not answer.
    fn free_storage(&self, device: DeviceId) -> Result<usize>;

    /// Mark a device as departed (its blobs survive for its return).
    ///
    /// # Errors
    ///
    /// [`crate::NetError::UnknownDevice`] if `device` is not in this world.
    fn depart(&mut self, device: DeviceId) -> Result<()>;

    /// Mark a departed device as present again.
    ///
    /// # Errors
    ///
    /// [`crate::NetError::UnknownDevice`] if `device` is not in this world.
    fn arrive(&mut self, device: DeviceId) -> Result<()>;

    /// Monotone counter bumped on every depart/arrive.
    fn churn_seq(&self) -> u64;

    /// Whether a device is currently present.
    fn is_present(&self, device: DeviceId) -> bool;

    /// Ship a blob from `from` to `to`, returning the transfer cost.
    ///
    /// # Errors
    ///
    /// Reachability, quota and injected-failure errors; airtime is charged
    /// before the store can refuse. Live backends add
    /// [`crate::NetError::Departed`] for dead peers and
    /// [`crate::NetError::Protocol`] for framing faults.
    fn send_blob(
        &mut self,
        from: DeviceId,
        to: DeviceId,
        key: &str,
        data: Bytes,
    ) -> Result<SimDuration>;

    /// Fetch the blob stored under `key` on `to`.
    ///
    /// # Errors
    ///
    /// As [`Transport::send_blob`], plus [`crate::NetError::UnknownBlob`].
    fn fetch_blob(&mut self, from: DeviceId, to: DeviceId, key: &str) -> Result<Bytes>;

    /// Drop the blob stored under `key` on `to`.
    ///
    /// # Errors
    ///
    /// As [`Transport::fetch_blob`].
    fn drop_blob(&mut self, from: DeviceId, to: DeviceId, key: &str) -> Result<()>;

    /// Ship a blob along a relay route.
    ///
    /// # Errors
    ///
    /// As [`Transport::send_blob`], plus
    /// [`crate::NetError::NotConnected`] when no route exists.
    fn send_blob_routed(
        &mut self,
        from: DeviceId,
        to: DeviceId,
        key: &str,
        data: Bytes,
    ) -> Result<(Route, SimDuration)>;

    /// Fetch a blob back along a relay route.
    ///
    /// # Errors
    ///
    /// As [`Transport::send_blob_routed`].
    fn fetch_blob_routed(
        &mut self,
        from: DeviceId,
        to: DeviceId,
        key: &str,
    ) -> Result<(Route, Bytes)>;

    /// Drop a blob across a relay route.
    ///
    /// # Errors
    ///
    /// As [`Transport::send_blob_routed`].
    fn drop_blob_routed(&mut self, from: DeviceId, to: DeviceId, key: &str) -> Result<()>;

    /// Whether `to` currently holds a blob under `key`.
    fn holds_blob(&self, to: DeviceId, key: &str) -> bool;

    /// Every present device holding a blob under `key`, ascending id
    /// order.
    fn holders_of_key(&self, key: &str) -> Vec<DeviceId>;

    /// Keys of every blob a device holds, sorted.
    fn blob_keys(&self, device: DeviceId) -> Vec<String>;

    /// Raw bytes of the blob under `key` on `device`, if any.
    fn blob_data(&self, device: DeviceId, key: &str) -> Option<Bytes>;

    /// Bytes of quota a device's store currently charges — on a live
    /// backend, as of the store's last reply (see
    /// [`Transport::free_storage`]).
    ///
    /// # Errors
    ///
    /// [`crate::NetError::UnknownDevice`] if `device` is not in this world;
    /// live backends add the errors of a store that does not answer.
    fn stored_bytes(&self, device: DeviceId) -> Result<usize>;

    /// Every device id in this world, ascending.
    fn device_ids(&self) -> Vec<DeviceId>;

    /// Cumulative (bytes_sent, bytes_fetched).
    fn traffic(&self) -> (u64, u64);
}

/// The world handle the core locks: either the deterministic simulation or
/// a boxed live backend.
///
/// It derefs to `dyn Transport`, so every verb of either world is reached
/// the same way — `net.lock()?.nearby(..)` — and `Arc<Mutex<NetFabric>>`
/// is the one shared handle the core holds.
pub enum NetFabric {
    /// The in-process simulation (default; replayable traces).
    Sim(SimNet),
    /// A live backend dispatched through the [`Transport`] trait.
    Backend(Box<dyn Transport + Send>),
}

impl NetFabric {
    /// Wrap a fully built simulation world.
    pub fn sim(net: SimNet) -> Self {
        NetFabric::Sim(net)
    }

    /// Wrap a live backend.
    pub fn backend(t: Box<dyn Transport + Send>) -> Self {
        NetFabric::Backend(t)
    }

    /// Add a device to the simulated world.
    ///
    /// World construction is simulation-only: live backends build their
    /// device tables before being wrapped in a fabric.
    ///
    /// # Panics
    ///
    /// Panics if this fabric wraps a live backend.
    pub fn add_device(
        &mut self,
        name: impl Into<String>,
        kind: crate::DeviceKind,
        storage_quota: usize,
    ) -> DeviceId {
        match self {
            NetFabric::Sim(net) => net.add_device(name, kind, storage_quota),
            NetFabric::Backend(_) => {
                panic!("add_device is simulation-only: build the backend world before wrapping")
            }
        }
    }

    /// The network-level event trace: the simulation's newest events (at
    /// least the last [`crate::TRACE_RETAIN`], see [`SimNet::trace`]).
    /// Live backends are not replayable and return an empty slice.
    pub fn trace(&self) -> &[TraceEvent] {
        match self {
            NetFabric::Sim(net) => net.trace(),
            NetFabric::Backend(_) => &[],
        }
    }
}

impl Deref for NetFabric {
    type Target = dyn Transport + Send;

    fn deref(&self) -> &Self::Target {
        match self {
            NetFabric::Sim(net) => net,
            NetFabric::Backend(t) => t.as_ref(),
        }
    }
}

impl DerefMut for NetFabric {
    fn deref_mut(&mut self) -> &mut Self::Target {
        match self {
            NetFabric::Sim(net) => net,
            NetFabric::Backend(t) => t.as_mut(),
        }
    }
}

impl Default for NetFabric {
    /// An empty simulated world.
    fn default() -> Self {
        NetFabric::Sim(SimNet::new())
    }
}

impl std::fmt::Debug for NetFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetFabric::Sim(net) => f.debug_tuple("NetFabric::Sim").field(net).finish(),
            NetFabric::Backend(_) => f.write_str("NetFabric::Backend(..)"),
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may panic on impossible states
mod tests {
    use super::*;
    use crate::{DeviceKind, LinkSpec};

    fn tiny_world() -> (NetFabric, DeviceId, DeviceId) {
        let mut net = SimNet::new();
        let pda = net.add_device("pda", DeviceKind::Pda, 0);
        let laptop = net.add_device("laptop", DeviceKind::Laptop, 1 << 20);
        net.connect(pda, laptop, LinkSpec::bluetooth()).unwrap();
        (NetFabric::sim(net), pda, laptop)
    }

    #[test]
    fn fabric_delegates_blob_verbs_to_sim() {
        let (mut fab, pda, laptop) = tiny_world();
        let data = Bytes::from_static(b"<swap/>");
        fab.send_blob(pda, laptop, "k1", data.clone()).unwrap();
        assert!(fab.holds_blob(laptop, "k1"));
        assert_eq!(fab.fetch_blob(pda, laptop, "k1").unwrap(), data);
        fab.drop_blob(pda, laptop, "k1").unwrap();
        assert!(!fab.holds_blob(laptop, "k1"));
        assert_eq!(fab.nearby(pda), vec![laptop]);
        // The sim recorded a trace; a backend would return empty.
        assert!(!fab.trace().is_empty());
    }

    #[test]
    fn simnet_satisfies_the_transport_trait_object() {
        let mut net = SimNet::new();
        let pda = net.add_device("pda", DeviceKind::Pda, 0);
        let boxed: Box<dyn Transport + Send> = Box::new(net);
        let fab = NetFabric::backend(boxed);
        assert!(fab.is_present(pda));
        // Backends report no replayable trace.
        assert!(fab.trace().is_empty());
    }
}
