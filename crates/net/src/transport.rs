//! The transport seam: one call surface, two worlds.
//!
//! PRs 0–7 moved every byte through the in-process [`SimNet`]. This module
//! carves that call surface into an object-safe [`Transport`] trait and a
//! [`NetFabric`] dispatcher so the swapping core can run unchanged over
//! either the deterministic simulation (still the default, and the only
//! backend the golden traces accept) or a live backend such as the
//! `obiwan-netd` actor runtime fronting real `obiwan-blobd` processes.
//!
//! Design rules:
//!
//! - [`NetFabric`] exposes the *entire* `SimNet` public surface as inherent
//!   methods with identical signatures, so the dozens of
//!   `net.lock().unwrap().nearby(..)`-style call sites across core, tests
//!   and examples compile untouched.
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

/// Which backend a world's [`NetFabric`] dispatches over.
///
/// Carried by the core's `SwapConfig` so scenario builders can select a
/// backend declaratively; [`TransportKind::Sim`] is the default and the
/// only kind whose traces are byte-replayable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// The deterministic in-process simulation.
    #[default]
    Sim,
    /// A live backend: the actor runtime shipping framed blobs to
    /// `obiwan-blobd` daemons over TCP.
    Tcp,
}

/// The `SimNet` call surface the swapping core depends on, as an
/// object-safe trait.
///
/// Everything the manager, detach/reload paths, repair sweep and auditor
/// call through the shared net handle is here — blob verbs, routing,
/// churn and presence queries, storage accounting and the clock. A
/// backend implements this over whatever medium it likes; [`SimNet`]
/// implements it by delegation to its inherent methods.
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

    /// Install a failure-injection plan on a device's store.
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

    /// Present devices reachable from `of` with their hop counts,
    /// ascending (hops, id) order.
    fn reachable(&self, of: DeviceId) -> Vec<(DeviceId, usize)>;

    /// Shortest route from `from` to `to`, if one exists.
    fn route(&self, from: DeviceId, to: DeviceId) -> Option<Route>;

    /// Remaining storage quota on a device.
    ///
    /// # Errors
    ///
    /// [`crate::NetError::UnknownDevice`] / [`crate::NetError::Departed`].
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
    /// Reachability, quota and injected-failure errors; live backends add
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

    /// Every device (present or not) holding a blob under `key`,
    /// ascending id order.
    fn holders_of_key(&self, key: &str) -> Vec<DeviceId>;

    /// Keys of every blob a device holds, sorted.
    fn blob_keys(&self, device: DeviceId) -> Vec<String>;

    /// Raw bytes of the blob under `key` on `device`, if any.
    fn blob_data(&self, device: DeviceId, key: &str) -> Option<Bytes>;

    /// Bytes of quota a device's store currently charges.
    ///
    /// # Errors
    ///
    /// [`crate::NetError::UnknownDevice`] if `device` is not in this world.
    fn stored_bytes(&self, device: DeviceId) -> Result<usize>;

    /// Every device id in this world, ascending.
    fn device_ids(&self) -> Vec<DeviceId>;

    /// Cumulative (bytes_sent, bytes_fetched).
    fn traffic(&self) -> (u64, u64);
}

impl Transport for SimNet {
    fn now(&self) -> SimTime {
        SimNet::now(self)
    }
    fn advance(&mut self, d: SimDuration) -> SimTime {
        SimNet::advance(self, d)
    }
    fn profile(&self, device: DeviceId) -> Result<&DeviceProfile> {
        SimNet::profile(self, device)
    }
    fn set_failure_plan(&mut self, device: DeviceId, plan: FailurePlan) -> Result<()> {
        SimNet::set_failure_plan(self, device, plan)
    }
    fn connect(&mut self, a: DeviceId, b: DeviceId, link: LinkSpec) -> Result<()> {
        SimNet::connect(self, a, b, link)
    }
    fn disconnect(&mut self, a: DeviceId, b: DeviceId) {
        SimNet::disconnect(self, a, b);
    }
    fn link(&self, a: DeviceId, b: DeviceId) -> Option<LinkSpec> {
        SimNet::link(self, a, b)
    }
    fn nearby(&self, of: DeviceId) -> Vec<DeviceId> {
        SimNet::nearby(self, of)
    }
    fn reachable(&self, of: DeviceId) -> Vec<(DeviceId, usize)> {
        SimNet::reachable(self, of)
    }
    fn route(&self, from: DeviceId, to: DeviceId) -> Option<Route> {
        SimNet::route(self, from, to)
    }
    fn free_storage(&self, device: DeviceId) -> Result<usize> {
        SimNet::free_storage(self, device)
    }
    fn depart(&mut self, device: DeviceId) -> Result<()> {
        SimNet::depart(self, device)
    }
    fn arrive(&mut self, device: DeviceId) -> Result<()> {
        SimNet::arrive(self, device)
    }
    fn churn_seq(&self) -> u64 {
        SimNet::churn_seq(self)
    }
    fn is_present(&self, device: DeviceId) -> bool {
        SimNet::is_present(self, device)
    }
    fn send_blob(
        &mut self,
        from: DeviceId,
        to: DeviceId,
        key: &str,
        data: Bytes,
    ) -> Result<SimDuration> {
        SimNet::send_blob(self, from, to, key, data)
    }
    fn fetch_blob(&mut self, from: DeviceId, to: DeviceId, key: &str) -> Result<Bytes> {
        SimNet::fetch_blob(self, from, to, key)
    }
    fn drop_blob(&mut self, from: DeviceId, to: DeviceId, key: &str) -> Result<()> {
        SimNet::drop_blob(self, from, to, key)
    }
    fn send_blob_routed(
        &mut self,
        from: DeviceId,
        to: DeviceId,
        key: &str,
        data: Bytes,
    ) -> Result<(Route, SimDuration)> {
        SimNet::send_blob_routed(self, from, to, key, data)
    }
    fn fetch_blob_routed(
        &mut self,
        from: DeviceId,
        to: DeviceId,
        key: &str,
    ) -> Result<(Route, Bytes)> {
        SimNet::fetch_blob_routed(self, from, to, key)
    }
    fn drop_blob_routed(&mut self, from: DeviceId, to: DeviceId, key: &str) -> Result<()> {
        SimNet::drop_blob_routed(self, from, to, key)
    }
    fn holds_blob(&self, to: DeviceId, key: &str) -> bool {
        SimNet::holds_blob(self, to, key)
    }
    fn holders_of_key(&self, key: &str) -> Vec<DeviceId> {
        SimNet::holders_of_key(self, key)
    }
    fn blob_keys(&self, device: DeviceId) -> Vec<String> {
        SimNet::blob_keys(self, device)
    }
    fn blob_data(&self, device: DeviceId, key: &str) -> Option<Bytes> {
        SimNet::blob_data(self, device, key)
    }
    fn stored_bytes(&self, device: DeviceId) -> Result<usize> {
        SimNet::stored_bytes(self, device)
    }
    fn device_ids(&self) -> Vec<DeviceId> {
        SimNet::device_ids(self)
    }
    fn traffic(&self) -> (u64, u64) {
        SimNet::traffic(self)
    }
}

/// The world handle the core locks: either the deterministic simulation or
/// a boxed live backend.
///
/// Every `SimNet` public method is mirrored here with an identical
/// signature, so `Arc<Mutex<NetFabric>>` is a drop-in replacement for the
/// old `Arc<Mutex<SimNet>>` shared handle.
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

    /// Which backend this fabric dispatches over.
    pub fn kind(&self) -> TransportKind {
        match self {
            NetFabric::Sim(_) => TransportKind::Sim,
            NetFabric::Backend(_) => TransportKind::Tcp,
        }
    }

    /// The inner simulation, if this fabric is simulated.
    pub fn as_sim(&self) -> Option<&SimNet> {
        match self {
            NetFabric::Sim(net) => Some(net),
            NetFabric::Backend(_) => None,
        }
    }

    /// The inner simulation, mutably, if this fabric is simulated.
    pub fn as_sim_mut(&mut self) -> Option<&mut SimNet> {
        match self {
            NetFabric::Sim(net) => Some(net),
            NetFabric::Backend(_) => None,
        }
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

    /// Drain the network-level event trace (empty for live backends).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        match self {
            NetFabric::Sim(net) => net.take_trace(),
            NetFabric::Backend(_) => Vec::new(),
        }
    }

    /// The current instant. See [`Transport::now`].
    pub fn now(&self) -> SimTime {
        match self {
            NetFabric::Sim(net) => net.now(),
            NetFabric::Backend(t) => t.now(),
        }
    }

    /// Advance the clock. See [`Transport::advance`].
    pub fn advance(&mut self, d: SimDuration) -> SimTime {
        match self {
            NetFabric::Sim(net) => net.advance(d),
            NetFabric::Backend(t) => t.advance(d),
        }
    }

    /// A device's profile. See [`Transport::profile`].
    ///
    /// # Errors
    ///
    /// As [`Transport::profile`].
    pub fn profile(&self, device: DeviceId) -> Result<&DeviceProfile> {
        match self {
            NetFabric::Sim(net) => net.profile(device),
            NetFabric::Backend(t) => t.profile(device),
        }
    }

    /// Install a failure plan. See [`Transport::set_failure_plan`].
    ///
    /// # Errors
    ///
    /// As [`Transport::set_failure_plan`].
    pub fn set_failure_plan(&mut self, device: DeviceId, plan: FailurePlan) -> Result<()> {
        match self {
            NetFabric::Sim(net) => net.set_failure_plan(device, plan),
            NetFabric::Backend(t) => t.set_failure_plan(device, plan),
        }
    }

    /// Connect two devices. See [`Transport::connect`].
    ///
    /// # Errors
    ///
    /// As [`Transport::connect`].
    pub fn connect(&mut self, a: DeviceId, b: DeviceId, link: LinkSpec) -> Result<()> {
        match self {
            NetFabric::Sim(net) => net.connect(a, b, link),
            NetFabric::Backend(t) => t.connect(a, b, link),
        }
    }

    /// Tear down a link. See [`Transport::disconnect`].
    pub fn disconnect(&mut self, a: DeviceId, b: DeviceId) {
        match self {
            NetFabric::Sim(net) => net.disconnect(a, b),
            NetFabric::Backend(t) => t.disconnect(a, b),
        }
    }

    /// The link between two devices. See [`Transport::link`].
    pub fn link(&self, a: DeviceId, b: DeviceId) -> Option<LinkSpec> {
        match self {
            NetFabric::Sim(net) => net.link(a, b),
            NetFabric::Backend(t) => t.link(a, b),
        }
    }

    /// One-hop neighbours. See [`Transport::nearby`].
    pub fn nearby(&self, of: DeviceId) -> Vec<DeviceId> {
        match self {
            NetFabric::Sim(net) => net.nearby(of),
            NetFabric::Backend(t) => t.nearby(of),
        }
    }

    /// Reachable devices with hop counts. See [`Transport::reachable`].
    pub fn reachable(&self, of: DeviceId) -> Vec<(DeviceId, usize)> {
        match self {
            NetFabric::Sim(net) => net.reachable(of),
            NetFabric::Backend(t) => t.reachable(of),
        }
    }

    /// Shortest route. See [`Transport::route`].
    pub fn route(&self, from: DeviceId, to: DeviceId) -> Option<Route> {
        match self {
            NetFabric::Sim(net) => net.route(from, to),
            NetFabric::Backend(t) => t.route(from, to),
        }
    }

    /// Remaining quota. See [`Transport::free_storage`].
    ///
    /// # Errors
    ///
    /// As [`Transport::free_storage`].
    pub fn free_storage(&self, device: DeviceId) -> Result<usize> {
        match self {
            NetFabric::Sim(net) => net.free_storage(device),
            NetFabric::Backend(t) => t.free_storage(device),
        }
    }

    /// Mark a device departed. See [`Transport::depart`].
    ///
    /// # Errors
    ///
    /// As [`Transport::depart`].
    pub fn depart(&mut self, device: DeviceId) -> Result<()> {
        match self {
            NetFabric::Sim(net) => net.depart(device),
            NetFabric::Backend(t) => t.depart(device),
        }
    }

    /// Mark a device present. See [`Transport::arrive`].
    ///
    /// # Errors
    ///
    /// As [`Transport::arrive`].
    pub fn arrive(&mut self, device: DeviceId) -> Result<()> {
        match self {
            NetFabric::Sim(net) => net.arrive(device),
            NetFabric::Backend(t) => t.arrive(device),
        }
    }

    /// Churn counter. See [`Transport::churn_seq`].
    pub fn churn_seq(&self) -> u64 {
        match self {
            NetFabric::Sim(net) => net.churn_seq(),
            NetFabric::Backend(t) => t.churn_seq(),
        }
    }

    /// Presence query. See [`Transport::is_present`].
    pub fn is_present(&self, device: DeviceId) -> bool {
        match self {
            NetFabric::Sim(net) => net.is_present(device),
            NetFabric::Backend(t) => t.is_present(device),
        }
    }

    /// Ship a blob. See [`Transport::send_blob`].
    ///
    /// # Errors
    ///
    /// As [`Transport::send_blob`].
    pub fn send_blob(
        &mut self,
        from: DeviceId,
        to: DeviceId,
        key: &str,
        data: Bytes,
    ) -> Result<SimDuration> {
        match self {
            NetFabric::Sim(net) => net.send_blob(from, to, key, data),
            NetFabric::Backend(t) => t.send_blob(from, to, key, data),
        }
    }

    /// Fetch a blob. See [`Transport::fetch_blob`].
    ///
    /// # Errors
    ///
    /// As [`Transport::fetch_blob`].
    pub fn fetch_blob(&mut self, from: DeviceId, to: DeviceId, key: &str) -> Result<Bytes> {
        match self {
            NetFabric::Sim(net) => net.fetch_blob(from, to, key),
            NetFabric::Backend(t) => t.fetch_blob(from, to, key),
        }
    }

    /// Drop a blob. See [`Transport::drop_blob`].
    ///
    /// # Errors
    ///
    /// As [`Transport::drop_blob`].
    pub fn drop_blob(&mut self, from: DeviceId, to: DeviceId, key: &str) -> Result<()> {
        match self {
            NetFabric::Sim(net) => net.drop_blob(from, to, key),
            NetFabric::Backend(t) => t.drop_blob(from, to, key),
        }
    }

    /// Ship a blob along a route. See [`Transport::send_blob_routed`].
    ///
    /// # Errors
    ///
    /// As [`Transport::send_blob_routed`].
    pub fn send_blob_routed(
        &mut self,
        from: DeviceId,
        to: DeviceId,
        key: &str,
        data: Bytes,
    ) -> Result<(Route, SimDuration)> {
        match self {
            NetFabric::Sim(net) => net.send_blob_routed(from, to, key, data),
            NetFabric::Backend(t) => t.send_blob_routed(from, to, key, data),
        }
    }

    /// Fetch a blob along a route. See [`Transport::fetch_blob_routed`].
    ///
    /// # Errors
    ///
    /// As [`Transport::fetch_blob_routed`].
    pub fn fetch_blob_routed(
        &mut self,
        from: DeviceId,
        to: DeviceId,
        key: &str,
    ) -> Result<(Route, Bytes)> {
        match self {
            NetFabric::Sim(net) => net.fetch_blob_routed(from, to, key),
            NetFabric::Backend(t) => t.fetch_blob_routed(from, to, key),
        }
    }

    /// Drop a blob across a route. See [`Transport::drop_blob_routed`].
    ///
    /// # Errors
    ///
    /// As [`Transport::drop_blob_routed`].
    pub fn drop_blob_routed(&mut self, from: DeviceId, to: DeviceId, key: &str) -> Result<()> {
        match self {
            NetFabric::Sim(net) => net.drop_blob_routed(from, to, key),
            NetFabric::Backend(t) => t.drop_blob_routed(from, to, key),
        }
    }

    /// Blob presence. See [`Transport::holds_blob`].
    pub fn holds_blob(&self, to: DeviceId, key: &str) -> bool {
        match self {
            NetFabric::Sim(net) => net.holds_blob(to, key),
            NetFabric::Backend(t) => t.holds_blob(to, key),
        }
    }

    /// Holders of a key. See [`Transport::holders_of_key`].
    pub fn holders_of_key(&self, key: &str) -> Vec<DeviceId> {
        match self {
            NetFabric::Sim(net) => net.holders_of_key(key),
            NetFabric::Backend(t) => t.holders_of_key(key),
        }
    }

    /// A device's blob keys. See [`Transport::blob_keys`].
    pub fn blob_keys(&self, device: DeviceId) -> Vec<String> {
        match self {
            NetFabric::Sim(net) => net.blob_keys(device),
            NetFabric::Backend(t) => t.blob_keys(device),
        }
    }

    /// A blob's raw bytes. See [`Transport::blob_data`].
    pub fn blob_data(&self, device: DeviceId, key: &str) -> Option<Bytes> {
        match self {
            NetFabric::Sim(net) => net.blob_data(device, key),
            NetFabric::Backend(t) => t.blob_data(device, key),
        }
    }

    /// Charged store bytes. See [`Transport::stored_bytes`].
    ///
    /// # Errors
    ///
    /// As [`Transport::stored_bytes`].
    pub fn stored_bytes(&self, device: DeviceId) -> Result<usize> {
        match self {
            NetFabric::Sim(net) => net.stored_bytes(device),
            NetFabric::Backend(t) => t.stored_bytes(device),
        }
    }

    /// Every device id. See [`Transport::device_ids`].
    pub fn device_ids(&self) -> Vec<DeviceId> {
        match self {
            NetFabric::Sim(net) => net.device_ids(),
            NetFabric::Backend(t) => t.device_ids(),
        }
    }

    /// Traffic counters. See [`Transport::traffic`].
    pub fn traffic(&self) -> (u64, u64) {
        match self {
            NetFabric::Sim(net) => net.traffic(),
            NetFabric::Backend(t) => t.traffic(),
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
    use crate::DeviceKind;

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
        assert_eq!(fab.kind(), TransportKind::Sim);
        let data = Bytes::from_static(b"<swap/>");
        fab.send_blob(pda, laptop, "k1", data.clone()).unwrap();
        assert!(fab.holds_blob(laptop, "k1"));
        assert_eq!(fab.fetch_blob(pda, laptop, "k1").unwrap(), data);
        fab.drop_blob(pda, laptop, "k1").unwrap();
        assert!(!fab.holds_blob(laptop, "k1"));
        // The sim recorded a trace; a backend would return empty.
        assert!(!fab.trace().is_empty());
    }

    #[test]
    fn sim_accessors_expose_the_inner_world() {
        let (mut fab, pda, _) = tiny_world();
        assert!(fab.as_sim().is_some());
        assert!(fab.as_sim_mut().is_some());
        assert_eq!(fab.nearby(pda).len(), 1);
    }

    #[test]
    fn simnet_satisfies_the_transport_trait_object() {
        let mut net = SimNet::new();
        let pda = net.add_device("pda", DeviceKind::Pda, 0);
        let boxed: Box<dyn Transport + Send> = Box::new(net);
        let mut fab = NetFabric::backend(boxed);
        assert_eq!(fab.kind(), TransportKind::Tcp);
        assert!(fab.is_present(pda));
        assert!(fab.as_sim().is_none());
        // Backends report no replayable trace.
        assert!(fab.trace().is_empty());
        assert!(fab.take_trace().is_empty());
    }
}
