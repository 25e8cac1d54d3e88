//! [`ActorNet`]: a live world of devices implementing
//! [`obiwan_net::Transport`].
//!
//! The control plane — profiles, links, presence, routing, failure plans,
//! traffic and churn — is the shared [`Room`], the same one the
//! simulation runs on, serialized by the `Arc<Mutex<NetFabric>>` the core
//! already locks. The *data plane* — every blob byte — is each device's
//! own store (local memory or a remote `obiwan-blobd` process), called on
//! the caller's thread: every verb blocks for its reply under that lock
//! anyway, so a thread per device would add two hand-offs per call and
//! no concurrency.
//!
//! What is *not* preserved: determinism. The clock is the sanctioned
//! [`obiwan_net::clock::real`] seam, replies race real sockets, and
//! traces are not replayable — which is exactly why `TransportKind::Sim`
//! remains the default everywhere.

use obiwan_blobd::RemoteStore;
use obiwan_net::clock::RealClock;
use obiwan_net::{
    BlobStore, Bytes, DeviceId, DeviceKind, DeviceProfile, FailurePlan, LinkSpec, MemStore, Result,
    Room, Route, SimDuration, SimTime, Transport,
};
use std::collections::BTreeSet;
use std::net::SocketAddr;

/// Where a device's blobs live.
enum Store {
    /// In this process.
    Mem(MemStore),
    /// In an `obiwan-blobd` daemon.
    Remote(RemoteStore),
}

impl Store {
    fn get(&self) -> &dyn BlobStore {
        match self {
            Store::Mem(s) => s,
            Store::Remote(s) => s,
        }
    }

    fn get_mut(&mut self) -> &mut dyn BlobStore {
        match self {
            Store::Mem(s) => s,
            Store::Remote(s) => s,
        }
    }

    /// The blob under `key`, read without the transfer verbs' semantics.
    fn peek(&self, key: &str) -> Option<Bytes> {
        match self {
            Store::Mem(s) => s.peek(key),
            Store::Remote(s) => s.fetch_blob(key).ok(),
        }
    }
}

/// One device's data plane: its store, plus the keys it holds.
struct Device {
    store: Store,
    /// `BlobStore` cannot enumerate keys, so the device mirrors them,
    /// updated only by verbs the store accepted: exact for a local store,
    /// and for a remote one as long as no other client drops from its
    /// daemon.
    keys: BTreeSet<String>,
}

impl Device {
    fn new(store: Store) -> Device {
        Device {
            store,
            keys: BTreeSet::new(),
        }
    }
}

/// A live transport world: each device's store answers on the caller's
/// thread, one verb after another.
pub struct ActorNet {
    room: Room<Device>,
    clock: RealClock,
}

impl ActorNet {
    /// An empty live world.
    pub fn new() -> ActorNet {
        ActorNet {
            room: Room::new(),
            clock: obiwan_net::clock::real(),
        }
    }

    /// Add a device whose blobs live in local memory (a [`MemStore`] with
    /// `quota`).
    pub fn add_device(
        &mut self,
        name: impl Into<String>,
        kind: DeviceKind,
        quota: usize,
    ) -> DeviceId {
        self.room.add(DeviceProfile::new(name, kind, quota), |id| {
            Device::new(Store::Mem(MemStore::new(id, quota)))
        })
    }

    /// Add a device whose blobs live in a remote `obiwan-blobd` process at
    /// `addr`. `quota` must match the daemon's configured quota — the
    /// profile advertises it for placement ranking, while enforcement
    /// happens in the daemon itself.
    pub fn add_remote_device(
        &mut self,
        name: impl Into<String>,
        kind: DeviceKind,
        quota: usize,
        addr: SocketAddr,
    ) -> DeviceId {
        self.room.add(DeviceProfile::new(name, kind, quota), |id| {
            Device::new(Store::Remote(RemoteStore::connect(id, addr)))
        })
    }

    /// Store a blob on `to`. Airtime is charged first, as the simulation
    /// charges it: spent whether or not the store accepts.
    fn store(&mut self, to: DeviceId, key: &str, data: Bytes) -> Result<()> {
        self.room.charge_sent(data.len());
        self.room.check_plan(to, "store")?;
        let device = self.room.handle_mut(to)?;
        device.store.get_mut().store(key, data)?;
        device.keys.insert(key.to_owned());
        Ok(())
    }

    fn fetch(&mut self, to: DeviceId, key: &str) -> Result<Bytes> {
        self.room.check_plan(to, "fetch")?;
        let data = self.room.handle_mut(to)?.store.get_mut().fetch(key)?;
        self.room.charge_fetched(data.len());
        Ok(data)
    }

    fn drop_key(&mut self, to: DeviceId, key: &str) -> Result<()> {
        self.room.check_plan(to, "drop")?;
        let device = self.room.handle_mut(to)?;
        device.store.get_mut().drop_blob(key)?;
        device.keys.remove(key);
        Ok(())
    }

    fn used(&self, device: DeviceId) -> Result<usize> {
        self.room.handle(device)?.store.get().used_bytes()
    }
}

impl Default for ActorNet {
    fn default() -> Self {
        ActorNet::new()
    }
}

impl std::fmt::Debug for ActorNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActorNet")
            .field("devices", &self.room.device_ids().len())
            .field("churn", &self.room.churn_seq())
            .finish_non_exhaustive()
    }
}

impl Transport for ActorNet {
    fn now(&self) -> SimTime {
        self.clock.now()
    }

    fn advance(&mut self, _d: SimDuration) -> SimTime {
        // Real time cannot be scripted forward; reads are the clock.
        self.clock.now()
    }

    fn profile(&self, device: DeviceId) -> Result<&DeviceProfile> {
        self.room.profile(device)
    }

    fn set_failure_plan(&mut self, device: DeviceId, plan: FailurePlan) -> Result<()> {
        self.room.set_failure_plan(device, plan)
    }

    fn connect(&mut self, a: DeviceId, b: DeviceId, link: LinkSpec) -> Result<()> {
        self.room.connect(a, b, link)
    }

    fn disconnect(&mut self, a: DeviceId, b: DeviceId) {
        self.room.disconnect(a, b);
    }

    fn link(&self, a: DeviceId, b: DeviceId) -> Option<LinkSpec> {
        self.room.link(a, b)
    }

    fn nearby(&self, of: DeviceId) -> Vec<DeviceId> {
        self.room.nearby(of)
    }

    fn reachable(&self, of: DeviceId) -> Vec<(DeviceId, usize)> {
        self.room.reachable(of)
    }

    fn route(&self, from: DeviceId, to: DeviceId) -> Option<Route> {
        self.room.route(from, to)
    }

    fn free_storage(&self, device: DeviceId) -> Result<usize> {
        let quota = self.room.profile(device)?.storage_quota;
        Ok(quota.saturating_sub(self.used(device)?))
    }

    fn depart(&mut self, device: DeviceId) -> Result<()> {
        self.room.depart(device)
    }

    fn arrive(&mut self, device: DeviceId) -> Result<()> {
        self.room.arrive(device)
    }

    fn churn_seq(&self) -> u64 {
        self.room.churn_seq()
    }

    fn is_present(&self, device: DeviceId) -> bool {
        self.room.is_present(device)
    }

    fn send_blob(
        &mut self,
        from: DeviceId,
        to: DeviceId,
        key: &str,
        data: Bytes,
    ) -> Result<SimDuration> {
        let cost = self.room.require_link(from, to)?.transfer_time(data.len());
        self.store(to, key, data)?;
        Ok(cost)
    }

    fn fetch_blob(&mut self, from: DeviceId, to: DeviceId, key: &str) -> Result<Bytes> {
        self.room.require_link(from, to)?;
        self.fetch(to, key)
    }

    fn drop_blob(&mut self, from: DeviceId, to: DeviceId, key: &str) -> Result<()> {
        self.room.require_link(from, to)?;
        self.drop_key(to, key)
    }

    fn send_blob_routed(
        &mut self,
        from: DeviceId,
        to: DeviceId,
        key: &str,
        data: Bytes,
    ) -> Result<(Route, SimDuration)> {
        let (route, hops) = self.room.route_hops(from, to)?;
        let mut cost = SimDuration::ZERO;
        for (_, _, link) in hops {
            cost += link.transfer_time(data.len());
        }
        self.store(to, key, data)?;
        Ok((route, cost))
    }

    fn fetch_blob_routed(
        &mut self,
        from: DeviceId,
        to: DeviceId,
        key: &str,
    ) -> Result<(Route, Bytes)> {
        let (route, _) = self.room.route_hops(from, to)?;
        let data = self.fetch(to, key)?;
        Ok((route, data))
    }

    fn drop_blob_routed(&mut self, from: DeviceId, to: DeviceId, key: &str) -> Result<()> {
        self.room.route_hops(from, to)?;
        self.drop_key(to, key)
    }

    fn holds_blob(&self, to: DeviceId, key: &str) -> bool {
        self.room
            .handle(to)
            .is_ok_and(|device| device.store.get().contains(key))
    }

    fn holders_of_key(&self, key: &str) -> Vec<DeviceId> {
        self.room
            .present()
            .filter(|(_, device)| device.store.get().contains(key))
            .map(|(id, _)| id)
            .collect()
    }

    fn blob_keys(&self, device: DeviceId) -> Vec<String> {
        self.room
            .handle(device)
            .map(|device| device.keys.iter().cloned().collect())
            .unwrap_or_default()
    }

    fn blob_data(&self, device: DeviceId, key: &str) -> Option<Bytes> {
        self.room.handle(device).ok()?.store.peek(key)
    }

    fn stored_bytes(&self, device: DeviceId) -> Result<usize> {
        self.used(device)
    }

    fn device_ids(&self) -> Vec<DeviceId> {
        self.room.device_ids()
    }

    fn traffic(&self) -> (u64, u64) {
        self.room.traffic()
    }
}
