//! [`ActorNet`]: a live world of device actors implementing
//! [`obiwan_net::Transport`].
//!
//! The control plane — profiles, links, presence, routing, failure plans,
//! traffic and churn — is the shared [`Room`], the same one the
//! simulation runs on, serialized by the `Arc<Mutex<NetFabric>>` the core
//! already locks. The *data plane* — every blob byte — flows through
//! per-device actor inboxes, each actor owning its store (local memory or
//! a remote `obiwan-blobd` process).
//!
//! What is *not* preserved: determinism. The clock is the sanctioned
//! [`obiwan_net::clock::real`] seam, replies race real threads and real
//! sockets, and traces are not replayable — which is exactly why
//! `TransportKind::Sim` remains the default everywhere.

use crate::actor::{Actor, Op, Reply};
use obiwan_blobd::RemoteStore;
use obiwan_net::clock::RealClock;
use obiwan_net::{
    Bytes, DeviceId, DeviceKind, DeviceProfile, FailurePlan, LinkSpec, MemStore, NetError, Result,
    Room, Route, SimDuration, SimTime, Transport,
};
use std::net::SocketAddr;
use std::time::Duration;

/// How long a blob verb waits for an actor's reply before declaring the
/// device departed. Local actors answer in microseconds; remote ones are
/// bounded by the blobd client's own connect/read timeouts and retry
/// budget, which this comfortably exceeds.
const ACTOR_TIMEOUT: Duration = Duration::from_secs(10);

/// A live transport world: one actor per device, mailbox-ordered delivery.
pub struct ActorNet {
    room: Room<Actor>,
    clock: RealClock,
}

fn mismatch(device: DeviceId, op: &str) -> NetError {
    NetError::Protocol {
        device,
        detail: format!("actor returned a mismatched reply for {op}"),
    }
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
    /// `quota`), hosted by its own actor thread.
    pub fn add_device(
        &mut self,
        name: impl Into<String>,
        kind: DeviceKind,
        quota: usize,
    ) -> DeviceId {
        self.room.add(DeviceProfile::new(name, kind, quota), |id| {
            Actor::spawn(Box::new(MemStore::new(id, quota)))
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
            Actor::spawn(Box::new(RemoteStore::connect(id, addr)))
        })
    }

    fn call(&self, device: DeviceId, op: Op) -> Result<Reply> {
        self.room.handle(device)?.call(device, op, ACTOR_TIMEOUT)
    }

    /// Ship a store to `to`'s actor. Airtime is charged first, as the
    /// simulation charges it: spent whether or not the store accepts.
    fn store(&mut self, to: DeviceId, key: &str, data: Bytes) -> Result<()> {
        self.room.charge_sent(data.len());
        self.room.check_plan(to, "store")?;
        let key = key.to_owned();
        self.call(to, Op::Store { key, data }).map(drop)
    }

    fn fetch(&mut self, to: DeviceId, key: &str) -> Result<Bytes> {
        self.room.check_plan(to, "fetch")?;
        let key = key.to_owned();
        let Reply::Blob(data) = self.call(to, Op::Fetch { key })? else {
            return Err(mismatch(to, "Fetch"));
        };
        self.room.charge_fetched(data.len());
        Ok(data)
    }

    fn drop_key(&mut self, to: DeviceId, key: &str) -> Result<()> {
        self.room.check_plan(to, "drop")?;
        let key = key.to_owned();
        self.call(to, Op::Drop { key }).map(drop)
    }

    fn used(&self, device: DeviceId) -> Result<usize> {
        match self.call(device, Op::Used)? {
            Reply::Size(used) => Ok(used),
            _ => Err(mismatch(device, "Used")),
        }
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
        let key = key.to_owned();
        matches!(self.call(to, Op::Contains { key }), Ok(Reply::Flag(true)))
    }

    fn holders_of_key(&self, key: &str) -> Vec<DeviceId> {
        self.room
            .present()
            .map(|(id, _)| id)
            .filter(|&d| self.holds_blob(d, key))
            .collect()
    }

    fn blob_keys(&self, device: DeviceId) -> Vec<String> {
        match self.call(device, Op::Keys) {
            Ok(Reply::Keys(keys)) => keys,
            _ => Vec::new(),
        }
    }

    fn blob_data(&self, device: DeviceId, key: &str) -> Option<Bytes> {
        let key = key.to_owned();
        match self.call(device, Op::Data { key }) {
            Ok(Reply::MaybeBlob(data)) => data,
            _ => None,
        }
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
