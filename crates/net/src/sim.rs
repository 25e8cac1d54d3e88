//! The simulated world: a [`Room`] of in-memory blob stores under a
//! virtual clock, with a bounded event trace.

use crate::store::BlobStore;
use crate::{
    Clock, DeviceId, DeviceKind, DeviceProfile, FailurePlan, LinkSpec, MemStore, NetError, Result,
    Room, Route, SimDuration, SimTime, TraceEvent, TraceKind, Transport,
};
use bytes::Bytes;

/// How many of the newest trace events a [`SimNet`] is sure to keep. The
/// trace grows to twice this and then drops its oldest half, so a
/// long-running world holds a bounded window instead of every transfer.
pub const TRACE_RETAIN: usize = 4096;

/// The deterministic simulated wireless world.
///
/// All transfers advance the virtual [`Clock`] by the link's cost and append
/// a [`TraceEvent`]; nothing consults the wall clock or an RNG. Its verbs
/// are the [`Transport`] trait's; on a transfer error the clock still
/// advances — airtime was spent.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Default)]
pub struct SimNet {
    room: Room<MemStore>,
    clock: Clock,
    trace: Vec<TraceEvent>,
}

impl SimNet {
    /// An empty world at the epoch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a device offering `storage_quota` bytes of blob storage.
    pub fn add_device(
        &mut self,
        name: impl Into<String>,
        kind: DeviceKind,
        storage_quota: usize,
    ) -> DeviceId {
        let id = self
            .room
            .add(DeviceProfile::new(name, kind, storage_quota), |id| {
                MemStore::new(id, storage_quota)
            });
        self.push_trace(TraceKind::DeviceAdded { device: id });
        id
    }

    /// The newest trace events, oldest first: at least the last
    /// [`TRACE_RETAIN`] (everything, in a world with fewer) and never more
    /// than twice that — older events are discarded as the trace grows.
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// Drain the trace (examples print it incrementally).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.trace)
    }

    fn push_trace(&mut self, kind: TraceKind) {
        if self.trace.len() >= 2 * TRACE_RETAIN {
            self.trace.drain(..TRACE_RETAIN);
        }
        self.trace.push(TraceEvent {
            at: self.clock.now(),
            kind,
        });
    }

    fn push_relay_trace(
        &mut self,
        from: DeviceId,
        to: DeviceId,
        key: &str,
        bytes: usize,
        airtime: SimDuration,
    ) {
        self.push_trace(TraceKind::BlobRelayed {
            from,
            to,
            key: key.to_string(),
            bytes,
            airtime,
        });
    }
}

impl Transport for SimNet {
    fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Advance the clock without any transfer (application compute time in
    /// virtual-time experiments).
    fn advance(&mut self, d: SimDuration) -> SimTime {
        self.clock.advance(d)
    }

    fn profile(&self, device: DeviceId) -> Result<&DeviceProfile> {
        self.room.profile(device)
    }

    fn set_failure_plan(&mut self, device: DeviceId, plan: FailurePlan) -> Result<()> {
        self.room.set_failure_plan(device, plan)
    }

    fn connect(&mut self, a: DeviceId, b: DeviceId, link: LinkSpec) -> Result<()> {
        self.room.connect(a, b, link)?;
        self.push_trace(TraceKind::Linked { a, b });
        Ok(())
    }

    fn disconnect(&mut self, a: DeviceId, b: DeviceId) {
        if self.room.disconnect(a, b) {
            self.push_trace(TraceKind::Unlinked { a, b });
        }
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
        Ok(quota.saturating_sub(self.room.handle(device)?.used_bytes()))
    }

    /// Take a device out of radio range. Its blobs stay on it (and come back
    /// if it returns) but are unreachable meanwhile.
    fn depart(&mut self, device: DeviceId) -> Result<()> {
        self.room.depart(device)?;
        let blobs = self.room.handle(device)?.blob_count();
        self.push_trace(TraceKind::DeviceDeparted {
            device,
            blobs_lost_reach: blobs,
        });
        Ok(())
    }

    fn arrive(&mut self, device: DeviceId) -> Result<()> {
        self.room.arrive(device)?;
        self.push_trace(TraceKind::DeviceArrived { device });
        Ok(())
    }

    fn churn_seq(&self) -> u64 {
        self.room.churn_seq()
    }

    fn is_present(&self, device: DeviceId) -> bool {
        self.room.is_present(device)
    }

    /// Store `data` on `to`, advancing the clock by the link cost.
    fn send_blob(
        &mut self,
        from: DeviceId,
        to: DeviceId,
        key: &str,
        data: Bytes,
    ) -> Result<SimDuration> {
        let link = self.room.require_link(from, to)?;
        let bytes = data.len();
        let cost = link.transfer_time(bytes);
        self.clock.advance(cost);
        self.room.charge_sent(bytes);
        self.room.check_plan(to, "store")?;
        self.room.handle_mut(to)?.store(key, data)?;
        self.push_trace(TraceKind::BlobStored {
            from,
            to,
            key: key.to_string(),
            bytes,
            airtime: cost,
        });
        Ok(cost)
    }

    /// Fetch from `to`, advancing the clock by the return-transfer cost.
    fn fetch_blob(&mut self, from: DeviceId, to: DeviceId, key: &str) -> Result<Bytes> {
        let link = self.room.require_link(from, to)?;
        self.room.check_plan(to, "fetch")?;
        let data = self.room.handle_mut(to)?.fetch(key)?;
        let bytes = data.len();
        let cost = link.transfer_time(bytes);
        self.clock.advance(cost);
        self.room.charge_fetched(bytes);
        self.push_trace(TraceKind::BlobFetched {
            from,
            to,
            key: key.to_string(),
            bytes,
            airtime: cost,
        });
        Ok(data)
    }

    /// Instruct `to` to drop a blob. Costs one latency (a tiny control
    /// message), not bandwidth.
    fn drop_blob(&mut self, from: DeviceId, to: DeviceId, key: &str) -> Result<()> {
        let link = self.room.require_link(from, to)?;
        self.clock.advance(link.latency);
        self.room.check_plan(to, "drop")?;
        self.room.handle_mut(to)?.drop_blob(key)?;
        self.push_trace(TraceKind::BlobDropped {
            from,
            to,
            key: key.to_string(),
            airtime: link.latency,
        });
        Ok(())
    }

    /// Every hop pays its link's transfer time, and only the destination
    /// stores the bytes (relays forward, they do not keep copies).
    fn send_blob_routed(
        &mut self,
        from: DeviceId,
        to: DeviceId,
        key: &str,
        data: Bytes,
    ) -> Result<(Route, SimDuration)> {
        let (route, hops) = self.room.route_hops(from, to)?;
        let (&(last, _, _), relayed) = hops
            .split_last()
            .ok_or(NetError::NotConnected { from, to })?;
        let mut total = SimDuration::ZERO;
        for &(a, b, link) in relayed {
            let cost = link.transfer_time(data.len());
            self.clock.advance(cost);
            total += cost;
            self.push_relay_trace(a, b, key, data.len(), cost);
        }
        total += self.send_blob(last, to, key, data)?;
        Ok((route, total))
    }

    /// The last relay fetches from the storing device, then the bytes
    /// travel back across the relays, each hop paying its airtime.
    fn fetch_blob_routed(
        &mut self,
        from: DeviceId,
        to: DeviceId,
        key: &str,
    ) -> Result<(Route, Bytes)> {
        let (route, hops) = self.room.route_hops(from, to)?;
        let (&(last, _, _), relayed) = hops
            .split_last()
            .ok_or(NetError::NotConnected { from, to })?;
        let data = self.fetch_blob(last, to, key)?;
        for &(a, b, link) in relayed.iter().rev() {
            let cost = link.transfer_time(data.len());
            self.clock.advance(cost);
            self.push_relay_trace(b, a, key, data.len(), cost);
        }
        Ok((route, data))
    }

    /// The drop instruction pays one link latency per hop.
    fn drop_blob_routed(&mut self, from: DeviceId, to: DeviceId, key: &str) -> Result<()> {
        let (_, hops) = self.room.route_hops(from, to)?;
        let (&(last, _, _), relayed) = hops
            .split_last()
            .ok_or(NetError::NotConnected { from, to })?;
        for &(_, _, link) in relayed {
            self.clock.advance(link.latency);
        }
        self.drop_blob(last, to, key)
    }

    fn holds_blob(&self, to: DeviceId, key: &str) -> bool {
        self.room.handle(to).is_ok_and(|s| s.contains(key))
    }

    fn holders_of_key(&self, key: &str) -> Vec<DeviceId> {
        self.room
            .present()
            .filter(|(_, s)| s.contains(key))
            .map(|(id, _)| id)
            .collect()
    }

    fn blob_keys(&self, device: DeviceId) -> Vec<String> {
        let mut keys: Vec<String> = self
            .room
            .handle(device)
            .map(|s| s.keys().map(str::to_string).collect())
            .unwrap_or_default();
        keys.sort();
        keys
    }

    fn blob_data(&self, device: DeviceId, key: &str) -> Option<Bytes> {
        self.room.handle(device).ok()?.peek(key)
    }

    fn stored_bytes(&self, device: DeviceId) -> Result<usize> {
        Ok(self.room.handle(device)?.used_bytes())
    }

    fn device_ids(&self) -> Vec<DeviceId> {
        self.room.device_ids()
    }

    fn traffic(&self) -> (u64, u64) {
        self.room.traffic()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may panic on impossible states
mod tests {
    use super::*;

    fn world() -> (SimNet, DeviceId, DeviceId) {
        let mut net = SimNet::new();
        let pda = net.add_device("pda", DeviceKind::Pda, 0);
        let laptop = net.add_device("laptop", DeviceKind::Laptop, 1000);
        net.connect(pda, laptop, LinkSpec::bluetooth()).unwrap();
        (net, pda, laptop)
    }

    #[test]
    fn send_fetch_drop_advances_clock() {
        let (mut net, pda, laptop) = world();
        let t0 = net.now();
        net.send_blob(pda, laptop, "k", Bytes::from("x".repeat(100)))
            .unwrap();
        let t1 = net.now();
        assert!(t1 > t0);
        assert!(net.holds_blob(laptop, "k"));
        let data = net.fetch_blob(pda, laptop, "k").unwrap();
        assert_eq!(data.len(), 100);
        assert!(net.now() > t1);
        net.drop_blob(pda, laptop, "k").unwrap();
        assert!(!net.holds_blob(laptop, "k"));
    }

    #[test]
    fn traffic_counters_accumulate() {
        let (mut net, pda, laptop) = world();
        net.send_blob(pda, laptop, "k", Bytes::from("x".repeat(100)))
            .unwrap();
        net.fetch_blob(pda, laptop, "k").unwrap();
        assert_eq!(net.traffic(), (100, 100));
    }

    #[test]
    fn unlinked_devices_cannot_exchange() {
        let mut net = SimNet::new();
        let a = net.add_device("a", DeviceKind::Pda, 0);
        let b = net.add_device("b", DeviceKind::Laptop, 100);
        let err = net.send_blob(a, b, "k", "x".into()).unwrap_err();
        assert!(matches!(err, NetError::NotConnected { .. }));
    }

    #[test]
    fn departed_device_is_unreachable_until_arrival() {
        let (mut net, pda, laptop) = world();
        net.send_blob(pda, laptop, "k", "data".into()).unwrap();
        net.depart(laptop).unwrap();
        assert!(matches!(
            net.fetch_blob(pda, laptop, "k"),
            Err(NetError::Departed { .. })
        ));
        assert!(net.nearby(pda).is_empty());
        net.arrive(laptop).unwrap();
        assert_eq!(&net.fetch_blob(pda, laptop, "k").unwrap()[..], b"data");
    }

    #[test]
    fn nearby_lists_linked_present_devices_sorted() {
        let mut net = SimNet::new();
        let pda = net.add_device("pda", DeviceKind::Pda, 0);
        let a = net.add_device("a", DeviceKind::Laptop, 10);
        let b = net.add_device("b", DeviceKind::Desktop, 10);
        let c = net.add_device("c", DeviceKind::Mote, 10);
        net.connect(pda, b, LinkSpec::wifi()).unwrap();
        net.connect(pda, a, LinkSpec::bluetooth()).unwrap();
        net.connect(a, c, LinkSpec::mote_radio()).unwrap(); // not pda's
        assert_eq!(net.nearby(pda), vec![a, b]);
    }

    #[test]
    fn quota_and_free_storage_are_visible() {
        let (mut net, pda, laptop) = world();
        assert_eq!(net.free_storage(laptop).unwrap(), 1000);
        net.send_blob(pda, laptop, "k", Bytes::from("x".repeat(400)))
            .unwrap();
        // 1 key byte + 400 payload bytes occupied.
        assert_eq!(net.free_storage(laptop).unwrap(), 599);
        assert_eq!(net.stored_bytes(laptop).unwrap(), 401);
        assert_eq!(net.blob_data(laptop, "k").map(|d| d.len()), Some(400));
    }

    #[test]
    fn failed_send_still_costs_airtime() {
        let (mut net, pda, laptop) = world();
        let t0 = net.now();
        // Blob larger than the laptop quota.
        let err = net
            .send_blob(pda, laptop, "big", Bytes::from("x".repeat(2000)))
            .unwrap_err();
        assert!(matches!(err, NetError::QuotaExceeded { .. }));
        assert!(
            net.now() > t0,
            "airtime was spent even though storing failed"
        );
    }

    #[test]
    fn injected_failure_fires_on_exact_operation() {
        let (mut net, pda, laptop) = world();
        net.set_failure_plan(laptop, FailurePlan::fail_once_at(1))
            .unwrap();
        net.send_blob(pda, laptop, "a", "1".into()).unwrap(); // op 0
        let err = net.fetch_blob(pda, laptop, "a").unwrap_err(); // op 1 fails
        assert!(matches!(err, NetError::InjectedFailure { op: "fetch", .. }));
        assert_eq!(&net.fetch_blob(pda, laptop, "a").unwrap()[..], b"1"); // op 2 succeeds
    }

    #[test]
    fn rate_plan_injects_through_the_store() {
        let (mut net, pda, laptop) = world();
        net.set_failure_plan(laptop, FailurePlan::fail_with_rate(11, 1.0))
            .unwrap();
        assert!(matches!(
            net.send_blob(pda, laptop, "k", "1".into()),
            Err(NetError::InjectedFailure { op: "store", .. })
        ));
    }

    #[test]
    fn trace_records_lifecycle() {
        let (mut net, pda, laptop) = world();
        net.send_blob(pda, laptop, "k", "abc".into()).unwrap();
        net.drop_blob(pda, laptop, "k").unwrap();
        let kinds: Vec<_> = net
            .trace()
            .iter()
            .map(|e| std::mem::discriminant(&e.kind))
            .collect();
        assert_eq!(kinds.len(), 5); // 2 adds, 1 link, 1 store, 1 drop
        assert!(net
            .trace()
            .iter()
            .any(|e| matches!(&e.kind, TraceKind::BlobStored { key, .. } if key == "k")));
        let drained = net.take_trace();
        assert_eq!(drained.len(), 5);
        assert!(net.trace().is_empty());
    }

    #[test]
    fn trace_keeps_a_bounded_window_of_the_newest_events() {
        let (mut net, pda, laptop) = world();
        let transfers = 3 * TRACE_RETAIN + 17;
        for i in 0..transfers {
            net.send_blob(pda, laptop, &format!("k{i}"), "abc".into())
                .unwrap();
            net.drop_blob(pda, laptop, &format!("k{i}")).unwrap();
            assert!(net.trace().len() <= 2 * TRACE_RETAIN);
        }
        let trace = net.trace();
        assert!(trace.len() >= TRACE_RETAIN);
        let last = format!("k{}", transfers - 1);
        assert!(matches!(
            &trace[trace.len() - 2].kind,
            TraceKind::BlobStored { key, .. } if *key == last
        ));
        assert!(matches!(
            &trace[trace.len() - 1].kind,
            TraceKind::BlobDropped { key, .. } if *key == last
        ));
    }

    #[test]
    fn churn_seq_counts_topology_changes_only() {
        let (mut net, pda, laptop) = world();
        let s0 = net.churn_seq();
        // Transfers are not churn.
        net.send_blob(pda, laptop, "k", "abc".into()).unwrap();
        net.fetch_blob(pda, laptop, "k").unwrap();
        assert_eq!(net.churn_seq(), s0);
        net.depart(laptop).unwrap();
        assert_eq!(net.churn_seq(), s0 + 1);
        net.arrive(laptop).unwrap();
        assert_eq!(net.churn_seq(), s0 + 2);
        net.disconnect(pda, laptop);
        assert_eq!(net.churn_seq(), s0 + 3);
        net.disconnect(pda, laptop); // already gone: no change
        assert_eq!(net.churn_seq(), s0 + 3);
        net.connect(pda, laptop, LinkSpec::bluetooth()).unwrap();
        assert_eq!(net.churn_seq(), s0 + 4);
    }

    #[test]
    fn holders_of_key_lists_present_holders_in_id_order() {
        let mut net = SimNet::new();
        let pda = net.add_device("pda", DeviceKind::Pda, 0);
        let a = net.add_device("a", DeviceKind::Laptop, 100);
        let b = net.add_device("b", DeviceKind::Desktop, 100);
        net.connect(pda, a, LinkSpec::bluetooth()).unwrap();
        net.connect(pda, b, LinkSpec::wifi()).unwrap();
        net.send_blob(pda, a, "k", "x".into()).unwrap();
        net.send_blob(pda, b, "k", "x".into()).unwrap();
        net.send_blob(pda, b, "other", "y".into()).unwrap();
        assert_eq!(net.holders_of_key("k"), vec![a, b]);
        // Departed holders are not offered.
        net.depart(a).unwrap();
        assert_eq!(net.holders_of_key("k"), vec![b]);
        assert!(net.holders_of_key("nope").is_empty());
    }

    #[test]
    fn unknown_device_is_reported() {
        let net = SimNet::new();
        assert!(matches!(
            net.profile(DeviceId(9)),
            Err(NetError::UnknownDevice { .. })
        ));
    }

    #[test]
    fn link_lookup_is_symmetric() {
        let (net, pda, laptop) = world();
        assert!(net.link(pda, laptop).is_some());
        assert!(net.link(laptop, pda).is_some());
    }

    #[test]
    fn disconnect_removes_reachability() {
        let (mut net, pda, laptop) = world();
        net.disconnect(laptop, pda);
        assert!(net.link(pda, laptop).is_none());
        assert!(matches!(
            net.send_blob(pda, laptop, "k", "x".into()),
            Err(NetError::NotConnected { .. })
        ));
    }
}
