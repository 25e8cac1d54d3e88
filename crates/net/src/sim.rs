//! The simulated world: devices, links, discovery, churn, blob transfers.

use crate::store::BlobStore;
use crate::{
    Clock, DeviceId, DeviceKind, DeviceProfile, FailurePlan, LinkSpec, MemStore, NetError, Result,
    SimDuration, SimTime, TraceEvent, TraceKind,
};
use bytes::Bytes;
use std::collections::HashMap;

/// How many of the newest trace events a [`SimNet`] is sure to keep. The
/// trace grows to twice this and then drops its oldest half, so a
/// long-running world holds a bounded window instead of every transfer.
pub const TRACE_RETAIN: usize = 4096;

#[derive(Debug)]
struct DeviceState {
    profile: DeviceProfile,
    store: MemStore,
    present: bool,
}

/// The deterministic simulated wireless world.
///
/// All transfers advance the virtual [`Clock`] by the link's cost and append
/// a [`TraceEvent`]; nothing consults the wall clock or an RNG.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Default)]
pub struct SimNet {
    clock: Clock,
    devices: Vec<DeviceState>,
    links: HashMap<(DeviceId, DeviceId), LinkSpec>,
    trace: Vec<TraceEvent>,
    bytes_sent: u64,
    bytes_fetched: u64,
    churn_seq: u64,
}

impl SimNet {
    /// An empty world at the epoch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Advance the clock without any transfer (application compute time in
    /// virtual-time experiments).
    pub fn advance(&mut self, d: SimDuration) -> SimTime {
        self.clock.advance(d)
    }

    /// Add a device offering `storage_quota` bytes of blob storage.
    pub fn add_device(
        &mut self,
        name: impl Into<String>,
        kind: DeviceKind,
        storage_quota: usize,
    ) -> DeviceId {
        let id = DeviceId(self.devices.len() as u32);
        self.devices.push(DeviceState {
            profile: DeviceProfile::new(name, kind, storage_quota),
            store: MemStore::new(id, storage_quota),
            present: true,
        });
        self.push_trace(TraceKind::DeviceAdded { device: id });
        id
    }

    /// A device's profile.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownDevice`].
    pub fn profile(&self, device: DeviceId) -> Result<&DeviceProfile> {
        self.state(device).map(|s| &s.profile)
    }

    /// Install a fault-injection plan on a device's store.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownDevice`].
    pub fn set_failure_plan(&mut self, device: DeviceId, plan: FailurePlan) -> Result<()> {
        self.state_mut(device)?.store.set_failure_plan(plan);
        Ok(())
    }

    /// Create a bidirectional link.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownDevice`].
    pub fn connect(&mut self, a: DeviceId, b: DeviceId, link: LinkSpec) -> Result<()> {
        self.state(a)?;
        self.state(b)?;
        self.links.insert(key(a, b), link);
        self.churn_seq += 1;
        self.push_trace(TraceKind::Linked { a, b });
        Ok(())
    }

    /// Remove the link between two devices (if any).
    pub fn disconnect(&mut self, a: DeviceId, b: DeviceId) {
        if self.links.remove(&key(a, b)).is_some() {
            self.churn_seq += 1;
            self.push_trace(TraceKind::Unlinked { a, b });
        }
    }

    /// The link between two present devices, if both are reachable.
    pub fn link(&self, a: DeviceId, b: DeviceId) -> Option<LinkSpec> {
        let present = |id: DeviceId| {
            self.devices
                .get(id.0 as usize)
                .map(|d| d.present)
                .unwrap_or(false)
        };
        if present(a) && present(b) {
            self.links.get(&key(a, b)).copied()
        } else {
            None
        }
    }

    /// Devices currently in range of `of` (linked and present), in id order.
    ///
    /// This is the middleware's *discovery* primitive: "swap-out a set of
    /// objects to nearby devices, if there are any".
    pub fn nearby(&self, of: DeviceId) -> Vec<DeviceId> {
        let mut out: Vec<DeviceId> = self
            .links
            .keys()
            .filter_map(|(a, b)| {
                if *a == of {
                    Some(*b)
                } else if *b == of {
                    Some(*a)
                } else {
                    None
                }
            })
            .filter(|id| self.link(of, *id).is_some())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Free storage remaining on a device.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownDevice`].
    pub fn free_storage(&self, device: DeviceId) -> Result<usize> {
        let s = self.state(device)?;
        Ok(s.profile.storage_quota.saturating_sub(s.store.used_bytes()))
    }

    /// Take a device out of radio range. Its blobs stay on it (and come back
    /// if it returns) but are unreachable meanwhile.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownDevice`].
    pub fn depart(&mut self, device: DeviceId) -> Result<()> {
        let blobs = {
            let s = self.state_mut(device)?;
            s.present = false;
            s.store.blob_count()
        };
        self.churn_seq += 1;
        self.push_trace(TraceKind::DeviceDeparted {
            device,
            blobs_lost_reach: blobs,
        });
        Ok(())
    }

    /// Bring a departed device back into range.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownDevice`].
    pub fn arrive(&mut self, device: DeviceId) -> Result<()> {
        self.state_mut(device)?.present = true;
        self.churn_seq += 1;
        self.push_trace(TraceKind::DeviceArrived { device });
        Ok(())
    }

    /// Monotonic counter bumped by every topology change — departures,
    /// arrivals, links made and broken. Churn observers (the swapping
    /// manager's holder-loss detector) poll it to skip full presence scans
    /// on quiet pumps: an unchanged sequence means nobody moved.
    pub fn churn_seq(&self) -> u64 {
        self.churn_seq
    }

    /// Whether the device is currently present.
    pub fn is_present(&self, device: DeviceId) -> bool {
        self.devices
            .get(device.0 as usize)
            .map(|d| d.present)
            .unwrap_or(false)
    }

    /// Send `data` from `from` to be stored on `to` under `key`, advancing
    /// the clock by the link cost. Returns the transfer duration.
    ///
    /// # Errors
    ///
    /// [`NetError::NotConnected`] / [`NetError::Departed`] for reachability,
    /// plus anything the receiving store raises (quota, duplicates, injected
    /// failures). On error the clock still advances — airtime was spent.
    pub fn send_blob(
        &mut self,
        from: DeviceId,
        to: DeviceId,
        key: &str,
        data: Bytes,
    ) -> Result<SimDuration> {
        let link = self.require_link(from, to)?;
        let bytes = data.len();
        let cost = link.transfer_time(bytes);
        self.clock.advance(cost);
        self.bytes_sent = self.bytes_sent.saturating_add(bytes as u64);
        self.state_mut(to)?.store.store(key, data)?;
        self.push_trace(TraceKind::BlobStored {
            from,
            to,
            key: key.to_string(),
            bytes,
            airtime: cost,
        });
        Ok(cost)
    }

    /// Fetch the blob stored under `key` on `to`, advancing the clock by the
    /// return-transfer cost.
    ///
    /// # Errors
    ///
    /// Reachability and store errors as for [`SimNet::send_blob`].
    pub fn fetch_blob(&mut self, from: DeviceId, to: DeviceId, key: &str) -> Result<Bytes> {
        let link = self.require_link(from, to)?;
        let data = self.state_mut(to)?.store.fetch(key)?;
        let bytes = data.len();
        let cost = link.transfer_time(bytes);
        self.clock.advance(cost);
        self.bytes_fetched = self.bytes_fetched.saturating_add(bytes as u64);
        self.push_trace(TraceKind::BlobFetched {
            from,
            to,
            key: key.to_string(),
            bytes,
            airtime: cost,
        });
        Ok(data)
    }

    /// Instruct `to` to drop the blob under `key`. Costs one latency (a tiny
    /// control message), not bandwidth.
    ///
    /// # Errors
    ///
    /// Reachability and store errors as for [`SimNet::send_blob`].
    pub fn drop_blob(&mut self, from: DeviceId, to: DeviceId, key: &str) -> Result<()> {
        let link = self.require_link(from, to)?;
        self.clock.advance(link.latency);
        self.state_mut(to)?.store.drop_blob(key)?;
        self.push_trace(TraceKind::BlobDropped {
            from,
            to,
            key: key.to_string(),
            airtime: link.latency,
        });
        Ok(())
    }

    /// Whether `to` currently holds a blob under `key` (control-plane query,
    /// free of charge).
    pub fn holds_blob(&self, to: DeviceId, key: &str) -> bool {
        self.devices
            .get(to.0 as usize)
            .map(|d| d.store.contains(key))
            .unwrap_or(false)
    }

    /// Ids of every device ever added to the world, departed ones included
    /// (control-plane query, free of charge; auditors enumerate stores with
    /// it).
    pub fn device_ids(&self) -> Vec<DeviceId> {
        (0..self.devices.len() as u32).map(DeviceId).collect()
    }

    /// Every *present* device currently storing a blob under `key`, in id
    /// order (control-plane query, free of charge). The repair sweep uses
    /// it to re-adopt a copy that walked back into the room instead of
    /// shipping a redundant one.
    pub fn holders_of_key(&self, key: &str) -> Vec<DeviceId> {
        self.devices
            .iter()
            .enumerate()
            .filter(|(_, d)| d.present && d.store.contains(key))
            .map(|(i, _)| DeviceId(i as u32))
            .collect()
    }

    /// Keys of every blob currently stored on a device (control-plane
    /// query, free of charge). Empty for unknown devices.
    pub fn blob_keys(&self, device: DeviceId) -> Vec<String> {
        self.devices
            .get(device.0 as usize)
            .map(|d| d.store.keys().map(str::to_string).collect())
            .unwrap_or_default()
    }

    /// The bytes stored under `key` on a device, if any (control-plane
    /// query, free of charge; the auditor inspects blob headers with it —
    /// no airtime, no store op counted).
    pub fn blob_data(&self, device: DeviceId, key: &str) -> Option<Bytes> {
        self.devices
            .get(device.0 as usize)
            .and_then(|d| d.store.peek(key))
    }

    /// Bytes stored on a device right now.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownDevice`].
    pub fn stored_bytes(&self, device: DeviceId) -> Result<usize> {
        Ok(self.state(device)?.store.used_bytes())
    }

    /// Total payload bytes sent / fetched since the world began.
    pub fn traffic(&self) -> (u64, u64) {
        (self.bytes_sent, self.bytes_fetched)
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

    fn require_link(&self, from: DeviceId, to: DeviceId) -> Result<LinkSpec> {
        self.state(from)?;
        self.state(to)?;
        if !self.is_present(from) {
            return Err(NetError::Departed { device: from });
        }
        if !self.is_present(to) {
            return Err(NetError::Departed { device: to });
        }
        self.links
            .get(&key(from, to))
            .copied()
            .ok_or(NetError::NotConnected { from, to })
    }

    fn state(&self, device: DeviceId) -> Result<&DeviceState> {
        self.devices
            .get(device.0 as usize)
            .ok_or(NetError::UnknownDevice { device })
    }

    fn state_mut(&mut self, device: DeviceId) -> Result<&mut DeviceState> {
        self.devices
            .get_mut(device.0 as usize)
            .ok_or(NetError::UnknownDevice { device })
    }

    fn push_trace(&mut self, kind: TraceKind) {
        self.push_trace_at(self.clock.now(), kind);
    }

    pub(crate) fn push_trace_at(&mut self, at: crate::SimTime, kind: TraceKind) {
        if self.trace.len() >= 2 * TRACE_RETAIN {
            self.trace.drain(..TRACE_RETAIN);
        }
        self.trace.push(TraceEvent { at, kind });
    }
}

fn key(a: DeviceId, b: DeviceId) -> (DeviceId, DeviceId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
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
