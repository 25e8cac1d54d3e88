//! Multi-hop routing — the paper's closing vision includes devices
//! "available to any user either to store data **or to relay
//! communications**". This module adds relay paths on top of the direct
//! links: a blob can reach a storage device several radio hops away, at
//! the cost of every hop's airtime. Routes are found on the shared
//! [`Room`], so every fabric relays along the same paths.

use crate::{DeviceId, LinkSpec, NetError, Result, Room};
use std::collections::{HashMap, HashSet, VecDeque};

/// A relay path: the intermediate devices between source and destination
/// (exclusive of both), plus the total transfer cost model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Source device.
    pub from: DeviceId,
    /// Destination device.
    pub to: DeviceId,
    /// Intermediate relays, in order (empty for a direct link).
    pub relays: Vec<DeviceId>,
}

impl Route {
    /// Number of radio hops (1 for a direct link).
    pub fn hops(&self) -> usize {
        self.relays.len() + 1
    }
}

impl<H> Room<H> {
    /// Fewest-hops route over present devices: breadth-first, neighbours
    /// in ascending id order, so a tie goes to the path discovered first.
    /// `None` when `to` is unreachable or either end is absent.
    pub fn route(&self, from: DeviceId, to: DeviceId) -> Option<Route> {
        if !self.is_present(from) || !self.is_present(to) {
            return None;
        }
        if from == to {
            return Some(Route {
                from,
                to,
                relays: Vec::new(),
            });
        }
        let mut predecessor: HashMap<DeviceId, DeviceId> = HashMap::new();
        let mut queue = VecDeque::from([from]);
        'search: while let Some(cur) = queue.pop_front() {
            for next in self.nearby(cur) {
                if next == from || predecessor.contains_key(&next) {
                    continue;
                }
                predecessor.insert(next, cur);
                if next == to {
                    break 'search;
                }
                queue.push_back(next);
            }
        }
        predecessor.contains_key(&to).then(|| {
            let mut relays = Vec::new();
            let mut cur = to;
            while let Some(&prev) = predecessor.get(&cur) {
                if prev == from {
                    break;
                }
                relays.push(prev);
                cur = prev;
            }
            relays.reverse();
            Route { from, to, relays }
        })
    }

    /// Devices reachable from `of` with their hop counts, ring by ring,
    /// each ring in discovery order. The first ring equals
    /// [`Room::nearby`].
    pub fn reachable(&self, of: DeviceId) -> Vec<(DeviceId, usize)> {
        let mut out = Vec::new();
        let mut seen = HashSet::from([of]);
        let mut frontier = vec![of];
        let mut hops = 0;
        while !frontier.is_empty() {
            hops += 1;
            let mut next_frontier = Vec::new();
            for dev in frontier {
                for next in self.nearby(dev) {
                    if seen.insert(next) {
                        out.push((next, hops));
                        next_frontier.push(next);
                    }
                }
            }
            frontier = next_frontier;
        }
        out
    }

    /// The fewest-hops route from `from` to `to` ([`Room::route`]) and its
    /// hops in order, each as `(sender, receiver, link)`. The last hop's
    /// sender is the device that talks to `to`.
    ///
    /// # Errors
    ///
    /// [`NetError::NotConnected`] when there is no route, or no link on
    /// one of its hops (a device routed to itself needs a link to itself).
    #[allow(clippy::type_complexity)]
    pub fn route_hops(
        &self,
        from: DeviceId,
        to: DeviceId,
    ) -> Result<(Route, Vec<(DeviceId, DeviceId, LinkSpec)>)> {
        let route = self
            .route(from, to)
            .ok_or(NetError::NotConnected { from, to })?;
        let mut hops = Vec::with_capacity(route.hops());
        let mut cur = route.from;
        for &next in route.relays.iter().chain([&route.to]) {
            let link = self.link(cur, next).ok_or(NetError::NotConnected {
                from: cur,
                to: next,
            })?;
            hops.push((cur, next, link));
            cur = next;
        }
        Ok((route, hops))
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may panic on impossible states
mod tests {
    use crate::{DeviceKind, LinkSpec, SimNet, Transport};

    /// pda — m1 — m2 — desktop, plus a direct pda—laptop link.
    fn chain_world() -> (SimNet, Vec<crate::DeviceId>) {
        let mut net = SimNet::new();
        let pda = net.add_device("pda", DeviceKind::Pda, 0);
        let m1 = net.add_device("m1", DeviceKind::Mote, 1 << 16);
        let m2 = net.add_device("m2", DeviceKind::Mote, 1 << 16);
        let desktop = net.add_device("desktop", DeviceKind::Desktop, 1 << 20);
        let laptop = net.add_device("laptop", DeviceKind::Laptop, 1 << 20);
        net.connect(pda, m1, LinkSpec::mote_radio()).unwrap();
        net.connect(m1, m2, LinkSpec::mote_radio()).unwrap();
        net.connect(m2, desktop, LinkSpec::wifi()).unwrap();
        net.connect(pda, laptop, LinkSpec::bluetooth()).unwrap();
        (net, vec![pda, m1, m2, desktop, laptop])
    }

    #[test]
    fn bfs_route_finds_fewest_hops() {
        let (net, d) = chain_world();
        let r = net.route(d[0], d[3]).unwrap();
        assert_eq!(r.relays, vec![d[1], d[2]]);
        assert_eq!(r.hops(), 3);
        let direct = net.route(d[0], d[4]).unwrap();
        assert!(direct.relays.is_empty());
    }

    #[test]
    fn reachable_orders_by_hops() {
        let (net, d) = chain_world();
        let r = net.reachable(d[0]);
        assert_eq!(r[0].1, 1);
        assert!(r.contains(&(d[3], 3)));
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn routed_send_and_fetch_roundtrip_with_hop_costs() {
        let (mut net, d) = chain_world();
        let t0 = net.now();
        let (route, cost) = net
            .send_blob_routed(d[0], d[3], "k", bytes::Bytes::from("x".repeat(500)))
            .unwrap();
        assert_eq!(route.hops(), 3);
        // Three hops: two mote-radio transfers + one wifi transfer.
        let expected = LinkSpec::mote_radio().transfer_time(500)
            + LinkSpec::mote_radio().transfer_time(500)
            + LinkSpec::wifi().transfer_time(500);
        assert_eq!(cost, expected);
        assert_eq!(net.now() - t0, expected);
        // Relays hold nothing; the destination holds the blob.
        assert!(!net.holds_blob(d[1], "k"));
        assert!(!net.holds_blob(d[2], "k"));
        assert!(net.holds_blob(d[3], "k"));
        let (route_back, data) = net.fetch_blob_routed(d[0], d[3], "k").unwrap();
        assert_eq!(route_back.hops(), 3);
        assert_eq!(data.len(), 500);
    }

    #[test]
    fn departed_relay_breaks_the_route() {
        let (mut net, d) = chain_world();
        net.depart(d[1]).unwrap();
        assert!(net.route(d[0], d[3]).is_none());
        assert!(matches!(
            net.send_blob_routed(d[0], d[3], "k", "x".into()),
            Err(crate::NetError::NotConnected { .. })
        ));
        // The laptop is still directly reachable.
        assert!(net.route(d[0], d[4]).is_some());
    }

    #[test]
    fn routed_drop_reaches_distant_store() {
        let (mut net, d) = chain_world();
        net.send_blob_routed(d[0], d[3], "k", "data".into())
            .unwrap();
        net.drop_blob_routed(d[0], d[3], "k").unwrap();
        assert!(!net.holds_blob(d[3], "k"));
    }

    #[test]
    fn route_to_self_is_empty() {
        let (net, d) = chain_world();
        let r = net.route(d[0], d[0]).unwrap();
        assert_eq!(r.hops(), 1);
        assert!(r.relays.is_empty());
    }
}
