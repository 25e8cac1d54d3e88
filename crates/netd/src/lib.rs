//! `obiwan-netd`: the live transport runtime behind `TransportKind::Tcp`.
//!
//! Where `obiwan-net`'s `SimNet` *models* a room full of devices under a
//! scripted clock, this crate *runs* one: each device is an actor — a
//! thread draining a FIFO inbox, owning its blob store exclusively — and
//! [`ActorNet`] is the world that routes the middleware's transport verbs
//! into those inboxes. Stores are either in-memory ([`obiwan_net::MemStore`],
//! for devices hosted inside this process) or remote
//! ([`obiwan_blobd::RemoteStore`], fronting an `obiwan-blobd` daemon over
//! TCP), and the actor neither knows nor cares which.
//!
//! [`ActorNet`] keeps its devices and links on the same
//! [`obiwan_net::Room`] that `SimNet` runs on, so presence, routing, the
//! error precedence (unknown device before departed before not-connected
//! before store errors), [`obiwan_net::FailurePlan`] injection and churn
//! sequencing have one implementation. `tests/differential.rs` runs one
//! verb script against both fabrics to keep their data planes in step:
//! airtime is charged *before* the far store accepts or refuses a blob,
//! exactly as in the simulation.
//!
//! What the live fabric gives up is determinism. The clock is the sanctioned
//! [`obiwan_net::clock::real`] seam, and replies race real threads and —
//! for remote devices — real sockets. That is why `TransportKind::Sim`
//! stays the default and golden traces are only ever cut there.

mod actor;
mod fabric;

pub use fabric::ActorNet;

#[cfg(test)]
mod tests {
    use super::*;
    use obiwan_net::{Bytes, DeviceKind, LinkSpec, NetError, SimDuration, Transport};

    fn two_device_world() -> (ActorNet, obiwan_net::DeviceId, obiwan_net::DeviceId) {
        let mut net = ActorNet::new();
        let a = net.add_device("pda", DeviceKind::Pda, 1 << 20);
        let b = net.add_device("laptop", DeviceKind::Laptop, 1 << 20);
        net.connect(
            a,
            b,
            LinkSpec::new(1_000_000, SimDuration::from_micros(500)),
        )
        .unwrap();
        (net, a, b)
    }

    #[test]
    fn mailbox_orders_store_then_fetch_then_drop() {
        let (mut net, a, b) = two_device_world();
        // Same device, strict send order: a later fetch must observe the
        // earlier store, and a drop after that must leave nothing behind.
        net.send_blob(a, b, "k1", Bytes::copy_from_slice(b"payload"))
            .unwrap();
        let got = net.fetch_blob(a, b, "k1").unwrap();
        assert_eq!(&got[..], b"payload");
        net.drop_blob(a, b, "k1").unwrap();
        assert!(matches!(
            net.fetch_blob(a, b, "k1"),
            Err(NetError::UnknownBlob { .. })
        ));
        assert!(!net.holds_blob(b, "k1"));
    }

    #[test]
    fn departed_devices_keep_their_blobs() {
        let (mut net, a, b) = two_device_world();
        net.send_blob(a, b, "k", Bytes::copy_from_slice(b"x"))
            .unwrap();
        net.depart(b).unwrap();
        assert!(matches!(
            net.send_blob(a, b, "k2", Bytes::copy_from_slice(b"y")),
            Err(NetError::Departed { .. })
        ));
        // The bytes walked away with the device, not into the void.
        assert_eq!(net.blob_keys(b), vec!["k".to_string()]);
        net.arrive(b).unwrap();
        assert_eq!(&net.fetch_blob(a, b, "k").unwrap()[..], b"x");
    }

    #[test]
    fn airtime_is_charged_even_when_the_store_refuses() {
        let mut net = ActorNet::new();
        let a = net.add_device("pda", DeviceKind::Pda, 1 << 20);
        let b = net.add_device("tiny", DeviceKind::Mote, 4);
        net.connect(
            a,
            b,
            LinkSpec::new(1_000_000, SimDuration::from_micros(100)),
        )
        .unwrap();
        let err = net.send_blob(a, b, "big", Bytes::copy_from_slice(&[0u8; 64]));
        assert!(matches!(err, Err(NetError::QuotaExceeded { .. })));
        let (sent, _) = net.traffic();
        assert_eq!(sent, 64, "refused transfers still cost airtime");
    }

    #[test]
    fn failure_plans_inject_at_dispatch() {
        let (mut net, a, b) = two_device_world();
        net.set_failure_plan(b, obiwan_net::FailurePlan::fail_once_at(0))
            .unwrap();
        assert!(matches!(
            net.send_blob(a, b, "k", Bytes::copy_from_slice(b"x")),
            Err(NetError::InjectedFailure { .. })
        ));
        // The plan consumed its shot; the retry lands.
        net.send_blob(a, b, "k", Bytes::copy_from_slice(b"x"))
            .unwrap();
    }

    #[test]
    fn routing_relays_across_a_middle_device() {
        let mut net = ActorNet::new();
        let a = net.add_device("a", DeviceKind::Pda, 1 << 20);
        let m = net.add_device("m", DeviceKind::Laptop, 1 << 20);
        let c = net.add_device("c", DeviceKind::Desktop, 1 << 20);
        let link = LinkSpec::new(1_000_000, SimDuration::from_micros(200));
        net.connect(a, m, link).unwrap();
        net.connect(m, c, link).unwrap();
        let (route, _cost) = net
            .send_blob_routed(a, c, "k", Bytes::copy_from_slice(b"hop"))
            .unwrap();
        assert_eq!(route.relays, vec![m]);
        let (route_back, data) = net.fetch_blob_routed(a, c, "k").unwrap();
        assert_eq!(route_back.relays, vec![m]);
        assert_eq!(&data[..], b"hop");
    }
}
