//! `ActorNet` over live `obiwan-blobd` daemons on loopback: what a verb
//! costs in frames, and where the free-space figure comes from.
//!
//! A daemon's `store` and `drop` replies carry its used bytes, so
//! `free_storage` and `stored_bytes` answer from the last such reply and
//! send no frame of their own. These tests count the frames the daemons
//! serve, follow the figure across two clients of one daemon and a daemon
//! too old to send it, and pin what a daemon that does not answer reads
//! as.

#![allow(clippy::disallowed_methods)] // tests may panic on impossible states

use obiwan_blobd::frame::{
    decode_request, encode_response, encode_stat, read_frame, write_frame, Request, Response,
};
use obiwan_blobd::{Blobd, BlobdHandle};
use obiwan_net::{BlobStore, Bytes, DeviceId, DeviceKind, LinkSpec, MemStore, NetError, Transport};
use obiwan_netd::ActorNet;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const QUOTA: usize = 1 << 16;

/// A PDA linked to one remote device per address.
fn world(addrs: &[SocketAddr]) -> (ActorNet, DeviceId, Vec<DeviceId>) {
    let mut net = ActorNet::new();
    let home = net.add_device("pda", DeviceKind::Pda, 0);
    let stores = addrs
        .iter()
        .enumerate()
        .map(|(i, &addr)| {
            let d = net.add_remote_device(format!("blobd-{i}"), DeviceKind::Laptop, QUOTA, addr);
            net.connect(home, d, LinkSpec::bluetooth()).unwrap();
            d
        })
        .collect();
    (net, home, stores)
}

fn daemons(n: usize) -> Vec<BlobdHandle> {
    (0..n).map(|_| Blobd::spawn_local(QUOTA).unwrap()).collect()
}

fn addrs(daemons: &[BlobdHandle]) -> Vec<SocketAddr> {
    daemons.iter().map(BlobdHandle::addr).collect()
}

fn blob(len: usize) -> Bytes {
    Bytes::from(vec![b'x'; len])
}

/// Wait until nothing answers at `addr` any more (the daemon's listener is
/// closed, not merely its shutdown flag set).
fn wait_until_down(addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
            Err(_) => return,
            Ok(_) if Instant::now() > deadline => panic!("daemon at {addr} never went down"),
            Ok(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

#[test]
fn free_space_sends_no_frame() {
    let daemons = daemons(2);
    let (mut net, home, stores) = world(&addrs(&daemons));
    // Bytes each daemon charges, by the quota arithmetic: key + payload.
    let mut charged = [0usize; 2];
    let mut held: Vec<(usize, String, usize)> = Vec::new();
    let (mut sent, mut dropped) = (0u64, 0u64);
    for i in 0..40 {
        for (slot, &d) in stores.iter().enumerate() {
            assert_eq!(net.free_storage(d), Ok(QUOTA - charged[slot]));
            assert_eq!(net.stored_bytes(d), Ok(charged[slot]));
        }
        let slot = i % 2;
        let key = format!("k{i}");
        let size = key.len() + 100 + i;
        net.send_blob(home, stores[slot], &key, blob(100 + i))
            .unwrap();
        charged[slot] += size;
        held.push((slot, key, size));
        sent += 1;
        if i % 3 == 2 {
            let (slot, key, size) = held.remove(0);
            net.drop_blob(home, stores[slot], &key).unwrap();
            charged[slot] -= size;
            dropped += 1;
        }
    }
    let served: u64 = daemons.iter().map(BlobdHandle::ops_served).sum();
    assert!(
        (sent + dropped..=sent + dropped + stores.len() as u64).contains(&served),
        "{served} frames for {sent} stores and {dropped} drops: \
         free space may cost at most one stat per device"
    );
    for d in daemons {
        d.shutdown();
    }
}

#[test]
fn a_daemon_that_does_not_answer_is_not_read_as_empty() {
    let daemons = daemons(1);
    let (mut net, home, stores) = world(&addrs(&daemons));
    let d = stores[0];
    net.send_blob(home, d, "k1", blob(10)).unwrap();
    daemons[0].shutdown();
    wait_until_down(daemons[0].addr());

    let departed = NetError::Departed { device: d };
    assert_eq!(
        net.send_blob(home, d, "k2", blob(10)),
        Err(departed.clone())
    );
    // The failed exchange took the figure with it; the daemon cannot
    // give a new one, so free space is unknown, not the whole quota.
    assert_eq!(net.free_storage(d), Err(departed.clone()));
    assert_eq!(net.stored_bytes(d), Err(departed.clone()));

    // A client that never reached the daemon has no figure either.
    let (fresh, _, fresh_stores) = world(&addrs(&daemons));
    assert_eq!(fresh.free_storage(fresh_stores[0]), Err(departed));
}

#[test]
fn another_clients_writes_show_at_the_next_reply() {
    let daemons = daemons(1);
    let daemon = &daemons[0];
    let (mut a, a_home, a_stores) = world(&addrs(&daemons));
    let (mut b, b_home, b_stores) = world(&addrs(&daemons));
    let (da, db) = (a_stores[0], b_stores[0]);

    a.send_blob(a_home, da, "a1", blob(100)).unwrap();
    assert_eq!(a.free_storage(da), Ok(QUOTA - 102));
    b.send_blob(b_home, db, "b1", blob(200)).unwrap();
    let served = daemon.ops_served();
    assert_eq!(
        a.free_storage(da),
        Ok(QUOTA - 102),
        "A has had no reply since B stored"
    );
    assert_eq!(daemon.ops_served(), served, "the ask sent no frame");

    // A's next store reply carries B's bytes too.
    a.send_blob(a_home, da, "a2", blob(50)).unwrap();
    assert_eq!(a.free_storage(da), Ok(QUOTA - 356));

    // B fills the daemon to within 10 bytes; A's refused store reads the
    // daemon's used bytes off the refusal.
    b.send_blob(b_home, db, "b2", blob(QUOTA - 356 - 2 - 10))
        .unwrap();
    assert!(matches!(
        a.send_blob(a_home, da, "a3", blob(100)),
        Err(NetError::QuotaExceeded { used, quota, .. }) if used == QUOTA - 10 && quota == QUOTA
    ));
    assert_eq!(a.free_storage(da), Ok(10));

    // Drops are seen the same way: B's at A's next drop reply.
    b.drop_blob(b_home, db, "b2").unwrap();
    a.drop_blob(a_home, da, "a1").unwrap();
    assert_eq!(a.free_storage(da), Ok(QUOTA - 254));
    assert_eq!(
        b.free_storage(db),
        Ok(QUOTA - 356),
        "B's figure: its own drop"
    );
    daemon.shutdown();
}

/// A daemon as it was before `store` and `drop` replies carried the used
/// bytes: the same store, answering those two with an empty `Ok`. Serves
/// one connection until the client closes it; counts the `stat`s it
/// answers.
fn old_daemon() -> (SocketAddr, Arc<AtomicU64>, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stats = Arc::new(AtomicU64::new(0));
    let counted = Arc::clone(&stats);
    let serving = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let mut store = MemStore::new(DeviceId::from_index(0), QUOTA);
        while let Ok(body) = read_frame(&mut conn) {
            let payload = match decode_request(&body).unwrap() {
                Request::Store { key, data } => store.store(&key, data).map(|()| Vec::new()),
                Request::Drop { key } => store.drop_blob(&key).map(|()| Vec::new()),
                Request::Stat => {
                    counted.fetch_add(1, Ordering::SeqCst);
                    Ok(encode_stat(
                        store.used() as u64,
                        QUOTA as u64,
                        store.blob_count() as u64,
                    ))
                }
                other => panic!("unscripted request {other:?}"),
            };
            let resp = Response::Ok {
                payload: Bytes::from(payload.unwrap()),
            };
            write_frame(&mut conn, &encode_response(&resp)).unwrap();
        }
    });
    (addr, stats, serving)
}

#[test]
fn an_old_daemon_costs_one_stat_per_ask_after_a_change() {
    let (addr, stats, serving) = old_daemon();
    let (mut net, home, stores) = world(&[addr]);
    let d = stores[0];
    let stats = || stats.load(Ordering::SeqCst);

    net.send_blob(home, d, "k1", blob(100)).unwrap();
    assert_eq!(net.free_storage(d), Ok(QUOTA - 102));
    assert_eq!(stats(), 1, "an empty store reply leaves no figure");
    assert_eq!(net.free_storage(d), Ok(QUOTA - 102));
    assert_eq!(stats(), 1, "the stat reply's figure answers the next ask");

    net.send_blob(home, d, "k2", blob(50)).unwrap();
    assert_eq!(net.free_storage(d), Ok(QUOTA - 154));
    assert_eq!(stats(), 2);
    net.drop_blob(home, d, "k1").unwrap();
    assert_eq!(net.stored_bytes(d), Ok(52));
    assert_eq!(stats(), 3);
    drop(net);
    serving
        .join()
        .expect("the scripted daemon answered every request");
}
