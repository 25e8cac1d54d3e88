//! End-to-end over real TCP: the full middleware stack swapping clusters
//! out to live `obiwan-blobd` daemons through the `obiwan-netd` fabric,
//! killing a daemon, and reloading via the ordered failover — the same
//! scenario the simulation's durability tests pin, now with actual sockets
//! and processes underneath.

#![allow(clippy::disallowed_methods)] // tests may panic on impossible states

use obiwan_blobd::{Blobd, BlobdHandle, RemoteStore};
use obiwan_core::{Middleware, StoreSpec};
use obiwan_heap::Value;
use obiwan_net::{BlobStore, Bytes, DeviceId, DeviceKind, LinkSpec, NetFabric, Transport};
use obiwan_netd::ActorNet;
use obiwan_replication::{standard_classes, Server};
use std::io::BufRead;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const QUOTA: usize = 1 << 20;

/// A PDA over a 40-node list in a live world: two `obiwan-blobd` daemons
/// on loopback ports, fronted by the `obiwan-netd` fabric, k = 2 fan-out.
fn tcp_world() -> (
    Middleware,
    obiwan_heap::ObjRef,
    Vec<DeviceId>,
    Vec<BlobdHandle>,
) {
    let mut server = Server::new(standard_classes());
    let head = server.build_list("Node", 40, 16).expect("build list");
    let mut net = ActorNet::new();
    let home = net.add_device("pda", DeviceKind::Pda, 0);
    let mut handles = Vec::new();
    let mut devices = Vec::new();
    for i in 0..2 {
        let handle = Blobd::spawn_local(QUOTA).expect("bind loopback daemon");
        let d = net.add_remote_device(
            format!("blobd-{i}"),
            DeviceKind::Laptop,
            QUOTA,
            handle.addr(),
        );
        net.connect(home, d, LinkSpec::bluetooth()).expect("link");
        handles.push(handle);
        devices.push(d);
    }
    let shared = Arc::new(Mutex::new(NetFabric::backend(Box::new(net))));
    let universe = server.classes().clone();
    let mut mw = Middleware::builder()
        .cluster_size(10)
        .device_memory(1 << 20)
        .replication_factor(2)
        .no_builtin_policies()
        .build_in_world(universe, server.into_shared(), shared, home);
    let root = mw.replicate_root(head).expect("replicate");
    mw.set_global("head", Value::Ref(root));
    assert_eq!(mw.invoke_i64(root, "length", vec![]).expect("warm"), 40);
    (mw, root, devices, handles)
}

/// The identical scenario through the default simulated room — the oracle
/// the TCP path must byte-match.
fn sim_twin() -> (Middleware, obiwan_heap::ObjRef) {
    let mut server = Server::new(standard_classes());
    let head = server.build_list("Node", 40, 16).expect("build list");
    let mut mw = Middleware::builder()
        .cluster_size(10)
        .device_memory(1 << 20)
        .replication_factor(2)
        .no_builtin_policies()
        .stores(vec![
            StoreSpec::new("blobd-0", DeviceKind::Laptop, QUOTA),
            StoreSpec::new("blobd-1", DeviceKind::Laptop, QUOTA),
        ])
        .build(server);
    let root = mw.replicate_root(head).expect("replicate");
    mw.set_global("head", Value::Ref(root));
    assert_eq!(mw.invoke_i64(root, "length", vec![]).expect("warm"), 40);
    (mw, root)
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
fn swap_out_kill_a_daemon_and_reload_via_failover() {
    let (mut mw, root, devices, handles) = tcp_world();
    let (mut sim, sim_root) = sim_twin();

    // Swap cluster 2 out over real sockets and in the simulated oracle.
    let shipped = mw.swap_out(2).expect("swap out over TCP");
    let sim_shipped = sim.swap_out(2).expect("swap out in sim");
    assert_eq!(
        shipped, sim_shipped,
        "identical graphs detach to identical sizes"
    );

    let manager = mw.manager();
    let (_, key, held) = manager.holders_of(2).expect("cluster is swapped out");
    assert_eq!(held.len(), 2, "k = 2 fan-out placed two live copies");
    let sim_manager = sim.manager();
    let (_, sim_key, sim_held) = sim_manager.holders_of(2).expect("sim cluster swapped out");
    assert_eq!(
        key, sim_key,
        "same home, same cluster, same epoch: same key"
    );

    // Every copy — two daemons, two sim devices — holds identical bytes.
    let tcp_copies: Vec<Bytes> = {
        let net = mw.net();
        let net = net.lock().expect("net");
        held.iter()
            .map(|&d| net.blob_data(d, &key).expect("copy on daemon"))
            .collect()
    };
    let sim_copy = {
        let net = sim.net();
        let net = net.lock().expect("net");
        net.blob_data(sim_held[0], &sim_key).expect("copy in sim")
    };
    assert_eq!(
        tcp_copies[0], tcp_copies[1],
        "both daemons store identical bytes"
    );
    assert_eq!(
        tcp_copies[0], sim_copy,
        "the blob on the wire is byte-identical to the simulated path"
    );

    // Kill the daemon behind the primary holder — not a scripted depart,
    // an actual dead process whose port stops answering.
    let primary = held[0];
    let victim = devices
        .iter()
        .position(|&d| d == primary)
        .expect("holder is one of our daemons");
    handles[victim].shutdown();
    wait_until_down(handles[victim].addr());

    // Reload: the ordered failover walks past the dead daemon to the
    // surviving copy, and the rebuilt graph answers as before.
    mw.swap_in(2).expect("failover reload over TCP");
    assert_eq!(mw.invoke_i64(root, "length", vec![]).expect("reloaded"), 40);
    let stats = mw.swap_stats();
    assert_eq!(stats.swap_ins, 1);
    assert_eq!(stats.reload_failovers, 1, "exactly one holder was skipped");

    // The sim twin agrees end to end.
    sim.swap_in(2).expect("sim reload");
    assert_eq!(sim.invoke_i64(sim_root, "length", vec![]).expect("sim"), 40);

    // The surviving daemon dropped its copy on reload: quota symmetry
    // holds across a kill + failover, same as in the simulation.
    {
        let net = mw.net();
        let net = net.lock().expect("net");
        let survivor = *held.get(1).expect("two holders");
        assert_eq!(
            net.stored_bytes(survivor).expect("survivor answers"),
            0,
            "no copy survives reload on the live daemon"
        );
    }
    let report = mw.audit();
    assert!(
        !report.has_errors(),
        "graph invariants hold over TCP:\n{report}"
    );
    for handle in handles {
        handle.shutdown();
    }
}

#[test]
fn idle_pumps_cost_the_daemons_nothing() {
    // Warm-up discovered both stores; from here on nothing swaps, so the
    // policy pumps (one per 64 quiet invokes) must not reach a daemon.
    let (mut mw, root, _devices, handles) = tcp_world();
    let served = |handles: &[BlobdHandle]| -> Vec<u64> {
        handles.iter().map(BlobdHandle::ops_served).collect()
    };
    let before = served(&handles);
    for _ in 0..256 {
        assert_eq!(mw.invoke_i64(root, "length", vec![]).expect("invoke"), 40);
    }
    assert_eq!(mw.swap_stats().swap_outs, 0, "no memory pressure");
    assert_eq!(
        served(&handles),
        before,
        "an idle pump sends no frame to any daemon"
    );
    for handle in handles {
        handle.shutdown();
    }
}

#[test]
fn child_process_daemon_round_trips_blobs() {
    // The real deployment shape: obiwan-blobd as a separate OS process,
    // its ephemeral port learned from its stdout banner.
    let exe = env!("CARGO_BIN_EXE_obiwan-blobd");
    let mut child = std::process::Command::new(exe)
        .args(["--addr", "127.0.0.1:0", "--quota", "1048576"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn obiwan-blobd");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut banner = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut banner)
        .expect("read banner");
    let addr: SocketAddr = banner
        .trim()
        .strip_prefix("obiwan-blobd listening on ")
        .expect("banner format")
        .parse()
        .expect("banner carries the bound address");

    let mut store = RemoteStore::connect(DeviceId::from_index(7), addr);
    let payload = Bytes::copy_from_slice(b"<swap-cluster epoch='0'/>");
    store.store("dev0-sc1-e0", payload.clone()).expect("store");
    assert!(store.contains("dev0-sc1-e0"));
    assert_eq!(store.fetch("dev0-sc1-e0").expect("fetch"), payload);
    store.drop_blob("dev0-sc1-e0").expect("drop");
    assert_eq!(store.used_bytes(), Ok(0));

    store.shutdown_daemon().expect("graceful shutdown");
    let status = child.wait().expect("child exits");
    assert!(status.success(), "daemon exits cleanly after shutdown");
}
