//! Print the ablation tables (memory overhead, swap I/O, victim policies,
//! compression, GC cooperation).
//!
//! ```text
//! cargo run --release -p obiwan-bench --bin ablations [-- --n 10000]
//! ```

use obiwan_baselines::compress::CompressedPool;
use obiwan_bench::{memory, swapio, victims, BenchError, Result};
use obiwan_core::codec;
use obiwan_core::Middleware;
use obiwan_heap::Value;
use obiwan_net::BlobStore;
use obiwan_replication::{standard_classes, Server};
use std::time::Instant;

fn main() -> std::process::ExitCode {
    let mut n = 10_000usize;
    let args: Vec<String> = std::env::args().collect();
    match args.as_slice() {
        [_] => {}
        [_, flag, value] if flag == "--n" => {
            n = value.parse().unwrap_or(n);
        }
        _ => {
            eprintln!("usage: ablations [--n LIST_LEN]");
            return std::process::ExitCode::from(2);
        }
    }
    match run(n) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn run(n: usize) -> Result<()> {
    // Ablation 1: memory vs naive per-object proxies.
    let rows = memory::run_comparison(n)?;
    println!("{}", memory::render(&rows, n));

    // Ablation 2: swap I/O over cluster size and bandwidth.
    let points = swapio::run_sweep(n.min(2_000))?;
    println!("{}", swapio::render(&points));
    let format_points = swapio::run_format_sweep(n.min(2_000))?;
    println!("{}", swapio::render_formats(&format_points));

    // Ablation 3: victim policies (smaller list: the trace reloads a lot).
    let vn = (n / 10).max(300);
    let vrows = victims::run_comparison(vn, 40)?;
    println!("{}", victims::render(&vrows, vn, 40));

    // Ablation 4: compression baseline — CPU time and ratio vs shipping.
    println!("{}", compression_report(n.min(2_000))?);

    // Ablation 5: GC cooperation — blobs dropped after unreachability.
    println!("{}", gc_cooperation_report()?);

    // Ablation 6: grouping clusters into macro-objects.
    let gn = n.min(4_000);
    let grows = obiwan_bench::grouping::run_sweep(gn, 20, &[1, 2, 5, 10])?;
    println!("{}", obiwan_bench::grouping::render(&grows, gn, 20));

    // Ablation 7: housekeeping traffic vs the per-object offload DGC.
    let dn = (n / 20).clamp(100, 500);
    let drows = obiwan_bench::dgc_traffic::run_comparison(dn, 25, 4)?;
    println!("{}", obiwan_bench::dgc_traffic::render(&drows, dn, 4));

    // Ablation 8: reload availability and repair traffic under churn.
    let dpoints = obiwan_bench::durability::run_sweep(40)?;
    println!("{}", obiwan_bench::durability::render(&dpoints));
    Ok(())
}

/// Compress real swap blobs and compare against the Bluetooth transfer the
/// paper ships them over (the \[2,3\] trade-off: CPU for airtime).
fn compression_report(list_len: usize) -> Result<String> {
    let mut server = Server::new(standard_classes());
    let head = server.build_list("Node", list_len, obiwan_bench::workloads::PAYLOAD_FOR_64B)?;
    let mut mw = Middleware::builder()
        .cluster_size(100)
        .device_memory(list_len * 64 * 8 + (1 << 20))
        .no_builtin_policies()
        .build(server);
    let root = mw.replicate_root(head)?;
    mw.set_global("head", Value::Ref(root));
    mw.invoke_i64(root, "length", vec![])?;

    // Produce the blob text for swap-cluster 1 without swapping.
    let (xml, sc_bytes) = {
        let manager = mw.manager();
        let members: Vec<obiwan_heap::ObjRef> = manager
            .cluster(1)?
            .members
            .iter()
            .map(|&(_, r)| r)
            .collect();
        let xml = codec::render_xml(&codec::capture(mw.process(), 1, 0, &members)?)?;
        let bytes = members.len() * 64;
        (xml, bytes)
    };

    let mut pool = CompressedPool::new(1 << 20);
    let t0 = Instant::now();
    pool.store("sc-1", xml.clone().into())
        .map_err(|e| BenchError::ctx("pool store", e))?;
    let compress_time = t0.elapsed();
    let t1 = Instant::now();
    let back = pool
        .fetch("sc-1")
        .map_err(|e| BenchError::ctx("pool fetch", e))?;
    let decompress_time = t1.elapsed();
    if back[..] != *xml.as_bytes() {
        return Err(BenchError::msg("compressed pool round-trip mismatch"));
    }

    let bt = obiwan_net::LinkSpec::bluetooth();
    let ship = bt.transfer_time(xml.len());
    let ship_back = bt.transfer_time(xml.len());
    Ok(format!(
        "Ablation 4 — Compressed in-memory pool vs shipping to a neighbour\n\
         (one 100-object swap-cluster: {} B of objects, {} B of blob text)\n\n\
         {:<34}{:>14}{:>16}\n\
         {:<34}{:>11.3}ms{:>16}\n\
         {:<34}{:>11.3}ms{:>16}\n\
         {:<34}{:>14}{:>16}\n\n\
         (the pool holds {} B compressed — memory the application loses;\n\
          the paper: \"the compressed-memory pool actually reduces the\n\
          memory available to applications\")\n",
        sc_bytes,
        xml.len(),
        "path",
        "out",
        "back",
        "compress to local pool (CPU)",
        compress_time.as_secs_f64() * 1e3,
        format!("{:.3}ms", decompress_time.as_secs_f64() * 1e3),
        "ship over bluetooth (airtime)",
        ship.as_micros() as f64 / 1e3,
        format!("{:.3}ms", ship_back.as_micros() as f64 / 1e3),
        "compression ratio",
        format!("{:.2}", pool.ratio()),
        "",
        pool.used_bytes()
            .map_err(|e| BenchError::ctx("pool used bytes", e))?,
    ))
}

/// Swap a cluster out, make it unreachable, collect twice, and report the
/// storing device's occupancy — the §3 GC-cooperation path.
fn gc_cooperation_report() -> Result<String> {
    let mut server = Server::new(standard_classes());
    let head = server.build_list("Node", 30, obiwan_bench::workloads::PAYLOAD_FOR_64B)?;
    let mut mw = Middleware::builder()
        .cluster_size(10)
        .device_memory(1 << 20)
        .no_builtin_policies()
        .build(server);
    let root = mw.replicate_root(head)?;
    mw.set_global("head", Value::Ref(root));
    mw.invoke_i64(root, "length", vec![])?;
    // Find node 9 and remember it, then swap cluster 2 out.
    let mut ninth = root;
    for _ in 0..9 {
        ninth = mw.invoke_ref(ninth, "next", vec![])?;
    }
    mw.set_global("ninth", Value::Ref(ninth));
    mw.swap_out(2)?;
    let stored_before = neighbour_bytes(&mw)?;
    // Sever the list before the swapped cluster.
    let ninth = mw
        .global("ninth")?
        .expect_ref()
        .map_err(|e| BenchError::ctx("global `ninth`", e))?;
    let handle = match obiwan_core::identity_key(mw.process(), ninth)? {
        obiwan_core::IdentityKey::Oid(oid) => mw
            .process()
            .lookup_replica(oid)
            .ok_or_else(|| BenchError::msg("ninth node has no live replica"))?,
        obiwan_core::IdentityKey::Handle(h) => h,
    };
    mw.process_mut()
        .set_field_value(handle, "next", Value::Null)?;
    mw.run_gc()?;
    mw.run_gc()?;
    let stored_after = neighbour_bytes(&mw)?;
    let stats = mw.swap_stats();
    Ok(format!(
        "Ablation 5 — GC cooperation (paper §3)\n\n\
         blob bytes on the neighbour before severing: {stored_before}\n\
         blob bytes after the cluster became unreachable + 2 collections: {stored_after}\n\
         blobs dropped on the replacement-object's death: {}\n\n\
         (no DGC spans the storing devices: one local decision, one drop\n\
          message — versus one liveness message per object per epoch in the\n\
          per-object offload baseline)\n",
        stats.blobs_dropped
    ))
}

fn neighbour_bytes(mw: &Middleware) -> Result<usize> {
    let net = mw.net();
    let n = net
        .lock()
        .map_err(|_| BenchError::msg("net lock poisoned"))?;
    let d = *n
        .nearby(mw.home_device())
        .first()
        .ok_or_else(|| BenchError::msg("no neighbour device"))?;
    Ok(n.stored_bytes(d)?)
}
