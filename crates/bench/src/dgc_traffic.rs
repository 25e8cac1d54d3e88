//! Ablation 7: control-message traffic — Object-Swapping's local-only GC
//! cooperation versus the per-object offload DGC of \[6, 1\] (paper §6:
//! "there must be a distributed garbage collection (DGC) algorithm
//! managing references among resident and migrated objects").
//!
//! Scenario: a device evicts a graph of `n` objects, the application then
//! discards half of it, and the system runs `epochs` of housekeeping.
//! We count every control message that crosses the air.

use crate::{BenchError, Result};
use obiwan_baselines::offload::Offloader;
use obiwan_core::Middleware;
use obiwan_heap::{Collection, Value};
use obiwan_net::{DeviceKind, LinkSpec, SimNet, Transport};
use obiwan_replication::{standard_classes, Process, ReplConfig, Server};
use std::sync::{Arc, Mutex};

/// Message counts for one approach.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DgcRow {
    /// Approach label.
    pub approach: String,
    /// Data messages (blob/object shipments + fetches).
    pub data_messages: u64,
    /// Control messages (liveness reports, drop instructions).
    pub control_messages: u64,
}

/// Run the scenario with Object-Swapping (cluster-grained, local GC
/// decisions, one drop message per dead cluster).
fn swapping_row(n: usize, cluster: usize, epochs: usize) -> Result<DgcRow> {
    let mut server = Server::new(standard_classes());
    let head = server.build_list("Node", n, crate::workloads::PAYLOAD_FOR_64B)?;
    let mut mw = Middleware::builder()
        .cluster_size(cluster)
        .device_memory(n * 64 * 8 + (1 << 20))
        .no_builtin_policies()
        .build(server);
    let root = mw.replicate_root(head)?;
    mw.set_global("head", Value::Ref(root));
    mw.invoke_i64(root, "length", vec![])?;
    // Evict everything.
    let clusters = {
        let manager = mw.manager();
        manager.loaded_clusters()
    };
    let data_messages = clusters.len() as u64;
    for sc in &clusters {
        mw.swap_out(*sc)?;
    }
    // Discard the second half: drop the global route beyond node n/2 by
    // cutting inside the still-proxied graph — reload the boundary
    // cluster, cut, and re-evict it.
    let half = n / 2;
    mw.set_global("cursor", Value::Ref(root));
    for _ in 0..half - 1 {
        let cur = mw
            .global("cursor")?
            .expect_ref()
            .map_err(|e| BenchError::ctx("global `cursor`", e))?;
        let next = mw.invoke_ref(cur, "next", vec![])?;
        mw.set_global("cursor", Value::Ref(next));
    }
    let cut = mw
        .global("cursor")?
        .expect_ref()
        .map_err(|e| BenchError::ctx("global `cursor`", e))?;
    let handle = match obiwan_core::identity_key(mw.process(), cut)? {
        obiwan_core::IdentityKey::Oid(oid) => mw
            .process()
            .lookup_replica(oid)
            .ok_or_else(|| BenchError::msg("cut node has no live replica"))?,
        obiwan_core::IdentityKey::Handle(h) => h,
    };
    mw.process_mut()
        .set_field_value(handle, "next", Value::Null)?;
    // Housekeeping epochs: plain local collections.
    for _ in 0..epochs {
        mw.run_gc()?;
    }
    let stats = mw.swap_stats();
    // Control messages: the drop instructions (plus nothing per epoch —
    // all decisions are local).
    let control_messages = stats.blobs_dropped + stats.drop_failures;
    Ok(DgcRow {
        approach: format!("object-swapping ({cluster}/cluster)"),
        data_messages: data_messages + stats.swap_ins,
        control_messages,
    })
}

/// Run the scenario with per-object offload + per-object DGC.
fn offload_row(n: usize, epochs: usize) -> Result<DgcRow> {
    let u = standard_classes();
    let mut server = Server::new(u.clone());
    let head = server.build_list("Node", n, crate::workloads::PAYLOAD_FOR_64B)?;
    let mut p = Process::new(
        u,
        server.into_shared(),
        n * 64 * 8 + (1 << 20),
        ReplConfig::with_cluster_size(n),
    );
    let root = p.replicate_root(head)?;
    p.set_global("head", Value::Ref(root));
    let mut net = SimNet::new();
    let pda = net.add_device("pda", DeviceKind::Pda, 0);
    let srv = net.add_device("offload-server", DeviceKind::Desktop, 16 << 20);
    net.connect(pda, srv, LinkSpec::bluetooth())?;
    let mut off = Offloader::new(Arc::new(Mutex::new(net)), pda, srv);
    // Offload every object (walk the chain first for handles).
    let mut handles = vec![root];
    loop {
        let last = *handles
            .last()
            .ok_or_else(|| BenchError::msg("handle chain empty"))?;
        match p.field_value(last, "next")? {
            Value::Ref(r) => handles.push(r),
            _ => break,
        }
    }
    // Offload from the tail so surrogate patching stays local.
    for &h in handles.iter().rev() {
        off.offload(&mut p, h)?;
    }
    // Discard the second half: the head global keeps only the chain of
    // surrogates… per-object offload replaced each object by a surrogate
    // whose holders were patched; cutting means dropping the global that
    // anchors the second half: sever at n/2 by clearing the surrogate
    // chain — the first surrogate of the second half loses its holder
    // when we cut the (remote) link. In this baseline the cut happens on
    // the offload server's copy; locally we emulate by unrooting.
    let half = n / 2;
    // The chain is entirely remote; local surrogates for it are owned by
    // scion pins. Cut: fetch node half-1 back, null its next, re-offload.
    let cut_oid = obiwan_heap::Oid(head.0 + half as u64 - 1);
    off.fetch_back(&mut p, cut_oid)?;
    let cut_handle = p
        .lookup_replica(cut_oid)
        .ok_or_else(|| BenchError::msg("cut node missing after fetch-back"))?;
    p.set_field_value(cut_handle, "next", Value::Null)?;
    off.offload(&mut p, cut_handle)?;
    p.collect(Collection::Full);
    // DGC epochs: one liveness message per remote object, plus
    // reclamations.
    for _ in 0..epochs {
        off.run_dgc_epoch(&mut p)?;
        p.collect(Collection::Full);
    }
    let stats = off.stats();
    Ok(DgcRow {
        approach: "per-object offload ([6,1])".to_string(),
        data_messages: stats.offloads + stats.fetches,
        control_messages: stats.dgc_messages,
    })
}

/// Run both approaches.
///
/// # Errors
///
/// Setup or housekeeping failure in either approach.
pub fn run_comparison(n: usize, cluster: usize, epochs: usize) -> Result<Vec<DgcRow>> {
    Ok(vec![
        swapping_row(n, cluster, epochs)?,
        offload_row(n, epochs)?,
    ])
}

/// Render the comparison.
pub fn render(rows: &[DgcRow], n: usize, epochs: usize) -> String {
    let mut out = format!(
        "Ablation 7 — Housekeeping traffic: local GC cooperation vs per-object DGC\n\
         ({n} objects evicted, half discarded, {epochs} housekeeping epochs)\n\n\
         {:<34}{:>16}{:>20}\n",
        "approach", "data messages", "control messages"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<34}{:>16}{:>20}\n",
            r.approach, r.data_messages, r.control_messages
        ));
    }
    out.push_str(
        "\n(Object-Swapping makes all liveness decisions locally and sends one\n\
         drop instruction per dead *cluster*; the offload DGC reports on every\n\
         remote *object* every epoch — paper §6.)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]

    use super::*;

    #[test]
    fn swapping_sends_orders_of_magnitude_fewer_control_messages() {
        let rows = run_comparison(200, 25, 4).unwrap();
        let swap = &rows[0];
        let offload = &rows[1];
        assert!(
            offload.control_messages > swap.control_messages * 10,
            "offload {} vs swapping {}",
            offload.control_messages,
            swap.control_messages
        );
        // And the dead half was actually reclaimed remotely in both.
        assert!(swap.control_messages >= 3, "dead clusters were dropped");
        assert!(offload.data_messages > swap.data_messages);
    }
}
