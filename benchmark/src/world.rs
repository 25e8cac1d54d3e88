//! Building a workload's world: the master list, the middleware over the
//! chosen fabric (optionally behind [`TimedTransport`]), and the setup
//! walk that stores the page-head globals.

use crate::drive::step_through;
use crate::trace::{TimedTransport, Tracer};
use crate::workload::{Fabric, Spec, PAGE_STEPS, STORE_QUOTA};
use crate::{BenchError, Result};
use obiwan_bench::workloads::PAYLOAD_FOR_64B;
use obiwan_blobd::{Blobd, BlobdHandle};
use obiwan_core::Middleware;
use obiwan_heap::Value;
use obiwan_net::{DeviceId, DeviceKind, LinkSpec, NetFabric, SimNet, Transport};
use obiwan_netd::ActorNet;
use obiwan_replication::{standard_classes, Server};
use std::sync::{Arc, Mutex};

/// The global the pages iterate through.
pub const CURSOR: &str = "cursor";

/// Retry budget of every `invoke_resilient` call.
pub const RETRIES: usize = 1_000;

/// A built, walked world ready for pages.
pub struct World {
    /// The middleware under test.
    pub mw: Middleware,
    /// What it was built from.
    pub spec: Spec,
    /// Page-head global names, `p0`, `p1`, …
    pub heads: Vec<String>,
    /// The storage devices, in id order.
    pub stores: Vec<DeviceId>,
    /// Loopback daemons of a TCP world (shut down on drop).
    pub daemons: Vec<BlobdHandle>,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("spec", &self.spec)
            .field("stores", &self.stores)
            .field("daemons", &self.daemons.len())
            .finish_non_exhaustive()
    }
}

impl Drop for World {
    fn drop(&mut self) {
        for d in &self.daemons {
            d.shutdown();
        }
    }
}

impl World {
    /// Build `spec`'s world; with a `tracer`, the fabric sits behind a
    /// [`TimedTransport`] recording into it.
    ///
    /// # Errors
    ///
    /// Daemon spawn failures, middleware failures during the setup walk,
    /// or a walk that does not see every node.
    pub fn build(spec: &Spec, tracer: Option<Arc<Tracer>>) -> Result<World> {
        let mut server = Server::new(standard_classes());
        let head = server.build_list("Node", spec.nodes, PAYLOAD_FOR_64B)?;
        let universe = server.classes().clone();
        let mut daemons = Vec::new();
        let (net, home, stores) = match spec.fabric {
            Fabric::Sim { stores } => {
                let mut net = SimNet::new();
                let home = net.add_device("pda", DeviceKind::Pda, 0);
                let mut ids = Vec::new();
                for i in 0..stores {
                    let d = net.add_device(format!("store-{i}"), DeviceKind::Laptop, STORE_QUOTA);
                    net.connect(home, d, LinkSpec::bluetooth())?;
                    ids.push(d);
                }
                let fabric = match tracer {
                    Some(t) => NetFabric::backend(Box::new(TimedTransport::new(net, t))),
                    None => NetFabric::sim(net),
                };
                (fabric, home, ids)
            }
            Fabric::Tcp { daemons: n } => {
                // Latency divisor stays at its default 0: no pacing sleeps,
                // so the time measured is actors, sockets and daemons.
                let mut net = ActorNet::new();
                let home = net.add_device("pda", DeviceKind::Pda, 0);
                let mut ids = Vec::new();
                for i in 0..n {
                    let daemon = Blobd::spawn_local(STORE_QUOTA)?;
                    let d = net.add_remote_device(
                        format!("store-{i}"),
                        DeviceKind::Laptop,
                        STORE_QUOTA,
                        daemon.addr(),
                    );
                    daemons.push(daemon);
                    net.connect(home, d, LinkSpec::bluetooth())?;
                    ids.push(d);
                }
                let fabric = match tracer {
                    Some(t) => NetFabric::backend(Box::new(TimedTransport::new(net, t))),
                    None => NetFabric::backend(Box::new(net)),
                };
                (fabric, home, ids)
            }
        };
        let mut builder = Middleware::builder()
            .device_memory(spec.device_memory)
            .wire_format(spec.wire)
            .replication_factor(spec.replication_factor);
        if !spec.builtin_policies {
            builder = builder.no_builtin_policies();
        }
        let mw = builder.build_in_world(
            universe,
            server.into_shared(),
            Arc::new(Mutex::new(net)),
            home,
        );
        let mut world = World {
            mw,
            spec: spec.clone(),
            heads: (0..spec.pages()).map(|i| format!("p{i}")).collect(),
            stores,
            daemons,
        };
        let root = world.mw.replicate_root(head)?;
        world.mw.set_global("p0", Value::Ref(root));
        let seen = world.walk(|mw, node, value| {
            if node % PAGE_STEPS == 0 {
                mw.set_global(format!("p{}", node / PAGE_STEPS), value.clone());
            }
        })?;
        if seen != spec.nodes {
            return Err(BenchError::msg(format!(
                "setup walk saw {seen} nodes, expected {}",
                spec.nodes
            )));
        }
        world.mw.run_gc()?;
        Ok(world)
    }

    /// Walk the whole list from `p0`, calling `visit` with each node's
    /// index and reference after `p0`; returns the nodes seen.
    ///
    /// # Errors
    ///
    /// Any invocation failure.
    pub fn walk(&mut self, visit: impl FnMut(&mut Middleware, usize, &Value)) -> Result<usize> {
        Ok(step_through(&mut self.mw, "p0", usize::MAX, None, visit)? + 1)
    }

    /// Depart the next store round-robin and return the previous absentee
    /// (the first call only departs).
    ///
    /// # Errors
    ///
    /// Lock poisoning or unknown devices.
    pub fn churn(&mut self, round: u64) -> Result<()> {
        let n = self.stores.len() as u64;
        if n == 0 {
            return Ok(());
        }
        let net = self.mw.net();
        let mut net = net
            .lock()
            .map_err(|_| BenchError::msg("net lock poisoned"))?;
        if round > 0 {
            net.arrive(self.stores[((round - 1) % n) as usize])?;
        }
        net.depart(self.stores[(round % n) as usize])?;
        Ok(())
    }

    /// Bytes the loopback daemons charge against their quotas.
    ///
    /// # Errors
    ///
    /// Lock poisoning or a daemon that does not answer.
    pub fn daemon_bytes(&self) -> Result<u64> {
        if self.daemons.is_empty() {
            return Ok(0);
        }
        let net = self.mw.net();
        let net = net
            .lock()
            .map_err(|_| BenchError::msg("net lock poisoned"))?;
        let mut total = 0;
        for &d in &self.stores {
            total += net.stored_bytes(d)? as u64;
        }
        Ok(total)
    }

    /// Requests the loopback daemons have served.
    pub fn daemon_ops(&self) -> u64 {
        self.daemons.iter().map(BlobdHandle::ops_served).sum()
    }
}
