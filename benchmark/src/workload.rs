//! The four workloads and the seeded page generator.
//!
//! Every workload runs the same operation — a *page*: point the `cursor`
//! global at a page-head global `p<i>` and take up to [`PAGE_STEPS`]
//! `next` steps through it, Figure 5 test B1's access pattern. What
//! differs is the world the pages run in, chosen so each workload loads a
//! different layer (see the crate README for the reasoning per workload).

use obiwan_core::WireFormatKind;

/// `next` steps per page, and the spacing of page-head globals.
pub const PAGE_STEPS: usize = 100;

/// Quota of every storage device, simulated or daemon (`MiddlewareBuilder`'s
/// default laptop quota).
pub const STORE_QUOTA: usize = 16 << 20;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 5's world with room to spare: proxy dispatch, interception
    /// and the heap, with no blob traffic at all.
    Resident,
    /// The paper's scenario: a memory-starved PDA swapping XML blobs to a
    /// Bluetooth laptop on the simulated fabric.
    PressureXml,
    /// The same graph and page sequence over two live `obiwan-blobd`
    /// daemons behind the netd actor runtime, binary blobs, k = 2.
    PressureTcp,
    /// Scripted store churn with a concurrent open-loop maintenance caller
    /// sharing the manager's shard lock table.
    ChurnRepair,
}

/// Where blobs go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// The deterministic simulation with this many Bluetooth laptops.
    Sim {
        /// Storage devices in the room.
        stores: usize,
    },
    /// The netd actor runtime fronting this many in-process loopback
    /// `obiwan-blobd` daemons (one connection each, no pacing sleeps).
    Tcp {
        /// Daemons, one per storage device.
        daemons: usize,
    },
}

/// Everything that defines one workload's world and load.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// List length.
    pub nodes: usize,
    /// Device heap capacity in bytes.
    pub device_memory: usize,
    /// Wire format of swap-out blobs.
    pub wire: WireFormatKind,
    /// Holders per swap-out blob.
    pub replication_factor: usize,
    /// The fabric and its storage devices.
    pub fabric: Fabric,
    /// Run the built-in memory-watermark policies.
    pub builtin_policies: bool,
    /// Draw 80 % of pages from the first 20 % (otherwise uniform).
    pub skewed: bool,
    /// Run a collection every this many ops.
    pub gc_every: Option<u64>,
    /// Depart one store (and return the previous absentee) every this
    /// many ops.
    pub churn_every: Option<u64>,
    /// Rate of the open-loop maintenance caller, per second.
    pub sweeps_per_s: Option<u32>,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Resident,
        Workload::PressureXml,
        Workload::PressureTcp,
        Workload::ChurnRepair,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Resident => "resident",
            Workload::PressureXml => "pressure-xml",
            Workload::PressureTcp => "pressure-tcp",
            Workload::ChurnRepair => "churn-repair",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The full-size world.
    pub fn spec(self) -> Spec {
        match self {
            Workload::Resident => self.spec_with_nodes(10_000),
            _ => self.spec_with_nodes(20_000),
        }
    }

    /// The workload's world scaled to `nodes` list nodes (memory scales
    /// with the data; the smoke tests run small worlds).
    pub fn spec_with_nodes(self, nodes: usize) -> Spec {
        let data = nodes * 64;
        // The three swapping workloads share one graph, memory budget and
        // page mix, so their differences are the fabric and wire format.
        let pressure = Spec {
            nodes,
            device_memory: data * 2 / 5 + (64 << 10),
            wire: WireFormatKind::Xml,
            replication_factor: 1,
            fabric: Fabric::Sim { stores: 1 },
            builtin_policies: true,
            skewed: true,
            gc_every: None,
            churn_every: None,
            sweeps_per_s: None,
        };
        match self {
            // Figure 5's world, without watermark policies. Every step mints
            // a fresh proxy (about 55 B), so the client collects every 500
            // ops: 1 000 ops of garbage would overflow the heap and evict.
            Workload::Resident => Spec {
                device_memory: data * 8 + (1 << 20),
                builtin_policies: false,
                skewed: false,
                gc_every: Some(500),
                ..pressure
            },
            Workload::PressureXml => pressure,
            Workload::PressureTcp => Spec {
                wire: WireFormatKind::Binary,
                replication_factor: 2,
                fabric: Fabric::Tcp { daemons: 2 },
                ..pressure
            },
            Workload::ChurnRepair => Spec {
                wire: WireFormatKind::Binary,
                replication_factor: 2,
                fabric: Fabric::Sim { stores: 3 },
                churn_every: Some(500),
                sweeps_per_s: Some(250),
                ..pressure
            },
        }
    }
}

impl Spec {
    /// Page-head globals in the world (one every [`PAGE_STEPS`] nodes).
    pub fn pages(&self) -> usize {
        self.nodes.div_ceil(PAGE_STEPS)
    }

    /// Steps a page must return: a full page, or what is left before the
    /// end of the list.
    pub fn expected_steps(&self, page: usize) -> usize {
        PAGE_STEPS.min(self.nodes - 1 - page * PAGE_STEPS)
    }
}

/// The seeded, endless page sequence. The seed enters the benchmark only
/// here; the client loop sees page indices.
#[derive(Debug, Clone)]
pub struct PageStream {
    state: u64,
    pages: u64,
    hot: u64,
}

impl PageStream {
    /// Pages for `spec`, drawn from `seed`.
    pub fn new(seed: u64, spec: &Spec) -> PageStream {
        let pages = spec.pages() as u64;
        PageStream {
            state: seed,
            pages,
            hot: if spec.skewed { (pages / 5).max(1) } else { 0 },
        }
    }

    fn next_u64(&mut self) -> u64 {
        // splitmix64
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl Iterator for PageStream {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let r = self.next_u64();
        let cold = self.pages - self.hot;
        let page = if self.hot == 0 || cold == 0 {
            r % self.pages
        } else if (r >> 40) % 5 < 4 {
            (r & 0xff_ffff) % self.hot
        } else {
            self.hot + (r & 0xff_ffff) % cold
        };
        Some(page as usize)
    }
}
