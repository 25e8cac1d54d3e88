//! One verb script, two fabrics.
//!
//! Each test runs the same script against the deterministic `SimNet` and
//! the live `ActorNet` (in-process `MemStore` actors) and compares every
//! result except the clock: `now`/`advance` are virtual on one fabric and
//! wall time on the other. After every step the whole observable state is
//! logged (topology, presence, routes, quota, keys, holders, traffic), so
//! a divergence is reported at the first step where the fabrics disagree.

use obiwan_net::{Bytes, DeviceId, DeviceKind, FailurePlan, LinkSpec, SimNet, Transport};
use obiwan_netd::ActorNet;
use proptest::prelude::*;

const KEYS: [&str; 6] = ["k0", "k1", "k2", "k3", "k4", "k5"];

#[derive(Debug, Clone)]
enum Step {
    Connect(u32, u32, LinkSpec),
    Disconnect(u32, u32),
    Depart(u32),
    Arrive(u32),
    Plan(u32, FailurePlan),
    Send {
        from: u32,
        to: u32,
        key: usize,
        len: usize,
        routed: bool,
    },
    Fetch {
        from: u32,
        to: u32,
        key: usize,
        routed: bool,
    },
    Drop {
        from: u32,
        to: u32,
        key: usize,
        routed: bool,
    },
}

fn id(raw: u32) -> DeviceId {
    DeviceId::from_index(raw)
}

fn key(k: usize) -> &'static str {
    KEYS[k % KEYS.len()]
}

fn payload(k: usize, len: usize) -> Bytes {
    Bytes::from(vec![b'a' + (k % KEYS.len()) as u8; len])
}

/// The same devices, in the same order, on both fabrics.
fn worlds(quotas: &[usize]) -> (SimNet, ActorNet) {
    let mut sim = SimNet::new();
    let mut live = ActorNet::new();
    for (i, &quota) in quotas.iter().enumerate() {
        let kind = if i == 0 {
            DeviceKind::Pda
        } else {
            DeviceKind::Laptop
        };
        assert_eq!(
            sim.add_device(format!("d{i}"), kind, quota),
            live.add_device(format!("d{i}"), kind, quota)
        );
    }
    (sim, live)
}

fn apply(net: &mut dyn Transport, step: &Step) -> String {
    match *step {
        Step::Connect(a, b, link) => format!("{:?}", net.connect(id(a), id(b), link)),
        Step::Disconnect(a, b) => {
            net.disconnect(id(a), id(b));
            String::new()
        }
        Step::Depart(d) => format!("{:?}", net.depart(id(d))),
        Step::Arrive(d) => format!("{:?}", net.arrive(id(d))),
        Step::Plan(d, ref plan) => format!("{:?}", net.set_failure_plan(id(d), plan.clone())),
        Step::Send {
            from,
            to,
            key: k,
            len,
            routed,
        } => {
            let (from, to, data) = (id(from), id(to), payload(k, len));
            if routed {
                format!("{:?}", net.send_blob_routed(from, to, key(k), data))
            } else {
                format!("{:?}", net.send_blob(from, to, key(k), data))
            }
        }
        Step::Fetch {
            from,
            to,
            key: k,
            routed,
        } => {
            if routed {
                format!("{:?}", net.fetch_blob_routed(id(from), id(to), key(k)))
            } else {
                format!("{:?}", net.fetch_blob(id(from), id(to), key(k)))
            }
        }
        Step::Drop {
            from,
            to,
            key: k,
            routed,
        } => {
            if routed {
                format!("{:?}", net.drop_blob_routed(id(from), id(to), key(k)))
            } else {
                format!("{:?}", net.drop_blob(id(from), id(to), key(k)))
            }
        }
    }
}

/// Every clock-free query, over every device plus one unknown id.
fn snapshot(net: &dyn Transport, out: &mut Vec<String>) {
    let ids = net.device_ids();
    out.push(format!(
        "ids {ids:?} churn {} traffic {:?}",
        net.churn_seq(),
        net.traffic()
    ));
    let unknown = id(ids.len() as u32);
    for &d in ids.iter().chain([&unknown]) {
        out.push(format!(
            "{d}: profile {:?} present {} nearby {:?} reachable {:?} free {:?} stored {:?} keys {:?}",
            net.profile(d),
            net.is_present(d),
            net.nearby(d),
            net.reachable(d),
            net.free_storage(d),
            net.stored_bytes(d),
            net.blob_keys(d),
        ));
        for &e in &ids {
            out.push(format!(
                "{d}->{e}: link {:?} route {:?}",
                net.link(d, e),
                net.route(d, e)
            ));
        }
    }
    for k in KEYS {
        out.push(format!("holders {k}: {:?}", net.holders_of_key(k)));
    }
}

/// Blob contents, read once at the end of a script.
fn contents(net: &dyn Transport, out: &mut Vec<String>) {
    for d in net.device_ids() {
        for k in KEYS {
            out.push(format!(
                "{d} {k}: holds {} data {:?}",
                net.holds_blob(d, k),
                net.blob_data(d, k)
            ));
        }
    }
}

fn run(net: &mut dyn Transport, script: &[Step]) -> Vec<String> {
    let mut log = Vec::new();
    for step in script {
        let result = apply(net, step);
        log.push(format!("{step:?} -> {result}"));
        snapshot(net, &mut log);
    }
    contents(net, &mut log);
    log
}

/// The first line where two logs disagree, with the step that led to it.
fn divergence(sim: &[String], live: &[String]) -> Option<String> {
    let at = sim
        .iter()
        .zip(live)
        .position(|(a, b)| a != b)
        .or_else(|| (sim.len() != live.len()).then(|| sim.len().min(live.len())))?;
    let step = sim[..at]
        .iter()
        .rev()
        .find(|line| line.contains(" -> "))
        .map_or("(set-up)", String::as_str);
    Some(format!(
        "after {step}\n   sim: {:?}\n  live: {:?}",
        sim.get(at),
        live.get(at)
    ))
}

#[test]
fn fixed_script_agrees_on_discovery_order_ties_keys_holders_and_airtime() {
    let mut script: Vec<Step> = [(0, 1), (0, 5), (1, 9), (5, 3), (9, 7), (3, 7)]
        .into_iter()
        .map(|(a, b)| Step::Connect(a, b, LinkSpec::bluetooth()))
        .collect();
    // An injected store failure: airtime is spent before the plan fires.
    script.push(Step::Plan(5, FailurePlan::fail_once_at(0)));
    script.push(Step::Send {
        from: 0,
        to: 5,
        key: 0,
        len: 64,
        routed: false,
    });
    for k in 0..KEYS.len() {
        script.push(Step::Send {
            from: 0,
            to: 1,
            key: k,
            len: 16,
            routed: false,
        });
    }
    script.push(Step::Send {
        from: 0,
        to: 5,
        key: 0,
        len: 16,
        routed: false,
    });
    script.push(Step::Depart(1));

    let mut quotas = vec![1 << 16; 10];
    quotas[0] = 0;
    let (mut sim, mut live) = worlds(&quotas);
    let sim_log = run(&mut sim, &script);
    let live_log = run(&mut live, &script);

    let mut failures = Vec::new();
    let mut pin = |row: &str, sim: String, live: String, want: String| {
        if sim != want || live != want {
            failures.push(format!("{row}: want {want}, sim {sim}, live {live}"));
        }
    };
    let d = |raw: &[u32]| raw.iter().map(|&r| id(r)).collect::<Vec<_>>();
    pin(
        "holders_of_key leaves out a departed holder",
        format!("{:?}", sim.holders_of_key("k0")),
        format!("{:?}", live.holders_of_key("k0")),
        format!("{:?}", d(&[5])),
    );
    pin(
        "traffic charges a store refused by a failure plan",
        format!("{:?}", sim.traffic()),
        format!("{:?}", live.traffic()),
        format!("{:?}", (64 + 7 * 16, 0)),
    );
    sim.arrive(id(1)).unwrap();
    live.arrive(id(1)).unwrap();
    pin(
        "reachable lists each ring in discovery order",
        format!("{:?}", sim.reachable(id(0))),
        format!("{:?}", live.reachable(id(0))),
        format!(
            "{:?}",
            d(&[1, 5, 9, 3, 7])
                .into_iter()
                .zip([1, 1, 2, 2, 3])
                .collect::<Vec<_>>()
        ),
    );
    pin(
        "route breaks a tie by discovery order",
        format!("{:?}", sim.route(id(0), id(7)).map(|r| r.relays)),
        format!("{:?}", live.route(id(0), id(7)).map(|r| r.relays)),
        format!("{:?}", Some(d(&[1, 9]))),
    );
    pin(
        "blob_keys is sorted",
        format!("{:?}", sim.blob_keys(id(1))),
        format!("{:?}", live.blob_keys(id(1))),
        format!("{:?}", KEYS),
    );
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    if let Some(diff) = divergence(&sim_log, &live_log) {
        panic!("the fabrics diverge {diff}");
    }
}

fn link_preset(n: u16) -> LinkSpec {
    match n % 3 {
        0 => LinkSpec::bluetooth(),
        1 => LinkSpec::wifi(),
        _ => LinkSpec::mote_radio(),
    }
}

/// Decode one raw step for an `n`-device world. Most transfers start at
/// device 0, the swapping PDA, and use three keys, so fetches and drops
/// often find what an earlier send stored; endpoint `n` is an unknown
/// device, so every verb's unknown-device error is exercised too.
fn decode(n: u32, (kind, a, b, x): (u8, u8, u8, u16)) -> Step {
    let from = if a < 160 { 0 } else { u32::from(a) % (n + 1) };
    let (a, b) = (u32::from(a) % (n + 1), u32::from(b) % (n + 1));
    let (key, routed) = (usize::from(x) % 3, x & 0x10 != 0);
    match kind {
        0..=3 => Step::Send {
            from,
            to: b,
            key,
            len: usize::from(x >> 5) % 97,
            routed,
        },
        4 | 5 => Step::Fetch {
            from,
            to: b,
            key,
            routed,
        },
        6 => Step::Drop {
            from,
            to: b,
            key,
            routed,
        },
        7 => Step::Depart(a),
        8 => Step::Arrive(a),
        9 => Step::Connect(a, b, link_preset(x)),
        10 => Step::Disconnect(a, b),
        _ if x % 2 == 0 => Step::Plan(a, FailurePlan::fail_once_at(u64::from(x % 6))),
        _ => Step::Plan(a, FailurePlan::fail_with_rate(u64::from(x), 0.3)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_scripts_agree(
        n in 4u32..9,
        edges in prop::collection::vec(0u16..6, 28),
        quotas in prop::collection::vec(prop::sample::select(vec![0usize, 40, 160, 1 << 12]), 8),
        raw in prop::collection::vec((0u8..12, any::<u8>(), any::<u8>(), any::<u16>()), 4..40),
    ) {
        // A random topology: each pair is linked unless its draw is 4 or 5.
        let mut script = Vec::new();
        let mut pair = edges.iter();
        for a in 0..n {
            for b in a + 1..n {
                match pair.next() {
                    Some(&e) if e < 4 => script.push(Step::Connect(a, b, link_preset(e))),
                    _ => {}
                }
            }
        }
        script.extend(raw.into_iter().map(|r| decode(n, r)));
        let (mut sim, mut live) = worlds(&quotas[..n as usize]);
        let sim_log = run(&mut sim, &script);
        let live_log = run(&mut live, &script);
        if let Some(diff) = divergence(&sim_log, &live_log) {
            prop_assert!(false, "the fabrics diverge {}", diff);
        }
    }
}
