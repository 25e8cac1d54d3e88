//! The seed alone fixes the work: one seed run twice over a fixed op
//! count repeats every count metric exactly, and another seed draws
//! another page sequence.

#![allow(clippy::disallowed_methods)]

use obiwan_benchmark::{run, Limit, Options, PageStream, Report, Workload};

const COUNTS: [&str; 6] = [
    "manager.swap_ins_per_op",
    "wire_bytes_per_op",
    "airtime_ms_per_op",
    "manager.swap_outs_per_op",
    "manager.proxies_created_per_op",
    "blobd.used_bytes_end",
];

fn counts(workload: Workload, seed: u64) -> Vec<f64> {
    let outcome = run(&Options {
        spec: workload.spec_with_nodes(2_000),
        seed,
        limit: Limit::Ops(150),
        trace: false,
        setups: 1,
    })
    .unwrap();
    let report = Report::new(&outcome).unwrap();
    assert!(report.correct, "{:?}", report.problems);
    COUNTS
        .iter()
        .map(|name| report.get(name).unwrap())
        .collect()
}

#[test]
fn one_seed_repeats_every_count_exactly() {
    for workload in [
        Workload::Resident,
        Workload::PressureXml,
        Workload::PressureTcp,
    ] {
        assert_eq!(
            counts(workload, 21),
            counts(workload, 21),
            "{}",
            workload.name()
        );
    }
}

#[test]
fn another_seed_draws_another_page_sequence() {
    let spec = Workload::PressureXml.spec();
    let a: Vec<usize> = PageStream::new(1, &spec).take(200).collect();
    let b: Vec<usize> = PageStream::new(2, &spec).take(200).collect();
    assert_ne!(a, b);
    assert_eq!(a, PageStream::new(1, &spec).take(200).collect::<Vec<_>>());
    // 80 % of pages come from the first fifth.
    let hot = PageStream::new(3, &spec)
        .take(10_000)
        .filter(|&p| p < spec.pages() / 5)
        .count();
    assert!((7_600..8_400).contains(&hot), "{hot} hot pages of 10 000");
}
