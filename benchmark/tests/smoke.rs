//! Every workload at small scale, traced and untraced: the output checks
//! pass, nothing fails, and the traced split shows each workload loading
//! the layer it exists for.

#![allow(clippy::disallowed_methods)]

use obiwan_benchmark::{run, Limit, Options, Report, Workload};

fn small(workload: Workload, trace: bool) -> Report {
    let mut spec = workload.spec_with_nodes(2_000);
    if spec.churn_every.is_some() {
        spec.churn_every = Some(40);
    }
    let outcome = run(&Options {
        spec,
        seed: 5,
        limit: Limit::Ops(200),
        trace,
        setups: 1,
    })
    .unwrap();
    let report = Report::new(&outcome).unwrap();
    assert!(report.correct, "{}: {:?}", workload.name(), report.problems);
    assert_eq!(report.failed, 0, "{}", workload.name());
    assert!(report.accounting_ok(), "{}", workload.name());
    // The closing JSON line carries the selected metric set.
    let json = report.json().unwrap();
    assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
    report
}

fn get(r: &Report, name: &str) -> f64 {
    r.get(name).unwrap_or_else(|| panic!("{name} not measured"))
}

#[test]
fn resident_touches_no_blob_layer() {
    small(Workload::Resident, false);
    let r = small(Workload::Resident, true);
    assert_eq!(get(&r, "manager.swap_outs_per_op"), 0.0);
    assert_eq!(get(&r, "net.send.calls_per_op"), 0.0);
    assert_eq!(get(&r, "net.fetch.calls_per_op"), 0.0);
    assert_eq!(get(&r, "middleware.invoke.calls_per_op"), 100.0);
    assert!(
        get(&r, "middleware.run_gc.calls") == 0.0,
        "no collection due in 200 ops"
    );
}

#[test]
fn pressure_xml_swaps_over_the_simulated_fabric() {
    small(Workload::PressureXml, false);
    let r = small(Workload::PressureXml, true);
    assert!(get(&r, "manager.swap_ins_per_op") > 0.0);
    assert!(get(&r, "net.fetch.calls_per_op") > 0.0);
    assert!(get(&r, "airtime_ms_per_op") > 0.0);
    assert_eq!(get(&r, "blobd.ops_per_op"), 0.0);
}

#[test]
fn pressure_tcp_runs_over_two_live_daemons() {
    small(Workload::PressureTcp, false);
    let r = small(Workload::PressureTcp, true);
    assert!(get(&r, "manager.swap_ins_per_op") > 0.0);
    assert!(get(&r, "blobd.ops_per_op") > 0.0);
    assert!(get(&r, "blobd.used_bytes_end") > 0.0);
    assert!(get(&r, "net.control.free_storage.busy_us_per_op") > 0.0);
}

#[test]
fn churn_repair_sweeps_beside_the_client() {
    small(Workload::ChurnRepair, false);
    let r = small(Workload::ChurnRepair, true);
    assert!(get(&r, "manager.sweep.calls") > 0.0);
    assert!(get(&r, "maint_p50_us") > 0.0);
    assert!(get(&r, "manager.repairs") > 0.0);
}
