//! The command's contract: usage errors exit 2 without a result, a run
//! ends with one JSON line naming exactly the metrics `BENCHMARK.json`
//! declares for its mode.

#![allow(clippy::disallowed_methods)]

use obiwan_benchmark::report::{per_layer_names, END_TO_END};
use std::process::Command;

fn bench(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_obiwan-benchmark"))
        .args(args)
        .output()
        .unwrap();
    (
        out.status.code().unwrap(),
        String::from_utf8(out.stdout).unwrap(),
    )
}

/// The metric names in one array of the repository's `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let start = text.find(&format!("\"{section}\"")).unwrap();
    let body = &text[start..];
    let body = &body[..body.find(']').unwrap()];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_owned())
        .collect()
}

/// The metric names in a result line.
fn reported(json: &str) -> Vec<String> {
    let metrics = &json[json.find("\"metrics\": {").unwrap()..];
    let parts: Vec<&str> = metrics.split("\": {\"value\": ").collect();
    // Each name closes the part before its value.
    parts[..parts.len() - 1]
        .iter()
        .map(|s| s[s.rfind('"').unwrap() + 1..].to_owned())
        .collect()
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "resident", "--ops", "1"],
        &["--workload", "resident", "--seed", "1"],
        &["--workload", "resident", "--seed", "1", "--seconds", "0"],
        &[
            "--workload",
            "resident",
            "--seed",
            "1",
            "--ops",
            "1",
            "--trace",
            "2",
        ],
        &[
            "--workload",
            "resident",
            "--seed",
            "1",
            "--ops",
            "1",
            "--spans",
            "spans.jsonl",
        ],
        &["--frobnicate", "1"],
    ] {
        let (code, stdout) = bench(args);
        assert_eq!(code, 2, "{args:?}");
        assert!(stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn result_lines_carry_exactly_the_declared_metrics() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let (code, stdout) = bench(&[
            "--workload",
            "resident",
            "--seed",
            "3",
            "--ops",
            "20",
            "--trace",
            trace,
        ]);
        assert_eq!(code, 0, "{stdout}");
        let last = stdout.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 20, \"failed\": 0, "));
        assert_eq!(reported(last), declared(section), "trace {trace}");
    }
    assert_eq!(declared("end_to_end"), END_TO_END.map(String::from));
    assert_eq!(declared("per_layer"), per_layer_names());
}
