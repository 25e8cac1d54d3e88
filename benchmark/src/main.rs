//! `obiwan-benchmark`: run one workload and print its metrics.
//!
//! ```text
//! obiwan-benchmark --workload <name> --seed <n> (--seconds <s> | --ops <n>)
//!                  [--trace 0|1] [--spans <file>]
//! ```
//!
//! Every metric prints as a `name value unit` line; the last line is one
//! JSON object with `correct`, `attempted`, `failed` and the end-to-end
//! metrics (untraced) or the per-layer metrics (`--trace 1`). The exit
//! code is 0 only when every output check passed (and, traced, the child
//! spans account for op time); usage errors exit 2.

use obiwan_benchmark::{run, Limit, Options, Report, Workload};
use std::io::BufWriter;
use std::process::ExitCode;

const USAGE: &str =
    "usage: obiwan-benchmark --workload <resident|pressure-xml|pressure-tcp|churn-repair> \
--seed <n> (--seconds <s> | --ops <n>) [--trace 0|1] [--spans <file>]";

/// Set-up repetitions of an untraced run; set-up time is their median.
const SETUPS: usize = 9;

struct Args {
    workload: Workload,
    seed: u64,
    limit: Limit,
    trace: bool,
    spans: Option<String>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut limit = None;
    let mut trace = false;
    let mut spans = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                limit = Some(Limit::Seconds(s));
            }
            "--ops" => limit = Some(Limit::Ops(value.parse().map_err(|_| bad())?)),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            "--spans" => spans = Some(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if spans.is_some() && !trace {
        return Err("--spans needs --trace 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        limit: limit.ok_or("--seconds or --ops is required")?,
        trace,
        spans,
    })
}

fn bench(args: &Args) -> obiwan_benchmark::Result<ExitCode> {
    let outcome = run(&Options {
        spec: args.workload.spec(),
        seed: args.seed,
        limit: args.limit,
        trace: args.trace,
        setups: if args.trace { 1 } else { SETUPS },
    })?;
    let report = Report::new(&outcome)?;
    if let (Some(path), Some(tracer)) = (&args.spans, &outcome.tracer) {
        tracer.write_jsonl(&mut BufWriter::new(std::fs::File::create(path)?))?;
    }
    if let Some(e) = &outcome.window.first_error {
        eprintln!("first failure: {e}");
    }
    for p in &report.problems {
        eprintln!("check failed: {p}");
    }
    if !report.accounting_ok() {
        eprintln!(
            "check failed: child spans leave more than {}% of op time unaccounted",
            obiwan_benchmark::report::MAX_UNACCOUNTED_PCT
        );
    }
    print!("{}", report.lines());
    println!("{}", report.json()?);
    Ok(if report.correct && report.accounting_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("obiwan-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("obiwan-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
