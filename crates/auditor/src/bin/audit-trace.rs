//! Replay a bench-style workload and audit swap-cluster invariants after
//! every operation.
//!
//! ```text
//! cargo run -p obiwan-auditor --bin audit-trace -- --nodes 300 --steps 400
//! ```
//!
//! Exits 0 when no error-severity violation was found (warnings — departed
//! devices, raw globals — are reported but tolerated), 1 when the graph
//! was corrupted, 2 on usage or setup failure.

use obiwan_auditor::scenario::{replay, TraceConfig};
use std::process::ExitCode;

const USAGE: &str = "\
audit-trace: replay a swapping workload, auditing graph invariants after every step

USAGE:
    audit-trace [OPTIONS]

OPTIONS:
    --nodes <N>         list length to build                 [default: 200]
    --payload <BYTES>   payload bytes per node               [default: 64]
    --cluster-size <N>  objects per replication cluster      [default: 20]
    --memory <BYTES>    device heap capacity                 [default: 24576]
    --steps <N>         operations to replay                 [default: 300]
    --seed <N>          schedule seed                        [default: 7]
    --wire-format <F>   blob wire format: xml | binary | lz-binary
                                                             [default: xml]
    --replication-factor <K>
                        holder devices per swap-out blob     [default: 1]
    --shards <N>        shards in the manager's lock table; 1 replays the
                        single-lock shape, larger values spread clusters
                        across shards                        [default: 8]
    --transport <T>     swap fabric to replay over: sim (deterministic
                        simulation) | tcp (in-process obiwan-blobd daemons
                        behind the actor runtime, real sockets)
                                                             [default: sim]
    --churn             scripted churn: every 25 steps a storage device
                        departs and the previous absentee returns,
                        exercising holder-loss repair under audit
    --trace-out <PATH>  write the run's lifecycle trace as deterministic
                        JSON (feed it to `trace-verify`)
    --verbose           print every step, not just violating ones
    --help              show this message
";

struct Options {
    cfg: TraceConfig,
    verbose: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Option<Options>, String> {
    let mut cfg = TraceConfig::default();
    let mut verbose = false;
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut numeric = |name: &str| -> Result<u64, String> {
            args.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse::<u64>()
                .map_err(|e| format!("{name}: {e}"))
        };
        match arg.as_str() {
            "--nodes" => cfg.nodes = numeric("--nodes")? as usize,
            "--payload" => cfg.payload = numeric("--payload")? as usize,
            "--cluster-size" => cfg.cluster_size = numeric("--cluster-size")? as usize,
            "--memory" => cfg.device_memory = numeric("--memory")? as usize,
            "--steps" => cfg.steps = numeric("--steps")? as usize,
            "--seed" => cfg.seed = numeric("--seed")?,
            "--wire-format" => {
                cfg.wire_format = args
                    .next()
                    .ok_or_else(|| "--wire-format needs a value".to_string())?
                    .parse()?
            }
            "--replication-factor" => {
                cfg.replication_factor = numeric("--replication-factor")?.max(1) as usize
            }
            "--shards" => cfg.shards = numeric("--shards")?.max(1) as usize,
            "--transport" => {
                cfg.transport = match args
                    .next()
                    .ok_or_else(|| "--transport needs a value".to_string())?
                    .as_str()
                {
                    "sim" => obiwan_net::TransportKind::Sim,
                    "tcp" => obiwan_net::TransportKind::Tcp,
                    other => return Err(format!("--transport: `{other}` is not sim | tcp")),
                }
            }
            "--churn" => cfg.churn = true,
            "--trace-out" => {
                trace_out = Some(
                    args.next()
                        .ok_or_else(|| "--trace-out needs a path".to_string())?,
                )
            }
            "--verbose" => verbose = true,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(Some(Options {
        cfg,
        verbose,
        trace_out,
    }))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("audit-trace: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    println!(
        "replaying {} steps over a {}-node list ({} B payload, {} objects/cluster, {} B heap, seed {}, {} blobs, k = {}, {} shard(s){}, transport {})",
        opts.cfg.steps,
        opts.cfg.nodes,
        opts.cfg.payload,
        opts.cfg.cluster_size,
        opts.cfg.device_memory,
        opts.cfg.seed,
        opts.cfg.wire_format,
        opts.cfg.replication_factor,
        opts.cfg.shards,
        if opts.cfg.churn { ", churn on" } else { "" },
        match opts.cfg.transport {
            obiwan_net::TransportKind::Sim => "sim",
            obiwan_net::TransportKind::Tcp => "tcp",
        },
    );

    let outcome = match replay(&opts.cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("audit-trace: replay failed: {e}");
            return ExitCode::from(2);
        }
    };

    for s in &outcome.steps {
        if opts.verbose || s.errors > 0 {
            println!(
                "step {:>4}: {:<40} {} error(s), {} warning(s)",
                s.step, s.op, s.errors, s.warnings
            );
        }
    }

    println!(
        "\n{} swap-out(s), {} reload(s) during the trace",
        outcome.swap_outs, outcome.swap_ins
    );
    println!(
        "{} collection(s): {} full, {} minor",
        outcome.gc_runs,
        outcome.gc_runs - outcome.minor_gc_runs,
        outcome.minor_gc_runs
    );
    print!("{}", outcome.final_report);

    if let Some(path) = &opts.trace_out {
        if let Err(e) = std::fs::write(path, outcome.trace.to_json()) {
            eprintln!("audit-trace: writing trace to `{path}`: {e}");
            return ExitCode::from(2);
        }
        println!(
            "trace: {} event(s) written to {path} ({} dropped by the ring)",
            outcome.trace.events.len(),
            outcome.trace.meta.dropped
        );
    }

    if outcome.has_errors() {
        println!("RESULT: graph invariants VIOLATED");
        ExitCode::FAILURE
    } else {
        println!("RESULT: all invariants hold at every step");
        ExitCode::SUCCESS
    }
}
