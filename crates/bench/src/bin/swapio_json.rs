//! Emit the wire-format swap-I/O measurements as JSON on stdout.
//!
//! ```text
//! cargo run --release -p obiwan-bench --bin swapio_json > BENCH_swapio.json
//! ```
//!
//! Doubles as the CI decode gate: exits nonzero when, at the 100-object
//! cluster size, the binary reload decode (straight into arena objects)
//! exceeds 2× the binary encode, or the XML reload decode exceeds 15× the
//! binary reload decode — see [`swapio::check_decode_gate`].

use obiwan_bench::swapio;

fn main() -> std::process::ExitCode {
    let list_len = 400;
    match run(list_len) {
        Ok(json) => {
            print!("{json}");
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn run(list_len: usize) -> obiwan_bench::Result<String> {
    let points = swapio::run_format_sweep(list_len)?;
    swapio::check_decode_gate(&points)?;
    let histograms = swapio::run_trace_histograms(list_len, 8)?;
    Ok(swapio::formats_json(list_len, &points, &histograms))
}
