//! `cargo run --release --manifest-path scabench/Cargo.toml -- \
//!     --workload <interactive|warm-scan|cold-batch|watch> --seed <n> \
//!     --seconds <n> --trace <0|1>`
//!
//! Prints the metric table and the run's provenance, then, as the last
//! line of stdout, the result object. Exits 1 on any failed or
//! mismatched operation (after printing the result) and 2 when the run
//! cannot be set up (without printing one).

use std::fs;
use std::process::ExitCode;

use scabench::bench::{out_dir, run, Args};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("scabench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("scabench: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", outcome.table());
    println!("provenance {}", outcome.provenance());
    let record = out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = fs::write(&record, format!("{}\n", outcome.record_json())) {
        eprintln!("scabench: {}: {e}", record.display());
    }
    println!("{}", outcome.result_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
