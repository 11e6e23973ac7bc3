//! `stepbench --workload W --seed N --seconds S --trace 0|1 [--spans P]`
//!
//! Prints the run's result as one JSON object on the last line of
//! standard output; exits non-zero, without a result, when the run
//! cannot be made.

use std::process::ExitCode;

fn main() -> ExitCode {
    let result = stepbench::bench::Args::parse(std::env::args().skip(1))
        .and_then(|args| stepbench::bench::run(&args))
        .and_then(|json| Ok(json.to_string()?));
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("stepbench: {e}");
            ExitCode::FAILURE
        }
    }
}
