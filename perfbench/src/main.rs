//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one workload (see `NOTES.md`) for `--seconds` of host time, checks
//! its outputs, prints every metric by name and unit, and ends with one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer ones. Exits
//! non-zero when a check fails or the arguments are wrong.

// A timing harness, like `daris-bench`: host time is what it measures, and
// no simulated state ever sees it (determinism rule D002).
#![allow(clippy::disallowed_methods)]

mod checks;
mod probe;
mod record;
mod stats;
mod workloads;

use std::process::ExitCode;

use record::Record;
use workloads::{Options, WORKLOADS};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Host seconds measured when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 10.0;

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let workloads::Outcome { mut checks, releases, metrics, notes } =
        workloads::run(&opts).expect("the workload name was validated");
    for metric in metrics.iter().filter(|m| !m.value.is_finite()) {
        checks.expect(false, || format!("metric {} is not a finite number", metric.name));
    }
    let record = Record::new(checks.passed(), releases, metrics);

    println!("# perfbench {} seed {} trace {}", opts.workload, opts.seed, u8::from(opts.trace));
    for line in notes.iter().chain(&record.lines()) {
        println!("{line}");
    }
    for failure in checks.failures() {
        println!("CHECK FAILED: {failure}");
    }
    if !record.correct {
        return ExitCode::FAILURE;
    }
    println!("{}", record.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let opts =
            parse_args(&args("--workload fleet64_bursty --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(
            opts,
            Options { workload: "fleet64_bursty".into(), seed: 7, seconds: 12.0, trace: true }
        );
    }

    #[test]
    fn seed_and_seconds_have_defaults() {
        let opts = parse_args(&args("--workload gpu_mixed_jitter")).unwrap();
        assert_eq!((opts.seed, opts.seconds, opts.trace), (DEFAULT_SEED, DEFAULT_SECONDS, false));
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload gpu_mixed_jitter --trace 2")).is_err());
        assert!(parse_args(&args("--workload gpu_mixed_jitter --seed")).is_err());
        assert!(parse_args(&args("--workload gpu_mixed_jitter --seconds -1")).is_err());
        assert!(parse_args(&args("--workload gpu_mixed_jitter --extra 1")).is_err());
        assert!(parse_args(&args("")).is_err());
    }
}
