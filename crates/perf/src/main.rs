//! Command-line entry of the benchmark.
//!
//! ```text
//! mtgpu-perf --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!            [--out ABSOLUTE_PATH]
//! ```
//!
//! Prints every metric by name with its unit, then, as the last line of
//! standard output, one JSON object `{correct, attempted, failed, metrics}`.
//! Exit code 0 only when every op verified, every audit held and every
//! replay agreed; 1 when a result was produced but is not correct; 2 when
//! the run could not be carried out.

use mtgpu_perf::{run_end_to_end, run_traced, Kind, Options};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: mtgpu-perf --workload <launch_small|bulk_copy|oversub_swap|tenant_mix|all> \
                     [--seed N] [--seconds S] [--trace 0|1] [--out ABSOLUTE_PATH]";

/// The command line; `None` keeps the benchmark's default.
#[derive(Default)]
struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = Some(value.parse().map_err(|_| bad("a seed"))?),
            "--seconds" => {
                let seconds: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("between 0 and 600 seconds"));
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => {
                let path = PathBuf::from(value);
                if !path.is_absolute() {
                    return Err(bad("an absolute path"));
                }
                parsed.out = Some(path);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

/// Runs every workload, each in a fresh process so that peak memory and
/// set-up are measured per workload, and waits for each.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark binary: {e}");
            return ExitCode::from(2);
        }
    };
    let mut worst = 0u8;
    for kind in Kind::ALL {
        let rewritten: Vec<String> = args
            .iter()
            .scan(false, |after_workload, a| {
                let out = if *after_workload { kind.name().to_string() } else { a.clone() };
                *after_workload = a == "--workload";
                Some(out)
            })
            .collect();
        let code = match std::process::Command::new(&exe).args(&rewritten).status() {
            Ok(status) => status.code().unwrap_or(2) as u8,
            Err(e) => {
                eprintln!("cannot start {}: {e}", kind.name());
                2
            }
        };
        worst = worst.max(code);
    }
    ExitCode::from(worst)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if parsed.workload == "all" {
        return run_all(&args);
    }
    let Some(kind) = Kind::parse(&parsed.workload) else {
        eprintln!("unknown workload `{}`\n{USAGE}", parsed.workload);
        return ExitCode::from(2);
    };
    let defaults = Options::new(kind);
    let opts = Options {
        seed: parsed.seed.unwrap_or(defaults.seed),
        seconds: parsed.seconds.unwrap_or(defaults.seconds),
        out: parsed.out,
        ..defaults
    };
    // Before any thread exists, so that all of them inherit the mask.
    match mtgpu_perf::sys::pin_to_one_cpu() {
        Some(cpu) => println!("pinned to CPU {cpu}"),
        None => println!("not pinned: no CPU affinity call here, wall metrics will be noisier"),
    }
    let outcome = if parsed.trace { run_traced(&opts) } else { run_end_to_end(&opts) };
    match outcome {
        Ok(report) => {
            print!("{}", report.table());
            println!("{}", report.json_line());
            ExitCode::from(u8::from(!report.correct()))
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            ExitCode::from(2)
        }
    }
}
