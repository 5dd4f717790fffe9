//! `sstore-benchmark`: the repository's one benchmark.
//!
//! ```text
//! sstore-benchmark --workload W --seed N --seconds S --trace 0|1   one run, JSON last
//! sstore-benchmark run    [--seed N] [--seconds S]   all workloads, tracing off
//! sstore-benchmark trace  [--seed N] [--seconds S]   all workloads, traced
//! sstore-benchmark repeat [--seed N] [--seconds S] [--runs R]   two sets, compared
//! sstore-benchmark calibrate                         how the arrival rates were derived
//! sstore-benchmark list                              names, units, bounds
//! sstore-benchmark manifest                          BENCHMARK.json
//! ```
//!
//! See `README.md` beside this package for what is measured and why.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod gen;
mod live;
mod report;
mod span;
mod spec;
mod stats;
mod walk;

use std::process::ExitCode;

use spec::{Workload, RUN_SECONDS, WORKLOADS};

const USAGE: &str = "usage: sstore-benchmark [run|trace|repeat|calibrate|list|manifest] \
                     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--runs R]";

struct Args {
    command: Option<String>,
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        runs: 10,
    };
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().is_some_and(|a| !a.starts_with("--")) {
        args.command = argv.next();
    }
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(spec::workload(&value).ok_or_else(|| format!("no workload {value}"))?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 1.0 && *s <= 600.0)
                    .ok_or("bad --seconds (1..=600)")?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("bad --trace (0|1)".to_string()),
                };
            }
            "--runs" => {
                args.runs = value
                    .parse()
                    .ok()
                    .filter(|r| *r >= 2)
                    .ok_or("bad --runs (at least 2)")?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sstore-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.command.as_deref() {
        Some("list") => {
            spec::print_list();
            return ExitCode::SUCCESS;
        }
        Some("manifest") => {
            print!("{}", spec::manifest_json());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let bin = match cluster::server_binary() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("sstore-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    cluster::sweep_stale_runs();
    // The named workload, or all four.
    let chosen: Vec<&Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let result = match (args.command.as_deref(), args.workload) {
        (None, Some(w)) => report::one(&bin, w, args.seed, args.seconds, args.trace),
        (None, None) => Err(format!("--workload is required\n{USAGE}")),
        (Some("run"), _) => report::suite(&bin, &chosen, args.seed, args.seconds, false),
        (Some("trace"), _) => report::suite(&bin, &chosen, args.seed, args.seconds, true),
        (Some("repeat"), _) => report::repeat(&bin, &chosen, args.seed, args.seconds, args.runs),
        (Some("calibrate"), _) => report::calibrate(&bin, args.seed, args.seconds),
        (Some(other), _) => Err(format!("unknown command {other}\n{USAGE}")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("sstore-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
