//! Runs workloads and prints what they measured: the driver's one-line JSON,
//! the tables of `run` and `trace`, and the two-set comparison of `repeat`.

use std::path::Path;

use crate::cluster::out_dir;
use crate::live::{self, LiveRun};
use crate::spec::{Arrival, Better, Metrics, Workload, END_TO_END, PER_LAYER, WALK_OPS, WORKLOADS};
use crate::stats::{median, spread};
use crate::{span, walk};

/// One workload's run: its metrics by name, and whether they can be trusted.
struct Measured {
    end_to_end: Metrics,
    /// The outside metrics always; the walk's too when the run was traced.
    per_layer: Metrics,
    attempted: u64,
    failed: u64,
    /// Why the numbers cannot be trusted, if they cannot.
    invalid: Option<String>,
    samples: String,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// The traced half of a run: two walks of one seed (timed at the ends, then
/// with spans), the leaf replay, and the span file.
fn traced(
    workload: &Workload,
    seed: u64,
    live: &LiveRun,
) -> Result<(Metrics, Option<String>), String> {
    let root = out_dir().join(format!("run-{}", std::process::id()));
    let result = (|| {
        let plain = walk::walk(&root.join("walk-plain"), workload, seed, WALK_OPS, false)?;
        let spanned = walk::walk(&root.join("walk-spans"), workload, seed, WALK_OPS, true)?;
        let costs = walk::replay_leaves(&spanned, &root.join("walk-replay"))?;
        let file = out_dir().join(format!("trace-{}.jsonl", workload.name));
        span::write_jsonl(&file, &spanned.spans)
            .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
        let invalid = if plain.counts.repeatable() != spanned.counts.repeatable() {
            Some(format!(
                "the walk's counts differ between two passes of seed {seed}:\n  {:?}\n  {:?}",
                plain.counts, spanned.counts
            ))
        } else if spanned.counts.ops_failed > 0 {
            Some(format!(
                "{} operations failed in the walk",
                spanned.counts.ops_failed
            ))
        } else {
            None
        };
        let metrics = spanned.metrics(&costs, &plain, live.server_cpu_us_per_op());
        Ok((metrics, invalid))
    })();
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn measure(
    bin: &Path,
    workload: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Measured, String> {
    let live = live::run(bin, workload, seed, seconds)?;
    let mut invalid = live.invalid();
    let mut per_layer = live.outside();
    if trace {
        let (walked, walk_invalid) = traced(workload, seed, &live)?;
        invalid = invalid.or(walk_invalid);
        per_layer.extend(walked);
    }
    Ok(Measured {
        end_to_end: live.end_to_end(),
        per_layer,
        attempted: live.attempted.max(1),
        failed: live.failed(),
        invalid,
        samples: format!(
            "{} reads, {} writes, {} errors, {} shed, {} wrong reads, window {:.3} s",
            live.read_ns.len(),
            live.write_ns.len(),
            live.errors,
            live.shed,
            live.wrong_reads,
            live.window_s()
        ),
    })
}

fn print_table(workload: &Workload, seed: u64, m: &Measured) {
    println!("## {} (seed {seed}): {}", workload.name, m.samples);
    for (name, value) in m.end_to_end.iter().chain(&m.per_layer) {
        println!("  {name:<36} {value:>16.4} {}", unit_of(name));
    }
    if let Some(why) = &m.invalid {
        println!("  INVALID: {why}");
    }
}

/// The driver's form: one workload, then one JSON object as the last line.
/// Returns whether the run was correct.
///
/// # Errors
///
/// Conditions under which there is nothing to report (see [`live::run`]).
pub fn one(
    bin: &Path,
    workload: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<bool, String> {
    let m = measure(bin, workload, seed, seconds, trace)?;
    print_table(workload, seed, &m);
    let reported = if trace { &m.per_layer } else { &m.end_to_end };
    let metrics: Vec<String> = reported
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.invalid.is_none(),
        m.attempted,
        m.failed,
        metrics.join(", ")
    );
    Ok(m.invalid.is_none())
}

/// `run` and `trace`: every chosen workload, every metric by name with its
/// unit. Returns whether all runs were correct and none failed an operation.
///
/// # Errors
///
/// See [`live::run`].
pub fn suite(
    bin: &Path,
    workloads: &[&Workload],
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<bool, String> {
    let mut good = true;
    for w in workloads {
        let m = measure(bin, w, seed, seconds, trace)?;
        print_table(w, seed, &m);
        good &= m.invalid.is_none() && m.failed == 0;
    }
    Ok(good)
}

/// `calibrate`: the closed-loop goodput of each open-loop workload's mix and
/// the arrival rate the rule derives from it (40 %, rounded down to two
/// significant digits), beside the frozen rate in `spec` and its share of the
/// goodput: `write-open` runs below the rule, see `spec::RATE_WRITE`.
///
/// # Errors
///
/// See [`live::run`].
pub fn calibrate(bin: &Path, seed: u64, seconds: f64) -> Result<bool, String> {
    for w in WORKLOADS.iter().filter(|w| !w.kill) {
        let Arrival::Open(frozen) = w.arrival else {
            continue;
        };
        let closed = Workload {
            arrival: Arrival::Closed,
            ..*w
        };
        let run = live::run(bin, &closed, seed, seconds)?;
        let goodput = run.ok as f64 / run.window_s();
        let target = 0.4 * goodput;
        let step = 10f64.powf(target.log10().floor() - 1.0);
        println!(
            "{}: closed-loop goodput {goodput:.0} ops/s, 40 % rounded down = {} ops/s; frozen at {frozen} ops/s, {:.0} % of it",
            w.name,
            (target / step).floor() * step,
            100.0 * frozen / goodput
        );
    }
    Ok(true)
}

/// By how much `b` is worse than `a`, as a share of `a`.
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// `repeat`: the acceptance rule of the benchmark's contract, on one build.
/// Two sets of `runs` runs per workload, each run with its own seed; per
/// end-to-end metric the quartile spread of each set and the second median
/// against the first must stay within the metric's bound (`setup_s`: the
/// medians only). The two tail latencies are listed too, without a bound.
/// Prints a markdown table; returns whether nothing breached.
///
/// # Errors
///
/// See [`live::run`].
pub fn repeat(
    bin: &Path,
    workloads: &[&Workload],
    seed: u64,
    seconds: f64,
    runs: usize,
) -> Result<bool, String> {
    println!("# Repeatability of `sstore-benchmark`\n");
    println!(
        "Two sets of {runs} runs per workload on one build, {seconds} s windows, seeds \
         {seed}..{} and {}..{}. Spread is the distance between the first and third \
         quartile as a share of the median. A metric breaches when a spread (except \
         `setup_s`) or the worsening of the second median exceeds its bound; the \
         `latency.*` rows are per-layer metrics, listed to show why they have none.\n",
        seed + runs as u64 - 1,
        seed + runs as u64,
        seed + 2 * runs as u64 - 1
    );
    let mut good = true;
    for w in workloads {
        let mut sets: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
        let mut failed = 0;
        for (set, values) in sets.iter_mut().enumerate() {
            for i in 0..runs {
                let run_seed = seed + (set * runs + i) as u64;
                let m = measure(bin, w, run_seed, seconds, false)?;
                if let Some(why) = &m.invalid {
                    println!("run with seed {run_seed} of {} is invalid: {why}\n", w.name);
                    good = false;
                }
                failed += m.failed;
                let tails = m
                    .per_layer
                    .iter()
                    .filter(|(n, _)| n.starts_with("latency."));
                values.push(m.end_to_end.iter().chain(tails).map(|(_, v)| *v).collect());
            }
        }
        println!("## {}\n", w.name);
        println!("{failed} operations failed in {} runs.\n", 2 * runs);
        good &= failed == 0;
        println!(
            "| metric | unit | median 1 | median 2 | worse by | spread 1 | spread 2 | bound | |"
        );
        println!("|---|---|---:|---:|---:|---:|---:|---:|---|");
        let gated = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better, Some(m.bound)));
        let tails = PER_LAYER
            .iter()
            .filter(|m| m.name.starts_with("latency."))
            .map(|m| (m.name, m.unit, m.better, None));
        for (k, (name, unit, better, bound)) in gated.chain(tails).enumerate() {
            let column = |set: &Vec<Vec<f64>>| -> Vec<f64> {
                set.iter().filter_map(|run| run.get(k).copied()).collect()
            };
            let (a, b) = (column(&sets[0]), column(&sets[1]));
            let (ma, mb) = (median(&a), median(&b));
            let worse = worse_by(ma, mb, better);
            let (sa, sb) = (spread(&a), spread(&b));
            let verdict = match bound {
                None => ("-".to_string(), "not gated"),
                Some(bound) => {
                    let spread_ok = name == "setup_s" || (sa <= bound && sb <= bound);
                    let ok = spread_ok && worse <= bound;
                    good &= ok;
                    (
                        format!("{} %", bound * 100.0),
                        if ok { "ok" } else { "BREACH" },
                    )
                }
            };
            println!(
                "| `{name}` | {unit} | {ma:.4} | {mb:.4} | {:+.2} % | {:.2} % | {:.2} % | {} | {} |",
                worse * 100.0,
                sa * 100.0,
                sb * 100.0,
                verdict.0,
                verdict.1
            );
        }
        println!();
    }
    println!("{}", if good { "No breach." } else { "BREACHED." });
    Ok(good)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 5.0, Better::Lower), 0.0);
    }

    #[test]
    fn every_reported_name_is_in_the_manifest() {
        for m in END_TO_END.iter() {
            assert_eq!(unit_of(m.name), m.unit);
        }
        assert_eq!(unit_of("no.such_metric"), "");
    }
}
