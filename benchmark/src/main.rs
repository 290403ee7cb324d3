//! `phoenix-perf`: run the perf ledger.
//!
//! ```text
//! phoenix-perf [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
//!              [--smoke] [--repeat K] [--print-spec]
//! ```
//!
//! With `--workload` this process *is* the run: single-threaded, metrics
//! as `workload name value unit` lines, then the driver's JSON object as
//! the last line; exit code 1 if an output check failed. Without it, each
//! workload runs in its own child process, one after another, so
//! `peak_rss_mb` and allocator state are per workload and never more than
//! one thread is busy. `--repeat K` runs each workload K times with the same
//! seed, back to back, checks that every exact line repeats, and prints the
//! noise table of the host metrics.

use phoenix_perf::spec::{self, Workload};
use phoenix_perf::{stats, Opts};
use std::process::{Command, ExitCode};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        repeat: 1,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--repeat" => {
                args.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            // `--trace`, `--trace 0` and `--trace 1` are all accepted.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            "--print-spec" => {
                print!("{}", spec::render_benchmark_json());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_string());
    }
    Ok(args)
}

/// Run one workload in a child process of this same binary; returns its
/// stdout and whether it exited 0.
fn child(args: &Args, workload: Workload, seed: u64) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    Ok((
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.success(),
    ))
}

/// `workload name value unit clock` lines of a child's output.
fn metric_lines(stdout: &str, workload: Workload) -> Vec<Line> {
    stdout
        .lines()
        .filter_map(|l| {
            let mut it = l.split(' ');
            (it.next()? == workload.name()).then_some(())?;
            let (name, value, _unit, clock) = (it.next()?, it.next()?, it.next()?, it.next()?);
            Some(Line {
                name: name.to_string(),
                value: value.to_string(),
                exact: clock == "exact",
            })
        })
        .collect()
}

struct Line {
    name: String,
    /// As printed: a number, or the digest.
    value: String,
    exact: bool,
}

/// Names of the exact lines on which a repeated run differs from the first.
fn exact_differences(first: &[Line], again: &[Line]) -> Vec<String> {
    let exact = |run: &[Line]| -> Vec<(String, String)> {
        run.iter()
            .filter(|l| l.exact)
            .map(|l| (l.name.clone(), l.value.clone()))
            .collect()
    };
    let (a, b) = (exact(first), exact(again));
    if a.len() != b.len() {
        return vec!["(the set of exact lines)".to_string()];
    }
    a.into_iter()
        .zip(b)
        .filter(|(x, y)| x != y)
        .map(|(x, _)| x.0)
        .collect()
}

/// Median, quartiles and spread ÷ bound of every end-to-end metric over
/// the repeated runs of one workload, as the benchmark driver computes
/// them over its ten runs.
fn noise_table(workload: Workload, runs: &[Vec<Line>]) {
    for m in spec::end_to_end() {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.iter().find(|l| l.name == m.name)?.value.parse().ok())
            .collect();
        if values.len() < 2 {
            continue;
        }
        let [q1, q2, q3] = stats::quartiles(&values);
        let spread = (q3 - q1) / q2;
        println!(
            "noise {} {} n={} median={q2} q1={q1} q3={q3} spread={spread:.4} bound={} spread/bound={:.2}",
            workload.name(),
            m.name,
            values.len(),
            m.bound.unwrap_or(0.0),
            spread / m.bound.unwrap_or(f64::INFINITY),
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("phoenix-perf: {e}");
            return ExitCode::from(2);
        }
    };
    if let (Some(workload), 1) = (args.workload, args.repeat) {
        let report = phoenix_perf::run(&Opts {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            smoke: args.smoke,
        });
        report.print();
        return if report.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut ok = true;
    for workload in workloads {
        let mut runs: Vec<Vec<Line>> = Vec::new();
        for k in 0..args.repeat {
            match child(&args, workload, args.seed) {
                Ok((stdout, success)) => {
                    print!("{stdout}");
                    ok &= success;
                    let lines = metric_lines(&stdout, workload);
                    if let Some(first) = runs.first() {
                        let differ = exact_differences(first, &lines);
                        if !differ.is_empty() {
                            println!(
                                "{} CHECK-FAILED run {} of seed {} differs on exact lines: {}",
                                workload.name(),
                                k + 1,
                                args.seed,
                                differ.join(" ")
                            );
                            ok = false;
                        }
                    }
                    runs.push(lines);
                }
                Err(e) => {
                    eprintln!("phoenix-perf: {}: {e}", workload.name());
                    ok = false;
                }
            }
        }
        if args.repeat > 1 {
            noise_table(workload, &runs);
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
