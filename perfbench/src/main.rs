//! `omplt-bench` — the repo's benchmark harness (ISSUE 11).
//!
//! ```text
//! omplt-bench --workload NAME --seed N --seconds S --trace 0|1   one run (the BENCHMARK.json contract)
//!             [--trace-out DIR] [--quick]
//! omplt-bench --all [--seed N] [--seconds S] [--runs R] [--vary-seed]
//!             [--out FILE] [--trace-out DIR] [--quick]            every workload, each in its own child process
//! omplt-bench --compare BASE.json NEW.json                         the regression gate; exit 1 on any `regressed`
//! ```
//!
//! Run it from the root of the checkout (`perfbench/run.sh` builds
//! everything first). See `perfbench/README.md` for the catalogue.

mod calib;
mod daemon;
mod gen;
mod inproc;
mod metrics;
mod pipe;
mod proc;
mod report;
mod stats;
mod trace_out;

use calib::Calibration;
use inproc::{Laps, Outcome};
use metrics::{Values, WORKLOADS};
use proc::Binaries;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use trace_out::ProgramTrace;

/// Seconds `BENCHMARK.json` asks a run to measure for.
const RUN_SECONDS: u32 = 10;

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    trace_out: Option<String>,
    quick: bool,
    all: bool,
    runs: usize,
    vary_seed: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
}

impl Args {
    /// Seconds one phase measures for: `--seconds`, else `BENCHMARK.json`'s
    /// `run_seconds`, or 0.3 s under `--quick`.
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            0.3
        } else {
            f64::from(RUN_SECONDS)
        })
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: 11,
        runs: 5,
        ..Args::default()
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| -> Result<String, String> {
        it.next()
            .cloned()
            .ok_or_else(|| format!("'{flag}' needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = Some(value(&mut it, flag)?),
            "--seed" => {
                a.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let s: f64 = value(&mut it, flag)?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be above 0 and at most 60".to_string());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--trace-out" => a.trace_out = Some(value(&mut it, flag)?),
            "--quick" => a.quick = true,
            "--all" => a.all = true,
            "--runs" => {
                a.runs = value(&mut it, flag)?
                    .parse()
                    .map_err(|_| "--runs takes a whole number")?;
                if a.runs == 0 {
                    return Err("--runs must be at least 1".to_string());
                }
            }
            "--vary-seed" => a.vary_seed = true,
            "--out" => a.out = Some(value(&mut it, flag)?),
            "--compare" => a.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?)),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(a)
}

/// A workload after set-up.
enum Ready {
    InProcess(Box<inproc::Ready>),
    Daemon(daemon::Ready),
}

fn set_up(
    workload: &str,
    bins: &Binaries,
    seed: u64,
    quick: bool,
    laps: &mut Laps,
) -> Result<Ready, String> {
    match inproc::spec(workload, quick) {
        Some(spec) => inproc::set_up(spec, bins.clone(), seed, quick, laps)
            .map(|r| Ready::InProcess(Box::new(r))),
        None if workload == "daemon_mix" => {
            daemon::set_up(bins.clone(), seed, laps).map(Ready::Daemon)
        }
        None => Err(format!(
            "unknown workload '{workload}' (one of: {})",
            WORKLOADS.map(|(n, _)| n).join(", ")
        )),
    }
}

fn write_trace(dir: &str, workload: &str, traces: &[ProgramTrace]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let sessions: Vec<(&str, &omplt::trace::TraceData)> =
        traces.iter().map(|t| (t.name.as_str(), &t.data)).collect();
    let path = format!("{dir}/{workload}.trace.json");
    std::fs::write(&path, trace_out::chrome_trace(&sessions))
        .map_err(|e| format!("cannot write {path}: {e}"))
}

/// One run of one workload: set-up (five times; the fastest is `setup_s`,
/// the estimator of every timing here), then the end-to-end phase or the
/// traced phase. Prints the metric table and, last,
/// the result line. `Ok(false)` when an operation failed.
fn run_one(a: &Args, workload: &str) -> Result<bool, String> {
    let seconds = a.seconds();
    let bins = proc::locate_binaries()?;
    let mut setups = Vec::new();
    let mut ready = None;
    let mut calib = Calibration::default();
    for _ in 0..if a.quick { 1 } else { 5 } {
        // The previous set-up's scratch files go first, outside the timed
        // part.
        drop(ready.take());
        let mut laps = Laps::start();
        ready = Some(set_up(workload, &bins, a.seed, a.quick, &mut laps)?);
        laps.lap();
        setups.push(laps);
        calib.sample();
    }
    let ready = ready.expect("at least one set-up ran");
    let Outcome { mut values, tally } = if a.trace {
        let (outcome, traces) = match &ready {
            Ready::InProcess(r) => r.traced_phase(seconds)?,
            Ready::Daemon(r) => r.traced_phase(seconds)?,
        };
        if let Some(dir) = &a.trace_out {
            write_trace(dir, workload, &traces)?;
        }
        outcome
    } else {
        match &ready {
            Ready::InProcess(r) => r.timed_phase(seconds, &mut calib)?,
            Ready::Daemon(r) => r.timed_phase(seconds, &mut calib)?,
        }
    };
    let names = metrics::reported(a.trace);
    if a.trace {
        values.insert("calib.pass_ms".to_string(), calib.fastest_ms());
    } else {
        values.insert("setup_s".to_string(), Laps::floor(&setups));
        let scaled = match &ready {
            Ready::InProcess(_) => inproc::SCALED,
            Ready::Daemon(_) => daemon::SCALED,
        };
        for name in scaled {
            *values
                .get_mut(*name)
                .expect("every run reports every timing") *= calib.factor();
        }
        println!(
            "{workload:<18} calibration pass {:.4} ms: {} scaled by {:.4}",
            calib.fastest_ms(),
            scaled.join(", "),
            calib.factor()
        );
    }
    drop(ready);
    report::print_metrics(workload, &values, &names);
    if let Some(e) = &tally.first_error {
        eprintln!(
            "omplt-bench: {} of {} operations failed; first: {e}",
            tally.failed, tally.attempted
        );
    }
    println!(
        "{}",
        report::result_line(&values, &names, tally.attempted, tally.failed)
    );
    Ok(tally.failed == 0)
}

/// Runs `omplt-bench` itself as a child for one workload and parses its
/// result line. Each workload gets its own process so that `peak_rss_mb`
/// and warm-up state belong to it alone.
fn child_run(
    a: &Args,
    workload: &str,
    seed: u64,
    trace: bool,
) -> Result<report::RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if let Some(s) = a.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if a.quick {
        cmd.arg("--quick");
    }
    if let (true, Some(dir)) = (trace, &a.trace_out) {
        cmd.args(["--trace-out", dir]);
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    if !out.status.success() && !line.starts_with('{') {
        return Err(format!(
            "{workload} (seed {seed}, trace {}) failed: {}",
            u8::from(trace),
            out.status
        ));
    }
    report::parse_result_line(line)
}

/// `--all`: every workload, `--runs` end-to-end runs plus one traced run
/// each; prints every metric and writes the results file.
fn run_all(a: &Args) -> Result<bool, String> {
    proc::locate_binaries()?;
    let mut results = BTreeMap::new();
    let mut all_correct = true;
    let (e2e_names, layer_names) = (metrics::reported(false), metrics::reported(true));
    for (workload, _) in WORKLOADS {
        let mut w = report::WorkloadRuns {
            attempted: 0,
            failed: 0,
            end_to_end: Vec::new(),
            per_layer: Values::new(),
        };
        for run in 0..if a.quick { 1 } else { a.runs } {
            let seed = if a.vary_seed {
                a.seed + run as u64
            } else {
                a.seed
            };
            let r = child_run(a, workload, seed, false)?;
            w.attempted += r.attempted;
            w.failed += r.failed;
            w.end_to_end.push(r.values);
        }
        // End-to-end numbers never come from the traced run.
        let traced = child_run(a, workload, a.seed, true)?;
        w.attempted += traced.attempted;
        w.failed += traced.failed;
        w.per_layer = traced.values;
        let mut medians = Values::new();
        for (name, _) in &e2e_names {
            let vals: Vec<f64> = w
                .end_to_end
                .iter()
                .filter_map(|r| r.get(name).copied())
                .collect();
            medians.insert(name.clone(), stats::median(&vals));
            println!(
                "{workload:<18} {name:<34} spread {:>6.2}% of the median over {} runs",
                100.0 * stats::spread(&vals),
                vals.len()
            );
        }
        report::print_metrics(workload, &medians, &e2e_names);
        report::print_metrics(workload, &w.per_layer, &layer_names);
        println!(
            "{workload:<18} {:<34} {:>16.4} share ({} of {})",
            "failed_share",
            w.failed as f64 / w.attempted.max(1) as f64,
            w.failed,
            w.attempted
        );
        all_correct &= w.failed == 0;
        results.insert(workload.to_string(), w);
    }
    let header = report::ResultsHeader {
        seed: a.seed,
        seconds: a.seconds(),
        vary_seed: a.vary_seed,
        comparable: !a.quick,
    };
    let doc = report::render_results(&header, &results);
    match &a.out {
        Some(path) => {
            std::fs::write(path, &doc).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("results written to {path}");
        }
        None => print!("{doc}"),
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let run = || -> Result<bool, String> {
        let a = parse_args(&argv)?;
        if let Some((base, new)) = &a.compare {
            report::compare(base, new).map(|regressed| !regressed)
        } else if a.all {
            run_all(&a)
        } else if let Some(workload) = &a.workload {
            run_one(&a, workload)
        } else {
            Err("nothing to do: pass --workload NAME, --all or --compare A B".to_string())
        }
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("omplt-bench: {e}");
            ExitCode::from(2)
        }
    }
}
