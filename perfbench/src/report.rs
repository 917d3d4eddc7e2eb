//! Output: the contract's one-line result, the results file `--all` writes,
//! and `--compare`, the gate later changes are held to.

use crate::metrics::{per_layer, Values, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles, spread};
use omplt::protocol::json_escape;
use omplt::trace::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON number with all its digits; a non-finite value is a harness bug.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

/// The last line of a single run's stdout, exactly the contract's keys.
pub fn result_line(
    values: &Values,
    names: &[(String, &str)],
    attempted: u64,
    failed: u64,
) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0,
        attempted.max(1)
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        // A layer the workload does not exercise reports 0.
        let v = values.get(name).copied().unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_escape(name),
            num(v)
        );
    }
    out.push_str("}}");
    out
}

/// Parses a result line back (the parent of `--all` reads its children's).
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

pub fn parse_result_line(line: &str) -> Result<RunResult, String> {
    let v = json::parse(line).map_err(|e| format!("bad result line: {e}"))?;
    let int = |k: &str| {
        v.get(k)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("result line lacks '{k}'"))
    };
    let metrics = v
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result line lacks 'metrics'")?;
    let mut values = Values::new();
    for (name, m) in metrics {
        let value = m
            .get("value")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("metric '{name}' has no value"))?;
        values.insert(name.clone(), value);
    }
    Ok(RunResult {
        attempted: int("attempted")?,
        failed: int("failed")?,
        values,
    })
}

/// The human-readable table: every metric by name, with its unit.
pub fn print_metrics(workload: &str, values: &Values, names: &[(String, &str)]) {
    for (name, unit) in names {
        let v = values.get(name).copied().unwrap_or(0.0);
        println!("{workload:<18} {name:<34} {v:>16.4} {unit}");
    }
}

/// One workload's section of a results file.
pub struct WorkloadRuns {
    pub attempted: u64,
    pub failed: u64,
    /// One entry per end-to-end run.
    pub end_to_end: Vec<Values>,
    /// The single traced run.
    pub per_layer: Values,
}

pub struct ResultsHeader {
    pub seed: u64,
    pub seconds: f64,
    pub vary_seed: bool,
    pub comparable: bool,
}

/// Renders the results file. Multi-line so that diffs of two files read.
pub fn render_results(h: &ResultsHeader, workloads: &BTreeMap<String, WorkloadRuns>) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"omplt-bench/1\",");
    let _ = writeln!(out, "  \"seed\": {},", h.seed);
    let _ = writeln!(out, "  \"vary_seed\": {},", h.vary_seed);
    let _ = writeln!(out, "  \"seconds\": {},", num(h.seconds));
    let _ = writeln!(out, "  \"comparable\": {},", h.comparable);
    let _ = writeln!(out, "  \"available_parallelism\": {cores},");
    let _ = writeln!(out, "  \"workloads\": {{");
    let mut first_w = true;
    for (name, why) in WORKLOADS {
        let Some(w) = workloads.get(name) else {
            continue;
        };
        if !std::mem::take(&mut first_w) {
            out.push_str(",\n");
        }
        let _ = writeln!(out, "    \"{name}\": {{");
        let _ = writeln!(out, "      \"why\": \"{}\",", json_escape(why));
        let _ = writeln!(out, "      \"attempted\": {},", w.attempted);
        let _ = writeln!(out, "      \"failed\": {},", w.failed);
        let _ = writeln!(
            out,
            "      \"failed_share\": {},",
            num(w.failed as f64 / w.attempted.max(1) as f64)
        );
        let _ = writeln!(out, "      \"end_to_end\": {{");
        for (i, m) in END_TO_END.iter().enumerate() {
            let vals: Vec<f64> = w
                .end_to_end
                .iter()
                .filter_map(|r| r.get(m.name).copied())
                .collect();
            let [q1, q2, q3] = quartiles(&vals);
            let _ = write!(
                out,
                "        \"{}\": {{\"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"values\": [{}]}}",
                m.name,
                m.unit,
                if m.higher { "higher" } else { "lower" },
                num(m.bound),
                num(q2),
                num(q1),
                num(q3),
                vals.iter().map(|&v| num(v)).collect::<Vec<_>>().join(", ")
            );
            out.push_str(if i + 1 < END_TO_END.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        let _ = writeln!(out, "      }},");
        let _ = writeln!(out, "      \"per_layer\": {{");
        let layers = per_layer();
        for (i, (lname, unit, _)) in layers.iter().enumerate() {
            let v = w.per_layer.get(lname).copied().unwrap_or(0.0);
            let _ = write!(
                out,
                "        \"{lname}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(v)
            );
            out.push_str(if i + 1 < layers.len() { ",\n" } else { "\n" });
        }
        let _ = writeln!(out, "      }}");
        out.push_str("    }");
    }
    out.push_str("\n  }\n}\n");
    out
}

struct Parsed {
    comparable: bool,
    /// workload → (failed_share, metric → series)
    workloads: BTreeMap<String, (f64, BTreeMap<String, Vec<f64>>)>,
}

fn parse_results(path: &str) -> Result<Parsed, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let v = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let workloads = v
        .get("workloads")
        .and_then(Value::as_object)
        .ok_or_else(|| format!("{path}: no 'workloads' object"))?;
    let mut parsed = BTreeMap::new();
    for (name, w) in workloads {
        let share = w.get("failed_share").and_then(Value::as_f64).unwrap_or(0.0);
        let mut metrics = BTreeMap::new();
        for (metric, m) in w
            .get("end_to_end")
            .and_then(Value::as_object)
            .unwrap_or(&[])
        {
            let values: Vec<f64> = m
                .get("values")
                .and_then(Value::as_array)
                .map(|a| a.iter().filter_map(Value::as_f64).collect())
                .unwrap_or_default();
            if !values.is_empty() {
                metrics.insert(metric.clone(), values);
            }
        }
        parsed.insert(name.clone(), (share, metrics));
    }
    Ok(Parsed {
        comparable: v.get("comparable") != Some(&Value::Bool(false)),
        workloads: parsed,
    })
}

/// The verdict on one workload × metric: `base` and `new` are the two
/// files' run values.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    /// Worse than the base by more than the bound, and by more than the
    /// run-to-run spread.
    Regressed,
    /// The run-to-run spread is wider than the bound: neither "unchanged"
    /// nor "regressed" can be claimed.
    Unresolved,
}

pub fn verdict(base: &[f64], new: &[f64], higher: bool, bound: f64) -> Verdict {
    let (b, n) = (median(base), median(new));
    let worse_by = if higher { (b - n) / b } else { (n - b) / b };
    let noise = spread(base).max(spread(new));
    match (worse_by > bound, noise > bound) {
        (true, true) if worse_by <= noise => Verdict::Unresolved,
        (true, _) => Verdict::Regressed,
        (false, true) => Verdict::Unresolved,
        (false, false) => Verdict::Ok,
    }
}

/// `--compare BASE NEW`: one row per workload × end-to-end metric. Returns
/// whether any row regressed.
pub fn compare(base_path: &str, new_path: &str) -> Result<bool, String> {
    let (base, new) = (parse_results(base_path)?, parse_results(new_path)?);
    if !base.comparable || !new.comparable {
        return Err(
            "a --quick results file is stamped \"comparable\": false and cannot be compared"
                .to_string(),
        );
    }
    println!("base = {base_path}\nnew  = {new_path}\nratio = new median / base median");
    let mut table = String::new();
    let regressed = compare_rows(&base, &new, &mut table);
    print!("{table}");
    Ok(regressed)
}

/// Writes the rows of `--compare` to `out`. A workload or a metric that the
/// base file has and the new one lacks counts as regressed: a change that
/// stops reporting a number must not pass the gate for it.
fn compare_rows(base: &Parsed, new: &Parsed, out: &mut String) -> bool {
    let _ = writeln!(
        out,
        "{:<18} {:<15} {:>34} {:>34} {:>8} {:>6}  verdict",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "ratio", "bound"
    );
    let mut regressed = false;
    let mut unresolved = Vec::new();
    for (wname, _) in WORKLOADS {
        let Some((bshare, bm)) = base.workloads.get(wname) else {
            continue;
        };
        let Some((nshare, nm)) = new.workloads.get(wname) else {
            let _ = writeln!(out, "{wname:<18} missing from the new file  regressed");
            regressed = true;
            continue;
        };
        for m in &END_TO_END {
            let Some(b) = bm.get(m.name) else {
                continue;
            };
            let fmt = |values: &[f64]| {
                let [q1, q2, q3] = quartiles(values);
                format!("{q2:.4} [{q1:.4}, {q3:.4}]")
            };
            let Some(n) = nm.get(m.name) else {
                let _ = writeln!(
                    out,
                    "{wname:<18} {:<15} {:>34} {:>34} {:>8} {:>6}  regressed",
                    m.name,
                    fmt(b),
                    "missing",
                    "-",
                    m.bound
                );
                regressed = true;
                continue;
            };
            let v = verdict(b, n, m.higher, m.bound);
            let word = match v {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => {
                    let noise = spread(b).max(spread(n));
                    unresolved.push(format!(
                        "{wname} {}: spread {:.1}% of the median over {} and {} runs, bound {:.0}%",
                        m.name,
                        100.0 * noise,
                        b.len(),
                        n.len(),
                        100.0 * m.bound
                    ));
                    "unresolved"
                }
            };
            regressed |= v == Verdict::Regressed;
            let _ = writeln!(
                out,
                "{wname:<18} {:<15} {:>34} {:>34} {:>8.4} {:>6}  {word}",
                m.name,
                fmt(b),
                fmt(n),
                median(n) / median(b),
                m.bound
            );
        }
        let share_word = if nshare > bshare { "regressed" } else { "ok" };
        regressed |= nshare > bshare;
        let _ = writeln!(
            out,
            "{wname:<18} {:<15} {bshare:>34} {nshare:>34} {:>8} {:>6}  {share_word}",
            "failed_share", "-", "0"
        );
    }
    for line in &unresolved {
        let _ = writeln!(out, "unresolved: {line}");
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_and_zero_fills() {
        let mut values = Values::new();
        values.insert("cli_ms".to_string(), 1.2034);
        let names = vec![("cli_ms".to_string(), "ms"), ("setup_s".to_string(), "s")];
        let line = result_line(&values, &names, 10, 0);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        let back = parse_result_line(&line).unwrap();
        assert_eq!((back.attempted, back.failed), (10, 0));
        assert_eq!(back.values["cli_ms"], 1.2034);
        assert_eq!(back.values["setup_s"], 0.0);
        assert!(result_line(&values, &names, 10, 1).starts_with("{\"correct\": false"));
    }

    #[test]
    fn verdicts() {
        let steady = [100.0, 100.5, 99.5, 100.2, 99.8];
        let slower = [120.0, 120.5, 119.5, 120.2, 119.8];
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(verdict(&steady, &steady, false, 0.1), Verdict::Ok);
        assert_eq!(verdict(&steady, &slower, false, 0.1), Verdict::Regressed);
        // Faster is never a regression; for a higher-is-better metric the
        // same numbers are.
        assert_eq!(verdict(&slower, &steady, false, 0.1), Verdict::Ok);
        assert_eq!(verdict(&slower, &steady, true, 0.1), Verdict::Regressed);
        // Spread wider than the bound: unresolved, whichever way it points.
        assert_eq!(verdict(&noisy, &steady, false, 0.1), Verdict::Unresolved);
        assert_eq!(verdict(&steady, &noisy, false, 0.1), Verdict::Unresolved);
        // ...unless the change dwarfs even that spread.
        let far: Vec<f64> = noisy.iter().map(|v| v * 3.0).collect();
        assert_eq!(verdict(&noisy, &far, false, 0.1), Verdict::Regressed);
    }

    /// `(metric, run values)` per workload.
    type Series<'a> = &'a [(&'a str, &'a [f64])];

    fn parsed(workloads: &[(&str, Series)]) -> Parsed {
        Parsed {
            comparable: true,
            workloads: workloads
                .iter()
                .map(|(w, metrics)| {
                    let series = metrics
                        .iter()
                        .map(|(m, v)| (m.to_string(), v.to_vec()))
                        .collect();
                    (w.to_string(), (0.0, series))
                })
                .collect(),
        }
    }

    #[test]
    fn a_number_the_new_file_lacks_is_a_regression() {
        let runs: &[f64] = &[10.0, 10.1, 9.9];
        let base = parsed(&[
            ("exec_vm", &[("cli_ms", runs), ("run_ms", runs)]),
            ("daemon_mix", &[("cli_ms", runs)]),
        ]);
        let mut out = String::new();
        assert!(!compare_rows(&base, &base, &mut out), "{out}");
        // A metric gone.
        let new = parsed(&[
            ("exec_vm", &[("cli_ms", runs)]),
            ("daemon_mix", &[("cli_ms", runs)]),
        ]);
        assert!(compare_rows(&base, &new, &mut out));
        // A workload gone.
        let new = parsed(&[("exec_vm", &[("cli_ms", runs), ("run_ms", runs)])]);
        assert!(compare_rows(&base, &new, &mut out));
        // A number only the new file has is not.
        assert!(!compare_rows(&new, &base, &mut out));
    }
}
