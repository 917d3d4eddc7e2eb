//! The ranked tuning report (text and JSON renderings).
//!
//! Candidates are ranked by **retired-op count**: the number of IR/bytecode
//! operations the selected engine executed, as reported by the pipeline's
//! own `{interp,vm}.ops.retired` counters. Op counts are a pure function of
//! the program and its directive configuration (the root suite's
//! `tests/counter_pins.rs` pins exactly this property), so two runs of the
//! same tuner invocation produce byte-identical text and JSON reports —
//! candidate ids come from the deterministic enumeration order, scores from
//! op counts, and no clock is read. The autotune test suite goldens this
//! property.

use crate::mutate::BackendChoice;
use omplt_trace::json::Writer;
use std::fmt::Write as _;

/// What evaluating one candidate measured.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Measurement {
    /// Ops the engine retired during the run: the candidate's score, lower
    /// is better.
    pub ops_retired: u64,
    /// The program's exit code.
    pub exit_code: i64,
}

/// Terminal state of one enumerated candidate.
#[derive(Clone, Debug)]
pub enum Status {
    /// Survived pruning and ran to completion.
    Evaluated(Measurement),
    /// Rejected before execution; carries the rendered diagnostics
    /// (parse/Sema errors or `--analyze` findings) explaining why.
    Pruned(Vec<String>),
    /// Ran, but its observables differ from the baseline program's — a
    /// would-be miscompile caught by the output cross-check. Never ranked.
    Diverged(String),
    /// Compilation or execution failed after pruning passed (e.g. fuel
    /// exhausted by a pathologically slower configuration).
    Failed(String),
    /// Re-synthesized to the same source+backend as an earlier candidate
    /// (mutation combinations can alias); not re-evaluated.
    Duplicate(usize),
}

/// One candidate's outcome in the report.
#[derive(Clone, Debug)]
pub struct CandidateOutcome {
    /// Enumeration id.
    pub id: usize,
    /// Axis-value summary label.
    pub label: String,
    /// Engine that evaluated (or would have evaluated) it.
    pub backend: BackendChoice,
    /// What happened.
    pub status: Status,
}

/// The complete result of one tuner invocation.
#[derive(Clone, Debug)]
pub struct TuneReport {
    /// Input name (file path as given to the driver).
    pub input: String,
    /// Evaluation budget (max candidates executed).
    pub budget: usize,
    /// Sampler seed (`None` = deterministic grid enumeration).
    pub seed: Option<u64>,
    /// The hand-annotated program's own measurement (always evaluated
    /// first, as candidate 0).
    pub baseline: Measurement,
    /// Every enumerated candidate, in enumeration order.
    pub outcomes: Vec<CandidateOutcome>,
}

impl TuneReport {
    /// Evaluated candidates ranked best-first (score, then id — total and
    /// deterministic).
    pub fn ranked(&self) -> Vec<(&CandidateOutcome, u64)> {
        let mut v: Vec<(&CandidateOutcome, u64)> = self
            .outcomes
            .iter()
            .filter_map(|o| match &o.status {
                Status::Evaluated(m) => Some((o, m.ops_retired)),
                _ => None,
            })
            .collect();
        v.sort_by_key(|(o, s)| (*s, o.id));
        v
    }

    /// The best evaluated candidate, if any survived.
    pub fn winner(&self) -> Option<&CandidateOutcome> {
        self.ranked().first().map(|(o, _)| *o)
    }

    /// Pruned candidates, in enumeration order.
    pub fn pruned(&self) -> Vec<&CandidateOutcome> {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.status, Status::Pruned(_)))
            .collect()
    }

    /// Count of candidates in each terminal state:
    /// `(evaluated, pruned, diverged, failed, duplicates)`.
    pub fn tally(&self) -> (usize, usize, usize, usize, usize) {
        let mut t = (0, 0, 0, 0, 0);
        for o in &self.outcomes {
            match o.status {
                Status::Evaluated(_) => t.0 += 1,
                Status::Pruned(_) => t.1 += 1,
                Status::Diverged(_) => t.2 += 1,
                Status::Failed(_) => t.3 += 1,
                Status::Duplicate(_) => t.4 += 1,
            }
        }
        t
    }

    /// Human-readable ranked table.
    pub fn render_text(&self) -> String {
        let (ev, pr, dv, fl, du) = self.tally();
        let mut out = String::new();
        let _ = writeln!(out, "== autotune report: {} ==", self.input);
        let _ = writeln!(
            out,
            "cost model: ops (lower is better) | budget: {} | enumeration: {}",
            self.budget,
            match self.seed {
                Some(s) => format!("seeded random (seed {s})"),
                None => "deterministic grid".to_string(),
            }
        );
        let _ = writeln!(
            out,
            "candidates: {} evaluated, {pr} pruned, {dv} diverged, {fl} failed, {du} duplicate",
            ev
        );
        let _ = writeln!(
            out,
            "baseline (hand-annotated): score {}",
            self.baseline.ops_retired
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:>4}  {:>4}  {:>12}  {:<7}  config",
            "rank", "id", "score", "backend"
        );
        for (rank, (o, score)) in self.ranked().iter().enumerate() {
            let _ = writeln!(
                out,
                "{:>4}  {:>4}  {:>12}  {:<7}  {}",
                rank + 1,
                o.id,
                score,
                o.backend.name(),
                o.label
            );
        }
        let pruned = self.pruned();
        if !pruned.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "pruned (illegal) candidates:");
            for o in pruned {
                let Status::Pruned(diags) = &o.status else {
                    unreachable!()
                };
                let _ = writeln!(out, "  #{} {}", o.id, o.label);
                for d in diags {
                    let _ = writeln!(out, "      {d}");
                }
            }
        }
        for o in &self.outcomes {
            match &o.status {
                Status::Diverged(why) => {
                    let _ = writeln!(out, "DIVERGED #{} {}: {why}", o.id, o.label);
                }
                Status::Failed(why) => {
                    let _ = writeln!(out, "failed #{} {}: {why}", o.id, o.label);
                }
                _ => {}
            }
        }
        out
    }

    /// Machine-readable rendering (stable key order, candidates in
    /// enumeration order plus a ranked index).
    pub fn to_json(&self) -> String {
        let mut w = Writer::default();
        w.open('{').key("input").str(&self.input);
        w.key("cost_model").str("ops");
        w.key("budget").raw(self.budget);
        match self.seed {
            Some(s) => w.key("seed").raw(s),
            None => w.key("seed").raw("null"),
        };
        w.key("baseline").open('{');
        w.key("score").raw(self.baseline.ops_retired);
        w.key("exit_code").raw(self.baseline.exit_code).close('}');
        let (ev, pr, dv, fl, du) = self.tally();
        w.key("tally").open('{');
        w.key("evaluated").raw(ev).key("pruned").raw(pr);
        w.key("diverged").raw(dv).key("failed").raw(fl);
        w.key("duplicate").raw(du).close('}');
        w.key("candidates").open('[');
        for o in &self.outcomes {
            w.open('{').key("id").raw(o.id).key("label").str(&o.label);
            w.key("backend").str(o.backend.name());
            match &o.status {
                Status::Evaluated(m) => {
                    w.key("status").str("evaluated");
                    w.key("score").raw(m.ops_retired);
                    w.key("ops").raw(m.ops_retired);
                    w.key("exit_code").raw(m.exit_code);
                }
                Status::Pruned(diags) => {
                    w.key("status").str("pruned").key("diagnostics").open('[');
                    for d in diags {
                        w.str(d);
                    }
                    w.close(']');
                }
                Status::Diverged(why) => {
                    w.key("status").str("diverged").key("reason").str(why);
                }
                Status::Failed(why) => {
                    w.key("status").str("failed").key("reason").str(why);
                }
                Status::Duplicate(of) => {
                    w.key("status").str("duplicate").key("of").raw(of);
                }
            }
            w.close('}');
        }
        w.close(']').key("ranking").open('[');
        for (o, _) in self.ranked() {
            w.raw(o.id);
        }
        w.close(']').key("winner");
        match self.winner() {
            Some(win) => {
                w.open('{').key("id").raw(win.id);
                w.key("label").str(&win.label);
                w.key("backend").str(win.backend.name()).close('}')
            }
            None => w.raw("null"),
        };
        w.close('}').finish() + "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> TuneReport {
        TuneReport {
            input: "t.c".into(),
            budget: 8,
            seed: None,
            baseline: Measurement {
                ops_retired: 100,
                exit_code: 0,
            },
            outcomes: vec![
                CandidateOutcome {
                    id: 0,
                    label: "original".into(),
                    backend: BackendChoice::Interp,
                    status: Status::Evaluated(Measurement {
                        ops_retired: 100,
                        exit_code: 0,
                    }),
                },
                CandidateOutcome {
                    id: 1,
                    label: "s0.unroll=4".into(),
                    backend: BackendChoice::Interp,
                    status: Status::Evaluated(Measurement {
                        ops_retired: 80,
                        exit_code: 0,
                    }),
                },
                CandidateOutcome {
                    id: 2,
                    label: "s0.+reverse".into(),
                    backend: BackendChoice::Interp,
                    status: Status::Pruned(vec!["error: loop-carried dependence".into()]),
                },
            ],
        }
    }

    #[test]
    fn ranking_is_total_and_winner_is_best() {
        let r = sample_report();
        let ranked = r.ranked();
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].0.id, 1);
        assert_eq!(r.winner().unwrap().id, 1);
        assert_eq!(r.pruned().len(), 1);
    }

    #[test]
    fn ops_model_json_has_no_wall_times() {
        let r = sample_report();
        let json = r.to_json();
        assert!(!json.contains("wall_us"), "{json}");
        assert!(json.contains("\"winner\":{\"id\":1"), "{json}");
        assert!(json.contains("\"status\":\"pruned\""), "{json}");
        // Deterministic rendering: same input, same bytes.
        assert_eq!(json, sample_report().to_json());
        assert_eq!(r.render_text(), sample_report().render_text());
    }
}
