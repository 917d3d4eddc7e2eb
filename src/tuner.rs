//! The directive autotuner's orchestration layer (`ompltc --autotune`).
//!
//! `omplt-tune` owns the search-space machinery (directive extraction,
//! mutation axes, enumeration, reports); this module wires it to the real
//! pipeline:
//!
//! 1. the **baseline** (the program as written) is compiled and executed
//!    first — it anchors the cost scale and the correctness cross-check;
//! 2. candidates come from the deterministic grid [`omplt_tune::Enumerator`]
//!    (or the seeded [`omplt_tune::Sampler`] when a seed is given) and are
//!    re-synthesized to full C sources;
//! 3. each candidate is parsed and **pruned**: every refusal (parse, Sema,
//!    the dependence pass) is `parse_source`'s `Err`, as on any compile; a
//!    candidate that compiles is dropped all the same when that pass warned
//!    — it could not judge a transformation (`-Wanalysis-limit`), a `simd`
//!    loop must run scalar, or a loop races (`-Wrace`) — an illegal
//!    mutation is *diagnosed*, never miscompiled, and a doubtful one never
//!    ranked;
//! 4. survivors execute serially on the session's backend, ranked by
//!    retired ops (deterministic, so reports are too), under safety rails: a
//!    fuel budget derived from the baseline's own op count (a mutation that
//!    blows the program up runs out of fuel instead of hanging the search)
//!    and a per-candidate ICE containment wall (a candidate that panics the
//!    pipeline is recorded as failed; the search continues);
//! 5. every observable of a survivor (stdout, exit code, final global
//!    memory, task count) is cross-checked against the baseline — a
//!    divergence disqualifies the candidate and is reported loudly, making
//!    the tuner double as a randomized differential stress harness;
//! 6. the ranked [`TuneReport`] and the winning annotated source come back
//!    to the driver.
//!
//! Trace integration: the run is wrapped in a `tuner` span with
//! per-candidate `tuner.candidate` spans, and `tuner.{candidates, evaluated,
//! pruned, diverged, failed, duplicate, ice}` counters land in any active
//! `--counters-json` session.

use crate::compiler::{Backend, CompilerInstance, Options};
use omplt_interp::RunResult;
use omplt_tune::{
    enumerate, sample, BackendChoice, Candidate, CandidateOutcome, EnumConfig, Measurement,
    SourceModel, Status, TuneReport,
};
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;

/// Default evaluation budget for a bare `--autotune`.
pub const DEFAULT_BUDGET: usize = 32;

/// Fuel headroom granted to candidates, as a multiple of the baseline's
/// retired ops: a candidate configuration may legitimately execute more ops
/// than the baseline (tile/unroll overhead), but not orders of magnitude
/// more — anything past the rail is reported as failed, not waited for.
const FUEL_HEADROOM: u64 = 32;

/// Configuration for one [`autotune`] run.
#[derive(Clone, Debug)]
pub struct TuneConfig {
    /// Maximum number of candidates *executed* (pruned and duplicate
    /// candidates do not consume budget).
    pub budget: usize,
    /// `Some(seed)` switches from the deterministic grid to seeded random
    /// sampling (the stress-corpus mode).
    pub seed: Option<u64>,
    /// Pipeline options candidates inherit (threads, backend, fuel caps…).
    /// Evaluation is forced serial so op counts — and therefore reports —
    /// are deterministic.
    pub opts: Options,
    /// Axis construction knobs.
    pub enum_config: EnumConfig,
}

impl Default for TuneConfig {
    fn default() -> TuneConfig {
        TuneConfig {
            budget: DEFAULT_BUDGET,
            seed: None,
            opts: Options::default(),
            enum_config: EnumConfig::default(),
        }
    }
}

/// A finished tuning run.
#[derive(Clone, Debug)]
pub struct TuneOutcome {
    /// The ranked report.
    pub report: TuneReport,
    /// The winning annotated source (`None` when nothing survived).
    pub best_source: Option<String>,
}

/// Why a tuning run could not even start.
#[derive(Clone, Debug)]
pub enum TuneError {
    /// The input program itself failed to compile, analyze cleanly, or run;
    /// the payload is the rendered explanation.
    Baseline(String),
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::Baseline(msg) => {
                write!(f, "cannot autotune: baseline program failed: {msg}")
            }
        }
    }
}

/// How one candidate evaluation ended.
enum Eval {
    Ok(RunResult),
    Pruned(Vec<String>),
    Failed(String),
}

/// Compiles and runs one full source. The returned `Eval` distinguishes
/// "rejected by the front end's analysis" from "crashed past it".
fn evaluate(name: &str, source: &str, opts: Options) -> Eval {
    let mut ci = CompilerInstance::new(opts);
    let findings = |ci: &CompilerInstance| {
        let all = ci.diags.all();
        let msgs = all
            .iter()
            .map(|d| format!("{}: {}", d.level.as_str(), d.message));
        Eval::Pruned(msgs.collect())
    };
    let tu = match ci.parse_source(name, source) {
        Ok(tu) if !ci.analysis().has_findings() => tu,
        _ => return findings(&ci),
    };
    let mut module = match ci.codegen(&tu) {
        Ok(m) => m,
        Err(rendered) => return Eval::Failed(rendered.lines().next().unwrap_or("").to_string()),
    };
    ci.optimize(&mut module);
    if ci.diags.has_errors() {
        return Eval::Failed("mid-end pipeline reported errors".to_string());
    }
    match ci.run(&module) {
        Ok(r) => Eval::Ok(r),
        Err(e) => Eval::Failed(format!("runtime error: {e}")),
    }
}

/// [`evaluate`] behind a per-candidate ICE wall: a pipeline panic is
/// contained to the candidate (the search continues) instead of aborting
/// the whole tuning run.
fn evaluate_contained(name: &str, source: &str, opts: Options) -> Eval {
    match std::panic::catch_unwind(AssertUnwindSafe(|| evaluate(name, source, opts))) {
        Ok(e) => e,
        Err(_) => {
            omplt_trace::count("tuner.ice", 1);
            Eval::Failed("internal compiler error (contained; candidate dropped)".to_string())
        }
    }
}

/// Whether two runs agree on every backend-differential observable. Stdout
/// is compared exactly for serial/single-thread runs and as a sorted line
/// multiset otherwise (interleaving is allowed to differ, content is not).
fn observables_agree(a: &RunResult, b: &RunResult, opts: &Options) -> Result<(), String> {
    if a.exit_code != b.exit_code {
        return Err(format!(
            "exit code {} vs baseline {}",
            b.exit_code, a.exit_code
        ));
    }
    if a.final_globals != b.final_globals {
        return Err("final global memory differs from baseline".to_string());
    }
    if a.tasks_created != b.tasks_created {
        return Err(format!(
            "tasks created {} vs baseline {}",
            b.tasks_created, a.tasks_created
        ));
    }
    let exact = opts.serial || opts.num_threads == 1;
    if exact {
        if a.stdout != b.stdout {
            return Err("stdout differs from baseline".to_string());
        }
    } else {
        let mut la: Vec<&str> = a.stdout.lines().collect();
        let mut lb: Vec<&str> = b.stdout.lines().collect();
        la.sort_unstable();
        lb.sort_unstable();
        if la != lb {
            return Err("stdout line multiset differs from baseline".to_string());
        }
    }
    Ok(())
}

/// Runs the whole search. See the module docs for the phase breakdown.
pub fn autotune(name: &str, source: &str, cfg: &TuneConfig) -> Result<TuneOutcome, TuneError> {
    let _span = omplt_trace::span("tuner");
    let mut base_opts = cfg.opts;
    base_opts.log_chunks = false;
    // Deterministic scores ⇒ deterministic (goldenable) reports.
    base_opts.serial = true;

    // Phase 1: the baseline anchors everything. It must itself pass the
    // legality gate — tuning a program whose hand-written annotation is
    // already illegal (or racy) would cross-check candidates against
    // undefined behaviour.
    let model = SourceModel::parse(source);
    let baseline_run = {
        let _span = omplt_trace::span_detail("tuner.candidate", "baseline");
        match evaluate_contained(name, source, base_opts) {
            Eval::Ok(r) => r,
            Eval::Pruned(msgs) => {
                return Err(TuneError::Baseline(format!(
                    "the input itself fails the legality/analysis gate:\n  {}",
                    msgs.join("\n  ")
                )))
            }
            Eval::Failed(msg) => return Err(TuneError::Baseline(msg)),
        }
    };
    let baseline = Measurement {
        ops_retired: baseline_run.ops_retired,
        exit_code: baseline_run.exit_code,
    };

    // Safety rail: candidates get baseline-proportional fuel.
    let fuel_rail = baseline_run
        .ops_retired
        .saturating_mul(FUEL_HEADROOM)
        .saturating_add(100_000)
        .min(base_opts.max_steps);

    // Phase 2–5: enumerate, prune, execute, cross-check.
    let candidates: Box<dyn Iterator<Item = Candidate>> = match cfg.seed {
        None => Box::new(enumerate(&model, &cfg.enum_config)),
        Some(seed) => Box::new(sample(
            &model,
            &cfg.enum_config,
            seed,
            cfg.enum_config.max_enumerated,
        )),
    };
    let mut outcomes: Vec<CandidateOutcome> = Vec::new();
    let mut seen: HashMap<(String, &'static str, u8), usize> = HashMap::new();
    let mut evaluated = 0usize;
    for c in candidates {
        if evaluated >= cfg.budget {
            break;
        }
        omplt_trace::count("tuner.candidates", 1);
        // A vector width implies the VM — strict: a bytecode compile/verify
        // failure must fail the candidate, not silently re-measure it on the
        // interpreter. Everything else runs on the session's backend.
        let backend = match c.vector_width {
            None => base_opts.backend,
            Some(_) => Backend::VmStrict,
        };
        let choice = match backend {
            Backend::Interp => BackendChoice::Interp,
            Backend::Vm | Backend::VmStrict => BackendChoice::Vm,
        };
        // The widening pass only exists in the bytecode tier, so on the
        // interpreter every width is the same program — fold it to 0 in the
        // dedup key so interp candidates differing only in width collapse.
        let vector_width = c.vector_width.unwrap_or(base_opts.vector_width);
        let dedup_width = match choice {
            BackendChoice::Vm => vector_width,
            BackendChoice::Interp => 0,
        };
        let status = match model.apply(&c.mutations) {
            Err(e) => Some(Status::Failed(format!("re-synthesis error: {e}"))),
            Ok(mutated) => match seen.entry((mutated.clone(), choice.name(), dedup_width)) {
                std::collections::hash_map::Entry::Occupied(first) => {
                    Some(Status::Duplicate(*first.get()))
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(c.id);
                    let _span = omplt_trace::span_detail("tuner.candidate", &c.label);
                    let mut opts = base_opts;
                    opts.backend = backend;
                    opts.vector_width = vector_width;
                    opts.max_steps = fuel_rail;
                    match evaluate_contained(name, &mutated, opts) {
                        Eval::Pruned(msgs) => Some(Status::Pruned(msgs)),
                        Eval::Failed(msg) => Some(Status::Failed(msg)),
                        Eval::Ok(run) => {
                            evaluated += 1;
                            match observables_agree(&baseline_run, &run, &opts) {
                                Err(why) => Some(Status::Diverged(why)),
                                Ok(()) => Some(Status::Evaluated(Measurement {
                                    ops_retired: run.ops_retired,
                                    exit_code: run.exit_code,
                                })),
                            }
                        }
                    }
                }
            },
        };
        let status = status.expect("every branch yields a status");
        let counter = match &status {
            Status::Evaluated(_) => "tuner.evaluated",
            Status::Pruned(_) => "tuner.pruned",
            Status::Diverged(_) => "tuner.diverged",
            Status::Failed(_) => "tuner.failed",
            Status::Duplicate(_) => "tuner.duplicate",
        };
        omplt_trace::count(counter, 1);
        outcomes.push(CandidateOutcome {
            id: c.id,
            label: c.label,
            backend: choice,
            status,
        });
    }

    // Phase 6: report + winning source.
    let report = TuneReport {
        input: name.to_string(),
        budget: cfg.budget,
        seed: cfg.seed,
        baseline,
        outcomes,
    };
    let best_source = report.winner().map(|w| {
        // Ids are enumeration-dense only until the budget cut, so re-walk
        // the generator to recover the winner's mutations.
        let mutations = match cfg.seed {
            None => enumerate(&model, &cfg.enum_config)
                .nth(w.id)
                .map(|c| c.mutations),
            Some(seed) => sample(
                &model,
                &cfg.enum_config,
                seed,
                cfg.enum_config.max_enumerated,
            )
            .nth(w.id)
            .map(|c| c.mutations),
        };
        mutations
            .and_then(|m| model.apply(&m).ok())
            .unwrap_or_else(|| source.to_string())
    });
    Ok(TuneOutcome {
        report,
        best_source,
    })
}
