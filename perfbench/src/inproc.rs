//! The four in-process workloads (`compile_*`, `exec_*`): set-up, the timed
//! end-to-end phase, and the traced per-layer phase. They differ only in
//! their programs and options ([`Spec`]).

use crate::calib::Calibration;
use crate::gen::{self, Program, Scale};
use crate::metrics::Values;
use crate::pipe::{self, Compiled};
use crate::proc::{self, Binaries, RunDir};
use crate::stats::{fastest, geomean, median, tail};
use crate::trace_out::{self, ProgramTrace};
use omplt::{Backend, OpenMpCodegenMode, Options};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The timings reported at the calibration loop's reference speed
/// (`calib.rs`): all of them are the processor's work.
pub const SCALED: &[&str] = &["setup_s", "cli_ms", "compile_ms", "run_ms"];

/// What distinguishes one in-process workload from another.
pub struct Spec {
    pub name: &'static str,
    /// Options of the timed rounds, with a guest team of one: whether this
    /// box's second vCPU is a core of its own changes for minutes at a time
    /// (two calibration passes on two threads take 1.05 or 2.0 times one
    /// pass), and a team of two turns that into the timing — `exec_vm`'s
    /// `run_ms` read 25.3 ms over one ten-run set and 20.8 ms over the next.
    pub opts: Options,
    pub cli_flags: Vec<String>,
    /// `Some` for the `exec_*` workloads: the kernels' trip-count scale.
    pub scale: Option<Scale>,
    /// Back-to-back compiles and runs that make up one sample of a program
    /// (see [`sample_compiles`]): more for the short operation, so that every
    /// sample covers a few milliseconds.
    pub compile_reps: usize,
    pub run_reps: usize,
}

impl Spec {
    /// Options of the set-up's oracle checks and of the traced phase: guest
    /// teams of 2, one thread per core of the box.
    pub fn teams_of_two(&self) -> Options {
        Options {
            num_threads: 2,
            ..self.opts
        }
    }
}

/// The spec of an in-process workload, `None` for any other name.
pub fn spec(name: &str, quick: bool) -> Option<Spec> {
    let base = Options {
        num_threads: 1,
        backend: Backend::VmStrict,
        ..Options::default()
    };
    let flags = |extra: &[&str]| -> Vec<String> {
        ["--opt", "--run", "--threads", "1"]
            .iter()
            .chain(extra)
            .map(|s| s.to_string())
            .collect()
    };
    let tiny = |s: Scale| if quick { Scale::Tiny } else { s };
    Some(match name {
        "compile_classic" => Spec {
            name: "compile_classic",
            opts: base,
            cli_flags: flags(&["--backend=vm:strict"]),
            scale: None,
            compile_reps: 1,
            run_reps: 4,
        },
        "compile_irbuilder" => Spec {
            name: "compile_irbuilder",
            opts: Options {
                codegen_mode: OpenMpCodegenMode::IrBuilder,
                ..base
            },
            cli_flags: flags(&["--backend=vm:strict", "--enable-irbuilder"]),
            scale: None,
            compile_reps: 1,
            run_reps: 4,
        },
        "exec_vm" => Spec {
            name: "exec_vm",
            opts: Options {
                vector_width: 4,
                ..base
            },
            cli_flags: flags(&["--backend=vm:strict", "--vector-width=4"]),
            scale: Some(tiny(Scale::Vm)),
            compile_reps: 16,
            run_reps: 1,
        },
        "exec_interp" => Spec {
            name: "exec_interp",
            opts: Options {
                backend: Backend::Interp,
                ..base
            },
            cli_flags: flags(&["--backend=interp"]),
            scale: Some(tiny(Scale::Interp)),
            compile_reps: 16,
            run_reps: 1,
        },
        _ => return None,
    })
}

/// Attempts and failures of checked operations. The first failure's text is
/// kept for the report.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl Tally {
    /// Adds another tally's counts (a client thread's, a round's).
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    /// Counts one attempt; a failure is recorded, not propagated, so the
    /// run goes on and `failed` tells how often it happened.
    pub fn check<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
                None
            }
        }
    }
}

/// The wall time of each step of one set-up, in order. A step runs once per
/// set-up, so its fastest time is taken across the run's set-ups
/// ([`Laps::floor`]) — the estimator of every timing here, step by step.
pub struct Laps {
    last: Instant,
    secs: Vec<f64>,
}

impl Laps {
    pub fn start() -> Laps {
        Laps {
            last: Instant::now(),
            secs: Vec::new(),
        }
    }

    /// Ends a step: everything since the previous call.
    pub fn lap(&mut self) {
        let now = Instant::now();
        self.secs.push((now - self.last).as_secs_f64());
        self.last = now;
    }

    /// The sum over the steps of each step's fastest time among `set_ups`.
    pub fn floor(set_ups: &[Laps]) -> f64 {
        let steps = set_ups[0].secs.len();
        assert!(
            set_ups.iter().all(|l| l.secs.len() == steps),
            "every set-up takes the same steps"
        );
        (0..steps)
            .map(|i| {
                set_ups
                    .iter()
                    .map(|l| l.secs[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    }
}

pub fn expect_stdout(got: &str, p: &Program) -> Result<(), String> {
    if got == p.expected {
        Ok(())
    } else {
        Err(format!(
            "{}: wrong stdout {got:?}, expected {:?}",
            p.name, p.expected
        ))
    }
}

/// One program, compiled, checked and sized at set-up.
pub struct Prepared {
    pub program: Program,
    pub file: PathBuf,
    pub compiled: Compiled,
    /// `vm::encode` of the verified bytecode; every later compile must
    /// reproduce it byte for byte.
    pub image: Vec<u8>,
    pub ops_retired: u64,
}

/// A workload after set-up, ready for either phase.
pub struct Ready {
    spec: Spec,
    programs: Vec<Prepared>,
    bins: Binaries,
    _dir: RunDir,
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Two compiles under a trace session each: the exact counts must agree.
fn compile_twice(opts: Options, p: &Program) -> Result<(Compiled, Vec<u8>), String> {
    let mut seen: Option<(Vec<u8>, u64, u64)> = None;
    let mut last = None;
    for _ in 0..2 {
        let session = omplt::trace::Session::begin();
        let compiled = pipe::compile(opts, p);
        let counters = session.finish().counters;
        let compiled = compiled.map_err(|e| format!("{}: {e}", p.name))?;
        let count = |k: &str| counters.get(k).copied().unwrap_or(0);
        let now = (
            omplt::vm::encode(&compiled.code),
            count("lex.tokens"),
            count("vm.compile.ops"),
        );
        if let Some(prev) = &seen {
            if *prev != now {
                return Err(format!(
                    "{}: two compiles of one source differ (bytecode {} vs {} B, lex.tokens {} vs {}, vm.compile.ops {} vs {})",
                    p.name, prev.0.len(), now.0.len(), prev.1, now.1, prev.2, now.2
                ));
            }
        }
        seen = Some(now);
        last = Some(compiled);
    }
    Ok((
        last.expect("two compiles ran"),
        seen.expect("two compiles ran").0,
    ))
}

/// Interp ≡ VM on the kernels at equal (interpreter) size with teams of 2,
/// and both equal to the native oracle.
fn engines_agree(spec: &Spec, seed: u64, scale: Scale) -> Result<(), String> {
    let small = if scale == Scale::Vm {
        Scale::Interp
    } else {
        scale
    };
    for p in gen::kernels(seed, small) {
        for backend in [Backend::Interp, Backend::VmStrict] {
            let opts = Options {
                backend,
                vector_width: 4,
                ..spec.teams_of_two()
            };
            let out = pipe::run(opts, &pipe::compile(opts, &p)?)?;
            expect_stdout(&out.stdout, &p).map_err(|e| format!("{backend:?} {e}"))?;
        }
    }
    Ok(())
}

/// Compiles `program` twice and runs it twice: the warm-up pass, the oracle
/// check, and the proof that the exact counts (`bytecode_bytes`,
/// `lex.tokens`, `vm.compile.ops`, `ops_retired`) repeat.
pub fn prepare(
    opts: Options,
    program: Program,
    file: PathBuf,
    laps: &mut Laps,
) -> Result<Prepared, String> {
    let (compiled, image) = compile_twice(opts, &program)?;
    laps.lap();
    let mut ops = None;
    for _ in 0..2 {
        let out = pipe::run(opts, &compiled)?;
        expect_stdout(&out.stdout, &program)?;
        if ops.is_some_and(|o| o != out.ops_retired) {
            return Err(format!(
                "{}: ops_retired differs between two runs",
                program.name
            ));
        }
        ops = Some(out.ops_retired);
    }
    laps.lap();
    Ok(Prepared {
        program,
        file,
        compiled,
        image,
        ops_retired: ops.expect("two runs"),
    })
}

/// Everything before the first timed sample. Any failure here is fatal: the
/// workloads are chosen so that no operation fails.
pub fn set_up(
    spec: Spec,
    bins: Binaries,
    seed: u64,
    quick: bool,
    laps: &mut Laps,
) -> Result<Ready, String> {
    let dir = RunDir::create(spec.name)?;
    let programs = match spec.scale {
        Some(scale) => gen::kernels(seed, scale),
        None => gen::translation_units(seed, quick),
    };
    laps.lap();
    let mut prepared = Vec::new();
    for program in programs {
        let file = dir.write(&format!("{}.c", program.name), &program.source)?;
        proc::cli_run(&bins.ompltc, &spec.cli_flags, &file, &program.expected)?;
        laps.lap();
        let p = prepare(spec.opts, program, file, laps)?;
        // The team of 2 must print the oracle's stdout too.
        let out = pipe::run(spec.teams_of_two(), &p.compiled)?;
        expect_stdout(&out.stdout, &p.program).map_err(|e| format!("team of 2: {e}"))?;
        laps.lap();
        prepared.push(p);
    }
    if let Some(scale) = spec.scale {
        engines_agree(&spec, seed, scale)?;
        laps.lap();
    }
    Ok(Ready {
        spec,
        programs: prepared,
        bins,
        _dir: dir,
    })
}

/// The outcome of a phase: metric values plus the attempt tally.
pub struct Outcome {
    pub values: Values,
    pub tally: Tally,
}

#[derive(Default)]
struct Samples {
    cli: Vec<f64>,
    compile: Vec<f64>,
    run: Vec<f64>,
}

/// Geometric mean over programs of each program's [`fastest`] sample.
pub fn typical<'a>(per_program: impl Iterator<Item = &'a Vec<f64>>) -> Result<f64, String> {
    let mut floors = Vec::new();
    for samples in per_program {
        if samples.is_empty() {
            return Err("a program has no successful sample".to_string());
        }
        floors.push(fastest(samples));
    }
    Ok(geomean(&floors))
}

/// The two exact counts, summed over the workload's programs.
pub fn insert_counts(values: &mut Values, programs: &[Prepared]) {
    values.insert(
        "bytecode_bytes".into(),
        programs.iter().map(|p| p.image.len() as f64).sum(),
    );
    values.insert(
        "ops_retired".into(),
        programs.iter().map(|p| p.ops_retired as f64).sum(),
    );
}

/// One sample of `p`'s compile time: `reps` isolated compiles back to back,
/// each checked against the set-up's verified bytecode (outside the timed
/// part); their mean wall goes to `sink` when all succeeded. A sample of a
/// sub-millisecond operation taken alone would time the clock and the
/// cache state it starts from.
pub fn sample_compiles(
    opts: Options,
    p: &Prepared,
    reps: usize,
    tally: &mut Tally,
    sink: &mut Vec<f64>,
) {
    let (mut total_ms, mut ok) = (0.0, true);
    for _ in 0..reps {
        let t = Instant::now();
        let compiled = pipe::compile(opts, &p.program);
        total_ms += ms_since(t);
        let same = compiled.and_then(|c| {
            (omplt::vm::encode(&c.code) == p.image)
                .then_some(())
                .ok_or_else(|| {
                    format!(
                        "{}: bytecode differs from the verified set-up compile",
                        p.program.name
                    )
                })
        });
        ok &= tally.check(same).is_some();
    }
    if ok {
        sink.push(total_ms / reps as f64);
    }
}

/// One sample of `p`'s run time: `reps` isolated runs of its compiled
/// module, each checked against the oracle and the set-up's `ops_retired`.
pub fn sample_runs(
    opts: Options,
    p: &Prepared,
    reps: usize,
    tally: &mut Tally,
    sink: &mut Vec<f64>,
) {
    let (mut total_ms, mut ok) = (0.0, true);
    for _ in 0..reps {
        let t = Instant::now();
        let out = pipe::run(opts, &p.compiled);
        total_ms += ms_since(t);
        let checked = out.and_then(|o| {
            expect_stdout(&o.stdout, &p.program)?;
            (o.ops_retired == p.ops_retired)
                .then_some(())
                .ok_or_else(|| {
                    format!(
                        "{}: ops_retired {} then {}",
                        p.program.name, p.ops_retired, o.ops_retired
                    )
                })
        });
        ok &= tally.check(checked).is_some();
    }
    if ok {
        sink.push(total_ms / reps as f64);
    }
}

impl Ready {
    /// The end-to-end phase: rounds over the programs until `seconds` are up,
    /// no trace session open. Each round takes, per program, one `ompltc`
    /// one-shot, one compile sample, one run sample and one calibration pass.
    pub fn timed_phase(&self, seconds: f64, calib: &mut Calibration) -> Result<Outcome, String> {
        let spec = &self.spec;
        let mut tally = Tally::default();
        let mut samples: Vec<Samples> = self.programs.iter().map(|_| Samples::default()).collect();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        while Instant::now() < deadline {
            for (p, s) in self.programs.iter().zip(&mut samples) {
                if let Some(ms) = tally.check(proc::cli_run(
                    &self.bins.ompltc,
                    &spec.cli_flags,
                    &p.file,
                    &p.program.expected,
                )) {
                    s.cli.push(ms);
                }
                sample_compiles(spec.opts, p, spec.compile_reps, &mut tally, &mut s.compile);
                sample_runs(spec.opts, p, spec.run_reps, &mut tally, &mut s.run);
                calib.sample();
            }
        }
        let mut values = Values::new();
        values.insert("cli_ms".into(), typical(samples.iter().map(|s| &s.cli))?);
        values.insert(
            "compile_ms".into(),
            typical(samples.iter().map(|s| &s.compile))?,
        );
        values.insert("run_ms".into(), typical(samples.iter().map(|s| &s.run))?);
        insert_counts(&mut values, &self.programs);
        values.insert("peak_rss_mb".into(), proc::peak_rss_mb(std::process::id())?);
        Ok(Outcome { values, tally })
    }
}

/// Median duration in µs of a session's `bench.<layer>` spans, 0 without any.
pub fn layer_us(data: &omplt::trace::TraceData, layer: &str) -> f64 {
    let durs: Vec<f64> = data
        .events
        .iter()
        .filter(|e| e.name == layer)
        .map(|e| e.dur_us as f64)
        .collect();
    if durs.is_empty() {
        0.0
    } else {
        median(&durs)
    }
}

/// Sum of every counter whose name matches `pick`, per `per` trips.
fn counters_matching(t: &ProgramTrace, per: usize, pick: impl Fn(&str) -> bool) -> f64 {
    t.data
        .counters
        .iter()
        .filter(|(k, _)| pick(k))
        .map(|(_, v)| *v as f64)
        .fold(0.0, |a, b| a + b) // `sum()` of nothing is -0.0
        / per as f64
}

/// Which per-program metric names the traced phase emits.
#[derive(Clone, Copy, PartialEq)]
pub enum Naming {
    /// `parse_sema.us.<tu>` and the `plain` directive-node count.
    Tus,
    /// `<engine>.run.us.<kernel>`, `.ops_retired.`, `.mops_per_s.`.
    Kernels,
    /// Totals only (`daemon_mix`'s hot set).
    Totals,
}

impl Ready {
    /// The traced phase of an in-process workload.
    pub fn traced_phase(&self, seconds: f64) -> Result<(Outcome, Vec<ProgramTrace>), String> {
        let naming = if self.spec.scale.is_some() {
            Naming::Kernels
        } else {
            Naming::Tus
        };
        let programs: Vec<&Program> = self.programs.iter().map(|p| &p.program).collect();
        trace_programs(
            self.spec.teams_of_two(),
            naming,
            self.spec.scale.is_some(),
            &programs,
            seconds,
        )
    }
}

/// The traced phase. Per program, blocks of layered trips alternate: a
/// block inside a trace session, then as many trips with no session open
/// (four of each, so that drift hits both sides alike). The sessions of one
/// program are joined into one; they yield the per-layer numbers, and the
/// ratio of the two walls is the tracing overhead. With `run_every_trip`
/// unset only the first trip of each side executes the program — the
/// `compile_*` workloads' one correctness run per TU — so that execution
/// stays a sliver of their traced wall. Returns the traces too, for
/// `--trace-out`.
pub fn trace_programs(
    opts: Options,
    naming: Naming,
    run_every_trip: bool,
    programs: &[&Program],
    seconds: f64,
) -> Result<(Outcome, Vec<ProgramTrace>), String> {
    let mut tally = Tally::default();
    // One full trip's output per program, for the counts no trace counter
    // carries.
    let (mut traces, mut jobs) = (Vec::new(), Vec::new());
    let (mut traced_wall, mut plain_wall) = (0.0, 0.0);
    // Untraced samples of every program, each as a ratio to its program's
    // median, so that programs of different sizes pool into one tail.
    let (mut compile_ratios, mut run_ratios) = (Vec::new(), Vec::new());
    let (mut compile_medians, mut run_medians) = (Vec::new(), Vec::new());
    let budget = seconds / programs.len() as f64;
    for &prog in programs {
        let trip = |tally: &mut Tally, execute: bool| {
            let out = pipe::layered_job(opts, prog, execute);
            tally.check(out.and_then(|o| match &o.ran {
                Some(r) => expect_stdout(&r.stdout, prog).map(|()| o),
                None => Ok(o),
            }))
        };
        let t = Instant::now();
        let first =
            trip(&mut tally, true).ok_or_else(|| tally.first_error.clone().unwrap_or_default())?;
        let est = t.elapsed().as_secs_f64();
        let blocks = 4.min(((budget / 2.0 / est) as usize).max(1));
        let per_block = ((budget / 2.0 / est) as usize / blocks).clamp(1, 100);

        let mut joined = omplt::trace::TraceData {
            events: Vec::new(),
            counters: Default::default(),
            wall_us: 0,
        };
        let (mut compile_ms, mut run_ms) = (Vec::new(), Vec::new());
        let mut runs = 0;
        for block in 0..blocks {
            let executes = |i: usize| run_every_trip || (block == 0 && i == 0);
            let session = omplt::trace::Session::begin();
            let t = Instant::now();
            for i in 0..per_block {
                runs += usize::from(executes(i));
                trip(&mut tally, executes(i));
            }
            traced_wall += t.elapsed().as_secs_f64();
            let data = session.finish();
            for mut e in data.events {
                e.start_us += joined.wall_us;
                joined.events.push(e);
            }
            for (k, n) in data.counters {
                *joined.counters.entry(k).or_insert(0) += n;
            }
            joined.wall_us += data.wall_us;

            let t = Instant::now();
            for i in 0..per_block {
                if let Some(o) = trip(&mut tally, executes(i)) {
                    compile_ms.push(o.compile_ms);
                    run_ms.extend(o.ran.map(|r| r.ms));
                }
            }
            plain_wall += t.elapsed().as_secs_f64();
        }
        if compile_ms.is_empty() || run_ms.is_empty() {
            return Err(tally.first_error.unwrap_or_default());
        }
        let (cm, rm) = (median(&compile_ms), median(&run_ms));
        compile_ratios.extend(compile_ms.iter().map(|v| v / cm));
        run_ratios.extend(run_ms.iter().map(|v| v / rm));
        compile_medians.push(cm);
        run_medians.push(rm);
        traces.push(ProgramTrace {
            name: prog.name.clone(),
            trips: blocks * per_block,
            runs,
            data: joined,
        });
        jobs.push(first);
    }

    let mut v = Values::new();
    let mut put = |name: &str, value: f64| {
        v.insert(name.to_string(), value);
    };
    let sum = |f: &dyn Fn(&ProgramTrace) -> f64| traces.iter().map(f).sum::<f64>();
    put(
        "source.bytes",
        programs.iter().map(|p| p.source.len() as f64).sum(),
    );
    put(
        "source.lines",
        programs
            .iter()
            .map(|p| p.source.lines().count() as f64)
            .sum(),
    );
    for (metric, layer) in [
        ("lex.us", "bench.lex"),
        ("parse_sema.us", "bench.parse_sema"),
        ("analysis.us", "bench.analysis"),
        ("codegen.us", "bench.codegen"),
        ("midend.us", "bench.midend"),
        ("vm.compile.us", "bench.vm.compile"),
        ("vm.verify.us", "bench.vm.verify"),
        ("vm.encode.us", "bench.vm.encode"),
        ("vm.decode.us", "bench.vm.decode"),
        ("vm.init.us", "bench.vm.init"),
    ] {
        put(metric, sum(&|t| layer_us(&t.data, layer)));
    }
    put(
        "exec.us",
        sum(&|t| layer_us(&t.data, "bench.vm.run") + layer_us(&t.data, "bench.interp.run")),
    );
    for name in [
        "lex.tokens",
        "sema.shadow.helper_nodes",
        "sema.shadow.transformed_nodes",
        "sema.canonical.meta_items",
        "analysis.depend.graphs",
        "analysis.depend.deps",
        "ompirb.canonical_loops",
        "ompirb.tile",
        "ompirb.unroll",
        "ompirb.workshare.static",
        "ompirb.workshare.dynamic",
        "vm.compile.ops",
        "vm.compile.peephole.removed",
        "vm.simd.widened_loops",
        "vm.simd.refused",
    ] {
        put(name, sum(&|t| counters_matching(t, t.trips, |k| k == name)));
    }
    put("ir.insts", jobs.iter().map(|j| j.ir_insts as f64).sum());
    put(
        "ir.insts_opt",
        jobs.iter().map(|j| j.ir_insts_opt as f64).sum(),
    );
    put(
        "midend.unrolled_loops",
        jobs.iter().map(|j| j.unrolled_loops as f64).sum(),
    );
    for kind in ["static", "dynamic"] {
        let part = format!(".chunks.{kind}.t");
        put(
            &format!("runtime.chunks.{kind}"),
            sum(&|t| counters_matching(t, t.runs, |k| k.contains(&part))),
        );
    }
    put(
        "runtime.barrier.waits",
        sum(&|t| counters_matching(t, t.runs, |k| k.ends_with(".barrier.waits"))),
    );
    let engine = if opts.backend == Backend::Interp {
        "interp"
    } else {
        "vm"
    };
    for (t, job) in traces.iter().zip(&jobs) {
        if naming == Naming::Totals {
            continue;
        }
        if naming == Naming::Tus {
            put(
                &format!("parse_sema.us.{}", t.name),
                layer_us(&t.data, "bench.parse_sema"),
            );
            if t.name == "plain" {
                put(
                    "sema.directive_nodes.plain",
                    counters_matching(t, t.trips, |k| {
                        k.starts_with("sema.shadow.") || k.starts_with("sema.canonical.")
                    }),
                );
            }
        } else {
            let us = layer_us(&t.data, &format!("bench.{engine}.run"));
            put(&format!("{engine}.run.us.{}", t.name), us);
            let ops = job.ran.as_ref().map_or(0, |r| r.ops_retired) as f64;
            put(&format!("{engine}.ops_retired.{}", t.name), ops);
            put(
                &format!("{engine}.mops_per_s.{}", t.name),
                ops / us.max(1.0),
            );
        }
    }
    // Tail of the untraced trips, scaled back to milliseconds.
    put("pipeline.samples", compile_ratios.len() as f64);
    if let Some(c) = tail(&compile_ratios, 90.0) {
        put("pipeline.compile_ms_p90", geomean(&compile_medians) * c);
    }
    if let Some(r) = tail(&run_ratios, 90.0) {
        put("pipeline.run_ms_p90", geomean(&run_medians) * r);
    }
    let shares = trace_out::self_time_shares(&traces);
    put("trace.exec_share_pct", 100.0 * shares.exec);
    put("trace.compile_share_pct", 100.0 * shares.compile);
    put(
        "trace.overhead_pct",
        100.0 * (traced_wall / plain_wall - 1.0),
    );
    Ok((Outcome { values: v, tally }, traces))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_floor_sums_each_steps_fastest_time() {
        let laps = |secs: &[f64]| Laps {
            last: Instant::now(),
            secs: secs.to_vec(),
        };
        let set_ups = [laps(&[0.3, 0.1, 0.5]), laps(&[0.2, 0.4, 0.6])];
        assert!((Laps::floor(&set_ups) - (0.2 + 0.1 + 0.5)).abs() < 1e-12);
        assert!((Laps::floor(&set_ups[..1]) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn tally_counts_failures_and_keeps_the_first() {
        let mut t = Tally::default();
        assert_eq!(t.check(Ok::<u8, String>(7)), Some(7));
        assert_eq!(t.check(Err::<u8, String>("first".into())), None);
        assert_eq!(t.check(Err::<u8, String>("second".into())), None);
        assert_eq!((t.attempted, t.failed), (3, 2));
        assert_eq!(t.first_error.as_deref(), Some("first"));
    }
}
