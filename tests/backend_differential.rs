//! Differential testing: the bytecode VM against the tree-walking
//! interpreter, which serves as the semantic oracle.
//!
//! Every comparison point runs the *same* source through both backends and
//! requires:
//!
//! * identical exit code,
//! * identical observable memory (final byte contents of every global),
//! * identical task counts,
//! * identical worksharing chunk logs (sorted multiset — chunk boundaries
//!   are deterministic even when the claiming thread is a race),
//! * identical stdout (exact for one thread, as a sorted line multiset for
//!   threaded runs, where interleaving is allowed to differ).
//!
//! Coverage: the checked-in example programs, the full schedule-kind ×
//! transformation × thread-count matrix the ISSUE's acceptance criteria
//! name, and a fleet of seeded pseudo-random loop nests.

use omplt::interp::{RunResult, RuntimeSchedule};
use omplt::{Backend, CompilerInstance, OpenMpCodegenMode, Options};

fn run_with(source: &str, opts: Options, optimize: bool, label: &str) -> RunResult {
    let mut ci = CompilerInstance::new(opts);
    match ci.compile_and_run("diff.c", source, optimize) {
        Ok(r) => r,
        Err(e) => panic!("[{label}] {:?} backend failed:\n{e}", opts.backend),
    }
}

/// Runs `source` on both backends and asserts every observable agrees;
/// returns the VM's result.
fn assert_backends_agree(source: &str, base: Options, optimize: bool, label: &str) -> RunResult {
    let opts = |backend| Options {
        backend,
        log_chunks: true,
        ..base
    };
    let oracle = run_with(source, opts(Backend::Interp), optimize, label);
    let vm = run_with(source, opts(Backend::Vm), optimize, label);
    assert_eq!(oracle.exit_code, vm.exit_code, "[{label}] exit code");
    assert_eq!(
        oracle.final_globals, vm.final_globals,
        "[{label}] final global memory"
    );
    assert_eq!(
        oracle.tasks_created, vm.tasks_created,
        "[{label}] tasks created"
    );
    assert_eq!(oracle.chunk_log, vm.chunk_log, "[{label}] chunk log");
    if base.num_threads == 1 || base.serial {
        assert_eq!(oracle.stdout, vm.stdout, "[{label}] stdout");
    } else {
        let mut a: Vec<&str> = oracle.stdout.lines().collect();
        let mut b: Vec<&str> = vm.stdout.lines().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "[{label}] stdout line multiset");
    }
    vm
}

const MODES: [OpenMpCodegenMode; 2] = [OpenMpCodegenMode::Classic, OpenMpCodegenMode::IrBuilder];

#[test]
fn example_programs_agree_on_both_backends() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/c");
    let mut ran = 0;
    for entry in std::fs::read_dir(dir).expect("examples/c exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("c") {
            continue;
        }
        let source = std::fs::read_to_string(&path).unwrap();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        for mode in MODES {
            for threads in [1u32, 4] {
                for optimize in [false, true] {
                    let base = Options {
                        codegen_mode: mode,
                        num_threads: threads,
                        ..Options::default()
                    };
                    let label = format!("{name} {mode:?} threads={threads} opt={optimize}");
                    assert_backends_agree(&source, base, optimize, &label);
                    ran += 1;
                }
            }
        }
    }
    assert!(ran > 0, "no example programs found in {dir}");
}

/// The acceptance-criteria matrix: every schedule kind × {none, tile,
/// unroll} × threads ∈ {1, 4}, in both codegen modes, with and without the
/// mid-end pipeline.
#[test]
fn schedule_transform_thread_matrix_agrees() {
    let schedules = [
        ("default", ""),
        ("static", " schedule(static)"),
        ("static3", " schedule(static, 3)"),
        ("dynamic2", " schedule(dynamic, 2)"),
        ("guided", " schedule(guided)"),
        ("runtime", " schedule(runtime)"),
    ];
    // Each transform wraps the same inner loop so the observable memory
    // (`acc`) is identical across all of them.
    let transforms = [
        ("none", ""),
        ("tile", "      #pragma omp tile sizes(4)\n"),
        ("unroll", "      #pragma omp unroll partial(2)\n"),
        ("reverse", "      #pragma omp reverse\n"),
    ];
    for (sname, sched) in schedules {
        for (tname, pragma) in transforms {
            let src = format!(
                "long acc[204];\n\
                 int main(void) {{\n\
                 \x20 #pragma omp parallel\n\
                 \x20 {{\n\
                 \x20   #pragma omp for{sched}\n\
                 \x20   for (int i = 0; i < 17; i += 1) {{\n\
                 {pragma}\
                 \x20     for (int j = 0; j < 12; j += 1)\n\
                 \x20       acc[i * 12 + j] = i * 1000 + j * 7;\n\
                 \x20   }}\n\
                 \x20 }}\n\
                 \x20 long sum = 0;\n\
                 \x20 for (int k = 0; k < 204; k += 1)\n\
                 \x20   sum += acc[k];\n\
                 \x20 return sum % 251;\n\
                 }}\n"
            );
            for mode in MODES {
                for threads in [1u32, 4] {
                    for optimize in [false, true] {
                        let base = Options {
                            codegen_mode: mode,
                            num_threads: threads,
                            // Pin schedule(runtime) so the matrix is
                            // hermetic regardless of OMP_SCHEDULE.
                            runtime_schedule: Some(RuntimeSchedule::parse("dynamic,3").unwrap()),
                            ..Options::default()
                        };
                        let label =
                            format!("{sname}/{tname} {mode:?} threads={threads} opt={optimize}");
                        assert_backends_agree(&src, base, optimize, &label);
                    }
                }
            }
        }
    }
}

/// A minimal deterministic PRNG (xorshift-multiply) so the random nests are
/// reproducible from the printed seed.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[(self.next() % xs.len() as u64) as usize]
    }
}

/// Generates a randomized two-level loop nest: outer worksharing loop with a
/// random schedule, inner loop with a random transformation, random bounds
/// and coefficients, writing disjoint cells of a global accumulator.
fn random_nest(rng: &mut Lcg) -> (String, u32) {
    let ni = rng.range(3, 23);
    let nj = rng.range(1, 9);
    let c1 = rng.range(1, 999);
    let c2 = rng.range(1, 99);
    let sched = *rng.pick(&[
        "",
        " schedule(static)",
        " schedule(static, 2)",
        " schedule(dynamic, 3)",
        " schedule(guided, 2)",
        " schedule(runtime)",
    ]);
    let unroll_factor = rng.range(2, 4);
    let tile_size = rng.range(2, 5);
    let pragma = match rng.range(0, 3) {
        0 => String::new(),
        1 => format!("      #pragma omp tile sizes({tile_size})\n"),
        2 => format!("      #pragma omp unroll partial({unroll_factor})\n"),
        _ => "      #pragma omp reverse\n".to_string(),
    };
    let threads = *rng.pick(&[1u32, 4]);
    let total = ni * nj;
    let src = format!(
        "long acc[{total}];\n\
         int main(void) {{\n\
         \x20 #pragma omp parallel\n\
         \x20 {{\n\
         \x20   #pragma omp for{sched}\n\
         \x20   for (int i = 0; i < {ni}; i += 1) {{\n\
         {pragma}\
         \x20     for (int j = 0; j < {nj}; j += 1)\n\
         \x20       acc[i * {nj} + j] = i * {c1} + j * {c2} + (i - j) * (i + j);\n\
         \x20   }}\n\
         \x20 }}\n\
         \x20 long sum = 0;\n\
         \x20 for (int k = 0; k < {total}; k += 1)\n\
         \x20   sum += acc[k];\n\
         \x20 return sum % 251;\n\
         }}\n"
    );
    (src, threads)
}

#[test]
fn randomized_loop_nests_agree() {
    let mut rng = Lcg(0x0517_2021_1c99);
    for case in 0..24 {
        let seed = rng.0;
        let (src, threads) = random_nest(&mut rng);
        let mode = *rng.pick(&MODES);
        let optimize = rng.next().is_multiple_of(2);
        let base = Options {
            codegen_mode: mode,
            num_threads: threads,
            runtime_schedule: Some(RuntimeSchedule::parse("guided").unwrap()),
            ..Options::default()
        };
        let label = format!(
            "random case {case} (seed {seed:#x}, {mode:?}, threads={threads}, opt={optimize})\n{src}"
        );
        assert_backends_agree(&src, base, optimize, &label);
    }
}

/// Mutation-driven differential leg: the autotuner's seeded mutation
/// sampler generates directive variants of a triangular reduction (a nest
/// chosen because *both* of its order-changing insertions are illegal —
/// `reverse` hits the reduction's loop-carried flow dependence and
/// `interchange` hits the non-rectangular inner bound). Every variant the
/// legality gate admits must execute identically on both backends; every
/// variant it rejects must carry at least one diagnostic explaining why.
/// This is the tuner's prune-before-run contract, checked from the outside.
#[test]
fn sampled_directive_mutants_agree_or_are_pruned() {
    let base_src = "\
void print_i64(long v);\n\
int main(void) {\n\
  long sum = 0;\n\
  #pragma omp parallel for reduction(+: sum) schedule(static)\n\
  for (int i = 0; i < 24; i += 1)\n\
    for (int j = 0; j < i; j += 1)\n\
      sum = sum + (j % 7) + 1;\n\
  print_i64(sum);\n\
  return 0;\n\
}\n";
    let model = omplt::tune::SourceModel::parse(base_src);
    let cfg = omplt::tune::EnumConfig::default();
    let (mut legal, mut pruned) = (0usize, 0usize);
    for c in omplt::tune::sample(&model, &cfg, 0xA11CE, 48) {
        let src = model.apply(&c.mutations).expect("re-synthesis");
        let mut ci = CompilerInstance::new(Options::default());
        match ci.parse_source("mut.c", &src) {
            Err(_) => {
                pruned += 1;
                assert!(
                    !ci.diags.is_empty(),
                    "unparseable mutant '{}' must carry diagnostics:\n{src}",
                    c.label
                );
            }
            Ok(_) => {
                if !ci.analysis().has_findings() {
                    legal += 1;
                    let base = Options {
                        num_threads: 4,
                        ..Options::default()
                    };
                    assert_backends_agree(&src, base, true, &format!("mutant '{}'", c.label));
                } else {
                    pruned += 1;
                    assert!(
                        !ci.diags.is_empty(),
                        "illegal mutant '{}' must carry diagnostics:\n{src}",
                        c.label
                    );
                }
            }
        }
    }
    assert!(
        legal >= 5,
        "sampler produced too few legal mutants ({legal})"
    );
    assert!(
        pruned >= 1,
        "sampler never hit an illegal mutation — the prune branch is untested"
    );
}

/// The order-changing transformations (interchange, fuse, and reverse
/// composed with tile) must agree between backends on every observable —
/// these rewrite the loop *structure*, so a VM lowering bug would show up as
/// divergent chunk logs or final memory even when the multiset of writes is
/// right.
#[test]
fn order_changing_transforms_agree() {
    let interchange = "\
long acc[120];\n\
int main(void) {\n\
  #pragma omp parallel for schedule(static, 2)\n\
  #pragma omp interchange permutation(2, 1)\n\
  for (int i = 0; i < 10; i += 1)\n\
    for (int j = 0; j < 12; j += 1)\n\
      acc[i * 12 + j] = i * 31 + j * 7;\n\
  long sum = 0;\n\
  for (int k = 0; k < 120; k += 1)\n\
    sum += acc[k];\n\
  return sum % 251;\n\
}\n";
    let fuse = "\
long a[17];\nlong b[9];\n\
int main(void) {\n\
  #pragma omp parallel for schedule(dynamic, 3)\n\
  #pragma omp fuse\n\
  {\n\
    for (int i = 0; i < 17; i += 1) a[i] = i * 5 + 1;\n\
    for (int j = 0; j < 9; j += 1) b[j] = 100 - j * 3;\n\
  }\n\
  long sum = 0;\n\
  for (int k = 0; k < 17; k += 1) sum += a[k];\n\
  for (int k = 0; k < 9; k += 1) sum += b[k];\n\
  return sum % 251;\n\
}\n";
    let reverse_tile = "\
long acc[40];\n\
int main(void) {\n\
  #pragma omp parallel for schedule(guided)\n\
  #pragma omp reverse\n\
  #pragma omp tile sizes(4)\n\
  for (int i = 0; i < 40; i += 1)\n\
    acc[i] = i * 13 - 6;\n\
  long sum = 0;\n\
  for (int k = 0; k < 40; k += 1)\n\
    sum += acc[k];\n\
  return sum % 251;\n\
}\n";
    for (name, src) in [
        ("interchange", interchange),
        ("fuse", fuse),
        ("reverse+tile", reverse_tile),
    ] {
        for mode in MODES {
            for threads in [1u32, 4] {
                for optimize in [false, true] {
                    let base = Options {
                        codegen_mode: mode,
                        num_threads: threads,
                        ..Options::default()
                    };
                    let label = format!("{name} {mode:?} threads={threads} opt={optimize}");
                    assert_backends_agree(src, base, optimize, &label);
                }
            }
        }
    }
}

#[test]
fn simd_width_transform_matrix_agrees() {
    // The vector tier's acceptance matrix: `simd` alone and composed with
    // tile, unroll, and worksharing, at every vector width, on the IR as
    // lowered and as the mid end optimised it — byte-identical against the
    // interpreter whether the widening pass fires or refuses (compositions
    // that land a non-canonical loop under the simd metadata are refused per
    // loop and run scalar; the differential cannot tell and must not care).
    let cases = [
        (
            "simd",
            "void print_i64(long v);\n\
             long x[103];\nlong y[103];\n\
             int main(void) {\n\
             \x20 for (int i = 0; i < 103; i += 1) { x[i] = i - 50; y[i] = 3 * i; }\n\
             \x20 long sum = 0;\n\
             \x20 #pragma omp simd reduction(+: sum)\n\
             \x20 for (int i = 0; i < 103; i += 1) {\n\
             \x20   y[i] = y[i] + 7 * x[i];\n\
             \x20   sum += y[i];\n\
             \x20 }\n\
             \x20 print_i64(sum);\n\
             \x20 return 0;\n\
             }\n"
            .to_string(),
        ),
        (
            "simd+tile",
            "void print_i64(long v);\n\
             long y[96];\n\
             int main(void) {\n\
             \x20 for (int i = 0; i < 96; i += 1) y[i] = i;\n\
             \x20 #pragma omp simd\n\
             \x20 #pragma omp tile sizes(8)\n\
             \x20 for (int i = 0; i < 96; i += 1)\n\
             \x20   y[i] = y[i] * 3 + 1;\n\
             \x20 long s = 0;\n\
             \x20 for (int k = 0; k < 96; k += 1) s += y[k];\n\
             \x20 print_i64(s);\n\
             \x20 return 0;\n\
             }\n"
            .to_string(),
        ),
        (
            "simd+unroll",
            "void print_i64(long v);\n\
             long y[90];\n\
             int main(void) {\n\
             \x20 for (int i = 0; i < 90; i += 1) y[i] = i;\n\
             \x20 #pragma omp simd\n\
             \x20 #pragma omp unroll partial(2)\n\
             \x20 for (int i = 0; i < 90; i += 1)\n\
             \x20   y[i] = y[i] * 5 - 2;\n\
             \x20 long s = 0;\n\
             \x20 for (int k = 0; k < 90; k += 1) s += y[k];\n\
             \x20 print_i64(s);\n\
             \x20 return 0;\n\
             }\n"
            .to_string(),
        ),
        (
            "for-simd",
            "long y[130];\n\
             int main(void) {\n\
             \x20 for (int i = 0; i < 130; i += 1) y[i] = i;\n\
             \x20 #pragma omp parallel\n\
             \x20 {\n\
             \x20   #pragma omp for simd schedule(static, 16)\n\
             \x20   for (int i = 0; i < 130; i += 1)\n\
             \x20     y[i] = y[i] * 3 + 1;\n\
             \x20 }\n\
             \x20 long s = 0;\n\
             \x20 for (int k = 0; k < 130; k += 1) s += y[k];\n\
             \x20 return s % 251;\n\
             }\n"
            .to_string(),
        ),
        (
            "parallel-for-simd",
            "long y[130];\n\
             int main(void) {\n\
             \x20 for (int i = 0; i < 130; i += 1) y[i] = i;\n\
             \x20 #pragma omp parallel for simd simdlen(4)\n\
             \x20 for (int i = 0; i < 130; i += 1)\n\
             \x20   y[i] = y[i] * 7 - i;\n\
             \x20 long s = 0;\n\
             \x20 for (int k = 0; k < 130; k += 1) s += y[k];\n\
             \x20 return s % 251;\n\
             }\n"
            .to_string(),
        ),
    ];
    for (name, src) in &cases {
        for mode in MODES {
            for threads in [1u32, 4] {
                for width in [0u8, 2, 4, 8] {
                    for optimize in [false, true] {
                        let base = Options {
                            codegen_mode: mode,
                            num_threads: threads,
                            vector_width: width,
                            ..Options::default()
                        };
                        let label = format!("{name} {mode:?} t{threads} w{width} opt={optimize}");
                        assert_backends_agree(src, base, optimize, &label);
                    }
                }
            }
        }
    }
}

#[test]
fn simd_gather_case_agrees_and_widens() {
    // A stride-2 read is still an affine subscript, so the widening pass
    // takes it — through a `vgather` rather than a unit-stride `vload`.
    // Check the lowering actually contains the gather (otherwise this test
    // silently degrades into a scalar-vs-scalar comparison), then run the
    // usual differential at every width.
    let src = "void print_i64(long v);\n\
         long x[206];\nlong y[103];\n\
         int main(void) {\n\
         \x20 for (int i = 0; i < 206; i += 1) x[i] = i % 29;\n\
         \x20 #pragma omp simd\n\
         \x20 for (int i = 0; i < 103; i += 1)\n\
         \x20   y[i] = x[2 * i] + 1;\n\
         \x20 long s = 0;\n\
         \x20 for (int k = 0; k < 103; k += 1) s += y[k];\n\
         \x20 print_i64(s);\n\
         \x20 return 0;\n\
         }\n";

    for optimize in [false, true] {
        let mut ci = CompilerInstance::new(Options {
            vector_width: 4,
            ..Options::default()
        });
        let tu = ci.parse_source("gather.c", src).expect("parse");
        let mut module = ci.codegen(&tu).expect("codegen");
        if optimize {
            ci.optimize(&mut module);
        }
        let code = ci.compile_bytecode(&module).expect("bytecode");
        let disasm: String = code.funcs.iter().map(omplt::vm::disasm).collect();
        assert!(
            disasm.contains("vgather"),
            "stride-2 subscript should widen through a gather (opt={optimize}):\n{disasm}"
        );

        for width in [0u8, 2, 4, 8] {
            let base = Options {
                vector_width: width,
                ..Options::default()
            };
            let label = format!("gather w{width} opt={optimize}");
            assert_backends_agree(src, base, optimize, &label);
        }
    }
}

#[test]
fn dense_simd_kernels_agree_at_every_width_and_width_four_halves_saxpy_ops() {
    // Two integer kernels whose `simd` loop dominates the run: a dense
    // update, and a reduction (lane accumulator + horizontal reduce).
    const N: u64 = 4096;
    const REPS: u64 = 24;
    let saxpy = format!(
        "void print_i64(long v);\n\
         long x[{N}];\nlong y[{N}];\n\
         int main(void) {{\n\
         \x20 for (int i = 0; i < {N}; i += 1) {{ x[i] = i - 2048; y[i] = 3 * i + 1; }}\n\
         \x20 for (int r = 0; r < {REPS}; r += 1) {{\n\
         \x20   #pragma omp simd\n\
         \x20   for (int i = 0; i < {N}; i += 1)\n\
         \x20     y[i] = y[i] + 7 * x[i];\n\
         \x20 }}\n\
         \x20 long sum = 0;\n\
         \x20 for (int k = 0; k < {N}; k += 1) sum += y[k];\n\
         \x20 print_i64(sum);\n\
         \x20 return 0;\n\
         }}\n"
    );
    let dot = format!(
        "void print_i64(long v);\n\
         long x[{N}];\nlong y[{N}];\n\
         int main(void) {{\n\
         \x20 for (int i = 0; i < {N}; i += 1) {{ x[i] = i % 17; y[i] = i % 23; }}\n\
         \x20 long sum = 0;\n\
         \x20 for (int r = 0; r < {REPS}; r += 1) {{\n\
         \x20   #pragma omp simd reduction(+: sum)\n\
         \x20   for (int i = 0; i < {N}; i += 1)\n\
         \x20     sum += x[i] * y[i];\n\
         \x20 }}\n\
         \x20 print_i64(sum);\n\
         \x20 return 0;\n\
         }}\n"
    );
    let retired = |name: &str, src: &str, optimize: bool| {
        [0u8, 2, 4, 8].map(|width| {
            let base = Options {
                num_threads: 1,
                vector_width: width,
                ..Options::default()
            };
            let label = format!("{name} w{width} opt={optimize}");
            assert_backends_agree(src, base, optimize, &label).ops_retired
        })
    };
    for optimize in [false, true] {
        retired("dot", &dot, optimize);
        let [scalar, _, w4, _] = retired("saxpy", &saxpy, optimize);
        assert!(
            w4 * 2 <= scalar,
            "saxpy at width 4 (opt={optimize}) retired {w4}, the scalar VM {scalar}"
        );
    }
}

/// A `float` constant is a `float`. The VM promotes a stack slot to a
/// register and never stores, so it saw all 64 bits of an unrounded
/// `0.1f` where the interpreter's store rounded them away; and a folded
/// `(float)16777217` or `(float)1.0 / (float)3.0` kept the bits the same
/// expression over variables loses. (The casts are needed: this front end
/// types a literal `double` whatever its suffix.) Each program prints the
/// constant form and the variable form of one expression: both backends,
/// both lines, one value.
#[test]
fn float_constants_are_floats_on_both_backends() {
    let scaled = "\
void print_f64(double v);\n\
int main(void) {\n\
  float x = 0.1f;\n\
  float y = x;\n\
  print_f64(x * 10.0);\n\
  print_f64(y * 10.0);\n\
  return 0;\n\
}\n";
    let cast = "\
void print_f64(double v);\n\
int main(void) {\n\
  int n = 16777217;\n\
  print_f64((float)16777217);\n\
  print_f64((float)n);\n\
  return 0;\n\
}\n";
    let quotient = "\
void print_f64(double v);\n\
int main(void) {\n\
  float a = 1.0f;\n\
  float b = 3.0f;\n\
  print_f64((float)1.0 / (float)3.0);\n\
  print_f64(a / b);\n\
  return 0;\n\
}\n";
    let cases = [
        ("0.1f * 10.0", scaled, f64::from(0.1f32) * 10.0),
        ("(float)16777217", cast, 16_777_216.0),
        (
            "(float)1.0 / (float)3.0",
            quotient,
            f64::from(1.0f32 / 3.0f32),
        ),
    ];
    for (name, src, value) in cases {
        for mode in MODES {
            for optimize in [false, true] {
                let base = Options {
                    codegen_mode: mode,
                    num_threads: 1,
                    ..Options::default()
                };
                let label = format!("{name} {mode:?} opt={optimize}");
                let vm = assert_backends_agree(src, base, optimize, &label);
                let printed: Vec<f64> = (vm.stdout.lines())
                    .map(|l| l.parse().expect("print_f64 prints a number"))
                    .collect();
                assert_eq!(printed, [value, value], "[{label}] {}", vm.stdout);
            }
        }
    }
}

/// C's `bool` is unsigned and an `i1` is 0 or 1 wherever it has been: a
/// `true` that sat in a slot, a global or an array element widens to 1 like
/// the `true` a compare just produced — and like the literal. Each program
/// prints the constant form, then the variable form, of eight expressions.
#[test]
fn a_bool_is_zero_or_one_wherever_it_has_been() {
    let storages = [
        ("local", "", "  bool t = x < y;\n", "t"),
        ("global", "bool g;\n", "  g = x < y;\n", "g"),
        ("element", "bool e[4];\n", "  e[2] = x < y;\n", "e[2]"),
    ];
    let expected = [1.0, -1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0];
    for (storage, global, set, t) in storages {
        let src = format!(
            "void print_i64(long v);\nvoid print_f64(double v);\n{global}bool flags[4];\n\
             int main(void) {{\n  int x = 3;\n  int y = 5;\n  int w = 256;\n{set}\
             \x20 int ca = true;\n  print_i64(ca);\n  print_i64(-true);\n\
             \x20 print_i64(true + true);\n  print_i64(true == true);\n\
             \x20 print_f64((double)true);\n  bool cnz = 256;\n  print_i64(cnz);\n\
             \x20 print_i64(true & (5 > 3));\n  print_i64(false + true + false + false);\n\
             \x20 int a = {t};\n  print_i64(a);\n  print_i64(-{t});\n\
             \x20 print_i64({t} + {t});\n  print_i64({t} == true);\n\
             \x20 print_f64((double){t});\n  bool nz = w;\n  print_i64(nz);\n\
             \x20 print_i64({t} & (y > x));\n  flags[1] = {t};\n  int n = 0;\n\
             \x20 for (int i = 0; i < 4; i += 1)\n    n += flags[i];\n  print_i64(n);\n\
             \x20 return 0;\n}}\n"
        );
        for mode in MODES {
            for optimize in [false, true] {
                let base = Options {
                    codegen_mode: mode,
                    num_threads: 1,
                    ..Options::default()
                };
                let label = format!("bool {storage} {mode:?} opt={optimize}");
                let mut ci = CompilerInstance::new(base);
                let tu = ci.parse_source("bool.c", &src).expect("parse");
                let ir = omplt::ir::print_module(&ci.codegen(&tu).expect("codegen"));
                assert!(!ir.contains("sext i1"), "[{label}] bool is unsigned:\n{ir}");
                let vm = assert_backends_agree(&src, base, optimize, &label);
                let printed: Vec<f64> = (vm.stdout.lines())
                    .map(|l| l.parse().expect("a number per line"))
                    .collect();
                let both: Vec<f64> = expected.iter().chain(&expected).copied().collect();
                assert_eq!(printed, both, "[{label}] {}", vm.stdout);
            }
        }
    }
}

/// Every kind of value crosses every kind of call as itself. `_Bool`,
/// `char`, `short`, `int`, `long`, `float`, `double` and pointer values at
/// their extremes (type minima and maxima, `-0.0`, values no `float` holds)
/// go through user-function parameters and returns, into `print_i64`,
/// `print_f64` and `print_char`, and — as `firstprivate` captures — through
/// `__kmpc_fork_call` into a `parallel` region that reads
/// `omp_get_thread_num`. Both engines hand a value across a call as its
/// untagged payload, so a boundary that read one at another class shows
/// here: both paths, the interpreter and `vm:strict`, `--opt` on and off.
#[test]
fn values_cross_calls_as_themselves_on_both_backends() {
    let src = "\
void print_i64(long v);\n\
void print_f64(double v);\n\
void print_char(int c);\n\
int omp_get_thread_num(void);\n\
long seen[4];\n\
_Bool flip(_Bool b) { return !b; }\n\
char bump(char c) { return c + 1; }\n\
short negate(short s) { return -s; }\n\
int halve(int i) { return i / 2; }\n\
long same(long l) { return l; }\n\
float third(float f) { return f / 3.0f; }\n\
double twice(double d) { return d * 2.0; }\n\
long *next(long *p) { return p + 1; }\n\
double mix(_Bool b, char c, short s, int i, long l, float f, double d, long *p) {\n\
  return b + c + s + i + l + f + d + *p;\n\
}\n\
int main(void) {\n\
  long cells[3];\n\
  cells[0] = -9223372036854775807 - 1;\n\
  cells[1] = 9223372036854775807;\n\
  cells[2] = 7;\n\
  _Bool t = 1;\n\
  char cmin = -128;\n\
  char cmax = 127;\n\
  short smin = -32768;\n\
  short smax = 32767;\n\
  int imin = -2147483647 - 1;\n\
  int imax = 2147483647;\n\
  float tenth = 0.1f;\n\
  float odd = 16777217;\n\
  float fmax = 3.4028235e38;\n\
  double nz = 0.0 * -1.0;\n\
  double huge = 1.0e308;\n\
  print_i64(flip(t));\n\
  print_i64(flip(flip(t)));\n\
  print_i64(bump(cmin));\n\
  print_i64(bump(cmax));\n\
  print_i64(negate(smin));\n\
  print_i64(negate(smax));\n\
  print_i64(halve(imin));\n\
  print_i64(halve(imax));\n\
  print_i64(same(cells[0]));\n\
  print_i64(same(cells[1]));\n\
  print_f64(third(tenth));\n\
  print_f64(third(odd));\n\
  print_f64(third(fmax) / 1.0e30);\n\
  print_f64(twice(nz));\n\
  print_f64(twice(huge / 4.0) / -1.0e300);\n\
  print_i64(*next(cells));\n\
  print_i64(*next(next(cells)));\n\
  print_f64(mix(t, cmin, smax, imax, cells[2], tenth, nz, next(cells)));\n\
  print_char(bump(64));\n\
  print_char(cmax - 54);\n\
  print_char(10);\n\
  #pragma omp parallel num_threads(4) firstprivate(tenth, cmin)\n\
  {\n\
    int id = omp_get_thread_num();\n\
    seen[id] = same(id) + halve(imax) + bump(cmin) + (long)third(tenth * 30.0f);\n\
  }\n\
  long total = 0;\n\
  for (int k = 0; k < 4; k += 1)\n\
    total += seen[k];\n\
  print_i64(total);\n\
  return 0;\n\
}\n\
";
    let expected = "\
0\n\
1\n\
-127\n\
-128\n\
-32768\n\
-32767\n\
-1073741824\n\
1073741823\n\
-9223372036854775808\n\
9223372036854775807\n\
0.03333333507180214\n\
5592405.5\n\
113427448.87950961\n\
-0.000000\n\
-50000000.000000\n\
9223372036854775807\n\
7\n\
9223372034707325000\n\
AI\n\
4294966794\n\
";
    for mode in MODES {
        for optimize in [false, true] {
            let runs = [Backend::Interp, Backend::VmStrict].map(|backend| {
                let opts = Options {
                    codegen_mode: mode,
                    backend,
                    num_threads: 4,
                    ..Options::default()
                };
                let label = format!("calls {mode:?} {backend:?} opt={optimize}");
                let r = run_with(src, opts, optimize, &label);
                assert_eq!((r.exit_code, r.stdout.as_str()), (0, expected), "[{label}]");
                r
            });
            assert_eq!(
                runs[0].final_globals, runs[1].final_globals,
                "calls {mode:?} opt={optimize}: final global memory"
            );
        }
    }
}

/// A file-scope initializer holds its value at the global's type: a
/// `double` literal and its negation, a quotient, an integer converted to
/// `float` (rounded to `f32`), a `float` widened back, `-0.0`, and the
/// integer conversions C applies to `~0`, `300` into a `char`, `0.5` into a
/// `_Bool` and `-1` into an `unsigned`. Each is folded by the IR's
/// arithmetic into the global's memory image. A lowering that keeps only
/// what an integer folder folds, stored as an integer, prints `0.000000`
/// for the doubles, a denormal for the `float` and `0` for `~0` and the
/// `_Bool`.
#[test]
fn file_scope_initializers_hold_their_values_on_both_backends() {
    let src = "\
void print_i64(long v);\n\
void print_f64(double v);\n\
double d = -1.25;\n\
double third = 1.0 / 3;\n\
float f = 16777217;\n\
float tenth = 0.1;\n\
double nz = -0.0;\n\
float low = -3.4028235e38;\n\
double widened = (float)0.1;\n\
int n = ~0;\n\
char c = 300;\n\
_Bool b = 0.5;\n\
int pick = 1 ? 2 : 3;\n\
long neither = 0 && 1;\n\
unsigned int u = -1;\n\
int main(void) {\n\
  print_f64(d);\n\
  print_f64(third);\n\
  print_f64(f);\n\
  print_f64(tenth);\n\
  print_f64(nz);\n\
  print_f64(low / 1.0e30);\n\
  print_f64(widened);\n\
  print_i64(n);\n\
  print_i64(c);\n\
  print_i64(b);\n\
  print_i64(pick);\n\
  print_i64(neither);\n\
  print_i64(u);\n\
  return 0;\n\
}\n\
";
    let expected = "\
-1.25\n\
0.3333333333333333\n\
16777216.000000\n\
0.10000000149011612\n\
-0.000000\n\
-340282346.6385288\n\
0.10000000149011612\n\
-1\n\
44\n\
1\n\
2\n\
0\n\
4294967295\n\
";
    assert_prints_on_both_paths_and_engines(src, expected, "globals");
}

/// Unary minus on a floating value flips its sign, a zero's too: `-z` of
/// `z = +0.0` is `-0.0`, so `1.0 / -z` is `-inf`, and the literal `-0.0` is
/// negative. Lowered as `fsub 0.0, x`, all three came out positive.
#[test]
fn float_negation_keeps_the_sign_of_zero_on_both_backends() {
    let src = "\
void print_f64(double v);\n\
int main(void) {\n\
  double z = 0.0;\n\
  float h = 0.0;\n\
  print_f64(-z);\n\
  print_f64(1.0 / -z);\n\
  print_f64(-0.0);\n\
  print_f64(-h);\n\
  print_f64(-(-z));\n\
  return 0;\n\
}\n\
";
    let expected = "-0.000000\n-inf\n-0.000000\n-0.000000\n0.000000\n";
    assert_prints_on_both_paths_and_engines(src, expected, "negation");
}

/// Runs `src` single-threaded on both lowering paths × the interpreter and
/// `vm:strict` × `--opt` off and on: each prints `expected`, and the two
/// engines leave the same global memory.
fn assert_prints_on_both_paths_and_engines(src: &str, expected: &str, what: &str) {
    for mode in MODES {
        for optimize in [false, true] {
            let runs = [Backend::Interp, Backend::VmStrict].map(|backend| {
                let opts = Options {
                    codegen_mode: mode,
                    backend,
                    num_threads: 1,
                    ..Options::default()
                };
                let label = format!("{what} {mode:?} {backend:?} opt={optimize}");
                let r = run_with(src, opts, optimize, &label);
                assert_eq!((r.exit_code, r.stdout.as_str()), (0, expected), "[{label}]");
                r
            });
            assert_eq!(
                runs[0].final_globals, runs[1].final_globals,
                "{what} {mode:?} opt={optimize}: final global memory"
            );
        }
    }
}

/// A widened loop that runs off the end of its array. The vector tier checks
/// a unit-stride span once and, when that fails, goes lane by lane — so the
/// fault is the first bad lane's own: the same error text as the scalar VM's
/// and the interpreter's, at every width, whether the bad lane is the last
/// of its block (widths 2 and 4), one in the middle (width 8), or a gathered
/// one.
#[test]
fn widened_loop_running_off_its_array_faults_like_the_scalar_loop() {
    let store = "long x[11];\n\
         int main(void) {\n\
         \x20 #pragma omp simd\n\
         \x20 for (int i = 0; i < 14; i += 1)\n\
         \x20   x[i] = i;\n\
         \x20 return 0;\n\
         }\n";
    let load = "long x[19];\nlong y[32];\n\
         int main(void) {\n\
         \x20 #pragma omp simd\n\
         \x20 for (int i = 0; i < 32; i += 1)\n\
         \x20   y[i] = x[i] + 1;\n\
         \x20 return 0;\n\
         }\n";
    let gather = "long x[21];\nlong y[16];\n\
         int main(void) {\n\
         \x20 #pragma omp simd\n\
         \x20 for (int i = 0; i < 16; i += 1)\n\
         \x20   y[i] = x[2 * i] + 1;\n\
         \x20 return 0;\n\
         }\n";
    let cases = [
        (
            "store",
            store,
            "vstore",
            "offset 88+8 in region of 88 bytes",
        ),
        ("load", load, "vload", "offset 152+8 in region of 152 bytes"),
        (
            "gather",
            gather,
            "vgather",
            "offset 176+8 in region of 168 bytes",
        ),
    ];
    for (name, src, vector_op, fault) in cases {
        let mut ci = CompilerInstance::new(Options {
            vector_width: 4,
            ..Options::default()
        });
        let tu = ci.parse_source("oob.c", src).expect("parse");
        let module = ci.codegen(&tu).expect("codegen");
        let code = ci.compile_bytecode(&module).expect("bytecode");
        let disasm: String = code.funcs.iter().map(omplt::vm::disasm).collect();
        assert!(
            disasm.contains(vector_op),
            "[{name}] the loop should widen through a {vector_op}:\n{disasm}"
        );

        let run = |backend, vector_width| {
            let opts = Options {
                backend,
                vector_width,
                num_threads: 1,
                ..Options::default()
            };
            CompilerInstance::new(opts)
                .compile_and_run("oob.c", src, false)
                .expect_err("the loop runs off its array")
        };
        let oracle = run(Backend::Interp, 0);
        assert_eq!(
            oracle,
            format!("runtime error: memory error: out-of-bounds access: {fault}"),
            "[{name}] interpreter"
        );
        for width in [0u8, 2, 4, 8] {
            assert_eq!(
                run(Backend::VmStrict, width),
                oracle,
                "[{name}] vm w{width}"
            );
        }
    }
}
