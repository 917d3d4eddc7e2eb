//! Experiment L2: structure of the mid-end `LoopUnroll` output — the
//! paper's "Partial unrolling with remainder loop" figure — plus the
//! pipeline-level interplay of front-end metadata and the pass.

use omplt::ir::print_module;
use omplt::{Backend, CompilerInstance, OpenMpCodegenMode, Options};
use omplt_midend::{cleanup, loop_unroll, DomTree};

fn compile(src: &str, optimize: bool) -> (CompilerInstance, omplt::ir::Module) {
    let mut ci = CompilerInstance::new(Options::default());
    let tu = ci.parse_source("m.c", src).expect("parse");
    let mut module = ci.codegen(&tu).expect("codegen");
    if optimize {
        ci.optimize(&mut module);
    }
    (ci, module)
}

fn live_calls(module: &omplt::ir::Module, func: &str) -> usize {
    let f = module.function(func).unwrap();
    f.blocks
        .iter()
        .flat_map(|b| &b.insts)
        .filter(|&&i| matches!(f.inst(i), omplt::ir::Inst::Call { .. }))
        .count()
}

/// The loops of `func`, one per back edge: an edge from a reachable block
/// to a block dominating it.
fn loop_count(module: &omplt::ir::Module, func: &str) -> usize {
    let f = module.function(func).unwrap();
    let dt = DomTree::compute(f);
    let blocks = (0..f.blocks.len() as u32).map(omplt::ir::BlockId);
    let edges = blocks.flat_map(|b| f.successors(b).map(move |s| (b, s)));
    edges
        .filter(|&(b, s)| dt.is_reachable(b) && dt.dominates(s, b))
        .count()
}

#[test]
fn partial_unroll_produces_main_plus_remainder_loop() {
    // Runtime trip count: after the pass there are exactly two loops — the
    // unrolled main loop and the remainder loop (paper Fig. lst:remainder).
    let src = "void body(int i);\nvoid kernel(int n) {\n  #pragma omp unroll partial(4)\n  for (int i = 0; i < n; i += 1)\n    body(i);\n}\n";
    let (_, before) = compile(src, false);
    assert_eq!(
        loop_count(&before, "kernel"),
        1,
        "front-end emits ONE loop (metadata only)"
    );
    let (_, after) = compile(src, true);
    assert_eq!(
        loop_count(&after, "kernel"),
        2,
        "pass produces main + remainder loop"
    );
    // The unrolled main loop calls body 4 times per iteration: count the
    // calls still attached to blocks (the arena keeps dead entries).
    assert_eq!(
        live_calls(&after, "kernel"),
        5,
        "4 copies in the main loop + 1 in the remainder"
    );
}

#[test]
fn full_unroll_of_constant_loop_leaves_no_loop() {
    let src = "void body(int i);\nvoid kernel(void) {\n  #pragma omp unroll full\n  for (int i = 0; i < 6; i += 1)\n    body(i);\n}\n";
    let (_, after) = compile(src, true);
    assert_eq!(loop_count(&after, "kernel"), 0);
    assert_eq!(
        live_calls(&after, "kernel"),
        6,
        "six materialized body copies"
    );
}

#[test]
fn heuristic_unroll_decides_per_shape() {
    // Small constant loop → fully unrolled by the heuristic.
    let small = "void body(int i);\nvoid kernel(void) {\n  #pragma omp unroll\n  for (int i = 0; i < 8; i += 1)\n    body(i);\n}\n";
    let (_, after) = compile(small, true);
    assert_eq!(
        loop_count(&after, "kernel"),
        0,
        "small constant loops unroll fully"
    );

    // Runtime trip count → partial with remainder.
    let runtime = "void body(int i);\nvoid kernel(int n) {\n  #pragma omp unroll\n  for (int i = 0; i < n; i += 1)\n    body(i);\n}\n";
    let (_, after) = compile(runtime, true);
    assert_eq!(
        loop_count(&after, "kernel"),
        2,
        "runtime loops unroll partially"
    );
}

#[test]
fn classic_and_irbuilder_paths_feed_the_same_pass() {
    // The same pragma reaches the LoopUnroll pass through different
    // front-end routes; both must end up duplicated.
    for mode in [
        omplt::OpenMpCodegenMode::Classic,
        omplt::OpenMpCodegenMode::IrBuilder,
    ] {
        let mut ci = CompilerInstance::new(Options {
            codegen_mode: mode,
            ..Options::default()
        });
        let tu = ci
            .parse_source(
                "m.c",
                "void body(int i);\nvoid kernel(int n) {\n  #pragma omp unroll partial(2)\n  for (int i = 0; i < n; i += 1)\n    body(i);\n}\n",
            )
            .expect("parse");
        let mut module = ci.codegen(&tu).expect("codegen");
        let stats = ci.optimize(&mut module);
        assert_eq!(
            stats.partial, 1,
            "mode {mode:?} must trigger one partial unroll"
        );
    }
}

/// What became of every unroll hint is in the counter document
/// (`midend.unroll.{full,partial,declined,skipped}`), not only in the
/// `UnrollStats` both drivers drop.
///
/// The second row pins a limitation, it does not bless it: a *consumed*
/// `unroll partial` is never unrolled on the classic path. Its shadow AST
/// hints the inner loop, that loop keeps the paper's `&&` bound (L5: group
/// end *and* trip count) and so is not an OpenMP canonical loop, and this
/// mid end unrolls canonical skeletons only — the hint reaches the pass on a
/// generic `for.cond` loop and is skipped. The IrBuilder path tiles the
/// skeleton itself and hands the pass a tile loop it can unroll.
#[test]
fn what_the_pass_did_with_a_hint_is_counted() {
    const NAMES: [&str; 4] = ["full", "partial", "declined", "skipped"];
    let unconsumed = "void body(int i);\nvoid kernel(int n) {\n  #pragma omp unroll partial(4)\n  for (int i = 0; i < n; i += 1)\n    body(i);\n}\n";
    let consumed = "void body(int i);\nvoid kernel(int n) {\n  #pragma omp parallel for\n  #pragma omp unroll partial(2)\n  for (int i = 0; i < n; i += 1)\n    body(i);\n}\n";
    let rows = [
        (unconsumed, OpenMpCodegenMode::Classic, [0, 1, 0, 0]),
        (unconsumed, OpenMpCodegenMode::IrBuilder, [0, 1, 0, 0]),
        (consumed, OpenMpCodegenMode::Classic, [0, 0, 0, 1]),
        (consumed, OpenMpCodegenMode::IrBuilder, [0, 1, 0, 0]),
    ];
    for (src, codegen_mode, expected) in rows {
        let mut ci = CompilerInstance::new(Options {
            codegen_mode,
            ..Options::default()
        });
        let tu = ci.parse_source("m.c", src).expect("parse");
        let mut module = ci.codegen(&tu).expect("codegen");
        let session = omplt::trace::Session::begin();
        let stats = ci.optimize(&mut module);
        let counters = session.finish().counters;
        let counted = NAMES.map(|n| {
            let key = format!("midend.unroll.{n}");
            counters.get(&key).copied().unwrap_or(0)
        });
        assert_eq!(counted, expected, "{codegen_mode:?}:\n{src}");
        let returned = [stats.full, stats.partial, stats.declined, stats.skipped];
        assert_eq!(counted, returned.map(|n| n as u64), "{codegen_mode:?}");
    }
}

#[test]
fn unroll_pass_skips_already_disabled_loops() {
    let src = "void body(int i);\nvoid kernel(int n) {\n  #pragma omp unroll partial(2)\n  for (int i = 0; i < n; i += 1)\n    body(i);\n}\n";
    let mut ci = CompilerInstance::new(Options::default());
    let tu = ci.parse_source("m.c", src).expect("parse");
    let mut module = ci.codegen(&tu).expect("codegen");
    let first = ci.optimize(&mut module);
    assert_eq!(first.partial, 1);
    let second = ci.optimize(&mut module);
    assert_eq!(
        second.partial, 0,
        "re-running must not re-unroll (unroll.disable)"
    );
}

#[test]
fn unroll_factor_is_free_in_sema_and_paid_in_loop_unroll() {
    // Paper §2.1, "no duplication takes place until that point": the
    // shadow AST of `unroll partial(f)` is the same size for every f (the
    // body is never cloned in the front end), while the instruction count
    // after the mid end grows strictly with f.
    let mut prev: Option<(u64, usize)> = None;
    for factor in [2u64, 4, 16, 64] {
        let src = format!(
            "void body(int i);\nvoid kernel(int n) {{\n  #pragma omp unroll partial({factor})\n  for (int i = 0; i < n; i += 1)\n    body(i);\n}}\n"
        );
        let session = omplt::trace::Session::begin();
        let (_, module) = compile(&src, true);
        let shadow = session.finish().counters["sema.shadow.transformed_nodes"];
        let insts = module.function("kernel").unwrap().num_insts();
        if let Some((shadow_prev, insts_prev)) = prev {
            assert_eq!(
                shadow, shadow_prev,
                "front-end duplication at factor {factor}"
            );
            assert!(
                insts > insts_prev,
                "factor {factor}: {insts} insts after LoopUnroll, {insts_prev} at the previous factor"
            );
        }
        prev = Some((shadow, insts));
    }
}

#[test]
fn unroll_styles_print_the_same_sum_and_the_remainder_style_retires_fewer_ops() {
    // The paper's "Partial unrolling with remainder loop" figure against
    // the conditional-in-body expansion it shows first: same result, and
    // the remainder style saves the per-iteration conditional.
    const N: i64 = 20_000;
    let head = "void print_i64(long v);\nint main(void) {\n  long acc = 0;\n";
    let tail = "  print_i64(acc);\n  return 0;\n}\n";
    let plain = format!("  for (int i = 0; i < {N}; i += 1)\n    acc = acc + i;\n");
    let styles = [
        ("baseline_no_unroll", plain.clone()),
        (
            "pragma_partial2",
            format!("  #pragma omp unroll partial(2)\n{plain}"),
        ),
        (
            "pragma_partial4",
            format!("  #pragma omp unroll partial(4)\n{plain}"),
        ),
        (
            "manual_conditional2",
            format!(
                "  for (int i = 0; i < {N}; i += 2) {{\n    acc = acc + i;\n    if (i + 1 < {N}) acc = acc + i + 1;\n  }}\n"
            ),
        ),
        (
            "manual_remainder4",
            format!(
                "  int i = 0;\n  for (; i + 3 < {N}; i += 4) {{\n    acc = acc + i;\n    acc = acc + i + 1;\n    acc = acc + i + 2;\n    acc = acc + i + 3;\n  }}\n  for (; i < {N}; i += 1)\n    acc = acc + i;\n"
            ),
        ),
    ];
    let expected = format!("{}\n", (0..N).sum::<i64>());
    for backend in [omplt::Backend::Interp, omplt::Backend::Vm] {
        let ops = styles.each_ref().map(|(name, loops)| {
            let opts = Options {
                backend,
                ..Options::default()
            };
            let r = omplt::run_source_with(&format!("{head}{loops}{tail}"), opts, true);
            assert_eq!(r.stdout, expected, "{name} on {backend:?}");
            r.ops_retired
        });
        assert!(
            ops[4] < ops[3],
            "{backend:?}: manual_remainder4 retired {}, manual_conditional2 {}",
            ops[4],
            ops[3]
        );
    }
}

/// Every way a hint reaches the pass, in one function: `unroll full`, the
/// heuristic, a factor with a remainder, `unroll full` over a generated
/// loop (constant and tiled trip counts), a worksharing nest whose trip
/// counts come out of `collapse`, a body with discarded loads (`a[i];`),
/// which its copies hold until `cleanup` drops them, and a branch the
/// front end already folded.
const HINTED: &str = "\
void print_i64(long v);
int main(void) {
  int s = 0;
  int a[64];
  for (int i = 0; i < 64; i += 1)
    a[i] = i;
  #pragma omp unroll full
  for (int i = 0; i < 8; i += 1)
    s = s + i * 3;
  #pragma omp unroll
  for (int i = 0; i < 40; i += 1)
    s = s + a[i];
  #pragma omp unroll partial(4)
  for (int i = 0; i < 13; i += 1)
    s = s + a[i] * 2;
  #pragma omp unroll full
  #pragma omp reverse
  for (int i = 0; i < 5; i += 1)
    a[i] = a[i] * 2 + 1;
  #pragma omp unroll full
  #pragma omp tile sizes(4)
  for (int i = 0; i < 10; i += 1)
    s = s + a[i];
  #pragma omp parallel for collapse(2)
  for (int i = 0; i < 4; i += 1)
    for (int j = 0; j < 4; j += 1)
      a[i * 4 + j] = i + j;
  int n = a[40];
  #pragma omp unroll
  for (int i = 0; i < n; i += 1) {
    s = s - a[i] * 3;
    a[i]; a[i]; a[i]; a[i];
  }
  if (1)
    s = s + a[5];
  print_i64(s);
  return 0;
}
";

/// The `-O` pipeline without promotion, kept as the oracle for the one
/// that promotes: the unroller between two cleanups, on memory-form IR.
fn five_pass_reference(m: &mut omplt::ir::Module) {
    for f in &mut m.functions {
        cleanup(f);
        loop_unroll(f);
        cleanup(f);
    }
}

/// `HINTED`, `examples/c` and `ci/analysis-fixtures`: `(name, text)`.
fn corpus() -> Vec<(String, String)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = vec![("HINTED".to_string(), HINTED.to_string())];
    for dir in ["examples/c", "ci/analysis-fixtures"] {
        for entry in std::fs::read_dir(root.join(dir)).expect(dir) {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "c") {
                let text = std::fs::read_to_string(&path).unwrap();
                sources.push((path.display().to_string(), text));
            }
        }
    }
    sources
}

/// Promotion makes the IR text differ from the oracle's by design, so what
/// is compared is what a run shows: stdout, exit code and every global's
/// final bytes, serially, on both backends.
#[test]
fn the_pipeline_prints_what_the_five_pass_order_printed() {
    let sources = corpus();
    let mut compared = 0;
    for (name, text) in &sources {
        for codegen_mode in [OpenMpCodegenMode::Classic, OpenMpCodegenMode::IrBuilder] {
            for backend in [Backend::Interp, Backend::VmStrict] {
                // Two compiles of the same text: a module is not `Clone`.
                let lowered = || {
                    let mut ci = CompilerInstance::new(Options {
                        codegen_mode,
                        backend,
                        serial: true,
                        ..Options::default()
                    });
                    let tu = ci.parse_source(name, text).ok()?;
                    Some((ci.codegen(&tu).expect("codegen"), ci))
                };
                let Some(((mut reference, _), (mut module, ci))) = lowered().zip(lowered()) else {
                    continue;
                };
                five_pass_reference(&mut reference);
                ci.optimize(&mut module);
                let shown = |m: &omplt::ir::Module| {
                    let r = ci.run(m).map_err(|e| e.to_string())?;
                    Ok::<_, String>((r.stdout, r.exit_code, r.final_globals))
                };
                assert_eq!(
                    shown(&module),
                    shown(&reference),
                    "{name} ({codegen_mode:?}, {backend:?})"
                );
                compared += 1;
            }
        }
    }
    // Everything but the four fixtures the legality gate refuses.
    assert_eq!(compared, 4 * (sources.len() - 4));
}

/// The benchmark's stacks that carry an unroll hint, and the two region
/// shapes with phis the unroller copies (a `continue` joining at the latch,
/// an inner loop), each over a reduction into `s`.
const STACKS: [(&str, &str); 5] = [
    (
        "#pragma omp unroll partial(2)\n#pragma omp tile sizes(4)\n",
        "s = s + a[i] * 3;",
    ),
    (
        "#pragma omp unroll full\n#pragma omp tile sizes(4)\n",
        "s = s + a[i] * 3;",
    ),
    (
        "#pragma omp parallel for reduction(+: s) schedule(dynamic, 4)\n#pragma omp unroll partial(2)\n",
        "s = s + a[i] * 3;",
    ),
    (
        "#pragma omp unroll partial(3)\n",
        "{ if (a[i] % 2) continue; s = s + a[i]; }",
    ),
    (
        "#pragma omp unroll partial(3)\n",
        "for (int j = 0; j < 3; j += 1) s = s + a[i] * j;",
    ),
];

/// `STACKS` over a trip count the factors divide and one they do not.
fn stacks() -> Vec<(String, String)> {
    let mut sources = Vec::new();
    for (pragmas, body) in STACKS {
        for n in [36, 37] {
            let text = format!(
                "void print_i64(long v);\nint a[40];\nint main(void) {{\n  for (int i = 0; i < 40; i += 1)\n    a[i] = i * 7 % 11;\n  long s = 0;\n{pragmas}  for (int i = 0; i < {n}; i += 1)\n    {body}\n  print_i64(s);\n  return 0;\n}}\n"
            );
            sources.push((format!("{pragmas}{body} ({n} trips)"), text));
        }
    }
    sources
}

/// Every program of the corpus and every stack, on both lowering paths,
/// passes the full verifier (structure and canonical skeletons) after every
/// pass of the `-O` pipeline (`--opt --verify-each`); each stack prints, on
/// both engines, what the interpreter prints for it without `--opt`.
#[test]
fn the_corpus_verifies_after_every_pass() {
    let stacks = stacks();
    let mut verified = 0;
    for (name, text) in corpus().iter().chain(&stacks) {
        let is_stack = stacks.iter().any(|(n, _)| n == name);
        for codegen_mode in MODES {
            for backend in BACKENDS {
                let opts = Options {
                    codegen_mode,
                    backend,
                    verify_each: true,
                    ..Options::default()
                };
                let mut ci = CompilerInstance::new(opts);
                let Ok(tu) = ci.parse_source(name, text) else {
                    continue;
                };
                let mut module = ci.codegen(&tu).expect("codegen");
                ci.optimize(&mut module);
                let findings: Vec<String> = ci
                    .diags
                    .all()
                    .into_iter()
                    .map(|d| d.message)
                    .filter(|m| m.contains("--verify-each"))
                    .collect();
                assert_eq!(findings, Vec::<String>::new(), "{name} ({codegen_mode:?})");
                if is_stack {
                    let plain = Options {
                        backend: Backend::Interp,
                        ..opts
                    };
                    let expected = omplt::run_source_with(text, plain, false).stdout;
                    let run = ci.run(&module).expect("run");
                    assert_eq!(
                        run.stdout, expected,
                        "{name} ({codegen_mode:?}, {backend:?})"
                    );
                }
                verified += 1;
            }
        }
    }
    assert_eq!(verified, 4 * (corpus().len() - 4 + stacks.len()));
}

/// ROADMAP's probe: `s += i` over `trips` iterations under `pragma`.
fn probe(pragma: &str, trips: u32) -> String {
    format!(
        "void print_i64(long v);\nint main(void) {{\n  int s = 0;\n{pragma}  for (int i = 0; i < {trips}; i += 1)\n    s += i;\n  print_i64(s);\n  return 0;\n}}\n"
    )
}

/// `src` lowered on `codegen_mode` and through the `-O` pipeline, with what
/// the unroller did and a run on `backend`.
fn optimized(
    src: &str,
    codegen_mode: OpenMpCodegenMode,
    backend: Backend,
) -> (
    omplt::ir::Module,
    omplt_midend::UnrollStats,
    omplt::interp::RunResult,
) {
    let mut ci = CompilerInstance::new(Options {
        codegen_mode,
        backend,
        ..Options::default()
    });
    let tu = ci.parse_source("probe.c", src).expect("parse");
    let mut module = ci.codegen(&tu).expect("codegen");
    let stats = ci.optimize(&mut module);
    let run = ci.run(&module).expect("run");
    (module, stats, run)
}

const MODES: [OpenMpCodegenMode; 2] = [OpenMpCodegenMode::Classic, OpenMpCodegenMode::IrBuilder];
const BACKENDS: [Backend; 2] = [Backend::Interp, Backend::VmStrict];

/// Experiment L2, asserted: with locals promoted in the mid end a partial
/// unroll costs no more than the loop it stands for, on either engine and
/// lowering path.
#[test]
fn unroll_partial_retires_no_more_than_the_plain_loop() {
    for codegen_mode in MODES {
        for backend in BACKENDS {
            let (_, _, plain) = optimized(&probe("", 20_000), codegen_mode, backend);
            let pragma = "  #pragma omp unroll partial(4)\n";
            let (_, stats, unrolled) = optimized(&probe(pragma, 20_000), codegen_mode, backend);
            assert_eq!(stats.partial, 1);
            assert_eq!(unrolled.stdout, plain.stdout);
            assert!(
                unrolled.ops_retired <= plain.ops_retired,
                "{codegen_mode:?} on {backend:?}: {} ops unrolled, {} plain",
                unrolled.ops_retired,
                plain.ops_retired
            );
        }
    }
}

/// An unconsumed `unroll partial` over a range-`for` lowers through the
/// canonical skeleton as it does over a pointer loop: the pass unrolls both
/// on both lowering paths, and the program prints what it prints serially.
#[test]
fn unroll_partial_keeps_its_hint_over_a_range_for() {
    let src = "void print_i64(long v);\nlong a[7];\nint main(void) {\n\
               \x20 for (int i = 0; i < 7; i++)\n    a[i] = i + 1;\n\
               \x20 #pragma omp unroll partial(3)\n  for (long &v : a)\n    v = v * 3;\n\
               \x20 #pragma omp unroll partial(3)\n  for (long *p = a; p != a + 7; p++)\n\
               \x20   print_i64(*p);\n  return 0;\n}\n";
    for codegen_mode in MODES {
        for backend in BACKENDS {
            let (_, stats, run) = optimized(src, codegen_mode, backend);
            assert_eq!(stats.partial, 2, "{codegen_mode:?} on {backend:?}");
            assert_eq!(run.stdout, "3\n6\n9\n12\n15\n18\n21\n");
        }
    }
}

/// ROADMAP's probe on the VM, in exact retired ops: the plain loop, and
/// `tile sizes(4)` once the mid end has folded the classic tile's bound
/// `min(ub, floor + 4)` to a `select` and hoisted it out of the tile loop.
/// The irbuilder tile computes its span in the preheader already; what is
/// left of both is the per-element user value (ROADMAP item 3).
#[test]
fn the_tile_probe_retires_what_the_mid_end_leaves() {
    let tile = "  #pragma omp tile sizes(4)\n";
    for (codegen_mode, tiled) in MODES.into_iter().zip([100_010, 125_011]) {
        let (_, _, plain) = optimized(&probe("", 20_000), codegen_mode, Backend::VmStrict);
        let (_, _, run) = optimized(&probe(tile, 20_000), codegen_mode, Backend::VmStrict);
        assert_eq!(run.stdout, plain.stdout);
        assert_eq!(plain.ops_retired, 60_009, "{codegen_mode:?}");
        if codegen_mode == OpenMpCodegenMode::Classic {
            assert!(run.ops_retired <= tiled, "{}", run.ops_retired);
        } else {
            assert_eq!(run.ops_retired, tiled, "{codegen_mode:?}");
        }
    }
}

/// `unroll full` of sixteen constant trips folds to the constant: no back
/// edge and, the slots promoted, no `load` or `store` left to fold through.
#[test]
fn unroll_full_of_the_probe_leaves_no_loop_and_no_memory_access() {
    for codegen_mode in MODES {
        for backend in BACKENDS {
            let src = probe("  #pragma omp unroll full\n", 16);
            let (module, stats, run) = optimized(&src, codegen_mode, backend);
            assert_eq!((stats.full, run.stdout.as_str()), (1, "120\n"));
            assert_eq!(loop_count(&module, "main"), 0, "{codegen_mode:?}");
            let ir = print_module(&module);
            assert!(
                !ir.contains(" load ") && !ir.contains("store "),
                "{codegen_mode:?}:\n{ir}"
            );
        }
    }
}

/// `unroll full` over `tile`: the floor loop's body is the tile loop, a
/// region with phis, and the unroller copies it — four tile loops are left.
#[test]
fn unroll_full_over_tile_unrolls_the_floor_loop() {
    // Retired ops when the unroller still skipped the hint, by path.
    let skipped_ops = [
        (Backend::Interp, [127, 111]),
        (Backend::VmStrict, [143, 128]),
    ];
    for (backend, before) in skipped_ops {
        for (codegen_mode, before) in MODES.into_iter().zip(before) {
            let src = probe(
                "  #pragma omp unroll full\n  #pragma omp tile sizes(4)\n",
                16,
            );
            let (module, stats, run) = optimized(&src, codegen_mode, backend);
            let what = format!("{codegen_mode:?} on {backend:?}");
            assert_eq!((stats.full, stats.skipped), (1, 0), "{what}");
            assert_eq!(run.stdout, "120\n", "{what}");
            assert_eq!(loop_count(&module, "main"), 4, "{what}");
            assert!(run.ops_retired < before, "{what}: {} ops", run.ops_retired);
        }
    }
}

/// The trip count is read off the skeleton's compare on both paths, so
/// `unroll full` costs the same on both.
#[test]
fn unroll_full_is_applied_on_the_irbuilder_path_too() {
    let src = "void print_i64(long v);\nint main(void) {\n  int s = 0;\n  #pragma omp unroll full\n  for (int i = 0; i < 8; i += 1)\n    s = s + i * 3;\n  print_i64(s);\n  return 0;\n}\n";
    for backend in [Backend::Interp, Backend::Vm] {
        let ops = MODES.map(|codegen_mode| {
            let (module, stats, run) = optimized(src, codegen_mode, backend);
            assert_eq!((stats.full, stats.skipped), (1, 0), "{codegen_mode:?}");
            assert_eq!(loop_count(&module, "main"), 0, "{codegen_mode:?}");
            assert_eq!(run.stdout, "84\n", "{codegen_mode:?} on {backend:?}");
            run.ops_retired
        });
        assert_eq!(ops[1], ops[0], "{backend:?}: irbuilder, classic");
    }
}

/// Heuristic `unroll` reads the same trip count on both paths, so it makes
/// the same decision — here `full`, over a body with an inner loop — and
/// the result retires the same ops.
#[test]
fn heuristic_unroll_decides_the_same_on_both_paths() {
    let src = "void print_i64(long v);\nint main(void) {\n  long s = 0;\n  #pragma omp unroll\n  for (int i = 0; i < 10; i += 1)\n    for (int j = 0; j < 3; j += 1)\n      s = s + i * j;\n  print_i64(s);\n  return 0;\n}\n";
    for backend in BACKENDS {
        let ops = MODES.map(|codegen_mode| {
            let (_, stats, run) = optimized(src, codegen_mode, backend);
            let what = format!("{codegen_mode:?} on {backend:?}");
            assert_eq!((stats.full, stats.partial), (1, 0), "{what}");
            assert_eq!(run.stdout, "135\n", "{what}");
            run.ops_retired
        });
        assert_eq!(ops[1], ops[0], "{backend:?}: irbuilder, classic");
    }
}

/// A factor far beyond the trip count or the full-unroll budget is capped
/// at both: `partial(2147483647)` used to ask for two billion copies and
/// abort the compiler, `partial(16000)` over ten trips overflowed the VM's
/// register file. Each compiles to a bounded function and prints the sum.
#[test]
fn a_huge_unroll_factor_is_capped_at_the_trips_and_the_budget() {
    for factor in [2_147_483_647u64, 16_000] {
        let src = format!(
            "void print_i64(long v);\nlong f(int n) {{\n  long s = 0;\n  #pragma omp unroll partial({factor})\n  for (int i = 0; i < n; i++)\n    s += i * i + 3;\n  return s;\n}}\nlong g(void) {{\n  long s = 0;\n  #pragma omp unroll partial({factor})\n  for (int i = 0; i < 10; i++)\n    s += i * i + 3;\n  return s;\n}}\nint main(void) {{\n  print_i64(f(1000));\n  print_i64(g());\n  return 0;\n}}\n"
        );
        for codegen_mode in MODES {
            for backend in BACKENDS {
                let (module, stats, run) = optimized(&src, codegen_mode, backend);
                let what = format!("partial({factor}), {codegen_mode:?} on {backend:?}");
                assert_eq!(stats.partial, 2, "{what}");
                assert_eq!(run.stdout, "332836500\n315\n", "{what}");
                for func in ["f", "g"] {
                    let insts = module.function(func).unwrap().num_insts();
                    assert!(insts < 2 * 8_192, "{what}: @{func} has {insts} insts");
                }
            }
        }
    }
}
