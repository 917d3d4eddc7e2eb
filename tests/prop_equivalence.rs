//! Property-style semantic equivalence (EXPERIMENTS.md: C6): for randomized
//! loop shapes (bounds, steps, directions) and transformation parameters,
//! the transformed program must print the same sequence as the
//! untransformed one, in both representations, optimized and not.
//!
//! Formerly written with `proptest`; rewritten as deterministic fixed-seed
//! sweeps so the workspace builds without registry access.

use omplt::interp::RuntimeSchedule;
use omplt::{run_matrix, run_source_with, OpenMpCodegenMode, Options};

const PROTO: &str = "void print_i64(long v);\n";

/// Minimal deterministic PRNG (xorshift64*).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo) as u64) as i64
    }
    fn bool(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

/// Reference semantics of `for (i = lb; i <relop> ub; i +=/-= step)`.
fn reference(lb: i64, ub: i64, step: i64, relop: &str, down: bool) -> Vec<i64> {
    let mut out = Vec::new();
    let mut i = lb;
    let mut guard = 0;
    loop {
        let cont = match relop {
            "<" => i < ub,
            "<=" => i <= ub,
            ">" => i > ub,
            ">=" => i >= ub,
            _ => unreachable!(),
        };
        if !cont || guard > 4000 {
            break;
        }
        out.push(i);
        if down {
            i -= step;
        } else {
            i += step;
        }
        guard += 1;
    }
    out
}

fn loop_source(pragma: &str, lb: i64, ub: i64, step: i64, relop: &str, down: bool) -> String {
    let inc = if down {
        format!("i -= {step}")
    } else {
        format!("i += {step}")
    };
    format!(
        "{PROTO}int main(void) {{\n  {pragma}\n  for (int i = {lb}; i {relop} {ub}; {inc})\n    print_i64(i);\n  return 0;\n}}\n"
    )
}

fn expected_output(vals: &[i64]) -> String {
    vals.iter().map(|v| format!("{v}\n")).collect()
}

const LABELS: [&str; 4] = ["classic", "classic+opt", "irbuilder", "irbuilder+opt"];

#[test]
fn unroll_partial_equivalent_for_random_shapes() {
    let mut rng = Rng::new(0x0DD_0DD);
    for _ in 0..24 {
        let lb = rng.range(-20, 20);
        let span = rng.range(0, 40);
        let step = rng.range(1, 5);
        let factor = rng.range(2, 6) as u64;
        let (incl, down) = (rng.bool(), rng.bool());
        let (relop, ub) = if down {
            (if incl { ">=" } else { ">" }, lb - span)
        } else {
            (if incl { "<=" } else { "<" }, lb + span)
        };
        let expect = expected_output(&reference(lb, ub, step, relop, down));
        let pragma = format!("#pragma omp unroll partial({factor})");
        let src = loop_source(&pragma, lb, ub, step, relop, down);
        for (r, label) in run_matrix(&src).iter().zip(LABELS) {
            assert_eq!(
                &r.stdout, &expect,
                "configuration {label} diverged: lb {lb} ub {ub} step {step} factor {factor} relop {relop}"
            );
        }
    }
}

#[test]
fn tile_equivalent_for_random_shapes() {
    let mut rng = Rng::new(0x711E5);
    for _ in 0..24 {
        let lb = rng.range(-10, 10);
        let span = rng.range(0, 30);
        let step = rng.range(1, 4);
        let size = rng.range(1, 9) as u64;
        let ub = lb + span;
        let expect = expected_output(&reference(lb, ub, step, "<", false));
        let pragma = format!("#pragma omp tile sizes({size})");
        let src = loop_source(&pragma, lb, ub, step, "<", false);
        for (r, label) in run_matrix(&src).iter().zip(LABELS) {
            assert_eq!(
                &r.stdout, &expect,
                "configuration {label} diverged: lb {lb} ub {ub} step {step} size {size}"
            );
        }
    }
}

#[test]
fn unroll_full_equivalent_for_random_constant_loops() {
    let mut rng = Rng::new(0xF0_11_FF);
    for _ in 0..24 {
        let lb = rng.range(-10, 10);
        let span = rng.range(0, 25);
        let step = rng.range(1, 4);
        let ub = lb + span;
        let expect = expected_output(&reference(lb, ub, step, "<", false));
        let src = loop_source("#pragma omp unroll full", lb, ub, step, "<", false);
        for (r, label) in run_matrix(&src).iter().zip(LABELS) {
            assert_eq!(
                &r.stdout, &expect,
                "configuration {label} diverged: lb {lb} ub {ub} step {step}"
            );
        }
    }
}

#[test]
fn workshared_sum_equivalent_for_random_threads() {
    let mut rng = Rng::new(0x57CA1E);
    for _ in 0..24 {
        let n = rng.range(1, 200);
        let threads = rng.range(1, 8) as u32;
        let factor = rng.range(2, 5) as u64;
        let serial: i64 = (0..n).sum();
        let src = format!(
            "{PROTO}int main(void) {{\n  long sum = 0;\n  #pragma omp parallel for reduction(+: sum)\n  #pragma omp unroll partial({factor})\n  for (int i = 0; i < {n}; i += 1)\n    sum = sum + i;\n  print_i64(sum);\n  return 0;\n}}\n"
        );
        let r = run_source_with(
            &src,
            Options {
                num_threads: threads,
                ..Options::default()
            },
            false,
        );
        assert_eq!(
            r.stdout,
            format!("{serial}\n"),
            "n {n} threads {threads} factor {factor}"
        );
    }
}

/// The full worksharing matrix (ISSUE: schedule kinds × loop transformations
/// × team sizes): every schedule in both representations, optimized and not,
/// must execute exactly the sequential multiset of iterations. `runtime` is
/// pinned through [`Options::runtime_schedule`] rather than `OMP_SCHEDULE`
/// so concurrently running tests cannot race on the environment.
#[test]
fn schedule_transform_thread_matrix_multiset_equivalent() {
    const SCHEDULES: [&str; 6] = [
        "schedule(static)",
        "schedule(static, 3)",
        "schedule(dynamic)",
        "schedule(dynamic, 2)",
        "schedule(guided)",
        "schedule(runtime)",
    ];
    const TRANSFORMS: [&str; 4] = ["none", "unroll", "tile", "collapse"];
    const MODES: [OpenMpCodegenMode; 2] =
        [OpenMpCodegenMode::Classic, OpenMpCodegenMode::IrBuilder];
    let n = 23i64;
    for sched in SCHEDULES {
        for transform in TRANSFORMS {
            let (src, mut want): (String, Vec<i64>) = match transform {
                "collapse" => (
                    format!(
                        "{PROTO}int main(void) {{\n  #pragma omp parallel for {sched} collapse(2)\n  for (int i = 0; i < 5; i += 1)\n    for (int j = 0; j < 5; j += 1)\n      print_i64(i * 100 + j);\n  return 0;\n}}\n"
                    ),
                    (0..5).flat_map(|i| (0..5).map(move |j| i * 100 + j)).collect(),
                ),
                _ => {
                    let extra = match transform {
                        "none" => String::new(),
                        "unroll" => "  #pragma omp unroll partial(2)\n".into(),
                        "tile" => "  #pragma omp tile sizes(4)\n".into(),
                        _ => unreachable!(),
                    };
                    (
                        format!(
                            "{PROTO}int main(void) {{\n  #pragma omp parallel for {sched}\n{extra}  for (int i = 0; i < {n}; i += 1)\n    print_i64(i);\n  return 0;\n}}\n"
                        ),
                        (0..n).collect(),
                    )
                }
            };
            want.sort_unstable();
            for threads in [1u32, 2, 4, 7] {
                for mode in MODES {
                    for opt in [false, true] {
                        let r = run_source_with(
                            &src,
                            Options {
                                codegen_mode: mode,
                                num_threads: threads,
                                runtime_schedule: Some(
                                    RuntimeSchedule::parse("dynamic,3").unwrap(),
                                ),
                                ..Options::default()
                            },
                            opt,
                        );
                        let mut got: Vec<i64> =
                            r.stdout.lines().map(|l| l.parse().unwrap()).collect();
                        got.sort_unstable();
                        assert_eq!(
                            got, want,
                            "{sched} + {transform} diverged (mode {mode:?}, {threads} threads, opt {opt})"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn tile_2d_multiset_equivalent() {
    let mut rng = Rng::new(0x2D_2D);
    for _ in 0..24 {
        let ni = rng.range(1, 10);
        let nj = rng.range(1, 10);
        let si = rng.range(1, 5) as u64;
        let sj = rng.range(1, 5) as u64;
        let src = format!(
            "{PROTO}int main(void) {{\n  #pragma omp tile sizes({si}, {sj})\n  for (int i = 0; i < {ni}; i += 1)\n    for (int j = 0; j < {nj}; j += 1)\n      print_i64(i * 100 + j);\n  return 0;\n}}\n"
        );
        let mut want: Vec<i64> = (0..ni)
            .flat_map(|i| (0..nj).map(move |j| i * 100 + j))
            .collect();
        want.sort_unstable();
        for r in run_matrix(&src) {
            let mut got: Vec<i64> = r.stdout.lines().map(|l| l.parse().unwrap()).collect();
            got.sort_unstable();
            assert_eq!(&got, &want, "ni {ni} nj {nj} si {si} sj {sj}");
        }
    }
}

#[test]
fn reverse_equivalent_for_random_shapes() {
    let mut rng = Rng::new(0x004E_5E12);
    for _ in 0..24 {
        let lb = rng.range(-20, 20);
        let span = rng.range(0, 40);
        let step = rng.range(1, 5);
        let (incl, down) = (rng.bool(), rng.bool());
        let (relop, ub) = if down {
            (if incl { ">=" } else { ">" }, lb - span)
        } else {
            (if incl { "<=" } else { "<" }, lb + span)
        };
        let mut want = reference(lb, ub, step, relop, down);
        want.reverse();
        let expect = expected_output(&want);
        let src = loop_source("#pragma omp reverse", lb, ub, step, relop, down);
        for (r, label) in run_matrix(&src).iter().zip(LABELS) {
            assert_eq!(
                &r.stdout, &expect,
                "configuration {label} diverged: lb {lb} ub {ub} step {step} relop {relop}"
            );
        }
    }
}

/// `permutation(p1, ..., pn)` puts original loop `p_k` at position `k` of
/// the generated nest; the body must observe the exact permuted order, not
/// just the same multiset.
#[test]
fn interchange_permutation_exact_order() {
    const PERMS: [[usize; 3]; 6] = [
        [1, 2, 3],
        [1, 3, 2],
        [2, 1, 3],
        [2, 3, 1],
        [3, 1, 2],
        [3, 2, 1],
    ];
    let mut rng = Rng::new(0x1C_7A_6E);
    for perm in PERMS {
        let dims = [rng.range(1, 4), rng.range(1, 4), rng.range(1, 4)];
        let p = [perm[0] - 1, perm[1] - 1, perm[2] - 1];
        let mut want = Vec::new();
        for a in 0..dims[p[0]] {
            for b in 0..dims[p[1]] {
                for c in 0..dims[p[2]] {
                    let mut iv = [0i64; 3];
                    iv[p[0]] = a;
                    iv[p[1]] = b;
                    iv[p[2]] = c;
                    want.push(iv[0] * 100 + iv[1] * 10 + iv[2]);
                }
            }
        }
        let expect = expected_output(&want);
        let src = format!(
            "{PROTO}int main(void) {{\n  #pragma omp interchange permutation({}, {}, {})\n  for (int i = 0; i < {}; i += 1)\n    for (int j = 0; j < {}; j += 1)\n      for (int k = 0; k < {}; k += 1)\n        print_i64(i * 100 + j * 10 + k);\n  return 0;\n}}\n",
            perm[0], perm[1], perm[2], dims[0], dims[1], dims[2]
        );
        for (r, label) in run_matrix(&src).iter().zip(LABELS) {
            assert_eq!(
                &r.stdout, &expect,
                "configuration {label} diverged: perm {perm:?} dims {dims:?}"
            );
        }
    }
}

/// Bare `interchange` defaults to swapping the two outermost loops.
#[test]
fn interchange_default_swaps_outer_pair() {
    let mut rng = Rng::new(0x1C_00_02);
    for _ in 0..12 {
        let (ni, nj) = (rng.range(1, 8), rng.range(1, 8));
        let mut want = Vec::new();
        for j in 0..nj {
            for i in 0..ni {
                want.push(i * 100 + j);
            }
        }
        let expect = expected_output(&want);
        let src = format!(
            "{PROTO}int main(void) {{\n  #pragma omp interchange\n  for (int i = 0; i < {ni}; i += 1)\n    for (int j = 0; j < {nj}; j += 1)\n      print_i64(i * 100 + j);\n  return 0;\n}}\n"
        );
        for (r, label) in run_matrix(&src).iter().zip(LABELS) {
            assert_eq!(&r.stdout, &expect, "configuration {label}: ni {ni} nj {nj}");
        }
    }
}

/// Fusion pairs iterations by logical iteration number: iteration `k` of the
/// fused loop runs iteration `k` of every member whose trip count exceeds
/// `k`, members in program order.
#[test]
fn fuse_interleaves_by_logical_iteration() {
    let mut rng = Rng::new(0xF05E);
    for _ in 0..24 {
        let (lb1, lb2) = (rng.range(-5, 5), rng.range(-5, 5));
        let (n1, n2) = (rng.range(0, 12), rng.range(0, 12));
        let (s1, s2) = (rng.range(1, 4), rng.range(1, 4));
        let r1 = reference(lb1, lb1 + n1, s1, "<", false);
        let r2 = reference(lb2, lb2 + n2, s2, "<", false);
        let mut want = Vec::new();
        for k in 0..r1.len().max(r2.len()) {
            if let Some(v) = r1.get(k) {
                want.push(*v);
            }
            if let Some(v) = r2.get(k) {
                want.push(1000 + *v);
            }
        }
        let expect = expected_output(&want);
        let src = format!(
            "{PROTO}int main(void) {{\n  #pragma omp fuse\n  {{\n    for (int i = {lb1}; i < {}; i += {s1}) print_i64(i);\n    for (int j = {lb2}; j < {}; j += {s2}) print_i64(1000 + j);\n  }}\n  return 0;\n}}\n",
            lb1 + n1,
            lb2 + n2
        );
        for (r, label) in run_matrix(&src).iter().zip(LABELS) {
            assert_eq!(
                &r.stdout, &expect,
                "configuration {label} diverged: lb ({lb1}, {lb2}) n ({n1}, {n2}) step ({s1}, {s2})"
            );
        }
    }
}

/// Reverse composed with the existing transformations, exact order:
/// `reverse` over `tile sizes(s)` reverses the *block* order while keeping
/// intra-block order; `tile` or `unroll` over `reverse` preserve the fully
/// reversed sequence.
#[test]
fn reverse_composes_with_tile_and_unroll() {
    let mut rng = Rng::new(0xC0_B0_5E);
    for _ in 0..16 {
        let n = rng.range(1, 30);
        let size = rng.range(1, 7);
        let factor = rng.range(2, 5);
        let seq: Vec<i64> = (0..n).collect();

        // reverse over tile: blocks of `size`, reversed block order.
        let mut blocks: Vec<&[i64]> = seq.chunks(size as usize).collect();
        blocks.reverse();
        let want_rt: Vec<i64> = blocks.concat();
        let src_rt = format!(
            "{PROTO}int main(void) {{\n  #pragma omp reverse\n  #pragma omp tile sizes({size})\n  for (int i = 0; i < {n}; i += 1)\n    print_i64(i);\n  return 0;\n}}\n"
        );
        for (r, label) in run_matrix(&src_rt).iter().zip(LABELS) {
            assert_eq!(
                r.stdout,
                expected_output(&want_rt),
                "reverse-over-tile {label}: n {n} size {size}"
            );
        }

        // tile over reverse, and unroll over reverse: plain reversed order.
        let want_rev: Vec<i64> = seq.iter().rev().copied().collect();
        for pragma in [
            format!("#pragma omp tile sizes({size})\n  #pragma omp reverse"),
            format!("#pragma omp unroll partial({factor})\n  #pragma omp reverse"),
        ] {
            let src = format!(
                "{PROTO}int main(void) {{\n  {pragma}\n  for (int i = 0; i < {n}; i += 1)\n    print_i64(i);\n  return 0;\n}}\n"
            );
            for (r, label) in run_matrix(&src).iter().zip(LABELS) {
                assert_eq!(
                    r.stdout,
                    expected_output(&want_rev),
                    "{pragma} {label}: n {n} size {size} factor {factor}"
                );
            }
        }
    }
}

/// Worksharing over the new transformations: every schedule kind, both
/// representations, several team sizes — the fused/interchanged/reversed
/// loop must still execute exactly the sequential multiset of iterations.
#[test]
fn schedule_new_transform_thread_matrix_multiset_equivalent() {
    const SCHEDULES: [&str; 4] = [
        "schedule(static)",
        "schedule(static, 3)",
        "schedule(dynamic, 2)",
        "schedule(guided)",
    ];
    const MODES: [OpenMpCodegenMode; 2] =
        [OpenMpCodegenMode::Classic, OpenMpCodegenMode::IrBuilder];
    let n = 23i64;
    for sched in SCHEDULES {
        for transform in ["reverse", "interchange", "fuse"] {
            let (src, mut want): (String, Vec<i64>) = match transform {
                "reverse" => (
                    format!(
                        "{PROTO}int main(void) {{\n  #pragma omp parallel for {sched}\n  #pragma omp reverse\n  for (int i = 0; i < {n}; i += 1)\n    print_i64(i);\n  return 0;\n}}\n"
                    ),
                    (0..n).collect(),
                ),
                "interchange" => (
                    format!(
                        "{PROTO}int main(void) {{\n  #pragma omp parallel for {sched}\n  #pragma omp interchange\n  for (int i = 0; i < 5; i += 1)\n    for (int j = 0; j < 4; j += 1)\n      print_i64(i * 100 + j);\n  return 0;\n}}\n"
                    ),
                    (0..5).flat_map(|i| (0..4).map(move |j| i * 100 + j)).collect(),
                ),
                _ => (
                    format!(
                        "{PROTO}int main(void) {{\n  #pragma omp parallel for {sched}\n  #pragma omp fuse\n  {{\n    for (int i = 0; i < {n}; i += 1) print_i64(i);\n    for (int j = 0; j < 9; j += 1) print_i64(1000 + j);\n  }}\n  return 0;\n}}\n"
                    ),
                    (0..n).chain((0..9).map(|j| 1000 + j)).collect(),
                ),
            };
            want.sort_unstable();
            for threads in [1u32, 2, 4, 7] {
                for mode in MODES {
                    for opt in [false, true] {
                        let r = run_source_with(
                            &src,
                            Options {
                                codegen_mode: mode,
                                num_threads: threads,
                                ..Options::default()
                            },
                            opt,
                        );
                        let mut got: Vec<i64> =
                            r.stdout.lines().map(|l| l.parse().unwrap()).collect();
                        got.sort_unstable();
                        assert_eq!(
                            got, want,
                            "{sched} + {transform} diverged (mode {mode:?}, {threads} threads, opt {opt})"
                        );
                    }
                }
            }
        }
    }
}

/// Worksharing over a *stacked* transformation chain. `reverse` over
/// `tile` produces a `{ tc-decl; { tc-decl; loop } }` transformed AST
/// whose prologues must be spliced by both Sema's `split_prologue` and
/// the classic lowering's `resolve_loop` mirror — regression test for the
/// classic path silently worksharing zero iterations over the unsplit
/// compound.
#[test]
fn schedule_over_stacked_transform_chain_multiset_equivalent() {
    const MODES: [OpenMpCodegenMode; 2] =
        [OpenMpCodegenMode::Classic, OpenMpCodegenMode::IrBuilder];
    let n = 17i64;
    for chain in [
        "#pragma omp reverse\n  #pragma omp tile sizes(4)",
        "#pragma omp tile sizes(5)\n  #pragma omp reverse",
        "#pragma omp reverse\n  #pragma omp unroll partial(3)",
    ] {
        let src = format!(
            "{PROTO}int main(void) {{\n  #pragma omp parallel for schedule(static, 2)\n  {chain}\n  for (int i = 0; i < {n}; i += 1)\n    print_i64(i);\n  return 0;\n}}\n"
        );
        let mut want: Vec<i64> = (0..n).collect();
        want.sort_unstable();
        for threads in [1u32, 3, 4] {
            for mode in MODES {
                for opt in [false, true] {
                    let r = run_source_with(
                        &src,
                        Options {
                            codegen_mode: mode,
                            num_threads: threads,
                            ..Options::default()
                        },
                        opt,
                    );
                    let mut got: Vec<i64> = r.stdout.lines().map(|l| l.parse().unwrap()).collect();
                    got.sort_unstable();
                    assert_eq!(
                        got, want,
                        "{chain} under worksharing diverged (mode {mode:?}, {threads} threads, opt {opt})"
                    );
                }
            }
        }
    }
}

/// Autotuner property (the tuner's core safety claim, checked exhaustively):
/// every *order-preserving* mutation the enumerator can produce — schedule
/// kind/chunk, tile sizes, unroll factors, and their removals — preserves
/// the output multiset of the program relative to its fully *unannotated*
/// baseline. Order-changing axes (reverse, interchange, fuse) are excluded
/// by construction via `order_preserving_only`; what remains may reorder or
/// re-chunk iterations but must never change what is computed.
#[test]
fn order_preserving_mutations_preserve_output_multiset() {
    let annotated = format!(
        "{PROTO}int main(void) {{\n\
         \x20 #pragma omp parallel for schedule(static)\n\
         \x20 #pragma omp tile sizes(2, 2)\n\
         \x20 for (int i = 0; i < 10; i += 1)\n\
         \x20   for (int j = 0; j < 8; j += 1)\n\
         \x20     print_i64(i * 100 + j);\n\
         \x20 #pragma omp unroll partial(2)\n\
         \x20 for (int k = 0; k < 12; k += 1)\n\
         \x20   print_i64(9000 + k);\n\
         \x20 return 0;\n\
         }}\n"
    );
    let model = omplt::tune::SourceModel::parse(&annotated);
    assert_eq!(model.num_pragmas(), 3, "three pragmas in the fixture");

    // The reference semantics: the same program with every pragma erased,
    // run serially on the oracle backend.
    let baseline = run_source_with(&model.strip_pragmas(), Options::default(), true);
    let mut want: Vec<String> = baseline.stdout.lines().map(str::to_string).collect();
    want.sort_unstable();
    assert_eq!(want.len(), 10 * 8 + 12, "fixture prints every cell once");

    let cfg = omplt::tune::EnumConfig {
        order_preserving_only: true,
        insertions: false,
        ..omplt::tune::EnumConfig::default()
    };
    let mut checked = 0;
    for c in omplt::tune::enumerate(&model, &cfg).take(48) {
        let src = model.apply(&c.mutations).expect("re-synthesis");
        let r = run_source_with(
            &src,
            Options {
                num_threads: 4,
                ..Options::default()
            },
            true,
        );
        assert_eq!(
            r.exit_code, baseline.exit_code,
            "mutant '{}' exit code",
            c.label
        );
        let mut got: Vec<String> = r.stdout.lines().map(str::to_string).collect();
        got.sort_unstable();
        assert_eq!(
            got, want,
            "order-preserving mutant '{}' changed the output multiset:\n{src}",
            c.label
        );
        checked += 1;
    }
    assert!(
        checked >= 10,
        "enumerator produced too few order-preserving mutants ({checked})"
    );
}
