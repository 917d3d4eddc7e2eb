//! End-to-end semantic equivalence (EXPERIMENTS.md: L1, C6): every loop
//! transformation, in both representations, with and without the mid-end
//! pipeline, must preserve program behaviour.

use omplt::{assert_matrix_output, run_source, run_source_with, CompilerInstance, Options};

/// Expected "print each iteration value" output.
fn seq(vals: impl IntoIterator<Item = i64>) -> String {
    vals.into_iter().map(|v| format!("{v}\n")).collect()
}

const PRINT_PROTO: &str = "void print_i64(long v);\n";

/// Asserts `expected` on stdout at every matrix point on the interpreter,
/// and in both representations, with and without the mid end, on the
/// bytecode VM with fallback disabled.
fn assert_output_on_both_engines(src: &str, expected: &str) {
    assert_matrix_output(src, expected);
    for codegen_mode in [
        omplt::OpenMpCodegenMode::Classic,
        omplt::OpenMpCodegenMode::IrBuilder,
    ] {
        for optimize in [false, true] {
            let opts = Options {
                codegen_mode,
                backend: omplt::Backend::VmStrict,
                ..Options::default()
            };
            let r = run_source_with(src, opts, optimize);
            assert_eq!(
                r.stdout, expected,
                "vm:strict, {codegen_mode:?}, {optimize}"
            );
        }
    }
}

/// The loop forms of the directive matrix: a header, and what its body
/// prints. Every form visits ten values; the pointer and range forms walk
/// `a`, and a by-reference form writes through.
const LOOP_FORMS: [(&str, &str); 15] = [
    ("for (int i = 0; i < 10; i++)", "i"),
    ("for (int i = 0; i <= 9; i++)", "i"),
    ("for (int i = 0; i != 10; i++)", "i"),
    ("for (int i = 9; i >= 0; i--)", "i"),
    ("for (int i = 10; i > 0; i--)", "i"),
    ("for (int i = 0; 10 > i; i++)", "i"),
    ("for (int i = 1; i < 30; i += 3)", "i"),
    ("for (int i = 28; i > 0; i -= 3)", "i"),
    ("for (unsigned i = 0; i < 10; i++)", "i"),
    ("for (long i = -5; i < 5; i++)", "i"),
    ("for (char c = 'a'; c < 'k'; c++)", "c"),
    ("for (long *p = a; p < a + 10; p++)", "*p"),
    ("for (long *p = a + 9; p >= a; p--)", "*p"),
    ("for (long &v : a)", "v += 1000"),
    ("for (long v : a)", "v"),
];

/// The directive stacks of the matrix over one loop, and whether each
/// keeps the iteration order (at one thread).
const ONE_LEVEL_STACKS: [(&str, bool); 11] = [
    ("for", true),
    ("parallel for", true),
    ("parallel for collapse(1)", true),
    ("for simd", true),
    ("for schedule(dynamic, 2)", true),
    ("simd", true),
    ("taskloop", true),
    ("tile sizes(4)", true),
    ("unroll partial(3)", true),
    ("reverse", false),
    ("unroll full", true),
];

/// `lp` under `#pragma omp <stack>`, between the setup of arrays that hold
/// known values and a print of `a` (which shows a by-reference write).
fn matrix_program(stack: &str, lp: &str) -> String {
    format!(
        "{PRINT_PROTO}long a[10];\nlong b[3];\nlong m[2][4];\nint main(void) {{\n  \
         for (int k = 0; k < 10; k++) a[k] = 100 + k;\n  \
         for (int k = 0; k < 3; k++) b[k] = k + 1;\n  \
         for (int k = 0; k < 8; k++) m[k / 4][k % 4] = 200 + k;\n  \
         #pragma omp {stack}\n  {lp}\n  \
         for (int k = 0; k < 10; k++) print_i64(a[k]);\n  return 0;\n}}\n"
    )
}

/// What one compile of `src` prints on the interpreter and on `vm:strict`,
/// both running the same module, or the compile's rendered diagnostics.
fn outputs_of_one_compile(src: &str, opts: Options, optimize: bool) -> Result<[String; 2], String> {
    let mut ci = CompilerInstance::new(opts);
    let tu = ci.parse_source("matrix.c", src)?;
    let mut module = ci.codegen(&tu)?;
    if optimize {
        ci.optimize(&mut module);
    }
    Ok(
        [omplt::Backend::Interp, omplt::Backend::VmStrict].map(|backend| {
            ci.opts.backend = backend;
            ci.run(&module).expect("a compiled program runs").stdout
        }),
    )
}

/// Where `src` departs from the serial program on both paths, with and
/// without the mid end, on both engines, at one thread. Each must print what
/// the `--no-openmp` run prints (in order when `ordered`, else as a
/// multiset) — or, exactly when `refusal` names one, fail to compile with an
/// error containing it.
fn departures_from_serial(src: &str, ordered: bool, refusal: Option<&str>) -> Vec<String> {
    let lines = |out: &str| {
        let mut lines: Vec<String> = out.lines().map(String::from).collect();
        if !ordered {
            lines.sort();
        }
        lines
    };
    let serial = Options {
        openmp: false,
        ..Options::default()
    };
    let expected = lines(&run_source_with(src, serial, false).stdout);
    let mut departures = Vec::new();
    for codegen_mode in [
        omplt::OpenMpCodegenMode::Classic,
        omplt::OpenMpCodegenMode::IrBuilder,
    ] {
        for optimize in [false, true] {
            let opts = Options {
                codegen_mode,
                num_threads: 1,
                ..Options::default()
            };
            let what = match (outputs_of_one_compile(src, opts, optimize), refusal) {
                (Ok(outs), None) if outs.iter().all(|out| lines(out) == expected) => continue,
                (Err(diags), Some(why)) if diags.contains(": error: ") && diags.contains(why) => {
                    continue
                }
                (Ok(outs), _) => format!("printed {:?}", outs.map(|out| lines(&out))),
                (Err(diags), _) => format!("refused: {diags}"),
            };
            departures.push(format!(
                "{codegen_mode:?}, optimize {optimize}: {what}\n{src}"
            ));
        }
    }
    departures
}

/// Fails with the first of `departures` and their count.
fn assert_no_departures(departures: &[String], points: usize) {
    assert!(
        departures.is_empty(),
        "{} of {points} compiles depart from the serial run; the first:\n{}",
        departures.len(),
        departures[0]
    );
}

/// Every directive stack over every loop form runs what the serial program
/// runs. Only `unroll full` over a loop without a constant trip count is
/// refused.
#[test]
fn every_directive_over_every_loop_form_matches_the_serial_run() {
    let mut departures = Vec::new();
    for (header, value) in LOOP_FORMS {
        let lp = format!("{header} print_i64({value});");
        let constant = !header.contains('*') && !header.contains(':');
        for (stack, ordered) in ONE_LEVEL_STACKS {
            let refusal = (stack == "unroll full" && !constant).then_some("constant trip count");
            departures.extend(departures_from_serial(
                &matrix_program(stack, &lp),
                ordered,
                refusal,
            ));
        }
    }
    assert_no_departures(&departures, LOOP_FORMS.len() * ONE_LEVEL_STACKS.len() * 4);
}

/// Two-level nests that mix a range-`for` with a counted or pointer loop
/// run what the serial program runs under every stack that associates two
/// levels. A range below the outermost level that reads an outer counter
/// is refused: the nest is not rectangular. `interchange` over the nest
/// that writes `b` through `v` is not: each element is still written in
/// the order of `i`, and the gate splits the `*` of its dependence vector
/// `(*, =)` into `(<, =)` and its reverse, which interchange keeps.
#[test]
fn two_level_nests_with_a_range_for_match_the_serial_run() {
    let nests = [
        "for (long &v : a) for (int j = 0; j < 3; j++) print_i64(v * 10 + j);",
        "for (long v : a) for (long *q = b; q < b + 3; q++) print_i64(v * 10 + *q);",
        "for (int i = 0; i < 3; i++) for (long &v : b) print_i64(i * 1000 + v);",
        "for (int i = 0; i < 3; i++) for (long &v : b) print_i64(i * 1000 + (v += 10));",
        "for (long *p = a; p < a + 4; p++) for (long v : b) print_i64(*p * 10 + v);",
        "for (int i = 0; i < 2; i++) for (long &v : m[i]) print_i64(v);",
    ];
    let stacks = [
        ("for collapse(2)", true),
        ("simd collapse(2)", true),
        ("tile sizes(2, 2)", false),
        ("interchange", false),
    ];
    let mut departures = Vec::new();
    for nest in nests {
        for (stack, ordered) in stacks {
            let refusal = nest.contains("m[i]").then_some("must be rectangular");
            departures.extend(departures_from_serial(
                &matrix_program(stack, nest),
                ordered,
                refusal,
            ));
        }
    }
    assert_no_departures(&departures, nests.len() * stacks.len() * 4);
}

#[test]
fn plain_loop_baseline() {
    let src = format!(
        "{PRINT_PROTO}int main(void) {{\n  for (int i = 7; i < 17; i += 3)\n    print_i64(i);\n  return 0;\n}}\n"
    );
    assert_matrix_output(&src, &seq([7, 10, 13, 16]));
}

#[test]
fn unroll_partial2_matches_manual_unroll() {
    // The paper's §1 equivalence example (L1): `unroll partial(2)` vs the
    // hand-unrolled version must behave identically.
    let pragma_version = format!(
        "{PRINT_PROTO}int main(void) {{\n  #pragma omp unroll partial(2)\n  for (int i = 0; i < 9; i += 1)\n    print_i64(i);\n  return 0;\n}}\n"
    );
    let manual_version = format!(
        "{PRINT_PROTO}int main(void) {{\n  for (int i = 0; i < 9; i += 2) {{\n    print_i64(i);\n    if (i + 1 < 9) print_i64(i + 1);\n  }}\n  return 0;\n}}\n"
    );
    let expected = seq(0..9);
    assert_matrix_output(&pragma_version, &expected);
    let manual = run_source(&manual_version);
    assert_eq!(manual.stdout, expected);
}

#[test]
fn unroll_full_small_loop() {
    let src = format!(
        "{PRINT_PROTO}int main(void) {{\n  #pragma omp unroll full\n  for (int i = 0; i < 5; i += 1)\n    print_i64(i * 10);\n  return 0;\n}}\n"
    );
    assert_matrix_output(&src, &seq([0, 10, 20, 30, 40]));
}

#[test]
fn unroll_heuristic_mode() {
    let src = format!(
        "{PRINT_PROTO}int main(void) {{\n  #pragma omp unroll\n  for (int i = 0; i < 10; i += 1)\n    print_i64(i);\n  return 0;\n}}\n"
    );
    assert_matrix_output(&src, &seq(0..10));
}

#[test]
fn unroll_factors_and_trip_counts() {
    // Factor × trip-count matrix incl. non-divisible remainders.
    for factor in [2u64, 3, 4, 8] {
        for trip in [0i64, 1, 2, 5, 12, 17] {
            let src = format!(
                "{PRINT_PROTO}int main(void) {{\n  #pragma omp unroll partial({factor})\n  for (int i = 0; i < {trip}; i += 1)\n    print_i64(i);\n  return 0;\n}}\n"
            );
            assert_matrix_output(&src, &seq(0..trip));
        }
    }
}

#[test]
fn unroll_nonunit_step_and_offset_bounds() {
    let src = format!(
        "{PRINT_PROTO}int main(void) {{\n  #pragma omp unroll partial(2)\n  for (int i = 7; i < 17; i += 3)\n    print_i64(i);\n  return 0;\n}}\n"
    );
    assert_matrix_output(&src, &seq([7, 10, 13, 16]));
}

#[test]
fn unroll_downward_loop() {
    let src = format!(
        "{PRINT_PROTO}int main(void) {{\n  #pragma omp unroll partial(4)\n  for (int i = 10; i > 0; i -= 1)\n    print_i64(i);\n  return 0;\n}}\n"
    );
    assert_matrix_output(&src, &seq((1..=10).rev()));
}

#[test]
fn tile_single_loop() {
    let src = format!(
        "{PRINT_PROTO}int main(void) {{\n  #pragma omp tile sizes(4)\n  for (int i = 0; i < 10; i += 1)\n    print_i64(i);\n  return 0;\n}}\n"
    );
    assert_matrix_output(&src, &seq(0..10));
}

#[test]
fn tile_2d_changes_order_but_covers_all() {
    // 2D tiling permutes the visit order deterministically: tiles iterate
    // in row-major tile order.
    let src = format!(
        "{PRINT_PROTO}int main(void) {{\n  #pragma omp tile sizes(2, 2)\n  for (int i = 0; i < 4; i += 1)\n    for (int j = 0; j < 4; j += 1)\n      print_i64(i * 10 + j);\n  return 0;\n}}\n"
    );
    // classic path (shadow AST): loops over floor tiles then in-tile.
    let expected: Vec<i64> = vec![0, 1, 10, 11, 2, 3, 12, 13, 20, 21, 30, 31, 22, 23, 32, 33];
    let r = run_source_with(
        &src,
        Options {
            serial: true,
            ..Options::default()
        },
        false,
    );
    assert_eq!(
        r.stdout,
        seq(expected.iter().copied()),
        "classic tile order"
    );
    // and the multiset is complete for every configuration
    for r in omplt::run_matrix(&src) {
        let mut lines: Vec<i64> = r.stdout.lines().map(|l| l.parse().unwrap()).collect();
        lines.sort_unstable();
        let mut want: Vec<i64> = (0..4)
            .flat_map(|i| (0..4).map(move |j| i * 10 + j))
            .collect();
        want.sort_unstable();
        assert_eq!(lines, want);
    }
}

#[test]
fn tile_with_partial_tiles() {
    // 10 not divisible by 4: partial tiles via min().
    let src = format!(
        "{PRINT_PROTO}int main(void) {{\n  long sum = 0;\n  #pragma omp tile sizes(4)\n  for (int i = 0; i < 10; i += 1)\n    sum = sum + i;\n  print_i64(sum);\n  return 0;\n}}\n"
    );
    assert_matrix_output(&src, &seq([45]));
}

#[test]
fn composed_tile_over_unroll() {
    let src = format!(
        "{PRINT_PROTO}int main(void) {{\n  long sum = 0;\n  #pragma omp tile sizes(4)\n  #pragma omp unroll partial(2)\n  for (int i = 0; i < 20; i += 1)\n    sum = sum + i;\n  print_i64(sum);\n  return 0;\n}}\n"
    );
    assert_matrix_output(&src, &seq([190]));
}

#[test]
fn composed_full_over_partial() {
    // The paper's lst:astdump_shadowast composition: effectively complete
    // unrolling.
    let src = format!(
        "{PRINT_PROTO}int main(void) {{\n  #pragma omp unroll full\n  #pragma omp unroll partial(2)\n  for (int i = 7; i < 17; i += 3)\n    print_i64(i);\n  return 0;\n}}\n"
    );
    assert_matrix_output(&src, &seq([7, 10, 13, 16]));
}

#[test]
fn while_loops_and_conditionals_unaffected() {
    let src = format!(
        "{PRINT_PROTO}int main(void) {{\n  int n = 5;\n  while (n > 0) {{\n    if (n == 3) {{ n = n - 1; continue; }}\n    print_i64(n);\n    n = n - 1;\n  }}\n  return 0;\n}}\n"
    );
    assert_matrix_output(&src, &seq([5, 4, 2, 1]));
}

#[test]
fn range_based_for_executes() {
    let src = format!(
        "{PRINT_PROTO}int main(void) {{\n  double data[5];\n  for (int i = 0; i < 5; i += 1)\n    data[i] = i * 2.0;\n  double sum = 0.0;\n  for (double &v : data)\n    sum = sum + v;\n  print_i64((long)sum);\n  return 0;\n}}\n"
    );
    assert_matrix_output(&src, &seq([20]));
}

#[test]
fn range_for_by_value_copies() {
    // Writing through a by-value loop variable must NOT modify the array.
    let src = format!(
        "{PRINT_PROTO}int main(void) {{\n  double data[3];\n  data[0] = 1.0; data[1] = 2.0; data[2] = 3.0;\n  for (double v : data)\n    v = 0.0;\n  print_i64((long)(data[0] + data[1] + data[2]));\n  return 0;\n}}\n"
    );
    assert_matrix_output(&src, &seq([6]));
}

#[test]
fn range_for_by_ref_writes_through() {
    let src = format!(
        "{PRINT_PROTO}int main(void) {{\n  double data[3];\n  data[0] = 1.0; data[1] = 2.0; data[2] = 3.0;\n  for (double &v : data)\n    v = v * 2.0;\n  print_i64((long)(data[0] + data[1] + data[2]));\n  return 0;\n}}\n"
    );
    assert_matrix_output(&src, &seq([12]));
}

#[test]
fn unroll_of_range_for() {
    // Transformation of a range-based for: the §3 motivation.
    let src = format!(
        "{PRINT_PROTO}int main(void) {{\n  long data[7];\n  for (int i = 0; i < 7; i += 1)\n    data[i] = i + 100;\n  #pragma omp unroll partial(2)\n  for (long &v : data)\n    print_i64(v);\n  return 0;\n}}\n"
    );
    assert_matrix_output(&src, &seq(100..107));
}

#[test]
fn functions_and_recursion() {
    let src = format!(
        "{PRINT_PROTO}long fib(int n) {{\n  if (n < 2) return n;\n  return fib(n - 1) + fib(n - 2);\n}}\nint main(void) {{\n  print_i64(fib(10));\n  return 0;\n}}\n"
    );
    assert_matrix_output(&src, &seq([55]));
}

#[test]
fn exit_code_propagates() {
    let r = run_source("int main(void) { return 42; }\n");
    assert_eq!(r.exit_code, 42);
}

#[test]
fn trip_count_type_extremes_i8() {
    // C5 analogue scaled to i8: full range loop over char, counted in an
    // unsigned logical counter.
    let src = format!(
        "{PRINT_PROTO}int main(void) {{\n  long n = 0;\n  #pragma omp unroll partial(4)\n  for (char c = -128; c < 127; c += 1)\n    n = n + 1;\n  print_i64(n);\n  return 0;\n}}\n"
    );
    assert_matrix_output(&src, &seq([255]));
}

/// A local `int a[9][9]` is 81 `int`s, not 9 pointers: its alloca used to be
/// sized by the *outer* extent only, so the first `a[2][0]` was an
/// out-of-bounds access (globals of the same type were sized correctly).
/// The 2-D nest is interchanged, which is legal — and provable — because
/// every cell depends on itself only.
#[test]
fn local_multidimensional_arrays() {
    let src = format!(
        "{PRINT_PROTO}int main(void) {{\n  int a[9][9];\n  long b[2][3][4];\n  \
         for (int i = 0; i < 9; i += 1)\n    for (int j = 0; j < 9; j += 1)\n      a[i][j] = 9 * i + j;\n  \
         for (int i = 0; i < 2; i += 1)\n    for (int j = 0; j < 3; j += 1)\n      for (int k = 0; k < 4; k += 1)\n        b[i][j][k] = 100 * i + 10 * j + k;\n  \
         #pragma omp interchange\n  for (int i = 0; i < 9; i += 1)\n    for (int j = 0; j < 9; j += 1)\n      a[i][j] = a[i][j] * 2 + 1;\n  \
         long s = 0;\n  for (int i = 1; i < 9; i += 1)\n    for (int j = 0; j < 8; j += 1)\n      s += a[i][j] - a[i - 1][j + 1];\n  \
         print_i64(s);\n  print_i64(a[8][8]);\n  print_i64(b[1][2][3] + b[0][1][2]);\n  return 0;\n}}\n"
    );
    assert_output_on_both_engines(&src, &seq([1024, 161, 135]));
}

/// A replacement list is rescanned for macro names (C11 6.10.3.4), in
/// pragma bodies too: the paper's per-machine directive selection builds
/// `tile sizes(4)` from two macros, and it prints what the plain loop does.
#[test]
fn a_macro_built_tile_prints_what_the_plain_loop_prints() {
    let src = format!(
        "{PRINT_PROTO}#define N 4\n#define F sizes(N)\n#define LAST 9\n#define END LAST\n\
         int main(void) {{\n  #pragma omp tile F\n  for (int i = 0; i < END; i += 1)\n    \
         print_i64(i);\n  return 0;\n}}\n"
    );
    assert_output_on_both_engines(&src, &seq(0..9));
}

/// Integer literals have C11 6.4.4.1's types under LP64: `010` is octal, a
/// `u` literal above `UINT_MAX` is `unsigned long`, `0xFFFFFFFF` is
/// `unsigned int` (adding 1 wraps to 0) while decimal `2147483648` is
/// `long`, and a literal no type holds is an error.
#[test]
fn integer_literals_have_their_c_types() {
    let src = format!(
        "{PRINT_PROTO}int main(void) {{\n  print_i64(010);\n  print_i64(5000000000u);\n  \
         print_i64(0xFFFFFFFF + 1);\n  print_i64(sizeof(0xFFFFFFFF) + sizeof(2147483648));\n  \
         return 0;\n}}\n"
    );
    assert_output_on_both_engines(&src, &seq([8, 5_000_000_000, 0, 12]));
    let mut ci = CompilerInstance::new(Options::default());
    let err = ci.parse_source("t.c", "long x = 99999999999999999999;\n");
    let err = err.expect_err("no integer type holds the literal");
    assert!(
        err.contains(
            "1:10: error: integer literal is too large to be represented in any integer type"
        ),
        "{err}"
    );
}

/// `assert_output_on_both_engines`, plus one `--verify-each` compile per
/// lowering path: every handle a transformation hands on must be a
/// canonical skeleton, and the mid end must keep every one it leaves.
fn assert_stack_output(src: &str, expected: &str) {
    assert_output_on_both_engines(src, expected);
    for codegen_mode in [
        omplt::OpenMpCodegenMode::Classic,
        omplt::OpenMpCodegenMode::IrBuilder,
    ] {
        let opts = Options {
            codegen_mode,
            backend: omplt::Backend::VmStrict,
            verify_each: true,
            ..Options::default()
        };
        let r = run_source_with(src, opts, true);
        assert_eq!(r.stdout, expected, "--verify-each, {codegen_mode:?}");
    }
}

/// `for (int i = 0; i < 5; i += 1) for (int j = 0; j < 7; j += 1)
/// print_i64(i * 10 + j);` under `pragmas`.
fn over_5x7(pragmas: &str) -> String {
    format!(
        "{PRINT_PROTO}int main(void) {{\n{pragmas}  for (int i = 0; i < 5; i += 1)\n    \
         for (int j = 0; j < 7; j += 1)\n      print_i64(i * 10 + j);\n  return 0;\n}}\n"
    )
}

/// `(lo..hi).step_by(step)` as the first element of each tile, with the
/// tile's end.
fn tiles(hi: i64, size: i64) -> impl Iterator<Item = (i64, i64)> + Clone {
    (0..hi)
        .step_by(size as usize)
        .map(move |lo| (lo, (lo + size).min(hi)))
}

/// Tiling two loops visits the tiles row-major and each tile row-major,
/// including the partial tiles of a 5×7 space.
#[test]
fn tile_2x3_over_5x7_visits_tiles_in_order() {
    let src = over_5x7("  #pragma omp tile sizes(2, 3)\n");
    let order = tiles(5, 2).flat_map(|(i0, i1)| {
        tiles(7, 3)
            .flat_map(move |(j0, j1)| (i0..i1).flat_map(move |i| (j0..j1).map(move |j| i * 10 + j)))
    });
    assert_stack_output(&src, &seq(order));
}

/// `tile` consumes the loops `interchange` generated: the tiles run over
/// `j` outside `i`.
#[test]
fn tile_over_interchange_tiles_the_permuted_nest() {
    let src = over_5x7("  #pragma omp tile sizes(2, 2)\n  #pragma omp interchange\n");
    let order = tiles(7, 2).flat_map(|(j0, j1)| {
        tiles(5, 2)
            .flat_map(move |(i0, i1)| (j0..j1).flat_map(move |j| (i0..i1).map(move |i| i * 10 + j)))
    });
    assert_stack_output(&src, &seq(order));
}

/// Stacks in which a directive consumes the loops a transformation
/// generated, one row per way a generated loop reaches its consumer: a
/// directive over each of the five transformations, two-level consumers
/// over the loops of `interchange` and the floor loops of `tile`,
/// transformations over range, pointer and down-counting loops, a nest
/// whose inner loop a transformation generated, and `fuse` of transformed
/// members. Each runs what the serial program runs, or, for `unroll full`
/// over a loop without a constant trip count, is refused.
#[test]
fn stacked_transformations_match_the_serial_run() {
    const ONE: &str = "for (int i = 0; i < 10; i++) print_i64(i);";
    const TWO: &str =
        "for (int i = 0; i < 4; i++) for (int j = 0; j < 5; j++) print_i64(i * 10 + j);";
    const INNER_REVERSE: &str = "for (int i = 0; i < 4; i++)\n  #pragma omp reverse\n  \
                                 for (int j = 0; j < 5; j++) print_i64(i * 10 + j);";
    const SEQUENCE: &str = "{ for (int i = 0; i < 6; i++) print_i64(i); \
                            for (int j = 0; j < 9; j++) print_i64(100 + j); }";
    const TRANSFORMED_MEMBERS: &str = "{\n  #pragma omp reverse\n  \
                                       for (int i = 0; i < 6; i++) print_i64(i);\n  \
                                       #pragma omp tile sizes(2)\n  \
                                       for (int j = 0; j < 9; j++) print_i64(100 + j); }";
    const INTERCHANGED_MEMBER: &str = "{\n  #pragma omp interchange\n  \
                                       for (int i = 0; i < 3; i++) for (int j = 0; j < 4; j++) \
                                       print_i64(i * 10 + j);\n  \
                                       #pragma omp unroll partial(2)\n  \
                                       for (int k = 0; k < 5; k++) print_i64(100 + k); }";
    const RANGE: &str = "for (long &v : a) print_i64(v += 1000);";
    const POINTER: &str = "for (long *p = a + 9; p >= a; p--) print_i64(*p);";
    const DOWN: &str = "for (int i = 28; i > 0; i -= 3) print_i64(i);";
    let rows: [(&[&str], &str); 40] = [
        (&["for", "unroll partial(2)"], ONE),
        (&["for", "tile sizes(3)"], ONE),
        (&["for", "interchange"], TWO),
        (&["for", "reverse"], ONE),
        (&["for", "fuse"], SEQUENCE),
        (&["simd", "unroll partial(2)"], ONE),
        (&["simd", "tile sizes(3)"], ONE),
        (&["simd", "interchange"], TWO),
        (&["simd", "reverse"], ONE),
        (&["simd", "fuse"], SEQUENCE),
        (&["parallel for", "unroll partial(3)"], ONE),
        (&["taskloop", "reverse"], ONE),
        (&["unroll partial(2)", "unroll partial(3)"], ONE),
        (&["unroll partial(2)", "tile sizes(3)"], ONE),
        (&["reverse", "interchange"], TWO),
        (&["reverse", "reverse"], ONE),
        (&["unroll partial(2)", "fuse"], SEQUENCE),
        (&["unroll full", "tile sizes(4)"], ONE),
        (&["for collapse(2)", "interchange"], TWO),
        (&["tile sizes(2, 2)", "interchange"], TWO),
        (&["simd collapse(2)", "interchange"], TWO),
        (&["interchange", "interchange"], TWO),
        (&["for collapse(2)", "tile sizes(2, 3)"], TWO),
        (&["tile sizes(2, 2)", "tile sizes(2, 3)"], TWO),
        (&["simd collapse(2)", "tile sizes(2, 3)"], TWO),
        (&["interchange", "tile sizes(2, 2)"], TWO),
        (&["for collapse(2)"], INNER_REVERSE),
        (&["tile sizes(2, 2)"], INNER_REVERSE),
        (&["unroll partial(2)"], RANGE),
        (&["for", "reverse"], RANGE),
        (&["tile sizes(3)", "reverse"], RANGE),
        (&["unroll full", "reverse"], RANGE),
        (&["unroll partial(2)", "reverse"], POINTER),
        (&["for", "tile sizes(3)"], POINTER),
        (&["unroll full", "reverse"], DOWN),
        (&["simd", "unroll partial(2)"], DOWN),
        (&["reverse", "tile sizes(4)"], DOWN),
        (&["fuse"], TRANSFORMED_MEMBERS),
        (&["for", "fuse"], TRANSFORMED_MEMBERS),
        (&["fuse"], INTERCHANGED_MEMBER),
    ];
    let mut departures = Vec::new();
    for (stack, nest) in rows {
        let reorders = ["interchange", "reverse", "fuse", "tile sizes(2"];
        let ordered = !stack
            .iter()
            .any(|d| reorders.iter().any(|r| d.starts_with(r)))
            && nest != INNER_REVERSE
            && nest != TRANSFORMED_MEMBERS
            && nest != INTERCHANGED_MEMBER;
        let constant = !nest.contains('*') && !nest.contains(':');
        let refusal = (stack[0] == "unroll full" && !constant).then_some("constant trip count");
        departures.extend(departures_from_serial(
            &matrix_program(&stack.join("\n  #pragma omp "), nest),
            ordered,
            refusal,
        ));
    }
    assert_no_departures(&departures, rows.len() * 4);
}

/// `reverse` consumes the outer loop `interchange` generated, the `j` loop.
#[test]
fn reverse_over_interchange_runs_the_new_outer_loop_backwards() {
    let src = over_5x7("  #pragma omp reverse\n  #pragma omp interchange\n");
    let order = (0..7).rev().flat_map(|j| (0..5).map(move |i| i * 10 + j));
    assert_stack_output(&src, &seq(order));
}

/// `unroll partial(2)` over the loop `fuse` generated from loops of 5 and 8
/// trips: the fused loop runs 8 trips, the first body only in the first 5.
#[test]
fn unroll_over_fuse_of_unequal_trip_counts() {
    let src = format!(
        "{PRINT_PROTO}int main(void) {{\n  #pragma omp unroll partial(2)\n  #pragma omp fuse\n  {{\n    \
         for (int i = 0; i < 5; i += 1)\n      print_i64(i);\n    \
         for (int j = 0; j < 8; j += 1)\n      print_i64(100 + j);\n  }}\n  return 0;\n}}\n"
    );
    let order = (0..8).flat_map(|k| (k < 5).then_some(k).into_iter().chain([100 + k]));
    assert_stack_output(&src, &seq(order));
}

/// `collapse(2)` over `tile sizes(2, 2)` collapses the two floor loops; the
/// weighted sum sees each `(i, j)` exactly once.
#[test]
fn collapse_over_tile_covers_the_space_once() {
    let src = format!(
        "{PRINT_PROTO}int main(void) {{\n  long s = 0;\n  \
         #pragma omp parallel for collapse(2) reduction(+: s)\n  #pragma omp tile sizes(2, 2)\n  \
         for (int i = 0; i < 5; i += 1)\n    for (int j = 0; j < 7; j += 1)\n      \
         s += (i * 7 + j) * (i + 1);\n  print_i64(s);\n  return 0;\n}}\n"
    );
    let sum: i64 = (0..5)
        .flat_map(|i| (0..7).map(move |j| (i * 7 + j) * (i + 1)))
        .sum();
    assert_stack_output(&src, &seq([sum]));
}

/// `taskloop collapse(2)` creates one task per iteration of the collapsed
/// space on both lowering paths, and `simd collapse(2)` keeps the sum.
#[test]
fn taskloop_and_simd_collapse_the_nest() {
    let body = "for (int i = 0; i < 5; i += 1)\n    for (int j = 0; j < 7; j += 1)\n      \
                s += i * 7 + j;\n  print_i64(s);\n  return 0;\n}\n";
    let taskloop = format!(
        "{PRINT_PROTO}int main(void) {{\n  long s = 0;\n  #pragma omp taskloop collapse(2)\n  {body}"
    );
    let simd = format!(
        "{PRINT_PROTO}int main(void) {{\n  long s = 0;\n  \
         #pragma omp simd collapse(2) reduction(+: s)\n  {body}"
    );
    assert_stack_output(&taskloop, "595\n");
    assert_stack_output(&simd, "595\n");
    for codegen_mode in [
        omplt::OpenMpCodegenMode::Classic,
        omplt::OpenMpCodegenMode::IrBuilder,
    ] {
        for optimize in [false, true] {
            let opts = Options {
                codegen_mode,
                ..Options::default()
            };
            let r = run_source_with(&taskloop, opts, optimize);
            assert_eq!(r.tasks_created, 35, "{codegen_mode:?}, {optimize}");
        }
    }
}
