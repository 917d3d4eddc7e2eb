//! Loops nobody marked `simd`, widened on the VM's own proof
//! (`vectorize.rs`): a loop that stores, calls and allocates nothing, and
//! traps nowhere but in its body, runs in lanes at `--vector-width`, however
//! much it reads and however many of its instructions can trap. A fault in
//! a vector chunk resumes at the loop's exit (its fault pad), and the
//! scalar loop replays the chunk.
//!
//! Every program here runs on the interpreter and on `vm:strict` at widths
//! 0, 2, 4 and 8, with and without `--opt`; each VM run must print the same
//! stdout and stderr and exit with the same code as the interpreter. On top
//! of that, `vm.simd.proven_loops` says which loops widened: every loop of
//! the matrix and of the fault rows, none of the refused rows.

use std::path::{Path, PathBuf};
use std::process::Command;

/// What one `ompltc` run showed, plus its `vm.simd.proven_loops`.
#[derive(Debug, PartialEq)]
struct Run {
    stdout: String,
    stderr: String,
    code: Option<i32>,
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("omplt-proven-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Runs `ompltc flags… src`; returns the run and the counter `counter`
/// (`None` when the run did not count it).
fn ompltc(flags: &[&str], src: &Path, counter: &str) -> (Run, Option<u64>) {
    let json = src.with_extension("counters.json");
    let _ = std::fs::remove_file(&json);
    let out = Command::new(env!("CARGO_BIN_EXE_ompltc"))
        .args(flags)
        .arg(format!("--counters-json={}", json.display()))
        .arg(src)
        .output()
        .expect("ompltc runs");
    let counters = std::fs::read_to_string(&json).unwrap_or_default();
    let key = format!("\"{counter}\":");
    let value = counters.find(&key).and_then(|at| {
        let rest = &counters[at + key.len()..];
        rest[..rest.find(|c: char| !c.is_ascii_digit())?]
            .parse()
            .ok()
    });
    let run = Run {
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        code: out.status.code(),
    };
    (run, value)
}

/// `opt`, then `extra`, then a serial run.
fn serial_run<'a>(opt: &[&'a str], extra: &[&'a str]) -> Vec<&'a str> {
    [opt, extra, &["--serial", "--run"]].concat()
}

/// Runs `source` everywhere and holds every VM run to the interpreter's;
/// returns the interpreter's run and `vm.simd.proven_loops` at width 4,
/// which must be the same with and without `--opt` and at widths 2 and 8.
fn agrees(name: &str, source: &str) -> (Run, u64) {
    let (run, [plain, opt]) = agrees_per_opt(name, source);
    assert_eq!(plain, opt, "{name}: with and without --opt");
    (run, plain)
}

/// [`agrees`], with `vm.simd.proven_loops` without and with `--opt`, each
/// the same at widths 2, 4 and 8.
fn agrees_per_opt(name: &str, source: &str) -> (Run, [u64; 2]) {
    let src = scratch(&format!("{name}.c"));
    std::fs::write(&src, source).unwrap();
    let mut proven = [0; 2];
    let mut oracle_run = None;
    for (k, opt) in [&[][..], &["--opt"][..]].into_iter().enumerate() {
        let (oracle, _) = ompltc(&serial_run(opt, &["--backend=interp"]), &src, "");
        let mut loops_at = Vec::new();
        for width in ["0", "2", "4", "8"] {
            let w = format!("--vector-width={width}");
            let (vm, loops) = ompltc(
                &serial_run(opt, &["--backend=vm:strict", &w]),
                &src,
                "vm.simd.proven_loops",
            );
            assert_eq!(vm, oracle, "{name} {opt:?} width {width}");
            if width != "0" {
                loops_at.push(loops.expect("the widener ran"));
            }
        }
        assert!(
            loops_at.windows(2).all(|p| p[0] == p[1]),
            "{name} {opt:?}: {loops_at:?}"
        );
        proven[k] = loops_at[0];
        oracle_run.get_or_insert(oracle);
    }
    (oracle_run.unwrap(), proven)
}

/// A C literal for `v`, parenthesised when negative.
fn lit(v: i128) -> String {
    match v {
        v if v == i128::from(i64::MIN) => "(-9223372036854775807 - 1)".to_string(),
        v if v < 0 => format!("({v})"),
        v => v.to_string(),
    }
}

/// IV types × `<`/`<=` (`slt`, `sle`, `ult`, `ule` at `i32` and `i64`) ×
/// bounds at the type's edges × trip counts 0 to 17 (2w + 1 at width 8),
/// through four reduction shapes: an `add`, a `mul`, a chain of `+`/`-`
/// links whose first link reads the running value on its right, and a last
/// value.
#[test]
fn every_counted_shape_at_every_edge_agrees_and_widens() {
    let types: [(&str, i128, i128); 4] = [
        ("int", i128::from(i32::MIN), i128::from(i32::MAX)),
        ("long", i128::from(i64::MIN), i128::from(i64::MAX)),
        ("unsigned", 0, i128::from(u32::MAX)),
        ("unsigned long", 0, i128::from(u64::MAX)),
    ];
    for (ty, min, max) in types {
        for op in ["<", "<="] {
            let inclusive = op == "<=";
            // `(lo, hi)` of `t` trips: from the bottom of the type (just
            // above it for `<=`, whose `hi` would wrap below `lo` at t = 0),
            // across zero or across the sign bit, and up to the top (one
            // below it for `<=`, which would never exit).
            let middle = if min == 0 { max / 2 - 3 } else { -3 };
            let edges = |t: i128| {
                let span = |lo: i128| (lo, if inclusive { lo + t - 1 } else { lo + t });
                let top = if inclusive { max - 1 } else { max };
                [
                    span(min + i128::from(inclusive)),
                    span(middle),
                    (top - t + i128::from(inclusive), top),
                ]
            };
            let mut source = format!(
                "void print_i64(long v);\n\
                 long add({ty} lo, {ty} hi) {{\n  long s = 5;\n  \
                 for ({ty} i = lo; i {op} hi; i++)\n    s += (long)(i % 7);\n  return s;\n}}\n\
                 long mul({ty} lo, {ty} hi) {{\n  long p = 1;\n  \
                 for ({ty} i = lo; i {op} hi; i++)\n    p = p * (long)((i & 3) + 1);\n  return p;\n}}\n\
                 long chain({ty} lo, {ty} hi) {{\n  long c = 0;\n  \
                 for ({ty} i = lo; i {op} hi; i++)\n    c = (long)(i % 5) + c - (long)(i & 6) + 3;\n  \
                 return c;\n}}\n\
                 long last({ty} lo, {ty} hi) {{\n  long v = -1;\n  \
                 for ({ty} i = lo; i {op} hi; i++)\n    v = (long)i * 3 + 1;\n  return v;\n}}\n\
                 void row({ty} lo, {ty} hi) {{\n  print_i64(add(lo, hi));\n  \
                 print_i64(mul(lo, hi));\n  print_i64(chain(lo, hi));\n  \
                 print_i64(last(lo, hi));\n}}\n\
                 int main(void) {{\n"
            );
            for t in 0..18 {
                for (lo, hi) in edges(t) {
                    source += &format!("  row({}, {});\n", lit(lo), lit(hi));
                }
            }
            source += "  return 0;\n}\n";
            let name = format!(
                "{}_{}",
                ty.replace(' ', "_"),
                if inclusive { "le" } else { "lt" }
            );
            let (oracle, proven) = agrees(&name, &source);
            assert_eq!(oracle.code, Some(0), "{name}: {}", oracle.stderr);
            assert_eq!(oracle.stdout.lines().count(), 18 * 3 * 4, "{name}");
            assert_eq!(proven, 4, "{name}: every kernel widens");
        }
    }
}

/// One trapping instruction, `100 / (i - k)`, whose divisor is zero at
/// iteration `k`: at each lane position of the first and second chunk the
/// widened loop fails where the scalar one does, after the same output.
#[test]
fn a_division_by_zero_at_any_lane_faults_like_the_scalar_loop() {
    for k in 0..10 {
        let source = format!(
            "void print_i64(long v);\n\
             long q(int n, int k) {{\n  long s = 0;\n  \
             for (int i = 0; i < n; i++)\n    s += 100 / (i - k);\n  return s;\n}}\n\
             int main(void) {{\n  print_i64(q(10, 20));\n  print_i64(q(19, {k}));\n  \
             return 0;\n}}\n"
        );
        let (oracle, proven) = agrees(&format!("div_{k}"), &source);
        assert_eq!(oracle.code, Some(1), "k={k}");
        assert_eq!(
            oracle.stdout, "-63\n",
            "k={k}: what printed before the fault"
        );
        assert!(
            oracle.stderr.contains("runtime error: division by zero"),
            "k={k}: {}",
            oracle.stderr
        );
        assert_eq!(proven, 1, "k={k}");
    }
}

/// A loop that only reads memory widens on proof (a `simd` loop that runs
/// off its array is `backend_differential`'s case): one that leaves its
/// array at each lane position fails as the interpreter does.
#[test]
fn a_load_leaving_its_array_widens_and_faults_alike() {
    for start in 0..8 {
        let source = format!(
            "void print_i64(long v);\nlong a[8];\n\
             long r(int lo, int hi) {{\n  long s = 0;\n  \
             for (int i = lo; i < hi; i++)\n    s += a[i];\n  return s;\n}}\n\
             int main(void) {{\n  print_i64(r(0, 8));\n  print_i64(r({start}, 13));\n  \
             return 0;\n}}\n"
        );
        let (oracle, proven) = agrees(&format!("load_{start}"), &source);
        assert_eq!((oracle.code, oracle.stdout.as_str()), (Some(1), "0\n"));
        assert!(
            oracle
                .stderr
                .contains("out-of-bounds access: offset 64+8 in region of 64 bytes"),
            "{}",
            oracle.stderr
        );
        assert_eq!(proven, 1, "start={start}");
    }
}

/// Loops that only read widen whatever they read and however many of their
/// instructions can trap: one load, two loads, and two divisions.
#[test]
fn read_only_loops_widen_on_proof() {
    let source = "void print_i64(long v);\nlong a[32];\nlong b[32];\n\
         long one_load(int n) {\n  long s = 0;\n  for (int i = 0; i < n; i++)\n    s += a[i];\n  return s;\n}\n\
         long two_loads(int n) {\n  long s = 0;\n  for (int i = 0; i < n; i++)\n    s += a[i] * b[i];\n  return s;\n}\n\
         long two_traps(int n, int d) {\n  long s = 0;\n  for (int i = 0; i < n; i++)\n    s += i / d + i % (d + 1);\n  return s;\n}\n\
         int main(void) {\n  for (int i = 0; i < 32; i++) {\n    a[i] = i * 3 - 7;\n    b[i] = 5 - i;\n  }\n  \
         print_i64(one_load(32));\n  print_i64(one_load(5));\n  print_i64(two_loads(32));\n  \
         print_i64(two_loads(9));\n  print_i64(two_traps(21, 3));\n  return 0;\n}\n";
    let (oracle, proven) = agrees("read_only", source);
    assert_eq!(oracle.code, Some(0), "{}", oracle.stderr);
    assert_eq!(oracle.stdout, "1264\n-5\n-21456\n-135\n93\n");
    assert_eq!(proven, 3);
}

/// A 2-D read whose row is computed in the inner loop from values outside
/// it — without `--opt` no LICM hoists the row's `gep`, its index's cast or
/// its offset — widens all the same: the collapse probe's checksum nest,
/// and a row `k` ahead, whose last chunk leaves the array at `k = 1` and
/// faults where the scalar loop does.
#[test]
fn rows_computed_in_the_loop_from_outside_values_widen() {
    let source = "void print_i64(long v);\nlong a[8][9];\n\
         long checksum(void) {\n  long s = 0;\n  for (int i = 0; i < 8; i += 1)\n    \
         for (int j = 0; j < 9; j += 1)\n      s += a[i][j] * (i * 9 + j + 1);\n  return s;\n}\n\
         long ahead(int k) {\n  long s = 0;\n  for (int i = 0; i < 8; i += 1)\n    \
         for (int j = 0; j < 9; j += 1)\n      s += a[i + k][j] - j;\n  return s;\n}\n\
         int main(void) {\n  for (int i = 0; i < 8; i += 1)\n    for (int j = 0; j < 9; j += 1)\n      \
         a[i][j] = i * 5 - j;\n  print_i64(checksum());\n  print_i64(ahead(0));\n  \
         print_i64(ahead(1));\n  return 0;\n}\n";
    let (oracle, proven) = agrees_per_opt("rows", source);
    assert_eq!(oracle.code, Some(1), "{}", oracle.stderr);
    assert_eq!(oracle.stdout, "52008\n684\n");
    assert_eq!(proven, [2, 2]);
}

/// What the proof refuses: a store, a call, a float reduction and
/// `e - phi`. Each loop stays scalar and every run agrees.
#[test]
fn loops_outside_the_proof_stay_scalar() {
    let source = "void print_i64(long v);\nlong a[32];\n\
         long stores(int n) {\n  for (int i = 0; i < n; i++)\n    a[i] = i * 3;\n  return a[n - 1];\n}\n\
         long calls(int n) {\n  for (int i = 0; i < n; i++)\n    print_i64(i);\n  return 0;\n}\n\
         long floats(int n) {\n  double f = 0.5;\n  for (int i = 0; i < n; i++)\n    f = f + i * 0.25;\n  return (long)(f * 4.0);\n}\n\
         long flips(int n) {\n  long s = 1;\n  for (int i = 0; i < n; i++)\n    s = i - s;\n  return s;\n}\n\
         int main(void) {\n  print_i64(stores(32));\n  print_i64(calls(3));\n  \
         print_i64(floats(21));\n  print_i64(flips(21));\n  return 0;\n}\n";
    let (oracle, proven) = agrees("refused", source);
    assert_eq!(oracle.code, Some(0), "{}", oracle.stderr);
    assert_eq!(oracle.stdout, "93\n0\n1\n2\n0\n212\n9\n");
    assert_eq!(proven, 0);
}

/// Two instructions of one read-only loop fault at different iterations —
/// the one that comes first in the body at iteration `k + 1`, the other at
/// `k` — so within a vector chunk the earlier op faults at a later lane.
/// The widened loop must fail where the scalar one does, with its message:
/// the exit folds the chunks before the fault, and the scalar loop replays
/// the faulting one. Each pair runs with `k` from 0 to 9.
#[test]
fn different_instructions_faulting_at_different_lanes_fault_like_the_scalar_loop() {
    // (name, the loop's term, what the scalar loop reports at iteration k)
    let pairs = [
        (
            "two_gathers",
            "b[2 * i + 22 - 2 * k] + a[2 * i + 40 - 2 * k]",
            "offset 320+8 in region of 320 bytes",
        ),
        (
            "gather_then_load",
            "b[2 * i + 22 - 2 * k] + a[i + 40 - k]",
            "offset 320+8 in region of 320 bytes",
        ),
        (
            "load_then_gather",
            "a[i + 39 - k] + b[2 * i + 24 - 2 * k]",
            "offset 192+8 in region of 192 bytes",
        ),
        (
            "load_then_division",
            "a[i + 39 - k] + 100 / (i - k)",
            "division by zero",
        ),
        (
            "division_then_remainder",
            "100 / (i - k - 1) + 7 % (k - i)",
            "division by zero",
        ),
    ];
    for (name, term, fault) in pairs {
        for k in 0..10 {
            let source = format!(
                "void print_i64(long v);\nlong a[40];\nlong b[24];\n\
                 long f(int n, int k) {{\n  long s = 0;\n  \
                 for (int i = 0; i < n; i++)\n    s += {term};\n  return s;\n}}\n\
                 int main(void) {{\n  for (int i = 0; i < 24; i++)\n    b[i] = i;\n  \
                 print_i64(f({k}, {k}));\n  print_i64(f(19, {k}));\n  return 0;\n}}\n"
            );
            let (oracle, proven) = agrees(&format!("{name}_{k}"), &source);
            assert_eq!(oracle.code, Some(1), "{name} k={k}");
            assert_eq!(oracle.stdout.lines().count(), 1, "{name} k={k}");
            assert!(
                oracle.stderr.contains(fault),
                "{name} k={k}: {}",
                oracle.stderr
            );
            assert_eq!(proven, 1, "{name} k={k}");
        }
    }
}

/// The benchmark's `dense_serial`, `tri_dynamic` and `unroll_partial`
/// shapes, small: their loops widen on proof, and the retired ops are
/// pinned. Scalar, `dense`'s loop retires 8 ops an iteration, `tri`'s inner
/// loop 5 and `unroll`'s four-copy body 26; at width 4 a chunk of four
/// iterations (four unrolled bodies for `unroll`) retires 8, 4 and 26: its
/// latch is one op, and `tri`'s `+ 3` is added once at the loop's exit.
#[test]
fn the_benchmark_s_serial_kernels_widen_to_their_pinned_op_counts() {
    let dense = "void print_i64(long v);\nint main(void) {\n  long sum = 0;\n  \
         for (int i = 0; i < 3301; i += 1)\n    \
         sum = sum + (i % 7) * (i % 13) - (i % 3);\n  print_i64(sum);\n  return 0;\n}\n";
    let tri = "void print_i64(long v);\nint main(void) {\n  long sum = 0;\n  \
         #pragma omp parallel for reduction(+: sum) schedule(dynamic, 16)\n  \
         for (int i = 0; i < 84; i += 1)\n    for (int j = 0; j < i; j += 1)\n      \
         sum = sum + (j % 7) + 3;\n  print_i64(sum);\n  return 0;\n}\n";
    let unroll = "void print_i64(long v);\nint t[64];\nint main(void) {\n  \
         for (int i = 0; i < 64; i += 1)\n    t[i] = (i * 23) % 41;\n  long s = 0;\n  \
         #pragma omp unroll partial(4)\n  for (int i = 0; i < 2803; i += 1)\n    \
         s = s + t[i % 64] * (i % 5);\n  print_i64(s);\n  return 0;\n}\n";
    let cases = [
        ("dense_serial", dense, "56093\n", [26_420, 6_628]),
        ("tri_dynamic", tri, "20580\n", [18_088, 5_401]),
        ("unroll_partial", unroll, "110778\n", [18_568, 4_937]),
    ];
    for (name, source, printed, ops) in cases {
        let src = scratch(&format!("{name}.c"));
        std::fs::write(&src, source).unwrap();
        for (width, want) in ["0", "4"].into_iter().zip(ops) {
            let w = format!("--vector-width={width}");
            let flags = ["--opt", "--backend=vm:strict", &w, "--threads=1", "--run"];
            let (run, retired) = ompltc(&flags, &src, "vm.ops.retired");
            assert_eq!(run.stdout, printed, "{name} width {width}: {}", run.stderr);
            assert_eq!(retired, Some(want), "{name} width {width}");
        }
        // Under `--opt` the unroller leaves a remainder loop, which widens
        // too.
        let want = if name == "unroll_partial" {
            [1, 2]
        } else {
            [1, 1]
        };
        assert_eq!(agrees_per_opt(name, source).1, want, "{name}");
    }
}

/// The rotated vector loop — its entry test runs once, each chunk ends in
/// one fused latch — and the reduction links it folds at its exit instead
/// of in every chunk: a link whose value is defined outside the loop adds
/// `± e × (iv − start)` there. IV types × `<`/`<=` × trip counts 0 to 17
/// (2w + 1 at width 8) from 0, from a non-zero start and up to the type's
/// top (where a `<` loop's last step must not wrap), through `+ c` with `c`
/// of 3, −5 and `LONG_MAX`, a `- c` link alone, a constant link next to a
/// varying one, an `int` reduction whose invariant link reads the running
/// value on its right, and a `*` reduction, which keeps its lanes.
#[test]
fn the_rotated_loop_folds_invariant_links_at_every_trip_count() {
    let types: [(&str, i128, i128); 4] = [
        ("int", i128::from(i32::MIN), i128::from(i32::MAX)),
        ("long", i128::from(i64::MIN), i128::from(i64::MAX)),
        ("unsigned", 0, i128::from(u32::MAX)),
        ("unsigned long", 0, i128::from(u64::MAX)),
    ];
    for (ty, min, max) in types {
        for op in ["<", "<="] {
            let inclusive = op == "<=";
            let nonzero = if min == 0 { 7 } else { -3 };
            let top = if inclusive { max - 1 } else { max };
            let mut source = format!(
                "void print_i64(long v);\n\
                 long plus({ty} lo, {ty} hi, long c) {{\n  long s = 5;\n  \
                 for ({ty} i = lo; i {op} hi; i++)\n    s = s + (long)(i % 7) + c;\n  return s;\n}}\n\
                 long minus({ty} lo, {ty} hi, long c) {{\n  long s = 1;\n  \
                 for ({ty} i = lo; i {op} hi; i++)\n    s = s - c;\n  return s;\n}}\n\
                 long three({ty} lo, {ty} hi) {{\n  long s = 0;\n  \
                 for ({ty} i = lo; i {op} hi; i++)\n    s = s + 3 - (long)(i & 5);\n  return s;\n}}\n\
                 long narrow({ty} lo, {ty} hi, int c) {{\n  int s = 0;\n  \
                 for ({ty} i = lo; i {op} hi; i++)\n    s = c + s + (int)(i % 3);\n  return s;\n}}\n\
                 long prod({ty} lo, {ty} hi, long c) {{\n  long p = 1;\n  \
                 for ({ty} i = lo; i {op} hi; i++)\n    p = p * c;\n  return p;\n}}\n\
                 void row({ty} lo, {ty} hi) {{\n  print_i64(plus(lo, hi, 3));\n  \
                 print_i64(plus(lo, hi, -5));\n  print_i64(plus(lo, hi, 9223372036854775807));\n  \
                 print_i64(minus(lo, hi, -5));\n  print_i64(three(lo, hi));\n  \
                 print_i64(narrow(lo, hi, 2147483647));\n  print_i64(prod(lo, hi, -5));\n}}\n\
                 int main(void) {{\n"
            );
            let mut rows = 0;
            for t in 0..18 {
                let span = |lo: i128| (lo, if inclusive { lo + t - 1 } else { lo + t });
                // From 0, `<=` needs a bound below it for no trips, which an
                // unsigned type does not have.
                let from_zero = (min < 0 || !inclusive || t > 0).then(|| span(0));
                let spans = from_zero
                    .into_iter()
                    .chain([span(nonzero), (top - t + i128::from(inclusive), top)]);
                for (lo, hi) in spans {
                    source += &format!("  row({}, {});\n", lit(lo), lit(hi));
                    rows += 1;
                }
            }
            source += "  return 0;\n}\n";
            let name = format!(
                "rotated_{}_{}",
                ty.replace(' ', "_"),
                if inclusive { "le" } else { "lt" }
            );
            let (oracle, proven) = agrees(&name, &source);
            assert_eq!(oracle.code, Some(0), "{name}: {}", oracle.stderr);
            assert_eq!(oracle.stdout.lines().count(), rows * 7, "{name}");
            assert_eq!(proven, 5, "{name}: every kernel widens");
        }
    }
}

/// Invariant links from a constant start: `i = 5` in a signed loop, and
/// `i = 3000000000u`, whose count the exit widens to the `long` reduction
/// without its sign.
#[test]
fn invariant_links_fold_from_a_constant_start() {
    let mut source = "void print_i64(long v);\n\
         long from5(int n, long c) {\n  long s = 0;\n  \
         for (int i = 5; i < n; i++)\n    s = s + c - (long)(i % 4);\n  return s;\n}\n\
         long high(unsigned n) {\n  long s = 0;\n  \
         for (unsigned i = 3000000000u; i < n; i++)\n    s = s + 11 + (long)(i & 1);\n  return s;\n}\n\
         int main(void) {\n"
        .to_string();
    for t in 0..24 {
        source += &format!(
            "  print_i64(from5({t}, -7));\n  print_i64(high({}u));\n",
            3_000_000_000u32 - 3 + t
        );
    }
    source += "  return 0;\n}\n";
    let (oracle, proven) = agrees("constant_start", &source);
    assert_eq!(oracle.code, Some(0), "{}", oracle.stderr);
    assert_eq!(oracle.stdout.lines().count(), 48);
    assert_eq!(proven, 2);
}

/// A gather that leaves its array in a later chunk of a loop with
/// invariant links (`+ 7` and `- c`): the chunk's pad resumes at the exit,
/// which folds the links for the chunks that completed, and the scalar
/// loop replays the faulting one, so the program fails where the scalar
/// one does, with its message, after the same output.
#[test]
fn a_gather_faulting_in_a_later_chunk_of_a_loop_with_invariant_links_faults_alike() {
    for k in 0..10 {
        let source = format!(
            "void print_i64(long v);\nlong a[40];\n\
             long g(int n, int k, long c) {{\n  long s = 0;\n  \
             for (int i = 0; i < n; i++)\n    s = s + a[2 * i + 40 - 2 * k] + 7 - c;\n  return s;\n}}\n\
             int main(void) {{\n  for (int i = 0; i < 40; i++)\n    a[i] = i * 3 - 11;\n  \
             print_i64(g({k}, {k}, 2));\n  print_i64(g(19, {k}, 2));\n  return 0;\n}}\n"
        );
        let (oracle, proven) = agrees(&format!("gather_links_{k}"), &source);
        assert_eq!(oracle.code, Some(1), "k={k}");
        assert_eq!(oracle.stdout.lines().count(), 1, "k={k}");
        assert!(
            oracle
                .stderr
                .contains("out-of-bounds access: offset 320+8 in region of 320 bytes"),
            "k={k}: {}",
            oracle.stderr
        );
        assert_eq!(proven, 1, "k={k}");
    }
}

/// A widened loop's exit counts the iterations it leaves its scalar loop
/// (`vm.simd.epilogue_iters`, which the exit computes from the IV and the
/// bound only while counters are on): the trip count modulo the width, for
/// a signed `<` and an unsigned `<=`, whether the bound is a constant or a
/// parameter. A constant bound below `w - 1` leaves no room for a chunk:
/// that loop stays scalar, and nothing is counted.
#[test]
fn the_exit_counts_the_iterations_it_leaves_the_scalar_loop() {
    for (ty, op) in [("int", "<"), ("unsigned long", "<=")] {
        let inclusive = op == "<=";
        for n in [0u64, 1, 2, 3, 4, 5, 6, 9] {
            let trip = n + u64::from(inclusive);
            let body = |bound: &str| {
                format!(
                    "  long s = 0;\n  for ({ty} i = 0; i {op} {bound}; i += 1)\n    \
                     s = s + (long)(i % 5);\n"
                )
            };
            let parameter = format!(
                "void print_i64(long v);\nlong f({ty} n) {{\n{}  return s;\n}}\n\
                 int main(void) {{\n  print_i64(f({n}));\n  return 0;\n}}\n",
                body("n")
            );
            let constant = format!(
                "void print_i64(long v);\nint main(void) {{\n{}  print_i64(s);\n  \
                 return 0;\n}}\n",
                body(&n.to_string())
            );
            for (kind, source) in [("parameter", parameter), ("constant", constant)] {
                let name = format!("epilogue_{kind}_{}_{n}", u8::from(inclusive));
                let src = scratch(&format!("{name}.c"));
                std::fs::write(&src, source).unwrap();
                let run = |w: &str, counter| {
                    let w = format!("--vector-width={w}");
                    let flags = ["--opt", "--backend=vm:strict", &w, "--serial", "--run"];
                    ompltc(&flags, &src, counter)
                };
                let (scalar, _) = run("0", "");
                let (widened, loops) = run("4", "vm.simd.proven_loops");
                assert_eq!(widened, scalar, "{name}");
                let chunked = kind == "parameter" || n >= 3;
                assert_eq!(loops, Some(u64::from(chunked)), "{name}: widened");
                let (_, left) = run("4", "vm.simd.epilogue_iters");
                let want = if chunked { trip % 4 } else { 0 };
                assert_eq!(left.unwrap_or(0), want, "{name}: iterations left");
            }
        }
    }
}
