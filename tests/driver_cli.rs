//! End-to-end tests of the `ompltc` driver binary (the clang-like CLI).

use std::io::Write;
use std::process::Command;

fn ompltc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ompltc"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("omplt-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

const DEMO: &str = "void print_i64(long v);\nint main(void) {\n  #pragma omp unroll partial(2)\n  for (int i = 0; i < 5; i += 1)\n    print_i64(i);\n  return 0;\n}\n";

#[test]
fn ast_dump_shows_directive() {
    let p = write_temp("dump.c", DEMO);
    let out = ompltc()
        .arg("--ast-dump")
        .arg("--syntax-only")
        .arg(&p)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("OMPUnrollDirective"), "{text}");
    assert!(text.contains("OMPPartialClause"), "{text}");
    assert!(
        !text.contains("TransformedStmt"),
        "shadow AST hidden by default"
    );
}

#[test]
fn ast_dump_transformed_reveals_shadow_ast() {
    let p = write_temp("dump2.c", DEMO);
    let out = ompltc()
        .arg("--ast-dump-transformed")
        .arg("--syntax-only")
        .arg(&p)
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("TransformedStmt"), "{text}");
    assert!(text.contains(".unrolled.iv.i"), "{text}");
}

#[test]
fn run_executes_the_program() {
    let p = write_temp("run.c", DEMO);
    let out = ompltc().arg("--run").arg(&p).output().unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), "0\n1\n2\n3\n4\n");
}

#[test]
fn irbuilder_flag_switches_representation() {
    let p = write_temp("irb.c", DEMO);
    let classic = ompltc().arg("--emit-ir").arg(&p).output().unwrap();
    let irb = ompltc()
        .arg("--enable-irbuilder")
        .arg("--emit-ir")
        .arg(&p)
        .output()
        .unwrap();
    let c = String::from_utf8_lossy(&classic.stdout).to_string();
    let i = String::from_utf8_lossy(&irb.stdout).to_string();
    assert!(
        c.contains("omp_hint"),
        "classic lowers via hint-metadata loop:\n{c}"
    );
    assert!(
        i.contains("omp_canonical"),
        "irbuilder lowers via createCanonicalLoop:\n{i}"
    );
    // Both still run identically.
    let r1 = ompltc().arg("--run").arg(&p).output().unwrap();
    let r2 = ompltc()
        .arg("--enable-irbuilder")
        .arg("--run")
        .arg(&p)
        .output()
        .unwrap();
    assert_eq!(r1.stdout, r2.stdout);
}

#[test]
fn opt_flag_unrolls() {
    let p = write_temp("opt.c", DEMO);
    let out = ompltc()
        .arg("--opt")
        .arg("--emit-ir")
        .arg(&p)
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    // 5 iterations, factor 2 → main loop with 2 calls + remainder with 1
    assert!(text.matches("call void @print_i64").count() >= 3, "{text}");
    let run = ompltc().arg("--opt").arg("--run").arg(&p).output().unwrap();
    assert_eq!(String::from_utf8_lossy(&run.stdout), "0\n1\n2\n3\n4\n");
}

/// `--emit-ir` shows what an initialized global holds, as `--run` reads
/// it; a global with no initializer stays `zeroinitializer`.
#[test]
fn emit_ir_prints_a_globals_initial_value() {
    let p = write_temp(
        "globals.c",
        "void print_f64(double v);\nvoid print_i64(long v);\ndouble d = -1.25;\nlong k = 7;\nint z;\n\
         int main(void) {\n  print_f64(d);\n  print_i64(k);\n  return z;\n}\n",
    );
    let out = ompltc().arg("--emit-ir").arg(&p).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let globals: Vec<&str> = text.lines().take_while(|l| !l.is_empty()).collect();
    assert_eq!(
        globals,
        [
            "@d = global [8 x i8] double -1.25e0",
            "@k = global [8 x i8] i64 7",
            "@z = global [4 x i8] zeroinitializer",
        ],
        "{text}"
    );
    let run = ompltc().arg("--run").arg(&p).output().unwrap();
    assert_eq!(String::from_utf8_lossy(&run.stdout), "-1.25\n7\n");
}

/// `~` folds wherever a constant is required: an array bound and a clause
/// argument.
#[test]
fn bitwise_not_is_a_constant_expression() {
    let p = write_temp(
        "bitnot.c",
        "void print_i64(long v);\nlong a[~-5];\nint main(void) {\n  long s = 0;\n  \
         #pragma omp parallel for collapse(~-3) reduction(+: s)\n  \
         for (int i = 0; i < 3; i++)\n    for (int j = 0; j < 4; j++)\n      s += i * 4 + j;\n  \
         print_i64(s);\n  print_i64(sizeof(a));\n  return 0;\n}\n",
    );
    let out = ompltc().arg("--run").arg(&p).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout), "66\n32\n");
}

#[test]
fn exit_code_is_propagated() {
    let p = write_temp("exit.c", "int main(void) { return 3; }\n");
    let out = ompltc().arg("--run").arg(&p).output().unwrap();
    assert_eq!(out.status.code(), Some(3));
}

#[test]
fn diagnostics_printed_with_carets() {
    let p = write_temp(
        "bad.c",
        "void f(int n) {\n  #pragma omp for\n  for (int i = 0; i < n; i *= 2)\n    ;\n}\n",
    );
    let out = ompltc().arg("--syntax-only").arg(&p).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("increment clause of OpenMP for loop"), "{err}");
    assert!(err.contains('^'), "{err}");
}

#[test]
fn threads_flag_sets_team_size() {
    let p = write_temp(
        "team.c",
        "void print_i64(long v);\nint omp_get_num_threads(void);\nlong team;\nint main(void) {\n  #pragma omp parallel\n  {\n    team = omp_get_num_threads();\n  }\n  print_i64(team);\n  return 0;\n}\n",
    );
    let out = ompltc()
        .arg("--run")
        .arg("--threads")
        .arg("6")
        .arg(&p)
        .output()
        .unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout), "6\n");
}

#[test]
fn no_openmp_ignores_pragmas() {
    let p = write_temp("noomp.c", DEMO);
    let out = ompltc()
        .arg("--no-openmp")
        .arg("--ast-dump")
        .arg("--syntax-only")
        .arg(&p)
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(!text.contains("OMPUnrollDirective"), "{text}");
    let run = ompltc()
        .arg("--no-openmp")
        .arg("--run")
        .arg(&p)
        .output()
        .unwrap();
    assert_eq!(String::from_utf8_lossy(&run.stdout), "0\n1\n2\n3\n4\n");
}

#[test]
fn unknown_option_is_rejected() {
    let out = ompltc().arg("--frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "ompltc: unknown option '--frobnicate'\n"
    );
    let out = ompltc()
        .args(["--frobnicate", "--diag-format=json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "[{\"level\":\"error\",\"message\":\"unknown option '--frobnicate'\",\
         \"file\":null,\"notes\":[]}]\n"
    );
}

const RACY: &str = "int main(void) {\n  int sum = 0;\n  int a[8];\n  #pragma omp parallel for\n  for (int i = 0; i < 8; i += 1)\n    sum += a[i];\n  return sum;\n}\n";

const CLEAN: &str = "int main(void) {\n  int a[16];\n  int b[16];\n  #pragma omp parallel for\n  for (int i = 1; i < 15; i += 1)\n    b[i] = a[i - 1] + a[i + 1];\n  return 0;\n}\n";

#[test]
fn analyze_reports_race_with_nonzero_exit() {
    let p = write_temp("analyze_racy.c", RACY);
    let out = ompltc().arg("--analyze").arg(&p).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("[-Wrace]"), "{err}");
    assert!(err.contains("shared variable 'sum'"), "{err}");
    assert!(err.contains("note:"), "{err}");
}

#[test]
fn analyze_accepts_clean_program() {
    let p = write_temp("analyze_clean.c", CLEAN);
    let out = ompltc().arg("--analyze").arg(&p).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stderr.is_empty());
}

#[test]
fn analyze_rejects_imperfect_tile_nest() {
    let p = write_temp(
        "analyze_tile.c",
        "int main(void) {\n  int a[64];\n  #pragma omp tile sizes(4, 4)\n  for (int i = 0; i < 8; i += 1) {\n    int t = i * 8;\n    for (int j = 0; j < 8; j += 1)\n      a[t + j] = t;\n  }\n  return 0;\n}\n",
    );
    let out = ompltc().arg("--analyze").arg(&p).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"), "{err}");
    assert!(err.contains("perfectly nested"), "{err}");
}

#[test]
fn diag_format_json_renders_machine_readable() {
    let p = write_temp("analyze_json.c", RACY);
    let out = ompltc()
        .arg("--analyze")
        .arg("--diag-format=json")
        .arg(&p)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with('['), "{err}");
    assert!(err.contains("\"level\":\"warning\""), "{err}");
    assert!(err.contains("\"line\":6"), "{err}");
    assert!(err.contains("\"notes\":["), "{err}");
}

#[test]
fn bad_threads_value_is_a_usage_error() {
    let p = write_temp("threads_bad.c", CLEAN);
    let out = ompltc()
        .arg("--threads")
        .arg("bogus")
        .arg(&p)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--threads"), "{err}");
    // Missing value is also a usage error, not a panic.
    let out = ompltc().arg(&p).arg("--threads").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "ompltc: '--threads' requires a value\n"
    );
    // Both honor `--diag-format=json`, like every other usage error.
    for (args, message) in [
        (
            &["--threads", "bogus"][..],
            "invalid value 'bogus' for '--threads': expected a positive integer",
        ),
        (&["--threads"][..], "'--threads' requires a value"),
    ] {
        let out = ompltc()
            .arg("--diag-format=json")
            .arg(&p)
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!(
                "[{{\"level\":\"error\",\"message\":\"{message}\",\"file\":null,\"notes\":[]}}]\n"
            ),
            "{args:?}"
        );
    }
}

const TRIANGULAR: &str = "void print_i64(long v);\nint main(void) {\n  #pragma omp parallel num_threads(4)\n  {\n    #pragma omp for schedule(dynamic, 2)\n    for (int i = 0; i < 24; i += 1)\n      for (int j = 0; j <= i; j += 1)\n        print_i64(i * 100 + j);\n  }\n  return 0;\n}\n";

#[test]
fn dynamic_schedule_triangular_matches_sequential_multiset() {
    // The ISSUE's acceptance case: `--run --threads 4` on a
    // `schedule(dynamic, 2)` triangular loop prints exactly the sequential
    // multiset in both representations, with and without `--opt`.
    let p = write_temp("tri_dyn.c", TRIANGULAR);
    let mut want: Vec<i64> = (0..24i64)
        .flat_map(|i| (0..=i).map(move |j| i * 100 + j))
        .collect();
    want.sort_unstable();
    for args in [
        &["--run", "--threads", "4"][..],
        &["--run", "--threads", "4", "--opt"][..],
        &["--run", "--threads", "4", "--enable-irbuilder"][..],
        &["--run", "--threads", "4", "--enable-irbuilder", "--opt"][..],
    ] {
        let out = ompltc().args(args).arg(&p).output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let mut got: Vec<i64> = String::from_utf8_lossy(&out.stdout)
            .lines()
            .map(|l| l.parse().unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, want, "args {args:?}");
    }
}

#[test]
fn dispatch_loops_emit_the_kmpc_dispatch_protocol() {
    let p = write_temp("tri_ir.c", TRIANGULAR);
    for args in [&["--emit-ir"][..], &["--emit-ir", "--enable-irbuilder"][..]] {
        let out = ompltc().args(args).arg(&p).output().unwrap();
        let ir = String::from_utf8_lossy(&out.stdout);
        for sym in [
            "__kmpc_dispatch_init_8",
            "__kmpc_dispatch_next_8",
            "__kmpc_dispatch_fini_8",
            "__kmpc_barrier",
        ] {
            assert!(ir.contains(sym), "missing {sym} in {args:?} IR:\n{ir}");
        }
    }
}

#[test]
fn omp_schedule_env_drives_schedule_runtime() {
    let p = write_temp(
        "rt_env.c",
        "void print_i64(long v);\nint main(void) {\n  #pragma omp parallel num_threads(4)\n  {\n    #pragma omp for schedule(runtime)\n    for (int i = 0; i < 9; i += 1)\n      print_i64(i);\n  }\n  return 0;\n}\n",
    );
    for sched in ["static", "dynamic,2", "guided"] {
        let out = ompltc()
            .env("OMP_SCHEDULE", sched)
            .arg("--run")
            .arg("--threads")
            .arg("4")
            .arg(&p)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let mut got: Vec<i64> = String::from_utf8_lossy(&out.stdout)
            .lines()
            .map(|l| l.parse().unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..9).collect::<Vec<i64>>(), "OMP_SCHEDULE={sched}");
    }
}

#[test]
fn vm_backend_runs_identically_to_interp() {
    let p = write_temp("backend_demo.c", DEMO);
    for extra in [&[][..], &["--opt"][..], &["--enable-irbuilder"][..]] {
        let interp = ompltc().arg("--run").args(extra).arg(&p).output().unwrap();
        let vm = ompltc()
            .arg("--run")
            .arg("--backend=vm")
            .args(extra)
            .arg(&p)
            .output()
            .unwrap();
        assert!(
            vm.status.success(),
            "{}",
            String::from_utf8_lossy(&vm.stderr)
        );
        assert_eq!(interp.stdout, vm.stdout, "extra args {extra:?}");
        assert_eq!(interp.status.code(), vm.status.code());
    }
    // Threaded triangular dynamic schedule: same multiset on the VM.
    let tri = write_temp("backend_tri.c", TRIANGULAR);
    let out = ompltc()
        .args(["--run", "--threads", "4", "--backend=vm"])
        .arg(&tri)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut got: Vec<i64> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| l.parse().unwrap())
        .collect();
    got.sort_unstable();
    let mut want: Vec<i64> = (0..24i64)
        .flat_map(|i| (0..=i).map(move |j| i * 100 + j))
        .collect();
    want.sort_unstable();
    assert_eq!(got, want);
}

#[test]
fn backend_interp_is_accepted_explicitly() {
    let p = write_temp("backend_interp.c", DEMO);
    // Both spellings: `--backend=interp` and `--backend interp`.
    for args in [
        &["--run", "--backend=interp"][..],
        &["--run", "--backend", "interp"][..],
    ] {
        let out = ompltc().args(args).arg(&p).output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(String::from_utf8_lossy(&out.stdout), "0\n1\n2\n3\n4\n");
    }
}

#[test]
fn unknown_backend_is_a_usage_error() {
    let p = write_temp("backend_bad.c", CLEAN);
    for args in [&["--backend=jit"][..], &["--backend", "jit"][..]] {
        let out = ompltc().args(args).arg(&p).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(
                "unknown backend 'jit' for '--backend': expected 'interp', 'vm', or 'vm:strict'"
            ),
            "{err}"
        );
    }
    // Missing value is also a usage error, not a panic.
    let out = ompltc().arg(&p).arg("--backend").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unknown_backend_diag_is_json_under_diag_format_json() {
    let p = write_temp("backend_bad_json.c", CLEAN);
    let out = ompltc()
        .args(["--backend=jit", "--diag-format=json"])
        .arg(&p)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with('['), "{err}");
    assert!(err.contains("\"level\":\"error\""), "{err}");
    assert!(err.contains("unknown backend 'jit'"), "{err}");
    assert!(err.contains("\"file\":null"), "{err}");
    // The flag order must not matter: format resolved before validation.
    let out = ompltc()
        .args(["--diag-format=json", "--backend=jit"])
        .arg(&p)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).starts_with('['),
        "format must apply regardless of order"
    );
}

#[test]
fn emit_bytecode_prints_disassembly() {
    let p = write_temp("backend_disasm.c", DEMO);
    let out = ompltc().arg("--emit-bytecode").arg(&p).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("func @main"), "{text}");
    assert!(text.contains("call"), "{text}");
    assert!(text.contains("ret"), "{text}");
}

#[test]
fn vm_backend_honors_verify_each_and_verifier_flags() {
    let tri = write_temp("backend_verify.c", TRIANGULAR);
    let out = ompltc()
        .args([
            "--run",
            "--threads",
            "4",
            "--backend=vm",
            "--verify-each",
            "--opt",
        ])
        .arg(&tri)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn verify_each_passes_on_valid_transformations() {
    let p = write_temp("verify_each.c", DEMO);
    for mode in [
        &["--verify-each", "--opt", "--run"][..],
        &["--verify-each", "--enable-irbuilder", "--opt", "--run"][..],
    ] {
        let out = ompltc().args(mode).arg(&p).output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(String::from_utf8_lossy(&out.stdout), "0\n1\n2\n3\n4\n");
        // The dispatch-loop skeleton invariants are also checked under
        // `--verify-each`; a well-formed dynamic loop must sail through.
        let tri = write_temp("verify_tri.c", TRIANGULAR);
        let out = ompltc().args(mode).arg(&tri).output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

// ---------------------------------------------------------------------------
// --autotune driver mode
// ---------------------------------------------------------------------------

const TUNABLE: &str = "void print_i64(long v);\n\
int main(void) {\n\
  long sum = 0;\n\
  #pragma omp parallel for reduction(+: sum) schedule(static)\n\
  for (int i = 0; i < 24; i += 1)\n\
    for (int j = 0; j < i; j += 1)\n\
      sum = sum + (j % 7) + 1;\n\
  print_i64(sum);\n\
  return 0;\n\
}\n";

#[test]
fn autotune_produces_a_ranked_report() {
    let p = write_temp("tune.c", TUNABLE);
    let out = ompltc().arg("--autotune=6").arg(&p).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("autotune report"), "{text}");
    assert!(text.contains("original"), "{text}");
    assert!(text.contains("rank"), "{text}");
}

#[test]
fn autotune_json_report_is_deterministic_across_invocations() {
    let p = write_temp("tune_det.c", TUNABLE);
    let run = || {
        let out = ompltc()
            .arg("--autotune=8")
            .arg("--tune-json")
            .arg(&p)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let (a, b) = (run(), run());
    assert!(!a.is_empty());
    assert_eq!(a, b, "two invocations must emit byte-identical JSON");
    let text = String::from_utf8_lossy(&a);
    assert!(
        text.starts_with('{') && text.contains("\"candidates\":"),
        "{text}"
    );
}

#[test]
fn autotune_writes_winning_source() {
    let p = write_temp("tune_best.c", TUNABLE);
    let best = std::env::temp_dir().join("omplt-cli-tests/tune_best_out.c");
    let _ = std::fs::remove_file(&best);
    let out = ompltc()
        .arg("--autotune=8")
        .arg(format!("--tune-best={}", best.display()))
        .arg(&p)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let winner = std::fs::read_to_string(&best).expect("winning source written");
    assert!(winner.contains("int main"), "{winner}");
    // The winning source must itself be accepted by the analysis gate.
    let reparse = ompltc().arg("--analyze").arg(&best).output().unwrap();
    assert!(
        reparse.status.success(),
        "winning source fails --analyze:\n{winner}"
    );
}

#[test]
fn autotune_flag_conflicts_are_usage_errors() {
    let p = write_temp("tune_conflict.c", TUNABLE);
    for args in [
        vec!["--autotune", "--run"],
        vec!["--autotune", "--analyze"],
        vec!["--autotune", "--emit-ir"],
        vec!["--tune-json"], // tune flags require --autotune
        vec!["--tune-seed=1"],
        vec!["--autotune=0"], // budget must be positive
        vec!["--autotune=banana"],
        vec!["--autotune", "--tune-cost=ops"], // no such option
    ] {
        let out = ompltc().args(&args).arg(&p).output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} should be a usage error: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn autotune_reports_tuner_counters() {
    let p = write_temp("tune_counters.c", TUNABLE);
    let out = ompltc()
        .arg("--autotune=4")
        .arg("--tune-json")
        .arg("--counters-json=/dev/null")
        .arg(&p)
        .output()
        .unwrap();
    assert!(out.status.success());
    // Re-run with counters on stdout only (suppress the report to a file).
    let json_path = std::env::temp_dir().join("omplt-cli-tests/tune_counters.json");
    let out = ompltc()
        .arg("--autotune=4")
        .arg(format!("--tune-json={}", json_path.display()))
        .arg("--counters-json")
        .arg(&p)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"tuner.candidates\""), "{text}");
    assert!(text.contains("\"tuner.evaluated\""), "{text}");
}
