//! The fault-containment acceptance matrix: every registered fault site,
//! driven through the `ompltc` binary, in both diagnostics formats.
//!
//! What is proved here:
//!
//! * A forced panic in any pipeline stage exits 3 with a structured
//!   "internal compiler error" diagnostic naming the stage — never a raw
//!   panic/abort, in text and in JSON.
//! * A forced VM verifier rejection under `--backend=vm` degrades to the
//!   interpreter with a warning and an observably identical run (byte-for-
//!   byte memory, stdout, and chunk logs against a clean interpreter run —
//!   the same comparison points `tests/backend_differential.rs` uses);
//!   `--backend=vm:strict` keeps the failure fatal.
//! * A deliberately lost team thread terminates promptly with a watchdog
//!   diagnostic at 1, 4, and 8 threads instead of hanging the barrier.
//! * `--fuel` and `--exec-timeout` bound runaway execution, and a
//!   nonexistent input is a structured usage error (exit 2), not an
//!   `io::Error` debug print.
//!
//! Subprocess tests are naturally isolated; the in-process fallback
//! differential serializes on a mutex because the fault registry is
//! process-global.

use omplt::interp::RunResult;
use omplt::{Backend, CompilerInstance, Options};
use std::io::Write;
use std::process::Command;
use std::sync::Mutex;
use std::time::{Duration, Instant};

fn ompltc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ompltc"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("omplt-fault-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

/// Exercises every stage a fault site lives in: lexing, parsing, an OpenMP
/// directive (sema), codegen, the mid-end, bytecode compilation, and a
/// threaded run with a worksharing barrier. Prints only from the serial
/// epilogue so stdout is deterministic at any thread count.
const FULL_PIPELINE: &str = "\
void print_i64(long v);
long acc[64];
int main(void) {
  #pragma omp parallel
  {
    #pragma omp for schedule(dynamic, 4)
    for (int i = 0; i < 64; i += 1)
      acc[i] = i * 3;
  }
  long sum = 0;
  for (int k = 0; k < 64; k += 1)
    sum += acc[k];
  print_i64(sum);
  return 0;
}
";

struct Outcome {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

fn run_ompltc(args: &[&str], file: &std::path::Path) -> Outcome {
    let out = ompltc().args(args).arg(file).output().unwrap();
    Outcome {
        code: out.status.code(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// No raw panic machinery may ever reach the user, in any mode.
fn assert_contained(o: &Outcome, label: &str) {
    for needle in ["panicked at", "RUST_BACKTRACE", "stack backtrace"] {
        assert!(
            !o.stderr.contains(needle) && !o.stdout.contains(needle),
            "[{label}] raw panic output leaked:\n{}",
            o.stderr
        );
    }
    assert_ne!(o.code, Some(101), "[{label}] raw panic exit code");
    assert_ne!(o.code, None, "[{label}] killed by signal (abort?)");
}

const PANIC_SITES: [(&str, &str); 6] = [
    ("lex.panic", "lex"),
    ("parse.panic", "parse"),
    ("sema.panic", "sema"),
    ("codegen.panic", "codegen"),
    ("midend.panic", "midend"),
    ("vm.panic", "vm"),
];

/// Forced panic in each pipeline stage × {text, json}: exit 3 with a
/// structured ICE diagnostic naming the stage.
#[test]
fn panic_sites_become_structured_ices_in_both_formats() {
    let p = write_temp("ice_matrix.c", FULL_PIPELINE);
    for (site, stage) in PANIC_SITES {
        for json in [false, true] {
            let inject = format!("--inject-fault={site}");
            let mut args = vec!["--opt", "--run", "--backend=vm", inject.as_str()];
            if json {
                args.push("--diag-format=json");
            }
            let o = run_ompltc(&args, &p);
            let label = format!("{site} json={json}");
            assert_contained(&o, &label);
            assert_eq!(o.code, Some(3), "[{label}] ICE exit code\n{}", o.stderr);
            let expected = format!("internal compiler error in stage '{stage}'");
            assert!(o.stderr.contains(&expected), "[{label}]\n{}", o.stderr);
            assert!(
                o.stderr
                    .contains(&format!("injected fault at site '{site}'")),
                "[{label}]\n{}",
                o.stderr
            );
            if json {
                let first = o.stderr.lines().next().unwrap_or("");
                assert!(
                    first
                        .starts_with("[{\"level\":\"error\",\"message\":\"internal compiler error"),
                    "[{label}]\n{}",
                    o.stderr
                );
                assert!(first.ends_with("]}]"), "[{label}]\n{}", o.stderr);
                assert!(
                    o.stderr.contains("\"file\":null"),
                    "[{label}]\n{}",
                    o.stderr
                );
            } else {
                assert!(
                    o.stderr.starts_with("ompltc: internal compiler error"),
                    "[{label}]\n{}",
                    o.stderr
                );
            }
        }
    }
}

/// The `COUNT` in `SITE:COUNT` selects the n-th hit; a count beyond the
/// site's hits never fires and the compile succeeds.
#[test]
fn fault_count_selects_the_nth_hit() {
    let p = write_temp("ice_count.c", FULL_PIPELINE);
    // The 3rd token exists: lexing dies only once three tokens are read.
    let o = run_ompltc(&["--syntax-only", "--inject-fault=lex.panic:3"], &p);
    assert_eq!(o.code, Some(3), "{}", o.stderr);
    // No 10000th token: the site never fires and the pipeline is healthy.
    let o = run_ompltc(&["--syntax-only", "--inject-fault=lex.panic:10000"], &p);
    assert_eq!(o.code, Some(0), "{}", o.stderr);
}

/// `lex.panic` is hit once per token, the final `Eof` included: with N
/// tokens lexed (the `lex.tokens` counter), COUNT = N dies on the last one
/// and COUNT = N + 1 is never reached.
#[test]
fn lex_panic_count_selects_a_token_up_to_the_last() {
    let p = write_temp("ice_last_token.c", FULL_PIPELINE);
    let counters = std::env::temp_dir().join("omplt-fault-tests/ice_last_token.counters.json");
    let flag = format!("--counters-json={}", counters.display());
    let o = run_ompltc(&[flag.as_str()], &p);
    assert_eq!(o.code, Some(0), "{}", o.stderr);
    let doc = omplt::trace::json::parse(&std::fs::read_to_string(&counters).unwrap()).unwrap();
    let tokens = doc
        .get("counters")
        .and_then(|c| c.get("lex.tokens"))
        .and_then(omplt::trace::json::Value::as_u64)
        .expect("lex.tokens counter");

    let last = format!("--inject-fault=lex.panic:{tokens}");
    let o = run_ompltc(&[last.as_str()], &p);
    assert_contained(&o, &last);
    assert_eq!(o.code, Some(3), "{}", o.stderr);
    assert!(
        o.stderr.contains("internal compiler error in stage 'lex'"),
        "{}",
        o.stderr
    );

    let beyond = format!("--inject-fault=lex.panic:{}", tokens + 1);
    let o = run_ompltc(&[beyond.as_str()], &p);
    assert_eq!(o.code, Some(0), "{}", o.stderr);
    assert!(o.stderr.is_empty(), "{}", o.stderr);
}

/// Runtime-limit sites × {text, json}: structured runtime errors, exit 1.
#[test]
fn runtime_sites_are_structured_runtime_errors_in_both_formats() {
    let p = write_temp("rt_matrix.c", FULL_PIPELINE);
    let cases = [
        ("runtime.fuel", "step budget exhausted"),
        ("runtime.lost-thread", "watchdog"),
    ];
    for (site, needle) in cases {
        for json in [false, true] {
            let inject = format!("--inject-fault={site}");
            let mut args = vec!["--run", inject.as_str()];
            if json {
                args.push("--diag-format=json");
            }
            let o = run_ompltc(&args, &p);
            let label = format!("{site} json={json}");
            assert_contained(&o, &label);
            assert_eq!(o.code, Some(1), "[{label}]\n{}", o.stderr);
            assert!(o.stderr.contains(needle), "[{label}]\n{}", o.stderr);
            if json {
                assert!(
                    o.stderr.contains("\"level\":\"error\"") && o.stderr.contains("runtime error"),
                    "[{label}]\n{}",
                    o.stderr
                );
            } else {
                assert!(
                    o.stderr.contains("ompltc: runtime error:"),
                    "[{label}]\n{}",
                    o.stderr
                );
            }
        }
    }
}

/// The verifier-rejection site under `--backend=vm` × {text, json}: warning
/// plus successful fallback run.
#[test]
fn verify_reject_site_warns_and_falls_back_in_both_formats() {
    let p = write_temp("fb_matrix.c", FULL_PIPELINE);
    for json in [false, true] {
        let mut args = vec!["--run", "--backend=vm", "--inject-fault=vm.verify.reject"];
        if json {
            args.push("--diag-format=json");
        }
        let o = run_ompltc(&args, &p);
        let label = format!("vm.verify.reject json={json}");
        assert_contained(&o, &label);
        assert_eq!(o.code, Some(0), "[{label}]\n{}", o.stderr);
        assert_eq!(o.stdout, "6048\n", "[{label}] program still ran");
        assert!(
            o.stderr.contains("falling back to the interpreter"),
            "[{label}]\n{}",
            o.stderr
        );
        if json {
            assert!(
                o.stderr.contains("\"level\":\"warning\""),
                "[{label}]\n{}",
                o.stderr
            );
        } else {
            assert!(o.stderr.contains("warning:"), "[{label}]\n{}", o.stderr);
        }
    }
}

/// `vm:strict` keeps the rejection fatal: no fallback, exit 1.
#[test]
fn vm_strict_keeps_verifier_rejection_fatal() {
    let p = write_temp("strict.c", FULL_PIPELINE);
    let o = run_ompltc(
        &[
            "--run",
            "--backend=vm:strict",
            "--inject-fault=vm.verify.reject",
        ],
        &p,
    );
    assert_contained(&o, "vm:strict");
    assert_eq!(o.code, Some(1), "{}", o.stderr);
    assert_eq!(o.stdout, "", "program must not run");
    assert!(
        o.stderr.contains("bytecode verification failed")
            && o.stderr.contains("injected verification failure")
            && !o.stderr.contains("falling back"),
        "{}",
        o.stderr
    );
}

/// The watchdog frees a barrier stranded by a lost team member at 1, 4, and
/// 8 threads, well within the deadline, naming the lost thread.
#[test]
fn watchdog_fires_within_deadline_at_each_team_size() {
    let p = write_temp("watchdog.c", FULL_PIPELINE);
    for threads in ["1", "4", "8"] {
        let start = Instant::now();
        let o = run_ompltc(
            &[
                "--run",
                "--threads",
                threads,
                "--inject-fault=runtime.lost-thread",
            ],
            &p,
        );
        let elapsed = start.elapsed();
        let label = format!("threads={threads}");
        assert_contained(&o, &label);
        assert!(
            elapsed < Duration::from_secs(20),
            "[{label}] watchdog too slow: {elapsed:?}"
        );
        assert_eq!(o.code, Some(1), "[{label}]\n{}", o.stderr);
        assert!(
            o.stderr.contains("watchdog")
                && o.stderr
                    .contains("exited without reaching '__kmpc_barrier'"),
            "[{label}]\n{}",
            o.stderr
        );
    }
}

/// The in-process fault registry is process-global; tests that arm it must
/// not interleave.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn run_with(source: &str, opts: Options) -> RunResult {
    let mut ci = CompilerInstance::new(opts);
    ci.compile_and_run("fault_diff.c", source, false)
        .expect("run succeeds")
}

/// The acceptance bar for graceful degradation, using the comparison
/// points of `tests/backend_differential.rs`: a `--backend=vm` run whose
/// verifier was forced to reject is *byte-identical* — exit code, final
/// global memory, task counts, chunk log, stdout — to a clean interpreter
/// run, because the fallback runs the identical engine and config.
#[test]
fn fallback_run_is_byte_identical_to_clean_interpreter_run() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    for threads in [1u32, 4] {
        let base = Options {
            num_threads: threads,
            log_chunks: true,
            ..Options::default()
        };
        let oracle = run_with(
            FULL_PIPELINE,
            Options {
                backend: Backend::Interp,
                ..base
            },
        );
        omplt::fault::arm("vm.verify.reject").unwrap();
        let fallback = run_with(
            FULL_PIPELINE,
            Options {
                backend: Backend::Vm,
                ..base
            },
        );
        omplt::fault::reset();
        let label = format!("threads={threads}");
        assert_eq!(oracle.exit_code, fallback.exit_code, "[{label}] exit code");
        assert_eq!(
            oracle.final_globals, fallback.final_globals,
            "[{label}] final global memory"
        );
        assert_eq!(
            oracle.tasks_created, fallback.tasks_created,
            "[{label}] tasks created"
        );
        assert_eq!(oracle.chunk_log, fallback.chunk_log, "[{label}] chunk log");
        assert_eq!(oracle.stdout, fallback.stdout, "[{label}] stdout");
    }
}

/// The fallback emits exactly one warning diagnostic and the fault disarms
/// after firing (one-shot), so the interpreter rerun is clean.
#[test]
fn fallback_warns_once_and_site_disarms() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    omplt::fault::arm("vm.verify.reject").unwrap();
    let mut ci = CompilerInstance::new(Options {
        backend: Backend::Vm,
        ..Options::default()
    });
    ci.compile_and_run("warn_once.c", FULL_PIPELINE, false)
        .expect("fallback run succeeds");
    let rendered = ci.render_diags();
    assert_eq!(
        rendered.matches("falling back to the interpreter").count(),
        1,
        "{rendered}"
    );
    // The registry disarmed itself when the site fired.
    assert!(!omplt::fault::fire("vm.verify.reject"));
    omplt::fault::reset();
}

/// Golden tests for the nonexistent-input diagnostic: exit 2 with a
/// structured message in both formats, not a raw `io::Error` print.
#[test]
fn nonexistent_input_file_is_a_structured_usage_error() {
    let path = std::env::temp_dir().join("omplt-fault-tests/definitely_missing.c");
    let _ = std::fs::remove_file(&path);
    let o = run_ompltc(&[], &path);
    assert_eq!(o.code, Some(2), "{}", o.stderr);
    assert_eq!(
        o.stderr,
        format!(
            "ompltc: cannot read '{}': No such file or directory (os error 2)\n",
            path.display()
        )
    );
    let o = run_ompltc(&["--diag-format=json"], &path);
    assert_eq!(o.code, Some(2), "{}", o.stderr);
    assert_eq!(
        o.stderr,
        format!(
            "[{{\"level\":\"error\",\"message\":\"cannot read '{}': No such file or directory \
             (os error 2)\",\"file\":null,\"notes\":[]}}]\n",
            path.display()
        )
    );
}

/// `--inject-fault` with an unknown site is a usage error listing the
/// catalog, and the catalog matches the registry.
#[test]
fn unknown_fault_site_is_a_usage_error_listing_the_catalog() {
    let p = write_temp("badsite.c", FULL_PIPELINE);
    let o = run_ompltc(&["--inject-fault=definitely.not.a.site"], &p);
    assert_eq!(o.code, Some(2), "{}", o.stderr);
    for &(site, _) in omplt::fault::SITES {
        assert!(
            o.stderr.contains(site),
            "catalog missing {site}:\n{}",
            o.stderr
        );
    }
}

/// `--crash-report=DIR` writes the bundle: input copy, report with stage +
/// panic + backtrace, and a counters snapshot.
#[test]
fn crash_report_bundle_is_written_on_ice() {
    let p = write_temp("crash.c", FULL_PIPELINE);
    let dir = std::env::temp_dir().join("omplt-fault-tests/crash_bundle");
    let _ = std::fs::remove_dir_all(&dir);
    let crash_flag = format!("--crash-report={}", dir.display());
    let o = run_ompltc(
        &[
            "--opt",
            "--run",
            "--inject-fault=midend.panic",
            crash_flag.as_str(),
        ],
        &p,
    );
    assert_contained(&o, "crash-report");
    assert_eq!(o.code, Some(3), "{}", o.stderr);
    assert!(o.stderr.contains("crash report written to"), "{}", o.stderr);
    let input = std::fs::read_to_string(dir.join("input.c")).expect("input copy");
    assert_eq!(input, FULL_PIPELINE);
    let report = std::fs::read_to_string(dir.join("report.txt")).expect("report");
    assert!(report.contains("stage: midend"), "{report}");
    assert!(
        report.contains("panic: injected fault at site 'midend.panic'"),
        "{report}"
    );
    assert!(report.contains("backtrace:"), "{report}");
    let counters = std::fs::read_to_string(dir.join("counters.json")).expect("counters");
    assert!(
        counters.contains("fault.fired.midend.panic"),
        "the snapshot records the fired site:\n{counters}"
    );
}

/// `--fuel=N` bounds execution: a budget too small for the program is a
/// runtime error, a generous one lets it finish.
#[test]
fn fuel_budget_bounds_execution() {
    let p = write_temp("fuel.c", FULL_PIPELINE);
    let o = run_ompltc(&["--run", "--fuel=50"], &p);
    assert_eq!(o.code, Some(1), "{}", o.stderr);
    assert!(o.stderr.contains("step budget exhausted"), "{}", o.stderr);
    let o = run_ompltc(&["--run", "--fuel=1000000"], &p);
    assert_eq!(o.code, Some(0), "{}", o.stderr);
    assert_eq!(o.stdout, "6048\n");
}

/// Every thread of a team spins forever. The budget is one counter shared by
/// the team: whichever thread exhausts it, every other thread's next refill
/// must be refused too (it used to wrap the counter and be granted fuel
/// forever — the run hung at any team size above one). `--exec-timeout` is
/// the net: a regression reads as the wrong message, not as a hung test run.
const SPINNING_TEAM: &str = "\
long s;
int main(void) {
  #pragma omp parallel
  {
    long t = 0;
    for (long i = 0; i >= 0; i += 0)
      t = t + 1;
    s = t;
  }
  return 0;
}
";

#[test]
fn fuel_exhaustion_stops_every_thread_of_a_team() {
    let p = write_temp("spinning_team.c", SPINNING_TEAM);
    for backend in ["--backend=interp", "--backend=vm:strict"] {
        for threads in ["1", "2", "4", "8"] {
            let o = run_ompltc(
                &[
                    "--run",
                    "--fuel=2000000",
                    "--exec-timeout=20000",
                    "--threads",
                    threads,
                    backend,
                ],
                &p,
            );
            let what = format!("{backend} --threads {threads}: {}", o.stderr);
            assert_eq!(o.code, Some(1), "{what}");
            assert!(o.stderr.contains("step budget exhausted"), "{what}");
        }
    }
}

/// `--exec-timeout` terminates a genuinely unbounded program (fuel-immune
/// here: huge budget) with a diagnostic instead of hanging.
#[test]
fn exec_timeout_terminates_runaway_execution() {
    let p = write_temp(
        "spin.c",
        "int main(void) { int x = 1; while (x) { x = 1; } return 0; }\n",
    );
    let start = Instant::now();
    let o = run_ompltc(&["--run", "--exec-timeout=500"], &p);
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "timeout did not fire: {:?}",
        start.elapsed()
    );
    assert_eq!(o.code, Some(1), "{}", o.stderr);
    assert!(
        o.stderr.contains("wall-clock deadline of 500 ms exceeded"),
        "{}",
        o.stderr
    );
}
