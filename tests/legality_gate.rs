//! The legality rules are on every entrance. A nest the compiler cannot
//! transform as written is refused by the ordinary compile — Sema's rules
//! (perfect nesting, no `return` out of the region) while the directive is
//! built, the dependence gate over `interchange`/`reverse`/`fuse` as the
//! last step of `parse_source` — so no mode, backend, lowering path or
//! transport can be handed the miscompile instead. `--analyze` adds only
//! the two lints over what the compiler executes faithfully anyway.
//!
//! The independent oracle for "legal programs do not move" is the program
//! with its pragmas ignored (`--no-openmp`): each of the refused programs
//! below printed something else than its oracle when it was still compiled.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// The wavefront stencil of `ci/analysis-fixtures/illegal_interchange.c`
/// over a global, with a checksum: 43601 interchanged, 36006 as written.
const WAVEFRONT: &str = "\
void print_i64(long v);
int a[9][9];
int main(void) {
  for (int i = 0; i < 9; i += 1)
    for (int j = 0; j < 9; j += 1)
      a[i][j] = 9 * i + j;
  #pragma omp interchange
  for (int i = 1; i < 8; i += 1)
    for (int j = 1; j < 8; j += 1)
      a[i][j] = a[i - 1][j + 1] + 1;
  long sum = 0;
  for (int i = 0; i < 9; i += 1)
    for (int j = 0; j < 9; j += 1)
      sum += a[i][j] * (i + 2 * j + 1);
  print_i64(sum);
  return 0;
}
";

/// `k` depends on `i`; hoisted out of the nest it is evaluated once:
/// 24 tiled, 264 as written.
const IMPERFECT_TILE: &str = "\
void print_i64(long v);
int main(void) {
  long s = 0;
  #pragma omp tile sizes(2, 2)
  for (int i = 0; i < 4; i += 1) {
    int k = i * 10;
    for (int j = 0; j < 4; j += 1)
      s += k + j;
  }
  print_i64(s);
  return 0;
}
";

/// The outlined region is a `void` function: the `return` used to reach the
/// IR verifier ("ret with value in void function", no location).
const RETURN_IN_PARALLEL_FOR: &str = "\
void print_i64(long v);
int a[16];
int find(int key) {
  #pragma omp parallel for
  for (int i = 0; i < 16; i += 1)
    if (a[i] == key)
      return i;
  return -1;
}
int main(void) {
  for (int i = 0; i < 16; i += 1)
    a[i] = 2 * i;
  print_i64(find(6));
  return 0;
}
";

/// The same out of the outlined block of a directive without a loop.
const RETURN_IN_PARALLEL: &str = "\
void print_i64(long v);
int main(void) {
  #pragma omp parallel
  {
    return 1;
  }
  print_i64(7);
  return 0;
}
";

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("omplt-legality-gate-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

fn fixture(name: &str) -> PathBuf {
    Path::new(ROOT).join("ci/analysis-fixtures").join(name)
}

struct Capture {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

fn ompltc(args: &[&str], file: &Path) -> Capture {
    let out = Command::new(env!("CARGO_BIN_EXE_ompltc"))
        .env_remove("OMP_SCHEDULE")
        .args(args)
        .arg(file)
        .output()
        .expect("run ompltc");
    Capture {
        code: out.status.code(),
        stdout: String::from_utf8(out.stdout).expect("utf-8 stdout"),
        stderr: String::from_utf8(out.stderr).expect("utf-8 stderr"),
    }
}

/// An `ompltd --listen` child, killed and reaped on drop.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn start() -> Daemon {
        let socket = write_temp(&format!("gate-{}.sock", std::process::id()), "");
        std::fs::remove_file(&socket).unwrap();
        let mut child = Command::new(env!("CARGO_BIN_EXE_ompltd"))
            .arg(format!("--listen={}", socket.display()))
            .env_remove("OMP_SCHEDULE")
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn ompltd");
        for _ in 0..400 {
            if socket.exists() {
                return Daemon { child, socket };
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        let _ = child.kill();
        let _ = child.wait();
        panic!("ompltd never bound {}", socket.display());
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn an_illegal_nest_is_refused_on_every_entrance() {
    let daemon = Daemon::start();
    let remote = format!("--remote={}", daemon.socket.display());
    let programs = [
        (write_temp("wavefront.c", WAVEFRONT), "is illegal here"),
        (
            write_temp("imperfect_tile.c", IMPERFECT_TILE),
            "must be perfectly nested",
        ),
        (
            write_temp("return_in_parallel_for.c", RETURN_IN_PARALLEL_FOR),
            "cannot 'return' out of the loop nest",
        ),
        (
            write_temp("return_in_parallel.c", RETURN_IN_PARALLEL),
            "cannot 'return' out of the structured block",
        ),
        (fixture("illegal_reverse.c"), "is illegal here"),
        (fixture("illegal_fuse.c"), "is illegal here"),
        (fixture("illegal_interchange.c"), "is illegal here"),
    ];
    let entrances: [&[&str]; 6] = [
        &[],
        &["--syntax-only"],
        &["--run"],
        &["--run", "--enable-irbuilder"],
        &["--run", "--backend=vm:strict"],
        &[&remote, "--run"],
    ];
    for (file, rule) in &programs {
        let name = file.display();
        for format in ["--diag-format=text", "--diag-format=json"] {
            // What `--analyze` says about the file is the whole refusal:
            // the located error and its notes.
            let analyzed = ompltc(&["--analyze", format], file);
            assert_eq!(analyzed.code, Some(1), "{name}");
            assert!(
                analyzed.stderr.contains(rule),
                "{name}: {}",
                analyzed.stderr
            );
            assert!(
                analyzed.stderr.contains("note"),
                "{name}: {}",
                analyzed.stderr
            );
            for entrance in entrances {
                let args: Vec<&str> = entrance.iter().copied().chain([format]).collect();
                let got = ompltc(&args, file);
                assert_eq!(got.code, Some(1), "{name} {args:?}: {}", got.stderr);
                assert_eq!(got.stdout, "", "{name} {args:?} printed a number");
                assert_eq!(got.stderr, analyzed.stderr, "{name} {args:?}");
            }
        }
        // The tuner's baseline is one more compile.
        let error = ompltc(&["--analyze"], file).stderr;
        let error = error.lines().next().expect("a first line");
        let error = &error[error.find("error: ").expect("an error")..];
        let tuned = ompltc(&["--autotune"], file);
        assert_eq!(tuned.code, Some(1), "{name}: {}", tuned.stderr);
        assert_eq!(tuned.stdout, "", "{name}");
        assert!(
            tuned
                .stderr
                .contains("the input itself fails the legality/analysis gate"),
            "{name}: {}",
            tuned.stderr
        );
        assert!(tuned.stderr.contains(error), "{name}: {}", tuned.stderr);
    }
}

#[test]
fn every_legal_program_prints_what_it_prints_without_openmp() {
    let mut programs: Vec<PathBuf> = std::fs::read_dir(Path::new(ROOT).join("examples/c"))
        .expect("examples/c exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "c"))
        .collect();
    assert!(programs.len() >= 4, "{programs:?}");
    // `stacked_generated_nest.c` calls an undefined `use` and cannot run.
    programs.extend(["analysis_limit.c", "legal_compositions.c", "illegal_simd.c"].map(fixture));
    for file in &programs {
        let name = file.display();
        let oracle = ompltc(&["--no-openmp", "--serial", "--run"], file);
        assert!(oracle.code.is_some(), "{name}: {}", oracle.stderr);
        for path in [&[][..], &["--enable-irbuilder"]] {
            for backend in ["--backend=interp", "--backend=vm:strict"] {
                let args: Vec<&str> = (path.iter().copied())
                    .chain([backend, "--serial", "--run"])
                    .collect();
                let got = ompltc(&args, file);
                assert_eq!(got.code, oracle.code, "{name} {args:?}: {}", got.stderr);
                assert_eq!(got.stdout, oracle.stdout, "{name} {args:?}");
            }
        }
    }
}

/// No engine runs lanes the dependence distance forbids — the interpreter is
/// scalar, the VM's widening pass has its own distance test — so a `simd`
/// the analysis can prove illegal still runs correctly, and saying so is a
/// lint: an error under `--analyze`, nothing on a compile.
#[test]
fn an_illegal_simd_still_runs_and_is_an_error_under_analyze_only() {
    let file = fixture("illegal_simd.c");
    for args in [
        &["--run"][..],
        &["--run", "--backend=vm:strict", "--vector-width=4"],
    ] {
        let ran = ompltc(args, &file);
        assert_eq!(ran.code, Some(0), "{args:?}: {}", ran.stderr);
        assert_eq!(ran.stderr, "", "{args:?}");
    }
    let analyzed = ompltc(&["--analyze"], &file);
    assert_eq!(analyzed.code, Some(1));
    assert!(
        analyzed
            .stderr
            .contains("error: '#pragma omp simd' is illegal here"),
        "{}",
        analyzed.stderr
    );
}

/// What is not intervening code stays accepted: declarations sharing a block
/// with the *outermost* loop run before the nest either way, and the
/// `.capture_expr.` declarations of a consumed transformation are the
/// generated nest's prologue.
#[test]
fn outermost_siblings_and_generated_prologues_are_accepted() {
    let siblings = write_temp(
        "siblings.c",
        "void print_i64(long v);\n\
         int main(void) {\n\
         \x20 long s = 0;\n\
         \x20 #pragma omp tile sizes(2, 2)\n\
         \x20 {\n\
         \x20   int t = 3;\n\
         \x20   for (int i = 0; i < 4; i += 1)\n\
         \x20     for (int j = 0; j < 4; j += 1)\n\
         \x20       s += t * i + j;\n\
         \x20 }\n\
         \x20 print_i64(s);\n\
         \x20 return 0;\n\
         }\n",
    );
    for path in [&["--run"][..], &["--run", "--enable-irbuilder"]] {
        let ran = ompltc(path, &siblings);
        assert_eq!(ran.code, Some(0), "{path:?}: {}", ran.stderr);
        assert_eq!((ran.stdout.as_str(), ran.stderr.as_str()), ("96\n", ""));
    }
    // Stacked transformations compile on both paths; what the gate cannot
    // judge over a generated nest is a warning on the compile, once.
    let stacked = fixture("stacked_generated_nest.c");
    for path in [&[][..], &["--enable-irbuilder"]] {
        let compiled = ompltc(path, &stacked);
        assert_eq!(compiled.code, Some(0), "{path:?}: {}", compiled.stderr);
        assert!(!compiled.stderr.contains("error"), "{}", compiled.stderr);
        assert_eq!(compiled.stderr.matches("[-Wanalysis-limit]").count(), 2);
    }
}
