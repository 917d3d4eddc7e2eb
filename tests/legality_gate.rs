//! The legality rules are on every entrance. A nest the compiler cannot
//! transform as written is refused by the ordinary compile — Sema's rules
//! (perfect nesting, no `return` out of the region) while the directive is
//! built, the dependence gate over `interchange`/`tile`/`reverse`/`fuse` as the
//! last step of `parse_source` — so no mode, backend, lowering path or
//! transport can be handed the miscompile instead. The same gate decides
//! how many lanes each `simd` loop may run, once, for every consumer, and
//! warns about the data races of `parallel` worksharing loops (`-Wrace`,
//! over what the compiler executes faithfully anyway). `--analyze` is that
//! compile stopped after the front end.
//!
//! The independent oracle for "legal programs do not move" is the program
//! with its pragmas ignored (`--no-openmp`): each of the refused programs
//! below printed something else than its oracle when it was still compiled.

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// Every column of `b` gains 10 per row: 320 in any loop order.
const COLUMNS: &str = "\
void print_i64(long v);
long b[8];
int main(void) {
  #pragma omp interchange
  for (int i = 0; i < 4; i += 1)
    for (int j = 0; j < 8; j += 1)
      b[j] += 10;
  long s = 0;
  for (int j = 0; j < 8; j += 1)
    s += b[j];
  print_i64(s);
  return 0;
}
";

/// `WAVEFRONT` with `pragma` in place of its `interchange`.
fn wavefront_under(pragma: &str) -> String {
    WAVEFRONT.replace("#pragma omp interchange", pragma)
}

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

/// Each row of `a` depends on itself one column back: `parallel for` over
/// the rows is race-free as written. `interchange` makes the columns the
/// workshared loop, and every thread then reads what another one writes.
const ROWS_THEN_COLUMNS: &str = "\
void print_i64(long v);
long a[8][9];
int main(void) {
  for (int i = 0; i < 8; i += 1)
    for (int j = 0; j < 9; j += 1)
      a[i][j] = i + j;
  #pragma omp parallel for
  for (int i = 0; i < 8; i += 1)
    for (int j = 1; j < 9; j += 1)
      a[i][j] = a[i][j - 1] + 1;
  long s = 0;
  for (int i = 0; i < 8; i += 1)
    for (int j = 0; j < 9; j += 1)
      s += a[i][j] * (i * 9 + j + 1);
  print_i64(s);
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
        // One socket per daemon: the tests that start one run in parallel.
        static STARTED: AtomicUsize = AtomicUsize::new(0);
        let n = STARTED.fetch_add(1, Ordering::Relaxed);
        let socket = write_temp(&format!("gate-{}-{n}.sock", std::process::id()), "");
        std::fs::remove_file(&socket).unwrap();
        let mut child = Command::new(env!("CARGO_BIN_EXE_ompltd"))
            .arg(format!("--listen={}", socket.display()))
            .env_remove("OMP_SCHEDULE")
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn ompltd");
        // Ready is a connect that succeeds: the socket file appears at
        // bind(2), before listen(2). The probe connection closes unused,
        // which the daemon drops without a reply or a counter.
        let mut refused = None;
        for _ in 0..400 {
            match UnixStream::connect(&socket) {
                Ok(_) => return Daemon { child, socket },
                Err(e) => refused = Some(e),
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        let _ = child.kill();
        let _ = child.wait();
        panic!(
            "ompltd never accepted a connection on {}: {refused:?}",
            socket.display()
        );
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
            write_temp(
                "wavefront_tile.c",
                &wavefront_under("#pragma omp tile sizes(2, 2)"),
            ),
            "is illegal here",
        ),
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

/// Sema is the one judge of the source. Each program of `ci/refused/`, one
/// per rule CodeGen once decided on its own, is refused by the front end
/// alone (`--syntax-only`) and by every other entrance with the same located
/// text. While CodeGen decided them, `--syntax-only` and `--analyze`
/// accepted all six.
#[test]
fn a_refused_source_is_refused_on_every_entrance() {
    let daemon = Daemon::start();
    let remote = format!("--remote={}", daemon.socket.display());
    let mut files: Vec<PathBuf> = std::fs::read_dir(Path::new(ROOT).join("ci/refused"))
        .expect("ci/refused exists")
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 6, "{files:?}");
    let entrances: [&[&str]; 8] = [
        &["--analyze"],
        &[],
        &["--run"],
        &["--run", "--enable-irbuilder"],
        &["--run", "--backend=vm:strict"],
        &["--emit-ir"],
        &["--ast-dump"],
        &[&remote, "--run"],
    ];
    for file in &files {
        let name = file.display();
        for format in ["--diag-format=text", "--diag-format=json"] {
            let judged = ompltc(&["--syntax-only", format], file);
            assert_eq!(judged.code, Some(1), "{name}: {}", judged.stderr);
            assert!(judged.stderr.contains("error"), "{name}");
            for entrance in entrances {
                let args: Vec<&str> = entrance.iter().copied().chain([format]).collect();
                let got = ompltc(&args, file);
                assert_eq!(got.code, Some(1), "{name} {args:?}: {}", got.stderr);
                assert_eq!(got.stdout, "", "{name} {args:?}");
                assert_eq!(got.stderr, judged.stderr, "{name} {args:?}");
            }
        }
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
    programs.extend(
        [
            "analysis_limit.c",
            "legal_compositions.c",
            "illegal_simd.c",
            "simd_lanes.c",
        ]
        .map(fixture),
    );
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

/// What the tile and interchange rules accept runs as written. The same
/// stencil one column back, whose dependence has direction `(<, <)`, is a
/// fully permutable band: tiled it prints its serial 29034. `interchange`
/// over `COLUMNS` reorders no two accesses to one element: the `*` of its
/// dependence vector `(*, =)` splits into `(<, =)` and its reverse, and it
/// prints 320.
#[test]
fn a_permutable_tile_and_a_split_star_run_as_written() {
    let diagonal = wavefront_under("#pragma omp tile sizes(2, 2)")
        .replace("a[i - 1][j + 1]", "a[i - 1][j - 1]");
    let programs = [
        (write_temp("diagonal_tile.c", &diagonal), "29034\n"),
        (write_temp("columns_interchange.c", COLUMNS), "320\n"),
    ];
    for (file, printed) in &programs {
        let name = file.display();
        let oracle = ompltc(&["--no-openmp", "--run"], file);
        assert_eq!(oracle.stdout, *printed, "{name}");
        for path in [&[][..], &["--enable-irbuilder"]] {
            for engine in [&["--run"][..], &["--run", "--backend=vm:strict"]] {
                for opt in [&[][..], &["--opt"]] {
                    let args = [path, engine, opt].concat();
                    let got = ompltc(&args, file);
                    let seen = (got.code, got.stdout.as_str(), got.stderr.as_str());
                    assert_eq!(seen, (Some(0), *printed, ""), "{name} {args:?}");
                }
            }
        }
    }
}

/// A `simd` loop whose lanes the dependences bound below two is not
/// refused: the program is correct as written, the gate says the loop runs
/// scalar — on every compile, not only under `--analyze` — and CodeGen
/// hands no engine the lanes.
#[test]
fn an_unsafe_simd_warns_on_every_compile_and_runs_scalar() {
    for name in ["illegal_simd.c", "simd_lanes.c"] {
        let file = fixture(name);
        let warned = ompltc(&[], &file);
        assert_eq!(warned.code, Some(0), "{name}: {}", warned.stderr);
        assert!(
            warned
                .stderr
                .contains("warning: '#pragma omp simd' is not applied")
                && warned.stderr.contains("[-Wpass-failed=transform-warning]"),
            "{name}: {}",
            warned.stderr
        );
        for args in [
            &["--run"][..],
            &["--run", "--backend=vm:strict", "--vector-width=4"],
        ] {
            let ran = ompltc(args, &file);
            assert_eq!(ran.code, Some(0), "{name} {args:?}: {}", ran.stderr);
            assert_eq!(ran.stderr, warned.stderr, "{name} {args:?}");
        }
        let analyzed = ompltc(&["--analyze"], &file);
        assert_eq!(analyzed.code, Some(1), "{name}");
        assert_eq!(analyzed.stderr, warned.stderr, "{name}");
    }
}

/// One probe of the `simd` lane rule: a program, what the compile says
/// about it, and what CodeGen and the VM make of the verdict.
struct SimdProbe {
    name: &'static str,
    source: &'static str,
    /// Text the compile's one warning contains; `None` for a clean compile.
    warning: Option<&'static str>,
    /// The `llvm.loop.vectorize.safelen` CodeGen writes, if any.
    safelen: Option<u8>,
    /// The lanes the VM widens the loop to at `--vector-width=4`, if at all.
    lanes_at_4: Option<u8>,
}

const SIMD_PROBES: [SimdProbe; 8] = [
    SimdProbe {
        // Anti, sink first: a lane would read what a lower lane overwrote.
        name: "anti",
        source: "void print_i64(long v);\nlong a[70];\nlong b[64];\n\
                 int main(void) {\n  for (int i = 0; i < 70; i += 1)\n    a[i] = i * 3;\n\
                 \x20 #pragma omp simd\n  for (int i = 0; i < 64; i += 1) {\n\
                 \x20   a[i + 1] = 5;\n    b[i] = a[i + 2];\n  }\n  long s = 0;\n\
                 \x20 for (int i = 0; i < 64; i += 1)\n    s += b[i] * (i + 1);\n\
                 \x20 print_i64(s);\n  return 0;\n}\n",
        warning: Some("loop-carried anti dependence on 'a' with distance vector (1)"),
        safelen: None,
        lanes_at_4: None,
    },
    SimdProbe {
        // `p == q + 1`: the pointers alias, which the tests cannot see.
        name: "alias",
        source: "void print_i64(long v);\nlong a[40];\n\
                 void k(long *p, long *q) {\n  #pragma omp simd\n\
                 \x20 for (int i = 0; i < 32; i += 1)\n    p[i] = q[i] + 1;\n}\n\
                 int main(void) {\n  for (int i = 0; i < 40; i += 1)\n    a[i] = i * i;\n\
                 \x20 k(a + 1, a);\n  long s = 0;\n  for (int i = 0; i < 40; i += 1)\n\
                 \x20   s += a[i] * (i + 1);\n  print_i64(s);\n  return 0;\n}\n",
        warning: Some("'p': pointer may alias 'q'"),
        safelen: None,
        lanes_at_4: None,
    },
    SimdProbe {
        // Distance (0, 1) over the collapsed space is one lane.
        name: "collapse",
        source: "void print_i64(long v);\nlong a[8][9];\nint main(void) {\n\
                 \x20 for (int i = 0; i < 8; i += 1)\n    for (int j = 0; j < 9; j += 1)\n\
                 \x20     a[i][j] = i + j;\n  #pragma omp simd collapse(2)\n\
                 \x20 for (int i = 0; i < 8; i += 1)\n    for (int j = 0; j < 8; j += 1)\n\
                 \x20     a[i][j + 1] = a[i][j] + 1;\n  long s = 0;\n\
                 \x20 for (int i = 0; i < 8; i += 1)\n    for (int j = 0; j < 9; j += 1)\n\
                 \x20     s += a[i][j] * (i * 9 + j + 1);\n  print_i64(s);\n  return 0;\n}\n",
        warning: Some("'#pragma omp simd collapse(2)' is not applied"),
        safelen: None,
        lanes_at_4: None,
    },
    SimdProbe {
        // Flow, sink first (the read precedes the write in the body).
        name: "flow",
        source: "void print_i64(long v);\nlong a[64];\nint main(void) {\n  a[0] = 1;\n\
                 \x20 #pragma omp simd\n  for (int i = 1; i < 64; i += 1)\n\
                 \x20   a[i] = a[i - 1] + 1;\n  long s = 0;\n\
                 \x20 for (int i = 0; i < 64; i += 1)\n    s += a[i] * (i + 1);\n\
                 \x20 print_i64(s);\n  return 0;\n}\n",
        warning: Some("loop-carried flow dependence on 'a' with distance vector (1)"),
        safelen: None,
        lanes_at_4: None,
    },
    SimdProbe {
        // Flow, source first: lock-step lanes store before they load.
        name: "store_before_load",
        source: "void print_i64(long v);\nlong a[64];\nlong b[64];\nint main(void) {\n\
                 \x20 a[0] = 7;\n  #pragma omp simd\n  for (int i = 1; i < 64; i += 1) {\n\
                 \x20   a[i] = 3 * i;\n    b[i] = a[i - 1];\n  }\n  long s = 0;\n\
                 \x20 for (int i = 0; i < 64; i += 1)\n    s += b[i] * (i + 1);\n\
                 \x20 print_i64(s);\n  return 0;\n}\n",
        warning: None,
        safelen: None,
        lanes_at_4: Some(4),
    },
    SimdProbe {
        // Every iteration writes `t` before it reads it; the last lane's
        // value survives the loop.
        name: "write_first",
        source: "void print_i64(long v);\nlong x[64];\nlong y[64];\nint main(void) {\n\
                 \x20 long t = 0;\n  for (int i = 0; i < 64; i += 1)\n    x[i] = i - 20;\n\
                 \x20 #pragma omp simd\n  for (int i = 0; i < 64; i += 1) {\n\
                 \x20   t = x[i] * 2;\n    y[i] = t + 1;\n  }\n  long s = t;\n\
                 \x20 for (int i = 0; i < 64; i += 1)\n    s += y[i] * (i + 1);\n\
                 \x20 print_i64(s);\n  return 0;\n}\n",
        warning: None,
        safelen: None,
        lanes_at_4: Some(4),
    },
    SimdProbe {
        // `x` is only read: its unmodeled subscript carries nothing.
        name: "gather",
        source: "void print_i64(long v);\nlong x[64];\nlong y[64];\nint idx[64];\n\
                 int main(void) {\n  for (int i = 0; i < 64; i += 1) {\n\
                 \x20   x[i] = i * 5 - 3;\n    idx[i] = (i * 7) % 64;\n  }\n\
                 \x20 #pragma omp simd\n  for (int i = 0; i < 64; i += 1)\n\
                 \x20   y[i] = x[idx[i]] + 1;\n  long s = 0;\n\
                 \x20 for (int i = 0; i < 64; i += 1)\n    s += y[i] * (i + 1);\n\
                 \x20 print_i64(s);\n  return 0;\n}\n",
        warning: None,
        safelen: None,
        lanes_at_4: Some(4),
    },
    SimdProbe {
        // Distance 2 leaves two lanes.
        name: "distance2",
        source: "void print_i64(long v);\nlong a[64];\nint main(void) {\n\
                 \x20 for (int i = 0; i < 64; i += 1)\n    a[i] = i;\n  #pragma omp simd\n\
                 \x20 for (int i = 2; i < 64; i += 1)\n    a[i] = a[i - 2] + 1;\n\
                 \x20 long s = 0;\n  for (int i = 0; i < 64; i += 1)\n\
                 \x20   s += a[i] * (i + 1);\n  print_i64(s);\n  return 0;\n}\n",
        warning: None,
        safelen: Some(2),
        lanes_at_4: Some(2),
    },
];

/// The value of counter `name` in a `--counters-json` document.
fn counter(json: &str, name: &str) -> Option<u64> {
    let rest = &json[json.find(&format!("\"{name}\":"))? + name.len() + 3..];
    rest[..rest.find(|c: char| !c.is_ascii_digit())?]
        .parse()
        .ok()
}

/// One dependence rule sets every `simd` loop's lanes, once, in the gate:
/// the compile's diagnostic, CodeGen's metadata and the VM's width all
/// follow from it, and every entrance prints what the program prints
/// without OpenMP at every width on both lowering paths.
#[test]
fn simd_lanes_are_decided_once_on_every_entrance() {
    let daemon = Daemon::start();
    let remote = format!("--remote={}", daemon.socket.display());
    for p in &SIMD_PROBES {
        let name = p.name;
        let file = write_temp(&format!("simd_{name}.c"), p.source);
        let oracle = ompltc(&["--no-openmp", "--serial", "--run"], &file);
        assert_eq!(oracle.code, Some(0), "{name}: {}", oracle.stderr);

        let compiled = ompltc(&[], &file);
        assert_eq!(compiled.code, Some(0), "{name}: {}", compiled.stderr);
        match p.warning {
            Some(text) => {
                assert_eq!(compiled.stderr.matches("warning: ").count(), 1, "{name}");
                assert!(
                    compiled.stderr.contains(text),
                    "{name}: {}",
                    compiled.stderr
                );
            }
            None => assert_eq!(compiled.stderr, "", "{name}"),
        }
        // `--analyze` has nothing to add about a `simd` loop.
        let analyzed = ompltc(&["--analyze"], &file);
        assert_eq!(
            analyzed.code,
            Some(i32::from(p.warning.is_some())),
            "{name}"
        );
        assert_eq!(analyzed.stderr, compiled.stderr, "{name}");

        for lowering in [None, Some("--enable-irbuilder")] {
            let with = |extra: &[&str]| -> Vec<String> {
                (lowering.into_iter().chain(extra.iter().copied()))
                    .map(String::from)
                    .collect()
            };
            let run = |args: &[String]| {
                ompltc(&args.iter().map(String::as_str).collect::<Vec<_>>(), &file)
            };
            let ir = run(&with(&["--emit-ir"])).stdout;
            let md = format!("{name} {lowering:?}");
            assert_eq!(
                ir.contains("llvm.loop.vectorize.enable"),
                p.lanes_at_4.is_some(),
                "{md}"
            );
            match p.safelen {
                Some(n) => assert!(
                    ir.contains(&format!("\"llvm.loop.vectorize.safelen\", i32 {n}")),
                    "{md}"
                ),
                None => assert!(!ir.contains("llvm.loop.vectorize.safelen"), "{md}"),
            }

            let counters = write_temp(&format!("simd_{name}.counters.json"), "");
            let flag = format!("--counters-json={}", counters.display());
            let vm4 = [
                "--backend=vm:strict",
                "--vector-width=4",
                "--serial",
                "--run",
            ];
            let widened = run(&with(&[&vm4[..], &[flag.as_str()]].concat()));
            assert_eq!(widened.stdout, oracle.stdout, "{md}");
            let lanes_at_4 = p.lanes_at_4;
            let json = std::fs::read_to_string(&counters).unwrap();
            let loops = u64::from(lanes_at_4.is_some());
            assert_eq!(counter(&json, "vm.simd.widened_loops"), Some(loops), "{md}");
            // The checksum loop after a widened `simd` loop only reads: it
            // widens on the VM's own proof at the requested width, and still
            // prints the interpreter's checksum.
            let interp = run(&with(&["--backend=interp", "--serial", "--run"]));
            assert_eq!(widened.stdout, interp.stdout, "{md}");
            if let Some(lanes) = lanes_at_4 {
                assert_eq!(counter(&json, "vm.simd.proven_loops"), Some(1), "{md}");
                let bytecode = run(&with(&[
                    "--backend=vm",
                    "--vector-width=4",
                    "--emit-bytecode",
                ]));
                // The `simd` loop's own ops: the blocks of the listing that
                // write lanes to memory (the checksum loop only reads).
                let simd_blocks: Vec<&str> = (bytecode.stdout.split("\nL"))
                    .filter(|b| b.contains("vstore") || b.contains("vscatter"))
                    .collect();
                assert!(!simd_blocks.is_empty(), "{md}");
                for block in simd_blocks {
                    assert!(block.contains(&format!(".x{lanes}")), "{md}: {block}");
                    assert_eq!(block.contains(".x4"), lanes == 4, "{md}: {block}");
                }
            }

            let mut entrances = vec![with(&["--backend=interp", "--serial", "--run"])];
            for width in ["0", "2", "4", "8"] {
                let w = format!("--vector-width={width}");
                let local = with(&["--backend=vm:strict", &w, "--serial", "--run"]);
                let remoted = [vec![remote.clone()], local.clone()].concat();
                entrances.extend([local, remoted]);
            }
            for args in entrances {
                let got = run(&args);
                assert_eq!(got.code, Some(0), "{name} {args:?}: {}", got.stderr);
                assert_eq!(got.stdout, oracle.stdout, "{name} {args:?}");
                assert_eq!(got.stderr, compiled.stderr, "{name} {args:?}");
            }
        }

        // The tuner: a warned loop is a finding its baseline must not have;
        // a clean one tunes, and no candidate width diverges.
        let tuned = ompltc(&["--autotune"], &file);
        if p.warning.is_some() {
            assert_eq!(tuned.code, Some(1), "{name}: {}", tuned.stderr);
            assert!(
                tuned
                    .stderr
                    .contains("the input itself fails the legality/analysis gate"),
                "{name}: {}",
                tuned.stderr
            );
        } else {
            assert_eq!(tuned.code, Some(0), "{name}: {}", tuned.stderr);
            assert!(
                tuned.stdout.contains(" 0 diverged"),
                "{name}: {}",
                tuned.stdout
            );
        }
    }
}

/// `-Wrace` is part of every compile: the racy loop gets the same located
/// warning on every entrance — the program still runs as written — and the
/// tuner never ranks a candidate that races.
#[test]
fn a_race_warns_on_every_entrance() {
    use omplt::protocol::{read_frame, write_frame, JobRequest, JobResponse};
    let daemon = Daemon::start();
    let remote = format!("--remote={}", daemon.socket.display());
    let source = ROWS_THEN_COLUMNS.replace(
        "  #pragma omp parallel for\n",
        "  #pragma omp parallel for\n  #pragma omp interchange\n",
    );
    let file = write_temp("racy_interchange.c", &source);
    let name = file.display().to_string();
    let compiled = ompltc(&[], &file);
    assert_eq!(compiled.code, Some(0), "{}", compiled.stderr);
    assert_eq!(compiled.stderr.matches("warning: ").count(), 1);
    assert!(
        compiled.stderr.starts_with(&format!(
            "{name}:11:11: warning: loop-carried access to shared array 'a' in \
             '#pragma omp parallel for'"
        )) && compiled.stderr.contains("[-Wrace]"),
        "{}",
        compiled.stderr
    );

    let oracle = ompltc(&["--no-openmp", "--serial", "--run"], &file);
    for args in [
        vec!["--run", "--backend=vm", "--serial"],
        vec![remote.as_str(), "--run", "--backend=vm", "--serial"],
    ] {
        let got = ompltc(&args, &file);
        assert_eq!(got.code, Some(0), "{args:?}: {}", got.stderr);
        assert_eq!(got.stdout, oracle.stdout, "{args:?}");
        assert_eq!(got.stderr, compiled.stderr, "{args:?}");
    }

    // A job straight on the daemon's socket, as any client sends it.
    let mut job = JobRequest::new(1, &name, &source);
    job.opts.backend = omplt::Backend::Vm;
    job.opts.serial = true;
    job.run = true;
    let mut stream = UnixStream::connect(&daemon.socket).unwrap();
    write_frame(&mut stream, job.render().as_bytes()).unwrap();
    let reply = read_frame(&mut stream).unwrap().expect("a reply");
    let resp = JobResponse::parse(&String::from_utf8(reply).unwrap()).expect("a job reply");
    assert_eq!(resp.exit_code, 0, "{}", resp.stderr);
    assert_eq!(resp.stdout, oracle.stdout);
    assert_eq!(resp.stderr, compiled.stderr);

    let analyzed = ompltc(&["--analyze"], &file);
    assert_eq!(analyzed.code, Some(1));
    assert_eq!(analyzed.stderr, compiled.stderr);

    // The tuner inserts that `interchange` into the race-free loop itself:
    // each such candidate is pruned with the warning, nothing else is.
    let tuned = ompltc(&["--autotune"], &write_temp("rows.c", ROWS_THEN_COLUMNS));
    assert_eq!(tuned.code, Some(0), "{}", tuned.stderr);
    let pruned =
        (tuned.stdout.split("pruned (illegal) candidates:\n").nth(1)).expect("a pruned candidate");
    let pruned: Vec<&str> = pruned.lines().collect();
    assert!(!pruned.is_empty());
    for pair in pruned.chunks(2) {
        assert!(pair[0].ends_with(" s0.+interchange21"), "{pair:?}");
        assert!(
            pair[1].starts_with("      warning: loop-carried access to shared array 'a'")
                && pair[1].ends_with("[-Wrace]"),
            "{pair:?}"
        );
    }
    let ranked = tuned
        .stdout
        .lines()
        .filter(|l| l.contains("+interchange21"));
    assert_eq!(ranked.count(), pruned.len() / 2, "{}", tuned.stdout);
}

/// `reverse` over two pointer parameters the caller aliases (`p == q + 1`)
/// prints 606124 reversed and 350684 as written. Two distinct arrays never
/// alias, but a pointer may point into anything: the gate cannot judge the
/// nest, and says so on every compile naming both pointers (the same loop
/// over one array is refused outright).
#[test]
fn reverse_through_aliasing_pointers_is_an_analysis_limit() {
    let file = write_temp(
        "reverse_alias.c",
        &SIMD_PROBES[1]
            .source
            .replace("#pragma omp simd", "#pragma omp reverse"),
    );
    let warning = "warning: cannot verify the legality of '#pragma omp reverse': some accesses \
                   are beyond the dependence tests [-Wanalysis-limit]";
    for args in [&[][..], &["--run"], &["--analyze"]] {
        let got = ompltc(args, &file);
        assert_eq!(got.code, Some(i32::from(args == ["--analyze"])), "{args:?}");
        assert!(got.stderr.contains(warning), "{args:?}: {}", got.stderr);
        assert!(
            got.stderr.contains("note: 'p': pointer may alias 'q'"),
            "{args:?}: {}",
            got.stderr
        );
    }
}

/// A range-`for`'s `long &v` is the element `__begin` points at, an element
/// of the array the range walks, so the gate judges `v` as it judges `*p`
/// in a pointer loop over that array. On both paths the race-free and
/// dependence-free rows of `range_for.c` get no finding naming `v`, and
/// `v = a[0] + v`, whose first iteration writes the `a[0]` every iteration
/// reads, is refused under `reverse` and a 2-D `interchange`, is a race
/// under `parallel for` and never runs widened under `simd`. Through the
/// pointer loop the gate sees the same elements of `a`.
#[test]
fn a_range_for_is_judged_as_its_pointer_loop() {
    let rows = fixture("range_for.c");
    let program = |name: &str, pragma: &str, nest: &str, body: &str| {
        let src = format!(
            "void print_i64(long v);\nlong a[7];\nint main(void) {{\n\
             \x20 for (int i = 0; i < 7; i += 1)\n    a[i] = i + 1;\n\
             \x20 #pragma omp {pragma}\n  {nest}\n    {body}\n\
             \x20 for (int i = 0; i < 7; i += 1)\n    print_i64(a[i]);\n  return 0;\n}}\n"
        );
        write_temp(name, &src)
    };
    let carried =
        |name: &str, pragma: &str, nest: &str| program(name, pragma, nest, "v = a[0] + v;");
    let simd = carried("range_for_carried.c", "simd", "for (long &v : a)");
    let refused = [
        carried("range_for_reverse.c", "reverse", "for (long &v : a)"),
        carried(
            "range_for_interchange.c",
            "interchange",
            "for (int i = 0; i < 2; i += 1) for (long &v : a)",
        ),
        program(
            "pointer_reverse.c",
            "reverse",
            "for (long *p = a; p < a + 7; p++)",
            "*p = a[0] + *p;",
        ),
    ];
    let race = carried("range_for_race.c", "parallel for", "for (long &v : a)");
    let pointer_simd = program(
        "pointer_carried.c",
        "simd",
        "for (long *p = a + 1; p < a + 7; p++)",
        "*p = p[-1] * 2 + 1;",
    );
    let oracle = ompltc(&["--no-openmp", "--run"], &simd);
    assert_eq!(oracle.stdout, "2\n4\n5\n6\n7\n8\n9\n");
    let counters = write_temp("range_for_carried.counters.json", "");
    let flag = format!("--counters-json={}", counters.display());
    for path in [&[][..], &["--enable-irbuilder"]] {
        let analyzed = ompltc(&[path, &["--analyze"]].concat(), &rows);
        assert!(
            !analyzed.stderr.contains("'v'"),
            "{path:?}: {}",
            analyzed.stderr
        );
        let findings: Vec<&str> = (analyzed.stderr.lines())
            .filter(|l| l.contains(": warning: ") || l.contains(": error: "))
            .collect();
        assert_eq!(findings.len(), 1, "{path:?}: {}", analyzed.stderr);
        assert!(
            findings[0].contains("'#pragma omp simd' is not applied")
                && findings[0].contains("dependence on 'a'"),
            "{path:?}: {}",
            findings[0]
        );
        let vm4 = [
            "--backend=vm:strict",
            "--vector-width=4",
            "--opt",
            "--run",
            &flag,
        ];
        let ran = ompltc(&[path, &vm4[..]].concat(), &simd);
        assert_eq!(ran.stdout, oracle.stdout, "{path:?}: {}", ran.stderr);
        assert!(
            ran.stderr.contains("is not applied"),
            "{path:?}: {}",
            ran.stderr
        );
        let json = std::fs::read_to_string(&counters).unwrap();
        assert_eq!(counter(&json, "vm.simd.widened_loops"), Some(0), "{path:?}");
        for src in &refused {
            let out = ompltc(&[path, &["--analyze"]].concat(), src);
            assert_eq!(out.code, Some(1), "{path:?} {}", src.display());
            assert!(
                out.stderr.contains("' is illegal here: ") && out.stderr.contains("on 'a'"),
                "{path:?}: {}",
                out.stderr
            );
        }
        let out = ompltc(&[path, &["--analyze"]].concat(), &pointer_simd);
        assert!(
            out.stderr
                .contains("flow dependence on 'a' with distance vector (1)"),
            "{path:?}: {}",
            out.stderr
        );
        let out = ompltc(&[path, &["--analyze"]].concat(), &race);
        assert!(
            out.stderr.contains("shared array 'a'") && out.stderr.contains("[-Wrace]"),
            "{path:?}: {}",
            out.stderr
        );
    }
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
