//! Golden tests for the observability surface: `--time-trace` must emit
//! structurally valid Chrome trace-event JSON whose spans nest properly and
//! cover the whole pipeline, `--counters-json` must be deterministic, and a
//! malformed `OMP_SCHEDULE` must warn (text and JSON) instead of being
//! silently absorbed into the balanced-static default.

use omplt::trace::json::{self, Value};
use std::process::Command;

fn ompltc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ompltc"))
}

/// The driver-corpus example the acceptance criteria are phrased against.
const STENCIL: &str = "examples/c/stencil_tiling.c";

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("omplt-trace-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// One `"ph":"X"` complete event, decoded for interval arithmetic.
struct Span {
    name: String,
    tid: u64,
    start: u64,
    end: u64,
}

fn complete_events(doc: &Value) -> Vec<Span> {
    doc.get("traceEvents")
        .expect("traceEvents array")
        .as_array()
        .expect("traceEvents is an array")
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .map(|e| {
            let ts = e.get("ts").and_then(Value::as_u64).expect("numeric ts");
            let dur = e.get("dur").and_then(Value::as_u64).expect("numeric dur");
            Span {
                name: e
                    .get("name")
                    .and_then(Value::as_str)
                    .expect("event name")
                    .to_string(),
                tid: e.get("tid").and_then(Value::as_u64).expect("numeric tid"),
                start: ts,
                end: ts + dur,
            }
        })
        .collect()
}

#[test]
fn time_trace_emits_valid_nested_json_covering_every_stage() {
    let trace = temp_path("stencil.trace.json");
    let out = ompltc()
        .arg(format!("--time-trace={}", trace.display()))
        .args(["--opt", "--verify-each", "--run"])
        .arg(STENCIL)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace).unwrap();
    let doc = json::parse(&text).expect("--time-trace output must be valid JSON");

    let spans = complete_events(&doc);
    // Every pipeline layer must appear: front-end (lex/parse/sema), codegen
    // and the IR check behind it, mid-end passes, verifier re-checks, and the
    // interpreter run — all nested under the root `ompltc` span.
    for stage in [
        "ompltc",
        "frontend",
        "lex.tokenize",
        "parse",
        "sema.directive",
        "codegen",
        "ir.verify",
        "midend",
        "midend.pass",
        "midend.verify-each",
        "interp.run",
    ] {
        assert!(
            spans.iter().any(|s| s.name == stage),
            "no span for stage '{stage}' in:\n{text}"
        );
    }

    // Spans on one thread must be properly nested: any two either disjoint
    // or one contained in the other (that is what makes the flame graph a
    // tree rather than an overlap soup).
    for a in &spans {
        for b in &spans {
            if a.tid != b.tid || (a.start, a.end, &a.name) >= (b.start, b.end, &b.name) {
                continue;
            }
            let disjoint = a.end <= b.start || b.end <= a.start;
            let nested =
                (a.start <= b.start && b.end <= a.end) || (b.start <= a.start && a.end <= b.end);
            assert!(
                disjoint || nested,
                "spans '{}' [{},{}) and '{}' [{},{}) overlap without nesting",
                a.name,
                a.start,
                a.end,
                b.name,
                b.start,
                b.end
            );
        }
    }

    // The root span must account for ≥95% of session wall time (the
    // acceptance bar): everything the driver does happens inside it.
    let wall = doc
        .get("otherData")
        .and_then(|o| o.get("wallTimeUs"))
        .and_then(Value::as_u64)
        .expect("otherData.wallTimeUs");
    let root = spans.iter().find(|s| s.name == "ompltc").unwrap();
    let covered = (root.end - root.start) as f64 / wall.max(1) as f64;
    assert!(
        covered >= 0.95,
        "root span covers {:.1}% of {wall} us wall time",
        covered * 100.0
    );

    // Worker threads attached by the interpreter record under their own
    // virtual tids, so runtime chunks are attributable per thread.
    let counters = doc
        .get("otherData")
        .and_then(|o| o.get("counters"))
        .expect("otherData.counters");
    assert!(
        counters.get("interp.barrier.waits").is_some(),
        "runtime counters must ride along in the trace:\n{text}"
    );
    // The IR verifier counts every function it checks: once each behind
    // codegen (inside the `ir.verify` span), and again after every pass
    // under `--verify-each` (inside `midend.verify-each`).
    assert!(
        counters
            .get("ir.verify.functions")
            .and_then(Value::as_u64)
            .is_some_and(|n| n > 0),
        "verifier re-checks must be counted:\n{text}"
    );
}

#[test]
fn the_bytecode_backend_traces_compile_verify_and_run() {
    // Both verifiers run on every `--backend=vm` compile, each in a span of
    // its own, so their time shows in `--time-report` as rows of their own.
    let trace = temp_path("stencil.vm.trace.json");
    let out = ompltc()
        .arg(format!("--time-trace={}", trace.display()))
        .args(["--opt", "--backend=vm", "--run"])
        .arg(STENCIL)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace).unwrap();
    let spans = complete_events(&json::parse(&text).expect("valid JSON"));
    let root = spans
        .iter()
        .find(|s| s.name == "ompltc")
        .expect("root span");
    for stage in ["ir.verify", "vm.compile", "vm.verify", "vm.run"] {
        assert!(
            spans
                .iter()
                .any(|s| s.name == stage && root.start <= s.start && s.end <= root.end),
            "no span for stage '{stage}' under the root in:\n{text}"
        );
    }
}

#[test]
fn counters_json_is_deterministic_across_runs() {
    let run = |tag: &str| {
        let path = temp_path(&format!("stencil.counters.{tag}.json"));
        let out = ompltc()
            .arg(format!("--counters-json={}", path.display()))
            .args(["--opt", "--verify-each", "--run"])
            .arg(STENCIL)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(&path).unwrap()
    };
    let first = run("a");
    let second = run("b");
    assert_eq!(
        first, second,
        "two runs of the same input must produce byte-identical counters"
    );
    // And the document itself is machine-readable.
    json::parse(&first).expect("--counters-json output must be valid JSON");
}

#[test]
fn every_pass_and_every_verifier_runs_once_per_function() {
    // The default pipeline runs four passes on a function the unroller
    // leaves alone (the second `cleanup` follows only a copied loop), and
    // `--verify-each` adds one IR check after each — not a second run of the
    // bytecode verifier over a module nothing changed in between.
    let path = temp_path("stencil.once.json");
    let out = ompltc()
        .arg(format!("--counters-json={}", path.display()))
        .args(["--opt", "--verify-each", "--backend=vm", "--run"])
        .arg(STENCIL)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let counters = doc.get("counters").expect("counters object");
    let count = |name: &str| counters.get(name).and_then(Value::as_u64);
    let functions = count("vm.compile.functions").expect("functions were compiled");
    for pass in ["promote", "cleanup", "gvn-licm", "loop-unroll"] {
        let runs = count(&format!("midend.pass.{pass}.runs"));
        assert_eq!(runs, Some(functions), "{pass}");
    }
    assert_eq!(count("midend.verify_each.checks"), Some(4 * functions));
    assert_eq!(count("vm.verify.functions"), Some(functions));
}

#[test]
fn counters_reproduce_c1_node_counts_from_instrumentation_alone() {
    // Experiment C1 (paper: "reduced from the 36 shadow AST nodes required
    // by OMPLoopDirective" to 3 meta items) read straight from the driver's
    // `--counters-json`, with no test-side AST walking. The stencil's
    // `parallel for` builds the 23-node helper bundle on the classic path;
    // on the irbuilder path each of the two levels its `tile sizes(4, 4)`
    // is associated with is one `OMPCanonicalLoop` of 3 meta items.
    let classic = temp_path("c1.classic.json");
    let out = ompltc()
        .arg(format!("--counters-json={}", classic.display()))
        .arg(STENCIL)
        .output()
        .unwrap();
    assert!(out.status.success());
    let doc = json::parse(&std::fs::read_to_string(&classic).unwrap()).unwrap();
    let counters = doc.get("counters").expect("counters object");
    assert_eq!(
        counters
            .get("sema.shadow.helper_nodes")
            .and_then(Value::as_u64),
        Some(23),
        "classic helper bundle node count"
    );
    assert!(
        counters.get("sema.canonical.meta_items").is_none(),
        "classic mode must not build canonical meta items"
    );

    let irb = temp_path("c1.irbuilder.json");
    let out = ompltc()
        .arg(format!("--counters-json={}", irb.display()))
        .arg("--enable-irbuilder")
        .arg(STENCIL)
        .output()
        .unwrap();
    assert!(out.status.success());
    let doc = json::parse(&std::fs::read_to_string(&irb).unwrap()).unwrap();
    let counters = doc.get("counters").expect("counters object");
    assert_eq!(
        counters
            .get("sema.canonical.meta_items")
            .and_then(Value::as_u64),
        Some(6),
        "canonical meta-item count"
    );
    assert!(
        counters.get("sema.shadow.helper_nodes").is_none(),
        "irbuilder mode must not build the helper bundle"
    );
}

const RUNTIME_SCHED: &str = "void print_i64(long v);\nint main(void) {\n  #pragma omp parallel num_threads(2)\n  {\n    #pragma omp for schedule(runtime)\n    for (int i = 0; i < 4; i += 1)\n      print_i64(i);\n  }\n  return 0;\n}\n";

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = temp_path(name);
    std::fs::write(&path, contents).unwrap();
    path
}

#[test]
fn malformed_omp_schedule_warns_exactly_and_falls_back() {
    let p = write_temp("rt_sched.c", RUNTIME_SCHED);
    for (value, reason) in [
        ("dynamic,0", "chunk size must be positive, got 0"),
        ("guided,-4", "chunk size must be positive, got -4"),
        ("dynamic,abc", "invalid chunk size 'abc'"),
        ("fifo,2", "unknown schedule kind 'fifo'"),
    ] {
        let out = ompltc()
            .env("OMP_SCHEDULE", value)
            .arg("--run")
            .arg(&p)
            .output()
            .unwrap();
        // Explicit fallback: the warning is emitted AND the program still
        // runs to completion on the balanced-static default.
        assert!(out.status.success(), "OMP_SCHEDULE={value}");
        let expected = format!(
            "<unknown>: warning: ignoring malformed OMP_SCHEDULE value \
             '{value}' ({reason}); falling back to balanced static schedule\n"
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            expected,
            "OMP_SCHEDULE={value}"
        );
        let mut got: Vec<i64> = String::from_utf8_lossy(&out.stdout)
            .lines()
            .map(|l| l.parse().unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3], "OMP_SCHEDULE={value}");
    }
}

#[test]
fn malformed_omp_schedule_warns_in_json_format() {
    let p = write_temp("rt_sched_json.c", RUNTIME_SCHED);
    let out = ompltc()
        .env("OMP_SCHEDULE", "dynamic,0")
        .args(["--run", "--diag-format=json"])
        .arg(&p)
        .output()
        .unwrap();
    assert!(out.status.success());
    let expected = "[{\"level\":\"warning\",\"message\":\"ignoring malformed \
                    OMP_SCHEDULE value 'dynamic,0' (chunk size must be \
                    positive, got 0); falling back to balanced static \
                    schedule\",\"file\":null,\"notes\":[]}]\n";
    assert_eq!(String::from_utf8_lossy(&out.stderr), expected);
}

#[test]
fn well_formed_omp_schedule_does_not_warn() {
    let p = write_temp("rt_sched_ok.c", RUNTIME_SCHED);
    for value in ["static", "dynamic,2", "guided,1"] {
        let out = ompltc()
            .env("OMP_SCHEDULE", value)
            .arg("--run")
            .arg(&p)
            .output()
            .unwrap();
        assert!(out.status.success(), "OMP_SCHEDULE={value}");
        assert!(
            out.stderr.is_empty(),
            "OMP_SCHEDULE={value} warned: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
