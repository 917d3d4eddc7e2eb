//! The runtime boundary is one table (`omplt_ir::runtime_abi`): these tests
//! hold the lowerings, the shared runtime and both engines to it.
//!
//! * the rows are well-formed and `from_name` inverts them;
//! * the runtime's one arity rule covers every row on both engines;
//! * every runtime extern either lowering declares carries its row's
//!   signature, and every call passes at least the fixed parameters;
//! * every reduction row computes the serial result;
//! * no source file outside the table's spells a runtime name or a schedule
//!   number.
//!
//! The same scan holds the other "one definition" of `omplt-ir`: what an
//! operator means is written in `omplt_ir::arith` and nowhere else.

use omplt::codegen::ir_type;
use omplt::interp::{ExecError, Interpreter, RuntimeConfig};
use omplt::ir::{Function, Inst, IrBuilder, IrType, Module, RtFn, Value};
use omplt::vm::{compile_module, VmEngine};
use omplt::{Backend, CompilerInstance, OpenMpCodegenMode, Options};
use std::collections::BTreeSet;
use std::path::Path;

mod scan;
use scan::{shipped_sources, shipped_text};

const MODES: [OpenMpCodegenMode; 2] = [OpenMpCodegenMode::Classic, OpenMpCodegenMode::IrBuilder];

fn is_lowering_target(name: &str) -> bool {
    name.starts_with("__kmpc_") || name.starts_with("__omplt_")
}

#[test]
fn rows_are_unique_and_from_name_inverts_them() {
    let mut names = BTreeSet::new();
    for (i, row) in RtFn::ROWS.iter().enumerate() {
        assert!(names.insert(row.name), "'{}' is declared twice", row.name);
        assert_eq!(row.func as usize, i, "'{}' is out of order", row.name);
        assert_eq!(RtFn::from_name(row.name), Some(row.func));
        assert_eq!(row.func.row().name, row.name);
        assert!(!row.params.contains(&IrType::Void), "{}", row.name);
    }
    assert_eq!(RtFn::from_name("__kmpc_fork"), None, "no prefix matching");
    let variadic: Vec<&str> = (RtFn::ROWS.iter().filter(|r| r.variadic))
        .map(|r| r.name)
        .collect();
    assert_eq!(variadic, ["__kmpc_fork_call"]);
}

/// `main` calling `callee` with `args`, nothing else.
fn one_call_module(name: &str, args: Vec<Value>, ret: IrType) -> Module {
    let mut m = Module::new();
    let callee = m.intern(name);
    let mut f = Function::new("main", vec![], IrType::I32);
    let mut b = IrBuilder::new(&mut f);
    b.call(callee, args, ret);
    b.ret(Some(Value::i32(0)));
    m.add_function(f);
    m
}

fn run_on_both_engines(m: &Module) -> [(&'static str, Result<String, ExecError>); 2] {
    let cfg = RuntimeConfig::default();
    let interp = Interpreter::new(m, cfg).run_main();
    let code = compile_module(m).expect("bytecode compiles");
    let vm = VmEngine::new(m, &code, cfg).and_then(|e| e.run_main());
    [("interp", interp), ("vm", vm)].map(|(engine, r)| (engine, r.map(|r| r.stdout)))
}

#[test]
fn every_row_refuses_a_short_call_on_both_engines() {
    for row in RtFn::ROWS {
        let Some((_, short)) = row.params.split_last() else {
            continue; // nothing to leave out
        };
        let args = short.iter().map(|ty| Value::Undef(*ty)).collect();
        let m = one_call_module(row.name, args, row.ret);
        for (engine, got) in run_on_both_engines(&m) {
            let Err(ExecError::Malformed(msg)) = &got else {
                panic!("{} on {engine}: expected Malformed, got {got:?}", row.name);
            };
            let plural = if row.params.len() == 1 { "" } else { "s" };
            let expected = format!(
                "call to '{}' needs {} argument{plural}, got {}",
                row.name,
                row.params.len(),
                short.len()
            );
            assert_eq!(msg, &expected, "on {engine}");
        }
    }
    // A name the table lacks stays an unknown function, on both engines.
    let m = one_call_module("__omplt_atomic_max_i64", vec![], IrType::Void);
    for (engine, got) in run_on_both_engines(&m) {
        let expected = ExecError::UnknownFunction("__omplt_atomic_max_i64".into());
        assert_eq!(got, Err(expected), "on {engine}");
    }
    // Nor does a well-formed call with a forged function pointer panic: the
    // tag bit is set, the symbol it names does not exist.
    let forged = Value::ConstInt {
        ty: IrType::Ptr,
        val: -1,
    };
    let fork = RtFn::ForkCall.row();
    let m = one_call_module(fork.name, vec![forged, Value::i32(0)], fork.ret);
    for (engine, got) in run_on_both_engines(&m) {
        let expected = ExecError::Malformed("fork_call target is not a function".into());
        assert_eq!(got, Err(expected), "on {engine}");
    }
}

/// Every schedule kind, `taskloop`, `nowait`, `num_threads`, `for simd` and
/// one reduction per row.
fn every_row_source() -> String {
    let mut src =
        String::from("void print_i64(long v);\nlong a[64];\nint main(void) {\n  long s = 0;\n");
    for sched in [
        "static",
        "static, 3",
        "dynamic",
        "dynamic, 4",
        "guided, 2",
        "runtime",
        "auto",
    ] {
        src += &format!(
            "  #pragma omp parallel for schedule({sched}) num_threads(3)\n  \
             for (int i = 0; i < 64; i += 1) a[i] = a[i] + i;\n"
        );
    }
    src += "  #pragma omp parallel\n  {\n    #pragma omp for nowait\n    \
            for (int i = 0; i < 32; i += 1) a[i] = a[i] + 1;\n    \
            #pragma omp for simd\n    for (int i = 32; i < 64; i += 1) a[i] = a[i] + 2;\n  }\n  \
            #pragma omp taskloop\n  for (int i = 0; i < 8; i += 1) a[i] = a[i] + 1;\n";
    for (n, ty) in ["int", "long", "float", "double"].into_iter().enumerate() {
        for (op, name) in [("+", "add"), ("*", "mul")] {
            src += &format!(
                "  {ty} r_{name}{n} = 1;\n  #pragma omp parallel for reduction({op}: r_{name}{n})\n  \
                 for (int i = 0; i < 4; i += 1) r_{name}{n} {op}= 2;\n  s += (long)r_{name}{n};\n"
            );
        }
    }
    src + "  for (int i = 0; i < 64; i += 1) s += a[i];\n  print_i64(s);\n  return 0;\n}\n"
}

fn lower(name: &str, src: &str, codegen_mode: OpenMpCodegenMode) -> Module {
    let mut ci = CompilerInstance::new(Options {
        codegen_mode,
        ..Options::default()
    });
    let tu = ci.parse_source(name, src).expect("parses");
    ci.codegen(&tu).expect("lowers")
}

#[test]
fn every_lowered_runtime_extern_carries_its_rows_signature() {
    let mut corpus = vec![("every_row.c".to_string(), every_row_source())];
    for entry in std::fs::read_dir("examples/c").expect("examples/c") {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        corpus.push((path.display().to_string(), text));
    }
    assert!(corpus.len() >= 5, "examples/c is part of the corpus");
    for mode in MODES {
        let mut seen = BTreeSet::new();
        for (name, src) in &corpus {
            let m = lower(name, src, mode);
            for ext in &m.externs {
                let sym = m.symbol_name(ext.sym);
                if !is_lowering_target(sym) {
                    continue;
                }
                let row = RtFn::from_name(sym)
                    .unwrap_or_else(|| panic!("{name} ({mode:?}) declares '{sym}': no such row"))
                    .row();
                assert_eq!(ext.params, row.params, "{sym} in {name} ({mode:?})");
                assert_eq!(ext.ret, row.ret, "{sym} in {name} ({mode:?})");
                seen.insert(sym.to_string());
            }
            let calls = m.functions.iter().flat_map(|f| &f.insts);
            for inst in calls {
                let Inst::Call { callee, args, .. } = inst else {
                    continue;
                };
                let Some(row) = RtFn::from_name(m.symbol_name(callee.0)).map(RtFn::row) else {
                    continue;
                };
                let fixed = row.params.len();
                let ok = if row.variadic {
                    args.len() >= fixed
                } else {
                    args.len() == fixed
                };
                assert!(
                    ok,
                    "{name} ({mode:?}): {} args to '{}'",
                    args.len(),
                    row.name
                );
            }
        }
        // Both paths reach every entry a lowering can name.
        let all: BTreeSet<String> = (RtFn::ROWS.iter())
            .filter(|r| is_lowering_target(r.name))
            .map(|r| r.name.to_string())
            .collect();
        assert_eq!(seen, all, "{mode:?}");
    }
}

#[test]
fn every_reduction_row_computes_the_serial_result() {
    // `r` starts at 3 and every value is exactly representable in `float`,
    // so any association of the team's partial results gives these numbers —
    // and a combine that overwrote the shared variable would not.
    let cases = [("+", "2", 3 + 20 * 2), ("*", "2", 3 << 20)];
    for (ty, float) in [
        ("int", false),
        ("long", false),
        ("float", true),
        ("double", true),
    ] {
        for (op, k, serial) in cases {
            let print = if float { "print_f64" } else { "print_i64" };
            let src = format!(
                "void print_i64(long v);\nvoid print_f64(double v);\nint main(void) {{\n  \
                 {ty} r = 3;\n  #pragma omp parallel for reduction({op}: r)\n  \
                 for (int i = 0; i < 20; i += 1)\n    r {op}= {k};\n  {print}(r);\n  return 0;\n}}\n"
            );
            let expected = if float {
                format!("{serial}.000000\n")
            } else {
                format!("{serial}\n")
            };
            for codegen_mode in MODES {
                for backend in [Backend::Interp, Backend::VmStrict] {
                    for num_threads in [1, 4] {
                        let opts = Options {
                            codegen_mode,
                            backend,
                            num_threads,
                            ..Options::default()
                        };
                        let got = CompilerInstance::new(opts).compile_and_run("red.c", &src, true);
                        let what = format!(
                            "{ty} {op} on {codegen_mode:?}/{backend:?}, {num_threads} thread(s)"
                        );
                        assert_eq!(got.map(|r| r.stdout), Ok(expected.clone()), "{what}");
                    }
                }
            }
        }
    }
}

/// A user prototype of a runtime entry declares the entry itself, so it must
/// be the row: the runtime reads each argument at the row's type. One that
/// disagrees — a parameter type, the arity or the return type — is refused
/// at the prototype on both paths and both engines, with the row's signature
/// in a note; the same program with the row's prototype runs.
#[test]
fn a_runtime_prototype_that_disagrees_with_its_row_is_refused() {
    // (prototype, statement) refused, (prototype, statement) run, the row.
    let cases = [
        (
            ("void print_i64(double v);", "print_i64(2.5);"),
            ("void print_i64(long v);", "print_i64(2.5);"),
            "void print_i64(i64)",
        ),
        (
            ("void print_f64(long v);", "print_f64(7);"),
            ("void print_f64(double v);", "print_f64(7);"),
            "void print_f64(double)",
        ),
        (
            ("void print_char(int c, int d);", "print_char(65, 66);"),
            ("void print_char(int c);", "print_char(65);"),
            "void print_char(i32)",
        ),
        (
            (
                "long omp_get_thread_num(void);",
                "return omp_get_thread_num();",
            ),
            (
                "int omp_get_thread_num(void);",
                "return omp_get_thread_num();",
            ),
            "i32 omp_get_thread_num()",
        ),
    ];
    let program = |(proto, stmt): (&str, &str)| {
        format!("{proto}\nint main(void) {{\n  {stmt}\n  return 0;\n}}\n")
    };
    for (bad, good, row) in cases {
        let name = row.split(['(', ' ']).nth(1).unwrap();
        for codegen_mode in MODES {
            for backend in [Backend::Interp, Backend::VmStrict] {
                let opts = Options {
                    codegen_mode,
                    backend,
                    ..Options::default()
                };
                let what = format!("{} on {codegen_mode:?}/{backend:?}", bad.0);
                let mut ci = CompilerInstance::new(opts);
                let err = (ci.compile_and_run("p.c", &program(bad), true))
                    .map(|r| r.stdout)
                    .expect_err(&what);
                let wanted = [
                    "p.c:1:".to_string(),
                    format!("error: conflicting types for '{name}'"),
                    format!("note: the runtime declares it as '{row}'"),
                ];
                for w in wanted {
                    assert!(err.contains(&w), "{what}: no {w:?} in {err}");
                }
                let ran = CompilerInstance::new(opts).compile_and_run("p.c", &program(good), true);
                assert!(
                    ran.is_ok(),
                    "{} on {codegen_mode:?}/{backend:?}: {ran:?}",
                    good.0
                );
            }
        }
    }
}

/// Sema's C image of each row is the row: `codegen::ir_type` maps its return
/// and parameter types back to the row's IR signature, so the prototype
/// Sema holds a declaration to is the one calls are lowered at.
#[test]
fn every_rows_c_image_lowers_to_its_ir_signature() {
    let diags = omplt::source::DiagnosticsEngine::new();
    let sm = std::cell::RefCell::new(omplt::source::SourceManager::new());
    let sema = omplt::sema::Sema::new(&diags, &sm, OpenMpCodegenMode::Classic, true);
    for row in RtFn::ROWS {
        let image = sema.runtime_prototype(row);
        let omplt::ast::TypeKind::Function { ret, params } = &image.kind else {
            panic!("{row}: the image of a row is a function type");
        };
        let lowered: Vec<IrType> = params.iter().map(|p| ir_type(p)).collect();
        assert_eq!(ir_type(ret), row.ret, "{row}");
        assert_eq!(lowered, row.params, "{row}");
    }
    assert!(diags.is_empty());
}

#[test]
fn only_the_table_spells_runtime_names_and_schedule_numbers() {
    let table = Path::new("crates/ir/src/runtime_abi.rs");
    let files = shipped_sources();
    assert!(files.iter().any(|f| f == table));
    // Built from pieces so this file would pass its own scan.
    let literals = ["\"__kmpc", "\"__omplt"].map(|p| format!("{p}_"));
    let sched = format!("SCHED{}", "_");
    let declare = format!("declare_extern{}", "(");
    for file in &files {
        let text = shipped_text(file);
        let in_table = file == table;
        for needle in literals.iter().chain([&sched]) {
            assert_eq!(
                text.contains(needle.as_str()),
                in_table && needle != &sched,
                "{needle} in {}",
                file.display()
            );
        }
        // One caller of the raw declaration is left outside `omplt-ir`:
        // user prototypes.
        let may_declare = file.starts_with("crates/ir") || file.ends_with("codegen/src/codegen.rs");
        assert!(
            may_declare || !text.contains(&declare),
            "{} declares an extern by hand",
            file.display()
        );
    }
}

/// What a `BinOpKind`, `CmpPred` or `CastOp` means at an `IrType` is written
/// in `crates/ir/src/arith.rs` (over `IrType::wrap`/`wrap_unsigned` of
/// `types.rs`) and nowhere else: no other shipped file wraps guest integers
/// by hand, and none keeps its own list of the operators that trap.
#[test]
fn only_arith_spells_what_an_operator_means() {
    let home = ["crates/ir/src/arith.rs", "crates/ir/src/types.rs"].map(Path::new);
    // Host arithmetic that is not the guest's, by file and the one spelling
    // it may use.
    let exceptions = [
        // Lane addresses: `base + lane * len` must not panic on a wild base.
        ("crates/interp/src/memory.rs", "add"),
        // The xorshift* step of the tuner's seeded mutation RNG.
        ("crates/tune/src/mutate.rs", "mul"),
        // FNV-1a over cache-key bytes.
        ("src/cache.rs", "mul"),
        // The retry back-off's jitter: a hash of the file name.
        ("src/bin/ompltc.rs", "add"),
        ("src/bin/ompltc.rs", "mul"),
    ];
    // Built from pieces so this file would pass its own scan.
    let wrapping = ["add", "sub", "mul", "div", "rem", "shl", "shr"];
    let unsigned = format!("wrap_unsigned{}", "(");
    let files = shipped_sources();
    assert!(home.iter().all(|h| files.iter().any(|f| f == h)));
    for file in files.iter().filter(|f| !home.contains(&f.as_path())) {
        let text = shipped_text(file);
        for op in wrapping {
            let excepted = (exceptions.iter()).any(|(f, o)| Path::new(f) == file && *o == op);
            assert!(
                excepted || !text.contains(&format!("wrapping_{op}")),
                "{} wraps by hand (wrapping_{op})",
                file.display()
            );
        }
        assert!(
            !text.contains(&unsigned),
            "{} wraps by hand",
            file.display()
        );
        // An or-pattern over the division operators is a second opinion on
        // what traps: `arith::may_trap` is the first and only one.
        let flat = text.split_whitespace().collect::<Vec<_>>().join(" ");
        for op in ["SDiv", "UDiv", "SRem", "URem"] {
            let listed = flat.contains(&format!("{op} |")) || flat.contains(&format!("| {op}"));
            let qualified = flat.contains(&format!("| BinOpKind::{op}"));
            assert!(!listed && !qualified, "{} lists {op}", file.display());
        }
    }
}
