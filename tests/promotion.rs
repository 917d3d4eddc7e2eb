//! What promoting slots in the mid end (`omplt_midend::promote`) may and may
//! not change: every program prints what it printed with its locals in
//! memory, on both engines and both lowering paths.
//!
//! * A local read before any write reads zero — what a fresh `alloca` holds,
//!   also when it re-executes inside a loop.
//! * A local whose address escapes keeps its `alloca`.
//! * A `simd` loop is promoted like any other, and the VM widens it over its
//!   phis, whether the mid end or the VM itself promoted it.
//! * Fewer retired ops do not let a run escape its `--fuel` budget.

use omplt::interp::RunResult;
use omplt::ir::{print_module, Function, Inst, IrBuilder, IrType, Module, Value};
use omplt::{Backend, CompilerInstance, OpenMpCodegenMode, Options};

const MODES: [OpenMpCodegenMode; 2] = [OpenMpCodegenMode::Classic, OpenMpCodegenMode::IrBuilder];
const BACKENDS: [Backend; 2] = [Backend::Interp, Backend::VmStrict];

/// `src` lowered under `opts`, optimized or not, and run.
fn run(src: &str, opts: Options, optimize: bool) -> (Module, Result<RunResult, String>) {
    let mut ci = CompilerInstance::new(opts);
    let tu = ci.parse_source("p.c", src).expect("parses");
    let mut module = ci.codegen(&tu).expect("lowers");
    if optimize {
        ci.optimize(&mut module);
    }
    let result = ci.run(&module).map_err(|e| e.to_string());
    (module, result)
}

/// Runs `src` optimized on every engine and path; each must print `expected`
/// — which the unoptimized run prints too — and pass the module to `check`.
fn on_every_engine(src: &str, expected: &str, check: impl Fn(&Module)) {
    for codegen_mode in MODES {
        for backend in BACKENDS {
            let opts = Options {
                codegen_mode,
                backend,
                ..Options::default()
            };
            let (module, optimized) = run(src, opts, true);
            let (_, plain) = run(src, opts, false);
            let at = format!("{codegen_mode:?} on {backend:?}");
            assert_eq!(optimized.expect(&at).stdout, expected, "{at}");
            assert_eq!(plain.expect(&at).stdout, expected, "{at} unoptimized");
            check(&module);
        }
    }
}

/// The names of the `alloca`s left in `func`.
fn allocas(module: &Module, func: &str) -> Vec<String> {
    let f = module.function(func).expect("function exists");
    let insts = f.blocks.iter().flat_map(|b| &b.insts);
    insts
        .filter_map(|&i| match f.inst(i) {
            Inst::Alloca { name, .. } => Some(name.clone()),
            _ => None,
        })
        .collect()
}

#[test]
fn a_local_read_before_any_write_reads_zero() {
    // A body local is one slot of the function (its `alloca` is in the
    // entry block), so it keeps its value from one iteration to the next.
    let src = "void print_i64(long v);\nint main(void) {\n  int x;\n  print_i64(x);\n  for (int i = 0; i < 3; i += 1) {\n    int y;\n    print_i64(y);\n    y = i + 7;\n  }\n  return 0;\n}\n";
    on_every_engine(src, "0\n0\n7\n8\n", |m| {
        assert_eq!(allocas(m, "main"), Vec::<String>::new());
    });
}

#[test]
fn an_alloca_that_reexecutes_in_a_loop_reads_zero_every_iteration() {
    // No lowering emits this shape, so it is built by hand: the slot is
    // allocated, read, then written inside the body of a three-trip loop.
    let lowered = || {
        let mut m = Module::new();
        let sink = m.intern("print_i64");
        let mut f = Function::new("main", vec![], IrType::I32);
        let mut b = IrBuilder::new(&mut f);
        omplt::ompirb::create_canonical_loop(&mut b, Value::i64(3), "i", |b, iv| {
            let x = b.alloca(IrType::I64, 1, "x");
            let v = b.load(IrType::I64, x);
            b.call(sink, vec![v], IrType::Void);
            let next = b.add(iv, Value::i64(7));
            b.store(next, x);
        });
        b.ret(Some(Value::i32(0)));
        m.add_function(f);
        m
    };
    for backend in BACKENDS {
        let ci = CompilerInstance::new(Options {
            backend,
            ..Options::default()
        });
        let mut promoted = lowered();
        let (_, errs) = omplt::midend::run_default_pipeline(&mut promoted, true);
        assert_eq!(errs, vec![]);
        assert_eq!(allocas(&promoted, "main"), Vec::<String>::new());
        for m in [lowered(), promoted] {
            let out = ci.run(&m).expect("runs").stdout;
            assert_eq!(out, "0\n0\n0\n", "{backend:?}:\n{}", print_module(&m));
        }
    }
}

#[test]
fn a_local_whose_address_escapes_keeps_its_alloca() {
    // `x` is passed to a call, `y` stored to memory; `z` is promoted.
    let src = "void print_i64(long v);\nint *keep;\nvoid bump(int *p) { *p = *p + 1; }\nint main(void) {\n  int x = 4;\n  bump(&x);\n  int y = 5;\n  keep = &y;\n  *keep = *keep + 1;\n  int z = x + y;\n  print_i64(x);\n  print_i64(y);\n  print_i64(z);\n  return 0;\n}\n";
    on_every_engine(src, "5\n6\n11\n", |m| {
        assert_eq!(allocas(m, "main"), ["x", "y"]);
    });
}

#[test]
fn a_simd_loop_is_promoted_and_still_widens() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/c/saxpy_simd.c");
    let src = std::fs::read_to_string(path).unwrap();
    for codegen_mode in MODES {
        for optimize in [false, true] {
            let opts = Options {
                codegen_mode,
                backend: Backend::VmStrict,
                vector_width: 4,
                ..Options::default()
            };
            let at = format!("{codegen_mode:?}, optimized: {optimize}");
            let session = omplt::trace::Session::begin();
            let (module, result) = run(&src, opts, optimize);
            let counters = session.finish().counters;
            assert_eq!(result.expect(&at).stdout, "16583\n", "{at}");
            assert_eq!(counters["vm.simd.widened_loops"], 1, "{at}");
            assert_eq!(counters["vm.simd.refused"], 0, "{at}");
            if optimize {
                // Only the classic path's shared `checksum` stays in memory:
                // its address goes to the reduction's atomic combine, after
                // the loop.
                let escaping: &[&str] = match codegen_mode {
                    OpenMpCodegenMode::Classic => &["checksum"],
                    OpenMpCodegenMode::IrBuilder => &[],
                };
                assert_eq!(allocas(&module, "main"), escaping, "{at}");
            }
        }
    }
}

#[test]
fn fewer_retired_ops_still_exhaust_the_fuel() {
    let src = "void print_i64(long v);\nint main(void) {\n  long s = 0;\n  for (long i = 0; i < 100000000; i += 1)\n    s += i;\n  print_i64(s);\n  return 0;\n}\n";
    for codegen_mode in MODES {
        for backend in BACKENDS {
            let opts = Options {
                codegen_mode,
                backend,
                max_steps: 20_000,
                ..Options::default()
            };
            let (_, result) = run(src, opts, true);
            let err = result.expect_err("the budget runs out");
            assert!(err.contains("step budget exhausted"), "{err}");
        }
    }
}
