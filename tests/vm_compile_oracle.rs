//! The bytecode compiler's oracles, driven over the example corpus.
//!
//! `omplt-vm` checks itself in debug builds, which is what `cargo test`
//! builds: no function reaches the lowerer holding an instruction the mid
//! end's DCE would delete (the precondition its one liveness solve per
//! function rests on), every solve is compared with the previous per-block
//! `BitSet` solver (`regalloc::reference`), and every hand-off of that
//! solve — to compare/branch fusion after writeback coalescing and, through
//! the block merge and compaction, to the register allocator — asserts
//! that the rows handed over equal a fresh solve (`Analysis::is_current`).
//! The crate cannot parse C, so this file is what puts every function of
//! every `examples/c/*.c`, on both lowering paths, optimized and not, scalar
//! and widened, through those assertions. On top it checks what only a
//! whole compile can show, in any build: that compiling twice gives the
//! same image (no table whose iteration order varies), that liveness is
//! solved exactly once per function (`vm.compile.liveness.solves`), and
//! that no image holds a cast the payload table makes a copy of
//! (`omplt_ir::arith::keeps_payload`).

use omplt::ir::arith::keeps_payload;
use omplt::trace::Session;
use omplt::vm::{Op, VmModule};
use omplt::{CompilerInstance, OpenMpCodegenMode, Options};

/// The scalar and vector casts in `code` that keep their payload, as
/// `function: op` lines.
fn payload_keeping_casts(code: &VmModule) -> Vec<String> {
    let mut found = Vec::new();
    for f in &code.funcs {
        for op in &f.ops {
            if let Op::Cast {
                op: c, from, to, ..
            }
            | Op::VCast {
                op: c, from, to, ..
            } = *op
            {
                if keeps_payload(c, from, to) {
                    found.push(format!("{}: {op:?}", f.name));
                }
            }
        }
    }
    found
}

/// Source → OMPLTBC image and the `vm.compile.*` counters of that compile.
/// Panics if the image holds a cast that keeps its payload: the lowerer
/// and the widener make each such cast a copy.
fn compile(path: &str, source: &str, opts: Options, optimize: bool) -> (Vec<u8>, u64, u64) {
    let mut ci = CompilerInstance::new(opts);
    let tu = ci.parse_source(path, source).expect("example parses");
    let mut module = ci.codegen(&tu).expect("example lowers");
    if optimize {
        ci.optimize(&mut module);
    }
    let session = Session::begin();
    let code = ci.compile_bytecode(&module).expect("example compiles");
    let counters = session.finish().counters;
    let casts = payload_keeping_casts(&code);
    assert!(
        casts.is_empty(),
        "{path}: casts that are copies: {casts:#?}"
    );
    (
        omplt::vm::encode(&code),
        counters["vm.compile.functions"],
        counters["vm.compile.liveness.solves"],
    )
}

#[test]
fn examples_pass_the_compilers_own_oracles_and_compile_deterministically() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/c");
    let mut compiled = 0;
    for entry in std::fs::read_dir(dir).expect("examples/c exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("c") {
            continue;
        }
        let source = std::fs::read_to_string(&path).unwrap();
        let name = path.to_string_lossy();
        for codegen_mode in [OpenMpCodegenMode::Classic, OpenMpCodegenMode::IrBuilder] {
            for vector_width in [0, 4] {
                for optimize in [false, true] {
                    let opts = Options {
                        codegen_mode,
                        vector_width,
                        ..Options::default()
                    };
                    let label = format!("{name} {codegen_mode:?} vw={vector_width} opt={optimize}");
                    let (image, functions, solves) = compile(&name, &source, opts, optimize);
                    let (again, ..) = compile(&name, &source, opts, optimize);
                    assert_eq!(image, again, "[{label}] two compiles, two images");
                    // One solve per function, shared by the peephole
                    // stages and the allocator.
                    assert_eq!(
                        solves, functions,
                        "[{label}] {solves} liveness solves for {functions} functions"
                    );
                    compiled += 1;
                }
            }
        }
    }
    assert!(compiled >= 4 * 8, "only {compiled} compiles ran");
}

/// A value read only by a phi cycle: `t = s` is never used, so the header
/// phi of `s` and the phi joining the conditional write read only each
/// other. Coalescing their edge copies used to leave the merged register
/// live in the handed-over rows with nothing reading it, which debug builds
/// reported as an internal compiler error; the mid end's DCE now deletes
/// the cycle before the VM sees it.
#[test]
fn a_dead_phi_cycle_is_deleted_before_lowering() {
    let source = "\
void print_i64(long v);
int main() {
  int s = 0, c = 3;
  for (int i = 0; i < 10; i++) {
    int t = s;
    if (i < c) s = i;
  }
  print_i64(7);
  return 0;
}
";
    for codegen_mode in [OpenMpCodegenMode::Classic, OpenMpCodegenMode::IrBuilder] {
        for optimize in [false, true] {
            let opts = Options {
                codegen_mode,
                ..Options::default()
            };
            let (image, functions, solves) = compile("cycle.c", source, opts, optimize);
            assert!(!image.is_empty());
            assert_eq!(solves, functions, "{codegen_mode:?} opt={optimize}");
        }
    }
}

/// The ops of each innermost loop of `f`: a backedge — a jump from `pc` to
/// a `target` at or before it — closes the loop `target..=pc`, and an
/// innermost one holds no other.
fn innermost_loop_bodies(f: &omplt::vm::VmFunction) -> Vec<&[Op]> {
    let mut loops = Vec::new();
    for (pc, op) in f.ops.iter().enumerate() {
        op.for_each_target(|t| {
            if t as usize <= pc {
                loops.push(t as usize..pc + 1);
            }
        });
    }
    let holds = |a: &std::ops::Range<usize>, b: &std::ops::Range<usize>| {
        a != b && a.start <= b.start && b.end <= a.end
    };
    (loops.iter())
        .filter(|l| !loops.iter().any(|m| holds(l, m)))
        .map(|l| &f.ops[l.clone()])
        .collect()
}

/// An access computes its own address: in the optimized, scalar and
/// widened bytecode of the stencil and saxpy examples, no innermost loop
/// keeps a `gep` or a `trunc` (their one `trunc` per iteration is the
/// subscript's, folded with the `gep` into the loads and stores).
#[test]
fn innermost_loops_of_the_stencil_and_saxpy_compute_no_address() {
    for example in ["stencil_tiling.c", "saxpy_simd.c"] {
        let path = format!("{}/examples/c/{example}", env!("CARGO_MANIFEST_DIR"));
        let source = std::fs::read_to_string(&path).unwrap();
        for codegen_mode in [OpenMpCodegenMode::Classic, OpenMpCodegenMode::IrBuilder] {
            for vector_width in [0, 4] {
                let opts = Options {
                    codegen_mode,
                    vector_width,
                    ..Options::default()
                };
                let mut ci = CompilerInstance::new(opts);
                let tu = ci.parse_source(&path, &source).expect("example parses");
                let mut module = ci.codegen(&tu).expect("example lowers");
                ci.optimize(&mut module);
                let code = ci.compile_bytecode(&module).expect("example compiles");
                let mut loops = 0;
                for f in &code.funcs {
                    for body in innermost_loop_bodies(f) {
                        loops += 1;
                        let address = (body.iter()).find(|op| {
                            matches!(
                                op,
                                Op::Gep { .. }
                                    | Op::Cast {
                                        op: omplt::ir::CastOp::Trunc,
                                        ..
                                    }
                            )
                        });
                        assert!(
                            address.is_none(),
                            "{example} {codegen_mode:?} vw={vector_width}: @{} computes an \
                             address in an innermost loop:\n{}",
                            f.name,
                            omplt::vm::disasm(f)
                        );
                    }
                }
                assert!(loops >= 2, "{example}: only {loops} innermost loops");
            }
        }
    }
}
