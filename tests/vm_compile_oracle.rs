//! The bytecode compiler's oracles, driven over the example corpus.
//!
//! `omplt-vm` checks itself in debug builds, which is what `cargo test`
//! builds: every liveness solve is compared with the previous per-block
//! `BitSet` solver (`regalloc::reference`), and every hand-off of a solve —
//! from dead-op elimination to writeback coalescing, to compare/branch
//! fusion and, through the block merge and compaction, to the register
//! allocator — asserts that the rows handed over equal a fresh solve
//! (`Analysis::is_current`). The crate cannot parse C, so this file is what
//! puts every function of every `examples/c/*.c`, on both lowering paths,
//! optimized and not, scalar and widened, through those assertions. On top
//! it checks what only a whole compile can show, in any build: that
//! compiling twice gives the same image (no table whose iteration order
//! varies), and that the solve really is shared
//! (`vm.compile.liveness.solves`).

use omplt::trace::Session;
use omplt::{CompilerInstance, OpenMpCodegenMode, Options};

/// Source → OMPLTBC image and the `vm.compile.*` counters of that compile.
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
                    // One solve per dead-op sweep (at least one, and the
                    // examples never need more than three); none for the
                    // four consumers that used to solve for themselves.
                    assert!(
                        (functions..=3 * functions).contains(&solves),
                        "[{label}] {solves} liveness solves for {functions} functions"
                    );
                    compiled += 1;
                }
            }
        }
    }
    assert!(compiled >= 4 * 8, "only {compiled} compiles ran");
}
