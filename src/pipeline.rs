//! Convenience helpers for tests, examples and benchmarks: run a source
//! snippet through the whole pipeline in one call.

use crate::compiler::{CompilerInstance, Options};
use omplt_ast::OpenMpCodegenMode;
use omplt_interp::RunResult;

/// Compiles and runs `source` with default options; panics on any error
/// (test helper).
pub fn run_source(source: &str) -> RunResult {
    run_source_with(source, Options::default(), true)
}

/// Compiles and runs with explicit options.
pub fn run_source_with(source: &str, opts: Options, optimize: bool) -> RunResult {
    let mut ci = CompilerInstance::new(opts);
    match ci.compile_and_run("input.c", source, optimize) {
        Ok(r) => r,
        Err(e) => panic!("pipeline failed:\n{e}"),
    }
}

/// Runs the same source through every configuration matrix point the
/// reproduction cares about: {classic, irbuilder} × {unoptimized,
/// optimized}, returning the four outputs for equivalence checks.
pub fn run_matrix(source: &str) -> [RunResult; 4] {
    let mk = |mode: OpenMpCodegenMode, opt: bool| {
        run_source_with(
            source,
            Options {
                codegen_mode: mode,
                serial: true,
                ..Options::default()
            },
            opt,
        )
    };
    [
        mk(OpenMpCodegenMode::Classic, false),
        mk(OpenMpCodegenMode::Classic, true),
        mk(OpenMpCodegenMode::IrBuilder, false),
        mk(OpenMpCodegenMode::IrBuilder, true),
    ]
}

/// Asserts that every matrix point produces `expected` on stdout.
pub fn assert_matrix_output(source: &str, expected: &str) {
    let labels = ["classic", "classic+opt", "irbuilder", "irbuilder+opt"];
    for (r, label) in run_matrix(source).iter().zip(labels) {
        assert_eq!(r.stdout, expected, "configuration '{label}' diverged");
    }
}
