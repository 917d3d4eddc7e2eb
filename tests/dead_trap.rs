//! The one dead-code rule (`omplt_ir::arith::removable`), seen from a
//! program: an unused division the interpreter would trap on is not
//! deleted, by the mid end (`--opt`) or by the VM's input step, so the same
//! run error comes out of both engines at both optimisation levels and on
//! both lowering paths.

use omplt::{Backend, CompilerInstance, OpenMpCodegenMode, Options};

/// `z` and `q` are never read, `d` is zero, and `a[i + 100]` is out of
/// bounds: the division runs first and traps.
const PROBE: &str = "\
void print_i64(long v);
int a[4];
int main() {
  int d = 0, z = 0;
  for (int i = 0; i < 1; i++) {
    z = 7 / d;
    int q = a[i + 100];
  }
  print_i64(1);
  return 0;
}
";

#[test]
fn a_dead_division_by_zero_traps_on_every_engine_with_and_without_opt() {
    for codegen_mode in [OpenMpCodegenMode::Classic, OpenMpCodegenMode::IrBuilder] {
        for backend in [Backend::Interp, Backend::VmStrict] {
            for optimize in [false, true] {
                let opts = Options {
                    codegen_mode,
                    backend,
                    ..Options::default()
                };
                let label = format!("{codegen_mode:?} {backend:?} opt={optimize}");
                let mut ci = CompilerInstance::new(opts);
                match ci.compile_and_run("probe.c", PROBE, optimize) {
                    Err(e) => assert_eq!(e, "runtime error: division by zero", "[{label}]"),
                    Ok(r) => panic!("[{label}] ran to the end, printing {:?}", r.stdout),
                }
            }
        }
    }
}
