//! What the mid end's value numbering and loop-invariant code motion may
//! not do, seen from a program: move an operation that can trap in front
//! of a loop that may not run.

use omplt::{Backend, CompilerInstance, OpenMpCodegenMode, Options};

/// `d` and `n` are globals, so the compiler knows neither: the first loop
/// runs no trip and divides by zero in its body, the second runs three and
/// divides by `d + 1`. Both divisions are loop-invariant.
const ZERO_TRIP: &str = "\
void print_i64(long v);
int d;
int n;
int main() {
  int x = 7, s = 0, dd = d;
  for (int i = 0; i < n; i++)
    s += x / dd;
  for (int i = 0; i < n + 3; i++)
    s += x / (dd + 1);
  print_i64(s);
  return 0;
}
";

/// Whether `b` lies on a cycle of `f`'s CFG: a block the loop repeats.
fn in_loop(f: &omplt::ir::Function, b: omplt::ir::BlockId) -> bool {
    let mut seen = vec![false; f.blocks.len()];
    let mut stack: Vec<_> = f.successors(b).collect();
    while let Some(s) = stack.pop() {
        if s == b {
            return true;
        }
        if !std::mem::replace(&mut seen[s.0 as usize], true) {
            stack.extend(f.successors(s));
        }
    }
    false
}

#[test]
fn a_loop_invariant_division_stays_in_a_loop_that_may_not_run() {
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
                let run = ci.compile_and_run("zero_trip.c", ZERO_TRIP, optimize);
                assert_eq!(run.map(|r| r.stdout), Ok("21\n".to_string()), "[{label}]");
            }
        }
        let mut ci = CompilerInstance::new(Options {
            codegen_mode,
            ..Options::default()
        });
        let tu = ci.parse_source("zero_trip.c", ZERO_TRIP).expect("parse");
        let mut module = ci.codegen(&tu).expect("codegen");
        ci.optimize(&mut module);
        let f = module.function("main").unwrap();
        let mut divisions = 0;
        for (b, block) in f.blocks.iter().enumerate() {
            for &i in &block.insts {
                if let omplt::ir::Inst::Bin { op, .. } = f.inst(i) {
                    if *op == omplt::ir::BinOpKind::SDiv {
                        divisions += 1;
                        let at = omplt::ir::BlockId(b as u32);
                        assert!(in_loop(f, at), "{codegen_mode:?}: a division left its loop");
                    }
                }
            }
        }
        assert_eq!(divisions, 2, "{codegen_mode:?}");
    }
}
