//! The default `-O` pipeline: the paper's one pass and its cleanup.

use crate::constfold::constant_fold;
use crate::loop_unroll::{loop_unroll, UnrollStats};
use crate::promote::{promote, Promote};
use crate::simplify_cfg::simplify_cfg;
use crate::verify::verify_function_full;
use omplt_ir::{Function, Module, VerifyError};

/// What the passes keep for a module: unroll statistics, promotion buffers.
#[derive(Default)]
struct Workspace {
    stats: UnrollStats,
    promote: Promote,
}

/// A pass over one function, with the module's workspace.
type PassFn = fn(&mut Function, &mut Workspace);

/// The passes of the default pipeline, in the order they run on a function:
/// `loop-unroll` wants SSA, so `promote` ([`crate::promote`]) runs first —
/// both engines then run the same register-form IR — and the cleanup comes
/// after it. `simplify-cfg` sweeps the blocks the unroller abandoned and
/// merges the chains the body copies form. `const-fold` folds the copies'
/// constant IVs and drops the dead code they hold; collapsing the join phi
/// of a branch the builder already decided (the `lb < ub ? … : 0` of a
/// distance over constant bounds), once `simplify-cfg` swept its dead arm,
/// is what lets the arithmetic behind it fold. Its DCE is the pipeline's
/// only one.
const DEFAULT_PIPELINE: [(&str, PassFn); 4] = [
    ("promote", |f, ws| {
        promote(f, &mut ws.promote);
    }),
    ("loop-unroll", |f, ws| {
        let s = loop_unroll(f);
        ws.stats.full += s.full;
        ws.stats.partial += s.partial;
        ws.stats.declined += s.declined;
        ws.stats.skipped += s.skipped;
    }),
    ("simplify-cfg", |f, _| {
        simplify_cfg(f);
    }),
    ("const-fold", |f, _| {
        constant_fold(f);
    }),
];

/// Runs the default `-O` pipeline on every function of `m` and returns the
/// accumulated unroll statistics. With `verify_each` (`--verify-each`) the
/// full verifier (structural rules + canonical-skeleton invariants) runs
/// after every pass; its findings come back tagged with the pass and the
/// function, and are empty otherwise.
pub fn run_default_pipeline(m: &mut Module, verify_each: bool) -> (UnrollStats, Vec<VerifyError>) {
    let mut ws = Workspace::default();
    let mut errors = Vec::new();
    for f in &mut m.functions {
        // Fault site: COUNT selects which function's pipeline panics.
        omplt_fault::panic_if_armed("midend.panic");
        for (name, pass) in DEFAULT_PIPELINE {
            {
                let _span = omplt_trace::span_detail("midend.pass", name);
                if omplt_trace::active() {
                    omplt_trace::count(&format!("midend.pass.{name}.runs"), 1);
                }
                pass(f, &mut ws);
            }
            if verify_each {
                let _span = omplt_trace::span_detail("midend.verify-each", name);
                omplt_trace::count("midend.verify_each.checks", 1);
                for e in verify_function_full(f) {
                    let at = format!("after {name} on @{}: {}", f.name, e.0);
                    errors.push(VerifyError(at));
                }
            }
        }
    }
    (ws.stats, errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use omplt_ir::{assert_verified, IrBuilder, IrType, Value};

    #[test]
    fn default_pipeline_is_safe_on_trivial_functions() {
        let mut m = Module::new();
        let mut f = Function::new("main", vec![], IrType::I32);
        {
            let mut b = IrBuilder::new(&mut f);
            b.ret(Some(Value::i32(0)));
        }
        m.add_function(f);
        let (stats, _) = run_default_pipeline(&mut m, false);
        assert_eq!(stats, UnrollStats::default());
        assert_verified(m.function("main").unwrap());
    }

    #[test]
    fn verify_each_catches_corrupted_skeleton() {
        use omplt_ir::{CmpPred, Inst, Terminator};
        use omplt_ompirb::create_canonical_loop_skeleton;

        let mut m = Module::new();
        let mut f = Function::new("main", vec![], IrType::Void);
        let cli = {
            let mut b = IrBuilder::new(&mut f);
            let cli = create_canonical_loop_skeleton(&mut b, Value::i64(100), "k", true);
            b.set_insert_point(cli.body);
            b.br(cli.latch);
            b.set_insert_point(cli.after);
            b.ret(None);
            cli
        };
        // Corrupt the canonical skeleton: flip the loop condition's compare
        // predicate so the `is_canonical` loop no longer matches the shape.
        let cmp_id = f.block(cli.cond).insts[0];
        if let Inst::Cmp { pred, .. } = f.inst_mut(cmp_id) {
            *pred = CmpPred::Sgt;
        } else {
            panic!("cond block must start with the compare");
        }
        // Sanity: the loop back edge stays intact so the loop is still found.
        assert!(matches!(
            f.block(cli.latch).term,
            Some(Terminator::Br { target, .. }) if target == cli.header
        ));
        m.add_function(f);

        let (_, errs) = run_default_pipeline(&mut m, true);
        assert!(
            errs.iter().any(|e| e.0.contains("no longer matches")),
            "verify-each must flag the corrupted skeleton: {errs:?}"
        );
    }

    #[test]
    fn verify_each_is_quiet_on_valid_loops() {
        use omplt_ompirb::create_canonical_loop;

        let mut m = Module::new();
        let mut f = Function::new("main", vec![], IrType::Void);
        {
            let mut b = IrBuilder::new(&mut f);
            create_canonical_loop(&mut b, Value::i64(16), "k", |_b, _iv| {});
            b.ret(None);
        }
        m.add_function(f);
        let (_, errs) = run_default_pipeline(&mut m, true);
        assert_eq!(
            errs,
            vec![],
            "a pristine canonical loop must verify after every pass"
        );
    }

    #[test]
    fn pipeline_runs_all_functions() {
        let mut m = Module::new();
        for name in ["a", "b"] {
            let mut f = Function::new(name, vec![], IrType::Void);
            {
                let mut b = IrBuilder::new(&mut f);
                // dead arithmetic the pipeline should clean
                let e = b.insert_block();
                b.func_mut().push_inst(
                    e,
                    omplt_ir::Inst::Bin {
                        op: omplt_ir::BinOpKind::Add,
                        lhs: Value::i64(1),
                        rhs: Value::i64(2),
                    },
                );
                b.ret(None);
            }
            m.add_function(f);
        }
        run_default_pipeline(&mut m, false);
        for name in ["a", "b"] {
            assert_eq!(m.function(name).unwrap().num_insts(), 0);
        }
    }
}
