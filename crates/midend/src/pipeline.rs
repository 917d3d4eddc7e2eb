//! The default `-O` pipeline: the paper's one pass, the cleanup around it,
//! and the loop-invariant code motion the shadow AST's tile loops rely on.

use crate::cleanup::cleanup;
use crate::licm::{value_number_and_hoist, Licm};
use crate::loop_unroll::{loop_unroll, UnrollStats};
use crate::promote::{promote, Promote};
use crate::verify::verify_function_full;
use omplt_ir::{Function, Module, VerifyError};

/// Runs the default `-O` pipeline on every function of `m` and returns the
/// accumulated unroll statistics. On each function, in order:
///
/// 1. `promote` ([`promote`](fn@crate::promote)): `loop-unroll` wants SSA,
///    and both engines then run the same register-form IR;
/// 2. `cleanup` ([`cleanup`](fn@crate::cleanup)): folds what the builder
///    left — a distance over constant bounds sits behind a branch it
///    already decided (`lb < ub ? … : 0`) — so the unroller reads trip
///    counts as immediates, and folds small if/else hammocks into
///    `select`s, so the classic tile's `min(ub, floor + s)` is
///    straight-line code;
/// 3. `gvn-licm` ([`value_number_and_hoist`]): dominator-scoped value
///    numbering, then loop-invariant code motion to each loop's preheader
///    (the tile bound above leaves the tile loop). It deletes what it
///    replaces, so no `cleanup` follows it;
/// 4. `loop-unroll` ([`loop_unroll`](fn@crate::loop_unroll));
/// 5. `cleanup` again, only when the unroller copied a loop: it sweeps the
///    blocks the unroller abandoned, merges the chains the body copies form
///    and folds the copies' constant IVs.
///
/// With `verify_each` (`--verify-each`) the full verifier (the structural
/// rules and the canonical-skeleton invariants) runs after every pass that
/// ran; its findings come back tagged with the pass and the function, and
/// are empty otherwise.
pub fn run_default_pipeline(m: &mut Module, verify_each: bool) -> (UnrollStats, Vec<VerifyError>) {
    let mut stats = UnrollStats::default();
    let mut promote_ws = Promote::default();
    let mut licm_ws = Licm::default();
    let mut errors = Vec::new();
    for f in &mut m.functions {
        // Fault site: COUNT selects which function's pipeline panics.
        omplt_fault::panic_if_armed("midend.panic");
        let mut run = |name: &str, f: &mut Function, pass: &mut dyn FnMut(&mut Function)| {
            {
                let _span = omplt_trace::span_detail("midend.pass", name);
                if omplt_trace::active() {
                    omplt_trace::count(&format!("midend.pass.{name}.runs"), 1);
                }
                pass(f);
            }
            if verify_each {
                let _span = omplt_trace::span_detail("midend.verify-each", name);
                omplt_trace::count("midend.verify_each.checks", 1);
                for e in verify_function_full(f) {
                    let at = format!("after {name} on @{}: {}", f.name, e.0);
                    errors.push(VerifyError(at));
                }
            }
        };
        run("promote", f, &mut |f| {
            promote(f, &mut promote_ws);
        });
        run("cleanup", f, &mut |f| {
            cleanup(f);
        });
        run("gvn-licm", f, &mut |f| {
            value_number_and_hoist(f, &mut licm_ws);
        });
        let mut unrolled = UnrollStats::default();
        run("loop-unroll", f, &mut |f| unrolled = loop_unroll(f));
        if unrolled.full + unrolled.partial > 0 {
            run("cleanup", f, &mut |f| {
                cleanup(f);
            });
        }
        stats.full += unrolled.full;
        stats.partial += unrolled.partial;
        stats.declined += unrolled.declined;
        stats.skipped += unrolled.skipped;
    }
    (stats, errors)
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
