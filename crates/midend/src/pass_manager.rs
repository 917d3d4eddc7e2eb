//! A simple function-pass pipeline.

use crate::constfold::constant_fold;
use crate::loop_unroll::{loop_unroll, UnrollStats};
use crate::simplify_cfg::simplify_cfg;
use crate::verify::verify_function_full;
use omplt_ir::{Function, Module, VerifyError};

/// Named function passes.
pub enum Pass {
    /// CFG cleanup.
    SimplifyCfg,
    /// Constant folding + DCE.
    ConstFold,
    /// The metadata-driven unroller.
    LoopUnroll,
}

impl Pass {
    fn name(&self) -> &'static str {
        match self {
            Pass::SimplifyCfg => "simplify-cfg",
            Pass::ConstFold => "const-fold",
            Pass::LoopUnroll => "loop-unroll",
        }
    }
}

/// Runs passes over every function of a module.
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Pass>,
    /// Accumulated unroll statistics (for remarks/tests).
    pub unroll_stats: UnrollStats,
    /// When set (`--verify-each`), the structural + canonical-skeleton
    /// verifier runs after every pass; findings accumulate in
    /// [`PassManager::verify_errors`] tagged with the offending pass.
    pub verify_each: bool,
    /// Errors collected by the between-pass verifier.
    pub verify_errors: Vec<VerifyError>,
}

impl PassManager {
    /// An empty pipeline.
    pub fn new() -> PassManager {
        PassManager::default()
    }

    /// Appends a pass.
    pub fn add_pass(mut self, p: Pass) -> Self {
        self.passes.push(p);
        self
    }

    /// Enables between-pass verification (`--verify-each`).
    pub fn verify_each(mut self, on: bool) -> Self {
        self.verify_each = on;
        self
    }

    /// Runs the pipeline on one function.
    pub fn run_on_function(&mut self, f: &mut Function) {
        for p in &self.passes {
            {
                let _span = omplt_trace::span_detail("midend.pass", p.name());
                omplt_trace::count(&format!("midend.pass.{}.runs", p.name()), 1);
                match p {
                    Pass::SimplifyCfg => {
                        simplify_cfg(f);
                    }
                    Pass::ConstFold => {
                        constant_fold(f);
                    }
                    Pass::LoopUnroll => {
                        let s = loop_unroll(f);
                        self.unroll_stats.full += s.full;
                        self.unroll_stats.partial += s.partial;
                        self.unroll_stats.declined += s.declined;
                        self.unroll_stats.skipped += s.skipped;
                    }
                }
            }
            if self.verify_each {
                let _span = omplt_trace::span_detail("midend.verify-each", p.name());
                omplt_trace::count("midend.verify_each.checks", 1);
                for e in verify_function_full(f) {
                    self.verify_errors.push(VerifyError(format!(
                        "after {} on @{}: {}",
                        p.name(),
                        f.name,
                        e.0
                    )));
                }
            }
        }
    }

    /// Runs the pipeline on every function.
    pub fn run(&mut self, m: &mut Module) {
        // Fault site: COUNT selects which function's pipeline panics.
        for f in &mut m.functions {
            omplt_fault::panic_if_armed("midend.panic");
            self.run_on_function(f);
        }
    }
}

/// The default `-O` pipeline used by the driver. `LoopUnroll` runs before
/// `SimplifyCfg`: block merging would otherwise collapse the canonical
/// skeleton (header+cond) that the unroller recognizes structurally.
/// Constant folding runs first so tile/collapse trip counts become
/// constants the full-unroll path can see.
fn default_pipeline() -> PassManager {
    PassManager::new()
        .add_pass(Pass::ConstFold)
        .add_pass(Pass::LoopUnroll)
        .add_pass(Pass::ConstFold)
        .add_pass(Pass::SimplifyCfg)
        .add_pass(Pass::ConstFold)
}

/// Runs the default `-O` pipeline.
pub fn run_default_pipeline(m: &mut Module) -> UnrollStats {
    let mut pm = default_pipeline();
    pm.run(m);
    pm.unroll_stats
}

/// The default pipeline with `--verify-each` semantics: the full verifier
/// (structural rules + canonical-skeleton invariants) runs after every
/// pass, and any findings come back alongside the stats.
pub fn run_default_pipeline_verified(m: &mut Module) -> (UnrollStats, Vec<VerifyError>) {
    let mut pm = default_pipeline().verify_each(true);
    pm.run(m);
    (pm.unroll_stats, pm.verify_errors)
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
        let stats = run_default_pipeline(&mut m);
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

        let (_, errs) = run_default_pipeline_verified(&mut m);
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
        let (_, errs) = run_default_pipeline_verified(&mut m);
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
        run_default_pipeline(&mut m);
        for name in ["a", "b"] {
            assert_eq!(m.function(name).unwrap().num_insts(), 0);
        }
    }
}
