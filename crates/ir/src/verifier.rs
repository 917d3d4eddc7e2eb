//! IR well-formedness verifier. Checked after codegen and after every
//! mid-end/OpenMPIRBuilder transformation in tests — the paper's skeleton
//! invariants (explicit blocks, identifiable IV and trip count) have their
//! own checker in `omplt-ompirb`; this one covers basic structural rules.

use crate::function::{BlockId, Function, Rpo};
use crate::inst::{Inst, Terminator};
use crate::types::IrType;
use crate::value::Value;

/// A structural error found by [`verify_function`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError(pub String);

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Where an error is: `block NAME.INDEX`, then ` inst %ID` for an
/// instruction. Formatted only into a message that is pushed, so a clean
/// function costs no string per block or instruction.
#[derive(Clone, Copy)]
struct At<'a> {
    block: &'a str,
    bi: usize,
    inst: Option<u32>,
}

impl std::fmt::Display for At<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "block {}.{}", self.block, self.bi)?;
        match self.inst {
            Some(i) => write!(f, " inst %{i}"),
            None => Ok(()),
        }
    }
}

/// Verifies one function; returns all problems found.
pub fn verify_function(f: &Function) -> Vec<VerifyError> {
    omplt_trace::count("ir.verify.functions", 1);
    let mut errs = Vec::new();
    let nblocks = f.blocks.len() as u32;
    let ninsts = f.insts.len() as u32;
    let preds = f.predecessors();
    // Phi-coherence rules only apply to reachable blocks: transformations
    // (tile/collapse) abandon old loop scaffolding, leaving dead blocks with
    // stale edges until SimplifyCfg sweeps them.
    let mut reachable = Rpo::default();
    reachable.compute(f);

    let check_val = |v: Value, ctx: &At, errs: &mut Vec<VerifyError>| match v {
        Value::Inst(id) if id.0 >= ninsts => errs.push(VerifyError(format!(
            "{ctx}: reference to out-of-range inst %{}",
            id.0
        ))),
        Value::Arg(i) if i as usize >= f.params.len() => errs.push(VerifyError(format!(
            "{ctx}: reference to out-of-range arg {i}"
        ))),
        _ => {}
    };

    // Every instruction must belong to exactly one block.
    let mut owner = vec![0usize; f.insts.len()];
    for b in &f.blocks {
        for &i in &b.insts {
            if i.0 >= ninsts {
                errs.push(VerifyError(format!(
                    "block {} lists out-of-range inst %{}",
                    b.name, i.0
                )));
                continue;
            }
            owner[i.0 as usize] += 1;
        }
    }
    for (i, &n) in owner.iter().enumerate() {
        if n > 1 {
            errs.push(VerifyError(format!("inst %{i} appears in {n} blocks")));
        }
    }

    for (bi, b) in f.blocks.iter().enumerate() {
        let bid = BlockId(bi as u32);
        let ctx = At {
            block: &b.name,
            bi,
            inst: None,
        };
        match &b.term {
            None => errs.push(VerifyError(format!("{ctx}: missing terminator"))),
            Some(t) => {
                for s in t.successors() {
                    if s.0 >= nblocks {
                        errs.push(VerifyError(format!(
                            "{ctx}: branch to out-of-range block {}",
                            s.0
                        )));
                    }
                }
                match t {
                    Terminator::CondBr { cond, .. } => {
                        check_val(*cond, &ctx, &mut errs);
                        if f.value_type(*cond) != IrType::I1 {
                            errs.push(VerifyError(format!("{ctx}: cond-br condition is not i1")));
                        }
                    }
                    Terminator::Ret(Some(v)) => {
                        check_val(*v, &ctx, &mut errs);
                        if f.ret == IrType::Void {
                            errs.push(VerifyError(format!(
                                "{ctx}: ret with value in void function"
                            )));
                        }
                    }
                    Terminator::Ret(None) if f.ret != IrType::Void => {
                        errs.push(VerifyError(format!("{ctx}: bare ret in non-void function")));
                    }
                    _ => {}
                }
            }
        }

        for (pos, &iid) in b.insts.iter().enumerate() {
            if iid.0 >= ninsts {
                continue;
            }
            let inst = f.inst(iid);
            let ictx = At {
                inst: Some(iid.0),
                ..ctx
            };
            inst.for_each_operand(|op| check_val(op, &ictx, &mut errs));
            match inst {
                Inst::Phi { incoming, .. } if reachable.reached(bid) => {
                    if pos != 0 && !matches!(f.inst(b.insts[pos - 1]), Inst::Phi { .. }) {
                        errs.push(VerifyError(format!("{ictx}: phi not at block start")));
                    }
                    // Each incoming edge must come from an actual predecessor.
                    for (from, _) in incoming {
                        if from.0 >= nblocks {
                            errs.push(VerifyError(format!(
                                "{ictx}: phi edge from out-of-range block"
                            )));
                        } else if bid.0 < nblocks && !preds[bi].contains(from) {
                            errs.push(VerifyError(format!(
                                "{ictx}: phi edge from non-predecessor {}.{}",
                                f.block(*from).name,
                                from.0
                            )));
                        }
                    }
                    // And every predecessor must be covered.
                    for p in &preds[bi] {
                        if !incoming.iter().any(|(from, _)| from == p) {
                            errs.push(VerifyError(format!(
                                "{ictx}: phi missing edge for predecessor {}.{}",
                                f.block(*p).name,
                                p.0
                            )));
                        }
                    }
                }
                Inst::Store { val, .. } if f.value_type(*val) == IrType::Void => {
                    errs.push(VerifyError(format!("{ictx}: store of void value")));
                }
                _ => {}
            }
        }
    }
    errs
}

/// Verifies every function in `m`, prefixing each error with the function
/// name so module-level reports stay attributable.
pub fn verify_module(m: &crate::module::Module) -> Vec<VerifyError> {
    let _span = omplt_trace::span("ir.verify");
    let mut errs = Vec::new();
    for f in &m.functions {
        for e in verify_function(f) {
            errs.push(VerifyError(format!("@{}: {}", f.name, e.0)));
        }
    }
    errs
}

/// Panics with a readable report if `f` is malformed (test helper).
pub fn assert_verified(f: &Function) {
    let errs = verify_function(f);
    assert!(
        errs.is_empty(),
        "IR verification failed for @{}:\n{}",
        f.name,
        errs.iter()
            .map(|e| format!("  - {e}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IrBuilder;
    use crate::inst::BinOpKind;

    #[test]
    fn accepts_well_formed() {
        let mut f = Function::new("ok", vec![IrType::I32], IrType::I32);
        {
            let mut b = IrBuilder::new(&mut f);
            let v = b.bin(BinOpKind::Add, Value::Arg(0), Value::i32(1));
            b.ret(Some(v));
        }
        assert!(verify_function(&f).is_empty());
    }

    #[test]
    fn rejects_missing_terminator() {
        let f = Function::new("bad", vec![], IrType::Void);
        let errs = verify_function(&f);
        assert!(
            errs.iter().any(|e| e.0.contains("missing terminator")),
            "{errs:?}"
        );
    }

    #[test]
    fn rejects_non_i1_condition() {
        let mut f = Function::new("bad", vec![], IrType::Void);
        let e = f.entry();
        let other = f.add_block("x");
        f.block_mut(other).term = Some(Terminator::Ret(None));
        f.block_mut(e).term = Some(Terminator::CondBr {
            cond: Value::i32(1),
            then_bb: other,
            else_bb: other,
            loop_md: None,
        });
        let errs = verify_function(&f);
        assert!(errs.iter().any(|e| e.0.contains("not i1")), "{errs:?}");
    }

    #[test]
    fn rejects_phi_from_non_predecessor() {
        let mut f = Function::new("bad", vec![], IrType::Void);
        let e = f.entry();
        let b1 = f.add_block("b1");
        let b2 = f.add_block("b2");
        f.block_mut(e).term = Some(Terminator::Br {
            target: b1,
            loop_md: None,
        });
        f.push_inst(
            b1,
            Inst::Phi {
                ty: IrType::I32,
                incoming: vec![(b2, Value::i32(0))],
            },
        );
        f.block_mut(b1).term = Some(Terminator::Ret(None));
        f.block_mut(b2).term = Some(Terminator::Ret(None));
        let errs = verify_function(&f);
        assert!(
            errs.iter().any(|e| e.0.contains("non-predecessor")),
            "{errs:?}"
        );
        assert!(
            errs.iter().any(|e| e.0.contains("missing edge")),
            "{errs:?}"
        );
    }

    #[test]
    fn rejects_ret_type_mismatch() {
        let mut f = Function::new("bad", vec![], IrType::I32);
        let e = f.entry();
        f.block_mut(e).term = Some(Terminator::Ret(None));
        let errs = verify_function(&f);
        assert!(errs.iter().any(|e| e.0.contains("bare ret")), "{errs:?}");
    }
}
