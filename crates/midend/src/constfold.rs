//! Constant folding + dead-code elimination over whole functions, the
//! instruction half of [`crate::cleanup`](mod@crate::cleanup), complementing the `IrBuilder`'s
//! on-the-fly folding: transformations (unrolling in particular) substitute
//! constants for induction variables *after* instructions were built, so a
//! post-pass re-folds them.
//!
//! The DCE ([`eliminate_dead_code`]) is the system's only one. What it may
//! delete is the one dead-code rule, [`omplt_ir::arith::removable`]; what
//! it deletes is everything no kept instruction and no terminator reaches
//! through operands, so a cycle of phis reading only each other goes in the
//! same pass. The bytecode VM runs it too, after `promote`, on every
//! function that reaches it unoptimized, and lowers nothing it would delete.

use omplt_ir::arith::{removable, simplify};
use omplt_ir::{Function, Inst, InstId, Value};

/// One folding round: replaces every instruction that folds to a constant
/// or to another value, and every single-incoming phi, by what it folds to.
/// An instruction is simplified over what its operands were already
/// replaced by, so a chain whose links come in block order folds in one
/// round. Returns `None` if nothing was replaced, else whether another
/// round may fold more: an instruction it kept had an operand replaced
/// only after pass 1 had simplified it.
pub(crate) fn fold_once(f: &mut Function, replacement: &mut Vec<Option<Value>>) -> Option<bool> {
    // Pass 1: decide replacements.
    replacement.clear();
    replacement.resize(f.insts.len(), None);
    let mut any = false;
    for b in 0..f.blocks.len() {
        for k in 0..f.blocks[b].insts.len() {
            let iid = f.blocks[b].insts[k];
            if any {
                f.inst_mut(iid).map_operands(|v| resolve(replacement, v));
            }
            let inst = f.inst(iid);
            let folded = match inst {
                // Single-incoming phis collapse to their value.
                Inst::Phi { incoming, .. } if incoming.len() == 1 => Some(incoming[0].1),
                _ => simplify(inst, |v| f.value_type(v)),
            };
            // Avoid self-replacement cycles.
            if let Some(v) = folded.filter(|&v| v != Value::Inst(iid)) {
                replacement[iid.0 as usize] = Some(v);
                any = true;
            }
        }
    }
    if !any {
        return None;
    }
    // Pass 2: rewrite the uses pass 1 had not reached (phis, terminators,
    // blocks laid out behind their users) and drop the folded instructions.
    let mut again = false;
    let Function { insts, blocks, .. } = f;
    for block in blocks {
        for &iid in &block.insts {
            let kept = replacement[iid.0 as usize].is_none();
            insts[iid.0 as usize].map_operands(|v| {
                let to = resolve(replacement, v);
                again |= kept && to != v;
                to
            });
        }
        if let Some(t) = block.term.as_mut() {
            t.map_operands(|v| resolve(replacement, v));
        }
        block.insts.retain(|i| replacement[i.0 as usize].is_none());
    }
    Some(again)
}

/// What `v` is replaced by, through chains (a→b→const).
fn resolve(replacement: &[Option<Value>], mut v: Value) -> Value {
    let mut hops = 0;
    while let Value::Inst(id) = v {
        match replacement.get(id.0 as usize).copied().flatten() {
            Some(next) if hops < 64 => {
                v = next;
                hops += 1;
            }
            _ => break,
        }
    }
    v
}

/// The buffers of [`eliminate_dead_code`], reused from function to function.
#[derive(Default)]
pub struct Dce {
    /// Whether each instruction is live, by `InstId`.
    live: Vec<bool>,
    /// Live instructions whose operands are still to be marked.
    work: Vec<InstId>,
}

/// Deletes every instruction of `f` that no terminator and no instruction
/// the one dead-code rule ([`removable`]) keeps reaches through operands:
/// an unused instruction the rule lets go, what only such instructions
/// read, and a cycle of phis that only read each other. Returns true if
/// anything was removed.
pub fn eliminate_dead_code(f: &mut Function, ws: &mut Dce) -> bool {
    mark_live(f, ws);
    let mut removed = false;
    for b in &mut f.blocks {
        let before = b.insts.len();
        b.insts.retain(|&iid| ws.live[iid.0 as usize]);
        removed |= b.insts.len() != before;
    }
    removed
}

/// Whether [`eliminate_dead_code`] would remove something from `f`.
pub fn has_dead_code(f: &Function, ws: &mut Dce) -> bool {
    mark_live(f, ws);
    f.blocks
        .iter()
        .any(|b| b.insts.iter().any(|&iid| !ws.live[iid.0 as usize]))
}

/// Marks in `ws.live` every instruction a terminator or an instruction the
/// rule keeps reaches through operands.
fn mark_live(f: &Function, ws: &mut Dce) {
    let Dce { live, work } = ws;
    live.clear();
    live.resize(f.insts.len(), false);
    work.clear();
    for b in &f.blocks {
        for &iid in &b.insts {
            if !removable(f.inst(iid), |v| f.value_type(v)) {
                mark(live, work, Value::Inst(iid));
            }
        }
        if let Some(t) = &b.term {
            t.for_each_operand(|v| mark(live, work, v));
        }
    }
    while let Some(iid) = work.pop() {
        f.inst(iid).for_each_operand(|v| mark(live, work, v));
    }
}

/// Marks the instruction `v` live, to mark its operands next.
fn mark(live: &mut [bool], work: &mut Vec<InstId>, v: Value) {
    if let Value::Inst(id) = v {
        if !std::mem::replace(&mut live[id.0 as usize], true) {
            work.push(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cleanup::cleanup;
    use omplt_ir::{assert_verified, BinOpKind, IrBuilder, IrType};

    #[test]
    fn folds_chains_after_substitution() {
        let mut f = Function::new("t", vec![], IrType::I64);
        {
            let mut b = IrBuilder::new(&mut f);
            // Build unfoldable insts via raw pushes (simulating post-unroll
            // constant substitution).
            let e = b.insert_block();
            let v1 = b.func_mut().push_inst(
                e,
                Inst::Bin {
                    op: BinOpKind::Add,
                    lhs: Value::i64(2),
                    rhs: Value::i64(3),
                },
            );
            let v2 = b.func_mut().push_inst(
                e,
                Inst::Bin {
                    op: BinOpKind::Mul,
                    lhs: v1,
                    rhs: Value::i64(4),
                },
            );
            b.ret(Some(v2));
        }
        assert!(cleanup(&mut f));
        assert_eq!(f.num_insts(), 0);
        assert!(matches!(
            f.block(f.entry()).term,
            Some(omplt_ir::Terminator::Ret(Some(Value::ConstInt {
                val: 20,
                ..
            })))
        ));
        assert_verified(&f);
    }

    #[test]
    fn dce_keeps_side_effects() {
        let mut f = Function::new("t", vec![], IrType::Void);
        {
            let mut b = IrBuilder::new(&mut f);
            let p = b.alloca(IrType::I64, 1, "x");
            b.store(Value::i64(1), p);
            // dead arithmetic
            let e = b.insert_block();
            b.func_mut().push_inst(
                e,
                Inst::Bin {
                    op: BinOpKind::Add,
                    lhs: Value::i64(1),
                    rhs: Value::i64(1),
                },
            );
            b.ret(None);
        }
        cleanup(&mut f);
        // alloca + store survive; dead add is gone
        assert_eq!(f.block(f.entry()).insts.len(), 2);
    }

    #[test]
    fn single_incoming_phi_collapses() {
        let mut f = Function::new("t", vec![], IrType::I64);
        let next = f.add_block("next");
        {
            let mut b = IrBuilder::new(&mut f);
            let e = b.insert_block();
            b.br(next);
            b.set_insert_point(next);
            let (v, phi) = b.phi(IrType::I64);
            b.add_phi_incoming(phi, e, Value::i64(9));
            b.ret(Some(v));
        }
        cleanup(&mut f);
        // The collapsed phi leaves `next` to merge into the entry block.
        assert!(matches!(
            f.block(f.entry()).term,
            Some(omplt_ir::Terminator::Ret(Some(Value::ConstInt {
                val: 9,
                ..
            })))
        ));
    }

    #[test]
    fn idempotent_when_nothing_to_do() {
        let mut f = Function::new("t", vec![IrType::I64], IrType::I64);
        {
            let mut b = IrBuilder::new(&mut f);
            let v = b.add(Value::Arg(0), Value::i64(1));
            b.ret(Some(v));
        }
        assert!(!cleanup(&mut f));
    }
}
