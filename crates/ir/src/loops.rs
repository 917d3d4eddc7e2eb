//! The one loop recogniser: [`Function::induction`] reads a counted loop's
//! induction variable, exit test and bound off the IR's shape, "without
//! requiring analysis by ScalarEvolution" (paper §3.2). Every reader — the
//! mid end's unroller and skeleton verifier, the `CanonicalLoopInfo` handle
//! check and the VM's widener — takes the record and adds only the
//! conditions of its own job (the skeleton's `ult` from 0, an IV type, a
//! straight-line body).

use crate::function::{BlockId, Function, InstId};
use crate::inst::{BinOpKind, CmpPred, Inst, Terminator};
use crate::value::Value;

/// A loop `latch → header` whose exit test is `iv pred bound` on a header
/// phi `iv` entered with `start` and advanced by 1 at the latch. The block
/// roles are named as `CanonicalLoopInfo`'s.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Induction {
    /// The block the IV phi's other edge comes from.
    pub preheader: BlockId,
    /// The block holding the IV phi.
    pub header: BlockId,
    /// The block holding the exit test: the header, or the block the header
    /// falls into.
    pub cond: BlockId,
    /// The test's true successor.
    pub body: BlockId,
    /// The block branching back to the header.
    pub latch: BlockId,
    /// The test's false successor.
    pub exit: BlockId,
    /// The IV phi.
    pub iv_phi: InstId,
    /// The value the IV enters with from the preheader.
    pub start: Value,
    /// The exit test's predicate: `Slt`, `Ult`, `Sle` or `Ule`.
    pub pred: CmpPred,
    /// The exit test's right-hand side.
    pub bound: Value,
}

/// The part of a counted loop [`Function::induction`] looked for and did
/// not find: what a loop that should be counted has lost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoopRole {
    /// The latch does not branch back to the header.
    Latch,
    /// The header, or the block it falls into, does not end in a
    /// conditional branch on a compare.
    ExitTest,
    /// The compare is not `slt`, `ult`, `sle` or `ule`.
    Predicate,
    /// The compare's left side is not a header phi entered from one block
    /// outside the loop and from the latch.
    IvPhi,
    /// The IV phi's latch value is not the phi plus 1.
    Step,
}

impl std::fmt::Display for LoopRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LoopRole::Latch => "latch",
            LoopRole::ExitTest => "exit test",
            LoopRole::Predicate => "predicate",
            LoopRole::IvPhi => "IV phi",
            LoopRole::Step => "step",
        })
    }
}

impl Function {
    /// Recognises the counted loop closed by the back edge `latch → header`,
    /// or names the first role its shape does not fill: `icmp
    /// {slt,ult,sle,ule} iv, bound` on a two-edge header phi stepping by 1.
    pub fn induction(&self, header: BlockId, latch: BlockId) -> Result<Induction, LoopRole> {
        match self.block(latch).term {
            Some(Terminator::Br { target, .. }) if target == header => {}
            _ => return Err(LoopRole::Latch),
        }
        let cond = match self.block(header).term.as_ref() {
            Some(Terminator::Br { target, .. }) => *target,
            _ => header,
        };
        let Some(Terminator::CondBr {
            cond: Value::Inst(test),
            then_bb: body,
            else_bb: exit,
            ..
        }) = self.block(cond).term
        else {
            return Err(LoopRole::ExitTest);
        };
        let Inst::Cmp {
            pred,
            lhs,
            rhs: bound,
        } = *self.inst(test)
        else {
            return Err(LoopRole::ExitTest);
        };
        if !matches!(
            pred,
            CmpPred::Slt | CmpPred::Ult | CmpPred::Sle | CmpPred::Ule
        ) {
            return Err(LoopRole::Predicate);
        }
        let iv_phi = match lhs {
            Value::Inst(iv_phi) if self.block(header).insts.contains(&iv_phi) => iv_phi,
            _ => return Err(LoopRole::IvPhi),
        };
        let Inst::Phi { incoming, .. } = self.inst(iv_phi) else {
            return Err(LoopRole::IvPhi);
        };
        let (preheader, start, next) = match incoming[..] {
            [(a, start), (b, next)] | [(b, next), (a, start)] if b == latch && a != latch => {
                (a, start, next)
            }
            _ => return Err(LoopRole::IvPhi),
        };
        let iv = Value::Inst(iv_phi);
        let Value::Inst(next) = next else {
            return Err(LoopRole::Step);
        };
        let steps_by_one = match *self.inst(next) {
            Inst::Bin {
                op: BinOpKind::Add,
                lhs,
                rhs,
            } => (lhs == iv && rhs.is_one_int()) || (rhs == iv && lhs.is_one_int()),
            _ => false,
        };
        if !steps_by_one {
            return Err(LoopRole::Step);
        }
        Ok(Induction {
            preheader,
            header,
            cond,
            body,
            latch,
            exit,
            iv_phi,
            start,
            pred,
            bound,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IrBuilder, IrType};

    /// `for (iv = start; iv pred arg0; ++iv) {}` as the canonical skeleton
    /// lays it out, with the test in its own block when `split` and in the
    /// header otherwise, and the record it must be recognised as.
    fn build(start: Value, pred: CmpPred, split: bool) -> (Function, Induction) {
        let mut f = Function::new("k", vec![IrType::I64], IrType::Void);
        let mut b = IrBuilder::new(&mut f);
        let preheader = b.create_block("preheader");
        let header = b.create_block("header");
        let cond = if split {
            b.create_block("cond")
        } else {
            header
        };
        let body = b.create_block("body");
        let latch = b.create_block("latch");
        let exit = b.create_block("exit");
        b.br(preheader);
        b.set_insert_point(preheader);
        b.br(header);
        b.set_insert_point(header);
        let (iv, iv_phi) = b.phi(IrType::I64);
        b.add_phi_incoming(iv_phi, preheader, start);
        if split {
            b.br(cond);
            b.set_insert_point(cond);
        }
        let c = b.cmp(pred, iv, Value::Arg(0));
        b.cond_br(c, body, exit);
        b.set_insert_point(body);
        b.br(latch);
        b.set_insert_point(latch);
        let next = b.add(iv, Value::i64(1));
        b.add_phi_incoming(iv_phi, latch, next);
        b.br(header);
        b.set_insert_point(exit);
        b.ret(None);
        crate::assert_verified(&f);
        let rec = Induction {
            preheader,
            header,
            cond,
            body,
            latch,
            exit,
            iv_phi,
            start,
            pred,
            bound: Value::Arg(0),
        };
        (f, rec)
    }

    fn skeleton() -> (Function, Induction) {
        build(Value::i64(0), CmpPred::Ult, true)
    }

    /// The instruction defining `v`.
    fn def(f: &mut Function, v: Value) -> &mut Inst {
        let Value::Inst(id) = v else {
            panic!("{v:?} is not an instruction")
        };
        f.inst_mut(id)
    }

    /// The exit test of `rec`'s loop.
    fn test_of(f: &mut Function, rec: Induction) -> &mut Inst {
        let Some(Terminator::CondBr { cond, .. }) = f.block(rec.cond).term else {
            panic!("no exit test")
        };
        def(f, cond)
    }

    /// The IV's latch value.
    fn next_of(f: &mut Function, rec: Induction) -> &mut Inst {
        let Inst::Phi { incoming, .. } = f.inst(rec.iv_phi) else {
            panic!("no IV phi")
        };
        let next = incoming.iter().find(|(b, _)| *b == rec.latch).unwrap().1;
        def(f, next)
    }

    #[test]
    fn accepts_the_skeleton_with_its_test_in_its_own_block() {
        let (f, rec) = skeleton();
        assert_ne!(rec.cond, rec.header);
        assert_eq!(f.induction(rec.header, rec.latch), Ok(rec));
    }

    #[test]
    fn accepts_the_merged_header_simplify_cfg_leaves() {
        let (f, rec) = build(Value::i64(0), CmpPred::Ult, false);
        assert_eq!(rec.cond, rec.header);
        assert_eq!(f.induction(rec.header, rec.latch), Ok(rec));
    }

    #[test]
    fn accepts_a_plain_for_from_a_non_zero_start() {
        for pred in [CmpPred::Slt, CmpPred::Sle] {
            let (f, rec) = build(Value::i64(3), pred, false);
            assert_eq!(f.induction(rec.header, rec.latch), Ok(rec), "{pred:?}");
        }
    }

    #[test]
    fn accepts_an_iv_phi_that_is_not_the_first() {
        let (mut f, rec) = skeleton();
        let incoming = vec![(rec.preheader, Value::i64(7)), (rec.latch, Value::i64(7))];
        f.push_inst(
            rec.header,
            Inst::Phi {
                ty: IrType::I64,
                incoming,
            },
        );
        f.block_mut(rec.header).insts.rotate_right(1);
        assert_ne!(f.block(rec.header).insts[0], rec.iv_phi);
        assert_eq!(f.induction(rec.header, rec.latch), Ok(rec));
    }

    #[test]
    fn accepts_one_plus_iv() {
        let (mut f, rec) = skeleton();
        if let Inst::Bin { lhs, rhs, .. } = next_of(&mut f, rec) {
            std::mem::swap(lhs, rhs);
        }
        assert_eq!(f.induction(rec.header, rec.latch), Ok(rec));
    }

    /// Applies `mutate` to a fresh skeleton, which must then be refused
    /// for having lost `role`.
    fn refused(what: &str, role: LoopRole, mutate: impl FnOnce(&mut Function, &Induction)) {
        let (mut f, rec) = skeleton();
        mutate(&mut f, &rec);
        assert_eq!(f.induction(rec.header, rec.latch), Err(role), "{what}");
    }

    #[test]
    fn refuses_a_test_that_does_not_count_up() {
        refused("sgt", LoopRole::Predicate, |f, rec| {
            if let Inst::Cmp { pred, .. } = test_of(f, *rec) {
                *pred = CmpPred::Sgt;
            }
        });
        refused("swapped compare operands", LoopRole::IvPhi, |f, rec| {
            if let Inst::Cmp { lhs, rhs, .. } = test_of(f, *rec) {
                std::mem::swap(lhs, rhs);
            }
        });
    }

    #[test]
    fn refuses_a_step_of_two() {
        refused("iv + 2", LoopRole::Step, |f, rec| {
            if let Inst::Bin { rhs, .. } = next_of(f, *rec) {
                *rhs = Value::i64(2);
            }
        });
    }

    #[test]
    fn refuses_a_latch_that_does_not_branch_to_the_header() {
        let (f, rec) = skeleton();
        assert_eq!(f.induction(rec.header, rec.body), Err(LoopRole::Latch));
        assert_eq!(f.induction(rec.cond, rec.latch), Err(LoopRole::Latch));
    }

    #[test]
    fn refuses_a_test_block_that_does_not_branch_on_a_compare() {
        refused("unconditional", LoopRole::ExitTest, |f, rec| {
            let target = rec.body;
            f.block_mut(rec.cond).term = Some(Terminator::Br {
                target,
                loop_md: None,
            });
        });
        refused("branch on a sum", LoopRole::ExitTest, |f, rec| {
            *test_of(f, *rec) = Inst::Bin {
                op: BinOpKind::Add,
                lhs: Value::Inst(rec.iv_phi),
                rhs: Value::i64(1),
            };
        });
    }

    #[test]
    fn refuses_a_phi_with_a_third_edge() {
        refused("third edge", LoopRole::IvPhi, |f, rec| {
            if let Inst::Phi { incoming, .. } = f.inst_mut(rec.iv_phi) {
                incoming.push((rec.exit, Value::i64(0)));
            }
        });
    }

    #[test]
    fn refuses_a_compare_on_a_value_that_is_not_a_header_phi() {
        refused("a phi of the test block", LoopRole::IvPhi, |f, rec| {
            let copy = f.prepend_inst(
                rec.cond,
                Inst::Phi {
                    ty: IrType::I64,
                    incoming: vec![(rec.header, Value::Inst(rec.iv_phi))],
                },
            );
            if let Inst::Cmp { lhs, .. } = test_of(f, *rec) {
                *lhs = copy;
            }
        });
    }
}
