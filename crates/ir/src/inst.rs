//! Instruction and terminator definitions.

use crate::function::BlockId;
use crate::metadata::LoopMetadata;
use crate::types::{mnemonic_enum, IrType};
use crate::value::{SymbolId, Value};

mnemonic_enum! {
    /// Integer/float binary operation kinds, with their LLVM mnemonics.
    #[allow(missing_docs)]
    BinOpKind {
        Add => "add",
        Sub => "sub",
        Mul => "mul",
        SDiv => "sdiv",
        UDiv => "udiv",
        SRem => "srem",
        URem => "urem",
        Shl => "shl",
        AShr => "ashr",
        LShr => "lshr",
        And => "and",
        Or => "or",
        Xor => "xor",
        FAdd => "fadd",
        FSub => "fsub",
        FMul => "fmul",
        FDiv => "fdiv",
        FRem => "frem",
    }
}

impl BinOpKind {
    /// True for the floating-point ops.
    #[inline]
    pub fn is_float(self) -> bool {
        matches!(
            self,
            BinOpKind::FAdd | BinOpKind::FSub | BinOpKind::FMul | BinOpKind::FDiv | BinOpKind::FRem
        )
    }
}

mnemonic_enum! {
    /// Comparison predicates (`icmp`/`fcmp`), with their LLVM mnemonics
    /// (without the `icmp`/`fcmp` prefix).
    #[allow(missing_docs)]
    CmpPred {
        Eq => "eq",
        Ne => "ne",
        Slt => "slt",
        Sle => "sle",
        Sgt => "sgt",
        Sge => "sge",
        Ult => "ult",
        Ule => "ule",
        Ugt => "ugt",
        Uge => "uge",
        FEq => "oeq",
        FNe => "one",
        FLt => "olt",
        FLe => "ole",
        FGt => "ogt",
        FGe => "oge",
    }
}

impl CmpPred {
    /// True for the floating-point predicates.
    #[inline]
    pub fn is_float(self) -> bool {
        matches!(
            self,
            CmpPred::FEq | CmpPred::FNe | CmpPred::FLt | CmpPred::FLe | CmpPred::FGt | CmpPred::FGe
        )
    }
}

mnemonic_enum! {
    /// Cast operation kinds, with their LLVM mnemonics.
    #[allow(missing_docs)]
    CastOp {
        Trunc => "trunc",
        ZExt => "zext",
        SExt => "sext",
        SiToFp => "sitofp",
        UiToFp => "uitofp",
        FpToSi => "fptosi",
        FpToUi => "fptoui",
        FpTrunc => "fptrunc",
        FpExt => "fpext",
        PtrToInt => "ptrtoint",
        IntToPtr => "inttoptr",
    }
}

/// Who a call targets. All symbols live in the module's interner; the
/// interpreter resolves module-defined functions first, then the OpenMP/IO
/// runtime shims.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Callee(pub SymbolId);

/// A non-terminator instruction.
#[derive(Clone, PartialEq, Debug)]
pub enum Inst {
    /// Stack allocation of `count` elements of `ty`; yields `ptr`.
    Alloca {
        /// Element type.
        ty: IrType,
        /// Number of elements.
        count: u64,
        /// Debug name of the variable this backs.
        name: String,
    },
    /// Typed load.
    Load {
        /// Loaded type.
        ty: IrType,
        /// Address.
        ptr: Value,
    },
    /// Typed store.
    Store {
        /// Stored value.
        val: Value,
        /// Address.
        ptr: Value,
    },
    /// Pointer arithmetic: `ptr + index * elem_size` (byte-scaled GEP).
    Gep {
        /// Base pointer.
        ptr: Value,
        /// Element index (any integer type; sign-extended).
        index: Value,
        /// Element size in bytes.
        elem_size: u64,
    },
    /// Binary operation; the result type is the operand type.
    Bin {
        /// Operation.
        op: BinOpKind,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// Comparison; yields `i1`.
    Cmp {
        /// Predicate.
        pred: CmpPred,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// Conversion.
    Cast {
        /// Operation.
        op: CastOp,
        /// Operand.
        val: Value,
        /// Destination type.
        to: IrType,
    },
    /// `cond ? t : f`.
    Select {
        /// `i1` condition.
        cond: Value,
        /// Value if true.
        t: Value,
        /// Value if false.
        f: Value,
    },
    /// SSA phi. Incoming edges may be extended while the skeleton is being
    /// built (`IrBuilder::add_phi_incoming`).
    Phi {
        /// Value type.
        ty: IrType,
        /// `(predecessor, value)` pairs.
        incoming: Vec<(BlockId, Value)>,
    },
    /// Function call.
    Call {
        /// Target.
        callee: Callee,
        /// Arguments.
        args: Vec<Value>,
        /// Return type.
        ty: IrType,
    },
}

impl Inst {
    /// The type of the instruction's result (`Void` for `store`).
    pub fn result_type(&self, value_type: impl Fn(Value) -> IrType) -> IrType {
        match self {
            Inst::Alloca { .. } | Inst::Gep { .. } => IrType::Ptr,
            Inst::Load { ty, .. } | Inst::Phi { ty, .. } | Inst::Call { ty, .. } => *ty,
            Inst::Store { .. } => IrType::Void,
            Inst::Bin { lhs, .. } => value_type(*lhs),
            Inst::Cmp { .. } => IrType::I1,
            Inst::Cast { to, .. } => *to,
            Inst::Select { t, .. } => value_type(*t),
        }
    }

    /// Visits every value operand, in field order (a phi's incoming values,
    /// a call's arguments, in list order).
    pub fn for_each_operand(&self, mut f: impl FnMut(Value)) {
        match self {
            Inst::Alloca { .. } => {}
            Inst::Load { ptr, .. } => f(*ptr),
            Inst::Store { val, ptr } => [*val, *ptr].into_iter().for_each(f),
            Inst::Gep { ptr, index, .. } => [*ptr, *index].into_iter().for_each(f),
            Inst::Bin { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => {
                [*lhs, *rhs].into_iter().for_each(f)
            }
            Inst::Cast { val, .. } => f(*val),
            Inst::Select { cond, t, f: fv } => [*cond, *t, *fv].into_iter().for_each(f),
            Inst::Phi { incoming, .. } => incoming.iter().for_each(|(_, v)| f(*v)),
            Inst::Call { args, .. } => args.iter().copied().for_each(f),
        }
    }

    /// Rewrites every operand through `f` (used by block cloning in the
    /// unroll pass).
    pub fn map_operands(&mut self, mut f: impl FnMut(Value) -> Value) {
        match self {
            Inst::Alloca { .. } => {}
            Inst::Load { ptr, .. } => *ptr = f(*ptr),
            Inst::Store { val, ptr } => {
                *val = f(*val);
                *ptr = f(*ptr);
            }
            Inst::Gep { ptr, index, .. } => {
                *ptr = f(*ptr);
                *index = f(*index);
            }
            Inst::Bin { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
            Inst::Cast { val, .. } => *val = f(*val),
            Inst::Select { cond, t, f: fv } => {
                *cond = f(*cond);
                *t = f(*t);
                *fv = f(*fv);
            }
            Inst::Phi { incoming, .. } => {
                for (_, v) in incoming.iter_mut() {
                    *v = f(*v);
                }
            }
            Inst::Call { args, .. } => {
                for a in args.iter_mut() {
                    *a = f(*a);
                }
            }
        }
    }
}

/// A basic-block terminator.
#[derive(Clone, PartialEq, Debug)]
pub enum Terminator {
    /// Unconditional branch. May carry loop metadata when it is a latch.
    Br {
        /// Target block.
        target: BlockId,
        /// Loop metadata (latch branches only).
        loop_md: Option<LoopMetadata>,
    },
    /// Conditional branch.
    CondBr {
        /// `i1` condition.
        cond: Value,
        /// Taken when true.
        then_bb: BlockId,
        /// Taken when false.
        else_bb: BlockId,
        /// Loop metadata (latch branches only).
        loop_md: Option<LoopMetadata>,
    },
    /// Function return.
    Ret(Option<Value>),
    /// Unreachable.
    Unreachable,
}

impl Terminator {
    /// Successor blocks, in branch order. At most two, so nothing is
    /// allocated; the iterator does not borrow the terminator.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> {
        let (first, second) = match *self {
            Terminator::Br { target, .. } => (Some(target), None),
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => (Some(then_bb), Some(else_bb)),
            Terminator::Ret(_) | Terminator::Unreachable => (None, None),
        };
        first.into_iter().chain(second)
    }

    /// Rewrites successor block ids through `f`.
    pub fn map_blocks(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Terminator::Br { target, .. } => *target = f(*target),
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => {
                *then_bb = f(*then_bb);
                *else_bb = f(*else_bb);
            }
            _ => {}
        }
    }

    /// Visits every value operand (the `&self` twin of
    /// [`Terminator::map_operands`]).
    pub fn for_each_operand(&self, mut f: impl FnMut(Value)) {
        match self {
            Terminator::CondBr { cond, .. } => f(*cond),
            Terminator::Ret(Some(v)) => f(*v),
            _ => {}
        }
    }

    /// Rewrites value operands through `f`.
    pub fn map_operands(&mut self, mut f: impl FnMut(Value) -> Value) {
        match self {
            Terminator::CondBr { cond, .. } => *cond = f(*cond),
            Terminator::Ret(Some(v)) => *v = f(*v),
            _ => {}
        }
    }

    /// The attached loop metadata, if any.
    pub fn loop_md(&self) -> Option<&LoopMetadata> {
        match self {
            Terminator::Br { loop_md, .. } | Terminator::CondBr { loop_md, .. } => loop_md.as_ref(),
            _ => None,
        }
    }

    /// Mutable access to the metadata slot.
    pub fn loop_md_mut(&mut self) -> Option<&mut Option<LoopMetadata>> {
        match self {
            Terminator::Br { loop_md, .. } | Terminator::CondBr { loop_md, .. } => Some(loop_md),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytecode codec's contract with a `mnemonic_enum!`: the tag of a
    /// variant is its index in `ALL`, and no two variants print alike.
    #[test]
    fn enum_tables_are_dense_and_unambiguous() {
        fn check<T: Copy + std::fmt::Debug>(
            all: &[T],
            tag: fn(T) -> u8,
            text: fn(T) -> &'static str,
        ) {
            for (i, &v) in all.iter().enumerate() {
                assert_eq!(tag(v) as usize, i, "{v:?} is not at its own tag in ALL");
                let twin = all[..i].iter().find(|&&w| text(w) == text(v));
                assert!(twin.is_none(), "{v:?} and {twin:?} share a mnemonic");
            }
        }
        check(IrType::ALL, |v| v as u8, IrType::mnemonic);
        check(BinOpKind::ALL, |v| v as u8, BinOpKind::mnemonic);
        check(CmpPred::ALL, |v| v as u8, CmpPred::mnemonic);
        check(CastOp::ALL, |v| v as u8, CastOp::mnemonic);
        assert_eq!(
            [
                IrType::ALL.len(),
                BinOpKind::ALL.len(),
                CmpPred::ALL.len(),
                CastOp::ALL.len()
            ],
            [9, 18, 16, 11],
            "a variant was added or dropped: the OMPLTBC version byte must move with it"
        );
    }

    #[test]
    fn successors() {
        let b = Terminator::Br {
            target: BlockId(3),
            loop_md: None,
        };
        assert!(b.successors().eq([BlockId(3)]));
        let c = Terminator::CondBr {
            cond: Value::bool(true),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
            loop_md: None,
        };
        assert!(c.successors().eq([BlockId(1), BlockId(2)]));
        assert_eq!(Terminator::Ret(None).successors().count(), 0);
    }

    #[test]
    fn operand_mapping() {
        let mut i = Inst::Bin {
            op: BinOpKind::Add,
            lhs: Value::i32(1),
            rhs: Value::i32(2),
        };
        i.map_operands(|v| match v.as_const_int() {
            Some(n) => Value::i32(n as i32 * 10),
            None => v,
        });
        let mut ops = Vec::new();
        i.for_each_operand(|v| ops.push(v));
        assert_eq!(ops, [Value::i32(10), Value::i32(20)]);
    }

    #[test]
    fn result_types() {
        let vt = |_v: Value| IrType::I32;
        assert_eq!(
            Inst::Cmp {
                pred: CmpPred::Ult,
                lhs: Value::i32(0),
                rhs: Value::i32(1)
            }
            .result_type(vt),
            IrType::I1
        );
        assert_eq!(
            Inst::Alloca {
                ty: IrType::I32,
                count: 1,
                name: String::new()
            }
            .result_type(vt),
            IrType::Ptr
        );
        assert_eq!(
            Inst::Store {
                val: Value::i32(0),
                ptr: Value::Undef(IrType::Ptr)
            }
            .result_type(vt),
            IrType::Void
        );
    }

    #[test]
    fn terminator_metadata_slot() {
        let mut t = Terminator::Br {
            target: BlockId(0),
            loop_md: None,
        };
        *t.loop_md_mut().unwrap() = Some(LoopMetadata::unroll(crate::metadata::UnrollHint::Full));
        assert!(t.loop_md().unwrap().unroll.is_some());
        assert!(Terminator::Ret(None).loop_md().is_none());
    }
}
