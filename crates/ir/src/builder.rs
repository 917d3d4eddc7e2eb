//! `IrBuilder` — the analogue of `llvm::IRBuilder`: appends instructions at
//! an insertion point and "simplifies expressions (e.g. algebraic
//! simplifications) on-the-fly which avoids creating instructions that would
//! later be optimized away anyway" (paper §1.3).

use crate::arith::simplify;
use crate::function::{BlockId, Function, InstId};
use crate::inst::{BinOpKind, Callee, CastOp, CmpPred, Inst, Terminator};
use crate::metadata::LoopMetadata;
use crate::types::IrType;
use crate::value::{SymbolId, Value};

/// Instruction builder positioned inside a function.
pub struct IrBuilder<'f> {
    func: &'f mut Function,
    cur: BlockId,
}

impl<'f> IrBuilder<'f> {
    /// Creates a builder positioned at the function's entry block.
    pub fn new(func: &'f mut Function) -> Self {
        let entry = func.entry();
        IrBuilder { func, cur: entry }
    }

    /// The function being built.
    pub fn func(&self) -> &Function {
        self.func
    }

    /// Mutable access to the function (for structural surgery such as the
    /// OpenMPIRBuilder's loop transformations).
    pub fn func_mut(&mut self) -> &mut Function {
        self.func
    }

    /// Current insertion block.
    pub fn insert_block(&self) -> BlockId {
        self.cur
    }

    /// Moves the insertion point to `bb` (appending at its end).
    pub fn set_insert_point(&mut self, bb: BlockId) {
        self.cur = bb;
    }

    /// Creates a new empty block (does not move the insertion point).
    pub fn create_block(&mut self, name: impl Into<std::borrow::Cow<'static, str>>) -> BlockId {
        self.func.add_block(name)
    }

    // Note: inserting into an already-terminated block is allowed and
    // meaningful — the terminator is stored separately, so appended
    // instructions still execute before it. The OpenMPIRBuilder relies on
    // this to grow preheaders of existing loop skeletons.
    fn push(&mut self, inst: Inst) -> Value {
        self.func.push_inst(self.cur, inst)
    }

    /// The value [`simplify`] says `inst` always computes, else `inst`
    /// appended: every folding entry point below is this.
    fn fold_or_push(&mut self, inst: Inst) -> Value {
        match simplify(&inst, |v| self.func.value_type(v)) {
            Some(v) => v,
            None => self.push(inst),
        }
    }

    /// The type of `v` in the current function.
    pub fn type_of(&self, v: Value) -> IrType {
        self.func.value_type(v)
    }

    // ---- memory ----

    /// Stack allocation.
    pub fn alloca(&mut self, ty: IrType, count: u64, name: &str) -> Value {
        self.push(Inst::Alloca {
            ty,
            count,
            name: name.to_string(),
        })
    }

    /// Typed load.
    pub fn load(&mut self, ty: IrType, ptr: Value) -> Value {
        self.push(Inst::Load { ty, ptr })
    }

    /// Typed store.
    pub fn store(&mut self, val: Value, ptr: Value) {
        self.push(Inst::Store { val, ptr });
    }

    /// Byte-scaled pointer arithmetic.
    pub fn gep(&mut self, ptr: Value, index: Value, elem_size: u64) -> Value {
        self.fold_or_push(Inst::Gep {
            ptr,
            index,
            elem_size,
        })
    }

    // ---- arithmetic with on-the-fly folding ----

    /// Generic binary operation with constant folding and algebraic
    /// identities.
    pub fn bin(&mut self, op: BinOpKind, lhs: Value, rhs: Value) -> Value {
        self.fold_or_push(Inst::Bin { op, lhs, rhs })
    }

    /// `add` with identities.
    pub fn add(&mut self, l: Value, r: Value) -> Value {
        self.bin(BinOpKind::Add, l, r)
    }

    /// `sub` with identities.
    pub fn sub(&mut self, l: Value, r: Value) -> Value {
        self.bin(BinOpKind::Sub, l, r)
    }

    /// `mul` with identities.
    pub fn mul(&mut self, l: Value, r: Value) -> Value {
        self.bin(BinOpKind::Mul, l, r)
    }

    /// Unsigned division.
    pub fn udiv(&mut self, l: Value, r: Value) -> Value {
        self.bin(BinOpKind::UDiv, l, r)
    }

    /// Unsigned remainder.
    pub fn urem(&mut self, l: Value, r: Value) -> Value {
        self.bin(BinOpKind::URem, l, r)
    }

    /// Signed division.
    pub fn sdiv(&mut self, l: Value, r: Value) -> Value {
        self.bin(BinOpKind::SDiv, l, r)
    }

    /// Comparison with constant folding.
    pub fn cmp(&mut self, pred: CmpPred, lhs: Value, rhs: Value) -> Value {
        self.fold_or_push(Inst::Cmp { pred, lhs, rhs })
    }

    /// Conversion with folding of constants and no-op casts.
    pub fn cast(&mut self, op: CastOp, val: Value, to: IrType) -> Value {
        self.fold_or_push(Inst::Cast { op, val, to })
    }

    /// Integer resize helper: truncates or extends `val` to `to`.
    pub fn int_resize(&mut self, val: Value, to: IrType, signed: bool) -> Value {
        let from = self.type_of(val);
        if from == to {
            return val;
        }
        if from.bits() > to.bits() {
            self.cast(CastOp::Trunc, val, to)
        } else if signed {
            self.cast(CastOp::SExt, val, to)
        } else {
            self.cast(CastOp::ZExt, val, to)
        }
    }

    /// `select` with constant-condition folding.
    pub fn select(&mut self, cond: Value, t: Value, f: Value) -> Value {
        self.fold_or_push(Inst::Select { cond, t, f })
    }

    /// Unsigned `min(a, b)` via cmp+select.
    pub fn umin(&mut self, a: Value, b: Value) -> Value {
        let c = self.cmp(CmpPred::Ult, a, b);
        self.select(c, a, b)
    }

    /// Creates an (initially empty) phi in the *current* block.
    pub fn phi(&mut self, ty: IrType) -> (Value, InstId) {
        let v = self.push(Inst::Phi {
            ty,
            incoming: Vec::new(),
        });
        match v {
            Value::Inst(id) => (v, id),
            _ => unreachable!(),
        }
    }

    /// Adds an incoming edge to a previously created phi.
    pub fn add_phi_incoming(&mut self, phi: InstId, from: BlockId, val: Value) {
        match self.func.inst_mut(phi) {
            Inst::Phi { incoming, .. } => incoming.push((from, val)),
            other => panic!("add_phi_incoming on non-phi {other:?}"),
        }
    }

    /// Function call.
    pub fn call(&mut self, callee: SymbolId, args: Vec<Value>, ret: IrType) -> Value {
        self.push(Inst::Call {
            callee: Callee(callee),
            args,
            ty: ret,
        })
    }

    // ---- terminators ----

    /// Unconditional branch.
    pub fn br(&mut self, target: BlockId) {
        self.terminate(Terminator::Br {
            target,
            loop_md: None,
        });
    }

    /// Unconditional branch carrying loop metadata (latch).
    pub fn br_with_md(&mut self, target: BlockId, md: LoopMetadata) {
        self.terminate(Terminator::Br {
            target,
            loop_md: Some(md),
        });
    }

    /// Conditional branch.
    pub fn cond_br(&mut self, cond: Value, then_bb: BlockId, else_bb: BlockId) {
        self.terminate(Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
            loop_md: None,
        });
    }

    /// Return.
    pub fn ret(&mut self, v: Option<Value>) {
        self.terminate(Terminator::Ret(v));
    }

    /// Marks the current block unreachable.
    pub fn unreachable(&mut self) {
        self.terminate(Terminator::Unreachable);
    }

    fn terminate(&mut self, t: Terminator) {
        let b = self.func.block_mut(self.cur);
        debug_assert!(b.term.is_none(), "re-terminating block {}", b.name);
        b.term = Some(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_builder<R>(f: impl FnOnce(&mut IrBuilder) -> R) -> (R, Function) {
        let mut func = Function::new("t", vec![IrType::I32], IrType::Void);
        let r = {
            let mut b = IrBuilder::new(&mut func);
            f(&mut b)
        };
        (r, func)
    }

    #[test]
    fn constant_folding() {
        let (v, f) = with_builder(|b| b.add(Value::i32(2), Value::i32(3)));
        assert_eq!(v, Value::i32(5));
        assert_eq!(f.num_insts(), 0, "no instruction should be emitted");
    }

    #[test]
    fn identities() {
        let ((z, o, s), f) = with_builder(|b| {
            let x = Value::Arg(0);
            let z = b.mul(x, Value::i32(0));
            let o = b.mul(x, Value::i32(1));
            let s = b.add(x, Value::i32(0));
            (z, o, s)
        });
        assert_eq!(z, Value::i32(0));
        assert_eq!(o, Value::Arg(0));
        assert_eq!(s, Value::Arg(0));
        assert_eq!(f.num_insts(), 0);
    }

    #[test]
    fn division_by_zero_not_folded() {
        let (v, f) = with_builder(|b| b.udiv(Value::i32(1), Value::i32(0)));
        assert!(matches!(v, Value::Inst(_)));
        assert_eq!(f.num_insts(), 1);
    }

    #[test]
    fn unsigned_folding_uses_unsigned_semantics() {
        // -1 (0xFFFFFFFF) / 2 as u32 = 0x7FFFFFFF
        let (v, _) = with_builder(|b| b.udiv(Value::i32(-1), Value::i32(2)));
        assert_eq!(v.as_const_int(), Some(0x7FFF_FFFF));
        let (c, _) = with_builder(|b| b.cmp(CmpPred::Ult, Value::i32(-1), Value::i32(0)));
        assert_eq!(c, Value::bool(false)); // 0xFFFFFFFF is not < 0 unsigned
    }

    #[test]
    fn cmp_folding() {
        let (v, _) = with_builder(|b| b.cmp(CmpPred::Slt, Value::i32(-1), Value::i32(0)));
        assert_eq!(v, Value::bool(true));
    }

    #[test]
    fn cast_folding() {
        let (v, _) =
            with_builder(|b| b.cast(CastOp::SExt, Value::int(IrType::I8, -1), IrType::I64));
        assert_eq!(v, Value::i64(-1));
        let (v, _) =
            with_builder(|b| b.cast(CastOp::ZExt, Value::int(IrType::I8, -1), IrType::I64));
        assert_eq!(v, Value::i64(255));
        let (v, _) = with_builder(|b| b.cast(CastOp::SiToFp, Value::i32(3), IrType::F64));
        assert_eq!(v.as_const_float(), Some(3.0));
    }

    #[test]
    fn select_folding_and_umin() {
        let (v, _) = with_builder(|b| b.select(Value::bool(true), Value::i32(1), Value::i32(2)));
        assert_eq!(v, Value::i32(1));
        let (m, _) = with_builder(|b| b.umin(Value::i32(7), Value::i32(5)));
        assert_eq!(m, Value::i32(5));
    }

    #[test]
    fn phi_plumbing() {
        let (_, f) = with_builder(|b| {
            let header = b.create_block("header");
            let entry = b.insert_block();
            b.br(header);
            b.set_insert_point(header);
            let (v, id) = b.phi(IrType::I64);
            b.add_phi_incoming(id, entry, Value::i64(0));
            let next = b.add(v, Value::i64(1));
            b.add_phi_incoming(id, header, next);
            b.br(header);
        });
        let phi = &f.insts[0];
        match phi {
            Inst::Phi { incoming, .. } => assert_eq!(incoming.len(), 2),
            other => panic!("expected phi, got {other:?}"),
        }
    }

    #[test]
    fn gep_zero_index_is_noop() {
        let (v, f) = with_builder(|b| {
            let p = b.alloca(IrType::I32, 4, "a");
            b.gep(p, Value::i64(0), 4)
        });
        assert!(matches!(v, Value::Inst(_)));
        assert_eq!(f.num_insts(), 1); // only the alloca
    }

    #[test]
    fn sub_self_folds_to_zero() {
        let (v, _) = with_builder(|b| b.sub(Value::Arg(0), Value::Arg(0)));
        assert_eq!(v, Value::i32(0));
    }
}
