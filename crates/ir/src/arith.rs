//! What an operator means: the one definition of the IR's arithmetic,
//! comparisons, conversions, address computation and scalar memory
//! encodings — and the one folder built on it.
//!
//! The kernels [`bin`], [`cmp`], [`cast`], [`gep`], [`decode`] and
//! [`encode`] work on untagged 64-bit *payloads*: the bits a value occupies
//! once its type is known from somewhere else.
//!
//! | `IrType`             | payload                                             |
//! |----------------------|-----------------------------------------------------|
//! | `i1`                 | 0 or 1, from every producer (see below)             |
//! | `i8` `i16` `i32`     | the value sign-extended to `i64`                    |
//! | `i64`                | the value                                           |
//! | `float`              | the `f64` bits of the `f32` value, widened          |
//! | `double`             | the `f64` bits                                      |
//! | `ptr`                | the guest pointer's handle                          |
//!
//! `i1` is the one integer type without a sign bit: C's `bool` is unsigned
//! and nothing else produces one. A compare yields 0/1, [`IrType::wrap`]
//! and [`decode`] keep the low bit, so a stored-and-reloaded `true` is the
//! `true` a register holds; `sext` and `zext` of an `i1` both give 0/1 and
//! the signed predicates order `false < true`.
//!
//! Running a program is calling these kernels, and the payload is the one
//! value representation of both engines: the interpreter's frame slots and
//! the VM's registers hold payloads, and so do the arguments and results of
//! every call and of the shared runtime. The VM calls the kernels with the
//! operator and type as literals, so each call folds to the one instruction
//! it means — hence `#[inline(always)]`; the interpreter calls them with the
//! operator and type its instruction holds. *Folding* a program is calling
//! them too: [`simplify`], the one function behind the [`crate::IrBuilder`]'s
//! on-the-fly folding and the mid end's `cleanup`, runs the kernel on
//! [`Value::payload`]s when every operand is a constant, so a folded
//! constant is by construction the value the program would have computed.

use crate::inst::{BinOpKind, CastOp, CmpPred, Inst};
use crate::types::IrType;
use crate::value::Value;

/// Why [`bin`] computed nothing. The engines turn it into their run-time
/// error; the folder leaves the instruction in place, to trap when it runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Trap {
    /// Integer division or remainder by zero.
    DivByZero,
    /// Pointer arithmetic other than `add`/`sub`.
    PtrArith,
}

/// Whether `lhs <op> rhs` at type `ty` can [`Trap`] for some operands — what
/// [`removable`] asks of a dead `Bin`.
pub fn may_trap(op: BinOpKind, ty: IrType) -> bool {
    use BinOpKind::*;
    !op.is_float()
        && (matches!(op, SDiv | UDiv | SRem | URem)
            || (ty == IrType::Ptr && !matches!(op, Add | Sub)))
}

/// Whether `inst` may be deleted when nothing uses its result: the one
/// dead-code rule, which the mid end's DCE (and through it the VM's input
/// step) reads. A store or a call acts, an alloca claims a region of guest
/// memory, a load can fault on its address and a `Bin` for which
/// [`may_trap`] holds can [`Trap`]: the interpreter runs the IR as written,
/// so deleting one of them would let an optimized program succeed where the
/// same program unoptimized reports the error. `type_of` types the `Bin`'s
/// operand.
pub fn removable(inst: &Inst, type_of: impl Fn(Value) -> IrType) -> bool {
    match *inst {
        Inst::Store { .. } | Inst::Call { .. } | Inst::Alloca { .. } | Inst::Load { .. } => false,
        Inst::Bin { op, lhs, .. } => !may_trap(op, type_of(lhs)),
        Inst::Gep { .. }
        | Inst::Cmp { .. }
        | Inst::Cast { .. }
        | Inst::Select { .. }
        | Inst::Phi { .. } => true,
    }
}

/// `lhs <op> rhs` at width `ty`, on payloads: wrapping integer arithmetic,
/// division checks, `f32` rounding, the pointer flavor of `add`/`sub`.
#[inline(always)]
pub fn bin(op: BinOpKind, ty: IrType, a: u64, b: u64) -> Result<u64, Trap> {
    use BinOpKind::*;
    if op.is_float() {
        let (x, y) = (f64::from_bits(a), f64::from_bits(b));
        let r = match op {
            FAdd => x + y,
            FSub => x - y,
            FMul => x * y,
            FDiv => x / y,
            FRem => x % y,
            _ => unreachable!(),
        };
        return Ok(round_to(ty, r).to_bits());
    }
    // Pointer arithmetic through add/sub keeps the pointer flavor.
    if ty == IrType::Ptr {
        return match op {
            Add => Ok(a.wrapping_add(b)),
            Sub => Ok(a.wrapping_sub(b)),
            _ => Err(Trap::PtrArith),
        };
    }
    let (x, y) = (a as i64, b as i64);
    let (ux, uy) = (ty.wrap_unsigned(x), ty.wrap_unsigned(y));
    let r = match op {
        Add => x.wrapping_add(y),
        Sub => x.wrapping_sub(y),
        Mul => x.wrapping_mul(y),
        SDiv => {
            if y == 0 {
                return Err(Trap::DivByZero);
            }
            x.wrapping_div(y)
        }
        UDiv => {
            if uy == 0 {
                return Err(Trap::DivByZero);
            }
            (ux / uy) as i64
        }
        SRem => {
            if y == 0 {
                return Err(Trap::DivByZero);
            }
            x.wrapping_rem(y)
        }
        URem => {
            if uy == 0 {
                return Err(Trap::DivByZero);
            }
            (ux % uy) as i64
        }
        Shl => x.wrapping_shl((uy & 63) as u32),
        AShr => x.wrapping_shr((uy & 63) as u32),
        LShr => (ux >> (uy & (ty.bits() as u64 - 1).max(1))) as i64,
        And => x & y,
        Or => x | y,
        Xor => x ^ y,
        _ => unreachable!(),
    };
    Ok(ty.wrap(r) as u64)
}

/// `lhs <pred> rhs` at type `ty`, on payloads. The float predicates are the
/// ordered ones: false when either side is a NaN, except `one`, which is
/// Rust's `!=`.
#[inline(always)]
pub fn cmp(pred: CmpPred, ty: IrType, a: u64, b: u64) -> bool {
    use CmpPred::*;
    if pred.is_float() {
        let (x, y) = (f64::from_bits(a), f64::from_bits(b));
        return match pred {
            FEq => x == y,
            FNe => x != y,
            FLt => x < y,
            FLe => x <= y,
            FGt => x > y,
            FGe => x >= y,
            _ => unreachable!(),
        };
    }
    let (x, y) = (a as i64, b as i64);
    let (ux, uy) = if ty == IrType::Ptr {
        (a, b)
    } else {
        (ty.wrap_unsigned(x), ty.wrap_unsigned(y))
    };
    match pred {
        Eq => ux == uy,
        Ne => ux != uy,
        Slt => x < y,
        Sle => x <= y,
        Sgt => x > y,
        Sge => x >= y,
        Ult => ux < uy,
        Ule => ux <= uy,
        Ugt => ux > uy,
        Uge => ux >= uy,
        _ => unreachable!(),
    }
}

/// `cast<op>` from `from` to `to`, on payloads.
#[inline(always)]
pub fn cast(op: CastOp, from: IrType, to: IrType, v: u64) -> u64 {
    let (i, f) = (v as i64, f64::from_bits(v));
    match op {
        CastOp::Trunc | CastOp::PtrToInt => to.wrap(i) as u64,
        CastOp::SExt | CastOp::IntToPtr => v,
        CastOp::ZExt => from.wrap_unsigned(i),
        CastOp::SiToFp => round_to(to, i as f64).to_bits(),
        CastOp::UiToFp => round_to(to, from.wrap_unsigned(i) as f64).to_bits(),
        CastOp::FpToSi => to.wrap(f as i64) as u64,
        CastOp::FpToUi => to.wrap(f as u64 as i64) as u64,
        CastOp::FpTrunc | CastOp::FpExt => round_to(to, f).to_bits(),
    }
}

/// Whether [`cast`] hands back its input for every payload of `from` and
/// `from` and `to` share a register class — a cast that is a copy. By the
/// payload table: `sext` between integer types (a narrow integer is already
/// held sign-extended), `zext` of an `i1` (0 or 1 either way) and `fpext`
/// (a `float` is already held as its `f64`). `inttoptr` returns its input
/// too, but a pointer is not an integer register.
pub fn keeps_payload(op: CastOp, from: IrType, to: IrType) -> bool {
    match op {
        CastOp::SExt => from.is_int() && to.is_int(),
        CastOp::ZExt => from == IrType::I1 && to.is_int(),
        CastOp::FpExt => from.is_float() && to == IrType::F64,
        _ => false,
    }
}

/// `base + index * elem_size`, on payloads (the byte-scaled GEP).
#[inline(always)]
pub fn gep(base: u64, index: u64, elem_size: u64) -> u64 {
    base.wrapping_add(index.wrapping_mul(elem_size))
}

/// The payload of the `ty` whose stored bits are `raw` (zero-extended, as a
/// memory load returns them).
#[inline(always)]
pub fn decode(ty: IrType, raw: u64) -> u64 {
    match ty {
        IrType::F32 => (f32::from_bits(raw as u32) as f64).to_bits(),
        IrType::F64 | IrType::Ptr => raw,
        _ => ty.wrap(raw as i64) as u64,
    }
}

/// The bits a payload of type `ty` is stored as (a memory store keeps the
/// low `ty.size()` bytes).
#[inline(always)]
pub fn encode(ty: IrType, v: u64) -> u64 {
    match ty {
        IrType::F32 => (f64::from_bits(v) as f32).to_bits() as u64,
        _ => v,
    }
}

#[inline(always)]
fn round_to(ty: IrType, v: f64) -> f64 {
    if ty == IrType::F32 {
        (v as f32) as f64
    } else {
        v
    }
}

/// The value `inst` always computes, when that can be said without running
/// the program: an operand an identity hands back, or — every operand a
/// constant — the constant the kernel computes from their payloads. `None`
/// means the instruction must exist; in particular a constant operation the
/// kernel [`Trap`]s on is left to trap at run time.
pub fn simplify(inst: &Inst, type_of: impl Fn(Value) -> IrType) -> Option<Value> {
    match *inst {
        Inst::Bin { op, lhs, rhs } => {
            let ty = type_of(lhs);
            if let Some(v) = identity(op, lhs, rhs, ty) {
                return Some(v);
            }
            let (a, b) = (lhs.payload()?, rhs.payload()?);
            Value::of_payload(ty, bin(op, ty, a, b).ok()?)
        }
        Inst::Cmp { pred, lhs, rhs } => {
            let (a, b) = (lhs.payload()?, rhs.payload()?);
            Some(Value::bool(cmp(pred, type_of(lhs), a, b)))
        }
        Inst::Cast { op, val, to } => {
            use CastOp::*;
            let from = type_of(val);
            if from == to && matches!(op, Trunc | ZExt | SExt | FpTrunc | FpExt) {
                return Some(val);
            }
            Value::of_payload(to, cast(op, from, to, val.payload()?))
        }
        Inst::Select { cond, t, f } => cond.as_const_int().map(|c| if c != 0 { t } else { f }),
        Inst::Gep { ptr, index, .. } if index.is_zero_int() => Some(ptr),
        _ => None,
    }
}

/// The integer identities, one per row: they hold for non-constant operands
/// too, which is why they are not the kernel's business. None is applied to
/// a float operator (`x * 0.0` is not `0.0` for a NaN, an infinity or a
/// negative `x`).
fn identity(op: BinOpKind, lhs: Value, rhs: Value, ty: IrType) -> Option<Value> {
    use BinOpKind::*;
    let variable = matches!(lhs, Value::Inst(_) | Value::Arg(_));
    match op {
        Add | Or | Xor if lhs.is_zero_int() => Some(rhs),
        Add | Sub | Or | Xor | Shl | AShr | LShr if rhs.is_zero_int() => Some(lhs),
        Sub if lhs == rhs && variable => Some(Value::int(ty, 0)),
        Mul | And if lhs.is_zero_int() || rhs.is_zero_int() => Some(Value::int(ty, 0)),
        Mul if lhs.is_one_int() => Some(rhs),
        Mul | UDiv | SDiv if rhs.is_one_int() => Some(lhs),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Callee;
    use crate::{BlockId, SymbolId};

    /// The dead-code rule, one row per instruction kind (a `Bin` at an
    /// integer, a float and a pointer type): `true` where an unused instance
    /// may go.
    #[test]
    fn removable_keeps_what_acts_or_may_trap() {
        let (int, float) = (Value::i64(7), Value::float(IrType::F64, 7.0));
        let ptr = Value::Undef(IrType::Ptr);
        let bin = |op, v| Inst::Bin { op, lhs: v, rhs: v };
        let rows = [
            (bin(BinOpKind::Add, int), true),
            (bin(BinOpKind::Mul, int), true),
            (bin(BinOpKind::SDiv, int), false),
            (bin(BinOpKind::UDiv, int), false),
            (bin(BinOpKind::SRem, int), false),
            (bin(BinOpKind::URem, int), false),
            (bin(BinOpKind::FDiv, float), true),
            (bin(BinOpKind::FRem, float), true),
            (bin(BinOpKind::Add, ptr), true),
            (bin(BinOpKind::Sub, ptr), true),
            (bin(BinOpKind::Mul, ptr), false),
            (bin(BinOpKind::And, ptr), false),
            (
                Inst::Cmp {
                    pred: CmpPred::Slt,
                    lhs: int,
                    rhs: int,
                },
                true,
            ),
            (
                Inst::Cast {
                    op: CastOp::SiToFp,
                    val: int,
                    to: IrType::F64,
                },
                true,
            ),
            (
                Inst::Select {
                    cond: Value::bool(true),
                    t: int,
                    f: int,
                },
                true,
            ),
            (
                Inst::Gep {
                    ptr,
                    index: int,
                    elem_size: 8,
                },
                true,
            ),
            (
                Inst::Phi {
                    ty: IrType::I64,
                    incoming: vec![(BlockId(0), int)],
                },
                true,
            ),
            (
                Inst::Alloca {
                    ty: IrType::I64,
                    count: 1,
                    name: "x".into(),
                },
                false,
            ),
            (
                Inst::Load {
                    ty: IrType::I64,
                    ptr,
                },
                false,
            ),
            (Inst::Store { val: int, ptr }, false),
            (
                Inst::Call {
                    callee: Callee(SymbolId(0)),
                    args: vec![],
                    ty: IrType::I64,
                },
                false,
            ),
        ];
        let type_of = |v: Value| match v {
            Value::ConstInt { ty, .. } | Value::ConstFloat { ty, .. } | Value::Undef(ty) => ty,
            _ => unreachable!("the rows use constants only"),
        };
        for (inst, want) in rows {
            assert_eq!(removable(&inst, type_of), want, "{inst:?}");
        }
    }

    /// The header's `i1` row: every producer of an `i1` payload yields 0 or
    /// 1, and the two constructors of an `i1` constant agree.
    #[test]
    fn every_producer_of_an_i1_yields_zero_or_one() {
        use IrType::I1;
        let bit = |v: u64| assert!(v <= 1, "an i1 payload of {v:#x}");
        for raw in [0i64, 1, 2, 3, 255, 256, -1, -2, i64::MIN, i64::MAX] {
            assert_eq!(I1.wrap(raw), raw & 1);
            assert_eq!(I1.wrap_unsigned(raw), (raw & 1) as u64);
            bit(decode(I1, raw as u64 & 0xFF));
            assert_eq!(Value::int(I1, raw), Value::bool(raw & 1 == 1));
            assert_eq!(
                Value::of_payload(I1, raw as u64),
                Some(Value::bool(raw & 1 == 1))
            );
            for from in [IrType::I8, IrType::I32, IrType::I64] {
                bit(cast(CastOp::Trunc, from, I1, raw as u64));
            }
            for op in [CastOp::FpToSi, CastOp::FpToUi] {
                bit(cast(op, IrType::F64, I1, (raw as f64).to_bits()));
            }
        }
        assert_eq!(decode(I1, encode(I1, 1)), 1);
        for (a, b) in [(0u64, 0u64), (0, 1), (1, 0), (1, 1)] {
            for &op in BinOpKind::ALL.iter().filter(|op| !op.is_float()) {
                if let Ok(r) = bin(op, I1, a, b) {
                    bit(r);
                }
            }
            for &pred in CmpPred::ALL.iter().filter(|p| !p.is_float()) {
                // `false < true` under the signed predicates as well.
                let unsigned = match pred {
                    CmpPred::Slt => CmpPred::Ult,
                    CmpPred::Sle => CmpPred::Ule,
                    CmpPred::Sgt => CmpPred::Ugt,
                    CmpPred::Sge => CmpPred::Uge,
                    p => p,
                };
                assert_eq!(cmp(pred, I1, a, b), cmp(unsigned, I1, a, b));
            }
            // Both extensions keep the 0/1.
            assert_eq!(cast(CastOp::ZExt, I1, IrType::I32, a), a);
            assert_eq!(cast(CastOp::SExt, I1, IrType::I32, a), a);
        }
    }

    /// [`keeps_payload`] against its definition, both ways, over every valid
    /// conversion: it holds exactly where [`cast`] returns each edge payload
    /// of the source type unchanged and both types share a register class.
    #[test]
    fn keeps_payload_is_exactly_the_casts_that_return_their_input() {
        use IrType::*;
        let payloads = |ty: IrType| -> Vec<u64> {
            match ty {
                I1 => vec![0, 1],
                F32 | F64 => [-0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 0.1]
                    .map(|x| round_to(ty, x).to_bits())
                    .to_vec(),
                Ptr => vec![0, 8, 1 << 63, u64::MAX],
                _ => {
                    let min = ty.wrap(1 << (ty.bits() - 1));
                    [0, 1, -1, min, !min, 0xA5A5_A5A5_A5A5_A5A5u64 as i64]
                        .map(|x| ty.wrap(x) as u64)
                        .to_vec()
                }
            }
        };
        let valid = |op: CastOp, from: IrType, to: IrType| {
            let ints = from.is_int() && to.is_int();
            match op {
                CastOp::Trunc => ints && to.bits() < from.bits(),
                CastOp::SExt | CastOp::ZExt => ints && to.bits() > from.bits(),
                CastOp::SiToFp | CastOp::UiToFp => from.is_int() && to.is_float(),
                CastOp::FpToSi | CastOp::FpToUi => from.is_float() && to.is_int(),
                CastOp::FpTrunc => from == F64 && to == F32,
                CastOp::FpExt => from == F32 && to == F64,
                CastOp::PtrToInt => from == Ptr && to.is_int(),
                CastOp::IntToPtr => from.is_int() && to == Ptr,
            }
        };
        let class = |ty: IrType| (ty.is_int(), ty.is_float());
        let mut free = 0;
        for &op in CastOp::ALL {
            for &from in IrType::ALL {
                for &to in IrType::ALL.iter().filter(|&&to| valid(op, from, to)) {
                    let identity = payloads(from)
                        .into_iter()
                        .all(|v| cast(op, from, to, v) == v);
                    let want = identity && class(from) == class(to);
                    let label = format!("{} {from} to {to}", op.mnemonic());
                    assert_eq!(keeps_payload(op, from, to), want, "{label}");
                    free += want as usize;
                }
            }
        }
        // `sext` from i1/i8/i16/i32 to each wider integer, `zext i1` to
        // each wider integer, and `fpext`.
        assert_eq!(free, 10 + 4 + 1);
        for (op, from, to) in [
            (CastOp::Trunc, I64, I32),
            (CastOp::ZExt, I8, I32),
            (CastOp::FpTrunc, F64, F32),
            (CastOp::IntToPtr, I64, Ptr),
            (CastOp::PtrToInt, Ptr, I64),
        ] {
            assert!(!keeps_payload(op, from, to), "{} is no copy", op.mnemonic());
        }
    }
}
