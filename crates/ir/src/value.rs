//! SSA values: small `Copy` handles, in the index-arena idiom.

use crate::function::InstId;
use crate::types::IrType;

/// Interned symbol (function or global name) inside a [`crate::Module`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub struct SymbolId(pub u32);

/// An SSA value. Two values are equal when they are the same instruction,
/// argument or symbol, or the same constant of the same type (a float by
/// its bits), so a value can key a table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Value {
    /// Result of an instruction.
    Inst(InstId),
    /// The `n`-th function argument.
    Arg(u32),
    /// Integer constant (stored sign-extended into `i64`; an `i1` as 0/1).
    ConstInt {
        /// Value type.
        ty: IrType,
        /// Sign-extended value bits.
        val: i64,
    },
    /// Floating constant (stored as bits so `Value` stays `Copy`+`Eq`-able).
    ConstFloat {
        /// Value type (F32/F64).
        ty: IrType,
        /// `f64::to_bits` of the value.
        bits: u64,
    },
    /// Address of a module global.
    Global(SymbolId),
    /// Address of a function (for outlined-function arguments to
    /// `__kmpc_fork_call`).
    FuncRef(SymbolId),
    /// Poison/undef of a given type.
    Undef(IrType),
}

impl Value {
    /// An `i32` constant.
    pub fn i32(v: i32) -> Value {
        Value::ConstInt {
            ty: IrType::I32,
            val: v as i64,
        }
    }

    /// An `i64` constant.
    pub fn i64(v: i64) -> Value {
        Value::ConstInt {
            ty: IrType::I64,
            val: v,
        }
    }

    /// An `i1` constant.
    pub fn bool(v: bool) -> Value {
        Value::ConstInt {
            ty: IrType::I1,
            val: v as i64,
        }
    }

    /// An integer constant of arbitrary integer type, wrapped to width.
    pub fn int(ty: IrType, v: i64) -> Value {
        debug_assert!(ty.is_int());
        Value::ConstInt {
            ty,
            val: ty.wrap(v),
        }
    }

    /// A floating constant, rounded to its type: an `f32` constant holds
    /// what a `float` variable would, so folding an expression and
    /// executing it give the same value on every engine (this is the only
    /// constructor; the payload stays an `f64` bit pattern).
    pub fn float(ty: IrType, v: f64) -> Value {
        debug_assert!(ty.is_float());
        let v = if ty == IrType::F32 {
            v as f32 as f64
        } else {
            v
        };
        Value::ConstFloat {
            ty,
            bits: v.to_bits(),
        }
    }

    /// The constant integer payload, if this is one.
    pub fn as_const_int(self) -> Option<i64> {
        match self {
            Value::ConstInt { val, .. } => Some(val),
            _ => None,
        }
    }

    /// The constant float payload, if this is one.
    pub fn as_const_float(self) -> Option<f64> {
        match self {
            Value::ConstFloat { bits, .. } => Some(f64::from_bits(bits)),
            _ => None,
        }
    }

    /// The [`crate::arith`] payload of a constant: an integer's value, a
    /// float's `f64` bits. `None` for everything only a run can know.
    pub fn payload(self) -> Option<u64> {
        match self {
            Value::ConstInt { val, .. } => Some(val as u64),
            Value::ConstFloat { bits, .. } => Some(bits),
            _ => None,
        }
    }

    /// The constant of type `ty` whose [`crate::arith`] payload is `p`
    /// (wrapped to the type's width, as every constant is). `None` for the
    /// types that have no constants: a pointer is a run-time value.
    pub fn of_payload(ty: IrType, p: u64) -> Option<Value> {
        if ty.is_int() {
            Some(Value::int(ty, p as i64))
        } else if ty.is_float() {
            Some(Value::float(ty, f64::from_bits(p)))
        } else {
            None
        }
    }

    /// True for the zero integer constant.
    pub fn is_zero_int(self) -> bool {
        matches!(self, Value::ConstInt { val: 0, .. })
    }

    /// True for the one integer constant.
    pub fn is_one_int(self) -> bool {
        matches!(self, Value::ConstInt { val: 1, .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Value::i32(-1).as_const_int(), Some(-1));
        assert_eq!(Value::bool(true).as_const_int(), Some(1));
        assert_eq!(Value::float(IrType::F64, 2.5).as_const_float(), Some(2.5));
        assert_eq!(Value::float(IrType::F64, 0.1).as_const_float(), Some(0.1));
        let float = Value::float(IrType::F32, 0.1).as_const_float();
        assert_eq!(float, Some(f64::from(0.1f32)));
        assert!(Value::int(IrType::I32, 0).is_zero_int());
        assert!(Value::int(IrType::I64, 1).is_one_int());
    }

    #[test]
    fn int_constructor_wraps() {
        let v = Value::int(IrType::I8, 255);
        assert_eq!(v.as_const_int(), Some(-1));
    }

    #[test]
    fn value_is_small_and_copy() {
        // Keep Value cheap: it is passed around everywhere.
        assert!(std::mem::size_of::<Value>() <= 24);
        let v = Value::i64(7);
        let w = v; // Copy
        assert_eq!(v, w);
    }
}
