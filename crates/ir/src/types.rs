//! IR-level types (a flat scalar type system, LLVM-style).

use std::fmt;

/// Declares a fieldless enum from rows of `Variant => "mnemonic"`: the enum,
/// its `mnemonic()`, and `ALL` in declaration order. The bytecode codec
/// writes `x as u8` and reads `ALL.get(tag)`, so a variant added as a row
/// cannot be forgotten anywhere else.
macro_rules! mnemonic_enum {
    ($(#[$meta:meta])* $name:ident { $($(#[$vmeta:meta])* $variant:ident => $text:literal,)* }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
        pub enum $name {
            $($(#[$vmeta])* $variant,)*
        }

        impl $name {
            /// Every variant in declaration order: `ALL[i] as u8 == i`.
            pub const ALL: &'static [$name] = &[$($name::$variant),*];

            /// The spelling the IR printer and the disassembler use.
            pub fn mnemonic(self) -> &'static str {
                match self {
                    $($name::$variant => $text,)*
                }
            }
        }
    };
}
pub(crate) use mnemonic_enum;

mnemonic_enum! {
    /// A first-class IR type.
    IrType {
        /// No value (function returns only).
        Void => "void",
        /// 1-bit boolean (comparison results).
        I1 => "i1",
        /// 8-bit integer.
        I8 => "i8",
        /// 16-bit integer.
        I16 => "i16",
        /// 32-bit integer.
        I32 => "i32",
        /// 64-bit integer.
        I64 => "i64",
        /// 32-bit float.
        F32 => "float",
        /// 64-bit float.
        F64 => "double",
        /// Untyped pointer (opaque, as in modern LLVM).
        Ptr => "ptr",
    }
}

impl IrType {
    /// True for the integer types (including `i1`).
    #[inline]
    pub fn is_int(self) -> bool {
        matches!(
            self,
            IrType::I1 | IrType::I8 | IrType::I16 | IrType::I32 | IrType::I64
        )
    }

    /// True for floating-point types.
    #[inline]
    pub fn is_float(self) -> bool {
        matches!(self, IrType::F32 | IrType::F64)
    }

    /// Bit width of integer types (1 for `i1`), 0 otherwise.
    #[inline]
    pub fn bits(self) -> u32 {
        match self {
            IrType::I1 => 1,
            IrType::I8 => 8,
            IrType::I16 => 16,
            IrType::I32 => 32,
            IrType::I64 => 64,
            _ => 0,
        }
    }

    /// Store size in bytes (pointers are 8; `i1` stores as one byte).
    #[inline]
    pub fn size(self) -> u64 {
        match self {
            IrType::Void => 0,
            IrType::I1 | IrType::I8 => 1,
            IrType::I16 => 2,
            IrType::I32 | IrType::F32 => 4,
            IrType::I64 | IrType::F64 | IrType::Ptr => 8,
        }
    }

    /// The integer type with the given bit width.
    pub fn int_with_bits(bits: u32) -> IrType {
        match bits {
            1 => IrType::I1,
            8 => IrType::I8,
            16 => IrType::I16,
            32 => IrType::I32,
            64 => IrType::I64,
            other => panic!("unsupported integer width {other}"),
        }
    }

    /// Wraps `v` (sign-agnostic bits) to this integer type's width,
    /// sign-extending into `i64` storage — except an `i1`, which has no sign
    /// bit: it wraps to 0 or 1 (the payload table of [`crate::arith`]).
    #[inline]
    pub fn wrap(self, v: i64) -> i64 {
        let bits = self.bits();
        if bits == 0 || bits >= 64 {
            return v;
        }
        if bits == 1 {
            return v & 1;
        }
        let shift = 64 - bits;
        (v << shift) >> shift
    }

    /// Wraps `v` to this integer type's width as an unsigned value.
    #[inline]
    pub fn wrap_unsigned(self, v: i64) -> u64 {
        let bits = self.bits();
        if bits == 0 || bits >= 64 {
            return v as u64;
        }
        (v as u64) & ((1u64 << bits) - 1)
    }
}

impl fmt::Display for IrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(IrType::I32.size(), 4);
        assert_eq!(IrType::Ptr.size(), 8);
        assert_eq!(IrType::I1.size(), 1);
        assert_eq!(IrType::F64.size(), 8);
    }

    #[test]
    fn wrap_signed() {
        assert_eq!(IrType::I8.wrap(255), -1);
        assert_eq!(IrType::I8.wrap(127), 127);
        assert_eq!(IrType::I32.wrap(i64::from(u32::MAX)), -1);
        assert_eq!(IrType::I64.wrap(-5), -5);
        assert_eq!(IrType::I1.wrap(1), 1);
        assert_eq!(IrType::I1.wrap(-2), 0);
    }

    #[test]
    fn wrap_unsigned() {
        assert_eq!(IrType::I8.wrap_unsigned(-1), 255);
        assert_eq!(IrType::I32.wrap_unsigned(-1), u64::from(u32::MAX));
    }

    #[test]
    fn display() {
        assert_eq!(IrType::I64.to_string(), "i64");
        assert_eq!(IrType::Ptr.to_string(), "ptr");
        assert_eq!(IrType::F64.to_string(), "double");
    }

    #[test]
    fn int_with_bits_round_trip() {
        for t in [
            IrType::I1,
            IrType::I8,
            IrType::I16,
            IrType::I32,
            IrType::I64,
        ] {
            assert_eq!(IrType::int_with_bits(t.bits()), t);
        }
    }
}
