//! The `Type` hierarchy — one of the four unrelated AST node hierarchies
//! (paper: "there is no common base class for AST nodes").

use crate::P;
use std::fmt;

/// Bit width of an integer type.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
#[allow(missing_docs)]
pub enum IntWidth {
    W8,
    W16,
    W32,
    W64,
}

impl IntWidth {
    /// Width in bits.
    pub fn bits(self) -> u32 {
        match self {
            IntWidth::W8 => 8,
            IntWidth::W16 => 16,
            IntWidth::W32 => 32,
            IntWidth::W64 => 64,
        }
    }

    /// Width in bytes.
    pub fn bytes(self) -> u64 {
        (self.bits() / 8) as u64
    }
}

/// The structural kind of a type.
#[derive(Clone, PartialEq, Debug)]
pub enum TypeKind {
    /// `void`.
    Void,
    /// `bool` / `_Bool`.
    Bool,
    /// Any integer type (char, short, int, long, size_t, …).
    Int {
        /// Bit width.
        width: IntWidth,
        /// Signedness.
        signed: bool,
    },
    /// `float` (32-bit).
    Float,
    /// `double` (64-bit).
    Double,
    /// `T *`.
    Pointer(P<Type>),
    /// `T[len]` with a compile-time length.
    Array(P<Type>, u64),
    /// A function type.
    Function {
        /// Return type.
        ret: P<Type>,
        /// Parameter types.
        params: Vec<P<Type>>,
    },
}

/// A type node. Types compare structurally.
#[derive(Clone, PartialEq, Debug)]
pub struct Type {
    /// The structural kind.
    pub kind: TypeKind,
}

impl Type {
    /// Wraps a kind into a counted pointer.
    pub fn new(kind: TypeKind) -> P<Type> {
        P::new(Type { kind })
    }

    /// True for `void`.
    pub fn is_void(&self) -> bool {
        self.kind == TypeKind::Void
    }

    /// True for any integer type (not bool).
    pub fn is_integer(&self) -> bool {
        matches!(self.kind, TypeKind::Int { .. })
    }

    /// True for bool or integers.
    pub fn is_integral_or_bool(&self) -> bool {
        matches!(self.kind, TypeKind::Int { .. } | TypeKind::Bool)
    }

    /// True for float/double.
    pub fn is_floating(&self) -> bool {
        matches!(self.kind, TypeKind::Float | TypeKind::Double)
    }

    /// True for integer, bool or floating types.
    pub fn is_arithmetic(&self) -> bool {
        self.is_integral_or_bool() || self.is_floating()
    }

    /// True for pointers.
    pub fn is_pointer(&self) -> bool {
        matches!(self.kind, TypeKind::Pointer(_))
    }

    /// True for arithmetic or pointer types.
    pub fn is_scalar(&self) -> bool {
        self.is_arithmetic() || self.is_pointer()
    }

    /// Signedness of an integer type; `false` for everything else.
    pub fn is_signed_int(&self) -> bool {
        matches!(self.kind, TypeKind::Int { signed: true, .. })
    }

    /// True for unsigned integer types.
    pub fn is_unsigned_int(&self) -> bool {
        matches!(self.kind, TypeKind::Int { signed: false, .. })
    }

    /// Pointee type, if a pointer.
    pub fn pointee(&self) -> Option<&P<Type>> {
        match &self.kind {
            TypeKind::Pointer(t) => Some(t),
            _ => None,
        }
    }

    /// Element type, if an array.
    pub fn element(&self) -> Option<&P<Type>> {
        match &self.kind {
            TypeKind::Array(t, _) => Some(t),
            _ => None,
        }
    }

    /// Size in bytes under the interpreter/codegen ABI (LP64-like).
    pub fn size_of(&self) -> u64 {
        match &self.kind {
            TypeKind::Void => 0,
            TypeKind::Bool => 1,
            TypeKind::Int { width, .. } => width.bytes(),
            TypeKind::Float => 4,
            TypeKind::Double => 8,
            TypeKind::Pointer(_) => 8,
            TypeKind::Array(el, n) => el.size_of() * n,
            TypeKind::Function { .. } => 8,
        }
    }

    /// Alignment in bytes (== scalar size; arrays align to their element).
    pub fn align_of(&self) -> u64 {
        match &self.kind {
            TypeKind::Array(el, _) => el.align_of(),
            TypeKind::Void => 1,
            _ => self.size_of().max(1),
        }
    }

    /// The C spelling used in AST dumps (e.g. `'int'`, `'double *'`).
    pub fn spelling(&self) -> String {
        match &self.kind {
            TypeKind::Void => "void".into(),
            TypeKind::Bool => "bool".into(),
            TypeKind::Int {
                width: IntWidth::W8,
                signed: true,
            } => "char".into(),
            TypeKind::Int {
                width: IntWidth::W8,
                signed: false,
            } => "unsigned char".into(),
            TypeKind::Int {
                width: IntWidth::W16,
                signed: true,
            } => "short".into(),
            TypeKind::Int {
                width: IntWidth::W16,
                signed: false,
            } => "unsigned short".into(),
            TypeKind::Int {
                width: IntWidth::W32,
                signed: true,
            } => "int".into(),
            TypeKind::Int {
                width: IntWidth::W32,
                signed: false,
            } => "unsigned int".into(),
            TypeKind::Int {
                width: IntWidth::W64,
                signed: true,
            } => "long".into(),
            TypeKind::Int {
                width: IntWidth::W64,
                signed: false,
            } => "unsigned long".into(),
            TypeKind::Float => "float".into(),
            TypeKind::Double => "double".into(),
            TypeKind::Pointer(t) => format!("{} *", t.spelling()),
            TypeKind::Array(t, n) => format!("{}[{}]", t.spelling(), n),
            TypeKind::Function { ret, params } => {
                let ps: Vec<String> = params.iter().map(|p| p.spelling()).collect();
                format!("{} ({})", ret.spelling(), ps.join(", "))
            }
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.spelling())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int() -> P<Type> {
        Type::new(TypeKind::Int {
            width: IntWidth::W32,
            signed: true,
        })
    }

    #[test]
    fn predicates() {
        let i = int();
        assert!(i.is_integer() && i.is_signed_int() && i.is_arithmetic() && i.is_scalar());
        let d = Type::new(TypeKind::Double);
        assert!(d.is_floating() && !d.is_integer());
        let p = Type::new(TypeKind::Pointer(int()));
        assert!(p.is_pointer() && p.is_scalar() && !p.is_arithmetic());
        assert_eq!(p.pointee().unwrap().spelling(), "int");
    }

    #[test]
    fn sizes_lp64() {
        assert_eq!(int().size_of(), 4);
        assert_eq!(Type::new(TypeKind::Pointer(int())).size_of(), 8);
        assert_eq!(Type::new(TypeKind::Array(int(), 10)).size_of(), 40);
        assert_eq!(
            Type::new(TypeKind::Int {
                width: IntWidth::W64,
                signed: false
            })
            .size_of(),
            8
        );
        assert_eq!(Type::new(TypeKind::Bool).size_of(), 1);
    }

    #[test]
    fn spellings() {
        assert_eq!(int().spelling(), "int");
        assert_eq!(
            Type::new(TypeKind::Pointer(Type::new(TypeKind::Double))).spelling(),
            "double *"
        );
        assert_eq!(Type::new(TypeKind::Array(int(), 4)).spelling(), "int[4]");
        let f = Type::new(TypeKind::Function {
            ret: Type::new(TypeKind::Void),
            params: vec![int()],
        });
        assert_eq!(f.spelling(), "void (int)");
    }

    #[test]
    fn structural_equality() {
        assert_eq!(*int(), *int());
        assert_ne!(
            *int(),
            *Type::new(TypeKind::Int {
                width: IntWidth::W32,
                signed: false
            })
        );
    }

    #[test]
    fn array_alignment_follows_element() {
        let a = Type::new(TypeKind::Array(Type::new(TypeKind::Double), 3));
        assert_eq!(a.align_of(), 8);
        assert_eq!(a.size_of(), 24);
    }
}
