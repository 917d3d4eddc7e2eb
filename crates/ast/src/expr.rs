//! The `Expr` hierarchy. As in Clang, `Expr` is derived from `Stmt`
//! ("expressions can be used as a statement with its result being ignored");
//! structurally we keep a separate type and wrap it in
//! [`crate::stmt::StmtKind::Expr`].

use crate::decl::{FunctionDecl, VarDecl};
use crate::ty::Type;
use crate::P;
use omplt_source::SourceLocation;

/// Unary operator kinds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum UnOp {
    Plus,
    Minus,
    LNot,
    BitNot,
    PreInc,
    PreDec,
    PostInc,
    PostDec,
    Deref,
    AddrOf,
}

impl UnOp {
    /// Source spelling (for dumps).
    pub fn spelling(self) -> &'static str {
        match self {
            UnOp::Plus => "+",
            UnOp::Minus => "-",
            UnOp::LNot => "!",
            UnOp::BitNot => "~",
            UnOp::PreInc | UnOp::PostInc => "++",
            UnOp::PreDec | UnOp::PostDec => "--",
            UnOp::Deref => "*",
            UnOp::AddrOf => "&",
        }
    }

    /// Whether the operator is written after its operand.
    pub fn is_postfix(self) -> bool {
        matches!(self, UnOp::PostInc | UnOp::PostDec)
    }

    /// Whether the operator mutates its operand.
    pub fn is_inc_dec(self) -> bool {
        matches!(
            self,
            UnOp::PreInc | UnOp::PreDec | UnOp::PostInc | UnOp::PostDec
        )
    }
}

/// Binary (and assignment) operator kinds, Clang `BinaryOperator` style.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum BinOp {
    Mul,
    Div,
    Rem,
    Add,
    Sub,
    Shl,
    Shr,
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
    BitAnd,
    BitXor,
    BitOr,
    LAnd,
    LOr,
    Assign,
    MulAssign,
    DivAssign,
    RemAssign,
    AddAssign,
    SubAssign,
    ShlAssign,
    ShrAssign,
    AndAssign,
    XorAssign,
    OrAssign,
    Comma,
}

impl BinOp {
    /// Source spelling.
    pub fn spelling(self) -> &'static str {
        use BinOp::*;
        match self {
            Mul => "*",
            Div => "/",
            Rem => "%",
            Add => "+",
            Sub => "-",
            Shl => "<<",
            Shr => ">>",
            Lt => "<",
            Gt => ">",
            Le => "<=",
            Ge => ">=",
            Eq => "==",
            Ne => "!=",
            BitAnd => "&",
            BitXor => "^",
            BitOr => "|",
            LAnd => "&&",
            LOr => "||",
            Assign => "=",
            MulAssign => "*=",
            DivAssign => "/=",
            RemAssign => "%=",
            AddAssign => "+=",
            SubAssign => "-=",
            ShlAssign => "<<=",
            ShrAssign => ">>=",
            AndAssign => "&=",
            XorAssign => "^=",
            OrAssign => "|=",
            Comma => ",",
        }
    }

    /// True for `=` and all compound assignments.
    pub fn is_assignment(self) -> bool {
        use BinOp::*;
        matches!(
            self,
            Assign
                | MulAssign
                | DivAssign
                | RemAssign
                | AddAssign
                | SubAssign
                | ShlAssign
                | ShrAssign
                | AndAssign
                | XorAssign
                | OrAssign
        )
    }

    /// For a compound assignment, the underlying arithmetic op.
    pub fn compound_base(self) -> Option<BinOp> {
        use BinOp::*;
        Some(match self {
            MulAssign => Mul,
            DivAssign => Div,
            RemAssign => Rem,
            AddAssign => Add,
            SubAssign => Sub,
            ShlAssign => Shl,
            ShrAssign => Shr,
            AndAssign => BitAnd,
            XorAssign => BitXor,
            OrAssign => BitOr,
            _ => return None,
        })
    }

    /// True for the six relational/equality operators.
    pub fn is_comparison(self) -> bool {
        use BinOp::*;
        matches!(self, Lt | Gt | Le | Ge | Eq | Ne)
    }
}

/// Cast kinds, following Clang's `CastKind` naming.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum CastKind {
    LValueToRValue,
    IntegralCast,
    IntegralToBoolean,
    IntegralToFloating,
    FloatingToIntegral,
    FloatingCast,
    ArrayToPointerDecay,
    FunctionToPointerDecay,
    PointerToIntegral,
    IntegralToPointer,
    BooleanToIntegral,
    ToVoid,
    NoOp,
}

/// Whether an expression designates an object (lvalue) or a value (rvalue).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum ValueCategory {
    LValue,
    RValue,
}

/// The kind (and children) of an expression.
#[derive(Clone, Debug)]
pub enum ExprKind {
    /// Integer constant. The value is stored sign-agnostically; the node's
    /// type determines interpretation.
    IntegerLiteral(i128),
    /// Floating constant.
    FloatingLiteral(f64),
    /// `true`/`false`.
    BoolLiteral(bool),
    /// Reference to a variable declaration.
    DeclRef(P<VarDecl>),
    /// Unary operation.
    Unary(UnOp, P<Expr>),
    /// Binary or assignment operation.
    Binary(BinOp, P<Expr>, P<Expr>),
    /// Function call. The callee is resolved by Sema.
    Call {
        /// The called function.
        callee: P<FunctionDecl>,
        /// Argument expressions (already converted).
        args: Vec<P<Expr>>,
    },
    /// Compiler-inserted conversion.
    ImplicitCast(CastKind, P<Expr>),
    /// Source-written cast `(T)e`; the target type is the node's type.
    ExplicitCast(CastKind, P<Expr>),
    /// Parenthesized expression (syntax-only node, Clang keeps them too).
    Paren(P<Expr>),
    /// `base[index]`.
    ArraySubscript(P<Expr>, P<Expr>),
    /// `c ? t : f`.
    Conditional(P<Expr>, P<Expr>, P<Expr>),
    /// A constant expression with its Sema-evaluated value, as Clang wraps
    /// clause arguments (dumped as `ConstantExpr` with a `value: Int n`
    /// child, cf. the paper's Fig. lst:astdump_shadowast).
    ConstantExpr {
        /// The evaluated value.
        value: i128,
        /// The syntactic expression.
        sub: P<Expr>,
    },
    /// `sizeof(T)`.
    SizeOf(P<Type>),
}

/// An expression node: kind, type, value category and location.
#[derive(Clone, Debug)]
pub struct Expr {
    /// Kind and children.
    pub kind: ExprKind,
    /// The expression's type.
    pub ty: P<Type>,
    /// lvalue/rvalue.
    pub category: ValueCategory,
    /// Source position.
    pub loc: SourceLocation,
}

impl Expr {
    /// Creates an rvalue expression node.
    pub fn rvalue(kind: ExprKind, ty: P<Type>, loc: SourceLocation) -> P<Expr> {
        P::new(Expr {
            kind,
            ty,
            category: ValueCategory::RValue,
            loc,
        })
    }

    /// Creates an lvalue expression node.
    pub fn lvalue(kind: ExprKind, ty: P<Type>, loc: SourceLocation) -> P<Expr> {
        P::new(Expr {
            kind,
            ty,
            category: ValueCategory::LValue,
            loc,
        })
    }

    /// True if this is an lvalue.
    pub fn is_lvalue(&self) -> bool {
        self.category == ValueCategory::LValue
    }

    /// Strips `Paren`, `ImplicitCast` and `ConstantExpr` wrappers.
    pub fn ignore_wrappers(self: &P<Expr>) -> &P<Expr> {
        match &self.kind {
            ExprKind::Paren(e)
            | ExprKind::ImplicitCast(_, e)
            | ExprKind::ConstantExpr { sub: e, .. } => e.ignore_wrappers(),
            _ => self,
        }
    }

    /// If this expression (after stripping wrappers) is a reference to a
    /// variable, returns the variable.
    pub fn as_decl_ref(self: &P<Expr>) -> Option<&P<VarDecl>> {
        match &self.ignore_wrappers().kind {
            ExprKind::DeclRef(v) => Some(v),
            _ => None,
        }
    }

    /// Evaluates the expression as an integer constant if it is one
    /// (literals, `ConstantExpr`, unary +/-/!/~, binary arithmetic of constants,
    /// casts of constants, `sizeof`).
    pub fn eval_const_int(self: &P<Expr>) -> Option<i128> {
        match &self.kind {
            ExprKind::IntegerLiteral(v) => Some(*v),
            ExprKind::BoolLiteral(b) => Some(*b as i128),
            ExprKind::ConstantExpr { value, .. } => Some(*value),
            // Compiler-generated variables (`.capture_expr.` and friends)
            // are initialized once and never reassigned, so a reference to
            // one is as constant as its initializer. This lets `unroll full`
            // see through the generated loop of an inner transformation.
            ExprKind::DeclRef(v) if v.implicit => v.init.as_ref().and_then(|i| i.eval_const_int()),
            ExprKind::Paren(e) => e.eval_const_int(),
            // LValueToRValue folds iff the wrapped node itself is constant
            // (a reference to a user variable never is; one to a
            // compiler-generated variable is, see above).
            ExprKind::ImplicitCast(_, e) | ExprKind::ExplicitCast(_, e) => {
                let v = e.eval_const_int()?;
                Some(truncate_to(v, &self.ty))
            }
            ExprKind::Unary(UnOp::Minus, e) => Some(truncate_to(-e.eval_const_int()?, &self.ty)),
            ExprKind::Unary(UnOp::Plus, e) => e.eval_const_int(),
            ExprKind::Unary(UnOp::BitNot, e) => Some(truncate_to(!e.eval_const_int()?, &self.ty)),
            ExprKind::Unary(UnOp::LNot, e) => Some((e.eval_const_int()? == 0) as i128),
            ExprKind::Binary(op, l, r) => {
                let (l, r) = (l.eval_const_int()?, r.eval_const_int()?);
                let v = match op {
                    BinOp::Add => l.checked_add(r)?,
                    BinOp::Sub => l.checked_sub(r)?,
                    BinOp::Mul => l.checked_mul(r)?,
                    BinOp::Div => l.checked_div(r)?,
                    BinOp::Rem => l.checked_rem(r)?,
                    BinOp::Shl => l.checked_shl(u32::try_from(r).ok()?)?,
                    BinOp::Shr => l.checked_shr(u32::try_from(r).ok()?)?,
                    BinOp::BitAnd => l & r,
                    BinOp::BitOr => l | r,
                    BinOp::BitXor => l ^ r,
                    BinOp::Lt => (l < r) as i128,
                    BinOp::Gt => (l > r) as i128,
                    BinOp::Le => (l <= r) as i128,
                    BinOp::Ge => (l >= r) as i128,
                    BinOp::Eq => (l == r) as i128,
                    BinOp::Ne => (l != r) as i128,
                    BinOp::LAnd => ((l != 0) && (r != 0)) as i128,
                    BinOp::LOr => ((l != 0) || (r != 0)) as i128,
                    _ => return None,
                };
                Some(truncate_to(v, &self.ty))
            }
            ExprKind::Conditional(c, t, f) => {
                if c.eval_const_int()? != 0 {
                    t.eval_const_int()
                } else {
                    f.eval_const_int()
                }
            }
            ExprKind::SizeOf(t) => Some(t.size_of() as i128),
            _ => None,
        }
    }
}

/// Truncates/wraps `v` into the representable range of integer type `ty`
/// (no-op for non-integers).
pub fn truncate_to(v: i128, ty: &Type) -> i128 {
    match ty.kind {
        crate::ty::TypeKind::Int { width, signed } => {
            let bits = width.bits();
            let mask = if bits == 128 {
                u128::MAX
            } else {
                (1u128 << bits) - 1
            };
            let t = (v as u128) & mask;
            if signed && bits < 128 && (t >> (bits - 1)) & 1 == 1 {
                (t as i128) - (1i128 << bits)
            } else {
                t as i128
            }
        }
        crate::ty::TypeKind::Bool => (v != 0) as i128,
        _ => v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ty::{IntWidth, TypeKind};
    use omplt_source::SourceLocation;

    fn int_ty() -> P<Type> {
        Type::new(TypeKind::Int {
            width: IntWidth::W32,
            signed: true,
        })
    }

    fn lit(v: i128) -> P<Expr> {
        Expr::rvalue(
            ExprKind::IntegerLiteral(v),
            int_ty(),
            SourceLocation::INVALID,
        )
    }

    #[test]
    fn const_eval_arithmetic() {
        let e = Expr::rvalue(
            ExprKind::Binary(BinOp::Add, lit(2), lit(3)),
            int_ty(),
            SourceLocation::INVALID,
        );
        assert_eq!(e.eval_const_int(), Some(5));
        let m = Expr::rvalue(
            ExprKind::Binary(BinOp::Mul, lit(6), lit(7)),
            int_ty(),
            SourceLocation::INVALID,
        );
        assert_eq!(m.eval_const_int(), Some(42));
    }

    #[test]
    fn const_eval_wraps_to_type() {
        // (1 << 31) in 32-bit signed wraps negative
        let e = Expr::rvalue(
            ExprKind::Binary(BinOp::Shl, lit(1), lit(31)),
            int_ty(),
            SourceLocation::INVALID,
        );
        assert_eq!(e.eval_const_int(), Some(i32::MIN as i128));
    }

    #[test]
    fn const_eval_division_by_zero_fails() {
        let e = Expr::rvalue(
            ExprKind::Binary(BinOp::Div, lit(1), lit(0)),
            int_ty(),
            SourceLocation::INVALID,
        );
        assert_eq!(e.eval_const_int(), None);
    }

    #[test]
    fn wrappers_are_transparent() {
        let inner = lit(9);
        let wrapped = Expr::rvalue(
            ExprKind::Paren(Expr::rvalue(
                ExprKind::ConstantExpr {
                    value: 9,
                    sub: inner,
                },
                int_ty(),
                SourceLocation::INVALID,
            )),
            int_ty(),
            SourceLocation::INVALID,
        );
        assert!(matches!(
            wrapped.ignore_wrappers().kind,
            ExprKind::IntegerLiteral(9)
        ));
        assert_eq!(wrapped.eval_const_int(), Some(9));
    }

    #[test]
    fn truncate_semantics() {
        let u8t = Type::new(TypeKind::Int {
            width: IntWidth::W8,
            signed: false,
        });
        assert_eq!(truncate_to(256, &u8t), 0);
        assert_eq!(truncate_to(-1, &u8t), 255);
        let i8t = Type::new(TypeKind::Int {
            width: IntWidth::W8,
            signed: true,
        });
        assert_eq!(truncate_to(128, &i8t), -128);
        assert_eq!(truncate_to(-129, &i8t), 127);
    }

    #[test]
    fn compound_base_mapping() {
        assert_eq!(BinOp::AddAssign.compound_base(), Some(BinOp::Add));
        assert_eq!(BinOp::Assign.compound_base(), None);
        assert!(BinOp::SubAssign.is_assignment());
        assert!(!BinOp::Sub.is_assignment());
    }

    #[test]
    fn sizeof_evaluates() {
        let e = Expr::rvalue(
            ExprKind::SizeOf(Type::new(TypeKind::Double)),
            Type::new(TypeKind::Int {
                width: IntWidth::W64,
                signed: false,
            }),
            SourceLocation::INVALID,
        );
        assert_eq!(e.eval_const_int(), Some(8));
    }
}
