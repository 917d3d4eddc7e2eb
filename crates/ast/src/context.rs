//! `ASTContext`: allocation context for AST nodes — fresh declaration
//! identities, interned builtin types, the identifier table declaration
//! names are symbols of, and synthetic-name generation.

use crate::decl::{DeclId, VarDecl, VarKind};
use crate::expr::{BinOp, CastKind, Expr, ExprKind, UnOp};
use crate::ty::{IntWidth, Type, TypeKind};
use crate::P;
use omplt_source::{IdentifierTable, SourceLocation, Symbol};
use std::cell::{Cell, Ref, RefCell};
use std::rc::Rc;

/// Per-compilation AST context.
pub struct ASTContext {
    /// The compilation's spellings. Node factories take `&self`, so the
    /// table is a `RefCell`: nothing holds a borrow across a call.
    idents: RefCell<IdentifierTable>,
    next_decl: Cell<u32>,
    next_synth_name: Cell<u32>,
    // Interned builtin types.
    ty_void: P<Type>,
    ty_bool: P<Type>,
    ty_char: P<Type>,
    ty_short: P<Type>,
    ty_int: P<Type>,
    ty_uint: P<Type>,
    ty_long: P<Type>,
    ty_ulong: P<Type>,
    ty_float: P<Type>,
    ty_double: P<Type>,
}

impl Default for ASTContext {
    fn default() -> Self {
        Self::new()
    }
}

impl ASTContext {
    /// Creates a fresh context.
    pub fn new() -> Self {
        let int = |width, signed| Type::new(TypeKind::Int { width, signed });
        ASTContext {
            idents: RefCell::default(),
            next_decl: Cell::new(0),
            next_synth_name: Cell::new(0),
            ty_void: Type::new(TypeKind::Void),
            ty_bool: Type::new(TypeKind::Bool),
            ty_char: int(IntWidth::W8, true),
            ty_short: int(IntWidth::W16, true),
            ty_int: int(IntWidth::W32, true),
            ty_uint: int(IntWidth::W32, false),
            ty_long: int(IntWidth::W64, true),
            ty_ulong: int(IntWidth::W64, false),
            ty_float: Type::new(TypeKind::Float),
            ty_double: Type::new(TypeKind::Double),
        }
    }

    /// Allocates a fresh declaration identity.
    pub fn fresh_decl_id(&self) -> DeclId {
        let id = self.next_decl.get();
        self.next_decl.set(id + 1);
        DeclId(id)
    }

    /// Installs the table the lexer filled; the parser does this before
    /// the first declaration.
    pub fn set_idents(&self, idents: IdentifierTable) {
        *self.idents.borrow_mut() = idents;
    }

    /// Hands the table on (to the finished translation unit).
    pub fn take_idents(&self) -> IdentifierTable {
        self.idents.take()
    }

    /// The identifier table, for rendering symbols.
    pub fn idents(&self) -> Ref<'_, IdentifierTable> {
        self.idents.borrow()
    }

    /// The symbol of `spelling`.
    pub fn intern(&self, spelling: &str) -> Symbol {
        self.idents.borrow_mut().intern(spelling)
    }

    /// The spelling of `sym`.
    pub fn spelling(&self, sym: Symbol) -> Rc<str> {
        self.idents.borrow().shared(sym)
    }

    /// Produces a unique internal name with the given stem, e.g.
    /// `fresh_name(".capture_expr.")`.
    pub fn fresh_name(&self, stem: &str) -> String {
        let n = self.next_synth_name.get();
        self.next_synth_name.set(n + 1);
        format!("{stem}{n}")
    }

    /// `void`.
    pub fn void(&self) -> P<Type> {
        P::clone(&self.ty_void)
    }

    /// `bool`.
    pub fn bool_ty(&self) -> P<Type> {
        P::clone(&self.ty_bool)
    }

    /// `char`.
    pub fn char_ty(&self) -> P<Type> {
        P::clone(&self.ty_char)
    }

    /// `short`.
    pub fn short_ty(&self) -> P<Type> {
        P::clone(&self.ty_short)
    }

    /// `int`.
    pub fn int(&self) -> P<Type> {
        P::clone(&self.ty_int)
    }

    /// `unsigned int`.
    pub fn uint(&self) -> P<Type> {
        P::clone(&self.ty_uint)
    }

    /// `long` (64-bit).
    pub fn long_ty(&self) -> P<Type> {
        P::clone(&self.ty_long)
    }

    /// `unsigned long` — also `size_t` under the LP64 ABI. The paper's
    /// logical iteration counter type.
    pub fn size_t(&self) -> P<Type> {
        P::clone(&self.ty_ulong)
    }

    /// `ptrdiff_t` (== `long`).
    pub fn ptrdiff_t(&self) -> P<Type> {
        P::clone(&self.ty_long)
    }

    /// `float`.
    pub fn float_ty(&self) -> P<Type> {
        P::clone(&self.ty_float)
    }

    /// `double`.
    pub fn double_ty(&self) -> P<Type> {
        P::clone(&self.ty_double)
    }

    /// An integer type of the given width/signedness (interned for common
    /// ones).
    pub fn int_ty(&self, width: IntWidth, signed: bool) -> P<Type> {
        match (width, signed) {
            (IntWidth::W8, true) => self.char_ty(),
            (IntWidth::W16, true) => self.short_ty(),
            (IntWidth::W32, true) => self.int(),
            (IntWidth::W32, false) => self.uint(),
            (IntWidth::W64, true) => self.long_ty(),
            (IntWidth::W64, false) => self.size_t(),
            _ => Type::new(TypeKind::Int { width, signed }),
        }
    }

    /// `T *`.
    pub fn pointer_to(&self, t: P<Type>) -> P<Type> {
        Type::new(TypeKind::Pointer(t))
    }

    /// The unsigned integer type of the same width as `t` — the paper's rule
    /// for the logical iteration counter ("we always use an unsigned logical
    /// iteration counter" with "the precision of the type of the subtract
    /// expression").
    pub fn unsigned_of_same_width(&self, t: &Type) -> P<Type> {
        match t.kind {
            TypeKind::Int { width, .. } => self.int_ty(width, false),
            TypeKind::Pointer(_) => self.size_t(),
            _ => self.size_t(),
        }
    }

    // ---- convenience node factories (used heavily by Sema/transforms) ----
    // Each interns the name it is given.

    /// A local variable declaration.
    pub fn make_var(
        &self,
        name: impl AsRef<str>,
        ty: P<Type>,
        init: Option<P<Expr>>,
        loc: SourceLocation,
    ) -> P<VarDecl> {
        P::new(VarDecl {
            id: self.fresh_decl_id(),
            name: self.intern(name.as_ref()),
            ty,
            init,
            loc,
            kind: VarKind::Local,
            implicit: false,
            by_ref: false,
            used: Cell::new(false),
        })
    }

    /// A compiler-generated local variable (`implicit` flag set; dumps show
    /// it only in transformed subtrees).
    pub fn make_implicit_var(
        &self,
        name: impl AsRef<str>,
        ty: P<Type>,
        init: Option<P<Expr>>,
        loc: SourceLocation,
    ) -> P<VarDecl> {
        P::new(VarDecl {
            id: self.fresh_decl_id(),
            name: self.intern(name.as_ref()),
            ty,
            init,
            loc,
            kind: VarKind::Local,
            implicit: true,
            by_ref: false,
            used: Cell::new(true),
        })
    }

    /// An implicit parameter (`.global_tid.` and friends).
    pub fn make_implicit_param(&self, name: impl AsRef<str>, ty: P<Type>) -> P<VarDecl> {
        P::new(VarDecl {
            id: self.fresh_decl_id(),
            name: self.intern(name.as_ref()),
            ty,
            init: None,
            loc: SourceLocation::INVALID,
            kind: VarKind::ImplicitParam,
            implicit: true,
            by_ref: false,
            used: Cell::new(true),
        })
    }

    /// An integer literal of type `ty`.
    pub fn int_lit(&self, v: i128, ty: P<Type>, loc: SourceLocation) -> P<Expr> {
        Expr::rvalue(ExprKind::IntegerLiteral(v), ty, loc)
    }

    /// An lvalue reference to `var`, marking it used.
    pub fn decl_ref(&self, var: &P<VarDecl>, loc: SourceLocation) -> P<Expr> {
        var.used.set(true);
        Expr::lvalue(ExprKind::DeclRef(P::clone(var)), P::clone(&var.ty), loc)
    }

    /// An rvalue read of `var` (`DeclRef` wrapped in `LValueToRValue`).
    pub fn read_var(&self, var: &P<VarDecl>, loc: SourceLocation) -> P<Expr> {
        let r = self.decl_ref(var, loc);
        let ty = P::clone(&r.ty);
        Expr::rvalue(ExprKind::ImplicitCast(CastKind::LValueToRValue, r), ty, loc)
    }

    /// A binary arithmetic/comparison node with explicit result type.
    pub fn binary(
        &self,
        op: BinOp,
        l: P<Expr>,
        r: P<Expr>,
        ty: P<Type>,
        loc: SourceLocation,
    ) -> P<Expr> {
        Expr::rvalue(ExprKind::Binary(op, l, r), ty, loc)
    }

    /// `lhs = rhs` (assignment yields an lvalue in C++, an rvalue in C; we
    /// follow C).
    pub fn assign(&self, lhs: P<Expr>, rhs: P<Expr>, loc: SourceLocation) -> P<Expr> {
        let ty = P::clone(&lhs.ty);
        Expr::rvalue(ExprKind::Binary(BinOp::Assign, lhs, rhs), ty, loc)
    }

    /// A unary node.
    pub fn unary(&self, op: UnOp, sub: P<Expr>, ty: P<Type>, loc: SourceLocation) -> P<Expr> {
        Expr::rvalue(ExprKind::Unary(op, sub), ty, loc)
    }

    /// An implicit integral conversion if needed (no-op when types match).
    pub fn int_convert(&self, e: P<Expr>, to: &P<Type>) -> P<Expr> {
        if *e.ty == **to {
            return e;
        }
        let loc = e.loc;
        Expr::rvalue(
            ExprKind::ImplicitCast(CastKind::IntegralCast, e),
            P::clone(to),
            loc,
        )
    }

    /// `min(a, b)` built as `a < b ? a : b` (used by tile bounds).
    pub fn min_expr(&self, a: P<Expr>, b: P<Expr>, ty: P<Type>, loc: SourceLocation) -> P<Expr> {
        let cond = self.binary(BinOp::Lt, P::clone(&a), P::clone(&b), self.bool_ty(), loc);
        Expr::rvalue(ExprKind::Conditional(cond, a, b), ty, loc)
    }

    /// `max(a, b)` built as `a < b ? b : a` (used by fuse bounds).
    pub fn max_expr(&self, a: P<Expr>, b: P<Expr>, ty: P<Type>, loc: SourceLocation) -> P<Expr> {
        let cond = self.binary(BinOp::Lt, P::clone(&a), P::clone(&b), self.bool_ty(), loc);
        Expr::rvalue(ExprKind::Conditional(cond, b, a), ty, loc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decl_ids_are_unique() {
        let ctx = ASTContext::new();
        let a = ctx.fresh_decl_id();
        let b = ctx.fresh_decl_id();
        assert_ne!(a, b);
    }

    #[test]
    fn interned_types_are_shared() {
        let ctx = ASTContext::new();
        assert!(P::ptr_eq(&ctx.int(), &ctx.int()));
        assert_eq!(*ctx.size_t(), *ctx.int_ty(IntWidth::W64, false));
    }

    #[test]
    fn unsigned_of_same_width_rule() {
        let ctx = ASTContext::new();
        assert_eq!(
            ctx.unsigned_of_same_width(&ctx.int()).spelling(),
            "unsigned int"
        );
        assert_eq!(
            ctx.unsigned_of_same_width(&ctx.long_ty()).spelling(),
            "unsigned long"
        );
        // pointers difference with size_t-width counter
        let p = ctx.pointer_to(ctx.double_ty());
        assert_eq!(ctx.unsigned_of_same_width(&p).spelling(), "unsigned long");
    }

    #[test]
    fn read_var_marks_used_and_wraps() {
        let ctx = ASTContext::new();
        let v = ctx.make_var("i", ctx.int(), None, SourceLocation::INVALID);
        assert!(!v.used.get());
        let r = ctx.read_var(&v, SourceLocation::INVALID);
        assert!(v.used.get());
        assert!(matches!(
            r.kind,
            ExprKind::ImplicitCast(CastKind::LValueToRValue, _)
        ));
    }

    #[test]
    fn fresh_names_are_unique() {
        let ctx = ASTContext::new();
        assert_ne!(ctx.fresh_name(".omp.iv"), ctx.fresh_name(".omp.iv"));
    }

    #[test]
    fn int_convert_is_noop_for_same_type() {
        let ctx = ASTContext::new();
        let e = ctx.int_lit(3, ctx.int(), SourceLocation::INVALID);
        let c = ctx.int_convert(P::clone(&e), &ctx.int());
        assert!(P::ptr_eq(&e, &c));
        let widened = ctx.int_convert(e, &ctx.long_ty());
        assert!(matches!(
            widened.kind,
            ExprKind::ImplicitCast(CastKind::IntegralCast, _)
        ));
    }
}
