//! Range-based for-loop de-sugaring (paper Fig. lst:rangeloop): Sema builds
//! the `CXXForRangeStmt` with its equivalent helper statements —
//! `__range`/`__begin`/`__end` declarations, the `__begin != __end`
//! condition, the `++__begin` increment, and the per-iteration loop-user-
//! variable binding.

use crate::sema::Sema;
use omplt_ast::{
    BinOp, CastKind, CxxForRangeData, Decl, Expr, ExprKind, Stmt, StmtKind, Type, TypeKind, UnOp,
    VarDecl, VarKind, P,
};
use omplt_source::{SourceLocation, Symbol};

impl Sema<'_> {
    /// Builds `for (T [&]name : range) body-to-come`; returns the de-sugared
    /// data with a placeholder body — the parser parses the body inside the
    /// returned loop-variable scope and finishes via
    /// [`Sema::act_on_range_for_end`].
    ///
    /// The range must be an array lvalue (our container model); `elem_ty` is
    /// the declared element type (checked against the array).
    pub fn act_on_range_for_begin(
        &mut self,
        name: Symbol,
        elem_ty: Option<P<Type>>,
        by_ref: bool,
        range: P<Expr>,
        loc: SourceLocation,
    ) -> Option<RangeForParts> {
        let TypeKind::Array(arr_elem, len) = &range.ty.kind else {
            self.diags.error(
                range.loc,
                format!(
                    "cannot iterate over non-array type '{}'",
                    range.ty.spelling()
                ),
            );
            return None;
        };
        let (arr_elem, len) = (P::clone(arr_elem), *len);
        if let Some(t) = &elem_ty {
            if **t != *arr_elem {
                self.diags.error(
                    loc,
                    format!(
                        "loop variable type '{}' does not match element type '{}'",
                        t.spelling(),
                        arr_elem.spelling()
                    ),
                );
            }
        }
        let ptr_ty = self.ctx.pointer_to(P::clone(&arr_elem));

        // auto &&__range = Container;  (modeled as the decayed pointer)
        let decayed = Expr::rvalue(
            ExprKind::ImplicitCast(CastKind::ArrayToPointerDecay, range),
            P::clone(&ptr_ty),
            loc,
        );
        let range_var =
            self.ctx
                .make_implicit_var("__range", P::clone(&ptr_ty), Some(decayed), loc);
        // auto __begin = std::begin(__range);
        let begin_var = self.ctx.make_implicit_var(
            "__begin",
            P::clone(&ptr_ty),
            Some(self.ctx.read_var(&range_var, loc)),
            loc,
        );
        // auto __end = std::end(__range);  == __range + N
        let end_init = self.ctx.binary(
            BinOp::Add,
            self.ctx.read_var(&range_var, loc),
            self.ctx.int_lit(len as i128, self.ctx.size_t(), loc),
            P::clone(&ptr_ty),
            loc,
        );
        let end_var = self
            .ctx
            .make_implicit_var("__end", P::clone(&ptr_ty), Some(end_init), loc);

        // __begin != __end
        let cond = self.ctx.binary(
            BinOp::Ne,
            self.ctx.read_var(&begin_var, loc),
            self.ctx.read_var(&end_var, loc),
            self.ctx.bool_ty(),
            loc,
        );
        // ++__begin
        let inc = self.ctx.unary(
            UnOp::PreInc,
            self.ctx.decl_ref(&begin_var, loc),
            P::clone(&ptr_ty),
            loc,
        );
        // T [&]name = *__begin;
        let deref = P::new(Expr {
            kind: ExprKind::Unary(UnOp::Deref, self.ctx.read_var(&begin_var, loc)),
            ty: P::clone(&arr_elem),
            category: omplt_ast::ValueCategory::LValue,
            loc,
        });
        let deref = if by_ref {
            deref
        } else {
            // by-value copies the element
            let t = P::clone(&arr_elem);
            Expr::rvalue(
                ExprKind::ImplicitCast(CastKind::LValueToRValue, deref),
                t,
                loc,
            )
        };
        let loop_var = P::new(VarDecl {
            id: self.ctx.fresh_decl_id(),
            name,
            ty: arr_elem,
            init: Some(deref),
            loc,
            kind: VarKind::Local,
            implicit: false,
            by_ref,
            used: std::cell::Cell::new(false),
        });
        self.scopes.push();
        self.scopes.declare(Decl::Var(P::clone(&loop_var)));
        Some(RangeForParts {
            range_var,
            begin_var,
            end_var,
            cond,
            inc,
            loop_var,
            loc,
        })
    }

    /// Completes the range-for once the body is parsed (pops the loop-var
    /// scope).
    pub fn act_on_range_for_end(&mut self, parts: RangeForParts, body: P<Stmt>) -> P<Stmt> {
        self.scopes.pop();
        let loc = parts.loc;
        let mk_decl = |v: &P<VarDecl>| Stmt::new(StmtKind::Decl(vec![Decl::Var(P::clone(v))]), loc);
        let data = CxxForRangeData {
            range_stmt: mk_decl(&parts.range_var),
            begin_stmt: mk_decl(&parts.begin_var),
            end_stmt: mk_decl(&parts.end_var),
            cond: parts.cond,
            inc: parts.inc,
            loop_var_stmt: mk_decl(&parts.loop_var),
            begin_var: parts.begin_var,
            end_var: parts.end_var,
            loop_var: parts.loop_var,
            body,
        };
        Stmt::new(StmtKind::CxxForRange(P::new(data)), loc)
    }

    /// Builds an explicit C-style cast.
    pub fn act_on_cast(&mut self, to: P<Type>, e: P<Expr>, loc: SourceLocation) -> P<Expr> {
        let e = self.rvalue(e);
        if *e.ty == *to {
            return e;
        }
        let kind = match (&e.ty.kind, &to.kind) {
            // `(bool)x` is `x != 0`, as the implicit conversion is — not a
            // truncation to the low bit.
            (
                TypeKind::Int { .. } | TypeKind::Float | TypeKind::Double | TypeKind::Pointer(_),
                TypeKind::Bool,
            ) => CastKind::IntegralToBoolean,
            (TypeKind::Int { .. } | TypeKind::Bool, TypeKind::Int { .. } | TypeKind::Bool) => {
                CastKind::IntegralCast
            }
            (TypeKind::Int { .. } | TypeKind::Bool, TypeKind::Float | TypeKind::Double) => {
                CastKind::IntegralToFloating
            }
            (TypeKind::Float | TypeKind::Double, TypeKind::Int { .. }) => {
                CastKind::FloatingToIntegral
            }
            (TypeKind::Float | TypeKind::Double, TypeKind::Float | TypeKind::Double) => {
                CastKind::FloatingCast
            }
            (TypeKind::Pointer(_), TypeKind::Pointer(_)) => CastKind::NoOp,
            (TypeKind::Pointer(_), TypeKind::Int { .. }) => CastKind::PointerToIntegral,
            (TypeKind::Int { .. }, TypeKind::Pointer(_)) => CastKind::IntegralToPointer,
            _ => {
                self.diags.error(
                    loc,
                    format!(
                        "invalid cast from '{}' to '{}'",
                        e.ty.spelling(),
                        to.spelling()
                    ),
                );
                CastKind::NoOp
            }
        };
        P::new(Expr {
            kind: ExprKind::ExplicitCast(kind, e),
            ty: to,
            category: omplt_ast::ValueCategory::RValue,
            loc,
        })
    }
}

/// Intermediate state between `act_on_range_for_begin` and `_end`.
pub struct RangeForParts {
    range_var: P<VarDecl>,
    begin_var: P<VarDecl>,
    end_var: P<VarDecl>,
    cond: P<Expr>,
    inc: P<Expr>,
    loop_var: P<VarDecl>,
    loc: SourceLocation,
}

#[cfg(test)]
mod tests {
    use super::*;
    use omplt_ast::OpenMpCodegenMode;
    use omplt_source::{DiagnosticsEngine, SourceManager};
    use std::cell::RefCell;

    #[test]
    fn desugars_array_range_for() {
        let diags = DiagnosticsEngine::new();
        let sm = RefCell::new(SourceManager::new());
        let mut s = Sema::new(&diags, &sm, OpenMpCodegenMode::Classic, true);
        s.scopes.push();
        let loc = SourceLocation::INVALID;
        let arr_ty = Type::new(TypeKind::Array(s.ctx.double_ty(), 8));
        let arr = s.act_on_var_decl(s.ctx.intern("data"), arr_ty, None, false, loc);
        let range = s.ctx.decl_ref(&arr, loc);
        let v = s.ctx.intern("v");
        let parts = s
            .act_on_range_for_begin(v, Some(s.ctx.double_ty()), true, range, loc)
            .expect("desugar");
        // loop variable is in scope for the body
        let body_ref = s.act_on_decl_ref(v, loc);
        assert!(body_ref.as_decl_ref().is_some());
        let body = Stmt::new(StmtKind::Expr(body_ref), loc);
        let stmt = s.act_on_range_for_end(parts, body);
        assert!(!diags.has_errors(), "{:?}", diags.all());
        let StmtKind::CxxForRange(d) = &stmt.kind else {
            panic!()
        };
        assert_eq!(&*s.ctx.spelling(d.begin_var.name), "__begin");
        assert_eq!(&*s.ctx.spelling(d.end_var.name), "__end");
        assert!(d.loop_var.by_ref);
        assert_eq!(d.loop_var.ty.spelling(), "double");
        // loop variable is out of scope after
        s.act_on_decl_ref(v, loc);
        assert!(diags.has_errors());
    }

    #[test]
    fn element_type_mismatch_diagnosed() {
        let diags = DiagnosticsEngine::new();
        let sm = RefCell::new(SourceManager::new());
        let mut s = Sema::new(&diags, &sm, OpenMpCodegenMode::Classic, true);
        s.scopes.push();
        let loc = SourceLocation::INVALID;
        let arr_ty = Type::new(TypeKind::Array(s.ctx.double_ty(), 4));
        let arr = s.act_on_var_decl(s.ctx.intern("a"), arr_ty, None, false, loc);
        let range = s.ctx.decl_ref(&arr, loc);
        let v = s.ctx.intern("v");
        let parts = s.act_on_range_for_begin(v, Some(s.ctx.int()), false, range, loc);
        assert!(parts.is_some());
        assert!(diags.has_errors());
        if let Some(p) = parts {
            let body = Stmt::new(StmtKind::Null, loc);
            s.act_on_range_for_end(p, body);
        }
    }

    #[test]
    fn non_array_range_rejected() {
        let diags = DiagnosticsEngine::new();
        let sm = RefCell::new(SourceManager::new());
        let mut s = Sema::new(&diags, &sm, OpenMpCodegenMode::Classic, true);
        s.scopes.push();
        let loc = SourceLocation::INVALID;
        let x = s.act_on_var_decl(s.ctx.intern("x"), s.ctx.int(), None, false, loc);
        let range = s.ctx.decl_ref(&x, loc);
        let v = s.ctx.intern("v");
        assert!(s
            .act_on_range_for_begin(v, None, false, range, loc)
            .is_none());
        assert!(diags.has_errors());
    }
}
