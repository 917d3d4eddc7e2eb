//! Visitors — one per hierarchy, as the paper notes: "a visitor pattern
//! separate for each of the type hierarchies must be used".
//!
//! `walk_stmt` enumerates `children()` with Clang's exact visibility rules:
//!
//! * OpenMP clauses are **not** children ("the inherited method `children()`
//!   returns a list of `Stmt`s, hence it cannot enumerate any `OMPClause`s");
//!   use [`OMPClauseVisitor`] / [`clause_exprs`] for those.
//! * **Shadow AST is invisible**: a directive's `transformed` statement and
//!   the `loop_helpers` bundle are never yielded.
//! * The `OMPCanonicalLoop` children are exactly the wrapped loop, the two
//!   helper `CapturedStmt`s and the user-variable reference (paper Fig.
//!   lst:ompcanonicalloop).

use crate::decl::Decl;
use crate::expr::{Expr, ExprKind};
use crate::omp::{OMPClause, OMPDirective};
use crate::stmt::{CapturedStmt, Stmt, StmtKind};
use crate::P;

/// Visitor over the `Stmt` hierarchy (which, as in Clang, includes
/// expressions).
pub trait StmtVisitor {
    /// Called for every statement; override and call [`walk_stmt`] to
    /// recurse.
    fn visit_stmt(&mut self, s: &P<Stmt>) {
        walk_stmt(self, s);
    }

    /// Called for every expression; override and call [`walk_expr`] to
    /// recurse.
    fn visit_expr(&mut self, e: &P<Expr>) {
        walk_expr(self, e);
    }
}

/// Recurses into the children of `s` (respecting shadow-AST invisibility).
pub fn walk_stmt<V: StmtVisitor + ?Sized>(v: &mut V, s: &P<Stmt>) {
    match &s.kind {
        StmtKind::Compound(stmts) => {
            for c in stmts {
                v.visit_stmt(c);
            }
        }
        StmtKind::Decl(decls) => {
            for d in decls {
                if let Decl::Var(var) = d {
                    if let Some(init) = &var.init {
                        v.visit_expr(init);
                    }
                }
            }
        }
        StmtKind::Expr(e) => v.visit_expr(e),
        StmtKind::If { cond, then, els } => {
            v.visit_expr(cond);
            v.visit_stmt(then);
            if let Some(e) = els {
                v.visit_stmt(e);
            }
        }
        StmtKind::While { cond, body } => {
            v.visit_expr(cond);
            v.visit_stmt(body);
        }
        StmtKind::DoWhile { body, cond } => {
            v.visit_stmt(body);
            v.visit_expr(cond);
        }
        StmtKind::For {
            init,
            cond,
            inc,
            body,
        } => {
            if let Some(i) = init {
                v.visit_stmt(i);
            }
            if let Some(c) = cond {
                v.visit_expr(c);
            }
            if let Some(i) = inc {
                v.visit_expr(i);
            }
            v.visit_stmt(body);
        }
        StmtKind::CxxForRange(d) => {
            v.visit_stmt(&d.range_stmt);
            v.visit_stmt(&d.begin_stmt);
            v.visit_stmt(&d.end_stmt);
            v.visit_expr(&d.cond);
            v.visit_expr(&d.inc);
            v.visit_stmt(&d.loop_var_stmt);
            v.visit_stmt(&d.body);
        }
        StmtKind::Return(e) => {
            if let Some(e) = e {
                v.visit_expr(e);
            }
        }
        StmtKind::Break | StmtKind::Continue | StmtKind::Null => {}
        StmtKind::Attributed { sub, .. } => v.visit_stmt(sub),
        StmtKind::Captured(c) => v.visit_stmt(&c.decl.body),
        StmtKind::OMP(d) => {
            // Clauses, loop_helpers and the transformed shadow AST are NOT
            // children (paper §1.2).
            if let Some(a) = &d.associated {
                v.visit_stmt(a);
            }
        }
        StmtKind::OMPCanonicalLoop(cl) => {
            v.visit_stmt(&cl.loop_stmt);
            v.visit_stmt(&captured_as_stmt(&cl.distance_fn));
            v.visit_stmt(&captured_as_stmt(&cl.loop_var_fn));
            v.visit_expr(&cl.loop_var_ref);
        }
    }
}

/// Wraps a `CapturedStmt` into a temporary `Stmt` node so visitors can enter
/// it uniformly (the AST stores the helper lambdas as bare `CapturedStmt`s,
/// exactly as `OMPCanonicalLoop` does in Clang).
fn captured_as_stmt(c: &P<CapturedStmt>) -> P<Stmt> {
    Stmt::new(
        StmtKind::Captured(P::clone(c)),
        omplt_source::SourceLocation::INVALID,
    )
}

/// Recurses into the sub-expressions of `e`.
pub fn walk_expr<V: StmtVisitor + ?Sized>(v: &mut V, e: &P<Expr>) {
    match &e.kind {
        ExprKind::IntegerLiteral(_)
        | ExprKind::FloatingLiteral(_)
        | ExprKind::BoolLiteral(_)
        | ExprKind::DeclRef(_)
        | ExprKind::SizeOf(_) => {}
        ExprKind::Unary(_, s) => v.visit_expr(s),
        ExprKind::Binary(_, l, r) => {
            v.visit_expr(l);
            v.visit_expr(r);
        }
        ExprKind::Call { args, .. } => {
            for a in args {
                v.visit_expr(a);
            }
        }
        ExprKind::ImplicitCast(_, s) | ExprKind::ExplicitCast(_, s) | ExprKind::Paren(s) => {
            v.visit_expr(s)
        }
        ExprKind::ArraySubscript(b, i) => {
            v.visit_expr(b);
            v.visit_expr(i);
        }
        ExprKind::Conditional(c, t, f) => {
            v.visit_expr(c);
            v.visit_expr(t);
            v.visit_expr(f);
        }
        ExprKind::ConstantExpr { sub, .. } => v.visit_expr(sub),
    }
}

/// Visitor over the clause hierarchy.
pub trait OMPClauseVisitor {
    /// Called for every clause of a directive.
    fn visit_clause(&mut self, c: &P<OMPClause>);
}

/// Applies `v` to every clause of `d`.
pub fn walk_clauses<V: OMPClauseVisitor + ?Sized>(v: &mut V, d: &OMPDirective) {
    for c in &d.clauses {
        v.visit_clause(c);
    }
}

/// The argument expressions of a clause (for expression-level analyses).
pub fn clause_exprs(c: &OMPClause) -> &[P<Expr>] {
    &c.args
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ASTContext;
    use crate::omp::{OMPClauseKind, OMPDirectiveKind};
    use omplt_source::SourceLocation;

    /// Counts statements and expressions seen.
    #[derive(Default)]
    struct Counter {
        stmts: usize,
        exprs: usize,
        saw_for: bool,
    }

    impl StmtVisitor for Counter {
        fn visit_stmt(&mut self, s: &P<Stmt>) {
            self.stmts += 1;
            if matches!(s.kind, StmtKind::For { .. }) {
                self.saw_for = true;
            }
            walk_stmt(self, s);
        }
        fn visit_expr(&mut self, e: &P<Expr>) {
            self.exprs += 1;
            walk_expr(self, e);
        }
    }

    fn simple_loop(ctx: &ASTContext) -> P<Stmt> {
        // for (int i = 0; i < 10; i += 1) ;
        let loc = SourceLocation::INVALID;
        let i = ctx.make_var("i", ctx.int(), Some(ctx.int_lit(0, ctx.int(), loc)), loc);
        let cond = ctx.binary(
            crate::expr::BinOp::Lt,
            ctx.read_var(&i, loc),
            ctx.int_lit(10, ctx.int(), loc),
            ctx.bool_ty(),
            loc,
        );
        let inc = ctx.binary(
            crate::expr::BinOp::AddAssign,
            ctx.decl_ref(&i, loc),
            ctx.int_lit(1, ctx.int(), loc),
            ctx.int(),
            loc,
        );
        Stmt::new(
            StmtKind::For {
                init: Some(Stmt::new(StmtKind::Decl(vec![Decl::Var(i)]), loc)),
                cond: Some(cond),
                inc: Some(inc),
                body: Stmt::new(StmtKind::Null, loc),
            },
            loc,
        )
    }

    #[test]
    fn walks_for_components() {
        let ctx = ASTContext::new();
        let mut c = Counter::default();
        c.visit_stmt(&simple_loop(&ctx));
        assert!(c.saw_for);
        // for + declstmt + nullstmt
        assert_eq!(c.stmts, 3);
        // init literal, cond(lt, cast, ref, lit), inc(assign, ref, lit)
        assert!(c.exprs >= 8, "exprs = {}", c.exprs);
    }

    #[test]
    fn shadow_ast_is_invisible_to_children() {
        let ctx = ASTContext::new();
        let lit_loop = simple_loop(&ctx);
        let transformed = simple_loop(&ctx);
        let mut d = crate::omp::OMPDirective::new(
            OMPDirectiveKind::Unroll,
            vec![],
            Some(P::clone(&lit_loop)),
            SourceLocation::INVALID,
        );
        d.transformed = Some(transformed);
        let s = Stmt::new(StmtKind::OMP(P::new(d)), SourceLocation::INVALID);

        let mut with_shadow = Counter::default();
        with_shadow.visit_stmt(&s);

        let mut without = Counter::default();
        without.visit_stmt(&lit_loop);

        // The directive node itself adds 1; the shadow subtree adds nothing.
        assert_eq!(with_shadow.stmts, without.stmts + 1);
    }

    #[test]
    fn clause_exprs_enumeration() {
        let ctx = ASTContext::new();
        let loc = SourceLocation::INVALID;
        let c = OMPClause::new(
            OMPClauseKind::Sizes,
            vec![
                ctx.int_lit(4, ctx.int(), loc),
                ctx.int_lit(8, ctx.int(), loc),
            ],
            loc,
        );
        assert_eq!(clause_exprs(&c).len(), 2);
        let full = OMPClause::new(OMPClauseKind::Full, vec![], loc);
        assert!(clause_exprs(&full).is_empty());
    }
}
