//! Capture analysis: which variables an outlined region references from its
//! enclosing scope. "Clang also keeps track of which variables are used
//! inside the CapturedStmt to become parameters of the outlined function"
//! (paper §1.2).

use omplt_ast::visitor::{walk_expr, walk_stmt, StmtVisitor};
use omplt_ast::{
    ASTContext, Capture, CaptureKind, CapturedDecl, CapturedStmt, Decl, DeclId, Expr, ExprKind,
    Stmt, StmtKind, VarDecl, P,
};
use std::collections::HashSet;

/// Collects the free variables of `stmt`: `DeclRef`s to variables not
/// declared within the region, in first-use order.
pub fn free_variables(stmt: &P<Stmt>) -> Vec<P<VarDecl>> {
    struct Collector {
        declared: HashSet<DeclId>,
        seen: HashSet<DeclId>,
        free: Vec<P<VarDecl>>,
    }
    impl StmtVisitor for Collector {
        fn visit_stmt(&mut self, s: &P<Stmt>) {
            match &s.kind {
                StmtKind::Decl(decls) => {
                    // Initializers may reference outer variables; the
                    // declared name only becomes local afterwards (C rules
                    // are subtler, but canonical inits cannot self-refer).
                    for d in decls {
                        if let Decl::Var(v) = d {
                            if let Some(init) = &v.init {
                                self.visit_expr(init);
                            }
                            self.declared.insert(v.id);
                        }
                    }
                }
                StmtKind::For { init, .. } => {
                    if let Some(i) = init {
                        self.visit_stmt(i);
                    }
                    // walk_stmt would re-visit init; visit the rest by hand
                    if let StmtKind::For {
                        cond, inc, body, ..
                    } = &s.kind
                    {
                        if let Some(c) = cond {
                            self.visit_expr(c);
                        }
                        if let Some(i) = inc {
                            self.visit_expr(i);
                        }
                        self.visit_stmt(body);
                    }
                }
                StmtKind::CxxForRange(d) => {
                    self.declared.insert(d.begin_var.id);
                    self.declared.insert(d.end_var.id);
                    self.declared.insert(d.loop_var.id);
                    walk_stmt(self, s);
                }
                _ => walk_stmt(self, s),
            }
        }
        fn visit_expr(&mut self, e: &P<Expr>) {
            if let ExprKind::DeclRef(v) = &e.kind {
                if !self.declared.contains(&v.id) && self.seen.insert(v.id) {
                    self.free.push(P::clone(v));
                }
            }
            walk_expr(self, e);
        }
    }
    let mut c = Collector {
        declared: HashSet::new(),
        seen: HashSet::new(),
        free: Vec::new(),
    };
    c.visit_stmt(stmt);
    c.free
}

/// Builds the `CapturedStmt`/`CapturedDecl` pair for an OpenMP outlined
/// region: the body plus the three implicit parameters `.global_tid.`,
/// `.bound_tid.` and `__context` (paper Fig. lst:astdump), capturing every
/// free variable by reference.
pub fn build_omp_captured_stmt(ctx: &ASTContext, body: P<Stmt>) -> P<CapturedStmt> {
    let captures: Vec<Capture> = free_variables(&body)
        .into_iter()
        .map(|var| Capture {
            kind: CaptureKind::ByRef,
            var,
        })
        .collect();
    let int_ptr = ctx.pointer_to(ctx.int());
    let params = vec![
        ctx.make_implicit_param(".global_tid.", P::clone(&int_ptr)),
        ctx.make_implicit_param(".bound_tid.", int_ptr),
        ctx.make_implicit_param("__context", ctx.pointer_to(ctx.void())),
    ];
    P::new(CapturedStmt {
        decl: P::new(CapturedDecl {
            params,
            body,
            nothrow: true,
        }),
        captures,
    })
}

/// Builds a helper-lambda `CapturedStmt` (the canonical-loop distance and
/// loop-user-value functions) with explicit parameters and capture kinds.
pub fn build_helper_lambda(
    params: Vec<P<VarDecl>>,
    body: P<Stmt>,
    by_value: &[DeclId],
) -> P<CapturedStmt> {
    let param_ids: HashSet<DeclId> = params.iter().map(|p| p.id).collect();
    let captures: Vec<Capture> = free_variables(&body)
        .into_iter()
        .filter(|v| !param_ids.contains(&v.id))
        .map(|var| Capture {
            kind: if by_value.contains(&var.id) {
                CaptureKind::ByValue
            } else {
                CaptureKind::ByRef
            },
            var,
        })
        .collect();
    P::new(CapturedStmt {
        decl: P::new(CapturedDecl {
            params,
            body,
            nothrow: true,
        }),
        captures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use omplt_ast::BinOp;
    use omplt_source::SourceLocation;

    #[test]
    fn free_vs_bound_variables() {
        let ctx = ASTContext::new();
        let loc = SourceLocation::INVALID;
        let outer = ctx.make_var("n", ctx.int(), None, loc);
        let local = ctx.make_var("x", ctx.int(), Some(ctx.read_var(&outer, loc)), loc);
        // { int x = n; x = x + n; }
        let assign = ctx.binary(
            BinOp::Assign,
            ctx.decl_ref(&local, loc),
            ctx.binary(
                BinOp::Add,
                ctx.read_var(&local, loc),
                ctx.read_var(&outer, loc),
                ctx.int(),
                loc,
            ),
            ctx.int(),
            loc,
        );
        let body = Stmt::new(
            StmtKind::Compound(vec![
                Stmt::new(StmtKind::Decl(vec![Decl::Var(P::clone(&local))]), loc),
                Stmt::new(StmtKind::Expr(assign), loc),
            ]),
            loc,
        );
        let free = free_variables(&body);
        assert_eq!(free.len(), 1);
        assert_eq!(&*ctx.spelling(free[0].name), "n");
    }

    #[test]
    fn for_loop_variable_is_bound() {
        let ctx = ASTContext::new();
        let loc = SourceLocation::INVALID;
        let n = ctx.make_var("n", ctx.int(), None, loc);
        let i = ctx.make_var("i", ctx.int(), Some(ctx.int_lit(0, ctx.int(), loc)), loc);
        let cond = ctx.binary(
            BinOp::Lt,
            ctx.read_var(&i, loc),
            ctx.read_var(&n, loc),
            ctx.bool_ty(),
            loc,
        );
        let inc = ctx.binary(
            BinOp::AddAssign,
            ctx.decl_ref(&i, loc),
            ctx.int_lit(1, ctx.int(), loc),
            ctx.int(),
            loc,
        );
        let s = Stmt::new(
            StmtKind::For {
                init: Some(Stmt::new(StmtKind::Decl(vec![Decl::Var(i)]), loc)),
                cond: Some(cond),
                inc: Some(inc),
                body: Stmt::new(StmtKind::Null, loc),
            },
            loc,
        );
        let free = free_variables(&s);
        assert_eq!(free.len(), 1, "only 'n' is free");
        assert_eq!(&*ctx.spelling(free[0].name), "n");
    }

    #[test]
    fn omp_captured_stmt_has_three_implicit_params() {
        let ctx = ASTContext::new();
        let loc = SourceLocation::INVALID;
        let body = Stmt::new(StmtKind::Null, loc);
        let cs = build_omp_captured_stmt(&ctx, body);
        let idents = ctx.idents();
        let names: Vec<&str> = cs.decl.params.iter().map(|p| idents.get(p.name)).collect();
        assert_eq!(names, vec![".global_tid.", ".bound_tid.", "__context"]);
        assert!(cs.decl.nothrow);
    }

    #[test]
    fn helper_lambda_by_value_selection() {
        let ctx = ASTContext::new();
        let loc = SourceLocation::INVALID;
        let a = ctx.make_var("a", ctx.int(), None, loc);
        let b = ctx.make_var("b", ctx.int(), None, loc);
        let sum = ctx.binary(
            BinOp::Add,
            ctx.read_var(&a, loc),
            ctx.read_var(&b, loc),
            ctx.int(),
            loc,
        );
        let body = Stmt::new(StmtKind::Expr(sum), loc);
        let cs = build_helper_lambda(vec![], body, &[a.id]);
        let kinds: Vec<(String, CaptureKind)> = cs
            .captures
            .iter()
            .map(|c| (ctx.spelling(c.var.name).to_string(), c.kind))
            .collect();
        assert!(kinds.contains(&("a".to_string(), CaptureKind::ByValue)));
        assert!(kinds.contains(&("b".to_string(), CaptureKind::ByRef)));
    }
}
