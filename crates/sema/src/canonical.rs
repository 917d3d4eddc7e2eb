//! Construction of the `OMPCanonicalLoop` meta node (paper §3.1): wraps a
//! literal loop together with the three Sema-resolved meta-information
//! items — the distance function, the loop user value function, and the
//! user-variable reference.

use crate::capture::build_helper_lambda;
use omplt_ast::{
    ASTContext, CanonicalLoopAnalysis, Decl, Expr, ExprKind, OMPCanonicalLoop, Stmt, StmtKind,
    UnOp, P,
};

/// Wraps `loop_stmt`, whose canonical form `analysis` established, in an
/// `OMPCanonicalLoop` node. The loop is analysed once, where the directive's
/// nest is collected: a malformed loop was diagnosed there and gets no node.
///
/// The node "acts like an implicit AST node similar to an implicit cast"
/// and "can be losslessly removed again if the wrapped loop needs to be
/// re-analyzed" — removal is just `strip_to_loop()`.
pub fn build_canonical_loop(
    ctx: &ASTContext,
    loop_stmt: &P<Stmt>,
    analysis: &CanonicalLoopAnalysis,
) -> P<OMPCanonicalLoop> {
    let loc = analysis.loc;
    let logical_ty = P::clone(&analysis.logical_ty);

    // --- distance function: [&](logical_ty &Result) { Result = <distance>; }
    let dist_result = ctx.make_implicit_param("Result", P::clone(&logical_ty));
    let dist_body = {
        let assign = ctx.assign(
            ctx.decl_ref(&dist_result, loc),
            analysis.distance_expr(ctx),
            loc,
        );
        Stmt::new(StmtKind::Expr(assign), loc)
    };
    // Captured by reference; evaluated before the loop body runs, so the
    // iteration variable still holds its start value.
    let distance_fn = build_helper_lambda(vec![dist_result], dist_body, &[]);

    // --- loop user value function:
    //     [&, start](auto &Result, logical_ty __i) { Result = start ± __i*step; }
    // For a literal for-loop the user variable IS the iteration variable;
    // for a range-based for it is the element binding (see CXXForRange
    // handling below).
    let logical_param = ctx.make_implicit_param("__i", P::clone(&logical_ty));
    let (loop_var_fn, loop_var_ref) = match &loop_stmt.strip_to_loop().kind {
        StmtKind::CxxForRange(d) => {
            // Result := `T &Val = *(__begin + __i);` — the paper's line 6,
            // re-binding the loop user variable each iteration. `__begin`
            // is captured by value (its start).
            let begin_read = ctx.read_var(&d.begin_var, loc);
            let i_read = ctx.read_var(&logical_param, loc);
            let addr = ctx.binary(
                omplt_ast::BinOp::Add,
                begin_read,
                i_read,
                P::clone(&d.begin_var.ty),
                loc,
            );
            let elem_ty = d
                .begin_var
                .ty
                .pointee()
                .map(P::clone)
                .unwrap_or_else(|| ctx.double_ty());
            let deref = P::new(Expr {
                kind: ExprKind::Unary(UnOp::Deref, addr),
                ty: elem_ty,
                category: omplt_ast::ValueCategory::LValue,
                loc,
            });
            // Re-declare the loop user variable with the new initializer
            // (same DeclId: body references keep working).
            let rebound = P::new(omplt_ast::VarDecl {
                id: d.loop_var.id,
                name: d.loop_var.name,
                ty: P::clone(&d.loop_var.ty),
                init: Some(deref),
                loc,
                kind: omplt_ast::VarKind::Local,
                implicit: true,
                by_ref: d.loop_var.by_ref,
                used: std::cell::Cell::new(true),
            });
            let body = Stmt::new(StmtKind::Decl(vec![Decl::Var(rebound)]), loc);
            let f = build_helper_lambda(vec![P::clone(&logical_param)], body, &[d.begin_var.id]);
            (f, ctx.decl_ref(&d.loop_var, loc))
        }
        _ => {
            // Literal for-loop: `[&, iter_var](auto &Result, logical __i)
            // { Result = start ± __i * step; }`. Assignments go through the
            // `Result` parameter (CodeGen binds it to the user variable's
            // storage), while *reads* of the iteration variable resolve to
            // its BY-VALUE capture: "at any time it will contain the start
            // value of the loop iteration variable even though it will be
            // modified inside the loop" (§3.1).
            let result_param = ctx.make_implicit_param("Result", P::clone(&analysis.iter_var.ty));
            let start = ctx.read_var(&analysis.iter_var, loc);
            let i_read = ctx.read_var(&logical_param, loc);
            let value = analysis.user_value_expr(ctx, start, i_read);
            let assign = ctx.assign(ctx.decl_ref(&result_param, loc), value, loc);
            let body = Stmt::new(StmtKind::Expr(assign), loc);
            let f = build_helper_lambda(
                vec![result_param, P::clone(&logical_param)],
                body,
                &[analysis.iter_var.id],
            );
            (f, ctx.decl_ref(&analysis.iter_var, loc))
        }
    };

    P::new(OMPCanonicalLoop {
        loop_stmt: P::clone(loop_stmt),
        distance_fn,
        loop_var_fn,
        loop_var_ref,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loop_analysis::analyze_canonical_loop;
    use omplt_ast::{dump_stmt, BinOp, CaptureKind, DumpOptions};
    use omplt_source::SourceLocation;

    /// Analyses `lp` the way nest collection does, then wraps it.
    fn wrap(ctx: &ASTContext, lp: &P<Stmt>) -> (P<OMPCanonicalLoop>, CanonicalLoopAnalysis) {
        let level = analyze_canonical_loop(ctx, lp, "#pragma omp unroll").unwrap();
        let analysis = level.analysis;
        (build_canonical_loop(ctx, lp, &analysis), analysis)
    }

    fn literal_loop(ctx: &ASTContext) -> P<Stmt> {
        let loc = SourceLocation::INVALID;
        let i = ctx.make_var("i", ctx.int(), Some(ctx.int_lit(7, ctx.int(), loc)), loc);
        let cond = ctx.binary(
            BinOp::Lt,
            ctx.read_var(&i, loc),
            ctx.int_lit(17, ctx.int(), loc),
            ctx.bool_ty(),
            loc,
        );
        let inc = ctx.binary(
            BinOp::AddAssign,
            ctx.decl_ref(&i, loc),
            ctx.int_lit(3, ctx.int(), loc),
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
    fn builds_three_meta_items() {
        let ctx = ASTContext::new();
        let lp = literal_loop(&ctx);
        let (node, analysis) = wrap(&ctx, &lp);
        assert_eq!(analysis.const_trip_count(), Some(4));
        // the wrapped loop is losslessly recoverable
        let s = Stmt::new(
            StmtKind::OMPCanonicalLoop(P::clone(&node)),
            SourceLocation::INVALID,
        );
        assert!(s.strip_to_loop().is_loop());
        // user variable reference points at the iteration variable
        let i = node.loop_var_ref.as_decl_ref().unwrap().name;
        assert_eq!(&*ctx.spelling(i), "i");
    }

    #[test]
    fn iteration_variable_captured_by_value_in_loop_var_fn() {
        let ctx = ASTContext::new();
        let lp = literal_loop(&ctx);
        let (node, _) = wrap(&ctx, &lp);
        let cap = node
            .loop_var_fn
            .captures
            .iter()
            .find(|c| c.var.name == ctx.intern("i"))
            .expect("iteration variable must be captured");
        assert_eq!(cap.kind, CaptureKind::ByValue);
    }

    #[test]
    fn dump_matches_paper_fig_ompcanonicalloop() {
        // OMPCanonicalLoop with children: ForStmt, CapturedStmt (distance),
        // CapturedStmt (loop value), DeclRefExpr (user var).
        let ctx = ASTContext::new();
        let lp = literal_loop(&ctx);
        let (node, _) = wrap(&ctx, &lp);
        let s = Stmt::new(StmtKind::OMPCanonicalLoop(node), SourceLocation::INVALID);
        let d = dump_stmt(&s, &ctx.idents(), DumpOptions::default());
        assert!(d.starts_with("OMPCanonicalLoop\n"), "{d}");
        assert!(d.contains("|-ForStmt"), "{d}");
        assert_eq!(d.matches("CapturedStmt").count(), 2, "{d}");
        assert!(
            d.contains("`-DeclRefExpr 'int' lvalue Var 'i' 'int'"),
            "{d}"
        );
    }
}
