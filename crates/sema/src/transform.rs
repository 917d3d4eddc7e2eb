//! Shadow-AST construction for the loop transformation directives
//! (paper §2): the transformation is applied *on the AST*, producing a new
//! loop nest that is stored as the directive's hidden `transformed` child.
//! Consuming directives re-analyze it via `get_transformed_stmt()` "as if it
//! was a literal for-loop".
//!
//! Shapes follow the paper's Fig. lst:transformedast:
//!
//! * **partial unroll** strip-mines over the logical iteration space and
//!   annotates the *inner* loop with a `LoopHintAttr(UnrollCount)` — "no
//!   duplication takes place until [the mid-end LoopUnroll pass]";
//! * **tile** produces floor loops over tile origins and tile loops with
//!   `min(...)` upper bounds for partial tiles ("generates twice as many
//!   loops");
//! * both first capture each trip count into a `.capture_expr.` variable —
//!   the internal name the paper's diagnostics discussion shows leaking
//!   into user-visible messages.
//!
//! Every generated statement carries a *synthetic* location mapped back to
//! the literal loop, so diagnostics attribute to the right source (§2).

use omplt_ast::{
    ASTContext, Attr, BinOp, CanonicalLoopAnalysis, Decl, Expr, LoopNestLevel, Stmt, StmtKind,
    UnOp, VarDecl, P,
};
use omplt_source::{SourceLocation, SourceManager};

/// Declares `.capture_expr.` holding the level's trip count.
fn capture_trip_count(
    ctx: &ASTContext,
    a: &CanonicalLoopAnalysis,
    loc: SourceLocation,
) -> (P<VarDecl>, P<Stmt>) {
    let tc = a.distance_expr_with_start(ctx, P::clone(&a.lb));
    let var = ctx.make_implicit_var(
        ctx.fresh_name(".capture_expr."),
        P::clone(&a.logical_ty),
        Some(tc),
        loc,
    );
    let stmt = Stmt::new(StmtKind::Decl(vec![Decl::Var(P::clone(&var))]), loc);
    (var, stmt)
}

/// Re-declares the original iteration variable from a logical iteration
/// number: `T i = lb ± logical * step;`. The declaration reuses the original
/// `DeclId`, so body references keep resolving.
fn materialize_user_var(
    ctx: &ASTContext,
    a: &CanonicalLoopAnalysis,
    logical: P<Expr>,
    loc: SourceLocation,
) -> P<Stmt> {
    let value = a.user_value_expr(ctx, P::clone(&a.lb), logical);
    let rebound = P::new(VarDecl {
        id: a.iter_var.id,
        name: a.iter_var.name,
        ty: P::clone(&a.iter_var.ty),
        init: Some(value),
        loc,
        kind: omplt_ast::VarKind::Local,
        implicit: true,
        by_ref: a.iter_var.by_ref,
        used: std::cell::Cell::new(true),
    });
    Stmt::new(StmtKind::Decl(vec![Decl::Var(rebound)]), loc)
}

fn make_loop(
    iv: P<VarDecl>,
    cond: P<Expr>,
    inc: P<Expr>,
    body: P<Stmt>,
    loc: SourceLocation,
) -> P<Stmt> {
    Stmt::new(
        StmtKind::For {
            init: Some(Stmt::new(StmtKind::Decl(vec![Decl::Var(iv)]), loc)),
            cond: Some(cond),
            inc: Some(inc),
            body,
        },
        loc,
    )
}

/// Builds the transformed AST of `#pragma omp unroll partial(factor)`
/// (paper Fig. lst:transformedast):
///
/// ```text
/// {
///   unsigned .capture_expr.N = <trip count>;
///   for (unsigned .unrolled.iv.i = 0; .unrolled.iv.i < .capture_expr.N;
///        .unrolled.iv.i += factor)
///     #pragma clang loop unroll_count(factor)            // LoopHintAttr
///     for (unsigned .unroll_inner.iv.i = .unrolled.iv.i;
///          .unroll_inner.iv.i < .unrolled.iv.i + factor
///            && .unroll_inner.iv.i < .capture_expr.N;
///          ++.unroll_inner.iv.i) {
///       T i = lb ± .unroll_inner.iv.i * step;
///       <body>
///     }
/// }
/// ```
pub fn transform_unroll_partial(
    ctx: &ASTContext,
    sm: &mut SourceManager,
    level: &LoopNestLevel,
    factor: u64,
    pragma_text: &str,
) -> P<Stmt> {
    let a = &level.analysis;
    let loc = sm.create_transformed_loc(a.loc, pragma_text);
    let uty = P::clone(&a.logical_ty);
    let ulit = |v: i128| ctx.int_lit(v, P::clone(&uty), loc);

    let (tc_var, tc_decl) = capture_trip_count(ctx, a, loc);

    let outer_iv = ctx.make_implicit_var(
        format!(".unrolled.iv.{}", ctx.spelling(a.iter_var.name)),
        P::clone(&uty),
        Some(ulit(0)),
        loc,
    );
    let inner_iv = ctx.make_implicit_var(
        format!(".unroll_inner.iv.{}", ctx.spelling(a.iter_var.name)),
        P::clone(&uty),
        Some(ctx.read_var(&outer_iv, loc)),
        loc,
    );

    // inner loop
    let group_end = ctx.binary(
        BinOp::Add,
        ctx.read_var(&outer_iv, loc),
        ulit(factor as i128),
        P::clone(&uty),
        loc,
    );
    let in_group = ctx.binary(
        BinOp::Lt,
        ctx.read_var(&inner_iv, loc),
        group_end,
        ctx.bool_ty(),
        loc,
    );
    let in_range = ctx.binary(
        BinOp::Lt,
        ctx.read_var(&inner_iv, loc),
        ctx.read_var(&tc_var, loc),
        ctx.bool_ty(),
        loc,
    );
    let inner_cond = ctx.binary(BinOp::LAnd, in_group, in_range, ctx.bool_ty(), loc);
    let inner_inc = ctx.unary(
        UnOp::PreInc,
        ctx.decl_ref(&inner_iv, loc),
        P::clone(&uty),
        loc,
    );
    let inner_body = Stmt::new(
        StmtKind::Compound(vec![
            materialize_user_var(ctx, a, ctx.read_var(&inner_iv, loc), loc),
            LoopNestLevel::innermost_body(std::slice::from_ref(level)),
        ]),
        loc,
    );
    let inner_loop = make_loop(inner_iv, inner_cond, inner_inc, inner_body, loc);
    let hinted = Stmt::new(
        StmtKind::Attributed {
            attrs: vec![Attr::LoopUnrollCount(factor)],
            sub: inner_loop,
        },
        loc,
    );

    // outer (generated) loop — this is what a consuming directive analyzes.
    let outer_cond = ctx.binary(
        BinOp::Lt,
        ctx.read_var(&outer_iv, loc),
        ctx.read_var(&tc_var, loc),
        ctx.bool_ty(),
        loc,
    );
    let outer_inc = ctx.binary(
        BinOp::AddAssign,
        ctx.decl_ref(&outer_iv, loc),
        ulit(factor as i128),
        P::clone(&uty),
        loc,
    );
    let outer_loop = make_loop(outer_iv, outer_cond, outer_inc, hinted, loc);

    Stmt::new(StmtKind::Compound(vec![tc_decl, outer_loop]), loc)
}

/// Builds the transformed AST of `#pragma omp tile sizes(s₀, …, sₙ₋₁)` over
/// a perfect nest of `n` canonical loops — 2n generated loops:
///
/// ```text
/// {
///   <prologues of already-transformed inner levels>
///   unsigned .capture_expr.k = <trip count of level k>;        // ∀k
///   for (unsigned .floor.0.iv.i = 0; < .capture_expr.0; += s₀)
///    …
///     for (unsigned .tile.0.iv.i = .floor.0.iv.i;
///          .tile.0.iv.i < min(.capture_expr.0, .floor.0.iv.i + s₀);
///          ++.tile.0.iv.i)
///      …
///       { T i = lb₀ ± .tile.0.iv.i * step₀; …; <body> }
/// }
/// ```
pub fn transform_tile(
    ctx: &ASTContext,
    sm: &mut SourceManager,
    levels: &[LoopNestLevel],
    sizes: &[u64],
    pragma_text: &str,
) -> P<Stmt> {
    assert_eq!(levels.len(), sizes.len());
    let n = levels.len();
    let loc = sm.create_transformed_loc(levels[0].analysis.loc, pragma_text);

    let mut top: Vec<P<Stmt>> = Vec::new();
    for l in levels {
        top.extend(l.prologue.iter().cloned());
    }
    let mut tc_vars = Vec::with_capacity(n);
    for l in levels {
        let (var, stmt) = capture_trip_count(ctx, &l.analysis, loc);
        top.push(stmt);
        tc_vars.push(var);
    }

    // Floor IVs (shared between the floor loop decl and tile-loop bounds).
    let floor_ivs: Vec<P<VarDecl>> = levels
        .iter()
        .map(|l| {
            ctx.make_implicit_var(
                format!(".floor.iv.{}", ctx.spelling(l.analysis.iter_var.name)),
                P::clone(&l.analysis.logical_ty),
                Some(ctx.int_lit(0, P::clone(&l.analysis.logical_ty), loc)),
                loc,
            )
        })
        .collect();
    let tile_ivs: Vec<P<VarDecl>> = levels
        .iter()
        .zip(&floor_ivs)
        .map(|(l, f)| {
            ctx.make_implicit_var(
                format!(".tile.iv.{}", ctx.spelling(l.analysis.iter_var.name)),
                P::clone(&l.analysis.logical_ty),
                Some(ctx.read_var(f, loc)),
                loc,
            )
        })
        .collect();

    // Innermost body: materialize every original variable, then the body.
    let mut body_stmts: Vec<P<Stmt>> = Vec::with_capacity(n + 1);
    for (l, tiv) in levels.iter().zip(&tile_ivs) {
        body_stmts.push(materialize_user_var(
            ctx,
            &l.analysis,
            ctx.read_var(tiv, loc),
            loc,
        ));
    }
    body_stmts.push(LoopNestLevel::innermost_body(levels));
    let mut current = Stmt::new(StmtKind::Compound(body_stmts), loc);

    // Tile loops, innermost-out.
    for k in (0..n).rev() {
        let a = &levels[k].analysis;
        let uty = P::clone(&a.logical_ty);
        let size = ctx.int_lit(sizes[k] as i128, P::clone(&uty), loc);
        let tile_end = ctx.binary(
            BinOp::Add,
            ctx.read_var(&floor_ivs[k], loc),
            size,
            P::clone(&uty),
            loc,
        );
        let bound = ctx.min_expr(
            ctx.read_var(&tc_vars[k], loc),
            tile_end,
            P::clone(&uty),
            loc,
        );
        let cond = ctx.binary(
            BinOp::Lt,
            ctx.read_var(&tile_ivs[k], loc),
            bound,
            ctx.bool_ty(),
            loc,
        );
        let inc = ctx.unary(UnOp::PreInc, ctx.decl_ref(&tile_ivs[k], loc), uty, loc);
        current = make_loop(P::clone(&tile_ivs[k]), cond, inc, current, loc);
    }
    // Floor loops, innermost-out.
    for k in (0..n).rev() {
        let a = &levels[k].analysis;
        let uty = P::clone(&a.logical_ty);
        let cond = ctx.binary(
            BinOp::Lt,
            ctx.read_var(&floor_ivs[k], loc),
            ctx.read_var(&tc_vars[k], loc),
            ctx.bool_ty(),
            loc,
        );
        let inc = ctx.binary(
            BinOp::AddAssign,
            ctx.decl_ref(&floor_ivs[k], loc),
            ctx.int_lit(sizes[k] as i128, P::clone(&uty), loc),
            uty,
            loc,
        );
        current = make_loop(P::clone(&floor_ivs[k]), cond, inc, current, loc);
    }

    top.push(current);
    Stmt::new(StmtKind::Compound(top), loc)
}

/// Builds the transformed AST of `#pragma omp interchange
/// permutation(p₀+1, …, pₙ₋₁+1)` over a perfect nest of `n` canonical
/// loops. `perm` is 0-based: position `k` of the generated nest runs the
/// *original* level `perm[k]`.
///
/// ```text
/// {
///   <prologues of already-transformed inner levels>
///   unsigned .capture_expr.k = <trip count of level k>;        // ∀k
///   for (unsigned .permuted.iv.j = 0; < .capture_expr.{perm[0]}; ++)
///     for (unsigned .permuted.iv.i = 0; < .capture_expr.{perm[1]}; ++)
///       { T i = lb₀ ± .permuted.iv.i * step₀; …; <body> }
/// }
/// ```
///
/// Every generated loop runs the full logical iteration space of its
/// original level, so the nest stays rectangular and re-analyzable.
pub fn transform_interchange(
    ctx: &ASTContext,
    sm: &mut SourceManager,
    levels: &[LoopNestLevel],
    perm: &[usize],
    pragma_text: &str,
) -> P<Stmt> {
    assert_eq!(levels.len(), perm.len());
    let n = levels.len();
    let loc = sm.create_transformed_loc(levels[0].analysis.loc, pragma_text);

    let mut top: Vec<P<Stmt>> = Vec::new();
    for l in levels {
        top.extend(l.prologue.iter().cloned());
    }
    let mut tc_vars = Vec::with_capacity(n);
    for l in levels {
        let (var, stmt) = capture_trip_count(ctx, &l.analysis, loc);
        top.push(stmt);
        tc_vars.push(var);
    }

    // One logical IV per *original* level (indexed like `levels`).
    let ivs: Vec<P<VarDecl>> = levels
        .iter()
        .map(|l| {
            ctx.make_implicit_var(
                format!(".permuted.iv.{}", ctx.spelling(l.analysis.iter_var.name)),
                P::clone(&l.analysis.logical_ty),
                Some(ctx.int_lit(0, P::clone(&l.analysis.logical_ty), loc)),
                loc,
            )
        })
        .collect();

    // Innermost body: materialize every original variable, then the body.
    let mut body_stmts: Vec<P<Stmt>> = Vec::with_capacity(n + 1);
    for (l, iv) in levels.iter().zip(&ivs) {
        body_stmts.push(materialize_user_var(
            ctx,
            &l.analysis,
            ctx.read_var(iv, loc),
            loc,
        ));
    }
    body_stmts.push(LoopNestLevel::innermost_body(levels));
    let mut current = Stmt::new(StmtKind::Compound(body_stmts), loc);

    // Loops in permuted order, innermost-out.
    for &k in perm.iter().rev() {
        let a = &levels[k].analysis;
        let uty = P::clone(&a.logical_ty);
        let cond = ctx.binary(
            BinOp::Lt,
            ctx.read_var(&ivs[k], loc),
            ctx.read_var(&tc_vars[k], loc),
            ctx.bool_ty(),
            loc,
        );
        let inc = ctx.unary(UnOp::PreInc, ctx.decl_ref(&ivs[k], loc), uty, loc);
        current = make_loop(P::clone(&ivs[k]), cond, inc, current, loc);
    }

    top.push(current);
    Stmt::new(StmtKind::Compound(top), loc)
}

/// Builds the transformed AST of `#pragma omp reverse`:
///
/// ```text
/// {
///   unsigned .capture_expr.N = <trip count>;
///   for (unsigned .reversed.iv.i = 0; .reversed.iv.i < N; ++.reversed.iv.i)
///     { T i = lb ± (N - 1 - .reversed.iv.i) * step; <body> }
/// }
/// ```
pub fn transform_reverse(
    ctx: &ASTContext,
    sm: &mut SourceManager,
    level: &LoopNestLevel,
    pragma_text: &str,
) -> P<Stmt> {
    let a = &level.analysis;
    let loc = sm.create_transformed_loc(a.loc, pragma_text);
    let uty = P::clone(&a.logical_ty);
    let ulit = |v: i128| ctx.int_lit(v, P::clone(&uty), loc);

    let (tc_var, tc_decl) = capture_trip_count(ctx, a, loc);

    let iv = ctx.make_implicit_var(
        format!(".reversed.iv.{}", ctx.spelling(a.iter_var.name)),
        P::clone(&uty),
        Some(ulit(0)),
        loc,
    );

    // logical' = N - 1 - iv
    let n_minus_1 = ctx.binary(
        BinOp::Sub,
        ctx.read_var(&tc_var, loc),
        ulit(1),
        P::clone(&uty),
        loc,
    );
    let mirrored = ctx.binary(
        BinOp::Sub,
        n_minus_1,
        ctx.read_var(&iv, loc),
        P::clone(&uty),
        loc,
    );
    let body = Stmt::new(
        StmtKind::Compound(vec![
            materialize_user_var(ctx, a, mirrored, loc),
            LoopNestLevel::innermost_body(std::slice::from_ref(level)),
        ]),
        loc,
    );

    let cond = ctx.binary(
        BinOp::Lt,
        ctx.read_var(&iv, loc),
        ctx.read_var(&tc_var, loc),
        ctx.bool_ty(),
        loc,
    );
    let inc = ctx.unary(UnOp::PreInc, ctx.decl_ref(&iv, loc), P::clone(&uty), loc);
    let lp = make_loop(iv, cond, inc, body, loc);

    Stmt::new(StmtKind::Compound(vec![tc_decl, lp]), loc)
}

/// Builds the transformed AST of `#pragma omp fuse` over `m` sibling
/// canonical loops:
///
/// ```text
/// {
///   <prologues of already-transformed loops>
///   unsigned .capture_expr.k = <trip count of loop k>;          // ∀k
///   unsigned .fuse.max.iv = max(.capture_expr.0, …);
///   for (unsigned .fused.iv = 0; .fused.iv < .fuse.max.iv; ++.fused.iv) {
///     if (.fused.iv < .capture_expr.0) { T i = …; <body₀> }
///     if (.fused.iv < .capture_expr.1) { T j = …; <body₁> }
///   }
/// }
/// ```
///
/// Guarding each body keeps fusion correct for unequal trip counts (the
/// guards fold away when the counts match).
pub fn transform_fuse(
    ctx: &ASTContext,
    sm: &mut SourceManager,
    loops: &[LoopNestLevel],
    pragma_text: &str,
) -> P<Stmt> {
    assert!(loops.len() >= 2);
    let loc = sm.create_transformed_loc(loops[0].analysis.loc, pragma_text);
    let uty = P::clone(&loops[0].analysis.logical_ty);
    let ulit = |v: i128| ctx.int_lit(v, P::clone(&uty), loc);

    let mut top: Vec<P<Stmt>> = Vec::new();
    for l in loops {
        top.extend(l.prologue.iter().cloned());
    }
    let mut tc_vars = Vec::with_capacity(loops.len());
    for l in loops {
        let (var, stmt) = capture_trip_count(ctx, &l.analysis, loc);
        top.push(stmt);
        tc_vars.push(var);
    }

    // .fuse.max.iv = max over all trip counts (normalized to one logical
    // type — the loops' iteration variables may differ in width).
    let mut max = ctx.int_convert(ctx.read_var(&tc_vars[0], loc), &uty);
    for tc in &tc_vars[1..] {
        let tc_read = ctx.int_convert(ctx.read_var(tc, loc), &uty);
        max = ctx.max_expr(max, tc_read, P::clone(&uty), loc);
    }
    let max_var = ctx.make_implicit_var(
        ctx.fresh_name(".fuse.max.iv"),
        P::clone(&uty),
        Some(max),
        loc,
    );
    top.push(Stmt::new(
        StmtKind::Decl(vec![Decl::Var(P::clone(&max_var))]),
        loc,
    ));

    let iv = ctx.make_implicit_var(".fused.iv", P::clone(&uty), Some(ulit(0)), loc);

    // One guarded body per fused loop, in source order.
    let mut fused_body: Vec<P<Stmt>> = Vec::with_capacity(loops.len());
    for (l, tc) in loops.iter().zip(&tc_vars) {
        let a = &l.analysis;
        let then = Stmt::new(
            StmtKind::Compound(vec![
                materialize_user_var(ctx, a, ctx.read_var(&iv, loc), loc),
                LoopNestLevel::innermost_body(std::slice::from_ref(l)),
            ]),
            loc,
        );
        let guard = ctx.binary(
            BinOp::Lt,
            ctx.read_var(&iv, loc),
            ctx.int_convert(ctx.read_var(tc, loc), &uty),
            ctx.bool_ty(),
            loc,
        );
        fused_body.push(Stmt::new(
            StmtKind::If {
                cond: guard,
                then,
                els: None,
            },
            loc,
        ));
    }
    let body = Stmt::new(StmtKind::Compound(fused_body), loc);

    let cond = ctx.binary(
        BinOp::Lt,
        ctx.read_var(&iv, loc),
        ctx.read_var(&max_var, loc),
        ctx.bool_ty(),
        loc,
    );
    let inc = ctx.unary(UnOp::PreInc, ctx.decl_ref(&iv, loc), P::clone(&uty), loc);
    top.push(make_loop(iv, cond, inc, body, loc));

    Stmt::new(StmtKind::Compound(top), loc)
}

/// Counts the generated `for` loops of a transformed AST (test/statistics
/// helper for the paper's "twice as many loops" claim).
pub fn count_generated_loops(stmt: &P<Stmt>) -> usize {
    struct Counter(usize);
    impl omplt_ast::visitor::StmtVisitor for Counter {
        fn visit_stmt(&mut self, s: &P<Stmt>) {
            if matches!(s.kind, StmtKind::For { .. }) {
                self.0 += 1;
            }
            omplt_ast::visitor::walk_stmt(self, s);
        }
    }
    let mut c = Counter(0);
    omplt_ast::visitor::StmtVisitor::visit_stmt(&mut c, stmt);
    c.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loop_analysis::analyze_canonical_loop;
    use omplt_ast::{dump_stmt, DumpOptions};

    fn level_for(ctx: &ASTContext, lb: i128, ub: i128, step: i128) -> LoopNestLevel {
        let loc = SourceLocation::INVALID;
        let i = ctx.make_var("i", ctx.int(), Some(ctx.int_lit(lb, ctx.int(), loc)), loc);
        let cond = ctx.binary(
            BinOp::Lt,
            ctx.read_var(&i, loc),
            ctx.int_lit(ub, ctx.int(), loc),
            ctx.bool_ty(),
            loc,
        );
        let inc = ctx.binary(
            BinOp::AddAssign,
            ctx.decl_ref(&i, loc),
            ctx.int_lit(step, ctx.int(), loc),
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
        analyze_canonical_loop(ctx, &s, "#pragma omp unroll").unwrap()
    }

    fn fresh_sm() -> SourceManager {
        SourceManager::new()
    }

    #[test]
    fn partial_unroll_shape_matches_paper() {
        let ctx = ASTContext::new();
        let mut sm = fresh_sm();
        let l = level_for(&ctx, 7, 17, 3);
        let t = transform_unroll_partial(&ctx, &mut sm, &l, 2, "#pragma omp unroll partial(2)");
        let d = dump_stmt(&t, &ctx.idents(), DumpOptions::default());
        // strip-mined outer loop over '.unrolled.iv.i'
        assert!(d.contains(".unrolled.iv.i"), "{d}");
        // inner loop kept, annotated with LoopHintAttr UnrollCount
        assert!(d.contains("AttributedStmt"), "{d}");
        assert!(
            d.contains("LoopHintAttr Implicit loop UnrollCount Numeric"),
            "{d}"
        );
        assert!(d.contains(".unroll_inner.iv.i"), "{d}");
        // trip-count capture with the infamous internal name
        assert!(d.contains(".capture_expr."), "{d}");
        // the inner condition is a conjunction (group end AND trip count)
        assert!(d.contains("BinaryOperator 'bool' '&&'"), "{d}");
    }

    #[test]
    fn partial_unroll_generated_loop_is_canonical() {
        // The generated (outer) loop must be re-analyzable (paper §2.1: the
        // transformed AST "must be an OpenMP canonical loop nest itself").
        let ctx = ASTContext::new();
        let mut sm = fresh_sm();
        let l = level_for(&ctx, 0, 10, 1);
        let t = transform_unroll_partial(&ctx, &mut sm, &l, 4, "#pragma omp unroll partial(4)");
        let level = omplt_ast::loop_level(&t).expect("compound with trailing loop");
        assert_eq!(level.intervening.len(), 1, "a bare compound is literal");
        let re = analyze_canonical_loop(&ctx, &level.loop_stmt, "#pragma omp for").unwrap();
        // 10 iterations unrolled by 4 → ⌈10/4⌉ = 3 outer iterations; the
        // trip count is not constant (it reads .capture_expr.) but the
        // analysis succeeds and the direction is up.
        assert_eq!(re.analysis.direction, omplt_ast::LoopDirection::Up);
    }

    #[test]
    fn tile_generates_twice_as_many_loops() {
        let ctx = ASTContext::new();
        let mut sm = fresh_sm();
        let outer = level_for(&ctx, 0, 32, 1);
        let inner = level_for(&ctx, 0, 16, 1);
        let t = transform_tile(
            &ctx,
            &mut sm,
            &[outer, inner],
            &[4, 8],
            "#pragma omp tile sizes(4, 8)",
        );
        assert_eq!(count_generated_loops(&t), 4, "tiling 2 loops → 4 loops");
        let d = dump_stmt(&t, &ctx.idents(), DumpOptions::default());
        assert!(d.contains("VarDecl implicit used .floor.iv.i"), "{d}");
        assert!(d.contains("VarDecl implicit used .tile.iv.i"), "{d}");
        // partial-tile bound via min(): a conditional in the tile loop's test
        assert!(d.contains("| `-ConditionalOperator 'unsigned int'"), "{d}");
    }

    #[test]
    fn tile_body_materializes_original_variables() {
        let ctx = ASTContext::new();
        let mut sm = fresh_sm();
        let level = level_for(&ctx, 5, 20, 3);
        let t = transform_tile(&ctx, &mut sm, &[level], &[4], "#pragma omp tile sizes(4)");
        let d = dump_stmt(&t, &ctx.idents(), DumpOptions::default());
        // `int i = 5 + .tile.iv.i * 3;`
        assert!(d.contains("VarDecl implicit used i 'int' cinit"), "{d}");
        let init = &d[d.find("used i 'int'").unwrap()..];
        assert!(init.contains("BinaryOperator 'int' '*'"), "{init}");
        assert!(init.contains("Var '.tile.iv.i'"), "{init}");
        assert!(init.contains("`-IntegerLiteral 'int' 3"), "{init}");
    }

    #[test]
    fn generated_statements_have_synthetic_locations() {
        let ctx = ASTContext::new();
        let mut sm = fresh_sm();
        let l = level_for(&ctx, 0, 8, 1);
        let t = transform_unroll_partial(&ctx, &mut sm, &l, 2, "#pragma omp unroll partial(2)");
        assert!(t.loc.is_synthetic());
        let (rep, origin) = sm.map_transformed(t.loc).unwrap();
        assert_eq!(rep, l.analysis.loc);
        assert_eq!(origin, "#pragma omp unroll partial(2)");
    }
}
