//! Shadow-AST construction for the loop transformation directives
//! (paper §2): the transformation is applied *on the AST*, producing a new
//! loop nest that is stored as the directive's hidden `transformed` child.
//! Each `transform_*` also returns the loops a consuming directive may
//! associate with, as the level records Sema builds for literal loops: the
//! consumer takes them "as if it was a literal for-loop" without analysing
//! the generated statements again. [`generated_loop`] builds every such
//! `for` together with its record.
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
    ASTContext, Attr, BinOp, CanonicalLoopAnalysis, Decl, Expr, LoopDirection, LoopNestLevel, Stmt,
    StmtKind, Type, UnOp, VarDecl, P,
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

/// What a transformation of `levels` runs before its generated nest: the
/// levels' own prologues (a consumed inner transformation's declarations, a
/// range's setup), then one `.capture_expr.` per level. Returns those
/// statements and the trip-count variables.
fn capture_trip_counts(
    ctx: &ASTContext,
    levels: &[LoopNestLevel],
    loc: SourceLocation,
) -> (Vec<P<Stmt>>, Vec<P<VarDecl>>) {
    let mut top: Vec<P<Stmt>> = levels.iter().flat_map(|l| l.prologue.clone()).collect();
    let mut tc_vars = Vec::with_capacity(levels.len());
    for l in levels {
        let (var, stmt) = capture_trip_count(ctx, &l.analysis, loc);
        top.push(stmt);
        tc_vars.push(var);
    }
    (top, tc_vars)
}

/// One generated counter per level, `<stem><the level's variable>`, of the
/// level's logical type and initialised by `init(k)` for level `k`.
fn logical_ivs(
    ctx: &ASTContext,
    levels: &[LoopNestLevel],
    stem: &str,
    init: impl Fn(usize, &P<Type>) -> P<Expr>,
    loc: SourceLocation,
) -> Vec<P<VarDecl>> {
    let iv = |(k, l): (usize, &LoopNestLevel)| {
        let a = &l.analysis;
        let name = format!("{stem}{}", ctx.spelling(a.iter_var.name));
        let init = init(k, &a.logical_ty);
        ctx.make_implicit_var(name, P::clone(&a.logical_ty), Some(init), loc)
    };
    levels.iter().enumerate().map(iv).collect()
}

/// The innermost body of a generated nest: every original iteration
/// variable re-declared from its logical iteration number, `T i = lb ±
/// logical * step;` (reusing the original `DeclId`, so body references keep
/// resolving), then what each iteration of `levels` runs.
fn materialized_body(
    ctx: &ASTContext,
    levels: &[LoopNestLevel],
    logicals: impl IntoIterator<Item = P<Expr>>,
    loc: SourceLocation,
) -> P<Stmt> {
    let rebind = |(l, logical): (&LoopNestLevel, P<Expr>)| {
        let a = &l.analysis;
        let rebound = P::new(VarDecl {
            id: a.iter_var.id,
            name: a.iter_var.name,
            ty: P::clone(&a.iter_var.ty),
            init: Some(a.user_value_expr(ctx, P::clone(&a.lb), logical)),
            loc,
            kind: omplt_ast::VarKind::Local,
            implicit: true,
            by_ref: a.iter_var.by_ref,
            used: std::cell::Cell::new(true),
        });
        Stmt::new(StmtKind::Decl(vec![Decl::Var(rebound)]), loc)
    };
    let mut stmts: Vec<P<Stmt>> = levels.iter().zip(logicals).map(rebind).collect();
    stmts.push(LoopNestLevel::innermost_body(levels));
    Stmt::new(StmtKind::Compound(stmts), loc)
}

/// The header of every generated loop: `for (T iv = <its init>; cond;
/// ++iv)`, or `iv += step` for a `step`. Returns the statement and the step
/// expression a canonical-form analysis reads off it.
fn loop_header(
    ctx: &ASTContext,
    iv: &P<VarDecl>,
    cond: P<Expr>,
    step: Option<u64>,
    body: P<Stmt>,
    loc: SourceLocation,
) -> (P<Stmt>, P<Expr>) {
    let ty = P::clone(&iv.ty);
    let (inc, step) = match step {
        None => {
            let inc = ctx.unary(UnOp::PreInc, ctx.decl_ref(iv, loc), P::clone(&ty), loc);
            (inc, ctx.int_lit(1, ty, loc))
        }
        Some(s) => {
            let step = ctx.int_lit(s as i128, P::clone(&ty), loc);
            let inc = ctx.binary(
                BinOp::AddAssign,
                ctx.decl_ref(iv, loc),
                P::clone(&step),
                ty,
                loc,
            );
            (inc, step)
        }
    };
    let kind = StmtKind::For {
        init: Some(Stmt::new(
            StmtKind::Decl(vec![Decl::Var(P::clone(iv))]),
            loc,
        )),
        cond: Some(cond),
        inc: Some(inc),
        body,
    };
    (Stmt::new(kind, loc), step)
}

/// The generated loop `for (T iv = <its init>; iv < bound; <step>) body`
/// together with its level record: what the canonical-form analysis makes
/// of that `for`, built from its parts instead. A record that comes first
/// in its transformation gets that transformation's prologue.
fn generated_loop(
    ctx: &ASTContext,
    iv: &P<VarDecl>,
    bound: P<Expr>,
    step: Option<u64>,
    body: P<Stmt>,
    loc: SourceLocation,
) -> LoopNestLevel {
    let cond = ctx.binary(
        BinOp::Lt,
        ctx.read_var(iv, loc),
        P::clone(&bound),
        ctx.bool_ty(),
        loc,
    );
    let (loop_stmt, step) = loop_header(ctx, iv, cond, step, P::clone(&body), loc);
    let lb = iv.init.clone().expect("a generated counter is initialized");
    LoopNestLevel {
        prologue: Vec::new(),
        binding: None,
        loop_stmt,
        analysis: CanonicalLoopAnalysis {
            iter_var: P::clone(iv),
            declares_var: true,
            lb,
            ub: bound,
            relop: BinOp::Lt,
            step,
            direction: LoopDirection::Up,
            body,
            loc,
            logical_ty: ctx.unsigned_of_same_width(&iv.ty),
        },
    }
}

/// The shadow AST `{ <outer>; { <prologue>; <outermost generated loop> } }`
/// of a transformation (without the outer block when `outer` is empty),
/// and its generated loops, outermost first, with both prologues on the
/// first: they run before the generated nest. `outer` is the prologue of
/// the single loop a transformation consumed whole (a consumed inner
/// transformation's declarations, a range's setup).
fn shadow(
    outer: &[P<Stmt>],
    prologue: Vec<P<Stmt>>,
    mut generated: Vec<LoopNestLevel>,
    loc: SourceLocation,
) -> (P<Stmt>, Vec<LoopNestLevel>) {
    let block = |stmts: Vec<P<Stmt>>| Stmt::new(StmtKind::Compound(stmts), loc);
    let outermost = &mut generated[0];
    let mut t = block([&prologue[..], &[P::clone(&outermost.loop_stmt)]].concat());
    if !outer.is_empty() {
        t = block([outer, &[t]].concat());
    }
    outermost.prologue = [outer, &prologue].concat();
    (t, generated)
}

/// Builds the transformed AST of `#pragma omp unroll partial(factor)`
/// (paper Fig. lst:transformedast), and its generated (outer) loop:
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
) -> (P<Stmt>, Vec<LoopNestLevel>) {
    let a = &level.analysis;
    let loc = sm.create_transformed_loc(a.loc, pragma_text);
    let uty = P::clone(&a.logical_ty);
    let ulit = |v: i128| ctx.int_lit(v, P::clone(&uty), loc);

    let (tc_var, tc_decl) = capture_trip_count(ctx, a, loc);
    let levels = std::slice::from_ref(level);
    let [outer_iv] = &logical_ivs(ctx, levels, ".unrolled.iv.", |_, _| ulit(0), loc)[..] else {
        unreachable!("one level")
    };
    let read_outer = |_, _: &P<Type>| ctx.read_var(outer_iv, loc);
    let [inner_iv] = &logical_ivs(ctx, levels, ".unroll_inner.iv.", read_outer, loc)[..] else {
        unreachable!("one level")
    };

    // inner loop
    let group_end = ctx.binary(
        BinOp::Add,
        ctx.read_var(outer_iv, loc),
        ulit(factor as i128),
        P::clone(&uty),
        loc,
    );
    let in_group = ctx.binary(
        BinOp::Lt,
        ctx.read_var(inner_iv, loc),
        group_end,
        ctx.bool_ty(),
        loc,
    );
    let in_range = ctx.binary(
        BinOp::Lt,
        ctx.read_var(inner_iv, loc),
        ctx.read_var(&tc_var, loc),
        ctx.bool_ty(),
        loc,
    );
    let inner_cond = ctx.binary(BinOp::LAnd, in_group, in_range, ctx.bool_ty(), loc);
    let inner_body = materialized_body(ctx, levels, [ctx.read_var(inner_iv, loc)], loc);
    let (inner_loop, _) = loop_header(ctx, inner_iv, inner_cond, None, inner_body, loc);
    let hinted = Stmt::new(
        StmtKind::Attributed {
            attrs: vec![Attr::LoopUnrollCount(factor)],
            sub: inner_loop,
        },
        loc,
    );

    // outer (generated) loop — this is what a consuming directive takes.
    let bound = ctx.read_var(&tc_var, loc);
    let outer = generated_loop(ctx, outer_iv, bound, Some(factor), hinted, loc);
    shadow(&level.prologue, vec![tc_decl], vec![outer], loc)
}

/// Builds the transformed AST of `#pragma omp tile sizes(s₀, …, sₙ₋₁)` over
/// a perfect nest of `n` canonical loops — 2n generated loops, of which the
/// n floor loops are the ones a consuming directive may take:
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
) -> (P<Stmt>, Vec<LoopNestLevel>) {
    assert_eq!(levels.len(), sizes.len());
    let loc = sm.create_transformed_loc(levels[0].analysis.loc, pragma_text);
    let (top, tc_vars) = capture_trip_counts(ctx, levels, loc);
    // Floor IVs (shared between the floor loop decl and tile-loop bounds).
    let zero = |_, ty: &P<Type>| ctx.int_lit(0, P::clone(ty), loc);
    let floor_ivs = logical_ivs(ctx, levels, ".floor.iv.", zero, loc);
    let floor_of = |k, _: &P<Type>| ctx.read_var(&floor_ivs[k], loc);
    let tile_ivs = logical_ivs(ctx, levels, ".tile.iv.", floor_of, loc);

    let reads = tile_ivs.iter().map(|iv| ctx.read_var(iv, loc));
    let mut current = materialized_body(ctx, levels, reads, loc);
    // Tile loops, innermost-out.
    for (k, l) in levels.iter().enumerate().rev() {
        let uty = P::clone(&l.analysis.logical_ty);
        let size = ctx.int_lit(sizes[k] as i128, P::clone(&uty), loc);
        let floor = ctx.read_var(&floor_ivs[k], loc);
        let tile_end = ctx.binary(BinOp::Add, floor, size, P::clone(&uty), loc);
        let bound = ctx.min_expr(ctx.read_var(&tc_vars[k], loc), tile_end, uty, loc);
        current = generated_loop(ctx, &tile_ivs[k], bound, None, current, loc).loop_stmt;
    }
    // Floor loops, innermost-out.
    let mut floors = Vec::with_capacity(levels.len());
    for k in (0..levels.len()).rev() {
        let bound = ctx.read_var(&tc_vars[k], loc);
        let floor = generated_loop(ctx, &floor_ivs[k], bound, Some(sizes[k]), current, loc);
        current = P::clone(&floor.loop_stmt);
        floors.push(floor);
    }
    floors.reverse();
    shadow(&[], top, floors, loc)
}

/// Builds the transformed AST of `#pragma omp interchange
/// permutation(p₀+1, …, pₙ₋₁+1)` over a perfect nest of `n` canonical
/// loops, and its `n` generated loops. `perm` is 0-based: position `k` of
/// the generated nest runs the *original* level `perm[k]`.
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
/// original level, so the nest stays rectangular.
pub fn transform_interchange(
    ctx: &ASTContext,
    sm: &mut SourceManager,
    levels: &[LoopNestLevel],
    perm: &[usize],
    pragma_text: &str,
) -> (P<Stmt>, Vec<LoopNestLevel>) {
    assert_eq!(levels.len(), perm.len());
    let loc = sm.create_transformed_loc(levels[0].analysis.loc, pragma_text);
    let (top, tc_vars) = capture_trip_counts(ctx, levels, loc);
    // One logical IV per *original* level (indexed like `levels`).
    let zero = |_, ty: &P<Type>| ctx.int_lit(0, P::clone(ty), loc);
    let ivs = logical_ivs(ctx, levels, ".permuted.iv.", zero, loc);

    let reads = ivs.iter().map(|iv| ctx.read_var(iv, loc));
    let mut current = materialized_body(ctx, levels, reads, loc);
    // Loops in permuted order, innermost-out.
    let mut generated = Vec::with_capacity(levels.len());
    for &k in perm.iter().rev() {
        let bound = ctx.read_var(&tc_vars[k], loc);
        let permuted = generated_loop(ctx, &ivs[k], bound, None, current, loc);
        current = P::clone(&permuted.loop_stmt);
        generated.push(permuted);
    }
    generated.reverse();
    shadow(&[], top, generated, loc)
}

/// Builds the transformed AST of `#pragma omp reverse`, and its generated
/// loop:
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
) -> (P<Stmt>, Vec<LoopNestLevel>) {
    let a = &level.analysis;
    let loc = sm.create_transformed_loc(a.loc, pragma_text);
    let uty = P::clone(&a.logical_ty);
    let ulit = |v: i128| ctx.int_lit(v, P::clone(&uty), loc);

    let (tc_var, tc_decl) = capture_trip_count(ctx, a, loc);
    let levels = std::slice::from_ref(level);
    let [iv] = &logical_ivs(ctx, levels, ".reversed.iv.", |_, _| ulit(0), loc)[..] else {
        unreachable!("one level")
    };

    // logical' = N - 1 - iv
    let tc = ctx.read_var(&tc_var, loc);
    let n_minus_1 = ctx.binary(BinOp::Sub, tc, ulit(1), P::clone(&uty), loc);
    let mirrored = ctx.binary(BinOp::Sub, n_minus_1, ctx.read_var(iv, loc), uty, loc);
    let body = materialized_body(ctx, levels, [mirrored], loc);
    let reversed = generated_loop(ctx, iv, ctx.read_var(&tc_var, loc), None, body, loc);
    shadow(&level.prologue, vec![tc_decl], vec![reversed], loc)
}

/// Builds the transformed AST of `#pragma omp fuse` over `m` sibling
/// canonical loops, and its generated loop:
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
) -> (P<Stmt>, Vec<LoopNestLevel>) {
    assert!(loops.len() >= 2);
    let loc = sm.create_transformed_loc(loops[0].analysis.loc, pragma_text);
    let uty = P::clone(&loops[0].analysis.logical_ty);
    let (mut top, tc_vars) = capture_trip_counts(ctx, loops, loc);

    // .fuse.max.iv = max over all trip counts (normalized to one logical
    // type — the loops' iteration variables may differ in width).
    let tc_read = |tc| ctx.int_convert(ctx.read_var(tc, loc), &uty);
    let mut max = tc_read(&tc_vars[0]);
    for tc in &tc_vars[1..] {
        max = ctx.max_expr(max, tc_read(tc), P::clone(&uty), loc);
    }
    let max_name = ctx.fresh_name(".fuse.max.iv");
    let max_var = ctx.make_implicit_var(max_name, P::clone(&uty), Some(max), loc);
    top.push(Stmt::new(
        StmtKind::Decl(vec![Decl::Var(P::clone(&max_var))]),
        loc,
    ));

    let zero = ctx.int_lit(0, P::clone(&uty), loc);
    let iv = ctx.make_implicit_var(".fused.iv", P::clone(&uty), Some(zero), loc);

    // One guarded body per fused loop, in source order.
    let guarded = |(l, tc)| {
        let then = materialized_body(ctx, std::slice::from_ref(l), [ctx.read_var(&iv, loc)], loc);
        let cond = ctx.binary(
            BinOp::Lt,
            ctx.read_var(&iv, loc),
            tc_read(tc),
            ctx.bool_ty(),
            loc,
        );
        Stmt::new(
            StmtKind::If {
                cond,
                then,
                els: None,
            },
            loc,
        )
    };
    let body = loops.iter().zip(&tc_vars).map(guarded).collect();
    let body = Stmt::new(StmtKind::Compound(body), loc);
    let fused = generated_loop(ctx, &iv, ctx.read_var(&max_var, loc), None, body, loc);
    shadow(&[], top, vec![fused], loc)
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
    use crate::sema::Sema;
    use omplt_ast::{
        dump_stmt, CastKind, DumpOptions, ExprKind, OpenMpCodegenMode, Type, TypeKind,
    };
    use omplt_source::DiagnosticsEngine;
    use std::cell::RefCell;

    const LOC: SourceLocation = SourceLocation::INVALID;

    /// `for (<var>; cond; inc);`.
    fn for_stmt(var: P<VarDecl>, cond: P<Expr>, inc: P<Expr>) -> P<Stmt> {
        let kind = StmtKind::For {
            init: Some(Stmt::new(StmtKind::Decl(vec![Decl::Var(var)]), LOC)),
            cond: Some(cond),
            inc: Some(inc),
            body: Stmt::new(StmtKind::Null, LOC),
        };
        Stmt::new(kind, LOC)
    }

    /// `for (int v = lb; v <op> bound; v <inc> step);`.
    fn int_loop(
        ctx: &ASTContext,
        v: &str,
        lb: i128,
        op: BinOp,
        bound: i128,
        inc: BinOp,
        step: i128,
    ) -> P<Stmt> {
        let int = |n| ctx.int_lit(n, ctx.int(), LOC);
        let i = ctx.make_var(v, ctx.int(), Some(int(lb)), LOC);
        let cond = ctx.binary(op, ctx.read_var(&i, LOC), int(bound), ctx.bool_ty(), LOC);
        let inc = ctx.binary(inc, ctx.decl_ref(&i, LOC), int(step), ctx.int(), LOC);
        for_stmt(i, cond, inc)
    }

    /// The level of `for (int i = lb; i < ub; i += step);`.
    fn level_for(ctx: &ASTContext, lb: i128, ub: i128, step: i128) -> LoopNestLevel {
        let s = int_loop(ctx, "i", lb, BinOp::Lt, ub, BinOp::AddAssign, step);
        analyze_canonical_loop(ctx, &s, "#pragma omp unroll").unwrap()
    }

    #[test]
    fn partial_unroll_shape_matches_paper() {
        let ctx = ASTContext::new();
        let l = level_for(&ctx, 7, 17, 3);
        let mut sm = SourceManager::new();
        let (t, _) =
            transform_unroll_partial(&ctx, &mut sm, &l, 2, "#pragma omp unroll partial(2)");
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
        // The generated (outer) loop must be a canonical loop (paper §2.1:
        // the transformed AST "must be an OpenMP canonical loop nest
        // itself"), behind the `.capture_expr.` declaration it reads.
        let ctx = ASTContext::new();
        let l = level_for(&ctx, 0, 10, 1);
        let mut sm = SourceManager::new();
        let (t, generated) =
            transform_unroll_partial(&ctx, &mut sm, &l, 4, "#pragma omp unroll partial(4)");
        let [outer] = &generated[..] else {
            panic!("one generated loop")
        };
        let re = analyze_canonical_loop(&ctx, &outer.loop_stmt, "#pragma omp for").unwrap();
        assert_eq!(re.analysis.direction, LoopDirection::Up);
        let StmtKind::Compound(stmts) = &t.kind else {
            panic!("a block")
        };
        assert!(P::ptr_eq(&stmts[0], &outer.prologue[0]));
        assert!(P::ptr_eq(&stmts[1], &outer.loop_stmt));
    }

    #[test]
    fn tile_generates_twice_as_many_loops() {
        let ctx = ASTContext::new();
        let levels = [level_for(&ctx, 0, 32, 1), level_for(&ctx, 0, 16, 1)];
        let mut sm = SourceManager::new();
        let (t, floors) = transform_tile(
            &ctx,
            &mut sm,
            &levels,
            &[4, 8],
            "#pragma omp tile sizes(4, 8)",
        );
        assert_eq!(floors.len(), 2, "a consumer may take the floor loops");
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
        let level = level_for(&ctx, 5, 20, 3);
        let mut sm = SourceManager::new();
        let (t, _) = transform_tile(&ctx, &mut sm, &[level], &[4], "#pragma omp tile sizes(4)");
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
        let l = level_for(&ctx, 0, 8, 1);
        let mut sm = SourceManager::new();
        let (t, _) =
            transform_unroll_partial(&ctx, &mut sm, &l, 2, "#pragma omp unroll partial(2)");
        assert!(t.loc.is_synthetic());
        let (rep, origin) = sm.map_transformed(t.loc).unwrap();
        assert_eq!(rep, l.analysis.loc);
        assert_eq!(origin, "#pragma omp unroll partial(2)");
    }

    /// The loop forms a record is built over.
    #[derive(Clone, Copy, Debug)]
    enum Form {
        /// `for (int v = 1; v < 20; v += 3)`.
        Up,
        /// `for (int v = 20; v > 1; v -= 3)`.
        Down,
        /// `for (long *v = a; v < a + 8; v++)`.
        Pointer,
        /// `for (long &v : a)`.
        Range,
    }

    /// The level `form` makes over `v`, as the canonical-form analysis
    /// resolves it.
    fn level_of(s: &mut Sema, form: Form, v: &str) -> LoopNestLevel {
        let ctx = &s.ctx;
        let long = ctx.long_ty();
        let a = ctx.make_var(
            "a",
            Type::new(TypeKind::Array(P::clone(&long), 8)),
            None,
            LOC,
        );
        let stmt = match form {
            Form::Up => int_loop(ctx, v, 1, BinOp::Lt, 20, BinOp::AddAssign, 3),
            Form::Down => int_loop(ctx, v, 20, BinOp::Gt, 1, BinOp::SubAssign, 3),
            Form::Pointer => {
                let ptr = ctx.pointer_to(long);
                let decay = || {
                    let a = ctx.decl_ref(&a, LOC);
                    let kind = ExprKind::ImplicitCast(CastKind::ArrayToPointerDecay, a);
                    Expr::rvalue(kind, P::clone(&ptr), LOC)
                };
                let p = ctx.make_var(v, P::clone(&ptr), Some(decay()), LOC);
                let end = ctx.binary(
                    BinOp::Add,
                    decay(),
                    ctx.int_lit(8, ctx.int(), LOC),
                    P::clone(&ptr),
                    LOC,
                );
                let cond = ctx.binary(BinOp::Lt, ctx.read_var(&p, LOC), end, ctx.bool_ty(), LOC);
                let inc = ctx.unary(UnOp::PostInc, ctx.decl_ref(&p, LOC), ptr, LOC);
                for_stmt(p, cond, inc)
            }
            Form::Range => {
                let (name, range) = (ctx.intern(v), ctx.decl_ref(&a, LOC));
                let parts = s.act_on_range_for_begin(name, None, true, range, LOC);
                s.act_on_range_for_end(
                    parts.expect("an array range"),
                    Stmt::new(StmtKind::Null, LOC),
                )
            }
        };
        analyze_canonical_loop(&s.ctx, &stmt, "#pragma omp tile").unwrap()
    }

    /// What the canonical-form analysis makes of a generated nest of
    /// `depth` loops in the shadow AST `t`: the leading declarations of its
    /// blocks run before the first loop, and each next loop is the body of
    /// the one before.
    fn reanalysed(ctx: &ASTContext, t: &P<Stmt>, depth: usize) -> Vec<LoopNestLevel> {
        let (mut prologue, mut cur) = (Vec::new(), P::clone(t));
        while let StmtKind::Compound(stmts) = &cur.kind {
            let (last, lead) = stmts.split_last().expect("a block ending in the nest");
            prologue.extend(lead.iter().cloned());
            cur = P::clone(last);
        }
        let mut levels: Vec<LoopNestLevel> = Vec::new();
        for _ in 0..depth {
            let mut level = analyze_canonical_loop(ctx, &cur, "#pragma omp for").unwrap();
            level.prologue.splice(0..0, std::mem::take(&mut prologue));
            cur = P::clone(&level.analysis.body);
            levels.push(level);
        }
        levels
    }

    /// A consumer takes a transformation's records instead of analysing its
    /// shadow AST, and classic CodeGen emits that AST: each record must be
    /// field for field what the analysis makes of the `for` it came with —
    /// the same counter `VarDecl` and statement, the same bound and step
    /// expressions, relation and direction, the prologue in order, and no
    /// binding. Over every transformation, loop form and depth, each also
    /// stacked over a `reverse` of its loops.
    #[test]
    fn every_record_is_what_the_analysis_makes_of_its_for() {
        type Transform =
            fn(&ASTContext, &mut SourceManager, &[LoopNestLevel]) -> (P<Stmt>, Vec<LoopNestLevel>);
        let transforms: [(&str, usize, Transform); 7] = [
            ("unroll partial(2)", 1, |c, sm, l| {
                transform_unroll_partial(c, sm, &l[0], 2, "")
            }),
            ("reverse", 1, |c, sm, l| transform_reverse(c, sm, &l[0], "")),
            ("tile sizes(4)", 1, |c, sm, l| {
                transform_tile(c, sm, l, &[4], "")
            }),
            ("tile sizes(2, 3)", 2, |c, sm, l| {
                transform_tile(c, sm, l, &[2, 3], "")
            }),
            ("interchange", 2, |c, sm, l| {
                transform_interchange(c, sm, l, &[1, 0], "")
            }),
            ("interchange permutation(3, 1, 2)", 3, |c, sm, l| {
                transform_interchange(c, sm, l, &[2, 0, 1], "")
            }),
            ("fuse", 2, |c, sm, l| transform_fuse(c, sm, l, "")),
        ];
        let diags = DiagnosticsEngine::new();
        let sm = RefCell::new(SourceManager::new());
        let mut s = Sema::new(&diags, &sm, OpenMpCodegenMode::Classic, true);
        s.scopes.push();
        let mut tsm = SourceManager::new();
        let mut checked = 0;
        for form in [Form::Up, Form::Down, Form::Pointer, Form::Range] {
            for ((what, depth, transform), stacked) in
                transforms.iter().flat_map(|t| [(t, false), (t, true)])
            {
                let mut levels: Vec<LoopNestLevel> = ["i", "j", "k"][..*depth]
                    .iter()
                    .map(|v| level_of(&mut s, form, v))
                    .collect();
                if stacked {
                    for l in &mut levels {
                        *l = transform_reverse(&s.ctx, &mut tsm, l, "").1.remove(0);
                    }
                }
                let (t, records) = transform(&s.ctx, &mut tsm, &levels);
                let case = format!("{what} over {form:?} (stacked: {stacked})");
                assert!(
                    records[0].prologue.len() >= *depth,
                    "{case}: a trip count per loop"
                );
                let expected = reanalysed(&s.ctx, &t, records.len());
                for (r, e) in records.iter().zip(&expected) {
                    assert!(P::ptr_eq(&r.loop_stmt, &e.loop_stmt), "{case}");
                    assert!(
                        P::ptr_eq(&r.analysis.iter_var, &e.analysis.iter_var),
                        "{case}"
                    );
                    assert_eq!(format!("{r:?}"), format!("{e:?}"), "{case}");
                    checked += 1;
                }
            }
        }
        assert!(diags.all().is_empty());
        assert_eq!(checked, 4 * 2 * (1 + 1 + 1 + 2 + 2 + 3 + 1));
    }
}
