//! OpenMP *canonical loop form* analysis (OpenMP 5.1 §4.4.1), shared by both
//! representations:
//!
//! ```text
//! for (init-expr; test-expr; incr-expr) structured-block
//! ```
//!
//! with `init-expr` of the form `var = lb` (or a declaration), `test-expr`
//! relating `var` to an invariant bound with `< <= > >= !=`, and `incr-expr`
//! one of `++var`, `var++`, `--var`, `var--`, `var += s`, `var -= s`,
//! `var = var + s`, `var = var - s`.
//!
//! The analysis produces an `omplt_ast::LoopNestLevel` — everything Sema
//! needs for either representation, kept on the directive
//! (`OMPDirective::nest`) for the layers behind Sema — or a [`LoopRefusal`]
//! saying where and why the loop is not in canonical form. A [`NestWalk`]
//! adds the nest's own rules (perfect nesting, rectangularity) with a
//! `LevelRefusal`, and takes the loops a transformation directive generated
//! as the records that directive keeps (`OMPDirective::generated`) instead
//! of analysing its shadow AST again. Neither writes into a diagnostics
//! engine: Sema renders the refusals of the loops a directive is associated
//! with, and ignores those of the levels below them.

use omplt_ast::{
    loop_level, ASTContext, BinOp, CanonicalLoopAnalysis, Decl, DeclId, Expr, ExprKind, LevelLoops,
    LoopDirection, LoopNestLevel, NestRefusal, Stmt, StmtKind, UnOp, VarDecl, P,
};
use omplt_source::SourceLocation;

/// Why a statement is not an OpenMP canonical loop.
#[derive(Debug)]
pub struct LoopRefusal {
    /// Where the loop departs from the canonical form.
    pub loc: SourceLocation,
    /// The diagnostic text.
    pub message: String,
}

fn refuse<T>(loc: SourceLocation, message: impl Into<String>) -> Result<T, LoopRefusal> {
    Err(LoopRefusal {
        loc,
        message: message.into(),
    })
}

/// Analyzes `stmt` as an OpenMP canonical loop: the level it makes on its
/// own. `directive_name` is used in the refusal's message (e.g.
/// `"#pragma omp unroll"`).
pub fn analyze_canonical_loop(
    ctx: &ASTContext,
    stmt: &P<Stmt>,
    directive_name: &str,
) -> Result<LoopNestLevel, LoopRefusal> {
    let stmt = stmt.strip_to_loop();
    let level = |analysis, prologue, binding| LoopNestLevel {
        prologue,
        binding,
        loop_stmt: P::clone(stmt),
        analysis,
    };
    match &stmt.kind {
        StmtKind::For {
            init,
            cond,
            inc,
            body,
        } => analyze_for(
            ctx,
            stmt.loc,
            init.as_ref(),
            cond.as_ref(),
            inc.as_ref(),
            body,
            directive_name,
        )
        .map(|a| level(a, Vec::new(), None)),
        StmtKind::CxxForRange(d) => {
            // The de-sugared begin/end/cond/inc follow the canonical pattern
            // by construction (Sema built them); analyze the pointer loop.
            // `__end - __begin` is a pointer difference — C semantics
            // (element count) are implemented by codegen, so the distance
            // expression works unchanged (the paper's "ptrdiff_t for
            // pointers and most iterators").
            let iter_var = P::clone(&d.begin_var);
            let lb = d.begin_var.init.clone();
            let lb = lb.expect("the range-for de-sugaring initializes __begin");
            let ub = ctx.read_var(&d.end_var, stmt.loc);
            let a = CanonicalLoopAnalysis {
                logical_ty: ctx.size_t(),
                iter_var,
                declares_var: true,
                lb,
                ub,
                relop: BinOp::Ne,
                step: ctx.int_lit(1, ctx.size_t(), stmt.loc),
                direction: LoopDirection::Up,
                body: P::clone(&d.body),
                loc: stmt.loc,
            };
            let setup = [&d.range_stmt, &d.begin_stmt, &d.end_stmt].map(P::clone);
            Ok(level(a, setup.to_vec(), Some(P::clone(&d.loop_var_stmt))))
        }
        _ => refuse(
            stmt.loc,
            format!("statement after '{directive_name}' must be a for loop"),
        ),
    }
}

#[allow(clippy::too_many_arguments)]
fn analyze_for(
    ctx: &ASTContext,
    loc: SourceLocation,
    init: Option<&P<Stmt>>,
    cond: Option<&P<Expr>>,
    inc: Option<&P<Expr>>,
    body: &P<Stmt>,
    directive_name: &str,
) -> Result<CanonicalLoopAnalysis, LoopRefusal> {
    // ---- init-expr ----
    let Some(init) = init else {
        return refuse(
            loc,
            format!("'{directive_name}' loop requires an init clause"),
        );
    };
    let not_canonical = "initialization clause of OpenMP for loop is not in canonical form";
    let (iter_var, lb, declares_var) = match &init.kind {
        StmtKind::Decl(decls) => match decls.as_slice() {
            [Decl::Var(v)] if v.init.is_some() => {
                let lb = v.init.clone().expect("guard checked init");
                (P::clone(v), lb, true)
            }
            _ => {
                let form = "('var = init' or 'T var = init')";
                return refuse(
                    init.loc,
                    format!("{not_canonical} {form} for '{directive_name}'"),
                );
            }
        },
        StmtKind::Expr(e) => match &e.ignore_wrappers().kind {
            ExprKind::Binary(BinOp::Assign, lhs, rhs) => match lhs.as_decl_ref() {
                Some(v) => (P::clone(v), P::clone(rhs), false),
                None => return refuse(e.loc, "canonical loop init must assign a variable"),
            },
            _ => return refuse(e.loc, not_canonical),
        },
        _ => return refuse(init.loc, not_canonical),
    };
    let name = ctx.spelling(iter_var.name);
    if !iter_var.ty.is_integer() && !iter_var.ty.is_pointer() {
        return refuse(
            iter_var.loc,
            format!(
                "variable '{name}' must be of integer or pointer type in OpenMP canonical loop"
            ),
        );
    }

    // ---- test-expr ----
    let Some(cond) = cond else {
        return refuse(loc, format!("'{directive_name}' loop requires a condition"));
    };
    let (relop, ub, var_on_left) = match &cond.ignore_wrappers().kind {
        ExprKind::Binary(op, l, r) if op.is_comparison() && *op != BinOp::Eq => {
            if refers_to(l, &iter_var) {
                (*op, P::clone(r), true)
            } else if refers_to(r, &iter_var) {
                (*op, P::clone(l), false)
            } else {
                return refuse(
                    cond.loc,
                    format!("condition of OpenMP for loop must test iteration variable '{name}'"),
                );
            }
        }
        _ => {
            return refuse(
                cond.loc,
                "condition of OpenMP for loop is not in canonical form",
            );
        }
    };
    // Normalize `ub (op) var` to `var (op') ub`.
    let relop = if var_on_left {
        relop
    } else {
        match relop {
            BinOp::Lt => BinOp::Gt,
            BinOp::Gt => BinOp::Lt,
            BinOp::Le => BinOp::Ge,
            BinOp::Ge => BinOp::Le,
            other => other,
        }
    };
    if refers_to_anywhere(&ub, &iter_var) {
        return refuse(
            cond.loc,
            "loop bound must be invariant in the iteration variable",
        );
    }

    // ---- incr-expr ----
    let Some(inc) = inc else {
        return refuse(
            loc,
            format!("'{directive_name}' loop requires an increment"),
        );
    };
    // A pointer steps by a count of elements.
    let unit_ty = if iter_var.ty.is_pointer() {
        ctx.ptrdiff_t()
    } else {
        P::clone(&iter_var.ty)
    };
    let one = || ctx.int_lit(1, P::clone(&unit_ty), inc.loc);
    let is_var = |e: &P<Expr>| refers_to(e, &iter_var);
    let step = match &inc.ignore_wrappers().kind {
        ExprKind::Unary(UnOp::PreInc | UnOp::PostInc, v) if is_var(v) => Some((one(), false)),
        ExprKind::Unary(UnOp::PreDec | UnOp::PostDec, v) if is_var(v) => Some((one(), true)),
        ExprKind::Binary(op @ (BinOp::AddAssign | BinOp::SubAssign), v, r) if is_var(v) => {
            Some((P::clone(r), *op == BinOp::SubAssign))
        }
        // var = var + s | var = var - s | var = s + var
        ExprKind::Binary(BinOp::Assign, v, r) if is_var(v) => match &r.ignore_wrappers().kind {
            ExprKind::Binary(BinOp::Add, a, b) if is_var(a) => Some((P::clone(b), false)),
            ExprKind::Binary(BinOp::Add, a, b) if is_var(b) => Some((P::clone(a), false)),
            ExprKind::Binary(BinOp::Sub, a, b) if is_var(a) => Some((P::clone(b), true)),
            _ => None,
        },
        _ => None,
    };
    let Some((step, step_negative)) = step else {
        return refuse(
            inc.loc,
            "increment clause of OpenMP for loop is not in canonical form",
        );
    };
    if refers_to_anywhere(&step, &iter_var) {
        return refuse(
            inc.loc,
            "loop step must be invariant in the iteration variable",
        );
    }

    // Fold the sign: a negative constant step flips the direction.
    let (step, step_negative) = match step.eval_const_int() {
        Some(v) if v < 0 => (
            ctx.int_lit(-v, P::clone(&step.ty), step.loc),
            !step_negative,
        ),
        Some(0) => {
            return refuse(inc.loc, "loop step must be non-zero");
        }
        _ => (step, step_negative),
    };

    let direction = match (relop, step_negative) {
        (BinOp::Lt | BinOp::Le, false) => LoopDirection::Up,
        (BinOp::Gt | BinOp::Ge, true) => LoopDirection::Down,
        (BinOp::Ne, false) => LoopDirection::Up,
        (BinOp::Ne, true) => LoopDirection::Down,
        _ => {
            return refuse(
                cond.loc,
                "direction of condition and increment of OpenMP for loop disagree",
            );
        }
    };

    // ---- structured block: no break out of the loop ----
    if has_loop_break(body) {
        return refuse(
            body.loc,
            "break statement cannot be used in an OpenMP for loop",
        );
    }

    let logical_ty = ctx.unsigned_of_same_width(&iter_var.ty);
    Ok(CanonicalLoopAnalysis {
        iter_var,
        declares_var,
        lb,
        ub,
        relop,
        step,
        direction,
        body: P::clone(body),
        loc,
        logical_ty,
    })
}

/// Is `e` (modulo wrappers) exactly a reference to `var`?
fn refers_to(e: &P<Expr>, var: &P<VarDecl>) -> bool {
    e.as_decl_ref().is_some_and(|v| v.id == var.id)
}

/// Does `e` reference `var` anywhere?
fn refers_to_anywhere(e: &P<Expr>, var: &P<VarDecl>) -> bool {
    struct Finder<'a> {
        var: &'a P<VarDecl>,
        found: bool,
    }
    impl omplt_ast::visitor::StmtVisitor for Finder<'_> {
        fn visit_expr(&mut self, e: &P<Expr>) {
            if let ExprKind::DeclRef(v) = &e.kind {
                if v.id == self.var.id {
                    self.found = true;
                }
            }
            omplt_ast::visitor::walk_expr(self, e);
        }
    }
    let mut f = Finder { var, found: false };
    omplt_ast::visitor::StmtVisitor::visit_expr(&mut f, e);
    f.found
}

/// Finds a `break` that would leave the associated loop (nested loops hide
/// their own breaks).
fn has_loop_break(body: &P<Stmt>) -> bool {
    struct Finder {
        found: bool,
        depth: usize,
    }
    impl omplt_ast::visitor::StmtVisitor for Finder {
        fn visit_stmt(&mut self, s: &P<Stmt>) {
            match &s.kind {
                StmtKind::Break if self.depth == 0 => self.found = true,
                StmtKind::For { .. }
                | StmtKind::While { .. }
                | StmtKind::DoWhile { .. }
                | StmtKind::CxxForRange(_) => {
                    self.depth += 1;
                    omplt_ast::visitor::walk_stmt(self, s);
                    self.depth -= 1;
                }
                _ => omplt_ast::visitor::walk_stmt(self, s),
            }
        }
    }
    let mut f = Finder {
        found: false,
        depth: 0,
    };
    omplt_ast::visitor::StmtVisitor::visit_stmt(&mut f, body);
    f.found
}

/// Every `return` in the region associated with a directive, in source
/// order. A nested directive answers for its own region.
pub(crate) fn region_returns(region: &P<Stmt>) -> Vec<SourceLocation> {
    struct Finder(Vec<SourceLocation>);
    impl omplt_ast::StmtVisitor for Finder {
        fn visit_stmt(&mut self, s: &P<Stmt>) {
            match &s.kind {
                StmtKind::Return(_) => self.0.push(s.loc),
                StmtKind::OMP(_) => {}
                _ => omplt_ast::walk_stmt(self, s),
            }
        }
        // No expression holds a statement.
        fn visit_expr(&mut self, _: &P<Expr>) {}
    }
    let mut f = Finder(Vec::new());
    omplt_ast::StmtVisitor::visit_stmt(&mut f, region);
    f.0
}

/// Why a statement cannot be the next level of a loop nest.
#[derive(Debug)]
pub(crate) enum LevelRefusal {
    /// The walker's: no loop here, or a transformation that leaves none.
    Walker(NestRefusal),
    /// Statements beside the loop below the outermost level.
    Intervening(Vec<P<Stmt>>),
    /// The loop is not in canonical form.
    Canonical(LoopRefusal),
    /// A bound reads this enclosing iteration variable, at this location.
    NonRectangular(P<VarDecl>, SourceLocation),
}

/// How many levels a directive's nest is resolved to in all, the levels
/// below its own depth included (`OMPDirective::below`): the dependence
/// gate's graphs span them, and its MIV solver enumerates per level.
pub(crate) const RESOLVED_DEPTH: usize = 4;

/// A walk down a loop nest, one level at a time, by the one rule for a
/// level of a nest. A statement resolves to a literal loop, analysed here,
/// or to a transformation directive, whose generated loops are taken in
/// order as the records it keeps; a body is walked only below the last
/// level a statement resolved to.
pub(crate) struct NestWalk {
    /// What the next level is resolved from once `pending` is spent.
    next: P<Stmt>,
    /// Generated levels not taken yet, outermost first.
    pending: std::vec::IntoIter<LoopNestLevel>,
}

impl NestWalk {
    /// A walk starting at the loop `stmt` stands for.
    pub(crate) fn new(stmt: &P<Stmt>) -> NestWalk {
        NestWalk {
            next: P::clone(stmt),
            pending: Vec::new().into_iter(),
        }
    }

    /// The level below `outer`. Only the outermost loop may share its
    /// literal block with declarations (they run before the nest either
    /// way); below it the nest must be perfect, because a statement
    /// hoisted out of an outer loop's body would be evaluated once instead
    /// of once per iteration. The prologue of a generated loop is not the
    /// user's code and stays in front of it at every level.
    ///
    /// The nest must also be **rectangular** (OpenMP 5.1 §4.4.2): the trip
    /// count of every level is evaluated *before* the nest runs, so a bound
    /// reading an outer iteration variable would read it out of scope.
    pub(crate) fn level(
        &mut self,
        ctx: &ASTContext,
        outer: &[LoopNestLevel],
        directive_name: &str,
    ) -> Result<LoopNestLevel, LevelRefusal> {
        let level = match self.pending.next() {
            Some(level) => level,
            None => {
                let mut levels = self.resolve(ctx, outer, directive_name)?.into_iter();
                let first = levels.next().expect("a level resolves to a loop");
                self.pending = levels;
                first
            }
        };
        if let Some((var, loc)) = find_nonrectangular_ref(&level, outer) {
            return Err(LevelRefusal::NonRectangular(var, loc));
        }
        Ok(level)
    }

    /// The levels the next statement stands for, outermost first; the walk
    /// goes on below the last of them.
    fn resolve(
        &mut self,
        ctx: &ASTContext,
        outer: &[LoopNestLevel],
        directive_name: &str,
    ) -> Result<Vec<LoopNestLevel>, LevelRefusal> {
        let level = loop_level(&self.next).map_err(LevelRefusal::Walker)?;
        if !outer.is_empty() && !level.intervening.is_empty() {
            return Err(LevelRefusal::Intervening(level.intervening));
        }
        let only_decls = |s: &P<Stmt>| matches!(s.kind, StmtKind::Decl(_));
        if !level.intervening.iter().all(only_decls) {
            let stmt = P::clone(&self.next);
            return Err(LevelRefusal::Walker(NestRefusal::NotALoop(stmt)));
        }
        let levels = match level.loops {
            LevelLoops::Literal(stmt) => {
                let mut nested = analyze_canonical_loop(ctx, &stmt, directive_name)
                    .map_err(LevelRefusal::Canonical)?;
                nested.prologue.splice(0..0, level.intervening);
                vec![nested]
            }
            LevelLoops::Generated(d) => d.generated.clone(),
        };
        let last = levels.last().expect("a directive stands for its loops");
        self.next = P::clone(&last.analysis.body);
        Ok(levels)
    }
}

/// The first reference in what `level` runs before its loop (its prologue,
/// lower bound, upper bound and step) to a variable an iteration of `outer`
/// sets (its counter or binding), with its location.
fn find_nonrectangular_ref(
    level: &LoopNestLevel,
    outer: &[LoopNestLevel],
) -> Option<(P<VarDecl>, SourceLocation)> {
    struct Finder {
        set: Vec<DeclId>,
        hit: Option<(P<VarDecl>, SourceLocation)>,
    }
    impl omplt_ast::StmtVisitor for Finder {
        fn visit_expr(&mut self, e: &P<Expr>) {
            if self.hit.is_some() {
                return;
            }
            if let Some(v) = e.as_decl_ref().filter(|v| self.set.contains(&v.id)) {
                self.hit = Some((P::clone(v), e.loc));
                return;
            }
            omplt_ast::walk_expr(self, e);
        }
    }
    let mut set: Vec<DeclId> = outer.iter().map(|l| l.analysis.iter_var.id).collect();
    for l in outer {
        if let Some(StmtKind::Decl(decls)) = l.binding.as_ref().map(|s| &s.kind) {
            set.extend(decls.iter().map(Decl::id));
        }
    }
    let mut f = Finder { set, hit: None };
    for s in &level.prologue {
        omplt_ast::StmtVisitor::visit_stmt(&mut f, s);
    }
    let a = &level.analysis;
    for e in [&a.lb, &a.ub, &a.step] {
        omplt_ast::StmtVisitor::visit_expr(&mut f, e);
    }
    f.hit
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOC: SourceLocation = SourceLocation::INVALID;

    /// `for (int i = lb; cond(i); i += step) body`, `i -= -step` for a
    /// negative step.
    fn for_loop(
        ctx: &ASTContext,
        lb: i128,
        cond: impl Fn(&P<VarDecl>) -> Option<P<Expr>>,
        step: i128,
        body: P<Stmt>,
    ) -> P<Stmt> {
        let int = |v| ctx.int_lit(v, ctx.int(), LOC);
        let i = ctx.make_var("i", ctx.int(), Some(int(lb)), LOC);
        let (op, step) = if step >= 0 {
            (BinOp::AddAssign, step)
        } else {
            (BinOp::SubAssign, -step)
        };
        let inc = ctx.binary(op, ctx.decl_ref(&i, LOC), int(step), ctx.int(), LOC);
        let kind = StmtKind::For {
            cond: cond(&i),
            init: Some(Stmt::new(StmtKind::Decl(vec![Decl::Var(i)]), LOC)),
            inc: Some(inc),
            body,
        };
        Stmt::new(kind, LOC)
    }

    /// `for (int i = lb; i <relop> ub; i += step);`.
    fn ctx_loop(ctx: &ASTContext, lb: i128, ub: i128, step: i128, relop: BinOp) -> P<Stmt> {
        let ub = ctx.int_lit(ub, ctx.int(), LOC);
        let cond = |i: &P<VarDecl>| {
            Some(ctx.binary(
                relop,
                ctx.read_var(i, LOC),
                P::clone(&ub),
                ctx.bool_ty(),
                LOC,
            ))
        };
        for_loop(ctx, lb, cond, step, Stmt::new(StmtKind::Null, LOC))
    }

    fn analyze(ctx: &ASTContext, s: &P<Stmt>) -> Result<CanonicalLoopAnalysis, LoopRefusal> {
        analyze_canonical_loop(ctx, s, "#pragma omp for").map(|l| l.analysis)
    }

    #[test]
    fn paper_example_loop_7_17_3() {
        // for (int i = 7; i < 17; i += 3)  → 4 iterations: 7, 10, 13, 16
        let ctx = ASTContext::new();
        let s = ctx_loop(&ctx, 7, 17, 3, BinOp::Lt);
        let a = analyze(&ctx, &s).unwrap();
        assert_eq!(a.direction, LoopDirection::Up);
        assert_eq!(a.const_trip_count(), Some(4));
        assert_eq!(a.logical_ty.spelling(), "unsigned int");
    }

    #[test]
    fn inclusive_bound() {
        let ctx = ASTContext::new();
        let s = ctx_loop(&ctx, 0, 9, 1, BinOp::Le);
        assert_eq!(analyze(&ctx, &s).unwrap().const_trip_count(), Some(10));
    }

    #[test]
    fn downward_loop() {
        let ctx = ASTContext::new();
        let s = ctx_loop(&ctx, 10, 0, -1, BinOp::Gt);
        let a = analyze(&ctx, &s).unwrap();
        assert_eq!(a.direction, LoopDirection::Down);
        assert_eq!(a.const_trip_count(), Some(10));
    }

    #[test]
    fn empty_loop_has_zero_trip_count() {
        let ctx = ASTContext::new();
        let s = ctx_loop(&ctx, 17, 7, 3, BinOp::Lt);
        assert_eq!(analyze(&ctx, &s).unwrap().const_trip_count(), Some(0));
    }

    #[test]
    fn non_loop_statement_is_diagnosed() {
        let ctx = ASTContext::new();
        let s = Stmt::new(StmtKind::Null, SourceLocation::INVALID);
        let refusal = analyze_canonical_loop(&ctx, &s, "#pragma omp tile").unwrap_err();
        assert!(refusal.message.contains("must be a for loop"));
        assert!(refusal.message.contains("#pragma omp tile"));
    }

    #[test]
    fn missing_condition_is_diagnosed() {
        let ctx = ASTContext::new();
        let s = for_loop(&ctx, 0, |_| None, 1, Stmt::new(StmtKind::Null, LOC));
        let refusal = analyze(&ctx, &s).unwrap_err();
        assert!(refusal.message.contains("requires a condition"));
    }

    /// `for (int i = 0; i < 9; i += 1) body`.
    fn nine(ctx: &ASTContext, body: P<Stmt>) -> P<Stmt> {
        let cond = |i: &P<VarDecl>| {
            let nine = ctx.int_lit(9, ctx.int(), LOC);
            Some(ctx.binary(BinOp::Lt, ctx.read_var(i, LOC), nine, ctx.bool_ty(), LOC))
        };
        for_loop(ctx, 0, cond, 1, body)
    }

    #[test]
    fn break_in_body_is_rejected() {
        let ctx = ASTContext::new();
        let s = nine(&ctx, Stmt::new(StmtKind::Break, LOC));
        let refusal = analyze(&ctx, &s).unwrap_err();
        assert!(refusal.message.contains("break statement"));
    }

    #[test]
    fn break_in_nested_loop_is_fine() {
        let ctx = ASTContext::new();
        let inner = StmtKind::While {
            cond: ctx.int_lit(1, ctx.bool_ty(), LOC),
            body: Stmt::new(StmtKind::Break, LOC),
        };
        let s = nine(&ctx, Stmt::new(inner, LOC));
        assert!(analyze(&ctx, &s).is_ok());
    }

    #[test]
    fn int32_extremes_fit_in_unsigned_counter() {
        // for (int i = INT32_MIN; i < INT32_MAX; ++i): the count is
        // INT32_MAX − INT32_MIN = 0xFFFFFFFF, far outside i32 — the paper's
        // motivation for an *unsigned* logical counter of the same width.
        // (The paper's text quotes 0xfffffffe; the exact arithmetic gives
        // 0xffffffff, which still fits — "the trip count will never …
        // exceed the range of an unsigned integer of the same bitwidth".)
        let ctx = ASTContext::new();
        let s = ctx_loop(&ctx, i32::MIN as i128, i32::MAX as i128, 1, BinOp::Lt);
        let a = analyze(&ctx, &s).unwrap();
        assert_eq!(a.const_trip_count(), Some(u32::MAX as u64));
        assert!(a.logical_ty.is_unsigned_int());
    }

    /// A hand-built analysis (the fields are `pub`) with the given constant
    /// bounds/step — the only way to reach `const_trip_count` with a
    /// non-positive step, since `analyze_for` rejects zero and folds
    /// negative steps into the direction.
    fn raw_analysis(lb: i128, ub: i128, step: i128, relop: BinOp) -> CanonicalLoopAnalysis {
        let ctx = ASTContext::new();
        let loc = SourceLocation::INVALID;
        let ty = ctx.long_ty();
        let i = ctx.make_var("i", P::clone(&ty), None, loc);
        CanonicalLoopAnalysis {
            iter_var: i,
            declares_var: true,
            lb: ctx.int_lit(lb, P::clone(&ty), loc),
            ub: ctx.int_lit(ub, P::clone(&ty), loc),
            relop,
            step: ctx.int_lit(step, P::clone(&ty), loc),
            direction: LoopDirection::Up,
            body: Stmt::new(StmtKind::Null, loc),
            loc,
            logical_ty: ty,
        }
    }

    /// Regression: a zero or negative constant step used to be silently
    /// clamped to 1 (`.max(1)`), fabricating a trip count for a loop whose
    /// step the analysis cannot vouch for.
    #[test]
    fn zero_or_negative_step_yields_no_trip_count() {
        assert_eq!(raw_analysis(0, 10, 0, BinOp::Lt).const_trip_count(), None);
        assert_eq!(raw_analysis(0, 10, -3, BinOp::Lt).const_trip_count(), None);
        // Positive steps keep working through the same constructor.
        assert_eq!(
            raw_analysis(0, 10, 2, BinOp::Lt).const_trip_count(),
            Some(5)
        );
    }

    /// Regression at the i64 extremes (checked unsigned arithmetic, claim
    /// C5): the full exclusive range is exactly `u64::MAX`; the inclusive
    /// range (2^64 iterations) exceeds u64 and must be `None`, not a
    /// truncated `Some(0)`.
    #[test]
    fn int64_extremes_use_checked_unsigned_arithmetic() {
        let lo = i64::MIN as i128;
        let hi = i64::MAX as i128;
        assert_eq!(
            raw_analysis(lo, hi, 1, BinOp::Lt).const_trip_count(),
            Some(u64::MAX)
        );
        assert_eq!(raw_analysis(lo, hi, 1, BinOp::Le).const_trip_count(), None);
        // One below the overflow point: inclusive up to MAX-1 fits again.
        assert_eq!(
            raw_analysis(lo, hi - 1, 1, BinOp::Le).const_trip_count(),
            Some(u64::MAX)
        );
        // Large steps divide the extreme span correctly.
        assert_eq!(
            raw_analysis(lo, hi, 1 << 32, BinOp::Lt).const_trip_count(),
            Some(1 << 32)
        );
    }

    #[test]
    fn bound_referencing_var_rejected() {
        let ctx = ASTContext::new();
        // i < i + 4
        let cond = |i: &P<VarDecl>| {
            let four = ctx.int_lit(4, ctx.int(), LOC);
            let bound = ctx.binary(BinOp::Add, ctx.read_var(i, LOC), four, ctx.int(), LOC);
            Some(ctx.binary(BinOp::Lt, ctx.read_var(i, LOC), bound, ctx.bool_ty(), LOC))
        };
        let s = for_loop(&ctx, 0, cond, 1, Stmt::new(StmtKind::Null, LOC));
        assert!(analyze(&ctx, &s).unwrap_err().message.contains("invariant"));
    }
}
