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
//! saying where and why the loop is not in canonical form. `nest_level`
//! adds the nest's own rules (perfect nesting, rectangularity) with a
//! `LevelRefusal`. Neither writes into a diagnostics engine: Sema renders
//! the refusals of the loops a directive is associated with, and
//! [`extend_loop_nest`], which the dependence gate reads the levels below a
//! directive's own depth with, ignores them.

use omplt_ast::{
    loop_level, ASTContext, BinOp, CanonicalLoopAnalysis, Decl, DeclId, Expr, ExprKind,
    LoopDirection, LoopNestLevel, NestRefusal, Stmt, StmtKind, UnOp, VarDecl, P,
};
use omplt_source::{SourceLocation, Symbol};

/// Why a statement is not an OpenMP canonical loop.
#[derive(Debug)]
pub struct LoopRefusal {
    /// Where the loop departs from the canonical form.
    pub loc: SourceLocation,
    /// The diagnostic text; a `{}` in it stands for the name of `var`.
    pub message: String,
    /// The variable the message names, spelled when it is rendered:
    /// [`extend_loop_nest`], which ignores refusals, analyses with a
    /// context of its own.
    pub var: Option<Symbol>,
}

impl LoopRefusal {
    /// The diagnostic text with the variable it names spelled.
    pub fn render(&self, ctx: &ASTContext) -> String {
        match self.var {
            Some(var) => self.message.replacen("{}", &ctx.spelling(var), 1),
            None => self.message.clone(),
        }
    }
}

fn refuse<T>(loc: SourceLocation, message: impl Into<String>) -> Result<T, LoopRefusal> {
    Err(LoopRefusal {
        loc,
        message: message.into(),
        var: None,
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
    let (iter_var, lb, declares_var) = match init {
        Some(s) => match &s.kind {
            StmtKind::Decl(decls) => match decls.as_slice() {
                [Decl::Var(v)] if v.init.is_some() => (
                    P::clone(v),
                    v.init.clone().expect("guard checked init"),
                    true,
                ),
                _ => {
                    return refuse(
                        s.loc,
                        format!(
                            "initialization clause of OpenMP for loop is not in canonical form ('var = init' or 'T var = init') for '{directive_name}'"
                        ),
                    );
                }
            },
            StmtKind::Expr(e) => match &e.ignore_wrappers().kind {
                ExprKind::Binary(BinOp::Assign, lhs, rhs) => match lhs.as_decl_ref() {
                    Some(v) => (P::clone(v), P::clone(rhs), false),
                    None => {
                        return refuse(e.loc, "canonical loop init must assign a variable");
                    }
                },
                _ => {
                    return refuse(
                        e.loc,
                        "initialization clause of OpenMP for loop is not in canonical form",
                    );
                }
            },
            _ => {
                return refuse(
                    s.loc,
                    "initialization clause of OpenMP for loop is not in canonical form",
                );
            }
        },
        None => {
            return refuse(
                loc,
                format!("'{directive_name}' loop requires an init clause"),
            );
        }
    };
    if !iter_var.ty.is_integer() && !iter_var.ty.is_pointer() {
        return Err(LoopRefusal {
            loc: iter_var.loc,
            message: "variable '{}' must be of integer or pointer type in OpenMP canonical loop"
                .into(),
            var: Some(iter_var.name),
        });
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
                return Err(LoopRefusal {
                    loc: cond.loc,
                    message: "condition of OpenMP for loop must test iteration variable '{}'"
                        .into(),
                    var: Some(iter_var.name),
                });
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
    let (step, step_negative) = match &inc.ignore_wrappers().kind {
        ExprKind::Unary(op, sub) if sub.as_decl_ref().is_some_and(|v| v.id == iter_var.id) => {
            match op {
                UnOp::PreInc | UnOp::PostInc => (ctx.int_lit(1, unit_ty, inc.loc), false),
                UnOp::PreDec | UnOp::PostDec => (ctx.int_lit(1, unit_ty, inc.loc), true),
                _ => {
                    return refuse(
                        inc.loc,
                        "increment clause of OpenMP for loop is not in canonical form",
                    );
                }
            }
        }
        ExprKind::Binary(op, l, r)
            if matches!(op, BinOp::AddAssign | BinOp::SubAssign)
                && l.as_decl_ref().is_some_and(|v| v.id == iter_var.id) =>
        {
            (P::clone(r), *op == BinOp::SubAssign)
        }
        ExprKind::Binary(BinOp::Assign, l, r)
            if l.as_decl_ref().is_some_and(|v| v.id == iter_var.id) =>
        {
            // var = var + s | var = var - s | var = s + var
            match &r.ignore_wrappers().kind {
                ExprKind::Binary(BinOp::Add, a, b) => {
                    if refers_to(a, &iter_var) {
                        (P::clone(b), false)
                    } else if refers_to(b, &iter_var) {
                        (P::clone(a), false)
                    } else {
                        return refuse(
                            inc.loc,
                            "increment clause of OpenMP for loop is not in canonical form",
                        );
                    }
                }
                ExprKind::Binary(BinOp::Sub, a, b) if refers_to(a, &iter_var) => {
                    (P::clone(b), true)
                }
                _ => {
                    return refuse(
                        inc.loc,
                        "increment clause of OpenMP for loop is not in canonical form",
                    );
                }
            }
        }
        _ => {
            return refuse(
                inc.loc,
                "increment clause of OpenMP for loop is not in canonical form",
            );
        }
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

/// Resolves and analyses the loop `stmt` stands for as the level below
/// `outer` — the one rule for a level of a nest. Only the outermost loop
/// may share its literal block with declarations (they run before the nest
/// either way); below it the nest must be perfect, because a statement
/// hoisted out of an outer loop's body would be evaluated once instead of
/// once per iteration. The prologue of a consumed transformation is not the
/// user's code and stays in front of the generated loop at every level.
///
/// The nest must also be **rectangular** (OpenMP 5.1 §4.4.2): the trip
/// count of every level is evaluated *before* the nest runs, so a bound
/// reading an outer iteration variable would read it out of scope.
pub(crate) fn nest_level(
    ctx: &ASTContext,
    stmt: &P<Stmt>,
    outer: &[LoopNestLevel],
    directive_name: &str,
) -> Result<LoopNestLevel, LevelRefusal> {
    let level = loop_level(stmt).map_err(LevelRefusal::Walker)?;
    if !outer.is_empty() && !level.intervening.is_empty() {
        return Err(LevelRefusal::Intervening(level.intervening));
    }
    let only_decls = |s: &P<Stmt>| matches!(s.kind, StmtKind::Decl(_));
    if !level.intervening.iter().all(only_decls) {
        return Err(LevelRefusal::Walker(NestRefusal::NotALoop(P::clone(stmt))));
    }
    let mut nested = analyze_canonical_loop(ctx, &level.loop_stmt, directive_name)
        .map_err(LevelRefusal::Canonical)?;
    nested.prologue.splice(0..0, level.hoisted().cloned());
    if let Some((var, loc)) = find_nonrectangular_ref(&nested, outer) {
        return Err(LevelRefusal::NonRectangular(var, loc));
    }
    Ok(nested)
}

/// `nest` extended downwards by the rule of `nest_level`, up to
/// `max_depth` levels in all, stopping silently at the first level it
/// refuses: no directive is associated with these loops, so a refusal is
/// nobody's error. The dependence gate reads the levels below a directive's
/// own depth this way (they sharpen its direction vectors).
pub fn extend_loop_nest(nest: &[LoopNestLevel], max_depth: usize) -> Vec<LoopNestLevel> {
    // A context of its own is safe: the analysis builds literals over the
    // original `VarDecl`s, and no refusal is rendered.
    let ctx = ASTContext::new();
    let mut levels = nest.to_vec();
    while let Some(innermost) = levels.last().filter(|_| levels.len() < max_depth) {
        match nest_level(&ctx, &innermost.analysis.body, &levels, "loop analysis") {
            Ok(level) => levels.push(level),
            Err(_) => break,
        }
    }
    levels
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

    fn ctx_loop(ctx: &ASTContext, lb: i128, ub: i128, step: i128, relop: BinOp) -> P<Stmt> {
        let loc = SourceLocation::INVALID;
        let i = ctx.make_var("i", ctx.int(), Some(ctx.int_lit(lb, ctx.int(), loc)), loc);
        let cond = ctx.binary(
            relop,
            ctx.read_var(&i, loc),
            ctx.int_lit(ub, ctx.int(), loc),
            ctx.bool_ty(),
            loc,
        );
        let inc = if step >= 0 {
            ctx.binary(
                BinOp::AddAssign,
                ctx.decl_ref(&i, loc),
                ctx.int_lit(step, ctx.int(), loc),
                ctx.int(),
                loc,
            )
        } else {
            ctx.binary(
                BinOp::SubAssign,
                ctx.decl_ref(&i, loc),
                ctx.int_lit(-step, ctx.int(), loc),
                ctx.int(),
                loc,
            )
        };
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
        let loc = SourceLocation::INVALID;
        let i = ctx.make_var("i", ctx.int(), Some(ctx.int_lit(0, ctx.int(), loc)), loc);
        let s = Stmt::new(
            StmtKind::For {
                init: Some(Stmt::new(StmtKind::Decl(vec![Decl::Var(i)]), loc)),
                cond: None,
                inc: None,
                body: Stmt::new(StmtKind::Null, loc),
            },
            loc,
        );
        let refusal = analyze(&ctx, &s).unwrap_err();
        assert!(refusal.message.contains("requires a condition"));
    }

    #[test]
    fn break_in_body_is_rejected() {
        let ctx = ASTContext::new();
        let loc = SourceLocation::INVALID;
        let i = ctx.make_var("i", ctx.int(), Some(ctx.int_lit(0, ctx.int(), loc)), loc);
        let cond = ctx.binary(
            BinOp::Lt,
            ctx.read_var(&i, loc),
            ctx.int_lit(9, ctx.int(), loc),
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
                body: Stmt::new(StmtKind::Break, loc),
            },
            loc,
        );
        let refusal = analyze(&ctx, &s).unwrap_err();
        assert!(refusal.message.contains("break statement"));
    }

    #[test]
    fn break_in_nested_loop_is_fine() {
        let ctx = ASTContext::new();
        let loc = SourceLocation::INVALID;
        let inner_break = Stmt::new(StmtKind::Break, loc);
        let inner = Stmt::new(
            StmtKind::While {
                cond: ctx.int_lit(1, ctx.bool_ty(), loc),
                body: inner_break,
            },
            loc,
        );
        let i = ctx.make_var("i", ctx.int(), Some(ctx.int_lit(0, ctx.int(), loc)), loc);
        let cond = ctx.binary(
            BinOp::Lt,
            ctx.read_var(&i, loc),
            ctx.int_lit(9, ctx.int(), loc),
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
                body: inner,
            },
            loc,
        );
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
        let loc = SourceLocation::INVALID;
        let i = ctx.make_var("i", ctx.int(), Some(ctx.int_lit(0, ctx.int(), loc)), loc);
        // i < i + 4
        let bound = ctx.binary(
            BinOp::Add,
            ctx.read_var(&i, loc),
            ctx.int_lit(4, ctx.int(), loc),
            ctx.int(),
            loc,
        );
        let cond = ctx.binary(BinOp::Lt, ctx.read_var(&i, loc), bound, ctx.bool_ty(), loc);
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
        assert!(analyze(&ctx, &s).unwrap_err().message.contains("invariant"));
    }
}
