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
//! The analysis produces everything Sema needs for either representation:
//! the trip-count ("distance") expression over an **unsigned** logical
//! counter of the iteration variable's width — the paper's rule; see the
//! `INT32_MIN..INT32_MAX` discussion in §3.1 — and the expression mapping a
//! logical iteration number back to the user variable's value.

use omplt_ast::{
    ASTContext, BinOp, CastKind, Decl, Expr, ExprKind, Stmt, StmtKind, Type, UnOp, VarDecl, P,
};
use omplt_source::{DiagnosticsEngine, SourceLocation};

/// Iteration direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LoopDirection {
    /// Counting up (`<`, `<=`, or `!=` with positive step).
    Up,
    /// Counting down (`>`, `>=`, or `!=` with negative step).
    Down,
}

/// Everything Sema learned about one canonical loop.
#[derive(Debug)]
pub struct CanonicalLoopAnalysis {
    /// The loop iteration variable (paper terminology).
    pub iter_var: P<VarDecl>,
    /// Whether the init-statement *declares* the variable (vs. assigns it).
    pub declares_var: bool,
    /// Lower bound (initial value) expression.
    pub lb: P<Expr>,
    /// The bound the condition tests against.
    pub ub: P<Expr>,
    /// Comparison used in the test (normalized so `iter_var` is on the LHS).
    pub relop: BinOp,
    /// Step magnitude expression (always positive; direction is separate).
    pub step: P<Expr>,
    /// Direction of iteration.
    pub direction: LoopDirection,
    /// The loop body.
    pub body: P<Stmt>,
    /// Location of the `for` keyword.
    pub loc: SourceLocation,
    /// The unsigned logical-iteration-counter type (paper §3.1: unsigned,
    /// same precision as the iteration variable).
    pub logical_ty: P<Type>,
}

impl CanonicalLoopAnalysis {
    /// Builds the **distance function** body expression: the loop trip
    /// count as a value of [`CanonicalLoopAnalysis::logical_ty`].
    ///
    /// For an upward loop with exclusive bound:
    /// `lb < ub ? (unsigned)(ub - lb - 1) / step + 1 : 0`
    /// (computed in the unsigned type so the `INT32_MIN..INT32_MAX` case —
    /// 2³²−2 iterations — is representable; paper §3.1).
    pub fn distance_expr(&self, ctx: &ASTContext) -> P<Expr> {
        // Current (start) value of the iteration variable.
        let start = ctx.read_var(&self.iter_var, self.loc);
        self.distance_expr_with_start(ctx, start)
    }

    /// Like [`CanonicalLoopAnalysis::distance_expr`], but with an explicit
    /// start-value expression (the shadow-AST transforms use the loop's
    /// lower bound directly, since the transformed AST replaces the loop and
    /// its variable declaration).
    pub fn distance_expr_with_start(&self, ctx: &ASTContext, start: P<Expr>) -> P<Expr> {
        let loc = self.loc;
        let uty = P::clone(&self.logical_ty);
        let var_ty = P::clone(&self.iter_var.ty);
        let bound = P::clone(&self.ub);

        // Normalize to a strict "distance > 0" test and an inclusive span.
        // span = (up)  bound - start   (exclusive) or bound - start + 1
        //        (down) start - bound  (exclusive) or start - bound + 1
        let (hi, lo) = match self.direction {
            LoopDirection::Up => (bound, start),
            LoopDirection::Down => (start, bound),
        };
        let strict = matches!(self.relop, BinOp::Lt | BinOp::Gt | BinOp::Ne);

        // nonempty = lo < hi   (or lo <= hi for inclusive bounds)
        let cmp_op = if strict { BinOp::Lt } else { BinOp::Le };
        let nonempty = ctx.binary(cmp_op, P::clone(&lo), P::clone(&hi), ctx.bool_ty(), loc);

        // raw = (unsigned)(hi - lo); for inclusive bounds the span is
        // raw + 1 iterations of step 1 — folded into the +1 below by using
        // `raw - 1 + 1 = raw` (exclusive) vs `raw + 1` (inclusive):
        //   iterations = (raw - (strict ? 1 : 0)) / step + 1
        // Pointer difference yields ptrdiff_t (element count, C semantics).
        let diff_ty = if var_ty.is_pointer() {
            ctx.ptrdiff_t()
        } else {
            P::clone(&var_ty)
        };
        let diff = ctx.binary(BinOp::Sub, hi, lo, diff_ty, loc);
        let raw = to_unsigned(ctx, diff, &uty);
        let adjusted = if strict {
            ctx.binary(
                BinOp::Sub,
                raw,
                ctx.int_lit(1, P::clone(&uty), loc),
                P::clone(&uty),
                loc,
            )
        } else {
            raw
        };
        let step_u = to_unsigned(ctx, P::clone(&self.step), &uty);
        let divided = ctx.binary(BinOp::Div, adjusted, step_u, P::clone(&uty), loc);
        let plus1 = ctx.binary(
            BinOp::Add,
            divided,
            ctx.int_lit(1, P::clone(&uty), loc),
            P::clone(&uty),
            loc,
        );
        let zero = ctx.int_lit(0, P::clone(&uty), loc);
        P::new(Expr {
            kind: ExprKind::Conditional(nonempty, plus1, zero),
            ty: uty,
            category: omplt_ast::ValueCategory::RValue,
            loc,
        })
    }

    /// Builds the **loop user value function** body expression: the value of
    /// the iteration variable for logical iteration `logical` (an expression
    /// of the logical type), given `start` — the by-value-captured start
    /// value (paper §3.1: `__begin` is "captured by-value so at any time it
    /// will contain the start value").
    pub fn user_value_expr(&self, ctx: &ASTContext, start: P<Expr>, logical: P<Expr>) -> P<Expr> {
        let loc = self.loc;
        let var_ty = P::clone(&self.iter_var.ty);
        // offset = logical * step. For integer variables the multiply
        // happens in the variable's type; for pointer variables (iterator
        // loops) it stays in the logical type and `ptr + n` scales by the
        // element size (C semantics, implemented by codegen).
        let mul_ty = if var_ty.is_pointer() {
            P::clone(&self.logical_ty)
        } else {
            P::clone(&var_ty)
        };
        let step_in = ctx.int_convert(P::clone(&self.step), &mul_ty);
        let logical_in = ctx.int_convert(logical, &mul_ty);
        let offset = ctx.binary(BinOp::Mul, logical_in, step_in, mul_ty, loc);
        let op = match self.direction {
            LoopDirection::Up => BinOp::Add,
            LoopDirection::Down => BinOp::Sub,
        };
        ctx.binary(op, start, offset, var_ty, loc)
    }

    /// Constant trip count, when lb/ub/step are all constants.
    ///
    /// The count is computed in **checked unsigned arithmetic**, mirroring
    /// the paper's rule (§3.1, claim C5) that the logical iteration counter
    /// is *unsigned*: the full `i64` range (`lb = i64::MIN`, `ub = i64::MAX`,
    /// strict, step 1) yields `u64::MAX` exactly, while a count that does
    /// not fit `u64` (the same range inclusive) returns `None` rather than
    /// truncating. A non-positive step also returns `None`: `analyze_for`
    /// rejects constant zero steps and folds negative ones into the loop
    /// direction, so such a value only reaches here through a hand-built
    /// analysis — refusing is safer than fabricating a count from a clamp.
    pub fn const_trip_count(&self) -> Option<u64> {
        let lb = self.lb.eval_const_int()?;
        let ub = self.ub.eval_const_int()?;
        let step = self.step.eval_const_int()?;
        if step <= 0 {
            return None;
        }
        let strict = matches!(self.relop, BinOp::Lt | BinOp::Gt | BinOp::Ne);
        let (hi, lo) = match self.direction {
            LoopDirection::Up => (ub, lb),
            LoopDirection::Down => (lb, ub),
        };
        // `eval_const_int` values are arbitrary i128; the subtraction itself
        // must be checked before moving to unsigned math.
        let diff = hi.checked_sub(lo)?;
        if diff < 0 || (strict && diff == 0) {
            return Some(0);
        }
        let span = (diff as u128) + u128::from(!strict);
        let count = (span - 1) / (step as u128) + 1;
        u64::try_from(count).ok()
    }
}

fn to_unsigned(_ctx: &ASTContext, e: P<Expr>, uty: &P<Type>) -> P<Expr> {
    if *e.ty == **uty {
        return e;
    }
    let loc = e.loc;
    P::new(Expr {
        kind: ExprKind::ImplicitCast(CastKind::IntegralCast, e),
        ty: P::clone(uty),
        category: omplt_ast::ValueCategory::RValue,
        loc,
    })
}

/// Analyzes `stmt` as an OpenMP canonical loop; reports diagnostics through
/// `diags` and returns `None` on malformed loops. `directive_name` is used
/// in messages (e.g. `"#pragma omp unroll"`).
pub fn analyze_canonical_loop(
    ctx: &ASTContext,
    diags: &DiagnosticsEngine,
    stmt: &P<Stmt>,
    directive_name: &str,
) -> Option<CanonicalLoopAnalysis> {
    let stmt = stmt.strip_to_loop();
    match &stmt.kind {
        StmtKind::For {
            init,
            cond,
            inc,
            body,
        } => analyze_for(
            ctx,
            diags,
            stmt.loc,
            init.as_ref(),
            cond.as_ref(),
            inc.as_ref(),
            body,
            directive_name,
        ),
        StmtKind::CxxForRange(d) => {
            // The de-sugared begin/end/cond/inc follow the canonical pattern
            // by construction (Sema built them); analyze the pointer loop.
            // `__end - __begin` is a pointer difference — C semantics
            // (element count) are implemented by codegen, so the distance
            // expression works unchanged (the paper's "ptrdiff_t for
            // pointers and most iterators").
            let iter_var = P::clone(&d.begin_var);
            let lb = d.begin_var.init.clone()?;
            let ub = ctx.read_var(&d.end_var, stmt.loc);
            Some(CanonicalLoopAnalysis {
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
            })
        }
        _ => {
            diags.error(
                stmt.loc,
                format!("statement after '{directive_name}' must be a for loop"),
            );
            None
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn analyze_for(
    ctx: &ASTContext,
    diags: &DiagnosticsEngine,
    loc: SourceLocation,
    init: Option<&P<Stmt>>,
    cond: Option<&P<Expr>>,
    inc: Option<&P<Expr>>,
    body: &P<Stmt>,
    directive_name: &str,
) -> Option<CanonicalLoopAnalysis> {
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
                    diags.error(
                        s.loc,
                        format!(
                            "initialization clause of OpenMP for loop is not in canonical form ('var = init' or 'T var = init') for '{directive_name}'"
                        ),
                    );
                    return None;
                }
            },
            StmtKind::Expr(e) => match &e.ignore_wrappers().kind {
                ExprKind::Binary(BinOp::Assign, lhs, rhs) => match lhs.as_decl_ref() {
                    Some(v) => (P::clone(v), P::clone(rhs), false),
                    None => {
                        diags.error(e.loc, "canonical loop init must assign a variable");
                        return None;
                    }
                },
                _ => {
                    diags.error(
                        e.loc,
                        "initialization clause of OpenMP for loop is not in canonical form",
                    );
                    return None;
                }
            },
            _ => {
                diags.error(
                    s.loc,
                    "initialization clause of OpenMP for loop is not in canonical form",
                );
                return None;
            }
        },
        None => {
            diags.error(
                loc,
                format!("'{directive_name}' loop requires an init clause"),
            );
            return None;
        }
    };
    if !iter_var.ty.is_integer() && !iter_var.ty.is_pointer() {
        diags.error(
            iter_var.loc,
            format!(
                "variable '{}' must be of integer or pointer type in OpenMP canonical loop",
                iter_var.name
            ),
        );
        return None;
    }

    // ---- test-expr ----
    let Some(cond) = cond else {
        diags.error(loc, format!("'{directive_name}' loop requires a condition"));
        return None;
    };
    let (relop, ub, var_on_left) = match &cond.ignore_wrappers().kind {
        ExprKind::Binary(op, l, r) if op.is_comparison() && *op != BinOp::Eq => {
            if refers_to(l, &iter_var) {
                (*op, P::clone(r), true)
            } else if refers_to(r, &iter_var) {
                (*op, P::clone(l), false)
            } else {
                diags.error(
                    cond.loc,
                    format!(
                        "condition of OpenMP for loop must test iteration variable '{}'",
                        iter_var.name
                    ),
                );
                return None;
            }
        }
        _ => {
            diags.error(
                cond.loc,
                "condition of OpenMP for loop is not in canonical form",
            );
            return None;
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
        diags.error(
            cond.loc,
            "loop bound must be invariant in the iteration variable",
        );
        return None;
    }

    // ---- incr-expr ----
    let Some(inc) = inc else {
        diags.error(
            loc,
            format!("'{directive_name}' loop requires an increment"),
        );
        return None;
    };
    let (step, step_negative) = match &inc.ignore_wrappers().kind {
        ExprKind::Unary(op, sub) if sub.as_decl_ref().is_some_and(|v| v.id == iter_var.id) => {
            match op {
                UnOp::PreInc | UnOp::PostInc => {
                    (ctx.int_lit(1, P::clone(&iter_var.ty), inc.loc), false)
                }
                UnOp::PreDec | UnOp::PostDec => {
                    (ctx.int_lit(1, P::clone(&iter_var.ty), inc.loc), true)
                }
                _ => {
                    diags.error(
                        inc.loc,
                        "increment clause of OpenMP for loop is not in canonical form",
                    );
                    return None;
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
                        diags.error(
                            inc.loc,
                            "increment clause of OpenMP for loop is not in canonical form",
                        );
                        return None;
                    }
                }
                ExprKind::Binary(BinOp::Sub, a, b) if refers_to(a, &iter_var) => {
                    (P::clone(b), true)
                }
                _ => {
                    diags.error(
                        inc.loc,
                        "increment clause of OpenMP for loop is not in canonical form",
                    );
                    return None;
                }
            }
        }
        _ => {
            diags.error(
                inc.loc,
                "increment clause of OpenMP for loop is not in canonical form",
            );
            return None;
        }
    };
    if refers_to_anywhere(&step, &iter_var) {
        diags.error(
            inc.loc,
            "loop step must be invariant in the iteration variable",
        );
        return None;
    }

    // Fold the sign: a negative constant step flips the direction.
    let (step, step_negative) = match step.eval_const_int() {
        Some(v) if v < 0 => (
            ctx.int_lit(-v, P::clone(&step.ty), step.loc),
            !step_negative,
        ),
        Some(0) => {
            diags.error(inc.loc, "loop step must be non-zero");
            return None;
        }
        _ => (step, step_negative),
    };

    let direction = match (relop, step_negative) {
        (BinOp::Lt | BinOp::Le, false) => LoopDirection::Up,
        (BinOp::Gt | BinOp::Ge, true) => LoopDirection::Down,
        (BinOp::Ne, false) => LoopDirection::Up,
        (BinOp::Ne, true) => LoopDirection::Down,
        _ => {
            diags.error(
                cond.loc,
                "direction of condition and increment of OpenMP for loop disagree",
            );
            return None;
        }
    };

    // ---- structured block: no break out of the loop ----
    if has_loop_break(body) {
        diags.error(
            body.loc,
            "break statement cannot be used in an OpenMP for loop",
        );
        return None;
    }

    let logical_ty = ctx.unsigned_of_same_width(&iter_var.ty);
    Some(CanonicalLoopAnalysis {
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

/// Searches the loop-control expressions of `analysis` (lower bound, upper
/// bound, step) for a reference to one of `outer_ivs`, returning the
/// referenced variable and the location of the offending reference.
///
/// Loop nests consumed by `tile` and `collapse` must be **rectangular**
/// (OpenMP 5.1 §4.4.2: `tile` is not defined for non-rectangular nests):
/// the trip count of every loop is evaluated *before* the nest runs, so an
/// inner bound depending on an outer iteration variable would read the
/// variable out of scope and silently miscompile.
pub fn find_nonrectangular_ref(
    analysis: &CanonicalLoopAnalysis,
    outer_ivs: &[P<VarDecl>],
) -> Option<(P<VarDecl>, SourceLocation)> {
    struct Finder<'a> {
        outer: &'a [P<VarDecl>],
        hit: Option<(P<VarDecl>, SourceLocation)>,
    }
    impl omplt_ast::StmtVisitor for Finder<'_> {
        fn visit_expr(&mut self, e: &P<Expr>) {
            if self.hit.is_some() {
                return;
            }
            if let Some(v) = e.as_decl_ref() {
                if let Some(o) = self.outer.iter().find(|o| o.id == v.id) {
                    self.hit = Some((P::clone(o), e.loc));
                    return;
                }
            }
            omplt_ast::walk_expr(self, e);
        }
    }
    let mut f = Finder {
        outer: outer_ivs,
        hit: None,
    };
    for e in [&analysis.lb, &analysis.ub, &analysis.step] {
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

    fn analyze(ctx: &ASTContext, s: &P<Stmt>) -> Option<CanonicalLoopAnalysis> {
        let diags = DiagnosticsEngine::new();
        let r = analyze_canonical_loop(ctx, &diags, s, "#pragma omp for");
        if r.is_none() {
            assert!(diags.has_errors(), "analysis failed without a diagnostic");
        }
        r
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
        let diags = DiagnosticsEngine::new();
        let s = Stmt::new(StmtKind::Null, SourceLocation::INVALID);
        assert!(analyze_canonical_loop(&ctx, &diags, &s, "#pragma omp tile").is_none());
        let msgs = diags.all();
        assert!(msgs[0].message.contains("must be a for loop"));
        assert!(msgs[0].message.contains("#pragma omp tile"));
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
        let diags = DiagnosticsEngine::new();
        assert!(analyze_canonical_loop(&ctx, &diags, &s, "#pragma omp for").is_none());
        assert!(diags.has_errors());
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
        let diags = DiagnosticsEngine::new();
        assert!(analyze_canonical_loop(&ctx, &diags, &s, "#pragma omp for").is_none());
        assert!(diags.all()[0].message.contains("break statement"));
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
        let diags = DiagnosticsEngine::new();
        assert!(analyze_canonical_loop(&ctx, &diags, &s, "#pragma omp for").is_some());
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
        let diags = DiagnosticsEngine::new();
        assert!(analyze_canonical_loop(&ctx, &diags, &s, "#pragma omp for").is_none());
        assert!(diags.all().iter().any(|d| d.message.contains("invariant")));
    }
}
