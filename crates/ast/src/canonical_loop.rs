//! What Sema resolved about a directive's loops, carried on the AST next to
//! the two representations built from it ([`crate::LoopDirectiveHelpers`],
//! [`crate::OMPCanonicalLoop`]): the canonical-form analysis of each
//! associated loop (OpenMP 5.1 §4.4.1), the nest level it was found at, and
//! the lowering the AST was built for. Sema fills them in
//! ([`crate::OMPDirective::nest`]); everything behind Sema reads.
//!
//! The analysis carries everything either representation needs: the
//! trip-count ("distance") expression over an **unsigned** logical counter
//! of the iteration variable's width — the paper's rule; see the
//! `INT32_MIN..INT32_MAX` discussion in §3.1 — and the expression mapping a
//! logical iteration number back to the user variable's value.

use crate::context::ASTContext;
use crate::decl::VarDecl;
use crate::expr::{BinOp, CastKind, Expr, ExprKind, ValueCategory};
use crate::stmt::{Stmt, StmtKind};
use crate::ty::Type;
use crate::P;
use omplt_source::SourceLocation;

/// Which OpenMP lowering the pipeline uses — Clang's
/// `-fopenmp-enable-irbuilder` flag (paper §1.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OpenMpCodegenMode {
    /// Shadow-AST representation + classic CodeGen (paper §2).
    #[default]
    Classic,
    /// `OMPCanonicalLoop` + OpenMPIRBuilder (paper §3).
    IrBuilder,
}

/// Iteration direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LoopDirection {
    /// Counting up (`<`, `<=`, or `!=` with positive step).
    Up,
    /// Counting down (`>`, `>=`, or `!=` with negative step).
    Down,
}

/// Everything Sema learned about one canonical loop.
#[derive(Clone, Debug)]
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
            category: ValueCategory::RValue,
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
        category: ValueCategory::RValue,
        loc,
    })
}

/// One level of a collected (possibly already-transformed) loop nest.
#[derive(Clone, Debug)]
pub struct LoopNestLevel {
    /// Statements that must execute before this level's loop: the
    /// `.capture_expr.` declarations of an inner transformed AST, then a
    /// range-`for`'s `__range`/`__begin`/`__end` (Clang's `OMPLoopScope`).
    pub prologue: Vec<P<Stmt>>,
    /// What an iteration runs before the body, once every counter of the
    /// nest is set: a range-`for`'s `T &v = *__begin` declaration (the
    /// loop-variable statement Clang's `EmitOMPLoopBody` emits first).
    pub binding: Option<P<Stmt>>,
    /// The literal `for` / range-`for` statement the walker found, wrappers
    /// removed.
    pub loop_stmt: P<Stmt>,
    /// The canonical-form analysis of the level's loop.
    pub analysis: CanonicalLoopAnalysis,
}

impl LoopNestLevel {
    /// The innermost body of `nest` as each iteration runs it: every
    /// level's binding, outermost first, then the user's body.
    pub fn innermost_body(nest: &[LoopNestLevel]) -> P<Stmt> {
        let body = &nest[nest.len() - 1].analysis.body;
        let bindings = nest.iter().filter_map(|l| l.binding.clone());
        let stmts: Vec<P<Stmt>> = bindings.chain([P::clone(body)]).collect();
        match stmts.len() {
            1 => P::clone(body),
            _ => Stmt::new(StmtKind::Compound(stmts), body.loc),
        }
    }
}
