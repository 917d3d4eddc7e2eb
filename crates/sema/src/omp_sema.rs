//! Sema for OpenMP executable directives: clause validation against the
//! catalog rows in `omplt-ast`, loop-nest collection through the shared
//! walker (a nested transformation directive stands for the loops it
//! generated, taken as the records it keeps — the shadow-AST composition
//! mechanism), shadow-AST construction, the classic `OMPLoopDirective`
//! helper bundle, and `OMPCanonicalLoop` wrapping for the IrBuilder mode.
//! The collected nest stays on the node (`OMPDirective::nest`, the levels
//! below it in `OMPDirective::below`): it is the one resolution and
//! analysis of the directive's loops, and every later layer reads it.
//!
//! A directive whose associated nest cannot be transformed as written is
//! refused here, while the directive is built (paper Fig. 1), so CodeGen
//! only ever lowers an AST that may be lowered: canonical loop form, the
//! no-`break` and no-`return` rules, rectangularity and perfect nesting.
//! The one legality rule Sema cannot decide on its own walk — whether an
//! order-changing directive reverses a memory dependence — is
//! `omplt-analysis`'s, which `CompilerInstance::parse_source` runs next.

use crate::canonical::build_canonical_loop;
use crate::capture::build_omp_captured_stmt;
use crate::loop_analysis::{region_returns, LevelRefusal, NestWalk, RESOLVED_DEPTH};
use crate::sema::Sema;
use crate::transform::{
    transform_fuse, transform_interchange, transform_reverse, transform_tile,
    transform_unroll_partial,
};
use omplt_ast::{
    ArgShape, BadPermutation, BinOp, ClauseModifier, Expr, LoopAssociation, LoopDirectiveHelpers,
    LoopNestLevel, NestRefusal, OMPClause, OMPClauseKind, OMPDirective, OMPDirectiveKind,
    OpenMpCodegenMode, PerLoopHelpers, ReductionOp, ScheduleKind, Stmt, StmtKind, VarDecl, P,
};
use omplt_source::{Diagnostic, Level, SourceLocation};

impl Sema<'_> {
    /// Main entry: builds the AST for one OpenMP executable directive.
    pub fn act_on_omp_directive(
        &mut self,
        kind: OMPDirectiveKind,
        clauses: Vec<P<OMPClause>>,
        associated: Option<P<Stmt>>,
        loc: SourceLocation,
    ) -> P<Stmt> {
        if !self.openmp {
            // `-fno-openmp`: pragmas are ignored; the associated statement
            // stands alone.
            return associated.unwrap_or_else(|| Stmt::new(StmtKind::Null, loc));
        }
        // One observability span per directive: the paper's shadow-AST
        // construction cost (§2 vs §3) is exactly the time spent here.
        let _span = omplt_trace::span_detail("sema.directive", kind.name());
        // Fault site: COUNT selects which directive's analysis panics.
        omplt_fault::panic_if_armed("sema.panic");
        let consumer = format!("#pragma omp {}", kind.name());
        let mut d = OMPDirective::new(kind, clauses, None, loc);
        self.check_clauses(&d, &consumer);

        let Some(mut associated) = associated else {
            self.diags.error(
                loc,
                format!("'{consumer}' requires an associated statement"),
            );
            return Stmt::new(StmtKind::Null, loc);
        };

        // A structured block is left only at its end: `break` is refused
        // per loop by the canonical-form analysis, `return` here — out of a
        // loop nest and out of the outlined block of a `parallel` alike.
        for ret in region_returns(&associated) {
            let pragma = d.pragma_text();
            let region = if kind.is_loop_based() {
                "loop nest associated with"
            } else {
                "structured block of"
            };
            self.diags.report_with_notes(
                Level::Error,
                ret,
                format!("cannot 'return' out of the {region} '{pragma}'"),
                vec![Diagnostic::note(
                    loc,
                    format!("enclosing '{pragma}' construct begins here"),
                )],
            );
        }
        // Either branch collects the associated nest, and in IrBuilder mode
        // wraps each of its literal loops in the OMPCanonicalLoop meta node
        // (paper §3.1) from that collection's analysis.
        if kind.is_loop_transformation() {
            if let Some((t, generated)) = self.build_transformed(&mut d, &mut associated, &consumer)
            {
                d.transformed = Some(t);
                d.generated = generated;
            }
        } else if kind.is_loop_directive() {
            if let Some((levels, below)) =
                self.collect_loop_nest(&d, &associated, d.associated_loops(), &consumer)
            {
                if self.mode == OpenMpCodegenMode::Classic {
                    let helpers = self.build_loop_helpers(&levels, loc);
                    omplt_trace::count("sema.shadow.helper_nodes", helpers.node_count() as u64);
                    d.loop_helpers = Some(helpers);
                }
                associated = self.wrap_canonical_nest(&associated, &levels);
                (d.nest, d.below) = (levels, below);
            }
        }
        // Parallel, worksharing and taskloop regions are outlined →
        // CapturedStmt (loop transformations must NOT capture; paper §2.1).
        if kind.captures_associated() {
            let captured = build_omp_captured_stmt(&self.ctx, associated);
            associated = Stmt::new(StmtKind::Captured(captured), loc);
        }
        d.associated = Some(associated);
        Stmt::new(StmtKind::OMP(P::new(d)), loc)
    }

    // ---------------- clause validation ----------------

    /// Checks every clause against its catalog row (accepted on this
    /// directive, at most once, positive constant arguments) plus the two
    /// cross-argument rules of `schedule` and `simdlen`/`safelen`.
    fn check_clauses(&self, d: &OMPDirective, consumer: &str) {
        for (i, c) in d.clauses.iter().enumerate() {
            let name = c.kind.name();
            if !d.kind.accepts(c.kind) {
                self.diags.error(
                    c.loc,
                    format!("clause '{name}' is not valid on '{consumer}'"),
                );
            }
            if c.kind.at_most_once() && d.clauses[..i].iter().any(|p| p.kind == c.kind) {
                self.diags.error(
                    c.loc,
                    format!("directive '{consumer}' cannot contain more than one '{name}' clause"),
                );
            }
            if c.kind.must_be_positive() {
                for e in &c.args {
                    self.check_positive_const(e, name);
                }
            }
            if let ClauseModifier::Reduction(op) = c.modifier {
                // The runtime combines `+` and `*` into 4- and 8-byte
                // variables; anything else is refused here, not ignored or
                // miscompiled further down.
                if !matches!(op, ReductionOp::Add | ReductionOp::Mul) {
                    self.diags.error(
                        c.loc,
                        format!("reduction operator '{}' is not supported", op.name()),
                    );
                }
                for e in &c.args {
                    let Some(var) = e.as_decl_ref() else { continue };
                    if !(var.ty.is_arithmetic() && matches!(var.ty.size_of(), 4 | 8)) {
                        self.diags.error(
                            e.loc,
                            format!(
                                "reduction variable '{}' has type '{}'; only int, long, float \
                                 and double variables can be reduced",
                                self.ctx.spelling(var.name),
                                var.ty.spelling()
                            ),
                        );
                    }
                }
            }
            if let ClauseModifier::Schedule(sk) = c.modifier {
                // A chunk expression must be a positive integer (OpenMP 5.1
                // §11.5.3); a compile-time-known violation is an error.
                let chunk = c.args.first();
                if let Some(chunk) = chunk.filter(|e| e.eval_const_int().is_some_and(|v| v <= 0)) {
                    self.diags.error(
                        chunk.loc,
                        "chunk size of 'schedule' clause must be positive",
                    );
                }
                if matches!(sk, ScheduleKind::Runtime | ScheduleKind::Auto) && chunk.is_some() {
                    self.diags.error(
                        c.loc,
                        format!("schedule kind '{}' does not take a chunk size", sk.name()),
                    );
                }
            }
        }
        self.check_data_sharing(d, consumer);
        // OpenMP 5.1 §10.4: `simdlen` must not exceed `safelen` when both
        // are present (a preferred width above the legal distance bound
        // would be unsatisfiable).
        if let (Some(safelen), Some(simdlen)) = (
            d.clause_value(OMPClauseKind::Safelen),
            d.clause_value(OMPClauseKind::Simdlen),
        ) {
            if simdlen > safelen {
                let loc = d.clause(OMPClauseKind::Simdlen).map_or(d.loc, |c| c.loc);
                self.diags.error(
                    loc,
                    format!("'simdlen({simdlen})' must not be greater than 'safelen({safelen})'"),
                );
            }
        }
    }

    /// OpenMP 5.1 §5.4: a variable may be named in at most one data-sharing
    /// clause of a directive. Codegen rebinds in clause order, so a second
    /// mention would silently pick whichever clause comes last.
    fn check_data_sharing(&self, d: &OMPDirective, consumer: &str) {
        let mut named: Vec<(&VarDecl, &OMPClause, SourceLocation)> = Vec::new();
        for c in &d.clauses {
            if !matches!(c.kind.shape(), ArgShape::VarList | ArgShape::Reduction) {
                continue;
            }
            for e in &c.args {
                let Some(var) = e.as_decl_ref() else { continue };
                let Some((_, first, first_loc)) = named.iter().find(|(v, ..)| v.id == var.id)
                else {
                    named.push((var, c, e.loc));
                    continue;
                };
                self.diags.report_with_notes(
                    Level::Error,
                    e.loc,
                    format!(
                        "variable '{}' is named in more than one data-sharing clause of \
                         '{consumer}' ('{}' and '{}')",
                        self.ctx.spelling(var.name),
                        first.kind.name(),
                        c.kind.name()
                    ),
                    vec![Diagnostic::note(
                        *first_loc,
                        format!("first named in this '{}' clause", first.kind.name()),
                    )],
                );
            }
        }
    }

    /// Diagnoses a clause argument that is not a positive integer constant.
    fn check_positive_const(&self, e: &P<Expr>, what: &str) {
        let problem = match e.eval_const_int() {
            Some(v) if v > 0 => return,
            Some(_) => "positive",
            None => "a constant expression",
        };
        self.diags
            .error(e.loc, format!("argument to '{what}' must be {problem}"));
    }

    // ---------------- loop-nest collection ----------------

    /// Collects `depth` nested canonical loops, one level at a time, and
    /// renders the first refusal as the directive's error; then the walk
    /// goes on silently below them, up to [`RESOLVED_DEPTH`] levels in all.
    /// Returns the nest and the levels below it.
    pub fn collect_loop_nest(
        &mut self,
        d: &OMPDirective,
        stmt: &P<Stmt>,
        depth: usize,
        consumer: &str,
    ) -> Option<(Vec<LoopNestLevel>, Vec<LoopNestLevel>)> {
        let mut walk = NestWalk::new(stmt);
        let mut levels: Vec<LoopNestLevel> = Vec::with_capacity(depth.max(RESOLVED_DEPTH));
        for lvl in 0..depth {
            match walk.level(&self.ctx, &levels, consumer) {
                Ok(level) => levels.push(level),
                Err(refusal) => {
                    self.report_level_refusal(d, refusal, lvl + 1, depth, consumer);
                    return None;
                }
            }
        }
        while levels.len() < RESOLVED_DEPTH {
            match walk.level(&self.ctx, &levels, consumer) {
                Ok(level) => levels.push(level),
                Err(_) => break,
            }
        }
        let below = levels.split_off(depth);
        Some((levels, below))
    }

    /// Renders why the loop at depth `depth_at` (from 1) of a nest of
    /// `depth` cannot be associated with `d`.
    fn report_level_refusal(
        &self,
        d: &OMPDirective,
        refusal: LevelRefusal,
        depth_at: usize,
        depth: usize,
        consumer: &str,
    ) {
        match refusal {
            LevelRefusal::Walker(NestRefusal::NotALoop(s)) => self.diags.error(
                s.loc,
                format!("statement after '{consumer}' must be a for loop"),
            ),
            // `unroll full` / heuristic unroll leave no generated loop to
            // associate (paper §1.1).
            LevelRefusal::Walker(NestRefusal::NoGeneratedLoop(d)) => self.diags.error(
                d.loc,
                format!(
                    "'#pragma omp {}' here does not generate a loop that can be associated with '{consumer}'",
                    d.kind.name()
                ),
            ),
            LevelRefusal::Intervening(stmts) => {
                let pragma = d.pragma_text();
                for s in &stmts {
                    self.diags.report_with_notes(
                        Level::Error,
                        s.loc,
                        format!(
                            "loop nest after '{pragma}' must be perfectly nested: \
                             statement is not part of the loop at depth {depth_at}"
                        ),
                        vec![Diagnostic::note(
                            d.loc,
                            format!("'{pragma}' requires {depth} perfectly nested loops here"),
                        )],
                    );
                }
            }
            LevelRefusal::Canonical(r) => self.diags.error(r.loc, r.message),
            LevelRefusal::NonRectangular(var, ref_loc) => {
                let name = self.ctx.spelling(var.name);
                self.diags.report_with_notes(
                    Level::Error,
                    ref_loc,
                    format!(
                        "loop nest associated with '{consumer}' must be rectangular: \
                         bound of loop {depth_at} depends on iteration variable '{name}'"
                    ),
                    vec![Diagnostic::note(
                        var.loc,
                        format!("iteration variable '{name}' declared here"),
                    )],
                );
            }
        }
    }

    /// Collects a *loop sequence*: the statements of a block, each
    /// resolving to one canonical loop (possibly the outermost loop a nested
    /// transformation directive generated).
    fn collect_loop_sequence(
        &mut self,
        d: &OMPDirective,
        stmt: &P<Stmt>,
        consumer: &str,
    ) -> Option<Vec<LoopNestLevel>> {
        let stmts = match &stmt.kind {
            StmtKind::Compound(ss) => ss.as_slice(),
            _ => std::slice::from_ref(stmt),
        };
        let mut loops = Vec::with_capacity(stmts.len());
        for s in stmts {
            loops.extend(self.collect_loop_nest(d, s, 1, consumer)?.0);
        }
        if loops.len() < 2 {
            self.diags.error(
                d.loc,
                format!("'{consumer}' requires a sequence of at least two loops"),
            );
            return None;
        }
        Some(loops)
    }

    // ---------------- transformation directives ----------------

    /// Builds the shadow AST of a loop transformation and the records of
    /// the loops it generates — the driver all five share: validate the
    /// directive's own clauses, collect the nest its catalog row associates
    /// it with (kept as `d.nest`, with or without a shadow AST), run its
    /// `transform_*`, then count the result.
    /// `None` means no generated loop stands in for the
    /// directive: `unroll` without `partial` (paper §2.2 — the shadow AST
    /// exists exactly when the directive is potentially consumable; it is
    /// kept in IrBuilder mode too for the consumer-side diagnostics, "for
    /// the moment we rely on the existing diagnostic", §3.1), or an error
    /// already reported. Legality against the dependence graph is
    /// `omplt-analysis`'s gate, which runs on the finished translation unit.
    fn build_transformed(
        &mut self,
        d: &mut OMPDirective,
        associated: &mut P<Stmt>,
        consumer: &str,
    ) -> Option<(P<Stmt>, Vec<LoopNestLevel>)> {
        use OMPDirectiveKind::{Fuse, Interchange, Reverse, Tile, Unroll};
        let (kind, loc) = (d.kind, d.loc);
        let full = d.clause(OMPClauseKind::Full).is_some();
        if full && d.clause(OMPClauseKind::Partial).is_some() {
            self.diags
                .error(loc, "'full' and 'partial' clauses are mutually exclusive");
        }
        if kind == Tile && d.clause(OMPClauseKind::Sizes).is_none() {
            self.diags
                .error(loc, format!("'{consumer}' requires a 'sizes' clause"));
        }
        // An undecodable list was diagnosed argument by argument.
        let sizes = if kind == Tile { d.sizes()? } else { Vec::new() };
        let perm = if kind == Interchange {
            self.checked_permutation(d)?
        } else {
            Vec::new()
        };

        // A loop *sequence* is one level per member.
        d.nest = if kind.loop_association() == LoopAssociation::Sequence {
            let levels = self.collect_loop_sequence(d, associated, consumer)?;
            if let StmtKind::Compound(members) = &associated.kind {
                let members = members
                    .iter()
                    .zip(&levels)
                    .map(|(m, l)| self.wrap_canonical_nest(m, std::slice::from_ref(l)))
                    .collect();
                *associated = Stmt::new(StmtKind::Compound(members), associated.loc);
            }
            levels
        } else {
            let (levels, below) =
                self.collect_loop_nest(d, associated, d.associated_loops(), consumer)?;
            *associated = self.wrap_canonical_nest(associated, &levels);
            d.below = below;
            levels
        };
        let levels = &d.nest;
        let first = &levels[0];
        if full && first.analysis.const_trip_count().is_none() {
            self.diags.error(
                loc,
                "loop to be fully unrolled must have a constant trip count (is the bound a constant?)",
            );
        }

        let pragma = d.pragma_text();
        let (t, generated) = {
            let (ctx, sm) = (&self.ctx, &mut *self.sm.borrow_mut());
            match kind {
                Unroll => transform_unroll_partial(ctx, sm, first, d.partial_factor()?, &pragma),
                Tile => transform_tile(ctx, sm, levels, &sizes, &pragma),
                Interchange => transform_interchange(ctx, sm, levels, &perm, &pragma),
                Reverse => transform_reverse(ctx, sm, first, &pragma),
                Fuse => transform_fuse(ctx, sm, levels, &pragma),
                _ => unreachable!("'{consumer}' is not a loop transformation"),
            }
        };
        if !matches!(kind, Unroll | Tile) && omplt_trace::active() {
            omplt_trace::count(&format!("sema.transform.{}", kind.name()), 1);
        }
        count_transformed_nodes(&t);
        Some((t, generated))
    }

    /// The decoded `permutation` of an `interchange`, diagnosing a list that
    /// is not a permutation (non-constant arguments were diagnosed one by
    /// one).
    fn checked_permutation(&self, d: &OMPDirective) -> Option<Vec<usize>> {
        match d.permutation() {
            Ok(perm) => return Some(perm),
            Err(BadPermutation::NotConstant) => {}
            Err(BadPermutation::TooShort) => self
                .diags
                .error(d.loc, "'permutation' clause must name at least two loops"),
            Err(BadPermutation::NotAPermutation(e)) => self.diags.error(
                e.loc,
                format!(
                    "'permutation' arguments must be a permutation of 1..{}",
                    d.associated_loops()
                ),
            ),
        }
        None
    }

    /// In IrBuilder mode, wraps every level of `levels` that is a literal
    /// loop of `stmt` in `OMPCanonicalLoop`, so CodeGen reads one node per
    /// depth (Clang's `EmitOMPCollapsedCanonicalLoopNest`). A level that a
    /// nested transformation directive stands for is left alone: CodeGen
    /// gets it as a handle that directive generates.
    fn wrap_canonical_nest(&mut self, stmt: &P<Stmt>, levels: &[LoopNestLevel]) -> P<Stmt> {
        let Some((level, inner)) = levels.split_first() else {
            return P::clone(stmt);
        };
        if self.mode != OpenMpCodegenMode::IrBuilder {
            return P::clone(stmt);
        }
        let loc = stmt.loc;
        let lp = match &stmt.kind {
            // Declarations beside the outermost loop; it comes last.
            StmtKind::Compound(stmts) if !stmts.is_empty() => {
                let mut stmts = stmts.clone();
                let last = stmts.pop().expect("a non-empty block");
                stmts.push(self.wrap_canonical_nest(&last, levels));
                return Stmt::new(StmtKind::Compound(stmts), loc);
            }
            StmtKind::For { .. } | StmtKind::CxxForRange(_) if inner.is_empty() => P::clone(stmt),
            StmtKind::For {
                init,
                cond,
                inc,
                body,
            } => {
                let kind = StmtKind::For {
                    init: init.clone(),
                    cond: cond.clone(),
                    inc: inc.clone(),
                    body: self.wrap_canonical_nest(body, inner),
                };
                Stmt::new(kind, loc)
            }
            StmtKind::CxxForRange(r) => {
                let mut r = omplt_ast::CxxForRangeData::clone(r);
                r.body = self.wrap_canonical_nest(&r.body, inner);
                Stmt::new(StmtKind::CxxForRange(P::new(r)), loc)
            }
            _ => return P::clone(stmt),
        };
        let node = build_canonical_loop(&self.ctx, &lp, &level.analysis);
        omplt_trace::count(
            "sema.canonical.meta_items",
            omplt_ast::OMPCanonicalLoop::META_NODE_COUNT as u64,
        );
        Stmt::new(StmtKind::OMPCanonicalLoop(node), loc)
    }

    // ---------------- classic helper bundle ----------------

    /// Builds the `OMPLoopDirective` shadow helper bundle — "up to 30 shadow
    /// AST statements … plus 6 for each loop" (paper §1.2). All nodes are
    /// real expression trees; classic CodeGen emits from them.
    pub fn build_loop_helpers(
        &mut self,
        levels: &[LoopNestLevel],
        loc: SourceLocation,
    ) -> P<LoopDirectiveHelpers> {
        let ctx = &self.ctx;
        let szt = ctx.size_t();
        let lit = |v: i128| ctx.int_lit(v, P::clone(&szt), loc);

        // Captured trip counts (".capture_expr." — see the paper's
        // diagnostics example) and the total iteration space.
        let mut capture_decls = Vec::with_capacity(levels.len());
        for l in levels {
            let tc = l
                .analysis
                .distance_expr_with_start(ctx, P::clone(&l.analysis.lb));
            let tc = ctx.int_convert(tc, &szt);
            capture_decls.push(ctx.make_implicit_var(
                ctx.fresh_name(".capture_expr."),
                P::clone(&szt),
                Some(tc),
                loc,
            ));
        }
        let mut num_iterations = ctx.read_var(&capture_decls[0], loc);
        for cd in &capture_decls[1..] {
            num_iterations = ctx.binary(
                BinOp::Mul,
                num_iterations,
                ctx.read_var(cd, loc),
                P::clone(&szt),
                loc,
            );
        }

        let iv = ctx.make_implicit_var(".omp.iv", P::clone(&szt), None, loc);
        let lb = ctx.make_implicit_var(".omp.lb", P::clone(&szt), None, loc);
        let ub = ctx.make_implicit_var(".omp.ub", P::clone(&szt), None, loc);
        let stride = ctx.make_implicit_var(".omp.stride", P::clone(&szt), None, loc);
        let is_last = ctx.make_implicit_var(".omp.is_last", ctx.int(), None, loc);

        let last_iteration = ctx.binary(
            BinOp::Sub,
            P::clone(&num_iterations),
            lit(1),
            P::clone(&szt),
            loc,
        );
        let precondition = ctx.binary(
            BinOp::Lt,
            lit(0),
            P::clone(&num_iterations),
            ctx.bool_ty(),
            loc,
        );
        let init = ctx.assign(ctx.decl_ref(&iv, loc), lit(0), loc);
        let cond = ctx.binary(
            BinOp::Lt,
            ctx.read_var(&iv, loc),
            P::clone(&num_iterations),
            ctx.bool_ty(),
            loc,
        );
        let inc = ctx.assign(
            ctx.decl_ref(&iv, loc),
            ctx.binary(
                BinOp::Add,
                ctx.read_var(&iv, loc),
                lit(1),
                P::clone(&szt),
                loc,
            ),
            loc,
        );
        let workshare_init = ctx.assign(ctx.decl_ref(&iv, loc), ctx.read_var(&lb, loc), loc);
        let workshare_cond = ctx.binary(
            BinOp::Le,
            ctx.read_var(&iv, loc),
            ctx.read_var(&ub, loc),
            ctx.bool_ty(),
            loc,
        );
        let ensure_upper_bound = ctx.assign(
            ctx.decl_ref(&ub, loc),
            ctx.min_expr(
                ctx.read_var(&ub, loc),
                P::clone(&last_iteration),
                P::clone(&szt),
                loc,
            ),
            loc,
        );
        let next_lower_bound = ctx.assign(
            ctx.decl_ref(&lb, loc),
            ctx.binary(
                BinOp::Add,
                ctx.read_var(&lb, loc),
                ctx.read_var(&stride, loc),
                P::clone(&szt),
                loc,
            ),
            loc,
        );
        let next_upper_bound = ctx.assign(
            ctx.decl_ref(&ub, loc),
            ctx.binary(
                BinOp::Add,
                ctx.read_var(&ub, loc),
                ctx.read_var(&stride, loc),
                P::clone(&szt),
                loc,
            ),
            loc,
        );

        // Per-loop helpers: recover each counter from the logical IV.
        let mut loops = Vec::with_capacity(levels.len());
        for (k, l) in levels.iter().enumerate() {
            let a = &l.analysis;
            // idx_k = (iv / Π_{j>k} tc_j) % tc_k
            let mut divisor: Option<P<Expr>> = None;
            for cd in capture_decls.iter().skip(k + 1) {
                let r = ctx.read_var(cd, loc);
                divisor = Some(match divisor {
                    None => r,
                    Some(d) => ctx.binary(BinOp::Mul, d, r, P::clone(&szt), loc),
                });
            }
            let mut idx = ctx.read_var(&iv, loc);
            if let Some(d) = divisor {
                idx = ctx.binary(BinOp::Div, idx, d, P::clone(&szt), loc);
            }
            // The outermost counter needs no `% tc_0`: iv < Π tc_j implies
            // iv / Π_{j>0} tc_j < tc_0 already. Skipping it keeps the
            // single-loop (depth-1) index a plain affine function of the
            // logical IV, which the bytecode widening pass can analyze.
            if k > 0 {
                idx = ctx.binary(
                    BinOp::Rem,
                    idx,
                    ctx.read_var(&capture_decls[k], loc),
                    P::clone(&szt),
                    loc,
                );
            }
            let update_val = a.user_value_expr(ctx, P::clone(&a.lb), idx);
            let update = ctx.assign(ctx.decl_ref(&a.iter_var, loc), update_val, loc);

            let init_k = ctx.assign(ctx.decl_ref(&a.iter_var, loc), P::clone(&a.lb), loc);
            let final_idx = ctx.read_var(&capture_decls[k], loc);
            let final_val = a.user_value_expr(ctx, P::clone(&a.lb), final_idx);
            let final_k = ctx.assign(ctx.decl_ref(&a.iter_var, loc), final_val, loc);
            let private_counter = ctx.make_implicit_var(
                format!(".omp.priv.{}", ctx.spelling(a.iter_var.name)),
                P::clone(&a.iter_var.ty),
                None,
                loc,
            );
            loops.push(PerLoopHelpers {
                counter: P::clone(&a.iter_var),
                private_counter,
                init: init_k,
                update,
                final_value: final_k,
                step: P::clone(&a.step),
            });
        }

        P::new(LoopDirectiveHelpers {
            iteration_variable: iv,
            num_iterations,
            last_iteration: P::clone(&last_iteration),
            calc_last_iteration: last_iteration,
            precondition,
            init,
            cond,
            inc,
            lower_bound: lb,
            upper_bound: ub,
            stride,
            is_last_iter_variable: is_last,
            workshare_init,
            workshare_cond,
            ensure_upper_bound,
            next_lower_bound,
            next_upper_bound,
            loops,
            capture_decls,
        })
    }
}

/// Records the size of a freshly built transformed (shadow) subtree — the
/// other half of the paper's §2 representation cost next to the helper
/// bundle counted in `act_on_loop_directive`.
fn count_transformed_nodes(t: &P<Stmt>) {
    if omplt_trace::active() {
        let s = omplt_ast::stmt_stats(t);
        omplt_trace::count(
            "sema.shadow.transformed_nodes",
            (s.visible_stmts + s.visible_exprs) as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sema::Sema;
    use omplt_ast::Decl;
    use omplt_source::{DiagnosticsEngine, SourceManager};
    use std::cell::RefCell;
    use OMPClauseKind as C;
    use OMPDirectiveKind as D;

    const LOC: SourceLocation = SourceLocation::INVALID;

    fn lit(s: &Sema, v: i128) -> P<Expr> {
        s.ctx.int_lit(v, s.ctx.int(), LOC)
    }

    fn null() -> P<Stmt> {
        Stmt::new(StmtKind::Null, LOC)
    }

    fn int_var(s: &Sema, name: &str) -> P<VarDecl> {
        s.ctx.make_var(name, s.ctx.int(), Some(lit(s, 0)), LOC)
    }

    /// `for (int iv = …; iv < ub; iv += step) body`, without the test when
    /// `cond` is false.
    fn for_stmt(
        s: &Sema,
        iv: &P<VarDecl>,
        ub: P<Expr>,
        step: i128,
        cond: bool,
        body: P<Stmt>,
    ) -> P<Stmt> {
        let ctx = &s.ctx;
        let test = ctx.binary(BinOp::Lt, ctx.read_var(iv, LOC), ub, ctx.bool_ty(), LOC);
        let inc = ctx.binary(
            BinOp::AddAssign,
            ctx.decl_ref(iv, LOC),
            lit(s, step),
            ctx.int(),
            LOC,
        );
        let init = Stmt::new(StmtKind::Decl(vec![Decl::Var(P::clone(iv))]), LOC);
        let kind = StmtKind::For {
            init: Some(init),
            cond: cond.then_some(test),
            inc: Some(inc),
            body,
        };
        Stmt::new(kind, LOC)
    }

    /// `for (int i = lb; i < ub; i += step) body`, `;` without one.
    fn mk_loop(s: &Sema, lb: i128, ub: i128, step: i128, body: Option<P<Stmt>>) -> P<Stmt> {
        let i = s.ctx.make_var("i", s.ctx.int(), Some(lit(s, lb)), LOC);
        for_stmt(s, &i, lit(s, ub), step, true, body.unwrap_or_else(null))
    }

    /// `for (int j = 0; j < ub; j += 1);` where `ub` reads `outer`, or is 8.
    fn j_loop(s: &Sema, outer: Option<&P<VarDecl>>, canonical: bool) -> P<Stmt> {
        let ub = outer.map_or_else(|| lit(s, 8), |v| s.ctx.read_var(v, LOC));
        for_stmt(s, &int_var(s, "j"), ub, 1, canonical, null())
    }

    /// A clause with integer arguments.
    fn clause(s: &Sema, kind: OMPClauseKind, args: &[i128]) -> P<OMPClause> {
        OMPClause::new(kind, args.iter().map(|&v| lit(s, v)).collect(), LOC)
    }

    /// `#pragma omp <kind> <clauses>` over `assoc`.
    fn directive(s: &mut Sema, kind: D, clauses: Vec<P<OMPClause>>, assoc: P<Stmt>) -> P<Stmt> {
        s.act_on_omp_directive(kind, clauses, Some(assoc), LOC)
    }

    /// The directive node `stmt` is.
    fn omp(stmt: &P<Stmt>) -> &P<OMPDirective> {
        let StmtKind::OMP(d) = &stmt.kind else {
            panic!("not a directive")
        };
        d
    }

    fn with_sema<R>(mode: OpenMpCodegenMode, f: impl FnOnce(&mut Sema) -> R) -> (R, Vec<String>) {
        let diags = DiagnosticsEngine::new();
        let sm = RefCell::new(SourceManager::new());
        let mut sema = Sema::new(&diags, &sm, mode, true);
        sema.scopes.push();
        let r = f(&mut sema);
        let msgs = diags.all().iter().map(|d| d.message.clone()).collect();
        (r, msgs)
    }

    /// What one directive over `mk_loop(0, 10, 1)` makes, classic mode.
    fn over_one_loop(kind: D, clauses: fn(&Sema) -> Vec<P<OMPClause>>) -> (P<Stmt>, Vec<String>) {
        with_sema(OpenMpCodegenMode::Classic, |s| {
            let (lp, clauses) = (mk_loop(s, 0, 10, 1, None), clauses(s));
            directive(s, kind, clauses, lp)
        })
    }

    /// What one directive over `mk_loop(0, 16, 1, mk_loop(0, 8, 1))` makes,
    /// classic mode.
    fn over_two_loops(kind: D, clauses: fn(&Sema) -> Vec<P<OMPClause>>) -> (P<Stmt>, Vec<String>) {
        with_sema(OpenMpCodegenMode::Classic, |s| {
            let inner = mk_loop(s, 0, 8, 1, None);
            let (outer, clauses) = (mk_loop(s, 0, 16, 1, Some(inner)), clauses(s));
            directive(s, kind, clauses, outer)
        })
    }

    #[test]
    fn unroll_partial_builds_shadow_ast() {
        let (stmt, msgs) = over_one_loop(D::Unroll, |s| vec![clause(s, C::Partial, &[2])]);
        assert!(msgs.is_empty(), "{msgs:?}");
        let d = omp(&stmt);
        assert!(
            d.get_transformed_stmt().is_some(),
            "partial unroll must build shadow AST"
        );
        assert_eq!(d.generated.len(), 1, "and generate a loop");
    }

    #[test]
    fn unroll_full_has_no_shadow_ast() {
        let (stmt, msgs) = over_one_loop(D::Unroll, |s| vec![clause(s, C::Full, &[])]);
        assert!(msgs.is_empty(), "{msgs:?}");
        let d = omp(&stmt);
        assert!(
            d.get_transformed_stmt().is_none(),
            "full unroll leaves no generated loop"
        );
        assert!(d.generated.is_empty());
        // The nest is kept with or without a shadow AST: CodeGen reads the
        // constant Sema required off it.
        assert_eq!(d.nest.len(), 1);
        assert_eq!(d.nest[0].analysis.const_trip_count(), Some(10));
        assert!(d.nest[0].loop_stmt.is_loop());
    }

    #[test]
    fn consuming_full_unroll_is_diagnosed() {
        // #pragma omp for over #pragma omp unroll full, or over a bare
        // #pragma omp unroll → C4, on both paths.
        let modes = [OpenMpCodegenMode::Classic, OpenMpCodegenMode::IrBuilder];
        for (mode, full) in modes.into_iter().flat_map(|m| [(m, true), (m, false)]) {
            let (_, msgs) = with_sema(mode, |s| {
                let lp = mk_loop(s, 0, 10, 1, None);
                let clauses = if full {
                    vec![clause(s, C::Full, &[])]
                } else {
                    vec![]
                };
                let inner = directive(s, D::Unroll, clauses, lp);
                directive(s, D::For, vec![], inner)
            });
            assert!(
                msgs.iter().any(|m| m.contains("does not generate a loop")),
                "{mode:?} full={full}: {msgs:?}"
            );
        }
    }

    #[test]
    fn consuming_partial_unroll_reanalyzes_generated_loop() {
        let ((stmt, generated_iv), msgs) = with_sema(OpenMpCodegenMode::Classic, |s| {
            let lp = mk_loop(s, 0, 10, 1, None);
            let inner = directive(s, D::Unroll, vec![clause(s, C::Partial, &[2])], lp);
            let stmt = directive(s, D::ParallelFor, vec![], inner);
            (stmt, s.ctx.intern(".unrolled.iv.i"))
        });
        assert!(msgs.is_empty(), "{msgs:?}");
        let d = omp(&stmt);
        assert!(
            d.loop_helpers.is_some(),
            "classic mode builds the helper bundle"
        );
        // associated is CapturedStmt wrapping the inner unroll directive
        let StmtKind::Captured(c) = &d.associated.as_ref().unwrap().kind else {
            panic!("worksharing must capture its region");
        };
        // The level the directive carries is the generated loop, behind the
        // shadow AST's `.capture_expr.` declaration: the unroll's record.
        assert_eq!(d.nest.len(), 1);
        assert_eq!(d.nest[0].prologue.len(), 1);
        assert_eq!(d.nest[0].analysis.iter_var.name, generated_iv);
        let unroll = omp(&c.decl.body);
        assert!(P::ptr_eq(
            &d.nest[0].loop_stmt,
            &unroll.generated[0].loop_stmt
        ));
    }

    #[test]
    fn tile_requires_sizes() {
        let (_, msgs) = over_one_loop(D::Tile, |_| vec![]);
        assert!(
            msgs.iter().any(|m| m.contains("requires a 'sizes'")),
            "{msgs:?}"
        );
    }

    #[test]
    fn tile_depth_2_collects_nested_loops() {
        let (stmt, msgs) = over_two_loops(D::Tile, |s| vec![clause(s, C::Sizes, &[4, 2])]);
        assert!(msgs.is_empty(), "{msgs:?}");
        let d = omp(&stmt);
        let t = d.get_transformed_stmt().unwrap();
        assert_eq!(crate::transform::count_generated_loops(t), 4);
        // Outermost first.
        let trips: Vec<_> = d
            .nest
            .iter()
            .map(|l| l.analysis.const_trip_count())
            .collect();
        assert_eq!(trips, [Some(16), Some(8)]);
    }

    #[test]
    fn insufficient_nest_depth_is_diagnosed() {
        // The body is a NullStmt, not a loop.
        let (stmt, msgs) = over_one_loop(D::Tile, |s| vec![clause(s, C::Sizes, &[4, 2])]);
        assert!(
            msgs.iter().any(|m| m.contains("must be a for loop")),
            "{msgs:?}"
        );
        let d = omp(&stmt);
        assert!(
            d.nest.is_empty() && d.below.is_empty(),
            "a refused nest leaves no level behind"
        );
    }

    /// `tile sizes(4, 2)` over `{ int t; for { int u; for } }`: the
    /// declaration beside the outermost loop is accepted, the one between
    /// the loops is refused, whichever representation is being built.
    #[test]
    fn only_the_outermost_level_may_have_siblings() {
        for mode in [OpenMpCodegenMode::Classic, OpenMpCodegenMode::IrBuilder] {
            for imperfect in [false, true] {
                let (_, msgs) = with_sema(mode, |s| {
                    let decl = |s: &Sema, name: &str| {
                        let v = s.ctx.make_var(name, s.ctx.int(), None, LOC);
                        Stmt::new(StmtKind::Decl(vec![Decl::Var(v)]), LOC)
                    };
                    let mut inner = mk_loop(s, 0, 8, 1, None);
                    if imperfect {
                        inner = Stmt::new(StmtKind::Compound(vec![decl(s, "u"), inner]), LOC);
                    }
                    let outer = mk_loop(s, 0, 16, 1, Some(inner));
                    let block = Stmt::new(StmtKind::Compound(vec![decl(s, "t"), outer]), LOC);
                    directive(s, D::Tile, vec![clause(s, C::Sizes, &[4, 2])], block)
                });
                let refused = msgs.iter().any(|m| {
                    m == "loop nest after '#pragma omp tile sizes(4, 2)' must be perfectly \
                          nested: statement is not part of the loop at depth 2"
                });
                assert_eq!(refused, imperfect, "{mode:?}: {msgs:?}");
                assert_eq!(msgs.len(), usize::from(imperfect), "{mode:?}: {msgs:?}");
            }
        }
    }

    #[test]
    fn the_walk_resolves_the_levels_below_a_directive() {
        // `#pragma omp for` over `for (i < 16) <below>`: the iteration
        // variables of its nest and of the levels the walk resolves below.
        type Below = fn(&mut Sema, &P<VarDecl>) -> P<Stmt>;
        let cases: [(&str, Below, &[&str]); 6] = [
            ("perfect", |s, _| j_loop(s, None, true), &["i", "j"]),
            (
                "intervening statement",
                |s, _| {
                    let decl = Stmt::new(StmtKind::Decl(vec![Decl::Var(int_var(s, "u"))]), LOC);
                    Stmt::new(StmtKind::Compound(vec![decl, j_loop(s, None, true)]), LOC)
                },
                &["i"],
            ),
            ("not canonical", |s, _| j_loop(s, None, false), &["i"]),
            ("bound reads i", |s, i| j_loop(s, Some(i), true), &["i"]),
            (
                "unroll full",
                |s, _| {
                    let lp = j_loop(s, None, true);
                    directive(s, D::Unroll, vec![clause(s, C::Full, &[])], lp)
                },
                &["i"],
            ),
            // The generated loop; the loop of its copies below is bounded
            // by the generated variable, so the walk stops there.
            (
                "consumed unroll partial",
                |s, _| {
                    let lp = j_loop(s, None, true);
                    directive(s, D::Unroll, vec![clause(s, C::Partial, &[2])], lp)
                },
                &["i", ".unrolled.iv.j"],
            ),
        ];
        for (what, below, expected) in cases {
            let (ivs, msgs) = with_sema(OpenMpCodegenMode::Classic, |s| {
                let i = int_var(s, "i");
                let body = below(s, &i);
                let outer = for_stmt(s, &i, lit(s, 16), 1, true, body);
                let stmt = directive(s, D::For, vec![], outer);
                let d = omp(&stmt);
                assert_eq!(d.nest.len(), 1, "{what}");
                let spell =
                    |l: &LoopNestLevel| s.ctx.spelling(l.analysis.iter_var.name).to_string();
                d.nest.iter().chain(&d.below).map(spell).collect::<Vec<_>>()
            });
            assert!(msgs.is_empty(), "{what}: {msgs:?}");
            assert_eq!(ivs, expected, "{what}");
        }
    }

    #[test]
    fn a_consumer_takes_the_generated_loops_in_order() {
        // `for collapse(k)` over `tile sizes(2, 2)`: the floor loops are
        // the tile's own records, the ones below the consumer's depth too.
        // The tile loop below the last one is bounded by its floor loop, so
        // the walk stops there.
        for k in 1..=2 {
            let ((taken, names), msgs) = with_sema(OpenMpCodegenMode::Classic, |s| {
                let nest = for_stmt(
                    s,
                    &int_var(s, "i"),
                    lit(s, 16),
                    1,
                    true,
                    j_loop(s, None, true),
                );
                let tile = directive(s, D::Tile, vec![clause(s, C::Sizes, &[2, 2])], nest);
                let stmt = directive(
                    s,
                    D::For,
                    vec![clause(s, C::Collapse, &[k])],
                    P::clone(&tile),
                );
                let (d, t) = (omp(&stmt), omp(&tile));
                assert_eq!(d.nest.len(), k as usize);
                let levels = d.nest.iter().chain(&d.below);
                let taken = levels
                    .clone()
                    .zip(&t.generated)
                    .all(|(l, g)| P::ptr_eq(&l.loop_stmt, &g.loop_stmt));
                let spell =
                    |l: &LoopNestLevel| s.ctx.spelling(l.analysis.iter_var.name).to_string();
                (taken, levels.map(spell).collect::<Vec<_>>())
            });
            assert!(msgs.is_empty(), "{msgs:?}");
            assert!(taken, "collapse({k})");
            assert_eq!(names, [".floor.iv.i", ".floor.iv.j"], "collapse({k})");
        }
    }

    #[test]
    fn irbuilder_mode_wraps_canonical_loop() {
        let (stmt, msgs) = with_sema(OpenMpCodegenMode::IrBuilder, |s| {
            let lp = mk_loop(s, 0, 10, 1, None);
            directive(s, D::Unroll, vec![clause(s, C::Partial, &[2])], lp)
        });
        assert!(msgs.is_empty(), "{msgs:?}");
        assert!(
            matches!(
                omp(&stmt).associated.as_ref().unwrap().kind,
                StmtKind::OMPCanonicalLoop(_)
            ),
            "IrBuilder mode must wrap the literal loop"
        );
    }

    #[test]
    fn classic_mode_helper_bundle_size_vs_canonical() {
        // The 36-vs-3 comparison (paper §3: "reduced from the 36 shadow AST
        // nodes required by OMPLoopDirective" to 3 meta items).
        let (stmt, _) = over_one_loop(D::For, |_| vec![]);
        let count = omp(&stmt).loop_helpers.as_ref().unwrap().node_count();
        assert_eq!(count, 17 + 6, "one loop: nest-wide 17 + 6 per-loop helpers");
        assert!(count > 7 * omplt_ast::OMPCanonicalLoop::META_NODE_COUNT);
    }

    #[test]
    fn wrong_clause_on_directive_is_diagnosed() {
        let (_, msgs) = over_one_loop(D::For, |s| vec![clause(s, C::Sizes, &[4])]);
        assert!(msgs.iter().any(|m| m.contains("not valid on")), "{msgs:?}");
    }

    #[test]
    fn interchange_default_swaps_two_loops() {
        let (stmt, msgs) = over_two_loops(D::Interchange, |_| vec![]);
        assert!(msgs.is_empty(), "{msgs:?}");
        let d = omp(&stmt);
        let t = d
            .get_transformed_stmt()
            .expect("interchange builds shadow AST");
        assert_eq!(crate::transform::count_generated_loops(t), 2);
        let trips: Vec<_> = d
            .generated
            .iter()
            .map(|l| l.analysis.const_trip_count())
            .collect();
        assert_eq!(trips, [Some(8), Some(16)], "the inner loop runs outermost");
    }

    #[test]
    fn interchange_permutation_must_be_valid() {
        let (_, msgs) =
            over_two_loops(D::Interchange, |s| vec![clause(s, C::Permutation, &[1, 3])]);
        assert!(
            msgs.iter().any(|m| m.contains("permutation of 1..2")),
            "{msgs:?}"
        );
    }

    #[test]
    fn interchange_permutation_on_wrong_directive_is_diagnosed() {
        let (_, msgs) = over_one_loop(D::Tile, |s| vec![clause(s, C::Permutation, &[2, 1])]);
        assert!(msgs.iter().any(|m| m.contains("not valid on")), "{msgs:?}");
    }

    #[test]
    fn reverse_builds_shadow_ast() {
        let (stmt, msgs) = over_one_loop(D::Reverse, |_| vec![]);
        assert!(msgs.is_empty(), "{msgs:?}");
        let t = omp(&stmt)
            .get_transformed_stmt()
            .expect("reverse builds shadow AST");
        assert_eq!(crate::transform::count_generated_loops(t), 1);
    }

    #[test]
    fn fuse_requires_two_loops() {
        let (_, msgs) = with_sema(OpenMpCodegenMode::Classic, |s| {
            let compound = Stmt::new(StmtKind::Compound(vec![mk_loop(s, 0, 10, 1, None)]), LOC);
            directive(s, D::Fuse, vec![], compound)
        });
        assert!(
            msgs.iter().any(|m| m.contains("at least two loops")),
            "{msgs:?}"
        );
    }

    #[test]
    fn fuse_builds_single_guarded_loop() {
        let (stmt, msgs) = with_sema(OpenMpCodegenMode::Classic, |s| {
            let (a, b) = (mk_loop(s, 0, 10, 1, None), mk_loop(s, 0, 6, 1, None));
            directive(
                s,
                D::Fuse,
                vec![],
                Stmt::new(StmtKind::Compound(vec![a, b]), LOC),
            )
        });
        assert!(msgs.is_empty(), "{msgs:?}");
        let d = omp(&stmt);
        let t = d.get_transformed_stmt().expect("fuse builds shadow AST");
        assert_eq!(crate::transform::count_generated_loops(t), 1);
        // The members of the sequence, in source order.
        let trips: Vec<_> = d
            .nest
            .iter()
            .map(|l| l.analysis.const_trip_count())
            .collect();
        assert_eq!(trips, [Some(10), Some(6)]);
    }

    #[test]
    fn consuming_interchange_reanalyzes_generated_loop() {
        // #pragma omp for over #pragma omp interchange: the worksharing
        // directive associates with the *generated* (permuted) outer loop.
        let (stmt, msgs) = with_sema(OpenMpCodegenMode::Classic, |s| {
            let inner = mk_loop(s, 0, 8, 1, None);
            let ic = directive(s, D::Interchange, vec![], mk_loop(s, 0, 16, 1, Some(inner)));
            directive(s, D::For, vec![], ic)
        });
        assert!(msgs.is_empty(), "{msgs:?}");
        assert!(omp(&stmt).loop_helpers.is_some());
    }

    #[test]
    fn openmp_disabled_passes_through() {
        let diags = DiagnosticsEngine::new();
        let sm = RefCell::new(SourceManager::new());
        let mut sema = Sema::new(&diags, &sm, OpenMpCodegenMode::Classic, false);
        sema.scopes.push();
        let lp = mk_loop(&sema, 0, 4, 1, None);
        let r = directive(&mut sema, D::ParallelFor, vec![], P::clone(&lp));
        assert!(
            P::ptr_eq(&r, &lp),
            "disabled OpenMP must return the bare statement"
        );
    }
}
