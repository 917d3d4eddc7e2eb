//! The `OMPCanonicalLoop` / OpenMPIRBuilder lowering path (paper §3):
//! CodeGen evaluates the Sema-provided *distance function* to obtain the
//! trip count, calls `create_canonical_loop` for the skeleton, emits the
//! *loop user value function* plus the loop body inside it, and hands the
//! resulting `CanonicalLoopInfo` handles to the transformation methods.
//!
//! Implementation status intentionally mirrors the paper's report for the
//! then-current Clang ("missing implementations for … loop nests with more
//! than one loop"). What `emit_omp_irbuilder` falls back to the classic
//! shadow-AST emission for (Sema still builds the shadow AST in this mode):
//! `tile` over more than one loop, `interchange`, `fuse`, and `reverse`
//! whose associated statement is not a literal loop (a nested
//! transformation). One-loop `tile`, `unroll`, `reverse` over a literal
//! loop, `simd`, `taskloop` and the worksharing directives use the
//! `CanonicalLoopInfo` operations. A `collapse(n > 1)` clause on those is a
//! warning: the construct applies to the outermost loop only.

use crate::cg_omp_classic::simd_metadata;
use crate::codegen::{ir_type, Binding, FnCodegen};
use omplt_ast::{
    CaptureKind, OMPCanonicalLoop, OMPClauseKind, OMPDirective, OMPDirectiveKind, ScheduleKind,
    Stmt, StmtKind, P,
};
use omplt_ir::{IrType, RtFn, Value};
use omplt_ompirb::{
    create_canonical_loop_skeleton, create_dynamic_workshare_loop, create_static_workshare_loop,
    reverse_loop, tile_loops, unroll_loop_full, unroll_loop_heuristic, unroll_loop_partial,
    CanonicalLoopInfo, DispatchLoopInfo, WorksharingScheme,
};

impl FnCodegen<'_, '_> {
    /// `--verify-each`: re-checks the canonical-skeleton invariants of the
    /// handle(s) a transformation returned. A transformation that hands back
    /// a malformed `CanonicalLoopInfo` would otherwise miscompile silently
    /// when the next consumer trusts the handle.
    fn verify_transformed(
        &mut self,
        what: &str,
        loc: omplt_source::SourceLocation,
        clis: &[CanonicalLoopInfo],
    ) {
        if !self.opts.verify_each {
            return;
        }
        for cli in clis {
            for msg in cli.check(&self.func) {
                self.diags.error(
                    loc,
                    format!("loop produced by '{what}' violates the canonical skeleton: {msg}"),
                );
            }
        }
    }

    /// IrBuilder-mode directive dispatch.
    pub(crate) fn emit_omp_irbuilder(&mut self, d: &P<OMPDirective>) {
        let Some(assoc) = d.associated.clone() else {
            return;
        };
        match d.kind {
            // `parallel` outlining is shared with the classic path — the
            // paper notes IR-level outlining "may also become unnecessary
            // with further adaption of OpenMPIRBuilder"; like Clang today,
            // the front-end still outlines (the worksharing *content*
            // inside still uses the IrBuilder path, selected by `opts.mode`).
            OMPDirectiveKind::Parallel
            | OMPDirectiveKind::ParallelFor
            | OMPDirectiveKind::ParallelForSimd => self.emit_omp_classic_parallel(d),
            OMPDirectiveKind::For | OMPDirectiveKind::ForSimd => {
                self.emit_workshare_irbuilder(d, &assoc)
            }
            OMPDirectiveKind::Simd => {
                if let Some(cli) = self.emit_associated_loop(d, &assoc) {
                    let md = simd_metadata(d, cli.metadata(&self.func).unwrap_or_default());
                    cli.set_metadata(&mut self.func, md);
                    self.cur = cli.after;
                }
            }
            OMPDirectiveKind::Taskloop => {
                let task_fn = self.module.declare_rt(RtFn::TaskCreated);
                if let Some(cli) = self.emit_associated_loop(d, &assoc) {
                    // Account one task per logical iteration: the unroll
                    // factor is observable through this count (paper §2.2).
                    self.func.prepend_inst(
                        cli.body,
                        omplt_ir::Inst::Call {
                            callee: omplt_ir::Callee(task_fn),
                            args: vec![],
                            ty: IrType::Void,
                        },
                    );
                    self.cur = cli.after;
                }
            }
            OMPDirectiveKind::Unroll => {
                let Some(cli) = self.emit_loop_construct(&assoc) else {
                    return;
                };
                self.cur = cli.after;
                let full = d.clause(OMPClauseKind::Full).is_some();
                let mut b = omplt_ir::IrBuilder::new(&mut self.func);
                b.set_insert_point(cli.after);
                if full {
                    unroll_loop_full(&mut b, &cli);
                } else if let Some(factor) = d.partial_factor() {
                    // Not consumed here → defer entirely to the mid-end.
                    unroll_loop_partial(&mut b, &cli, factor, false);
                } else {
                    unroll_loop_heuristic(&mut b, &cli);
                }
                self.verify_transformed("omp unroll", d.loc, &[cli]);
            }
            // A one-loop tile is the same CanonicalLoopInfo operation
            // whether or not another directive consumes the floor loop.
            OMPDirectiveKind::Tile if d.associated_loops() == 1 => {
                if let Some(floor) = self.emit_consumed_tile(d) {
                    self.cur = floor.after;
                }
            }
            OMPDirectiveKind::Reverse => match self.emit_loop_construct(&assoc) {
                Some(cli) => {
                    self.cur = cli.after;
                    let mut b = omplt_ir::IrBuilder::new(&mut self.func);
                    b.set_insert_point(cli.after);
                    let rev = reverse_loop(&mut b, &cli);
                    self.verify_transformed("omp reverse", d.loc, &[rev]);
                }
                // The associated statement was not a wrapped literal
                // loop (e.g. a nested transformation): emit the shadow
                // AST, which Sema always builds for reverse.
                None => self.emit_transformed_or_associated(d),
            },
            // Multi-loop constructs fall back to the shadow AST (the paper
            // reports "missing implementations for … loop nests with more
            // than one loop" on the IrBuilder path). The CanonicalLoopInfo
            // operations themselves live in omplt-ompirb for nests built
            // directly.
            OMPDirectiveKind::Tile | OMPDirectiveKind::Interchange | OMPDirectiveKind::Fuse => {
                self.emit_transformed_or_associated(d)
            }
        }
    }

    /// `--verify-each` hook for dispatch worksharing loops, mirroring
    /// [`FnCodegen::verify_transformed`] for [`DispatchLoopInfo`].
    fn verify_dispatch(
        &mut self,
        what: &str,
        loc: omplt_source::SourceLocation,
        dli: &DispatchLoopInfo,
    ) {
        if !self.opts.verify_each {
            return;
        }
        for msg in dli.check(&self.func) {
            self.diags.error(
                loc,
                format!("dispatch loop produced by '{what}' violates the dispatch skeleton: {msg}"),
            );
        }
    }

    /// Emits a worksharing loop: static schedules via
    /// `create_static_workshare_loop`, dispatch schedules (dynamic, guided,
    /// runtime) via `create_dynamic_workshare_loop` — both applied to the
    /// `CanonicalLoopInfo`, composing after tile/unroll (paper §3.2).
    pub(crate) fn emit_workshare_irbuilder(&mut self, d: &P<OMPDirective>, body: &P<Stmt>) {
        let saved = self.apply_data_sharing(d);
        let (sched, chunk_expr) = d.schedule();
        // Chunk values must dominate the whole construct — including the
        // dispatch/chunked setup block, which takes over the loop's incoming
        // edges — so evaluate them before emitting the loop.
        let chunk_v = chunk_expr.cloned().map(|e| {
            let v = self.emit_rvalue(&e);
            self.with_builder(|b| b.int_resize(v, IrType::I64, true))
        });
        let Some(mut cli) = self.emit_associated_loop(d, body) else {
            self.restore_data_sharing(d, saved);
            return;
        };
        let dispatch = matches!(
            sched,
            ScheduleKind::Dynamic | ScheduleKind::Guided | ScheduleKind::Runtime
        );
        let dli = {
            let mut b = omplt_ir::IrBuilder::new(&mut self.func);
            b.set_insert_point(cli.after);
            if dispatch {
                let scheme = match sched {
                    ScheduleKind::Dynamic => {
                        WorksharingScheme::DynamicChunked(chunk_v.unwrap_or(Value::i64(1)))
                    }
                    ScheduleKind::Guided => {
                        WorksharingScheme::GuidedChunked(chunk_v.unwrap_or(Value::i64(1)))
                    }
                    _ => WorksharingScheme::Runtime,
                };
                let dli = create_dynamic_workshare_loop(&mut b, self.module, &mut cli, scheme);
                self.cur = dli.after;
                Some(dli)
            } else {
                let scheme = match chunk_v {
                    Some(v) => WorksharingScheme::StaticChunked(v),
                    None => WorksharingScheme::StaticUnchunked,
                };
                let cont = create_static_workshare_loop(&mut b, self.module, &mut cli, scheme);
                self.cur = cont;
                None
            }
        };
        // Composite `for simd` / `parallel for simd`: after the workshare
        // transform, `cli` is the per-thread chunk loop — lanes run within
        // each thread's chunk, so the vectorize hint lands there.
        if d.kind.has_simd() {
            let md = simd_metadata(d, cli.metadata(&self.func).unwrap_or_default());
            cli.set_metadata(&mut self.func, md);
        }
        self.verify_transformed("omp for", d.loc, &[cli]);
        if let Some(dli) = &dli {
            self.verify_dispatch("omp for", d.loc, dli);
        }

        // Implicit end-of-construct barrier, elided by `nowait`.
        if d.clause(OMPClauseKind::Nowait).is_none() {
            let gtid_fn = self.module.declare_rt(RtFn::GlobalThreadNum);
            let barrier_fn = self.module.declare_rt(RtFn::Barrier);
            self.with_builder(|b| {
                let gtid = b.call(gtid_fn, vec![], IrType::I32);
                b.call(barrier_fn, vec![gtid], IrType::Void);
            });
        }
        self.restore_data_sharing(d, saved);
    }

    /// The handle of the loop a worksharing, `simd` or `taskloop`
    /// directive applies to. `collapse(n)` is not lowered on this path
    /// (`collapse_loops` is not wired): Sema wraps only the outermost loop
    /// in `OMPCanonicalLoop`, so the directive applies to that loop alone —
    /// said, not silently.
    fn emit_associated_loop(
        &mut self,
        d: &P<OMPDirective>,
        body: &P<Stmt>,
    ) -> Option<CanonicalLoopInfo> {
        if let Some(c) = d.clause(OMPClauseKind::Collapse) {
            let n = d.associated_loops();
            if n > 1 {
                self.diags.warning(
                    c.loc,
                    format!("'collapse({n})' is not supported by the IrBuilder path; the construct applies to the outermost loop only"),
                );
            }
        }
        self.emit_loop_construct(body)
    }

    /// Resolves a directive/loop stack bottom-up into a single
    /// [`CanonicalLoopInfo`]: `OMPCanonicalLoop` nodes emit skeletons;
    /// nested `unroll partial`/`tile` consume and return new handles —
    /// "in the case of loop transformations, the methods again return (one
    /// or more) CanonicalLoopInfos that can in turn again be used as
    /// handles" (paper §3.2).
    pub(crate) fn emit_loop_construct(&mut self, stmt: &P<Stmt>) -> Option<CanonicalLoopInfo> {
        match &stmt.kind {
            StmtKind::OMPCanonicalLoop(cl) => {
                let cl = P::clone(cl);
                Some(self.emit_canonical_loop(&cl))
            }
            StmtKind::Attributed { sub, .. } => {
                let sub = P::clone(sub);
                self.emit_loop_construct(&sub)
            }
            StmtKind::Captured(c) => {
                let body = P::clone(&c.decl.body);
                self.emit_loop_construct(&body)
            }
            StmtKind::OMP(d) if d.kind == OMPDirectiveKind::Unroll => {
                let d = P::clone(d);
                let assoc = d.associated.clone()?;
                // Only `unroll partial` generates a loop; Sema associates
                // nothing with `unroll full` or a bare `unroll`.
                let factor = d.partial_factor()?;
                let inner = self.emit_loop_construct(&assoc)?;
                let mut b = omplt_ir::IrBuilder::new(&mut self.func);
                b.set_insert_point(inner.after);
                // Consumed: a generated loop is required (paper §2.2/§3.2).
                let out = unroll_loop_partial(&mut b, &inner, factor, true);
                if let Some(generated) = out {
                    self.verify_transformed("omp unroll partial", d.loc, &[generated]);
                }
                out
            }
            StmtKind::OMP(d) if d.kind == OMPDirectiveKind::Tile => {
                let d = P::clone(d);
                if d.associated_loops() != 1 {
                    self.diags.warning(
                        d.loc,
                        "consumed multi-loop tile is not supported by the IrBuilder path; using the outer floor loop of a 1-D tiling",
                    );
                }
                self.emit_consumed_tile(&d)
            }
            // Interchange / reverse / fuse consumed by an outer directive:
            // Sema wrapped the trailing loop of the shadow AST in
            // `OMPCanonicalLoop`, so the generated loop is reached by
            // emitting the compound's prologue and recursing into its tail.
            StmtKind::OMP(d) if d.kind.is_loop_transformation() => {
                let t = d.get_transformed_stmt().cloned()?;
                self.emit_loop_construct(&t)
            }
            StmtKind::Compound(stmts) if !stmts.is_empty() => {
                // A transformed shadow compound (or a `{ decls…; loop }`
                // prologue): run the leading statements, the loop is last.
                let stmts = stmts.clone();
                let (last, lead) = stmts.split_last().unwrap();
                for s in lead {
                    self.emit_stmt(s);
                }
                let last = P::clone(last);
                self.emit_loop_construct(&last)
            }
            // A literal loop that Sema did not wrap (only possible when the
            // directive stack was malformed): nothing to hand back.
            _ => None,
        }
    }

    /// Tiles the loop under `tile` by its first size and returns the floor
    /// loop's handle.
    fn emit_consumed_tile(&mut self, d: &P<OMPDirective>) -> Option<CanonicalLoopInfo> {
        let assoc = d.associated.clone()?;
        let inner = self.emit_loop_construct(&assoc)?;
        let size = d.sizes().and_then(|s| s.first().copied()).unwrap_or(4);
        let mut b = omplt_ir::IrBuilder::new(&mut self.func);
        b.set_insert_point(inner.after);
        let tiled = tile_loops(&mut b, &[inner], &[Value::int(inner.ty, size as i64)]);
        self.verify_transformed("omp tile", d.loc, &tiled);
        tiled.first().copied()
    }

    /// Emits one `OMPCanonicalLoop`: the paper's §3.2 CodeGen sequence.
    pub(crate) fn emit_canonical_loop(&mut self, cl: &P<OMPCanonicalLoop>) -> CanonicalLoopInfo {
        // 1. Run the loop's init statement(s) so the iteration variable
        //    holds its start value.
        match &cl.loop_stmt.kind {
            StmtKind::For { init, .. } => {
                if let Some(i) = init.clone() {
                    self.emit_stmt(&i);
                }
            }
            StmtKind::CxxForRange(d) => {
                let (r, b_, e) = (
                    P::clone(&d.range_stmt),
                    P::clone(&d.begin_stmt),
                    P::clone(&d.end_stmt),
                );
                self.emit_stmt(&r);
                self.emit_stmt(&b_);
                self.emit_stmt(&e);
            }
            _ => {}
        }

        // 2. "Captures take place before the loop itself": snapshot the
        //    by-value captures of the loop user value function (the start
        //    value of the iteration variable).
        let mut snapshots: Vec<(omplt_ast::DeclId, Value)> = Vec::new();
        for cap in &cl.loop_var_fn.captures {
            if cap.kind == CaptureKind::ByValue {
                let var = P::clone(&cap.var);
                let cur_val = self.load_var(&var);
                let snap = self.scratch(
                    ir_type(&var.ty),
                    &format!(".snap.{}", self.idents.get(var.name)),
                );
                self.with_builder(|b| b.store(cur_val, snap));
                snapshots.push((var.id, snap));
            }
        }

        // 3. Call the distance function: bind its Result parameter to a
        //    scratch slot, emit the body, read the trip count.
        let dist_result = &cl.distance_fn.decl.params[0];
        let dist_slot = self.scratch(ir_type(&dist_result.ty), ".omp.distance");
        let saved_binding = self
            .bindings
            .insert(dist_result.id, Binding { addr: dist_slot });
        let dist_body = P::clone(&cl.distance_fn.decl.body);
        self.emit_stmt(&dist_body);
        match saved_binding {
            Some(b) => {
                self.bindings.insert(dist_result.id, b);
            }
            None => {
                self.bindings.remove(&dist_result.id);
            }
        }
        let tc_ty = ir_type(&dist_result.ty);
        let tc = self.with_builder(|b| b.load(tc_ty, dist_slot));

        // 4. The skeleton. `create_canonical_loop` counts its own; this is
        //    the one codegen builds for an `OMPCanonicalLoop` node.
        omplt_trace::count("ompirb.canonical_loops", 1);
        let cli = {
            let mut b = omplt_ir::IrBuilder::new(&mut self.func);
            b.set_insert_point(self.cur);
            create_canonical_loop_skeleton(&mut b, tc, "omp_canonical", true)
        };

        // 5. Body: call the loop user value function with the logical IV,
        //    then the user body.
        self.cur = cli.body;
        // __i parameter: materialize the IV in a slot.
        let params = &cl.loop_var_fn.decl.params;
        let (result_param, i_param) = if params.len() == 2 {
            (Some(P::clone(&params[0])), P::clone(&params[1]))
        } else {
            (None, P::clone(&params[0]))
        };
        let i_slot = self.scratch(ir_type(&i_param.ty), ".omp.logical");
        self.with_builder(|b| b.store(cli.iv(), i_slot));
        let saved_i = self.bindings.insert(i_param.id, Binding { addr: i_slot });
        // Result parameter → the user variable's storage.
        let saved_result = result_param.as_ref().map(|rp| {
            let user_addr = self.emit_lvalue(&cl.loop_var_ref);
            (
                rp.id,
                self.bindings.insert(rp.id, Binding { addr: user_addr }),
            )
        });
        // By-value snapshots shadow the live variables inside the lambda.
        let saved_snaps: Vec<_> = snapshots
            .iter()
            .map(|(id, snap)| (*id, self.bindings.insert(*id, Binding { addr: *snap })))
            .collect();
        let lv_body = P::clone(&cl.loop_var_fn.decl.body);
        self.emit_stmt(&lv_body);
        // Restore shadowed bindings (the user body must see the real vars).
        for (id, old) in saved_snaps {
            match old {
                Some(b) => {
                    self.bindings.insert(id, b);
                }
                None => {
                    self.bindings.remove(&id);
                }
            }
        }
        if let Some((rid, old)) = saved_result {
            match old {
                Some(b) => {
                    self.bindings.insert(rid, b);
                }
                None => {
                    self.bindings.remove(&rid);
                }
            }
        }
        match saved_i {
            Some(b) => {
                self.bindings.insert(i_param.id, b);
            }
            None => {
                self.bindings.remove(&i_param.id);
            }
        }

        // User body; `continue` jumps to the latch (break is rejected by
        // Sema's canonical-form check).
        let user_body = match &cl.loop_stmt.kind {
            StmtKind::For { body, .. } => P::clone(body),
            StmtKind::CxxForRange(d) => P::clone(&d.body),
            _ => P::clone(&cl.loop_stmt),
        };
        self.loop_stack.push((cli.after, cli.latch));
        self.emit_stmt(&user_body);
        self.loop_stack.pop();
        self.branch_if_open(cli.latch);
        self.cur = cli.after;
        cli
    }
}
