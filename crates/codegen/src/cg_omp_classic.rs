//! Classic OpenMP lowering (paper §2): front-end "early outlining" of
//! `parallel` regions, worksharing emitted from the `OMPLoopDirective`
//! shadow helper expressions ("a significant portion of the code generation
//! already takes place when creating the AST"), and transformation
//! directives that either emit their Sema-built transformed AST or defer to
//! the mid-end via loop metadata.

use crate::codegen::{ir_type, Binding, FnCodegen};
use omplt_ast::{
    ClauseModifier, DeclId, LoopNestLevel, OMPClauseKind, OMPDirective, OMPDirectiveKind,
    OpenMpCodegenMode, ReductionOp, ScheduleKind, Stmt, StmtKind, P,
};
use omplt_ir::{
    BlockId, Function, IrType, LoopMetadata, RtFn, SchedType, SymbolId, UnrollHint, Value,
};

/// What an outlined function's body contains.
enum OutlinedContent<'a> {
    /// Just the captured body (`parallel`).
    PlainBody,
    /// A workshared loop (`parallel for`).
    Workshare(&'a P<OMPDirective>),
}

impl FnCodegen<'_, '_> {
    /// Classic-mode directive dispatch.
    pub(crate) fn emit_omp_classic(&mut self, d: &P<OMPDirective>) {
        match d.kind {
            OMPDirectiveKind::Parallel
            | OMPDirectiveKind::ParallelFor
            | OMPDirectiveKind::ParallelForSimd => self.emit_omp_classic_parallel(d),
            OMPDirectiveKind::For | OMPDirectiveKind::ForSimd => {
                let saved = self.apply_data_sharing(d);
                self.emit_workshared_loop(d);
                self.restore_data_sharing(d, saved);
            }
            OMPDirectiveKind::Simd => self.emit_logical_loop(d, LoopFlavor::Simd),
            OMPDirectiveKind::Taskloop => self.emit_logical_loop(d, LoopFlavor::Taskloop),
            OMPDirectiveKind::Unroll => self.emit_unroll_classic(d),
            // "If encountering a non-associated tile construct, CodeGen
            // will simply emit the transformed AST in its place" (§2.2).
            // Interchange/reverse/fuse follow the same rule; an illegal
            // use is rejected by the dependence analysis, never lowered
            // differently here.
            OMPDirectiveKind::Tile
            | OMPDirectiveKind::Interchange
            | OMPDirectiveKind::Reverse
            | OMPDirectiveKind::Fuse => self.emit_transformed_or_associated(d),
        }
    }

    /// Emits the directive's shadow AST in its place — or, when Sema built
    /// none (the nest was already diagnosed), the associated statement.
    fn emit_transformed_or_associated(&mut self, d: &P<OMPDirective>) {
        if let Some(s) = d.get_transformed_stmt().or(d.associated.as_ref()) {
            self.emit_stmt(&P::clone(s));
        }
    }

    /// Top-level `unroll` (not consumed by another directive): "it is more
    /// efficient to defer unrolling to the LoopUnroll pass by attaching
    /// `llvm.loop.unroll.*` metadata to the loop without even tiling the
    /// loop beforehand" (§2.2).
    fn emit_unroll_classic(&mut self, d: &P<OMPDirective>) {
        let md = LoopMetadata::unroll(if d.clause(OMPClauseKind::Full).is_some() {
            UnrollHint::Full
        } else if let Some(factor) = d.partial_factor() {
            UnrollHint::Count(factor)
        } else {
            // Heuristic mode: the pass chooses.
            UnrollHint::Enable
        });
        // The associated loop as Sema resolved it, looking through
        // wrappers and inner transformation directives.
        match d.nest.first() {
            Some(level) => self.emit_canonical_for(level, md),
            None => self.emit_transformed_or_associated(d),
        }
    }

    /// Outlines the captured region and emits the `__kmpc_fork_call`.
    /// (`parallel` runs the body; `parallel for` workshares inside,
    /// dispatching by codegen mode.)
    pub(crate) fn emit_omp_classic_parallel(&mut self, d: &P<OMPDirective>) {
        let content = if d.kind.is_worksharing() {
            OutlinedContent::Workshare(d)
        } else {
            OutlinedContent::PlainBody
        };
        let Some(assoc) = &d.associated else { return };
        let StmtKind::Captured(cs) = &assoc.kind else {
            // Should not happen (Sema always captures); degrade gracefully.
            let a = P::clone(assoc);
            self.emit_stmt(&a);
            return;
        };
        let cs = P::clone(cs);

        // num_threads clause is evaluated in the caller, before the fork.
        let num_threads = d
            .clause(OMPClauseKind::NumThreads)
            .and_then(|c| c.args.first().cloned())
            .map(|e| self.emit_rvalue(&e));

        // Build the outlined function:
        // void name(i32 gtid, i32 btid, ptr cap0, …)
        let name = self.outlined_name();
        let mut params = vec![IrType::I32, IrType::I32];
        params.extend(std::iter::repeat_n(IrType::Ptr, cs.captures.len()));
        let sub_fn = Function::new(&name, params, IrType::Void);
        {
            let mut sub = FnCodegen::new(
                &mut *self.module,
                self.diags,
                self.opts,
                self.globals,
                self.idents,
                sub_fn,
            );
            sub.outlined_counter = self.outlined_counter * 64 + 1;
            // Captured variables arrive by reference: the argument IS the
            // variable's address.
            for (i, cap) in cs.captures.iter().enumerate() {
                sub.bindings.insert(
                    cap.var.id,
                    Binding {
                        addr: Value::Arg(2 + i as u32),
                    },
                );
            }
            let saved = sub.apply_data_sharing(d);
            match content {
                OutlinedContent::PlainBody => {
                    sub.emit_stmt(&cs.decl.body);
                }
                OutlinedContent::Workshare(dir) => match sub.opts.mode {
                    OpenMpCodegenMode::Classic => sub.emit_workshared_loop(dir),
                    OpenMpCodegenMode::IrBuilder => {
                        sub.emit_workshare_irbuilder(dir, &cs.decl.body)
                    }
                },
            }
            sub.restore_data_sharing(d, saved);
            if sub.func.block(sub.cur).term.is_none() {
                sub.with_builder(|b| b.ret(None));
            }
            for bl in &mut sub.func.blocks {
                if bl.term.is_none() {
                    bl.term = Some(omplt_ir::Terminator::Unreachable);
                }
            }
            let finished =
                std::mem::replace(&mut sub.func, Function::new("<done>", vec![], IrType::Void));
            let nested = std::mem::take(&mut sub.pending_outlined);
            drop(sub);
            self.pending_outlined.push(finished);
            self.pending_outlined.extend(nested);
        }

        // Caller side: collect capture addresses and fork.
        let outlined_sym = self.sym(&name);
        let mut cap_ptrs = Vec::with_capacity(cs.captures.len());
        for cap in &cs.captures {
            let addr = match self.bindings.get(&cap.var.id) {
                Some(b) => b.addr,
                None => {
                    if let Some(&sym) = self.globals.get(&cap.var.id) {
                        Value::Global(sym)
                    } else {
                        let s = self.slot_for(&cap.var);
                        self.bindings.insert(cap.var.id, Binding { addr: s });
                        s
                    }
                }
            };
            cap_ptrs.push(addr);
        }
        let n = cap_ptrs.len();
        // Borrow func and module as separate fields so the OpenMPIRBuilder
        // helper can intern runtime symbols while building.
        let mut b = omplt_ir::IrBuilder::new(&mut self.func);
        b.set_insert_point(self.cur);
        omplt_ompirb::create_parallel(
            &mut b,
            self.module,
            omplt_ompirb::OutlinedFn {
                sym: outlined_sym,
                num_captures: n,
            },
            cap_ptrs,
            num_threads,
        );
        self.cur = b.insert_block();
    }

    /// Emits the workshared loop from the directive's shadow helper bundle
    /// (classic `EmitOMPWorksharingLoop`). Static schedules (chunked or
    /// not) go through `__kmpc_for_static_init` and the chunk loop built
    /// from `next_lower_bound`/`next_upper_bound`; dynamic, guided, and
    /// runtime schedules go through the `__kmpc_dispatch_*` protocol
    /// (init → while(next) → inner chunk loop → fini).
    pub(crate) fn emit_workshared_loop(&mut self, d: &P<OMPDirective>) {
        let Some(h) = d.loop_helpers.clone() else {
            // No helpers (e.g. malformed loop already diagnosed).
            return;
        };
        let Some((prologues, body)) = associated_nest(d) else {
            return;
        };
        let (sched, chunk) = d.schedule();
        // `auto` is implementation-defined; we pick static. Everything else
        // non-static is served by the dispatch runtime.
        let dispatch = matches!(
            sched,
            ScheduleKind::Dynamic | ScheduleKind::Guided | ScheduleKind::Runtime
        );

        // Prologues (inner transformed-AST capture declarations) first,
        // then the helper bundle's own capture declarations.
        for p in &prologues {
            self.emit_stmt(p);
        }
        for cd in &h.capture_decls {
            self.emit_var_decl(cd, &[]);
        }
        for v in [
            &h.iteration_variable,
            &h.lower_bound,
            &h.upper_bound,
            &h.stride,
            &h.is_last_iter_variable,
        ] {
            self.emit_var_decl(v, &[]);
        }
        for l in &h.loops {
            // The original counters become locals of the region.
            let slot = self.slot_for(&l.counter);
            self.bindings.insert(l.counter.id, Binding { addr: slot });
        }

        let n = self.emit_rvalue(&h.num_iterations);
        let last = self.emit_rvalue(&h.last_iteration);

        let gtid_fn = self.module.declare_rt(RtFn::GlobalThreadNum);
        // gtid is computed before the precondition guard so the
        // end-of-construct barrier (in the merge block) can use it.
        let gtid = self.with_builder(|b| b.call(gtid_fn, vec![], IrType::I32));

        // Precondition guard: skip everything when there are no iterations.
        let pre = self.emit_rvalue(&h.precondition);
        let (work_bb, done_bb) = self.with_builder(|b| {
            let work = b.create_block("omp.precond.then");
            let done = b.create_block("omp.precond.end");
            b.cond_br(pre, work, done);
            (work, done)
        });
        self.cur = work_bb;

        // lb = 0; ub = last; stride = 1; is_last = 0
        self.store_var(&h.lower_bound, Value::i64(0));
        self.store_var(&h.upper_bound, last);
        self.store_var(&h.stride, Value::i64(1));
        self.store_var(&h.is_last_iter_variable, Value::i32(0));
        let _ = n;

        let plast = self.bindings[&h.is_last_iter_variable.id].addr;
        let plb = self.bindings[&h.lower_bound.id].addr;
        let pub_ = self.bindings[&h.upper_bound.id].addr;
        let pstride = self.bindings[&h.stride.id].addr;
        let chunk_v = match chunk {
            Some(e) => {
                let v = self.emit_rvalue(&P::clone(e));
                self.with_builder(|b| b.int_resize(v, IrType::I64, true))
            }
            // Dispatch defaults: chunk 1 for dynamic/guided; runtime gets
            // its chunk from OMP_SCHEDULE (argument is ignored).
            None if dispatch => Value::i64(if sched == ScheduleKind::Runtime { 0 } else { 1 }),
            None => Value::i64(0),
        };

        // Composite `for simd` / `parallel for simd`: mark the inner chunk
        // loop vectorizable — chunks distribute across the team, lanes run
        // within each thread's chunk.
        let simd_md = d
            .kind
            .has_simd()
            .then(|| simd_metadata(d, LoopMetadata::default()));
        if dispatch {
            self.emit_dispatch_workshare(
                &h, &body, gtid, last, chunk_v, sched, plast, plb, pub_, pstride, simd_md,
            );
        } else {
            self.emit_static_workshare(
                &h,
                &body,
                gtid,
                last,
                chunk_v,
                chunk.is_some(),
                plast,
                plb,
                pub_,
                pstride,
                simd_md,
            );
        }

        self.branch_if_open(done_bb);
        self.cur = done_bb;

        // Implicit end-of-construct barrier (outside the precondition guard
        // so every team member reaches it), elided by `nowait`.
        if d.clause(OMPClauseKind::Nowait).is_none() {
            let barrier_fn = self.module.declare_rt(RtFn::Barrier);
            self.with_builder(|b| {
                b.call(barrier_fn, vec![gtid], IrType::Void);
            });
        }
    }

    /// Static-schedule body of [`FnCodegen::emit_workshared_loop`]:
    /// `__kmpc_for_static_init` + the chunk loop.
    #[allow(clippy::too_many_arguments)]
    fn emit_static_workshare(
        &mut self,
        h: &P<omplt_ast::LoopDirectiveHelpers>,
        body: &P<Stmt>,
        gtid: Value,
        last: Value,
        chunk_v: Value,
        chunked: bool,
        plast: Value,
        plb: Value,
        pub_: Value,
        pstride: Value,
        simd_md: Option<LoopMetadata>,
    ) {
        let init_fn = self.module.declare_rt(RtFn::ForStaticInit);
        let fini_fn = self.module.declare_rt(RtFn::ForStaticFini);

        let sched_const = if chunked {
            SchedType::StaticChunked
        } else {
            SchedType::Static
        }
        .value();
        self.with_builder(|b| {
            b.call(
                init_fn,
                vec![
                    gtid,
                    sched_const,
                    plast,
                    plb,
                    pub_,
                    pstride,
                    Value::i64(1),
                    chunk_v,
                ],
                IrType::Void,
            );
        });

        // Chunk loop (executes once for unchunked: stride == trip count):
        //   while (lb <= last) { ub = min(ub, last);
        //     for (iv = lb; iv <= ub; ++iv) { counters; body }
        //     lb += stride; ub += stride; }
        let (chunk_cond, chunk_body, chunk_inc, chunk_end) = self.with_builder(|b| {
            (
                b.create_block("omp.dispatch.cond"),
                b.create_block("omp.dispatch.body"),
                b.create_block("omp.dispatch.inc"),
                b.create_block("omp.dispatch.end"),
            )
        });
        self.branch_if_open(chunk_cond);
        self.cur = chunk_cond;
        let lb_now = self.load_var(&h.lower_bound);
        let still = self.with_builder(|b| b.cmp(omplt_ir::CmpPred::Ule, lb_now, last));
        self.with_builder(|b| b.cond_br(still, chunk_body, chunk_end));

        self.cur = chunk_body;
        self.emit_rvalue(&h.ensure_upper_bound);
        // Inner worksharing loop from the helper expressions.
        self.emit_rvalue(&h.workshare_init);
        self.emit_helper_loop(h, body, Some((chunk_inc, chunk_end)), None, simd_md);

        self.emit_rvalue(&h.next_lower_bound);
        self.emit_rvalue(&h.next_upper_bound);
        self.with_builder(|b| b.br(chunk_cond));

        self.cur = chunk_end;
        self.with_builder(|b| {
            b.call(fini_fn, vec![gtid], IrType::Void);
        });
    }

    /// Dispatch-schedule body of [`FnCodegen::emit_workshared_loop`]:
    ///
    /// ```text
    ///   __kmpc_dispatch_init_8(gtid, sched, 0, last, 1, chunk)
    /// omp.dispatch.cond:
    ///   while (__kmpc_dispatch_next_8(gtid, &last?, &lb, &ub, &stride)) {
    /// omp.dispatch.body:
    ///     for (iv = lb; iv <= ub; ++iv) { counters; body }   // inner chunk
    ///   }
    /// omp.dispatch.end:
    ///   __kmpc_dispatch_fini_8(gtid)
    /// ```
    #[allow(clippy::too_many_arguments)]
    fn emit_dispatch_workshare(
        &mut self,
        h: &P<omplt_ast::LoopDirectiveHelpers>,
        body: &P<Stmt>,
        gtid: Value,
        last: Value,
        chunk_v: Value,
        sched: ScheduleKind,
        plast: Value,
        plb: Value,
        pub_: Value,
        pstride: Value,
        simd_md: Option<LoopMetadata>,
    ) {
        let init_fn = self.module.declare_rt(RtFn::DispatchInit8);
        let next_fn = self.module.declare_rt(RtFn::DispatchNext8);
        let fini_fn = self.module.declare_rt(RtFn::DispatchFini8);

        let sched_const = match sched {
            ScheduleKind::Dynamic => SchedType::DynamicChunked,
            ScheduleKind::Guided => SchedType::GuidedChunked,
            _ => SchedType::Runtime,
        }
        .value();
        self.with_builder(|b| {
            b.call(
                init_fn,
                vec![
                    gtid,
                    sched_const,
                    Value::i64(0),
                    last,
                    Value::i64(1),
                    chunk_v,
                ],
                IrType::Void,
            );
        });

        let (disp_cond, disp_body, disp_end) = self.with_builder(|b| {
            (
                b.create_block("omp.dispatch.cond"),
                b.create_block("omp.dispatch.body"),
                b.create_block("omp.dispatch.end"),
            )
        });
        self.branch_if_open(disp_cond);
        self.cur = disp_cond;
        self.with_builder(|b| {
            let got = b.call(next_fn, vec![gtid, plast, plb, pub_, pstride], IrType::I32);
            let more = b.cmp(omplt_ir::CmpPred::Ne, got, Value::i32(0));
            b.cond_br(more, disp_body, disp_end);
        });

        self.cur = disp_body;
        // Inner chunk loop over the claimed [lb, ub] span.
        self.emit_rvalue(&h.workshare_init);
        self.emit_helper_loop(h, body, Some((disp_cond, disp_end)), None, simd_md);

        self.cur = disp_end;
        self.with_builder(|b| {
            b.call(fini_fn, vec![gtid], IrType::Void);
        });
    }

    /// Serial logical-IV loop used by `simd` (vectorize metadata) and
    /// `taskloop` (per-iteration task accounting).
    fn emit_logical_loop(&mut self, d: &P<OMPDirective>, flavor: LoopFlavor) {
        let Some(h) = d.loop_helpers.clone() else {
            return;
        };
        let Some((prologues, body)) = associated_nest(d) else {
            return;
        };
        let saved = self.apply_data_sharing(d);
        for p in &prologues {
            self.emit_stmt(p);
        }
        for cd in &h.capture_decls {
            self.emit_var_decl(cd, &[]);
        }
        self.emit_var_decl(&h.iteration_variable, &[]);
        for l in &h.loops {
            let slot = self.slot_for(&l.counter);
            self.bindings.insert(l.counter.id, Binding { addr: slot });
        }
        let task_fn =
            (flavor == LoopFlavor::Taskloop).then(|| self.module.declare_rt(RtFn::TaskCreated));

        self.emit_rvalue(&h.init); // iv = 0
        let md = match flavor {
            LoopFlavor::Simd => simd_metadata(d, LoopMetadata::default()),
            LoopFlavor::Taskloop => LoopMetadata::default(),
        };
        self.emit_helper_loop(&h, &body, None, task_fn, Some(md));
        self.restore_data_sharing(d, saved);
    }

    /// The inner loop of a classic loop directive, from the helper bundle:
    ///
    /// ```text
    /// cond: if (cond) goto body; else goto exit;
    /// body: [task_fn();] counters from the logical IV; body
    /// inc:  ++iv; goto cond;            // the latch, carrying `md`
    /// ```
    ///
    /// With `chunk_of = Some((exit, break_to))` this is one chunk of a
    /// worksharing loop (`workshare_cond`, bounded by the chunk's `ub`),
    /// leaving to `exit` and sending `break` to `break_to`. With `None` it
    /// is the whole logical iteration space (`cond`) and leaves to a fresh
    /// end block. The insertion point is left at the block the loop exits to.
    fn emit_helper_loop(
        &mut self,
        h: &omplt_ast::LoopDirectiveHelpers,
        body: &P<Stmt>,
        chunk_of: Option<(BlockId, BlockId)>,
        task_fn: Option<SymbolId>,
        md: Option<LoopMetadata>,
    ) {
        let (names, cond) = match chunk_of {
            Some(_) => (
                [
                    "omp.inner.for.cond",
                    "omp.inner.for.body",
                    "omp.inner.for.inc",
                ],
                &h.workshare_cond,
            ),
            None => (["omp.simd.cond", "omp.simd.body", "omp.simd.inc"], &h.cond),
        };
        let [cond_bb, body_bb, inc_bb] = self.with_builder(|b| names.map(|n| b.create_block(n)));
        let (exit, break_to) = chunk_of.unwrap_or_else(|| {
            let end = self.with_builder(|b| b.create_block("omp.simd.end"));
            (end, end)
        });
        self.branch_if_open(cond_bb);
        self.cur = cond_bb;
        let c = self.emit_rvalue(cond);
        self.with_builder(|b| b.cond_br(c, body_bb, exit));
        self.cur = body_bb;
        if let Some(tf) = task_fn {
            self.with_builder(|b| {
                b.call(tf, vec![], IrType::Void);
            });
        }
        // Recover the user counters from the logical IV, then run the body.
        for l in &h.loops {
            self.emit_rvalue(&l.update);
        }
        self.loop_stack.push((break_to, inc_bb));
        self.emit_stmt(body);
        self.loop_stack.pop();
        self.branch_if_open(inc_bb);
        self.cur = inc_bb;
        self.emit_rvalue(&h.inc);
        self.with_builder(|b| match md {
            Some(md) => b.br_with_md(cond_bb, md),
            None => b.br(cond_bb),
        });
        self.cur = exit;
    }

    // ---------------- data-sharing clauses ----------------

    /// Applies `private` / `firstprivate` / `reduction` rebinding. Returns
    /// the saved bindings for [`FnCodegen::restore_data_sharing`].
    pub(crate) fn apply_data_sharing(
        &mut self,
        d: &P<OMPDirective>,
    ) -> Vec<(DeclId, Option<Binding>, Option<Value>)> {
        let mut saved = Vec::new();
        let clauses = d.clauses.clone();
        for c in &clauses {
            match (c.kind, c.modifier) {
                (OMPClauseKind::Private | OMPClauseKind::FirstPrivate, _) => {
                    let first = c.kind == OMPClauseKind::FirstPrivate;
                    for ve in &c.args {
                        let Some(v) = ve.as_decl_ref() else { continue };
                        let v = P::clone(v);
                        let old = self.bindings.get(&v.id).copied();
                        let old_addr = old
                            .map(|b| b.addr)
                            .or_else(|| self.globals.get(&v.id).map(|&s| Value::Global(s)));
                        let fresh = self.scratch(
                            ir_type(&v.ty),
                            &format!(".priv.{}", self.idents.get(v.name)),
                        );
                        if first {
                            if let Some(oa) = old_addr {
                                let ty = ir_type(&v.ty);
                                self.with_builder(|b| {
                                    let val = b.load(ty, oa);
                                    b.store(val, fresh);
                                });
                            }
                        }
                        self.bindings.insert(v.id, Binding { addr: fresh });
                        saved.push((v.id, old, None));
                    }
                }
                (OMPClauseKind::Reduction, ClauseModifier::Reduction(op)) => {
                    for ve in &c.args {
                        let Some(v) = ve.as_decl_ref() else { continue };
                        let v = P::clone(v);
                        let old = self.bindings.get(&v.id).copied();
                        let shared_addr = old
                            .map(|b| b.addr)
                            .or_else(|| self.globals.get(&v.id).map(|&s| Value::Global(s)));
                        let fresh = self
                            .scratch(ir_type(&v.ty), &format!(".red.{}", self.idents.get(v.name)));
                        let ty = ir_type(&v.ty);
                        // Sema admits `+` and `*` only: the identity is 0 or 1.
                        let one = i64::from(op == ReductionOp::Mul);
                        let identity = if ty.is_float() {
                            Value::float(ty, one as f64)
                        } else {
                            Value::int(ty, one)
                        };
                        self.with_builder(|b| b.store(identity, fresh));
                        self.bindings.insert(v.id, Binding { addr: fresh });
                        saved.push((v.id, old, shared_addr));
                    }
                }
                _ => {}
            }
        }
        saved
    }

    /// Restores bindings and combines reductions atomically.
    pub(crate) fn restore_data_sharing(
        &mut self,
        d: &P<OMPDirective>,
        saved: Vec<(DeclId, Option<Binding>, Option<Value>)>,
    ) {
        // Find the reduction ops again (for the combine).
        let mut red_op = std::collections::HashMap::new();
        for c in &d.clauses {
            if let ClauseModifier::Reduction(op) = c.modifier {
                for ve in &c.args {
                    if let Some(v) = ve.as_decl_ref() {
                        red_op.insert(v.id, (op, P::clone(&v.ty)));
                    }
                }
            }
        }
        for (id, old, shared) in saved {
            if let (Some(shared_addr), Some((op, ty))) = (shared, red_op.get(&id)) {
                let ity = ir_type(ty);
                let local_addr = self.bindings[&id].addr;
                // The row names the combine *and* the variable's width, so
                // the runtime's read-modify-write touches exactly its bytes.
                let f = self.module.declare_rt(match (op, ity) {
                    (ReductionOp::Add, IrType::I32) => RtFn::AtomicAddI32,
                    (ReductionOp::Add, IrType::I64) => RtFn::AtomicAddI64,
                    (ReductionOp::Add, IrType::F32) => RtFn::AtomicAddF32,
                    (ReductionOp::Add, IrType::F64) => RtFn::AtomicAddF64,
                    (ReductionOp::Mul, IrType::I32) => RtFn::AtomicMulI32,
                    (ReductionOp::Mul, IrType::I64) => RtFn::AtomicMulI64,
                    (ReductionOp::Mul, IrType::F32) => RtFn::AtomicMulF32,
                    (ReductionOp::Mul, IrType::F64) => RtFn::AtomicMulF64,
                    _ => unreachable!("Sema rejects '{}' over {ity:?}", op.name()),
                });
                self.with_builder(|b| {
                    let v = b.load(ity, local_addr);
                    let v = if ity.is_float() {
                        if ity == IrType::F32 {
                            b.cast(omplt_ir::CastOp::FpExt, v, IrType::F64)
                        } else {
                            v
                        }
                    } else {
                        b.int_resize(v, IrType::I64, true)
                    };
                    b.call(f, vec![shared_addr, v], IrType::Void);
                });
            }
            match old {
                Some(b) => {
                    self.bindings.insert(id, b);
                }
                None => {
                    self.bindings.remove(&id);
                }
            }
        }
    }
}

#[derive(PartialEq, Clone, Copy)]
enum LoopFlavor {
    Simd,
    Taskloop,
}

/// The associated nest as codegen needs it: everything to run before the
/// loops (every level's prologue) and the innermost body with the levels'
/// bindings — read off the nest Sema resolved, which is the one the helper
/// bundle's expressions refer to.
fn associated_nest(d: &OMPDirective) -> Option<(Vec<P<Stmt>>, P<Stmt>)> {
    let body = (!d.nest.is_empty()).then(|| LoopNestLevel::innermost_body(&d.nest))?;
    let hoisted = d.nest.iter().flat_map(|l| &l.prologue).cloned();
    Some((hoisted.collect(), body))
}

/// The loop metadata a `simd`-bearing directive hangs on its (innermost)
/// latch: `base` plus `vectorize.enable`, `safelen` = min(the clause, the
/// lanes the legality gate proved) and the clause's `simdlen` — the caps the
/// widening pass honours without re-checking. A loop the gate bounded below
/// two lanes, or never judged, keeps `base`: it runs scalar.
pub(crate) fn simd_metadata(d: &OMPDirective, base: LoopMetadata) -> LoopMetadata {
    let lanes = d.simd_lanes.get().unwrap_or(0);
    if lanes < 2 {
        return base;
    }
    let cap = |v: u64| u8::try_from(v).unwrap_or(u8::MAX);
    let safelen = d
        .clause_value(OMPClauseKind::Safelen)
        .map_or(lanes, |s| s.min(lanes));
    LoopMetadata {
        vectorize_enable: true,
        safelen: if safelen == u64::MAX { 0 } else { cap(safelen) },
        simdlen: d.clause_value(OMPClauseKind::Simdlen).map_or(0, cap),
        ..base
    }
}
