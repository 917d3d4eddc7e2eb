//! The `OMPCanonicalLoop` / OpenMPIRBuilder lowering path (paper §3).
//! Sema wraps every literal loop a directive associates with in an
//! `OMPCanonicalLoop`. CodeGen evaluates each level's *distance function*
//! in front of the nest, builds a perfect nest of skeletons with
//! `create_canonical_loop_skeleton`, and emits every level's *loop user
//! value function* at the top of the innermost body, then the user body:
//! the ompirb operations move only the innermost body region, as
//! OpenMPIRBuilder sinks its in-between code. The `CanonicalLoopInfo`
//! handles go to those operations. A transformation directive consumes the
//! handles of its associated loops and returns the ones it generates
//! (`tile_loops`, `interchange_loops`, `fuse_loops`, `reverse_loop`,
//! `unroll_loop_partial`), so a stack of them lowers bottom-up;
//! `collapse(n)` on `for`, `simd` and `taskloop` is `collapse_loops`.
//! Nothing on this path emits the shadow AST Sema still builds.

use crate::cg_omp_classic::simd_metadata;
use crate::codegen::{ir_type, Binding, FnCodegen};
use omplt_ast::{
    CaptureKind, DeclId, OMPCanonicalLoop, OMPClauseKind, OMPDirective, OMPDirectiveKind,
    ScheduleKind, Stmt, StmtKind, P,
};
use omplt_ir::{IrType, RtFn, Value};
use omplt_ompirb::{
    collapse_loops, create_canonical_loop_skeleton, create_dynamic_workshare_loop,
    create_static_workshare_loop, fuse_loops, interchange_loops, reverse_loop, tile_loops,
    unroll_loop_full, unroll_loop_heuristic, unroll_loop_partial, CanonicalLoopInfo,
    DispatchLoopInfo, WorksharingScheme,
};

impl FnCodegen<'_, '_> {
    /// `--verify-each`: re-checks the skeleton invariants of what a lowering
    /// step produced — the `CanonicalLoopInfo` handles `clis` a
    /// transformation returned, and the `DispatchLoopInfo` of a dispatch
    /// worksharing loop — and reports every violation at `loc`. A step that
    /// hands back a malformed skeleton would otherwise miscompile silently
    /// when the next consumer trusts it.
    fn verify_skeletons(
        &self,
        what: &str,
        loc: omplt_source::SourceLocation,
        clis: &[CanonicalLoopInfo],
        dli: Option<&DispatchLoopInfo>,
    ) {
        if !self.opts.verify_each {
            return;
        }
        let f = &self.func;
        let canonical =
            (clis.iter().flat_map(|cli| cli.check(f))).map(|m| ("loop", "canonical", m));
        let dispatch = (dli.into_iter().flat_map(|dli| dli.check(f)))
            .map(|m| ("dispatch loop", "dispatch", m));
        for (kind, skeleton, msg) in canonical.chain(dispatch) {
            self.diags.error(
                loc,
                format!("{kind} produced by '{what}' violates the {skeleton} skeleton: {msg}"),
            );
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
                }
            }
            // Not consumed: `unroll partial` defers entirely to the mid end.
            OMPDirectiveKind::Unroll => {
                let Some(&cli) = self.emit_loop_construct(&assoc, 1).first() else {
                    return;
                };
                let mut b = omplt_ir::IrBuilder::new(&mut self.func);
                b.set_insert_point(cli.after);
                if d.clause(OMPClauseKind::Full).is_some() {
                    unroll_loop_full(&mut b, &cli);
                } else if let Some(factor) = d.partial_factor() {
                    unroll_loop_partial(&mut b, &cli, factor, false);
                } else {
                    unroll_loop_heuristic(&mut b, &cli);
                }
                self.verify_skeletons("omp unroll", d.loc, &[cli], None);
            }
            OMPDirectiveKind::Tile
            | OMPDirectiveKind::Interchange
            | OMPDirectiveKind::Reverse
            | OMPDirectiveKind::Fuse => {
                self.emit_transformation(d);
            }
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
        self.verify_skeletons("omp for", d.loc, &[cli], dli.as_ref());

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
    /// directive applies to: the `collapse_loops` of the first `n` handles
    /// of its nest under `collapse(n)` — the first handle itself for `n = 1`.
    fn emit_associated_loop(
        &mut self,
        d: &P<OMPDirective>,
        body: &P<Stmt>,
    ) -> Option<CanonicalLoopInfo> {
        let n = d.nest.len();
        let loops = self.emit_loop_construct(body, n);
        let nest = loops.get(..n).filter(|l| !l.is_empty())?;
        let collapsed = collapse_loops(&mut omplt_ir::IrBuilder::new(&mut self.func), nest);
        self.verify_skeletons("collapse", d.loc, &[collapsed], None);
        Some(collapsed)
    }

    /// The loops `stmt` stands for, as handles, outermost first: an
    /// `OMPCanonicalLoop` starts a nest of `depth` levels, and a
    /// transformation directive returns the loops it generates — "in the
    /// case of loop transformations, the methods again return (one or more)
    /// CanonicalLoopInfos that can in turn again be used as handles" (paper
    /// §3.2). The construct continues at the first handle's `after` block.
    pub(crate) fn emit_loop_construct(
        &mut self,
        stmt: &P<Stmt>,
        depth: usize,
    ) -> Vec<CanonicalLoopInfo> {
        let stmt = self.enter_level(stmt);
        match &stmt.kind {
            StmtKind::OMPCanonicalLoop(_) => self.emit_canonical_nest(&stmt, depth),
            StmtKind::OMP(d) => self.emit_transformation(&P::clone(d)),
            _ => Vec::new(),
        }
    }

    /// The statement a nest level stands for, past the outlining and the
    /// blocks around it; a block's leading statements (the declarations
    /// Sema allows beside the outermost loop) run first.
    fn enter_level(&mut self, stmt: &P<Stmt>) -> P<Stmt> {
        match &stmt.kind {
            StmtKind::Captured(c) => self.enter_level(&P::clone(&c.decl.body)),
            StmtKind::Compound(stmts) if !stmts.is_empty() => {
                let stmts = stmts.clone();
                let (last, lead) = stmts.split_last().expect("a non-empty block");
                for s in lead {
                    self.emit_stmt(s);
                }
                self.enter_level(last)
            }
            _ => P::clone(stmt),
        }
    }

    /// Lowers a transformation directive: it consumes the handles of the
    /// loops it is associated with and returns the ones it generates.
    fn emit_transformation(&mut self, d: &P<OMPDirective>) -> Vec<CanonicalLoopInfo> {
        let Some(assoc) = d.associated.clone() else {
            return Vec::new();
        };
        let depth = d.nest.len();
        let loops = match &assoc.kind {
            // A loop sequence: one loop per member, each member's setup
            // behind the loop before it.
            StmtKind::Compound(members) if d.kind == OMPDirectiveKind::Fuse => {
                let members = members.clone();
                let first = |m| self.emit_loop_construct(m, 1).first().copied();
                members.iter().filter_map(first).collect()
            }
            _ => self.emit_loop_construct(&assoc, depth),
        };
        let Some(loops) = loops.get(..depth).filter(|l| !l.is_empty()) else {
            return Vec::new();
        };
        let mut b = omplt_ir::IrBuilder::new(&mut self.func);
        let generated = match d.kind {
            // Consumed: a generated loop is required (paper §2.2/§3.2).
            OMPDirectiveKind::Unroll => d
                .partial_factor()
                .and_then(|factor| unroll_loop_partial(&mut b, &loops[0], factor, true))
                .into_iter()
                .collect(),
            OMPDirectiveKind::Tile => {
                let sizes = d.sizes().unwrap_or_default().into_iter().zip(loops);
                let sizes: Vec<_> = sizes.map(|(s, l)| Value::int(l.ty, s as i64)).collect();
                tile_loops(&mut b, loops, &sizes)
            }
            OMPDirectiveKind::Interchange => d
                .permutation()
                .map_or_else(|_| Vec::new(), |p| interchange_loops(&mut b, loops, &p)),
            OMPDirectiveKind::Reverse => vec![reverse_loop(&mut b, &loops[0])],
            OMPDirectiveKind::Fuse => vec![fuse_loops(&mut b, loops)],
            _ => Vec::new(),
        };
        if let Some(first) = generated.first() {
            self.cur = first.after;
        }
        self.verify_skeletons(&format!("omp {}", d.kind.name()), d.loc, &generated, None);
        generated
    }

    /// Emits the perfect nest of `depth` loops that starts with the
    /// `OMPCanonicalLoop` `stmt` (paper §3.2's CodeGen sequence, per
    /// level). Every level's prelude — its iteration variable's start, the
    /// by-value captures, the distance function — runs in front of the
    /// nest; then one skeleton per level, each in the body of the one
    /// before. A transformation directive standing for the levels below is
    /// emitted in front as well, and its loops are moved into the innermost
    /// skeleton. The loop user value functions run at the top of the
    /// innermost body, in front of the user body.
    fn emit_canonical_nest(&mut self, stmt: &P<Stmt>, depth: usize) -> Vec<CanonicalLoopInfo> {
        let mut levels = Vec::with_capacity(depth);
        let mut inner = Vec::new();
        let mut s = P::clone(stmt);
        loop {
            let StmtKind::OMPCanonicalLoop(cl) = &s.kind else {
                inner = self.emit_loop_construct(&s, depth - levels.len());
                break;
            };
            let cl = P::clone(cl);
            let (tc, snapshots) = self.emit_prelude(&cl);
            let body = user_body(&cl);
            levels.push((cl, tc, snapshots));
            if levels.len() >= depth {
                break;
            }
            s = self.enter_level(&body);
        }

        // The skeletons. `create_canonical_loop` counts its own; these are
        // the ones codegen builds for `OMPCanonicalLoop` nodes.
        let mut loops: Vec<CanonicalLoopInfo> = Vec::with_capacity(depth);
        for &(_, tc, _) in &levels {
            omplt_trace::count("ompirb.canonical_loops", 1);
            let mut b = omplt_ir::IrBuilder::new(&mut self.func);
            b.set_insert_point(self.cur);
            let cli = create_canonical_loop_skeleton(&mut b, tc, "omp_canonical", true);
            if let Some(outer) = loops.last() {
                b.br(outer.latch);
            }
            self.cur = cli.body;
            loops.push(cli);
        }
        let Some(&outermost) = loops.first() else {
            return inner;
        };

        // The user value functions, then the user body — or the loops of
        // the directive below, behind a block that computes them first.
        let innermost = loops[loops.len() - 1];
        let resume = (!inner.is_empty()).then(|| {
            let mut b = omplt_ir::IrBuilder::new(&mut self.func);
            inner[0].nest_into(&mut b, innermost.body, innermost.latch);
            let last = inner.last_mut().expect("the directive's loops");
            let body = last.body;
            self.cur = last.prepend_body_block(&mut b, "omp_canonical.values");
            body
        });
        for ((cl, _, snapshots), cli) in levels.iter().zip(&loops) {
            self.emit_user_value(cl, cli.iv(), snapshots);
        }
        match resume {
            Some(body) => self.branch_if_open(body),
            None => {
                // `continue` jumps to the latch (break is rejected by
                // Sema's canonical-form check).
                let (cl, ..) = &levels[levels.len() - 1];
                self.loop_stack.push((innermost.after, innermost.latch));
                self.emit_stmt(&user_body(cl));
                self.loop_stack.pop();
                self.branch_if_open(innermost.latch);
            }
        }
        self.cur = outermost.after;
        loops.extend(inner);
        loops
    }

    /// What an `OMPCanonicalLoop` runs in front of its loop, the paper's
    /// §3.2 steps before the skeleton: the init statement(s), so the
    /// iteration variable holds its start value; the snapshots of the loop
    /// user value function's by-value captures ("captures take place before
    /// the loop itself"); and the distance function's trip count. Returns
    /// the trip count and the snapshots' slots, by the variable each stands
    /// for.
    fn emit_prelude(&mut self, cl: &P<OMPCanonicalLoop>) -> (Value, Vec<(DeclId, Value)>) {
        match &cl.loop_stmt.kind {
            StmtKind::For { init: Some(i), .. } => self.emit_stmt(i),
            StmtKind::CxxForRange(d) => {
                for s in [&d.range_stmt, &d.begin_stmt, &d.end_stmt] {
                    self.emit_stmt(s);
                }
            }
            _ => {}
        }

        let mut snapshots: Vec<(DeclId, Value)> = Vec::new();
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

        // Call the distance function: bind its Result parameter to a
        // scratch slot, emit the body, read the trip count.
        let dist_result = &cl.distance_fn.decl.params[0];
        let dist_slot = self.scratch(ir_type(&dist_result.ty), ".omp.distance");
        let saved_binding = self
            .bindings
            .insert(dist_result.id, Binding { addr: dist_slot });
        let dist_body = P::clone(&cl.distance_fn.decl.body);
        self.emit_stmt(&dist_body);
        self.restore_binding(dist_result.id, saved_binding);
        let tc_ty = ir_type(&dist_result.ty);
        (self.with_builder(|b| b.load(tc_ty, dist_slot)), snapshots)
    }

    /// Calls the loop user value function with the logical IV `iv`: the
    /// user variable gets the value of this iteration.
    fn emit_user_value(
        &mut self,
        cl: &P<OMPCanonicalLoop>,
        iv: Value,
        snapshots: &[(DeclId, Value)],
    ) {
        // __i parameter (the last one): materialize the IV in a slot.
        let params = &cl.loop_var_fn.decl.params;
        let i_param = P::clone(params.last().expect("the __i parameter"));
        let result_param = (params.len() == 2).then(|| P::clone(&params[0]));
        let i_slot = self.scratch(ir_type(&i_param.ty), ".omp.logical");
        self.with_builder(|b| b.store(iv, i_slot));
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
            self.restore_binding(id, old);
        }
        if let Some((rid, old)) = saved_result {
            self.restore_binding(rid, old);
        }
        self.restore_binding(i_param.id, saved_i);
    }

    /// Puts back the binding `id` had before it was shadowed.
    fn restore_binding(&mut self, id: DeclId, old: Option<Binding>) {
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

/// The user body of a canonical loop.
fn user_body(cl: &OMPCanonicalLoop) -> P<Stmt> {
    match &cl.loop_stmt.kind {
        StmtKind::For { body, .. } => P::clone(body),
        StmtKind::CxxForRange(d) => P::clone(&d.body),
        _ => P::clone(&cl.loop_stmt),
    }
}
