//! `create_static_workshare_loop` / `create_dynamic_workshare_loop` — apply
//! the worksharing-loop construct to a canonical loop (paper §3.2:
//! "`createWorkshareLoop` … implements the worksharing-loop construct" on a
//! `CanonicalLoopInfo` handle).
//!
//! Static schedules bracket the loop with `__kmpc_for_static_init` /
//! `__kmpc_for_static_fini` and re-bound the logical iteration space to the
//! calling thread's chunk. Dynamic, guided, and runtime schedules wrap the
//! loop in the dispatch protocol: `__kmpc_dispatch_init_8`, a `while
//! (__kmpc_dispatch_next_8(…))` head that re-bounds the canonical loop to
//! each claimed chunk, and `__kmpc_dispatch_fini_8` on exhaustion. Both
//! compose after tile/unroll because they only consume the skeleton handle.
//! Every entry point is declared from its row of the runtime-function table
//! ([`omplt_ir::RtFn`]) and every schedule number is an
//! [`omplt_ir::SchedType`], as in the classic lowering — the two paths
//! cannot disagree about a signature.

use crate::canonical_loop::{
    create_canonical_loop_skeleton, redirect_edges, rewrite_region_uses, CanonicalLoopInfo,
};
use omplt_ir::{
    BlockId, CmpPred, Function, Inst, IrBuilder, IrType, Module, RtFn, SchedType, Terminator, Value,
};

/// Which worksharing scheme to apply.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WorksharingScheme {
    /// `schedule(static)` — one contiguous block per thread.
    StaticUnchunked,
    /// `schedule(static, chunk)` — round-robin chunks of the given size.
    StaticChunked(Value),
    /// `schedule(dynamic[, chunk])` — first-come-first-served chunks.
    DynamicChunked(Value),
    /// `schedule(guided[, chunk])` — exponentially shrinking chunks.
    GuidedChunked(Value),
    /// `schedule(runtime)` — resolved from `OMP_SCHEDULE` by the runtime.
    Runtime,
}

/// Applies static worksharing to `cli`.
///
/// Must be called directly after the loop was created, while `cli.after` is
/// still empty: chunked scheduling wraps the loop in an outer chunk loop and
/// returns the new continuation block where code after the construct must be
/// emitted (for the unchunked scheme this is simply `cli.after`).
pub fn create_static_workshare_loop(
    b: &mut IrBuilder<'_>,
    m: &mut Module,
    cli: &mut CanonicalLoopInfo,
    scheme: WorksharingScheme,
) -> BlockId {
    omplt_trace::count("ompirb.workshare.static", 1);
    let gtid_fn = m.declare_rt(RtFn::GlobalThreadNum);
    let init_fn = m.declare_rt(RtFn::ForStaticInit);
    let fini_fn = m.declare_rt(RtFn::ForStaticFini);

    match scheme {
        WorksharingScheme::StaticUnchunked => apply_unchunked(b, cli, gtid_fn, init_fn, fini_fn),
        WorksharingScheme::StaticChunked(chunk) => {
            apply_chunked(b, cli, chunk, gtid_fn, init_fn, fini_fn)
        }
        WorksharingScheme::DynamicChunked(_)
        | WorksharingScheme::GuidedChunked(_)
        | WorksharingScheme::Runtime => {
            panic!("dispatch schedules go through create_dynamic_workshare_loop")
        }
    }
}

/// Emits the init call and loads the resulting bounds. Returns
/// `(gtid, lb, ub, stride slot)`: `lb` and `ub` as `i64` values, `gtid` as
/// an `i32`. Only the chunked schedule reads the stride, so only it loads
/// the slot.
fn emit_static_init(
    b: &mut IrBuilder<'_>,
    cli: &CanonicalLoopInfo,
    sched: SchedType,
    chunk: Value,
    gtid_fn: omplt_ir::SymbolId,
    init_fn: omplt_ir::SymbolId,
) -> (Value, Value, Value, Value) {
    let gtid = b.call(gtid_fn, vec![], IrType::I32);
    let plast = b.alloca(IrType::I32, 1, ".omp.is_last");
    let plb = b.alloca(IrType::I64, 1, ".omp.lb");
    let pub_ = b.alloca(IrType::I64, 1, ".omp.ub");
    let pstride = b.alloca(IrType::I64, 1, ".omp.stride");
    let tc64 = b.int_resize(cli.trip_count, IrType::I64, false);
    b.store(Value::i32(0), plast);
    b.store(Value::i64(0), plb);
    let last = b.sub(tc64, Value::i64(1));
    b.store(last, pub_);
    b.store(Value::i64(1), pstride);
    let chunk64 = b.int_resize(chunk, IrType::I64, false);
    b.call(
        init_fn,
        vec![
            gtid,
            sched.value(),
            plast,
            plb,
            pub_,
            pstride,
            Value::i64(1),
            chunk64,
        ],
        IrType::Void,
    );
    let lb = b.load(IrType::I64, plb);
    let ub = b.load(IrType::I64, pub_);
    (gtid, lb, ub, pstride)
}

/// Shifts the body's view of the IV by `offset` (in the IV type): prepends
/// `shifted = iv + offset` to the body entry and rewrites all other body
/// uses of the IV.
fn shift_body_iv(b: &mut IrBuilder<'_>, cli: &CanonicalLoopInfo, offset: Value) {
    let region = cli.body_region(b.func());
    let shifted = b.func_mut().prepend_inst(
        cli.body,
        Inst::Bin {
            op: omplt_ir::BinOpKind::Add,
            lhs: cli.iv(),
            rhs: offset,
        },
    );
    rewrite_region_uses(b.func_mut(), &region, &[(cli.iv(), shifted)]);
    // The add itself still reads the IV.
    let Value::Inst(add) = shifted else {
        unreachable!("a prepended instruction is an instruction")
    };
    if let Inst::Bin { lhs, .. } = b.func_mut().inst_mut(add) {
        *lhs = cli.iv();
    }
}

fn apply_unchunked(
    b: &mut IrBuilder<'_>,
    cli: &mut CanonicalLoopInfo,
    gtid_fn: omplt_ir::SymbolId,
    init_fn: omplt_ir::SymbolId,
    fini_fn: omplt_ir::SymbolId,
) -> BlockId {
    let saved = b.insert_block();

    b.set_insert_point(cli.preheader);
    let (gtid, lb, ub, _) =
        emit_static_init(b, cli, SchedType::Static, Value::i64(0), gtid_fn, init_fn);
    // span = ub + 1 - lb  (0 when the thread got an empty range: ub = lb - 1)
    let ubp1 = b.add(ub, Value::i64(1));
    let span = b.sub(ubp1, lb);
    let span_n = b.int_resize(span, cli.ty, false);
    cli.set_trip_count(b.func_mut(), span_n);

    let lb_n = b.int_resize(lb, cli.ty, false);
    shift_body_iv(b, cli, lb_n);

    b.set_insert_point(cli.exit);
    b.call(fini_fn, vec![gtid], IrType::Void);

    b.set_insert_point(saved);
    cli.after
}

fn apply_chunked(
    b: &mut IrBuilder<'_>,
    cli: &mut CanonicalLoopInfo,
    chunk: Value,
    gtid_fn: omplt_ir::SymbolId,
    init_fn: omplt_ir::SymbolId,
    fini_fn: omplt_ir::SymbolId,
) -> BlockId {
    // A new setup block takes over every edge into the loop's preheader.
    let setup = b.create_block("omp_ws.setup");
    let pre = cli.preheader;
    redirect_edges(b.func_mut(), pre, setup);

    b.set_insert_point(setup);
    let (gtid, lb0, _ub0, pstride) =
        emit_static_init(b, cli, SchedType::StaticChunked, chunk, gtid_fn, init_fn);
    let stride = b.load(IrType::I64, pstride);
    let tc64 = b.int_resize(cli.trip_count, IrType::I64, false);
    let chunk64 = b.int_resize(chunk, IrType::I64, false);
    // Number of chunks this thread executes:
    //   remaining = max(0, tc - lb0);  n_chunks = ceildiv(remaining, stride)
    let rem_raw = b.sub(tc64, lb0);
    let has_any = b.cmp(omplt_ir::CmpPred::Ult, lb0, tc64);
    let rem = b.select(has_any, rem_raw, Value::i64(0));
    let remm1 = b.sub(rem, Value::i64(1));
    let d = b.udiv(remm1, stride);
    let dp1 = b.add(d, Value::i64(1));
    let zero = Value::i64(0);
    let is_zero = b.cmp(omplt_ir::CmpPred::Eq, rem, zero);
    let n_chunks = b.select(is_zero, zero, dp1);

    // Outer chunk loop wrapping the canonical loop.
    let outer = create_canonical_loop_skeleton(b, n_chunks, "ws_chunks", false);
    b.func_mut().block_mut(setup).term = Some(Terminator::Br {
        target: outer.preheader,
        loop_md: None,
    });

    // Per-chunk bounds in the outer body, then enter the original loop.
    b.set_insert_point(outer.body);
    let off = b.mul(outer.iv(), stride);
    let chunk_start = b.add(lb0, off);
    let left = b.sub(tc64, chunk_start);
    let span64 = b.umin(chunk64, left);
    let span = b.int_resize(span64, cli.ty, false);
    cli.set_trip_count(b.func_mut(), span);
    b.func_mut().block_mut(outer.body).term = Some(Terminator::Br {
        target: pre,
        loop_md: None,
    });

    // The loop's after returns to the chunk latch; execution continues at
    // the outer after.
    b.func_mut().block_mut(cli.after).term = Some(Terminator::Br {
        target: outer.latch,
        loop_md: None,
    });

    let start_n = b.int_resize(chunk_start, cli.ty, false);
    shift_body_iv(b, cli, start_n);

    b.set_insert_point(outer.exit);
    b.call(fini_fn, vec![gtid], IrType::Void);

    b.set_insert_point(outer.after);
    outer.after
}

/// Handle to a dispatch (dynamic/guided/runtime) worksharing loop: the
/// blocks of the `init → while(next) → chunk → fini` protocol wrapped
/// around the canonical loop, plus the wrapped loop's entry/continuation so
/// [`DispatchLoopInfo::check`] can verify the stitching.
#[derive(Clone, Copy, Debug)]
pub struct DispatchLoopInfo {
    /// Takes over the canonical loop's incoming edges; calls
    /// `__kmpc_dispatch_init_8`.
    pub setup: BlockId,
    /// Dispatch head: calls `__kmpc_dispatch_next_8` and branches to
    /// `chunk_setup` (got a chunk) or `fini` (exhausted).
    pub head: BlockId,
    /// Loads the claimed bounds, re-bounds the canonical loop, and enters
    /// its preheader.
    pub chunk_setup: BlockId,
    /// Calls `__kmpc_dispatch_fini_8`; leaves to `after`.
    pub fini: BlockId,
    /// Continuation: code after the construct is emitted here.
    pub after: BlockId,
    /// The wrapped canonical loop's preheader (entered from `chunk_setup`).
    pub inner_preheader: BlockId,
    /// The wrapped canonical loop's after block (branches back to `head`).
    pub inner_after: BlockId,
    init_sym: omplt_ir::SymbolId,
    next_sym: omplt_ir::SymbolId,
    fini_sym: omplt_ir::SymbolId,
}

impl DispatchLoopInfo {
    /// Re-validates the dispatch-loop skeleton invariants, returning one
    /// message per violation (the `--verify-each` hook for dispatch loops,
    /// mirroring [`CanonicalLoopInfo::check`]).
    pub fn check(&self, func: &Function) -> Vec<String> {
        let mut errs = Vec::new();
        let calls = |bb: BlockId, sym: omplt_ir::SymbolId| {
            func.block(bb)
                .insts
                .iter()
                .any(|&i| matches!(func.inst(i), Inst::Call { callee, .. } if callee.0 == sym))
        };
        if !calls(self.setup, self.init_sym) {
            errs.push("setup must call __kmpc_dispatch_init_8".into());
        }
        match &func.block(self.setup).term {
            Some(Terminator::Br { target, .. }) if *target == self.head => {}
            other => errs.push(format!("setup must branch to the head, got {other:?}")),
        }
        if !calls(self.head, self.next_sym) {
            errs.push("head must call __kmpc_dispatch_next_8".into());
        }
        match &func.block(self.head).term {
            Some(Terminator::CondBr {
                then_bb, else_bb, ..
            }) => {
                if *then_bb != self.chunk_setup {
                    errs.push(format!(
                        "head true edge must enter chunk setup, goes to {then_bb:?}"
                    ));
                }
                if *else_bb != self.fini {
                    errs.push(format!(
                        "head false edge must leave to fini, goes to {else_bb:?}"
                    ));
                }
            }
            other => errs.push(format!(
                "head must end in a conditional branch, got {other:?}"
            )),
        }
        match &func.block(self.chunk_setup).term {
            Some(Terminator::Br { target, .. }) if *target == self.inner_preheader => {}
            other => errs.push(format!(
                "chunk setup must enter the wrapped loop's preheader, got {other:?}"
            )),
        }
        match &func.block(self.inner_after).term {
            Some(Terminator::Br { target, .. }) if *target == self.head => {}
            other => errs.push(format!(
                "wrapped loop's after must branch back to the head, got {other:?}"
            )),
        }
        if !calls(self.fini, self.fini_sym) {
            errs.push("fini must call __kmpc_dispatch_fini_8".into());
        }
        match &func.block(self.fini).term {
            Some(Terminator::Br { target, .. }) if *target == self.after => {}
            other => errs.push(format!("fini must branch to after, got {other:?}")),
        }
        errs
    }

    /// Panicking wrapper around [`DispatchLoopInfo::check`].
    pub fn assert_ok(&self, func: &Function) {
        let errs = self.check(func);
        assert!(
            errs.is_empty(),
            "dispatch loop '{:?}' violates skeleton invariants:\n  {}",
            self.head,
            errs.join("\n  ")
        );
    }
}

/// Applies a dispatch schedule (dynamic/guided/runtime) to `cli`:
///
/// ```text
///  setup:        __kmpc_dispatch_init_8(gtid, sched, 0, tc-1, 1, chunk)
///  head:         while (__kmpc_dispatch_next_8(gtid, &last?, &lb, &ub, &st))
///  chunk_setup:    re-bound the canonical loop to [lb, ub], shift its IV
///                  <canonical loop runs, then returns to head>
///  fini:         __kmpc_dispatch_fini_8(gtid)
///  after:        continuation
/// ```
///
/// Same calling convention as [`create_static_workshare_loop`]: apply while
/// `cli.after` is still empty; code after the construct goes to the returned
/// info's `after` block. Composes after tile/unroll (§3.2) because only the
/// skeleton handle is consumed.
pub fn create_dynamic_workshare_loop(
    b: &mut IrBuilder<'_>,
    m: &mut Module,
    cli: &mut CanonicalLoopInfo,
    scheme: WorksharingScheme,
) -> DispatchLoopInfo {
    omplt_trace::count("ompirb.workshare.dynamic", 1);
    let (sched, chunk) = match scheme {
        WorksharingScheme::DynamicChunked(c) => (SchedType::DynamicChunked, c),
        WorksharingScheme::GuidedChunked(c) => (SchedType::GuidedChunked, c),
        // The runtime reads OMP_SCHEDULE; the chunk argument is ignored.
        WorksharingScheme::Runtime => (SchedType::Runtime, Value::i64(0)),
        WorksharingScheme::StaticUnchunked | WorksharingScheme::StaticChunked(_) => {
            panic!("static schedules go through create_static_workshare_loop")
        }
    };
    let gtid_fn = m.declare_rt(RtFn::GlobalThreadNum);
    let init_fn = m.declare_rt(RtFn::DispatchInit8);
    let next_fn = m.declare_rt(RtFn::DispatchNext8);
    let fini_fn = m.declare_rt(RtFn::DispatchFini8);

    // The setup block takes over every edge into the loop's preheader.
    let setup = b.create_block("omp_ws.dispatch.setup");
    let pre = cli.preheader;
    redirect_edges(b.func_mut(), pre, setup);
    let head = b.create_block("omp_ws.dispatch.head");
    let chunk_setup = b.create_block("omp_ws.dispatch.chunk");
    let fini = b.create_block("omp_ws.dispatch.fini");
    let after = b.create_block("omp_ws.dispatch.after");

    b.set_insert_point(setup);
    let gtid = b.call(gtid_fn, vec![], IrType::I32);
    let plast = b.alloca(IrType::I32, 1, ".omp.is_last");
    let plb = b.alloca(IrType::I64, 1, ".omp.lb");
    let pub_ = b.alloca(IrType::I64, 1, ".omp.ub");
    let pstride = b.alloca(IrType::I64, 1, ".omp.stride");
    let tc64 = b.int_resize(cli.trip_count, IrType::I64, false);
    let last = b.sub(tc64, Value::i64(1));
    let chunk64 = b.int_resize(chunk, IrType::I64, false);
    b.call(
        init_fn,
        vec![
            gtid,
            sched.value(),
            Value::i64(0),
            last,
            Value::i64(1),
            chunk64,
        ],
        IrType::Void,
    );
    b.br(head);

    b.set_insert_point(head);
    let got = b.call(next_fn, vec![gtid, plast, plb, pub_, pstride], IrType::I32);
    let more = b.cmp(CmpPred::Ne, got, Value::i32(0));
    b.cond_br(more, chunk_setup, fini);

    // Re-bound the canonical loop to the claimed chunk [lb, ub].
    b.set_insert_point(chunk_setup);
    let lb = b.load(IrType::I64, plb);
    let ub = b.load(IrType::I64, pub_);
    let ubp1 = b.add(ub, Value::i64(1));
    let span = b.sub(ubp1, lb);
    let span_n = b.int_resize(span, cli.ty, false);
    let lb_n = b.int_resize(lb, cli.ty, false);
    cli.set_trip_count(b.func_mut(), span_n);
    b.br(pre);
    shift_body_iv(b, cli, lb_n);

    // The canonical loop's continuation loops back for the next chunk.
    b.func_mut().block_mut(cli.after).term = Some(Terminator::Br {
        target: head,
        loop_md: None,
    });

    b.set_insert_point(fini);
    b.call(fini_fn, vec![gtid], IrType::Void);
    b.br(after);

    b.set_insert_point(after);
    DispatchLoopInfo {
        setup,
        head,
        chunk_setup,
        fini,
        after,
        inner_preheader: pre,
        inner_after: cli.after,
        init_sym: init_fn,
        next_sym: next_fn,
        fini_sym: fini_fn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical_loop::create_canonical_loop;
    use omplt_ir::{assert_verified, Function};

    fn one_loop(f: &mut Function, m: &mut Module) -> CanonicalLoopInfo {
        let sink = m.intern("sink");
        let mut b = IrBuilder::new(f);
        create_canonical_loop(&mut b, Value::Arg(0), "i", |b, i| {
            b.call(sink, vec![i], IrType::Void);
        })
    }

    #[test]
    fn unchunked_brackets_with_runtime_calls() {
        let mut m = Module::new();
        let mut f = Function::new("k", vec![IrType::I64], IrType::Void);
        let mut cli = one_loop(&mut f, &mut m);
        let cont = {
            let mut b = IrBuilder::new(&mut f);
            b.set_insert_point(cli.after);
            let cont = create_static_workshare_loop(
                &mut b,
                &mut m,
                &mut cli,
                WorksharingScheme::StaticUnchunked,
            );
            b.set_insert_point(cont);
            b.ret(None);
            cont
        };
        assert_eq!(cont, cli.after);
        cli.assert_ok(&f);
        assert_verified(&f);
        let init = m.lookup_symbol(RtFn::ForStaticInit.row().name).unwrap();
        let fini = m.lookup_symbol(RtFn::ForStaticFini.row().name).unwrap();
        let calls = |bb: BlockId, sym| {
            f.block(bb)
                .insts
                .iter()
                .any(|&i| matches!(f.inst(i), Inst::Call { callee, .. } if callee.0 == sym))
        };
        assert!(
            calls(cli.preheader, init),
            "init call must be in the preheader"
        );
        assert!(calls(cli.exit, fini), "fini call must be in the exit");
    }

    #[test]
    fn unchunked_patches_trip_count_to_span() {
        let mut m = Module::new();
        let mut f = Function::new("k", vec![IrType::I64], IrType::Void);
        let mut cli = one_loop(&mut f, &mut m);
        let orig_tc = cli.trip_count;
        {
            let mut b = IrBuilder::new(&mut f);
            b.set_insert_point(cli.after);
            create_static_workshare_loop(
                &mut b,
                &mut m,
                &mut cli,
                WorksharingScheme::StaticUnchunked,
            );
        }
        assert_ne!(
            cli.trip_count, orig_tc,
            "trip count must become the thread's span"
        );
    }

    #[test]
    fn body_iv_is_shifted_by_lower_bound() {
        let mut m = Module::new();
        let mut f = Function::new("k", vec![IrType::I64], IrType::Void);
        let mut cli = one_loop(&mut f, &mut m);
        {
            let mut b = IrBuilder::new(&mut f);
            b.set_insert_point(cli.after);
            create_static_workshare_loop(
                &mut b,
                &mut m,
                &mut cli,
                WorksharingScheme::StaticUnchunked,
            );
        }
        // The sink call must use the shifted value, not the raw phi.
        let first = f.block(cli.body).insts[0];
        assert!(
            matches!(f.inst(first), Inst::Bin { op: omplt_ir::BinOpKind::Add, lhs, .. } if *lhs == cli.iv()),
            "body must start with the IV shift"
        );
        for &iid in &f.block(cli.body).insts[1..] {
            if let Inst::Call { args, .. } = f.inst(iid) {
                assert!(!args.contains(&cli.iv()), "raw IV leaked into the body");
            }
        }
    }

    #[test]
    fn chunked_wraps_in_outer_chunk_loop() {
        let mut m = Module::new();
        let mut f = Function::new("k", vec![IrType::I64], IrType::Void);
        let mut cli = one_loop(&mut f, &mut m);
        let cont = {
            let mut b = IrBuilder::new(&mut f);
            b.set_insert_point(cli.after);
            let cont = create_static_workshare_loop(
                &mut b,
                &mut m,
                &mut cli,
                WorksharingScheme::StaticChunked(Value::i64(8)),
            );
            b.set_insert_point(cont);
            b.ret(None);
            cont
        };
        assert_ne!(
            cont, cli.after,
            "chunked scheme must return a new continuation"
        );
        cli.assert_ok(&f);
        assert_verified(&f);
    }

    fn dispatch_over_one_loop(scheme: WorksharingScheme) -> (Module, Function, DispatchLoopInfo) {
        let mut m = Module::new();
        let mut f = Function::new("k", vec![IrType::I64], IrType::Void);
        let mut cli = one_loop(&mut f, &mut m);
        let dli = {
            let mut b = IrBuilder::new(&mut f);
            b.set_insert_point(cli.after);
            let dli = create_dynamic_workshare_loop(&mut b, &mut m, &mut cli, scheme);
            b.ret(None);
            dli
        };
        cli.assert_ok(&f);
        assert_verified(&f);
        (m, f, dli)
    }

    #[test]
    fn dynamic_builds_the_dispatch_skeleton() {
        for scheme in [
            WorksharingScheme::DynamicChunked(Value::i64(2)),
            WorksharingScheme::GuidedChunked(Value::i64(1)),
            WorksharingScheme::Runtime,
        ] {
            let (_m, f, dli) = dispatch_over_one_loop(scheme);
            dli.assert_ok(&f);
        }
    }

    #[test]
    fn dispatch_setup_takes_over_entry_edges() {
        // All edges that used to reach the loop's preheader must now go
        // through the dispatch setup block, so init runs before any chunk.
        let (_m, f, dli) = dispatch_over_one_loop(WorksharingScheme::DynamicChunked(Value::i64(4)));
        for (i, data) in f.blocks.iter().enumerate() {
            let bb = BlockId(i as u32);
            if bb == dli.chunk_setup {
                continue; // the one legitimate edge into the re-bound loop
            }
            if let Some(t) = &data.term {
                assert!(
                    !t.successors().any(|s| s == dli.inner_preheader),
                    "stray edge from {bb:?} into the inner preheader bypasses dispatch init"
                );
            }
        }
    }

    #[test]
    fn dispatch_check_reports_broken_back_edge() {
        let (_m, mut f, dli) = dispatch_over_one_loop(WorksharingScheme::Runtime);
        assert!(dli.check(&f).is_empty());
        // Sever the chunk-exhausted back edge: the loop would run one chunk.
        f.block_mut(dli.inner_after).term = Some(Terminator::Br {
            target: dli.fini,
            loop_md: None,
        });
        let errs = dli.check(&f);
        assert!(
            errs.iter().any(|e| e.contains("head")),
            "check must flag the missing back edge to the head, got {errs:?}"
        );
    }
}
