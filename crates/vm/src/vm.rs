//! The bytecode execution engine.
//!
//! [`VmEngine`] runs [`crate::ops::VmModule`] bytecode: one heap-allocated
//! register file per frame, a `pc` loop whose body is a single `match` on
//! the dense opcode, and no `unsafe` anywhere — the load-time verifier
//! ([`crate::verify`]) has already proven every register index, pool index,
//! and jump target in-bounds.
//!
//! Everything *around* the dispatch loop is shared with the interpreter:
//!
//! * guest memory is the interpreter's atomic-word [`Memory`], so racy guest
//!   programs degrade to relaxed-atomic semantics identically;
//! * arithmetic goes through `omplt_interp::exec::{exec_bin, exec_cmp,
//!   exec_cast}` — bit-identical results by construction;
//! * the whole OpenMP runtime (`__kmpc_fork_call` thread teams, static/
//!   dynamic/guided/runtime schedules, barriers, `nowait`) is the generic
//!   `omplt_interp::runtime::dispatch`, reached through the [`Engine`]
//!   trait. Team threads run their own VM frames over the same shared
//!   [`RunState`].

use crate::ops::{CallTarget, Op, PoolConst, VecVal, VmModule};
use omplt_interp::engine::{Callee, Engine, RunState};
use omplt_interp::exec::{decode_scalar, encode_scalar, exec_bin, exec_cast, exec_cmp};
use omplt_interp::runtime::{self, RuntimeConfig, ThreadCtx};
use omplt_interp::{ExecError, Memory, RtVal, RunResult};
use omplt_ir::{IrType, Module, RtFn};
use std::sync::atomic::Ordering;

/// Shared VM state for one run (`Sync`; shared across team threads).
pub struct VmEngine<'m> {
    /// The run state the runtime shares with the interpreter (memory, the
    /// IR module's symbol names and globals, budgets).
    state: RunState<'m>,
    /// The compiled bytecode.
    code: &'m VmModule,
    /// Per-function constant pools with globals/function pointers resolved
    /// to concrete guest addresses (done once here, not per `Const` op).
    resolved: Vec<Vec<RtVal>>,
    /// Per function, its `call_targets` resolved against the module once
    /// here (a frame index, a runtime entry, or an unknown function), so no
    /// call looks a name up.
    callees: Vec<Vec<Callee<u32>>>,
}

impl<'m> VmEngine<'m> {
    /// Creates an engine: materializes module globals (identical layout to
    /// the interpreter) and resolves every constant pool and runtime call
    /// target against the module.
    pub fn new(
        module: &'m Module,
        code: &'m VmModule,
        cfg: RuntimeConfig,
    ) -> Result<VmEngine<'m>, ExecError> {
        let state = RunState::new(module, cfg, "vm");
        let mut resolved = Vec::with_capacity(code.funcs.len());
        let mut callees = Vec::with_capacity(code.funcs.len());
        for f in &code.funcs {
            let mut pool = Vec::with_capacity(f.consts.len());
            for &c in &f.consts {
                pool.push(match c {
                    PoolConst::Val(v) => v,
                    PoolConst::Global(s) => RtVal::P(state.global_addr(s)?),
                    PoolConst::FnPtr(s) => RtVal::P(Memory::encode_fn_ptr(s.0)),
                });
            }
            resolved.push(pool);
            let resolve = |t: &CallTarget| match *t {
                CallTarget::Bytecode(i) => Callee::Defined(i),
                CallTarget::Runtime(sym) => state.resolve(sym, None),
            };
            callees.push(f.call_targets.iter().map(resolve).collect());
        }
        Ok(VmEngine {
            state,
            code,
            resolved,
            callees,
        })
    }

    /// Runs `main` and collects results.
    pub fn run_main(&self) -> Result<RunResult, ExecError> {
        let _span = omplt_trace::span("vm.run");
        self.run_function("main", vec![])
    }

    /// Runs an arbitrary function (for kernels without `main`).
    pub fn run_function(&self, name: &str, args: Vec<RtVal>) -> Result<RunResult, ExecError> {
        let ret = self.call_by_name(name, args, &ThreadCtx::initial())?;
        Ok(self.state.finish(ret))
    }

    /// Executes one bytecode frame.
    pub fn run_frame(
        &self,
        fi: u32,
        args: Vec<RtVal>,
        ctx: &ThreadCtx,
    ) -> Result<Option<RtVal>, ExecError> {
        let mut retired = 0u64;
        let r = self.run_frame_inner(fi, args, ctx, &mut retired);
        self.state.ops.fetch_add(retired, Ordering::Relaxed);
        if omplt_trace::active() {
            omplt_trace::count("vm.ops.retired", retired);
        }
        r
    }

    fn run_frame_inner(
        &self,
        fi: u32,
        args: Vec<RtVal>,
        ctx: &ThreadCtx,
        retired: &mut u64,
    ) -> Result<Option<RtVal>, ExecError> {
        let f = &self.code.funcs[fi as usize];
        let consts = &self.resolved[fi as usize];
        let callees = &self.callees[fi as usize];
        let mut regs: Vec<RtVal> = vec![RtVal::I(0); f.num_regs as usize];
        for (i, &p) in f.params.iter().enumerate() {
            regs[p as usize] = *args
                .get(i)
                .ok_or_else(|| ExecError::Malformed(format!("missing argument {i}")))?;
        }

        // The vector file is only materialized for widened functions, so
        // scalar code pays nothing for the tier.
        let mut vregs: Vec<VecVal> = vec![VecVal::default(); f.num_vregs as usize];

        // Fuel arrives in batches ([`RunState::refill`]). Retired-op
        // accounting rides on the same counter (granted − unused) instead of
        // a second per-op increment in the hot loop.
        let mut granted: u64 = 0;
        let mut local_fuel: u64 = 0;
        let r = self.dispatch(
            f,
            consts,
            callees,
            &mut regs,
            &mut vregs,
            ctx,
            &mut granted,
            &mut local_fuel,
        );
        *retired += granted - local_fuel;
        r
    }

    /// The dispatch loop proper. `granted`/`local_fuel` live in the caller
    /// so retired-op counts survive early `?` returns.
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &self,
        f: &crate::ops::VmFunction,
        consts: &[RtVal],
        callees: &[Callee<u32>],
        regs: &mut [RtVal],
        vregs: &mut [VecVal],
        ctx: &ThreadCtx,
        granted: &mut u64,
        local_fuel: &mut u64,
    ) -> Result<Option<RtVal>, ExecError> {
        // `fuel` stays in a machine register; it is written back to
        // `*local_fuel` only on the explicit exits below. `?`-propagated
        // errors skip the write-back, so failed frames report the
        // batch-granted count — still deterministic, just coarser.
        let mem: &Memory = &self.state.mem;
        let mut fuel = *local_fuel;
        let mut pc: usize = 0;
        loop {
            if fuel == 0 {
                fuel = self.state.refill()?;
                *granted += fuel;
            }
            fuel -= 1;
            let op = f.ops[pc];
            pc += 1;
            match op {
                Op::Const { dst, idx } => regs[dst as usize] = consts[idx as usize],
                Op::Mov { dst, src } => regs[dst as usize] = regs[src as usize],
                Op::Alloca { dst, bytes } => {
                    regs[dst as usize] = RtVal::P(mem.alloc(bytes as u64));
                }
                Op::Load { dst, addr, ty } => {
                    let raw = mem
                        .load(regs[addr as usize].as_p(), ty.size())
                        .map_err(|e| ExecError::Mem(e.what))?;
                    regs[dst as usize] = decode_scalar(ty, raw);
                }
                Op::Store { src, addr, ty } => {
                    mem.store(
                        regs[addr as usize].as_p(),
                        ty.size(),
                        encode_scalar(ty, regs[src as usize]),
                    )
                    .map_err(|e| ExecError::Mem(e.what))?;
                }
                Op::Gep {
                    dst,
                    base,
                    index,
                    elem_size,
                } => {
                    let p = regs[base as usize].as_p();
                    let i = regs[index as usize].as_i();
                    regs[dst as usize] =
                        RtVal::P(p.wrapping_add((i as u64).wrapping_mul(elem_size as u64)));
                }
                Op::Bin {
                    op,
                    ty,
                    dst,
                    lhs,
                    rhs,
                } => {
                    regs[dst as usize] = exec_bin(op, ty, regs[lhs as usize], regs[rhs as usize])?;
                }
                Op::Cmp {
                    pred,
                    ty,
                    dst,
                    lhs,
                    rhs,
                } => {
                    regs[dst as usize] =
                        RtVal::I(exec_cmp(pred, ty, regs[lhs as usize], regs[rhs as usize]) as i64);
                }
                Op::Cast {
                    op,
                    from,
                    to,
                    dst,
                    src,
                } => {
                    regs[dst as usize] = exec_cast(op, from, to, regs[src as usize]);
                }
                Op::Select {
                    dst,
                    cond,
                    t,
                    f: fv,
                } => {
                    let c = regs[cond as usize].as_i();
                    regs[dst as usize] = regs[if c != 0 { t } else { fv } as usize];
                }
                Op::Call {
                    target,
                    args_at,
                    nargs,
                    ret,
                    dst,
                } => {
                    let lo = args_at as usize;
                    let mut vs = Vec::with_capacity(nargs as usize);
                    for &r in &f.call_args[lo..lo + nargs as usize] {
                        vs.push(regs[r as usize]);
                    }
                    let r = match callees[target as usize] {
                        Callee::Defined(i) => self.run_frame(i, vs, ctx)?,
                        Callee::Runtime(rt) => runtime::dispatch(self, rt, vs, ctx)?,
                        Callee::Unknown(sym) => return Err(self.state.unknown_function(sym)),
                    };
                    if ret != IrType::Void {
                        if let Some(d) = dst {
                            regs[d as usize] = r.unwrap_or(RtVal::I(0));
                        }
                    }
                }
                Op::Jmp { target } => pc = target as usize,
                Op::BinJmp {
                    op,
                    ty,
                    dst,
                    lhs,
                    rhs,
                    target,
                } => {
                    regs[dst as usize] = exec_bin(op, ty, regs[lhs as usize], regs[rhs as usize])?;
                    pc = target as usize;
                }
                Op::Br {
                    cond,
                    then_t,
                    else_t,
                } => {
                    pc = if regs[cond as usize].as_i() != 0 {
                        then_t
                    } else {
                        else_t
                    } as usize;
                }
                Op::CmpBr {
                    pred,
                    ty,
                    lhs,
                    rhs,
                    then_t,
                    else_t,
                } => {
                    pc = if exec_cmp(pred, ty, regs[lhs as usize], regs[rhs as usize]) {
                        then_t
                    } else {
                        else_t
                    } as usize;
                }
                Op::Ret { src } => {
                    *local_fuel = fuel;
                    return Ok(src.map(|r| regs[r as usize]));
                }
                Op::Unreachable => {
                    *local_fuel = fuel;
                    return Err(ExecError::Unreachable);
                }
                Op::VMov { dst, src, .. } => vregs[dst as usize] = vregs[src as usize],
                Op::VIota { dst, base, w } => {
                    let b = regs[base as usize].as_i();
                    let v = &mut vregs[dst as usize];
                    for l in 0..w as usize {
                        v.lanes[l] = RtVal::I(b.wrapping_add(l as i64));
                    }
                }
                Op::VBroadcast { dst, src, w } => {
                    let s = regs[src as usize];
                    let v = &mut vregs[dst as usize];
                    for l in 0..w as usize {
                        v.lanes[l] = s;
                    }
                }
                Op::VExtract { dst, src, lane } => {
                    regs[dst as usize] = vregs[src as usize].lanes[lane as usize];
                }
                Op::VLoad { dst, addr, ty, w } => {
                    let base = regs[addr as usize].as_p();
                    let size = ty.size();
                    let mut v = VecVal::default();
                    for l in 0..w as usize {
                        let raw = mem
                            .load(base.wrapping_add(l as u64 * size), size)
                            .map_err(|e| ExecError::Mem(e.what))?;
                        v.lanes[l] = decode_scalar(ty, raw);
                    }
                    vregs[dst as usize] = v;
                }
                Op::VStore { src, addr, ty, w } => {
                    let base = regs[addr as usize].as_p();
                    let size = ty.size();
                    let v = vregs[src as usize];
                    for l in 0..w as usize {
                        mem.store(
                            base.wrapping_add(l as u64 * size),
                            size,
                            encode_scalar(ty, v.lanes[l]),
                        )
                        .map_err(|e| ExecError::Mem(e.what))?;
                    }
                }
                Op::VGather {
                    dst,
                    base,
                    idx,
                    ty,
                    elem_size,
                    w,
                } => {
                    let p = regs[base as usize].as_p();
                    let iv = vregs[idx as usize];
                    let mut v = VecVal::default();
                    for l in 0..w as usize {
                        let a = p.wrapping_add(
                            (iv.lanes[l].as_i() as u64).wrapping_mul(elem_size as u64),
                        );
                        let raw = mem.load(a, ty.size()).map_err(|e| ExecError::Mem(e.what))?;
                        v.lanes[l] = decode_scalar(ty, raw);
                    }
                    vregs[dst as usize] = v;
                }
                Op::VScatter {
                    src,
                    base,
                    idx,
                    ty,
                    elem_size,
                    w,
                } => {
                    let p = regs[base as usize].as_p();
                    let iv = vregs[idx as usize];
                    let v = vregs[src as usize];
                    for l in 0..w as usize {
                        let a = p.wrapping_add(
                            (iv.lanes[l].as_i() as u64).wrapping_mul(elem_size as u64),
                        );
                        mem.store(a, ty.size(), encode_scalar(ty, v.lanes[l]))
                            .map_err(|e| ExecError::Mem(e.what))?;
                    }
                }
                Op::VBin {
                    op,
                    ty,
                    dst,
                    lhs,
                    rhs,
                    w,
                } => {
                    let a = vregs[lhs as usize];
                    let b = vregs[rhs as usize];
                    let mut v = VecVal::default();
                    for l in 0..w as usize {
                        v.lanes[l] = exec_bin(op, ty, a.lanes[l], b.lanes[l])?;
                    }
                    vregs[dst as usize] = v;
                }
                Op::VCast {
                    op,
                    from,
                    to,
                    dst,
                    src,
                    w,
                } => {
                    let s = vregs[src as usize];
                    let mut v = VecVal::default();
                    for l in 0..w as usize {
                        v.lanes[l] = exec_cast(op, from, to, s.lanes[l]);
                    }
                    vregs[dst as usize] = v;
                }
                Op::VReduce {
                    op,
                    ty,
                    dst,
                    src,
                    w,
                } => {
                    let v = vregs[src as usize];
                    let mut acc = v.lanes[0];
                    for l in 1..w as usize {
                        acc = exec_bin(op, ty, acc, v.lanes[l])?;
                    }
                    regs[dst as usize] = acc;
                }
                Op::VEpi { src } => {
                    if omplt_trace::active() {
                        let left = regs[src as usize].as_i().max(0) as u64;
                        omplt_trace::count("vm.simd.epilogue_iters", left);
                    }
                }
            }
        }
    }
}

impl Engine for VmEngine<'_> {
    fn state(&self) -> &RunState<'_> {
        &self.state
    }

    /// Bytecode functions first, then runtime shims — the same precedence
    /// the interpreter uses (and that the bytecode compiler already baked
    /// into direct `Call` ops; this path serves `main` and
    /// `__kmpc_fork_call`'s outlined bodies).
    fn call_by_name(
        &self,
        name: &str,
        args: Vec<RtVal>,
        ctx: &ThreadCtx,
    ) -> Result<Option<RtVal>, ExecError> {
        if let Some(i) = self.code.function_index(name) {
            return self.run_frame(i, args, ctx);
        }
        match RtFn::from_name(name) {
            Some(rt) => runtime::dispatch(self, rt, args, ctx),
            None => Err(ExecError::UnknownFunction(name.to_string())),
        }
    }
}
