//! The bytecode execution engine.
//!
//! [`VmEngine`] runs [`crate::ops::VmModule`] bytecode: one heap-allocated
//! register file per frame, a `pc` loop whose body is a `match`, and no
//! `unsafe` anywhere.
//!
//! **Registers are payloads.** A frame's scalar file is a `Vec<u64>` and a
//! vector register is `[u64; MAX_LANES]`: an integer's `i64`, a float's
//! `f64` bits or a pointer's handle, with no tag. That is exact, not an
//! approximation, because the load-time verifier ([`crate::verify`]) has
//! proven that every op reads a register at the class of
//! [`VmFunction::reg_class`] and that every write to it — including a call's
//! result and a parameter's arrival — is at that same class, and that no
//! register is read before it is written. The payload is also the currency
//! of the [`Engine`] trait, so a value crosses a `Call`, a `Ret` and the
//! arguments of [`VmEngine::run_frame`] as the same 64 bits: the verifier
//! holds a direct call's argument registers to the classes of the callee's
//! parameter registers, and the compiler refuses a runtime prototype that
//! disagrees with the runtime's row, so both sides of every boundary read
//! the bits at one class.
//!
//! **What the loop runs is resolved once per run.** [`VmEngine::new`] maps
//! each function's [`Op`]s 1:1 — same `pc`, same jump targets, same unit of
//! fuel — to a private execution form, [`XOp`]: an op whose (operator, type)
//! pair has a row in the table at the bottom of this file becomes that row's
//! variant, whose dispatch arm is the IR's own arithmetic kernel
//! (`omplt_ir::arith::{bin, cmp, cast, decode, encode}`) called with the
//! operator and type as literals; every other op is carried as the `Op` it
//! is and runs the same kernel with the operator and type it holds. The row
//! variants, the resolver and their arms all come from that one table, and a
//! row is there because a measured workload retires its pair — it buys
//! speed, never meaning. The resolved stream is not a format: it is never
//! serialised, never verified and never printed (`--emit-bytecode` shows
//! `Op`, OMPLTBC carries `Op`), and it dies with the engine.
//!
//! Everything *around* the dispatch loop is shared with the interpreter:
//!
//! * guest memory is the interpreter's atomic-word [`Memory`], so racy guest
//!   programs degrade to relaxed-atomic semantics identically; a frame's
//!   loads, stores and lane accesses go through its own
//!   [`omplt_interp::memory::RegionCache`], which skips the region-table
//!   walk but keeps the bounds test;
//! * no arithmetic, comparison or conversion is written out here — every
//!   arm that computes calls a kernel of `omplt_ir::arith`, the same
//!   kernels the interpreter calls and the compiler folds constants with,
//!   so results are bit-identical by construction;
//! * the whole OpenMP runtime (`__kmpc_fork_call` thread teams, static/
//!   dynamic/guided/runtime schedules, barriers, `nowait`) is the generic
//!   `omplt_interp::runtime::dispatch`, reached through the [`Engine`]
//!   trait. Team threads run their own VM frames over the same shared
//!   [`RunState`].

use crate::ops::{CallTarget, Op, PoolConst, Reg, VmFunction, VmModule, MAX_LANES};
use omplt_interp::engine::{Callee, Engine, RunState};
use omplt_interp::memory::MemError;
use omplt_interp::runtime::{self, RuntimeConfig, ThreadCtx};
use omplt_interp::{ExecError, Memory, RunResult};
use omplt_ir::arith::{bin, cast, cmp, decode, encode, gep};
use omplt_ir::{BinOpKind, CastOp, CmpPred, IrType, Module, RtFn};
use std::sync::atomic::Ordering;

/// One vector register: a fixed array of lane payloads. Ops only touch lanes
/// `0..w`; the rest are dead storage.
type Lanes = [u64; MAX_LANES];

/// Shared VM state for one run (`Sync`; shared across team threads).
pub struct VmEngine<'m> {
    /// The run state the runtime shares with the interpreter (memory, the
    /// IR module's symbol names and globals, budgets).
    state: RunState<'m>,
    /// The compiled bytecode.
    code: &'m VmModule,
    /// Per function of `code`, what its frames execute.
    resolved: Vec<Resolved>,
}

/// One function as its frames run it, built once by [`VmEngine::new`].
struct Resolved {
    /// The resolved stream: `ops[pc]` is `VmFunction::ops[pc]`, resolved.
    ops: Vec<XOp>,
    /// The constant pool as payloads, globals and function pointers
    /// resolved to concrete guest addresses.
    consts: Vec<u64>,
    /// `call_targets` resolved against the module (a frame index, a runtime
    /// entry, or an unknown function), so no call looks a name up.
    callees: Vec<Callee<u32>>,
}

impl<'m> VmEngine<'m> {
    /// Creates an engine: materializes module globals (identical layout to
    /// the interpreter) and resolves every constant pool, call target and op
    /// against the module.
    ///
    /// `code` must have passed [`crate::verify::verify_module`] — every
    /// product path hands over verified code only (`compile_bytecode`
    /// verifies; a cached image was verified before it was inserted and is
    /// checksummed on lookup). Registers carry no tag, so on code that never
    /// saw the verifier the engine stays memory-safe but reads a payload at
    /// whatever class the op that reads it names.
    pub fn new(
        module: &'m Module,
        code: &'m VmModule,
        cfg: RuntimeConfig,
    ) -> Result<VmEngine<'m>, ExecError> {
        let state = RunState::new(module, cfg, "vm");
        let mut resolved = Vec::with_capacity(code.funcs.len());
        for f in &code.funcs {
            let mut consts = Vec::with_capacity(f.consts.len());
            for &c in &f.consts {
                consts.push(match c {
                    PoolConst::Val(_, v) => v,
                    PoolConst::Global(s) => state.global_addr(s)?,
                    PoolConst::FnPtr(s) => Memory::encode_fn_ptr(s.0),
                });
            }
            let callee = |t: &CallTarget| match *t {
                CallTarget::Bytecode(i) => Callee::Defined(i),
                CallTarget::Runtime(sym) => state.resolve(sym, None),
            };
            resolved.push(Resolved {
                ops: f.ops.iter().map(|&op| resolve(op)).collect(),
                consts,
                callees: f.call_targets.iter().map(callee).collect(),
            });
        }
        Ok(VmEngine {
            state,
            code,
            resolved,
        })
    }

    /// Runs `main` and collects results.
    pub fn run_main(&self) -> Result<RunResult, ExecError> {
        let _span = omplt_trace::span("vm.run");
        self.run_function("main", vec![])
    }

    /// Runs an arbitrary function (for kernels without `main`).
    pub fn run_function(&self, name: &str, args: Vec<u64>) -> Result<RunResult, ExecError> {
        let ret = self.call_by_name(name, args, &ThreadCtx::initial())?;
        Ok(self.state.finish(ret))
    }

    /// Executes one bytecode frame.
    pub fn run_frame(
        &self,
        fi: u32,
        args: Vec<u64>,
        ctx: &ThreadCtx,
    ) -> Result<Option<u64>, ExecError> {
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
        args: Vec<u64>,
        ctx: &ThreadCtx,
        retired: &mut u64,
    ) -> Result<Option<u64>, ExecError> {
        let f = &self.code.funcs[fi as usize];
        let mut regs: Vec<u64> = vec![0; f.num_regs as usize];
        for (i, &p) in f.params.iter().enumerate() {
            regs[p as usize] = *args
                .get(i)
                .ok_or_else(|| ExecError::Malformed(format!("missing argument {i}")))?;
        }

        // The vector file is only materialized for widened functions, so
        // scalar code pays nothing for the tier.
        let mut vregs: Vec<Lanes> = vec![[0; MAX_LANES]; f.num_vregs as usize];

        // Fuel arrives in batches ([`RunState::refill`]). Retired-op
        // accounting rides on the same counter (granted − unused) instead of
        // a second per-op increment in the hot loop.
        let mut granted: u64 = 0;
        let mut local_fuel: u64 = 0;
        let r = self.dispatch(
            f,
            &self.resolved[fi as usize],
            &mut regs,
            &mut vregs,
            ctx,
            &mut granted,
            &mut local_fuel,
        );
        *retired += granted - local_fuel;
        r
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
        args: Vec<u64>,
        ctx: &ThreadCtx,
    ) -> Result<Option<u64>, ExecError> {
        if let Some(i) = self.code.function_index(name) {
            return self.run_frame(i, args, ctx);
        }
        match RtFn::from_name(name) {
            Some(rt) => runtime::dispatch(self, rt, args, ctx),
            None => Err(ExecError::UnknownFunction(name.to_string())),
        }
    }
}

fn mem_err(e: MemError) -> ExecError {
    ExecError::Mem(e.what)
}

// Lane loops over the kernels. `#[inline(always)]`, like the kernels: a
// vector arm picks its (operator, type) once and calls these with literals,
// so the loop body is the folded instruction.

#[inline(always)]
fn lanes_bin(
    op: BinOpKind,
    ty: IrType,
    a: &Lanes,
    b: &Lanes,
    out: &mut [u64],
) -> Result<(), ExecError> {
    for (l, o) in out.iter_mut().enumerate() {
        *o = bin(op, ty, a[l], b[l])?;
    }
    Ok(())
}

#[inline(always)]
fn lanes_reduce(op: BinOpKind, ty: IrType, v: &[u64]) -> Result<u64, ExecError> {
    let mut acc = v[0];
    for &lane in &v[1..] {
        acc = bin(op, ty, acc, lane)?;
    }
    Ok(acc)
}

#[inline(always)]
fn lanes_cast(op: CastOp, from: IrType, to: IrType, src: &Lanes, out: &mut [u64]) {
    for (l, o) in out.iter_mut().enumerate() {
        *o = cast(op, from, to, src[l]);
    }
}

/// Generates, from the one table of kernel rows at its call site, everything
/// that depends on which (operator, type) pairs have a variant of their own:
/// the resolved op [`XOp`], the resolver from [`Op`], the dispatch loop —
/// a row's arm instantiates its kernel with the row's literals, an op without
/// one runs the arm of its own name — and the row list the tests walk. A row
/// is `Variant [FusedVariant] = operator type(s);`; the compiler flags a pair
/// listed twice as an unreachable pattern in `resolve`.
macro_rules! resolved_ops {
    (
        bin { $($bin:ident $bin_jmp:ident = $bop:ident $bty:ident;)* }
        cmp { $($cmp:ident $cmp_br:ident = $pred:ident $cty:ident;)* }
        cast { $($cast:ident = $cop:ident $from:ident $to:ident;)* }
        mem { $($load:ident $store:ident = $mty:ident;)* }
    ) => {
        /// One op as the dispatch loop executes it: a table row — an op
        /// whose operator and type are the variant — or the [`Op`] itself.
        #[derive(Clone, Copy)]
        enum XOp {
            /// An op with no row, executed as it is.
            Carried(Op),
            $(
                $bin { dst: Reg, lhs: Reg, rhs: Reg },
                $bin_jmp { dst: Reg, lhs: Reg, rhs: Reg, target: u32 },
            )*
            $(
                $cmp { dst: Reg, lhs: Reg, rhs: Reg },
                $cmp_br { lhs: Reg, rhs: Reg, then_t: u32, else_t: u32 },
            )*
            $($cast { dst: Reg, src: Reg },)*
            $(
                $load { dst: Reg, addr: Reg },
                $store { src: Reg, addr: Reg },
            )*
        }

        /// Resolves one op: to its table row's variant if its operator and
        /// type have one, to itself otherwise. Total, and 1:1.
        fn resolve(op: Op) -> XOp {
            use {BinOpKind as B, CastOp as C, CmpPred as P, IrType as T};
            match op {
                $(Op::Load { dst, addr, ty: T::$mty } => XOp::$load { dst, addr },)*
                $(Op::Store { src, addr, ty: T::$mty } => XOp::$store { src, addr },)*
                $(Op::Bin { op: B::$bop, ty: T::$bty, dst, lhs, rhs } => XOp::$bin { dst, lhs, rhs },)*
                $(Op::BinJmp { op: B::$bop, ty: T::$bty, dst, lhs, rhs, target } => XOp::$bin_jmp { dst, lhs, rhs, target },)*
                $(Op::Cmp { pred: P::$pred, ty: T::$cty, dst, lhs, rhs } => XOp::$cmp { dst, lhs, rhs },)*
                $(Op::CmpBr { pred: P::$pred, ty: T::$cty, lhs, rhs, then_t, else_t } => XOp::$cmp_br { lhs, rhs, then_t, else_t },)*
                $(Op::Cast { op: C::$cop, from: T::$from, to: T::$to, dst, src } => XOp::$cast { dst, src },)*
                other => XOp::Carried(other),
            }
        }

        impl VmEngine<'_> {
            /// The dispatch loop proper. `granted`/`local_fuel` live in the
            /// caller so retired-op counts survive early `?` returns.
            #[allow(clippy::too_many_arguments)]
            fn dispatch(
                &self,
                f: &VmFunction,
                code: &Resolved,
                regs: &mut [u64],
                vregs: &mut [Lanes],
                ctx: &ThreadCtx,
                granted: &mut u64,
                local_fuel: &mut u64,
            ) -> Result<Option<u64>, ExecError> {
                use {BinOpKind as B, CastOp as C, CmpPred as P, IrType as T};
                // `fuel` stays in a machine register; it is written back to
                // `*local_fuel` only on the explicit exits below. `?`-propagated
                // errors skip the write-back, so failed frames report the
                // batch-granted count — still deterministic, just coarser.
                let mem: &Memory = &self.state.mem;
                let mut cache = mem.region_cache();
                let (ops, consts) = (&code.ops[..], &code.consts[..]);
                let mut fuel = *local_fuel;
                let mut pc: usize = 0;
                loop {
                    if fuel == 0 {
                        fuel = self.state.refill()?;
                        *granted += fuel;
                    }
                    fuel -= 1;
                    let op = ops[pc];
                    pc += 1;
                    // A row's arm is the whole op; an op without a row goes
                    // on to the arm of its own name below.
                    let op = match op {
                        $(XOp::$load { dst, addr } => {
                            let raw = mem.load_via(&mut cache, regs[addr as usize], T::$mty.size()).map_err(mem_err)?;
                            regs[dst as usize] = decode(T::$mty, raw);
                            continue;
                        })*
                        $(XOp::$store { src, addr } => {
                            let raw = encode(T::$mty, regs[src as usize]);
                            mem.store_via(&mut cache, regs[addr as usize], T::$mty.size(), raw).map_err(mem_err)?;
                            continue;
                        })*
                        $(XOp::$bin { dst, lhs, rhs } => {
                            regs[dst as usize] = bin(B::$bop, T::$bty, regs[lhs as usize], regs[rhs as usize])?;
                            continue;
                        })*
                        $(XOp::$bin_jmp { dst, lhs, rhs, target } => {
                            regs[dst as usize] = bin(B::$bop, T::$bty, regs[lhs as usize], regs[rhs as usize])?;
                            pc = target as usize;
                            continue;
                        })*
                        $(XOp::$cmp { dst, lhs, rhs } => {
                            regs[dst as usize] = cmp(P::$pred, T::$cty, regs[lhs as usize], regs[rhs as usize]) as u64;
                            continue;
                        })*
                        $(XOp::$cmp_br { lhs, rhs, then_t, else_t } => {
                            let taken = cmp(P::$pred, T::$cty, regs[lhs as usize], regs[rhs as usize]);
                            pc = if taken { then_t } else { else_t } as usize;
                            continue;
                        })*
                        $(XOp::$cast { dst, src } => {
                            regs[dst as usize] = cast(C::$cop, T::$from, T::$to, regs[src as usize]);
                            continue;
                        })*
                        XOp::Carried(op) => op,
                    };
                    match op {
                        Op::Const { dst, idx } => regs[dst as usize] = consts[idx as usize],
                        Op::Mov { dst, src } => regs[dst as usize] = regs[src as usize],
                        Op::Alloca { dst, bytes } => regs[dst as usize] = mem.alloc(bytes as u64),
                        Op::Load { dst, addr, ty } => {
                            let raw = mem.load_via(&mut cache, regs[addr as usize], ty.size()).map_err(mem_err)?;
                            regs[dst as usize] = decode(ty, raw);
                        }
                        Op::Store { src, addr, ty } => {
                            let raw = encode(ty, regs[src as usize]);
                            mem.store_via(&mut cache, regs[addr as usize], ty.size(), raw).map_err(mem_err)?;
                        }
                        Op::Gep { dst, base, index, elem_size } => {
                            regs[dst as usize] = gep(regs[base as usize], regs[index as usize], elem_size as u64);
                        }
                        Op::Bin { op, ty, dst, lhs, rhs } => {
                            regs[dst as usize] = bin(op, ty, regs[lhs as usize], regs[rhs as usize])?;
                        }
                        Op::Cmp { pred, ty, dst, lhs, rhs } => {
                            regs[dst as usize] = cmp(pred, ty, regs[lhs as usize], regs[rhs as usize]) as u64;
                        }
                        Op::Cast { op, from, to, dst, src } => {
                            regs[dst as usize] = cast(op, from, to, regs[src as usize]);
                        }
                        Op::Select { dst, cond, t, f: fv } => {
                            regs[dst as usize] = regs[if regs[cond as usize] != 0 { t } else { fv } as usize];
                        }
                        Op::Call { target, args_at, nargs, ret, dst } => {
                            let run = &f.call_args[args_at as usize..args_at as usize + nargs as usize];
                            let vs: Vec<u64> = run.iter().map(|&r| regs[r as usize]).collect();
                            let r = match code.callees[target as usize] {
                                Callee::Defined(i) => self.run_frame(i, vs, ctx)?,
                                Callee::Runtime(rt) => runtime::dispatch(self, rt, vs, ctx)?,
                                Callee::Unknown(sym) => return Err(self.state.unknown_function(sym)),
                            };
                            if ret != IrType::Void {
                                if let Some(d) = dst {
                                    regs[d as usize] = r.unwrap_or(0);
                                }
                            }
                        }
                        Op::Jmp { target } => pc = target as usize,
                        Op::BinJmp { op, ty, dst, lhs, rhs, target } => {
                            regs[dst as usize] = bin(op, ty, regs[lhs as usize], regs[rhs as usize])?;
                            pc = target as usize;
                        }
                        Op::Br { cond, then_t, else_t } => {
                            pc = if regs[cond as usize] != 0 { then_t } else { else_t } as usize;
                        }
                        Op::CmpBr { pred, ty, lhs, rhs, then_t, else_t } => {
                            let taken = cmp(pred, ty, regs[lhs as usize], regs[rhs as usize]);
                            pc = if taken { then_t } else { else_t } as usize;
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
                            let b = regs[base as usize];
                            for (l, o) in vregs[dst as usize][..w as usize].iter_mut().enumerate() {
                                *o = bin(B::Add, T::I64, b, l as u64)?;
                            }
                        }
                        Op::VBroadcast { dst, src, w } => {
                            vregs[dst as usize][..w as usize].fill(regs[src as usize]);
                        }
                        Op::VExtract { dst, src, lane } => {
                            regs[dst as usize] = vregs[src as usize][lane as usize];
                        }
                        Op::VLoad { dst, addr, ty, w } => {
                            let out = &mut vregs[dst as usize][..w as usize];
                            mem.load_span(&mut cache, regs[addr as usize], ty.size(), out).map_err(mem_err)?;
                            match ty {
                                $(T::$mty => out.iter_mut().for_each(|o| *o = decode(T::$mty, *o)),)*
                                _ => out.iter_mut().for_each(|o| *o = decode(ty, *o)),
                            }
                        }
                        Op::VStore { src, addr, ty, w } => {
                            let mut raw = vregs[src as usize];
                            let raw = &mut raw[..w as usize];
                            match ty {
                                $(T::$mty => raw.iter_mut().for_each(|o| *o = encode(T::$mty, *o)),)*
                                _ => raw.iter_mut().for_each(|o| *o = encode(ty, *o)),
                            }
                            mem.store_span(&mut cache, regs[addr as usize], ty.size(), raw).map_err(mem_err)?;
                        }
                        Op::VGather { elem_size, dst, base, idx, ty, w } => {
                            let (p, iv) = (regs[base as usize], vregs[idx as usize]);
                            for (l, o) in vregs[dst as usize][..w as usize].iter_mut().enumerate() {
                                let a = gep(p, iv[l], elem_size as u64);
                                *o = decode(ty, mem.load_via(&mut cache, a, ty.size()).map_err(mem_err)?);
                            }
                        }
                        Op::VScatter { elem_size, src, base, idx, ty, w } => {
                            let (p, iv) = (regs[base as usize], vregs[idx as usize]);
                            for (l, &v) in vregs[src as usize][..w as usize].iter().enumerate() {
                                let a = gep(p, iv[l], elem_size as u64);
                                mem.store_via(&mut cache, a, ty.size(), encode(ty, v)).map_err(mem_err)?;
                            }
                        }
                        Op::VBin { op, ty, dst, lhs, rhs, w } => {
                            let (a, b) = (vregs[lhs as usize], vregs[rhs as usize]);
                            let out = &mut vregs[dst as usize][..w as usize];
                            match (op, ty) {
                                $((B::$bop, T::$bty) => lanes_bin(B::$bop, T::$bty, &a, &b, out)?,)*
                                _ => lanes_bin(op, ty, &a, &b, out)?,
                            }
                        }
                        Op::VCast { op, from, to, dst, src, w } => {
                            let s = vregs[src as usize];
                            let out = &mut vregs[dst as usize][..w as usize];
                            match (op, from, to) {
                                $((C::$cop, T::$from, T::$to) => lanes_cast(C::$cop, T::$from, T::$to, &s, out),)*
                                _ => lanes_cast(op, from, to, &s, out),
                            }
                        }
                        Op::VReduce { op, ty, dst, src, w } => {
                            let v = &vregs[src as usize][..w as usize];
                            regs[dst as usize] = match (op, ty) {
                                $((B::$bop, T::$bty) => lanes_reduce(B::$bop, T::$bty, v)?,)*
                                _ => lanes_reduce(op, ty, v)?,
                            };
                        }
                        Op::VEpi { src } => {
                            if omplt_trace::active() {
                                let left = (regs[src as usize] as i64).max(0) as u64;
                                omplt_trace::count("vm.simd.epilogue_iters", left);
                            }
                        }
                    }
                }
            }
        }

        /// One row of the kernel table: an (operator, type) pair with
        /// variants of its own. For the tests, which walk [`KERNEL_ROWS`].
        #[doc(hidden)]
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum KernelRow {
            /// `Bin` and `BinJmp`.
            Bin(BinOpKind, IrType),
            /// `Cmp` and `CmpBr`.
            Cmp(CmpPred, IrType),
            /// `Cast`, source and destination type.
            Cast(CastOp, IrType, IrType),
            /// `Load` and `Store`.
            Mem(IrType),
        }

        /// Every row of the table, in table order.
        #[doc(hidden)]
        pub const KERNEL_ROWS: &[KernelRow] = &[
            $(KernelRow::Bin(BinOpKind::$bop, IrType::$bty),)*
            $(KernelRow::Cmp(CmpPred::$pred, IrType::$cty),)*
            $(KernelRow::Cast(CastOp::$cop, IrType::$from, IrType::$to),)*
            $(KernelRow::Mem(IrType::$mty),)*
        ];

        /// True when `op` resolves to a table row's variant, false when it
        /// is carried as it is. For the tests.
        #[doc(hidden)]
        pub fn has_kernel_row(op: Op) -> bool {
            !matches!(resolve(op), XOp::Carried(_))
        }
    };
}

// The kernel table: the (operator, type) pairs that are at least 0.1 % of the
// ops some `BENCHMARK.json` workload retires (counted once per pair over the
// five `exec_vm` kernels, the `compile_*` translation units and the
// `daemon_mix` jobs; CHANGES.md, PR 19, has the counts). A row names the
// pair's variant (and the variant of its fused form — `BinJmp`, `CmpBr` — or,
// for a type, of its store), then the literals its arms call the kernel with;
// the vector arms pick the same literals once per op for all lanes. Every
// pair without a row — f32, unsigned division and shifts, the narrow integer
// types, most casts — runs the same kernel with its operator and type read
// from the op. A row is added when a measured workload retires its pair and
// deleted when none does any more: no `sext` has a row, since the lowerer
// makes every cast that keeps its payload a `mov`
// (`omplt_ir::arith::keeps_payload`).
resolved_ops! {
    bin {
        AddI32 AddI32Jmp = Add I32; AddI64 AddI64Jmp = Add I64;
        SubI32 SubI32Jmp = Sub I32; SubI64 SubI64Jmp = Sub I64;
        MulI32 MulI32Jmp = Mul I32; SRemI32 SRemI32Jmp = SRem I32;
        FAddF64 FAddF64Jmp = FAdd F64; FMulF64 FMulF64Jmp = FMul F64;
    }
    cmp {
        SltI32 SltI32Br = Slt I32; UltI32 UltI32Br = Ult I32;
        UltI64 UltI64Br = Ult I64; UleI64 UleI64Br = Ule I64;
    }
    cast {
        TruncI64I32 = Trunc I64 I32; SiToFpI32F64 = SiToFp I32 F64;
    }
    mem {
        LoadI32 StoreI32 = I32; LoadI64 StoreI64 = I64; LoadF64 StoreF64 = F64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolved_op_stays_as_small_as_an_op() {
        // The dispatch loop streams these; a function's resolved stream costs
        // the 16 bytes per op its `ops` do. `Carried(Op)` fits only because
        // the row variants live in the spare values of `Op`'s tag byte — a
        // layout the compiler chooses, so it is held here.
        assert_eq!(std::mem::size_of::<XOp>(), std::mem::size_of::<Op>());
    }
}
