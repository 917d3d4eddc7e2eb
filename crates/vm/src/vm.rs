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
//! speed, never meaning. The vector pairs a workload retires have rows at
//! one width, [`ROW_LANES`]: their arms read the lanes in place and unroll the
//! lane loop, where a carried vector op pays a second dispatch on its
//! operator and a loop to a width read at run time. On the seed-11
//! `exec_vm` kernels that took `run_ms` from 4.25 to 2.69 ms (medians of ten
//! alternating pairs on two shared vCPUs, with `Memory::store_span`'s
//! whole-word stores). The resolved stream is not a format: it is never
//! serialised, never verified and never printed (`--emit-bytecode` shows
//! `Op`, OMPLTBC carries `Op`), and it dies with the engine.
//!
//! **A fault pad resumes a fault.** Only after an op has failed does the
//! frame look for a [`crate::ops::Pad`] covering it ([`resume`]): a memory
//! or division fault under one goes on at the pad's target — a widened
//! read-only loop's exit, from where the scalar loop replays the chunk —
//! and every other failure ends the frame, so the dispatch of an op that
//! succeeds does not change.
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

use crate::ops::{
    indexed_address, Address, CallTarget, Indexed, Op, PoolConst, Reg, VReg, VmFunction, VmModule,
    MAX_LANES,
};
use omplt_interp::engine::{Callee, Engine, RunState};
use omplt_interp::memory::{MemError, RegionCache};
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

/// `$e`'s value; when it is an error, the op at `$pc - 1` failed, and the
/// dispatch loop `$run` goes on where [`resume`] says, or the frame returns
/// the error.
macro_rules! or_fault {
    ($run:lifetime, $f:ident, $pc:ident, $e:expr) => {
        match $e {
            Ok(v) => v,
            Err(e) => {
                $pc = resume($f, $pc, ExecError::from(e))?;
                continue $run;
            }
        }
    };
}

/// Where frame `f` goes on after the op at `pc - 1` failed with `e`: a
/// memory or division fault under a fault pad resumes at the pad's target;
/// anything else — fuel, the deadline, `unreachable`, a malformed op — and
/// a fault no pad covers ends the frame with `e`.
#[cold]
#[inline(never)]
fn resume(f: &VmFunction, pc: usize, e: ExecError) -> Result<usize, ExecError> {
    match f.pad_at(pc - 1) {
        Some(target) if matches!(e, ExecError::Mem(_) | ExecError::DivByZero) => {
            Ok(target as usize)
        }
        _ => Err(e),
    }
}

/// Tallies the iterations a widened loop leaves its scalar loop, `bound - iv`
/// at `ty` (one more for an inclusive `pred`), into
/// `vm.simd.epilogue_iters`. Integer adds never trap.
#[cold]
#[inline(never)]
fn count_epilogue(pred: CmpPred, ty: IrType, iv: u64, bound: u64) {
    let mut left = bin(BinOpKind::Sub, ty, bound, iv).unwrap_or_default();
    if matches!(pred, CmpPred::Sle | CmpPred::Ule) {
        left = bin(BinOpKind::Add, ty, left, 1).unwrap_or_default();
    }
    omplt_trace::count("vm.simd.epilogue_iters", (left as i64).max(0) as u64);
}

fn mem_err(e: MemError) -> ExecError {
    ExecError::Mem(e.what)
}

/// The guest address an access `op` reads or writes.
#[inline(always)]
fn address(regs: &[u64], op: Op) -> u64 {
    match op.address() {
        Some(Address::Indexed(Indexed {
            base,
            index,
            c,
            wrap,
            scale,
        })) => indexed_address(regs[base as usize], regs[index as usize], c, wrap, scale),
        Some(Address::Reg(addr)) => regs[addr as usize],
        None => unreachable!("{op:?} is not an access"),
    }
}

// The lane forms. `#[inline(always)]`, like the kernels: a row's arm calls
// them with its (operator, type) and [`ROW_LANES`] as literals, so the loop
// body is the folded instruction and the loop is unrolled; a carried arm
// calls them with what its op holds. Each reads its operands lane by lane,
// in place, and writes lane `l` of `dst` after reading lane `l` of its
// sources: `dst` may be a source, and a lane that fails leaves the lanes
// before it written.

/// `dst.lane[l] = lhs.lane[l] <op> rhs.lane[l]` for `l < w`.
// Lane `l` of three registers, one of them written: no iterator holds them.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn vbin(
    op: BinOpKind,
    ty: IrType,
    vregs: &mut [Lanes],
    (dst, lhs, rhs): (VReg, VReg, VReg),
    w: usize,
) -> Result<(), ExecError> {
    for l in 0..w {
        vregs[dst as usize][l] = bin(op, ty, vregs[lhs as usize][l], vregs[rhs as usize][l])?;
    }
    Ok(())
}

/// `dst.lane[l] = *(ty*)(p + idx.lane[l] * elem_size)` for `l < w`.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn vgather<'m>(
    mem: &'m Memory,
    cache: &mut RegionCache<'m>,
    vregs: &mut [Lanes],
    (dst, idx): (VReg, VReg),
    (p, elem_size): (u64, u32),
    ty: IrType,
    w: usize,
) -> Result<(), ExecError> {
    for l in 0..w {
        let a = gep(p, vregs[idx as usize][l], elem_size as u64);
        vregs[dst as usize][l] = decode(ty, mem.load_via(cache, a, ty.size()).map_err(mem_err)?);
    }
    Ok(())
}

/// `out.lane[l] = *(ty*)(a + l*size(ty))`: a unit-stride vector load from
/// the lane-0 address `a`.
#[inline(always)]
fn vload<'m>(
    mem: &'m Memory,
    cache: &mut RegionCache<'m>,
    a: u64,
    ty: IrType,
    out: &mut [u64],
) -> Result<(), ExecError> {
    mem.load_span(cache, a, ty.size(), out).map_err(mem_err)?;
    out.iter_mut().for_each(|o| *o = decode(ty, *o));
    Ok(())
}

/// `*(ty*)(a + l*size(ty)) = lanes[l]`: a unit-stride vector store to the
/// lane-0 address `a`.
#[inline(always)]
fn vstore<'m>(
    mem: &'m Memory,
    cache: &mut RegionCache<'m>,
    a: u64,
    ty: IrType,
    lanes: &[u64],
) -> Result<(), ExecError> {
    let mut raw: Lanes = [0; MAX_LANES];
    let raw = &mut raw[..lanes.len()];
    raw.iter_mut()
        .zip(lanes)
        .for_each(|(o, &v)| *o = encode(ty, v));
    mem.store_span(cache, a, ty.size(), raw).map_err(mem_err)
}

/// `out.lane[l] = base + l`, at `i64`. An integer add never traps, so no
/// lane can fail.
#[inline(always)]
fn viota(base: u64, out: &mut [u64]) {
    for (l, o) in out.iter_mut().enumerate() {
        *o = bin(BinOpKind::Add, IrType::I64, base, l as u64).unwrap_or_default();
    }
}

/// Generates, from the one table of kernel rows at its call site, everything
/// that depends on which (operator, type) pairs have a variant of their own:
/// the resolved op [`XOp`], the resolver from [`Op`], the dispatch loop —
/// a row's arm instantiates its kernel with the row's literals, an op without
/// one runs the arm of its own name — and the row list the tests walk. A row
/// is `Variant [FusedVariant…] = operator type(s);`; the compiler flags a pair
/// listed twice as an unreachable pattern in `resolve`. The vector sections
/// are apart from the scalar ones because a scalar pair that has a row need
/// not have a vector form a workload retires.
macro_rules! resolved_ops {
    (
        bin { $($bin:ident $bin_jmp:ident = $bop:ident $bty:ident;)* }
        cmp { $($cmp:ident $cmp_br:ident = $pred:ident $cty:ident;)* }
        cast { $($cast:ident = $cop:ident $from:ident $to:ident;)* }
        mem { $($load:ident $store:ident $load_idx:ident $store_idx:ident = $mty:ident;)* }
        vbin { $($vbin:ident = $vbop:ident $vbty:ident;)* }
        vlatch { $($latch:ident = $lpred:ident $lty:ident;)* }
        vmem { $($vload_idx:ident $vstore_idx:ident $vgather:ident = $vmty:ident;)* }
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
                $load_idx { dst: Reg, base: Reg, index: Reg, c: i32, scale: u8, wrap: IrType },
                $store_idx { src: Reg, base: Reg, index: Reg, c: i32, scale: u8, wrap: IrType },
            )*
            $($vbin { dst: VReg, lhs: VReg, rhs: VReg },)*
            $($latch { iv: Reg, bound: Reg, body: u32, exit: u32 },)*
            $(
                $vload_idx { dst: VReg, base: Reg, index: Reg, c: i32, scale: u8, wrap: IrType },
                $vstore_idx { src: VReg, base: Reg, index: Reg, c: i32, scale: u8, wrap: IrType },
                $vgather { elem_size: u32, dst: VReg, base: Reg, idx: VReg },
            )*
            /// `VIota` at [`ROW_LANES`].
            VIota { dst: VReg, base: Reg },
        }

        /// Resolves one op: to its table row's variant if its operator and
        /// type have one, to itself otherwise. Total, and 1:1.
        fn resolve(op: Op) -> XOp {
            use {BinOpKind as B, CastOp as C, CmpPred as P, IrType as T};
            match op {
                $(Op::Load { dst, addr, ty: T::$mty } => XOp::$load { dst, addr },)*
                $(Op::Store { src, addr, ty: T::$mty } => XOp::$store { src, addr },)*
                $(Op::LoadIdx { ty: T::$mty, wrap, scale, c, dst, base, index } => XOp::$load_idx { dst, base, index, c, scale, wrap },)*
                $(Op::StoreIdx { ty: T::$mty, wrap, scale, c, src, base, index } => XOp::$store_idx { src, base, index, c, scale, wrap },)*
                $(Op::VLoadIdx { ty: T::$vmty, wrap, scale, c, dst, base, index, w: ROW_LANES } => XOp::$vload_idx { dst, base, index, c, scale, wrap },)*
                $(Op::VStoreIdx { ty: T::$vmty, wrap, scale, c, src, base, index, w: ROW_LANES } => XOp::$vstore_idx { src, base, index, c, scale, wrap },)*
                $(Op::VGather { ty: T::$vmty, elem_size, dst, base, idx, w: ROW_LANES } => XOp::$vgather { elem_size, dst, base, idx },)*
                $(Op::Bin { op: B::$bop, ty: T::$bty, dst, lhs, rhs } => XOp::$bin { dst, lhs, rhs },)*
                $(Op::BinJmp { op: B::$bop, ty: T::$bty, dst, lhs, rhs, target } => XOp::$bin_jmp { dst, lhs, rhs, target },)*
                $(Op::VBin { op: B::$vbop, ty: T::$vbty, dst, lhs, rhs, w: ROW_LANES } => XOp::$vbin { dst, lhs, rhs },)*
                Op::VIota { dst, base, w: ROW_LANES } => XOp::VIota { dst, base },
                $(Op::Cmp { pred: P::$pred, ty: T::$cty, dst, lhs, rhs } => XOp::$cmp { dst, lhs, rhs },)*
                $(Op::CmpBr { pred: P::$pred, ty: T::$cty, lhs, rhs, then_t, else_t } => XOp::$cmp_br { lhs, rhs, then_t, else_t },)*
                $(Op::VLatch { pred: P::$lpred, ty: T::$lty, w: ROW_LANES, iv, bound, body, exit } => XOp::$latch { iv, bound, body, exit },)*
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
                // `*local_fuel` only on the explicit exits below. A failing
                // frame skips the write-back, so it reports the
                // batch-granted count — still deterministic, just coarser.
                let mem: &Memory = &self.state.mem;
                let mut cache = mem.region_cache();
                let (ops, consts) = (&code.ops[..], &code.consts[..]);
                let mut fuel = *local_fuel;
                let mut pc: usize = 0;
                'run: loop {
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
                            let raw = or_fault!('run, f, pc, mem.load_via(&mut cache, regs[addr as usize], T::$mty.size()).map_err(mem_err));
                            regs[dst as usize] = decode(T::$mty, raw);
                            continue;
                        })*
                        $(XOp::$store { src, addr } => {
                            let raw = encode(T::$mty, regs[src as usize]);
                            or_fault!('run, f, pc, mem.store_via(&mut cache, regs[addr as usize], T::$mty.size(), raw).map_err(mem_err));
                            continue;
                        })*
                        $(XOp::$load_idx { dst, base, index, c, scale, wrap } => {
                            let a = indexed_address(regs[base as usize], regs[index as usize], c, wrap, scale);
                            let raw = or_fault!('run, f, pc, mem.load_via(&mut cache, a, T::$mty.size()).map_err(mem_err));
                            regs[dst as usize] = decode(T::$mty, raw);
                            continue;
                        })*
                        $(XOp::$store_idx { src, base, index, c, scale, wrap } => {
                            let raw = encode(T::$mty, regs[src as usize]);
                            let a = indexed_address(regs[base as usize], regs[index as usize], c, wrap, scale);
                            or_fault!('run, f, pc, mem.store_via(&mut cache, a, T::$mty.size(), raw).map_err(mem_err));
                            continue;
                        })*
                        $(XOp::$vload_idx { dst, base, index, c, scale, wrap } => {
                            let a = indexed_address(regs[base as usize], regs[index as usize], c, wrap, scale);
                            or_fault!('run, f, pc, vload(mem, &mut cache, a, T::$vmty, &mut vregs[dst as usize][..ROW_LANES as usize]));
                            continue;
                        })*
                        $(XOp::$vstore_idx { src, base, index, c, scale, wrap } => {
                            let a = indexed_address(regs[base as usize], regs[index as usize], c, wrap, scale);
                            or_fault!('run, f, pc, vstore(mem, &mut cache, a, T::$vmty, &vregs[src as usize][..ROW_LANES as usize]));
                            continue;
                        })*
                        $(XOp::$vgather { elem_size, dst, base, idx } => {
                            let p = regs[base as usize];
                            or_fault!('run, f, pc, vgather(mem, &mut cache, vregs, (dst, idx), (p, elem_size), T::$vmty, ROW_LANES as usize));
                            continue;
                        })*
                        $(XOp::$vbin { dst, lhs, rhs } => {
                            or_fault!('run, f, pc, vbin(B::$vbop, T::$vbty, vregs, (dst, lhs, rhs), ROW_LANES as usize));
                            continue;
                        })*
                        XOp::VIota { dst, base } => {
                            viota(regs[base as usize], &mut vregs[dst as usize][..ROW_LANES as usize]);
                            continue;
                        }
                        $(XOp::$bin { dst, lhs, rhs } => {
                            regs[dst as usize] = or_fault!('run, f, pc, bin(B::$bop, T::$bty, regs[lhs as usize], regs[rhs as usize]));
                            continue;
                        })*
                        $(XOp::$bin_jmp { dst, lhs, rhs, target } => {
                            regs[dst as usize] = or_fault!('run, f, pc, bin(B::$bop, T::$bty, regs[lhs as usize], regs[rhs as usize]));
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
                        $(XOp::$latch { iv, bound, body, exit } => {
                            // An integer add never traps.
                            let next = bin(B::Add, T::$lty, regs[iv as usize], ROW_LANES.into()).unwrap_or_default();
                            regs[iv as usize] = next;
                            pc = if cmp(P::$lpred, T::$lty, next, regs[bound as usize]) { body } else { exit } as usize;
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
                        Op::Load { dst, ty, .. } | Op::LoadIdx { dst, ty, .. } => {
                            let raw = or_fault!('run, f, pc, mem.load_via(&mut cache, address(regs, op), ty.size()).map_err(mem_err));
                            regs[dst as usize] = decode(ty, raw);
                        }
                        Op::Store { src, ty, .. } | Op::StoreIdx { src, ty, .. } => {
                            let raw = encode(ty, regs[src as usize]);
                            or_fault!('run, f, pc, mem.store_via(&mut cache, address(regs, op), ty.size(), raw).map_err(mem_err));
                        }
                        Op::Gep { dst, base, index, elem_size } => {
                            regs[dst as usize] = gep(regs[base as usize], regs[index as usize], elem_size as u64);
                        }
                        Op::Bin { op, ty, dst, lhs, rhs } => {
                            regs[dst as usize] = or_fault!('run, f, pc, bin(op, ty, regs[lhs as usize], regs[rhs as usize]));
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
                            regs[dst as usize] = or_fault!('run, f, pc, bin(op, ty, regs[lhs as usize], regs[rhs as usize]));
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
                        Op::VIota { dst, base, w } => viota(regs[base as usize], &mut vregs[dst as usize][..w as usize]),
                        Op::VBroadcast { dst, src, w } => {
                            vregs[dst as usize][..w as usize].fill(regs[src as usize]);
                        }
                        Op::VExtract { dst, src, lane } => {
                            regs[dst as usize] = vregs[src as usize][lane as usize];
                        }
                        Op::VLoadIdx { dst, ty, w, .. } => {
                            let a = address(regs, op);
                            or_fault!('run, f, pc, vload(mem, &mut cache, a, ty, &mut vregs[dst as usize][..w as usize]));
                        }
                        Op::VStoreIdx { src, ty, w, .. } => {
                            let a = address(regs, op);
                            or_fault!('run, f, pc, vstore(mem, &mut cache, a, ty, &vregs[src as usize][..w as usize]));
                        }
                        Op::VGather { elem_size, dst, base, idx, ty, w } => {
                            let p = regs[base as usize];
                            or_fault!('run, f, pc, vgather(mem, &mut cache, vregs, (dst, idx), (p, elem_size), ty, w as usize));
                        }
                        Op::VScatter { elem_size, src, base, idx, ty, w } => {
                            let (p, iv) = (regs[base as usize], vregs[idx as usize]);
                            for (l, &v) in vregs[src as usize][..w as usize].iter().enumerate() {
                                let a = gep(p, iv[l], elem_size as u64);
                                or_fault!('run, f, pc, mem.store_via(&mut cache, a, ty.size(), encode(ty, v)).map_err(mem_err));
                            }
                        }
                        Op::VBin { op, ty, dst, lhs, rhs, w } => {
                            or_fault!('run, f, pc, vbin(op, ty, vregs, (dst, lhs, rhs), w as usize));
                        }
                        Op::VCast { op, from, to, dst, src, w } => {
                            for l in 0..w as usize {
                                vregs[dst as usize][l] = cast(op, from, to, vregs[src as usize][l]);
                            }
                        }
                        Op::VReduce { op, ty, dst, src, w } => {
                            let v = &vregs[src as usize][..w as usize];
                            let folded = v[1..].iter().try_fold(v[0], |acc, &lane| bin(op, ty, acc, lane));
                            regs[dst as usize] = or_fault!('run, f, pc, folded);
                        }
                        Op::VLatch { pred, ty, w, iv, bound, body, exit } => {
                            // An integer add never traps.
                            let next = bin(B::Add, ty, regs[iv as usize], w.into()).unwrap_or_default();
                            regs[iv as usize] = next;
                            pc = if cmp(pred, ty, next, regs[bound as usize]) { body } else { exit } as usize;
                        }
                        Op::VEpi { pred, ty, iv, bound, target } => {
                            if omplt_trace::active() {
                                count_epilogue(pred, ty, regs[iv as usize], regs[bound as usize]);
                            }
                            pc = target as usize;
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
            /// `Load`, `Store`, `LoadIdx` and `StoreIdx`.
            Mem(IrType),
            /// `VBin` at [`ROW_LANES`].
            VBin(BinOpKind, IrType),
            /// `VLatch` at [`ROW_LANES`].
            VLatch(CmpPred, IrType),
            /// `VLoadIdx`, `VStoreIdx` and `VGather` at [`ROW_LANES`].
            VMem(IrType),
            /// `VIota` at [`ROW_LANES`].
            Iota,
        }

        /// Every row of the table, in table order.
        #[doc(hidden)]
        pub const KERNEL_ROWS: &[KernelRow] = &[
            $(KernelRow::Bin(BinOpKind::$bop, IrType::$bty),)*
            $(KernelRow::Cmp(CmpPred::$pred, IrType::$cty),)*
            $(KernelRow::Cast(CastOp::$cop, IrType::$from, IrType::$to),)*
            $(KernelRow::Mem(IrType::$mty),)*
            $(KernelRow::VBin(BinOpKind::$vbop, IrType::$vbty),)*
            $(KernelRow::VLatch(CmpPred::$lpred, IrType::$lty),)*
            $(KernelRow::VMem(IrType::$vmty),)*
            KernelRow::Iota,
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
// pair's variants, then the literals their arms call the kernel with. A `bin`
// row's are `Bin` and the fused `BinJmp`; a `cmp` row's are `Cmp` and the
// fused `CmpBr`; a `mem` row's, for a type, are the load and store and the
// indexed load and store whose address the lowerer folded. The vector rows
// follow the same rule at `ROW_LANES`, the only width a workload widens at:
// of the 2 984 175 ops the seed-11 `exec_vm` kernels retire at width 4, `vbin
// srem i32` is 475 280, `vbin add i64` 296 600, `vbin mul i32` 226 320,
// `viota` 187 780, `vlatch slt i32` 170 280, `vloadidx i32` 112 640, `vbin add
// i32` 108 820, `vbin sub i64` 82 500, `vgather i32` 70 000, `vlatch ult i64`
// and `vstoreidx i32` 56 320 each, and `vlatch ult i32` 17 500. A `vbin` row's
// variant is `VBin`; a `vlatch` row's is `VLatch`, which steps by its width
// before it compares; a `vmem` row's are the unit-stride `VLoadIdx` and
// `VStoreIdx` and the `VGather` lanes. A vector arm reads its lanes in place,
// with no second dispatch on the op. Every pair without a row — f32, unsigned
// division and shifts, the narrow integer types, most casts, the f64 and i64
// lanes, `vreduce` and `vbcast` (1 062 and 2 131 ops), a vector op at another
// width — runs the same kernel with its operator, type and width read from the
// op. A row is added when a measured workload retires its pair and deleted
// when none does any more: no `sext` has a row, since the lowerer makes every
// cast that keeps its payload a `mov` (`omplt_ir::arith::keeps_payload`).
/// The width of every vector variant of the table: the one the `exec_vm`
/// workload widens at. (A variant has no room for its width in the 16 bytes
/// a resolved op may take.)
#[doc(hidden)]
pub const ROW_LANES: u8 = 4;

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
        LoadI32 StoreI32 LoadIdxI32 StoreIdxI32 = I32;
        LoadI64 StoreI64 LoadIdxI64 StoreIdxI64 = I64;
        LoadF64 StoreF64 LoadIdxF64 StoreIdxF64 = F64;
    }
    vbin {
        VAddI32 = Add I32; VAddI64 = Add I64; VSubI64 = Sub I64;
        VMulI32 = Mul I32; VSRemI32 = SRem I32;
    }
    vlatch {
        SltI32Latch = Slt I32; UltI32Latch = Ult I32; UltI64Latch = Ult I64;
    }
    vmem {
        VLoadIdxI32 VStoreIdxI32 VGatherI32 = I32;
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
