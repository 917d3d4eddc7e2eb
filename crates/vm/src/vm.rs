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
//! fuel — to a private execution form, [`XOp`]: an op whose kind and
//! (operator, type) pair have a row in the table at the bottom of this file
//! becomes that row's variant, whose dispatch arm is the IR's own arithmetic
//! kernel (`omplt_ir::arith::{bin, cmp, cast, decode, encode}`) called with
//! the operator and type as literals; every other op is carried as the `Op`
//! it is and runs the same kernel with the operator and type it holds. The row
//! variants, the resolver and their arms all come from that one table, and a
//! row is there because a measured workload retires its form of the pair —
//! it buys speed, never meaning: each of the 36 variants is at least 0.1 % of
//! the ops some seed-11 workload retires (the `exec_vm` kernels also at the
//! default width 0), and a kind of op that retires a pair gives no other
//! kind a variant for it. The vector pairs have rows at
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
/// one runs the arm of its own name — and the row list the tests walk. The
/// table has one section per variant kind, and a row is `Variant = operator
/// type(s);`: each row makes exactly one variant, so a pair one kind of op
/// retires does not give the other kinds a variant nothing runs. The compiler
/// flags a pair listed twice in a section as an unreachable pattern in
/// `resolve`.
macro_rules! resolved_ops {
    (
        bin { $($bin:ident = $bop:ident $bty:ident;)* }
        binjmp { $($bin_jmp:ident = $jop:ident $jty:ident;)* }
        cmp { $($cmp:ident = $pred:ident $cty:ident;)* }
        cmpbr { $($cmp_br:ident = $bpred:ident $brty:ident;)* }
        cast { $($cast:ident = $cop:ident $from:ident $to:ident;)* }
        load { $($load:ident = $lty:ident;)* }
        store { $($store:ident = $sty:ident;)* }
        loadidx { $($load_idx:ident = $lity:ident;)* }
        storeidx { $($store_idx:ident = $sity:ident;)* }
        vbin { $($vbin:ident = $vbop:ident $vbty:ident;)* }
        vlatch { $($latch:ident = $lpred:ident $vlty:ident;)* }
        vloadidx { $($vload_idx:ident = $vlity:ident;)* }
        vstoreidx { $($vstore_idx:ident = $vsity:ident;)* }
        vgather { $($vgather:ident = $vgty:ident;)* }
    ) => {
        /// One op as the dispatch loop executes it: a table row — an op
        /// whose operator and type are the variant — or the [`Op`] itself.
        #[derive(Clone, Copy)]
        enum XOp {
            /// An op with no row, executed as it is.
            Carried(Op),
            $($bin { dst: Reg, lhs: Reg, rhs: Reg },)*
            $($bin_jmp { dst: Reg, lhs: Reg, rhs: Reg, target: u32 },)*
            $($cmp { dst: Reg, lhs: Reg, rhs: Reg },)*
            $($cmp_br { lhs: Reg, rhs: Reg, then_t: u32, else_t: u32 },)*
            $($cast { dst: Reg, src: Reg },)*
            $($load { dst: Reg, addr: Reg },)*
            $($store { src: Reg, addr: Reg },)*
            $($load_idx { dst: Reg, base: Reg, index: Reg, c: i32, scale: u8, wrap: IrType },)*
            $($store_idx { src: Reg, base: Reg, index: Reg, c: i32, scale: u8, wrap: IrType },)*
            $($vbin { dst: VReg, lhs: VReg, rhs: VReg },)*
            $($latch { iv: Reg, bound: Reg, body: u32, exit: u32 },)*
            $($vload_idx { dst: VReg, base: Reg, index: Reg, c: i32, scale: u8, wrap: IrType },)*
            $($vstore_idx { src: VReg, base: Reg, index: Reg, c: i32, scale: u8, wrap: IrType },)*
            $($vgather { elem_size: u32, dst: VReg, base: Reg, idx: VReg },)*
            /// `VIota` at [`ROW_LANES`].
            VIota { dst: VReg, base: Reg },
        }

        /// Resolves one op: to its table row's variant if its operator and
        /// type have one, to itself otherwise. Total, and 1:1.
        fn resolve(op: Op) -> XOp {
            use {BinOpKind as B, CastOp as C, CmpPred as P, IrType as T};
            match op {
                $(Op::Load { dst, addr, ty: T::$lty } => XOp::$load { dst, addr },)*
                $(Op::Store { src, addr, ty: T::$sty } => XOp::$store { src, addr },)*
                $(Op::LoadIdx { ty: T::$lity, wrap, scale, c, dst, base, index } => XOp::$load_idx { dst, base, index, c, scale, wrap },)*
                $(Op::StoreIdx { ty: T::$sity, wrap, scale, c, src, base, index } => XOp::$store_idx { src, base, index, c, scale, wrap },)*
                $(Op::VLoadIdx { ty: T::$vlity, wrap, scale, c, dst, base, index, w: ROW_LANES } => XOp::$vload_idx { dst, base, index, c, scale, wrap },)*
                $(Op::VStoreIdx { ty: T::$vsity, wrap, scale, c, src, base, index, w: ROW_LANES } => XOp::$vstore_idx { src, base, index, c, scale, wrap },)*
                $(Op::VGather { ty: T::$vgty, elem_size, dst, base, idx, w: ROW_LANES } => XOp::$vgather { elem_size, dst, base, idx },)*
                $(Op::Bin { op: B::$bop, ty: T::$bty, dst, lhs, rhs } => XOp::$bin { dst, lhs, rhs },)*
                $(Op::BinJmp { op: B::$jop, ty: T::$jty, dst, lhs, rhs, target } => XOp::$bin_jmp { dst, lhs, rhs, target },)*
                $(Op::VBin { op: B::$vbop, ty: T::$vbty, dst, lhs, rhs, w: ROW_LANES } => XOp::$vbin { dst, lhs, rhs },)*
                Op::VIota { dst, base, w: ROW_LANES } => XOp::VIota { dst, base },
                $(Op::Cmp { pred: P::$pred, ty: T::$cty, dst, lhs, rhs } => XOp::$cmp { dst, lhs, rhs },)*
                $(Op::CmpBr { pred: P::$bpred, ty: T::$brty, lhs, rhs, then_t, else_t } => XOp::$cmp_br { lhs, rhs, then_t, else_t },)*
                $(Op::VLatch { pred: P::$lpred, ty: T::$vlty, w: ROW_LANES, iv, bound, body, exit } => XOp::$latch { iv, bound, body, exit },)*
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
                            let raw = or_fault!('run, f, pc, mem.load_via(&mut cache, regs[addr as usize], T::$lty.size()).map_err(mem_err));
                            regs[dst as usize] = decode(T::$lty, raw);
                            continue;
                        })*
                        $(XOp::$store { src, addr } => {
                            let raw = encode(T::$sty, regs[src as usize]);
                            or_fault!('run, f, pc, mem.store_via(&mut cache, regs[addr as usize], T::$sty.size(), raw).map_err(mem_err));
                            continue;
                        })*
                        $(XOp::$load_idx { dst, base, index, c, scale, wrap } => {
                            let a = indexed_address(regs[base as usize], regs[index as usize], c, wrap, scale);
                            let raw = or_fault!('run, f, pc, mem.load_via(&mut cache, a, T::$lity.size()).map_err(mem_err));
                            regs[dst as usize] = decode(T::$lity, raw);
                            continue;
                        })*
                        $(XOp::$store_idx { src, base, index, c, scale, wrap } => {
                            let raw = encode(T::$sity, regs[src as usize]);
                            let a = indexed_address(regs[base as usize], regs[index as usize], c, wrap, scale);
                            or_fault!('run, f, pc, mem.store_via(&mut cache, a, T::$sity.size(), raw).map_err(mem_err));
                            continue;
                        })*
                        $(XOp::$vload_idx { dst, base, index, c, scale, wrap } => {
                            let a = indexed_address(regs[base as usize], regs[index as usize], c, wrap, scale);
                            or_fault!('run, f, pc, vload(mem, &mut cache, a, T::$vlity, &mut vregs[dst as usize][..ROW_LANES as usize]));
                            continue;
                        })*
                        $(XOp::$vstore_idx { src, base, index, c, scale, wrap } => {
                            let a = indexed_address(regs[base as usize], regs[index as usize], c, wrap, scale);
                            or_fault!('run, f, pc, vstore(mem, &mut cache, a, T::$vsity, &vregs[src as usize][..ROW_LANES as usize]));
                            continue;
                        })*
                        $(XOp::$vgather { elem_size, dst, base, idx } => {
                            let p = regs[base as usize];
                            or_fault!('run, f, pc, vgather(mem, &mut cache, vregs, (dst, idx), (p, elem_size), T::$vgty, ROW_LANES as usize));
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
                            regs[dst as usize] = or_fault!('run, f, pc, bin(B::$jop, T::$jty, regs[lhs as usize], regs[rhs as usize]));
                            pc = target as usize;
                            continue;
                        })*
                        $(XOp::$cmp { dst, lhs, rhs } => {
                            regs[dst as usize] = cmp(P::$pred, T::$cty, regs[lhs as usize], regs[rhs as usize]) as u64;
                            continue;
                        })*
                        $(XOp::$cmp_br { lhs, rhs, then_t, else_t } => {
                            let taken = cmp(P::$bpred, T::$brty, regs[lhs as usize], regs[rhs as usize]);
                            pc = if taken { then_t } else { else_t } as usize;
                            continue;
                        })*
                        $(XOp::$latch { iv, bound, body, exit } => {
                            // An integer add never traps.
                            let next = bin(B::Add, T::$vlty, regs[iv as usize], ROW_LANES.into()).unwrap_or_default();
                            regs[iv as usize] = next;
                            pc = if cmp(P::$lpred, T::$vlty, next, regs[bound as usize]) { body } else { exit } as usize;
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

        /// One row of the kernel table: a variant of its own for an
        /// (operator, type) pair. For the tests, which walk [`KERNEL_ROWS`].
        #[doc(hidden)]
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum KernelRow {
            Bin(BinOpKind, IrType),
            BinJmp(BinOpKind, IrType),
            Cmp(CmpPred, IrType),
            CmpBr(CmpPred, IrType),
            /// Source and destination type.
            Cast(CastOp, IrType, IrType),
            /// A load from an address register.
            Load(IrType),
            /// A store to an address register.
            Store(IrType),
            LoadIdx(IrType),
            StoreIdx(IrType),
            /// The vector rows, each at [`ROW_LANES`].
            VBin(BinOpKind, IrType),
            VLatch(CmpPred, IrType),
            VLoadIdx(IrType),
            VStoreIdx(IrType),
            VGather(IrType),
            Iota,
        }

        /// Every row of the table, in table order.
        #[doc(hidden)]
        pub const KERNEL_ROWS: &[KernelRow] = &[
            $(KernelRow::Bin(BinOpKind::$bop, IrType::$bty),)*
            $(KernelRow::BinJmp(BinOpKind::$jop, IrType::$jty),)*
            $(KernelRow::Cmp(CmpPred::$pred, IrType::$cty),)*
            $(KernelRow::CmpBr(CmpPred::$bpred, IrType::$brty),)*
            $(KernelRow::Cast(CastOp::$cop, IrType::$from, IrType::$to),)*
            $(KernelRow::Load(IrType::$lty),)*
            $(KernelRow::Store(IrType::$sty),)*
            $(KernelRow::LoadIdx(IrType::$lity),)*
            $(KernelRow::StoreIdx(IrType::$sity),)*
            $(KernelRow::VBin(BinOpKind::$vbop, IrType::$vbty),)*
            $(KernelRow::VLatch(CmpPred::$lpred, IrType::$vlty),)*
            $(KernelRow::VLoadIdx(IrType::$vlity),)*
            $(KernelRow::VStoreIdx(IrType::$vsity),)*
            $(KernelRow::VGather(IrType::$vgty),)*
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

// The kernel table: a variant for each (kind of op, operator, type) that is
// at least 0.1 % of the ops some `BENCHMARK.json` workload retires, and for
// nothing else. The `exec_vm` kernels count twice: at width 4, as the workload
// runs them, and at width 0, the default every VM run without
// `--vector-width` gets. Each row's comment is its largest share: the
// retired ops per variant, counted at the top of the dispatch loop of an
// instrumented build over each workload's seed-11 programs once
// (`compile_classic` 482 873 ops, `compile_irbuilder` 503 027, `exec_vm`
// 2 984 175 at width 4 and 9 132 978 at width 0, `daemon_mix`'s hot set
// 25 408), with the same keep/delete decisions at seed 12. A row is `Variant
// = operator type(s);` in the section of its kind: `bin`/`binjmp` (the add
// fused with its jump), `cmp`/`cmpbr` (the compare fused with its branch),
// `load`/`store` (at an address register), `loadidx`/`storeidx` (whose
// address the lowerer folded), and the vector kinds at `ROW_LANES`, the only
// width a workload widens at: `vlatch` steps by its width before it
// compares, `vloadidx`/`vstoreidx` are unit-stride, `vgather` reads its lanes
// one by one. A vector arm reads its lanes in place, with no second dispatch
// on the op. Every other op runs the same kernel with its operator, type and
// width read from the op; that includes f32, the narrow integer types,
// unsigned division and shifts, most casts, the fused ops after a sub, a mul,
// a rem or a float op, the unfused `slt i32`, `ult i64` and `ule i64`, the
// `i32`/`f64` address-register loads, the `f64` address-register store and
// the indexed `i64` accesses (none of which any workload retires), `vreduce`
// and `vbcast` (1 062 and 2 131 ops), and a vector op at another width. A row
// is added when a measured workload retires its pair and deleted when none
// does any more: no `sext` has a row, since the lowerer makes every cast that
// keeps its payload a `mov` (`omplt_ir::arith::keeps_payload`).
/// The width of every vector variant of the table: the one the `exec_vm`
/// workload widens at. (A variant has no room for its width in the 16 bytes
/// a resolved op may take.)
#[doc(hidden)]
pub const ROW_LANES: u8 = 4;

resolved_ops! {
    bin {
        AddI32 = Add I32;       //   130 427, 25.93 % of compile_irbuilder
        AddI64 = Add I64;       // 1 540 936, 16.87 % of exec_vm at width 0
        SubI32 = Sub I32;       //    11 083,  0.37 % of exec_vm
        SubI64 = Sub I64;       //   330 000,  3.61 % of exec_vm at width 0
        MulI32 = Mul I32;       //   926 434, 10.14 % of exec_vm at width 0
        SRemI32 = SRem I32;     // 1 913 075, 20.95 % of exec_vm at width 0
        FAddF64 = FAdd F64;     //   230 788,  7.73 % of exec_vm
        FMulF64 = FMul F64;     //    83 332,  2.79 % of exec_vm
    }
    binjmp {
        AddI32Jmp = Add I32;    //    64 652, 13.39 % of compile_classic
        AddI64Jmp = Add I64;    //     2 048,  8.06 % of daemon_mix
    }
    cmp {
        UltI32 = Ult I32;       //     1 944,  0.40 % of compile_classic
    }
    cmpbr {
        SltI32Br = Slt I32;     //    45 067,  9.33 % of compile_classic
        UltI32Br = Ult I32;     //    29 090,  5.78 % of compile_irbuilder
        UltI64Br = Ult I64;     //   226 168,  2.48 % of exec_vm at width 0
        UleI64Br = Ule I64;     //     2 240,  8.82 % of daemon_mix
    }
    cast {
        TruncI64I32 = Trunc I64 I32;    //     2 048,  8.06 % of daemon_mix
        SiToFpI32F64 = SiToFp I32 F64;  //    19 208,  0.64 % of exec_vm
    }
    load {
        LoadI64 = I64;          //     2 672, 10.52 % of daemon_mix
    }
    store {
        StoreI32 = I32;         //        64,  0.25 % of daemon_mix
        StoreI64 = I64;         //       384,  1.51 % of daemon_mix
    }
    loadidx {
        LoadIdxI32 = I32;       //    59 488, 12.32 % of compile_classic
        LoadIdxF64 = F64;       //   304 516, 10.20 % of exec_vm
    }
    storeidx {
        StoreIdxI32 = I32;      //    54 728, 11.33 % of compile_classic
        StoreIdxF64 = F64;      //    83 332,  2.79 % of exec_vm
    }
    vbin {
        VAddI32 = Add I32;      //   108 820,  3.65 % of exec_vm
        VAddI64 = Add I64;      //   296 600,  9.94 % of exec_vm
        VSubI64 = Sub I64;      //    82 500,  2.76 % of exec_vm
        VMulI32 = Mul I32;      //   226 320,  7.58 % of exec_vm
        VSRemI32 = SRem I32;    //   475 280, 15.93 % of exec_vm
    }
    vlatch {
        SltI32Latch = Slt I32;  //   170 280,  5.71 % of exec_vm
        UltI32Latch = Ult I32;  //    17 500,  0.59 % of exec_vm
        UltI64Latch = Ult I64;  //    56 320,  1.89 % of exec_vm
    }
    vloadidx {
        VLoadIdxI32 = I32;      //   112 640,  3.77 % of exec_vm
    }
    vstoreidx {
        VStoreIdxI32 = I32;     //    56 320,  1.89 % of exec_vm
    }
    vgather {
        VGatherI32 = I32;       //    70 000,  2.35 % of exec_vm
    }
    // and `VIota`:             //   187 780,  6.29 % of exec_vm
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
