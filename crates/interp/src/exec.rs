//! The IR interpreter: executes `omplt-ir` modules, dispatching runtime
//! calls (OpenMP + I/O shims) to [`crate::runtime`].
//!
//! The guest's arithmetic is not defined here: it is the payload kernels of
//! [`omplt_ir::arith`], the same functions the compiler folds constants
//! with. The interpreter's frames hold tagged [`RtVal`]s and reach the
//! kernels through the coercing wrappers [`exec_bin`], [`exec_cmp`],
//! [`exec_cast`], [`decode_scalar`] and [`encode_scalar`]; the bytecode VM
//! keeps payloads in its registers — its verifier has proven each register's
//! class — and calls the kernels directly.

use crate::engine::{Callee, ChunkRecord, Engine, RunState};
use crate::memory::Memory;
use crate::runtime::{self, RuntimeConfig, ThreadCtx};
use omplt_ir::arith::{bin, cast, cmp, decode, encode, gep, Trap};
use omplt_ir::{
    BinOpKind, BlockId, CastOp, CmpPred, Function, Inst, IrType, Module, SymbolId, Terminator,
    Value,
};
use std::collections::HashMap;
use std::sync::atomic::Ordering;

/// A runtime value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RtVal {
    /// Integer (sign-extended to 64-bit storage).
    I(i64),
    /// Floating point (f32 values round-trip through f64 storage).
    F(f64),
    /// Guest pointer.
    P(u64),
}

impl RtVal {
    /// Integer payload (pointers coerce — C-style).
    pub fn as_i(self) -> i64 {
        match self {
            RtVal::I(v) => v,
            RtVal::P(p) => p as i64,
            RtVal::F(f) => f as i64,
        }
    }

    /// Float payload.
    pub fn as_f(self) -> f64 {
        match self {
            RtVal::F(v) => v,
            RtVal::I(v) => v as f64,
            RtVal::P(p) => p as f64,
        }
    }

    /// Pointer payload.
    pub fn as_p(self) -> u64 {
        match self {
            RtVal::P(p) => p,
            RtVal::I(v) => v as u64,
            RtVal::F(_) => 0,
        }
    }
}

/// Execution failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// Division or remainder by zero.
    DivByZero,
    /// Memory fault.
    Mem(String),
    /// `unreachable` executed.
    Unreachable,
    /// The step budget was exhausted (guards against infinite loops).
    FuelExhausted,
    /// The per-job wall-clock deadline passed (checked cooperatively at
    /// fuel-refill boundaries). Carries the configured timeout in ms.
    DeadlineExpired(u64),
    /// Call to an unknown function.
    UnknownFunction(String),
    /// Malformed IR encountered at runtime.
    Malformed(String),
    /// A spawned team thread panicked.
    ThreadPanic,
    /// The barrier watchdog detected a team member that can never arrive
    /// (it exited or panicked) while others wait. The message names the
    /// lost and stuck threads.
    BarrierDeadlock(String),
    /// Internal marker for the `runtime.lost-thread` fault injection: the
    /// carrying thread unwinds out of the parallel region without reaching
    /// the barrier. `fork_call` converts it to a watchdog diagnostic; it
    /// never escapes to users.
    LostThread(u32),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::DivByZero => write!(f, "division by zero"),
            ExecError::Mem(m) => write!(f, "memory error: {m}"),
            ExecError::Unreachable => write!(f, "reached 'unreachable'"),
            ExecError::FuelExhausted => write!(f, "step budget exhausted (infinite loop?)"),
            ExecError::DeadlineExpired(ms) => {
                write!(
                    f,
                    "wall-clock deadline of {ms} ms exceeded ('--exec-timeout')"
                )
            }
            ExecError::UnknownFunction(n) => write!(f, "call to unknown function '{n}'"),
            ExecError::Malformed(m) => write!(f, "malformed IR: {m}"),
            ExecError::ThreadPanic => write!(f, "a team thread panicked"),
            ExecError::BarrierDeadlock(m) => write!(f, "{m}"),
            ExecError::LostThread(g) => {
                write!(f, "team thread {g} was lost before reaching the barrier")
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<Trap> for ExecError {
    /// Out of line and cold on purpose: every `bin(..)?` arm of the VM's
    /// dispatch loop contains this conversion, and inlined it put a `String`
    /// construction into each of them (`run_ms` on `exec_vm` +12 %).
    #[cold]
    #[inline(never)]
    fn from(t: Trap) -> ExecError {
        match t {
            Trap::DivByZero => ExecError::DivByZero,
            Trap::PtrArith => ExecError::Malformed("non-additive pointer arithmetic".into()),
        }
    }
}

/// Result of a completed run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Everything printed through the `print_*` shims.
    pub stdout: String,
    /// `main`'s return value (0 when `main` returns void).
    pub exit_code: i64,
    /// Number of tasks created by `taskloop` constructs — the paper notes
    /// the unroll factor becomes *observable* through this count.
    pub tasks_created: u64,
    /// Every schedule chunk served during the run, sorted. Empty unless
    /// [`RuntimeConfig::log_chunks`] was set.
    pub chunk_log: Vec<ChunkRecord>,
    /// Final byte contents of every module global, by name — the observable
    /// memory state differential tests compare across backends.
    pub final_globals: Vec<(String, Vec<u8>)>,
    /// Total ops the engine retired during the run — the same number the
    /// `interp.ops.retired` / `vm.ops.retired` trace counters report, but
    /// available without a trace session. Deterministic for a given module
    /// and configuration (the CI drift guard pins this), which is what the
    /// autotuner's counter-based cost model ranks candidates by.
    pub ops_retired: u64,
}

/// Shared interpreter state (one per run; `Sync`, shared across team
/// threads).
pub struct Interpreter<'m> {
    /// The run state the runtime shares with the VM.
    pub state: RunState<'m>,
    /// Every symbol's call target, resolved once here so no call looks a
    /// name up.
    targets: Vec<Callee<&'m Function>>,
}

impl<'m> Interpreter<'m> {
    /// Creates an interpreter and materializes module globals.
    pub fn new(module: &'m Module, cfg: RuntimeConfig) -> Interpreter<'m> {
        let state = RunState::new(module, cfg, "interp");
        let mut defined: HashMap<&str, &Function> = HashMap::new();
        for f in &module.functions {
            defined.entry(&f.name).or_insert(f);
        }
        let names = module.symbols().iter().zip(0..);
        let resolve = |(name, i): (&std::sync::Arc<str>, u32)| {
            state.resolve(SymbolId(i), defined.get(&**name).copied())
        };
        let targets = names.map(resolve).collect();
        Interpreter { state, targets }
    }

    /// Calls what `sym` resolved to.
    fn call(
        &self,
        sym: SymbolId,
        args: Vec<RtVal>,
        ctx: &ThreadCtx,
    ) -> Result<Option<RtVal>, ExecError> {
        match self.targets[sym.0 as usize] {
            Callee::Defined(f) => self.exec_function(f, args, ctx),
            Callee::Runtime(rt) => runtime::dispatch(self, rt, args, ctx),
            Callee::Unknown(sym) => Err(self.state.unknown_function(sym)),
        }
    }

    /// Runs `main` and collects results.
    pub fn run_main(&self) -> Result<RunResult, ExecError> {
        let _span = omplt_trace::span("interp.run");
        self.run_function("main", vec![])
    }

    /// Runs an arbitrary void/intret function (for kernels without `main`).
    pub fn run_function(&self, name: &str, args: Vec<RtVal>) -> Result<RunResult, ExecError> {
        let ret = self.call_by_name(name, args, &ThreadCtx::initial())?;
        Ok(self.state.finish(ret))
    }

    fn eval(&self, frame: &[Option<RtVal>], args: &[RtVal], v: Value) -> Result<RtVal, ExecError> {
        Ok(match v {
            Value::Inst(id) => frame[id.0 as usize]
                .ok_or_else(|| ExecError::Malformed(format!("use of undefined %{}", id.0)))?,
            Value::Arg(i) => *args
                .get(i as usize)
                .ok_or_else(|| ExecError::Malformed(format!("missing argument {i}")))?,
            Value::ConstInt { val, .. } => RtVal::I(val),
            Value::ConstFloat { bits, .. } => RtVal::F(f64::from_bits(bits)),
            Value::Global(s) => RtVal::P(self.state.global_addr(s)?),
            Value::FuncRef(s) => RtVal::P(Memory::encode_fn_ptr(s.0)),
            Value::Undef(ty) => {
                if ty.is_float() {
                    RtVal::F(0.0)
                } else {
                    RtVal::I(0)
                }
            }
        })
    }

    /// Executes one function body.
    pub fn exec_function(
        &self,
        f: &Function,
        args: Vec<RtVal>,
        ctx: &ThreadCtx,
    ) -> Result<Option<RtVal>, ExecError> {
        let mut retired = 0u64;
        let r = self.exec_function_inner(f, args, ctx, &mut retired);
        self.state.ops.fetch_add(retired, Ordering::Relaxed);
        if omplt_trace::active() {
            omplt_trace::count("interp.ops.retired", retired);
        }
        r
    }

    fn exec_function_inner(
        &self,
        f: &Function,
        args: Vec<RtVal>,
        ctx: &ThreadCtx,
        retired: &mut u64,
    ) -> Result<Option<RtVal>, ExecError> {
        let mut frame: Vec<Option<RtVal>> = vec![None; f.insts.len()];
        let mut cur = f.entry();
        let mut prev: Option<BlockId> = None;
        // A per-frame local counter, refilled in batches from the shared one.
        let mut local_fuel: u64 = 0;
        // Phase 1's values, reused by every block the frame enters.
        let mut phi_updates: Vec<(usize, RtVal)> = Vec::new();

        loop {
            let block = f.block(cur);

            // Phase 1: evaluate all phis against the incoming edge
            // simultaneously (textbook simultaneous-assignment semantics).
            for &iid in &block.insts {
                match f.inst(iid) {
                    Inst::Phi { incoming, .. } => {
                        let from = prev.ok_or_else(|| {
                            ExecError::Malformed("phi in entry block".to_string())
                        })?;
                        let (_, val) =
                            incoming.iter().find(|(b, _)| *b == from).ok_or_else(|| {
                                ExecError::Malformed(format!(
                                    "phi %{} has no edge for predecessor {}",
                                    iid.0, from.0
                                ))
                            })?;
                        phi_updates.push((iid.0 as usize, self.eval(&frame, &args, *val)?));
                    }
                    _ => break,
                }
            }
            for (slot, v) in phi_updates.drain(..) {
                frame[slot] = Some(v);
            }

            // Phase 2: the straight-line instructions.
            for &iid in &block.insts {
                if matches!(f.inst(iid), Inst::Phi { .. }) {
                    continue;
                }
                if local_fuel == 0 {
                    local_fuel = self.state.refill()?;
                }
                local_fuel -= 1;
                *retired += 1;
                let result = self.exec_inst(f, &frame, &args, f.inst(iid), ctx)?;
                frame[iid.0 as usize] = result;
            }

            // Phase 3: the terminator.
            let term = block.term.as_ref().ok_or_else(|| {
                ExecError::Malformed(format!("unterminated block {}", block.name))
            })?;
            match term {
                Terminator::Br { target, .. } => {
                    prev = Some(cur);
                    cur = *target;
                }
                Terminator::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                    ..
                } => {
                    let c = self.eval(&frame, &args, *cond)?.as_i();
                    prev = Some(cur);
                    cur = if c != 0 { *then_bb } else { *else_bb };
                }
                Terminator::Ret(v) => {
                    return match v {
                        Some(v) => Ok(Some(self.eval(&frame, &args, *v)?)),
                        None => Ok(None),
                    };
                }
                Terminator::Unreachable => return Err(ExecError::Unreachable),
            }
        }
    }

    fn exec_inst(
        &self,
        f: &Function,
        frame: &[Option<RtVal>],
        args: &[RtVal],
        inst: &Inst,
        ctx: &ThreadCtx,
    ) -> Result<Option<RtVal>, ExecError> {
        let mem: &Memory = &self.state.mem;
        Ok(match inst {
            Inst::Phi { .. } => unreachable!("phis handled in phase 1"),
            Inst::Alloca { ty, count, .. } => {
                Some(RtVal::P(mem.alloc(ty.size().max(1) * (*count).max(1))))
            }
            Inst::Load { ty, ptr } => {
                let p = self.eval(frame, args, *ptr)?.as_p();
                let raw = mem.load(p, ty.size()).map_err(|e| ExecError::Mem(e.what))?;
                Some(decode_scalar(*ty, raw))
            }
            Inst::Store { val, ptr } => {
                let ty = f.value_type(*val);
                let v = self.eval(frame, args, *val)?;
                let p = self.eval(frame, args, *ptr)?.as_p();
                mem.store(p, ty.size(), encode_scalar(ty, v))
                    .map_err(|e| ExecError::Mem(e.what))?;
                None
            }
            Inst::Gep {
                ptr,
                index,
                elem_size,
            } => {
                let p = self.eval(frame, args, *ptr)?.as_p();
                let i = self.eval(frame, args, *index)?.as_i();
                Some(RtVal::P(gep(p, i as u64, *elem_size)))
            }
            Inst::Bin { op, lhs, rhs } => {
                let ty = f.value_type(*lhs);
                let a = self.eval(frame, args, *lhs)?;
                let b = self.eval(frame, args, *rhs)?;
                Some(exec_bin(*op, ty, a, b)?)
            }
            Inst::Cmp { pred, lhs, rhs } => {
                let ty = f.value_type(*lhs);
                let a = self.eval(frame, args, *lhs)?;
                let b = self.eval(frame, args, *rhs)?;
                Some(RtVal::I(exec_cmp(*pred, ty, a, b) as i64))
            }
            Inst::Cast { op, val, to } => {
                let from = f.value_type(*val);
                let v = self.eval(frame, args, *val)?;
                Some(exec_cast(*op, from, *to, v))
            }
            Inst::Select { cond, t, f: fv } => {
                let c = self.eval(frame, args, *cond)?.as_i();
                Some(self.eval(frame, args, if c != 0 { *t } else { *fv })?)
            }
            Inst::Call {
                callee,
                args: call_args,
                ty,
            } => {
                let mut vs = Vec::with_capacity(call_args.len());
                for a in call_args {
                    vs.push(self.eval(frame, args, *a)?);
                }
                let r = self.call(callee.0, vs, ctx)?;
                if *ty == IrType::Void {
                    None
                } else {
                    Some(r.unwrap_or(RtVal::I(0)))
                }
            }
        })
    }
}

impl Engine for Interpreter<'_> {
    fn state(&self) -> &RunState<'_> {
        &self.state
    }

    fn call_by_name(
        &self,
        name: &str,
        args: Vec<RtVal>,
        ctx: &ThreadCtx,
    ) -> Result<Option<RtVal>, ExecError> {
        match self.state.module.lookup_symbol(name) {
            Some(sym) => self.call(sym, args, ctx),
            None => Err(ExecError::UnknownFunction(name.to_string())),
        }
    }
}

// ---------------------------------------------------------------------------
// The coercing wrappers over `omplt_ir::arith`
// ---------------------------------------------------------------------------
//
// The same five entry points the interpreter and `runtime::atomic_rmw` have
// always called, for frames that hold tagged [`RtVal`]s. Each picks its
// operands' coercion from the operator and type alone — never from the tag —
// so an operand that crossed a call boundary at the wrong class is converted
// the way C would, exactly as before the kernels existed.

/// Converts raw loaded bits into a typed value.
#[inline]
pub fn decode_scalar(ty: IrType, raw: u64) -> RtVal {
    let v = decode(ty, raw);
    match ty {
        IrType::F32 | IrType::F64 => RtVal::F(f64::from_bits(v)),
        IrType::Ptr => RtVal::P(v),
        _ => RtVal::I(v as i64),
    }
}

/// Converts a typed value into raw storable bits.
#[inline]
pub fn encode_scalar(ty: IrType, v: RtVal) -> u64 {
    match ty {
        IrType::F32 | IrType::F64 => encode(ty, v.as_f().to_bits()),
        IrType::Ptr => encode(ty, v.as_p()),
        _ => encode(ty, v.as_i() as u64),
    }
}

/// Executes one binary operation on tagged values: [`bin`] behind the
/// operands' coercions.
#[inline]
pub fn exec_bin(op: BinOpKind, ty: IrType, a: RtVal, b: RtVal) -> Result<RtVal, ExecError> {
    if op.is_float() {
        let r = bin(op, ty, a.as_f().to_bits(), b.as_f().to_bits())?;
        Ok(RtVal::F(f64::from_bits(r)))
    } else if ty == IrType::Ptr {
        Ok(RtVal::P(bin(op, ty, a.as_p(), b.as_p())?))
    } else {
        Ok(RtVal::I(
            bin(op, ty, a.as_i() as u64, b.as_i() as u64)? as i64
        ))
    }
}

/// Executes one comparison on tagged values: [`cmp`] behind the operands'
/// coercions. A pointer comparison reads its operands as pointers for the
/// equality and unsigned predicates and as integers for the signed ones.
#[inline]
pub fn exec_cmp(pred: CmpPred, ty: IrType, a: RtVal, b: RtVal) -> bool {
    use CmpPred::*;
    if pred.is_float() {
        cmp(pred, ty, a.as_f().to_bits(), b.as_f().to_bits())
    } else if ty == IrType::Ptr && !matches!(pred, Slt | Sle | Sgt | Sge) {
        cmp(pred, ty, a.as_p(), b.as_p())
    } else {
        cmp(pred, ty, a.as_i() as u64, b.as_i() as u64)
    }
}

/// Executes one conversion on a tagged value: [`cast`] behind the operand's
/// coercion.
#[inline]
pub fn exec_cast(op: CastOp, from: IrType, to: IrType, v: RtVal) -> RtVal {
    use CastOp::*;
    let src = match op {
        Trunc | SExt | ZExt | SiToFp | UiToFp | IntToPtr => v.as_i() as u64,
        FpToSi | FpToUi | FpTrunc | FpExt => v.as_f().to_bits(),
        PtrToInt => v.as_p(),
    };
    let r = cast(op, from, to, src);
    match op {
        Trunc | SExt | ZExt | FpToSi | FpToUi | PtrToInt => RtVal::I(r as i64),
        SiToFp | UiToFp | FpTrunc | FpExt => RtVal::F(f64::from_bits(r)),
        IntToPtr => RtVal::P(r),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omplt_ir::IrBuilder;

    fn run(m: &Module) -> RunResult {
        Interpreter::new(m, RuntimeConfig::default())
            .run_main()
            .expect("run failed")
    }

    #[test]
    fn returns_constant() {
        let mut m = Module::new();
        let mut f = Function::new("main", vec![], IrType::I32);
        {
            let mut b = IrBuilder::new(&mut f);
            b.ret(Some(Value::i32(42)));
        }
        m.add_function(f);
        assert_eq!(run(&m).exit_code, 42);
    }

    #[test]
    fn memory_round_trip_and_print() {
        let mut m = Module::new();
        let print = m.intern("print_i64");
        let mut f = Function::new("main", vec![], IrType::I32);
        {
            let mut b = IrBuilder::new(&mut f);
            let p = b.alloca(IrType::I64, 1, "x");
            b.store(Value::i64(7), p);
            let v = b.load(IrType::I64, p);
            let w = b.mul(v, Value::i64(6));
            b.call(print, vec![w], IrType::Void);
            b.ret(Some(Value::i32(0)));
        }
        m.add_function(f);
        assert_eq!(run(&m).stdout, "42\n");
    }

    #[test]
    fn loop_with_phi_sums() {
        // sum 0..10 via canonical-style loop
        let mut m = Module::new();
        let print = m.intern("print_i64");
        let mut f = Function::new("main", vec![], IrType::I32);
        {
            let mut b = IrBuilder::new(&mut f);
            let acc = b.alloca(IrType::I64, 1, "acc");
            b.store(Value::i64(0), acc);
            let header = b.create_block("header");
            let body = b.create_block("body");
            let exit = b.create_block("exit");
            let entry = b.insert_block();
            b.br(header);
            b.set_insert_point(header);
            let (iv, phi) = b.phi(IrType::I64);
            b.add_phi_incoming(phi, entry, Value::i64(0));
            let c = b.cmp(CmpPred::Ult, iv, Value::i64(10));
            b.cond_br(c, body, exit);
            b.set_insert_point(body);
            let old = b.load(IrType::I64, acc);
            let new = b.add(old, iv);
            b.store(new, acc);
            let next = b.add(iv, Value::i64(1));
            b.add_phi_incoming(phi, body, next);
            b.br(header);
            b.set_insert_point(exit);
            let fin = b.load(IrType::I64, acc);
            b.call(print, vec![fin], IrType::Void);
            b.ret(Some(Value::i32(0)));
        }
        m.add_function(f);
        assert_eq!(run(&m).stdout, "45\n");
    }

    #[test]
    fn div_by_zero_reported() {
        let mut m = Module::new();
        let mut f = Function::new("main", vec![], IrType::I32);
        {
            let mut b = IrBuilder::new(&mut f);
            let p = b.alloca(IrType::I32, 1, "z");
            b.store(Value::i32(0), p);
            let z = b.load(IrType::I32, p);
            let d = b.sdiv(Value::i32(1), z);
            b.ret(Some(d));
        }
        m.add_function(f);
        let r = Interpreter::new(&m, RuntimeConfig::default()).run_main();
        assert_eq!(r.unwrap_err(), ExecError::DivByZero);
    }

    #[test]
    fn fuel_guards_infinite_loops() {
        let mut m = Module::new();
        let mut f = Function::new("main", vec![], IrType::I32);
        {
            let mut b = IrBuilder::new(&mut f);
            let spin = b.create_block("spin");
            b.br(spin);
            b.set_insert_point(spin);
            // keep at least one instruction so fuel is consumed
            let p = b.alloca(IrType::I64, 1, "x");
            b.store(Value::i64(1), p);
            b.br(spin);
        }
        m.add_function(f);
        let cfg = RuntimeConfig {
            max_steps: 10_000,
            ..Default::default()
        };
        let r = Interpreter::new(&m, cfg).run_main();
        assert_eq!(r.unwrap_err(), ExecError::FuelExhausted);
    }

    #[test]
    fn f32_rounding_applied() {
        let mut m = Module::new();
        let print = m.intern("print_f64");
        let mut f = Function::new("main", vec![], IrType::I32);
        {
            let mut b = IrBuilder::new(&mut f);
            let p = b.alloca(IrType::F32, 1, "x");
            b.store(Value::float(IrType::F32, 0.1), p);
            let v = b.load(IrType::F32, p);
            let w = b.cast(CastOp::FpExt, v, IrType::F64);
            b.call(print, vec![w], IrType::Void);
            b.ret(Some(Value::i32(0)));
        }
        m.add_function(f);
        let out = run(&m).stdout;
        assert!(
            out.starts_with("0.100000001"),
            "f32 rounding must be visible: {out}"
        );
    }

    /// What only a call boundary can produce — an operand whose tag is not
    /// the class the operator reads — and the kernels therefore never see:
    /// the wrappers coerce it the way `as_i`/`as_f`/`as_p` always have. Each
    /// expectation is the answer the pre-kernel `exec_*` gave.
    #[test]
    fn wrappers_coerce_operands_of_the_wrong_class() {
        use RtVal::{F, I, P};
        let p = (3u64 << 32) + 16;
        // Float operators read floats: an integer converts, a pointer too.
        assert_eq!(
            exec_bin(BinOpKind::FAdd, IrType::F64, I(3), F(0.5)),
            Ok(F(3.5))
        );
        assert_eq!(
            exec_bin(BinOpKind::FMul, IrType::F32, P(3), F(0.1)),
            Ok(F((3.0f64 * 0.1) as f32 as f64))
        );
        // Pointer arithmetic reads pointers: an integer offset is its bits,
        // a float is the null pointer.
        assert_eq!(
            exec_bin(BinOpKind::Add, IrType::Ptr, P(p), I(8)),
            Ok(P(p + 8))
        );
        assert_eq!(
            exec_bin(BinOpKind::Sub, IrType::Ptr, P(p), I(-8)),
            Ok(P(p + 8))
        );
        assert_eq!(
            exec_bin(BinOpKind::Add, IrType::Ptr, P(p), F(9.75)),
            Ok(P(p))
        );
        assert_eq!(
            exec_bin(BinOpKind::Mul, IrType::Ptr, P(p), I(2)),
            Err(ExecError::Malformed(
                "non-additive pointer arithmetic".into()
            ))
        );
        // Integer operators read integers: a float truncates, a pointer is
        // its bits.
        assert_eq!(
            exec_bin(BinOpKind::Add, IrType::I64, F(2.9), P(40)),
            Ok(I(42))
        );
        assert_eq!(
            exec_bin(BinOpKind::SDiv, IrType::I32, I(7), F(0.5)),
            Err(ExecError::DivByZero)
        );

        // A pointer compare reads pointers for equality and the unsigned
        // predicates — a float is null there — and integers for the signed.
        assert!(exec_cmp(CmpPred::Ult, IrType::Ptr, I(5), P(p)));
        assert!(exec_cmp(CmpPred::Ult, IrType::Ptr, F(7.0), P(1)));
        assert!(exec_cmp(CmpPred::Eq, IrType::Ptr, F(7.0), P(0)));
        assert!(exec_cmp(CmpPred::Uge, IrType::Ptr, I(-1), P(p)));
        assert!(exec_cmp(CmpPred::Sgt, IrType::Ptr, F(7.0), P(1)));
        assert!(exec_cmp(CmpPred::Slt, IrType::Ptr, I(-1), P(p)));
        // Integer and float compares on mixed tags.
        assert!(exec_cmp(CmpPred::Slt, IrType::I32, F(-2.5), I(-1)));
        assert!(exec_cmp(CmpPred::Ult, IrType::I32, P(3), I(-1)));
        assert!(exec_cmp(CmpPred::FLt, IrType::F64, I(1), F(1.5)));
        assert!(!exec_cmp(CmpPred::FEq, IrType::F64, P(2), F(f64::NAN)));

        // Conversions read the class their operator converts from.
        assert_eq!(
            exec_cast(CastOp::SiToFp, IrType::I64, IrType::F64, P(p)),
            F(p as f64)
        );
        assert_eq!(
            exec_cast(CastOp::SiToFp, IrType::I32, IrType::F32, F(16_777_217.9)),
            F(16_777_216.0)
        );
        assert_eq!(
            exec_cast(CastOp::UiToFp, IrType::I8, IrType::F64, P(0x1FF)),
            F(255.0)
        );
        assert_eq!(
            exec_cast(CastOp::FpToSi, IrType::F64, IrType::I32, I(-7)),
            I(-7)
        );
        assert_eq!(
            exec_cast(CastOp::FpExt, IrType::F32, IrType::F64, I(3)),
            F(3.0)
        );
        assert_eq!(
            exec_cast(CastOp::PtrToInt, IrType::Ptr, IrType::I64, F(1.0)),
            I(0)
        );
        assert_eq!(
            exec_cast(CastOp::PtrToInt, IrType::Ptr, IrType::I32, I(p as i64)),
            I(16)
        );
        assert_eq!(
            exec_cast(CastOp::IntToPtr, IrType::I64, IrType::Ptr, F(9.9)),
            P(9)
        );
        assert_eq!(
            exec_cast(CastOp::ZExt, IrType::I8, IrType::I64, P(0x180)),
            I(0x80)
        );
        assert_eq!(
            exec_cast(CastOp::Trunc, IrType::I64, IrType::I8, F(200.7)),
            I(-56)
        );

        // Stores and loads: the stored bits of a value of the wrong class.
        assert_eq!(encode_scalar(IrType::F32, I(3)), 3.0f32.to_bits() as u64);
        assert_eq!(encode_scalar(IrType::F64, P(2)), 2.0f64.to_bits());
        assert_eq!(encode_scalar(IrType::Ptr, F(1.0)), 0);
        assert_eq!(encode_scalar(IrType::I32, F(-1.5)), -1i64 as u64);
        assert_eq!(decode_scalar(IrType::I8, 0xFF), I(-1));
        assert_eq!(decode_scalar(IrType::F32, 1.5f32.to_bits() as u64), F(1.5));
        assert_eq!(decode_scalar(IrType::Ptr, p), P(p));
    }

    #[test]
    fn unknown_function_is_reported() {
        let mut m = Module::new();
        let mystery = m.intern("mystery_fn");
        let mut f = Function::new("main", vec![], IrType::I32);
        {
            let mut b = IrBuilder::new(&mut f);
            b.call(mystery, vec![], IrType::Void);
            b.ret(Some(Value::i32(0)));
        }
        m.add_function(f);
        let r = Interpreter::new(&m, RuntimeConfig::default()).run_main();
        assert!(matches!(r.unwrap_err(), ExecError::UnknownFunction(n) if n == "mystery_fn"));
    }
}
