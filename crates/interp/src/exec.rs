//! The IR interpreter: executes `omplt-ir` modules, dispatching runtime
//! calls (OpenMP + I/O shims) to [`crate::runtime`].
//!
//! The guest's arithmetic is not defined here: it is the payload kernels of
//! [`omplt_ir::arith`], the same functions the compiler folds constants
//! with and the bytecode VM runs. A frame slot holds a value's payload — the
//! `u64` the kernels take — and the IR type of the instruction that reads it
//! says what the bits mean, so every operator calls its kernel directly.

use crate::engine::{Callee, ChunkRecord, Engine, RunState};
use crate::memory::Memory;
use crate::runtime::{self, RuntimeConfig, ThreadCtx};
use omplt_ir::arith::{bin, cast, cmp, decode, encode, gep, Trap};
use omplt_ir::{BlockId, Function, Inst, IrType, Module, SymbolId, Terminator, Value};
use std::collections::HashMap;
use std::sync::atomic::Ordering;

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
        args: Vec<u64>,
        ctx: &ThreadCtx,
    ) -> Result<Option<u64>, ExecError> {
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
    pub fn run_function(&self, name: &str, args: Vec<u64>) -> Result<RunResult, ExecError> {
        let ret = self.call_by_name(name, args, &ThreadCtx::initial())?;
        Ok(self.state.finish(ret))
    }

    /// The payload of `v`. An `undef` is the zero payload of every type.
    fn eval(&self, frame: &[Option<u64>], args: &[u64], v: Value) -> Result<u64, ExecError> {
        Ok(match v {
            Value::Inst(id) => frame[id.0 as usize]
                .ok_or_else(|| ExecError::Malformed(format!("use of undefined %{}", id.0)))?,
            Value::Arg(i) => *args
                .get(i as usize)
                .ok_or_else(|| ExecError::Malformed(format!("missing argument {i}")))?,
            Value::ConstInt { .. } | Value::ConstFloat { .. } => {
                v.payload().expect("a constant has a payload")
            }
            Value::Global(s) => self.state.global_addr(s)?,
            Value::FuncRef(s) => Memory::encode_fn_ptr(s.0),
            Value::Undef(_) => 0,
        })
    }

    /// Executes one function body.
    pub fn exec_function(
        &self,
        f: &Function,
        args: Vec<u64>,
        ctx: &ThreadCtx,
    ) -> Result<Option<u64>, ExecError> {
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
        args: Vec<u64>,
        ctx: &ThreadCtx,
        retired: &mut u64,
    ) -> Result<Option<u64>, ExecError> {
        let mut frame: Vec<Option<u64>> = vec![None; f.insts.len()];
        let mut cur = f.entry();
        let mut prev: Option<BlockId> = None;
        // A per-frame local counter, refilled in batches from the shared one.
        let mut local_fuel: u64 = 0;
        // Phase 1's values, reused by every block the frame enters.
        let mut phi_updates: Vec<(usize, u64)> = Vec::new();

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
                    let c = self.eval(&frame, &args, *cond)?;
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
        frame: &[Option<u64>],
        args: &[u64],
        inst: &Inst,
        ctx: &ThreadCtx,
    ) -> Result<Option<u64>, ExecError> {
        let mem: &Memory = &self.state.mem;
        Ok(match inst {
            Inst::Phi { .. } => unreachable!("phis handled in phase 1"),
            Inst::Alloca { ty, count, .. } => Some(mem.alloc(ty.size().max(1) * (*count).max(1))),
            Inst::Load { ty, ptr } => {
                let p = self.eval(frame, args, *ptr)?;
                let raw = mem.load(p, ty.size()).map_err(|e| ExecError::Mem(e.what))?;
                Some(decode(*ty, raw))
            }
            Inst::Store { val, ptr } => {
                let ty = f.value_type(*val);
                let v = self.eval(frame, args, *val)?;
                let p = self.eval(frame, args, *ptr)?;
                mem.store(p, ty.size(), encode(ty, v))
                    .map_err(|e| ExecError::Mem(e.what))?;
                None
            }
            Inst::Gep {
                ptr,
                index,
                elem_size,
            } => {
                let p = self.eval(frame, args, *ptr)?;
                let i = self.eval(frame, args, *index)?;
                Some(gep(p, i, *elem_size))
            }
            Inst::Bin { op, lhs, rhs } => {
                let ty = f.value_type(*lhs);
                let a = self.eval(frame, args, *lhs)?;
                let b = self.eval(frame, args, *rhs)?;
                Some(bin(*op, ty, a, b)?)
            }
            Inst::Cmp { pred, lhs, rhs } => {
                let ty = f.value_type(*lhs);
                let a = self.eval(frame, args, *lhs)?;
                let b = self.eval(frame, args, *rhs)?;
                Some(cmp(*pred, ty, a, b) as u64)
            }
            Inst::Cast { op, val, to } => {
                let from = f.value_type(*val);
                let v = self.eval(frame, args, *val)?;
                Some(cast(*op, from, *to, v))
            }
            Inst::Select { cond, t, f: fv } => {
                let c = self.eval(frame, args, *cond)?;
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
                    Some(r.unwrap_or(0))
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
        args: Vec<u64>,
        ctx: &ThreadCtx,
    ) -> Result<Option<u64>, ExecError> {
        match self.state.module.lookup_symbol(name) {
            Some(sym) => self.call(sym, args, ctx),
            None => Err(ExecError::UnknownFunction(name.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omplt_ir::{CastOp, CmpPred, IrBuilder};

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
