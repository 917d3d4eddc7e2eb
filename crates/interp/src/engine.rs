//! The [`Engine`] abstraction and the [`RunState`] under it: what the
//! OpenMP runtime shim needs from an execution backend.
//!
//! [`crate::runtime`] implements the `__kmpc_*` protocol (fork, static init,
//! dispatch queues, barriers) once, generically over `Engine`, so the tree-
//! walking interpreter ([`crate::Interpreter`]) and the bytecode VM
//! (`omplt-vm`) execute *exactly* the same worksharing semantics — chunk
//! boundaries, barrier placement, `nowait` overlap — and differential tests
//! can hold the two backends to bit-identical schedule logs. Everything a run
//! owns besides its code — memory, stdout, budgets, logs — is one `RunState`
//! both engines embed by value; an engine adds only how it executes a frame.

use crate::exec::{ExecError, RunResult};
use crate::memory::Memory;
use crate::runtime::{RuntimeConfig, ThreadCtx};
use omplt_ir::{Module, RtFn, SymbolId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// An execution backend, as seen by the shared OpenMP runtime.
///
/// `Sync` is part of the contract: `__kmpc_fork_call` shares `&self` across
/// the scoped threads of a team.
pub trait Engine: Sync {
    /// The run's shared state.
    fn state(&self) -> &RunState<'_>;

    /// Calls a function by name: module definitions first, then the runtime
    /// shims (`main`, and the outlined bodies of `__kmpc_fork_call`, enter
    /// here). Arguments and result are payloads (`omplt_ir::arith`), each
    /// read at the type the callee declares for it.
    fn call_by_name(
        &self,
        name: &str,
        args: Vec<u64>,
        ctx: &ThreadCtx,
    ) -> Result<Option<u64>, ExecError>;
}

/// Ops granted per touch of the shared fuel counter (see
/// [`RunState::refill`]).
pub const FUEL_BATCH: u64 = 4096;

/// What a callee symbol resolves to, decided once when an engine is built:
/// a definition of the engine's own kind `D` (an IR function, a bytecode
/// frame) first, then the runtime table.
#[derive(Clone, Copy, Debug)]
pub enum Callee<D> {
    /// The module defines it.
    Defined(D),
    /// A runtime entry point.
    Runtime(RtFn),
    /// Neither: calling it is [`ExecError::UnknownFunction`].
    Unknown(SymbolId),
}

/// Everything one run owns besides its code (`Sync`; shared across team
/// threads).
pub struct RunState<'m> {
    /// The module being executed (symbol names, globals).
    pub module: &'m Module,
    /// Guest memory.
    pub mem: Memory,
    /// Collected stdout (the `print_*` shims append here).
    pub(crate) out: Mutex<String>,
    /// Task counter (see [`RunResult::tasks_created`]).
    pub(crate) tasks: AtomicU64,
    /// Remaining instruction budget, shared across all threads.
    fuel: AtomicU64,
    /// Total ops retired so far, across all threads (see
    /// [`RunResult::ops_retired`]).
    pub ops: AtomicU64,
    /// Runtime configuration.
    pub(crate) cfg: RuntimeConfig,
    /// Guest addresses of module globals, by symbol index.
    global_addrs: Vec<(u32, u64)>,
    /// Served schedule chunks (recorded when `cfg.log_chunks` is set).
    chunk_log: ChunkLog,
    /// Trace-counter prefix for runtime events (`"interp"` / `"vm"`), so a
    /// trace names which backend claimed chunks and hit barriers.
    pub(crate) trace_prefix: &'static str,
}

impl<'m> RunState<'m> {
    /// Fresh state for one run of `module`; materializes its globals.
    pub fn new(module: &'m Module, cfg: RuntimeConfig, trace_prefix: &'static str) -> Self {
        let mem = Memory::new();
        let global_addrs = materialize_globals(module, &mem);
        RunState {
            module,
            mem,
            out: Mutex::new(String::new()),
            tasks: AtomicU64::new(0),
            fuel: AtomicU64::new(cfg.max_steps),
            ops: AtomicU64::new(0),
            cfg,
            global_addrs,
            chunk_log: ChunkLog::new(),
            trace_prefix,
        }
    }

    /// Collects the run's observable results; `ret` is the payload the entry
    /// function returned (an integer's, when it is `main`).
    pub fn finish(&self, ret: Option<u64>) -> RunResult {
        RunResult {
            stdout: std::mem::take(&mut *self.out.lock().expect("out lock")),
            exit_code: ret.map_or(0, |v| v as i64),
            tasks_created: self.tasks.load(Ordering::Relaxed),
            chunk_log: self.chunk_log.take_sorted(),
            final_globals: snapshot_globals(self.module, &self.mem, &self.global_addrs),
            ops_retired: self.ops.load(Ordering::Relaxed),
        }
    }

    /// Grants a frame its next [`FUEL_BATCH`] ops. Fuel is accounted in
    /// batches so team threads do not serialize on one contended cache line
    /// (one update per 4096 ops); the per-job wall-clock deadline
    /// piggybacks on the refill so the check costs nothing on the per-op path.
    ///
    /// A refused refill leaves the counter where it was — below a batch — so
    /// once one thread of a team has exhausted the budget, every other
    /// thread's next refill is refused too. (A plain `fetch_sub` wrapped the
    /// counter to ≈ 2⁶⁴ on the refusal and granted the rest of the team
    /// fuel forever.)
    #[inline]
    pub fn refill(&self) -> Result<u64, ExecError> {
        let take = |left: u64| left.checked_sub(FUEL_BATCH);
        if self
            .fuel
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, take)
            .is_err()
        {
            return Err(ExecError::FuelExhausted);
        }
        match self.cfg.deadline {
            Some(dl) if dl.expired() => Err(ExecError::DeadlineExpired(dl.ms)),
            _ => Ok(FUEL_BATCH),
        }
    }

    /// Where schedule chunks are recorded, when chunk logging is enabled.
    pub(crate) fn chunk_log(&self) -> Option<&ChunkLog> {
        self.cfg.log_chunks.then_some(&self.chunk_log)
    }

    /// Guest address of the global `sym`.
    pub fn global_addr(&self, sym: SymbolId) -> Result<u64, ExecError> {
        let found = self.global_addrs.iter().find(|(s, _)| *s == sym.0);
        found
            .map(|(_, a)| *a)
            .ok_or_else(|| ExecError::Malformed(format!("unknown global {}", sym.0)))
    }

    /// Resolves callee `sym`, which the engine found `defined` or not.
    /// Engines resolve every callee through this once, at construction; no
    /// call string-matches a name.
    pub fn resolve<D>(&self, sym: SymbolId, defined: Option<D>) -> Callee<D> {
        let name = self.module.symbols().get(sym.0 as usize);
        match (defined, name.and_then(|n| RtFn::from_name(n))) {
            (Some(d), _) => Callee::Defined(d),
            (None, Some(rt)) => Callee::Runtime(rt),
            (None, None) => Callee::Unknown(sym),
        }
    }

    /// The error for a call whose callee is neither defined nor a runtime
    /// entry.
    #[cold]
    pub fn unknown_function(&self, sym: SymbolId) -> ExecError {
        let name = self.module.symbols().get(sym.0 as usize);
        ExecError::UnknownFunction(name.map_or_else(|| format!("#{}", sym.0), |n| n.to_string()))
    }
}

/// Which runtime entry point served a chunk.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum ChunkKind {
    /// `__kmpc_for_static_init` (the per-thread span; for chunked-static the
    /// first chunk — later rounds advance by stride without re-entering the
    /// runtime).
    StaticInit,
    /// `__kmpc_dispatch_next_8` serving a static-resolved queue.
    Static,
    /// `__kmpc_dispatch_next_8`, dynamic schedule.
    Dynamic,
    /// `__kmpc_dispatch_next_8`, guided schedule.
    Guided,
}

/// One chunk of iterations handed to some team member.
///
/// Thread identity is deliberately *not* recorded: which thread claims a
/// dynamic chunk is a race, but the chunk *boundaries* are deterministic, so
/// sorted records compare bit-identically across backends and runs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub struct ChunkRecord {
    /// Serving entry point.
    pub kind: ChunkKind,
    /// First iteration of the chunk (inclusive).
    pub lo: i64,
    /// Last iteration of the chunk (inclusive).
    pub hi: i64,
}

/// A concurrent log of every schedule chunk served during a run.
#[derive(Debug, Default)]
pub struct ChunkLog {
    records: Mutex<Vec<ChunkRecord>>,
}

impl ChunkLog {
    /// Creates an empty log.
    pub fn new() -> ChunkLog {
        ChunkLog::default()
    }

    /// Records one served chunk.
    pub fn record(&self, kind: ChunkKind, lo: i64, hi: i64) {
        self.records
            .lock()
            .expect("chunk log lock")
            .push(ChunkRecord { kind, lo, hi });
    }

    /// Drains the log, sorted (claim order is nondeterministic under real
    /// threads; the sorted multiset is the comparable artifact).
    pub fn take_sorted(&self) -> Vec<ChunkRecord> {
        let mut v = std::mem::take(&mut *self.records.lock().expect("chunk log lock"));
        v.sort_unstable();
        v
    }
}

/// Allocates and initializes every module global in `mem`; returns the guest
/// address of each, by symbol index. Shared by both backends so global
/// layout — and therefore every pointer a guest derives from one — matches.
fn materialize_globals(module: &Module, mem: &Memory) -> Vec<(u32, u64)> {
    let mut global_addrs = Vec::new();
    for g in &module.globals {
        let addr = mem.alloc(g.size.max(1));
        for (i, w) in g.init.iter().enumerate() {
            let sz = g.ty.size().max(1);
            let _ = mem.store(addr + i as u64 * sz, sz, *w as u64);
        }
        global_addrs.push((g.sym.0, addr));
    }
    global_addrs
}

/// Snapshots the final byte contents of every module global — the
/// "observable memory state" differential tests compare across backends.
fn snapshot_globals(
    module: &Module,
    mem: &Memory,
    global_addrs: &[(u32, u64)],
) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for g in &module.globals {
        let Some(&(_, addr)) = global_addrs.iter().find(|(s, _)| *s == g.sym.0) else {
            continue;
        };
        let mut bytes = Vec::with_capacity(g.size as usize);
        for i in 0..g.size {
            bytes.push(mem.load(addr + i, 1).map_or(0, |b| b as u8));
        }
        out.push((module.symbol_name(g.sym).to_string(), bytes));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use omplt_ir::IrType;

    #[test]
    fn chunk_log_sorts_on_take() {
        let log = ChunkLog::new();
        log.record(ChunkKind::Dynamic, 4, 7);
        log.record(ChunkKind::Dynamic, 0, 3);
        log.record(ChunkKind::StaticInit, 0, 9);
        let got = log.take_sorted();
        assert_eq!(
            got,
            vec![
                ChunkRecord {
                    kind: ChunkKind::StaticInit,
                    lo: 0,
                    hi: 9
                },
                ChunkRecord {
                    kind: ChunkKind::Dynamic,
                    lo: 0,
                    hi: 3
                },
                ChunkRecord {
                    kind: ChunkKind::Dynamic,
                    lo: 4,
                    hi: 7
                },
            ]
        );
        assert!(log.take_sorted().is_empty(), "take drains the log");
    }

    #[test]
    fn globals_round_trip_through_snapshot() {
        let mut m = Module::new();
        m.add_global("grid", IrType::I64, 16);
        let mem = Memory::new();
        let addrs = materialize_globals(&m, &mem);
        assert_eq!(addrs.len(), 1);
        mem.store(addrs[0].1 + 8, 8, 0x0102030405060708).unwrap();
        let snap = snapshot_globals(&m, &mem, &addrs);
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].0, "grid");
        assert_eq!(
            snap[0].1,
            vec![0, 0, 0, 0, 0, 0, 0, 0, 8, 7, 6, 5, 4, 3, 2, 1],
            "little-endian byte image"
        );
    }
}
