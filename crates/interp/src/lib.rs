//! # omplt-interp
//!
//! Executes `omplt-ir` modules so every loop transformation can be validated
//! end-to-end: the transformed program must produce the same observable
//! behaviour as the untransformed one (the property the paper's Clang
//! implementation must uphold, here checked by tests and property tests).
//!
//! * [`memory`] — a shared, byte-addressed memory built from `AtomicU64` word
//!   cells, so `parallel` regions can run on **real OS threads** without data
//!   races in the interpreter itself (racy *guest* programs degrade to
//!   relaxed-atomic semantics instead of UB).
//! * [`exec`] — the instruction interpreter (stack frames, phi handling,
//!   calls).
//! * [`runtime`] — the OpenMP runtime shim: `__kmpc_fork_call` spawns a
//!   thread team via `std::thread::scope`, `__kmpc_for_static_init`
//!   implements the static worksharing schedule, `__kmpc_dispatch_init_8`/
//!   `__kmpc_dispatch_next_8`/`__kmpc_dispatch_fini_8` serve the dynamic,
//!   guided, and runtime (`OMP_SCHEDULE`) schedules from a per-team work
//!   queue, `__kmpc_barrier` is a real team barrier, plus
//!   `omp_get_thread_num`, `omp_get_num_threads`, and task bookkeeping for
//!   `taskloop`.

pub mod engine;
pub mod exec;
pub mod memory;
pub mod runtime;

pub use engine::{ChunkKind, ChunkLog, ChunkRecord, Engine, RunState};
pub use exec::{ExecError, Interpreter, RunFailure, RunResult};
pub use memory::Memory;
pub use runtime::{Deadline, DispatchKind, RuntimeConfig, RuntimeSchedule, TeamState, ThreadCtx};
