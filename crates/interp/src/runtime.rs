//! The OpenMP runtime shim (plus tiny I/O builtins).
//!
//! Implements the calls that Clang's "early outlining" lowering targets
//! (paper §1) — one arm of [`dispatch`] per row of the runtime-function
//! table ([`omplt_ir::RtFn`]; the table is the boundary's one definition,
//! this file only the arm bodies): `__kmpc_fork_call` spawns a real thread
//! team with `std::thread::scope`, `__kmpc_for_static_init` computes
//! static-schedule chunk bounds, `__kmpc_dispatch_init_8`/
//! `__kmpc_dispatch_next_8`/`__kmpc_dispatch_fini_8` serve the non-static
//! schedules from a per-team shared work queue (`schedule(runtime)` resolved
//! through `OMP_SCHEDULE`; the schedule numbers are libomp's, carried by
//! [`omplt_ir::SchedType`]), `__kmpc_barrier` synchronizes the team, the
//! `__omplt_atomic_*` rows combine reductions, and
//! `omp_get_thread_num`/`omp_get_num_threads` expose the team context.

use crate::engine::{ChunkKind, Engine, RunState};
use crate::exec::ExecError;
use crate::memory::{MemError, Memory};
use omplt_ir::arith::{bin, decode, encode};
use omplt_ir::{BinOpKind, IrType, RtFn, SchedType};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How a dispatch (non-static) worksharing loop doles out iterations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchKind {
    /// Fixed-size chunks served first-come-first-served (also what
    /// `schedule(runtime)` resolves to for `OMP_SCHEDULE=static`).
    Static,
    /// `schedule(dynamic[, chunk])`: fixed-size chunks, greedy claiming.
    Dynamic,
    /// `schedule(guided[, chunk])`: exponentially shrinking chunks with
    /// `chunk` as the floor.
    Guided,
}

/// The schedule `schedule(runtime)` resolves to (`OMP_SCHEDULE`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RuntimeSchedule {
    /// Dispatch policy.
    pub kind: DispatchKind,
    /// Requested chunk; `<= 0` means "pick a balanced default".
    pub chunk: i64,
}

impl RuntimeSchedule {
    /// Parses an `OMP_SCHEDULE` value: `kind[,chunk]`.
    ///
    /// Malformed values (`fifo,2`, `dynamic,abc`, `dynamic,0`, `guided,-4`)
    /// are rejected with a message suitable for a driver warning. Sema
    /// already enforces positive chunks for compile-time `schedule` clauses
    /// (OpenMP 5.1 §11.5.3); the runtime-resolved schedule must hold itself
    /// to the same rule instead of silently absorbing garbage into the
    /// balanced-static default.
    pub fn parse(s: &str) -> Result<RuntimeSchedule, String> {
        let mut parts = s.splitn(2, ',');
        let kind_text = parts.next().unwrap_or("").trim().to_ascii_lowercase();
        let kind = match kind_text.as_str() {
            "static" | "auto" => DispatchKind::Static,
            "dynamic" => DispatchKind::Dynamic,
            "guided" => DispatchKind::Guided,
            "" => return Err("missing schedule kind".to_string()),
            other => return Err(format!("unknown schedule kind '{other}'")),
        };
        let chunk = match parts.next() {
            None => 0,
            Some(c) => {
                let c = c.trim();
                match c.parse::<i64>() {
                    Ok(v) if v >= 1 => v,
                    Ok(v) => return Err(format!("chunk size must be positive, got {v}")),
                    Err(_) => return Err(format!("invalid chunk size '{c}'")),
                }
            }
        };
        Ok(RuntimeSchedule { kind, chunk })
    }

    /// The balanced-static default — what libomp uses when `OMP_SCHEDULE`
    /// is unset.
    pub fn default_static() -> RuntimeSchedule {
        RuntimeSchedule {
            kind: DispatchKind::Static,
            chunk: 0,
        }
    }

    /// Resolves an optional `OMP_SCHEDULE` value to a schedule plus an
    /// optional warning. A malformed value falls back to
    /// [`RuntimeSchedule::default_static`] *explicitly*: the warning message
    /// names the rejected value and the reason so the driver can surface it
    /// as a diagnostic instead of the old silent swallow.
    pub fn resolve(env: Option<&str>) -> (RuntimeSchedule, Option<String>) {
        match env {
            None => (Self::default_static(), None),
            Some(s) => match Self::parse(s) {
                Ok(rs) => (rs, None),
                Err(why) => (
                    Self::default_static(),
                    Some(format!(
                        "ignoring malformed OMP_SCHEDULE value '{s}' ({why}); \
                         falling back to balanced static schedule"
                    )),
                ),
            },
        }
    }
}

/// Per-run configuration.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Default team size for `parallel` regions without `num_threads`.
    pub num_threads: u32,
    /// Instruction budget shared by all threads (infinite-loop guard).
    pub max_steps: u64,
    /// When true, `parallel` regions execute sequentially (tid 0..n in
    /// order) — useful for deterministic golden tests.
    pub serial: bool,
    /// What `schedule(runtime)` resolves to; `None` means the balanced
    /// static libomp default. `OMP_SCHEDULE` is resolved once at CLI/client
    /// entry — never inside the runtime, where a daemon's tenants would all
    /// see the server's environment.
    pub runtime_schedule: Option<RuntimeSchedule>,
    /// Record every served schedule chunk in the engine's
    /// [`crate::engine::ChunkLog`] (differential-testing aid).
    pub log_chunks: bool,
    /// Cooperative wall-clock deadline, checked at fuel-refill boundaries
    /// (every [`crate::engine::FUEL_BATCH`] retired ops per thread). `None`
    /// disables the check. The one-shot CLI uses a process-exit watchdog
    /// instead; the daemon sets this so a runaway job kills only itself.
    pub deadline: Option<Deadline>,
}

/// A per-job wall-clock execution deadline (see [`RuntimeConfig::deadline`]).
#[derive(Clone, Copy, Debug)]
pub struct Deadline {
    /// The instant past which execution aborts.
    pub at: Instant,
    /// The originally requested timeout, for the diagnostic message.
    pub ms: u64,
}

impl Deadline {
    /// A deadline `ms` milliseconds from now.
    pub fn in_ms(ms: u64) -> Deadline {
        Deadline {
            at: Instant::now() + std::time::Duration::from_millis(ms),
            ms,
        }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            num_threads: 4,
            max_steps: 500_000_000,
            serial: false,
            runtime_schedule: None,
            log_chunks: false,
            deadline: None,
        }
    }
}

/// One in-flight dispatch worksharing loop: the shared work queue every
/// team member claims chunks from.
#[derive(Debug)]
pub struct DispatchLoop {
    kind: DispatchKind,
    /// Inclusive upper bound of the iteration space.
    ub: i64,
    /// Minimum (dynamic: exact) chunk size, normalized to >= 1.
    chunk: i64,
    team: i64,
    /// Next unclaimed iteration.
    next: Mutex<i64>,
    /// Team members that have observed exhaustion (queue retires when all
    /// have).
    drained: AtomicU32,
}

impl DispatchLoop {
    fn new(kind: DispatchKind, lb: i64, ub: i64, chunk: i64, team: u32) -> DispatchLoop {
        let team = team.max(1) as i64;
        let trip = (ub - lb + 1).max(0);
        let chunk = if chunk >= 1 {
            chunk
        } else {
            // Balanced default (static without a chunk): ceil(trip/team).
            ((trip + team - 1) / team).max(1)
        };
        DispatchLoop {
            kind,
            ub,
            chunk,
            team,
            next: Mutex::new(lb),
            drained: AtomicU32::new(0),
        }
    }

    /// Claims the next chunk: `Some((lb, ub, is_last))`, or `None` when the
    /// queue is exhausted.
    fn grab(&self) -> Option<(i64, i64, bool)> {
        let mut next = self.next.lock().expect("dispatch lock");
        let remaining = self.ub - *next + 1;
        if remaining <= 0 {
            return None;
        }
        let size = match self.kind {
            DispatchKind::Static | DispatchKind::Dynamic => self.chunk,
            DispatchKind::Guided => {
                // Exponentially shrinking: ceil(remaining / (2 * team)),
                // floored at the requested chunk.
                let per = (remaining + 2 * self.team - 1) / (2 * self.team);
                per.max(self.chunk)
            }
        }
        .min(remaining);
        let lo = *next;
        let hi = lo + size - 1;
        *next = hi + 1;
        Some((lo, hi, hi == self.ub))
    }
}

/// Watchdog poll interval: the deadline within which a barrier deadlock is
/// reported even if a departure notification is somehow missed.
const WATCHDOG_POLL: Duration = Duration::from_millis(100);

/// A team barrier with deadlock detection. A correct team releases the
/// barrier when all `size` members arrive; if any member *departs* first
/// (finishes the parallel region, panics, or is deliberately lost by fault
/// injection), that release can never happen. The watchdog notices —
/// eagerly on the departure notification, and within [`WATCHDOG_POLL`] as a
/// backstop — poisons the barrier, and every waiter returns
/// [`ExecError::BarrierDeadlock`] naming the lost and stuck threads instead
/// of hanging the process.
#[derive(Debug)]
struct WatchdogBarrier {
    size: u32,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct BarrierState {
    /// gtids waiting at the current generation.
    arrived: Vec<u32>,
    /// gtids that left the parallel region for good.
    departed: Vec<u32>,
    generation: u64,
    /// The watchdog diagnostic, once deadlock is detected. Sticky: every
    /// subsequent wait fails immediately.
    poisoned: Option<String>,
}

fn gtid_list(gtids: &[u32]) -> String {
    let mut v: Vec<u32> = gtids.to_vec();
    v.sort_unstable();
    v.iter().map(u32::to_string).collect::<Vec<_>>().join(", ")
}

impl WatchdogBarrier {
    fn new(size: u32) -> WatchdogBarrier {
        WatchdogBarrier {
            size,
            state: Mutex::new(BarrierState::default()),
            cv: Condvar::new(),
        }
    }

    /// True when the barrier can never release: someone departed, someone
    /// waits, and nobody is left running to change either fact.
    fn is_deadlocked(st: &BarrierState, size: u32) -> bool {
        !st.departed.is_empty()
            && !st.arrived.is_empty()
            && st.arrived.len() + st.departed.len() >= size as usize
    }

    fn poison(st: &mut BarrierState, size: u32) -> String {
        let msg = format!(
            "watchdog: barrier deadlock in team of {size}: thread(s) {} exited without \
             reaching '__kmpc_barrier' while thread(s) {} wait at it",
            gtid_list(&st.departed),
            gtid_list(&st.arrived),
        );
        st.poisoned = Some(msg.clone());
        msg
    }

    fn wait(&self, gtid: u32) -> Result<(), ExecError> {
        let mut st = self.state.lock().unwrap();
        if let Some(msg) = &st.poisoned {
            return Err(ExecError::BarrierDeadlock(msg.clone()));
        }
        st.arrived.push(gtid);
        if st.departed.is_empty() && st.arrived.len() as u32 == self.size {
            st.arrived.clear();
            st.generation += 1;
            self.cv.notify_all();
            return Ok(());
        }
        if Self::is_deadlocked(&st, self.size) {
            let msg = Self::poison(&mut st, self.size);
            self.cv.notify_all();
            return Err(ExecError::BarrierDeadlock(msg));
        }
        let gen = st.generation;
        loop {
            let (guard, _) = self.cv.wait_timeout(st, WATCHDOG_POLL).unwrap();
            st = guard;
            if let Some(msg) = &st.poisoned {
                return Err(ExecError::BarrierDeadlock(msg.clone()));
            }
            if st.generation != gen {
                return Ok(());
            }
            if Self::is_deadlocked(&st, self.size) {
                let msg = Self::poison(&mut st, self.size);
                self.cv.notify_all();
                return Err(ExecError::BarrierDeadlock(msg));
            }
        }
    }

    /// Records that `gtid` left the parallel region; wakes waiters so the
    /// deadlock check re-runs immediately.
    fn depart(&self, gtid: u32) {
        let mut st = self.state.lock().unwrap();
        st.departed.push(gtid);
        if st.poisoned.is_none() && Self::is_deadlocked(&st, self.size) {
            Self::poison(&mut st, self.size);
        }
        self.cv.notify_all();
    }
}

/// State shared by all members of one thread team: the barrier and the
/// dispatch queues of in-flight worksharing loops, keyed by each thread's
/// worksharing-construct sequence number (so `nowait` loops can overlap).
#[derive(Debug)]
pub struct TeamState {
    size: u32,
    /// `None` when the team executes sequentially (team of 1, or
    /// `RuntimeConfig::serial`): a real barrier would self-deadlock and
    /// completion order already synchronizes.
    barrier: Option<WatchdogBarrier>,
    queues: Mutex<HashMap<u64, Arc<DispatchLoop>>>,
}

impl TeamState {
    /// Creates team state; `concurrent` teams get a real barrier.
    pub fn new(size: u32, concurrent: bool) -> Arc<TeamState> {
        Arc::new(TeamState {
            size,
            barrier: if concurrent && size > 1 {
                Some(WatchdogBarrier::new(size))
            } else {
                None
            },
            queues: Mutex::new(HashMap::new()),
        })
    }

    /// Blocks until every team member arrives (no-op for sequential teams).
    /// Fails with [`ExecError::BarrierDeadlock`] when the watchdog proves a
    /// member can never arrive.
    pub fn barrier_wait(&self, gtid: u32) -> Result<(), ExecError> {
        match &self.barrier {
            Some(b) => b.wait(gtid),
            None => Ok(()),
        }
    }

    /// Marks `gtid` as gone for good (region end, panic, or lost by fault
    /// injection), feeding the barrier watchdog.
    fn depart(&self, gtid: u32) {
        if let Some(b) = &self.barrier {
            b.depart(gtid);
        }
    }
}

/// Registers a team member's departure when dropped — including on panic
/// unwind, so a crashed thread still feeds the watchdog.
struct DepartureGuard<'a> {
    team: &'a TeamState,
    gtid: u32,
}

impl Drop for DepartureGuard<'_> {
    fn drop(&mut self) {
        self.team.depart(self.gtid);
    }
}

/// Per-thread execution context (team membership).
#[derive(Debug)]
pub struct ThreadCtx {
    /// This thread's id within its team.
    pub gtid: u32,
    /// Team size.
    pub team_size: u32,
    /// `num_threads(n)` request for the *next* fork
    /// (`__kmpc_push_num_threads`).
    pub pending_num_threads: Cell<Option<u32>>,
    /// Shared team state (barrier + dispatch queues).
    pub team: Arc<TeamState>,
    /// This thread's worksharing-construct sequence number: identifies
    /// which shared queue a `dispatch_init` joins.
    dispatch_seq: Cell<u64>,
    /// The dispatch loop this thread currently draws from, with its queue
    /// key (released at `dispatch_fini`).
    cur_dispatch: RefCell<Option<(u64, Arc<DispatchLoop>)>>,
}

impl ThreadCtx {
    /// The initial (serial-region) context.
    pub fn initial() -> ThreadCtx {
        ThreadCtx::team_member(0, 1, TeamState::new(1, false))
    }

    /// A member of a forked team.
    pub fn team_member(gtid: u32, team_size: u32, team: Arc<TeamState>) -> ThreadCtx {
        ThreadCtx {
            gtid,
            team_size,
            pending_num_threads: Cell::new(None),
            team,
            dispatch_seq: Cell::new(0),
            cur_dispatch: RefCell::new(None),
        }
    }
}

/// Dispatches a call to runtime entry `f`.
///
/// Generic over [`Engine`]: the interpreter and the bytecode VM share this
/// single implementation of the OpenMP protocol, so schedule semantics
/// cannot drift between backends. The `match` is exhaustive over the
/// [`RtFn`] table, and the one arity rule — a call with fewer arguments than
/// the row's fixed parameters is malformed — is applied here from the row, so
/// every arm may index `args` up to its row's parameter count. Arguments and
/// result are payloads (`omplt_ir::arith`): an arm reads each argument at its
/// row's parameter type (an integer as `i64`, a `double` through its bits, a
/// pointer as the handle), which is exact because a caller's IR passes every
/// runtime entry the row's types — a user prototype that disagrees with its
/// row is refused at compile time.
pub fn dispatch<E: Engine>(
    e: &E,
    f: RtFn,
    args: Vec<u64>,
    ctx: &ThreadCtx,
) -> Result<Option<u64>, ExecError> {
    let (row, st) = (f.row(), e.state());
    if args.len() < row.params.len() {
        return Err(ExecError::Malformed(format!(
            "call to '{}' needs {} argument{}, got {}",
            row.name,
            row.params.len(),
            if row.params.len() == 1 { "" } else { "s" },
            args.len()
        )));
    }
    let print = |text: &str| st.out.lock().expect("out lock").push_str(text);
    match f {
        RtFn::GlobalThreadNum | RtFn::OmpGetThreadNum => Ok(Some(ctx.gtid as u64)),
        RtFn::OmpGetNumThreads => Ok(Some(ctx.team_size as u64)),
        RtFn::OmpGetMaxThreads => Ok(Some(st.cfg.num_threads as u64)),
        RtFn::PushNumThreads => {
            ctx.pending_num_threads
                .set(Some((args[0] as i64).max(1) as u32));
            Ok(None)
        }
        RtFn::ForkCall => fork_call(e, args, ctx),
        RtFn::ForStaticInit => for_static_init(st, args, ctx),
        RtFn::ForStaticFini => Ok(None),
        RtFn::DispatchInit8 => dispatch_init(st, args, ctx),
        RtFn::DispatchNext8 => dispatch_next(st, args, ctx),
        RtFn::DispatchFini8 => {
            ctx.cur_dispatch.borrow_mut().take();
            Ok(None)
        }
        RtFn::Barrier => {
            if omplt_trace::active() {
                omplt_trace::count(&format!("{}.barrier.waits", st.trace_prefix), 1);
            }
            if omplt_fault::fire("runtime.lost-thread") {
                // The injected "lost" member unwinds out of the region
                // instead of arriving; its departure guard feeds the
                // watchdog, which frees any teammates stuck here.
                return Err(ExecError::LostThread(ctx.gtid));
            }
            ctx.team.barrier_wait(ctx.gtid)?;
            Ok(None)
        }
        RtFn::TaskCreated => {
            st.tasks.fetch_add(1, Ordering::Relaxed);
            Ok(None)
        }
        RtFn::AtomicAddI32 => atomic_rmw(st, &args, BinOpKind::Add, IrType::I32),
        RtFn::AtomicAddI64 => atomic_rmw(st, &args, BinOpKind::Add, IrType::I64),
        RtFn::AtomicAddF32 => atomic_rmw(st, &args, BinOpKind::FAdd, IrType::F32),
        RtFn::AtomicAddF64 => atomic_rmw(st, &args, BinOpKind::FAdd, IrType::F64),
        RtFn::AtomicMulI32 => atomic_rmw(st, &args, BinOpKind::Mul, IrType::I32),
        RtFn::AtomicMulI64 => atomic_rmw(st, &args, BinOpKind::Mul, IrType::I64),
        RtFn::AtomicMulF32 => atomic_rmw(st, &args, BinOpKind::FMul, IrType::F32),
        RtFn::AtomicMulF64 => atomic_rmw(st, &args, BinOpKind::FMul, IrType::F64),
        RtFn::PrintI64 => {
            print(&format!("{}\n", args[0] as i64));
            Ok(None)
        }
        RtFn::PrintF64 => {
            let v = f64::from_bits(args[0]);
            if v == v.trunc() && v.is_finite() && v.abs() < 1e15 {
                print(&format!("{v:.6}\n"));
            } else {
                print(&format!("{v}\n"));
            }
            Ok(None)
        }
        RtFn::PrintChar => {
            let c = char::from_u32((args[0] as u32) & 0x7F).unwrap_or('?');
            print(c.encode_utf8(&mut [0; 4]));
            Ok(None)
        }
    }
}

fn mem_err(err: MemError) -> ExecError {
    ExecError::Mem(err.what)
}

/// `__omplt_atomic_<op>_<ty>(ptr, v)`: `*ptr = *ptr <op> v` as one atomic
/// read-modify-write of the reduced variable's own `ty` — combined through
/// [`bin`], so a team's result has exactly the serial semantics (wrapping,
/// `f32` rounding) in whatever order the members arrive. The value operand
/// is the row's `i64` or `double`, whose payload is already what `bin` reads
/// at `ty`.
fn atomic_rmw(
    st: &RunState<'_>,
    args: &[u64],
    op: BinOpKind,
    ty: IrType,
) -> Result<Option<u64>, ExecError> {
    let combine = |old| {
        let new = bin(op, ty, decode(ty, old), args[1]);
        encode(ty, new.expect("add and mul of non-pointers do not fail"))
    };
    st.mem
        .fetch_update(args[0], ty.size(), combine)
        .map_err(mem_err)?;
    Ok(None)
}

/// `__kmpc_fork_call(fnptr, nargs, cap0, cap1, …)` — spawns the team.
fn fork_call<E: Engine>(e: &E, args: Vec<u64>, ctx: &ThreadCtx) -> Result<Option<u64>, ExecError> {
    let cfg = &e.state().cfg;
    let name = Memory::decode_fn_ptr(args[0])
        .and_then(|sym| e.state().module.symbols().get(sym as usize))
        .ok_or_else(|| ExecError::Malformed("fork_call target is not a function".to_string()))?;
    let caps: Vec<u64> = args[2..].to_vec();
    let team = ctx
        .pending_num_threads
        .take()
        .unwrap_or(cfg.num_threads)
        .max(1);

    if team == 1 || cfg.serial {
        let state = TeamState::new(team, false);
        for tid in 0..team {
            let child = ThreadCtx::team_member(tid, team, Arc::clone(&state));
            let mut a = vec![tid as u64, tid as u64];
            a.extend(caps.iter().copied());
            match e.call_by_name(name, a, &child) {
                Ok(_) => {}
                // Sequential teams have no waiters to free, but the lost
                // member must still surface as a watchdog diagnostic, not
                // vanish silently.
                Err(ExecError::LostThread(g)) => return Err(lost_without_waiters(g, team)),
                Err(err) => return Err(err),
            }
        }
        return Ok(None);
    }

    // Real thread team: an `Engine` is Sync by contract (module is
    // immutable, memory is atomic, output is mutexed), so scoped threads
    // can share it.
    let state = TeamState::new(team, true);
    let mut first_err: Option<ExecError> = None;
    let mut lost: Option<u32> = None;
    // Team members inherit the forking thread's trace session (if any), so
    // runtime counters and spans from worker threads land in the same trace.
    let trace = omplt_trace::handle();
    // They also inherit the forking job's fault scope: injected runtime
    // faults (`runtime.lost-thread`) must trigger on this job's team members
    // and never on a concurrent job sharing the process.
    let fault = omplt_fault::handle();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..team)
            .map(|tid| {
                let caps = caps.clone();
                let state = Arc::clone(&state);
                let trace = trace.clone();
                let fault = fault.clone();
                s.spawn(move || {
                    let _trace = trace.as_ref().map(omplt_trace::Handle::attach);
                    let _fault = fault.attach();
                    // Feeds the watchdog on every exit path out of the
                    // region, panic unwind included.
                    let _departure = DepartureGuard {
                        team: &state,
                        gtid: tid,
                    };
                    let child = ThreadCtx::team_member(tid, team, Arc::clone(&state));
                    let mut a = vec![tid as u64, tid as u64];
                    a.extend(caps);
                    e.call_by_name(name, a, &child).map(|_| ())
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(Ok(())) => {}
                Ok(Err(ExecError::LostThread(g))) => lost = Some(g),
                Ok(Err(e)) => {
                    first_err.get_or_insert(e);
                }
                Err(_) => {
                    first_err.get_or_insert(ExecError::ThreadPanic);
                }
            }
        }
    });
    match (first_err, lost) {
        // Waiters report the richer poisoned-barrier diagnostic when the
        // watchdog caught them mid-wait.
        (Some(e), _) => Err(e),
        // The member was lost but nobody happened to be waiting (e.g. the
        // region had no further barrier): still a watchdog finding.
        (None, Some(g)) => Err(lost_without_waiters(g, team)),
        (None, None) => Ok(None),
    }
}

/// The watchdog diagnostic for a lost team member that stranded no waiters.
fn lost_without_waiters(gtid: u32, team: u32) -> ExecError {
    ExecError::BarrierDeadlock(format!(
        "watchdog: thread {gtid} of team of {team} exited without reaching '__kmpc_barrier'"
    ))
}

/// `__kmpc_for_static_init(gtid, sched, plast, plb, pub, pstride, incr,
/// chunk)` with i64 bounds — the static worksharing schedule.
fn for_static_init(
    st: &RunState<'_>,
    args: Vec<u64>,
    ctx: &ThreadCtx,
) -> Result<Option<u64>, ExecError> {
    let sched = SchedType::from_raw(args[1] as i64);
    let (plast, plb, pub_, pstride) = (args[2], args[3], args[4], args[5]);
    let chunk = (args[7] as i64).max(1);

    let lb = st.mem.load(plb, 8).map_err(mem_err)? as i64;
    let ub = st.mem.load(pub_, 8).map_err(mem_err)? as i64;
    let tid = ctx.gtid as i128;
    let team = ctx.team_size as i128;
    // All bound arithmetic runs in i128: near `i64::MAX`, `my_lb + chunk - 1`
    // overflows i64 and wraps to a huge negative upper bound (or, on the
    // unchunked path, loses the thread's final iterations through the
    // post-wrap `.min(ub)`). The 8-byte `__kmpc` protocol itself cannot
    // express values outside i64, so results saturate on the way out.
    let lb128 = lb as i128;
    let ub128 = ub as i128;
    let trip = ub128 - lb128 + 1; // exact; may be ≤ 0 for empty loops
    let sat = |v: i128| -> i64 { v.clamp(i64::MIN as i128, i64::MAX as i128) as i64 };
    // Encodes an empty per-thread range as `my_ub < my_lb` without wrapping:
    // an anchor of `i64::MIN` must not produce `my_ub == i64::MAX`.
    let empty = |anchor: i64| -> (i64, i64) {
        if anchor > i64::MIN {
            (anchor, anchor - 1)
        } else {
            (anchor + 1, anchor)
        }
    };

    let (my_lb, my_ub, stride, is_last) = if trip <= 0 {
        let (l, u) = empty(lb);
        (l, u, 1, false)
    } else {
        match sched {
            Some(SchedType::StaticChunked) => {
                let chunk128 = chunk as i128;
                let my_lb = lb128 + tid * chunk128;
                let stride = sat(chunk128 * team);
                // last chunk owner: thread holding the final iteration's chunk
                let last_owner = ((trip - 1) / chunk128) % team;
                if my_lb > ub128 {
                    let (l, u) = empty(sat(my_lb));
                    (l, u, stride, false)
                } else {
                    // Clamp against the loop bound. Only a thread's *final*
                    // chunk can be partial, so clamping the first chunk here
                    // never interferes with the generated chunk loop's
                    // per-round re-clamp (`ub = min(ub, last)`).
                    let my_ub = (my_lb + chunk128 - 1).min(ub128);
                    (sat(my_lb), sat(my_ub), stride, tid == last_owner)
                }
            }
            _ => {
                // `SchedType::Static`: one contiguous span per thread,
                // ceil-divided, exactly like libomp's static_balanced-greedy.
                let per = (trip + team - 1) / team;
                let my_lb = lb128 + tid * per;
                if my_lb > ub128 {
                    let (l, u) = empty(sat(my_lb));
                    (l, u, sat(trip), false)
                } else {
                    let my_ub = (my_lb + per - 1).min(ub128);
                    (sat(my_lb), sat(my_ub), sat(trip), my_ub == ub128)
                }
            }
        }
    };

    if omplt_trace::active() {
        omplt_trace::count(
            &format!("{}.chunks.static.t{}", st.trace_prefix, ctx.gtid),
            1,
        );
    }
    if let Some(log) = st.chunk_log() {
        if my_lb <= my_ub {
            log.record(ChunkKind::StaticInit, my_lb, my_ub);
        }
    }
    st.mem.store(plb, 8, my_lb as u64).map_err(mem_err)?;
    st.mem.store(pub_, 8, my_ub as u64).map_err(mem_err)?;
    st.mem.store(pstride, 8, stride as u64).map_err(mem_err)?;
    st.mem.store(plast, 4, is_last as u64).map_err(mem_err)?;
    Ok(None)
}

/// `__kmpc_dispatch_init_8(gtid, sched, lb, ub, st, chunk)` — registers a
/// dispatch (dynamic/guided/runtime) worksharing loop with the team. The
/// first team member to arrive creates the shared queue; the rest join it.
fn dispatch_init(
    st: &RunState<'_>,
    args: Vec<u64>,
    ctx: &ThreadCtx,
) -> Result<Option<u64>, ExecError> {
    let sched = args[1] as i64;
    let (lb, ub, chunk) = (args[2] as i64, args[3] as i64, args[5] as i64);

    let (kind, chunk) = match SchedType::from_raw(sched) {
        Some(SchedType::Static) => (DispatchKind::Static, 0),
        Some(SchedType::StaticChunked) => (DispatchKind::Static, chunk),
        Some(SchedType::DynamicChunked) => (DispatchKind::Dynamic, chunk),
        Some(SchedType::GuidedChunked) => (DispatchKind::Guided, chunk),
        Some(SchedType::Runtime) => {
            // The runtime never consults the process environment: in a
            // multi-tenant daemon every job would otherwise see the server's
            // env. `OMP_SCHEDULE` is resolved exactly once at CLI/client
            // entry and threaded through the config; an unset config means
            // the libomp default.
            let rs = st.cfg.runtime_schedule;
            let rs = rs.unwrap_or_else(RuntimeSchedule::default_static);
            (rs.kind, rs.chunk)
        }
        None => {
            return Err(ExecError::Malformed(format!(
                "unknown dispatch schedule type {sched}"
            )))
        }
    };

    // All team members pass identical bounds (OpenMP requires every thread
    // to encounter the same worksharing constructs in the same order), so
    // the per-thread sequence number identifies the shared queue.
    let seq = ctx.dispatch_seq.get();
    ctx.dispatch_seq.set(seq + 1);
    let dl = {
        let mut queues = ctx.team.queues.lock().expect("team queues");
        Arc::clone(
            queues
                .entry(seq)
                .or_insert_with(|| Arc::new(DispatchLoop::new(kind, lb, ub, chunk, ctx.team.size))),
        )
    };
    *ctx.cur_dispatch.borrow_mut() = Some((seq, dl));
    Ok(None)
}

/// `__kmpc_dispatch_next_8(gtid, plast, plb, pub, pstride)` — claims the
/// next chunk from the shared queue. Returns 1 with `[*plb, *pub]` filled
/// in, or 0 when the iteration space is exhausted.
fn dispatch_next(
    st: &RunState<'_>,
    args: Vec<u64>,
    ctx: &ThreadCtx,
) -> Result<Option<u64>, ExecError> {
    let (plast, plb, pub_, pstride) = (args[1], args[2], args[3], args[4]);

    let cur = ctx.cur_dispatch.borrow();
    let (seq, dl) = cur
        .as_ref()
        .ok_or_else(|| ExecError::Malformed("dispatch_next without dispatch_init".to_string()))?;
    match dl.grab() {
        Some((lo, hi, last)) => {
            if omplt_trace::active() {
                let kind = match dl.kind {
                    DispatchKind::Static => "static",
                    DispatchKind::Dynamic => "dynamic",
                    DispatchKind::Guided => "guided",
                };
                omplt_trace::count(
                    &format!("{}.chunks.{kind}.t{}", st.trace_prefix, ctx.gtid),
                    1,
                );
            }
            if let Some(log) = st.chunk_log() {
                let kind = match dl.kind {
                    DispatchKind::Static => ChunkKind::Static,
                    DispatchKind::Dynamic => ChunkKind::Dynamic,
                    DispatchKind::Guided => ChunkKind::Guided,
                };
                log.record(kind, lo, hi);
            }
            st.mem.store(plb, 8, lo as u64).map_err(mem_err)?;
            st.mem.store(pub_, 8, hi as u64).map_err(mem_err)?;
            st.mem.store(pstride, 8, 1).map_err(mem_err)?;
            st.mem.store(plast, 4, last as u64).map_err(mem_err)?;
            Ok(Some(1))
        }
        None => {
            // Retire the queue once every member has observed exhaustion
            // (each observes it exactly once: the dispatch loop exits on 0).
            if dl.drained.fetch_add(1, Ordering::AcqRel) + 1 == ctx.team.size {
                ctx.team.queues.lock().expect("team queues").remove(seq);
            }
            Ok(Some(0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Interpreter;
    use omplt_ir::{Function, IrBuilder, IrType, Module, Value};
    use std::collections::HashSet;

    /// A full team releases the watchdog barrier normally, repeatedly.
    #[test]
    fn watchdog_barrier_releases_full_team() {
        let b = Arc::new(WatchdogBarrier::new(4));
        std::thread::scope(|s| {
            for gtid in 0..4u32 {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for _ in 0..50 {
                        b.wait(gtid).expect("barrier releases");
                    }
                });
            }
        });
    }

    /// A departed member poisons the barrier: every waiter gets a
    /// BarrierDeadlock naming both sides, promptly, instead of hanging.
    #[test]
    fn watchdog_barrier_detects_departed_member() {
        for team in [2u32, 4, 8] {
            let b = Arc::new(WatchdogBarrier::new(team));
            let start = std::time::Instant::now();
            std::thread::scope(|s| {
                for gtid in 0..team - 1 {
                    let b = Arc::clone(&b);
                    s.spawn(move || {
                        let err = b.wait(gtid).expect_err("deadlock detected");
                        let msg = err.to_string();
                        assert!(msg.contains("watchdog"), "{msg}");
                        assert!(msg.contains(&format!("thread(s) {}", team - 1)), "{msg}");
                    });
                }
                // The highest gtid never arrives.
                b.depart(team - 1);
            });
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "watchdog must fire well within the deadline (team of {team})"
            );
        }
    }

    /// All members departing without waiting (a region with no barrier) is
    /// not a deadlock.
    #[test]
    fn watchdog_barrier_ignores_clean_departures() {
        let b = WatchdogBarrier::new(4);
        for gtid in 0..4 {
            b.depart(gtid);
        }
        assert!(b.state.lock().unwrap().poisoned.is_none());
    }

    /// Builds a module whose outlined function marks `covered[tid-span]` and
    /// forks a team of `team` threads.
    fn fork_module(team: u32) -> Module {
        let mut m = Module::new();
        let outlined_sym = m.intern("outlined");
        let fork = m.intern("__kmpc_fork_call");
        let push = m.intern("__kmpc_push_num_threads");

        // outlined(gtid, btid, ptr flags): flags[gtid] = gtid + 1
        let mut o = Function::new(
            "outlined",
            vec![IrType::I32, IrType::I32, IrType::Ptr],
            IrType::Void,
        );
        {
            let mut b = IrBuilder::new(&mut o);
            let gtid64 = b.cast(omplt_ir::CastOp::SExt, Value::Arg(0), IrType::I64);
            let slot = b.gep(Value::Arg(2), gtid64, 8);
            let v = b.add(gtid64, Value::i64(1));
            b.store(v, slot);
            b.ret(None);
        }
        m.add_function(o);

        let mut f = Function::new("main", vec![], IrType::I32);
        {
            let mut b = IrBuilder::new(&mut f);
            let flags = b.alloca(IrType::I64, 16, "flags");
            b.call(push, vec![Value::i32(team as i32)], IrType::Void);
            b.call(
                fork,
                vec![
                    Value::FuncRef(omplt_ir::SymbolId(outlined_sym.0)),
                    Value::i32(1),
                    flags,
                ],
                IrType::Void,
            );
            // sum the flags: sum of (tid+1) over the team
            let mut total = Value::i64(0);
            for i in 0..team as i64 {
                let slot = b.gep(flags, Value::i64(i), 8);
                let v = b.load(IrType::I64, slot);
                total = b.add(total, v);
            }
            let t32 = b.cast(omplt_ir::CastOp::Trunc, total, IrType::I32);
            b.ret(Some(t32));
        }
        m.add_function(f);
        m
    }

    #[test]
    fn fork_call_runs_every_team_member() {
        for team in [1u32, 2, 4, 8] {
            let m = fork_module(team);
            let it = Interpreter::new(&m, RuntimeConfig::default());
            let r = it.run_main().expect("run");
            let expect: i64 = (1..=team as i64).sum();
            assert_eq!(r.exit_code, expect, "team of {team}");
        }
    }

    #[test]
    fn fork_call_serial_mode_matches_parallel() {
        let m = fork_module(4);
        let serial = Interpreter::new(
            &m,
            RuntimeConfig {
                serial: true,
                ..Default::default()
            },
        )
        .run_main()
        .unwrap();
        let parallel = Interpreter::new(&m, RuntimeConfig::default())
            .run_main()
            .unwrap();
        assert_eq!(serial.exit_code, parallel.exit_code);
    }

    /// Drives `for_static_init` directly and checks the partition laws.
    fn partition(sched: i64, trip: i64, team: u32, chunk: i64) -> Vec<Vec<i64>> {
        let m = Module::new();
        let it = Interpreter::new(&m, RuntimeConfig::default());
        let mut out = Vec::new();
        let state = TeamState::new(team, false);
        for tid in 0..team {
            let ctx = ThreadCtx::team_member(tid, team, Arc::clone(&state));
            let plast = it.state.mem.alloc(4);
            let plb = it.state.mem.alloc(8);
            let pub_ = it.state.mem.alloc(8);
            let pstride = it.state.mem.alloc(8);
            it.state.mem.store(plb, 8, 0).unwrap();
            it.state.mem.store(pub_, 8, (trip - 1) as u64).unwrap();
            it.state.mem.store(pstride, 8, 1).unwrap();
            dispatch(
                &it,
                RtFn::ForStaticInit,
                vec![
                    tid as u64,
                    sched as u64,
                    plast,
                    plb,
                    pub_,
                    pstride,
                    1,
                    chunk as u64,
                ],
                &ctx,
            )
            .unwrap();
            let lb = it.state.mem.load(plb, 8).unwrap() as i64;
            let ub = it.state.mem.load(pub_, 8).unwrap() as i64;
            let stride = it.state.mem.load(pstride, 8).unwrap() as i64;
            // Expand this thread's iterations (respecting chunking).
            let mut iters = Vec::new();
            if sched == SchedType::StaticChunked as i64 {
                let mut start = lb;
                while start < trip {
                    for i in start..=(start + chunk - 1).min(trip - 1) {
                        iters.push(i);
                    }
                    start += stride;
                }
            } else {
                for i in lb..=ub.min(trip - 1) {
                    iters.push(i);
                }
            }
            out.push(iters);
        }
        out
    }

    fn assert_partition_laws(parts: &[Vec<i64>], trip: i64) {
        let mut seen = HashSet::new();
        for p in parts {
            for &i in p {
                assert!(i >= 0 && i < trip, "iteration {i} out of range");
                assert!(seen.insert(i), "iteration {i} assigned twice");
            }
        }
        assert_eq!(seen.len() as i64, trip, "not all iterations covered");
    }

    #[test]
    fn static_partition_is_exhaustive_and_disjoint() {
        for trip in [0i64, 1, 7, 16, 100] {
            for team in [1u32, 2, 3, 4, 7] {
                let parts = partition(SchedType::Static as i64, trip, team, 0);
                assert_partition_laws(&parts, trip);
            }
        }
    }

    #[test]
    fn chunked_partition_is_exhaustive_and_disjoint() {
        for trip in [0i64, 1, 7, 16, 100] {
            for team in [1u32, 2, 3, 4] {
                for chunk in [1i64, 2, 5] {
                    let parts = partition(SchedType::StaticChunked as i64, trip, team, chunk);
                    assert_partition_laws(&parts, trip);
                }
            }
        }
    }

    /// Drives `for_static_init` with raw (possibly extreme) bounds; returns
    /// each thread's stored `(my_lb, my_ub, stride)`.
    fn static_init_raw(
        sched: i64,
        lb: i64,
        ub: i64,
        team: u32,
        chunk: i64,
    ) -> Vec<(i64, i64, i64)> {
        let m = Module::new();
        let it = Interpreter::new(&m, RuntimeConfig::default());
        let state = TeamState::new(team, false);
        let mut out = Vec::new();
        for tid in 0..team {
            let ctx = ThreadCtx::team_member(tid, team, Arc::clone(&state));
            let plast = it.state.mem.alloc(4);
            let plb = it.state.mem.alloc(8);
            let pub_ = it.state.mem.alloc(8);
            let pstride = it.state.mem.alloc(8);
            it.state.mem.store(plb, 8, lb as u64).unwrap();
            it.state.mem.store(pub_, 8, ub as u64).unwrap();
            it.state.mem.store(pstride, 8, 1).unwrap();
            dispatch(
                &it,
                RtFn::ForStaticInit,
                vec![
                    tid as u64,
                    sched as u64,
                    plast,
                    plb,
                    pub_,
                    pstride,
                    1,
                    chunk as u64,
                ],
                &ctx,
            )
            .unwrap();
            out.push((
                it.state.mem.load(plb, 8).unwrap() as i64,
                it.state.mem.load(pub_, 8).unwrap() as i64,
                it.state.mem.load(pstride, 8).unwrap() as i64,
            ));
        }
        out
    }

    /// Regression (adversarial bounds): with the span ending one below
    /// `i64::MAX`, the last thread's `my_lb + per - 1` used to wrap past
    /// `i64::MAX`, and the post-wrap `.min(ub)` silently *dropped* that
    /// thread's iterations.
    #[test]
    fn static_init_near_i64_max_does_not_wrap() {
        let ub = i64::MAX - 1;
        let lb = ub - 9; // 10 iterations, team of 4 → per = 3
        let parts = static_init_raw(SchedType::Static as i64, lb, ub, 4, 0);
        let mut spans = Vec::new();
        for (tid, &(my_lb, my_ub, _)) in parts.iter().enumerate() {
            if my_lb <= my_ub {
                assert!(
                    my_lb >= lb && my_ub <= ub,
                    "thread {tid} range [{my_lb}, {my_ub}] escapes [{lb}, {ub}]"
                );
                spans.push((my_lb, my_ub));
            }
        }
        spans.sort_unstable();
        let mut next = lb;
        for (l, u) in spans {
            assert_eq!(l, next, "gap or overlap at {next}");
            next = u + 1;
        }
        assert_eq!(next, ub + 1, "iterations near i64::MAX lost");
    }

    /// Regression (adversarial bounds, chunked): the final partial chunk's
    /// `my_lb + chunk - 1` used to wrap to a huge negative upper bound
    /// instead of clamping to `ub`.
    #[test]
    fn static_chunked_near_i64_max_clamps_upper_bound() {
        let ub = i64::MAX - 1;
        let lb = ub - 9; // 10 iterations, chunk 3, team 4
        let parts = static_init_raw(SchedType::StaticChunked as i64, lb, ub, 4, 3);
        for (tid, &(my_lb, my_ub, stride)) in parts.iter().enumerate() {
            assert!(stride > 0, "thread {tid} stride {stride}");
            if my_lb <= my_ub {
                assert!(
                    my_lb >= lb && my_ub <= ub,
                    "thread {tid} chunk [{my_lb}, {my_ub}] escapes [{lb}, {ub}]"
                );
            }
        }
        // Thread 3 owns exactly the final, partial chunk [lb+9, ub].
        assert_eq!(
            (parts[3].0, parts[3].1),
            (lb + 9, ub),
            "final partial chunk must clamp to ub"
        );
    }

    /// Empty loops keep the `my_ub < my_lb` encoding under extreme anchors
    /// (no wrap to `i64::MAX`).
    #[test]
    fn static_init_empty_trip_is_empty_for_every_thread() {
        for sched in [SchedType::Static as i64, SchedType::StaticChunked as i64] {
            for (lb, ub) in [(5i64, 4i64), (i64::MAX, i64::MIN), (0, -1)] {
                for &(my_lb, my_ub, _) in &static_init_raw(sched, lb, ub, 4, 2) {
                    assert!(
                        my_ub < my_lb,
                        "sched {sched} [{lb}, {ub}] produced non-empty [{my_lb}, {my_ub}]"
                    );
                }
            }
        }
    }

    #[test]
    fn chunked_round_robins() {
        // 8 iterations, 2 threads, chunk 2: t0 gets {0,1,4,5}, t1 {2,3,6,7}
        let parts = partition(SchedType::StaticChunked as i64, 8, 2, 2);
        assert_eq!(parts[0], vec![0, 1, 4, 5]);
        assert_eq!(parts[1], vec![2, 3, 6, 7]);
    }

    #[test]
    fn task_counter_accumulates() {
        let m = Module::new();
        let it = Interpreter::new(&m, RuntimeConfig::default());
        let ctx = ThreadCtx::initial();
        for _ in 0..5 {
            dispatch(&it, RtFn::TaskCreated, vec![], &ctx).unwrap();
        }
        assert_eq!(it.state.tasks.load(Ordering::Relaxed), 5);
    }

    /// Drives `__kmpc_dispatch_init_8`/`next_8`/`fini_8` from `team` real
    /// threads sharing one `TeamState`; returns each thread's claimed
    /// chunks as `(lb, ub)` pairs.
    fn dispatch_drive(
        cfg: RuntimeConfig,
        sched: i64,
        trip: i64,
        team: u32,
        chunk: i64,
    ) -> Vec<Vec<(i64, i64)>> {
        let m = Module::new();
        let it = Interpreter::new(&m, cfg);
        let state = TeamState::new(team, true);
        let mut out: Vec<Vec<(i64, i64)>> = (0..team).map(|_| Vec::new()).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..team)
                .map(|tid| {
                    let it = &it;
                    let state = Arc::clone(&state);
                    s.spawn(move || {
                        let ctx = ThreadCtx::team_member(tid, team, state);
                        let plast = it.state.mem.alloc(4);
                        let plb = it.state.mem.alloc(8);
                        let pub_ = it.state.mem.alloc(8);
                        let pstride = it.state.mem.alloc(8);
                        dispatch(
                            it,
                            RtFn::DispatchInit8,
                            vec![
                                tid as u64,
                                sched as u64,
                                0,
                                (trip - 1) as u64,
                                1,
                                chunk as u64,
                            ],
                            &ctx,
                        )
                        .unwrap();
                        let mut chunks = Vec::new();
                        loop {
                            let got = dispatch(
                                it,
                                RtFn::DispatchNext8,
                                vec![tid as u64, plast, plb, pub_, pstride],
                                &ctx,
                            )
                            .unwrap()
                            .unwrap();
                            if got == 0 {
                                break;
                            }
                            let lo = it.state.mem.load(plb, 8).unwrap() as i64;
                            let hi = it.state.mem.load(pub_, 8).unwrap() as i64;
                            assert_eq!(it.state.mem.load(pstride, 8).unwrap() as i64, 1);
                            chunks.push((lo, hi));
                        }
                        dispatch(it, RtFn::DispatchFini8, vec![tid as u64], &ctx).unwrap();
                        chunks
                    })
                })
                .collect();
            for (tid, h) in handles.into_iter().enumerate() {
                out[tid] = h.join().expect("dispatch thread");
            }
        });
        out
    }

    fn assert_dispatch_laws(parts: &[Vec<(i64, i64)>], trip: i64, max_chunk: Option<i64>) {
        let mut seen = HashSet::new();
        for p in parts {
            for &(lo, hi) in p {
                assert!(lo <= hi, "empty chunk [{lo}, {hi}] served");
                if let Some(mc) = max_chunk {
                    assert!(hi - lo < mc, "chunk [{lo}, {hi}] exceeds size {mc}");
                }
                for i in lo..=hi {
                    assert!(i >= 0 && i < trip, "iteration {i} out of range");
                    assert!(seen.insert(i), "iteration {i} assigned twice");
                }
            }
        }
        assert_eq!(seen.len() as i64, trip, "not all iterations covered");
    }

    #[test]
    fn dynamic_dispatch_covers_every_iteration_exactly_once() {
        // Adversarial trip counts around the chunk size: 0, 1, chunk-1,
        // chunk, chunk+1, and larger non-divisible spans.
        for chunk in [1i64, 2, 3, 5] {
            for trip in [0i64, 1, chunk - 1, chunk, chunk + 1, 4 * chunk + 1, 97] {
                if trip < 0 {
                    continue;
                }
                for team in [1u32, 2, 4, 7] {
                    let parts = dispatch_drive(
                        RuntimeConfig::default(),
                        SchedType::DynamicChunked as i64,
                        trip,
                        team,
                        chunk,
                    );
                    assert_dispatch_laws(&parts, trip, Some(chunk));
                }
            }
        }
    }

    #[test]
    fn guided_dispatch_covers_every_iteration_exactly_once() {
        for chunk in [1i64, 3] {
            for trip in [0i64, 1, chunk - 1, chunk, chunk + 1, 50, 97] {
                if trip < 0 {
                    continue;
                }
                for team in [1u32, 2, 3, 7] {
                    let parts = dispatch_drive(
                        RuntimeConfig::default(),
                        SchedType::GuidedChunked as i64,
                        trip,
                        team,
                        chunk,
                    );
                    // Guided chunks may exceed `chunk` (it is a floor).
                    assert_dispatch_laws(&parts, trip, None);
                }
            }
        }
    }

    #[test]
    fn guided_chunks_shrink_and_respect_floor() {
        // Single thread drains the whole queue, so the chunk sequence is
        // deterministic: ceil(remaining / (2 * team)) floored at `chunk`.
        let parts = dispatch_drive(
            RuntimeConfig::default(),
            SchedType::GuidedChunked as i64,
            100,
            1,
            2,
        );
        let sizes: Vec<i64> = parts[0].iter().map(|&(lo, hi)| hi - lo + 1).collect();
        assert_eq!(sizes[0], 50, "first guided chunk is ceil(100/2)");
        for w in sizes.windows(2) {
            assert!(w[0] >= w[1], "guided chunks must not grow: {sizes:?}");
        }
        assert!(
            sizes[..sizes.len() - 1].iter().all(|&s| s >= 2),
            "floor chunk violated: {sizes:?}"
        );
    }

    #[test]
    fn runtime_schedule_resolves_from_config() {
        let cfg = RuntimeConfig {
            runtime_schedule: Some(RuntimeSchedule {
                kind: DispatchKind::Dynamic,
                chunk: 3,
            }),
            ..Default::default()
        };
        let parts = dispatch_drive(cfg, SchedType::Runtime as i64, 10, 2, 0);
        // The chunk argument (0) is ignored; the resolved schedule wins.
        assert_dispatch_laws(&parts, 10, Some(3));
        let all: Vec<i64> = parts
            .iter()
            .flatten()
            .map(|&(lo, hi)| hi - lo + 1)
            .collect();
        assert!(all.contains(&3), "expected chunk size 3: {all:?}");
    }

    #[test]
    fn runtime_schedule_default_is_balanced_static() {
        // No override and (in this test) no env: one chunk per thread.
        let cfg = RuntimeConfig {
            runtime_schedule: Some(RuntimeSchedule {
                kind: DispatchKind::Static,
                chunk: 0,
            }),
            ..Default::default()
        };
        let parts = dispatch_drive(cfg, SchedType::Runtime as i64, 16, 4, 0);
        assert_dispatch_laws(&parts, 16, Some(4));
        let total_chunks: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(
            total_chunks, 4,
            "balanced static serves ceil(trip/team) blocks"
        );
    }

    #[test]
    fn omp_schedule_parsing() {
        assert_eq!(
            RuntimeSchedule::parse("dynamic,4"),
            Ok(RuntimeSchedule {
                kind: DispatchKind::Dynamic,
                chunk: 4
            })
        );
        assert_eq!(
            RuntimeSchedule::parse("  GUIDED , 8 "),
            Ok(RuntimeSchedule {
                kind: DispatchKind::Guided,
                chunk: 8
            })
        );
        assert_eq!(
            RuntimeSchedule::parse("static"),
            Ok(RuntimeSchedule {
                kind: DispatchKind::Static,
                chunk: 0
            })
        );
        assert_eq!(
            RuntimeSchedule::parse("auto"),
            Ok(RuntimeSchedule {
                kind: DispatchKind::Static,
                chunk: 0
            })
        );
        assert!(RuntimeSchedule::parse("fifo,2").is_err());
        assert!(RuntimeSchedule::parse("").is_err());
    }

    /// Regression: these malformed values were silently absorbed into the
    /// balanced-static default before the `parse` API returned `Result`.
    #[test]
    fn omp_schedule_rejects_malformed_values_with_reasons() {
        let err = |s: &str| RuntimeSchedule::parse(s).unwrap_err();
        assert!(
            err("dynamic,0").contains("must be positive"),
            "{}",
            err("dynamic,0")
        );
        assert!(
            err("guided,-4").contains("must be positive"),
            "{}",
            err("guided,-4")
        );
        assert!(
            err("dynamic,abc").contains("invalid chunk size"),
            "{}",
            err("dynamic,abc")
        );
        assert!(
            err("fifo,2").contains("unknown schedule kind"),
            "{}",
            err("fifo,2")
        );
        assert!(err("").contains("missing schedule kind"), "{}", err(""));
        assert!(err(",4").contains("missing schedule kind"), "{}", err(",4"));
    }

    #[test]
    fn omp_schedule_resolve_warns_and_falls_back_explicitly() {
        // Unset: the libomp default, no warning.
        assert_eq!(
            RuntimeSchedule::resolve(None),
            (RuntimeSchedule::default_static(), None)
        );
        // Well-formed: no warning.
        let (rs, warn) = RuntimeSchedule::resolve(Some("guided,2"));
        assert_eq!(
            rs,
            RuntimeSchedule {
                kind: DispatchKind::Guided,
                chunk: 2
            }
        );
        assert_eq!(warn, None);
        // Malformed: explicit fallback plus a warning naming the value.
        let (rs, warn) = RuntimeSchedule::resolve(Some("dynamic,0"));
        assert_eq!(rs, RuntimeSchedule::default_static());
        let warn = warn.expect("malformed OMP_SCHEDULE must warn");
        assert!(warn.contains("OMP_SCHEDULE"), "{warn}");
        assert!(warn.contains("'dynamic,0'"), "{warn}");
        assert!(warn.contains("balanced static"), "{warn}");
    }

    #[test]
    fn dispatch_queue_retires_after_all_threads_drain() {
        // Two back-to-back dispatch loops on one shared TeamState: the
        // second init must get a fresh queue (seq 1), and the first queue
        // must have been removed once every member drained it.
        let m = Module::new();
        let it = Interpreter::new(&m, RuntimeConfig::default());
        let state = TeamState::new(1, false);
        let ctx = ThreadCtx::team_member(0, 1, Arc::clone(&state));
        let bufs = [
            it.state.mem.alloc(4),
            it.state.mem.alloc(8),
            it.state.mem.alloc(8),
            it.state.mem.alloc(8),
        ];
        for round in 0..2 {
            dispatch(
                &it,
                RtFn::DispatchInit8,
                vec![0, SchedType::DynamicChunked as u64, 0, 3, 1, 2],
                &ctx,
            )
            .unwrap();
            let mut served = 0;
            loop {
                let got = dispatch(
                    &it,
                    RtFn::DispatchNext8,
                    vec![0, bufs[0], bufs[1], bufs[2], bufs[3]],
                    &ctx,
                )
                .unwrap()
                .unwrap();
                if got == 0 {
                    break;
                }
                served += it.state.mem.load(bufs[2], 8).unwrap() as i64
                    - it.state.mem.load(bufs[1], 8).unwrap() as i64
                    + 1;
            }
            dispatch(&it, RtFn::DispatchFini8, vec![0], &ctx).unwrap();
            assert_eq!(served, 4, "round {round} served the full span");
            assert!(
                state.queues.lock().unwrap().is_empty(),
                "round {round} queue not retired"
            );
        }
    }

    #[test]
    fn barrier_makes_prior_writes_visible() {
        // Each thread stores flags[tid], hits the barrier, then asserts it
        // can see *every* other thread's store. Without a real barrier this
        // fails (flakily) because nothing orders the stores before the reads.
        let team = 8u32;
        let m = Module::new();
        let it = Interpreter::new(&m, RuntimeConfig::default());
        let flags = it.state.mem.alloc(8 * team as u64);
        let state = TeamState::new(team, true);
        std::thread::scope(|s| {
            for tid in 0..team {
                let it = &it;
                let state = Arc::clone(&state);
                s.spawn(move || {
                    let ctx = ThreadCtx::team_member(tid, team, state);
                    it.state
                        .mem
                        .store(flags + 8 * tid as u64, 8, (tid + 1) as u64)
                        .unwrap();
                    dispatch(it, RtFn::Barrier, vec![tid as u64], &ctx).unwrap();
                    for other in 0..team {
                        let v = it.state.mem.load(flags + 8 * other as u64, 8).unwrap();
                        assert_eq!(
                            v,
                            (other + 1) as u64,
                            "thread {tid} missed write of {other}"
                        );
                    }
                });
            }
        });
    }

    #[test]
    fn barrier_is_noop_for_solo_and_serial_teams() {
        let m = Module::new();
        let it = Interpreter::new(&m, RuntimeConfig::default());
        // Solo team (initial context): must not block.
        let ctx = ThreadCtx::initial();
        dispatch(&it, RtFn::Barrier, vec![0], &ctx).unwrap();
        // Serial team of 4: each member runs to completion alone, so the
        // barrier must not wait for peers that haven't started yet.
        let state = TeamState::new(4, false);
        for tid in 0..4 {
            let ctx = ThreadCtx::team_member(tid, 4, Arc::clone(&state));
            dispatch(&it, RtFn::Barrier, vec![tid as u64], &ctx).unwrap();
        }
    }
}
