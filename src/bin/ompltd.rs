//! ompltd — the compile server.
//!
//! Serves `omplt::service` over length-prefixed JSON frames (see
//! `src/protocol.rs` for the frame format and exit-code contract), either on
//! a Unix-domain socket (`--listen=PATH`) or over stdin/stdout (`--stdio`).
//! Jobs execute on a supervised worker pool (`--workers=N`); compiled
//! artifacts are shared through the content-addressed LRU cache
//! (`--cache-bytes=N`).
//!
//! ## Survivability
//!
//! The daemon is built to keep serving under partial failure:
//!
//! * **Worker supervision** — a worker that dies of an uncontained panic
//!   (injected via `daemon.worker-kill`, or a genuine bug outside the ICE
//!   boundary) is respawned; its in-flight job is requeued at the front of
//!   the queue *at most once*. A job whose worker dies twice is abandoned
//!   with a correlated error reply so the client never hangs. Counted in
//!   `daemon.supervisor.{respawns,requeued,abandoned}`.
//! * **Admission control** — the job queue is bounded (`--queue-depth=N`).
//!   A job arriving at a full queue (or while draining) is shed with a
//!   structured `Overloaded{retry_after_ms,queue_depth}` reply instead of
//!   growing the queue without bound. `{"op":"health"}` reports queue
//!   depth, worker liveness, supervisor counters, cache counters, uptime,
//!   and the `queue_wait_us` / `execute_us` latency of answered jobs.
//! * **Deadlines** — `--job-deadline-ms=N` imposes a server-side wall-clock
//!   budget on every job (composed with the client's `--exec-timeout` by
//!   taking the minimum); `--frame-timeout-ms=N` bounds how long a
//!   connection may stall mid-frame (slowloris) or sit idle before its
//!   thread is reclaimed.
//! * **Graceful drain** — SIGTERM/SIGINT (or a `shutdown` frame) stops
//!   accepting work, finishes everything queued and running, refuses new
//!   jobs with `Overloaded`, and exits 0 within `--drain-ms` (a daemon that
//!   cannot drain in time exits 1 rather than hang).
//! * **No clock in the transport** — the accept and drain loops block in
//!   `poll(2)` on the listener and a wake pipe. A connection is accepted
//!   the moment it arrives; a drain trigger sets its flag, then writes one
//!   byte to the pipe ([`wake`]), so an idle daemon makes no wakeups at all.
//!   The drain loop's only timeout is the `--drain-ms` deadline.
//! * **Cache integrity** — see `src/cache.rs`: artifacts are checksummed at
//!   insert, verified on hit, and quarantined + recompiled on mismatch.
//!
//! The binary has the two serving modes and nothing else: every scripted
//! fault sequence and every pinned counter lives in `tests/daemon.rs`, driven
//! against this daemon over its socket.

use omplt::options::{self, parse_value, Arg};
use omplt::protocol::{
    error_reply, error_reply_for, overloaded_reply, read_frame, write_frame, FrameError,
    HealthReport, JobRequest, Overloaded, Request, StageLatency,
};
use omplt::service::Service;
use std::collections::VecDeque;
use std::ffi::c_ulong;
use std::io::{Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicI32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

#[derive(Default)]
struct Config {
    listen: Option<String>,
    stdio: bool,
    workers: usize,
    cache_bytes: usize,
    queue_depth: usize,
    job_deadline_ms: Option<u64>,
    frame_timeout_ms: u64,
    drain_ms: u64,
    inject_faults: Vec<String>,
}

fn usage() -> u8 {
    eprintln!(
        "usage: ompltd (--listen=PATH | --stdio) [--workers=N] [--cache-bytes=N]\n\
         \x20              [--queue-depth=N] [--job-deadline-ms=N] [--frame-timeout-ms=N]\n\
         \x20              [--drain-ms=N] [--inject-fault=daemon.SITE[:N]]..."
    );
    2
}

/// Every flag and its value form, scanned by the rule `ompltc` uses
/// (`omplt::options::scan`).
const FLAGS: [(&str, Arg); 9] = [
    ("--listen", Arg::Value("PATH")),
    ("--stdio", Arg::Switch),
    ("--workers", Arg::Value("N")),
    ("--cache-bytes", Arg::Value("N")),
    ("--queue-depth", Arg::Value("N")),
    ("--job-deadline-ms", Arg::Value("N")),
    ("--frame-timeout-ms", Arg::Value("N")),
    ("--drain-ms", Arg::Value("N")),
    ("--inject-fault", Arg::Value("SITE[:N]")),
];

/// Applies one scanned flag. `Err` is a usage-error message.
fn apply_flag(cfg: &mut Config, flag: &str, v: Option<&str>) -> Result<(), String> {
    let at_least = |min: usize| {
        parse_value(flag, v, &format!("an integer >= {min}"), |&n: &usize| {
            n >= min
        })
    };
    match flag {
        "--listen" => cfg.listen = v.map(String::from),
        "--stdio" => cfg.stdio = true,
        "--workers" => cfg.workers = at_least(1)?,
        "--cache-bytes" => cfg.cache_bytes = parse_value(flag, v, "a byte count", |_| true)?,
        "--queue-depth" => cfg.queue_depth = at_least(1)?,
        "--job-deadline-ms" => cfg.job_deadline_ms = Some(at_least(1)? as u64),
        // 0 disables the frame timeout.
        "--frame-timeout-ms" => cfg.frame_timeout_ms = at_least(0)? as u64,
        "--drain-ms" => cfg.drain_ms = at_least(1)? as u64,
        "--inject-fault" => {
            let spec = v.unwrap_or_default();
            omplt::fault::parse_spec(spec)?;
            if !spec.starts_with("daemon.") {
                return Err(format!(
                    "--inject-fault only accepts daemon.* sites; \
                     '{spec}' is a per-job pipeline site (pass it via ompltc)"
                ));
            }
            cfg.inject_faults.push(spec.to_string());
        }
        _ => unreachable!("'{flag}' is not in FLAGS"),
    }
    Ok(())
}

fn parse_args(args: &[String]) -> Result<Config, u8> {
    let mut cfg = Config {
        workers: 4,
        cache_bytes: omplt::cache::DEFAULT_CACHE_BYTES,
        queue_depth: 64,
        frame_timeout_ms: 10_000,
        drain_ms: 5_000,
        ..Config::default()
    };
    let find = |name: &str| FLAGS.into_iter().find(|(flag, _)| *flag == name);
    let applied = options::scan(args, find).and_then(|(flags, stray)| {
        if let Some(arg) = stray.first() {
            return Err(format!("unknown option '{arg}'"));
        }
        (flags.into_iter()).try_for_each(|(flag, v)| apply_flag(&mut cfg, flag, v))
    });
    if let Err(msg) = applied {
        eprintln!("ompltd: {msg}");
        return Err(2);
    }
    if cfg.stdio == cfg.listen.is_some() {
        return Err(usage());
    }
    Ok(cfg)
}

/// A reply sink shared between the connection's reader and the workers
/// answering its jobs (and, for an abandoned job, the supervisor).
type SharedWriter = Arc<Mutex<dyn Write + Send>>;

/// One admitted job traveling through the pool.
struct QueuedJob {
    job: Box<JobRequest>,
    writer: SharedWriter,
    /// Completion signal back to the connection that admitted the job;
    /// fired exactly once (normal reply or abandonment).
    done: mpsc::Sender<()>,
    /// 0 on admission; 1 after a supervisor requeue. Never exceeds 1.
    attempt: u32,
    /// Stamped as the job is offered to [`Pool::try_submit`]; a requeue
    /// keeps it, so a requeued job's queue wait includes its lost attempt.
    admitted: Instant,
}

struct PoolQueue {
    jobs: VecDeque<QueuedJob>,
    closed: bool,
}

/// State shared by the workers, the supervisor (worker drop guards), and
/// the transport (admission control, health).
struct PoolShared {
    queue: Mutex<PoolQueue>,
    cv: Condvar,
    capacity: usize,
    workers_configured: usize,
    alive: AtomicUsize,
    running: AtomicUsize,
    respawns: AtomicU64,
    requeued: AtomicU64,
    abandoned: AtomicU64,
    /// Admission to worker pick-up, per answered job.
    queue_wait_us: LatencyHist,
    /// Worker pick-up to the rendered reply, per answered job.
    execute_us: LatencyHist,
    service: Arc<Service>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl PoolShared {
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, PoolQueue> {
        self.queue.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// A stage's latency in log2-microsecond buckets: bucket `k` holds the
/// values of bit length `k` (0 → 0, 1 → 1, 2..=3 → 2, 4..=7 → 3, …), so
/// its upper edge is `2^k − 1`. Recording is one atomic add — no lock, no
/// allocation.
struct LatencyHist {
    buckets: [AtomicU64; 65],
}

impl Default for LatencyHist {
    fn default() -> LatencyHist {
        LatencyHist {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

fn latency_bucket(us: u64) -> usize {
    (u64::BITS - us.leading_zeros()) as usize
}

fn bucket_upper_edge(k: usize) -> u64 {
    ((1u128 << k) - 1) as u64
}

impl LatencyHist {
    fn record(&self, d: Duration) {
        let us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        self.buckets[latency_bucket(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// The count, and for each percentile the upper edge of the first
    /// bucket whose running total reaches its rank.
    fn summary(&self) -> StageLatency {
        let counts = self.buckets.each_ref().map(|b| b.load(Ordering::Relaxed));
        let count = counts.iter().sum::<u64>();
        let percentile = |p: u64| {
            let rank = (count * p).div_ceil(100).max(1);
            let mut seen = 0;
            let k = counts.iter().position(|&c| {
                seen += c;
                seen >= rank
            });
            k.map_or(0, bucket_upper_edge)
        };
        StageLatency {
            count,
            p50: percentile(50),
            p90: percentile(90),
            p99: percentile(99),
        }
    }
}

/// A supervised, bounded pool of job-execution threads.
struct Pool {
    shared: Arc<PoolShared>,
}

/// What [`Pool::close_and_join`] observed over the pool's lifetime.
struct PoolReport {
    respawns: u64,
    requeued: u64,
    abandoned: u64,
}

impl Pool {
    fn new(workers: usize, capacity: usize, service: Arc<Service>) -> Pool {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                jobs: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            capacity,
            workers_configured: workers,
            alive: AtomicUsize::new(0),
            running: AtomicUsize::new(0),
            respawns: AtomicU64::new(0),
            requeued: AtomicU64::new(0),
            abandoned: AtomicU64::new(0),
            queue_wait_us: LatencyHist::default(),
            execute_us: LatencyHist::default(),
            service,
            handles: Mutex::new(Vec::new()),
        });
        for _ in 0..workers {
            spawn_worker(&shared);
        }
        Pool { shared }
    }

    /// Admits a job unless the queue is full or closed; the rejected job is
    /// handed back so the caller can shed it with an `Overloaded` reply.
    fn try_submit(&self, qj: QueuedJob) -> Result<(), QueuedJob> {
        {
            let mut q = self.shared.lock_queue();
            if q.closed || q.jobs.len() >= self.shared.capacity {
                return Err(qj);
            }
            q.jobs.push_back(qj);
        }
        self.shared.cv.notify_one();
        Ok(())
    }

    fn depth(&self) -> usize {
        self.shared.lock_queue().jobs.len()
    }

    /// True when nothing is queued and nothing is running. Read under the
    /// queue lock: a worker counts a job running in the lock section that
    /// pops it, and a requeue pushes the job back before it releases the
    /// count, so a job in hand is always in one of the two places.
    fn idle(&self) -> bool {
        let q = self.shared.lock_queue();
        q.jobs.is_empty() && self.shared.running.load(Ordering::SeqCst) == 0
    }

    /// Closes the queue and joins every worker (including respawned ones),
    /// reporting the supervisor counters so a pool that lost workers can
    /// never exit silently. Queued jobs are still executed before workers
    /// observe the close.
    fn close_and_join(self) -> PoolReport {
        {
            let mut q = self.shared.lock_queue();
            q.closed = true;
        }
        self.shared.cv.notify_all();
        // A panicking worker pushes its replacement's handle before its own
        // thread terminates, and `join` waits for termination — so looping
        // until the vector is empty joins every worker ever spawned.
        loop {
            let handle = self
                .shared
                .handles
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        PoolReport {
            respawns: self.shared.respawns.load(Ordering::SeqCst),
            requeued: self.shared.requeued.load(Ordering::SeqCst),
            abandoned: self.shared.abandoned.load(Ordering::SeqCst),
        }
    }
}

fn spawn_worker(shared: &Arc<PoolShared>) {
    shared.alive.fetch_add(1, Ordering::SeqCst);
    let worker_shared = shared.clone();
    let handle = std::thread::Builder::new()
        .name("ompltd-worker".to_string())
        .spawn(move || worker_loop(worker_shared))
        .expect("spawn pool worker");
    shared
        .handles
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .push(handle);
}

/// Decrements the live-worker count when the worker thread ends, however it
/// ends.
struct AliveGuard {
    shared: Arc<PoolShared>,
}

impl Drop for AliveGuard {
    fn drop(&mut self) {
        self.shared.alive.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Owns the job a worker is executing. Dropped normally it only releases
/// the running count (and, while draining, wakes the drain loop: the pool
/// may have just gone idle); dropped during an unwind (the worker is dying)
/// it first *supervises*: respawn a replacement worker, then requeue the
/// job at the front of the queue if this was its first attempt, or abandon
/// it with a correlated error reply so the client still gets exactly one
/// answer.
struct InFlight {
    shared: Arc<PoolShared>,
    job: Option<QueuedJob>,
}

impl Drop for InFlight {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.supervise();
        }
        // Released only after a requeue has put the job back, so
        // `Pool::idle` never reads idle while the job is in hand.
        self.shared.running.fetch_sub(1, Ordering::SeqCst);
        if draining() {
            wake();
        }
    }
}

impl InFlight {
    fn supervise(&mut self) {
        self.shared.respawns.fetch_add(1, Ordering::SeqCst);
        if let Some(mut qj) = self.job.take() {
            if qj.attempt == 0 {
                qj.attempt = 1;
                self.shared.requeued.fetch_add(1, Ordering::SeqCst);
                {
                    let mut q = self.shared.lock_queue();
                    q.jobs.push_front(qj);
                }
                self.shared.cv.notify_one();
            } else {
                self.shared.abandoned.fetch_add(1, Ordering::SeqCst);
                let reply = error_reply_for(
                    qj.job.id,
                    "job abandoned: worker died twice while executing it",
                );
                {
                    let mut w = qj.writer.lock().unwrap_or_else(|p| p.into_inner());
                    let _ = write_frame(&mut *w, reply.as_bytes());
                }
                let _ = qj.done.send(());
            }
        }
        spawn_worker(&self.shared);
    }
}

/// Shots the job's own `--inject-fault` spec devotes to killing its worker
/// (0 when it targets another site). `daemon.worker-kill:N` kills the first
/// N workers that pick the job up, so `:1` exercises requeue-and-recover
/// and `:2` exercises abandonment.
fn injected_kill_shots(job: &JobRequest) -> u64 {
    job.inject_fault
        .as_deref()
        .and_then(|spec| omplt::fault::parse_spec(spec).ok())
        .filter(|(site, _)| *site == "daemon.worker-kill")
        .map_or(0, |(_, n)| n)
}

fn worker_loop(shared: Arc<PoolShared>) {
    let _alive = AliveGuard {
        shared: shared.clone(),
    };
    loop {
        let qj = {
            let mut q = shared.lock_queue();
            loop {
                if let Some(j) = q.jobs.pop_front() {
                    // Running from the moment it leaves the queue (see
                    // `Pool::idle`).
                    shared.running.fetch_add(1, Ordering::SeqCst);
                    break j;
                }
                if q.closed {
                    return;
                }
                q = shared.cv.wait(q).unwrap_or_else(|p| p.into_inner());
            }
        };
        let picked = Instant::now();
        let mut flight = InFlight {
            shared: shared.clone(),
            job: Some(qj),
        };
        let (attempt, kill_shots) = {
            let qj = flight.job.as_ref().expect("job just stored");
            (qj.attempt, injected_kill_shots(&qj.job))
        };
        // Injected worker death. Per-job shots kill every attempt they
        // cover; a globally armed kill only ever takes a job's *first*
        // attempt, so chaos runs lose no jobs to unlucky double kills.
        if u64::from(attempt) < kill_shots
            || (attempt == 0 && omplt::fault::fire_global("daemon.worker-kill"))
        {
            panic!("injected fault at site 'daemon.worker-kill'");
        }
        // The job stays owned by `flight` through execution so an
        // uncontained panic inside the pipeline still requeues it; it is
        // taken out before the reply is written so a (hypothetical) panic
        // while replying can never double-execute it.
        let reply = shared
            .service
            .execute(&flight.job.as_ref().expect("job in flight").job)
            .render();
        let qj = flight.job.take().expect("job in flight");
        // Recorded before the reply is written, so a `health` request sent
        // after a reply arrived always counts its job.
        shared.queue_wait_us.record(picked - qj.admitted);
        shared.execute_us.record(picked.elapsed());
        {
            let mut w = qj.writer.lock().unwrap_or_else(|p| p.into_inner());
            let _ = write_frame(&mut *w, reply.as_bytes());
        }
        let _ = qj.done.send(());
        drop(flight);
    }
}

/// Set by SIGTERM/SIGINT and by a `shutdown` frame, always through
/// [`start_drain`]: the flag first, then [`wake`].
static DRAIN: AtomicBool = AtomicBool::new(false);

/// The write end of the wake pipe while `serve_socket` runs, -1 otherwise.
/// A raw fd in a static, so the signal handler can reach it.
static WAKE_FD: AtomicI32 = AtomicI32::new(-1);

fn draining() -> bool {
    DRAIN.load(Ordering::SeqCst)
}

fn start_drain() {
    DRAIN.store(true, Ordering::SeqCst);
    wake();
}

/// Makes the wake pipe readable: one `write(2)` of one byte, which is
/// async-signal-safe. A full pipe is readable already, so the result does
/// not matter; with no socket loop running this does nothing.
fn wake() {
    let fd = WAKE_FD.load(Ordering::SeqCst);
    if fd >= 0 {
        // SAFETY: the buffer is a 1-byte static; `fd` is the wake pipe's
        // write end, which `serve_socket` keeps open until it resets
        // `WAKE_FD` to -1.
        unsafe { write(fd, b"!".as_ptr(), 1) };
    }
}

extern "C" fn on_drain_signal(_sig: i32) {
    start_drain();
}

// `std` links libc; declaring `signal`, `poll` and `write` directly keeps
// the workspace free of external crates. The drain-signal handler is an
// atomic store and a `write(2)`, both async-signal-safe.
extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout_ms: i32) -> i32;
    fn write(fd: RawFd, buf: *const u8, count: usize) -> isize;
}

/// `struct pollfd` of `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 1;
const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

/// Blocks in `poll(2)` until the listener or the wake pipe is readable or
/// `timeout_ms` passes (-1: never), and says which of the two is. A wait
/// cut short by a signal reports neither; the callers re-check the drain
/// flag and wait again.
fn wait_readable(listener: &UnixListener, wake_rx: &UnixStream, timeout_ms: i32) -> [bool; 2] {
    let mut fds = [listener.as_raw_fd(), wake_rx.as_raw_fd()].map(|fd| PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    });
    // SAFETY: `fds` is a live array of `fds.len()` `#[repr(C)]` pollfd
    // records whose fds the borrowed listener and pipe keep open.
    let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
    fds.map(|p| ready > 0 && p.revents != 0)
}

/// Empties the (non-blocking) wake pipe.
fn empty_wake_pipe(mut wake_rx: &UnixStream) {
    let mut buf = [0u8; 64];
    while matches!(wake_rx.read(&mut buf), Ok(n) if n > 0) {}
}

fn install_drain_signals() {
    unsafe {
        signal(SIGTERM, on_drain_signal);
        signal(SIGINT, on_drain_signal);
    }
}

/// Everything a connection thread needs: the service and the pool.
struct DaemonCtx {
    service: Arc<Service>,
    pool: Pool,
    job_deadline_ms: Option<u64>,
}

impl DaemonCtx {
    fn new(cfg: &Config) -> DaemonCtx {
        let service = Arc::new(Service::new(cfg.cache_bytes));
        let pool = Pool::new(cfg.workers, cfg.queue_depth, service.clone());
        DaemonCtx {
            service,
            pool,
            job_deadline_ms: cfg.job_deadline_ms,
        }
    }

    fn health(&self) -> HealthReport {
        let s = &self.pool.shared;
        let mut h = self.service.base_health();
        h.queue_depth = self.pool.depth() as u64;
        h.queue_capacity = s.capacity as u64;
        h.running = s.running.load(Ordering::SeqCst) as u64;
        h.workers_alive = s.alive.load(Ordering::SeqCst) as u64;
        h.workers_configured = s.workers_configured as u64;
        h.draining = draining();
        h.respawns = s.respawns.load(Ordering::SeqCst);
        h.requeued = s.requeued.load(Ordering::SeqCst);
        h.abandoned = s.abandoned.load(Ordering::SeqCst);
        h.queue_wait_us = s.queue_wait_us.summary();
        h.execute_us = s.execute_us.summary();
        h
    }
}

/// The server's wall-clock deadline composes with the client's by taking
/// the minimum: whichever budget is tighter governs the job.
fn compose_deadline(client: Option<u64>, server: Option<u64>) -> Option<u64> {
    match (client, server) {
        (Some(c), Some(s)) => Some(c.min(s)),
        (c, s) => c.or(s),
    }
}

/// Reads frames from `reader`, answering control requests inline and
/// admitting jobs to the pool (replies are written by the workers, in
/// completion order — replies carry the request id). A shutdown frame
/// starts the drain, which wakes the accept loop.
fn serve_stream<R: std::io::Read>(reader: &mut R, writer: SharedWriter, ctx: &DaemonCtx) {
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let mut outstanding = 0usize;
    let write_reply = |body: &str| {
        let mut w = writer.lock().unwrap_or_else(|p| p.into_inner());
        let _ = write_frame(&mut *w, body.as_bytes());
    };
    loop {
        while done_rx.try_recv().is_ok() {
            outstanding -= 1;
        }
        match read_frame(reader) {
            Ok(None) => break,
            Err(FrameError::TimedOut { mid_frame: false }) => {
                // Plain idleness: keep waiting while this connection still
                // owes replies; otherwise reclaim the thread quietly.
                if outstanding > 0 {
                    continue;
                }
                break;
            }
            Err(e) => {
                // A malformed or stalled frame desynchronizes the stream:
                // reply with a structured error, then close this
                // connection. The server itself keeps serving.
                write_reply(&error_reply(&e.to_string()));
                break;
            }
            Ok(Some(body)) => {
                let Ok(text) = std::str::from_utf8(&body) else {
                    write_reply(&error_reply("frame is not valid UTF-8"));
                    continue;
                };
                match Request::parse(text) {
                    Err(e) => write_reply(&error_reply(&e)),
                    Ok(Request::Stats) => {
                        write_reply(ctx.service.cache().counters_json().trim_end());
                    }
                    Ok(Request::Health) => write_reply(&ctx.health().render()),
                    Ok(Request::Shutdown) => {
                        // Draining before the acknowledgement: a client
                        // that has read it is refused from then on.
                        start_drain();
                        write_reply("{\"ok\":true}");
                        break;
                    }
                    Ok(Request::Job(mut job)) => {
                        job.opts.deadline_ms =
                            compose_deadline(job.opts.deadline_ms, ctx.job_deadline_ms);
                        let shed_injected = omplt::fault::fire_global("daemon.queue-full");
                        if draining() || shed_injected {
                            let o = Overloaded {
                                retry_after_ms: if draining() { 100 } else { 50 },
                                queue_depth: ctx.pool.depth() as u64,
                            };
                            write_reply(&overloaded_reply(Some(job.id), &o));
                            continue;
                        }
                        let qj = QueuedJob {
                            job,
                            writer: writer.clone(),
                            done: done_tx.clone(),
                            attempt: 0,
                            admitted: Instant::now(),
                        };
                        match ctx.pool.try_submit(qj) {
                            Ok(()) => outstanding += 1,
                            Err(rejected) => {
                                let o = Overloaded {
                                    retry_after_ms: 50,
                                    queue_depth: ctx.pool.depth() as u64,
                                };
                                write_reply(&overloaded_reply(Some(rejected.job.id), &o));
                            }
                        }
                    }
                }
            }
        }
    }
    // Every admitted job answers (normal reply or abandonment) before the
    // connection winds down.
    for _ in 0..outstanding {
        let _ = done_rx.recv();
    }
}

fn serve_socket(path: &str, cfg: &Config) -> ExitCode {
    let _ = std::fs::remove_file(path);
    let listener = match UnixListener::bind(path) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("ompltd: cannot bind '{path}': {e}");
            return ExitCode::from(1);
        }
    };
    // Non-blocking listener and wake pipe: `poll(2)` says when to read, so
    // a client that vanished between `poll` and `accept` costs nothing.
    let wake_pipe = listener
        .set_nonblocking(true)
        .and_then(|()| UnixStream::pair())
        .and_then(|(tx, rx)| {
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            Ok((tx, rx))
        });
    let (wake_tx, wake_rx) = match wake_pipe {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("ompltd: cannot set up poll(2) on '{path}': {e}");
            return ExitCode::from(1);
        }
    };
    WAKE_FD.store(wake_tx.as_raw_fd(), Ordering::SeqCst);
    install_drain_signals();
    let ctx = DaemonCtx::new(cfg);
    eprintln!(
        "ompltd: listening on {path} ({} workers, queue depth {})",
        cfg.workers, cfg.queue_depth
    );
    std::thread::scope(|scope| {
        // Every drain trigger sets `DRAIN` before it wakes, and `poll` is
        // level-triggered: a trigger that lands between this check and
        // `poll` leaves the pipe readable, so `poll` returns at once.
        while !draining() {
            let [conn, woken] = wait_readable(&listener, &wake_rx, -1);
            count_accept_turn();
            if woken {
                empty_wake_pipe(&wake_rx);
                continue;
            }
            if !conn {
                continue;
            }
            let Ok((stream, _)) = listener.accept() else {
                continue;
            };
            let _ = stream.set_nonblocking(false);
            if cfg.frame_timeout_ms > 0 {
                let _ = stream.set_read_timeout(Some(Duration::from_millis(cfg.frame_timeout_ms)));
            }
            let ctx = &ctx;
            scope.spawn(move || {
                let Ok(mut reader) = stream.try_clone() else {
                    return;
                };
                let writer: SharedWriter = Arc::new(Mutex::new(stream));
                serve_stream(&mut reader, writer, ctx);
            });
        }
        eprintln!(
            "ompltd: draining ({} queued, {} running)",
            ctx.pool.depth(),
            ctx.pool.shared.running.load(Ordering::SeqCst)
        );
        // Drain phase: finish queued+running jobs, refuse new connections
        // with `Overloaded`, and never outlive the drain window. A job that
        // finishes wakes this loop (`InFlight::drop`), so the deadline is
        // the only timeout.
        let deadline = Instant::now() + Duration::from_millis(cfg.drain_ms);
        while !ctx.pool.idle() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                let _ = std::fs::remove_file(path);
                eprintln!(
                    "ompltd: drain deadline ({} ms) exceeded with work unfinished; aborting",
                    cfg.drain_ms
                );
                std::process::exit(1);
            }
            let timeout_ms = i32::try_from(left.as_micros().div_ceil(1000)).unwrap_or(i32::MAX);
            let [conn, woken] = wait_readable(&listener, &wake_rx, timeout_ms);
            if woken {
                empty_wake_pipe(&wake_rx);
            }
            if conn {
                if let Ok((mut stream, _)) = listener.accept() {
                    let _ = stream.set_nonblocking(false);
                    let o = Overloaded {
                        retry_after_ms: 100,
                        queue_depth: ctx.pool.depth() as u64,
                    };
                    let _ = write_frame(&mut stream, overloaded_reply(None, &o).as_bytes());
                }
            }
        }
    });
    WAKE_FD.store(-1, Ordering::SeqCst);
    let report = ctx.pool.close_and_join();
    if report.respawns > 0 {
        eprintln!(
            "ompltd: supervised {} worker respawn(s) ({} job(s) requeued, {} abandoned)",
            report.respawns, report.requeued, report.abandoned
        );
    }
    let _ = std::fs::remove_file(path);
    eprintln!("ompltd: shutting down");
    ExitCode::SUCCESS
}

fn serve_stdio(cfg: &Config) -> ExitCode {
    let ctx = DaemonCtx::new(cfg);
    let mut stdin = std::io::stdin().lock();
    let stdout: SharedWriter = Arc::new(Mutex::new(std::io::stdout()));
    serve_stream(&mut stdin, stdout, &ctx);
    let report = ctx.pool.close_and_join();
    if report.respawns > 0 {
        eprintln!(
            "ompltd: supervised {} worker respawn(s) ({} job(s) requeued, {} abandoned)",
            report.respawns, report.requeued, report.abandoned
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(code) => return ExitCode::from(code),
    };
    for spec in &cfg.inject_faults {
        // Validated during parsing; arming cannot fail here.
        let _ = omplt::fault::arm_global(spec);
    }
    if cfg.stdio {
        return serve_stdio(&cfg);
    }
    match &cfg.listen {
        Some(path) => serve_socket(path, &cfg),
        None => ExitCode::from(usage()),
    }
}

/// The shipped binary does not count accept-loop turns.
#[cfg(not(test))]
fn count_accept_turn() {}

/// Returns from `poll` in the accept loop: the wakeup test's probe.
#[cfg(test)]
static ACCEPT_TURNS: AtomicU64 = AtomicU64::new(0);

#[cfg(test)]
fn count_accept_turn() {
    ACCEPT_TURNS.fetch_add(1, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_buckets_are_log2_microseconds_with_upper_edges() {
        assert_eq!((latency_bucket(0), bucket_upper_edge(0)), (0, 0));
        assert_eq!((latency_bucket(1), bucket_upper_edge(1)), (1, 1));
        for k in 1..64 {
            let edge = (1u64 << k) - 1;
            assert_eq!(latency_bucket(edge), k, "2^{k}-1 closes bucket {k}");
            assert_eq!(bucket_upper_edge(k), edge);
            assert_eq!(latency_bucket(edge + 1), k + 1, "2^{k} opens the next");
        }
        assert_eq!(latency_bucket(u64::MAX), 64);
        assert_eq!(bucket_upper_edge(64), u64::MAX);

        let h = LatencyHist::default();
        assert_eq!(h.summary(), StageLatency::default(), "nothing timed yet");
        let us = |n: u64| Duration::from_micros(n);
        (0..90).for_each(|_| h.record(us(3)));
        (0..9).for_each(|_| h.record(us(100)));
        h.record(us(5000));
        let s = h.summary();
        assert_eq!((s.count, s.p50, s.p90, s.p99), (100, 3, 3, 127));
    }

    #[test]
    fn an_idle_daemon_makes_no_wakeups_and_a_connection_costs_one() {
        let path = std::env::temp_dir().join(format!("ompltd-idle-{}.sock", std::process::id()));
        let listen = format!("--listen={}", path.display());
        let cfg = parse_args(&[listen, "--workers=1".to_string()]).unwrap();
        let socket = path.to_str().unwrap().to_string();
        let server = std::thread::spawn(move || serve_socket(&socket, &cfg));
        for _ in 0..400 {
            if path.exists() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let request = |req: Request| {
            let mut s = UnixStream::connect(&path).expect("connect");
            write_frame(&mut s, req.render().as_bytes()).unwrap();
            let reply = read_frame(&mut s).unwrap().expect("reply frame");
            String::from_utf8(reply).unwrap()
        };

        // The parent's loop ticked every 20 ms: about ten turns here.
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(ACCEPT_TURNS.load(Ordering::SeqCst), 0, "idle wakeups");
        let health = HealthReport::parse(&request(Request::Health)).unwrap();
        assert_eq!(health.workers_configured, 1);
        assert_eq!(ACCEPT_TURNS.load(Ordering::SeqCst), 1, "one connection");

        assert_eq!(request(Request::Shutdown), "{\"ok\":true}");
        assert_eq!(server.join().unwrap(), ExitCode::SUCCESS);
        assert!(!path.exists(), "the socket file is removed");
    }
}
