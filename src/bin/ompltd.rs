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
//!   depth, worker liveness, supervisor counters, cache counters, uptime.
//! * **Deadlines** — `--job-deadline-ms=N` imposes a server-side wall-clock
//!   budget on every job (composed with the client's `--exec-timeout` by
//!   taking the minimum); `--frame-timeout-ms=N` bounds how long a
//!   connection may stall mid-frame (slowloris) or sit idle before its
//!   thread is reclaimed.
//! * **Graceful drain** — SIGTERM/SIGINT (or a `shutdown` frame) stops
//!   accepting work, finishes everything queued and running, refuses new
//!   jobs with `Overloaded`, and exits 0 within `--drain-ms` (a daemon that
//!   cannot drain in time exits 1 rather than hang).
//! * **Cache integrity** — see `src/cache.rs`: artifacts are checksummed at
//!   insert, verified on hit, and quarantined + recompiled on mismatch.
//!
//! The binary has the two serving modes and nothing else: every scripted
//! fault sequence and every pinned counter lives in `tests/daemon.rs`, driven
//! against this daemon over its socket.

use omplt::options::{self, parse_value, Arg};
use omplt::protocol::{
    error_reply, error_reply_for, overloaded_reply, read_frame, write_frame, FrameError,
    HealthReport, JobRequest, Overloaded, Request,
};
use omplt::service::Service;
use std::collections::VecDeque;
use std::io::Write;
use std::os::unix::net::UnixListener;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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
    service: Arc<Service>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl PoolShared {
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, PoolQueue> {
        self.queue.lock().unwrap_or_else(|p| p.into_inner())
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

    /// True when nothing is queued and nothing is running.
    fn idle(&self) -> bool {
        self.shared.running.load(Ordering::SeqCst) == 0 && self.depth() == 0
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
/// the running count; dropped during an unwind (the worker is dying) it
/// *supervises*: respawn a replacement worker, then requeue the job at the
/// front of the queue if this was its first attempt, or abandon it with a
/// correlated error reply so the client still gets exactly one answer.
struct InFlight {
    shared: Arc<PoolShared>,
    job: Option<QueuedJob>,
}

impl Drop for InFlight {
    fn drop(&mut self) {
        self.shared.running.fetch_sub(1, Ordering::SeqCst);
        if !std::thread::panicking() {
            return;
        }
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
                    break j;
                }
                if q.closed {
                    return;
                }
                q = shared.cv.wait(q).unwrap_or_else(|p| p.into_inner());
            }
        };
        shared.running.fetch_add(1, Ordering::SeqCst);
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
        {
            let mut w = qj.writer.lock().unwrap_or_else(|p| p.into_inner());
            let _ = write_frame(&mut *w, reply.as_bytes());
        }
        let _ = qj.done.send(());
        drop(flight);
    }
}

/// SIGTERM/SIGINT land here; the accept loop polls the flag.
static SIGNAL_DRAIN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_drain_signal(_sig: i32) {
    SIGNAL_DRAIN.store(true, Ordering::SeqCst);
}

// `std` links libc; declaring `signal` directly keeps the workspace free of
// external crates. Registering an atomic-store handler is async-signal-safe.
extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

fn install_drain_signals() {
    unsafe {
        signal(SIGTERM, on_drain_signal);
        signal(SIGINT, on_drain_signal);
    }
}

/// Everything a connection thread needs: the service, the pool, and the
/// drain state.
struct DaemonCtx {
    service: Arc<Service>,
    pool: Pool,
    drain: AtomicBool,
    job_deadline_ms: Option<u64>,
}

impl DaemonCtx {
    fn new(cfg: &Config) -> DaemonCtx {
        let service = Arc::new(Service::new(cfg.cache_bytes));
        let pool = Pool::new(cfg.workers, cfg.queue_depth, service.clone());
        DaemonCtx {
            service,
            pool,
            drain: AtomicBool::new(false),
            job_deadline_ms: cfg.job_deadline_ms,
        }
    }

    fn draining(&self) -> bool {
        self.drain.load(Ordering::SeqCst) || SIGNAL_DRAIN.load(Ordering::SeqCst)
    }

    fn health(&self) -> HealthReport {
        let s = &self.pool.shared;
        let mut h = self.service.base_health();
        h.queue_depth = self.pool.depth() as u64;
        h.queue_capacity = s.capacity as u64;
        h.running = s.running.load(Ordering::SeqCst) as u64;
        h.workers_alive = s.alive.load(Ordering::SeqCst) as u64;
        h.workers_configured = s.workers_configured as u64;
        h.draining = self.draining();
        h.respawns = s.respawns.load(Ordering::SeqCst);
        h.requeued = s.requeued.load(Ordering::SeqCst);
        h.abandoned = s.abandoned.load(Ordering::SeqCst);
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
/// completion order — replies carry the request id). A shutdown frame sets
/// the drain flag; the accept loop observes it.
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
                        write_reply("{\"ok\":true}");
                        ctx.drain.store(true, Ordering::SeqCst);
                        break;
                    }
                    Ok(Request::Job(mut job)) => {
                        job.opts.deadline_ms =
                            compose_deadline(job.opts.deadline_ms, ctx.job_deadline_ms);
                        let shed_injected = omplt::fault::fire_global("daemon.queue-full");
                        if ctx.draining() || shed_injected {
                            let o = Overloaded {
                                retry_after_ms: if ctx.draining() { 100 } else { 50 },
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
    if let Err(e) = listener.set_nonblocking(true) {
        eprintln!("ompltd: cannot poll '{path}': {e}");
        return ExitCode::from(1);
    }
    install_drain_signals();
    let ctx = DaemonCtx::new(cfg);
    eprintln!(
        "ompltd: listening on {path} ({} workers, queue depth {})",
        cfg.workers, cfg.queue_depth
    );
    std::thread::scope(|scope| {
        while !ctx.draining() {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(false);
                    if cfg.frame_timeout_ms > 0 {
                        let _ = stream
                            .set_read_timeout(Some(Duration::from_millis(cfg.frame_timeout_ms)));
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
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(_) => {}
            }
        }
        eprintln!(
            "ompltd: draining ({} queued, {} running)",
            ctx.pool.depth(),
            ctx.pool.shared.running.load(Ordering::SeqCst)
        );
        // Drain phase: finish queued+running jobs, refuse new connections
        // with `Overloaded`, and never outlive the drain window.
        let deadline = Instant::now() + Duration::from_millis(cfg.drain_ms);
        while !ctx.pool.idle() {
            if Instant::now() >= deadline {
                let _ = std::fs::remove_file(path);
                eprintln!(
                    "ompltd: drain deadline ({} ms) exceeded with work unfinished; aborting",
                    cfg.drain_ms
                );
                std::process::exit(1);
            }
            match listener.accept() {
                Ok((mut stream, _)) => {
                    let _ = stream.set_nonblocking(false);
                    let o = Overloaded {
                        retry_after_ms: 100,
                        queue_depth: ctx.pool.depth() as u64,
                    };
                    let _ = write_frame(&mut stream, overloaded_reply(None, &o).as_bytes());
                }
                _ => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    });
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
