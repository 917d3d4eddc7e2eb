//! `ompltc` — the clang-like driver for the omplt pipeline.
//!
//! ```text
//! ompltc [OPTIONS] <file.c>
//! ```
//!
//! Run `ompltc` with no arguments for the option listing. It is generated
//! from the two tables that also drive the argument parser: the job options
//! (`omplt::options::JOB_OPTIONS` — what a compile/run job carries, locally
//! and over `--remote` alike) and the driver-only modes and outputs
//! ([`DRIVER_FLAGS`] below).
//!
//! Exit codes: 0 success, 1 findings/compile errors/runtime failures,
//! 2 usage errors, 3 internal compiler error (ICE).
//!
//! A local compile and a `--remote` one are the same two steps: run the job
//! (`omplt::service::execute_job` in-process, or the same function inside
//! `ompltd`), then [`replay`] the reply. The ICE boundary lives in that
//! function: any internal panic comes back as a structured "internal
//! compiler error" (rendered here, honoring `--diag-format=json`, plus an
//! optional `--crash-report` bundle) — a compile request can fail, but it
//! cannot take the process down with a raw panic or hang it (barrier
//! deadlocks are caught by the runtime watchdog, runaway loops by `--fuel`,
//! and everything else by `--exec-timeout`).
//!
//! The three observability flags share one trace session: spans cover every
//! stage (lex, parse, sema per-directive, codegen, mid-end passes, verifier
//! re-checks, the interpreter run) and counters record what each stage did
//! (shadow-AST helper nodes built, chunks claimed per schedule kind per
//! thread, barrier waits, ...). Output is written after the pipeline exits,
//! even when it exits early on an error or an ICE.

use omplt::options::{self, parse_value, Arg, Flag, OptionRow};
use omplt::protocol::{driver_diag, CacheOutcome, IceInfo, JobRequest, JobResponse};
use omplt::service::{self, LocalViews};
use omplt::trace::TraceData;
use std::process::ExitCode;

/// `Some(None)` = stdout, `Some(Some(f))` = file `f`.
type Dest = Option<Option<String>>;

/// Everything parsed out of `argv`: the job, plus the driver-only state.
#[derive(Default)]
struct Cli {
    /// The job. `name` is the input path; `source` is filled in once read.
    job: JobRequest,
    /// Local-only parameters of the pipeline walk.
    views: LocalViews,
    check_bytecode: bool,
    time_trace: Dest,
    time_report: bool,
    /// Where `--counters-json` goes (the job's `want_counters` asks for it).
    counters_json: Dest,
    crash_report: Option<String>,
    remote: Option<String>,
    remote_retries: Option<u32>,
    remote_backoff_ms: Option<u64>,
    /// `--autotune` evaluation budget (`None` = not tuning).
    autotune: Option<usize>,
    tune_json: Dest,
    tune_best: Option<String>,
    tune_seed: Option<u64>,
}

/// A flag that is not a job option: spelling and help, plus how it applies
/// its scanned value (`Err` is a usage-error message).
struct DriverFlag {
    flag: Flag,
    apply: fn(&mut Cli, Option<&str>) -> Result<(), String>,
}

const fn driver_flag(
    name: &'static str,
    arg: Arg,
    help: &'static str,
    apply: fn(&mut Cli, Option<&str>) -> Result<(), String>,
) -> DriverFlag {
    let flag = Flag { name, arg, help };
    DriverFlag { flag, apply }
}

/// Stores `value` in `slot`: the body of most `apply` closures.
fn store<T>(slot: &mut T, value: T) -> Result<(), String> {
    *slot = value;
    Ok(())
}

/// The driver-only flags — local-only views, driver modes, and where outputs
/// go — one row each.
static DRIVER_FLAGS: [DriverFlag; 16] = [
    driver_flag(
        "--analyze",
        Arg::Switch,
        "stop after the front end; non-zero exit on any finding of\n\
         its analysis (legality, simd lanes, -Wrace)",
        |c, _| store(&mut c.views.analyze, true),
    ),
    driver_flag(
        "--ast-dump",
        Arg::Switch,
        "print the syntactic AST (clang -ast-dump style)",
        |c, _| store(&mut c.views.ast_dump, true),
    ),
    driver_flag(
        "--ast-dump-transformed",
        Arg::Switch,
        "additionally show shadow (transformed) subtrees",
        |c, _| store(&mut c.views.ast_dump_transformed, true),
    ),
    driver_flag(
        "--autotune",
        Arg::Optional("N"),
        "autotune the file's OpenMP directives: enumerate mutated\n\
         directive configurations, prune illegal ones through the\n\
         analysis suite, execute up to N legal survivors (default 32),\n\
         and print a ranked report; exit 1 if no candidate survives",
        |c, v| {
            let budget = match v {
                None => omplt::tuner::DEFAULT_BUDGET,
                Some(_) => parse_value("--autotune", v, "a positive candidate budget", |&n| n > 0)?,
            };
            store(&mut c.autotune, Some(budget))
        },
    ),
    driver_flag(
        "--check-bytecode",
        Arg::Switch,
        "treat <file> as an OMPLTBC container: decode it and run the\n\
         bytecode verifier; exit 0 if clean, 1 with diagnostics on any\n\
         decode/verify finding",
        |c, _| store(&mut c.check_bytecode, true),
    ),
    driver_flag(
        "--crash-report",
        Arg::Value("DIR"),
        "on an internal compiler error, write a crash bundle (input\n\
         source, pipeline stage, panic backtrace, counters snapshot)\n\
         into DIR",
        |c, v| store(&mut c.crash_report, v.map(String::from)),
    ),
    driver_flag(
        "--emit-bytecode",
        Arg::Switch,
        "print the VM bytecode disassembly",
        |c, _| store(&mut c.views.emit_bytecode, true),
    ),
    driver_flag(
        "--emit-bytecode-bin",
        Arg::Value("FILE"),
        "serialize the compiled VM bytecode module to FILE in the\n\
         OMPLTBC container format",
        |c, v| store(&mut c.views.emit_bytecode_bin, v.map(String::from)),
    ),
    driver_flag(
        "--remote",
        Arg::Value("SOCKET"),
        "ship the job to the `ompltd` listening on SOCKET instead of\n\
         compiling in-process; output is byte-identical to a local run",
        |c, v| store(&mut c.remote, v.map(String::from)),
    ),
    driver_flag(
        "--remote-backoff-ms",
        Arg::Value("MS"),
        "base delay of the exponential backoff between --remote\n\
         retries (default 50)",
        |c, v| {
            let expected = "a positive number of milliseconds";
            let ms = parse_value("--remote-backoff-ms", v, expected, |&n| n > 0)?;
            store(&mut c.remote_backoff_ms, Some(ms))
        },
    ),
    driver_flag(
        "--remote-retries",
        Arg::Value("N"),
        "retry transient daemon failures (connect refusal, mid-stream\n\
         EOF, `Overloaded`) up to N times (default 3)",
        |c, v| {
            let n = parse_value("--remote-retries", v, "a non-negative retry count", |_| {
                true
            })?;
            store(&mut c.remote_retries, Some(n))
        },
    ),
    driver_flag(
        "--time-report",
        Arg::Switch,
        "print a per-stage wall-time table to stderr, like clang's\n\
         `-ftime-report`",
        |c, _| store(&mut c.time_report, true),
    ),
    driver_flag(
        "--time-trace",
        Arg::Optional("FILE"),
        "emit a Chrome trace-event JSON profile of the whole pipeline,\n\
         like clang's `-ftime-trace` (stdout unless FILE is given)",
        |c, v| store(&mut c.time_trace, Some(v.map(String::from))),
    ),
    driver_flag(
        "--tune-best",
        Arg::Value("FILE"),
        "write the winning annotated source to FILE",
        |c, v| store(&mut c.tune_best, v.map(String::from)),
    ),
    driver_flag(
        "--tune-json",
        Arg::Optional("FILE"),
        "emit the ranked report as JSON (replaces the text report when\n\
         writing to stdout)",
        |c, v| store(&mut c.tune_json, Some(v.map(String::from))),
    ),
    driver_flag(
        "--tune-seed",
        Arg::Value("N"),
        "sample seeded-random mutants instead of walking the\n\
         deterministic grid (stress-test mode)",
        |c, v| {
            let seed = parse_value("--tune-seed", v, "a 64-bit unsigned integer", |_| true)?;
            store(&mut c.tune_seed, Some(seed))
        },
    ),
];

fn usage() -> u8 {
    let job_flags = options::JOB_OPTIONS.iter().filter_map(OptionRow::flag);
    let flags = job_flags.chain(DRIVER_FLAGS.iter().map(|s| &s.flag));
    eprint!(
        "usage: ompltc [OPTIONS] <file.c>\n{}",
        options::help_text(flags)
    );
    2
}

/// Diagnoses a driver-level error on stderr — as a JSON diagnostic array
/// when `--diag-format=json` is in effect — and returns exit code 2.
fn driver_error(msg: &str, json: bool) -> u8 {
    eprint!("{}", driver_diag(msg, &[], json));
    2
}

/// Reports why a driver mode failed: `ompltc: error: …`, or the JSON
/// diagnostic.
fn report_failure(msg: &str, json: bool) {
    if json {
        eprint!("{}", driver_diag(msg, &[], true));
    } else {
        eprintln!("ompltc: error: {msg}");
    }
}

/// A flag [`options::scan`] recognized: a job option or a driver flag.
enum Known {
    Job(&'static OptionRow),
    Driver(&'static DriverFlag),
}

fn parse_cli(args: &[String]) -> Result<Cli, u8> {
    // Driver errors must honor `--diag-format=json` wherever it appears on
    // the command line, so resolve the format before the main scan.
    let json = (args.iter().rev()).find_map(|a| a.strip_prefix("--diag-format=")) == Some("json");
    let usage_error = |msg: String| driver_error(&msg, json);
    let find = |name: &str| {
        let driver = || DRIVER_FLAGS.iter().find(|s| s.flag.name == name);
        let job = options::job_flag(name).map(|(row, arg)| (Known::Job(row), arg));
        job.or_else(|| driver().map(|s| (Known::Driver(s), s.flag.arg)))
    };
    let mut cli = Cli::default();
    cli.job.id = 1;
    let (flags, files) = options::scan(args, find).map_err(usage_error)?;
    for (flag, v) in flags {
        let row = match flag {
            Known::Driver(d) => {
                (d.apply)(&mut cli, v).map_err(usage_error)?;
                continue;
            }
            Known::Job(row) => row,
        };
        if row.key == "inject_fault" {
            // Armed here for the in-process path and the client-side
            // `daemon.*` sites; `arm` is also what validates the spec.
            omplt::fault::arm(v.unwrap_or_default()).map_err(usage_error)?;
        }
        row.apply_flag(&mut cli.job, v).map_err(usage_error)?;
        if row.key == "want_counters" {
            cli.counters_json = Some(v.map(String::from));
        }
    }
    let Some(file) = files.last() else {
        return Err(usage());
    };
    cli.job.name = file.to_string();
    if cli.remote.is_none() && (cli.remote_retries.is_some() || cli.remote_backoff_ms.is_some()) {
        return Err(driver_error(
            "'--remote-retries' and '--remote-backoff-ms' require '--remote'",
            json,
        ));
    }
    let tune_flags = cli.tune_json.is_some() || cli.tune_best.is_some() || cli.tune_seed.is_some();
    if cli.autotune.is_none() && tune_flags {
        return Err(driver_error(
            "'--tune-json', '--tune-best', and '--tune-seed' require '--autotune'",
            json,
        ));
    }
    let (views, job) = (&cli.views, &cli.job);
    let other_mode = views.analyze
        || views.ast_dump
        || views.ast_dump_transformed
        || views.emit_bytecode
        || job.emit_ir
        || job.run
        || job.syntax_only;
    if cli.autotune.is_some() && other_mode {
        return Err(driver_error(
            "'--autotune' is a driver mode of its own and cannot be combined with '--analyze', \
             '--ast-dump[-transformed]', '--emit-ir', '--emit-bytecode', '--run', or \
             '--syntax-only'",
            json,
        ));
    }
    Ok(cli)
}

/// Reads the input into the job and resolves the client-side environment.
fn load_job(cli: &mut Cli) -> Result<(), u8> {
    let job = &mut cli.job;
    job.source = std::fs::read_to_string(&job.name)
        .map_err(|e| driver_error(&format!("cannot read '{}': {e}", job.name), job.json_diags))?;
    if job.run {
        // `OMP_SCHEDULE` is resolved exactly once, here, in the client's
        // environment, so a malformed value is diagnosed where the user can
        // see it. The pipeline — in-process or inside the daemon, whose
        // tenants must not see each other's (or the daemon's) env — never
        // reads environment variables.
        let env = std::env::var("OMP_SCHEDULE").ok();
        let (sched, warning) = omplt::interp::RuntimeSchedule::resolve(env.as_deref());
        job.opts.runtime_schedule = Some(sched);
        job.schedule_warning = warning;
    }
    Ok(())
}

/// The `--autotune` driver mode: search the directive-configuration space
/// and report. Exit codes: 0 a ranked report with a surviving winner was
/// produced, 1 the baseline failed / nothing survived / report I/O failed,
/// 2 usage (handled in `parse_cli`). Per-candidate ICEs are contained by
/// the tuner itself; only a panic outside candidate evaluation reaches the
/// driver's ICE boundary.
fn drive_autotune(cli: &Cli) -> u8 {
    let json = cli.job.json_diags;
    let cfg = omplt::tuner::TuneConfig {
        budget: cli.autotune.expect("drive_autotune called with --autotune"),
        seed: cli.tune_seed,
        opts: cli.job.opts,
        enum_config: omplt::tune::EnumConfig::default(),
    };
    let outcome = match omplt::tuner::autotune(&cli.job.name, &cli.job.source, &cfg) {
        Ok(o) => o,
        Err(e) => {
            report_failure(&e.to_string(), json);
            return 1;
        }
    };
    let mut code = 0;
    match &cli.tune_json {
        // Bare `--tune-json` claims stdout: machine output replaces the
        // human-readable table entirely.
        Some(None) => print!("{}", outcome.report.to_json()),
        Some(dest) => {
            if !write_output(dest, &outcome.report.to_json(), "tune report") {
                code = 1;
            }
            print!("{}", outcome.report.render_text());
        }
        None => print!("{}", outcome.report.render_text()),
    }
    if let Some(path) = &cli.tune_best {
        match &outcome.best_source {
            Some(src) => {
                if !write_output(&Some(path.clone()), src, "winning source") {
                    code = 1;
                }
            }
            None => {
                eprintln!("ompltc: no winning source to write to '{path}': no candidate survived");
            }
        }
    }
    if outcome.report.winner().is_none() {
        report_failure(
            "autotune found no surviving candidate (all pruned, failed, or diverged)",
            json,
        );
        code = 1;
    }
    code
}

/// Writes the `--crash-report` bundle: the input source, a report naming the
/// pipeline stage and panic with its backtrace, and a counters snapshot.
fn write_crash_report(
    dir: &str,
    cli: &Cli,
    ice: &IceInfo,
    data: Option<&TraceData>,
) -> std::io::Result<()> {
    let dir = std::path::Path::new(dir);
    std::fs::create_dir_all(dir)?;
    if !cli.job.source.is_empty() {
        std::fs::write(dir.join("input.c"), &cli.job.source)?;
    }
    let argv: Vec<String> = std::env::args().collect();
    std::fs::write(
        dir.join("report.txt"),
        format!(
            "ompltc crash report\n\
             ===================\n\
             argv: {argv:?}\n\
             input: {}\n\
             stage: {}\n\
             panic: {}\n\
             \n\
             backtrace:\n{}\n",
            cli.job.name, ice.stage, ice.message, ice.backtrace
        ),
    )?;
    if let Some(data) = data {
        std::fs::write(dir.join("counters.json"), data.to_counters_json())?;
    }
    Ok(())
}

/// Renders the structured "internal compiler error" diagnostic (text or
/// JSON), writes the optional crash bundle, and returns exit code 3. The
/// stage/message/backtrace arrive in the job reply, so an ICE the daemon
/// contained on our behalf renders with exactly the bytes of a local one.
fn report_ice(cli: &Cli, ice: &IceInfo, data: Option<&TraceData>) -> u8 {
    let (stage, msg) = (&ice.stage, &ice.message);
    let headline = format!("internal compiler error in stage '{stage}': {msg}");
    let mut notes = vec![
        "this is a bug in ompltc, not in your source file".to_string(),
        "the request was contained: the process is exiting cleanly with code 3".to_string(),
    ];
    if let Some(dir) = &cli.crash_report {
        match write_crash_report(dir, cli, ice, data) {
            Ok(()) => notes.push(format!("crash report written to '{dir}'")),
            Err(e) => notes.push(format!("failed to write crash report to '{dir}': {e}")),
        }
    }
    eprint!("{}", driver_diag(&headline, &notes, cli.job.json_diags));
    3
}

/// Writes `content` to `dest` (`None` = stdout). Returns false on I/O error.
fn write_output(dest: &Option<String>, content: &str, what: &str) -> bool {
    match dest {
        None => {
            print!("{content}");
            true
        }
        Some(path) => match std::fs::write(path, content) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("ompltc: cannot write {what} to '{path}': {e}");
                false
            }
        },
    }
}

/// Replays a job reply — from the in-process pipeline or from the daemon —
/// onto this process's stdout, stderr and exit code, then writes the
/// observability outputs. `data` is the local trace session, if one ran.
fn replay(cli: &Cli, resp: &JobResponse, data: Option<&TraceData>) -> u8 {
    print!("{}", resp.stdout);
    eprint!("{}", resp.stderr);
    let mut code = resp.exit_code;
    if let Some(ice) = &resp.ice {
        code = report_ice(cli, ice, data);
    }
    let chrome = data.filter(|_| cli.time_trace.is_some());
    let chrome = chrome.map(TraceData::to_chrome_json);
    for (dest, doc, what) in [
        (&cli.time_trace, chrome.as_deref(), "time trace"),
        (
            &cli.counters_json,
            resp.counters_json.as_deref(),
            "counters",
        ),
    ] {
        if let (Some(dest), Some(doc)) = (dest, doc) {
            if !write_output(dest, doc, what) && code == 0 {
                code = 1;
            }
        }
    }
    if let (true, Some(data)) = (cli.time_report, data) {
        eprint!("{}", data.time_report());
    }
    code
}

/// The `--check-bytecode` mode: the positional file is an OMPLTBC container
/// (as written by `--emit-bytecode-bin`), not C source. Decode it and run
/// the bytecode verifier over every function. Exit 0 when the container is
/// well-formed and verifies; 1 with a diagnostic per finding otherwise. The
/// decoder and verifier are total over arbitrary bytes — corrupt input is a
/// *finding*, never a panic — which is what the serde leg of the smoke fuzz
/// leans on.
fn drive_check_bytecode(cli: &Cli) -> u8 {
    let file = &cli.job.name;
    let bytes = match std::fs::read(file) {
        Ok(b) => b,
        Err(e) => {
            return driver_error(&format!("cannot read '{file}': {e}"), cli.job.json_diags);
        }
    };
    let module = match omplt::vm::decode(&bytes) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("ompltc: {file}: bytecode decode error: {e}");
            return 1;
        }
    };
    let errors = omplt::vm::verify_module(&module);
    for e in &errors {
        eprintln!("ompltc: {file}: bytecode verify error: {e}");
    }
    u8::from(!errors.is_empty())
}

/// One shot at delivering the job. `Done` carries the final exit code;
/// `Retry` carries the failure wording (surfaced verbatim if retries run
/// out) and an optional server-suggested wait.
enum Attempt {
    Done(u8),
    Retry { err: String, wait_ms: Option<u64> },
}

/// How long an injected `daemon.frame-stall` holds the body back. Longer
/// than the frame timeouts the tests and the chaos harness configure, so
/// the daemon reliably classifies the stall as a slowloris.
const FRAME_STALL_MS: u64 = 750;

/// Connect, send, and read one reply. Every transient failure — connect
/// refusal, mid-stream EOF, an `Overloaded` shed — comes back as
/// `Attempt::Retry`; only a parsed `JobResponse` (or a malformed reply from
/// a healthy exchange, which retrying would not fix) is `Done`.
fn remote_attempt(cli: &Cli, path: &str, payload: &str) -> Attempt {
    use omplt::protocol::{read_frame, write_frame, Reply};
    let retry = |err: String| Attempt::Retry { err, wait_ms: None };
    let mut stream = match std::os::unix::net::UnixStream::connect(path) {
        Ok(s) => s,
        Err(e) => return retry(format!("cannot connect to ompltd at '{path}': {e}")),
    };
    // Client-side chaos: write the length prefix, then stall past the
    // daemon's frame timeout before the body follows. The daemon answers
    // with a mid-frame timeout error and closes; that reply is retryable
    // only because we caused it ourselves.
    let stalled = omplt::fault::fire("daemon.frame-stall");
    let sent = if stalled {
        let body = payload.as_bytes();
        let prefix = (body.len() as u32).to_le_bytes();
        std::io::Write::write_all(&mut stream, &prefix)
            .and_then(|()| std::io::Write::flush(&mut stream))
            .map(|()| {
                std::thread::sleep(std::time::Duration::from_millis(FRAME_STALL_MS));
            })
            .and_then(|()| std::io::Write::write_all(&mut stream, body))
    } else {
        write_frame(&mut stream, payload.as_bytes())
    };
    // A stalled write may fail with EPIPE once the daemon has already shed
    // the connection; that is still the injected stall, so still retryable.
    if let Err(e) = sent {
        return retry(format!("cannot send job to ompltd: {e}"));
    }
    let body = match read_frame(&mut stream) {
        Ok(Some(b)) => b,
        Ok(None) => return retry("ompltd closed the connection without replying".to_string()),
        Err(e) => return retry(format!("cannot read ompltd reply: {e}")),
    };
    let text = String::from_utf8_lossy(&body);
    match Reply::parse(&text) {
        Ok(Reply::Job(resp)) => Attempt::Done(replay(cli, &resp, None)),
        Ok(Reply::Overloaded(o)) => Attempt::Retry {
            err: format!(
                "ompltd is overloaded (queue depth {}, retry after {} ms)",
                o.queue_depth, o.retry_after_ms
            ),
            wait_ms: Some(o.retry_after_ms),
        },
        // The daemon's "frame read timed out" error reply — earned by the
        // injected stall above, so try again without it.
        Err(e) if stalled => retry(format!("invalid ompltd reply: {e}")),
        Err(e) => Attempt::Done(driver_error(
            &format!("invalid ompltd reply: {e}"),
            cli.job.json_diags,
        )),
    }
}

/// The `--remote` client: ship the job to an `ompltd` socket and [`replay`]
/// the reply, so the invocation is byte-identical to an in-process run —
/// same stdout, same stderr (diagnostics pre-rendered by the server in the
/// requested format), same exit code, and the same locally rendered ICE
/// report (with `--crash-report` bundle) if the daemon contained a panic.
///
/// Transient failures (connect refusal, mid-stream EOF, `Overloaded`) are
/// retried up to `--remote-retries` times with bounded exponential backoff
/// (`--remote-backoff-ms` base, deterministic jitter); only the final
/// successful reply is replayed, so a retried job's output is byte-identical
/// to a first-try success. The original error wording surfaces unchanged
/// once retries are exhausted.
fn drive_remote(cli: &Cli, path: &str) -> u8 {
    let payload = cli.job.render();
    let base = cli.remote_backoff_ms.unwrap_or(50);
    let mut last_err = String::new();
    // A server-suggested wait (from an `Overloaded` shed) replaces the next
    // exponential step when present.
    let mut wait_hint: Option<u64> = None;
    for attempt in 0..=cli.remote_retries.unwrap_or(3) {
        if attempt > 0 {
            let wait = match wait_hint.take() {
                Some(ms) => ms.min(2000),
                None => backoff_ms(base, attempt, &cli.job.name),
            };
            std::thread::sleep(std::time::Duration::from_millis(wait));
        }
        match remote_attempt(cli, path, &payload) {
            Attempt::Done(code) => return code,
            Attempt::Retry { err, wait_ms } => {
                last_err = err;
                wait_hint = wait_ms;
            }
        }
    }
    driver_error(&last_err, cli.job.json_diags)
}

/// Delay before retry `attempt` (1-based): exponential in the base, plus a
/// deterministic jitter derived from the file name so concurrent clients
/// compiling different files desynchronize, capped at two seconds. No RNG —
/// retry timing must be reproducible under test.
fn backoff_ms(base: u64, attempt: u32, seed: &str) -> u64 {
    let expo = base.saturating_mul(1 << (attempt - 1).min(6));
    let hash = seed.bytes().fold(attempt as u64, |h, b| {
        h.wrapping_mul(31).wrapping_add(b as u64)
    });
    (expo + hash % base.max(1)).min(2000)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(code) => return ExitCode::from(code),
    };
    omplt::fault::install_panic_capture();
    let json = cli.job.json_diags;

    if let Some(ms) = cli.job.opts.deadline_ms {
        // Detached wall-clock watchdog: if the pipeline (or the program it
        // runs, or a hung daemon) outlives the deadline, terminate with a
        // diagnostic instead of hanging whatever invoked us. Normal
        // completion simply exits first and takes this thread with it.
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            let msg = format!("wall-clock deadline of {ms} ms exceeded ('--exec-timeout')");
            report_failure(&msg, json);
            std::process::exit(1);
        });
    }

    if let Some(path) = cli.remote.clone() {
        let v = &cli.views;
        let local_only = v.analyze || v.ast_dump || v.ast_dump_transformed || v.emit_bytecode;
        if local_only || cli.autotune.is_some() || cli.time_trace.is_some() || cli.time_report {
            return ExitCode::from(driver_error(
                "'--remote' ships compile/run jobs only and cannot be combined with \
                 '--analyze', '--ast-dump[-transformed]', '--emit-bytecode', '--autotune', \
                 '--time-trace', or '--time-report'",
                json,
            ));
        }
        // Remote jobs run (and are traced, contained, and cached) inside the
        // daemon. The watchdog above cannot kill a job in there, so the
        // deadline also travels with the job, enforced at the engines'
        // fuel-refill points.
        return ExitCode::from(match load_job(&mut cli) {
            Ok(()) => drive_remote(&cli, &path),
            Err(code) => code,
        });
    }

    // In-process, the watchdog is the whole deadline: the cooperative one
    // is for jobs the daemon must abort without dying itself.
    cli.job.opts.deadline_ms = None;
    // `--crash-report` forces a trace session so the bundle always carries a
    // counters snapshot of how far the pipeline got.
    cli.views.trace = cli.time_trace.is_some()
        || cli.time_report
        || cli.counters_json.is_some()
        || cli.crash_report.is_some();
    // The two modes of their own run under the same fault scope, trace
    // session and ICE boundary as a job, and print for themselves.
    let mode = |cli: &Cli, drive: fn(&Cli) -> u8| {
        let work = |_: &service::JobBuf| (drive(cli), CacheOutcome::Bypass, None);
        service::contained_reply(&cli.job, cli.views.trace, work)
    };
    let (resp, data) = if cli.check_bytecode {
        mode(&cli, drive_check_bytecode)
    } else if let Err(code) = load_job(&mut cli) {
        return ExitCode::from(code);
    } else if cli.autotune.is_some() {
        mode(&cli, drive_autotune)
    } else {
        service::execute_job(&cli.job, None, &cli.views)
    };
    ExitCode::from(replay(&cli, &resp, data.as_ref()))
}
