//! The `ompltd` wire protocol: length-prefixed JSON frames.
//!
//! Every message — request or reply, socket or stdio — is one *frame*: a
//! 4-byte little-endian byte length followed by exactly that many bytes of
//! UTF-8 JSON. Frames larger than [`MAX_FRAME`] are rejected before any
//! allocation, so a hostile or corrupt prefix cannot balloon memory; a
//! truncated frame is an explicit [`FrameError::Truncated`], never a hang on
//! garbage. The JSON layer is `omplt_trace::json` (the workspace builds
//! without registry access, so there is no serde): documents are written
//! through its `Writer` in a fixed field order, making replies
//! byte-deterministic. The job document's option members are not named here:
//! they are the rows of the option table (`crate::options`).
//!
//! Exit-code contract (mirrors `ompltc` exactly): `0` success, `1` compile
//! or runtime failure, `2` driver/usage error, `3` contained internal
//! compiler error. A malformed *frame* never takes the server down — the
//! reply is `{"id":null,"error":...}` and the connection is closed.

use crate::compiler::Options;
use omplt_interp::{ChunkRecord, DispatchKind, RuntimeSchedule};
pub use omplt_trace::json::escape as json_escape;
use omplt_trace::json::{self, Value, Writer};
use std::io::{Read, Write};

/// Upper bound on a frame body. Large enough for any real translation unit
/// plus its stdout; small enough that a corrupt length prefix cannot OOM the
/// server.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// Transport-level I/O failure.
    Io(std::io::Error),
    /// The length prefix names a body larger than [`MAX_FRAME`].
    TooLarge(u64),
    /// The stream ended mid-prefix or mid-body.
    Truncated,
    /// The transport's read timeout expired. `mid_frame` distinguishes a
    /// slowloris peer (bytes of a frame arrived, then the stream stalled —
    /// the connection must be cut) from plain idleness (no bytes at all —
    /// the server may simply poll again or reclaim the thread).
    TimedOut {
        /// Whether any bytes of the current frame had already arrived.
        mid_frame: bool,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::TooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte limit")
            }
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::TimedOut { mid_frame: true } => write!(f, "frame read timed out"),
            FrameError::TimedOut { mid_frame: false } => write!(f, "idle read timed out"),
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Writes one frame: length prefix, body, flush. `?Sized` so trait-object
/// writers (the daemon's shared connection sinks) work directly.
pub fn write_frame<W: Write + ?Sized>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream (EOF exactly at a
/// frame boundary); EOF anywhere else is [`FrameError::Truncated`]. On a
/// transport with a read timeout configured, a timeout surfaces as
/// [`FrameError::TimedOut`] with `mid_frame` telling whether the peer had
/// already sent part of a frame.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, FrameError> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => return Err(FrameError::TimedOut { mid_frame: got > 0 }),
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge(len as u64));
    }
    let mut body = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match r.read(&mut body[filled..]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => return Err(FrameError::TimedOut { mid_frame: true }),
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(Some(body))
}

/// A driver-level diagnostic exactly as `ompltc` prints it, wherever it is
/// produced (the CLI, or the daemon on a client's behalf): `ompltc: {msg}`
/// plus one `ompltc: note:` line per note, or under `--diag-format=json` a
/// one-element array in `DiagnosticsEngine::render_json`'s shape.
pub fn driver_diag(msg: &str, notes: &[String], json: bool) -> String {
    if !json {
        let notes = notes.iter().map(|n| format!("ompltc: note: {n}\n"));
        return format!("ompltc: {msg}\n{}", notes.collect::<String>());
    }
    fn object(w: &mut Writer, level: &str, msg: &str, notes: &[String]) {
        w.open('{').key("level").str(level).key("message").str(msg);
        w.key("file").raw("null").key("notes").open('[');
        for n in notes {
            object(w, "note", n, &[]);
        }
        w.close(']').close('}');
    }
    let mut w = Writer::default();
    w.open('[');
    object(&mut w, "error", msg, notes);
    w.close(']').finish() + "\n"
}

/// Renders a [`RuntimeSchedule`] in `OMP_SCHEDULE` syntax (`kind[,chunk]`),
/// the protocol's schedule encoding.
pub fn schedule_to_string(s: &RuntimeSchedule) -> String {
    let kind = match s.kind {
        DispatchKind::Static => "static",
        DispatchKind::Dynamic => "dynamic",
        DispatchKind::Guided => "guided",
    };
    if s.chunk > 0 {
        format!("{kind},{}", s.chunk)
    } else {
        kind.to_string()
    }
}

/// Renders a chunk log as deterministic text, one record per line
/// (`kind lo..=hi`), for byte-for-byte comparison between local and remote
/// runs.
pub fn render_chunk_log(log: &[ChunkRecord]) -> String {
    let mut out = String::new();
    for r in log {
        out.push_str(&format!("{:?} {}..={}\n", r.kind, r.lo, r.hi));
    }
    out
}

/// One compile/run job. Carries the source text itself — the daemon never
/// touches the client's filesystem — plus the compile- and runtime-relevant
/// options. Environment is deliberately absent: `OMP_SCHEDULE` and friends
/// are resolved once at the *client*, then travel as `schedule`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobRequest {
    /// Client-chosen correlation id, echoed in the reply.
    pub id: u64,
    /// Display name for diagnostics (the client's input path).
    pub name: String,
    /// The C source text.
    pub source: String,
    /// Compile/runtime options (see [`Options`]).
    pub opts: Options,
    /// Run the mid-end pipeline (`--opt`).
    pub optimize: bool,
    /// Execute `main` after compiling (`--run`).
    pub run: bool,
    /// Stop after parse/sema (`--syntax-only`).
    pub syntax_only: bool,
    /// Print the (possibly optimized) IR to stdout (`--emit-ir`).
    pub emit_ir: bool,
    /// Render diagnostics as JSON (`--diag-format=json`).
    pub json_diags: bool,
    /// Return a `--counters-json` document for this job.
    pub want_counters: bool,
    /// Fault-injection spec (`--inject-fault=site[:count]`), armed in the
    /// worker's own scope. Pipeline sites bypass the artifact cache;
    /// `daemon.*` sites do not (they target the service layer itself, and
    /// e.g. `daemon.cache-corrupt` needs the cache to be live).
    pub inject_fault: Option<String>,
    /// Warning produced while the *client* resolved `OMP_SCHEDULE`; the
    /// server records it in the job's diagnostics before running so remote
    /// stderr is byte-identical to an in-process run.
    pub schedule_warning: Option<String>,
}

impl JobRequest {
    /// A job with default options for `source`, ready to customize.
    pub fn new(id: u64, name: &str, source: &str) -> JobRequest {
        JobRequest {
            id,
            name: name.to_string(),
            source: source.to_string(),
            ..JobRequest::default()
        }
    }

    /// Renders the job as a request document (`"op":"job"`).
    pub fn render(&self) -> String {
        crate::options::render_job(self)
    }
}

/// A parsed request frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Compile (and maybe run) one job.
    Job(Box<JobRequest>),
    /// Report the daemon's `daemon.cache.*` counters.
    Stats,
    /// Report the daemon's survivability snapshot ([`HealthReport`]).
    Health,
    /// Drain and exit.
    Shutdown,
}

impl Request {
    /// Renders a request document.
    pub fn render(&self) -> String {
        match self {
            Request::Job(j) => j.render(),
            Request::Stats => "{\"op\":\"stats\"}".to_string(),
            Request::Health => "{\"op\":\"health\"}".to_string(),
            Request::Shutdown => "{\"op\":\"shutdown\"}".to_string(),
        }
    }

    /// Parses a request frame body. Every malformation is an `Err` message
    /// (turned into an error reply by the server), never a panic.
    pub fn parse(body: &str) -> Result<Request, String> {
        let v = json::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
        let op = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or("missing or non-string 'op'")?;
        match op {
            "stats" => Ok(Request::Stats),
            "health" => Ok(Request::Health),
            "shutdown" => Ok(Request::Shutdown),
            "job" => Ok(Request::Job(Box::new(crate::options::parse_job(&v)?))),
            other => Err(format!("unknown op '{other}'")),
        }
    }
}

fn need_u64(v: &Value, key: &str) -> Result<u64, String> {
    let n = v.get(key).and_then(Value::as_u64);
    n.ok_or_else(|| format!("missing or non-integer '{key}'"))
}

fn need_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing or non-string '{key}'"))
}

fn opt_string(v: &Value, key: &str) -> Result<Option<String>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(format!("'{key}' must be a string or null")),
    }
}

/// A contained internal compiler error, reported structurally so the
/// *client* can render the ICE diagnostic (and write its `--crash-report`
/// bundle) with exactly the bytes an in-process run would have produced.
#[derive(Clone, Debug, PartialEq)]
pub struct IceInfo {
    /// Pipeline stage that was active when the panic escaped.
    pub stage: String,
    /// Panic message (with source location when available).
    pub message: String,
    /// Captured backtrace (crash bundles only; never printed to stderr).
    pub backtrace: String,
}

/// How a job interacted with the artifact cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Front end + mid end + VM compile all skipped.
    Hit,
    /// Full compile; the artifact was stored (if clean).
    Miss,
    /// The job was ineligible (fault injection, syntax-only, …).
    #[default]
    Bypass,
}

impl CacheOutcome {
    fn name(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Bypass => "bypass",
        }
    }
}

/// The reply to a [`JobRequest`]. `stdout`/`stderr` hold the exact bytes an
/// in-process `ompltc` invocation would have written (diagnostics already
/// rendered in the requested format); the client replays them verbatim.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobResponse {
    /// Echo of the request id.
    pub id: u64,
    /// Process exit code under the `ompltc` contract.
    pub exit_code: u8,
    /// Program/driver stdout bytes.
    pub stdout: String,
    /// Diagnostic stderr bytes (empty on ICE — see `ice`).
    pub stderr: String,
    /// Cache interaction.
    pub cache: CacheOutcome,
    /// The job's `--counters-json` document, when requested.
    pub counters_json: Option<String>,
    /// Rendered chunk log ([`render_chunk_log`]), when chunk logging ran.
    pub chunk_log: Option<String>,
    /// Present iff the job ICEd; the client renders the report.
    pub ice: Option<IceInfo>,
}

impl JobResponse {
    /// Renders the reply document.
    pub fn render(&self) -> String {
        let mut w = Writer::default();
        w.open('{').key("id").raw(self.id);
        w.key("exit_code").raw(self.exit_code);
        w.key("stdout").str(&self.stdout);
        w.key("stderr").str(&self.stderr);
        w.key("cache").str(self.cache.name());
        w.key("counters_json")
            .opt_str(self.counters_json.as_deref());
        w.key("chunk_log").opt_str(self.chunk_log.as_deref());
        match &self.ice {
            None => w.key("ice").raw("null"),
            Some(i) => {
                w.key("ice").open('{').key("stage").str(&i.stage);
                w.key("message").str(&i.message);
                w.key("backtrace").str(&i.backtrace).close('}')
            }
        };
        w.close('}').finish()
    }

    /// Parses a reply document (the client side).
    pub fn parse(body: &str) -> Result<JobResponse, String> {
        match Reply::parse(body)? {
            Reply::Job(resp) => Ok(*resp),
            Reply::Overloaded(_) => Err("server error: overloaded".to_string()),
        }
    }

    fn from_value(v: &Value) -> Result<JobResponse, String> {
        let cache = match need_str(v, "cache")? {
            "hit" => CacheOutcome::Hit,
            "miss" => CacheOutcome::Miss,
            "bypass" => CacheOutcome::Bypass,
            other => return Err(format!("unknown cache outcome '{other}'")),
        };
        let ice = match v.get("ice") {
            None | Some(Value::Null) => None,
            Some(i) => Some(IceInfo {
                stage: need_str(i, "stage")?.to_string(),
                message: need_str(i, "message")?.to_string(),
                backtrace: need_str(i, "backtrace")?.to_string(),
            }),
        };
        Ok(JobResponse {
            id: need_u64(v, "id")?,
            exit_code: need_u64(v, "exit_code")? as u8,
            stdout: need_str(v, "stdout")?.to_string(),
            stderr: need_str(v, "stderr")?.to_string(),
            cache,
            counters_json: opt_string(v, "counters_json")?,
            chunk_log: opt_string(v, "chunk_log")?,
            ice,
        })
    }
}

/// An admission-control rejection: the daemon's bounded job queue is full
/// (or the daemon is draining), so the job was shed instead of accepted.
/// Clients with retry budget wait `retry_after_ms` and resubmit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Overloaded {
    /// Server's backoff hint in milliseconds.
    pub retry_after_ms: u64,
    /// Queue depth observed when the job was shed.
    pub queue_depth: u64,
}

/// Renders the load-shedding reply for a job that was refused admission.
/// `id` is `None` for connections refused wholesale during drain.
pub fn overloaded_reply(id: Option<u64>, o: &Overloaded) -> String {
    let mut w = reply_head(id);
    w.key("overloaded")
        .open('{')
        .key("retry_after_ms")
        .raw(o.retry_after_ms);
    w.key("queue_depth")
        .raw(o.queue_depth)
        .close('}')
        .close('}')
        .finish()
}

/// Parses a reply frame body; the server's error reply
/// (`{"id":…,"error":…}`) surfaces as `Err`.
fn reply_doc(body: &str) -> Result<Value, String> {
    let v = json::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
    match v.get("error").and_then(Value::as_str) {
        Some(err) => Err(format!("server error: {err}")),
        None => Ok(v),
    }
}

/// Opens a non-job reply document: `{"id":ID` (`null` when the reply answers
/// no particular job).
fn reply_head(id: Option<u64>) -> Writer {
    let mut w = Writer::default();
    w.open('{').key("id");
    match id {
        Some(id) => w.raw(id),
        None => w.raw("null"),
    };
    w
}

/// The daemon's survivability snapshot, served for `{"op":"health"}`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HealthReport {
    /// Milliseconds since the daemon started serving.
    pub uptime_ms: u64,
    /// Jobs queued but not yet picked up by a worker.
    pub queue_depth: u64,
    /// Admission-control bound on the queue.
    pub queue_capacity: u64,
    /// Jobs currently executing on workers.
    pub running: u64,
    /// Live worker threads (respawns keep this at the configured count).
    pub workers_alive: u64,
    /// Worker count the daemon was started with.
    pub workers_configured: u64,
    /// Whether the daemon is draining (refusing new work).
    pub draining: bool,
    /// Workers respawned after an uncontained panic.
    pub respawns: u64,
    /// In-flight jobs requeued after their worker died (at most once each).
    pub requeued: u64,
    /// Jobs abandoned after dying twice; their clients got an error reply.
    pub abandoned: u64,
    /// Admission to worker pick-up, per answered job.
    pub queue_wait_us: StageLatency,
    /// Worker pick-up to the rendered reply, per answered job.
    pub execute_us: StageLatency,
    /// `daemon.cache.*` counters, sorted by name.
    pub cache: Vec<(String, u64)>,
}

/// One daemon stage's latency distribution in a [`HealthReport`]: how many
/// jobs it timed, and for each percentile the upper edge (in µs) of the
/// log2 bucket that holds it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageLatency {
    /// Jobs timed.
    pub count: u64,
    /// Median, µs (upper bucket edge).
    pub p50: u64,
    /// 90th percentile, µs (upper bucket edge).
    pub p90: u64,
    /// 99th percentile, µs (upper bucket edge).
    pub p99: u64,
}

impl StageLatency {
    fn write(&self, w: &mut Writer) {
        w.open('{').key("count").raw(self.count);
        w.key("p50").raw(self.p50);
        w.key("p90").raw(self.p90);
        w.key("p99").raw(self.p99).close('}');
    }

    fn from_value(v: &Value) -> Result<StageLatency, String> {
        Ok(StageLatency {
            count: need_u64(v, "count")?,
            p50: need_u64(v, "p50")?,
            p90: need_u64(v, "p90")?,
            p99: need_u64(v, "p99")?,
        })
    }
}

impl HealthReport {
    /// Renders the health reply document.
    pub fn render(&self) -> String {
        let mut w = Writer::default();
        w.open('{').key("health").open('{');
        w.key("uptime_ms").raw(self.uptime_ms);
        w.key("queue_depth").raw(self.queue_depth);
        w.key("queue_capacity").raw(self.queue_capacity);
        w.key("running").raw(self.running);
        w.key("workers_alive").raw(self.workers_alive);
        w.key("workers_configured").raw(self.workers_configured);
        w.key("draining").raw(self.draining);
        w.key("supervisor").open('{');
        w.key("respawns").raw(self.respawns);
        w.key("requeued").raw(self.requeued);
        w.key("abandoned").raw(self.abandoned).close('}');
        self.queue_wait_us.write(w.key("queue_wait_us"));
        self.execute_us.write(w.key("execute_us"));
        w.key("counters").open('{');
        for (k, v) in &self.cache {
            w.key(k).raw(v);
        }
        w.close('}').close('}').close('}').finish()
    }

    /// Parses a health reply document (the client side).
    pub fn parse(body: &str) -> Result<HealthReport, String> {
        let v = reply_doc(body)?;
        let h = v.get("health").ok_or("missing 'health'")?;
        let sup = h.get("supervisor").ok_or("missing 'supervisor'")?;
        let stage = |name: &str| match h.get(name) {
            Some(s) => StageLatency::from_value(s),
            None => Err(format!("missing '{name}'")),
        };
        let cache = h
            .get("counters")
            .and_then(Value::as_object)
            .ok_or("missing 'counters'")?
            .iter()
            .map(|(k, val)| {
                val.as_u64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("non-integer counter '{k}'"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(HealthReport {
            uptime_ms: need_u64(h, "uptime_ms")?,
            queue_depth: need_u64(h, "queue_depth")?,
            queue_capacity: need_u64(h, "queue_capacity")?,
            running: need_u64(h, "running")?,
            workers_alive: need_u64(h, "workers_alive")?,
            workers_configured: need_u64(h, "workers_configured")?,
            draining: match h.get("draining") {
                Some(Value::Bool(b)) => *b,
                _ => return Err("missing or non-boolean 'draining'".to_string()),
            },
            respawns: need_u64(sup, "respawns")?,
            requeued: need_u64(sup, "requeued")?,
            abandoned: need_u64(sup, "abandoned")?,
            queue_wait_us: stage("queue_wait_us")?,
            execute_us: stage("execute_us")?,
            cache,
        })
    }
}

/// Every frame a client can receive in answer to a job submission. The
/// retry loop in `ompltc --remote` needs to see [`Reply::Overloaded`]
/// structurally (it is retryable), whereas [`JobResponse::parse`] folds all
/// non-job replies into errors.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// The job executed (any exit code, possibly an ICE) — terminal.
    Job(Box<JobResponse>),
    /// The job was shed by admission control — retryable.
    Overloaded(Overloaded),
}

impl Reply {
    /// Parses a reply frame body. Server error replies (`{"id":null,
    /// "error":...}`) surface as `Err`, like [`JobResponse::parse`].
    pub fn parse(body: &str) -> Result<Reply, String> {
        let v = reply_doc(body)?;
        if let Some(o) = v.get("overloaded") {
            return Ok(Reply::Overloaded(Overloaded {
                retry_after_ms: need_u64(o, "retry_after_ms")?,
                queue_depth: need_u64(o, "queue_depth")?,
            }));
        }
        Ok(Reply::Job(Box::new(JobResponse::from_value(&v)?)))
    }
}

/// Renders the error reply for an unparseable or oversized frame.
pub fn error_reply(message: &str) -> String {
    reply_head(None)
        .key("error")
        .str(message)
        .close('}')
        .finish()
}

/// Renders an error reply correlated to a specific job id — used when an
/// *accepted* job cannot produce a normal reply (e.g. its worker died twice
/// and the job was abandoned), so the client still gets exactly one answer.
pub fn error_reply_for(id: u64, message: &str) -> String {
    (reply_head(Some(id)).key("error").str(message))
        .close('}')
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_and_reject_garbage() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"op\":\"stats\"}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"{\"op\":\"stats\"}");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");

        // Truncated prefix.
        let mut r: &[u8] = &[0x05, 0x00];
        assert!(matches!(read_frame(&mut r), Err(FrameError::Truncated)));
        // Truncated body.
        let mut r: &[u8] = &[0x05, 0x00, 0x00, 0x00, b'a'];
        assert!(matches!(read_frame(&mut r), Err(FrameError::Truncated)));
        // Oversized length prefix refuses before allocating.
        let mut r: &[u8] = &[0xff, 0xff, 0xff, 0xff];
        assert!(matches!(read_frame(&mut r), Err(FrameError::TooLarge(_))));
    }

    #[test]
    fn job_request_roundtrips() {
        let mut job = JobRequest::new(7, "t.c", "int main(void){return 0;}\n\"quoted\"");
        job.opts.backend = crate::Backend::Vm;
        job.opts.num_threads = 3;
        job.opts.max_steps = u64::MAX;
        job.opts.runtime_schedule = Some(RuntimeSchedule::parse("dynamic,4").unwrap());
        job.opts.deadline_ms = Some(250);
        job.run = true;
        job.optimize = true;
        job.want_counters = true;
        job.inject_fault = Some("parse:1".to_string());
        let parsed = match Request::parse(&job.render()).unwrap() {
            Request::Job(j) => *j,
            other => panic!("parsed as {other:?}"),
        };
        assert_eq!(parsed, job);
        assert_eq!(parsed.opts.max_steps, u64::MAX, "fuel survives as string");
    }

    #[test]
    fn stats_shutdown_and_errors() {
        assert_eq!(
            Request::parse("{\"op\":\"stats\"}").unwrap(),
            Request::Stats
        );
        assert_eq!(
            Request::parse("{\"op\":\"shutdown\"}").unwrap(),
            Request::Shutdown
        );
        assert!(Request::parse("not json").is_err());
        assert!(
            Request::parse("{\"op\":\"job\"}").is_err(),
            "missing fields"
        );
        assert!(Request::parse("{\"id\":1}").is_err(), "missing op");
    }

    #[test]
    fn job_response_roundtrips() {
        let resp = JobResponse {
            id: 9,
            exit_code: 3,
            stdout: "1\n2\n".to_string(),
            stderr: String::new(),
            cache: CacheOutcome::Bypass,
            counters_json: Some("{\"counters\":{}}\n".to_string()),
            chunk_log: Some("StaticInit 0..=9\n".to_string()),
            ice: Some(IceInfo {
                stage: "parse".to_string(),
                message: "injected fault [at src/x.rs:1:1]".to_string(),
                backtrace: "frame 0\nframe 1".to_string(),
            }),
        };
        assert_eq!(JobResponse::parse(&resp.render()).unwrap(), resp);
        // The error-reply shape surfaces as Err on the client.
        assert!(JobResponse::parse(&error_reply("bad frame"))
            .unwrap_err()
            .contains("bad frame"));
    }

    #[test]
    fn health_request_parses() {
        assert_eq!(
            Request::parse("{\"op\":\"health\"}").unwrap(),
            Request::Health
        );
        assert_eq!(Request::Health.render(), "{\"op\":\"health\"}");
    }

    #[test]
    fn overloaded_reply_roundtrips_via_reply_parse() {
        let o = Overloaded {
            retry_after_ms: 50,
            queue_depth: 64,
        };
        let body = overloaded_reply(Some(12), &o);
        assert_eq!(
            body,
            "{\"id\":12,\"overloaded\":{\"retry_after_ms\":50,\"queue_depth\":64}}"
        );
        assert_eq!(Reply::parse(&body).unwrap(), Reply::Overloaded(o));
        let anon = overloaded_reply(None, &o);
        assert!(anon.starts_with("{\"id\":null,"));
        assert_eq!(Reply::parse(&anon).unwrap(), Reply::Overloaded(o));
    }

    #[test]
    fn reply_parse_covers_jobs_and_errors() {
        let resp = JobResponse {
            id: 4,
            exit_code: 0,
            stdout: "ok\n".to_string(),
            stderr: String::new(),
            cache: CacheOutcome::Hit,
            counters_json: None,
            chunk_log: None,
            ice: None,
        };
        assert_eq!(
            Reply::parse(&resp.render()).unwrap(),
            Reply::Job(Box::new(resp))
        );
        assert!(Reply::parse(&error_reply_for(4, "job abandoned"))
            .unwrap_err()
            .contains("job abandoned"));
    }

    #[test]
    fn health_report_roundtrips() {
        let h = HealthReport {
            uptime_ms: 1234,
            queue_depth: 2,
            queue_capacity: 64,
            running: 1,
            workers_alive: 4,
            workers_configured: 4,
            draining: true,
            respawns: 3,
            requeued: 2,
            abandoned: 1,
            queue_wait_us: StageLatency {
                count: 12,
                p50: 7,
                p90: 63,
                p99: 1023,
            },
            execute_us: StageLatency {
                count: 11,
                p50: 127,
                p90: 511,
                p99: 4095,
            },
            cache: vec![
                ("daemon.cache.hits".to_string(), 7),
                ("daemon.cache.misses".to_string(), 9),
            ],
        };
        assert_eq!(HealthReport::parse(&h.render()).unwrap(), h);
        assert!(HealthReport::parse(&error_reply("nope")).is_err());
    }

    #[test]
    fn timed_out_frame_errors_render_distinctly() {
        assert_eq!(
            FrameError::TimedOut { mid_frame: true }.to_string(),
            "frame read timed out"
        );
        assert_eq!(
            FrameError::TimedOut { mid_frame: false }.to_string(),
            "idle read timed out"
        );
    }
}
