//! `omplt::service` — the reentrant compile-as-a-service core behind
//! `ompltd`.
//!
//! [`Service`] is `Send + Sync` and owns no process-global state: each job
//! gets its own [`CompilerInstance`], its own fault-injection scope, its own
//! trace session, and its own ICE boundary, so any number of workers can
//! execute jobs concurrently on one service without observing each other.
//! The transport (Unix socket or stdio, in `src/bin/ompltd.rs`) owns frame
//! dispatch, the worker pool and drain; it calls [`Service::execute`] per
//! job and [`Service::base_health`] per `health` frame.
//!
//! ## Output parity
//!
//! A remote run must be indistinguishable from a local one — same stdout,
//! same rendered diagnostics, same exit codes — and it is by construction:
//! the daemon and the `ompltc` driver call the same function. [`execute_job`]
//! is the one pipeline walk and the one ICE boundary; [`Service::execute`]
//! calls it with the artifact cache and no local-only views, `ompltc` calls
//! it with no cache and replays the [`JobResponse`] through the code that
//! replays a remote reply. The differential suite in `tests/daemon.rs`
//! checks the transport around it over every example program.
//!
//! ## The artifact cache
//!
//! Clean compiles land in an [`ArtifactCache`] keyed by source hash ×
//! canonical options fingerprint. A warm hit skips lexing, parsing, sema,
//! codegen, the mid end, and the VM compiler entirely: the module is shared
//! by `Arc` and the bytecode image is decoded from its serialized form.
//! Jobs that inject pipeline faults, stop at `--syntax-only`, or produce
//! any diagnostic bypass or skip the cache, which is what keeps hit replay
//! byte-exact (there are no compile diagnostics to reproduce). Jobs that
//! inject `daemon.*` faults keep the cache live: those sites exercise the
//! service layer (corrupted entries, killed workers), not the pipeline.

use crate::cache::{Artifact, ArtifactCache, CacheKey};
use crate::compiler::{Backend, CompilerInstance};
use crate::protocol::{
    driver_diag, render_chunk_log, CacheOutcome, HealthReport, IceInfo, JobRequest, JobResponse,
};
use omplt_trace::TraceData;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-job output buffers. Mutex-wrapped so the bytes produced before a
/// panic survive the unwind — a job that prints IR and then ICEs in the
/// runtime stage still delivers the IR, exactly like a local process whose
/// stdout was already written.
#[derive(Default)]
pub struct JobBuf {
    stdout: Mutex<String>,
    stderr: Mutex<String>,
}

impl JobBuf {
    fn out(&self, s: &str) {
        self.stdout.lock().unwrap().push_str(s);
    }
    fn err(&self, s: &str) {
        self.stderr.lock().unwrap().push_str(s);
    }
    fn take(self) -> (String, String) {
        let text = |m: Mutex<String>| m.into_inner().unwrap_or_else(|p| p.into_inner());
        (text(self.stdout), text(self.stderr))
    }
}

/// The compile service: one shared artifact cache plus stateless per-job
/// execution. Construct once, share by reference across workers.
pub struct Service {
    cache: ArtifactCache,
    started: Instant,
}

impl Service {
    /// A service with an artifact cache of `cache_bytes` capacity. Installs
    /// the per-thread panic capture hook (idempotent) so job ICEs are
    /// recorded per worker instead of spraying the daemon's stderr.
    pub fn new(cache_bytes: usize) -> Service {
        omplt_fault::install_panic_capture();
        Service {
            cache: ArtifactCache::new(cache_bytes),
            started: Instant::now(),
        }
    }

    /// The artifact cache (counters, direct inspection in tests).
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// A health snapshot with the service-level fields (uptime, cache
    /// counters) filled in and the transport-level fields (queue, workers,
    /// supervisor) zeroed. `ompltd`'s transport loop overlays its pool
    /// state before rendering; a bare [`Service`] answers with this as-is.
    pub fn base_health(&self) -> HealthReport {
        let counters = self.cache.counters().into_iter();
        HealthReport {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            cache: counters.map(|(k, v)| (k.to_string(), v)).collect(),
            ..HealthReport::default()
        }
    }

    /// Executes one job against this service's cache: [`execute_job`] with
    /// no local-only views.
    pub fn execute(&self, job: &JobRequest) -> JobResponse {
        execute_job(job, Some(&self.cache), &LocalViews::default()).0
    }
}

/// The parameters of the pipeline walk that only the in-process `ompltc`
/// driver sets. They do not travel the wire; the daemon runs every job with
/// `LocalViews::default()`.
#[derive(Default)]
pub struct LocalViews {
    /// `--analyze`: stop after the front end, exit 1 on any finding of its
    /// analysis pass (which every compile runs, with or without this).
    pub analyze: bool,
    /// `--ast-dump`: print the syntactic AST.
    pub ast_dump: bool,
    /// `--ast-dump-transformed`: print the AST including shadow subtrees.
    pub ast_dump_transformed: bool,
    /// `--emit-bytecode`: print the VM bytecode disassembly.
    pub emit_bytecode: bool,
    /// `--emit-bytecode-bin=FILE`: write the OMPLTBC container to FILE.
    pub emit_bytecode_bin: Option<String>,
    /// Record a trace session rooted at an `ompltc` span and hand its data
    /// back (`--time-trace`, `--time-report`, `--crash-report`, and the
    /// local `--counters-json`).
    pub trace: bool,
}

/// What a piece of contained work reports: exit code, cache outcome,
/// rendered chunk log.
pub type Walked = (u8, CacheOutcome, Option<String>);

/// Executes one job: the pipeline walk (`run_job`) inside
/// [`contained_reply`]. `cache` is the daemon's artifact cache (`None`
/// in-process); `views` are the local driver's extra outputs.
pub fn execute_job(
    job: &JobRequest,
    cache: Option<&ArtifactCache>,
    views: &LocalViews,
) -> (JobResponse, Option<TraceData>) {
    contained_reply(job, views.trace, |buf| run_job(job, cache, views, buf))
}

/// Runs `work` for `job` with full isolation and folds the result into a
/// reply: a fresh fault scope (armed from the job's own `inject_fault`,
/// reset afterwards), a trace session when the job wants counters or the
/// caller a `trace` (then rooted at an `ompltc` span, and handed back), and
/// the ICE boundary — a panic anywhere in `work` becomes the structured
/// [`IceInfo`] (stage, message, backtrace) that `ompltc` renders, while the
/// calling thread lives on. `ompltc`'s other entry points (`--autotune`,
/// `--check-bytecode`) run under the same boundary through this function.
pub fn contained_reply(
    job: &JobRequest,
    trace: bool,
    work: impl FnOnce(&JobBuf) -> Walked,
) -> (JobResponse, Option<TraceData>) {
    let mut resp = JobResponse {
        id: job.id,
        exit_code: 2,
        ..JobResponse::default()
    };
    omplt_fault::reset();
    if let Some(Err(msg)) = job.inject_fault.as_deref().map(omplt_fault::arm) {
        resp.stderr = driver_diag(&msg, &[], job.json_diags);
        return (resp, None);
    }
    let session = (job.want_counters || trace).then(omplt_trace::Session::begin);
    let buf = JobBuf::default();
    let contain = omplt_fault::contain_panics();
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let _root = trace.then(|| omplt_trace::span("ompltc"));
        work(&buf)
    }));
    drop(contain);
    match outcome {
        Ok(walked) => (resp.exit_code, resp.cache, resp.chunk_log) = walked,
        Err(_) => {
            omplt_trace::count("ice", 1);
            let stage = omplt_fault::current_stage().to_string();
            let (message, backtrace) = omplt_fault::take_panic()
                .unwrap_or_else(|| ("<panic details unavailable>".to_string(), String::new()));
            resp.exit_code = 3;
            resp.ice = Some(IceInfo {
                stage,
                message,
                backtrace,
            });
        }
    }
    omplt_fault::reset();
    (resp.stdout, resp.stderr) = buf.take();
    let data = session.map(omplt_trace::Session::finish);
    if job.want_counters {
        resp.counters_json = data.as_ref().map(TraceData::to_counters_json);
    }
    (resp, data)
}

/// The pipeline proper — the only walk from source text to a run, for the
/// daemon and the CLI alike: parse (every legality refusal and `-Wrace`:
/// Sema's, then the dependence pass) → [`--analyze`: stop] → [ast-dump] →
/// codegen → optimize → [emit-ir] → compile bytecode (once) →
/// [emit-bytecode] → run.
fn run_job(
    job: &JobRequest,
    cache: Option<&ArtifactCache>,
    views: &LocalViews,
    buf: &JobBuf,
) -> Walked {
    let json = job.json_diags;
    let mut ci = CompilerInstance::new(job.opts);
    let emit_diags = |ci: &CompilerInstance| {
        if ci.diags.is_empty() {
            return;
        }
        if json {
            buf.err(&ci.render_diags_json());
        } else {
            buf.err(&ci.render_diags());
        }
    };

    // Pipeline fault-injection jobs bypass the cache entirely: an armed
    // site can fire anywhere in the pipeline, so neither serving a hit
    // (which would skip the site) nor storing the result is sound.
    // `daemon.*` sites target the service layer itself and keep the
    // cache live — `daemon.cache-corrupt` needs an entry to corrupt,
    // and a job requeued after `daemon.worker-kill` must still warm-hit.
    let daemon_fault = (job.inject_fault.as_deref()).is_some_and(|s| s.starts_with("daemon."));
    let key = cache
        .filter(|_| (job.inject_fault.is_none() || daemon_fault) && !job.syntax_only)
        .map(|cache| (cache, CacheKey::new(&job.source, &job.opts, job.optimize)));
    let mut cache_outcome = CacheOutcome::Bypass;
    let mut cached = None;
    if let Some((cache, k)) = &key {
        // Injected corruption lands immediately before the lookup that
        // would have served the entry, exercising the verify path.
        if omplt_fault::fire("daemon.cache-corrupt")
            || omplt_fault::fire_global("daemon.cache-corrupt")
        {
            cache.corrupt(k);
        }
        cached = cache.lookup(k);
        cache_outcome = if cached.is_some() {
            CacheOutcome::Hit
        } else {
            CacheOutcome::Miss
        };
    }

    let (module, cached_code) = match cached {
        // Warm path: the whole front end, mid end, and VM compiler are
        // skipped. Cached compiles are diagnostic-free by construction,
        // so there is nothing to replay.
        Some(art) => {
            let image = art.bytecode.as_deref();
            (art.module, image.and_then(|b| omplt_vm::decode(b).ok()))
        }
        None => {
            let tu = match ci.parse_source(&job.name, &job.source) {
                Ok(tu) => tu,
                Err(_) => {
                    emit_diags(&ci);
                    return (1, cache_outcome, None);
                }
            };
            if views.analyze {
                emit_diags(&ci);
                return (u8::from(ci.analysis().has_findings()), cache_outcome, None);
            }
            if views.ast_dump_transformed {
                buf.out(&ci.ast_dump_transformed(&tu));
            } else if views.ast_dump {
                buf.out(&ci.ast_dump(&tu));
            }
            if job.syntax_only {
                emit_diags(&ci);
                return (0, cache_outcome, None);
            }
            let mut module = match ci.codegen(&tu) {
                Ok(m) => m,
                Err(rendered) => {
                    if ci.diags.is_empty() {
                        // Internal verifier failures are not diagnostics.
                        buf.err(&rendered);
                    } else {
                        emit_diags(&ci);
                    }
                    return (1, cache_outcome, None);
                }
            };
            if job.optimize {
                ci.optimize(&mut module);
                if ci.diags.has_errors() {
                    emit_diags(&ci);
                    return (1, cache_outcome, None);
                }
            }
            (Arc::new(module), None)
        }
    };

    if job.emit_ir {
        buf.out(&omplt_ir::print_module(&module));
    }

    // Bytecode is compiled exactly once per job, here: the bytecode views
    // and the run below both consume this one outcome. A failure is kept,
    // not dropped — the run degrades on it (vm falls back with a warning,
    // vm:strict is fatal), so an armed one-shot fault cannot be spent on a
    // compile whose error nobody reads.
    let emit_bytecode = views.emit_bytecode || views.emit_bytecode_bin.is_some();
    let code = match cached_code {
        Some(code) => Some(Ok(code)),
        None if ci.opts.backend != Backend::Interp || emit_bytecode => {
            Some(ci.compile_bytecode(&module))
        }
        None => None,
    };
    if let (Some((cache, k)), CacheOutcome::Miss) = (key, cache_outcome) {
        if ci.diags.is_empty() && !matches!(code, Some(Err(_))) {
            let bytecode = match &code {
                Some(Ok(c)) => Some(Arc::new(omplt_vm::encode(c))),
                _ => None,
            };
            let size = job.source.len()
                + omplt_ir::print_module(&module).len()
                + bytecode.as_deref().map_or(0, |b| b.len());
            let module = module.clone();
            let artifact = Artifact {
                module,
                bytecode,
                size,
            };
            cache.insert(k, artifact);
        }
    }

    match &code {
        Some(Ok(code)) if emit_bytecode => {
            if views.emit_bytecode {
                for f in &code.funcs {
                    buf.out(&omplt_vm::disasm(f));
                }
            }
            if let Some(path) = &views.emit_bytecode_bin {
                if let Err(e) = std::fs::write(path, omplt_vm::encode(code)) {
                    buf.err(&driver_diag(
                        &format!("cannot write '{path}': {e}"),
                        &[],
                        json,
                    ));
                    return (2, cache_outcome, None);
                }
            }
        }
        Some(Err(e)) if emit_bytecode => {
            buf.err(&format!("ompltc: {e}\n"));
            return (1, cache_outcome, None);
        }
        _ => {}
    }
    if !job.run {
        emit_diags(&ci);
        return (0, cache_outcome, None);
    }
    // `OMP_SCHEDULE` was resolved once, at the client's entry point; a
    // warning from that lands here, right before the run.
    if let Some(w) = &job.schedule_warning {
        ci.diags
            .warning(omplt_source::SourceLocation::INVALID, w.clone());
    }
    // Diagnostics are emitted after the run so warnings produced during it
    // (e.g. the vm→interp fallback notice) are included.
    let result = ci.run_compiled(&module, code.as_ref().map(Result::as_ref));
    emit_diags(&ci);
    match result {
        Ok(r) => {
            buf.out(&r.stdout);
            let chunk = job.opts.log_chunks.then(|| render_chunk_log(&r.chunk_log));
            (r.exit_code as u8, cache_outcome, chunk)
        }
        Err(e) => {
            // What the guest printed before the fault is part of the run.
            buf.out(&e.stdout);
            buf.err(&driver_diag(&format!("runtime error: {e}"), &[], json));
            (1, cache_outcome, None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::DEFAULT_CACHE_BYTES;

    const PRAGMA_SRC: &str = "void print_i64(long v);\n\
        int a[8];\n\
        int main(void) {\n\
          #pragma omp parallel for schedule(static)\n\
          for (int i = 0; i < 8; i += 1)\n\
            a[i] = i * 3;\n\
          long s = 0;\n\
          for (int i = 0; i < 8; i += 1)\n\
            s += a[i];\n\
          print_i64(s);\n\
          return 0;\n\
        }\n";

    fn run_request(id: u64) -> JobRequest {
        let mut job = JobRequest::new(id, "t.c", PRAGMA_SRC);
        job.opts.backend = Backend::Vm;
        job.opts.serial = true;
        job.optimize = true;
        job.run = true;
        job
    }

    #[test]
    fn warm_hit_skips_the_front_end_with_identical_output() {
        let service = Service::new(DEFAULT_CACHE_BYTES);
        let mut job = run_request(1);
        job.want_counters = true;
        let cold = service.execute(&job);
        assert_eq!(cold.exit_code, 0, "stderr: {}", cold.stderr);
        assert_eq!(cold.cache, CacheOutcome::Miss);
        let warm = service.execute(&job);
        assert_eq!(warm.cache, CacheOutcome::Hit);
        assert_eq!(warm.stdout, cold.stdout);
        assert_eq!(warm.stderr, cold.stderr);
        assert_eq!(warm.exit_code, cold.exit_code);
        // The cold run's counters show sema doing transformation work; the
        // warm run never enters the front end, so they are absent.
        let cold_counters = cold.counters_json.unwrap();
        let warm_counters = warm.counters_json.unwrap();
        assert!(
            cold_counters.contains("sema."),
            "cold counters: {cold_counters}"
        );
        assert!(
            !warm_counters.contains("sema."),
            "warm counters must lack front-end work: {warm_counters}"
        );
    }

    #[test]
    fn fault_jobs_bypass_the_cache_and_yield_structured_ices() {
        let service = Service::new(DEFAULT_CACHE_BYTES);
        // Prime the cache so a hit *would* be available.
        assert_eq!(service.execute(&run_request(1)).cache, CacheOutcome::Miss);
        let mut job = run_request(2);
        job.inject_fault = Some("parse.panic".to_string());
        let resp = service.execute(&job);
        assert_eq!(resp.cache, CacheOutcome::Bypass);
        assert_eq!(resp.exit_code, 3);
        let ice = resp.ice.expect("ICE info");
        assert_eq!(ice.stage, "parse");
        assert!(ice.message.contains("injected fault"), "{}", ice.message);
        // The service survives and still serves hits.
        assert_eq!(service.execute(&run_request(3)).cache, CacheOutcome::Hit);
    }

    #[test]
    fn corrupted_cache_entry_is_quarantined_and_recompiled() {
        let service = Service::new(DEFAULT_CACHE_BYTES);
        let clean = service.execute(&run_request(1));
        assert_eq!(clean.cache, CacheOutcome::Miss);
        // `daemon.cache-corrupt` flips a byte in the cached artifact right
        // before lookup; the integrity check must refuse to serve it and
        // recompile instead of replaying a miscompile.
        let mut job = run_request(2);
        job.inject_fault = Some("daemon.cache-corrupt".to_string());
        let resp = service.execute(&job);
        assert_eq!(resp.cache, CacheOutcome::Miss, "quarantine forces a miss");
        assert_eq!(resp.exit_code, 0, "stderr: {}", resp.stderr);
        assert_eq!(resp.stdout, clean.stdout, "recompiled output is clean");
        let counters: std::collections::HashMap<_, _> =
            service.cache().counters().into_iter().collect();
        assert_eq!(counters["daemon.cache.integrity_failures"], 1);
        // The recompiled entry serves clean hits again.
        let warm = service.execute(&run_request(3));
        assert_eq!(warm.cache, CacheOutcome::Hit);
        assert_eq!(warm.stdout, clean.stdout);
    }

    #[test]
    fn health_frames_answer_with_service_level_snapshot() {
        // The transport overlays its pool on this; `tests/daemon.rs` checks
        // the overlaid reply over the socket.
        let service = Service::new(DEFAULT_CACHE_BYTES);
        service.execute(&run_request(1));
        let h = service.base_health();
        assert_eq!(h.workers_configured, 0, "bare service has no pool");
        let cache: std::collections::HashMap<_, _> = h.cache.into_iter().collect();
        assert_eq!(cache["daemon.cache.misses"], 1);
    }

    #[test]
    fn concurrent_fault_jobs_each_name_their_own_stage() {
        // Regression test for the old process-global PANIC_INFO slot: two
        // jobs ICEing concurrently in different stages must each report
        // their own stage and message, not the last writer's.
        let service = Service::new(DEFAULT_CACHE_BYTES);
        std::thread::scope(|s| {
            let sites = [("parse.panic", "parse"), ("codegen.panic", "codegen")];
            let handles: Vec<_> = sites
                .iter()
                .map(|&(site, stage)| {
                    let service = &service;
                    s.spawn(move || {
                        let mut worst = None;
                        for round in 0..8 {
                            let mut job = run_request(round);
                            job.inject_fault = Some(site.to_string());
                            let resp = service.execute(&job);
                            if resp.exit_code != 3
                                || resp.ice.as_ref().map(|i| i.stage.as_str()) != Some(stage)
                            {
                                worst = Some(resp);
                            }
                        }
                        worst
                    })
                })
                .collect();
            for h in handles {
                if let Some(bad) = h.join().unwrap() {
                    panic!(
                        "cross-thread ICE mixup: exit={} ice={:?}",
                        bad.exit_code, bad.ice
                    );
                }
            }
        });
    }

    #[test]
    fn fuel_exhaustion_is_a_structured_per_job_error() {
        let service = Service::new(DEFAULT_CACHE_BYTES);
        let mut job = run_request(1);
        job.opts.max_steps = 10;
        let resp = service.execute(&job);
        assert_eq!(resp.exit_code, 1);
        assert!(
            resp.stderr.contains("runtime error"),
            "stderr: {}",
            resp.stderr
        );
        assert!(resp.ice.is_none());
        // Unlimited-fuel jobs on the same service still succeed.
        let ok = service.execute(&run_request(2));
        assert_eq!(ok.exit_code, 0, "stderr: {}", ok.stderr);
    }
}
