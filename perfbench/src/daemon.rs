//! `daemon_mix`: a spawned `ompltd`, a closed loop on two connections, a
//! seeded stream of 80 % warm hits and 20 % cold misses. The only workload
//! that crosses the socket.

use crate::calib::Calibration;
use crate::gen::{self, JobSpec, JobStream, Program, HOT_SET};
use crate::inproc::{
    expect_stdout, insert_counts, layer_us, ms_since, prepare, sample_compiles, sample_runs,
    trace_programs, typical, Laps, Naming, Outcome, Prepared, Tally,
};
use crate::metrics::Values;
use crate::pipe;
use crate::proc::{self, Binaries, RunDir};
use crate::stats::{median, tail};
use crate::trace_out::ProgramTrace;
use omplt::cache::{Artifact, ArtifactCache, CacheKey};
use omplt::protocol::{
    read_frame, write_frame, CacheOutcome, JobRequest, JobResponse, Reply, Request,
};
use omplt::trace::span;
use omplt::{Backend, Options, Service};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CONNECTIONS: u64 = 2;

/// The timings reported at the calibration loop's reference speed
/// (`calib.rs`): the in-process ones. `cli_ms` and `setup_s` mostly wait here
/// — for the daemon's 20 ms accept poll, for the spawned daemon's socket —
/// and waiting does not get faster with the clock; scaled, they spread 6–8 %
/// over ten runs instead of 1–2 %.
pub const SCALED: &[&str] = &["compile_ms", "run_ms"];

/// Small `serial` VM jobs, as `service::bench_job` builds them: the mix
/// measures the service and the transport, not guest thread teams.
fn job_opts() -> Options {
    Options {
        backend: Backend::Vm,
        serial: true,
        ..Options::default()
    }
}

/// A running `ompltd`, stopped (and waited for) on drop.
struct Daemon {
    child: Child,
    sock: PathBuf,
}

impl Daemon {
    fn spawn(bins: &Binaries, dir: &RunDir, cache_bytes: usize) -> Result<Daemon, String> {
        let sock = dir.path().join("d.sock");
        let child = Command::new(&bins.ompltd)
            .arg(format!("--listen={}", sock.display()))
            .arg("--workers=2")
            .arg(format!("--cache-bytes={cache_bytes}"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bins.ompltd.display()))?;
        let daemon = Daemon { child, sock };
        let start = Instant::now();
        while UnixStream::connect(&daemon.sock).is_err() {
            if start.elapsed() > Duration::from_secs(10) {
                return Err("ompltd did not open its socket within 10 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(daemon)
    }

    fn connect(&self) -> Result<Conn, String> {
        UnixStream::connect(&self.sock)
            .map(|stream| Conn { stream })
            .map_err(|e| format!("cannot connect to {}: {e}", self.sock.display()))
    }

    /// The daemon's `daemon.cache.*` counters (one round trip).
    fn stats(&self) -> Result<BTreeMap<String, u64>, String> {
        let body = self.connect()?.round_trip(&Request::Stats.render())?;
        let v = omplt::trace::json::parse(&body).map_err(|e| format!("bad stats reply: {e}"))?;
        let counters = v
            .get("counters")
            .and_then(|c| c.as_object())
            .ok_or_else(|| format!("stats reply has no counters: {body}"))?;
        Ok(counters
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
            .collect())
    }

    fn hits_misses(&self) -> Result<(u64, u64), String> {
        let stats = self.stats()?;
        let get = |k: &str| stats.get(k).copied().unwrap_or(0);
        Ok((get("daemon.cache.hits"), get("daemon.cache.misses")))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Ask for a drain; a daemon that does not exit within 5 s is killed.
        if let Ok(mut conn) = self.connect() {
            let _ = conn.round_trip(&Request::Shutdown.render());
        }
        let start = Instant::now();
        while matches!(self.child.try_wait(), Ok(None)) {
            if start.elapsed() > Duration::from_secs(5) {
                let _ = self.child.kill();
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.wait();
    }
}

/// One client connection: a caller that waits for its reply, like
/// `ompltc --remote`.
struct Conn {
    stream: UnixStream,
}

impl Conn {
    fn round_trip(&mut self, body: &str) -> Result<String, String> {
        write_frame(&mut self.stream, body.as_bytes()).map_err(|e| format!("send: {e}"))?;
        let reply = read_frame(&mut self.stream)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or("daemon closed the connection")?;
        String::from_utf8(reply).map_err(|e| format!("reply is not UTF-8: {e}"))
    }

    /// Sends `job`, waits, and checks the reply: request → reply latency in
    /// milliseconds. An `Overloaded` reply is a failure (and counted by the
    /// caller): the harness never retries.
    fn job(&mut self, job: &JobRequest, p: &Program, want: CacheOutcome) -> Result<f64, String> {
        let body = job.render();
        let t = Instant::now();
        let reply = self.round_trip(&body)?;
        let ms = ms_since(t);
        let resp = match Reply::parse(&reply)? {
            Reply::Job(resp) => resp,
            Reply::Overloaded(o) => {
                return Err(format!("overloaded (queue depth {})", o.queue_depth))
            }
        };
        if resp.id != job.id {
            return Err(format!("{}: reply carries id {}", p.name, resp.id));
        }
        check_response(&resp, p, want)?;
        Ok(ms)
    }
}

fn remote_job(p: &Program, id: u64) -> JobRequest {
    let mut job = JobRequest::new(id, &p.name, &p.source);
    job.opts = job_opts();
    job.optimize = true;
    job.run = true;
    job
}

/// `Err` unless the reply exits 0 with the expected stdout and cache outcome.
fn check_response(resp: &JobResponse, p: &Program, want: CacheOutcome) -> Result<(), String> {
    if resp.exit_code != 0 {
        return Err(format!(
            "{}: exit {}: {}",
            p.name, resp.exit_code, resp.stderr
        ));
    }
    expect_stdout(&resp.stdout, p)?;
    if resp.cache != want {
        return Err(format!(
            "{}: cache outcome {:?}, expected {want:?}",
            p.name, resp.cache
        ));
    }
    Ok(())
}

/// `Service::execute` on `job` in-process, timed and checked.
fn service_run(
    service: &Service,
    job: &JobRequest,
    p: &Program,
    want: CacheOutcome,
) -> Result<f64, String> {
    let t = Instant::now();
    let resp = service.execute(job);
    let ms = ms_since(t);
    check_response(&resp, p, want).map(|()| ms)
}

/// What the hot set occupies in a `Service`'s artifact cache, measured by
/// sending each program through a throw-away service. The daemon's cache is
/// sized at four times this: cold sources are evicted while the hot set
/// stays resident.
fn resident_bytes(hot: &[Prepared]) -> Result<usize, String> {
    let probe = Service::new(omplt::cache::DEFAULT_CACHE_BYTES);
    for (i, p) in hot.iter().enumerate() {
        let job = remote_job(&p.program, i as u64);
        service_run(&probe, &job, &p.program, CacheOutcome::Miss)?;
    }
    Ok(probe
        .cache()
        .counters()
        .into_iter()
        .find(|(k, _)| *k == "daemon.cache.bytes")
        .map_or(0, |(_, v)| v as usize))
}

/// `daemon_mix` after set-up.
pub struct Ready {
    hot: Vec<Prepared>,
    /// `--cache-bytes`: four times what the hot set occupies.
    cache_bytes: usize,
    bins: Binaries,
    seed: u64,
    dir: RunDir,
}

/// Generates and checks the hot set, sizes the cache at four times what the
/// hot set occupies, and proves the daemon path once: spawn `ompltd`, warm
/// it over the socket, and see every `ompltc --remote` job on the hot set
/// answered from the cache. The phases spawn their own daemons.
pub fn set_up(bins: Binaries, seed: u64, laps: &mut Laps) -> Result<Ready, String> {
    let dir = RunDir::create("daemon_mix")?;
    let mut hot = Vec::new();
    for program in gen::hot_set(seed) {
        let file = dir.write(&format!("{}.c", program.name), &program.source)?;
        hot.push(prepare(job_opts(), program, file, laps)?);
    }
    let cache_bytes = 4 * resident_bytes(&hot)?;
    laps.lap();
    let ready = Ready {
        hot,
        cache_bytes,
        bins,
        seed,
        dir,
    };
    let daemon = ready.warm_daemon()?;
    laps.lap();
    let (hits, misses) = daemon.hits_misses()?;
    let mut tally = Tally::default();
    ready.cli_sweep(&daemon, &mut tally, &mut vec![Vec::new(); HOT_SET]);
    if let Some(e) = tally.first_error {
        return Err(e);
    }
    if daemon.hits_misses()? != (hits + HOT_SET as u64, misses) {
        return Err("ompltc --remote jobs on the hot set were not all cache hits".to_string());
    }
    laps.lap();
    drop(daemon);
    laps.lap();
    Ok(ready)
}

/// One caller: its connection to the current daemon and its job stream,
/// which runs on from round to round.
struct Client<'a> {
    conn: Conn,
    stream: &'a mut JobStream,
    next_id: u64,
}

#[derive(Default)]
struct RoundLog {
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    overloaded: u64,
    tally: Tally,
}

/// Runs the closed loop on every client until `until`; each caller sends
/// its next job only after the previous reply arrived.
fn mix_round(clients: &mut [Client<'_>], hot: &[Prepared], until: Instant) -> (RoundLog, f64) {
    let start = Instant::now();
    let logs: Vec<RoundLog> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                s.spawn(move || {
                    let mut log = RoundLog::default();
                    while Instant::now() < until {
                        let spec = client.stream.next().expect("the job stream is endless");
                        client.next_id += 1;
                        let (program, want, sink) = match &spec {
                            JobSpec::Hot(i) => {
                                (&hot[*i].program, CacheOutcome::Hit, &mut log.hit_ms)
                            }
                            JobSpec::Cold(p) => (p, CacheOutcome::Miss, &mut log.miss_ms),
                        };
                        let r =
                            client
                                .conn
                                .job(&remote_job(program, client.next_id), program, want);
                        if r.as_ref().is_err_and(|e| e.starts_with("overloaded")) {
                            log.overloaded += 1;
                        }
                        if let Some(ms) = log.tally.check(r) {
                            sink.push(ms);
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let secs = start.elapsed().as_secs_f64();
    let mut all = RoundLog::default();
    for log in logs {
        all.hit_ms.extend(log.hit_ms);
        all.miss_ms.extend(log.miss_ms);
        all.overloaded += log.overloaded;
        all.tally.absorb(log.tally);
    }
    (all, secs)
}

impl Ready {
    /// A fresh `ompltd` with the hot set resident.
    fn warm_daemon(&self) -> Result<Daemon, String> {
        let daemon = Daemon::spawn(&self.bins, &self.dir, self.cache_bytes)?;
        let mut conn = daemon.connect()?;
        for (i, p) in self.hot.iter().enumerate() {
            conn.job(
                &remote_job(&p.program, i as u64),
                &p.program,
                CacheOutcome::Miss,
            )?;
            conn.job(
                &remote_job(&p.program, i as u64),
                &p.program,
                CacheOutcome::Hit,
            )?;
        }
        Ok(daemon)
    }

    /// One `ompltc --remote` per hot program. No retries: a shed or refused
    /// job must show as a failure.
    fn cli_sweep(&self, daemon: &Daemon, tally: &mut Tally, sink: &mut [Vec<f64>]) {
        let flags: Vec<String> = [
            format!("--remote={}", daemon.sock.display()),
            "--remote-retries=0".to_string(),
            "--backend=vm".to_string(),
            "--serial".to_string(),
            "--opt".to_string(),
            "--run".to_string(),
        ]
        .into();
        for (p, samples) in self.hot.iter().zip(sink) {
            if let Some(ms) = tally.check(proc::cli_run(
                &self.bins.ompltc,
                &flags,
                &p.file,
                &p.program.expected,
            )) {
                samples.push(ms);
            }
        }
    }

    fn clients<'a>(
        &self,
        daemon: &Daemon,
        streams: &'a mut [JobStream],
    ) -> Result<Vec<Client<'a>>, String> {
        streams
            .iter_mut()
            .map(|stream| {
                Ok(Client {
                    conn: daemon.connect()?,
                    stream,
                    next_id: 0,
                })
            })
            .collect()
    }

    /// The end-to-end phase against one warmed `ompltd`: rounds until
    /// `seconds` are up, the job streams running on from round to round.
    /// Each round sends one `ompltc --remote` per hot program (`cli_ms`: what
    /// a user of the daemon pays), samples in-process compiles and runs of
    /// the hot set (`compile_ms`, `run_ms`: what a miss and a hit cost
    /// without the service around them), and then runs the mix for a
    /// twentieth of `seconds`: every reply is checked, and the daemon's peak
    /// memory is read under that load.
    pub fn timed_phase(&self, seconds: f64, calib: &mut Calibration) -> Result<Outcome, String> {
        let mut tally = Tally::default();
        let n = self.hot.len();
        let (mut cli, mut compile, mut run) = (
            vec![Vec::new(); n],
            vec![Vec::new(); n],
            vec![Vec::new(); n],
        );
        let daemon = self.warm_daemon()?;
        let mut streams: Vec<JobStream> = (0..CONNECTIONS)
            .map(|c| JobStream::new(self.seed, c))
            .collect();
        let mut clients = self.clients(&daemon, &mut streams)?;
        let burst = Duration::from_secs_f64((seconds / 20.0).max(0.1));
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        while Instant::now() < deadline {
            self.cli_sweep(&daemon, &mut tally, &mut cli);
            for (i, p) in self.hot.iter().enumerate() {
                sample_compiles(job_opts(), p, 16, &mut tally, &mut compile[i]);
                sample_runs(job_opts(), p, 64, &mut tally, &mut run[i]);
                calib.sample();
            }
            let (log, _) = mix_round(&mut clients, &self.hot, Instant::now() + burst);
            tally.absorb(log.tally);
        }
        let stats = daemon.stats()?;
        if stats.get("daemon.cache.evictions").copied().unwrap_or(0) == 0 {
            return Err(
                "the mix forced no cache eviction: the cache is too large for it".to_string(),
            );
        }
        let mut v = Values::new();
        v.insert("cli_ms".into(), typical(cli.iter())?);
        v.insert("compile_ms".into(), typical(compile.iter())?);
        v.insert("run_ms".into(), typical(run.iter())?);
        insert_counts(&mut v, &self.hot);
        v.insert("peak_rss_mb".into(), proc::peak_rss_mb(daemon.child.id())?);
        Ok(Outcome { values: v, tally })
    }

    /// The traced phase: the pipeline layers on the hot set, then the
    /// service's own layers (protocol, cache, `Service::execute`) timed
    /// in-process on the same jobs, then five rounds of the mix over the
    /// socket for latency, throughput, the transport share, the tails and the
    /// daemon's counters. Each round runs against a fresh, warmed `ompltd`:
    /// how the threads of a daemon settle on the two cores differs from one
    /// instance to the next and then stays (throughput of whole runs against
    /// one instance fell into two groups a third apart), so one instance
    /// would measure that draw.
    pub fn traced_phase(&self, seconds: f64) -> Result<(Outcome, Vec<ProgramTrace>), String> {
        const ROUNDS: usize = 5;
        let programs: Vec<&Program> = self.hot.iter().map(|p| &p.program).collect();
        let (mut outcome, mut traces) =
            trace_programs(job_opts(), Naming::Totals, true, &programs, seconds / 4.0)?;
        let (trace, service_hit_us, overhead) = self.service_layers(&mut outcome.values)?;
        traces.push(trace);

        let mut streams: Vec<JobStream> = (0..CONNECTIONS)
            .map(|c| JobStream::new(self.seed, c))
            .collect();
        let round_len = Duration::from_secs_f64(seconds / 2.0 / ROUNDS as f64);
        let (mut rates, mut hit_ms, mut miss_ms) = (Vec::new(), Vec::new(), Vec::new());
        let mut overloaded = 0;
        let mut counters = BTreeMap::new();
        for _ in 0..ROUNDS {
            let daemon = self.warm_daemon()?;
            let mut clients = self.clients(&daemon, &mut streams)?;
            let (log, secs) = mix_round(&mut clients, &self.hot, Instant::now() + round_len);
            rates.push(log.tally.attempted as f64 / secs);
            hit_ms.extend(log.hit_ms);
            miss_ms.extend(log.miss_ms);
            overloaded += log.overloaded;
            outcome.tally.absorb(log.tally);
            for (name, n) in daemon.stats()? {
                *counters.entry(name).or_insert(0) += n;
            }
        }
        if hit_ms.is_empty() || miss_ms.is_empty() {
            return Err(outcome
                .tally
                .first_error
                .unwrap_or_else(|| "the traced mix completed no job".to_string()));
        }
        let v = &mut outcome.values;
        v.insert("daemon.jobs_per_s".into(), median(&rates));
        v.insert("daemon.hit_ms".into(), median(&hit_ms));
        v.insert("daemon.miss_ms".into(), median(&miss_ms));
        v.insert(
            "daemon.transport.us".into(),
            median(&hit_ms) * 1e3 - service_hit_us,
        );
        v.insert(
            "daemon.hit_ms_p99".into(),
            tail(&hit_ms, 99.0).unwrap_or(0.0),
        );
        v.insert(
            "daemon.miss_ms_p99".into(),
            tail(&miss_ms, 99.0).unwrap_or(0.0),
        );
        v.insert("daemon.overloaded".into(), overloaded as f64);
        // The harness never retries: every shed job is counted as failed.
        v.insert("daemon.retries".into(), 0.0);
        for name in [
            "daemon.cache.hits",
            "daemon.cache.misses",
            "daemon.cache.evictions",
        ] {
            v.insert(name.into(), counters.get(name).copied().unwrap_or(0) as f64);
        }
        v.insert("trace.overhead_pct".into(), overhead);
        Ok((outcome, traces))
    }

    /// Times the service's layers in one trace session. Calls that take
    /// about a microsecond are batched, 64 to a span, because spans have
    /// microsecond resolution. Returns the session, `service.hit.us`, and
    /// the tracing overhead in percent measured on a `Service::execute`
    /// loop (the one part of this phase with spans of the program's own
    /// inside it).
    fn service_layers(&self, v: &mut Values) -> Result<(ProgramTrace, f64, f64), String> {
        const BATCH: usize = 64;
        const SPANS: usize = 24;
        fn batch(layer: &str, mut call: impl FnMut() -> bool) -> Result<(), String> {
            let _s = span(layer);
            let ok = (0..BATCH).fold(true, |ok, _| call() && ok);
            ok.then_some(())
                .ok_or_else(|| format!("{layer}: a call failed"))
        }

        let service = Service::new(omplt::cache::DEFAULT_CACHE_BYTES);
        let cache = ArtifactCache::new(omplt::cache::DEFAULT_CACHE_BYTES);
        // Per hot program: its job, the job and its reply as wire frames,
        // its cache key and artifact.
        let mut jobs = Vec::new();
        for (i, p) in self.hot.iter().enumerate() {
            let job = remote_job(&p.program, i as u64);
            service_run(&service, &job, &p.program, CacheOutcome::Miss)?;
            let reply = service.execute(&job);
            let mut request_frame = Vec::new();
            write_frame(&mut request_frame, job.render().as_bytes()).map_err(|e| e.to_string())?;
            let key = CacheKey::new(&job.source, &job.opts, job.optimize);
            let artifact = Artifact {
                module: Arc::new(pipe::compile(job_opts(), &p.program)?.module),
                bytecode: Some(Arc::new(p.image.clone())),
                size: p.program.source.len() + p.image.len(),
            };
            cache.insert(key.clone(), artifact.clone());
            jobs.push((job, &p.program, reply, request_frame, key, artifact));
        }
        let hits_pass = |tally: &mut Tally| {
            for (job, program, ..) in &jobs {
                for _ in 0..BATCH {
                    tally.check(service_run(&service, job, program, CacheOutcome::Hit));
                }
            }
        };

        let mut tally = Tally::default();
        let session = omplt::trace::Session::begin();
        for round in 0..SPANS {
            let (job, program, reply, request_frame, key, artifact) = &jobs[round % jobs.len()];
            batch("bench.protocol.decode", || {
                let body = read_frame(&mut black_box(request_frame.as_slice()));
                matches!(body, Ok(Some(b)) if std::str::from_utf8(&b).is_ok_and(|t| Request::parse(t).is_ok()))
            })?;
            batch("bench.protocol.encode", || {
                write_frame(&mut Vec::new(), black_box(reply).render().as_bytes()).is_ok()
            })?;
            batch("bench.cache.key", || {
                black_box(CacheKey::new(
                    black_box(&job.source),
                    &job.opts,
                    job.optimize,
                )) == *key
            })?;
            batch("bench.cache.lookup", || {
                cache.lookup(black_box(key)).is_some()
            })?;
            batch("bench.cache.insert", || {
                cache.insert(key.clone(), artifact.clone());
                true
            })?;
            batch("bench.service.hit", || {
                tally
                    .check(service_run(&service, job, program, CacheOutcome::Hit))
                    .is_some()
            })?;
            let cold = gen::daemon_program("cold", 900_000 + round as i64, 11);
            let _s = span("bench.service.miss");
            tally.check(service_run(
                &service,
                &remote_job(&cold, round as u64),
                &cold,
                CacheOutcome::Miss,
            ));
        }
        let data = session.finish();
        // Overhead: the same pass over the hot set inside a throw-away
        // session and outside one, alternating so that drift hits both.
        let (mut traced_secs, mut plain_secs) = (0.0, 0.0);
        for _ in 0..4 {
            let session = omplt::trace::Session::begin();
            let t = Instant::now();
            hits_pass(&mut tally);
            traced_secs += t.elapsed().as_secs_f64();
            drop(session);
            let t = Instant::now();
            hits_pass(&mut tally);
            plain_secs += t.elapsed().as_secs_f64();
        }
        let overhead = 100.0 * (traced_secs / plain_secs - 1.0);
        if let Some(e) = tally.first_error {
            return Err(e);
        }

        for (metric, layer) in [
            ("protocol.decode.us", "bench.protocol.decode"),
            ("protocol.encode.us", "bench.protocol.encode"),
            ("cache.key.us", "bench.cache.key"),
            ("cache.lookup.us", "bench.cache.lookup"),
            ("cache.insert.us", "bench.cache.insert"),
            ("service.hit.us", "bench.service.hit"),
        ] {
            v.insert(metric.into(), layer_us(&data, layer) / BATCH as f64);
        }
        v.insert(
            "service.miss.us".into(),
            layer_us(&data, "bench.service.miss"),
        );
        v.insert("protocol.frame_bytes".into(), jobs[0].3.len() as f64);
        let hit_us = v["service.hit.us"];
        Ok((
            ProgramTrace {
                name: "service_layers".to_string(),
                trips: 1,
                runs: 1,
                data,
            },
            hit_us,
            overhead,
        ))
    }
}
