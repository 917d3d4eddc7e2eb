//! End-to-end tests of the compile daemon: `ompltd --listen=SOCKET` serving
//! `ompltc --remote=SOCKET` clients, plus raw-frame protocol coverage.
//!
//! The central contract is differential: for every job shape the daemon
//! accepts, `ompltc --remote` must produce byte-identical stdout, stderr,
//! and exit code to the in-process driver. Cache behaviour is observed
//! through the `stats` frame (`daemon.cache.*` counters).

mod scan;

use omplt::protocol::{
    read_frame, write_frame, CacheOutcome, HealthReport, JobRequest, JobResponse, Request,
};
use std::io::{Read as _, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::Duration;

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("omplt-daemon-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

/// `ompltc` with a scrubbed environment so the host's `OMP_SCHEDULE` (if
/// any) cannot leak into differential comparisons.
fn ompltc() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ompltc"));
    cmd.env_remove("OMP_SCHEDULE");
    cmd
}

/// An `ompltd --listen` child bound to a per-test socket. Dropping it sends
/// a shutdown frame, then reaps (or kills) the child.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn start(tag: &str) -> Daemon {
        Daemon::start_with(tag, &[], &[])
    }

    fn start_with(tag: &str, extra_args: &[&str], env: &[(&str, &str)]) -> Daemon {
        Daemon::spawn(tag, extra_args, env, Stdio::null())
    }

    fn spawn(tag: &str, extra_args: &[&str], env: &[(&str, &str)], stderr: Stdio) -> Daemon {
        let dir = std::env::temp_dir().join("omplt-daemon-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join(format!("{tag}-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_ompltd"));
        cmd.arg(format!("--listen={}", socket.display()))
            .args(extra_args)
            .env_remove("OMP_SCHEDULE")
            .stderr(stderr);
        for (k, v) in env {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().expect("spawn ompltd");
        // Ready is a connect that succeeds: the socket file appears at
        // bind(2), before listen(2). The probe connection closes unused,
        // which the daemon drops without a reply or a counter.
        let mut refused = None;
        for _ in 0..400 {
            match UnixStream::connect(&socket) {
                Ok(_) => return Daemon { child, socket },
                Err(e) => refused = Some(e),
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        let _ = child.kill();
        let _ = child.wait();
        panic!(
            "ompltd never accepted a connection on {}: {refused:?}",
            socket.display()
        );
    }

    fn remote_flag(&self) -> String {
        format!("--remote={}", self.socket.display())
    }

    /// Sends one request frame on a fresh connection and returns the reply
    /// body.
    fn request(&self, body: &str) -> String {
        let mut s = UnixStream::connect(&self.socket).expect("connect");
        write_frame(&mut s, body.as_bytes()).unwrap();
        let reply = read_frame(&mut s)
            .expect("read reply")
            .expect("reply frame");
        String::from_utf8(reply).unwrap()
    }

    /// Reads one `daemon.cache.*` counter out of a `stats` reply.
    fn cache_counter(&self, name: &str) -> u64 {
        let stats = self.request(&Request::Stats.render());
        let needle = format!("\"{name}\":");
        let at = stats
            .find(&needle)
            .unwrap_or_else(|| panic!("{name} missing from stats reply: {stats}"));
        let rest = &stats[at + needle.len()..];
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        rest[..end].parse().unwrap()
    }

    fn health(&self) -> HealthReport {
        HealthReport::parse(&self.request(&Request::Health.render())).expect("health report")
    }

    /// Polls `health` until `n` jobs are running on the pool.
    fn wait_until_running(&self, n: u64) {
        for _ in 0..400 {
            if self.health().running == n {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("{n} job(s) never started running");
    }

    /// Waits (bounded) for the daemon process to exit by itself.
    fn wait_exit(&mut self) -> ExitStatus {
        for _ in 0..200 {
            if let Ok(Some(status)) = self.child.try_wait() {
                return status;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        panic!("ompltd did not exit");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(mut s) = UnixStream::connect(&self.socket) {
            let _ = write_frame(&mut s, Request::Shutdown.render().as_bytes());
            let _ = read_frame(&mut s);
        }
        for _ in 0..200 {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Capture {
    code: i32,
    stdout: Vec<u8>,
    stderr: Vec<u8>,
}

fn run_ompltc(envs: &[(&str, &str)], args: &[&str], file: &Path) -> Capture {
    let mut cmd = ompltc();
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.args(args).arg(file).output().expect("run ompltc");
    Capture {
        code: out.status.code().expect("exit code"),
        stdout: out.stdout,
        stderr: out.stderr,
    }
}

/// The differential oracle: the same invocation locally and via `--remote`
/// must agree on every observable byte.
fn assert_remote_matches_local(
    daemon: &Daemon,
    envs: &[(&str, &str)],
    args: &[&str],
    file: &Path,
    label: &str,
) -> Capture {
    let local = run_ompltc(envs, args, file);
    let remote_flag = daemon.remote_flag();
    let mut remote_args = vec![remote_flag.as_str()];
    remote_args.extend_from_slice(args);
    let remote = run_ompltc(envs, &remote_args, file);
    assert_eq!(local.code, remote.code, "[{label}] exit code");
    assert_eq!(
        String::from_utf8_lossy(&local.stdout),
        String::from_utf8_lossy(&remote.stdout),
        "[{label}] stdout"
    );
    assert_eq!(
        String::from_utf8_lossy(&local.stderr),
        String::from_utf8_lossy(&remote.stderr),
        "[{label}] stderr"
    );
    remote
}

const DEMO: &str = "void print_i64(long v);\n\
    long data[64];\n\
    int main(void) {\n\
      #pragma omp parallel for schedule(static) num_threads(2)\n\
      for (int i = 0; i < 64; i += 1)\n\
        data[i] = i * 3;\n\
      long sum = 0;\n\
      for (int k = 0; k < 64; k += 1)\n\
        sum += data[k];\n\
      print_i64(sum);\n\
      return 0;\n\
    }\n";

const SCHED_RUNTIME: &str = "void print_i64(long v);\n\
    int main(void) {\n\
      #pragma omp parallel num_threads(4)\n\
      {\n\
        #pragma omp for schedule(runtime)\n\
        for (int i = 0; i < 9; i += 1)\n\
          print_i64(i);\n\
      }\n\
      return 0;\n\
    }\n";

#[test]
fn remote_matches_local_for_every_example() {
    let daemon = Daemon::start("examples");
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/c");
    let mut ran = 0;
    for entry in std::fs::read_dir(&dir).expect("examples/c exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("c") {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        for (leg, args) in [
            ("run", &["--run"][..]),
            ("opt-vm", &["--opt", "--run", "--backend=vm"][..]),
        ] {
            assert_remote_matches_local(&daemon, &[], args, &path, &format!("{name}/{leg}"));
        }
        ran += 1;
    }
    assert!(ran >= 3, "expected the full example corpus, ran {ran}");
}

#[test]
fn remote_matches_local_for_diagnostics_in_both_formats() {
    let daemon = Daemon::start("diags");
    let bad = write_temp("diag.c", "int main(void) {\n  return undeclared_name;\n}\n");
    let text = assert_remote_matches_local(&daemon, &[], &[], &bad, "diag/text");
    assert_eq!(text.code, 1);
    assert!(
        String::from_utf8_lossy(&text.stderr).contains("error"),
        "diagnostic expected"
    );
    let json =
        assert_remote_matches_local(&daemon, &[], &["--diag-format=json"], &bad, "diag/json");
    assert_eq!(json.code, 1);
    assert!(
        String::from_utf8_lossy(&json.stderr).contains("\"level\":\"error\""),
        "JSON diagnostic expected"
    );

    // A runtime entry called with too few arguments is the user program's
    // error (exit 1) on every engine, format and transport — it used to be
    // an index panic inside the runtime (exit 3). The short call needs a
    // prototype that is not the entry's row, which the compile refuses; the
    // runtime's own arity rule is held by `tests/runtime_abi.rs` on IR.
    let short = write_temp(
        "short-call.c",
        "void __omplt_atomic_add_i64(void);\nint main(void) {\n  __omplt_atomic_add_i64();\n  return 0;\n}\n",
    );
    for backend in ["--backend=interp", "--backend=vm:strict"] {
        for format in ["--diag-format=text", "--diag-format=json"] {
            let label = format!("short call/{backend}/{format}");
            let out = assert_remote_matches_local(
                &daemon,
                &[],
                &["--run", backend, format],
                &short,
                &label,
            );
            assert_eq!(out.code, 1, "[{label}]");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let what = "conflicting types for '__omplt_atomic_add_i64'";
            assert!(stderr.contains(what), "[{label}] {stderr}");
        }
    }
}

#[test]
fn warm_hits_skip_the_front_end_and_reordered_flags_still_hit() {
    let daemon = Daemon::start("cacheprops");
    let src = write_temp("cache-a.c", DEMO);
    let remote = daemon.remote_flag();

    let cold = run_ompltc(&[], &[&remote, "--opt", "--run", "--counters-json"], &src);
    assert_eq!(cold.code, 0, "{}", String::from_utf8_lossy(&cold.stderr));
    assert!(
        String::from_utf8_lossy(&cold.stdout).contains("sema."),
        "cold job runs the front end"
    );
    assert_eq!(daemon.cache_counter("daemon.cache.misses"), 1);
    assert_eq!(daemon.cache_counter("daemon.cache.hits"), 0);

    // Same flags spelled in a different order: the options fingerprint is
    // canonical, so this must hit.
    let warm = run_ompltc(&[], &["--run", &remote, "--counters-json", "--opt"], &src);
    assert_eq!(warm.code, 0);
    assert!(
        !String::from_utf8_lossy(&warm.stdout).contains("sema."),
        "warm hit must not re-run lex/parse/sema:\n{}",
        String::from_utf8_lossy(&warm.stdout)
    );
    assert_eq!(daemon.cache_counter("daemon.cache.hits"), 1);
    assert_eq!(daemon.cache_counter("daemon.cache.misses"), 1);

    // Runtime-only flags (thread count, serial execution) are not part of
    // the compiled artifact, so they must not defeat the cache either.
    let serial = run_ompltc(&[], &[&remote, "--opt", "--run", "--serial"], &src);
    assert_eq!(serial.code, 0);
    assert_eq!(daemon.cache_counter("daemon.cache.hits"), 2);
    assert_eq!(daemon.cache_counter("daemon.cache.misses"), 1);

    // Mutating a single token of the source must miss.
    let mutated = write_temp("cache-b.c", &DEMO.replace("i * 3", "i * 4"));
    let miss = run_ompltc(&[], &[&remote, "--opt", "--run"], &mutated);
    assert_eq!(miss.code, 0);
    assert_eq!(daemon.cache_counter("daemon.cache.misses"), 2);

    // And a compile-relevant flag change (optimization pipeline) must miss.
    let unopt = run_ompltc(&[], &[&remote, "--run"], &src);
    assert_eq!(unopt.code, 0);
    assert_eq!(daemon.cache_counter("daemon.cache.misses"), 3);
    assert_eq!(daemon.cache_counter("daemon.cache.hits"), 2);
}

#[test]
fn daemon_environment_never_leaks_into_jobs() {
    // The daemon itself is started with a malformed OMP_SCHEDULE. If any
    // job resolved the schedule from the *server's* environment, the
    // malformed-value warning would appear in the reply.
    let daemon = Daemon::start_with("schedenv", &[], &[("OMP_SCHEDULE", "bogus")]);
    let src = write_temp("sched.c", SCHED_RUNTIME);

    // Client env unset: no warning, output identical to a local run.
    let clean = assert_remote_matches_local(
        &daemon,
        &[],
        &["--run", "--serial"],
        &src,
        "sched/clean-env",
    );
    assert_eq!(clean.code, 0);
    assert!(
        !String::from_utf8_lossy(&clean.stderr).contains("OMP_SCHEDULE"),
        "daemon's OMP_SCHEDULE leaked into the job:\n{}",
        String::from_utf8_lossy(&clean.stderr)
    );

    // Client env malformed: the warning is resolved client-side and must be
    // byte-identical to the local driver's.
    let warned = assert_remote_matches_local(
        &daemon,
        &[("OMP_SCHEDULE", "bogus")],
        &["--run", "--serial"],
        &src,
        "sched/malformed-env",
    );
    assert!(
        String::from_utf8_lossy(&warned.stderr).contains("malformed OMP_SCHEDULE"),
        "client's OMP_SCHEDULE must be honored:\n{}",
        String::from_utf8_lossy(&warned.stderr)
    );

    // Client env valid: schedule behaviour itself travels with the job.
    assert_remote_matches_local(
        &daemon,
        &[("OMP_SCHEDULE", "static,3")],
        &["--run", "--serial"],
        &src,
        "sched/valid-env",
    );
}

#[test]
fn malformed_frames_get_error_replies_and_the_server_survives() {
    let daemon = Daemon::start("malformed");

    // Valid frame, invalid JSON payload.
    let reply = daemon.request("this is not json");
    assert!(reply.contains("\"error\""), "{reply}");
    // Valid JSON that is no request, and a payload that is not UTF-8.
    for bad in [&b"{}"[..], b"[1,2,3]", b"\xff\xfe\x00"] {
        let mut s = UnixStream::connect(&daemon.socket).unwrap();
        write_frame(&mut s, bad).unwrap();
        let reply = read_frame(&mut s).expect("reply").expect("reply frame");
        let reply = String::from_utf8(reply).unwrap();
        assert!(reply.starts_with("{\"id\":null,\"error\":"), "{reply}");
    }

    // Length prefix larger than the frame cap: rejected before allocation.
    {
        let mut s = UnixStream::connect(&daemon.socket).unwrap();
        s.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let reply = read_frame(&mut s).expect("reply").expect("reply frame");
        let reply = String::from_utf8(reply).unwrap();
        assert!(reply.contains("exceeds"), "{reply}");
    }

    // Truncated prefix: two bytes then EOF.
    {
        let mut s = UnixStream::connect(&daemon.socket).unwrap();
        s.write_all(&[0x01, 0x02]).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let reply = read_frame(&mut s).expect("reply").expect("reply frame");
        let reply = String::from_utf8(reply).unwrap();
        assert!(reply.contains("truncated"), "{reply}");
    }

    // Truncated body: the prefix promises more bytes than arrive.
    {
        let mut s = UnixStream::connect(&daemon.socket).unwrap();
        s.write_all(&100u32.to_le_bytes()).unwrap();
        s.write_all(b"{short}").unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let reply = read_frame(&mut s).expect("reply").expect("reply frame");
        let reply = String::from_utf8(reply).unwrap();
        assert!(reply.contains("truncated"), "{reply}");
    }

    // After all of that abuse the server still compiles and runs jobs.
    let src = write_temp("after-abuse.c", DEMO);
    let ok = run_ompltc(&[], &[&daemon.remote_flag(), "--run"], &src);
    assert_eq!(ok.code, 0, "{}", String::from_utf8_lossy(&ok.stderr));
    assert_eq!(String::from_utf8_lossy(&ok.stdout), "6048\n");
}

#[test]
fn concurrent_fault_jobs_each_name_their_own_stage() {
    let daemon = Daemon::start_with("faults", &["--workers=4"], &[]);
    let src = write_temp("fault.c", DEMO);

    // A remote ICE renders byte-identically to a local one (the structured
    // stage/message travel in the reply, the client does the rendering).
    let ice = assert_remote_matches_local(
        &daemon,
        &[],
        &["--run", "--inject-fault=parse.panic"],
        &src,
        "fault/differential",
    );
    assert_eq!(ice.code, 3);

    // Two clients injecting faults into different stages, concurrently and
    // repeatedly: each reply must name its own stage, never the peer's.
    // This is the regression test for the old single-slot panic capture.
    let remote = daemon.remote_flag();
    std::thread::scope(|scope| {
        for (site, stage, other) in [
            ("parse.panic", "parse", "codegen"),
            ("codegen.panic", "codegen", "parse"),
        ] {
            let remote = remote.clone();
            let src = src.clone();
            scope.spawn(move || {
                for _ in 0..4 {
                    let fault = format!("--inject-fault={site}");
                    let out = run_ompltc(&[], &[&remote, "--run", &fault], &src);
                    assert_eq!(out.code, 3);
                    let stderr = String::from_utf8_lossy(&out.stderr);
                    assert!(
                        stderr.contains(&format!("internal compiler error in stage '{stage}'")),
                        "[{site}] {stderr}"
                    );
                    assert!(
                        !stderr.contains(&format!("stage '{other}'")),
                        "[{site}] captured the peer's panic: {stderr}"
                    );
                }
            });
        }
    });

    // The poisoned jobs were contained per-job: the server still serves.
    let ok = run_ompltc(&[], &[&remote, "--run"], &src);
    assert_eq!(ok.code, 0, "{}", String::from_utf8_lossy(&ok.stderr));
}

#[test]
fn counters_json_is_identical_solo_and_under_load() {
    let daemon = Daemon::start_with("busy", &["--workers=4"], &[]);
    let remote = daemon.remote_flag();
    let x = write_temp("busy-x.c", DEMO);
    let y = write_temp("busy-y.c", &DEMO.replace("i * 3", "i * 5"));

    // Warm the measured job so both captures replay a cache hit and report
    // runtime-only counters (deterministic under --serial).
    let warm = run_ompltc(&[], &[&remote, "--run", "--serial"], &x);
    assert_eq!(warm.code, 0, "{}", String::from_utf8_lossy(&warm.stderr));
    let args = [remote.as_str(), "--run", "--serial", "--counters-json"];
    let solo = run_ompltc(&[], &args, &x);
    assert_eq!(solo.code, 0);

    // Saturate the pool with unrelated jobs, then re-measure. Trace
    // sessions are attached per job, so the neighbors' counters must not
    // bleed into this reply.
    let mut load: Vec<Child> = (0..6)
        .map(|_| {
            ompltc()
                .arg(&remote)
                .arg("--run")
                .arg(&y)
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()
                .unwrap()
        })
        .collect();
    let busy = run_ompltc(&[], &args, &x);
    for child in load.drain(..) {
        let out = child.wait_with_output().expect("wait for load child");
        assert!(
            out.status.success(),
            "load child failed ({:?}): {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert_eq!(busy.code, 0);
    assert_eq!(
        String::from_utf8_lossy(&solo.stdout),
        String::from_utf8_lossy(&busy.stdout),
        "counters must be identical solo vs busy pool"
    );
    assert_eq!(
        String::from_utf8_lossy(&solo.stderr),
        String::from_utf8_lossy(&busy.stderr)
    );
}

#[test]
fn fuel_exhaustion_is_a_structured_reply_and_the_server_keeps_serving() {
    let daemon = Daemon::start("fuel");
    let src = write_temp("fuel.c", DEMO);
    let starved = assert_remote_matches_local(
        &daemon,
        &[],
        &["--run", "--fuel=10"],
        &src,
        "fuel/differential",
    );
    assert_eq!(starved.code, 1);
    assert!(
        String::from_utf8_lossy(&starved.stderr).contains("runtime error"),
        "{}",
        String::from_utf8_lossy(&starved.stderr)
    );
    // A team whose every thread spins: the budget is one counter, and the
    // thread that exhausts it must not leave the others refuelled forever
    // (they were — the job hung its worker). `--exec-timeout` is the net.
    let spin = write_temp(
        "spinning_team.c",
        "long s;\n\
         int main(void) {\n\
           #pragma omp parallel\n\
           {\n\
             long t = 0;\n\
             for (long i = 0; i >= 0; i += 0)\n\
               t = t + 1;\n\
             s = t;\n\
           }\n\
           return 0;\n\
         }\n",
    );
    for backend in ["--backend=interp", "--backend=vm", "--backend=vm:strict"] {
        let args = [
            "--run",
            "--fuel=2000000",
            "--exec-timeout=20000",
            "--threads=4",
            backend,
        ];
        let spun = assert_remote_matches_local(&daemon, &[], &args, &spin, "fuel/team");
        assert_eq!(spun.code, 1);
        assert!(
            String::from_utf8_lossy(&spun.stderr).contains("step budget exhausted"),
            "{backend}: {}",
            String::from_utf8_lossy(&spun.stderr)
        );
    }
    let ok = run_ompltc(&[], &[&daemon.remote_flag(), "--run"], &src);
    assert_eq!(ok.code, 0, "{}", String::from_utf8_lossy(&ok.stderr));
}

/// `unroll partial(2147483647)` once asked the mid end for two billion
/// copies of the body: the allocation aborted the process, and a remote job
/// took `ompltd` down with it. The factor is capped now, so the job is
/// answered like any other and the server serves the next one.
#[test]
fn a_huge_unroll_factor_is_answered_and_the_server_keeps_serving() {
    let daemon = Daemon::start("hugefactor");
    let src = write_temp(
        "huge_factor.c",
        "void print_i64(long v);\n\
         long f(int n) {\n\
           long s = 0;\n\
           #pragma omp unroll partial(2147483647)\n\
           for (int i = 0; i < n; i++)\n\
             s += i * i + 3;\n\
           return s;\n\
         }\n\
         int main(void) {\n\
           print_i64(f(1000));\n\
           return 0;\n\
         }\n",
    );
    for backend in ["--backend=interp", "--backend=vm:strict"] {
        let args = ["--opt", "--run", backend];
        let job = assert_remote_matches_local(&daemon, &[], &args, &src, "hugefactor");
        assert_eq!(job.code, 0, "{}", String::from_utf8_lossy(&job.stderr));
        assert_eq!(job.stdout, b"332836500\n", "{backend}");
    }
    let next = write_temp("hugefactor_next.c", DEMO);
    let ok = run_ompltc(&[], &[&daemon.remote_flag(), "--run"], &next);
    assert_eq!(ok.code, 0, "{}", String::from_utf8_lossy(&ok.stderr));
}

#[test]
fn verifier_rejection_degrades_the_same_way_local_and_remote() {
    // Bytecode is compiled exactly once per job, so the one-shot
    // `vm.verify.reject` fault lands on the compile whose outcome the run
    // consumes: `vm` falls back to the interpreter with a warning,
    // `vm:strict` fails — in the daemon exactly as in-process.
    let daemon = Daemon::start("verifyreject");
    let src = write_temp("verifyreject.c", DEMO);
    let fallback = assert_remote_matches_local(
        &daemon,
        &[],
        &["--run", "--backend=vm", "--inject-fault=vm.verify.reject"],
        &src,
        "verify-reject/vm",
    );
    assert_eq!(fallback.code, 0);
    assert_eq!(String::from_utf8_lossy(&fallback.stdout), "6048\n");
    assert!(
        String::from_utf8_lossy(&fallback.stderr).contains("falling back to the interpreter"),
        "{}",
        String::from_utf8_lossy(&fallback.stderr)
    );
    let strict = assert_remote_matches_local(
        &daemon,
        &[],
        &[
            "--run",
            "--backend=vm:strict",
            "--inject-fault=vm.verify.reject",
        ],
        &src,
        "verify-reject/vm:strict",
    );
    assert_eq!(strict.code, 1);
    assert!(strict.stdout.is_empty(), "program must not run");
}

#[test]
fn remote_rejects_local_only_modes() {
    let daemon = Daemon::start("reject");
    let src = write_temp("reject.c", DEMO);
    let out = run_ompltc(&[], &[&daemon.remote_flag(), "--analyze"], &src);
    assert_eq!(out.code, 2);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--remote"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn chunk_logs_replay_identically_across_miss_and_hit() {
    // `log_chunks` has no CLI flag, so this leg exercises the service
    // library directly: a cache hit must replay the exact chunk dispatch of
    // the original compile.
    let service = omplt::Service::new(omplt::cache::DEFAULT_CACHE_BYTES);
    let mut job = JobRequest::new(1, "chunks.c", DEMO);
    job.run = true;
    job.optimize = true;
    job.opts.serial = true;
    job.opts.log_chunks = true;
    let cold = service.execute(&job);
    assert_eq!(cold.exit_code, 0, "{}", cold.stderr);
    assert_eq!(cold.cache, CacheOutcome::Miss);
    let log = cold.chunk_log.as_deref().expect("chunk log requested");
    assert!(log.contains(".."), "chunk records expected, got: {log:?}");

    job.id = 2;
    let warm = service.execute(&job);
    assert_eq!(warm.cache, CacheOutcome::Hit);
    assert_eq!(warm.exit_code, cold.exit_code);
    assert_eq!(warm.stdout, cold.stdout);
    assert_eq!(warm.stderr, cold.stderr);
    assert_eq!(warm.chunk_log, cold.chunk_log, "chunk logs must replay");
}

#[test]
fn stdio_transport_serves_the_same_protocol() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ompltd"))
        .arg("--stdio")
        .arg("--workers=1")
        .env_remove("OMP_SCHEDULE")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ompltd --stdio");
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = child.stdout.take().unwrap();

    let mut job = JobRequest::new(7, "stdio.c", DEMO);
    job.run = true;
    write_frame(&mut stdin, job.render().as_bytes()).unwrap();
    let reply = read_frame(&mut stdout).expect("reply").expect("frame");
    let resp = omplt::protocol::JobResponse::parse(&String::from_utf8(reply).unwrap())
        .expect("job response");
    assert_eq!(resp.id, 7);
    assert_eq!(resp.exit_code, 0, "{}", resp.stderr);
    assert_eq!(resp.stdout, "6048\n");

    write_frame(&mut stdin, Request::Shutdown.render().as_bytes()).unwrap();
    let reply = read_frame(&mut stdout).expect("reply").expect("frame");
    assert!(String::from_utf8(reply).unwrap().contains("\"ok\":true"));
    drop(stdin);
    let status = child.wait().unwrap();
    assert!(status.success());
}

#[test]
fn health_reports_transport_and_supervisor_state() {
    let daemon = Daemon::start_with("health", &["--workers=2", "--queue-depth=7"], &[]);
    let reply = daemon.request(&Request::Health.render());
    let health = omplt::protocol::HealthReport::parse(&reply).expect("health report");
    assert_eq!(health.workers_configured, 2);
    assert_eq!(health.workers_alive, 2);
    assert_eq!(health.queue_capacity, 7);
    assert_eq!(health.queue_depth, 0);
    assert_eq!(health.running, 0);
    assert!(!health.draining);
    assert_eq!(health.respawns, 0);
    assert!(
        health.cache.iter().any(|(k, _)| k == "daemon.cache.hits"),
        "cache counters travel in the health reply: {reply}"
    );
    assert_eq!(health.queue_wait_us.count, 0);
    assert_eq!(health.execute_us.count, 0);

    // Every answered job is timed once per stage, before its reply is
    // written: a `health` sent after the replies counts all of them.
    const N: u64 = 3;
    for id in 0..N {
        let mut job = JobRequest::new(id, "health.c", DEMO);
        job.run = true;
        let resp = JobResponse::parse(&daemon.request(&job.render())).expect("job reply");
        assert_eq!(resp.exit_code, 0, "{}", resp.stderr);
    }
    let health = daemon.health();
    for (stage, s) in [
        ("queue_wait_us", health.queue_wait_us),
        ("execute_us", health.execute_us),
    ] {
        assert_eq!(s.count, N, "{stage}: {s:?}");
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99, "{stage}: {s:?}");
    }
}

#[test]
fn killed_worker_is_respawned_and_the_job_requeued_once() {
    let daemon = Daemon::start_with("workerkill", &["--workers=2"], &[]);
    let src = write_temp("kill.c", DEMO);

    // One injected kill: the supervisor respawns the worker and requeues
    // the job, whose retry must be byte-identical to a local run.
    let out = assert_remote_matches_local(
        &daemon,
        &[],
        &["--run", "--backend=vm", "--inject-fault=daemon.worker-kill"],
        &src,
        "kill/requeued",
    );
    assert_eq!(out.code, 0);
    // The killed attempt never reached the cache; the retry compiled once.
    assert_eq!(daemon.cache_counter("daemon.cache.misses"), 1);

    // Two kills on the same job: requeued at most once, then abandoned
    // with a structured error — never a hang, never a third attempt.
    let dead = run_ompltc(
        &[],
        &[
            &daemon.remote_flag(),
            "--run",
            "--backend=vm",
            "--inject-fault=daemon.worker-kill:2",
            "--remote-retries=0",
        ],
        &src,
    );
    assert_eq!(dead.code, 2);
    assert!(
        String::from_utf8_lossy(&dead.stderr).contains("job abandoned"),
        "{}",
        String::from_utf8_lossy(&dead.stderr)
    );

    // The pool healed: the next job is served normally — from the artifact
    // the requeued job cached (the abandoned one never touched the cache).
    let ok = run_ompltc(&[], &[&daemon.remote_flag(), "--run", "--backend=vm"], &src);
    assert_eq!(ok.code, 0, "{}", String::from_utf8_lossy(&ok.stderr));
    assert_eq!(daemon.cache_counter("daemon.cache.misses"), 1);
    assert_eq!(daemon.cache_counter("daemon.cache.hits"), 1);

    let reply = daemon.request(&Request::Health.render());
    let health = omplt::protocol::HealthReport::parse(&reply).expect("health report");
    assert_eq!(health.respawns, 3, "1 requeue kill + 2 abandon kills");
    assert_eq!(health.requeued, 2);
    assert_eq!(health.abandoned, 1);
    assert_eq!(health.workers_alive, 2, "every killed worker was replaced");
}

#[test]
fn overload_shed_is_retried_and_surfaces_only_after_exhaustion() {
    // The daemon sheds the first admission as if the queue were full. A
    // retrying client absorbs the shed invisibly...
    let daemon = Daemon::start_with(
        "overload",
        &["--workers=2", "--inject-fault=daemon.queue-full:1"],
        &[],
    );
    let src = write_temp("overload.c", DEMO);
    let ok = run_ompltc(
        &[],
        &[&daemon.remote_flag(), "--run", "--remote-backoff-ms=10"],
        &src,
    );
    assert_eq!(ok.code, 0, "{}", String::from_utf8_lossy(&ok.stderr));

    // ...and a client with retries disabled sees the structured error.
    let daemon2 = Daemon::start_with(
        "overload0",
        &["--workers=2", "--inject-fault=daemon.queue-full:1"],
        &[],
    );
    let shed = run_ompltc(
        &[],
        &[&daemon2.remote_flag(), "--run", "--remote-retries=0"],
        &src,
    );
    assert_eq!(shed.code, 2);
    let stderr = String::from_utf8_lossy(&shed.stderr);
    assert!(
        stderr.contains("ompltd is overloaded") && stderr.contains("retry after"),
        "{stderr}"
    );
}

#[test]
fn client_retries_span_a_daemon_restart() {
    // The client starts with no daemon listening and must survive on its
    // retry budget until the daemon comes up.
    let dir = std::env::temp_dir().join("omplt-daemon-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join(format!("restart-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let src = write_temp("restart.c", DEMO);
    let client = ompltc()
        .arg(format!("--remote={}", socket.display()))
        .arg("--remote-retries=40")
        .arg("--remote-backoff-ms=50")
        .arg("--run")
        .arg(&src)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn retrying client");
    std::thread::sleep(Duration::from_millis(300));
    // `Daemon::start_with` derives exactly this socket path from the tag.
    let daemon = Daemon::start_with("restart", &[], &[]);
    assert_eq!(daemon.socket, socket);
    let out = client.wait_with_output().expect("client exits");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout), "6048\n");
}

#[test]
fn frame_stall_is_shed_by_the_daemon_and_absorbed_by_client_retry() {
    // The client injects its own slowloris (prefix, 750 ms stall, body)
    // against a 200 ms frame timeout. The daemon sheds the stalled frame
    // with an error reply; the client's retry — without the stall — must
    // end byte-identical to a local run.
    let daemon = Daemon::start_with("stall", &["--frame-timeout-ms=200"], &[]);
    let src = write_temp("stall.c", DEMO);
    let out = assert_remote_matches_local(
        &daemon,
        &[],
        &["--run", "--inject-fault=daemon.frame-stall"],
        &src,
        "stall/retried",
    );
    assert_eq!(out.code, 0);
}

#[test]
fn corrupted_cache_entry_is_quarantined_and_recompiled() {
    let daemon = Daemon::start("integrity");
    let src = write_temp("integrity.c", DEMO);
    let remote = daemon.remote_flag();
    // Only the VM backend caches a bytecode image; corruption of an
    // interp-backed entry would be invisible.
    let args = ["--run", "--backend=vm"];

    let cold = run_ompltc(&[], &[&remote, args[0], args[1]], &src);
    assert_eq!(cold.code, 0, "{}", String::from_utf8_lossy(&cold.stderr));
    assert_eq!(daemon.cache_counter("daemon.cache.misses"), 1);

    // `daemon.cache-corrupt` flips a byte in the cached artifact right
    // before this job's lookup: the checksum catches it, the entry is
    // quarantined, and the job recompiles — with correct output.
    let poisoned = run_ompltc(
        &[],
        &[
            &remote,
            args[0],
            args[1],
            "--inject-fault=daemon.cache-corrupt",
        ],
        &src,
    );
    assert_eq!(poisoned.code, 0);
    assert_eq!(
        String::from_utf8_lossy(&poisoned.stdout),
        String::from_utf8_lossy(&cold.stdout),
        "recompiled job must not serve corrupted bytecode"
    );
    assert_eq!(daemon.cache_counter("daemon.cache.integrity_failures"), 1);
    assert_eq!(daemon.cache_counter("daemon.cache.misses"), 2);

    // The recompiled artifact is healthy and serves hits again.
    let warm = run_ompltc(&[], &[&remote, args[0], args[1]], &src);
    assert_eq!(warm.code, 0);
    assert_eq!(daemon.cache_counter("daemon.cache.hits"), 1);
}

#[test]
fn sigterm_drains_queued_jobs_and_exits_zero() {
    let mut daemon = Daemon::start_with("drain", &["--workers=2"], &[]);
    let src = write_temp("drain.c", DEMO);

    // Keep the pool busy so the drain window actually has work to finish.
    let clients: Vec<Child> = (0..6)
        .map(|_| {
            ompltc()
                .arg(daemon.remote_flag())
                .arg("--run")
                .arg(&src)
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .unwrap()
        })
        .collect();
    std::thread::sleep(Duration::from_millis(150));
    let term = Command::new("kill")
        .arg("-TERM")
        .arg(daemon.child.id().to_string())
        .status()
        .expect("send SIGTERM");
    assert!(term.success());

    // Every job accepted before the signal still gets its reply. (Clients
    // racing the signal may be refused and retry against a gone daemon;
    // those exit 2 with the connect error — but none may hang or crash.)
    let mut served = 0;
    for client in clients {
        let out = client.wait_with_output().expect("client exits");
        match out.status.code() {
            Some(0) => {
                assert_eq!(String::from_utf8_lossy(&out.stdout), "6048\n");
                served += 1;
            }
            Some(2) => {}
            code => panic!("unexpected client exit {code:?}"),
        }
    }
    assert!(served >= 1, "drain must finish accepted jobs");

    // And the daemon itself exits 0 within the drain window.
    let mut status = None;
    for _ in 0..200 {
        if let Ok(Some(s)) = daemon.child.try_wait() {
            status = Some(s);
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let status = status.expect("daemon exits within the drain window");
    assert!(status.success(), "drain must exit 0, got {status:?}");
}

/// The drain tests' long job: `while (x) { x = 1; }` on the interpreter
/// never ends by itself, so the job runs exactly as long as its own
/// 1000 ms deadline lets it — about a second in a debug or a release build
/// alike — and is then answered with the deadline error, like any job that
/// ran to its end.
fn one_second_job(id: u64) -> JobRequest {
    let src = "int main(void) { int x = 1; while (x) { x = 1; } return 0; }\n";
    let mut job = JobRequest::new(id, "one-second.c", src);
    job.opts.backend = omplt::Backend::Interp;
    job.opts.deadline_ms = Some(1000);
    job.run = true;
    job
}

/// Submits `job` on its own connection from a thread; the thread yields the
/// reply, or `None` if the daemon closed the connection without one.
fn submit_in_background(
    daemon: &Daemon,
    job: JobRequest,
) -> std::thread::JoinHandle<Option<String>> {
    let socket = daemon.socket.clone();
    std::thread::spawn(move || {
        let mut s = UnixStream::connect(&socket).expect("connect");
        write_frame(&mut s, job.render().as_bytes()).unwrap();
        let reply = read_frame(&mut s).ok().flatten()?;
        Some(String::from_utf8(reply).unwrap())
    })
}

#[test]
fn shutdown_mid_job_refuses_new_connections_and_still_answers_the_job() {
    let mut daemon = Daemon::start_with("drainjob", &["--workers=1"], &[]);
    let running = submit_in_background(&daemon, one_second_job(41));
    daemon.wait_until_running(1);
    assert_eq!(daemon.request(&Request::Shutdown.render()), "{\"ok\":true}");

    // The daemon drains from the acknowledgement on: the drain loop answers
    // a new connection with a refusal before it has sent a byte.
    let mut late = UnixStream::connect(&daemon.socket).expect("listener open while draining");
    let refusal = read_frame(&mut late).expect("read").expect("refusal frame");
    let refusal = String::from_utf8(refusal).unwrap();
    assert!(
        refusal.starts_with("{\"id\":null,\"overloaded\":{\"retry_after_ms\":100,"),
        "{refusal}"
    );

    let reply = running
        .join()
        .unwrap()
        .expect("the running job is answered");
    let resp = JobResponse::parse(&reply).expect("a job reply");
    assert_eq!(resp.id, 41);
    assert_eq!(resp.exit_code, 1, "{}", resp.stderr);
    assert!(
        resp.stderr
            .contains("wall-clock deadline of 1000 ms exceeded"),
        "{}",
        resp.stderr
    );
    let status = daemon.wait_exit();
    assert!(status.success(), "a finished drain exits 0, got {status:?}");
}

#[test]
fn a_drain_that_outlives_drain_ms_exits_one_and_removes_the_socket() {
    let args = ["--workers=1", "--drain-ms=50"];
    let mut daemon = Daemon::spawn("drainlate", &args, &[], Stdio::piped());
    let running = submit_in_background(&daemon, one_second_job(42));
    daemon.wait_until_running(1);
    assert_eq!(daemon.request(&Request::Shutdown.render()), "{\"ok\":true}");

    let status = daemon.wait_exit();
    assert_eq!(status.code(), Some(1), "{status:?}");
    let mut stderr = String::new();
    let pipe = daemon.child.stderr.as_mut().unwrap();
    pipe.read_to_string(&mut stderr).unwrap();
    assert!(
        stderr.contains("drain deadline (50 ms) exceeded"),
        "{stderr}"
    );
    assert!(!daemon.socket.exists(), "the socket file is removed");
    // The job died with the daemon; its client saw the connection close.
    assert_eq!(running.join().unwrap(), None);
}

#[test]
fn the_daemon_sleeps_on_nothing() {
    // The accept and drain loops block in `poll(2)` on the listener and a
    // wake pipe; a timed wakeup anywhere in the daemon would be a latency
    // floor under every `ompltc --remote` call.
    let ompltd = scan::shipped_sources()
        .into_iter()
        .find(|p| p.ends_with("src/bin/ompltd.rs"))
        .expect("ompltd.rs is a shipped source");
    let text = scan::shipped_text(&ompltd);
    assert!(!text.contains("sleep("), "src/bin/ompltd.rs spells sleep(");
}

/// The soak: 8 concurrent clients, each cycling through a mixed workload —
/// warm hits, cold misses, injected ICEs, worker kills, and raw oversized
/// frames — for 200+ jobs total. Every accepted job gets exactly one reply,
/// byte-identical to the same invocation against the in-process driver.
#[test]
fn soak_mixed_workload_under_eight_concurrent_clients() {
    let daemon = Daemon::start_with("soak", &["--workers=4"], &[]);
    let src = write_temp("soak.c", DEMO);

    // Expected captures, one per job shape, from local (in-process) runs.
    let hit_args = ["--run", "--backend=vm"];
    let ice_args = ["--run", "--inject-fault=parse.panic"];
    let kill_args = ["--run", "--backend=vm", "--inject-fault=daemon.worker-kill"];
    let expect_hit = run_ompltc(&[], &hit_args, &src);
    let expect_ice = run_ompltc(&[], &ice_args, &src);
    assert_eq!(expect_hit.code, 0);
    assert_eq!(expect_ice.code, 3);

    let remote = daemon.remote_flag();
    let check = |label: String, got: &Capture, want: &Capture| {
        assert_eq!(got.code, want.code, "[{label}] exit code");
        assert_eq!(
            String::from_utf8_lossy(&got.stdout),
            String::from_utf8_lossy(&want.stdout),
            "[{label}] stdout"
        );
        assert_eq!(
            String::from_utf8_lossy(&got.stderr),
            String::from_utf8_lossy(&want.stderr),
            "[{label}] stderr"
        );
    };

    const CLIENTS: usize = 8;
    const JOBS_PER_CLIENT: usize = 26; // 8 × 26 = 208 jobs
    let socket: &Path = &daemon.socket;
    std::thread::scope(|scope| {
        for t in 0..CLIENTS {
            let remote = remote.clone();
            let src = src.clone();
            let (expect_hit, expect_ice) = (&expect_hit, &expect_ice);
            let check = &check;
            scope.spawn(move || {
                for i in 0..JOBS_PER_CLIENT {
                    let label = format!("soak t{t} job{i}");
                    match i % 5 {
                        // Warm hit (after the first round compiles it).
                        0 => {
                            let got = run_ompltc(&[], &[&remote, hit_args[0], hit_args[1]], &src);
                            check(label, &got, expect_hit);
                        }
                        // Cold miss: a source no other job compiles.
                        1 => {
                            let n = 1000 + t * 100 + i;
                            let uniq = write_temp(
                                &format!("soak-{t}-{i}.c"),
                                &DEMO.replace("i * 3", &format!("i * 3 + {n}")),
                            );
                            let want = run_ompltc(&[], &["--run"], &uniq);
                            assert_eq!(want.code, 0, "[{label}] local oracle");
                            let got = run_ompltc(&[], &[&remote, "--run"], &uniq);
                            check(label, &got, &want);
                        }
                        // Contained ICE: structured stage/message in the
                        // reply, rendered client-side exactly like local.
                        2 => {
                            let got = run_ompltc(&[], &[&remote, ice_args[0], ice_args[1]], &src);
                            check(label, &got, expect_ice);
                        }
                        // Worker kill: supervisor requeues, reply matches
                        // the clean local run.
                        3 => {
                            let got = run_ompltc(
                                &[],
                                &[&remote, kill_args[0], kill_args[1], kill_args[2]],
                                &src,
                            );
                            check(label, &got, expect_hit);
                        }
                        // Raw oversized frame: exactly one error reply,
                        // connection closed, daemon unharmed.
                        _ => {
                            let mut s = UnixStream::connect(socket).unwrap();
                            s.write_all(&u32::MAX.to_le_bytes()).unwrap();
                            let reply = read_frame(&mut s).expect("reply").expect("reply frame");
                            let reply = String::from_utf8(reply).unwrap();
                            assert!(reply.contains("exceeds"), "[{label}] {reply}");
                            assert!(
                                read_frame(&mut s).expect("EOF after shed").is_none(),
                                "[{label}] connection must close after an oversized frame"
                            );
                        }
                    }
                }
            });
        }
    });

    // Post-soak invariants: no worker was lost for good, nothing was
    // abandoned, and the queue drained.
    let reply = daemon.request(&Request::Health.render());
    let health = omplt::protocol::HealthReport::parse(&reply).expect("health report");
    assert_eq!(health.workers_alive, 4, "all workers alive (or respawned)");
    assert_eq!(health.abandoned, 0, "no accepted job was lost");
    assert_eq!(
        health.respawns, health.requeued,
        "every single-kill respawn requeued its job"
    );
    // Each client ran 5 worker-kill jobs (i % 5 == 3 for i in 0..26), each
    // killing exactly one worker before its requeued retry succeeds.
    assert_eq!(health.respawns, (CLIENTS * 5) as u64);
    assert_eq!(health.queue_depth, 0);
    assert_eq!(health.running, 0);
}

#[test]
fn retry_flags_require_remote_and_validate_their_values() {
    let src = write_temp("retryflags.c", DEMO);
    let no_remote = run_ompltc(&[], &["--remote-retries=2"], &src);
    assert_eq!(no_remote.code, 2);
    assert!(
        String::from_utf8_lossy(&no_remote.stderr).contains("require '--remote'"),
        "{}",
        String::from_utf8_lossy(&no_remote.stderr)
    );
    let bad = run_ompltc(
        &[],
        &["--remote=/tmp/x.sock", "--remote-backoff-ms=0"],
        &src,
    );
    assert_eq!(bad.code, 2);
    assert!(
        String::from_utf8_lossy(&bad.stderr).contains("--remote-backoff-ms"),
        "{}",
        String::from_utf8_lossy(&bad.stderr)
    );
}

#[test]
fn daemon_has_no_timing_mode() {
    // Throughput is `perfbench`'s `daemon_mix` and every scripted sequence
    // with pinned counters is a test in this file: the daemon itself only
    // has the two modes that serve.
    let ompltd = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_ompltd"))
            .args(args)
            .output()
            .expect("spawn ompltd");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let gone = ["--bench", "--bench-jobs=4", "--bench-out=b.json"];
    for flag in gone.into_iter().chain(["--warmup", "--selftest"]) {
        let (code, stderr) = ompltd(&["--stdio", flag]);
        assert_eq!(code, Some(2), "{flag}: {stderr}");
        assert_eq!(stderr, format!("ompltd: unknown option '{flag}'\n"));
    }
    let (code, usage) = ompltd(&[]);
    assert_eq!(code, Some(2));
    assert_eq!(
        usage.matches("ompltd ").count(),
        1,
        "one usage form:\n{usage}"
    );
    assert!(usage.contains("(--listen=PATH | --stdio)"), "{usage}");
    for word in ["bench", "warmup", "selftest"] {
        assert!(!usage.contains(word), "{usage}");
    }
    let (code, _) = ompltd(&["--stdio", "--listen=/tmp/x.sock"]);
    assert_eq!(code, Some(2), "the two modes are exclusive");
}

#[test]
fn vector_width_is_one_token_of_the_cache_key() {
    // `--vector-width` changes the *compiled artifact* (the widening pass
    // runs at bytecode-lowering time), so it must be part of the cache
    // fingerprint: every distinct width is its own cache line, and repeating
    // a width must hit that line — never another width's scalar/vector
    // bytecode. A simd kernel makes the stakes concrete: serving the
    // width-4 artifact to a width-0 request would silently change the
    // program the VM executes.
    let daemon = Daemon::start("vwkey");
    let src = write_temp(
        "cache-vw.c",
        "void print_i64(long v);\n\
         long a[40];\n\
         int main(void) {\n\
           #pragma omp simd\n\
           for (int i = 0; i < 40; i += 1)\n\
             a[i] = i * 5;\n\
           long sum = 0;\n\
           for (int k = 0; k < 40; k += 1)\n\
             sum += a[k];\n\
           print_i64(sum);\n\
           return 0;\n\
         }\n",
    );
    let remote = daemon.remote_flag();

    let run = |extra: &[&str]| {
        let mut args = vec![remote.as_str(), "--run", "--backend", "vm"];
        args.extend_from_slice(extra);
        let cap = run_ompltc(&[], &args, &src);
        assert_eq!(cap.code, 0, "{}", String::from_utf8_lossy(&cap.stderr));
        assert_eq!(
            String::from_utf8_lossy(&cap.stdout),
            "3900\n",
            "every width computes the same sum"
        );
    };

    run(&["--vector-width", "4"]);
    assert_eq!(daemon.cache_counter("daemon.cache.misses"), 1);
    assert_eq!(daemon.cache_counter("daemon.cache.hits"), 0);

    // Same width again: hit.
    run(&["--vector-width", "4"]);
    assert_eq!(daemon.cache_counter("daemon.cache.misses"), 1);
    assert_eq!(daemon.cache_counter("daemon.cache.hits"), 1);

    // One token different — width 2 — must miss and compile its own line.
    run(&["--vector-width", "2"]);
    assert_eq!(daemon.cache_counter("daemon.cache.misses"), 2);
    assert_eq!(daemon.cache_counter("daemon.cache.hits"), 1);

    // The scalar default (no flag at all) is a third distinct artifact.
    run(&[]);
    assert_eq!(daemon.cache_counter("daemon.cache.misses"), 3);
    assert_eq!(daemon.cache_counter("daemon.cache.hits"), 1);

    // And each previously compiled width still hits its own line.
    run(&["--vector-width", "2"]);
    run(&["--vector-width", "4"]);
    assert_eq!(daemon.cache_counter("daemon.cache.misses"), 3);
    assert_eq!(daemon.cache_counter("daemon.cache.hits"), 3);
    assert_eq!(daemon.cache_counter("daemon.cache.integrity_failures"), 0);
}
