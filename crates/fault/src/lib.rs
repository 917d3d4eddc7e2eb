//! Deterministic fault injection for the omplt pipeline.
//!
//! Every pipeline stage registers one or more *fault sites* — named points
//! where a test (via `ompltc --inject-fault=SITE[:COUNT]`) can force a
//! failure: an internal panic, a bytecode-verifier rejection, immediate fuel
//! exhaustion, or a team thread that vanishes before the barrier. The
//! registry is scoped per job (thread) and one-shot: arming `SITE:3` makes
//! the third call to [`fire`] for that site trigger, after which the site
//! disarms.
//!
//! The crate also tracks the *current pipeline stage* so the ICE boundary in
//! the driver can name where a panic (injected or genuine) originated.
//!
//! ## Job scoping
//!
//! Armed faults and the stage marker live in a per-thread *fault scope*, not
//! a process-global slot, so a multi-tenant server (`ompltd`) can run jobs
//! with different armaments concurrently without cross-talk. OpenMP team
//! threads spawned by the runtime inherit the forking job's scope via
//! [`handle`]/[`Handle::attach`], mirroring `omplt-trace`'s session handles —
//! that is what lets `runtime.lost-thread` fire on a team member while the
//! neighbouring job stays clean.
//!
//! Panic capture works the same way: [`install_panic_capture`] registers a
//! process-wide hook once, but the captured (message, backtrace) pair is
//! keyed by thread id and consumed with [`take_panic`], so two jobs that ICE
//! at the same time each report their own panic.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, Once, OnceLock};
use std::thread::ThreadId;

/// Every registered fault site, with the failure it forces. The driver uses
/// this list to validate `--inject-fault` and to render the site catalog in
/// usage errors; keep it in sync with the `fire` calls in each crate.
pub const SITES: &[(&str, &str)] = &[
    ("lex.panic", "panic while lexing the next token"),
    ("parse.panic", "panic while parsing a top-level declaration"),
    ("sema.panic", "panic while acting on an OpenMP directive"),
    ("codegen.panic", "panic while lowering a function to IR"),
    ("midend.panic", "panic while running a mid-end pass"),
    ("vm.panic", "panic while compiling IR to bytecode"),
    (
        "vm.verify.reject",
        "force the bytecode verifier to reject the module",
    ),
    (
        "runtime.fuel",
        "exhaust the cooperative fuel budget at run start",
    ),
    (
        "runtime.lost-thread",
        "highest-numbered team thread exits without reaching the barrier",
    ),
    (
        "daemon.worker-kill",
        "uncontained panic kills the pool worker holding the job",
    ),
    (
        "daemon.frame-stall",
        "client writes the length prefix then stalls past the frame timeout",
    ),
    (
        "daemon.cache-corrupt",
        "flip a byte in the cached artifact before the next lookup",
    ),
    (
        "daemon.queue-full",
        "admission control sheds the job as if the queue were full",
    ),
];

struct Armed {
    site: &'static str,
    /// Remaining [`fire`] calls before the site triggers; 1 = next call.
    remaining: u64,
}

/// One job's fault state: the armed site (if any) and the pipeline stage the
/// job is currently executing. Shared by `Arc` with any team threads the job
/// forks, so the interior is mutex-protected.
struct ScopeInner {
    armed: Mutex<Option<Armed>>,
    stage: Mutex<&'static str>,
}

impl ScopeInner {
    fn new() -> Self {
        ScopeInner {
            armed: Mutex::new(None),
            stage: Mutex::new("startup"),
        }
    }
}

thread_local! {
    /// The fault scope current on this thread, if any. Lazily created by
    /// [`arm`]/[`set_stage`]; absent on threads that never touch faults, so
    /// the hot-path [`fire`] check is a thread-local read plus nothing.
    static CURRENT: RefCell<Option<Arc<ScopeInner>>> = const { RefCell::new(None) };

    /// Whether this thread is inside an ICE containment region
    /// ([`contain_panics`]). Only then does the capture hook suppress the
    /// default panic spew; everywhere else (test harness threads, genuinely
    /// unexpected panics) the previous hook still prints.
    static CONTAINED: Cell<bool> = const { Cell::new(false) };
}

fn with_current<R>(f: impl FnOnce(&ScopeInner) -> R) -> Option<R> {
    CURRENT.with(|c| c.borrow().as_ref().map(|s| f(s)))
}

fn with_current_or_create<R>(f: impl FnOnce(&ScopeInner) -> R) -> R {
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        let scope = cur.get_or_insert_with(|| Arc::new(ScopeInner::new()));
        f(scope)
    })
}

/// A shareable reference to the calling thread's fault scope, used to extend
/// the scope onto worker (team) threads. Mirrors `omplt_trace::Handle`.
#[derive(Clone)]
pub struct Handle {
    inner: Arc<ScopeInner>,
}

/// Returns a handle to this thread's fault scope, creating the scope if the
/// thread has none yet. `fork_call` captures one before spawning a team so
/// injected runtime faults (`runtime.lost-thread`) trigger on team members
/// of the arming job — and only of that job.
pub fn handle() -> Handle {
    let inner = CURRENT.with(|c| {
        c.borrow_mut()
            .get_or_insert_with(|| Arc::new(ScopeInner::new()))
            .clone()
    });
    Handle { inner }
}

impl Handle {
    /// Installs the scope on the calling thread until the guard drops; the
    /// previously installed scope (if any) is restored afterwards. Attached
    /// threads count as contained: a team-thread panic is converted to a
    /// runtime error by `fork_call`, so the capture hook should record it
    /// rather than spray the server's stderr.
    pub fn attach(&self) -> AttachGuard {
        let prev = CURRENT.with(|c| c.borrow_mut().replace(self.inner.clone()));
        let prev_contained = CONTAINED.with(|c| c.replace(true));
        AttachGuard {
            prev,
            prev_contained,
        }
    }
}

/// Restores the previously attached fault scope when dropped.
pub struct AttachGuard {
    prev: Option<Arc<ScopeInner>>,
    prev_contained: bool,
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
        CONTAINED.with(|c| c.set(self.prev_contained));
    }
}

/// Marks the calling thread as inside an ICE containment boundary until the
/// guard drops: panics are captured for [`take_panic`] *instead of* being
/// printed by the default hook. The driver and the daemon wrap their
/// `catch_unwind` regions in this; threads outside such a region keep the
/// normal panic output.
pub fn contain_panics() -> ContainGuard {
    install_panic_capture();
    let prev = CONTAINED.with(|c| c.replace(true));
    ContainGuard { prev }
}

/// Ends the containment region when dropped.
pub struct ContainGuard {
    prev: bool,
}

impl Drop for ContainGuard {
    fn drop(&mut self) {
        CONTAINED.with(|c| c.set(self.prev));
    }
}

/// Renders the site catalog for usage errors: `"lex.panic, parse.panic, ..."`.
pub fn site_catalog() -> String {
    SITES.iter().map(|(s, _)| *s).collect::<Vec<_>>().join(", ")
}

/// Parses a `SITE[:COUNT]` spec against the site registry. Returns the
/// interned site name and the count (default 1). Shared by the per-thread
/// [`arm`] and the process-global [`arm_global`]; also used by the daemon's
/// supervisor to read a job's `daemon.worker-kill:N` armament without
/// consuming it.
pub fn parse_spec(spec: &str) -> Result<(&'static str, u64), String> {
    let (name, count) = match spec.split_once(':') {
        Some((name, count)) => {
            let n: u64 = count.parse().map_err(|_| {
                format!("invalid fault count '{count}': expected a positive integer")
            })?;
            if n == 0 {
                return Err(format!(
                    "invalid fault count '{count}': expected a positive integer"
                ));
            }
            (name, n)
        }
        None => (spec, 1),
    };
    let site = SITES
        .iter()
        .map(|(s, _)| *s)
        .find(|s| *s == name)
        .ok_or_else(|| {
            format!(
                "unknown fault site '{name}': known sites are {}",
                site_catalog()
            )
        })?;
    Ok((site, count))
}

/// Arms a fault from a `SITE[:COUNT]` spec in the calling thread's fault
/// scope. COUNT is the 1-based hit at which the site triggers (default 1).
/// Only one site is armed at a time per scope; arming replaces any previous
/// armament.
pub fn arm(spec: &str) -> Result<(), String> {
    let (site, count) = parse_spec(spec)?;
    with_current_or_create(|scope| {
        *scope.armed.lock().unwrap() = Some(Armed {
            site,
            remaining: count,
        });
    });
    Ok(())
}

/// Drops the calling thread's fault scope entirely: disarms any armed fault
/// and resets the stage to "startup". Tests that arm faults in-process must
/// call this before returning; the daemon calls it between jobs.
pub fn reset() {
    CURRENT.with(|c| *c.borrow_mut() = None);
}

/// Called at an injection point. Returns `true` when the armed countdown for
/// `site` reaches zero; the site then disarms so recovery paths (e.g. the
/// interpreter fallback after a forced verifier rejection) run clean. Bumps
/// the `fault.fired.<site>` trace counter when it triggers. Threads with no
/// fault scope never fire.
pub fn fire(site: &str) -> bool {
    let fired = with_current(|scope| {
        let mut armed = scope.armed.lock().unwrap();
        let Some(a) = armed.as_mut() else {
            return false;
        };
        if a.site != site {
            return false;
        }
        a.remaining -= 1;
        if a.remaining > 0 {
            return false;
        }
        *armed = None;
        true
    })
    .unwrap_or(false);
    if fired {
        omplt_trace::count(&format!("fault.fired.{site}"), 1);
    }
    fired
}

/// The hit of `site` that will fire, counted from the next [`fire`] call
/// (1 = that call), or `None` when `site` is not armed here. A probe hit once
/// per element of a loop reads this once per loop instead, counts its own
/// hits, and accounts for them with [`skip`].
pub fn armed_in(site: &str) -> Option<u64> {
    with_current(|scope| match scope.armed.lock().unwrap().as_ref() {
        Some(a) if a.site == site => Some(a.remaining),
        _ => None,
    })
    .flatten()
}

/// Consumes `hits` calls of `site` that did not fire — fewer than
/// [`armed_in`] returned — as that many [`fire`] calls would have.
pub fn skip(site: &str, hits: u64) {
    with_current(|scope| {
        if let Some(a) = scope.armed.lock().unwrap().as_mut() {
            if a.site == site {
                a.remaining -= hits;
            }
        }
    });
}

/// Process-global armory for daemon-level sites. Unlike the per-thread
/// scope, a global armament is visible from every thread (the acceptor, any
/// pool worker) and `SITE:COUNT` means *COUNT shots*: the first COUNT
/// [`fire_global`] calls for the site all trigger, then it disarms. That is
/// the semantics a chaos run wants ("kill two workers over the whole run"),
/// whereas the per-thread scope wants "fail on the Nth hit of this one job".
static GLOBAL: OnceLock<Mutex<HashMap<&'static str, u64>>> = OnceLock::new();

fn global_armory() -> &'static Mutex<HashMap<&'static str, u64>> {
    GLOBAL.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Arms a process-global fault from a `SITE[:COUNT]` spec (COUNT = number of
/// shots, default 1). Repeat arming of the same site accumulates shots, so a
/// daemon can take several `--inject-fault` flags.
pub fn arm_global(spec: &str) -> Result<(), String> {
    let (site, count) = parse_spec(spec)?;
    let mut armory = global_armory().lock().unwrap_or_else(|p| p.into_inner());
    *armory.entry(site).or_insert(0) += count;
    Ok(())
}

/// Fires a process-global site: returns `true` while armed shots remain for
/// `site`, consuming one per call. Bumps the `fault.fired.<site>` counter on
/// the calling thread's trace session when it triggers.
pub fn fire_global(site: &str) -> bool {
    let fired = {
        let mut armory = global_armory().lock().unwrap_or_else(|p| p.into_inner());
        match armory.get_mut(site) {
            Some(shots) if *shots > 0 => {
                *shots -= 1;
                if *shots == 0 {
                    armory.remove(site);
                }
                true
            }
            _ => false,
        }
    };
    if fired {
        omplt_trace::count(&format!("fault.fired.{site}"), 1);
    }
    fired
}

/// Disarms every process-global site. Tests that arm globals in-process must
/// call this before returning.
pub fn reset_global() {
    global_armory()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clear();
}

/// One-line helper for `*.panic` sites: panics with a recognizable message
/// when the armed countdown for `site` triggers. The site's stage prefix is
/// recorded first so the ICE boundary names where the panic originated.
pub fn panic_if_armed(site: &'static str) {
    if fire(site) {
        set_stage(site.split('.').next().unwrap_or(site));
        panic!("injected fault at site '{site}'");
    }
}

/// Records the pipeline stage now executing in the calling thread's fault
/// scope. The ICE boundary reads this to name where a panic originated;
/// stages are coarse ("parse", "sema", "codegen", "midend", "vm",
/// "runtime").
pub fn set_stage(stage: &'static str) {
    with_current_or_create(|scope| *scope.stage.lock().unwrap() = stage);
}

/// The most recently recorded pipeline stage on this thread's scope, or
/// "startup" when the thread has no scope.
pub fn current_stage() -> &'static str {
    with_current(|scope| *scope.stage.lock().unwrap()).unwrap_or("startup")
}

/// Captured panics, keyed by the panicking thread. A map (rather than one
/// global slot) so two jobs that ICE concurrently on different worker
/// threads each keep their own (message, backtrace) pair.
static CAPTURED: OnceLock<Mutex<HashMap<ThreadId, (String, String)>>> = OnceLock::new();

fn captured() -> &'static Mutex<HashMap<ThreadId, (String, String)>> {
    CAPTURED.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Installs the process-wide panic hook that records panics per thread for
/// [`take_panic`]. Idempotent; safe to call from every entry point (CLI
/// main, daemon startup, tests). On threads inside a [`contain_panics`]
/// region (or attached to a job scope) the default stderr spew is
/// suppressed — the ICE boundary will render the report; everywhere else
/// the previously installed hook still runs, so unexpected panics and test
/// failures stay visible.
pub fn install_panic_capture() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = if let Some(s) = info.payload().downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = info.payload().downcast_ref::<String>() {
                s.clone()
            } else {
                "<non-string panic payload>".to_string()
            };
            let msg = match info.location() {
                Some(l) => format!("{msg} [at {}:{}:{}]", l.file(), l.line(), l.column()),
                None => msg,
            };
            let bt = std::backtrace::Backtrace::force_capture().to_string();
            captured()
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .insert(std::thread::current().id(), (msg, bt));
            if !CONTAINED.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Takes the (message, backtrace) captured for the calling thread's most
/// recent panic, if any. The ICE boundary calls this right after its
/// `catch_unwind` observes an unwind — on the same thread that panicked —
/// so concurrent jobs cannot clobber each other's reports.
pub fn take_panic() -> Option<(String, String)> {
    captured()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .remove(&std::thread::current().id())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_once_at_the_armed_count() {
        arm("sema.panic:3").unwrap();
        assert!(!fire("sema.panic"));
        assert!(!fire("lex.panic"), "other sites never fire");
        assert!(!fire("sema.panic"));
        assert!(fire("sema.panic"), "third matching hit triggers");
        assert!(!fire("sema.panic"), "one-shot: disarmed after firing");
        reset();
    }

    #[test]
    fn default_count_is_the_first_hit() {
        arm("vm.verify.reject").unwrap();
        assert!(fire("vm.verify.reject"));
        reset();
    }

    #[test]
    fn rejects_unknown_sites_and_bad_counts() {
        assert!(arm("nope").unwrap_err().contains("unknown fault site"));
        assert!(arm("lex.panic:0").unwrap_err().contains("positive"));
        assert!(arm("lex.panic:x").unwrap_err().contains("positive"));
        reset();
    }

    #[test]
    fn stage_tracking_round_trips() {
        set_stage("midend");
        assert_eq!(current_stage(), "midend");
        reset();
        assert_eq!(current_stage(), "startup");
    }

    #[test]
    fn global_armory_consumes_shots_across_threads() {
        arm_global("daemon.worker-kill:2").unwrap();
        assert!(
            !fire_global("daemon.queue-full"),
            "unarmed site never fires"
        );
        let sibling = std::thread::spawn(|| fire_global("daemon.worker-kill"));
        assert!(sibling.join().unwrap(), "globals are visible cross-thread");
        assert!(fire_global("daemon.worker-kill"), "second shot");
        assert!(!fire_global("daemon.worker-kill"), "shots exhausted");
        // Repeat arming accumulates.
        arm_global("daemon.queue-full").unwrap();
        arm_global("daemon.queue-full").unwrap();
        assert!(fire_global("daemon.queue-full"));
        assert!(fire_global("daemon.queue-full"));
        assert!(!fire_global("daemon.queue-full"));
        reset_global();
    }

    #[test]
    fn parse_spec_round_trips_sites_and_counts() {
        assert_eq!(parse_spec("daemon.frame-stall").unwrap().1, 1);
        assert_eq!(
            parse_spec("daemon.cache-corrupt:4").unwrap(),
            ("daemon.cache-corrupt", 4)
        );
        assert!(parse_spec("daemon.bogus").is_err());
    }

    #[test]
    fn every_site_is_unique_and_catalogued() {
        let mut names: Vec<_> = SITES.iter().map(|(s, _)| *s).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate site names");
        assert!(site_catalog().contains("runtime.lost-thread"));
    }

    #[test]
    fn scopes_are_thread_isolated() {
        // Arm on this thread; a sibling thread must neither see the armament
        // nor be able to fire it, and its own arming must not disturb ours.
        arm("midend.panic").unwrap();
        set_stage("midend");
        let sibling = std::thread::spawn(|| {
            assert!(
                !fire("midend.panic"),
                "armament must not leak across threads"
            );
            assert_eq!(current_stage(), "startup");
            arm("vm.panic").unwrap();
            set_stage("vm");
            assert!(fire("vm.panic"));
            reset();
        });
        sibling.join().unwrap();
        assert_eq!(current_stage(), "midend");
        assert!(
            fire("midend.panic"),
            "own armament survives sibling activity"
        );
        reset();
    }

    #[test]
    fn handle_attach_extends_scope_to_workers() {
        arm("runtime.lost-thread").unwrap();
        let h = handle();
        let worker = std::thread::spawn(move || {
            assert!(!fire("runtime.lost-thread"), "no scope before attach");
            let _g = h.attach();
            assert!(
                fire("runtime.lost-thread"),
                "attached scope shares armament"
            );
        });
        worker.join().unwrap();
        // The worker consumed the one-shot armament through the shared scope.
        assert!(!fire("runtime.lost-thread"));
        reset();
    }

    #[test]
    fn panic_capture_is_keyed_per_thread() {
        install_panic_capture();
        let a = std::thread::spawn(|| {
            let _ = std::panic::catch_unwind(|| panic!("boom-a"));
            take_panic().expect("thread a captured its own panic").0
        });
        let b = std::thread::spawn(|| {
            let _ = std::panic::catch_unwind(|| panic!("boom-b"));
            take_panic().expect("thread b captured its own panic").0
        });
        assert!(a.join().unwrap().contains("boom-a"));
        assert!(b.join().unwrap().contains("boom-b"));
        assert!(take_panic().is_none(), "main thread has no captured panic");
    }
}
