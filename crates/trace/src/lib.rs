//! `-ftime-trace`-style observability for the omplt pipeline.
//!
//! Clang answers "where does compile time go?" with `-ftime-trace`, which
//! wraps every pass and Sema entry point in a scoped timer and dumps the
//! result as Chrome trace-event JSON. This crate is the omplt analogue:
//! hierarchical timing [`span`]s plus named [`count`]ers, recorded into an
//! explicit [`Session`] and rendered as
//!
//! * Chrome trace-event JSON ([`TraceData::to_chrome_json`], loadable in
//!   `about:tracing` / Perfetto),
//! * a deterministic counters document ([`TraceData::to_counters_json`]), and
//! * a human-readable per-stage table ([`TraceData::time_report`]).
//!
//! Unlike LLVM's `TimeTraceProfiler` the recorder is **not** a process-global
//! singleton: `cargo test` runs many tests concurrently in one process, so a
//! global would interleave unrelated pipelines. Instead [`Session::begin`]
//! installs the session as the *current thread's* recorder (thread-local),
//! and worker threads opt in explicitly via [`Handle::attach`] — the
//! interpreter attaches its OpenMP team threads this way so runtime counters
//! (chunks claimed per schedule kind per thread, barrier waits) land in the
//! same trace as the front-end spans.
//!
//! Every probe is a no-op when no session is installed on the calling thread;
//! hot paths can additionally guard with [`active`] before paying for
//! `format!`-built counter names.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub mod json;

/// One completed span, in microseconds relative to the session start.
#[derive(Clone, Debug)]
pub struct Event {
    /// Stage name, e.g. `sema.directive` or `midend.pass`.
    pub name: String,
    /// Optional free-form argument (directive kind, pass name, …).
    pub detail: Option<String>,
    /// Virtual thread id: 0 for the session thread, 1.. for attached threads.
    pub tid: u32,
    /// Start offset from session begin, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
}

struct SessionInner {
    start: Instant,
    events: Mutex<Vec<Event>>,
    counters: Mutex<BTreeMap<String, u64>>,
    next_tid: AtomicU32,
}

impl SessionInner {
    fn elapsed_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

thread_local! {
    /// The (session, virtual tid) recording for this thread, if any.
    static CURRENT: RefCell<Option<(Arc<SessionInner>, u32)>> = const { RefCell::new(None) };
}

/// An active recording. Created by [`Session::begin`]; consumed by
/// [`Session::finish`], which returns the collected [`TraceData`].
///
/// Dropping a session without finishing it discards the data and uninstalls
/// the thread-local recorder, so a panicking test cannot leak its session
/// into a later test that happens to reuse the thread.
pub struct Session {
    inner: Arc<SessionInner>,
    /// The recorder displaced by `begin`, restored when this session ends.
    /// Stack discipline matters on a worker pool: a per-job session begun on
    /// a worker thread must hand the thread back to whatever recorder (if
    /// any) was installed before the job, not wipe it.
    prev: Option<(Arc<SessionInner>, u32)>,
}

impl Session {
    /// Starts a session and installs it as the current thread's recorder
    /// (virtual tid 0). The previous recorder, if any, is displaced until
    /// this session is finished or dropped, then restored.
    pub fn begin() -> Session {
        let inner = Arc::new(SessionInner {
            start: Instant::now(),
            events: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            next_tid: AtomicU32::new(1),
        });
        let prev = CURRENT.with(|c| c.borrow_mut().replace((inner.clone(), 0)));
        Session { inner, prev }
    }

    /// A cloneable, sendable handle other threads can [`Handle::attach`].
    pub fn handle(&self) -> Handle {
        Handle {
            inner: self.inner.clone(),
        }
    }

    /// Stops recording on this thread and returns everything collected.
    pub fn finish(self) -> TraceData {
        let wall_us = self.inner.elapsed_us();
        let inner = self.inner.clone();
        drop(self); // uninstalls the thread-local recorder
        let events = inner.events.lock().unwrap().clone();
        let counters = inner.counters.lock().unwrap().clone();
        TraceData {
            events,
            counters,
            wall_us,
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            let mut cur = c.borrow_mut();
            if let Some((inner, _)) = cur.as_ref() {
                if Arc::ptr_eq(inner, &self.inner) {
                    *cur = self.prev.take();
                }
            }
        });
    }
}

/// A sendable reference to a session, for instrumenting worker threads.
#[derive(Clone)]
pub struct Handle {
    inner: Arc<SessionInner>,
}

impl Handle {
    /// Installs the session on the calling thread under a fresh virtual tid.
    /// The returned guard restores the thread's previous recorder on drop.
    pub fn attach(&self) -> AttachGuard {
        let tid = self.inner.next_tid.fetch_add(1, Ordering::Relaxed);
        let prev = CURRENT.with(|c| c.borrow_mut().replace((self.inner.clone(), tid)));
        AttachGuard { prev }
    }
}

/// RAII guard returned by [`Handle::attach`].
pub struct AttachGuard {
    prev: Option<(Arc<SessionInner>, u32)>,
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Whether the calling thread currently records into a session. Use to skip
/// building dynamic counter names on hot paths.
pub fn active() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Handle to the calling thread's current session, if any. The compiler
/// driver captures this before spawning interpreter team threads.
pub fn handle() -> Option<Handle> {
    CURRENT.with(|c| {
        c.borrow().as_ref().map(|(inner, _)| Handle {
            inner: inner.clone(),
        })
    })
}

/// Adds `delta` to the named counter. No-op without a session.
pub fn count(name: &str, delta: u64) {
    CURRENT.with(|c| {
        if let Some((inner, _)) = c.borrow().as_ref() {
            *inner
                .counters
                .lock()
                .unwrap()
                .entry(name.to_string())
                .or_insert(0) += delta;
        }
    });
}

/// Opens a timing span; the span is recorded when the guard drops. Spans are
/// hierarchical by construction: a span opened while another is live on the
/// same thread nests inside it in the trace timeline.
pub fn span(name: &str) -> Span {
    span_impl(name, None)
}

/// Like [`span`] but with a free-form detail argument (directive kind, pass
/// name, …) shown in the trace viewer. `detail` is copied only inside a
/// session.
pub fn span_detail(name: &str, detail: &str) -> Span {
    span_impl(name, Some(detail))
}

fn span_impl(name: &str, detail: Option<&str>) -> Span {
    let rec = CURRENT.with(|c| {
        c.borrow().as_ref().map(|(inner, tid)| SpanRec {
            start_us: inner.elapsed_us(),
            inner: inner.clone(),
            tid: *tid,
            name: name.to_string(),
            detail: detail.map(str::to_string),
        })
    });
    Span { rec }
}

struct SpanRec {
    inner: Arc<SessionInner>,
    tid: u32,
    name: String,
    detail: Option<String>,
    start_us: u64,
}

/// RAII guard for a timing span (see [`span`]).
pub struct Span {
    rec: Option<SpanRec>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(rec) = self.rec.take() {
            let end_us = rec.inner.elapsed_us();
            rec.inner.events.lock().unwrap().push(Event {
                name: rec.name,
                detail: rec.detail,
                tid: rec.tid,
                start_us: rec.start_us,
                dur_us: end_us.saturating_sub(rec.start_us),
            });
        }
    }
}

/// Everything a finished session collected.
pub struct TraceData {
    /// Completed spans, in completion order.
    pub events: Vec<Event>,
    /// Named counters, sorted by name (deterministic iteration).
    pub counters: BTreeMap<String, u64>,
    /// Wall time between `begin` and `finish`, microseconds.
    pub wall_us: u64,
}

impl TraceData {
    /// Renders the Chrome trace-event JSON document (`about:tracing` /
    /// Perfetto "JSON Object Format"). Spans become `"ph":"X"` complete
    /// events; counters and total wall time ride along under `otherData`,
    /// which viewers ignore.
    pub fn to_chrome_json(&self) -> String {
        let mut events = self.events.clone();
        // Parents complete after their children, so completion order is
        // child-first; sort into timeline order for stable, viewer-friendly
        // output (outermost span first per thread).
        events.sort_by(|a, b| {
            (a.tid, a.start_us, std::cmp::Reverse(a.dur_us), &a.name).cmp(&(
                b.tid,
                b.start_us,
                std::cmp::Reverse(b.dur_us),
                &b.name,
            ))
        });
        let mut w = json::Writer::default();
        w.open('{').key("traceEvents").open('[');
        w.raw(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"ompltc\"}}",
        );
        for e in &events {
            w.open('{').key("ph").str("X").key("cat").str("omplt");
            w.key("pid").raw(1).key("tid").raw(e.tid);
            w.key("ts").raw(e.start_us).key("dur").raw(e.dur_us);
            w.key("name").str(&e.name);
            if let Some(d) = &e.detail {
                w.key("args").open('{').key("detail").str(d).close('}');
            }
            w.close('}');
        }
        w.close(']').key("displayTimeUnit").str("ms");
        w.key("otherData").open('{');
        w.key("wallTimeUs").raw(self.wall_us);
        w.key("counters").open('{');
        for (k, v) in &self.counters {
            w.key(k).raw(v);
        }
        w.close('}').close('}').close('}').finish() + "\n"
    }

    /// Renders the counters alone as `{"counters":{...}}`. Iteration order is
    /// the counter name order (BTreeMap), so two runs of a deterministic
    /// pipeline produce byte-identical documents.
    pub fn to_counters_json(&self) -> String {
        json::counters_doc(self.counters.iter().map(|(k, v)| (k, *v)))
    }

    /// Renders a human-readable per-stage table in the spirit of Clang's
    /// `-ftime-report`: spans aggregated by name, sorted by total time, with
    /// the share of session wall time; counters listed below.
    pub fn time_report(&self) -> String {
        let mut agg: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for e in &self.events {
            let slot = agg.entry(&e.name).or_insert((0, 0));
            slot.0 += e.dur_us;
            slot.1 += 1;
        }
        let mut rows: Vec<(&str, u64, u64)> =
            agg.into_iter().map(|(n, (d, c))| (n, d, c)).collect();
        rows.sort_by(|a, b| (std::cmp::Reverse(a.1), a.0).cmp(&(std::cmp::Reverse(b.1), b.0)));
        let wall = self.wall_us.max(1);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "===-- omplt time report (wall {} us) --===",
            self.wall_us
        );
        let _ = writeln!(out, "{:>10}  {:>6}  {:>6}  name", "us", "calls", "%wall");
        for (name, dur, calls) in rows {
            let pct = (dur as f64) * 100.0 / (wall as f64);
            let _ = writeln!(out, "{dur:>10}  {calls:>6}  {pct:>5.1}%  {name}");
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "---- counters ----");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "{v:>10}  {k}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_session_means_noop() {
        assert!(!active());
        assert!(handle().is_none());
        count("x", 3);
        let _s = span("orphan");
    }

    #[test]
    fn spans_nest_and_counters_accumulate() {
        let session = Session::begin();
        assert!(active());
        {
            let _outer = span("outer");
            count("nodes", 20);
            {
                let _inner = span_detail("inner", "detail");
                count("nodes", 3);
            }
        }
        let data = session.finish();
        assert!(!active());
        assert_eq!(data.counters["nodes"], 23);
        assert_eq!(data.events.len(), 2);
        // Completion order is child-first.
        assert_eq!(data.events[0].name, "inner");
        assert_eq!(data.events[1].name, "outer");
        let inner = &data.events[0];
        let outer = &data.events[1];
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us);
        assert_eq!(inner.detail.as_deref(), Some("detail"));
        assert!(data.wall_us >= outer.dur_us);
    }

    #[test]
    fn attach_records_worker_threads_under_fresh_tids() {
        let session = Session::begin();
        let handle = session.handle();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let h = handle.clone();
                scope.spawn(move || {
                    let _g = h.attach();
                    let _s = span("worker");
                    count("worker.ticks", 1);
                });
            }
        });
        let data = session.finish();
        assert_eq!(data.counters["worker.ticks"], 2);
        let tids: Vec<u32> = data
            .events
            .iter()
            .filter(|e| e.name == "worker")
            .map(|e| e.tid)
            .collect();
        assert_eq!(tids.len(), 2);
        assert_ne!(tids[0], tids[1]);
        assert!(tids.iter().all(|&t| t > 0));
    }

    #[test]
    fn attach_guard_restores_previous_recorder() {
        let session = Session::begin();
        let handle = session.handle();
        {
            let _g = handle.attach();
            assert!(active());
        }
        // The thread's own session (tid 0) is restored, not cleared.
        count("after", 1);
        let data = session.finish();
        assert_eq!(data.counters["after"], 1);
    }

    #[test]
    fn dropping_session_uninstalls_recorder() {
        let session = Session::begin();
        drop(session);
        assert!(!active());
    }

    #[test]
    fn nested_sessions_restore_the_outer_recorder() {
        // A per-job session begun on a worker thread (e.g. by ompltd) must
        // hand the thread back to the outer recorder when it ends, so
        // consecutive jobs on one worker cannot leak into each other or
        // into a surrounding session.
        let outer = Session::begin();
        count("outer", 1);
        {
            let inner = Session::begin();
            count("job", 1);
            let data = inner.finish();
            assert_eq!(data.counters.get("job"), Some(&1));
            assert!(!data.counters.contains_key("outer"));
        }
        assert!(active(), "outer recorder restored after the job session");
        count("outer", 1);
        let data = outer.finish();
        assert_eq!(data.counters.get("outer"), Some(&2));
        assert!(!data.counters.contains_key("job"));
    }

    #[test]
    fn chrome_json_parses_and_carries_wall_time() {
        let session = Session::begin();
        {
            let _s = span_detail("stage", "x\"y");
            count("c\"tr", 7);
        }
        let data = session.finish();
        let text = data.to_chrome_json();
        let v = json::parse(&text).expect("trace JSON must parse");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(json::Value::as_str) == Some("stage")));
        let other = v.get("otherData").unwrap();
        assert_eq!(
            other.get("wallTimeUs").unwrap().as_u64().unwrap(),
            data.wall_us
        );
        assert_eq!(
            other
                .get("counters")
                .unwrap()
                .get("c\"tr")
                .unwrap()
                .as_u64(),
            Some(7)
        );
    }

    #[test]
    fn counters_json_is_deterministic() {
        let run = || {
            let session = Session::begin();
            count("b", 2);
            count("a", 1);
            count("b", 3);
            session.finish().to_counters_json()
        };
        let first = run();
        assert_eq!(first, run());
        assert_eq!(first, "{\"counters\":{\"a\":1,\"b\":5}}\n");
    }

    #[test]
    fn time_report_lists_stages_and_counters() {
        let session = Session::begin();
        {
            let _s = span("stage.a");
        }
        count("nodes", 23);
        let report = session.finish().time_report();
        assert!(report.contains("omplt time report"), "{report}");
        assert!(report.contains("stage.a"), "{report}");
        assert!(report.contains("23  nodes"), "{report}");
    }
}
