//! What the traced phase keeps: one `omplt_trace` session per program, the
//! self time of the harness's `bench.*` spans, and one Chrome trace per
//! workload.

use omplt::protocol::json_escape;
use omplt::trace::{Event, TraceData};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One program's session: `trips` identical trips were recorded into it,
/// `runs` of which executed the program.
pub struct ProgramTrace {
    pub name: String,
    pub trips: usize,
    pub runs: usize,
    pub data: TraceData,
}

/// Self time per `bench.*` span name: a span's duration minus the part its
/// `bench.*` child spans cover. The layer spans are siblings under one
/// `bench.job` per trip, so a layer's self time is its duration and
/// `bench.job`'s is the harness's own glue between the calls.
pub fn self_times(events: &[Event]) -> BTreeMap<String, u64> {
    let mut spans: Vec<&Event> = events
        .iter()
        .filter(|e| e.tid == 0 && e.name.starts_with("bench."))
        .collect();
    spans.sort_by_key(|e| (e.start_us, std::cmp::Reverse(e.dur_us)));
    let mut self_us: Vec<u64> = spans.iter().map(|e| e.dur_us).collect();
    let mut open: Vec<usize> = Vec::new();
    for (i, e) in spans.iter().enumerate() {
        let end = e.start_us + e.dur_us;
        while open
            .last()
            .is_some_and(|&p| end > spans[p].start_us + spans[p].dur_us)
        {
            open.pop();
        }
        if let Some(&parent) = open.last() {
            self_us[parent] = self_us[parent].saturating_sub(e.dur_us);
        }
        open.push(i);
    }
    let mut by_name = BTreeMap::new();
    for (e, us) in spans.iter().zip(self_us) {
        *by_name.entry(e.name.clone()).or_insert(0) += us;
    }
    by_name
}

/// Shares of the traced wall (the sum of all `bench.job` spans).
pub struct Shares {
    /// Engine construction + run.
    pub exec: f64,
    /// Front end + mid end + VM compile.
    pub compile: f64,
}

pub fn self_time_shares(traces: &[ProgramTrace]) -> Shares {
    let (mut exec, mut compile, mut wall) = (0u64, 0u64, 0u64);
    for t in traces {
        wall += t
            .data
            .events
            .iter()
            .filter(|e| e.name == "bench.job")
            .map(|e| e.dur_us)
            .sum::<u64>();
        for (name, us) in self_times(&t.data.events) {
            match name.as_str() {
                "bench.vm.init" | "bench.vm.run" | "bench.interp.run" => exec += us,
                "bench.lex" | "bench.parse_sema" | "bench.codegen" | "bench.midend"
                | "bench.vm.compile" => compile += us,
                _ => {}
            }
        }
    }
    let wall = wall.max(1) as f64;
    Shares {
        exec: exec as f64 / wall,
        compile: compile as f64 / wall,
    }
}

/// One Chrome trace-event document for a workload: every session becomes a
/// process (`pid`), named after its program, so the spans of one program
/// share an id. The program's own spans (`parse`, `midend.pass`, …) nest
/// inside the harness's `bench.*` spans.
pub fn chrome_trace(sessions: &[(&str, &TraceData)]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (pid, (name, data)) in sessions.iter().enumerate() {
        let pid = pid + 1;
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        );
        for e in &data.events {
            let _ = write!(
                out,
                ",{{\"ph\":\"X\",\"cat\":\"omplt\",\"pid\":{pid},\"tid\":{},\"ts\":{},\"dur\":{},\"name\":\"{}\"",
                e.tid,
                e.start_us,
                e.dur_us,
                json_escape(&e.name)
            );
            if let Some(d) = &e.detail {
                let _ = write!(out, ",\"args\":{{\"detail\":\"{}\"}}", json_escape(d));
            }
            out.push('}');
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, start_us: u64, dur_us: u64) -> Event {
        Event {
            name: name.to_string(),
            detail: None,
            tid: 0,
            start_us,
            dur_us,
        }
    }

    #[test]
    fn self_time_is_duration_minus_bench_children() {
        let events = vec![
            ev("bench.lex", 1, 10),
            ev("parse", 12, 28), // the program's own span: not a bench child
            ev("bench.parse_sema", 12, 30),
            ev("bench.job", 0, 50),
            ev("bench.lex", 61, 5),
            ev("bench.job", 60, 10),
        ];
        let st = self_times(&events);
        assert_eq!(st["bench.lex"], 15);
        assert_eq!(st["bench.parse_sema"], 30);
        assert_eq!(st["bench.job"], (50 - 40) + (10 - 5));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_process_per_session() {
        let data = TraceData {
            events: vec![ev("bench.job", 0, 5)],
            counters: BTreeMap::new(),
            wall_us: 5,
        };
        let doc = chrome_trace(&[("wide", &data), ("pl\"ain", &data)]);
        let v = omplt::trace::json::parse(&doc).expect("valid JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 4);
        let pids: Vec<u64> = events
            .iter()
            .map(|e| e.get("pid").and_then(|p| p.as_u64()).unwrap())
            .collect();
        assert_eq!(pids, [1, 1, 2, 2]);
    }
}
