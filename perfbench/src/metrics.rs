//! The metric catalogue: one table that `BENCHMARK.json`, the result line,
//! the results file and `--compare` all follow (a unit test holds
//! `BENCHMARK.json` to it).

use crate::gen::KERNELS;

/// The five workloads with the reason each exists (`why` in `BENCHMARK.json`).
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "compile_classic",
        "shadow-AST path on three generated TUs: front end, mid end and VM compiler do the work, execution almost none",
    ),
    (
        "compile_irbuilder",
        "the same three TUs on the OMPCanonicalLoop/OpenMPIRBuilder path: a gain for one representation that costs the other shows here",
    ),
    (
        "exec_vm",
        "five long-trip kernels on the bytecode VM: dispatch and the shared runtime do the work, compile a fraction of a millisecond",
    ),
    (
        "exec_interp",
        "the same kernels at a quarter trip count on the interpreter: a VM-only win must leave it flat, a runtime change moves both",
    ),
    (
        "daemon_mix",
        "spawned ompltd, closed loop on 2 connections, 80% warm hits and 20% cold misses with evictions: the only workload crossing the socket",
    ),
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports every one of these (the benchmark contract
/// requires it, and that none is ever 0), so the list holds only what every
/// workload has without extra machinery: each is a set of programs that is
/// sent through `ompltc`, compiled, run and checked. The socket metrics of
/// `daemon_mix` (`daemon.hit_ms`, `daemon.miss_ms`, `daemon.jobs_per_s`) are
/// per-layer for that reason.
pub const END_TO_END: [EndToEnd; 7] = [
    // generate inputs and oracles, determinism checks, warm-up pass, interp = VM check (on
    // daemon_mix: spawn and warm ompltd, check `ompltc --remote` hits); of 5 set-ups, the sum of
    // each step's fastest time
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher: false,
        bound: 0.25,
    },
    // wall of one spawned `ompltc ... --opt --run FILE` to checked stdout (`--remote=SOCK` on
    // daemon_mix)
    EndToEnd {
        name: "cli_ms",
        unit: "ms",
        higher: false,
        bound: 0.25,
    },
    // in-process parse_source -> codegen -> optimize -> compile_bytecode incl. verify, steady state
    EndToEnd {
        name: "compile_ms",
        unit: "ms",
        higher: false,
        bound: 0.25,
    },
    // in-process engine construction + run_main to checked stdout
    EndToEnd {
        name: "run_ms",
        unit: "ms",
        higher: false,
        bound: 0.25,
    },
    // vm::encode size summed over the workload's programs; repeats exactly for one seed, and
    // spreads 0.3 % over ten seeds (the constants' digits), hence 2 % and not 1
    EndToEnd {
        name: "bytecode_bytes",
        unit: "B",
        higher: false,
        bound: 0.02,
    },
    // RunResult.ops_retired summed over the workload's programs; repeats exactly for one seed
    EndToEnd {
        name: "ops_retired",
        unit: "count",
        higher: false,
        bound: 0.01,
    },
    // VmHWM of the workload's harness process (of ompltd on daemon_mix)
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        higher: false,
        bound: 0.15,
    },
];

/// `(name, unit, higher_is_better)` of every per-layer metric. A workload
/// that does not exercise a layer reports 0 for it.
pub fn per_layer() -> Vec<(String, &'static str, bool)> {
    let mut out: Vec<(String, &'static str, bool)> = Vec::new();
    let mut add =
        |name: &str, unit: &'static str, higher: bool| out.push((name.to_string(), unit, higher));
    for (name, unit) in [
        ("source.bytes", "B"),
        ("source.lines", "count"),
        ("lex.us", "us"),
        ("lex.tokens", "count"),
        ("parse_sema.us", "us"),
        ("parse_sema.us.wide", "us"),
        ("parse_sema.us.stacked", "us"),
        ("parse_sema.us.plain", "us"),
        ("sema.shadow.helper_nodes", "count"),
        ("sema.shadow.transformed_nodes", "count"),
        ("sema.canonical.meta_items", "count"),
        ("sema.directive_nodes.plain", "count"),
        ("analysis.us", "us"),
        ("analysis.depend.graphs", "count"),
        ("analysis.depend.deps", "count"),
        ("codegen.us", "us"),
        ("ir.insts", "count"),
        ("ompirb.canonical_loops", "count"),
        ("ompirb.tile", "count"),
        ("ompirb.unroll", "count"),
        ("ompirb.workshare.static", "count"),
        ("ompirb.workshare.dynamic", "count"),
        ("midend.us", "us"),
        ("ir.insts_opt", "count"),
        ("midend.unrolled_loops", "count"),
        ("vm.compile.us", "us"),
        ("vm.compile.ops", "count"),
        ("vm.compile.peephole.removed", "count"),
        ("vm.verify.us", "us"),
        ("vm.encode.us", "us"),
        ("vm.decode.us", "us"),
        ("vm.init.us", "us"),
        ("exec.us", "us"),
    ] {
        add(name, unit, false);
    }
    for engine in ["vm", "interp"] {
        for k in KERNELS {
            add(&format!("{engine}.run.us.{k}"), "us", false);
            add(&format!("{engine}.ops_retired.{k}"), "count", false);
            add(&format!("{engine}.mops_per_s.{k}"), "Mops/s", true);
        }
    }
    add("vm.simd.widened_loops", "count", true);
    add("vm.simd.refused", "count", false);
    for (name, unit) in [
        ("runtime.chunks.static", "count"),
        ("runtime.chunks.dynamic", "count"),
        ("runtime.barrier.waits", "count"),
        ("protocol.decode.us", "us"),
        ("protocol.encode.us", "us"),
        ("protocol.frame_bytes", "B"),
        ("cache.key.us", "us"),
        ("cache.lookup.us", "us"),
        ("cache.insert.us", "us"),
        ("daemon.cache.misses", "count"),
        ("daemon.cache.evictions", "count"),
        ("service.hit.us", "us"),
        ("service.miss.us", "us"),
        ("daemon.transport.us", "us"),
        ("daemon.hit_ms", "ms"),
        ("daemon.hit_ms_p99", "ms"),
        ("daemon.miss_ms", "ms"),
        ("daemon.miss_ms_p99", "ms"),
        ("daemon.overloaded", "count"),
        ("daemon.retries", "count"),
        ("pipeline.compile_ms_p90", "ms"),
        ("pipeline.run_ms_p90", "ms"),
        ("pipeline.samples", "count"),
        ("trace.exec_share_pct", "%"),
        ("trace.compile_share_pct", "%"),
        ("trace.overhead_pct", "%"),
        ("calib.pass_ms", "ms"),
    ] {
        add(name, unit, false);
    }
    add("daemon.cache.hits", "count", true);
    add("daemon.jobs_per_s", "1/s", true);
    out
}

/// Metric values by name, in catalogue order when printed.
pub type Values = std::collections::BTreeMap<String, f64>;

/// `(name, unit)` of the metrics a run reports: the per-layer catalogue for
/// a traced run, the end-to-end one otherwise.
pub fn reported(traced: bool) -> Vec<(String, &'static str)> {
    if traced {
        per_layer().into_iter().map(|(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omplt::trace::json::{self, Value};

    fn names(v: &Value, key: &str) -> Vec<String> {
        v.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no array '{key}'"))
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect()
    }

    /// `BENCHMARK.json` is written by hand; the catalogue above is what the
    /// harness prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let v = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            names(&v, "workloads"),
            WORKLOADS.map(|(n, _)| n.to_string()).to_vec()
        );
        assert_eq!(
            names(&v, "end_to_end"),
            END_TO_END
                .iter()
                .map(|m| m.name.to_string())
                .collect::<Vec<_>>()
        );
        for (m, def) in v
            .get("end_to_end")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .zip(&END_TO_END)
        {
            assert_eq!(
                m.get("unit").and_then(Value::as_str),
                Some(def.unit),
                "{}",
                def.name
            );
            assert_eq!(
                m.get("bound").and_then(Value::as_f64),
                Some(def.bound),
                "{}",
                def.name
            );
            let better = if def.higher { "higher" } else { "lower" };
            assert_eq!(
                m.get("better").and_then(Value::as_str),
                Some(better),
                "{}",
                def.name
            );
        }
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        assert_eq!(
            names(&v, "per_layer"),
            layers.iter().map(|(n, _, _)| n.clone()).collect::<Vec<_>>()
        );
        for (m, (name, unit, higher)) in v
            .get("per_layer")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .zip(&layers)
        {
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit), "{name}");
            let better = if *higher { "higher" } else { "lower" };
            assert_eq!(
                m.get("better").and_then(Value::as_str),
                Some(better),
                "{name}"
            );
        }
    }
}
