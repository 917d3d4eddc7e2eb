//! Worksharing and parallel-region execution on the threaded OpenMP runtime
//! (EXPERIMENTS.md: C7): coverage, disjointness, reductions, and both
//! static schedules — in both codegen modes, on real threads.

use omplt::{run_source_with, CompilerInstance, OpenMpCodegenMode, Options};

const PROTO: &str = "void print_i64(long v);\n";

fn opts(mode: OpenMpCodegenMode, threads: u32) -> Options {
    Options {
        codegen_mode: mode,
        num_threads: threads,
        ..Options::default()
    }
}

const MODES: [OpenMpCodegenMode; 2] = [OpenMpCodegenMode::Classic, OpenMpCodegenMode::IrBuilder];

/// Marks `flags[i] = omp_get_thread_num() + 1` for every iteration; checks
/// every iteration ran exactly once and reports the owner histogram.
fn coverage_kernel(n: usize, threads: u32, mode: OpenMpCodegenMode, extra: &str) -> Vec<i64> {
    let src = format!(
        "{PROTO}long flags[{n}];\nint omp_get_thread_num(void);\nint main(void) {{\n  #pragma omp parallel for{extra}\n  for (int i = 0; i < {n}; i += 1)\n    flags[i] = flags[i] * 1000 + omp_get_thread_num() + 1;\n  for (int i = 0; i < {n}; i += 1)\n    print_i64(flags[i]);\n  return 0;\n}}\n"
    );
    let r = run_source_with(&src, opts(mode, threads), false);
    r.stdout
        .lines()
        .map(|l| l.parse::<i64>().unwrap())
        .collect()
}

#[test]
fn parallel_for_covers_every_iteration_exactly_once() {
    for mode in MODES {
        for threads in [1u32, 2, 3, 4, 8] {
            for n in [1usize, 7, 16, 64] {
                let flags = coverage_kernel(n, threads, mode, "");
                assert_eq!(flags.len(), n);
                for (i, &f) in flags.iter().enumerate() {
                    // executed exactly once: value is 0*1000 + tid+1 ∈ [1, threads]
                    assert!(
                        f >= 1 && f <= threads as i64,
                        "iteration {i} ran {f} times-ish (mode {mode:?}, {threads} threads, n={n})"
                    );
                }
            }
        }
    }
}

#[test]
fn static_schedule_is_contiguous_blocks() {
    // schedule(static): thread owns one contiguous span.
    for mode in MODES {
        let flags = coverage_kernel(16, 4, mode, " schedule(static)");
        // owners must be non-decreasing (contiguous blocks per thread)
        let owners: Vec<i64> = flags.clone();
        let mut sorted = owners.clone();
        sorted.sort_unstable();
        assert_eq!(
            owners, sorted,
            "static spans must be contiguous ({mode:?}): {flags:?}"
        );
        // with 16 iterations and 4 threads every thread gets exactly 4
        for t in 1..=4i64 {
            assert_eq!(owners.iter().filter(|&&o| o == t).count(), 4, "{mode:?}");
        }
    }
}

#[test]
fn chunked_schedule_round_robins() {
    for mode in MODES {
        let flags = coverage_kernel(16, 2, mode, " schedule(static, 4)");
        // chunks of 4, round-robin across 2 threads:
        // t1 t1 t1 t1 t2 t2 t2 t2 t1 t1 t1 t1 t2 t2 t2 t2
        let expected: Vec<i64> = (0..16).map(|i| 1 + (i / 4) % 2).collect();
        assert_eq!(flags, expected, "{mode:?}");
    }
}

#[test]
fn reduction_sums_across_threads() {
    for mode in MODES {
        for threads in [1u32, 4, 8] {
            let src = format!(
                "{PROTO}int main(void) {{\n  long sum = 0;\n  #pragma omp parallel for reduction(+: sum)\n  for (int i = 0; i < 1000; i += 1)\n    sum = sum + i;\n  print_i64(sum);\n  return 0;\n}}\n"
            );
            let r = run_source_with(&src, opts(mode, threads), false);
            assert_eq!(r.stdout, "499500\n", "mode {mode:?}, {threads} threads");
        }
    }
}

#[test]
fn firstprivate_copies_in_private_isolates() {
    for mode in MODES {
        let src = format!(
            "{PROTO}long out[4];\nint omp_get_thread_num(void);\nint main(void) {{\n  long base = 100;\n  int scratch = 7;\n  #pragma omp parallel firstprivate(base) private(scratch) num_threads(4)\n  {{\n    int t = omp_get_thread_num();\n    scratch = t;\n    out[t] = base + scratch;\n  }}\n  for (int i = 0; i < 4; i += 1)\n    print_i64(out[i]);\n  print_i64(base);\n  return 0;\n}}\n"
        );
        let r = run_source_with(&src, opts(mode, 4), false);
        assert_eq!(r.stdout, "100\n101\n102\n103\n100\n", "mode {mode:?}");
    }
}

#[test]
fn num_threads_clause_controls_team_size() {
    for mode in MODES {
        let src = format!(
            "{PROTO}int omp_get_num_threads(void);\nlong team;\nint main(void) {{\n  #pragma omp parallel num_threads(3)\n  {{\n    team = omp_get_num_threads();\n  }}\n  print_i64(team);\n  return 0;\n}}\n"
        );
        let r = run_source_with(&src, opts(mode, 8), false);
        assert_eq!(r.stdout, "3\n", "mode {mode:?}");
    }
}

#[test]
fn parallel_for_over_unroll_partial_preserves_sum() {
    // The paper's composition headline: `parallel for` consuming the
    // generated loop of `unroll partial(2)`.
    for mode in MODES {
        for threads in [1u32, 2, 4] {
            let src = format!(
                "{PROTO}int main(void) {{\n  long sum = 0;\n  #pragma omp parallel for reduction(+: sum)\n  #pragma omp unroll partial(2)\n  for (int i = 0; i < 100; i += 1)\n    sum = sum + i;\n  print_i64(sum);\n  return 0;\n}}\n"
            );
            let r = run_source_with(&src, opts(mode, threads), false);
            assert_eq!(r.stdout, "4950\n", "mode {mode:?}, {threads} threads");
        }
    }
}

#[test]
fn workshared_saxpy_matches_serial() {
    for mode in MODES {
        let src = format!(
            "{PROTO}double x[64];\ndouble y[64];\nint main(void) {{\n  for (int i = 0; i < 64; i += 1) {{\n    x[i] = i;\n    y[i] = 2 * i;\n  }}\n  #pragma omp parallel for\n  for (int i = 0; i < 64; i += 1)\n    y[i] = 3.0 * x[i] + y[i];\n  double sum = 0.0;\n  for (int i = 0; i < 64; i += 1)\n    sum = sum + y[i];\n  print_i64((long)sum);\n  return 0;\n}}\n"
        );
        let r = run_source_with(&src, opts(mode, 4), false);
        // sum of 5*i for i in 0..64 = 5 * 2016
        assert_eq!(r.stdout, "10080\n", "mode {mode:?}");
    }
}

#[test]
fn collapse_2_covers_product_space() {
    // Both paths workshare the collapsed 64-iteration space: the classic
    // path from its helper bundle, the IrBuilder path through
    // `collapse_loops`. Neither has anything to say about it.
    let src = format!(
        "{PROTO}int main(void) {{\n  long sum = 0;\n  #pragma omp parallel for collapse(2) reduction(+: sum)\n  for (int i = 0; i < 8; i += 1)\n    for (int j = 0; j < 8; j += 1)\n      sum = sum + i * 8 + j;\n  print_i64(sum);\n  return 0;\n}}\n"
    );
    for mode in MODES {
        let mut ci = CompilerInstance::new(opts(mode, 4));
        let r = ci.compile_and_run("c2.c", &src, false).unwrap();
        assert_eq!(r.stdout, "2016\n", "mode {mode:?}");
        assert_eq!(ci.render_diags(), "", "mode {mode:?}");
    }
}

#[test]
fn bare_for_without_parallel_runs_whole_range() {
    // An orphaned `for` in a team of one executes all iterations.
    for mode in MODES {
        let src = format!(
            "{PROTO}int main(void) {{\n  long sum = 0;\n  #pragma omp for\n  for (int i = 0; i < 10; i += 1)\n    sum = sum + i;\n  print_i64(sum);\n  return 0;\n}}\n"
        );
        let r = run_source_with(&src, opts(mode, 4), false);
        assert_eq!(r.stdout, "45\n", "mode {mode:?}");
    }
}

#[test]
fn simd_directive_executes_serially_with_metadata() {
    for mode in MODES {
        let src = format!(
            "{PROTO}int main(void) {{\n  long sum = 0;\n  #pragma omp simd\n  for (int i = 0; i < 32; i += 1)\n    sum = sum + i;\n  print_i64(sum);\n  return 0;\n}}\n"
        );
        let r = run_source_with(&src, opts(mode, 4), false);
        assert_eq!(r.stdout, "496\n", "mode {mode:?}");
    }
}

#[test]
fn taskloop_task_count_observes_unroll_factor() {
    // Paper §2.2: "the unroll factor … can become observable when
    // associated by another directive, such as the taskloop creating as
    // many tasks as there are iterations".
    for mode in MODES {
        let plain = format!(
            "{PROTO}int main(void) {{\n  long s = 0;\n  #pragma omp taskloop\n  for (int i = 0; i < 12; i += 1)\n    s = s + i;\n  print_i64(s);\n  return 0;\n}}\n"
        );
        let unrolled = format!(
            "{PROTO}int main(void) {{\n  long s = 0;\n  #pragma omp taskloop\n  #pragma omp unroll partial(3)\n  for (int i = 0; i < 12; i += 1)\n    s = s + i;\n  print_i64(s);\n  return 0;\n}}\n"
        );
        let rp = run_source_with(&plain, opts(mode, 1), false);
        let ru = run_source_with(&unrolled, opts(mode, 1), false);
        assert_eq!(rp.stdout, "66\n", "mode {mode:?}");
        assert_eq!(ru.stdout, "66\n", "mode {mode:?}");
        assert_eq!(rp.tasks_created, 12, "mode {mode:?}");
        assert_eq!(
            ru.tasks_created, 4,
            "unroll partial(3) must reduce 12 iterations to 4 tasks (mode {mode:?})"
        );
    }
}

#[test]
fn nested_parallel_regions() {
    for mode in MODES {
        let src = format!(
            "{PROTO}long hits;\nvoid bump(void);\nvoid bump(void) {{\n  hits = hits + 1;\n}}\nint main(void) {{\n  #pragma omp parallel num_threads(2)\n  {{\n    #pragma omp parallel num_threads(2)\n    {{\n      bump();\n    }}\n  }}\n  print_i64(hits);\n  return 0;\n}}\n"
        );
        // serial mode: deterministic 4 increments
        let r = run_source_with(
            &src,
            Options {
                codegen_mode: mode,
                serial: true,
                num_threads: 2,
                ..Options::default()
            },
            false,
        );
        assert_eq!(r.stdout, "4\n", "mode {mode:?}");
    }
}

#[test]
fn dispatch_schedules_cover_every_iteration_exactly_once() {
    // The dispatch protocol (`__kmpc_dispatch_*`) must claim each iteration
    // exactly once for any (schedule, team, trip) — including trips smaller
    // than the team and trips not divisible by the chunk.
    for mode in MODES {
        for sched in [
            " schedule(dynamic)",
            " schedule(dynamic, 3)",
            " schedule(guided)",
            " schedule(guided, 2)",
        ] {
            for threads in [1u32, 2, 4, 7] {
                for n in [1usize, 5, 16, 61] {
                    let flags = coverage_kernel(n, threads, mode, sched);
                    assert_eq!(flags.len(), n);
                    for (i, &f) in flags.iter().enumerate() {
                        assert!(
                            f >= 1 && f <= threads as i64,
                            "iteration {i} ran {f} times-ish (mode {mode:?},{sched}, {threads} threads, n={n})"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn barrier_orders_back_to_back_worksharing_loops() {
    // Regression test for the implicit end-of-construct barrier: the second
    // loop reads `a[]` in *reverse*, so almost every read crosses thread
    // boundaries. Without the `__kmpc_barrier` between the loops, a thread
    // that reaches loop 2 early reads a slot another thread has not yet
    // written (dynamic scheduling makes the overlap window wide).
    for mode in MODES {
        for sched in ["", " schedule(dynamic, 1)", " schedule(guided)"] {
            for _round in 0..8 {
                let src = format!(
                    "{PROTO}long a[32];\nlong b[32];\nint main(void) {{\n  #pragma omp parallel num_threads(4)\n  {{\n    #pragma omp for{sched}\n    for (int i = 0; i < 32; i += 1)\n      a[i] = i + 1;\n    #pragma omp for{sched}\n    for (int i = 0; i < 32; i += 1)\n      b[i] = a[31 - i];\n  }}\n  for (int i = 0; i < 32; i += 1)\n    print_i64(b[i]);\n  return 0;\n}}\n"
                );
                let r = run_source_with(&src, opts(mode, 4), false);
                let got: Vec<i64> = r.stdout.lines().map(|l| l.parse().unwrap()).collect();
                let want: Vec<i64> = (0..32).map(|i| 32 - i).collect();
                assert_eq!(got, want, "mode {mode:?}, sched '{sched}'");
            }
        }
    }
}

#[test]
fn nowait_worksharing_loop_still_correct() {
    // `nowait` elides the end-of-construct barrier; with independent loops
    // the result must be unchanged.
    for mode in MODES {
        let src = format!(
            "{PROTO}long a[16];\nlong b[16];\nint main(void) {{\n  #pragma omp parallel num_threads(4)\n  {{\n    #pragma omp for nowait\n    for (int i = 0; i < 16; i += 1)\n      a[i] = i;\n    #pragma omp for\n    for (int i = 0; i < 16; i += 1)\n      b[i] = 10 * i;\n  }}\n  long sum = 0;\n  for (int i = 0; i < 16; i += 1)\n    sum = sum + a[i] + b[i];\n  print_i64(sum);\n  return 0;\n}}\n"
        );
        let r = run_source_with(&src, opts(mode, 4), false);
        assert_eq!(r.stdout, "1320\n", "mode {mode:?}");
    }
}
