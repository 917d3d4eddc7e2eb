//! Representation-comparison experiments: node counts (C1), class
//! hierarchy (F2), shadow-AST shape (L5), the canonical-loop skeleton (F3),
//! diagnostics mapping, and trip-count extremes (C5).

use omplt::{CompilerInstance, OpenMpCodegenMode, Options};
use omplt_ast::{OMPCanonicalLoop, OMPDirectiveKind, StmtKind};

fn parse(src: &str, mode: OpenMpCodegenMode) -> (CompilerInstance, omplt_ast::TranslationUnit) {
    let mut ci = CompilerInstance::new(Options {
        codegen_mode: mode,
        ..Options::default()
    });
    let tu = ci.parse_source("t.c", src).expect("parse");
    (ci, tu)
}

/// Fishes the first OMP directive out of a function body.
fn first_directive(
    tu: &omplt_ast::TranslationUnit,
    func: &str,
) -> omplt_ast::P<omplt_ast::OMPDirective> {
    let f = tu.function(func).unwrap();
    let body = f.body.borrow();
    let StmtKind::Compound(stmts) = &body.as_ref().unwrap().kind else {
        panic!()
    };
    for s in stmts {
        if let StmtKind::OMP(d) = &s.kind {
            return omplt_ast::P::clone(d);
        }
    }
    panic!("no directive in {func}");
}

/// `#pragma omp for collapse(depth)` over a perfect nest of `depth` loops.
fn ws_src(depth: usize) -> String {
    let loops: String = (0..depth)
        .map(|k| format!("  for (int i{k} = 0; i{k} < 32; i{k} += 1)\n"))
        .collect();
    format!(
        "void body(int i);\nvoid f(void) {{\n  #pragma omp for collapse({depth})\n{loops}    body(i0);\n}}\n"
    )
}

#[test]
fn c1_classic_helper_nodes_vs_canonical_meta_items() {
    // All counts are sourced from the observability counters the pipeline
    // bumps while building the representation (`--counters-json` exposes
    // the same numbers from the driver) — not from test-side AST walking.
    for depth in 1..=3 {
        let src = ws_src(depth);
        let session = omplt::trace::Session::begin();
        let (ci, tu) = parse(&src, OpenMpCodegenMode::Classic);
        let d = first_directive(&tu, "f");
        assert!(d.loop_helpers.is_some(), "classic helpers must exist");
        ci.codegen(&tu).expect("codegen");
        let classic = session.finish().counters;
        let classic_nodes = *classic
            .get("sema.shadow.helper_nodes")
            .expect("classic Sema must count its helper bundle")
            as usize;
        assert!(!classic.contains_key("sema.canonical.meta_items"));
        assert!(!classic.contains_key("ompirb.canonical_loops"));

        // IrBuilder mode: OMPCanonicalLoop meta items.
        let session = omplt::trace::Session::begin();
        let (ci, tu2) = parse(&src, OpenMpCodegenMode::IrBuilder);
        let d2 = first_directive(&tu2, "f");
        assert!(
            d2.loop_helpers.is_none(),
            "IrBuilder mode must not build the helper bundle"
        );
        ci.codegen(&tu2).expect("codegen");
        let irb = session.finish().counters;
        let canonical_items =
            *irb.get("sema.canonical.meta_items")
                .expect("irbuilder Sema must count its meta items") as usize;
        assert!(!irb.contains_key("sema.shadow.helper_nodes"));
        // One node per associated level, one skeleton per node.
        assert_eq!(
            canonical_items,
            depth * OMPCanonicalLoop::META_NODE_COUNT,
            "depth {depth}"
        );
        assert_eq!(irb.get("ompirb.canonical_loops"), Some(&(depth as u64)));

        // Our bundle models 17 nest-wide + 6 per-loop = 23 for one loop (the
        // remainder of Clang's ~36 are distribute/doacross-only helpers;
        // DESIGN.md §7); Sema wraps each associated level in its own
        // `OMPCanonicalLoop`, 3 meta items each.
        assert_eq!(classic_nodes, 23 + 6 * (depth - 1), "depth {depth}");
        assert_eq!(canonical_items, 3 * depth, "depth {depth}");
        // The paper's headline, for one loop: "reduced from the 36 shadow
        // AST nodes required by OMPLoopDirective" to 3 meta-information
        // items.
        if depth == 1 {
            assert!(
                classic_nodes >= 7 * canonical_items,
                "~an order of magnitude more Sema nodes"
            );
        }
    }
}

#[test]
fn f2_class_hierarchy_relations() {
    use OMPDirectiveKind::*;
    // Fig. ompclass + shadowastclass: unroll/tile are OMPLoopBasedDirective
    // but not OMPLoopDirective; worksharing is both; parallel is neither.
    for (kind, loop_based, loop_dir, transform) in [
        (Parallel, false, false, false),
        (For, true, true, false),
        (ParallelFor, true, true, false),
        (Simd, true, true, false),
        (Taskloop, true, true, false),
        (Unroll, true, false, true),
        (Tile, true, false, true),
    ] {
        assert_eq!(kind.is_loop_based(), loop_based, "{kind:?}");
        assert_eq!(kind.is_loop_directive(), loop_dir, "{kind:?}");
        assert_eq!(kind.is_loop_transformation(), transform, "{kind:?}");
    }
}

#[test]
fn l5_transformed_ast_shape_of_partial_unroll() {
    // Paper Fig. lst:transformedast: strip-mined outer loop, inner loop
    // kept and annotated with LoopHintAttr — "no duplication takes place
    // until [LoopUnroll]".
    let src = "void body(int i);\nvoid f(void) {\n  #pragma omp unroll partial(2)\n  for (int i = 7; i < 17; i += 3)\n    body(i);\n}\n";
    let (_, tu) = parse(src, OpenMpCodegenMode::Classic);
    let d = first_directive(&tu, "f");
    let t = d.get_transformed_stmt().expect("shadow AST");
    let dump = omplt_ast::dump_stmt(t, &tu.idents, omplt_ast::DumpOptions::default());
    assert!(dump.contains(".unrolled.iv.i"), "{dump}");
    assert!(dump.contains(".unroll_inner.iv.i"), "{dump}");
    assert!(
        dump.contains("LoopHintAttr Implicit loop UnrollCount Numeric"),
        "{dump}"
    );
    // exactly two for-loops — the body is NOT duplicated at the AST level
    assert_eq!(omplt_sema::count_generated_loops(t), 2);
    assert_eq!(
        dump.matches("CallExpr").count(),
        1,
        "body must appear exactly once:\n{dump}"
    );
}

#[test]
fn c2_tile_generates_2n_loops_at_ast_level() {
    for depth in [1usize, 2, 3] {
        let mut loops = String::new();
        let mut body_args = Vec::new();
        for k in 0..depth {
            loops.push_str(&format!("  for (int i{k} = 0; i{k} < 16; i{k} += 1)\n"));
            body_args.push(format!("i{k}"));
        }
        let sizes = vec!["4"; depth].join(", ");
        let src = format!(
            "void body(int x);\nvoid f(void) {{\n  #pragma omp tile sizes({sizes})\n{loops}    body({});\n}}\n",
            body_args.join(" + ")
        );
        let (_, tu) = parse(&src, OpenMpCodegenMode::Classic);
        let d = first_directive(&tu, "f");
        let t = d.get_transformed_stmt().unwrap();
        assert_eq!(
            omplt_sema::count_generated_loops(t),
            2 * depth,
            "tiling {depth} loops generates {0} loops",
            2 * depth
        );
    }
}

#[test]
fn f3_loop_skeleton_blocks_in_emitted_ir() {
    // The createCanonicalLoop skeleton figure: all seven roles visible in
    // the emitted IR of the IrBuilder path.
    let src = "void body(int i);\nvoid f(int n) {\n  #pragma omp unroll partial(2)\n  for (int i = 0; i < n; i += 1)\n    body(i);\n}\n";
    let (ci, tu) = parse(src, OpenMpCodegenMode::IrBuilder);
    let module = ci.codegen(&tu).expect("codegen");
    let ir = omplt::ir::print_module(&module);
    for role in [
        "preheader",
        "header",
        "cond",
        "body",
        "inc",
        "exit",
        "after",
    ] {
        assert!(
            ir.contains(&format!("omp_canonical.{role}"))
                || ir.contains(&format!("canonical.{role}")),
            "missing skeleton block '{role}':\n{ir}"
        );
    }
    assert!(ir.contains("phi"), "identifiable IV phi:\n{ir}");
    assert!(
        ir.contains("icmp ult"),
        "unsigned logical-IV compare:\n{ir}"
    );
}

#[test]
fn diagnostics_against_generated_code_map_to_literal_loop() {
    // Paper §2: a diagnostic on a shadow-AST node must point at the literal
    // loop and explain its origin.
    let mut ci = CompilerInstance::new(Options::default());
    let src = "void f(void) {\n  for (int i = 0; i < 4; i += 1)\n    ;\n}\n";
    let tu = ci.parse_source("d.c", src).unwrap();
    let _ = tu;
    // Simulate a late diagnostic against a transformed location.
    let rep = {
        let sm = ci.sm.borrow();
        let _ = &sm;
        omplt_source::SourceLocation::from_raw(1)
    };
    let syn = ci
        .sm
        .borrow_mut()
        .create_transformed_loc(rep, "#pragma omp unroll partial(2)");
    ci.diags.error(
        syn,
        "read of non-const variable '.capture_expr.' is not allowed in a constant expression",
    );
    let rendered = ci.render_diags();
    assert!(rendered.contains("d.c:1:1: error:"), "{rendered}");
    assert!(
        rendered.contains("note: in loop generated by '#pragma omp unroll partial(2)'"),
        "{rendered}"
    );
}

#[test]
fn c5_trip_count_extremes_execute_correctly() {
    // A short-typed full-range loop (2^16-1 iterations with i16): the
    // unsigned logical counter must not truncate.
    let src = "void print_i64(long v);\nint main(void) {\n  long n = 0;\n  #pragma omp unroll partial(8)\n  for (short s = -32768; s < 32767; s += 1)\n    n = n + 1;\n  print_i64(n);\n  return 0;\n}\n";
    omplt::assert_matrix_output(src, "65535\n");
}

#[test]
fn shadow_ast_invisible_in_children_but_counted_in_stats() {
    let src = "void body(int i);\nvoid f(void) {\n  #pragma omp unroll partial(2)\n  for (int i = 0; i < 64; i += 1)\n    body(i);\n}\n";
    let (_, tu) = parse(src, OpenMpCodegenMode::Classic);
    let f = tu.function("f").unwrap();
    let body = f.body.borrow();
    let stats = omplt_ast::stmt_stats(body.as_ref().unwrap());
    assert!(
        stats.shadow_nodes > 0,
        "transformed subtree must count as shadow: {stats:?}"
    );
    // The default dump (children() view) hides it:
    let dump = omplt_ast::dump_stmt(
        body.as_ref().unwrap(),
        &tu.idents,
        omplt_ast::DumpOptions::default(),
    );
    assert!(!dump.contains(".unrolled.iv"), "{dump}");
}

#[test]
fn irbuilder_mode_counts_three_meta_items_in_stats() {
    let src = "void body(int i);\nvoid f(void) {\n  #pragma omp unroll partial(2)\n  for (int i = 0; i < 64; i += 1)\n    body(i);\n}\n";
    let (_, tu) = parse(src, OpenMpCodegenMode::IrBuilder);
    let f = tu.function("f").unwrap();
    let body = f.body.borrow();
    let stats = omplt_ast::stmt_stats(body.as_ref().unwrap());
    assert_eq!(stats.canonical_meta, 3, "{stats:?}");
}
