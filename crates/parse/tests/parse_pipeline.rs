//! End-to-end front-end tests: source text → preprocessor → parser → Sema →
//! AST, checked via clang-style dumps. These regenerate the paper's
//! listings (see EXPERIMENTS.md index: L3, L4, L5, L7).

use omplt_ast::{dump_translation_unit, DumpOptions, OpenMpCodegenMode, StmtKind, TranslationUnit};
use omplt_lex::Preprocessor;
use omplt_parse::parse_translation_unit;
use omplt_sema::Sema;
use omplt_source::{DiagnosticsEngine, FileManager, SourceManager};
use std::cell::RefCell;

fn parse_mode(src: &str, mode: OpenMpCodegenMode) -> (TranslationUnit, String, String) {
    let mut fm = FileManager::new();
    let main = fm.add_virtual_file("test.c", src);
    let sm = RefCell::new(SourceManager::new());
    let file_id = sm.borrow_mut().add_file(main).0;
    let diags = DiagnosticsEngine::new();
    let tokens = {
        let mut sm_ref = sm.borrow_mut();
        let mut pp = Preprocessor::new(&mut sm_ref, &mut fm, &diags, file_id);
        pp.tokenize_all()
    };
    let mut sema = Sema::new(&diags, &sm, mode, true);
    let tu = parse_translation_unit(tokens, &mut sema);
    let dump = dump_translation_unit(&tu, DumpOptions::default());
    let rendered = diags.render(&sm.borrow());
    (tu, dump, rendered)
}

fn parse(src: &str) -> (TranslationUnit, String, String) {
    parse_mode(src, OpenMpCodegenMode::Classic)
}

fn parse_ok(src: &str) -> (TranslationUnit, String) {
    let (tu, dump, errs) = parse(src);
    assert!(
        errs.is_empty(),
        "unexpected diagnostics:\n{errs}\ndump:\n{dump}"
    );
    (tu, dump)
}

#[test]
fn minimal_function() {
    let (tu, dump) = parse_ok("int add(int a, int b) { return a + b; }\n");
    assert!(tu.function("add").is_some());
    assert!(dump.contains("FunctionDecl add 'int (int, int)'"), "{dump}");
    assert!(dump.contains("ReturnStmt"), "{dump}");
    assert!(dump.contains("BinaryOperator 'int' '+'"), "{dump}");
}

#[test]
fn locals_arrays_and_subscripts() {
    let (_, dump) =
        parse_ok("void f(void) {\n  double a[10];\n  a[3] = 1.5;\n  double x = a[3] * 2.0;\n}\n");
    assert!(dump.contains("VarDecl used a 'double[10]'"), "{dump}");
    assert!(dump.contains("ArraySubscriptExpr 'double'"), "{dump}");
    assert!(
        dump.contains("ImplicitCastExpr 'double *' <ArrayToPointerDecay>"),
        "{dump}"
    );
}

#[test]
fn control_flow_statements() {
    let (_, dump) = parse_ok(
        "int f(int n) {\n  int s = 0;\n  if (n > 0) s = 1; else s = 2;\n  while (n > 0) n = n - 1;\n  do n = n + 1; while (n < 3);\n  return s;\n}\n",
    );
    for node in ["IfStmt", "WhileStmt", "DoStmt"] {
        assert!(dump.contains(node), "missing {node}:\n{dump}");
    }
}

#[test]
fn paper_listing_parallel_for_schedule_static() {
    // Paper Fig. lst:astdump (L3): the exact source from the paper.
    let src = "void body(int i);\nvoid f(void) {\n  #pragma omp parallel for schedule(static)\n  for (int i = 7; i < 17; i += 3)\n    body(i);\n}\n";
    let (_, dump) = parse_ok(src);
    assert!(dump.contains("OMPParallelForDirective"), "{dump}");
    assert!(dump.contains("OMPScheduleClause static"), "{dump}");
    assert!(dump.contains("CapturedStmt"), "{dump}");
    assert!(dump.contains("CapturedDecl nothrow"), "{dump}");
    assert!(dump.contains("ForStmt"), "{dump}");
    assert!(dump.contains("VarDecl used i 'int' cinit"), "{dump}");
    assert!(dump.contains("IntegerLiteral 'int' 7"), "{dump}");
    assert!(
        dump.contains("ImplicitParamDecl implicit .global_tid."),
        "{dump}"
    );
    assert!(
        dump.contains("ImplicitParamDecl implicit .bound_tid."),
        "{dump}"
    );
    assert!(
        dump.contains("ImplicitParamDecl implicit __context"),
        "{dump}"
    );
    assert!(dump.contains("CallExpr 'void'"), "{dump}");
}

#[test]
fn paper_listing_composed_unroll() {
    // Paper Fig. lst:astdump_shadowast (L4): unroll full over unroll
    // partial(2).
    let src = "void body(int i);\nvoid f(void) {\n  #pragma omp unroll full\n  #pragma omp unroll partial(2)\n  for (int i = 7; i < 17; i += 3)\n    body(i);\n}\n";
    let (tu, dump) = parse_ok(src);
    // Nested OMPUnrollDirective with OMPFullClause outer, OMPPartialClause
    // inner carrying ConstantExpr 'int' value: Int 2.
    let outer_pos = dump.find("OMPUnrollDirective").unwrap();
    let rest = &dump[outer_pos + 1..];
    assert!(
        rest.contains("OMPUnrollDirective"),
        "directives must nest:\n{dump}"
    );
    assert!(dump.contains("OMPFullClause"), "{dump}");
    assert!(dump.contains("OMPPartialClause"), "{dump}");
    assert!(dump.contains("ConstantExpr 'int'"), "{dump}");
    assert!(dump.contains("value: Int 2"), "{dump}");
    // The inner directive's loop is NOT captured (paper §2.1).
    assert!(
        !dump.contains("CapturedStmt"),
        "transformations must not capture:\n{dump}"
    );

    // The default dump hides the shadow AST...
    assert!(!dump.contains("TransformedStmt"), "{dump}");
    // ...which becomes visible with show_transformed.
    let f = tu.function("f").unwrap();
    let body = f.body.borrow();
    let full_dump = omplt_ast::dump_stmt(
        body.as_ref().unwrap(),
        &tu.idents,
        DumpOptions {
            show_transformed: true,
        },
    );
    assert!(full_dump.contains("TransformedStmt"), "{full_dump}");
    assert!(full_dump.contains(".unrolled.iv.i"), "{full_dump}");
    assert!(
        full_dump.contains("LoopHintAttr Implicit loop UnrollCount Numeric"),
        "{full_dump}"
    );
}

#[test]
fn canonical_loop_dump_in_irbuilder_mode() {
    // Paper Fig. lst:ompcanonicalloop (L7).
    let src = "void body(int i);\nvoid f(void) {\n  #pragma omp unroll partial(2)\n  for (int i = 0; i < 42; i += 1)\n    body(i);\n}\n";
    let (_, dump, errs) = parse_mode(src, OpenMpCodegenMode::IrBuilder);
    assert!(errs.is_empty(), "{errs}");
    assert!(dump.contains("OMPUnrollDirective"), "{dump}");
    assert!(dump.contains("OMPCanonicalLoop"), "{dump}");
    // children: ForStmt + two CapturedStmt lambdas + DeclRefExpr
    assert!(
        dump.contains("DeclRefExpr 'int' lvalue Var 'i' 'int'"),
        "{dump}"
    );
    let cl_pos = dump.find("OMPCanonicalLoop").unwrap();
    let after = &dump[cl_pos..];
    assert!(after.matches("CapturedStmt").count() >= 2, "{dump}");
}

#[test]
fn tile_directive_with_sizes() {
    let src = "void use(int i, int j);\nvoid f(void) {\n  #pragma omp tile sizes(4, 4)\n  for (int i = 0; i < 32; i += 1)\n    for (int j = 0; j < 32; j += 1)\n      use(i, j);\n}\n";
    let (tu, dump) = parse_ok(src);
    assert!(dump.contains("OMPTileDirective"), "{dump}");
    assert!(dump.contains("OMPSizesClause"), "{dump}");
    // shadow AST holds 4 generated loops
    let f = tu.function("f").unwrap();
    let body = f.body.borrow();
    let StmtKind::Compound(stmts) = &body.as_ref().unwrap().kind else {
        panic!()
    };
    let StmtKind::OMP(d) = &stmts[0].kind else {
        panic!("{dump}")
    };
    let t = d.get_transformed_stmt().expect("tile builds a shadow AST");
    assert_eq!(omplt_sema::count_generated_loops(t), 4);
}

#[test]
fn range_based_for_loop_desugars() {
    // Paper Fig. lst:rangeloop (L6).
    let src = "double sum;\nvoid f(void) {\n  double data[8];\n  for (double &v : data)\n    sum = sum + v;\n}\n";
    let (_, dump) = parse_ok(src);
    assert!(dump.contains("CXXForRangeStmt"), "{dump}");
    assert!(dump.contains("__range"), "{dump}");
    assert!(dump.contains("__begin"), "{dump}");
    assert!(dump.contains("__end"), "{dump}");
}

#[test]
fn preprocessor_macro_feeds_pragma() {
    let src = "#define FACTOR 4\nvoid body(int i);\nvoid f(void) {\n  #pragma omp unroll partial(FACTOR)\n  for (int i = 0; i < 16; i += 1)\n    body(i);\n}\n";
    let (tu, _) = parse_ok(src);
    let f = tu.function("f").unwrap();
    let body = f.body.borrow();
    let StmtKind::Compound(stmts) = &body.as_ref().unwrap().kind else {
        panic!()
    };
    let StmtKind::OMP(d) = &stmts[0].kind else {
        panic!()
    };
    match d
        .clause(omplt_ast::OMPClauseKind::Partial)
        .map(|c| &c.args[..])
    {
        Some([e]) => assert_eq!(e.eval_const_int(), Some(4)),
        other => panic!("expected partial(4), got {other:?}"),
    }
}

#[test]
fn non_canonical_loop_diagnosed_with_caret() {
    let src = "void f(int n) {\n  #pragma omp for\n  for (int i = 0; i != n; i *= 2)\n    ;\n}\n";
    let (_, _, errs) = parse(src);
    assert!(
        errs.contains("increment clause of OpenMP for loop is not in canonical form"),
        "{errs}"
    );
    assert!(
        errs.contains("test.c:3"),
        "diagnostic must point at the loop:\n{errs}"
    );
    assert!(errs.contains('^'), "caret rendering expected:\n{errs}");
}

#[test]
fn break_in_omp_loop_diagnosed() {
    let src = "void f(int n) {\n  #pragma omp for\n  for (int i = 0; i < n; i += 1) {\n    if (i > 3) break;\n  }\n}\n";
    let (_, _, errs) = parse(src);
    assert!(errs.contains("break statement cannot be used"), "{errs}");
}

/// A `break` or `continue` leaves a loop of its own function and of its own
/// side of an outlined region; one with no such loop is refused where it is
/// parsed.
#[test]
fn loop_jumps_need_a_loop_on_their_side_of_an_outlined_region() {
    let accepted = [
        "void f(int n) {\n  while (n > 0) { n = n - 1; if (n == 2) break; }\n}\n",
        "void f(int n) {\n  do { n = n - 1; continue; } while (n > 0);\n}\n",
        "void f(int n) {\n  int a[4];\n  for (int &x : a) { if (x) continue; x = n; }\n}\n",
        "void f(int n) {\n  #pragma omp parallel\n  {\n    for (int i = 0; i < n; i += 1) break;\n  }\n}\n",
        "void f(int n) {\n  while (n) {\n    #pragma omp unroll partial(2)\n    for (int i = 0; i < 4; i += 1) n = n - 1;\n    break;\n  }\n}\n",
    ];
    for src in accepted {
        parse_ok(src);
    }
    let refused = [
        ("void f(void) {\n  break;\n}\n", "test.c:2:3: error: 'break' outside of a loop"),
        (
            "void f(int n) {\n  if (n) continue;\n}\n",
            "test.c:2:10: error: 'continue' outside of a loop",
        ),
        (
            "void f(int n) {\n  while (n) {\n    #pragma omp parallel\n    {\n      break;\n    }\n  }\n}\n",
            "test.c:5:7: error: 'break' outside of a loop",
        ),
    ];
    for (src, want) in refused {
        let (_, _, errs) = parse(src);
        assert!(errs.starts_with(want), "{src}:\n{errs}");
    }
}

/// A file-scope initializer is a constant expression: literals, `sizeof`,
/// casts and operators over them. A read of an object, a call, a pointer
/// and an integer division by zero are refused at the first such node.
#[test]
fn file_scope_initializers_must_be_constant() {
    let accepted = "long k;\ndouble d = -1.25;\nfloat f = 16777217;\nint n = ~0 + sizeof(long);\n\
                    _Bool b = 0.5 > 0.25 && 3 % 2;\nint c = 1 ? 2 : 1 / 0.0;\nlong s = sizeof(k) / 2;\n";
    parse_ok(accepted);
    let refused = [
        ("long k;\nlong g = k + 1;\n", "test.c:2:10:"),
        ("int g = 7 / 0;\n", "test.c:1:13:"),
        ("int g = 7 % (2 - 2);\n", "test.c:1:13:"),
        ("long k;\nlong *p = &k;\n", "test.c:2:11:"),
        ("long *p = (long *)0;\n", "test.c:1:11:"),
        ("int h(void);\nint g = h();\n", "test.c:2:9:"),
    ];
    for (src, at) in refused {
        let (_, _, errs) = parse(src);
        let want = format!("{at} error: initializer element is not a compile-time constant");
        assert!(errs.starts_with(&want), "{src}:\n{errs}");
    }
}

#[test]
fn full_unroll_consumed_by_worksharing_is_error() {
    // C4: "fully unrolled, there is no generated loop that can be
    // associated with another directive" — nor after a bare `unroll`,
    // whose factor is the compiler's choice, on either path.
    for unroll in ["unroll full", "unroll"] {
        let src = format!("void body(int i);\nvoid f(void) {{\n  #pragma omp parallel for\n  #pragma omp {unroll}\n  for (int i = 0; i < 8; i += 1)\n    body(i);\n}}\n");
        for mode in [OpenMpCodegenMode::Classic, OpenMpCodegenMode::IrBuilder] {
            let (_, _, errs) = parse_mode(&src, mode);
            assert!(
                errs.contains("'#pragma omp unroll' here does not generate a loop"),
                "{unroll} {mode:?}: {errs}"
            );
        }
    }
}

#[test]
fn undeclared_variable_in_body() {
    let (_, _, errs) = parse("void f(void) { x = 3; }\n");
    assert!(errs.contains("use of undeclared identifier 'x'"), "{errs}");
}

#[test]
fn reduction_and_data_sharing_clauses_parse() {
    let src = "void f(double *a, int n) {\n  double s = 0.0;\n  int t = 0;\n  #pragma omp parallel for reduction(+: s) firstprivate(t) schedule(static, 8)\n  for (int i = 0; i < n; i += 1)\n    s = s + a[i];\n}\n";
    let (_, dump) = parse_ok(src);
    assert!(dump.contains("OMPReductionClause '+'"), "{dump}");
    assert!(dump.contains("OMPFirstprivateClause"), "{dump}");
    assert!(dump.contains("OMPScheduleClause static"), "{dump}");
}

#[test]
fn includes_and_prototypes() {
    // Via the virtual FS: include provides a prototype used by main file.
    let mut fm = FileManager::new();
    fm.add_virtual_file("lib.h", "void helper(int x);\n");
    let main = fm.add_virtual_file(
        "main.c",
        "#include \"lib.h\"\nvoid f(void) { helper(3); }\n",
    );
    let sm = RefCell::new(SourceManager::new());
    let file_id = sm.borrow_mut().add_file(main).0;
    let diags = DiagnosticsEngine::new();
    let tokens = {
        let mut sm_ref = sm.borrow_mut();
        let mut pp = Preprocessor::new(&mut sm_ref, &mut fm, &diags, file_id);
        pp.tokenize_all()
    };
    let mut sema = Sema::new(&diags, &sm, OpenMpCodegenMode::Classic, true);
    let tu = parse_translation_unit(tokens, &mut sema);
    assert!(!diags.has_errors(), "{}", diags.render(&sm.borrow()));
    assert!(tu.function("helper").is_some());
    assert!(tu.function("f").unwrap().is_definition());
}

#[test]
fn collapse_clause_collects_nest() {
    let src = "void use(int i, int j);\nvoid f(void) {\n  #pragma omp for collapse(2)\n  for (int i = 0; i < 4; i += 1)\n    for (int j = 0; j < 4; j += 1)\n      use(i, j);\n}\n";
    let (tu, _) = parse_ok(src);
    let f = tu.function("f").unwrap();
    let body = f.body.borrow();
    let StmtKind::Compound(stmts) = &body.as_ref().unwrap().kind else {
        panic!()
    };
    let StmtKind::OMP(d) = &stmts[0].kind else {
        panic!()
    };
    let h = d.loop_helpers.as_ref().expect("classic helpers");
    assert_eq!(h.loops.len(), 2, "collapse(2) → per-loop helpers for both");
    assert_eq!(h.node_count(), 17 + 12);
}

#[test]
fn pragma_composition_order_is_reverse_source_order() {
    // tile over unroll: the tile consumes unroll's generated loop.
    let src = "void body(int i);\nvoid f(void) {\n  #pragma omp tile sizes(4)\n  #pragma omp unroll partial(2)\n  for (int i = 0; i < 64; i += 1)\n    body(i);\n}\n";
    let (tu, dump) = parse_ok(src);
    let f = tu.function("f").unwrap();
    let body = f.body.borrow();
    let StmtKind::Compound(stmts) = &body.as_ref().unwrap().kind else {
        panic!("{dump}")
    };
    let StmtKind::OMP(tile) = &stmts[0].kind else {
        panic!("{dump}")
    };
    assert_eq!(tile.kind, omplt_ast::OMPDirectiveKind::Tile);
    // tile's transformed AST: 2 loops generated by the tile itself, plus the
    // strip-mined inner loop inherited from the consumed unroll's body.
    let t = tile.get_transformed_stmt().unwrap();
    assert_eq!(omplt_sema::count_generated_loops(t), 3);
    let t_dump = omplt_ast::dump_stmt(t, &tu.idents, DumpOptions::default());
    assert!(t_dump.contains(".floor.iv"), "{t_dump}");
    assert!(t_dump.contains(".unroll_inner.iv"), "{t_dump}");
    // its associated statement is the unroll directive
    let StmtKind::OMP(unroll) = &tile.associated.as_ref().unwrap().kind else {
        panic!("{dump}")
    };
    assert_eq!(unroll.kind, omplt_ast::OMPDirectiveKind::Unroll);
}

#[test]
fn sizeof_and_casts() {
    let (_, dump) = parse_ok(
        "void f(void) {\n  size_t s = sizeof(double);\n  int x = (int)(3.7);\n  double d = (double)x;\n}\n",
    );
    assert!(dump.contains("UnaryExprOrTypeTraitExpr"), "{dump}");
    assert!(
        dump.contains("CStyleCastExpr 'int' <FloatingToIntegral>"),
        "{dump}"
    );
    assert!(
        dump.contains("CStyleCastExpr 'double' <IntegralToFloating>"),
        "{dump}"
    );
}

#[test]
fn global_variables() {
    let (tu, dump) = parse_ok("int counter;\ndouble table[16];\nvoid f(void) { counter = 1; }\n");
    assert_eq!(tu.decls.len(), 3);
    assert!(dump.contains("'double[16]'"), "{dump}");
}
