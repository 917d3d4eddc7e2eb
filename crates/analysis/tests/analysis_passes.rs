//! End-to-end tests for the AST-level legality rules and analysis passes:
//! parse + Sema a C source (Sema's own refusals are read off its
//! diagnostics), run the suite, inspect the produced diagnostics.

use omplt_analysis::{run_analyses, AnalysisReport};
use omplt_ast::{OpenMpCodegenMode, TranslationUnit};
use omplt_lex::Preprocessor;
use omplt_parse::parse_translation_unit;
use omplt_sema::Sema;
use omplt_source::{Diagnostic, DiagnosticsEngine, FileManager, Level, SourceManager};
use std::cell::RefCell;

fn sema(src: &str) -> (TranslationUnit, DiagnosticsEngine) {
    let mut fm = FileManager::new();
    let buf = fm.add_virtual_file("t.c", src);
    let sm = RefCell::new(SourceManager::new());
    let file_id = sm.borrow_mut().add_file(buf).0;
    let diags = DiagnosticsEngine::new();
    let tokens = {
        let mut smm = sm.borrow_mut();
        let mut pp = Preprocessor::new(&mut smm, &mut fm, &diags, file_id);
        pp.tokenize_all()
    };
    let mut sema = Sema::new(&diags, &sm, OpenMpCodegenMode::Classic, true);
    (parse_translation_unit(tokens, &mut sema), diags)
}

fn parse(src: &str) -> (TranslationUnit, DiagnosticsEngine) {
    let (tu, diags) = sema(src);
    assert!(
        !diags.has_errors(),
        "unexpected Sema errors: {:?}",
        diags
            .all()
            .iter()
            .map(|d| d.message.clone())
            .collect::<Vec<_>>()
    );
    (tu, diags)
}

fn analyze(src: &str) -> (Vec<Diagnostic>, AnalysisReport) {
    let (tu, diags) = parse(src);
    let report = run_analyses(&tu, &diags);
    (diags.all(), report)
}

fn messages(diags: &[Diagnostic], level: Level) -> Vec<String> {
    diags
        .iter()
        .filter(|d| d.level == level)
        .map(|d| d.message.clone())
        .collect()
}

#[test]
fn shared_scalar_write_is_a_race() {
    let (diags, report) = analyze(
        "int main() {\n\
         \x20 int sum = 0;\n\
         \x20 int a[8];\n\
         \x20 #pragma omp parallel for\n\
         \x20 for (int i = 0; i < 8; i += 1)\n\
         \x20   sum += a[i];\n\
         \x20 return sum;\n\
         }\n",
    );
    assert_eq!(report.warnings, 1, "{diags:?}");
    assert_eq!(report.errors, 0);
    let warns = messages(&diags, Level::Warning);
    assert!(warns[0].contains("shared variable 'sum'"), "{}", warns[0]);
    assert!(warns[0].ends_with("[-Wrace]"), "{}", warns[0]);
    // The fix-it style note suggests privatization clauses.
    let w = diags.iter().find(|d| d.level == Level::Warning).unwrap();
    assert!(
        w.notes
            .iter()
            .any(|n| n.message.contains("reduction(+: sum)")),
        "{:?}",
        w.notes
    );
}

#[test]
fn reduction_clause_silences_the_race() {
    let (_, report) = analyze(
        "int main() {\n\
         \x20 int sum = 0;\n\
         \x20 int a[8];\n\
         \x20 #pragma omp parallel for reduction(+: sum)\n\
         \x20 for (int i = 0; i < 8; i += 1)\n\
         \x20   sum += a[i];\n\
         \x20 return sum;\n\
         }\n",
    );
    assert_eq!(report, AnalysisReport::default());
}

#[test]
fn private_clause_and_locals_are_not_shared() {
    let (_, report) = analyze(
        "int main() {\n\
         \x20 int t = 0;\n\
         \x20 int a[8];\n\
         \x20 #pragma omp parallel for private(t)\n\
         \x20 for (int i = 0; i < 8; i += 1) {\n\
         \x20   int u = i + 1;\n\
         \x20   int *p = a;\n\
         \x20   p = p + i;\n\
         \x20   t = u * 2;\n\
         \x20   a[i] = t + u;\n\
         \x20 }\n\
         \x20 return a[0];\n\
         }\n",
    );
    assert_eq!(report, AnalysisReport::default());
}

#[test]
fn loop_carried_array_write_is_a_race() {
    let (diags, report) = analyze(
        "int main() {\n\
         \x20 int a[16];\n\
         \x20 #pragma omp parallel for\n\
         \x20 for (int i = 0; i < 15; i += 1)\n\
         \x20   a[i] = a[i + 1] + 1;\n\
         \x20 return a[0];\n\
         }\n",
    );
    assert_eq!(report.warnings, 1, "{diags:?}");
    let warns = messages(&diags, Level::Warning);
    assert!(warns[0].contains("loop-carried"), "{}", warns[0]);
    assert!(warns[0].contains("'a[i]' is written"), "{}", warns[0]);
    assert!(warns[0].contains("'a[i + 1]' is read"), "{}", warns[0]);
    assert!(warns[0].ends_with("[-Wrace]"), "{}", warns[0]);
}

#[test]
fn disjoint_arrays_are_clean() {
    let (_, report) = analyze(
        "int main() {\n\
         \x20 int a[16];\n\
         \x20 int b[16];\n\
         \x20 #pragma omp parallel for\n\
         \x20 for (int i = 1; i < 15; i += 1)\n\
         \x20   b[i] = a[i - 1] + a[i] + a[i + 1];\n\
         \x20 return b[1];\n\
         }\n",
    );
    assert_eq!(report, AnalysisReport::default());
}

#[test]
fn constant_subscript_write_is_a_race() {
    let (diags, report) = analyze(
        "int main() {\n\
         \x20 int a[8];\n\
         \x20 #pragma omp parallel for\n\
         \x20 for (int i = 0; i < 8; i += 1)\n\
         \x20   a[0] = i;\n\
         \x20 return a[0];\n\
         }\n",
    );
    assert_eq!(report.warnings, 1, "{diags:?}");
    let warns = messages(&diags, Level::Warning);
    assert!(warns[0].contains("write 'a[0]'"), "{}", warns[0]);
}

#[test]
fn shared_inner_counter_of_a_perfect_nest_is_a_race() {
    // `j` is declared outside the construct, so OpenMP shares it: every
    // thread runs the inner loop on the one `j`. The nest is perfect, so
    // the dependence graph spans the inner loop with `j` as its counter.
    let src = "int main() {\n\
         \x20 int a[16][8];\n\
         \x20 int j;\n\
         \x20 #pragma omp parallel for\n\
         \x20 for (int i = 0; i < 16; i += 1)\n\
         \x20   for (j = 0; j < 8; j += 1)\n\
         \x20     a[i][j] = 0;\n\
         \x20 return a[0][0];\n\
         }\n";
    let (diags, report) = analyze(src);
    assert_eq!((report.errors, report.warnings), (0, 1), "{diags:?}");
    let w = diags.iter().find(|d| d.level == Level::Warning).unwrap();
    assert_eq!(
        w.message,
        "writing to shared variable 'j' inside '#pragma omp parallel for' is a data race [-Wrace]"
    );
    // Every other access of `j` is a note.
    let notes: Vec<&str> = w.notes.iter().map(|n| n.message.as_str()).collect();
    assert_eq!(notes.len(), 5, "{notes:?}");
    assert_eq!(
        notes[..4],
        [
            "'j' read here",
            "'j' read here",
            "'j' also written here",
            "'j' read here"
        ],
        "{notes:?}"
    );
    assert!(notes[4].contains("consider a 'private(j)'"), "{notes:?}");

    // Privatised, the counter is each thread's own.
    let (diags, report) = analyze(&src.replace("omp parallel for", "omp parallel for private(j)"));
    assert_eq!(report, AnalysisReport::default(), "{diags:?}");
}

#[test]
fn imperfect_tile_nest_is_an_error() {
    // Sema's rule: the refusal is there before any analysis pass runs.
    let (_, diags) = sema(
        "int main() {\n\
         \x20 int a[64];\n\
         \x20 #pragma omp tile sizes(4, 4)\n\
         \x20 for (int i = 0; i < 8; i += 1) {\n\
         \x20   int t = i * 8;\n\
         \x20   for (int j = 0; j < 8; j += 1)\n\
         \x20     a[t + j] = t;\n\
         \x20 }\n\
         \x20 return a[0];\n\
         }\n",
    );
    let diags = diags.all();
    let errs = messages(&diags, Level::Error);
    assert_eq!(errs.len(), 1, "{diags:?}");
    assert!(errs[0].contains("perfectly nested"), "{}", errs[0]);
    assert!(
        errs[0].contains("#pragma omp tile sizes(4, 4)"),
        "{}",
        errs[0]
    );
    let e = diags.iter().find(|d| d.level == Level::Error).unwrap();
    assert!(
        e.notes
            .iter()
            .any(|n| n.message.contains("2 perfectly nested loops")),
        "{:?}",
        e.notes
    );
}

#[test]
fn perfect_tile_nest_is_clean() {
    let (_, report) = analyze(
        "int main() {\n\
         \x20 int a[64];\n\
         \x20 #pragma omp tile sizes(4, 4)\n\
         \x20 for (int i = 0; i < 8; i += 1)\n\
         \x20   for (int j = 0; j < 8; j += 1)\n\
         \x20     a[i * 8 + j] = i + j;\n\
         \x20 return a[0];\n\
         }\n",
    );
    assert_eq!(report, AnalysisReport::default());
}

#[test]
fn return_escaping_unroll_is_an_error() {
    let (_, diags) = sema(
        "int f() {\n\
         \x20 #pragma omp unroll partial(2)\n\
         \x20 for (int i = 0; i < 8; i += 1) {\n\
         \x20   if (i == 3) return 1;\n\
         \x20 }\n\
         \x20 return 0;\n\
         }\n\
         int main() { return f(); }\n",
    );
    let diags = diags.all();
    let errs = messages(&diags, Level::Error);
    assert_eq!(errs.len(), 1, "{diags:?}");
    assert!(errs[0].contains("cannot 'return'"), "{}", errs[0]);
    assert!(
        errs[0].contains("#pragma omp unroll partial(2)"),
        "{}",
        errs[0]
    );
}

#[test]
fn collapse_nest_accesses_both_ivs() {
    // Writes are indexed by the collapsed i-loop IV; reading a j-shifted
    // element of the same row is loop-carried across the j dimension.
    let src = "int main() {\n\
         \x20 int a[64];\n\
         \x20 #pragma omp parallel for collapse(2)\n\
         \x20 for (int i = 0; i < 8; i += 1)\n\
         \x20   for (int j = 0; j < 7; j += 1)\n\
         \x20     a[j] = a[j + 1];\n\
         \x20 return a[0];\n\
         }\n";
    let (diags, report) = analyze(src);
    assert_eq!(report.warnings, 1, "{diags:?}");
    let warns = messages(&diags, Level::Warning);
    assert!(warns[0].contains("'a[j]' is written"), "{}", warns[0]);

    // A subscript mixing both IVs has more solutions than the dependence
    // tests enumerate: what they cannot judge is no finding.
    let (diags, report) = analyze(&src.replace("a[j] = a[j + 1]", "a[i + j] = a[i + j + 1]"));
    assert_eq!(report.warnings, 0, "{diags:?}");
}

#[test]
fn bounds_separated_accesses_are_clean() {
    // `a[i]` and `a[i + 8]` are eight iterations apart, and there are only
    // eight: no two iterations touch one element.
    let (diags, report) = analyze(
        "int main() {\n\
         \x20 int a[16];\n\
         \x20 #pragma omp parallel for\n\
         \x20 for (int i = 0; i < 8; i += 1)\n\
         \x20   a[i] = a[i + 8];\n\
         \x20 return a[0];\n\
         }\n",
    );
    assert_eq!(report, AnalysisReport::default(), "{diags:?}");
}

#[test]
fn parallel_for_simd_races_beside_its_lanes() {
    // The lanes rule keeps the loop scalar, and the threads still race.
    let (diags, report) = analyze(
        "int main() {\n\
         \x20 int sum = 0;\n\
         \x20 int a[8];\n\
         \x20 #pragma omp parallel for simd\n\
         \x20 for (int i = 0; i < 8; i += 1)\n\
         \x20   sum += a[i];\n\
         \x20 return sum;\n\
         }\n",
    );
    assert_eq!((report.errors, report.warnings), (0, 2), "{diags:?}");
    let warns = messages(&diags, Level::Warning);
    assert!(
        warns[0].ends_with("[-Wpass-failed=transform-warning]"),
        "{}",
        warns[0]
    );
    assert_eq!(
        warns[1],
        "writing to shared variable 'sum' inside '#pragma omp parallel for simd' \
         is a data race [-Wrace]"
    );
}

// ---------------------------------------------------------------------------
// Scaled-affine -Wrace subscripts (a[2*i], a[c - i], …)
// ---------------------------------------------------------------------------

#[test]
fn scaled_affine_stride_conflict_is_a_race() {
    // a[2*i] and a[2*i + 2] are one iteration apart; before the detector
    // understood coefficients both were dropped as "Other" and this raced
    // silently.
    let (diags, report) = analyze(
        "int main() {\n\
         \x20 int a[32];\n\
         \x20 #pragma omp parallel for\n\
         \x20 for (int i = 0; i < 15; i += 1)\n\
         \x20   a[2 * i] = a[2 * i + 2] + 1;\n\
         \x20 return a[0];\n\
         }\n",
    );
    assert_eq!(report.warnings, 1, "{diags:?}");
    let warns = messages(&diags, Level::Warning);
    assert!(warns[0].contains("'a[2*i]' is written"), "{}", warns[0]);
    assert!(warns[0].contains("'a[2*i + 2]' is read"), "{}", warns[0]);
}

#[test]
fn scaled_affine_parity_disjoint_is_clean() {
    // a[2*i] (even) never collides with a[2*i + 1] (odd).
    let (_, report) = analyze(
        "int main() {\n\
         \x20 int a[32];\n\
         \x20 #pragma omp parallel for\n\
         \x20 for (int i = 0; i < 15; i += 1)\n\
         \x20   a[2 * i] = a[2 * i + 1] + 1;\n\
         \x20 return a[0];\n\
         }\n",
    );
    assert_eq!(report, AnalysisReport::default());
}

#[test]
fn reversed_index_conflict_is_a_race() {
    // a[14 - i] crosses a[i] midway through the iteration space.
    let (diags, report) = analyze(
        "int main() {\n\
         \x20 int a[16];\n\
         \x20 #pragma omp parallel for\n\
         \x20 for (int i = 0; i < 15; i += 1)\n\
         \x20   a[14 - i] = a[i] + 1;\n\
         \x20 return a[0];\n\
         }\n",
    );
    assert_eq!(report.warnings, 1, "{diags:?}");
    let warns = messages(&diags, Level::Warning);
    assert!(warns[0].contains("'a[14 - i]' is written"), "{}", warns[0]);
}

#[test]
fn constant_outside_stride_lattice_is_clean() {
    // The write a[2*i] never reaches the odd element a[5].
    let (_, report) = analyze(
        "int main() {\n\
         \x20 int a[32];\n\
         \x20 int x = 0;\n\
         \x20 #pragma omp parallel for\n\
         \x20 for (int i = 0; i < 15; i += 1)\n\
         \x20   a[2 * i] = i + x;\n\
         \x20 return a[0];\n\
         }\n",
    );
    assert_eq!(report, AnalysisReport::default());
}

// ---------------------------------------------------------------------------
// Dependence-gated interchange / reverse / fuse
// ---------------------------------------------------------------------------

#[test]
fn interchange_reversing_a_dependence_is_an_error() {
    // Linearized stencil with dependence (1, -1): direction vector (<, >)
    // becomes (>, <) under the swap — the textbook illegal interchange.
    let (diags, report) = analyze(
        "int main() {\n\
         \x20 int a[64];\n\
         \x20 #pragma omp interchange\n\
         \x20 for (int i = 1; i < 8; i += 1)\n\
         \x20   for (int j = 0; j < 7; j += 1)\n\
         \x20     a[i * 8 + j] = a[(i - 1) * 8 + (j + 1)];\n\
         \x20 return a[9];\n\
         }\n",
    );
    assert_eq!(report.errors, 1, "{diags:?}");
    let errs = messages(&diags, Level::Error);
    assert!(
        errs[0].contains("'#pragma omp interchange' is illegal"),
        "{}",
        errs[0]
    );
    assert!(errs[0].contains("direction vector (<, >)"), "{}", errs[0]);
    let e = diags.iter().find(|d| d.level == Level::Error).unwrap();
    assert!(
        e.notes
            .iter()
            .any(|n| n.message.contains("distance vector (1, -1)")),
        "{:?}",
        e.notes
    );
}

#[test]
fn interchange_of_an_outer_carried_dependence_is_clean() {
    // Dependence (1, 0): direction (<, =) permutes to (=, <) — legal.
    let (_, report) = analyze(
        "int main() {\n\
         \x20 int a[64];\n\
         \x20 #pragma omp interchange\n\
         \x20 for (int i = 1; i < 8; i += 1)\n\
         \x20   for (int j = 0; j < 8; j += 1)\n\
         \x20     a[i * 8 + j] = a[(i - 1) * 8 + j] + 1;\n\
         \x20 return a[9];\n\
         }\n",
    );
    assert_eq!(report, AnalysisReport::default());
}

#[test]
fn interchange_permutation_clause_is_checked() {
    // Rotating (i, j, k) -> (k, i, j) moves the j-carried (=, <, >)
    // dependence to (>, =, <): illegal.
    let (diags, report) = analyze(
        "int main() {\n\
         \x20 int a[512];\n\
         \x20 #pragma omp interchange permutation(3, 1, 2)\n\
         \x20 for (int i = 0; i < 8; i += 1)\n\
         \x20   for (int j = 1; j < 8; j += 1)\n\
         \x20     for (int k = 0; k < 7; k += 1)\n\
         \x20       a[i * 64 + j * 8 + k] = a[i * 64 + (j - 1) * 8 + k + 1];\n\
         \x20 return a[9];\n\
         }\n",
    );
    assert_eq!(report.errors, 1, "{diags:?}");
    let errs = messages(&diags, Level::Error);
    assert!(
        errs[0].contains("direction vector (=, <, >)"),
        "{}",
        errs[0]
    );
}

#[test]
fn reverse_of_a_carried_dependence_is_an_error() {
    let (diags, report) = analyze(
        "int main() {\n\
         \x20 int a[64];\n\
         \x20 a[0] = 1;\n\
         \x20 #pragma omp reverse\n\
         \x20 for (int i = 1; i < 64; i += 1)\n\
         \x20   a[i] = a[i - 1] + 1;\n\
         \x20 return a[9];\n\
         }\n",
    );
    assert_eq!(report.errors, 1, "{diags:?}");
    let errs = messages(&diags, Level::Error);
    assert!(
        errs[0].contains("'#pragma omp reverse' is illegal"),
        "{}",
        errs[0]
    );
    assert!(
        errs[0].contains("carries a flow dependence on 'a'"),
        "{}",
        errs[0]
    );
}

#[test]
fn reverse_of_an_independent_loop_is_clean() {
    let (_, report) = analyze(
        "int main() {\n\
         \x20 int a[64];\n\
         \x20 int b[64];\n\
         \x20 #pragma omp reverse\n\
         \x20 for (int i = 0; i < 64; i += 1)\n\
         \x20   b[i] = a[i] * 2 + b[i];\n\
         \x20 return b[9];\n\
         }\n",
    );
    assert_eq!(report, AnalysisReport::default());
}

#[test]
fn reverse_of_a_scalar_accumulation_is_an_error() {
    // `s` is live across iterations: classical dependence analysis cannot
    // prove the reversed reassociation safe.
    let (diags, report) = analyze(
        "int main() {\n\
         \x20 int a[64];\n\
         \x20 int s = 0;\n\
         \x20 #pragma omp reverse\n\
         \x20 for (int i = 0; i < 64; i += 1)\n\
         \x20   s = s - a[i];\n\
         \x20 return s;\n\
         }\n",
    );
    assert_eq!(report.errors, 1, "{diags:?}");
    let errs = messages(&diags, Level::Error);
    assert!(errs[0].contains("dependence on 's'"), "{}", errs[0]);
}

#[test]
fn fuse_with_a_negative_distance_dependence_is_an_error() {
    // Loop 2 writes a[j + 4], which iteration j + 4 of loop 1 already read:
    // fused, the write moves before the read.
    let (diags, report) = analyze(
        "int main() {\n\
         \x20 int a[70];\n\
         \x20 int b[64];\n\
         \x20 #pragma omp fuse\n\
         \x20 {\n\
         \x20   for (int i = 0; i < 64; i += 1) b[i] = a[i] * 2;\n\
         \x20   for (int j = 0; j < 64; j += 1) a[j + 4] = j;\n\
         \x20 }\n\
         \x20 return b[9];\n\
         }\n",
    );
    assert_eq!(report.errors, 1, "{diags:?}");
    let errs = messages(&diags, Level::Error);
    assert!(
        errs[0].contains("'#pragma omp fuse' is illegal"),
        "{}",
        errs[0]
    );
    assert!(
        errs[0].contains("negative-distance anti dependence"),
        "{}",
        errs[0]
    );
    assert!(errs[0].contains("(distance -4)"), "{}", errs[0]);
}

#[test]
fn fuse_of_a_forward_producer_consumer_is_clean() {
    // Loop 2 reads what loop 1 wrote in the *same* iteration: distance 0.
    let (_, report) = analyze(
        "int main() {\n\
         \x20 int a[64];\n\
         \x20 int b[64];\n\
         \x20 #pragma omp fuse\n\
         \x20 {\n\
         \x20   for (int i = 0; i < 64; i += 1) a[i] = i * 3;\n\
         \x20   for (int j = 0; j < 64; j += 1) b[j] = a[j] + 1;\n\
         \x20 }\n\
         \x20 return b[9];\n\
         }\n",
    );
    assert_eq!(report, AnalysisReport::default());
}

#[test]
fn fuse_over_a_shared_element_is_an_error() {
    // Loop 1 writes a[0] on every iteration; loop 2 reads it. Originally
    // every read sees the final write — fused, early reads see early writes.
    let (diags, report) = analyze(
        "int main() {\n\
         \x20 int a[4];\n\
         \x20 int b[64];\n\
         \x20 #pragma omp fuse\n\
         \x20 {\n\
         \x20   for (int i = 0; i < 64; i += 1) a[0] = i;\n\
         \x20   for (int j = 0; j < 64; j += 1) b[j] = a[0];\n\
         \x20 }\n\
         \x20 return b[9];\n\
         }\n",
    );
    assert_eq!(report.errors, 1, "{diags:?}");
    let errs = messages(&diags, Level::Error);
    assert!(errs[0].contains("(distance *)"), "{}", errs[0]);
}

#[test]
fn unanalyzable_subscript_is_an_analysis_limit_note() {
    // Indirect subscript: the pass must say it cannot verify, not guess.
    let (diags, report) = analyze(
        "int main() {\n\
         \x20 int a[64];\n\
         \x20 int idx[64];\n\
         \x20 #pragma omp reverse\n\
         \x20 for (int i = 0; i < 64; i += 1)\n\
         \x20   a[idx[i]] = i;\n\
         \x20 return a[9];\n\
         }\n",
    );
    assert_eq!(report.errors, 0, "{diags:?}");
    assert_eq!(report.warnings, 1, "{diags:?}");
    let warns = messages(&diags, Level::Warning);
    assert!(
        warns[0].contains("cannot verify the legality"),
        "{}",
        warns[0]
    );
    assert!(warns[0].ends_with("[-Wanalysis-limit]"), "{}", warns[0]);
    let w = diags.iter().find(|d| d.level == Level::Warning).unwrap();
    assert!(
        w.notes.iter().any(|n| n.message.contains("not affine")),
        "{:?}",
        w.notes
    );
}

#[test]
fn dependence_graph_api_reports_vectors() {
    use omplt_analysis::{depend::DependenceGraph, Direction};
    use omplt_ast::{Decl, StmtKind};

    let (tu, _) = parse(
        "int main() {\n\
         \x20 int a[64];\n\
         \x20 #pragma omp interchange\n\
         \x20 for (int i = 1; i < 8; i += 1)\n\
         \x20   for (int j = 0; j < 7; j += 1)\n\
         \x20     a[i * 8 + j] = a[(i - 1) * 8 + (j + 1)];\n\
         \x20 return a[9];\n\
         }\n",
    );
    let Some(Decl::Function(f)) = tu.decls.first() else {
        panic!("no function");
    };
    let body = f.body.borrow();
    let StmtKind::Compound(stmts) = &body.as_ref().unwrap().kind else {
        panic!("no body");
    };
    // The graph is built from what Sema resolved for the directive: no
    // second walk, no second analysis.
    let interchange = stmts.iter().find_map(|s| match &s.kind {
        StmtKind::OMP(d) => Some(d),
        _ => None,
    });
    let nest = &interchange.expect("directive").nest;
    assert_eq!(nest.len(), 2, "one level per associated loop");
    let graph = DependenceGraph::compute(nest, &tu.idents);
    assert!(graph.is_complete(), "{:?}", graph.limits);
    assert_eq!(graph.depth, 2);
    assert_eq!(graph.deps.len(), 1, "{:?}", graph.deps);
    let dep = &graph.deps[0];
    assert_eq!(dep.directions, vec![Direction::Lt, Direction::Gt]);
    assert_eq!(dep.distances, vec![Some(1), Some(-1)]);
    assert_eq!(dep.direction_vector(), "(<, >)");
    assert_eq!(dep.distance_vector(), "(1, -1)");
    assert_eq!(dep.carried_level(), Some(0));
    assert!(graph.carried_at(0).is_some());
    assert!(graph.interchange_violation(&[1, 0]).is_some());
    assert!(graph.interchange_violation(&[0, 1]).is_none());
}

/// One refusal per `return`, reported by the directive whose region it
/// sits in: a nested directive answers for its own region, so the outer one
/// stays silent about it.
#[test]
fn nested_directive_answers_for_its_own_returns() {
    let (_, diags) = sema(
        "int f() {\n\
         \x20 #pragma omp parallel for\n\
         \x20 #pragma omp unroll partial(2)\n\
         \x20 for (int i = 0; i < 8; i += 1)\n\
         \x20   if (i == 3) return 1;\n\
         \x20 return 0;\n\
         }\n",
    );
    let errs = messages(&diags.all(), Level::Error);
    assert_eq!(errs.len(), 1, "{errs:?}");
    assert!(
        errs[0].ends_with("associated with '#pragma omp unroll partial(2)'"),
        "{}",
        errs[0]
    );
}

/// Declarations sharing a block with the *outermost* loop run before the
/// nest with or without the transformation: Sema accepts them and the
/// dependence pass judges the nest behind them.
#[test]
fn declarations_beside_the_outermost_loop_are_not_intervening() {
    let (diags, report) = analyze(
        "int main() {\n\
         \x20 int a[64];\n\
         \x20 #pragma omp interchange\n\
         \x20 {\n\
         \x20   int t = 0;\n\
         \x20   for (int i = 0; i < 8; i += 1)\n\
         \x20     for (int j = 0; j < 8; j += 1)\n\
         \x20       a[i * 8 + j] = t;\n\
         \x20 }\n\
         \x20 return a[0];\n\
         }\n",
    );
    assert_eq!(report, AnalysisReport::default(), "{diags:?}");
}

/// One pass judges the order-changing directives, `simd` — a `simd`
/// bounded below two lanes is a warning, not an error — and races, each
/// finding reported once, in source order.
#[test]
fn one_pass_reports_every_finding_once() {
    let src = "int main() {\n\
         \x20 int a[64];\n\
         \x20 int sum = 0;\n\
         \x20 #pragma omp simd\n\
         \x20 for (int i = 0; i < 63; i += 1)\n\
         \x20   a[i + 1] = a[i] + 1;\n\
         \x20 #pragma omp reverse\n\
         \x20 for (int i = 0; i < 8; i += 1)\n\
         \x20   a[i * i] = i;\n\
         \x20 #pragma omp parallel for\n\
         \x20 for (int i = 0; i < 8; i += 1)\n\
         \x20   sum += a[i];\n\
         \x20 return sum;\n\
         }\n";
    let (all, report) = analyze(src);
    assert_eq!((report.errors, report.warnings), (0, 3), "{all:?}");
    assert!(all[0].message.contains("'#pragma omp simd' is not applied"));
    assert!(all[1].message.contains("'#pragma omp reverse'"));
    assert!(all[2].message.ends_with("[-Wrace]"));
}

/// The lanes the gate records on each `simd` directive, in source order.
fn simd_lanes(src: &str) -> Vec<Option<u64>> {
    use omplt_ast::{walk_stmt, Decl, Stmt, StmtKind, StmtVisitor, P};
    struct Lanes(Vec<Option<u64>>);
    impl StmtVisitor for Lanes {
        fn visit_stmt(&mut self, s: &P<Stmt>) {
            if let StmtKind::OMP(d) = &s.kind {
                if d.kind.has_simd() {
                    self.0.push(d.simd_lanes.get());
                }
            }
            walk_stmt(self, s);
        }
    }
    let (tu, diags) = parse(src);
    run_analyses(&tu, &diags);
    let mut lanes = Lanes(Vec::new());
    for d in &tu.decls {
        if let Decl::Function(f) = d {
            if let Some(body) = f.body.borrow().as_ref() {
                lanes.visit_stmt(body);
            }
        }
    }
    lanes.0
}

#[test]
fn simd_lanes_follow_the_one_dependence_rule() {
    let unbounded = Some(u64::MAX);
    let cases: [(&str, Option<u64>); 14] = [
        // Sink first in the body: the distance bounds the lanes.
        ("a[i] = a[i - 1] + 1;", Some(1)),
        ("a[i] = a[i - 3] + 1;", Some(3)),
        // Source first: lock-step lanes keep the order.
        ("a[i] = 3 * i; b[i] = a[i - 1];", unbounded),
        // Scalars: written first, privatized, or carried.
        ("t = b[i] * 2; a[i] = t + 1;", unbounded),
        ("if (b[i] > 0) t = b[i]; a[i] = t;", Some(1)),
        ("s = s + b[i];", Some(1)),
        // Only a written variable's subscripts must be modeled.
        ("a[i] = b[idx[i]] + 1;", unbounded),
        ("a[idx[i]] = b[i];", Some(1)),
        // A local stands for its initializer.
        ("int k = 2 * i; a[k + 1] = a[k] + 1;", unbounded),
        ("int k = i + 1; a[k] = a[i] + 1;", Some(1)),
        // Pointers may alias any other base, but reads alias harmlessly.
        ("p[i] = b[i];", Some(1)),
        ("a[i] = p[i];", Some(1)),
        ("p[i] = p[i] + 1;", unbounded),
        ("t = p[i] + b[i];", unbounded),
    ];
    for (body, want) in cases {
        let src = format!(
            "int a[64];\nint b[64];\nint idx[64];\n\
             int f(int *p) {{\n  int s = 0;\n  int t = 0;\n\
             \x20 #pragma omp simd\n  for (int i = 8; i < 24; i += 1) {{ {body} }}\n\
             \x20 return s + t;\n}}\n"
        );
        assert_eq!(simd_lanes(&src), [want], "{body}");
    }

    // `reduction` privatizes the accumulator.
    let reduced = "int a[64];\nint f() {\n  int s = 0;\n  #pragma omp simd reduction(+: s)\n\
                   \x20 for (int i = 0; i < 64; i += 1)\n    s = s + a[i];\n  return s;\n}\n";
    assert_eq!(simd_lanes(reduced), [unbounded]);

    // Under `collapse`, distances are linearised over the collapsed space:
    // (1, 0) is a whole row of 8 iterations apart, (0, 2) two.
    let collapsed = |stmt: &str, j_bound: &str| {
        format!(
            "int a[9][10];\nint f(int n) {{\n  #pragma omp simd collapse(2)\n\
             \x20 for (int i = 1; i < 9; i += 1)\n    for (int j = 0; j < {j_bound}; j += 1)\n\
             \x20     {stmt}\n  return a[1][1];\n}}\n"
        )
    };
    assert_eq!(
        simd_lanes(&collapsed("a[i][j] = a[i - 1][j] + 1;", "8")),
        [Some(8)]
    );
    assert_eq!(
        simd_lanes(&collapsed("a[i][j + 2] = a[i][j] + 1;", "8")),
        [Some(2)]
    );
    // A row apart over a symbolic row length is no provable lane count.
    assert_eq!(
        simd_lanes(&collapsed("a[i][j] = a[i - 1][j] + 1;", "n")),
        [Some(1)]
    );

    // Over a generated loop, the re-materialized user counter is looked
    // through: `simd` over `reverse` of an independent loop keeps its lanes.
    let stacked = "int a[64];\nint f() {\n  #pragma omp simd\n  #pragma omp reverse\n\
                   \x20 for (int i = 0; i < 64; i += 1)\n    a[i] = a[i] + 1;\n  return a[0];\n}\n";
    assert_eq!(simd_lanes(stacked), [unbounded]);
}

/// What the nest only reads carries no dependence, modeled or not.
#[test]
fn an_unmodeled_read_is_no_analysis_limit() {
    let (diags, report) = analyze(
        "int main() {\n\
         \x20 int x[64];\n\
         \x20 int y[64];\n\
         \x20 int idx[64];\n\
         \x20 #pragma omp reverse\n\
         \x20 for (int i = 0; i < 64; i += 1)\n\
         \x20   y[i] = x[idx[i]] + 1;\n\
         \x20 return y[9];\n\
         }\n",
    );
    assert_eq!(report, AnalysisReport::default(), "{diags:?}");
}

#[test]
fn multidim_subscripts_are_linearized_for_dependence() {
    // `a[i][j] = a[i-1][j+1]` carries a (<, >) flow dependence; the chain
    // must be folded to `9*i + j` against the array's dimensions, exactly
    // like the hand-linearized form.
    let (diags, _) = analyze(
        "int main() {\n\
         \x20 int a[9][9];\n\
         \x20 #pragma omp interchange\n\
         \x20 for (int i = 1; i < 8; i += 1)\n\
         \x20   for (int j = 1; j < 8; j += 1)\n\
         \x20     a[i][j] = a[i - 1][j + 1] + 1;\n\
         \x20 return a[4][4];\n\
         }\n",
    );
    let errors = messages(&diags, Level::Error);
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(
        errors[0].contains("interchange") && errors[0].contains("(<, >)"),
        "{errors:?}"
    );
}

#[test]
fn multidim_subscripts_are_linearized_for_races() {
    // Every iteration writes the same 2D element: a provable race.
    let (diags, _) = analyze(
        "int main() {\n\
         \x20 int a[8][8];\n\
         \x20 #pragma omp parallel for\n\
         \x20 for (int i = 0; i < 8; i += 1)\n\
         \x20   a[3][2] += i;\n\
         \x20 return 0;\n\
         }\n",
    );
    let warnings = messages(&diags, Level::Warning);
    assert!(
        warnings.iter().any(|m| m.contains("-Wrace")),
        "{warnings:?}"
    );

    // Distinct rows per iteration: no race, no warning.
    let (diags, _) = analyze(
        "int main() {\n\
         \x20 int a[8][8];\n\
         \x20 #pragma omp parallel for\n\
         \x20 for (int i = 0; i < 8; i += 1)\n\
         \x20   a[i][3] = i;\n\
         \x20 return 0;\n\
         }\n",
    );
    assert!(messages(&diags, Level::Warning).is_empty(), "{diags:?}");
}
