//! Golden tests for `DiagnosticsEngine::render` over legality and analysis
//! findings: the exact Clang-style text (level, `file:line:col`, carets,
//! attached notes) is part of the user interface and must not drift. Which
//! call the text comes from is pinned too: a refusal is `parse_source`'s
//! `Err`, a warning rides on its `Ok` — every compile gets both.

use omplt::{CompilerInstance, OpenMpCodegenMode, Options};

/// The warnings every compile reports on a source it accepts.
fn analyze_and_render(name: &str, src: &str) -> String {
    let mut ci = CompilerInstance::new(Options::default());
    ci.parse_source(name, src)
        .expect("a warning, not a refusal");
    ci.render_diags()
}

/// The rendered refusal of a source no compile accepts.
fn refusal(name: &str, src: &str) -> String {
    CompilerInstance::new(Options::default())
        .parse_source(name, src)
        .expect_err("the legality rules refuse this source")
}

/// What a source no compile accepts is refused with, on both lowering
/// paths, which must agree: the rendered text and the JSON document.
fn refusal_on_both_paths(name: &str, src: &str) -> (String, String) {
    let [classic, irbuilder] =
        [OpenMpCodegenMode::Classic, OpenMpCodegenMode::IrBuilder].map(|codegen_mode| {
            let mut ci = CompilerInstance::new(Options {
                codegen_mode,
                ..Options::default()
            });
            let text = ci.parse_source(name, src).expect_err("refused");
            (text, ci.render_diags_json())
        });
    assert_eq!(classic, irbuilder, "the lowering paths disagree");
    classic
}

/// Regression: IrBuilder mode analysed the loop a second time to wrap it in
/// `OMPCanonicalLoop` and reported its malformation again.
#[test]
fn malformed_loop_is_reported_once_on_both_paths() {
    let src = "\
int main(void) {
  int n = 4;
  #pragma omp parallel for
  for (int i = 0; i != n * 2; i *= 2)
    n = n + 0;
  #pragma omp tile sizes(4)
  for (int j = 1; j < n; j *= 2)
    n = n + 0;
  return 0;
}
";
    let text = "\
inc.c:4:33: error: increment clause of OpenMP for loop is not in canonical form
  for (int i = 0; i != n * 2; i *= 2)
                                ^
inc.c:7:28: error: increment clause of OpenMP for loop is not in canonical form
  for (int j = 1; j < n; j *= 2)
                           ^
";
    let json = "[{\"level\":\"error\",\"message\":\"increment clause of OpenMP for loop is not \
                in canonical form\",\"file\":\"inc.c\",\"line\":4,\"column\":33,\"notes\":[]},\
                {\"level\":\"error\",\"message\":\"increment clause of OpenMP for loop is not \
                in canonical form\",\"file\":\"inc.c\",\"line\":7,\"column\":28,\"notes\":[]}]\n";
    assert_eq!(
        refusal_on_both_paths("inc.c", src),
        (text.to_string(), json.to_string())
    );
}

/// Regression: the outlined region is a `void` function, and the `return`
/// reached the IR verifier ("ret with value in void function", no location).
#[test]
fn return_out_of_a_parallel_block_renders_exactly() {
    let src = "\
int main(void) {
  #pragma omp parallel num_threads(2)
  {
    return 1;
  }
  return 0;
}
";
    let text = "\
ret.c:4:5: error: cannot 'return' out of the structured block of '#pragma omp parallel num_threads(2)'
    return 1;
    ^
ret.c:2:11: note: enclosing '#pragma omp parallel num_threads(2)' construct begins here
  #pragma omp parallel num_threads(2)
          ^
";
    let json = "[{\"level\":\"error\",\"message\":\"cannot 'return' out of the structured block \
                of '#pragma omp parallel num_threads(2)'\",\"file\":\"ret.c\",\"line\":4,\
                \"column\":5,\"notes\":[{\"level\":\"note\",\"message\":\"enclosing '#pragma omp \
                parallel num_threads(2)' construct begins here\",\"file\":\"ret.c\",\"line\":2,\
                \"column\":11,\"notes\":[]}]}]\n";
    assert_eq!(
        refusal_on_both_paths("ret.c", src),
        (text.to_string(), json.to_string())
    );
}

/// A range below the outermost level is set up in front of the nest, so a
/// range reading an outer counter makes the nest non-rectangular; the
/// refusal points at the counter in the range.
#[test]
fn range_reading_an_outer_counter_renders_exactly() {
    let src = "\
void print_i64(long v);
long m[2][4];
int main(void) {
  #pragma omp for collapse(2)
  for (int i = 0; i < 2; i++)
    for (long &v : m[i])
      print_i64(v);
  return 0;
}
";
    let text = "\
rect.c:6:22: error: loop nest associated with '#pragma omp for' must be rectangular: bound of loop 2 depends on iteration variable 'i'
    for (long &v : m[i])
                     ^
rect.c:5:12: note: iteration variable 'i' declared here
  for (int i = 0; i < 2; i++)
           ^
";
    let json = "[{\"level\":\"error\",\"message\":\"loop nest associated with '#pragma omp \
                for' must be rectangular: bound of loop 2 depends on iteration variable 'i'\",\
                \"file\":\"rect.c\",\"line\":6,\"column\":22,\"notes\":[{\"level\":\"note\",\
                \"message\":\"iteration variable 'i' declared here\",\"file\":\"rect.c\",\
                \"line\":5,\"column\":12,\"notes\":[]}]}]\n";
    assert_eq!(
        refusal_on_both_paths("rect.c", src),
        (text.to_string(), json.to_string())
    );
}

/// A consumed transformation's `.capture_expr.` declarations are set up in
/// front of the nest as well, so a transformed inner loop whose bound reads
/// an outer counter makes the nest non-rectangular too; the refusal points
/// at the counter in the bound.
#[test]
fn captured_bound_reading_an_outer_counter_renders_exactly() {
    let text = "\
rect.c:6:25: error: loop nest associated with '#pragma omp for' must be rectangular: bound of loop 2 depends on iteration variable 'i'
    for (int j = 0; j < i; j++)
                        ^
rect.c:4:12: note: iteration variable 'i' declared here
  for (int i = 0; i < 6; i++) {
           ^
";
    let json = "[{\"level\":\"error\",\"message\":\"loop nest associated with '#pragma omp \
                for' must be rectangular: bound of loop 2 depends on iteration variable 'i'\",\
                \"file\":\"rect.c\",\"line\":6,\"column\":25,\"notes\":[{\"level\":\"note\",\
                \"message\":\"iteration variable 'i' declared here\",\"file\":\"rect.c\",\
                \"line\":4,\"column\":12,\"notes\":[]}]}]\n";
    for inner in ["tile sizes(4)", "unroll partial(2)"] {
        let src = format!(
            "void print_i64(long v);
int main(void) {{
  #pragma omp for collapse(2)
  for (int i = 0; i < 6; i++) {{
    #pragma omp {inner}
    for (int j = 0; j < i; j++)
      print_i64(i * 10 + j);
  }}
  return 0;
}}
"
        );
        assert_eq!(
            refusal_on_both_paths("rect.c", &src),
            (text.to_string(), json.to_string()),
            "{inner}"
        );
    }
}

#[test]
fn race_warning_renders_exactly() {
    let src = "\
int main(void) {
  int sum = 0;
  int a[8];
  #pragma omp parallel for
  for (int i = 0; i < 8; i += 1)
    sum += a[i];
  return sum;
}
";
    let expected = "\
race.c:6:5: warning: writing to shared variable 'sum' inside '#pragma omp parallel for' is a data race [-Wrace]
    sum += a[i];
    ^
race.c:6:5: note: 'sum' read here
    sum += a[i];
    ^
race.c:4:11: note: 'sum' is shared by all threads of '#pragma omp parallel for'; consider a 'private(sum)' or 'reduction(+: sum)' clause
  #pragma omp parallel for
          ^
";
    assert_eq!(analyze_and_render("race.c", src), expected);
}

#[test]
fn legality_error_renders_exactly() {
    let src = "\
int main(void) {
  int a[64];
  #pragma omp tile sizes(4, 4)
  for (int i = 0; i < 8; i += 1) {
    int t = i * 8;
    for (int j = 0; j < 8; j += 1)
      a[t + j] = t;
  }
  return 0;
}
";
    let expected = "\
tile.c:5:5: error: loop nest after '#pragma omp tile sizes(4, 4)' must be perfectly nested: statement is not part of the loop at depth 2
    int t = i * 8;
    ^
tile.c:3:11: note: '#pragma omp tile sizes(4, 4)' requires 2 perfectly nested loops here
  #pragma omp tile sizes(4, 4)
          ^
";
    assert_eq!(refusal("tile.c", src), expected);
}

#[test]
fn loop_carried_warning_renders_exactly() {
    let src = "\
int main(void) {
  int a[16];
  #pragma omp parallel for
  for (int i = 0; i < 15; i += 1)
    a[i] = a[i + 1] + 1;
  return 0;
}
";
    let expected = "\
carried.c:5:6: warning: loop-carried access to shared array 'a' in '#pragma omp parallel for': 'a[i]' is written while 'a[i + 1]' is read by a different iteration [-Wrace]
    a[i] = a[i + 1] + 1;
     ^
carried.c:5:13: note: conflicting read here
    a[i] = a[i + 1] + 1;
            ^
";
    assert_eq!(analyze_and_render("carried.c", src), expected);
}

#[test]
fn malformed_schedule_chunk_renders_exactly() {
    let src = "\
void body(int i);
void f(void) {
  #pragma omp parallel for schedule(dynamic, 0)
  for (int i = 0; i < 8; i += 1)
    body(i);
}
";
    let expected = "\
chunk.c:3:46: error: chunk size of 'schedule' clause must be positive
  #pragma omp parallel for schedule(dynamic, 0)
                                             ^
";
    let mut ci = CompilerInstance::new(Options::default());
    let err = ci
        .parse_source("chunk.c", src)
        .expect_err("non-positive chunk must be rejected");
    assert_eq!(err, expected);
}

#[test]
fn chunk_on_runtime_schedule_renders_exactly() {
    let src = "\
void body(int i);
void f(void) {
  #pragma omp parallel for schedule(runtime, 2)
  for (int i = 0; i < 8; i += 1)
    body(i);
}
";
    let expected = "\
rt.c:3:28: error: schedule kind 'runtime' does not take a chunk size
  #pragma omp parallel for schedule(runtime, 2)
                           ^
";
    let mut ci = CompilerInstance::new(Options::default());
    let err = ci
        .parse_source("rt.c", src)
        .expect_err("chunked runtime schedule must be rejected");
    assert_eq!(err, expected);
}

#[test]
fn malformed_schedule_chunk_json_golden() {
    let src = "\
void f(void) {
  #pragma omp parallel for schedule(guided, -3)
  for (int i = 0; i < 8; i += 1)
    ;
}
";
    let mut ci = CompilerInstance::new(Options::default());
    ci.parse_source("cj.c", src)
        .expect_err("negative chunk must be rejected");
    let json = ci.render_diags_json();
    assert!(
        json.starts_with(
            "[{\"level\":\"error\",\"message\":\"chunk size of 'schedule' clause must be positive\""
        ),
        "{json}"
    );
    assert!(
        json.contains("\"file\":\"cj.c\",\"line\":2,\"column\":45"),
        "{json}"
    );
}

/// Regression: `collapse(0)` used to drive `build_loop_helpers` with an
/// empty loop-nest and panic (`index out of bounds` in omp_sema). It must be
/// an ordinary diagnostic.
#[test]
fn collapse_zero_is_a_diagnostic_not_a_panic() {
    let src = "\
int main(void) {
  int a[8];
  #pragma omp for collapse(0)
  for (int i = 0; i < 8; i += 1)
    a[i] = i;
  return 0;
}
";
    let expected = "\
c0.c:3:28: error: argument to 'collapse' must be positive
  #pragma omp for collapse(0)
                           ^
";
    let mut ci = CompilerInstance::new(Options::default());
    let err = ci
        .parse_source("c0.c", src)
        .expect_err("collapse(0) must be rejected");
    assert_eq!(err, expected);
}

/// Regression: a multi-byte UTF-8 character in the source used to panic the
/// caret renderer ("not a char boundary" in `SourceManager::line_text`) and
/// produced one error per continuation byte. It must be a single diagnostic
/// with the offending line echoed intact.
#[test]
fn non_ascii_character_is_a_diagnostic_not_a_panic() {
    let src = "int \u{2014};\n";
    let mut ci = CompilerInstance::new(Options::default());
    let err = ci
        .parse_source("u8.c", src)
        .expect_err("non-ASCII identifier must be rejected");
    assert!(
        err.starts_with("u8.c:1:5: error: unexpected non-ASCII character\nint \u{2014};\n"),
        "{err}"
    );
    assert_eq!(
        err.matches("unexpected non-ASCII").count(),
        1,
        "one diagnostic per character, not per byte:\n{err}"
    );
}

#[test]
fn illegal_interchange_renders_exactly() {
    // The textbook (<, >) violation on a linearized stencil: the error names
    // the dependence kind and direction vector, and the notes pin source and
    // sink accesses with the distance vector.
    let src = "\
int main(void) {
  int a[64];
  #pragma omp interchange
  for (int i = 1; i < 8; i += 1)
    for (int j = 0; j < 7; j += 1)
      a[i * 8 + j] = a[(i - 1) * 8 + (j + 1)];
  return a[9];
}
";
    let expected = "\
ic.c:3:11: error: '#pragma omp interchange' is illegal here: interchanging the loops would reverse the flow dependence on 'a' with direction vector (<, >)
  #pragma omp interchange
          ^
ic.c:6:8: note: dependence source: access to 'a[8*i + j]'
      a[i * 8 + j] = a[(i - 1) * 8 + (j + 1)];
       ^
ic.c:6:23: note: dependence sink: access to 'a[8*i + j - 7]' (distance vector (1, -1))
      a[i * 8 + j] = a[(i - 1) * 8 + (j + 1)];
                      ^
";
    assert_eq!(refusal("ic.c", src), expected);
}

#[test]
fn illegal_fuse_renders_exactly() {
    // Loop 2 overwrites elements loop 1 still needs four iterations later:
    // fused, the write would move before the read (distance -4).
    let src = "\
int main(void) {
  int a[70];
  int b[64];
  #pragma omp fuse
  {
    for (int i = 0; i < 64; i += 1) b[i] = a[i] * 2;
    for (int j = 0; j < 64; j += 1) a[j + 4] = j;
  }
  return b[9];
}
";
    let expected = "\
fuse.c:4:11: error: '#pragma omp fuse' is illegal here: fusing loops 1 and 2 creates a negative-distance anti dependence on 'a' (distance -4)
  #pragma omp fuse
          ^
fuse.c:6:45: note: dependence source: access to 'a[i]'
    for (int i = 0; i < 64; i += 1) b[i] = a[i] * 2;
                                            ^
fuse.c:7:38: note: dependence sink: access to 'a[j + 4]' (distance vector (-4))
    for (int j = 0; j < 64; j += 1) a[j + 4] = j;
                                     ^
";
    assert_eq!(refusal("fuse.c", src), expected);
}

#[test]
fn analysis_limit_note_renders_exactly() {
    // An indirect subscript defeats the subscript tests; the pass must say
    // so (warning + note naming the access) instead of passing judgement.
    let src = "\
int main(void) {
  int a[64];
  int idx[64];
  #pragma omp reverse
  for (int i = 0; i < 64; i += 1)
    a[idx[i]] = i;
  return a[9];
}
";
    let expected = "\
lim.c:4:11: warning: cannot verify the legality of '#pragma omp reverse': some accesses are beyond the dependence tests [-Wanalysis-limit]
  #pragma omp reverse
          ^
lim.c:6:10: note: 'a': subscript is not affine in the loop iteration variables
    a[idx[i]] = i;
         ^
";
    // "Cannot disprove" lets the compile through, with the warning on it;
    // `--analyze` counts it as a finding.
    let mut ci = CompilerInstance::new(Options::default());
    ci.parse_source("lim.c", src)
        .expect("a warning, not a refusal");
    assert_eq!(ci.render_diags(), expected);
    let report = ci.analysis();
    assert_eq!((report.errors, report.warnings), (0, 1));
}

#[test]
fn illegal_reverse_renders_json_exactly() {
    // The acceptance case: the same dependence violation, as machine-
    // readable JSON with nested notes.
    let src = "\
int main(void) {
  int a[64];
  a[0] = 1;
  #pragma omp reverse
  for (int i = 1; i < 64; i += 1)
    a[i] = a[i - 1] + 1;
  return a[9];
}
";
    let mut ci = CompilerInstance::new(Options::default());
    ci.parse_source("rev.c", src)
        .expect_err("the dependence gate refuses the reversal");
    let expected = "[{\"level\":\"error\",\"message\":\"'#pragma omp reverse' is illegal here: \
                    the loop carries a flow dependence on 'a' with direction vector (<)\",\
                    \"file\":\"rev.c\",\"line\":4,\"column\":11,\"notes\":[{\"level\":\"note\",\
                    \"message\":\"dependence source: access to 'a[i]'\",\"file\":\"rev.c\",\
                    \"line\":6,\"column\":6,\"notes\":[]},{\"level\":\"note\",\"message\":\
                    \"dependence sink: access to 'a[i - 1]' (distance vector (1))\",\
                    \"file\":\"rev.c\",\"line\":6,\"column\":13,\"notes\":[]}]}]\n";
    assert_eq!(ci.render_diags_json(), expected);
}

#[test]
fn json_rendering_matches_text_locations() {
    let src = "\
int main(void) {
  int s = 0;
  #pragma omp parallel for
  for (int i = 0; i < 8; i += 1)
    s = i;
  return s;
}
";
    let mut ci = CompilerInstance::new(Options::default());
    ci.parse_source("j.c", src).expect("parses");
    let report = ci.analysis();
    assert_eq!((report.errors, report.warnings), (0, 1));
    let json = ci.render_diags_json();
    assert!(
        json.starts_with("[{\"level\":\"warning\",\"message\":\"writing to shared variable 's'"),
        "{json}"
    );
    assert!(
        json.contains("\"file\":\"j.c\",\"line\":5,\"column\":5"),
        "{json}"
    );
    assert!(json.ends_with("]\n"), "{json}");
}

#[test]
fn illegal_simd_renders_exactly() {
    let src = "\
int main(void) {
  int a[64];
  for (int i = 0; i < 64; i += 1)
    a[i] = i;
  #pragma omp simd
  for (int i = 0; i < 63; i += 1)
    a[i + 1] = a[i] + 1;
  return 0;
}
";
    let expected = "\
simd.c:5:11: warning: '#pragma omp simd' is not applied: concurrent lanes would violate the loop-carried flow dependence on 'a' with distance vector (1) [-Wpass-failed=transform-warning]
  #pragma omp simd
          ^
simd.c:7:6: note: dependence source: access to 'a[i + 1]'
    a[i + 1] = a[i] + 1;
     ^
simd.c:7:17: note: dependence sink: access to 'a[i]' (distance vector (1))
    a[i + 1] = a[i] + 1;
                ^
";
    // The lanes are decided on every compile: the loop compiles, runs
    // scalar, and says why; `--analyze` counts the warning as a finding.
    let mut ci = CompilerInstance::new(Options::default());
    ci.parse_source("simd.c", src)
        .expect("a warning, not a refusal");
    assert_eq!(ci.render_diags(), expected);
    let report = ci.analysis();
    assert_eq!((report.errors, report.warnings), (0, 1));
}

#[test]
fn simdlen_exceeding_safelen_is_rejected() {
    let src = "\
int main(void) {
  int a[64];
  #pragma omp simd safelen(2) simdlen(4)
  for (int i = 0; i < 64; i += 1)
    a[i] = i;
  return 0;
}
";
    let mut ci = CompilerInstance::new(Options::default());
    assert!(ci.parse_source("cap.c", src).is_err(), "sema must reject");
    let rendered = ci.render_diags();
    assert!(
        rendered.contains("'simdlen(4)' must not be greater than 'safelen(2)'"),
        "unexpected rendering:\n{rendered}"
    );
}

#[test]
fn safelen_on_non_simd_directive_is_rejected() {
    let src = "\
int main(void) {
  int a[64];
  #pragma omp for safelen(4)
  for (int i = 0; i < 64; i += 1)
    a[i] = i;
  return 0;
}
";
    let mut ci = CompilerInstance::new(Options::default());
    assert!(ci.parse_source("cl.c", src).is_err(), "sema must reject");
    let rendered = ci.render_diags();
    assert!(
        rendered.contains("clause 'safelen' is not valid on '#pragma omp for'"),
        "unexpected rendering:\n{rendered}"
    );
}

/// The clause catalog's "at most once" column: a repeated clause is an
/// error at its second occurrence (it used to compile silently, the first
/// clause winning). Data-sharing clauses may repeat.
#[test]
fn repeated_clause_renders_exactly() {
    let src = "\
void body(int i);
void f(void) {
  int s = 0;
  int t = 0;
  #pragma omp tile sizes(4) sizes(8)
  for (int i = 0; i < 8; i += 1)
    body(i);
  #pragma omp for schedule(static) schedule(dynamic)
  for (int i = 0; i < 8; i += 1)
    body(i);
  #pragma omp unroll partial(2) partial(4)
  for (int i = 0; i < 8; i += 1)
    body(i);
  #pragma omp interchange permutation(2, 1) permutation(1, 2)
  for (int i = 0; i < 8; i += 1)
    for (int j = 0; j < 8; j += 1)
      body(i + j);
  #pragma omp parallel for private(s) private(t) nowait nowait
  for (int i = 0; i < 8; i += 1)
    body(i);
}
";
    let expected = "\
dup.c:5:29: error: directive '#pragma omp tile' cannot contain more than one 'sizes' clause
  #pragma omp tile sizes(4) sizes(8)
                            ^
dup.c:8:36: error: directive '#pragma omp for' cannot contain more than one 'schedule' clause
  #pragma omp for schedule(static) schedule(dynamic)
                                   ^
dup.c:11:33: error: directive '#pragma omp unroll' cannot contain more than one 'partial' clause
  #pragma omp unroll partial(2) partial(4)
                                ^
dup.c:14:45: error: directive '#pragma omp interchange' cannot contain more than one 'permutation' clause
  #pragma omp interchange permutation(2, 1) permutation(1, 2)
                                            ^
dup.c:18:57: error: directive '#pragma omp parallel for' cannot contain more than one 'nowait' clause
  #pragma omp parallel for private(s) private(t) nowait nowait
                                                        ^
";
    let mut ci = CompilerInstance::new(Options::default());
    let err = ci
        .parse_source("dup.c", src)
        .expect_err("repeated clauses must be rejected");
    assert_eq!(err, expected);
}

#[test]
fn repeated_clause_json_golden() {
    let src = "\
void f(void) {
  #pragma omp simd safelen(8) simdlen(4) safelen(8) collapse(1) collapse(1)
  for (int i = 0; i < 8; i += 1)
    ;
}
";
    let mut ci = CompilerInstance::new(Options::default());
    ci.parse_source("dj.c", src)
        .expect_err("repeated clauses must be rejected");
    assert_eq!(
        ci.render_diags_json(),
        "[{\"level\":\"error\",\"message\":\"directive '#pragma omp simd' cannot contain more than one 'safelen' clause\",\"file\":\"dj.c\",\"line\":2,\"column\":42,\"notes\":[]},\
         {\"level\":\"error\",\"message\":\"directive '#pragma omp simd' cannot contain more than one 'collapse' clause\",\"file\":\"dj.c\",\"line\":2,\"column\":65,\"notes\":[]}]\n"
    );
}

/// A variable named twice across (or within) the data-sharing clauses of one
/// directive used to compile silently, the last clause winning — so
/// `private(s) reduction(+: s)` printed 0 and `reduction(+: s) private(s)`
/// printed 28. Every second mention is an error with a note at the first.
#[test]
fn repeated_data_sharing_variable_renders_exactly() {
    let src = "\
void f(void) {
  long s = 0;
  long x = 3;
  #pragma omp parallel for private(s) reduction(+: s)
  for (long i = 0; i < 8; i += 1)
    s += i;
  #pragma omp parallel for reduction(+: s) private(s)
  for (long i = 0; i < 8; i += 1)
    s += i;
  #pragma omp parallel for private(x, s, x)
  for (long i = 0; i < 8; i += 1)
    s += i;
  #pragma omp parallel for firstprivate(s) shared(x) reduction(+: s)
  for (long i = 0; i < 8; i += 1)
    s += x;
}
";
    let expected = "\
share.c:4:52: error: variable 's' is named in more than one data-sharing clause of '#pragma omp parallel for' ('private' and 'reduction')
  #pragma omp parallel for private(s) reduction(+: s)
                                                   ^
share.c:4:36: note: first named in this 'private' clause
  #pragma omp parallel for private(s) reduction(+: s)
                                   ^
share.c:7:52: error: variable 's' is named in more than one data-sharing clause of '#pragma omp parallel for' ('reduction' and 'private')
  #pragma omp parallel for reduction(+: s) private(s)
                                                   ^
share.c:7:41: note: first named in this 'reduction' clause
  #pragma omp parallel for reduction(+: s) private(s)
                                        ^
share.c:10:42: error: variable 'x' is named in more than one data-sharing clause of '#pragma omp parallel for' ('private' and 'private')
  #pragma omp parallel for private(x, s, x)
                                         ^
share.c:10:36: note: first named in this 'private' clause
  #pragma omp parallel for private(x, s, x)
                                   ^
share.c:13:67: error: variable 's' is named in more than one data-sharing clause of '#pragma omp parallel for' ('firstprivate' and 'reduction')
  #pragma omp parallel for firstprivate(s) shared(x) reduction(+: s)
                                                                  ^
share.c:13:41: note: first named in this 'firstprivate' clause
  #pragma omp parallel for firstprivate(s) shared(x) reduction(+: s)
                                        ^
";
    let mut ci = CompilerInstance::new(Options::default());
    let err = ci
        .parse_source("share.c", src)
        .expect_err("a variable in two data-sharing clauses must be rejected");
    assert_eq!(err, expected);
}

#[test]
fn repeated_data_sharing_variable_json_golden() {
    let src = "\
void f(void) {
  long x = 3;
  #pragma omp parallel for shared(x) firstprivate(x)
  for (long i = 0; i < 8; i += 1)
    ;
}
";
    let mut ci = CompilerInstance::new(Options::default());
    ci.parse_source("sj.c", src)
        .expect_err("shared plus a privatising clause must be rejected");
    assert_eq!(
        ci.render_diags_json(),
        "[{\"level\":\"error\",\"message\":\"variable 'x' is named in more than one data-sharing clause of '#pragma omp parallel for' ('shared' and 'firstprivate')\",\"file\":\"sj.c\",\"line\":3,\"column\":51,\
         \"notes\":[{\"level\":\"note\",\"message\":\"first named in this 'shared' clause\",\"file\":\"sj.c\",\"line\":3,\"column\":35,\"notes\":[]}]}]\n"
    );
}

/// The pragma breadcrumb spells a `schedule` clause with its chunk, so two
/// tuner candidates that differ only in the chunk print different text.
#[test]
fn chunked_schedule_breadcrumb_renders_exactly() {
    let src = "\
int main(void) {
  int sum = 0;
  #pragma omp parallel for schedule(dynamic, 4)
  for (int i = 0; i < 8; i += 1)
    sum += i;
  return sum;
}
";
    let rendered = analyze_and_render("crumb.c", src);
    let first = rendered.lines().next().unwrap_or_default();
    assert_eq!(
        first,
        "crumb.c:5:5: warning: writing to shared variable 'sum' inside \
         '#pragma omp parallel for schedule(dynamic, 4)' is a data race [-Wrace]"
    );
}

/// The runtime combines `+` and `*` into 4- and 8-byte variables. Any other
/// reduction used to be "not supported; ignoring" — a codegen warning,
/// printed twice on the IrBuilder path, that left the variable shared — or,
/// for a `char`, an 8-byte atomic on a 1-byte variable. Both are refused at
/// the clause, in both modes.
#[test]
fn unsupported_reduction_renders_exactly() {
    let src = "\
void f(void) {
  long m = 0;
  char c = 0;
  #pragma omp parallel for reduction(max: m)
  for (int i = 0; i < 8; i += 1)
    if (i > m) m = i;
  #pragma omp parallel for reduction(+: c)
  for (int i = 0; i < 8; i += 1)
    c += 1;
}
";
    let expected = "\
red.c:4:28: error: reduction operator 'max' is not supported
  #pragma omp parallel for reduction(max: m)
                           ^
red.c:7:41: error: reduction variable 'c' has type 'char'; only int, long, float and double variables can be reduced
  #pragma omp parallel for reduction(+: c)
                                        ^
";
    for codegen_mode in [
        omplt::OpenMpCodegenMode::Classic,
        omplt::OpenMpCodegenMode::IrBuilder,
    ] {
        let mut ci = CompilerInstance::new(Options {
            codegen_mode,
            ..Options::default()
        });
        let err = ci
            .parse_source("red.c", src)
            .expect_err("unsupported reductions must be rejected");
        assert_eq!(err, expected, "{codegen_mode:?}");
    }
}

#[test]
fn unsupported_reduction_json_golden() {
    let src = "\
void f(void) {
  long m = 0;
  #pragma omp parallel for reduction(max: m)
  for (int i = 0; i < 8; i += 1)
    if (i > m) m = i;
}
";
    let mut ci = CompilerInstance::new(Options::default());
    ci.parse_source("rj.c", src)
        .expect_err("'max' reduction must be rejected");
    assert_eq!(
        ci.render_diags_json(),
        "[{\"level\":\"error\",\"message\":\"reduction operator 'max' is not supported\",\"file\":\"rj.c\",\"line\":3,\"column\":28,\"notes\":[]}]\n"
    );
}

/// The sources of `ci/refused/`, one per rule CodeGen used to decide on its
/// own, each refused by Sema with the text CodeGen printed: `parse_source`
/// returns it, so `--syntax-only` and `--analyze` refuse what a compile
/// refuses.
macro_rules! refused {
    ($name:literal) => {
        refusal_on_both_paths($name, include_str!(concat!("../ci/refused/", $name)))
    };
}

/// The row's C image is what a prototype of a runtime entry must declare.
#[test]
fn runtime_prototype_against_its_row_renders_exactly() {
    let text = "\
runtime_prototype.c:6:6: error: conflicting types for 'print_i64'
void print_i64(double v);
     ^
runtime_prototype.c:6:6: note: the runtime declares it as 'void print_i64(i64)'
void print_i64(double v);
     ^
";
    let json = "[{\"level\":\"error\",\"message\":\"conflicting types for 'print_i64'\",\
                \"file\":\"runtime_prototype.c\",\"line\":6,\"column\":6,\"notes\":[{\"level\":\
                \"note\",\"message\":\"the runtime declares it as 'void print_i64(i64)'\",\
                \"file\":\"runtime_prototype.c\",\"line\":6,\"column\":6,\"notes\":[]}]}]\n";
    assert_eq!(
        refused!("runtime_prototype.c"),
        (text.to_string(), json.to_string())
    );
}

#[test]
fn break_outside_of_a_loop_renders_exactly() {
    let text = "\
break_outside_loop.c:7:5: error: 'break' outside of a loop
    break;
    ^
";
    let json = "[{\"level\":\"error\",\"message\":\"'break' outside of a loop\",\"file\":\
                \"break_outside_loop.c\",\"line\":7,\"column\":5,\"notes\":[]}]\n";
    assert_eq!(
        refused!("break_outside_loop.c"),
        (text.to_string(), json.to_string())
    );
}

/// The loop around a `parallel` is on the other side of the outlined
/// region from a `continue` inside it.
#[test]
fn continue_out_of_a_parallel_block_renders_exactly() {
    let text = "\
continue_in_parallel.c:11:9: error: 'continue' outside of a loop
        continue;
        ^
";
    let json = "[{\"level\":\"error\",\"message\":\"'continue' outside of a loop\",\"file\":\
                \"continue_in_parallel.c\",\"line\":11,\"column\":9,\"notes\":[]}]\n";
    assert_eq!(
        refused!("continue_in_parallel.c"),
        (text.to_string(), json.to_string())
    );
}

#[test]
fn string_literal_renders_exactly() {
    let text = "\
string_literal.c:5:13: error: string literals are only supported as unused arguments
  char *s = \"hi\";
            ^
";
    let json = "[{\"level\":\"error\",\"message\":\"string literals are only supported as \
                unused arguments\",\"file\":\"string_literal.c\",\"line\":5,\"column\":13,\
                \"notes\":[]}]\n";
    assert_eq!(
        refused!("string_literal.c"),
        (text.to_string(), json.to_string())
    );
}

/// The caret is on the first part of the initializer that is not a
/// constant: the read of `k`.
#[test]
fn global_initializer_that_is_not_constant_renders_exactly() {
    let text = "\
global_initializer.c:6:11: error: initializer element is not a compile-time constant
long k2 = k + 1;
          ^
";
    let json = "[{\"level\":\"error\",\"message\":\"initializer element is not a compile-time \
                constant\",\"file\":\"global_initializer.c\",\"line\":6,\"column\":11,\
                \"notes\":[]}]\n";
    assert_eq!(
        refused!("global_initializer.c"),
        (text.to_string(), json.to_string())
    );
}

/// Without the rule the engines disagree on `p == 0`: the interpreter runs
/// it, and the bytecode verifier refuses the compare under `vm:strict`.
#[test]
fn pointer_compared_with_an_integer_renders_exactly() {
    let text = "\
pointer_int_compare.c:7:9: error: comparison between pointer and integer ('long *' and 'int')
  if (p == 0)
        ^
";
    let json = "[{\"level\":\"error\",\"message\":\"comparison between pointer and integer \
                ('long *' and 'int')\",\"file\":\"pointer_int_compare.c\",\"line\":7,\
                \"column\":9,\"notes\":[]}]\n";
    assert_eq!(
        refused!("pointer_int_compare.c"),
        (text.to_string(), json.to_string())
    );
}

/// Every `ci/analysis-fixtures/*.c` through the `ompltc` binary: `--analyze
/// --diag-format=json` prints its `.json` twin byte for byte on stderr and
/// nothing on stdout, and exits 1 exactly when that golden has a finding in
/// it (error or warning). A legitimate diagnostics change updates the
/// goldens in the same commit and says why the wording, locations or
/// vectors moved.
#[test]
fn analyze_json_matches_the_fixture_goldens() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut fixtures: Vec<_> = std::fs::read_dir(root.join("ci/analysis-fixtures"))
        .expect("ci/analysis-fixtures exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "c"))
        .collect();
    fixtures.sort();
    assert!(fixtures.len() >= 7, "{fixtures:?}");
    for src in fixtures {
        // The goldens spell the path as given, relative to the repo root.
        let rel = src.strip_prefix(root).unwrap();
        let expected = std::fs::read_to_string(src.with_extension("json"))
            .unwrap_or_else(|e| panic!("{} has no golden: {e}", rel.display()));
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ompltc"))
            .current_dir(root)
            .args(["--analyze", "--diag-format=json"])
            .arg(rel)
            .output()
            .expect("run ompltc");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert_eq!(stderr, expected, "diagnostics drift in {}", rel.display());
        assert!(out.stdout.is_empty(), "{}", rel.display());
        let want = i32::from(!expected.is_empty());
        assert_eq!(out.status.code(), Some(want), "{}", rel.display());
    }
}
