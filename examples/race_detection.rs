//! Race detection: compile a shared-accumulator parallel loop (a classic
//! data race), then the `reduction` fix, and show the Clang-style `-Wrace`
//! diagnostics the front end's analysis reports.
//!
//! ```text
//! cargo run --example race_detection
//! ```

use omplt::{CompilerInstance, Options};

/// Every iteration read-modify-writes `sum`, which is shared by default:
/// two threads can interleave between the load and the store and lose
/// updates.
const RACY: &str = r#"
int main(void) {
  int a[64];
  for (int i = 0; i < 64; i += 1)
    a[i] = i;

  int sum = 0;
  #pragma omp parallel for
  for (int i = 0; i < 64; i += 1)
    sum += a[i];
  return sum;
}
"#;

/// The same loop with the accumulator declared as a `+` reduction: each
/// thread sums privately and the runtime combines the partial results.
const FIXED: &str = r#"
int main(void) {
  int a[64];
  for (int i = 0; i < 64; i += 1)
    a[i] = i;

  int sum = 0;
  #pragma omp parallel for reduction(+: sum)
  for (int i = 0; i < 64; i += 1)
    sum += a[i];
  return sum;
}
"#;

fn analyze(name: &str, source: &str) {
    let mut ci = CompilerInstance::new(Options::default());
    ci.parse_source(name, source).expect("parse");
    let report = ci.analysis();
    if report.has_findings() {
        println!(
            "{} finding(s) — {} error(s), {} warning(s):\n",
            report.errors + report.warnings,
            report.errors,
            report.warnings
        );
        print!("{}", ci.render_diags());
    } else {
        println!("no findings — the loop is race-free ✓");
    }
}

fn main() {
    println!("=== shared-accumulator loop (racy) ===\n{RACY}");
    analyze("racy.c", RACY);

    println!("\n=== with reduction(+: sum) (fixed) ===\n{FIXED}");
    analyze("fixed.c", FIXED);
}
