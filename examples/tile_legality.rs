//! Transformation legality: `#pragma omp tile sizes(4, 4)` requires a
//! perfectly nested loop nest of depth 2 (OpenMP 5.1 §4.4.2). Sema checks
//! that while it builds the directive, so the refusal comes out of
//! `CompilerInstance::parse_source` — of every compile, not of a separate
//! analysis mode. This example shows it on a *negative* case — a statement
//! between the two loops that depends on the outer iteration variable — and
//! compiles and runs the corrected perfectly nested version.
//!
//! ```text
//! cargo run --example tile_legality
//! ```

use omplt::{CompilerInstance, Options};

/// `int t = i * 8;` sits between the loops. Hoisted out of the nest it
/// would be evaluated once, so `t` would be stale for every `i` except the
/// first — Sema refuses the nest instead.
const IMPERFECT: &str = r#"
int main(void) {
  int a[64];
  #pragma omp tile sizes(4, 4)
  for (int i = 0; i < 8; i += 1) {
    int t = i * 8;
    for (int j = 0; j < 8; j += 1)
      a[t + j] = t;
  }
  return a[63];
}
"#;

/// The same computation with the intervening statement folded into the
/// innermost body — a perfectly nested, tileable nest.
const PERFECT: &str = r#"
int main(void) {
  int a[64];
  #pragma omp tile sizes(4, 4)
  for (int i = 0; i < 8; i += 1)
    for (int j = 0; j < 8; j += 1)
      a[i * 8 + j] = i * 8;
  return a[63];
}
"#;

fn compile_and_run(name: &str, source: &str) {
    let mut ci = CompilerInstance::new(Options::default());
    match ci.parse_source(name, source) {
        Err(refusal) => print!("refused by parse_source:\n\n{refusal}"),
        Ok(tu) => {
            let module = ci.codegen(&tu).expect("an accepted AST lowers");
            let run = ci.run(&module).expect("and runs");
            println!("compiled and ran: exit code {} ✓", run.exit_code);
        }
    }
}

fn main() {
    println!("=== imperfect nest (rejected) ===\n{IMPERFECT}");
    compile_and_run("imperfect.c", IMPERFECT);

    println!("\n=== perfectly nested (accepted) ===\n{PERFECT}");
    compile_and_run("perfect.c", PERFECT);
}
