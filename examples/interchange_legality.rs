//! Transformation legality: `#pragma omp interchange` may only permute a
//! loop nest when no dependence has direction `(<, >)` under the new loop
//! order — swapping such a nest would run the sink before its source. The
//! dependence gate is the last step of `CompilerInstance::parse_source`, so
//! every compile gets it. This example shows the refusal on a *negative*
//! case (a wavefront stencil whose flow dependence flips sign under
//! interchange) and compiles and runs a legal permutation of an
//! independent nest.
//!
//! ```text
//! cargo run --example interchange_legality
//! ```

use omplt::{CompilerInstance, Options};

/// `a[i][j]` is written at iteration `(i, j)` and read at `(i+1, j-1)`: the
/// flow dependence has distance vector `(1, -1)`, direction `(<, >)`.
/// Interchanging the loops would make the reader run *before* the writer —
/// the dependence gate refuses the permutation.
const ILLEGAL: &str = r#"
int main(void) {
  int a[9][9];
  #pragma omp interchange
  for (int i = 1; i < 8; i += 1)
    for (int j = 1; j < 8; j += 1)
      a[i][j] = a[i - 1][j + 1] + 1;
  return 0;
}
"#;

/// Every iteration touches a distinct cell, so all direction vectors are
/// `(=, =)` and any permutation is legal — here the classic locality motive
/// for interchange: making the stride-1 subscript the inner loop.
const LEGAL: &str = r#"
int main(void) {
  int a[72];
  #pragma omp interchange permutation(2, 1)
  for (int j = 0; j < 9; j += 1)
    for (int i = 0; i < 8; i += 1)
      a[i * 9 + j] = i + j;
  return a[71];
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
    println!("=== wavefront dependence (rejected) ===\n{ILLEGAL}");
    compile_and_run("wavefront.c", ILLEGAL);

    println!("\n=== independent nest (accepted) ===\n{LEGAL}");
    compile_and_run("independent.c", LEGAL);
}
