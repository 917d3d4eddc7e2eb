//! The third constant evaluator is held by a test, not merged: Sema's
//! `Expr::eval_const_int` works in `i128` with `checked_*` arithmetic (that
//! is how it detects overflow) and lives below the IR, so it cannot call
//! `omplt_ir::arith`. Instead, for a seeded fleet of constant C expressions
//! over every integer type, what it computes for `(long)(EXPR)` must be what
//! `print_i64((long)(EXPR))` prints — on both engines, with and without the
//! mid end.

use omplt::ast::{Decl, StmtKind};
use omplt::tune::XorShift as Rng;
use omplt::{Backend, CompilerInstance, Options};

fn pick<T: Copy>(rng: &mut Rng, from: &[T]) -> T {
    from[rng.below(from.len())]
}

/// `(spelling, bits after integer promotion)`.
const TYPES: [(&str, u32); 7] = [
    ("int", 32),
    ("unsigned", 32),
    ("long", 64),
    ("unsigned long", 64),
    ("char", 32),
    ("unsigned char", 32),
    ("bool", 32),
];

/// Bit patterns whose truncations are every type's extremes and neighbours.
const EDGES: [u64; 14] = [
    0,
    1,
    2,
    127,
    128,
    255,
    256,
    0x7FFF_FFFF,
    0x8000_0000,
    0xFFFF_FFFF,
    0x7FFF_FFFF_FFFF_FFFF,
    0x8000_0000_0000_0000,
    0xFFFF_FFFF_FFFF_FFFE,
    0xFFFF_FFFF_FFFF_FFFF,
];

/// The eighteen binary operators `eval_const_int` handles, minus the two
/// shifts, which [`expr`] spells itself (an in-range amount: anything else
/// is undefined in C and the two evaluators need not agree on it).
const BINARY: [&str; 16] = [
    "+", "-", "*", "/", "%", "&", "|", "^", "<", ">", "<=", ">=", "==", "!=", "&&", "||",
];

fn expr(rng: &mut Rng, depth: u32) -> String {
    if depth == 0 || rng.below(6) == 0 {
        return if rng.below(3) == 0 {
            format!("{}", rng.below(9))
        } else {
            let bits = if rng.below(4) == 0 {
                rng.next_u64()
            } else {
                pick(rng, &EDGES)
            };
            format!("({}){bits}ul", pick(rng, &TYPES).0)
        };
    }
    let sub = |rng: &mut Rng| expr(rng, depth - 1);
    match rng.below(12) {
        0 => format!("(-{})", sub(rng)),
        1 => format!("(+{})", sub(rng)),
        2 => format!("(!{})", sub(rng)),
        3 => format!("(({}){})", pick(rng, &TYPES).0, sub(rng)),
        4 => format!("({} ? {} : {})", sub(rng), sub(rng), sub(rng)),
        5 | 6 => {
            let (ty, bits) = pick(rng, &TYPES);
            let op = pick(rng, &["<<", ">>"]);
            format!("(({ty}){} {op} {})", sub(rng), rng.below(bits as usize))
        }
        _ => format!("({} {} {})", sub(rng), pick(rng, &BINARY), sub(rng)),
    }
}

/// `eval_const_int` of every `long rK = (long)(EXPR);` initializer in `main`.
fn evaluate(exprs: &[String]) -> Vec<Option<i128>> {
    let decls: String = (exprs.iter().enumerate())
        .map(|(k, e)| format!("  long r{k} = (long)({e});\n"))
        .collect();
    let src = format!("int main(void) {{\n{decls}  return 0;\n}}\n");
    let mut ci = CompilerInstance::new(Options::default());
    let tu = ci.parse_source("consts.c", &src).expect("parses");
    let main = tu.function("main").expect("main");
    let body = main.body.borrow();
    let StmtKind::Compound(stmts) = &body.as_ref().expect("a body").kind else {
        panic!("main's body is a compound statement");
    };
    let mut values = Vec::new();
    for s in stmts {
        if let StmtKind::Decl(decls) = &s.kind {
            for d in decls {
                let Decl::Var(v) = d else { continue };
                values.push(v.init.as_ref().expect("initialized").eval_const_int());
            }
        }
    }
    assert_eq!(values.len(), exprs.len());
    values
}

#[test]
fn eval_const_int_computes_what_the_program_prints() {
    for seed in [0xC0_57A7u64, 0x5EED_0002, 0x5EED_0003] {
        let mut rng = Rng::new(seed);
        let exprs: Vec<String> = (0..300).map(|_| expr(&mut rng, 3)).collect();
        let values = evaluate(&exprs);

        // What does not fold is left alone — and only an `i128` overflow or
        // a division by zero may be the reason.
        let mut folded = Vec::new();
        for (e, v) in exprs.iter().zip(&values) {
            match v {
                Some(v) => folded.push((e, *v)),
                None => assert!(
                    e.contains('/') || e.contains('%') || e.contains('*'),
                    "`{e}` has no division and no product, and did not fold"
                ),
            }
        }
        assert!(folded.len() * 10 >= exprs.len() * 8, "{}", folded.len());

        let prints: String = (folded.iter())
            .map(|(e, _)| format!("  print_i64((long)({e}));\n"))
            .collect();
        let src = format!("void print_i64(long v);\nint main(void) {{\n{prints}  return 0;\n}}\n");
        for backend in [Backend::Interp, Backend::Vm] {
            for optimize in [false, true] {
                let mut ci = CompilerInstance::new(Options {
                    backend,
                    ..Options::default()
                });
                let run = (ci.compile_and_run("consts.c", &src, optimize))
                    .unwrap_or_else(|e| panic!("{backend:?} opt={optimize}:\n{e}"));
                let printed: Vec<&str> = run.stdout.lines().collect();
                assert_eq!(printed.len(), folded.len());
                for ((e, v), line) in folded.iter().zip(printed) {
                    assert_eq!(
                        line,
                        v.to_string(),
                        "`(long)({e})` on {backend:?} opt={optimize}: eval_const_int says {v}"
                    );
                }
            }
        }
    }
}
