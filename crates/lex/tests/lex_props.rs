//! Property-style tests for the lexer/preprocessor layer.
//!
//! Formerly written with `proptest`; rewritten as deterministic pseudo-random
//! sweeps (fixed-seed xorshift) so the workspace builds without registry
//! access. Coverage is equivalent: each test drives the same predicates over
//! hundreds of generated inputs, and failures print the offending input.

use omplt_lex::{Preprocessor, TokenKind};
use omplt_source::{DiagnosticsEngine, FileManager, IdentifierTable, SourceManager};

/// Minimal deterministic PRNG (xorshift64*), good enough for input sweeps.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }
}

fn lex(src: &str) -> (Vec<TokenKind>, bool, IdentifierTable) {
    let mut fm = FileManager::new();
    let main = fm.add_virtual_file("p.c", src);
    let mut sm = SourceManager::new();
    let (id, _) = sm.add_file(main);
    let diags = DiagnosticsEngine::new();
    let (toks, idents) = {
        let mut pp = Preprocessor::new(&mut sm, &mut fm, &diags, id);
        pp.tokenize_all()
    };
    (
        toks.into_iter().map(|t| t.kind).collect(),
        diags.has_errors(),
        idents,
    )
}

/// `[ -~\n\t]{0,200}`: printable ASCII plus newline/tab.
fn arbitrary_ascii(rng: &mut Rng) -> String {
    let len = rng.below(201) as usize;
    (0..len)
        .map(|_| match rng.below(100) {
            0..=4 => '\n',
            5..=9 => '\t',
            _ => (b' ' + rng.below(95) as u8) as char,
        })
        .collect()
}

#[test]
fn lexer_never_panics_on_arbitrary_ascii() {
    let mut rng = Rng::new(0x1ECE_D01A);
    for case in 0..200 {
        // Any printable-ASCII input must lex to EOF without panicking
        // (errors are fine; crashes are not).
        let src = arbitrary_ascii(&mut rng);
        let (toks, ..) = lex(&src);
        assert!(
            matches!(toks.last(), Some(TokenKind::Eof)),
            "case {case}: no EOF for input {src:?}"
        );
    }
}

#[test]
fn integer_literals_round_trip() {
    let mut rng = Rng::new(0xB16B00B5);
    let mut values: Vec<u64> = (0..200).map(|_| rng.next() % (u64::MAX / 2 + 1)).collect();
    values.extend([0, 1, 7, u64::MAX / 2]);
    for v in values {
        let (toks, errs, _) = lex(&format!("{v}"));
        assert!(!errs, "errors lexing literal {v}");
        let ok = matches!(toks[0], TokenKind::IntLit { value, .. } if value == v);
        assert!(ok, "literal {v} did not round-trip: {:?}", toks[0]);
    }
}

#[test]
fn identifiers_survive_whitespace_and_comments() {
    let mut rng = Rng::new(0x5EED1D);
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";
    const PAD: &[u8] = b" \t\n";
    for _ in 0..200 {
        let mut name = String::new();
        name.push(FIRST[rng.below(FIRST.len() as u64) as usize] as char);
        for _ in 0..rng.below(11) {
            name.push(REST[rng.below(REST.len() as u64) as usize] as char);
        }
        let pad: String = (0..rng.below(6))
            .map(|_| PAD[rng.below(PAD.len() as u64) as usize] as char)
            .collect();
        let (toks, errs, idents) = lex(&format!("{pad}{name}{pad}// trailing\n"));
        assert!(!errs, "errors lexing identifier {name:?}");
        match toks[0] {
            TokenKind::Ident(s) => assert_eq!(idents.get(s), name),
            TokenKind::Kw(_) => {} // reserved words are fine
            other => panic!("unexpected token {other:?} for identifier {name:?}"),
        }
    }
}

#[test]
fn macro_substitution_is_literal() {
    let mut rng = Rng::new(0xDEF17E);
    for _ in 0..100 {
        let v = rng.below(1_000_000) as u32;
        let (toks, errs, _) = lex(&format!("#define K {v}\nint a = K;"));
        assert!(!errs, "errors expanding macro K = {v}");
        let found = toks
            .iter()
            .any(|t| matches!(t, TokenKind::IntLit { value, .. } if *value == u64::from(v)));
        assert!(found, "macro value {v} not substituted");
    }
}

#[test]
fn pragma_bodies_are_bracketed() {
    let mut rng = Rng::new(0x0F_0A_66_A5);
    for _ in 0..63 {
        let factor = rng.range(1, 64) as u32;
        let (toks, errs, _) = lex(&format!("#pragma omp unroll partial({factor})\n;"));
        assert!(!errs, "errors lexing pragma with factor {factor}");
        let start = toks
            .iter()
            .position(|t| matches!(t, TokenKind::PragmaOmpStart));
        let end = toks
            .iter()
            .position(|t| matches!(t, TokenKind::PragmaOmpEnd));
        assert!(
            start.is_some() && end.is_some() && start < end,
            "pragma not bracketed for factor {factor}: start {start:?} end {end:?}"
        );
    }
}
