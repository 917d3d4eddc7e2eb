//! The Preprocessor layer: directive handling, object-like macro expansion,
//! and OpenMP pragma annotation.
//!
//! Supported directives:
//!
//! * `#include "file"` — pulls the file from the [`FileManager`] (virtual
//!   registrations first) and pushes a nested lexer.
//! * `#define NAME <replacement tokens>` / `#undef NAME` — object-like macros
//!   only; the paper motivates them as one way to select per-hardware
//!   transformation directives from the same algorithm source. An expansion
//!   is rescanned for further macro names (C11 6.10.3.4), except the names
//!   whose expansion is in progress: `#define N 4` / `#define F sizes(N)`
//!   gives `sizes(4)`, `#define X X` stays `X`, and `#define A B` /
//!   `#define B A` stops at the name it started from.
//! * `#pragma omp <...>` — re-emitted between [`TokenKind::PragmaOmpStart`]
//!   and [`TokenKind::PragmaOmpEnd`] annotation tokens (Clang's
//!   `annot_pragma_openmp` scheme). Pragma bodies are macro-expanded the
//!   same way, so `#define TILE_SIZES sizes(32, 8)` works inside a
//!   directive.
//! * other `#pragma`s are dropped with a warning; unknown directives are
//!   errors.
//!
//! The preprocessor owns the compilation's [`IdentifierTable`]: its lexers
//! intern every spelling there, the macro table is indexed by the macro
//! name's [`Symbol`], and [`Preprocessor::tokenize_all`] hands the table on
//! with the tokens.

use crate::lexer::Lexer;
use crate::token::{Punct, Token, TokenKind};
use omplt_source::{DiagnosticsEngine, FileManager, IdentifierTable, SourceManager, Symbol};
use std::collections::VecDeque;

/// The token-stream producer the parser consumes.
pub struct Preprocessor<'a> {
    sm: &'a mut SourceManager,
    fm: &'a mut FileManager,
    diags: &'a DiagnosticsEngine,
    /// Include stack; the innermost file is last. Each entry remembers the
    /// outer file's lookahead token to resume with once the include is done.
    stack: Vec<StackEntry<'a>>,
    /// Every spelling the lexers have read.
    idents: IdentifierTable,
    /// `macros[name]`: the replacement list of the macro `name`, if defined.
    macros: Vec<Option<Vec<Token>>>,
    /// The expansions in progress, innermost last: the macro, its
    /// replacement list (out of `macros` meanwhile) and the next token.
    expanding: Vec<(Symbol, Vec<Token>, usize)>,
    /// Tokens ready to be returned before pulling the lexer again.
    pending: VecDeque<Token>,
    /// Lookahead slot for a token we pulled but did not consume.
    lookahead: Option<Token>,
}

impl<'a> Preprocessor<'a> {
    /// Creates a preprocessor for the already-registered main file.
    pub fn new(
        sm: &'a mut SourceManager,
        fm: &'a mut FileManager,
        diags: &'a DiagnosticsEngine,
        main_file: omplt_source::FileId,
    ) -> Self {
        let lexer = Lexer::new(sm, main_file, diags);
        Preprocessor {
            sm,
            fm,
            diags,
            stack: vec![StackEntry {
                lexer,
                resume: None,
            }],
            idents: IdentifierTable::default(),
            macros: Vec::new(),
            expanding: Vec::new(),
            pending: VecDeque::new(),
            lookahead: None,
        }
    }

    /// Defines an object-like macro programmatically (like `-D` on the
    /// command line). The replacement is lexed from `replacement`.
    pub fn define(&mut self, name: &str, replacement: &str) {
        let buf = self
            .fm
            .add_virtual_file(format!("<define:{name}>"), replacement.to_string());
        let (_, start) = self.sm.add_file(buf.clone());
        let mut lx = Lexer::from_buffer(buf, start, self.diags);
        let mut toks = Vec::new();
        loop {
            let t = lx.next_token(&mut self.idents);
            if matches!(t.kind, TokenKind::Eof) {
                break;
            }
            toks.push(t);
        }
        let name = self.idents.intern(name);
        self.set_macro(name, Some(toks));
    }

    fn set_macro(&mut self, name: Symbol, replacement: Option<Vec<Token>>) {
        if self.macros.len() <= name.index() {
            self.macros.resize(name.index() + 1, None);
        }
        self.macros[name.index()] = replacement;
    }

    /// Pulls the next raw token from the innermost lexer, popping finished
    /// includes (and restoring the including file's saved lookahead).
    fn raw_next(&mut self) -> Token {
        loop {
            if let Some(t) = self.lookahead.take() {
                return t;
            }
            let t = self
                .stack
                .last_mut()
                .expect("lexer stack never empty")
                .lexer
                .next_token(&mut self.idents);
            if matches!(t.kind, TokenKind::Eof) && self.stack.len() > 1 {
                let entry = self.stack.pop().expect("checked non-empty");
                self.lookahead = entry.resume;
                continue;
            }
            return t;
        }
    }

    fn raw_peek(&mut self) -> Token {
        let t = self.lookahead.unwrap_or_else(|| self.raw_next());
        self.lookahead = Some(t);
        t
    }

    /// Produces the next preprocessed token.
    pub fn next_token(&mut self) -> Token {
        loop {
            if let Some(t) = self.pending.pop_front() {
                return t;
            }
            let t = self.raw_next();
            match t.kind {
                TokenKind::Punct(Punct::Hash) if t.at_line_start => {
                    self.handle_directive(t);
                }
                TokenKind::Ident(name) if is_macro(&self.macros, name) => {
                    // `pending` is empty: the expansion is what comes next,
                    // its first token at the use site, line-start flag and all.
                    expand(
                        &mut self.macros,
                        name,
                        &mut self.expanding,
                        &mut self.pending,
                    );
                    if let Some(first) = self.pending.front_mut() {
                        first.at_line_start = t.at_line_start;
                        first.loc = t.loc;
                    }
                }
                _ => return t,
            }
        }
    }

    /// Collects every remaining token including the final `Eof` — the
    /// convenience entry point used by the parser and tests — and hands on
    /// the identifier table their symbols index.
    pub fn tokenize_all(&mut self) -> (Vec<Token>, IdentifierTable) {
        let _span = omplt_trace::span("lex.tokenize");
        // Fault site: COUNT selects which token's lexing panics. The site is
        // hit once per token but read once per call; the hits that did not
        // fire are consumed on the way out.
        let fire_at = omplt_fault::armed_in("lex.panic");
        let mut out = Vec::new();
        loop {
            let hit = out.len() as u64 + 1;
            if fire_at == Some(hit) {
                omplt_fault::skip("lex.panic", hit - 1);
                omplt_fault::panic_if_armed("lex.panic");
            }
            let t = self.next_token();
            out.push(t);
            if matches!(t.kind, TokenKind::Eof) {
                omplt_fault::skip("lex.panic", out.len() as u64);
                omplt_trace::count("lex.tokens", out.len() as u64);
                return (out, std::mem::take(&mut self.idents));
            }
        }
    }

    /// Reads the rest of the current directive line (tokens until the next
    /// line-start token or EOF), leaving the follower in the lookahead.
    fn rest_of_line(&mut self) -> Vec<Token> {
        let mut toks = Vec::new();
        loop {
            let t = self.raw_peek();
            if matches!(t.kind, TokenKind::Eof) || t.at_line_start {
                return toks;
            }
            toks.push(self.raw_next());
        }
    }

    fn handle_directive(&mut self, hash: Token) {
        let name_tok = self.raw_peek();
        if name_tok.at_line_start || matches!(name_tok.kind, TokenKind::Eof) {
            return; // null directive: lone '#'
        }
        let name = match self.raw_next().kind {
            TokenKind::Ident(s) => self.idents.get(s),
            TokenKind::Kw(k) => k.as_str(),
            other => {
                self.diags.error(
                    hash.loc,
                    format!(
                        "expected directive name after '#', got {}",
                        other.spelled(&self.idents)
                    ),
                );
                self.rest_of_line();
                return;
            }
        };
        match name {
            "pragma" => self.handle_pragma(),
            "define" => match self.rest_of_line().split_first() {
                Some((
                    &Token {
                        kind: TokenKind::Ident(n),
                        ..
                    },
                    rest,
                )) => self.set_macro(n, Some(rest.to_vec())),
                _ => self.diags.error(hash.loc, "#define requires a macro name"),
            },
            "undef" => match self.rest_of_line().first().map(|t| t.kind) {
                Some(TokenKind::Ident(n)) => self.set_macro(n, None),
                _ => self.diags.error(hash.loc, "#undef requires a macro name"),
            },
            "include" => {
                let line = self.rest_of_line();
                match line.first() {
                    Some(&Token {
                        kind: TokenKind::StrLit(path),
                        loc,
                        ..
                    }) => {
                        let path = self.idents.get(path);
                        match self.fm.get_file(path) {
                            Ok(buf) => {
                                if self.stack.len() >= 64 {
                                    self.diags.error(loc, "#include nested too deeply");
                                    return;
                                }
                                let (_, start) = self.sm.add_file(buf.clone());
                                // The lookahead token (if any) belongs to the
                                // outer file; resume with it after the include.
                                let resume = self.lookahead.take();
                                self.stack.push(StackEntry {
                                    lexer: Lexer::from_buffer(buf, start, self.diags),
                                    resume,
                                });
                            }
                            Err(e) => {
                                self.diags.error(loc, format!("cannot open '{path}': {e}"));
                            }
                        }
                    }
                    _ => self.diags.error(hash.loc, "#include expects \"file\""),
                }
            }
            other => {
                self.diags.error(
                    hash.loc,
                    format!("unknown preprocessor directive '#{other}'"),
                );
                self.rest_of_line();
            }
        }
    }

    fn handle_pragma(&mut self) {
        let line = self.rest_of_line();
        let is_omp = matches!(line.first().map(|t| t.kind),
            Some(TokenKind::Ident(s)) if self.idents.get(s) == "omp");
        if !is_omp {
            let what = line
                .first()
                .map(|t| t.describe(&self.idents))
                .unwrap_or_else(|| "<empty>".to_string());
            self.diags.warning(
                line.first()
                    .map_or(omplt_source::SourceLocation::INVALID, |t| t.loc),
                format!("ignoring unsupported pragma starting with {what}"),
            );
            return;
        }
        let start_loc = line[0].loc;
        // Replay as: PragmaOmpStart, <body tokens after 'omp'>, PragmaOmpEnd,
        // expanding the body's macros here: `pending` bypasses next_token's
        // expansion. Every token of an expansion sits at its use site.
        self.pending.push_back(Token {
            kind: TokenKind::PragmaOmpStart,
            loc: start_loc,
            at_line_start: true,
        });
        for t in line.into_iter().skip(1) {
            match t.kind {
                TokenKind::Ident(name) if is_macro(&self.macros, name) => {
                    let from = self.pending.len();
                    expand(
                        &mut self.macros,
                        name,
                        &mut self.expanding,
                        &mut self.pending,
                    );
                    for r in self.pending.range_mut(from..) {
                        r.loc = t.loc;
                        r.at_line_start = false;
                    }
                }
                _ => self.pending.push_back(t),
            }
        }
        self.pending.push_back(Token {
            kind: TokenKind::PragmaOmpEnd,
            loc: start_loc,
            at_line_start: false,
        });
    }
}

fn is_macro(macros: &[Option<Vec<Token>>], name: Symbol) -> bool {
    macros.get(name.index()).is_some_and(Option::is_some)
}

/// Appends the expansion of the macro `name` to `out`, rescanned (C11
/// 6.10.3.4): a macro name in it is expanded in turn. While a macro's
/// expansion is in progress its replacement list is out of `macros`, so its
/// own name there reads as a plain identifier, and stays one. A loop over
/// `expanding`, not recursion: a chain of macros cannot exhaust the stack.
fn expand(
    macros: &mut [Option<Vec<Token>>],
    name: Symbol,
    expanding: &mut Vec<(Symbol, Vec<Token>, usize)>,
    out: &mut VecDeque<Token>,
) {
    let take = |macros: &mut [Option<Vec<Token>>], m: Symbol| {
        (m, macros[m.index()].take().expect("a defined macro"), 0)
    };
    expanding.push(take(macros, name));
    while let Some((_, list, next)) = expanding.last_mut() {
        let Some(&t) = list.get(*next) else {
            let (m, list, _) = expanding.pop().expect("non-empty");
            macros[m.index()] = Some(list);
            continue;
        };
        *next += 1;
        match t.kind {
            TokenKind::Ident(n) if is_macro(macros, n) => expanding.push(take(macros, n)),
            _ => out.push_back(t),
        }
    }
}

/// One level of the include stack.
struct StackEntry<'a> {
    lexer: Lexer<'a>,
    /// The including file's lookahead token, returned after this file's EOF.
    resume: Option<Token>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use omplt_source::FileManager;

    fn pp_all(src: &str) -> (Vec<String>, String) {
        pp_all_with(src, &[])
    }

    /// The spellings of the preprocessed tokens, and the rendered
    /// diagnostics.
    fn pp_all_with(src: &str, extra_files: &[(&str, &str)]) -> (Vec<String>, String) {
        let mut fm = FileManager::new();
        for (name, text) in extra_files {
            fm.add_virtual_file(*name, *text);
        }
        let main = fm.add_virtual_file("main.c", src);
        let mut sm = SourceManager::new();
        let (id, _) = sm.add_file(main);
        let diags = DiagnosticsEngine::new();
        let toks = {
            let mut pp = Preprocessor::new(&mut sm, &mut fm, &diags, id);
            pp.tokenize_all()
        };
        let rendered = diags.render(&sm);
        (spellings(&toks), rendered)
    }

    fn spellings((toks, idents): &(Vec<Token>, IdentifierTable)) -> Vec<String> {
        toks.iter()
            .map(|t| match t.kind {
                TokenKind::Ident(s) => idents.get(s).to_string(),
                TokenKind::Kw(k) => k.as_str().to_string(),
                TokenKind::IntLit { value, .. } => value.to_string(),
                TokenKind::FloatLit(v) => v.to_string(),
                TokenKind::StrLit(s) => format!("\"{}\"", idents.get(s)),
                TokenKind::CharLit(c) => format!("'{}'", c as char),
                TokenKind::Punct(p) => p.as_str().to_string(),
                TokenKind::PragmaOmpStart => "<omp>".to_string(),
                TokenKind::PragmaOmpEnd => "</omp>".to_string(),
                TokenKind::Eof => "<eof>".to_string(),
            })
            .collect()
    }

    #[test]
    fn passthrough() {
        let (sp, errs) = pp_all("int x = 1;");
        assert!(errs.is_empty(), "{errs}");
        assert_eq!(sp, vec!["int", "x", "=", "1", ";", "<eof>"]);
    }

    #[test]
    fn object_macro_expansion() {
        let (sp, errs) = pp_all("#define N 100\nint a[N];");
        assert!(errs.is_empty(), "{errs}");
        assert_eq!(sp, vec!["int", "a", "[", "100", "]", ";", "<eof>"]);
    }

    #[test]
    fn multi_token_macro() {
        let (sp, _) = pp_all("#define EXPR (1 + 2)\nint x = EXPR;");
        assert_eq!(
            sp,
            vec!["int", "x", "=", "(", "1", "+", "2", ")", ";", "<eof>"]
        );
    }

    #[test]
    fn undef_stops_expansion() {
        let (sp, _) = pp_all("#define N 1\n#undef N\nint N;");
        assert_eq!(sp, vec!["int", "N", ";", "<eof>"]);
    }

    #[test]
    fn omp_pragma_is_annotated() {
        let (sp, errs) = pp_all("#pragma omp unroll partial(2)\nfor(;;) ;");
        assert!(errs.is_empty(), "{errs}");
        assert_eq!(
            sp,
            vec![
                "<omp>", "unroll", "partial", "(", "2", ")", "</omp>", "for", "(", ";", ";", ")",
                ";", "<eof>"
            ]
        );
    }

    #[test]
    fn omp_pragma_body_macro_expands() {
        let (sp, _) = pp_all("#define FACTOR 8\n#pragma omp unroll partial(FACTOR)\n;");
        assert_eq!(
            sp,
            vec!["<omp>", "unroll", "partial", "(", "8", ")", "</omp>", ";", "<eof>"]
        );
    }

    #[test]
    fn an_expansion_is_rescanned() {
        let (sp, errs) = pp_all("#define B 7\n#define A B\nprint_i64(A);");
        assert!(errs.is_empty(), "{errs}");
        assert_eq!(sp, ["print_i64", "(", "7", ")", ";", "<eof>"]);
    }

    #[test]
    fn a_pragma_body_expansion_is_rescanned() {
        let (sp, errs) = pp_all("#define N 4\n#define F sizes(N)\n#pragma omp tile F\n;");
        assert!(errs.is_empty(), "{errs}");
        assert_eq!(
            sp,
            ["<omp>", "tile", "sizes", "(", "4", ")", "</omp>", ";", "<eof>"]
        );
    }

    #[test]
    fn a_macro_is_not_expanded_inside_its_own_expansion() {
        let (sp, _) = pp_all("#define X X + 1\nX;");
        assert_eq!(sp, ["X", "+", "1", ";", "<eof>"]);
    }

    #[test]
    fn mutually_recursive_macros_stop_at_the_name_they_started_from() {
        let (sp, _) = pp_all("#define A B\n#define B A\nA B;");
        assert_eq!(sp, ["A", "B", ";", "<eof>"]);
    }

    #[test]
    fn a_long_chain_of_macros_expands_without_recursion() {
        let n = 100_000;
        let defines: String = (0..n)
            .map(|k| format!("#define M{k} M{}\n", k + 1))
            .collect();
        let (sp, errs) = pp_all(&format!("{defines}#define M{n} 7\nM0;"));
        assert!(errs.is_empty(), "{errs}");
        assert_eq!(sp, ["7", ";", "<eof>"]);
    }

    #[test]
    fn non_omp_pragma_dropped_with_warning() {
        let (sp, rendered) = pp_all("#pragma once\nint x;");
        assert_eq!(sp, vec!["int", "x", ";", "<eof>"]);
        assert!(
            rendered.contains("warning: ignoring unsupported pragma"),
            "{rendered}"
        );
    }

    #[test]
    fn include_splices_file() {
        let (sp, errs) = pp_all_with(
            "#include \"defs.h\"\nint x = M;",
            &[("defs.h", "#define M 5\nint from_header;\n")],
        );
        assert!(errs.is_empty(), "{errs}");
        assert_eq!(
            sp,
            vec![
                "int",
                "from_header",
                ";",
                "int",
                "x",
                "=",
                "5",
                ";",
                "<eof>"
            ]
        );
    }

    #[test]
    fn missing_include_is_error() {
        let (_, rendered) = pp_all("#include \"nope.h\"\n");
        assert!(rendered.contains("cannot open 'nope.h'"), "{rendered}");
    }

    #[test]
    fn unknown_directive_is_error() {
        let (_, rendered) = pp_all("#frobnicate all the things\nint x;");
        assert!(rendered.contains("unknown preprocessor directive '#frobnicate'"));
    }

    #[test]
    fn pragma_line_ends_at_newline() {
        let (sp, _) = pp_all("#pragma omp parallel for\nint x;");
        let end = sp.iter().position(|s| s == "</omp>").unwrap();
        assert_eq!(&sp[end + 1..end + 3], &["int".to_string(), "x".to_string()]);
    }

    #[test]
    fn pragma_with_line_continuation() {
        let (sp, _) = pp_all("#pragma omp tile \\\n  sizes(4, 4)\nint x;");
        assert_eq!(
            sp,
            vec![
                "<omp>", "tile", "sizes", "(", "4", ",", "4", ")", "</omp>", "int", "x", ";",
                "<eof>"
            ]
        );
    }

    #[test]
    fn programmatic_define() {
        let mut fm = FileManager::new();
        let main = fm.add_virtual_file("main.c", "int a[WIDTH];");
        let mut sm = SourceManager::new();
        let (id, _) = sm.add_file(main);
        let diags = DiagnosticsEngine::new();
        let toks = {
            let mut pp = Preprocessor::new(&mut sm, &mut fm, &diags, id);
            pp.define("WIDTH", "32");
            pp.tokenize_all()
        };
        assert_eq!(
            spellings(&toks),
            vec!["int", "a", "[", "32", "]", ";", "<eof>"]
        );
    }
}
