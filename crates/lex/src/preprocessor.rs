//! The Preprocessor layer: directive handling, object-like macro expansion,
//! and OpenMP pragma annotation.
//!
//! Supported directives:
//!
//! * `#include "file"` — pulls the file from the [`FileManager`] (virtual
//!   registrations first) and pushes a nested lexer.
//! * `#define NAME <replacement tokens>` / `#undef NAME` — object-like macros
//!   only; the paper motivates them as one way to select per-hardware
//!   transformation directives from the same algorithm source.
//! * `#pragma omp <...>` — re-emitted between [`TokenKind::PragmaOmpStart`]
//!   and [`TokenKind::PragmaOmpEnd`] annotation tokens (Clang's
//!   `annot_pragma_openmp` scheme). Pragma bodies are macro-expanded, so
//!   `#define TILE_SIZES sizes(32, 8)` works inside a directive.
//! * other `#pragma`s are dropped with a warning; unknown directives are
//!   errors.

use crate::lexer::Lexer;
use crate::token::{Punct, Token, TokenKind};
use omplt_source::{DiagnosticsEngine, FileManager, SourceManager};
use std::collections::HashMap;

/// The token-stream producer the parser consumes.
pub struct Preprocessor<'a> {
    sm: &'a mut SourceManager,
    fm: &'a mut FileManager,
    diags: &'a DiagnosticsEngine,
    /// Include stack; the innermost file is last. Each entry remembers the
    /// outer file's lookahead token to resume with once the include is done.
    stack: Vec<StackEntry<'a>>,
    macros: HashMap<String, Vec<Token>>,
    /// Tokens ready to be returned before pulling the lexer again.
    pending: std::collections::VecDeque<Token>,
    /// Lookahead slot for a token we pulled but did not consume.
    lookahead: Option<Token>,
    /// True while replaying pragma tokens (suppresses directive recursion).
    in_pragma: bool,
}

impl<'a> Preprocessor<'a> {
    /// Creates a preprocessor for the already-registered main file.
    pub fn new(
        sm: &'a mut SourceManager,
        fm: &'a mut FileManager,
        diags: &'a DiagnosticsEngine,
        main_file: omplt_source::FileId,
    ) -> Self {
        let lexer = Lexer::from_buffer(
            std::sync::Arc::clone(sm.buffer(main_file)),
            sm.loc_for_offset(main_file, 0),
            diags,
        );
        Preprocessor {
            sm,
            fm,
            diags,
            stack: vec![StackEntry {
                lexer,
                resume: None,
            }],
            macros: HashMap::new(),
            pending: std::collections::VecDeque::new(),
            lookahead: None,
            in_pragma: false,
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
            let t = lx.next_token();
            if matches!(t.kind, TokenKind::Eof) {
                break;
            }
            toks.push(t);
        }
        self.macros.insert(name.to_string(), toks);
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
                .next_token();
            if matches!(t.kind, TokenKind::Eof) && self.stack.len() > 1 {
                let entry = self.stack.pop().expect("checked non-empty");
                self.lookahead = entry.resume;
                continue;
            }
            return t;
        }
    }

    fn raw_peek(&mut self) -> &Token {
        if self.lookahead.is_none() {
            let t = self.raw_next();
            self.lookahead = Some(t);
        }
        self.lookahead.as_ref().unwrap()
    }

    /// Produces the next preprocessed token.
    pub fn next_token(&mut self) -> Token {
        loop {
            if let Some(t) = self.pending.pop_front() {
                return t;
            }
            let t = self.raw_next();
            match &t.kind {
                TokenKind::Punct(Punct::Hash) if t.at_line_start && !self.in_pragma => {
                    self.handle_directive(t);
                }
                TokenKind::Ident(name) => {
                    if let Some(replacement) = self.macros.get(name) {
                        // Object-like expansion: replay the replacement with
                        // the use-site's line-start flag on the first token.
                        let mut rep = replacement.clone();
                        if let Some(first) = rep.first_mut() {
                            first.at_line_start = t.at_line_start;
                            first.loc = t.loc;
                        }
                        for tok in rep.into_iter().rev() {
                            self.pending.push_front(tok);
                        }
                        continue;
                    }
                    return t;
                }
                _ => return t,
            }
        }
    }

    /// Collects every remaining token including the final `Eof` — the
    /// convenience entry point used by the parser and tests.
    pub fn tokenize_all(&mut self) -> Vec<Token> {
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
            let eof = matches!(t.kind, TokenKind::Eof);
            out.push(t);
            if eof {
                omplt_fault::skip("lex.panic", out.len() as u64);
                omplt_trace::count("lex.tokens", out.len() as u64);
                return out;
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
        let name = match &self.raw_next().kind {
            TokenKind::Ident(s) => s.clone(),
            TokenKind::Kw(k) => k.as_str().to_string(),
            other => {
                self.diags.error(
                    hash.loc,
                    format!("expected directive name after '#', got {other:?}"),
                );
                self.rest_of_line();
                return;
            }
        };
        match name.as_str() {
            "pragma" => self.handle_pragma(),
            "define" => {
                let line = self.rest_of_line();
                match line.split_first() {
                    Some((
                        Token {
                            kind: TokenKind::Ident(n),
                            ..
                        },
                        rest,
                    )) => {
                        self.macros.insert(n.clone(), rest.to_vec());
                    }
                    _ => self.diags.error(hash.loc, "#define requires a macro name"),
                }
            }
            "undef" => {
                let line = self.rest_of_line();
                match line.first() {
                    Some(Token {
                        kind: TokenKind::Ident(n),
                        ..
                    }) => {
                        self.macros.remove(n);
                    }
                    _ => self.diags.error(hash.loc, "#undef requires a macro name"),
                }
            }
            "include" => {
                let line = self.rest_of_line();
                match line.first() {
                    Some(Token {
                        kind: TokenKind::StrLit(path),
                        loc,
                        ..
                    }) => {
                        let path = path.clone();
                        let loc = *loc;
                        match self.fm.get_file(&path) {
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
        let is_omp = matches!(line.first(), Some(t) if t.kind.is_ident("omp"));
        if !is_omp {
            let what = line
                .first()
                .map(|t| t.describe())
                .unwrap_or_else(|| "<empty>".to_string());
            self.diags.warning(
                line.first()
                    .map_or(omplt_source::SourceLocation::INVALID, |t| t.loc),
                format!("ignoring unsupported pragma starting with {what}"),
            );
            return;
        }
        let start_loc = line[0].loc;
        // Replay as: PragmaOmpStart, <body tokens after 'omp'>, PragmaOmpEnd.
        // Macro expansion of the body happens in next_token() when Ident
        // tokens are pulled from `pending`... but pending bypasses expansion,
        // so expand here instead.
        self.pending.push_back(Token {
            kind: TokenKind::PragmaOmpStart,
            loc: start_loc,
            at_line_start: true,
        });
        for t in line.into_iter().skip(1) {
            if let TokenKind::Ident(name) = &t.kind {
                if let Some(rep) = self.macros.get(name) {
                    for mut r in rep.clone() {
                        r.loc = t.loc;
                        r.at_line_start = false;
                        self.pending.push_back(r);
                    }
                    continue;
                }
            }
            self.pending.push_back(t);
        }
        self.pending.push_back(Token {
            kind: TokenKind::PragmaOmpEnd,
            loc: start_loc,
            at_line_start: false,
        });
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

    fn pp_all(src: &str) -> (Vec<Token>, String) {
        pp_all_with(src, &[])
    }

    fn pp_all_with(src: &str, extra_files: &[(&str, &str)]) -> (Vec<Token>, String) {
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
        (toks, rendered)
    }

    fn spellings(toks: &[Token]) -> Vec<String> {
        toks.iter()
            .map(|t| match &t.kind {
                TokenKind::Ident(s) => s.clone(),
                TokenKind::Kw(k) => k.as_str().to_string(),
                TokenKind::IntLit { value, .. } => value.to_string(),
                TokenKind::FloatLit(v) => v.to_string(),
                TokenKind::StrLit(s) => format!("\"{s}\""),
                TokenKind::CharLit(c) => format!("'{}'", *c as char),
                TokenKind::Punct(p) => p.as_str().to_string(),
                TokenKind::PragmaOmpStart => "<omp>".to_string(),
                TokenKind::PragmaOmpEnd => "</omp>".to_string(),
                TokenKind::Eof => "<eof>".to_string(),
            })
            .collect()
    }

    #[test]
    fn passthrough() {
        let (toks, errs) = pp_all("int x = 1;");
        assert!(errs.is_empty(), "{errs}");
        assert_eq!(spellings(&toks), vec!["int", "x", "=", "1", ";", "<eof>"]);
    }

    #[test]
    fn object_macro_expansion() {
        let (toks, errs) = pp_all("#define N 100\nint a[N];");
        assert!(errs.is_empty(), "{errs}");
        assert_eq!(
            spellings(&toks),
            vec!["int", "a", "[", "100", "]", ";", "<eof>"]
        );
    }

    #[test]
    fn multi_token_macro() {
        let (toks, _) = pp_all("#define EXPR (1 + 2)\nint x = EXPR;");
        assert_eq!(
            spellings(&toks),
            vec!["int", "x", "=", "(", "1", "+", "2", ")", ";", "<eof>"]
        );
    }

    #[test]
    fn undef_stops_expansion() {
        let (toks, _) = pp_all("#define N 1\n#undef N\nint N;");
        assert_eq!(spellings(&toks), vec!["int", "N", ";", "<eof>"]);
    }

    #[test]
    fn omp_pragma_is_annotated() {
        let (toks, errs) = pp_all("#pragma omp unroll partial(2)\nfor(;;) ;");
        assert!(errs.is_empty(), "{errs}");
        assert_eq!(
            spellings(&toks),
            vec![
                "<omp>", "unroll", "partial", "(", "2", ")", "</omp>", "for", "(", ";", ";", ")",
                ";", "<eof>"
            ]
        );
    }

    #[test]
    fn omp_pragma_body_macro_expands() {
        let (toks, _) = pp_all("#define FACTOR 8\n#pragma omp unroll partial(FACTOR)\n;");
        assert_eq!(
            spellings(&toks),
            vec!["<omp>", "unroll", "partial", "(", "8", ")", "</omp>", ";", "<eof>"]
        );
    }

    #[test]
    fn non_omp_pragma_dropped_with_warning() {
        let (toks, rendered) = pp_all("#pragma once\nint x;");
        assert_eq!(spellings(&toks), vec!["int", "x", ";", "<eof>"]);
        assert!(
            rendered.contains("warning: ignoring unsupported pragma"),
            "{rendered}"
        );
    }

    #[test]
    fn include_splices_file() {
        let (toks, errs) = pp_all_with(
            "#include \"defs.h\"\nint x = M;",
            &[("defs.h", "#define M 5\nint from_header;\n")],
        );
        assert!(errs.is_empty(), "{errs}");
        assert_eq!(
            spellings(&toks),
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
        let (toks, _) = pp_all("#pragma omp parallel for\nint x;");
        let sp = spellings(&toks);
        let end = sp.iter().position(|s| s == "</omp>").unwrap();
        assert_eq!(&sp[end + 1..end + 3], &["int".to_string(), "x".to_string()]);
    }

    #[test]
    fn pragma_with_line_continuation() {
        let (toks, _) = pp_all("#pragma omp tile \\\n  sizes(4, 4)\nint x;");
        let sp = spellings(&toks);
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
