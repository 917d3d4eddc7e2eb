//! The hand-written lexer: bytes → raw [`Token`]s.
//!
//! Follows Clang's design: one lexer per buffer, sentinel-`'\0'` termination
//! via [`MemoryBuffer::char_at`], and a `at_line_start` flag on tokens instead
//! of explicit newline tokens (the preprocessor uses the flag to find
//! directive lines and pragma line ends). Identifier and string-literal
//! spellings are interned in the caller's [`IdentifierTable`] as they are
//! read.

use crate::token::{IntSuffix, Keyword, Punct, Token, TokenKind};
use omplt_source::{
    DiagnosticsEngine, FileId, IdentifierTable, MemoryBuffer, SourceLocation, SourceManager,
};
use std::num::IntErrorKind;
use std::sync::Arc;

/// Lexes a single [`MemoryBuffer`].
///
/// The lexer does not hold a borrow of the `SourceManager` (it captures the
/// buffer's base location instead) so the preprocessor can register
/// `#include`d files while lexers are live.
pub struct Lexer<'a> {
    buffer: Arc<MemoryBuffer>,
    base: SourceLocation,
    diags: &'a DiagnosticsEngine,
    pos: usize,
    at_line_start: bool,
    /// A string literal's unescaped contents, reused across literals.
    scratch: String,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over the file `file` registered in `sm`.
    pub fn new(sm: &SourceManager, file: FileId, diags: &'a DiagnosticsEngine) -> Self {
        Lexer::from_buffer(
            Arc::clone(sm.buffer(file)),
            sm.loc_for_offset(file, 0),
            diags,
        )
    }

    /// Creates a lexer from a buffer whose first byte has location `base`.
    pub fn from_buffer(
        buffer: Arc<MemoryBuffer>,
        base: SourceLocation,
        diags: &'a DiagnosticsEngine,
    ) -> Self {
        Lexer {
            buffer,
            base,
            diags,
            pos: 0,
            at_line_start: true,
            scratch: String::new(),
        }
    }

    fn peek(&self) -> u8 {
        self.buffer.char_at(self.pos)
    }

    fn peek2(&self) -> u8 {
        self.buffer.char_at(self.pos + 1)
    }

    fn peek3(&self) -> u8 {
        self.buffer.char_at(self.pos + 2)
    }

    fn bump(&mut self) -> u8 {
        let c = self.peek();
        self.pos += 1;
        c
    }

    fn loc(&self) -> SourceLocation {
        self.base.offset(self.pos as u32)
    }

    /// Skips whitespace and comments, updating the line-start flag.
    /// A backslash-newline continues the line (needed for long pragmas).
    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                b'\n' => {
                    self.at_line_start = true;
                    self.pos += 1;
                }
                b' ' | b'\t' | b'\r' => {
                    self.pos += 1;
                }
                b'\\' if self.peek2() == b'\n' => {
                    self.pos += 2; // line continuation: does NOT set at_line_start
                }
                b'\\' if self.peek2() == b'\r' && self.peek3() == b'\n' => {
                    self.pos += 3;
                }
                b'/' if self.peek2() == b'/' => {
                    while self.peek() != b'\n' && self.peek() != 0 {
                        self.pos += 1;
                    }
                }
                b'/' if self.peek2() == b'*' => {
                    let start = self.loc();
                    self.pos += 2;
                    loop {
                        if self.peek() == 0 {
                            self.diags.error(start, "unterminated /* comment");
                            break;
                        }
                        if self.peek() == b'*' && self.peek2() == b'/' {
                            self.pos += 2;
                            break;
                        }
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    /// Lexes the next token, interning its spelling in `idents`. Returns
    /// `Eof` forever at end of input.
    pub fn next_token(&mut self, idents: &mut IdentifierTable) -> Token {
        self.skip_trivia();
        let at_line_start = std::mem::replace(&mut self.at_line_start, false);
        let loc = self.loc();
        let kind = self.lex_kind(idents);
        Token {
            kind,
            loc,
            at_line_start,
        }
    }

    fn lex_kind(&mut self, idents: &mut IdentifierTable) -> TokenKind {
        let c = self.peek();
        match c {
            0 => TokenKind::Eof,
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.lex_ident(idents),
            b'0'..=b'9' => self.lex_number(),
            b'.' if self.peek2().is_ascii_digit() => self.lex_number(),
            b'"' => self.lex_string(idents),
            b'\'' => self.lex_char(),
            _ => self.lex_punct(),
        }
    }

    fn lex_ident(&mut self, idents: &mut IdentifierTable) -> TokenKind {
        let start = self.pos;
        while matches!(self.peek(), b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_') {
            self.pos += 1;
        }
        let text = &self.buffer.data()[start..self.pos];
        match Keyword::from_spelling(text) {
            Some(k) => TokenKind::Kw(k),
            None => TokenKind::Ident(idents.intern(text)),
        }
    }

    fn lex_number(&mut self) -> TokenKind {
        let start = self.pos;
        let loc = self.loc();
        // Hex?
        if self.peek() == b'0' && (self.peek2() | 0x20) == b'x' {
            self.pos += 2;
            let digits = self.pos;
            while self.peek().is_ascii_hexdigit() {
                self.pos += 1;
            }
            return self.lex_int(digits, 16, loc);
        }
        let mut is_float = false;
        while self.peek().is_ascii_digit() {
            self.pos += 1;
        }
        if self.peek() == b'.' && self.peek2() != b'.' {
            is_float = true;
            self.pos += 1;
            while self.peek().is_ascii_digit() {
                self.pos += 1;
            }
        }
        if (self.peek() | 0x20) == b'e'
            && (self.peek2().is_ascii_digit()
                || ((self.peek2() == b'+' || self.peek2() == b'-')
                    && self.peek3().is_ascii_digit()))
        {
            is_float = true;
            self.pos += 1; // e
            if self.peek() == b'+' || self.peek() == b'-' {
                self.pos += 1;
            }
            while self.peek().is_ascii_digit() {
                self.pos += 1;
            }
        }
        let text = &self.buffer.data()[start..self.pos];
        if is_float {
            if (self.peek() | 0x20) == b'f' || (self.peek() | 0x20) == b'l' {
                self.pos += 1; // float/long-double suffix; type kept as double
            }
            match text.parse::<f64>() {
                Ok(v) => TokenKind::FloatLit(v),
                Err(_) => {
                    self.diags
                        .error(loc, format!("invalid floating literal '{text}'"));
                    TokenKind::FloatLit(0.0)
                }
            }
        } else {
            // A leading `0` makes the literal octal (`0` itself included).
            let radix = if text.starts_with('0') { 8 } else { 10 };
            self.lex_int(start, radix, loc)
        }
    }

    /// An integer literal whose digits run from `digits` to here, plus its
    /// suffix. A value no C type holds — above `u64::MAX` under LP64 — is
    /// Clang's error, and the literal reads 0.
    fn lex_int(&mut self, digits: usize, radix: u32, loc: SourceLocation) -> TokenKind {
        let text = &self.buffer.data()[digits..self.pos];
        let value = u64::from_str_radix(text, radix).unwrap_or_else(|e| {
            self.diags.error(
                loc,
                match e.kind() {
                    IntErrorKind::PosOverflow => {
                        "integer literal is too large to be represented in any integer type"
                            .to_string()
                    }
                    _ if radix == 16 => "invalid hexadecimal literal".to_string(),
                    _ => {
                        let bad = text.chars().find(|c| !c.is_digit(radix)).unwrap_or('?');
                        format!("invalid digit '{bad}' in octal constant")
                    }
                },
            );
            0
        });
        let suffix = self.lex_int_suffix();
        TokenKind::IntLit {
            value,
            suffix,
            decimal: radix == 10,
        }
    }

    fn lex_int_suffix(&mut self) -> IntSuffix {
        let mut unsigned = false;
        let mut longs = 0u8;
        loop {
            match self.peek() | 0x20 {
                b'u' if !unsigned => {
                    unsigned = true;
                    self.pos += 1;
                }
                b'l' if longs < 2 => {
                    longs += 1;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        match (unsigned, longs) {
            (false, 0) => IntSuffix::None,
            (true, 0) => IntSuffix::Unsigned,
            (false, 1) => IntSuffix::Long,
            (true, 1) => IntSuffix::UnsignedLong,
            (false, _) => IntSuffix::LongLong,
            (true, _) => IntSuffix::UnsignedLongLong,
        }
    }

    fn lex_string(&mut self, idents: &mut IdentifierTable) -> TokenKind {
        let loc = self.loc();
        self.pos += 1; // "
        let mut s = std::mem::take(&mut self.scratch);
        s.clear();
        loop {
            match self.bump() {
                0 | b'\n' => {
                    self.diags.error(loc, "unterminated string literal");
                    break;
                }
                b'"' => break,
                b'\\' => s.push(unescape(self.bump())),
                c => s.push(c as char),
            }
        }
        let sym = idents.intern(&s);
        self.scratch = s;
        TokenKind::StrLit(sym)
    }

    fn lex_char(&mut self) -> TokenKind {
        let loc = self.loc();
        self.pos += 1; // '
        let c = match self.bump() {
            b'\\' => unescape(self.bump()) as u8,
            0 => {
                self.diags.error(loc, "unterminated character literal");
                0
            }
            c => c,
        };
        if self.peek() == b'\'' {
            self.pos += 1;
        } else {
            self.diags
                .error(loc, "expected closing ' in character literal");
        }
        TokenKind::CharLit(c)
    }

    /// The longest punctuator starting with the one just read, `short`: the
    /// first of `longer` whose next byte comes next (consumed), else `short`.
    fn longest(&mut self, short: Punct, longer: &[(u8, Punct)]) -> Punct {
        match longer.iter().find(|(c, _)| self.peek() == *c) {
            Some(&(_, p)) => {
                self.pos += 1;
                p
            }
            None => short,
        }
    }

    fn lex_punct(&mut self) -> TokenKind {
        use Punct::*;
        let loc = self.loc();
        let p = match self.bump() {
            b'(' => LParen,
            b')' => RParen,
            b'{' => LBrace,
            b'}' => RBrace,
            b'[' => LBracket,
            b']' => RBracket,
            b';' => Semi,
            b',' => Comma,
            b'?' => Question,
            b'~' => Tilde,
            b'#' => Hash,
            b':' => Colon,
            b'.' if self.peek() == b'.' && self.peek2() == b'.' => {
                self.pos += 2;
                Ellipsis
            }
            b'.' => Dot,
            b'+' => self.longest(Plus, &[(b'+', PlusPlus), (b'=', PlusAssign)]),
            b'-' => self.longest(
                Minus,
                &[(b'-', MinusMinus), (b'=', MinusAssign), (b'>', Arrow)],
            ),
            b'*' => self.longest(Star, &[(b'=', StarAssign)]),
            b'/' => self.longest(Slash, &[(b'=', SlashAssign)]),
            b'%' => self.longest(Percent, &[(b'=', PercentAssign)]),
            b'^' => self.longest(Caret, &[(b'=', CaretAssign)]),
            b'!' => self.longest(Bang, &[(b'=', NotEq)]),
            b'=' => self.longest(Assign, &[(b'=', EqEq)]),
            b'&' => self.longest(Amp, &[(b'&', AmpAmp), (b'=', AmpAssign)]),
            b'|' => self.longest(Pipe, &[(b'|', PipePipe), (b'=', PipeAssign)]),
            b'<' => match self.longest(Lt, &[(b'<', Shl), (b'=', Le)]) {
                Shl => self.longest(Shl, &[(b'=', ShlAssign)]),
                p => p,
            },
            b'>' => match self.longest(Gt, &[(b'>', Shr), (b'=', Ge)]) {
                Shr => self.longest(Shr, &[(b'=', ShrAssign)]),
                p => p,
            },
            other => {
                if other >= 0x80 {
                    // Consume the remaining bytes of the UTF-8 sequence so a
                    // multi-byte character yields one diagnostic, not one per
                    // continuation byte.
                    while (0x80..0xC0).contains(&self.peek()) {
                        self.pos += 1;
                    }
                    self.diags.error(loc, "unexpected non-ASCII character");
                } else {
                    self.diags
                        .error(loc, format!("unexpected character '{}'", other as char));
                }
                // Recover by treating it as a semicolon-like separator.
                Semi
            }
        };
        TokenKind::Punct(p)
    }
}

fn unescape(c: u8) -> char {
    match c {
        b'n' => '\n',
        b't' => '\t',
        b'r' => '\r',
        b'0' => '\0',
        b'\\' => '\\',
        b'\'' => '\'',
        b'"' => '"',
        other => other as char,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omplt_source::FileManager;

    fn lex_all(src: &str) -> (Vec<Token>, DiagnosticsEngine, IdentifierTable) {
        let mut fm = FileManager::new();
        let buf = fm.add_virtual_file("t.c", src);
        let mut sm = SourceManager::new();
        let (id, _) = sm.add_file(buf);
        let diags = DiagnosticsEngine::new();
        let mut idents = IdentifierTable::default();
        let mut toks = Vec::new();
        {
            let mut lx = Lexer::new(&sm, id, &diags);
            loop {
                let t = lx.next_token(&mut idents);
                let eof = matches!(t.kind, TokenKind::Eof);
                toks.push(t);
                if eof {
                    break;
                }
            }
        }
        (toks, diags, idents)
    }

    /// The kinds, with identifiers and strings spelled out.
    fn kinds(src: &str) -> Vec<String> {
        let (toks, diags, idents) = lex_all(src);
        assert!(
            !diags.has_errors(),
            "unexpected lex errors:\n{:?}",
            diags.all()
        );
        toks.iter().map(|t| t.kind.spelled(&idents)).collect()
    }

    fn int_kinds(src: &str) -> Vec<TokenKind> {
        let (toks, _, _) = lex_all(src);
        toks.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn idents_and_keywords() {
        let k = kinds("int foo for4 for foo").join(" ");
        assert_eq!(
            k,
            r#"Kw(Int) Ident("foo") Ident("for4") Kw(For) Ident("foo") Eof"#
        );
        let (toks, ..) = lex_all("foo bar foo");
        assert_eq!(toks[0].kind, toks[2].kind, "one symbol per spelling");
        assert_ne!(toks[0].kind, toks[1].kind);
    }

    #[test]
    fn integer_literals() {
        let k = int_kinds("0 42 0x2A 7u 9L 10ul 010 0xFFFFFFFFFFFFFFFF");
        let vals: Vec<u64> = k
            .iter()
            .filter_map(|t| match t {
                TokenKind::IntLit { value, .. } => Some(*value),
                _ => None,
            })
            .collect();
        assert_eq!(vals, vec![0, 42, 42, 7, 9, 10, 8, u64::MAX]);
        let decimal: Vec<bool> = k
            .iter()
            .filter_map(|t| match t {
                TokenKind::IntLit { decimal, .. } => Some(*decimal),
                _ => None,
            })
            .collect();
        assert_eq!(
            decimal,
            [false, true, false, true, true, true, false, false]
        );
        assert!(matches!(
            k[3],
            TokenKind::IntLit {
                suffix: IntSuffix::Unsigned,
                ..
            }
        ));
        assert!(matches!(
            k[4],
            TokenKind::IntLit {
                suffix: IntSuffix::Long,
                ..
            }
        ));
        assert!(matches!(
            k[5],
            TokenKind::IntLit {
                suffix: IntSuffix::UnsignedLong,
                ..
            }
        ));
    }

    #[test]
    fn integer_literals_c_cannot_type_are_errors() {
        for (src, msg) in [
            (
                "99999999999999999999",
                "integer literal is too large to be represented in any integer type",
            ),
            ("0x10000000000000000", "too large to be represented"),
            ("09", "invalid digit '9' in octal constant"),
        ] {
            let (toks, diags, _) = lex_all(src);
            let first = &diags.all()[0].message;
            assert!(first.contains(msg), "{src}: {first}");
            assert!(matches!(toks[0].kind, TokenKind::IntLit { value: 0, .. }));
        }
    }

    #[test]
    fn float_literals() {
        let k = int_kinds("1.5 2. 3e2 4.5e-1 2.0f 09.5");
        let vals: Vec<f64> = k
            .iter()
            .filter_map(|t| match t {
                TokenKind::FloatLit(v) => Some(*v),
                _ => None,
            })
            .collect();
        assert_eq!(vals, vec![1.5, 2.0, 300.0, 0.45, 2.0, 9.5]);
    }

    #[test]
    fn float_vs_member_access() {
        let k = kinds("a.b");
        assert_eq!(k[..3], [r#"Ident("a")"#, "Punct(Dot)", r#"Ident("b")"#]);
    }

    #[test]
    fn operators_maximal_munch() {
        // Every multi-byte punctuator next to its prefixes, without spaces
        // where maximal munch decides.
        let src = "+= ++ + <<= << <= < -> >>= >> >= > -- -= - && &= & || |= | == = != ! *= * \
                   /= / %= % ^= ^ ... . ->>";
        let ps: Vec<&str> = int_kinds(src)
            .iter()
            .filter_map(|t| match t {
                TokenKind::Punct(p) => Some(p.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(ps.join(" "), src.replace("->>", "-> >"));
    }

    #[test]
    fn comments_are_trivia() {
        let k = kinds("a // line\n b /* block\n over lines */ c");
        assert_eq!(k.len(), 4); // a b c eof
    }

    #[test]
    fn line_start_flag() {
        let (toks, ..) = lex_all("a b\nc");
        assert!(toks[0].at_line_start);
        assert!(!toks[1].at_line_start);
        assert!(toks[2].at_line_start);
    }

    #[test]
    fn backslash_newline_continues_line() {
        let (toks, ..) = lex_all("a \\\nb");
        assert!(
            !toks[1].at_line_start,
            "continuation must not start a new line"
        );
    }

    #[test]
    fn string_and_char_literals() {
        let k = kinds(r#""hi\n" 'x' '\n'"#);
        assert_eq!(k[..3], [r#"StrLit("hi\n")"#, "CharLit(120)", "CharLit(10)"]);
    }

    #[test]
    fn unterminated_comment_diagnosed() {
        let (_, diags, _) = lex_all("a /* oops");
        assert!(diags.has_errors());
    }

    #[test]
    fn eof_is_sticky() {
        let (toks, ..) = lex_all("");
        assert!(matches!(toks.last().unwrap().kind, TokenKind::Eof));
    }

    #[test]
    fn locations_point_at_token_start() {
        let (toks, ..) = lex_all("ab cd");
        assert_eq!(toks[0].loc.raw(), 1);
        assert_eq!(toks[1].loc.raw(), 4);
    }
}
