//! Token definitions shared by the lexer, preprocessor and parser.
//!
//! A token owns nothing. The lexer interns every identifier and
//! string-literal spelling in the compilation's [`IdentifierTable`], so an
//! identifier is a [`Symbol`] and a whole token is a small `Copy` value:
//! the preprocessor's lookahead and the parser pass tokens around without
//! copying a string. Whatever renders a token (a diagnostic, a dump) reads
//! its spelling back from the table.

use omplt_source::{IdentifierTable, SourceLocation, Symbol};

/// Declares a token enum whose variants carry their source spelling (and
/// any alternative spellings `from_spelling` accepts).
macro_rules! spelled_enum {
    ($(#[$doc:meta])* $name:ident { $($v:ident = $s:literal $(| $alt:literal)*,)* }) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
        #[allow(missing_docs)]
        pub enum $name {
            $($v,)*
        }

        impl $name {
            /// The variant spelled `s`, if any.
            pub fn from_spelling(s: &str) -> Option<$name> {
                Some(match s {
                    $($s $(| $alt)* => $name::$v,)*
                    _ => return None,
                })
            }

            /// The source spelling.
            pub fn as_str(self) -> &'static str {
                match self {
                    $($name::$v => $s,)*
                }
            }
        }
    };
}

spelled_enum! {
    /// Reserved words of the base language subset.
    Keyword {
        Void = "void",
        Bool = "bool" | "_Bool",
        Char = "char",
        Short = "short",
        Int = "int",
        Long = "long",
        Unsigned = "unsigned",
        Signed = "signed",
        Float = "float",
        Double = "double",
        SizeT = "size_t",
        PtrdiffT = "ptrdiff_t",
        Auto = "auto",
        Const = "const",
        If = "if",
        Else = "else",
        While = "while",
        Do = "do",
        For = "for",
        Return = "return",
        Break = "break",
        Continue = "continue",
        True = "true",
        False = "false",
        Sizeof = "sizeof",
        Extern = "extern",
        Static = "static",
    }
}

spelled_enum! {
    /// Punctuators and operators.
    Punct {
        LParen = "(",
        RParen = ")",
        LBrace = "{",
        RBrace = "}",
        LBracket = "[",
        RBracket = "]",
        Semi = ";",
        Comma = ",",
        Colon = ":",
        Question = "?",
        Plus = "+",
        Minus = "-",
        Star = "*",
        Slash = "/",
        Percent = "%",
        Amp = "&",
        Pipe = "|",
        Caret = "^",
        Tilde = "~",
        Bang = "!",
        Assign = "=",
        PlusAssign = "+=",
        MinusAssign = "-=",
        StarAssign = "*=",
        SlashAssign = "/=",
        PercentAssign = "%=",
        ShlAssign = "<<=",
        ShrAssign = ">>=",
        AmpAssign = "&=",
        PipeAssign = "|=",
        CaretAssign = "^=",
        PlusPlus = "++",
        MinusMinus = "--",
        Shl = "<<",
        Shr = ">>",
        Lt = "<",
        Gt = ">",
        Le = "<=",
        Ge = ">=",
        EqEq = "==",
        NotEq = "!=",
        AmpAmp = "&&",
        PipePipe = "||",
        Arrow = "->",
        Dot = ".",
        Hash = "#",
        Ellipsis = "...",
    }
}

/// Integer-literal suffix, determining the literal's type.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Default)]
pub enum IntSuffix {
    /// No suffix: `int` (or the first fitting wider type).
    #[default]
    None,
    /// `u` / `U`.
    Unsigned,
    /// `l` / `L`.
    Long,
    /// `ul` / `lu` / …
    UnsignedLong,
    /// `ll` / `LL`.
    LongLong,
    /// `ull` / …
    UnsignedLongLong,
}

/// The kind (and payload) of a token.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum TokenKind {
    /// An identifier that is not a keyword.
    Ident(Symbol),
    /// A reserved word.
    Kw(Keyword),
    /// An integer literal: its value (one above `u64::MAX` was reported and
    /// reads 0), its suffix and whether it was written in decimal — what
    /// C11 6.4.4.1 types it by.
    IntLit {
        value: u64,
        suffix: IntSuffix,
        decimal: bool,
    },
    /// A floating-point literal.
    FloatLit(f64),
    /// A string literal (contents, unescaped).
    StrLit(Symbol),
    /// A character literal value.
    CharLit(u8),
    /// A punctuator or operator.
    Punct(Punct),
    /// Annotation token opening an OpenMP pragma region
    /// (Clang: `annot_pragma_openmp`).
    PragmaOmpStart,
    /// Annotation token closing an OpenMP pragma region
    /// (Clang: `annot_pragma_openmp_end`).
    PragmaOmpEnd,
    /// End of input.
    Eof,
}

impl TokenKind {
    /// True for `Punct(p)`.
    pub fn is_punct(&self, p: Punct) -> bool {
        matches!(self, TokenKind::Punct(q) if *q == p)
    }

    /// True for `Kw(k)`.
    pub fn is_kw(&self, k: Keyword) -> bool {
        matches!(self, TokenKind::Kw(q) if *q == k)
    }

    /// The kind as `Debug` prints it, with identifier and string spellings
    /// written out (`Ident("n")`) — how parse diagnostics quote a token.
    pub fn spelled(&self, idents: &IdentifierTable) -> String {
        match *self {
            TokenKind::Ident(s) => format!("Ident({:?})", idents.get(s)),
            TokenKind::StrLit(s) => format!("StrLit({:?})", idents.get(s)),
            TokenKind::IntLit { value, suffix, .. } => {
                format!("IntLit {{ value: {value}, suffix: {suffix:?} }}")
            }
            other => format!("{other:?}"),
        }
    }
}

/// A lexed token: kind, location of its first character, and whether it is
/// the first token on its line (needed for preprocessor-directive detection
/// and for finding the end of a pragma line).
#[derive(Clone, Copy, Debug)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// Location of the first character.
    pub loc: SourceLocation,
    /// Whether a newline (or start of file) precedes this token.
    pub at_line_start: bool,
}

impl Token {
    /// A user-facing description used in parse diagnostics.
    pub fn describe(&self, idents: &IdentifierTable) -> String {
        match self.kind {
            TokenKind::Ident(s) => format!("identifier '{}'", idents.get(s)),
            TokenKind::Kw(k) => format!("'{}'", k.as_str()),
            TokenKind::IntLit { value, .. } => format!("integer literal '{value}'"),
            TokenKind::FloatLit(v) => format!("floating literal '{v}'"),
            TokenKind::StrLit(_) => "string literal".to_string(),
            TokenKind::CharLit(_) => "character literal".to_string(),
            TokenKind::Punct(p) => format!("'{}'", p.as_str()),
            TokenKind::PragmaOmpStart => "'#pragma omp'".to_string(),
            TokenKind::PragmaOmpEnd => "end of OpenMP pragma".to_string(),
            TokenKind::Eof => "end of file".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_round_trip() {
        for kw in ["int", "for", "unsigned", "size_t", "return", "extern"] {
            let k = Keyword::from_spelling(kw).unwrap();
            assert_eq!(k.as_str(), kw);
        }
        assert!(Keyword::from_spelling("omp").is_none());
        assert!(Keyword::from_spelling("unroll").is_none());
    }

    #[test]
    fn punct_spellings() {
        assert_eq!(Punct::PlusAssign.as_str(), "+=");
        assert_eq!(Punct::Ellipsis.as_str(), "...");
        assert_eq!(Punct::Shl.as_str(), "<<");
    }

    #[test]
    fn kind_predicates() {
        assert!(TokenKind::Punct(Punct::Semi).is_punct(Punct::Semi));
        assert!(TokenKind::Kw(Keyword::For).is_kw(Keyword::For));
    }

    #[test]
    fn describe_is_human_readable() {
        let mut idents = IdentifierTable::default();
        let t = |kind| Token {
            kind,
            loc: SourceLocation::INVALID,
            at_line_start: false,
        };
        assert_eq!(t(TokenKind::Punct(Punct::LParen)).describe(&idents), "'('");
        let n = TokenKind::Ident(idents.intern("n"));
        assert_eq!(t(n).describe(&idents), "identifier 'n'");
        // Spelled as the derived `Debug` of an owning token reads.
        assert_eq!(n.spelled(&idents), r#"Ident("n")"#);
        let four = TokenKind::IntLit {
            value: 4,
            suffix: IntSuffix::None,
            decimal: true,
        };
        assert_eq!(four.spelled(&idents), "IntLit { value: 4, suffix: None }");
        assert_eq!(std::mem::size_of::<Token>(), 24);
    }
}
