//! Recursive-descent parser for the C subset. Every recognized construct is
//! pushed into [`Sema`] action methods, mirroring Clang's control flow
//! (paper Fig. 1: "when the parser has decided what syntactic element it
//! is, it is pushed to Sema to create an AST node for it").

use crate::pragma::parse_omp_directive;
use omplt_ast::{
    BinOp, Decl, Expr, ExprKind, IntWidth, Stmt, StmtKind, TranslationUnit, Type, TypeKind, UnOp, P,
};
use omplt_lex::{Keyword, Punct, Token, TokenKind};
use omplt_sema::Sema;
use omplt_source::SourceLocation;

/// Parses a preprocessed token stream into a translation unit.
pub fn parse_translation_unit(tokens: Vec<Token>, sema: &mut Sema<'_>) -> TranslationUnit {
    let _span = omplt_trace::span("parse");
    omplt_fault::panic_if_armed("parse.panic");
    let mut p = Parser::new(tokens, sema);
    p.parse_tu()
}

/// The parser state.
pub struct Parser<'s, 'a> {
    toks: Vec<Token>,
    pos: usize,
    /// The semantic analyzer actions are pushed into.
    pub sema: &'s mut Sema<'a>,
}

impl<'s, 'a> Parser<'s, 'a> {
    /// Creates a parser over `toks` (which must end with `Eof`).
    pub fn new(toks: Vec<Token>, sema: &'s mut Sema<'a>) -> Self {
        Parser { toks, pos: 0, sema }
    }

    // ---------------- token plumbing ----------------

    pub(crate) fn peek(&self) -> &Token {
        self.peek_nth(0)
    }

    fn peek2(&self) -> &Token {
        self.peek_nth(1)
    }

    /// The token `n` positions ahead (the trailing `Eof` repeats).
    pub(crate) fn peek_nth(&self, n: usize) -> &Token {
        &self.toks[(self.pos + n).min(self.toks.len() - 1)]
    }

    pub(crate) fn next(&mut self) -> Token {
        let t = self.toks[self.pos.min(self.toks.len() - 1)].clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    pub(crate) fn loc(&self) -> SourceLocation {
        self.peek().loc
    }

    pub(crate) fn at_punct(&self, p: Punct) -> bool {
        self.peek().kind.is_punct(p)
    }

    fn at_kw(&self, k: Keyword) -> bool {
        self.peek().kind.is_kw(k)
    }

    pub(crate) fn eat_punct(&mut self, p: Punct) -> bool {
        if self.at_punct(p) {
            self.next();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, k: Keyword) -> bool {
        if self.at_kw(k) {
            self.next();
            true
        } else {
            false
        }
    }

    pub(crate) fn expect_punct(&mut self, p: Punct) {
        if !self.eat_punct(p) {
            let d = self.peek().describe();
            self.sema.diags.error(
                self.loc(),
                format!("expected '{}', found {}", p.as_str(), d),
            );
        }
    }

    fn error_here(&mut self, msg: impl Into<String>) {
        self.sema.diags.error(self.loc(), msg);
    }

    /// Skips to the next `;` or `}` for error recovery.
    fn recover(&mut self) {
        loop {
            match &self.peek().kind {
                TokenKind::Eof => return,
                TokenKind::Punct(Punct::Semi) | TokenKind::Punct(Punct::RBrace) => {
                    self.next();
                    return;
                }
                _ => {
                    self.next();
                }
            }
        }
    }

    // ---------------- types ----------------

    /// Whether the current token can start a type.
    pub(crate) fn at_type_start(&self) -> bool {
        matches!(
            self.peek().kind,
            TokenKind::Kw(
                Keyword::Void
                    | Keyword::Bool
                    | Keyword::Char
                    | Keyword::Short
                    | Keyword::Int
                    | Keyword::Long
                    | Keyword::Unsigned
                    | Keyword::Signed
                    | Keyword::Float
                    | Keyword::Double
                    | Keyword::SizeT
                    | Keyword::PtrdiffT
                    | Keyword::Const
                    | Keyword::Auto
            )
        )
    }

    /// Parses declaration specifiers + pointer declarators:
    /// `const unsigned long **`. Returns `None` for `auto` (range-for only).
    pub(crate) fn parse_type(&mut self) -> Option<P<Type>> {
        let mut signed: Option<bool> = None;
        let mut base: Option<P<Type>> = None;
        let mut longs = 0u8;
        let mut is_auto = false;
        let mut any = false;
        while let TokenKind::Kw(k) = self.peek().kind {
            match k {
                Keyword::Const => {
                    self.next();
                }
                Keyword::Auto => {
                    self.next();
                    is_auto = true;
                    any = true;
                }
                Keyword::Void => {
                    self.next();
                    base = Some(self.sema.ctx.void());
                    any = true;
                }
                Keyword::Bool => {
                    self.next();
                    base = Some(self.sema.ctx.bool_ty());
                    any = true;
                }
                Keyword::Char => {
                    self.next();
                    base = Some(self.sema.ctx.char_ty());
                    any = true;
                }
                Keyword::Short => {
                    self.next();
                    base = Some(self.sema.ctx.short_ty());
                    any = true;
                }
                Keyword::Int => {
                    self.next();
                    if base.is_none() {
                        base = Some(self.sema.ctx.int());
                    }
                    any = true;
                }
                Keyword::Long => {
                    self.next();
                    longs += 1;
                    any = true;
                }
                Keyword::Unsigned => {
                    self.next();
                    signed = Some(false);
                    any = true;
                }
                Keyword::Signed => {
                    self.next();
                    signed = Some(true);
                    any = true;
                }
                Keyword::Float => {
                    self.next();
                    base = Some(self.sema.ctx.float_ty());
                    any = true;
                }
                Keyword::Double => {
                    self.next();
                    base = Some(self.sema.ctx.double_ty());
                    any = true;
                }
                Keyword::SizeT => {
                    self.next();
                    base = Some(self.sema.ctx.size_t());
                    any = true;
                }
                Keyword::PtrdiffT => {
                    self.next();
                    base = Some(self.sema.ctx.ptrdiff_t());
                    any = true;
                }
                _ => break,
            }
        }
        if !any {
            return None;
        }
        if is_auto {
            // `auto` is only valid as a range-for element placeholder.
            return None;
        }
        let mut ty = if longs > 0 {
            self.sema.ctx.int_ty(IntWidth::W64, signed.unwrap_or(true))
        } else {
            match base {
                Some(b) => {
                    if let Some(s) = signed {
                        match b.kind {
                            TypeKind::Int { width, .. } => self.sema.ctx.int_ty(width, s),
                            _ => b,
                        }
                    } else {
                        b
                    }
                }
                None => self.sema.ctx.int_ty(IntWidth::W32, signed.unwrap_or(true)),
            }
        };
        while self.eat_punct(Punct::Star) {
            // allow `* const`
            while self.eat_kw(Keyword::Const) {}
            ty = self.sema.ctx.pointer_to(ty);
        }
        Some(ty)
    }

    // ---------------- translation unit ----------------

    fn parse_tu(&mut self) -> TranslationUnit {
        let mut tu = TranslationUnit::default();
        while !matches!(self.peek().kind, TokenKind::Eof) {
            // Skip file-scope OpenMP pragmas (not supported) gracefully.
            if matches!(self.peek().kind, TokenKind::PragmaOmpStart) {
                self.error_here("OpenMP directives are only supported inside functions");
                while !matches!(self.peek().kind, TokenKind::PragmaOmpEnd | TokenKind::Eof) {
                    self.next();
                }
                self.next();
                continue;
            }
            // extern/static storage specifiers are accepted and ignored.
            while self.eat_kw(Keyword::Extern) || self.eat_kw(Keyword::Static) {}
            let Some(ty) = self.parse_type() else {
                self.error_here(format!(
                    "expected declaration, found {}",
                    self.peek().describe()
                ));
                self.recover();
                continue;
            };
            let name_loc = self.loc();
            let name = match &self.next().kind {
                TokenKind::Ident(n) => n.clone(),
                other => {
                    self.sema
                        .diags
                        .error(name_loc, format!("expected identifier, found {other:?}"));
                    self.recover();
                    continue;
                }
            };
            if self.at_punct(Punct::LParen) {
                if let Some(f) = self.parse_function_rest(name, ty, name_loc) {
                    tu.decls.push(Decl::Function(f));
                }
            } else {
                let ty = self.parse_array_suffix(ty);
                let init = if self.eat_punct(Punct::Assign) {
                    Some(self.parse_assignment_expr())
                } else {
                    None
                };
                self.expect_punct(Punct::Semi);
                let v = self.sema.act_on_var_decl(&name, ty, init, false, name_loc);
                tu.decls.push(Decl::Var(v));
            }
        }
        tu
    }

    fn parse_array_suffix(&mut self, mut ty: P<Type>) -> P<Type> {
        let mut dims = Vec::new();
        while self.eat_punct(Punct::LBracket) {
            let loc = self.loc();
            let e = self.parse_assignment_expr();
            let n = match e.eval_const_int() {
                Some(v) if v > 0 => v as u64,
                _ => {
                    self.sema
                        .diags
                        .error(loc, "array size must be a positive constant");
                    1
                }
            };
            dims.push(n);
            self.expect_punct(Punct::RBracket);
        }
        for &n in dims.iter().rev() {
            ty = Type::new(TypeKind::Array(ty, n));
        }
        ty
    }

    fn parse_function_rest(
        &mut self,
        name: String,
        ret: P<Type>,
        loc: SourceLocation,
    ) -> Option<P<omplt_ast::FunctionDecl>> {
        self.expect_punct(Punct::LParen);
        let mut params = Vec::new();
        if !self.at_punct(Punct::RParen) {
            // `(void)` means no parameters
            if self.at_kw(Keyword::Void) && self.peek2().kind.is_punct(Punct::RParen) {
                self.next();
            } else {
                loop {
                    let Some(pty) = self.parse_type() else {
                        self.error_here("expected parameter type");
                        break;
                    };
                    let ploc = self.loc();
                    let pname = match &self.peek().kind {
                        TokenKind::Ident(n) => {
                            let n = n.clone();
                            self.next();
                            n
                        }
                        _ => self.sema.ctx.fresh_name(".unnamed."),
                    };
                    // Array parameters decay to pointers.
                    let pty = self.parse_array_suffix(pty);
                    let pty = match &pty.kind {
                        TypeKind::Array(el, _) => self.sema.ctx.pointer_to(P::clone(el)),
                        _ => pty,
                    };
                    params.push((pname, pty, ploc));
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
            }
        }
        self.expect_punct(Punct::RParen);
        let func = self.sema.act_on_function_start(&name, ret, params, loc);
        if self.at_punct(Punct::LBrace) {
            let body = self.parse_compound_stmt();
            self.sema.act_on_function_end(&func, Some(body));
        } else {
            self.expect_punct(Punct::Semi);
            self.sema.act_on_function_end(&func, None);
        }
        Some(func)
    }

    // ---------------- statements ----------------

    /// Parses one statement.
    pub fn parse_stmt(&mut self) -> P<Stmt> {
        let loc = self.loc();
        match &self.peek().kind {
            TokenKind::PragmaOmpStart => parse_omp_directive(self),
            TokenKind::Punct(Punct::LBrace) => self.parse_compound_stmt(),
            TokenKind::Punct(Punct::Semi) => {
                self.next();
                Stmt::new(StmtKind::Null, loc)
            }
            TokenKind::Kw(Keyword::If) => {
                self.next();
                self.expect_punct(Punct::LParen);
                let cond = self.parse_expr();
                let cond = self.sema.to_bool(cond);
                self.expect_punct(Punct::RParen);
                let then = self.parse_stmt();
                let els = if self.eat_kw(Keyword::Else) {
                    Some(self.parse_stmt())
                } else {
                    None
                };
                Stmt::new(StmtKind::If { cond, then, els }, loc)
            }
            TokenKind::Kw(Keyword::While) => {
                self.next();
                self.expect_punct(Punct::LParen);
                let cond = self.parse_expr();
                let cond = self.sema.to_bool(cond);
                self.expect_punct(Punct::RParen);
                let body = self.parse_stmt();
                Stmt::new(StmtKind::While { cond, body }, loc)
            }
            TokenKind::Kw(Keyword::Do) => {
                self.next();
                let body = self.parse_stmt();
                if !self.eat_kw(Keyword::While) {
                    self.error_here("expected 'while' after do-body");
                }
                self.expect_punct(Punct::LParen);
                let cond = self.parse_expr();
                let cond = self.sema.to_bool(cond);
                self.expect_punct(Punct::RParen);
                self.expect_punct(Punct::Semi);
                Stmt::new(StmtKind::DoWhile { body, cond }, loc)
            }
            TokenKind::Kw(Keyword::For) => self.parse_for_stmt(),
            TokenKind::Kw(Keyword::Return) => {
                self.next();
                let e = if self.at_punct(Punct::Semi) {
                    None
                } else {
                    Some(self.parse_expr())
                };
                self.expect_punct(Punct::Semi);
                self.sema.act_on_return(e, loc)
            }
            TokenKind::Kw(Keyword::Break) => {
                self.next();
                self.expect_punct(Punct::Semi);
                Stmt::new(StmtKind::Break, loc)
            }
            TokenKind::Kw(Keyword::Continue) => {
                self.next();
                self.expect_punct(Punct::Semi);
                Stmt::new(StmtKind::Continue, loc)
            }
            _ if self.at_type_start() => self.parse_decl_stmt(),
            _ => {
                let e = self.parse_expr();
                self.expect_punct(Punct::Semi);
                Stmt::new(StmtKind::Expr(e), loc)
            }
        }
    }

    /// `{ stmt* }` with its own scope.
    pub fn parse_compound_stmt(&mut self) -> P<Stmt> {
        let loc = self.loc();
        self.expect_punct(Punct::LBrace);
        self.sema.scopes.push();
        let mut stmts = Vec::new();
        while !self.at_punct(Punct::RBrace) && !matches!(self.peek().kind, TokenKind::Eof) {
            stmts.push(self.parse_stmt());
        }
        self.expect_punct(Punct::RBrace);
        self.sema.scopes.pop();
        Stmt::new(StmtKind::Compound(stmts), loc)
    }

    fn parse_decl_stmt(&mut self) -> P<Stmt> {
        let loc = self.loc();
        let Some(base_ty) = self.parse_type() else {
            self.error_here("expected type");
            self.recover();
            return Stmt::new(StmtKind::Null, loc);
        };
        let mut decls = Vec::new();
        loop {
            let name_loc = self.loc();
            let name = match &self.peek().kind {
                TokenKind::Ident(n) => {
                    let n = n.clone();
                    self.next();
                    n
                }
                _ => {
                    self.error_here("expected identifier in declaration");
                    self.recover();
                    return Stmt::new(StmtKind::Null, loc);
                }
            };
            let ty = self.parse_array_suffix(P::clone(&base_ty));
            let init = if self.eat_punct(Punct::Assign) {
                Some(self.parse_assignment_expr())
            } else {
                None
            };
            decls.push(Decl::Var(
                self.sema.act_on_var_decl(&name, ty, init, false, name_loc),
            ));
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::Semi);
        Stmt::new(StmtKind::Decl(decls), loc)
    }

    /// `for (...)`, including range-based `for (T [&]x : arr)`.
    fn parse_for_stmt(&mut self) -> P<Stmt> {
        let loc = self.loc();
        self.next(); // for
        self.expect_punct(Punct::LParen);

        // Range-for lookahead: type [&] ident ':'
        if self.at_type_start() {
            let save = self.pos;
            let elem_ty = self.parse_type(); // None for `auto`
            let by_ref = self.eat_punct(Punct::Amp);
            if let TokenKind::Ident(name) = self.peek().kind.clone() {
                if self.peek2().kind.is_punct(Punct::Colon) {
                    self.next(); // ident
                    self.next(); // :
                    let range = self.parse_expr();
                    self.expect_punct(Punct::RParen);
                    match self
                        .sema
                        .act_on_range_for_begin(&name, elem_ty, by_ref, range, loc)
                    {
                        Some(parts) => {
                            let body = self.parse_stmt();
                            return self.sema.act_on_range_for_end(parts, body);
                        }
                        None => {
                            let _ = self.parse_stmt();
                            return Stmt::new(StmtKind::Null, loc);
                        }
                    }
                }
            }
            self.pos = save;
        }

        self.sema.scopes.push(); // loop-init scope
        let init = if self.at_punct(Punct::Semi) {
            self.next();
            None
        } else if self.at_type_start() {
            Some(self.parse_decl_stmt())
        } else {
            let e = self.parse_expr();
            self.expect_punct(Punct::Semi);
            Some(Stmt::new(StmtKind::Expr(e), loc))
        };
        let cond = if self.at_punct(Punct::Semi) {
            None
        } else {
            Some(self.parse_expr())
        };
        self.expect_punct(Punct::Semi);
        let inc = if self.at_punct(Punct::RParen) {
            None
        } else {
            Some(self.parse_expr())
        };
        self.expect_punct(Punct::RParen);
        let body = self.parse_stmt();
        self.sema.scopes.pop();
        Stmt::new(
            StmtKind::For {
                init,
                cond,
                inc,
                body,
            },
            loc,
        )
    }

    // ---------------- expressions ----------------

    /// Full expression (lowest precedence: comma).
    pub fn parse_expr(&mut self) -> P<Expr> {
        let mut e = self.parse_assignment_expr();
        while self.at_punct(Punct::Comma) {
            let loc = self.loc();
            self.next();
            let r = self.parse_assignment_expr();
            e = self.sema.act_on_binary(BinOp::Comma, e, r, loc);
        }
        e
    }

    /// Assignment expression (right-associative).
    pub fn parse_assignment_expr(&mut self) -> P<Expr> {
        let lhs = self.parse_conditional();
        let op = match &self.peek().kind {
            TokenKind::Punct(Punct::Assign) => BinOp::Assign,
            TokenKind::Punct(Punct::PlusAssign) => BinOp::AddAssign,
            TokenKind::Punct(Punct::MinusAssign) => BinOp::SubAssign,
            TokenKind::Punct(Punct::StarAssign) => BinOp::MulAssign,
            TokenKind::Punct(Punct::SlashAssign) => BinOp::DivAssign,
            TokenKind::Punct(Punct::PercentAssign) => BinOp::RemAssign,
            TokenKind::Punct(Punct::ShlAssign) => BinOp::ShlAssign,
            TokenKind::Punct(Punct::ShrAssign) => BinOp::ShrAssign,
            TokenKind::Punct(Punct::AmpAssign) => BinOp::AndAssign,
            TokenKind::Punct(Punct::PipeAssign) => BinOp::OrAssign,
            TokenKind::Punct(Punct::CaretAssign) => BinOp::XorAssign,
            _ => return lhs,
        };
        let loc = self.loc();
        self.next();
        let rhs = self.parse_assignment_expr();
        self.sema.act_on_binary(op, lhs, rhs, loc)
    }

    fn parse_conditional(&mut self) -> P<Expr> {
        let c = self.parse_binary(0);
        if self.at_punct(Punct::Question) {
            let loc = self.loc();
            self.next();
            let t = self.parse_expr();
            self.expect_punct(Punct::Colon);
            let f = self.parse_conditional();
            return self.sema.act_on_conditional(c, t, f, loc);
        }
        c
    }

    /// Precedence-climbing binary parser.
    fn parse_binary(&mut self, min_prec: u8) -> P<Expr> {
        let mut lhs = self.parse_unary();
        loop {
            let (op, prec) = match &self.peek().kind {
                TokenKind::Punct(Punct::PipePipe) => (BinOp::LOr, 1),
                TokenKind::Punct(Punct::AmpAmp) => (BinOp::LAnd, 2),
                TokenKind::Punct(Punct::Pipe) => (BinOp::BitOr, 3),
                TokenKind::Punct(Punct::Caret) => (BinOp::BitXor, 4),
                TokenKind::Punct(Punct::Amp) => (BinOp::BitAnd, 5),
                TokenKind::Punct(Punct::EqEq) => (BinOp::Eq, 6),
                TokenKind::Punct(Punct::NotEq) => (BinOp::Ne, 6),
                TokenKind::Punct(Punct::Lt) => (BinOp::Lt, 7),
                TokenKind::Punct(Punct::Gt) => (BinOp::Gt, 7),
                TokenKind::Punct(Punct::Le) => (BinOp::Le, 7),
                TokenKind::Punct(Punct::Ge) => (BinOp::Ge, 7),
                TokenKind::Punct(Punct::Shl) => (BinOp::Shl, 8),
                TokenKind::Punct(Punct::Shr) => (BinOp::Shr, 8),
                TokenKind::Punct(Punct::Plus) => (BinOp::Add, 9),
                TokenKind::Punct(Punct::Minus) => (BinOp::Sub, 9),
                TokenKind::Punct(Punct::Star) => (BinOp::Mul, 10),
                TokenKind::Punct(Punct::Slash) => (BinOp::Div, 10),
                TokenKind::Punct(Punct::Percent) => (BinOp::Rem, 10),
                _ => return lhs,
            };
            if prec < min_prec {
                return lhs;
            }
            let loc = self.loc();
            self.next();
            let rhs = self.parse_binary(prec + 1);
            lhs = self.sema.act_on_binary(op, lhs, rhs, loc);
        }
    }

    fn parse_unary(&mut self) -> P<Expr> {
        let loc = self.loc();
        let op = match &self.peek().kind {
            TokenKind::Punct(Punct::PlusPlus) => Some(UnOp::PreInc),
            TokenKind::Punct(Punct::MinusMinus) => Some(UnOp::PreDec),
            TokenKind::Punct(Punct::Plus) => Some(UnOp::Plus),
            TokenKind::Punct(Punct::Minus) => Some(UnOp::Minus),
            TokenKind::Punct(Punct::Bang) => Some(UnOp::LNot),
            TokenKind::Punct(Punct::Tilde) => Some(UnOp::BitNot),
            TokenKind::Punct(Punct::Star) => Some(UnOp::Deref),
            TokenKind::Punct(Punct::Amp) => Some(UnOp::AddrOf),
            TokenKind::Kw(Keyword::Sizeof) => {
                self.next();
                self.expect_punct(Punct::LParen);
                let e = if self.at_type_start() {
                    let ty = self.parse_type().unwrap_or_else(|| self.sema.ctx.int());
                    Expr::rvalue(ExprKind::SizeOf(ty), self.sema.ctx.size_t(), loc)
                } else {
                    let inner = self.parse_expr();
                    let ty = P::clone(&inner.ty);
                    Expr::rvalue(ExprKind::SizeOf(ty), self.sema.ctx.size_t(), loc)
                };
                self.expect_punct(Punct::RParen);
                return e;
            }
            // C-style cast: '(' type ')' unary-expr
            TokenKind::Punct(Punct::LParen) => {
                if matches!(self.peek2().kind, TokenKind::Kw(k) if type_start_kw(k)) {
                    self.next(); // (
                    let ty = self.parse_type().unwrap_or_else(|| self.sema.ctx.int());
                    self.expect_punct(Punct::RParen);
                    let sub = self.parse_unary();
                    return self.sema.act_on_cast(ty, sub, loc);
                }
                None
            }
            _ => None,
        };
        if let Some(op) = op {
            self.next();
            let sub = self.parse_unary();
            return self.sema.act_on_unary(op, sub, loc);
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> P<Expr> {
        let mut e = self.parse_primary();
        loop {
            let loc = self.loc();
            match &self.peek().kind {
                TokenKind::Punct(Punct::LBracket) => {
                    self.next();
                    let idx = self.parse_expr();
                    self.expect_punct(Punct::RBracket);
                    e = self.sema.act_on_subscript(e, idx, loc);
                }
                TokenKind::Punct(Punct::PlusPlus) => {
                    self.next();
                    e = self.sema.act_on_unary(UnOp::PostInc, e, loc);
                }
                TokenKind::Punct(Punct::MinusMinus) => {
                    self.next();
                    e = self.sema.act_on_unary(UnOp::PostDec, e, loc);
                }
                _ => return e,
            }
        }
    }

    fn parse_primary(&mut self) -> P<Expr> {
        let loc = self.loc();
        match self.next().kind {
            TokenKind::IntLit { value, suffix } => {
                use omplt_lex::token::IntSuffix;
                let ctx = &self.sema.ctx;
                let ty = match suffix {
                    IntSuffix::None => {
                        if value <= i32::MAX as u128 {
                            ctx.int()
                        } else if value <= i64::MAX as u128 {
                            ctx.long_ty()
                        } else {
                            ctx.size_t()
                        }
                    }
                    IntSuffix::Unsigned => ctx.uint(),
                    IntSuffix::Long | IntSuffix::LongLong => ctx.long_ty(),
                    IntSuffix::UnsignedLong | IntSuffix::UnsignedLongLong => ctx.size_t(),
                };
                ctx.int_lit(value as i128, ty, loc)
            }
            TokenKind::FloatLit(v) => {
                Expr::rvalue(ExprKind::FloatingLiteral(v), self.sema.ctx.double_ty(), loc)
            }
            TokenKind::CharLit(c) => self
                .sema
                .ctx
                .int_lit(c as i128, self.sema.ctx.char_ty(), loc),
            TokenKind::StrLit(s) => Expr::rvalue(
                ExprKind::StringLiteral(s),
                self.sema.ctx.pointer_to(self.sema.ctx.char_ty()),
                loc,
            ),
            TokenKind::Kw(Keyword::True) => {
                Expr::rvalue(ExprKind::BoolLiteral(true), self.sema.ctx.bool_ty(), loc)
            }
            TokenKind::Kw(Keyword::False) => {
                Expr::rvalue(ExprKind::BoolLiteral(false), self.sema.ctx.bool_ty(), loc)
            }
            TokenKind::Ident(name) => {
                if self.at_punct(Punct::LParen) {
                    self.next();
                    let mut args = Vec::new();
                    if !self.at_punct(Punct::RParen) {
                        loop {
                            args.push(self.parse_assignment_expr());
                            if !self.eat_punct(Punct::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect_punct(Punct::RParen);
                    self.sema.act_on_call(&name, args, loc)
                } else {
                    self.sema.act_on_decl_ref(&name, loc)
                }
            }
            TokenKind::Punct(Punct::LParen) => {
                let e = self.parse_expr();
                self.expect_punct(Punct::RParen);
                let ty = P::clone(&e.ty);
                let cat = e.category;
                P::new(Expr {
                    kind: ExprKind::Paren(e),
                    ty,
                    category: cat,
                    loc,
                })
            }
            other => {
                self.sema
                    .diags
                    .error(loc, format!("expected expression, found {other:?}"));
                self.sema.error_expr(loc)
            }
        }
    }
}

fn type_start_kw(k: Keyword) -> bool {
    matches!(
        k,
        Keyword::Void
            | Keyword::Bool
            | Keyword::Char
            | Keyword::Short
            | Keyword::Int
            | Keyword::Long
            | Keyword::Unsigned
            | Keyword::Signed
            | Keyword::Float
            | Keyword::Double
            | Keyword::SizeT
            | Keyword::PtrdiffT
            | Keyword::Const
    )
}
