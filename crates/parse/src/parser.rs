//! Recursive-descent parser for the C subset. Every recognized construct is
//! pushed into [`Sema`] action methods, mirroring Clang's control flow
//! (paper Fig. 1: "when the parser has decided what syntactic element it
//! is, it is pushed to Sema to create an AST node for it").

use crate::pragma::parse_omp_directive;
use omplt_ast::{
    BinOp, Decl, Expr, ExprKind, IntWidth, Stmt, StmtKind, TranslationUnit, Type, TypeKind, UnOp, P,
};
use omplt_lex::token::IntSuffix;
use omplt_lex::{Keyword, Punct, Token, TokenKind};
use omplt_sema::Sema;
use omplt_source::{IdentifierTable, SourceLocation, Symbol};

/// Parses a preprocessed token stream, with the identifier table its
/// symbols index, into a translation unit, which takes the table on.
pub fn parse_translation_unit(
    (tokens, idents): (Vec<Token>, IdentifierTable),
    sema: &mut Sema<'_>,
) -> TranslationUnit {
    let _span = omplt_trace::span("parse");
    omplt_fault::panic_if_armed("parse.panic");
    sema.ctx.set_idents(idents);
    let mut p = Parser::new(tokens, sema);
    let mut tu = p.parse_tu();
    tu.idents = sema.ctx.take_idents();
    tu
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
        let t = self.toks[self.pos.min(self.toks.len() - 1)];
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
            let d = self.peek().describe(&self.sema.ctx.idents());
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
        matches!(self.peek().kind, TokenKind::Kw(k) if type_start_kw(k) || k == Keyword::Auto)
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
            let ctx = &self.sema.ctx;
            match k {
                Keyword::Const => {}
                Keyword::Auto => is_auto = true,
                Keyword::Void => base = Some(ctx.void()),
                Keyword::Bool => base = Some(ctx.bool_ty()),
                Keyword::Char => base = Some(ctx.char_ty()),
                Keyword::Short => base = Some(ctx.short_ty()),
                Keyword::Int => base = base.or_else(|| Some(ctx.int())),
                Keyword::Long => longs += 1,
                Keyword::Unsigned => signed = Some(false),
                Keyword::Signed => signed = Some(true),
                Keyword::Float => base = Some(ctx.float_ty()),
                Keyword::Double => base = Some(ctx.double_ty()),
                Keyword::SizeT => base = Some(ctx.size_t()),
                Keyword::PtrdiffT => base = Some(ctx.ptrdiff_t()),
                _ => break,
            }
            any |= k != Keyword::Const;
            self.next();
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
                    self.peek().describe(&self.sema.ctx.idents())
                ));
                self.recover();
                continue;
            };
            let name_loc = self.loc();
            let name = match self.next().kind {
                TokenKind::Ident(n) => n,
                other => {
                    let other = other.spelled(&self.sema.ctx.idents());
                    self.sema
                        .diags
                        .error(name_loc, format!("expected identifier, found {other}"));
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
                let v = self.sema.act_on_var_decl(name, ty, init, false, name_loc);
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
        name: Symbol,
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
                    let pname = match self.peek().kind {
                        TokenKind::Ident(n) => {
                            self.next();
                            n
                        }
                        _ => self.sema.ctx.intern(&self.sema.ctx.fresh_name(".unnamed.")),
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
        let func = self.sema.act_on_function_start(name, ret, params, loc);
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
                let body = self.parse_loop_body();
                Stmt::new(StmtKind::While { cond, body }, loc)
            }
            TokenKind::Kw(Keyword::Do) => {
                self.next();
                let body = self.parse_loop_body();
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
                self.sema.act_on_loop_jump(StmtKind::Break, loc)
            }
            TokenKind::Kw(Keyword::Continue) => {
                self.next();
                self.expect_punct(Punct::Semi);
                self.sema.act_on_loop_jump(StmtKind::Continue, loc)
            }
            _ if self.at_type_start() => self.parse_decl_stmt(),
            _ => {
                let e = self.parse_expr();
                self.expect_punct(Punct::Semi);
                Stmt::new(StmtKind::Expr(e), loc)
            }
        }
    }

    /// The body of a loop: a `break` or `continue` in it has a loop to
    /// leave.
    fn parse_loop_body(&mut self) -> P<Stmt> {
        self.sema.loop_depth += 1;
        let body = self.parse_stmt();
        self.sema.loop_depth -= 1;
        body
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
            let name = match self.peek().kind {
                TokenKind::Ident(n) => {
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
                self.sema.act_on_var_decl(name, ty, init, false, name_loc),
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
            if let TokenKind::Ident(name) = self.peek().kind {
                if self.peek2().kind.is_punct(Punct::Colon) {
                    self.next(); // ident
                    self.next(); // :
                    let range = self.parse_expr();
                    self.expect_punct(Punct::RParen);
                    match self
                        .sema
                        .act_on_range_for_begin(name, elem_ty, by_ref, range, loc)
                    {
                        Some(parts) => {
                            let body = self.parse_loop_body();
                            return self.sema.act_on_range_for_end(parts, body);
                        }
                        None => {
                            let _ = self.parse_loop_body();
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
        let body = self.parse_loop_body();
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
            TokenKind::IntLit {
                value,
                suffix,
                decimal,
            } => {
                let ctx = &self.sema.ctx;
                let (width, signed) = int_literal_type(value, suffix, decimal);
                ctx.int_lit(value.into(), ctx.int_ty(width, signed), loc)
            }
            TokenKind::FloatLit(v) => {
                Expr::rvalue(ExprKind::FloatingLiteral(v), self.sema.ctx.double_ty(), loc)
            }
            TokenKind::CharLit(c) => self
                .sema
                .ctx
                .int_lit(c as i128, self.sema.ctx.char_ty(), loc),
            TokenKind::StrLit(_) => self.sema.act_on_string_literal(loc),
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
                    self.sema.act_on_call(name, args, loc)
                } else {
                    self.sema.act_on_decl_ref(name, loc)
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
                let other = other.spelled(&self.sema.ctx.idents());
                self.sema
                    .diags
                    .error(loc, format!("expected expression, found {other}"));
                self.sema.error_expr(loc)
            }
        }
    }
}

/// The type of an integer literal under LP64: the first of `int`, `unsigned
/// int`, `long`, `unsigned long` its value fits that C11 6.4.4.1 lists for
/// its suffix and base. A decimal literal without `u` skips `unsigned int`,
/// and one too large for `long` is `unsigned long`, as Clang types it.
fn int_literal_type(value: u64, suffix: IntSuffix, decimal: bool) -> (IntWidth, bool) {
    use IntSuffix::*;
    let unsigned = matches!(suffix, Unsigned | UnsignedLong | UnsignedLongLong);
    let long = !matches!(suffix, IntSuffix::None | Unsigned);
    let listed = |width, signed| match (width, signed) {
        (IntWidth::W32, true) => !unsigned && !long,
        (IntWidth::W32, false) => !long && (unsigned || !decimal),
        (_, true) => !unsigned,
        (_, false) => true,
    };
    let fits =
        |width: IntWidth, signed| u128::from(value) >> (width.bits() - u32::from(signed)) == 0;
    let (w32, w64) = (IntWidth::W32, IntWidth::W64);
    [(w32, true), (w32, false), (w64, true), (w64, false)]
        .into_iter()
        .find(|&(width, signed)| listed(width, signed) && fits(width, signed))
        .expect("unsigned long holds every u64")
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
