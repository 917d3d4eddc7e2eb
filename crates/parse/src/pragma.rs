//! Parsing of `#pragma omp` directives, arriving between the
//! `PragmaOmpStart`/`PragmaOmpEnd` annotation tokens. Directive and clause
//! names are *contextual* keywords (plain identifiers — except `for`, which
//! is the base-language keyword); both are looked up in `omplt-ast`'s
//! catalog, and a clause's arguments are parsed by its row's shape.

use crate::parser::Parser;
use omplt_ast::{
    ArgShape, ClauseModifier, Expr, OMPClause, OMPClauseKind, OMPDirectiveKind, ReductionOp,
    ScheduleKind, Stmt, P,
};
use omplt_lex::{Punct, TokenKind};
use omplt_source::IdentifierTable;

/// Parses one OpenMP directive (pragma line + associated statement).
pub fn parse_omp_directive(p: &mut Parser<'_, '_>) -> P<Stmt> {
    let loc = p.loc();
    p.next(); // PragmaOmpStart

    // ---- directive name ----
    let kind = match parse_directive_name(p) {
        Some(k) => k,
        None => {
            p.sema
                .diags
                .error(loc, "expected an OpenMP directive name after '#pragma omp'");
            skip_to_pragma_end(p);
            // Parse and return the following statement unmodified.
            return p.parse_stmt();
        }
    };

    // ---- clauses ----
    let mut clauses = Vec::new();
    while !matches!(p.peek().kind, TokenKind::PragmaOmpEnd | TokenKind::Eof) {
        // optional separating commas between clauses
        if p.eat_punct(Punct::Comma) {
            continue;
        }
        match parse_clause(p) {
            Some(c) => clauses.push(c),
            None => {
                skip_to_pragma_end(p);
                break;
            }
        }
    }
    if matches!(p.peek().kind, TokenKind::PragmaOmpEnd) {
        p.next();
    }

    // ---- associated statement ----
    // An outlined region is a function of its own: no loop around the
    // directive is one a `break` or `continue` inside it may leave.
    let loops = p.sema.loop_depth;
    if p.sema.openmp && kind.captures_associated() {
        p.sema.loop_depth = 0;
    }
    let associated = p.parse_stmt();
    p.sema.loop_depth = loops;
    p.sema
        .act_on_omp_directive(kind, clauses, Some(associated), loc)
}

/// The spelling of a token that can be part of a directive or clause
/// argument name: an identifier or a base-language keyword.
fn word(kind: TokenKind, idents: &IdentifierTable) -> Option<&str> {
    match kind {
        TokenKind::Ident(name) => Some(idents.get(name)),
        TokenKind::Kw(k) => Some(k.as_str()),
        _ => None,
    }
}

/// Longest match of the upcoming words against the directive catalog.
fn parse_directive_name(p: &mut Parser<'_, '_>) -> Option<OMPDirectiveKind> {
    let (kind, n) = {
        let idents = p.sema.ctx.idents();
        let words: Vec<&str> = (0..)
            .map_while(|i| word(p.peek_nth(i).kind, &idents))
            .collect();
        OMPDirectiveKind::match_words(&words)?
    };
    for _ in 0..n {
        p.next();
    }
    Some(kind)
}

fn parse_clause(p: &mut Parser<'_, '_>) -> Option<P<OMPClause>> {
    let loc = p.loc();
    let name = match p.peek().kind {
        TokenKind::Ident(n) => p.sema.ctx.spelling(n),
        other => {
            let other = other.spelled(&p.sema.ctx.idents());
            p.sema.diags.error(
                loc,
                format!("expected an OpenMP clause name, found {other}"),
            );
            return None;
        }
    };
    p.next();
    let Some(kind) = OMPClauseKind::from_name(&name) else {
        p.sema
            .diags
            .error(loc, format!("unknown OpenMP clause '{name}'"));
        skip_paren_group(p);
        return None;
    };
    let mut modifier = ClauseModifier::None;
    let mut args = Vec::new();
    match kind.shape() {
        ArgShape::None => {}
        ArgShape::OptExpr if !p.at_punct(Punct::LParen) => {}
        shape @ (ArgShape::OptExpr | ArgShape::Expr | ArgShape::ExprList) => {
            p.expect_punct(Punct::LParen);
            loop {
                args.push(parse_clause_expr(p, kind));
                if shape != ArgShape::ExprList || !p.eat_punct(Punct::Comma) {
                    break;
                }
            }
            p.expect_punct(Punct::RParen);
        }
        ArgShape::Schedule => {
            p.expect_punct(Punct::LParen);
            modifier = ClauseModifier::Schedule(parse_schedule_kind(p));
            if p.eat_punct(Punct::Comma) {
                args.push(parse_clause_expr(p, kind));
            }
            p.expect_punct(Punct::RParen);
        }
        shape @ (ArgShape::VarList | ArgShape::Reduction) => {
            p.expect_punct(Punct::LParen);
            if shape == ArgShape::Reduction {
                modifier = ClauseModifier::Reduction(parse_reduction_op(p));
                p.expect_punct(Punct::Colon);
            }
            loop {
                let vloc = p.loc();
                match p.next().kind {
                    TokenKind::Ident(vn) => args.push(p.sema.act_on_decl_ref(vn, vloc)),
                    other => {
                        let other = other.spelled(&p.sema.ctx.idents());
                        p.sema
                            .diags
                            .error(vloc, format!("expected variable name, found {other}"));
                    }
                }
                if !p.eat_punct(Punct::Comma) {
                    break;
                }
            }
            p.expect_punct(Punct::RParen);
        }
    }
    Some(P::new(OMPClause {
        kind,
        modifier,
        args,
        loc,
    }))
}

/// One expression argument; clauses whose row says so get it wrapped in a
/// Sema-evaluated `ConstantExpr` node (Clang dumps these with a
/// `value: Int n` child — paper Fig. lst:astdump_shadowast).
fn parse_clause_expr(p: &mut Parser<'_, '_>, kind: OMPClauseKind) -> P<Expr> {
    let e = p.parse_assignment_expr();
    match e.eval_const_int() {
        Some(value) if kind.is_constant() => {
            let (ty, loc) = (P::clone(&e.ty), e.loc);
            P::new(Expr {
                kind: omplt_ast::ExprKind::ConstantExpr { value, sub: e },
                ty,
                category: omplt_ast::ValueCategory::RValue,
                loc,
            })
        }
        _ => e, // non-constant: Sema diagnoses at the use site
    }
}

fn parse_schedule_kind(p: &mut Parser<'_, '_>) -> ScheduleKind {
    let loc = p.loc();
    let tok = p.next().kind;
    let idents = p.sema.ctx.idents();
    let Some(name) = word(tok, &idents) else {
        let msg = format!("expected schedule kind, found {}", tok.spelled(&idents));
        p.sema.diags.error(loc, msg);
        return ScheduleKind::Static;
    };
    ScheduleKind::from_name(name).unwrap_or_else(|| {
        p.sema
            .diags
            .error(loc, format!("unknown schedule kind '{name}'"));
        ScheduleKind::Static
    })
}

fn parse_reduction_op(p: &mut Parser<'_, '_>) -> ReductionOp {
    let loc = p.loc();
    let tok = p.next().kind;
    let idents = p.sema.ctx.idents();
    let name = match tok {
        TokenKind::Punct(punct) => Some(punct.as_str()),
        other => word(other, &idents),
    };
    name.and_then(ReductionOp::from_name).unwrap_or_else(|| {
        let msg = format!("unsupported reduction operator {}", tok.spelled(&idents));
        p.sema.diags.error(loc, msg);
        ReductionOp::Add
    })
}

/// Skips the parenthesized argument of an unknown clause, if present.
fn skip_paren_group(p: &mut Parser<'_, '_>) {
    if !p.eat_punct(Punct::LParen) {
        return;
    }
    let mut depth = 1;
    while depth > 0 && !matches!(p.peek().kind, TokenKind::Eof | TokenKind::PragmaOmpEnd) {
        match p.next().kind {
            TokenKind::Punct(Punct::LParen) => depth += 1,
            TokenKind::Punct(Punct::RParen) => depth -= 1,
            _ => {}
        }
    }
}

fn skip_to_pragma_end(p: &mut Parser<'_, '_>) {
    while !matches!(p.peek().kind, TokenKind::PragmaOmpEnd | TokenKind::Eof) {
        p.next();
    }
    if matches!(p.peek().kind, TokenKind::PragmaOmpEnd) {
        p.next();
    }
}
