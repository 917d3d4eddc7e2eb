//! A C pretty-printer for AST subtrees. Used to show transformed shadow ASTs
//! as readable code (the paper presents them as C snippets, e.g. the
//! remainder-loop figure) and by the examples.

use crate::decl::{Decl, TranslationUnit, VarDecl};
use crate::expr::{BinOp, Expr, ExprKind};
use crate::stmt::{Attr, Stmt, StmtKind};
use crate::P;
use std::fmt::Write as _;

/// Pretty-prints a statement as C source.
pub fn print_stmt(s: &P<Stmt>) -> String {
    let mut p = Printer::default();
    p.stmt(s);
    p.out
}

/// Pretty-prints an expression as C source.
pub fn print_expr(e: &P<Expr>) -> String {
    let mut p = Printer::default();
    p.expr(e);
    p.out
}

/// Pretty-prints a whole translation unit.
pub fn print_translation_unit(tu: &TranslationUnit) -> String {
    let mut p = Printer::default();
    for d in &tu.decls {
        match d {
            Decl::Var(v) => {
                p.indent();
                p.var_decl(v);
                p.out.push_str(";\n");
            }
            Decl::Function(f) => {
                let params: Vec<String> = f
                    .params
                    .iter()
                    .map(|q| format!("{} {}", q.ty.spelling(), q.name))
                    .collect();
                let _ = write!(
                    p.out,
                    "{} {}({})",
                    f.return_type().spelling(),
                    f.name,
                    params.join(", ")
                );
                match f.body.borrow().as_ref() {
                    Some(b) => {
                        p.out.push(' ');
                        p.stmt_inline(b);
                    }
                    None => p.out.push_str(";\n"),
                }
            }
        }
    }
    p.out
}

#[derive(Default)]
struct Printer {
    out: String,
    level: usize,
}

impl Printer {
    fn indent(&mut self) {
        for _ in 0..self.level {
            self.out.push_str("  ");
        }
    }

    fn var_decl(&mut self, v: &P<VarDecl>) {
        let _ = write!(self.out, "{} {}", v.ty.spelling(), v.name);
        if let Some(init) = &v.init {
            self.out.push_str(" = ");
            self.expr(init);
        }
    }

    /// Statement at current indentation, with trailing newline.
    fn stmt(&mut self, s: &P<Stmt>) {
        self.indent();
        self.stmt_inline(s);
    }

    /// Statement without leading indentation (already emitted).
    fn stmt_inline(&mut self, s: &P<Stmt>) {
        match &s.kind {
            StmtKind::Compound(stmts) => {
                self.out.push_str("{\n");
                self.level += 1;
                for c in stmts {
                    self.stmt(c);
                }
                self.level -= 1;
                self.indent();
                self.out.push_str("}\n");
            }
            StmtKind::Decl(decls) => {
                for (i, d) in decls.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    match d {
                        Decl::Var(v) => self.var_decl(v),
                        Decl::Function(f) => {
                            let _ =
                                write!(self.out, "{} {}(...)", f.return_type().spelling(), f.name);
                        }
                    }
                }
                self.out.push_str(";\n");
            }
            StmtKind::Expr(e) => {
                self.expr(e);
                self.out.push_str(";\n");
            }
            StmtKind::If { cond, then, els } => {
                self.out.push_str("if (");
                self.expr(cond);
                self.out.push_str(") ");
                self.stmt_inline(then);
                if let Some(e) = els {
                    self.indent();
                    self.out.push_str("else ");
                    self.stmt_inline(e);
                }
            }
            StmtKind::While { cond, body } => {
                self.out.push_str("while (");
                self.expr(cond);
                self.out.push_str(") ");
                self.stmt_inline(body);
            }
            StmtKind::DoWhile { body, cond } => {
                self.out.push_str("do ");
                self.stmt_inline(body);
                self.indent();
                self.out.push_str("while (");
                self.expr(cond);
                self.out.push_str(");\n");
            }
            StmtKind::For {
                init,
                cond,
                inc,
                body,
            } => {
                self.out.push_str("for (");
                match init {
                    Some(i) => match &i.kind {
                        StmtKind::Decl(decls) => {
                            for (n, d) in decls.iter().enumerate() {
                                if n > 0 {
                                    self.out.push_str(", ");
                                }
                                if let Decl::Var(v) = d {
                                    self.var_decl(v);
                                }
                            }
                            self.out.push(';');
                        }
                        StmtKind::Expr(e) => {
                            self.expr(e);
                            self.out.push(';');
                        }
                        _ => self.out.push(';'),
                    },
                    None => self.out.push(';'),
                }
                self.out.push(' ');
                if let Some(c) = cond {
                    self.expr(c);
                }
                self.out.push_str("; ");
                if let Some(i) = inc {
                    self.expr(i);
                }
                self.out.push(')');
                self.block_or_line(body);
            }
            StmtKind::CxxForRange(d) => {
                let _ = write!(
                    self.out,
                    "for ({} {} : ",
                    d.loop_var.ty.spelling(),
                    d.loop_var.name
                );
                // print the range initializer
                if let StmtKind::Decl(decls) = &d.range_stmt.kind {
                    if let Some(Decl::Var(v)) = decls.first() {
                        if let Some(init) = &v.init {
                            self.expr(init);
                        }
                    }
                }
                self.out.push(')');
                self.block_or_line(&d.body);
            }
            StmtKind::Return(e) => {
                self.out.push_str("return");
                if let Some(e) = e {
                    self.out.push(' ');
                    self.expr(e);
                }
                self.out.push_str(";\n");
            }
            StmtKind::Break => self.out.push_str("break;\n"),
            StmtKind::Continue => self.out.push_str("continue;\n"),
            StmtKind::Null => self.out.push_str(";\n"),
            StmtKind::Attributed { attrs, sub } => {
                for a in attrs {
                    match a {
                        Attr::LoopUnrollCount(n) => {
                            let _ = writeln!(self.out, "#pragma clang loop unroll_count({n})");
                        }
                        Attr::LoopUnrollFull => {
                            let _ = writeln!(self.out, "#pragma clang loop unroll(full)");
                        }
                        Attr::LoopUnrollEnable => {
                            let _ = writeln!(self.out, "#pragma clang loop unroll(enable)");
                        }
                    }
                    self.indent();
                }
                self.stmt_inline(sub);
            }
            StmtKind::Captured(c) => {
                self.out.push_str("/*captured*/ ");
                self.stmt_inline(&c.decl.body);
            }
            StmtKind::OMP(d) => {
                let _ = writeln!(self.out, "{}", d.pragma_text());
                if let Some(a) = &d.associated {
                    self.stmt(a);
                }
            }
            StmtKind::OMPCanonicalLoop(cl) => {
                self.stmt_inline(&cl.loop_stmt);
            }
        }
    }

    fn block_or_line(&mut self, body: &P<Stmt>) {
        if matches!(body.kind, StmtKind::Compound(_)) {
            self.out.push(' ');
            self.stmt_inline(body);
        } else {
            self.out.push('\n');
            self.level += 1;
            self.stmt(body);
            self.level -= 1;
        }
    }

    fn expr(&mut self, e: &P<Expr>) {
        match &e.kind {
            ExprKind::IntegerLiteral(v) => {
                let _ = write!(self.out, "{v}");
            }
            ExprKind::FloatingLiteral(v) => {
                if v.fract() == 0.0 && v.is_finite() {
                    let _ = write!(self.out, "{v:.1}");
                } else {
                    let _ = write!(self.out, "{v}");
                }
            }
            ExprKind::BoolLiteral(b) => {
                let _ = write!(self.out, "{b}");
            }
            ExprKind::StringLiteral(s) => {
                let _ = write!(self.out, "\"{}\"", s.escape_default());
            }
            ExprKind::DeclRef(v) => self.out.push_str(&v.name),
            ExprKind::Unary(op, s) => {
                if op.is_postfix() {
                    self.expr(s);
                    self.out.push_str(op.spelling());
                } else {
                    self.out.push_str(op.spelling());
                    self.expr_paren_if_binary(s);
                }
            }
            ExprKind::Binary(op, l, r) => {
                if *op == BinOp::Comma {
                    self.expr(l);
                    self.out.push_str(", ");
                    self.expr(r);
                } else {
                    self.expr_paren_if_binary(l);
                    let _ = write!(self.out, " {} ", op.spelling());
                    self.expr_paren_if_binary(r);
                }
            }
            ExprKind::Call { callee, args } => {
                self.out.push_str(&callee.name);
                self.out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.expr(a);
                }
                self.out.push(')');
            }
            ExprKind::ImplicitCast(_, s) | ExprKind::ConstantExpr { sub: s, .. } => self.expr(s),
            ExprKind::ExplicitCast(_, s) => {
                let _ = write!(self.out, "({})", e.ty.spelling());
                self.expr_paren_if_binary(s);
            }
            ExprKind::Paren(s) => {
                self.out.push('(');
                self.expr(s);
                self.out.push(')');
            }
            ExprKind::ArraySubscript(b, i) => {
                self.expr_paren_if_binary(b);
                self.out.push('[');
                self.expr(i);
                self.out.push(']');
            }
            ExprKind::Conditional(c, t, f) => {
                self.expr_paren_if_binary(c);
                self.out.push_str(" ? ");
                self.expr_paren_if_binary(t);
                self.out.push_str(" : ");
                self.expr_paren_if_binary(f);
            }
            ExprKind::SizeOf(t) => {
                let _ = write!(self.out, "sizeof({})", t.spelling());
            }
        }
    }

    /// Parenthesizes nested binary/conditional operands — conservative but
    /// always correct precedence.
    fn expr_paren_if_binary(&mut self, e: &P<Expr>) {
        let needs = matches!(
            e.ignore_wrappers().kind,
            ExprKind::Binary(..) | ExprKind::Conditional(..)
        );
        if needs {
            self.out.push('(');
            self.expr(e);
            self.out.push(')');
        } else {
            self.expr(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ASTContext;
    use omplt_source::SourceLocation;

    #[test]
    fn prints_simple_loop() {
        let ctx = ASTContext::new();
        let loc = SourceLocation::INVALID;
        let i = ctx.make_var("i", ctx.int(), Some(ctx.int_lit(0, ctx.int(), loc)), loc);
        let cond = ctx.binary(
            BinOp::Lt,
            ctx.read_var(&i, loc),
            ctx.int_lit(10, ctx.int(), loc),
            ctx.bool_ty(),
            loc,
        );
        let inc = ctx.binary(
            BinOp::AddAssign,
            ctx.decl_ref(&i, loc),
            ctx.int_lit(1, ctx.int(), loc),
            ctx.int(),
            loc,
        );
        let s = Stmt::new(
            StmtKind::For {
                init: Some(Stmt::new(StmtKind::Decl(vec![Decl::Var(i)]), loc)),
                cond: Some(cond),
                inc: Some(inc),
                body: Stmt::new(StmtKind::Null, loc),
            },
            loc,
        );
        let text = print_stmt(&s);
        assert_eq!(text, "for (int i = 0; i < 10; i += 1)\n  ;\n");
    }

    #[test]
    fn prints_conditional_as_min() {
        let ctx = ASTContext::new();
        let loc = SourceLocation::INVALID;
        let a = ctx.int_lit(1, ctx.int(), loc);
        let b = ctx.int_lit(2, ctx.int(), loc);
        let m = ctx.min_expr(a, b, ctx.int(), loc);
        assert_eq!(print_expr(&m), "(1 < 2) ? 1 : 2");
    }

    #[test]
    fn prints_nested_binary_with_parens() {
        let ctx = ASTContext::new();
        let loc = SourceLocation::INVALID;
        let inner = ctx.binary(
            BinOp::Add,
            ctx.int_lit(1, ctx.int(), loc),
            ctx.int_lit(2, ctx.int(), loc),
            ctx.int(),
            loc,
        );
        let outer = ctx.binary(
            BinOp::Mul,
            inner,
            ctx.int_lit(3, ctx.int(), loc),
            ctx.int(),
            loc,
        );
        assert_eq!(print_expr(&outer), "(1 + 2) * 3");
    }

    #[test]
    fn prints_pragma_before_loop() {
        use crate::omp::{OMPClause, OMPClauseKind, OMPDirective, OMPDirectiveKind};
        let ctx = ASTContext::new();
        let loc = SourceLocation::INVALID;
        let body = Stmt::new(StmtKind::Null, loc);
        let lp = Stmt::new(
            StmtKind::For {
                init: None,
                cond: None,
                inc: None,
                body,
            },
            loc,
        );
        let d = OMPDirective::new(
            OMPDirectiveKind::Unroll,
            vec![OMPClause::new(
                OMPClauseKind::Partial,
                vec![ctx.int_lit(4, ctx.int(), loc)],
                loc,
            )],
            Some(lp),
            loc,
        );
        let s = Stmt::new(StmtKind::OMP(P::new(d)), loc);
        let text = print_stmt(&s);
        assert!(text.contains("#pragma omp unroll partial(4)"), "{text}");
        assert!(text.contains("for (; ; )"), "{text}");
    }
}
