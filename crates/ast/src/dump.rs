//! AST dumping in the visual style of `clang -Xclang -ast-dump`, which the
//! paper's listings use. Node labels follow Clang's (`OMPUnrollDirective`,
//! `VarDecl used i 'int' cinit`, `<<<NULL>>>` placeholders, …); pointer
//! addresses are intentionally omitted for reproducible golden tests.
//!
//! The default dump shows **only the syntactic AST** — shadow/transformed
//! subtrees are hidden exactly as in Clang. [`DumpOptions::show_transformed`]
//! additionally prints each transformation directive's shadow AST under a
//! `TransformedStmt` marker, and [`dump_transformed_only`] regenerates the
//! paper's Fig. lst:transformedast.

use crate::decl::{Decl, FunctionDecl, TranslationUnit, VarDecl, VarKind};
use crate::expr::{Expr, ExprKind};
use crate::omp::{ClauseModifier, OMPClause, OMPDirective};
use crate::stmt::{Attr, CapturedStmt, Stmt, StmtKind};
use crate::P;
use omplt_source::IdentifierTable;

/// Controls dump contents.
#[derive(Clone, Copy, Default)]
pub struct DumpOptions {
    /// Also print shadow (transformed) subtrees of `tile`/`unroll`
    /// directives.
    pub show_transformed: bool,
}

/// A rendered tree node.
struct DumpNode {
    label: String,
    children: Vec<DumpNode>,
}

impl DumpNode {
    fn leaf(label: impl Into<String>) -> DumpNode {
        DumpNode {
            label: label.into(),
            children: Vec::new(),
        }
    }

    fn new(label: impl Into<String>, children: Vec<DumpNode>) -> DumpNode {
        DumpNode {
            label: label.into(),
            children,
        }
    }

    fn render(&self, out: &mut String) {
        out.push_str(&self.label);
        out.push('\n');
        self.render_children(out, "");
    }

    fn render_children(&self, out: &mut String, prefix: &str) {
        let n = self.children.len();
        for (i, c) in self.children.iter().enumerate() {
            let last = i + 1 == n;
            out.push_str(prefix);
            out.push_str(if last { "`-" } else { "|-" });
            out.push_str(&c.label);
            out.push('\n');
            let child_prefix = format!("{}{}", prefix, if last { "  " } else { "| " });
            c.render_children(out, &child_prefix);
        }
    }
}

/// Dumps a statement subtree whose names are symbols of `idents`.
pub fn dump_stmt(s: &P<Stmt>, idents: &IdentifierTable, opts: DumpOptions) -> String {
    let mut out = String::new();
    Dumper { idents, opts }.stmt_node(s).render(&mut out);
    out
}

/// Dumps an expression subtree whose names are symbols of `idents`.
pub fn dump_expr(e: &P<Expr>, idents: &IdentifierTable, opts: DumpOptions) -> String {
    let mut out = String::new();
    Dumper { idents, opts }.expr_node(e).render(&mut out);
    out
}

/// Dumps a whole translation unit.
pub fn dump_translation_unit(tu: &TranslationUnit, opts: DumpOptions) -> String {
    let _span = omplt_trace::span("ast.dump");
    let dumper = Dumper {
        idents: &tu.idents,
        opts,
    };
    let children = tu.decls.iter().map(|d| dumper.decl_node(d)).collect();
    let mut out = String::new();
    DumpNode::new("TranslationUnitDecl", children).render(&mut out);
    out
}

/// Dumps only the shadow (transformed) AST of a transformation directive —
/// the view of the paper's Fig. lst:transformedast. Returns `None` if the
/// directive has no generated loop.
pub fn dump_transformed_only(
    d: &OMPDirective,
    idents: &IdentifierTable,
    opts: DumpOptions,
) -> Option<String> {
    let t = d.transformed.as_ref()?;
    Some(dump_stmt(t, idents, opts))
}

/// What a dump renders with: the spellings of its symbols and the options.
struct Dumper<'a> {
    idents: &'a IdentifierTable,
    opts: DumpOptions,
}

impl Dumper<'_> {
    fn decl_node(&self, d: &Decl) -> DumpNode {
        match d {
            Decl::Var(v) => self.var_decl_node(v),
            Decl::Function(f) => self.function_node(f),
        }
    }

    fn function_node(&self, f: &P<FunctionDecl>) -> DumpNode {
        let mut children: Vec<DumpNode> = f
            .params
            .iter()
            .map(|p| {
                DumpNode::leaf(format!(
                    "ParmVarDecl{} {} '{}'",
                    used_marker(p),
                    self.idents.get(p.name),
                    p.ty.spelling()
                ))
            })
            .collect();
        if let Some(body) = f.body.borrow().as_ref() {
            children.push(self.stmt_node(body));
        }
        DumpNode::new(
            format!(
                "FunctionDecl {} '{}'",
                self.idents.get(f.name),
                f.ty.spelling()
            ),
            children,
        )
    }

    fn var_decl_node(&self, v: &P<VarDecl>) -> DumpNode {
        let name = self.idents.get(v.name);
        match v.kind {
            VarKind::ImplicitParam => DumpNode::leaf(format!(
                "ImplicitParamDecl implicit {} '{}'",
                name,
                v.ty.spelling()
            )),
            VarKind::Param => DumpNode::leaf(format!(
                "ParmVarDecl{} {} '{}'",
                used_marker(v),
                name,
                v.ty.spelling()
            )),
            _ => {
                let implicit = if v.implicit { " implicit" } else { "" };
                match &v.init {
                    Some(init) => DumpNode::new(
                        format!(
                            "VarDecl{}{} {} '{}' cinit",
                            implicit,
                            used_marker(v),
                            name,
                            v.ty.spelling()
                        ),
                        vec![self.expr_node(init)],
                    ),
                    None => DumpNode::leaf(format!(
                        "VarDecl{}{} {} '{}'",
                        implicit,
                        used_marker(v),
                        name,
                        v.ty.spelling()
                    )),
                }
            }
        }
    }

    fn captured_stmt_node(&self, c: &P<CapturedStmt>) -> DumpNode {
        let mut decl_children = vec![self.stmt_node(&c.decl.body)];
        for p in &c.decl.params {
            decl_children.push(self.var_decl_node(p));
        }
        // Clang also lists the captured VarDecls after the implicit params.
        for cap in &c.captures {
            decl_children.push(DumpNode::leaf(format!(
                "VarDecl used {} '{}'",
                self.idents.get(cap.var.name),
                cap.var.ty.spelling()
            )));
        }
        let nothrow = if c.decl.nothrow { " nothrow" } else { "" };
        DumpNode::new(
            "CapturedStmt",
            vec![DumpNode::new(
                format!("CapturedDecl{nothrow}"),
                decl_children,
            )],
        )
    }

    fn stmt_node(&self, s: &P<Stmt>) -> DumpNode {
        match &s.kind {
            StmtKind::Compound(stmts) => DumpNode::new(
                "CompoundStmt",
                stmts.iter().map(|c| self.stmt_node(c)).collect(),
            ),
            StmtKind::Decl(decls) => DumpNode::new(
                "DeclStmt",
                decls.iter().map(|d| self.decl_node(d)).collect(),
            ),
            StmtKind::Expr(e) => self.expr_node(e),
            StmtKind::If { cond, then, els } => {
                let mut ch = vec![self.expr_node(cond), self.stmt_node(then)];
                if let Some(e) = els {
                    ch.push(self.stmt_node(e));
                }
                DumpNode::new("IfStmt", ch)
            }
            StmtKind::While { cond, body } => DumpNode::new(
                "WhileStmt",
                vec![self.expr_node(cond), self.stmt_node(body)],
            ),
            StmtKind::DoWhile { body, cond } => {
                DumpNode::new("DoStmt", vec![self.stmt_node(body), self.expr_node(cond)])
            }
            StmtKind::For {
                init,
                cond,
                inc,
                body,
            } => {
                let ch = vec![
                    init.as_ref()
                        .map_or_else(null_placeholder, |i| self.stmt_node(i)),
                    // Clang's ForStmt has a second slot for the C99 condition
                    // declaration, always null in our subset.
                    null_placeholder(),
                    cond.as_ref()
                        .map_or_else(null_placeholder, |c| self.expr_node(c)),
                    inc.as_ref()
                        .map_or_else(null_placeholder, |i| self.expr_node(i)),
                    self.stmt_node(body),
                ];
                DumpNode::new("ForStmt", ch)
            }
            StmtKind::CxxForRange(d) => DumpNode::new(
                "CXXForRangeStmt",
                vec![
                    self.stmt_node(&d.range_stmt),
                    self.stmt_node(&d.begin_stmt),
                    self.stmt_node(&d.end_stmt),
                    self.expr_node(&d.cond),
                    self.expr_node(&d.inc),
                    self.stmt_node(&d.loop_var_stmt),
                    self.stmt_node(&d.body),
                ],
            ),
            StmtKind::Return(e) => {
                DumpNode::new("ReturnStmt", e.iter().map(|e| self.expr_node(e)).collect())
            }
            StmtKind::Break => DumpNode::leaf("BreakStmt"),
            StmtKind::Continue => DumpNode::leaf("ContinueStmt"),
            StmtKind::Null => DumpNode::leaf("NullStmt"),
            StmtKind::Attributed { attrs, sub } => {
                let mut ch: Vec<DumpNode> = attrs.iter().map(attr_node).collect();
                ch.push(self.stmt_node(sub));
                DumpNode::new("AttributedStmt", ch)
            }
            StmtKind::Captured(c) => self.captured_stmt_node(c),
            StmtKind::OMP(d) => self.omp_directive_node(d),
            StmtKind::OMPCanonicalLoop(cl) => DumpNode::new(
                "OMPCanonicalLoop",
                vec![
                    self.stmt_node(&cl.loop_stmt),
                    self.captured_stmt_node(&cl.distance_fn),
                    self.captured_stmt_node(&cl.loop_var_fn),
                    self.expr_node(&cl.loop_var_ref),
                ],
            ),
        }
    }

    fn omp_directive_node(&self, d: &P<OMPDirective>) -> DumpNode {
        let mut ch: Vec<DumpNode> = d.clauses.iter().map(|c| self.clause_node(c)).collect();
        if let Some(a) = &d.associated {
            ch.push(self.stmt_node(a));
        }
        if self.opts.show_transformed {
            if let Some(t) = &d.transformed {
                ch.push(DumpNode::new("TransformedStmt", vec![self.stmt_node(t)]));
            }
        }
        DumpNode::new(d.kind.class_name(), ch)
    }

    fn clause_node(&self, c: &P<OMPClause>) -> DumpNode {
        let class = c.kind.class_name();
        let label = match c.modifier {
            ClauseModifier::None => class.to_string(),
            ClauseModifier::Schedule(kind) => format!("{class} {}", kind.name()),
            ClauseModifier::Reduction(op) => format!("{class} '{}'", op.name()),
        };
        DumpNode::new(label, c.args.iter().map(|e| self.expr_node(e)).collect())
    }

    fn expr_node(&self, e: &P<Expr>) -> DumpNode {
        let ty = e.ty.spelling();
        match &e.kind {
            ExprKind::IntegerLiteral(v) => DumpNode::leaf(format!("IntegerLiteral '{ty}' {v}")),
            ExprKind::FloatingLiteral(v) => DumpNode::leaf(format!("FloatingLiteral '{ty}' {v:e}")),
            ExprKind::BoolLiteral(b) => DumpNode::leaf(format!("CXXBoolLiteralExpr '{ty}' {b}")),
            ExprKind::DeclRef(v) => DumpNode::leaf(format!(
                "DeclRefExpr '{ty}' lvalue Var '{}' '{}'",
                self.idents.get(v.name),
                v.ty.spelling()
            )),
            ExprKind::Unary(op, s) => {
                let fixity = if op.is_postfix() { "postfix" } else { "prefix" };
                DumpNode::new(
                    format!("UnaryOperator '{ty}' {fixity} '{}'", op.spelling()),
                    vec![self.expr_node(s)],
                )
            }
            ExprKind::Binary(op, l, r) => {
                let class = if op.compound_base().is_some() {
                    "CompoundAssignOperator"
                } else {
                    "BinaryOperator"
                };
                DumpNode::new(
                    format!("{class} '{ty}' '{}'", op.spelling()),
                    vec![self.expr_node(l), self.expr_node(r)],
                )
            }
            ExprKind::Call { callee, args } => {
                let mut ch = vec![DumpNode::new(
                    format!(
                        "ImplicitCastExpr '{} (*)' <FunctionToPointerDecay>",
                        callee.ty.spelling()
                    ),
                    vec![DumpNode::leaf(format!(
                        "DeclRefExpr '{}' Function '{}'",
                        callee.ty.spelling(),
                        self.idents.get(callee.name)
                    ))],
                )];
                for a in args {
                    ch.push(self.expr_node(a));
                }
                DumpNode::new(format!("CallExpr '{ty}'"), ch)
            }
            ExprKind::ImplicitCast(k, s) => DumpNode::new(
                format!("ImplicitCastExpr '{ty}' <{k:?}>"),
                vec![self.expr_node(s)],
            ),
            ExprKind::ExplicitCast(k, s) => DumpNode::new(
                format!("CStyleCastExpr '{ty}' <{k:?}>"),
                vec![self.expr_node(s)],
            ),
            ExprKind::Paren(s) => {
                DumpNode::new(format!("ParenExpr '{ty}'"), vec![self.expr_node(s)])
            }
            ExprKind::ArraySubscript(b, i) => DumpNode::new(
                format!("ArraySubscriptExpr '{ty}'"),
                vec![self.expr_node(b), self.expr_node(i)],
            ),
            ExprKind::Conditional(c, t, f) => DumpNode::new(
                format!("ConditionalOperator '{ty}'"),
                vec![self.expr_node(c), self.expr_node(t), self.expr_node(f)],
            ),
            ExprKind::ConstantExpr { value, sub } => DumpNode::new(
                format!("ConstantExpr '{ty}'"),
                vec![
                    DumpNode::leaf(format!("value: Int {value}")),
                    self.expr_node(sub),
                ],
            ),
            ExprKind::SizeOf(t) => DumpNode::leaf(format!(
                "UnaryExprOrTypeTraitExpr '{ty}' sizeof '{}'",
                t.spelling()
            )),
        }
    }
}

fn used_marker(v: &VarDecl) -> &'static str {
    if v.used.get() {
        " used"
    } else {
        ""
    }
}

fn null_placeholder() -> DumpNode {
    DumpNode::leaf("<<<NULL>>>")
}

fn attr_node(Attr::LoopUnrollCount(n): &Attr) -> DumpNode {
    DumpNode::new(
        "LoopHintAttr Implicit loop UnrollCount Numeric",
        vec![DumpNode::leaf(format!("IntegerLiteral 'int' {n}"))],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ASTContext;
    use crate::expr::BinOp;
    use crate::omp::{OMPClauseKind, OMPDirective, OMPDirectiveKind};
    use omplt_source::SourceLocation;

    fn ctx_loop(ctx: &ASTContext) -> P<Stmt> {
        let loc = SourceLocation::INVALID;
        let i = ctx.make_var("i", ctx.int(), Some(ctx.int_lit(7, ctx.int(), loc)), loc);
        let cond = ctx.binary(
            BinOp::Lt,
            ctx.read_var(&i, loc),
            ctx.int_lit(17, ctx.int(), loc),
            ctx.bool_ty(),
            loc,
        );
        let inc = ctx.binary(
            BinOp::AddAssign,
            ctx.decl_ref(&i, loc),
            ctx.int_lit(3, ctx.int(), loc),
            ctx.int(),
            loc,
        );
        Stmt::new(
            StmtKind::For {
                init: Some(Stmt::new(StmtKind::Decl(vec![Decl::Var(i)]), loc)),
                cond: Some(cond),
                inc: Some(inc),
                body: Stmt::new(StmtKind::Null, loc),
            },
            loc,
        )
    }

    #[test]
    fn for_dump_shape() {
        let ctx = ASTContext::new();
        let d = dump_stmt(&ctx_loop(&ctx), &ctx.idents(), DumpOptions::default());
        assert!(d.starts_with("ForStmt\n"), "{d}");
        assert!(d.contains("|-DeclStmt"), "{d}");
        assert!(d.contains("VarDecl used i 'int' cinit"), "{d}");
        assert!(d.contains("IntegerLiteral 'int' 7"), "{d}");
        assert!(d.contains("<<<NULL>>>"), "{d}");
        assert!(d.contains("CompoundAssignOperator 'int' '+='"), "{d}");
        assert!(d.contains("`-NullStmt"), "{d}");
    }

    #[test]
    fn tree_connectors_are_well_formed() {
        let ctx = ASTContext::new();
        let d = dump_stmt(&ctx_loop(&ctx), &ctx.idents(), DumpOptions::default());
        for line in d.lines().skip(1) {
            let trimmed = line.trim_start_matches(['|', ' ', '`']);
            assert!(
                line.contains("|-") || line.contains("`-") || trimmed.is_empty(),
                "line without connector: {line:?}"
            );
        }
    }

    #[test]
    fn shadow_ast_hidden_by_default_shown_on_request() {
        let ctx = ASTContext::new();
        let assoc = ctx_loop(&ctx);
        let shadow = ctx_loop(&ctx);
        let mut dir = OMPDirective::new(
            OMPDirectiveKind::Unroll,
            vec![OMPClause::new(
                OMPClauseKind::Partial,
                vec![],
                SourceLocation::INVALID,
            )],
            Some(assoc),
            SourceLocation::INVALID,
        );
        dir.transformed = Some(shadow);
        let s = Stmt::new(StmtKind::OMP(P::new(dir)), SourceLocation::INVALID);

        let plain = dump_stmt(&s, &ctx.idents(), DumpOptions::default());
        assert!(plain.contains("OMPUnrollDirective"));
        assert!(plain.contains("OMPPartialClause"));
        assert!(!plain.contains("TransformedStmt"), "{plain}");

        let full = dump_stmt(
            &s,
            &ctx.idents(),
            DumpOptions {
                show_transformed: true,
            },
        );
        assert!(full.contains("TransformedStmt"), "{full}");
    }

    #[test]
    fn constant_expr_dump_matches_paper_listing() {
        // Paper lst:astdump_shadowast: OMPPartialClause with ConstantExpr
        // child that has `value: Int 2` and the IntegerLiteral.
        let ctx = ASTContext::new();
        let loc = SourceLocation::INVALID;
        let lit = ctx.int_lit(2, ctx.int(), loc);
        let ce = Expr::rvalue(
            ExprKind::ConstantExpr { value: 2, sub: lit },
            ctx.int(),
            loc,
        );
        let d = dump_expr(&ce, &ctx.idents(), DumpOptions::default());
        assert!(d.starts_with("ConstantExpr 'int'\n"), "{d}");
        assert!(d.contains("|-value: Int 2"), "{d}");
        assert!(d.contains("`-IntegerLiteral 'int' 2"), "{d}");
    }

    #[test]
    fn loop_hint_attr_dump() {
        let ctx = ASTContext::new();
        let s = Stmt::new(
            StmtKind::Attributed {
                attrs: vec![Attr::LoopUnrollCount(2)],
                sub: ctx_loop(&ctx),
            },
            SourceLocation::INVALID,
        );
        let d = dump_stmt(&s, &ctx.idents(), DumpOptions::default());
        assert!(d.starts_with("AttributedStmt\n"), "{d}");
        assert!(
            d.contains("LoopHintAttr Implicit loop UnrollCount Numeric"),
            "{d}"
        );
        assert!(d.contains("IntegerLiteral 'int' 2"), "{d}");
    }
}
