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
use crate::expr::{Expr, ExprKind, UnOp};
use crate::omp::{ClauseModifier, OMPClause, OMPDirective};
use crate::stmt::{Attr, CapturedStmt, Stmt, StmtKind};
use crate::P;

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

/// Dumps a statement subtree.
pub fn dump_stmt(s: &P<Stmt>, opts: DumpOptions) -> String {
    let mut out = String::new();
    stmt_node(s, opts).render(&mut out);
    out
}

/// Dumps an expression subtree.
pub fn dump_expr(e: &P<Expr>, opts: DumpOptions) -> String {
    let mut out = String::new();
    expr_node(e, opts).render(&mut out);
    out
}

/// Dumps a whole translation unit.
pub fn dump_translation_unit(tu: &TranslationUnit, opts: DumpOptions) -> String {
    let _span = omplt_trace::span("ast.dump");
    let mut children = Vec::new();
    for d in &tu.decls {
        children.push(decl_node(d, opts));
    }
    let mut out = String::new();
    DumpNode::new("TranslationUnitDecl", children).render(&mut out);
    out
}

/// Dumps only the shadow (transformed) AST of a transformation directive —
/// the view of the paper's Fig. lst:transformedast. Returns `None` if the
/// directive has no generated loop.
pub fn dump_transformed_only(d: &OMPDirective, opts: DumpOptions) -> Option<String> {
    let t = d.transformed.as_ref()?;
    Some(dump_stmt(t, opts))
}

fn decl_node(d: &Decl, opts: DumpOptions) -> DumpNode {
    match d {
        Decl::Var(v) => var_decl_node(v, opts),
        Decl::Function(f) => function_node(f, opts),
    }
}

fn function_node(f: &P<FunctionDecl>, opts: DumpOptions) -> DumpNode {
    let mut children: Vec<DumpNode> = f
        .params
        .iter()
        .map(|p| {
            DumpNode::leaf(format!(
                "ParmVarDecl{} {} '{}'",
                used_marker(p),
                p.name,
                p.ty.spelling()
            ))
        })
        .collect();
    if let Some(body) = f.body.borrow().as_ref() {
        children.push(stmt_node(body, opts));
    }
    DumpNode::new(
        format!("FunctionDecl {} '{}'", f.name, f.ty.spelling()),
        children,
    )
}

fn used_marker(v: &VarDecl) -> &'static str {
    if v.used.get() {
        " used"
    } else {
        ""
    }
}

fn var_decl_node(v: &P<VarDecl>, opts: DumpOptions) -> DumpNode {
    match v.kind {
        VarKind::ImplicitParam => DumpNode::leaf(format!(
            "ImplicitParamDecl implicit {} '{}'",
            v.name,
            v.ty.spelling()
        )),
        VarKind::Param => DumpNode::leaf(format!(
            "ParmVarDecl{} {} '{}'",
            used_marker(v),
            v.name,
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
                        v.name,
                        v.ty.spelling()
                    ),
                    vec![expr_node(init, opts)],
                ),
                None => DumpNode::leaf(format!(
                    "VarDecl{}{} {} '{}'",
                    implicit,
                    used_marker(v),
                    v.name,
                    v.ty.spelling()
                )),
            }
        }
    }
}

fn captured_stmt_node(c: &P<CapturedStmt>, opts: DumpOptions) -> DumpNode {
    let mut decl_children = vec![stmt_node(&c.decl.body, opts)];
    for p in &c.decl.params {
        decl_children.push(var_decl_node(p, opts));
    }
    // Clang also lists the captured VarDecls after the implicit params.
    for cap in &c.captures {
        decl_children.push(DumpNode::leaf(format!(
            "VarDecl used {} '{}'",
            cap.var.name,
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

fn null_placeholder() -> DumpNode {
    DumpNode::leaf("<<<NULL>>>")
}

fn stmt_node(s: &P<Stmt>, opts: DumpOptions) -> DumpNode {
    match &s.kind {
        StmtKind::Compound(stmts) => DumpNode::new(
            "CompoundStmt",
            stmts.iter().map(|c| stmt_node(c, opts)).collect(),
        ),
        StmtKind::Decl(decls) => DumpNode::new(
            "DeclStmt",
            decls.iter().map(|d| decl_node(d, opts)).collect(),
        ),
        StmtKind::Expr(e) => expr_node(e, opts),
        StmtKind::If { cond, then, els } => {
            let mut ch = vec![expr_node(cond, opts), stmt_node(then, opts)];
            if let Some(e) = els {
                ch.push(stmt_node(e, opts));
            }
            DumpNode::new("IfStmt", ch)
        }
        StmtKind::While { cond, body } => DumpNode::new(
            "WhileStmt",
            vec![expr_node(cond, opts), stmt_node(body, opts)],
        ),
        StmtKind::DoWhile { body, cond } => {
            DumpNode::new("DoStmt", vec![stmt_node(body, opts), expr_node(cond, opts)])
        }
        StmtKind::For {
            init,
            cond,
            inc,
            body,
        } => {
            let ch = vec![
                init.as_ref()
                    .map_or_else(null_placeholder, |i| stmt_node(i, opts)),
                // Clang's ForStmt has a second slot for the C99 condition
                // declaration, always null in our subset.
                null_placeholder(),
                cond.as_ref()
                    .map_or_else(null_placeholder, |c| expr_node(c, opts)),
                inc.as_ref()
                    .map_or_else(null_placeholder, |i| expr_node(i, opts)),
                stmt_node(body, opts),
            ];
            DumpNode::new("ForStmt", ch)
        }
        StmtKind::CxxForRange(d) => DumpNode::new(
            "CXXForRangeStmt",
            vec![
                stmt_node(&d.range_stmt, opts),
                stmt_node(&d.begin_stmt, opts),
                stmt_node(&d.end_stmt, opts),
                expr_node(&d.cond, opts),
                expr_node(&d.inc, opts),
                stmt_node(&d.loop_var_stmt, opts),
                stmt_node(&d.body, opts),
            ],
        ),
        StmtKind::Return(e) => {
            DumpNode::new("ReturnStmt", e.iter().map(|e| expr_node(e, opts)).collect())
        }
        StmtKind::Break => DumpNode::leaf("BreakStmt"),
        StmtKind::Continue => DumpNode::leaf("ContinueStmt"),
        StmtKind::Null => DumpNode::leaf("NullStmt"),
        StmtKind::Attributed { attrs, sub } => {
            let mut ch: Vec<DumpNode> = attrs.iter().map(attr_node).collect();
            ch.push(stmt_node(sub, opts));
            DumpNode::new("AttributedStmt", ch)
        }
        StmtKind::Captured(c) => captured_stmt_node(c, opts),
        StmtKind::OMP(d) => omp_directive_node(d, opts),
        StmtKind::OMPCanonicalLoop(cl) => DumpNode::new(
            "OMPCanonicalLoop",
            vec![
                stmt_node(&cl.loop_stmt, opts),
                captured_stmt_node(&cl.distance_fn, opts),
                captured_stmt_node(&cl.loop_var_fn, opts),
                expr_node(&cl.loop_var_ref, opts),
            ],
        ),
    }
}

fn attr_node(Attr::LoopUnrollCount(n): &Attr) -> DumpNode {
    DumpNode::new(
        "LoopHintAttr Implicit loop UnrollCount Numeric",
        vec![DumpNode::leaf(format!("IntegerLiteral 'int' {n}"))],
    )
}

fn omp_directive_node(d: &P<OMPDirective>, opts: DumpOptions) -> DumpNode {
    let mut ch: Vec<DumpNode> = d.clauses.iter().map(|c| clause_node(c, opts)).collect();
    if let Some(a) = &d.associated {
        ch.push(stmt_node(a, opts));
    }
    if opts.show_transformed {
        if let Some(t) = &d.transformed {
            ch.push(DumpNode::new("TransformedStmt", vec![stmt_node(t, opts)]));
        }
    }
    DumpNode::new(d.kind.class_name(), ch)
}

fn clause_node(c: &P<OMPClause>, opts: DumpOptions) -> DumpNode {
    let class = c.kind.class_name();
    let label = match c.modifier {
        ClauseModifier::None => class.to_string(),
        ClauseModifier::Schedule(kind) => format!("{class} {}", kind.name()),
        ClauseModifier::Reduction(op) => format!("{class} '{}'", op.name()),
    };
    DumpNode::new(label, c.args.iter().map(|e| expr_node(e, opts)).collect())
}

#[allow(clippy::only_used_in_recursion)] // `opts` mirrors stmt_node's signature
fn expr_node(e: &P<Expr>, opts: DumpOptions) -> DumpNode {
    let ty = e.ty.spelling();
    match &e.kind {
        ExprKind::IntegerLiteral(v) => DumpNode::leaf(format!("IntegerLiteral '{ty}' {v}")),
        ExprKind::FloatingLiteral(v) => DumpNode::leaf(format!("FloatingLiteral '{ty}' {v:e}")),
        ExprKind::BoolLiteral(b) => DumpNode::leaf(format!("CXXBoolLiteralExpr '{ty}' {b}")),
        ExprKind::StringLiteral(s) => DumpNode::leaf(format!("StringLiteral '{ty}' \"{s}\"")),
        ExprKind::DeclRef(v) => DumpNode::leaf(format!(
            "DeclRefExpr '{ty}' lvalue Var '{}' '{}'",
            v.name,
            v.ty.spelling()
        )),
        ExprKind::Unary(op, s) => {
            let fixity = if op.is_postfix() { "postfix" } else { "prefix" };
            DumpNode::new(
                format!("UnaryOperator '{ty}' {fixity} '{}'", op.spelling()),
                vec![expr_node(s, opts)],
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
                vec![expr_node(l, opts), expr_node(r, opts)],
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
                    callee.name
                ))],
            )];
            for a in args {
                ch.push(expr_node(a, opts));
            }
            DumpNode::new(format!("CallExpr '{ty}'"), ch)
        }
        ExprKind::ImplicitCast(k, s) => DumpNode::new(
            format!("ImplicitCastExpr '{ty}' <{k:?}>"),
            vec![expr_node(s, opts)],
        ),
        ExprKind::ExplicitCast(k, s) => DumpNode::new(
            format!("CStyleCastExpr '{ty}' <{k:?}>"),
            vec![expr_node(s, opts)],
        ),
        ExprKind::Paren(s) => DumpNode::new(format!("ParenExpr '{ty}'"), vec![expr_node(s, opts)]),
        ExprKind::ArraySubscript(b, i) => DumpNode::new(
            format!("ArraySubscriptExpr '{ty}'"),
            vec![expr_node(b, opts), expr_node(i, opts)],
        ),
        ExprKind::Conditional(c, t, f) => DumpNode::new(
            format!("ConditionalOperator '{ty}'"),
            vec![expr_node(c, opts), expr_node(t, opts), expr_node(f, opts)],
        ),
        ExprKind::ConstantExpr { value, sub } => DumpNode::new(
            format!("ConstantExpr '{ty}'"),
            vec![
                DumpNode::leaf(format!("value: Int {value}")),
                expr_node(sub, opts),
            ],
        ),
        ExprKind::SizeOf(t) => DumpNode::leaf(format!(
            "UnaryExprOrTypeTraitExpr '{ty}' sizeof '{}'",
            t.spelling()
        )),
    }
}

/// Marks `UnOp` spelling usable in labels (silence unused warning paths).
#[allow(dead_code)]
fn _unop_spelling(op: UnOp) -> &'static str {
    op.spelling()
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
        let d = dump_stmt(&ctx_loop(&ctx), DumpOptions::default());
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
        let d = dump_stmt(&ctx_loop(&ctx), DumpOptions::default());
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

        let plain = dump_stmt(&s, DumpOptions::default());
        assert!(plain.contains("OMPUnrollDirective"));
        assert!(plain.contains("OMPPartialClause"));
        assert!(!plain.contains("TransformedStmt"), "{plain}");

        let full = dump_stmt(
            &s,
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
        let d = dump_expr(&ce, DumpOptions::default());
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
        let d = dump_stmt(&s, DumpOptions::default());
        assert!(d.starts_with("AttributedStmt\n"), "{d}");
        assert!(
            d.contains("LoopHintAttr Implicit loop UnrollCount Numeric"),
            "{d}"
        );
        assert!(d.contains("IntegerLiteral 'int' 2"), "{d}");
    }
}
