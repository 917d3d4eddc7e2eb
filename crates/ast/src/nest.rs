//! The one loop-nest walker: "the loop this statement stands for". Sema
//! walks it once per directive, collecting the loops the directive
//! associates with into [`crate::OMPDirective::nest`], which is what both
//! codegens and the analyses read; the only other caller is the dependence
//! gate, probing for perfectly nested loops *below* a directive's own depth.
//!
//! A level is resolved by looking through, in any order and any number of
//! times: attributes and `OMPCanonicalLoop` ([`Stmt::strip_to_loop`]),
//! `CapturedStmt` outlining, a transformation directive standing in for
//! its generated loop (`get_transformed_stmt()`, paper §2), and blocks
//! whose last statement is the loop. The statements in front of the loop
//! in such a block are kept apart by origin: inside a transformed
//! statement they are the generated nest's *prologue* (the
//! `.capture_expr.` declarations — part of the transformation, not of the
//! user's nest); in a literal block they are *intervening* code that makes
//! the nest imperfect.

use crate::omp::OMPDirective;
use crate::stmt::{Stmt, StmtKind};
use crate::P;

/// One resolved level of a loop nest.
#[derive(Debug)]
pub struct NestLevel {
    /// Leading declarations of the transformed statements looked through:
    /// they must run before the loop.
    pub prologue: Vec<P<Stmt>>,
    /// Statements sharing a literal block with the loop: the nest is
    /// imperfect at this level.
    pub intervening: Vec<P<Stmt>>,
    /// The literal `for` / range-`for` statement, wrappers removed.
    pub loop_stmt: P<Stmt>,
}

impl NestLevel {
    /// Everything a lowering runs before the loop, in source order: the
    /// literal blocks are outermost, so their statements come first.
    pub fn hoisted(&self) -> impl Iterator<Item = &P<Stmt>> {
        self.intervening.iter().chain(&self.prologue)
    }
}

/// Why a statement does not resolve to a loop.
#[derive(Debug)]
pub enum NestRefusal {
    /// A transformation directive that leaves no generated loop to
    /// associate with (`unroll full`, heuristic `unroll`; paper §1.1).
    NoGeneratedLoop(P<OMPDirective>),
    /// This statement does not stand for a loop: the statement itself, or
    /// the outermost block the search went into.
    NotALoop(P<Stmt>),
}

/// Resolves the loop `stmt` stands for.
pub fn loop_level(stmt: &P<Stmt>) -> Result<NestLevel, NestRefusal> {
    let (mut prologue, mut intervening) = (Vec::new(), Vec::new());
    let mut generated = false;
    let mut block: Option<P<Stmt>> = None;
    let mut cur = P::clone(stmt.strip_to_loop());
    loop {
        let next = match &cur.kind {
            StmtKind::For { .. } | StmtKind::CxxForRange(_) => {
                return Ok(NestLevel {
                    prologue,
                    intervening,
                    loop_stmt: cur,
                });
            }
            StmtKind::Captured(c) => Some(&c.decl.body),
            // A directive is looked through only where it stands alone:
            // behind leading statements a block must end in the loop itself.
            StmtKind::OMP(_) if !intervening.is_empty() || !prologue.is_empty() => None,
            StmtKind::OMP(d) => match d.get_transformed_stmt() {
                Some(t) => {
                    generated = true;
                    Some(t)
                }
                None if d.kind.is_loop_transformation() => {
                    return Err(NestRefusal::NoGeneratedLoop(P::clone(d)));
                }
                None => None,
            },
            StmtKind::Compound(stmts) => match stmts.split_last() {
                Some((tail, lead)) if !generated => {
                    intervening.extend(lead.iter().cloned());
                    Some(tail)
                }
                // Sema's transformations put only declarations in front
                // of a generated loop.
                Some((tail, lead)) if lead.iter().all(|s| matches!(s.kind, StmtKind::Decl(_))) => {
                    prologue.extend(lead.iter().cloned());
                    Some(tail)
                }
                _ => None,
            },
            _ => None,
        };
        let Some(next) = next else {
            return Err(NestRefusal::NotALoop(block.unwrap_or(cur)));
        };
        if block.is_none() && matches!(cur.kind, StmtKind::Compound(_)) {
            block = Some(P::clone(&cur));
        }
        cur = P::clone(next.strip_to_loop());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decl::Decl;
    use crate::omp::{OMPCanonicalLoop, OMPDirectiveKind};
    use crate::stmt::Attr;
    use crate::ASTContext;
    use omplt_source::SourceLocation;

    const LOC: SourceLocation = SourceLocation::INVALID;

    fn for_over(body: P<Stmt>) -> P<Stmt> {
        let kind = StmtKind::For {
            init: None,
            cond: None,
            inc: None,
            body,
        };
        Stmt::new(kind, LOC)
    }

    fn for_stmt() -> P<Stmt> {
        for_over(Stmt::new(StmtKind::Null, LOC))
    }

    fn decl(ctx: &ASTContext, name: &str) -> P<Stmt> {
        let v = ctx.make_implicit_var(name, ctx.int(), None, LOC);
        Stmt::new(StmtKind::Decl(vec![Decl::Var(v)]), LOC)
    }

    fn block(stmts: Vec<P<Stmt>>) -> P<Stmt> {
        Stmt::new(StmtKind::Compound(stmts), LOC)
    }

    fn transformation(kind: OMPDirectiveKind, transformed: Option<P<Stmt>>) -> P<Stmt> {
        let mut d = OMPDirective::new(kind, vec![], Some(for_stmt()), LOC);
        d.transformed = transformed;
        Stmt::new(StmtKind::OMP(P::new(d)), LOC)
    }

    #[test]
    fn bare_and_wrapped_loops_resolve_without_leading_statements() {
        let attributed = Stmt::new(
            StmtKind::Attributed {
                attrs: vec![Attr::LoopUnrollCount(2)],
                sub: for_stmt(),
            },
            LOC,
        );
        let canonical = Stmt::new(
            StmtKind::OMPCanonicalLoop(OMPCanonicalLoop::for_test(for_stmt())),
            LOC,
        );
        for s in [for_stmt(), attributed, canonical, block(vec![for_stmt()])] {
            let l = loop_level(&s).unwrap();
            assert!(l.loop_stmt.is_loop());
            assert!(l.prologue.is_empty() && l.intervening.is_empty());
        }
    }

    #[test]
    fn generated_prologue_is_not_intervening() {
        // `reverse` consuming a tiled loop yields
        // `{ <tile decls>; { <reverse decls>; for } }`; a consumer must see
        // one flat prologue ending in the loop, and a perfect nest.
        let ctx = ASTContext::new();
        let inner = block(vec![decl(&ctx, ".inner."), for_stmt()]);
        let outer = block(vec![decl(&ctx, ".outer."), inner]);
        let stacked = transformation(OMPDirectiveKind::Reverse, Some(outer));
        let l = loop_level(&stacked).unwrap();
        assert_eq!(l.prologue.len(), 2);
        assert!(l.intervening.is_empty());
        assert_eq!(l.hoisted().count(), 2);
    }

    #[test]
    fn literal_siblings_are_intervening() {
        let ctx = ASTContext::new();
        let body = block(vec![decl(&ctx, "t"), for_stmt()]);
        let imperfect = for_over(P::clone(&body));
        assert!(loop_level(&imperfect).unwrap().intervening.is_empty());
        let inner = loop_level(&body).unwrap();
        assert_eq!(inner.intervening.len(), 1);
        assert!(inner.prologue.is_empty());
    }

    #[test]
    fn refusals_are_typed() {
        let full = transformation(OMPDirectiveKind::Unroll, None);
        assert!(matches!(
            loop_level(&full),
            Err(NestRefusal::NoGeneratedLoop(d)) if d.kind == OMPDirectiveKind::Unroll
        ));
        let null = Stmt::new(StmtKind::Null, LOC);
        assert!(matches!(loop_level(&null), Err(NestRefusal::NotALoop(_))));
        // The loop must come last in its block.
        let ctx = ASTContext::new();
        let trailing = block(vec![for_stmt(), decl(&ctx, "t")]);
        assert!(matches!(
            loop_level(&trailing),
            Err(NestRefusal::NotALoop(_))
        ));
    }
}
