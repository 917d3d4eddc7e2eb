//! The one loop-nest walker: "the loop this statement stands for". Sema
//! walks it once per directive, collecting the loops the directive
//! associates with into [`crate::OMPDirective::nest`] and the loops below
//! them into [`crate::OMPDirective::below`], which is what both codegens
//! and the analyses read.
//!
//! A level is resolved by looking through, in any order and any number of
//! times: attributes and `OMPCanonicalLoop` ([`Stmt::strip_to_loop`]), and
//! blocks whose last statement is the loop. The statements in front of the
//! loop in such a block are *intervening* code, which makes the nest
//! imperfect. The walk stops at a transformation directive: it stands for
//! the loops it generates, which Sema recorded on it
//! ([`crate::OMPDirective::generated`], paper §2's "as if it was a literal
//! for-loop"), and the walker never looks inside it.

use crate::omp::OMPDirective;
use crate::stmt::{Stmt, StmtKind};
use crate::P;

/// One resolved level of a loop nest.
#[derive(Debug)]
pub struct NestLevel {
    /// Statements sharing a literal block with the loop: the nest is
    /// imperfect at this level.
    pub intervening: Vec<P<Stmt>>,
    /// What stands for the level's loops.
    pub loops: LevelLoops,
}

/// What a level of a nest is made of.
#[derive(Debug)]
pub enum LevelLoops {
    /// The literal `for` / range-`for` statement, wrappers removed.
    Literal(P<Stmt>),
    /// A transformation directive standing for the loops it generates.
    Generated(P<OMPDirective>),
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
    let mut intervening = Vec::new();
    let mut block: Option<P<Stmt>> = None;
    let mut cur = P::clone(stmt.strip_to_loop());
    loop {
        let next = match &cur.kind {
            StmtKind::For { .. } | StmtKind::CxxForRange(_) => {
                let loops = LevelLoops::Literal(cur);
                return Ok(NestLevel { intervening, loops });
            }
            // A directive stands for a level only where it stands alone:
            // behind leading statements a block must end in the loop itself.
            StmtKind::OMP(d) if d.kind.is_loop_transformation() && intervening.is_empty() => {
                if d.generated.is_empty() {
                    return Err(NestRefusal::NoGeneratedLoop(P::clone(d)));
                }
                let loops = LevelLoops::Generated(P::clone(d));
                return Ok(NestLevel { intervening, loops });
            }
            StmtKind::Compound(stmts) => stmts.split_last().map(|(tail, lead)| {
                intervening.extend(lead.iter().cloned());
                tail
            }),
            _ => None,
        };
        let Some(next) = next else {
            return Err(NestRefusal::NotALoop(block.unwrap_or(cur)));
        };
        if block.is_none() {
            block = Some(P::clone(&cur));
        }
        cur = P::clone(next.strip_to_loop());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical_loop::{CanonicalLoopAnalysis, LoopDirection, LoopNestLevel};
    use crate::decl::Decl;
    use crate::expr::BinOp;
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

    /// A transformation directive that generated `loops` loops.
    fn transformation(ctx: &ASTContext, kind: OMPDirectiveKind, loops: usize) -> P<Stmt> {
        let mut d = OMPDirective::new(kind, vec![], Some(for_stmt()), LOC);
        let iv = ctx.make_implicit_var(".iv", ctx.uint(), None, LOC);
        let record = || LoopNestLevel {
            prologue: Vec::new(),
            binding: None,
            loop_stmt: for_stmt(),
            analysis: CanonicalLoopAnalysis {
                iter_var: P::clone(&iv),
                declares_var: true,
                lb: ctx.int_lit(0, ctx.uint(), LOC),
                ub: ctx.int_lit(4, ctx.uint(), LOC),
                relop: BinOp::Lt,
                step: ctx.int_lit(1, ctx.uint(), LOC),
                direction: LoopDirection::Up,
                body: Stmt::new(StmtKind::Null, LOC),
                loc: LOC,
                logical_ty: ctx.uint(),
            },
        };
        d.generated = (0..loops).map(|_| record()).collect();
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
            assert!(matches!(l.loops, LevelLoops::Literal(s) if s.is_loop()));
            assert!(l.intervening.is_empty());
        }
    }

    #[test]
    fn a_transformation_stands_for_its_generated_loops() {
        // The walk stops at the directive, alone or as a block's only
        // statement; what it generated is the directive's record.
        let ctx = ASTContext::new();
        let tile = transformation(&ctx, OMPDirectiveKind::Tile, 2);
        for s in [P::clone(&tile), block(vec![P::clone(&tile)])] {
            let l = loop_level(&s).unwrap();
            assert!(l.intervening.is_empty());
            let LevelLoops::Generated(d) = l.loops else {
                panic!("{:?}", l.loops)
            };
            assert_eq!(d.generated.len(), 2);
        }
        // Behind a leading statement it is not a level.
        let behind = block(vec![decl(&ctx, "t"), tile]);
        assert!(matches!(
            loop_level(&behind),
            Err(NestRefusal::NotALoop(s)) if std::ptr::eq(&*s, &*behind)
        ));
    }

    #[test]
    fn literal_siblings_are_intervening() {
        let ctx = ASTContext::new();
        let body = block(vec![decl(&ctx, "t"), for_stmt()]);
        let imperfect = for_over(P::clone(&body));
        assert!(loop_level(&imperfect).unwrap().intervening.is_empty());
        let nested = block(vec![decl(&ctx, "u"), P::clone(&body)]);
        assert_eq!(loop_level(&body).unwrap().intervening.len(), 1);
        assert_eq!(loop_level(&nested).unwrap().intervening.len(), 2);
    }

    #[test]
    fn refusals_are_typed() {
        let ctx = ASTContext::new();
        let full = transformation(&ctx, OMPDirectiveKind::Unroll, 0);
        assert!(matches!(
            loop_level(&full),
            Err(NestRefusal::NoGeneratedLoop(d)) if d.kind == OMPDirectiveKind::Unroll
        ));
        let null = Stmt::new(StmtKind::Null, LOC);
        assert!(matches!(loop_level(&null), Err(NestRefusal::NotALoop(_))));
        // The loop must come last in its block.
        let trailing = block(vec![for_stmt(), decl(&ctx, "t")]);
        assert!(matches!(
            loop_level(&trailing),
            Err(NestRefusal::NotALoop(_))
        ));
        // A directive that is not a transformation stands for no loop.
        let simd = OMPDirective::new(OMPDirectiveKind::Simd, vec![], Some(for_stmt()), LOC);
        let simd = Stmt::new(StmtKind::OMP(P::new(simd)), LOC);
        assert!(matches!(loop_level(&simd), Err(NestRefusal::NotALoop(_))));
    }
}
