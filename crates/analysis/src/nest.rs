//! Loop-nest resolution for the analysis passes: the shared walker of
//! `omplt-ast` (the same one Sema and both codegens use, so a nest Sema
//! accepted resolves identically here) plus a quiet canonical-loop analysis
//! of every level.
//!
//! The passes run *after* Sema, so a loop Sema already rejected is simply
//! skipped (returning `None`) instead of being diagnosed a second time.

use omplt_ast::{loop_level, loop_nest, ASTContext, Stmt, P};
use omplt_sema::{analyze_canonical_loop, CanonicalLoopAnalysis};
use omplt_source::DiagnosticsEngine;

/// Analyzes one walker level quietly. What stands beside the loop does not
/// matter here: Sema refused intervening code below the outermost level,
/// and declarations beside the outermost loop run before the nest.
fn analyzed(level: omplt_ast::NestLevel) -> Option<CanonicalLoopAnalysis> {
    let ctx = ASTContext::new();
    let quiet = DiagnosticsEngine::new();
    analyze_canonical_loop(&ctx, &quiet, &level.loop_stmt, "loop analysis")
}

/// Resolves `depth` nested loops under `stmt`, analyzing each level
/// quietly. Returns `None` when the nest cannot be resolved (malformed loop,
/// missing level, or a nested directive that generates no loop) — Sema has
/// already reported those cases.
pub fn resolve_literal_nest(stmt: &P<Stmt>, depth: usize) -> Option<Vec<CanonicalLoopAnalysis>> {
    let levels = loop_nest(stmt, depth).ok()?;
    levels.into_iter().map(analyzed).collect()
}

/// Extends a resolved nest downwards, up to `max_depth` levels, while the
/// next level is a loop with nothing beside it.
pub fn extend_while_perfect(levels: &mut Vec<CanonicalLoopAnalysis>, max_depth: usize) {
    while levels.len() < max_depth {
        let Some(innermost) = levels.last() else {
            return;
        };
        let next = loop_level(&innermost.body).ok();
        match next.filter(|l| l.intervening.is_empty()).and_then(analyzed) {
            Some(level) => levels.push(level),
            None => return,
        }
    }
}
