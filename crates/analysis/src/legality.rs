//! Transformation-legality checking: validates OpenMP 5.1 preconditions that
//! Sema's transformation machinery silently tolerates.
//!
//! Sema already enforces canonical loop form (§4.4.1), positive
//! `partial`/`sizes`/`collapse` arguments, the no-`break` rule and
//! rectangularity of the nest. This pass owns the two gaps:
//!
//! * **perfect nesting** — `tile sizes(s1, …, sn)` and `collapse(n)` with
//!   n ≥ 2 require the n associated loops to be perfectly nested; Sema's
//!   prologue splitting hoists intervening declarations out of the nest,
//!   which miscompiles when they depend on an outer iteration variable;
//! * **no `return` escaping the nest** — a structured block must be exited
//!   only at its end; Sema rejects `break` but not `return`.

use crate::nest::resolve_literal_nest;
use omplt_ast::{walk_stmt, Decl, OMPDirective, Stmt, StmtKind, StmtVisitor, TranslationUnit, P};
use omplt_source::{Diagnostic, DiagnosticsEngine, Level, SourceLocation};

/// Checks every OpenMP directive in `tu`, reporting violations to `diags`.
pub fn check_translation_unit(tu: &TranslationUnit, diags: &DiagnosticsEngine) {
    let mut v = LegalityVisitor { diags };
    for d in &tu.decls {
        if let Decl::Function(f) = d {
            if let Some(body) = f.body.borrow().as_ref() {
                v.visit_stmt(body);
            }
        }
    }
}

struct LegalityVisitor<'d> {
    diags: &'d DiagnosticsEngine,
}

impl StmtVisitor for LegalityVisitor<'_> {
    fn visit_stmt(&mut self, s: &P<Stmt>) {
        if let StmtKind::OMP(d) = &s.kind {
            self.check_directive(d);
        }
        walk_stmt(self, s);
    }
}

impl LegalityVisitor<'_> {
    fn check_directive(&mut self, d: &P<OMPDirective>) {
        let depth = d.associated_loops();
        if depth == 0 {
            return;
        }
        let Some(assoc) = &d.associated else { return };
        let pragma = d.pragma_text();
        self.check_returns(assoc, d, &pragma);
        if depth < 2 {
            return;
        }
        let Some(levels) = resolve_literal_nest(assoc, depth) else {
            // Sema has already rejected malformed loops with a hard error;
            // anything else (a non-literal nest, a level hidden behind an
            // unexpanded construct) is beyond this pass, and silence would
            // read as a clean bill of health.
            if !self.diags.has_errors() {
                self.diags.report(
                    Level::Warning,
                    d.loc,
                    format!(
                        "cannot verify that '{pragma}' is associated with {depth} \
                         perfectly nested loops [-Wanalysis-limit]"
                    ),
                );
            }
            return;
        };
        for (lvl, level) in levels.iter().enumerate().skip(1) {
            for s in &level.intervening {
                self.diags.report_with_notes(
                    Level::Error,
                    s.loc,
                    format!(
                        "loop nest after '{pragma}' must be perfectly nested: \
                         statement is not part of the loop at depth {}",
                        lvl + 1
                    ),
                    vec![Diagnostic::note(
                        d.loc,
                        format!("'{pragma}' requires {depth} perfectly nested loops here"),
                    )],
                );
            }
        }
    }

    /// Reports every `return` in the associated region. Nested directives
    /// are skipped: they check their own associated statement.
    fn check_returns(&mut self, body: &P<Stmt>, d: &P<OMPDirective>, pragma: &str) {
        struct Finder {
            rets: Vec<SourceLocation>,
        }
        impl StmtVisitor for Finder {
            fn visit_stmt(&mut self, s: &P<Stmt>) {
                match &s.kind {
                    StmtKind::Return(_) => self.rets.push(s.loc),
                    StmtKind::OMP(_) => {}
                    _ => walk_stmt(self, s),
                }
            }
        }
        let mut f = Finder { rets: Vec::new() };
        f.visit_stmt(body);
        for loc in f.rets {
            self.diags.report_with_notes(
                Level::Error,
                loc,
                format!("cannot 'return' out of the loop nest associated with '{pragma}'"),
                vec![Diagnostic::note(
                    d.loc,
                    format!("enclosing '{pragma}' construct begins here"),
                )],
            );
        }
    }
}
