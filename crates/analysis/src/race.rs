//! Data-race detection for `#pragma omp parallel for`.
//!
//! Variable references in the associated loop nest are classified as
//! **private** (iteration variables, locally-declared variables, and
//! `private`/`firstprivate` clause entries) or **shared** (everything else,
//! matching OpenMP's default data-sharing for variables declared outside the
//! construct). Two patterns are reported as `-Wrace` warnings:
//!
//! * a **write to a shared scalar** — every iteration races on the same
//!   object (unless it is a `reduction` variable);
//! * a **loop-carried array conflict** — a write to `a[c1*i + o1]` combined
//!   with any access to `a[c2*i + o2]` that a different iteration can reach
//!   (two scaled-affine subscripts collide when `gcd(c1, c2)` divides
//!   `o2 - o1`), or a write through a constant subscript, makes iterations
//!   touch each other's elements.
//!
//! Subscripts that are not affine in one iteration variable (`a[idx[i]]`,
//! `a[i * j]`, `a[i + j]`, …) are conservatively ignored — no warning is
//! better than a false one.
//!
//! The accesses and their linearized subscripts are the dependence
//! analysis' ([`crate::depend`]'s collector: one access model for both
//! passes); only the *conflict rule* lives here — "can two different
//! iterations collide, bounds unknown" is not the question the dependence
//! tests answer.

use crate::depend::{analyses, gcd, level_info, DepAccess, DepCollector};
use omplt_ast::{
    walk_stmt, Decl, DeclId, OMPClauseKind, OMPDirective, OMPDirectiveKind, Stmt, StmtKind,
    StmtVisitor, TranslationUnit, P,
};
use omplt_source::{Diagnostic, DiagnosticsEngine, Level};
use std::collections::BTreeSet;

/// Checks every `parallel for` in `tu`, reporting races to `diags`.
pub fn check_translation_unit(tu: &TranslationUnit, diags: &DiagnosticsEngine) {
    let mut v = RaceVisitor { diags };
    for d in &tu.decls {
        if let Decl::Function(f) = d {
            if let Some(body) = f.body.borrow().as_ref() {
                v.visit_stmt(body);
            }
        }
    }
}

struct RaceVisitor<'d> {
    diags: &'d DiagnosticsEngine,
}

impl StmtVisitor for RaceVisitor<'_> {
    fn visit_stmt(&mut self, s: &P<Stmt>) {
        if let StmtKind::OMP(d) = &s.kind {
            if d.kind == OMPDirectiveKind::ParallelFor {
                self.check_parallel_for(d);
            }
        }
        walk_stmt(self, s);
    }
}

/// Shape of a modeled array subscript, as far as the conflict rule can see.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Subscript {
    /// `coef * iv + offset` over the iteration variable of one nest `level`
    /// (coef is nonzero; either may be negative, so `a[2*i]`, `a[c - i]` and
    /// `a[i - 1]` are all analyzed).
    Affine {
        level: usize,
        coef: i128,
        offset: i128,
    },
    /// A compile-time constant.
    Constant(i128),
    /// Anything else — conservatively not analyzed.
    Other,
}

/// Reads the dependence analysis' access model for the conflict rule:
/// exactly one non-zero raw coefficient is a scaled-affine subscript, none a
/// constant, and a subscript mixing iteration variables (or not modeled at
/// all) is left alone.
fn subscript(a: &DepAccess) -> Subscript {
    let Some(sub) = &a.sub else {
        return Subscript::Other;
    };
    let mut terms = sub.raw.iter().enumerate().filter(|(_, c)| **c != 0);
    match (terms.next(), terms.next()) {
        (None, _) => Subscript::Constant(sub.raw_off),
        (Some((level, &coef)), None) => Subscript::Affine {
            level,
            coef,
            offset: sub.raw_off,
        },
        _ => Subscript::Other,
    }
}

impl RaceVisitor<'_> {
    fn check_parallel_for(&mut self, d: &P<OMPDirective>) {
        // The nest Sema resolved; a nest it refused is not diagnosed twice.
        let levels = analyses(d);
        if levels.is_empty() {
            return;
        }
        let pragma = d.pragma_text();

        let mut privates: BTreeSet<DeclId> = levels.iter().map(|l| l.iter_var.id).collect();
        let mut reductions: BTreeSet<DeclId> = BTreeSet::new();
        for c in &d.clauses {
            let set = match c.kind {
                OMPClauseKind::Private | OMPClauseKind::FirstPrivate => &mut privates,
                OMPClauseKind::Reduction => &mut reductions,
                _ => continue,
            };
            let vars = c.args.iter().filter_map(|v| v.as_decl_ref());
            set.extend(vars.map(|vd| vd.id));
        }

        let info = level_info(&levels);
        let col = DepCollector::collect(&info, &levels[0].body);

        for (id, var) in &col.accesses {
            let (name, accesses) = (&var.name, &var.list);
            if privates.contains(id) || col.locals.contains(id) || reductions.contains(id) {
                continue;
            }
            let writes: Vec<&DepAccess> = accesses.iter().filter(|a| a.write).collect();
            if writes.is_empty() {
                continue;
            }
            // Shared scalar written by every iteration.
            if let Some(w) = writes.iter().find(|a| !a.array) {
                let mut notes = Vec::new();
                for a in accesses.iter().filter(|a| !a.array) {
                    if std::ptr::eq::<DepAccess>(a, *w) {
                        continue;
                    }
                    let what = if a.write { "also written" } else { "read" };
                    notes.push(Diagnostic::note(a.loc, format!("'{name}' {what} here")));
                }
                notes.push(Diagnostic::note(
                    d.loc,
                    format!(
                        "'{name}' is shared by all threads of '{pragma}'; \
                         consider a 'private({name})' or 'reduction(+: {name})' clause"
                    ),
                ));
                self.diags.report_with_notes(
                    Level::Warning,
                    w.loc,
                    format!(
                        "writing to shared variable '{name}' inside '{pragma}' \
                         is a data race [-Wrace]"
                    ),
                    notes,
                );
                continue;
            }
            // Loop-carried array conflicts.
            'var: for w in &writes {
                match subscript(w) {
                    Subscript::Constant(c) => {
                        self.diags.report_with_notes(
                            Level::Warning,
                            w.loc,
                            format!("all iterations of '{pragma}' write '{name}[{c}]' [-Wrace]"),
                            vec![Diagnostic::note(
                                d.loc,
                                format!("iterations of '{pragma}' execute concurrently"),
                            )],
                        );
                        break 'var;
                    }
                    Subscript::Affine {
                        level,
                        coef,
                        offset,
                    } => {
                        let conflict = accesses.iter().find(|a| match subscript(a) {
                            // Two scaled-affine accesses of the same IV touch
                            // a common element from *different* iterations
                            // when `coef*i + offset == c2*i' + o2` has a
                            // solution with `i != i'`.
                            Subscript::Affine {
                                level: l2,
                                coef: c2,
                                offset: o2,
                            } if l2 == level => {
                                if coef == c2 {
                                    o2 != offset && (o2 - offset) % coef == 0
                                } else {
                                    (o2 - offset) % gcd(coef, c2) == 0
                                }
                            }
                            // A constant subscript collides with the
                            // iteration that reaches the same element.
                            Subscript::Constant(c) => (c - offset) % coef == 0,
                            _ => false,
                        });
                        if let Some(other) = conflict {
                            let what = if other.write { "written" } else { "read" };
                            self.diags.report_with_notes(
                                Level::Warning,
                                w.loc,
                                format!(
                                    "loop-carried access to shared array '{name}' in \
                                     '{pragma}': '{name}[{}]' is written while '{name}[{}]' \
                                     is {what} by a different iteration [-Wrace]",
                                    w.text, other.text,
                                ),
                                vec![Diagnostic::note(
                                    other.loc,
                                    format!("conflicting {what} here"),
                                )],
                            );
                            break 'var;
                        }
                    }
                    Subscript::Other => {}
                }
            }
        }
    }
}
