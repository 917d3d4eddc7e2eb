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
//! Subscripts that are not affine in an iteration variable (`a[idx[i]]`,
//! `a[i * j]`, …) are conservatively ignored — no warning is better than a
//! false one.

use crate::depend::{element_strides, gcd, subscript_chain};
use crate::nest::resolve_literal_nest;
use omplt_ast::{
    walk_expr, walk_stmt, BinOp, Decl, DeclId, Expr, ExprKind, OMPClauseKind, OMPDirective,
    OMPDirectiveKind, Stmt, StmtKind, StmtVisitor, TranslationUnit, UnOp, P,
};
use omplt_source::{Diagnostic, DiagnosticsEngine, Level, SourceLocation};
use std::collections::{BTreeMap, BTreeSet};

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

/// Shape of an array subscript, as far as the detector can see.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Subscript {
    /// `coef * iv + offset` (coef is nonzero; either may be negative, so
    /// `a[2*i]`, `a[c - i]` and `a[i - 1]` are all analyzed).
    Affine {
        iv: DeclId,
        coef: i128,
        offset: i128,
    },
    /// A compile-time constant.
    Constant(i128),
    /// Anything else — conservatively not analyzed.
    Other,
}

/// One read or write of a variable inside the loop body.
struct Access {
    loc: SourceLocation,
    write: bool,
    /// `None` for a scalar access, `Some` for an array-element access.
    subscript: Option<Subscript>,
}

/// Collects per-variable accesses over a loop body.
struct Collector {
    ivs: BTreeSet<DeclId>,
    locals: BTreeSet<DeclId>,
    accesses: BTreeMap<DeclId, (String, Vec<Access>)>,
}

impl Collector {
    fn push(&mut self, var: &omplt_ast::VarDecl, access: Access) {
        self.accesses
            .entry(var.id)
            .or_insert_with(|| (var.name.clone(), Vec::new()))
            .1
            .push(access);
    }

    /// Records the variable (scalar or array element) designated by `e`.
    fn record(&mut self, e: &P<Expr>, write: bool) {
        let e = e.ignore_wrappers();
        match &e.kind {
            ExprKind::DeclRef(v) => {
                self.push(
                    v,
                    Access {
                        loc: e.loc,
                        write,
                        subscript: None,
                    },
                );
            }
            ExprKind::ArraySubscript(..) => {
                let (base, idxs) = subscript_chain(e);
                if let Some(v) = base.as_decl_ref() {
                    let subscript = Some(match element_strides(&v.ty, idxs.len()) {
                        Some(strides) => self.classify_chain(&idxs, &strides),
                        None => Subscript::Other,
                    });
                    let v = P::clone(v);
                    self.push(
                        &v,
                        Access {
                            loc: e.loc,
                            write,
                            subscript,
                        },
                    );
                }
            }
            _ => {}
        }
    }

    /// Classifies a (possibly multi-dimensional) subscript chain as one
    /// scaled-affine form, weighting each dimension's index by its
    /// element-count stride.
    fn classify_chain(&self, idxs: &[&P<Expr>], strides: &[i128]) -> Subscript {
        let mut term: Option<(DeclId, i128)> = None;
        let mut offset = 0i128;
        for (idx, &stride) in idxs.iter().zip(strides) {
            let Some((t, c)) = self.linear(idx) else {
                return Subscript::Other;
            };
            offset += stride * c;
            match (term, t.map(|(iv, k)| (iv, stride * k))) {
                (cur, None) => term = cur,
                (None, t2) => term = t2,
                (Some((iv1, c1)), Some((iv2, c2))) if iv1 == iv2 => {
                    term = Some((iv1, c1 + c2)).filter(|t| t.1 != 0);
                }
                _ => return Subscript::Other, // two different iteration variables
            }
        }
        match term {
            Some((iv, coef)) => Subscript::Affine { iv, coef, offset },
            None => Subscript::Constant(offset),
        }
    }

    /// Linearizes `e` as `coef * iv + offset` over at most one iteration
    /// variable. Returns `(iv term, constant)`; `None` when the expression
    /// is not scaled-affine (unknown variable, two variables multiplied,
    /// two different iteration variables mixed).
    fn linear(&self, e: &P<Expr>) -> Option<(Option<(DeclId, i128)>, i128)> {
        let e = e.ignore_wrappers();
        if let Some(c) = e.eval_const_int() {
            return Some((None, c));
        }
        if let Some(v) = e.as_decl_ref() {
            return self.ivs.contains(&v.id).then_some((Some((v.id, 1)), 0));
        }
        let combine =
            |x: Option<(DeclId, i128)>, y: Option<(DeclId, i128)>, sign: i128| match (x, y) {
                (t, None) => Some(t),
                (None, Some((iv, c))) => Some(Some((iv, sign * c))),
                (Some((iv1, c1)), Some((iv2, c2))) if iv1 == iv2 => {
                    Some(Some((iv1, c1 + sign * c2)).filter(|t| t.1 != 0))
                }
                _ => None, // two different iteration variables
            };
        match &e.kind {
            ExprKind::Unary(UnOp::Plus, s) => self.linear(s),
            ExprKind::Unary(UnOp::Minus, s) => {
                let (t, c) = self.linear(s)?;
                Some((t.map(|(iv, k)| (iv, -k)), -c))
            }
            ExprKind::Binary(BinOp::Add, a, b) => {
                let (ta, ca) = self.linear(a)?;
                let (tb, cb) = self.linear(b)?;
                Some((combine(ta, tb, 1)?, ca + cb))
            }
            ExprKind::Binary(BinOp::Sub, a, b) => {
                let (ta, ca) = self.linear(a)?;
                let (tb, cb) = self.linear(b)?;
                Some((combine(ta, tb, -1)?, ca - cb))
            }
            ExprKind::Binary(BinOp::Mul, a, b) => {
                let (ta, ca) = self.linear(a)?;
                let (tb, cb) = self.linear(b)?;
                match (ta, tb) {
                    (None, t) => {
                        Some((t.map(|(iv, k)| (iv, k * ca)).filter(|t| t.1 != 0), ca * cb))
                    }
                    (t, None) => {
                        Some((t.map(|(iv, k)| (iv, k * cb)).filter(|t| t.1 != 0), ca * cb))
                    }
                    _ => None, // iv * iv is not affine
                }
            }
            _ => None,
        }
    }
}

impl StmtVisitor for Collector {
    fn visit_stmt(&mut self, s: &P<Stmt>) {
        if let StmtKind::Decl(decls) = &s.kind {
            for d in decls {
                if let Decl::Var(v) = d {
                    self.locals.insert(v.id);
                }
            }
        }
        walk_stmt(self, s);
    }

    fn visit_expr(&mut self, e: &P<Expr>) {
        match &e.kind {
            ExprKind::Binary(op, lhs, rhs) if op.is_assignment() => {
                self.record(lhs, true);
                if *op != BinOp::Assign {
                    self.record(lhs, false);
                }
                for idx in subscript_chain(lhs).1 {
                    self.visit_expr(idx);
                }
                self.visit_expr(rhs);
            }
            ExprKind::Unary(op, sub) if op.is_inc_dec() => {
                self.record(sub, true);
                self.record(sub, false);
                for idx in subscript_chain(sub).1 {
                    self.visit_expr(idx);
                }
            }
            ExprKind::DeclRef(_) => self.record(e, false),
            ExprKind::ArraySubscript(..) => {
                self.record(e, false);
                for idx in subscript_chain(e).1 {
                    self.visit_expr(idx);
                }
            }
            _ => walk_expr(self, e),
        }
    }
}

impl RaceVisitor<'_> {
    fn check_parallel_for(&mut self, d: &P<OMPDirective>) {
        let Some(assoc) = &d.associated else { return };
        let Some(levels) = resolve_literal_nest(assoc, d.associated_loops()) else {
            return;
        };
        let pragma = d.pragma_text();

        let mut privates: BTreeSet<DeclId> = BTreeSet::new();
        let mut iv_names: BTreeMap<DeclId, String> = BTreeMap::new();
        for l in &levels {
            privates.insert(l.analysis.iter_var.id);
            iv_names.insert(l.analysis.iter_var.id, l.analysis.iter_var.name.clone());
        }
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

        let mut col = Collector {
            ivs: iv_names.keys().copied().collect(),
            locals: BTreeSet::new(),
            accesses: BTreeMap::new(),
        };
        col.visit_stmt(&levels[0].analysis.body);

        let fmt_sub = |s: Subscript| -> String {
            match s {
                Subscript::Affine { iv, coef, offset } => {
                    let name = iv_names.get(&iv).map_or("?", String::as_str);
                    let term = match coef {
                        1 => name.to_string(),
                        -1 => format!("-{name}"),
                        c => format!("{c}*{name}"),
                    };
                    match (coef, offset) {
                        (_, 0) => term,
                        // `c - i` reads better than `-i + c`.
                        (c, o) if c < 0 && o > 0 => match c {
                            -1 => format!("{o} - {name}"),
                            c => format!("{o} - {}*{name}", -c),
                        },
                        (_, o) if o > 0 => format!("{term} + {o}"),
                        (_, o) => format!("{term} - {}", -o),
                    }
                }
                Subscript::Constant(c) => c.to_string(),
                Subscript::Other => "?".to_string(),
            }
        };

        for (id, (name, accesses)) in &col.accesses {
            if privates.contains(id) || col.locals.contains(id) || reductions.contains(id) {
                continue;
            }
            let writes: Vec<&Access> = accesses.iter().filter(|a| a.write).collect();
            if writes.is_empty() {
                continue;
            }
            // Shared scalar written by every iteration.
            if let Some(w) = writes.iter().find(|a| a.subscript.is_none()) {
                let mut notes = Vec::new();
                for a in accesses.iter().filter(|a| a.subscript.is_none()) {
                    if std::ptr::eq::<Access>(a, *w) {
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
                match w.subscript {
                    Some(Subscript::Constant(c)) => {
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
                    Some(Subscript::Affine { iv, coef, offset }) => {
                        let conflict = accesses.iter().find(|a| match a.subscript {
                            // Two scaled-affine accesses of the same IV touch
                            // a common element from *different* iterations
                            // when `coef*i + offset == c2*i' + o2` has a
                            // solution with `i != i'`.
                            Some(Subscript::Affine {
                                iv: iv2,
                                coef: c2,
                                offset: o2,
                            }) if iv2 == iv => {
                                if coef == c2 {
                                    o2 != offset && (o2 - offset) % coef == 0
                                } else {
                                    (o2 - offset) % gcd(coef, c2) == 0
                                }
                            }
                            // A constant subscript collides with the
                            // iteration that reaches the same element.
                            Some(Subscript::Constant(c)) => (c - offset) % coef == 0,
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
                                    fmt_sub(w.subscript.expect("write has a subscript")),
                                    fmt_sub(other.subscript.expect("conflict has a subscript")),
                                ),
                                vec![Diagnostic::note(
                                    other.loc,
                                    format!("conflicting {what} here"),
                                )],
                            );
                            break 'var;
                        }
                    }
                    _ => {}
                }
            }
        }
    }
}
