//! Direction-vector dependence analysis gating `interchange`, `reverse`
//! and `fuse`.
//!
//! Sema applies the loop-transformation directives unconditionally — OpenMP
//! makes the user responsible for their legality. This pass recovers the
//! classical memory-dependence information needed to *check* that
//! responsibility: for every `#pragma omp interchange` / `reverse` / `fuse`
//! it builds a [`DependenceGraph`] of the associated nest and diagnoses the
//! transformations that provably reorder a dependence:
//!
//! * **interchange** is illegal when permuting the direction vector of any
//!   dependence makes its leading non-`=` entry `>` (the textbook `(<, >)`
//!   pattern: the permuted sink would run before its source);
//! * **reverse** is illegal when the reversed loop *carries* any dependence
//!   (leading direction `<`) — running the iterations backwards swaps source
//!   and sink;
//! * **fuse** is illegal when a dependence between two of the fused loops
//!   has negative distance: iteration `i` of the fused body would consume a
//!   value that the original program produced only in a later iteration.
//!
//! These three are [`Checks::OrderChanging`], which every compile runs. The
//! `simd` lane-distance check over the same graphs is
//! [`Checks::SimdDistance`], an `--analyze` lint: no engine runs lanes the
//! distance forbids.
//!
//! Subscripts are classified with the standard single-subscript tests over
//! the *logical* iteration space (trip counting from 0): **ZIV** (no
//! induction variable), **strong SIV** (`a*i + b1` vs. `a*i + b2`, exact
//! distance `(b1 - b2) / a`), **weak SIV** (different coefficients on one
//! variable, GCD feasibility + direction `*`), and a bounded **MIV** solver
//! for equal coefficient vectors (`a[i*M + j]`-style linearized accesses)
//! that enumerates the small solution set when constant trip counts bound
//! it. Everything else — non-affine subscripts, symbolic bounds feeding
//! unequal coefficients, calls — defeats the analysis, and the pass says so
//! with a `-Wanalysis-limit` note instead of guessing: **errors are reported
//! only for proven violations**.

use omplt_ast::{
    loop_level, walk_expr, walk_stmt, ASTContext, BinOp, CanonicalLoopAnalysis, Decl, DeclId, Expr,
    ExprKind, LoopDirection, OMPClauseKind, OMPDirective, OMPDirectiveKind, Stmt, StmtKind,
    StmtVisitor, TranslationUnit, Type, TypeKind, UnOp, P,
};
use omplt_sema::analyze_canonical_loop;
use omplt_source::{Diagnostic, DiagnosticsEngine, Level, SourceLocation};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Which directives one walk of the pass judges.
#[derive(Clone, Copy, Debug)]
pub enum Checks {
    /// `interchange`, `reverse`, `fuse`: the compiler reorders iterations
    /// on the user's word, so a proven violation must stop the compile.
    OrderChanging,
    /// `simd` and its composites: the promise that lanes may run
    /// concurrently, which the engines re-check before they rely on it.
    SimdDistance,
}

/// Checks every directive `checks` selects in `tu`, reporting proven
/// dependence violations (and analysis limits) to `diags`.
pub fn check_translation_unit(tu: &TranslationUnit, diags: &DiagnosticsEngine, checks: Checks) {
    let mut v = DependVisitor { diags, checks };
    for d in &tu.decls {
        if let Decl::Function(f) = d {
            if let Some(body) = f.body.borrow().as_ref() {
                v.visit_stmt(body);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Public dependence representation
// ---------------------------------------------------------------------------

/// Per-level direction of a dependence (source iteration vs. sink iteration).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Source iteration precedes the sink iteration at this level.
    Lt,
    /// Same iteration at this level.
    Eq,
    /// Source iteration follows the sink iteration at this level.
    Gt,
    /// Every direction occurs (the level does not constrain the subscript).
    Any,
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Direction::Lt => "<",
            Direction::Eq => "=",
            Direction::Gt => ">",
            Direction::Any => "*",
        })
    }
}

/// Kind of a dependence, named source → sink.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DepKind {
    /// Write then read (true dependence).
    Flow,
    /// Read then write.
    Anti,
    /// Write then write.
    Output,
}

impl fmt::Display for DepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DepKind::Flow => "flow",
            DepKind::Anti => "anti",
            DepKind::Output => "output",
        })
    }
}

/// One memory dependence between two accesses of the same variable,
/// normalized so the direction vector is lexicographically non-negative
/// (the source executes no later than the sink).
#[derive(Clone, Debug)]
pub struct Dependence {
    /// Variable the dependence is on.
    pub name: String,
    pub kind: DepKind,
    /// Source access (subscript rendering and location).
    pub src: (String, SourceLocation),
    /// Sink access.
    pub dst: (String, SourceLocation),
    /// Per-nest-level directions, outermost first.
    pub directions: Vec<Direction>,
    /// Per-level distances in logical iterations; `None` where unconstrained.
    pub distances: Vec<Option<i128>>,
}

impl Dependence {
    /// `(<, =)`-style rendering of the direction vector.
    pub fn direction_vector(&self) -> String {
        let parts: Vec<String> = self.directions.iter().map(Direction::to_string).collect();
        format!("({})", parts.join(", "))
    }

    /// `(1, 0)`-style rendering of the distance vector (`*` when unknown).
    pub fn distance_vector(&self) -> String {
        let parts: Vec<String> = self
            .distances
            .iter()
            .map(|d| d.map_or("*".to_string(), |v| v.to_string()))
            .collect();
        format!("({})", parts.join(", "))
    }

    /// The outermost level whose direction is not `=`, if any — the level
    /// that carries the dependence.
    pub fn carried_level(&self) -> Option<usize> {
        self.directions.iter().position(|&d| d != Direction::Eq)
    }
}

/// The dependences of one literal loop nest.
pub struct DependenceGraph {
    /// Nest depth the vectors are expressed over.
    pub depth: usize,
    pub deps: Vec<Dependence>,
    /// Accesses the subscript tests could not model — the graph is
    /// *incomplete* with respect to these (variable name, reason, location).
    pub limits: Vec<(String, String, SourceLocation)>,
}

impl DependenceGraph {
    /// Whether every access of the nest was modeled.
    pub fn is_complete(&self) -> bool {
        self.limits.is_empty()
    }

    /// The first dependence carried by `level` (all outer levels `=`).
    pub fn carried_at(&self, level: usize) -> Option<&Dependence> {
        self.deps.iter().find(|d| d.carried_level() == Some(level))
    }

    /// The first dependence that `perm` (0-based, applied to the outermost
    /// `perm.len()` levels) would provably reorder: after permutation its
    /// leading non-`=` direction is `>` or `*`.
    pub fn interchange_violation(&self, perm: &[usize]) -> Option<&Dependence> {
        self.deps.iter().find(|d| {
            let permuted: Vec<Direction> = perm
                .iter()
                .map(|&p| d.directions[p])
                .chain(d.directions[perm.len()..].iter().copied())
                .collect();
            matches!(
                permuted.iter().find(|&&x| x != Direction::Eq),
                Some(Direction::Gt | Direction::Any)
            )
        })
    }
}

// ---------------------------------------------------------------------------
// Subscript linearization
// ---------------------------------------------------------------------------

/// Per-level parameters of the nest's logical iteration space.
pub(crate) struct LevelInfo {
    iv: DeclId,
    iv_name: String,
    /// Signed constant step (`+step` for `Up` loops, `-step` for `Down`).
    step: Option<i128>,
    /// Constant lower bound, when known.
    lb: Option<i128>,
    /// `tc - 1`, the largest logical iteration, when the trip count is
    /// a known constant.
    max_iter: Option<i128>,
}

/// An affine subscript `sum_k a_k * iv_k + b`, kept in two forms: the raw
/// user-variable form (for symbolic reasoning and rendering) and the
/// logical-iteration form `sum_k c_k * K_k + off` with `c_k = a_k * step_k`
/// and `off = b + sum_k a_k * lb_k` (requires constant bounds to fold).
#[derive(Clone, Debug)]
pub(crate) struct LinSubscript {
    /// Raw coefficient of each level's iteration variable.
    pub(crate) raw: Vec<i128>,
    /// Raw constant term.
    pub(crate) raw_off: i128,
    /// Logical coefficients (`None` when a used level has a symbolic step).
    coefs: Option<Vec<i128>>,
    /// Folded logical offset (`None` when a used level's `lb` is symbolic).
    off: Option<i128>,
}

/// Linearizes `e` as an affine function of the nest's iteration variables.
/// Returns `None` for anything non-affine.
fn linearize(
    e: &P<Expr>,
    ivs: &BTreeMap<DeclId, usize>,
    depth: usize,
) -> Option<(Vec<i128>, i128)> {
    let e = e.ignore_wrappers();
    if let Some(c) = e.eval_const_int() {
        return Some((vec![0; depth], c));
    }
    if let Some(v) = e.as_decl_ref() {
        let k = *ivs.get(&v.id)?;
        let mut coefs = vec![0; depth];
        coefs[k] = 1;
        return Some((coefs, 0));
    }
    match &e.kind {
        ExprKind::Unary(UnOp::Plus, s) => linearize(s, ivs, depth),
        ExprKind::Unary(UnOp::Minus, s) => {
            let (coefs, off) = linearize(s, ivs, depth)?;
            Some((coefs.iter().map(|c| -c).collect(), -off))
        }
        ExprKind::Binary(BinOp::Add, a, b) => {
            let (ca, oa) = linearize(a, ivs, depth)?;
            let (cb, ob) = linearize(b, ivs, depth)?;
            Some((ca.iter().zip(&cb).map(|(x, y)| x + y).collect(), oa + ob))
        }
        ExprKind::Binary(BinOp::Sub, a, b) => {
            let (ca, oa) = linearize(a, ivs, depth)?;
            let (cb, ob) = linearize(b, ivs, depth)?;
            Some((ca.iter().zip(&cb).map(|(x, y)| x - y).collect(), oa - ob))
        }
        ExprKind::Binary(BinOp::Mul, a, b) => {
            let (ca, oa) = linearize(a, ivs, depth)?;
            let (cb, ob) = linearize(b, ivs, depth)?;
            // One side must be constant for the product to stay affine.
            if ca.iter().all(|&c| c == 0) {
                Some((cb.iter().map(|c| c * oa).collect(), ob * oa))
            } else if cb.iter().all(|&c| c == 0) {
                Some((ca.iter().map(|c| c * ob).collect(), oa * ob))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Renders the raw affine form back to source-like text for diagnostics.
fn render_affine(raw: &[i128], mut off: i128, levels: &[LevelInfo]) -> String {
    let mut s = String::new();
    // `14 - i` reads better than `-i + 14`.
    if off > 0 && raw.iter().find(|&&a| a != 0).is_some_and(|&a| a < 0) {
        s = std::mem::take(&mut off).to_string();
    }
    for (k, &a) in raw.iter().enumerate() {
        if a == 0 {
            continue;
        }
        let name = &levels[k].iv_name;
        if s.is_empty() {
            match a {
                1 => s.push_str(name),
                -1 => s = format!("-{name}"),
                _ => s = format!("{a}*{name}"),
            }
        } else {
            let (sign, m) = if a < 0 { (" - ", -a) } else { (" + ", a) };
            s.push_str(sign);
            if m != 1 {
                s.push_str(&format!("{m}*"));
            }
            s.push_str(name);
        }
    }
    if s.is_empty() {
        return off.to_string();
    }
    match off {
        0 => {}
        o if o > 0 => s.push_str(&format!(" + {o}")),
        o => s.push_str(&format!(" - {}", -o)),
    }
    s
}

/// Splits `a[i][j]…` (parsed as nested `ArraySubscript`s, innermost index
/// outermost in the tree) into its base expression and index chain, outermost
/// dimension first.
pub(crate) fn subscript_chain(e: &P<Expr>) -> (&P<Expr>, Vec<&P<Expr>>) {
    let mut idxs = Vec::new();
    let mut cur = e;
    while let ExprKind::ArraySubscript(b, i) = &cur.ignore_wrappers().kind {
        idxs.push(i);
        cur = b;
    }
    idxs.reverse();
    (cur, idxs)
}

/// Element-count stride of each subscript in an `n`-deep chain over `ty`:
/// the product of the dimension sizes to its right. A single subscript
/// always has stride `[1]` (covers pointers and decayed arrays); a deeper
/// chain needs literal array dimensions to match against, else `None`.
pub(crate) fn element_strides(ty: &P<Type>, n: usize) -> Option<Vec<i128>> {
    if n == 1 {
        return Some(vec![1]);
    }
    let mut dims = Vec::new();
    let mut cur = ty;
    while let TypeKind::Array(el, sz) = &cur.kind {
        dims.push(*sz as i128);
        cur = el;
    }
    if dims.len() != n {
        return None;
    }
    let mut strides = vec![1i128; n];
    for k in (0..n - 1).rev() {
        strides[k] = strides[k + 1] * dims[k + 1];
    }
    Some(strides)
}

// ---------------------------------------------------------------------------
// Access collection
// ---------------------------------------------------------------------------

/// One modeled access: a scalar reference or an array element reference.
pub(crate) struct DepAccess {
    pub(crate) loc: SourceLocation,
    pub(crate) write: bool,
    /// Whether this is an array-element access (a `None` subscript then
    /// means "unmodeled", not "scalar").
    pub(crate) array: bool,
    /// `None` for scalars and for unmodeled subscripts.
    pub(crate) sub: Option<LinSubscript>,
    /// Source-like rendering of the subscript (empty for scalars).
    pub(crate) text: String,
    /// Program-order rank (collection order), used to orient
    /// loop-independent dependences.
    order: usize,
}

/// Collects the per-variable accesses of a loop body. Shared with the race
/// detector ([`crate::race`]), which reads `locals` and `accesses`.
pub(crate) struct DepCollector<'a> {
    levels: &'a [LevelInfo],
    ivs: BTreeMap<DeclId, usize>,
    pub(crate) locals: BTreeSet<DeclId>,
    pub(crate) accesses: BTreeMap<DeclId, (String, Vec<DepAccess>)>,
    limits: Vec<(String, String, SourceLocation)>,
    next_order: usize,
}

impl<'a> DepCollector<'a> {
    pub(crate) fn new(levels: &'a [LevelInfo]) -> Self {
        DepCollector {
            levels,
            ivs: levels.iter().enumerate().map(|(k, l)| (l.iv, k)).collect(),
            locals: BTreeSet::new(),
            accesses: BTreeMap::new(),
            limits: Vec::new(),
            next_order: 0,
        }
    }

    /// Classifies a (possibly multi-dimensional) subscript as one affine
    /// function of the iteration variables: the chain's indices are
    /// linearized individually and summed with `strides[k]` — the
    /// element-count stride of dimension `k` — as weights.
    fn classify(
        &mut self,
        name: &str,
        idxs: &[&P<Expr>],
        strides: &[i128],
    ) -> (Option<LinSubscript>, String) {
        let depth = self.levels.len();
        let mut raw = vec![0i128; depth];
        let mut raw_off = 0i128;
        for (idx, &stride) in idxs.iter().zip(strides) {
            let Some((r, o)) = linearize(idx, &self.ivs, depth) else {
                self.limits.push((
                    name.to_string(),
                    "subscript is not affine in the loop iteration variables".to_string(),
                    idx.loc,
                ));
                return (None, String::new());
            };
            for (acc, c) in raw.iter_mut().zip(&r) {
                *acc += stride * c;
            }
            raw_off += stride * o;
        }
        let text = render_affine(&raw, raw_off, self.levels);
        let mut coefs = Some(Vec::with_capacity(depth));
        let mut off = Some(raw_off);
        for (k, &a) in raw.iter().enumerate() {
            if a == 0 {
                if let Some(c) = coefs.as_mut() {
                    c.push(0);
                }
                continue;
            }
            match self.levels[k].step {
                Some(s) => {
                    if let Some(c) = coefs.as_mut() {
                        c.push(a * s);
                    }
                }
                None => coefs = None,
            }
            match self.levels[k].lb {
                Some(lb) => off = off.map(|o| o + a * lb),
                None => off = None,
            }
        }
        (
            Some(LinSubscript {
                raw,
                raw_off,
                coefs,
                off,
            }),
            text,
        )
    }

    fn record(&mut self, e: &P<Expr>, write: bool) {
        let e = e.ignore_wrappers();
        let order = self.next_order;
        self.next_order += 1;
        match &e.kind {
            ExprKind::DeclRef(v) => {
                let (id, name) = (v.id, v.name.clone());
                self.accesses
                    .entry(id)
                    .or_insert_with(|| (name, Vec::new()))
                    .1
                    .push(DepAccess {
                        loc: e.loc,
                        write,
                        array: false,
                        sub: None,
                        text: String::new(),
                        order,
                    });
            }
            ExprKind::ArraySubscript(..) => {
                let (base, idxs) = subscript_chain(e);
                if let Some(v) = base.as_decl_ref() {
                    let (id, name) = (v.id, v.name.clone());
                    let (sub, text) = match element_strides(&v.ty, idxs.len()) {
                        Some(strides) => self.classify(&name, &idxs, &strides),
                        None => {
                            self.limits.push((
                                name.clone(),
                                "subscript chain does not match the array's dimensions".to_string(),
                                e.loc,
                            ));
                            (None, String::new())
                        }
                    };
                    self.accesses
                        .entry(id)
                        .or_insert_with(|| (name, Vec::new()))
                        .1
                        .push(DepAccess {
                            loc: e.loc,
                            write,
                            array: true,
                            sub,
                            text,
                            order,
                        });
                }
            }
            _ => {}
        }
    }
}

impl StmtVisitor for DepCollector<'_> {
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

// ---------------------------------------------------------------------------
// The subscript tests
// ---------------------------------------------------------------------------

/// Outcome of solving one access pair.
enum Solve {
    /// Provably no common element.
    Independent,
    /// Exhaustive list of iteration-difference vectors (`None` = any value).
    Solutions(Vec<Vec<Option<i128>>>),
    /// The tests do not apply — dependence unknown.
    GiveUp,
}

pub(crate) fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Caps that keep the MIV enumeration trivially cheap.
const MAX_DEPTH: usize = 4;
const MAX_CANDIDATES_PER_LEVEL: i128 = 16;
const MAX_SOLUTIONS: usize = 8;

/// Solves `sum_k c_k * d_k == target` for the per-level iteration
/// differences `d_k`, with `|d_k| <= bound_k` where known. Levels with a
/// zero coefficient are unconstrained (`None` in the solution vector).
fn solve_equal_coefs(coefs: &[i128], bounds: &[Option<i128>], target: i128) -> Solve {
    let live: Vec<usize> = (0..coefs.len()).filter(|&k| coefs[k] != 0).collect();
    if live.is_empty() {
        return if target == 0 {
            Solve::Solutions(vec![vec![None; coefs.len()]])
        } else {
            Solve::Independent
        };
    }
    let g = live.iter().fold(0, |g, &k| gcd(g, coefs[k]));
    if target % g != 0 {
        return Solve::Independent;
    }
    // Recursive enumeration over the live levels, largest |c| first so the
    // candidate windows stay small.
    let mut order = live.clone();
    order.sort_by_key(|&k| std::cmp::Reverse(coefs[k].abs()));
    let mut solutions: Vec<Vec<Option<i128>>> = Vec::new();
    let mut gave_up = false;
    fn recurse(
        order: &[usize],
        coefs: &[i128],
        bounds: &[Option<i128>],
        target: i128,
        partial: &mut Vec<(usize, i128)>,
        solutions: &mut Vec<Vec<Option<i128>>>,
        gave_up: &mut bool,
    ) {
        if *gave_up {
            return;
        }
        let Some((&k, rest)) = order.split_first() else {
            if target == 0 {
                if solutions.len() >= MAX_SOLUTIONS {
                    *gave_up = true;
                    return;
                }
                let mut sol = vec![None; coefs.len()];
                for &(lvl, v) in partial.iter() {
                    sol[lvl] = Some(v);
                }
                solutions.push(sol);
            }
            return;
        };
        let c = coefs[k];
        if rest.is_empty() {
            // Exact solve on the last live level: no bound needed.
            if target % c == 0 {
                let d = target / c;
                if bounds[k].is_none_or(|b| d.abs() <= b) {
                    partial.push((k, d));
                    recurse(rest, coefs, bounds, 0, partial, solutions, gave_up);
                    partial.pop();
                }
            }
            return;
        }
        // The remaining levels can absorb at most `slack`; that bounds this
        // level's candidate window. Every remaining level needs a known
        // trip count for the window to be finite.
        let mut slack: i128 = 0;
        for &j in rest {
            match bounds[j] {
                Some(b) => slack += coefs[j].abs() * b,
                None => {
                    *gave_up = true;
                    return;
                }
            }
        }
        // `c*d` must land in `[target - slack, target + slack]`. Normalize
        // to a positive divisor so the euclidean roundings are exact.
        let (cc, tlo, thi) = if c > 0 {
            (c, target - slack, target + slack)
        } else {
            (-c, -(target + slack), -(target - slack))
        };
        let ceil_div = |a: i128, b: i128| -(-a).div_euclid(b);
        let (mut lo, mut hi) = (ceil_div(tlo, cc), thi.div_euclid(cc));
        if let Some(b) = bounds[k] {
            lo = lo.max(-b);
            hi = hi.min(b);
        } else {
            *gave_up = true;
            return;
        }
        if hi - lo + 1 > MAX_CANDIDATES_PER_LEVEL {
            *gave_up = true;
            return;
        }
        for d in lo..=hi {
            partial.push((k, d));
            recurse(
                rest,
                coefs,
                bounds,
                target - c * d,
                partial,
                solutions,
                gave_up,
            );
            partial.pop();
            if *gave_up {
                return;
            }
        }
    }
    let mut partial = Vec::new();
    recurse(
        &order,
        coefs,
        bounds,
        target,
        &mut partial,
        &mut solutions,
        &mut gave_up,
    );
    if gave_up {
        Solve::GiveUp
    } else if solutions.is_empty() {
        Solve::Independent
    } else {
        Solve::Solutions(solutions)
    }
}

/// Dependence test for two accesses of the same array inside one nest.
/// Solutions are iteration differences `K(second) - K(first)`.
fn test_pair(x: &LinSubscript, y: &LinSubscript, levels: &[LevelInfo]) -> Solve {
    let bounds: Vec<Option<i128>> = levels.iter().map(|l| l.max_iter).collect();
    // Equal raw coefficient vectors: the loop bounds cancel, so this works
    // even with symbolic `lb` — covers ZIV (all zero), strong SIV and the
    // equal-coefficient MIV (linearized `a[i*M + j]`) cases.
    if x.raw == y.raw {
        return match (&x.coefs, &y.coefs) {
            (Some(cx), Some(_)) => solve_equal_coefs(cx, &bounds, x.raw_off - y.raw_off),
            _ => Solve::GiveUp,
        };
    }
    // Unequal coefficients need the fully folded logical form.
    let (Some(cx), Some(cy), Some(ox), Some(oy)) = (&x.coefs, &y.coefs, x.off, y.off) else {
        return Solve::GiveUp;
    };
    // Levels used by both with equal coefficients still cancel; the test
    // applies when at most one level differs (the weak SIV family).
    let diff: Vec<usize> = (0..cx.len()).filter(|&k| cx[k] != cy[k]).collect();
    if diff.len() != 1 {
        return Solve::GiveUp;
    }
    let k = diff[0];
    if (0..cx.len()).any(|j| j != k && cx[j] != 0) {
        // Coupled subscript (e.g. `a[i*M + j]` vs `a[i*M + 2*j]`) — out of
        // scope for the single-subscript tests.
        return Solve::GiveUp;
    }
    let (a, b) = (cx[k], cy[k]);
    // `a*K1 + ox == b*K2 + oy` with `K1 in [0, bound]`, `K2 in [0, bound]`.
    let d = oy - ox;
    if gcd(a, b) == 0 || d % gcd(a, b) != 0 {
        return Solve::Independent;
    }
    // Weak-zero SIV: one side ignores the level entirely. When the pinned
    // iteration provably lies outside the loop, there is no dependence.
    if a == 0 || b == 0 {
        let (c, rhs) = if a == 0 { (b, -d) } else { (a, d) };
        if rhs % c != 0 {
            return Solve::Independent;
        }
        let pinned = rhs / c;
        if pinned < 0 || bounds[k].is_some_and(|bnd| pinned > bnd) {
            return Solve::Independent;
        }
    }
    // A dependence may exist at unpredictable distances: direction `*` at
    // level k, `*` everywhere else the subscript leaves free.
    let mut sol = vec![None; cx.len()];
    sol[k] = None;
    Solve::Solutions(vec![sol])
}

// ---------------------------------------------------------------------------
// Graph construction
// ---------------------------------------------------------------------------

pub(crate) fn level_info(levels: &[CanonicalLoopAnalysis]) -> Vec<LevelInfo> {
    levels
        .iter()
        .map(|a| {
            let mag = a.step.eval_const_int();
            let step = mag.map(|m| match a.direction {
                LoopDirection::Up => m,
                LoopDirection::Down => -m,
            });
            LevelInfo {
                iv: a.iter_var.id,
                iv_name: a.iter_var.name.clone(),
                step,
                lb: a.lb.eval_const_int(),
                max_iter: a.const_trip_count().map(|tc| i128::from(tc).max(1) - 1),
            }
        })
        .collect()
}

/// Turns one solution vector into a normalized [`Dependence`], or `None`
/// for the self-pair same-iteration case.
fn make_dependence(
    name: &str,
    x: &DepAccess,
    y: &DepAccess,
    sol: &[Option<i128>],
    same_access: bool,
) -> Option<Dependence> {
    let all_eq = sol.iter().all(|d| *d == Some(0));
    if all_eq && same_access {
        return None; // an access does not depend on itself within an iteration
    }
    // Orient the dependence source → sink: flip when the leading non-zero
    // distance is negative, or (for loop-independent dependences) when the
    // sink precedes the source in program order.
    let leading = sol.iter().flatten().find(|&&d| d != 0);
    let flip = match leading {
        Some(&d) => {
            // `Any` entries outrank the first fixed distance; they already
            // cover both orientations, so keep the pair order.
            let first_any = sol.iter().position(Option::is_none);
            let first_fixed = sol.iter().position(|v| matches!(v, Some(x) if *x != 0));
            match (first_any, first_fixed) {
                (Some(a), Some(f)) if a < f => false,
                _ => d < 0,
            }
        }
        None => sol.iter().all(Option::is_some) && y.order < x.order,
    };
    let (src, dst, dists): (&DepAccess, &DepAccess, Vec<Option<i128>>) = if flip {
        (y, x, sol.iter().map(|d| d.map(|v| -v)).collect())
    } else {
        (x, y, sol.to_vec())
    };
    let directions = dists
        .iter()
        .map(|d| match d {
            None => Direction::Any,
            Some(0) => Direction::Eq,
            Some(v) if *v > 0 => Direction::Lt,
            Some(_) => Direction::Gt,
        })
        .collect();
    let kind = match (src.write, dst.write) {
        (true, true) => DepKind::Output,
        (true, false) => DepKind::Flow,
        (false, true) => DepKind::Anti,
        (false, false) => return None,
    };
    Some(Dependence {
        name: name.to_string(),
        kind,
        src: (src.text.clone(), src.loc),
        dst: (dst.text.clone(), dst.loc),
        directions,
        distances: dists,
    })
}

impl DependenceGraph {
    /// Computes the dependence graph of a resolved literal nest. Vectors are
    /// expressed over all `levels` (outermost first); accesses that defeat
    /// the subscript tests are listed in [`DependenceGraph::limits`].
    pub fn compute(levels: &[CanonicalLoopAnalysis]) -> DependenceGraph {
        omplt_trace::count("analysis.depend.graphs", 1);
        let info = level_info(levels);
        let mut col = DepCollector::new(&info);
        col.visit_stmt(&levels[levels.len() - 1].body);

        let mut deps: Vec<Dependence> = Vec::new();
        let mut limits = std::mem::take(&mut col.limits);
        for (id, (name, accesses)) in &col.accesses {
            if col.ivs.contains_key(id) || col.locals.contains(id) {
                continue;
            }
            if !accesses.iter().any(|a| a.write) {
                continue;
            }
            // Scalar writes: the variable is live across iterations, which
            // carries a dependence at every level.
            if let Some(w) = accesses.iter().find(|a| a.write && !a.array) {
                let other = accesses
                    .iter()
                    .find(|a| !std::ptr::eq::<DepAccess>(*a, w))
                    .unwrap_or(w);
                deps.push(Dependence {
                    name: name.clone(),
                    kind: if other.write {
                        DepKind::Output
                    } else {
                        DepKind::Flow
                    },
                    src: (String::new(), w.loc),
                    dst: (String::new(), other.loc),
                    directions: vec![Direction::Any; levels.len()],
                    distances: vec![None; levels.len()],
                });
                continue;
            }
            for (i, x) in accesses.iter().enumerate() {
                for y in &accesses[i..] {
                    let same_access = std::ptr::eq::<DepAccess>(x, y);
                    if !x.write && !y.write {
                        continue;
                    }
                    let (Some(sx), Some(sy)) = (&x.sub, &y.sub) else {
                        continue; // already recorded in `limits`
                    };
                    match test_pair(sx, sy, &info) {
                        Solve::Independent => {}
                        Solve::Solutions(sols) => {
                            for sol in &sols {
                                if let Some(d) = make_dependence(name, x, y, sol, same_access) {
                                    deps.push(d);
                                }
                            }
                        }
                        Solve::GiveUp => {
                            limits.push((
                                name.clone(),
                                format!("cannot relate subscripts '{}' and '{}'", x.text, y.text),
                                y.loc,
                            ));
                        }
                    }
                }
            }
        }
        omplt_trace::count("analysis.depend.deps", deps.len() as u64);
        DependenceGraph {
            depth: levels.len(),
            deps,
            limits,
        }
    }
}

// ---------------------------------------------------------------------------
// The directive checks
// ---------------------------------------------------------------------------

/// The analyses of the loops Sema associated `d` with (`OMPDirective::nest`);
/// empty when Sema refused the nest and has said why.
pub(crate) fn analyses(d: &OMPDirective) -> Vec<CanonicalLoopAnalysis> {
    d.nest.iter().map(|l| l.analysis.clone()).collect()
}

/// Extends a directive's nest downwards, up to `max_depth` levels, while
/// the next level is a loop in canonical form with nothing beside it. No
/// directive is associated with these loops, so nobody has analysed them
/// and a refusal is nobody's error: this is the one call into the
/// canonical-form analysis behind Sema.
fn extend_while_perfect(levels: &mut Vec<CanonicalLoopAnalysis>, max_depth: usize) {
    while levels.len() < max_depth {
        let Some(innermost) = levels.last() else {
            return;
        };
        let next = loop_level(&innermost.body).ok();
        // A throwaway context is safe here: the analysis builds expression
        // nodes only, over the original `VarDecl`s.
        let analyzed = next.filter(|l| l.intervening.is_empty()).and_then(|l| {
            analyze_canonical_loop(&ASTContext::new(), &l.loop_stmt, "loop analysis").ok()
        });
        match analyzed {
            Some(level) => levels.push(level),
            None => return,
        }
    }
}

struct DependVisitor<'d> {
    diags: &'d DiagnosticsEngine,
    checks: Checks,
}

impl StmtVisitor for DependVisitor<'_> {
    fn visit_stmt(&mut self, s: &P<Stmt>) {
        if let StmtKind::OMP(d) = &s.kind {
            match (self.checks, d.kind) {
                (Checks::OrderChanging, OMPDirectiveKind::Interchange) => self.check_interchange(d),
                (Checks::OrderChanging, OMPDirectiveKind::Reverse) => self.check_reverse(d),
                (Checks::OrderChanging, OMPDirectiveKind::Fuse) => self.check_fuse(d),
                (Checks::SimdDistance, k) if k.has_simd() => self.check_simd(d),
                _ => {}
            }
        }
        walk_stmt(self, s);
    }

    // Directives are statements, and no expression holds one.
    fn visit_expr(&mut self, _: &P<Expr>) {}
}

impl DependVisitor<'_> {
    fn analysis_limit(&self, loc: SourceLocation, pragma: &str, why: &str, notes: Vec<Diagnostic>) {
        omplt_trace::count("analysis.depend.limit", 1);
        self.diags.report_with_notes(
            Level::Warning,
            loc,
            format!("cannot verify the legality of '{pragma}': {why} [-Wanalysis-limit]"),
            notes,
        );
    }

    fn limit_notes(limits: &[(String, String, SourceLocation)]) -> Vec<Diagnostic> {
        limits
            .iter()
            .take(3)
            .map(|(name, why, loc)| Diagnostic::note(*loc, format!("'{name}': {why}")))
            .collect()
    }

    fn violation(&self, d: &P<OMPDirective>, pragma: &str, why: String, dep: &Dependence) {
        omplt_trace::count("analysis.depend.illegal", 1);
        let sub = |(text, _): &(String, SourceLocation)| -> String {
            if text.is_empty() {
                String::new()
            } else {
                format!("[{text}]")
            }
        };
        self.diags.report_with_notes(
            Level::Error,
            d.loc,
            format!("'{pragma}' is illegal here: {why}"),
            vec![
                Diagnostic::note(
                    dep.src.1,
                    format!(
                        "dependence source: access to '{}{}'",
                        dep.name,
                        sub(&dep.src)
                    ),
                ),
                Diagnostic::note(
                    dep.dst.1,
                    format!(
                        "dependence sink: access to '{}{}' (distance vector {})",
                        dep.name,
                        sub(&dep.dst),
                        dep.distance_vector()
                    ),
                ),
            ],
        );
    }

    /// The graph of a single-nest directive over the nest Sema resolved
    /// for it, reporting analysis limits (a nest Sema refused, unmodeled
    /// accesses).
    fn graph_for(&self, d: &P<OMPDirective>, pragma: &str) -> Option<DependenceGraph> {
        let mut levels = analyses(d);
        if levels.is_empty() {
            self.analysis_limit(d.loc, pragma, "the loop nest is not analyzable", Vec::new());
            return None;
        }
        // Levels below the directive's own depth sharpen the direction
        // vectors while the nest stays perfect (they turn `a[i*M + j]` from
        // "not affine" into an exact MIV solve).
        extend_while_perfect(&mut levels, MAX_DEPTH);
        let graph = DependenceGraph::compute(&levels);
        if !graph.is_complete() {
            self.analysis_limit(
                d.loc,
                pragma,
                "some accesses are beyond the dependence tests",
                Self::limit_notes(&graph.limits),
            );
        }
        Some(graph)
    }

    fn check_interchange(&mut self, d: &P<OMPDirective>) {
        let pragma = d.pragma_text();
        // Sema has already diagnosed a list that is not a permutation.
        let Ok(perm) = d.permutation() else { return };
        let Some(graph) = self.graph_for(d, &pragma) else {
            return;
        };
        if let Some(dep) = graph.interchange_violation(&perm) {
            self.violation(
                d,
                &pragma,
                format!(
                    "interchanging the loops would reverse the {} dependence on '{}' \
                     with direction vector {}",
                    dep.kind,
                    dep.name,
                    dep.direction_vector()
                ),
                dep,
            );
        }
    }

    /// `simd` (and the `for simd` composites) promise that consecutive
    /// iterations may execute as concurrent lanes. Anti dependences survive
    /// (the lane model preserves in-chunk textual order); a loop-carried
    /// flow or output dependence is illegal unless its distance leaves room
    /// for at least two lanes — or unless `safelen` already caps the lane
    /// span at or below the distance.
    fn check_simd(&mut self, d: &P<OMPDirective>) {
        let pragma = d.pragma_text();
        let Some(graph) = self.graph_for(d, &pragma) else {
            return;
        };
        let safelen = d.clause_value(OMPClauseKind::Safelen);
        // Variables the directive privatizes per lane carry no cross-lane
        // dependence: each lane gets its own copy (reductions combine after
        // the loop).
        let privatized: std::collections::HashSet<String> = d
            .clauses
            .iter()
            .filter(|c| {
                use OMPClauseKind::{FirstPrivate, Private, Reduction};
                matches!(c.kind, Reduction | Private | FirstPrivate)
            })
            .flat_map(|c| &c.args)
            .filter_map(|e| e.as_decl_ref().map(|v| v.name.clone()))
            .collect();
        for dep in graph.deps.iter().filter(|p| p.carried_level() == Some(0)) {
            if dep.kind == DepKind::Anti || privatized.contains(&dep.name) {
                continue;
            }
            let illegal = match dep.distances[0] {
                Some(dist) => match safelen {
                    // The user-asserted lane span must not exceed the
                    // provable dependence distance.
                    Some(s) => u128::from(s) > dist.unsigned_abs(),
                    // No cap: distance 1 forbids any lane pair; distance
                    // >= 2 still admits a narrower vector (the backend
                    // clamps its width to the distance).
                    None => dist.unsigned_abs() < 2,
                },
                None => true, // carried at an unprovable distance
            };
            if illegal {
                self.violation(
                    d,
                    &pragma,
                    format!(
                        "concurrent lanes would violate the loop-carried {} dependence on '{}' with distance vector {}",
                        dep.kind,
                        dep.name,
                        dep.distance_vector()
                    ),
                    dep,
                );
                return;
            }
        }
    }

    fn check_reverse(&mut self, d: &P<OMPDirective>) {
        let pragma = d.pragma_text();
        let Some(graph) = self.graph_for(d, &pragma) else {
            return;
        };
        if let Some(dep) = graph.carried_at(0) {
            self.violation(
                d,
                &pragma,
                format!(
                    "the loop carries a {} dependence on '{}' with direction vector {}",
                    dep.kind,
                    dep.name,
                    dep.direction_vector()
                ),
                dep,
            );
        }
    }

    fn check_fuse(&mut self, d: &P<OMPDirective>) {
        let pragma = d.pragma_text();
        // The members of the sequence, in source order. Sema has diagnosed
        // a sequence it could not resolve (or one of fewer than two loops).
        let loops = analyses(d);
        if loops.is_empty() {
            return;
        }
        // Collect each loop's accesses in its own logical space.
        let infos: Vec<Vec<LevelInfo>> = loops
            .iter()
            .map(|l| level_info(std::slice::from_ref(l)))
            .collect();
        let mut collected = Vec::with_capacity(loops.len());
        let mut limits: Vec<(String, String, SourceLocation)> = Vec::new();
        for (l, info) in loops.iter().zip(&infos) {
            let mut col = DepCollector::new(info);
            col.visit_stmt(&l.body);
            limits.append(&mut col.limits);
            collected.push(col);
        }
        omplt_trace::count("analysis.depend.graphs", 1);
        if !limits.is_empty() {
            self.analysis_limit(
                d.loc,
                &pragma,
                "some accesses are beyond the dependence tests",
                Self::limit_notes(&limits),
            );
        }
        // Cross-loop pairs: an access in loop p against one in loop q > p.
        for p in 0..collected.len() {
            for q in p + 1..collected.len() {
                if let Some((dep, why)) = self.fuse_pair(&collected[p], &collected[q]) {
                    match dep {
                        Some(dep) => {
                            self.violation(
                                d,
                                &pragma,
                                format!(
                                    "fusing loops {} and {} creates a negative-distance {} \
                                     dependence on '{}' (distance {})",
                                    p + 1,
                                    q + 1,
                                    dep.kind,
                                    dep.name,
                                    dep.distances[0].map_or("*".to_string(), |v| v.to_string())
                                ),
                                &dep,
                            );
                        }
                        None => {
                            self.analysis_limit(d.loc, &pragma, &why, Vec::new());
                        }
                    }
                    return;
                }
            }
        }
    }

    /// Tests every same-variable access pair across two fused loops.
    /// Returns `Some((Some(dep), _))` for a proven violation,
    /// `Some((None, why))` when a pair defeats the tests.
    #[allow(clippy::type_complexity)]
    fn fuse_pair(
        &self,
        first: &DepCollector<'_>,
        second: &DepCollector<'_>,
    ) -> Option<(Option<Dependence>, String)> {
        for (id, (name, xs)) in &first.accesses {
            if first.locals.contains(id) || first.ivs.contains_key(id) {
                continue;
            }
            let Some((_, ys)) = second.accesses.get(id) else {
                continue;
            };
            if second.locals.contains(id) || second.ivs.contains_key(id) {
                continue;
            }
            for x in xs {
                for y in ys {
                    if !x.write && !y.write {
                        continue;
                    }
                    let kind = match (x.write, y.write) {
                        (true, true) => DepKind::Output,
                        (true, false) => DepKind::Flow,
                        (false, true) => DepKind::Anti,
                        (false, false) => unreachable!(),
                    };
                    if (x.array && x.sub.is_none()) || (y.array && y.sub.is_none()) {
                        continue; // unmodeled subscript — already in `limits`
                    }
                    // Scalar touched in both loops with a write involved:
                    // every iteration pair is related — fusion reorders it.
                    let (Some(sx), Some(sy)) = (&x.sub, &y.sub) else {
                        return Some((
                            Some(Dependence {
                                name: name.clone(),
                                kind,
                                src: (x.text.clone(), x.loc),
                                dst: (y.text.clone(), y.loc),
                                directions: vec![Direction::Any],
                                distances: vec![None],
                            }),
                            String::new(),
                        ));
                    };
                    // Different iteration spaces: everything must fold to
                    // constants. `cx*K1 + ox == cy*K2 + oy`.
                    let (Some(cx), Some(cy), Some(ox), Some(oy)) =
                        (&sx.coefs, &sy.coefs, sx.off, sy.off)
                    else {
                        return Some((
                            None,
                            format!("the bounds of the loops accessing '{name}' are not constant"),
                        ));
                    };
                    let (a, b) = (cx[0], cy[0]);
                    let d = ox - oy;
                    if a == 0 && b == 0 {
                        if d != 0 {
                            continue; // distinct elements
                        }
                        // Same element in both loops: after fusion, early
                        // iterations of the second body see late iterations
                        // of the first — a negative-distance instance.
                        return Some((
                            Some(Dependence {
                                name: name.clone(),
                                kind,
                                src: (x.text.clone(), x.loc),
                                dst: (y.text.clone(), y.loc),
                                directions: vec![Direction::Any],
                                distances: vec![None],
                            }),
                            String::new(),
                        ));
                    }
                    if a == b {
                        // Strong SIV across the loops: K2 - K1 == (ox-oy)/a.
                        if d % a != 0 {
                            continue;
                        }
                        let dist = d / a;
                        if dist < 0 {
                            return Some((
                                Some(Dependence {
                                    name: name.clone(),
                                    kind,
                                    src: (x.text.clone(), x.loc),
                                    dst: (y.text.clone(), y.loc),
                                    directions: vec![Direction::Gt],
                                    distances: vec![Some(dist)],
                                }),
                                String::new(),
                            ));
                        }
                        continue;
                    }
                    if gcd(a, b) != 0 && d % gcd(a, b) != 0 {
                        continue; // no integer solution at all
                    }
                    return Some((
                        None,
                        format!(
                            "cannot relate subscripts '{}' and '{}' of '{name}' across \
                             the fused loops",
                            x.text, y.text
                        ),
                    ));
                }
            }
        }
        None
    }
}
