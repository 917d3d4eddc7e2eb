//! Direction-vector dependence analysis: the legality gate of `interchange`,
//! `tile`, `reverse`, `fuse` and `simd`, and the `-Wrace` check of
//! `parallel` worksharing loops.
//!
//! Sema applies the loop-transformation directives unconditionally — OpenMP
//! makes the user responsible for their legality. This pass recovers the
//! classical memory-dependence information needed to *check* that
//! responsibility: for every such directive it builds one
//! [`DependenceGraph`] of the associated nest, which every check reads:
//!
//! * **interchange** is illegal when permuting the direction vector of any
//!   dependence makes its leading non-`=` entry `>` (the textbook `(<, >)`
//!   pattern: the permuted sink would run before its source). A `*` stands
//!   for each of `<`, `=` and `>`, in either orientation of the dependence;
//! * **tile** over two or more loops runs the tiles of the band in
//!   lexicographic order, which is legal when the band is fully permutable:
//!   it is illegal when a dependence carried by a tiled loop (`<`) has a
//!   definite `>` at a later tiled loop. What it cannot judge (a `*`,
//!   unmodeled accesses) it leaves silent, as `-Wrace` does;
//! * **reverse** is illegal when the reversed loop *carries* any dependence
//!   (leading direction `<`) — running the iterations backwards swaps source
//!   and sink;
//! * **fuse** is illegal when a dependence between two of the fused loops
//!   has negative distance: iteration `i` of the fused body would consume a
//!   value that the original program produced only in a later iteration;
//! * **simd** (and its composites) runs consecutive iterations as lock-step
//!   lanes, each access for every lane before the next access. A dependence
//!   carried by the `simd` loops caps the lanes at its distance — linearised
//!   over the `collapse`d levels — when its sink runs no later than its
//!   source in the body's evaluation order; lane-private variables
//!   (`private`, `firstprivate`, `reduction`, a scalar every iteration writes
//!   before it reads it) carry none. The bound is recorded as
//!   [`OMPDirective::simd_lanes`]: CodeGen turns it into `safelen`, and the
//!   VM widens no further. Below two lanes it is a warning and the loop runs
//!   scalar;
//! * **`-Wrace`** (`parallel for`, `parallel for simd`): iterations of the
//!   workshared levels run on different threads, so a write to a shared
//!   scalar, and a dependence carried by one of those levels, is a data race
//!   — a warning, since the compiler executes the program as written. What
//!   the clauses privatise and what the body declares carry none, and what
//!   the tests cannot judge is no finding: the check is silent about it.
//!
//! Every compile runs all six (`CompilerInstance::parse_source`).
//!
//! Subscripts are classified with the standard single-subscript tests over
//! the *logical* iteration space (trip counting from 0): **ZIV** (no
//! induction variable), **strong SIV** (`a*i + b1` vs. `a*i + b2`, exact
//! distance `(b1 - b2) / a`), **weak SIV** (different coefficients on one
//! variable, GCD feasibility + direction `*`), and a bounded **MIV** solver
//! for equal coefficient vectors (`a[i*M + j]`-style linearized accesses)
//! that enumerates the small solution set when constant trip counts bound
//! it. A local initialised once and never assigned — a user temporary, or
//! the user counter a transformation re-materialises from its generated
//! one — stands for its initialiser. Everything else — non-affine
//! subscripts, symbolic bounds feeding unequal coefficients, accesses
//! through computed pointers — defeats the analysis for a variable the nest
//! writes (what is only read carries no dependence), and the pass says so
//! with a `-Wanalysis-limit` note instead of guessing. So does a written base
//! next to another one when either is a pointer: a pointer may alias any
//! base, two distinct arrays never do. **Errors are reported only for
//! proven violations**.

use omplt_ast::{
    walk_expr, walk_stmt, BinOp, Decl, DeclId, Expr, ExprKind, LoopDirection, LoopNestLevel,
    OMPClauseKind, OMPDirective, OMPDirectiveKind, Stmt, StmtKind, StmtVisitor, TranslationUnit,
    Type, TypeKind, UnOp, VarDecl, P,
};
use omplt_source::{Diagnostic, DiagnosticsEngine, IdentifierTable, Level, SourceLocation};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Judges every `interchange`, multi-loop `tile`, `reverse`, `fuse`,
/// `simd`-bearing and `parallel` worksharing directive in `tu`: proven
/// violations are errors; a `simd` loop that must run scalar, a data race
/// and what the tests cannot judge of a transformation are warnings; and
/// each `simd` directive's lane bound is recorded on it.
pub fn check_translation_unit(tu: &TranslationUnit, diags: &DiagnosticsEngine) {
    let mut v = DependVisitor {
        diags,
        idents: &tu.idents,
    };
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
    pub var: DeclId,
    /// Its name.
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
    /// Whether the sink access runs no later than the source access in the
    /// body's evaluation order. Lanes running the body in lock-step then
    /// reach the sink of a later iteration before the source of an earlier
    /// one.
    pub lexically_backward: bool,
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
    /// Scalars whose first access in the body is an unconditional write:
    /// every iteration defines them before it uses them, so only the value
    /// the last iteration leaves behind crosses iterations.
    pub write_first: BTreeSet<DeclId>,
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
    /// `perm.len()` levels) would reorder: after permutation the leading
    /// non-`=` direction of one of its [`definite_vectors`] is `>`.
    pub fn interchange_violation(&self, perm: &[usize]) -> Option<&Dependence> {
        self.deps.iter().find(|d| {
            definite_vectors(&d.directions).iter().any(|v| {
                let permuted = perm.iter().map(|&p| v[p]);
                let mut permuted = permuted.chain(v[perm.len()..].iter().copied());
                permuted.find(|&x| x != Direction::Eq) == Some(Direction::Gt)
            })
        })
    }

    /// The first dependence that tiling the outermost `band` levels would
    /// reorder: carried by one of them (`<`) with a `>` at a later one.
    pub fn tile_violation(&self, band: usize) -> Option<&Dependence> {
        use Direction::{Gt, Lt};
        self.deps.iter().find(|d| {
            let dirs = &d.directions[..band];
            let carried = d.carried_level().filter(|&l| l < band && dirs[l] == Lt);
            carried.is_some_and(|l| dirs[l + 1..].contains(&Gt))
        })
    }
}

/// The definite direction vectors `dirs` stands for: every `*` split into
/// `<`, `=` and `>`, an expansion whose leading non-`=` entry is `>`
/// turned around (a `*` covers both orientations of the dependence), and
/// the all-`=` one dropped.
fn definite_vectors(dirs: &[Direction]) -> Vec<Vec<Direction>> {
    use Direction::{Any, Eq, Gt, Lt};
    let mut vectors = vec![Vec::with_capacity(dirs.len())];
    for &d in dirs {
        let choices: &[Direction] = if d == Any { &[Lt, Eq, Gt] } else { &[d] };
        vectors = (vectors.iter())
            .flat_map(|v| choices.iter().map(|&c| [&v[..], &[c]].concat()))
            .collect();
    }
    vectors.retain(|v| v.iter().any(|&x| x != Eq));
    for v in &mut vectors {
        if v.iter().find(|&&x| x != Eq) == Some(&Gt) {
            for x in v.iter_mut() {
                *x = match *x {
                    Lt => Gt,
                    Gt => Lt,
                    x => x,
                };
            }
        }
    }
    vectors
}

// ---------------------------------------------------------------------------
// Subscript linearization
// ---------------------------------------------------------------------------

/// Per-level parameters of the nest's logical iteration space.
struct LevelInfo {
    iv: DeclId,
    iv_name: String,
    /// Signed constant step (`+step` for `Up` loops, `-step` for `Down`).
    step: Option<i128>,
    /// Constant lower bound, when known (a counter that walks: its offset).
    lb: Option<i128>,
    /// The variable a pointer counter starts in (`a` of `p = a + 1`, of a
    /// range-`for`'s `__begin`): the counter then stands for the element
    /// offset from it, and an access through it is an element of it.
    walks: Option<P<VarDecl>>,
    /// `tc - 1`, the largest logical iteration, when the trip count is
    /// a known constant.
    max_iter: Option<i128>,
}

/// An affine subscript `sum_k a_k * iv_k + b`, kept in two forms: the raw
/// user-variable form (for symbolic reasoning and rendering) and the
/// logical-iteration form `sum_k c_k * K_k + off` with `c_k = a_k * step_k`
/// and `off = b + sum_k a_k * lb_k` (requires constant bounds to fold).
#[derive(Clone, Debug)]
struct LinSubscript {
    /// Raw coefficient of each level's iteration variable.
    raw: Vec<i128>,
    /// Raw constant term.
    raw_off: i128,
    /// Logical coefficients (`None` when a used level has a symbolic step).
    coefs: Option<Vec<i128>>,
    /// Folded logical offset (`None` when a used level's `lb` is symbolic).
    off: Option<i128>,
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
fn subscript_chain(e: &P<Expr>) -> (&P<Expr>, Vec<&P<Expr>>) {
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
fn element_strides(ty: &P<Type>, n: usize) -> Option<Vec<i128>> {
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

/// The variable a pointer-valued expression is computed from (`p` of
/// `p + i`, `(p - 1)`, `q`), if any.
fn pointer_root(e: &P<Expr>) -> Option<&P<VarDecl>> {
    let e = e.ignore_wrappers();
    match &e.kind {
        ExprKind::DeclRef(v) => Some(v),
        ExprKind::ExplicitCast(_, s) => pointer_root(s),
        ExprKind::Binary(BinOp::Add | BinOp::Sub, l, r) => {
            if l.ty.is_pointer() || matches!(l.ty.kind, TypeKind::Array(..)) {
                pointer_root(l)
            } else {
                pointer_root(r)
            }
        }
        _ => None,
    }
}

/// Whether `e` reads a variable `hit` selects.
fn mentions(e: &P<Expr>, hit: impl Fn(DeclId) -> bool) -> bool {
    struct Mentions<F>(F, bool);
    impl<F: Fn(DeclId) -> bool> StmtVisitor for Mentions<F> {
        fn visit_expr(&mut self, e: &P<Expr>) {
            if let ExprKind::DeclRef(v) = &e.kind {
                self.1 |= (self.0)(v.id);
            }
            walk_expr(self, e);
        }
    }
    let mut m = Mentions(hit, false);
    m.visit_expr(e);
    m.1
}

/// The scalars a body assigns (or takes the address of): their values vary
/// within the nest, so no subscript may treat them as constants.
fn assigned_vars(body: &P<Stmt>) -> BTreeSet<DeclId> {
    struct Assigned(BTreeSet<DeclId>);
    impl StmtVisitor for Assigned {
        fn visit_expr(&mut self, e: &P<Expr>) {
            let target = match &e.kind {
                ExprKind::Binary(op, lhs, _) if op.is_assignment() => Some(lhs),
                ExprKind::Unary(op, sub) if op.is_inc_dec() || *op == UnOp::AddrOf => Some(sub),
                _ => None,
            };
            if let Some(v) = target.and_then(|t| t.as_decl_ref()) {
                self.0.insert(v.id);
            }
            walk_expr(self, e);
        }
    }
    let mut a = Assigned(BTreeSet::new());
    a.visit_stmt(body);
    a.0
}

// ---------------------------------------------------------------------------
// Access collection
// ---------------------------------------------------------------------------

/// One modeled access: a scalar reference or an array element reference.
struct DepAccess {
    loc: SourceLocation,
    write: bool,
    /// Whether this is an array-element access (a `None` subscript then
    /// means "unmodeled", not "scalar").
    array: bool,
    /// `None` for scalars and for unmodeled subscripts.
    sub: Option<LinSubscript>,
    /// Source-like rendering of the subscript (empty for scalars).
    text: String,
    /// Rank in the body's evaluation order: an assignment's write follows
    /// the reads of its right-hand side.
    order: usize,
    /// Whether the access sits under a branch, in an inner loop or behind a
    /// `continue`: some iterations may skip it.
    conditional: bool,
}

/// The accesses of one variable, in evaluation order.
struct VarAccesses {
    name: String,
    /// A pointer-typed base: it may alias any other base.
    pointer: bool,
    list: Vec<DepAccess>,
}

/// A limit entry: variable, why the tests cannot judge it, where.
type Limit = (String, String, SourceLocation);

/// Whether converting an integer or `bool` of type `from` to the integer or
/// `bool` type `to` can lose bits: `to` is the narrower.
fn narrows(from: &Type, to: &Type) -> bool {
    let bits = |t: &Type| match t.kind {
        TypeKind::Bool => Some(1),
        TypeKind::Int { width, .. } => Some(width.bits()),
        _ => None,
    };
    matches!((bits(from), bits(to)), (Some(f), Some(t)) if t < f)
}

/// Collects the per-variable accesses of a loop body.
struct DepCollector<'a> {
    levels: &'a [LevelInfo],
    /// The spellings of the variables' names.
    idents: &'a IdentifierTable,
    ivs: BTreeMap<DeclId, usize>,
    /// Scalars the body assigns.
    assigned: BTreeSet<DeclId>,
    /// Body locals initialised once and never assigned, and body
    /// references: a use stands for the initialiser (for a reference, an
    /// access of the lvalue it binds).
    defs: BTreeMap<DeclId, P<Expr>>,
    locals: BTreeSet<DeclId>,
    accesses: BTreeMap<DeclId, VarAccesses>,
    /// Accesses the tests cannot model: (variable, why, where).
    unmodeled: Vec<(DeclId, String, SourceLocation)>,
    next_order: usize,
    /// Nesting depth of branches, inner loops and `continue`s seen so far.
    cond_depth: usize,
}

impl<'a> DepCollector<'a> {
    /// Collects the accesses of `body`, the innermost body of the nest
    /// `levels` describes.
    fn collect(levels: &'a [LevelInfo], idents: &'a IdentifierTable, body: &P<Stmt>) -> Self {
        let mut col = DepCollector {
            levels,
            idents,
            ivs: levels.iter().enumerate().map(|(k, l)| (l.iv, k)).collect(),
            assigned: assigned_vars(body),
            defs: BTreeMap::new(),
            locals: BTreeSet::new(),
            accesses: BTreeMap::new(),
            unmodeled: Vec::new(),
            next_order: 0,
            cond_depth: 0,
        };
        col.visit_stmt(body);
        col
    }

    /// Whether each iteration has its own copy of `id`: a loop counter or a
    /// local of the body (not a pointer — the memory it points to is not
    /// the iteration's).
    fn is_private(&self, id: DeclId) -> bool {
        (self.ivs.contains_key(&id) || self.locals.contains(&id))
            && !self.accesses.get(&id).is_some_and(|v| v.pointer)
    }

    fn writes(&self, id: DeclId) -> bool {
        (self.accesses.get(&id)).is_some_and(|v| v.list.iter().any(|a| a.write))
    }

    /// The unmodeled accesses of the variables `written` selects.
    fn limits(&self, written: impl Fn(DeclId) -> bool) -> Vec<Limit> {
        (self.unmodeled.iter())
            .filter(|(id, ..)| written(*id) && !self.is_private(*id))
            .map(|(id, why, loc)| (self.accesses[id].name.clone(), why.clone(), *loc))
            .collect()
    }

    /// Linearizes `e` as an affine function of the nest's iteration
    /// variables. Returns `None` for anything non-affine.
    fn linearize(&self, e: &P<Expr>) -> Option<(Vec<i128>, i128)> {
        let depth = self.levels.len();
        // `ignore_wrappers`, up to a conversion that narrows.
        let mut e = e;
        loop {
            match &e.kind {
                ExprKind::Paren(s) | ExprKind::ConstantExpr { sub: s, .. } => e = s,
                ExprKind::ImplicitCast(_, s) if !narrows(&s.ty, &e.ty) => e = s,
                _ => break,
            }
        }
        let varies = |id| {
            self.ivs.contains_key(&id) || self.assigned.contains(&id) || self.locals.contains(&id)
        };
        let affine = |a: Option<(Vec<i128>, i128)>, b: Option<(Vec<i128>, i128)>, sign: i128| {
            let ((ca, oa), (cb, ob)) = (a?, b?);
            Some((
                ca.iter().zip(&cb).map(|(x, y)| x + sign * y).collect(),
                oa + sign * ob,
            ))
        };
        match &e.kind {
            ExprKind::DeclRef(v) => {
                if let Some(&k) = self.ivs.get(&v.id) {
                    let mut coefs = vec![0; depth];
                    coefs[k] = 1;
                    return Some((coefs, 0));
                }
                if self.assigned.contains(&v.id) {
                    return None;
                }
                match self.defs.get(&v.id) {
                    Some(init) => self.linearize(init),
                    None => e.eval_const_int().map(|c| (vec![0; depth], c)),
                }
            }
            // A conversion to a narrower integer type wraps (`(signed
            // char)i` goes 127 → -128): affine only when it is a constant.
            ExprKind::ImplicitCast(_, s) | ExprKind::ExplicitCast(_, s)
                if narrows(&s.ty, &e.ty) =>
            {
                e.eval_const_int().map(|c| (vec![0; depth], c))
            }
            ExprKind::ExplicitCast(_, s) if s.ty.is_integer() => self.linearize(s),
            ExprKind::Unary(UnOp::Plus, s) => self.linearize(s),
            ExprKind::Unary(UnOp::Minus, s) => {
                let (coefs, off) = self.linearize(s)?;
                Some((coefs.iter().map(|c| -c).collect(), -off))
            }
            ExprKind::Binary(BinOp::Add, a, b) => affine(self.linearize(a), self.linearize(b), 1),
            ExprKind::Binary(BinOp::Sub, a, b) => affine(self.linearize(a), self.linearize(b), -1),
            ExprKind::Binary(BinOp::Mul, a, b) => {
                let (ca, oa) = self.linearize(a)?;
                let (cb, ob) = self.linearize(b)?;
                // One side must be constant for the product to stay affine.
                if ca.iter().all(|&c| c == 0) {
                    Some((cb.iter().map(|c| c * oa).collect(), ob * oa))
                } else if cb.iter().all(|&c| c == 0) {
                    Some((ca.iter().map(|c| c * ob).collect(), oa * ob))
                } else {
                    None
                }
            }
            // Constant folding must not see through a variable that varies
            // in the nest (a compiler-generated counter folds to its start).
            _ if mentions(e, varies) => None,
            _ => e.eval_const_int().map(|c| (vec![0; depth], c)),
        }
    }

    /// Classifies a (possibly multi-dimensional) subscript as one affine
    /// function of the iteration variables: the chain's indices are
    /// linearized individually and summed with `strides[k]` — the
    /// element-count stride of dimension `k` — as weights.
    fn classify(
        &mut self,
        var: DeclId,
        idxs: &[&P<Expr>],
        strides: &[i128],
    ) -> (Option<LinSubscript>, String) {
        let depth = self.levels.len();
        let mut raw = vec![0i128; depth];
        let mut raw_off = 0i128;
        for (idx, &stride) in idxs.iter().zip(strides) {
            let Some((r, o)) = self.linearize(idx) else {
                self.unmodeled.push((
                    var,
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
        // A level the subscript does not use needs neither step nor bound.
        let levels = || raw.iter().zip(self.levels);
        let coefs = levels()
            .map(|(&a, l)| l.step.map(|s| a * s).or((a == 0).then_some(0)))
            .collect();
        let off = levels().try_fold(raw_off, |o, (&a, l)| {
            l.lb.map(|lb| o + a * lb).or((a == 0).then_some(o))
        });
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

    /// The variable the pointer counter `v` walks, unless the body assigns it.
    fn walked(&self, v: &P<VarDecl>) -> Option<P<VarDecl>> {
        let base = self.levels[*self.ivs.get(&v.id)?].walks.as_ref()?;
        (!self.assigned.contains(&base.id)).then(|| P::clone(base))
    }

    /// The variable an element access is based on, with its modeled
    /// subscript — or `None` with the reason recorded as unmodeled.
    fn element(&mut self, e: &P<Expr>) -> Option<(P<VarDecl>, Option<LinSubscript>, String)> {
        let unmodeled = |col: &mut Self, v: &P<VarDecl>, why: &str| {
            col.unmodeled.push((v.id, why.to_string(), e.loc));
            Some((P::clone(v), None, String::new()))
        };
        // Through a counter that walks `a`, `*(p + e)` is `a[p + e]` and
        // `p[e]` is `a[p + e]`: the counter stands for its element offset.
        if let ExprKind::Unary(UnOp::Deref, p) = &e.kind {
            let v = pointer_root(p)?;
            let Some(a) = self.walked(v) else {
                return unmodeled(self, v, "access through a dereferenced pointer");
            };
            let (sub, text) = self.classify(a.id, &[p], &[1]);
            return Some((a, sub, text));
        }
        let (base, idxs) = subscript_chain(e);
        let Some(v) = base.as_decl_ref() else {
            let v = pointer_root(base)?;
            return unmodeled(self, v, "access through a computed pointer");
        };
        if let (Some(a), [idx]) = (self.walked(v), &idxs[..]) {
            let (sub, text) = self.classify(a.id, &[base, idx], &[1, 1]);
            return Some((a, sub, text));
        }
        if v.ty.is_pointer() && (self.locals.contains(&v.id) || self.ivs.contains_key(&v.id)) {
            return unmodeled(self, v, "access through a pointer that changes in the loop");
        }
        let Some(strides) = element_strides(&v.ty, idxs.len()) else {
            return unmodeled(
                self,
                v,
                "subscript chain does not match the array's dimensions",
            );
        };
        let (sub, text) = self.classify(v.id, &idxs, &strides);
        Some((P::clone(v), sub, text))
    }

    fn record(&mut self, e: &P<Expr>, write: bool) {
        let e = e.ignore_wrappers();
        let reference = e.as_decl_ref().filter(|v| v.by_ref);
        if let Some(bound) = reference.and_then(|v| self.defs.get(&v.id)) {
            let at_use = P::new(Expr {
                loc: e.loc,
                ..Expr::clone(bound)
            });
            return self.record(&at_use, write);
        }
        let order = self.next_order;
        self.next_order += 1;
        let (v, array, sub, text) = match &e.kind {
            ExprKind::DeclRef(v) => (P::clone(v), false, None, String::new()),
            ExprKind::ArraySubscript(..) | ExprKind::Unary(UnOp::Deref, _) => {
                let Some((v, sub, text)) = self.element(e) else {
                    return;
                };
                (v, true, sub, text)
            }
            _ => return,
        };
        let access = DepAccess {
            loc: e.loc,
            write,
            array,
            sub,
            text,
            order,
            conditional: self.cond_depth > 0,
        };
        (self.accesses.entry(v.id))
            .or_insert_with(|| VarAccesses {
                name: self.idents.get(v.name).to_string(),
                pointer: v.ty.is_pointer(),
                list: Vec::new(),
            })
            .list
            .push(access);
    }

    /// Visits what computing the address of the lvalue `e` reads.
    fn visit_address(&mut self, e: &P<Expr>) {
        match &e.ignore_wrappers().kind {
            ExprKind::Unary(UnOp::Deref, p) => self.visit_expr(p),
            _ => {
                for idx in subscript_chain(e).1 {
                    self.visit_expr(idx);
                }
            }
        }
    }

    /// Visits `f`'s part of the body as code some iterations may skip.
    fn conditionally(&mut self, f: impl FnOnce(&mut Self)) {
        self.cond_depth += 1;
        f(self);
        self.cond_depth -= 1;
    }
}

impl StmtVisitor for DepCollector<'_> {
    fn visit_stmt(&mut self, s: &P<Stmt>) {
        match &s.kind {
            StmtKind::Decl(decls) => {
                for d in decls {
                    let Decl::Var(v) = d else { continue };
                    self.locals.insert(v.id);
                    let Some(init) = &v.init else { continue };
                    if v.by_ref || !self.assigned.contains(&v.id) {
                        self.defs.insert(v.id, P::clone(init));
                    }
                    match v.by_ref {
                        true => self.visit_address(init),
                        false => self.visit_expr(init),
                    }
                }
            }
            StmtKind::If { cond, then, els } => {
                self.visit_expr(cond);
                self.conditionally(|c| {
                    c.visit_stmt(then);
                    if let Some(e) = els {
                        c.visit_stmt(e);
                    }
                });
            }
            StmtKind::For { .. }
            | StmtKind::CxxForRange(_)
            | StmtKind::While { .. }
            | StmtKind::DoWhile { .. } => self.conditionally(|c| walk_stmt(c, s)),
            // Everything after a `continue` may be skipped.
            StmtKind::Continue => self.cond_depth += 1,
            _ => walk_stmt(self, s),
        }
    }

    fn visit_expr(&mut self, e: &P<Expr>) {
        match &e.kind {
            ExprKind::Binary(op, lhs, rhs) if op.is_assignment() => {
                self.visit_address(lhs);
                if *op != BinOp::Assign {
                    self.record(lhs, false);
                }
                self.visit_expr(rhs);
                self.record(lhs, true);
            }
            ExprKind::Unary(op, sub) if op.is_inc_dec() => {
                self.visit_address(sub);
                self.record(sub, false);
                self.record(sub, true);
            }
            ExprKind::Binary(BinOp::LAnd | BinOp::LOr, l, r) => {
                self.visit_expr(l);
                self.conditionally(|c| c.visit_expr(r));
            }
            ExprKind::Conditional(cond, t, f) => {
                self.visit_expr(cond);
                self.conditionally(|c| {
                    c.visit_expr(t);
                    c.visit_expr(f);
                });
            }
            ExprKind::DeclRef(_) => self.record(e, false),
            ExprKind::ArraySubscript(..) | ExprKind::Unary(UnOp::Deref, _) => {
                self.visit_address(e);
                self.record(e, false);
            }
            _ => walk_expr(self, e),
        }
    }
}

/// Pairs of bases the subscript tests cannot tell apart: a base written in
/// `writer` and a different one accessed in `other`, either pointer-typed.
fn may_alias(writer: &DepCollector<'_>, other: &DepCollector<'_>) -> Vec<Limit> {
    fn bases<'c>(c: &'c DepCollector<'_>) -> impl Iterator<Item = (&'c DeclId, &'c VarAccesses)> {
        (c.accesses.iter()).filter(|(id, v)| !c.is_private(**id) && v.list.iter().any(|a| a.array))
    }
    let mut limits = Vec::new();
    for (xid, x) in bases(writer) {
        let Some(w) = x.list.iter().find(|a| a.write && a.array) else {
            continue;
        };
        for (_, y) in bases(other).filter(|(yid, _)| *yid != xid) {
            let why = match (x.pointer, y.pointer) {
                (true, _) => format!("pointer may alias '{}'", y.name),
                (false, true) => format!("may be aliased by pointer '{}'", y.name),
                (false, false) => continue,
            };
            limits.push((x.name.clone(), why, w.loc));
        }
    }
    limits
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

fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Caps that keep the MIV enumeration trivially cheap.
const MAX_CANDIDATES_PER_LEVEL: i128 = 16;
const MAX_SOLUTIONS: usize = 8;

/// Solves `sum_k c_k * d_k == target` for the per-level iteration
/// differences `d_k`, with `|d_k| <= bound_k` where known. Levels with a
/// zero coefficient are unconstrained (`None` in the solution vector).
fn solve_equal_coefs(coefs: &[i128], bounds: &[Option<i128>], target: i128) -> Solve {
    let mut live: Vec<usize> = (0..coefs.len()).filter(|&k| coefs[k] != 0).collect();
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
    // Enumerate the live levels largest |c| first, so the candidate windows
    // stay small.
    live.sort_by_key(|&k| std::cmp::Reverse(coefs[k].abs()));
    let mut miv = Miv {
        coefs,
        bounds,
        partial: Vec::new(),
        solutions: Vec::new(),
        gave_up: false,
    };
    miv.solve(&live, target);
    if miv.gave_up {
        Solve::GiveUp
    } else if miv.solutions.is_empty() {
        Solve::Independent
    } else {
        Solve::Solutions(miv.solutions)
    }
}

/// The bounded enumeration behind [`solve_equal_coefs`].
struct Miv<'c> {
    coefs: &'c [i128],
    bounds: &'c [Option<i128>],
    /// The differences chosen so far: (level, d).
    partial: Vec<(usize, i128)>,
    solutions: Vec<Vec<Option<i128>>>,
    gave_up: bool,
}

impl Miv<'_> {
    /// Extends `partial` over the levels `order` so the remaining terms
    /// sum to `target`.
    fn solve(&mut self, order: &[usize], target: i128) {
        if self.gave_up {
            return;
        }
        let Some((&k, rest)) = order.split_first() else {
            if target == 0 {
                if self.solutions.len() >= MAX_SOLUTIONS {
                    self.gave_up = true;
                    return;
                }
                let mut sol = vec![None; self.coefs.len()];
                for &(lvl, v) in &self.partial {
                    sol[lvl] = Some(v);
                }
                self.solutions.push(sol);
            }
            return;
        };
        let c = self.coefs[k];
        if rest.is_empty() {
            // Exact solve on the last live level: no bound needed.
            let d = target / c;
            if target % c == 0 && self.bounds[k].is_none_or(|b| d.abs() <= b) {
                self.choose(k, d, rest, 0);
            }
            return;
        }
        // The remaining levels can absorb at most `slack`; that bounds this
        // level's candidate window. This level and every remaining one need
        // a known trip count for the window to be finite.
        let slack: Option<i128> = (rest.iter())
            .map(|&j| self.bounds[j].map(|b| self.coefs[j].abs() * b))
            .sum();
        let (Some(slack), Some(b)) = (slack, self.bounds[k]) else {
            self.gave_up = true;
            return;
        };
        // `c*d` must land in `[target - slack, target + slack]`. Normalize
        // to a positive divisor so the euclidean roundings are exact.
        let (cc, tlo, thi) = if c > 0 {
            (c, target - slack, target + slack)
        } else {
            (-c, -(target + slack), -(target - slack))
        };
        let lo = (-(-tlo).div_euclid(cc)).max(-b);
        let hi = thi.div_euclid(cc).min(b);
        if hi - lo + 1 > MAX_CANDIDATES_PER_LEVEL {
            self.gave_up = true;
            return;
        }
        for d in lo..=hi {
            self.choose(k, d, rest, target - c * d);
        }
    }

    /// Tries `d` for level `k`, then solves the rest.
    fn choose(&mut self, k: usize, d: i128, rest: &[usize], target: i128) {
        self.partial.push((k, d));
        self.solve(rest, target);
        self.partial.pop();
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

fn level_info(levels: &[LoopNestLevel], idents: &IdentifierTable) -> Vec<LevelInfo> {
    levels
        .iter()
        .map(|LoopNestLevel { analysis: a, .. }| {
            let mag = a.step.eval_const_int();
            let step = mag.map(|m| match a.direction {
                LoopDirection::Up => m,
                LoopDirection::Down => -m,
            });
            let (walks, lb) = match start_of(&a.lb) {
                Some((v, off)) if a.iter_var.ty.is_pointer() => (Some(v), Some(off)),
                _ => (None, a.lb.eval_const_int()),
            };
            LevelInfo {
                iv: a.iter_var.id,
                iv_name: idents.get(a.iter_var.name).to_string(),
                step,
                lb,
                walks,
                max_iter: a.const_trip_count().map(|tc| i128::from(tc).max(1) - 1),
            }
        })
        .collect()
}

/// The pointer `e` as a variable and a constant element offset, looking
/// through the compiler's never-reassigned variables (`__range`).
fn start_of(e: &P<Expr>) -> Option<(P<VarDecl>, i128)> {
    match &e.ignore_wrappers().kind {
        ExprKind::DeclRef(v) => match &v.init {
            Some(init) if v.implicit => start_of(init),
            _ => Some((P::clone(v), 0)),
        },
        ExprKind::Binary(op @ (BinOp::Add | BinOp::Sub), l, r) if l.ty.is_pointer() => {
            let ((v, off), c) = (start_of(l)?, r.eval_const_int()?);
            Some((v, if *op == BinOp::Add { off + c } else { off - c }))
        }
        _ => None,
    }
}

/// Turns one solution vector into a normalized [`Dependence`], or `None`
/// for the self-pair same-iteration case.
fn make_dependence(
    (var, name): (DeclId, &str),
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
    // sink precedes the source in evaluation order.
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
        var,
        name: name.to_string(),
        kind,
        src: (src.text.clone(), src.loc),
        dst: (dst.text.clone(), dst.loc),
        directions,
        distances: dists,
        lexically_backward: dst.order <= src.order,
    })
}

impl DependenceGraph {
    /// Computes the dependence graph of a resolved literal nest. Vectors are
    /// expressed over all `levels` (outermost first); accesses that defeat
    /// the subscript tests are listed in [`DependenceGraph::limits`];
    /// `idents` spells the variables' names.
    pub fn compute(levels: &[LoopNestLevel], idents: &IdentifierTable) -> DependenceGraph {
        omplt_trace::count("analysis.depend.graphs", 1);
        let info = level_info(levels, idents);
        let col = DepCollector::collect(&info, idents, &LoopNestLevel::innermost_body(levels));

        let mut deps: Vec<Dependence> = Vec::new();
        let mut limits = col.limits(|id| col.writes(id));
        limits.extend(may_alias(&col, &col));
        let mut write_first = BTreeSet::new();
        for (&id, var) in &col.accesses {
            if col.is_private(id) || !col.writes(id) {
                continue;
            }
            let name = &var.name;
            // Scalar writes: the variable is live across iterations, which
            // carries a dependence at every level from its first write to
            // each other access (to itself when there is none). A pointer
            // the body declares is the iteration's own all the same.
            if let Some(w) = var.list.iter().find(|a| a.write && !a.array) {
                if col.locals.contains(&id) {
                    continue;
                }
                let first = var.list.iter().find(|a| !a.array).unwrap_or(w);
                if first.write && !first.conditional {
                    write_first.insert(id);
                }
                let others: Vec<&DepAccess> = (var.list.iter())
                    .filter(|a| !std::ptr::eq::<DepAccess>(*a, w))
                    .collect();
                for other in if others.is_empty() { vec![w] } else { others } {
                    deps.push(Dependence {
                        var: id,
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
                        lexically_backward: true,
                    });
                }
                continue;
            }
            for (i, x) in var.list.iter().enumerate() {
                for y in &var.list[i..] {
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
                                if let Some(d) = make_dependence((id, name), x, y, sol, same_access)
                                {
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
            write_first,
        }
    }
}

// ---------------------------------------------------------------------------
// The directive checks
// ---------------------------------------------------------------------------

/// The loops a single-nest directive's graph spans: the nest Sema resolved
/// for it and the levels below it (`OMPDirective::below`) — levels below
/// the directive's depth sharpen the direction vectors (they turn
/// `a[i*M + j]` from "not affine" into an exact MIV solve); empty when Sema
/// refused the nest.
fn graph_levels(d: &OMPDirective) -> Vec<LoopNestLevel> {
    d.nest.iter().chain(&d.below).cloned().collect()
}

/// The graph of a single-nest directive over its [`graph_levels`]; `None`
/// when Sema refused the nest.
fn nest_graph(d: &OMPDirective, idents: &IdentifierTable) -> Option<DependenceGraph> {
    let levels = graph_levels(d);
    (!levels.is_empty()).then(|| DependenceGraph::compute(&levels, idents))
}

/// The variables `d`'s clauses give each iteration its own copy of:
/// `private`, `firstprivate` and `reduction` entries.
fn clause_privates(d: &OMPDirective) -> BTreeSet<DeclId> {
    (d.clauses.iter())
        .filter(|c| {
            use OMPClauseKind::{FirstPrivate, Private, Reduction};
            matches!(c.kind, Reduction | Private | FirstPrivate)
        })
        .flat_map(|c| &c.args)
        .filter_map(|e| e.as_decl_ref().map(|v| v.id))
        .collect()
}

/// The lanes a dependence carried at `level` leaves: its distance
/// linearised over the levels from `level` to the innermost collapsed one,
/// whose constant trip counts are `trips`. `None` when a distance is
/// unconstrained or a needed trip count is symbolic.
fn linear_distance(dists: &[Option<i128>], trips: &[Option<u64>]) -> Option<u64> {
    let (mut sum, mut weight) = (0i128, Some(1i128));
    for (d, tc) in dists.iter().zip(trips).rev() {
        let d = (*d)?;
        if d != 0 {
            sum = sum.checked_add(d.checked_mul(weight?)?)?;
        }
        weight = weight
            .zip(*tc)
            .and_then(|(w, t)| w.checked_mul(i128::from(t)));
    }
    u64::try_from(sum).ok()
}

struct DependVisitor<'d> {
    diags: &'d DiagnosticsEngine,
    idents: &'d IdentifierTable,
}

impl StmtVisitor for DependVisitor<'_> {
    fn visit_stmt(&mut self, s: &P<Stmt>) {
        if let StmtKind::OMP(d) = &s.kind {
            let threaded = d.kind.is_parallel() && d.kind.is_worksharing();
            match d.kind {
                // Sema has already diagnosed a list that is not a permutation.
                OMPDirectiveKind::Interchange => {
                    if let Ok(perm) = d.permutation() {
                        let what = "interchanging the loops would reverse the";
                        self.check_order(d, true, what, |g| g.interchange_violation(&perm));
                    }
                }
                // A one-loop tile only strip-mines its loop. What the tests
                // cannot judge of a tile stays silent, as for `-Wrace`.
                OMPDirectiveKind::Tile if d.nest.len() >= 2 => {
                    let what = "tiling the loops would reverse the";
                    self.check_order(d, false, what, |g| g.tile_violation(d.nest.len()));
                }
                OMPDirectiveKind::Reverse => {
                    self.check_order(d, true, "the loop carries a", |g| g.carried_at(0));
                }
                OMPDirectiveKind::Fuse => self.check_fuse(d),
                k if k.has_simd() || threaded => {
                    let levels = graph_levels(d);
                    let graph = (!levels.is_empty())
                        .then(|| DependenceGraph::compute(&levels, self.idents));
                    if k.has_simd() {
                        d.simd_lanes.set(Some(self.simd_lanes(d, graph.as_ref())));
                    }
                    if let Some(graph) = graph.filter(|_| threaded) {
                        self.check_race(d, &levels, &graph);
                    }
                }
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

    fn limit_notes(limits: &[Limit]) -> Vec<Diagnostic> {
        limits
            .iter()
            .take(3)
            .map(|(name, why, loc)| Diagnostic::note(*loc, format!("'{name}': {why}")))
            .collect()
    }

    /// Reports `message` at the directive with the dependence's source and
    /// sink as notes.
    fn report_dependence(
        &self,
        level: Level,
        d: &P<OMPDirective>,
        message: String,
        dep: &Dependence,
    ) {
        let sub = |(text, _): &(String, SourceLocation)| -> String {
            if text.is_empty() {
                String::new()
            } else {
                format!("[{text}]")
            }
        };
        self.diags.report_with_notes(
            level,
            d.loc,
            message,
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

    fn violation(&self, d: &P<OMPDirective>, pragma: &str, why: String, dep: &Dependence) {
        omplt_trace::count("analysis.depend.illegal", 1);
        let message = format!("'{pragma}' is illegal here: {why}");
        self.report_dependence(Level::Error, d, message, dep);
    }

    /// `d`'s [`nest_graph`], after reporting what it cannot judge (a nest
    /// Sema refused, unmodeled accesses).
    fn judged<'g>(
        &self,
        d: &P<OMPDirective>,
        pragma: &str,
        graph: Option<&'g DependenceGraph>,
    ) -> Option<&'g DependenceGraph> {
        match graph {
            None => {
                self.analysis_limit(d.loc, pragma, "the loop nest is not analyzable", Vec::new())
            }
            Some(g) if !g.is_complete() => self.analysis_limit(
                d.loc,
                pragma,
                "some accesses are beyond the dependence tests",
                Self::limit_notes(&g.limits),
            ),
            Some(_) => {}
        }
        graph
    }

    /// Refuses `d` when `reordered` finds a dependence in its graph that the
    /// transformation runs sink before source; `what` says how, before "the
    /// <kind> dependence on '<name>' with direction vector <vector>". What
    /// the graph cannot judge is a warning when `judge` asks for one.
    fn check_order<F>(&mut self, d: &P<OMPDirective>, judge: bool, what: &str, reordered: F)
    where
        F: for<'g> Fn(&'g DependenceGraph) -> Option<&'g Dependence>,
    {
        let pragma = d.pragma_text();
        let graph = nest_graph(d, self.idents);
        let graph = if judge {
            self.judged(d, &pragma, graph.as_ref())
        } else {
            graph.as_ref()
        };
        if let Some(dep) = graph.and_then(reordered) {
            let (kind, name, vector) = (dep.kind, &dep.name, dep.direction_vector());
            let why =
                format!("{what} {kind} dependence on '{name}' with direction vector {vector}");
            self.violation(d, &pragma, why, dep);
        }
    }

    /// How many consecutive iterations of `d`'s loop may run as lock-step
    /// lanes (`u64::MAX`: unbounded). Below two — and below what `safelen`
    /// already allows — the loop runs scalar, and says why.
    fn simd_lanes(&self, d: &P<OMPDirective>, graph: Option<&DependenceGraph>) -> u64 {
        let pragma = d.pragma_text();
        // What the tests cannot judge has been reported; it runs scalar.
        let Some(graph) = self.judged(d, &pragma, graph).filter(|g| g.is_complete()) else {
            return 1;
        };
        let mut private = clause_privates(d);
        private.extend(&graph.write_first);
        let trips: Vec<Option<u64>> = (d.nest.iter())
            .map(|l| l.analysis.const_trip_count())
            .collect();
        let mut lanes = u64::MAX;
        let mut culprit = None;
        for dep in &graph.deps {
            let Some(level) = dep.carried_level().filter(|&l| l < trips.len()) else {
                continue;
            };
            // Lock-step lanes keep a lexically forward dependence's order.
            let forward = dep.directions[level] == Direction::Lt && !dep.lexically_backward;
            if forward || private.contains(&dep.var) {
                continue;
            }
            let distance = linear_distance(&dep.distances[level..trips.len()], &trips[level..]);
            let distance = distance.unwrap_or(1);
            if distance < lanes {
                (lanes, culprit) = (distance, Some(dep));
            }
        }
        let safelen = d.clause_value(OMPClauseKind::Safelen);
        if let Some(dep) = culprit.filter(|_| lanes < 2 && safelen.is_none_or(|s| s > lanes)) {
            let message = format!(
                "'{pragma}' is not applied: concurrent lanes would violate the loop-carried \
                 {} dependence on '{}' with distance vector {} [-Wpass-failed=transform-warning]",
                dep.kind,
                dep.name,
                dep.distance_vector()
            );
            self.report_dependence(Level::Warning, d, message, dep);
        }
        lanes
    }

    /// `-Wrace`: the threads of a `parallel` worksharing loop run different
    /// iterations of its workshared levels, so a variable its clauses do not
    /// privatise races when a dependence on it is carried by one of those
    /// levels. One warning per variable, at its write. `graph` spans
    /// `levels`, the workshared ones and those extended below them.
    fn check_race(&self, d: &P<OMPDirective>, levels: &[LoopNestLevel], graph: &DependenceGraph) {
        let pragma = d.pragma_text();
        let private = clause_privates(d);
        let workshared = d.nest.len();
        let mut groups: Vec<&[Dependence]> = graph.deps.chunk_by(|x, y| x.var == y.var).collect();
        // An extended loop whose counter is declared outside the directive:
        // the graph reads the counter as an iteration variable, but every
        // thread assigns the one shared object. The graph of the workshared
        // levels alone sees it as the written scalar it is.
        let counters: BTreeSet<DeclId> = (levels[workshared..].iter())
            .filter(|l| !l.analysis.declares_var && !private.contains(&l.analysis.iter_var.id))
            .map(|l| l.analysis.iter_var.id)
            .collect();
        let own = (!counters.is_empty())
            .then(|| DependenceGraph::compute(&levels[..workshared], self.idents));
        if let Some(own) = &own {
            let shared = own.deps.chunk_by(|x, y| x.var == y.var);
            groups.extend(shared.filter(|g| counters.contains(&g[0].var)));
            groups.sort_by_key(|g| g[0].var);
        }
        for deps in groups {
            let carried = |dep: &&Dependence| dep.carried_level().is_some_and(|l| l < workshared);
            let Some(dep) = deps.iter().find(carried) else {
                continue;
            };
            if private.contains(&dep.var) {
                continue;
            }
            let name = &dep.name;
            let (write, other, what) = match dep.kind {
                DepKind::Anti => (&dep.dst, &dep.src, "read"),
                DepKind::Flow => (&dep.src, &dep.dst, "read"),
                DepKind::Output => (&dep.src, &dep.dst, "written"),
            };
            let (message, notes) = if write.0.is_empty() {
                // A scalar: every iteration accesses the same object. Its
                // dependences run from the write to each other access (to
                // the write itself when there is none).
                let shared = format!(
                    "'{name}' is shared by all threads of '{pragma}'; \
                     consider a 'private({name})' or 'reduction(+: {name})' clause"
                );
                let notes = (deps.iter())
                    .filter(|o| o.kind != DepKind::Output || o.dst != o.src)
                    .map(|o| {
                        let what = match o.kind {
                            DepKind::Output => "also written",
                            _ => "read",
                        };
                        Diagnostic::note(o.dst.1, format!("'{name}' {what} here"))
                    })
                    .chain([Diagnostic::note(d.loc, shared)])
                    .collect();
                let message = format!(
                    "writing to shared variable '{name}' inside '{pragma}' is a data race [-Wrace]"
                );
                (message, notes)
            } else if write.0 == other.0 && dep.distances.iter().all(Option::is_none) {
                // One element, whatever the iteration.
                let note = format!("iterations of '{pragma}' execute concurrently");
                let message = format!(
                    "all iterations of '{pragma}' write '{name}[{}]' [-Wrace]",
                    write.0
                );
                (message, vec![Diagnostic::note(d.loc, note)])
            } else {
                let message = format!(
                    "loop-carried access to shared array '{name}' in '{pragma}': '{name}[{}]' is \
                     written while '{name}[{}]' is {what} by a different iteration [-Wrace]",
                    write.0, other.0,
                );
                let note = Diagnostic::note(other.1, format!("conflicting {what} here"));
                (message, vec![note])
            };
            self.diags
                .report_with_notes(Level::Warning, write.1, message, notes);
        }
    }

    fn check_fuse(&mut self, d: &P<OMPDirective>) {
        let pragma = d.pragma_text();
        // The members of the sequence, in source order. Sema has diagnosed
        // a sequence it could not resolve (or one of fewer than two loops).
        if d.nest.is_empty() {
            return;
        }
        // Collect each loop's accesses in its own logical space.
        let loops = d.nest.chunks(1);
        let infos: Vec<Vec<LevelInfo>> =
            loops.clone().map(|l| level_info(l, self.idents)).collect();
        let collected: Vec<DepCollector<'_>> = (loops.zip(&infos))
            .map(|(l, info)| {
                DepCollector::collect(info, self.idents, &LoopNestLevel::innermost_body(l))
            })
            .collect();
        omplt_trace::count("analysis.depend.graphs", 1);
        // A variable any member writes is judged in all of them.
        let written = |id: DeclId| collected.iter().any(|c| c.writes(id));
        let mut limits: Vec<Limit> = collected.iter().flat_map(|c| c.limits(written)).collect();
        for (p, first) in collected.iter().enumerate() {
            for second in &collected[p + 1..] {
                limits.extend(may_alias(first, second));
                limits.extend(may_alias(second, first));
            }
        }
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
                match Self::fuse_pair(&collected[p], &collected[q]) {
                    Some(Ok(dep)) => self.violation(
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
                    ),
                    Some(Err(why)) => self.analysis_limit(d.loc, &pragma, &why, Vec::new()),
                    None => continue,
                }
                return;
            }
        }
    }

    /// Tests every same-variable access pair across two fused loops: a
    /// proven violation, or why a pair defeats the tests.
    fn fuse_pair(
        first: &DepCollector<'_>,
        second: &DepCollector<'_>,
    ) -> Option<Result<Dependence, String>> {
        for (&id, VarAccesses { name, list: xs, .. }) in &first.accesses {
            let Some(VarAccesses { list: ys, .. }) = second.accesses.get(&id) else {
                continue;
            };
            if first.is_private(id) || second.is_private(id) {
                continue;
            }
            // Source `x` in the first loop, sink `y` `distance` iterations of
            // the second loop later.
            let dependence = |x: &DepAccess, y: &DepAccess, kind, distance: Option<i128>| {
                Some(Ok(Dependence {
                    var: id,
                    name: name.clone(),
                    kind,
                    src: (x.text.clone(), x.loc),
                    dst: (y.text.clone(), y.loc),
                    directions: vec![distance.map_or(Direction::Any, |_| Direction::Gt)],
                    distances: vec![distance],
                    lexically_backward: false,
                }))
            };
            for x in xs {
                for y in ys {
                    let kind = match (x.write, y.write) {
                        (true, true) => DepKind::Output,
                        (true, false) => DepKind::Flow,
                        (false, true) => DepKind::Anti,
                        (false, false) => continue,
                    };
                    if (x.array && x.sub.is_none()) || (y.array && y.sub.is_none()) {
                        continue; // unmodeled subscript — already in `limits`
                    }
                    // Scalar touched in both loops with a write involved:
                    // every iteration pair is related — fusion reorders it.
                    let (Some(sx), Some(sy)) = (&x.sub, &y.sub) else {
                        return dependence(x, y, kind, None);
                    };
                    // Different iteration spaces: everything must fold to
                    // constants. `cx*K1 + ox == cy*K2 + oy`.
                    let (Some(cx), Some(cy), Some(ox), Some(oy)) =
                        (&sx.coefs, &sy.coefs, sx.off, sy.off)
                    else {
                        let why =
                            format!("the bounds of the loops accessing '{name}' are not constant");
                        return Some(Err(why));
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
                        return dependence(x, y, kind, None);
                    }
                    if a == b {
                        // Strong SIV across the loops: K2 - K1 == (ox-oy)/a.
                        if d % a == 0 && d / a < 0 {
                            return dependence(x, y, kind, Some(d / a));
                        }
                        continue;
                    }
                    if gcd(a, b) != 0 && d % gcd(a, b) != 0 {
                        continue; // no integer solution at all
                    }
                    return Some(Err(format!(
                        "cannot relate subscripts '{}' and '{}' of '{name}' across the fused \
                         loops",
                        x.text, y.text
                    )));
                }
            }
        }
        None
    }
}
