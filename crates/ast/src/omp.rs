//! OpenMP AST nodes: the directive/clause catalog (one const table row per
//! directive and per clause — every other layer reads the rows), directives,
//! clauses, the classic `OMPLoopDirective` shadow helper bundle, and the
//! `OMPCanonicalLoop` meta node — the two representations the paper
//! contrasts.

use crate::canonical_loop::LoopNestLevel;
use crate::decl::VarDecl;
use crate::expr::Expr;
use crate::stmt::{CapturedStmt, Stmt};
use crate::P;
use omplt_source::SourceLocation;
use std::cell::Cell;

/// Directive kinds (the class-hierarchy leaves of the paper's Fig. 3/5) —
/// the row index into the directive table.
///
/// The is-a relations of Clang's hierarchy are encoded by the predicate
/// methods: every kind is an `OMPExecutableDirective`;
/// [`OMPDirectiveKind::is_loop_based`] corresponds to deriving from the new
/// `OMPLoopBasedDirective` base class; [`OMPDirectiveKind::is_loop_directive`]
/// to the classic `OMPLoopDirective` (which carries the shadow helper
/// bundle); and [`OMPDirectiveKind::is_loop_transformation`] marks the
/// loop transformation directives.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum OMPDirectiveKind {
    /// `#pragma omp parallel`.
    Parallel,
    /// `#pragma omp for`.
    For,
    /// `#pragma omp parallel for` (combined).
    ParallelFor,
    /// `#pragma omp simd`.
    Simd,
    /// `#pragma omp for simd` (composite: workshare chunks, widen lanes).
    ForSimd,
    /// `#pragma omp parallel for simd` (combined + composite).
    ParallelForSimd,
    /// `#pragma omp taskloop`.
    Taskloop,
    /// `#pragma omp unroll` (loop transformation, OpenMP 5.1).
    Unroll,
    /// `#pragma omp tile` (loop transformation, OpenMP 5.1).
    Tile,
    /// `#pragma omp interchange` (loop transformation, OpenMP 6.0
    /// candidate; Kruse & Finkel's loop-transformation proposal).
    Interchange,
    /// `#pragma omp reverse` (loop transformation, OpenMP 6.0 candidate).
    Reverse,
    /// `#pragma omp fuse` (loop transformation, OpenMP 6.0 candidate).
    Fuse,
}

/// Clause kinds (paper Fig. 4: `OMPFullClause`, `OMPPartialClause`,
/// `OMPSizesClause` join the existing clause hierarchy) — the row index into
/// the clause table.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum OMPClauseKind {
    /// `schedule(kind[, chunk])`.
    Schedule,
    /// `collapse(n)`.
    Collapse,
    /// `num_threads(n)`.
    NumThreads,
    /// `full` (unroll completely).
    Full,
    /// `partial` / `partial(factor)`.
    Partial,
    /// `sizes(s1, s2, …)`.
    Sizes,
    /// `private(vars)`.
    Private,
    /// `firstprivate(vars)`.
    FirstPrivate,
    /// `shared(vars)`.
    Shared,
    /// `reduction(op: vars)`.
    Reduction,
    /// `nowait`.
    Nowait,
    /// `grainsize(n)` for `taskloop`.
    Grainsize,
    /// `permutation(p1, p2, …)` for `interchange` (1-based loop levels).
    Permutation,
    /// `safelen(n)` — no two iterations more than `n-1` apart may run
    /// concurrently as SIMD lanes.
    Safelen,
    /// `simdlen(n)` — the preferred SIMD width.
    Simdlen,
}

/// How many loops a directive associates with (see
/// [`OMPDirective::associated_loops`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LoopAssociation {
    /// Not loop-based (`parallel`).
    None,
    /// Exactly one loop.
    One,
    /// `collapse(n)` loops, one without the clause.
    Collapse,
    /// One loop per `sizes` argument.
    Sizes,
    /// One loop per `permutation` argument, two without the clause.
    Permutation,
    /// A sequence of sibling loops, each associated on its own (`fuse`).
    Sequence,
}

/// The argument grammar of a clause — the parser has one routine per shape.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArgShape {
    /// Bare clause (`full`, `nowait`).
    None,
    /// `name` or `name(expr)`.
    OptExpr,
    /// `name(expr)`.
    Expr,
    /// `name(expr, …)`.
    ExprList,
    /// `name(var, …)`.
    VarList,
    /// `schedule(kind[, chunk])`.
    Schedule,
    /// `reduction(op: var, …)`.
    Reduction,
}

/// One directive of the catalog.
struct DirectiveRow {
    kind: OMPDirectiveKind,
    /// Word sequence as written after `#pragma omp`.
    name: &'static str,
    /// Clang AST class name.
    class_name: &'static str,
    /// `LOOP | SIMD | PARALLEL | WORKSHARE | TRANSFORM` bits.
    flags: u8,
    loops: LoopAssociation,
    /// The clauses the directive accepts.
    clauses: &'static [OMPClauseKind],
}

/// One clause of the catalog.
struct ClauseRow {
    kind: OMPClauseKind,
    name: &'static str,
    class_name: &'static str,
    shape: ArgShape,
    /// `CONST | POSITIVE | ONCE` bits.
    flags: u8,
}

/// Is-a classic `OMPLoopDirective` (carries the shadow helper bundle).
const LOOP: u8 = 1;
/// Carries the `simd` construct.
const SIMD: u8 = 2;
/// Forks a thread team.
const PARALLEL: u8 = 4;
/// Workshares iterations across a team.
const WORKSHARE: u8 = 8;
/// A loop transformation (shadow AST, no `CapturedStmt`).
const TRANSFORM: u8 = 16;

/// Arguments are wrapped in a Sema-evaluated `ConstantExpr`.
const CONST: u8 = 1;
/// Arguments must be positive integer constants.
const POSITIVE: u8 = 2;
/// The clause may appear at most once on a directive.
const ONCE: u8 = 4;

use ArgShape as A;
use LoopAssociation as L;
use OMPClauseKind as C;
use OMPDirectiveKind as D;

/// The directive catalog, indexed by `OMPDirectiveKind as usize`. Adding a
/// directive is one row here plus its `transform_*` and its two lowerings.
#[rustfmt::skip]
static DIRECTIVES: [DirectiveRow; 12] = [
    DirectiveRow { kind: D::Parallel, name: "parallel", class_name: "OMPParallelDirective", flags: PARALLEL, loops: L::None,
        clauses: &[C::NumThreads, C::Private, C::FirstPrivate, C::Shared, C::Reduction] },
    DirectiveRow { kind: D::For, name: "for", class_name: "OMPForDirective", flags: LOOP | WORKSHARE, loops: L::Collapse,
        clauses: &[C::Schedule, C::Collapse, C::Nowait, C::Private, C::FirstPrivate, C::Shared, C::Reduction] },
    DirectiveRow { kind: D::ParallelFor, name: "parallel for", class_name: "OMPParallelForDirective", flags: LOOP | PARALLEL | WORKSHARE, loops: L::Collapse,
        clauses: &[C::Schedule, C::Collapse, C::NumThreads, C::Nowait, C::Private, C::FirstPrivate, C::Shared, C::Reduction] },
    DirectiveRow { kind: D::Simd, name: "simd", class_name: "OMPSimdDirective", flags: LOOP | SIMD, loops: L::Collapse,
        clauses: &[C::Collapse, C::Safelen, C::Simdlen, C::Private, C::FirstPrivate, C::Shared, C::Reduction] },
    DirectiveRow { kind: D::ForSimd, name: "for simd", class_name: "OMPForSimdDirective", flags: LOOP | SIMD | WORKSHARE, loops: L::Collapse,
        clauses: &[C::Schedule, C::Collapse, C::Nowait, C::Safelen, C::Simdlen, C::Private, C::FirstPrivate, C::Shared, C::Reduction] },
    DirectiveRow { kind: D::ParallelForSimd, name: "parallel for simd", class_name: "OMPParallelForSimdDirective", flags: LOOP | SIMD | PARALLEL | WORKSHARE, loops: L::Collapse,
        clauses: &[C::Schedule, C::Collapse, C::NumThreads, C::Nowait, C::Safelen, C::Simdlen, C::Private, C::FirstPrivate, C::Shared, C::Reduction] },
    DirectiveRow { kind: D::Taskloop, name: "taskloop", class_name: "OMPTaskLoopDirective", flags: LOOP, loops: L::Collapse,
        clauses: &[C::Collapse, C::Grainsize, C::Private, C::FirstPrivate, C::Shared, C::Reduction] },
    DirectiveRow { kind: D::Unroll, name: "unroll", class_name: "OMPUnrollDirective", flags: TRANSFORM, loops: L::One,
        clauses: &[C::Full, C::Partial] },
    DirectiveRow { kind: D::Tile, name: "tile", class_name: "OMPTileDirective", flags: TRANSFORM, loops: L::Sizes,
        clauses: &[C::Sizes] },
    DirectiveRow { kind: D::Interchange, name: "interchange", class_name: "OMPInterchangeDirective", flags: TRANSFORM, loops: L::Permutation,
        clauses: &[C::Permutation] },
    DirectiveRow { kind: D::Reverse, name: "reverse", class_name: "OMPReverseDirective", flags: TRANSFORM, loops: L::One,
        clauses: &[] },
    DirectiveRow { kind: D::Fuse, name: "fuse", class_name: "OMPFuseDirective", flags: TRANSFORM, loops: L::Sequence,
        clauses: &[] },
];

/// The clause catalog, indexed by `OMPClauseKind as usize`.
#[rustfmt::skip]
static CLAUSES: [ClauseRow; 15] = [
    ClauseRow { kind: C::Schedule,     name: "schedule",     class_name: "OMPScheduleClause",     shape: A::Schedule,  flags: ONCE },
    ClauseRow { kind: C::Collapse,     name: "collapse",     class_name: "OMPCollapseClause",     shape: A::Expr,      flags: CONST | POSITIVE | ONCE },
    ClauseRow { kind: C::NumThreads,   name: "num_threads",  class_name: "OMPNumThreadsClause",   shape: A::Expr,      flags: ONCE },
    ClauseRow { kind: C::Full,         name: "full",         class_name: "OMPFullClause",         shape: A::None,      flags: ONCE },
    ClauseRow { kind: C::Partial,      name: "partial",      class_name: "OMPPartialClause",      shape: A::OptExpr,   flags: CONST | POSITIVE | ONCE },
    ClauseRow { kind: C::Sizes,        name: "sizes",        class_name: "OMPSizesClause",        shape: A::ExprList,  flags: CONST | POSITIVE | ONCE },
    ClauseRow { kind: C::Private,      name: "private",      class_name: "OMPPrivateClause",      shape: A::VarList,   flags: 0 },
    ClauseRow { kind: C::FirstPrivate, name: "firstprivate", class_name: "OMPFirstprivateClause", shape: A::VarList,   flags: 0 },
    ClauseRow { kind: C::Shared,       name: "shared",       class_name: "OMPSharedClause",       shape: A::VarList,   flags: 0 },
    ClauseRow { kind: C::Reduction,    name: "reduction",    class_name: "OMPReductionClause",    shape: A::Reduction, flags: 0 },
    ClauseRow { kind: C::Nowait,       name: "nowait",       class_name: "OMPNowaitClause",       shape: A::None,      flags: ONCE },
    ClauseRow { kind: C::Grainsize,    name: "grainsize",    class_name: "OMPGrainsizeClause",    shape: A::Expr,      flags: CONST | ONCE },
    ClauseRow { kind: C::Permutation,  name: "permutation",  class_name: "OMPPermutationClause",  shape: A::ExprList,  flags: CONST | POSITIVE | ONCE },
    ClauseRow { kind: C::Safelen,      name: "safelen",      class_name: "OMPSafelenClause",      shape: A::Expr,      flags: CONST | POSITIVE | ONCE },
    ClauseRow { kind: C::Simdlen,      name: "simdlen",      class_name: "OMPSimdlenClause",      shape: A::Expr,      flags: CONST | POSITIVE | ONCE },
];

impl OMPDirectiveKind {
    fn row(self) -> &'static DirectiveRow {
        &DIRECTIVES[self as usize]
    }

    /// Every directive of the catalog, in table order.
    pub fn all() -> impl Iterator<Item = OMPDirectiveKind> {
        DIRECTIVES.iter().map(|r| r.kind)
    }

    /// The directive whose word sequence is the longest prefix of `words`
    /// (`["parallel", "for", "schedule"]` → `parallel for`), with the
    /// number of words it spans.
    pub fn match_words(words: &[&str]) -> Option<(OMPDirectiveKind, usize)> {
        let spans = DIRECTIVES.iter().filter_map(|r| {
            let n = r.name.split(' ').count();
            let matches = n <= words.len() && r.name.split(' ').eq(words[..n].iter().copied());
            matches.then_some((r.kind, n))
        });
        spans.max_by_key(|&(_, n)| n)
    }

    /// The directive spelled exactly `name` (`"parallel for"`).
    pub fn from_name(name: &str) -> Option<OMPDirectiveKind> {
        DIRECTIVES.iter().find(|r| r.name == name).map(|r| r.kind)
    }

    /// Directive name as written in source.
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// Clang AST class name.
    pub fn class_name(self) -> &'static str {
        self.row().class_name
    }

    /// Whether `clause` may appear on this directive.
    pub fn accepts(self, clause: OMPClauseKind) -> bool {
        self.row().clauses.contains(&clause)
    }

    /// How the directive's associated loop count is determined.
    pub fn loop_association(self) -> LoopAssociation {
        self.row().loops
    }

    /// Is-a `OMPLoopBasedDirective` (associates with a canonical loop nest).
    pub fn is_loop_based(self) -> bool {
        self.row().loops != LoopAssociation::None
    }

    /// Is-a classic `OMPLoopDirective` (worksharing/simd/taskloop family,
    /// carries the full shadow helper bundle in classic mode).
    pub fn is_loop_directive(self) -> bool {
        self.row().flags & LOOP != 0
    }

    /// Whether the directive carries the `simd` construct (alone or as part
    /// of a composite): its loop is marked `llvm.loop.vectorize.enable` and
    /// accepts `safelen`/`simdlen` clauses.
    pub fn has_simd(self) -> bool {
        self.row().flags & SIMD != 0
    }

    /// One of the loop transformation directives (`unroll`/`tile` from
    /// OpenMP 5.1, `interchange`/`reverse`/`fuse` from the 6.0 candidate
    /// set).
    pub fn is_loop_transformation(self) -> bool {
        self.row().flags & TRANSFORM != 0
    }

    /// Whether the associated region is outlined into a `CapturedStmt`.
    /// Loop transformations must *not* capture (paper §2.1: "it is
    /// imperative to not wrap the code in a CapturedStmt").
    pub fn captures_associated(self) -> bool {
        !self.is_loop_transformation()
    }

    /// Whether the directive forks a thread team.
    pub fn is_parallel(self) -> bool {
        self.row().flags & PARALLEL != 0
    }

    /// Whether the directive workshares iterations across a team.
    pub fn is_worksharing(self) -> bool {
        self.row().flags & WORKSHARE != 0
    }
}

impl OMPClauseKind {
    fn row(self) -> &'static ClauseRow {
        &CLAUSES[self as usize]
    }

    /// Every clause of the catalog, in table order.
    pub fn all() -> impl Iterator<Item = OMPClauseKind> {
        CLAUSES.iter().map(|r| r.kind)
    }

    /// The clause spelled `name`.
    pub fn from_name(name: &str) -> Option<OMPClauseKind> {
        CLAUSES.iter().find(|r| r.name == name).map(|r| r.kind)
    }

    /// Clause name as written in source.
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// Clang AST class name.
    pub fn class_name(self) -> &'static str {
        self.row().class_name
    }

    /// The clause's argument grammar.
    pub fn shape(self) -> ArgShape {
        self.row().shape
    }

    /// Whether arguments are wrapped in a Sema-evaluated `ConstantExpr`.
    pub fn is_constant(self) -> bool {
        self.row().flags & CONST != 0
    }

    /// Whether every argument must be a positive integer constant.
    pub fn must_be_positive(self) -> bool {
        self.row().flags & POSITIVE != 0
    }

    /// Whether a directive may carry the clause at most once.
    pub fn at_most_once(self) -> bool {
        self.row().flags & ONCE != 0
    }
}

/// `schedule(...)` kinds (only `static` is lowered; others parse and are
/// diagnosed as unsupported).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum ScheduleKind {
    Static,
    Dynamic,
    Guided,
    Auto,
    Runtime,
}

impl ScheduleKind {
    /// Source spelling.
    pub fn name(self) -> &'static str {
        match self {
            ScheduleKind::Static => "static",
            ScheduleKind::Dynamic => "dynamic",
            ScheduleKind::Guided => "guided",
            ScheduleKind::Auto => "auto",
            ScheduleKind::Runtime => "runtime",
        }
    }

    /// The kind spelled `name`.
    pub fn from_name(name: &str) -> Option<ScheduleKind> {
        use ScheduleKind::*;
        [Static, Dynamic, Guided, Auto, Runtime]
            .into_iter()
            .find(|k| k.name() == name)
    }
}

/// Reduction operators supported in `reduction(op: vars)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum ReductionOp {
    Add,
    Mul,
    Min,
    Max,
}

impl ReductionOp {
    /// Source spelling.
    pub fn name(self) -> &'static str {
        match self {
            ReductionOp::Add => "+",
            ReductionOp::Mul => "*",
            ReductionOp::Min => "min",
            ReductionOp::Max => "max",
        }
    }

    /// The operator spelled `name`.
    pub fn from_name(name: &str) -> Option<ReductionOp> {
        use ReductionOp::*;
        [Add, Mul, Min, Max].into_iter().find(|o| o.name() == name)
    }
}

/// The non-expression part of a clause's arguments.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ClauseModifier {
    /// Nothing but expressions.
    None,
    /// The policy of a `schedule` clause.
    Schedule(ScheduleKind),
    /// The combiner of a `reduction` clause.
    Reduction(ReductionOp),
}

/// A clause node.
#[derive(Clone, Debug)]
pub struct OMPClause {
    /// Which clause this is.
    pub kind: OMPClauseKind,
    /// Schedule policy or reduction combiner, for those two clauses.
    pub modifier: ClauseModifier,
    /// Argument expressions in source order: the chunk of `schedule`, the
    /// variable references of a variable list, nothing for a bare clause.
    pub args: Vec<P<Expr>>,
    /// Source position of the clause name.
    pub loc: SourceLocation,
}

impl OMPClause {
    /// A clause without a modifier, wrapped into a counted pointer.
    pub fn new(kind: OMPClauseKind, args: Vec<P<Expr>>, loc: SourceLocation) -> P<OMPClause> {
        P::new(OMPClause {
            kind,
            modifier: ClauseModifier::None,
            args,
            loc,
        })
    }

    /// Every argument as a positive integer constant; `None` if one is not.
    pub fn positive_values(&self) -> Option<Vec<u64>> {
        self.args
            .iter()
            .map(|e| u64::try_from(e.eval_const_int()?).ok().filter(|&v| v > 0))
            .collect()
    }
}

/// Per-associated-loop helper nodes of the classic `OMPLoopDirective`
/// representation — the paper counts "6 for each loop in the associated
/// loop nest".
#[derive(Debug)]
pub struct PerLoopHelpers {
    /// The loop's own counter variable.
    pub counter: P<VarDecl>,
    /// The privatized copy used inside the region.
    pub private_counter: P<VarDecl>,
    /// Counter initialization expression (counter = lb).
    pub init: P<Expr>,
    /// Counter update from the logical iteration number.
    pub update: P<Expr>,
    /// Value of the counter after the loop ("final").
    pub final_value: P<Expr>,
    /// The loop's step as an expression.
    pub step: P<Expr>,
}

impl PerLoopHelpers {
    /// Number of shadow nodes this bundle contributes (for the paper's
    /// 30 + 6·loops count).
    pub const NODE_COUNT: usize = 6;
}

/// The loop-nest-wide helper nodes of the classic `OMPLoopDirective`
/// representation — "up to 30 shadow AST statements for representing a loop
/// nest" (paper §1.2). Every field is code-generation material produced in
/// Sema and hidden from `children()`.
#[derive(Debug)]
pub struct LoopDirectiveHelpers {
    /// The normalized logical iteration variable (`.omp.iv`).
    pub iteration_variable: P<VarDecl>,
    /// Total number of logical iterations (the distance).
    pub num_iterations: P<Expr>,
    /// `num_iterations - 1`.
    pub last_iteration: P<Expr>,
    /// Expression recomputing `last_iteration` (Clang: `CalcLastIteration`).
    pub calc_last_iteration: P<Expr>,
    /// `0 < num_iterations` — guards the whole construct.
    pub precondition: P<Expr>,
    /// `iv = 0`.
    pub init: P<Expr>,
    /// `iv < num_iterations`.
    pub cond: P<Expr>,
    /// `iv = iv + 1`.
    pub inc: P<Expr>,
    /// Worksharing lower bound variable (`.omp.lb`).
    pub lower_bound: P<VarDecl>,
    /// Worksharing upper bound variable (`.omp.ub`).
    pub upper_bound: P<VarDecl>,
    /// Worksharing stride variable (`.omp.stride`).
    pub stride: P<VarDecl>,
    /// Is-last-iteration flag variable (`.omp.is_last`).
    pub is_last_iter_variable: P<VarDecl>,
    /// `iv = lb` for the worksharing inner loop.
    pub workshare_init: P<Expr>,
    /// `iv <= ub` for the worksharing inner loop (Clang: `Cond` with bounds).
    pub workshare_cond: P<Expr>,
    /// `ub = min(ub, last_iteration)` (Clang: `EnsureUpperBound`).
    pub ensure_upper_bound: P<Expr>,
    /// `lb += stride` (Clang: `NextLowerBound`).
    pub next_lower_bound: P<Expr>,
    /// `ub += stride` (Clang: `NextUpperBound`).
    pub next_upper_bound: P<Expr>,
    /// Per-loop helper bundles (6 nodes per associated loop).
    pub loops: Vec<PerLoopHelpers>,
    /// Captured trip-count variables (`.capture_expr.`), declared before the
    /// construct; the other helper expressions read them.
    pub capture_decls: Vec<P<VarDecl>>,
}

impl LoopDirectiveHelpers {
    /// Number of nest-wide shadow nodes (17 here; the paper says "up to 30"
    /// — the remainder are distribute/doacross-only helpers we do not model,
    /// see DESIGN.md §7).
    pub const NEST_NODE_COUNT: usize = 17;

    /// Total number of shadow nodes held by this bundle.
    pub fn node_count(&self) -> usize {
        Self::NEST_NODE_COUNT + self.loops.len() * PerLoopHelpers::NODE_COUNT
    }
}

/// An OpenMP executable directive (`OMPExecutableDirective` and all of its
/// subclasses, discriminated by [`OMPDirectiveKind`]).
#[derive(Debug)]
pub struct OMPDirective {
    /// Which directive this is.
    pub kind: OMPDirectiveKind,
    /// Clauses in source order.
    pub clauses: Vec<P<OMPClause>>,
    /// The associated statement: a `CapturedStmt` for outlining directives,
    /// the bare loop (or nested directive) for loop transformations, or
    /// `None` for stand-alone directives.
    pub associated: Option<P<Stmt>>,
    /// Classic-mode shadow helper bundle (only for `is_loop_directive()`
    /// kinds in classic codegen mode). **Not** part of `children()`.
    pub loop_helpers: Option<P<LoopDirectiveHelpers>>,
    /// The transformed loop nest — the shadow AST of `tile`/`unroll`
    /// directives (paper §2). `None` when no generated loop exists (e.g.
    /// `unroll full`, or when CodeGen lowers directly). **Not** part of
    /// `children()` and invisible to the default AST dump.
    pub transformed: Option<P<Stmt>>,
    /// The associated loops as Sema resolved and analysed them — outermost
    /// first, the members of a loop sequence (`fuse`) in source order;
    /// empty when the nest was refused (or the directive has none). The
    /// helper bundle and the shadow AST are built from it, and CodeGen and
    /// the legality gate read it instead of resolving the nest again.
    /// **Not** part of `children()` and not dumped.
    pub nest: Vec<LoopNestLevel>,
    /// The loops below the directive's own depth, as the walk that
    /// collected `nest` resolved them: up to four levels in all, stopping
    /// silently at the first one the level rule refuses. The dependence
    /// gate's graphs span `nest` and these. **Not** part of `children()`.
    pub below: Vec<LoopNestLevel>,
    /// The loops of [`OMPDirective::transformed`] a consuming directive may
    /// take, outermost first, as level records (`unroll partial`'s outer
    /// loop, `tile`'s floor loops, `interchange`'s permuted loops, the loop
    /// of `reverse` and of `fuse`). **Not** part of `children()`.
    pub generated: Vec<LoopNestLevel>,
    /// How many consecutive iterations of a `simd`-bearing directive's loop
    /// may run as lock-step lanes, as the legality gate proved it
    /// (`u64::MAX`: no dependence bounds them). `None` until the gate has
    /// judged the directive; CodeGen emits an unjudged loop scalar.
    /// **Not** part of `children()` and not dumped.
    pub simd_lanes: Cell<Option<u64>>,
    /// Source position of the `#pragma`.
    pub loc: SourceLocation,
}

/// Why a `permutation` clause does not decode
/// (see [`OMPDirective::permutation`]).
#[derive(Debug)]
pub enum BadPermutation<'a> {
    /// An argument is not a positive integer constant.
    NotConstant,
    /// Fewer than two loops are named.
    TooShort,
    /// This argument is out of range or repeats an earlier one.
    NotAPermutation(&'a P<Expr>),
}

impl OMPDirective {
    /// Creates a directive node.
    pub fn new(
        kind: OMPDirectiveKind,
        clauses: Vec<P<OMPClause>>,
        associated: Option<P<Stmt>>,
        loc: SourceLocation,
    ) -> OMPDirective {
        OMPDirective {
            kind,
            clauses,
            associated,
            loop_helpers: None,
            transformed: None,
            nest: Vec::new(),
            below: Vec::new(),
            generated: Vec::new(),
            simd_lanes: Cell::new(None),
            loc,
        }
    }

    /// The semantically equivalent statement classic CodeGen emits in the
    /// directive's place — `getTransformedStmt()` of the shadow-AST design
    /// (a consuming directive takes [`OMPDirective::generated`] instead).
    /// Returns `None` if this directive does not stand for a generated loop
    /// (not a transformation, or fully unrolled).
    pub fn get_transformed_stmt(&self) -> Option<&P<Stmt>> {
        self.transformed.as_ref()
    }

    /// The first clause of `kind` (a repeated at-most-once clause is a Sema
    /// error; the first occurrence is the one every layer reads).
    pub fn clause(&self, kind: OMPClauseKind) -> Option<&P<OMPClause>> {
        self.clauses.iter().find(|c| c.kind == kind)
    }

    /// The value of a single-argument clause (`collapse`, `safelen`,
    /// `simdlen`, …), if present and a positive integer constant.
    pub fn clause_value(&self, kind: OMPClauseKind) -> Option<u64> {
        self.clause(kind)?.positive_values()?.first().copied()
    }

    /// How many loops the directive associates with, as its table row says:
    /// `collapse(n)`, the length of `sizes` / `permutation`, or a fixed
    /// count. A loop sequence (`fuse`) associates each member on its own,
    /// one loop deep. Non-positive `collapse` values count as 1: Sema
    /// diagnoses them, and every consumer needs at least one level.
    pub fn associated_loops(&self) -> usize {
        let len_of = |kind| self.clause(kind).map(|c| c.args.len());
        match self.kind.loop_association() {
            LoopAssociation::None => 0,
            LoopAssociation::One | LoopAssociation::Sequence => 1,
            LoopAssociation::Collapse => self
                .clause_value(OMPClauseKind::Collapse)
                .map_or(1, |v| usize::try_from(v).unwrap_or(1)),
            LoopAssociation::Sizes => len_of(OMPClauseKind::Sizes).unwrap_or(0),
            LoopAssociation::Permutation => len_of(OMPClauseKind::Permutation).unwrap_or(2),
        }
    }

    /// The `unroll partial` factor: `None` without a `partial` clause; a
    /// bare (or malformed) `partial` means two — "the current
    /// implementation uses the unroll factor of two" (paper §2.2).
    pub fn partial_factor(&self) -> Option<u64> {
        let c = self.clause(OMPClauseKind::Partial)?;
        let factor = c.positive_values().and_then(|v| v.first().copied());
        Some(factor.unwrap_or(2))
    }

    /// The decoded `sizes` clause: `None` when absent or when an argument
    /// is not a positive integer constant.
    pub fn sizes(&self) -> Option<Vec<u64>> {
        self.clause(OMPClauseKind::Sizes)?.positive_values()
    }

    /// The decoded `permutation` clause, 0-based: position `k` of the
    /// generated nest runs original level `perm[k]`. Without the clause the
    /// two outermost loops swap (OpenMP 6.0 §7.6).
    pub fn permutation(&self) -> Result<Vec<usize>, BadPermutation<'_>> {
        let Some(c) = self.clause(OMPClauseKind::Permutation) else {
            return Ok(vec![1, 0]);
        };
        let vals = c.positive_values().ok_or(BadPermutation::NotConstant)?;
        let n = vals.len();
        if n < 2 {
            return Err(BadPermutation::TooShort);
        }
        let mut seen = vec![false; n];
        for (e, &v) in c.args.iter().zip(&vals) {
            if v > n as u64 || std::mem::replace(&mut seen[v as usize - 1], true) {
                return Err(BadPermutation::NotAPermutation(e));
            }
        }
        Ok(vals.iter().map(|&v| v as usize - 1).collect())
    }

    /// The `schedule` clause as (policy, chunk); `static` without one.
    pub fn schedule(&self) -> (ScheduleKind, Option<&P<Expr>>) {
        match self.clause(OMPClauseKind::Schedule) {
            Some(c) => match c.modifier {
                ClauseModifier::Schedule(kind) => (kind, c.args.first()),
                _ => (ScheduleKind::Static, None),
            },
            None => (ScheduleKind::Static, None),
        }
    }

    /// A source-like rendering of the pragma line, used for the
    /// "in loop generated by '…'" diagnostics breadcrumb. Variable lists
    /// are abbreviated to the clause name.
    pub fn pragma_text(&self) -> String {
        let mut s = format!("#pragma omp {}", self.kind.name());
        for c in &self.clauses {
            s.push(' ');
            s.push_str(c.kind.name());
            if matches!(c.kind.shape(), ArgShape::VarList | ArgShape::Reduction) {
                continue;
            }
            let mut parts = Vec::new();
            if let ClauseModifier::Schedule(kind) = c.modifier {
                parts.push(kind.name().to_string());
            }
            parts.extend(c.args.iter().map(|e| {
                e.eval_const_int()
                    .map_or("...".to_string(), |v| v.to_string())
            }));
            if !parts.is_empty() {
                s.push_str(&format!("({})", parts.join(", ")));
            }
        }
        s
    }
}

/// The `OMPCanonicalLoop` meta node (paper §3.1): wraps a literal loop and
/// carries the *minimal* meta-information resolved at the Sema layer —
/// reduced from the ~36 shadow nodes of [`LoopDirectiveHelpers`] to exactly
/// three items.
#[derive(Debug)]
pub struct OMPCanonicalLoop {
    /// The wrapped literal loop (`ForStmt` or `CXXForRangeStmt`).
    pub loop_stmt: P<Stmt>,
    /// The **distance function**: a lambda `[&](size_t &Result) { Result =
    /// __end - __begin; }` computing the trip count before loop entry.
    pub distance_fn: P<CapturedStmt>,
    /// The **loop user value function**: a lambda
    /// `[&,__begin](auto &Result, size_t i) { Result = __begin + i; }`
    /// converting a logical iteration number into the user variable's value.
    pub loop_var_fn: P<CapturedStmt>,
    /// The **user variable reference** that must be updated before each
    /// iteration.
    pub loop_var_ref: P<Expr>,
}

impl OMPCanonicalLoop {
    /// The number of Sema-resolved meta-information items — the paper's
    /// headline reduction ("This is reduced from the 36 shadow AST nodes
    /// required by OMPLoopDirective").
    pub const META_NODE_COUNT: usize = 3;

    /// Test-only constructor with placeholder helper lambdas.
    #[doc(hidden)]
    pub fn for_test(loop_stmt: P<Stmt>) -> P<OMPCanonicalLoop> {
        use crate::decl::CapturedDecl;
        use crate::expr::{Expr, ExprKind};
        use crate::ty::{Type, TypeKind};
        let mk_captured = || {
            P::new(CapturedStmt {
                decl: P::new(CapturedDecl {
                    params: Vec::new(),
                    body: Stmt::new(crate::stmt::StmtKind::Null, SourceLocation::INVALID),
                    nothrow: true,
                }),
                captures: Vec::new(),
            })
        };
        P::new(OMPCanonicalLoop {
            loop_stmt,
            distance_fn: mk_captured(),
            loop_var_fn: mk_captured(),
            loop_var_ref: Expr::rvalue(
                ExprKind::IntegerLiteral(0),
                Type::new(TypeKind::Int {
                    width: crate::ty::IntWidth::W32,
                    signed: true,
                }),
                SourceLocation::INVALID,
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_indexed_by_kind() {
        for (i, r) in DIRECTIVES.iter().enumerate() {
            assert_eq!(r.kind as usize, i, "{}", r.name);
        }
        for (i, r) in CLAUSES.iter().enumerate() {
            assert_eq!(r.kind as usize, i, "{}", r.name);
        }
    }

    #[test]
    fn names_resolve_back_to_their_rows() {
        for k in OMPDirectiveKind::all() {
            assert_eq!(OMPDirectiveKind::from_name(k.name()), Some(k));
            let words: Vec<&str> = k.name().split(' ').collect();
            assert_eq!(
                OMPDirectiveKind::match_words(&words),
                Some((k, words.len()))
            );
            // A trailing clause name never extends the match.
            let mut longer = words.clone();
            longer.push("nowait");
            assert_eq!(
                OMPDirectiveKind::match_words(&longer),
                Some((k, words.len()))
            );
        }
        assert_eq!(OMPDirectiveKind::match_words(&["sections"]), None);
        for c in OMPClauseKind::all() {
            assert_eq!(OMPClauseKind::from_name(c.name()), Some(c));
        }
    }

    #[test]
    fn positive_clauses_are_wrapped_as_constants() {
        for c in OMPClauseKind::all() {
            assert!(!c.must_be_positive() || c.is_constant(), "{}", c.name());
            // Every clause a row accepts exists, and no row lists one twice.
        }
        for k in OMPDirectiveKind::all() {
            let row = k.row().clauses;
            for (i, c) in row.iter().enumerate() {
                assert!(
                    !row[..i].contains(c),
                    "{} lists {} twice",
                    k.name(),
                    c.name()
                );
            }
        }
    }

    #[test]
    fn hierarchy_predicates_match_paper_fig3() {
        use OMPDirectiveKind::*;
        // OMPUnrollDirective/OMPTileDirective derive from
        // OMPLoopBasedDirective but NOT from OMPLoopDirective.
        assert!(Unroll.is_loop_based() && !Unroll.is_loop_directive());
        assert!(Tile.is_loop_based() && !Tile.is_loop_directive());
        assert!(Unroll.is_loop_transformation() && Tile.is_loop_transformation());
        // The 6.0-candidate transformations share the hierarchy position.
        for k in [Interchange, Reverse, Fuse] {
            assert!(k.is_loop_based() && !k.is_loop_directive());
            assert!(k.is_loop_transformation());
            assert!(!k.is_parallel() && !k.is_worksharing());
        }
        // Classic loop directives are both.
        assert!(For.is_loop_based() && For.is_loop_directive());
        assert!(ParallelFor.is_loop_based() && ParallelFor.is_loop_directive());
        assert!(!ParallelFor.is_loop_transformation());
        // parallel is neither loop-based nor a loop directive.
        assert!(!Parallel.is_loop_based() && !Parallel.is_loop_directive());
    }

    #[test]
    fn transformations_do_not_capture() {
        assert!(!OMPDirectiveKind::Unroll.captures_associated());
        assert!(!OMPDirectiveKind::Tile.captures_associated());
        assert!(!OMPDirectiveKind::Interchange.captures_associated());
        assert!(!OMPDirectiveKind::Reverse.captures_associated());
        assert!(!OMPDirectiveKind::Fuse.captures_associated());
        assert!(OMPDirectiveKind::ParallelFor.captures_associated());
        assert!(OMPDirectiveKind::Parallel.captures_associated());
    }

    #[test]
    fn class_names() {
        assert_eq!(OMPDirectiveKind::Tile.class_name(), "OMPTileDirective");
        assert_eq!(
            OMPDirectiveKind::Interchange.class_name(),
            "OMPInterchangeDirective"
        );
        assert_eq!(
            OMPDirectiveKind::Reverse.class_name(),
            "OMPReverseDirective"
        );
        assert_eq!(OMPDirectiveKind::Fuse.class_name(), "OMPFuseDirective");
        assert_eq!(
            OMPClauseKind::Permutation.class_name(),
            "OMPPermutationClause"
        );
        assert_eq!(OMPClauseKind::Full.class_name(), "OMPFullClause");
        assert_eq!(OMPClauseKind::Sizes.class_name(), "OMPSizesClause");
        assert_eq!(OMPClauseKind::Partial.class_name(), "OMPPartialClause");
    }

    fn directive(kind: OMPDirectiveKind, clauses: Vec<P<OMPClause>>) -> OMPDirective {
        OMPDirective::new(kind, clauses, None, SourceLocation::INVALID)
    }

    fn int_args(vals: &[i128]) -> Vec<P<Expr>> {
        let ctx = crate::context::ASTContext::new();
        vals.iter()
            .map(|&v| ctx.int_lit(v, ctx.int(), SourceLocation::INVALID))
            .collect()
    }

    #[test]
    fn pragma_text_round_trip() {
        let loc = SourceLocation::INVALID;
        let d = directive(
            OMPDirectiveKind::Unroll,
            vec![OMPClause::new(OMPClauseKind::Full, vec![], loc)],
        );
        assert_eq!(d.pragma_text(), "#pragma omp unroll full");
        // A chunked schedule keeps its chunk, so distinct tuner candidates
        // print distinct breadcrumbs.
        let sched = P::new(OMPClause {
            kind: OMPClauseKind::Schedule,
            modifier: ClauseModifier::Schedule(ScheduleKind::Dynamic),
            args: int_args(&[4]),
            loc,
        });
        let d = directive(OMPDirectiveKind::ParallelFor, vec![sched]);
        assert_eq!(
            d.pragma_text(),
            "#pragma omp parallel for schedule(dynamic, 4)"
        );
        assert_eq!(d.schedule().0, ScheduleKind::Dynamic);
    }

    #[test]
    fn meta_count_is_three() {
        assert_eq!(OMPCanonicalLoop::META_NODE_COUNT, 3);
    }

    #[test]
    fn clause_queries() {
        let loc = SourceLocation::INVALID;
        let d = directive(
            OMPDirectiveKind::Unroll,
            vec![OMPClause::new(OMPClauseKind::Partial, vec![], loc)],
        );
        assert!(d.clause(OMPClauseKind::Full).is_none());
        assert_eq!(d.partial_factor(), Some(2), "bare partial means two");
        assert_eq!(d.associated_loops(), 1);
        assert!(d.get_transformed_stmt().is_none());
    }

    #[test]
    fn associated_loops_and_decoded_lists_follow_the_clauses() {
        let loc = SourceLocation::INVALID;
        let list = |kind, vals: &[i128]| OMPClause::new(kind, int_args(vals), loc);
        let tile = directive(
            OMPDirectiveKind::Tile,
            vec![list(OMPClauseKind::Sizes, &[4, 8])],
        );
        assert_eq!(tile.associated_loops(), 2);
        assert_eq!(tile.sizes(), Some(vec![4, 8]));
        let bad = directive(
            OMPDirectiveKind::Tile,
            vec![list(OMPClauseKind::Sizes, &[4, 0])],
        );
        assert_eq!(bad.sizes(), None);

        let swap = directive(OMPDirectiveKind::Interchange, vec![]);
        assert_eq!(swap.associated_loops(), 2);
        assert_eq!(swap.permutation().unwrap(), vec![1, 0]);
        let rot = directive(
            OMPDirectiveKind::Interchange,
            vec![list(OMPClauseKind::Permutation, &[3, 1, 2])],
        );
        assert_eq!(rot.associated_loops(), 3);
        assert_eq!(rot.permutation().unwrap(), vec![2, 0, 1]);
        let dup = directive(
            OMPDirectiveKind::Interchange,
            vec![list(OMPClauseKind::Permutation, &[1, 1])],
        );
        assert!(matches!(
            dup.permutation(),
            Err(BadPermutation::NotAPermutation(_))
        ));

        let ws = directive(
            OMPDirectiveKind::For,
            vec![list(OMPClauseKind::Collapse, &[2])],
        );
        assert_eq!(ws.associated_loops(), 2);
        assert_eq!(
            directive(OMPDirectiveKind::Fuse, vec![]).associated_loops(),
            1
        );
        assert_eq!(
            directive(OMPDirectiveKind::Parallel, vec![]).associated_loops(),
            0
        );
    }
}
