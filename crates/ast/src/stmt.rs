//! The `Stmt` hierarchy, including the loop statements the paper's
//! transformations operate on, `CapturedStmt` (the outlining vehicle), the
//! `AttributedStmt`/`LoopHintAttr` pair used by the shadow-AST partial
//! unroll, and the de-sugared C++ range-based for-loop.

use crate::decl::{CapturedDecl, Decl, VarDecl};
use crate::expr::Expr;
use crate::omp::{OMPCanonicalLoop, OMPDirective};
use crate::P;
use omplt_source::SourceLocation;

/// Capture mode of one captured variable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CaptureKind {
    /// Captured by reference (`[&]`); the default for OpenMP regions.
    ByRef,
    /// Captured by value (`[=]`/explicit); used for `__begin` in the loop
    /// user value function so it keeps the *start* value even though the
    /// loop mutates the iteration variable (paper §3.1).
    ByValue,
}

/// One captured variable of a [`CapturedStmt`].
#[derive(Clone, Debug)]
pub struct Capture {
    /// How the variable is captured.
    pub kind: CaptureKind,
    /// The captured variable.
    pub var: P<VarDecl>,
}

/// The statement that declares and wires up a [`CapturedDecl`] — Clang's
/// borrowed lambda/block machinery (paper §1.2): the `CapturedDecl` contains
/// the outlined-function definition, the `CapturedStmt` represents the
/// statement declaring it, and the enclosing directive is responsible for
/// calling it.
#[derive(Debug)]
pub struct CapturedStmt {
    /// The outlined "lambda" definition.
    pub decl: P<CapturedDecl>,
    /// Which variables are captured, and how.
    pub captures: Vec<Capture>,
}

/// Statement-level attributes (Clang `AttributedStmt` payloads).
#[derive(Clone, Debug, PartialEq)]
pub enum Attr {
    /// `LoopHintAttr` requesting unrolling with a fixed factor — what
    /// `#pragma clang loop unroll_count(N)` attaches, and what the shadow-AST
    /// partial unroll emits on its inner loop so the mid-end `LoopUnroll`
    /// pass performs the duplication (paper §2.1).
    LoopUnrollCount(u64),
}

/// De-sugared pieces of a C++ range-based for-loop, mirroring how Clang's
/// `CXXForRangeStmt` stores "some of the statements the range for-loop is
/// equivalent to" (paper §1.2 and Fig. lst:rangeloop).
#[derive(Clone, Debug)]
pub struct CxxForRangeData {
    /// `auto &&__range = Container;`
    pub range_stmt: P<Stmt>,
    /// `auto __begin = std::begin(__range);`
    pub begin_stmt: P<Stmt>,
    /// `auto __end = std::end(__range);`
    pub end_stmt: P<Stmt>,
    /// `__begin != __end`
    pub cond: P<Expr>,
    /// `++__begin`
    pub inc: P<Expr>,
    /// `double &Val = *__begin;` — declares the *loop user variable*.
    pub loop_var_stmt: P<Stmt>,
    /// The `__begin` declaration — the *loop iteration variable*.
    pub begin_var: P<VarDecl>,
    /// The `__end` declaration.
    pub end_var: P<VarDecl>,
    /// The loop user variable declaration.
    pub loop_var: P<VarDecl>,
    /// The loop body.
    pub body: P<Stmt>,
}

/// The kind (and children) of a statement.
#[derive(Debug)]
pub enum StmtKind {
    /// `{ ... }`.
    Compound(Vec<P<Stmt>>),
    /// A declaration statement (`DeclStmt`).
    Decl(Vec<Decl>),
    /// An expression statement.
    Expr(P<Expr>),
    /// `if (cond) then [else els]`.
    If {
        /// Condition.
        cond: P<Expr>,
        /// Then branch.
        then: P<Stmt>,
        /// Optional else branch.
        els: Option<P<Stmt>>,
    },
    /// `while (cond) body`.
    While {
        /// Condition.
        cond: P<Expr>,
        /// Body.
        body: P<Stmt>,
    },
    /// `do body while (cond);`
    DoWhile {
        /// Body.
        body: P<Stmt>,
        /// Condition.
        cond: P<Expr>,
    },
    /// A literal C for-loop (`ForStmt`). Any of init/cond/inc may be absent —
    /// dumps print `<<<NULL>>>` placeholders like Clang.
    For {
        /// Init statement (declaration or expression).
        init: Option<P<Stmt>>,
        /// Controlling condition.
        cond: Option<P<Expr>>,
        /// Increment expression.
        inc: Option<P<Expr>>,
        /// Loop body.
        body: P<Stmt>,
    },
    /// A C++ range-based for-loop (`CXXForRangeStmt`) with its de-sugared
    /// helper statements.
    CxxForRange(P<CxxForRangeData>),
    /// `return [expr];`.
    Return(Option<P<Expr>>),
    /// `break;`.
    Break,
    /// `continue;`.
    Continue,
    /// `;` (`NullStmt`).
    Null,
    /// A statement with attributes (`AttributedStmt`).
    Attributed {
        /// The attributes.
        attrs: Vec<Attr>,
        /// The annotated statement.
        sub: P<Stmt>,
    },
    /// A `CapturedStmt`.
    Captured(P<CapturedStmt>),
    /// Any OpenMP executable directive.
    OMP(P<OMPDirective>),
    /// The `OMPCanonicalLoop` meta node (paper §3.1): wraps a literal loop
    /// that has been "converted" into an OpenMP canonical loop; can be
    /// losslessly removed again for re-analysis.
    OMPCanonicalLoop(P<OMPCanonicalLoop>),
}

/// A statement node.
#[derive(Debug)]
pub struct Stmt {
    /// Kind and children.
    pub kind: StmtKind,
    /// Source position (synthetic for generated statements).
    pub loc: SourceLocation,
}

impl Stmt {
    /// Wraps a kind into a counted pointer.
    pub fn new(kind: StmtKind, loc: SourceLocation) -> P<Stmt> {
        P::new(Stmt { kind, loc })
    }

    /// True for loop statements a directive can associate with.
    pub fn is_loop(&self) -> bool {
        matches!(self.kind, StmtKind::For { .. } | StmtKind::CxxForRange(_))
    }

    /// Looks through `Attributed` wrappers (and `OMPCanonicalLoop`, which
    /// "can be losslessly removed again") to find the underlying loop.
    pub fn strip_to_loop(self: &P<Stmt>) -> &P<Stmt> {
        match &self.kind {
            StmtKind::Attributed { sub, .. } => sub.strip_to_loop(),
            StmtKind::OMPCanonicalLoop(cl) => cl.loop_stmt.strip_to_loop(),
            _ => self,
        }
    }

    /// The Clang-style class name of this node, used by dumps and stats.
    pub fn class_name(&self) -> &'static str {
        match &self.kind {
            StmtKind::Compound(_) => "CompoundStmt",
            StmtKind::Decl(_) => "DeclStmt",
            StmtKind::Expr(_) => "ExprStmt",
            StmtKind::If { .. } => "IfStmt",
            StmtKind::While { .. } => "WhileStmt",
            StmtKind::DoWhile { .. } => "DoStmt",
            StmtKind::For { .. } => "ForStmt",
            StmtKind::CxxForRange(_) => "CXXForRangeStmt",
            StmtKind::Return(_) => "ReturnStmt",
            StmtKind::Break => "BreakStmt",
            StmtKind::Continue => "ContinueStmt",
            StmtKind::Null => "NullStmt",
            StmtKind::Attributed { .. } => "AttributedStmt",
            StmtKind::Captured(_) => "CapturedStmt",
            StmtKind::OMP(d) => d.kind.class_name(),
            StmtKind::OMPCanonicalLoop(_) => "OMPCanonicalLoop",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::omp::{OMPCanonicalLoop, OMPDirectiveKind};
    use crate::ty::{Type, TypeKind};

    fn null_stmt() -> P<Stmt> {
        Stmt::new(StmtKind::Null, SourceLocation::INVALID)
    }

    fn for_stmt() -> P<Stmt> {
        Stmt::new(
            StmtKind::For {
                init: None,
                cond: None,
                inc: None,
                body: null_stmt(),
            },
            SourceLocation::INVALID,
        )
    }

    #[test]
    fn loop_predicate() {
        assert!(for_stmt().is_loop());
        assert!(!null_stmt().is_loop());
    }

    #[test]
    fn strip_through_attributes() {
        let attributed = Stmt::new(
            StmtKind::Attributed {
                attrs: vec![Attr::LoopUnrollCount(2)],
                sub: for_stmt(),
            },
            SourceLocation::INVALID,
        );
        assert!(attributed.strip_to_loop().is_loop());
    }

    #[test]
    fn strip_through_canonical_loop() {
        // OMPCanonicalLoop is transparently removable (paper §3.1).
        let void = Type::new(TypeKind::Void);
        let _ = void;
        let cl = OMPCanonicalLoop::for_test(for_stmt());
        let s = Stmt::new(StmtKind::OMPCanonicalLoop(cl), SourceLocation::INVALID);
        assert!(s.strip_to_loop().is_loop());
    }

    #[test]
    fn class_names_match_clang() {
        assert_eq!(for_stmt().class_name(), "ForStmt");
        assert_eq!(null_stmt().class_name(), "NullStmt");
        assert_eq!(
            OMPDirectiveKind::ParallelFor.class_name(),
            "OMPParallelForDirective"
        );
    }
}
