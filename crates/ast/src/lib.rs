//! # omplt-ast
//!
//! The Clang-style Abstract Syntax Tree: four unrelated node hierarchies
//! ([`Stmt`] (with [`Expr`] derived from it), [`Decl`], [`ty::Type`], and
//! [`OMPClause`]) exactly as the paper describes — "there is no common base
//! class for AST nodes", and each hierarchy has its own visitor.
//!
//! Key reproduction points carried by this crate:
//!
//! * **Immutability** — subtrees are reference-counted ([`P`]) and never
//!   mutated after construction; transformations build new trees.
//! * **Shadow AST** (paper §2) — loop-transformation directives
//!   ([`OMPDirective`] with kind `Unroll`/`Tile`) store their *transformed*
//!   loop nest in a field that is deliberately **not** part of `children()`
//!   and not shown by the default AST dump.
//! * **`OMPCanonicalLoop`** (paper §3) — a meta node wrapping a literal loop
//!   together with the three Sema-resolved meta-information items: distance
//!   function, loop-user-value function (both [`CapturedStmt`] lambdas) and
//!   the user-variable reference.
//! * **`-ast-dump`** — [`dump::dump_stmt`] renders trees in the visual style
//!   of `clang -Xclang -ast-dump`, regenerating the paper's listings.

pub mod canonical_loop;
pub mod context;
pub mod decl;
pub mod dump;
pub mod expr;
pub mod nest;
pub mod omp;
pub mod stats;
pub mod stmt;
pub mod ty;
pub mod visitor;

pub use canonical_loop::{CanonicalLoopAnalysis, LoopDirection, LoopNestLevel, OpenMpCodegenMode};
pub use context::ASTContext;
pub use decl::{
    CapturedDecl, Decl, DeclId, DeclKind, FunctionDecl, TranslationUnit, VarDecl, VarKind,
};
pub use dump::{dump_stmt, dump_transformed_only, dump_translation_unit, DumpOptions};
pub use expr::{BinOp, CastKind, Expr, ExprKind, UnOp, ValueCategory};
pub use nest::{loop_level, LevelLoops, NestLevel, NestRefusal};
pub use omp::{
    ArgShape, BadPermutation, ClauseModifier, LoopAssociation, LoopDirectiveHelpers,
    OMPCanonicalLoop, OMPClause, OMPClauseKind, OMPDirective, OMPDirectiveKind, PerLoopHelpers,
    ReductionOp, ScheduleKind,
};
pub use stats::{stmt_stats, NodeStats};
pub use stmt::{Attr, Capture, CaptureKind, CapturedStmt, CxxForRangeData, Stmt, StmtKind};
pub use ty::{IntWidth, Type, TypeKind};
pub use visitor::{
    clause_exprs, walk_clauses, walk_expr, walk_stmt, OMPClauseVisitor, StmtVisitor,
};

/// Owning pointer for immutable AST subtrees (Clang uses raw pointers into an
/// arena; we use `Rc` which also gives the shadow-AST transformations
/// cheap structural sharing of the loop bodies they wrap).
pub type P<T> = std::rc::Rc<T>;
