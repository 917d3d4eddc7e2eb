//! # omplt-codegen
//!
//! The CodeGen layer (paper Fig. 1): lowers the type-checked AST to
//! `omplt-ir`. Two OpenMP lowering paths co-exist, selected by
//! [`omplt_ast::OpenMpCodegenMode`], mirroring Clang's
//! `-fopenmp-enable-irbuilder` flag:
//!
//! * **Classic** — early outlining done by the front-end: `parallel` regions
//!   are emitted as separate outlined functions invoked through
//!   `__kmpc_fork_call`; worksharing loops are emitted from the directive's
//!   shadow helper expressions; `tile`/`unroll` directives emit their
//!   Sema-built transformed AST (or just attach unroll metadata when not
//!   consumed by another directive).
//! * **IrBuilder** — the `OMPCanonicalLoop`-based path: Sema wraps every
//!   associated loop in an `OMPCanonicalLoop`; CodeGen evaluates each
//!   level's distance function in front of the nest, builds a perfect nest
//!   of `omplt_ompirb` skeletons with the loop-user-value calls and the body
//!   in the innermost one, and lowers every directive through the
//!   `CanonicalLoopInfo` handles: `tile_loops`, `interchange_loops`,
//!   `fuse_loops`, `reverse_loop`, `unroll_loop_*`, `collapse_loops` and the
//!   worksharing schemes. A transformation returns the handles it
//!   generates, so a stack of them lowers bottom-up; the shadow AST Sema
//!   still builds is never emitted.

pub mod cg_expr;
pub mod cg_omp_classic;
pub mod cg_omp_irbuilder;
pub mod cg_stmt;
pub mod codegen;

pub use codegen::{codegen_translation_unit, ir_type, CodegenOptions, CodegenResult};
