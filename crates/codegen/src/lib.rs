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
//! * **IrBuilder** — the `OMPCanonicalLoop`-based path: CodeGen evaluates the
//!   distance function, calls `omplt_ompirb::create_canonical_loop`, emits
//!   the loop-user-value call and body inside the callback, and hands the
//!   resulting `CanonicalLoopInfo` handles to `tile_loops` /
//!   `unroll_loop_*` / `create_static_workshare_loop`.

pub mod cg_expr;
pub mod cg_omp_classic;
pub mod cg_omp_irbuilder;
pub mod cg_stmt;
pub mod codegen;

pub use codegen::{codegen_translation_unit, ir_type, CodegenOptions, CodegenResult};
