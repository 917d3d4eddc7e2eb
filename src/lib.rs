//! # omplt — OpenMP loop transformations on a Clang-style AST, in Rust
//!
//! Reproduction of M. Kruse, *"Loop Transformations using Clang's Abstract
//! Syntax Tree"* (ICPP Workshops 2021). This facade crate wires the layer
//! crates into a [`CompilerInstance`] with the same user-visible workflow as
//! the paper's Clang prototype:
//!
//! ```
//! use omplt::{CompilerInstance, Options};
//!
//! let src = r#"
//! void body(int i);
//! void f(int n) {
//!   #pragma omp unroll partial(2)
//!   for (int i = 0; i < n; i += 1)
//!     body(i);
//! }
//! "#;
//! let mut ci = CompilerInstance::new(Options::default());
//! let tu = ci.parse_source("demo.c", src).expect("parses");
//! let dump = ci.ast_dump(&tu);
//! assert!(dump.contains("OMPUnrollDirective"));
//! ```
//!
//! See `DESIGN.md` for the complete system inventory and `EXPERIMENTS.md`
//! for the paper-artifact ↔ reproduction map.

pub mod cache;
pub mod compiler;
pub mod options;
pub mod pipeline;
pub mod protocol;
pub mod service;
pub mod tuner;

pub use compiler::{Backend, CompilerInstance, Options};
pub use omplt_analysis::AnalysisReport;
pub use omplt_ast::OpenMpCodegenMode;
pub use pipeline::{assert_matrix_output, run_matrix, run_source, run_source_with};
pub use service::Service;

pub use omplt_analysis as analysis;
pub use omplt_ast as ast;
pub use omplt_codegen as codegen;
pub use omplt_fault as fault;
pub use omplt_interp as interp;
pub use omplt_ir as ir;
pub use omplt_lex as lex;
pub use omplt_midend as midend;
pub use omplt_ompirb as ompirb;
pub use omplt_parse as parse;
pub use omplt_sema as sema;
pub use omplt_source as source;
pub use omplt_trace as trace;
pub use omplt_tune as tune;
pub use omplt_vm as vm;
