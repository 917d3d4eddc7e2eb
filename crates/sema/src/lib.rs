//! # omplt-sema
//!
//! The semantic analyzer (Sema layer of the paper's Fig. 1). The parser
//! pushes syntax at these entry points; Sema type-checks, builds AST nodes
//! (including implicit ones), and implements **both** loop-transformation
//! representations the paper contrasts:
//!
//! * the **shadow-AST** path (paper §2): [`transform`] applies `tile`/`unroll`
//!   on the AST by building a new loop nest around the shared body and
//!   stores the result on the directive node (`get_transformed_stmt()`),
//!   together with the level records of the loops it generates
//!   (`OMPDirective::generated`), which a consuming directive takes;
//! * the **canonical-loop** path (paper §3): [`canonical`] wraps literal loops
//!   in `OMPCanonicalLoop` nodes carrying the distance function, the loop
//!   user value function and the user-variable reference — the "minimal set
//!   of meta-information that needs to be resolved at the Sema layer".
//!
//! [`loop_analysis`] implements OpenMP's *canonical loop form* check
//! (init/test/incr shape), shared by both paths, and the one rule for a
//! level of a nest (`loop_analysis::NestWalk`). Sema is the one layer
//! that resolves and analyses a directive's loops, in one walk per
//! directive: what it found stays on the node (`OMPDirective::nest`, and
//! the levels below it in `OMPDirective::below`), and CodeGen and the
//! legality gate read it.

pub mod canonical;
pub mod capture;
pub mod loop_analysis;
pub mod omp_sema;
pub mod range_for;
pub mod scope;
pub mod sema;
pub mod transform;

pub use canonical::build_canonical_loop;
pub use capture::{build_omp_captured_stmt, free_variables};
pub use loop_analysis::LoopRefusal;
pub use sema::Sema;
pub use transform::count_generated_loops;
