//! # omplt-midend
//!
//! The mid-end the shadow-AST design relies on (paper §2.2): partial
//! unrolling only *annotates* the inner loop with unroll metadata — "no
//! duplication takes place until" the `LoopUnroll` pass runs here — and the
//! tile loop's bound `min(ub, floor + s)` sits in its condition, as Clang
//! leaves it for LLVM's loop-invariant code motion.
//!
//! Provides classic scalar/CFG infrastructure (dominator tree, promotion to
//! SSA, and [`mod@cleanup`], one joint fixpoint of constant folding, CFG
//! simplification — folding small if/else hammocks into `select`s among
//! it — and DCE), [`mod@licm`] (dominator-scoped value numbering and
//! loop-invariant code motion, which move or delete only what
//! [`omplt_ir::arith::removable`] lets go), the canonical-skeleton verifier
//! — which, like the unroller, finds its loops by the metadata on their
//! latches — and the [`mod@loop_unroll`] pass, which consumes
//! `llvm.loop.unroll.{full,count,enable}` metadata, performs full unrolling
//! for constant trip counts, and partial unrolling with a **remainder
//! loop** in the shape of the paper's "Partial unrolling with remainder
//! loop" figure. [`run_default_pipeline`] runs `promote`, `cleanup`,
//! `gvn-licm`, `loop-unroll` and, when the unroller copied a loop,
//! `cleanup` again; no pass calls another.

pub mod cleanup;
pub mod constfold;
pub mod domtree;
pub mod licm;
pub mod loop_unroll;
pub mod pipeline;
pub mod promote;
pub mod simplify_cfg;
pub mod verify;

pub use cleanup::cleanup;
pub use constfold::{eliminate_dead_code, has_dead_code, Dce};
pub use domtree::DomTree;
pub use licm::{value_number_and_hoist, Licm};
pub use loop_unroll::{loop_unroll, UnrollStats};
pub use pipeline::run_default_pipeline;
pub use promote::{promote, Promote};
pub use verify::{verify_function_full, verify_loop_skeletons};
