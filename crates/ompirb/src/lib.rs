//! # omplt-ompirb — the OpenMPIRBuilder
//!
//! The paper's second contribution (§3): a front-end-agnostic builder for
//! OpenMP constructs on top of the plain [`omplt_ir::IrBuilder`], so that the
//! heavy lowering can be shared between front-ends (Clang and Flang in the
//! paper; `omplt-codegen` and the direct-IR tests here).
//!
//! * [`CanonicalLoopInfo`] — a handle to a loop emitted as the fixed
//!   **skeleton** of the paper's Fig. "createCanonicalLoop": explicit
//!   preheader / header / cond / body / latch / exit / after blocks, an
//!   identifiable induction variable (a phi starting at 0 with step 1) and an
//!   identifiable trip count, *without* requiring ScalarEvolution-style
//!   analysis. [`CanonicalLoopInfo::assert_ok`] re-validates the invariants.
//! * [`create_canonical_loop`] — emits the skeleton and calls back into the
//!   front-end for the body ("callback-ception").
//! * [`tile_loops`] — tiles a perfect nest of N canonical loops into 2N.
//! * [`collapse_loops`] — fuses a nest into a single canonical loop.
//! * [`interchange_loops`] — permutes a perfect nest of canonical loops.
//! * [`reverse_loop`] — runs one canonical loop's iterations in the
//!   opposite order by mirroring the logical IV.
//! * [`fuse_loops`] — fuses a sequence of *sibling* canonical loops into
//!   one, guarding each body for unequal trip counts.
//!
//!   The four that abandon their input handles share one stitching
//!   helper: the fresh skeletons are chained, the innermost body region is
//!   spliced into the last one, and the construct re-enters at the old
//!   `after` block. [`CanonicalLoopInfo::nest_into`] moves a loop emitted in
//!   line into an enclosing body, which is how CodeGen nests the loops a
//!   transformation generated below literal levels.
//! * [`unroll_loop_full`] / [`unroll_loop_partial`] / [`unroll_loop_heuristic`]
//!   — the three modes of the `unroll` directive; partial unrolling tiles by
//!   the factor and annotates the inner loop with unroll metadata, deferring
//!   duplication to the mid-end `LoopUnroll` pass, exactly as in the paper.
//! * [`create_static_workshare_loop`] — applies a `schedule(static)`
//!   worksharing scheme by bounding the loop with `__kmpc_for_static_init`
//!   chunk bounds.
//! * [`create_dynamic_workshare_loop`] — applies a dispatch schedule
//!   (`dynamic` / `guided` / `runtime`) by wrapping the loop in the
//!   `__kmpc_dispatch_init_8` → `while (__kmpc_dispatch_next_8)` →
//!   `__kmpc_dispatch_fini_8` protocol; [`DispatchLoopInfo::check`]
//!   re-validates the wrapper's invariants under `--verify-each`.
//! * [`create_parallel`] — outlining-based `parallel` region construction via
//!   `__kmpc_fork_call`.

pub mod canonical_loop;
pub mod collapse;
pub mod fuse;
pub mod interchange;
pub mod parallel;
pub mod reverse;
pub mod tile;
pub mod unroll;
pub mod workshare;

pub use canonical_loop::{
    create_canonical_loop, create_canonical_loop_skeleton, CanonicalLoopInfo,
};
pub use collapse::collapse_loops;
pub use fuse::fuse_loops;
pub use interchange::interchange_loops;
pub use parallel::{create_parallel, OutlinedFn};
pub use reverse::reverse_loop;
pub use tile::tile_loops;
pub use unroll::{unroll_loop_full, unroll_loop_heuristic, unroll_loop_partial};
pub use workshare::{
    create_dynamic_workshare_loop, create_static_workshare_loop, DispatchLoopInfo,
    WorksharingScheme,
};
