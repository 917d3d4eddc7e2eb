//! # omplt-tune
//!
//! The directive autotuner's search machinery: instead of hand-picking
//! transformation configurations (tile sizes, unroll factors, schedules) the
//! way the paper does, `ompltc --autotune` *searches* the configuration
//! space — the ROADMAP's autotuner item, in the spirit of MUPPET's
//! `OMPMutation` enumeration and ROSE's `AutoTuningInterface`, and of the
//! search-driver layer Kruse & Finkel's "Loop Optimization Framework"
//! (arXiv:1811.00632) puts above a legality-gated transformation engine.
//!
//! This crate owns the representation-level pieces, all deterministic and
//! free of the compiler pipeline (directive and clause spellings come from
//! `omplt-ast`'s catalog, nothing else) so the test suites can drive them
//! directly:
//!
//! * [`model`] — source-level directive extraction and re-synthesis
//!   ([`SourceModel`], [`Pragma`], [`Mutation`]);
//! * [`mutate`] — the mutation axes, the deterministic grid [`Enumerator`],
//!   and the seeded random [`Sampler`] that doubles as the differential
//!   stress-corpus generator;
//! * [`report`] — the [`TuneReport`], ranked by retired ops, with
//!   byte-deterministic text and JSON renderings.
//!
//! Orchestration — compiling candidates, pruning the refused and the
//! doubtful, executing survivors on the engines — lives in
//! the `omplt` facade (`omplt::tuner`), which wires these pieces to the
//! `CompilerInstance` pipeline; the driver exposes it as
//! `ompltc --autotune[=budget]`.

#![warn(missing_docs)]

pub mod model;
pub mod mutate;
pub mod report;

pub use model::{Clause, Mutation, Pragma, Site, SourceModel};
pub use mutate::{
    axes_for, enumerate, sample, Axis, AxisKind, AxisValue, BackendChoice, Candidate, EnumConfig,
    Enumerator, Sampler, XorShift,
};
pub use report::{CandidateOutcome, Measurement, Status, TuneReport};
