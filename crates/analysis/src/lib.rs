//! # omplt-analysis
//!
//! The static-analysis suite, spanning the compiler's two program
//! representations:
//!
//! * at the **AST layer**, on the translation unit Sema accepted (Sema
//!   itself refuses what it can judge while it builds a directive: loop
//!   form, `break`/`return`, rectangularity, perfect nesting):
//!   * the **legality gate** ([`legality_gate`]) — [`depend`] computes
//!     per-nest distance/direction vectors from affine array subscripts,
//!     refuses the `interchange`, `reverse` and `fuse` that would reorder a
//!     dependence, and decides how many lanes each `simd` loop may run
//!     (recorded on the directive for CodeGen's `safelen`; a loop that must
//!     run scalar is a warning). It is the last step of every compile
//!     (`CompilerInstance::parse_source`): a transformation the compiler
//!     applies unconditionally must not be applied when it is proven wrong;
//!   * the **lint** ([`run_lints`], `--analyze` only) — [`race`], which
//!     detects data races in `#pragma omp parallel for` regions by
//!     classifying variable references as private or shared: the compiler
//!     executes the program as written whatever the verdict;
//! * at the **IR layer**, the canonical-loop skeleton verifier lives in
//!   `omplt-midend` (re-exported here) so `--verify-each` can re-check the
//!   skeleton invariants between passes and after every `OpenMPIRBuilder`
//!   transformation.
//!
//! All AST passes report through the shared [`DiagnosticsEngine`], so their
//! findings render Clang-style (or as JSON via `--diag-format=json`) next to
//! Sema's own diagnostics.

pub mod depend;
pub mod race;

pub use depend::{DepKind, Dependence, DependenceGraph, Direction};

pub use omplt_ir::{verify_module, VerifyError};
pub use omplt_midend::{verify_function_full, verify_loop_skeletons, verify_module_full};

use omplt_ast::TranslationUnit;
use omplt_source::{DiagnosticsEngine, Level};

/// What [`run_analyses`] added to the diagnostics engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnalysisReport {
    /// Error-level findings added by the analysis passes.
    pub errors: usize,
    /// Warning-level findings added by the analysis passes.
    pub warnings: usize,
}

impl AnalysisReport {
    /// Whether any finding was produced.
    pub fn has_findings(&self) -> bool {
        self.errors + self.warnings > 0
    }
}

impl std::ops::Add for AnalysisReport {
    type Output = AnalysisReport;
    fn add(self, other: AnalysisReport) -> AnalysisReport {
        AnalysisReport {
            errors: self.errors + other.errors,
            warnings: self.warnings + other.warnings,
        }
    }
}

/// Runs `passes` and counts the errors/warnings they add to `diags`
/// (diagnostics already present — e.g. Sema warnings — are not counted).
fn counted(diags: &DiagnosticsEngine, passes: impl FnOnce()) -> AnalysisReport {
    let count = |lvl: Level| diags.all().iter().filter(|d| d.level == lvl).count();
    let (errors0, warnings0) = (count(Level::Error), count(Level::Warning));
    passes();
    AnalysisReport {
        errors: count(Level::Error) - errors0,
        warnings: count(Level::Warning) - warnings0,
    }
}

/// The legality gate: the dependence pass over `interchange`, `reverse`,
/// `fuse` and the `simd`-bearing directives. A proven violation is an
/// error; a `simd` loop bounded below two lanes, and a nest the tests
/// cannot judge, are warnings. Records each `simd` directive's lane bound.
pub fn legality_gate(tu: &TranslationUnit, diags: &DiagnosticsEngine) -> AnalysisReport {
    counted(diags, || {
        let _span = omplt_trace::span_detail("analysis.pass", "depend");
        depend::check_translation_unit(tu, diags);
    })
}

/// The lint: `-Wrace`, a finding about programs the compiler still
/// executes as written.
pub fn run_lints(tu: &TranslationUnit, diags: &DiagnosticsEngine) -> AnalysisReport {
    counted(diags, || {
        let _span = omplt_trace::span_detail("analysis.pass", "race");
        race::check_translation_unit(tu, diags);
    })
}

/// Gate and lints over a translation unit that did not come through
/// `CompilerInstance::parse_source` (which has run the gate already).
/// Returns how many errors/warnings the passes added.
pub fn run_analyses(tu: &TranslationUnit, diags: &DiagnosticsEngine) -> AnalysisReport {
    legality_gate(tu, diags) + run_lints(tu, diags)
}
