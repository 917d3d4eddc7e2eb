//! # omplt-analysis
//!
//! The static-analysis pass on the translation unit Sema accepted (Sema
//! itself refuses what it can judge while it builds a directive: loop form,
//! `break`/`return`, rectangularity, perfect nesting), run as the last step
//! of every compile in `CompilerInstance::parse_source`: [`depend`] builds
//! one dependence graph per directive nest from affine array subscripts and
//! answers every legality question from it. It refuses the `interchange`,
//! `reverse` and `fuse` that would reorder a dependence (a transformation
//! the compiler applies unconditionally must not be applied when it is
//! proven wrong), decides how many lanes each `simd` loop may run (recorded
//! on the directive for CodeGen's `safelen`; a loop that must run scalar is
//! a warning), and warns about the data races of `parallel for` and
//! `parallel for simd` (`-Wrace`: the compiler executes the program as
//! written whatever the verdict). The IR's canonical-loop skeleton verifier
//! is `omplt-midend`'s, run by `--verify-each`.
//!
//! The pass reports through the shared [`DiagnosticsEngine`], so its
//! findings render Clang-style (or as JSON via `--diag-format=json`) next to
//! Sema's own diagnostics.

pub mod depend;

pub use depend::{DepKind, Dependence, DependenceGraph, Direction};

use omplt_ast::TranslationUnit;
use omplt_source::{DiagnosticsEngine, Level};

/// What [`run_analyses`] added to the diagnostics engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnalysisReport {
    /// Error-level findings added by the analysis pass.
    pub errors: usize,
    /// Warning-level findings added by the analysis pass.
    pub warnings: usize,
}

impl AnalysisReport {
    /// Whether any finding was produced.
    pub fn has_findings(&self) -> bool {
        self.errors + self.warnings > 0
    }
}

/// The dependence pass over a translation unit Sema accepted: a proven
/// violation is an error; a `simd` loop bounded below two lanes, a data
/// race and a transformed nest the tests cannot judge are warnings. Records
/// each `simd` directive's lane bound. Returns how many errors/warnings the
/// pass added (diagnostics already present — e.g. Sema warnings — are not
/// counted).
pub fn run_analyses(tu: &TranslationUnit, diags: &DiagnosticsEngine) -> AnalysisReport {
    let count = |lvl: Level| diags.all().iter().filter(|d| d.level == lvl).count();
    let (errors0, warnings0) = (count(Level::Error), count(Level::Warning));
    {
        let _span = omplt_trace::span_detail("analysis.pass", "depend");
        depend::check_translation_unit(tu, diags);
    }
    AnalysisReport {
        errors: count(Level::Error) - errors0,
        warnings: count(Level::Warning) - warnings0,
    }
}
