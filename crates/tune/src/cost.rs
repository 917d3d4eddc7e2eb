//! Candidate cost models.
//!
//! The default model is **retired-op count**: the number of IR/bytecode
//! operations the selected engine executed, as reported by the pipeline's
//! own `{interp,vm}.ops.retired` counters. Op counts are a pure function of
//! the program and its directive configuration (the root suite's
//! `tests/counter_pins.rs` pins exactly this property), so rankings —
//! and therefore reports — are reproducible byte-for-byte, which is what
//! lets the autotune test suite golden them. Wall time is available as an
//! opt-in model for real measurements; it is deliberately excluded from the
//! deterministic report fields.

/// Which quantity ranks candidates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CostModel {
    /// Retired-op count (deterministic; the default).
    #[default]
    Ops,
    /// Wall-clock microseconds of the run (non-deterministic; real
    /// measurements only).
    Time,
}

impl CostModel {
    /// Parses a `--tune-cost=` value.
    pub fn parse(s: &str) -> Option<CostModel> {
        match s {
            "ops" => Some(CostModel::Ops),
            "time" => Some(CostModel::Time),
            _ => None,
        }
    }

    /// Flag spelling.
    pub fn name(self) -> &'static str {
        match self {
            CostModel::Ops => "ops",
            CostModel::Time => "time",
        }
    }
}

/// What evaluating one candidate measured.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Measurement {
    /// Ops the engine retired during the run.
    pub ops_retired: u64,
    /// Wall time of the run, microseconds.
    pub wall_us: u64,
    /// The program's exit code.
    pub exit_code: i64,
}

impl Measurement {
    /// The candidate's score under `model` — lower is better.
    pub fn score(&self, model: CostModel) -> u64 {
        match model {
            CostModel::Ops => self.ops_retired,
            CostModel::Time => self.wall_us,
        }
    }
}
