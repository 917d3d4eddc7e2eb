//! The box's speed, measured alongside every timing. This harness runs on a
//! shared 2-vCPU VM whose clock-for-clock speed moves by 10–20 % for minutes
//! at a time (other tenants, frequency steps of the host), and it moves all
//! code alike: over 15 minutes the fastest sample of a compile, of a kernel
//! run and of the loop below rose and fell together (README, "Steadiness").
//! So every run times this fixed loop between its own samples, and reports
//! its timings at the loop's reference speed. The loop is the harness's own:
//! no change to the compiler can move it.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of one pass: about 2.4 ms.
const PASS: u64 = 2_000_000;

/// What one pass takes on this box at its fastest, in milliseconds. Only
/// fixes the scale: a run on a box at that speed reports what it measured.
const REFERENCE_MS: f64 = 2.38;

/// A dependent multiply-add chain: no memory traffic, no branch to
/// mispredict, nothing the compiler can fold — its time is the core's clock.
fn pass() -> u64 {
    let mut s = 1u64;
    for i in 0..black_box(PASS) {
        s = s
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(i ^ (s >> 7));
    }
    s
}

/// The passes of one run.
#[derive(Default)]
pub struct Calibration {
    fastest_ms: Option<f64>,
}

impl Calibration {
    /// Times one pass. The phases call this between their own samples, so
    /// that the passes see the box in the same states as the samples do.
    pub fn sample(&mut self) {
        let t = Instant::now();
        black_box(pass());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.fastest_ms = Some(self.fastest_ms.map_or(ms, |f| f.min(ms)));
    }

    /// The fastest pass of the run, in milliseconds: the same estimator as
    /// every timing it scales.
    pub fn fastest_ms(&self) -> f64 {
        self.fastest_ms.expect("a run takes at least one pass")
    }

    /// What a timing of this run is multiplied by to read at reference speed.
    pub fn factor(&self) -> f64 {
        REFERENCE_MS / self.fastest_ms()
    }
}
