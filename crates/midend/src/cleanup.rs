//! The mid end's one cleanup: constant folding, CFG simplification and
//! dead-code elimination run to a single joint fixpoint, so what one step
//! exposes the next finishes in the same call — a compare that folds to a
//! constant turns its branch unconditional, the dead arm goes, the join phi
//! left with one edge collapses, and the arithmetic behind it folds in
//! turn. The pipeline runs it before the unroller, which then reads trip
//! counts as immediates, and again after it when it copied a loop.

use crate::constfold::{eliminate_dead_code, fold_once, Dce};
use crate::simplify_cfg::{fold_const_branches, merge_chains, remove_unreachable, Scratch};
use omplt_ir::Function;

/// Folds constants, simplifies the CFG and removes dead code until none of
/// them changes anything. Returns true if anything changed.
pub fn cleanup(f: &mut Function) -> bool {
    // The buffers every step reuses.
    let mut replacement = Vec::new();
    let (mut dce, mut cfg) = (Dce::default(), Scratch::default());
    // The steps a run of step `k` gave work to (0: it changed nothing).
    let mut step = |k: usize, f: &mut Function| {
        let changed = match k {
            0 => {
                let folded = fold_once(f, &mut replacement);
                return folded.map_or(0, |again| ENABLES[0] | u8::from(again));
            }
            1 => fold_const_branches(f),
            2 => remove_unreachable(f, &mut cfg),
            3 => merge_chains(f, &mut cfg),
            _ => eliminate_dead_code(f, &mut dce),
        };
        ENABLES[k] * u8::from(changed)
    };
    // Each step runs while one that can give it work changed something
    // since its last run, the earliest such step first.
    let (mut changed, mut todo) = (false, (1u8 << ENABLES.len()) - 1);
    while todo != 0 {
        let k = todo.trailing_zeros() as usize;
        let work = step(k, f);
        (changed, todo) = (changed || work != 0, todo & !(1 << k) | work);
    }
    changed
}

/// What a change by each step can give the steps to do, one bit per step.
/// Folding (which says itself whether it has more to do) turns a branch
/// condition constant, drops a single-edge phi that kept a block from
/// merging and leaves operands dead; folding a branch leaves blocks
/// unreachable, and it and the sweep take edges from phis and leave values
/// unused; a merge leaves the blocks it emptied unreachable; DCE drops phis
/// that kept a block from merging.
const ENABLES: [u8; 5] = [0b11010, 0b11101, 0b11001, 0b00100, 0b01000];
