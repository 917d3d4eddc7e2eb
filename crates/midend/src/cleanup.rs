//! The mid end's one cleanup: constant folding, CFG simplification and
//! dead-code elimination run to a single joint fixpoint, so what one step
//! exposes the next finishes in the same call — a compare that folds to a
//! constant turns its branch unconditional, the dead arm goes, the join phi
//! left with one edge collapses, and the arithmetic behind it folds in
//! turn. Last, a small if/else whose arms only compute becomes a `select`
//! (the classic tile's `min(ub, floor + s)`), which the loop-invariant code
//! motion after the cleanup can hoist. The pipeline runs it before the
//! unroller, which then reads trip counts as immediates, and again after it
//! when it copied a loop.

use crate::constfold::{eliminate_dead_code, fold_once, Dce};
use crate::simplify_cfg::{
    fold_const_branches, fold_hammocks, merge_chains, remove_unreachable, Scratch,
};
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
            4 => eliminate_dead_code(f, &mut dce),
            _ => fold_hammocks(f, &mut cfg),
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

/// What a change by each step can give the steps to do, one bit per step
/// (bit `k` for step `k`, the rows in step order: fold, branch folding,
/// sweep, merge, DCE, hammock folding). Folding (which says itself whether
/// it has more to do) turns a branch condition constant, drops a
/// single-edge phi that kept a block from merging and leaves operands dead;
/// folding a branch leaves blocks unreachable, and it and the sweep take
/// edges from phis and leave values unused; a merge leaves the blocks it
/// emptied unreachable; DCE drops phis that kept a block from merging. Every
/// step but the hammock fold can leave a hammock behind — an arm emptied of
/// a phi or an instruction, a join rid of a third edge, an arm that was a
/// chain — and a folded hammock leaves its arms unreachable.
const ENABLES: [u8; 6] = [0b111010, 0b111101, 0b111001, 0b100100, 0b101000, 0b000100];
