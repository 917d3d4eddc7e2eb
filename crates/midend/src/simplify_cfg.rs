//! CFG simplification, the control-flow half of [`crate::cleanup`](mod@crate::cleanup): sweeps
//! the unreachable scaffolding that loop transformations abandon (paper
//! §3.2: transformations may "abandon the old handles"), folds constant
//! conditional branches, merges straight-line block chains, and folds small
//! if/else hammocks into `select`s.

use omplt_ir::arith::removable;
use omplt_ir::{BlockId, Function, Inst, InstId, Rpo, Terminator, Value};

/// What every round of one [`crate::cleanup`](mod@crate::cleanup) call reuses.
#[derive(Default)]
pub(crate) struct Scratch {
    rpo: Rpo,
    /// Old block index → new one, during [`remove_unreachable`].
    remap: Vec<BlockId>,
    /// Predecessors per block, during [`merge_chains`] and
    /// [`fold_hammocks`].
    pred_count: Vec<u32>,
}

/// `br i1 true/false` → unconditional branch. The successor the branch no
/// longer reaches may stay reachable another way (the join of a `&&` whose
/// left side is constant): its phis lose this edge's operands.
pub(crate) fn fold_const_branches(f: &mut Function) -> bool {
    let mut changed = false;
    for bi in 0..f.blocks.len() {
        let Some(Terminator::CondBr {
            cond: Value::ConstInt { val, .. },
            then_bb,
            else_bb,
            loop_md,
        }) = &f.blocks[bi].term
        else {
            continue;
        };
        let (target, dropped) = if *val != 0 {
            (*then_bb, *else_bb)
        } else {
            (*else_bb, *then_bb)
        };
        f.blocks[bi].term = Some(Terminator::Br {
            target,
            loop_md: *loop_md,
        });
        if dropped != target {
            let from = BlockId(bi as u32);
            edit_phis(f, dropped, |incoming| incoming.retain(|(b, _)| *b != from));
        }
        changed = true;
    }
    changed
}

/// Drops blocks unreachable from the entry, remapping ids.
pub(crate) fn remove_unreachable(f: &mut Function, scratch: &mut Scratch) -> bool {
    let Scratch { rpo, remap, .. } = scratch;
    if rpo.compute(f).len() == f.blocks.len() {
        return false;
    }
    let reachable = |b: BlockId| rpo.reached(b);
    // Build the remap table, compacting the kept blocks in place.
    remap.clear();
    let mut kept = 0;
    for i in 0..f.blocks.len() as u32 {
        remap.push(BlockId(kept));
        kept += u32::from(reachable(BlockId(i)));
    }
    let mut i = 0;
    f.blocks.retain(|_| {
        i += 1;
        reachable(BlockId(i - 1))
    });
    // Rewrite targets and phi incoming lists.
    for bi in 0..f.blocks.len() {
        if let Some(t) = f.blocks[bi].term.as_mut() {
            t.map_blocks(|old| remap[old.0 as usize]);
        }
        edit_phis(f, BlockId(bi as u32), |incoming| {
            incoming.retain(|(from, _)| reachable(*from));
            for (from, _) in incoming.iter_mut() {
                *from = remap[from.0 as usize];
            }
        });
    }
    true
}

#[cfg(test)]
thread_local! {
    /// Blocks [`merge_chains`] read (to count predecessors, then as merge
    /// heads) plus instructions it moved: the work the linearity test bounds.
    static MERGE_STEPS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Merges `a → b` when `a` ends in an unconditional branch to `b`, `b` has
/// exactly one predecessor and no phis, and `a`'s branch carries no loop
/// metadata (latches must stay intact for the unroll pass).
pub(crate) fn merge_chains(f: &mut Function, scratch: &mut Scratch) -> bool {
    // Counted once. Splicing `b` into `a` drops the edge `a → b` and moves
    // `b`'s out-edges to `a`, so no other block's count changes — and with
    // it nothing a block already visited was refused for.
    count_preds(f, &mut scratch.pred_count);
    let pred_count = &scratch.pred_count;
    #[cfg(test)]
    MERGE_STEPS.with(|v| v.set(v.get() + f.blocks.len()));
    let mut changed = false;
    // One sweep, in reverse postorder: a block with a single predecessor
    // comes after it, so the head of every chain is reached first, absorbs
    // the whole chain, and each instruction moves once however the blocks
    // are laid out (the unroller creates its copies back to front).
    for &a in scratch.rpo.compute(f) {
        #[cfg(test)]
        MERGE_STEPS.with(|v| v.set(v.get() + 1));
        let ai = a.0 as usize;
        while let Some(&Terminator::Br {
            target: b,
            loop_md: None,
        }) = f.blocks[ai].term.as_ref()
        {
            if b == a || pred_count[b.0 as usize] != 1 || phi_at(f, b, 0).is_some() {
                break;
            }
            // Splice b into a.
            let b_insts = std::mem::take(&mut f.blocks[b.0 as usize].insts);
            let b_term = f.blocks[b.0 as usize].term.replace(Terminator::Unreachable);
            #[cfg(test)]
            MERGE_STEPS.with(|v| v.set(v.get() + b_insts.len()));
            f.blocks[ai].insts.extend(b_insts);
            f.blocks[ai].term = b_term;
            // Phis in b's former successors must re-point their edges to a.
            let succs = f.blocks[ai].term.as_ref().map(Terminator::successors);
            for s in succs.into_iter().flatten() {
                edit_phis(f, s, |incoming| {
                    for (from, _) in incoming.iter_mut().filter(|(from, _)| *from == b) {
                        *from = a;
                    }
                });
            }
            changed = true;
        }
    }
    changed
}

/// The most instructions one arm of a hammock may hold for
/// [`fold_hammocks`] to run them on both paths.
const HAMMOCK_ARM_MAX: usize = 2;

/// LLVM SimplifyCFG's two-entry-phi fold. A conditional branch whose arms
/// — two blocks (a diamond), or one block and the join itself (a triangle)
/// — only it enters, that hold at most [`HAMMOCK_ARM_MAX`] instructions the
/// dead-code rule ([`omplt_ir::arith::removable`]) would let go, and that
/// fall into one join only they enter, becomes a branch to the join: the
/// arms' instructions move up in front of it, and each join phi becomes a
/// `select` on the condition. The arms are left unreachable for the sweep.
pub(crate) fn fold_hammocks(f: &mut Function, scratch: &mut Scratch) -> bool {
    let preds = count_preds(f, &mut scratch.pred_count);
    let mut changed = false;
    for a in 0..f.blocks.len() as u32 {
        let a = BlockId(a);
        let Some(Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
            loop_md: None,
        }) = f.block(a).term
        else {
            continue;
        };
        // The join an arm falls into, if `b` can be one.
        let arm_join = |b: BlockId| {
            let block = f.block(b);
            let Some(Terminator::Br {
                target,
                loop_md: None,
            }) = block.term
            else {
                return None;
            };
            let speculable = |&i: &InstId| {
                let inst = f.inst(i);
                !matches!(inst, Inst::Phi { .. }) && removable(inst, |v| f.value_type(v))
            };
            let arm = b != a && preds[b.0 as usize] == 1 && block.insts.len() <= HAMMOCK_ARM_MAX;
            (arm && block.insts.iter().all(speculable)).then_some(target)
        };
        // Each edge into the join, from an arm or from `a` itself.
        let (from_then, from_else, join) = match (arm_join(then_bb), arm_join(else_bb)) {
            (Some(j), Some(k)) if j == k && then_bb != else_bb => (then_bb, else_bb, j),
            (Some(j), _) if j == else_bb => (then_bb, a, j),
            (_, Some(j)) if j == then_bb => (a, else_bb, j),
            _ => continue,
        };
        if join == a || join == f.entry() || preds[join.0 as usize] != 2 {
            continue;
        }
        for arm in [from_then, from_else].into_iter().filter(|&b| b != a) {
            let moved = std::mem::take(&mut f.block_mut(arm).insts);
            f.block_mut(a).insts.extend(moved);
        }
        let mut k = 0;
        while let Some(phi) = phi_at(f, join, k) {
            let Inst::Phi { incoming, .. } = f.inst(phi) else {
                unreachable!("phi_at returns phis")
            };
            let on = |from: BlockId| incoming.iter().find(|(b, _)| *b == from).map(|e| e.1);
            let (Some(t), Some(fv)) = (on(from_then), on(from_else)) else {
                unreachable!("a join phi has an edge from each arm")
            };
            *f.inst_mut(phi) = Inst::Select { cond, t, f: fv };
            k += 1;
        }
        f.block_mut(a).term = Some(Terminator::Br {
            target: join,
            loop_md: None,
        });
        changed = true;
    }
    changed
}

/// Counts each block's predecessors into `count`, unreachable ones too.
fn count_preds<'a>(f: &Function, count: &'a mut Vec<u32>) -> &'a [u32] {
    count.clear();
    count.resize(f.blocks.len(), 0);
    for t in f.blocks.iter().filter_map(|b| b.term.as_ref()) {
        for s in t.successors() {
            count[s.0 as usize] += 1;
        }
    }
    count
}

/// Applies `edit` to the incoming list of each of `b`'s leading phis.
fn edit_phis(f: &mut Function, b: BlockId, mut edit: impl FnMut(&mut Vec<(BlockId, Value)>)) {
    let mut k = 0;
    while let Some(phi) = phi_at(f, b, k) {
        if let Inst::Phi { incoming, .. } = f.inst_mut(phi) {
            edit(incoming);
        }
        k += 1;
    }
}

/// The `k`th instruction of `b`, if it is one of the block's leading phis.
fn phi_at(f: &Function, b: BlockId, k: usize) -> Option<InstId> {
    let i = *f.block(b).insts.get(k)?;
    matches!(f.inst(i), Inst::Phi { .. }).then_some(i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cleanup::cleanup;
    use omplt_ir::{assert_verified, IrBuilder, IrType};

    #[test]
    fn removes_unreachable_blocks() {
        let mut f = Function::new("t", vec![], IrType::Void);
        let dead = f.add_block("dead");
        f.block_mut(dead).term = Some(Terminator::Ret(None));
        f.block_mut(f.entry()).term = Some(Terminator::Ret(None));
        assert!(cleanup(&mut f));
        assert_eq!(f.blocks.len(), 1);
        assert_verified(&f);
    }

    #[test]
    fn folds_constant_branches_then_sweeps() {
        let mut f = Function::new("t", vec![], IrType::Void);
        let taken = f.add_block("taken");
        let dead = f.add_block("dead");
        f.block_mut(f.entry()).term = Some(Terminator::CondBr {
            cond: Value::bool(true),
            then_bb: taken,
            else_bb: dead,
            loop_md: None,
        });
        f.block_mut(taken).term = Some(Terminator::Ret(None));
        f.block_mut(dead).term = Some(Terminator::Ret(None));
        assert!(cleanup(&mut f));
        // entry+taken merged, dead swept
        assert_eq!(f.blocks.len(), 1);
        assert!(matches!(
            f.block(f.entry()).term,
            Some(Terminator::Ret(None))
        ));
    }

    /// `1 && (x && y)`: the join the constant branch no longer reaches is
    /// still reached from the right-hand side, and must not keep a phi edge
    /// from a block that is no longer its predecessor.
    #[test]
    fn a_folded_branch_takes_its_phi_edge_with_it() {
        let mut f = Function::new("t", vec![IrType::I1], IrType::I1);
        let rhs = f.add_block("rhs");
        let join = f.add_block("join");
        let entry = f.entry();
        {
            let mut b = IrBuilder::new(&mut f);
            b.cond_br(Value::bool(true), rhs, join);
            b.set_insert_point(rhs);
            b.br(join);
            b.set_insert_point(join);
            let (v, phi) = b.phi(IrType::I1);
            b.add_phi_incoming(phi, entry, Value::bool(false));
            b.add_phi_incoming(phi, rhs, Value::Arg(0));
            b.ret(Some(v));
        }
        // Metadata on the folded branch keeps `entry → rhs` from merging, so
        // `join` keeps its phi and `entry` stays a block of its own.
        let md = f
            .block_mut(entry)
            .term
            .as_mut()
            .and_then(Terminator::loop_md_mut);
        *md.unwrap() = Some(omplt_ir::LoopMetadata::default());
        assert!(cleanup(&mut f));
        assert_verified(&f);
    }

    /// `r = arg0 < arg1 ? then(arg0) : else(arg1)`, each arm built by its
    /// closure (`None`: no arm block, the edge goes straight to the join).
    type Arm = Option<fn(&mut IrBuilder<'_>) -> Value>;
    fn hammock(then: Arm, els: Arm) -> Function {
        let mut f = Function::new("h", vec![IrType::I64, IrType::I64], IrType::I64);
        let join = f.add_block("join");
        let mut b = IrBuilder::new(&mut f);
        let c = b.cmp(omplt_ir::CmpPred::Slt, Value::Arg(0), Value::Arg(1));
        let mut edges = Vec::new();
        let mut targets = [join; 2];
        for (k, (arm, default)) in [(then, Value::Arg(0)), (els, Value::Arg(1))]
            .iter()
            .enumerate()
        {
            let Some(arm) = arm else {
                edges.push((b.func().entry(), *default));
                continue;
            };
            let at = b.create_block("arm");
            targets[k] = at;
            let back = b.insert_block();
            b.set_insert_point(at);
            let v = arm(&mut b);
            b.br(join);
            b.set_insert_point(back);
            edges.push((at, v));
        }
        b.cond_br(c, targets[0], targets[1]);
        b.set_insert_point(join);
        let (r, phi) = b.phi(IrType::I64);
        for (from, v) in edges {
            b.add_phi_incoming(phi, from, v);
        }
        b.ret(Some(r));
        assert_verified(&f);
        f
    }

    fn selects(f: &Function) -> usize {
        let insts = f.blocks.iter().flat_map(|b| &b.insts);
        insts
            .filter(|&&i| matches!(f.inst(i), Inst::Select { .. }))
            .count()
    }

    #[test]
    fn a_diamond_and_a_triangle_of_arithmetic_become_a_select() {
        let plus: fn(&mut IrBuilder<'_>) -> Value = |b| b.add(Value::Arg(0), Value::i64(4));
        let times: fn(&mut IrBuilder<'_>) -> Value = |b| b.mul(Value::Arg(1), Value::Arg(0));
        for (then, els) in [
            (Some(plus), Some(times)),
            (Some(plus), None),
            (None, Some(times)),
        ] {
            let mut f = hammock(then, els);
            assert!(cleanup(&mut f));
            assert_verified(&f);
            assert_eq!((f.blocks.len(), selects(&f)), (1, 1));
        }
    }

    #[test]
    fn an_arm_holding_a_trapping_division_or_a_call_is_not_folded() {
        let div: fn(&mut IrBuilder<'_>) -> Value = |b| b.sdiv(Value::Arg(0), Value::Arg(1));
        let call: fn(&mut IrBuilder<'_>) -> Value =
            |b| b.call(omplt_ir::SymbolId(0), vec![], IrType::I64);
        let long: fn(&mut IrBuilder<'_>) -> Value = |b| {
            let x = b.add(Value::Arg(0), Value::i64(1));
            let y = b.add(x, Value::i64(2));
            b.add(y, Value::i64(3))
        };
        for arm in [div, call, long] {
            let mut f = hammock(Some(arm), None);
            cleanup(&mut f);
            assert_verified(&f);
            assert_eq!((f.blocks.len(), selects(&f)), (3, 0));
        }
    }

    #[test]
    fn merges_straight_chains_but_keeps_latches() {
        use omplt_ir::{LoopMetadata, UnrollHint};
        let mut f = Function::new("t", vec![], IrType::Void);
        let mid = f.add_block("mid");
        let end = f.add_block("end");
        {
            let mut b = IrBuilder::new(&mut f);
            b.br(mid);
            b.set_insert_point(mid);
            let p = b.alloca(IrType::I64, 1, "x");
            b.store(Value::i64(1), p);
            // metadata-carrying branch must NOT be merged away
            b.br_with_md(end, LoopMetadata::unroll(UnrollHint::Count(2)));
            b.set_insert_point(end);
            b.ret(None);
        }
        cleanup(&mut f);
        // entry+mid merged; end survives because the branch has metadata.
        assert_eq!(f.blocks.len(), 2);
        let t = f.block(f.entry()).term.as_ref().unwrap();
        assert!(t.loop_md().is_some(), "metadata must survive the merge");
        assert_verified(&f);
    }

    #[test]
    fn phi_edges_follow_merges() {
        let mut f = Function::new("t", vec![], IrType::Void);
        // entry → a → join ; entry → join   with a phi in join
        let a = f.add_block("a");
        let pre_join = f.add_block("pre_join");
        let join = f.add_block("join");
        {
            let mut b = IrBuilder::new(&mut f);
            let c_ptr = b.alloca(IrType::I1, 1, "c");
            let c = b.load(IrType::I1, c_ptr);
            b.cond_br(c, a, pre_join);
            b.set_insert_point(a);
            b.br(join);
            b.set_insert_point(pre_join);
            // pre_join is a trivial hop that will merge into... it has one
            // pred (entry) but entry's terminator is conditional, so it
            // stays; instead a → join may merge if join had one pred — it
            // has two. Build the phi and check edges stay valid.
            b.br(join);
            b.set_insert_point(join);
            let (_, phi) = b.phi(IrType::I64);
            b.add_phi_incoming(phi, a, Value::i64(1));
            b.add_phi_incoming(phi, pre_join, Value::i64(2));
            b.ret(None);
        }
        cleanup(&mut f);
        assert_verified(&f);
    }

    /// `entry → c1 → … → c(n-1): ret`, where chain position `k` is stored at
    /// block index `index_of(k)`; every block stores its position to a slot
    /// so the merged order is readable.
    fn chain(n: usize, index_of: impl Fn(usize) -> usize) -> Function {
        let mut f = Function::new("t", vec![], IrType::Void);
        for k in 1..n {
            f.add_block(format!("c{k}"));
        }
        let at = |k: usize| BlockId(index_of(k) as u32);
        let mut b = IrBuilder::new(&mut f);
        b.set_insert_point(at(0));
        let slot = b.alloca(IrType::I64, 1, "x");
        for k in 0..n {
            b.set_insert_point(at(k));
            b.store(Value::i64(k as i64), slot);
            if k + 1 < n {
                b.br(at(k + 1));
            } else {
                b.ret(None);
            }
        }
        f
    }

    /// Makes `b`'s branch a latch's: it carries loop metadata.
    fn mark_latch(f: &mut Function, b: BlockId) -> omplt_ir::LoopMetadata {
        let md = omplt_ir::LoopMetadata::unroll(omplt_ir::UnrollHint::Disable);
        *f.block_mut(b).term.as_mut().unwrap().loop_md_mut().unwrap() = Some(md);
        md
    }

    /// The constants `b` stores, in order.
    fn stored(f: &Function, b: BlockId) -> Vec<i64> {
        let stores = f.block(b).insts.iter().filter_map(|&i| match f.inst(i) {
            Inst::Store { val, .. } => val.as_const_int(),
            _ => None,
        });
        stores.collect()
    }

    fn steps_of(f: &mut Function) -> usize {
        MERGE_STEPS.with(|s| s.set(0));
        assert!(merge_chains(f, &mut Scratch::default()));
        MERGE_STEPS.with(|s| s.get())
    }

    #[test]
    fn a_long_chain_merges_in_one_linear_sweep() {
        const N: usize = 10_000;
        // Every block is read twice (predecessor count, sweep) and every
        // instruction moves at most once.
        let linear = |steps: usize| assert!(steps <= 3 * N, "{steps} steps for {N} blocks");
        let in_order = (0..N as i64).collect::<Vec<_>>();

        let mut f = chain(N, |k| k);
        linear(steps_of(&mut f));
        assert_eq!(stored(&f, f.entry()), in_order);
        let again = merge_chains(&mut f, &mut Scratch::default());
        assert!(!again, "one sweep reaches the fixpoint");
        assert!(cleanup(&mut f));
        assert_eq!(f.blocks.len(), 1);
        assert_verified(&f);

        // What the unroller leaves: copies created back to front — the head
        // of the chain has the highest index — behind a block that cannot
        // absorb them.
        let mut f = chain(N, |k| if k == 0 { 0 } else { N - k });
        let entry = f.entry();
        mark_latch(&mut f, entry);
        linear(steps_of(&mut f));
        assert_eq!(stored(&f, entry), [0]);
        assert_eq!(stored(&f, BlockId(N as u32 - 1)), in_order[1..]);
        assert!(cleanup(&mut f));
        assert_eq!(f.blocks.len(), 2);
        assert_verified(&f);
    }

    #[test]
    fn a_phi_and_a_latch_each_end_a_chain() {
        // entry → c1 → c2 → c3 → c4 → c5: c2's branch carries loop metadata,
        // c4 starts with a phi. Three chains: {entry, c1, c2}, {c3}, {c4, c5}.
        let mut f = chain(6, |k| k);
        let md = mark_latch(&mut f, BlockId(2));
        let phi = Inst::Phi {
            ty: IrType::I64,
            incoming: vec![(BlockId(3), Value::i64(7))],
        };
        let Value::Inst(phi) = f.prepend_inst(BlockId(4), phi) else {
            panic!("a phi is an instruction");
        };
        assert!(merge_chains(&mut f, &mut Scratch::default()));
        let entry = f.block(f.entry());
        assert_eq!(stored(&f, f.entry()), [0, 1, 2]);
        assert_eq!(entry.term.as_ref().unwrap().loop_md(), Some(&md));
        let live = |b: u32| f.block(BlockId(b)).term != Some(Terminator::Unreachable);
        assert_eq!([1, 2, 3, 4, 5].map(live), [false, false, true, true, false]);
        // c3 kept its own edge into the phi: nothing was spliced into it.
        assert!(matches!(f.inst(phi), Inst::Phi { incoming, .. } if incoming[0].0 == BlockId(3)));
        assert_eq!(stored(&f, BlockId(4)), [4, 5]);
        // The cleanup also drops the unused phi, so c3 absorbs {c4, c5}.
        assert!(cleanup(&mut f));
        assert_eq!(f.blocks.len(), 2);
        assert_verified(&f);
    }
}
