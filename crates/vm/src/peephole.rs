//! Pre-regalloc peephole optimization over the flat op stream.
//!
//! The lowerer's output is deliberately naive: promoted `alloca` slots turn
//! every load/store into a `Mov`, phi edges add more copies, and each
//! loop latch is a `Cmp` feeding a `Br`. In the hot dense-arithmetic loops
//! the VM exists for, roughly a third of the retired ops were copies —
//! dispatch overhead with no work attached. Four stages fix that:
//!
//! 1. **Copy propagation** (block-local): uses of a `Mov` destination are
//!    rewritten to its source until either register is redefined, so the
//!    copies lose their consumers.
//! 2. **Dead-op elimination** (global liveness, to fixpoint): side-effect-free
//!    ops whose destination is dead are deleted. Ops the interpreter could
//!    trap on (`sdiv`/`urem`/… by zero, non-additive pointer arithmetic) are
//!    kept even when dead — deleting them would make the VM succeed where the
//!    interpreter errors, breaking the differential oracle.
//! 3. **Compare/branch fusion**: a `Cmp` immediately feeding the block's
//!    `Br`, with no other consumer, becomes one [`Op::CmpBr`].
//! 4. **Fallthrough-jump elision**: a `Jmp` to the op that physically
//!    follows it, when that target has no other incoming edge, is deleted
//!    and the two blocks merge.
//! 5. **Arithmetic/jump fusion**: a `Bin` immediately preceding its block's
//!    surviving `Jmp` becomes one [`Op::BinJmp`] — the canonical loop latch
//!    (`i = i + step; jmp header`) in one dispatch. This runs *after* stage 4
//!    so a jump that can be elided outright is, and only real backedges fuse.
//!
//! Deletion is mark-then-compact: stages only set a `dead` mask, and a final
//! sweep drops marked ops while remapping every jump target and block start.
//! That remap is exact because the lowerer registers *every* branch target
//! (including phi-copy trampolines) as a block start, terminators are never
//! deleted, and therefore each block keeps at least one op.

use crate::ops::{Op, Reg, VmFunction};
use crate::regalloc::{block_ranges, liveness, successors};
use omplt_ir::{BinOpKind, IrType};

/// Runs the full pipeline in place; returns the number of ops removed.
pub fn optimize(f: &mut VmFunction) -> usize {
    if f.ops.is_empty() {
        return 0;
    }
    copy_propagate(f);
    let mut dead = vec![false; f.ops.len()];
    while eliminate_dead(f, &mut dead) {}
    coalesce_defs(f, &mut dead);
    fuse_cmp_br(f, &mut dead);
    elide_fallthrough_jumps(f, &mut dead);
    fuse_bin_jmp(f, &mut dead);
    compact(f, &dead)
}

/// True when deleting a dead instance of `op` cannot change observable
/// behavior. Loads (out-of-bounds), calls, stores, and allocas stay; so do
/// integer div/rem (`DivByZero`) and non-additive pointer arithmetic, which
/// the shared `exec_bin` traps on — the interpreter oracle would too.
fn removable(op: Op) -> bool {
    match op {
        Op::Const { .. }
        | Op::Mov { .. }
        | Op::Gep { .. }
        | Op::Cmp { .. }
        | Op::Cast { .. }
        | Op::Select { .. } => true,
        Op::Bin { op, ty, .. } => {
            let may_trap_zero = matches!(
                op,
                BinOpKind::SDiv | BinOpKind::UDiv | BinOpKind::SRem | BinOpKind::URem
            );
            let may_trap_ptr = ty == IrType::Ptr && !matches!(op, BinOpKind::Add | BinOpKind::Sub);
            !may_trap_zero && !may_trap_ptr
        }
        _ => false,
    }
}

/// Block-local copy propagation: after `dst = mov src`, later reads of `dst`
/// become reads of `src` (chased to the root of a copy chain) until either
/// side is redefined. The `Mov`s themselves are left for DCE to collect.
fn copy_propagate(f: &mut VmFunction) {
    let n = f.num_regs as usize;
    // Generation-stamped map: `copy_of[r]` is meaningful only when
    // `gen_of[r] == cur_gen`, so resetting per block is O(1).
    let mut copy_of: Vec<Reg> = vec![0; n];
    let mut gen_of: Vec<u32> = vec![0; n];
    let mut cur_gen: u32 = 0;
    // Keys recorded in the current block, for O(block) invalidation on defs.
    let mut recorded: Vec<Reg> = Vec::new();

    for (start, end) in block_ranges(f) {
        cur_gen += 1;
        recorded.clear();
        for pc in start..end {
            let op = &mut f.ops[pc];
            op.map_uses(&mut f.call_args, |r| {
                if gen_of[r as usize] == cur_gen {
                    copy_of[r as usize]
                } else {
                    r
                }
            });
            if let Some(d) = op.def() {
                // `d` is overwritten: forget copies *of* it and *into* it.
                gen_of[d as usize] = 0;
                for &k in &recorded {
                    if gen_of[k as usize] == cur_gen && copy_of[k as usize] == d {
                        gen_of[k as usize] = 0;
                    }
                }
            }
            if let Op::Mov { dst, src } = *op {
                if dst != src {
                    // `src` was already rewritten to its root above.
                    copy_of[dst as usize] = src;
                    gen_of[dst as usize] = cur_gen;
                    recorded.push(dst);
                }
            }
        }
    }
}

/// One backward DCE sweep over live ops; returns true if anything new died.
fn eliminate_dead(f: &VmFunction, dead: &mut [bool]) -> bool {
    let n = f.num_regs as usize;
    let ranges = block_ranges(f);
    let succs = successors(f, &ranges);
    let (_, live_out) = liveness(f, n, &ranges, &succs, |pc| dead[pc]);
    let mut changed = false;
    for (b, &(start, end)) in ranges.iter().enumerate() {
        let mut live = live_out[b].clone();
        for pc in (start..end).rev() {
            if dead[pc] {
                continue;
            }
            let op = f.ops[pc];
            // A self-copy is a no-op whether or not its register is live.
            let self_mov = matches!(op, Op::Mov { dst, src } if dst == src);
            let dead_def =
                matches!(op.def(), Some(d) if !live.contains(d as usize)) && removable(op);
            if self_mov || dead_def {
                dead[pc] = true;
                changed = true;
                continue;
            }
            if let Some(d) = op.def() {
                live.remove(d as usize);
            }
            op.for_each_use(&f.call_args, |r| live.insert(r as usize));
        }
    }
    changed
}

/// Coalesces `d = <op> …; s = mov d` into `s = <op> …` when `d` dies at the
/// `Mov` — the "write the result back into the promoted slot" pattern every
/// loop-carried variable produces. Safe because every op reads its operands
/// before writing its destination, so `<op>` may freely read `s`'s old value.
fn coalesce_defs(f: &mut VmFunction, dead: &mut [bool]) {
    let n = f.num_regs as usize;
    let ranges = block_ranges(f);
    let succs = successors(f, &ranges);
    let (_, live_out) = liveness(f, n, &ranges, &succs, |pc| dead[pc]);
    for (b, &(start, end)) in ranges.iter().enumerate() {
        let mut live = live_out[b].clone();
        let pcs: Vec<usize> = (start..end).rev().filter(|&pc| !dead[pc]).collect();
        for (i, &pc) in pcs.iter().enumerate() {
            let op = f.ops[pc];
            if let Op::Mov { dst: s, src: d } = op {
                let prev = pcs.get(i + 1);
                let coalescable = s != d
                    && !live.contains(d as usize)
                    && f.reg_class[s as usize] == f.reg_class[d as usize]
                    && prev.is_some_and(|&q| f.ops[q].def() == Some(d));
                if coalescable {
                    f.ops[*prev.expect("checked above")].set_def(s);
                    dead[pc] = true;
                    // The Mov contributes nothing to liveness now; `q` is
                    // processed next with its rewritten destination.
                    continue;
                }
            }
            if let Some(dd) = op.def() {
                live.remove(dd as usize);
            }
            op.for_each_use(&f.call_args, |r| live.insert(r as usize));
        }
    }
}

/// Fuses `dst = cmp …; br dst, T, E` into `cmpbr …, T, E` when the `Cmp`
/// immediately precedes its block's `Br` (among live ops) and `dst` has no
/// other consumer (`dst` not live out of the block).
fn fuse_cmp_br(f: &mut VmFunction, dead: &mut [bool]) {
    let n = f.num_regs as usize;
    let ranges = block_ranges(f);
    let succs = successors(f, &ranges);
    let (_, live_out) = liveness(f, n, &ranges, &succs, |pc| dead[pc]);
    for (b, &(start, end)) in ranges.iter().enumerate() {
        let mut live = (start..end).rev().filter(|&pc| !dead[pc]);
        let (Some(t), Some(p)) = (live.next(), live.next()) else {
            continue;
        };
        let Op::Br {
            cond,
            then_t,
            else_t,
        } = f.ops[t]
        else {
            continue;
        };
        let Op::Cmp {
            pred,
            ty,
            dst,
            lhs,
            rhs,
        } = f.ops[p]
        else {
            continue;
        };
        if dst != cond || live_out[b].contains(dst as usize) {
            continue;
        }
        f.ops[t] = Op::CmpBr {
            pred,
            ty,
            lhs,
            rhs,
            then_t,
            else_t,
        };
        dead[p] = true;
    }
}

/// Fuses `dst = <op> …; jmp T` into `binjmp` when the `Bin` immediately
/// precedes its block's `Jmp` among live ops. No liveness condition: the
/// fused op still defines `dst`, and a trapping `Bin` (div/rem) traps
/// identically before the jump would have been taken.
fn fuse_bin_jmp(f: &mut VmFunction, dead: &mut [bool]) {
    for (start, end) in block_ranges(f) {
        let mut live = (start..end).rev().filter(|&pc| !dead[pc]);
        let (Some(t), Some(p)) = (live.next(), live.next()) else {
            continue;
        };
        let Op::Jmp { target } = f.ops[t] else {
            continue;
        };
        let Op::Bin {
            op,
            ty,
            dst,
            lhs,
            rhs,
        } = f.ops[p]
        else {
            continue;
        };
        f.ops[t] = Op::BinJmp {
            op,
            ty,
            dst,
            lhs,
            rhs,
            target,
        };
        dead[p] = true;
    }
}

/// Deletes `jmp` ops that target the instruction physically following them
/// when nothing else jumps there, merging the two blocks. (RPO linearization
/// makes loop bodies fall through to their latch, so these are common.)
fn elide_fallthrough_jumps(f: &mut VmFunction, dead: &mut [bool]) {
    // Incoming-edge counts per target offset, over live ops only.
    let mut incoming: Vec<u32> = vec![0; f.ops.len()];
    for (pc, op) in f.ops.iter().enumerate() {
        if dead[pc] {
            continue;
        }
        op.for_each_target(|t| incoming[t as usize] += 1);
    }
    let mut merged_starts: Vec<u32> = Vec::new();
    for (pc, (op, d)) in f.ops.iter().zip(dead.iter_mut()).enumerate() {
        if *d {
            continue;
        }
        let Op::Jmp { target } = *op else {
            continue;
        };
        // `Jmp` is a terminator, so `target == pc + 1` means the next block
        // starts right after it; one incoming edge means this is that edge.
        if target as usize == pc + 1
            && incoming[target as usize] == 1
            && f.block_starts.binary_search(&target).is_ok()
        {
            *d = true;
            merged_starts.push(target);
        }
    }
    f.block_starts.retain(|s| !merged_starts.contains(s));
}

/// Drops marked ops and remaps every jump target and block start. Targets
/// are always block starts and terminators are never marked, so each block
/// retains at least one op and the remapped starts stay strictly sorted.
fn compact(f: &mut VmFunction, dead: &[bool]) -> usize {
    let removed = dead.iter().filter(|&&d| d).count();
    if removed == 0 {
        return 0;
    }
    let mut new_off: Vec<u32> = Vec::with_capacity(f.ops.len());
    let mut kept: u32 = 0;
    for &d in dead {
        new_off.push(kept);
        kept += u32::from(!d);
    }
    for op in &mut f.ops {
        op.map_targets(|t| new_off[t as usize]);
    }
    let mut i = 0;
    f.ops.retain(|_| {
        let keep = !dead[i];
        i += 1;
        keep
    });
    for s in &mut f.block_starts {
        *s = new_off[*s as usize];
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{PoolConst, RegClass};
    use omplt_interp::RtVal;
    use omplt_ir::{CmpPred, IrType};

    fn func(ops: Vec<Op>, classes: Vec<RegClass>, block_starts: Vec<u32>) -> VmFunction {
        VmFunction {
            name: "t".into(),
            params: vec![],
            num_regs: classes.len() as u16,
            reg_class: classes,
            num_vregs: 0,
            vreg_class: vec![],
            vreg_width: vec![],
            ops,
            consts: vec![PoolConst::Val(RtVal::I(1))],
            call_args: vec![],
            call_targets: vec![],
            block_starts,
            ret: IrType::I64,
        }
    }

    #[test]
    fn copies_are_propagated_and_collected() {
        // r0 = const; r1 = mov r0; r2 = r1 + r1; ret r2
        let mut f = func(
            vec![
                Op::Const { dst: 0, idx: 0 },
                Op::Mov { dst: 1, src: 0 },
                Op::Bin {
                    op: BinOpKind::Add,
                    ty: IrType::I64,
                    dst: 2,
                    lhs: 1,
                    rhs: 1,
                },
                Op::Ret { src: Some(2) },
            ],
            vec![RegClass::Int; 3],
            vec![0],
        );
        let removed = optimize(&mut f);
        assert_eq!(removed, 1, "the mov must die:\n{}", crate::ops::disasm(&f));
        assert!(matches!(f.ops[1], Op::Bin { lhs: 0, rhs: 0, .. }));
    }

    #[test]
    fn copy_map_invalidated_when_source_is_redefined() {
        // r1 = mov r0; r0 = const; r2 = r1 + r1 — r1 must NOT become r0.
        let mut f = func(
            vec![
                Op::Const { dst: 0, idx: 0 },
                Op::Mov { dst: 1, src: 0 },
                Op::Const { dst: 0, idx: 0 },
                Op::Bin {
                    op: BinOpKind::Add,
                    ty: IrType::I64,
                    dst: 2,
                    lhs: 1,
                    rhs: 1,
                },
                Op::Ret { src: Some(2) },
            ],
            vec![RegClass::Int; 3],
            vec![0],
        );
        optimize(&mut f);
        let bin = f.ops.iter().find(|o| matches!(o, Op::Bin { .. })).unwrap();
        assert!(matches!(bin, Op::Bin { lhs: 1, rhs: 1, .. }), "{bin:?}");
    }

    #[test]
    fn dead_division_survives() {
        // r2 = r0 / r1 is dead but may trap on r1 == 0: it must be kept.
        let mut f = func(
            vec![
                Op::Const { dst: 0, idx: 0 },
                Op::Const { dst: 1, idx: 0 },
                Op::Bin {
                    op: BinOpKind::SDiv,
                    ty: IrType::I64,
                    dst: 2,
                    lhs: 0,
                    rhs: 1,
                },
                Op::Ret { src: Some(0) },
            ],
            vec![RegClass::Int; 3],
            vec![0],
        );
        optimize(&mut f);
        assert!(
            f.ops.iter().any(|o| matches!(
                o,
                Op::Bin {
                    op: BinOpKind::SDiv,
                    ..
                }
            )),
            "dead sdiv was deleted:\n{}",
            crate::ops::disasm(&f)
        );
    }

    #[test]
    fn loop_carried_writeback_is_coalesced() {
        // Loop body: r2 = r1 + r0; r1 = mov r2; r3 = r0 < r0; br r3.
        // The Bin must absorb the Mov (write r1 directly) and the Cmp must
        // fuse into the branch. (The compare deliberately avoids r1/r2:
        // copy propagation would rewrite a read of r1 into r2, keeping r2
        // live past the Mov and rightly blocking the coalesce.)
        let mut f = func(
            vec![
                Op::Const { dst: 0, idx: 0 },
                Op::Const { dst: 1, idx: 0 },
                Op::Jmp { target: 3 },
                Op::Bin {
                    op: BinOpKind::Add,
                    ty: IrType::I64,
                    dst: 2,
                    lhs: 1,
                    rhs: 0,
                },
                Op::Mov { dst: 1, src: 2 },
                Op::Cmp {
                    pred: CmpPred::Slt,
                    ty: IrType::I64,
                    dst: 3,
                    lhs: 0,
                    rhs: 0,
                },
                Op::Br {
                    cond: 3,
                    then_t: 3,
                    else_t: 7,
                },
                Op::Ret { src: Some(1) },
            ],
            vec![RegClass::Int; 4],
            vec![0, 3, 7],
        );
        let removed = optimize(&mut f);
        assert_eq!(removed, 2, "{}", crate::ops::disasm(&f));
        assert!(
            f.ops.iter().any(|o| matches!(
                o,
                Op::Bin {
                    dst: 1,
                    lhs: 1,
                    rhs: 0,
                    ..
                }
            )),
            "{}",
            crate::ops::disasm(&f)
        );
        assert!(!f.ops.iter().any(|o| matches!(o, Op::Mov { .. })));
        assert!(crate::verify::verify_function(&f, 1).is_empty());
    }

    #[test]
    fn cmp_feeding_branch_is_fused() {
        // Loop: r1 += r0; r2 = r1 < r0; br r2 ? loop : exit.
        let mut f = func(
            vec![
                Op::Const { dst: 0, idx: 0 },
                Op::Const { dst: 1, idx: 0 },
                Op::Jmp { target: 3 },
                Op::Bin {
                    op: BinOpKind::Add,
                    ty: IrType::I64,
                    dst: 1,
                    lhs: 1,
                    rhs: 0,
                },
                Op::Cmp {
                    pred: CmpPred::Slt,
                    ty: IrType::I64,
                    dst: 2,
                    lhs: 1,
                    rhs: 0,
                },
                Op::Br {
                    cond: 2,
                    then_t: 3,
                    else_t: 6,
                },
                Op::Ret { src: Some(1) },
            ],
            vec![RegClass::Int; 3],
            vec![0, 3, 6],
        );
        let removed = optimize(&mut f);
        // The Cmp dies into the fused op. (The entry Jmp stays: its target
        // also has the loop backedge, so the blocks cannot merge.)
        assert_eq!(removed, 1, "{}", crate::ops::disasm(&f));
        assert!(f.ops.iter().any(|o| matches!(
            o,
            Op::CmpBr {
                pred: CmpPred::Slt,
                then_t: 3,
                else_t: 5,
                ..
            }
        )));
        assert!(!f
            .ops
            .iter()
            .any(|o| matches!(o, Op::Cmp { .. } | Op::Br { .. })));
        // Block structure stays verifier-clean after the remap.
        assert!(crate::verify::verify_function(&f, 1).is_empty());
    }

    #[test]
    fn latch_bin_fuses_into_backedge_jump() {
        // header: cmpbr → body | exit; body: r1 += r0; jmp header.
        // The backedge cannot be elided (the header has two predecessors),
        // so the latch Bin must fuse into it.
        let mut f = func(
            vec![
                Op::Const { dst: 0, idx: 0 },
                Op::Const { dst: 1, idx: 0 },
                Op::Jmp { target: 3 },
                Op::CmpBr {
                    pred: CmpPred::Slt,
                    ty: IrType::I64,
                    lhs: 1,
                    rhs: 0,
                    then_t: 4,
                    else_t: 6,
                },
                Op::Bin {
                    op: BinOpKind::Add,
                    ty: IrType::I64,
                    dst: 1,
                    lhs: 1,
                    rhs: 0,
                },
                Op::Jmp { target: 3 },
                Op::Ret { src: Some(1) },
            ],
            vec![RegClass::Int; 2],
            vec![0, 3, 4, 6],
        );
        let removed = optimize(&mut f);
        assert_eq!(removed, 1, "{}", crate::ops::disasm(&f));
        assert!(
            f.ops.iter().any(|o| matches!(
                o,
                Op::BinJmp {
                    op: BinOpKind::Add,
                    dst: 1,
                    target: 3,
                    ..
                }
            )),
            "{}",
            crate::ops::disasm(&f)
        );
        assert!(!f.ops.iter().any(|o| matches!(o, Op::Bin { .. })));
        assert!(crate::verify::verify_function(&f, 1).is_empty());
    }

    #[test]
    fn fallthrough_jump_with_other_predecessor_is_kept() {
        // Block 1 is both the fallthrough of block 0 *and* a branch target
        // from block 2 — the jmp cannot be elided.
        let mut f = func(
            vec![
                Op::Const { dst: 0, idx: 0 },
                Op::Jmp { target: 2 },
                Op::Const { dst: 1, idx: 0 },
                Op::Ret { src: Some(1) },
                Op::Jmp { target: 2 },
            ],
            vec![RegClass::Int; 2],
            vec![0, 2, 4],
        );
        optimize(&mut f);
        assert!(
            f.ops.iter().filter(|o| matches!(o, Op::Jmp { .. })).count() >= 2,
            "jmp into a shared block was elided:\n{}",
            crate::ops::disasm(&f)
        );
    }
}
