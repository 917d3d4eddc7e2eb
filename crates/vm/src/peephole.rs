//! Pre-regalloc peephole optimization over the flat op stream.
//!
//! The lowerer's output is deliberately naive: promoted `alloca` slots turn
//! every load/store into a `Mov`, phi edges add more copies, and each
//! loop latch is a `Cmp` feeding a `Br`. In the hot dense-arithmetic loops
//! the VM exists for, roughly a third of the retired ops were copies —
//! dispatch overhead with no work attached. Six stages fix that:
//!
//! 1. **Copy propagation** (block-local): uses of a `Mov` destination are
//!    rewritten to its source until either register is redefined, so the
//!    copies lose their consumers.
//! 2. **Dead-op elimination** (global liveness, to fixpoint): side-effect-free
//!    ops whose destination is dead are deleted. Ops the interpreter could
//!    trap on (`sdiv`/`urem`/… by zero, non-additive pointer arithmetic) are
//!    kept even when dead — deleting them would make the VM succeed where the
//!    interpreter errors, breaking the differential oracle.
//! 3. **Writeback coalescing**: `d = <op> …; s = mov d` with `d` dead after
//!    the `Mov` becomes `s = <op> …`.
//! 4. **Compare/branch fusion**: a `Cmp` immediately feeding the block's
//!    `Br`, with no other consumer, becomes one [`Op::CmpBr`].
//! 5. **Fallthrough-jump elision**: a `Jmp` to the op that physically
//!    follows it, when that target has no other incoming edge, is deleted
//!    and the two blocks merge.
//! 6. **Arithmetic/jump fusion**: a `Bin` immediately preceding its block's
//!    surviving `Jmp` becomes one [`Op::BinJmp`] — the canonical loop latch
//!    (`i = i + step; jmp header`) in one dispatch. This runs *after* stage 5
//!    so a jump that can be elided outright is, and only real backedges fuse.
//!
//! Deletion is mark-then-compact: stages only set a `dead` mask, and a final
//! sweep drops marked ops while remapping every jump target and block start.
//! That remap is exact because the lowerer registers *every* branch target
//! (including phi-copy trampolines) as a block start, terminators are never
//! deleted, and therefore each block keeps at least one op.
//!
//! The stages share one [`Analysis`]: the CFG is read off the terminators
//! once (no stage before 5 moves an edge, and 5 remaps it), and liveness is
//! solved once per dead-op sweep and never again — [`optimize_in`] says why
//! the last sweep's solve still holds for stages 3 and 4 and, remapped, for
//! the register allocator. The `dead` mask, the backward walks' live row,
//! the copy map, the edge counts, the merge mask and the compaction offsets
//! are `Analysis` buffers too, reused from function to function.

use crate::ops::{Op, Reg, VmFunction};
use crate::regalloc::{bit_clear, bit_set, bit_test, block_range, Analysis, Liveness};
use omplt_ir::arith;

/// Runs the full pipeline in place; returns the number of ops removed.
pub fn optimize(f: &mut VmFunction) -> usize {
    optimize_in(f, &mut Analysis::default())
}

/// [`optimize`] with the caller's workspace; leaves in `a` the CFG and the
/// block-level liveness of the function as returned, for
/// [`crate::regalloc::allocate_in`].
///
/// Dead-op elimination stays an iterated *plain*-liveness fixpoint: each
/// sweep solves, deletes what that solution calls dead, and repeats until a
/// sweep deletes nothing. (Strong/faint liveness would finish in one solve,
/// but it also deletes dead cyclic chains — `a = b; b = a` around a loop —
/// that this fixpoint keeps, i.e. it would change the emitted code.) The
/// last sweep's solve is therefore exact for the op stream it leaves
/// behind, and no later stage moves a block's live-in or live-out:
///
/// * writeback coalescing renames the def of `d = <op>` to `s` and deletes
///   `s = mov d`. `d` is dead after the `Mov`, so either it is not live-out
///   of the block or a later op of the block redefines it (it stays in the
///   block's kill set); the two ops are adjacent and an op reads before it
///   writes, so the uses exposed at the block's top are the same, and `s`
///   is still defined at that point of the block;
/// * compare/branch fusion deletes a `Cmp` whose result the adjacent `Br`
///   alone read and which is not live-out: the fused op reads the `Cmp`'s
///   operands where the `Cmp` did, and the one register that leaves the
///   kill set was not live-out to begin with;
/// * a merged block is live-in what its first block was and live-out what
///   its last block was ([`Analysis::merge_blocks`]); arithmetic/jump fusion
///   keeps def and uses inside one block; compaction moves offsets only.
///
/// In each case the old solution still satisfies the new equations and —
/// the only change being a register that leaves a kill set it was never
/// live-out of — iterating from empty sets reaches it again, so it is the
/// least fixpoint a fresh solve would return. Debug builds assert exactly
/// that at every hand-off ([`Analysis::is_current`]).
pub(crate) fn optimize_in(f: &mut VmFunction, a: &mut Analysis) -> usize {
    if f.ops.is_empty() {
        return 0;
    }
    a.cfg.build(f);
    copy_propagate(f, &mut a.copies);
    a.dead.clear();
    a.dead.resize(f.ops.len(), false);
    loop {
        a.live.solve(f, &a.cfg, &a.dead);
        if !eliminate_dead(f, &a.live, &mut a.dead, &mut a.row) {
            break;
        }
    }
    coalesce_defs(f, &a.live, &mut a.dead, &mut a.row);
    debug_assert!(a.is_current(f, &a.dead), "@{}: coalesce_defs", f.name);
    fuse_cmp_br(f, &a.live, &mut a.dead);
    debug_assert!(a.is_current(f, &a.dead), "@{}: fuse_cmp_br", f.name);
    elide_fallthrough_jumps(f, a);
    fuse_bin_jmp(f, &mut a.dead);
    compact(f, &a.dead, &mut a.new_off)
}

/// True when deleting a dead instance of `op` cannot change observable
/// behavior. Loads (out-of-bounds), calls, stores, and allocas stay; so does
/// a `Bin` the shared kernel can trap on ([`arith::may_trap`]) — the
/// interpreter oracle would too.
fn removable(op: Op) -> bool {
    match op {
        Op::Const { .. }
        | Op::Mov { .. }
        | Op::Gep { .. }
        | Op::Cmp { .. }
        | Op::Cast { .. }
        | Op::Select { .. } => true,
        Op::Bin { op, ty, .. } => !arith::may_trap(op, ty),
        _ => false,
    }
}

#[cfg(test)]
thread_local! {
    /// Copy-map entries [`copy_propagate`] visited to invalidate them, summed
    /// over its defs: the work the linearity test bounds.
    static INVALIDATION_STEPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// What [`copy_propagate`] knows about one register.
#[derive(Clone, Copy, Default)]
pub(crate) struct CopyEntry {
    /// The register this one is a copy of — if `recorded_in` is the current
    /// block and `src_stamp` is still `copy_of`'s `def_stamp`.
    copy_of: Reg,
    /// Block generation in which the copy was recorded (0: none; a def of
    /// this register resets it), so resetting per block is O(1).
    recorded_in: u32,
    /// `copy_of`'s `def_stamp` when the copy was recorded.
    src_stamp: u32,
    /// Bumped to a fresh value by every def of this register, which
    /// invalidates every copy *of* it in O(1).
    def_stamp: u32,
}

/// Block-local copy propagation: after `dst = mov src`, later reads of `dst`
/// become reads of `src` (chased to the root of a copy chain) until either
/// side is redefined. The `Mov`s themselves are left for DCE to collect.
fn copy_propagate(f: &mut VmFunction, regs: &mut Vec<CopyEntry>) {
    regs.clear();
    regs.resize(f.num_regs as usize, CopyEntry::default());
    let mut cur_block: u32 = 0;
    let mut clock: u32 = 0;
    for b in 0..f.block_starts.len() {
        cur_block += 1;
        let (start, end) = block_range(f, b);
        for pc in start..end {
            let op = &mut f.ops[pc];
            op.map_uses(&mut f.call_args, |r| {
                let e = regs[r as usize];
                let valid =
                    e.recorded_in == cur_block && e.src_stamp == regs[e.copy_of as usize].def_stamp;
                if valid {
                    e.copy_of
                } else {
                    r
                }
            });
            if let Some(d) = op.def() {
                // `d` is overwritten: forget the copy *into* it, and outdate
                // every copy *of* it.
                clock += 1;
                regs[d as usize].recorded_in = 0;
                regs[d as usize].def_stamp = clock;
                #[cfg(test)]
                INVALIDATION_STEPS.with(|s| s.set(s.get() + 1));
            }
            if let Op::Mov { dst, src } = *op {
                if dst != src {
                    // `src` was already rewritten to its root above.
                    let src_stamp = regs[src as usize].def_stamp;
                    let e = &mut regs[dst as usize];
                    e.copy_of = src;
                    e.recorded_in = cur_block;
                    e.src_stamp = src_stamp;
                }
            }
        }
    }
}

/// One backward DCE sweep over live ops; returns true if anything new died.
fn eliminate_dead(
    f: &VmFunction,
    solved: &Liveness,
    dead: &mut [bool],
    live: &mut Vec<u64>,
) -> bool {
    let mut changed = false;
    for b in 0..f.block_starts.len() {
        let (start, end) = block_range(f, b);
        live.clear();
        live.extend_from_slice(solved.live_out(b));
        for pc in (start..end).rev() {
            if dead[pc] {
                continue;
            }
            let op = f.ops[pc];
            let def = op.def();
            // A self-copy is a no-op whether or not its register is live.
            let self_mov = matches!(op, Op::Mov { dst, src } if dst == src);
            let dead_def = matches!(def, Some(d) if !bit_test(live, d)) && removable(op);
            if self_mov || dead_def {
                dead[pc] = true;
                changed = true;
                continue;
            }
            if let Some(d) = def {
                bit_clear(live, d);
            }
            op.for_each_use(&f.call_args, |r| bit_set(live, r));
        }
    }
    changed
}

/// Coalesces `d = <op> …; s = mov d` into `s = <op> …` when `d` dies at the
/// `Mov` — the "write the result back into the promoted slot" pattern every
/// loop-carried variable produces. Safe because every op reads its operands
/// before writing its destination, so `<op>` may freely read `s`'s old value.
fn coalesce_defs(f: &mut VmFunction, solved: &Liveness, dead: &mut [bool], live: &mut Vec<u64>) {
    for b in 0..f.block_starts.len() {
        let (start, end) = block_range(f, b);
        live.clear();
        live.extend_from_slice(solved.live_out(b));
        for pc in (start..end).rev() {
            if dead[pc] {
                continue;
            }
            let op = f.ops[pc];
            if let Op::Mov { dst: s, src: d } = op {
                let same_class = f.reg_class[s as usize] == f.reg_class[d as usize];
                if s != d && !bit_test(live, d) && same_class {
                    // The op before the `Mov` among live ops must be `d`'s def.
                    let prev = (start..pc).rev().find(|&q| !dead[q]);
                    if let Some(q) = prev.filter(|&q| f.ops[q].def() == Some(d)) {
                        f.ops[q].set_def(s);
                        dead[pc] = true;
                        // The Mov contributes nothing to liveness now; `q` is
                        // processed next with its rewritten destination.
                        continue;
                    }
                }
            }
            if let Some(dd) = op.def() {
                bit_clear(live, dd);
            }
            op.for_each_use(&f.call_args, |r| bit_set(live, r));
        }
    }
}

/// The last two live ops of block `b`, terminator first.
fn last_two_live(f: &VmFunction, b: usize, dead: &[bool]) -> Option<(usize, usize)> {
    let (start, end) = block_range(f, b);
    let mut live = (start..end).rev().filter(|&pc| !dead[pc]);
    Some((live.next()?, live.next()?))
}

/// Fuses `dst = cmp …; br dst, T, E` into `cmpbr …, T, E` when the `Cmp`
/// immediately precedes its block's `Br` (among live ops) and `dst` has no
/// other consumer (`dst` not live out of the block).
fn fuse_cmp_br(f: &mut VmFunction, solved: &Liveness, dead: &mut [bool]) {
    for b in 0..f.block_starts.len() {
        let Some((t, p)) = last_two_live(f, b, dead) else {
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
        if dst != cond || bit_test(solved.live_out(b), dst) {
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
    for b in 0..f.block_starts.len() {
        let Some((t, p)) = last_two_live(f, b, dead) else {
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
fn elide_fallthrough_jumps(f: &mut VmFunction, a: &mut Analysis) {
    let nb = a.cfg.num_blocks();
    // Terminators are never deleted, so every edge of the CFG is live.
    a.incoming.clear();
    a.incoming.resize(nb, 0);
    for &head in a.cfg.edge_heads() {
        a.incoming[head as usize] += 1;
    }
    a.merged.clear();
    a.merged.resize(nb, false);
    for b in 1..nb {
        // `end` is where block `b` starts; one incoming edge means the
        // previous block's `Jmp` to it is that edge.
        let end = f.block_starts[b];
        let jmp = end as usize - 1;
        if a.incoming[b] == 1 && matches!(f.ops[jmp], Op::Jmp { target } if target == end) {
            a.dead[jmp] = true;
            a.merged[b] = true;
        }
    }
    if a.merged.contains(&true) {
        a.merge_blocks(f);
    }
}

/// Drops marked ops and remaps every jump target and block start. Targets
/// are always block starts and terminators are never marked, so each block
/// retains at least one op and the remapped starts stay strictly sorted.
fn compact(f: &mut VmFunction, dead: &[bool], new_off: &mut Vec<u32>) -> usize {
    let removed = dead.iter().filter(|&&d| d).count();
    if removed == 0 {
        return 0;
    }
    new_off.clear();
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
    use omplt_ir::{BinOpKind, CmpPred, IrType};

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
    fn redefined_source_can_be_copied_again() {
        // r1 = mov r0; r0 = const; r2 = mov r0; r3 = r1 + r2: r1 holds the
        // *old* r0 and must stay, r2 is a copy of the new r0.
        let mut f = func(
            vec![
                Op::Const { dst: 0, idx: 0 },
                Op::Mov { dst: 1, src: 0 },
                Op::Const { dst: 0, idx: 0 },
                Op::Mov { dst: 2, src: 0 },
                Op::Bin {
                    op: BinOpKind::Add,
                    ty: IrType::I64,
                    dst: 3,
                    lhs: 1,
                    rhs: 2,
                },
                Op::Ret { src: Some(3) },
            ],
            vec![RegClass::Int; 4],
            vec![0],
        );
        copy_propagate(&mut f, &mut Vec::new());
        assert!(
            matches!(f.ops[4], Op::Bin { lhs: 1, rhs: 0, .. }),
            "{:?}",
            f.ops[4]
        );
    }

    #[test]
    fn copy_invalidation_is_constant_per_def() {
        // One block of 40 000 alternating ops, every `Mov` into a fresh
        // register so the copy map only grows:
        //   m_i = mov b_{i-1};  b_i = m_i + m_i
        // Walking the recorded copies on every def made this quadratic.
        const PAIRS: u16 = 20_000;
        let mut ops = vec![Op::Const { dst: 0, idx: 0 }];
        for i in 0..PAIRS {
            let (prev, m, b) = (2 * i, 2 * i + 1, 2 * i + 2);
            ops.push(Op::Mov { dst: m, src: prev });
            ops.push(Op::Bin {
                op: BinOpKind::Add,
                ty: IrType::I64,
                dst: b,
                lhs: m,
                rhs: m,
            });
        }
        ops.push(Op::Ret {
            src: Some(2 * PAIRS),
        });
        let n = ops.len() as u64;
        let mut f = func(ops, vec![RegClass::Int; 2 * PAIRS as usize + 1], vec![0]);
        INVALIDATION_STEPS.with(|s| s.set(0));
        copy_propagate(&mut f, &mut Vec::new());
        let steps = INVALIDATION_STEPS.with(|s| s.get());
        assert!(steps <= n, "{steps} invalidation steps for {n} ops");
        for i in 0..PAIRS as usize {
            let prev = 2 * i as u16;
            assert!(
                matches!(f.ops[2 + 2 * i], Op::Bin { lhs, rhs, .. } if lhs == prev && rhs == prev),
                "pair {i}: {:?}",
                f.ops[2 + 2 * i]
            );
        }
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
