//! Pre-regalloc peephole optimization over the flat op stream.
//!
//! The lowerer's output is deliberately naive: every phi becomes a copy on
//! each incoming edge, and each loop latch is a `Cmp` feeding a `Br`. In the hot
//! dense-arithmetic loops the VM exists for, roughly a third of the retired
//! ops were copies — dispatch overhead with no work attached. Dead code is
//! not this module's business: no function reaches the lowerer holding
//! any (`compile::input_copies` runs the mid end's DCE on one that would),
//! so this module only makes the stream bytecode-shaped, in four stages:
//!
//! 1. **Out of SSA by coalescing**: the two registers of a `Mov` become one
//!    where neither is written while the other is live, and the `Mov` goes;
//!    a critical edge's trampoline left holding only its `jmp` goes too.
//! 2. **Compare/branch fusion**: a `Cmp` immediately feeding the block's
//!    `Br`, with no other consumer, becomes one [`Op::CmpBr`].
//! 3. **Fallthrough-jump elision**: a `Jmp` to the op that physically
//!    follows it, when that target has no other incoming edge, is deleted
//!    and the two blocks merge.
//! 4. **Arithmetic/jump fusion**: a `Bin` immediately preceding its block's
//!    surviving `Jmp` becomes one [`Op::BinJmp`] — the canonical loop latch
//!    (`i = i + step; jmp header`) in one dispatch. This runs *after* stage 3
//!    so a jump that can be elided outright is, and only real backedges fuse.
//!
//! Deletion is mark-then-compact: stages only set a `dead` mask, and a final
//! sweep drops marked ops while remapping every jump target and block start.
//! That remap is exact because the lowerer registers *every* branch target
//! (including phi-copy trampolines) as a block start, terminators are never
//! deleted, and therefore each block keeps at least one op.
//!
//! The stages share one [`Analysis`]: the CFG is read off the terminators
//! and fault pads once and kept current by the two stages that move an edge
//! (the trampoline drop retargets one, stage 3 remaps them), and liveness is
//! solved once per function, or twice when stage 3 moves a fault pad's edge
//! — [`optimize_in`] says why that solve still holds for every stage and,
//! remapped, for the register allocator. The `dead` mask, the edge counts,
//! the merge mask and the compaction offsets are `Analysis` buffers too,
//! reused from function to function.

use crate::ops::{Op, Reg, VmFunction};
use crate::regalloc::{bit_test, Analysis, Liveness};

/// Runs the full pipeline in place; returns the number of ops removed.
#[cfg(test)]
pub fn optimize(f: &mut VmFunction) -> usize {
    optimize_in(f, &mut Analysis::default())
}

/// [`optimize`] with the caller's workspace; leaves in `a` the CFG and the
/// block-level liveness of the function as returned, for
/// [`crate::regalloc::allocate_in`].
///
/// Liveness is solved once, over the stream as lowered, and no stage moves
/// a block's live-in or live-out:
///
/// * coalescing merges two registers that do not interfere, and the merged
///   one is live exactly where either was ([`coalesce_copies`]); the
///   self-moves it deletes were each where both were live. An emptied
///   trampoline's one edge moves to where its jump went, which is live-in
///   what the trampoline was;
/// * compare/branch fusion deletes a `Cmp` whose result the adjacent `Br`
///   alone read and which is not live-out: the fused op reads the `Cmp`'s
///   operands where the `Cmp` did, and the one register that leaves the
///   kill set was not live-out to begin with;
/// * a merged block is live-in what its first block was and live-out what
///   its last block was ([`Analysis::merge_blocks`]; a chain that takes a
///   fault pad's edge from a block before its last is the one case that
///   builds and solves again); arithmetic/jump fusion keeps def and uses
///   inside one block; compaction moves offsets only.
///
/// In each case the old solution still satisfies the new equations and —
/// the only change being a register that leaves a kill set it was never
/// live-out of — iterating from empty sets reaches it again, so it is the
/// least fixpoint a fresh solve would return. That rests on the lowerer's
/// input holding nothing the mid end's DCE would delete — a phi cycle that
/// only feeds itself would coalesce into a register the renamed rows keep
/// live with nothing reading it. `compile` asserts the precondition in
/// debug builds, which also assert the result at every hand-off
/// ([`Analysis::is_current`]).
pub(crate) fn optimize_in(f: &mut VmFunction, a: &mut Analysis) -> usize {
    if f.ops.is_empty() {
        return 0;
    }
    a.dead.clear();
    a.dead.resize(f.ops.len(), false);
    a.cfg.build(f, &a.dead);
    a.live.solve(f, &a.cfg, &a.dead);
    coalesce_copies(f, a);
    drop_empty_trampolines(f, a);
    debug_assert!(a.is_current(f, &a.dead), "@{}: coalesce_copies", f.name);
    fuse_cmp_br(f, &a.live, &mut a.dead);
    debug_assert!(a.is_current(f, &a.dead), "@{}: fuse_cmp_br", f.name);
    elide_fallthrough_jumps(f, a);
    debug_assert!(
        a.is_current(f, &a.dead),
        "@{}: elide_fallthrough_jumps",
        f.name
    );
    fuse_bin_jmp(f, &mut a.dead);
    compact(f, &a.dead, &mut a.new_off)
}

/// "No op" in the def lists of [`Coalesce`].
const NONE: u32 = u32::MAX;

/// The buffers of [`coalesce_copies`]: a union-find over registers and the
/// ops that define each class, as one linked list per class.
#[derive(Default)]
pub(crate) struct Coalesce {
    /// Union-find parent of each register.
    rep: Vec<Reg>,
    /// First and last op defining a register of each class (indexed by
    /// the class's representative), and the next one after each op.
    def_head: Vec<u32>,
    def_tail: Vec<u32>,
    def_next: Vec<u32>,
}

/// The representative of `r`'s class (with path halving).
fn find(rep: &mut [Reg], mut r: Reg) -> Reg {
    while rep[r as usize] != r {
        rep[r as usize] = rep[rep[r as usize] as usize];
        r = rep[r as usize];
    }
    r
}

impl Coalesce {
    /// Appends the def list `first ..= last` to class `r`'s.
    fn append(&mut self, r: Reg, first: u32, last: u32) {
        match self.def_tail[r as usize] {
            NONE => self.def_head[r as usize] = first,
            t => self.def_next[t as usize] = first,
        }
        self.def_tail[r as usize] = last;
    }

    /// Whether an op defining class `x` — other than a copy from `y`, after
    /// which both hold one value — sits where class `y` is live: where `y`
    /// is read before it is written again, or is live out and not written.
    fn interferes(
        &mut self,
        f: &VmFunction,
        live: &Liveness,
        dead: &[bool],
        x: Reg,
        y: Reg,
    ) -> bool {
        let mut next = self.def_head[x as usize];
        while next != NONE {
            let at = next as usize;
            next = self.def_next[at];
            let b = f.block_of(at as u32);
            let std::ops::Range { start, end } = f.block_range(b);
            // Live after `at` only if live into the block or written before
            // `at` in it: otherwise a read after `at` would be upward-exposed.
            let mut def = self.def_head[y as usize];
            while def != NONE && !(start..at).contains(&(def as usize)) {
                def = self.def_next[def as usize];
            }
            let copy = matches!(f.ops[at], Op::Mov { src, .. } if find(&mut self.rep, src) == y);
            if copy || (def == NONE && !bit_test(live.live_in(b), y)) {
                continue;
            }
            let mut live_after = bit_test(live.live_out(b), y);
            for op in (at + 1..end).filter(|&pc| !dead[pc]).map(|pc| f.ops[pc]) {
                let mut read = false;
                op.for_each_use(&f.call_args, |r| read |= find(&mut self.rep, r) == y);
                if read || op.def().is_some_and(|d| find(&mut self.rep, d) == y) {
                    live_after = read;
                    break;
                }
            }
            if live_after {
                return true;
            }
        }
        false
    }
}

/// Out of SSA by coalescing: the two registers of a live `d = mov s` become
/// one when no def of either sits where the other is live, and the `Mov`,
/// now a self-move, is deleted. Phi edge copies and their parallel-copy
/// temporaries (`d = <op> …; s = mov d`) go this way. Argument registers keep their own. The liveness
/// rows are renamed, not solved again: where the two do not interfere, the
/// merged register is live exactly where either was.
fn coalesce_copies(f: &mut VmFunction, a: &mut Analysis) {
    let Analysis {
        live,
        dead,
        coalesce: c,
        ..
    } = a;
    let n = f.num_regs as usize;
    c.rep.clear();
    c.rep.extend(0..n as Reg);
    for v in [&mut c.def_head, &mut c.def_tail] {
        v.clear();
        v.resize(n, NONE);
    }
    c.def_next.clear();
    c.def_next.resize(f.ops.len(), NONE);
    for pc in (0..f.ops.len()).filter(|&pc| !dead[pc]) {
        if let Some(d) = f.ops[pc].def() {
            c.append(d, pc as u32, pc as u32);
        }
    }
    let mut merged = false;
    for pc in (0..f.ops.len()).filter(|&pc| !dead[pc]) {
        let Op::Mov { dst, src } = f.ops[pc] else {
            continue;
        };
        let (x, y) = (find(&mut c.rep, dst), find(&mut c.rep, src));
        if x == y
            || f.reg_class[x as usize] != f.reg_class[y as usize]
            || f.params.contains(&x)
            || f.params.contains(&y)
            || c.interferes(f, live, dead, x, y)
            || c.interferes(f, live, dead, y, x)
        {
            continue;
        }
        let (keep, gone) = (x.min(y), x.max(y));
        c.rep[gone as usize] = keep;
        let (head, tail) = (c.def_head[gone as usize], c.def_tail[gone as usize]);
        if head != NONE {
            c.append(keep, head, tail);
        }
        live.rename(gone, keep);
        merged = true;
    }
    if !merged {
        return;
    }
    for (pc, op) in f.ops.iter_mut().enumerate() {
        op.map_regs(|r| find(&mut c.rep, r));
        dead[pc] |= matches!(op, Op::Mov { dst, src } if dst == src);
    }
    for r in &mut f.call_args {
        *r = find(&mut c.rep, *r);
    }
}

/// Deletes each block a branch arm is the only way into and whose one live
/// op is a `jmp` — a critical edge's trampoline whose copies all coalesced
/// away — and points the arm at the jump's target.
fn drop_empty_trampolines(f: &mut VmFunction, a: &mut Analysis) {
    let nb = a.cfg.num_blocks();
    a.incoming.clear();
    a.incoming.resize(nb, 0);
    for &head in a.cfg.edge_heads() {
        a.incoming[head as usize] += 1;
    }
    a.merged.clear();
    a.merged.resize(nb, false);
    for b in 0..nb {
        let br = f.block_range(b).end;
        if !matches!(f.ops[br - 1], Op::Br { .. }) {
            continue;
        }
        for arm in 0..2 {
            let t = a.cfg.succs(b)[arm] as usize;
            let std::ops::Range { start, end } = f.block_range(t);
            let Op::Jmp { target } = f.ops[end - 1] else {
                continue;
            };
            let into = a.cfg.succs(t)[0];
            let emptied = a.dead[start..end - 1].iter().all(|&d| d);
            if t == 0 || a.incoming[t] != 1 || into as usize == t || !emptied {
                continue;
            }
            if let Op::Br { then_t, else_t, .. } = &mut f.ops[br - 1] {
                *[then_t, else_t][arm] = target;
            }
            a.cfg.set_succ(b, arm, into);
            a.dead[end - 1] = true;
            a.merged[t] = true;
        }
    }
    if a.merged.contains(&true) {
        a.merge_blocks(f, false);
    }
}

/// The last two live ops of block `b`, terminator first.
fn last_two_live(f: &VmFunction, b: usize, dead: &[bool]) -> Option<(usize, usize)> {
    let mut live = f.block_range(b).rev().filter(|&pc| !dead[pc]);
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
        let jumps_here = matches!(f.ops[jmp], Op::Jmp { target } if target == end);
        if a.incoming[b] == 1 && jumps_here && !a.dead[jmp] {
            a.dead[jmp] = true;
            a.merged[b] = true;
        }
    }
    if a.merged.contains(&true) {
        a.merge_blocks(f, true);
    }
}

/// Drops marked ops and remaps every jump target, block start and fault
/// pad. Targets
/// are always block starts and terminators are never marked, so each block
/// retains at least one op and the remapped starts stay strictly sorted.
pub(crate) fn compact(f: &mut VmFunction, dead: &[bool], new_off: &mut Vec<u32>) -> usize {
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
    // A pad's end is one past its last op, which may be the stream's end.
    new_off.push(kept);
    for p in &mut f.pads {
        (p.start, p.end) = (new_off[p.start as usize], new_off[p.end as usize]);
        p.target = new_off[p.target as usize];
    }
    removed
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ops::{Pad, PoolConst, RegClass};
    use omplt_ir::{BinOpKind, CmpPred, IrType};

    /// `dst = lhs + rhs` over `i64`.
    pub(crate) fn add(dst: Reg, lhs: Reg, rhs: Reg) -> Op {
        let (op, ty) = (BinOpKind::Add, IrType::I64);
        Op::Bin {
            op,
            ty,
            dst,
            lhs,
            rhs,
        }
    }

    /// `dst = lhs < rhs` over `i64`, and `br cond, then_t, else_t`.
    pub(crate) fn slt(dst: Reg, lhs: Reg, rhs: Reg) -> Op {
        let (pred, ty) = (CmpPred::Slt, IrType::I64);
        Op::Cmp {
            pred,
            ty,
            dst,
            lhs,
            rhs,
        }
    }

    pub(crate) fn br(cond: Reg, then_t: u32, else_t: u32) -> Op {
        Op::Br {
            cond,
            then_t,
            else_t,
        }
    }

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
            consts: vec![PoolConst::Val(RegClass::Int, 1)],
            call_args: vec![],
            call_targets: vec![],
            block_starts,
            pads: vec![],
            ret: IrType::I64,
        }
    }

    #[test]
    fn loop_carried_writeback_is_coalesced() {
        // Loop body: r2 = r1 + r0; r1 = mov r2; r3 = r0 < r0; br r3.
        // The Bin must absorb the Mov (write r1 directly) and the Cmp must
        // fuse into the branch.
        let mut f = func(
            vec![
                Op::Const { dst: 0, idx: 0 },
                Op::Const { dst: 1, idx: 0 },
                Op::Jmp { target: 3 },
                add(2, 1, 0),
                Op::Mov { dst: 1, src: 2 },
                slt(3, 0, 0),
                br(3, 3, 7),
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
        assert!(crate::verify::verify_function(&f, &[]).is_empty());
    }

    #[test]
    fn cmp_feeding_branch_is_fused() {
        // Loop: r1 += r0; r2 = r1 < r0; br r2 ? loop : exit.
        let mut f = func(
            vec![
                Op::Const { dst: 0, idx: 0 },
                Op::Const { dst: 1, idx: 0 },
                Op::Jmp { target: 3 },
                add(1, 1, 0),
                slt(2, 1, 0),
                br(2, 3, 6),
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
        assert!(crate::verify::verify_function(&f, &[]).is_empty());
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
                add(1, 1, 0),
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
        assert!(crate::verify::verify_function(&f, &[]).is_empty());
    }

    /// A pad in the first block of a two-block fallthrough chain: the
    /// merged block keeps its edge, and what the merge leaves is what a
    /// fresh build and solve give.
    #[test]
    fn a_pad_in_the_first_block_of_a_merged_chain_keeps_its_edge() {
        // block 0: r0 = 1; r1 = r0 / r0 under a pad to block 2; jmp block 1
        // block 1 (entered only by that jmp): r0 = r1 + r0; ret r0
        // block 2: ret r0
        let div = Op::Bin {
            op: BinOpKind::SDiv,
            ty: IrType::I64,
            dst: 1,
            lhs: 0,
            rhs: 0,
        };
        let mut f = func(
            vec![
                Op::Const { dst: 0, idx: 0 },
                div,
                Op::Jmp { target: 3 },
                add(0, 1, 0),
                Op::Ret { src: Some(0) },
                Op::Ret { src: Some(0) },
            ],
            vec![RegClass::Int; 2],
            vec![0, 3, 5],
        );
        f.pads.push(Pad {
            start: 1,
            end: 2,
            target: 5,
        });
        let mut whole = f.clone();
        let mut a = Analysis::default();
        a.dead.resize(f.ops.len(), false);
        a.cfg.build(&f, &a.dead);
        a.live.solve(&f, &a.cfg, &a.dead);
        elide_fallthrough_jumps(&mut f, &mut a);
        assert_eq!(f.block_starts, [0, 5], "blocks 0 and 1 merged");
        assert_eq!(a.cfg.succs(0), [1], "the pad's edge to block 2");
        assert!(a.is_current(&f, &a.dead));
        // The whole pipeline, which asserts the same at each stage in debug
        // builds.
        assert_eq!(optimize(&mut whole), 1, "{}", crate::ops::disasm(&whole));
        assert!(crate::verify::verify_function(&whole, &[]).is_empty());
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
