//! Linear-scan register allocation over the virtual registers the lowerer
//! emits (one per SSA value, argument, constant, and phi-copy temporary).
//!
//! There is no spilling — the frame's register file is heap-allocated and
//! `u16`-indexed, so "allocation" here means *compaction*: block-level
//! liveness builds one conservative, hole-free live interval per virtual
//! register, and a classic linear scan then reuses register numbers whose
//! intervals have expired. Smaller register files mean smaller frames and a
//! hotter cache in the dispatch loop.
//!
//! Intervals are extended to every block boundary the value is live across,
//! which is what makes backedges safe: a value live around a loop (including
//! a loop whose header is the entry block's constant prologue) covers the
//! whole loop body, so re-executed defs can never clobber it.

use crate::ops::{Reg, RegClass, VmFunction};

/// A dense bitset over virtual registers (shared with the peephole pass).
#[derive(Clone, PartialEq)]
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    pub(crate) fn new(n: usize) -> BitSet {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    pub(crate) fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    pub(crate) fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// `self |= (other & !mask)`; returns true if anything changed.
    fn union_minus(&mut self, other: &BitSet, mask: &BitSet) -> bool {
        let mut changed = false;
        for ((w, &o), &m) in self.words.iter_mut().zip(&other.words).zip(&mask.words) {
            let new = *w | (o & !m);
            changed |= new != *w;
            *w = new;
        }
        changed
    }

    fn union(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            let new = *w | o;
            changed |= new != *w;
            *w = new;
        }
        changed
    }

    fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64)
                .filter(move |b| w & (1 << b) != 0)
                .map(move |b| wi * 64 + b)
        })
    }
}

/// `(start, end)` op index ranges of every block, in block order.
pub(crate) fn block_ranges(f: &VmFunction) -> Vec<(usize, usize)> {
    let nb = f.block_starts.len();
    (0..nb)
        .map(|b| {
            let start = f.block_starts[b] as usize;
            let end = if b + 1 < nb {
                f.block_starts[b + 1] as usize
            } else {
                f.ops.len()
            };
            (start, end)
        })
        .collect()
}

/// Successor block indices, read off each block's terminator op.
pub(crate) fn successors(f: &VmFunction, ranges: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let block_of = |off: u32| -> usize {
        match f.block_starts.binary_search(&off) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    };
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); ranges.len()];
    for (s, &(_, end)) in succs.iter_mut().zip(ranges) {
        f.ops[end - 1].for_each_target(|t| s.push(block_of(t)));
    }
    succs
}

/// Block-level backward liveness to fixpoint over `n` registers; returns
/// `(live_in, live_out)` per block. Ops for which `skip` returns true are
/// treated as absent (the peephole pass masks deleted ops this way; register
/// allocation passes `|_| false`).
pub(crate) fn liveness(
    f: &VmFunction,
    n: usize,
    ranges: &[(usize, usize)],
    succs: &[Vec<usize>],
    skip: impl Fn(usize) -> bool,
) -> (Vec<BitSet>, Vec<BitSet>) {
    let nb = ranges.len();
    // Per-block gen_set (upward-exposed uses) and kill (defs).
    let mut gen_set: Vec<BitSet> = Vec::with_capacity(nb);
    let mut kill: Vec<BitSet> = Vec::with_capacity(nb);
    for &(start, end) in ranges {
        let mut g = BitSet::new(n);
        let mut k = BitSet::new(n);
        for pc in start..end {
            if skip(pc) {
                continue;
            }
            let op = f.ops[pc];
            op.for_each_use(&f.call_args, |r| {
                if !k.contains(r as usize) {
                    g.insert(r as usize);
                }
            });
            if let Some(d) = op.def() {
                k.insert(d as usize);
            }
        }
        gen_set.push(g);
        kill.push(k);
    }

    // live_in = gen_set ∪ (live_out − kill).
    let mut live_in: Vec<BitSet> = vec![BitSet::new(n); nb];
    let mut live_out: Vec<BitSet> = vec![BitSet::new(n); nb];
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..nb).rev() {
            for &s in &succs[b] {
                let inn = live_in[s].clone();
                changed |= live_out[b].union(&inn);
            }
            let out = live_out[b].clone();
            changed |= live_in[b].union_minus(&out, &kill[b]);
            changed |= live_in[b].union(&gen_set[b]);
        }
    }
    (live_in, live_out)
}

/// Rewrites `f` in place so registers are compactly numbered and reused
/// where live intervals permit; updates `num_regs`, `reg_class`, `params`,
/// `call_args`, and every op.
pub fn allocate(f: &mut VmFunction) {
    let n = f.num_regs as usize;
    if n == 0 || f.ops.is_empty() {
        return;
    }
    let nb = f.block_starts.len();
    let ranges = block_ranges(f);
    let succs = successors(f, &ranges);
    let (live_in, live_out) = liveness(f, n, &ranges, &succs, |_| false);

    // Conservative hole-free intervals: cover every def/use position plus
    // every block boundary the value is live across.
    const UNSET: usize = usize::MAX;
    fn touch(start: &mut [usize], end: &mut [usize], v: usize, pos: usize) {
        if start[v] == UNSET || pos < start[v] {
            start[v] = pos;
        }
        if pos > end[v] {
            end[v] = pos;
        }
    }
    let mut start = vec![UNSET; n];
    let mut end = vec![0usize; n];
    for &p in &f.params {
        touch(&mut start, &mut end, p as usize, 0);
    }
    for (pc, op) in f.ops.iter().enumerate() {
        if let Some(d) = op.def() {
            touch(&mut start, &mut end, d as usize, pc);
        }
        op.for_each_use(&f.call_args, |r| {
            touch(&mut start, &mut end, r as usize, pc)
        });
    }
    for b in 0..nb {
        let (bs, be) = ranges[b];
        for v in live_in[b].iter_ones() {
            touch(&mut start, &mut end, v, bs);
        }
        for v in live_out[b].iter_ones() {
            touch(&mut start, &mut end, v, be - 1);
        }
    }

    // Linear scan with per-class free pools. Registers never share even when
    // intervals merely touch (strict `<` expiry) — a cheap safety margin.
    let mut order: Vec<usize> = (0..n).filter(|&v| start[v] != UNSET).collect();
    order.sort_unstable_by_key(|&v| (start[v], v));
    let mut assign: Vec<Reg> = vec![0; n];
    let mut phys_class: Vec<RegClass> = Vec::new();
    let mut free: [Vec<Reg>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let class_idx = |c: RegClass| match c {
        RegClass::Int => 0usize,
        RegClass::Float => 1,
        RegClass::Ptr => 2,
    };
    let mut active: Vec<(usize, Reg, usize)> = Vec::new(); // (end, phys, class idx)
    for &v in &order {
        active.retain(|&(e, phys, ci)| {
            if e < start[v] {
                free[ci].push(phys);
                false
            } else {
                true
            }
        });
        let ci = class_idx(f.reg_class[v]);
        let phys = match free[ci].pop() {
            Some(p) => p,
            None => {
                let p = phys_class.len() as Reg;
                phys_class.push(f.reg_class[v]);
                p
            }
        };
        assign[v] = phys;
        active.push((end[v], phys, ci));
    }

    // Rename everything.
    for op in &mut f.ops {
        op.map_regs(|r| assign[r as usize]);
    }
    for r in &mut f.call_args {
        *r = assign[*r as usize];
    }
    for p in &mut f.params {
        *p = assign[*p as usize];
    }
    f.num_regs = phys_class.len() as u16;
    f.reg_class = phys_class;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Op, PoolConst, VmFunction};
    use omplt_interp::RtVal;
    use omplt_ir::{BinOpKind, IrType};

    fn linear_fn(ops: Vec<Op>, num_regs: u16, classes: Vec<RegClass>) -> VmFunction {
        VmFunction {
            name: "t".into(),
            params: vec![],
            num_regs,
            reg_class: classes,
            num_vregs: 0,
            vreg_class: vec![],
            vreg_width: vec![],
            ops,
            consts: vec![PoolConst::Val(RtVal::I(1))],
            call_args: vec![],
            call_targets: vec![],
            block_starts: vec![0],
            ret: IrType::I64,
        }
    }

    #[test]
    fn disjoint_intervals_share_a_register() {
        // r0 dies before r1 is born; both Int → same physical register.
        let mut f = linear_fn(
            vec![
                Op::Const { dst: 0, idx: 0 },
                Op::Bin {
                    op: BinOpKind::Add,
                    ty: IrType::I64,
                    dst: 1,
                    lhs: 0,
                    rhs: 0,
                },
                Op::Const { dst: 2, idx: 0 },
                Op::Ret { src: Some(2) },
            ],
            3,
            vec![RegClass::Int; 3],
        );
        allocate(&mut f);
        assert!(f.num_regs < 3, "expected reuse, got {} regs", f.num_regs);
    }

    #[test]
    fn classes_never_mix() {
        let mut f = linear_fn(
            vec![
                Op::Const { dst: 0, idx: 0 },
                Op::Cast {
                    op: omplt_ir::CastOp::SiToFp,
                    from: IrType::I64,
                    to: IrType::F64,
                    dst: 1,
                    src: 0,
                },
                Op::Ret { src: Some(0) },
            ],
            2,
            vec![RegClass::Int, RegClass::Float],
        );
        allocate(&mut f);
        assert_eq!(f.reg_class.len(), f.num_regs as usize);
        let classes: std::collections::HashSet<_> = f.reg_class.iter().collect();
        assert_eq!(classes.len(), 2, "Int and Float must stay distinct");
    }

    #[test]
    fn loop_carried_value_is_not_clobbered() {
        // Block 0: define r0, r1. Block 1 (loop): r1 += r0, branch back or
        // out. r0 must keep its register across the backedge.
        let mut f = linear_fn(
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
                    pred: omplt_ir::CmpPred::Slt,
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
            3,
            vec![RegClass::Int; 3],
        );
        f.block_starts = vec![0, 3, 6];
        allocate(&mut f);
        // r0 (loop-invariant) and r2 (cmp result, loop-local) must differ:
        // r0 is live across the whole loop.
        let a0 = match f.ops[0] {
            Op::Const { dst, .. } => dst,
            _ => unreachable!(),
        };
        let a2 = match f.ops[4] {
            Op::Cmp { dst, .. } => dst,
            _ => unreachable!(),
        };
        assert_ne!(a0, a2, "loop-carried register reused inside the loop");
    }
}
