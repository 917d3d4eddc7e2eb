//! The per-function analyses the peephole stages and the allocator share —
//! one [`Cfg`], one [`Liveness`] workspace, bundled as [`Analysis`] — and
//! linear-scan register allocation over the virtual registers the lowerer
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
//!
//! An [`Analysis`] is filled once per function by [`crate::peephole`] and
//! handed on to [`allocate_in`]: the successor lists are read off the
//! terminators once, the liveness rows live in four flat `blocks × words`
//! vectors that every solve reuses, and the allocator takes the rows of the
//! peephole pipeline's one solve instead of solving again
//! (`peephole::optimize_in` says why they are still current). The same
//! `Analysis` also holds the peephole stages' masks and the allocator's
//! intervals, order, assignment and pools. `compile_module_with`
//! keeps one per module, so what is allocated per function is only the
//! compiled `VmFunction` itself; the buffers here grow to the module's
//! largest function and are then reused.

use crate::ops::{Reg, RegClass, VmFunction};

/// `(start, end)` op index range of block `b`.
pub(crate) fn block_range(f: &VmFunction, b: usize) -> (usize, usize) {
    let start = f.block_starts[b] as usize;
    let end = f
        .block_starts
        .get(b + 1)
        .map_or(f.ops.len(), |&s| s as usize);
    (start, end)
}

/// Successor block indices of every block, read off each block's terminator
/// op, as one flat list. Block *ranges* are not copied here: they are
/// `f.block_starts`, which deleting ops remaps without moving an edge, so
/// only merging blocks or retargeting a branch has to touch a `Cfg`.
#[derive(Default, PartialEq, Debug)]
pub(crate) struct Cfg {
    /// Block `b`'s successors are `succ[succ_at[b]..succ_at[b + 1]]`.
    succ_at: Vec<u32>,
    succ: Vec<u32>,
}

impl Cfg {
    /// Reads the block structure of `f` (every block ends in a terminator
    /// `dead` does not mask), reusing this value's buffers.
    pub(crate) fn build(&mut self, f: &VmFunction, dead: &[bool]) {
        self.succ_at.clear();
        self.succ.clear();
        for b in 0..f.block_starts.len() {
            self.succ_at.push(self.succ.len() as u32);
            let (start, end) = block_range(f, b);
            let term = (start..end)
                .rfind(|&pc| !dead[pc])
                .expect("a live terminator");
            f.ops[term].for_each_target(|t| {
                let s = match f.block_starts.binary_search(&t) {
                    Ok(i) => i,
                    Err(i) => i - 1,
                };
                self.succ.push(s as u32);
            });
        }
        self.succ_at.push(self.succ.len() as u32);
    }

    pub(crate) fn num_blocks(&self) -> usize {
        self.succ_at.len().saturating_sub(1)
    }

    pub(crate) fn succs(&self, b: usize) -> &[u32] {
        &self.succ[self.succ_at[b] as usize..self.succ_at[b + 1] as usize]
    }

    /// Makes block `s` the `i`-th successor of block `b`.
    pub(crate) fn set_succ(&mut self, b: usize, i: usize, s: u32) {
        self.succ[self.succ_at[b] as usize + i] = s;
    }

    /// The head block of every edge, one entry per edge (a `Br` with both
    /// arms on one block contributes two).
    pub(crate) fn edge_heads(&self) -> &[u32] {
        &self.succ
    }
}

/// Bit `r` of a register-set row (`words` × `u64`).
pub(crate) fn bit_test(row: &[u64], r: Reg) -> bool {
    row[r as usize / 64] & (1 << (r % 64)) != 0
}

pub(crate) fn bit_set(row: &mut [u64], r: Reg) {
    row[r as usize / 64] |= 1 << (r % 64);
}

pub(crate) fn bit_clear(row: &mut [u64], r: Reg) {
    row[r as usize / 64] &= !(1 << (r % 64));
}

/// Visits the set bits of `row` in ascending order.
fn for_each_one(row: &[u64], mut f: impl FnMut(usize)) {
    for (wi, &word) in row.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            f(wi * 64 + w.trailing_zeros() as usize);
            w &= w - 1;
        }
    }
}

/// Block-level backward liveness over the scalar registers, solved to the
/// least fixpoint. The four row sets are flat (`row b` =
/// `[b * words..(b + 1) * words]`) and keep their capacity from solve to
/// solve and from function to function.
#[derive(Default)]
pub(crate) struct Liveness {
    /// `u64`s per row: `num_regs` rounded up to a multiple of 64 bits.
    words: usize,
    /// Upward-exposed uses and defs per block; scratch of [`Liveness::solve`]
    /// (stale once ops or blocks change, unlike the two result sets).
    gen_set: Vec<u64>,
    kill: Vec<u64>,
    live_in: Vec<u64>,
    live_out: Vec<u64>,
    /// Solves run so far (the `vm.compile.liveness.solves` counter).
    pub(crate) solves: u64,
}

impl Liveness {
    /// Solves `live_in = gen ∪ (live_out − kill)`, `live_out = ∪ live_in of
    /// successors` for `f`. Ops whose `dead` flag is set are treated as
    /// absent (the peephole pass masks deleted ops this way).
    pub(crate) fn solve(&mut self, f: &VmFunction, cfg: &Cfg, dead: &[bool]) {
        self.solves += 1;
        let nb = cfg.num_blocks();
        let w = (f.num_regs as usize).div_ceil(64);
        self.words = w;
        for rows in [
            &mut self.gen_set,
            &mut self.kill,
            &mut self.live_in,
            &mut self.live_out,
        ] {
            rows.clear();
            rows.resize(nb * w, 0);
        }
        for b in 0..nb {
            let (start, end) = block_range(f, b);
            let gen_set = &mut self.gen_set[b * w..(b + 1) * w];
            let kill = &mut self.kill[b * w..(b + 1) * w];
            for pc in (start..end).filter(|&pc| !dead[pc]) {
                let op = f.ops[pc];
                op.for_each_use(&f.call_args, |r| {
                    if !bit_test(kill, r) {
                        bit_set(gen_set, r);
                    }
                });
                if let Some(d) = op.def() {
                    bit_set(kill, d);
                }
            }
        }
        // A pass that moves no live-in leaves every live-out (a function of
        // the successors' live-ins alone) consistent with them: fixpoint.
        let mut changed = true;
        while changed {
            changed = false;
            for b in (0..nb).rev() {
                for col in 0..w {
                    let i = b * w + col;
                    let out = cfg
                        .succs(b)
                        .iter()
                        .fold(0, |out, &s| out | self.live_in[s as usize * w + col]);
                    let inn = self.gen_set[i] | (out & !self.kill[i]);
                    changed |= inn != self.live_in[i];
                    self.live_out[i] = out;
                    self.live_in[i] = inn;
                }
            }
        }
        #[cfg(debug_assertions)]
        reference::assert_same(self, f, cfg, dead);
    }

    pub(crate) fn live_in(&self, b: usize) -> &[u64] {
        &self.live_in[b * self.words..(b + 1) * self.words]
    }

    pub(crate) fn live_out(&self, b: usize) -> &[u64] {
        &self.live_out[b * self.words..(b + 1) * self.words]
    }

    /// Register `gone` becomes `keep` in every row: two registers that do
    /// not interfere merge into one live exactly where either was.
    pub(crate) fn rename(&mut self, gone: Reg, keep: Reg) {
        for row in self
            .live_in
            .chunks_exact_mut(self.words)
            .chain(self.live_out.chunks_exact_mut(self.words))
        {
            if bit_test(row, gone) {
                bit_clear(row, gone);
                bit_set(row, keep);
            }
        }
    }
}

/// What the peephole stages and the allocator know about one function — its
/// [`Cfg`] and the [`Liveness`] of the last solve — and the buffers they
/// work in. Filled by `peephole::optimize_in`, consumed by [`allocate_in`],
/// then reused for the next function.
#[derive(Default)]
pub(crate) struct Analysis {
    pub(crate) cfg: Cfg,
    pub(crate) live: Liveness,
    /// The peephole stages' deleted-op mask and the compaction's new op
    /// offsets.
    pub(crate) dead: Vec<bool>,
    pub(crate) new_off: Vec<u32>,
    /// Incoming edges per block, and the blocks
    /// [`Analysis::merge_blocks`] folds into the block before them.
    pub(crate) incoming: Vec<u32>,
    pub(crate) merged: Vec<bool>,
    /// Old block index → new block index during [`Analysis::merge_blocks`].
    remap: Vec<u32>,
    pub(crate) coalesce: crate::peephole::Coalesce,
    scan: Scan,
}

/// The buffers of [`allocate_in`]'s linear scan.
#[derive(Default)]
struct Scan {
    /// First and last op index of each virtual register's interval.
    start: Vec<usize>,
    end: Vec<usize>,
    /// Virtual registers with an interval, by start.
    order: Vec<usize>,
    /// Physical register of each virtual register, and class of each
    /// physical one.
    assign: Vec<Reg>,
    phys_class: Vec<RegClass>,
    /// Expired physical registers per class, and the live intervals as
    /// `(end, phys, class index)`.
    free: [Vec<Reg>; 3],
    active: Vec<(usize, Reg, usize)>,
}

impl Analysis {
    /// Folds every block `b` with `merged[b]` set into the block before it:
    /// `f.block_starts` drops the start and the liveness rows are remapped,
    /// not re-solved. With `fallthrough`, the block before is `b`'s only
    /// predecessor and its deleted jump went to `b`: a merged chain is
    /// live-in what its first block was and live-out, with the successors,
    /// what its last was. Otherwise no edge enters `b` any more and its jump
    /// is deleted: the block before keeps its own successors and rows.
    pub(crate) fn merge_blocks(&mut self, f: &mut VmFunction, fallthrough: bool) {
        let Analysis {
            cfg,
            live,
            merged,
            remap,
            ..
        } = self;
        let nb = merged.len();
        let w = live.words;
        let donates = |b: usize| match fallthrough {
            true => b + 1 == nb || !merged[b + 1],
            false => !merged[b],
        };
        remap.clear();
        let mut kept = 0u32;
        for &m in merged.iter() {
            kept += u32::from(!m);
            remap.push(kept - 1);
        }
        // Everything below compacts in place, front to back: block `b` lands
        // on `remap[b] <= b`, after that slot's old contents were consumed.
        let Cfg { succ_at, succ } = cfg;
        let mut edges = 0;
        for b in 0..nb {
            let k = remap[b] as usize;
            if !merged[b] {
                live.live_in.copy_within(b * w..(b + 1) * w, k * w);
                f.block_starts[k] = f.block_starts[b];
            }
            let (lo, hi) = (succ_at[b] as usize, succ_at[b + 1] as usize);
            if donates(b) {
                live.live_out.copy_within(b * w..(b + 1) * w, k * w);
                succ_at[k] = edges as u32;
                for e in lo..hi {
                    succ[edges] = remap[succ[e] as usize];
                    edges += 1;
                }
            }
        }
        let kept = kept as usize;
        succ_at[kept] = edges as u32;
        succ_at.truncate(kept + 1);
        succ.truncate(edges);
        f.block_starts.truncate(kept);
        live.live_in.truncate(kept * w);
        live.live_out.truncate(kept * w);
    }

    /// Whether the CFG and the live-in/live-out rows are what building and
    /// solving afresh would give for `f` under the `dead` mask — the
    /// invariant every hand-off of a solve rests on (debug builds assert it
    /// at each one).
    pub(crate) fn is_current(&self, f: &VmFunction, dead: &[bool]) -> bool {
        let mut fresh = Analysis::default();
        fresh.cfg.build(f, dead);
        fresh.live.solve(f, &fresh.cfg, dead);
        fresh.cfg == self.cfg
            && fresh.live.live_in == self.live.live_in
            && fresh.live.live_out == self.live.live_out
    }
}

/// Rewrites `f` in place so registers are compactly numbered and reused
/// where live intervals permit; updates `num_regs`, `reg_class`, `params`,
/// `call_args`, and every op.
#[cfg(test)]
pub fn allocate(f: &mut VmFunction) {
    if f.num_regs == 0 || f.ops.is_empty() {
        return;
    }
    let mut a = Analysis::default();
    let live = vec![false; f.ops.len()];
    a.cfg.build(f, &live);
    a.live.solve(f, &a.cfg, &live);
    allocate_in(f, &mut a);
}

/// [`allocate`] over an [`Analysis`] that is current for `f`.
pub(crate) fn allocate_in(f: &mut VmFunction, a: &mut Analysis) {
    let n = f.num_regs as usize;
    if n == 0 || f.ops.is_empty() {
        return;
    }
    debug_assert!(
        a.is_current(f, &vec![false; f.ops.len()]),
        "@{}: liveness handed to the allocator is stale",
        f.name
    );
    let Scan {
        start,
        end,
        order,
        assign,
        phys_class,
        free,
        active,
    } = &mut a.scan;

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
    start.clear();
    start.resize(n, UNSET);
    end.clear();
    end.resize(n, 0);
    for &p in &f.params {
        touch(start, end, p as usize, 0);
    }
    for (pc, op) in f.ops.iter().enumerate() {
        if let Some(d) = op.def() {
            touch(start, end, d as usize, pc);
        }
        op.for_each_use(&f.call_args, |r| touch(start, end, r as usize, pc));
    }
    for b in 0..a.cfg.num_blocks() {
        let (bs, be) = block_range(f, b);
        for_each_one(a.live.live_in(b), |v| touch(start, end, v, bs));
        for_each_one(a.live.live_out(b), |v| touch(start, end, v, be - 1));
    }

    // Linear scan with per-class free pools. Registers never share even when
    // intervals merely touch (strict `<` expiry) — a cheap safety margin.
    order.clear();
    order.extend((0..n).filter(|&v| start[v] != UNSET));
    order.sort_unstable_by_key(|&v| (start[v], v));
    assign.clear();
    assign.resize(n, 0);
    phys_class.clear();
    free.iter_mut().for_each(Vec::clear);
    active.clear();
    let class_idx = |c: RegClass| match c {
        RegClass::Int => 0usize,
        RegClass::Float => 1,
        RegClass::Ptr => 2,
    };
    for &v in order.iter() {
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
    // The virtual classes' buffer becomes the next function's scratch.
    std::mem::swap(&mut f.reg_class, phys_class);
}

/// The solver this module used before the flat-row workspace: one heap
/// `BitSet` per block and set, cloned along every edge. Kept as the oracle
/// the new solver is compared against — by the tests below, and by debug
/// builds on every solve of every function they compile.
#[cfg(any(test, debug_assertions))]
mod reference {
    use super::{block_range, Cfg, Liveness};
    use crate::ops::VmFunction;

    #[derive(Clone, PartialEq)]
    pub(super) struct BitSet {
        words: Vec<u64>,
    }

    impl BitSet {
        fn new(n: usize) -> BitSet {
            BitSet {
                words: vec![0; n.div_ceil(64)],
            }
        }

        fn insert(&mut self, i: usize) {
            self.words[i / 64] |= 1 << (i % 64);
        }

        fn contains(&self, i: usize) -> bool {
            self.words[i / 64] & (1 << (i % 64)) != 0
        }

        /// `self |= (other & !mask)` (no mask: all of `other`); returns true
        /// if anything changed.
        fn union_minus(&mut self, other: &BitSet, mask: Option<&BitSet>) -> bool {
            let mut changed = false;
            for (i, w) in self.words.iter_mut().enumerate() {
                let new = *w | (other.words[i] & !mask.map_or(0, |m| m.words[i]));
                changed |= new != *w;
                *w = new;
            }
            changed
        }
    }

    /// Block-level backward liveness to fixpoint over `n` registers; returns
    /// `(live_in, live_out)` per block.
    pub(super) fn liveness(
        f: &VmFunction,
        n: usize,
        cfg: &Cfg,
        dead: &[bool],
    ) -> (Vec<BitSet>, Vec<BitSet>) {
        let nb = cfg.num_blocks();
        // Per-block gen_set (upward-exposed uses) and kill (defs).
        let mut gen_set: Vec<BitSet> = Vec::with_capacity(nb);
        let mut kill: Vec<BitSet> = Vec::with_capacity(nb);
        for b in 0..nb {
            let (start, end) = block_range(f, b);
            let mut g = BitSet::new(n);
            let mut k = BitSet::new(n);
            for pc in (start..end).filter(|&pc| !dead[pc]) {
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
                for &s in cfg.succs(b) {
                    let inn = live_in[s as usize].clone();
                    changed |= live_out[b].union_minus(&inn, None);
                }
                let out = live_out[b].clone();
                changed |= live_in[b].union_minus(&out, Some(&kill[b]));
                changed |= live_in[b].union_minus(&gen_set[b], None);
            }
        }
        (live_in, live_out)
    }

    /// Panics unless `new`'s rows are exactly what [`liveness`] computes.
    pub(super) fn assert_same(new: &Liveness, f: &VmFunction, cfg: &Cfg, dead: &[bool]) {
        let (live_in, live_out) = liveness(f, f.num_regs as usize, cfg, dead);
        for b in 0..cfg.num_blocks() {
            assert_eq!(new.live_in(b), live_in[b].words, "@{} live-in {b}", f.name);
            assert_eq!(
                new.live_out(b),
                live_out[b].words,
                "@{} live-out {b}",
                f.name
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Op, PoolConst, VmFunction};
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
            consts: vec![PoolConst::Val(RegClass::Int, 1)],
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
                crate::peephole::tests::add(1, 0, 0),
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
                crate::peephole::tests::add(1, 1, 0),
                crate::peephole::tests::slt(2, 1, 0),
                crate::peephole::tests::br(2, 3, 6),
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

    /// xorshift64: the only randomness of the tests below, seeded per case.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// A random function of `nb` blocks over `n` registers in the shape the
    /// lowerer emits — a constant prologue heading the entry block, every
    /// block ending in its only terminator, every jump target a block start
    /// — biased towards what the peephole stages look for (`d = <op>; s =
    /// mov d`, `cmp` feeding `br`, jumps to the next block) and what stresses
    /// a liveness solver: self-loops, backedges into the entry block, and a
    /// last block that spins forever (no path to a `ret`).
    fn random_fn(rng: &mut Rng, n: u16, nb: usize) -> VmFunction {
        let bodies: Vec<usize> = (0..nb).map(|_| 1 + rng.below(6)).collect();
        // Block b starts after the prologue (block 0 only) and the bodies
        // and terminators before it.
        let prologue = 3;
        let mut block_starts = Vec::new();
        let mut at = 0;
        for (b, body) in bodies.iter().enumerate() {
            block_starts.push(at as u32);
            at += body + 1 + if b == 0 { prologue } else { 0 };
        }
        let reg = |rng: &mut Rng| match rng.below(8) {
            0 => n - 1, // the last bit of the last word
            _ => rng.below(n as usize) as Reg,
        };
        let mut ops = Vec::new();
        let mut call_args = Vec::new();
        for (b, &body) in bodies.iter().enumerate() {
            if b == 0 {
                for _ in 0..prologue {
                    ops.push(Op::Const {
                        dst: reg(rng),
                        idx: 0,
                    });
                }
            }
            let mut last_def = reg(rng);
            for _ in 0..body {
                let (dst, lhs, rhs) = (reg(rng), reg(rng), reg(rng));
                let (op, ty) = (BinOpKind::Add, IrType::I64);
                ops.push(match rng.below(8) {
                    0 | 1 => Op::Mov { dst, src: last_def },
                    2 => Op::Mov { dst, src: lhs },
                    3 => Op::Bin {
                        op: BinOpKind::SDiv, // never removable
                        ty,
                        dst,
                        lhs,
                        rhs,
                    },
                    4 => Op::Load { dst, addr: lhs, ty },
                    5 => {
                        call_args.extend([lhs, rhs]);
                        Op::Call {
                            target: 0,
                            args_at: call_args.len() as u32 - 2,
                            nargs: 2,
                            ret: ty,
                            dst: Some(dst),
                        }
                    }
                    _ => Op::Bin {
                        op,
                        ty,
                        dst,
                        lhs,
                        rhs,
                    },
                });
                last_def = dst;
            }
            let target = |rng: &mut Rng| block_starts[rng.below(nb)];
            let next = block_starts.get(b + 1).copied();
            let term = match (rng.below(8), next) {
                _ if b + 1 == nb => Op::Jmp {
                    target: block_starts[b],
                },
                (0, _) => Op::Ret {
                    src: Some(last_def),
                },
                (1, _) => Op::Jmp { target: 0 },
                (2 | 3, Some(next)) => Op::Jmp { target: next },
                (4, _) => Op::Jmp {
                    target: block_starts[b],
                },
                _ => {
                    let cond = reg(rng);
                    let at = ops.len() - 1;
                    if rng.below(2) == 0 {
                        ops[at] = crate::peephole::tests::slt(cond, last_def, cond);
                    }
                    Op::Br {
                        cond,
                        then_t: target(rng),
                        else_t: target(rng),
                    }
                }
            };
            ops.push(term);
        }
        let mut f = linear_fn(ops, n, vec![RegClass::Int; n as usize]);
        for c in f.reg_class.iter_mut().step_by(5) {
            *c = RegClass::Ptr;
        }
        f.call_args = call_args;
        f.call_targets = vec![crate::ops::CallTarget::Bytecode(0)];
        f.block_starts = block_starts;
        f
    }

    /// Register counts on both sides of the row-width boundaries.
    const WIDTHS: [u16; 5] = [7, 63, 64, 65, 129];

    #[test]
    fn flat_row_solver_agrees_with_the_reference() {
        let mut solved = 0;
        for seed in 1..=60u64 {
            for n in WIDTHS {
                let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) + n as u64);
                let nb = 2 + rng.below(12);
                let f = random_fn(&mut rng, n, nb);
                // Mask a third of the non-terminator ops, as the peephole
                // stages do before compaction.
                let dead: Vec<bool> = f
                    .ops
                    .iter()
                    .map(|op| !op.is_terminator() && rng.below(3) == 0)
                    .collect();
                let mut a = Analysis::default();
                a.cfg.build(&f, &vec![false; f.ops.len()]);
                for mask in [vec![false; f.ops.len()], dead] {
                    // One workspace, solved twice: stale rows of the first
                    // solve must not leak into the second.
                    a.live.solve(&f, &a.cfg, &mask);
                    reference::assert_same(&a.live, &f, &a.cfg, &mask);
                    solved += 1;
                }
            }
        }
        assert_eq!(solved, 60 * WIDTHS.len() * 2);
    }

    /// Deletes from `f` what a real function never brings to the peephole:
    /// a self-move (the lowerer emits none), and every op the mid end's DCE
    /// would have removed before lowering — of what [`random_fn`] emits, a
    /// `mov`, `const`, `cmp` or `add` whose register nothing needed reads.
    /// "Needed" is faint liveness, solved to its least fixpoint: only a
    /// needed op's reads make a register live, so a dead copy cycle (`a =
    /// mov b` … `b = mov a`) goes too, as a dead phi cycle does in the IR.
    fn sweep_dead(f: &mut VmFunction) {
        let needed = |op: Op, live: &[u64]| match op {
            Op::Mov { dst, src } if dst == src => false,
            Op::Mov { dst, .. }
            | Op::Const { dst, .. }
            | Op::Cmp { dst, .. }
            | Op::Bin {
                op: BinOpKind::Add,
                dst,
                ..
            } => bit_test(live, dst),
            _ => true,
        };
        let mut a = Analysis::default();
        let mut dead = vec![false; f.ops.len()];
        a.cfg.build(f, &dead);
        let (nb, w) = (a.cfg.num_blocks(), (f.num_regs as usize).div_ceil(64));
        let mut live_in = vec![0u64; nb * w];
        let mut live = vec![0u64; w];
        // `pass` walks every block backward from its live-out; the last
        // pass, on the fixpoint, marks the ops no one needs.
        let mut pass = |live_in: &mut [u64], dead: &mut [bool]| {
            let mut changed = false;
            for b in (0..nb).rev() {
                live.fill(0);
                for &s in a.cfg.succs(b) {
                    for (l, i) in live.iter_mut().zip(&live_in[s as usize * w..]) {
                        *l |= i;
                    }
                }
                let (start, end) = block_range(f, b);
                for pc in (start..end).rev() {
                    let op = f.ops[pc];
                    dead[pc] = !needed(op, &live);
                    if dead[pc] {
                        continue;
                    }
                    if let Some(d) = op.def() {
                        bit_clear(&mut live, d);
                    }
                    op.for_each_use(&f.call_args, |r| bit_set(&mut live, r));
                }
                let row = &mut live_in[b * w..(b + 1) * w];
                changed |= row != live.as_slice();
                row.copy_from_slice(&live);
            }
            changed
        };
        while pass(&mut live_in, &mut dead) {}
        crate::peephole::compact(f, &dead, &mut a.new_off);
    }

    #[test]
    fn handed_over_liveness_equals_a_fresh_solve() {
        for seed in 1..=60u64 {
            for n in WIDTHS {
                let mut rng = Rng(seed.wrapping_mul(0xD134_2543_DE82_EF95) + n as u64);
                let nb = 2 + rng.below(12);
                let mut f = random_fn(&mut rng, n, nb);
                sweep_dead(&mut f);
                let mut fresh = f.clone();

                // The hand-offs inside the pipeline (after writeback
                // coalescing and compare/branch fusion) are `debug_assert`ed
                // by `optimize_in` itself; the last one — merged blocks,
                // compacted ops — is checked here in every build.
                let mut a = Analysis::default();
                let removed = crate::peephole::optimize_in(&mut f, &mut a);
                let disasm = crate::ops::disasm(&f);
                assert!(
                    a.is_current(&f, &vec![false; f.ops.len()]),
                    "seed {seed}, {n} registers:\n{disasm}"
                );
                allocate_in(&mut f, &mut a);

                // And the allocation is the one a solve of its own gives.
                assert_eq!(crate::peephole::optimize(&mut fresh), removed);
                allocate(&mut fresh);
                assert_eq!(f.ops, fresh.ops, "seed {seed}, {n} registers");
                assert_eq!(f.reg_class, fresh.reg_class);
            }
        }
    }
}
