//! The `LoopUnroll` pass — the mid-end half of the paper's deferred-unroll
//! design (§2.1/§2.2): the front-end only attaches `llvm.loop.unroll.*`
//! metadata ("no duplication takes place until that point"); this pass
//! performs the duplication, on the SSA form `promote` leaves (as LLVM's
//! `LoopUnroll` runs on what mem2reg left):
//!
//! * **full** (constant trip count): `tc` copies of the body chained behind
//!   the preheader, the IV substituted by constants; the header stays as the
//!   way out, its phis holding what the last copy leaves;
//! * **count(k)**: partial unroll producing a main loop of `tc / k` groups
//!   of `k` body copies plus a **remainder loop** reusing the original loop
//!   blocks — the exact shape of the paper's "Partial unrolling with
//!   remainder loop" figure; "LoopUnroll will also handle the case when the
//!   iteration count is not a multiple of the unroll factor". When a
//!   constant trip count is a multiple of `k`, no remainder is built;
//! * **enable**: a documented profitability heuristic picks full, a factor,
//!   or nothing (the paper: "the LoopUnroll pass can apply profitability
//!   heuristics to determine an appropriate factor").
//!
//! Only loops in the canonical skeleton shape are transformed: a latch's
//! branch target is its header, [`Function::induction`] must recognise an
//! `icmp ult iv, tc` on an IV from 0, and the body — the only region copied
//! — may read no value of the header or the exit-test block but a header
//! phi. Anything else keeps its metadata and a statistic records the skip.
//! The trip count is the compare's bound, an immediate when the pipeline's
//! cleanup (which runs first) could fold it. No dominator tree or loop
//! forest is built, and no other pass runs from here.

use omplt_ir::{
    arith, BlockId, CastOp, CmpPred, Function, Induction, Inst, InstId, IrBuilder, IrType,
    LoopMetadata, Terminator, UnrollHint, Value,
};

/// What the pass did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct UnrollStats {
    /// Loops fully unrolled.
    pub full: usize,
    /// Loops partially unrolled (with remainder loop).
    pub partial: usize,
    /// Loops the heuristic chose not to unroll.
    pub declined: usize,
    /// Loops with metadata that could not be matched/transformed.
    pub skipped: usize,
}

/// Cost-model limits (documented in DESIGN.md §7).
const FULL_UNROLL_MAX_GROWTH: u64 = 8_192;
const HEURISTIC_FULL_MAX_TC: u64 = 64;
const HEURISTIC_SMALL_BODY: u64 = 16;
const HEURISTIC_MEDIUM_BODY: u64 = 64;

/// What the pass does with one hinted loop: unroll it fully (`tc` copies)
/// or by a factor, or disable its hint as declined or skipped.
#[derive(Clone, Copy)]
enum Plan {
    Full(u64),
    Partial(u64),
    Decline,
    Skip,
}

/// Runs the unroll pass over `f` until no actionable metadata remains.
pub fn loop_unroll(f: &mut Function) -> UnrollStats {
    let mut stats = UnrollStats::default();
    // One loop per iteration, the first latch with an actionable hint.
    // Terminates because each step removes or disables one metadata
    // annotation.
    loop {
        let target = f.blocks.iter().enumerate().find_map(|(b, block)| {
            let Some(Terminator::Br {
                target: header,
                loop_md: Some(md),
            }) = block.term
            else {
                return None;
            };
            Some((header, BlockId(b as u32), actionable(md.unroll)?))
        });
        let Some((header, latch, hint)) = target else {
            break;
        };
        let skeleton = f.induction(header, latch).ok();
        let skeleton = skeleton.filter(|i| i.pred == CmpPred::Ult && i.start.is_zero_int());
        let copier = skeleton.map(|ind| RegionCopier::new(f, ind));
        let Some(mut copier) = copier.filter(|c| !c.reads_header_value(f)) else {
            disable(f, latch);
            stats.skipped += 1;
            continue;
        };
        let ind = copier.ind;
        let tc = match ind.bound {
            Value::ConstInt { ty, val } => Some(unsigned(ty, val)),
            _ => None,
        };
        let body_size = copier.size(f);
        let fits = |n: u64| n.saturating_mul(body_size) <= FULL_UNROLL_MAX_GROWTH;
        let plan = match (hint, tc) {
            (UnrollHint::Full, Some(n)) if fits(n) => Plan::Full(n),
            // Too large to fully materialize: fall back to a factor.
            (UnrollHint::Full, Some(_)) => Plan::Partial(4),
            // The front-end guarantees `unroll full` only on countable
            // loops, but degrade gracefully.
            (UnrollHint::Full, None) => Plan::Skip,
            (UnrollHint::Count(k), _) if k <= 1 => Plan::Decline,
            (UnrollHint::Count(k), _) => Plan::Partial(k),
            // The profitability heuristic.
            (UnrollHint::Enable, Some(n)) if n <= HEURISTIC_FULL_MAX_TC && fits(n) => Plan::Full(n),
            (UnrollHint::Enable, _) if body_size <= HEURISTIC_SMALL_BODY => Plan::Partial(4),
            (UnrollHint::Enable, _) if body_size <= HEURISTIC_MEDIUM_BODY => Plan::Partial(2),
            (UnrollHint::Enable, _) => Plan::Decline,
            (UnrollHint::Disable, _) => unreachable!("filtered above"),
        };
        match plan {
            Plan::Full(n) => full_unroll(f, &mut copier, n),
            Plan::Partial(k) => partial_unroll(f, &mut copier, k, tc),
            Plan::Decline | Plan::Skip => disable(f, latch),
        }
        *match plan {
            Plan::Full(_) => &mut stats.full,
            Plan::Partial(_) => &mut stats.partial,
            Plan::Decline => &mut stats.declined,
            Plan::Skip => &mut stats.skipped,
        } += 1;
    }
    // What became of every hint, for `--counters-json` (absent = 0).
    for (name, n) in [
        ("midend.unroll.full", stats.full),
        ("midend.unroll.partial", stats.partial),
        ("midend.unroll.declined", stats.declined),
        ("midend.unroll.skipped", stats.skipped),
    ] {
        if n > 0 {
            omplt_trace::count(name, n as u64);
        }
    }
    stats
}

/// `val` of type `ty` read unsigned, as the skeleton's `icmp ult` reads a
/// trip count.
fn unsigned(ty: IrType, val: i64) -> u64 {
    arith::cast(CastOp::ZExt, ty, IrType::I64, val as u64)
}

/// The hint, if it asks this pass for anything.
fn actionable(hint: Option<UnrollHint>) -> Option<UnrollHint> {
    hint.filter(|h| !matches!(h, UnrollHint::Disable))
}

fn disable(f: &mut Function, latch: BlockId) {
    if let Some(t) = f.block_mut(latch).term.as_mut() {
        if let Some(slot) = t.loop_md_mut() {
            *slot = Some(slot.unwrap_or_default().disabled());
        }
    }
}

/// Points `bb`'s branches to `old` at `new`.
fn retarget(f: &mut Function, bb: BlockId, old: BlockId, new: BlockId) {
    if let Some(t) = f.block_mut(bb).term.as_mut() {
        t.map_blocks(|b| if b == old { new } else { b });
    }
}

/// A loop's body region — `region_until(body, latch)` and the latch — and
/// the tables its copies are mapped through. A copy enters with one value
/// per header phi, the IV first, which stands for that phi inside it; it
/// leaves with its mapped latch operands, and the next copy enters with
/// them. Every key is an id that existed before the first copy was added,
/// so the tables are sized once per transformation; a copy overwrites the
/// previous copy's entries before it reads them, and maps a phi's
/// back-edge operands again once they are written.
struct RegionCopier {
    /// The region's blocks in function reverse-postorder (defs before uses).
    rpo: Vec<BlockId>,
    /// The loop.
    ind: Induction,
    /// Each header phi with the values it takes from the preheader and from
    /// the latch, the IV phi moved first.
    phis: Vec<(InstId, Value, Value)>,
    block_map: Vec<Option<BlockId>>,
    value_map: Vec<Option<Value>>,
}

impl RegionCopier {
    fn new(f: &Function, ind: Induction) -> RegionCopier {
        let mut in_region = vec![false; f.blocks.len()];
        for b in f.region_until(ind.body, ind.latch) {
            in_region[b.0 as usize] = true;
        }
        in_region[ind.latch.0 as usize] = true;
        let mut rpo = f.reverse_postorder();
        rpo.retain(|b| in_region[b.0 as usize]);
        // A header phi's edge from the latch, or from outside the loop.
        let edge = |phi: InstId, latch: bool| match f.inst(phi) {
            Inst::Phi { incoming, .. } => {
                let mut edges = incoming.iter().copied();
                edges.find(|(b, _)| (*b == ind.latch) == latch)
            }
            _ => None,
        };
        let header = f.block(ind.header).insts.iter();
        let mut phis: Vec<_> = header
            .map_while(|&i| Some((i, edge(i, false)?.1, edge(i, true)?.1)))
            .collect();
        let iv = phis.iter().position(|p| p.0 == ind.iv_phi);
        phis[..=iv.expect("the IV is a header phi")].rotate_right(1);
        RegionCopier {
            rpo,
            ind,
            phis,
            block_map: vec![None; f.blocks.len()],
            value_map: vec![None; f.insts.len()],
        }
    }

    /// Whether the region reads a value of the header or of the exit-test
    /// block that the copies do not remap: anything but a header phi. Every
    /// copy would read the value the header computed from the loop's own IV
    /// (value numbering keeps the header's values to itself, so the loops it
    /// leaves never do).
    fn reads_header_value(&self, f: &Function) -> bool {
        let ind = &self.ind;
        let fixed = |v: Value| match v {
            Value::Inst(i) => {
                let defines = |b: BlockId| f.block(b).insts.contains(&i);
                !self.phis.iter().any(|p| p.0 == i) && (defines(ind.header) || defines(ind.cond))
            }
            _ => false,
        };
        self.rpo.iter().any(|&b| {
            let mut reads = false;
            for &i in &f.block(b).insts {
                f.inst(i).for_each_operand(|v| reads |= fixed(v));
            }
            let term = f.block(b).term.iter();
            term.for_each(|t| t.for_each_operand(|v| reads |= fixed(v)));
            reads
        })
    }

    /// What one copy costs: the region's instruction count.
    fn size(&self, f: &Function) -> u64 {
        let insts = self.rpo.iter().map(|&b| f.block(b).insts.len());
        insts.sum::<usize>().max(1) as u64
    }

    /// Clones the region once, `vals` entering the header phis, and leaves
    /// in `vals` what the copy feeds back to them. The copy's latch keeps
    /// branching to the header, without the loop's metadata. Returns the
    /// copy's entry and latch.
    fn copy(&mut self, f: &mut Function, vals: &mut [Value], tag: &str) -> (BlockId, BlockId) {
        for (&(phi, ..), &v) in self.phis.iter().zip(vals.iter()) {
            self.value_map[phi.0 as usize] = Some(v);
        }
        for &bb in &self.rpo {
            let name = format!("{}.{tag}", f.block(bb).name);
            self.block_map[bb.0 as usize] = Some(f.add_block(name));
        }
        for &bb in &self.rpo {
            let new_bb = self.block(bb);
            for k in 0..f.block(bb).insts.len() {
                let iid = f.block(bb).insts[k];
                let inst = self.mapped(f.inst(iid));
                self.value_map[iid.0 as usize] = Some(f.push_inst(new_bb, inst));
            }
            let mut term = f
                .block(bb)
                .term
                .clone()
                .expect("region blocks must be terminated");
            term.map_operands(|v| self.value(v));
            term.map_blocks(|t| self.block(t));
            if let Some(md) = term.loop_md_mut().filter(|_| bb == self.ind.latch) {
                *md = None;
            }
            f.block_mut(new_bb).term = Some(term);
        }
        // A phi's operand from an inner loop's back edge is defined later in
        // reverse postorder: map the phis again, now that the whole region
        // has its copy.
        for &bb in &self.rpo {
            for k in 0..f.block(bb).insts.len() {
                let iid = f.block(bb).insts[k];
                if !matches!(f.inst(iid), Inst::Phi { .. }) {
                    break;
                }
                let Some(Value::Inst(copy)) = self.value_map[iid.0 as usize] else {
                    unreachable!("every region instruction was copied")
                };
                *f.inst_mut(copy) = self.mapped(f.inst(iid));
            }
        }
        for (&(.., next), v) in self.phis.iter().zip(vals.iter_mut()) {
            *v = self.value(next);
        }
        (self.block(self.ind.body), self.block(self.ind.latch))
    }

    /// Chains one copy per IV value behind `from`, each taking over the
    /// branch to the header of the block before it; `vals` enter the first
    /// copy and come back holding what the last one leaves. Returns the
    /// block left branching to the header (`from` when there is no copy).
    fn chain(
        &mut self,
        f: &mut Function,
        mut from: BlockId,
        ivs: impl IntoIterator<Item = Value>,
        vals: &mut [Value],
        tag: &str,
    ) -> BlockId {
        for (j, iv) in ivs.into_iter().enumerate() {
            vals[0] = iv;
            let (entry, latch) = self.copy(f, vals, &format!("{tag}{j}"));
            retarget(f, from, self.ind.header, entry);
            from = latch;
        }
        from
    }

    /// Makes `from`, with `vals`, the header's way in from outside the loop.
    /// With `last`, the loop does not run again: the header phis keep only
    /// that edge, `cond` falls through to the exit and the old latch becomes
    /// unreachable.
    fn reenter(&self, f: &mut Function, from: BlockId, vals: &[Value], last: bool) {
        let ind = &self.ind;
        for (&(phi, ..), &v) in self.phis.iter().zip(vals) {
            let Inst::Phi { incoming, .. } = f.inst_mut(phi) else {
                unreachable!("a header phi")
            };
            if last {
                *incoming = vec![(from, v)];
            } else if let Some(e) = incoming.iter_mut().find(|(b, _)| *b != ind.latch) {
                *e = (from, v);
            }
        }
        if last {
            let exit = Terminator::Br {
                target: ind.exit,
                loop_md: None,
            };
            f.block_mut(ind.cond).term = Some(exit);
            f.block_mut(ind.latch).term = Some(Terminator::Unreachable);
        } else {
            disable(f, ind.latch);
        }
    }

    /// `inst` with its operands and a phi's incoming blocks mapped.
    fn mapped(&self, inst: &Inst) -> Inst {
        let mut inst = inst.clone();
        inst.map_operands(|v| self.value(v));
        if let Inst::Phi { incoming, .. } = &mut inst {
            for (b, _) in incoming.iter_mut() {
                *b = self.block(*b);
            }
        }
        inst
    }

    fn value(&self, v: Value) -> Value {
        let Value::Inst(id) = v else { return v };
        self.value_map
            .get(id.0 as usize)
            .copied()
            .flatten()
            .unwrap_or(v)
    }

    fn block(&self, b: BlockId) -> BlockId {
        self.block_map
            .get(b.0 as usize)
            .copied()
            .flatten()
            .unwrap_or(b)
    }
}

/// Replaces the loop with `tc` copies of its body (IV = 0..tc-1) chained
/// behind the preheader; the header, run once, leaves with their result.
fn full_unroll(f: &mut Function, copier: &mut RegionCopier, tc: u64) {
    let ty = f.value_type(copier.ind.bound);
    let mut vals: Vec<Value> = copier.phis.iter().map(|p| p.1).collect();
    let ivs = (0..tc).map(|k| Value::int(ty, k as i64));
    let last = copier.chain(f, copier.ind.preheader, ivs, &mut vals, "unroll");
    copier.reenter(f, last, &vals, true);
}

/// Partial unroll by factor `k` — capped at a constant trip count and at
/// the full-unroll budget, and never below 2 — with a remainder loop:
///
/// ```text
/// preheader:  main_tc = tc / k;  rem_start = main_tc * k;  br main_header
/// main_header: g = phi [0, preheader], [g+1, main_latch]
///              t = phi [init, preheader], [out, main_latch]  (per header phi)
///              base = g * k;  iv_0 = base;  iv_1 = base + 1; …
///              br main_cond
/// main_cond:   br (g <u main_tc), copy_0, main_exit
/// copy_j:      <body with iv := iv_j, entered with t or copy_j-1's out>
/// main_latch:  g = g + 1; br main_header         (unroll.disable)
/// main_exit:   br old_header                      (remainder loop)
/// old loop:    unchanged, but entered with IV = rem_start and the t;
///              metadata disabled
/// ```
///
/// When a constant trip count is a multiple of `k`, the old loop is left
/// through its header as in [`full_unroll`]: no remainder runs.
fn partial_unroll(f: &mut Function, copier: &mut RegionCopier, k: u64, tc: Option<u64>) {
    let ind = copier.ind;
    let ty = f.value_type(ind.bound);
    let budget = FULL_UNROLL_MAX_GROWTH / copier.size(f);
    // Without a constant, the most trips the type can count.
    let k = k.min(tc.unwrap_or(unsigned(ty, -1))).min(budget).max(2);
    let preheader = ind.preheader;
    let k_const = Value::int(ty, k as i64);

    let mut b = IrBuilder::new(f);
    b.set_insert_point(preheader);
    let main_tc = b.udiv(ind.bound, k_const);
    let rem_start = b.mul(main_tc, k_const);

    let mheader = b.create_block("main.header");
    let mcond = b.create_block("main.cond");
    let mlatch = b.create_block("main.latch");
    let mexit = b.create_block("main.exit");
    b.set_insert_point(mheader);
    let mut phis = Vec::with_capacity(copier.phis.len());
    for &(phi, init, _) in &copier.phis {
        let ty = b.type_of(Value::Inst(phi));
        let (v, twin) = b.phi(ty);
        b.add_phi_incoming(twin, preheader, init);
        phis.push((v, twin));
    }
    // The IV phi's twin counts groups.
    let g = phis[0].0;
    let base = b.mul(g, k_const);
    let ivs: Vec<Value> = (0..k)
        .map(|j| b.add(base, Value::int(ty, j as i64)))
        .collect();
    b.br(mcond);
    b.set_insert_point(mcond);
    let c = b.cmp(CmpPred::Ult, g, main_tc);
    // The first copy takes over the branch to the header.
    b.cond_br(c, ind.header, mexit);
    b.set_insert_point(mlatch);
    let g1 = b.add(g, Value::int(ty, 1));
    b.br_with_md(mheader, LoopMetadata::unroll(UnrollHint::Disable));
    b.set_insert_point(mexit);
    b.br(ind.header);

    let mut vals: Vec<Value> = phis.iter().map(|p| p.0).collect();
    let last = copier.chain(f, mcond, ivs, &mut vals, "copy");
    retarget(f, last, ind.header, mlatch);
    vals[0] = g1;
    let mut b = IrBuilder::new(f);
    for (&(_, twin), &v) in phis.iter().zip(&vals) {
        b.add_phi_incoming(twin, mlatch, v);
    }
    retarget(f, preheader, ind.header, mheader);

    // The old loop is entered with what the main loop leaves.
    let mut vals: Vec<Value> = phis.iter().map(|p| p.0).collect();
    vals[0] = rem_start;
    let last_trip = tc.is_some_and(|n| n % k == 0);
    copier.reenter(f, mexit, &vals, last_trip);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DomTree;
    use omplt_ir::{assert_verified, IrType, Module};
    use omplt_ompirb::{create_canonical_loop_skeleton, CanonicalLoopInfo};

    /// Adds `name(params) { for (iv in 0..tc) print_i64(iv) }` to `m`, the
    /// loop built by the builder every lowering uses and carrying `hint`.
    fn add_loop_fn(m: &mut Module, name: &str, params: Vec<IrType>, tc: Value, hint: UnrollHint) {
        let sink = m.intern("print_i64");
        let mut f = Function::new(name, params, IrType::I32);
        let mut b = IrBuilder::new(&mut f);
        let cli = omplt_ompirb::create_canonical_loop(&mut b, tc, "i", |b, iv| {
            b.call(sink, vec![iv], IrType::Void);
        });
        b.ret(Some(Value::i32(0)));
        cli.set_metadata(&mut f, LoopMetadata::unroll(hint));
        m.add_function(f);
    }

    fn loop_module(tc: Value, hint: UnrollHint) -> Module {
        let mut m = Module::new();
        add_loop_fn(&mut m, "main", vec![], tc, hint);
        m
    }

    fn run_collect(m: &Module) -> String {
        let it = omplt_interp::Interpreter::new(m, omplt_interp::RuntimeConfig::default());
        it.run_main().expect("execution failed").stdout
    }

    fn expected(tc: u64) -> String {
        (0..tc).map(|i| format!("{i}\n")).collect()
    }

    #[test]
    fn full_unroll_replaces_loop_and_preserves_semantics() {
        let mut m = loop_module(Value::i64(5), UnrollHint::Full);
        let before = run_collect(&m);
        let stats = loop_unroll(m.function_mut("main").unwrap());
        assert_eq!(stats.full, 1);
        let f = m.function("main").unwrap();
        assert_verified(f);
        assert_eq!(run_collect(&m), before);
        assert_eq!(run_collect(&m), expected(5));
        assert_eq!(back_edges(f), 0, "full unroll must leave no back edge");
    }

    #[test]
    fn full_unroll_zero_trip_count() {
        let mut m = loop_module(Value::i64(0), UnrollHint::Full);
        let stats = loop_unroll(m.function_mut("main").unwrap());
        assert_eq!(stats.full, 1);
        assert_eq!(run_collect(&m), "");
    }

    #[test]
    fn partial_unroll_preserves_semantics_with_remainder() {
        // 10 iterations, factor 4: main loop 2 groups, remainder 2.
        for tc in [0u64, 1, 3, 4, 10, 17] {
            let mut m = loop_module(Value::i64(tc as i64), UnrollHint::Count(4));
            let stats = loop_unroll(m.function_mut("main").unwrap());
            assert_eq!(stats.partial, 1, "tc={tc}");
            assert_verified(m.function("main").unwrap());
            assert_eq!(run_collect(&m), expected(tc), "tc={tc}");
        }
    }

    /// Adds `name(params)`: `s = 7`, a loop over `tc` trips carrying `hint`
    /// whose body `body` advances `s` — a second header phi — and branches
    /// to the latch, then `print_i64(s)`. `body` gets the builder at the
    /// loop body, the loop and `s`, and returns the value `s` takes at the
    /// latch.
    fn add_sum_fn(
        m: &mut Module,
        name: &str,
        params: Vec<IrType>,
        tc: Value,
        hint: UnrollHint,
        body: impl FnOnce(&mut IrBuilder<'_>, &CanonicalLoopInfo, Value) -> Value,
    ) {
        let sink = m.intern("print_i64");
        let mut f = Function::new(name, params, IrType::I32);
        let mut b = IrBuilder::new(&mut f);
        let cli = create_canonical_loop_skeleton(&mut b, tc, "i", true);
        let s = header_phi(&mut b, cli.header, cli.preheader, Value::i64(7));
        b.set_insert_point(cli.body);
        let next = body(&mut b, &cli, Value::Inst(s));
        b.add_phi_incoming(s, cli.latch, next);
        b.set_insert_point(cli.after);
        b.call(sink, vec![Value::Inst(s)], IrType::Void);
        b.ret(Some(Value::i32(0)));
        cli.set_metadata(&mut f, LoopMetadata::unroll(hint));
        m.add_function(f);
    }

    /// An `i64` phi after `header`'s, entered with `init` from `preheader`.
    fn header_phi(
        b: &mut IrBuilder<'_>,
        header: BlockId,
        preheader: BlockId,
        init: Value,
    ) -> InstId {
        let incoming = vec![(preheader, init)];
        let phi = b.func_mut().push_inst(
            header,
            Inst::Phi {
                ty: IrType::I64,
                incoming,
            },
        );
        let Value::Inst(id) = phi else { unreachable!() };
        id
    }

    /// `s + iv * iv`.
    fn squares(b: &mut IrBuilder<'_>, cli: &CanonicalLoopInfo, s: Value) -> Value {
        let sq = b.mul(cli.iv(), cli.iv());
        let next = b.add(s, sq);
        b.br(cli.latch);
        next
    }

    /// Unrolls `main`, which must verify and print what it printed before.
    fn unroll_main(m: &mut Module) -> UnrollStats {
        let before = run_collect(m);
        let stats = loop_unroll(m.function_mut("main").unwrap());
        assert_verified(m.function("main").unwrap());
        assert_eq!(run_collect(m), before);
        stats
    }

    /// The loops of `f`, one per back edge: an edge from a reachable block
    /// to a block dominating it.
    fn back_edges(f: &Function) -> usize {
        let dt = DomTree::compute(f);
        let blocks = (0..f.blocks.len() as u32).map(BlockId);
        let edges = blocks.flat_map(|b| f.successors(b).map(move |s| (b, s)));
        edges
            .filter(|&(b, s)| dt.is_reachable(b) && dt.dominates(s, b))
            .count()
    }

    fn loops_in_main(m: &Module) -> usize {
        back_edges(m.function("main").unwrap())
    }

    #[test]
    fn a_second_header_phi_leaves_with_the_last_copy() {
        for tc in [0, 1, 3, 4, 10, 17] {
            for hint in [UnrollHint::Full, UnrollHint::Count(4)] {
                let mut m = Module::new();
                add_sum_fn(&mut m, "main", vec![], Value::i64(tc), hint, squares);
                let stats = unroll_main(&mut m);
                assert_eq!(stats.full + stats.partial, 1, "tc={tc} {hint:?}");
            }
        }
        // A runtime trip count: main loop and remainder, for every `n`.
        let mut m = Module::new();
        let (params, tc) = (vec![IrType::I64], Value::Arg(0));
        add_sum_fn(&mut m, "kernel", params, tc, UnrollHint::Count(4), squares);
        let run = |m: &Module, n| {
            let it = omplt_interp::Interpreter::new(m, omplt_interp::RuntimeConfig::default());
            let run = it.run_function("kernel", vec![n as u64]);
            run.expect("execution failed").stdout
        };
        let ns = [0i64, 1, 3, 4, 7, 11];
        let before = ns.map(|n| run(&m, n));
        let stats = loop_unroll(m.function_mut("kernel").unwrap());
        assert_eq!(stats.partial, 1);
        assert_verified(m.function("kernel").unwrap());
        assert_eq!(ns.map(|n| run(&m, n)), before);
    }

    #[test]
    fn a_region_with_its_own_skeleton_is_copied_with_its_phis() {
        // `for i < 9 { for j < 3 { s += i * j } }`: the inner skeleton's IV
        // and its own `s` are phis of the region, with back-edge operands.
        let nested = |b: &mut IrBuilder<'_>, cli: &CanonicalLoopInfo, s: Value| {
            let inner = create_canonical_loop_skeleton(b, Value::i64(3), "j", true);
            let t = header_phi(b, inner.header, inner.preheader, s);
            b.set_insert_point(inner.body);
            let p = b.mul(cli.iv(), inner.iv());
            let next = b.add(Value::Inst(t), p);
            b.br(inner.latch);
            b.add_phi_incoming(t, inner.latch, next);
            b.set_insert_point(inner.after);
            b.br(cli.latch);
            Value::Inst(t)
        };
        let mut m = Module::new();
        add_sum_fn(
            &mut m,
            "main",
            vec![],
            Value::i64(9),
            UnrollHint::Count(2),
            nested,
        );
        assert_eq!(unroll_main(&mut m).partial, 1);
        assert_eq!(run_collect(&m), "115\n");
        // Main loop, remainder, and an inner loop in each of the 2 + 1 copies.
        assert_eq!(loops_in_main(&m), 5);
    }

    #[test]
    fn a_latch_with_a_phi_is_copied() {
        // `if (iv & 1) s += iv;` with the join — what a `continue` makes —
        // at the latch.
        let odd = |b: &mut IrBuilder<'_>, cli: &CanonicalLoopInfo, s: Value| {
            let from = b.insert_block();
            let then = b.create_block("then");
            let bit = b.bin(omplt_ir::BinOpKind::And, cli.iv(), Value::i64(1));
            let c = b.cmp(CmpPred::Ne, bit, Value::i64(0));
            b.cond_br(c, then, cli.latch);
            b.set_insert_point(then);
            let added = b.add(s, cli.iv());
            b.br(cli.latch);
            let incoming = vec![(from, s), (then, added)];
            let join = Inst::Phi {
                ty: IrType::I64,
                incoming,
            };
            b.func_mut().prepend_inst(cli.latch, join)
        };
        for (tc, hint) in [
            (10, UnrollHint::Full),
            (10, UnrollHint::Count(3)),
            (7, UnrollHint::Count(2)),
        ] {
            let mut m = Module::new();
            add_sum_fn(&mut m, "main", vec![], Value::i64(tc), hint, odd);
            let stats = unroll_main(&mut m);
            assert_eq!(stats.full + stats.partial, 1, "tc={tc} {hint:?}");
        }
    }

    #[test]
    fn a_trip_count_the_factor_divides_builds_no_remainder() {
        let mut m = loop_module(Value::i64(12), UnrollHint::Count(4));
        assert_eq!(unroll_main(&mut m).partial, 1);
        assert_eq!(loops_in_main(&m), 1, "the main loop only");
    }

    #[test]
    fn partial_unroll_has_two_loops_after() {
        // main loop + remainder loop (the paper's lst:remainder shape)
        let mut m = loop_module(Value::i64(10), UnrollHint::Count(4));
        loop_unroll(m.function_mut("main").unwrap());
        assert_eq!(loops_in_main(&m), 2, "expected main + remainder loop");
    }

    #[test]
    fn runtime_trip_count_partial_unroll() {
        // trip count is a function argument: still unrollable partially.
        let mut m = Module::new();
        let (params, tc) = (vec![IrType::I64], Value::Arg(0));
        add_loop_fn(&mut m, "kernel", params, tc, UnrollHint::Count(3));
        let stats = loop_unroll(m.function_mut("kernel").unwrap());
        assert_eq!(stats.partial, 1);
        assert_verified(m.function("kernel").unwrap());
        for n in [0i64, 1, 3, 7, 11] {
            let it = omplt_interp::Interpreter::new(&m, omplt_interp::RuntimeConfig::default());
            let run = it.run_function("kernel", vec![n as u64]);
            assert_eq!(run.unwrap().stdout, expected(n as u64), "n={n}");
        }
    }

    #[test]
    fn heuristic_full_unrolls_small_constant_loops() {
        let mut m = loop_module(Value::i64(8), UnrollHint::Enable);
        let stats = loop_unroll(m.function_mut("main").unwrap());
        assert_eq!(stats.full, 1);
        assert_eq!(run_collect(&m), expected(8));
    }

    #[test]
    fn heuristic_picks_factor_for_runtime_tc() {
        // Runtime trip count & small body → factor 4.
        let mut m = loop_module(Value::i64(100), UnrollHint::Enable);
        // force the runtime-tc path by making the tc large (above the
        // full-unroll threshold? 100 > 64 → partial path)
        let stats = loop_unroll(m.function_mut("main").unwrap());
        assert_eq!(stats.partial, 1);
        assert_eq!(run_collect(&m), expected(100));
    }

    #[test]
    fn disable_metadata_is_respected() {
        let mut m = loop_module(Value::i64(5), UnrollHint::Disable);
        let stats = loop_unroll(m.function_mut("main").unwrap());
        assert_eq!(stats, UnrollStats::default());
        assert_eq!(run_collect(&m), expected(5));
    }

    #[test]
    fn no_actionable_hint_builds_no_analysis() {
        // What most functions look like: a loop without metadata, with only
        // the `is_canonical` marker every skeleton carries, or disabled. The
        // pass finds no latch to act on and leaves the loop as it is.
        let canonical = LoopMetadata {
            is_canonical: true,
            ..Default::default()
        };
        for md in [None, Some(canonical), Some(canonical.disabled())] {
            let mut m = loop_module(Value::i64(5), UnrollHint::Enable);
            let f = m.function_mut("main").unwrap();
            let terms = f.blocks.iter_mut().filter_map(|b| b.term.as_mut());
            let mut slots = terms.filter_map(Terminator::loop_md_mut);
            *slots.find(|slot| slot.is_some()).expect("a latch") = md;
            let stats = loop_unroll(m.function_mut("main").unwrap());
            assert_eq!(stats, UnrollStats::default(), "{md:?}");
            assert_eq!(run_collect(&m), expected(5));
        }
    }

    #[test]
    fn two_hinted_loops_in_one_function_are_both_unrolled() {
        let mut m = Module::new();
        let sink = m.intern("print_i64");
        let mut f = Function::new("main", vec![], IrType::I32);
        let mut b = IrBuilder::new(&mut f);
        let body = |b: &mut IrBuilder<'_>, iv| {
            b.call(sink, vec![iv], IrType::Void);
        };
        let first = omplt_ompirb::create_canonical_loop(&mut b, Value::i64(3), "i", body);
        let second = omplt_ompirb::create_canonical_loop(&mut b, Value::i64(9), "j", body);
        b.ret(Some(Value::i32(0)));
        first.set_metadata(&mut f, LoopMetadata::unroll(UnrollHint::Full));
        second.set_metadata(&mut f, LoopMetadata::unroll(UnrollHint::Count(4)));
        m.add_function(f);

        let stats = loop_unroll(m.function_mut("main").unwrap());
        assert_eq!((stats.full, stats.partial), (1, 1));
        assert_verified(m.function("main").unwrap());
        assert_eq!(run_collect(&m), expected(3) + &expected(9));
    }

    /// Feeds `iv + 2` to the IV phi — the first instruction of the header —
    /// of `f`'s hinted loop; the latch keeps its `iv + 1`.
    fn step_by_two(f: &mut Function) {
        let hinted =
            |b: &omplt_ir::BlockData| b.term.as_ref().is_some_and(|t| t.loop_md().is_some());
        let latch = BlockId(f.blocks.iter().position(hinted).unwrap() as u32);
        let Some(Terminator::Br { target, .. }) = f.block(latch).term else {
            panic!("a latch branches back")
        };
        let iv = f.block(target).insts[0];
        let two = Inst::Bin {
            op: omplt_ir::BinOpKind::Add,
            lhs: Value::Inst(iv),
            rhs: Value::i64(2),
        };
        let two = f.push_inst(latch, two);
        if let Inst::Phi { incoming, .. } = f.inst_mut(iv) {
            incoming.iter_mut().find(|(b, _)| *b == latch).unwrap().1 = two;
        }
    }

    /// A body reading `10 * i` off the header, where no copy remaps it, is
    /// skipped rather than every copy printing the first trip's value.
    #[test]
    fn a_body_reading_a_header_value_is_skipped() {
        for hint in [UnrollHint::Full, UnrollHint::Count(2)] {
            let mut m = Module::new();
            let sink = m.intern("print_i64");
            let mut f = Function::new("main", vec![], IrType::I32);
            let mut b = IrBuilder::new(&mut f);
            let cli = create_canonical_loop_skeleton(&mut b, Value::i64(4), "i", true);
            let tens = Inst::Bin {
                op: omplt_ir::BinOpKind::Mul,
                lhs: cli.iv(),
                rhs: Value::i64(10),
            };
            let tens = b.func_mut().push_inst(cli.header, tens);
            b.set_insert_point(cli.body);
            b.call(sink, vec![tens], IrType::Void);
            b.br(cli.latch);
            b.set_insert_point(cli.after);
            b.ret(Some(Value::i32(0)));
            cli.set_metadata(&mut f, LoopMetadata::unroll(hint));
            m.add_function(f);
            assert_eq!(run_collect(&m), "0\n10\n20\n30\n");
            assert_eq!(unroll_main(&mut m).skipped, 1, "{hint:?}");
        }
    }

    #[test]
    fn a_skeleton_stepping_by_two_is_skipped() {
        for hint in [UnrollHint::Full, UnrollHint::Count(2)] {
            let mut m = loop_module(Value::i64(8), hint);
            step_by_two(m.function_mut("main").unwrap());
            assert_eq!(run_collect(&m), "0\n2\n4\n6\n");
            assert_eq!(unroll_main(&mut m).skipped, 1, "{hint:?}");
        }
    }
}
