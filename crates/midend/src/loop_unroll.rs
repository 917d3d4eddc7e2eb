//! The `LoopUnroll` pass — the mid-end half of the paper's deferred-unroll
//! design (§2.1/§2.2): the front-end only attaches `llvm.loop.unroll.*`
//! metadata ("no duplication takes place until that point"); this pass
//! performs the duplication:
//!
//! * **full** (constant trip count): the loop is replaced by `tc` copies of
//!   the body with the IV substituted by constants;
//! * **count(k)**: partial unroll producing a main loop of `tc / k` groups
//!   of `k` body copies plus a **remainder loop** reusing the original loop
//!   blocks — the exact shape of the paper's "Partial unrolling with
//!   remainder loop" figure; "LoopUnroll will also handle the case when the
//!   iteration count is not a multiple of the unroll factor";
//! * **enable**: a documented profitability heuristic picks full, a factor,
//!   or nothing (the paper: "the LoopUnroll pass can apply profitability
//!   heuristics to determine an appropriate factor").
//!
//! Only loops in the canonical skeleton shape are transformed (recovered by
//! [`crate::loop_info::match_skeleton`]); anything else keeps its metadata
//! and a statistic records the skip.

use crate::domtree::DomTree;
use crate::loop_info::{match_skeleton, LoopInfo, SkeletonLoop};
use omplt_ir::{
    BlockId, CmpPred, Function, Inst, InstId, IrBuilder, LoopMetadata, Terminator, UnrollHint,
    Value,
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
const HEURISTIC_FULL_MAX_TC: i64 = 64;
const HEURISTIC_SMALL_BODY: usize = 16;
const HEURISTIC_MEDIUM_BODY: usize = 64;

/// Runs the unroll pass over `f` until no actionable metadata remains.
pub fn loop_unroll(f: &mut Function) -> UnrollStats {
    let mut stats = UnrollStats::default();
    // One loop per iteration: every transformation invalidates the CFG
    // analyses, so recompute. Terminates because each step removes or
    // disables one metadata annotation. Most functions carry no actionable
    // hint at all, and for those no analysis is built.
    loop {
        let hinted = f.blocks.iter().any(|b| {
            let md = b.term.as_ref().and_then(Terminator::loop_md);
            md.is_some_and(|md| actionable(md.unroll).is_some())
        });
        if !hinted {
            break;
        }
        let dt = DomTree::compute(f);
        let li = LoopInfo::compute(f, &dt);
        let target = li.loops.iter().find_map(|l| {
            let md = f.block(l.latch).term.as_ref()?.loop_md()?;
            Some((l.clone(), actionable(md.unroll)?))
        });
        let Some((l, hint)) = target else {
            break;
        };

        let Some(sk) = match_skeleton(f, &l) else {
            disable(f, l.latch);
            stats.skipped += 1;
            continue;
        };
        let region = f.region_until(sk.body, sk.latch);
        if region_has_phis(f, &region) {
            disable(f, l.latch);
            stats.skipped += 1;
            continue;
        }
        let body_size = sweep_dead(f, &region);

        match hint {
            UnrollHint::Full => {
                let Some(tc) = sk.trip_count.as_const_int() else {
                    // Non-constant trip count: full unrolling is impossible;
                    // the front-end guarantees `unroll full` only on
                    // countable loops, but degrade gracefully.
                    disable(f, l.latch);
                    stats.skipped += 1;
                    continue;
                };
                if (tc.max(0) as u64).saturating_mul(body_size.max(1) as u64)
                    > FULL_UNROLL_MAX_GROWTH
                {
                    // Too large to fully materialize: fall back to a factor.
                    partial_unroll(f, &sk, &region, 4);
                    stats.partial += 1;
                    continue;
                }
                full_unroll(f, &sk, &region, tc.max(0) as u64);
                stats.full += 1;
            }
            UnrollHint::Count(k) if k <= 1 => {
                disable(f, l.latch);
                stats.declined += 1;
            }
            UnrollHint::Count(k) => {
                partial_unroll(f, &sk, &region, k);
                stats.partial += 1;
            }
            UnrollHint::Enable => {
                // Profitability heuristic.
                let tc = sk.trip_count.as_const_int();
                match tc {
                    Some(n)
                        if n <= HEURISTIC_FULL_MAX_TC
                            && (n.max(0) as u64) * body_size.max(1) as u64
                                <= FULL_UNROLL_MAX_GROWTH =>
                    {
                        full_unroll(f, &sk, &region, n.max(0) as u64);
                        stats.full += 1;
                    }
                    _ if body_size <= HEURISTIC_SMALL_BODY => {
                        partial_unroll(f, &sk, &region, 4);
                        stats.partial += 1;
                    }
                    _ if body_size <= HEURISTIC_MEDIUM_BODY => {
                        partial_unroll(f, &sk, &region, 2);
                        stats.partial += 1;
                    }
                    _ => {
                        disable(f, l.latch);
                        stats.declined += 1;
                    }
                }
            }
            UnrollHint::Disable => unreachable!("filtered above"),
        }
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

fn region_has_phis(f: &Function, region: &[BlockId]) -> bool {
    region.iter().any(|&bb| {
        f.block(bb)
            .insts
            .iter()
            .any(|&i| matches!(f.inst(i), Inst::Phi { .. }))
    })
}

/// Drops from a phi-free `region` what the pipeline's DCE, which runs after
/// this pass, would drop anyway — everything but stores, calls, what the
/// region's branches read and what those need — and returns how many
/// instructions are left. The thresholds weigh, and the copies hold, only
/// code that will exist: a discarded expression statement (`a[i];`) is
/// lowered to loads nothing reads. Without phis nothing outside the region
/// can use a value defined in it, so the region's own roots decide.
fn sweep_dead(f: &mut Function, region: &[BlockId]) -> usize {
    let mut live = vec![false; f.insts.len()];
    let mut work: Vec<Value> = Vec::new();
    for &bb in region {
        let block = f.block(bb);
        for &i in &block.insts {
            if matches!(f.inst(i), Inst::Store { .. } | Inst::Call { .. }) {
                work.push(Value::Inst(i));
            }
        }
        if let Some(Terminator::CondBr { cond: v, .. } | Terminator::Ret(Some(v))) = &block.term {
            work.push(*v);
        }
    }
    while let Some(v) = work.pop() {
        let Value::Inst(i) = v else { continue };
        if !std::mem::replace(&mut live[i.0 as usize], true) {
            f.inst(i).for_each_operand(|op| work.push(op));
        }
    }
    let mut size = 0;
    for &bb in region {
        let insts = &mut f.block_mut(bb).insts;
        insts.retain(|i| live[i.0 as usize]);
        size += insts.len();
    }
    size
}

/// A loop's body region and the tables its copies are mapped through.
/// Every key is an id that existed before the first copy was added (a
/// region block, a region instruction, the induction phi), so the tables
/// are sized once per transformation and each copy resets only its own
/// entries.
struct RegionCopier {
    /// The region's blocks in function reverse-postorder (defs before uses).
    rpo: Vec<BlockId>,
    /// The region's entry (the loop body), the latch its branches leave it
    /// for, and the induction phi each copy replaces with its own value.
    entry: BlockId,
    latch: BlockId,
    iv_phi: InstId,
    block_map: Vec<Option<BlockId>>,
    value_map: Vec<Option<Value>>,
}

impl RegionCopier {
    fn new(f: &Function, sk: &SkeletonLoop, region: &[BlockId]) -> RegionCopier {
        let mut in_region = vec![false; f.blocks.len()];
        for &b in region {
            in_region[b.0 as usize] = true;
        }
        let mut rpo = f.reverse_postorder();
        rpo.retain(|b| in_region[b.0 as usize]);
        RegionCopier {
            rpo,
            entry: sk.body,
            latch: sk.latch,
            iv_phi: sk.iv_phi,
            block_map: vec![None; f.blocks.len()],
            value_map: vec![None; f.insts.len()],
        }
    }

    /// Clones the region with the induction phi standing for `iv`,
    /// remapping values and intra-region branch targets; branches to the
    /// latch go to `exit_to` instead. Returns the clone's entry block.
    fn copy(&mut self, f: &mut Function, iv: Value, exit_to: BlockId, tag: &str) -> BlockId {
        for &bb in &self.rpo {
            let name = format!("{}.{tag}", f.block(bb).name);
            self.block_map[bb.0 as usize] = Some(f.add_block(name));
        }
        self.block_map[self.latch.0 as usize] = Some(exit_to);
        self.value_map[self.iv_phi.0 as usize] = Some(iv);
        for i in 0..self.rpo.len() {
            let (bb, new_bb) = (self.rpo[i], self.block(self.rpo[i]));
            for k in 0..f.block(bb).insts.len() {
                let iid = f.block(bb).insts[k];
                let mut inst = f.inst(iid).clone();
                inst.map_operands(|v| self.value(v));
                self.value_map[iid.0 as usize] = Some(f.push_inst(new_bb, inst));
            }
            let mut term = f
                .block(bb)
                .term
                .clone()
                .expect("region blocks must be terminated");
            term.map_operands(|v| self.value(v));
            term.map_blocks(|t| self.block(t));
            f.block_mut(new_bb).term = Some(term);
        }
        let entry = self.block(self.entry);
        // The next copy starts from empty tables, as if they were new.
        self.block_map[self.latch.0 as usize] = None;
        self.value_map[self.iv_phi.0 as usize] = None;
        for &bb in &self.rpo {
            self.block_map[bb.0 as usize] = None;
            for &iid in &f.block(bb).insts {
                self.value_map[iid.0 as usize] = None;
            }
        }
        entry
    }

    fn value(&self, v: Value) -> Value {
        match v {
            Value::Inst(id) => self.value_map.get(id.0 as usize).copied().flatten(),
            _ => None,
        }
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

/// The preheader of a skeleton loop: the IV phi's non-latch incoming block.
fn preheader_of(f: &Function, sk: &SkeletonLoop) -> BlockId {
    match f.inst(sk.iv_phi) {
        Inst::Phi { incoming, .. } => incoming
            .iter()
            .find(|(b, _)| *b != sk.latch)
            .map(|(b, _)| *b)
            .expect("skeleton phi must have a preheader edge"),
        _ => unreachable!("iv_phi is a phi"),
    }
}

/// Replaces the loop with `tc` sequential body copies (IV = 0..tc-1).
fn full_unroll(f: &mut Function, sk: &SkeletonLoop, region: &[BlockId], tc: u64) {
    let mut copier = RegionCopier::new(f, sk, region);
    let preheader = preheader_of(f, sk);
    let ty = f.value_type(sk.trip_count);

    // Clone back-to-front so each copy can point at its successor.
    let mut next_entry = sk.exit;
    for k in (0..tc).rev() {
        let iv = Value::int(ty, k as i64);
        next_entry = copier.copy(f, iv, next_entry, &format!("unroll{k}"));
    }
    // The preheader now jumps straight into the first copy (or the exit for
    // a zero-trip loop); header/cond/body/latch become unreachable, and the
    // abandoned latch must not keep asking for analyses.
    if let Some(t) = f.block_mut(preheader).term.as_mut() {
        t.map_blocks(|b| if b == sk.header { next_entry } else { b });
    }
    disable(f, sk.latch);
}

/// Partial unroll by factor `k` with a remainder loop:
///
/// ```text
/// preheader:  main_tc = tc / k;  rem_start = main_tc * k;  br main_header
/// main_header: g = phi [0, preheader], [g+1, main_latch]
///              base = g * k;  iv_0 = base;  iv_1 = base + 1; …
///              br main_cond
/// main_cond:   br (g <u main_tc), copy_0, main_exit
/// copy_j:      <body with iv := iv_j>            (j = 0 … k-1)
/// main_latch:  g = g + 1; br main_header         (unroll.disable)
/// main_exit:   br old_header                      (remainder loop)
/// old loop:    unchanged, but IV starts at rem_start; metadata disabled
/// ```
fn partial_unroll(f: &mut Function, sk: &SkeletonLoop, region: &[BlockId], k: u64) {
    let mut copier = RegionCopier::new(f, sk, region);
    let preheader = preheader_of(f, sk);
    let ty = f.value_type(sk.trip_count);
    let k_const = Value::int(ty, k as i64);

    // Preheader computations.
    let (main_tc, rem_start) = {
        let mut b = IrBuilder::new(f);
        b.set_insert_point(preheader);
        let main_tc = b.udiv(sk.trip_count, k_const);
        let rem_start = b.mul(main_tc, k_const);
        (main_tc, rem_start)
    };

    // Main-loop skeleton.
    let (mheader, mcond, mlatch, mexit, g_phi, ivs) = {
        let mut b = IrBuilder::new(f);
        let mheader = b.create_block("main.header");
        let mcond = b.create_block("main.cond");
        let mlatch = b.create_block("main.latch");
        let mexit = b.create_block("main.exit");

        b.set_insert_point(mheader);
        let (g, g_phi) = b.phi(ty);
        b.add_phi_incoming(g_phi, preheader, Value::int(ty, 0));
        let base = b.mul(g, k_const);
        let ivs: Vec<Value> = (0..k)
            .map(|j| b.add(base, Value::int(ty, j as i64)))
            .collect();
        b.br(mcond);

        b.set_insert_point(mcond);
        let c = b.cmp(CmpPred::Ult, g, main_tc);
        // placeholder targets patched below (copy_0 unknown yet)
        b.cond_br(c, mexit, mexit);

        b.set_insert_point(mlatch);
        let g1 = b.add(g, Value::int(ty, 1));
        b.add_phi_incoming(g_phi, mlatch, g1);
        b.br_with_md(mheader, LoopMetadata::unroll(UnrollHint::Disable));

        b.set_insert_point(mexit);
        b.br(sk.header);
        (mheader, mcond, mlatch, mexit, g_phi, ivs)
    };
    let _ = g_phi;

    // Body copies, chained back-to-front into the main latch.
    let mut next_entry = mlatch;
    for j in (0..k).rev() {
        let iv = ivs[j as usize];
        next_entry = copier.copy(f, iv, next_entry, &format!("copy{j}"));
    }
    // Patch the main cond's true edge to the first copy.
    if let Some(Terminator::CondBr { then_bb, .. }) = f.block_mut(mcond).term.as_mut() {
        *then_bb = next_entry;
    }

    // Redirect the preheader into the main loop.
    if let Some(t) = f.block_mut(preheader).term.as_mut() {
        t.map_blocks(|b| if b == sk.header { mheader } else { b });
    }

    // Remainder: the original loop, entered from main_exit with
    // IV = rem_start.
    if let Inst::Phi { incoming, .. } = f.inst_mut(sk.iv_phi) {
        for (from, val) in incoming.iter_mut() {
            if *from == preheader {
                *from = mexit;
                *val = rem_start;
            }
        }
    }
    disable(f, sk.latch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use omplt_ir::{assert_verified, IrType, Module};

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
        // No loop remains.
        let dt = DomTree::compute(f);
        let li = LoopInfo::compute(f, &dt);
        assert!(li.loops.is_empty(), "full unroll must leave no back edge");
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

    #[test]
    fn partial_unroll_has_two_loops_after() {
        // main loop + remainder loop (the paper's lst:remainder shape)
        let mut m = loop_module(Value::i64(10), UnrollHint::Count(4));
        loop_unroll(m.function_mut("main").unwrap());
        let f = m.function("main").unwrap();
        let dt = DomTree::compute(f);
        let li = LoopInfo::compute(f, &dt);
        assert_eq!(li.loops.len(), 2, "expected main + remainder loop");
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
            let run = it.run_function("kernel", vec![omplt_interp::RtVal::I(n)]);
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

    /// Runs the pass on `main`, returning its statistics and how many
    /// dominator trees it built on the way.
    fn unroll_counting_trees(m: &mut Module) -> (UnrollStats, usize) {
        use crate::domtree::TREES_BUILT;
        TREES_BUILT.with(|t| t.set(0));
        let stats = loop_unroll(m.function_mut("main").unwrap());
        (stats, TREES_BUILT.with(|t| t.get()))
    }

    #[test]
    fn disable_metadata_is_respected() {
        let mut m = loop_module(Value::i64(5), UnrollHint::Disable);
        let (stats, trees) = unroll_counting_trees(&mut m);
        assert_eq!((stats, trees), (UnrollStats::default(), 0));
        assert_eq!(run_collect(&m), expected(5));
    }

    #[test]
    fn no_actionable_hint_builds_no_analysis() {
        // What most functions look like: a loop without metadata, with only
        // the `is_canonical` marker every skeleton carries, or disabled.
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
            let (stats, trees) = unroll_counting_trees(&mut m);
            assert_eq!((stats, trees), (UnrollStats::default(), 0), "{md:?}");
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

        let (stats, trees) = unroll_counting_trees(&mut m);
        assert_eq!((stats.full, stats.partial), (1, 1));
        assert_eq!(trees, 2, "one per transformation, none to find nothing");
        assert_verified(m.function("main").unwrap());
        assert_eq!(run_collect(&m), expected(3) + &expected(9));
    }
}
