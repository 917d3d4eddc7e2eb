//! `fuse_loops` — the OpenMPIRBuilder implementation of `#pragma omp fuse`:
//! fuses a sequence of sibling canonical loops into one.
//!
//! The fused loop runs `max(tc_0 … tc_{n-1})` iterations; each original body
//! region is guarded by `iv < tc_k`, so the fusion stays correct for unequal
//! trip counts (the guards fold away when the counts are provably equal).
//! The original control skeletons are abandoned, as in `tile_loops`.

use crate::canonical_loop::{
    create_canonical_loop_skeleton, replace_nest, retarget_region_exits, rewrite_region_uses,
    CanonicalLoopInfo,
};
use omplt_ir::{CmpPred, IrBuilder, Terminator, Value};

/// Fuses a sequence of sibling canonical loops (first → last in program
/// order) into a single canonical loop.
///
/// Each loop's preheader must lead, through its `after` block and any code
/// there, to the next loop's preheader — the order in which the front end
/// emits a sequence, each member's setup (its iteration variable's start,
/// its trip count) in front of its loop. The members' setups keep running
/// in that order: each preheader now branches straight to its `after`
/// block, and the fused loop runs from the last preheader, where every trip
/// count is available, on to the last `after` block.
///
/// Returns the generated loop.
pub fn fuse_loops(b: &mut IrBuilder<'_>, loops: &[CanonicalLoopInfo]) -> CanonicalLoopInfo {
    omplt_trace::count("ompirb.fuse", 1);
    let n = loops.len();
    assert!(n >= 2, "fuse_loops requires at least two loops");

    let last = loops[n - 1];
    let ty = loops[0].ty;

    // Snapshot every body region before creating new blocks.
    let regions: Vec<Vec<omplt_ir::BlockId>> =
        loops.iter().map(|l| l.body_region(b.func())).collect();

    // 1. Bypass every member but the last; the max trip count is computed
    //    in the last one's preheader.
    for l in &loops[..n - 1] {
        b.func_mut().block_mut(l.preheader).term = Some(Terminator::Br {
            target: l.after,
            loop_md: None,
        });
    }
    let saved_ip = b.insert_block();
    b.set_insert_point(last.preheader);
    let tcs: Vec<Value> = loops
        .iter()
        .map(|l| b.int_resize(l.trip_count, ty, false))
        .collect();
    let mut tc_max = tcs[0];
    for &tc in &tcs[1..] {
        let lt = b.cmp(CmpPred::Ult, tc_max, tc);
        tc_max = b.select(lt, tc, tc_max);
    }

    // 2. The fused skeleton, in place of the last loop.
    let mut fused = [create_canonical_loop_skeleton(b, tc_max, "fuse", false)];
    replace_nest(b, &last, &mut fused, None);
    let [fused] = fused;

    // 3. Guard chain in the fused body: for each original loop,
    //    `if (iv < tc_k) body_k`, joining behind the guard.
    let mut current = fused.body;
    for (k, l) in loops.iter().enumerate() {
        let join = b.create_block(format!("omp_fuse.join{k}"));
        b.set_insert_point(current);
        let in_range = b.cmp(CmpPred::Ult, fused.iv(), tcs[k]);
        // A constant-true guard still needs a structural branch; force the
        // conditional form so every region keeps a single entry edge shape.
        b.cond_br(in_range, l.body, join);
        retarget_region_exits(b.func_mut(), &regions[k], l.latch, join);
        rewrite_region_uses(b.func_mut(), &regions[k], &[(l.iv(), fused.iv())]);
        current = join;
    }
    b.set_insert_point(current);
    b.br(fused.latch);

    b.set_insert_point(saved_ip);
    fused
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical_loop::create_canonical_loop;
    use omplt_ir::{assert_verified, Function, Inst, IrType, Module};

    /// `for i in 0..A { s0(i) }  for j in 0..B { s1(j) }`
    fn build_sequence(f: &mut Function, m: &mut Module) -> (CanonicalLoopInfo, CanonicalLoopInfo) {
        let s0 = m.intern("s0");
        let s1 = m.intern("s1");
        let mut b = IrBuilder::new(f);
        let l0 = create_canonical_loop(&mut b, Value::Arg(0), "a", |b, i| {
            b.call(s0, vec![i], IrType::Void);
        });
        let l1 = create_canonical_loop(&mut b, Value::Arg(1), "b", |b, j| {
            b.call(s1, vec![j], IrType::Void);
        });
        b.ret(None);
        (l0, l1)
    }

    #[test]
    fn fused_loop_keeps_skeleton_invariants() {
        let mut m = Module::new();
        let mut f = Function::new("k", vec![IrType::I64, IrType::I64], IrType::Void);
        let (l0, l1) = build_sequence(&mut f, &mut m);
        let after = l1.after;
        let fused = {
            let mut b = IrBuilder::new(&mut f);
            fuse_loops(&mut b, &[l0, l1])
        };
        fused.assert_ok(&f);
        assert_verified(&f);
        assert_eq!(
            fused.after, after,
            "construct continues after the last loop"
        );
    }

    #[test]
    fn both_bodies_are_reachable_and_guarded() {
        let mut m = Module::new();
        let mut f = Function::new("k", vec![IrType::I64, IrType::I64], IrType::Void);
        let (l0, l1) = build_sequence(&mut f, &mut m);
        let fused = {
            let mut b = IrBuilder::new(&mut f);
            fuse_loops(&mut b, &[l0, l1])
        };
        let region = fused.body_region(&f);
        assert!(region.contains(&l0.body), "first body spliced in");
        assert!(region.contains(&l1.body), "second body spliced in");
        // Two guards compare the fused IV against the loops' trip counts.
        let guards = region
            .iter()
            .flat_map(|&bb| f.block(bb).insts.clone())
            .filter(|&i| {
                matches!(
                    f.inst(i),
                    Inst::Cmp { pred: CmpPred::Ult, lhs, .. } if *lhs == fused.iv()
                )
            })
            .count();
        assert_eq!(guards, 2, "one range guard per fused loop");
    }

    #[test]
    fn body_uses_are_rewritten_to_the_fused_iv() {
        let mut m = Module::new();
        let mut f = Function::new("k", vec![IrType::I64, IrType::I64], IrType::Void);
        let (l0, l1) = build_sequence(&mut f, &mut m);
        let (old_i, old_j) = (l0.iv(), l1.iv());
        let fused = {
            let mut b = IrBuilder::new(&mut f);
            fuse_loops(&mut b, &[l0, l1])
        };
        let mut calls = 0;
        for bb in fused.body_region(&f) {
            for &iid in &f.block(bb).insts {
                if let Inst::Call { args, .. } = f.inst(iid) {
                    calls += 1;
                    assert_eq!(args[0], fused.iv());
                    assert!(!args.contains(&old_i) && !args.contains(&old_j));
                }
            }
        }
        assert_eq!(calls, 2, "both bodies survive fusion");
    }
}
