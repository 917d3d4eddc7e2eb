//! `interchange_loops` — the OpenMPIRBuilder implementation of
//! `#pragma omp interchange`: permutes a perfect nest of canonical loops.
//!
//! Like `tile_loops`, this abandons the original control skeletons and
//! creates fresh ones ("abandon the old handles and create new loops using
//! the skeleton", paper §3.2): N new skeletons are nested in permuted order,
//! the innermost body region is spliced in, and each use of an original
//! induction variable is rewritten to the new loop now running that
//! dimension.

use crate::canonical_loop::{
    create_canonical_loop_skeleton, replace_nest, rewrite_region_uses, CanonicalLoopInfo,
};
use omplt_ir::{IrBuilder, Value};

/// Permutes a perfect nest of canonical loops.
///
/// `loops` are ordered outermost → innermost; `perm[k]` names (0-based) the
/// original loop that position `k` of the generated nest runs, so
/// `perm = [1, 0]` swaps a 2-deep nest. Trip counts of all loops must be
/// defined in (or before) the outermost preheader — guaranteed by the
/// front-end for rectangular nests, which evaluates every distance function
/// up front.
///
/// Returns the N generated loops, outermost first.
pub fn interchange_loops(
    b: &mut IrBuilder<'_>,
    loops: &[CanonicalLoopInfo],
    perm: &[usize],
) -> Vec<CanonicalLoopInfo> {
    omplt_trace::count("ompirb.interchange", 1);
    let n = loops.len();
    assert!(n >= 2, "interchange_loops requires a nest of at least two");
    assert_eq!(n, perm.len(), "permutation must cover every loop");
    {
        let mut seen = vec![false; n];
        for &p in perm {
            assert!(p < n && !seen[p], "perm must be a permutation of 0..n");
            seen[p] = true;
        }
    }

    // 1. New skeletons, nested in permuted order in place of the original
    //    nest: position k runs loop perm[k]'s iteration space.
    let saved_ip = b.insert_block();
    let mut chain: Vec<CanonicalLoopInfo> = perm
        .iter()
        .enumerate()
        .map(|(k, &p)| {
            let name = format!("interchange{k}");
            create_canonical_loop_skeleton(b, loops[p].trip_count, &name, false)
        })
        .collect();
    let region = replace_nest(b, &loops[0], &mut chain, Some(&loops[n - 1]));

    // 2. Each original IV is now produced by the chain position running
    //    that dimension.
    let replacements: Vec<(Value, Value)> = perm
        .iter()
        .enumerate()
        .map(|(k, &p)| (loops[p].iv(), chain[k].iv()))
        .collect();
    rewrite_region_uses(b.func_mut(), &region, &replacements);
    b.set_insert_point(saved_ip);
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical_loop::create_canonical_loop;
    use omplt_ir::{assert_verified, Function, Inst, IrType, Module};

    fn build_nest(f: &mut Function, m: &mut Module) -> (CanonicalLoopInfo, CanonicalLoopInfo) {
        let sink = m.intern("sink");
        let mut b = IrBuilder::new(f);
        let mut inner = None;
        let outer = create_canonical_loop(&mut b, Value::Arg(0), "i", |b, i| {
            inner = Some(create_canonical_loop(b, Value::Arg(1), "j", |b, j| {
                b.call(sink, vec![i, j], IrType::Void);
            }));
        });
        b.ret(None);
        (outer, inner.unwrap())
    }

    #[test]
    fn swap_produces_valid_nest_with_swapped_trip_counts() {
        let mut m = Module::new();
        let mut f = Function::new("k", vec![IrType::I64, IrType::I64], IrType::Void);
        let (outer, inner) = build_nest(&mut f, &mut m);
        let swapped = {
            let mut b = IrBuilder::new(&mut f);
            interchange_loops(&mut b, &[outer, inner], &[1, 0])
        };
        assert_eq!(swapped.len(), 2);
        for cli in &swapped {
            cli.assert_ok(&f);
        }
        assert_verified(&f);
        // The new outer loop runs the old inner iteration space.
        assert_eq!(swapped[0].trip_count, Value::Arg(1));
        assert_eq!(swapped[1].trip_count, Value::Arg(0));
    }

    #[test]
    fn body_uses_map_to_the_new_dimension_owners() {
        let mut m = Module::new();
        let mut f = Function::new("k", vec![IrType::I64, IrType::I64], IrType::Void);
        let (outer, inner) = build_nest(&mut f, &mut m);
        let (old_i, old_j) = (outer.iv(), inner.iv());
        let swapped = {
            let mut b = IrBuilder::new(&mut f);
            interchange_loops(&mut b, &[outer, inner], &[1, 0])
        };
        // sink(i, j): i is now produced by the new *inner* loop, j by the
        // new *outer* loop.
        let mut saw_call = false;
        for bb in swapped[1].body_region(&f) {
            for &iid in &f.block(bb).insts {
                if let Inst::Call { args, .. } = f.inst(iid) {
                    saw_call = true;
                    assert_eq!(args[0], swapped[1].iv(), "i runs in the new inner loop");
                    assert_eq!(args[1], swapped[0].iv(), "j runs in the new outer loop");
                    assert!(!args.contains(&old_i) && !args.contains(&old_j));
                }
            }
        }
        assert!(saw_call);
    }

    #[test]
    fn construct_continues_at_the_original_after_block() {
        let mut m = Module::new();
        let mut f = Function::new("k", vec![IrType::I64, IrType::I64], IrType::Void);
        let (outer, inner) = build_nest(&mut f, &mut m);
        let after = outer.after;
        let swapped = {
            let mut b = IrBuilder::new(&mut f);
            interchange_loops(&mut b, &[outer, inner], &[1, 0])
        };
        assert_eq!(swapped[0].after, after);
        assert!(f.successors(swapped[0].exit).eq([after]));
    }
}
