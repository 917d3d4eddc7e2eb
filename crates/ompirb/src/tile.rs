//! `tile_loops` — the OpenMPIRBuilder implementation of `#pragma omp tile`
//! (paper §3.2): consumes N nested [`CanonicalLoopInfo`] handles and returns
//! **2N** new ones (the *floor* loops iterating over tiles, then the *tile*
//! loops iterating inside a tile), relocating the original body region and
//! rewriting its uses of the original induction variables.
//!
//! The original loops' control blocks are abandoned (they become
//! unreachable; `SimplifyCfg` erases them later) — "the function may either
//! modify and return the input canonical loops, or abandon the old handles
//! and create new loops using the skeleton" (paper §3.2); this
//! implementation, like LLVM's, does the latter.

use crate::canonical_loop::{
    create_canonical_loop_skeleton, replace_nest, rewrite_region_uses, CanonicalLoopInfo,
};
use omplt_ir::{CmpPred, IrBuilder, Value};

/// Tiles a perfect nest of canonical loops.
///
/// `loops` are ordered outermost → innermost; `sizes[i]` is the tile size
/// for `loops[i]` (any integer type; resized to the loop's IV type).
/// Trip-count values of all loops must be defined in (or before) the
/// outermost preheader — guaranteed by the front-end, which evaluates every
/// distance function before emitting the nest (rectangular nests only, as
/// OpenMP requires).
///
/// Returns the 2N generated loops: `[floor_0 … floor_{N-1}, tile_0 …
/// tile_{N-1}]`, each satisfying the skeleton invariants.
pub fn tile_loops(
    b: &mut IrBuilder<'_>,
    loops: &[CanonicalLoopInfo],
    sizes: &[Value],
) -> Vec<CanonicalLoopInfo> {
    omplt_trace::count("ompirb.tile", 1);
    let n = loops.len();
    assert!(n >= 1, "tile_loops requires at least one loop");
    assert_eq!(n, sizes.len(), "one tile size per loop");

    // 1. Floor trip counts, computed in the outermost preheader:
    //    floor_tc = tc == 0 ? 0 : (tc - 1) / size + 1   (overflow-safe ceildiv)
    let saved_ip = b.insert_block();
    b.set_insert_point(loops[0].preheader);
    let mut floor_tcs = Vec::with_capacity(n);
    let mut sizes_typed = Vec::with_capacity(n);
    for (l, &size) in loops.iter().zip(sizes) {
        let size = b.int_resize(size, l.ty, false);
        let tc = l.trip_count;
        let is_zero = b.cmp(CmpPred::Eq, tc, Value::int(l.ty, 0));
        let tcm1 = b.sub(tc, Value::int(l.ty, 1));
        let d = b.udiv(tcm1, size);
        let dp1 = b.add(d, Value::int(l.ty, 1));
        let ftc = b.select(is_zero, Value::int(l.ty, 0), dp1);
        floor_tcs.push(ftc);
        sizes_typed.push(size);
    }

    // 2. Create the 2N free-floating skeletons.
    let mut chain: Vec<CanonicalLoopInfo> = Vec::with_capacity(2 * n);
    for (i, &ftc) in floor_tcs.iter().enumerate() {
        chain.push(create_canonical_loop_skeleton(
            b,
            ftc,
            &format!("floor{i}"),
            false,
        ));
    }
    let mut starts = Vec::with_capacity(n);
    for i in 0..n {
        // Placeholder trip count; patched below once the floor IV exists.
        let mut tile = create_canonical_loop_skeleton(
            b,
            Value::int(loops[i].ty, 0),
            &format!("tile{i}"),
            false,
        );
        // Tile start = floor_iv * size and span = min(size, tc - start),
        // computed in the tile loop's own preheader (dominated by every
        // floor header).
        b.set_insert_point(tile.preheader);
        let start = b.mul(chain[i].iv(), sizes_typed[i]);
        let rem = b.sub(loops[i].trip_count, start);
        let span = b.umin(sizes_typed[i], rem);
        tile.set_trip_count(b.func_mut(), span);
        chain.push(tile);
        starts.push(start);
    }

    // 3. Nest the chain around the original body region, in place of the
    //    original nest.
    let region = replace_nest(b, &loops[0], &mut chain, Some(&loops[n - 1]));

    // 4. Rewrite uses of the original IVs inside the body region:
    //    iv_i := start_i + tile_iv_i
    b.set_insert_point(chain[2 * n - 1].body);
    let replacements: Vec<(Value, Value)> = (0..n)
        .map(|i| (loops[i].iv(), b.add(starts[i], chain[n + i].iv())))
        .collect();
    rewrite_region_uses(b.func_mut(), &region, &replacements);

    b.set_insert_point(saved_ip);
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical_loop::create_canonical_loop;
    use omplt_ir::{assert_verified, BinOpKind, Function, Inst, IrType, Module};

    /// Builds `for i in 0..A { for j in 0..B { sink(i, j) } }` and returns
    /// the two loop handles.
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
    fn produces_2n_loops_with_valid_skeletons() {
        let mut m = Module::new();
        let mut f = Function::new("k", vec![IrType::I64, IrType::I64], IrType::Void);
        let (outer, inner) = build_nest(&mut f, &mut m);
        let tiled = {
            let mut b = IrBuilder::new(&mut f);
            tile_loops(&mut b, &[outer, inner], &[Value::i64(4), Value::i64(4)])
        };
        assert_eq!(
            tiled.len(),
            4,
            "tiling N loops generates twice as many (paper §1.1)"
        );
        for cli in &tiled {
            cli.assert_ok(&f);
        }
        assert_verified(&f);
    }

    #[test]
    fn single_loop_tiling_strip_mines() {
        let mut m = Module::new();
        let sink = m.intern("s");
        let mut f = Function::new("k", vec![IrType::I64], IrType::Void);
        let cli = {
            let mut b = IrBuilder::new(&mut f);
            let cli = create_canonical_loop(&mut b, Value::Arg(0), "i", |b, i| {
                b.call(sink, vec![i], IrType::Void);
            });
            b.ret(None);
            cli
        };
        let tiled = {
            let mut b = IrBuilder::new(&mut f);
            tile_loops(&mut b, &[cli], &[Value::i64(2)])
        };
        assert_eq!(tiled.len(), 2);
        for t in &tiled {
            t.assert_ok(&f);
        }
        assert_verified(&f);
        // floor loop's body leads (transitively) into the tile preheader
        assert!(f.successors(tiled[0].body).eq([tiled[1].preheader]));
        // tile loop's after returns to the floor latch
        assert!(f.successors(tiled[1].after).eq([tiled[0].latch]));
    }

    #[test]
    fn tile_trip_count_is_min_of_size_and_remainder() {
        // Structural check: the tile loop's cond compares against a value
        // computed from a select (our umin lowering) in its preheader.
        let mut m = Module::new();
        let mut f = Function::new("k", vec![IrType::I64, IrType::I64], IrType::Void);
        let (outer, inner) = build_nest(&mut f, &mut m);
        let tiled = {
            let mut b = IrBuilder::new(&mut f);
            tile_loops(&mut b, &[outer, inner], &[Value::i64(3), Value::i64(5)])
        };
        for t in &tiled[2..] {
            let has_select = f
                .block(t.preheader)
                .insts
                .iter()
                .any(|&i| matches!(f.inst(i), Inst::Select { .. }));
            assert!(
                has_select,
                "tile preheader must compute min(size, remainder)"
            );
        }
    }

    #[test]
    fn original_iv_uses_are_rewritten() {
        let mut m = Module::new();
        let mut f = Function::new("k", vec![IrType::I64, IrType::I64], IrType::Void);
        let (outer, inner) = build_nest(&mut f, &mut m);
        let old_ivs = [outer.iv(), inner.iv()];
        let tiled = {
            let mut b = IrBuilder::new(&mut f);
            tile_loops(&mut b, &[outer, inner], &[Value::i64(4), Value::i64(4)])
        };
        // The sink call must no longer reference the original phis.
        let tile_inner = tiled[3];
        let region = tile_inner.body_region(&f);
        for bb in region {
            for &iid in &f.block(bb).insts {
                if let Inst::Call { args, .. } = f.inst(iid) {
                    for a in args {
                        assert!(!old_ivs.contains(a), "stale IV use survived tiling");
                    }
                }
            }
        }
    }

    #[test]
    fn floor_tcs_are_ceildiv_guarded_against_zero() {
        let mut m = Module::new();
        let mut f = Function::new("k", vec![IrType::I64, IrType::I64], IrType::Void);
        let (outer, inner) = build_nest(&mut f, &mut m);
        let pre = outer.preheader;
        let before = f.block(pre).insts.len();
        let _ = {
            let mut b = IrBuilder::new(&mut f);
            tile_loops(&mut b, &[outer, inner], &[Value::i64(4), Value::i64(4)])
        };
        // ceildiv computations landed in the outermost preheader
        assert!(f.block(pre).insts.len() > before);
        let has_div = f.block(pre).insts.iter().any(|&i| {
            matches!(
                f.inst(i),
                Inst::Bin {
                    op: BinOpKind::UDiv,
                    ..
                }
            )
        });
        assert!(has_div, "floor trip count must divide by the tile size");
    }
}
