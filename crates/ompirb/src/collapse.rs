//! `collapse_loops` — fuses a perfect nest of canonical loops into a single
//! canonical loop whose logical iteration space is the product of the
//! originals (the OpenMP `collapse(n)` clause; paper §3.2 lists
//! `collapseLoops` among the CanonicalLoopInfo consumers).

use crate::canonical_loop::{
    create_canonical_loop_skeleton, replace_nest, rewrite_region_uses, CanonicalLoopInfo,
};
use omplt_ir::{IrBuilder, IrType, Value};

/// Collapses `loops` (outermost → innermost) into one canonical loop; one
/// loop is its own collapse.
///
/// The collapsed trip count is computed in the outermost preheader as the
/// product of the individual trip counts (widened to `i64`); the original
/// induction variables are recovered inside the body via division/remainder
/// chains, exactly as the OpenMP runtime numbers logical iterations.
pub fn collapse_loops(b: &mut IrBuilder<'_>, loops: &[CanonicalLoopInfo]) -> CanonicalLoopInfo {
    let n = loops.len();
    assert!(n >= 1, "collapse_loops requires at least one loop");
    if n == 1 {
        return loops[0];
    }
    omplt_trace::count("ompirb.collapse", 1);
    // Product trip count (in i64: the collapsed space can exceed any single
    // loop's type; the paper's "logical iteration counter" is normalized).
    let saved_ip = b.insert_block();
    b.set_insert_point(loops[0].preheader);
    let mut wide_tcs = Vec::with_capacity(n);
    let mut total = Value::i64(1);
    for l in loops {
        let w = b.int_resize(l.trip_count, IrType::I64, false);
        total = b.mul(total, w);
        wide_tcs.push(w);
    }

    let mut collapsed = [create_canonical_loop_skeleton(b, total, "collapsed", false)];
    let region = replace_nest(b, &loops[0], &mut collapsed, Some(&loops[n - 1]));
    let [collapsed] = collapsed;

    // Recover original IVs: iterating row-major, the innermost varies
    // fastest:  iv_{n-1} = I % tc_{n-1};  I /= tc_{n-1};  …
    b.set_insert_point(collapsed.body);
    let mut replacements = Vec::with_capacity(n);
    let mut rest = collapsed.iv();
    for i in (0..n).rev() {
        let wide_iv = if i == 0 {
            rest
        } else {
            b.urem(rest, wide_tcs[i])
        };
        let narrow = b.int_resize(wide_iv, loops[i].ty, false);
        replacements.push((loops[i].iv(), narrow));
        if i != 0 {
            rest = b.udiv(rest, wide_tcs[i]);
        }
    }
    rewrite_region_uses(b.func_mut(), &region, &replacements);

    b.set_insert_point(saved_ip);
    collapsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical_loop::create_canonical_loop;
    use omplt_ir::{assert_verified, Function, Inst, Module};

    fn build_nest(
        f: &mut Function,
        m: &mut Module,
        trips: (Value, Value),
    ) -> (CanonicalLoopInfo, CanonicalLoopInfo) {
        let sink = m.intern("sink");
        let mut b = IrBuilder::new(f);
        let mut inner = None;
        let outer = create_canonical_loop(&mut b, trips.0, "i", |b, i| {
            inner = Some(create_canonical_loop(b, trips.1, "j", |b, j| {
                b.call(sink, vec![i, j], IrType::Void);
            }));
        });
        b.ret(None);
        (outer, inner.unwrap())
    }

    #[test]
    fn collapsed_loop_is_canonical_and_verifies() {
        let mut m = Module::new();
        let mut f = Function::new("k", vec![IrType::I64, IrType::I64], IrType::Void);
        let (outer, inner) = build_nest(&mut f, &mut m, (Value::Arg(0), Value::Arg(1)));
        let coll = {
            let mut b = IrBuilder::new(&mut f);
            collapse_loops(&mut b, &[outer, inner])
        };
        coll.assert_ok(&f);
        assert_verified(&f);
    }

    #[test]
    fn trip_count_is_the_product() {
        let mut m = Module::new();
        let mut f = Function::new("k", vec![], IrType::Void);
        let (outer, inner) = build_nest(&mut f, &mut m, (Value::i64(6), Value::i64(7)));
        let coll = {
            let mut b = IrBuilder::new(&mut f);
            collapse_loops(&mut b, &[outer, inner])
        };
        // 6*7 folds to a constant trip count.
        assert_eq!(coll.trip_count.as_const_int(), Some(42));
    }

    #[test]
    fn body_uses_div_rem_recovery() {
        let mut m = Module::new();
        let mut f = Function::new("k", vec![IrType::I64, IrType::I64], IrType::Void);
        let (outer, inner) = build_nest(&mut f, &mut m, (Value::Arg(0), Value::Arg(1)));
        let coll = {
            let mut b = IrBuilder::new(&mut f);
            collapse_loops(&mut b, &[outer, inner])
        };
        let insts = &f.block(coll.body).insts;
        let has_rem = insts.iter().any(|&i| {
            matches!(
                f.inst(i),
                Inst::Bin {
                    op: omplt_ir::BinOpKind::URem,
                    ..
                }
            )
        });
        let has_div = insts.iter().any(|&i| {
            matches!(
                f.inst(i),
                Inst::Bin {
                    op: omplt_ir::BinOpKind::UDiv,
                    ..
                }
            )
        });
        assert!(has_rem && has_div);
    }

    #[test]
    fn single_loop_collapse_is_identity() {
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
        let coll = {
            let mut b = IrBuilder::new(&mut f);
            collapse_loops(&mut b, &[cli])
        };
        assert_eq!(coll.header, cli.header);
    }
}
