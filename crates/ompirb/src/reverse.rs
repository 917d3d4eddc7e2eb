//! `reverse_loop` — the OpenMPIRBuilder implementation of
//! `#pragma omp reverse`: runs the iterations of one canonical loop in the
//! opposite order.
//!
//! Unlike tiling, reversal keeps the original skeleton ("the function may
//! either modify and return the input canonical loops, or abandon the old
//! handles", paper §3.2 — this one modifies): the logical induction variable
//! still counts 0, 1, …, tc-1, but every use of it inside the body region is
//! rewritten to the mirrored value `(tc - 1) - iv`, computed in a fresh block
//! spliced between `cond` and the old body entry.

use crate::canonical_loop::{rewrite_region_uses, CanonicalLoopInfo};
use omplt_ir::{IrBuilder, Value};

/// Reverses the iteration order of `cli`.
///
/// Returns an updated handle whose `body` is the new mirror-computation
/// block; all other blocks (and the trip count) are unchanged, so the loop
/// still satisfies every skeleton invariant and remains composable with
/// worksharing, tiling and unrolling.
pub fn reverse_loop(b: &mut IrBuilder<'_>, cli: &CanonicalLoopInfo) -> CanonicalLoopInfo {
    omplt_trace::count("ompirb.reverse", 1);

    // Snapshot the body region before creating the mirror block.
    let orig_region = cli.body_region(b.func());

    // mirror block: rev = (tc - 1) - iv, in front of the old body entry.
    let saved_ip = b.insert_block();
    let mut rev_cli = *cli;
    let mirror = rev_cli.prepend_body_block(b, "omp_reverse.body");
    b.set_insert_point(mirror);
    let tcm1 = b.sub(cli.trip_count, Value::int(cli.ty, 1));
    let rev = b.sub(tcm1, cli.iv());
    b.br(cli.body);

    // Body uses of the logical IV see the mirrored value. The latch is not
    // part of the region, so the increment keeps stepping the real counter.
    rewrite_region_uses(b.func_mut(), &orig_region, &[(cli.iv(), rev)]);

    b.set_insert_point(saved_ip);
    rev_cli
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical_loop::create_canonical_loop;
    use omplt_ir::{assert_verified, BinOpKind, Function, Inst, IrType, Module};

    fn build_loop(f: &mut Function, m: &mut Module) -> CanonicalLoopInfo {
        let sink = m.intern("sink");
        let mut b = IrBuilder::new(f);
        let cli = create_canonical_loop(&mut b, Value::Arg(0), "i", |b, i| {
            b.call(sink, vec![i], IrType::Void);
        });
        b.ret(None);
        cli
    }

    #[test]
    fn reversed_loop_keeps_skeleton_invariants() {
        let mut m = Module::new();
        let mut f = Function::new("k", vec![IrType::I64], IrType::Void);
        let cli = build_loop(&mut f, &mut m);
        let rev = {
            let mut b = IrBuilder::new(&mut f);
            reverse_loop(&mut b, &cli)
        };
        rev.assert_ok(&f);
        assert_verified(&f);
        assert_eq!(rev.trip_count, cli.trip_count, "trip count is unchanged");
    }

    #[test]
    fn body_uses_are_rewritten_to_mirrored_iv() {
        let mut m = Module::new();
        let mut f = Function::new("k", vec![IrType::I64], IrType::Void);
        let cli = build_loop(&mut f, &mut m);
        let old_iv = cli.iv();
        let rev = {
            let mut b = IrBuilder::new(&mut f);
            reverse_loop(&mut b, &cli)
        };
        // The sink call must no longer reference the raw phi…
        let mut saw_call = false;
        for bb in rev.body_region(&f) {
            for &iid in &f.block(bb).insts {
                if let Inst::Call { args, .. } = f.inst(iid) {
                    saw_call = true;
                    assert!(!args.contains(&old_iv), "stale IV use survived reversal");
                }
            }
        }
        assert!(saw_call);
        // …and the mirror block computes (tc - 1) - iv with two subtractions.
        let subs = f
            .block(rev.body)
            .insts
            .iter()
            .filter(|&&i| {
                matches!(
                    f.inst(i),
                    Inst::Bin {
                        op: BinOpKind::Sub,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(subs, 2, "mirror block computes (tc - 1) - iv");
    }

    #[test]
    fn latch_still_increments_the_real_counter() {
        let mut m = Module::new();
        let mut f = Function::new("k", vec![IrType::I64], IrType::Void);
        let cli = build_loop(&mut f, &mut m);
        let rev = {
            let mut b = IrBuilder::new(&mut f);
            reverse_loop(&mut b, &cli)
        };
        let has_incr = f.block(rev.latch).insts.iter().any(|&i| {
            matches!(
                f.inst(i),
                Inst::Bin { op: BinOpKind::Add, lhs, rhs }
                    if *lhs == rev.iv() && rhs.is_one_int()
            )
        });
        assert!(has_incr, "reversal must not touch the latch increment");
    }
}
