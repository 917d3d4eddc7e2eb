//! Canonical-loop skeleton verifier.
//!
//! `omplt-ir`'s structural verifier checks generic well-formedness
//! (terminators, phi coherence, operand ranges). This pass layers the
//! paper's *loop-shape* invariants on top: every loop whose latch branch
//! carries `is_canonical` metadata — i.e. every loop minted by
//! `create_canonical_loop` — must still be recognised by
//! [`Function::induction`] as an `icmp ult iv, tc` on a header phi that the
//! latch increments by 1, the compare's true edge entering the loop and its
//! false edge leaving it, and its trip count must be defined at a point
//! dominating the compare that consumes it. (The IV need not enter at 0
//! here: a partial unroll's remainder loop restarts mid-range.)
//!
//! [`crate::run_default_pipeline`] runs it after every pass under
//! `--verify-each`.

use omplt_ir::{
    verify_function, BlockId, BlockLists, CmpPred, Function, InstId, LoopRole, Value, VerifyError,
};

use crate::domtree::DomTree;

/// Finds the block owning `inst`, if any.
fn owner_block(f: &Function, inst: InstId) -> Option<BlockId> {
    f.blocks
        .iter()
        .position(|b| b.insts.contains(&inst))
        .map(|i| BlockId(i as u32))
}

/// Which blocks belong to the natural loop of the back edge
/// `latch → header`: the header and everything that reaches the latch
/// without passing through it.
fn loop_blocks(
    f: &Function,
    preds: &BlockLists<BlockId>,
    header: BlockId,
    latch: BlockId,
) -> Vec<bool> {
    let mut inside = vec![false; f.blocks.len()];
    inside[header.0 as usize] = true;
    let mut stack = vec![latch];
    while let Some(b) = stack.pop() {
        if !std::mem::replace(&mut inside[b.0 as usize], true) {
            stack.extend_from_slice(&preds[b.0 as usize]);
        }
    }
    inside
}

/// Checks the canonical-skeleton invariants of every loop marked
/// `is_canonical`, found as the unroller and the widener find theirs: by
/// the metadata on a latch — a reachable one, whose branch target
/// dominates it. A marked loop that no longer matches the skeleton is an
/// error — a transformation restructured it without clearing the metadata.
pub fn verify_loop_skeletons(f: &Function) -> Vec<VerifyError> {
    let mut errs = Vec::new();
    let dt = DomTree::compute(f);
    let preds = f.predecessors();
    for (i, block) in f.blocks.iter().enumerate() {
        let latch = BlockId(i as u32);
        let Some(term) = &block.term else { continue };
        if !term.loop_md().is_some_and(|md| md.is_canonical) || !dt.is_reachable(latch) {
            continue;
        }
        for header in term.successors().filter(|&h| dt.dominates(h, latch)) {
            check_skeleton(f, &dt, &preds, header, latch, &mut errs);
        }
    }
    errs
}

/// The checks of [`verify_loop_skeletons`] on the loop of one back edge.
fn check_skeleton(
    f: &Function,
    dt: &DomTree,
    preds: &BlockLists<BlockId>,
    header: BlockId,
    latch: BlockId,
    errs: &mut Vec<VerifyError>,
) {
    let where_ = format!("canonical loop at {}.{}", f.block(header).name, header.0);
    let ind = match f.induction(header, latch) {
        Ok(ind) if ind.pred == CmpPred::Ult => ind,
        found => {
            let role = found.err().unwrap_or(LoopRole::Predicate);
            errs.push(VerifyError(format!(
                "{where_}: marked `is_canonical` but no longer matches the \
                 canonical skeleton (an `icmp ult` on a header phi stepping \
                 by 1 at the latch): its {role} is lost"
            )));
            return;
        }
    };
    let inside = loop_blocks(f, preds, header, latch);
    // The taken edge of `icmp ult iv, tc` must stay inside the loop and
    // the fall-through edge must leave it — swapped edges invert the
    // guard and execute the body exactly when it must not run.
    if !inside[ind.body.0 as usize] {
        errs.push(VerifyError(format!(
            "{where_}: condition true edge must enter the loop body, \
             but {}.{} is outside the loop",
            f.block(ind.body).name,
            ind.body.0
        )));
    }
    if inside[ind.exit.0 as usize] {
        errs.push(VerifyError(format!(
            "{where_}: condition false edge must leave the loop, \
             but {}.{} is inside it",
            f.block(ind.exit).name,
            ind.exit.0
        )));
    }
    // The trip count must dominate the compare that consumes it; a
    // transformation that sank or cloned the bound computation into the
    // loop would execute it per-iteration (or worse, use a stale copy).
    if let Value::Inst(tc) = ind.bound {
        match owner_block(f, tc) {
            Some(def_bb) => {
                if !dt.dominates(def_bb, ind.cond) {
                    errs.push(VerifyError(format!(
                        "{where_}: trip count %{} defined in {}.{} does not \
                         dominate the loop condition {}.{}",
                        tc.0,
                        f.block(def_bb).name,
                        def_bb.0,
                        f.block(ind.cond).name,
                        ind.cond.0
                    )));
                }
            }
            None => errs.push(VerifyError(format!(
                "{where_}: trip count %{} is not attached to any block",
                tc.0
            ))),
        }
    }
}

/// Full per-function verification: structural rules plus skeleton
/// invariants. This is what `--verify-each` runs between passes.
pub fn verify_function_full(f: &Function) -> Vec<VerifyError> {
    let mut errs = verify_function(f);
    errs.extend(verify_loop_skeletons(f));
    errs
}

#[cfg(test)]
mod tests {
    use super::*;
    use omplt_ir::{Inst, IrBuilder, IrType, Terminator};
    use omplt_ompirb::create_canonical_loop_skeleton;

    fn skeleton_fn() -> (Function, omplt_ompirb::CanonicalLoopInfo) {
        let mut f = Function::new("t", vec![], IrType::Void);
        let cli = {
            let mut b = IrBuilder::new(&mut f);
            let cli = create_canonical_loop_skeleton(&mut b, Value::i64(8), "test", true);
            b.set_insert_point(cli.body);
            b.br(cli.latch);
            b.set_insert_point(cli.after);
            b.ret(None);
            cli
        };
        (f, cli)
    }

    #[test]
    fn accepts_pristine_skeleton() {
        let (f, _) = skeleton_fn();
        assert_eq!(verify_function_full(&f), vec![]);
    }

    #[test]
    fn a_nested_marked_loop_is_checked_as_its_own_loop() {
        let mut f = Function::new("k", vec![IrType::I64], IrType::Void);
        let mut b = IrBuilder::new(&mut f);
        let mut inner = None;
        let outer = omplt_ompirb::create_canonical_loop(&mut b, Value::Arg(0), "i", |b, _| {
            let nested = omplt_ompirb::create_canonical_loop(b, Value::Arg(0), "j", |_, _| {});
            inner = Some(nested);
        });
        b.ret(None);
        // The inner loop's exit lies inside the outer loop: had the outer
        // loop's blocks been taken for the inner's, its false edge would
        // not leave it.
        assert_eq!(verify_loop_skeletons(&f), vec![]);
        let inner = inner.unwrap();
        let cmp_id = f.block(inner.cond).insts[0];
        if let Inst::Cmp { pred, .. } = f.inst_mut(cmp_id) {
            *pred = CmpPred::Sgt;
        }
        let errs = verify_loop_skeletons(&f);
        let at = |cli: &omplt_ompirb::CanonicalLoopInfo| {
            format!("at {}.{}:", f.block(cli.header).name, cli.header.0)
        };
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].0.contains(&at(&inner)), "{errs:?}");
        assert!(!errs[0].0.contains(&at(&outer)), "{errs:?}");
    }

    #[test]
    fn a_while_shaped_loop_is_no_skeleton() {
        // header: cond-br on the loop test; body: back to the header. No
        // cond/latch split, so it is no skeleton: ignored unmarked,
        // reported marked.
        let mut f = Function::new("w", vec![IrType::I64], IrType::Void);
        let header = f.add_block("header");
        let body = f.add_block("body");
        let exit = f.add_block("exit");
        {
            let mut b = IrBuilder::new(&mut f);
            b.br(header);
            b.set_insert_point(header);
            let c = b.cmp(CmpPred::Ult, Value::Arg(0), Value::i64(4));
            b.cond_br(c, body, exit);
            b.set_insert_point(body);
            b.br(header);
            b.set_insert_point(exit);
            b.ret(None);
        }
        assert_eq!(verify_function_full(&f), vec![]);
        if let Some(Terminator::Br { loop_md, .. }) = &mut f.block_mut(body).term {
            *loop_md = Some(omplt_ir::LoopMetadata {
                is_canonical: true,
                ..Default::default()
            });
        }
        let errs = verify_loop_skeletons(&f);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].0.contains("at header.1: marked"), "{errs:?}");
    }

    #[test]
    fn rejects_swapped_condition_edges() {
        let (mut f, cli) = skeleton_fn();
        // Deliberately corrupt the skeleton: swap the body/exit edges of the
        // loop condition so the `icmp ult` guards the wrong way.
        let term = f.block_mut(cli.cond).term.take();
        if let Some(Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
            loop_md,
        }) = term
        {
            f.block_mut(cli.cond).term = Some(Terminator::CondBr {
                cond,
                then_bb: else_bb,
                else_bb: then_bb,
                loop_md,
            });
        } else {
            panic!("cond block must end in CondBr");
        }
        let errs = verify_loop_skeletons(&f);
        assert!(
            errs.iter()
                .any(|e| e.0.contains("true edge") || e.0.contains("false edge")),
            "swapped edges must be flagged: {errs:?}"
        );
    }

    #[test]
    fn rejects_wrong_compare_predicate() {
        let (mut f, cli) = skeleton_fn();
        let cmp_id = f.block(cli.cond).insts[0];
        if let Inst::Cmp { pred, .. } = f.inst_mut(cmp_id) {
            *pred = CmpPred::Sgt;
        }
        let errs = verify_loop_skeletons(&f);
        assert!(!errs.is_empty(), "non-ult compare must be rejected");
    }

    /// One corruption per role `Function::induction` reports; the verifier
    /// must name that role.
    #[test]
    fn names_the_role_a_marked_loop_lost() {
        type Corrupt = fn(&mut Function, &omplt_ompirb::CanonicalLoopInfo);
        fn set_pred(f: &mut Function, cli: &omplt_ompirb::CanonicalLoopInfo, to: CmpPred) {
            let cmp_id = f.block(cli.cond).insts[0];
            if let Inst::Cmp { pred, .. } = f.inst_mut(cmp_id) {
                *pred = to;
            }
        }
        let rows: [(LoopRole, Corrupt); 6] = [
            (LoopRole::Latch, |f, cli| {
                let md = f.block(cli.latch).term.as_ref().unwrap().loop_md().copied();
                f.block_mut(cli.latch).term = Some(Terminator::CondBr {
                    cond: Value::bool(true),
                    then_bb: cli.header,
                    else_bb: cli.exit,
                    loop_md: md,
                });
            }),
            (LoopRole::ExitTest, |f, cli| {
                let body = cli.body;
                f.block_mut(cli.cond).term = Some(Terminator::Br {
                    target: body,
                    loop_md: None,
                });
            }),
            (LoopRole::Predicate, |f, cli| set_pred(f, cli, CmpPred::Sgt)),
            (LoopRole::Predicate, |f, cli| set_pred(f, cli, CmpPred::Slt)),
            (LoopRole::IvPhi, |f, cli| {
                let cmp_id = f.block(cli.cond).insts[0];
                if let Inst::Cmp { lhs, rhs, .. } = f.inst_mut(cmp_id) {
                    std::mem::swap(lhs, rhs);
                }
            }),
            (LoopRole::Step, |f, cli| {
                let step = f.block(cli.latch).insts[0];
                if let Inst::Bin { rhs, .. } = f.inst_mut(step) {
                    *rhs = Value::i64(3);
                }
            }),
        ];
        for (role, corrupt) in rows {
            let (mut f, cli) = skeleton_fn();
            corrupt(&mut f, &cli);
            let errs = verify_loop_skeletons(&f);
            let named = format!("its {role} is lost");
            assert!(
                errs.len() == 1 && errs[0].0.contains(&named),
                "{role:?}: {errs:?}"
            );
        }
    }

    #[test]
    fn rejects_a_latch_stepping_by_two() {
        // The latch keeps `iv + 1` but feeds `iv + 2` to the IV phi.
        let (mut f, cli) = skeleton_fn();
        let two = f.push_inst(
            cli.latch,
            Inst::Bin {
                op: omplt_ir::BinOpKind::Add,
                lhs: cli.iv(),
                rhs: Value::i64(2),
            },
        );
        if let Inst::Phi { incoming, .. } = f.inst_mut(cli.iv_phi) {
            incoming
                .iter_mut()
                .find(|(b, _)| *b == cli.latch)
                .unwrap()
                .1 = two;
        }
        assert_eq!(omplt_ir::verify_function(&f), vec![]);
        let errs = verify_loop_skeletons(&f);
        assert!(
            errs.iter().any(|e| e.0.contains("no longer matches")),
            "a step of 2 must be flagged: {errs:?}"
        );
    }

    #[test]
    fn rejects_trip_count_defined_inside_loop() {
        let (mut f, cli) = skeleton_fn();
        // Move the trip count into the body: compute it per-iteration and
        // rewrite the compare to use the sunk value.
        let sunk = f.push_inst(
            cli.body,
            Inst::Bin {
                op: omplt_ir::BinOpKind::Add,
                lhs: Value::i64(4),
                rhs: Value::i64(4),
            },
        );
        // keep inst order: push_inst appends after the existing Br-less insts
        let cmp_id = f.block(cli.cond).insts[0];
        if let Inst::Cmp { rhs, .. } = f.inst_mut(cmp_id) {
            *rhs = sunk;
        }
        let errs = verify_loop_skeletons(&f);
        assert!(
            errs.iter().any(|e| e.0.contains("dominate")),
            "sunk trip count must violate dominance: {errs:?}"
        );
    }
}
