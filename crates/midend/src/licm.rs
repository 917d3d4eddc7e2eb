//! Value numbering and loop-invariant code motion, one pass over one
//! dominator tree: the mid end behind the shadow AST's naive lowering
//! (paper §2.2). The classic tile puts its partial-tile bound
//! `min(ub, floor + s)` in the inner loop's condition, as Clang does, and
//! leaves hoisting it to the mid end; here the cleanup has turned the `min`
//! into a `select`, and this pass moves it to the inner loop's preheader.
//!
//! * **Value numbering**, in dominator-tree preorder: an instruction the
//!   one dead-code rule ([`removable`]) lets go, and that is no phi, is
//!   replaced by a dominating instruction with the same opcode, attributes
//!   and operands. In the same walk a `load` of an address takes the value
//!   last stored to, or loaded from, that same SSA address in its block;
//!   a call or any other store in between forgets every address. Two
//!   instructions never take part: one feeding a header phi on a back edge
//!   (the VM fuses that step into its jump, and [`Function::induction`]
//!   reads it there), and — as a leader outside its own block — one in a
//!   loop header, whose value the unroller's body copies do not remap.
//! * **Loop-invariant code motion**, innermost loop first: every removable
//!   non-phi instruction whose operands are all defined outside the loop
//!   moves to the end of the loop's preheader, where the enclosing loop
//!   finds it next. Loops are the natural loops of the back edges; one
//!   without a dedicated preheader is left alone.
//!
//! Nothing that may trap, touch memory or act moves or goes (but for a
//! forwarded load, which cannot fault where the access before it did not),
//! so a loop that runs no iteration still runs nothing it would not have.
//! The CFG is not changed.

use crate::domtree::DomTree;
use omplt_ir::arith::removable;
use omplt_ir::{
    BinOpKind, BlockId, BlockLists, CastOp, CmpPred, Function, Inst, InstId, IrType, Rpo, Value,
};
use std::collections::HashMap;

/// What two instructions computing the same value have in common.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Gep(Value, Value, u64),
    Bin(BinOpKind, Value, Value),
    Cmp(CmpPred, Value, Value),
    Cast(CastOp, Value, IrType),
    Select(Value, Value, Value),
}

impl Key {
    fn of(inst: &Inst) -> Option<Key> {
        Some(match *inst {
            Inst::Gep {
                ptr,
                index,
                elem_size,
            } => Key::Gep(ptr, index, elem_size),
            Inst::Bin { op, lhs, rhs } => Key::Bin(op, lhs, rhs),
            Inst::Cmp { pred, lhs, rhs } => Key::Cmp(pred, lhs, rhs),
            Inst::Cast { op, val, to } => Key::Cast(op, val, to),
            Inst::Select { cond, t, f } => Key::Select(cond, t, f),
            _ => return None,
        })
    }
}

/// The buffers of [`value_number_and_hoist`], reused from function to
/// function: sized by the largest function seen, they stop allocating.
#[derive(Default)]
pub struct Licm {
    rpo: Rpo,
    /// Each block's position in reverse postorder.
    rpo_index: Vec<u32>,
    /// Each instruction's block.
    def_block: Vec<BlockId>,
    /// Instructions the pass may replace or move: removable, and no phi.
    movable: Vec<bool>,
    /// Instructions feeding a header phi on a back edge.
    pinned: Vec<bool>,
    /// Blocks a back edge enters.
    header: Vec<bool>,
    /// What each replaced instruction was replaced by.
    replacement: Vec<Option<Value>>,
    /// The last leader of each key, with its block: a leader while its
    /// block is on the dominator-tree path to the block being numbered.
    leaders: HashMap<Key, (InstId, BlockId)>,
    /// The blocks on that path.
    on_path: Vec<bool>,
    /// Blocks to enter, or (`true`) to leave.
    walk: Vec<(BlockId, bool)>,
    /// Per address, the type and value the current block last stored to or
    /// loaded from it.
    memory: HashMap<Value, (IrType, Value)>,
    /// Which loop (a stamp) each block was last found in.
    loop_of: Vec<u32>,
    /// The current loop's blocks.
    members: Vec<BlockId>,
    /// Blocks still to be added to the current loop.
    work: Vec<BlockId>,
}

/// Runs value numbering and then loop-invariant code motion on `f`.
/// Returns true if anything was replaced or moved.
pub fn value_number_and_hoist(f: &mut Function, ws: &mut Licm) -> bool {
    let n = f.blocks.len();
    ws.rpo.compute(f);
    let preds = f.predecessors();
    let dt = DomTree::from_cfg(ws.rpo.order(), &preds, n);
    ws.rpo_index.clear();
    ws.rpo_index.resize(n, u32::MAX);
    for (i, &b) in ws.rpo.order().iter().enumerate() {
        ws.rpo_index[b.0 as usize] = i as u32;
    }
    ws.def_block.clear();
    ws.def_block.resize(f.insts.len(), BlockId(u32::MAX));
    ws.movable.clear();
    ws.movable.resize(f.insts.len(), false);
    for (b, block) in f.blocks.iter().enumerate() {
        for &i in &block.insts {
            ws.def_block[i.0 as usize] = BlockId(b as u32);
            let inst = f.inst(i);
            ws.movable[i.0 as usize] =
                !matches!(inst, Inst::Phi { .. }) && removable(inst, |v| f.value_type(v));
        }
    }
    ws.header.clear();
    ws.header.resize(n, false);
    ws.pinned.clear();
    ws.pinned.resize(f.insts.len(), false);
    for &h in ws.rpo.order() {
        for p in latches(&dt, &preds, &ws.rpo_index, h) {
            ws.header[h.0 as usize] = true;
            for &i in &f.block(h).insts {
                let Inst::Phi { incoming, .. } = f.inst(i) else {
                    break;
                };
                for &(from, v) in incoming {
                    if let (true, Value::Inst(v)) = (from == p, v) {
                        ws.pinned[v.0 as usize] = true;
                    }
                }
            }
        }
    }
    let numbered = value_number(f, &dt, ws);
    let hoisted = hoist(f, &dt, &preds, ws);
    numbered || hoisted
}

/// The sources of the back edges into `h`: predecessors it dominates, which
/// come no earlier in reverse postorder (`rpo_index`).
fn latches<'a>(
    dt: &'a DomTree,
    preds: &'a BlockLists<BlockId>,
    rpo_index: &'a [u32],
    h: BlockId,
) -> impl Iterator<Item = BlockId> + 'a {
    let at = |b: BlockId| rpo_index[b.0 as usize];
    let preds = preds[h.0 as usize].iter().copied();
    preds.filter(move |&p| at(p) != u32::MAX && at(p) >= at(h) && dt.dominates(h, p))
}

/// The value-numbering walk over `dt`. Returns true if it replaced
/// anything.
fn value_number(f: &mut Function, dt: &DomTree, ws: &mut Licm) -> bool {
    let Licm {
        rpo,
        movable,
        pinned,
        header,
        replacement,
        leaders,
        on_path,
        walk,
        memory,
        ..
    } = ws;
    let children = BlockLists::group(f.blocks.len(), BlockId(0), |g| {
        for &b in rpo.order().iter().skip(1) {
            let idom = dt.idom(b).expect("a reachable block has a dominator");
            g.push(idom.0 as usize, b);
        }
    });
    replacement.clear();
    replacement.resize(f.insts.len(), None);
    leaders.clear();
    leaders.reserve(f.insts.len());
    on_path.clear();
    on_path.resize(f.blocks.len(), false);
    walk.clear();
    // Each block is pushed to be entered and again to be left.
    walk.reserve(2 * f.blocks.len());
    walk.push((f.entry(), false));
    let mut any = false;
    while let Some((b, leave)) = walk.pop() {
        on_path[b.0 as usize] = !leave;
        if leave {
            continue;
        }
        // A preorder walk: a block's subtree is numbered before its next
        // sibling, so a leader off the path is never needed again.
        walk.push((b, true));
        walk.extend(children[b.0 as usize].iter().map(|&c| (c, false)));
        memory.clear();
        for k in 0..f.block(b).insts.len() {
            let iid = f.block(b).insts[k];
            if any {
                f.inst_mut(iid).map_operands(|v| resolve(replacement, v));
            }
            let inst = f.inst(iid);
            let found = match *inst {
                Inst::Load { ty, ptr } => match memory.get(&ptr) {
                    Some(&(t, v)) if t == ty => Some(v),
                    _ => {
                        memory.insert(ptr, (ty, Value::Inst(iid)));
                        None
                    }
                },
                Inst::Store { val, ptr } => {
                    memory.clear();
                    memory.insert(ptr, (f.value_type(val), val));
                    None
                }
                Inst::Call { .. } => {
                    memory.clear();
                    None
                }
                _ if !movable[iid.0 as usize] || pinned[iid.0 as usize] => None,
                _ => Key::of(inst).and_then(|key| {
                    let leader = leaders.entry(key).or_insert((iid, b));
                    let (same, at) = *leader;
                    // A leader off the path dominates nothing left to number,
                    // and a header's value stays inside its header.
                    let leads = on_path[at.0 as usize] && (at == b || !header[at.0 as usize]);
                    if same != iid && leads {
                        return Some(Value::Inst(same));
                    }
                    *leader = (iid, b);
                    None
                }),
            };
            if let Some(v) = found.filter(|_| !pinned[iid.0 as usize]) {
                replacement[iid.0 as usize] = Some(v);
                any = true;
            }
        }
    }
    if !any {
        return false;
    }
    // The uses the walk did not reach: phis, terminators.
    let Function { insts, blocks, .. } = f;
    for block in blocks {
        block.insts.retain(|i| replacement[i.0 as usize].is_none());
        for &i in &block.insts {
            insts[i.0 as usize].map_operands(|v| resolve(replacement, v));
        }
        if let Some(t) = block.term.as_mut() {
            t.map_operands(|v| resolve(replacement, v));
        }
    }
    true
}

/// What `v` was replaced by.
fn resolve(replacement: &[Option<Value>], mut v: Value) -> Value {
    while let Value::Inst(id) = v {
        match replacement[id.0 as usize] {
            Some(to) => v = to,
            None => break,
        }
    }
    v
}

/// Loop-invariant code motion over the natural loops of `dt`'s back edges,
/// innermost first. Returns true if it moved anything.
fn hoist(f: &mut Function, dt: &DomTree, preds: &BlockLists<BlockId>, ws: &mut Licm) -> bool {
    let Licm {
        rpo,
        rpo_index,
        def_block,
        movable,
        header,
        loop_of,
        members,
        work,
        ..
    } = ws;
    loop_of.clear();
    loop_of.resize(f.blocks.len(), 0);
    let mut moved = false;
    // A loop's header comes after every header of a loop around it in
    // reverse postorder.
    for (stamp, &h) in rpo.order().iter().rev().enumerate() {
        if !header[h.0 as usize] {
            continue;
        }
        let stamp = stamp as u32 + 1;
        let inside = |loop_of: &[u32], b: BlockId| loop_of[b.0 as usize] == stamp;
        loop_of[h.0 as usize] = stamp;
        members.clear();
        members.push(h);
        work.clear();
        work.extend(latches(dt, preds, rpo_index, h));
        while let Some(b) = work.pop() {
            if !inside(loop_of, b) {
                loop_of[b.0 as usize] = stamp;
                members.push(b);
                work.extend(preds[b.0 as usize].iter().filter(|p| dt.is_reachable(**p)));
            }
        }
        // The one block entering the loop, which enters nothing else.
        let mut entries = preds[h.0 as usize].iter().filter(|&&p| !inside(loop_of, p));
        let (Some(&pre), None) = (entries.next(), entries.next()) else {
            continue;
        };
        if f.successors(pre).any(|s| s != h) {
            continue;
        }
        members.sort_unstable_by_key(|b| rpo_index[b.0 as usize]);
        let Function { insts, blocks, .. } = &mut *f;
        for &b in members.iter() {
            let mut kept = std::mem::take(&mut blocks[b.0 as usize].insts);
            kept.retain(|&i| {
                let mut invariant = movable[i.0 as usize];
                insts[i.0 as usize].for_each_operand(|v| {
                    if let Value::Inst(d) = v {
                        invariant &= !inside(loop_of, def_block[d.0 as usize]);
                    }
                });
                if !invariant {
                    return true;
                }
                blocks[pre.0 as usize].insts.push(i);
                def_block[i.0 as usize] = pre;
                moved = true;
                false
            });
            blocks[b.0 as usize].insts = kept;
        }
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use omplt_ir::{assert_verified, IrBuilder, SymbolId};
    use omplt_ompirb::{create_canonical_loop, CanonicalLoopInfo};

    /// `f(arg0, arg1)` around `for (i = 0; i < arg0; i++) body(b, i)`.
    fn counted(body: impl FnOnce(&mut IrBuilder<'_>, Value)) -> (Function, CanonicalLoopInfo) {
        let mut f = Function::new("f", vec![IrType::I64, IrType::I64], IrType::Void);
        let mut b = IrBuilder::new(&mut f);
        let cli = create_canonical_loop(&mut b, Value::Arg(0), "i", body);
        b.ret(None);
        (f, cli)
    }

    /// Runs the pass and the verifier.
    fn run(f: &mut Function) -> bool {
        let changed = value_number_and_hoist(f, &mut Licm::default());
        assert_verified(f);
        changed
    }

    /// The block holding `v`.
    fn block_of(f: &Function, v: Value) -> BlockId {
        let Value::Inst(i) = v else {
            panic!("{v:?} is no instruction")
        };
        let b = f.blocks.iter().position(|b| b.insts.contains(&i));
        BlockId(b.expect("a placed instruction") as u32)
    }

    fn sink(b: &mut IrBuilder<'_>, v: Value) {
        b.call(SymbolId(0), vec![v], IrType::Void);
    }

    #[test]
    fn an_invariant_moves_to_the_preheader_and_the_step_stays() {
        let mut three = Value::Undef(IrType::I64);
        let (mut f, cli) = counted(|b, i| {
            three = b.mul(Value::Arg(1), Value::i64(3));
            let v = b.add(three, i);
            sink(b, v);
        });
        assert!(run(&mut f));
        assert_eq!(block_of(&f, three), cli.preheader);
        assert!(f.induction(cli.header, cli.latch).is_ok());
        assert_eq!(f.block(cli.latch).insts.len(), 1, "the step stays");
    }

    #[test]
    fn a_load_and_a_trapping_division_stay_in_the_loop() {
        let (mut load, mut div) = (Value::Undef(IrType::I64), Value::Undef(IrType::I64));
        let (mut f, cli) = counted(|b, _| {
            load = b.load(IrType::I64, Value::Global(SymbolId(1)));
            div = b.sdiv(Value::Arg(0), Value::Arg(1));
            sink(b, load);
            sink(b, div);
        });
        assert!(!run(&mut f));
        assert_eq!(block_of(&f, load), cli.body);
        assert_eq!(block_of(&f, div), cli.body);
    }

    #[test]
    fn a_dominated_duplicate_is_replaced() {
        let (mut f, cli) = counted(|b, i| {
            let a = b.mul(i, Value::i64(5));
            let twin = b.mul(i, Value::i64(5));
            sink(b, a);
            sink(b, twin);
        });
        assert!(run(&mut f));
        let muls = f.block(cli.body).insts.iter();
        let muls = muls
            .filter(|&&i| matches!(f.inst(i), Inst::Bin { .. }))
            .count();
        assert_eq!(muls, 1);
    }

    /// The body's `i + 1` dominates the latch's: without the rule the latch
    /// step would go, and the VM could no longer fuse it into its jump.
    #[test]
    fn a_back_edge_step_is_never_merged_with_an_equal_body_value() {
        let (mut f, cli) = counted(|b, i| {
            let next = b.add(i, Value::i64(1));
            sink(b, next);
        });
        let step = f.block(cli.latch).insts[0];
        run(&mut f);
        assert_eq!(f.block(cli.latch).insts, [step]);
        assert_eq!(f.block(cli.body).insts.len(), 2, "the body keeps its own");
        assert!(f.induction(cli.header, cli.latch).is_ok());
    }

    /// The exit test `i < arg0` lives in the loop's test block; a body copy
    /// of it is kept, as the unroller copies only the body.
    #[test]
    fn a_header_value_leads_nothing_outside_its_header() {
        let (mut f, cli) = counted(|b, i| {
            let again = b.cmp(omplt_ir::CmpPred::Ult, i, Value::Arg(0));
            let wide = b.cast(omplt_ir::CastOp::ZExt, again, IrType::I64);
            sink(b, wide);
        });
        // Make the test block a loop header: merge it into the header, as the
        // cleanup does.
        let test = std::mem::take(&mut f.block_mut(cli.cond).insts);
        f.block_mut(cli.header).insts.extend(test);
        f.block_mut(cli.header).term = f.block_mut(cli.cond).term.take();
        f.block_mut(cli.cond).term = Some(omplt_ir::Terminator::Unreachable);
        run(&mut f);
        let cmps = |b: BlockId| {
            let insts = f.block(b).insts.iter();
            insts
                .filter(|&&i| matches!(f.inst(i), Inst::Cmp { .. }))
                .count()
        };
        assert_eq!((cmps(cli.header), cmps(cli.body)), (1, 1));
    }

    /// One block: `store a, p; <between>; load p`.
    fn forwarded(between: impl FnOnce(&mut IrBuilder<'_>)) -> bool {
        let mut f = Function::new("f", vec![IrType::Ptr, IrType::Ptr], IrType::I64);
        let mut b = IrBuilder::new(&mut f);
        b.store(Value::i64(7), Value::Arg(0));
        between(&mut b);
        let v = b.load(IrType::I64, Value::Arg(0));
        b.ret(Some(v));
        run(&mut f);
        let ret = f.block(f.entry()).term.clone();
        ret == Some(omplt_ir::Terminator::Ret(Some(Value::i64(7))))
    }

    #[test]
    fn forwarding_stops_at_a_call_and_at_a_store_to_another_address() {
        assert!(forwarded(|_| {}));
        assert!(forwarded(|b| {
            b.load(IrType::I64, Value::Arg(0));
        }));
        assert!(!forwarded(|b| sink(b, Value::i64(0))));
        assert!(!forwarded(|b| b.store(Value::i64(8), Value::Arg(1))));
        // A load of another type is not the stored value.
        let mut f = Function::new("f", vec![IrType::Ptr], IrType::I32);
        let mut b = IrBuilder::new(&mut f);
        b.store(Value::i64(7), Value::Arg(0));
        let v = b.load(IrType::I32, Value::Arg(0));
        b.ret(Some(v));
        assert!(!run(&mut f));
    }
}
