//! SSA promotion (`mem2reg`, the paper's §2.2 division of labour): the
//! `alloca` slots every lowering emits become SSA values, with pruned phis
//! on the iterated dominance frontiers of each slot's writes and one walk
//! down the [`DomTree`] naming every load (Cytron et al.). The slots are
//! [`Function::promotable_allocas`]; the mid end runs the pass under `--opt`,
//! and the VM on a copy of any function that reaches it unpromoted. A load
//! before any store reads the type's zero, what a fresh `alloca` holds on
//! both engines (also when it re-executes in a loop); new phis go after a
//! block's own. [`Promote`] keeps the
//! buffers for a whole module: per function the pass allocates its CFG
//! tables and one incoming list per phi, nothing per block, slot or
//! placement round.

use crate::domtree::DomTree;
use omplt_ir::{BlockId, BlockLists, Function, Inst, InstId, IrType, Rpo, Value};

/// "No slot" and the walk's "entering" mark.
const NONE: u32 = u32::MAX;

/// The buffers of [`promote`], reused from function to function.
#[derive(Default)]
pub struct Promote {
    rpo: Rpo,
    /// Slot type of each candidate `alloca`, by `InstId`.
    slot_ty: Vec<Option<IrType>>,
    /// Slot number of each promoted `alloca` by `InstId` (else `NONE`),
    /// each slot's type, and the slot of new phi `j` (`%first + j`).
    slot_of: Vec<u32>,
    ty: Vec<IrType>,
    phi_slot: Vec<u32>,
    /// `(list, block)`: list `2k` holds the blocks writing slot `k`, list
    /// `2k + 1` those reading it first; each slot's last writing block.
    pairs: Vec<(u32, BlockId)>,
    written: Vec<u32>,
    /// Per block, the last slot that is live into it, that it writes, that
    /// placed a phi there and that queued it.
    live: Vec<u32>,
    writes: Vec<u32>,
    has_phi: Vec<u32>,
    queued: Vec<u32>,
    work: Vec<BlockId>,
    /// Renaming: each slot's value, what it overwrote, the dominator-tree
    /// stack and each load's value.
    cur: Vec<Value>,
    undo: Vec<(u32, Value)>,
    stack: Vec<(BlockId, u32)>,
    replacement: Vec<Option<Value>>,
}

/// What a fresh slot of type `ty` holds.
fn zero(ty: IrType) -> Value {
    Value::of_payload(ty, 0).unwrap_or(Value::Undef(ty))
}

/// The slot `inst` allocates, loads or stores, if it is promoted.
fn slot_access(slot_of: &[u32], iid: InstId, inst: &Inst) -> Option<u32> {
    let slot = match inst {
        Inst::Alloca { .. } => iid,
        Inst::Load { ptr, .. } | Inst::Store { ptr, .. } => match ptr {
            Value::Inst(a) => *a,
            _ => return None,
        },
        _ => return None,
    };
    // A pointer a new phi carries is no slot (and has no entry).
    slot_of.get(slot.0 as usize).copied().filter(|&k| k != NONE)
}

/// Promotes every non-escaping scalar `alloca` of `f` to SSA values;
/// returns how many it promoted.
pub fn promote(f: &mut Function, ws: &mut Promote) -> usize {
    let order = ws.rpo.compute(f);
    f.promotable_allocas(order, |v| f.value_type(v), &mut ws.slot_ty);
    if ws.slot_ty.iter().all(Option::is_none) {
        return 0;
    }
    // A branch back into the entry block would leave its phis no edge for
    // the function's entry.
    let preds = f.predecessors();
    if !preds[0].is_empty() {
        return 0;
    }
    let nb = f.blocks.len();
    let dt = DomTree::from_cfg(order, &preds, nb);
    ws.slot_of.clear();
    ws.slot_of.resize(f.insts.len(), NONE);
    ws.ty.clear();
    ws.pairs.clear();
    ws.written.clear();
    for &b in order {
        for &iid in &f.block(b).insts {
            if let Some(t) = ws.slot_ty[iid.0 as usize] {
                ws.slot_of[iid.0 as usize] = ws.ty.len() as u32;
                ws.ty.push(t);
                ws.written.push(NONE);
            }
            let inst = f.inst(iid);
            if let Some(k) = slot_access(&ws.slot_of, iid, inst) {
                if !matches!(inst, Inst::Load { .. }) {
                    ws.written[k as usize] = b.0;
                    ws.pairs.push((2 * k, b));
                } else if ws.written[k as usize] != b.0 {
                    ws.pairs.push((2 * k + 1, b));
                }
            }
        }
    }

    // Dominance frontiers (Cooper–Harvey–Kennedy): a join block is in the
    // frontier of every block on the way up from a predecessor to its idom.
    let up = |b: BlockId| dt.idom(b).expect("reachable block");
    let frontier = BlockLists::group(nb, BlockId(0), |g| {
        for &b in order.iter().filter(|&&b| preds[b.0 as usize].len() >= 2) {
            for &p in preds[b.0 as usize].iter().filter(|&&p| dt.is_reachable(p)) {
                let mut runner = p;
                while runner != up(b) {
                    g.push(runner.0 as usize, b);
                    runner = up(runner);
                }
            }
        }
    });
    let access = BlockLists::group(2 * ws.ty.len(), BlockId(0), |g| {
        for &(list, b) in ws.pairs.iter() {
            g.push(list as usize, b);
        }
    });

    // Pruned SSA, slot by slot: where the slot is live in, a phi on the
    // iterated dominance frontier of its writes.
    let first = f.insts.len() as u32;
    for v in [
        &mut ws.live,
        &mut ws.writes,
        &mut ws.has_phi,
        &mut ws.queued,
    ] {
        v.clear();
        v.resize(nb, NONE);
    }
    ws.phi_slot.clear();
    for (k, &t) in ws.ty.iter().enumerate() {
        let (defs, reads) = (&access[2 * k], &access[2 * k + 1]);
        let k = k as u32;
        let mark =
            |stamps: &mut [u32], b: BlockId| std::mem::replace(&mut stamps[b.0 as usize], k) != k;
        defs.iter().for_each(|&b| ws.writes[b.0 as usize] = k);
        ws.work.clear();
        ws.work
            .extend(reads.iter().filter(|&&b| mark(&mut ws.live, b)));
        while let Some(x) = ws.work.pop() {
            for &p in &preds[x.0 as usize] {
                if ws.writes[p.0 as usize] != k && mark(&mut ws.live, p) {
                    ws.work.push(p);
                }
            }
        }
        ws.work
            .extend(defs.iter().filter(|&&b| mark(&mut ws.queued, b)));
        while let Some(x) = ws.work.pop() {
            for &y in &frontier[x.0 as usize] {
                if ws.live[y.0 as usize] != k || !mark(&mut ws.has_phi, y) {
                    continue;
                }
                ws.phi_slot.push(k);
                let zero = zero(t);
                let incoming = preds[y.0 as usize].iter().map(|&p| (p, zero)).collect();
                let phi = f.insts.len() as u32;
                f.insts.push(Inst::Phi { ty: t, incoming });
                let list = &mut f.blocks[y.0 as usize].insts;
                list.insert(leading_phis(&f.insts, list), InstId(phi));
                if mark(&mut ws.queued, y) {
                    ws.work.push(y);
                }
            }
        }
    }

    // Renaming, down the dominator tree: each block sees the value of every
    // slot its dominators left, reads its loads' values from it, drops the
    // slot's accesses, and hands its own values to its successors' phis.
    let children = BlockLists::group(nb, BlockId(0), |g| {
        for &b in &order[1..] {
            g.push(up(b).0 as usize, b);
        }
    });
    let new_slot = |phi: InstId| Some(ws.phi_slot[phi.0.checked_sub(first)? as usize] as usize);
    let Function { insts, blocks, .. } = f;
    ws.cur.clear();
    ws.cur.extend(ws.ty.iter().map(|&t| zero(t)));
    ws.replacement.clear();
    ws.replacement.resize(first as usize, None);
    ws.undo.clear();
    ws.stack.clear();
    ws.stack.push((BlockId(0), NONE));
    while let Some((b, mark)) = ws.stack.pop() {
        if mark != NONE {
            for (k, v) in ws.undo.drain(mark as usize..).rev() {
                ws.cur[k as usize] = v;
            }
            continue;
        }
        ws.stack.push((b, ws.undo.len() as u32));
        let block = &mut blocks[b.0 as usize];
        for &iid in &block.insts {
            let inst = &mut insts[iid.0 as usize];
            let k = match inst {
                Inst::Phi { .. } => new_slot(iid),
                _ => {
                    inst.map_operands(|v| resolve(&ws.replacement, v));
                    slot_access(&ws.slot_of, iid, inst).map(|k| k as usize)
                }
            };
            let Some(k) = k else { continue };
            let v = match inst {
                Inst::Load { .. } => {
                    ws.replacement[iid.0 as usize] = Some(ws.cur[k]);
                    continue;
                }
                Inst::Phi { .. } => Value::Inst(iid),
                Inst::Store { val, .. } => *val,
                _ => zero(ws.ty[k]),
            };
            ws.undo
                .push((k as u32, std::mem::replace(&mut ws.cur[k], v)));
        }
        block
            .insts
            .retain(|&i| slot_access(&ws.slot_of, i, &insts[i.0 as usize]).is_none());
        let term = block.term.as_mut().expect("verified IR");
        term.map_operands(|v| resolve(&ws.replacement, v));
        for s in term.successors() {
            let phis = &blocks[s.0 as usize].insts;
            for &phi in &phis[..leading_phis(insts, phis)] {
                let v = new_slot(phi).map(|k| ws.cur[k]);
                if let Inst::Phi { incoming, .. } = &mut insts[phi.0 as usize] {
                    for e in incoming.iter_mut().filter(|e| e.0 == b) {
                        e.1 = v.unwrap_or_else(|| resolve(&ws.replacement, e.1));
                    }
                }
            }
        }
        ws.stack
            .extend(children[b.0 as usize].iter().rev().map(|&c| (c, NONE)));
    }
    ws.ty.len()
}

/// How many phis head `list`.
fn leading_phis(insts: &[Inst], list: &[InstId]) -> usize {
    list.iter()
        .take_while(|i| matches!(insts[i.0 as usize], Inst::Phi { .. }))
        .count()
}

/// `v`, or what the load `v` was renamed to.
fn resolve(replacement: &[Option<Value>], v: Value) -> Value {
    match v {
        Value::Inst(id) => replacement
            .get(id.0 as usize)
            .copied()
            .flatten()
            .unwrap_or(v),
        _ => v,
    }
}
