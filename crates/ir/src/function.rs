//! Functions and basic blocks as index arenas (flat `Vec`s addressed by
//! typed ids — the allocation-friendly layout the performance guide
//! recommends for graph-shaped IRs).

use crate::inst::{Inst, Terminator};
use crate::types::IrType;
use crate::value::Value;
use std::borrow::Cow;

/// Index of an instruction within its function.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, PartialOrd, Ord)]
pub struct InstId(pub u32);

/// Index of a basic block within its function.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// One basic block: an ordered list of instruction ids plus a terminator.
#[derive(Clone, Debug)]
pub struct BlockData {
    /// Debug name (`for.cond`, `omp_i.header`, …): borrowed when static,
    /// so only a formatted name costs an allocation.
    pub name: Cow<'static, str>,
    /// Instructions in execution order.
    pub insts: Vec<InstId>,
    /// The terminator; `None` only while the block is under construction.
    pub term: Option<Terminator>,
}

/// A function under construction or completed.
#[derive(Clone, Debug)]
pub struct Function {
    /// Symbol name.
    pub name: String,
    /// Parameter types.
    pub params: Vec<IrType>,
    /// Return type.
    pub ret: IrType,
    /// Instruction arena.
    pub insts: Vec<Inst>,
    /// Block arena; `blocks[0]` is the entry block.
    pub blocks: Vec<BlockData>,
}

impl Function {
    /// Creates a function with an (empty) entry block.
    pub fn new(name: impl Into<String>, params: Vec<IrType>, ret: IrType) -> Function {
        Function {
            name: name.into(),
            params,
            ret,
            insts: Vec::new(),
            blocks: vec![BlockData {
                name: Cow::Borrowed("entry"),
                insts: Vec::new(),
                term: None,
            }],
        }
    }

    /// The entry block id.
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Appends a new empty block.
    pub fn add_block(&mut self, name: impl Into<Cow<'static, str>>) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BlockData {
            name: name.into(),
            insts: Vec::new(),
            term: None,
        });
        id
    }

    /// Appends an instruction to a block, returning its value.
    pub fn push_inst(&mut self, bb: BlockId, inst: Inst) -> Value {
        let id = InstId(self.insts.len() as u32);
        self.insts.push(inst);
        self.blocks[bb.0 as usize].insts.push(id);
        Value::Inst(id)
    }

    /// Inserts an instruction at the *front* of a block (after any phis).
    /// Used by worksharing to shift the induction variable before body code.
    pub fn prepend_inst(&mut self, bb: BlockId, inst: Inst) -> Value {
        let id = InstId(self.insts.len() as u32);
        self.insts.push(inst);
        let list = &mut self.blocks[bb.0 as usize].insts;
        let at = list
            .iter()
            .position(|&i| !matches!(self.insts[i.0 as usize], Inst::Phi { .. }))
            .unwrap_or(list.len());
        list.insert(at, id);
        Value::Inst(id)
    }

    /// Accesses a block.
    pub fn block(&self, bb: BlockId) -> &BlockData {
        &self.blocks[bb.0 as usize]
    }

    /// Mutable access to a block.
    pub fn block_mut(&mut self, bb: BlockId) -> &mut BlockData {
        &mut self.blocks[bb.0 as usize]
    }

    /// Accesses an instruction.
    pub fn inst(&self, id: InstId) -> &Inst {
        &self.insts[id.0 as usize]
    }

    /// Mutable access to an instruction.
    pub fn inst_mut(&mut self, id: InstId) -> &mut Inst {
        &mut self.insts[id.0 as usize]
    }

    /// The type of any value in this function's context.
    pub fn value_type(&self, v: Value) -> IrType {
        match v {
            Value::Inst(id) => {
                let inst = self.inst(id);
                inst.result_type(|op| self.value_type(op))
            }
            Value::Arg(i) => self.params[i as usize],
            Value::ConstInt { ty, .. } | Value::ConstFloat { ty, .. } | Value::Undef(ty) => ty,
            Value::Global(_) | Value::FuncRef(_) => IrType::Ptr,
        }
    }

    /// Successors of a block (none while unterminated), without allocating.
    pub fn successors(&self, bb: BlockId) -> impl Iterator<Item = BlockId> + '_ {
        self.block(bb).term.iter().flat_map(Terminator::successors)
    }

    /// The predecessors of every block: `preds[b]` for block index `b`, in
    /// ascending block order (a block branching to `b` on both arms appears
    /// twice).
    pub fn predecessors(&self) -> BlockLists<BlockId> {
        BlockLists::group(self.blocks.len(), BlockId(0), |preds| {
            for i in 0..self.blocks.len() as u32 {
                for s in self.successors(BlockId(i)) {
                    preds.push(s.0 as usize, BlockId(i));
                }
            }
        })
    }

    /// Blocks reachable from entry, in reverse-postorder (a walk with fresh
    /// [`Rpo`] buffers).
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        let mut rpo = Rpo::default();
        rpo.compute(self);
        rpo.order
    }

    /// The blocks reachable from `from` without passing through `stop`
    /// (which is excluded), in DFS discovery order — with a canonical loop's
    /// `body` and `latch`, its body region.
    pub fn region_until(&self, from: BlockId, stop: BlockId) -> Vec<BlockId> {
        let mut seen = vec![false; self.blocks.len()];
        let mut out = Vec::new();
        let mut stack = vec![from];
        while let Some(bb) = stack.pop() {
            if seen[bb.0 as usize] || bb == stop {
                continue;
            }
            seen[bb.0 as usize] = true;
            out.push(bb);
            stack.extend(self.successors(bb));
        }
        out
    }

    /// Number of instructions reachable in any block (simple size metric for
    /// heuristics).
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// The one rule, for the mid end's promotion, of which `alloca`s of
    /// `blocks` can live in a register (the VM asks it only whether a
    /// function still needs promoting): one element of
    /// 1–8 bytes, whose address only same-typed loads and stores use (any
    /// other use lets it escape). `slot_ty[i]` becomes the type of each such
    /// `%i`, `None` for every other instruction.
    pub fn promotable_allocas(
        &self,
        blocks: &[BlockId],
        value_type: impl Fn(Value) -> IrType,
        slot_ty: &mut Vec<Option<IrType>>,
    ) {
        slot_ty.clear();
        slot_ty.resize(self.insts.len(), None);
        for &bb in blocks {
            for &iid in &self.block(bb).insts {
                if let Inst::Alloca { ty, count: 1, .. } = self.inst(iid) {
                    if (1..=8).contains(&ty.size()) {
                        slot_ty[iid.0 as usize] = Some(*ty);
                    }
                }
            }
        }
        if slot_ty.iter().all(Option::is_none) {
            return;
        }
        let escape =
            |slot_ty: &mut [Option<IrType>], v: Value, escapes: &dyn Fn(IrType) -> bool| {
                if let Value::Inst(a) = v {
                    if slot_ty[a.0 as usize].is_some_and(escapes) {
                        slot_ty[a.0 as usize] = None;
                    }
                }
            };
        let any = |_| true;
        for &bb in blocks {
            for &iid in &self.block(bb).insts {
                match self.inst(iid) {
                    Inst::Load { ty, ptr } => escape(slot_ty, *ptr, &|t| t != *ty),
                    Inst::Store { val, ptr } => {
                        escape(slot_ty, *val, &any);
                        escape(slot_ty, *ptr, &|t| t != value_type(*val));
                    }
                    other => other.for_each_operand(|v| escape(slot_ty, v, &any)),
                }
            }
            let term = self.block(bb).term.iter();
            term.for_each(|t| t.for_each_operand(|v| escape(slot_ty, v, &any)));
        }
    }
}

/// Per-block lists in one flat vector — list `b` is `lists[b]` — so a CFG
/// query allocates twice however many blocks and edges it covers.
#[derive(Clone, Debug)]
pub struct BlockLists<T> {
    /// List `b` is `items[at[b]..at[b + 1]]`.
    at: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> BlockLists<T> {
    /// Groups the `(list, item)` pairs `walk` pushes by list, each list in
    /// the order its items came. `walk` runs twice, to count and then to
    /// place, and must push the same pairs both times; `filler` only holds a
    /// slot until its item is placed.
    pub fn group(lists: usize, filler: T, walk: impl Fn(&mut Grouper<'_, T>)) -> Self {
        let mut at = vec![0u32; lists + 1];
        walk(&mut Grouper {
            at: &mut at,
            items: None,
        });
        // `at[b + 1]` becomes list `b`'s start; placing its items advances
        // it to the list's end, which is where list `b + 1` starts.
        let mut start = 0;
        for slot in &mut at[1..] {
            let count = *slot;
            *slot = start;
            start += count;
        }
        let mut items = vec![filler; start as usize];
        walk(&mut Grouper {
            at: &mut at,
            items: Some(&mut items),
        });
        BlockLists { at, items }
    }
}

/// Where [`BlockLists::group`]'s walk pushes its pairs.
pub struct Grouper<'a, T> {
    at: &'a mut [u32],
    /// `None` while counting.
    items: Option<&'a mut [T]>,
}

impl<T> Grouper<'_, T> {
    /// Adds `item` to list `list`.
    pub fn push(&mut self, list: usize, item: T) {
        let slot = &mut self.at[list + 1];
        if let Some(items) = &mut self.items {
            items[*slot as usize] = item;
        }
        *slot += 1;
    }
}

impl<T> std::ops::Index<usize> for BlockLists<T> {
    type Output = [T];

    fn index(&self, b: usize) -> &[T] {
        &self.items[self.at[b] as usize..self.at[b + 1] as usize]
    }
}

/// A reverse-postorder walk and its buffers. A caller that walks many
/// functions, or one function many times, keeps one and stops allocating
/// once the buffers have grown; [`Function::reverse_postorder`] walks with
/// fresh ones.
#[derive(Default)]
pub struct Rpo {
    order: Vec<BlockId>,
    visited: Vec<bool>,
    stack: Vec<(BlockId, bool)>,
}

impl Rpo {
    /// Walks `f`: the blocks reachable from its entry, in reverse postorder.
    pub fn compute(&mut self, f: &Function) -> &[BlockId] {
        let n = f.blocks.len();
        self.visited.clear();
        self.visited.resize(n, false);
        self.order.clear();
        self.order.reserve(n);
        // Iterative DFS with an explicit "exit" marker stack, sized for a
        // straight chain: one marker per block on the path.
        self.stack.clear();
        self.stack.reserve(n);
        self.stack.push((f.entry(), false));
        while let Some((bb, processed)) = self.stack.pop() {
            if processed {
                self.order.push(bb);
                continue;
            }
            if self.visited[bb.0 as usize] {
                continue;
            }
            self.visited[bb.0 as usize] = true;
            self.stack.push((bb, true));
            for s in f.successors(bb) {
                if !self.visited[s.0 as usize] {
                    self.stack.push((s, false));
                }
            }
        }
        self.order.reverse();
        &self.order
    }

    /// The last walk's blocks, in reverse postorder.
    pub fn order(&self) -> &[BlockId] {
        &self.order
    }

    /// Whether the last walk reached `b`.
    pub fn reached(&self, b: BlockId) -> bool {
        self.visited[b.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::BinOpKind;

    fn sample() -> Function {
        // entry -> a -> b ; entry -> b
        let mut f = Function::new("f", vec![IrType::I32], IrType::I32);
        let a = f.add_block("a");
        let b = f.add_block("b");
        f.block_mut(f.entry()).term = Some(Terminator::CondBr {
            cond: Value::bool(true),
            then_bb: a,
            else_bb: b,
            loop_md: None,
        });
        f.block_mut(a).term = Some(Terminator::Br {
            target: b,
            loop_md: None,
        });
        f.block_mut(b).term = Some(Terminator::Ret(Some(Value::i32(0))));
        f
    }

    #[test]
    fn preds_and_succs() {
        let f = sample();
        let preds = f.predecessors();
        assert_eq!(f.successors(f.entry()).count(), 2);
        assert_eq!(preds[2].len(), 2); // b has entry and a
        assert_eq!(preds[0].len(), 0);
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable() {
        let f = sample();
        let rpo = f.reverse_postorder();
        assert_eq!(rpo[0], f.entry());
        assert_eq!(rpo.len(), 3);
        // b must come after a (a branches to b) and after entry
        let pos = |id: BlockId| rpo.iter().position(|&x| x == id).unwrap();
        assert!(pos(BlockId(2)) > pos(BlockId(1)));
    }

    #[test]
    fn value_types() {
        let mut f = Function::new("g", vec![IrType::I64], IrType::Void);
        let e = f.entry();
        let v = f.push_inst(
            e,
            Inst::Bin {
                op: BinOpKind::Add,
                lhs: Value::Arg(0),
                rhs: Value::i64(1),
            },
        );
        assert_eq!(f.value_type(v), IrType::I64);
        assert_eq!(f.value_type(Value::Arg(0)), IrType::I64);
        assert_eq!(f.value_type(Value::bool(false)), IrType::I1);
    }

    #[test]
    fn unreachable_blocks_not_in_rpo() {
        let mut f = sample();
        let dead = f.add_block("dead");
        f.block_mut(dead).term = Some(Terminator::Ret(None));
        assert_eq!(f.reverse_postorder().len(), 3);
    }
}
