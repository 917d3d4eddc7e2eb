//! Dominator tree via the Cooper–Harvey–Kennedy iterative algorithm.

use omplt_ir::{BlockId, BlockLists, Function};

/// Immediate-dominator tree for a function's reachable blocks.
pub struct DomTree {
    /// `idom[b] == Some(d)` — `d` immediately dominates `b`; entry maps to
    /// itself; unreachable blocks map to `None`.
    idom: Vec<Option<BlockId>>,
}

impl DomTree {
    /// Computes dominators for `f`.
    pub fn compute(f: &Function) -> DomTree {
        DomTree::from_cfg(&f.reverse_postorder(), &f.predecessors(), f.blocks.len())
    }

    /// Dominators of `n` blocks with reverse postorder `rpo` (the entry
    /// first) and predecessors `preds`, for a caller that has both at hand.
    pub fn from_cfg(rpo: &[BlockId], preds: &BlockLists<BlockId>, n: usize) -> DomTree {
        let mut rpo_index = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_index[b.0 as usize] = i;
        }
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        let entry = rpo[0];
        idom[entry.0 as usize] = Some(entry);

        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &preds[b.0 as usize] {
                    if idom[p.0 as usize].is_none() {
                        continue; // not yet processed / unreachable
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_index, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.0 as usize] != Some(ni) {
                        idom[b.0 as usize] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        DomTree { idom }
    }

    /// The immediate dominator (entry maps to itself; `None` if
    /// unreachable).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom.get(b.0 as usize).copied().flatten()
    }

    /// Whether `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom(cur) {
                Some(d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }

    /// Whether `b` is reachable from the entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.idom(b).is_some()
    }
}

fn intersect(
    idom: &[Option<BlockId>],
    rpo_index: &[usize],
    mut a: BlockId,
    mut b: BlockId,
) -> BlockId {
    while a != b {
        while rpo_index[a.0 as usize] > rpo_index[b.0 as usize] {
            a = idom[a.0 as usize].expect("processed block must have idom");
        }
        while rpo_index[b.0 as usize] > rpo_index[a.0 as usize] {
            b = idom[b.0 as usize].expect("processed block must have idom");
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use omplt_ir::{IrType, Terminator, Value};

    /// Diamond: entry → {a, b} → join
    fn diamond() -> (Function, BlockId, BlockId, BlockId) {
        let mut f = Function::new("d", vec![], IrType::Void);
        let a = f.add_block("a");
        let b = f.add_block("b");
        let join = f.add_block("join");
        let e = f.entry();
        f.block_mut(e).term = Some(Terminator::CondBr {
            cond: Value::bool(true),
            then_bb: a,
            else_bb: b,
            loop_md: None,
        });
        f.block_mut(a).term = Some(Terminator::Br {
            target: join,
            loop_md: None,
        });
        f.block_mut(b).term = Some(Terminator::Br {
            target: join,
            loop_md: None,
        });
        f.block_mut(join).term = Some(Terminator::Ret(None));
        (f, a, b, join)
    }

    #[test]
    fn diamond_dominators() {
        let (f, a, b, join) = diamond();
        let dt = DomTree::compute(&f);
        let e = f.entry();
        assert_eq!(dt.idom(a), Some(e));
        assert_eq!(dt.idom(b), Some(e));
        assert_eq!(dt.idom(join), Some(e), "neither branch dominates the join");
        assert!(dt.dominates(e, join));
        assert!(!dt.dominates(a, join));
        assert!(dt.dominates(join, join));
    }

    #[test]
    fn loop_header_dominates_latch() {
        // entry → header; header → body | exit; body → header (latch)
        let mut f = Function::new("l", vec![], IrType::Void);
        let header = f.add_block("header");
        let body = f.add_block("body");
        let exit = f.add_block("exit");
        let e = f.entry();
        f.block_mut(e).term = Some(Terminator::Br {
            target: header,
            loop_md: None,
        });
        f.block_mut(header).term = Some(Terminator::CondBr {
            cond: Value::bool(true),
            then_bb: body,
            else_bb: exit,
            loop_md: None,
        });
        f.block_mut(body).term = Some(Terminator::Br {
            target: header,
            loop_md: None,
        });
        f.block_mut(exit).term = Some(Terminator::Ret(None));
        let dt = DomTree::compute(&f);
        assert!(dt.dominates(header, body));
        assert!(dt.dominates(header, exit));
        assert_eq!(dt.idom(header), Some(e));
    }

    #[test]
    fn unreachable_blocks_have_no_idom() {
        let mut f = Function::new("u", vec![], IrType::Void);
        let dead = f.add_block("dead");
        f.block_mut(f.entry()).term = Some(Terminator::Ret(None));
        f.block_mut(dead).term = Some(Terminator::Ret(None));
        let dt = DomTree::compute(&f);
        assert!(!dt.is_reachable(dead));
        assert!(dt.is_reachable(f.entry()));
    }
}
