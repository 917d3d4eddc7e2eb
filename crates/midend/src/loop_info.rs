//! Natural-loop detection from back edges, for the skeleton verifier. The
//! canonical skeleton's roles (header/cond/body/latch/exit, the IV and the
//! trip count) are recognised by `Function::induction` in `omplt-ir`, from
//! a back edge alone — which is exactly what lets the `LoopUnroll` pass work
//! "without requiring analysis by ScalarEvolution" (paper §3.2).

use crate::domtree::DomTree;
use omplt_ir::{BlockId, Function, LoopMetadata};

/// A natural loop: a back edge `latch → header` plus its body.
#[derive(Debug, Clone)]
pub struct NaturalLoop {
    /// Loop header.
    pub header: BlockId,
    /// The (single) latch. Loops with multiple latches are not produced by
    /// our front-end and are ignored by the passes.
    pub latch: BlockId,
    /// All blocks of the loop (header and latch included).
    pub blocks: Vec<BlockId>,
}

/// All natural loops of a function.
pub struct LoopInfo {
    /// Detected loops (innermost-last order is *not* guaranteed).
    pub loops: Vec<NaturalLoop>,
}

impl LoopInfo {
    /// Finds the natural loops of `f`.
    pub fn compute(f: &Function, dt: &DomTree) -> LoopInfo {
        let preds = f.predecessors();
        let mut loops: Vec<NaturalLoop> = Vec::new();
        for (bi, b) in f.blocks.iter().enumerate() {
            let from = BlockId(bi as u32);
            if !dt.is_reachable(from) {
                continue;
            }
            let Some(t) = &b.term else { continue };
            for header in t.successors() {
                if dt.dominates(header, from) {
                    // Back edge from → header. Collect the body: everything
                    // that reaches `from` without going through `header`.
                    let mut blocks = vec![header];
                    let mut seen = vec![false; f.blocks.len()];
                    seen[header.0 as usize] = true;
                    let mut stack = vec![from];
                    while let Some(x) = stack.pop() {
                        if seen[x.0 as usize] {
                            continue;
                        }
                        seen[x.0 as usize] = true;
                        blocks.push(x);
                        for &p in &preds[x.0 as usize] {
                            stack.push(p);
                        }
                    }
                    loops.push(NaturalLoop {
                        header,
                        latch: from,
                        blocks,
                    });
                }
            }
        }
        LoopInfo { loops }
    }

    /// Loops whose latch carries the given metadata predicate.
    pub fn with_metadata<'a>(
        &'a self,
        f: &'a Function,
        pred: impl Fn(&LoopMetadata) -> bool + 'a,
    ) -> impl Iterator<Item = &'a NaturalLoop> + 'a {
        self.loops.iter().filter(move |l| {
            f.block(l.latch)
                .term
                .as_ref()
                .and_then(|t| t.loop_md())
                .is_some_and(&pred)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omplt_ir::{CmpPred, IrBuilder, IrType, Value};

    /// `for (i = 0; i < arg0; ++i) {}` followed by `ret`, as the builder
    /// every lowering uses emits it.
    fn canonical(f: &mut Function) -> omplt_ompirb::CanonicalLoopInfo {
        let mut b = IrBuilder::new(f);
        let cli = omplt_ompirb::create_canonical_loop(&mut b, Value::Arg(0), "i", |_, _| {});
        b.ret(None);
        cli
    }

    #[test]
    fn detects_canonical_loop() {
        let mut f = Function::new("k", vec![IrType::I64], IrType::Void);
        let cli = canonical(&mut f);
        let dt = DomTree::compute(&f);
        let li = LoopInfo::compute(&f, &dt);
        assert_eq!(li.loops.len(), 1);
        let l = &li.loops[0];
        assert_eq!(l.header, cli.header);
        assert_eq!(l.latch, cli.latch);
        assert!(
            l.blocks.len() >= 4,
            "header, cond, body, latch: {:?}",
            l.blocks
        );
    }

    #[test]
    fn skeleton_recovery() {
        let mut f = Function::new("k", vec![IrType::I64], IrType::Void);
        let cli = canonical(&mut f);
        let dt = DomTree::compute(&f);
        let li = LoopInfo::compute(&f, &dt);
        let l = &li.loops[0];
        let sk = f.induction(l.header, l.latch);
        let sk = sk.expect("canonical loop must be recognized");
        assert_eq!(sk.iv_phi, cli.iv_phi);
        assert_eq!(sk.bound, Value::Arg(0));
        assert_eq!(f.region_until(sk.body, sk.latch), [cli.body]);
    }

    #[test]
    fn irreducible_shapes_are_rejected_gracefully() {
        // while-style loop without the cond/latch split: no skeleton match,
        // but LoopInfo still finds the natural loop.
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
        let dt = DomTree::compute(&f);
        let li = LoopInfo::compute(&f, &dt);
        assert_eq!(li.loops.len(), 1);
        let l = &li.loops[0];
        assert!(f.induction(l.header, l.latch).is_none());
    }

    #[test]
    fn nested_loops_found_separately() {
        let mut f = Function::new("k", vec![IrType::I64], IrType::Void);
        let mut b = IrBuilder::new(&mut f);
        let mut inner = None;
        let outer = omplt_ompirb::create_canonical_loop(&mut b, Value::Arg(0), "i", |b, _| {
            let nested = omplt_ompirb::create_canonical_loop(b, Value::Arg(0), "j", |_, _| {});
            inner = Some(nested);
        });
        b.ret(None);
        let dt = DomTree::compute(&f);
        let li = LoopInfo::compute(&f, &dt);
        let mut headers: Vec<BlockId> = li.loops.iter().map(|l| l.header).collect();
        headers.sort_by_key(|h| h.0);
        assert_eq!(headers, [outer.header, inner.unwrap().header]);
        let of = |h| li.loops.iter().find(|l| l.header == h).unwrap();
        assert!(of(outer.header).blocks.contains(&inner.unwrap().latch));
        assert!(!of(inner.unwrap().header).blocks.contains(&outer.latch));
    }
}
