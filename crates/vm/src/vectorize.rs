//! The widening pass: converts innermost `#pragma omp simd` loop bodies to
//! lane-parallel vector bytecode at a configurable width.
//!
//! Layering mirrors a classic inner-loop vectorizer split into *planning*
//! (pure analysis over the IR, before any bytecode exists) and *emission*
//! (interleaved with [`crate::compile`]'s normal block walk):
//!
//! * [`plan_loops`] pattern-matches canonical counted loops whose latch
//!   carries `llvm.loop.vectorize.enable` metadata, classifies every
//!   promoted stack slot the body touches (induction variable, integer
//!   reduction, written-before-read temporary, loop-invariant), and picks
//!   each memory access's form (unit-stride from the linear form
//!   `coeff·iv + sym + k` of its index, gather/scatter otherwise). Whether
//!   lanes may run together at all is not decided here: the front end's
//!   legality gate proved it, and the metadata carries its answer — the
//!   width is min(`--vector-width`, `simdlen`, `safelen`). A loop whose
//!   shape the emitter cannot handle is *refused* — it stays scalar and
//!   `vm.simd.refused` ticks.
//! * [`emit_vector_loop`] emits, at the loop-header offset: a preamble
//!   (accumulator init, trip-count guard), the vector main loop, and an
//!   exit block (horizontal reduces, last-lane extracts, `VEpi` epilogue
//!   accounting) that falls through to the untouched scalar loop, which
//!   runs the remaining `trip mod width` iterations.
//!
//! Floating-point reductions are refused on purpose: lane-partial sums
//! reassociate the reduction, and the VM is held byte-identical to the
//! scalar interpreter oracle by the backend-differential harness. Integer
//! (wrapping) add/mul are associative, so those widen.

use crate::compile::{const_of, CompileError, ConstKey, FuncCompiler, Promoted};
use crate::ops::{Op, PoolConst, Reg, RegClass, VReg, MAX_LANES};
use omplt_interp::RtVal;
use omplt_ir::{
    BinOpKind, BlockId, BlockLists, CmpPred, Function, Inst, InstId, IrType, Terminator, Value,
};
use std::collections::{HashMap, HashSet};

/// Per-module widening statistics, reported as `vm.simd.*` counters.
#[derive(Default)]
pub(crate) struct PlanStats {
    /// Loops converted to vector form.
    pub widened: u64,
    /// `simd`-annotated loops left scalar: a width below two, or a shape
    /// the emitter cannot handle.
    pub refused: u64,
}

/// What a promoted stack slot does inside the loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SlotRole {
    /// The loop counter: reads map to the scalar chunk base (addresses) or
    /// a `VIota` lane vector (data); the increment store is elided.
    Iv,
    /// Integer `s = s ⊕ expr` accumulator: lanes accumulate into a vector
    /// register initialized to the identity, combined by `VReduce` on exit.
    Reduction(BinOpKind),
    /// Written before read each iteration: lanes are independent; the exit
    /// extracts lane `w-1` so the slot holds the last iteration's value.
    WriteFirst,
    /// Never stored inside the loop: reads broadcast the scalar register.
    Invariant,
}

/// A loop the planner approved for widening.
pub(crate) struct LoopPlan {
    /// Loop header (the block whose bytecode offset gains the preamble).
    pub header: BlockId,
    /// Latch block (its `Br` backedge is redirected past the preamble).
    pub latch: BlockId,
    /// Body blocks, header-successor through latch, in chain order.
    chain: Vec<BlockId>,
    /// The induction variable's promoted `alloca`.
    iv_slot: InstId,
    /// Induction variable type (`I32`/`I64`).
    iv_ty: IrType,
    /// Header comparison predicate (`Slt`/`Ult`/`Sle`/`Ule`).
    pred: CmpPred,
    /// Loop bound value (loop-invariant by construction).
    bound: Value,
    /// Chosen width after all clamps (2..=[`MAX_LANES`]).
    width: u8,
    /// The `Gep`s whose accesses widen to `VLoad`/`VStore` (the others
    /// gather and scatter).
    unit_stride: HashSet<InstId>,
    /// Slot classification; sorted vectors keep emission deterministic.
    reductions: Vec<(InstId, BinOpKind)>,
    write_first: Vec<InstId>,
    roles: HashMap<InstId, SlotRole>,
    /// Single-store write-first slots: slot -> stored value (see
    /// [`Planner::wf_value`]).
    wf_value: HashMap<InstId, Value>,
}

/// Finds every widenable loop of `f`. Keys are header block ids. `width`
/// is the CLI request; `simdlen`/`safelen` metadata clamp it per loop.
pub(crate) fn plan_loops(
    f: &Function,
    promoted: &Promoted,
    width: u8,
    stats: &mut PlanStats,
) -> HashMap<u32, LoopPlan> {
    let preds = f.predecessors();
    let mut plans: HashMap<u32, LoopPlan> = HashMap::new();
    for (b, block) in f.blocks.iter().enumerate() {
        let Some(Terminator::Br {
            target: header,
            loop_md: Some(md),
        }) = &block.term
        else {
            continue;
        };
        if !md.vectorize_enable {
            continue;
        }
        let latch = BlockId(b as u32);
        // `simdlen` and `safelen` cap the request; 0 leaves a cap unset.
        let cap = |c: u8| if c == 0 { u8::MAX } else { c };
        let requested = width.min(cap(md.simdlen)).min(cap(md.safelen));
        let requested = requested.min(MAX_LANES as u8);
        match try_plan(f, &preds, promoted, *header, latch, requested) {
            Some(plan) if !plans.contains_key(&plan.header.0) => {
                stats.widened += 1;
                plans.insert(plan.header.0, plan);
            }
            _ => stats.refused += 1,
        }
    }
    plans
}

/// The slot a load/store address resolves to, if it is a promoted alloca.
fn slot_of(promoted: &Promoted, f: &Function, ptr: Value) -> Option<InstId> {
    if let Value::Inst(id) = ptr {
        if promoted.contains(&id) && matches!(f.inst(id), Inst::Alloca { .. }) {
            return Some(id);
        }
    }
    None
}

/// `index = coeff·iv + sym + k`, where `sym` is at most one loop-invariant
/// value of unknown magnitude.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Lin {
    coeff: i64,
    sym: bool,
    k: i64,
}

/// The linear form of a loop-invariant value.
const SYM: Lin = Lin {
    coeff: 0,
    sym: true,
    k: 0,
};

struct Planner<'a> {
    f: &'a Function,
    promoted: &'a Promoted,
    /// All instructions inside the loop (header + chain).
    loop_insts: HashSet<InstId>,
    /// Slots with at least one store inside the loop.
    stored_slots: HashSet<InstId>,
    iv_slot: InstId,
    /// Write-first slots with exactly one store: slot -> stored value.
    /// Loads of such a slot all follow the store, so analyses may look
    /// through them to the stored value (the codegen'd user counter
    /// `i = trunc(iv)` pattern resolves to an affine form this way).
    wf_value: HashMap<InstId, Value>,
}

impl<'a> Planner<'a> {
    fn in_loop(&self, id: InstId) -> bool {
        self.loop_insts.contains(&id)
    }

    /// Linear form of an integer index value, or `None` when non-affine.
    fn lin(&self, v: Value, depth: u8) -> Option<Lin> {
        if depth == 0 {
            return None;
        }
        match v {
            Value::ConstInt { val, .. } => Some(Lin {
                coeff: 0,
                sym: false,
                k: val,
            }),
            Value::Arg(_) => Some(SYM),
            Value::Inst(id) if !self.in_loop(id) => Some(SYM),
            Value::Inst(id) => match self.f.inst(id) {
                Inst::Load { ptr, .. } => {
                    let slot = slot_of(self.promoted, self.f, *ptr)?;
                    if slot == self.iv_slot {
                        Some(Lin {
                            coeff: 1,
                            sym: false,
                            k: 0,
                        })
                    } else if !self.stored_slots.contains(&slot) {
                        Some(SYM)
                    } else if let Some(&wv) = self.wf_value.get(&slot) {
                        self.lin(wv, depth - 1)
                    } else {
                        None // lane-varying: not a linear form
                    }
                }
                // Width changes preserve the linear form for in-range
                // indices; an index that actually wraps would fault both
                // backends identically long before a chunk spans the wrap.
                Inst::Cast {
                    op: omplt_ir::CastOp::SExt | omplt_ir::CastOp::ZExt | omplt_ir::CastOp::Trunc,
                    val,
                    ..
                } => self.lin(*val, depth - 1),
                Inst::Bin { op, lhs, rhs } => {
                    let combine = |a: Lin, b: Lin, neg: bool| -> Option<Lin> {
                        let s: i64 = if neg { -1 } else { 1 };
                        let sym = match (a.sym, b.sym) {
                            (x, false) => x,
                            (false, true) if !neg => true,
                            _ => return None, // can't subtract or sum two syms
                        };
                        Some(Lin {
                            coeff: a.coeff.checked_add(s.checked_mul(b.coeff)?)?,
                            sym,
                            k: a.k.checked_add(s.checked_mul(b.k)?)?,
                        })
                    };
                    match op {
                        BinOpKind::Add => combine(
                            self.lin(*lhs, depth - 1)?,
                            self.lin(*rhs, depth - 1)?,
                            false,
                        ),
                        BinOpKind::Sub => {
                            combine(self.lin(*lhs, depth - 1)?, self.lin(*rhs, depth - 1)?, true)
                        }
                        BinOpKind::Mul => {
                            let (a, b) = (self.lin(*lhs, depth - 1)?, self.lin(*rhs, depth - 1)?);
                            // One side must be a pure constant, the other
                            // sym-free (a scaled sym has no known value).
                            let scale = |l: Lin, c: i64| -> Option<Lin> {
                                if l.sym {
                                    return None;
                                }
                                Some(Lin {
                                    coeff: l.coeff.checked_mul(c)?,
                                    sym: false,
                                    k: l.k.checked_mul(c)?,
                                })
                            };
                            if a.coeff == 0 && !a.sym {
                                scale(b, a.k)
                            } else if b.coeff == 0 && !b.sym {
                                scale(a, b.k)
                            } else {
                                None
                            }
                        }
                        _ => None,
                    }
                }
                _ => None,
            },
            _ => None,
        }
    }

    /// Can `v` be re-emitted as a scalar (lane-0) value with `load iv`
    /// mapped to the chunk-base register?
    fn scalar_cloneable(&self, v: Value, depth: u8) -> bool {
        if depth == 0 {
            return false;
        }
        match v {
            Value::Inst(id) if self.in_loop(id) => match self.f.inst(id) {
                Inst::Load { ptr, .. } => match slot_of(self.promoted, self.f, *ptr) {
                    Some(s) => {
                        s == self.iv_slot
                            || !self.stored_slots.contains(&s)
                            || self
                                .wf_value
                                .get(&s)
                                .is_some_and(|&wv| self.scalar_cloneable(wv, depth - 1))
                    }
                    None => false,
                },
                Inst::Bin { lhs, rhs, .. } => {
                    self.scalar_cloneable(*lhs, depth - 1) && self.scalar_cloneable(*rhs, depth - 1)
                }
                Inst::Cast { val, .. } => self.scalar_cloneable(*val, depth - 1),
                Inst::Gep { ptr, index, .. } => {
                    self.scalar_cloneable(*ptr, depth - 1)
                        && self.scalar_cloneable(*index, depth - 1)
                }
                _ => false,
            },
            Value::Inst(_) | Value::Arg(_) => true,
            other => const_of(other).is_some(),
        }
    }

    /// Can `v` be computed as a per-lane vector?
    fn wideable(&self, v: Value, roles: &HashMap<InstId, SlotRole>, depth: u8) -> bool {
        if depth == 0 {
            return false;
        }
        match v {
            Value::Inst(id) if self.in_loop(id) => match self.f.inst(id) {
                Inst::Load { ty, ptr } => match slot_of(self.promoted, self.f, *ptr) {
                    Some(s) => roles.contains_key(&s) || s == self.iv_slot,
                    None => self.mem_access_emittable(*ty, *ptr, roles, depth),
                },
                Inst::Bin { lhs, rhs, .. } => {
                    self.wideable(*lhs, roles, depth - 1) && self.wideable(*rhs, roles, depth - 1)
                }
                Inst::Cast { val, .. } => self.wideable(*val, roles, depth - 1),
                _ => false,
            },
            Value::Inst(_) | Value::Arg(_) => true, // loop-invariant: broadcast
            other => const_of(other).is_some(),
        }
    }

    /// A memory access widens through an in-loop `Gep` whose base is the
    /// same pointer in every lane: as a unit-stride `VLoad`/`VStore`
    /// (scalar-cloneable address) or a `VGather`/`VScatter` (cloneable base,
    /// wideable index vector).
    fn mem_access_emittable(
        &self,
        ty: IrType,
        ptr: Value,
        roles: &HashMap<InstId, SlotRole>,
        depth: u8,
    ) -> bool {
        let Value::Inst(gid) = ptr else { return false };
        if !self.in_loop(gid) {
            return false; // loop-invariant address: uniform access, refused
        }
        let Inst::Gep {
            ptr: base,
            index,
            elem_size,
        } = self.f.inst(gid)
        else {
            return false;
        };
        if u32::try_from(*elem_size).is_err() || !self.lane_invariant(*base) {
            return false;
        }
        if self.unit_stride(ty, gid) {
            // Unit stride: lane-0 address is the scalar Gep clone.
            self.scalar_cloneable(ptr, depth - 1)
        } else {
            // Gather: affine-non-unit or opaque per-lane indices.
            self.scalar_cloneable(*base, depth - 1) && self.wideable(*index, roles, depth - 1)
        }
    }

    /// Whether `gid` is a `Gep` that steps one `ty` element per iteration.
    fn unit_stride(&self, ty: IrType, gid: InstId) -> bool {
        matches!(self.f.inst(gid), Inst::Gep { index, elem_size, .. }
            if matches!(self.lin(*index, 16), Some(l)
                if l.coeff != 0 && l.coeff as i128 * *elem_size as i128 == ty.size() as i128))
    }

    /// Whether a `Gep` base holds the same pointer in every lane: defined
    /// before the loop, or loaded from a slot the loop never stores.
    fn lane_invariant(&self, v: Value) -> bool {
        match v {
            Value::Global(_) | Value::Arg(_) => true,
            Value::Inst(id) if !self.in_loop(id) => true,
            Value::Inst(id) => matches!(self.f.inst(id), Inst::Load { ptr, .. }
                if slot_of(self.promoted, self.f, *ptr)
                    .is_some_and(|s| s != self.iv_slot && !self.stored_slots.contains(&s))),
            _ => false,
        }
    }
}

/// Number of times each instruction's value is used inside the loop.
fn use_counts(f: &Function, blocks: &[BlockId]) -> HashMap<InstId, u32> {
    let mut uses: HashMap<InstId, u32> = HashMap::new();
    let mut tally = |v: Value| {
        if let Value::Inst(id) = v {
            *uses.entry(id).or_insert(0) += 1;
        }
    };
    for &bb in blocks {
        for &iid in &f.block(bb).insts {
            f.inst(iid).for_each_operand(&mut tally);
        }
        if let Some(t) = &f.block(bb).term {
            t.for_each_operand(&mut tally);
        }
    }
    uses
}

/// Attempts to build a plan for the loop `header`/`latch`. `None` = refuse.
fn try_plan(
    f: &Function,
    preds: &BlockLists<BlockId>,
    promoted: &Promoted,
    header: BlockId,
    latch: BlockId,
    requested: u8,
) -> Option<LoopPlan> {
    if requested < 2 {
        return None;
    }
    // --- shape: header is a conditional counted-loop test -----------------
    let Some(Terminator::CondBr {
        cond: Value::Inst(cmp_id),
        then_bb,
        ..
    }) = &f.block(header).term
    else {
        return None;
    };
    let Inst::Cmp { pred, lhs, rhs } = f.inst(*cmp_id) else {
        return None;
    };
    if !matches!(
        pred,
        CmpPred::Slt | CmpPred::Ult | CmpPred::Sle | CmpPred::Ule
    ) {
        return None;
    }
    // lhs must load the induction slot.
    let Value::Inst(iv_load) = lhs else {
        return None;
    };
    let Inst::Load { ptr, ty: iv_ty } = f.inst(*iv_load) else {
        return None;
    };
    let iv_slot = slot_of(promoted, f, *ptr)?;
    if !matches!(iv_ty, IrType::I32 | IrType::I64) {
        return None;
    }
    // Header preds: exactly the preheader and the latch.
    let hp = &preds[header.0 as usize];
    if hp.len() != 2 || !hp.contains(&latch) {
        return None;
    }
    // Header holds only promoted-slot loads plus the comparison.
    for &iid in &f.block(header).insts {
        let ok = iid == *cmp_id
            || matches!(f.inst(iid), Inst::Load { ptr, .. }
                        if slot_of(promoted, f, *ptr).is_some());
        if !ok {
            return None;
        }
    }
    // --- shape: straight-line body chain from header to latch -------------
    let mut chain = Vec::new();
    let mut cur = *then_bb;
    loop {
        if cur == header || chain.contains(&cur) || chain.len() > 128 {
            return None;
        }
        let expected_pred = *chain.last().unwrap_or(&header);
        let cp = &preds[cur.0 as usize];
        if cp.len() != 1 || cp[0] != expected_pred {
            return None;
        }
        chain.push(cur);
        match &f.block(cur).term {
            Some(Terminator::Br { target, .. }) if *target == header => {
                if cur != latch {
                    return None; // a different backedge matched first
                }
                break;
            }
            Some(Terminator::Br { target, .. }) => cur = *target,
            _ => return None,
        }
    }

    // --- gather loop contents ---------------------------------------------
    let mut loop_blocks = vec![header];
    loop_blocks.extend(chain.iter().copied());
    let mut loop_insts = HashSet::new();
    for &bb in &loop_blocks {
        for &iid in &f.block(bb).insts {
            loop_insts.insert(iid);
        }
    }
    // Per-slot access lists in textual order.
    let mut stored_slots: HashSet<InstId> = HashSet::new();
    let mut slot_acc: HashMap<InstId, Vec<(usize, bool, InstId)>> = HashMap::new();
    let body_insts = chain.iter().flat_map(|&bb| &f.block(bb).insts);
    for (pos, &iid) in body_insts.enumerate() {
        match f.inst(iid) {
            Inst::Phi { .. } | Inst::Call { .. } | Inst::Select { .. } | Inst::Alloca { .. } => {
                return None;
            }
            Inst::Load { ptr, .. } => {
                if let Some(s) = slot_of(promoted, f, *ptr) {
                    slot_acc.entry(s).or_default().push((pos, false, iid));
                }
            }
            // Storing a slot's *address* would have disqualified promotion
            // already; a store to a non-slot is a memory store.
            Inst::Store { ptr, .. } => {
                if let Some(s) = slot_of(promoted, f, *ptr) {
                    stored_slots.insert(s);
                    slot_acc.entry(s).or_default().push((pos, true, iid));
                }
            }
            _ => {}
        }
    }
    // Header slot loads (bound etc.) mark their slots as read-only users;
    // they never store, so no entry needed beyond the invariant default.

    let mut p = Planner {
        f,
        promoted,
        loop_insts,
        stored_slots,
        iv_slot,
        wf_value: HashMap::new(),
    };

    // --- bound must be loop-invariant and available pre-loop ---------------
    let bound = *rhs;
    match bound {
        Value::Inst(id) if p.in_loop(id) => {
            // Permitted only as a header load of an un-stored slot.
            let Inst::Load { ptr, .. } = f.inst(id) else {
                return None;
            };
            let s = slot_of(promoted, f, *ptr)?;
            if s == iv_slot || p.stored_slots.contains(&s) {
                return None;
            }
        }
        Value::Inst(_) | Value::Arg(_) => {}
        other => {
            const_of(other)?;
        }
    }

    // --- classify slots ----------------------------------------------------
    let uses = use_counts(f, &loop_blocks);
    let mut roles: HashMap<InstId, SlotRole> = HashMap::new();
    roles.insert(iv_slot, SlotRole::Iv);
    // The induction variable: exactly one store, of `load iv + 1`.
    {
        let acc = slot_acc.get(&iv_slot)?;
        let stores: Vec<_> = acc.iter().filter(|(_, st, _)| *st).collect();
        if stores.len() != 1 {
            return None;
        }
        let Inst::Store { val, .. } = f.inst(stores[0].2) else {
            return None;
        };
        let Value::Inst(bid) = val else { return None };
        let Inst::Bin {
            op: BinOpKind::Add,
            lhs,
            rhs,
        } = f.inst(*bid)
        else {
            return None;
        };
        let is_iv_load = |v: Value| match v {
            Value::Inst(l) => matches!(f.inst(l), Inst::Load { ptr, .. }
                                       if slot_of(promoted, f, *ptr) == Some(iv_slot)),
            _ => false,
        };
        let step_one = |v: Value| matches!(v, Value::ConstInt { val: 1, .. });
        if !((is_iv_load(*lhs) && step_one(*rhs)) || (is_iv_load(*rhs) && step_one(*lhs))) {
            return None;
        }
        // The lane vector holds the *pre-increment* iv; a load placed after
        // the increment store would observe iv+1 and must refuse.
        let store_pos = stores[0].0;
        if acc.iter().any(|(pos, st, _)| !*st && *pos > store_pos) {
            return None;
        }
    }
    for (&slot, acc) in &slot_acc {
        if slot == iv_slot {
            continue;
        }
        let any_store = acc.iter().any(|(_, st, _)| *st);
        if !any_store {
            roles.insert(slot, SlotRole::Invariant);
            continue;
        }
        let first_is_store = acc.first().is_some_and(|(_, st, _)| *st);
        if first_is_store {
            roles.insert(slot, SlotRole::WriteFirst);
            let stores: Vec<_> = acc.iter().filter(|(_, st, _)| *st).collect();
            if stores.len() == 1 {
                if let Inst::Store { val, .. } = f.inst(stores[0].2) {
                    p.wf_value.insert(slot, *val);
                }
            }
            continue;
        }
        // Read-before-write: only the integer reduction idiom is legal.
        let loads: Vec<_> = acc.iter().filter(|(_, st, _)| !*st).collect();
        let stores: Vec<_> = acc.iter().filter(|(_, st, _)| *st).collect();
        if loads.len() != 1 || stores.len() != 1 || loads[0].0 > stores[0].0 {
            return None;
        }
        let (load_id, store_id) = (loads[0].2, stores[0].2);
        let Inst::Store { val, .. } = f.inst(store_id) else {
            return None;
        };
        let Value::Inst(bid) = val else { return None };
        let Inst::Bin { op, lhs, rhs } = f.inst(*bid) else {
            return None;
        };
        if !matches!(op, BinOpKind::Add | BinOpKind::Mul) {
            return None; // float reductions reassociate: refuse
        }
        let uses_load = |v: Value| v == Value::Inst(load_id);
        if !(uses_load(*lhs) ^ uses_load(*rhs)) {
            return None;
        }
        if uses.get(&load_id).copied().unwrap_or(0) != 1 || uses.get(bid).copied().unwrap_or(0) != 1
        {
            return None;
        }
        if !f.value_type(*val).is_int() {
            return None;
        }
        roles.insert(slot, SlotRole::Reduction(*op));
    }
    // Slots loaded only in the header (e.g. the bound) are invariant. A
    // header load of a loop-stored slot other than the iv would observe the
    // *previous* iteration's value, which no role models — refuse.
    for &iid in &f.block(header).insts {
        if let Inst::Load { ptr, .. } = f.inst(iid) {
            if let Some(s) = slot_of(promoted, f, *ptr) {
                if s != iv_slot && p.stored_slots.contains(&s) {
                    return None;
                }
                roles.entry(s).or_insert(SlotRole::Invariant);
            }
        }
    }

    // --- every memory access and every store must be emittable -------------
    // Loads widen eagerly at their textual position (ordering against
    // stores), so all of them must be emittable, not only the demanded ones.
    let mut unit_stride = HashSet::new();
    let mut memory = |ty: IrType, ptr: Value| {
        if let Value::Inst(gid) = ptr {
            if p.unit_stride(ty, gid) {
                unit_stride.insert(gid);
            }
        }
        p.mem_access_emittable(ty, ptr, &roles, 16)
    };
    for iid in chain.iter().flat_map(|&bb| &f.block(bb).insts) {
        let emittable = match f.inst(*iid) {
            Inst::Load { ty, ptr } => slot_of(promoted, f, *ptr).is_some() || memory(*ty, *ptr),
            Inst::Store { val, ptr } => match slot_of(promoted, f, *ptr) {
                None => p.wideable(*val, &roles, 16) && memory(f.value_type(*val), *ptr),
                Some(s) if s == iv_slot => true,
                // The non-accumulator operand must widen.
                Some(s) if matches!(roles.get(&s), Some(SlotRole::Reduction(_))) => {
                    let Value::Inst(bid) = val else { return None };
                    let Inst::Bin { lhs, rhs, .. } = f.inst(*bid) else {
                        return None;
                    };
                    [*lhs, *rhs].into_iter().all(|side| {
                        let is_acc_load = matches!(side, Value::Inst(l)
                            if matches!(f.inst(l), Inst::Load { ptr, .. }
                                        if slot_of(promoted, f, *ptr) == Some(s)));
                        is_acc_load || p.wideable(side, &roles, 16)
                    })
                }
                Some(s) => {
                    matches!(roles.get(&s), Some(SlotRole::WriteFirst))
                        && p.wideable(*val, &roles, 16)
                }
            },
            _ => true,
        };
        if !emittable {
            return None;
        }
    }

    let mut reductions: Vec<(InstId, BinOpKind)> = roles
        .iter()
        .filter_map(|(&s, r)| match r {
            SlotRole::Reduction(op) => Some((s, *op)),
            _ => None,
        })
        .collect();
    reductions.sort_by_key(|(s, _)| *s);
    let mut write_first: Vec<InstId> = roles
        .iter()
        .filter_map(|(&s, r)| matches!(r, SlotRole::WriteFirst).then_some(s))
        .collect();
    write_first.sort();

    Some(LoopPlan {
        header,
        latch,
        chain,
        iv_slot,
        iv_ty: *iv_ty,
        pred: *pred,
        bound,
        width: requested,
        unit_stride,
        reductions,
        write_first,
        roles,
        wf_value: p.wf_value,
    })
}

// ---------------------------------------------------------------- emission

struct Widener<'a, 'b> {
    c: &'a mut FuncCompiler<'b>,
    plan: &'a LoopPlan,
    /// Scalar chunk-base induction register (`iv` of lane 0).
    riv: Reg,
    /// Lane vector `riv + [0, 1, …, w-1]`, refreshed each chunk.
    ivec: VReg,
    /// Accumulator / temporary vector per reduction and write-first slot.
    acc: HashMap<InstId, VReg>,
    /// Scalar clones of loop instructions (per-chunk, lane-0 values).
    scalar_map: HashMap<InstId, Reg>,
    /// Vector values of loop instructions (per-chunk).
    vec_map: HashMap<InstId, VReg>,
    /// Broadcasts of loop-invariant scalar registers (per-chunk).
    bcast: HashMap<Reg, VReg>,
    /// Constants materialized for this loop (preamble-dominated).
    consts: HashMap<ConstKey, Reg>,
    loop_insts: HashSet<InstId>,
}

impl<'a, 'b> Widener<'a, 'b> {
    fn w(&self) -> u8 {
        self.plan.width
    }

    fn int_const(&mut self, v: i64) -> Result<Reg, CompileError> {
        let key = ConstKey::Int(v);
        if let Some(&r) = self.consts.get(&key) {
            return Ok(r);
        }
        let r = self.c.inline_const(key, PoolConst::Val(RtVal::I(v)))?;
        self.consts.insert(key, r);
        Ok(r)
    }

    fn slot_reg(&self, slot: InstId) -> Reg {
        self.c
            .promoted
            .reg(slot)
            .expect("planned slots are promoted")
    }

    /// Scalar (lane-0 / chunk-base) register for `v`, cloning loop
    /// instructions with `load iv` mapped to `riv`.
    fn scalar_of(&mut self, v: Value) -> Result<Reg, CompileError> {
        match v {
            Value::Inst(id) if self.loop_insts.contains(&id) => {
                if let Some(&r) = self.scalar_map.get(&id) {
                    return Ok(r);
                }
                let r = match self.c.f.inst(id).clone() {
                    Inst::Load { ptr, .. } => match self.lookup_slot(ptr) {
                        Some(slot) if slot == self.plan.iv_slot => self.riv,
                        Some(slot) => {
                            if let Some(&wv) = self.plan.wf_value.get(&slot) {
                                // Write-first slot: lane 0 re-derives the
                                // stored value at the chunk base.
                                self.scalar_of(wv)?
                            } else {
                                self.slot_reg(slot)
                            }
                        }
                        None => {
                            return Err(CompileError::Malformed {
                                func: self.c.f.name.clone(),
                                what: "widener cannot scalarize a memory load".into(),
                            })
                        }
                    },
                    Inst::Bin { op, lhs, rhs } => {
                        let ty = self.c.f.value_type(lhs);
                        let l = self.scalar_of(lhs)?;
                        let r2 = self.scalar_of(rhs)?;
                        let dst = self.c.new_vreg(RegClass::of(ty))?;
                        self.c.out.ops.push(Op::Bin {
                            op,
                            ty,
                            dst,
                            lhs: l,
                            rhs: r2,
                        });
                        dst
                    }
                    Inst::Cast { op, val, to } => {
                        let from = self.c.f.value_type(val);
                        let src = self.scalar_of(val)?;
                        let dst = self.c.new_vreg(RegClass::of(to))?;
                        self.c.out.ops.push(Op::Cast {
                            op,
                            from,
                            to,
                            dst,
                            src,
                        });
                        dst
                    }
                    Inst::Gep {
                        ptr,
                        index,
                        elem_size,
                    } => {
                        let elem_size = u32::try_from(elem_size)
                            .map_err(|_| self.c.err_large("gep element size"))?;
                        let base = self.scalar_of(ptr)?;
                        let idx = self.scalar_of(index)?;
                        let dst = self.c.new_vreg(RegClass::Ptr)?;
                        self.c.out.ops.push(Op::Gep {
                            dst,
                            base,
                            index: idx,
                            elem_size,
                        });
                        dst
                    }
                    other => {
                        return Err(CompileError::Malformed {
                            func: self.c.f.name.clone(),
                            what: format!("widener cannot scalarize {other:?}"),
                        })
                    }
                };
                self.scalar_map.insert(id, r);
                Ok(r)
            }
            other => match const_of(other) {
                Some((key, entry)) => {
                    if let Some(&r) = self.consts.get(&key) {
                        return Ok(r);
                    }
                    let r = self.c.inline_const(key, entry)?;
                    self.consts.insert(key, r);
                    Ok(r)
                }
                None => self.c.reg_of(other),
            },
        }
    }

    fn lookup_slot(&self, ptr: Value) -> Option<InstId> {
        slot_of(&self.c.promoted, self.c.f, ptr)
    }

    fn broadcast(&mut self, r: Reg, class: RegClass) -> Result<VReg, CompileError> {
        if let Some(&v) = self.bcast.get(&r) {
            return Ok(v);
        }
        let dst = self.c.new_vvreg(class, self.w())?;
        self.c.out.ops.push(Op::VBroadcast {
            dst,
            src: r,
            w: self.w(),
        });
        self.bcast.insert(r, dst);
        Ok(dst)
    }

    /// Per-lane vector register for `v`.
    fn vec_of(&mut self, v: Value) -> Result<VReg, CompileError> {
        let malformed = |c: &FuncCompiler, what: String| CompileError::Malformed {
            func: c.f.name.clone(),
            what,
        };
        match v {
            Value::Inst(id) if self.loop_insts.contains(&id) => {
                if let Some(&vr) = self.vec_map.get(&id) {
                    return Ok(vr);
                }
                let vr = match self.c.f.inst(id).clone() {
                    Inst::Load { ty, ptr } => match self.lookup_slot(ptr) {
                        Some(slot) if slot == self.plan.iv_slot => self.ivec,
                        Some(slot) => match self.plan.roles.get(&slot) {
                            Some(SlotRole::Reduction(_)) | Some(SlotRole::WriteFirst) => {
                                self.acc[&slot]
                            }
                            _ => {
                                let r = self.slot_reg(slot);
                                self.broadcast(r, RegClass::of(ty))?
                            }
                        },
                        None => self.widen_mem_load(ty, ptr)?,
                    },
                    Inst::Bin { op, lhs, rhs } => {
                        let ty = self.c.f.value_type(lhs);
                        let l = self.vec_of(lhs)?;
                        let r = self.vec_of(rhs)?;
                        let dst = self.c.new_vvreg(RegClass::of(ty), self.w())?;
                        self.c.out.ops.push(Op::VBin {
                            op,
                            ty,
                            dst,
                            lhs: l,
                            rhs: r,
                            w: self.w(),
                        });
                        dst
                    }
                    Inst::Cast { op, val, to } => {
                        let from = self.c.f.value_type(val);
                        let src = self.vec_of(val)?;
                        let dst = self.c.new_vvreg(RegClass::of(to), self.w())?;
                        self.c.out.ops.push(Op::VCast {
                            op,
                            from,
                            to,
                            dst,
                            src,
                            w: self.w(),
                        });
                        dst
                    }
                    other => {
                        return Err(malformed(
                            self.c,
                            format!("widener cannot vectorize {other:?}"),
                        ))
                    }
                };
                self.vec_map.insert(id, vr);
                Ok(vr)
            }
            other => {
                let ty = self.c.f.value_type(other);
                let r = self.scalar_of(other)?;
                self.broadcast(r, RegClass::of(ty))
            }
        }
    }

    /// A widened memory load: unit-stride `VLoad` or per-lane `VGather`.
    fn widen_mem_load(&mut self, ty: IrType, ptr: Value) -> Result<VReg, CompileError> {
        let Value::Inst(gid) = ptr else {
            return Err(CompileError::Malformed {
                func: self.c.f.name.clone(),
                what: "widened load without gep address".into(),
            });
        };
        let Inst::Gep {
            ptr: base,
            index,
            elem_size,
        } = self.c.f.inst(gid).clone()
        else {
            return Err(CompileError::Malformed {
                func: self.c.f.name.clone(),
                what: "widened load without gep address".into(),
            });
        };
        let es32 = u32::try_from(elem_size).map_err(|_| self.c.err_large("gep element size"))?;
        if self.unit_stride(ptr) {
            let addr = self.scalar_of(ptr)?;
            let dst = self.c.new_vvreg(RegClass::of(ty), self.w())?;
            self.c.out.ops.push(Op::VLoad {
                dst,
                addr,
                ty,
                w: self.w(),
            });
            Ok(dst)
        } else {
            let b = self.scalar_of(base)?;
            let idx = self.vec_of(index)?;
            let dst = self.c.new_vvreg(RegClass::of(ty), self.w())?;
            self.c.out.ops.push(Op::VGather {
                elem_size: es32,
                dst,
                base: b,
                idx,
                ty,
                w: self.w(),
            });
            Ok(dst)
        }
    }

    /// Whether the planner chose the unit-stride form for this address.
    fn unit_stride(&self, ptr: Value) -> bool {
        matches!(ptr, Value::Inst(gid) if self.plan.unit_stride.contains(&gid))
    }
}

/// Emits the full vector form of one planned loop at the current emission
/// point (the loop header's block offset). Leaves the op stream positioned
/// so the caller emits the scalar loop directly after, and registers the
/// latch redirect that keeps the scalar backedge out of the preamble.
pub(crate) fn emit_vector_loop(c: &mut FuncCompiler, plan: &LoopPlan) -> Result<(), CompileError> {
    let w = plan.width;
    let f = c.f;
    let mut loop_insts: HashSet<InstId> = HashSet::new();
    for &bb in std::iter::once(&plan.header).chain(plan.chain.iter()) {
        for &iid in &f.block(bb).insts {
            loop_insts.insert(iid);
        }
    }
    let iv_reg = c
        .promoted
        .reg(plan.iv_slot)
        .expect("planned slots are promoted");
    let riv = c.new_vreg(RegClass::Int)?;
    let ivec = c.new_vvreg(RegClass::Int, w)?;
    let mut wd = Widener {
        c,
        plan,
        riv,
        ivec,
        acc: HashMap::new(),
        scalar_map: HashMap::new(),
        vec_map: HashMap::new(),
        bcast: HashMap::new(),
        consts: HashMap::new(),
        loop_insts,
    };

    // --- preamble (same bytecode block as the header offset) ---------------
    let w_const = wd.int_const(w as i64)?;
    let wm1_const = wd.int_const(w as i64 - 1)?;
    let le_pred = matches!(plan.pred, CmpPred::Sle | CmpPred::Ule);
    let one_const = if le_pred {
        Some(wd.int_const(1)?)
    } else {
        None
    };
    let bound_reg = wd.scalar_of(plan.bound)?;
    wd.c.out.ops.push(Op::Mov {
        dst: riv,
        src: iv_reg,
    });
    let n_main = wd.c.new_vreg(RegClass::Int)?;
    wd.c.out.ops.push(Op::Bin {
        op: BinOpKind::Sub,
        ty: plan.iv_ty,
        dst: n_main,
        lhs: bound_reg,
        rhs: wm1_const,
    });
    for &(slot, op) in &plan.reductions {
        let identity = match op {
            BinOpKind::Mul => 1,
            _ => 0,
        };
        let id_reg = wd.int_const(identity)?;
        let acc = wd.c.new_vvreg(RegClass::Int, w)?;
        wd.c.out.ops.push(Op::VBroadcast {
            dst: acc,
            src: id_reg,
            w,
        });
        wd.acc.insert(slot, acc);
    }
    for &slot in &plan.write_first {
        let r = wd.slot_reg(slot);
        let class = wd.c.out.reg_class[r as usize];
        let acc = wd.c.new_vvreg(class, w)?;
        wd.c.out.ops.push(Op::VBroadcast {
            dst: acc,
            src: r,
            w,
        });
        wd.acc.insert(slot, acc);
    }
    // Guard: `bound >= w-1` keeps `bound - (w-1)` from wrapping for
    // unsigned loops (and from overflowing near the signed minimum); a
    // failed guard skips straight to the exit combine, which is the
    // identity when zero vector chunks ran.
    let guard_pred = if matches!(plan.pred, CmpPred::Ult | CmpPred::Ule) {
        CmpPred::Uge
    } else {
        CmpPred::Sge
    };
    let guard_at = wd.c.out.ops.len();
    wd.c.out.ops.push(Op::CmpBr {
        pred: guard_pred,
        ty: plan.iv_ty,
        lhs: bound_reg,
        rhs: wm1_const,
        then_t: (guard_at + 1) as u32,
        else_t: 0, // patched to vexit
    });

    // --- vcond --------------------------------------------------------------
    let vcond_off = wd.c.out.ops.len() as u32;
    wd.c.mark_block_start();
    let cnd = wd.c.new_vreg(RegClass::Int)?;
    wd.c.out.ops.push(Op::Cmp {
        pred: plan.pred,
        ty: plan.iv_ty,
        dst: cnd,
        lhs: riv,
        rhs: n_main,
    });
    let br_at = wd.c.out.ops.len();
    wd.c.out.ops.push(Op::Br {
        cond: cnd,
        then_t: (br_at + 1) as u32,
        else_t: 0, // patched to vexit
    });

    // --- vbody --------------------------------------------------------------
    wd.c.mark_block_start();
    wd.c.out.ops.push(Op::VIota {
        dst: ivec,
        base: riv,
        w,
    });
    // Per-chunk caches start fresh: everything emitted below re-executes
    // each chunk, so chunk-dependent values may not leak across iterations.
    wd.scalar_map.clear();
    wd.vec_map.clear();
    wd.bcast.clear();
    for bb in &plan.chain {
        for &iid in &f.block(*bb).insts {
            // Memory loads widen *eagerly* at their textual position:
            // demand-driven emission could float a load past an aliasing
            // same-iteration store (the front end's legality gate treats
            // same-iteration pairs as ordered by position). Arithmetic stays
            // demand-driven.
            if let Inst::Load { ptr, .. } = f.inst(iid) {
                if wd.lookup_slot(*ptr).is_none() {
                    wd.vec_of(Value::Inst(iid))?;
                }
                continue;
            }
            let Inst::Store { val, ptr } = f.inst(iid) else {
                continue;
            };
            let (val, ptr) = (*val, *ptr);
            if let Some(slot) = wd.lookup_slot(ptr) {
                if slot == plan.iv_slot {
                    continue; // increment handled by riv += w
                }
                match plan.roles.get(&slot) {
                    Some(SlotRole::Reduction(op)) => {
                        let Value::Inst(bid) = val else {
                            unreachable!()
                        };
                        let Inst::Bin { lhs, rhs, .. } = f.inst(bid) else {
                            unreachable!()
                        };
                        let is_acc_load = |v: Value| {
                            matches!(v, Value::Inst(l)
                                if matches!(f.inst(l), Inst::Load { ptr, .. }
                                    if wd.lookup_slot(*ptr) == Some(slot)))
                        };
                        let expr = if is_acc_load(*lhs) { *rhs } else { *lhs };
                        let e = wd.vec_of(expr)?;
                        let acc = wd.acc[&slot];
                        let ty = f.value_type(val);
                        wd.c.out.ops.push(Op::VBin {
                            op: *op,
                            ty,
                            dst: acc,
                            lhs: acc,
                            rhs: e,
                            w,
                        });
                        // The scalar bin/load feeding this store were not
                        // demanded; lanes accumulate independently.
                    }
                    Some(SlotRole::WriteFirst) => {
                        let v = wd.vec_of(val)?;
                        let acc = wd.acc[&slot];
                        // Later reads of this slot in the same chunk load
                        // through `acc`, which now holds the new lanes.
                        wd.c.out.ops.push(Op::VMov {
                            dst: acc,
                            src: v,
                            w,
                        });
                    }
                    _ => unreachable!("planned store to unclassified slot"),
                }
            } else {
                let ty = f.value_type(val);
                let src = wd.vec_of(val)?;
                if wd.unit_stride(ptr) {
                    let addr = wd.scalar_of(ptr)?;
                    wd.c.out.ops.push(Op::VStore { src, addr, ty, w });
                } else {
                    let Value::Inst(gid) = ptr else {
                        unreachable!()
                    };
                    let Inst::Gep {
                        ptr: base,
                        index,
                        elem_size,
                    } = f.inst(gid).clone()
                    else {
                        unreachable!()
                    };
                    let es32 =
                        u32::try_from(elem_size).map_err(|_| wd.c.err_large("gep element size"))?;
                    let b = wd.scalar_of(base)?;
                    let idx = wd.vec_of(index)?;
                    wd.c.out.ops.push(Op::VScatter {
                        elem_size: es32,
                        src,
                        base: b,
                        idx,
                        ty,
                        w,
                    });
                }
            }
        }
    }
    wd.c.out.ops.push(Op::Bin {
        op: BinOpKind::Add,
        ty: plan.iv_ty,
        dst: riv,
        lhs: riv,
        rhs: w_const,
    });
    wd.c.out.ops.push(Op::Jmp { target: vcond_off });

    // --- vexit --------------------------------------------------------------
    let vexit_off = wd.c.out.ops.len() as u32;
    wd.c.mark_block_start();
    for &(slot, op) in &plan.reductions {
        let acc = wd.acc[&slot];
        let slot_reg = wd.slot_reg(slot);
        let red = wd.c.new_vreg(RegClass::Int)?;
        // The slot's int width: reductions were planned on the stored
        // value's type; re-derive it from the slot's alloca.
        let ty = match f.inst(slot) {
            Inst::Alloca { ty, .. } => *ty,
            _ => unreachable!(),
        };
        wd.c.out.ops.push(Op::VReduce {
            op,
            ty,
            dst: red,
            src: acc,
            w,
        });
        wd.c.out.ops.push(Op::Bin {
            op,
            ty,
            dst: slot_reg,
            lhs: slot_reg,
            rhs: red,
        });
    }
    for &slot in &plan.write_first {
        let acc = wd.acc[&slot];
        let slot_reg = wd.slot_reg(slot);
        wd.c.out.ops.push(Op::VExtract {
            dst: slot_reg,
            src: acc,
            lane: w - 1,
        });
    }
    wd.c.out.ops.push(Op::Mov {
        dst: iv_reg,
        src: riv,
    });
    let epi = wd.c.new_vreg(RegClass::Int)?;
    wd.c.out.ops.push(Op::Bin {
        op: BinOpKind::Sub,
        ty: plan.iv_ty,
        dst: epi,
        lhs: bound_reg,
        rhs: riv,
    });
    let epi = if let Some(one) = one_const {
        let epi2 = wd.c.new_vreg(RegClass::Int)?;
        wd.c.out.ops.push(Op::Bin {
            op: BinOpKind::Add,
            ty: plan.iv_ty,
            dst: epi2,
            lhs: epi,
            rhs: one,
        });
        epi2
    } else {
        epi
    };
    wd.c.out.ops.push(Op::VEpi { src: epi });
    let jmp_at = wd.c.out.ops.len();
    wd.c.out.ops.push(Op::Jmp {
        target: (jmp_at + 1) as u32, // falls through to the scalar header
    });
    let scalar_header_off = wd.c.out.ops.len() as u32;

    // Patch the two forward branches into vexit.
    if let Op::CmpBr { else_t, .. } = &mut wd.c.out.ops[guard_at] {
        *else_t = vexit_off;
    }
    if let Op::Br { else_t, .. } = &mut wd.c.out.ops[br_at] {
        *else_t = vexit_off;
    }
    wd.c.latch_redirect.insert(plan.latch.0, scalar_header_off);
    Ok(())
}
