//! The widening pass: converts innermost `#pragma omp simd` loop bodies to
//! lane-parallel vector bytecode at a configurable width.
//!
//! Layering mirrors a classic inner-loop vectorizer split into *planning*
//! (pure analysis over the SSA form, before any bytecode exists) and
//! *emission* (interleaved with [`crate::compile`]'s normal block walk):
//!
//! * [`plan_loops`] takes the counted loop [`Function::induction`]
//!   recognises behind each latch carrying `llvm.loop.vectorize.enable`
//!   metadata — its IV `{start, +, 1}`, exit test and bound — and keeps the
//!   widener's own conditions: a straight-line body and an `i32`/`i64` IV.
//!   It classifies the other header phis as integer `+`/`*` reductions
//!   (latch value `phi ⊕ e`, the phi's one use) and last values (a latch
//!   value that does not read the phi, whose exit value is lane `w-1`). It picks each memory access's form (unit-stride
//!   from the linear form `coeff·iv + sym + k` of its index, gather/scatter
//!   otherwise). Whether lanes may run together at all is not decided here:
//!   the front end's legality gate proved it, and the metadata carries its
//!   answer — the width is min(`--vector-width`, `simdlen`, `safelen`). A
//!   loop whose shape the emitter cannot handle is *refused* — it stays
//!   scalar and `vm.simd.refused` ticks.
//! * [`emit_vector_loop`] emits, at the loop-header offset: a preamble
//!   (accumulator init, trip-count guard) reading the phi registers the
//!   preheader's edge copies set, the vector main loop, and an exit block
//!   (horizontal reduces, last-lane extracts, `VEpi` epilogue accounting)
//!   that writes them back and falls through to the untouched scalar loop,
//!   which runs the remaining `trip mod width` iterations.
//!
//! Floating-point reductions are refused on purpose: lane-partial sums
//! reassociate the reduction, and the VM is held byte-identical to the
//! scalar interpreter oracle by the backend-differential harness. Integer
//! (wrapping) add/mul are associative, so those widen.

use crate::compile::{cast_op, const_of, CompileError, FuncCompiler};
use crate::ops::{Op, PoolConst, Reg, RegClass, VReg, MAX_LANES};
use omplt_ir::{
    arith, BinOpKind, BlockId, BlockLists, CastOp, CmpPred, Function, Inst, InstId, IrType,
    Terminator, Value,
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

/// A loop the planner approved for widening.
pub(crate) struct LoopPlan {
    /// Loop header (the block whose bytecode offset gains the preamble).
    pub header: BlockId,
    /// Latch block (its `Br` backedge is redirected past the preamble).
    pub latch: BlockId,
    /// Body blocks, exit-test successor through latch, in chain order.
    chain: Vec<BlockId>,
    /// Every instruction of the header, the exit-test block and the body.
    loop_insts: HashSet<InstId>,
    /// The induction variable's header phi.
    iv: InstId,
    /// Induction variable type (`I32`/`I64`).
    iv_ty: IrType,
    /// Exit-test predicate (`Slt`/`Ult`/`Sle`/`Ule`).
    pred: CmpPred,
    /// Loop bound value (defined outside the loop).
    bound: Value,
    /// Chosen width after all clamps (2..=[`MAX_LANES`]).
    width: u8,
    /// The `Gep`s whose accesses widen to `VLoad`/`VStore` (the others
    /// gather and scatter).
    unit_stride: HashSet<InstId>,
    /// Integer reductions: the header phi, its operator, and the `e` of its
    /// latch value `phi ⊕ e`. Lanes accumulate into a vector started at the
    /// identity and combined by `VReduce` on exit.
    reductions: Vec<(InstId, BinOpKind, Value)>,
    /// Last values: the header phi and its latch value, which lanes compute
    /// independently; the exit extracts lane `w-1`.
    last_values: Vec<(InstId, Value)>,
}

/// Finds every widenable loop of `f`. Keys are header block ids. `width`
/// is the CLI request; `simdlen`/`safelen` metadata clamp it per loop.
pub(crate) fn plan_loops(f: &Function, width: u8, stats: &mut PlanStats) -> HashMap<u32, LoopPlan> {
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
        match try_plan(f, &preds, *header, latch, requested) {
            Some(plan) if !plans.contains_key(&plan.header.0) => {
                stats.widened += 1;
                plans.insert(plan.header.0, plan);
            }
            _ => stats.refused += 1,
        }
    }
    plans
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
    /// All instructions inside the loop (header, exit test, body).
    loop_insts: &'a HashSet<InstId>,
    /// The induction variable's header phi.
    iv: InstId,
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
            Value::Inst(id) if id == self.iv => Some(Lin {
                coeff: 1,
                sym: false,
                k: 0,
            }),
            Value::Arg(_) => Some(SYM),
            Value::Inst(id) if !self.in_loop(id) => Some(SYM),
            Value::Inst(id) => match self.f.inst(id) {
                // Width changes preserve the linear form for in-range
                // indices; an index that actually wraps would fault both
                // backends identically long before a chunk spans the wrap.
                Inst::Cast {
                    op: CastOp::SExt | CastOp::ZExt | CastOp::Trunc,
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

    /// Can `v` be re-emitted as a scalar (lane-0) value with the induction
    /// variable mapped to the chunk base?
    fn scalar_cloneable(&self, v: Value, depth: u8) -> bool {
        if depth == 0 {
            return false;
        }
        match v {
            Value::Inst(id) if id == self.iv => true,
            Value::Inst(id) if self.in_loop(id) => match self.f.inst(id) {
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
    fn wideable(&self, v: Value, depth: u8) -> bool {
        if depth == 0 {
            return false;
        }
        match v {
            Value::Inst(id) if id == self.iv => true,
            Value::Inst(id) if self.in_loop(id) => match self.f.inst(id) {
                Inst::Load { ty, ptr } => self.mem_access_emittable(*ty, *ptr, depth),
                Inst::Bin { lhs, rhs, .. } => {
                    self.wideable(*lhs, depth - 1) && self.wideable(*rhs, depth - 1)
                }
                Inst::Cast { val, .. } => self.wideable(*val, depth - 1),
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
    fn mem_access_emittable(&self, ty: IrType, ptr: Value, depth: u8) -> bool {
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
            self.scalar_cloneable(*base, depth - 1) && self.wideable(*index, depth - 1)
        }
    }

    /// Whether `gid` is a `Gep` that steps one `ty` element per iteration.
    fn unit_stride(&self, ty: IrType, gid: InstId) -> bool {
        matches!(self.f.inst(gid), Inst::Gep { index, elem_size, .. }
            if matches!(self.lin(*index, 16), Some(l)
                if l.coeff != 0 && l.coeff as i128 * *elem_size as i128 == ty.size() as i128))
    }

    /// Whether a `Gep` base holds the same pointer in every lane: it is
    /// defined before the loop.
    fn lane_invariant(&self, v: Value) -> bool {
        match v {
            Value::Global(_) | Value::Arg(_) => true,
            Value::Inst(id) => !self.in_loop(id),
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
    header: BlockId,
    latch: BlockId,
    requested: u8,
) -> Option<LoopPlan> {
    if requested < 2 {
        return None;
    }
    // --- shape: a counted loop entered from the preheader and the latch,
    // its exit test in the header or in a block only the header enters -----
    let ind = f.induction(header, latch).ok()?;
    let test = ind.cond;
    if preds[header.0 as usize].len() != 2 || (test != header && preds[test.0 as usize].len() != 1)
    {
        return None;
    }
    let iv = ind.iv_phi;
    let iv_ty = f.value_type(Value::Inst(iv));
    if !matches!(iv_ty, IrType::I32 | IrType::I64) {
        return None;
    }
    // --- shape: straight-line body chain from the test to the latch -------
    let mut chain = Vec::new();
    let mut cur = ind.body;
    loop {
        if cur == header || cur == test || chain.contains(&cur) || chain.len() > 128 {
            return None;
        }
        let expected_pred = *chain.last().unwrap_or(&test);
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

    // --- loop contents: the header and the test compute phis and pure
    // values; the body no phi, call, select or alloca ---------------------
    let mut loop_blocks = vec![header];
    if test != header {
        loop_blocks.push(test);
    }
    loop_blocks.extend(chain.iter().copied());
    let mut loop_insts = HashSet::new();
    for &bb in &loop_blocks {
        let in_body = chain.contains(&bb);
        for &iid in &f.block(bb).insts {
            let allowed = match f.inst(iid) {
                Inst::Phi { .. } => bb == header,
                Inst::Load { .. } | Inst::Store { .. } => in_body,
                Inst::Gep { .. } | Inst::Bin { .. } | Inst::Cmp { .. } | Inst::Cast { .. } => true,
                Inst::Alloca { .. } | Inst::Select { .. } | Inst::Call { .. } => false,
            };
            if !allowed {
                return None;
            }
            loop_insts.insert(iid);
        }
    }
    let p = Planner {
        f,
        loop_insts: &loop_insts,
        iv,
    };

    // --- bound must be defined before the loop -----------------------------
    let bound = ind.bound;
    match bound {
        Value::Inst(id) if p.in_loop(id) => return None,
        Value::Inst(_) | Value::Arg(_) => {}
        other => {
            const_of(other)?;
        }
    }

    // --- classify the header phis -------------------------------------------
    let uses = use_counts(f, &loop_blocks);
    let uses_of = |id: InstId| uses.get(&id).copied().unwrap_or(0);
    let mut reductions = Vec::new();
    let mut last_values = Vec::new();
    for &phi in &f.block(header).insts {
        let Inst::Phi { ty, incoming } = f.inst(phi) else {
            break;
        };
        let (_, next) = *incoming.iter().find(|(b, _)| *b == latch)?;
        let is_phi = |v: Value| v == Value::Inst(phi);
        // `phi ⊕ e` computed in the loop.
        let carried = match next {
            Value::Inst(b) if p.in_loop(b) => match f.inst(b) {
                Inst::Bin { op, lhs, rhs } if is_phi(*lhs) => Some((b, *op, *rhs)),
                Inst::Bin { op, lhs, rhs } if is_phi(*rhs) => Some((b, *op, *lhs)),
                _ => None,
            },
            _ => None,
        };
        match carried {
            // The induction variable: `{start, +, 1}`, recognised above.
            _ if phi == iv => {}
            // An integer reduction: the phi has that one use, and nothing
            // else in the loop reads the running value.
            Some((b, op, e)) => {
                let ok = matches!(op, BinOpKind::Add | BinOpKind::Mul)
                    && ty.is_int()
                    && uses_of(phi) == 1
                    && uses_of(b) == 1
                    && p.wideable(e, 16);
                if !ok {
                    return None; // float reductions reassociate: refuse
                }
                reductions.push((phi, op, e));
            }
            // A last value: no iteration reads the one before it.
            None => {
                if uses_of(phi) != 0 || !p.wideable(next, 16) {
                    return None;
                }
                last_values.push((phi, next));
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
        p.mem_access_emittable(ty, ptr, 16)
    };
    for iid in chain.iter().flat_map(|&bb| &f.block(bb).insts) {
        let emittable = match f.inst(*iid) {
            Inst::Load { ty, ptr } => memory(*ty, *ptr),
            Inst::Store { val, ptr } => p.wideable(*val, 16) && memory(f.value_type(*val), *ptr),
            _ => true,
        };
        if !emittable {
            return None;
        }
    }

    Some(LoopPlan {
        header,
        latch,
        chain,
        loop_insts,
        iv,
        iv_ty,
        pred: ind.pred,
        bound,
        width: requested,
        unit_stride,
        reductions,
        last_values,
    })
}

// ---------------------------------------------------------------- emission

struct Widener<'a, 'b> {
    c: &'a mut FuncCompiler<'b>,
    plan: &'a LoopPlan,
    /// Scalar chunk-base induction register (`iv` of lane 0): the IV phi's
    /// own register.
    riv: Reg,
    /// Lane vector `riv + [0, 1, …, w-1]`, refreshed each chunk where a
    /// lane first reads it (none when no lane does).
    ivec: Option<VReg>,
    /// Scalar clones of loop instructions (per-chunk, lane-0 values).
    scalar_map: HashMap<InstId, Reg>,
    /// Vector values of loop instructions (per-chunk).
    vec_map: HashMap<InstId, VReg>,
    /// Broadcasts of scalar registers: of values defined outside the loop,
    /// made once in the preamble; of chunk-base clones, per chunk.
    bcast: HashMap<Reg, VReg>,
    /// Constants materialized for this loop (preamble-dominated).
    consts: HashMap<PoolConst, Reg>,
    /// One accumulator per carried phi, reductions first: the only vector
    /// registers a chunk updates in place, after its lanes are computed.
    acc: Vec<VReg>,
}

impl<'a, 'b> Widener<'a, 'b> {
    fn w(&self) -> u8 {
        self.plan.width
    }

    fn in_loop(&self, id: InstId) -> bool {
        self.plan.loop_insts.contains(&id)
    }

    fn malformed(&self, what: String) -> CompileError {
        CompileError::Malformed {
            func: self.c.f.name.clone(),
            what,
        }
    }

    fn int_const(&mut self, v: i64) -> Result<Reg, CompileError> {
        self.pooled(PoolConst::Val(RegClass::Int, v as u64))
    }

    /// The register holding constant `entry` in the preamble: the one it
    /// was loaded into first, or a fresh load.
    fn pooled(&mut self, entry: PoolConst) -> Result<Reg, CompileError> {
        if let Some(&r) = self.consts.get(&entry) {
            return Ok(r);
        }
        let r = self.c.inline_const(entry)?;
        self.consts.insert(entry, r);
        Ok(r)
    }

    /// Scalar (lane-0 / chunk-base) register for `v`, cloning loop
    /// instructions with the induction variable mapped to `riv`.
    fn scalar_of(&mut self, v: Value) -> Result<Reg, CompileError> {
        match v {
            Value::Inst(id) if id == self.plan.iv => Ok(self.riv),
            Value::Inst(id) if self.in_loop(id) => {
                if let Some(&r) = self.scalar_map.get(&id) {
                    return Ok(r);
                }
                let r = match self.c.f.inst(id).clone() {
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
                        self.c.out.ops.push(cast_op(op, from, to, dst, src));
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
                        return Err(self.malformed(format!("widener cannot scalarize {other:?}")))
                    }
                };
                self.scalar_map.insert(id, r);
                Ok(r)
            }
            other => match const_of(other) {
                Some(entry) => self.pooled(entry),
                None => self.c.reg_of(other),
            },
        }
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
        match v {
            Value::Inst(id) if id == self.plan.iv => match self.ivec {
                Some(ivec) => Ok(ivec),
                None => {
                    let (w, base) = (self.w(), self.riv);
                    let dst = self.c.new_vvreg(RegClass::Int, w)?;
                    self.c.out.ops.push(Op::VIota { dst, base, w });
                    self.ivec = Some(dst);
                    Ok(dst)
                }
            },
            Value::Inst(id) if self.in_loop(id) => {
                if let Some(&vr) = self.vec_map.get(&id) {
                    return Ok(vr);
                }
                let vr = match self.c.f.inst(id).clone() {
                    Inst::Load { ty, ptr } => self.widen_mem_load(ty, ptr)?,
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
                        let w = self.w();
                        let keeps = arith::keeps_payload(op, from, to);
                        // A copy reads its source's lanes where they are,
                        // sound for a lane vector each chunk defines once
                        // before this use. An accumulator is updated in
                        // place after it (the planner lets no lane read one
                        // today), so its lanes would be copied out.
                        if keeps && !self.acc.contains(&src) {
                            src
                        } else {
                            let dst = self.c.new_vvreg(RegClass::of(to), w)?;
                            self.c.out.ops.push(if keeps {
                                Op::VMov { dst, src, w }
                            } else {
                                Op::VCast {
                                    op,
                                    from,
                                    to,
                                    dst,
                                    src,
                                    w,
                                }
                            });
                            dst
                        }
                    }
                    other => {
                        return Err(self.malformed(format!("widener cannot vectorize {other:?}")))
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

    /// Adds to `out` the values defined outside the loop whose lanes
    /// [`Self::vec_of`] of `v` broadcasts, each once, in the order it reads
    /// them; `seen` holds the loop instructions already walked.
    fn invariant_lanes(&self, v: Value, seen: &mut HashSet<InstId>, out: &mut Vec<Value>) {
        match v {
            Value::Inst(id) if id == self.plan.iv => {}
            Value::Inst(id) if self.in_loop(id) => {
                if !seen.insert(id) {
                    return;
                }
                match *self.c.f.inst(id) {
                    Inst::Load { ptr, .. } if !self.unit_stride(ptr) => {
                        if let Ok((_, index, _)) = self.gep_of(ptr) {
                            self.invariant_lanes(index, seen, out);
                        }
                    }
                    Inst::Bin { lhs, rhs, .. } => {
                        self.invariant_lanes(lhs, seen, out);
                        self.invariant_lanes(rhs, seen, out);
                    }
                    Inst::Cast { val, .. } => self.invariant_lanes(val, seen, out),
                    _ => {}
                }
            }
            other if !out.contains(&other) => out.push(other),
            _ => {}
        }
    }

    /// The `Gep` a widened access goes through, as `(base, index, element
    /// size)`.
    fn gep_of(&self, ptr: Value) -> Result<(Value, Value, u32), CompileError> {
        let gep = match ptr {
            Value::Inst(gid) => self.c.f.inst(gid),
            _ => return Err(self.malformed("widened access without gep address".into())),
        };
        let Inst::Gep {
            ptr: base,
            index,
            elem_size,
        } = *gep
        else {
            return Err(self.malformed("widened access without gep address".into()));
        };
        let es32 = u32::try_from(elem_size).map_err(|_| self.c.err_large("gep element size"))?;
        Ok((base, index, es32))
    }

    /// A widened memory load: unit-stride `VLoad` or per-lane `VGather`.
    fn widen_mem_load(&mut self, ty: IrType, ptr: Value) -> Result<VReg, CompileError> {
        let (base, index, elem_size) = self.gep_of(ptr)?;
        let w = self.w();
        if self.unit_stride(ptr) {
            let addr = self.scalar_of(ptr)?;
            let dst = self.c.new_vvreg(RegClass::of(ty), w)?;
            self.c.out.ops.push(Op::VLoad { dst, addr, ty, w });
            Ok(dst)
        } else {
            let base = self.scalar_of(base)?;
            let idx = self.vec_of(index)?;
            let dst = self.c.new_vvreg(RegClass::of(ty), w)?;
            self.c.out.ops.push(Op::VGather {
                elem_size,
                dst,
                base,
                idx,
                ty,
                w,
            });
            Ok(dst)
        }
    }

    /// A widened memory store: unit-stride `VStore` or per-lane `VScatter`.
    fn widen_store(&mut self, val: Value, ptr: Value) -> Result<(), CompileError> {
        let ty = self.c.f.value_type(val);
        let src = self.vec_of(val)?;
        let w = self.w();
        if self.unit_stride(ptr) {
            let addr = self.scalar_of(ptr)?;
            self.c.out.ops.push(Op::VStore { src, addr, ty, w });
        } else {
            let (base, index, elem_size) = self.gep_of(ptr)?;
            let base = self.scalar_of(base)?;
            let idx = self.vec_of(index)?;
            self.c.out.ops.push(Op::VScatter {
                elem_size,
                src,
                base,
                idx,
                ty,
                w,
            });
        }
        Ok(())
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
    // The phi registers hold the loop's entry values: the preheader's edge
    // copies set them before jumping here.
    let riv = c.dst_of(plan.iv);
    let mut wd = Widener {
        c,
        plan,
        riv,
        ivec: None,
        scalar_map: HashMap::new(),
        vec_map: HashMap::new(),
        bcast: HashMap::new(),
        consts: HashMap::new(),
        acc: Vec::with_capacity(plan.reductions.len() + plan.last_values.len()),
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
    let n_main = wd.c.new_vreg(RegClass::Int)?;
    wd.c.out.ops.push(Op::Bin {
        op: BinOpKind::Sub,
        ty: plan.iv_ty,
        dst: n_main,
        lhs: bound_reg,
        rhs: wm1_const,
    });
    // One accumulator per carried phi: a reduction starts at its identity,
    // a last value at the phi's entry value (what the exit keeps when no
    // chunk runs).
    for &(_, op, _) in &plan.reductions {
        let identity = match op {
            BinOpKind::Mul => 1,
            _ => 0,
        };
        let src = wd.int_const(identity)?;
        let dst = wd.c.new_vvreg(RegClass::Int, w)?;
        wd.c.out.ops.push(Op::VBroadcast { dst, src, w });
        wd.acc.push(dst);
    }
    for &(phi, _) in &plan.last_values {
        let src = wd.c.dst_of(phi);
        let class = wd.c.out.reg_class[src as usize];
        let dst = wd.c.new_vvreg(class, w)?;
        wd.c.out.ops.push(Op::VBroadcast { dst, src, w });
        wd.acc.push(dst);
    }
    // Broadcasts of what the loop does not change, once: the values its
    // lanes read as the body below demands them.
    let mut invariant = Vec::new();
    let mut seen = HashSet::new();
    for iid in plan.chain.iter().flat_map(|&bb| &f.block(bb).insts) {
        match *f.inst(*iid) {
            Inst::Load { .. } => wd.invariant_lanes(Value::Inst(*iid), &mut seen, &mut invariant),
            Inst::Store { val, ptr } => {
                wd.invariant_lanes(val, &mut seen, &mut invariant);
                if !wd.unit_stride(ptr) {
                    let (_, index, _) = wd.gep_of(ptr)?;
                    wd.invariant_lanes(index, &mut seen, &mut invariant);
                }
            }
            _ => {}
        }
    }
    let carried = plan.reductions.iter().map(|r| r.2);
    for v in carried.chain(plan.last_values.iter().map(|l| l.1)) {
        wd.invariant_lanes(v, &mut seen, &mut invariant);
    }
    for v in invariant {
        let ty = f.value_type(v);
        let r = wd.scalar_of(v)?;
        wd.broadcast(r, RegClass::of(ty))?;
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
    // Memory accesses widen *eagerly* at their textual position:
    // demand-driven emission could float a load past an aliasing
    // same-iteration store (the front end's legality gate treats
    // same-iteration pairs as ordered by position). Arithmetic stays
    // demand-driven.
    for iid in plan.chain.iter().flat_map(|&bb| &f.block(bb).insts) {
        match *f.inst(*iid) {
            Inst::Load { .. } => {
                wd.vec_of(Value::Inst(*iid))?;
            }
            Inst::Store { val, ptr } => wd.widen_store(val, ptr)?,
            _ => {}
        }
    }
    // Then the carried values: lanes fold their `e` into a reduction's
    // accumulator, and a last value's accumulator takes the chunk's lanes.
    for (k, &(phi, op, e)) in plan.reductions.iter().enumerate() {
        let rhs = wd.vec_of(e)?;
        let ty = f.value_type(Value::Inst(phi));
        let dst = wd.acc[k];
        wd.c.out.ops.push(Op::VBin {
            op,
            ty,
            dst,
            lhs: dst,
            rhs,
            w,
        });
    }
    for (k, &(_, next)) in plan.last_values.iter().enumerate() {
        let src = wd.vec_of(next)?;
        let dst = wd.acc[plan.reductions.len() + k];
        wd.c.out.ops.push(Op::VMov { dst, src, w });
    }
    wd.c.out.ops.push(Op::Bin {
        op: BinOpKind::Add,
        ty: plan.iv_ty,
        dst: riv,
        lhs: riv,
        rhs: w_const,
    });
    wd.c.out.ops.push(Op::Jmp { target: vcond_off });

    // --- vexit: the phi registers take the vector loop's values ----------
    let vexit_off = wd.c.out.ops.len() as u32;
    wd.c.mark_block_start();
    for (k, &(phi, op, _)) in plan.reductions.iter().enumerate() {
        let phi_reg = wd.c.dst_of(phi);
        let ty = f.value_type(Value::Inst(phi));
        let red = wd.c.new_vreg(RegClass::Int)?;
        wd.c.out.ops.push(Op::VReduce {
            op,
            ty,
            dst: red,
            src: wd.acc[k],
            w,
        });
        wd.c.out.ops.push(Op::Bin {
            op,
            ty,
            dst: phi_reg,
            lhs: phi_reg,
            rhs: red,
        });
    }
    for (k, &(phi, _)) in plan.last_values.iter().enumerate() {
        wd.c.out.ops.push(Op::VExtract {
            dst: wd.c.dst_of(phi),
            src: wd.acc[plan.reductions.len() + k],
            lane: w - 1,
        });
    }
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
