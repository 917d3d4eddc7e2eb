//! The widening pass: converts innermost counted loops to lane-parallel
//! vector bytecode at a configurable width — each `#pragma omp simd` loop on
//! the front end's verdict, and any other loop on the VM's own proof.
//!
//! Layering mirrors a classic inner-loop vectorizer split into *planning*
//! (pure analysis over the SSA form, before any bytecode exists) and
//! *emission* (interleaved with [`crate::compile`]'s normal block walk):
//!
//! * [`plan_loops`] takes the counted loop [`Function::induction`]
//!   recognises behind each latch — its IV `{start, +, 1}`, exit test and
//!   bound — and keeps the widener's own conditions: a straight-line body
//!   and an `i32`/`i64` IV. It classifies the other header phis as integer
//!   reductions (a chain of `+`/`-` links `((phi ⊕ e₁) ± e₂) …`, or one `*`
//!   link, each link read once) and last values (a latch value that does not
//!   read the phi, whose exit value is lane `w-1`). It picks each memory
//!   access's form (unit-stride from the linear form `coeff·iv + sym + k`
//!   of its index, gather/scatter otherwise).
//! * Whether lanes may run together is decided one of two ways. A latch
//!   carrying `llvm.loop.vectorize.enable` was judged by the front end's
//!   legality gate, and the metadata carries its answer: the width is
//!   min(`--vector-width`, `simdlen`, `safelen`), and a shape the emitter
//!   cannot handle is *refused* (`vm.simd.refused`); one whose constant
//!   bound is too small for a single chunk is left scalar and counted in
//!   neither, since there is nothing to widen. Any other loop widens
//!   at `--vector-width` only on the VM's own proof ([`acts`], then
//!   [`try_plan`]): it stores, calls and allocates nothing, so no lane can
//!   see another whatever it reads, and it traps nowhere but in its body
//!   (`vm.simd.proven_loops`).
//! * [`emit_vector_loop`] emits, at the loop-header offset, a rotated
//!   vector loop whose phi registers the preheader's edge copies set:
//!   - a preamble: accumulator inits, the broadcasts of what the lanes read
//!     from outside the loop, and the guard `bound >= w - 1`, which keeps
//!     `n_main = bound - (w - 1)` from wrapping;
//!   - the entry test `iv <pred> n_main`, run once;
//!   - the body, one chunk of `w` iterations, ending in one fused latch
//!     ([`Op::VLatch`]: `iv += w; iv <pred> n_main ? body : exit`);
//!   - the exit: horizontal reduces, last-lane extracts, then each
//!     reduction's loop-invariant links, `phi ±= e × (iv − start)`, and a
//!     `VEpi` that counts the epilogue and enters the untouched scalar
//!     loop, which runs the remaining `trip mod width` iterations.
//!
//!   A link of an `Add` chain whose value is defined outside the loop
//!   (`sum = sum + (j % m) + c`) is the same in every iteration, so it
//!   costs no lane op per chunk: the exit multiplies it by the iterations
//!   the chunks completed, in the reduction's type, which is exact under
//!   wrapping.
//! * Faults stay exact without a bounds proof. A chunk computes its loads,
//!   gathers and trapping `Bin`s first, before it writes an accumulator,
//!   the IV or a last value; in a loop that stores nothing, a fault pad
//!   ([`crate::ops::Pad`]) covers that section and targets the exit. A lane
//!   that faults resumes there before the latch steps `iv`: the exit folds
//!   the chunks that completed (their invariant links too), and the scalar
//!   loop replays the faulting chunk in order, so the program fails at the
//!   iteration, and with the message, it fails with unwidened. A `simd`
//!   loop that stores keeps lane-ordered eager faults: its stores of the
//!   faulting chunk have happened.
//!
//! Floating-point reductions are refused on purpose: lane-partial sums
//! reassociate the reduction, and the VM is held byte-identical to the
//! scalar interpreter oracle by the backend-differential harness. Integer
//! (wrapping) add, sub and mul are exact in any grouping, so those widen.

use crate::compile::{cast_op, const_of, CompileError, FuncCompiler};
use crate::ops::{Indexed, Op, Pad, PoolConst, Reg, RegClass, VReg, MAX_LANES};
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
    /// Loops without `simd` metadata widened on the VM's own proof.
    pub proven: u64,
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
    /// The value the induction variable enters with (defined outside the
    /// loop).
    start: Value,
    /// Loop bound value (defined outside the loop).
    bound: Value,
    /// Chosen width after all clamps (2..=[`MAX_LANES`]).
    width: u8,
    /// The `Gep`s whose accesses widen to unit-stride `VLoadIdx`/`VStoreIdx`
    /// (the others gather and scatter).
    unit_stride: HashSet<InstId>,
    /// Integer reductions. Lanes accumulate into a vector started at the
    /// identity and combined by `VReduce` on exit.
    reductions: Vec<Reduction>,
    /// Last values: the header phi and its latch value, which lanes compute
    /// independently; the exit extracts lane `w-1`.
    last_values: Vec<(InstId, Value)>,
}

/// A header phi whose latch value is `phi` carried through a chain of
/// links `((phi ⊕₁ e₁) ⊕₂ e₂) …`: the running value is the left operand of
/// a `-` link and either operand of a `+` or `*` one.
struct Reduction {
    phi: InstId,
    /// How the lanes' partial results and the entry value combine: `Add`
    /// for a chain of `+`/`-` links, `Mul` for one `*` link.
    combine: BinOpKind,
    /// The links whose value differs from iteration to iteration, each
    /// link's operator and the value it folds in, in chain order: what the
    /// lanes fold into the reduction's accumulator.
    links: Vec<(BinOpKind, Value)>,
    /// The links of an `Add` chain whose value is defined outside the loop:
    /// the same `e` every iteration, so the exit adds `± e × (iv − start)`
    /// once instead of a lane op per chunk (exact in wrapping arithmetic).
    invariant: Vec<(BinOpKind, Value)>,
}

impl Reduction {
    /// Whether lanes accumulate into a vector: some link varies.
    fn lanes(&self) -> bool {
        !self.links.is_empty()
    }
}

impl LoopPlan {
    /// The constants the vector loop reads besides its instructions'
    /// operands, which the lowerer loads in the function's prologue rather
    /// than on every entry: `n_main` when the bound is a constant, `width -
    /// 1` otherwise, and the identity of each reduction whose lanes
    /// accumulate. (The width itself is the fused latch's immediate.)
    pub(crate) fn consts(&self) -> impl Iterator<Item = PoolConst> + '_ {
        let identities = self
            .reductions
            .iter()
            .filter(|r| r.lanes())
            .map(|r| identity(r.combine) as u64);
        std::iter::once(self.const_n_main().unwrap_or(u64::from(self.width) - 1))
            .chain(identities)
            .map(|v| PoolConst::Val(RegClass::Int, v))
    }

    /// Whether the bound is a constant that fails the guard (`bound >= w -
    /// 1`, [`guard_pred`]): no chunk can run, so there is nothing to widen.
    fn runs_no_chunk(&self) -> bool {
        let Value::ConstInt { val, .. } = self.bound else {
            return false;
        };
        let wm1 = u64::from(self.width) - 1;
        !arith::cmp(guard_pred(self.pred), self.iv_ty, val as u64, wm1)
    }

    /// `n_main = bound - (width - 1)` at the IV's type, when the bound is a
    /// constant: the last chunk base the entry test and the latch let in.
    /// [`plan_loops`] keeps no plan whose constant fails the guard, so it
    /// cannot wrap.
    fn const_n_main(&self) -> Option<u64> {
        let Value::ConstInt { val, .. } = self.bound else {
            return None;
        };
        let wm1 = u64::from(self.width) - 1;
        Some(arith::bin(BinOpKind::Sub, self.iv_ty, val as u64, wm1).unwrap_or_default())
    }

    /// Visits each value defined outside the loop that a loop instruction
    /// reads, once per such read: the registers the vector loop reads.
    pub(crate) fn for_each_input(&self, f: &Function, read: &mut impl FnMut(InstId)) {
        for &id in &self.loop_insts {
            f.inst(id).for_each_operand(|v| match v {
                Value::Inst(o) if !self.loop_insts.contains(&o) => read(o),
                _ => {}
            });
        }
    }
}

/// Finds every widenable loop of `f`. Keys are header block ids. `width`
/// is the CLI request; `simdlen`/`safelen` metadata clamp it per `simd`
/// loop.
pub(crate) fn plan_loops(f: &Function, width: u8, stats: &mut PlanStats) -> HashMap<u32, LoopPlan> {
    let preds = f.predecessors();
    let mut plans: HashMap<u32, LoopPlan> = HashMap::new();
    let width = width.min(MAX_LANES as u8);
    for (b, block) in f.blocks.iter().enumerate() {
        let Some(Terminator::Br {
            target: header,
            loop_md,
        }) = &block.term
        else {
            continue;
        };
        let latch = BlockId(b as u32);
        match loop_md {
            Some(md) if md.vectorize_enable => {
                // `simdlen` and `safelen` cap the request; 0 leaves a cap
                // unset.
                let cap = |c: u8| if c == 0 { u8::MAX } else { c };
                let requested = width.min(cap(md.simdlen)).min(cap(md.safelen));
                match try_plan(f, &preds, *header, latch, requested, false) {
                    // Too few iterations for one chunk: neither widened nor
                    // refused.
                    Some(plan) if plan.runs_no_chunk() => {}
                    Some(plan) if !plans.contains_key(&plan.header.0) => {
                        stats.widened += 1;
                        plans.insert(plan.header.0, plan);
                    }
                    _ => stats.refused += 1,
                }
            }
            // Nobody asked: the VM widens the loop only on its own proof,
            // and a loop that is not one costs no more than this scan.
            _ if acts(f, &preds, *header, latch) => {}
            // A planned header has two predecessors, so one latch.
            _ => {
                let plan = try_plan(f, &preds, *header, latch, width, true);
                if let Some(plan) = plan.filter(|p| !p.runs_no_chunk()) {
                    stats.proven += 1;
                    plans.insert(plan.header.0, plan);
                }
            }
        }
    }
    plans
}

/// Whether the would-be loop `latch → header` stores, calls or allocates,
/// or is not a straight line of blocks: a walk from the latch up through
/// single predecessors to the header, before anything recognises the loop.
/// Those blocks are the header, the exit test and the body chain
/// [`try_plan`] takes, when it takes any.
fn acts(f: &Function, preds: &BlockLists<BlockId>, header: BlockId, latch: BlockId) -> bool {
    let mut cur = latch;
    for _ in 0..MAX_CHAIN + 2 {
        let effect = f.block(cur).insts.iter().any(|&i| {
            matches!(
                f.inst(i),
                Inst::Store { .. } | Inst::Call { .. } | Inst::Alloca { .. }
            )
        });
        if effect {
            return true;
        }
        if cur == header {
            return false;
        }
        match preds[cur.0 as usize][..] {
            [p] => cur = p,
            _ => return true,
        }
    }
    true
}

/// The longest body chain the widener takes, in blocks.
const MAX_CHAIN: usize = 128;

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
                // indices. A `trunc` to `i32` or wider wraps only past 2^31
                // elements, where both backends fault long before a chunk
                // spans the wrap; a narrower one wraps inside an array (a
                // `(signed char)i` goes 127 → -128), so its index is not
                // affine and the access becomes a gather.
                Inst::Cast {
                    op: CastOp::SExt | CastOp::ZExt,
                    val,
                    ..
                } => self.lin(*val, depth - 1),
                Inst::Cast {
                    op: CastOp::Trunc,
                    val,
                    to,
                } if to.bits() >= 32 => self.lin(*val, depth - 1),
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
    /// variable mapped to the chunk base? With `iv` false, only if it does not
    /// read the induction variable: then it holds the same value in every
    /// lane, a `gep`, `bin` or cast of values defined before the loop
    /// included (the row of `a[i][j]` in the `j` loop that no LICM hoisted).
    fn scalar_cloneable(&self, v: Value, depth: u8, iv: bool) -> bool {
        if depth == 0 {
            return false;
        }
        match v {
            Value::Inst(id) if id == self.iv => iv,
            Value::Inst(id) if self.in_loop(id) => match self.f.inst(id) {
                Inst::Bin { lhs: a, rhs: b, .. }
                | Inst::Gep {
                    ptr: a, index: b, ..
                } => {
                    self.scalar_cloneable(*a, depth - 1, iv)
                        && self.scalar_cloneable(*b, depth - 1, iv)
                }
                Inst::Cast { val, .. } => self.scalar_cloneable(*val, depth - 1, iv),
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
    /// same pointer in every lane: as a unit-stride `VLoadIdx`/`VStoreIdx`
    /// (cloneable base and index) or a `VGather`/`VScatter` (cloneable base,
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
        if u32::try_from(*elem_size).is_err() || !self.scalar_cloneable(*base, depth - 1, false) {
            return false;
        }
        if self.unit_stride(ty, gid) {
            // Unit stride: the lane-0 address is indexed by the scalar clone
            // of the index.
            self.scalar_cloneable(*index, depth - 1, true)
        } else {
            // Gather: affine-non-unit or opaque per-lane indices.
            self.wideable(*index, depth - 1)
        }
    }

    /// Whether `gid` is a `Gep` that steps one `ty` element per iteration.
    fn unit_stride(&self, ty: IrType, gid: InstId) -> bool {
        matches!(self.f.inst(gid), Inst::Gep { index, elem_size, .. }
            if matches!(self.lin(*index, 16), Some(l)
                if l.coeff != 0 && l.coeff as i128 * *elem_size as i128 == ty.size() as i128))
    }
}

/// The value a reduction's accumulator lanes start at.
fn identity(combine: BinOpKind) -> i64 {
    match combine {
        BinOpKind::Mul => 1,
        _ => 0,
    }
}

/// Number of times each instruction's value is used inside the loop, and
/// the instruction that used it last (`None` for a terminator).
fn use_counts(f: &Function, blocks: &[BlockId]) -> HashMap<InstId, (u32, Option<InstId>)> {
    let mut uses: HashMap<InstId, (u32, Option<InstId>)> = HashMap::new();
    for &bb in blocks {
        for &iid in &f.block(bb).insts {
            f.inst(iid).for_each_operand(|v| {
                if let Value::Inst(id) = v {
                    let e = uses.entry(id).or_insert((0, None));
                    *e = (e.0 + 1, Some(iid));
                }
            });
        }
        if let Some(t) = &f.block(bb).term {
            t.for_each_operand(|v| {
                if let Value::Inst(id) = v {
                    let e = uses.entry(id).or_insert((0, None));
                    *e = (e.0 + 1, None);
                }
            });
        }
    }
    uses
}

/// Attempts to build a plan for the loop `header`/`latch`. `None` = refuse.
/// `proven` is set for a loop without `simd` metadata, which [`acts`] found
/// free of stores and calls: it must also trap nowhere but in its body.
fn try_plan(
    f: &Function,
    preds: &BlockLists<BlockId>,
    header: BlockId,
    latch: BlockId,
    requested: u8,
    proven: bool,
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
        if cur == header || cur == test || chain.contains(&cur) || chain.len() > MAX_CHAIN {
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
    // A `Bin` that can trap runs in every lane at its textual position.
    let traps = |id: InstId| match *f.inst(id) {
        Inst::Bin { op, lhs, rhs } => arith::may_trap_with(op, f.value_type(lhs), rhs),
        _ => false,
    };
    // A proven loop traps only in its body, where the vector chunk's fault
    // pad covers it: the header and the exit test run once more than the
    // body does.
    if proven
        && [header, test]
            .iter()
            .any(|&bb| f.block(bb).insts.iter().any(|&id| traps(id)))
    {
        return None;
    }

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
    let uses_of = |id: InstId| uses.get(&id).map_or(0, |u| u.0);
    let mut reductions = Vec::new();
    let mut last_values = Vec::new();
    for &phi in &f.block(header).insts {
        let Inst::Phi { ty, incoming } = f.inst(phi) else {
            break;
        };
        let (_, next) = *incoming.iter().find(|(b, _)| *b == latch)?;
        if phi == iv {
            // The induction variable: `{start, +, 1}`, recognised above.
            continue;
        }
        if uses_of(phi) == 0 {
            // A last value: no iteration reads the one before it.
            if !p.wideable(next, 16) {
                return None;
            }
            last_values.push((phi, next));
            continue;
        }
        // A reduction: from the phi, each running value's one use is the
        // next link, up to the latch value, whose one use is the phi.
        if !ty.is_int() {
            return None; // float reductions reassociate: refuse
        }
        let mut links = Vec::new();
        let mut run = phi;
        while Value::Inst(run) != next {
            let (1, Some(link)) = uses.get(&run).copied()? else {
                return None;
            };
            let Inst::Bin { op, lhs, rhs } = *f.inst(link) else {
                return None;
            };
            let e = match op {
                BinOpKind::Add | BinOpKind::Mul if rhs == Value::Inst(run) => lhs,
                BinOpKind::Add | BinOpKind::Sub | BinOpKind::Mul if lhs == Value::Inst(run) => rhs,
                _ => return None,
            };
            if links.len() == 16 || !p.wideable(e, 16) {
                return None;
            }
            links.push((op, e));
            run = link;
        }
        let combine = match links[..] {
            [] => return None,
            [(BinOpKind::Mul, _)] => BinOpKind::Mul,
            _ if links.iter().all(|l| l.0 != BinOpKind::Mul) => BinOpKind::Add,
            _ => return None,
        };
        if uses_of(run) != 1 {
            return None;
        }
        // An `Add` chain's links that read a value defined outside the loop
        // move to the exit.
        let (invariant, links) = links.into_iter().partition(|&(_, e)| {
            combine == BinOpKind::Add
                && match e {
                    Value::Inst(id) => !p.in_loop(id),
                    Value::Arg(_) => true,
                    other => const_of(other).is_some(),
                }
        });
        reductions.push(Reduction {
            phi,
            combine,
            links,
            invariant,
        });
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
            _ if traps(*iid) => p.wideable(Value::Inst(*iid), 16),
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
        start: ind.start,
        bound,
        width: requested,
        unit_stride,
        reductions,
        last_values,
    })
}

/// The guard's compare, `bound >= w - 1`: unsigned for an unsigned loop.
/// It keeps `n_main = bound - (w - 1)` from wrapping (and from overflowing
/// near the signed minimum).
fn guard_pred(pred: CmpPred) -> CmpPred {
    if matches!(pred, CmpPred::Ult | CmpPred::Ule) {
        CmpPred::Uge
    } else {
        CmpPred::Sge
    }
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
    /// One accumulator per reduction whose lanes accumulate, then one per
    /// last value: the only vector registers a chunk updates in place,
    /// after its lanes are computed.
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
                        let (base, index) = (self.scalar_of(ptr)?, self.scalar_of(index)?);
                        let dst = self.c.new_vreg(RegClass::Ptr)?;
                        self.c.out.ops.push(Op::Gep {
                            dst,
                            base,
                            index,
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

    /// The lane-0 address of a unit-stride access through the `gep` `ptr`:
    /// the indexed form, its index walked down the loop's own links (those
    /// outside the loop are registers already). A unit stride steps one
    /// element of at most eight bytes, so the element size fits `scale`.
    fn unit_address(&mut self, ptr: Value) -> Result<Indexed, CompileError> {
        let (base, index, elem_size) = self.gep_of(ptr)?;
        let scale = u8::try_from(elem_size).map_err(|_| self.c.err_large("gep element size"))?;
        let plan = self.plan;
        let (index, walk) = self.c.index_chain(index, |x| plan.loop_insts.contains(&x));
        let (base, index) = (self.scalar_of(base)?, self.scalar_of(index)?);
        Ok(walk.indexed(base, index, scale))
    }

    /// A widened memory load: unit-stride `VLoadIdx` or per-lane `VGather`.
    fn widen_mem_load(&mut self, ty: IrType, ptr: Value) -> Result<VReg, CompileError> {
        let (base, index, elem_size) = self.gep_of(ptr)?;
        let w = self.w();
        if self.unit_stride(ptr) {
            let addr = self.unit_address(ptr)?;
            let dst = self.c.new_vvreg(RegClass::of(ty), w)?;
            self.c.out.ops.push(addr.vload(dst, ty, w));
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

    /// A widened memory store: unit-stride `VStoreIdx` or per-lane `VScatter`.
    fn widen_store(&mut self, val: Value, ptr: Value) -> Result<(), CompileError> {
        let ty = self.c.f.value_type(val);
        let src = self.vec_of(val)?;
        let w = self.w();
        if self.unit_stride(ptr) {
            let addr = self.unit_address(ptr)?;
            self.c.out.ops.push(addr.vstore(src, ty, w));
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

    /// At the exit, folds each reduction's loop-invariant links into its
    /// phi register: `phi ±= e × (iv − start)`, `iv − start` being the
    /// iterations the chunks completed (a fault pad resumes here before
    /// the faulting chunk steps `iv`). Computed in the reduction's type, so
    /// exact under wrapping: the count is widened without its sign where it
    /// could read as negative.
    fn fold_invariant_links(&mut self) -> Result<(), CompileError> {
        let plan = self.plan;
        let iv_ty = plan.iv_ty;
        // A signed loop from a constant `start >= 0` runs `iv` up to its
        // type's maximum at most: the count's payload is not negative.
        let signed = matches!(plan.pred, CmpPred::Slt | CmpPred::Sle);
        let nonnegative = signed && plan.start.as_const_int().is_some_and(|k| k >= 0);
        let mut run = None;
        for r in plan.reductions.iter().filter(|r| !r.invariant.is_empty()) {
            let ty = self.c.f.value_type(Value::Inst(r.phi));
            let count = match run {
                Some(count) => count,
                None if plan.start.as_const_int() == Some(0) => self.riv,
                None => {
                    let start = self.scalar_of(plan.start)?;
                    let dst = self.c.new_vreg(RegClass::Int)?;
                    self.c.out.ops.push(Op::Bin {
                        op: BinOpKind::Sub,
                        ty: iv_ty,
                        dst,
                        lhs: self.riv,
                        rhs: start,
                    });
                    dst
                }
            };
            run = Some(count);
            let count = if ty.bits() > iv_ty.bits() && !nonnegative {
                let dst = self.c.new_vreg(RegClass::Int)?;
                self.c
                    .out
                    .ops
                    .push(cast_op(CastOp::ZExt, iv_ty, ty, dst, count));
                dst
            } else {
                count
            };
            let phi = self.c.dst_of(r.phi);
            for &(op, e) in &r.invariant {
                let e = self.scalar_of(e)?;
                let times = self.c.new_vreg(RegClass::Int)?;
                self.c.out.ops.push(Op::Bin {
                    op: BinOpKind::Mul,
                    ty,
                    dst: times,
                    lhs: count,
                    rhs: e,
                });
                self.c.out.ops.push(Op::Bin {
                    op,
                    ty,
                    dst: phi,
                    lhs: phi,
                    rhs: times,
                });
            }
        }
        Ok(())
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
    // A constant bound's `n_main` is a constant too, and its guard held at
    // planning; any other bound computes `n_main` on entry, under the guard
    // emitted below.
    let bound_reg = wd.scalar_of(plan.bound)?;
    let (n_main, guarded) = match plan.const_n_main() {
        Some(n) => (wd.int_const(n as i64)?, None),
        None => {
            let wm1_const = wd.int_const(w as i64 - 1)?;
            let n_main = wd.c.new_vreg(RegClass::Int)?;
            wd.c.out.ops.push(Op::Bin {
                op: BinOpKind::Sub,
                ty: plan.iv_ty,
                dst: n_main,
                lhs: bound_reg,
                rhs: wm1_const,
            });
            (n_main, Some(wm1_const))
        }
    };
    // One accumulator per reduction whose lanes accumulate, started at its
    // identity, then one per last value, started at the phi's entry value
    // (what the exit keeps when no chunk runs).
    for r in plan.reductions.iter().filter(|r| r.lanes()) {
        let src = wd.int_const(identity(r.combine))?;
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
    let carried = plan
        .reductions
        .iter()
        .flat_map(|r| r.links.iter().map(|l| l.1));
    for v in carried.chain(plan.last_values.iter().map(|l| l.1)) {
        wd.invariant_lanes(v, &mut seen, &mut invariant);
    }
    for v in invariant {
        let ty = f.value_type(v);
        let r = wd.scalar_of(v)?;
        wd.broadcast(r, RegClass::of(ty))?;
    }
    // Guard ([`guard_pred`]): a failed guard skips straight to the exit
    // combine, which is the identity when zero vector chunks ran.
    let guard_at = guarded.map(|wm1_const| {
        let at = wd.c.out.ops.len();
        wd.c.out.ops.push(Op::CmpBr {
            pred: guard_pred(plan.pred),
            ty: plan.iv_ty,
            lhs: bound_reg,
            rhs: wm1_const,
            then_t: (at + 1) as u32,
            else_t: 0, // patched to vexit
        });
        wd.c.mark_block_start();
        at
    });

    // --- entry test: the loop is rotated, so this runs once ----------------
    let entry_at = wd.c.out.ops.len();
    let vbody_off = (entry_at + 1) as u32;
    wd.c.out.ops.push(Op::CmpBr {
        pred: plan.pred,
        ty: plan.iv_ty,
        lhs: riv,
        rhs: n_main,
        then_t: vbody_off,
        else_t: 0, // patched to vexit
    });

    // --- vbody --------------------------------------------------------------
    wd.c.mark_block_start();
    // Memory accesses widen *eagerly* at their textual position:
    // demand-driven emission could float a load past an aliasing
    // same-iteration store (the front end's legality gate treats
    // same-iteration pairs as ordered by position). So does a `Bin` that
    // can trap, which must run in every lane even when nothing reads it.
    // Other arithmetic stays demand-driven. This eager section comes before
    // any write to an accumulator or the IV, so in a loop that stores
    // nothing a fault pad covers it: a lane that faults resumes at the exit
    // with the chunk's state untouched, and the scalar loop replays it.
    let eager_at = wd.c.out.ops.len() as u32;
    let mut stores = false;
    for iid in plan.chain.iter().flat_map(|&bb| &f.block(bb).insts) {
        match *f.inst(*iid) {
            Inst::Load { .. } => {
                wd.vec_of(Value::Inst(*iid))?;
            }
            Inst::Store { val, ptr } => {
                stores = true;
                wd.widen_store(val, ptr)?;
            }
            Inst::Bin { op, lhs, rhs } if arith::may_trap_with(op, f.value_type(lhs), rhs) => {
                wd.vec_of(Value::Inst(*iid))?;
            }
            _ => {}
        }
    }
    let eager_end = wd.c.out.ops.len() as u32;
    // Then the carried values: lanes fold each varying link's `e` into a
    // reduction's accumulator, and a last value's accumulator takes the
    // chunk's lanes.
    let mut acc = wd.acc.clone().into_iter();
    for r in plan.reductions.iter().filter(|r| r.lanes()) {
        let ty = f.value_type(Value::Inst(r.phi));
        let dst = acc.next().expect("an accumulator per reduction");
        for &(op, e) in &r.links {
            let rhs = wd.vec_of(e)?;
            wd.c.out.ops.push(Op::VBin {
                op,
                ty,
                dst,
                lhs: dst,
                rhs,
                w,
            });
        }
    }
    for (&(_, next), dst) in plan.last_values.iter().zip(acc) {
        let src = wd.vec_of(next)?;
        wd.c.out.ops.push(Op::VMov { dst, src, w });
    }
    // The fused latch: the IV steps past the chunk, and the next chunk runs
    // while it still fits under the bound.
    let latch_at = wd.c.out.ops.len();
    wd.c.out.ops.push(Op::VLatch {
        pred: plan.pred,
        ty: plan.iv_ty,
        w,
        iv: riv,
        bound: n_main,
        body: vbody_off,
        exit: 0, // patched to vexit
    });

    // --- vexit: the phi registers take the vector loop's values ----------
    let vexit_off = wd.c.out.ops.len() as u32;
    wd.c.mark_block_start();
    let mut acc = wd.acc.clone().into_iter();
    for r in plan.reductions.iter().filter(|r| r.lanes()) {
        let (phi, op) = (r.phi, r.combine);
        let phi_reg = wd.c.dst_of(phi);
        let ty = f.value_type(Value::Inst(phi));
        let red = wd.c.new_vreg(RegClass::Int)?;
        wd.c.out.ops.push(Op::VReduce {
            op,
            ty,
            dst: red,
            src: acc.next().expect("an accumulator per reduction"),
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
    for (&(phi, _), src) in plan.last_values.iter().zip(acc) {
        wd.c.out.ops.push(Op::VExtract {
            dst: wd.c.dst_of(phi),
            src,
            lane: w - 1,
        });
    }
    wd.fold_invariant_links()?;
    // The exit jumps to the scalar header, which starts the next block.
    let scalar_header_off = wd.c.out.ops.len() as u32 + 1;
    wd.c.out.ops.push(Op::VEpi {
        pred: plan.pred,
        ty: plan.iv_ty,
        iv: riv,
        bound: bound_reg,
        target: scalar_header_off,
    });
    if !stores && eager_end > eager_at {
        wd.c.out.pads.push(Pad {
            start: eager_at,
            end: eager_end,
            target: vexit_off,
        });
    }

    // Patch the forward branches into vexit.
    for at in guard_at.into_iter().chain([entry_at, latch_at]) {
        match &mut wd.c.out.ops[at] {
            Op::CmpBr { else_t: exit, .. } | Op::VLatch { exit, .. } => *exit = vexit_off,
            _ => unreachable!("a branch into vexit"),
        }
    }
    wd.c.latch_redirect.insert(plan.latch.0, scalar_header_off);
    Ok(())
}
