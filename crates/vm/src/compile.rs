//! IR → bytecode lowering.
//!
//! The interpreter's per-instruction overheads — `Option<u64>` frame slots,
//! operand re-`match`ing, recursive `value_type` queries, per-block phi
//! scans — are all paid at *compile* time here instead:
//!
//! * Blocks are linearized in reverse-postorder; branch targets become
//!   instruction offsets.
//! * Every SSA value gets a virtual register; phis are eliminated into edge
//!   copies (through temporaries where one reads what another writes, and
//!   critical edges from conditional branches split via trampoline blocks).
//! * The input is the mid end's: a function that still has a slot the mid
//!   end's rule would promote (every one without `--opt`), or dead code
//!   under the one dead-code rule, is lowered from a copy that
//!   [`omplt_midend::promote`] and [`omplt_midend::eliminate_dead_code`]
//!   rewrote (`input_copies`), so the lowerer meets SSA, every `alloca`
//!   it meets is memory, and every value it lowers is needed.
//! * Distinct constants are loaded once in an entry prologue, not per use.
//! * An access computes its own address: a `gep` that only loads and stores
//!   use, the constant offset of its index and an addressing `trunc` fold
//!   into the access's [`Address`] (`base + wrap(index + c) * scale`) and
//!   are not emitted (`FuncCompiler::plan_folds`).
//! * A peephole pass ([`crate::peephole`]) then leaves SSA by coalescing
//!   and fuses compare/branch pairs, and a linear-scan pass
//!   ([`crate::regalloc`]) compacts the register file. Both work on one
//!   [`Analysis`] (CFG + liveness and their buffers).
//!
//! Everything the lowerer looks up per instruction is a dense table indexed
//! by `InstId` — result type, register — filled in one walk each; the two
//! tables keyed by something sparse (constants, callees) are sorted
//! vectors. No table is a `HashMap`, so nothing the emitted bytes depend on
//! has a per-process order.
//!
//! `compile_module_with` keeps two workspaces for the whole module: one
//! [`FuncCompiler`], whose tables and output buffers every function reuses,
//! and one [`Analysis`]. A function is built, optimized and allocated in the
//! workspace's own `VmFunction`, and the module keeps an exact-size copy of
//! it, so per function the only allocations are that copy's buffers.
//!
//! Under a trace session each function records three child spans of
//! `vm.compile` — `vm.compile.lower`, `vm.compile.peephole`,
//! `vm.compile.regalloc` — and the module reports
//! `vm.compile.liveness.solves` next to its op counts.

use crate::ops::{
    Address, CallTarget, Indexed, Op, PoolConst, Reg, RegClass, VmFunction, VmModule,
};
use crate::peephole;
use crate::regalloc::{self, Analysis};
use crate::vectorize;
use omplt_ir::{
    arith, BinOpKind, BlockId, CastOp, Function, Inst, InstId, IrType, Module, Rpo, RtFn, SymbolId,
    Terminator, Value,
};
use omplt_midend::{Dce, Promote};
use std::collections::HashMap;
use std::ops::Range;

/// Why a function could not be lowered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// The function needs more than `u16::MAX` registers.
    TooManyRegs {
        /// Function name.
        func: String,
    },
    /// Some table exceeded its encoding width (op stream, constant pool,
    /// call-target table, allocation size, GEP element size).
    TooLarge {
        /// Function name.
        func: String,
        /// Which table overflowed.
        what: String,
    },
    /// Structurally invalid IR reached the lowerer (the IR verifier should
    /// have rejected it earlier).
    Malformed {
        /// Function name.
        func: String,
        /// What was wrong.
        what: String,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::TooManyRegs { func } => {
                write!(f, "@{func}: register file exceeds 65535 registers")
            }
            CompileError::TooLarge { func, what } => {
                write!(f, "@{func}: {what} exceeds its encoding width")
            }
            CompileError::Malformed { func, what } => write!(f, "@{func}: malformed IR: {what}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Compiles every function of `m` to bytecode. Function order (and therefore
/// [`CallTarget::Bytecode`] indices) follows module order, and call
/// resolution uses the same precedence as the interpreter: module-defined
/// functions first, then runtime shims.
pub fn compile_module(m: &Module) -> Result<VmModule, CompileError> {
    compile_module_with(m, 0)
}

/// [`compile_module`] with the widening pass enabled: `vector_width >= 2`
/// converts eligible `simd`-annotated innermost loops to lane-parallel
/// vector ops at that width (clamped by the loop metadata's `safelen` and
/// `simdlen`), and any other innermost loop the pass proves lanes cannot
/// tell apart; `0` or `1` disables the pass entirely.
pub fn compile_module_with(m: &Module, vector_width: u8) -> Result<VmModule, CompileError> {
    let _span = omplt_trace::span("vm.compile");
    omplt_fault::panic_if_armed("vm.panic");
    // First name occurrence wins, matching `Module::function`.
    let mut fn_index: HashMap<&str, u32> = HashMap::new();
    for (i, f) in m.functions.iter().enumerate() {
        fn_index.entry(f.name.as_str()).or_insert(i as u32);
    }
    let (copies, promoted_total) = input_copies(m);
    let mut funcs = Vec::with_capacity(m.functions.len());
    let mut removed_total = 0u64;
    let mut stats = vectorize::PlanStats::default();
    let mut analysis = Analysis::default();
    if let Some(first) = m.functions.first() {
        let mut c = FuncCompiler::new(m, first, &fn_index);
        for (f, copy) in m.functions.iter().zip(&copies) {
            let f = copy.as_ref().unwrap_or(f);
            let (vf, removed) = c.compile(f, vector_width, &mut stats, &mut analysis)?;
            removed_total += removed as u64;
            funcs.push(vf);
        }
    }
    merge_duplicates(m, &fn_index, &mut funcs);
    let vm = VmModule { funcs };
    if omplt_trace::active() {
        omplt_trace::count("vm.compile.functions", vm.funcs.len() as u64);
        omplt_trace::count("vm.compile.ops", vm.num_ops() as u64);
        omplt_trace::count("vm.compile.liveness.solves", analysis.live.solves);
        omplt_trace::count("vm.compile.promoted", promoted_total);
        omplt_trace::count("vm.compile.peephole.removed", removed_total);
        // Emitted only when the pass ran, so width-0 counter documents stay
        // byte-identical to the pre-simd era.
        if vector_width >= 2 {
            omplt_trace::count("vm.simd.widened_loops", stats.widened);
            omplt_trace::count("vm.simd.refused", stats.refused);
            omplt_trace::count("vm.simd.proven_loops", stats.proven);
        }
    }
    Ok(vm)
}

/// Drops each function whose bytecode equals an earlier function's in every
/// field but its name (`VmFunction`'s derived `Eq`, with the name taken
/// out), and points the calls to it and its address at the
/// earlier one — `stencil`'s two sweeps outline to two such bodies.
///
/// No address the guest can observe changes: the only function pointers a
/// program holds are outlined bodies handed to `__kmpc_fork_call`
/// (`omplt_ompirb::parallel`), which the runtime only calls. A function is
/// dropped only while that holds of it — its address is that call's first
/// argument and appears nowhere else in the module — and `main`, which the
/// engine calls by name, never is.
fn merge_duplicates(m: &Module, fn_index: &HashMap<&str, u32>, funcs: &mut Vec<VmFunction>) {
    // Per function: forked, and whether its address is seen anywhere else.
    // Only a function whose pool holds a function pointer names one.
    let (mut forked, mut escapes) = (vec![false; funcs.len()], vec![false; funcs.len()]);
    let mut mark = |v: Value, fork_arg: bool| {
        if let Value::FuncRef(s) = v {
            if let Some(&i) = fn_index.get(m.symbol_name(s)) {
                let seen = if fork_arg { &mut forked } else { &mut escapes };
                seen[i as usize] = true;
            }
        }
    };
    let fork_call = m.lookup_symbol(RtFn::ForkCall.row().name);
    let names_pointers =
        |vf: &VmFunction| vf.consts.iter().any(|c| matches!(c, PoolConst::FnPtr(_)));
    for (f, _) in m
        .functions
        .iter()
        .zip(funcs.iter())
        .filter(|(_, vf)| names_pointers(vf))
    {
        for b in &f.blocks {
            for inst in b.insts.iter().map(|&i| f.inst(i)) {
                match inst {
                    Inst::Call { callee, args, .. } => {
                        let fork = Some(callee.0) == fork_call;
                        for (k, &a) in args.iter().enumerate() {
                            mark(a, fork && k == 0);
                        }
                    }
                    other => other.for_each_operand(|v| mark(v, false)),
                }
            }
            if let Some(t) = &b.term {
                t.for_each_operand(|v| mark(v, false));
            }
        }
    }
    if !forked.contains(&true) {
        return;
    }
    // Group by everything but the name: functions are sorted by a key that
    // equal ones share — their sizes and constant pools, which is what
    // most outlined bodies differ in — and a droppable one is compared in
    // full only with the earlier ones of its key.
    let names: Vec<String> = funcs
        .iter_mut()
        .map(|f| std::mem::take(&mut f.name))
        .collect();
    let droppable = |i: usize| forked[i] && !escapes[i] && names[i] != "main";
    fn key(f: &VmFunction) -> (usize, u16, u16, &[PoolConst]) {
        (f.ops.len(), f.num_regs, f.num_vregs, &f.consts)
    }
    let mut order: Vec<usize> = (0..funcs.len()).collect();
    order.sort_by_key(|&i| (key(&funcs[i]), i));
    let mut keep: Vec<usize> = (0..funcs.len()).collect();
    for run in order.chunk_by(|&a, &b| key(&funcs[a]) == key(&funcs[b])) {
        for (x, &i) in run.iter().enumerate().filter(|&(_, &i)| droppable(i)) {
            let equal = run[..x]
                .iter()
                .find(|&&k| keep[k] == k && funcs[k] == funcs[i]);
            if let Some(&k) = equal {
                keep[i] = k;
            }
        }
    }
    for (f, name) in funcs.iter_mut().zip(names) {
        f.name = name;
    }
    if keep.iter().enumerate().all(|(i, &k)| k == i) {
        return;
    }
    // The index each function's keeper has once the others are gone, and
    // `(dropped, keeper)` by symbol, for the function pointers.
    let (mut at, mut kept, mut renamed) = (Vec::with_capacity(funcs.len()), 0, Vec::new());
    for (i, &k) in keep.iter().enumerate() {
        if k == i {
            at.push(kept);
            kept += 1;
        } else {
            at.push(at[k]);
            let symbol = |j: usize| m.lookup_symbol(&funcs[j].name);
            if let (Some(from), Some(to)) = (symbol(i), symbol(k)) {
                renamed.push((from, to));
            }
        }
    }
    let mut i = 0;
    funcs.retain(|_| {
        i += 1;
        keep[i - 1] == i - 1
    });
    for f in funcs.iter_mut() {
        for t in &mut f.call_targets {
            if let CallTarget::Bytecode(j) = t {
                *j = at[*j as usize];
            }
        }
        for c in &mut f.consts {
            if let PoolConst::FnPtr(s) = c {
                if let Some(&(_, to)) = renamed.iter().find(|(from, _)| from == s) {
                    *s = to;
                }
            }
        }
    }
}

/// The VM's one input step: each function of `m` that still has a slot
/// [`Function::promotable_allocas`] admits (every one without `--opt`) or an
/// unused instruction the one dead-code rule ([`omplt_ir::arith::removable`])
/// lets go, as a copy the mid end's [`omplt_midend::promote`] and then its
/// [`omplt_midend::eliminate_dead_code`] rewrote; `None` for every other
/// function, which the mid end has already cleaned (so `--opt` input is
/// neither copied nor allocated for). Also returns how many slots that
/// promoted.
fn input_copies(m: &Module) -> (Vec<Option<Function>>, u64) {
    let (mut rpo, mut slot_ty, mut ws) = (Rpo::default(), Vec::new(), Promote::default());
    let mut dce = Dce::default();
    let mut promoted = 0;
    let copies = m.functions.iter().map(|f| {
        f.promotable_allocas(rpo.compute(f), |v| f.value_type(v), &mut slot_ty);
        let promotable = slot_ty.iter().any(Option::is_some);
        (promotable || omplt_midend::has_dead_code(f, &mut dce)).then(|| {
            let mut copy = f.clone();
            promoted += omplt_midend::promote(&mut copy, &mut ws) as u64;
            omplt_midend::eliminate_dead_code(&mut copy, &mut dce);
            copy
        })
    });
    (copies.collect(), promoted)
}

/// The op for `dst = <op> src` from `from` to `to`: a `Mov` when the cast
/// keeps its payload ([`arith::keeps_payload`]), which coalescing deletes
/// where the two registers do not interfere.
pub(crate) fn cast_op(op: CastOp, from: IrType, to: IrType, dst: Reg, src: Reg) -> Op {
    if arith::keeps_payload(op, from, to) {
        Op::Mov { dst, src }
    } else {
        Op::Cast {
            op,
            from,
            to,
            dst,
            src,
        }
    }
}

/// The pool entry of a constant-like [`Value`], which is also its dedup key
/// (a float's by its bits, so `-0.0` and `0.0` stay two). `Undef` lowers to
/// the zero payload of its class, the payload the interpreter evaluates it
/// to.
pub(crate) fn const_of(v: Value) -> Option<PoolConst> {
    match v {
        Value::Inst(_) | Value::Arg(_) => None,
        Value::ConstInt { val, .. } => Some(PoolConst::Val(RegClass::Int, val as u64)),
        Value::ConstFloat { bits, .. } => Some(PoolConst::Val(RegClass::Float, bits)),
        Value::Global(s) => Some(PoolConst::Global(s)),
        Value::FuncRef(s) => Some(PoolConst::FnPtr(s)),
        Value::Undef(ty) => Some(PoolConst::Val(RegClass::of(ty), 0)),
    }
}

/// A map over the handful of keys one function has (distinct constants,
/// distinct callees): a vector sorted by key. Lookups are a binary search,
/// and — unlike a `HashMap` — iteration order is a function of the contents
/// alone, which compile determinism needs of anything that is iterated.
struct SortedMap<K, V>(Vec<(K, V)>);

impl<K: Ord + Copy, V: Copy> SortedMap<K, V> {
    fn get(&self, key: K) -> Option<V> {
        let i = self.0.binary_search_by_key(&key, |e| e.0).ok()?;
        Some(self.0[i].1)
    }

    /// Adds `key`, which must not be present.
    fn insert(&mut self, key: K, val: V) {
        let i = self.0.partition_point(|e| e.0 < key);
        self.0.insert(i, (key, val));
    }
}

/// Result type of every instruction in a reachable block, by `InstId` —
/// computed once, in RPO, so an operand's type is a table read instead of
/// [`Function::value_type`]'s walk down the operand chain at every use.
fn inst_types(types: &mut Vec<Option<IrType>>, f: &Function, rpo: &[BlockId]) {
    types.clear();
    types.resize(f.insts.len(), None);
    for &bb in rpo {
        for &iid in &f.block(bb).insts {
            let ty = f.inst(iid).result_type(|v| value_type(types, f, v));
            types[iid.0 as usize] = Some(ty);
        }
    }
}

/// [`Function::value_type`] through the [`inst_types`] table (an operand not
/// in it — defined in no reachable block — takes the slow path; lowering
/// then rejects the use).
fn value_type(types: &[Option<IrType>], f: &Function, v: Value) -> IrType {
    match v {
        Value::Inst(id) => types[id.0 as usize].unwrap_or_else(|| f.value_type(v)),
        _ => f.value_type(v),
    }
}

/// What one instruction of an index chain does to the index — the three
/// kinds of op a walk down a folded `gep`'s index may cross.
#[derive(Clone, Copy)]
enum Link {
    /// A cast that keeps its payload ([`arith::keeps_payload`]): a copy.
    Copy(Value),
    /// `trunc i64 → i32`: the arithmetic above it wraps at `i32`.
    Trunc(Value),
    /// `add` of the constant `k` at `i32` or `i64` (a `sub` adds `-k`).
    Offset(IrType, Value, i64),
}

impl Link {
    /// The operand the walk goes on to.
    fn operand(self) -> Value {
        match self {
            Link::Copy(v) | Link::Trunc(v) | Link::Offset(_, v, _) => v,
        }
    }
}

/// A walk down the index of a folded `gep`: the width its folded arithmetic
/// wraps at (`None` while it has crossed only copies) and the constant
/// element offset it has gathered, as a range — one value while an address
/// is emitted, the hull of every walk that reaches an instruction while
/// [`FuncCompiler::plan_folds`] decides it.
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) struct Walk {
    wrap: Option<IrType>,
    lo: i64,
    hi: i64,
}

impl Walk {
    /// The walk at a `gep`'s index.
    const START: Walk = Walk {
        wrap: None,
        lo: 0,
        hi: 0,
    };

    /// The walk past `link` and the value it goes on to, or `None` when it
    /// may not cross it. The address must be the one the crossed ops
    /// computed, bit for bit: since `wrap(wrap(x + c1) + c2)` is
    /// `wrap(x + c1 + c2)`, a walk gathers offsets at one width, with no
    /// no-wrap fact, and an `i64` offset must fit the row's `i32` field.
    fn cross(self, link: Link) -> Option<(Value, Walk)> {
        match link {
            Link::Copy(v) => Some((v, self)),
            Link::Trunc(v) => (self.wrap != Some(IrType::I64)).then_some((
                v,
                Walk {
                    wrap: Some(IrType::I32),
                    ..self
                },
            )),
            Link::Offset(ty, v, k) => {
                if self.wrap.is_some_and(|w| w != ty) {
                    return None;
                }
                let (lo, hi) = if ty == IrType::I32 {
                    let add = |c: i64| arith::bin(BinOpKind::Add, ty, c as u64, k as u64);
                    (add(self.lo).ok()? as i64, add(self.hi).ok()? as i64)
                } else {
                    let (lo, hi) = (self.lo.checked_add(k)?, self.hi.checked_add(k)?);
                    if lo < i32::MIN.into() || hi > i32::MAX.into() {
                        return None;
                    }
                    (lo, hi)
                };
                let wrap = Some(ty);
                Some((v, Walk { wrap, lo, hi }))
            }
        }
    }

    /// The indexed address of a walk that ended at the register `index`.
    pub(crate) fn indexed(self, base: Reg, index: Reg, scale: u8) -> Indexed {
        Indexed {
            base,
            index,
            c: self.lo as i32,
            wrap: self.wrap.unwrap_or(IrType::I64),
            scale,
        }
    }
}

/// The walks that reach an instruction while [`FuncCompiler::plan_folds`]
/// decides the function: per wrap width (none, `i32`, `i64`), the hull of
/// those that wrap at it.
#[derive(Clone, Copy, Default)]
struct Reach([Option<Walk>; 3]);

impl Reach {
    /// The one walk that starts at a `gep`'s index.
    const START: Reach = Reach([Some(Walk::START), None, None]);

    /// Adds `walk` to the walks that reach.
    fn add(&mut self, walk: Walk) {
        let slot = &mut self.0[match walk.wrap {
            None => 0,
            Some(IrType::I32) => 1,
            Some(_) => 2,
        }];
        *slot = Some(match *slot {
            Some(w) => Walk {
                lo: w.lo.min(walk.lo),
                hi: w.hi.max(walk.hi),
                ..w
            },
            None => walk,
        });
    }

    /// The walks past `link`, when every one may cross it.
    fn cross(self, link: Link) -> Option<Reach> {
        let mut past = Reach::default();
        for walk in self.0.into_iter().flatten() {
            past.add(walk.cross(link)?.1);
        }
        Some(past)
    }
}

/// Jump-target placeholder, patched once every block offset is known.
#[derive(Clone, Copy)]
enum Fixup {
    /// `Jmp` at this op index targets the given IR block.
    Jmp(usize, BlockId),
    /// `Br` at this op index: the true (`then`) or false arm targets the
    /// given IR block directly (no trampoline needed).
    BrArm(usize, bool, BlockId),
}

/// The lowerer of one module: the function being lowered and the tables and
/// output buffers every function of the module reuses.
pub(crate) struct FuncCompiler<'a> {
    m: &'a Module,
    pub(crate) f: &'a Function,
    fn_index: &'a HashMap<&'a str, u32>,
    /// The function being built — its register classes, ops, pool, call
    /// tables and block starts are the output buffers; [`Self::compile`]
    /// hands the module an exact-size copy.
    pub(crate) out: VmFunction,
    rpo: Rpo,
    /// [`inst_types`] of `f`.
    inst_ty: Vec<Option<IrType>>,
    /// Register of every non-void instruction, by `InstId`.
    inst_reg: Vec<Option<Reg>>,
    /// Pool index and prologue-loaded register of every interned constant.
    consts: SortedMap<PoolConst, (u16, Reg)>,
    /// Index into `out.call_targets` by callee symbol (symbols are interned,
    /// so one symbol is one target).
    target_idx: SortedMap<u32, u16>,
    block_off: Vec<Option<u32>>,
    fixups: Vec<Fixup>,
    /// `(phi register, source register)` copies of the edges of the
    /// terminator being emitted, then the temporaries of a multi-phi edge.
    edge_copies: Vec<(Reg, Reg)>,
    /// The entry prologue's `(pool index, register)` loads.
    loads: Vec<(u16, Reg)>,
    /// Widened-loop latch blocks mapped to their *scalar* header offset:
    /// the backedge must re-enter the scalar epilogue loop, not the vector
    /// preamble the header's block offset points at.
    pub(crate) latch_redirect: HashMap<u32, u32>,
    /// Per instruction, by `InstId`: how many uses its value has, and how
    /// many of them a fold accounts for ([`Self::plan_folds`]).
    uses: Vec<(u32, u32)>,
    /// Per instruction, by `InstId`: where in `reaches` the walks that
    /// reach it are (0 while none has).
    reach_at: Vec<u32>,
    /// The walks that reach each instruction some walk reaches, after an
    /// empty entry at 0 (few instructions are reached, so the table by
    /// `InstId` stays four bytes wide).
    reaches: Vec<Reach>,
    /// Per instruction, by `InstId`: folded into the accesses that use it,
    /// so never emitted.
    folded: Vec<bool>,
}

impl<'a> FuncCompiler<'a> {
    /// A lowerer for the functions of `m`, starting with `f`.
    fn new(m: &'a Module, f: &'a Function, fn_index: &'a HashMap<&'a str, u32>) -> Self {
        let out = VmFunction {
            name: String::new(),
            params: Vec::new(),
            num_regs: 0,
            reg_class: Vec::new(),
            num_vregs: 0,
            vreg_class: Vec::new(),
            vreg_width: Vec::new(),
            ops: Vec::new(),
            consts: Vec::new(),
            call_args: Vec::new(),
            call_targets: Vec::new(),
            block_starts: Vec::new(),
            pads: Vec::new(),
            ret: f.ret,
        };
        FuncCompiler {
            m,
            f,
            fn_index,
            out,
            rpo: Rpo::default(),
            inst_ty: Vec::new(),
            inst_reg: Vec::new(),
            consts: SortedMap(Vec::new()),
            target_idx: SortedMap(Vec::new()),
            block_off: Vec::new(),
            fixups: Vec::new(),
            edge_copies: Vec::new(),
            loads: Vec::new(),
            latch_redirect: HashMap::new(),
            uses: Vec::new(),
            reach_at: Vec::new(),
            reaches: Vec::new(),
            folded: Vec::new(),
        }
    }

    pub(crate) fn err_large(&self, what: &str) -> CompileError {
        CompileError::TooLarge {
            func: self.f.name.clone(),
            what: what.to_string(),
        }
    }

    pub(crate) fn new_vreg(&mut self, class: RegClass) -> Result<Reg, CompileError> {
        if self.out.reg_class.len() >= u16::MAX as usize {
            return Err(CompileError::TooManyRegs {
                func: self.f.name.clone(),
            });
        }
        let r = self.out.reg_class.len() as Reg;
        self.out.reg_class.push(class);
        Ok(r)
    }

    /// Interns a constant: pool entry plus the prologue-loaded register.
    fn const_vreg(&mut self, entry: PoolConst) -> Result<Reg, CompileError> {
        if let Some((_, r)) = self.consts.get(entry) {
            return Ok(r);
        }
        if self.out.consts.len() >= u16::MAX as usize {
            return Err(self.err_large("constant pool"));
        }
        let idx = self.out.consts.len() as u16;
        self.out.consts.push(entry);
        let r = self.new_vreg(entry.class())?;
        self.consts.insert(entry, (idx, r));
        Ok(r)
    }

    /// Allocates a vector register of the given class and lane width.
    pub(crate) fn new_vvreg(&mut self, class: RegClass, w: u8) -> Result<Reg, CompileError> {
        if self.out.vreg_class.len() >= u16::MAX as usize {
            return Err(CompileError::TooManyRegs {
                func: self.f.name.clone(),
            });
        }
        let r = self.out.vreg_class.len() as Reg;
        self.out.vreg_class.push(class);
        self.out.vreg_width.push(w);
        Ok(r)
    }

    /// A constant register usable *after* the prologue has been emitted:
    /// reuses the prologue-loaded register when the pool already holds the
    /// constant, otherwise appends a pool entry and materializes it with an
    /// `Op::Const` at the current emission point. Callers must ensure that
    /// point dominates every use (the widener only calls this from a loop
    /// preamble).
    pub(crate) fn inline_const(&mut self, entry: PoolConst) -> Result<Reg, CompileError> {
        if let Some((_, r)) = self.consts.get(entry) {
            return Ok(r);
        }
        if self.out.consts.len() >= u16::MAX as usize {
            return Err(self.err_large("constant pool"));
        }
        let idx = self.out.consts.len() as u16;
        self.out.consts.push(entry);
        let dst = self.new_vreg(entry.class())?;
        self.out.ops.push(Op::Const { dst, idx });
        Ok(dst)
    }

    /// The register holding `v` (instruction result, argument, or
    /// prologue-loaded constant).
    pub(crate) fn reg_of(&mut self, v: Value) -> Result<Reg, CompileError> {
        match v {
            Value::Inst(id) => {
                debug_assert!(
                    !self.folded[id.0 as usize],
                    "@{}: %{} is folded into its accesses, yet its register is read",
                    self.f.name, id.0
                );
                self.inst_reg[id.0 as usize].ok_or_else(|| CompileError::Malformed {
                    func: self.f.name.clone(),
                    what: format!("use of void value %{}", id.0),
                })
            }
            Value::Arg(i) => {
                if (i as usize) < self.f.params.len() {
                    Ok(i as Reg)
                } else {
                    Err(CompileError::Malformed {
                        func: self.f.name.clone(),
                        what: format!("argument {i} out of range"),
                    })
                }
            }
            other => {
                let entry = const_of(other).expect("non-ssa value is a constant");
                self.const_vreg(entry)
            }
        }
    }

    /// The register `lower` numbered the non-void instruction `iid` with.
    pub(crate) fn dst_of(&self, iid: InstId) -> Reg {
        self.inst_reg[iid.0 as usize].expect("non-void instruction has a register")
    }

    /// [`Function::value_type`], read from the per-instruction type table.
    fn type_of(&self, v: Value) -> IrType {
        value_type(&self.inst_ty, self.f, v)
    }

    /// The link `x` is in an index chain, if it is one: a payload-keeping
    /// integer cast, a `trunc i64 → i32`, or an `add`/`sub` of a constant
    /// at `i32` or `i64`.
    fn link(&self, x: InstId) -> Option<Link> {
        match *self.f.inst(x) {
            Inst::Cast { op, val, to } => {
                let from = self.type_of(val);
                if arith::keeps_payload(op, from, to) && to.is_int() {
                    Some(Link::Copy(val))
                } else if op == CastOp::Trunc && (from, to) == (IrType::I64, IrType::I32) {
                    Some(Link::Trunc(val))
                } else {
                    None
                }
            }
            Inst::Bin { op, lhs, rhs } => {
                let ty = self.type_of(lhs);
                if !matches!(ty, IrType::I32 | IrType::I64) {
                    return None;
                }
                match (op, lhs, rhs) {
                    (BinOpKind::Add, v, Value::ConstInt { val, .. })
                    | (BinOpKind::Add, Value::ConstInt { val, .. }, v) => {
                        Some(Link::Offset(ty, v, val))
                    }
                    (BinOpKind::Sub, v, Value::ConstInt { val, .. }) => {
                        Some(Link::Offset(ty, v, val.checked_neg()?))
                    }
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// Walks down from `v`, the index of a folded `gep`, through every link
    /// `through` admits and the walk may cross; returns the value whose
    /// register the access reads as its index, and the walk.
    pub(crate) fn index_chain(
        &self,
        mut v: Value,
        through: impl Fn(InstId) -> bool,
    ) -> (Value, Walk) {
        let mut walk = Walk::START;
        while let Value::Inst(x) = v {
            let link = self.link(x).filter(|_| through(x));
            let Some((next, past)) = link.and_then(|l| walk.cross(l)) else {
                break;
            };
            (v, walk) = (next, past);
        }
        (v, walk)
    }

    /// The address an access through `ptr` names: the indexed form of a
    /// folded `gep`, its index walked down the folded links, or `ptr`'s
    /// register.
    fn address(&mut self, ptr: Value) -> Result<Address, CompileError> {
        match ptr {
            Value::Inst(g) if self.folded[g.0 as usize] => {
                let Inst::Gep {
                    ptr: base,
                    index,
                    elem_size,
                } = *self.f.inst(g)
                else {
                    unreachable!("only a gep folds into an access")
                };
                let (index, walk) = self.index_chain(index, |x| self.folded[x.0 as usize]);
                let (base, index) = (self.reg_of(base)?, self.reg_of(index)?);
                Ok(Address::Indexed(walk.indexed(base, index, elem_size as u8)))
            }
            _ => Ok(Address::Reg(self.reg_of(ptr)?)),
        }
    }

    /// Decides which instructions of `f` fold into the accesses that use
    /// them, and so are not emitted: a `gep` whose every use is the address
    /// of a load or store and whose element size fits the indexed rows'
    /// `scale`, then, down its index, each [`Link`] whose every use is a
    /// walk that crosses it. Users come before their operands in reverse
    /// RPO (a phi, the one use from below, is no walk), so an instruction
    /// is decided once every walk that reaches it is known. A widened
    /// loop's vector code reads the registers of the values it takes from
    /// outside the loop, so those count as one more use and never fold.
    fn plan_folds(&mut self, rpo: &[BlockId], plans: &HashMap<u32, vectorize::LoopPlan>) {
        let f = self.f;
        let n = f.insts.len();
        self.uses.clear();
        self.uses.resize(n, (0, 0));
        self.reach_at.clear();
        self.reach_at.resize(n, 0);
        self.reaches.clear();
        self.reaches.push(Reach::default());
        self.folded.clear();
        self.folded.resize(n, false);
        let uses = &mut self.uses;
        let count = |uses: &mut Vec<(u32, u32)>, v: Value| {
            if let Value::Inst(id) = v {
                uses[id.0 as usize].0 += 1;
            }
        };
        for &bb in rpo {
            for &iid in &f.block(bb).insts {
                let inst = f.inst(iid);
                inst.for_each_operand(|v| count(uses, v));
                if let Inst::Load {
                    ptr: Value::Inst(g),
                    ..
                }
                | Inst::Store {
                    ptr: Value::Inst(g),
                    ..
                } = inst
                {
                    uses[g.0 as usize].1 += 1;
                }
            }
            if let Some(t) = &f.block(bb).term {
                t.for_each_operand(|v| count(uses, v));
            }
        }
        for plan in plans.values() {
            plan.for_each_input(f, &mut |id| count(uses, Value::Inst(id)));
        }
        for &bb in rpo.iter().rev() {
            for &iid in f.block(bb).insts.iter().rev() {
                let i = iid.0 as usize;
                let (all, accounted) = self.uses[i];
                if all == 0 || all != accounted {
                    continue;
                }
                let next = match *f.inst(iid) {
                    Inst::Gep {
                        index, elem_size, ..
                    } if elem_size <= u8::MAX.into() => Some((index, Reach::START)),
                    // Every use is a walk that reached it: fold if all cross.
                    _ if self.reach_at[i] != 0 => self.link(iid).and_then(|l| {
                        let reach = self.reaches[self.reach_at[i] as usize];
                        Some((l.operand(), reach.cross(l)?))
                    }),
                    _ => None,
                };
                let Some((v, past)) = next else { continue };
                self.folded[i] = true;
                if let Value::Inst(id) = v {
                    let j = id.0 as usize;
                    self.uses[j].1 += 1;
                    if self.reach_at[j] == 0 {
                        self.reach_at[j] = self.reaches.len() as u32;
                        self.reaches.push(Reach::default());
                    }
                    let reach = &mut self.reaches[self.reach_at[j] as usize];
                    past.0.into_iter().flatten().for_each(|w| reach.add(w));
                }
            }
        }
    }

    pub(crate) fn mark_block_start(&mut self) {
        self.out.block_starts.push(self.out.ops.len() as u32);
    }

    /// Appends to `edge_copies` the phi copies needed on the edge
    /// `pred → succ`, `(phi register, source register)` in phi order, and
    /// returns where they are.
    fn edge_pairs(&mut self, pred: BlockId, succ: BlockId) -> Result<Range<usize>, CompileError> {
        let f = self.f;
        let at = self.edge_copies.len();
        for &iid in &f.block(succ).insts {
            let Inst::Phi { incoming, .. } = f.inst(iid) else {
                break;
            };
            let Some((_, val)) = incoming.iter().find(|(b, _)| *b == pred) else {
                return Err(CompileError::Malformed {
                    func: f.name.clone(),
                    what: format!("phi %{} has no edge for predecessor {}", iid.0, pred.0),
                });
            };
            let dst = self.dst_of(iid);
            let src = self.reg_of(*val)?;
            self.edge_copies.push((dst, src));
        }
        Ok(at..self.edge_copies.len())
    }

    /// Emits the copies `edge_copies[pairs]` of one edge with
    /// simultaneous-assignment semantics: they move directly unless a phi
    /// source is another phi's destination, and then through fresh
    /// temporaries.
    fn emit_edge_moves(&mut self, pairs: Range<usize>) -> Result<(), CompileError> {
        let copies = &self.edge_copies[pairs.clone()];
        let overlap = |&(d, s): &(Reg, Reg)| d != s && copies.iter().any(|c| c.0 == s);
        if !copies.iter().any(overlap) {
            for &(dst, src) in copies.iter().filter(|(dst, src)| dst != src) {
                self.out.ops.push(Op::Mov { dst, src });
            }
        } else {
            let temps = self.edge_copies.len();
            for i in pairs {
                let (dst, src) = self.edge_copies[i];
                let t = self.new_vreg(self.out.reg_class[dst as usize])?;
                self.out.ops.push(Op::Mov { dst: t, src });
                self.edge_copies.push((dst, t));
            }
            for i in temps..self.edge_copies.len() {
                let (dst, t) = self.edge_copies[i];
                self.out.ops.push(Op::Mov { dst, src: t });
            }
            self.edge_copies.truncate(temps);
        }
        Ok(())
    }

    fn emit_inst(&mut self, iid: InstId, inst: &Inst) -> Result<(), CompileError> {
        if self.folded[iid.0 as usize] {
            return Ok(()); // computed by the accesses it folded into
        }
        match inst {
            Inst::Phi { .. } => {} // eliminated into edge copies
            Inst::Alloca { ty, count, .. } => {
                let bytes = ty.size().max(1) * (*count).max(1);
                let bytes = u32::try_from(bytes).map_err(|_| self.err_large("alloca size"))?;
                let dst = self.dst_of(iid);
                self.out.ops.push(Op::Alloca { dst, bytes });
            }
            Inst::Load { ty, ptr } => {
                let dst = self.dst_of(iid);
                let addr = self.address(*ptr)?;
                self.out.ops.push(addr.load(dst, *ty));
            }
            Inst::Store { val, ptr } => {
                let src = self.reg_of(*val)?;
                let ty = self.type_of(*val);
                let addr = self.address(*ptr)?;
                self.out.ops.push(addr.store(src, ty));
            }
            Inst::Gep {
                ptr,
                index,
                elem_size,
            } => {
                let elem_size =
                    u32::try_from(*elem_size).map_err(|_| self.err_large("gep element size"))?;
                let dst = self.dst_of(iid);
                let base = self.reg_of(*ptr)?;
                let index = self.reg_of(*index)?;
                self.out.ops.push(Op::Gep {
                    dst,
                    base,
                    index,
                    elem_size,
                });
            }
            Inst::Bin { op, lhs, rhs } => {
                let ty = self.type_of(*lhs);
                let dst = self.dst_of(iid);
                let lhs = self.reg_of(*lhs)?;
                let rhs = self.reg_of(*rhs)?;
                self.out.ops.push(Op::Bin {
                    op: *op,
                    ty,
                    dst,
                    lhs,
                    rhs,
                });
            }
            Inst::Cmp { pred, lhs, rhs } => {
                let ty = self.type_of(*lhs);
                let dst = self.dst_of(iid);
                let lhs = self.reg_of(*lhs)?;
                let rhs = self.reg_of(*rhs)?;
                self.out.ops.push(Op::Cmp {
                    pred: *pred,
                    ty,
                    dst,
                    lhs,
                    rhs,
                });
            }
            Inst::Cast { op, val, to } => {
                let from = self.type_of(*val);
                let dst = self.dst_of(iid);
                let src = self.reg_of(*val)?;
                self.out.ops.push(cast_op(*op, from, *to, dst, src));
            }
            Inst::Select { cond, t, f: fv } => {
                let dst = self.dst_of(iid);
                let cond = self.reg_of(*cond)?;
                let t = self.reg_of(*t)?;
                let fv = self.reg_of(*fv)?;
                self.out.ops.push(Op::Select {
                    dst,
                    cond,
                    t,
                    f: fv,
                });
            }
            Inst::Call { callee, args, ty } => {
                // Same precedence as the interpreter: module functions
                // shadow runtime shims, resolved once here.
                let SymbolId(sym) = callee.0;
                let target = match self.target_idx.get(sym) {
                    Some(i) => i,
                    None => {
                        if self.out.call_targets.len() >= u16::MAX as usize {
                            return Err(self.err_large("call-target table"));
                        }
                        let name = self.m.symbol_name(callee.0);
                        let i = self.out.call_targets.len() as u16;
                        self.out.call_targets.push(match self.fn_index.get(name) {
                            Some(&i) => CallTarget::Bytecode(i),
                            None => CallTarget::Runtime(callee.0),
                        });
                        self.target_idx.insert(sym, i);
                        i
                    }
                };
                let args_at = u32::try_from(self.out.call_args.len())
                    .map_err(|_| self.err_large("call-argument pool"))?;
                let nargs =
                    u16::try_from(args.len()).map_err(|_| self.err_large("argument count"))?;
                for a in args {
                    let r = self.reg_of(*a)?;
                    self.out.call_args.push(r);
                }
                let dst = if *ty == IrType::Void {
                    None
                } else {
                    Some(self.dst_of(iid))
                };
                self.out.ops.push(Op::Call {
                    target,
                    args_at,
                    nargs,
                    ret: *ty,
                    dst,
                });
            }
        }
        Ok(())
    }

    fn emit_terminator(&mut self, bb: BlockId, term: &Terminator) -> Result<(), CompileError> {
        match term {
            Terminator::Br { target, .. } => {
                self.edge_copies.clear();
                let pairs = self.edge_pairs(bb, *target)?;
                self.emit_edge_moves(pairs)?;
                // A widened loop's latch re-enters the *scalar* copy of the
                // header (already emitted — headers precede latches in RPO);
                // the header's block offset points at the vector preamble,
                // which must run only on loop entry.
                if let Some(&off) = self.latch_redirect.get(&bb.0) {
                    self.out.ops.push(Op::Jmp { target: off });
                } else {
                    self.fixups.push(Fixup::Jmp(self.out.ops.len(), *target));
                    self.out.ops.push(Op::Jmp { target: 0 });
                }
            }
            Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
                ..
            } => {
                let cond = self.reg_of(*cond)?;
                self.edge_copies.clear();
                let then_pairs = self.edge_pairs(bb, *then_bb)?;
                let else_pairs = self.edge_pairs(bb, *else_bb)?;
                let br_at = self.out.ops.len();
                self.out.ops.push(Op::Br {
                    cond,
                    then_t: 0,
                    else_t: 0,
                });
                // Critical-edge split: an edge that needs copies gets a
                // trampoline block right after the branch.
                for (is_then, succ, pairs) in
                    [(true, *then_bb, then_pairs), (false, *else_bb, else_pairs)]
                {
                    if pairs.is_empty() {
                        self.fixups.push(Fixup::BrArm(br_at, is_then, succ));
                    } else {
                        let tramp = self.out.ops.len() as u32;
                        self.mark_block_start();
                        self.emit_edge_moves(pairs)?;
                        self.fixups.push(Fixup::Jmp(self.out.ops.len(), succ));
                        self.out.ops.push(Op::Jmp { target: 0 });
                        if let Op::Br { then_t, else_t, .. } = &mut self.out.ops[br_at] {
                            if is_then {
                                *then_t = tramp;
                            } else {
                                *else_t = tramp;
                            }
                        }
                    }
                }
            }
            Terminator::Ret(v) => {
                let src = match v {
                    Some(v) => Some(self.reg_of(*v)?),
                    None => None,
                };
                self.out.ops.push(Op::Ret { src });
            }
            Terminator::Unreachable => self.out.ops.push(Op::Unreachable),
        }
        Ok(())
    }

    fn patch_fixups(&mut self) -> Result<(), CompileError> {
        for i in 0..self.fixups.len() {
            let fix = self.fixups[i];
            let (at, block) = match fix {
                Fixup::Jmp(at, b) | Fixup::BrArm(at, _, b) => (at, b),
            };
            let off = self.block_off[block.0 as usize].ok_or_else(|| CompileError::Malformed {
                func: self.f.name.clone(),
                what: format!("branch to unreachable block {}", block.0),
            })?;
            match (&mut self.out.ops[at], fix) {
                (Op::Jmp { target }, Fixup::Jmp(..)) => *target = off,
                (Op::Br { then_t, .. }, Fixup::BrArm(_, true, _)) => *then_t = off,
                (Op::Br { else_t, .. }, Fixup::BrArm(_, false, _)) => *else_t = off,
                _ => unreachable!("fixup does not match its op"),
            }
        }
        Ok(())
    }

    /// Lowers, optimizes and allocates `f`; returns the compiled body plus
    /// the number of peephole-removed ops (the `vm.compile.peephole.removed`
    /// counter).
    fn compile(
        &mut self,
        f: &'a Function,
        vector_width: u8,
        stats: &mut vectorize::PlanStats,
        analysis: &mut Analysis,
    ) -> Result<(VmFunction, usize), CompileError> {
        // The three stages as child spans of `vm.compile`; without a session
        // this is the one thread-local check the function pays for tracing.
        let traced = omplt_trace::active();
        let stage = |name| traced.then(|| omplt_trace::span(name));

        // The precondition the peephole's one liveness solve rests on.
        debug_assert!(
            !omplt_midend::has_dead_code(f, &mut Dce::default()),
            "@{}: dead code reached the lowerer",
            f.name
        );
        let lower = stage("vm.compile.lower");
        let mut rpo = std::mem::take(&mut self.rpo);
        let lowered = self.lower(f, rpo.compute(f), vector_width, stats);
        self.rpo = rpo;
        lowered?;
        drop(lower);

        let peephole = stage("vm.compile.peephole");
        let removed = peephole::optimize_in(&mut self.out, analysis);
        drop(peephole);

        let regalloc = stage("vm.compile.regalloc");
        regalloc::allocate_in(&mut self.out, analysis);
        drop(regalloc);
        Ok((self.out.clone(), removed))
    }

    /// IR → naive bytecode over virtual registers, in `out`.
    fn lower(
        &mut self,
        f: &'a Function,
        rpo: &[BlockId],
        vector_width: u8,
        stats: &mut vectorize::PlanStats,
    ) -> Result<(), CompileError> {
        self.f = f;
        inst_types(&mut self.inst_ty, f, rpo);
        let plans = if vector_width >= 2 {
            vectorize::plan_loops(f, vector_width, stats)
        } else {
            HashMap::new()
        };
        self.plan_folds(rpo, &plans);
        self.inst_reg.clear();
        self.inst_reg.resize(f.insts.len(), None);
        self.consts.0.clear();
        self.target_idx.0.clear();
        self.block_off.clear();
        self.block_off.resize(f.blocks.len(), None);
        self.fixups.clear();
        self.latch_redirect.clear();
        let out = &mut self.out;
        out.name.clear();
        out.name.push_str(&f.name);
        out.params.clear();
        out.params.extend(0..f.params.len() as u16);
        out.ret = f.ret;
        out.reg_class.clear();
        out.vreg_class.clear();
        out.vreg_width.clear();
        out.ops.clear();
        out.consts.clear();
        out.call_args.clear();
        out.call_targets.clear();
        out.block_starts.clear();
        out.pads.clear();

        // Virtual registers: arguments first (frame entry copies them in).
        for &p in &f.params {
            self.new_vreg(RegClass::of(p))?;
        }

        // Then one per SSA value.
        for &bb in rpo {
            for &iid in &f.block(bb).insts {
                let ty = self.inst_ty[iid.0 as usize].expect("typed above");
                if ty != IrType::Void {
                    self.inst_reg[iid.0 as usize] = Some(self.new_vreg(RegClass::of(ty))?);
                }
            }
        }

        // Pre-intern every constant any reachable instruction, phi edge, or
        // terminator mentions, so the prologue can be emitted *first* (as the
        // head of the entry block) and no offsets ever need shifting. A
        // folded link's constant is the access's `c`, not a register. A
        // widened loop's own constants are met at its header.
        for &bb in rpo {
            for entry in plans.get(&bb.0).into_iter().flat_map(|p| p.consts()) {
                self.const_vreg(entry)?;
            }
            for &iid in &f.block(bb).insts {
                let link = self.folded[iid.0 as usize]
                    .then(|| self.link(iid))
                    .flatten();
                let mut failed = None;
                f.inst(iid).for_each_operand(|v| {
                    let read = link.is_none_or(|l| l.operand() == v);
                    if let Some(entry) = const_of(v).filter(|_| read) {
                        failed = failed.take().or(self.const_vreg(entry).err());
                    }
                });
                if let Some(e) = failed {
                    return Err(e);
                }
            }
            let term_val = match &f.block(bb).term {
                Some(Terminator::CondBr { cond, .. }) => Some(*cond),
                Some(Terminator::Ret(Some(v))) => Some(*v),
                _ => None,
            };
            if let Some(entry) = term_val.and_then(const_of) {
                self.const_vreg(entry)?;
            }
        }

        // Emission. The prologue belongs to the entry block: block offset 0
        // covers it, so a backedge into the entry re-runs the (idempotent)
        // constant loads — liveness-based intervals keep those registers from
        // being reused across any such edge.
        for (i, &bb) in rpo.iter().enumerate() {
            self.block_off[bb.0 as usize] = Some(self.out.ops.len() as u32);
            self.mark_block_start();
            if i == 0 {
                // In pool order — the order the constants were first met in —
                // whatever order the table keeps them in: the emitted bytes
                // must be a function of the module alone.
                self.loads.clear();
                self.loads
                    .extend(self.consts.0.iter().map(|&(_, load)| load));
                self.loads.sort_unstable();
                for &(idx, dst) in &self.loads {
                    self.out.ops.push(Op::Const { dst, idx });
                }
            }
            if let Some(plan) = plans.get(&bb.0) {
                // Vector preamble + main loop + exit combine, then the scalar
                // copy of the loop as its epilogue. The block offset recorded
                // above points at the preamble, so entry edges run it; the
                // latch's backedge is redirected past it (`latch_redirect`).
                vectorize::emit_vector_loop(self, plan)?;
                self.mark_block_start();
            }
            for &iid in &f.block(bb).insts {
                self.emit_inst(iid, f.inst(iid))?;
            }
            let term = f
                .block(bb)
                .term
                .as_ref()
                .ok_or_else(|| CompileError::Malformed {
                    func: f.name.clone(),
                    what: format!("unterminated block {}", f.block(bb).name),
                })?;
            self.emit_terminator(bb, term)?;
        }
        self.patch_fixups()?;

        if self.out.ops.len() > u32::MAX as usize {
            return Err(self.err_large("op stream"));
        }
        self.out.num_regs = self.out.reg_class.len() as u16;
        self.out.num_vregs = self.out.vreg_class.len() as u16;
        Ok(())
    }
}
