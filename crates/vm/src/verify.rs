//! Load-time bytecode verification.
//!
//! Compiled bytecode is checked before the first op executes (and again
//! under `--verify-each`, after the driver's IR-level passes): the dispatch
//! loop indexes registers, pools, and jump targets without bounds anxiety
//! *because* this pass already proved them in-bounds, every register is
//! written before it is read on every path, and every operand register has
//! the class its op's row gives it.
//!
//! Four phases, mirroring how a JVM-style verifier is layered:
//!
//! 1. **Structure** — indices in range, jump targets land on block starts,
//!    every block ends in exactly one terminator. Later phases assume this,
//!    so structural errors short-circuit.
//! 2. **Types** — the op table's operand walk (`Op::operands`): each
//!    register in the class its row gives it (a fixed class, a type
//!    immediate's, or another operand's), each vector register at the row's
//!    lane count. Then only the rules a class cannot state: a `const`'s pool
//!    class; operator against type for `bin`, `binjmp`, `vbin` and `vreduce`
//!    (pointer arithmetic takes any offset but a float); predicate against
//!    type for `cmp` and `cmpbr`, an integer predicate and type for
//!    `vlatch`; a conversion's (reads, writes) pair; a
//!    call's void result and, at every direct call, the callee's boundary
//!    (exactly its parameter count, each argument register in its parameter
//!    register's class, the result in its return class); `ret` against the
//!    function's return class; `vextract`'s lane; void element types; an
//!    indexed address's wrap; the lane-count range. Registers and the engine
//!    boundary carry untagged payloads, so this is what keeps a payload from
//!    being read at another class, on either side of a call.
//! 3. **Fault pads** — a trap under a pad resumes at its target
//!    ([`crate::ops::Pad`]), and the replay from there is exact only if the
//!    trap left nothing behind: the range lies in one block, holds no store,
//!    scatter, call or alloca, and writes no register live at the target,
//!    a block start outside the range.
//! 4. **Definite initialization** — forward must-be-defined dataflow over
//!    the block graph, where a pad is one more edge from the start of its
//!    range to its target: a register read before any write on some path is
//!    an error, not a zero.
//!
//! Phases 3 and 4 run on the compiler's own analyses
//! ([`crate::regalloc::Analysis`]): the CFG the peephole stages and the
//! allocator read, where a pad is an edge from its range's block, and, for a
//! function with pads, the same liveness over both register files. Both are
//! built and solved afresh from the stream being checked, so a decoded
//! image or a cache hit is held to what it says, not to what its compiler
//! knew. [`verify_module`] keeps one workspace for all of a module's
//! functions.

use crate::ops::{
    CallTarget, Field, Op, Operand, Reg, RegClass, VmFunction, VmModule, Want, MAX_LANES,
};
use crate::regalloc::{bit_set, bit_test, row_words, vbit, Analysis};
use omplt_ir::{CastOp, IrType};

/// One verification failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyError {
    /// Function name.
    pub func: String,
    /// Op index the error is anchored to.
    pub at: usize,
    /// What is wrong.
    pub what: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "@{}: op {}: {}", self.func, self.at, self.what)
    }
}

/// Verifies every function; returns all errors found.
pub fn verify_module(m: &VmModule) -> Vec<VerifyError> {
    if omplt_trace::active() {
        omplt_trace::count("vm.verify.functions", m.funcs.len() as u64);
    }
    let mut errs = Vec::new();
    if omplt_fault::fire("vm.verify.reject") {
        errs.push(VerifyError {
            func: m
                .funcs
                .first()
                .map_or_else(|| "<empty>".to_string(), |f| f.name.clone()),
            at: 0,
            what: "injected verification failure (fault site 'vm.verify.reject')".to_string(),
        });
    }
    let mut ws = Workspace::default();
    for f in &m.funcs {
        errs.extend(verify_in(f, &m.funcs, &mut ws));
    }
    errs
}

/// Verifies one function. `funcs` is its module's function table, which
/// [`CallTarget::Bytecode`] indices name (module-level information the
/// function cannot carry itself): it bounds them and gives each direct call
/// its callee's parameters and return type.
pub fn verify_function(f: &VmFunction, funcs: &[VmFunction]) -> Vec<VerifyError> {
    verify_in(f, funcs, &mut Workspace::default())
}

/// What the dataflow phases work in, reused from function to function: the
/// shared CFG and liveness, and the definite-init rows.
#[derive(Default)]
struct Workspace {
    a: Analysis,
    /// What is defined entering each block (row `b` = `[b * words..(b + 1)
    /// * words]`), and the row of the op being walked.
    defined: Vec<u64>,
    cur: Vec<u64>,
}

/// [`verify_function`] in the caller's workspace.
fn verify_in(f: &VmFunction, funcs: &[VmFunction], ws: &mut Workspace) -> Vec<VerifyError> {
    let mut errs = Vec::new();
    structural(f, funcs.len(), &mut errs);
    if !errs.is_empty() {
        // Type and dataflow phases index tables this phase just rejected.
        return errs;
    }
    types(f, funcs, &mut errs);
    let a = &mut ws.a;
    a.dead.clear();
    a.dead.resize(f.ops.len(), false);
    a.cfg.build(f, &a.dead);
    // Only the pad rule reads liveness.
    if !f.pads.is_empty() {
        a.live.solve(f, &a.cfg, &a.dead);
        pads(f, a, &mut errs);
    }
    definite_init(f, ws, &mut errs);
    errs
}

fn err(errs: &mut Vec<VerifyError>, f: &VmFunction, at: usize, what: String) {
    errs.push(VerifyError {
        func: f.name.clone(),
        at,
        what,
    });
}

fn structural(f: &VmFunction, num_funcs: usize, errs: &mut Vec<VerifyError>) {
    if f.ops.is_empty() {
        err(errs, f, 0, "empty function body".to_string());
        return;
    }
    if f.reg_class.len() != f.num_regs as usize {
        err(
            errs,
            f,
            0,
            format!(
                "register class table has {} entries for {} registers",
                f.reg_class.len(),
                f.num_regs
            ),
        );
        return;
    }
    if f.vreg_class.len() != f.num_vregs as usize || f.vreg_width.len() != f.num_vregs as usize {
        err(
            errs,
            f,
            0,
            format!(
                "vector register tables have {}/{} entries for {} vector registers",
                f.vreg_class.len(),
                f.vreg_width.len(),
                f.num_vregs
            ),
        );
        return;
    }
    if f.block_starts.first() != Some(&0) {
        err(errs, f, 0, "first block does not start at op 0".to_string());
    }
    if !f.block_starts.windows(2).all(|w| w[0] < w[1]) {
        err(
            errs,
            f,
            0,
            "block starts are not strictly increasing".to_string(),
        );
    }
    if let Some(&last) = f.block_starts.last() {
        if last as usize >= f.ops.len() {
            err(errs, f, 0, format!("block start {last} out of bounds"));
        }
    }
    if !errs.is_empty() {
        return;
    }
    for &p in &f.params {
        if p >= f.num_regs {
            err(errs, f, 0, format!("parameter register r{p} out of range"));
        }
    }
    for (pc, op) in f.ops.iter().enumerate() {
        let check_reg = |errs: &mut Vec<VerifyError>, r: u16| {
            if r >= f.num_regs {
                err(errs, f, pc, format!("register r{r} out of range"));
            }
        };
        if let Some(d) = op.def() {
            check_reg(errs, d);
        }
        let check_vreg = |errs: &mut Vec<VerifyError>, v: u16| {
            if v >= f.num_vregs {
                err(errs, f, pc, format!("vector register v{v} out of range"));
            }
        };
        if let Some(v) = op.vdef() {
            check_vreg(errs, v);
        }
        op.for_each_vuse(|v| check_vreg(errs, v));
        // Argument-pool ranges are validated on the Call op itself; reading
        // the pool for use-collection is guarded below.
        match *op {
            Op::Const { idx, .. } if idx as usize >= f.consts.len() => {
                err(errs, f, pc, format!("constant index {idx} out of range"));
            }
            Op::Call {
                target,
                args_at,
                nargs,
                ..
            } => {
                if target as usize >= f.call_targets.len() {
                    err(errs, f, pc, format!("call target {target} out of range"));
                } else if let CallTarget::Bytecode(i) = f.call_targets[target as usize] {
                    if i as usize >= num_funcs {
                        err(errs, f, pc, format!("call to nonexistent function #{i}"));
                    }
                }
                let lo = args_at as usize;
                let hi = lo + nargs as usize;
                if hi > f.call_args.len() {
                    err(
                        errs,
                        f,
                        pc,
                        format!("call arguments {lo}..{hi} out of range"),
                    );
                } else {
                    for &r in &f.call_args[lo..hi] {
                        check_reg(errs, r);
                    }
                }
            }
            _ => {}
        }
        op.for_each_target(|t| check_jump(f, pc, t, errs));
        match *op {
            Op::Call { .. } => {} // argument registers checked above
            other => other.for_each_use(&[], |r| {
                if r >= f.num_regs {
                    err(errs, f, pc, format!("register r{r} out of range"));
                }
            }),
        }
    }
    if !errs.is_empty() {
        return;
    }
    // A pad covers a range of one block and resumes at a block start
    // outside it.
    for (k, p) in f.pads.iter().enumerate() {
        let (start, end, target) = (p.start, p.end, p.target);
        let what = if start >= end || end as usize > f.ops.len() {
            format!("fault pad {k}: range {start}..{end} is empty or out of bounds")
        } else if f.block_of(start) != f.block_of(end - 1) {
            format!("fault pad {k}: range {start}..{end} spans more than one block")
        } else if (start..end).contains(&target) || f.block_starts.binary_search(&target).is_err() {
            format!("fault pad {k}: target {target} is not a block start outside its range")
        } else {
            continue;
        };
        err(errs, f, start as usize, what);
    }
    // Every block must end in a terminator, and terminators may appear
    // nowhere else (the dataflow phase walks blocks on that assumption).
    for b in 0..f.block_starts.len() {
        let range = f.block_range(b);
        let last = range.end - 1;
        if !f.ops[last].is_terminator() {
            err(
                errs,
                f,
                last,
                format!("block {b} does not end in a terminator"),
            );
        }
        for pc in range.start..last {
            if f.ops[pc].is_terminator() {
                err(
                    errs,
                    f,
                    pc,
                    format!("terminator in the middle of block {b}"),
                );
            }
        }
    }
}

/// A direct call to `callee` passing `args` and expecting `ret`: the arity,
/// each argument's class against its parameter register's, and the return
/// class against the callee's. (A parameter register the callee's own table
/// does not cover is reported when the callee is verified.)
fn call_boundary(
    errs: &mut Vec<VerifyError>,
    f: &VmFunction,
    pc: usize,
    args: &[Reg],
    ret: IrType,
    callee: &VmFunction,
) {
    let name = &callee.name;
    if args.len() != callee.params.len() {
        let want = callee.params.len();
        let what = format!(
            "call to @{name} passes {} arguments, it takes {want}",
            args.len()
        );
        err(errs, f, pc, what);
        return;
    }
    for (k, (&a, &p)) in args.iter().zip(&callee.params).enumerate() {
        let have = f.reg_class[a as usize];
        if let Some(&want) = callee.reg_class.get(p as usize).filter(|&&w| w != have) {
            let what = format!(
                "type mismatch: argument {k} of call to @{name} is {have} r{a}, its parameter is {want}"
            );
            err(errs, f, pc, what);
        }
    }
    let void = ret == IrType::Void || callee.ret == IrType::Void;
    if !void && RegClass::of(ret) != RegClass::of(callee.ret) {
        let what = format!(
            "type mismatch: call expects {ret} from @{name}, which returns {}",
            callee.ret
        );
        err(errs, f, pc, what);
    }
}

fn check_jump(f: &VmFunction, pc: usize, target: u32, errs: &mut Vec<VerifyError>) {
    if target as usize >= f.ops.len() {
        err(errs, f, pc, format!("jump target {target} out of bounds"));
    } else if f.block_starts.binary_search(&target).is_err() {
        err(
            errs,
            f,
            pc,
            format!("jump target {target} is not a block start"),
        );
    }
}

/// [`err`] with the message `what` makes, kept out of the caller's line.
#[cold]
fn report(errs: &mut Vec<VerifyError>, f: &VmFunction, at: usize, what: impl FnOnce() -> String) {
    err(errs, f, at, what());
}

/// The class register `o` has.
fn class_of(f: &VmFunction, o: Operand) -> RegClass {
    match o {
        Operand::R(r) => f.reg_class[r as usize],
        Operand::V(v) => f.vreg_class[v as usize],
    }
}

/// Phase 2: the op table's operand walk — each register in the class its
/// row gives it, each vector register at the row's lane count — and the
/// rules a class cannot state.
fn types(f: &VmFunction, funcs: &[VmFunction], errs: &mut Vec<VerifyError>) {
    for (pc, &op) in f.ops.iter().enumerate() {
        let name = || op.name().to_ascii_lowercase();
        let mismatch = |errs: &mut Vec<VerifyError>, what: String| {
            err(errs, f, pc, format!("type mismatch: {what}"));
        };
        let class = |errs: &mut Vec<VerifyError>, field: &str, o: Operand, want: RegClass| {
            let have = class_of(f, o);
            if have != want {
                report(errs, f, pc, || {
                    format!(
                        "type mismatch: {} {field} {o} is {have}, expected {want}",
                        name()
                    )
                });
            }
        };
        let void = |errs: &mut Vec<VerifyError>, ty: IrType| {
            if ty == IrType::Void {
                mismatch(errs, format!("{} of void", name()));
            }
        };
        // The walk runs for every operand the verifier loads: its closure is
        // inlined at every register of every row, and what it reports is
        // formatted out of line.
        let mut lanes = None;
        op.operands(
            #[inline(always)]
            |item| match item {
                // Lane counts are part of the type, not a runtime property.
                Field::Lanes(w) => {
                    if !(2..=MAX_LANES as u8).contains(&w) {
                        report(errs, f, pc, || {
                            format!("bad lane count {w} (must be 2..={MAX_LANES})")
                        });
                    }
                    lanes = Some(w);
                }
                Field::Reg(field, o, want) => {
                    match want {
                        Want::Any => {}
                        Want::Is(want) => class(errs, field, o, want),
                        Want::As(other) => class(errs, field, o, class_of(f, other)),
                    }
                    if let (Operand::V(v), Some(w)) = (o, lanes) {
                        let have = f.vreg_width[v as usize];
                        if have != w {
                            report(errs, f, pc, || {
                                let name = name();
                                format!(
                                    "{name} {field} v{v} has width {have} but op uses {w} lanes"
                                )
                            });
                        }
                    }
                }
            },
        );
        // The rules a class cannot state.
        match op {
            Op::Const { dst, idx } => {
                class(errs, "dst", Operand::R(dst), f.consts[idx as usize].class());
            }
            Op::Bin {
                op: bop, ty, rhs, ..
            }
            | Op::BinJmp {
                op: bop, ty, rhs, ..
            } => {
                if bop.is_float() != ty.is_float() {
                    let kind = if bop.is_float() { "float" } else { "integer" };
                    mismatch(errs, format!("{kind} op {} at type {ty}", bop.mnemonic()));
                }
                // Pointer arithmetic takes any offset but a float.
                if ty != IrType::Ptr {
                    class(errs, "rhs", Operand::R(rhs), RegClass::of(ty));
                } else if f.reg_class[rhs as usize] == RegClass::Float {
                    mismatch(errs, format!("{} rhs r{rhs} is a float offset", name()));
                }
            }
            Op::VBin { op: bop, ty, .. } | Op::VReduce { op: bop, ty, .. }
                if ty == IrType::Ptr || bop.is_float() != ty.is_float() =>
            {
                mismatch(
                    errs,
                    format!("{} op {} at type {ty}", name(), bop.mnemonic()),
                );
            }
            Op::Cmp { pred, ty, .. } | Op::CmpBr { pred, ty, .. }
                if pred.is_float() != ty.is_float() =>
            {
                let kind = if pred.is_float() { "float" } else { "integer" };
                mismatch(errs, format!("{kind} compare at type {ty}"));
            }
            // A vector latch steps and compares an integer induction variable.
            Op::VLatch { pred, ty, .. } if pred.is_float() || !ty.is_int() => {
                mismatch(errs, format!("vlatch {} at type {ty}", pred.mnemonic()));
            }
            // A conversion's operator fixes the class it reads and the class
            // it writes, and the engine reads the source payload at exactly
            // that class.
            Op::Cast {
                op: cop, from, to, ..
            }
            | Op::VCast {
                op: cop, from, to, ..
            } => {
                use {CastOp::*, RegClass::*};
                let (reads, writes) = match cop {
                    Trunc | ZExt | SExt => (Int, Int),
                    SiToFp | UiToFp => (Int, Float),
                    FpToSi | FpToUi => (Float, Int),
                    FpTrunc | FpExt => (Float, Float),
                    PtrToInt => (Ptr, Int),
                    IntToPtr => (Int, Ptr),
                };
                if RegClass::of(from) != reads {
                    mismatch(errs, format!("{} from {from}", cop.mnemonic()));
                }
                if RegClass::of(to) != writes {
                    mismatch(errs, format!("{} to {to}", cop.mnemonic()));
                }
            }
            Op::Call {
                target,
                args_at,
                nargs,
                ret,
                dst,
            } => {
                if let (IrType::Void, Some(d)) = (ret, dst) {
                    mismatch(errs, format!("void call writes r{d}"));
                }
                if let CallTarget::Bytecode(i) = f.call_targets[target as usize] {
                    let args = &f.call_args[args_at as usize..][..nargs as usize];
                    call_boundary(errs, f, pc, args, ret, &funcs[i as usize]);
                }
            }
            Op::Ret { src: Some(r) } if f.ret != IrType::Void => {
                class(errs, "src", Operand::R(r), RegClass::of(f.ret));
            }
            Op::VExtract { src, lane, .. } => {
                let have = f.vreg_width[src as usize];
                if lane >= have {
                    let what = format!("lane {lane} out of range for v{src} of width {have}");
                    err(errs, f, pc, what);
                }
            }
            Op::LoadIdx { ty, wrap, .. }
            | Op::StoreIdx { ty, wrap, .. }
            | Op::VLoadIdx { ty, wrap, .. }
            | Op::VStoreIdx { ty, wrap, .. } => {
                void(errs, ty);
                // An indexed address's arithmetic wraps where a fold runs it.
                if !matches!(wrap, IrType::I32 | IrType::I64) {
                    mismatch(errs, format!("{} index wraps at {wrap}", name()));
                }
            }
            Op::Load { ty, .. }
            | Op::Store { ty, .. }
            | Op::VGather { ty, .. }
            | Op::VScatter { ty, .. } => void(errs, ty),
            _ => {}
        }
    }
}

/// The fault pads' effect rules: no op a pad covers acts on anything but
/// registers, and none writes a register live at the pad's target, so a
/// trap under it resumes with what the range found. `a` holds `f`'s CFG and
/// liveness.
fn pads(f: &VmFunction, a: &Analysis, errs: &mut Vec<VerifyError>) {
    for (k, p) in f.pads.iter().enumerate() {
        let at_target = a.live.live_in(f.block_of(p.target));
        for pc in p.start as usize..p.end as usize {
            let op = f.ops[pc];
            let acts = match op {
                Op::Store { .. } | Op::StoreIdx { .. } | Op::VStoreIdx { .. } => Some("store"),
                Op::VScatter { .. } => Some("scatter"),
                Op::Call { .. } => Some("call"),
                Op::Alloca { .. } => Some("alloca"),
                _ => None,
            };
            if let Some(what) = acts {
                err(errs, f, pc, format!("fault pad {k} covers a {what}"));
            }
            let target = p.target;
            if let Some(d) = op.def().filter(|&d| bit_test(at_target, d)) {
                let what = format!("fault pad {k} writes r{d}, live at its target {target}");
                err(errs, f, pc, what);
            }
            if let Some(v) = op.vdef().filter(|&v| bit_test(at_target, vbit(f, v))) {
                let what = format!("fault pad {k} writes v{v}, live at its target {target}");
                err(errs, f, pc, what);
            }
        }
    }
}

/// Forward "definitely assigned" dataflow over the CFG in `ws`, in the
/// liveness rows' layout: a register may only be read if every path from
/// entry wrote it first. A pad is one more edge, from the start of its
/// range: the walk meets its target with what is defined there (the CFG's
/// edge from the end of the range's block carries a superset).
fn definite_init(f: &VmFunction, ws: &mut Workspace, errs: &mut Vec<VerifyError>) {
    let Workspace { a, defined, cur } = ws;
    let (nb, words) = (a.cfg.num_blocks(), row_words(f));
    let row = |b: usize| b * words..(b + 1) * words;
    let def = |cur: &mut [u64], op: Op| {
        if let Some(d) = op.def() {
            bit_set(cur, d);
        }
        if let Some(v) = op.vdef() {
            bit_set(cur, vbit(f, v));
        }
    };
    // `row &= cur`; whether that changed the row.
    let meet = |row: &mut [u64], cur: &[u64]| {
        let mut changed = false;
        for (w, &c) in row.iter_mut().zip(cur) {
            changed |= *w & !c != 0;
            *w &= c;
        }
        changed
    };
    // Entry starts with exactly the parameters, every other block with ⊤,
    // which a block no edge reaches keeps (and reports nothing under). Each
    // walk meets a block's successors with what it defined, so the rows only
    // shrink, and they settle in as many rounds as the longest chain of
    // backward edges needs. A backedge into the entry meets it with a
    // superset of the parameters: a no-op.
    defined.clear();
    defined.resize(nb * words, u64::MAX);
    defined[row(0)].fill(0);
    for &p in &f.params {
        bit_set(&mut defined[row(0)], p);
    }
    cur.clear();
    cur.resize(words, 0);
    let mut changed = true;
    while changed {
        changed = false;
        for b in 0..nb {
            cur.copy_from_slice(&defined[row(b)]);
            for pc in f.block_range(b) {
                for p in f.pads.iter().filter(|p| p.start as usize == pc) {
                    changed |= meet(&mut defined[row(f.block_of(p.target))], cur);
                }
                def(cur, f.ops[pc]);
            }
            for &s in a.cfg.succs(b) {
                changed |= meet(&mut defined[row(s as usize)], cur);
            }
        }
    }

    // Report: re-walk each block with its settled row.
    for b in 0..nb {
        cur.copy_from_slice(&defined[row(b)]);
        for pc in f.block_range(b) {
            let op = f.ops[pc];
            op.for_each_use(&f.call_args, |r| {
                if !bit_test(cur, r) {
                    let what = format!("read of register r{r} before any write");
                    err(errs, f, pc, what);
                }
            });
            op.for_each_vuse(|v| {
                if !bit_test(cur, vbit(f, v)) {
                    let what = format!("read of vector register v{v} before any write");
                    err(errs, f, pc, what);
                }
            });
            def(cur, op);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::PoolConst;

    fn tiny() -> VmFunction {
        VmFunction {
            name: "t".into(),
            params: vec![],
            num_regs: 2,
            reg_class: vec![RegClass::Int, RegClass::Int],
            num_vregs: 0,
            vreg_class: vec![],
            vreg_width: vec![],
            ops: vec![
                Op::Const { dst: 0, idx: 0 },
                Op::Mov { dst: 1, src: 0 },
                Op::Ret { src: Some(1) },
            ],
            consts: vec![PoolConst::Val(RegClass::Int, 7)],
            call_args: vec![],
            call_targets: vec![],
            block_starts: vec![0],
            pads: vec![],
            ret: IrType::I64,
        }
    }

    #[test]
    fn clean_function_verifies() {
        assert!(verify_function(&tiny(), &[]).is_empty());
    }

    #[test]
    fn undefined_register_is_reported() {
        let mut f = tiny();
        f.ops[1] = Op::Mov { dst: 1, src: 1 }; // r1 read before any write
        let errs = verify_function(&f, &[]);
        assert_eq!(errs.len(), 1);
        assert!(errs[0]
            .what
            .contains("read of register r1 before any write"));
    }

    #[test]
    fn out_of_bounds_jump_is_reported() {
        let mut f = tiny();
        f.ops[2] = Op::Jmp { target: 99 };
        let errs = verify_function(&f, &[]);
        assert!(errs
            .iter()
            .any(|e| e.what.contains("jump target 99 out of bounds")));
    }

    #[test]
    fn class_mismatch_is_reported() {
        let mut f = tiny();
        f.reg_class[1] = RegClass::Float;
        let errs = verify_function(&f, &[]);
        assert!(errs.iter().any(|e| e.what.contains("type mismatch")));
    }

    fn vtiny() -> VmFunction {
        VmFunction {
            name: "v".into(),
            params: vec![],
            num_regs: 2,
            reg_class: vec![RegClass::Int, RegClass::Int],
            num_vregs: 2,
            vreg_class: vec![RegClass::Int, RegClass::Int],
            vreg_width: vec![4, 4],
            ops: vec![
                Op::Const { dst: 0, idx: 0 },
                Op::VBroadcast {
                    dst: 0,
                    src: 0,
                    w: 4,
                },
                Op::VMov {
                    dst: 1,
                    src: 0,
                    w: 4,
                },
                Op::VExtract {
                    dst: 1,
                    src: 1,
                    lane: 3,
                },
                Op::Ret { src: Some(1) },
            ],
            consts: vec![PoolConst::Val(RegClass::Int, 7)],
            call_args: vec![],
            call_targets: vec![],
            block_starts: vec![0],
            pads: vec![],
            ret: IrType::I64,
        }
    }

    #[test]
    fn clean_vector_function_verifies() {
        assert!(verify_function(&vtiny(), &[]).is_empty());
    }

    #[test]
    fn bad_lane_count_is_reported() {
        let mut f = vtiny();
        f.ops[1] = Op::VBroadcast {
            dst: 0,
            src: 0,
            w: 16,
        };
        let errs = verify_function(&f, &[]);
        assert!(
            errs.iter().any(|e| e.what.contains("bad lane count 16")),
            "{errs:?}"
        );
    }

    #[test]
    fn lane_width_mismatch_is_reported() {
        let mut f = vtiny();
        f.ops[2] = Op::VMov {
            dst: 1,
            src: 0,
            w: 2,
        };
        let errs = verify_function(&f, &[]);
        assert!(
            errs.iter()
                .any(|e| e.what.contains("has width 4 but op uses 2 lanes")),
            "{errs:?}"
        );
    }

    #[test]
    fn scalar_vector_class_mix_is_reported() {
        let mut f = vtiny();
        f.vreg_class[0] = RegClass::Float; // int broadcast into float vreg
        let errs = verify_function(&f, &[]);
        assert!(
            errs.iter()
                .any(|e| e.what.contains("vbroadcast dst v0 is float, expected int")),
            "{errs:?}"
        );
    }

    #[test]
    fn uninitialized_vector_register_is_reported() {
        let mut f = vtiny();
        f.ops[1] = Op::VMov {
            dst: 0,
            src: 0,
            w: 4,
        }; // v0 read before any write
        let errs = verify_function(&f, &[]);
        assert!(
            errs.iter().any(|e| e
                .what
                .contains("read of vector register v0 before any write")),
            "{errs:?}"
        );
    }

    #[test]
    fn vector_register_out_of_range_is_reported() {
        let mut f = vtiny();
        f.ops[2] = Op::VMov {
            dst: 9,
            src: 0,
            w: 4,
        };
        let errs = verify_function(&f, &[]);
        assert!(
            errs.iter()
                .any(|e| e.what.contains("vector register v9 out of range")),
            "{errs:?}"
        );
    }

    /// `r0 = alloca 64; r1 = const 7; r2 = <access through r0 + r1>; ret`,
    /// the access built by `access` from the base, index and value registers.
    fn indexed(reg_class: Vec<RegClass>, access: Op) -> VmFunction {
        VmFunction {
            name: "x".into(),
            num_regs: reg_class.len() as u16,
            reg_class,
            num_vregs: 1,
            vreg_class: vec![RegClass::Int],
            vreg_width: vec![4],
            ops: vec![
                Op::Alloca { dst: 0, bytes: 64 },
                Op::Const { dst: 1, idx: 0 },
                Op::VBroadcast {
                    dst: 0,
                    src: 1,
                    w: 4,
                },
                access,
                Op::Ret { src: None },
            ],
            ret: IrType::Void,
            ..tiny()
        }
    }

    #[test]
    fn a_well_typed_indexed_access_verifies() {
        let classes = vec![RegClass::Ptr, RegClass::Int, RegClass::Float];
        let load = Op::LoadIdx {
            ty: IrType::F64,
            wrap: IrType::I32,
            scale: 8,
            c: -1,
            dst: 2,
            base: 0,
            index: 1,
        };
        assert_eq!(verify_function(&indexed(classes, load), &[]), vec![]);
        let vstore = Op::VStoreIdx {
            ty: IrType::I64,
            wrap: IrType::I64,
            scale: 8,
            c: 2,
            src: 0,
            base: 0,
            index: 1,
            w: 4,
        };
        let classes = vec![RegClass::Ptr, RegClass::Int, RegClass::Int];
        assert_eq!(verify_function(&indexed(classes, vstore), &[]), vec![]);
    }

    #[test]
    fn an_indexed_access_needs_an_int_index() {
        // The index register is a float: the engine would add `c` to a
        // double's bits.
        let classes = vec![RegClass::Ptr, RegClass::Float, RegClass::Float];
        let mut f = indexed(
            classes,
            Op::LoadIdx {
                ty: IrType::F64,
                wrap: IrType::I32,
                scale: 8,
                c: 0,
                dst: 2,
                base: 0,
                index: 1,
            },
        );
        f.consts[0] = PoolConst::Val(RegClass::Float, 7f64.to_bits());
        f.ops[2] = Op::Const { dst: 2, idx: 0 };
        let errs = verify_function(&f, &[]);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert_eq!(errs[0].at, 3);
        assert!(errs[0]
            .what
            .contains("type mismatch: loadidx index r1 is float, expected int"));
    }

    #[test]
    fn an_indexed_vector_access_is_typed_like_a_scalar_one() {
        // A vector store through an indexed address whose base is an
        // integer and whose index arithmetic names a width no fold runs at.
        let classes = vec![RegClass::Int, RegClass::Int, RegClass::Int];
        let mut f = indexed(
            classes,
            Op::VStoreIdx {
                ty: IrType::I64,
                wrap: IrType::I16,
                scale: 8,
                c: 0,
                src: 0,
                base: 1,
                index: 1,
                w: 4,
            },
        );
        f.ops[0] = Op::Const { dst: 0, idx: 0 };
        let errs: Vec<String> = verify_function(&f, &[])
            .into_iter()
            .map(|e| e.what)
            .collect();
        assert_eq!(
            errs,
            [
                "type mismatch: vstoreidx base r1 is int, expected ptr",
                "type mismatch: vstoreidx index wraps at i16",
            ]
        );
    }

    /// `caller` returns `g(7)`; `g(x)` returns `x`, an `i64` either way.
    fn call_pair() -> VmModule {
        let g = VmFunction {
            name: "g".into(),
            params: vec![0],
            num_regs: 1,
            reg_class: vec![RegClass::Int],
            ops: vec![Op::Ret { src: Some(0) }],
            consts: vec![],
            ..tiny()
        };
        let caller = VmFunction {
            name: "caller".into(),
            ops: vec![
                Op::Const { dst: 0, idx: 0 },
                Op::Call {
                    target: 0,
                    args_at: 0,
                    nargs: 1,
                    ret: IrType::I64,
                    dst: Some(1),
                },
                Op::Ret { src: Some(1) },
            ],
            call_args: vec![0],
            call_targets: vec![CallTarget::Bytecode(1)],
            ..tiny()
        };
        VmModule {
            funcs: vec![caller, g],
        }
    }

    #[test]
    fn a_direct_call_that_matches_its_callee_verifies() {
        assert_eq!(verify_module(&call_pair()), vec![]);
    }

    #[test]
    fn a_direct_call_must_pass_the_callees_parameter_count() {
        let mut m = call_pair();
        let Op::Call { nargs, .. } = &mut m.funcs[0].ops[1] else {
            unreachable!()
        };
        *nargs = 0;
        let errs = verify_module(&m);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert_eq!(errs[0].at, 1);
        assert!(errs[0]
            .what
            .contains("call to @g passes 0 arguments, it takes 1"));
    }

    #[test]
    fn a_direct_call_cannot_pass_a_float_register_to_an_int_parameter() {
        let mut m = call_pair();
        m.funcs[0].reg_class[0] = RegClass::Float;
        m.funcs[0].consts[0] = PoolConst::Val(RegClass::Float, 7f64.to_bits());
        let errs = verify_module(&m);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0]
            .what
            .contains("argument 0 of call to @g is float r0, its parameter is int"));
    }

    #[test]
    fn a_direct_call_cannot_read_its_result_at_another_class() {
        let mut m = call_pair();
        m.funcs[0].reg_class[1] = RegClass::Float;
        m.funcs[0].ret = IrType::F64;
        let Op::Call { ret, .. } = &mut m.funcs[0].ops[1] else {
            unreachable!()
        };
        *ret = IrType::F64;
        let errs = verify_module(&m);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0]
            .what
            .contains("call expects double from @g, which returns i64"));
    }

    #[test]
    fn diverging_paths_must_both_define() {
        // entry: br r0 ? L3 : L4 — only the then-path defines r1; the join
        // reads it.
        let f = VmFunction {
            name: "t".into(),
            params: vec![0],
            num_regs: 2,
            reg_class: vec![RegClass::Int, RegClass::Int],
            num_vregs: 0,
            vreg_class: vec![],
            vreg_width: vec![],
            ops: vec![
                Op::Br {
                    cond: 0,
                    then_t: 1,
                    else_t: 3,
                },
                Op::Const { dst: 1, idx: 0 },
                Op::Jmp { target: 3 },
                Op::Ret { src: Some(1) },
            ],
            consts: vec![PoolConst::Val(RegClass::Int, 7)],
            call_args: vec![],
            call_targets: vec![],
            block_starts: vec![0, 1, 3],
            pads: vec![],
            ret: IrType::I64,
        };
        let errs = verify_function(&f, &[]);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0]
            .what
            .contains("read of register r1 before any write"));
    }

    /// A read-only range under a pad: `r1 = load [r2]; r3 = r1 / r0`,
    /// resuming at the block that returns `r0`.
    fn padded() -> VmFunction {
        use omplt_ir::BinOpKind;
        VmFunction {
            name: "p".into(),
            params: vec![],
            num_regs: 4,
            reg_class: vec![RegClass::Int, RegClass::Int, RegClass::Ptr, RegClass::Int],
            num_vregs: 0,
            vreg_class: vec![],
            vreg_width: vec![],
            ops: vec![
                Op::Const { dst: 0, idx: 0 },
                Op::Alloca { dst: 2, bytes: 8 },
                Op::Jmp { target: 3 },
                Op::Load {
                    dst: 1,
                    addr: 2,
                    ty: IrType::I64,
                },
                Op::Bin {
                    op: BinOpKind::SDiv,
                    ty: IrType::I64,
                    dst: 3,
                    lhs: 1,
                    rhs: 0,
                },
                Op::Jmp { target: 6 },
                Op::Ret { src: Some(0) },
            ],
            consts: vec![PoolConst::Val(RegClass::Int, 7)],
            call_args: vec![],
            call_targets: vec![],
            block_starts: vec![0, 3, 6],
            pads: vec![crate::ops::Pad {
                start: 3,
                end: 5,
                target: 6,
            }],
            ret: IrType::I64,
        }
    }

    /// The one error verifying `f` reports.
    fn only_error(f: &VmFunction) -> String {
        let errs = verify_function(f, &[]);
        assert_eq!(errs.len(), 1, "{errs:?}");
        errs[0].to_string()
    }

    #[test]
    fn a_padded_read_only_range_verifies() {
        assert_eq!(verify_function(&padded(), &[]), vec![]);
    }

    #[test]
    fn a_pad_range_out_of_bounds_is_reported() {
        let mut f = padded();
        f.pads[0].end = 99;
        assert_eq!(
            only_error(&f),
            "@p: op 3: fault pad 0: range 3..99 is empty or out of bounds"
        );
    }

    #[test]
    fn a_pad_range_across_two_blocks_is_reported() {
        let mut f = padded();
        f.pads[0].start = 2;
        assert_eq!(
            only_error(&f),
            "@p: op 2: fault pad 0: range 2..5 spans more than one block"
        );
    }

    #[test]
    fn a_store_under_a_pad_is_reported() {
        let mut f = padded();
        f.ops[4] = Op::Store {
            src: 1,
            addr: 2,
            ty: IrType::I64,
        };
        assert_eq!(only_error(&f), "@p: op 4: fault pad 0 covers a store");
    }

    #[test]
    fn a_pad_writing_a_register_live_at_its_target_is_reported() {
        let mut f = padded();
        if let Op::Bin { dst, .. } = &mut f.ops[4] {
            *dst = 0; // read by the target's `ret`
        }
        assert_eq!(
            only_error(&f),
            "@p: op 4: fault pad 0 writes r0, live at its target 6"
        );
    }

    #[test]
    fn a_pad_writing_a_vector_register_live_at_its_target_is_reported() {
        // v0 is written before the range and again in it; the target
        // returns its lane 0.
        let f = VmFunction {
            num_vregs: 1,
            vreg_class: vec![RegClass::Int],
            vreg_width: vec![4],
            ops: vec![
                Op::Const { dst: 0, idx: 0 },
                Op::Alloca { dst: 2, bytes: 8 },
                Op::VBroadcast {
                    dst: 0,
                    src: 0,
                    w: 4,
                },
                Op::Jmp { target: 4 },
                Op::Load {
                    dst: 1,
                    addr: 2,
                    ty: IrType::I64,
                },
                Op::VBroadcast {
                    dst: 0,
                    src: 1,
                    w: 4,
                },
                Op::Jmp { target: 7 },
                Op::VExtract {
                    dst: 3,
                    src: 0,
                    lane: 0,
                },
                Op::Ret { src: Some(3) },
            ],
            block_starts: vec![0, 4, 7],
            pads: vec![crate::ops::Pad {
                start: 4,
                end: 6,
                target: 7,
            }],
            ..padded()
        };
        assert_eq!(
            only_error(&f),
            "@p: op 5: fault pad 0 writes v0, live at its target 7"
        );
    }

    #[test]
    fn a_register_read_past_a_pad_target_is_live_at_it() {
        // The target only jumps on; the block after it returns r0, which
        // the range writes.
        let mut f = padded();
        if let Op::Bin { dst, .. } = &mut f.ops[4] {
            *dst = 0;
        }
        f.ops[6] = Op::Jmp { target: 7 };
        f.ops.push(Op::Ret { src: Some(0) });
        f.block_starts.push(7);
        assert_eq!(
            only_error(&f),
            "@p: op 4: fault pad 0 writes r0, live at its target 6"
        );
    }

    #[test]
    fn a_pad_target_that_is_no_block_start_is_reported() {
        let mut f = padded();
        f.pads[0].target = 5;
        assert_eq!(
            only_error(&f),
            "@p: op 3: fault pad 0: target 5 is not a block start outside its range"
        );
        f.pads[0].target = 3;
        assert_eq!(
            only_error(&f),
            "@p: op 3: fault pad 0: target 3 is not a block start outside its range"
        );
    }

    #[test]
    fn a_pad_is_an_edge_from_the_start_of_its_range() {
        // The target returns `r3`, which the fall-through path defines but
        // a trap at op 3 does not.
        let mut f = padded();
        f.pads[0].end = 4;
        f.ops[6] = Op::Ret { src: Some(3) };
        assert_eq!(
            only_error(&f),
            "@p: op 6: read of register r3 before any write"
        );
    }
}
