//! Load-time bytecode verification.
//!
//! Compiled bytecode is checked before the first op executes (and again
//! under `--verify-each`, after the driver's IR-level passes): the dispatch
//! loop indexes registers, pools, and jump targets without bounds anxiety
//! *because* this pass already proved them in-bounds, every register is
//! written before it is read on every path, and operand register classes
//! match each opcode's contract.
//!
//! Three phases, mirroring how a JVM-style verifier is layered:
//!
//! 1. **Structure** — indices in range, jump targets land on block starts,
//!    every block ends in exactly one terminator. Later phases assume this,
//!    so structural errors short-circuit.
//! 2. **Types** — coarse [`RegClass`] consistency per op (a float add reads
//!    float registers, a load's address register is a pointer, …), and at
//!    every direct call the callee's boundary: exactly its parameter count,
//!    each argument register in its parameter register's class, the result
//!    in its return class. Registers and the engine boundary carry untagged
//!    payloads, so this is what keeps a payload from being read at another
//!    class on the far side of a call.
//! 3. **Definite initialization** — forward must-be-defined dataflow over
//!    the block graph: a register read before any write on some path is an
//!    error, not a zero.

use crate::ops::{CallTarget, Op, Reg, RegClass, VmFunction, VmModule, MAX_LANES};
use omplt_ir::{BlockLists, CastOp, CmpPred, IrType};

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
    for f in &m.funcs {
        errs.extend(verify_function(f, &m.funcs));
    }
    errs
}

/// Verifies one function. `funcs` is its module's function table, which
/// [`CallTarget::Bytecode`] indices name (module-level information the
/// function cannot carry itself): it bounds them and gives each direct call
/// its callee's parameters and return type.
pub fn verify_function(f: &VmFunction, funcs: &[VmFunction]) -> Vec<VerifyError> {
    let mut errs = Vec::new();
    structural(f, funcs.len(), &mut errs);
    if !errs.is_empty() {
        // Type and dataflow phases index tables this phase just rejected.
        return errs;
    }
    types(f, funcs, &mut errs);
    definite_init(f, &mut errs);
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
    // Every block must end in a terminator, and terminators may appear
    // nowhere else (the dataflow phase walks blocks on that assumption).
    for (b, &s) in f.block_starts.iter().enumerate() {
        let range = f.block_range(s);
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

fn types(f: &VmFunction, funcs: &[VmFunction], errs: &mut Vec<VerifyError>) {
    let cls = |r: u16| f.reg_class[r as usize];
    let vcls = |v: u16| f.vreg_class[v as usize];
    let mismatch = |errs: &mut Vec<VerifyError>, pc: usize, what: String| {
        err(errs, f, pc, format!("type mismatch: {what}"));
    };
    // The operand rule `cmp` and the fused `cmp.br` share.
    let compare_operands =
        |errs: &mut Vec<VerifyError>, pc: usize, pred: CmpPred, ty: IrType, lhs: u16, rhs: u16| {
            let want = if pred.is_float() {
                if !ty.is_float() {
                    mismatch(errs, pc, format!("float compare at type {ty}"));
                }
                RegClass::Float
            } else if ty == IrType::Ptr {
                RegClass::Ptr
            } else {
                if ty.is_float() {
                    mismatch(errs, pc, format!("integer compare at type {ty}"));
                }
                RegClass::Int
            };
            for (role, r) in [("lhs", lhs), ("rhs", rhs)] {
                if cls(r) != want {
                    mismatch(
                        errs,
                        pc,
                        format!("compare {role} r{r} is {} (expected {want})", cls(r)),
                    );
                }
            }
        };
    // The operator rule `cast` and `vcast` share: a conversion's operator
    // fixes the class it reads and the class it writes, and the engine reads
    // the source payload at exactly that class.
    let cast_types =
        |errs: &mut Vec<VerifyError>, pc: usize, op: CastOp, from: IrType, to: IrType| {
            use {CastOp::*, RegClass::*};
            let (reads, writes) = match op {
                Trunc | ZExt | SExt => (Int, Int),
                SiToFp | UiToFp => (Int, Float),
                FpToSi | FpToUi => (Float, Int),
                FpTrunc | FpExt => (Float, Float),
                PtrToInt => (Ptr, Int),
                IntToPtr => (Int, Ptr),
            };
            if RegClass::of(from) != reads {
                mismatch(errs, pc, format!("{} from {from}", op.mnemonic()));
            }
            if RegClass::of(to) != writes {
                mismatch(errs, pc, format!("{} to {to}", op.mnemonic()));
            }
        };
    // Lane-count discipline: every vector op carries the width it operates
    // at, and that width must match the static width of every vector
    // register it touches — lane counts are part of the type, not a runtime
    // property.
    let lanes = |errs: &mut Vec<VerifyError>, pc: usize, w: u8| {
        if !(2..=MAX_LANES as u8).contains(&w) {
            err(
                errs,
                f,
                pc,
                format!("bad lane count {w} (must be 2..={MAX_LANES})"),
            );
        }
    };
    let vwidth = |errs: &mut Vec<VerifyError>, pc: usize, role: &str, v: u16, w: u8| {
        let have = f.vreg_width[v as usize];
        if have != w {
            err(
                errs,
                f,
                pc,
                format!("{role} v{v} has width {have} but op uses {w} lanes"),
            );
        }
    };
    for (pc, op) in f.ops.iter().enumerate() {
        match *op {
            Op::Const { dst, idx } => {
                let want = f.consts[idx as usize].class();
                if cls(dst) != want {
                    mismatch(
                        errs,
                        pc,
                        format!(
                            "constant is {} but destination r{dst} is {}",
                            want,
                            cls(dst)
                        ),
                    );
                }
            }
            Op::Mov { dst, src } => {
                if cls(dst) != cls(src) {
                    mismatch(
                        errs,
                        pc,
                        format!("mov from {} r{src} to {} r{dst}", cls(src), cls(dst)),
                    );
                }
            }
            Op::Alloca { dst, .. } => {
                if cls(dst) != RegClass::Ptr {
                    mismatch(errs, pc, format!("alloca destination r{dst} is not ptr"));
                }
            }
            Op::Load { dst, addr, ty } => {
                if ty == IrType::Void {
                    mismatch(errs, pc, "load of void".to_string());
                } else if cls(dst) != RegClass::of(ty) {
                    mismatch(errs, pc, format!("load of {ty} into {} r{dst}", cls(dst)));
                }
                if cls(addr) != RegClass::Ptr {
                    mismatch(errs, pc, format!("load address r{addr} is not ptr"));
                }
            }
            Op::Store { src, addr, ty } => {
                if ty == IrType::Void {
                    mismatch(errs, pc, "store of void".to_string());
                } else if cls(src) != RegClass::of(ty) {
                    mismatch(errs, pc, format!("store of {ty} from {} r{src}", cls(src)));
                }
                if cls(addr) != RegClass::Ptr {
                    mismatch(errs, pc, format!("store address r{addr} is not ptr"));
                }
            }
            Op::Gep {
                dst, base, index, ..
            } => {
                if cls(dst) != RegClass::Ptr {
                    mismatch(errs, pc, format!("gep destination r{dst} is not ptr"));
                }
                if cls(base) != RegClass::Ptr {
                    mismatch(errs, pc, format!("gep base r{base} is not ptr"));
                }
                if cls(index) != RegClass::Int {
                    mismatch(errs, pc, format!("gep index r{index} is not int"));
                }
            }
            Op::Bin {
                op: bop,
                ty,
                dst,
                lhs,
                rhs,
            }
            | Op::BinJmp {
                op: bop,
                ty,
                dst,
                lhs,
                rhs,
                ..
            } => {
                if bop.is_float() {
                    if !ty.is_float() {
                        mismatch(
                            errs,
                            pc,
                            format!("float op {} at type {ty}", bop.mnemonic()),
                        );
                    }
                    for (role, r) in [("destination", dst), ("lhs", lhs), ("rhs", rhs)] {
                        if cls(r) != RegClass::Float {
                            mismatch(
                                errs,
                                pc,
                                format!("float op {} with {} {role} r{r}", bop.mnemonic(), cls(r)),
                            );
                        }
                    }
                } else if ty == IrType::Ptr {
                    // Pointer arithmetic: ptr ± offset.
                    if cls(dst) != RegClass::Ptr || cls(lhs) != RegClass::Ptr {
                        mismatch(
                            errs,
                            pc,
                            "pointer arithmetic on non-ptr registers".to_string(),
                        );
                    }
                    if cls(rhs) == RegClass::Float {
                        mismatch(errs, pc, "pointer arithmetic with float offset".to_string());
                    }
                } else {
                    if ty.is_float() {
                        mismatch(
                            errs,
                            pc,
                            format!("integer op {} at type {ty}", bop.mnemonic()),
                        );
                    }
                    for (role, r) in [("destination", dst), ("lhs", lhs), ("rhs", rhs)] {
                        if cls(r) != RegClass::Int {
                            mismatch(
                                errs,
                                pc,
                                format!(
                                    "integer op {} with {} {role} r{r}",
                                    bop.mnemonic(),
                                    cls(r)
                                ),
                            );
                        }
                    }
                }
            }
            Op::Cmp {
                pred,
                ty,
                dst,
                lhs,
                rhs,
            } => {
                if cls(dst) != RegClass::Int {
                    mismatch(errs, pc, format!("compare result r{dst} is not int"));
                }
                compare_operands(errs, pc, pred, ty, lhs, rhs);
            }
            Op::Cast {
                op: cop,
                from,
                to,
                dst,
                src,
            } => {
                cast_types(errs, pc, cop, from, to);
                if cls(src) != RegClass::of(from) {
                    mismatch(
                        errs,
                        pc,
                        format!(
                            "cast source r{src} is {} but operand type is {from}",
                            cls(src)
                        ),
                    );
                }
                if cls(dst) != RegClass::of(to) {
                    mismatch(
                        errs,
                        pc,
                        format!(
                            "cast destination r{dst} is {} but result type is {to}",
                            cls(dst)
                        ),
                    );
                }
            }
            Op::Select {
                dst,
                cond,
                t,
                f: fv,
            } => {
                if cls(cond) != RegClass::Int {
                    mismatch(errs, pc, format!("select condition r{cond} is not int"));
                }
                if cls(t) != cls(dst) || cls(fv) != cls(dst) {
                    mismatch(
                        errs,
                        pc,
                        "select arms disagree with destination".to_string(),
                    );
                }
            }
            Op::Call {
                target,
                args_at,
                nargs,
                ret,
                dst,
            } => {
                match (ret, dst) {
                    (IrType::Void, Some(d)) => {
                        mismatch(errs, pc, format!("void call writes r{d}"));
                    }
                    (ret, Some(d)) if cls(d) != RegClass::of(ret) => {
                        mismatch(
                            errs,
                            pc,
                            format!("call returning {ret} into {} r{d}", cls(d)),
                        );
                    }
                    _ => {}
                }
                if let CallTarget::Bytecode(i) = f.call_targets[target as usize] {
                    let args = &f.call_args[args_at as usize..][..nargs as usize];
                    call_boundary(errs, f, pc, args, ret, &funcs[i as usize]);
                }
            }
            Op::Br { cond, .. } => {
                if cls(cond) != RegClass::Int {
                    mismatch(errs, pc, format!("branch condition r{cond} is not int"));
                }
            }
            Op::CmpBr {
                pred, ty, lhs, rhs, ..
            } => {
                compare_operands(errs, pc, pred, ty, lhs, rhs);
            }
            Op::Ret { src: Some(r) } => {
                if f.ret != IrType::Void && cls(r) != RegClass::of(f.ret) {
                    mismatch(
                        errs,
                        pc,
                        format!(
                            "return of {} r{r} from function returning {}",
                            cls(r),
                            f.ret
                        ),
                    );
                }
            }
            Op::Ret { src: None } | Op::Jmp { .. } | Op::Unreachable => {}
            Op::VMov { dst, src, w } => {
                lanes(errs, pc, w);
                vwidth(errs, pc, "vmov destination", dst, w);
                vwidth(errs, pc, "vmov source", src, w);
                if vcls(dst) != vcls(src) {
                    mismatch(
                        errs,
                        pc,
                        format!("vmov from {} v{src} to {} v{dst}", vcls(src), vcls(dst)),
                    );
                }
            }
            Op::VIota { dst, base, w } => {
                lanes(errs, pc, w);
                vwidth(errs, pc, "viota destination", dst, w);
                if vcls(dst) != RegClass::Int {
                    mismatch(errs, pc, format!("viota destination v{dst} is not int"));
                }
                if cls(base) != RegClass::Int {
                    mismatch(errs, pc, format!("viota base r{base} is not int"));
                }
            }
            Op::VBroadcast { dst, src, w } => {
                lanes(errs, pc, w);
                vwidth(errs, pc, "broadcast destination", dst, w);
                if vcls(dst) != cls(src) {
                    mismatch(
                        errs,
                        pc,
                        format!("broadcast of {} r{src} into {} v{dst}", cls(src), vcls(dst)),
                    );
                }
            }
            Op::VExtract { dst, src, lane } => {
                let have = f.vreg_width[src as usize];
                if lane >= have {
                    err(
                        errs,
                        f,
                        pc,
                        format!("lane {lane} out of range for v{src} of width {have}"),
                    );
                }
                if cls(dst) != vcls(src) {
                    mismatch(
                        errs,
                        pc,
                        format!("extract of {} v{src} into {} r{dst}", vcls(src), cls(dst)),
                    );
                }
            }
            Op::VLoad { dst, addr, ty, w } => {
                lanes(errs, pc, w);
                vwidth(errs, pc, "vload destination", dst, w);
                if ty == IrType::Void {
                    mismatch(errs, pc, "vector load of void".to_string());
                } else if vcls(dst) != RegClass::of(ty) {
                    mismatch(
                        errs,
                        pc,
                        format!("vector load of {ty} into {} v{dst}", vcls(dst)),
                    );
                }
                if cls(addr) != RegClass::Ptr {
                    mismatch(errs, pc, format!("vector load address r{addr} is not ptr"));
                }
            }
            Op::VStore { src, addr, ty, w } => {
                lanes(errs, pc, w);
                vwidth(errs, pc, "vstore source", src, w);
                if ty == IrType::Void {
                    mismatch(errs, pc, "vector store of void".to_string());
                } else if vcls(src) != RegClass::of(ty) {
                    mismatch(
                        errs,
                        pc,
                        format!("vector store of {ty} from {} v{src}", vcls(src)),
                    );
                }
                if cls(addr) != RegClass::Ptr {
                    mismatch(errs, pc, format!("vector store address r{addr} is not ptr"));
                }
            }
            Op::VGather {
                dst,
                base,
                idx,
                ty,
                w,
                ..
            } => {
                lanes(errs, pc, w);
                vwidth(errs, pc, "gather destination", dst, w);
                vwidth(errs, pc, "gather index", idx, w);
                if ty == IrType::Void {
                    mismatch(errs, pc, "vector gather of void".to_string());
                } else if vcls(dst) != RegClass::of(ty) {
                    mismatch(
                        errs,
                        pc,
                        format!("vector gather of {ty} into {} v{dst}", vcls(dst)),
                    );
                }
                if cls(base) != RegClass::Ptr {
                    mismatch(errs, pc, format!("gather base r{base} is not ptr"));
                }
                if vcls(idx) != RegClass::Int {
                    mismatch(errs, pc, format!("gather index v{idx} is not int"));
                }
            }
            Op::VScatter {
                src,
                base,
                idx,
                ty,
                w,
                ..
            } => {
                lanes(errs, pc, w);
                vwidth(errs, pc, "scatter source", src, w);
                vwidth(errs, pc, "scatter index", idx, w);
                if ty == IrType::Void {
                    mismatch(errs, pc, "vector scatter of void".to_string());
                } else if vcls(src) != RegClass::of(ty) {
                    mismatch(
                        errs,
                        pc,
                        format!("vector scatter of {ty} from {} v{src}", vcls(src)),
                    );
                }
                if cls(base) != RegClass::Ptr {
                    mismatch(errs, pc, format!("scatter base r{base} is not ptr"));
                }
                if vcls(idx) != RegClass::Int {
                    mismatch(errs, pc, format!("scatter index v{idx} is not int"));
                }
            }
            Op::VBin {
                op: bop,
                ty,
                dst,
                lhs,
                rhs,
                w,
            } => {
                lanes(errs, pc, w);
                for (role, v) in [("destination", dst), ("lhs", lhs), ("rhs", rhs)] {
                    vwidth(errs, pc, &format!("vector op {role}"), v, w);
                }
                if ty == IrType::Ptr {
                    mismatch(errs, pc, "vector pointer arithmetic".to_string());
                } else if bop.is_float() {
                    if !ty.is_float() {
                        mismatch(
                            errs,
                            pc,
                            format!("float vector op {} at type {ty}", bop.mnemonic()),
                        );
                    }
                    for (role, v) in [("destination", dst), ("lhs", lhs), ("rhs", rhs)] {
                        if vcls(v) != RegClass::Float {
                            mismatch(
                                errs,
                                pc,
                                format!(
                                    "float vector op {} with {} {role} v{v}",
                                    bop.mnemonic(),
                                    vcls(v)
                                ),
                            );
                        }
                    }
                } else {
                    if ty.is_float() {
                        mismatch(
                            errs,
                            pc,
                            format!("integer vector op {} at type {ty}", bop.mnemonic()),
                        );
                    }
                    for (role, v) in [("destination", dst), ("lhs", lhs), ("rhs", rhs)] {
                        if vcls(v) != RegClass::Int {
                            mismatch(
                                errs,
                                pc,
                                format!(
                                    "integer vector op {} with {} {role} v{v}",
                                    bop.mnemonic(),
                                    vcls(v)
                                ),
                            );
                        }
                    }
                }
            }
            Op::VCast {
                op: cop,
                from,
                to,
                dst,
                src,
                w,
            } => {
                lanes(errs, pc, w);
                cast_types(errs, pc, cop, from, to);
                vwidth(errs, pc, "vector cast destination", dst, w);
                vwidth(errs, pc, "vector cast source", src, w);
                if vcls(src) != RegClass::of(from) {
                    mismatch(
                        errs,
                        pc,
                        format!(
                            "vector cast source v{src} is {} but operand type is {from}",
                            vcls(src)
                        ),
                    );
                }
                if vcls(dst) != RegClass::of(to) {
                    mismatch(
                        errs,
                        pc,
                        format!(
                            "vector cast destination v{dst} is {} but result type is {to}",
                            vcls(dst)
                        ),
                    );
                }
            }
            Op::VReduce {
                op: bop,
                ty,
                dst,
                src,
                w,
            } => {
                lanes(errs, pc, w);
                vwidth(errs, pc, "reduce source", src, w);
                if ty == IrType::Ptr {
                    mismatch(errs, pc, "vector reduction of ptr".to_string());
                } else if bop.is_float() != ty.is_float() {
                    mismatch(
                        errs,
                        pc,
                        format!("reduce op {} at type {ty}", bop.mnemonic()),
                    );
                }
                if vcls(src) != RegClass::of(ty) {
                    mismatch(
                        errs,
                        pc,
                        format!("reduce of {ty} from {} v{src}", vcls(src)),
                    );
                }
                if cls(dst) != RegClass::of(ty) {
                    mismatch(errs, pc, format!("reduce of {ty} into {} r{dst}", cls(dst)));
                }
            }
            Op::VEpi { src } => {
                if cls(src) != RegClass::Int {
                    mismatch(errs, pc, format!("epilogue count r{src} is not int"));
                }
            }
        }
    }
}

/// Forward "definitely assigned" dataflow: a register may only be read if
/// every path from entry wrote it first.
fn definite_init(f: &VmFunction, errs: &mut Vec<VerifyError>) {
    // One dataflow domain covers both files: scalar register r maps to bit
    // r, vector register v to bit num_regs + v.
    let n = f.num_regs as usize;
    let words = (n + f.num_vregs as usize).div_ceil(64).max(1);
    let nb = f.block_starts.len();
    let block_of = |off: u32| -> usize {
        match f.block_starts.binary_search(&off) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    };
    let preds = BlockLists::group(nb, 0, |preds| {
        for (b, &s) in f.block_starts.iter().enumerate() {
            let range = f.block_range(s);
            f.ops[range.end - 1].for_each_target(|t| preds.push(block_of(t), b));
        }
    });

    // in[b] = (params if entry) ∩ over preds out[p]; out[b] = in[b] ∪ defs.
    // Both sets are flat tables (row b = `[b * words..(b + 1) * words]`)
    // and each round works in one scratch row, so the fixpoint allocates
    // nothing however many rounds it takes.
    let row = |b: usize| b * words..(b + 1) * words;
    let mut in_set = vec![u64::MAX; nb * words];
    let mut out_set = vec![u64::MAX; nb * words];
    let mut cur = vec![0u64; words];
    let mut changed = true;
    while changed {
        changed = false;
        for b in 0..nb {
            // Entry starts with exactly the parameters (a backedge into the
            // entry can only add registers already defined on every path, so
            // joining it would be a no-op). Unreachable blocks keep ⊤ and
            // are skipped by the report pass.
            if b == 0 {
                cur.fill(0);
                for &p in &f.params {
                    cur[p as usize / 64] |= 1 << (p as usize % 64);
                }
            } else {
                cur.fill(u64::MAX);
                for &p in &preds[b] {
                    for (w, &o) in cur.iter_mut().zip(&out_set[row(p)]) {
                        *w &= o;
                    }
                }
            }
            if in_set[row(b)] != cur[..] {
                in_set[row(b)].copy_from_slice(&cur);
                changed = true;
            }
            let range = f.block_range(f.block_starts[b]);
            for op in &f.ops[range.clone()] {
                if let Some(d) = op.def() {
                    cur[d as usize / 64] |= 1 << (d as usize % 64);
                }
                if let Some(v) = op.vdef() {
                    let bit = n + v as usize;
                    cur[bit / 64] |= 1 << (bit % 64);
                }
            }
            if out_set[row(b)] != cur[..] {
                out_set[row(b)].copy_from_slice(&cur);
                changed = true;
            }
        }
    }

    // Report: re-walk each reachable block with its settled in-set.
    for (b, &s) in f.block_starts.iter().enumerate() {
        if b != 0 && preds[b].is_empty() {
            continue; // unreachable code is not checked
        }
        let defined = &mut cur;
        defined.copy_from_slice(&in_set[row(b)]);
        let range = f.block_range(s);
        for pc in range {
            let op = f.ops[pc];
            op.for_each_use(&f.call_args, |r| {
                if defined[r as usize / 64] & (1 << (r as usize % 64)) == 0 {
                    err(
                        errs,
                        f,
                        pc,
                        format!("read of register r{r} before any write"),
                    );
                }
            });
            op.for_each_vuse(|v| {
                let bit = n + v as usize;
                if defined[bit / 64] & (1 << (bit % 64)) == 0 {
                    err(
                        errs,
                        f,
                        pc,
                        format!("read of vector register v{v} before any write"),
                    );
                }
            });
            if let Some(d) = op.def() {
                defined[d as usize / 64] |= 1 << (d as usize % 64);
            }
            if let Some(v) = op.vdef() {
                let bit = n + v as usize;
                defined[bit / 64] |= 1 << (bit % 64);
            }
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
                .any(|e| e.what.contains("broadcast of int r0 into float v0")),
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
            ret: IrType::I64,
        };
        let errs = verify_function(&f, &[]);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0]
            .what
            .contains("read of register r1 before any write"));
    }
}
