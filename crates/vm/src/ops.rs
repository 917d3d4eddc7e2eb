//! The bytecode format: a register machine over 64-bit values, each
//! register of one static class.
//!
//! Each function is one flat `Vec<Op>` — the CFG is linearized in
//! reverse-postorder and branch targets are instruction offsets, so the hot
//! execution loop is `pc`-increment plus one `match` (no block lookups, no
//! phi scans, no operand re-matching). What that loop streams is the
//! engine's private resolution of each op, at the same `pc` — the hot
//! (operator, type) pairs as variants of their own, every other op as itself
//! (see `vm.rs`); `Op` is what is compiled, verified, serialised and printed.
//!
//! Registers are virtual (`u16` indices into a per-frame register file),
//! typed by coarse [`RegClass`]; constants live in a per-function pool
//! (globals and function references are pool entries resolved once per run,
//! not per use).
//!
//! The instruction set is declared once, as the rows of the `ops!` table
//! below: each row gives an op's tag, name and fields, and each field's
//! *role* (register def/use, vector def/use, jump label, or an immediate's
//! type). The enum, the def/use/jump-target accessors, `is_terminator` and
//! the OMPLTBC codec of an op are all derived from its row; what an op
//! *does* (the dispatch arm in `vm.rs`), its type rule (`verify.rs`) and its
//! [`disasm`] line are the three things written by hand per op.

use crate::serde::{Dec, DecodeError, Enc, Wire};
use omplt_ir::{BinOpKind, CastOp, CmpPred, IrType, SymbolId};

/// A virtual register index within one frame.
pub type Reg = u16;

/// A vector register index within one frame. Vector registers live in their
/// own namespace (`v0`, `v1`, …), parallel to the scalar file — a frame only
/// allocates the vector file when [`VmFunction::num_vregs`] is nonzero, so
/// scalar-only code pays nothing for the tier.
pub type VReg = u16;

/// Maximum lane count any vector op may carry. `--vector-width` requests are
/// clamped here, and a frame's vector registers are sized by it.
pub const MAX_LANES: usize = 8;

/// Coarse register type class — enough to verify operand compatibility
/// (the fine-grained `IrType` rides on the ops that need width information).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum RegClass {
    /// Integers of any width (sign-extended into `i64` storage).
    Int,
    /// `f32`/`f64` (stored as `f64`).
    Float,
    /// Guest pointers.
    Ptr,
}

impl RegClass {
    /// Every class in declaration order: `ALL[i] as u8 == i`, the codec's tag.
    pub const ALL: &'static [RegClass] = &[RegClass::Int, RegClass::Float, RegClass::Ptr];

    /// The class a value of IR type `ty` lives in.
    pub fn of(ty: IrType) -> RegClass {
        if ty.is_float() {
            RegClass::Float
        } else if ty == IrType::Ptr {
            RegClass::Ptr
        } else {
            RegClass::Int
        }
    }

    /// Display letter (`i`/`f`/`p`) for the disassembler and diagnostics.
    pub fn letter(self) -> char {
        match self {
            RegClass::Int => 'i',
            RegClass::Float => 'f',
            RegClass::Ptr => 'p',
        }
    }
}

impl std::fmt::Display for RegClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegClass::Int => f.write_str("int"),
            RegClass::Float => f.write_str("float"),
            RegClass::Ptr => f.write_str("ptr"),
        }
    }
}

/// A constant-pool entry. `Global` and `FnPtr` are *symbolic*: their guest
/// addresses exist only once an engine has materialized the module, so the
/// engine resolves the pool to flat register payloads at construction time.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum PoolConst {
    /// An immediate: a payload (`omplt_ir::arith`) of the given class.
    Val(RegClass, u64),
    /// Address of a module global (resolved at engine startup).
    Global(SymbolId),
    /// Tagged function pointer (for `__kmpc_fork_call` targets).
    FnPtr(SymbolId),
}

impl PoolConst {
    /// The register class a load of this constant produces.
    pub fn class(self) -> RegClass {
        match self {
            PoolConst::Val(class, _) => class,
            PoolConst::Global(_) | PoolConst::FnPtr(_) => RegClass::Ptr,
        }
    }
}

/// Who a call op targets: another bytecode function, or a name served by
/// the shared OpenMP/IO runtime (resolution happens at compile time — the
/// module-functions-first precedence is baked into the bytecode).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum CallTarget {
    /// Index into [`VmModule::funcs`].
    Bytecode(u32),
    /// Runtime shim, dispatched by interned name.
    Runtime(SymbolId),
}

/// One register or jump-label operand of an op, as [`Op::slots`] hands it
/// out: the role a row gives a field, minus the immediates (which have none).
enum Slot<'a> {
    /// Scalar register the op writes (`rdef`, or an `opt_rdef` that is `Some`).
    RDef(&'a mut Reg),
    /// Scalar register the op reads (`ruse`, or an `opt_ruse` that is `Some`).
    RUse(&'a mut Reg),
    /// Vector register the op writes.
    VDef(&'a mut VReg),
    /// Vector register the op reads.
    VUse(&'a mut VReg),
    /// Instruction offset the op may jump to.
    Label(&'a mut u32),
}

/// The Rust type of a field, given its role. Anything that is not one of the
/// seven register/label roles is an immediate and names its own type.
macro_rules! field_ty {
    (rdef) => { Reg };
    (ruse) => { Reg };
    (opt_rdef) => { Option<Reg> };
    (opt_ruse) => { Option<Reg> };
    (vdef) => { VReg };
    (vuse) => { VReg };
    (label) => { u32 };
    ($imm:ident) => { $imm };
}

/// Hands the field `$x` (a `&mut`) to the slot visitor `$visit`, given its role.
macro_rules! field_slot {
    ($visit:ident, rdef, $x:ident) => {
        $visit(Slot::RDef($x))
    };
    ($visit:ident, ruse, $x:ident) => {
        $visit(Slot::RUse($x))
    };
    ($visit:ident, opt_rdef, $x:ident) => {
        if let Some(r) = $x {
            $visit(Slot::RDef(r))
        }
    };
    ($visit:ident, opt_ruse, $x:ident) => {
        if let Some(r) = $x {
            $visit(Slot::RUse(r))
        }
    };
    ($visit:ident, vdef, $x:ident) => {
        $visit(Slot::VDef($x))
    };
    ($visit:ident, vuse, $x:ident) => {
        $visit(Slot::VUse($x))
    };
    ($visit:ident, label, $x:ident) => {
        $visit(Slot::Label($x))
    };
    ($visit:ident, $imm:ident, $x:ident) => {
        let _ = $x;
    };
}

/// The only word allowed between a row's name and its fields.
macro_rules! row_mark {
    (terminator) => {
        true
    };
}

/// Turns the instruction table below into everything that depends only on
/// what a row says: the `Op` enum (variant = row, discriminant = tag, fields
/// in row order), the slot walker behind the def/use/jump-target accessors,
/// `is_terminator`, and the OMPLTBC codec (tag byte, then every field in row
/// order through its type's [`Wire`] impl).
macro_rules! ops {
    ($(
        $(#[$meta:meta])*
        $tag:literal => $name:ident $($mark:ident)? $({
            $($(#[$fmeta:meta])* $field:ident: $role:ident,)*
        })?,
    )*) => {
        /// One bytecode instruction.
        ///
        /// `#[repr(u8)]` makes the discriminant the row's tag — one dense
        /// byte, the same one the OMPLTBC codec writes.
        #[repr(u8)]
        #[derive(Clone, Copy, PartialEq, Debug)]
        pub enum Op {
            $(
                $(#[$meta])*
                $name $({
                    $($(#[$fmeta])* $field: field_ty!($role),)*
                })? = $tag,
            )*
        }

        impl Op {
            /// The tag of every row, in table order.
            #[cfg(test)]
            pub(crate) const TAGS: &'static [u8] = &[$($tag),*];

            /// Visits every register and jump-label field in row order.
            #[inline(always)]
            fn slots(&mut self, mut visit: impl FnMut(Slot<'_>)) {
                match self {
                    $(Op::$name { $($($field),*)? } => {
                        $($(field_slot!(visit, $role, $field);)*)?
                    })*
                }
            }

            /// True for ops that end a basic block.
            pub fn is_terminator(self) -> bool {
                match self {
                    $($(Op::$name { .. } => row_mark!($mark),)?)*
                    _ => false,
                }
            }
        }

        impl Wire for Op {
            fn put(self, enc: &mut Enc) {
                match self {
                    $(Op::$name { $($($field),*)? } => {
                        enc.put::<u8>($tag);
                        $($(enc.put($field);)*)?
                    })*
                }
            }

            fn get(dec: &mut Dec) -> Result<Op, DecodeError> {
                Ok(match dec.get::<u8>()? {
                    $($tag => Op::$name { $($($field: dec.get()?),*)? },)*
                    other => return Err(DecodeError(format!("bad Op tag {other}"))),
                })
            }
        }
    };
}

// The instruction set. One row per op: `tag => Name [terminator] { fields }`,
// and per field its name and *role* — `rdef`/`ruse` (scalar register written/
// read), `opt_rdef`/`opt_ruse` (the same, as `Option<Reg>`), `vdef`/`vuse`
// (vector register), `label` (jump target) — or, for an immediate, its type
// (`u8`/`u16`/`u32`, `IrType`, `BinOpKind`, `CmpPred`, `CastOp`). Row order
// is the in-memory field order *and* the wire order; any change to a row is
// a layout change and moves the OMPLTBC version byte in `serde.rs`.
ops! {
    /// `dst = consts[idx]`.
    0 => Const {
        /// Destination register.
        dst: rdef,
        /// Constant-pool index.
        idx: u16,
    },
    /// `dst = src` (phi-edge copies).
    1 => Mov {
        /// Destination register.
        dst: rdef,
        /// Source register.
        src: ruse,
    },
    /// `dst = alloc(bytes)` — fresh zeroed guest allocation.
    2 => Alloca {
        /// Destination (pointer) register.
        dst: rdef,
        /// Allocation size in bytes (≥ 1).
        bytes: u32,
    },
    /// `dst = *(ty*)addr`.
    3 => Load {
        /// Destination register.
        dst: rdef,
        /// Address register.
        addr: ruse,
        /// Loaded type (width + decode).
        ty: IrType,
    },
    /// `*(ty*)addr = src`.
    4 => Store {
        /// Value register.
        src: ruse,
        /// Address register.
        addr: ruse,
        /// Stored type (width + encode).
        ty: IrType,
    },
    /// `dst = base + index * elem_size` (byte-scaled GEP).
    5 => Gep {
        /// Destination (pointer) register.
        dst: rdef,
        /// Base pointer register.
        base: ruse,
        /// Index register (sign-extended).
        index: ruse,
        /// Element size in bytes.
        elem_size: u32,
    },
    /// `dst = lhs <op> rhs` at width `ty`.
    6 => Bin {
        /// Operation.
        op: BinOpKind,
        /// Operand type (wrapping width / pointer flavor).
        ty: IrType,
        /// Destination register.
        dst: rdef,
        /// Left operand.
        lhs: ruse,
        /// Right operand.
        rhs: ruse,
    },
    /// `dst = lhs <pred> rhs` (yields 0/1).
    7 => Cmp {
        /// Predicate.
        pred: CmpPred,
        /// Operand type.
        ty: IrType,
        /// Destination register.
        dst: rdef,
        /// Left operand.
        lhs: ruse,
        /// Right operand.
        rhs: ruse,
    },
    /// `dst = cast<op>(src)`.
    8 => Cast {
        /// Conversion.
        op: CastOp,
        /// Source type.
        from: IrType,
        /// Destination type.
        to: IrType,
        /// Destination register.
        dst: rdef,
        /// Source register.
        src: ruse,
    },
    /// `dst = cond ? t : f`.
    9 => Select {
        /// Destination register.
        dst: rdef,
        /// Condition register (0 = false).
        cond: ruse,
        /// Value if true.
        t: ruse,
        /// Value if false.
        f: ruse,
    },
    /// Calls `call_targets[target]` with `call_args[args_at .. args_at+nargs]`.
    10 => Call {
        /// Index into [`VmFunction::call_targets`].
        target: u16,
        /// Start of the argument-register run in [`VmFunction::call_args`].
        args_at: u32,
        /// Number of argument registers.
        nargs: u16,
        /// Callee return type (`Void` ⇒ `dst` is `None`).
        ret: IrType,
        /// Where the return value lands.
        dst: opt_rdef,
    },
    /// Unconditional jump to an instruction offset.
    11 => Jmp terminator {
        /// Target offset (must be a block start).
        target: label,
    },
    /// Conditional jump: `cond != 0` ⇒ `then_t`, else `else_t`.
    12 => Br terminator {
        /// Condition register.
        cond: ruse,
        /// Offset when true.
        then_t: label,
        /// Offset when false.
        else_t: label,
    },
    /// Fused `dst = lhs <op> rhs; jmp target` — the loop-latch increment
    /// plus backedge, fused by the peephole pass.
    13 => BinJmp terminator {
        /// Operation.
        op: BinOpKind,
        /// Operand type.
        ty: IrType,
        /// Destination register.
        dst: rdef,
        /// Left operand.
        lhs: ruse,
        /// Right operand.
        rhs: ruse,
        /// Jump target (must be a block start).
        target: label,
    },
    /// Fused compare-and-branch: `lhs <pred> rhs` ⇒ `then_t`, else `else_t`.
    /// Produced by the peephole pass from a `Cmp` whose only consumer is the
    /// block-ending `Br` — the hot loop-latch pattern.
    14 => CmpBr terminator {
        /// Predicate.
        pred: CmpPred,
        /// Operand type.
        ty: IrType,
        /// Left operand.
        lhs: ruse,
        /// Right operand.
        rhs: ruse,
        /// Offset when the comparison holds.
        then_t: label,
        /// Offset when it does not.
        else_t: label,
    },
    /// Return from the frame.
    15 => Ret terminator {
        /// Returned register (`None` for void).
        src: opt_ruse,
    },
    /// `unreachable` executed — aborts the run.
    16 => Unreachable terminator,
    /// `vdst = vsrc` (vector copy; loop-carried accumulator plumbing).
    17 => VMov {
        /// Destination vector register.
        dst: vdef,
        /// Source vector register.
        src: vuse,
        /// Lane count.
        w: u8,
    },
    /// `vdst.lane[l] = base + l` for `l < w` — the per-block lane indices of
    /// a widened induction variable.
    18 => VIota {
        /// Destination vector register (Int class).
        dst: vdef,
        /// Scalar base register.
        base: ruse,
        /// Lane count.
        w: u8,
    },
    /// `vdst.lane[l] = src` for `l < w`.
    19 => VBroadcast {
        /// Destination vector register.
        dst: vdef,
        /// Scalar source register.
        src: ruse,
        /// Lane count.
        w: u8,
    },
    /// `dst = vsrc.lane[lane]`.
    20 => VExtract {
        /// Scalar destination register.
        dst: rdef,
        /// Source vector register.
        src: vuse,
        /// Lane index (must be < the register's width).
        lane: u8,
    },
    /// Unit-stride vector load: `vdst.lane[l] = *(ty*)(addr + l*size(ty))`.
    21 => VLoad {
        /// Destination vector register.
        dst: vdef,
        /// Scalar lane-0 address register.
        addr: ruse,
        /// Element type (width + decode).
        ty: IrType,
        /// Lane count.
        w: u8,
    },
    /// Unit-stride vector store: `*(ty*)(addr + l*size(ty)) = vsrc.lane[l]`.
    22 => VStore {
        /// Source vector register.
        src: vuse,
        /// Scalar lane-0 address register.
        addr: ruse,
        /// Element type (width + encode).
        ty: IrType,
        /// Lane count.
        w: u8,
    },
    /// Indexed vector load:
    /// `vdst.lane[l] = *(ty*)(base + vidx.lane[l]*elem_size)`.
    23 => VGather {
        /// Index scale in bytes (leads the payload: `#[repr(u8)]` lays
        /// fields out C-style, and a trailing u32 would pad past 16 bytes).
        elem_size: u32,
        /// Destination vector register.
        dst: vdef,
        /// Scalar base pointer register.
        base: ruse,
        /// Per-lane index vector register (Int class).
        idx: vuse,
        /// Element type.
        ty: IrType,
        /// Lane count.
        w: u8,
    },
    /// Indexed vector store:
    /// `*(ty*)(base + vidx.lane[l]*elem_size) = vsrc.lane[l]`.
    24 => VScatter {
        /// Index scale in bytes (leads the payload: `#[repr(u8)]` lays
        /// fields out C-style, and a trailing u32 would pad past 16 bytes).
        elem_size: u32,
        /// Source vector register.
        src: vuse,
        /// Scalar base pointer register.
        base: ruse,
        /// Per-lane index vector register (Int class).
        idx: vuse,
        /// Element type.
        ty: IrType,
        /// Lane count.
        w: u8,
    },
    /// Lane-parallel arithmetic: `vdst.lane[l] = vlhs.lane[l] <op> vrhs.lane[l]`.
    25 => VBin {
        /// Operation.
        op: BinOpKind,
        /// Operand type (wrapping width).
        ty: IrType,
        /// Destination vector register.
        dst: vdef,
        /// Left operand vector register.
        lhs: vuse,
        /// Right operand vector register.
        rhs: vuse,
        /// Lane count.
        w: u8,
    },
    /// Lane-parallel conversion: `vdst.lane[l] = cast<op>(vsrc.lane[l])`.
    26 => VCast {
        /// Conversion.
        op: CastOp,
        /// Source type.
        from: IrType,
        /// Destination type.
        to: IrType,
        /// Destination vector register.
        dst: vdef,
        /// Source vector register.
        src: vuse,
        /// Lane count.
        w: u8,
    },
    /// Horizontal reduction, left fold in lane order:
    /// `dst = (…(lane[0] <op> lane[1]) <op> …) <op> lane[w-1]`.
    27 => VReduce {
        /// Operation (associative integer op for exact results).
        op: BinOpKind,
        /// Operand type.
        ty: IrType,
        /// Scalar destination register.
        dst: rdef,
        /// Source vector register.
        src: vuse,
        /// Lane count.
        w: u8,
    },
    /// Epilogue bookkeeping: tallies `max(src, 0)` scalar remainder
    /// iterations into the `vm.simd.epilogue_iters` counter. No data effect.
    28 => VEpi {
        /// Scalar register holding the remaining-iteration count.
        src: ruse,
    },
}

impl Op {
    /// The run of argument registers a call reads in the function's shared
    /// `call_args` pool (empty for every other op). The pool is the one
    /// operand a row cannot describe, so the use accessors add it by hand.
    fn call_arg_run(self) -> std::ops::Range<usize> {
        match self {
            Op::Call { args_at, nargs, .. } => args_at as usize..args_at as usize + nargs as usize,
            _ => 0..0,
        }
    }

    // The accessors below are `#[inline]` because the passes call them per op:
    // written as one `match` each they were leaf functions, which rustc
    // inlines across codegen units and crates unasked; through `slots` they
    // are not, and without the hint each call costs about three times as much.

    /// The register this op defines, if any.
    #[inline]
    pub fn def(mut self) -> Option<Reg> {
        let mut def = None;
        self.slots(|s| {
            if let Slot::RDef(r) = s {
                def = Some(*r);
            }
        });
        def
    }

    /// The vector register this op defines, if any.
    #[inline]
    pub fn vdef(mut self) -> Option<VReg> {
        let mut vdef = None;
        self.slots(|s| {
            if let Slot::VDef(v) = s {
                vdef = Some(*v);
            }
        });
        vdef
    }

    /// Visits every vector register this op *reads*.
    #[inline]
    pub fn for_each_vuse(mut self, mut f: impl FnMut(VReg)) {
        self.slots(|s| {
            if let Slot::VUse(v) = s {
                f(*v);
            }
        });
    }

    /// Visits every register this op *reads*. A call's arguments live in the
    /// shared `call_args` pool, hence the extra parameter. Vector ops report
    /// only their *scalar* operands here (vector registers have their own
    /// namespace and are never renamed).
    #[inline]
    pub fn for_each_use(mut self, call_args: &[Reg], mut f: impl FnMut(Reg)) {
        call_args[self.call_arg_run()].iter().for_each(|&r| f(r));
        self.slots(|s| {
            if let Slot::RUse(r) = s {
                f(*r);
            }
        });
    }

    /// Rewrites every register through `f` (register-allocation renaming).
    /// A call's argument registers are renamed separately on the shared pool.
    #[inline]
    pub fn map_regs(&mut self, mut f: impl FnMut(Reg) -> Reg) {
        self.slots(|s| {
            if let Slot::RDef(r) | Slot::RUse(r) = s {
                *r = f(*r);
            }
        });
    }

    /// Visits every instruction offset this op may jump to, in row order
    /// (`then_t` before `else_t`).
    #[inline]
    pub fn for_each_target(mut self, mut f: impl FnMut(u32)) {
        self.slots(|s| {
            if let Slot::Label(t) = s {
                f(*t);
            }
        });
    }

    /// Rewrites every jump target through `f` (offset remapping after ops
    /// are deleted).
    #[inline]
    pub fn map_targets(&mut self, mut f: impl FnMut(u32) -> u32) {
        self.slots(|s| {
            if let Slot::Label(t) = s {
                *t = f(*t);
            }
        });
    }
}

/// One compiled function.
#[derive(Clone, Debug)]
pub struct VmFunction {
    /// Symbol name (module interner string).
    pub name: String,
    /// Register receiving the `i`-th argument at frame entry.
    pub params: Vec<Reg>,
    /// Size of the register file.
    pub num_regs: u16,
    /// Class of each register (indexed by register number).
    pub reg_class: Vec<RegClass>,
    /// Size of the vector register file (0 for scalar-only functions — the
    /// common case; frames skip the vector file entirely then).
    pub num_vregs: u16,
    /// Lane class of each vector register (indexed by vector register).
    pub vreg_class: Vec<RegClass>,
    /// Declared lane count of each vector register; every op touching the
    /// register must carry exactly this width (verifier-enforced).
    pub vreg_width: Vec<u8>,
    /// The flat instruction stream.
    pub ops: Vec<Op>,
    /// Constant pool (deduplicated).
    pub consts: Vec<PoolConst>,
    /// Flattened call-argument register runs, one per call op.
    pub call_args: Vec<Reg>,
    /// Table of call targets (deduplicated).
    pub call_targets: Vec<CallTarget>,
    /// Sorted instruction offsets that begin a basic block (branch targets
    /// must land here; also drives liveness and the disassembler).
    pub block_starts: Vec<u32>,
    /// Return type.
    pub ret: IrType,
}

impl VmFunction {
    /// The ops of the block starting at offset `start` (up to the next block
    /// start or the end of the stream).
    pub fn block_range(&self, start: u32) -> std::ops::Range<usize> {
        let end = match self.block_starts.binary_search(&start) {
            Ok(i) if i + 1 < self.block_starts.len() => self.block_starts[i + 1] as usize,
            _ => self.ops.len(),
        };
        start as usize..end
    }
}

/// A compiled module: functions plus a name index.
#[derive(Clone, Debug, Default)]
pub struct VmModule {
    /// Compiled functions.
    pub funcs: Vec<VmFunction>,
}

impl VmModule {
    /// Finds a function index by name.
    pub fn function_index(&self, name: &str) -> Option<u32> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| i as u32)
    }

    /// Total op count across all functions (size metric).
    pub fn num_ops(&self) -> usize {
        self.funcs.iter().map(|f| f.ops.len()).sum()
    }
}

/// A pool entry as [`disasm`] prints it: an immediate as its class's
/// letter over the value it stands for (`Val(I(-7))`, `Val(F(1.5))`,
/// `Val(P(0))`), a symbolic entry as itself.
fn const_text(c: PoolConst) -> String {
    match c {
        PoolConst::Val(RegClass::Int, v) => format!("Val(I({}))", v as i64),
        PoolConst::Val(RegClass::Float, v) => format!("Val(F({:?}))", f64::from_bits(v)),
        PoolConst::Val(RegClass::Ptr, v) => format!("Val(P({v}))"),
        other => format!("{other:?}"),
    }
}

/// Renders one function as readable assembly (debug dumps and goldens).
pub fn disasm(f: &VmFunction) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let params: Vec<String> = f.params.iter().map(|r| format!("r{r}")).collect();
    // Scalar-only functions keep the historical header shape (goldens pin it).
    let vregs = if f.num_vregs > 0 {
        format!(" vregs={}", f.num_vregs)
    } else {
        String::new()
    };
    let _ = writeln!(
        out,
        "func @{}({}) regs={}{} ret={}",
        f.name,
        params.join(", "),
        f.num_regs,
        vregs,
        f.ret
    );
    for (pc, op) in f.ops.iter().enumerate() {
        if f.block_starts.binary_search(&(pc as u32)).is_ok() {
            let _ = writeln!(out, "L{pc}:");
        }
        let text = match *op {
            Op::Const { dst, idx } => {
                format!("r{dst} = const {}", const_text(f.consts[idx as usize]))
            }
            Op::Mov { dst, src } => format!("r{dst} = mov r{src}"),
            Op::Alloca { dst, bytes } => format!("r{dst} = alloca {bytes}"),
            Op::Load { dst, addr, ty } => format!("r{dst} = load.{ty} [r{addr}]"),
            Op::Store { src, addr, ty } => format!("store.{ty} [r{addr}], r{src}"),
            Op::Gep {
                dst,
                base,
                index,
                elem_size,
            } => format!("r{dst} = gep r{base} + r{index}*{elem_size}"),
            Op::Bin {
                op,
                ty,
                dst,
                lhs,
                rhs,
            } => format!("r{dst} = {}.{ty} r{lhs}, r{rhs}", op.mnemonic()),
            Op::Cmp {
                pred,
                ty,
                dst,
                lhs,
                rhs,
            } => format!("r{dst} = cmp.{}.{ty} r{lhs}, r{rhs}", pred.mnemonic()),
            Op::Cast {
                op,
                from,
                to,
                dst,
                src,
            } => format!("r{dst} = {}.{from}.{to} r{src}", op.mnemonic()),
            Op::Select {
                dst,
                cond,
                t,
                f: fv,
            } => {
                format!("r{dst} = select r{cond}, r{t}, r{fv}")
            }
            Op::Call {
                target,
                args_at,
                nargs,
                dst,
                ..
            } => {
                let args: Vec<String> = f.call_args
                    [args_at as usize..args_at as usize + nargs as usize]
                    .iter()
                    .map(|r| format!("r{r}"))
                    .collect();
                let callee = match f.call_targets[target as usize] {
                    CallTarget::Bytecode(i) => format!("fn#{i}"),
                    CallTarget::Runtime(s) => format!("rt#{}", s.0),
                };
                match dst {
                    Some(d) => format!("r{d} = call {callee}({})", args.join(", ")),
                    None => format!("call {callee}({})", args.join(", ")),
                }
            }
            Op::Jmp { target } => format!("jmp L{target}"),
            Op::Br {
                cond,
                then_t,
                else_t,
            } => format!("br r{cond}, L{then_t}, L{else_t}"),
            Op::BinJmp {
                op,
                ty,
                dst,
                lhs,
                rhs,
                target,
            } => format!(
                "r{dst} = {}jmp.{ty} r{lhs}, r{rhs}, L{target}",
                op.mnemonic()
            ),
            Op::CmpBr {
                pred,
                ty,
                lhs,
                rhs,
                then_t,
                else_t,
            } => format!(
                "cmpbr.{}.{ty} r{lhs}, r{rhs}, L{then_t}, L{else_t}",
                pred.mnemonic()
            ),
            Op::Ret { src } => match src {
                Some(r) => format!("ret r{r}"),
                None => "ret".to_string(),
            },
            Op::Unreachable => "unreachable".to_string(),
            Op::VMov { dst, src, w } => format!("v{dst} = vmov.x{w} v{src}"),
            Op::VIota { dst, base, w } => format!("v{dst} = viota.x{w} r{base}"),
            Op::VBroadcast { dst, src, w } => {
                format!("v{dst} = vbcast.x{w} r{src}")
            }
            Op::VExtract { dst, src, lane } => {
                format!("r{dst} = vextract v{src}[{lane}]")
            }
            Op::VLoad { dst, addr, ty, w } => {
                format!("v{dst} = vload.{ty}.x{w} [r{addr}]")
            }
            Op::VStore { src, addr, ty, w } => {
                format!("vstore.{ty}.x{w} [r{addr}], v{src}")
            }
            Op::VGather {
                dst,
                base,
                idx,
                ty,
                elem_size,
                w,
            } => format!("v{dst} = vgather.{ty}.x{w} r{base} + v{idx}*{elem_size}"),
            Op::VScatter {
                src,
                base,
                idx,
                ty,
                elem_size,
                w,
            } => format!("vscatter.{ty}.x{w} r{base} + v{idx}*{elem_size}, v{src}"),
            Op::VBin {
                op,
                ty,
                dst,
                lhs,
                rhs,
                w,
            } => format!("v{dst} = v{}.{ty}.x{w} v{lhs}, v{rhs}", op.mnemonic()),
            Op::VCast {
                op,
                from,
                to,
                dst,
                src,
                w,
            } => format!("v{dst} = v{}.{from}.{to}.x{w} v{src}", op.mnemonic()),
            Op::VReduce {
                op,
                ty,
                dst,
                src,
                w,
            } => format!("r{dst} = vreduce.{}.{ty}.x{w} v{src}", op.mnemonic()),
            Op::VEpi { src } => format!("vepi r{src}"),
        };
        let _ = writeln!(out, "  {pc:4}  {text}");
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One op and what it defines, reads and jumps to.
    pub(crate) struct Row {
        pub(crate) op: Op,
        def: Option<Reg>,
        uses: &'static [Reg],
        vdef: Option<VReg>,
        vuses: &'static [VReg],
        targets: &'static [u32],
        terminator: bool,
    }

    /// The argument pool the `Call` row of [`one_of_each`] indexes.
    const POOL: [Reg; 4] = [9, 4, 5, 9];

    /// One instance of every row of the table, in tag order, with its
    /// operands written out by hand — deliberately *not* derived from the
    /// roles, so a role that changes shows up as a disagreement here. No two
    /// fields of an op share a value, so a swapped pair shows up too.
    #[rustfmt::skip]
    pub(crate) fn one_of_each() -> Vec<Row> {
        use {BinOpKind as B, CastOp as C, CmpPred as P, IrType as T};
        let row = |op, def, uses, vdef, vuses, targets, terminator| Row { op, def, uses, vdef, vuses, targets, terminator };
        vec![
            row(Op::Const { dst: 1, idx: 2 }, Some(1), &[], None, &[], &[], false),
            row(Op::Mov { dst: 1, src: 2 }, Some(1), &[2], None, &[], &[], false),
            row(Op::Alloca { dst: 1, bytes: 24 }, Some(1), &[], None, &[], &[], false),
            row(Op::Load { dst: 1, addr: 2, ty: T::I32 }, Some(1), &[2], None, &[], &[], false),
            row(Op::Store { src: 1, addr: 2, ty: T::F64 }, None, &[1, 2], None, &[], &[], false),
            row(Op::Gep { dst: 1, base: 2, index: 3, elem_size: 8 }, Some(1), &[2, 3], None, &[], &[], false),
            row(Op::Bin { op: B::Mul, ty: T::I64, dst: 1, lhs: 2, rhs: 3 }, Some(1), &[2, 3], None, &[], &[], false),
            row(Op::Cmp { pred: P::Sle, ty: T::I16, dst: 1, lhs: 2, rhs: 3 }, Some(1), &[2, 3], None, &[], &[], false),
            row(Op::Cast { op: C::SExt, from: T::I8, to: T::I64, dst: 1, src: 2 }, Some(1), &[2], None, &[], &[], false),
            row(Op::Select { dst: 1, cond: 2, t: 3, f: 4 }, Some(1), &[2, 3, 4], None, &[], &[], false),
            row(Op::Call { target: 6, args_at: 1, nargs: 2, ret: T::I64, dst: Some(7) }, Some(7), &[4, 5], None, &[], &[], false),
            row(Op::Jmp { target: 40 }, None, &[], None, &[], &[40], true),
            row(Op::Br { cond: 1, then_t: 40, else_t: 50 }, None, &[1], None, &[], &[40, 50], true),
            row(Op::BinJmp { op: B::Add, ty: T::I64, dst: 1, lhs: 2, rhs: 3, target: 40 }, Some(1), &[2, 3], None, &[], &[40], true),
            row(Op::CmpBr { pred: P::Ult, ty: T::I32, lhs: 1, rhs: 2, then_t: 40, else_t: 50 }, None, &[1, 2], None, &[], &[40, 50], true),
            row(Op::Ret { src: Some(1) }, None, &[1], None, &[], &[], true),
            row(Op::Unreachable, None, &[], None, &[], &[], true),
            row(Op::VMov { dst: 11, src: 12, w: 4 }, None, &[], Some(11), &[12], &[], false),
            row(Op::VIota { dst: 11, base: 1, w: 4 }, None, &[1], Some(11), &[], &[], false),
            row(Op::VBroadcast { dst: 11, src: 1, w: 4 }, None, &[1], Some(11), &[], &[], false),
            row(Op::VExtract { dst: 1, src: 11, lane: 3 }, Some(1), &[], None, &[11], &[], false),
            row(Op::VLoad { dst: 11, addr: 1, ty: T::F32, w: 4 }, None, &[1], Some(11), &[], &[], false),
            row(Op::VStore { src: 11, addr: 1, ty: T::F32, w: 4 }, None, &[1], None, &[11], &[], false),
            row(Op::VGather { elem_size: 8, dst: 11, base: 1, idx: 12, ty: T::I64, w: 4 }, None, &[1], Some(11), &[12], &[], false),
            row(Op::VScatter { elem_size: 8, src: 11, base: 1, idx: 12, ty: T::I64, w: 4 }, None, &[1], None, &[11, 12], &[], false),
            row(Op::VBin { op: B::FAdd, ty: T::F64, dst: 11, lhs: 12, rhs: 13, w: 4 }, None, &[], Some(11), &[12, 13], &[], false),
            row(Op::VCast { op: C::SiToFp, from: T::I32, to: T::F64, dst: 11, src: 12, w: 4 }, None, &[], Some(11), &[12], &[], false),
            row(Op::VReduce { op: B::Add, ty: T::I64, dst: 1, src: 11, w: 4 }, Some(1), &[], None, &[11], &[], false),
            row(Op::VEpi { src: 1 }, None, &[1], None, &[], &[], false),
        ]
    }

    fn uses(op: Op, pool: &[Reg]) -> Vec<Reg> {
        let mut out = Vec::new();
        op.for_each_use(pool, |r| out.push(r));
        out
    }

    fn vuses(op: Op) -> Vec<VReg> {
        let mut out = Vec::new();
        op.for_each_vuse(|v| out.push(v));
        out
    }

    fn targets(op: Op) -> Vec<u32> {
        let mut out = Vec::new();
        op.for_each_target(|t| out.push(t));
        out
    }

    #[test]
    fn tags_are_dense_and_every_row_is_in_the_matrix() {
        let dense: Vec<u8> = (0..Op::TAGS.len() as u8).collect();
        assert_eq!(Op::TAGS, dense, "tags must be 0..N in table order");
        // That row `i` of the matrix is the op with tag `i` is checked where
        // the tag is visible: on the wire, in `serde.rs`.
        assert_eq!(one_of_each().len(), Op::TAGS.len());
        for (i, &c) in RegClass::ALL.iter().enumerate() {
            assert_eq!(c as usize, i, "{c} is not at its own tag in ALL");
        }
    }

    #[test]
    fn derived_accessors_match_the_hand_written_matrix() {
        for row in one_of_each() {
            let op = row.op;
            assert_eq!(op.def(), row.def, "def of {op:?}");
            assert_eq!(uses(op, &POOL), row.uses, "uses of {op:?}");
            assert_eq!(op.vdef(), row.vdef, "vdef of {op:?}");
            assert_eq!(vuses(op), row.vuses, "vuses of {op:?}");
            assert_eq!(targets(op), row.targets, "targets of {op:?}");
            assert_eq!(
                op.is_terminator(),
                row.terminator,
                "is_terminator of {op:?}"
            );

            // The rewriting accessors touch exactly what the reading ones
            // report: scalar registers shift by 100, targets by 1000, and
            // vector registers and immediates stay put.
            let is_call = matches!(op, Op::Call { .. });
            let shifted = |rs: &[Reg]| rs.iter().map(|r| r + 100).collect::<Vec<Reg>>();
            let mut renamed = op;
            renamed.map_regs(|r| r + 100);
            assert_eq!(
                renamed.def(),
                row.def.map(|r| r + 100),
                "map_regs def of {op:?}"
            );
            let pool_uses = if is_call {
                row.uses.to_vec()
            } else {
                shifted(row.uses)
            };
            assert_eq!(uses(renamed, &POOL), pool_uses, "map_regs uses of {op:?}");
            assert_eq!(
                (renamed.vdef(), vuses(renamed)),
                (row.vdef, row.vuses.to_vec())
            );

            let mut moved = op;
            moved.map_targets(|t| t + 1000);
            let want: Vec<u32> = row.targets.iter().map(|t| t + 1000).collect();
            assert_eq!(targets(moved), want, "map_targets of {op:?}");
            moved.map_targets(|t| t - 1000);
            assert_eq!(
                moved, op,
                "map_targets changed more than the targets of {op:?}"
            );
        }
    }

    #[test]
    fn op_stays_small() {
        // The compiler passes stream these, and the engine's resolved form
        // of an op is held to the same 16 bytes; keep them cache-friendly.
        assert!(
            std::mem::size_of::<Op>() <= 16,
            "Op grew to {} bytes",
            std::mem::size_of::<Op>()
        );
    }

    #[test]
    fn def_and_uses() {
        let op = Op::Bin {
            op: BinOpKind::Add,
            ty: IrType::I64,
            dst: 2,
            lhs: 0,
            rhs: 1,
        };
        assert_eq!(op.def(), Some(2));
        let mut uses = Vec::new();
        op.for_each_use(&[], |r| uses.push(r));
        assert_eq!(uses, vec![0, 1]);

        let call = Op::Call {
            target: 0,
            args_at: 1,
            nargs: 2,
            ret: IrType::Void,
            dst: None,
        };
        let mut uses = Vec::new();
        call.for_each_use(&[9, 4, 5, 9], |r| uses.push(r));
        assert_eq!(uses, vec![4, 5], "call reads its slice of the arg pool");
    }

    #[test]
    fn vector_ops_report_defs_and_uses() {
        let red = Op::VReduce {
            op: BinOpKind::Add,
            ty: IrType::I64,
            dst: 5,
            src: 1,
            w: 4,
        };
        assert_eq!(red.def(), Some(5), "horizontal reduce defines a scalar");
        assert_eq!(red.vdef(), None);
        let mut vuses = Vec::new();
        red.for_each_vuse(|v| vuses.push(v));
        assert_eq!(vuses, vec![1]);

        let gather = Op::VGather {
            dst: 0,
            base: 3,
            idx: 1,
            ty: IrType::I64,
            elem_size: 8,
            w: 4,
        };
        assert_eq!(gather.vdef(), Some(0));
        let mut uses = Vec::new();
        gather.for_each_use(&[], |r| uses.push(r));
        assert_eq!(uses, vec![3], "gather's base pointer is a scalar use");
        let mut vuses = Vec::new();
        gather.for_each_vuse(|v| vuses.push(v));
        assert_eq!(vuses, vec![1]);
    }

    #[test]
    fn pool_const_classes() {
        assert_eq!(PoolConst::Val(RegClass::Int, 3).class(), RegClass::Int);
        let half = 1.5f64.to_bits();
        assert_eq!(
            PoolConst::Val(RegClass::Float, half).class(),
            RegClass::Float
        );
        assert_eq!(PoolConst::Global(SymbolId(0)).class(), RegClass::Ptr);
        assert_eq!(PoolConst::FnPtr(SymbolId(1)).class(), RegClass::Ptr);
    }
}
