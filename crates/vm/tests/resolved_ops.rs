//! Every resolved variant against the oracle.
//!
//! `VmEngine::new` resolves each `Op` to a private execution form: a table
//! row's variant, whose dispatch arm calls the shared kernel with the row's
//! operator and type as literals, or — for a pair the table does not name —
//! the `Op` itself, whose arm hands the operator and type it holds to the
//! same kernel at run time. This suite holds every one of those arms to the
//! interpreter: for every valid
//! `BinOpKind × IrType`, `CmpPred × IrType` and `CastOp × from × to`, as
//! `Bin`, fused `BinJmp`, `Cmp`, fused `CmpBr`, `Cast`, and as `VBin` /
//! `VCast` / `VReduce` lanes at widths 2, 4 and 8 (and every integer
//! `VLatch`, an add then a compare, and `VIota`), a hand-built one-op
//! bytecode function must give the value or the `ExecError` the interpreter
//! gives for the same instruction on the same operands. It also walks the
//! table itself: every row resolves to a variant of its own, and nothing
//! else does.
//!
//! (`crates/interp/tests/fold_vs_exec.rs` holds the kernels themselves to an
//! independent evaluator, the IR builder's folder; this file holds the VM's
//! instantiations of them to the interpreter's.)

use omplt_interp::{Engine, ExecError, Interpreter, RuntimeConfig, ThreadCtx};
use omplt_ir::arith::{decode, encode};
use omplt_ir::{
    BinOpKind, CastOp, CmpPred, Function, Inst, IrType, Module, SymbolId, Terminator, Value,
};
use omplt_vm::ops::{Address, Indexed};
use omplt_vm::vm::{has_kernel_row, KernelRow, KERNEL_ROWS, ROW_LANES};
use omplt_vm::{verify_module, Op, PoolConst, Reg, RegClass, VmEngine, VmFunction, VmModule};

// ---------------------------------------------------------------------------
// Operands
// ---------------------------------------------------------------------------

/// Minimal deterministic PRNG (xorshift64*), as in `fold_vs_exec.rs`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// `fold_vs_exec`'s boundary operands, then what the narrower widths, the
/// shifts (counts at and past every width) and the int→float conversions
/// (`(float)16777217`) add to them.
const INT_EDGES: [i64; 27] = [
    0,
    1,
    -1,
    2,
    -2,
    i64::MAX,
    i64::MIN,
    i64::MAX - 1,
    i64::MIN + 1,
    i32::MAX as i64,
    i32::MIN as i64,
    u32::MAX as i64,
    i16::MIN as i64,
    u16::MAX as i64,
    i8::MIN as i64,
    u8::MAX as i64,
    7,
    8,
    15,
    16,
    31,
    32,
    33,
    63,
    64,
    65,
    16_777_217,
];

/// Zeros of both signs, infinities, `NaN`, a denormal, doubles no `f32`
/// holds (`0.1`, `16777217.0`, `1e300`), and values at the edges of the
/// integer ranges the float→int conversions saturate at.
const FLOAT_EDGES: [f64; 19] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    1.5,
    -2.5,
    0.1,
    16_777_217.0,
    1e300,
    -1e300,
    5e-324,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    2_147_483_648.0,
    -2_147_483_649.0,
    4_294_967_296.0,
    9.3e18,
    255.9,
];

/// The payloads a register of type `ty` is tried with: the edges, each also
/// wrapped to the type's own width (what verified code keeps there), and a
/// fixed-seed handful of full-width values.
fn operands(ty: IrType) -> Vec<u64> {
    let mut rng = Rng(0x5EED_0000 + ty as u64);
    if ty.is_float() {
        let mut v: Vec<f64> = FLOAT_EDGES.to_vec();
        v.extend((0..6).map(|_| f64::from_bits(rng.next())));
        v.extend((0..3).map(|_| (rng.next() as i64 >> 40) as f64 / 8.0));
        if ty == IrType::F32 {
            v.extend(FLOAT_EDGES.iter().map(|&x| x as f32 as f64));
        }
        v.into_iter().map(f64::to_bits).collect()
    } else if ty == IrType::Ptr {
        let mut v: Vec<u64> = vec![0, 1, 8, 1 << 32, (1 << 32) + 24, u64::MAX, 1 << 63];
        v.extend((0..4).map(|_| rng.next()));
        v
    } else {
        let mut v: Vec<i64> = INT_EDGES.to_vec();
        v.extend(INT_EDGES.iter().map(|&x| ty.wrap(x)));
        v.extend((0..6).map(|_| rng.next() as i64));
        v.sort_unstable();
        v.dedup();
        v.into_iter().map(|x| x as u64).collect()
    }
}

// ---------------------------------------------------------------------------
// The two machines
// ---------------------------------------------------------------------------

const SCALAR_TYPES: [IrType; 8] = [
    IrType::I1,
    IrType::I8,
    IrType::I16,
    IrType::I32,
    IrType::I64,
    IrType::F32,
    IrType::F64,
    IrType::Ptr,
];

/// The module whose function `t` returns the value of its one instruction,
/// pushed raw so the builder's folder never sees it.
fn oracle_module(params: Vec<IrType>, ret: IrType, inst: Inst) -> Module {
    let mut m = Module::new();
    let mut f = Function::new("t", params, ret);
    let entry = f.entry();
    let v = f.push_inst(entry, inst);
    f.blocks[0].term = Some(Terminator::Ret(Some(v)));
    m.add_function(f);
    m
}

/// What the interpreter's `t` returns: a payload, compared bit for bit (every
/// `NaN` keeps its own bits), or the error.
fn oracle(it: &Interpreter, args: Vec<u64>) -> Result<u64, ExecError> {
    it.call_by_name("t", args, &ThreadCtx::initial())
        .map(|v| v.expect("`t` returns a value"))
}

/// A hand-built bytecode function. `classes` are its scalar registers,
/// `vregs` its vector registers (class, width); parameters are `r0..`.
fn vm_function(
    nparams: usize,
    classes: &[RegClass],
    vregs: &[(RegClass, u8)],
    consts: Vec<PoolConst>,
    ops: Vec<Op>,
    block_starts: Vec<u32>,
    ret: IrType,
) -> VmFunction {
    VmFunction {
        name: "t".into(),
        params: (0..nparams as Reg).collect(),
        num_regs: classes.len() as u16,
        reg_class: classes.to_vec(),
        num_vregs: vregs.len() as u16,
        vreg_class: vregs.iter().map(|v| v.0).collect(),
        vreg_width: vregs.iter().map(|v| v.1).collect(),
        ops,
        consts,
        call_args: vec![],
        call_targets: vec![],
        block_starts,
        pads: vec![],
        ret,
    }
}

/// The functions as a module the verifier accepts — verified code is the
/// engine's precondition, and what "valid" means throughout this file.
fn verified(funcs: Vec<VmFunction>) -> VmModule {
    let code = VmModule { funcs };
    let errs = verify_module(&code);
    assert!(errs.is_empty(), "hand-built bytecode must verify: {errs:?}");
    code
}

fn run_frame(vm: &VmEngine, fi: u32, args: Vec<u64>) -> Result<u64, ExecError> {
    vm.run_frame(fi, args, &ThreadCtx::initial())
        .map(|v| v.expect("frame returns a value"))
}

fn int_const(v: i64) -> PoolConst {
    PoolConst::Val(RegClass::Int, v as u64)
}

// ---------------------------------------------------------------------------
// Which (operator, type) combinations are valid
// ---------------------------------------------------------------------------

/// A binary operator's operand types: float operators at the float types,
/// integer operators at the integer types and — the pointer flavor, additive
/// or refused at run time — at `ptr`.
fn bin_valid(op: BinOpKind, ty: IrType) -> bool {
    ty != IrType::Void && op.is_float() == ty.is_float()
}

fn cmp_valid(pred: CmpPred, ty: IrType) -> bool {
    ty != IrType::Void && pred.is_float() == ty.is_float()
}

/// A conversion's source and destination classes are its operator's.
fn cast_valid(op: CastOp, from: IrType, to: IrType) -> bool {
    use CastOp::*;
    let (int, float, ptr) = (
        |t: IrType| t.is_int(),
        |t: IrType| t.is_float(),
        |t: IrType| t == IrType::Ptr,
    );
    match op {
        Trunc | SExt | ZExt => int(from) && int(to),
        SiToFp | UiToFp => int(from) && float(to),
        FpToSi | FpToUi => float(from) && int(to),
        FpTrunc | FpExt => float(from) && float(to),
        PtrToInt => ptr(from) && int(to),
        IntToPtr => int(from) && ptr(to),
    }
}

// ---------------------------------------------------------------------------
// Scalar forms
// ---------------------------------------------------------------------------

#[test]
fn bin_and_fused_binjmp_match_the_interpreter() {
    let mut checked = 0;
    for &op in BinOpKind::ALL {
        for ty in SCALAR_TYPES.into_iter().filter(|&ty| bin_valid(op, ty)) {
            let inst = Inst::Bin {
                op,
                lhs: Value::Arg(0),
                rhs: Value::Arg(1),
            };
            let m = oracle_module(vec![ty, ty], ty, inst);
            let it = Interpreter::new(&m, RuntimeConfig::default());
            let c = RegClass::of(ty);
            let (dst, lhs, rhs) = (2, 0, 1);
            let code = verified(vec![
                vm_function(
                    2,
                    &[c, c, c],
                    &[],
                    vec![],
                    vec![
                        Op::Bin {
                            op,
                            ty,
                            dst,
                            lhs,
                            rhs,
                        },
                        Op::Ret { src: Some(dst) },
                    ],
                    vec![0],
                    ty,
                ),
                // The fused form jumps over a `ret lhs` that must not run.
                vm_function(
                    2,
                    &[c, c, c],
                    &[],
                    vec![],
                    vec![
                        Op::BinJmp {
                            op,
                            ty,
                            dst,
                            lhs,
                            rhs,
                            target: 2,
                        },
                        Op::Ret { src: Some(lhs) },
                        Op::Ret { src: Some(dst) },
                    ],
                    vec![0, 1, 2],
                    ty,
                ),
            ]);
            let vm = VmEngine::new(&m, &code, RuntimeConfig::default()).expect("engine");
            let vals = operands(ty);
            for &a in &vals {
                for &b in &vals {
                    let want = oracle(&it, vec![a, b]);
                    for (fi, form) in [(0, "bin"), (1, "binjmp")] {
                        let got = run_frame(&vm, fi, vec![a, b]);
                        assert_eq!(got, want, "{form} {op:?} {ty:?} on {a:?}, {b:?}");
                        checked += 1;
                    }
                }
            }
        }
    }
    assert!(checked > 50_000, "only {checked} comparisons ran");
}

#[test]
fn cmp_and_fused_cmpbr_match_the_interpreter() {
    let mut checked = 0;
    for &pred in CmpPred::ALL {
        for ty in SCALAR_TYPES.into_iter().filter(|&ty| cmp_valid(pred, ty)) {
            let inst = Inst::Cmp {
                pred,
                lhs: Value::Arg(0),
                rhs: Value::Arg(1),
            };
            let m = oracle_module(vec![ty, ty], IrType::I1, inst);
            let it = Interpreter::new(&m, RuntimeConfig::default());
            let c = RegClass::of(ty);
            let (dst, lhs, rhs) = (2, 0, 1);
            let code = verified(vec![
                vm_function(
                    2,
                    &[c, c, RegClass::Int],
                    &[],
                    vec![],
                    vec![
                        Op::Cmp {
                            pred,
                            ty,
                            dst,
                            lhs,
                            rhs,
                        },
                        Op::Ret { src: Some(dst) },
                    ],
                    vec![0],
                    IrType::I1,
                ),
                // The fused form returns 1 from its taken side, 0 from the other.
                vm_function(
                    2,
                    &[c, c, RegClass::Int],
                    &[],
                    vec![int_const(1), int_const(0)],
                    vec![
                        Op::CmpBr {
                            pred,
                            ty,
                            lhs,
                            rhs,
                            then_t: 1,
                            else_t: 3,
                        },
                        Op::Const { dst, idx: 0 },
                        Op::Ret { src: Some(dst) },
                        Op::Const { dst, idx: 1 },
                        Op::Ret { src: Some(dst) },
                    ],
                    vec![0, 1, 3],
                    IrType::I1,
                ),
            ]);
            let vm = VmEngine::new(&m, &code, RuntimeConfig::default()).expect("engine");
            let vals = operands(ty);
            for &a in &vals {
                for &b in &vals {
                    let want = oracle(&it, vec![a, b]);
                    for (fi, form) in [(0, "cmp"), (1, "cmpbr")] {
                        let got = run_frame(&vm, fi, vec![a, b]);
                        assert_eq!(got, want, "{form} {pred:?} {ty:?} on {a:?}, {b:?}");
                        checked += 1;
                    }
                }
            }
        }
    }
    assert!(checked > 50_000, "only {checked} comparisons ran");
}

/// The vector latch `iv += w; iv <pred> bound ? body : exit` at every
/// integer type and the four loop predicates: the interpreter's `add` of
/// `iv` and `w`, then its compare of the sum with `bound`, for the value
/// the latch leaves in `iv` and for the arm it takes.
#[test]
fn vlatch_steps_and_compares_as_the_interpreter() {
    let mut checked = 0;
    let ints = [
        IrType::I1,
        IrType::I8,
        IrType::I16,
        IrType::I32,
        IrType::I64,
    ];
    for pred in [CmpPred::Slt, CmpPred::Sle, CmpPred::Ult, CmpPred::Ule] {
        for ty in ints {
            let (lhs, rhs) = (Value::Arg(0), Value::Arg(1));
            let add = oracle_module(
                vec![ty, ty],
                ty,
                Inst::Bin {
                    op: BinOpKind::Add,
                    lhs,
                    rhs,
                },
            );
            let add = Interpreter::new(&add, RuntimeConfig::default());
            let cmp = oracle_module(vec![ty, ty], IrType::I1, Inst::Cmp { pred, lhs, rhs });
            let cmp = Interpreter::new(&cmp, RuntimeConfig::default());
            for w in [2u8, 4, 8] {
                let latch = |exit| Op::VLatch {
                    pred,
                    ty,
                    w,
                    iv: 0,
                    bound: 1,
                    body: 1,
                    exit,
                };
                let c = [RegClass::Int; 3];
                let code = verified(vec![
                    // `iv` as either arm finds it.
                    vm_function(
                        2,
                        &c,
                        &[],
                        vec![],
                        vec![latch(2), Op::Ret { src: Some(0) }, Op::Ret { src: Some(0) }],
                        vec![0, 1, 2],
                        ty,
                    ),
                    // 1 from the body's arm, 0 from the exit's.
                    vm_function(
                        2,
                        &c,
                        &[],
                        vec![int_const(1), int_const(0)],
                        vec![
                            latch(3),
                            Op::Const { dst: 2, idx: 0 },
                            Op::Ret { src: Some(2) },
                            Op::Const { dst: 2, idx: 1 },
                            Op::Ret { src: Some(2) },
                        ],
                        vec![0, 1, 3],
                        IrType::I1,
                    ),
                ]);
                let m = Module::new();
                let vm = VmEngine::new(&m, &code, RuntimeConfig::default()).expect("engine");
                let vals = operands(ty);
                for &iv in &vals {
                    let next = oracle(&add, vec![iv, u64::from(w)]);
                    for &bound in &vals {
                        let what = format!("vlatch {pred:?} {ty:?} x{w} on {iv:?}, {bound:?}");
                        assert_eq!(run_frame(&vm, 0, vec![iv, bound]), next, "{what}");
                        let taken = oracle(&cmp, vec![next.clone().unwrap(), bound]);
                        assert_eq!(run_frame(&vm, 1, vec![iv, bound]), taken, "{what}");
                        checked += 2;
                    }
                }
            }
        }
    }
    assert!(checked > 20_000, "only {checked} comparisons ran");
}

#[test]
fn cast_matches_the_interpreter() {
    let mut checked = 0;
    for &op in CastOp::ALL {
        for from in SCALAR_TYPES {
            for to in SCALAR_TYPES
                .into_iter()
                .filter(|&to| cast_valid(op, from, to))
            {
                let inst = Inst::Cast {
                    op,
                    val: Value::Arg(0),
                    to,
                };
                let m = oracle_module(vec![from], to, inst);
                let it = Interpreter::new(&m, RuntimeConfig::default());
                let code = verified(vec![vm_function(
                    1,
                    &[RegClass::of(from), RegClass::of(to)],
                    &[],
                    vec![],
                    vec![
                        Op::Cast {
                            op,
                            from,
                            to,
                            dst: 1,
                            src: 0,
                        },
                        Op::Ret { src: Some(1) },
                    ],
                    vec![0],
                    to,
                )]);
                let vm = VmEngine::new(&m, &code, RuntimeConfig::default()).expect("engine");
                for a in operands(from) {
                    let want = oracle(&it, vec![a]);
                    let got = run_frame(&vm, 0, vec![a]);
                    assert_eq!(got, want, "cast {op:?} {from:?}→{to:?} on {a:?}");
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 4_000, "only {checked} comparisons ran");
}

/// `store x; load` through a fresh slot, per type: the `mem` rows. What the
/// VM reads back is what the interpreter reads back from the same two
/// instructions.
#[test]
fn load_and_store_match_the_interpreter() {
    for ty in SCALAR_TYPES {
        let mut m = Module::new();
        let mut f = Function::new("t", vec![ty], ty);
        let entry = f.entry();
        let slot = f.push_inst(
            entry,
            Inst::Alloca {
                ty,
                count: 1,
                name: "slot".into(),
            },
        );
        f.push_inst(
            entry,
            Inst::Store {
                val: Value::Arg(0),
                ptr: slot,
            },
        );
        let back = f.push_inst(entry, Inst::Load { ty, ptr: slot });
        f.blocks[0].term = Some(Terminator::Ret(Some(back)));
        m.add_function(f);
        let it = Interpreter::new(&m, RuntimeConfig::default());
        let c = RegClass::of(ty);
        let code = verified(vec![vm_function(
            1,
            &[c, RegClass::Ptr, c],
            &[],
            vec![],
            vec![
                Op::Alloca { dst: 1, bytes: 8 },
                Op::Store {
                    src: 0,
                    addr: 1,
                    ty,
                },
                Op::Load {
                    dst: 2,
                    addr: 1,
                    ty,
                },
                Op::Ret { src: Some(2) },
            ],
            vec![0],
            ty,
        )]);
        let vm = VmEngine::new(&m, &code, RuntimeConfig::default()).expect("engine");
        for a in operands(ty) {
            let want = oracle(&it, vec![a]);
            let got = run_frame(&vm, 0, vec![a]);
            assert_eq!(got, want, "store/load {ty:?} of {a:?}");
        }
    }
}

/// The address of an indexed access is the one its folded ops compute: on
/// the interpreter, `t(p, x)` returns `gep p, (add (trunc x to i32), c)` at
/// `i32` and `gep p, (add x, c)` at `i64`, and `indexed_address` must
/// return its bits for every edge index, offset and scale — a wrapping
/// `int` subscript included.
#[test]
fn an_indexed_address_is_the_one_its_folded_ops_compute() {
    let offsets = [i32::MIN, -8, -1, 0, 1, 2, i32::MAX];
    let mut checked = 0;
    for wrap in [IrType::I32, IrType::I64] {
        for c in offsets {
            for scale in [1u8, 4, 8, 255] {
                let mut m = Module::new();
                let mut f = Function::new("t", vec![IrType::Ptr, IrType::I64], IrType::Ptr);
                let entry = f.entry();
                let index = if wrap == IrType::I32 {
                    let to = IrType::I32;
                    let val = Value::Arg(1);
                    f.push_inst(
                        entry,
                        Inst::Cast {
                            op: CastOp::Trunc,
                            val,
                            to,
                        },
                    )
                } else {
                    Value::Arg(1)
                };
                let rhs = Value::ConstInt {
                    ty: wrap,
                    val: c.into(),
                };
                let op = BinOpKind::Add;
                let sum = f.push_inst(
                    entry,
                    Inst::Bin {
                        op,
                        lhs: index,
                        rhs,
                    },
                );
                let ptr = Value::Arg(0);
                let elem_size = scale.into();
                let gep = f.push_inst(
                    entry,
                    Inst::Gep {
                        ptr,
                        index: sum,
                        elem_size,
                    },
                );
                f.blocks[0].term = Some(Terminator::Ret(Some(gep)));
                m.add_function(f);
                let it = Interpreter::new(&m, RuntimeConfig::default());
                for base in [0x0000_0003_0000_0040u64, u64::MAX - 7] {
                    for x in operands(IrType::I64) {
                        let want = oracle(&it, vec![base, x]).expect("no access, no error");
                        let got = omplt_vm::ops::indexed_address(base, x, c, wrap, scale);
                        assert_eq!(got, want, "base {base:#x} + {wrap}({x:#x} + {c})*{scale}");
                        checked += 1;
                    }
                }
            }
        }
    }
    assert!(checked > 1_000, "only {checked} comparisons ran");
}

// ---------------------------------------------------------------------------
// Lane forms
// ---------------------------------------------------------------------------

/// The registers every lane form starts with: the three globals'
/// addresses and a zero index.
const LANE_REGS: [RegClass; 4] = [RegClass::Ptr, RegClass::Ptr, RegClass::Ptr, RegClass::Int];

/// Lane inputs and outputs live in three module globals of 8 × 8 bytes.
struct LaneBench {
    module: Module,
    syms: [SymbolId; 3],
}

impl LaneBench {
    fn new() -> LaneBench {
        let mut module = Module::new();
        let syms = ["in_a", "in_b", "out"].map(|n| module.add_global(n, IrType::I64, 64));
        LaneBench { module, syms }
    }

    /// `prefix`: load `in_a` (and `in_b`) into `v0` (`v1`) as `w` lanes of
    /// `ty`; registers `r0..r2` hold the three globals' addresses, and the
    /// int register `r3` zero.
    fn load_inputs(&self, ty: IrType, w: u8, two: bool) -> Vec<Op> {
        let mut ops: Vec<Op> = (0..4).map(|i| Op::Const { dst: i, idx: i }).collect();
        for v in 0..1 + two as u16 {
            ops.push(LaneBench::at(v).vload(v, ty, w));
        }
        ops
    }

    /// The lane-0 address of global `which`: `r{which} + i64(r3)*8`.
    fn at(which: Reg) -> Indexed {
        Indexed {
            base: which,
            index: 3,
            c: 0,
            wrap: IrType::I64,
            scale: 8,
        }
    }

    fn consts(&self) -> Vec<PoolConst> {
        let globals = self.syms.iter().map(|&s| PoolConst::Global(s));
        globals.chain([PoolConst::Val(RegClass::Int, 0)]).collect()
    }

    /// Writes `vals` into global `which` as consecutive `ty`s.
    fn fill(&self, vm: &VmEngine, which: usize, ty: IrType, vals: &[u64]) {
        let state = vm.state();
        let base = state.global_addr(self.syms[which]).expect("global");
        for (l, &v) in vals.iter().enumerate() {
            let at = base + l as u64 * ty.size();
            state
                .mem
                .store(at, ty.size(), encode(ty, v))
                .expect("store");
        }
    }

    /// Reads `w` consecutive `ty`s back from `out`.
    fn read_out(&self, vm: &VmEngine, ty: IrType, w: u8) -> Vec<u64> {
        let state = vm.state();
        let base = state.global_addr(self.syms[2]).expect("global");
        (0..w as u64)
            .map(|l| {
                let raw = state.mem.load(base + l * ty.size(), ty.size());
                decode(ty, raw.expect("load"))
            })
            .collect()
    }
}

/// What a register of type `ty` holds after `v` went through memory — the
/// value a lane really starts from.
fn stored(ty: IrType, v: u64) -> u64 {
    decode(ty, encode(ty, v) & (u64::MAX >> (64 - 8 * ty.size())))
}

/// The type that stores all 64 bits of a register holding a `ty`. Lane
/// results are stored and read back at it, so that a payload the op did not
/// wrap or round to `ty` shows instead of being cut to size by the store.
fn whole(ty: IrType) -> IrType {
    match RegClass::of(ty) {
        RegClass::Int => IrType::I64,
        RegClass::Float => IrType::F64,
        RegClass::Ptr => IrType::Ptr,
    }
}

/// `w` operands per input, different in every lane: a window sliding over
/// the operand list, so across the windows every operand meets every lane.
fn windows(vals: &[u64], w: u8, stride: usize) -> impl Iterator<Item = Vec<u64>> + '_ {
    (0..vals.len()).map(move |at| {
        (0..w as usize)
            .map(|l| vals[(at + l * stride) % vals.len()])
            .collect()
    })
}

const WIDTHS: [u8; 3] = [2, 4, 8];

#[test]
fn vbin_lanes_match_the_interpreter() {
    let bench = LaneBench::new();
    let mut checked = 0;
    for &op in BinOpKind::ALL {
        // No vector pointer arithmetic: the verifier refuses it.
        let types = SCALAR_TYPES
            .into_iter()
            .filter(|&ty| bin_valid(op, ty) && ty != IrType::Ptr);
        for ty in types {
            let inst = Inst::Bin {
                op,
                lhs: Value::Arg(0),
                rhs: Value::Arg(1),
            };
            let m = oracle_module(vec![ty, ty], ty, inst);
            let it = Interpreter::new(&m, RuntimeConfig::default());
            let c = RegClass::of(ty);
            for w in WIDTHS {
                let mut ops = bench.load_inputs(ty, w, true);
                ops.push(Op::VBin {
                    op,
                    ty,
                    dst: 2,
                    lhs: 0,
                    rhs: 1,
                    w,
                });
                ops.push(LaneBench::at(2).vstore(2, whole(ty), w));
                ops.push(Op::Ret { src: None });
                let code = verified(vec![vm_function(
                    0,
                    &LANE_REGS,
                    &[(c, w); 3],
                    bench.consts(),
                    ops,
                    vec![0],
                    IrType::Void,
                )]);
                let vm =
                    VmEngine::new(&bench.module, &code, RuntimeConfig::default()).expect("engine");
                let vals = operands(ty);
                for (a, b) in windows(&vals, w, 1).zip(windows(&vals, w, 3)) {
                    bench.fill(&vm, 0, ty, &a);
                    bench.fill(&vm, 1, ty, &b);
                    // Lane by lane on the interpreter — the first lane that
                    // fails is the vector op's failure.
                    let want: Result<Vec<u64>, ExecError> = (0..w as usize)
                        .map(|l| oracle(&it, vec![stored(ty, a[l]), stored(ty, b[l])]))
                        .collect();
                    let got = vm
                        .run_frame(0, vec![], &ThreadCtx::initial())
                        .map(|_| bench.read_out(&vm, whole(ty), w));
                    assert_eq!(got, want, "vbin {op:?} {ty:?} x{w} on {a:?}, {b:?}");
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 5_000, "only {checked} comparisons ran");
}

#[test]
fn vcast_lanes_match_the_interpreter() {
    let bench = LaneBench::new();
    let mut checked = 0;
    for &op in CastOp::ALL {
        for from in SCALAR_TYPES {
            for to in SCALAR_TYPES
                .into_iter()
                .filter(|&to| cast_valid(op, from, to))
            {
                let inst = Inst::Cast {
                    op,
                    val: Value::Arg(0),
                    to,
                };
                let m = oracle_module(vec![from], to, inst);
                let it = Interpreter::new(&m, RuntimeConfig::default());
                for w in WIDTHS {
                    let mut ops = bench.load_inputs(from, w, false);
                    ops.push(Op::VCast {
                        op,
                        from,
                        to,
                        dst: 1,
                        src: 0,
                        w,
                    });
                    ops.push(LaneBench::at(2).vstore(1, whole(to), w));
                    ops.push(Op::Ret { src: None });
                    let code = verified(vec![vm_function(
                        0,
                        &LANE_REGS,
                        &[(RegClass::of(from), w), (RegClass::of(to), w)],
                        bench.consts(),
                        ops,
                        vec![0],
                        IrType::Void,
                    )]);
                    let vm = VmEngine::new(&bench.module, &code, RuntimeConfig::default())
                        .expect("engine");
                    let vals = operands(from);
                    for a in windows(&vals, w, 1) {
                        bench.fill(&vm, 0, from, &a);
                        let want: Result<Vec<u64>, ExecError> = (0..w as usize)
                            .map(|l| oracle(&it, vec![stored(from, a[l])]))
                            .collect();
                        let got = vm
                            .run_frame(0, vec![], &ThreadCtx::initial())
                            .map(|_| bench.read_out(&vm, whole(to), w));
                        assert_eq!(got, want, "vcast {op:?} {from:?}→{to:?} x{w} on {a:?}");
                        checked += 1;
                    }
                }
            }
        }
    }
    assert!(checked > 5_000, "only {checked} comparisons ran");
}

#[test]
fn vreduce_folds_lanes_in_order_like_the_interpreter() {
    let bench = LaneBench::new();
    let mut checked = 0;
    for &op in BinOpKind::ALL {
        let types = SCALAR_TYPES
            .into_iter()
            .filter(|&ty| bin_valid(op, ty) && ty != IrType::Ptr);
        for ty in types {
            let inst = Inst::Bin {
                op,
                lhs: Value::Arg(0),
                rhs: Value::Arg(1),
            };
            let m = oracle_module(vec![ty, ty], ty, inst);
            let it = Interpreter::new(&m, RuntimeConfig::default());
            let c = RegClass::of(ty);
            for w in WIDTHS {
                let mut ops = bench.load_inputs(ty, w, false);
                ops.push(Op::VReduce {
                    op,
                    ty,
                    dst: 4,
                    src: 0,
                    w,
                });
                ops.push(Op::Ret { src: Some(4) });
                let code = verified(vec![vm_function(
                    0,
                    &[&LANE_REGS[..], &[c]].concat(),
                    &[(c, w)],
                    bench.consts(),
                    ops,
                    vec![0],
                    ty,
                )]);
                let vm =
                    VmEngine::new(&bench.module, &code, RuntimeConfig::default()).expect("engine");
                let vals = operands(ty);
                for a in windows(&vals, w, 1) {
                    bench.fill(&vm, 0, ty, &a);
                    // (…(lane0 op lane1) op …) op lane[w-1], left to right.
                    let want = a[1..].iter().try_fold(stored(ty, a[0]), |acc, &lane| {
                        oracle(&it, vec![acc, stored(ty, lane)])
                    });
                    let got = run_frame(&vm, 0, vec![]);
                    assert_eq!(got, want, "vreduce {op:?} {ty:?} x{w} on {a:?}");
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 5_000, "only {checked} comparisons ran");
}

/// `viota`'s lanes are the interpreter's `add i64 base, l`, at every width
/// and at the top of the range, where the lanes wrap.
#[test]
fn viota_lanes_match_the_interpreter() {
    let bench = LaneBench::new();
    let add = oracle_module(
        vec![IrType::I64, IrType::I64],
        IrType::I64,
        Inst::Bin {
            op: BinOpKind::Add,
            lhs: Value::Arg(0),
            rhs: Value::Arg(1),
        },
    );
    let it = Interpreter::new(&add, RuntimeConfig::default());
    let mut checked = 0;
    for w in WIDTHS {
        // `r0` is the base; the lanes go to `out`.
        let out = Indexed {
            base: 1,
            index: 2,
            c: 0,
            wrap: IrType::I64,
            scale: 8,
        };
        let code = verified(vec![vm_function(
            1,
            &[RegClass::Int, RegClass::Ptr, RegClass::Int],
            &[(RegClass::Int, w)],
            vec![PoolConst::Global(bench.syms[2]), int_const(0)],
            vec![
                Op::Const { dst: 1, idx: 0 },
                Op::Const { dst: 2, idx: 1 },
                Op::VIota { dst: 0, base: 0, w },
                out.vstore(0, IrType::I64, w),
                Op::Ret { src: None },
            ],
            vec![0],
            IrType::Void,
        )]);
        let vm = VmEngine::new(&bench.module, &code, RuntimeConfig::default()).expect("engine");
        for base in operands(IrType::I64) {
            let want: Result<Vec<u64>, ExecError> = (0..u64::from(w))
                .map(|l| oracle(&it, vec![base, l]))
                .collect();
            let got = vm
                .run_frame(0, vec![base], &ThreadCtx::initial())
                .map(|_| bench.read_out(&vm, IrType::I64, w));
            assert_eq!(got, want, "viota x{w} from {base:#x}");
            checked += 1;
        }
    }
    assert!(checked > 90, "only {checked} comparisons ran");
}

/// A lane op whose destination is one of its operands: lane `l` is written
/// after lane `l` of each operand is read, so every lane is the
/// interpreter's, at the width of the rows and at widths that are carried.
#[test]
fn vbin_into_its_own_operand_matches_the_interpreter() {
    let bench = LaneBench::new();
    let mut checked = 0;
    let rows = KERNEL_ROWS.iter().filter_map(|r| match *r {
        KernelRow::Bin(op, ty) => Some((op, ty)),
        _ => None,
    });
    for (op, ty) in rows {
        let inst = Inst::Bin {
            op,
            lhs: Value::Arg(0),
            rhs: Value::Arg(1),
        };
        let m = oracle_module(vec![ty, ty], ty, inst);
        let it = Interpreter::new(&m, RuntimeConfig::default());
        for w in WIDTHS {
            for dst in [0, 1] {
                let mut ops = bench.load_inputs(ty, w, true);
                ops.push(Op::VBin {
                    op,
                    ty,
                    dst,
                    lhs: 0,
                    rhs: 1,
                    w,
                });
                ops.push(LaneBench::at(2).vstore(dst, whole(ty), w));
                ops.push(Op::Ret { src: None });
                let code = verified(vec![vm_function(
                    0,
                    &LANE_REGS,
                    &[(RegClass::of(ty), w); 2],
                    bench.consts(),
                    ops,
                    vec![0],
                    IrType::Void,
                )]);
                let vm =
                    VmEngine::new(&bench.module, &code, RuntimeConfig::default()).expect("engine");
                let vals = operands(ty);
                for (a, b) in windows(&vals, w, 1).zip(windows(&vals, w, 5)) {
                    bench.fill(&vm, 0, ty, &a);
                    bench.fill(&vm, 1, ty, &b);
                    let want: Result<Vec<u64>, ExecError> = (0..w as usize)
                        .map(|l| oracle(&it, vec![stored(ty, a[l]), stored(ty, b[l])]))
                        .collect();
                    let got = vm
                        .run_frame(0, vec![], &ThreadCtx::initial())
                        .map(|_| bench.read_out(&vm, whole(ty), w));
                    assert_eq!(got, want, "v{dst} = vbin {op:?} {ty:?} x{w} v0, v1");
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 1_000, "only {checked} comparisons ran");
}

/// A `vsrem` whose divisor is zero in lane `k` alone fails with the
/// interpreter's error for that lane, whichever lane it is.
#[test]
fn vsrem_by_zero_in_one_lane_faults_as_the_interpreter() {
    let bench = LaneBench::new();
    let ty = IrType::I32;
    let inst = Inst::Bin {
        op: BinOpKind::SRem,
        lhs: Value::Arg(0),
        rhs: Value::Arg(1),
    };
    let m = oracle_module(vec![ty, ty], ty, inst);
    let it = Interpreter::new(&m, RuntimeConfig::default());
    for w in WIDTHS {
        let mut ops = bench.load_inputs(ty, w, true);
        ops.push(Op::VBin {
            op: BinOpKind::SRem,
            ty,
            dst: 2,
            lhs: 0,
            rhs: 1,
            w,
        });
        ops.push(LaneBench::at(2).vstore(2, whole(ty), w));
        ops.push(Op::Ret { src: None });
        let code = verified(vec![vm_function(
            0,
            &LANE_REGS,
            &[(RegClass::Int, w); 3],
            bench.consts(),
            ops,
            vec![0],
            IrType::Void,
        )]);
        let vm = VmEngine::new(&bench.module, &code, RuntimeConfig::default()).expect("engine");
        let a: Vec<u64> = (0..u64::from(w)).map(|l| 100 + l).collect();
        for k in 0..=w as usize {
            let b: Vec<u64> = (0..w as usize).map(|l| (l != k) as u64 * 7).collect();
            bench.fill(&vm, 0, ty, &a);
            bench.fill(&vm, 1, ty, &b);
            let want: Result<Vec<u64>, ExecError> = (0..w as usize)
                .map(|l| oracle(&it, vec![a[l], b[l]]))
                .collect();
            assert_eq!(want.is_err(), k < w as usize);
            let got = vm
                .run_frame(0, vec![], &ThreadCtx::initial())
                .map(|_| bench.read_out(&vm, whole(ty), w));
            assert_eq!(got, want, "vsrem x{w}, zero divisor in lane {k}");
        }
    }
}

/// Ten `ty`s in a global `g`, and the interpreter's `t(p, i, v)`, which
/// stores `v` to `p[i]` (`store`) or returns `p[i]`: the oracle of a lane
/// access at index `i`.
fn access_module(ty: IrType, store: bool) -> (Module, SymbolId) {
    let mut m = Module::new();
    let g = m.add_global("g", ty, 10 * ty.size());
    let mut f = Function::new("t", vec![IrType::Ptr, IrType::I64, ty], ty);
    let entry = f.entry();
    let ptr = f.push_inst(
        entry,
        Inst::Gep {
            ptr: Value::Arg(0),
            index: Value::Arg(1),
            elem_size: ty.size(),
        },
    );
    let ret = if store {
        f.push_inst(
            entry,
            Inst::Store {
                val: Value::Arg(2),
                ptr,
            },
        );
        Value::Arg(2)
    } else {
        f.push_inst(entry, Inst::Load { ty, ptr })
    };
    f.blocks[0].term = Some(Terminator::Ret(Some(ret)));
    m.add_function(f);
    (m, g)
}

/// The VM side of a lane access: `r0` is `g`, `r1` the lane-0 index, `r2` a
/// scalar of `ty` whose broadcast a store writes; `v1` holds the lane
/// indices for a gather, and `v0` the lanes.
fn lane_access(g: SymbolId, ty: IrType, w: u8, access: Op) -> VmModule {
    let c = RegClass::of(ty);
    verified(vec![vm_function(
        3,
        &[RegClass::Ptr, RegClass::Int, c],
        &[(c, w), (RegClass::Int, w)],
        vec![PoolConst::Global(g)],
        vec![
            Op::Const { dst: 0, idx: 0 },
            Op::VBroadcast { dst: 0, src: 2, w },
            Op::VIota { dst: 1, base: 1, w },
            access,
            Op::Ret { src: None },
        ],
        vec![0],
        IrType::Void,
    )])
}

const MEM_TYPES: [IrType; 3] = [IrType::I32, IrType::I64, IrType::F64];

/// A unit-stride load and a gather whose lane `k` is the first to leave
/// their region fail with the interpreter's error for that lane's load.
#[test]
fn a_lane_load_leaving_its_region_faults_as_the_interpreter() {
    for ty in MEM_TYPES {
        let (m, g) = access_module(ty, false);
        let it = Interpreter::new(&m, RuntimeConfig::default());
        let p = it.state().global_addr(g).expect("global");
        for w in WIDTHS {
            let at = Indexed {
                base: 0,
                index: 1,
                c: 0,
                wrap: IrType::I64,
                scale: ty.size() as u8,
            };
            let gather = Op::VGather {
                elem_size: ty.size() as u32,
                dst: 0,
                base: 0,
                idx: 1,
                ty,
                w,
            };
            for access in [at.vload(0, ty, w), gather] {
                let code = lane_access(g, ty, w, access);
                let vm = VmEngine::new(&m, &code, RuntimeConfig::default()).expect("engine");
                assert_eq!(vm.state().global_addr(g), Ok(p));
                for k in 0..=w as i64 {
                    let i = 10 - k;
                    let want = (0..i64::from(w))
                        .map(|l| oracle(&it, vec![p, (i + l) as u64, 0]))
                        .find_map(Result::err);
                    assert_eq!(want.is_some(), k < i64::from(w));
                    let got = vm.run_frame(0, vec![0, i as u64, 0], &ThreadCtx::initial());
                    assert_eq!(got.err(), want, "{access:?} from index {i}");
                }
            }
        }
    }
}

/// A unit-stride store whose lane `k` is the first to leave its region has
/// stored lanes `0..k` when it fails, with the interpreter's error for lane
/// `k`'s store, and the bytes of its region are the interpreter's after the
/// same stores.
#[test]
fn a_lane_store_leaving_its_region_stores_the_lanes_before_it() {
    for ty in MEM_TYPES {
        let (m, g) = access_module(ty, true);
        let v = if ty.is_float() {
            2.5f64.to_bits()
        } else {
            0x1234_5678
        };
        for w in WIDTHS {
            let at = Indexed {
                base: 0,
                index: 1,
                c: 0,
                wrap: IrType::I64,
                scale: ty.size() as u8,
            };
            let code = lane_access(g, ty, w, at.vstore(0, ty, w));
            for k in 0..=w as i64 {
                let i = 10 - k;
                // Fresh memories: each run starts from a zeroed `g`.
                let it = Interpreter::new(&m, RuntimeConfig::default());
                let p = it.state().global_addr(g).expect("global");
                let want = (0..i64::from(w))
                    .map(|l| oracle(&it, vec![p, (i + l) as u64, v]))
                    .find_map(Result::err);
                assert_eq!(want.is_some(), k < i64::from(w));
                let vm = VmEngine::new(&m, &code, RuntimeConfig::default()).expect("engine");
                let got = vm.run_frame(0, vec![0, i as u64, v], &ThreadCtx::initial());
                assert_eq!(got.err(), want, "vstoreidx x{w} from index {i}");
                for b in 0..10 * ty.size() {
                    assert_eq!(
                        vm.state().mem.load(p + b, 1),
                        it.state().mem.load(p + b, 1),
                        "byte {b} of `g` after vstoreidx x{w} from index {i}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The table itself
// ---------------------------------------------------------------------------

/// The one op a row of kind `row` gives a variant to.
fn form(row: KernelRow) -> Op {
    let at = Indexed {
        base: 0,
        index: 2,
        c: -1,
        wrap: IrType::I32,
        scale: 8,
    };
    match row {
        KernelRow::Bin(op, ty) => Op::Bin {
            op,
            ty,
            dst: 2,
            lhs: 0,
            rhs: 1,
        },
        KernelRow::BinJmp(op, ty) => Op::BinJmp {
            op,
            ty,
            dst: 2,
            lhs: 0,
            rhs: 1,
            target: 0,
        },
        KernelRow::Cmp(pred, ty) => Op::Cmp {
            pred,
            ty,
            dst: 2,
            lhs: 0,
            rhs: 1,
        },
        KernelRow::CmpBr(pred, ty) => Op::CmpBr {
            pred,
            ty,
            lhs: 0,
            rhs: 1,
            then_t: 0,
            else_t: 0,
        },
        KernelRow::Cast(op, from, to) => Op::Cast {
            op,
            from,
            to,
            dst: 1,
            src: 0,
        },
        KernelRow::Load(ty) => Address::Reg(0).load(1, ty),
        KernelRow::Store(ty) => Address::Reg(0).store(1, ty),
        KernelRow::LoadIdx(ty) => Address::Indexed(at).load(1, ty),
        KernelRow::StoreIdx(ty) => Address::Indexed(Indexed {
            c: 1,
            wrap: IrType::I64,
            scale: 4,
            ..at
        })
        .store(1, ty),
        KernelRow::VBin(op, ty) => Op::VBin {
            op,
            ty,
            dst: 2,
            lhs: 0,
            rhs: 1,
            w: ROW_LANES,
        },
        KernelRow::VLatch(pred, ty) => Op::VLatch {
            pred,
            ty,
            w: ROW_LANES,
            iv: 0,
            bound: 1,
            body: 0,
            exit: 0,
        },
        KernelRow::VLoadIdx(ty) => LaneBench::at(0).vload(1, ty, ROW_LANES),
        KernelRow::VStoreIdx(ty) => LaneBench::at(0).vstore(1, ty, ROW_LANES),
        KernelRow::VGather(ty) => Op::VGather {
            elem_size: 8,
            dst: 1,
            base: 0,
            idx: 2,
            ty,
            w: ROW_LANES,
        },
        KernelRow::Iota => Op::VIota {
            dst: 1,
            base: 0,
            w: ROW_LANES,
        },
    }
}

/// Every row is reached — its form resolves to a variant of the row's own —
/// no row is listed twice, and every valid pair of every kind the table
/// does not name is carried as the op it is. (The value tests above run
/// every pair of every kind against the interpreter.)
#[test]
fn every_row_is_reached_and_every_other_pair_is_carried() {
    let mut rows = KERNEL_ROWS.to_vec();
    rows.dedup();
    assert_eq!(rows.len(), KERNEL_ROWS.len(), "a row is listed twice");
    for (i, a) in rows.iter().enumerate() {
        assert!(!rows[..i].contains(a), "{a:?} is listed twice");
    }

    let mut every = vec![KernelRow::Iota];
    for ty in SCALAR_TYPES {
        every.extend([
            KernelRow::Load(ty),
            KernelRow::Store(ty),
            KernelRow::LoadIdx(ty),
            KernelRow::StoreIdx(ty),
            KernelRow::VLoadIdx(ty),
            KernelRow::VStoreIdx(ty),
            KernelRow::VGather(ty),
        ]);
        for &op in BinOpKind::ALL {
            if bin_valid(op, ty) {
                every.extend([
                    KernelRow::Bin(op, ty),
                    KernelRow::BinJmp(op, ty),
                    KernelRow::VBin(op, ty),
                ]);
            }
        }
        for &pred in CmpPred::ALL {
            if cmp_valid(pred, ty) {
                every.extend([
                    KernelRow::Cmp(pred, ty),
                    KernelRow::CmpBr(pred, ty),
                    KernelRow::VLatch(pred, ty),
                ]);
            }
        }
        for to in SCALAR_TYPES {
            for &op in CastOp::ALL {
                if cast_valid(op, ty, to) {
                    every.push(KernelRow::Cast(op, ty, to));
                }
            }
        }
    }
    for row in &rows {
        assert!(every.contains(row), "{row:?} is not a valid combination");
    }
    let mut carried = 0;
    for row in every {
        let named = rows.contains(&row);
        let op = form(row);
        assert_eq!(
            has_kernel_row(op),
            named,
            "{op:?}: the table {} {row:?}",
            if named { "names" } else { "does not name" }
        );
        carried += !named as usize;
    }
    // The table names what the benchmark's workloads retire, so most valid
    // pairs are carried.
    assert!(carried > 0, "nothing reaches the carrying arms");
    // A vector op of a named row at another width is carried.
    let rows = [
        KernelRow::VLatch(CmpPred::Slt, IrType::I32),
        KernelRow::VBin(BinOpKind::Add, IrType::I32),
        KernelRow::VLoadIdx(IrType::I32),
        KernelRow::VStoreIdx(IrType::I32),
        KernelRow::VGather(IrType::I32),
        KernelRow::Iota,
    ];
    for op in rows.map(form) {
        for w in [2, 8] {
            let at_w = with_width(op, w);
            assert!(!has_kernel_row(at_w), "{at_w:?} has a row");
        }
    }
    // Three pairs that no C program of theirs can produce:
    assert!(!has_kernel_row(Op::Bin {
        op: BinOpKind::FRem,
        ty: IrType::F64,
        dst: 2,
        lhs: 0,
        rhs: 1
    }));
    assert!(!has_kernel_row(Op::Bin {
        op: BinOpKind::Mul,
        ty: IrType::Ptr,
        dst: 2,
        lhs: 0,
        rhs: 1
    }));
    assert!(!has_kernel_row(Op::Bin {
        op: BinOpKind::SRem,
        ty: IrType::I16,
        dst: 2,
        lhs: 0,
        rhs: 1
    }));
}

/// `op`, a vector op, at `w` lanes.
fn with_width(op: Op, w: u8) -> Op {
    let mut op = op;
    match &mut op {
        Op::VBin { w: lanes, .. }
        | Op::VLoadIdx { w: lanes, .. }
        | Op::VStoreIdx { w: lanes, .. }
        | Op::VGather { w: lanes, .. }
        | Op::VIota { w: lanes, .. }
        | Op::VLatch { w: lanes, .. } => *lanes = w,
        other => panic!("{other:?} is not a vector op"),
    }
    op
}
