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
//! `VCast` / `VReduce` lanes at widths 2, 4 and 8, a hand-built one-op
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
use omplt_vm::vm::{has_kernel_row, KernelRow, KERNEL_ROWS};
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

// ---------------------------------------------------------------------------
// Lane forms
// ---------------------------------------------------------------------------

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
    /// `ty`; registers `r0..r2` hold the three globals' addresses.
    fn load_inputs(&self, ty: IrType, w: u8, two: bool) -> Vec<Op> {
        let mut ops: Vec<Op> = (0..3).map(|i| Op::Const { dst: i, idx: i }).collect();
        for v in 0..1 + two as u16 {
            ops.push(Op::VLoad {
                dst: v,
                addr: v,
                ty,
                w,
            });
        }
        ops
    }

    fn consts(&self) -> Vec<PoolConst> {
        self.syms.iter().map(|&s| PoolConst::Global(s)).collect()
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
                ops.push(Op::VStore {
                    src: 2,
                    addr: 2,
                    ty: whole(ty),
                    w,
                });
                ops.push(Op::Ret { src: None });
                let code = verified(vec![vm_function(
                    0,
                    &[RegClass::Ptr; 3],
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
                    ops.push(Op::VStore {
                        src: 1,
                        addr: 2,
                        ty: whole(to),
                        w,
                    });
                    ops.push(Op::Ret { src: None });
                    let code = verified(vec![vm_function(
                        0,
                        &[RegClass::Ptr; 3],
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
                    dst: 3,
                    src: 0,
                    w,
                });
                ops.push(Op::Ret { src: Some(3) });
                let code = verified(vec![vm_function(
                    0,
                    &[RegClass::Ptr, RegClass::Ptr, RegClass::Ptr, c],
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

// ---------------------------------------------------------------------------
// The table itself
// ---------------------------------------------------------------------------

/// One op of each form a row of kind `row` gives a variant to.
fn forms(row: KernelRow) -> Vec<Op> {
    match row {
        KernelRow::Bin(op, ty) => vec![
            Op::Bin {
                op,
                ty,
                dst: 2,
                lhs: 0,
                rhs: 1,
            },
            Op::BinJmp {
                op,
                ty,
                dst: 2,
                lhs: 0,
                rhs: 1,
                target: 0,
            },
        ],
        KernelRow::Cmp(pred, ty) => vec![
            Op::Cmp {
                pred,
                ty,
                dst: 2,
                lhs: 0,
                rhs: 1,
            },
            Op::CmpBr {
                pred,
                ty,
                lhs: 0,
                rhs: 1,
                then_t: 0,
                else_t: 0,
            },
        ],
        KernelRow::Cast(op, from, to) => vec![Op::Cast {
            op,
            from,
            to,
            dst: 1,
            src: 0,
        }],
        KernelRow::Mem(ty) => vec![
            Op::Load {
                dst: 1,
                addr: 0,
                ty,
            },
            Op::Store {
                src: 1,
                addr: 0,
                ty,
            },
        ],
    }
}

/// Every row is reached — each of its forms resolves to a variant of the
/// row's own — no row is listed twice, and every valid pair the table does
/// not name is carried as the op it is. (The value tests above run every
/// pair of both kinds against the interpreter.)
#[test]
fn every_row_is_reached_and_every_other_pair_is_carried() {
    let mut rows = KERNEL_ROWS.to_vec();
    rows.dedup();
    assert_eq!(rows.len(), KERNEL_ROWS.len(), "a row is listed twice");
    for (i, a) in rows.iter().enumerate() {
        assert!(!rows[..i].contains(a), "{a:?} is listed twice");
    }

    let mut every = Vec::new();
    for ty in SCALAR_TYPES {
        every.push(KernelRow::Mem(ty));
        for &op in BinOpKind::ALL {
            if bin_valid(op, ty) {
                every.push(KernelRow::Bin(op, ty));
            }
        }
        for &pred in CmpPred::ALL {
            if cmp_valid(pred, ty) {
                every.push(KernelRow::Cmp(pred, ty));
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
        for op in forms(row) {
            assert_eq!(
                has_kernel_row(op),
                named,
                "{op:?}: the table {} {row:?}",
                if named { "names" } else { "does not name" }
            );
        }
        carried += !named as usize;
    }
    // The table names what the benchmark's workloads retire, so most valid
    // pairs are carried; three that no C program of theirs can produce:
    assert!(carried > 0, "nothing reaches the carrying arms");
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
