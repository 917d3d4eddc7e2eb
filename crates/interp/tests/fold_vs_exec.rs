//! Property-style test: the `IrBuilder`'s on-the-fly constant folder must
//! agree with the interpreter's execution of the unfolded instruction —
//! otherwise "simplifies expressions on-the-fly" (paper §1.3) would silently
//! change program meaning.
//!
//! Formerly written with `proptest`; rewritten as deterministic fixed-seed
//! sweeps so the workspace builds without registry access.

use omplt_interp::{Engine, Interpreter, RtVal, RuntimeConfig, ThreadCtx};
use omplt_ir::{BinOpKind, CastOp, CmpPred, Function, Inst, IrBuilder, IrType, Module, Value};

/// Minimal deterministic PRNG (xorshift64*).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn next_i64(&mut self) -> i64 {
        self.next() as i64
    }
}

/// Interesting boundary operands mixed into every sweep.
const EDGE_CASES: [i64; 9] = [
    0,
    1,
    -1,
    2,
    -2,
    i64::MAX,
    i64::MIN,
    i64::MAX - 1,
    i64::MIN + 1,
];

/// Executes `op(a, b)` through the interpreter without any folding.
fn exec_unfolded(op: BinOpKind, ty: IrType, a: i64, b: i64) -> Option<i64> {
    let mut m = Module::new();
    let mut f = Function::new("t", vec![ty, ty], IrType::I64);
    {
        // Raw pushes bypass the builder's folder.
        let entry = f.entry();
        let v = f.push_inst(
            entry,
            Inst::Bin {
                op,
                lhs: Value::Arg(0),
                rhs: Value::Arg(1),
            },
        );
        let widened = f.push_inst(
            entry,
            Inst::Cast {
                op: omplt_ir::CastOp::SExt,
                val: v,
                to: IrType::I64,
            },
        );
        f.blocks[0].term = Some(omplt_ir::Terminator::Ret(Some(widened)));
    }
    m.add_function(f);
    let it = Interpreter::new(&m, RuntimeConfig::default());
    let ctx = ThreadCtx::initial();
    it.call_by_name("t", vec![RtVal::I(a), RtVal::I(b)], &ctx)
        .ok()
        .flatten()
        .map(|v| v.as_i())
}

/// Folds `op(a, b)` through the builder, if it folds.
fn fold(op: BinOpKind, ty: IrType, a: i64, b: i64) -> Option<i64> {
    omplt_ir::fold_bin(op, Value::int(ty, a), Value::int(ty, b), ty).and_then(|v| v.as_const_int())
}

const INT_OPS: [BinOpKind; 13] = [
    BinOpKind::Add,
    BinOpKind::Sub,
    BinOpKind::Mul,
    BinOpKind::SDiv,
    BinOpKind::UDiv,
    BinOpKind::SRem,
    BinOpKind::URem,
    BinOpKind::Shl,
    BinOpKind::AShr,
    BinOpKind::LShr,
    BinOpKind::And,
    BinOpKind::Or,
    BinOpKind::Xor,
];

const TYPES: [IrType; 3] = [IrType::I64, IrType::I32, IrType::I8];

#[test]
fn folded_result_matches_interpreted_result() {
    let mut rng = Rng::new(0xF01DED);
    let mut operands: Vec<(i64, i64)> = Vec::new();
    for &a in &EDGE_CASES {
        for &b in &EDGE_CASES {
            operands.push((a, b));
        }
    }
    operands.extend((0..24).map(|_| (rng.next_i64(), rng.next_i64())));

    for op in INT_OPS {
        for ty in TYPES {
            for &(a, b) in &operands {
                // shift amounts are masked by the interpreter; restrict to
                // in-range shifts where C behaviour is defined
                let b = match op {
                    BinOpKind::Shl | BinOpKind::AShr | BinOpKind::LShr => {
                        b.rem_euclid(ty.bits() as i64)
                    }
                    _ => b,
                };
                let (a, b) = (ty.wrap(a), ty.wrap(b));
                if let Some(folded) = fold(op, ty, a, b) {
                    let executed = exec_unfolded(op, ty, a, b)
                        .expect("interpreter must execute what the folder folds");
                    assert_eq!(folded, executed, "op {op:?} ty {ty:?} a {a} b {b}");
                }
            }
        }
    }
}

#[test]
fn icmp_folding_matches_execution() {
    let preds = [
        CmpPred::Eq,
        CmpPred::Ne,
        CmpPred::Slt,
        CmpPred::Sle,
        CmpPred::Sgt,
        CmpPred::Sge,
        CmpPred::Ult,
        CmpPred::Ule,
        CmpPred::Ugt,
        CmpPred::Uge,
    ];
    let mut rng = Rng::new(0x1C_3E_77);
    let mut operands: Vec<(i64, i64)> = Vec::new();
    for &a in &EDGE_CASES {
        for &b in &EDGE_CASES {
            operands.push((a, b));
        }
    }
    operands.extend((0..12).map(|_| (rng.next_i64(), rng.next_i64())));

    for pred in preds {
        for ty in TYPES {
            for &(a, b) in &operands {
                let (a, b) = (ty.wrap(a), ty.wrap(b));
                let folded = omplt_ir::eval_icmp(pred, a, b, ty);

                // interpreted
                let mut m = Module::new();
                let mut f = Function::new("t", vec![ty, ty], IrType::I64);
                {
                    let mut bld = IrBuilder::new(&mut f);
                    let c = bld.cmp(pred, Value::Arg(0), Value::Arg(1));
                    let w = bld.cast(omplt_ir::CastOp::ZExt, c, IrType::I64);
                    bld.ret(Some(w));
                }
                m.add_function(f);
                let it = Interpreter::new(&m, RuntimeConfig::default());
                let ctx = ThreadCtx::initial();
                let executed = it
                    .call_by_name("t", vec![RtVal::I(a), RtVal::I(b)], &ctx)
                    .unwrap()
                    .unwrap()
                    .as_i();
                assert_eq!(
                    folded as i64, executed,
                    "pred {pred:?} ty {ty:?} a {a} b {b}"
                );
            }
        }
    }
}

#[test]
fn algebraic_identities_preserve_runtime_value() {
    let mut rng = Rng::new(0xA16EB8A);
    let mut values: Vec<i64> = EDGE_CASES.to_vec();
    values.extend((0..50).map(|_| rng.next_i64()));
    for a in values {
        // x+0, x*1, x-x, x*0, x&0, x|0 identities: folder vs direct compute.
        for (op, rhs, expect) in [
            (BinOpKind::Add, 0i64, a),
            (BinOpKind::Sub, 0, a),
            (BinOpKind::Mul, 1, a),
            (BinOpKind::Mul, 0, 0),
            (BinOpKind::And, 0, 0),
            (BinOpKind::Or, 0, a),
            (BinOpKind::Xor, 0, a),
        ] {
            let mut f = Function::new("t", vec![IrType::I64], IrType::I64);
            let v = {
                let mut b = IrBuilder::new(&mut f);
                b.bin(op, Value::Arg(0), Value::i64(rhs))
            };
            // identity must fold away the instruction entirely
            match v {
                Value::Arg(0) => assert_eq!(expect, a),
                Value::ConstInt { val, .. } => assert_eq!(val, expect),
                other => panic!("identity {op:?} x {rhs:?} did not fold: {other:?}"),
            }
        }
    }
}

/// Runs the one-block function `t` that returns the value of its single
/// instruction `inst`, pushed raw so the builder's folder never sees it.
fn exec_raw(params: Vec<IrType>, ret: IrType, inst: Inst, args: Vec<RtVal>) -> RtVal {
    let mut m = Module::new();
    let mut f = Function::new("t", params, ret);
    let entry = f.entry();
    let v = f.push_inst(entry, inst);
    f.blocks[0].term = Some(omplt_ir::Terminator::Ret(Some(v)));
    m.add_function(f);
    let it = Interpreter::new(&m, RuntimeConfig::default());
    it.call_by_name("t", args, &ThreadCtx::initial())
        .expect("executes")
        .expect("returns a value")
}

/// A constant as the run-time value it stands for.
fn const_rt(v: Value) -> Option<RtVal> {
    match v {
        Value::ConstInt { val, .. } => Some(RtVal::I(val)),
        Value::ConstFloat { .. } => v.as_const_float().map(RtVal::F),
        _ => None,
    }
}

/// Bit-exact equality, every NaN equal to every other.
fn same(a: RtVal, b: RtVal) -> bool {
    match (a, b) {
        (RtVal::F(x), RtVal::F(y)) => x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
        (RtVal::I(x), RtVal::I(y)) => x == y,
        _ => false,
    }
}

/// What a variable of type `ty` can hold of `v`.
fn held(ty: IrType, v: f64) -> f64 {
    if ty == IrType::F32 {
        v as f32 as f64
    } else {
        v
    }
}

/// Values whose `f32` and `f64` forms differ, the rounding boundaries of
/// both formats, and the specials.
const FLOAT_EDGES: [f64; 20] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    0.1,
    1.0 / 3.0,
    3.0,
    10.0,
    16_777_217.0,
    -2_147_483_649.0,
    4_294_967_296.5,
    1.0e-45,
    1.0e38,
    3.5e38,
    1.0e308,
    f64::MAX,
    f64::MIN_POSITIVE,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];

const FLOAT_TYPES: [IrType; 2] = [IrType::F32, IrType::F64];

/// A constant of type `float` is a `float`: folding `a op b` gives what the
/// interpreter computes from two variables holding `a` and `b`.
#[test]
fn float_folding_matches_execution() {
    let mut rng = Rng::new(0xF10A7);
    let mut values = FLOAT_EDGES.to_vec();
    values.extend((0..12).map(|_| f64::from_bits(rng.next())));
    values.extend((0..12).map(|_| f64::from(f32::from_bits(rng.next() as u32))));
    let ops = [
        BinOpKind::FAdd,
        BinOpKind::FSub,
        BinOpKind::FMul,
        BinOpKind::FDiv,
        BinOpKind::FRem,
    ];
    for ty in FLOAT_TYPES {
        for op in ops {
            for &a in &values {
                for &b in &values {
                    let folded =
                        omplt_ir::fold_bin(op, Value::float(ty, a), Value::float(ty, b), ty)
                            .and_then(const_rt)
                            .expect("two float constants fold");
                    let inst = Inst::Bin {
                        op,
                        lhs: Value::Arg(0),
                        rhs: Value::Arg(1),
                    };
                    let args = vec![RtVal::F(held(ty, a)), RtVal::F(held(ty, b))];
                    let executed = exec_raw(vec![ty, ty], ty, inst, args);
                    assert!(
                        same(folded, executed),
                        "{op:?} {ty:?} a {a:e} b {b:e}: folded {folded:?}, executed {executed:?}"
                    );
                }
            }
        }
    }
}

/// Every cast the builder folds gives the constant the interpreter computes
/// from a variable, for every `CastOp` and every type pair it applies to.
#[test]
fn cast_folding_matches_execution() {
    use IrType::{F32, F64, I1, I32, I64, I8};
    let mut rng = Rng::new(0xCA57);
    let mut ints: Vec<i64> = EDGE_CASES.to_vec();
    ints.extend([
        127,
        128,
        255,
        256,
        16_777_217,
        -16_777_217,
        1 << 31,
        1 << 53,
    ]);
    ints.extend((0..12).map(|_| rng.next_i64()));
    let mut floats = FLOAT_EDGES.to_vec();
    floats.extend([
        0.5,
        -0.5,
        2.5,
        127.9,
        -128.9,
        255.5,
        2_147_483_647.5,
        1.0e19,
    ]);
    floats.extend((0..12).map(|_| f64::from_bits(rng.next())));

    let narrowing: &[(IrType, IrType)] = &[(I64, I32), (I64, I8), (I32, I8), (I32, I1)];
    let widening: &[(IrType, IrType)] = &[(I1, I32), (I8, I32), (I8, I64), (I32, I64)];
    let int_to_fp: &[(IrType, IrType)] = &[
        (I8, F32),
        (I32, F32),
        (I64, F32),
        (I8, F64),
        (I32, F64),
        (I64, F64),
    ];
    let fp_to_int: &[(IrType, IrType)] = &[
        (F32, I8),
        (F32, I32),
        (F32, I64),
        (F64, I8),
        (F64, I32),
        (F64, I64),
    ];
    let mut folded_ops = 0;
    for op in CastOp::ALL {
        let pairs = match op {
            CastOp::Trunc => narrowing,
            CastOp::ZExt | CastOp::SExt => widening,
            CastOp::SiToFp | CastOp::UiToFp => int_to_fp,
            CastOp::FpToSi | CastOp::FpToUi => fp_to_int,
            CastOp::FpTrunc => &[(F64, F32)],
            CastOp::FpExt => &[(F32, F64)],
            // Pointers are run-time values: there is no constant to fold.
            CastOp::PtrToInt | CastOp::IntToPtr => continue,
        };
        folded_ops += 1;
        for &(from, to) in pairs {
            let operands: Vec<(Value, RtVal)> = if from.is_float() {
                (floats.iter())
                    .map(|&v| (Value::float(from, v), RtVal::F(held(from, v))))
                    .collect()
            } else {
                (ints.iter())
                    .map(|&v| (Value::int(from, v), RtVal::I(from.wrap(v))))
                    .collect()
            };
            for (constant, variable) in operands {
                let mut scratch = Function::new("fold", vec![], to);
                let folded = const_rt(IrBuilder::new(&mut scratch).cast(*op, constant, to))
                    .expect("a cast of a constant folds");
                let inst = Inst::Cast {
                    op: *op,
                    val: Value::Arg(0),
                    to,
                };
                let executed = exec_raw(vec![from], to, inst, vec![variable]);
                assert!(
                    same(folded, executed),
                    "{op:?} {from:?}->{to:?} of {variable:?}: folded {folded:?}, executed {executed:?}"
                );
            }
        }
    }
    assert_eq!(folded_ops, CastOp::ALL.len() - 2);
}
