//! Property-style test: the `IrBuilder`'s on-the-fly constant folder must
//! agree with the interpreter's execution of the unfolded instruction —
//! otherwise "simplifies expressions on-the-fly" (paper §1.3) would silently
//! change program meaning.
//!
//! Formerly written with `proptest`; rewritten as deterministic fixed-seed
//! sweeps so the workspace builds without registry access.

use omplt_interp::{Engine, Interpreter, RtVal, RuntimeConfig, ThreadCtx};
use omplt_ir::{BinOpKind, CmpPred, Function, Inst, IrBuilder, IrType, Module, Value};

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
