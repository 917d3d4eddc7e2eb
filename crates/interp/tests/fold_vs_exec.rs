//! Folding is executing: `omplt_ir::arith::simplify` — the function behind
//! the `IrBuilder`'s on-the-fly folding (paper §1.3) and the mid end's
//! `cleanup` — must hand back exactly the value the interpreter computes
//! when it runs the unfolded instruction. For constants that holds by
//! construction (both call the same kernels); these deterministic
//! fixed-seed sweeps hold the plumbing around the kernels (`payload`,
//! `of_payload`, the trap rule) and the fold-specific identities to it.

use omplt_interp::{Engine, ExecError, Interpreter, RuntimeConfig, ThreadCtx};
use omplt_ir::arith::{may_trap, simplify};
use omplt_ir::{BinOpKind, CastOp, CmpPred, Function, Inst, IrType, Module, Terminator, Value};

/// Minimal deterministic PRNG (xorshift64*).
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

/// An operand of the instruction under test.
#[derive(Clone, Copy)]
enum Operand {
    /// A constant: folded as itself, run as the argument that holds it.
    Const(Value),
    /// A variable of this type holding this payload: an argument on both
    /// sides.
    Var(IrType, u64),
}

fn int(ty: IrType, v: i64) -> Operand {
    Operand::Const(Value::int(ty, v))
}

fn float(ty: IrType, v: f64) -> Operand {
    Operand::Const(Value::float(ty, v))
}

/// Bit-exact equality of two payloads of type `ty`, every NaN equal to
/// every other.
fn same(ty: IrType, a: Option<u64>, b: Option<u64>) -> bool {
    let nan = |p: u64| ty.is_float() && f64::from_bits(p).is_nan();
    a == b || matches!((a, b), (Some(x), Some(y)) if nan(x) && nan(y))
}

/// A constant's type and the payload it stands for at run time.
fn constant(v: Value) -> Option<(IrType, u64)> {
    match v {
        Value::ConstInt { ty, .. } | Value::ConstFloat { ty, .. } => Some((ty, v.payload()?)),
        _ => None,
    }
}

/// The one harness. Builds the instruction `make` describes once over
/// `operands` and asks [`simplify`] what it always computes; builds it again
/// over arguments only, pushed raw so no folder sees it, and runs it on the
/// interpreter with the operands' values. Whatever was folded must be,
/// bit for bit, what was computed. Returns `(folded, executed)`.
fn fold_and_run(
    make: impl Fn(&[Value]) -> Inst,
    operands: &[Operand],
) -> (Option<u64>, Result<u64, ExecError>) {
    let arg = |i: usize| Value::Arg(i as u32);
    let mut params = Vec::new();
    let mut args = Vec::new();
    let mut mixed = Vec::new();
    for (i, o) in operands.iter().enumerate() {
        let (v, (ty, rt)) = match *o {
            Operand::Var(ty, rt) => (arg(i), (ty, rt)),
            Operand::Const(v) => (v, constant(v).expect("a constant")),
        };
        mixed.push(v);
        params.push(ty);
        args.push(rt);
    }
    let mut f = Function::new("t", params, IrType::Void);
    let known = |v: Value| match v {
        Value::Arg(i) => Some(args[i as usize]),
        _ => constant(v).map(|(_, rt)| rt),
    };
    let ty = make(&mixed).result_type(|v| f.value_type(v));
    let folded = simplify(&make(&mixed), |v| f.value_type(v)).map(|v| known(v).expect("a value"));
    // `cleanup` reaches the same folder: of the instruction over
    // constants alone it leaves exactly that constant — or the instruction.
    if operands.iter().all(|o| matches!(o, Operand::Const(_))) {
        let mut c = Function::new("c", vec![], IrType::Void);
        let v = c.push_inst(c.entry(), make(&mixed));
        c.blocks[0].term = Some(Terminator::Ret(Some(v)));
        omplt_midend::cleanup(&mut c);
        let left = match c.blocks[0].term {
            Some(Terminator::Ret(Some(v))) => known(v),
            _ => unreachable!(),
        };
        assert!(
            same(ty, left, folded),
            "cleanup left {left:?}, simplify says {folded:?}"
        );
    }

    let raw = make(&(0..operands.len()).map(arg).collect::<Vec<_>>());
    f.ret = raw.result_type(|v| f.value_type(v));
    let entry = f.entry();
    let v = f.push_inst(entry, raw.clone());
    f.blocks[0].term = Some(Terminator::Ret(Some(v)));
    let mut m = Module::new();
    m.add_function(f);
    let it = Interpreter::new(&m, RuntimeConfig::default());
    let executed = (it.call_by_name("t", args.clone(), &ThreadCtx::initial()))
        .map(|r| r.expect("returns a value"));
    if folded.is_some() {
        let ran = executed.clone().expect("what folds must run");
        assert!(
            same(ty, folded, Some(ran)),
            "{raw:?} over {args:?}: folded {folded:?}, executed {ran:?}"
        );
    }
    (folded, executed)
}

fn bin_of(op: BinOpKind) -> impl Fn(&[Value]) -> Inst {
    move |v| Inst::Bin {
        op,
        lhs: v[0],
        rhs: v[1],
    }
}

fn cmp_of(pred: CmpPred) -> impl Fn(&[Value]) -> Inst {
    move |v| Inst::Cmp {
        pred,
        lhs: v[0],
        rhs: v[1],
    }
}

/// Interesting boundary operands mixed into every sweep (shift amounts
/// included: out-of-range ones are masked by the one kernel).
const EDGE_CASES: [i64; 12] = [
    0,
    1,
    -1,
    2,
    -2,
    31,
    64,
    65,
    i64::MAX,
    i64::MIN,
    i64::MAX - 1,
    i64::MIN + 1,
];

const INT_TYPES: [IrType; 5] = [
    IrType::I64,
    IrType::I32,
    IrType::I16,
    IrType::I8,
    IrType::I1,
];

fn int_pairs(seed: u64, random: usize) -> Vec<(i64, i64)> {
    let mut rng = Rng(seed);
    let mut pairs: Vec<(i64, i64)> = (EDGE_CASES.iter())
        .flat_map(|&a| EDGE_CASES.iter().map(move |&b| (a, b)))
        .collect();
    pairs.extend((0..random).map(|_| (rng.next() as i64, rng.next() as i64)));
    pairs
}

/// Every integer operation over two constants folds to what running it
/// gives — and the ones the kernel traps on are exactly the ones that do not
/// fold, and still trap when run.
#[test]
fn folded_result_matches_interpreted_result() {
    let pairs = int_pairs(0xF01DED, 24);
    for &op in BinOpKind::ALL.iter().filter(|op| !op.is_float()) {
        for ty in INT_TYPES {
            let mut trapped = false;
            for &(a, b) in &pairs {
                let (folded, executed) = fold_and_run(bin_of(op), &[int(ty, a), int(ty, b)]);
                assert_eq!(
                    folded.is_some(),
                    executed.is_ok(),
                    "{op:?} {ty:?} {a} {b}: {executed:?}"
                );
                trapped |= executed == Err(ExecError::DivByZero);
            }
            assert_eq!(trapped, may_trap(op, ty), "{op:?} {ty:?}");
        }
        let p = Operand::Var(IrType::Ptr, 1 << 32);
        let (folded, executed) = fold_and_run(bin_of(op), &[p, p]);
        let additive = matches!(op, BinOpKind::Add | BinOpKind::Sub);
        assert_eq!(executed.is_ok(), additive, "{op:?} on pointers");
        assert_eq!(may_trap(op, IrType::Ptr), !additive);
        assert!(folded.is_none(), "{op:?} on pointers");
    }
}

#[test]
fn icmp_folding_matches_execution() {
    let pairs = int_pairs(0x1C_3E_77, 12);
    for &pred in CmpPred::ALL.iter().filter(|p| !p.is_float()) {
        for ty in INT_TYPES {
            for &(a, b) in &pairs {
                let (folded, _) = fold_and_run(cmp_of(pred), &[int(ty, a), int(ty, b)]);
                assert!(folded.is_some(), "{pred:?} {ty:?} {a} {b} did not fold");
            }
        }
    }
}

/// What stays fold-specific: each identity removes the instruction and hands
/// back the value the instruction would have computed from a variable; a
/// constant-condition `select` and a zero-index `gep` likewise; and no
/// identity is applied to a float operator.
#[test]
fn algebraic_identities_preserve_runtime_value() {
    use BinOpKind::*;
    let mut rng = Rng(0xA16EB8A);
    let mut values: Vec<i64> = EDGE_CASES.to_vec();
    values.extend((0..40).map(|_| rng.next() as i64));
    for ty in [IrType::I64, IrType::I32, IrType::I8] {
        for &x in &values {
            let x = Operand::Var(ty, ty.wrap(x) as u64);
            let with_rhs = [
                (Add, 0),
                (Sub, 0),
                (Mul, 1),
                (Mul, 0),
                (SDiv, 1),
                (UDiv, 1),
                (Shl, 0),
                (AShr, 0),
                (LShr, 0),
                (And, 0),
                (Or, 0),
                (Xor, 0),
            ];
            for (op, c) in with_rhs {
                let (folded, _) = fold_and_run(bin_of(op), &[x, int(ty, c)]);
                assert!(folded.is_some(), "x {op:?} {c} did not fold");
            }
            for (op, c) in [(Add, 0), (Mul, 1), (Mul, 0), (And, 0), (Or, 0), (Xor, 0)] {
                let (folded, _) = fold_and_run(bin_of(op), &[int(ty, c), x]);
                assert!(folded.is_some(), "{c} {op:?} x did not fold");
            }
            let x_minus_x = |v: &[Value]| Inst::Bin {
                op: Sub,
                lhs: v[0],
                rhs: v[0],
            };
            assert_eq!(fold_and_run(x_minus_x, &[x]).0, Some(0));
            for cond in [false, true] {
                let select = |v: &[Value]| Inst::Select {
                    cond: v[0],
                    t: v[1],
                    f: v[2],
                };
                let operands = [Operand::Const(Value::bool(cond)), x, int(ty, 7)];
                assert!(fold_and_run(select, &operands).0.is_some());
            }
        }
    }
    let zero_gep = |v: &[Value]| Inst::Gep {
        ptr: v[0],
        index: v[1],
        elem_size: 8,
    };
    let p = Operand::Var(IrType::Ptr, (3 << 32) + 16);
    assert!(fold_and_run(zero_gep, &[p, int(IrType::I64, 0)])
        .0
        .is_some());
    assert!(fold_and_run(zero_gep, &[p, int(IrType::I64, 2)])
        .0
        .is_none());
    for ty in FLOAT_TYPES {
        for x in FLOAT_EDGES {
            let (_, held) = constant(Value::float(ty, x)).unwrap();
            let x = Operand::Var(ty, held);
            for op in [FAdd, FSub, FMul, FDiv, FRem] {
                for c in [0.0, 1.0] {
                    assert_eq!(fold_and_run(bin_of(op), &[x, float(ty, c)]).0, None);
                    assert_eq!(fold_and_run(bin_of(op), &[float(ty, c), x]).0, None);
                }
            }
        }
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

/// A constant of type `float` is a `float`: folding `a op b` — the five
/// operators and the six predicates, a NaN on either side included — gives
/// what the interpreter computes from two variables holding `a` and `b`.
#[test]
fn float_folding_matches_execution() {
    let mut rng = Rng(0xF10A7);
    let mut values = FLOAT_EDGES.to_vec();
    values.extend((0..12).map(|_| f64::from_bits(rng.next())));
    values.extend((0..12).map(|_| f64::from(f32::from_bits(rng.next() as u32))));
    for ty in FLOAT_TYPES {
        for &a in &values {
            for &b in &values {
                let operands = [float(ty, a), float(ty, b)];
                for &op in BinOpKind::ALL.iter().filter(|op| op.is_float()) {
                    let (folded, _) = fold_and_run(bin_of(op), &operands);
                    assert!(folded.is_some(), "{op:?} {ty:?} {a:e} {b:e} did not fold");
                }
                for &pred in CmpPred::ALL.iter().filter(|p| p.is_float()) {
                    let (folded, _) = fold_and_run(cmp_of(pred), &operands);
                    assert!(folded.is_some(), "{pred:?} {ty:?} {a:e} {b:e} did not fold");
                }
            }
        }
    }
}

/// Every cast of a constant folds to the constant the interpreter computes
/// from a variable, for every `CastOp` and every type pair it applies to.
#[test]
fn cast_folding_matches_execution() {
    use IrType::{F32, F64, I1, I16, I32, I64, I8};
    let mut rng = Rng(0xCA57);
    let mut ints: Vec<i64> = EDGE_CASES.to_vec();
    ints.extend([
        127,
        128,
        255,
        256,
        65_535,
        16_777_217,
        -16_777_217,
        1 << 31,
        1 << 53,
    ]);
    ints.extend((0..12).map(|_| rng.next() as i64));
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

    let narrowing: &[(IrType, IrType)] = &[(I64, I32), (I64, I16), (I64, I8), (I32, I8), (I32, I1)];
    let widening: &[(IrType, IrType)] = &[(I1, I32), (I8, I32), (I16, I32), (I8, I64), (I32, I64)];
    let ints_of = [I1, I8, I16, I32, I64];
    let int_to_fp: Vec<_> = (ints_of.iter())
        .flat_map(|&i| [(i, F32), (i, F64)])
        .collect();
    let fp_to_int: Vec<_> = (ints_of.iter())
        .flat_map(|&i| [(F32, i), (F64, i)])
        .collect();
    let mut folded_ops = 0;
    for &op in CastOp::ALL {
        let pairs = match op {
            CastOp::Trunc => narrowing,
            CastOp::ZExt | CastOp::SExt => widening,
            CastOp::SiToFp | CastOp::UiToFp => &int_to_fp,
            CastOp::FpToSi | CastOp::FpToUi => &fp_to_int,
            CastOp::FpTrunc => &[(F64, F32)],
            CastOp::FpExt => &[(F32, F64)],
            // Pointers are run-time values: there is no constant to fold.
            CastOp::PtrToInt | CastOp::IntToPtr => continue,
        };
        folded_ops += 1;
        for &(from, to) in pairs {
            let operands: Vec<Operand> = if from.is_float() {
                floats.iter().map(|&v| float(from, v)).collect()
            } else {
                ints.iter().map(|&v| int(from, v)).collect()
            };
            for operand in operands {
                let make = |v: &[Value]| Inst::Cast { op, val: v[0], to };
                let (folded, _) = fold_and_run(make, &[operand]);
                assert!(folded.is_some(), "{op:?} {from:?}->{to:?} did not fold");
            }
        }
    }
    assert_eq!(folded_ops, CastOp::ALL.len() - 2);
}
