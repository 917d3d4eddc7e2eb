//! Golden-diagnostic tests for the bytecode verifier: one per rejection
//! class, scalar (undefined register, out-of-bounds jump, type mismatch,
//! a conversion whose operator disagrees with its types)
//! and vector (lane count, width mismatch, undefined vector register,
//! lane out of range, element-class mismatch).
//!
//! Each test lowers a small, *valid* IR function through the real bytecode
//! compiler, asserts the verifier accepts it, then hand-corrupts one op and
//! asserts the verifier rejects it with the exact rendered diagnostic —
//! the strings here are the contract `--verify-each` users see.

use omplt_ir::{BinOpKind, CastOp, CmpPred, Function, IrBuilder, IrType, Module, Value};
use omplt_vm::{compile_module, compile_module_with, verify_function, Op, RegClass, VmModule};

/// A small straight-line function exercising alloca/store/load/arith/ret.
/// The add's result is returned so the peephole pass cannot delete it.
fn sample() -> (Module, VmModule) {
    let mut m = Module::new();
    let mut f = Function::new("main", vec![], IrType::I64);
    {
        let mut b = IrBuilder::new(&mut f);
        let p = b.alloca(IrType::I64, 4, "buf");
        b.store(Value::i64(7), p);
        let v = b.load(IrType::I64, p);
        let w = b.bin(BinOpKind::Add, v, Value::i64(35));
        b.store(w, p);
        b.ret(Some(w));
    }
    m.add_function(f);
    let code = compile_module(&m).expect("compiles");
    assert!(
        omplt_vm::verify_module(&code).is_empty(),
        "uncorrupted bytecode must verify"
    );
    (m, code)
}

/// Renders every error for one corrupted function.
fn rendered(code: &VmModule) -> Vec<String> {
    verify_function(&code.funcs[0], &code.funcs)
        .iter()
        .map(|e| e.to_string())
        .collect()
}

#[test]
fn undefined_register_golden() {
    let (_m, mut code) = sample();
    let f = &mut code.funcs[0];
    // Corruption: make some op read a brand-new register nothing ever
    // writes. Appending a register keeps every other op's semantics intact,
    // so the *only* complaint must be the definite-init violation.
    let fresh = f.num_regs;
    f.num_regs += 1;
    f.reg_class.push(RegClass::Int);
    let at = f
        .ops
        .iter()
        .position(|op| matches!(op, Op::Bin { .. }))
        .expect("sample has an add");
    if let Op::Bin { rhs, .. } = &mut f.ops[at] {
        *rhs = fresh;
    }
    let errs = rendered(&code);
    assert_eq!(
        errs,
        vec![format!(
            "@main: op {at}: read of register r{fresh} before any write"
        )]
    );
}

#[test]
fn jump_out_of_bounds_golden() {
    let (_m, mut code) = sample();
    let f = &mut code.funcs[0];
    // Corruption: retarget the final Ret into a wild Jmp past the end.
    let at = f.ops.len() - 1;
    assert!(matches!(f.ops[at], Op::Ret { .. }));
    f.ops[at] = Op::Jmp { target: 9999 };
    let errs = rendered(&code);
    assert_eq!(
        errs,
        vec![format!("@main: op {at}: jump target 9999 out of bounds")]
    );
}

#[test]
fn type_mismatch_golden() {
    let (_m, mut code) = sample();
    let f = &mut code.funcs[0];
    // Corruption: flip the add's type to f64 while its registers stay in
    // the int class — an int-register float operation.
    let at = f
        .ops
        .iter()
        .position(|op| matches!(op, Op::Bin { .. }))
        .expect("sample has an add");
    let (dst, lhs, rhs) = match f.ops[at] {
        Op::Bin { dst, lhs, rhs, .. } => (dst, lhs, rhs),
        _ => unreachable!(),
    };
    f.ops[at] = Op::Bin {
        op: BinOpKind::FAdd,
        ty: IrType::F64,
        dst,
        lhs,
        rhs,
    };
    let errs = rendered(&code);
    assert_eq!(
        errs,
        vec![
            format!("@main: op {at}: type mismatch: float op fadd with int destination r{dst}"),
            format!("@main: op {at}: type mismatch: float op fadd with int lhs r{lhs}"),
            format!("@main: op {at}: type mismatch: float op fadd with int rhs r{rhs}"),
        ]
    );
}

#[test]
fn cast_operator_mismatch_golden() {
    let (_m, mut code) = sample();
    let f = &mut code.funcs[0];
    // Corruption: the add becomes a float-to-int conversion that names
    // integer types. Its registers agree with those types, so only the
    // operator is wrong — and the engine would read an integer payload as
    // a double's bits.
    let at = f
        .ops
        .iter()
        .position(|op| matches!(op, Op::Bin { .. }))
        .expect("sample has an add");
    let (dst, src) = match f.ops[at] {
        Op::Bin { dst, lhs, .. } => (dst, lhs),
        _ => unreachable!(),
    };
    f.ops[at] = Op::Cast {
        op: CastOp::FpToSi,
        from: IrType::I64,
        to: IrType::I64,
        dst,
        src,
    };
    assert_eq!(
        rendered(&code),
        vec![format!("@main: op {at}: type mismatch: fptosi from i64")]
    );
}

// ---------------------------------------------------------------------------
// Vector-tier rejection classes. Each test lowers a small *widenable*
// canonical loop through the real widening pass (`compile_module_with` at
// width 4), asserts the vector bytecode verifies clean, then hand-corrupts
// one vector op and pins the exact rendered rejection — the same strings the
// serde fuzz leg relies on being produced instead of a panic.

/// `main`: `long a[19]`, `for (i=0;i<19;i++) { a[i] += 5; sum += a[i]; }`,
/// returns `sum`. Widens at width 4 (19 = 4 lanes × 4 + 3 epilogue) and the
/// reduction materializes a `vreduce`, so every vector op class the tests
/// corrupt is present.
fn vector_sample() -> VmModule {
    let mut m = Module::new();
    let mut f = Function::new("main", vec![], IrType::I64);
    {
        let mut b = IrBuilder::new(&mut f);
        let arr = b.alloca(IrType::I64, 19, "a");
        let iv = b.alloca(IrType::I64, 1, "i");
        let sum = b.alloca(IrType::I64, 1, "sum");
        b.store(Value::i64(0), iv);
        b.store(Value::i64(0), sum);
        let hdr = b.create_block("hdr");
        let body = b.create_block("body");
        let exit = b.create_block("exit");
        b.br(hdr);
        b.set_insert_point(hdr);
        let i0 = b.load(IrType::I64, iv);
        let c = b.cmp(CmpPred::Slt, i0, Value::i64(19));
        b.cond_br(c, body, exit);
        b.set_insert_point(body);
        let i1 = b.load(IrType::I64, iv);
        let p = b.gep(arr, i1, 8);
        let v = b.load(IrType::I64, p);
        let v2 = b.bin(BinOpKind::Add, v, Value::i64(5));
        b.store(v2, p);
        let s0 = b.load(IrType::I64, sum);
        let s1 = b.bin(BinOpKind::Add, s0, v2);
        b.store(s1, sum);
        let i2 = b.bin(BinOpKind::Add, i1, Value::i64(1));
        b.store(i2, iv);
        b.br_with_md(
            hdr,
            omplt_ir::LoopMetadata {
                vectorize_enable: true,
                ..Default::default()
            },
        );
        b.set_insert_point(exit);
        let r = b.load(IrType::I64, sum);
        b.ret(Some(r));
    }
    m.add_function(f);
    let code = compile_module_with(&m, 4).expect("compiles");
    assert!(
        code.funcs[0]
            .ops
            .iter()
            .any(|op| matches!(op, Op::VLoad { .. })),
        "sample must actually widen"
    );
    assert!(
        omplt_vm::verify_module(&code).is_empty(),
        "uncorrupted vector bytecode must verify"
    );
    code
}

#[test]
fn vector_lane_count_golden() {
    let mut code = vector_sample();
    let f = &mut code.funcs[0];
    // Corruption: a lane count outside 2..=MAX_LANES. The op also no longer
    // matches its destination's static width, so both complaints fire.
    let at = f
        .ops
        .iter()
        .position(|op| matches!(op, Op::VLoad { .. }))
        .expect("sample has a vload");
    let dst = match &mut f.ops[at] {
        Op::VLoad { dst, w, .. } => {
            *w = 9;
            *dst
        }
        _ => unreachable!(),
    };
    let errs = rendered(&code);
    assert_eq!(
        errs,
        vec![
            format!("@main: op {at}: bad lane count 9 (must be 2..=8)"),
            format!("@main: op {at}: vload destination v{dst} has width 4 but op uses 9 lanes"),
        ]
    );
}

#[test]
fn vector_width_mismatch_golden() {
    let mut code = vector_sample();
    let f = &mut code.funcs[0];
    // Corruption: a legal lane count that disagrees with the register's
    // declared width — lane counts are part of the type, not a runtime knob.
    let at = f
        .ops
        .iter()
        .position(|op| matches!(op, Op::VLoad { .. }))
        .expect("sample has a vload");
    let dst = match &mut f.ops[at] {
        Op::VLoad { dst, w, .. } => {
            *w = 2;
            *dst
        }
        _ => unreachable!(),
    };
    let errs = rendered(&code);
    assert_eq!(
        errs,
        vec![format!(
            "@main: op {at}: vload destination v{dst} has width 4 but op uses 2 lanes"
        )]
    );
}

#[test]
fn undefined_vector_register_golden() {
    let mut code = vector_sample();
    let f = &mut code.funcs[0];
    // Corruption: a vbin operand is redirected to a brand-new vector
    // register nothing ever writes — the vector file shares the scalar
    // file's definite-init dataflow.
    let fresh = f.num_vregs;
    f.num_vregs += 1;
    f.vreg_class.push(RegClass::Int);
    f.vreg_width.push(4);
    let at = f
        .ops
        .iter()
        .position(|op| matches!(op, Op::VBin { .. }))
        .expect("sample has a vbin");
    if let Op::VBin { rhs, .. } = &mut f.ops[at] {
        *rhs = fresh;
    }
    let errs = rendered(&code);
    assert_eq!(
        errs,
        vec![format!(
            "@main: op {at}: read of vector register v{fresh} before any write"
        )]
    );
}

#[test]
fn vector_lane_out_of_range_golden() {
    let mut code = vector_sample();
    let f = &mut code.funcs[0];
    // Corruption: the reduction becomes a single-lane extract past the end
    // of its source register. `vreduce` and `vextract` share dst/src shape
    // (scalar dst, vector src, same class), so the only complaint is the
    // lane bound.
    let at = f
        .ops
        .iter()
        .position(|op| matches!(op, Op::VReduce { .. }))
        .expect("sample has a vreduce");
    let (dst, src) = match f.ops[at] {
        Op::VReduce { dst, src, .. } => (dst, src),
        _ => unreachable!(),
    };
    f.ops[at] = Op::VExtract { dst, src, lane: 7 };
    let errs = rendered(&code);
    assert_eq!(
        errs,
        vec![format!(
            "@main: op {at}: lane 7 out of range for v{src} of width 4"
        )]
    );
}

#[test]
fn vector_class_mismatch_golden() {
    let mut code = vector_sample();
    let f = &mut code.funcs[0];
    // Corruption: flip a vload's element type to f64 while its destination
    // stays in the int vector class.
    let at = f
        .ops
        .iter()
        .position(|op| matches!(op, Op::VLoad { .. }))
        .expect("sample has a vload");
    let dst = match &mut f.ops[at] {
        Op::VLoad { dst, ty, .. } => {
            *ty = IrType::F64;
            *dst
        }
        _ => unreachable!(),
    };
    let errs = rendered(&code);
    assert_eq!(
        errs,
        vec![format!(
            "@main: op {at}: type mismatch: vector load of double into int v{dst}"
        )]
    );
}
