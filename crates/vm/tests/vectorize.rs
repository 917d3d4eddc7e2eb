//! Widening-pass tests: hand-built canonical loops lowered through
//! `compile_module_with`, executed on the VM at several widths, and compared
//! against the scalar (width-0) lowering of the *same module* — the scalar
//! bytecode is itself differentially pinned against the interpreter, so
//! equality here extends the oracle chain to the vector tier.

use omplt_interp::RuntimeConfig;
use omplt_ir::{CmpPred, Function, IrBuilder, IrType, LoopMetadata, Module, Value};
use omplt_vm::{compile_module, compile_module_with, disasm, verify_module, VmEngine, VmModule};

fn simd_md() -> LoopMetadata {
    LoopMetadata {
        vectorize_enable: true,
        ..LoopMetadata::default()
    }
}

/// `simd` metadata carrying the lane bound the front end proved.
fn safelen_md(safelen: u8) -> LoopMetadata {
    LoopMetadata {
        safelen,
        ..simd_md()
    }
}

/// `main`: `long a[n], b[n]` (allocas), `b[i] = i*3 + 1`, then `reps`
/// repetitions of the simd loop
/// `for (i = 0; i < n; i++) { a[i] = b[i]*k + a[i]; sum += b[i]; }`,
/// returning `sum*1000 + a[probe]`. `reps > 1` re-enters the vector
/// preamble through the outer loop's backedge.
fn saxpy_like(n: i64, k: i64, probe: i64, reps: i64, md: LoopMetadata) -> Module {
    let mut m = Module::new();
    let mut f = Function::new("main", vec![], IrType::I64);
    {
        let mut b = IrBuilder::new(&mut f);
        let a_arr = b.alloca(IrType::I64, n as u64, "a");
        let b_arr = b.alloca(IrType::I64, n as u64, "b");
        let iv = b.alloca(IrType::I64, 1, "i");
        let sum = b.alloca(IrType::I64, 1, "sum");

        // init: b[i] = i*3 + 1; a[i] = i  (plain scalar loop, no metadata)
        b.store(Value::i64(0), iv);
        let init_hdr = b.create_block("init.hdr");
        let init_body = b.create_block("init.body");
        let loop_pre = b.create_block("loop.pre");
        b.br(init_hdr);
        b.set_insert_point(init_hdr);
        let i0 = b.load(IrType::I64, iv);
        let c0 = b.cmp(CmpPred::Slt, i0, Value::i64(n));
        b.cond_br(c0, init_body, loop_pre);
        b.set_insert_point(init_body);
        let i1 = b.load(IrType::I64, iv);
        let v3 = b.mul(i1, Value::i64(3));
        let v = b.add(v3, Value::i64(1));
        let bp = b.gep(b_arr, i1, 8);
        b.store(v, bp);
        let ap = b.gep(a_arr, i1, 8);
        b.store(i1, ap);
        let i2 = b.add(i1, Value::i64(1));
        b.store(i2, iv);
        b.br(init_hdr);

        // outer repeat loop around the simd loop
        b.set_insert_point(loop_pre);
        let rep = b.alloca(IrType::I64, 1, "rep");
        b.store(Value::i64(0), rep);
        b.store(Value::i64(0), sum);
        let outer_hdr = b.create_block("outer.hdr");
        let outer_body = b.create_block("outer.body");
        let outer_latch = b.create_block("outer.latch");
        let hdr = b.create_block("simd.hdr");
        let body = b.create_block("simd.body");
        let exit = b.create_block("exit");
        b.br(outer_hdr);
        b.set_insert_point(outer_hdr);
        let r0 = b.load(IrType::I64, rep);
        let rc = b.cmp(CmpPred::Slt, r0, Value::i64(reps));
        b.cond_br(rc, outer_body, exit);
        b.set_insert_point(outer_body);
        b.store(Value::i64(0), iv);
        b.br(hdr);
        b.set_insert_point(hdr);
        let i3 = b.load(IrType::I64, iv);
        let c1 = b.cmp(CmpPred::Slt, i3, Value::i64(n));
        b.cond_br(c1, body, outer_latch);
        b.set_insert_point(body);
        let i4 = b.load(IrType::I64, iv);
        let bp2 = b.gep(b_arr, i4, 8);
        let bv = b.load(IrType::I64, bp2);
        let ap2 = b.gep(a_arr, i4, 8);
        let av = b.load(IrType::I64, ap2);
        let prod = b.mul(bv, Value::i64(k));
        let nv = b.add(prod, av);
        b.store(nv, ap2);
        let s0 = b.load(IrType::I64, sum);
        let s1 = b.add(s0, bv);
        b.store(s1, sum);
        let i5 = b.add(i4, Value::i64(1));
        b.store(i5, iv);
        b.br_with_md(hdr, md);

        b.set_insert_point(outer_latch);
        let r1 = b.load(IrType::I64, rep);
        let r2 = b.add(r1, Value::i64(1));
        b.store(r2, rep);
        b.br(outer_hdr);

        b.set_insert_point(exit);
        let sv = b.load(IrType::I64, sum);
        let pp = b.gep(a_arr, Value::i64(probe), 8);
        let pv = b.load(IrType::I64, pp);
        let sk = b.mul(sv, Value::i64(1000));
        let r = b.add(sk, pv);
        b.ret(Some(r));
    }
    m.add_function(f);
    m
}

fn run(code: &VmModule, m: &Module) -> i64 {
    let out = VmEngine::new(m, code, RuntimeConfig::default())
        .expect("vm init")
        .run_main()
        .expect("run");
    out.exit_code
}

/// Runs `f` under a fresh trace session and returns the counters it ticked.
fn counters_of<T>(f: impl FnOnce() -> T) -> (T, std::collections::BTreeMap<String, u64>) {
    let s = omplt_trace::Session::begin();
    let out = f();
    (out, s.finish().counters)
}

fn disasm_all(code: &VmModule) -> String {
    code.funcs.iter().map(disasm).collect()
}

#[test]
fn widened_saxpy_matches_scalar_at_every_width() {
    for (n, reps) in [
        (0i64, 1i64),
        (1, 1),
        (3, 1),
        (4, 1),
        (7, 1),
        (8, 1),
        (17, 3),
        (64, 2),
    ] {
        let probe = (n - 1).max(0);
        let m = saxpy_like(n, 5, probe, reps, simd_md());
        let scalar = compile_module(&m).expect("scalar compiles");
        assert!(verify_module(&scalar).is_empty());
        let want = run(&scalar, &m);
        for w in [2u8, 4, 8] {
            let vec = compile_module_with(&m, w).expect("vector compiles");
            assert!(
                verify_module(&vec).is_empty(),
                "width {w} bytecode must verify"
            );
            let got = run(&vec, &m);
            assert_eq!(
                got, want,
                "n={n} reps={reps} width={w} diverged from scalar oracle"
            );
        }
    }
}

#[test]
fn widened_loop_emits_vector_ops_and_counts() {
    let m = saxpy_like(64, 5, 63, 1, simd_md());
    let (code, counters) = counters_of(|| compile_module_with(&m, 4).expect("compiles"));
    let text = disasm_all(&code);
    assert!(text.contains("vload"), "unit-stride loads widen:\n{text}");
    assert!(text.contains("vstore"), "unit-stride stores widen:\n{text}");
    assert!(text.contains("vreduce"), "sum reduction widens:\n{text}");
    // No lane reads the IV itself (the addresses step it as a scalar), and
    // the one invariant lane operand, `k`, is broadcast before the loop
    // with the accumulator's identity, not once per chunk.
    assert!(!text.contains("viota"), "no lane reads the IV:\n{text}");
    let first_load = text.find("vload").unwrap();
    assert_eq!(text.matches("vbcast").count(), 2, "{text}");
    assert!(text.rfind("vbcast").unwrap() < first_load, "{text}");
    assert_eq!(counters.get("vm.simd.widened_loops"), Some(&1));
    assert_eq!(counters.get("vm.simd.refused"), Some(&0));
}

/// `sum = 0; for (i = 0; i < n; i++) sum += i` under `md`, returning `sum`:
/// a lane reads the IV vector itself.
fn iota_sum(n: i64, md: LoopMetadata) -> Module {
    let mut m = Module::new();
    let mut f = Function::new("main", vec![], IrType::I64);
    {
        let mut b = IrBuilder::new(&mut f);
        let iv = b.alloca(IrType::I64, 1, "i");
        let sum = b.alloca(IrType::I64, 1, "sum");
        b.store(Value::i64(0), iv);
        b.store(Value::i64(0), sum);
        let hdr = b.create_block("hdr");
        let body = b.create_block("body");
        let exit = b.create_block("exit");
        b.br(hdr);
        b.set_insert_point(hdr);
        let i = b.load(IrType::I64, iv);
        let c = b.cmp(CmpPred::Slt, i, Value::i64(n));
        b.cond_br(c, body, exit);
        b.set_insert_point(body);
        let i = b.load(IrType::I64, iv);
        let s = b.load(IrType::I64, sum);
        let s = b.add(s, i);
        b.store(s, sum);
        let i = b.add(i, Value::i64(1));
        b.store(i, iv);
        b.br_with_md(hdr, md);
        b.set_insert_point(exit);
        let s = b.load(IrType::I64, sum);
        b.ret(Some(s));
    }
    m.add_function(f);
    m
}

#[test]
fn a_lane_reading_the_iv_gets_the_lane_vector() {
    let m = iota_sum(64, simd_md());
    let code = compile_module_with(&m, 4).expect("compiles");
    let text = disasm_all(&code);
    assert_eq!(text.matches("viota").count(), 1, "{text}");
    assert_eq!(run(&code, &m), 64 * 63 / 2);
}

#[test]
fn unannotated_loop_stays_scalar() {
    let m = saxpy_like(64, 5, 63, 1, LoopMetadata::default());
    let code = compile_module_with(&m, 4).expect("compiles");
    let text = disasm_all(&code);
    assert!(
        !text.contains("vload") && !text.contains("viota"),
        "no vector ops without llvm.loop.vectorize.enable:\n{text}"
    );
}

#[test]
fn epilogue_iterations_are_counted() {
    // n = 7, width 4: one vector chunk (lanes 0-3) + 3 scalar iterations.
    let m = saxpy_like(7, 5, 6, 1, simd_md());
    let code = compile_module_with(&m, 4).expect("compiles");
    let ((), counters) = counters_of(|| {
        run(&code, &m);
    });
    assert_eq!(counters.get("vm.simd.epilogue_iters"), Some(&3));
}

/// `for (i = 0; i < n; i++) a[i+1] = a[i] + 1` — loop-carried distance 1.
/// The widener runs no dependence test of its own: the front end's verdict
/// arrives as `safelen: 1`, and a loop allowed one lane stays scalar.
#[test]
fn carried_dependence_is_refused_not_miscompiled() {
    let n = 40i64;
    let mut m = Module::new();
    let mut f = Function::new("main", vec![], IrType::I64);
    {
        let mut b = IrBuilder::new(&mut f);
        let a_arr = b.alloca(IrType::I64, (n + 1) as u64, "a");
        let iv = b.alloca(IrType::I64, 1, "i");
        b.store(Value::i64(0), iv);
        let first = b.gep(a_arr, Value::i64(0), 8);
        b.store(Value::i64(1), first);
        let hdr = b.create_block("hdr");
        let body = b.create_block("body");
        let exit = b.create_block("exit");
        b.br(hdr);
        b.set_insert_point(hdr);
        let i0 = b.load(IrType::I64, iv);
        let c = b.cmp(CmpPred::Slt, i0, Value::i64(n));
        b.cond_br(c, body, exit);
        b.set_insert_point(body);
        let i1 = b.load(IrType::I64, iv);
        let src = b.gep(a_arr, i1, 8);
        let sv = b.load(IrType::I64, src);
        let nv = b.add(sv, Value::i64(1));
        let ip1 = b.add(i1, Value::i64(1));
        let dst = b.gep(a_arr, ip1, 8);
        b.store(nv, dst);
        let i2 = b.add(i1, Value::i64(1));
        b.store(i2, iv);
        b.br_with_md(hdr, safelen_md(1));
        b.set_insert_point(exit);
        let last = b.gep(a_arr, Value::i64(n), 8);
        let lv = b.load(IrType::I64, last);
        b.ret(Some(lv));
    }
    m.add_function(f);

    let scalar = compile_module(&m).expect("scalar compiles");
    let want = run(&scalar, &m);
    assert_eq!(want, n + 1, "recurrence propagates left to right");

    let (code, counters) = counters_of(|| compile_module_with(&m, 4).expect("compiles"));
    assert_eq!(counters.get("vm.simd.refused"), Some(&1));
    assert_eq!(counters.get("vm.simd.widened_loops"), Some(&0));
    let text = disasm_all(&code);
    assert!(!text.contains("viota"), "refused loop must stay scalar");
    assert_eq!(run(&code, &m), want);
}

/// `a[i+2] = a[i] + 1` — flow dependence of distance 2: the front end
/// proves two lanes and says so as `safelen: 2`, which the widener obeys
/// over a wider CLI request.
#[test]
fn dependence_distance_clamps_width() {
    let n = 32i64;
    let build = |md: LoopMetadata| {
        let mut m = Module::new();
        let mut f = Function::new("main", vec![], IrType::I64);
        {
            let mut b = IrBuilder::new(&mut f);
            let a_arr = b.alloca(IrType::I64, (n + 2) as u64, "a");
            let iv = b.alloca(IrType::I64, 1, "i");
            // a[j] = j for all n+2 entries.
            b.store(Value::i64(0), iv);
            let ih = b.create_block("init.hdr");
            let ib = b.create_block("init.body");
            let pre = b.create_block("pre");
            b.br(ih);
            b.set_insert_point(ih);
            let j0 = b.load(IrType::I64, iv);
            let jc = b.cmp(CmpPred::Slt, j0, Value::i64(n + 2));
            b.cond_br(jc, ib, pre);
            b.set_insert_point(ib);
            let j1 = b.load(IrType::I64, iv);
            let jp = b.gep(a_arr, j1, 8);
            b.store(j1, jp);
            let j2 = b.add(j1, Value::i64(1));
            b.store(j2, iv);
            b.br(ih);
            b.set_insert_point(pre);
            b.store(Value::i64(0), iv);
            let hdr = b.create_block("hdr");
            let body = b.create_block("body");
            let exit = b.create_block("exit");
            b.br(hdr);
            b.set_insert_point(hdr);
            let i0 = b.load(IrType::I64, iv);
            let c = b.cmp(CmpPred::Slt, i0, Value::i64(n));
            b.cond_br(c, body, exit);
            b.set_insert_point(body);
            let i1 = b.load(IrType::I64, iv);
            let src = b.gep(a_arr, i1, 8);
            let sv = b.load(IrType::I64, src);
            let nv = b.add(sv, Value::i64(1));
            let ip2 = b.add(i1, Value::i64(2));
            let dst = b.gep(a_arr, ip2, 8);
            b.store(nv, dst);
            let i2 = b.add(i1, Value::i64(1));
            b.store(i2, iv);
            b.br_with_md(hdr, md);
            b.set_insert_point(exit);
            // Fold the whole array into the exit value.
            b.store(Value::i64(0), iv);
            let sh = b.create_block("sum.hdr");
            let sb = b.create_block("sum.body");
            let done = b.create_block("done");
            let sum = b.alloca(IrType::I64, 1, "sum");
            b.store(Value::i64(0), sum);
            b.br(sh);
            b.set_insert_point(sh);
            let k0 = b.load(IrType::I64, iv);
            let kc = b.cmp(CmpPred::Slt, k0, Value::i64(n));
            b.cond_br(kc, sb, done);
            b.set_insert_point(sb);
            let k1 = b.load(IrType::I64, iv);
            let kp = b.gep(a_arr, k1, 8);
            let kv = b.load(IrType::I64, kp);
            let s0 = b.load(IrType::I64, sum);
            let mixed = b.mul(s0, Value::i64(3));
            let s1 = b.add(mixed, kv);
            b.store(s1, sum);
            let k2 = b.add(k1, Value::i64(1));
            b.store(k2, iv);
            b.br(sh);
            b.set_insert_point(done);
            let fin = b.load(IrType::I64, sum);
            b.ret(Some(fin));
        }
        m.add_function(f);
        m
    };

    let m = build(safelen_md(2));
    let scalar = compile_module(&m).expect("scalar compiles");
    let want = run(&scalar, &m);
    let (code, counters) = counters_of(|| compile_module_with(&m, 8).expect("compiles"));
    assert_eq!(counters.get("vm.simd.widened_loops"), Some(&1));
    let text = disasm_all(&code);
    assert!(
        text.contains(".x2") && !text.contains(".x8"),
        "width must clamp to safelen 2:\n{text}"
    );
    assert_eq!(run(&code, &m), want, "clamped loop diverged");
}

/// `simdlen(2)` caps the width below the CLI request.
#[test]
fn simdlen_clause_caps_width() {
    let md = LoopMetadata {
        vectorize_enable: true,
        simdlen: 2,
        ..LoopMetadata::default()
    };
    let m = saxpy_like(32, 3, 31, 1, md);
    let code = compile_module_with(&m, 8).expect("compiles");
    let text = disasm_all(&code);
    assert!(
        !text.contains("x8"),
        "simdlen(2) must override --vector-width=8:\n{text}"
    );
    let scalar = compile_module(&m).expect("scalar");
    assert_eq!(run(&code, &m), run(&scalar, &m));
}

/// Retired-op acceptance: width 4 must cut dynamic retired ops by ≥2× on
/// the dense saxpy kernel.
#[test]
fn width_four_halves_retired_ops() {
    let m = saxpy_like(4096, 7, 4095, 20, simd_md());
    let scalar = compile_module(&m).expect("scalar");
    let vec = compile_module_with(&m, 4).expect("vector");
    let retired = |code: &VmModule| {
        counters_of(|| {
            run(code, &m);
        })
        .1
        .get("vm.ops.retired")
        .copied()
        .expect("vm.ops.retired counted")
    };
    let s = retired(&scalar);
    let v = retired(&vec);
    assert!(
        v * 2 <= s,
        "expected >=2x retired-op cut at width 4: scalar={s} vector={v}"
    );
}

/// `main`, built in SSA form: `for (i = 0; i < n; i++) { b[i] = a[i + 1];
/// last = a[i + 1] * 3; }`, returning `last * 1000 + b[n - 1]` (`last`
/// starts at 7). The header carries the IV and `last`, a last value; the
/// body reads `i + 1`, the IV's own latch value. The exit test sits in its
/// own block, as in the canonical skeleton. With `bound_arg` the loop is in
/// `lv(long bound)`, which `main` calls with `n`: the bound is no constant,
/// so the vector loop is emitted and its guard decides at run time.
fn last_value_loop(n: i64, bound_arg: bool) -> Module {
    let mut m = Module::new();
    let (name, params, bound) = if bound_arg {
        ("lv", vec![IrType::I64], Value::Arg(0))
    } else {
        ("main", vec![], Value::i64(n))
    };
    let mut f = Function::new(name, params, IrType::I64);
    {
        let mut b = IrBuilder::new(&mut f);
        let a_arr = b.alloca(IrType::I64, (n + 1) as u64, "a");
        let b_arr = b.alloca(IrType::I64, n.max(1) as u64, "b");
        for k in 0..=n {
            let p = b.gep(a_arr, Value::i64(k), 8);
            b.store(Value::i64(k * k - 5), p);
        }
        let entry = b.insert_block();
        let hdr = b.create_block("hdr");
        let cond = b.create_block("cond");
        let body = b.create_block("body");
        let exit = b.create_block("exit");
        b.br(hdr);
        b.set_insert_point(hdr);
        let (iv, iv_phi) = b.phi(IrType::I64);
        let (last, last_phi) = b.phi(IrType::I64);
        b.br(cond);
        b.set_insert_point(cond);
        let more = b.cmp(CmpPred::Slt, iv, bound);
        b.cond_br(more, body, exit);
        b.set_insert_point(body);
        let next = b.add(iv, Value::i64(1));
        let src = b.gep(a_arr, next, 8);
        let v = b.load(IrType::I64, src);
        let dst = b.gep(b_arr, iv, 8);
        b.store(v, dst);
        let tripled = b.mul(v, Value::i64(3));
        b.br_with_md(hdr, simd_md());
        b.add_phi_incoming(iv_phi, entry, Value::i64(0));
        b.add_phi_incoming(iv_phi, body, next);
        b.add_phi_incoming(last_phi, entry, Value::i64(7));
        b.add_phi_incoming(last_phi, body, tripled);
        b.set_insert_point(exit);
        let probe = b.gep(b_arr, Value::i64((n - 1).max(0)), 8);
        let pv = b.load(IrType::I64, probe);
        let scaled = b.mul(last, Value::i64(1000));
        let r = b.add(scaled, pv);
        b.ret(Some(r));
    }
    let lv = m.add_function(f);
    if bound_arg {
        let mut main = Function::new("main", vec![], IrType::I64);
        let mut b = IrBuilder::new(&mut main);
        let r = b.call(lv, vec![Value::i64(n)], IrType::I64);
        b.ret(Some(r));
        m.add_function(main);
    }
    m
}

#[test]
fn a_last_value_leaves_the_loop_with_its_last_lane() {
    for n in [0i64, 1, 3, 4, 5, 8, 17] {
        for bound_arg in [false, true] {
            let m = last_value_loop(n, bound_arg);
            let scalar = compile_module(&m).expect("scalar compiles");
            let want = run(&scalar, &m);
            for w in [2u8, 4, 8] {
                let (vec, counters) = counters_of(|| compile_module_with(&m, w).expect("compiles"));
                // A constant bound below `w - 1` leaves no room for a chunk:
                // the loop stays scalar, no vector loop is emitted, and it is
                // not refused either. A bound passed in widens at every `n`,
                // and below `w - 1` its guard fails at run time: the exit
                // keeps the entry value of `last`.
                let widened = u64::from(bound_arg || n >= i64::from(w) - 1);
                let at = format!("n={n} w={w} bound_arg={bound_arg}");
                assert_eq!(
                    counters.get("vm.simd.widened_loops"),
                    Some(&widened),
                    "{at}"
                );
                assert_eq!(counters.get("vm.simd.refused"), Some(&0), "{at}");
                let lanes = vec.funcs.iter().any(|f| f.num_vregs > 0);
                assert_eq!(lanes, widened == 1, "{at}: vector registers");
                assert!(verify_module(&vec).is_empty(), "{at}");
                assert_eq!(run(&vec, &m), want, "{at}: diverged");
            }
        }
    }
}
