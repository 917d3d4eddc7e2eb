//! Allocation budgets of the compile path: a check or probe that runs per
//! instruction, block, dataflow round or token must not allocate per
//! element, and compiling a module allocates per function only what the
//! module keeps. A counting global allocator tallies allocations per
//! thread, so the tests of this binary can run in parallel without seeing
//! each other's work; each test compares two inputs that differ only in the
//! element count the site used to allocate for.

use omplt::ir::{
    verify_function, BinOpKind, BlockId, Function, Inst, IrBuilder, IrType, LoopMetadata,
    Terminator, UnrollHint, Value,
};
use omplt::vm::{Op, PoolConst, RegClass, VmFunction};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations (and reallocations) `f` makes on this thread, with its
/// result, which is dropped after counting.
fn allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

/// One block of `n` `add`s to the argument (not a chain: typing a chain
/// recurses through it).
fn adds(n: usize) -> Function {
    let mut f = Function::new("adds", vec![IrType::I64], IrType::I64);
    let mut b = IrBuilder::new(&mut f);
    let mut v = Value::Arg(0);
    for k in 0..n {
        v = b.bin(BinOpKind::Add, Value::Arg(0), Value::i64(k as i64));
    }
    b.ret(Some(v));
    f
}

#[test]
fn the_ir_verifier_does_not_allocate_per_instruction() {
    let verify = |n: usize| {
        let f = adds(n);
        let (count, errs) = allocs(|| verify_function(&f));
        assert_eq!(errs, vec![]);
        count
    };
    assert_eq!(verify(10_000), verify(100));
}

/// `entry → c1 → … → c(n-1): ret`, every branch a latch's (it carries loop
/// metadata), so there is nothing for CFG simplification to do.
fn latch_chain(n: usize) -> Function {
    let mut f = Function::new("chain", vec![], IrType::Void);
    let blocks: Vec<_> = (1..n).map(|k| f.add_block(format!("c{k}"))).collect();
    let mut b = IrBuilder::new(&mut f);
    for &next in &blocks {
        b.br_with_md(next, LoopMetadata::unroll(UnrollHint::Disable));
        b.set_insert_point(next);
    }
    b.ret(None);
    f
}

#[test]
fn predecessors_are_one_flat_list() {
    let preds = |n: usize| {
        let f = latch_chain(n);
        let (count, preds) = allocs(|| f.predecessors());
        assert_eq!(preds[n - 1], [BlockId(n as u32 - 2)]);
        count
    };
    assert_eq!(preds(200), preds(20));
}

/// One block of `n` `add`s of two constants, pushed past the builder's
/// on-the-fly folding as the unroller's substitutions are; the last is
/// returned.
fn foldable_adds(n: usize) -> Function {
    let mut f = Function::new("fold", vec![], IrType::I64);
    let entry = f.entry();
    let mut v = Value::i64(0);
    for k in 0..n {
        let add = Inst::Bin {
            op: BinOpKind::Add,
            lhs: Value::i64(k as i64),
            rhs: Value::i64(1),
        };
        v = f.push_inst(entry, add);
    }
    f.block_mut(entry).term = Some(Terminator::Ret(Some(v)));
    f
}

#[test]
fn constant_folding_does_not_allocate_per_instruction() {
    let fold = |n: usize| {
        let mut f = foldable_adds(n);
        let (count, changed) = allocs(|| omplt::midend::cleanup(&mut f));
        assert!(changed);
        assert_eq!(f.num_insts(), 0);
        count
    };
    assert_eq!(fold(10_000), fold(100));
}

#[test]
fn simplify_cfg_on_a_simplified_chain_does_not_allocate_per_block() {
    let run = |n: usize| {
        let mut f = latch_chain(n);
        let (count, changed) = allocs(|| omplt::midend::cleanup(&mut f));
        assert!(!changed, "a chain of latches is already simplified");
        assert_eq!(f.blocks.len(), n);
        count
    };
    assert_eq!(run(200), run(20));
}

/// `n` counted loops in a row, `for (i = 0; i < arg; i++) s += arg * 3 +
/// arg * 3`: in each, value numbering has a duplicate to replace and code
/// motion an invariant `mul` and `add` to move into a preheader that
/// already computes the sum's start (so its instruction list has room).
fn loops_in_a_row(n: usize) -> Function {
    let mut f = Function::new("loops", vec![IrType::I64], IrType::I64);
    let mut b = IrBuilder::new(&mut f);
    for k in 0..n {
        let (pre, header, body, next) = (
            b.create_block("pre"),
            b.create_block("header"),
            b.create_block("body"),
            b.create_block("next"),
        );
        b.br(pre);
        b.set_insert_point(pre);
        let start = b.add(Value::Arg(0), Value::i64(k as i64));
        b.br(header);
        b.set_insert_point(header);
        let (i, i_phi) = b.phi(IrType::I64);
        let (s, s_phi) = b.phi(IrType::I64);
        let c = b.cmp(omplt::ir::CmpPred::Slt, i, Value::Arg(0));
        b.cond_br(c, body, next);
        b.set_insert_point(body);
        let t = b.mul(Value::Arg(0), Value::i64(3));
        let u = b.mul(Value::Arg(0), Value::i64(3));
        let v = b.add(t, u);
        let s1 = b.add(s, v);
        let i1 = b.add(i, Value::i64(1));
        b.br(header);
        for (phi, entry, again) in [(i_phi, Value::i64(0), i1), (s_phi, start, s1)] {
            b.add_phi_incoming(phi, pre, entry);
            b.add_phi_incoming(phi, body, again);
        }
        b.set_insert_point(next);
    }
    b.ret(Some(Value::Arg(0)));
    f
}

#[test]
fn value_numbering_and_code_motion_do_not_allocate_per_instruction_or_loop() {
    let run = |n: usize| {
        let mut f = loops_in_a_row(n);
        let mut ws = omplt::midend::Licm::default();
        let (count, changed) = allocs(|| omplt::midend::value_number_and_hoist(&mut f, &mut ws));
        assert!(changed);
        assert_eq!(verify_function(&f), vec![]);
        // Each body keeps its two adds: the sum and the step.
        let bodies = f.blocks.iter().filter(|b| b.name == "body");
        assert!(bodies.clone().all(|b| b.insts.len() == 2));
        assert_eq!(bodies.count(), n);
        count
    };
    assert_eq!(run(200), run(20));
}

/// `blocks` blocks: block 0 defines r0, every other block jumps on, the
/// last one returns r0. Laid out forward (0 → 1 → …) the definite-init
/// fixpoint settles in one round; reversed (0 → n-1 → n-2 → … → 1) each
/// round settles one more block.
fn jump_chain(blocks: u32, reversed: bool) -> VmFunction {
    // Block 0 is ops 0..2, block k ≥ 1 is op k + 1.
    let start = |b: u32| if b == 0 { 0 } else { b + 1 };
    let (first, last) = if reversed {
        (blocks - 1, 1)
    } else {
        (1, blocks - 1)
    };
    let next = |b: u32| if reversed { b - 1 } else { b + 1 };
    let mut ops = vec![
        Op::Const { dst: 0, idx: 0 },
        Op::Jmp {
            target: start(first),
        },
    ];
    for b in 1..blocks {
        ops.push(if b == last {
            Op::Ret { src: Some(0) }
        } else {
            Op::Jmp {
                target: start(next(b)),
            }
        });
    }
    VmFunction {
        name: "chain".into(),
        params: vec![],
        num_regs: 1,
        reg_class: vec![RegClass::Int],
        num_vregs: 0,
        vreg_class: vec![],
        vreg_width: vec![],
        ops,
        consts: vec![PoolConst::Val(RegClass::Int, 7)],
        call_args: vec![],
        call_targets: vec![],
        block_starts: (0..blocks).map(start).collect(),
        ret: IrType::I64,
    }
}

#[test]
fn the_bytecode_verifier_does_not_allocate_per_dataflow_round() {
    let verify = |reversed: bool| {
        let f = jump_chain(100, reversed);
        let (count, errs) = allocs(|| omplt::vm::verify_function(&f, &[]));
        assert_eq!(errs, vec![], "reversed: {reversed}");
        count
    };
    // Two rounds against a hundred: the same blocks, the same allocations.
    assert_eq!(verify(true), verify(false));
}

#[test]
fn the_bytecode_verifier_does_not_allocate_per_block() {
    let verify = |blocks: u32| {
        let f = jump_chain(blocks, false);
        let (count, errs) = allocs(|| omplt::vm::verify_function(&f, &[]));
        assert_eq!(errs, vec![], "{blocks} blocks");
        count
    };
    assert_eq!(verify(100), verify(10));
}

/// `n` copies of `long fK(long n) { long s = 0; for (i < n) { s += i;
/// print_i64(i); } return s; }`, as the canonical-loop builder emits them.
#[cfg(not(debug_assertions))]
fn looped_module(n: usize) -> omplt::ir::Module {
    let mut m = omplt::ir::Module::new();
    let sink = m.intern("print_i64");
    for k in 0..n {
        let mut f = Function::new(format!("f{k}"), vec![IrType::I64], IrType::I64);
        let mut b = IrBuilder::new(&mut f);
        let sum = b.alloca(IrType::I64, 1, "s");
        b.store(Value::i64(0), sum);
        omplt::ompirb::create_canonical_loop(&mut b, Value::Arg(0), "i", |b, iv| {
            let s = b.load(IrType::I64, sum);
            let s = b.add(s, iv);
            b.store(s, sum);
            b.call(sink, vec![iv], IrType::Void);
        });
        let s = b.load(IrType::I64, sum);
        b.ret(Some(s));
        m.add_function(f);
    }
    m
}

/// Release builds only: debug builds also run `regalloc::reference` and
/// `Analysis::is_current` on every liveness solve and hand-off, and both
/// build their own tables per block by design.
#[cfg(not(debug_assertions))]
#[test]
fn compiling_a_module_allocates_per_function_only_what_the_module_keeps() {
    // A `VmFunction`'s own buffers: its name, `params`, `reg_class`,
    // `vreg_class`, `vreg_width`, `ops`, `consts`, `call_args`,
    // `call_targets` and `block_starts`.
    const KEPT_BUFFERS: u64 = 10;
    // A function that reaches the VM unpromoted is lowered from a promoted
    // copy: the copy's own buffers (name, parameters, both arenas, each
    // block's formatted name and instruction list, each instruction's name
    // or operand list) and promotion's CFG tables and new phi. For these
    // functions that is 33 allocations.
    const UNPROMOTED_COPY: u64 = 33;
    let compile = |n: usize, promoted: bool| {
        let mut m = looped_module(n);
        if promoted {
            let mut ws = omplt::midend::Promote::default();
            for f in &mut m.functions {
                assert_eq!(omplt::midend::promote(f, &mut ws), 1);
            }
        }
        let (count, module) = allocs(|| omplt::vm::compile_module(&m));
        assert_eq!(module.expect("compiles").funcs.len(), n);
        count
    };
    for (promoted, budget) in [
        (true, KEPT_BUFFERS),
        (false, KEPT_BUFFERS + UNPROMOTED_COPY),
    ] {
        let (small, large) = (compile(20, promoted), compile(200, promoted));
        let per_function = (large - small) as f64 / 180.0;
        assert!(
            large - small <= 180 * budget,
            "promoted: {promoted}: {per_function:.1} allocations per added function \
             ({small} for 20, {large} for 200)"
        );
    }
}

/// `n` slots and `n` diamonds in a chain, `f(a)`: diamond `k` writes slot
/// `k` on one arm when `a < k`, and its join reads the slot — the one place
/// a phi goes. The slots are written first in the entry block.
fn diamond_chain(m: &mut omplt::ir::Module, n: usize) -> Function {
    let sink = m.intern("print_i64");
    let mut f = Function::new("chain", vec![IrType::I64], IrType::Void);
    let mut b = IrBuilder::new(&mut f);
    let slots: Vec<Value> = (0..n).map(|_| b.alloca(IrType::I64, 1, "s")).collect();
    for &slot in &slots {
        b.store(Value::i64(0), slot);
    }
    for (k, &slot) in slots.iter().enumerate() {
        let (arm, join) = (
            b.func_mut().add_block("arm"),
            b.func_mut().add_block("join"),
        );
        let taken = b.cmp(omplt::ir::CmpPred::Slt, Value::Arg(0), Value::i64(k as i64));
        b.cond_br(taken, arm, join);
        b.set_insert_point(arm);
        b.store(Value::i64(k as i64), slot);
        b.br(join);
        b.set_insert_point(join);
        let v = b.load(IrType::I64, slot);
        b.call(sink, vec![v], IrType::Void);
    }
    b.ret(None);
    f
}

#[test]
fn promotion_allocates_per_phi_only_its_incoming_list() {
    let mut m = omplt::ir::Module::new();
    let mut ws = omplt::midend::Promote::default();
    // The workspace's buffers grow to the larger function first.
    omplt::midend::promote(&mut diamond_chain(&mut m, 200), &mut ws);
    let mut promote = |n: usize| {
        let mut f = diamond_chain(&mut m, n);
        let (count, promoted) = allocs(|| omplt::midend::promote(&mut f, &mut ws));
        assert_eq!(promoted, n);
        assert_eq!(verify_function(&f), vec![]);
        let phis = f.insts.iter().filter(|i| matches!(i, Inst::Phi { .. }));
        assert_eq!(phis.count(), n, "one phi per join");
        count
    };
    let (small, large) = (promote(20), promote(200));
    // 180 more phis, and the instruction arena may double once more.
    assert!(
        large - small <= 180 + 1,
        "{small} allocations for 20 slots, {large} for 200"
    );
}

/// Release builds only, as above.
#[cfg(not(debug_assertions))]
#[test]
fn coalescing_allocates_nothing_per_copy() {
    // The chain's phis become copies on the edges into each join, and the
    // coalescer merges them. A module whose first function is the larger
    // chain compiles the second on grown buffers: what that costs must not
    // depend on how many copies it coalesces.
    let compile = |n: usize| {
        let mut m = omplt::ir::Module::new();
        for size in [200, n] {
            let f = diamond_chain(&mut m, size);
            m.add_function(f);
        }
        omplt::midend::run_default_pipeline(&mut m, false);
        let (count, module) = allocs(|| omplt::vm::compile_module(&m));
        assert!(module.expect("compiles").num_ops() > 0);
        count
    };
    // Only a register-file-sized buffer that the allocator hands back as
    // scratch regrows with the function: a doubling or four from 20 to 200.
    let (small, large) = (compile(20), compile(200));
    assert!(
        large - small <= 4,
        "{small} allocations for 20, {large} for 200"
    );
}

/// A preprocessor over `source`, with what it borrows.
fn preprocess<R>(source: &str, f: impl FnOnce(&mut omplt::lex::Preprocessor<'_>) -> R) -> R {
    let mut fm = omplt::source::FileManager::new();
    let mut sm = omplt::source::SourceManager::new();
    let diags = omplt::source::DiagnosticsEngine::new();
    let file = sm.add_file(fm.add_virtual_file("t.c", source)).0;
    let r = f(&mut omplt::lex::Preprocessor::new(
        &mut sm, &mut fm, &diags, file,
    ));
    assert!(diags.is_empty(), "{:?}", diags.all());
    r
}

#[test]
fn tokenize_all_allocates_only_for_spellings_and_growth() {
    // Per statement six tokens: one identifier, one string literal and four
    // others. A token owns nothing, and each spelling is stored the first
    // time it is seen.
    let tokenize = |statements: usize| {
        let source = "x = \"s\" + 1;\n".repeat(statements);
        let (count, (tokens, _)) = preprocess(&source, |pp| allocs(|| pp.tokenize_all()));
        assert_eq!(tokens.len(), 6 * statements + 1);
        count
    };
    // Armed for another site, so the thread has a fault scope to consult.
    omplt::fault::arm("vm.panic").unwrap();
    let (small, large) = (tokenize(100), tokenize(10_000));
    omplt::fault::reset();
    // Only the token vector grows: it doubles at most log2(60 001 / 601) < 7
    // more times.
    assert!(
        large - small <= 7,
        "{large} allocations for 10 000 statements against {small} for 100"
    );
}

#[test]
fn parse_and_sema_allocate_per_statement_only_the_nodes_it_builds() {
    // `x = x + 1;` builds seven nodes: the statement, the assignment, the
    // addition, two references to `x`, the load of the right-hand one and
    // the literal. Its tokens are copied, and `x` is looked up by symbol.
    const K: u64 = 7;
    let parse = |statements: usize| {
        let body = "  x = x + 1;\n".repeat(statements);
        let source = format!("int f(void) {{\n  int x = 0;\n{body}  return x;\n}}\n");
        let tokens = preprocess(&source, |pp| pp.tokenize_all());
        let diags = omplt::source::DiagnosticsEngine::new();
        let sm = std::cell::RefCell::new(omplt::source::SourceManager::new());
        let mut sema = omplt::sema::Sema::new(&diags, &sm, omplt::OpenMpCodegenMode::Classic, true);
        let (count, tu) = allocs(|| omplt::parse::parse_translation_unit(tokens, &mut sema));
        assert!(
            diags.is_empty() && tu.function("f").is_some(),
            "{:?}",
            diags.all()
        );
        count
    };
    let (small, large) = (parse(100), parse(10_000));
    // Beyond the nodes, the function body's statement list doubles at most
    // log2(10 002 / 102) < 7 more times.
    assert!(
        large - small <= K * 9_900 + 7,
        "{:.2} allocations per added statement ({small} for 100, {large} for 10 000)",
        (large - small) as f64 / 9_900.0
    );
}

#[test]
fn codegen_allocates_no_name_per_static_named_block() {
    // A loop's four blocks (`for.cond`, `for.body`, `for.inc`, `for.end`)
    // each allocate their instruction list and nothing for their name; the
    // slot of its `i` keeps the variable's name.
    const PER_LOOP: u64 = 4 + 1;
    let lower = |loops: usize| {
        let body = "  for (long i = 0; i < n; i++) s += i;\n".repeat(loops);
        let source = format!("long f(long n) {{\n  long s = 0;\n{body}  return s;\n}}\n");
        let mut ci = omplt::CompilerInstance::new(omplt::Options::default());
        let tu = ci.parse_source("t.c", &source).expect("parses");
        let opts = omplt::codegen::CodegenOptions::default();
        let (count, r) = allocs(|| omplt::codegen::codegen_translation_unit(&tu, opts, &ci.diags));
        assert_eq!(r.module.functions[0].blocks.len(), 1 + 4 * loops);
        count
    };
    let (small, large) = (lower(20), lower(200));
    // The instruction and block arenas and the two binding tables grow
    // tenfold: each doubles at most four more times.
    assert!(
        large - small <= PER_LOOP * 180 + 16,
        "{:.2} allocations per added loop ({small} for 20, {large} for 200)",
        (large - small) as f64 / 180.0
    );
}

#[test]
fn probes_without_a_session_do_not_allocate() {
    let (count, ()) = allocs(|| {
        let _outer = omplt::trace::span("stage");
        let _inner = omplt::trace::span_detail("stage.detail", "a detail string");
        omplt::trace::count("stage.items", 1);
    });
    assert_eq!(count, 0);
}
