//! `create_parallel` — emits the runtime calls of a `parallel` construct
//! around an already-outlined function, following Clang's "early outlining"
//! design (paper §1): the front-end outlines the region body into a separate
//! function (via the `CapturedStmt` machinery) and the directive's code
//! generation reduces to a `__kmpc_fork_call`.

use omplt_ir::{IrBuilder, IrType, Module, RtFn, SymbolId, Value};

/// Handle to an outlined parallel-region function.
///
/// Calling convention (matching the classic kmpc ABI shape):
/// `void outlined(i32 global_tid, i32 bound_tid, ptr cap0, ptr cap1, …)` —
/// one pointer per captured variable, passed by reference.
#[derive(Clone, Copy, Debug)]
pub struct OutlinedFn {
    /// The outlined function's symbol.
    pub sym: SymbolId,
    /// Number of captured-variable pointer parameters.
    pub num_captures: usize,
}

/// Emits `[__kmpc_push_num_threads(n);] __kmpc_fork_call(fn, nargs, caps…)`
/// at the current insertion point.
pub fn create_parallel(
    b: &mut IrBuilder<'_>,
    m: &mut Module,
    outlined: OutlinedFn,
    capture_ptrs: Vec<Value>,
    num_threads: Option<Value>,
) {
    omplt_trace::count("ompirb.parallel", 1);
    assert_eq!(
        outlined.num_captures,
        capture_ptrs.len(),
        "capture count must match the outlined function's signature"
    );
    if let Some(nt) = num_threads {
        let push = m.declare_rt(RtFn::PushNumThreads);
        let nt32 = b.int_resize(nt, IrType::I32, true);
        b.call(push, vec![nt32], IrType::Void);
    }
    let fork = m.declare_rt(RtFn::ForkCall);
    let mut args = vec![
        Value::FuncRef(outlined.sym),
        Value::i32(capture_ptrs.len() as i32),
    ];
    args.extend(capture_ptrs);
    b.call(fork, args, IrType::Void);
}

#[cfg(test)]
mod tests {
    use super::*;
    use omplt_ir::{assert_verified, Function, Inst};

    #[test]
    fn emits_fork_call_with_captures() {
        let mut m = Module::new();
        let outlined_sym = m.intern("main.omp_outlined.0");
        let mut f = Function::new("main", vec![], IrType::I32);
        {
            let mut b = IrBuilder::new(&mut f);
            let cap = b.alloca(IrType::I64, 1, "x");
            create_parallel(
                &mut b,
                &mut m,
                OutlinedFn {
                    sym: outlined_sym,
                    num_captures: 1,
                },
                vec![cap],
                None,
            );
            b.ret(Some(Value::i32(0)));
        }
        assert_verified(&f);
        let fork = m.lookup_symbol(RtFn::ForkCall.row().name).unwrap();
        let has_fork = f.insts.iter().any(|i| {
            matches!(i, Inst::Call { callee, args, .. }
                if callee.0 == fork
                    && matches!(args[0], Value::FuncRef(s) if s == outlined_sym)
                    && args[1] == Value::i32(1))
        });
        assert!(has_fork);
    }

    #[test]
    fn num_threads_pushes_before_fork() {
        let mut m = Module::new();
        let outlined_sym = m.intern("o");
        let mut f = Function::new("main", vec![], IrType::Void);
        {
            let mut b = IrBuilder::new(&mut f);
            create_parallel(
                &mut b,
                &mut m,
                OutlinedFn {
                    sym: outlined_sym,
                    num_captures: 0,
                },
                vec![],
                Some(Value::i32(3)),
            );
            b.ret(None);
        }
        let push = m.lookup_symbol(RtFn::PushNumThreads.row().name).unwrap();
        let fork = m.lookup_symbol(RtFn::ForkCall.row().name).unwrap();
        let order: Vec<_> = f
            .insts
            .iter()
            .filter_map(|i| match i {
                Inst::Call { callee, .. } => Some(callee.0),
                _ => None,
            })
            .collect();
        assert_eq!(order, vec![push, fork]);
    }

    #[test]
    #[should_panic(expected = "capture count")]
    fn capture_mismatch_panics() {
        let mut m = Module::new();
        let sym = m.intern("o");
        let mut f = Function::new("main", vec![], IrType::Void);
        let mut b = IrBuilder::new(&mut f);
        create_parallel(
            &mut b,
            &mut m,
            OutlinedFn {
                sym,
                num_captures: 2,
            },
            vec![],
            None,
        );
    }
}
