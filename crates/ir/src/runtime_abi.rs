//! The runtime boundary, declared once (LLVM's `OMPKinds.def` `__OMP_RTL`
//! rows): every entry point a lowering may call and the shared runtime must
//! implement is one [`RtFn`] row — symbol name, fixed parameter types, return
//! type, variadic tail. Both lowerings declare through
//! [`Module::declare_rt`], both engines resolve a callee with
//! [`RtFn::from_name`] once at load time, and `omplt_interp::runtime::dispatch`
//! is an exhaustive `match` over the variants: adding an entry is one row here
//! plus one arm there, and a lowering cannot name an entry the runtime lacks.
//! Sema reads the rows too: a user prototype of an entry must be the C image
//! of its row (`Sema::runtime_prototype`), on every entrance, so the
//! signature a call is lowered at is always the row's.

use crate::module::Module;
use crate::types::IrType::{self, Ptr, Void, F64, I32, I64};
use crate::value::{SymbolId, Value};

/// One row of the runtime-function table.
#[derive(Debug)]
pub struct RtRow {
    /// The row's variant.
    pub func: RtFn,
    /// Symbol name (`declare` line, call target).
    pub name: &'static str,
    /// Fixed parameter types. A call passing fewer arguments is malformed.
    pub params: &'static [IrType],
    /// Return type.
    pub ret: IrType,
    /// Whether further arguments may follow the fixed ones.
    pub variadic: bool,
}

macro_rules! rt_fns {
    ($($variant:ident = $name:literal ($($p:ident),* $(; $va:tt)?) -> $ret:ident,)*) => {
        /// A runtime entry point. Aliases are rows of their own.
        #[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
        #[allow(missing_docs)]
        pub enum RtFn { $($variant,)* }

        impl RtFn {
            /// Every row, in declaration order: `ROWS[f as usize].func == f`.
            pub const ROWS: &'static [RtRow] = &[$(RtRow {
                func: RtFn::$variant,
                name: $name,
                params: &[$($p),*],
                ret: $ret,
                variadic: rt_fns!(@va $($va)?),
            },)*];
        }
    };
    (@va) => { false };
    (@va ...) => { true };
}

rt_fns! {
    // libomp: team, worksharing, synchronization.
    GlobalThreadNum = "__kmpc_global_thread_num" () -> I32,
    PushNumThreads  = "__kmpc_push_num_threads"  (I32) -> I32,
    ForkCall        = "__kmpc_fork_call"         (Ptr, I32; ...) -> Void, // (outlined, nargs, captures…)
    ForStaticInit   = "__kmpc_for_static_init"   (I32, I32, Ptr, Ptr, Ptr, Ptr, I64, I64) -> Void, // (gtid, sched, plast, plb, pub, pstride, incr, chunk)
    ForStaticFini   = "__kmpc_for_static_fini"   (I32) -> Void,
    DispatchInit8   = "__kmpc_dispatch_init_8"   (I32, I32, I64, I64, I64, I64) -> Void, // (gtid, sched, lb, ub inclusive, stride, chunk)
    DispatchNext8   = "__kmpc_dispatch_next_8"   (I32, Ptr, Ptr, Ptr, Ptr) -> I32, // (gtid, plast, plb, pub, pstride)
    DispatchFini8   = "__kmpc_dispatch_fini_8"   (I32) -> Void,
    Barrier         = "__kmpc_barrier"           (I32) -> Void,
    // This runtime's own: `taskloop` accounting and the reduction combines,
    // one per (operator, width of the reduced variable). The value operand
    // is always widened to `i64` / `double`.
    TaskCreated     = "__omplt_task_created"     () -> Void,
    AtomicAddI32    = "__omplt_atomic_add_i32"   (Ptr, I64) -> Void,
    AtomicAddI64    = "__omplt_atomic_add_i64"   (Ptr, I64) -> Void,
    AtomicAddF32    = "__omplt_atomic_add_f32"   (Ptr, F64) -> Void,
    AtomicAddF64    = "__omplt_atomic_add_f64"   (Ptr, F64) -> Void,
    AtomicMulI32    = "__omplt_atomic_mul_i32"   (Ptr, I64) -> Void,
    AtomicMulI64    = "__omplt_atomic_mul_i64"   (Ptr, I64) -> Void,
    AtomicMulF32    = "__omplt_atomic_mul_f32"   (Ptr, F64) -> Void,
    AtomicMulF64    = "__omplt_atomic_mul_f64"   (Ptr, F64) -> Void,
    // What a user program may prototype and call directly.
    OmpGetThreadNum  = "omp_get_thread_num"  () -> I32,
    OmpGetNumThreads = "omp_get_num_threads" () -> I32,
    OmpGetMaxThreads = "omp_get_max_threads" () -> I32,
    PrintI64         = "print_i64"  (I64) -> Void,
    PrintF64         = "print_f64"  (F64) -> Void,
    PrintChar        = "print_char" (I32) -> Void,
}

/// The row as the runtime declares it, `void print_i64(i64)`: the IR types
/// a call is lowered at, and `...` after a variadic row's fixed parameters.
impl std::fmt::Display for RtRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut params: Vec<String> = self.params.iter().map(IrType::to_string).collect();
        if self.variadic {
            params.push("...".into());
        }
        write!(f, "{} {}({})", self.ret, self.name, params.join(", "))
    }
}

impl RtFn {
    /// This entry's row.
    pub fn row(self) -> &'static RtRow {
        &Self::ROWS[self as usize]
    }

    /// The entry named `name`, if the runtime has one.
    pub fn from_name(name: &str) -> Option<RtFn> {
        Self::ROWS.iter().find(|r| r.name == name).map(|r| r.func)
    }
}

impl Module {
    /// Declares runtime entry `f` with its row's signature (idempotent). A
    /// user prototype of the same name, declared earlier, is the same
    /// declaration: Sema has refused one whose signature is not the row's.
    pub fn declare_rt(&mut self, f: RtFn) -> SymbolId {
        let row = f.row();
        self.declare_extern(row.name, row.params, row.ret)
    }
}

/// libomp's `sched_type` numbers, the subset the lowerings emit as the
/// second argument of `__kmpc_for_static_init` / `__kmpc_dispatch_init_8`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum SchedType {
    StaticChunked = 33,
    Static = 34,
    DynamicChunked = 35,
    GuidedChunked = 36,
    Runtime = 37,
}

impl SchedType {
    /// The schedule a runtime call was handed, if it is one of ours.
    pub fn from_raw(v: i64) -> Option<SchedType> {
        use SchedType::*;
        [
            StaticChunked,
            Static,
            DynamicChunked,
            GuidedChunked,
            Runtime,
        ]
        .into_iter()
        .find(|s| *s as i64 == v)
    }

    /// The `i32` constant a lowering passes.
    pub fn value(self) -> Value {
        Value::i32(self as i32)
    }
}
