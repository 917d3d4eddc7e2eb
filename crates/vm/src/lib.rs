//! # omplt-vm
//!
//! A register-based bytecode execution backend for `omplt-ir`, selected with
//! `ompltc --backend=vm` (the tree-walking interpreter in `omplt-interp`
//! stays the default and serves as the semantic oracle).
//!
//! Three layers over one instruction table ([`ops`]: each op is declared
//! once, as a row giving its tag, fields, field roles and each register's
//! class; the `Op` enum, its def/use/jump-target accessors, its [`serde`]
//! codec and the operand walk that gives the verifier its class and width
//! rules are generated from the rows):
//!
//! * [`compile`] — lowers a verified IR [`omplt_ir::Module`] to flat
//!   bytecode: a function that still has promotable `alloca` slots or dead
//!   code is lowered from a copy the mid end's `promote` and DCE rewrote
//!   (the VM optimizes nothing the mid end does), blocks are
//!   linearized in reverse-postorder, SSA values get virtual registers
//!   (phis become edge copies), a peephole pass ([`peephole`]) leaves SSA
//!   by coalescing those copies and fuses compare/branch and latch
//!   arithmetic/jump pairs, and a linear-scan pass ([`regalloc`]) compacts
//!   the register file. The per-function analysis is done once: one CFG and
//!   one flat-row liveness workspace serve every peephole stage, the
//!   allocator and the verifier, and the lowerer's per-instruction tables
//!   are dense vectors.
//! * [`verify`] — a load-time bytecode verifier (register def-before-use,
//!   in-bounds jump targets, every operand in the class its row gives it,
//!   plus the few type rules a class cannot state, and the fault pads'
//!   rules) that runs on every compiled module. Its dataflow phases read the
//!   compiler's CFG and liveness ([`regalloc`]), built and solved afresh for
//!   every function of the image being checked.
//! * [`vm`] — the execution engine: `VmEngine::new` resolves each verified
//!   [`Op`] once per run to a private execution form — a variant of its own
//!   for each kind of op and (operator, type) pair that is at least 0.1 % of
//!   the ops some benchmark workload retires (at width 4 or the default
//!   width 0), the `Op` itself for everything else — and a `pc` loop runs
//!   that stream as a `match` over untagged 64-bit registers — exact
//!   because the verifier has proven every register's class — unsafe-free,
//!   sharing the interpreter's
//!   [`omplt_interp::Memory`] (through a per-frame region cache that keeps
//!   the bounds test) and — via the [`omplt_interp::Engine`] trait — its
//!   entire OpenMP runtime (`__kmpc_fork_call` thread teams, every
//!   worksharing schedule, barriers), so tile/unroll/`nowait` behave
//!   identically on both backends. The resolved stream is not a format: it
//!   is never serialised, verified or printed (`--emit-bytecode` shows `Op`).
//!
//! The engines share one definition of arithmetic and one value
//! representation: the payload kernels of `omplt_ir::arith` (`bin`, `cmp`,
//! `cast`, `gep`, `decode`, `encode`) over untagged 64-bit payloads, which
//! the VM's arms call — with the operator and type as literals where the
//! pair has a variant — and the interpreter calls with the operator and type
//! of the instruction; a payload also crosses every call and the
//! [`omplt_interp::Engine`] boundary as itself. So results are bit-identical
//! by construction and differential tests can compare observable memory
//! state across backends exactly.

pub mod compile;
pub mod ops;
pub mod peephole;
pub mod regalloc;
pub mod serde;
mod vectorize;
pub mod verify;
pub mod vm;

pub use compile::{compile_module, compile_module_with, CompileError};
pub use ops::{
    disasm, CallTarget, Op, PoolConst, Reg, RegClass, VReg, VmFunction, VmModule, MAX_LANES,
};
pub use serde::{decode, encode, DecodeError};
pub use verify::{verify_function, verify_module, VerifyError};
pub use vm::VmEngine;
