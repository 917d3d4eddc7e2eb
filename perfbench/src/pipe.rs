//! Calls into the compiler's public functions, layer by layer. The harness
//! times layers from outside: [`compile`] and [`run`] are the end-to-end
//! pair (`compile_ms`, `run_ms`); [`layered_job`] makes the same trip with
//! one `bench.<layer>` span around every public call, and is a plain
//! (span-free) trip when no trace session is open.

use crate::gen::Program;
use omplt::interp::{Interpreter, RunResult};
use omplt::ir::Module;
use omplt::trace::span;
use omplt::vm::{VmEngine, VmModule};
use omplt::{Backend, CompilerInstance, Options};
use std::time::Instant;

/// Source → verified bytecode.
pub struct Compiled {
    pub module: Module,
    pub code: VmModule,
}

/// `parse_source` → `codegen` → `optimize` → `compile_bytecode` (which
/// verifies). Any diagnostic, even a warning, is an error here: the
/// workloads are chosen so that none is produced (a warning would also keep
/// the daemon from caching the artifact).
pub fn compile(opts: Options, p: &Program) -> Result<Compiled, String> {
    let mut ci = CompilerInstance::new(opts);
    let tu = ci.parse_source(&p.name, &p.source)?;
    let mut module = ci.codegen(&tu)?;
    ci.optimize(&mut module);
    let code = ci.compile_bytecode(&module).map_err(|e| e.to_string())?;
    if !ci.diags.is_empty() {
        return Err(format!("unexpected diagnostics:\n{}", ci.render_diags()));
    }
    Ok(Compiled { module, code })
}

/// Engine construction + `run_main` on the backend `opts` selects.
pub fn run(opts: Options, c: &Compiled) -> Result<RunResult, String> {
    CompilerInstance::new(opts)
        .run_precompiled(&c.module, &c.code)
        .map_err(|e| format!("runtime error: {e}"))
}

/// What one [`layered_job`] trip produced, for checking and for the counts
/// no trace counter carries.
pub struct JobOutput {
    /// Wall of everything before the engine is built, milliseconds.
    pub compile_ms: f64,
    /// `None` when the trip was asked not to run the program.
    pub ran: Option<RunOutput>,
    pub ir_insts: usize,
    pub ir_insts_opt: usize,
    pub unrolled_loops: usize,
}

pub struct RunOutput {
    /// Wall of engine construction + `run_main`, milliseconds.
    pub ms: f64,
    pub stdout: String,
    pub ops_retired: u64,
}

fn insts(m: &Module) -> usize {
    m.functions.iter().map(|f| f.num_insts()).sum()
}

/// One full trip with a `bench.<layer>` span around each public call. The
/// parser drives Sema, so the two cannot be split from outside: they share
/// `bench.parse_sema`. The trip also makes the `--analyze` passes, which no
/// compile-and-run trip makes: the traced phase is the only place they are
/// timed. `execute: false` stops after the bytecode round trip.
pub fn layered_job(opts: Options, p: &Program, execute: bool) -> Result<JobOutput, String> {
    let _job = omplt::trace::span_detail("bench.job", p.name.as_str());
    let start = Instant::now();
    let mut ci = CompilerInstance::new(opts);
    let tokens = {
        let _s = span("bench.lex");
        let buf = ci.fm.add_virtual_file(p.name.as_str(), p.source.as_str());
        let file_id = ci.sm.borrow_mut().add_file(buf).0;
        let mut sm = ci.sm.borrow_mut();
        omplt::lex::Preprocessor::new(&mut sm, &mut ci.fm, &ci.diags, file_id).tokenize_all()
    };
    let tu = {
        let _s = span("bench.parse_sema");
        let mut sema = omplt::sema::Sema::new(&ci.diags, &ci.sm, opts.codegen_mode, opts.openmp);
        omplt::parse::parse_translation_unit(tokens, &mut sema)
    };
    {
        let _s = span("bench.analysis");
        omplt::analysis::run_analyses(&tu, &ci.diags);
    }
    if !ci.diags.is_empty() {
        return Err(format!("unexpected diagnostics:\n{}", ci.render_diags()));
    }
    let mut module = {
        let _s = span("bench.codegen");
        ci.codegen(&tu)?
    };
    let ir_insts = insts(&module);
    let unrolled = {
        let _s = span("bench.midend");
        ci.optimize(&mut module)
    };
    let ir_insts_opt = insts(&module);
    let code = {
        let _s = span("bench.vm.compile");
        omplt::vm::compile_module_with(&module, opts.vector_width).map_err(|e| e.to_string())?
    };
    {
        let _s = span("bench.vm.verify");
        let errs = omplt::vm::verify_module(&code);
        if !errs.is_empty() {
            return Err(format!("bytecode verification failed: {}", errs[0]));
        }
    }
    let image = {
        let _s = span("bench.vm.encode");
        omplt::vm::encode(&code)
    };
    let code = {
        let _s = span("bench.vm.decode");
        omplt::vm::decode(&image).map_err(|e| e.to_string())?
    };
    let compile_ms = start.elapsed().as_secs_f64() * 1e3;
    let ran = if execute {
        let cfg = ci.runtime_config();
        let t = Instant::now();
        let result = if opts.backend == Backend::Interp {
            let _s = span("bench.interp.run");
            Interpreter::new(&module, cfg).run_main()
        } else {
            let engine = {
                let _s = span("bench.vm.init");
                VmEngine::new(&module, &code, cfg).map_err(|e| e.to_string())?
            };
            let _s = span("bench.vm.run");
            engine.run_main()
        }
        .map_err(|e| format!("runtime error: {e}"))?;
        Some(RunOutput {
            ms: t.elapsed().as_secs_f64() * 1e3,
            stdout: result.stdout,
            ops_retired: result.ops_retired,
        })
    } else {
        None
    };
    Ok(JobOutput {
        compile_ms,
        ran,
        ir_insts,
        ir_insts_opt,
        unrolled_loops: unrolled.full + unrolled.partial,
    })
}
