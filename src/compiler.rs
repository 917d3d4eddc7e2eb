//! `CompilerInstance`: the user-facing pipeline façade (the equivalent of
//! Clang's driver + CompilerInstance).

use omplt_ast::{DumpOptions, OpenMpCodegenMode, TranslationUnit};
use omplt_codegen::{codegen_translation_unit, CodegenOptions};
use omplt_interp::{Interpreter, RunResult, RuntimeConfig};
use omplt_ir::Module;
use omplt_lex::Preprocessor;
use omplt_parse::parse_translation_unit;
use omplt_sema::Sema;
use omplt_source::{DiagnosticsEngine, FileManager, SourceManager};
use std::cell::RefCell;

/// Which execution engine `--run` uses (`ompltc --backend=...`).
///
/// The tree-walking interpreter is the default and the semantic oracle; the
/// bytecode VM is the fast path. Both share guest memory, arithmetic helpers,
/// and the whole OpenMP runtime, so observable behaviour is identical — the
/// differential test suite (`tests/backend_differential.rs`) enforces it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// Tree-walking IR interpreter (`omplt-interp`).
    #[default]
    Interp,
    /// Register-based bytecode VM (`omplt-vm`). If bytecode compilation or
    /// verification fails, the run degrades gracefully: a warning is
    /// emitted and the interpreter executes the module instead.
    Vm,
    /// The VM with fallback disabled: any bytecode compile/verify failure
    /// is fatal (`--backend=vm:strict`).
    VmStrict,
}

impl Backend {
    /// Parses a `--backend=` value.
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "interp" => Some(Backend::Interp),
            "vm" => Some(Backend::Vm),
            "vm:strict" => Some(Backend::VmStrict),
            _ => None,
        }
    }

    /// The flag spelling (`interp` / `vm` / `vm:strict`).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Interp => "interp",
            Backend::Vm => "vm",
            Backend::VmStrict => "vm:strict",
        }
    }
}

/// Pipeline options (the interesting subset of `clang`'s flags).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Options {
    /// `-fopenmp` (default true) — honor OpenMP pragmas.
    pub openmp: bool,
    /// `-fopenmp-enable-irbuilder` — select the canonical-loop path.
    pub codegen_mode: OpenMpCodegenMode,
    /// Thread-team size for `parallel` regions.
    pub num_threads: u32,
    /// Serialize `parallel` regions (deterministic output for goldens).
    pub serial: bool,
    /// Interpreter step budget.
    pub max_steps: u64,
    /// `--verify-each` — re-check IR (including the canonical-loop skeleton
    /// invariants) after every `OpenMPIRBuilder` transformation and between
    /// every mid-end pass.
    pub verify_each: bool,
    /// What `schedule(runtime)` resolves to; `None` means the balanced
    /// static libomp default. Drivers resolve `OMP_SCHEDULE` exactly once
    /// at CLI/client entry — the runtime itself never reads the environment
    /// (a daemon's tenants must not see the server's env).
    pub runtime_schedule: Option<omplt_interp::RuntimeSchedule>,
    /// `--backend=interp|vm` — which engine executes `--run`.
    pub backend: Backend,
    /// Record every worksharing chunk served (for differential testing).
    pub log_chunks: bool,
    /// Cooperative wall-clock run deadline in milliseconds, enforced inside
    /// the engines at fuel-refill boundaries. The one-shot CLI keeps its
    /// process-exit watchdog instead; the daemon sets this so a runaway job
    /// aborts alone while the server keeps serving.
    pub deadline_ms: Option<u64>,
    /// `--vector-width=N` — widen `simd`-annotated loops to N lanes in the
    /// bytecode backend (`2..=8`; `0` disables the widening pass). The
    /// interpreter always stays scalar and serves as the oracle.
    pub vector_width: u8,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            openmp: true,
            codegen_mode: OpenMpCodegenMode::Classic,
            num_threads: 4,
            serial: false,
            max_steps: 500_000_000,
            verify_each: false,
            runtime_schedule: None,
            backend: Backend::Interp,
            log_chunks: false,
            deadline_ms: None,
            vector_width: 0,
        }
    }
}

/// Owns the shared compiler state for one or more compilations.
pub struct CompilerInstance {
    /// Options.
    pub opts: Options,
    /// File manager (register virtual files here before parsing).
    pub fm: FileManager,
    /// Source manager.
    pub sm: RefCell<SourceManager>,
    /// Diagnostics.
    pub diags: DiagnosticsEngine,
    /// What the analysis pass reported on the last `parse_source`.
    analysis: omplt_analysis::AnalysisReport,
}

impl CompilerInstance {
    /// Creates a fresh instance.
    pub fn new(opts: Options) -> CompilerInstance {
        CompilerInstance {
            opts,
            fm: FileManager::new(),
            sm: RefCell::new(SourceManager::new()),
            diags: DiagnosticsEngine::new(),
            analysis: omplt_analysis::AnalysisReport::default(),
        }
    }

    /// Parses `source` (registered under `name`) into an AST that may be
    /// lowered: Sema refuses the nests it cannot transform while it builds
    /// each directive, and the dependence pass closes the walk — it refuses
    /// the `interchange`, `reverse` and `fuse` that would reorder a
    /// dependence, decides each `simd` loop's lane count and warns about
    /// data races — so every consumer of the result — compile, run, daemon
    /// job, tuner candidate — is behind the same rules. On error returns the
    /// rendered diagnostics.
    pub fn parse_source(&mut self, name: &str, source: &str) -> Result<TranslationUnit, String> {
        let _span = omplt_trace::span_detail("frontend", name);
        omplt_fault::set_stage("parse");
        let buf = self.fm.add_virtual_file(name, source);
        let file_id = self.sm.borrow_mut().add_file(buf).0;
        let tokens = {
            let mut sm = self.sm.borrow_mut();
            let mut pp = Preprocessor::new(&mut sm, &mut self.fm, &self.diags, file_id);
            pp.tokenize_all()
        };
        let mut sema = Sema::new(
            &self.diags,
            &self.sm,
            self.opts.codegen_mode,
            self.opts.openmp,
        );
        let tu = parse_translation_unit(tokens, &mut sema);
        if !self.diags.has_errors() {
            self.analysis = omplt_analysis::run_analyses(&tu, &self.diags);
        }
        if self.diags.has_errors() {
            return Err(self.render_diags());
        }
        Ok(tu)
    }

    /// Renders all collected diagnostics.
    pub fn render_diags(&self) -> String {
        self.diags.render(&self.sm.borrow())
    }

    /// Renders all collected diagnostics as JSON (`--diag-format=json`).
    pub fn render_diags_json(&self) -> String {
        self.diags.render_json(&self.sm.borrow())
    }

    /// What the analysis pass of the last [`CompilerInstance::parse_source`]
    /// reported — the `--analyze` verdict.
    pub fn analysis(&self) -> omplt_analysis::AnalysisReport {
        self.analysis
    }

    /// Dumps the syntactic AST (`clang -ast-dump` style).
    pub fn ast_dump(&self, tu: &TranslationUnit) -> String {
        omplt_ast::dump_translation_unit(tu, DumpOptions::default())
    }

    /// Dumps the AST including shadow (transformed) subtrees.
    pub fn ast_dump_transformed(&self, tu: &TranslationUnit) -> String {
        omplt_ast::dump_translation_unit(
            tu,
            DumpOptions {
                show_transformed: true,
            },
        )
    }

    /// Lowers the AST to IR. On error returns rendered diagnostics.
    pub fn codegen(&self, tu: &TranslationUnit) -> Result<Module, String> {
        omplt_fault::set_stage("codegen");
        let r = codegen_translation_unit(
            tu,
            CodegenOptions {
                mode: self.opts.codegen_mode,
                verify_each: self.opts.verify_each,
            },
            &self.diags,
        );
        if self.diags.has_errors() {
            return Err(self.render_diags());
        }
        let _span = omplt_trace::span("ir.verify");
        for f in &r.module.functions {
            let errs = omplt_ir::verify_function(f);
            if !errs.is_empty() {
                return Err(format!(
                    "internal error: IR verification failed for @{}:\n{}",
                    f.name,
                    errs.iter()
                        .map(|e| format!("  {e}"))
                        .collect::<Vec<_>>()
                        .join("\n")
                ));
            }
        }
        Ok(r.module)
    }

    /// Runs the mid-end pipeline (LoopUnroll, SimplifyCfg, Promote,
    /// ConstFold). With `verify_each` set, the full verifier (structural +
    /// canonical-loop skeleton invariants) re-checks every function after
    /// every pass and reports violations as error diagnostics.
    pub fn optimize(&self, module: &mut Module) -> omplt_midend::UnrollStats {
        let _span = omplt_trace::span("midend");
        omplt_fault::set_stage("midend");
        let (stats, errs) = omplt_midend::run_default_pipeline(module, self.opts.verify_each);
        for e in errs {
            self.diags.error(
                omplt_source::SourceLocation::INVALID,
                format!("--verify-each: {e}"),
            );
        }
        stats
    }

    /// The engine configuration derived from [`Options`], with any armed
    /// `runtime.fuel` fault applied.
    pub fn runtime_config(&self) -> RuntimeConfig {
        let mut cfg = RuntimeConfig {
            num_threads: self.opts.num_threads,
            max_steps: self.opts.max_steps,
            serial: self.opts.serial,
            runtime_schedule: self.opts.runtime_schedule,
            log_chunks: self.opts.log_chunks,
            deadline: self.opts.deadline_ms.map(omplt_interp::Deadline::in_ms),
        };
        if omplt_fault::fire("runtime.fuel") {
            // Zero budget: the first batch refill in either backend fails
            // with `ExecError::FuelExhausted`.
            cfg.max_steps = 0;
        }
        cfg
    }

    /// Executes `main` on the selected backend (`--backend=interp|vm|vm:strict`),
    /// compiling bytecode first if the backend needs it.
    pub fn run(&self, module: &Module) -> Result<RunResult, omplt_interp::ExecError> {
        self.run_compiled(module, None)
    }

    /// Executes `main` from already-compiled bytecode — the daemon's
    /// warm-cache path, where the front end, mid end, and VM compiler have
    /// all been skipped. With `Backend::Interp` the bytecode is ignored and
    /// the interpreter runs `module` directly.
    pub fn run_precompiled(
        &self,
        module: &Module,
        code: &omplt_vm::VmModule,
    ) -> Result<RunResult, omplt_interp::ExecError> {
        self.run_compiled(module, Some(Ok(code)))
    }

    /// Executes `main`. `code` is what [`CompilerInstance::compile_bytecode`]
    /// made of this module, if the caller already asked; otherwise the VM
    /// backends compile it here, so bytecode is compiled once per run either
    /// way. If compilation failed or the engine rejects the module,
    /// `--backend=vm` degrades to the interpreter oracle with a warning and
    /// `vm:strict` keeps the error fatal.
    pub fn run_compiled(
        &self,
        module: &Module,
        code: Option<Result<&omplt_vm::VmModule, &omplt_interp::ExecError>>,
    ) -> Result<RunResult, omplt_interp::ExecError> {
        let fresh;
        let code = match (self.opts.backend, code) {
            (Backend::Interp, _) => None,
            (_, Some(code)) => Some(code),
            (_, None) => {
                fresh = self.compile_bytecode(module);
                Some(fresh.as_ref())
            }
        };
        omplt_fault::set_stage("runtime");
        let cfg = self.runtime_config();
        let Some(code) = code else {
            return Interpreter::new(module, cfg).run_main();
        };
        let engine = (code.map_err(Clone::clone))
            .and_then(|code| omplt_vm::VmEngine::new(module, code, cfg));
        match engine {
            Ok(engine) => engine.run_main(),
            Err(e) if self.opts.backend == Backend::Vm => self.run_interp_fallback(module, cfg, &e),
            Err(e) => Err(e),
        }
    }

    /// Graceful degradation for `--backend=vm`: warns that the bytecode
    /// path is unavailable and runs the interpreter oracle instead. The
    /// interpreter shares the exact `RuntimeConfig`, so the fallback run is
    /// observably identical to a clean interpreter run.
    fn run_interp_fallback(
        &self,
        module: &Module,
        cfg: RuntimeConfig,
        err: &omplt_interp::ExecError,
    ) -> Result<RunResult, omplt_interp::ExecError> {
        let reason: String = err
            .to_string()
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .collect::<Vec<_>>()
            .join("; ");
        self.diags.warning(
            omplt_source::SourceLocation::INVALID,
            format!(
                "bytecode backend unavailable ({reason}); falling back to the interpreter \
                 ['--backend=vm:strict' keeps this fatal]"
            ),
        );
        if omplt_trace::active() {
            omplt_trace::count("backend.fallback", 1);
        }
        let _span = omplt_trace::span("fallback");
        Interpreter::new(module, cfg).run_main()
    }

    /// Lowers `module` to bytecode and runs the bytecode verifier over the
    /// result.
    pub fn compile_bytecode(
        &self,
        module: &Module,
    ) -> Result<omplt_vm::VmModule, omplt_interp::ExecError> {
        omplt_fault::set_stage("vm");
        let code = omplt_vm::compile_module_with(module, self.opts.vector_width)
            .map_err(|e| omplt_interp::ExecError::Malformed(format!("bytecode compile: {e}")))?;
        let errs = {
            let _span = omplt_trace::span("vm.verify");
            omplt_vm::verify_module(&code)
        };
        if !errs.is_empty() {
            return Err(omplt_interp::ExecError::Malformed(format!(
                "bytecode verification failed:\n{}",
                errs.iter()
                    .map(|e| format!("  {e}"))
                    .collect::<Vec<_>>()
                    .join("\n")
            )));
        }
        Ok(code)
    }

    /// Convenience: parse + codegen + (optional optimize) + run.
    pub fn compile_and_run(
        &mut self,
        name: &str,
        source: &str,
        optimize: bool,
    ) -> Result<RunResult, String> {
        let tu = self.parse_source(name, source)?;
        let mut module = self.codegen(&tu)?;
        if optimize {
            self.optimize(&mut module);
            for f in &module.functions {
                let errs = omplt_ir::verify_function(f);
                if !errs.is_empty() {
                    return Err(format!(
                        "post-optimization verification failed for @{}",
                        f.name
                    ));
                }
            }
        }
        self.run(&module).map_err(|e| format!("runtime error: {e}"))
    }
}
