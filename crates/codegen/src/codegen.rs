//! CodeGen driver: lowers a type-checked translation unit to `omplt-ir`.

use omplt_ast::{
    Decl, DeclId, FunctionDecl, OpenMpCodegenMode, TranslationUnit, Type, TypeKind, VarDecl, P,
};
use omplt_ir::{arith, Function, IrType, Module, SymbolId, Value};
use omplt_source::{DiagnosticsEngine, IdentifierTable};
use std::collections::HashMap;

/// Codegen configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct CodegenOptions {
    /// Which OpenMP lowering path to use (paper §2 vs §3).
    pub mode: OpenMpCodegenMode,
    /// `--verify-each`: re-check the canonical-loop skeleton invariants
    /// after every OpenMPIRBuilder transformation, reporting violations as
    /// diagnostics instead of miscompiling silently.
    pub verify_each: bool,
}

/// The produced module (plus bookkeeping for tests).
pub struct CodegenResult {
    /// The generated IR module.
    pub module: Module,
}

/// Lowers `tu` into an IR module.
pub fn codegen_translation_unit(
    tu: &TranslationUnit,
    opts: CodegenOptions,
    diags: &DiagnosticsEngine,
) -> CodegenResult {
    let _span = omplt_trace::span_detail(
        "codegen",
        match opts.mode {
            OpenMpCodegenMode::Classic => "classic",
            OpenMpCodegenMode::IrBuilder => "irbuilder",
        },
    );
    omplt_fault::panic_if_armed("codegen.panic");
    let mut module = Module::new();
    let mut globals: HashMap<DeclId, SymbolId> = HashMap::new();
    // Globals first: zero-initialized, or holding the constant their
    // initializer folds to. Sema accepts only an initializer whose lowering
    // the IrBuilder folds, so lowering it is evaluating it by the IR's
    // arithmetic, at the global's type.
    for d in &tu.decls {
        if let Decl::Var(v) = d {
            let ty = ir_type(&v.ty);
            let init = v.init.as_ref().map(|init| {
                let scratch = Function::new("", vec![], IrType::Void);
                let mut cg =
                    FnCodegen::new(&mut module, diags, opts, &globals, &tu.idents, scratch);
                cg.initializer = true;
                let value = cg.emit_rvalue(init).payload();
                arith::encode(ty, value.expect("Sema accepts only a constant initializer")) as i64
            });
            let sym = module.add_global(tu.idents.get(v.name), ty, v.ty.size_of().max(1));
            if let Some(g) = module.globals.last_mut() {
                g.init.extend(init);
            }
            globals.insert(v.id, sym);
        }
    }
    // Declare every function (so calls resolve in any order), then emit
    // definitions.
    for d in &tu.decls {
        if let Decl::Function(f) = d {
            let params: Vec<IrType> = f.params.iter().map(|p| ir_type(&p.ty)).collect();
            module.declare_extern(tu.idents.get(f.name), params, ir_type(&f.return_type()));
        }
    }
    for d in &tu.decls {
        if let Decl::Function(f) = d {
            if f.is_definition() {
                emit_function(&mut module, f, &tu.idents, &globals, opts, diags);
            }
        }
    }
    CodegenResult { module }
}

/// Maps an AST type to its IR type.
pub fn ir_type(t: &Type) -> IrType {
    match &t.kind {
        TypeKind::Void => IrType::Void,
        TypeKind::Bool => IrType::I1,
        TypeKind::Int { width, .. } => IrType::int_with_bits(width.bits()),
        TypeKind::Float => IrType::F32,
        TypeKind::Double => IrType::F64,
        TypeKind::Pointer(_) | TypeKind::Array(..) | TypeKind::Function { .. } => IrType::Ptr,
    }
}

/// Where a variable lives during codegen.
#[derive(Clone, Copy)]
pub(crate) struct Binding {
    /// Address of the variable's storage (an alloca, argument pointer, or
    /// global).
    pub addr: Value,
}

/// Per-function code generator, shared by all OpenMP paths.
pub(crate) struct FnCodegen<'m, 'd> {
    pub module: &'m mut Module,
    pub diags: &'d DiagnosticsEngine,
    pub opts: CodegenOptions,
    pub globals: &'m HashMap<DeclId, SymbolId>,
    /// The spellings of the translation unit's names.
    pub idents: &'m IdentifierTable,
    /// The function being built.
    pub func: Function,
    /// Current insertion block.
    pub cur: omplt_ir::BlockId,
    /// Variable bindings (flat: `DeclId`s are unique per compilation).
    pub bindings: HashMap<DeclId, Binding>,
    /// Cached allocas per variable, so re-executed declarations (loop
    /// bodies) reuse storage instead of growing the frame.
    pub var_slots: HashMap<DeclId, Value>,
    /// Stack of `(break_target, continue_target)` for loops.
    pub loop_stack: Vec<(omplt_ir::BlockId, omplt_ir::BlockId)>,
    /// Functions outlined while emitting this one (appended to the module
    /// afterwards).
    pub pending_outlined: Vec<Function>,
    /// Counter for outlined-function names.
    pub outlined_counter: usize,
    /// Lowering a file-scope initializer, every operand of which Sema made
    /// a constant: a constant condition selects its arm (`0 && r` is `0`,
    /// `1 && r` is `r`) instead of branching, so the whole initializer
    /// folds to one constant.
    pub initializer: bool,
}

impl<'m, 'd> FnCodegen<'m, 'd> {
    pub(crate) fn new(
        module: &'m mut Module,
        diags: &'d DiagnosticsEngine,
        opts: CodegenOptions,
        globals: &'m HashMap<DeclId, SymbolId>,
        idents: &'m IdentifierTable,
        func: Function,
    ) -> Self {
        let entry = func.entry();
        FnCodegen {
            module,
            diags,
            opts,
            globals,
            idents,
            func,
            cur: entry,
            bindings: HashMap::new(),
            var_slots: HashMap::new(),
            loop_stack: Vec::new(),
            pending_outlined: Vec::new(),
            outlined_counter: 0,
            initializer: false,
        }
    }

    /// Runs `f` with a builder and keeps the insertion point in sync.
    pub(crate) fn with_builder<R>(
        &mut self,
        f: impl FnOnce(&mut omplt_ir::IrBuilder<'_>) -> R,
    ) -> R {
        let mut b = omplt_ir::IrBuilder::new(&mut self.func);
        b.set_insert_point(self.cur);
        let r = f(&mut b);
        self.cur = b.insert_block();
        r
    }

    /// Allocates (or reuses) the stack slot of a variable.
    pub(crate) fn slot_for(&mut self, v: &P<VarDecl>) -> Value {
        if let Some(&s) = self.var_slots.get(&v.id) {
            return s;
        }
        // Allocas live in the entry block so they execute once per call.
        // An array is its scalar element type × the product of its extents
        // (`int a[9][9]` is 81 `i32`s, as the global of that type is).
        let (mut scalar, mut count) = (&v.ty, 1);
        while let TypeKind::Array(el, n) = &scalar.kind {
            (scalar, count) = (el, count * n);
        }
        let elem_ty = match v.ty.kind {
            TypeKind::Array(..) => ir_type(scalar),
            _ if v.by_ref => IrType::Ptr,
            _ => ir_type(&v.ty),
        };
        let entry = self.func.entry();
        let slot = self.func.push_inst(
            entry,
            omplt_ir::Inst::Alloca {
                ty: elem_ty,
                count,
                name: self.idents.get(v.name).to_string(),
            },
        );
        self.var_slots.insert(v.id, slot);
        slot
    }

    /// Interns a symbol in the module.
    pub(crate) fn sym(&mut self, name: &str) -> SymbolId {
        self.module.intern(name)
    }

    /// A fresh outlined-function name.
    pub(crate) fn outlined_name(&mut self) -> String {
        let n = self.outlined_counter;
        self.outlined_counter += 1;
        format!("{}.omp_outlined.{n}", self.func.name)
    }
}

fn emit_function(
    module: &mut Module,
    f: &P<FunctionDecl>,
    idents: &IdentifierTable,
    globals: &HashMap<DeclId, SymbolId>,
    opts: CodegenOptions,
    diags: &DiagnosticsEngine,
) {
    let params: Vec<IrType> = f.params.iter().map(|p| ir_type(&p.ty)).collect();
    let func = Function::new(idents.get(f.name), params, ir_type(&f.return_type()));
    let mut cg = FnCodegen::new(module, diags, opts, globals, idents, func);

    // Spill arguments into allocas so parameters are addressable like
    // locals (clang -O0 style).
    for (i, p) in f.params.iter().enumerate() {
        let slot = cg.slot_for(p);
        cg.with_builder(|b| b.store(Value::Arg(i as u32), slot));
        cg.bindings.insert(p.id, Binding { addr: slot });
    }

    let body = f.body.borrow();
    cg.emit_stmt(body.as_ref().expect("emit_function on a definition"));

    // Implicit return.
    let ret_ty = ir_type(&f.return_type());
    if cg.func.block(cg.cur).term.is_none() {
        cg.with_builder(|b| {
            if ret_ty == IrType::Void {
                b.ret(None);
            } else {
                b.ret(Some(Value::int(ret_ty, 0)));
            }
        });
    }
    // Terminate any stray unterminated blocks (unreachable joins).
    for bl in &mut cg.func.blocks {
        if bl.term.is_none() {
            bl.term = Some(omplt_ir::Terminator::Unreachable);
        }
    }

    let outlined = std::mem::take(&mut cg.pending_outlined);
    let finished = std::mem::replace(&mut cg.func, Function::new("<done>", vec![], IrType::Void));
    drop(cg);
    module.add_function(finished);
    for of in outlined {
        module.add_function(of);
    }
}
