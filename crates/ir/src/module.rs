//! Modules: functions, globals and the symbol interner.

use crate::function::Function;
use crate::types::IrType;
use crate::value::SymbolId;
use std::collections::HashMap;
use std::sync::Arc;

/// A module-level global variable (zero-initialized byte region).
#[derive(Clone, Debug)]
pub struct GlobalVar {
    /// Symbol of the global.
    pub sym: SymbolId,
    /// Size in bytes.
    pub size: u64,
    /// Element type for the printer.
    pub ty: IrType,
    /// Optional initial words (little-endian per element of `ty`).
    pub init: Vec<i64>,
}

/// An external function declaration (runtime shims and unresolved callees).
#[derive(Clone, Debug)]
pub struct ExternFn {
    /// Symbol of the function.
    pub sym: SymbolId,
    /// Parameter types (variadic tail allowed at runtime).
    pub params: Vec<IrType>,
    /// Return type.
    pub ret: IrType,
}

/// A compiled module.
#[derive(Default, Debug)]
pub struct Module {
    /// Defined functions.
    pub functions: Vec<Function>,
    /// Global variables.
    pub globals: Vec<GlobalVar>,
    /// External declarations.
    pub externs: Vec<ExternFn>,
    /// Each name once, shared by the list and the index.
    symbols: Vec<Arc<str>>,
    symbol_index: HashMap<Arc<str>, SymbolId>,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Module {
        Module::default()
    }

    /// Interns a symbol name.
    pub fn intern(&mut self, name: &str) -> SymbolId {
        if let Some(&id) = self.symbol_index.get(name) {
            return id;
        }
        let id = SymbolId(self.symbols.len() as u32);
        let stored: Arc<str> = name.into();
        self.symbols.push(Arc::clone(&stored));
        self.symbol_index.insert(stored, id);
        id
    }

    /// Resolves a symbol id to its name.
    pub fn symbol_name(&self, id: SymbolId) -> &str {
        &self.symbols[id.0 as usize]
    }

    /// Every interned name; `symbols()[id.0 as usize]` is `symbol_name(id)`.
    pub fn symbols(&self) -> &[Arc<str>] {
        &self.symbols
    }

    /// Looks up an interned symbol without creating it.
    pub fn lookup_symbol(&self, name: &str) -> Option<SymbolId> {
        self.symbol_index.get(name).copied()
    }

    /// Adds a function definition; its name is interned automatically.
    pub fn add_function(&mut self, f: Function) -> SymbolId {
        let sym = self.intern(&f.name);
        self.functions.push(f);
        sym
    }

    /// Finds a defined function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Mutable lookup.
    pub fn function_mut(&mut self, name: &str) -> Option<&mut Function> {
        self.functions.iter_mut().find(|f| f.name == name)
    }

    /// Declares an external function (idempotent per name: `params` is
    /// made a list only for a new one).
    pub fn declare_extern(
        &mut self,
        name: &str,
        params: impl Into<Vec<IrType>>,
        ret: IrType,
    ) -> SymbolId {
        let sym = self.intern(name);
        if !self.externs.iter().any(|e| e.sym == sym) {
            let params = params.into();
            self.externs.push(ExternFn { sym, params, ret });
        }
        sym
    }

    /// Adds a zero-initialized global of `size` bytes.
    pub fn add_global(&mut self, name: &str, ty: IrType, size: u64) -> SymbolId {
        let sym = self.intern(name);
        self.globals.push(GlobalVar {
            sym,
            size,
            ty,
            init: Vec::new(),
        });
        sym
    }

    /// Finds a global by symbol.
    pub fn global(&self, sym: SymbolId) -> Option<&GlobalVar> {
        self.globals.iter().find(|g| g.sym == sym)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let mut m = Module::new();
        let a = m.intern("foo");
        let b = m.intern("foo");
        let c = m.intern("bar");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(m.symbol_name(a), "foo");
        assert_eq!(m.lookup_symbol("bar"), Some(c));
        assert_eq!(m.lookup_symbol("baz"), None);
    }

    #[test]
    fn function_registry() {
        let mut m = Module::new();
        m.add_function(Function::new("main", vec![], IrType::I32));
        assert!(m.function("main").is_some());
        assert!(m.function("nope").is_none());
        m.function_mut("main").unwrap().add_block("x");
        assert_eq!(m.function("main").unwrap().blocks.len(), 2);
    }

    #[test]
    fn extern_declaration_is_idempotent() {
        let mut m = Module::new();
        m.declare_extern("sink", vec![IrType::Ptr], IrType::Void);
        m.declare_extern("sink", vec![], IrType::I32);
        assert_eq!(m.externs.len(), 1);
        assert_eq!(
            m.externs[0].params,
            [IrType::Ptr],
            "the first declaration wins"
        );
    }

    #[test]
    fn globals() {
        let mut m = Module::new();
        let g = m.add_global("data", IrType::F64, 80);
        assert_eq!(m.global(g).unwrap().size, 80);
    }
}
