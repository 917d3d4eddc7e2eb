//! Lexical scopes for name lookup, indexed by symbol. As Clang keeps the
//! innermost declaration of a name on its `IdentifierInfo`, the stack keeps
//! each symbol's visible declaration in one table: a lookup is an index,
//! and leaving a scope restores what its declarations shadowed.

use omplt_ast::{Decl, FunctionDecl, VarDecl, P};
use omplt_source::Symbol;

/// A declaration and the depth of the scope that declared it.
type Binding = Option<(Decl, usize)>;

/// A stack of scopes (function, block, loop-init, …) over the
/// translation-unit scope.
#[derive(Default)]
pub struct ScopeStack {
    /// `visible[sym]`: the innermost declaration of `sym`.
    visible: Vec<Binding>,
    /// Every declaration of the open scopes, in order: its symbol and the
    /// binding it replaced.
    shadowed: Vec<(Symbol, Binding)>,
    /// Where each nested scope's entries of `shadowed` start.
    starts: Vec<usize>,
}

impl ScopeStack {
    /// Creates the stack with the translation-unit scope.
    pub fn new() -> ScopeStack {
        ScopeStack::default()
    }

    /// Enters a nested scope.
    pub fn push(&mut self) {
        self.starts.push(self.shadowed.len());
    }

    /// Leaves the innermost scope.
    pub fn pop(&mut self) {
        let start = self.starts.pop();
        let start = start.expect("cannot pop the translation-unit scope");
        for (sym, prev) in self.shadowed.drain(start..).rev() {
            self.visible[sym.index()] = prev;
        }
    }

    /// Declares `decl` in the innermost scope; returns the previous
    /// same-scope declaration on redefinition.
    pub fn declare(&mut self, decl: Decl) -> Option<Decl> {
        let (sym, depth) = (decl.name(), self.depth());
        if self.visible.len() <= sym.index() {
            self.visible.resize(sym.index() + 1, None);
        }
        let prev = self.visible[sym.index()].replace((decl, depth));
        let redefined = prev.as_ref().filter(|(_, d)| *d == depth);
        let redefined = redefined.map(|(decl, _)| decl.clone());
        self.shadowed.push((sym, prev));
        redefined
    }

    /// Innermost-out lookup.
    pub fn lookup(&self, name: Symbol) -> Option<&Decl> {
        let binding = self.visible.get(name.index())?.as_ref();
        binding.map(|(decl, _)| decl)
    }

    /// Looks up a variable.
    pub fn lookup_var(&self, name: Symbol) -> Option<&P<VarDecl>> {
        match self.lookup(name) {
            Some(Decl::Var(v)) => Some(v),
            _ => None,
        }
    }

    /// Looks up a function.
    pub fn lookup_fn(&self, name: Symbol) -> Option<&P<FunctionDecl>> {
        match self.lookup(name) {
            Some(Decl::Function(f)) => Some(f),
            _ => None,
        }
    }

    /// Current nesting depth (1 = file scope).
    pub fn depth(&self) -> usize {
        self.starts.len() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omplt_ast::ASTContext;
    use omplt_source::SourceLocation;

    #[test]
    fn shadowing_and_popping() {
        let ctx = ASTContext::new();
        let mut s = ScopeStack::new();
        let outer = ctx.make_var("x", ctx.int(), None, SourceLocation::INVALID);
        s.declare(Decl::Var(P::clone(&outer)));
        s.push();
        let inner = ctx.make_var("x", ctx.double_ty(), None, SourceLocation::INVALID);
        s.declare(Decl::Var(inner));
        assert_eq!(s.lookup_var(outer.name).unwrap().ty.spelling(), "double");
        s.pop();
        assert_eq!(s.lookup_var(outer.name).unwrap().ty.spelling(), "int");
    }

    #[test]
    fn redefinition_detected_same_scope_only() {
        let ctx = ASTContext::new();
        let mut s = ScopeStack::new();
        let a = ctx.make_var("a", ctx.int(), None, SourceLocation::INVALID);
        assert!(s.declare(Decl::Var(P::clone(&a))).is_none());
        assert!(s.declare(Decl::Var(P::clone(&a))).is_some());
        s.push();
        assert!(s.declare(Decl::Var(P::clone(&a))).is_none());
        s.pop();
        assert!(s.lookup(a.name).is_some());
    }

    #[test]
    fn unknown_name_is_none() {
        let ctx = ASTContext::new();
        let s = ScopeStack::new();
        assert!(s.lookup(ctx.intern("nope")).is_none());
    }
}
