//! The identifier table (Clang's `IdentifierTable`, which lives in Basic
//! beside the SourceManager): every identifier and string-literal spelling
//! of one compilation, stored once and named by a [`Symbol`].
//!
//! The lexer interns each spelling as it reads it, so a token carries a
//! `u32` instead of a string. The preprocessor's macro table, Sema's scopes
//! and the AST's declaration names hold the same symbols, and a lookup
//! keyed on one is an index, not a string hash. Symbols are numbered in
//! first-seen order, so their numbering never depends on hash order. The
//! table belongs to one compilation: it travels with the translation unit
//! and is dropped with it.

use std::collections::HashMap;
use std::rc::Rc;

/// An interned spelling: an index into its compilation's [`IdentifierTable`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Symbol(u32);

impl Symbol {
    /// The index of the symbol, for tables indexed by symbol.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The spellings of one compilation, each stored once.
#[derive(Default, Debug)]
pub struct IdentifierTable {
    spellings: Vec<Rc<str>>,
    symbols: HashMap<Rc<str>, Symbol>,
}

impl IdentifierTable {
    /// The symbol of `spelling`, stored on first sight.
    pub fn intern(&mut self, spelling: &str) -> Symbol {
        if let Some(&sym) = self.symbols.get(spelling) {
            return sym;
        }
        let sym = Symbol(self.spellings.len() as u32);
        let stored: Rc<str> = spelling.into();
        self.spellings.push(Rc::clone(&stored));
        self.symbols.insert(stored, sym);
        sym
    }

    /// The spelling of `sym`.
    pub fn get(&self, sym: Symbol) -> &str {
        &self.spellings[sym.index()]
    }

    /// The spelling of `sym`, shared with the table.
    pub fn shared(&self, sym: Symbol) -> Rc<str> {
        Rc::clone(&self.spellings[sym.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_spelling_is_stored_once_in_first_seen_order() {
        let mut t = IdentifierTable::default();
        let (i, n) = (t.intern("i"), t.intern("n"));
        assert_eq!(t.intern("i"), i);
        assert_eq!((i.index(), n.index()), (0, 1));
        assert_eq!((t.get(i), &*t.shared(n)), ("i", "n"));
    }
}
