//! The `Decl` hierarchy: variables, parameters, functions, and the
//! `CapturedDecl` "lambda function definition" the paper describes as the
//! implementation vehicle for outlining (§1.2).

use crate::stmt::Stmt;
use crate::ty::Type;
use crate::P;
use omplt_source::{IdentifierTable, SourceLocation, Symbol};
use std::cell::{Cell, RefCell};

/// Stable identity of a declaration. Two `DeclRefExpr`s refer to the same
/// variable iff their `DeclId`s are equal (the AST may share the `VarDecl`
/// node itself or not — Clang's capture nodes are "in fact only a reference
/// to the declaration in the for-loop's init-statement").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, PartialOrd, Ord)]
pub struct DeclId(pub u32);

/// Storage/flavor of a variable declaration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VarKind {
    /// An ordinary local variable.
    Local,
    /// A function parameter.
    Param,
    /// A compiler-introduced parameter of an outlined function, e.g.
    /// `.global_tid.` (printed as `ImplicitParamDecl` in dumps).
    ImplicitParam,
    /// A file-scope variable.
    Global,
}

/// A variable (or parameter) declaration.
#[derive(Debug)]
pub struct VarDecl {
    /// Stable identity.
    pub id: DeclId,
    /// Source name; compiler-generated variables use dotted/internal names
    /// such as `.unrolled.iv.i` or `__begin` that cannot collide with user
    /// identifiers.
    pub name: Symbol,
    /// Declared type.
    pub ty: P<Type>,
    /// Initializer, if any.
    pub init: Option<P<Expr>>,
    /// Where the declaration appeared.
    pub loc: SourceLocation,
    /// Storage flavor.
    pub kind: VarKind,
    /// True for nodes invented by the compiler (not written in source).
    pub implicit: bool,
    /// True when the variable is a C++-style reference binding (the loop
    /// user variable of `for (T &x : c)`): its storage holds the referent's
    /// address and every access indirects through it.
    pub by_ref: bool,
    /// Whether any `DeclRefExpr` refers to this declaration ("used" marker in
    /// Clang dumps). `Cell` because use-marking happens after construction —
    /// one of the AST's few sanctioned mutations.
    pub used: Cell<bool>,
}

use crate::expr::Expr;

/// A function declaration (and definition, once the body is attached).
#[derive(Debug)]
pub struct FunctionDecl {
    /// Stable identity.
    pub id: DeclId,
    /// Function name.
    pub name: Symbol,
    /// Full function type.
    pub ty: P<Type>,
    /// Parameter declarations.
    pub params: Vec<P<VarDecl>>,
    /// Definition body. `RefCell` because the `FunctionDecl` must exist while
    /// its own body is being parsed (recursive calls resolve against it) —
    /// the other sanctioned mutation.
    pub body: RefCell<Option<P<Stmt>>>,
    /// Where the declaration appeared.
    pub loc: SourceLocation,
}

impl FunctionDecl {
    /// Return type (panics on non-function type — construction guarantees it).
    pub fn return_type(&self) -> P<Type> {
        match &self.ty.kind {
            crate::ty::TypeKind::Function { ret, .. } => P::clone(ret),
            _ => unreachable!("FunctionDecl with non-function type"),
        }
    }

    /// Whether a body has been attached.
    pub fn is_definition(&self) -> bool {
        self.body.borrow().is_some()
    }
}

/// The "lambda function definition" that a `CapturedStmt` declares
/// (paper §1.2: re-purposing the C++ lambda / ObjC block implementation to
/// make outlining into another function easy).
#[derive(Debug)]
pub struct CapturedDecl {
    /// Implicit parameters of the outlined function. For an OpenMP outlined
    /// region these are `.global_tid.`, `.bound_tid.` and `__context`; for
    /// the canonical-loop helper lambdas they are the result slot (and the
    /// logical iteration number for the loop-value function).
    pub params: Vec<P<VarDecl>>,
    /// The captured body.
    pub body: P<Stmt>,
    /// `nothrow` marker (always true here; printed in dumps for fidelity).
    pub nothrow: bool,
}

/// A declaration of any kind (the payload of `DeclStmt` and of the
/// translation unit).
#[derive(Clone, Debug)]
pub enum Decl {
    /// A variable.
    Var(P<VarDecl>),
    /// A function.
    Function(P<FunctionDecl>),
}

impl Decl {
    /// The declaration's identity.
    pub fn id(&self) -> DeclId {
        match self {
            Decl::Var(v) => v.id,
            Decl::Function(f) => f.id,
        }
    }

    /// The declaration's name.
    pub fn name(&self) -> Symbol {
        match self {
            Decl::Var(v) => v.name,
            Decl::Function(f) => f.name,
        }
    }
}

/// The kind of a [`Decl`], for visitors/statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeclKind {
    /// [`Decl::Var`] with [`VarKind::Local`]/[`VarKind::Global`].
    Var,
    /// [`Decl::Var`] with [`VarKind::Param`]/[`VarKind::ImplicitParam`].
    Param,
    /// [`Decl::Function`].
    Function,
}

impl Decl {
    /// Classifies the declaration.
    pub fn kind(&self) -> DeclKind {
        match self {
            Decl::Var(v) => match v.kind {
                VarKind::Param | VarKind::ImplicitParam => DeclKind::Param,
                _ => DeclKind::Var,
            },
            Decl::Function(_) => DeclKind::Function,
        }
    }
}

/// A whole translation unit.
#[derive(Debug, Default)]
pub struct TranslationUnit {
    /// Top-level declarations in source order.
    pub decls: Vec<Decl>,
    /// The spellings its symbols (declaration names, string literals) index.
    pub idents: IdentifierTable,
}

impl TranslationUnit {
    /// Finds a function by name.
    pub fn function(&self, name: &str) -> Option<&P<FunctionDecl>> {
        self.decls.iter().find_map(|d| match d {
            Decl::Function(f) if self.idents.get(f.name) == name => Some(f),
            _ => None,
        })
    }
}
