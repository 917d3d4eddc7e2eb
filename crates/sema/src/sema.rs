//! The semantic analyzer. The parser pushes syntax into these `act_on_*`
//! entry points (Clang's "pushed to Sema to create an AST node" control
//! flow, paper Fig. 1); Sema type-checks, inserts implicit nodes
//! (conversions, decay), and owns the OpenMP directive handling in
//! `omp_sema`.
//!
//! Sema is the one judge of the source: every rule a program must keep is
//! decided here, while the AST is built, so every entrance — `--syntax-only`
//! and `--analyze` as much as a compile — refuses the same programs, and
//! CodeGen lowers only what Sema accepted. That includes the rules that
//! read the runtime's rows (a prototype of a runtime entry is its row's C
//! image) and the ones about what CodeGen can lower at all (a `break` has a
//! loop to leave on its side of an outlined region, a file-scope
//! initializer folds to one constant).

use crate::scope::ScopeStack;
use omplt_ast::{
    ASTContext, BinOp, CastKind, Decl, Expr, ExprKind, FunctionDecl, OpenMpCodegenMode, Stmt,
    StmtKind, Type, TypeKind, UnOp, VarDecl, VarKind, P,
};
use omplt_ir::{IrType, RtFn, RtRow};
use omplt_source::{Diagnostic, DiagnosticsEngine, Level, SourceLocation, SourceManager, Symbol};
use std::cell::RefCell;

/// The Sema layer state.
pub struct Sema<'a> {
    /// AST allocation context.
    pub ctx: ASTContext,
    /// Diagnostics sink shared with all layers.
    pub diags: &'a DiagnosticsEngine,
    /// Source manager (mutable: transformed-location creation).
    pub sm: &'a RefCell<SourceManager>,
    /// Name lookup scopes.
    pub scopes: ScopeStack,
    /// Selected OpenMP lowering.
    pub mode: OpenMpCodegenMode,
    /// Whether OpenMP pragmas are honored (`-fopenmp`); when false they
    /// parse but lower to their associated statements.
    pub openmp: bool,
    /// The function currently being analyzed (for `return` checking).
    pub current_fn: Option<P<FunctionDecl>>,
    /// The loops around the statement being parsed, counted from the start
    /// of its function or outlined region: what a `break` or `continue`
    /// may leave. The parser counts them (`Parser::parse_loop_body`).
    pub loop_depth: usize,
}

impl<'a> Sema<'a> {
    /// Creates a Sema over shared diagnostics and source manager.
    pub fn new(
        diags: &'a DiagnosticsEngine,
        sm: &'a RefCell<SourceManager>,
        mode: OpenMpCodegenMode,
        openmp: bool,
    ) -> Sema<'a> {
        Sema {
            ctx: ASTContext::new(),
            diags,
            sm,
            scopes: ScopeStack::new(),
            mode,
            openmp,
            current_fn: None,
            loop_depth: 0,
        }
    }

    /// An error-recovery expression (type `int`, value 0).
    pub fn error_expr(&self, loc: SourceLocation) -> P<Expr> {
        self.ctx.int_lit(0, self.ctx.int(), loc)
    }

    // ---------------- declarations ----------------

    /// Declares a local variable, converting the initializer.
    pub fn act_on_var_decl(
        &mut self,
        name: Symbol,
        ty: P<Type>,
        init: Option<P<Expr>>,
        by_ref: bool,
        loc: SourceLocation,
    ) -> P<VarDecl> {
        let global = self.scopes.depth() == 1;
        if let Some(at) = init.as_ref().filter(|_| global).and_then(not_constant) {
            self.diags
                .error(at, "initializer element is not a compile-time constant");
        }
        let init = init.map(|e| {
            if by_ref {
                // Reference binding: keep the lvalue (no decay/conversion).
                e
            } else {
                self.convert_for_init(e, &ty)
            }
        });
        let var = P::new(VarDecl {
            id: self.ctx.fresh_decl_id(),
            name,
            ty,
            init,
            loc,
            kind: if global {
                VarKind::Global
            } else {
                VarKind::Local
            },
            implicit: false,
            by_ref,
            used: std::cell::Cell::new(false),
        });
        if self.scopes.declare(Decl::Var(P::clone(&var))).is_some() {
            let name = self.ctx.spelling(name);
            self.diags.error(loc, format!("redefinition of '{name}'"));
        }
        var
    }

    /// Starts a function: declares it, pushes the parameter scope.
    pub fn act_on_function_start(
        &mut self,
        name: Symbol,
        ret: P<Type>,
        params: Vec<(Symbol, P<Type>, SourceLocation)>,
        loc: SourceLocation,
    ) -> P<FunctionDecl> {
        let param_decls: Vec<P<VarDecl>> = params
            .iter()
            .map(|(n, t, l)| {
                P::new(VarDecl {
                    id: self.ctx.fresh_decl_id(),
                    name: *n,
                    ty: P::clone(t),
                    init: None,
                    loc: *l,
                    kind: VarKind::Param,
                    implicit: false,
                    by_ref: false,
                    used: std::cell::Cell::new(false),
                })
            })
            .collect();
        let fn_ty = Type::new(TypeKind::Function {
            ret,
            params: params.iter().map(|(_, t, _)| P::clone(t)).collect(),
        });
        // Re-declaration with a body is a definition of a prior prototype.
        // The runtime's entries are declared before the program: the first
        // declaration of one redeclares its row's C image.
        let spelled = self.ctx.spelling(name);
        let conflict = |notes| {
            let message = format!("conflicting types for '{spelled}'");
            self.diags
                .report_with_notes(Level::Error, loc, message, notes);
        };
        let func = if let Some(prev) = self.scopes.lookup_fn(name).cloned() {
            if *prev.ty != *fn_ty {
                conflict(vec![]);
            }
            prev
        } else {
            let row = RtFn::from_name(&spelled).map(RtFn::row);
            if let Some(row) = row.filter(|row| *self.runtime_prototype(row) != *fn_ty) {
                conflict(vec![Diagnostic::note(
                    loc,
                    format!("the runtime declares it as '{row}'"),
                )]);
            }
            let f = P::new(FunctionDecl {
                id: self.ctx.fresh_decl_id(),
                name,
                ty: fn_ty,
                params: param_decls.clone(),
                body: RefCell::new(None),
                loc,
            });
            self.scopes.declare(Decl::Function(P::clone(&f)));
            f
        };
        self.scopes.push();
        for p in &func.params {
            self.scopes.declare(Decl::Var(P::clone(p)));
        }
        self.current_fn = Some(P::clone(&func));
        func
    }

    /// The C prototype of a runtime entry: its row's IR signature spelled
    /// in C (`i32` is `int`, `i64` is `long`, `ptr` is `void *`), which
    /// `codegen::ir_type` maps back to the row. A variadic row's image has
    /// its fixed parameters.
    pub fn runtime_prototype(&self, row: &RtRow) -> P<Type> {
        let c = |t: &IrType| match t {
            IrType::Void => self.ctx.void(),
            IrType::I1 => self.ctx.bool_ty(),
            IrType::I8 => self.ctx.char_ty(),
            IrType::I16 => self.ctx.short_ty(),
            IrType::I32 => self.ctx.int(),
            IrType::I64 => self.ctx.long_ty(),
            IrType::F32 => self.ctx.float_ty(),
            IrType::F64 => self.ctx.double_ty(),
            IrType::Ptr => self.ctx.pointer_to(self.ctx.void()),
        };
        Type::new(TypeKind::Function {
            ret: c(&row.ret),
            params: row.params.iter().map(c).collect(),
        })
    }

    /// Finishes a function definition (or prototype when `body` is `None`).
    pub fn act_on_function_end(&mut self, func: &P<FunctionDecl>, body: Option<P<Stmt>>) {
        if let Some(b) = body {
            if func.is_definition() {
                let name = self.ctx.spelling(func.name);
                self.diags
                    .error(func.loc, format!("redefinition of '{name}'"));
            }
            *func.body.borrow_mut() = Some(b);
        }
        self.scopes.pop();
        self.current_fn = None;
    }

    // ---------------- statements and expressions ----------------

    /// Builds a `break` or `continue`. It leaves a loop of its own function
    /// and of its own side of an outlined region: the body of a `parallel`
    /// is a function of its own, whatever loop the directive sits in.
    pub fn act_on_loop_jump(&mut self, kind: StmtKind, loc: SourceLocation) -> P<Stmt> {
        if self.loop_depth == 0 {
            let word = match kind {
                StmtKind::Break => "break",
                _ => "continue",
            };
            self.diags.error(loc, format!("'{word}' outside of a loop"));
        }
        Stmt::new(kind, loc)
    }

    /// Refuses a string literal: no lowering gives one storage. The
    /// recovery expression keeps the literal's type, `char *`, so a use of
    /// it reports nothing more.
    pub fn act_on_string_literal(&mut self, loc: SourceLocation) -> P<Expr> {
        self.diags.error(
            loc,
            "string literals are only supported as unused arguments",
        );
        let ty = self.ctx.pointer_to(self.ctx.char_ty());
        Expr::rvalue(ExprKind::IntegerLiteral(0), ty, loc)
    }

    /// Resolves a name to a variable reference (with array decay deferred to
    /// the use site).
    pub fn act_on_decl_ref(&mut self, name: Symbol, loc: SourceLocation) -> P<Expr> {
        match self.scopes.lookup_var(name) {
            Some(v) => self.ctx.decl_ref(v, loc),
            None => {
                let name = self.ctx.spelling(name);
                self.diags
                    .error(loc, format!("use of undeclared identifier '{name}'"));
                self.error_expr(loc)
            }
        }
    }

    /// Loads an rvalue out of `e` if it is an lvalue (inserting
    /// `LValueToRValue`), and decays arrays/functions.
    pub fn rvalue(&self, e: P<Expr>) -> P<Expr> {
        let loc = e.loc;
        if let TypeKind::Array(elem, _) = &e.ty.kind {
            let pty = self.ctx.pointer_to(P::clone(elem));
            return Expr::rvalue(
                ExprKind::ImplicitCast(CastKind::ArrayToPointerDecay, e),
                pty,
                loc,
            );
        }
        if e.is_lvalue() {
            let ty = P::clone(&e.ty);
            return Expr::rvalue(ExprKind::ImplicitCast(CastKind::LValueToRValue, e), ty, loc);
        }
        e
    }

    /// Converts `e` to `to` (for initialization/assignment/arguments).
    pub fn convert_for_init(&self, e: P<Expr>, to: &P<Type>) -> P<Expr> {
        let e = self.rvalue(e);
        self.implicit_convert(e, to)
    }

    /// Inserts an implicit conversion node when types differ.
    pub fn implicit_convert(&self, e: P<Expr>, to: &P<Type>) -> P<Expr> {
        if *e.ty == **to {
            return e;
        }
        let loc = e.loc;
        let kind = match (&e.ty.kind, &to.kind) {
            (TypeKind::Int { .. } | TypeKind::Bool, TypeKind::Int { .. }) => CastKind::IntegralCast,
            (TypeKind::Int { .. } | TypeKind::Bool, TypeKind::Float | TypeKind::Double) => {
                CastKind::IntegralToFloating
            }
            (TypeKind::Float | TypeKind::Double, TypeKind::Int { .. }) => {
                CastKind::FloatingToIntegral
            }
            (TypeKind::Float | TypeKind::Double, TypeKind::Float | TypeKind::Double) => {
                CastKind::FloatingCast
            }
            (TypeKind::Int { .. }, TypeKind::Bool) => CastKind::IntegralToBoolean,
            (TypeKind::Float | TypeKind::Double, TypeKind::Bool) => CastKind::IntegralToBoolean,
            (TypeKind::Pointer(_), TypeKind::Pointer(_)) => CastKind::NoOp,
            (TypeKind::Pointer(_), TypeKind::Bool) => CastKind::IntegralToBoolean,
            _ => {
                self.diags.error(
                    loc,
                    format!(
                        "cannot convert '{}' to '{}'",
                        e.ty.spelling(),
                        to.spelling()
                    ),
                );
                CastKind::NoOp
            }
        };
        Expr::rvalue(ExprKind::ImplicitCast(kind, e), P::clone(to), loc)
    }

    /// The common type of the usual arithmetic conversions.
    fn common_arith_type(&self, a: &P<Type>, b: &P<Type>) -> P<Type> {
        fn rank(t: &Type) -> u32 {
            match &t.kind {
                TypeKind::Double => 100,
                TypeKind::Float => 90,
                TypeKind::Int { width, signed } => 10 + width.bits() * 2 + (!signed) as u32,
                TypeKind::Bool => 1,
                _ => 0,
            }
        }
        // Integer promotion: everything below int promotes to int.
        let promote = |t: &P<Type>| -> P<Type> {
            match &t.kind {
                TypeKind::Bool => self.ctx.int(),
                TypeKind::Int { width, .. } if width.bits() < 32 => self.ctx.int(),
                _ => P::clone(t),
            }
        };
        let (a, b) = (promote(a), promote(b));
        if rank(&a) >= rank(&b) {
            a
        } else {
            b
        }
    }

    /// Builds a type-checked binary operation.
    pub fn act_on_binary(
        &mut self,
        op: BinOp,
        lhs: P<Expr>,
        rhs: P<Expr>,
        loc: SourceLocation,
    ) -> P<Expr> {
        if op.is_assignment() {
            if !lhs.is_lvalue() {
                self.diags.error(loc, "expression is not assignable");
                return self.error_expr(loc);
            }
            let lty = P::clone(&lhs.ty);
            // Compound pointer arithmetic (p += n) keeps the pointer type.
            let rhs = if lty.is_pointer() && op != BinOp::Assign {
                self.rvalue(rhs)
            } else {
                self.convert_for_init(rhs, &lty)
            };
            return self.ctx.binary(op, lhs, rhs, lty, loc);
        }
        match op {
            BinOp::Comma => {
                let rty = P::clone(&rhs.ty);
                let rhs = self.rvalue(rhs);
                let ty = P::clone(&rhs.ty);
                let _ = rty;
                self.ctx.binary(op, self.rvalue(lhs), rhs, ty, loc)
            }
            BinOp::LAnd | BinOp::LOr => {
                let l = self.to_bool(lhs);
                let r = self.to_bool(rhs);
                self.ctx.binary(op, l, r, self.ctx.bool_ty(), loc)
            }
            _ if op.is_comparison() => {
                let (l, r) = self.arith_operands(lhs, rhs, loc);
                self.ctx.binary(op, l, r, self.ctx.bool_ty(), loc)
            }
            BinOp::Add | BinOp::Sub => {
                let l = self.rvalue(lhs);
                let r = self.rvalue(rhs);
                // Pointer arithmetic: p ± n, p - q.
                if l.ty.is_pointer() && r.ty.is_integer() {
                    let ty = P::clone(&l.ty);
                    return self.ctx.binary(op, l, r, ty, loc);
                }
                if op == BinOp::Sub && l.ty.is_pointer() && r.ty.is_pointer() {
                    return self.ctx.binary(op, l, r, self.ctx.ptrdiff_t(), loc);
                }
                if op == BinOp::Add && l.ty.is_integer() && r.ty.is_pointer() {
                    let ty = P::clone(&r.ty);
                    return self.ctx.binary(op, r, l, ty, loc);
                }
                let (l, r, ty) = self.converted_arith(l, r, loc);
                self.ctx.binary(op, l, r, ty, loc)
            }
            _ => {
                let l = self.rvalue(lhs);
                let r = self.rvalue(rhs);
                let (l, r, ty) = self.converted_arith(l, r, loc);
                self.ctx.binary(op, l, r, ty, loc)
            }
        }
    }

    fn arith_operands(
        &mut self,
        lhs: P<Expr>,
        rhs: P<Expr>,
        loc: SourceLocation,
    ) -> (P<Expr>, P<Expr>) {
        let l = self.rvalue(lhs);
        let r = self.rvalue(rhs);
        if l.ty.is_pointer() && r.ty.is_pointer() {
            return (l, r); // pointer comparisons compare addresses
        }
        if (l.ty.is_pointer() && r.ty.is_integral_or_bool())
            || (l.ty.is_integral_or_bool() && r.ty.is_pointer())
        {
            self.diags.error(
                loc,
                format!(
                    "comparison between pointer and integer ('{}' and '{}')",
                    l.ty.spelling(),
                    r.ty.spelling()
                ),
            );
            return (self.error_expr(loc), self.error_expr(loc));
        }
        let (l, r, _) = self.converted_arith(l, r, loc);
        (l, r)
    }

    fn converted_arith(
        &mut self,
        l: P<Expr>,
        r: P<Expr>,
        loc: SourceLocation,
    ) -> (P<Expr>, P<Expr>, P<Type>) {
        if !l.ty.is_arithmetic() || !r.ty.is_arithmetic() {
            self.diags
                .error(loc, "invalid operands to binary expression");
            let ty = self.ctx.int();
            return (self.error_expr(loc), self.error_expr(loc), ty);
        }
        let ty = self.common_arith_type(&l.ty, &r.ty);
        (
            self.implicit_convert(l, &ty),
            self.implicit_convert(r, &ty),
            ty,
        )
    }

    /// Converts a controlling expression to `bool`.
    pub fn to_bool(&self, e: P<Expr>) -> P<Expr> {
        let e = self.rvalue(e);
        self.implicit_convert(e, &self.ctx.bool_ty())
    }

    /// Builds a type-checked unary operation.
    pub fn act_on_unary(&mut self, op: UnOp, sub: P<Expr>, loc: SourceLocation) -> P<Expr> {
        match op {
            UnOp::PreInc | UnOp::PreDec | UnOp::PostInc | UnOp::PostDec => {
                if !sub.is_lvalue() {
                    self.diags.error(loc, "expression is not assignable");
                    return self.error_expr(loc);
                }
                let ty = P::clone(&sub.ty);
                self.ctx.unary(op, sub, ty, loc)
            }
            UnOp::Deref => {
                let sub = self.rvalue(sub);
                match sub.ty.pointee() {
                    Some(p) => {
                        let pty = P::clone(p);
                        Expr::lvalue(ExprKind::Unary(op, sub), pty, loc)
                    }
                    None => {
                        self.diags
                            .error(loc, "indirection requires pointer operand");
                        self.error_expr(loc)
                    }
                }
            }
            UnOp::AddrOf => {
                if !sub.is_lvalue() {
                    self.diags
                        .error(loc, "cannot take the address of an rvalue");
                    return self.error_expr(loc);
                }
                let ty = self.ctx.pointer_to(P::clone(&sub.ty));
                self.ctx.unary(op, sub, ty, loc)
            }
            UnOp::LNot => {
                let b = self.to_bool(sub);
                self.ctx.unary(op, b, self.ctx.bool_ty(), loc)
            }
            UnOp::Plus | UnOp::Minus | UnOp::BitNot => {
                let sub = self.rvalue(sub);
                if !sub.ty.is_arithmetic() {
                    self.diags.error(loc, "invalid operand to unary expression");
                    return self.error_expr(loc);
                }
                let ty = self.common_arith_type(&sub.ty, &self.ctx.int());
                let sub = self.implicit_convert(sub, &ty);
                self.ctx.unary(op, sub, ty, loc)
            }
        }
    }

    /// Builds a type-checked call.
    pub fn act_on_call(
        &mut self,
        name: Symbol,
        args: Vec<P<Expr>>,
        loc: SourceLocation,
    ) -> P<Expr> {
        let Some(callee) = self.scopes.lookup_fn(name).cloned() else {
            let name = self.ctx.spelling(name);
            self.diags
                .error(loc, format!("call to undeclared function '{name}'"));
            return self.error_expr(loc);
        };
        let TypeKind::Function { ret, params } = &callee.ty.kind else {
            unreachable!()
        };
        let (ret, params) = (P::clone(ret), params.clone());
        if args.len() != params.len() {
            let name = self.ctx.spelling(name);
            self.diags.error(
                loc,
                format!(
                    "'{name}' expects {} argument(s), {} given",
                    params.len(),
                    args.len()
                ),
            );
            return self.error_expr(loc);
        }
        let args: Vec<P<Expr>> = args
            .into_iter()
            .zip(&params)
            .map(|(a, p)| self.convert_for_init(a, p))
            .collect();
        Expr::rvalue(ExprKind::Call { callee, args }, ret, loc)
    }

    /// Builds `base[index]` (an lvalue of the element type).
    pub fn act_on_subscript(
        &mut self,
        base: P<Expr>,
        index: P<Expr>,
        loc: SourceLocation,
    ) -> P<Expr> {
        let base = self.rvalue(base); // decays arrays
        let index = self.rvalue(index);
        let Some(elem) = base.ty.pointee().map(P::clone) else {
            self.diags
                .error(loc, "subscripted value is not an array or pointer");
            return self.error_expr(loc);
        };
        if !index.ty.is_integral_or_bool() {
            self.diags.error(loc, "array subscript is not an integer");
            return self.error_expr(loc);
        }
        Expr::lvalue(ExprKind::ArraySubscript(base, index), elem, loc)
    }

    /// Builds `c ? t : f`.
    pub fn act_on_conditional(
        &mut self,
        c: P<Expr>,
        t: P<Expr>,
        f: P<Expr>,
        loc: SourceLocation,
    ) -> P<Expr> {
        let c = self.to_bool(c);
        let t = self.rvalue(t);
        let f = self.rvalue(f);
        let ty = if *t.ty == *f.ty {
            P::clone(&t.ty)
        } else if t.ty.is_arithmetic() && f.ty.is_arithmetic() {
            self.common_arith_type(&t.ty, &f.ty)
        } else {
            self.diags
                .error(loc, "incompatible operand types in conditional expression");
            self.ctx.int()
        };
        let t = self.implicit_convert(t, &ty);
        let f = self.implicit_convert(f, &ty);
        P::new(Expr {
            kind: ExprKind::Conditional(c, t, f),
            ty,
            category: omplt_ast::ValueCategory::RValue,
            loc,
        })
    }

    /// Builds a `return` statement, converting to the return type.
    pub fn act_on_return(&mut self, e: Option<P<Expr>>, loc: SourceLocation) -> P<Stmt> {
        let ret_ty = self.current_fn.as_ref().map(|f| f.return_type());
        let e = match (e, ret_ty) {
            (Some(e), Some(rt)) if !rt.is_void() => Some(self.convert_for_init(e, &rt)),
            (Some(e), _) => {
                self.diags
                    .error(loc, "void function should not return a value");
                let _ = e;
                None
            }
            (None, Some(rt)) if !rt.is_void() => {
                self.diags
                    .error(loc, "non-void function should return a value");
                None
            }
            (None, _) => None,
        };
        Stmt::new(StmtKind::Return(e), loc)
    }
}

/// Where a file-scope initializer stops being a constant expression: the
/// first node that is not an arithmetic value computed from literals,
/// `sizeof` and operators that neither read nor write an object, or an
/// integer division or remainder by a divisor not known to be non-zero.
/// CodeGen folds what passes into the global's memory image.
fn not_constant(e: &P<Expr>) -> Option<SourceLocation> {
    if !e.ty.is_arithmetic() {
        return Some(e.loc);
    }
    match &e.kind {
        ExprKind::IntegerLiteral(_)
        | ExprKind::FloatingLiteral(_)
        | ExprKind::BoolLiteral(_)
        | ExprKind::SizeOf(_)
        | ExprKind::ConstantExpr { .. } => None,
        ExprKind::Paren(sub) => not_constant(sub),
        ExprKind::ImplicitCast(kind, sub) | ExprKind::ExplicitCast(kind, sub)
            if *kind != CastKind::LValueToRValue =>
        {
            not_constant(sub)
        }
        ExprKind::Unary(UnOp::Plus | UnOp::Minus | UnOp::BitNot | UnOp::LNot, sub) => {
            not_constant(sub)
        }
        ExprKind::Binary(op, l, r) if !op.is_assignment() && *op != BinOp::Comma => {
            let divides = matches!(op, BinOp::Div | BinOp::Rem) && e.ty.is_integral_or_bool();
            let by_zero = divides && r.eval_const_int().is_none_or(|v| v == 0);
            not_constant(l)
                .or_else(|| not_constant(r))
                .or(by_zero.then_some(r.loc))
        }
        ExprKind::Conditional(c, t, f) => not_constant(c)
            .or_else(|| not_constant(t))
            .or_else(|| not_constant(f)),
        _ => Some(e.loc),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_sema<R>(f: impl FnOnce(&mut Sema) -> R) -> (R, usize) {
        let diags = DiagnosticsEngine::new();
        let sm = RefCell::new(SourceManager::new());
        let mut sema = Sema::new(&diags, &sm, OpenMpCodegenMode::Classic, true);
        sema.scopes.push(); // function scope for local declarations
        let r = f(&mut sema);
        let n = diags.num_errors();
        (r, n)
    }

    #[test]
    fn arithmetic_conversion_int_double() {
        let ((ty, has_cast), errs) = with_sema(|s| {
            let loc = SourceLocation::INVALID;
            let i = s.ctx.int_lit(1, s.ctx.int(), loc);
            let d = Expr::rvalue(ExprKind::FloatingLiteral(2.5), s.ctx.double_ty(), loc);
            let e = s.act_on_binary(BinOp::Add, i, d, loc);
            let has_cast = matches!(
                &e.kind,
                ExprKind::Binary(_, l, _) if matches!(l.kind, ExprKind::ImplicitCast(CastKind::IntegralToFloating, _))
            );
            (e.ty.spelling(), has_cast)
        });
        assert_eq!(errs, 0);
        assert_eq!(ty, "double");
        assert!(has_cast);
    }

    #[test]
    fn assignment_requires_lvalue() {
        let (_, errs) = with_sema(|s| {
            let loc = SourceLocation::INVALID;
            let l = s.ctx.int_lit(1, s.ctx.int(), loc);
            let r = s.ctx.int_lit(2, s.ctx.int(), loc);
            s.act_on_binary(BinOp::Assign, l, r, loc)
        });
        assert_eq!(errs, 1);
    }

    #[test]
    fn undeclared_identifier_is_diagnosed() {
        let (_, errs) =
            with_sema(|s| s.act_on_decl_ref(s.ctx.intern("ghost"), SourceLocation::INVALID));
        assert_eq!(errs, 1);
    }

    #[test]
    fn var_decl_and_lookup() {
        let (name, errs) = with_sema(|s| {
            let loc = SourceLocation::INVALID;
            let init = s.ctx.int_lit(3, s.ctx.int(), loc);
            let x = s.ctx.intern("x");
            s.act_on_var_decl(x, s.ctx.int(), Some(init), false, loc);
            let r = s.act_on_decl_ref(x, loc);
            s.ctx.spelling(r.as_decl_ref().unwrap().name)
        });
        assert_eq!(errs, 0);
        assert_eq!(&*name, "x");
    }

    #[test]
    fn redefinition_is_diagnosed() {
        let (_, errs) = with_sema(|s| {
            let loc = SourceLocation::INVALID;
            let x = s.ctx.intern("x");
            s.act_on_var_decl(x, s.ctx.int(), None, false, loc);
            s.act_on_var_decl(x, s.ctx.int(), None, false, loc);
        });
        assert_eq!(errs, 1);
    }

    #[test]
    fn array_decays_in_subscript() {
        let (ty, errs) = with_sema(|s| {
            let loc = SourceLocation::INVALID;
            let arr_ty = Type::new(TypeKind::Array(s.ctx.double_ty(), 8));
            let a = s.act_on_var_decl(s.ctx.intern("a"), arr_ty, None, false, loc);
            let base = s.ctx.decl_ref(&a, loc);
            let idx = s.ctx.int_lit(2, s.ctx.int(), loc);
            let e = s.act_on_subscript(base, idx, loc);
            assert!(e.is_lvalue());
            e.ty.spelling()
        });
        assert_eq!(errs, 0);
        assert_eq!(ty, "double");
    }

    #[test]
    fn pointer_difference_is_ptrdiff() {
        let (ty, errs) = with_sema(|s| {
            let loc = SourceLocation::INVALID;
            let pty = s.ctx.pointer_to(s.ctx.double_ty());
            let p = s.act_on_var_decl(s.ctx.intern("p"), P::clone(&pty), None, false, loc);
            let q = s.act_on_var_decl(s.ctx.intern("q"), pty, None, false, loc);
            let e = s.act_on_binary(
                BinOp::Sub,
                s.ctx.decl_ref(&p, loc),
                s.ctx.decl_ref(&q, loc),
                loc,
            );
            e.ty.spelling()
        });
        assert_eq!(errs, 0);
        assert_eq!(ty, "long");
    }

    #[test]
    fn call_arity_checked() {
        let (_, errs) = with_sema(|s| {
            let loc = SourceLocation::INVALID;
            let f = s.ctx.intern("f");
            let params = vec![(s.ctx.intern("x"), s.ctx.int(), loc)];
            let decl = s.act_on_function_start(f, s.ctx.void(), params, loc);
            s.act_on_function_end(&decl, None);
            s.act_on_call(f, vec![], loc)
        });
        assert_eq!(errs, 1);
    }

    #[test]
    fn return_type_mismatch_diagnosed() {
        let (_, errs) = with_sema(|s| {
            let loc = SourceLocation::INVALID;
            let f = s.act_on_function_start(s.ctx.intern("v"), s.ctx.void(), vec![], loc);
            let lit = s.ctx.int_lit(1, s.ctx.int(), loc);
            let r = s.act_on_return(Some(lit), loc);
            s.act_on_function_end(&f, Some(r));
        });
        assert_eq!(errs, 1);
    }
}
