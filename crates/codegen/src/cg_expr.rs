//! Expression lowering.

use crate::codegen::{ir_type, Binding, FnCodegen};
use omplt_ast::{BinOp, CastKind, Expr, ExprKind, Type, UnOp, P};
use omplt_ir::{BinOpKind, CastOp, CmpPred, IrType, Value};

impl FnCodegen<'_, '_> {
    /// Emits `e` as an address.
    pub(crate) fn emit_lvalue(&mut self, e: &P<Expr>) -> Value {
        match &e.kind {
            ExprKind::DeclRef(v) => {
                let b = self.bindings.get(&v.id).copied().unwrap_or_else(|| {
                    // Unbound: a global, or a late-bound variable slot.
                    if let Some(&sym) = self.globals.get(&v.id) {
                        Binding {
                            addr: Value::Global(sym),
                        }
                    } else {
                        let addr = self.slot_for(v);
                        self.bindings.insert(v.id, Binding { addr });
                        Binding { addr }
                    }
                });
                if v.by_ref {
                    // Reference variables store the referent's address.
                    self.with_builder(|bl| bl.load(IrType::Ptr, b.addr))
                } else {
                    b.addr
                }
            }
            ExprKind::Unary(UnOp::Deref, sub) => self.emit_rvalue(sub),
            ExprKind::ArraySubscript(base, idx) => {
                let b = self.emit_rvalue(base);
                let i = self.emit_rvalue(idx);
                let i = self.gep_index(i, &idx.ty);
                let elem = base.ty.pointee().map_or(1, |t| t.size_of()).max(1);
                self.with_builder(|bl| bl.gep(b, i, elem))
            }
            ExprKind::Paren(sub) | ExprKind::ImplicitCast(CastKind::NoOp, sub) => {
                self.emit_lvalue(sub)
            }
            other => {
                self.diags.error(
                    e.loc,
                    format!("expression is not an lvalue in codegen: {other:?}"),
                );
                Value::Undef(IrType::Ptr)
            }
        }
    }

    /// `i`, an index of C type `ty`, as `gep` reads it. `gep` sign-extends
    /// its index, so an unsigned index narrower than `int` is zero-extended
    /// to `int` first — its promotion in C, and what Clang's
    /// `EmitArraySubscriptExpr` does by widening an index by its own
    /// signedness.
    fn gep_index(&mut self, i: Value, ty: &Type) -> Value {
        if ty.is_unsigned_int() && ir_type(ty).bits() < 32 {
            self.with_builder(|b| b.int_resize(i, IrType::I32, false))
        } else {
            i
        }
    }

    /// Emits `e` as a value.
    pub(crate) fn emit_rvalue(&mut self, e: &P<Expr>) -> Value {
        match &e.kind {
            ExprKind::IntegerLiteral(v) => Value::int(ir_type(&e.ty), *v as i64),
            ExprKind::BoolLiteral(b) => Value::bool(*b),
            ExprKind::FloatingLiteral(v) => Value::float(ir_type(&e.ty), *v),
            ExprKind::DeclRef(_) => {
                // Bare lvalue used as rvalue (no LValueToRValue wrapper —
                // happens in transformed ASTs): load.
                let addr = self.emit_lvalue(e);
                let ty = ir_type(&e.ty);
                self.with_builder(|b| b.load(ty, addr))
            }
            ExprKind::ImplicitCast(kind, sub) | ExprKind::ExplicitCast(kind, sub) => {
                self.emit_cast(*kind, sub, &e.ty)
            }
            ExprKind::Paren(sub) => self.emit_rvalue(sub),
            ExprKind::ConstantExpr { value, .. } => Value::int(ir_type(&e.ty), *value as i64),
            ExprKind::SizeOf(t) => Value::int(ir_type(&e.ty), t.size_of() as i64),
            ExprKind::Unary(op, sub) => self.emit_unary(*op, sub, &e.ty),
            ExprKind::Binary(op, l, r) => self.emit_binary(*op, l, r, &e.ty, e),
            ExprKind::ArraySubscript(..) => {
                let addr = self.emit_lvalue(e);
                let ty = ir_type(&e.ty);
                self.with_builder(|b| b.load(ty, addr))
            }
            ExprKind::Conditional(c, t, f) => {
                let cv = self.emit_rvalue(c);
                if let Some(k) = cv.as_const_int().filter(|_| self.initializer) {
                    return self.emit_rvalue(if k != 0 { t } else { f });
                }
                let ty = ir_type(&e.ty);
                let (then_bb, else_bb, join) = self.with_builder(|b| {
                    let then_bb = b.create_block("cond.true");
                    let else_bb = b.create_block("cond.false");
                    let join = b.create_block("cond.end");
                    b.cond_br(cv, then_bb, else_bb);
                    (then_bb, else_bb, join)
                });
                self.cur = then_bb;
                let tv = self.emit_rvalue(t);
                let t_end = self.cur;
                self.with_builder(|b| b.br(join));
                self.cur = else_bb;
                let fv = self.emit_rvalue(f);
                let f_end = self.cur;
                self.with_builder(|b| b.br(join));
                self.cur = join;
                self.with_builder(|b| {
                    let (v, phi) = b.phi(ty);
                    b.add_phi_incoming(phi, t_end, tv);
                    b.add_phi_incoming(phi, f_end, fv);
                    v
                })
            }
            ExprKind::Call { callee, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.emit_rvalue(a));
                }
                let sym = self.module.intern(self.idents.get(callee.name));
                let ret = ir_type(&callee.return_type());
                self.with_builder(|b| b.call(sym, vals, ret))
            }
        }
    }

    fn emit_cast(&mut self, kind: CastKind, sub: &P<Expr>, to: &P<Type>) -> Value {
        match kind {
            CastKind::LValueToRValue => {
                let addr = self.emit_lvalue(sub);
                let ty = ir_type(&sub.ty);
                self.with_builder(|b| b.load(ty, addr))
            }
            CastKind::ArrayToPointerDecay => self.emit_lvalue(sub),
            CastKind::FunctionToPointerDecay | CastKind::NoOp => self.emit_rvalue(sub),
            CastKind::ToVoid => {
                self.emit_rvalue(sub);
                Value::Undef(IrType::I64)
            }
            CastKind::IntegralCast | CastKind::BooleanToIntegral => {
                let v = self.emit_rvalue(sub);
                // C's `bool` is unsigned: it widens with `zext`.
                let signed = sub.ty.is_signed_int();
                let to_ty = ir_type(to);
                self.with_builder(|b| b.int_resize(v, to_ty, signed))
            }
            CastKind::IntegralToBoolean => {
                let v = self.emit_rvalue(sub);
                let ty = ir_type(&sub.ty);
                self.with_builder(|b| {
                    if ty.is_float() {
                        b.cmp(CmpPred::FNe, v, Value::float(ty, 0.0))
                    } else {
                        b.cmp(CmpPred::Ne, v, Value::int(ty, 0))
                    }
                })
            }
            CastKind::IntegralToFloating => {
                let v = self.emit_rvalue(sub);
                let signed = sub.ty.is_signed_int();
                let to_ty = ir_type(to);
                self.with_builder(|b| {
                    b.cast(
                        if signed {
                            CastOp::SiToFp
                        } else {
                            CastOp::UiToFp
                        },
                        v,
                        to_ty,
                    )
                })
            }
            CastKind::FloatingToIntegral => {
                let v = self.emit_rvalue(sub);
                let signed = to.is_signed_int();
                let to_ty = ir_type(to);
                self.with_builder(|b| {
                    b.cast(
                        if signed {
                            CastOp::FpToSi
                        } else {
                            CastOp::FpToUi
                        },
                        v,
                        to_ty,
                    )
                })
            }
            CastKind::FloatingCast => {
                let v = self.emit_rvalue(sub);
                let to_ty = ir_type(to);
                let from = ir_type(&sub.ty);
                self.with_builder(|b| {
                    if to_ty.size() < from.size() {
                        b.cast(CastOp::FpTrunc, v, to_ty)
                    } else {
                        b.cast(CastOp::FpExt, v, to_ty)
                    }
                })
            }
            CastKind::PointerToIntegral => {
                let v = self.emit_rvalue(sub);
                let to_ty = ir_type(to);
                self.with_builder(|b| b.cast(CastOp::PtrToInt, v, to_ty))
            }
            CastKind::IntegralToPointer => {
                let v = self.emit_rvalue(sub);
                self.with_builder(|b| b.cast(CastOp::IntToPtr, v, IrType::Ptr))
            }
        }
    }

    fn emit_unary(&mut self, op: UnOp, sub: &P<Expr>, ty: &P<Type>) -> Value {
        match op {
            UnOp::Plus => self.emit_rvalue(sub),
            UnOp::Minus => {
                let v = self.emit_rvalue(sub);
                let t = ir_type(ty);
                self.with_builder(|b| {
                    // `-0.0 - x` is `x` with its sign flipped, a zero's too.
                    if t.is_float() {
                        b.bin(BinOpKind::FSub, Value::float(t, -0.0), v)
                    } else {
                        b.sub(Value::int(t, 0), v)
                    }
                })
            }
            UnOp::BitNot => {
                let v = self.emit_rvalue(sub);
                let t = ir_type(ty);
                self.with_builder(|b| b.bin(BinOpKind::Xor, v, Value::int(t, -1)))
            }
            UnOp::LNot => {
                let v = self.emit_rvalue(sub);
                self.with_builder(|b| b.cmp(CmpPred::Eq, v, Value::bool(false)))
            }
            UnOp::Deref => {
                let addr = self.emit_rvalue(sub);
                let t = ir_type(ty);
                self.with_builder(|b| b.load(t, addr))
            }
            UnOp::AddrOf => self.emit_lvalue(sub),
            UnOp::PreInc | UnOp::PreDec | UnOp::PostInc | UnOp::PostDec => {
                let addr = self.emit_lvalue(sub);
                let t = ir_type(&sub.ty);
                let is_ptr = sub.ty.is_pointer();
                let elem = sub.ty.pointee().map_or(1, |p| p.size_of()).max(1);
                self.with_builder(|b| {
                    let old = b.load(t, addr);
                    let delta: i64 = if matches!(op, UnOp::PreInc | UnOp::PostInc) {
                        1
                    } else {
                        -1
                    };
                    let new = if is_ptr {
                        b.gep(old, Value::i64(delta), elem)
                    } else if t.is_float() {
                        b.bin(BinOpKind::FAdd, old, Value::float(t, delta as f64))
                    } else {
                        b.add(old, Value::int(t, delta))
                    };
                    b.store(new, addr);
                    if op.is_postfix() {
                        old
                    } else {
                        new
                    }
                })
            }
        }
    }

    fn emit_binary(
        &mut self,
        op: BinOp,
        l: &P<Expr>,
        r: &P<Expr>,
        ty: &P<Type>,
        whole: &P<Expr>,
    ) -> Value {
        // Assignments.
        if op == BinOp::Assign {
            let addr = self.emit_lvalue(l);
            let v = self.emit_rvalue(r);
            self.with_builder(|b| b.store(v, addr));
            return v;
        }
        if let Some(base) = op.compound_base() {
            let addr = self.emit_lvalue(l);
            let lty = ir_type(&l.ty);
            let old = self.with_builder(|b| b.load(lty, addr));
            let rv = self.emit_rvalue(r);
            let new = self.emit_arith(base, old, rv, &l.ty, &r.ty, whole);
            self.with_builder(|b| b.store(new, addr));
            return new;
        }
        match op {
            BinOp::Comma => {
                self.emit_rvalue(l);
                self.emit_rvalue(r)
            }
            BinOp::LAnd | BinOp::LOr => {
                // Short-circuit evaluation.
                let lv = self.emit_rvalue(l);
                if let Some(k) = lv.as_const_int().filter(|_| self.initializer) {
                    return if (k != 0) == (op == BinOp::LAnd) {
                        self.emit_rvalue(r)
                    } else {
                        lv
                    };
                }
                let l_end = self.cur;
                let (rhs_bb, join) = self.with_builder(|b| {
                    let rhs_bb = b.create_block("sc.rhs");
                    let join = b.create_block("sc.end");
                    if op == BinOp::LAnd {
                        b.cond_br(lv, rhs_bb, join);
                    } else {
                        b.cond_br(lv, join, rhs_bb);
                    }
                    (rhs_bb, join)
                });
                self.cur = rhs_bb;
                let rv = self.emit_rvalue(r);
                let r_end = self.cur;
                self.with_builder(|b| b.br(join));
                self.cur = join;
                let short_val = Value::bool(op == BinOp::LOr);
                self.with_builder(|b| {
                    let (v, phi) = b.phi(IrType::I1);
                    b.add_phi_incoming(phi, l_end, short_val);
                    b.add_phi_incoming(phi, r_end, rv);
                    v
                })
            }
            _ => {
                let lv = self.emit_rvalue(l);
                let rv = self.emit_rvalue(r);
                if op.is_comparison() {
                    return self.emit_compare(op, lv, rv, &l.ty);
                }
                let _ = ty;
                self.emit_arith(op, lv, rv, &l.ty, &r.ty, whole)
            }
        }
    }

    fn emit_compare(&mut self, op: BinOp, lv: Value, rv: Value, operand_ty: &P<Type>) -> Value {
        let signed = operand_ty.is_signed_int();
        let float = operand_ty.is_floating();
        let pred = match (op, float, signed) {
            (BinOp::Eq, true, _) => CmpPred::FEq,
            (BinOp::Ne, true, _) => CmpPred::FNe,
            (BinOp::Lt, true, _) => CmpPred::FLt,
            (BinOp::Le, true, _) => CmpPred::FLe,
            (BinOp::Gt, true, _) => CmpPred::FGt,
            (BinOp::Ge, true, _) => CmpPred::FGe,
            (BinOp::Eq, _, _) => CmpPred::Eq,
            (BinOp::Ne, _, _) => CmpPred::Ne,
            (BinOp::Lt, _, true) => CmpPred::Slt,
            (BinOp::Le, _, true) => CmpPred::Sle,
            (BinOp::Gt, _, true) => CmpPred::Sgt,
            (BinOp::Ge, _, true) => CmpPred::Sge,
            (BinOp::Lt, _, false) => CmpPred::Ult,
            (BinOp::Le, _, false) => CmpPred::Ule,
            (BinOp::Gt, _, false) => CmpPred::Ugt,
            (BinOp::Ge, _, false) => CmpPred::Uge,
            _ => unreachable!("non-comparison op"),
        };
        self.with_builder(|b| b.cmp(pred, lv, rv))
    }

    fn emit_arith(
        &mut self,
        op: BinOp,
        lv: Value,
        rv: Value,
        lty: &P<Type>,
        rty: &P<Type>,
        whole: &P<Expr>,
    ) -> Value {
        // Pointer arithmetic (C semantics: element-scaled).
        if lty.is_pointer() {
            let elem = lty.pointee().map_or(1, |t| t.size_of()).max(1);
            let rv = self.gep_index(rv, rty);
            match op {
                BinOp::Add => return self.with_builder(|b| b.gep(lv, rv, elem)),
                BinOp::Sub if rty.is_pointer() => {
                    // (p - q) / elem_size → element count
                    return self.with_builder(|b| {
                        let pi = b.cast(CastOp::PtrToInt, lv, IrType::I64);
                        let qi = b.cast(CastOp::PtrToInt, rv, IrType::I64);
                        let diff = b.sub(pi, qi);
                        b.sdiv(diff, Value::i64(elem as i64))
                    });
                }
                BinOp::Sub => {
                    return self.with_builder(|b| {
                        let neg = b.sub(Value::i64(0), rv);
                        b.gep(lv, neg, elem)
                    });
                }
                _ => {
                    self.diags
                        .error(whole.loc, "unsupported pointer arithmetic");
                    return Value::Undef(IrType::Ptr);
                }
            }
        }
        let float = lty.is_floating();
        let signed = lty.is_signed_int();
        let kind = match (op, float, signed) {
            (BinOp::Add, true, _) => BinOpKind::FAdd,
            (BinOp::Sub, true, _) => BinOpKind::FSub,
            (BinOp::Mul, true, _) => BinOpKind::FMul,
            (BinOp::Div, true, _) => BinOpKind::FDiv,
            (BinOp::Rem, true, _) => BinOpKind::FRem,
            (BinOp::Add, _, _) => BinOpKind::Add,
            (BinOp::Sub, _, _) => BinOpKind::Sub,
            (BinOp::Mul, _, _) => BinOpKind::Mul,
            (BinOp::Div, _, true) => BinOpKind::SDiv,
            (BinOp::Div, _, false) => BinOpKind::UDiv,
            (BinOp::Rem, _, true) => BinOpKind::SRem,
            (BinOp::Rem, _, false) => BinOpKind::URem,
            (BinOp::Shl, _, _) => BinOpKind::Shl,
            (BinOp::Shr, _, true) => BinOpKind::AShr,
            (BinOp::Shr, _, false) => BinOpKind::LShr,
            (BinOp::BitAnd, _, _) => BinOpKind::And,
            (BinOp::BitOr, _, _) => BinOpKind::Or,
            (BinOp::BitXor, _, _) => BinOpKind::Xor,
            _ => {
                self.diags
                    .error(whole.loc, format!("unsupported operator {op:?} in codegen"));
                return Value::Undef(IrType::I64);
            }
        };
        self.with_builder(|b| b.bin(kind, lv, rv))
    }
}
