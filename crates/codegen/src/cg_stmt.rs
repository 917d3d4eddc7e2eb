//! Statement lowering (the base language; OpenMP directives dispatch into
//! `cg_omp_classic` / `cg_omp_irbuilder`).

use crate::codegen::{ir_type, Binding, FnCodegen};
use omplt_ast::{
    ASTContext, Attr, CxxForRangeData, Decl, LoopDirection, LoopNestLevel, OpenMpCodegenMode, Stmt,
    StmtKind, VarDecl, P,
};
use omplt_ir::{IrType, LoopMetadata, UnrollHint, Value};

impl FnCodegen<'_, '_> {
    /// Emits one statement at the current insertion point.
    pub(crate) fn emit_stmt(&mut self, s: &P<Stmt>) {
        // Stop emitting into a terminated block (code after return/break).
        if self.func.block(self.cur).term.is_some() {
            return;
        }
        match &s.kind {
            StmtKind::Compound(stmts) => {
                for c in stmts {
                    self.emit_stmt(c);
                }
            }
            StmtKind::Decl(decls) => {
                for d in decls {
                    if let Decl::Var(v) = d {
                        self.emit_var_decl(v, &[]);
                    }
                }
            }
            StmtKind::Expr(e) => {
                self.emit_rvalue(e);
            }
            StmtKind::Null => {}
            StmtKind::Return(e) => {
                let v = e.as_ref().map(|e| self.emit_rvalue(e));
                self.with_builder(|b| b.ret(v));
            }
            StmtKind::Break | StmtKind::Continue => {
                let (brk, cont) = *self
                    .loop_stack
                    .last()
                    .expect("Sema refuses a jump with no loop to leave");
                let to = if matches!(s.kind, StmtKind::Break) {
                    brk
                } else {
                    cont
                };
                self.with_builder(|b| b.br(to));
            }
            StmtKind::If { cond, then, els } => {
                let c = self.emit_rvalue(cond);
                let (then_bb, else_bb, join) = self.with_builder(|b| {
                    let then_bb = b.create_block("if.then");
                    let else_bb = b.create_block("if.else");
                    let join = b.create_block("if.end");
                    b.cond_br(c, then_bb, else_bb);
                    (then_bb, else_bb, join)
                });
                self.cur = then_bb;
                self.emit_stmt(then);
                self.branch_if_open(join);
                self.cur = else_bb;
                if let Some(e) = els {
                    self.emit_stmt(e);
                }
                self.branch_if_open(join);
                self.cur = join;
            }
            StmtKind::While { cond, body } => {
                let (cond_bb, body_bb, end) = self.with_builder(|b| {
                    let cond_bb = b.create_block("while.cond");
                    let body_bb = b.create_block("while.body");
                    let end = b.create_block("while.end");
                    b.br(cond_bb);
                    (cond_bb, body_bb, end)
                });
                self.cur = cond_bb;
                let c = self.emit_rvalue(cond);
                self.with_builder(|b| b.cond_br(c, body_bb, end));
                self.cur = body_bb;
                self.loop_stack.push((end, cond_bb));
                self.emit_stmt(body);
                self.loop_stack.pop();
                self.branch_if_open(cond_bb);
                self.cur = end;
            }
            StmtKind::DoWhile { body, cond } => {
                let (body_bb, cond_bb, end) = self.with_builder(|b| {
                    let body_bb = b.create_block("do.body");
                    let cond_bb = b.create_block("do.cond");
                    let end = b.create_block("do.end");
                    b.br(body_bb);
                    (body_bb, cond_bb, end)
                });
                self.cur = body_bb;
                self.loop_stack.push((end, cond_bb));
                self.emit_stmt(body);
                self.loop_stack.pop();
                self.branch_if_open(cond_bb);
                self.cur = cond_bb;
                let c = self.emit_rvalue(cond);
                self.with_builder(|b| b.cond_br(c, body_bb, end));
                self.cur = end;
            }
            StmtKind::For { .. } => self.emit_for(s, None),
            StmtKind::CxxForRange(d) => self.emit_range_for(d),
            StmtKind::Attributed { attrs, sub } => {
                // LoopHintAttr → llvm.loop.unroll.* metadata on the loop we
                // are about to emit (paper §2.1). The one producer is the
                // shadow AST of a consumed `unroll partial`, whose inner
                // loop is bounded by an `&&` and so is never a skeleton.
                let md = attrs
                    .first()
                    .map(|Attr::LoopUnrollCount(n)| LoopMetadata::unroll(UnrollHint::Count(*n)));
                match &sub.kind {
                    StmtKind::For { .. } => self.emit_for(sub, md),
                    _ => self.emit_stmt(sub),
                }
            }
            StmtKind::Captured(c) => {
                // A bare captured statement executes its body inline.
                self.emit_stmt(&c.decl.body);
            }
            StmtKind::OMPCanonicalLoop(_) => {
                // Outside a directive the canonical loop wrapper is
                // transparent.
                self.emit_loop_construct(s, 1);
            }
            StmtKind::OMP(d) => match self.opts.mode {
                OpenMpCodegenMode::Classic => self.emit_omp_classic(d),
                OpenMpCodegenMode::IrBuilder => self.emit_omp_irbuilder(d),
            },
        }
    }

    /// Declares a variable: (re)uses its slot and stores the initializer.
    /// `overrides` supplies pre-bound storage (canonical-loop Result params).
    pub(crate) fn emit_var_decl(
        &mut self,
        v: &P<VarDecl>,
        overrides: &[(omplt_ast::DeclId, Value)],
    ) {
        if let Some((_, addr)) = overrides.iter().find(|(id, _)| *id == v.id) {
            self.bindings.insert(v.id, Binding { addr: *addr });
            return;
        }
        let slot = self.slot_for(v);
        self.bindings.insert(v.id, Binding { addr: slot });
        if let Some(init) = &v.init {
            if v.by_ref {
                // Reference binding: store the referent's ADDRESS.
                let addr = self.emit_lvalue(init);
                self.with_builder(|b| b.store(addr, slot));
            } else if v.ty.element().is_some() {
                self.diags
                    .error(v.loc, "array initializers are not supported");
            } else {
                let val = self.emit_rvalue(init);
                self.with_builder(|b| b.store(val, slot));
            }
        }
    }

    /// Branches to `target` unless the current block is already terminated.
    pub(crate) fn branch_if_open(&mut self, target: omplt_ir::BlockId) {
        if self.func.block(self.cur).term.is_none() {
            self.with_builder(|b| b.br(target));
        }
    }

    /// Generic C for-loop lowering; `md` attaches loop metadata to the latch
    /// (LoopHintAttr).
    pub(crate) fn emit_for(&mut self, s: &P<Stmt>, md: Option<LoopMetadata>) {
        let StmtKind::For {
            init,
            cond,
            inc,
            body,
        } = &s.kind
        else {
            unreachable!()
        };
        if let Some(i) = init {
            self.emit_stmt(i);
        }
        let (cond_bb, body_bb, inc_bb, end) = self.with_builder(|b| {
            let cond_bb = b.create_block("for.cond");
            let body_bb = b.create_block("for.body");
            let inc_bb = b.create_block("for.inc");
            let end = b.create_block("for.end");
            b.br(cond_bb);
            (cond_bb, body_bb, inc_bb, end)
        });
        self.cur = cond_bb;
        match cond {
            Some(c) => {
                let cv = self.emit_rvalue(c);
                self.with_builder(|b| b.cond_br(cv, body_bb, end));
            }
            None => self.with_builder(|b| b.br(body_bb)),
        }
        self.cur = body_bb;
        self.loop_stack.push((end, inc_bb));
        self.emit_stmt(body);
        self.loop_stack.pop();
        self.branch_if_open(inc_bb);
        self.cur = inc_bb;
        if let Some(i) = inc {
            self.emit_rvalue(i);
        }
        // The latch: carries the loop metadata.
        self.with_builder(|b| match md {
            Some(m) => b.br_with_md(cond_bb, m),
            None => b.br(cond_bb),
        });
        self.cur = end;
    }

    /// Lowers the loop of `level` — its prologue, its `init` statement and
    /// the canonical form Sema established for it — through the canonical
    /// skeleton with `md` on the latch, so the mid-end `LoopUnroll` pass can
    /// recognize it without ScalarEvolution-style analysis — this is what
    /// makes the deferral of an unconsumed `unroll` ("no duplication takes
    /// place until that point", paper §2.1) actually fire.
    pub(crate) fn emit_canonical_for(&mut self, level: &LoopNestLevel, md: LoopMetadata) {
        let a = &level.analysis;
        for p in &level.prologue {
            self.emit_stmt(p);
        }
        if let StmtKind::For { init: Some(i), .. } = &level.loop_stmt.kind {
            self.emit_stmt(i);
        }
        // Loop-invariant values, evaluated once in the preheader position:
        // the variable's start value, the step, and the trip count.
        let start = self.load_var(&a.iter_var);
        let step = self.emit_rvalue(&a.step);
        let tc = match a.const_trip_count() {
            Some(n) => Value::int(ir_type(&a.logical_ty), n as i64),
            // A throwaway context is safe here: the distance expression is
            // built of expression nodes only (no new declarations), over
            // the original `VarDecl`s.
            None => self.emit_rvalue(&a.distance_expr(&ASTContext::new())),
        };
        let var_ir = ir_type(&a.iter_var.ty);
        let is_ptr = a.iter_var.ty.is_pointer();
        let elem = a.iter_var.ty.pointee().map_or(1, |t| t.size_of()).max(1);
        let down = a.direction == LoopDirection::Down;

        let cli = {
            let mut b = omplt_ir::IrBuilder::new(&mut self.func);
            b.set_insert_point(self.cur);
            let cli = omplt_ompirb::create_canonical_loop_skeleton(&mut b, tc, "hint", true);
            cli.set_metadata(
                b.func_mut(),
                LoopMetadata {
                    is_canonical: true,
                    ..md
                },
            );
            cli
        };
        self.cur = cli.body;
        // var = start ± iv * step, then the body.
        let val = self.with_builder(|b| {
            if is_ptr {
                let iv64 = b.int_resize(cli.iv(), IrType::I64, false);
                let scaled = b.mul(iv64, step);
                let off = if down {
                    b.sub(Value::i64(0), scaled)
                } else {
                    scaled
                };
                b.gep(start, off, elem)
            } else {
                let ivv = b.int_resize(cli.iv(), var_ir, false);
                let stepv = b.int_resize(step, var_ir, true);
                let scaled = b.mul(ivv, stepv);
                if down {
                    b.sub(start, scaled)
                } else {
                    b.add(start, scaled)
                }
            }
        });
        self.store_var(&a.iter_var, val);
        self.loop_stack.push((cli.after, cli.latch));
        self.emit_stmt(&LoopNestLevel::innermost_body(std::slice::from_ref(level)));
        self.loop_stack.pop();
        self.branch_if_open(cli.latch);
        self.cur = cli.after;
    }

    /// Lowers a range-based for through its de-sugared form (paper Fig.
    /// lst:rangesugar).
    fn emit_range_for(&mut self, d: &P<CxxForRangeData>) {
        self.emit_stmt(&d.range_stmt);
        self.emit_stmt(&d.begin_stmt);
        self.emit_stmt(&d.end_stmt);
        let (cond_bb, body_bb, inc_bb, end) = self.with_builder(|b| {
            let cond_bb = b.create_block("range.cond");
            let body_bb = b.create_block("range.body");
            let inc_bb = b.create_block("range.inc");
            let end = b.create_block("range.end");
            b.br(cond_bb);
            (cond_bb, body_bb, inc_bb, end)
        });
        self.cur = cond_bb;
        let c = self.emit_rvalue(&d.cond);
        self.with_builder(|b| b.cond_br(c, body_bb, end));
        self.cur = body_bb;
        // Bind the loop user variable for this iteration.
        self.emit_stmt(&d.loop_var_stmt);
        self.loop_stack.push((end, inc_bb));
        self.emit_stmt(&d.body);
        self.loop_stack.pop();
        self.branch_if_open(inc_bb);
        self.cur = inc_bb;
        self.emit_rvalue(&d.inc);
        self.with_builder(|b| b.br(cond_bb));
        self.cur = end;
    }

    /// Loads the current value of a bound variable (helper for OpenMP
    /// lowering).
    pub(crate) fn load_var(&mut self, v: &P<VarDecl>) -> Value {
        let addr = self.bindings.get(&v.id).map(|b| b.addr).unwrap_or_else(|| {
            let s = self.slot_for(v);
            self.bindings.insert(v.id, Binding { addr: s });
            s
        });
        let ty = ir_type(&v.ty);
        self.with_builder(|b| b.load(ty, addr))
    }

    /// Stores into a bound variable.
    pub(crate) fn store_var(&mut self, v: &P<VarDecl>, val: Value) {
        let addr = self.bindings.get(&v.id).map(|b| b.addr).unwrap_or_else(|| {
            let s = self.slot_for(v);
            self.bindings.insert(v.id, Binding { addr: s });
            s
        });
        self.with_builder(|b| b.store(val, addr));
    }

    /// Allocates an anonymous scratch slot.
    pub(crate) fn scratch(&mut self, ty: IrType, name: &str) -> Value {
        let entry = self.func.entry();
        self.func.push_inst(
            entry,
            omplt_ir::Inst::Alloca {
                ty,
                count: 1,
                name: name.to_string(),
            },
        )
    }
}
