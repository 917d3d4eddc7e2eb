//! Textual IR printer (`.ll`-flavored), used by `ompltc --emit-ir`, golden
//! tests and debugging.

use crate::arith;
use crate::function::{BlockId, Function, InstId};
use crate::inst::{Inst, Terminator};
use crate::module::Module;
use crate::value::Value;
use std::fmt::Write as _;

/// Prints a whole module.
pub fn print_module(m: &Module) -> String {
    let mut out = String::new();
    for g in &m.globals {
        let _ = write!(out, "@{} = global [{} x i8] ", m.symbol_name(g.sym), g.size);
        if g.init.is_empty() {
            out.push_str("zeroinitializer\n");
        } else {
            // The leading elements of type `ty` the initial words hold.
            let words: Vec<String> = (g.init.iter())
                .map(|&w| {
                    let v = arith::decode(g.ty, w as u64);
                    if g.ty.is_float() {
                        format!("{:e}", f64::from_bits(v))
                    } else {
                        (v as i64).to_string()
                    }
                })
                .collect();
            let _ = writeln!(out, "{} {}", g.ty, words.join(", "));
        }
    }
    if !m.globals.is_empty() {
        out.push('\n');
    }
    for e in &m.externs {
        let ps: Vec<String> = e.params.iter().map(|t| t.to_string()).collect();
        let _ = writeln!(
            out,
            "declare {} @{}({})",
            e.ret,
            m.symbol_name(e.sym),
            ps.join(", ")
        );
    }
    if !m.externs.is_empty() {
        out.push('\n');
    }
    for f in &m.functions {
        out.push_str(&print_function(f, m));
        out.push('\n');
    }
    out
}

/// Prints one function.
pub fn print_function(f: &Function, m: &Module) -> String {
    let mut out = String::new();
    let ps: Vec<String> = f
        .params
        .iter()
        .enumerate()
        .map(|(i, t)| format!("{t} %arg{i}"))
        .collect();
    let _ = writeln!(out, "define {} @{}({}) {{", f.ret, f.name, ps.join(", "));
    let preds = f.predecessors();
    for (i, b) in f.blocks.iter().enumerate() {
        let id = BlockId(i as u32);
        // Every label carries a predecessor comment (LLVM `-print-after-all`
        // style), normalized so dumps diff cleanly: the entry block is bare,
        // any other predecessor-less block says so explicitly.
        let _ = write!(out, "{}:", block_label(f, id));
        if i != 0 {
            if preds[i].is_empty() {
                out.push_str("    ; no predecessors");
            } else {
                let ps: Vec<String> = preds[i]
                    .iter()
                    .map(|p| format!("%{}", block_label(f, *p)))
                    .collect();
                let _ = write!(out, "    ; preds = {}", ps.join(", "));
            }
        }
        out.push('\n');
        for &inst in &b.insts {
            let _ = writeln!(out, "  {}", print_inst(f, m, inst));
        }
        match &b.term {
            Some(t) => {
                let _ = writeln!(out, "  {}", print_term(f, t));
            }
            None => {
                let _ = writeln!(out, "  ; <no terminator>");
            }
        }
    }
    out.push_str("}\n");
    out
}

fn block_label(f: &Function, id: BlockId) -> String {
    format!("{}.{}", f.block(id).name, id.0)
}

fn val(_f: &Function, v: Value) -> String {
    match v {
        Value::Inst(id) => format!("%{}", id.0),
        Value::Arg(i) => format!("%arg{i}"),
        Value::ConstInt { val, .. } => val.to_string(),
        Value::ConstFloat { bits, .. } => format!("{:e}", f64::from_bits(bits)),
        Value::Global(s) => format!("@g{}", s.0),
        Value::FuncRef(s) => format!("@f{}", s.0),
        Value::Undef(_) => "undef".to_string(),
    }
}

fn tval(f: &Function, v: Value) -> String {
    format!("{} {}", f.value_type(v), val(f, v))
}

fn print_inst(f: &Function, m: &Module, id: InstId) -> String {
    let i = f.inst(id);
    let lhs = format!("%{}", id.0);
    match i {
        Inst::Alloca { ty, count, name } => {
            let n = if name.is_empty() {
                String::new()
            } else {
                format!("  ; {name}")
            };
            format!("{lhs} = alloca {ty}, i64 {count}{n}")
        }
        Inst::Load { ty, ptr } => format!("{lhs} = load {ty}, ptr {}", val(f, *ptr)),
        Inst::Store { val: v, ptr } => format!("store {}, ptr {}", tval(f, *v), val(f, *ptr)),
        Inst::Gep {
            ptr,
            index,
            elem_size,
        } => format!(
            "{lhs} = getelementptr i8, ptr {}, {} x {elem_size}",
            val(f, *ptr),
            tval(f, *index)
        ),
        Inst::Bin { op, lhs: l, rhs } => {
            format!(
                "{lhs} = {} {}, {}",
                op.mnemonic(),
                tval(f, *l),
                val(f, *rhs)
            )
        }
        Inst::Cmp { pred, lhs: l, rhs } => {
            let kind = if pred.is_float() { "fcmp" } else { "icmp" };
            format!(
                "{lhs} = {kind} {} {}, {}",
                pred.mnemonic(),
                tval(f, *l),
                val(f, *rhs)
            )
        }
        Inst::Cast { op, val: v, to } => {
            format!("{lhs} = {} {} to {to}", op.mnemonic(), tval(f, *v))
        }
        Inst::Select { cond, t, f: fv } => format!(
            "{lhs} = select {}, {}, {}",
            tval(f, *cond),
            tval(f, *t),
            tval(f, *fv)
        ),
        Inst::Phi { ty, incoming } => {
            let edges: Vec<String> = incoming
                .iter()
                .map(|(b, v)| format!("[ {}, %{} ]", val(f, *v), block_label(f, *b)))
                .collect();
            format!("{lhs} = phi {ty} {}", edges.join(", "))
        }
        Inst::Call { callee, args, ty } => {
            let a: Vec<String> = args
                .iter()
                .map(|v| match v {
                    Value::FuncRef(s) | Value::Global(s) => {
                        format!("ptr @{}", m.symbol_name(*s))
                    }
                    other => tval(f, *other),
                })
                .collect();
            let name = m.symbol_name(callee.0);
            if *ty == crate::types::IrType::Void {
                format!("call void @{name}({})", a.join(", "))
            } else {
                format!("{lhs} = call {ty} @{name}({})", a.join(", "))
            }
        }
    }
}

fn print_term(f: &Function, t: &Terminator) -> String {
    match t {
        Terminator::Br { target, loop_md } => {
            let md = loop_md
                .filter(|m| m.is_interesting())
                .map(|m| format!(", !llvm.loop {}", m.print()))
                .unwrap_or_default();
            format!("br label %{}{md}", block_label(f, *target))
        }
        Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
            loop_md,
        } => {
            let md = loop_md
                .filter(|m| m.is_interesting())
                .map(|m| format!(", !llvm.loop {}", m.print()))
                .unwrap_or_default();
            format!(
                "br {}, label %{}, label %{}{md}",
                tval(f, *cond),
                block_label(f, *then_bb),
                block_label(f, *else_bb)
            )
        }
        Terminator::Ret(Some(v)) => format!("ret {}", tval(f, *v)),
        Terminator::Ret(None) => "ret void".to_string(),
        Terminator::Unreachable => "unreachable".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IrBuilder;
    use crate::inst::CmpPred;
    use crate::types::IrType;

    #[test]
    fn prints_a_small_function() {
        let mut m = Module::new();
        let print_sym = m.intern("print_i64");
        let mut f = Function::new("main", vec![], IrType::I32);
        {
            let mut b = IrBuilder::new(&mut f);
            let p = b.alloca(IrType::I64, 1, "x");
            b.store(Value::i64(42), p);
            let v = b.load(IrType::I64, p);
            b.call(print_sym, vec![v], IrType::Void);
            b.ret(Some(Value::i32(0)));
        }
        m.add_function(f);
        let text = print_module(&m);
        assert!(text.contains("define i32 @main()"), "{text}");
        assert!(text.contains("alloca i64"), "{text}");
        assert!(text.contains("store i64 42"), "{text}");
        assert!(text.contains("call void @print_i64"), "{text}");
        assert!(text.contains("ret i32 0"), "{text}");
    }

    #[test]
    fn block_labels_carry_normalized_pred_comments() {
        let mut m = Module::new();
        let mut f = Function::new("g", vec![IrType::I64], IrType::Void);
        let orphan;
        {
            let mut b = IrBuilder::new(&mut f);
            let exit = b.create_block("exit");
            orphan = b.create_block("orphan");
            b.br(exit);
            b.set_insert_point(exit);
            b.ret(None);
            b.set_insert_point(orphan);
            b.ret(None);
        }
        let _ = orphan;
        m.add_function(f);
        let text = print_module(&m);
        // Entry: bare label, no comment (it has no predecessors by design).
        assert!(text.contains("entry.0:\n"), "{text}");
        // Reachable non-entry block: explicit preds list.
        assert!(text.contains("exit.1:    ; preds = %entry.0\n"), "{text}");
        // Unreachable non-entry block: explicit "no predecessors" marker
        // rather than silently looking like the entry.
        assert!(text.contains("orphan.2:    ; no predecessors\n"), "{text}");
    }

    #[test]
    fn prints_loop_metadata_on_latch() {
        use crate::metadata::{LoopMetadata, UnrollHint};
        let mut m = Module::new();
        let mut f = Function::new("k", vec![IrType::I64], IrType::Void);
        {
            let mut b = IrBuilder::new(&mut f);
            let header = b.create_block("header");
            b.br(header);
            b.set_insert_point(header);
            let c = b.cmp(CmpPred::Ult, Value::Arg(0), Value::i64(4));
            let _ = c;
            b.br_with_md(header, LoopMetadata::unroll(UnrollHint::Count(2)));
        }
        m.add_function(f);
        let text = print_module(&m);
        assert!(text.contains("!llvm.loop"), "{text}");
        assert!(text.contains("llvm.loop.unroll.count\", i32 2"), "{text}");
    }
}
