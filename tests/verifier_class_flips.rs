//! The bytecode verifier's reject set on real images, pinned: every
//! register of every image the examples compile to is given each class it
//! does not have (and each vector register each other legal width), and
//! the ops the verifier then reports are compared with
//! `tests/verifier_class_flips.golden`.
//!
//! A flip moves no def, use or jump target, so only the class, width and
//! call-boundary rules can fire, and the record holds `(function, op)`
//! pairs, not messages: the golden pins *what* is refused, whatever the
//! wording. The images are those of both lowering paths with `--opt` at
//! widths 0 and 4 and without `--opt` at width 0.
//!
//! The current record is written to `verifier_class_flips.txt` in the
//! system's temporary directory on every run; a deliberate change to the
//! reject set copies it over the golden and says why.

use omplt_vm::{
    decode, verify_function, CallTarget, Op, RegClass, VmFunction, VmModule, MAX_LANES,
};
use std::fmt::Write;
use std::path::Path;
use std::process::Command;

/// `(name, flags)` of each compile whose image is mutated.
const COMPILES: [(&str, &[&str]); 6] = [
    ("classic.opt.vw0", &["--opt", "--vector-width=0"]),
    ("classic.opt.vw4", &["--opt", "--vector-width=4"]),
    ("classic.vw0", &["--vector-width=0"]),
    (
        "irbuilder.opt.vw0",
        &["--enable-irbuilder", "--opt", "--vector-width=0"],
    ),
    (
        "irbuilder.opt.vw4",
        &["--enable-irbuilder", "--opt", "--vector-width=4"],
    ),
    ("irbuilder.vw0", &["--enable-irbuilder", "--vector-width=0"]),
];

/// The OMPLTBC image `ompltc flags… src` writes, decoded.
fn image(src: &Path, flags: &[&str], tag: &str) -> VmModule {
    let dir = std::env::temp_dir().join(format!("omplt-class-flips-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bin = dir.join(format!("{tag}.bc"));
    let out = Command::new(env!("CARGO_BIN_EXE_ompltc"))
        .args(flags)
        .arg("--backend=vm")
        .arg(format!("--emit-bytecode-bin={}", bin.display()))
        .arg(src)
        .output()
        .expect("ompltc runs");
    assert!(out.status.success(), "{tag}: {out:?}");
    let bytes = std::fs::read(&bin).unwrap();
    let _ = std::fs::remove_file(&bin);
    decode(&bytes).unwrap_or_else(|e| panic!("{tag}: {e}"))
}

/// The ops verifying `m` reports, sorted: those of function `fi`, whose
/// tables were mutated, as `pc`, and those of every function `g` that calls
/// it directly (a call's boundary reads its callee's tables) as `fg@pc`.
/// No other function's verdict can move.
fn reported(m: &VmModule, fi: usize) -> String {
    let calls_fi = |g: &VmFunction| {
        g.ops.iter().any(|op| {
            matches!(*op, Op::Call { target, .. }
                if g.call_targets[target as usize] == CallTarget::Bytecode(fi as u32))
        })
    };
    let mut at: Vec<(usize, usize)> = Vec::new();
    for (gi, g) in m.funcs.iter().enumerate() {
        if gi == fi || calls_fi(g) {
            at.extend(verify_function(g, &m.funcs).iter().map(|e| (gi, e.at)));
        }
    }
    at.sort_unstable();
    at.dedup();
    let at: Vec<String> = at
        .iter()
        .map(|&(gi, pc)| match gi == fi {
            true => pc.to_string(),
            false => format!("f{gi}@{pc}"),
        })
        .collect();
    match at.is_empty() {
        true => "-".to_string(),
        false => at.join(" "),
    }
}

/// One change to a function's register tables.
#[derive(Clone, Copy)]
enum Flip {
    /// Scalar register `r` gets class `c`.
    Class(u16, RegClass),
    /// Vector register `v` gets lane class `c`.
    VClass(u16, RegClass),
    /// Vector register `v` gets width `w`.
    Width(u16, u8),
}

impl Flip {
    fn apply(self, f: &mut VmFunction) {
        match self {
            Flip::Class(r, c) => f.reg_class[r as usize] = c,
            Flip::VClass(v, c) => f.vreg_class[v as usize] = c,
            Flip::Width(v, w) => f.vreg_width[v as usize] = w,
        }
    }

    /// What the register becomes: `float`, or `x2` for a width.
    fn to(self) -> String {
        match self {
            Flip::Class(_, c) | Flip::VClass(_, c) => c.to_string(),
            Flip::Width(_, w) => format!("x{w}"),
        }
    }
}

/// The lines of function `fi`'s mutants: per register, each flip and the
/// ops verifying the mutant reports, flips that report the same ops on one
/// line (`r4 float ptr: 4 9 10`).
fn flips(m: &VmModule, fi: usize, out: &mut String) {
    let f = &m.funcs[fi];
    let _ = writeln!(out, "## f{fi} {}", f.name);
    let others = |have: RegClass| RegClass::ALL.iter().copied().filter(move |&c| c != have);
    let mut registers: Vec<(String, Vec<Flip>)> = Vec::new();
    for (r, &have) in f.reg_class.iter().enumerate() {
        let flips = others(have).map(|c| Flip::Class(r as u16, c)).collect();
        registers.push((format!("r{r}"), flips));
    }
    for (v, (&have, &width)) in f.vreg_class.iter().zip(&f.vreg_width).enumerate() {
        let v = v as u16;
        let classes = others(have).map(|c| Flip::VClass(v, c));
        let widths = (2..=MAX_LANES as u8)
            .filter(|&w| w != width)
            .map(|w| Flip::Width(v, w));
        registers.push((format!("v{v}"), classes.chain(widths).collect()));
    }
    for (reg, flips) in registers {
        let mut lines: Vec<(String, String)> = Vec::new();
        for flip in flips {
            let mut mutant = m.clone();
            flip.apply(&mut mutant.funcs[fi]);
            let report = reported(&mutant, fi);
            match lines.iter_mut().find(|l| l.1 == report) {
                Some(line) => line.0 = format!("{} {}", line.0, flip.to()),
                None => lines.push((flip.to(), report)),
            }
        }
        for (to, report) in lines {
            let _ = writeln!(out, "{reg} {to}: {report}");
        }
    }
}

#[test]
fn class_and_width_flips_are_refused_as_pinned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources: Vec<_> = std::fs::read_dir(root.join("examples/c"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    sources.sort();
    let mut record = String::new();
    for src in &sources {
        let stem = src.file_stem().unwrap().to_string_lossy();
        for (name, flags) in COMPILES {
            let tag = format!("{stem}.{name}");
            let m = image(src, flags, &tag);
            let clean: Vec<_> = (0..m.funcs.len())
                .flat_map(|i| verify_function(&m.funcs[i], &m.funcs))
                .collect();
            assert_eq!(clean, vec![], "{tag}: the compiled image verifies");
            let _ = writeln!(record, "# {tag}");
            for fi in 0..m.funcs.len() {
                flips(&m, fi, &mut record);
            }
        }
    }
    let _ = std::fs::remove_dir(
        std::env::temp_dir().join(format!("omplt-class-flips-{}", std::process::id())),
    );
    let now = std::env::temp_dir().join("verifier_class_flips.txt");
    std::fs::write(&now, &record).unwrap();
    let golden =
        std::fs::read_to_string(root.join("tests/verifier_class_flips.golden")).unwrap_or_default();
    let differ: Vec<String> = golden
        .lines()
        .zip(record.lines())
        .filter(|(g, n)| g != n)
        .take(10)
        .map(|(g, n)| format!("golden: {g}\n   now: {n}"))
        .collect();
    assert!(
        differ.is_empty() && golden.lines().count() == record.lines().count(),
        "the reject set moved ({} golden lines, {} now; the record is {}):\n{}",
        golden.lines().count(),
        record.lines().count(),
        now.display(),
        differ.join("\n")
    );
}
