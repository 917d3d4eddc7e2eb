//! The layering is held by a test. The paper's Fig. 1 makes the AST the one
//! hand-off between Sema and CodeGen: Sema resolves and analyses a
//! directive's loops once and leaves what it found on the node
//! (`OMPDirective::nest`); CodeGen and the analyses read it. Two things
//! would quietly undo that — a crate edge back to `omplt-sema`, and a
//! private `ASTContext` / `DiagnosticsEngine` to re-run the analysis with —
//! so both are pinned here against the manifests and the shipped sources.
//! Sema is also the one judge of the source: a rule CodeGen enforced on its
//! own would let `--syntax-only` accept what a compile refuses, so the
//! texts of the rules that once lived there are pinned to Sema.

mod scan;

use std::path::Path;

/// The crate DAG DESIGN.md §2 prints: each crate's `omplt-*`
/// `[dependencies]`, without the `omplt-` prefix. Dev-dependencies are the
/// tests' business. Neither `codegen` nor `analysis` has an edge to `sema`;
/// `sema` reads the runtime's rows through its edge to `ir`.
const DAG: [(&str, &[&str]); 15] = [
    ("analysis", &["ast", "source", "trace"]),
    ("ast", &["source", "trace"]),
    (
        "codegen",
        &["ast", "fault", "ir", "ompirb", "source", "trace"],
    ),
    ("fault", &["trace"]),
    ("interp", &["fault", "ir", "trace"]),
    ("ir", &["trace"]),
    ("lex", &["fault", "source", "trace"]),
    ("midend", &["fault", "ir", "trace"]),
    ("ompirb", &["ir", "trace"]),
    ("parse", &["ast", "fault", "lex", "sema", "source", "trace"]),
    ("sema", &["ast", "fault", "ir", "source", "trace"]),
    ("source", &["trace"]),
    ("trace", &[]),
    ("tune", &["ast", "trace"]),
    ("vm", &["fault", "interp", "ir", "midend", "trace"]),
];

/// The `omplt-*` entries of a manifest's `[dependencies]` table, sorted.
fn workspace_dependencies(manifest: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(manifest).unwrap();
    let mut section = "";
    let mut deps = Vec::new();
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
        } else if section == "[dependencies]" {
            if let Some(rest) = line.strip_prefix("omplt-") {
                let name = rest.split(|c: char| !c.is_ascii_alphanumeric() && c != '-');
                deps.push(name.into_iter().next().unwrap().to_string());
            }
        }
    }
    deps.sort();
    deps
}

#[test]
fn the_crate_dag_is_the_documented_one() {
    let mut crates: Vec<String> = std::fs::read_dir("crates")
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    crates.sort();
    assert_eq!(crates, DAG.map(|(name, _)| name), "the crates of the table");
    for (name, documented) in DAG {
        let manifest = format!("crates/{name}/Cargo.toml");
        let actual = workspace_dependencies(Path::new(&manifest));
        assert_eq!(actual, documented, "[dependencies] of {manifest}");
    }
}

#[test]
fn only_sema_analyses_a_loop_and_only_the_driver_owns_an_engine() {
    // Needle, then every shipped file that may spell it and why.
    let rules: [(&str, &[(&str, &str)]); 3] = [
        (
            "analyze_canonical_loop(",
            &[(
                "crates/sema/src/loop_analysis.rs",
                "the definition and the level rule",
            )],
        ),
        (
            "DiagnosticsEngine::new()",
            &[("src/compiler.rs", "the compile's one engine")],
        ),
        (
            "ASTContext::new()",
            &[
                ("crates/sema/src/sema.rs", "the translation unit's context"),
                // Expression nodes only, over the original declarations:
                (
                    "crates/codegen/src/cg_stmt.rs",
                    "a non-constant distance expression",
                ),
            ],
        ),
    ];
    let files = scan::shipped_sources();
    for (needle, allowed) in rules {
        let mut seen = Vec::new();
        for file in &files {
            let count = scan::shipped_text(file).matches(needle).count();
            if count == 0 {
                continue;
            }
            let file = file.to_str().unwrap();
            assert!(
                allowed.iter().any(|(f, _)| *f == file),
                "{file} spells {needle}: what it needs is on the AST (`OMPDirective::nest`)"
            );
            // One site per exception outside Sema itself.
            assert!(
                file.starts_with("crates/sema/") || count == 1,
                "{file} spells {needle} {count} times"
            );
            seen.push(file.to_string());
        }
        for (file, why) in allowed {
            assert!(
                seen.iter().any(|s| s == file),
                "{file} ({why}) no longer spells {needle}"
            );
        }
    }
}

/// A range-`for` reaches the loop-directive lowerings only through the
/// level record Sema resolved (`LoopNestLevel::prologue` and `binding`,
/// read through `LoopNestLevel::innermost_body`): the classic lowering and
/// the shadow-AST builders have no range-`for` case of their own.
#[test]
fn no_directive_lowering_has_a_range_for_case() {
    for file in [
        "crates/codegen/src/cg_omp_classic.rs",
        "crates/sema/src/transform.rs",
    ] {
        let text = std::fs::read_to_string(file).unwrap();
        assert!(!text.contains("CxxForRange"), "{file} names CxxForRange");
    }
}

/// The walker resolves a level without looking into a directive: it may
/// stop at a transformation, which stands for the loops Sema recorded on
/// it (`OMPDirective::generated`), but it never re-walks its shadow AST.
#[test]
fn the_walker_never_looks_inside_a_directive() {
    let file = "crates/ast/src/nest.rs";
    let text = scan::shipped_text(Path::new(file));
    assert!(
        !text.contains("get_transformed_stmt"),
        "{file} spells get_transformed_stmt"
    );
}

/// A program is refused by Sema or not at all: the rules CodeGen once
/// decided on its own — a runtime prototype against its row, a `break` or
/// `continue` with no loop, a string literal, a file-scope initializer that
/// is not a constant — are spelled in `crates/sema/src` and nowhere else
/// that ships.
#[test]
fn only_sema_refuses_a_program() {
    let needles = [
        "conflicting types for",
        "outside of a loop",
        "string literals are",
        "not a compile-time constant",
    ];
    let files = scan::shipped_sources();
    for needle in needles {
        let spelled: Vec<&Path> = (files.iter())
            .filter(|f| scan::shipped_text(f).contains(needle))
            .map(|f| f.as_path())
            .collect();
        assert!(!spelled.is_empty(), "nothing spells {needle:?}");
        for file in spelled {
            assert!(
                file.starts_with("crates/sema/src"),
                "{} spells {needle:?}: the rule is Sema's",
                file.display()
            );
        }
    }
}
