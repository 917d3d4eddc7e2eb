//! `diag.error` / `diag.warning` count the diagnostics a compile *renders*:
//! for every input and both lowering paths, the `--counters-json` document
//! of a plain compile agrees with the `--diag-format=json` array of the same
//! run. A layer that analyses something on the side must not report into
//! the compile's counters what it never shows the user — before
//! `OMPDirective::nest`, classic CodeGen re-analysed the shadow AST of a
//! consumed `unroll partial` with a quiet engine, and every `parallel for`
//! over one counted an error on a clean, exit-0 compile.

use omplt::trace::json::{self, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

/// The eight two-deep stacks of `perfbench/src/gen.rs::STACKED_KINDS`, one
/// small function each (the body shapes are the generator's).
const STACKS: [(&[&str], &str); 8] = [
    (&["parallel for", "interchange"], ELEM),
    (&["tile sizes(4, 4)", "interchange"], ELEM),
    (&["unroll partial(2)", "tile sizes(4)"], RED),
    (&["unroll partial(2)", "reverse"], COL),
    (
        &["parallel for schedule(dynamic, 2)", "unroll partial(2)"],
        COL,
    ),
    (&["tile sizes(4)", "reverse"], COL),
    (&["fuse"], FUSE),
    (
        &[
            "parallel for reduction(+: s) schedule(dynamic, 4)",
            "unroll partial(2)",
        ],
        RED,
    ),
];

const ELEM: &str = "  for (int i = 0; i < 16; i += 1)\n    for (int j = 0; j < 16; j += 1)\n      \
                    a[i][j] = b[j][i] + i * 13 + j;\n";
const RED: &str = "  for (int i = 0; i < 16; i += 1)\n    s = s + a[i][i] % 13 + 17;\n";
const COL: &str = "  for (int i = 0; i < 16; i += 1)\n    a[i][3] = b[i][3] * 2 + i + 13;\n";
const FUSE: &str = "  {\n    for (int i = 0; i < 16; i += 1)\n      a[i][3] = i * 13;\n    \
                    for (int j = 0; j < 12; j += 1)\n      b[j][3] = j + 17;\n  }\n";

fn stack_source(pragmas: &[&str], nest: &str) -> String {
    let pragmas: String = pragmas
        .iter()
        .map(|p| format!("  #pragma omp {p}\n"))
        .collect();
    format!(
        "int a[16][16];\nint b[16][16];\nlong acc;\nvoid f(void) {{\n  long s = 0;\n\
         {pragmas}{nest}  acc = acc + s;\n}}\nint main(void) {{\n  f();\n  return 0;\n}}\n"
    )
}

fn c_files(dir: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "{dir} holds no C file");
    files
}

/// (errors, warnings) as the counter document and as the rendered array of
/// one plain compile of `file` report them.
fn counted_and_rendered(file: &Path, flags: &[&str]) -> ([u64; 2], [u64; 2]) {
    let out = Command::new(env!("CARGO_BIN_EXE_ompltc"))
        .args(["--counters-json", "--diag-format=json"])
        .args(flags)
        .arg(file)
        .output()
        .unwrap();
    let what = format!("{} {flags:?}", file.display());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let doc = json::parse(&stdout).unwrap_or_else(|e| panic!("{what}: counters: {e}\n{stdout}"));
    let counters = doc.get("counters").expect("a counters object");
    let counted = ["diag.error", "diag.warning"]
        .map(|k| counters.get(k).map_or(0, |v| v.as_u64().expect("a count")));

    // Nothing to render is an empty stderr, not an empty array.
    let stderr = String::from_utf8(out.stderr).unwrap();
    let rendered = if stderr.trim().is_empty() {
        Value::Arr(Vec::new())
    } else {
        json::parse(&stderr).unwrap_or_else(|e| panic!("{what}: diagnostics: {e}\n{stderr}"))
    };
    let entries = rendered.as_array().expect("a diagnostics array");
    let rendered = ["error", "warning"].map(|l| {
        let at_level = |d: &&Value| d.get("level").and_then(Value::as_str) == Some(l);
        entries.iter().filter(at_level).count() as u64
    });
    (counted, rendered)
}

#[test]
fn diag_counters_equal_the_diagnostics_rendered() {
    let dir = std::env::temp_dir().join(format!("omplt-diag-counters-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut inputs = c_files("examples/c");
    inputs.extend(c_files("ci/analysis-fixtures"));
    for (k, (pragmas, nest)) in STACKS.iter().enumerate() {
        let file = dir.join(format!("stack{k}.c"));
        std::fs::write(&file, stack_source(pragmas, nest)).unwrap();
        inputs.push(file);
    }

    let mut wrong = Vec::new();
    let mut rendered_any = false;
    for file in &inputs {
        for flags in [&[][..], &["--enable-irbuilder"][..]] {
            let (counted, rendered) = counted_and_rendered(file, flags);
            rendered_any |= rendered != [0, 0];
            if counted != rendered {
                wrong.push(format!(
                    "{} {flags:?}: counted {counted:?}, rendered {rendered:?} (errors, warnings)",
                    file.display()
                ));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(rendered_any, "the fixtures render diagnostics");
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
