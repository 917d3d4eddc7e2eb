//! Counter pins: what the pipeline counts while compiling and running each
//! program of `examples/c` must not move silently. Every expectation is a
//! file `ci/expected-counters/<example>.<suffix>`; a change that moves one on
//! purpose updates the file in the same commit and says why.
//!
//! One row of [`ROWS`] per family: the shadow-AST node counters of each
//! representation (experiment C1), the dependence-analysis counters, the ops
//! each backend retires (deterministic: the default team size is fixed and
//! static chunk assignment is a pure function of it), the widening pass's
//! outcome at `--vector-width=4` on both lowering paths, the OMPLTBC
//! image's size (the benchmark's `bytecode_bytes`) and checksum on both
//! lowering paths, what `vm.compile`
//! emitted, promoted, removed and solved, the ops both backends retire
//! on the IR the mid end optimised (`--opt`), and what the irbuilder
//! lowering built: its skeletons and the `ompirb` operations it called.

use std::path::Path;
use std::process::Command;

/// What a row compares with its file.
enum Pin {
    /// The `"name":value` counters of one run whose name passes, sorted.
    Counters(fn(&str) -> bool),
    /// The same at `--vector-width` 0 and 4 while emitting an image, each
    /// line prefixed `vw=N`.
    CountersPerWidth(fn(&str) -> bool),
    /// The same on the interpreter, then on the VM.
    CountersPerBackend(fn(&str) -> bool),
    /// `vw=N bytes=<size> cksum=<POSIX cksum>` of the image at each width.
    Image,
}

/// `(file suffix, flags, what is pinned)`.
const ROWS: [(&str, &[&str], Pin); 12] = [
    (
        "classic.txt",
        &["--counters-json", "--syntax-only"],
        Pin::Counters(|n| n.starts_with("sema.")),
    ),
    (
        "irbuilder.txt",
        &["--counters-json", "--syntax-only", "--enable-irbuilder"],
        Pin::Counters(|n| n.starts_with("sema.")),
    ),
    // One graph per transformation, `simd` or `parallel` worksharing
    // directive; an example with none would pin an empty file.
    (
        "analyze.txt",
        &["--counters-json", "--analyze"],
        Pin::Counters(|n| n.starts_with("analysis.")),
    ),
    (
        "interp.ops.txt",
        &["--counters-json", "--run"],
        Pin::Counters(|n| n == "interp.ops.retired"),
    ),
    (
        "vm.ops.txt",
        &["--counters-json", "--run", "--backend=vm"],
        Pin::Counters(|n| n == "vm.ops.retired"),
    ),
    // What the mid end does to the work: both engines run its promoted IR.
    (
        "opt.ops.txt",
        &["--counters-json", "--run", "--opt"],
        Pin::CountersPerBackend(|n| n.ends_with("ops.retired")),
    ),
    // Examples without a `simd` loop pin all-zero widening counters: the
    // widener must not touch them.
    (
        "vm.simd.txt",
        &[
            "--counters-json",
            "--run",
            "--backend=vm",
            "--vector-width=4",
        ],
        Pin::Counters(|n| n.starts_with("vm.simd.") || n == "vm.ops.retired"),
    ),
    // The same on the irbuilder skeleton, whose IV is a phi from the start.
    (
        "vm.simd.irbuilder.txt",
        &[
            "--counters-json",
            "--run",
            "--backend=vm",
            "--vector-width=4",
            "--enable-irbuilder",
        ],
        Pin::Counters(|n| n.starts_with("vm.simd.") || n == "vm.ops.retired"),
    ),
    ("vm.image.txt", &["--backend=vm"], Pin::Image),
    (
        "vm.image.irbuilder.txt",
        &["--backend=vm", "--enable-irbuilder"],
        Pin::Image,
    ),
    (
        "vm.compile.txt",
        &["--counters-json", "--backend=vm"],
        Pin::CountersPerWidth(|n| {
            let compile = n.strip_prefix("vm.compile.").unwrap_or("");
            ["ops", "promoted", "peephole.removed", "liveness.solves"].contains(&compile)
        }),
    ),
    (
        "ompirb.irbuilder.txt",
        &["--enable-irbuilder", "--opt", "--counters-json"],
        Pin::Counters(|n| n.starts_with("ompirb.")),
    ),
];

/// Runs `ompltc` and returns its stdout; findings (`--analyze`) exit 1, so
/// the status is not looked at — a run that printed nothing fails its pin.
fn ompltc(flags: &[&str], extra: &[String], src: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ompltc"))
        .args(flags)
        .args(extra)
        .arg(src)
        .output()
        .expect("ompltc runs");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Every `"name":digits` of `text` whose name passes `keep`, as
/// `"name":digits` lines, sorted.
fn counters(text: &str, keep: fn(&str) -> bool) -> Vec<String> {
    let pieces: Vec<&str> = text.split('"').collect();
    let mut found = Vec::new();
    for pair in pieces[1..].chunks(2) {
        let [name, rest] = pair else { break };
        let digits = rest.strip_prefix(':').map(|r| {
            let end = r.find(|c: char| !c.is_ascii_digit()).unwrap_or(r.len());
            &r[..end]
        });
        if let Some(value) = digits.filter(|d| !d.is_empty() && keep(name)) {
            found.push(format!("\"{name}\":{value}"));
        }
    }
    found.sort();
    found
}

/// The CRC that POSIX `cksum` prints: CRC-32/CKSUM over the bytes, then over
/// the length, least significant byte first.
fn posix_cksum(bytes: &[u8]) -> u32 {
    let feed = |crc: u32, byte: u8| {
        (0..8).fold(crc ^ (u32::from(byte) << 24), |c, _| {
            (c << 1) ^ if c & 0x8000_0000 != 0 { 0x04C1_1DB7 } else { 0 }
        })
    };
    let mut crc = bytes.iter().fold(0, |c, &b| feed(c, b));
    let mut len = bytes.len();
    while len != 0 {
        crc = feed(crc, len as u8);
        len >>= 8;
    }
    !crc
}

#[test]
fn posix_cksum_is_the_tool_s() {
    // `printf 123456789 | cksum` and `cksum < /dev/null`.
    assert_eq!(posix_cksum(b"123456789"), 930_766_865);
    assert_eq!(posix_cksum(b""), 4_294_967_295);
}

#[test]
fn the_example_corpus_counts_what_its_pins_say() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources: Vec<_> = std::fs::read_dir(root.join("examples/c"))
        .expect("examples/c exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "c"))
        .collect();
    sources.sort();
    assert!(!sources.is_empty());
    let image = std::env::temp_dir().join(format!("omplt-pins-{}.bc", std::process::id()));
    let at_width = |flags: &[&str], vw: u32, src: &Path| {
        let emit = format!("--emit-bytecode-bin={}", image.display());
        ompltc(flags, &[format!("--vector-width={vw}"), emit], src)
    };

    let mut drift = String::new();
    for src in &sources {
        let base = src.file_stem().unwrap().to_string_lossy();
        for (suffix, flags, pin) in &ROWS {
            let lines: Vec<String> = match pin {
                Pin::Counters(keep) => counters(&ompltc(flags, &[], src), *keep),
                Pin::CountersPerBackend(keep) => ["interp", "vm"]
                    .into_iter()
                    .flat_map(|be| {
                        let backend = [format!("--backend={be}")];
                        counters(&ompltc(flags, &backend, src), *keep)
                    })
                    .collect(),
                Pin::CountersPerWidth(keep) => [0, 4]
                    .into_iter()
                    .flat_map(|vw| {
                        let found = counters(&at_width(flags, vw, src), *keep);
                        found.into_iter().map(move |c| format!("vw={vw} {c}"))
                    })
                    .collect(),
                Pin::Image => [0, 4]
                    .into_iter()
                    .map(|vw| {
                        at_width(flags, vw, src);
                        let bytes = std::fs::read(&image).expect("an image was written");
                        let (len, crc) = (bytes.len(), posix_cksum(&bytes));
                        format!("vw={vw} bytes={len} cksum={crc}")
                    })
                    .collect(),
            };
            let got = lines.join("\n") + "\n";
            let file = format!("ci/expected-counters/{base}.{suffix}");
            match std::fs::read_to_string(root.join(&file)) {
                Ok(expected) if expected == got => {}
                Ok(expected) => drift.push_str(&format!(
                    "{file} differs; it says\n{expected}the tool says (paste if intentional)\n{got}\n"
                )),
                Err(_) => drift.push_str(&format!("{file} is missing; expected contents\n{got}\n")),
            }
        }
    }
    let _ = std::fs::remove_file(&image);
    assert!(drift.is_empty(), "counter drift:\n{drift}");
    let pinned = std::fs::read_dir(root.join("ci/expected-counters")).unwrap();
    assert_eq!(pinned.count(), sources.len() * ROWS.len(), "a stale pin");
}
