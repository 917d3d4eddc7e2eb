//! Shared by the tests that scan the shipped sources for a spelling only
//! one place may use (`runtime_abi.rs`, `layering.rs`).

use std::path::{Path, PathBuf};

/// The part of a source file that ships: everything before its unit tests.
pub fn shipped_text(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap();
    let cut = text.find("#[cfg(test)]").unwrap_or(text.len());
    text[..cut].to_string()
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `src/**/*.rs` and `crates/*/src/**/*.rs`.
pub fn shipped_sources() -> Vec<PathBuf> {
    let mut files = Vec::new();
    rust_files(Path::new("src"), &mut files);
    for krate in std::fs::read_dir("crates").unwrap() {
        rust_files(&krate.unwrap().path().join("src"), &mut files);
    }
    assert!(files.len() > 60);
    files
}
