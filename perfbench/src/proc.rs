//! Processes and files: the release binaries next to the harness, a scratch
//! directory inside the checkout, `ompltc` one-shot runs, and peak memory.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// `ompltc` and `ompltd` as built next to this executable.
#[derive(Clone)]
pub struct Binaries {
    pub ompltc: PathBuf,
    pub ompltd: PathBuf,
}

/// Finds both binaries beside the harness. What keeps them current is
/// `perfbench/run.sh`, which rebuilds all three with cargo before every run
/// — not file times: cargo leaves a binary alone when none of its own
/// inputs changed, so one older than some source file is not stale.
pub fn locate_binaries() -> Result<Binaries, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let dir = exe.parent().ok_or("own executable has no directory")?;
    let find = |name: &str| -> Result<PathBuf, String> {
        let path = dir.join(name);
        if path.is_file() {
            Ok(path)
        } else {
            Err(format!(
                "{} is missing: build it with perfbench/run.sh or \
                 'cargo build --release --offline -p omplt --bins'",
                path.display()
            ))
        }
    };
    Ok(Binaries {
        ompltc: find("ompltc")?,
        ompltd: find("ompltd")?,
    })
}

/// A scratch directory under `.bench_run/` in the checkout, removed on drop.
/// The daemon's socket lives here too, so its path stays short and relative.
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn create(tag: &str) -> Result<RunDir, String> {
        let path = PathBuf::from(format!(".bench_run/{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(RunDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    pub fn write(&self, name: &str, contents: &str) -> Result<PathBuf, String> {
        let path = self.0.join(name);
        std::fs::write(&path, contents)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(path)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `.bench_run/` itself only when another run still uses it.
        let _ = std::fs::remove_dir(".bench_run");
    }
}

/// Spawns `ompltc FLAGS FILE`, waits, and returns the wall time in
/// milliseconds from spawn to collected stdout — what a one-shot user pays.
/// `Err` on a non-zero exit or on stdout other than `expected`.
pub fn cli_run(
    ompltc: &Path,
    flags: &[String],
    file: &Path,
    expected: &str,
) -> Result<f64, String> {
    let start = Instant::now();
    let out = Command::new(ompltc)
        .args(flags)
        .arg(file)
        .output()
        .map_err(|e| format!("cannot spawn {}: {e}", ompltc.display()))?;
    let ms = start.elapsed().as_secs_f64() * 1e3;
    if !out.status.success() || !out.stderr.is_empty() {
        return Err(format!(
            "ompltc {} {}: {}\n{}",
            flags.join(" "),
            file.display(),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    if out.stdout != expected.as_bytes() {
        return Err(format!(
            "ompltc {} {}: wrong stdout {:?}, expected {expected:?}",
            flags.join(" "),
            file.display(),
            String::from_utf8_lossy(&out.stdout)
        ));
    }
    Ok(ms)
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB, from `/proc`.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM line in /proc/{pid}/status"))
}
