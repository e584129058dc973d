//! Process-level helpers: scratch directories inside the working
//! directory, and the process's peak resident set.

use std::path::{Path, PathBuf};

/// Directory (under the working directory) that holds every scratch
/// directory; removed when the last one is gone.
const SCRATCH_ROOT: &str = ".perfbench_tmp";

/// A scratch directory that is removed when dropped, on success, on error
/// returns and during a panic's unwinding alike.
#[derive(Debug)]
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Creates `.perfbench_tmp/<pid>-<name>` afresh.
    pub fn new(name: &str) -> Result<Scratch, String> {
        let path = Path::new(SCRATCH_ROOT).join(format!("{}-{name}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path).map_err(|e| format!("clear {}: {e}", path.display()))?;
        }
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(Scratch { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Succeeds only once no other scratch directory is left.
        let _ = std::fs::remove_dir(SCRATCH_ROOT);
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_is_removed_on_drop_even_when_unwinding() {
        let path = {
            let scratch = Scratch::new("selftest").unwrap();
            std::fs::write(scratch.path().join("f"), b"x").unwrap();
            scratch.path().to_path_buf()
        };
        assert!(!path.exists());
        let kept = std::panic::catch_unwind(|| {
            let scratch = Scratch::new("selftest-panic").unwrap();
            let path = scratch.path().to_path_buf();
            std::panic::panic_any(path);
        })
        .unwrap_err();
        let path = kept.downcast_ref::<PathBuf>().unwrap();
        assert!(!path.exists());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
