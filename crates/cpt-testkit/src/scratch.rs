//! Per-test scratch directories.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh, empty directory under the system temp dir, removed with
/// everything in it on drop.
///
/// Its name holds the tag, the process id and a per-process count, so two
/// scratches never share a directory, even with the same tag in parallel
/// tests.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `cpt-<tag>-<pid>-<n>`, clearing a stale one a killed run
    /// with the same process id left behind.
    pub fn new(tag: &str) -> Scratch {
        static COUNT: AtomicUsize = AtomicUsize::new(0);
        let n = COUNT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("cpt-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    /// The directory itself.
    pub fn dir(&self) -> &Path {
        &self.0
    }

    /// The path of `name` inside the directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    /// [`Scratch::path`] as a command-line argument.
    pub fn arg(&self, name: &str) -> String {
        self.path(name).to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}
