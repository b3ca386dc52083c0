//! The workspace's one crash-safe file commit, shared by the JSONL, `.ctb`
//! and `.cmb` writers and by every JSON file [`write_atomic`] writes: bytes go to a sibling `<name>.tmp`, which is flushed, fsynced
//! and renamed over the destination, after which the parent directory is
//! fsynced so the new name itself survives power loss. Readers see the old
//! file or the complete new one, never a torn one; a writer dropped before
//! [`AtomicFile::commit`] (error, panic, crash) removes its temp file and
//! leaves any existing destination untouched.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

pub(crate) struct AtomicFile {
    /// `None` once committed: nothing left for `Drop` to clean up.
    w: Option<BufWriter<File>>,
    tmp: PathBuf,
    dst: PathBuf,
}

impl AtomicFile {
    /// Creates `<dst>.tmp` beside `dst` (rename is only atomic within one
    /// filesystem).
    pub(crate) fn create(dst: &Path) -> io::Result<Self> {
        let mut name = dst
            .file_name()
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("{} has no file name", dst.display()),
                )
            })?
            .to_owned();
        name.push(".tmp");
        let tmp = dst.with_file_name(name);
        let w = BufWriter::new(File::create(&tmp)?);
        Ok(AtomicFile {
            w: Some(w),
            tmp,
            dst: dst.to_owned(),
        })
    }

    /// The buffered temp file.
    pub(crate) fn writer(&mut self) -> &mut BufWriter<File> {
        self.w.as_mut().expect("writer is live until commit")
    }

    /// Path of the temp file, for error messages.
    pub(crate) fn tmp_path(&self) -> &Path {
        &self.tmp
    }

    /// Path the file is published at, for error messages.
    pub(crate) fn dst_path(&self) -> &Path {
        &self.dst
    }

    /// Flush, fsync, rename into place, fsync the directory. An early
    /// return leaves the temp file to `Drop`.
    pub(crate) fn commit(&mut self) -> io::Result<()> {
        let w = self.writer();
        w.flush()?;
        w.get_ref().sync_all()?;
        std::fs::rename(&self.tmp, &self.dst)?;
        self.w = None;
        sync_parent_dir(&self.dst)
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        if self.w.take().is_some() {
            std::fs::remove_file(&self.tmp).ok();
        }
    }
}

/// Writes `bytes` to `path` through an `AtomicFile`: a reader sees the
/// old file or all of `bytes`, never a torn mix.
pub fn write_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let mut file = AtomicFile::create(path.as_ref())?;
    file.writer().write_all(bytes)?;
    file.commit()
}

/// A rename is durable only once the directory entry is: fsync the parent.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    // Directories cannot be opened as files on non-unix targets.
    #[cfg(unix)]
    {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        File::open(parent)?.sync_all()?;
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cpt-atomic-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn commit_replaces_the_destination_and_leaves_no_temp() {
        let dir = scratch("commit");
        let dst = dir.join("out.bin");
        std::fs::write(&dst, b"old").unwrap();
        let mut f = AtomicFile::create(&dst).unwrap();
        assert_eq!(
            (f.tmp_path(), f.dst_path()),
            (&*dir.join("out.bin.tmp"), &*dst)
        );
        f.writer().write_all(b"new contents").unwrap();
        assert_eq!(
            std::fs::read(&dst).unwrap(),
            b"old",
            "nothing published before commit"
        );
        f.commit().unwrap();
        assert_eq!(std::fs::read(&dst).unwrap(), b"new contents");
        assert!(!dir.join("out.bin.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_write_that_fails_or_panics_leaves_the_old_file_and_no_temp() {
        let dir = scratch("fail");
        let dst = dir.join("out.bin");
        std::fs::write(&dst, b"old").unwrap();
        // Dropped without commit: an error return.
        {
            let mut f = AtomicFile::create(&dst).unwrap();
            f.writer().write_all(b"half a fi").unwrap();
        }
        assert!(!dir.join("out.bin.tmp").exists());
        // A panic mid-write unwinds through the same Drop.
        let unwound = std::panic::catch_unwind(|| {
            let mut f = AtomicFile::create(&dst).unwrap();
            f.writer().write_all(b"half a fi").unwrap();
            panic!("writer died");
        });
        assert!(unwound.is_err());
        assert!(!dir.join("out.bin.tmp").exists());
        // The temp path wedged by a directory: create itself fails.
        std::fs::create_dir(dir.join("out.bin.tmp")).unwrap();
        assert!(AtomicFile::create(&dst).is_err());
        assert_eq!(std::fs::read(&dst).unwrap(), b"old");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_bare_file_name_syncs_the_current_directory() {
        assert!(sync_parent_dir(Path::new("no-such-file-needed.bin")).is_ok());
        assert!(AtomicFile::create(Path::new("/")).is_err(), "no file name");
    }
}
