//! Read-only memory mapping for the columnar trace reader.
//!
//! The workspace deliberately carries no FFI crates, so on Linux/x86-64 the
//! `mmap`/`munmap` syscalls are issued directly via inline assembly; on every
//! other target the file is read into an owned buffer instead. Either way the
//! consumer sees one immutable `&[u8]` for the whole file, so the columnar
//! reader's zero-copy [`crate::columnar::StreamView`]s work identically on
//! both paths.
//!
//! Safety model (the mapped branch):
//! - the mapping is `PROT_READ` + `MAP_PRIVATE`: nothing can write through
//!   it, and writes by other processes to the file are not observed as
//!   mutation of Rust-visible memory (private COW semantics);
//! - the pointer/length pair is fixed at map time and only ever exposed as a
//!   `&[u8]` borrowed from the `Mmap`, so the borrow checker pins the
//!   mapping's lifetime around every view;
//! - `munmap` runs in `Drop`, after all borrows have ended.
//!
//! The one hazard mmap cannot remove is another process *truncating* the
//! file while it is mapped (accessing pages past the new EOF raises
//! `SIGBUS`). The columnar format's writers only ever publish files by
//! atomic rename and never modify them in place, so mapped `.ctb` files are
//! immutable by construction; see DESIGN.md §17.

use std::fs::File;
use std::io::{self, Read};
use std::path::Path;

/// A read-only view of an entire file: memory-mapped on Linux/x86-64,
/// buffered in RAM elsewhere.
pub struct Mmap {
    inner: Inner,
}

enum Inner {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    Mapped {
        ptr: *const u8,
        len: usize,
        /// Keeps the descriptor open for the mapping's lifetime. Not
        /// strictly required by the kernel (the mapping holds its own
        /// reference) but makes the ownership story explicit.
        _file: File,
    },
    Owned(Vec<u8>),
}

impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mmap")
            .field("len", &self.bytes().len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

// SAFETY: the mapped pointer refers to immutable (PROT_READ, MAP_PRIVATE)
// memory owned by this value alone and unmapped only on its Drop, so moving
// the owner to another thread moves the whole mapping with it. The Owned
// variant is a plain Vec.
unsafe impl Send for Mmap {}
// SAFETY: every access through `&Mmap` is a read of the fixed (ptr, len)
// region, which nothing writes for the mapping's lifetime: no interior
// mutability, so concurrent `&[u8]` views from many threads cannot race.
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps (or reads) the whole of `path` read-only.
    pub fn open(path: &Path) -> io::Result<Mmap> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        let len_usize = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
        if len_usize == 0 {
            // mmap(…, 0, …) is EINVAL; an empty file has a canonical empty
            // view on both paths.
            return Ok(Mmap {
                inner: Inner::Owned(Vec::new()),
            });
        }
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        {
            // On mmap failure, fall through to the buffered path (e.g.
            // filesystems that refuse mmap).
            if let Ok(ptr) = linux::mmap_readonly(&file, len_usize) {
                return Ok(Mmap {
                    inner: Inner::Mapped {
                        ptr,
                        len: len_usize,
                        _file: file,
                    },
                });
            }
        }
        let mut buf = Vec::with_capacity(len_usize);
        file.read_to_end(&mut buf)?;
        Ok(Mmap {
            inner: Inner::Owned(buf),
        })
    }

    /// Wraps an owned buffer in the same interface (no kernel mapping).
    pub fn from_vec(bytes: Vec<u8>) -> Mmap {
        Mmap {
            inner: Inner::Owned(bytes),
        }
    }

    /// The file contents as one contiguous immutable slice.
    pub fn bytes(&self) -> &[u8] {
        match &self.inner {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Inner::Mapped { ptr, len, .. } => {
                // SAFETY: ptr/len came from a successful PROT_READ mapping
                // of exactly `len` bytes that lives until Drop; the borrow
                // is tied to &self.
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
            Inner::Owned(buf) => buf,
        }
    }

    /// Whether this instance is backed by an actual kernel mapping (false
    /// means the portable read-into-RAM fallback was used).
    pub fn is_mapped(&self) -> bool {
        match &self.inner {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Inner::Mapped { .. } => true,
            Inner::Owned(_) => false,
        }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if let Inner::Mapped { ptr, len, .. } = &self.inner {
            // SAFETY: exact (addr, len) pair returned by mmap; all slices
            // borrowed from self have ended by the time Drop runs.
            unsafe { linux::munmap(*ptr, *len) };
        }
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod linux {
    use std::arch::asm;
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    const SYS_MMAP: usize = 9;
    const SYS_MUNMAP: usize = 11;
    const PROT_READ: usize = 0x1;
    const MAP_PRIVATE: usize = 0x2;

    /// Raw six-argument syscall on x86-64 Linux. Returns the raw kernel
    /// return value (negative errno encoded as -errno in [-4095, -1]).
    ///
    /// # Safety
    /// The caller must uphold the contract of the specific syscall.
    unsafe fn syscall6(
        n: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        // SAFETY: this is the x86-64 Linux syscall ABI: number in rax,
        // arguments in rdi/rsi/rdx/r10/r8/r9, result in rax, and the kernel
        // clobbers only rcx and r11, both declared. The instruction touches
        // no Rust-visible memory of its own (`nostack`); what the syscall
        // does with its arguments is the caller's contract.
        unsafe {
            asm!(
                "syscall",
                inlateout("rax") n as isize => ret,
                in("rdi") a,
                in("rsi") b,
                in("rdx") c,
                in("r10") d,
                in("r8") e,
                in("r9") f,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    /// Maps `len` bytes of `file` read-only and private.
    pub fn mmap_readonly(file: &File, len: usize) -> io::Result<*const u8> {
        let fd = file.as_raw_fd();
        // SAFETY: addr=NULL lets the kernel pick the placement; fd is a
        // valid open descriptor; offset 0 is page-aligned.
        let ret = unsafe { syscall6(SYS_MMAP, 0, len, PROT_READ, MAP_PRIVATE, fd as usize, 0) };
        if (-4095..0).contains(&ret) {
            return Err(io::Error::from_raw_os_error(-ret as i32));
        }
        Ok(ret as *const u8)
    }

    /// Unmaps a region previously returned by [`mmap_readonly`].
    ///
    /// # Safety
    /// `(ptr, len)` must be exactly the pair returned by a successful
    /// `mmap_readonly`, and no live references into the region may remain.
    pub unsafe fn munmap(ptr: *const u8, len: usize) {
        // SAFETY: munmap's contract is this function's: the caller passes
        // the exact region a successful mmap returned and holds no
        // reference into it, so removing the pages frees nothing still
        // borrowed.
        let _ = unsafe { syscall6(SYS_MUNMAP, ptr as usize, len, 0, 0, 0, 0) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_file_contents() {
        let dir = std::env::temp_dir().join(format!("cpt-mmap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blob.bin");
        let payload: Vec<u8> = (0..10_000u32).flat_map(|x| x.to_le_bytes()).collect();
        std::fs::write(&path, &payload).unwrap();
        let map = Mmap::open(&path).unwrap();
        assert_eq!(map.bytes(), &payload[..]);
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        assert!(map.is_mapped());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let dir = std::env::temp_dir().join(format!("cpt-mmap-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.bin");
        std::fs::write(&path, b"").unwrap();
        let map = Mmap::open(&path).unwrap();
        assert!(map.bytes().is_empty());
        assert!(!map.is_mapped());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_errors() {
        assert!(Mmap::open(Path::new("/nonexistent/cpt-mmap-test")).is_err());
    }
}
