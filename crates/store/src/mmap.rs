//! Read-only file mapping — the one `unsafe` module of the store crate.
//!
//! [`FileBuffer::map`] memory-maps an open file on Unix (raw
//! `mmap`/`munmap` through hand-declared `extern "C"` bindings; no libc
//! crate) and falls back to reading it into an owned `Vec<u8>` when
//! mapping is unavailable — zero-length files, non-Unix targets, or an
//! `mmap` refusal.  Either way the buffer implements
//! `AsRef<[u8]> + Send + Sync`, so an `Arc<FileBuffer>` can back
//! `SharedBytes` views handed to the database and the index without
//! copying the mapped sections.
//!
//! # Safety audit
//!
//! * The store maps a file only after it has read every section once with
//!   positioned reads and checked its checksum.  Nothing reads through the
//!   mapping at open but the `OCC_BYTES` range check; that view faults its
//!   pages in when a query or a check reads it.
//! * The mapping is `PROT_READ` + `MAP_PRIVATE`: the kernel keeps the range
//!   readable for the lifetime of the mapping, and nothing in the process
//!   can write through it.  Pages the process never wrote *are* the page
//!   cache's pages, so a later write to the file by anyone shows through
//!   the views, and a truncation turns reads past the new end into
//!   `SIGBUS`.  Neither can make a view dangle or change its length, but
//!   the checked bytes would no longer be the served ones: a served file
//!   is never rewritten or truncated in place — write a new file, rename
//!   it over the old one and reload (`docs/operations.md`).
//! * `from_raw_parts` is called with exactly the pointer and length returned
//!   by a successful `mmap`, and the mapping lives until `Drop` runs
//!   `munmap` — the slice can never dangle while the `FileBuffer` is alive.
//! * A zero-length buffer never reaches `mmap` (it would be `EINVAL`); it is
//!   served from an empty `Vec`.
#![allow(unsafe_code)]

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};

/// A read-only buffer over the start of a file: memory-mapped when
/// possible, owned otherwise.
#[derive(Debug)]
pub struct FileBuffer(Inner);

#[derive(Debug)]
enum Inner {
    #[cfg(unix)]
    Mapped(Mapping),
    Owned(Vec<u8>),
}

impl FileBuffer {
    /// The first `len` bytes of `file`, preferring a private read-only
    /// mapping.  The mapping reads nothing; the owned fallback reads all
    /// `len` bytes.
    pub fn map(file: &File, len: u64) -> io::Result<Self> {
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
        #[cfg(unix)]
        if len > 0 {
            if let Some(mapping) = Mapping::map(file, len) {
                return Ok(Self(Inner::Mapped(mapping)));
            }
        }
        let mut bytes = vec![0; len];
        let mut reader = file;
        reader.seek(SeekFrom::Start(0))?;
        reader.read_exact(&mut bytes)?;
        Ok(Self(Inner::Owned(bytes)))
    }

    /// Whether the buffer is backed by a live memory mapping (tests and
    /// diagnostics; the owned fallback is functionally identical).
    pub fn is_mapped(&self) -> bool {
        match &self.0 {
            #[cfg(unix)]
            Inner::Mapped(_) => true,
            Inner::Owned(_) => false,
        }
    }

    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        self.as_ref().len()
    }

    /// True when the file was empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl AsRef<[u8]> for FileBuffer {
    fn as_ref(&self) -> &[u8] {
        match &self.0 {
            #[cfg(unix)]
            Inner::Mapped(mapping) => mapping.as_slice(),
            Inner::Owned(bytes) => bytes,
        }
    }
}

#[cfg(unix)]
use unix::Mapping;

#[cfg(unix)]
mod unix {
    use std::ffi::{c_int, c_void};
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// An owned `PROT_READ`/`MAP_PRIVATE` mapping, unmapped on drop.
    #[derive(Debug)]
    pub(super) struct Mapping {
        ptr: *const u8,
        len: usize,
    }

    // SAFETY: the mapping is immutable (PROT_READ) and owned uniquely by
    // this struct; moving it to another thread moves only the pointer and
    // length, and the kernel keeps the pages valid until munmap.
    unsafe impl Send for Mapping {}
    // SAFETY: all access is read-only (no interior mutability), so shared
    // references from any number of threads are race-free.
    unsafe impl Sync for Mapping {}

    impl Mapping {
        /// Map `len` bytes of `file` read-only; `None` when the kernel
        /// refuses (callers fall back to an owned read).
        pub(super) fn map(file: &File, len: usize) -> Option<Self> {
            debug_assert!(len > 0, "zero-length mappings are EINVAL");
            // SAFETY: arguments follow the mmap contract — NULL hint, a
            // valid open fd, offset 0 within the file. A failed call
            // returns MAP_FAILED, checked below, and leaks nothing.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr.is_null() || ptr as isize == -1 {
                return None;
            }
            Some(Self {
                ptr: ptr as *const u8,
                len,
            })
        }

        pub(super) fn as_slice(&self) -> &[u8] {
            // SAFETY: ptr/len are exactly what the successful mmap returned
            // and the mapping stays alive until Drop (see module docs).
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: unmapping the exact region returned by mmap; the
            // pointer is never used again (self is being dropped).
            unsafe {
                munmap(self.ptr as *mut c_void, self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("alae-store-mmap-{}-{}", std::process::id(), name));
        path
    }

    #[test]
    fn maps_file_contents() {
        let path = temp_path("basic");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        File::create(&path).unwrap().write_all(&payload).unwrap();
        let buffer = FileBuffer::map(&File::open(&path).unwrap(), 10_000).unwrap();
        assert_eq!(buffer.as_ref(), payload.as_slice());
        assert_eq!(buffer.len(), payload.len());
        #[cfg(unix)]
        assert!(buffer.is_mapped());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_uses_owned_fallback() {
        let path = temp_path("empty");
        let buffer = FileBuffer::map(&File::create(&path).unwrap(), 0).unwrap();
        assert!(buffer.is_empty());
        assert!(!buffer.is_mapped());
        std::fs::remove_file(&path).unwrap();
    }
}
