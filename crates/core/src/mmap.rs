//! Read-only memory mapping of files, with no external dependencies.
//!
//! The [`crate::flatfile`] loader wants to hand the miners borrowed column
//! slices backed by the page cache instead of heap copies. The workspace
//! vendors no `libc`/`memmap` crate, so this module declares the three
//! syscalls it needs (`mmap`, `munmap`, `madvise`) directly — `std` already
//! links the platform C library on every Unix target — and wraps them in a
//! safe, owning [`Mmap`] handle.
//!
//! On non-Unix targets (or 32-bit Unix, where the raw `off_t` width is
//! configuration-dependent) the same [`Mmap`] API is backed by a plain heap
//! read of the file, so callers never need a platform split: the zero-copy
//! property degrades gracefully to a single copy.
//!
//! Soundness notes for the mapped backend:
//!
//! * mappings are `PROT_READ` + `MAP_PRIVATE`: nothing in this process can
//!   write through them, so `&[u8]` borrows of the mapping are never aliased
//!   by mutation from safe code;
//! * a concurrent writer to the *file* could still change mapped pages (the
//!   private copy-on-write snapshot is only taken per page, on first
//!   access). Every bit pattern is a valid `u8`/`u32`, so a torn read
//!   produces wrong *values*, never undefined behavior — and the flat-file
//!   loader's CRC verification bounds the damage to a typed decode error;
//! * a concurrent *truncation* of the file makes reads of the lost pages
//!   fault (`SIGBUS`), which no panic guard catches. Mapped files are
//!   meant to be replaced by rename, never changed in place; holders that
//!   keep a mapping for long (the server's attached databases) call
//!   [`Mmap::is_unchanged`] before each read pass to catch a violation;
//! * the pointer and length are owned by the handle and unmapped exactly
//!   once, in `Drop`; [`Mmap::bytes`] borrows are tied to the handle's
//!   lifetime (callers share the handle via `Arc` to extend it).

use std::fs::File;
use std::io;
use std::path::Path;
use std::time::SystemTime;

/// Access-pattern hints forwarded to `madvise(2)`. On targets without the
/// syscall the hints are accepted and ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advice {
    /// Expect sequential access: read-ahead aggressively, drop behind.
    Sequential,
    /// Expect access soon: start faulting pages in now.
    WillNeed,
    /// Expect random access: disable read-ahead.
    Random,
}

#[cfg(all(unix, target_pointer_width = "64"))]
#[allow(unsafe_code)]
mod sys {
    //! The raw syscall surface, quarantined: this is the only module in the
    //! crate that may use `unsafe` (see the crate-level `deny(unsafe_code)`).
    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::AsRawFd;

    // Prototypes per POSIX; `std` links libc on every Unix target. The
    // 64-bit gate above makes `usize` == `size_t` and keeps `off_t` == i64
    // on every supported platform (LP64).
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
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;
    // Linux and the BSDs (incl. macOS) agree on these three values.
    const MADV_SEQUENTIAL: c_int = 2;
    const MADV_WILLNEED: c_int = 3;
    const MADV_RANDOM: c_int = 1;

    /// A live `mmap(2)` region. `len` is never 0 (zero-length maps are
    /// handled above this layer).
    #[derive(Debug)]
    pub(super) struct RawMap {
        ptr: *mut c_void,
        len: usize,
    }

    // The region is immutable shared memory with no thread affinity.
    #[allow(unsafe_code)]
    unsafe impl Send for RawMap {}
    #[allow(unsafe_code)]
    unsafe impl Sync for RawMap {}

    impl RawMap {
        pub(super) fn map(file: &std::fs::File, len: usize) -> std::io::Result<RawMap> {
            debug_assert!(len > 0, "zero-length maps are handled by the caller");
            // SAFETY: a fresh PROT_READ/MAP_PRIVATE mapping of `len` bytes;
            // the fd stays open only for the duration of the call (POSIX
            // keeps the mapping valid after the fd closes). The returned
            // region is owned by `RawMap` and released exactly once.
            let ptr = unsafe {
                mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0)
            };
            if ptr as isize == -1 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(RawMap { ptr, len })
        }

        pub(super) fn bytes(&self) -> &[u8] {
            // SAFETY: `ptr` is a live read-only mapping of exactly `len`
            // bytes, valid for the lifetime of `self`; see the module docs
            // for why concurrent file writes cannot cause UB here.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }

        pub(super) fn advise(&self, advice: super::Advice) {
            let advice = match advice {
                super::Advice::Sequential => MADV_SEQUENTIAL,
                super::Advice::WillNeed => MADV_WILLNEED,
                super::Advice::Random => MADV_RANDOM,
            };
            // SAFETY: the region is owned and live; madvise is advisory and
            // its failure (e.g. on an exotic filesystem) is ignorable.
            let _ = unsafe { madvise(self.ptr, self.len, advice) };
        }
    }

    impl Drop for RawMap {
        fn drop(&mut self) {
            // SAFETY: unmapping the exact region this handle owns, once.
            let _ = unsafe { munmap(self.ptr, self.len) };
        }
    }
}

/// How the bytes are held: a real mapping where supported, a heap read
/// elsewhere. Zero-length files use `Heap(vec![])` everywhere (POSIX
/// `mmap` rejects `len == 0`).
#[derive(Debug)]
enum Backing {
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped(sys::RawMap),
    Heap(Vec<u8>),
}

/// An immutable, read-only view of a whole file — memory-mapped on 64-bit
/// Unix, heap-backed elsewhere. Cheap to share behind an `Arc`; the mapping
/// is released when the last handle drops.
#[derive(Debug)]
pub struct Mmap {
    backing: Backing,
    /// For a true mapping: a handle on the mapped file (it follows the
    /// file across a rename of its path) with the length and modification
    /// time it had when mapped.
    stamp: Option<(File, u64, Option<SystemTime>)>,
}

impl Mmap {
    /// Maps (or, on fallback targets, reads) the file at `path`.
    pub fn open(path: &Path) -> io::Result<Mmap> {
        let file = File::open(path)?;
        Mmap::from_file(&file)
    }

    /// Maps (or reads) an already-open file, from offset 0 to its current
    /// length.
    pub fn from_file(file: &File) -> io::Result<Mmap> {
        let meta = file.metadata()?;
        if meta.len() > usize::MAX as u64 {
            return Err(io::Error::new(io::ErrorKind::OutOfMemory, "file exceeds address space"));
        }
        let len = meta.len() as usize;
        if len == 0 {
            return Ok(Mmap::from_vec(Vec::new()));
        }
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            let stamp = Some((file.try_clone()?, meta.len(), meta.modified().ok()));
            Ok(Mmap { backing: Backing::Mapped(sys::RawMap::map(file, len)?), stamp })
        }
        #[cfg(not(all(unix, target_pointer_width = "64")))]
        {
            use std::io::Read;
            let mut bytes = Vec::with_capacity(len);
            let mut reader = file.try_clone()?;
            reader.read_to_end(&mut bytes)?;
            Ok(Mmap::from_vec(bytes))
        }
    }

    /// Wraps bytes already in memory in a heap-backed handle, so code
    /// written against [`Mmap`] (the flat-file decoder) can also run over a
    /// buffer that never came from a file.
    pub fn from_vec(bytes: Vec<u8>) -> Mmap {
        Mmap { backing: Backing::Heap(bytes), stamp: None }
    }

    /// Whether the mapped file still has the length and modification time
    /// it had when mapped (always true for heap backings, which own their
    /// bytes; false when the file can no longer be inspected). A rename
    /// that replaces the file's path leaves the mapped file, and so this
    /// answer, untouched; an in-place write or truncation flips it.
    pub fn is_unchanged(&self) -> bool {
        let Some((file, len, modified)) = &self.stamp else { return true };
        file.metadata().is_ok_and(|m| m.len() == *len && m.modified().ok() == *modified)
    }

    /// The file's bytes. For the mapped backing this touches no memory by
    /// itself — pages fault in lazily as slices are read.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Backing::Mapped(map) => map.bytes(),
            Backing::Heap(v) => v,
        }
    }

    /// Number of bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// True when the file was empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the bytes are a true memory mapping (false on fallback
    /// targets and for empty files). Diagnostics only.
    pub fn is_mapped(&self) -> bool {
        match &self.backing {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Backing::Mapped(_) => true,
            Backing::Heap(_) => false,
        }
    }

    /// Forwards an access-pattern hint to the OS (no-op for heap backings).
    pub fn advise(&self, advice: Advice) {
        match &self.backing {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Backing::Mapped(map) => map.advise(advice),
            Backing::Heap(_) => {
                let _ = advice;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("disc-mmap-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn maps_file_contents() {
        let dir = tmp_dir("contents");
        let path = dir.join("f.bin");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::File::create(&path).unwrap().write_all(&payload).unwrap();
        let map = Mmap::open(&path).unwrap();
        assert_eq!(map.bytes(), &payload[..]);
        assert_eq!(map.len(), payload.len());
        map.advise(Advice::Sequential);
        map.advise(Advice::WillNeed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_rename_keeps_the_mapping_unchanged_an_in_place_truncation_does_not() {
        let dir = tmp_dir("stamp");
        let path = dir.join("f.bin");
        std::fs::write(&path, vec![7u8; 8192]).unwrap();
        let map = Mmap::open(&path).unwrap();
        assert!(map.is_unchanged());
        // Replaced by rename: the mapped file itself is untouched.
        std::fs::write(dir.join("g.bin"), vec![9u8; 100]).unwrap();
        std::fs::rename(dir.join("g.bin"), &path).unwrap();
        assert!(map.is_unchanged());
        assert_eq!(map.bytes()[8191], 7);

        let map = Mmap::open(&path).unwrap();
        std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(10).unwrap();
        // Heap fallbacks own their bytes and never change.
        assert_eq!(map.is_unchanged(), !map.is_mapped());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let dir = tmp_dir("empty");
        let path = dir.join("empty.bin");
        std::fs::File::create(&path).unwrap();
        let map = Mmap::open(&path).unwrap();
        assert!(map.is_empty());
        assert!(!map.is_mapped());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_errors() {
        assert!(Mmap::open(Path::new("/nonexistent/disc/mmap/file")).is_err());
    }

    #[test]
    fn mapping_outlives_the_file_handle_and_is_shareable() {
        let dir = tmp_dir("share");
        let path = dir.join("f.bin");
        std::fs::File::create(&path).unwrap().write_all(&[7u8; 4096]).unwrap();
        let map = std::sync::Arc::new(Mmap::open(&path).unwrap());
        // The File handle from `open` is already dropped; reads still work,
        // including from another thread through the Arc.
        let m2 = std::sync::Arc::clone(&map);
        let handle = std::thread::spawn(move || m2.bytes().iter().map(|&b| b as u64).sum::<u64>());
        assert_eq!(handle.join().unwrap(), 7 * 4096);
        assert_eq!(map.bytes()[4095], 7);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
