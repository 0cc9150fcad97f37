#![warn(missing_docs)]

//! Offline stand-in for a memory-mapping crate (the `memmap2` niche).
//!
//! The build environment has no network access, so — like `serve::net`'s
//! raw `socket(2)` shim in the core crate — this crate declares the three
//! syscalls it needs (`mmap`, `munmap`, `madvise`) directly against the
//! platform libc that std already links, instead of pulling in `libc` or
//! `memmap2`. The API is the subset the workspace uses: map a whole file
//! read-only, view it as `&[u8]`, and pass access-pattern advice to the
//! kernel.
//!
//! On non-unix targets the same API is backed by an ordinary heap buffer
//! holding a copy of the file. Either way the backing storage is
//! guaranteed to start on an **8-byte boundary** (page-aligned under
//! `mmap(2)`, a `u64` allocation in the fallback), which is what lets the
//! slab readers in `bpmf-sparse`/`bpmf` reinterpret aligned byte ranges
//! as `u32`/`u64`/`f64` arrays without copying.

use std::fs::File;
use std::io;

/// Kernel access-pattern advice, forwarded to `madvise(2)` on unix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Advice {
    /// No special treatment (`MADV_NORMAL`).
    Normal,
    /// Expect page references in random order (`MADV_RANDOM`).
    Random,
    /// Expect sequential page references; read ahead aggressively
    /// (`MADV_SEQUENTIAL`).
    Sequential,
    /// Expect access in the near future; start read-ahead now
    /// (`MADV_WILLNEED`).
    WillNeed,
}

#[cfg(unix)]
mod imp {
    use super::Advice;
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    use std::ffi::c_void;

    // Raw syscall declarations against the libc std already links — the
    // same pattern as `serve::net::bind_one`. Numeric constants are the
    // shared Linux/BSD/macOS values for this tiny subset.
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, length: usize) -> i32;
        fn madvise(addr: *mut c_void, length: usize, advice: i32) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;
    const MADV_NORMAL: i32 = 0;
    const MADV_RANDOM: i32 = 1;
    const MADV_SEQUENTIAL: i32 = 2;
    const MADV_WILLNEED: i32 = 3;

    /// Conservative page size for rounding `madvise` addresses; every
    /// supported platform pages at 4 KiB or a multiple of it, and rounding
    /// *down* to a 4 KiB boundary inside the mapping is always legal
    /// advice-wise (advice is a hint over whole pages).
    const PAGE: usize = 4096;

    /// A read-only, privately mapped view of a whole file.
    #[derive(Debug)]
    pub struct Mmap {
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: the mapping is read-only (PROT_READ) for its entire
    // lifetime, never remapped, and owned exclusively by this struct;
    // concurrent reads from multiple threads are safe, exactly as for a
    // `Box<[u8]>`.
    unsafe impl Send for Mmap {}
    // SAFETY: as for `Send` above: shared access only ever reads.
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Map `file` read-only in its entirety.
        pub fn map(file: &File) -> io::Result<Mmap> {
            let len = file.metadata()?.len();
            if len > usize::MAX as u64 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "file too large to map on this target",
                ));
            }
            let len = len as usize;
            if len == 0 {
                // mmap(2) rejects zero-length mappings; an empty view
                // needs no mapping at all.
                return Ok(Mmap {
                    ptr: std::ptr::null_mut(),
                    len: 0,
                });
            }
            // SAFETY: std keeps `file`'s descriptor open across this call;
            // a private read-only mapping of it cannot alias writable
            // memory, and we check the MAP_FAILED sentinel before use.
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
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(Mmap { ptr, len })
        }

        /// The mapped bytes.
        pub fn as_slice(&self) -> &[u8] {
            if self.len == 0 {
                return &[];
            }
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
            // bytes for as long as `self` exists.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }

        /// Advise the kernel about the access pattern of a byte range of
        /// the mapping. `offset` is rounded down to a page boundary; an
        /// empty mapping or range is a no-op.
        pub fn advise_range(&self, offset: usize, len: usize, advice: Advice) -> io::Result<()> {
            if self.len == 0 || len == 0 {
                return Ok(());
            }
            if offset >= self.len {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "advice range outside the mapping",
                ));
            }
            let start = offset - offset % PAGE;
            let len = (offset + len).min(self.len) - start;
            let advice = match advice {
                Advice::Normal => MADV_NORMAL,
                Advice::Random => MADV_RANDOM,
                Advice::Sequential => MADV_SEQUENTIAL,
                Advice::WillNeed => MADV_WILLNEED,
            };
            // SAFETY: `[start, start + len)` lies inside the live mapping
            // and `start` is page-aligned (mmap returns page-aligned
            // addresses and `start` is a multiple of PAGE).
            let rc = unsafe { madvise((self.ptr as usize + start) as *mut c_void, len, advice) };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            if self.len != 0 {
                // SAFETY: `ptr`/`len` describe the mapping created in
                // `map`, unmapped exactly once here.
                unsafe { munmap(self.ptr, self.len) };
            }
        }
    }
}

#[cfg(not(unix))]
mod imp {
    use super::Advice;
    use std::fs::File;
    use std::io::{self, Read};

    /// Heap-backed fallback: a copy of the file in a `u64` allocation so
    /// the base address is 8-byte aligned like a real mapping.
    #[derive(Debug)]
    pub struct Mmap {
        buf: Vec<u64>,
        len: usize,
    }

    impl Mmap {
        /// Read `file` into an aligned heap buffer.
        pub fn map(file: &File) -> io::Result<Mmap> {
            let mut bytes = Vec::new();
            let mut file = file.try_clone()?;
            file.read_to_end(&mut bytes)?;
            let len = bytes.len();
            let mut buf = vec![0u64; len.div_ceil(8)];
            // SAFETY: u64 -> u8 reinterpretation of an owned buffer; the
            // byte view covers exactly the allocation prefix we wrote.
            unsafe {
                std::ptr::copy_nonoverlapping(bytes.as_ptr(), buf.as_mut_ptr() as *mut u8, len);
            }
            Ok(Mmap { buf, len })
        }

        /// The buffered bytes.
        pub fn as_slice(&self) -> &[u8] {
            // SAFETY: the prefix of the u64 allocation was filled from the
            // file; reading it as bytes is always valid.
            unsafe { std::slice::from_raw_parts(self.buf.as_ptr() as *const u8, self.len) }
        }

        /// Access advice is meaningless for a heap copy; always succeeds.
        pub fn advise_range(&self, _offset: usize, _len: usize, _advice: Advice) -> io::Result<()> {
            Ok(())
        }
    }
}

pub use imp::Mmap;

impl Mmap {
    /// Map (or, on non-unix targets, copy) `file` read-only.
    pub fn map_file(file: &File) -> io::Result<Mmap> {
        Mmap::map(file)
    }

    /// Number of mapped bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Advise the kernel about the access pattern of the whole mapping.
    pub fn advise(&self, advice: Advice) -> io::Result<()> {
        self.advise_range(0, self.len(), advice)
    }
}

impl std::ops::Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("mmap_compat_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}_{}", std::process::id()))
    }

    #[test]
    fn maps_file_contents() {
        let path = temp_path("contents");
        let payload: Vec<u8> = (0..10_000u32).flat_map(|x| x.to_le_bytes()).collect();
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&payload)
            .unwrap();
        let map = Mmap::map_file(&std::fs::File::open(&path).unwrap()).unwrap();
        assert_eq!(map.len(), payload.len());
        assert_eq!(&map[..], &payload[..]);
        // The base address is 8-byte aligned, as the slab readers require.
        assert_eq!(map.as_slice().as_ptr() as usize % 8, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = temp_path("empty");
        std::fs::File::create(&path).unwrap();
        let map = Mmap::map_file(&std::fs::File::open(&path).unwrap()).unwrap();
        assert!(map.is_empty());
        assert_eq!(map.as_slice(), &[] as &[u8]);
        map.advise(Advice::Sequential).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn advice_is_accepted_over_subranges() {
        let path = temp_path("advice");
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&vec![7u8; 64 * 1024])
            .unwrap();
        let map = Mmap::map_file(&std::fs::File::open(&path).unwrap()).unwrap();
        map.advise(Advice::Random).unwrap();
        map.advise_range(5000, 9000, Advice::WillNeed).unwrap();
        map.advise_range(0, map.len(), Advice::Sequential).unwrap();
        assert!(map.advise_range(map.len() + 1, 1, Advice::Normal).is_err());
        std::fs::remove_file(&path).ok();
    }
}
