//! On-disk CSR slab format: the serialization behind out-of-core training.
//!
//! A *slab* is one file holding a rating matrix in **both** orientations
//! (`R` user×movie and `Rᵀ` movie×item), laid out so the big arrays can be
//! consumed directly from a memory map with zero parsing: every section
//! starts on an 8-byte boundary, arrays are stored little-endian in native
//! widths (`u64` row pointers, `u32` column indices, `f64` values), and an
//! endianness tag makes a foreign-byte-order file a typed error instead of
//! garbage.
//!
//! ```text
//!  byte  0  magic      "BPMFSLAB"
//!        8  version    u32 (= 1)        12  flags u32 (bit 0: CRC table)
//!       16  endian tag u64 (0x0102030405060708, read back natively)
//!       24  nrows u64   32  ncols u64   40  nnz u64
//!       48  global_mean f64
//!       56  n_extents u64
//!       64  section table: 6 × { offset u64, bytes u64 }
//!           [ r.row_ptr | r.col_idx | r.values
//!           | rt.row_ptr | rt.col_idx | rt.values ]
//!      160  extent table: n_extents × { row_lo u64, row_hi u64 }
//!       …   CRC table (when flag bit 0 set): 8 × u32
//!           [ six section CRC32Cs | header CRC32C | reserved 0 ]
//!       …   the six sections, in table order, each 8-byte aligned
//! ```
//!
//! The CRC table makes corruption a *typed* failure on every load path:
//! the header CRC covers everything before the table (magic through the
//! extent table), each section CRC covers that section's exact on-disk
//! bytes, and [`SlabView::parse`] verifies all of them before handing out
//! zero-copy views — a torn write, a truncated file, or a flipped bit
//! surfaces as [`SlabError::Corrupt`], never as garbage factors. Writers
//! always stamp the table ([`write_slab`] sets flag bit 0); readers accept
//! flag-clear legacy slabs unverified and refuse unknown flag bits.
//!
//! *Extents* are contiguous, covering user-row ranges — the same
//! consecutive blocks [`BlockPartition`](crate::BlockPartition) hands to
//! the samplers (§IV-B of the paper) — so a reader can prefetch or
//! release one scheduler block's rows at a time.
//!
//! This module owns the bytes: writing ([`write_slab`]) and the validated
//! zero-copy view ([`SlabView`]). The memory-mapped store that feeds the
//! samplers lives in the core crate (`bpmf::store::MappedSlab`).

use std::fmt;
use std::io::Write;

use crate::crc::{crc32c, Crc32c};
use crate::csr::Csr;
use crate::partition::{BlockPartition, WorkModel};

/// First 8 bytes of every slab file.
pub const SLAB_MAGIC: [u8; 8] = *b"BPMFSLAB";

/// Current slab layout version.
pub const SLAB_VERSION: u32 = 1;

/// Header flag bit 0: a CRC32C table follows the extent table.
pub const SLAB_FLAG_SECTION_CRCS: u32 = 1;

/// Flag bits this build understands; anything else is a typed refusal.
const SLAB_FLAGS_KNOWN: u32 = SLAB_FLAG_SECTION_CRCS;

/// Size of the CRC table: six section CRCs, one header CRC, one reserved
/// zero word (keeps the table — and thus the first section — 8-aligned).
const CRC_TABLE_BYTES: usize = 32;

/// Native-read check value: reads back as written only on a
/// matching-endianness host.
const ENDIAN_TAG: u64 = 0x0102_0304_0506_0708;

/// Byte offset of the section table (end of the fixed header).
const SECTION_TABLE_AT: usize = 64;

/// Byte offset of the extent table.
const EXTENT_TABLE_AT: usize = 160;

/// Errors from slab writing or parsing.
#[derive(Debug)]
pub enum SlabError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structurally invalid slab bytes.
    Format(String),
    /// Structurally plausible bytes that fail checksum verification —
    /// a torn write, truncation landing inside a section, or bit rot.
    Corrupt(String),
}

impl fmt::Display for SlabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlabError::Io(e) => write!(f, "slab I/O error: {e}"),
            SlabError::Format(msg) => write!(f, "invalid slab: {msg}"),
            SlabError::Corrupt(msg) => write!(f, "corrupt slab: {msg}"),
        }
    }
}

impl std::error::Error for SlabError {}

impl From<std::io::Error> for SlabError {
    fn from(e: std::io::Error) -> Self {
        SlabError::Io(e)
    }
}

fn bad(msg: impl Into<String>) -> SlabError {
    SlabError::Format(msg.into())
}

fn corrupt(msg: impl Into<String>) -> SlabError {
    SlabError::Corrupt(msg.into())
}

/// `Write` sink that folds everything written into a CRC32C — lets the
/// writer checksum a section via the exact same encode path
/// ([`Section::write_to`]) that later produces the on-disk bytes.
struct CrcSink(Crc32c);

impl Write for CrcSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Workload-balanced user-row extents for a slab: the contiguous covering
/// ranges [`BlockPartition::weighted`] produces under the default
/// [`WorkModel`], i.e. exactly the blocks the samplers schedule.
pub fn slab_extents(r: &Csr, nblocks: usize) -> Vec<(usize, usize)> {
    let nblocks = nblocks.clamp(1, r.nrows().max(1));
    let weights = WorkModel::default().row_weights(r);
    BlockPartition::weighted(&weights, nblocks)
        .ranges()
        .iter()
        .map(|range| (range.start, range.end))
        .collect()
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Pad `written` up to the next 8-byte boundary.
fn pad8<W: Write>(w: &mut W, written: u64) -> std::io::Result<u64> {
    let pad = (8 - (written % 8) as usize) % 8;
    if pad > 0 {
        w.write_all(&[0u8; 8][..pad])?;
    }
    Ok(written + pad as u64)
}

/// Serialize `r` (and its transpose `rt`) as a slab.
///
/// `extents` must be contiguous, non-overlapping ranges covering
/// `0..r.nrows()` in order — pass [`slab_extents`] unless a specific
/// partition is wanted. Returns the total bytes written.
pub fn write_slab<W: Write>(
    w: &mut W,
    r: &Csr,
    rt: &Csr,
    global_mean: f64,
    extents: &[(usize, usize)],
) -> Result<u64, SlabError> {
    if r.nrows() != rt.ncols() || r.ncols() != rt.nrows() || r.nnz() != rt.nnz() {
        return Err(bad(format!(
            "rt ({}x{}, {} nnz) is not shaped as the transpose of r ({}x{}, {} nnz)",
            rt.nrows(),
            rt.ncols(),
            rt.nnz(),
            r.nrows(),
            r.ncols(),
            r.nnz()
        )));
    }
    validate_extents(extents, r.nrows()).map_err(|msg| bad(format!("extents: {msg}")))?;

    let (r_ptr, r_col, r_val) = r.raw_parts();
    let (rt_ptr, rt_col, rt_val) = rt.raw_parts();
    let section_bytes = [
        (r_ptr.len() * 8) as u64,
        (r_col.len() * 4) as u64,
        (r_val.len() * 8) as u64,
        (rt_ptr.len() * 8) as u64,
        (rt_col.len() * 4) as u64,
        (rt_val.len() * 8) as u64,
    ];
    // Section offsets: sequential from the end of the CRC table (which
    // follows the extent table), each aligned up to 8 bytes.
    let crc_table_at = EXTENT_TABLE_AT + extents.len() * 16;
    let mut offsets = [0u64; 6];
    let mut at = (crc_table_at + CRC_TABLE_BYTES) as u64;
    for (i, &bytes) in section_bytes.iter().enumerate() {
        at = at.next_multiple_of(8);
        offsets[i] = at;
        at += bytes;
    }

    let sections = [
        Section::Ptr(r_ptr),
        Section::Col(r_col),
        Section::Val(r_val),
        Section::Ptr(rt_ptr),
        Section::Col(rt_col),
        Section::Val(rt_val),
    ];

    // Checksum pre-pass: the CRC table lives in the header, which goes out
    // before any section bytes, and `w` is not seekable — so run each
    // section through the encoder once into a CRC sink first.
    let mut section_crcs = [0u32; 6];
    for (i, section) in sections.iter().enumerate() {
        let mut sink = CrcSink(Crc32c::new());
        let streamed = section.write_to(&mut sink)?;
        debug_assert_eq!(streamed, section_bytes[i]);
        section_crcs[i] = sink.0.finish();
    }

    let mut header = Vec::with_capacity(crc_table_at + CRC_TABLE_BYTES);
    header.extend_from_slice(&SLAB_MAGIC);
    header.extend_from_slice(&SLAB_VERSION.to_le_bytes());
    header.extend_from_slice(&SLAB_FLAG_SECTION_CRCS.to_le_bytes());
    push_u64(&mut header, ENDIAN_TAG);
    push_u64(&mut header, r.nrows() as u64);
    push_u64(&mut header, r.ncols() as u64);
    push_u64(&mut header, r.nnz() as u64);
    push_u64(&mut header, global_mean.to_bits());
    push_u64(&mut header, extents.len() as u64);
    debug_assert_eq!(header.len(), SECTION_TABLE_AT);
    for i in 0..6 {
        push_u64(&mut header, offsets[i]);
        push_u64(&mut header, section_bytes[i]);
    }
    debug_assert_eq!(header.len(), EXTENT_TABLE_AT);
    for &(lo, hi) in extents {
        push_u64(&mut header, lo as u64);
        push_u64(&mut header, hi as u64);
    }
    debug_assert_eq!(header.len(), crc_table_at);
    // CRC table: six section CRCs, then a header CRC over everything
    // before the table itself, then a reserved zero word.
    let header_crc = crc32c(&header);
    for crc in section_crcs {
        header.extend_from_slice(&crc.to_le_bytes());
    }
    header.extend_from_slice(&header_crc.to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes());
    w.write_all(&header)?;
    let mut written = header.len() as u64;

    // Sections in table order. The row pointers are widened to u64 on the
    // way out; columns and values are already in their on-disk width.
    for (i, section) in sections.into_iter().enumerate() {
        written = pad8(w, written)?;
        debug_assert_eq!(written, offsets[i]);
        written += section.write_to(w)?;
    }
    Ok(written)
}

enum Section<'a> {
    Ptr(&'a [usize]),
    Col(&'a [u32]),
    Val(&'a [f64]),
}

impl Section<'_> {
    fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<u64> {
        // Buffered chunked encode: bounded scratch regardless of nnz.
        let mut buf = Vec::with_capacity(64 * 1024);
        let mut total = 0u64;
        macro_rules! stream {
            ($items:expr, $to_bytes:expr) => {
                for item in $items {
                    buf.extend_from_slice(&$to_bytes(item));
                    if buf.len() >= 64 * 1024 {
                        w.write_all(&buf)?;
                        total += buf.len() as u64;
                        buf.clear();
                    }
                }
            };
        }
        match self {
            Section::Ptr(ptr) => stream!(ptr.iter(), |p: &usize| (*p as u64).to_le_bytes()),
            Section::Col(col) => stream!(col.iter(), |c: &u32| c.to_le_bytes()),
            Section::Val(val) => stream!(val.iter(), |v: &f64| v.to_le_bytes()),
        }
        w.write_all(&buf)?;
        total += buf.len() as u64;
        Ok(total)
    }
}

fn validate_extents(extents: &[(usize, usize)], nrows: usize) -> Result<(), String> {
    if extents.is_empty() {
        return Err("no extents (need at least one covering range)".to_string());
    }
    let mut at = 0usize;
    for (i, &(lo, hi)) in extents.iter().enumerate() {
        if lo != at || hi < lo {
            return Err(format!(
                "extent {i} is [{lo}, {hi}) but rows covered so far end at {at} \
                 (extents must be contiguous, ordered, and covering)"
            ));
        }
        at = hi;
    }
    if at != nrows {
        return Err(format!(
            "extents cover 0..{at} but the matrix has {nrows} rows"
        ));
    }
    Ok(())
}

/// One CSR orientation inside a parsed [`SlabView`], borrowed zero-copy
/// from the slab bytes.
#[derive(Clone, Copy, Debug)]
pub struct SlabCsrView<'a> {
    /// Row pointers (`nrows + 1` entries, `row_ptr[0] == 0`, last `== nnz`).
    pub row_ptr: &'a [u64],
    /// Concatenated column indices.
    pub col_idx: &'a [u32],
    /// Concatenated values, parallel to `col_idx`.
    pub values: &'a [f64],
}

/// A validated, zero-copy view over slab bytes (a memory map or any
/// 8-byte-aligned buffer).
#[derive(Clone, Debug)]
pub struct SlabView<'a> {
    /// Users (rows of `R`).
    pub nrows: usize,
    /// Items (columns of `R`).
    pub ncols: usize,
    /// Stored ratings.
    pub nnz: usize,
    /// Global mean rating, computed at pack time over exactly the stored
    /// ratings (bit-identical to what in-RAM loading computes).
    pub global_mean: f64,
    /// Contiguous covering user-row ranges (scheduler blocks).
    pub extents: Vec<(usize, usize)>,
    /// `R`, user-major.
    pub r: SlabCsrView<'a>,
    /// `Rᵀ`, item-major.
    pub rt: SlabCsrView<'a>,
}

/// Read a little-endian `u64` at `at` (bounds already checked by caller).
fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// Read a little-endian `u32` at `at` (bounds already checked by caller).
fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

/// Reinterpret an aligned byte range as a typed slice.
///
/// SAFETY-relevant preconditions, all checked by the caller
/// ([`SlabView::parse`]): the range lies inside `bytes`, its length is an
/// exact multiple of `size_of::<T>()`, and both the base pointer of
/// `bytes` and the range offset are 8-byte aligned. `T` is one of
/// `u32`/`u64`/`f64`, all of which tolerate any bit pattern.
unsafe fn cast_section<T: Copy>(bytes: &[u8], offset: usize, len_bytes: usize) -> &[T] {
    let ptr = bytes.as_ptr().add(offset) as *const T;
    std::slice::from_raw_parts(ptr, len_bytes / std::mem::size_of::<T>())
}

impl<'a> SlabView<'a> {
    /// Parse and validate `bytes` as a slab.
    ///
    /// `bytes` must start on an 8-byte boundary (true for a memory map or
    /// a `u64`-backed buffer; checked, not assumed) so the array sections
    /// can be viewed in place without copying.
    pub fn parse(bytes: &'a [u8]) -> Result<SlabView<'a>, SlabError> {
        if !(bytes.as_ptr() as usize).is_multiple_of(8) {
            return Err(bad(
                "slab buffer is not 8-byte aligned (map the file or use an aligned buffer)",
            ));
        }
        if bytes.len() < EXTENT_TABLE_AT {
            return Err(bad(format!(
                "{} bytes is shorter than the {EXTENT_TABLE_AT}-byte header",
                bytes.len()
            )));
        }
        if bytes[..8] != SLAB_MAGIC {
            return Err(bad("bad magic (not a BPMF slab file)"));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != SLAB_VERSION {
            return Err(bad(format!(
                "unsupported slab version {version} (this build reads version {SLAB_VERSION})"
            )));
        }
        let flags = u32_at(bytes, 12);
        if flags & !SLAB_FLAGS_KNOWN != 0 {
            return Err(bad(format!(
                "unknown slab flags {flags:#x} (this build understands {SLAB_FLAGS_KNOWN:#x})"
            )));
        }
        let has_crcs = flags & SLAB_FLAG_SECTION_CRCS != 0;
        if u64_at(bytes, 16) != ENDIAN_TAG {
            return Err(bad(
                "endianness mismatch: slab was written on a foreign-byte-order host",
            ));
        }
        let nrows = u64_at(bytes, 24) as usize;
        let ncols = u64_at(bytes, 32) as usize;
        let nnz = u64_at(bytes, 40) as usize;
        let global_mean = f64::from_bits(u64_at(bytes, 48));
        let n_extents = u64_at(bytes, 56) as usize;

        let extent_table_bytes = n_extents
            .checked_mul(16)
            .ok_or_else(|| bad("extent count overflows"))?;
        let crc_table_at = EXTENT_TABLE_AT
            .checked_add(extent_table_bytes)
            .filter(|&end| end <= bytes.len())
            .ok_or_else(|| bad("extent table runs past end of file"))?;
        let body_at = if has_crcs {
            let end = crc_table_at
                .checked_add(CRC_TABLE_BYTES)
                .filter(|&end| end <= bytes.len())
                .ok_or_else(|| bad("CRC table runs past end of file"))?;
            // Header CRC first: everything parsed below (dims, section
            // table, extents) is covered by it, so a flipped bit in any
            // of those fields is caught here rather than downstream.
            let stored = u32_at(bytes, crc_table_at + 24);
            let computed = crc32c(&bytes[..crc_table_at]);
            if stored != computed {
                return Err(corrupt(format!(
                    "header checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
                )));
            }
            end
        } else {
            crc_table_at
        };
        let mut extents = Vec::with_capacity(n_extents);
        for i in 0..n_extents {
            let at = EXTENT_TABLE_AT + i * 16;
            extents.push((u64_at(bytes, at) as usize, u64_at(bytes, at + 8) as usize));
        }
        validate_extents(&extents, nrows).map_err(|msg| bad(format!("extents: {msg}")))?;

        // Section table: six (offset, bytes) pairs with expected sizes.
        let expected = [
            ((nrows + 1) * 8, "r.row_ptr"),
            (nnz * 4, "r.col_idx"),
            (nnz * 8, "r.values"),
            ((ncols + 1) * 8, "rt.row_ptr"),
            (nnz * 4, "rt.col_idx"),
            (nnz * 8, "rt.values"),
        ];
        let mut sections = [(0usize, 0usize); 6];
        for (i, &(want_bytes, name)) in expected.iter().enumerate() {
            let at = SECTION_TABLE_AT + i * 16;
            let offset = u64_at(bytes, at) as usize;
            let len = u64_at(bytes, at + 8) as usize;
            if len != want_bytes {
                return Err(bad(format!(
                    "section {name}: {len} bytes on disk but the header dims imply {want_bytes}"
                )));
            }
            if !offset.is_multiple_of(8) || offset < body_at {
                return Err(bad(format!("section {name}: misaligned offset {offset}")));
            }
            let end = offset
                .checked_add(len)
                .filter(|&end| end <= bytes.len())
                .ok_or_else(|| {
                    if has_crcs {
                        // The header's own CRC already verified, so its
                        // promise of these bytes is trustworthy — the
                        // file lost them: a truncated or torn write, not
                        // a structurally alien format.
                        corrupt(format!("section {name} runs past end of file"))
                    } else {
                        bad(format!("section {name} runs past end of file"))
                    }
                })?;
            let _ = end;
            sections[i] = (offset, len);
        }

        // Section payloads verify against the CRC table before any bytes
        // are handed out as typed slices.
        if has_crcs {
            for (i, &(offset, len)) in sections.iter().enumerate() {
                let stored = u32_at(bytes, crc_table_at + i * 4);
                let computed = crc32c(&bytes[offset..offset + len]);
                if stored != computed {
                    return Err(corrupt(format!(
                        "section {} checksum mismatch (stored {stored:#010x}, \
                         computed {computed:#010x})",
                        expected[i].1
                    )));
                }
            }
        }

        // SAFETY: offsets/lengths were bounds-checked and 8-aligned above,
        // and the buffer base is 8-aligned; see `cast_section`.
        let view = unsafe {
            SlabView {
                nrows,
                ncols,
                nnz,
                global_mean,
                extents,
                r: SlabCsrView {
                    row_ptr: cast_section(bytes, sections[0].0, sections[0].1),
                    col_idx: cast_section(bytes, sections[1].0, sections[1].1),
                    values: cast_section(bytes, sections[2].0, sections[2].1),
                },
                rt: SlabCsrView {
                    row_ptr: cast_section(bytes, sections[3].0, sections[3].1),
                    col_idx: cast_section(bytes, sections[4].0, sections[4].1),
                    values: cast_section(bytes, sections[5].0, sections[5].1),
                },
            }
        };
        view.validate_row_ptrs()?;
        Ok(view)
    }

    /// Row pointers are the trusted indices into the data arrays — verify
    /// both orientations are monotone and anchored before anyone slices
    /// with them.
    fn validate_row_ptrs(&self) -> Result<(), SlabError> {
        for (name, orient, domain) in [("r", &self.r, self.ncols), ("rt", &self.rt, self.nrows)] {
            let ptr = orient.row_ptr;
            if ptr.first() != Some(&0) || ptr.last() != Some(&(self.nnz as u64)) {
                return Err(bad(format!(
                    "{name}.row_ptr must start at 0 and end at nnz ({})",
                    self.nnz
                )));
            }
            if ptr.windows(2).any(|w| w[0] > w[1]) {
                return Err(bad(format!("{name}.row_ptr is not monotone")));
            }
            if orient.col_idx.iter().any(|&c| c as usize >= domain) {
                return Err(bad(format!("{name}.col_idx holds an out-of-range column")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn example() -> (Csr, Csr) {
        let mut coo = Coo::new(5, 4);
        for (i, j, v) in [
            (0, 1, 1.5),
            (0, 3, -2.0),
            (2, 0, 0.25),
            (4, 2, 9.0),
            (4, 3, 0.125),
        ] {
            coo.push(i, j, v);
        }
        let r = Csr::from_coo_owned(coo);
        let rt = r.transpose();
        (r, rt)
    }

    /// Write a slab into an 8-byte-aligned buffer and parse it back.
    fn roundtrip(r: &Csr, rt: &Csr, mean: f64, extents: &[(usize, usize)]) -> Vec<u64> {
        let mut bytes = Vec::new();
        let written = write_slab(&mut bytes, r, rt, mean, extents).unwrap();
        assert_eq!(written as usize, bytes.len());
        let mut aligned = vec![0u64; bytes.len().div_ceil(8)];
        // SAFETY: u64 allocation viewed as bytes; copy covers the prefix.
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                aligned.as_mut_ptr() as *mut u8,
                bytes.len(),
            );
        }
        aligned
    }

    fn view_of(buf: &[u64], len: usize) -> SlabView<'_> {
        SlabView::parse(bytes_of(buf, len)).unwrap()
    }

    /// Byte view over the aligned test buffer.
    fn bytes_of(buf: &[u64], len: usize) -> &[u8] {
        assert!(len <= buf.len() * 8);
        // SAFETY: reading the u64 buffer as its byte prefix.
        unsafe { std::slice::from_raw_parts(buf.as_ptr() as *const u8, len) }
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let (r, rt) = example();
        let extents = slab_extents(&r, 2);
        let mut bytes = Vec::new();
        let len = write_slab(&mut bytes, &r, &rt, 1.25, &extents).unwrap() as usize;
        let buf = roundtrip(&r, &rt, 1.25, &extents);
        let view = view_of(&buf, len);

        assert_eq!((view.nrows, view.ncols, view.nnz), (5, 4, 5));
        assert_eq!(view.global_mean.to_bits(), 1.25f64.to_bits());
        assert_eq!(view.extents, extents);
        let (ptr, col, val) = r.raw_parts();
        let as_u64: Vec<u64> = ptr.iter().map(|&p| p as u64).collect();
        assert_eq!(view.r.row_ptr, &as_u64[..]);
        assert_eq!(view.r.col_idx, col);
        assert_eq!(
            view.r
                .values
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            val.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        let (tptr, tcol, tval) = rt.raw_parts();
        let t_u64: Vec<u64> = tptr.iter().map(|&p| p as u64).collect();
        assert_eq!(view.rt.row_ptr, &t_u64[..]);
        assert_eq!(view.rt.col_idx, tcol);
        assert_eq!(view.rt.values.len(), tval.len());
    }

    #[test]
    fn empty_matrix_and_single_extent_roundtrip() {
        let r = Csr::from_coo_owned(Coo::new(3, 2));
        let rt = r.transpose();
        let extents = [(0usize, 3usize)];
        let mut bytes = Vec::new();
        let len = write_slab(&mut bytes, &r, &rt, 0.0, &extents).unwrap() as usize;
        let buf = roundtrip(&r, &rt, 0.0, &extents);
        let view = view_of(&buf, len);
        assert_eq!(view.nnz, 0);
        assert_eq!(view.r.row_ptr, &[0u64; 4][..]);
        assert!(view.r.col_idx.is_empty());
    }

    #[test]
    fn slab_extents_cover_and_follow_the_partition() {
        let (r, _) = example();
        for blocks in [1, 2, 5, 99] {
            let extents = slab_extents(&r, blocks);
            validate_extents(&extents, r.nrows()).unwrap();
            assert!(extents.len() <= r.nrows());
        }
    }

    #[test]
    fn corrupt_slabs_are_typed_errors() {
        let (r, rt) = example();
        let extents = slab_extents(&r, 2);
        let mut bytes = Vec::new();
        let len = write_slab(&mut bytes, &r, &rt, 0.5, &extents).unwrap() as usize;
        let good = roundtrip(&r, &rt, 0.5, &extents);

        // Truncated file: the (CRC-verified) header promises bytes the
        // file no longer has, so this classifies as corruption — the
        // class the serving supervisor quarantines on — not as a
        // structurally alien format.
        let mut short = good.clone();
        let err = SlabView::parse(bytes_of(&short, len - 9)).unwrap_err();
        assert!(matches!(err, SlabError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("corrupt slab"), "{err}");

        // Bad magic.
        short = good.clone();
        short[0] = 0;
        assert!(SlabView::parse(bytes_of(&short, len))
            .unwrap_err()
            .to_string()
            .contains("magic"));

        // Future version.
        let mut vers = good.clone();
        bytes_mut(&mut vers, len)[8] = 99;
        assert!(SlabView::parse(bytes_of(&vers, len))
            .unwrap_err()
            .to_string()
            .contains("version"));

        // Misaligned buffer.
        let mut raw = vec![0u8; len + 1];
        raw[1..].copy_from_slice(bytes_of(&good, len));
        if !(raw[1..].as_ptr() as usize).is_multiple_of(8) {
            assert!(SlabView::parse(&raw[1..])
                .unwrap_err()
                .to_string()
                .contains("aligned"));
        }
    }

    /// Mutable byte view over the aligned test buffer.
    fn bytes_mut(buf: &mut [u64], len: usize) -> &mut [u8] {
        assert!(len <= buf.len() * 8);
        // SAFETY: reading/writing the u64 buffer as its byte prefix.
        unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut u8, len) }
    }

    #[test]
    fn bit_flips_are_corrupt_errors_on_every_covered_byte_class() {
        let (r, rt) = example();
        let extents = slab_extents(&r, 2);
        let mut bytes = Vec::new();
        let len = write_slab(&mut bytes, &r, &rt, 0.5, &extents).unwrap() as usize;
        let good = roundtrip(&r, &rt, 0.5, &extents);

        // A flipped bit in the header (nrows) trips the header CRC before
        // the bogus dimension can misdirect section parsing.
        let mut hdr = good.clone();
        bytes_mut(&mut hdr, len)[24] ^= 0x04;
        let err = SlabView::parse(&bytes_mut(&mut hdr, len)[..]).unwrap_err();
        assert!(
            matches!(err, SlabError::Corrupt(_)) || matches!(err, SlabError::Format(_)),
            "{err}"
        );

        // A flipped bit in the last section byte trips that section's CRC.
        let mut tail = good.clone();
        bytes_mut(&mut tail, len)[len - 1] ^= 0x80;
        let err = SlabView::parse(&bytes_mut(&mut tail, len)[..]).unwrap_err();
        assert!(matches!(err, SlabError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("checksum"), "{err}");

        // A flipped bit in the CRC table itself also refuses to load.
        let crc_table_at = EXTENT_TABLE_AT + extents.len() * 16;
        let mut table = good.clone();
        bytes_mut(&mut table, len)[crc_table_at] ^= 0x01;
        let err = SlabView::parse(&bytes_mut(&mut table, len)[..]).unwrap_err();
        assert!(matches!(err, SlabError::Corrupt(_)), "{err}");
    }

    #[test]
    fn legacy_flag_clear_slabs_parse_unverified() {
        let (r, rt) = example();
        let extents = slab_extents(&r, 1);
        let mut bytes = Vec::new();
        let len = write_slab(&mut bytes, &r, &rt, 0.5, &extents).unwrap() as usize;
        let mut buf = roundtrip(&r, &rt, 0.5, &extents);

        // Clear the flags word: pre-CRC slabs carried a zero there. The
        // stale CRC table region just becomes dead bytes before the first
        // section, and a payload flip goes (by design) undetected.
        bytes_mut(&mut buf, len)[12..16].fill(0);
        bytes_mut(&mut buf, len)[len - 1] ^= 0x80;
        let view = view_of(&buf, len);
        assert_eq!(view.nnz, r.nnz());
    }

    #[test]
    fn unknown_flag_bits_are_refused() {
        let (r, rt) = example();
        let extents = slab_extents(&r, 1);
        let mut bytes = Vec::new();
        let len = write_slab(&mut bytes, &r, &rt, 0.5, &extents).unwrap() as usize;
        let mut buf = roundtrip(&r, &rt, 0.5, &extents);
        bytes_mut(&mut buf, len)[12] |= 0x80;
        let err = SlabView::parse(&bytes_mut(&mut buf, len)[..]).unwrap_err();
        assert!(err.to_string().contains("unknown slab flags"), "{err}");
    }

    #[test]
    fn mismatched_transpose_is_rejected_at_write_time() {
        let (r, _) = example();
        let not_t = r.clone();
        let mut bytes = Vec::new();
        let err = write_slab(&mut bytes, &r, &not_t, 0.0, &slab_extents(&r, 1)).unwrap_err();
        assert!(err.to_string().contains("transpose"), "{err}");
    }

    #[test]
    fn bad_extents_are_rejected() {
        let (r, rt) = example();
        for bad_extents in [
            vec![],
            vec![(0, 3)],
            vec![(1, 5)],
            vec![(0, 3), (4, 5)],
            vec![(0, 6)],
        ] {
            let mut bytes = Vec::new();
            assert!(
                write_slab(&mut bytes, &r, &rt, 0.0, &bad_extents).is_err(),
                "{bad_extents:?} should be rejected"
            );
        }
    }
}
