//! Rating stores: where the sampler's rating matrix actually lives.
//!
//! BPMF's Gibbs sweep only ever *reads* the rating matrix, one CSR row at
//! a time, in whatever order the scheduler picks. That access pattern is
//! the whole contract, and [`RatingStore`] captures it, so the sampler no
//! longer cares whether the bytes are
//!
//! * **in RAM** — today's [`Csr`] (every existing call site: `&Csr`
//!   coerces straight to `&dyn RatingStore`), or
//! * **on disk** — a [`MappedSlab`]: the `bpmf-train pack` slab file
//!   (see `bpmf_sparse::slab` for the layout) opened through a read-only
//!   memory map, where the kernel pages rating blocks in on demand and is
//!   free to drop clean pages under memory pressure. Only the row
//!   pointers are materialized on the heap (they are the per-row index
//!   and two orders of magnitude smaller than the payload); column
//!   indices and values are served from the mapping itself, so peak
//!   training RSS stays far below the matrix's in-RAM footprint.
//!
//! ```text
//!                 TrainData { r, rt: &dyn RatingStore, … }
//!                       /                      \
//!              &Csr (in RAM)            MappedSlab::open("r.slab")
//!                                        ├─ r()  ─ SlabCsr ─┐ zero-copy
//!                                        └─ rt() ─ SlabCsr ─┘ views into
//!                                                     the mmap'd sections
//! ```
//!
//! Algorithms that genuinely need the whole matrix resident (ALS / SGD
//! epoch shuffles, the distributed driver's partition exchange, serving's
//! exclude-seen filter) ask for it via [`RatingStore::as_csr`] and get a
//! typed [`BpmfError::Unsupported`] when training out-of-core, instead of
//! silently paging the world back in.

use std::fmt;
use std::fs::File;
use std::path::Path;

use bpmf_sparse::{Csr, SlabView, WorkModel};
use mmap::{Advice, Mmap};

use crate::BpmfError;

/// Read-only, row-oriented access to one orientation of the rating
/// matrix — the exact surface the Gibbs sweep consumes.
pub trait RatingStore: Sync {
    /// Rows in this orientation.
    fn nrows(&self) -> usize;
    /// Columns in this orientation.
    fn ncols(&self) -> usize;
    /// Stored ratings.
    fn nnz(&self) -> usize;
    /// CSR arrays: `(row_ptr, col_idx, values)`.
    fn raw_parts(&self) -> (&[usize], &[u32], &[f64]);

    /// One row's `(column indices, values)`.
    fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let (ptr, col, val) = self.raw_parts();
        let (lo, hi) = (ptr[i], ptr[i + 1]);
        (&col[lo..hi], &val[lo..hi])
    }

    /// Ratings in row `i`.
    fn row_nnz(&self, i: usize) -> usize {
        let ptr = self.raw_parts().0;
        ptr[i + 1] - ptr[i]
    }

    /// The backing [`Csr`], if this store is fully resident. Algorithms
    /// that must own the whole matrix (ALS/SGD/distributed/serving
    /// filters) gate on this and report `Unsupported` for `None`.
    fn as_csr(&self) -> Option<&Csr> {
        None
    }

    /// Hint that rows `lo..hi` are about to be read. No-op for resident
    /// stores; a mapped slab forwards `madvise(WILLNEED)` over the
    /// corresponding byte ranges so the kernel starts read-ahead.
    fn prefetch_rows(&self, lo: usize, hi: usize) {
        let _ = (lo, hi);
    }

    /// Heap bytes this store owns (excludes file-backed mapped bytes) —
    /// the number the out-of-core RSS accounting reports.
    fn heap_bytes(&self) -> usize;
}

impl RatingStore for Csr {
    fn nrows(&self) -> usize {
        Csr::nrows(self)
    }

    fn ncols(&self) -> usize {
        Csr::ncols(self)
    }

    fn nnz(&self) -> usize {
        Csr::nnz(self)
    }

    fn raw_parts(&self) -> (&[usize], &[u32], &[f64]) {
        Csr::raw_parts(self)
    }

    fn row(&self, i: usize) -> (&[u32], &[f64]) {
        Csr::row(self, i)
    }

    fn as_csr(&self) -> Option<&Csr> {
        Some(self)
    }

    fn heap_bytes(&self) -> usize {
        let (ptr, col, val) = Csr::raw_parts(self);
        std::mem::size_of_val(ptr) + col.len() * 4 + val.len() * 8
    }
}

/// Per-row scheduler weights for any store, identical to
/// [`WorkModel::row_weights`] on the backing [`Csr`] (same arithmetic on
/// the same row counts), so switching stores cannot perturb the partition.
pub fn store_row_weights(model: &WorkModel, store: &dyn RatingStore) -> Vec<f64> {
    let ptr = store.raw_parts().0;
    ptr.windows(2).map(|w| model.weight(w[1] - w[0])).collect()
}

/// One orientation of a [`MappedSlab`]: heap row pointers + zero-copy
/// column/value slices into the mapping.
#[derive(Clone, Copy)]
pub struct SlabCsr<'a> {
    row_ptr: &'a [usize],
    col_idx: &'a [u32],
    values: &'a [f64],
    ncols: usize,
    /// `(map, col_idx byte offset, values byte offset)` for prefetch.
    advise: (&'a Mmap, usize, usize),
}

impl RatingStore for SlabCsr<'_> {
    fn nrows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    fn ncols(&self) -> usize {
        self.ncols
    }

    fn nnz(&self) -> usize {
        self.values.len()
    }

    fn raw_parts(&self) -> (&[usize], &[u32], &[f64]) {
        (self.row_ptr, self.col_idx, self.values)
    }

    fn prefetch_rows(&self, lo: usize, hi: usize) {
        let (map, col_at, val_at) = self.advise;
        let (lo, hi) = (lo.min(self.nrows()), hi.min(self.nrows()));
        if lo >= hi {
            return;
        }
        let (a, b) = (self.row_ptr[lo], self.row_ptr[hi]);
        // Advice is best-effort; a refusal must never fail a sweep.
        let _ = map.advise_range(col_at + a * 4, (b - a) * 4, Advice::WillNeed);
        let _ = map.advise_range(val_at + a * 8, (b - a) * 8, Advice::WillNeed);
    }

    fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(self.row_ptr)
    }
}

impl fmt::Debug for SlabCsr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlabCsr")
            .field("nrows", &self.nrows())
            .field("ncols", &self.ncols)
            .field("nnz", &self.nnz())
            .finish()
    }
}

/// A packed rating slab opened through a read-only memory map.
///
/// Holds both orientations of the matrix. The column-index and value
/// arrays stay in the mapping (the kernel pages them); only the row
/// pointers (and the extent table) are materialized on the heap, widened
/// once to `usize` so [`RatingStore::raw_parts`] is free.
pub struct MappedSlab {
    map: Mmap,
    nrows: usize,
    ncols: usize,
    nnz: usize,
    global_mean: f64,
    extents: Vec<(usize, usize)>,
    r_ptr: Vec<usize>,
    rt_ptr: Vec<usize>,
    // Byte offsets of the four payload sections inside the mapping.
    r_col_at: usize,
    r_val_at: usize,
    rt_col_at: usize,
    rt_val_at: usize,
}

impl MappedSlab {
    /// Map and validate a slab file written by `bpmf-train pack`
    /// (`bpmf_sparse::write_slab`).
    pub fn open(path: &Path) -> Result<MappedSlab, BpmfError> {
        let err = |what: &str, e: &dyn fmt::Display| {
            BpmfError::Store(format!("{what} {}: {e}", path.display()))
        };
        let file = File::open(path).map_err(|e| err("cannot open", &e))?;
        let map = Mmap::map_file(&file).map_err(|e| err("cannot map", &e))?;
        let (meta, offsets);
        {
            // Checksum failures keep their own typed identity so callers
            // (supervisor, resume paths) can distinguish "corrupt artifact,
            // quarantine it" from ordinary open/parse failures.
            let view = SlabView::parse(&map).map_err(|e| match e {
                bpmf_sparse::SlabError::Corrupt(msg) => {
                    BpmfError::Integrity(format!("slab {}: {msg}", path.display()))
                }
                other => err("cannot read", &other),
            })?;
            let base = map.as_slice().as_ptr() as usize;
            offsets = (
                view.r.col_idx.as_ptr() as usize - base,
                view.r.values.as_ptr() as usize - base,
                view.rt.col_idx.as_ptr() as usize - base,
                view.rt.values.as_ptr() as usize - base,
            );
            meta = (
                view.nrows,
                view.ncols,
                view.nnz,
                view.global_mean,
                view.extents.clone(),
                view.r.row_ptr.iter().map(|&p| p as usize).collect(),
                view.rt.row_ptr.iter().map(|&p| p as usize).collect(),
            );
        }
        let (nrows, ncols, nnz, global_mean, extents, r_ptr, rt_ptr) = meta;
        Ok(MappedSlab {
            map,
            nrows,
            ncols,
            nnz,
            global_mean,
            extents,
            r_ptr,
            rt_ptr,
            r_col_at: offsets.0,
            r_val_at: offsets.1,
            rt_col_at: offsets.2,
            rt_val_at: offsets.3,
        })
    }

    /// Users (rows of `R`).
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Items (columns of `R`).
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Stored ratings.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Global mean rating recorded at pack time (bit-identical to what
    /// in-RAM loading computes over the same ratings).
    pub fn global_mean(&self) -> f64 {
        self.global_mean
    }

    /// User-row extents recorded at pack time — the scheduler blocks the
    /// slab was partitioned into.
    pub fn extents(&self) -> &[(usize, usize)] {
        &self.extents
    }

    /// The user-major orientation (`R`) as a rating store.
    pub fn r(&self) -> SlabCsr<'_> {
        self.orientation(&self.r_ptr, self.r_col_at, self.r_val_at, self.ncols)
    }

    /// The item-major orientation (`Rᵀ`) as a rating store.
    pub fn rt(&self) -> SlabCsr<'_> {
        self.orientation(&self.rt_ptr, self.rt_col_at, self.rt_val_at, self.nrows)
    }

    fn orientation<'a>(
        &'a self,
        row_ptr: &'a [usize],
        col_at: usize,
        val_at: usize,
        ncols: usize,
    ) -> SlabCsr<'a> {
        let bytes = self.map.as_slice();
        // SAFETY: the offsets were computed by `SlabView::parse` from this
        // very mapping at open time: in bounds, 8-byte aligned, and sized
        // exactly `nnz` elements each; the mapping lives as long as `self`.
        let (col_idx, values) = unsafe {
            (
                std::slice::from_raw_parts(bytes.as_ptr().add(col_at) as *const u32, self.nnz),
                std::slice::from_raw_parts(bytes.as_ptr().add(val_at) as *const f64, self.nnz),
            )
        };
        SlabCsr {
            row_ptr,
            col_idx,
            values,
            ncols,
            advise: (&self.map, col_at, val_at),
        }
    }

    /// Heap bytes owned by the store (both row-pointer arrays + extent
    /// table). The payload stays file-backed and is *not* counted — that
    /// is the point of the slab.
    pub fn heap_bytes(&self) -> usize {
        (self.r_ptr.len() + self.rt_ptr.len()) * std::mem::size_of::<usize>()
            + self.extents.len() * 16
    }

    /// Bytes the equivalent fully-resident [`Csr`] pair would occupy on
    /// the heap — the in-RAM footprint the slab avoids.
    pub fn in_ram_matrix_bytes(&self) -> usize {
        let ptrs = (self.nrows + 1 + self.ncols + 1) * std::mem::size_of::<usize>();
        ptrs + self.nnz * (4 + 8) * 2
    }
}

impl fmt::Debug for MappedSlab {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MappedSlab")
            .field("nrows", &self.nrows)
            .field("ncols", &self.ncols)
            .field("nnz", &self.nnz)
            .field("extents", &self.extents.len())
            .field("heap_bytes", &self.heap_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpmf_sparse::{slab_extents, write_slab, Coo};
    use std::io::Write as _;

    fn sample_csr(n_users: usize, n_items: usize, seed: u64) -> Csr {
        let mut coo = Coo::new(n_users, n_items);
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        for u in 0..n_users {
            for i in 0..n_items {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state.is_multiple_of(3) {
                    coo.push(u, i, ((state >> 8) % 9) as f64 / 2.0 - 2.0);
                }
            }
        }
        Csr::from_coo_owned(coo)
    }

    fn pack_to_temp(r: &Csr, rt: &Csr, mean: f64, name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("bpmf_store_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}_{}.slab", std::process::id()));
        let mut out = Vec::new();
        write_slab(&mut out, r, rt, mean, &slab_extents(r, 4)).unwrap();
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&out)
            .unwrap();
        path
    }

    #[test]
    fn mapped_slab_matches_in_memory_csr_bitwise() {
        let r = sample_csr(23, 17, 7);
        let rt = r.transpose();
        let path = pack_to_temp(&r, &rt, 1.75, "bitwise");
        let slab = MappedSlab::open(&path).unwrap();

        for (mem, disk) in [(&r, slab.r()), (&rt, slab.rt())] {
            assert_eq!(RatingStore::nrows(mem), disk.nrows());
            assert_eq!(RatingStore::ncols(mem), disk.ncols());
            assert_eq!(RatingStore::nnz(mem), disk.nnz());
            let (mp, mc, mv) = Csr::raw_parts(mem);
            let (dp, dc, dv) = disk.raw_parts();
            assert_eq!(mp, dp);
            assert_eq!(mc, dc);
            assert!(mv.iter().zip(dv).all(|(a, b)| a.to_bits() == b.to_bits()));
            for i in 0..Csr::nrows(mem) {
                assert_eq!(Csr::row(mem, i), disk.row(i));
            }
        }
        assert_eq!(slab.global_mean().to_bits(), 1.75f64.to_bits());
        assert!(slab.heap_bytes() < slab.in_ram_matrix_bytes());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn store_row_weights_match_workmodel_row_weights() {
        let r = sample_csr(31, 9, 3);
        let wm = WorkModel::default();
        let direct = wm.row_weights(&r);
        let via_store = store_row_weights(&wm, &r);
        assert_eq!(
            direct.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
            via_store.iter().map(|w| w.to_bits()).collect::<Vec<_>>()
        );

        let rt = r.transpose();
        let path = pack_to_temp(&r, &rt, 0.0, "weights");
        let slab = MappedSlab::open(&path).unwrap();
        let slab_r = slab.r();
        let via_slab = store_row_weights(&wm, &slab_r);
        assert_eq!(
            direct.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
            via_slab.iter().map(|w| w.to_bits()).collect::<Vec<_>>()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn prefetch_and_as_csr_behave() {
        let r = sample_csr(12, 12, 11);
        let rt = r.transpose();
        let path = pack_to_temp(&r, &rt, 0.5, "prefetch");
        let slab = MappedSlab::open(&path).unwrap();
        let view = slab.r();
        assert!(view.as_csr().is_none(), "a mapped slab is not resident");
        assert!(RatingStore::as_csr(&r).is_some());
        // Best-effort hints: must not panic anywhere in range or beyond.
        view.prefetch_rows(0, view.nrows());
        view.prefetch_rows(3, 5);
        view.prefetch_rows(100, 200);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_junk_files() {
        let dir = std::env::temp_dir().join("bpmf_store_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("junk_{}.slab", std::process::id()));
        std::fs::File::create(&path)
            .unwrap()
            .write_all(b"not a slab at all")
            .unwrap();
        let err = MappedSlab::open(&path).unwrap_err();
        assert!(matches!(err, BpmfError::Store(_)), "{err}");
        assert!(MappedSlab::open(Path::new("/no/such/file.slab")).is_err());
        std::fs::remove_file(&path).ok();
    }
}
