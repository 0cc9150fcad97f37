//! Concurrent disjoint-row writer: the one place the workspace hands out
//! rows of one buffer to several threads at once.

use std::marker::PhantomData;

use crate::Mat;

/// A `&mut` borrow of a row-major buffer that lets multiple workers write
/// *disjoint* rows concurrently.
///
/// The borrow checker cannot express "each worker writes only the rows of
/// the items it executes", which is the access pattern of every parallel
/// writer in this workspace: the Gibbs and ALS sweeps (item `i` writes
/// factor row `i`, and a runner hands out each item exactly once), the
/// kernel pool's per-chunk partials and Cholesky row blocks (chunk `c`
/// writes entry `c`), and the SGD strata (a worker owns its row and column
/// blocks and their biases). This wrapper states the pattern once and keeps
/// the `unsafe` confined to one audited place.
///
/// A writer is built from a [`Mat`] (rows of `cols` entries) or from a
/// slice of any element type, read as a one-column matrix (rows of one
/// entry). It holds the `&'a mut` borrow it was built
/// from, so nothing else can read or write the buffer while it lives.
pub struct MatWriter<'a, T> {
    ptr: *mut T,
    rows: usize,
    cols: usize,
    _borrow: PhantomData<&'a mut [T]>,
}

// SAFETY: the writer only ever yields `&mut T` views (never shared `&T`
// ones), each to a row the caller vouches no other thread holds, so
// handing it to or sharing it across threads needs exactly what moving a
// `&mut T` to another thread needs: `T: Send`.
unsafe impl<T: Send> Send for MatWriter<'_, T> {}
// SAFETY: as for `Send` above.
unsafe impl<T: Send> Sync for MatWriter<'_, T> {}

impl<'a> MatWriter<'a, f64> {
    /// Rows of a matrix, `m.cols()` entries each.
    pub fn new(m: &'a mut Mat) -> Self {
        let (rows, cols) = (m.rows(), m.cols());
        MatWriter {
            ptr: m.as_mut_slice().as_mut_ptr(),
            rows,
            cols,
            _borrow: PhantomData,
        }
    }
}

impl<'a, T> MatWriter<'a, T> {
    /// Entries of a slice, one row each.
    pub fn from_slice(s: &'a mut [T]) -> Self {
        MatWriter {
            ptr: s.as_mut_ptr(),
            rows: s.len(),
            cols: 1,
            _borrow: PhantomData,
        }
    }

    /// Mutable view of row `i`.
    ///
    /// # Panics
    ///
    /// If `i` is not a row of the buffer.
    ///
    /// # Safety
    ///
    /// At most one live reference per row: the caller must guarantee that
    /// no two calls whose results are alive at the same time receive the
    /// same `i`.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn row_mut(&self, i: usize) -> &mut [T] {
        assert!(i < self.rows, "row {i} of {}", self.rows);
        // SAFETY: `i < rows` keeps the row inside the borrowed buffer, the
        // writer holds that borrow exclusively, and the caller guarantees
        // no other live reference to row `i`.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(i * self.cols), self.cols) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_rows_can_be_written_in_parallel() {
        let rows = 64;
        let cols = 8;
        let mut m = Mat::zeros(rows, cols);
        let writer = MatWriter::new(&mut m);
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let writer = &writer;
                scope.spawn(move || {
                    for i in (t..rows).step_by(4) {
                        // SAFETY: strided ranges are disjoint across threads.
                        let row = unsafe { writer.row_mut(i) };
                        for (c, v) in row.iter_mut().enumerate() {
                            *v = (i * cols + c) as f64;
                        }
                    }
                });
            }
        });
        for i in 0..rows {
            for c in 0..cols {
                assert_eq!(m[(i, c)], (i * cols + c) as f64);
            }
        }
    }

    #[test]
    fn slice_entries_are_rows_of_one() {
        let mut v = vec![0u32; 10];
        let writer = MatWriter::from_slice(&mut v);
        for i in 0..10 {
            // SAFETY: one row at a time on one thread.
            let row = unsafe { writer.row_mut(i) };
            assert_eq!(row.len(), 1);
            row[0] = i as u32 * 3;
        }
        assert_eq!(v, (0..10).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "row 4 of 4")]
    fn out_of_range_rows_panic() {
        let mut m = Mat::zeros(4, 2);
        let writer = MatWriter::new(&mut m);
        // SAFETY: the bounds check fires before any view is made.
        let _ = unsafe { writer.row_mut(4) };
    }
}
