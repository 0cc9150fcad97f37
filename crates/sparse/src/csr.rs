//! Compressed sparse row matrix.

use crate::coo::Coo;
use crate::reorder::Permutation;

/// Compressed-sparse-row matrix with `f64` values and `u32` column indices.
///
/// BPMF keeps two of these per dataset: `R` (users × movies) for the user
/// pass and `Rᵀ` (movies × users) for the movie pass, so each pass walks a
/// contiguous row of exactly the ratings it needs.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl Csr {
    /// Freeze a triplet builder, sorting rows and summing duplicates.
    pub fn from_coo(coo: &Coo) -> Self {
        Self::build(coo.nrows(), coo.ncols(), coo.entries().to_vec())
    }

    /// Freeze a triplet builder by value (avoids one copy of the triplets).
    pub fn from_coo_owned(coo: Coo) -> Self {
        let (nrows, ncols, entries) = coo.into_entries();
        Self::build(nrows, ncols, entries)
    }

    fn build(nrows: usize, ncols: usize, entries: Vec<(u32, u32, f64)>) -> Self {
        // Counting sort by row, then per-row sort by column. Rows in rating
        // data are short (tens of entries), so the per-row sorts are cheap.
        let mut counts = vec![0usize; nrows + 1];
        for &(r, _, _) in &entries {
            counts[r as usize + 1] += 1;
        }
        for i in 0..nrows {
            counts[i + 1] += counts[i];
        }
        let row_ptr_unmerged = counts.clone();
        let mut col_idx = vec![0u32; entries.len()];
        let mut values = vec![0.0f64; entries.len()];
        let mut cursor = counts;
        for (r, c, v) in entries {
            let slot = cursor[r as usize];
            col_idx[slot] = c;
            values[slot] = v;
            cursor[r as usize] += 1;
        }

        // Sort each row by column and merge duplicate coordinates.
        let mut merged_col: Vec<u32> = Vec::with_capacity(col_idx.len());
        let mut merged_val: Vec<f64> = Vec::with_capacity(values.len());
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        row_ptr.push(0usize);
        let mut pairs: Vec<(u32, f64)> = Vec::new();
        for r in 0..nrows {
            let (lo, hi) = (row_ptr_unmerged[r], row_ptr_unmerged[r + 1]);
            pairs.clear();
            pairs.extend(
                col_idx[lo..hi]
                    .iter()
                    .copied()
                    .zip(values[lo..hi].iter().copied()),
            );
            pairs.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < pairs.len() {
                let (c, mut v) = pairs[i];
                let mut j = i + 1;
                while j < pairs.len() && pairs[j].0 == c {
                    v += pairs[j].1;
                    j += 1;
                }
                merged_col.push(c);
                merged_val.push(v);
                i = j;
            }
            row_ptr.push(merged_col.len());
        }

        Csr {
            nrows,
            ncols,
            row_ptr,
            col_idx: merged_col,
            values: merged_val,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Column indices and values of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Number of entries in row `i` (the item's rating count — the quantity
    /// the paper's workload model and kernel threshold key on).
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// Iterate all `(row, col, value)` entries in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u32, f64)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter().zip(vals).map(move |(&c, &v)| (r, c, v))
        })
    }

    /// Transposed copy (CSR of `Rᵀ`), counting-sort based, `O(nnz + dims)`.
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        let mut cursor = counts;
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let slot = cursor[c as usize];
                col_idx[slot] = r as u32;
                values[slot] = v;
                cursor[c as usize] += 1;
            }
        }
        // Rows are visited in increasing order, so each transposed row is
        // already sorted by column.
        Csr {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Apply row and column permutations: entry `(i, j)` moves to
    /// `(rows.new_of(i), cols.new_of(j))`.
    pub fn permute(&self, rows: &Permutation, cols: &Permutation) -> Csr {
        assert_eq!(rows.len(), self.nrows, "row permutation length mismatch");
        assert_eq!(cols.len(), self.ncols, "column permutation length mismatch");
        let mut coo = Coo::with_capacity(self.nrows, self.ncols, self.nnz());
        for (r, c, v) in self.iter() {
            coo.push(rows.new_of(r), cols.new_of(c as usize), v);
        }
        Csr::from_coo_owned(coo)
    }

    /// Raw CSR arrays `(row_ptr, col_idx, values)` — the layout vertex
    /// engines and kernels consume directly.
    pub fn raw_parts(&self) -> (&[usize], &[u32], &[f64]) {
        (&self.row_ptr, &self.col_idx, &self.values)
    }

    /// Mean entries per row.
    pub fn mean_row_nnz(&self) -> f64 {
        if self.nrows == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.nrows as f64
        }
    }

    /// Largest row length.
    pub fn max_row_nnz(&self) -> usize {
        (0..self.nrows).map(|i| self.row_nnz(i)).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> Csr {
        let mut coo = Coo::new(3, 4);
        coo.push(0, 1, 1.0);
        coo.push(0, 3, 2.0);
        coo.push(1, 0, 3.0);
        coo.push(2, 2, 4.0);
        coo.push(2, 0, 5.0);
        Csr::from_coo(&coo)
    }

    #[test]
    fn rows_are_sorted_and_complete() {
        let m = example();
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.row(0), (&[1u32, 3][..], &[1.0, 2.0][..]));
        assert_eq!(m.row(1), (&[0u32][..], &[3.0][..]));
        assert_eq!(m.row(2), (&[0u32, 2][..], &[5.0, 4.0][..]));
    }

    #[test]
    fn duplicates_are_summed() {
        let mut coo = Coo::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(0, 1, 2.5);
        coo.push(1, 0, -1.0);
        let m = Csr::from_coo(&coo);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.row(0), (&[1u32][..], &[3.5][..]));
    }

    #[test]
    fn transpose_flips_entries() {
        let m = example();
        let t = m.transpose();
        assert_eq!(t.nrows(), 4);
        assert_eq!(t.ncols(), 3);
        assert_eq!(t.row(0), (&[1u32, 2][..], &[3.0, 5.0][..]));
        assert_eq!(t.row(3), (&[0u32][..], &[2.0][..]));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn iter_yields_all_entries() {
        let m = example();
        let collected: Vec<_> = m.iter().collect();
        assert_eq!(collected.len(), 5);
        assert!(collected.contains(&(2usize, 0u32, 5.0)));
    }

    #[test]
    fn empty_rows_are_fine() {
        let coo = Coo::new(4, 4); // no entries at all
        let m = Csr::from_coo(&coo);
        assert_eq!(m.nnz(), 0);
        for i in 0..4 {
            assert_eq!(m.row_nnz(i), 0);
        }
        assert_eq!(m.max_row_nnz(), 0);
    }

    #[test]
    fn degrees_match_rows() {
        let m = example();
        let degrees: Vec<usize> = (0..m.nrows()).map(|i| m.row_nnz(i)).collect();
        assert_eq!(degrees, vec![2, 1, 2]);
        assert_eq!(m.max_row_nnz(), 2);
        assert!((m.mean_row_nnz() - 5.0 / 3.0).abs() < 1e-12);
    }
}
