//! Minimal sparse-matrix support for the LP solvers.
//!
//! Only the operations the solvers actually need are implemented: building a
//! matrix from a model's flat rows, row-major (CSR) and column-major (CSC) storage,
//! matrix–vector products in both orientations, and infinity-norm row/column
//! scaling used by the Ruiz preconditioner in [`crate::pdhg`].
//!
//! Deliberately omitted (not needed here): arithmetic between matrices,
//! factorizations, and any `unsafe` indexing tricks.

/// A sparse matrix in compressed-sparse-row format.
///
/// Rows are stored contiguously: the column indices and values of row `i`
/// live in `col_idx[row_ptr[i]..row_ptr[i+1]]` / `values[...]`. Duplicate
/// entries are combined at construction time.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix of `cols` columns from flat rows: row `i` is
    /// `terms[row_ptr[i]..row_ptr[i + 1]]`, `(column, value)` pairs in any
    /// order, each row through [`CsrMatrix::push_row`].
    ///
    /// # Panics
    /// Panics if a column is out of bounds — models are constructed by
    /// this crate's own code, so an out-of-bounds term is a logic error.
    pub(crate) fn from_rows(cols: usize, row_ptr: &[usize], terms: &[(usize, f64)]) -> Self {
        let rows = row_ptr.len() - 1;
        let mut out = CsrMatrix {
            rows,
            cols,
            row_ptr: Vec::with_capacity(rows + 1),
            col_idx: Vec::with_capacity(terms.len()),
            values: Vec::with_capacity(terms.len()),
        };
        out.row_ptr.push(0);
        let mut scratch = Vec::new();
        for ends in row_ptr.windows(2) {
            out.push_row(&terms[ends[0]..ends[1]], &mut scratch);
        }
        out
    }

    /// Appends one row: its terms sorted by column (`sort_unstable_by_key`)
    /// and the terms of one column summed in the order the sort leaves
    /// them. Explicit zeros produced by cancellation are kept (they are
    /// harmless and rare in LP models). A row already strictly ascending is
    /// merged as it stands: that is the one order any sort gives it, and it
    /// has nothing to sum. `scratch` holds the copy an unsorted row is
    /// sorted in.
    fn push_row(&mut self, row: &[(usize, f64)], scratch: &mut Vec<(usize, f64)>) {
        let sorted = if row.windows(2).all(|p| p[0].0 < p[1].0) {
            row
        } else {
            scratch.clear();
            scratch.extend_from_slice(row);
            scratch.sort_unstable_by_key(|&(c, _)| c);
            scratch
        };
        if let Some(&(c, _)) = sorted.last() {
            assert!(c < self.cols, "column {c} out of {}", self.cols);
        }
        let mut k = 0;
        while k < sorted.len() {
            let (c, mut v) = sorted[k];
            k += 1;
            while k < sorted.len() && sorted[k].0 == c {
                v += sorted[k].1;
                k += 1;
            }
            self.col_idx.push(c);
            self.values.push(v);
        }
        self.row_ptr.push(self.col_idx.len());
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates over the `(column, value)` entries of row `i`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi].iter().copied().zip(self.values[lo..hi].iter().copied())
    }

    /// Computes `out = self * x`.
    pub fn mul_vec(&self, x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(x.len(), self.cols);
        debug_assert_eq!(out.len(), self.rows);
        for (i, out_i) in out.iter_mut().enumerate().take(self.rows) {
            let mut acc = 0.0;
            for p in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.values[p] * x[self.col_idx[p]];
            }
            *out_i = acc;
        }
    }

    /// Computes `out = self^T * y`, skipping the rows where `y` is zero — in
    /// a PDHG iteration about four in five (DESIGN.md § The iteration kernel),
    /// at a simplex pricing step nearly all of them.
    #[inline(never)]
    pub fn mul_transpose_vec(&self, y: &[f64], out: &mut [f64]) {
        debug_assert_eq!(y.len(), self.rows);
        debug_assert_eq!(out.len(), self.cols);
        out.fill(0.0);
        for (i, &yi) in y.iter().enumerate().take(self.rows) {
            if yi == 0.0 {
                continue;
            }
            for p in self.row_ptr[i]..self.row_ptr[i + 1] {
                out[self.col_idx[p]] += self.values[p] * yi;
            }
        }
    }

    /// Infinity norm (max absolute value) of each row.
    pub(crate) fn row_inf_norms(&self) -> Vec<f64> {
        let mut norms = vec![0.0f64; self.rows];
        for (i, norm) in norms.iter_mut().enumerate().take(self.rows) {
            for p in self.row_ptr[i]..self.row_ptr[i + 1] {
                *norm = norm.max(self.values[p].abs());
            }
        }
        norms
    }

    /// Infinity norm of each column.
    pub(crate) fn col_inf_norms(&self) -> Vec<f64> {
        let mut norms = vec![0.0f64; self.cols];
        for p in 0..self.values.len() {
            let c = self.col_idx[p];
            norms[c] = norms[c].max(self.values[p].abs());
        }
        norms
    }

    /// Scales the matrix in place: entry `(i, j)` becomes
    /// `row_scale[i] * a_ij * col_scale[j]`.
    pub(crate) fn scale(&mut self, row_scale: &[f64], col_scale: &[f64]) {
        debug_assert_eq!(row_scale.len(), self.rows);
        debug_assert_eq!(col_scale.len(), self.cols);
        for (i, &rs) in row_scale.iter().enumerate().take(self.rows) {
            for p in self.row_ptr[i]..self.row_ptr[i + 1] {
                self.values[p] *= rs * col_scale[self.col_idx[p]];
            }
        }
    }

    /// Estimates the spectral norm ‖A‖₂ by power iteration on `AᵀA`.
    ///
    /// Used to pick valid PDHG step sizes; a slight overestimate is safe, so
    /// the result is inflated by 1%.
    pub(crate) fn spectral_norm_estimate(&self, iterations: usize) -> f64 {
        if self.nnz() == 0 {
            return 0.0;
        }
        let mut v = vec![1.0; self.cols];
        let mut av = vec![0.0; self.rows];
        let mut atav = vec![0.0; self.cols];
        let mut norm = 0.0;
        for _ in 0..iterations {
            let vnorm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if vnorm == 0.0 {
                return 0.0;
            }
            for x in v.iter_mut() {
                *x /= vnorm;
            }
            self.mul_vec(&v, &mut av);
            self.mul_transpose_vec(&av, &mut atav);
            norm = atav.iter().map(|x| x * x).sum::<f64>().sqrt().sqrt();
            std::mem::swap(&mut v, &mut atav);
        }
        norm * 1.01
    }

    /// Copies the rows into the sliced layout [`SlicedRows::mul_vec`] reads.
    pub fn to_sliced(&self) -> SlicedRows {
        let len = |i: usize| self.row_ptr[i + 1] - self.row_ptr[i];
        let mut order: Vec<usize> = (0..self.rows).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(len(i)));
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        for rows in order.chunks(LANES) {
            let depth = if rows.len() == LANES { len(rows[LANES - 1]) } else { 0 };
            for k in 0..depth {
                col_idx.extend(rows.iter().map(|&r| self.col_idx[self.row_ptr[r] + k]));
                values.extend(rows.iter().map(|&r| self.values[self.row_ptr[r] + k]));
            }
            for &r in rows {
                let tail = self.row_ptr[r] + depth..self.row_ptr[r + 1];
                col_idx.extend_from_slice(&self.col_idx[tail.clone()]);
                values.extend_from_slice(&self.values[tail]);
            }
        }
        let lens = order.iter().map(|&i| len(i)).collect();
        SlicedRows { order, lens, col_idx, values }
    }

    /// Converts to column-major storage.
    pub(crate) fn to_csc(&self) -> CscMatrix {
        let mut out = CscMatrix::default();
        self.to_csc_into(&mut out);
        out
    }

    /// [`CsrMatrix::to_csc`] into an existing matrix, reusing its storage.
    pub(crate) fn to_csc_into(&self, out: &mut CscMatrix) {
        out.rows = self.rows;
        out.cols = self.cols;
        let col_ptr = &mut out.col_ptr;
        col_ptr.clear();
        col_ptr.resize(self.cols + 1, 0);
        for &c in &self.col_idx {
            col_ptr[c + 1] += 1;
        }
        for j in 0..self.cols {
            col_ptr[j + 1] += col_ptr[j];
        }
        out.row_idx.clear();
        out.row_idx.resize(self.nnz(), 0);
        out.values.clear();
        out.values.resize(self.nnz(), 0.0);
        let mut cursor = col_ptr.clone();
        for i in 0..self.rows {
            for p in self.row_ptr[i]..self.row_ptr[i + 1] {
                let c = self.col_idx[p];
                let q = cursor[c];
                out.row_idx[q] = i;
                out.values[q] = self.values[p];
                cursor[c] += 1;
            }
        }
    }
}

/// The lowering before flat rows, kept as the reference the parity test
/// in `model.rs` holds [`CsrMatrix::from_rows`] to.
#[cfg(test)]
impl CsrMatrix {
    /// Builds a CSR matrix from `(row, col, value)` triplets.
    ///
    /// Triplets may arrive in any order; entries with the same coordinates
    /// are summed. Explicit zeros produced by cancellation are kept (they are
    /// harmless and rare in LP models).
    ///
    /// # Panics
    /// Panics if any triplet is out of bounds — models are constructed by
    /// this crate's own code, so an out-of-bounds triplet is a logic error.
    pub(crate) fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Self {
        for &(r, c, _) in triplets {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of {rows}x{cols}");
        }
        // Count entries per row, then bucket-sort triplets into place.
        let mut counts = vec![0usize; rows + 1];
        for &(r, _, _) in triplets {
            counts[r + 1] += 1;
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        let mut col_idx = vec![0usize; triplets.len()];
        let mut values = vec![0f64; triplets.len()];
        let mut cursor = counts.clone();
        for &(r, c, v) in triplets {
            let p = cursor[r];
            col_idx[p] = c;
            values[p] = v;
            cursor[r] += 1;
        }
        // Within each row: sort by column and combine duplicates, which are
        // summed in the order the unstable sort leaves them. One buffer
        // serves every row.
        let mut out_col = Vec::with_capacity(triplets.len());
        let mut out_val = Vec::with_capacity(triplets.len());
        let mut out_ptr = Vec::with_capacity(rows + 1);
        out_ptr.push(0);
        let mut entries: Vec<(usize, f64)> = Vec::new();
        for i in 0..rows {
            let (start, end) = (counts[i], counts[i + 1]);
            entries.clear();
            entries.extend(
                col_idx[start..end].iter().copied().zip(values[start..end].iter().copied()),
            );
            entries.sort_unstable_by_key(|&(c, _)| c);
            let mut k = 0;
            while k < entries.len() {
                let c = entries[k].0;
                let mut v = entries[k].1;
                let mut j = k + 1;
                while j < entries.len() && entries[j].0 == c {
                    v += entries[j].1;
                    j += 1;
                }
                out_col.push(c);
                out_val.push(v);
                k = j;
            }
            out_ptr.push(out_col.len());
        }
        CsrMatrix { rows, cols, row_ptr: out_ptr, col_idx: out_col, values: out_val }
    }
}

/// Rows a [`SlicedRows`] slice advances together: eight independent sums
/// are two AVX2 accumulators, enough to cover the latency of a floating-point
/// add. A constant, not a knob.
const LANES: usize = 8;

/// A [`CsrMatrix`] copied for `K·x` alone, laid out so that eight row
/// sums advance in lock-step instead of one serial add chain per row.
///
/// Rows are sorted by length, longest first, and cut into slices of
/// eight (`LANES`). A slice stores the first `depth` entries of each of its rows
/// slot-major (entry 0 of every row, then entry 1, …), `depth` being the
/// length of its shortest row, and then what is left of each row
/// contiguously. Every row keeps its entries in CSR order and there is no
/// padding slot, so each sum adds the same products in the same order as
/// [`CsrMatrix::mul_vec`] and is equal to it bit for bit for any `x` (a
/// padding `0.0 · x[0]` would be NaN where `x[0]` is infinite). Built by
/// [`CsrMatrix::to_sliced`].
#[derive(Debug, Clone)]
pub struct SlicedRows {
    /// Row numbers, longest row first.
    order: Vec<usize>,
    /// Length of each row of `order`.
    lens: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl SlicedRows {
    /// Computes `out = K * x`, bit for bit what [`CsrMatrix::mul_vec`] does.
    #[inline(never)]
    pub fn mul_vec(&self, x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.order.len());
        // `acc + Σ v·x[c]` over the entries `at`, in order.
        let finish = |acc: f64, at: std::ops::Range<usize>| {
            let entries = self.col_idx[at.clone()].iter().zip(&self.values[at]);
            entries.fold(acc, |acc, (&c, &v)| acc + v * x[c])
        };
        let full = self.order.len() / LANES * LANES;
        let slices =
            self.order[..full].chunks_exact(LANES).zip(self.lens[..full].chunks_exact(LANES));
        let mut p = 0;
        for (rows, lens) in slices {
            let depth = lens[LANES - 1];
            let lock = p..p + depth * LANES;
            p = lock.end;
            let slots = self.col_idx[lock.clone()]
                .chunks_exact(LANES)
                .zip(self.values[lock].chunks_exact(LANES));
            let mut acc = [0.0; LANES];
            for (c, v) in slots {
                for l in 0..LANES {
                    acc[l] += v[l] * x[c[l]];
                }
            }
            // Few rows have a tail: slices are mostly of one length.
            for l in 0..LANES {
                let tail = p..p + (lens[l] - depth);
                p = tail.end;
                out[rows[l]] = if tail.is_empty() { acc[l] } else { finish(acc[l], tail) };
            }
        }
        for (&r, &len) in self.order[full..].iter().zip(&self.lens[full..]) {
            out[r] = finish(0.0, p..p + len);
            p += len;
        }
    }
}

/// A sparse matrix in compressed-sparse-column format.
///
/// Used by the simplex solver, which gathers one column at a time.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct CscMatrix {
    rows: usize,
    cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Iterates over the `(row, value)` entries of column `j`.
    pub(crate) fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        self.row_idx[lo..hi].iter().copied().zip(self.values[lo..hi].iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [ 1 0 2 ]
        // [ 0 3 0 ]
        CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)])
    }

    #[test]
    fn from_triplets_combines_duplicates() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.5), (1, 1, -1.0)]);
        assert_eq!(m.nnz(), 2);
        let row0: Vec<_> = m.row(0).collect();
        assert_eq!(row0, vec![(0, 3.5)]);
    }

    #[test]
    fn from_triplets_sorts_columns_within_rows() {
        let m = CsrMatrix::from_triplets(1, 4, &[(0, 3, 1.0), (0, 0, 2.0), (0, 2, 3.0)]);
        let cols: Vec<_> = m.row(0).map(|(c, _)| c).collect();
        assert_eq!(cols, vec![0, 2, 3]);
    }

    #[test]
    fn mul_vec_matches_dense() {
        let m = sample();
        let mut out = vec![0.0; 2];
        m.mul_vec(&[1.0, 2.0, 3.0], &mut out);
        assert_eq!(out, vec![7.0, 6.0]);
    }

    #[test]
    fn mul_transpose_vec_matches_dense() {
        let m = sample();
        let mut out = vec![0.0; 3];
        m.mul_transpose_vec(&[1.0, 2.0], &mut out);
        assert_eq!(out, vec![1.0, 6.0, 2.0]);
    }

    #[test]
    fn norms() {
        let m = sample();
        assert_eq!(m.row_inf_norms(), vec![2.0, 3.0]);
        assert_eq!(m.col_inf_norms(), vec![1.0, 3.0, 2.0]);
    }

    #[test]
    fn scale_applies_both_sides() {
        let mut m = sample();
        m.scale(&[2.0, 1.0], &[1.0, 0.5, 1.0]);
        let mut out = vec![0.0; 2];
        m.mul_vec(&[1.0, 1.0, 1.0], &mut out);
        assert_eq!(out, vec![6.0, 1.5]);
    }

    #[test]
    fn csc_roundtrip() {
        let m = sample();
        let c = m.to_csc();
        assert_eq!(c.values.len(), m.nnz());
        let col2: Vec<_> = c.col(2).collect();
        assert_eq!(col2, vec![(0, 2.0)]);
    }

    #[test]
    fn spectral_norm_estimate_bounds_identity() {
        let m = CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]);
        let n = m.spectral_norm_estimate(50);
        assert!((1.0..1.1).contains(&n), "estimate {n}");
    }

    #[test]
    fn empty_matrix_is_fine() {
        let m = CsrMatrix::from_triplets(2, 2, &[]);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.spectral_norm_estimate(10), 0.0);
        let mut out = vec![1.0; 2];
        m.mul_vec(&[1.0, 1.0], &mut out);
        assert_eq!(out, vec![0.0, 0.0]);
    }
}
