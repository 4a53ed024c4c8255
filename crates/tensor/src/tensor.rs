//! Dense 2-D tensor in row-major layout.
//!
//! Everything in the EAGLE agent is expressible with rank-2 tensors (a batch of
//! vectors, a weight matrix, a sequence of embeddings), so the engine deliberately
//! supports only rank 2: it keeps indexing, broadcasting and the autodiff rules simple
//! and auditable. A row vector is `(1, n)`; a scalar is `(1, 1)`.

use std::fmt;

/// Threshold (in multiply-adds, `m * n * k`) above which [`Tensor::matmul`]
/// shards the computation across threads. Counting flops rather than output
/// elements keeps skinny products with a large inner dimension (e.g. `64x1024
/// @ 1024x8`) on the parallel path and tiny-`k` products off it, where thread
/// spawn overhead would dominate.
///
/// Re-measured for the cache-blocked kernel with the `matmul_bench` bin
/// (see `results/BENCH_matmul.json`): a `crossbeam::scope` round costs
/// roughly 100us of spawn overhead while the serial blocked kernel streams
/// ~11G multiply-adds/sec, so sharding across `T` threads only wins once the
/// saved work `(1 - 1/T) * t_serial` exceeds the spawn cost — at `T = 4`
/// that puts the crossover in the 1-2M multiply-add range. `128^3` (~2.1M)
/// sits just above it; below, the serial blocked kernel wins even with
/// spare cores.
pub const PAR_MATMUL_THRESHOLD: usize = 128 * 128 * 128;

/// Worker threads available for sharded matmuls — the workspace-wide cached
/// host parallelism (shared with the rollout engine's worker resolution, and
/// overridable per-run via `eagle_obs::set_available_workers`).
fn matmul_threads() -> usize {
    eagle_obs::available_workers()
}

/// A dense matrix of `f32` values in row-major order.
#[derive(Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}x{})", self.rows, self.cols)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Tensor {
    /// Creates a tensor from raw row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a `rows x cols` tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows x cols` tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates a `1 x 1` tensor holding `value`.
    pub fn scalar(value: f32) -> Self {
        Self::from_vec(1, 1, vec![value])
    }

    /// Creates a `1 x n` row vector from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// The identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(n, n);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its row-major data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        let c = self.cols;
        &mut self.data[r * c..(r + 1) * c]
    }

    /// The value of a `1 x 1` tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not `1 x 1`.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() on non-scalar tensor");
        self.data[0]
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise binary combination; shapes must match.
    pub fn zip(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(self.shape(), other.shape(), "zip shape mismatch");
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// `self += other`, shapes must match.
    pub fn add_assign(&mut self, other: &Self) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += scale * other`, shapes must match.
    pub fn add_scaled(&mut self, other: &Self, scale: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_inplace(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Element-wise sum `self + other`.
    pub fn add(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a + b)
    }

    /// Element-wise difference `self - other`.
    pub fn sub(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn mul_elem(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a * b)
    }

    /// Returns `s * self`.
    pub fn scaled(&self, s: f32) -> Self {
        self.map(|x| x * s)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements; 0 for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Maximum element; `f32::NEG_INFINITY` for an empty tensor.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Matrix product `self @ other` through the cache-blocked kernel with
    /// packed-B micro-panels (`matmul_rows_blocked`).
    ///
    /// Large products are sharded across threads with `crossbeam::scope`,
    /// splitting the *output rows* so each thread writes a disjoint region (no
    /// synchronization on the hot path). Every thread count produces
    /// bit-identical results: each output element is one ascending-`k` f32
    /// accumulation.
    ///
    /// # Panics
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Self) -> Self {
        let (m, k, n) = self.matmul_dims(other);
        let mut out = Self::zeros(m, n);
        let threads = matmul_threads().min(m);
        if threads > 1 && m * n * k >= PAR_MATMUL_THRESHOLD && m >= 2 {
            let chunk_rows = m.div_ceil(threads);
            let a = &self.data;
            let b = &other.data;
            crossbeam::thread::scope(|s| {
                for (ci, out_chunk) in out.data.chunks_mut(chunk_rows * n).enumerate() {
                    let row0 = ci * chunk_rows;
                    s.spawn(move |_| {
                        matmul_rows_blocked(a, b, out_chunk, row0, k, n);
                    });
                }
            })
            .expect("matmul worker panicked");
        } else {
            matmul_rows_blocked(&self.data, &other.data, &mut out.data, 0, k, n);
        }
        out
    }

    /// Matrix product through the serial triple-loop `ikj` kernel: the bitwise
    /// reference [`Tensor::matmul`] is tested and benchmarked against.
    pub fn matmul_naive(&self, other: &Self) -> Self {
        let (m, k, n) = self.matmul_dims(other);
        let mut out = Self::zeros(m, n);
        matmul_rows(&self.data, &other.data, &mut out.data, k, n);
        out
    }

    /// `(m, k, n)` of `self @ other`, panicking on an inner-dimension mismatch.
    fn matmul_dims(&self, other: &Self) -> (usize, usize, usize) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        (self.rows, self.cols, other.cols)
    }

    /// Concatenates tensors horizontally (same number of rows).
    pub fn concat_cols(parts: &[&Self]) -> Self {
        assert!(!parts.is_empty(), "concat_cols of zero tensors");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        for p in parts {
            assert_eq!(p.rows, rows, "concat_cols row mismatch");
        }
        let mut out = Self::zeros(rows, cols);
        for r in 0..rows {
            let mut offset = 0;
            for p in parts {
                out.row_mut(r)[offset..offset + p.cols].copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
        out
    }

    /// Concatenates tensors vertically (same number of columns).
    pub fn concat_rows(parts: &[&Self]) -> Self {
        assert!(!parts.is_empty(), "concat_rows of zero tensors");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "concat_rows column mismatch");
            data.extend_from_slice(&p.data);
        }
        Self { rows, cols, data }
    }

    /// Copies rows `[start, start + len)` into a new tensor.
    pub fn slice_rows(&self, start: usize, len: usize) -> Self {
        assert!(start + len <= self.rows, "slice_rows out of range");
        Self {
            rows: len,
            cols: self.cols,
            data: self.data[start * self.cols..(start + len) * self.cols].to_vec(),
        }
    }

    /// Gathers the given rows (duplicates allowed) into a new tensor.
    pub fn select_rows(&self, indices: &[usize]) -> Self {
        let mut out = Self::zeros(indices.len(), self.cols);
        for (i, &idx) in indices.iter().enumerate() {
            assert!(idx < self.rows, "select_rows index {idx} out of range");
            out.row_mut(i).copy_from_slice(self.row(idx));
        }
        out
    }

    /// Row-wise numerically-stable softmax.
    pub fn softmax_rows(&self) -> Self {
        let mut out = self.clone();
        for r in 0..out.rows {
            softmax_row(out.row_mut(r));
        }
        out
    }

    /// True when all elements are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute element-wise difference with `other`.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Self) -> f32 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff shape mismatch");
        self.data.iter().zip(&other.data).map(|(&a, &b)| (a - b).abs()).fold(0.0, f32::max)
    }
}

/// In-place numerically-stable softmax of one row.
pub fn softmax_row(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for x in row.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    // `sum >= 1` because the max element maps to exp(0) = 1, so division is safe.
    for x in row.iter_mut() {
        *x /= sum;
    }
}

/// Reference kernel: computes `A @ B` into the zeroed `out` serially.
///
/// `a` is the `m x k` left matrix, `b` the `k x n` right matrix. The `ikj` order
/// keeps the inner loop streaming over contiguous memory in both `b` and `out`.
fn matmul_rows(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    for (a_row, out_row) in a.chunks(k.max(1)).zip(out.chunks_mut(n.max(1))) {
        for (kk, &a_ik) in a_row.iter().enumerate() {
            if a_ik == 0.0 {
                continue;
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &b_kj) in out_row.iter_mut().zip(b_row) {
                *o += a_ik * b_kj;
            }
        }
    }
}

/// Register-tile height of the blocked microkernel (rows of `A` per pass).
const MR: usize = 4;
/// Register-tile width (one packed `B` micro-panel; 8 f32 = 32 bytes, two
/// SSE2 lanes). The `MR x NR` accumulator tile occupies 8 of the baseline
/// x86-64 target's 16 xmm registers, leaving room for the packed-`B` vectors
/// and the broadcast `A` element. `NR = 16` (a full cache line) spilled the
/// tile to the stack on the SSE2 baseline and lost to the naive kernel at
/// mid sizes — see `results/BENCH_matmul.json`.
const NR: usize = 8;
/// Cache-block depth over the inner dimension: one packed panel is
/// `KC x NR` f32 = 16 KiB, comfortably inside L1 alongside the `A` rows.
const KC: usize = 512;

/// Cache-blocked kernel: computes rows `[row0, row0 + out.len()/n)` of `A @ B`
/// (`a` the full `? x k` left matrix, `b` the full `k x n` right matrix) through
/// a GEBP-style loop nest with a "transposed-B" packing step.
///
/// For each `(k-block, column-block)` pair, the `KC x NR` slice of `B` is
/// packed k-major into a contiguous micro-panel (so the microkernel streams it
/// linearly regardless of `n`), then an `MR x NR` register tile of output
/// accumulators is updated for `MR` rows of `A` at a time. The inner loop body
/// — broadcast `a[r][kk]`, multiply into `NR` independent accumulators — is
/// the shape LLVM autovectorizes across the tile without reassociating any
/// single accumulation chain.
///
/// # Bit-identity with the naive kernel
///
/// Every output element is produced by exactly one f32 accumulator that starts
/// at `+0.0` and adds `a[i][kk] * b[kk][j]` for `kk` ascending — k-blocks are
/// visited in order and the accumulator round-trips through `out` between
/// blocks, which is exact. That is the naive kernel's summation order, so the
/// results match bit for bit. The one textual difference is that the naive
/// kernel *skips* `kk` where `a[i][kk] == 0.0`; for the finite values the tape
/// guarantees, adding those `±0.0` products is a bitwise no-op (the
/// accumulator can never be `-0.0`: it starts at `+0.0`, cancellation rounds
/// to `+0.0`, and `+0.0 + -0.0 = +0.0`), so batched layers built on
/// zero-padding — e.g. the GCN placer's block-diagonal adjacency — keep their
/// per-episode bit-identity under either kernel.
fn matmul_rows_blocked(a: &[f32], b: &[f32], out: &mut [f32], row0: usize, k: usize, n: usize) {
    let rows = out.len() / n.max(1);
    if rows == 0 || n == 0 || k == 0 {
        return;
    }
    let mut packed = [0.0f32; KC * NR];
    for kb in (0..k).step_by(KC) {
        let kc = KC.min(k - kb);
        for jb in (0..n).step_by(NR) {
            let nr = NR.min(n - jb);
            // Pack B[kb..kb+kc, jb..jb+nr] k-major; pad tail columns with
            // zeros so full-width tiles can run over the padded lanes.
            for kk in 0..kc {
                let src = &b[(kb + kk) * n + jb..(kb + kk) * n + jb + nr];
                packed[kk * NR..kk * NR + nr].copy_from_slice(src);
                packed[kk * NR + nr..(kk + 1) * NR].fill(0.0);
            }
            let mut i = 0;
            while i < rows {
                let mr = MR.min(rows - i);
                let mut acc = [[0.0f32; NR]; MR];
                for (r, acc_row) in acc.iter_mut().enumerate().take(mr) {
                    let o = &out[(i + r) * n + jb..(i + r) * n + jb + nr];
                    acc_row[..nr].copy_from_slice(o);
                }
                if mr == MR {
                    // Full tile: constant trip counts, NR independent lanes.
                    for kk in 0..kc {
                        let bp = &packed[kk * NR..(kk + 1) * NR];
                        for (r, acc_row) in acc.iter_mut().enumerate() {
                            let ar = a[(row0 + i + r) * k + kb + kk];
                            for (c, &bv) in acc_row.iter_mut().zip(bp) {
                                *c += ar * bv;
                            }
                        }
                    }
                } else {
                    for kk in 0..kc {
                        let bp = &packed[kk * NR..(kk + 1) * NR];
                        for (r, acc_row) in acc.iter_mut().enumerate().take(mr) {
                            let ar = a[(row0 + i + r) * k + kb + kk];
                            for (c, &bv) in acc_row.iter_mut().zip(bp) {
                                *c += ar * bv;
                            }
                        }
                    }
                }
                for (r, acc_row) in acc.iter().enumerate().take(mr) {
                    out[(i + r) * n + jb..(i + r) * n + jb + nr].copy_from_slice(&acc_row[..nr]);
                }
                i += mr;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_and_accessors() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.get(0, 2), 3.0);
        assert_eq!(t.get(1, 0), 4.0);
        assert_eq!(t.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_wrong_len_panics() {
        let _ = Tensor::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn matmul_small_known_result() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_vec(3, 3, (0..9).map(|x| x as f32).collect());
        let i = Tensor::eye(3);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_parallel_matches_serial() {
        // Large enough to cross PAR_MATMUL_THRESHOLD.
        let m = 97;
        let k = 53;
        let n = 71;
        let a = Tensor::from_vec(m, k, (0..m * k).map(|x| (x % 13) as f32 - 6.0).collect());
        let b = Tensor::from_vec(k, n, (0..k * n).map(|x| (x % 7) as f32 - 3.0).collect());
        let big = a.matmul(&b);
        // Serial reference.
        let mut reference = Tensor::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a.get(i, kk) * b.get(kk, j);
                }
                reference.set(i, j, acc);
            }
        }
        assert!(big.max_abs_diff(&reference) < 1e-3);
    }

    /// Deterministic pseudo-random fill that exercises signs, zeros and a wide
    /// dynamic range without depending on an RNG crate in this test module.
    fn fill(rows: usize, cols: usize, salt: u32) -> Tensor {
        let mut state = salt.wrapping_mul(2654435761).wrapping_add(1);
        let data = (0..rows * cols)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                match state % 11 {
                    0 => 0.0, // exercise the naive kernel's zero-skip path
                    r => ((state >> 8) as f32 / (1 << 24) as f32 - 0.5) * r as f32,
                }
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    #[test]
    fn blocked_matches_naive_bitwise_across_edge_shapes() {
        // Shapes chosen to hit every tile-boundary case: below one register
        // tile, exact multiples of MR/NR/KC, and ragged tails in each of m, n
        // and k (including k > KC so multiple k-blocks round-trip through the
        // output buffer).
        let shapes = [
            (1, 1, 1),
            (3, 2, 5),
            (4, 16, 256), // exactly one full tile in every dimension
            (5, 17, 257), // one past each block boundary
            (8, 300, 33), // k-blocking with ragged n tail
            (7, 5, 300),  // multiple k-blocks, tiny tiles
            (97, 53, 71), // the parallel-path shape
            (2, 1, 400),
        ];
        for (m, k, n) in shapes {
            let a = fill(m, k, (m * 1000 + k) as u32);
            let b = fill(k, n, (k * 1000 + n) as u32);
            let naive = a.matmul_naive(&b);
            let blocked = a.matmul(&b);
            for (i, (x, y)) in naive.data().iter().zip(blocked.data()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "({m}x{k})@({k}x{n}) elem {i}: naive {x} vs blocked {y}"
                );
            }
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn softmax_rows_sums_to_one_and_ordering() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1000.0]);
        let s = t.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        assert!(s.get(0, 2) > s.get(0, 1));
        assert!(s.get(1, 2) > 0.999, "huge logit should dominate");
        assert!(s.all_finite());
    }

    #[test]
    fn concat_and_slice() {
        let a = Tensor::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Tensor::from_vec(1, 2, vec![3.0, 4.0]);
        let v = Tensor::concat_rows(&[&a, &b]);
        assert_eq!(v.shape(), (2, 2));
        assert_eq!(v.row(1), &[3.0, 4.0]);
        let h = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(h.shape(), (1, 4));
        assert_eq!(h.data(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(v.slice_rows(1, 1).data(), &[3.0, 4.0]);
    }

    #[test]
    fn select_rows_with_duplicates() {
        let t = Tensor::from_vec(3, 2, vec![0.0, 1.0, 10.0, 11.0, 20.0, 21.0]);
        let s = t.select_rows(&[2, 0, 2]);
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.row(0), &[20.0, 21.0]);
        assert_eq!(s.row(1), &[0.0, 1.0]);
        assert_eq!(s.row(2), &[20.0, 21.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(2, 2, vec![1.0, -2.0, 3.0, -4.0]);
        assert_eq!(t.sum(), -2.0);
        assert_eq!(t.mean(), -0.5);
        assert_eq!(t.max(), 3.0);
        assert!((t.norm() - (30.0f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Tensor::zeros(1, 3);
        let g = Tensor::row_vector(&[1.0, 2.0, 3.0]);
        a.add_scaled(&g, 0.5);
        a.add_scaled(&g, 0.5);
        assert_eq!(a.data(), &[1.0, 2.0, 3.0]);
    }
}
