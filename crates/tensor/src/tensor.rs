//! Dense 2-D tensor in row-major layout.
//!
//! Everything in the EAGLE agent is expressible with rank-2 tensors (a batch of
//! vectors, a weight matrix, a sequence of embeddings), so the engine deliberately
//! supports only rank 2: it keeps indexing, broadcasting and the autodiff rules simple
//! and auditable. A row vector is `(1, n)`; a scalar is `(1, 1)`.
//!
//! A product runs one of two kernel loops, picked by its row count alone
//! ([`STREAM_MATMUL_ROWS`]): `matmul_rows` streams `B`, `gemm_rows` packs it
//! and may shard ([`PAR_MATMUL_THRESHOLD`]). Both give every element the same
//! ascending-`k` sum, so which one ran never shows in the bits.

use std::fmt;
use std::ops::Range;

/// Work (in multiply-adds, `rows * n * k`) one worker's share of a product
/// must reach before [`Tensor::matmul`] and its transposed-operand siblings
/// split the output rows across threads. A share also has to be at least
/// `MR * NR` rows tall: every worker packs all of `B` for itself, `k * n`
/// copies that only its own rows repay. So the worker count is
/// `min(available workers, m / (MR * NR), m * n * k / PAR_MATMUL_THRESHOLD)`,
/// a product is serial unless that is at least 2, and the calling thread
/// runs one of the shares itself.
///
/// Both halves are read off `results/BENCH_matmul.json` (`matmul_bench` on a
/// 2-vCPU host: `serial_sec` is one worker, `dispatch_sec` this rule at two,
/// `split2_sec` the rows halved over two threads whatever the rule says).
/// The row half keeps a share from packing a whole weight for a few register
/// tiles, and keeps every streamed product ([`STREAM_MATMUL_ROWS`]) on one
/// thread, though halving the 10-row LSTM gate products of a paper-width
/// minibatch reads 1.48x and 1.77x of `serial` there: sharding a streamed
/// product is open. The work half: a scoped thread costs tens of
/// microseconds to start and to wake a core for, which a share of `128^3`
/// multiply-adds (227 us serial) can repay and a smaller one cannot, so
/// `128x128 . 128x128` and everything below it is serial (`split2` 0.03x to
/// 1.04x there). What the rule does split — `256^3` and the op-count-tall
/// grouper products `2935x81 . 81x32`, `1182x81 . 81x64` — measured 1.40x to
/// 1.71x of `serial`. Nothing here is tuned to a host.
pub const PAR_MATMUL_THRESHOLD: usize = 128 * 128 * 128;

/// [`Tensor::matmul`] streams a product with fewer rows than this through
/// `matmul_rows` rather than pack `B` for `gemm_rows`, whose `KC x NR` panels
/// copy all of a multi-megabyte weight to feed at most three `MR`-row tiles.
/// Read off `results/BENCH_matmul.json` (`serial_sec` against `packed_sec`)
/// as the largest swept row count at which streaming wins at every width a
/// workload issues short: 10, where it runs `10x1664 . 1664x2048` 2.22x,
/// `10x512 . 512x2048` 1.68x and `10x156 . 156x192` 1.36x faster (one row:
/// 5.2x to 8.1x). Built with the bound past 16, the sweep had packing win at
/// `16x156 . 156x192` (0.94x, 0.98x); at 10 rows it wins only at `81x32`
/// (0.97x), a width the grouper issues op-count tall. The bits never differ.
pub const STREAM_MATMUL_ROWS: usize = 11;

/// Worker threads a `(m, k) . (k, n)` product is split across (see
/// [`PAR_MATMUL_THRESHOLD`]); the ceiling is the workspace-wide cached host
/// parallelism (shared with the rollout engine's worker resolution, and
/// overridable per-run via `eagle_obs::set_available_workers`).
fn matmul_workers(m: usize, k: usize, n: usize) -> usize {
    let by_rows = m / (MR * NR);
    let by_work = m * n * k / PAR_MATMUL_THRESHOLD;
    eagle_obs::available_workers().min(by_rows).min(by_work).max(1)
}

/// A dense matrix of `f32` values in row-major order.
#[derive(Clone, PartialEq, serde::Serialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Refuses `data` that does not fill `rows x cols`: every kernel indexes by
/// the shape, so such a tensor would panic the first one that touches it.
impl serde::Deserialize for Tensor {
    fn from_content(c: &serde::Content) -> Result<Self, serde::Error> {
        #[derive(serde::Deserialize)]
        struct TensorFields {
            rows: usize,
            cols: usize,
            data: Vec<f32>,
        }
        let TensorFields { rows, cols, data } = TensorFields::from_content(c)?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(serde::Error::msg(format!(
                "tensor of shape {rows}x{cols} holds {} values",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }
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

    /// Matrix product `self @ other`: fewer than [`STREAM_MATMUL_ROWS`] rows
    /// stream `other` row by row (`matmul_rows`), the rest go through the
    /// cache-blocked kernel with packed-B micro-panels (`gemm_rows`).
    ///
    /// Tall products are sharded across threads with `crossbeam::scope`
    /// (how many is [`PAR_MATMUL_THRESHOLD`]'s rule), splitting the *output
    /// rows* so each thread writes a disjoint region (no synchronization on
    /// the hot path). Every kernel and thread count produces bit-identical
    /// results: each output element is one ascending-`k` f32 accumulation.
    ///
    /// # Panics
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Self) -> Self {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Self::zeros(self.rows, other.cols);
        if self.rows < STREAM_MATMUL_ROWS {
            matmul_rows(&self.data, &other.data, &mut out.data, self.cols, other.cols);
        } else {
            gemm(Lhs::rows(self), Rhs { data: &other.data, transposed: false }, &mut out, false);
        }
        out
    }

    /// `self @ otherᵀ` without materializing the transpose: `other` is
    /// `(n, k)` and is read row-wise while packing. Bit-equal to
    /// `self.matmul(&other.transpose())`.
    ///
    /// # Panics
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_nt(&self, other: &Self) -> Self {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt shape mismatch: {}x{} @ ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Self::zeros(self.rows, other.rows);
        gemm(Lhs::rows(self), Rhs { data: &other.data, transposed: true }, &mut out, false);
        out
    }

    /// `selfᵀ @ other` without materializing the transpose: `self` is
    /// `(k, m)` and is read column-wise. Bit-equal to
    /// `self.transpose().matmul(other)`.
    ///
    /// # Panics
    /// Panics if `self.rows() != other.rows()`.
    pub fn matmul_tn(&self, other: &Self) -> Self {
        let mut out = Self::zeros(self.cols, other.cols);
        gemm(Lhs::cols(self, other), Rhs { data: &other.data, transposed: false }, &mut out, false);
        out
    }

    /// `into += selfᵀ @ other`, the product summed from `+0.0` first and the
    /// finished sum then added: bit-equal to
    /// `into.add_assign(&self.matmul_tn(other))`. When the inner dimension
    /// fits one k-block the finished register tile is added straight into
    /// `into` and no product-sized temporary exists.
    ///
    /// # Panics
    /// Panics if `self.rows() != other.rows()` or `into` is not
    /// `(self.cols(), other.cols())`.
    pub fn matmul_tn_acc(&self, other: &Self, into: &mut Self) {
        assert_eq!(into.shape(), (self.cols, other.cols), "matmul_tn_acc output shape mismatch");
        if self.rows <= KC {
            gemm(Lhs::cols(self, other), Rhs { data: &other.data, transposed: false }, into, true);
        } else {
            into.add_assign(&self.matmul_tn(other));
        }
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

/// Row-streaming kernel for short products: computes `A @ B` into the zeroed
/// `out` serially, `a` the `m x k` left matrix and `b` the `k x n` right one.
fn matmul_rows(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    let whole = k - k % KU;
    stream_rows::<KU>(a, b, out, 0..whole, k, n);
    stream_rows::<1>(a, b, out, whole..k, k, n);
}

/// `B` rows per pass of `stream_rows`: an output element is loaded and
/// stored once per `KU` products instead of once per product.
const KU: usize = 8;

/// Adds `a[i][kk] * b[kk][j]` into `out[i][j]` for `kk` in `ks` (whole passes
/// of `U`), ascending. A block of output columns small enough that all `m`
/// rows of it stay in L1 (a packed panel's `KC * NR` floats) is swept `U`
/// rows of `B` at a time, then rows of `A`, so each `B` row segment is read
/// once, contiguously. Every element gets `gemm_rows`' sum, bit for bit, for
/// every input: no term is skipped.
fn stream_rows<const U: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    ks: Range<usize>,
    k: usize,
    n: usize,
) {
    let block = (KC / (out.len() / n.max(1)).max(1)).max(1) * NR;
    for jb in (0..n).step_by(block) {
        let len = block.min(n - jb);
        for kk in ks.clone().step_by(U) {
            let b_seg: [&[f32]; U] = std::array::from_fn(|u| &b[(kk + u) * n + jb..][..len]);
            for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
                let a_ik = &a_row[kk..kk + U];
                for (j, o) in out_row[jb..][..len].iter_mut().enumerate() {
                    let mut v = *o;
                    for (&x, seg) in a_ik.iter().zip(&b_seg) {
                        v += x * seg[j];
                    }
                    *o = v;
                }
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
/// tile to the stack on the SSE2 baseline and lost to a plain `ikj` loop at
/// mid sizes.
const NR: usize = 8;
/// Cache-block depth over the inner dimension: one packed panel is
/// `KC x NR` f32 = 16 KiB, comfortably inside L1 alongside the `A` rows.
const KC: usize = 512;
/// Row-block height: a packed panel is swept over `MC` rows of `A` before the
/// next panel is packed, so the `MC` output cache lines a panel touches are
/// still cached when the neighbouring panel fills their other half. Without
/// it a tall product into a wide `out` (`dW = xᵀ . gy` of a `1664 x 2048`
/// weight: 1664 lines, 8 KiB apart) evicts every line between its two
/// visits. A product of at most `MC` rows runs exactly as before.
const MC: usize = 64;

/// Left operand of a product: element `(i, kk)` of the `(m, k)` matrix the
/// kernel multiplies is `data[i * row_stride + kk * col_stride]`, so a
/// row-major `A` and a row-major `(k, m)` matrix read as its transpose are
/// the same loop.
#[derive(Clone, Copy)]
struct Lhs<'a> {
    data: &'a [f32],
    row_stride: usize,
    col_stride: usize,
    /// Inner dimension `k`.
    inner: usize,
}

impl<'a> Lhs<'a> {
    /// `a` as it is stored.
    fn rows(a: &'a Tensor) -> Self {
        Self { data: &a.data, row_stride: a.cols, col_stride: 1, inner: a.cols }
    }

    /// `aᵀ`, for a product with `b`.
    fn cols(a: &'a Tensor, b: &Tensor) -> Self {
        assert_eq!(
            a.rows, b.rows,
            "matmul_tn shape mismatch: ({}x{})ᵀ @ {}x{}",
            a.rows, a.cols, b.rows, b.cols
        );
        Self { data: &a.data, row_stride: 1, col_stride: a.cols, inner: a.rows }
    }
}

/// Right operand of a product: the `(k, n)` matrix `B` row-major, or — when
/// `transposed` — `Bᵀ` row-major, i.e. `(n, k)`.
#[derive(Clone, Copy)]
struct Rhs<'a> {
    data: &'a [f32],
    transposed: bool,
}

/// `out = A @ B` (`out` zeroed by the caller) or, with `accumulate`,
/// `out += A @ B`; splits the output rows across [`matmul_workers`] threads.
fn gemm(a: Lhs<'_>, b: Rhs<'_>, out: &mut Tensor, accumulate: bool) {
    let (m, n, k) = (out.rows, out.cols, a.inner);
    let workers = matmul_workers(m, k, n);
    if workers > 1 {
        let chunk_rows = m.div_ceil(workers);
        crossbeam::thread::scope(|s| {
            // The calling thread takes the first share itself: one spawn
            // fewer, and no core idles waiting on the others.
            let mut chunks = out.data.chunks_mut(chunk_rows * n).enumerate();
            let own = chunks.next();
            for (ci, out_chunk) in chunks {
                s.spawn(move |_| gemm_rows(a, b, out_chunk, ci * chunk_rows, n, accumulate));
            }
            if let Some((_, out_chunk)) = own {
                gemm_rows(a, b, out_chunk, 0, n, accumulate);
            }
        })
        .expect("matmul worker panicked");
    } else {
        gemm_rows(a, b, &mut out.data, 0, n, accumulate);
    }
}

/// Cache-blocked kernel: computes rows `[row0, row0 + out.len()/n)` of `A @ B`
/// through a GEBP-style loop nest with a "transposed-B" packing step.
///
/// For each `(k-block, column-block)` pair, the `KC x NR` slice of `B` is
/// packed k-major into a contiguous micro-panel (so the microkernel streams it
/// linearly regardless of `n` and of how `B` is stored), then an `MR x NR`
/// register tile of output accumulators is updated for `MR` rows of `A` at a
/// time. The inner loop body — broadcast `a[r][kk]`, multiply into `NR`
/// independent accumulators — is the shape LLVM autovectorizes across the tile
/// without reassociating any single accumulation chain.
///
/// Without `accumulate`, `out` must arrive zeroed and the tile round-trips
/// through it between k-blocks. With it (one k-block only, `k <= KC`) the tile
/// starts at `+0.0` and the finished sum is added to what `out` holds.
///
/// # Bit-identity with the streaming kernel
///
/// Every output element is one f32 accumulator that starts at `+0.0` and
/// adds `a[i][kk] * b[kk][j]` for `kk` ascending (k-blocks in order, the
/// accumulator round-tripping exactly through `out`): `matmul_rows`' sum, so
/// the bits match (NaN payloads aside: LLVM may commute an f32 add). A finite
/// `±0.0` product adds nothing (the accumulator is never `-0.0`).
fn gemm_rows(a: Lhs<'_>, b: Rhs<'_>, out: &mut [f32], row0: usize, n: usize, accumulate: bool) {
    let k = a.inner;
    let rows = out.len() / n.max(1);
    if rows == 0 || n == 0 || k == 0 {
        return;
    }
    assert!(!accumulate || k <= KC, "accumulating write-back needs a single k-block");
    let mut packed = [0.0f32; KC * NR];
    for kb in (0..k).step_by(KC) {
        let kc = KC.min(k - kb);
        for ib in (0..rows).step_by(MC) {
            let block_end = rows.min(ib + MC);
            for jb in (0..n).step_by(NR) {
                let nr = NR.min(n - jb);
                pack_panel(b, &mut packed, kb, kc, jb, nr, k, n);
                let mut i = ib;
                while i < block_end {
                    let mr = MR.min(block_end - i);
                    let mut acc = [[0.0f32; NR]; MR];
                    if !accumulate {
                        for (r, acc_row) in acc.iter_mut().enumerate().take(mr) {
                            let o = &out[(i + r) * n + jb..(i + r) * n + jb + nr];
                            acc_row[..nr].copy_from_slice(o);
                        }
                    }
                    // Offsets of A[row0 + i + r][kb] for the tile's rows.
                    let mut base = [0usize; MR];
                    for (r, at) in base.iter_mut().enumerate().take(mr) {
                        *at = (row0 + i + r) * a.row_stride + kb * a.col_stride;
                    }
                    if mr == MR {
                        // Full tile: constant trip counts, NR independent lanes.
                        for kk in 0..kc {
                            let bp = &packed[kk * NR..(kk + 1) * NR];
                            for (acc_row, &at) in acc.iter_mut().zip(&base) {
                                let ar = a.data[at + kk * a.col_stride];
                                for (c, &bv) in acc_row.iter_mut().zip(bp) {
                                    *c += ar * bv;
                                }
                            }
                        }
                    } else {
                        for kk in 0..kc {
                            let bp = &packed[kk * NR..(kk + 1) * NR];
                            for (acc_row, &at) in acc.iter_mut().zip(&base).take(mr) {
                                let ar = a.data[at + kk * a.col_stride];
                                for (c, &bv) in acc_row.iter_mut().zip(bp) {
                                    *c += ar * bv;
                                }
                            }
                        }
                    }
                    for (r, acc_row) in acc.iter().enumerate().take(mr) {
                        let o = &mut out[(i + r) * n + jb..(i + r) * n + jb + nr];
                        if accumulate {
                            for (o, &v) in o.iter_mut().zip(&acc_row[..nr]) {
                                *o += v;
                            }
                        } else {
                            o.copy_from_slice(&acc_row[..nr]);
                        }
                    }
                    i += mr;
                }
            }
        }
    }
}

/// Packs `B[kb..kb+kc, jb..jb+nr]` k-major into `packed`, padding the tail
/// columns with zeros so full-width tiles can run over the padded lanes.
#[allow(clippy::too_many_arguments)]
fn pack_panel(
    b: Rhs<'_>,
    packed: &mut [f32; KC * NR],
    kb: usize,
    kc: usize,
    jb: usize,
    nr: usize,
    k: usize,
    n: usize,
) {
    if b.transposed {
        for c in 0..nr {
            let src = &b.data[(jb + c) * k + kb..(jb + c) * k + kb + kc];
            for (kk, &v) in src.iter().enumerate() {
                packed[kk * NR + c] = v;
            }
        }
        if nr < NR {
            for kk in 0..kc {
                packed[kk * NR + nr..(kk + 1) * NR].fill(0.0);
            }
        }
    } else {
        for kk in 0..kc {
            let src = &b.data[(kb + kk) * n + jb..(kb + kk) * n + jb + nr];
            packed[kk * NR..kk * NR + nr].copy_from_slice(src);
            packed[kk * NR + nr..(kk + 1) * NR].fill(0.0);
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
    fn data_that_does_not_fill_the_shape_does_not_decode() {
        let t = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(serde_json::from_str::<Tensor>(&json).unwrap(), t);
        let short = serde_json::from_str::<Tensor>(r#"{"rows":2,"cols":2,"data":[1.0]}"#);
        let e = short.unwrap_err().to_string();
        assert!(e.contains("tensor of shape 2x2 holds 1 values"), "{e}");
        // A shape whose product overflows is refused the same way, not wrapped.
        let huge = format!(r#"{{"rows":{},"cols":2,"data":[]}}"#, usize::MAX / 2 + 1);
        assert!(serde_json::from_str::<Tensor>(&huge).is_err());
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
        // Shapes the dispatch rule shards — the tall grouper product, twice
        // the 128^3 boundary, a share count that leaves the last chunk ragged
        // — and the 128^3 boundary itself, which it does not.
        let shapes = [(2935, 81, 32, true), (256, 128, 128, true), (67, 512, 128, true)];
        let shapes = shapes.into_iter().chain([(128, 128, 128, false)]);
        for (m, k, n, sharded) in shapes {
            let a = fill(m, k, (m + k) as u32);
            let b = fill(k, n, (k + n) as u32);
            let gy = fill(m, n, (m + n) as u32);
            let want_nn = streamed(&a, &b);
            let want_nt = streamed(&gy, &b.transpose());
            let want_tn = streamed(&a.transpose(), &gy);
            let held = fill(k, n, 7);
            let mut want_acc = held.clone();
            want_acc.add_assign(&want_tn);
            for workers in [2, 3] {
                eagle_obs::set_available_workers(workers);
                assert_eq!(matmul_workers(m, k, n) > 1, sharded, "{m}x{k}@{k}x{n}");
                let mut acc = held.clone();
                a.matmul_tn_acc(&gy, &mut acc);
                let products = [
                    ("nn", a.matmul(&b), &want_nn),
                    ("nt", gy.matmul_nt(&b), &want_nt),
                    ("tn", a.matmul_tn(&gy), &want_tn),
                    ("tn_acc", acc, &want_acc),
                ];
                eagle_obs::set_available_workers(0);
                for (layout, got, want) in products {
                    assert_bitwise_eq(&got, want, &format!("{layout} {m}x{k}x{n} at {workers}"));
                }
            }
        }
    }

    /// `a @ b` through the streaming kernel whatever its row count.
    fn streamed(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.rows, b.cols);
        matmul_rows(&a.data, &b.data, &mut out.data, a.cols, b.cols);
        out
    }

    fn assert_bitwise_eq(got: &Tensor, want: &Tensor, ctx: &str) {
        assert_eq!(got.shape(), want.shape(), "{ctx}: shape");
        for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: elem {i}: {x} vs {y}");
        }
    }

    /// Deterministic pseudo-random fill that exercises signs, zeros and a wide
    /// dynamic range without depending on an RNG crate in this test module.
    fn fill(rows: usize, cols: usize, salt: u32) -> Tensor {
        let mut state = salt.wrapping_mul(2654435761).wrapping_add(1);
        let data = (0..rows * cols)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                match state % 11 {
                    0 => 0.0, // a zero product must not move the sum's bits
                    r => ((state >> 8) as f32 / (1 << 24) as f32 - 0.5) * r as f32,
                }
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    #[test]
    fn packed_matches_streamed_bitwise_across_edge_shapes() {
        // Shapes chosen to hit every tile-boundary case: below one register
        // tile, exact multiples of MR/NR/KC, and ragged tails in each of m, n
        // and k (including k > KC so multiple k-blocks round-trip through the
        // output buffer). Each runs through both kernels whatever its row
        // count, the 1- and 10-row ones past one streamed column block.
        let shapes = [
            (1, 1, 1),
            (3, 2, 5),
            (4, 16, 256), // exactly one full tile in every dimension
            (5, 17, 257), // one past each block boundary
            (8, 300, 33), // k-blocking with ragged n tail
            (7, 5, 300),  // multiple k-blocks, tiny tiles
            // Ragged in all three, two row blocks; serial all the same — the
            // sharded path is `matmul_parallel_matches_serial`'s.
            (97, 53, 71),
            (2, 1, 400),
            (1, 513, 4100),
            (10, 300, 500),
        ];
        for (m, k, n) in shapes {
            let a = fill(m, k, (m * 1000 + k) as u32);
            let b = fill(k, n, (k * 1000 + n) as u32);
            let mut packed = Tensor::zeros(m, n);
            gemm(Lhs::rows(&a), Rhs { data: &b.data, transposed: false }, &mut packed, false);
            let ctx = format!("({m}x{k})@({k}x{n})");
            assert_bitwise_eq(&streamed(&a, &b), &packed, &ctx);
            assert_bitwise_eq(&a.matmul(&b), &packed, &ctx);
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
