//! The products against their definition, bit for bit.
//!
//! `Tensor::matmul`, `matmul_tn` and `matmul_tn_acc` each run a streaming
//! loop below `STREAM_MATMUL_ROWS` rows (of `x` in `x . w`, of both operands
//! in `xᵀ . gy`, whose output must also be at least `MR * NR` columns wide)
//! and the packed one otherwise; `matmul_nt`, `matmul_tn` and `matmul_tn_acc`
//! exist so a backward pass never materializes a transposed weight or a
//! weight-sized temporary. Every one of them is one
//! ascending-`k` accumulation from `+0.0` per element: the float bits of
//! `transpose()` + `matmul` (+ `add_assign`), and those of the packed kernel,
//! which [`packed`] reaches at any row count through the public API.
//!
//! `EAGLE_ORACLE_CASES` sets the case count per property (64 by default,
//! the PR-gating slice; the nightly job runs 10000).

use eagle_tensor::{Tensor, MR, NR, STREAM_MATMUL_ROWS};
use proptest::prelude::*;

/// The kernel's k-block depth: `matmul_tn_acc` adds finished register tiles
/// straight into its target up to this inner dimension and goes through a
/// temporary beyond it.
const KC: usize = 512;

/// Inner dimensions on both sides of every boundary the kernel has: the
/// ten-row weight gradient of a minibatch, both sides of the streaming bound
/// of `xᵀ . gy`, and of the k-block.
const INNER: [usize; 13] = [
    1,
    2,
    7,
    8,
    10,
    STREAM_MATMUL_ROWS - 1,
    STREAM_MATMUL_ROWS,
    STREAM_MATMUL_ROWS + 1,
    33,
    KC - 1,
    KC,
    KC + 1,
    2 * KC + 3,
];

/// Outer dimensions: one row, below / at / past the `MR x NR` register tile
/// and the `MR * NR`-column block a streamed `xᵀ . gy` holds in registers,
/// past the 64-row block, and ragged in each.
const OUTER: [usize; 11] =
    [1, MR - 1, MR, MR + 1, NR, NR + 1, MR * NR - 1, MR * NR, MR * NR + 1, 66, 70];

/// Rows of a forward product: the one-row and ten-row products the placer
/// issues, both sides of the streaming bound, and two packed row blocks.
const ROWS: [usize; 9] =
    [1, 2, 4, 9, 10, STREAM_MATMUL_ROWS - 1, STREAM_MATMUL_ROWS, STREAM_MATMUL_ROWS + 1, 66];

/// Output widths of a forward product: the last two span more than one
/// streamed column block (`KC / m * NR` columns) at ten rows and at one.
const COLS: [usize; 6] = [1, NR, 33, 70, KC / 10 * NR + 3, KC * NR + 4];

fn cases() -> u32 {
    std::env::var("EAGLE_ORACLE_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(64)
}

fn pick<const N: usize>(values: [usize; N]) -> impl Strategy<Value = usize> {
    (0..N).prop_map(move |i| values[i])
}

/// Pseudo-random matrix with exact `0.0` and `-0.0` entries mixed in and,
/// with `special`, `±∞` and NaN at 1 in 128 each (so `0 · ∞` terms occur).
fn fill(rows: usize, cols: usize, seed: u64, special: bool) -> Tensor {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let data = (0..rows * cols)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            match ((state >> 20) % 9, (state >> 44) % 128) {
                (_, 0) if special => f32::INFINITY,
                (_, 1) if special => f32::NEG_INFINITY,
                (_, 2) if special => f32::NAN,
                (0, _) => 0.0,
                (1, _) => -0.0,
                _ => ((state >> 33) as f32 / (1u64 << 31) as f32 - 0.5) * 4.0,
            }
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// `x . w` through the packed kernel at any row count: `STREAM_MATMUL_ROWS`
/// zero rows stacked under `x` take the product past the streaming bound, and
/// output rows are independent, so the top `x.rows()` are `x`'s.
fn packed(x: &Tensor, w: &Tensor) -> Tensor {
    let stacked = Tensor::concat_rows(&[x, &Tensor::zeros(STREAM_MATMUL_ROWS, x.cols())]);
    stacked.matmul(w).slice_rows(0, x.rows())
}

/// Every element's bits, every NaN as one value: the kernels agree on where
/// a NaN lands, not on its payload.
fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn matmul_is_the_packed_product(
        m in pick(ROWS), k in pick(INNER), n in pick(COLS), s in 0u64..1000,
        special in any::<bool>()
    ) {
        let (x, w) = (fill(m, k, s, special), fill(k, n, s + 1, special));
        let got = x.matmul(&w);
        prop_assert_eq!(got.shape(), (m, n));
        prop_assert_eq!(bits(&got), bits(&packed(&x, &w)));
    }

    #[test]
    fn matmul_nt_is_transpose_then_matmul(
        m in pick(OUTER), k in pick(INNER), n in pick(OUTER), s in 0u64..1000
    ) {
        let (a, b) = (fill(m, k, s, false), fill(n, k, s + 1, false));
        let want = a.matmul(&b.transpose());
        prop_assert_eq!(a.matmul_nt(&b).shape(), (m, n));
        prop_assert_eq!(bits(&a.matmul_nt(&b)), bits(&want));
    }

    #[test]
    fn matmul_tn_is_transpose_then_matmul(
        m in pick(OUTER), k in pick(INNER), n in pick(OUTER), s in 0u64..1000
    ) {
        let (a, b) = (fill(k, m, s, false), fill(k, n, s + 1, false));
        let want = packed(&a.transpose(), &b);
        prop_assert_eq!(a.matmul_tn(&b).shape(), (m, n));
        prop_assert_eq!(bits(&a.matmul_tn(&b)), bits(&want));
    }

    #[test]
    fn matmul_tn_acc_is_product_then_add(
        m in pick(OUTER), k in pick(INNER), n in pick(OUTER), s in 0u64..1000
    ) {
        let (a, b) = (fill(k, m, s, false), fill(k, n, s + 1, false));
        // A target that already holds values, signed zeros among them.
        let mut into = fill(m, n, s + 2, false);
        let mut want = into.clone();
        want.add_assign(&packed(&a.transpose(), &b));
        a.matmul_tn_acc(&b, &mut into);
        prop_assert_eq!(bits(&into), bits(&want));
    }
}
