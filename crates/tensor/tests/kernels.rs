//! The products against their definition, bit for bit.
//!
//! `Tensor::matmul`, `matmul_nt`, `matmul_tn` and `matmul_tn_segments` each
//! run a streaming loop below `STREAM_MATMUL_ROWS` rows (of `x` in `x . w`,
//! of `gy` in `gy . wᵀ`, of both operands in `xᵀ . gy`, whose output must
//! also be at least `MR * NR` columns wide) and the packed one otherwise;
//! `matmul_nt`, `matmul_tn` and `matmul_tn_segments` exist so a backward
//! pass never materializes a transposed weight or a weight-sized
//! temporary. Every one of them is one
//! ascending-`k` accumulation from `+0.0` per element (per segment of `k`,
//! the segments' sums then added in order): the float bits of
//! `transpose()` and `matmul` (and `add_assign`), and those of the packed
//! kernel, which [`packed`] reaches at any row count through the public API.
//!
//! Each case runs the product under test at a drawn worker count (1 to 3,
//! through `eagle_obs::set_available_workers`) and its reference at one, so
//! the products split by output rows or columns meet the oracle on any host.
//!
//! `EAGLE_ORACLE_CASES` sets the case count per property (64 by default,
//! the PR-gating slice; the nightly job runs 10000).

use std::sync::Mutex;

use eagle_tensor::{Tensor, MR, NR, STREAM_MATMUL_ROWS};
use proptest::prelude::*;

/// The kernel's k-block depth: `matmul_tn_segments` adds finished register
/// tiles straight into its target for segments up to this many rows and
/// goes through a temporary beyond it.
const KC: usize = 512;

/// Segment lengths: the one-row segments of a one-sequence recurrence, and
/// three, ten and eleven sequences stepped in lockstep (ten and eleven on
/// both sides of the streaming bound).
const SEGMENTS: [usize; 4] = [1, 3, 10, STREAM_MATMUL_ROWS];

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

/// Outer dimensions: one row, below / at / past the `MR x NR` register tile,
/// the 4 and 8 columns a streamed `gy . wᵀ` holds per pass and the
/// `MR * NR`-column block a streamed `xᵀ . gy` holds in registers, past the
/// 64-row block, ragged in each, and wide enough (not `NR`-aligned) that a
/// ten-row `gy . wᵀ` and `xᵀ . gy` split across workers.
const OUTER: [usize; 12] =
    [1, MR - 1, MR, MR + 1, NR, NR + 1, MR * NR - 1, MR * NR, MR * NR + 1, 66, 70, 1030];

/// Rows of `x` in a forward product and of `gy` in `gy . wᵀ`: the one-,
/// eight- and ten-row products the placer issues, both ends of each lane
/// band of a streamed `gy . wᵀ` (1; 2 and 4; 5 and 8; 9 and 10), both sides
/// of the streaming bound, and two packed row blocks.
const ROWS: [usize; 11] =
    [1, 2, 4, 5, 8, 9, 10, STREAM_MATMUL_ROWS - 1, STREAM_MATMUL_ROWS, STREAM_MATMUL_ROWS + 1, 66];

/// Output widths of a forward product: the last two span more than one
/// streamed column block (`KC / m * NR` columns) at ten rows and at one.
const COLS: [usize; 6] = [1, NR, 33, 70, KC / 10 * NR + 3, KC * NR + 4];

fn cases() -> u32 {
    std::env::var("EAGLE_ORACLE_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(64)
}

/// Runs `f` with the worker override at `workers`, then restores
/// auto-detection; the lock keeps the properties, which run on concurrent
/// threads, from moving the override under each other.
fn at_workers<T>(workers: usize, f: impl FnOnce() -> T) -> T {
    static LOCK: Mutex<()> = Mutex::new(());
    let _held = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    eagle_obs::set_available_workers(workers);
    let out = f();
    eagle_obs::set_available_workers(0);
    out
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
        special in any::<bool>(), workers in 1usize..=3
    ) {
        let (x, w) = (fill(m, k, s, special), fill(k, n, s + 1, special));
        let got = at_workers(workers, || x.matmul(&w));
        prop_assert_eq!(got.shape(), (m, n));
        prop_assert_eq!(bits(&got), bits(&at_workers(1, || packed(&x, &w))));
    }

    #[test]
    fn matmul_nt_is_transpose_then_matmul(
        m in pick(ROWS), k in pick(INNER), n in pick(OUTER), s in 0u64..1000,
        special in any::<bool>(), workers in 1usize..=3
    ) {
        let (a, b) = (fill(m, k, s, special), fill(n, k, s + 1, special));
        let want = at_workers(1, || packed(&a, &b.transpose()));
        let got = at_workers(workers, || a.matmul_nt(&b));
        prop_assert_eq!(got.shape(), (m, n));
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn matmul_tn_is_transpose_then_matmul(
        m in pick(OUTER), k in pick(INNER), n in pick(OUTER), s in 0u64..1000,
        workers in 1usize..=3
    ) {
        let (a, b) = (fill(k, m, s, false), fill(k, n, s + 1, false));
        let want = at_workers(1, || packed(&a.transpose(), &b));
        let got = at_workers(workers, || a.matmul_tn(&b));
        prop_assert_eq!(got.shape(), (m, n));
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn one_segment_is_product_then_add(
        m in pick(OUTER), k in pick(INNER), n in pick(OUTER), s in 0u64..1000,
        workers in 1usize..=3
    ) {
        let (a, b) = (fill(k, m, s, false), fill(k, n, s + 1, false));
        // A target that already holds values, signed zeros among them.
        let mut into = Some(fill(m, n, s + 2, false));
        let mut want = into.clone().unwrap();
        want.add_assign(&at_workers(1, || packed(&a.transpose(), &b)));
        at_workers(workers, || a.matmul_tn_segments(&b, k, &mut into));
        prop_assert_eq!(bits(&into.unwrap()), bits(&want));
    }

    #[test]
    fn matmul_tn_segments_is_the_per_segment_deposits(
        m in pick(OUTER), k in pick(INNER), n in pick(OUTER), seg in pick(SEGMENTS),
        s in 0u64..1000, fresh in any::<bool>(), workers in 1usize..=3
    ) {
        let (a, b) = (fill(k, m, s, false), fill(k, n, s + 1, false));
        // A fresh slot takes the first segment's product as is and adds the
        // rest; a filled one, signed zeros among its values, adds them all.
        let held = (!fresh).then(|| fill(m, n, s + 2, false));
        let mut want = held.clone();
        for start in (0..k).step_by(seg) {
            let len = seg.min(k - start);
            let (a_seg, b_seg) = (a.slice_rows(start, len), b.slice_rows(start, len));
            let part = at_workers(1, || packed(&a_seg.transpose(), &b_seg));
            match &mut want {
                Some(w) => w.add_assign(&part),
                None => want = Some(part),
            }
        }
        let mut got = held;
        at_workers(workers, || a.matmul_tn_segments(&b, seg, &mut got));
        prop_assert_eq!(bits(&got.unwrap()), bits(&want.unwrap()));
    }
}
