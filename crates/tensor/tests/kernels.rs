//! The transposed-operand products against their definition, bit for bit.
//!
//! `matmul_nt`, `matmul_tn` and `matmul_tn_acc` exist so a backward pass
//! never materializes a transposed weight or a weight-sized temporary; their
//! contract is the float bits of `transpose()` + `matmul_naive` (+
//! `add_assign`): one ascending-`k` accumulation from `+0.0` per element.

use eagle_tensor::Tensor;
use proptest::prelude::*;

/// The kernel's k-block depth: `matmul_tn_acc` adds finished register tiles
/// straight into its target up to this inner dimension and goes through a
/// temporary beyond it.
const KC: usize = 512;

/// Inner dimensions on both sides of every boundary the kernel has.
const INNER: [usize; 9] = [1, 2, 7, 8, 33, KC - 1, KC, KC + 1, 2 * KC + 3];

/// Outer dimensions: one row, below / at / past the 4x8 register tile, past
/// the 64-row block, and ragged in each.
const OUTER: [usize; 9] = [1, 3, 4, 5, 8, 9, 31, 66, 70];

fn inner() -> impl Strategy<Value = usize> {
    (0..INNER.len()).prop_map(|i| INNER[i])
}

fn outer() -> impl Strategy<Value = usize> {
    (0..OUTER.len()).prop_map(|i| OUTER[i])
}

/// Pseudo-random matrix with exact `0.0` and `-0.0` entries mixed in.
fn fill(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let data = (0..rows * cols)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            match (state >> 20) % 9 {
                0 => 0.0,
                1 => -0.0,
                _ => ((state >> 33) as f32 / (1u64 << 31) as f32 - 0.5) * 4.0,
            }
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_nt_is_transpose_then_naive(m in outer(), k in inner(), n in outer(), s in 0u64..1000) {
        let (a, b) = (fill(m, k, s), fill(n, k, s + 1));
        let want = a.matmul_naive(&b.transpose());
        prop_assert_eq!(a.matmul_nt(&b).shape(), (m, n));
        prop_assert_eq!(bits(&a.matmul_nt(&b)), bits(&want));
    }

    #[test]
    fn matmul_tn_is_transpose_then_naive(m in outer(), k in inner(), n in outer(), s in 0u64..1000) {
        let (a, b) = (fill(k, m, s), fill(k, n, s + 1));
        let want = a.transpose().matmul_naive(&b);
        prop_assert_eq!(a.matmul_tn(&b).shape(), (m, n));
        prop_assert_eq!(bits(&a.matmul_tn(&b)), bits(&want));
    }

    #[test]
    fn matmul_tn_acc_is_product_then_add(m in outer(), k in inner(), n in outer(), s in 0u64..1000) {
        let (a, b) = (fill(k, m, s), fill(k, n, s + 1));
        // A target that already holds values, signed zeros among them.
        let mut into = fill(m, n, s + 2);
        let mut want = into.clone();
        want.add_assign(&a.transpose().matmul_naive(&b));
        a.matmul_tn_acc(&b, &mut into);
        prop_assert_eq!(bits(&into), bits(&want));
    }
}
