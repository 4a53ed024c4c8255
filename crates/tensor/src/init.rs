//! Weight initializers.
//!
//! All initializers take an explicit RNG so every experiment in the repository is
//! reproducible bit-for-bit from a seed (see `rng` module).

use rand::Rng;

use crate::tensor::Tensor;

/// Xavier/Glorot uniform initialization: `U(-a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`. The standard choice for tanh/sigmoid
/// networks such as the LSTM placer.
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut impl Rng) -> Tensor {
    let a = (6.0 / (rows + cols) as f32).sqrt();
    Tensor::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen_range(-a..a)).collect())
}

/// Uniform initialization `U(-bound, bound)`.
pub fn uniform(rows: usize, cols: usize, bound: f32, rng: &mut impl Rng) -> Tensor {
    Tensor::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen_range(-bound..bound)).collect())
}

/// All-zeros initialization (biases).
pub fn zeros(rows: usize, cols: usize) -> Tensor {
    Tensor::zeros(rows, cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn xavier_within_bound_and_seeded() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let t = xavier_uniform(16, 48, &mut rng);
        let a = (6.0f32 / 64.0).sqrt();
        assert!(t.data().iter().all(|&x| x > -a && x < a));
        // Deterministic for a fixed seed.
        let mut rng2 = ChaCha8Rng::seed_from_u64(7);
        assert_eq!(t, xavier_uniform(16, 48, &mut rng2));
    }

    #[test]
    fn xavier_not_degenerate() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let t = xavier_uniform(32, 32, &mut rng);
        assert!(t.norm() > 0.0);
        // Mean should be near zero for a symmetric distribution.
        assert!(t.mean().abs() < 0.05);
    }
}
