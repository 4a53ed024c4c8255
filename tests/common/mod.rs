//! Shared assertions for the integration suites.
//!
//! # Tolerance policy
//!
//! The determinism suites compare two *runs of the same update path* (different
//! worker counts, straight vs checkpoint-resumed, telemetry on vs off). That
//! path is serial and deterministic, and both matmul kernels sum every output
//! element in the one ascending-`k` order whatever the shape or thread count,
//! so those runs agree to the bit: their floats are compared by `to_bits()`,
//! like the integer-valued outcomes (argmax placements, sample counts, cache
//! counters, RNG positions) under exact `assert_eq!`.
//!
//! Gradient comparisons between the *single-backward* and *per-episode
//! backward* paths compare genuinely reordered `f32` reductions (the minibatch
//! update sums per-episode losses before one backward, so per-episode
//! contributions combine in tape-node order); those use the mixed
//! absolute/relative bound [`assert_grad_close`] ([`GRAD_ATOL`],
//! [`GRAD_RTOL`]), since cancellation in advantage-weighted sums makes
//! per-element ULP distances unbounded in principle.

#![allow(dead_code)] // each integration test binary uses a subset

use eagle::core::Curve;

/// Absolute floor for single-backward vs per-episode gradient agreement.
pub const GRAD_ATOL: f32 = 1e-6;
/// Relative bound for single-backward vs per-episode gradient agreement:
/// a reordered sum of `B <= 16` f32 terms keeps well under 1e-4 relative
/// error unless the sum is cancellation-dominated (covered by `GRAD_ATOL`
/// scaled by the largest term, below).
pub const GRAD_RTOL: f32 = 1e-3;

/// Asserts two `Option<f64>`s agree in presence and, when present, bits.
pub fn assert_same_opt_f64(a: Option<f64>, b: Option<f64>, ctx: &str) {
    assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "{ctx}: {a:?} vs {b:?}");
}

/// Asserts two training curves are identical: sample indices and every float
/// field's bits.
pub fn assert_same_curve(a: &Curve, b: &Curve, ctx: &str) {
    assert_eq!(a.points.len(), b.points.len(), "{ctx}: curve length");
    for (i, (x, y)) in a.points.iter().zip(&b.points).enumerate() {
        assert_eq!(x.sample, y.sample, "{ctx}: point {i} sample index");
        let (wx, wy) = (x.wall_clock, y.wall_clock);
        assert_eq!(wx.to_bits(), wy.to_bits(), "{ctx}: point {i} wall_clock: {wx} vs {wy}");
        assert_same_opt_f64(x.measured, y.measured, &format!("{ctx}: point {i} measured"));
        assert_same_opt_f64(x.best_so_far, y.best_so_far, &format!("{ctx}: point {i} best_so_far"));
    }
}

/// Asserts two gradient values from differently-ordered reductions agree:
/// `|a - b| <= GRAD_ATOL * scale + GRAD_RTOL * max(|a|, |b|)`, where `scale`
/// is the largest gradient magnitude in the tensor being compared (it anchors
/// the absolute floor to the tensor's dynamic range, which is what
/// cancellation error is proportional to).
pub fn assert_grad_close(a: f32, b: f32, scale: f32, ctx: &str) {
    let tol = GRAD_ATOL * scale.max(1.0) + GRAD_RTOL * a.abs().max(b.abs());
    assert!(
        (a - b).abs() <= tol,
        "{ctx}: gradient {a} vs {b} differ by {} (tolerance {tol}, scale {scale})",
        (a - b).abs()
    );
}
