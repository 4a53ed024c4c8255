//! `eagle_tensor::tanh` against libm's `tanhf` (`f32::tanh`), bit for bit.
//!
//! The port transcribes glibc 2.36's `s_tanhf.c` and `s_expm1f.c`, so on a
//! glibc 2.36 host the two agree on every input; NaN counts equal to NaN.
//! The PR-gating slice sweeps about 2²⁴ bit patterns plus every branch
//! boundary of both C functions mapped back to `x`, and pins an FNV of the
//! port's outputs, which catches an edit to the port even where the host's
//! libm is another one. The `#[ignore]`d test covers all 2³² inputs (the
//! nightly job runs it under the AVX2 and the SSE2 build):
//!
//! ```sh
//! cargo test --release -p eagle-tensor --test tanh -- --ignored
//! ```

use eagle_tensor::tanh;

/// Sweep stride over the 2³² bit patterns: odd, so the low mantissa bits vary.
const STRIDE: usize = 257;

/// FNV-1a-64 of the port's output bits over the sweep, NaNs as one pattern.
const SWEEP_FNV: u64 = 0x1ff2_dbb7_60c3_c21e;

fn same(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// The inputs where `tanh` and `f32::tanh` differ, as bit patterns.
fn mismatches(bits: impl Iterator<Item = u32>) -> Vec<u32> {
    bits.filter(|&b| {
        let x = f32::from_bits(b);
        !same(tanh(x), x.tanh())
    })
    .collect()
}

fn sweep() -> impl Iterator<Item = u32> {
    (0..=u32::MAX).step_by(STRIDE)
}

/// `s_expm1f.c`'s reduction index for the argument `tanh(x)` passes it,
/// `±2|x|`, where the general reduction applies (`|2x| >= 1.5 ln 2`).
fn reduction_k(x_bits: u32) -> i32 {
    let x = f32::from_bits(x_bits);
    let a = if x >= 1.0 { 2.0 * x } else { -2.0 * x };
    let half = if a < 0.0 { -0.5 } else { 0.5 };
    (f32::from_bits(0x3fb8_aa3b) * a + half) as i32
}

/// The first positive bit pattern in `lo..hi` where the monotone `step` turns
/// true (`hi` if none).
fn first(mut lo: u32, mut hi: u32, step: impl Fn(u32) -> bool) -> u32 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if step(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Every branch boundary of `s_tanhf.c` and `s_expm1f.c` on the path from
/// `tanh(x)`, as positive bit patterns of `x`, and a few inputs that see the
/// last bit of the polynomial's leading coefficient.
fn boundaries() -> Vec<u32> {
    let mut b = vec![
        0x0000_0000, // ±0
        0x0000_0001, // smallest subnormal
        0x007f_ffff, // largest subnormal
        0x0080_0000, // smallest normal
        0x2400_0000, // tanhf: |x| < 2^-55 returns x(1 + x)
        0x3280_0000, // expm1f: |2x| < 2^-25 returns its argument
        0x3e31_7218, // expm1f: |2x| <= ln2 / 2 takes k = 0
        0x3f05_1592, // expm1f: |2x| < 1.5 ln2 takes k = -1
        0x3f80_0000, // tanhf: |x| >= 1 takes expm1f(2|x|)
        0x4115_b844, // expm1f: |2x| >= 27 ln2 filter (positive: falls through)
        0x41b0_0000, // tanhf: |x| >= 22 returns 1 - tiny
        0x7f7f_ffff, // largest finite
        0x7f80_0000, // inf
        0x7f80_0001, // signalling NaN
        0x7fc0_0000, // quiet NaN
        0x7fff_ffff, // NaN, all payload bits
        // Not boundaries: inputs whose output moves with the last bit of
        // `Q1`, the one coefficient whose last bit moves any output (232
        // inputs in all; the last bit of `Q2`..`Q5` moves none).
        0x3d1c_9770,
        0x3d70_1e0e,
        0x3d7f_bcdb,
        0x3d81_0998,
    ];
    // Each change of the reduction index `k`: -2 / -3 below 1, and 3..=63
    // above it, where 23 and 57 switch `s_expm1f.c`'s reconstruction.
    let below = first(0x3f05_1592, 0x3f80_0000, |x| reduction_k(x) <= -3);
    assert_eq!((reduction_k(below - 1), reduction_k(below)), (-2, -3));
    b.push(below);
    let mut lo = 0x3f80_0000;
    for k in 4..=63 {
        lo = first(lo, 0x41b0_0000, |x| reduction_k(x) >= k);
        assert_eq!(reduction_k(lo), k, "k = {k} has an input below 22");
        b.push(lo);
    }
    b
}

#[test]
fn matches_libm_on_a_strided_sweep() {
    let bad = mismatches(sweep());
    assert!(bad.is_empty(), "{} mismatches, first {:#010x}", bad.len(), bad[0]);
}

#[test]
fn matches_libm_around_every_branch_boundary() {
    let near = boundaries().into_iter().flat_map(|b| {
        let around = b.saturating_sub(4)..=b.saturating_add(4).min(0x7fff_ffff);
        around.flat_map(|p| [p, p | 0x8000_0000])
    });
    let bad = mismatches(near);
    assert!(bad.is_empty(), "mismatches at {bad:#010x?}");
}

#[test]
fn special_values() {
    for (x, want) in
        [(0.0f32, 0.0f32), (-0.0, -0.0), (f32::INFINITY, 1.0), (f32::NEG_INFINITY, -1.0)]
    {
        assert_eq!(tanh(x).to_bits(), want.to_bits(), "tanh({x})");
    }
    for nan in [f32::NAN, -f32::NAN, f32::from_bits(0x7f80_0001), f32::from_bits(0xffc0_1234)] {
        assert!(tanh(nan).is_nan(), "tanh({:#010x}) is not NaN", nan.to_bits());
    }
    let sub = f32::from_bits(1);
    assert_eq!(tanh(sub).to_bits(), sub.to_bits());
    assert_eq!(tanh(-sub).to_bits(), (-sub).to_bits());
}

#[test]
fn outputs_over_the_sweep_are_pinned() {
    let fnv = sweep().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        let y = tanh(f32::from_bits(b));
        let y = if y.is_nan() { 0x7fc0_0000 } else { y.to_bits() };
        y.to_le_bytes()
            .iter()
            .fold(h, |h, &byte| (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3))
    });
    assert_eq!(fnv, SWEEP_FNV, "the port's outputs moved: {fnv:#018x}");
}

#[test]
#[ignore = "all 2^32 inputs: minutes per thread; the nightly job runs it"]
fn matches_libm_on_every_f32() {
    let workers = eagle_obs::available_workers() as u64;
    let share = (1u64 << 32).div_ceil(workers);
    let bad: Vec<u32> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (lo, hi) = (w * share, ((w + 1) * share).min(1 << 32));
                s.spawn(move || mismatches((lo..hi).map(|b| b as u32)))
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    assert!(bad.is_empty(), "{} mismatches, first {:#010x?}", bad.len(), &bad[..bad.len().min(8)]);
}
