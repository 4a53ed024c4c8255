//! Exact `tanh`: the bits of glibc 2.36's `tanhf`, without a branch.

// fdlibm's constants, from their bit patterns in the C sources.
const ONE: f32 = 1.0;
const TWO: f32 = 2.0;
const TINY: f32 = 1.0e-30;
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);

/// `1.5 · 2²³`: adding it rounds an `|v| < 2²²` to an integer, held in the
/// low mantissa bits.
const ROUND: f32 = 12_582_912.0;

/// Hyperbolic tangent with exactly the bits of glibc 2.36's `tanhf` on every
/// `f32` input, NaN in giving NaN out.
///
/// A transcription of fdlibm's `sysdeps/ieee754/flt-32/s_tanhf.c` and the
/// `s_expm1f.c` it calls, as shipped in glibc 2.36: each path is evaluated
/// with the C code's `f32` operations in the C code's order, and the one the
/// C code would take is selected. There is no branch, so a loop over a slice
/// vectorizes; that makes it about 4x cheaper than the libm call `f32::tanh`
/// under the workspace's AVX2 build (`results/BENCH_matmul.json`, `tanh`). An exhaustive test holds it to
/// `f32::tanh` over all 2³² inputs; on a host whose `tanhf` is another one
/// (glibc ≥ 2.41, musl, macOS) it keeps glibc 2.36's bits where `f32::tanh`
/// would not.
#[inline]
pub fn tanh(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    let ax = f32::from_bits(ix);
    // |x| >= 1 takes `1 - 2/(expm1(2|x|) + 2)`, below it `-t/(t + 2)` with
    // `t = expm1(-2|x|)`; both divide by `t + 2`, so one division serves both.
    // An argument outside `[2^-55, 22)` selects another path below; it is
    // replaced by 0, so `expm1` only ever sees `|a| < 44`.
    let big = ix >= 0x3f80_0000;
    let a = if big { TWO * ax } else { -TWO * ax };
    let a = if ix < 0x41b0_0000 { a } else { 0.0 };
    let t = expm1(a);
    let q = (if big { TWO } else { -t }) / (t + TWO);
    let z = if big { ONE - q } else { q };
    // |x| >= 22: 1 - tiny, which rounds to 1.
    let z = if ix < 0x41b0_0000 { z } else { ONE - TINY };
    let z = if (jx as i32) >= 0 { z } else { -z };
    // |x| < 2^-55, ±0 included (the C code's separate `x == 0` case returns
    // `x`, which this does too).
    let z = if ix < 0x2400_0000 { x * (ONE + x) } else { z };
    // ±inf: ±1; NaN: a NaN.
    let special = if (jx as i32) >= 0 { ONE / x + ONE } else { ONE / x - ONE };
    if ix >= 0x7f80_0000 {
        special
    } else {
        z
    }
}

/// `s_expm1f.c` on the arguments `tanh` passes it: `a` in `[2, 44)` or
/// `(-2, 0]`. The paths no such argument takes (`k = 1`, `a <= -27 ln 2`,
/// overflow, non-finite) are left out.
#[inline(always)]
fn expm1(a: f32) -> f32 {
    let hx = a.to_bits() & 0x7fff_ffff;
    let neg = (a.to_bits() as i32) < 0;
    // Argument reduction `a = k ln2 + x + c`. With `k = 0` the C code keeps
    // `x = a` and no `c`; the reduction below gives exactly that (`a - 0·hi =
    // a`, `lo = 0`, `c = 0`). `(0.5 ln2, 1.5 ln2)` takes `k = ±1`, the rest
    // `k = (int)(a/ln2 ± 0.5)`.
    let v = INVLN2 * a + if neg { -0.5 } else { 0.5 };
    let tk = trunc_small(v);
    let tk = if hx < 0x3f85_1592 {
        if neg {
            -ONE
        } else {
            ONE
        }
    } else {
        tk
    };
    let tk = if hx > 0x3eb1_7218 { tk } else { 0.0 };
    let k = ((tk + ROUND).to_bits() as i32).wrapping_sub(ROUND.to_bits() as i32);
    let hi = a - tk * LN2_HI;
    let lo = tk * LN2_LO;
    let x = hi - lo;
    let c = (hi - x) - lo;

    // x is now in primary range.
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = ONE + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    let k0 = x - (x * e - hxs);

    let e = (x * (e - c) - c) - hxs;
    let km1 = 0.5 * (x - e) - 0.5;
    let scale =
        |y: f32| f32::from_bits((y.to_bits() as i32).wrapping_add(k.wrapping_shl(23)) as u32);
    // k <= -2 or k > 56.
    let far = scale(ONE - (e - x)) - ONE;
    // 2 <= k < 23: t = 1 - 2^-k.
    let t = f32::from_bits((0x3f80_0000 - (0x100_0000_i32.wrapping_shr(k as u32))) as u32);
    let lt23 = scale(t - (e - x));
    // 23 <= k <= 56: t = 2^-k.
    let t = f32::from_bits((0x7f_i32.wrapping_sub(k)).wrapping_shl(23) as u32);
    let ge23 = scale((x - (e + t)) + ONE);

    let r = if k < 23 { lt23 } else { ge23 };
    let r = if k <= -2 || k > 56 { far } else { r };
    let r = if k == -1 { km1 } else { r };
    let r = if k == 0 { k0 } else { r };
    // |a| < 2^-25: a itself.
    if hx < 0x3300_0000 {
        a
    } else {
        r
    }
}

/// `trunc(v)` for a finite `|v| < 2²²`, from adds and a compare alone: round
/// to nearest with [`ROUND`], then step one toward zero where that rounded
/// away from it.
#[inline(always)]
fn trunc_small(v: f32) -> f32 {
    let n = (v + ROUND) - ROUND;
    if n.abs() > v.abs() {
        n - ONE.copysign(v)
    } else {
        n
    }
}
