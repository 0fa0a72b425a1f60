//! Frozen reference kernels and the oracle tests that hold the fast
//! kernels to them.
//!
//! The functions below are verbatim copies of the codec and tensor-core
//! kernels as they stood before the bit-level rewrite: exponents from
//! `log2().floor()` with `2f64.powi` guards, scaling by `powi`, and a
//! hand-rolled ties-to-even. They are kept only as the slow reference the
//! oracle tests compare the bit-level kernels against with `to_bits`
//! equality.
//!
//! Where the reference is exact: every power of two it builds with
//! `2f64.powi(n)` must be representable, i.e. `n >= -1023` (a more
//! negative `n` flushes to zero at run time, and constant folding may give
//! a different answer, so `exponent_of(5e-324)` is -1073 in debug builds
//! and -1074 in release builds). The oracles therefore compare over normal
//! `f64` inputs inside that domain and pin inputs outside it to exact
//! expected values instead. The one input where the fast codec is meant to
//! differ is `encode(±inf)` on finite-only formats, which the reference
//! mishandles (see `encode_inf_saturates_on_finite_only_formats`).

use crate::gemm::{Fp8GemmConfig, MainAccumulator};
use crate::minifloat::Format;
use crate::quant::{BlockQuantized, TileQuantized};
use crate::tensorcore::MMA_K;
use crate::Matrix;

/// Reference `fp22::exponent_of`.
pub fn exponent_of(x: f64) -> i32 {
    let mut e = x.abs().log2().floor() as i32;
    // Guard against log2 imprecision at binade edges.
    let a = x.abs();
    if 2f64.powi(e + 1) <= a {
        e += 1;
    } else if 2f64.powi(e) > a {
        e -= 1;
    }
    e
}

/// Reference `fp22::round_to_mantissa_bits`.
pub fn round_to_mantissa_bits(x: f64, bits: u32) -> f64 {
    if x == 0.0 || !x.is_finite() {
        return x;
    }
    let e = exponent_of(x);
    let scale = 2f64.powi(e - bits as i32);
    (x / scale).round_ties_even() * scale
}

/// Reference `fp22::truncate_at_exponent`.
pub fn truncate_at_exponent(x: f64, reference_exponent: i32, bits: u32) -> f64 {
    if x == 0.0 || !x.is_finite() {
        return x;
    }
    let scale = 2f64.powi(reference_exponent - bits as i32);
    (x / scale).trunc() * scale
}

/// Reference `tensorcore::align_truncate_sum`.
pub fn align_truncate_sum(products: &[f64]) -> f64 {
    debug_assert!(products.len() <= MMA_K);
    let max_e =
        products.iter().filter(|p| **p != 0.0 && p.is_finite()).map(|p| exponent_of(*p)).max();
    let Some(max_e) = max_e else {
        return products.iter().sum(); // all zero (or non-finite propagates)
    };
    products.iter().map(|&p| truncate_at_exponent(p, max_e, 13)).sum()
}

/// Reference `Fp8Gemm::execute`, FP22 registers rounded by the reference
/// `round_to_mantissa_bits`.
pub fn gemm_execute(a: &TileQuantized, b: &BlockQuantized, cfg: Fp8GemmConfig) -> Matrix {
    let fp22 = |x: f64| round_to_mantissa_bits(x, 13);
    let (m, k, n) = (a.rows, a.cols, b.cols);
    let chunk = cfg.chunk;
    let mut out = Matrix::zeros(m, n);
    let mut prod = vec![0f64; chunk];
    for i in 0..m {
        for j in 0..n {
            let mut acc_f32 = 0f32;
            let mut acc_fp22 = 0f64;
            let mut acc_exact = 0f64;
            let mut c0 = 0usize;
            while c0 < k {
                let c1 = (c0 + chunk).min(k);
                let mut partial = 0f64;
                for (kk, p) in (c0..c1).zip(prod.iter_mut()) {
                    *p = a.codes[i * k + kk] * b.codes[kk * n + j];
                }
                for sub in prod[..c1 - c0].chunks(MMA_K) {
                    partial = fp22(partial + align_truncate_sum(sub));
                }
                let scale = a.scale_at(i, c0) * b.scale_at(c0, j);
                let scaled = partial * scale;
                match cfg.main_acc {
                    MainAccumulator::Fp32 => acc_f32 += scaled as f32,
                    MainAccumulator::Fp22 => acc_fp22 = fp22(acc_fp22 + scaled),
                    MainAccumulator::Exact => acc_exact += scaled,
                }
                c0 = c1;
            }
            let v = match cfg.main_acc {
                MainAccumulator::Fp32 => f64::from(acc_f32),
                MainAccumulator::Fp22 => acc_fp22,
                MainAccumulator::Exact => acc_exact,
            };
            out.set(i, j, v as f32);
        }
    }
    out
}

fn max_biased_exp(f: Format) -> i32 {
    let top = (1 << f.exp_bits) - 1;
    if f.finite_only {
        top
    } else {
        top - 1
    }
}

/// Reference `Format::encode`.
pub fn encode(f: Format, x: f64) -> u32 {
    let sign = if x.is_sign_negative() { 1u32 << (f.exp_bits + f.man_bits) } else { 0 };
    if x.is_nan() {
        return sign | nan_pattern(f);
    }
    let mag = x.abs();
    if mag == 0.0 {
        return sign;
    }
    if !f.finite_only && mag.is_infinite() {
        let inf = ((1u32 << f.exp_bits) - 1) << f.man_bits;
        return sign | inf;
    }
    let (e, frac_bits) = round_magnitude(f, mag);
    if e > max_biased_exp(f) || frac_overflows(f, e, frac_bits) {
        return sign | max_finite_pattern(f);
    }
    sign | ((e as u32) << f.man_bits) | frac_bits
}

fn frac_overflows(f: Format, e: i32, frac: u32) -> bool {
    if e < max_biased_exp(f) {
        return false;
    }
    let mut man_max = (1u32 << f.man_bits) - 1;
    if f.finite_only {
        man_max &= !1;
    }
    frac > man_max
}

fn round_magnitude(f: Format, mag: f64) -> (i32, u32) {
    let bias = f.bias();
    let mut e_unb = mag.log2().floor() as i32;
    if 2f64.powi(e_unb + 1) <= mag {
        e_unb += 1;
    } else if 2f64.powi(e_unb) > mag {
        e_unb -= 1;
    }
    let min_unb = 1 - bias;
    let (scale_exp, implicit_one) = if e_unb < min_unb { (min_unb, false) } else { (e_unb, true) };
    let frac = mag / 2f64.powi(scale_exp);
    let steps = (1u64 << f.man_bits) as f64;
    let units = frac * steps;
    let mut k = round_ties_even(units);
    let mut e = if implicit_one { scale_exp + bias } else { 0 };
    let full = 1u64 << f.man_bits;
    if implicit_one {
        if k >= 2 * full {
            e += 1;
            k = full;
        }
        (e, (k - full) as u32)
    } else if k >= full {
        (1, (k - full) as u32)
    } else {
        (0, k as u32)
    }
}

/// Reference `Format::decode`.
pub fn decode(f: Format, bits: u32) -> f64 {
    let bits = bits & ((1u32 << f.total_bits()) - 1);
    let sign = if bits >> (f.exp_bits + f.man_bits) & 1 == 1 { -1.0 } else { 1.0 };
    let e = (bits >> f.man_bits) & ((1 << f.exp_bits) - 1);
    let m = bits & ((1 << f.man_bits) - 1);
    let bias = f.bias();
    let top = (1u32 << f.exp_bits) - 1;
    if e == top && !f.finite_only {
        if m == 0 {
            return sign * f64::INFINITY;
        }
        return f64::NAN;
    }
    if f.finite_only && e == top && m == (1 << f.man_bits) - 1 {
        return f64::NAN;
    }
    if e == 0 {
        let frac = m as f64 / (1u64 << f.man_bits) as f64;
        return sign * frac * 2f64.powi(1 - bias);
    }
    let frac = 1.0 + m as f64 / (1u64 << f.man_bits) as f64;
    sign * frac * 2f64.powi(e as i32 - bias)
}

fn nan_pattern(f: Format) -> u32 {
    if f.finite_only {
        (1u32 << (f.exp_bits + f.man_bits)) - 1
    } else {
        let exp = ((1u32 << f.exp_bits) - 1) << f.man_bits;
        exp | 1
    }
}

fn max_finite_pattern(f: Format) -> u32 {
    let e = max_biased_exp(f) as u32;
    let mut man_max = (1u32 << f.man_bits) - 1;
    if f.finite_only {
        man_max &= !1;
    }
    (e << f.man_bits) | man_max
}

fn round_ties_even(x: f64) -> u64 {
    let floor = x.floor();
    let diff = x - floor;
    let f = floor as u64;
    if diff > 0.5 || (diff == 0.5 && !f.is_multiple_of(2)) {
        f + 1
    } else {
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp22;
    use crate::minifloat::F8E4M3;
    use crate::tensorcore;

    const FORMATS: [Format; 4] = [Format::E4M3, Format::E5M2, Format::E5M6, Format::BF16];

    /// Samples per kernel in the seeded sweeps.
    const SWEEP: usize = 1_000_000;

    /// SplitMix64: a tiny seeded generator, so a failing sample can be
    /// reproduced from its index alone.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform integer in `lo..=hi`.
        fn range(&mut self, lo: i32, hi: i32) -> i32 {
            lo + (self.next() % (hi - lo + 1) as u64) as i32
        }

        /// A normal `f64` with random sign and fraction whose unbiased
        /// exponent is `e` (clamped to the normal range).
        fn normal_with_exp(&mut self, e: i32) -> f64 {
            let biased = (e.clamp(-1022, 1023) + 1023) as u64;
            let bits = (self.next() & (1 << 63)) | biased << 52 | (self.next() >> 12);
            f64::from_bits(bits)
        }
    }

    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits()
    }

    #[test]
    fn decode_matches_reference_on_every_code() {
        for f in FORMATS {
            for bits in 0..1u32 << f.total_bits() {
                let (got, want) = (f.decode(bits), decode(f, bits));
                assert!(same(got, want), "{f:?} decode({bits:#x}): {got:e} vs {want:e}");
            }
        }
    }

    /// Every representable positive value of `f` in ascending order.
    fn grid(f: Format) -> Vec<f64> {
        let max = f.encode(f.max_finite());
        (0..=max).map(|bits| f.decode(bits)).collect()
    }

    #[test]
    fn encode_matches_reference_on_grid_points_and_midpoints() {
        for f in FORMATS {
            let g = grid(f);
            let step_above_max = g[g.len() - 1] - g[g.len() - 2];
            let mut probes = Vec::new();
            for (i, &v) in g.iter().enumerate() {
                let next = g.get(i + 1).copied().unwrap_or(v + step_above_max);
                let mid = v + (next - v) / 2.0;
                probes.extend([v, v.next_down(), v.next_up(), mid, mid.next_down(), mid.next_up()]);
            }
            for x in probes {
                for x in [x, -x] {
                    let (got, want) = (f.encode(x), encode(f, x));
                    assert_eq!(got, want, "{f:?} encode({x:e})");
                }
            }
        }
    }

    #[test]
    fn encode_matches_reference_on_seeded_sweep() {
        let mut rng = Mix(0xe4_3e_5a_1e);
        for f in FORMATS {
            // Exponents from far below the subnormal range to far above
            // the overflow edge.
            let emin = 1 - f.bias() - f.man_bits as i32;
            let emax = f.bias() + 1;
            for _ in 0..SWEEP {
                let e = rng.range(emin - 4, emax + 4);
                let x = rng.normal_with_exp(e);
                let (got, want) = (f.encode(x), encode(f, x));
                assert_eq!(got, want, "{f:?} encode({x:e})");
            }
        }
    }

    #[test]
    fn encode_matches_reference_on_specials() {
        let tiny = [5e-324, f64::MIN_POSITIVE / 2.0, f64::MIN_POSITIVE, f64::MAX];
        for f in FORMATS {
            for x in tiny.into_iter().chain([0.0, f64::NAN]) {
                for x in [x, -x] {
                    assert_eq!(f.encode(x), encode(f, x), "{f:?} encode({x:e})");
                }
            }
        }
        // Infinities match wherever the format has them.
        for f in [Format::E5M2, Format::E5M6, Format::BF16] {
            for x in [f64::INFINITY, f64::NEG_INFINITY] {
                assert_eq!(f.encode(x), encode(f, x), "{f:?} encode({x})");
            }
        }
    }

    #[test]
    fn encode_inf_saturates_on_finite_only_formats() {
        assert_eq!(Format::E4M3.encode(f64::INFINITY), 0x7e);
        assert_eq!(Format::E4M3.encode(f64::NEG_INFINITY), 0xfe);
        assert_eq!(Format::E4M3.quantize(f64::INFINITY), 448.0);
        assert_eq!(Format::E4M3.quantize(f64::NEG_INFINITY), -448.0);
        assert_eq!(F8E4M3::from_f32(f32::INFINITY).to_f64(), 448.0);
        assert_eq!(F8E4M3::from_f32(f32::NEG_INFINITY).to_f64(), -448.0);
    }

    #[test]
    fn exponent_of_matches_reference_on_normals() {
        let mut rng = Mix(0xe9_0e_17);
        for _ in 0..SWEEP {
            let e = rng.range(-1022, 1023);
            let x = rng.normal_with_exp(e);
            assert_eq!(fp22::exponent_of(x), exponent_of(x), "exponent_of({x:e})");
        }
        for x in [f64::MIN_POSITIVE, f64::MAX, 1.0, 1.0f64.next_down(), 2.0f64.next_down()] {
            assert_eq!(fp22::exponent_of(x), exponent_of(x), "exponent_of({x:e})");
        }
    }

    #[test]
    fn exponent_of_is_exact_on_f64_subnormals() {
        assert_eq!(fp22::exponent_of(5e-324), -1074);
        assert_eq!(fp22::exponent_of(-5e-324), -1074);
        assert_eq!(fp22::exponent_of(f64::MIN_POSITIVE / 2.0), -1023);
        assert_eq!(fp22::exponent_of(f64::MIN_POSITIVE.next_down()), -1023);
        assert_eq!(fp22::exponent_of(3.0 * 5e-324), -1073);
    }

    #[test]
    fn round_to_mantissa_bits_matches_reference() {
        let mut rng = Mix(0xf9_22);
        for bits in [0, 1, 3, 7, 13, 23, 51] {
            // Every power of two the reference builds must be
            // representable: e - bits >= -1023.
            let lo = -1023 + bits as i32;
            for _ in 0..SWEEP / 4 {
                let e = rng.range(lo, 1023);
                let x = rng.normal_with_exp(e);
                let (got, want) =
                    (fp22::round_to_mantissa_bits(x, bits), round_to_mantissa_bits(x, bits));
                assert!(same(got, want), "round({x:e}, {bits}): {got:e} vs {want:e}");
            }
        }
        // Midpoints at 13 bits, ±1 ulp, including the carry into the
        // next binade and the overflow to infinity at the top.
        let mut probes = vec![0.0, f64::MAX, f64::INFINITY, f64::NAN];
        for e in [-1000, -126, -1, 0, 1, 127, 1023] {
            let ulp = f64::from_bits(((e - 13 + 1023) as u64) << 52);
            for k in [0u64, 1, 2, 3, (1 << 13) - 1, (1 << 14) - 1] {
                let v = f64::from_bits(((e + 1023) as u64) << 52) + k as f64 * ulp;
                let mid = v + ulp / 2.0;
                probes.extend([v, mid, mid.next_down(), mid.next_up()]);
            }
        }
        for x in probes {
            for x in [x, -x] {
                let (got, want) =
                    (fp22::round_to_mantissa_bits(x, 13), round_to_mantissa_bits(x, 13));
                assert!(same(got, want), "round({x:e}, 13): {got:e} vs {want:e}");
            }
        }
    }

    #[test]
    fn round_to_mantissa_bits_is_exact_below_the_reference_domain() {
        // The reference divides by 2^(e - 13), which flushes to zero here.
        let x = f64::from_bits((3 << 52) | 0x0008_0000_0000_1234);
        assert_eq!(fp22::exponent_of(x), -1020);
        assert_eq!(
            fp22::round_to_mantissa_bits(x, 13),
            f64::from_bits((3 << 52) | 0x0008_0000_0000_0000)
        );
        assert_eq!(fp22::round_to_mantissa_bits(f64::MIN_POSITIVE, 13), f64::MIN_POSITIVE);
        // f64 subnormals round at 13 bits below their own leading bit.
        assert_eq!(fp22::round_to_mantissa_bits(5e-324, 13), 5e-324);
        assert_eq!(fp22::round_to_mantissa_bits(-5e-324, 13), -5e-324);
        let s = f64::from_bits((1 << 20) | (1 << 6) | 1);
        assert_eq!(fp22::round_to_mantissa_bits(s, 13), f64::from_bits((1 << 20) | (1 << 7)));
        assert_eq!(fp22::round_to_mantissa_bits(s, 20), s);
        assert!(fp22::round_to_mantissa_bits(-0.0, 13).is_sign_negative());
    }

    #[test]
    fn truncate_at_exponent_matches_reference() {
        let mut rng = Mix(0x7_c0de);
        for _ in 0..SWEEP {
            let bits = rng.range(0, 30) as u32;
            // Alignment: x is at most the reference binade.
            let reference = rng.range(-1023 + bits as i32, 1023);
            let e = rng.range(reference - 60, reference);
            let x = rng.normal_with_exp(e);
            let (got, want) = (
                fp22::truncate_at_exponent(x, reference, bits),
                truncate_at_exponent(x, reference, bits),
            );
            assert!(same(got, want), "trunc({x:e}, {reference}, {bits}): {got:e} vs {want:e}");
        }
        for x in [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.0, -1.0, 0.99, -0.99] {
            let (got, want) = (fp22::truncate_at_exponent(x, 0, 4), truncate_at_exponent(x, 0, 4));
            assert!(same(got, want), "trunc({x:e}, 0, 4): {got:e} vs {want:e}");
        }
        assert!(fp22::truncate_at_exponent(f64::NAN, 0, 4).is_nan());
        // Below the grid step the result is a signed zero.
        assert!(same(fp22::truncate_at_exponent(-0.01, 0, 4), -0.0));
        // f64 subnormals.
        assert_eq!(fp22::truncate_at_exponent(5e-324, -1061, 13), 5e-324);
        assert!(same(fp22::truncate_at_exponent(-5e-324, -1050, 13), -0.0));
        let s = f64::from_bits(0b1011 << 30);
        assert_eq!(fp22::truncate_at_exponent(s, -1040, 1), f64::from_bits(0b1000 << 30));
    }

    #[test]
    fn gemm_execute_matches_reference() {
        use crate::gemm::Fp8Gemm;
        // Ragged K (a short last chunk and a short last 32-group), chunk
        // sizes other than 128, and per-channel magnitudes spread over
        // 2^-8 .. 2^7 so tile and block scales differ.
        for (seed, (m, k, n), chunk) in [
            (1, (3, 200, 5), 128),
            (2, (4, 2048, 4), 128),
            (3, (16, 256, 32), 64),
            (4, (2, 40, 3), 32),
        ] {
            let mut a = Matrix::random(m, k, 1.0, seed);
            for (i, v) in a.data.iter_mut().enumerate() {
                *v *= 2f32.powi((i % 16) as i32 - 8);
            }
            let b = Matrix::random(k, n, 0.1, seed + 100);
            for main_acc in [MainAccumulator::Fp32, MainAccumulator::Fp22, MainAccumulator::Exact] {
                let cfg = Fp8GemmConfig { chunk, main_acc, ..Fp8GemmConfig::default() };
                let g = Fp8Gemm::prepare(&a, &b, cfg);
                let (got, want) = (g.execute(), gemm_execute(&g.a, &g.b, cfg));
                let bits = |x: &Matrix| x.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{m}x{k}x{n} chunk {chunk} {main_acc:?}");
            }
        }
    }

    #[test]
    fn align_truncate_sum_matches_reference_on_mixed_sign_groups() {
        let mut rng = Mix(0xa1_16_4e);
        let mut group = [0f64; MMA_K];
        for _ in 0..SWEEP / MMA_K {
            let center = rng.range(-900, 900);
            let spread = rng.range(0, 40);
            let len = rng.range(1, MMA_K as i32) as usize;
            for p in &mut group[..len] {
                *p = match rng.next() % 16 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => {
                        let e = rng.range(center - spread, center + spread);
                        rng.normal_with_exp(e)
                    }
                };
            }
            let g = &group[..len];
            let (got, want) = (tensorcore::align_truncate_sum(g), align_truncate_sum(g));
            assert!(same(got, want), "{g:?}: {got:e} vs {want:e}");
        }
        for g in [&[0.0; 32][..], &[-0.0; 4], &[1.0, f64::INFINITY], &[f64::NAN, 2.0], &[]] {
            let (got, want) = (tensorcore::align_truncate_sum(g), align_truncate_sum(g));
            assert!(same(got, want) || (got.is_nan() && want.is_nan()), "{g:?}");
        }
    }
}
