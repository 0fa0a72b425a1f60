//! Generic binary minifloat codec and the concrete formats used by the paper.
//!
//! A [`Format`] describes a sign/exponent/mantissa layout. [`Format::encode`]
//! converts an `f64` to the nearest representable value (round-to-nearest,
//! ties-to-even) and returns its bit pattern; [`Format::decode`] converts a
//! bit pattern back to `f64`. Saturating behaviour on overflow is the one
//! used by FP8 training frameworks (values beyond the max finite magnitude
//! clamp to it rather than becoming infinity/NaN), which is also what
//! DeepSeek-V3's quantizer relies on.
//!
//! Both directions work on IEEE-754 bits: every scaling between an `f64`
//! and a format's grid is by a power of two, so rounding is an integer
//! operation on the `f64`'s significand, and a code decodes by assembling
//! the `f64`'s fields. E4M3 and E5M2 decode from 256-entry tables built at
//! compile time.

use crate::fp22::{exponent_of, round_shift_even, significand};
use serde::{Deserialize, Serialize};

/// Layout and semantics of a binary minifloat format.
///
/// The format always has one sign bit, `exp_bits` exponent bits with bias
/// `2^(exp_bits-1) - 1`, and `man_bits` mantissa bits. Subnormals are
/// supported. `finite_only` selects OCP-FP8-E4M3-style semantics where the
/// top exponent code is reused for normal values (only the all-ones
/// exponent+mantissa pattern is NaN and there is no infinity).
///
/// The codec assumes every value of the format is a normal `f64`, which
/// holds up to 10 exponent bits, and a code of at most 31 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Format {
    /// Number of exponent bits.
    pub exp_bits: u32,
    /// Number of explicit mantissa (fraction) bits.
    pub man_bits: u32,
    /// If true, the top exponent code encodes normal numbers (E4M3 style);
    /// if false, it encodes infinity/NaN (IEEE style, E5M2/BF16).
    pub finite_only: bool,
}

impl Format {
    /// The OCP 8-bit E4M3 format: 4 exponent bits, 3 mantissa bits, no
    /// infinities, maximum finite value 448.
    pub const E4M3: Format = Format { exp_bits: 4, man_bits: 3, finite_only: true };
    /// The OCP 8-bit E5M2 format: 5 exponent bits, 2 mantissa bits, IEEE
    /// special values, maximum finite value 57344.
    pub const E5M2: Format = Format { exp_bits: 5, man_bits: 2, finite_only: false };
    /// The 12-bit E5M6 format mentioned in §3.2 as a candidate combine-stage
    /// precision.
    pub const E5M6: Format = Format { exp_bits: 5, man_bits: 6, finite_only: false };
    /// bfloat16: 8 exponent bits, 7 mantissa bits.
    pub const BF16: Format = Format { exp_bits: 8, man_bits: 7, finite_only: false };

    /// Total storage width in bits (including the sign bit).
    #[must_use]
    pub const fn total_bits(&self) -> u32 {
        1 + self.exp_bits + self.man_bits
    }

    /// Exponent bias.
    #[must_use]
    pub const fn bias(&self) -> i32 {
        (1 << (self.exp_bits - 1)) - 1
    }

    const fn max_biased_exp(&self) -> i32 {
        // Highest biased exponent usable for normal numbers.
        let top = (1 << self.exp_bits) - 1;
        if self.finite_only {
            top
        } else {
            top - 1
        }
    }

    /// Largest finite representable magnitude.
    #[must_use]
    pub fn max_finite(&self) -> f64 {
        self.decode(self.max_finite_pattern())
    }

    /// Smallest positive normal magnitude.
    #[must_use]
    pub fn min_normal(&self) -> f64 {
        self.decode(1 << self.man_bits)
    }

    /// Smallest positive subnormal magnitude.
    #[must_use]
    pub fn min_subnormal(&self) -> f64 {
        self.decode(1)
    }

    /// Encode `x` to the nearest representable value's bit pattern
    /// (round-to-nearest, ties-to-even; magnitudes beyond
    /// [`max_finite`](Self::max_finite) saturate to it, and so do the
    /// infinities of a finite-only format).
    #[must_use]
    #[inline]
    pub fn encode(&self, x: f64) -> u32 {
        let sign = ((x.to_bits() >> 63) as u32) << (self.exp_bits + self.man_bits);
        if x.is_nan() {
            return sign | self.nan_pattern();
        }
        let max = self.max_finite_pattern();
        if x.is_infinite() {
            // IEEE-style formats keep infinity; finite-only ones saturate.
            return sign | if self.finite_only { max } else { self.inf_pattern() };
        }
        if x == 0.0 {
            return sign;
        }
        // Round first, then saturate: a value that rounds *down* into range
        // must not be clamped prematurely.
        sign | self.round_magnitude(x).min(u64::from(max)) as u32
    }

    /// The magnitude bit pattern (biased exponent and fraction) of finite
    /// nonzero `|x|` rounded to the format's grid. The pattern may lie above
    /// the largest finite encoding, which the caller treats as overflow.
    ///
    /// Works on the IEEE-754 bits of `x`: `|x| = sig · 2^lsb` exactly, and
    /// the format's grid step in `x`'s binade is a power of two, so rounding
    /// is an integer shift of `sig` with a ties-to-even increment.
    #[inline]
    fn round_magnitude(&self, x: f64) -> u64 {
        let (sig, lsb) = significand(x);
        let e = exponent_of(x);
        let min_e = 1 - self.bias();
        // Grid step 2^(max(e, min_e) - man_bits), in units of 2^lsb.
        let shift = e.max(min_e) - self.man_bits as i32 - lsb;
        let k = match shift {
            ..=0 => sig << -shift,
            1..=63 => round_shift_even(sig, shift),
            _ => 0,
        };
        // `k` counts grid steps. A normal value's k includes the implicit
        // one (2^man_bits), so it adds onto the biased exponent less one:
        // a carry out of the fraction then bumps the exponent, and a
        // subnormal k that reaches 2^man_bits becomes the smallest normal.
        let below = ((e - min_e).max(0) as u64) << self.man_bits;
        below + k
    }

    /// Decode a bit pattern to `f64`. Bits above
    /// [`total_bits`](Self::total_bits) are ignored.
    #[must_use]
    #[inline]
    pub fn decode(&self, bits: u32) -> f64 {
        match *self {
            Format::E4M3 => E4M3_DECODE[(bits & 0xff) as usize],
            Format::E5M2 => E5M2_DECODE[(bits & 0xff) as usize],
            _ => self.decode_bits(bits),
        }
    }

    /// [`decode`](Self::decode) without the 8-bit tables: the `f64` is
    /// assembled from the code's sign, exponent and fraction fields.
    const fn decode_bits(&self, bits: u32) -> f64 {
        let bits = bits & ((1u32 << self.total_bits()) - 1);
        let sign = ((bits >> (self.exp_bits + self.man_bits) & 1) as u64) << 63;
        let e = (bits >> self.man_bits) & ((1 << self.exp_bits) - 1);
        let m = (bits & ((1 << self.man_bits) - 1)) as u64;
        let top = (1u32 << self.exp_bits) - 1;
        if e == top && !self.finite_only {
            return if m == 0 { f64::from_bits(sign | f64::INFINITY.to_bits()) } else { f64::NAN };
        }
        if self.finite_only && e == top && m == (1 << self.man_bits) - 1 {
            return f64::NAN;
        }
        // |value| = sig · 2^lsb; subnormal codes have no implicit one.
        let (sig, lsb) = if e == 0 {
            (m, 1 - self.bias() - self.man_bits as i32)
        } else {
            (m | 1 << self.man_bits, e as i32 - self.bias() - self.man_bits as i32)
        };
        if sig == 0 {
            return f64::from_bits(sign);
        }
        let lead = 63 - sig.leading_zeros();
        let fraction = (sig << (52 - lead)) & ((1 << 52) - 1);
        let biased = (lsb + lead as i32 + 1023) as u64;
        f64::from_bits(sign | biased << 52 | fraction)
    }

    /// The value of every 8-bit code, built at compile time.
    const fn decode_table(&self) -> [f64; 256] {
        let mut table = [0.0; 256];
        let mut code = 0;
        while code < 256 {
            table[code] = self.decode_bits(code as u32);
            code += 1;
        }
        table
    }

    fn inf_pattern(&self) -> u32 {
        ((1u32 << self.exp_bits) - 1) << self.man_bits
    }

    fn nan_pattern(&self) -> u32 {
        if self.finite_only {
            // all-ones exponent and mantissa
            (1u32 << (self.exp_bits + self.man_bits)) - 1
        } else {
            self.inf_pattern() | 1 // quiet-ish NaN: nonzero mantissa
        }
    }

    fn max_finite_pattern(&self) -> u32 {
        let mut man_max = (1u32 << self.man_bits) - 1;
        if self.finite_only {
            // The all-ones exponent + all-ones mantissa pattern is NaN, so
            // the largest finite value has mantissa 111...0.
            man_max &= !1;
        }
        (self.max_biased_exp() as u32) << self.man_bits | man_max
    }

    /// Quantize `x` through the format: encode then decode.
    ///
    /// This is the "cast to FP8 and back" primitive used throughout the
    /// quantization and training experiments.
    #[must_use]
    #[inline]
    pub fn quantize(&self, x: f64) -> f64 {
        self.decode(self.encode(x))
    }

    /// Number of finite representable values (for diagnostics).
    #[must_use]
    pub fn finite_count(&self) -> u64 {
        // Patterns 0..=max_finite_pattern of one sign are all finite;
        // +0 and -0 collapse to a single logical value.
        2 * (u64::from(self.max_finite_pattern()) + 1) - 1
    }
}

static E4M3_DECODE: [f64; 256] = Format::E4M3.decode_table();
static E5M2_DECODE: [f64; 256] = Format::E5M2.decode_table();

macro_rules! concrete_minifloat {
    ($(#[$doc:meta])* $name:ident, $store:ty, $format:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
        pub struct $name($store);

        impl $name {
            /// The format descriptor for this type.
            pub const FORMAT: Format = $format;

            /// Convert from `f32` with round-to-nearest-even and saturation.
            #[must_use]
            pub fn from_f32(x: f32) -> Self {
                Self(Self::FORMAT.encode(f64::from(x)) as $store)
            }

            /// Convert from `f64` with round-to-nearest-even and saturation.
            #[must_use]
            pub fn from_f64(x: f64) -> Self {
                Self(Self::FORMAT.encode(x) as $store)
            }

            /// Exact value as `f32`.
            #[must_use]
            pub fn to_f32(self) -> f32 {
                Self::FORMAT.decode(u32::from(self.0)) as f32
            }

            /// Exact value as `f64`.
            #[must_use]
            pub fn to_f64(self) -> f64 {
                Self::FORMAT.decode(u32::from(self.0))
            }

            /// Raw bit pattern.
            #[must_use]
            pub fn to_bits(self) -> $store {
                self.0
            }

            /// Construct from a raw bit pattern.
            #[must_use]
            pub fn from_bits(bits: $store) -> Self {
                Self(bits)
            }

            /// Largest finite value of the format.
            #[must_use]
            pub fn max_value() -> f64 {
                Self::FORMAT.max_finite()
            }
        }

        impl From<f32> for $name {
            fn from(x: f32) -> Self {
                Self::from_f32(x)
            }
        }

        impl From<$name> for f32 {
            fn from(x: $name) -> f32 {
                x.to_f32()
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}", self.to_f64())
            }
        }
    };
}

concrete_minifloat!(
    /// An 8-bit OCP E4M3 value (dispatch-stage FP8; max finite 448, no inf).
    F8E4M3, u8, Format::E4M3
);
concrete_minifloat!(
    /// An 8-bit OCP E5M2 value (wider range, 2 mantissa bits; max 57344).
    F8E5M2, u8, Format::E5M2
);
concrete_minifloat!(
    /// A 12-bit E5M6 value, the custom combine-stage candidate from §3.2.
    E5M6, u16, Format::E5M6
);
concrete_minifloat!(
    /// A bfloat16 value (1/8/7).
    Bf16, u16, Format::BF16
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4m3_key_values() {
        assert_eq!(Format::E4M3.max_finite(), 448.0);
        assert_eq!(Format::E4M3.min_normal(), 2f64.powi(-6));
        assert_eq!(Format::E4M3.min_subnormal(), 2f64.powi(-9));
    }

    #[test]
    fn e5m2_key_values() {
        assert_eq!(Format::E5M2.max_finite(), 57344.0);
        assert_eq!(Format::E5M2.min_normal(), 2f64.powi(-14));
        assert_eq!(Format::E5M2.min_subnormal(), 2f64.powi(-16));
    }

    #[test]
    fn bf16_matches_f32_truncation_semantics() {
        // BF16 grid values decode exactly.
        for x in [1.0f64, -2.5, 0.15625, 3.0e38, 1e-38] {
            let q = Format::BF16.quantize(x);
            let q2 = Format::BF16.quantize(q);
            assert_eq!(q, q2, "idempotent at {x}");
        }
        assert_eq!(Format::BF16.quantize(1.0), 1.0);
        assert_eq!(Format::BF16.quantize(-2.5), -2.5);
    }

    #[test]
    fn saturation_not_infinity() {
        assert_eq!(F8E4M3::from_f32(1e9).to_f64(), 448.0);
        assert_eq!(F8E4M3::from_f32(-1e9).to_f64(), -448.0);
        assert_eq!(F8E5M2::from_f32(1e9).to_f64(), 57344.0);
    }

    #[test]
    fn zero_and_sign() {
        assert_eq!(F8E4M3::from_f32(0.0).to_f64(), 0.0);
        assert_eq!(F8E4M3::from_f32(-0.0).to_f64(), 0.0);
        assert!(F8E4M3::from_f32(-0.0).to_f64().is_sign_negative());
    }

    #[test]
    fn nan_roundtrip() {
        assert!(F8E4M3::from_f32(f32::NAN).to_f64().is_nan());
        assert!(F8E5M2::from_f32(f32::NAN).to_f64().is_nan());
        assert!(Bf16::from_f32(f32::NAN).to_f64().is_nan());
    }

    #[test]
    fn e5m2_keeps_infinity() {
        assert!(F8E5M2::from_f64(f64::INFINITY).to_f64().is_infinite());
        assert!(Bf16::from_f64(f64::NEG_INFINITY).to_f64() < 0.0);
    }

    #[test]
    fn round_to_nearest_even() {
        // In E4M3, between 16 and 17 (step 2 at that binade: values are
        // 16,17,... step = 2^(4-3)=2? binade [16,32) step = 16/8 = 2).
        // Representable: 16, 18, 20... midpoint 17 -> ties to even -> 16.
        assert_eq!(Format::E4M3.quantize(17.0), 16.0);
        assert_eq!(Format::E4M3.quantize(19.0), 20.0);
        // Just above midpoint rounds up.
        assert_eq!(Format::E4M3.quantize(17.0001), 18.0);
    }

    #[test]
    fn subnormal_encode_decode() {
        let tiny = 2f64.powi(-9); // E4M3 min subnormal
        assert_eq!(Format::E4M3.quantize(tiny), tiny);
        assert_eq!(Format::E4M3.quantize(tiny / 4.0), 0.0);
        assert_eq!(Format::E4M3.quantize(tiny * 3.0), tiny * 3.0);
    }

    #[test]
    fn subnormal_to_normal_promotion() {
        // Value just below min_normal rounds up into the normal range.
        let mn = Format::E4M3.min_normal();
        let x = mn - Format::E4M3.min_subnormal() / 4.0;
        let q = Format::E4M3.quantize(x);
        assert_eq!(q, mn);
    }

    #[test]
    fn all_e4m3_bit_patterns_roundtrip() {
        for bits in 0u32..=255 {
            let v = Format::E4M3.decode(bits);
            if v.is_nan() {
                continue;
            }
            let back = Format::E4M3.encode(v);
            assert_eq!(
                Format::E4M3.decode(back),
                v,
                "bits {bits:#010b} decoded to {v} then re-encoded to {back:#010b}"
            );
        }
    }

    #[test]
    fn all_e5m2_bit_patterns_roundtrip() {
        for bits in 0u32..=255 {
            let v = Format::E5M2.decode(bits);
            if v.is_nan() {
                continue;
            }
            let back = Format::E5M2.encode(v);
            assert_eq!(Format::E5M2.decode(back), v, "bits {bits:#010b}");
        }
    }

    #[test]
    fn carry_across_binade() {
        // Largest value in a binade rounds up across the binade boundary.
        // E4M3: 15.5 -> between 15 and 16; 15 and 16 both representable,
        // 15.5 ties -> 16 (even mantissa 0).
        assert_eq!(Format::E4M3.quantize(15.5), 16.0);
    }

    #[test]
    fn e5m6_wider_than_e5m2() {
        let x = 1.03;
        let e52 = (Format::E5M2.quantize(x) - x).abs();
        let e56 = (Format::E5M6.quantize(x) - x).abs();
        assert!(e56 < e52);
    }
}
