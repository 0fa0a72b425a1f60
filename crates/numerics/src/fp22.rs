//! The FP22 accumulation register format of Hopper tensor cores.
//!
//! §3.1 of the paper: "Addition results are accumulated to FP22 registers
//! (1 sign bit, 8 exponent bits, and 13 mantissa bits)." FP22 therefore has
//! the dynamic range of `f32` but only 13 fraction bits, which is the root
//! cause of the accumulation-precision concern for large-K FP8 GEMMs.

use serde::{Deserialize, Serialize};

/// Number of explicit fraction bits kept by an FP22 register.
pub const FP22_MANTISSA_BITS: u32 = 13;

/// A value stored in a Hopper-style FP22 accumulation register.
///
/// Internally kept as an `f64` that is always exactly representable with 13
/// fraction bits (plus f32's 8-bit exponent range), so arithmetic can be
/// performed in `f64` and re-canonicalized.
///
/// ```
/// use dsv3_numerics::Fp22;
///
/// let a = Fp22::from_f64(1.0);
/// // Adding an ulp-of-f32-sized value is lost at 13 mantissa bits:
/// let b = a + 2f64.powi(-15);
/// assert_eq!(b.to_f64(), 1.0);
/// // ...but a 2^-13-sized value survives.
/// let c = a + 2f64.powi(-13);
/// assert!(c.to_f64() > 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Fp22(f64);

impl Fp22 {
    /// Zero register.
    #[must_use]
    pub fn new() -> Self {
        Self(0.0)
    }

    /// Round `x` into FP22 (round-to-nearest-even at 13 fraction bits,
    /// f32-like exponent range with saturation to f32's max finite binade).
    #[must_use]
    pub fn from_f64(x: f64) -> Self {
        Self(round_to_mantissa_bits(x, FP22_MANTISSA_BITS))
    }

    /// The stored value.
    #[must_use]
    pub fn to_f64(self) -> f64 {
        self.0
    }
}

impl std::ops::Add<f64> for Fp22 {
    type Output = Self;

    /// `self + x`, rounded back into FP22.
    fn add(self, x: f64) -> Self {
        Self::from_f64(self.0 + x)
    }
}

impl From<f64> for Fp22 {
    fn from(x: f64) -> Self {
        Self::from_f64(x)
    }
}

impl From<Fp22> for f64 {
    fn from(x: Fp22) -> f64 {
        x.to_f64()
    }
}

impl std::fmt::Display for Fp22 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Round `x` to `bits` explicit fraction bits (round-to-nearest-even),
/// preserving the exponent. Infinities, NaN and zero pass through.
///
/// Works on the IEEE-754 bits: the significand's bits below the kept
/// fraction are rounded away as an integer, and a carry out of the fraction
/// runs into the exponent field (up to infinity above `f64::MAX`).
#[must_use]
pub fn round_to_mantissa_bits(x: f64, bits: u32) -> f64 {
    let (sig, _) = significand(x);
    let shift = 63 - sig.leading_zeros() as i32 - bits as i32;
    if sig == 0 || !x.is_finite() || shift <= 0 {
        return x;
    }
    // The stored bits are `sig` plus an offset (the exponent field less its
    // implicit one), so swapping `sig` for its rounding lets a carry out of
    // the fraction run into the exponent.
    f64::from_bits(x.to_bits() - sig + (round_shift_even(sig, shift) << shift))
}

/// Truncate `x` toward zero at `bits` explicit fraction bits relative to the
/// binade of `reference_exponent` (used by the tensor-core alignment step).
///
/// The grid step is `2^(reference_exponent - bits)`; clearing the stored
/// bits below it truncates toward zero, and an `x` entirely below it
/// becomes a zero of `x`'s sign. Expects `|x| < 2^(reference_exponent + 1)`.
#[must_use]
pub fn truncate_at_exponent(x: f64, reference_exponent: i32, bits: u32) -> f64 {
    let (_, lsb) = significand(x);
    let shift = reference_exponent - bits as i32 - lsb;
    // Keep the stored bits at or above the grid step, or only the sign
    // when all of them lie below it.
    let keep = if shift > 52 { SIGN } else { !0 << shift.max(0) };
    if x.is_finite() {
        f64::from_bits(x.to_bits() & keep)
    } else {
        x
    }
}

/// Floor of log2(|x|) for finite nonzero `x`, read from the exponent field
/// (f64 subnormals from their leading fraction bit).
#[must_use]
pub fn exponent_of(x: f64) -> i32 {
    let (sig, lsb) = significand(x);
    lsb + 63 - sig.leading_zeros() as i32
}

/// The sign bit of an `f64`.
pub(crate) const SIGN: u64 = 1 << 63;

/// `|x| = sig · 2^lsb` with the integer significand `sig < 2^53` (the
/// implicit leading one included for normal numbers).
pub(crate) fn significand(x: f64) -> (u64, i32) {
    let bits = x.to_bits();
    let biased = (bits >> 52 & 0x7ff) as i32;
    let fraction = bits & ((1 << 52) - 1);
    if biased == 0 {
        (fraction, -1074)
    } else {
        (fraction | 1 << 52, biased - 1075)
    }
}

/// `v / 2^shift` rounded to the nearest integer, ties to even, for
/// `1 <= shift < 64` and `v < 2^62`: adding just under half, plus one more
/// when the kept part is odd, carries exactly when the dropped part is
/// above half, or at half with an odd kept part.
pub(crate) fn round_shift_even(v: u64, shift: i32) -> u64 {
    (v + (1 << (shift - 1)) - 1 + (v >> shift & 1)) >> shift
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp22_keeps_13_bits() {
        let x = 1.0 + 2f64.powi(-13);
        assert_eq!(Fp22::from_f64(x).to_f64(), x);
        let y = 1.0 + 2f64.powi(-14);
        // Ties to even: 1.0 + 2^-14 is halfway between 1.0 and 1.0+2^-13;
        // even mantissa is 1.0.
        assert_eq!(Fp22::from_f64(y).to_f64(), 1.0);
    }

    #[test]
    fn fp22_add_small_lost() {
        let mut acc = Fp22::from_f64(4096.0);
        for _ in 0..1000 {
            acc = acc + 0.2; // 0.2 < ulp(4096)@13bits = 0.5
        }
        assert_eq!(acc.to_f64(), 4096.0, "sub-ulp additions are lost entirely");
    }

    #[test]
    fn fp32_would_not_lose_them() {
        let mut acc = 4096.0f32;
        for _ in 0..1000 {
            acc += 0.2;
        }
        assert!((f64::from(acc) - 4296.0).abs() < 1.0);
    }

    #[test]
    fn exponent_of_edges() {
        assert_eq!(exponent_of(1.0), 0);
        assert_eq!(exponent_of(0.5), -1);
        assert_eq!(exponent_of(2.0), 1);
        assert_eq!(exponent_of(-3.0), 1);
        assert_eq!(exponent_of(448.0), 8);
    }

    #[test]
    fn truncate_is_toward_zero() {
        // reference exponent 0, 4 bits: grid step 1/16
        assert_eq!(truncate_at_exponent(0.99, 0, 4), 0.9375);
        assert_eq!(truncate_at_exponent(-0.99, 0, 4), -0.9375);
    }

    #[test]
    fn zero_and_specials_pass_through() {
        assert_eq!(round_to_mantissa_bits(0.0, 13), 0.0);
        assert!(round_to_mantissa_bits(f64::NAN, 13).is_nan());
        assert_eq!(round_to_mantissa_bits(f64::INFINITY, 13), f64::INFINITY);
    }
}
