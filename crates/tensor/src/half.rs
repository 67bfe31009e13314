//! Software IEEE 754 binary16 ("half") storage type.
//!
//! The paper trains in mixed precision: FP16 storage with FP32
//! accumulation. Our compute stays `f32`, but data-movement *volumes* are
//! accounted at [`F16::BYTES`] per word exactly as the paper's, and [`F16`]
//! lets tests exercise storage-precision round-trips.

use std::fmt;

/// An IEEE 754 binary16 value stored as its bit pattern.
///
/// # Examples
///
/// ```
/// use xform_tensor::half::F16;
/// let h = F16::from_f32(1.5);
/// assert_eq!(h.to_f32(), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct F16(u16);

impl F16 {
    /// Size of one half-precision word in bytes — the unit of the paper's
    /// data-movement accounting ("words" in Fig. 2 are 2-byte FP16 words).
    pub const BYTES: usize = 2;

    /// Positive zero.
    pub const ZERO: F16 = F16(0);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Largest finite value (65504).
    pub const MAX: F16 = F16(0x7BFF);

    /// Creates a half from its raw bit pattern.
    pub fn from_bits(bits: u16) -> Self {
        F16(bits)
    }

    /// The raw bit pattern.
    pub fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts from `f32` with round-to-nearest-even, saturating NaN/Inf
    /// semantics matching hardware conversion instructions.
    pub fn from_f32(x: f32) -> Self {
        let bits = x.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let frac = bits & 0x7F_FFFF;

        if exp == 0xFF {
            // NaN or infinity
            let payload = if frac != 0 { 0x0200 } else { 0 };
            return F16(sign | 0x7C00 | payload);
        }
        // Re-bias: f32 bias 127, f16 bias 15.
        let unbiased = exp - 127;
        if unbiased > 15 {
            return F16(sign | 0x7C00); // overflow to infinity
        }
        if unbiased >= -14 {
            // normal half
            let half_exp = (unbiased + 15) as u16;
            let mut half_frac = (frac >> 13) as u16;
            // round to nearest even on the 13 dropped bits
            let dropped = frac & 0x1FFF;
            if dropped > 0x1000 || (dropped == 0x1000 && (half_frac & 1) == 1) {
                half_frac += 1;
                if half_frac == 0x400 {
                    // fraction overflowed into the exponent
                    return F16(sign | ((half_exp + 1) << 10));
                }
            }
            F16(sign | (half_exp << 10) | half_frac)
        } else if unbiased >= -25 {
            // subnormal half; at 2⁻²⁵ every mantissa bit is dropped and
            // the rounding alone decides between zero and the smallest
            // subnormal
            let shift = (-14 - unbiased) as u32; // 1..=11
            let mant = 0x80_0000 | frac; // implicit leading 1
            let total_shift = 13 + shift;
            let mut half_frac = (mant >> total_shift) as u16;
            let dropped = mant & ((1 << total_shift) - 1);
            let half_point = 1u32 << (total_shift - 1);
            if dropped > half_point || (dropped == half_point && (half_frac & 1) == 1) {
                half_frac += 1;
            }
            F16(sign | half_frac)
        } else {
            F16(sign) // underflow to signed zero
        }
    }

    /// Converts to `f32` (exact: every half is representable).
    pub fn to_f32(self) -> f32 {
        let sign = ((self.0 & 0x8000) as u32) << 16;
        let exp = ((self.0 >> 10) & 0x1F) as u32;
        let frac = (self.0 & 0x3FF) as u32;
        let bits = if exp == 0 {
            if frac == 0 {
                sign // signed zero
            } else {
                // subnormal: normalize (value = frac · 2⁻²⁴ = 1.m · 2⁻¹⁴⁻ˢ)
                let mut e = -14i32;
                let mut f = frac;
                while f & 0x400 == 0 {
                    f <<= 1;
                    e -= 1;
                }
                f &= 0x3FF;
                sign | (((e + 127) as u32) << 23) | (f << 13)
            }
        } else if exp == 0x1F {
            sign | 0x7F80_0000 | (frac << 13) // inf/NaN
        } else {
            sign | ((exp + 127 - 15) << 23) | (frac << 13)
        };
        f32::from_bits(bits)
    }

    /// Whether the value is NaN.
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x3FF) != 0
    }
}

impl From<f32> for F16 {
    fn from(x: f32) -> Self {
        F16::from_f32(x)
    }
}

impl From<F16> for f32 {
    fn from(h: F16) -> f32 {
        h.to_f32()
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

/// Quantizes an `f32` slice through half precision in place, modelling a
/// store-to-FP16 / load-from-FP16 round trip.
pub fn quantize_roundtrip(xs: &mut [f32]) {
    for x in xs {
        *x = F16::from_f32(*x).to_f32();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_integers_roundtrip() {
        for i in -2048..=2048 {
            let x = i as f32;
            assert_eq!(F16::from_f32(x).to_f32(), x, "failed at {i}");
        }
    }

    #[test]
    fn powers_of_two_roundtrip() {
        for e in -14..=15 {
            let x = (2.0f32).powi(e);
            assert_eq!(F16::from_f32(x).to_f32(), x);
        }
    }

    #[test]
    fn constants_are_consistent() {
        assert_eq!(F16::ZERO.to_f32(), 0.0);
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert!(F16::INFINITY.to_f32().is_infinite());
    }

    /// Round-to-nearest-even at both ends of the range: the largest
    /// finite half absorbs everything below the midpoint to infinity, and
    /// the smallest subnormal everything above the midpoint to zero — a
    /// tie goes to the even neighbour (infinity's predecessor is odd, zero
    /// is even).
    #[test]
    fn both_range_boundaries_round_to_nearest_even() {
        assert_eq!(F16::from_f32(65519.99).to_bits(), 0x7BFF);
        assert_eq!(F16::from_f32(65520.0).to_bits(), 0x7C00);
        let tiny = (2.0f32).powi(-25);
        assert_eq!(F16::from_f32(tiny).to_bits(), 0x0000, "the tie");
        assert_eq!(
            F16::from_f32(f32::from_bits(tiny.to_bits() + 1)).to_bits(),
            0x0001
        );
        assert_eq!(F16::from_f32(1.5 * tiny).to_bits(), 0x0001);
        assert_eq!(F16::from_f32(-1.5 * tiny).to_bits(), 0x8001);
        assert_eq!(
            F16::from_f32(f32::from_bits(tiny.to_bits() - 1)).to_bits(),
            0x0000
        );
        assert_eq!(F16::from_f32(2.0 * tiny).to_bits(), 0x0001);
        // 1.5 · 2⁻²⁴ ties between subnormals 1 and 2: to the even one
        assert_eq!(F16::from_f32(3.0 * tiny).to_bits(), 0x0002);
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert!(F16::from_f32(1e6).to_f32().is_infinite());
        assert!(F16::from_f32(-1e6).to_f32().is_infinite());
        assert!(F16::from_f32(-1e6).to_f32() < 0.0);
    }

    #[test]
    fn underflow_flushes_to_zero() {
        assert_eq!(F16::from_f32(1e-10).to_f32(), 0.0);
    }

    #[test]
    fn subnormals_roundtrip() {
        let smallest_subnormal = (2.0f32).powi(-24);
        assert_eq!(
            F16::from_f32(smallest_subnormal).to_f32(),
            smallest_subnormal
        );
        let sub = 3.0 * (2.0f32).powi(-24);
        assert_eq!(F16::from_f32(sub).to_f32(), sub);
    }

    #[test]
    fn nan_propagates() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
        assert!(!F16::from_f32(1.0).is_nan());
        assert!(!F16::INFINITY.is_nan());
    }

    #[test]
    fn rounding_is_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1 and the next half; ties to
        // even keeps 1.0.
        let halfway = 1.0 + (2.0f32).powi(-11);
        assert_eq!(F16::from_f32(halfway).to_f32(), 1.0);
        // slightly above the halfway point rounds up
        let above = 1.0 + (2.0f32).powi(-11) + (2.0f32).powi(-13);
        assert!(F16::from_f32(above).to_f32() > 1.0);
    }

    #[test]
    fn relative_error_bounded_for_normals() {
        let mut x = 6.1e-5f32;
        while x < 6.0e4 {
            let r = F16::from_f32(x).to_f32();
            let rel = ((r - x) / x).abs();
            assert!(rel <= 1.0 / 1024.0, "rel error {rel} at {x}");
            x *= 1.37;
        }
    }

    #[test]
    fn quantize_roundtrip_slice() {
        let mut xs = vec![0.1, 1.0, -3.25, 100.0];
        quantize_roundtrip(&mut xs);
        assert_eq!(xs[1], 1.0);
        assert_eq!(xs[2], -3.25);
        assert!((xs[0] - 0.1).abs() < 1e-4);
    }
}
