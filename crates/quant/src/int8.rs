//! Symmetric int8 quantization.
//!
//! The GridWorld policy is deployed "quantized to 8-bit" (§IV-A-1): each
//! weight buffer stores sign-magnitude `u8` codes plus one scale fit on
//! the largest observed magnitude. The int8 codes are the fault surface
//! for the GridWorld experiments.

use crate::QuantError;

/// A symmetric sign-magnitude `f32 → u8` quantizer:
/// `code = sign << 7 | round(|value| / scale)` with a 7-bit magnitude.
///
/// This is the encoding edge accelerators use for weight buffers, and
/// the one behind the paper's Fig. 3d observation: a trained policy's
/// weights cluster near zero, so their magnitude bits are almost all 0
/// (~86% zero bits) — which is why 0→1 flips (creating large-magnitude
/// outliers) are far more damaging than 1→0 flips.
///
/// ```
/// use frlfi_quant::SymInt8Quantizer;
///
/// # fn main() -> Result<(), frlfi_quant::QuantError> {
/// let q = SymInt8Quantizer::fit(&[-1.0, 0.1, 2.0])?;
/// assert!((q.decode(q.encode(0.1)) - 0.1).abs() <= q.scale());
/// assert_eq!(q.encode(0.0) & 0x7F, 0); // zero has no magnitude bits
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SymInt8Quantizer {
    scale: f32,
}

impl SymInt8Quantizer {
    /// Creates a quantizer covering `[-max_abs, max_abs]`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::DegenerateRange`] if `max_abs` is not a
    /// positive finite number.
    pub fn from_max_abs(max_abs: f32) -> Result<SymInt8Quantizer, QuantError> {
        if !max_abs.is_finite() || max_abs <= 0.0 {
            return Err(QuantError::DegenerateRange { lo: -max_abs, hi: max_abs });
        }
        Ok(SymInt8Quantizer { scale: max_abs / 127.0 })
    }

    /// Fits a quantizer on the largest magnitude of observed values.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::DegenerateRange`] if no finite, non-zero
    /// value exists (an all-zero buffer still fits with unit scale).
    pub fn fit(values: &[f32]) -> Result<SymInt8Quantizer, QuantError> {
        if values.is_empty() {
            return Err(QuantError::DegenerateRange { lo: 0.0, hi: 0.0 });
        }
        let max_abs = values.iter().filter(|v| v.is_finite()).fold(0.0f32, |m, &v| m.max(v.abs()));
        if max_abs == 0.0 {
            // All-zero buffers still deserve a usable quantizer.
            return Ok(SymInt8Quantizer { scale: 1.0 / 127.0 });
        }
        SymInt8Quantizer::from_max_abs(max_abs)
    }

    /// The quantization step size.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Encodes a value (sign bit 7, magnitude bits 0–6), saturating the
    /// magnitude at 127.
    pub fn encode(&self, value: f32) -> u8 {
        let sign = if value.is_sign_negative() { 0x80u8 } else { 0 };
        let mag = (value.abs() / self.scale).round();
        let mag = if mag.is_nan() { 0 } else { mag.min(127.0) as u8 };
        sign | mag
    }

    /// Decodes a code back to a value.
    pub fn decode(&self, code: u8) -> f32 {
        let mag = (code & 0x7F) as f32 * self.scale;
        if code & 0x80 != 0 {
            -mag
        } else {
            mag
        }
    }

    /// Round-trips a value through the quantizer.
    pub fn quantize(&self, value: f32) -> f32 {
        self.decode(self.encode(value))
    }

    /// Encodes a slice to codes.
    pub fn encode_slice(&self, values: &[f32]) -> Vec<u8> {
        values.iter().map(|&v| self.encode(v)).collect()
    }
}

#[cfg(test)]
mod sym_tests {
    use super::*;
    use crate::BitCensus;

    #[test]
    fn round_trip_within_scale() {
        let q = SymInt8Quantizer::from_max_abs(2.0).unwrap();
        for i in -20..=20 {
            let v = i as f32 / 10.0;
            assert!((q.quantize(v) - v).abs() <= q.scale() / 2.0 + 1e-6);
        }
    }

    #[test]
    fn near_zero_weights_are_mostly_zero_bits() {
        // A narrow, zero-clustered weight distribution — as trained
        // policies have — encodes to mostly 0 bits (Fig. 3d).
        let weights: Vec<f32> =
            (0..1000).map(|i| ((i as f32 * 0.618).sin()) * 0.05).collect::<Vec<_>>();
        let mut with_outlier = weights.clone();
        with_outlier.push(1.0); // sets the scale
        let q = SymInt8Quantizer::fit(&with_outlier).unwrap();
        let census = BitCensus::of_u8(&q.encode_slice(&with_outlier));
        assert!(
            census.fraction_zeros() > 0.7,
            "expected mostly zero bits, got {}",
            census.fraction_zeros()
        );
    }

    #[test]
    fn saturates_magnitude() {
        let q = SymInt8Quantizer::from_max_abs(1.0).unwrap();
        assert_eq!(q.encode(50.0) & 0x7F, 127);
        assert_eq!(q.encode(-50.0), 0x80 | 127);
    }

    #[test]
    fn all_zero_fit_is_usable() {
        let q = SymInt8Quantizer::fit(&[0.0; 8]).unwrap();
        assert_eq!(q.encode(0.0) & 0x7F, 0);
    }

    #[test]
    fn rejects_empty_and_bad_range() {
        assert!(SymInt8Quantizer::fit(&[]).is_err());
        assert!(SymInt8Quantizer::from_max_abs(0.0).is_err());
        assert!(SymInt8Quantizer::from_max_abs(f32::NAN).is_err());
    }
}
