//! Signed fixed-point `Q(sign, int, frac)` formats.
//!
//! The paper's data-type study (§IV-B-3) compares three 16-bit layouts:
//! `Q(1,4,11)`, `Q(1,7,8)` and `Q(1,10,5)`. Wider integer fields give an
//! "unnecessarily large range" so high-bit flips produce larger outliers;
//! narrow formats that match the parameter range are more resilient.

/// A 16-bit signed fixed-point format with `1 + int_bits + frac_bits = 16`.
///
/// Values are stored as two's-complement codes scaled by `2^frac_bits`.
/// Encoding saturates at the representable range (matching accelerator
/// behaviour, which clamps rather than wraps on overflow).
///
/// ```
/// use frlfi_quant::QFormat;
///
/// let q = QFormat::Q4_11;
/// assert!((q.decode(q.encode(1.25)) - 1.25).abs() < q.resolution());
/// assert_eq!(q.encode(1000.0), q.encode(q.max_value())); // saturates
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QFormat {
    int_bits: u8,
    frac_bits: u8,
}

impl QFormat {
    /// `Q(1,4,11)` — the narrow format that best fits trained policies.
    pub const Q4_11: QFormat = QFormat { int_bits: 4, frac_bits: 11 };
    /// `Q(1,7,8)` — the middle format.
    pub const Q7_8: QFormat = QFormat { int_bits: 7, frac_bits: 8 };
    /// `Q(1,10,5)` — the wide format the paper finds most vulnerable.
    pub const Q10_5: QFormat = QFormat { int_bits: 10, frac_bits: 5 };

    /// Smallest representable positive step, `2^-frac_bits`.
    pub fn resolution(&self) -> f32 {
        (2.0f32).powi(-(self.frac_bits as i32))
    }

    /// Largest representable value.
    pub fn max_value(&self) -> f32 {
        (i16::MAX as f32) * self.resolution()
    }

    /// Encodes a value to its 16-bit two's-complement code, saturating at
    /// the representable range. Non-finite inputs saturate toward the sign.
    pub fn encode(&self, value: f32) -> u16 {
        let scaled = value / self.resolution();
        let clamped =
            if scaled.is_nan() { 0.0 } else { scaled.clamp(i16::MIN as f32, i16::MAX as f32) };
        (clamped.round() as i16) as u16
    }

    /// Decodes a 16-bit two's-complement code back to a value.
    pub fn decode(&self, code: u16) -> f32 {
        (code as i16 as f32) * self.resolution()
    }

    /// Round-trips a value through the format (quantization operator).
    pub fn quantize(&self, value: f32) -> f32 {
        self.decode(self.encode(value))
    }

    /// A short name such as `Q(1,4,11)`.
    pub fn name(&self) -> String {
        format!("Q(1,{},{})", self.int_bits, self.frac_bits)
    }
}

impl std::fmt::Display for QFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flip_bit_u16;

    #[test]
    fn round_trip_within_resolution() {
        for q in [QFormat::Q4_11, QFormat::Q7_8, QFormat::Q10_5] {
            for &v in &[0.0f32, 0.5, -0.5, 1.23, -3.21, 7.9] {
                assert!(
                    (q.quantize(v) - v).abs() <= q.resolution() / 2.0 + 1e-6,
                    "{q} failed to round-trip {v}"
                );
            }
        }
    }

    #[test]
    fn saturates_out_of_range() {
        let q = QFormat::Q4_11;
        assert_eq!(q.encode(1e9), q.encode(q.max_value()));
        assert_eq!(q.encode(-1e9), i16::MIN as u16);
        assert_eq!(q.encode(f32::NAN), 0);
    }

    #[test]
    fn ranges_ordered_by_int_bits() {
        assert!(QFormat::Q4_11.max_value() < QFormat::Q7_8.max_value());
        assert!(QFormat::Q7_8.max_value() < QFormat::Q10_5.max_value());
        assert!(QFormat::Q4_11.resolution() < QFormat::Q10_5.resolution());
    }

    #[test]
    fn sign_bit_flip_negates_region() {
        let q = QFormat::Q7_8;
        let code = q.encode(1.0);
        let flipped = q.decode(flip_bit_u16(code, 15));
        assert!(flipped < 0.0, "sign-bit flip should produce a negative value");
    }

    #[test]
    fn high_bit_flip_outlier_grows_with_int_bits() {
        // The same small value suffers a larger deviation under Q10_5 than
        // under Q4_11 when its top magnitude bit is flipped — the paper's
        // §IV-B-3 observation.
        let v = 0.5f32;
        let narrow = QFormat::Q4_11;
        let wide = QFormat::Q10_5;
        let dev_narrow = (narrow.decode(flip_bit_u16(narrow.encode(v), 14)) - v).abs();
        let dev_wide = (wide.decode(flip_bit_u16(wide.encode(v), 14)) - v).abs();
        assert!(dev_wide > dev_narrow);
    }

    #[test]
    fn display_name() {
        assert_eq!(QFormat::Q4_11.to_string(), "Q(1,4,11)");
    }
}
