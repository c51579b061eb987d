use crate::FaultModel;
use frlfi_quant::{
    flip_bit_f32, flip_bit_u16, flip_bit_u8, stuck_bit_f32, stuck_bit_u16, stuck_bit_u8, QFormat,
    SymInt8Quantizer,
};

/// The machine representation a fault surface stores its scalars in.
///
/// Bit flips are applied to the *encoded* form: an int8-quantized
/// GridWorld policy exposes 8 bits per weight, a fixed-point DroneNav
/// policy 16, and raw `f32` buffers 32. The representation determines
/// both the exposed bit count (BER denominator) and the numeric effect
/// of each flip — the heart of the paper's data-type study (§IV-B-3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DataRepr {
    /// IEEE-754 single precision (32 exposed bits per scalar).
    F32,
    /// Symmetric sign-magnitude int8 codes (8 exposed bits per scalar) —
    /// the deployed GridWorld policy format.
    SymInt8(SymInt8Quantizer),
    /// 16-bit signed fixed point (16 exposed bits per scalar).
    Fixed(QFormat),
}

impl DataRepr {
    /// Exposed bits per scalar.
    pub(crate) fn width(&self) -> u32 {
        match self {
            DataRepr::F32 => 32,
            DataRepr::SymInt8(_) => 8,
            DataRepr::Fixed(_) => 16,
        }
    }

    /// Total exposed bits for a buffer of `len` scalars.
    pub fn total_bits(&self, len: usize) -> usize {
        len * self.width() as usize
    }

    /// Applies a fault to bit `bit` of `value` under this representation
    /// and returns the corrupted value.
    ///
    /// For quantized representations the value is encoded, the encoded
    /// bit corrupted, and the result decoded — exactly the round trip a
    /// memory upset in an accelerator buffer would take.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= self.width()`.
    pub(crate) fn corrupt(&self, value: f32, bit: u32, model: FaultModel) -> f32 {
        match self {
            DataRepr::F32 => match model {
                FaultModel::TransientSingle | FaultModel::TransientMulti => {
                    flip_bit_f32(value, bit)
                }
                FaultModel::StuckAt0 => stuck_bit_f32(value, bit, false),
                FaultModel::StuckAt1 => stuck_bit_f32(value, bit, true),
            },
            DataRepr::SymInt8(q) => {
                let code = q.encode(value);
                let corrupted = match model {
                    FaultModel::TransientSingle | FaultModel::TransientMulti => {
                        flip_bit_u8(code, bit)
                    }
                    FaultModel::StuckAt0 => stuck_bit_u8(code, bit, false),
                    FaultModel::StuckAt1 => stuck_bit_u8(code, bit, true),
                };
                q.decode(corrupted)
            }
            DataRepr::Fixed(q) => {
                let code = q.encode(value);
                let corrupted = match model {
                    FaultModel::TransientSingle | FaultModel::TransientMulti => {
                        flip_bit_u16(code, bit)
                    }
                    FaultModel::StuckAt0 => stuck_bit_u16(code, bit, false),
                    FaultModel::StuckAt1 => stuck_bit_u16(code, bit, true),
                };
                q.decode(corrupted)
            }
        }
    }

    /// Quantizes a value to this representation without faulting it
    /// (deploy-time rounding).
    pub fn quantize(&self, value: f32) -> f32 {
        match self {
            DataRepr::F32 => value,
            DataRepr::SymInt8(q) => q.quantize(value),
            DataRepr::Fixed(q) => q.quantize(value),
        }
    }

    /// Quantizes every value of `values` in place (deploy-time rounding
    /// of a whole parameter plane). Returns at once for
    /// [`DataRepr::F32`], where quantizing is the identity.
    pub fn quantize_slice(&self, values: &mut [f32]) {
        if matches!(self, DataRepr::F32) {
            return;
        }
        for v in values {
            *v = self.quantize(*v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        let int8 = DataRepr::SymInt8(SymInt8Quantizer::from_max_abs(1.0).unwrap());
        assert_eq!(DataRepr::F32.width(), 32);
        assert_eq!(int8.width(), 8);
        assert_eq!(DataRepr::Fixed(QFormat::Q4_11).width(), 16);
        assert_eq!(DataRepr::F32.total_bits(10), 320);
    }

    #[test]
    fn f32_flip_round_trips() {
        let v = 1.5f32;
        let c = DataRepr::F32.corrupt(v, 3, FaultModel::TransientMulti);
        let back = DataRepr::F32.corrupt(c, 3, FaultModel::TransientMulti);
        assert_eq!(back, v);
    }

    #[test]
    fn int8_flip_changes_value() {
        let q = SymInt8Quantizer::from_max_abs(1.0).unwrap();
        let repr = DataRepr::SymInt8(q);
        let v = 0.25f32;
        // Bit 7 is the sign: the flip negates the decoded value.
        let c = repr.corrupt(v, 7, FaultModel::TransientMulti);
        assert_ne!(q.encode(c), q.encode(v));
        assert_eq!(c, -q.quantize(v));
    }

    #[test]
    fn int8_stuck_at_only_moves_bits_that_differ() {
        let q = SymInt8Quantizer::from_max_abs(1.0).unwrap();
        let repr = DataRepr::SymInt8(q);
        // 0.0 encodes to all-zero bits: stuck-at-0 is silent on every
        // bit, stuck-at-1 sets exactly the chosen one.
        for bit in 0..8 {
            assert_eq!(repr.corrupt(0.0, bit, FaultModel::StuckAt0), 0.0);
            let stuck = repr.corrupt(0.0, bit, FaultModel::StuckAt1);
            assert_eq!(q.encode(stuck), 1 << bit, "bit {bit}");
            assert_eq!(repr.corrupt(stuck, bit, FaultModel::StuckAt1), stuck);
        }
    }

    #[test]
    fn stuck_at_is_idempotent_through_repr() {
        let repr = DataRepr::Fixed(QFormat::Q7_8);
        let v = -0.75f32;
        let once = repr.corrupt(v, 12, FaultModel::StuckAt1);
        let twice = repr.corrupt(once, 12, FaultModel::StuckAt1);
        assert_eq!(once, twice);
    }

    #[test]
    fn high_bit_flip_creates_outlier_in_wide_format() {
        let repr = DataRepr::Fixed(QFormat::Q10_5);
        let v = 0.5f32;
        let c = repr.corrupt(v, 14, FaultModel::TransientMulti);
        assert!((c - v).abs() > 100.0, "Q10.5 high-bit flip should be large, got {c}");
    }

    #[test]
    fn quantize_matches_underlying() {
        let q = QFormat::Q4_11;
        let repr = DataRepr::Fixed(q);
        assert_eq!(repr.quantize(0.123), q.quantize(0.123));
        assert_eq!(DataRepr::F32.quantize(0.123), 0.123);
    }

    #[test]
    fn quantize_slice_matches_scalar_quantize() {
        let values = [0.123f32, -0.75, f32::NAN, -0.0, 3.5];
        for repr in [DataRepr::F32, DataRepr::Fixed(QFormat::Q4_11)] {
            let mut plane = values;
            repr.quantize_slice(&mut plane);
            for (q, &v) in plane.iter().zip(&values) {
                assert_eq!(q.to_bits(), repr.quantize(v).to_bits(), "{repr:?} {v}");
            }
        }
    }
}
