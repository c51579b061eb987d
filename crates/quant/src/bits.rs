//! Raw bit manipulation and bit-pattern statistics.
//!
//! These helpers implement the paper's fault primitives: a transient fault
//! flips a bit, a stuck-at fault forces it to 0 or 1. They are defined for
//! every storage width used by the fault surfaces (u8 int8 codes, u16
//! fixed-point codes, f32 IEEE-754 words).

/// Flips bit `bit` (0 = LSB) of an 8-bit code.
///
/// # Panics
///
/// Panics if `bit >= 8`.
pub fn flip_bit_u8(code: u8, bit: u32) -> u8 {
    assert!(bit < 8, "bit {bit} out of range for u8");
    code ^ (1u8 << bit)
}

/// Flips bit `bit` (0 = LSB) of a 16-bit code.
///
/// # Panics
///
/// Panics if `bit >= 16`.
pub fn flip_bit_u16(code: u16, bit: u32) -> u16 {
    assert!(bit < 16, "bit {bit} out of range for u16");
    code ^ (1u16 << bit)
}

/// Flips bit `bit` (0 = LSB) of an `f32`'s IEEE-754 representation.
///
/// # Panics
///
/// Panics if `bit >= 32`.
pub fn flip_bit_f32(x: f32, bit: u32) -> f32 {
    assert!(bit < 32, "bit {bit} out of range for f32");
    f32::from_bits(x.to_bits() ^ (1u32 << bit))
}

/// Forces bit `bit` of an 8-bit code to `value` (stuck-at fault).
///
/// # Panics
///
/// Panics if `bit >= 8`.
pub fn stuck_bit_u8(code: u8, bit: u32, value: bool) -> u8 {
    assert!(bit < 8, "bit {bit} out of range for u8");
    if value {
        code | (1u8 << bit)
    } else {
        code & !(1u8 << bit)
    }
}

/// Forces bit `bit` of a 16-bit code to `value` (stuck-at fault).
///
/// # Panics
///
/// Panics if `bit >= 16`.
pub fn stuck_bit_u16(code: u16, bit: u32, value: bool) -> u16 {
    assert!(bit < 16, "bit {bit} out of range for u16");
    if value {
        code | (1u16 << bit)
    } else {
        code & !(1u16 << bit)
    }
}

/// Forces bit `bit` of an `f32`'s IEEE-754 representation to `value`.
///
/// # Panics
///
/// Panics if `bit >= 32`.
pub fn stuck_bit_f32(x: f32, bit: u32, value: bool) -> f32 {
    assert!(bit < 32, "bit {bit} out of range for f32");
    let bits = x.to_bits();
    let bits = if value { bits | (1u32 << bit) } else { bits & !(1u32 << bit) };
    f32::from_bits(bits)
}

/// Census of 0-bits vs 1-bits in an encoded parameter buffer.
///
/// Fig. 3d reports that a trained, narrow-range GridWorld policy holds
/// ~86% 0-bits, which is why 0→1 flips are far more damaging than 1→0
/// flips. `BitCensus` reproduces that measurement for any code buffer.
///
/// ```
/// use frlfi_quant::BitCensus;
///
/// let census = BitCensus::of_u8(&[0b0000_0001, 0b0000_0011]);
/// assert_eq!(census.ones, 3);
/// assert_eq!(census.total(), 16);
/// assert!((census.fraction_ones() - 3.0 / 16.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BitCensus {
    /// Number of 0 bits.
    pub(crate) zeros: u64,
    /// Number of 1 bits.
    pub ones: u64,
}

impl BitCensus {
    /// Census of a buffer of 8-bit codes.
    pub fn of_u8(codes: &[u8]) -> BitCensus {
        let ones: u64 = codes.iter().map(|c| c.count_ones() as u64).sum();
        BitCensus { ones, zeros: codes.len() as u64 * 8 - ones }
    }

    /// Total number of bits counted.
    pub fn total(&self) -> u64 {
        self.zeros + self.ones
    }

    /// Fraction of bits that are 1; 0 for an empty census.
    pub fn fraction_ones(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.ones as f64 / self.total() as f64
        }
    }

    /// Fraction of bits that are 0; 0 for an empty census.
    pub fn fraction_zeros(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.zeros as f64 / self.total() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_is_involution_u8() {
        for bit in 0..8 {
            assert_eq!(flip_bit_u8(flip_bit_u8(0xA5, bit), bit), 0xA5);
        }
    }

    #[test]
    fn flip_is_involution_u16() {
        for bit in 0..16 {
            assert_eq!(flip_bit_u16(flip_bit_u16(0xBEEF, bit), bit), 0xBEEF);
        }
    }

    #[test]
    fn flip_is_involution_f32() {
        for bit in 0..32 {
            let x = 1.2345f32;
            assert_eq!(flip_bit_f32(flip_bit_f32(x, bit), bit).to_bits(), x.to_bits());
        }
    }

    #[test]
    fn stuck_at_is_idempotent() {
        for bit in 0..8 {
            let a = stuck_bit_u8(0x5A, bit, true);
            assert_eq!(stuck_bit_u8(a, bit, true), a);
            let b = stuck_bit_u8(0x5A, bit, false);
            assert_eq!(stuck_bit_u8(b, bit, false), b);
        }
    }

    #[test]
    fn stuck_sets_expected_value() {
        assert_eq!(stuck_bit_u16(0, 3, true), 0b1000);
        assert_eq!(stuck_bit_u16(0xFFFF, 3, false), 0xFFF7);
        assert_eq!(stuck_bit_f32(0.0, 31, true), -0.0);
    }

    #[test]
    fn census_counts() {
        let c = BitCensus::of_u8(&[0x01, 0x80, 0x00, 0x00]);
        assert_eq!(c.ones, 2);
        assert_eq!(c.zeros, 30);
        assert_eq!(c.total(), 32);
    }

    #[test]
    fn census_fractions_sum_to_one() {
        let c = BitCensus::of_u8(&[0x01, 0x80, 0xBE, 0xEF]);
        assert!((c.fraction_ones() + c.fraction_zeros() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn flip_bit_out_of_range_panics() {
        flip_bit_u8(0, 8);
    }
}
