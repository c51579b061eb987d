//! Property-based tests for number formats and bit primitives.

use frlfi_quant::{
    flip_bit_f32, flip_bit_u16, flip_bit_u8, stuck_bit_u16, BitCensus, QFormat, SymInt8Quantizer,
};
use proptest::prelude::*;

proptest! {
    #[test]
    fn u8_flip_involution(code in any::<u8>(), bit in 0u32..8) {
        prop_assert_eq!(flip_bit_u8(flip_bit_u8(code, bit), bit), code);
    }

    #[test]
    fn u16_flip_involution(code in any::<u16>(), bit in 0u32..16) {
        prop_assert_eq!(flip_bit_u16(flip_bit_u16(code, bit), bit), code);
    }

    #[test]
    fn f32_flip_involution(x in any::<f32>(), bit in 0u32..32) {
        let back = flip_bit_f32(flip_bit_f32(x, bit), bit);
        prop_assert_eq!(back.to_bits(), x.to_bits());
    }

    #[test]
    fn flip_changes_exactly_one_bit(code in any::<u16>(), bit in 0u32..16) {
        let flipped = flip_bit_u16(code, bit);
        prop_assert_eq!((flipped ^ code).count_ones(), 1);
    }

    #[test]
    fn stuck_then_flip_differs(code in any::<u16>(), bit in 0u32..16) {
        let stuck = stuck_bit_u16(code, bit, true);
        prop_assert_eq!(stuck | (1 << bit), stuck);
    }

    #[test]
    fn qformat_round_trip_error_bounded(v in -7.5f32..7.5) {
        for q in [QFormat::Q4_11, QFormat::Q7_8, QFormat::Q10_5] {
            let err = (q.quantize(v) - v).abs();
            prop_assert!(err <= q.resolution() / 2.0 + 1e-5, "{} err {}", q, err);
        }
    }

    #[test]
    fn qformat_quantize_idempotent(v in -100.0f32..100.0) {
        for q in [QFormat::Q4_11, QFormat::Q7_8, QFormat::Q10_5] {
            let once = q.quantize(v);
            prop_assert_eq!(q.quantize(once).to_bits(), once.to_bits());
        }
    }

    #[test]
    fn qformat_decode_within_declared_range(code in any::<u16>()) {
        for q in [QFormat::Q4_11, QFormat::Q7_8, QFormat::Q10_5] {
            let v = q.decode(code);
            let min = f32::from(i16::MIN) * q.resolution();
            prop_assert!(v >= min - 1e-4 && v <= q.max_value() + 1e-4);
        }
    }

    #[test]
    fn int8_round_trip_error_bounded(v in -5.0f32..5.0) {
        let q = SymInt8Quantizer::from_max_abs(5.0).unwrap();
        prop_assert!((q.quantize(v) - v).abs() <= q.scale() / 2.0 + 1e-5);
    }

    #[test]
    fn int8_quantize_idempotent(v in -5.0f32..5.0) {
        let q = SymInt8Quantizer::from_max_abs(5.0).unwrap();
        let once = q.quantize(v);
        prop_assert!((q.quantize(once) - once).abs() < 1e-6);
    }

    #[test]
    fn census_total_is_bit_count(codes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let c = BitCensus::of_u8(&codes);
        prop_assert_eq!(c.total(), codes.len() as u64 * 8);
        prop_assert!((c.fraction_ones() + c.fraction_zeros() - 1.0).abs() < 1e-12 || c.total() == 0);
    }

    #[test]
    fn census_flip_moves_one_bit(codes in proptest::collection::vec(any::<u8>(), 1..32), bit in 0u32..8) {
        let before = BitCensus::of_u8(&codes);
        let mut after = codes.clone();
        after[0] = flip_bit_u8(after[0], bit);
        let after = BitCensus::of_u8(&after);
        prop_assert_eq!(before.total(), after.total());
        prop_assert_eq!((before.ones as i64 - after.ones as i64).abs(), 1);
    }
}
