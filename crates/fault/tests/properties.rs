//! Property-based tests for the fault injector and cell statistics.

use frlfi_fault::{aggregate_in_order, inject_slice, inject_slice_ber, Ber, DataRepr, FaultModel};
use frlfi_quant::{QFormat, SymInt8Quantizer};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn reprs() -> Vec<DataRepr> {
    vec![
        DataRepr::F32,
        DataRepr::SymInt8(SymInt8Quantizer::from_max_abs(1.0).expect("range")),
        DataRepr::Fixed(QFormat::Q4_11),
        DataRepr::Fixed(QFormat::Q10_5),
    ]
}

proptest! {
    #[test]
    fn record_count_matches_request(
        seed in any::<u64>(),
        len in 1usize..128,
        n_faults in 0usize..64,
        repr_idx in 0usize..4,
    ) {
        let repr = reprs()[repr_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut buf = vec![0.25f32; len];
        let recs = inject_slice(&mut buf, repr, FaultModel::TransientMulti, n_faults, &mut rng);
        prop_assert_eq!(recs.len(), n_faults.min(repr.total_bits(len)));
    }

    #[test]
    fn sites_unique(seed in any::<u64>(), len in 1usize..64, n_faults in 1usize..64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut buf = vec![0.5f32; len];
        let recs = inject_slice(&mut buf, DataRepr::F32, FaultModel::TransientMulti, n_faults, &mut rng);
        let mut sites: Vec<(usize, u32)> = recs.iter().map(|r| (r.index, r.bit)).collect();
        let before = sites.len();
        sites.sort_unstable();
        sites.dedup();
        prop_assert_eq!(sites.len(), before, "fault sites must be unique");
    }

    #[test]
    fn injection_only_touches_recorded_scalars(seed in any::<u64>(), len in 4usize..64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut buf: Vec<f32> = (0..len).map(|i| i as f32 * 0.01).collect();
        let orig = buf.clone();
        let recs = inject_slice(&mut buf, DataRepr::F32, FaultModel::TransientMulti, 3, &mut rng);
        let touched: std::collections::HashSet<usize> = recs.iter().map(|r| r.index).collect();
        for (i, (&a, &b)) in orig.iter().zip(buf.iter()).enumerate() {
            if !touched.contains(&i) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "untouched scalar {} changed", i);
            }
        }
    }

    #[test]
    fn stuck_at_injection_idempotent_per_site(seed in any::<u64>(), len in 1usize..32) {
        // Re-applying the same stuck-at faults (same seed) must be a
        // fixed point.
        let run = |input: &[f32]| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut buf = input.to_vec();
            inject_slice(&mut buf, DataRepr::F32, FaultModel::StuckAt1, 4, &mut rng);
            buf
        };
        let buf = vec![0.125f32; len];
        let once = run(&buf);
        let twice = run(&once);
        for (a, b) in once.iter().zip(twice.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn ber_fault_count_scales(len in 1usize..256, ber_pct in 0.0f64..0.5, repr_idx in 0usize..2) {
        // f32 exposes 32 bits per scalar, int8 codes 8: the BER counts
        // faults over the representation's exposed bits.
        let (repr, width) = [(reprs()[0], 32), (reprs()[1], 8)][repr_idx];
        let ber = Ber::new(ber_pct).expect("valid");
        let expected = ber.fault_count(len * width);
        let mut rng = StdRng::seed_from_u64(1);
        let mut buf = vec![1.0f32; len];
        let recs = inject_slice_ber(&mut buf, repr, FaultModel::TransientMulti, ber, &mut rng);
        prop_assert_eq!(recs.len(), expected.min(len * width));
    }

    #[test]
    fn aggregate_statistics_exact_for_constant(c in -5.0f64..5.0, repeats in 1usize..80) {
        let s = aggregate_in_order(&vec![c; repeats]);
        prop_assert!((s.mean - c).abs() < 1e-9);
        // Repeated identical samples: std is zero up to rounding.
        prop_assert!(s.std < 1e-9);
        prop_assert_eq!(s.n, repeats);
    }
}
