//! Property-based tests for the fault injector and cell statistics,
//! pinning the bitset sampler and the record-free apply step to their
//! oracles: the `HashSet` sampler they replaced, and sorted
//! application through `inject_slice`.

use frlfi_fault::{
    aggregate_in_order, corrupt_slice, inject_slice, inject_slice_ber, Ber, DataRepr, FaultModel,
};
use frlfi_quant::{QFormat, SymInt8Quantizer};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashSet;

fn reprs() -> Vec<DataRepr> {
    vec![
        DataRepr::F32,
        DataRepr::SymInt8(SymInt8Quantizer::from_max_abs(1.0).expect("range")),
        DataRepr::Fixed(QFormat::Q4_11),
        DataRepr::Fixed(QFormat::Q10_5),
    ]
}

const MODELS: [FaultModel; 4] = [
    FaultModel::TransientSingle,
    FaultModel::TransientMulti,
    FaultModel::StuckAt0,
    FaultModel::StuckAt1,
];

/// Weights a fault must treat as bit patterns: signed zeros,
/// subnormals, infinities and NaNs (quiet, signalling, negative).
const SPECIALS: [u32; 10] = [
    0x0000_0000, // +0
    0x8000_0000, // -0
    0x0000_0001, // smallest subnormal
    0x807f_ffff, // largest negative subnormal
    0x7f80_0000, // +Inf
    0xff80_0000, // -Inf
    0x7fc0_0000, // quiet NaN
    0x7f80_0001, // signalling NaN
    0xffc0_1234, // negative NaN with a payload
    0x3f00_0000, // 0.5
];

/// A weight plane from raw draws: every third one a special value, the
/// rest arbitrary bit patterns.
fn plane(raw: &[u32]) -> Vec<f32> {
    raw.iter()
        .map(|&r| {
            let bits = if r % 3 == 0 { SPECIALS[(r as usize >> 2) % SPECIALS.len()] } else { r };
            f32::from_bits(bits)
        })
        .collect()
}

fn bits(w: &[f32]) -> Vec<u32> {
    w.iter().map(|w| w.to_bits()).collect()
}

/// A site count on either side of the sampler's `4n <= total_bits`
/// switch between rejection sampling and a partial shuffle.
fn site_count(total_bits: usize, dense: bool, frac: f64) -> usize {
    let sparse_max = total_bits / 4;
    if dense {
        sparse_max + 1 + (frac * (total_bits - sparse_max - 1) as f64) as usize
    } else {
        (frac * sparse_max as f64) as usize
    }
}

/// The sampler the bitset replaced, kept as the oracle: rejection into
/// a `HashSet` (or a partial Fisher–Yates shuffle when dense), then a
/// sort.
fn oracle_sites(total_bits: usize, n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut sites: HashSet<usize> = HashSet::with_capacity(n);
    if n * 4 <= total_bits {
        while sites.len() < n {
            sites.insert(rng.gen_range(0..total_bits));
        }
    } else {
        let mut all: Vec<usize> = (0..total_bits).collect();
        for i in 0..n {
            let j = rng.gen_range(i..total_bits);
            all.swap(i, j);
            sites.insert(all[i]);
        }
    }
    let mut sites: Vec<usize> = sites.into_iter().collect();
    sites.sort_unstable();
    sites
}

proptest! {
    #[test]
    fn sampler_matches_the_hashset_oracle(
        seed in any::<u64>(),
        len in 1usize..96,
        repr_idx in 0usize..3,
        dense in any::<bool>(),
        frac in 0.0f64..1.0,
    ) {
        let repr = reprs()[repr_idx];
        let total_bits = repr.total_bits(len);
        let width = total_bits / len;
        let n = site_count(total_bits, dense, frac);
        let mut oracle_rng = StdRng::seed_from_u64(seed);
        let want = oracle_sites(total_bits, n, &mut oracle_rng);

        // The recorded path yields the oracle's sites, ascending.
        let mut rng = StdRng::seed_from_u64(seed);
        let recs = inject_slice(&mut vec![0.0; len], repr, FaultModel::TransientMulti, n, &mut rng);
        let got: Vec<usize> = recs.iter().map(|r| r.index * width + r.bit as usize).collect();
        prop_assert_eq!(&got, &want);
        // Both leave the stream where the oracle does.
        let next = oracle_rng.next_u64();
        prop_assert_eq!(rng.next_u64(), next);
        let mut rng = StdRng::seed_from_u64(seed);
        corrupt_slice(&mut vec![0.0; len], repr, FaultModel::TransientMulti, n, &mut rng);
        prop_assert_eq!(rng.next_u64(), next);
    }

    #[test]
    fn draw_order_f32_matches_sorted_application(
        seed in any::<u64>(),
        raw in proptest::collection::vec(any::<u32>(), 1..64),
        model_idx in 0usize..4,
        dense in any::<bool>(),
        frac in 0.0f64..1.0,
    ) {
        let model = MODELS[model_idx];
        let clean = plane(&raw);
        let n = site_count(DataRepr::F32.total_bits(clean.len()), dense, frac);
        let (mut sorted, mut drawn) = (clean.clone(), clean);
        let mut rng = StdRng::seed_from_u64(seed);
        inject_slice(&mut sorted, DataRepr::F32, model, n, &mut rng);
        let mut draw_rng = StdRng::seed_from_u64(seed);
        corrupt_slice(&mut drawn, DataRepr::F32, model, n, &mut draw_rng);
        prop_assert_eq!(bits(&drawn), bits(&sorted));
        prop_assert_eq!(draw_rng.next_u64(), rng.next_u64());
    }

    #[test]
    fn quantized_record_free_matches_inject_slice(
        seed in any::<u64>(),
        raw in proptest::collection::vec(any::<u32>(), 1..64),
        repr_idx in 1usize..4,
        model_idx in 0usize..4,
        dense in any::<bool>(),
        frac in 0.0f64..1.0,
    ) {
        let (repr, model) = (reprs()[repr_idx], MODELS[model_idx]);
        let clean = plane(&raw);
        let n = site_count(repr.total_bits(clean.len()), dense, frac);
        let (mut recorded, mut quiet) = (clean.clone(), clean);
        inject_slice(&mut recorded, repr, model, n, &mut StdRng::seed_from_u64(seed));
        corrupt_slice(&mut quiet, repr, model, n, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(bits(&quiet), bits(&recorded));
    }

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

    // ---- Codec round trip: `apply_sorted` applies quantized flips in
    // ---- ascending site order, and flips of one scalar commute only
    // ---- while every code decodes to a value that encodes back to
    // ---- it. CI also runs these with PROPTEST_CASES=1024.

    #[test]
    fn codec_round_trip_holds_for_every_int8_code_under_fitted_scales(
        raw in proptest::collection::vec(any::<u32>(), 0..64),
        max_bits in 0x0080_0000u32..=0x7f7f_ffff,
        negative in any::<bool>(),
    ) {
        // A plane whose largest finite magnitude is the normal `max`:
        // every other finite value is scaled into it, and the specials
        // (zeros, subnormals, infinities, NaNs) stay.
        let max = f32::from_bits(max_bits);
        let mut weights: Vec<f32> = plane(&raw)
            .into_iter()
            .map(|w| if w.is_finite() && w.abs() > max { max * (w / f32::MAX) } else { w })
            .collect();
        weights.push(if negative { -max } else { max });
        let q = SymInt8Quantizer::fit(&weights).expect("a normal magnitude fits");
        for code in 0..=u8::MAX {
            prop_assert_eq!(q.encode(q.decode(code)), code, "scale {:e}", q.scale());
        }
    }
}

#[test]
fn codec_round_trip_holds_for_every_u16_code_of_the_datatype_formats() {
    for q in [QFormat::Q4_11, QFormat::Q7_8, QFormat::Q10_5] {
        for code in 0..=u16::MAX {
            assert_eq!(q.encode(q.decode(code)), code, "{q}");
        }
    }
}
