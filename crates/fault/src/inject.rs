use crate::{Ber, DataRepr, FaultModel, FaultRecord};
use rand::{Rng, RngCore};
use std::collections::HashSet;

/// Injects `n_faults` bit-level faults into a parameter buffer.
///
/// Fault sites `(scalar, bit)` are sampled uniformly **without
/// replacement** over the buffer's exposed bits, matching the paper's
/// "single or multiple bits in data or memory elements are randomly
/// flipped". [`FaultModel::TransientSingle`] forces `n_faults = 1`.
///
/// Returns one [`FaultRecord`] per injected site (including silent
/// stuck-at hits).
pub fn inject_slice(
    params: &mut [f32],
    repr: DataRepr,
    model: FaultModel,
    n_faults: usize,
    rng: &mut dyn RngCore,
) -> Vec<FaultRecord> {
    if params.is_empty() {
        return Vec::new();
    }
    let n_faults = match model {
        FaultModel::TransientSingle => 1,
        _ => n_faults,
    };
    let total_bits = repr.total_bits(params.len());
    let n_faults = n_faults.min(total_bits);
    if n_faults == 0 {
        return Vec::new();
    }

    let width = repr.width() as usize;
    let mut sites: HashSet<usize> = HashSet::with_capacity(n_faults);
    // With n ≪ total_bits rejection sampling terminates fast; for dense
    // corruption (n close to total_bits) fall back to a shuffle.
    if n_faults * 4 <= total_bits {
        while sites.len() < n_faults {
            sites.insert(rng.gen_range(0..total_bits));
        }
    } else {
        let mut all: Vec<usize> = (0..total_bits).collect();
        // Partial Fisher–Yates.
        for i in 0..n_faults {
            let j = rng.gen_range(i..total_bits);
            all.swap(i, j);
            sites.insert(all[i]);
        }
    }

    // Apply in sorted site order: HashSet iteration order is not
    // deterministic, and flips through quantized encode/decode round
    // trips do not commute, so ordering matters for reproducibility.
    let mut sites: Vec<usize> = sites.into_iter().collect();
    sites.sort_unstable();
    let mut records = Vec::with_capacity(n_faults);
    for site in sites {
        let index = site / width;
        let bit = (site % width) as u32;
        let before = params[index];
        let after = repr.corrupt(before, bit, model);
        params[index] = after;
        records.push(FaultRecord { index, bit, before, after });
    }
    records
}

/// Injects faults into a parameter buffer at a given [`Ber`], deriving
/// the fault count from the buffer's exposed bits.
pub fn inject_slice_ber(
    params: &mut [f32],
    repr: DataRepr,
    model: FaultModel,
    ber: Ber,
    rng: &mut dyn RngCore,
) -> Vec<FaultRecord> {
    let n = ber.fault_count(repr.total_bits(params.len()));
    inject_slice(params, repr, model, n, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use frlfi_quant::SymInt8Quantizer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn injects_exact_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut buf = vec![0.5f32; 64];
        let recs = inject_slice(&mut buf, DataRepr::F32, FaultModel::TransientMulti, 10, &mut rng);
        assert_eq!(recs.len(), 10);
        // Sites are unique (scalar, bit) pairs.
        let mut sites: Vec<(usize, u32)> = recs.iter().map(|r| (r.index, r.bit)).collect();
        sites.sort_unstable();
        sites.dedup();
        assert_eq!(sites.len(), 10);
    }

    #[test]
    fn transient_single_is_one_bit() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut buf = vec![0.5f32; 64];
        let recs = inject_slice(&mut buf, DataRepr::F32, FaultModel::TransientSingle, 99, &mut rng);
        assert_eq!(recs.len(), 1);
        let changed = buf.iter().filter(|&&v| v != 0.5).count();
        assert_eq!(changed, 1);
    }

    #[test]
    fn zero_faults_is_noop() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut buf = vec![1.0f32; 8];
        let recs = inject_slice(&mut buf, DataRepr::F32, FaultModel::TransientMulti, 0, &mut rng);
        assert!(recs.is_empty());
        assert!(buf.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn empty_buffer_is_noop() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut buf: Vec<f32> = Vec::new();
        assert!(inject_slice(&mut buf, DataRepr::F32, FaultModel::TransientMulti, 5, &mut rng)
            .is_empty());
    }

    #[test]
    fn dense_injection_caps_at_total_bits() {
        let mut rng = StdRng::seed_from_u64(3);
        let q = SymInt8Quantizer::from_max_abs(1.0).unwrap();
        let mut buf = vec![0.0f32; 4]; // 32 exposed bits
        let recs = inject_slice(
            &mut buf,
            DataRepr::SymInt8(q),
            FaultModel::TransientMulti,
            1000,
            &mut rng,
        );
        assert_eq!(recs.len(), 32);
        // Every bit of every code flipped: 0.0 becomes the most
        // negative code.
        assert!(buf.iter().all(|&v| v == q.decode(0xFF)), "{buf:?}");
    }

    #[test]
    fn int8_injection_stays_within_the_code_range() {
        let mut rng = StdRng::seed_from_u64(8);
        let q = SymInt8Quantizer::from_max_abs(0.5).unwrap();
        let mut buf: Vec<f32> = (0..64).map(|i| (i as f32 - 32.0) / 64.0).collect();
        let recs =
            inject_slice(&mut buf, DataRepr::SymInt8(q), FaultModel::TransientMulti, 100, &mut rng);
        assert_eq!(recs.len(), 100);
        // Sign-magnitude codes bound every faulty value by the largest
        // magnitude code.
        assert!(buf.iter().all(|v| v.abs() <= q.decode(0x7F)), "{buf:?}");
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut buf = vec![0.5f32; 32];
            inject_slice(&mut buf, DataRepr::F32, FaultModel::TransientMulti, 8, &mut rng);
            buf
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn records_describe_the_mutation() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut buf = vec![0.5f32; 16];
        let recs = inject_slice(&mut buf, DataRepr::F32, FaultModel::TransientMulti, 4, &mut rng);
        for r in &recs {
            // Transient flips on f32 always change the stored bits.
            assert!(r.is_effective());
        }
        // A scalar hit exactly once must hold its record's `after` value
        // (multi-hit scalars accumulate several flips).
        for r in &recs {
            let hits = recs.iter().filter(|o| o.index == r.index).count();
            if hits == 1 {
                assert_eq!(buf[r.index], r.after);
            }
        }
    }

    #[test]
    fn stuck_at_0_on_zero_weights_is_silent() {
        let mut rng = StdRng::seed_from_u64(5);
        for repr in [DataRepr::F32, DataRepr::SymInt8(SymInt8Quantizer::from_max_abs(1.0).unwrap())]
        {
            let mut buf = vec![0.0f32; 16];
            let recs = inject_slice(&mut buf, repr, FaultModel::StuckAt0, 8, &mut rng);
            assert_eq!(recs.len(), 8);
            assert!(recs.iter().all(|r| !r.is_effective()));
            assert!(buf.iter().all(|&v| v == 0.0));
        }
    }
}
