use crate::{Ber, DataRepr, FaultModel, FaultRecord};
use rand::{Rng, RngCore};

/// Injects `n_faults` bit-level faults into a parameter buffer.
///
/// Fault sites `(scalar, bit)` are sampled uniformly **without
/// replacement** over the buffer's exposed bits, matching the paper's
/// "single or multiple bits in data or memory elements are randomly
/// flipped". [`FaultModel::TransientSingle`] forces `n_faults = 1`.
///
/// Returns one [`FaultRecord`] per injected site (including silent
/// stuck-at hits), in ascending site order: the order the faults are
/// applied in. [`corrupt_slice`] draws the same sites and leaves the
/// same bits without building the records.
pub fn inject_slice(
    params: &mut [f32],
    repr: DataRepr,
    model: FaultModel,
    n_faults: usize,
    rng: &mut dyn RngCore,
) -> Vec<FaultRecord> {
    let n = site_count(params.len(), repr, model, n_faults);
    let mut records = Vec::with_capacity(n);
    apply_sorted(params, repr, model, n, rng, |record| records.push(record));
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

/// [`inject_slice`] without the records, for callers that never read
/// them (static inference-time faults).
///
/// It makes the same draws and leaves the same bits. On
/// [`DataRepr::F32`] each fault is applied as its site is drawn: flips,
/// sets and clears of distinct bits of one `u32` commute, so draw order
/// gives the bits sorted order does, without the scan over one bitset
/// word per 64 exposed bits (its cost is measured in the README's
/// *Static fault injection* section). Quantized representations apply
/// in ascending site order, as [`inject_slice`] does.
pub fn corrupt_slice(
    params: &mut [f32],
    repr: DataRepr,
    model: FaultModel,
    n_faults: usize,
    rng: &mut dyn RngCore,
) {
    let n = site_count(params.len(), repr, model, n_faults);
    if n == 0 {
        return;
    }
    if matches!(repr, DataRepr::F32) {
        draw_sites(repr.total_bits(params.len()), n, rng, |site| {
            params[site / 32] = repr.corrupt(params[site / 32], (site % 32) as u32, model);
        });
    } else {
        apply_sorted(params, repr, model, n, rng, |_| {});
    }
}

/// [`corrupt_slice`] at a given [`Ber`], deriving the fault count from
/// the buffer's exposed bits.
pub fn corrupt_slice_ber(
    params: &mut [f32],
    repr: DataRepr,
    model: FaultModel,
    ber: Ber,
    rng: &mut dyn RngCore,
) {
    let n = ber.fault_count(repr.total_bits(params.len()));
    corrupt_slice(params, repr, model, n, rng);
}

/// The number of distinct sites an injection of `n_faults` into `len`
/// scalars draws: one for [`FaultModel::TransientSingle`], and never
/// more than the exposed bits.
fn site_count(len: usize, repr: DataRepr, model: FaultModel, n_faults: usize) -> usize {
    let n = match model {
        FaultModel::TransientSingle => 1,
        _ => n_faults,
    };
    n.min(repr.total_bits(len))
}

/// Draws `n` distinct sites with [`draw_sites`] and applies a fault at
/// each in ascending site order, handing every flip to `on_flip`.
///
/// The order matters: on a quantized representation each flip is an
/// encode/decode round trip, and those agree in any order only while
/// every code round-trips exactly.
fn apply_sorted(
    params: &mut [f32],
    repr: DataRepr,
    model: FaultModel,
    n: usize,
    rng: &mut dyn RngCore,
    mut on_flip: impl FnMut(FaultRecord),
) {
    if n == 0 {
        return;
    }
    let width = repr.width() as usize;
    let sites = draw_sites(repr.total_bits(params.len()), n, rng, |_| {});
    for (w, &word) in sites.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            let site = w * 64 + rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let (index, bit) = (site / width, (site % width) as u32);
            let before = params[index];
            let after = repr.corrupt(before, bit, model);
            params[index] = after;
            on_flip(FaultRecord { index, bit, before, after });
        }
    }
}

/// Draws `n` distinct sites out of `0..total_bits` and returns them as a
/// bitset (bit `s % 64` of word `s / 64` set for site `s`), calling
/// `on_draw` on each site as it is accepted.
///
/// With `n ≪ total_bits` rejection sampling terminates fast: each draw
/// is one `gen_range(0..total_bits)`, and a repeat is rejected and
/// drawn again, so the cost is one draw per accepted or rejected site
/// plus a zeroed word per 64 exposed bits. For dense corruption
/// (`4n > total_bits`) a partial Fisher–Yates shuffle over the list of
/// every site draws `gen_range(i..total_bits)` for the `i`-th site
/// instead. Both make the draws the `HashSet` sampler this replaced
/// made, so the draw stream and the site set are unchanged.
fn draw_sites(
    total_bits: usize,
    n: usize,
    rng: &mut dyn RngCore,
    mut on_draw: impl FnMut(usize),
) -> Vec<u64> {
    let mut words = vec![0u64; total_bits.div_ceil(64)];
    if n * 4 <= total_bits {
        let mut drawn = 0;
        while drawn < n {
            let site = rng.gen_range(0..total_bits);
            let (word, mask) = (&mut words[site / 64], 1u64 << (site % 64));
            if *word & mask == 0 {
                *word |= mask;
                drawn += 1;
                on_draw(site);
            }
        }
    } else {
        let mut all: Vec<usize> = (0..total_bits).collect();
        for i in 0..n {
            let j = rng.gen_range(i..total_bits);
            all.swap(i, j);
            let site = all[i];
            words[site / 64] |= 1u64 << (site % 64);
            on_draw(site);
        }
    }
    words
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
