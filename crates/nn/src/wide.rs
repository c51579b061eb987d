//! Which compiled instance of a hot kernel a call runs.
//!
//! The conv stencil, the conv parameter-gradient taps,
//! `Dense::forward_cols` and the dense backward each have an
//! `#[inline(always)]` body with two callers: the baseline function and
//! a `#[target_feature(enable = "avx2")]` one that inlines the same body
//! 8 wide. The kernel entry tests the call's shape against its
//! threshold, then [`avx2`]. The instances, thresholds and their
//! measured crossovers are listed in the `infer` module doc.
//!
//! Off x86-64 the baseline instance is the only one.

/// Whether a kernel call whose shape measure `n` reaches `min` runs its
/// AVX2 instance. The shape is tested first; std caches the feature
/// detection, so the second test is a load and a bit test.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) fn avx2(n: usize, min: usize) -> bool {
    n >= min && std::arch::is_x86_feature_detected!("avx2")
}

/// Each kernel's AVX2 instance against its baseline instance on the
/// same inputs, at every shape, long rows included: production on an
/// AVX2 host never runs the baseline there, so this pins the fallback
/// a host without AVX2 runs. Bit-exact while every operand is finite,
/// equal modulo NaN payload otherwise.
#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use crate::conv::{
        correlate_avx2, correlate_body, window_grads_avx2, window_grads_body, LANES,
    };
    use crate::Dense;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// ±0, ±subnormals, ±∞, quiet and signalling NaNs with payloads.
    const SPECIAL_BITS: [u32; 11] = [
        0x0000_0000,
        0x8000_0000,
        0x0000_0001,
        0x807f_ffff,
        0x7f80_0000,
        0xff80_0000,
        0x7fc0_0000,
        0xffc1_2345,
        0x7f80_0001,
        0xffa0_0f00,
        0x7fbf_ffff,
    ];

    /// The input planes of the DroneNav policy's three convs.
    const DRONE_PLANES: [(usize, usize); 3] = [(9, 16), (7, 14), (5, 12)];

    /// `(in_dim, out_dim)` of the DroneNav and GridWorld dense layers,
    /// then sizes around the vector widths and the `in_dim` threshold.
    const DENSE_SHAPES: [(usize, usize); 9] =
        [(480, 64), (64, 25), (6, 32), (32, 32), (32, 4), (1, 1), (63, 7), (65, 9), (100, 17)];

    /// Says once per test binary whether the AVX2 side runs.
    fn host_has_avx2() -> bool {
        static SAID: std::sync::Once = std::sync::Once::new();
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        SAID.call_once(|| {
            if avx2 {
                println!("AVX2 detected: comparing the AVX2 instances with the baseline");
            } else {
                println!("no AVX2 on this host: skipped the AVX2 side of the instance property");
            }
        });
        avx2
    }

    /// `n` values in ±2 with exact zeros, as after a ReLU; with `special`
    /// a share of them replaced by the bit patterns of [`SPECIAL_BITS`].
    fn values(rng: &mut StdRng, n: usize, special: bool) -> Vec<f32> {
        let rate = if special { rng.gen_range(0.0..0.3) } else { 0.0 };
        (0..n)
            .map(|_| match rng.gen_range(0..10u32) {
                _ if rng.gen_bool(rate) => {
                    f32::from_bits(SPECIAL_BITS[rng.gen_range(0..SPECIAL_BITS.len())])
                }
                0..=2 => 0.0,
                3 => -0.0,
                _ => rng.gen_range(-2.0f32..2.0),
            })
            .collect()
    }

    /// Bit patterns to compare: with `modulo_nan` every NaN is one key.
    fn bits(v: &[f32], modulo_nan: bool) -> Vec<u32> {
        v.iter()
            .map(|&v| if modulo_nan && v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() })
            .collect()
    }

    fn finite(parts: &[&[f32]]) -> bool {
        parts.iter().all(|p| p.iter().all(|v| v.is_finite()))
    }

    /// A dense layer, its plane of special weights, and its inputs and
    /// output gradients for `batch` samples, batch-minor.
    fn dense_case(
        rng: &mut StdRng,
        shape: usize,
        batch: usize,
    ) -> (Dense, Vec<f32>, Vec<f32>, Vec<f32>) {
        let (i, o) = DENSE_SHAPES[shape];
        let special = rng.gen_bool(0.5);
        let mut p = Vec::new();
        let d = Dense::new("d", i, o, &mut p, rng);
        let p = values(rng, p.len(), special);
        let special_x = rng.gen_bool(0.3);
        let x = values(rng, i * batch, special_x);
        let g = values(rng, o * batch, false);
        (d, p, x, g)
    }

    proptest! {
        #[test]
        fn avx2_instance_conv_stencil_matches_the_baseline(
            seed in any::<u64>(),
            plane in 0usize..3,
            k in 1usize..=5,
            src_c in 1usize..=12,
            dst_c in 1usize..=16,
            batch in 1usize..=33,
            padded in any::<bool>(),
        ) {
            if !host_has_avx2() {
                return Ok(());
            }
            let mut rng = StdRng::seed_from_u64(seed);
            // The forward's input planes, or an input gradient's padded
            // plane of one output channel.
            let (h, w) = DRONE_PLANES[plane];
            let (src_c, sh, sw) = if padded { (1, h + k - 1, w + k - 1) } else { (src_c, h, w) };
            let special = (rng.gen_bool(0.5), rng.gen_bool(0.3));
            let taps = values(&mut rng, dst_c * src_c * k * k, special.0);
            let src = values(&mut rng, src_c * sh * sw * batch, special.1);
            let dst = values(&mut rng, dst_c * (sh - k + 1) * (sw - k + 1) * batch, false);
            let modulo_nan = !finite(&[&taps, &src]);
            for masked in [false, true] {
                let (mut base, mut wide) = (dst.clone(), dst.clone());
                let dims = (src_c, sh, sw);
                if masked {
                    correlate_body::<true>(k, &taps, &src, dims, batch, &mut base);
                    // SAFETY: the host has AVX2.
                    unsafe { correlate_avx2::<true>(k, &taps, &src, dims, batch, &mut wide) };
                } else {
                    correlate_body::<false>(k, &taps, &src, dims, batch, &mut base);
                    // SAFETY: the host has AVX2.
                    unsafe { correlate_avx2::<false>(k, &taps, &src, dims, batch, &mut wide) };
                }
                prop_assert_eq!(bits(&base, modulo_nan), bits(&wide, modulo_nan), "masked {}", masked);
            }
        }

        #[test]
        fn avx2_instance_conv_parameter_gradient_matches_the_baseline(
            seed in any::<u64>(),
            plane in 0usize..3,
            k in 1usize..=5,
            batch in 1usize..=33,
        ) {
            if !host_has_avx2() {
                return Ok(());
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let (h, w) = DRONE_PLANES[plane];
            let special = rng.gen_bool(0.3);
            let x = values(&mut rng, batch * h * w, special);
            let g = values(&mut rng, batch * (h - k + 1) * (w - k + 1) * LANES, false);
            let win = values(&mut rng, k * k * LANES, false);
            let modulo_nan = !finite(&[&x]);
            for masked in [false, true] {
                let (mut base, mut wide) = (win.clone(), win.clone());
                if masked {
                    window_grads_body::<true>(k, &x, (h, w), &g, &mut base);
                    // SAFETY: the host has AVX2.
                    unsafe { window_grads_avx2::<true>(k, &x, (h, w), &g, &mut wide) };
                } else {
                    window_grads_body::<false>(k, &x, (h, w), &g, &mut base);
                    // SAFETY: the host has AVX2.
                    unsafe { window_grads_avx2::<false>(k, &x, (h, w), &g, &mut wide) };
                }
                prop_assert_eq!(bits(&base, modulo_nan), bits(&wide, modulo_nan), "masked {}", masked);
            }
        }

        #[test]
        fn avx2_instance_dense_forward_cols_matches_the_baseline(
            seed in any::<u64>(),
            shape in 0usize..DENSE_SHAPES.len(),
            batch in 1usize..=33,
        ) {
            if !host_has_avx2() {
                return Ok(());
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let (d, p, x, _) = dense_case(&mut rng, shape, batch);
            let modulo_nan = !finite(&[&p, &x]);
            let mut base = vec![f32::NAN; d.out_dim() * batch];
            let mut wide = base.clone();
            d.forward_cols_body(&p, &x, batch, &mut base);
            // SAFETY: the host has AVX2.
            unsafe { d.forward_cols_avx2(&p, &x, batch, &mut wide) };
            prop_assert_eq!(bits(&base, modulo_nan), bits(&wide, modulo_nan));
        }

        #[test]
        fn avx2_instance_dense_backward_matches_the_baseline(
            seed in any::<u64>(),
            shape in 0usize..DENSE_SHAPES.len(),
            batch in 1usize..=33,
            with_dx in any::<bool>(),
        ) {
            if !host_has_avx2() {
                return Ok(());
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut base, p, x, g) = dense_case(&mut rng, shape, batch);
            let mut wide = base.clone();
            let modulo_nan = !finite(&[&p, &x]);
            // Pending gradients and stale input-gradient buffers, as in
            // the backward arena.
            let mut grads_base = values(&mut rng, p.len(), false);
            let mut grads_wide = grads_base.clone();
            let mut dx_base = vec![f32::NAN; base.in_dim() * batch];
            let mut dx_wide = dx_base.clone();
            base.backward_body((&p, &mut grads_base), &x, &g, with_dx.then_some(&mut dx_base[..]));
            let dx = with_dx.then_some(&mut dx_wide[..]);
            // SAFETY: the host has AVX2.
            unsafe { wide.backward_avx2((&p, &mut grads_wide), &x, &g, dx) };
            prop_assert_eq!(bits(&grads_base, modulo_nan), bits(&grads_wide, modulo_nan));
            prop_assert_eq!(bits(&dx_base, modulo_nan), bits(&dx_wide, modulo_nan));
        }
    }
}
