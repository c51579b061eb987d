//! Action-selection primitives shared by the learners.

use frlfi_tensor::Tensor;
use rand::RngCore;

/// Numerically stable softmax over a rank-1 logits tensor.
///
/// Non-finite logits (which transient faults can produce) are treated as
/// very negative so a corrupted policy still yields a valid distribution
/// rather than NaN-poisoning the action sampler — faults should corrupt
/// *behaviour*, not crash the simulator.
///
/// ```
/// use frlfi_rl::softmax;
/// use frlfi_tensor::Tensor;
///
/// let p = softmax(&Tensor::from_vec(vec![2], vec![0.0, 0.0]).unwrap());
/// assert!((p.data()[0] - 0.5).abs() < 1e-6);
/// ```
pub fn softmax(logits: &Tensor) -> Tensor {
    let mut probs = Vec::new();
    softmax_into(logits.data(), &mut probs);
    let n = probs.len();
    Tensor::from_vec(vec![n], probs).expect("softmax preserves length")
}

/// [`softmax`] over a borrowed logits slice, writing the distribution
/// into a caller-owned scratch vector (cleared first). This is the
/// allocation-free training fast path; it performs exactly the tensor
/// version's computation — [`softmax`] delegates here — so the produced
/// probabilities are bit-identical.
pub(crate) fn softmax_into(logits: &[f32], out: &mut Vec<f32>) {
    let sanitize = |x: f32| if x.is_finite() { x } else { -1e30 };
    let max = logits.iter().map(|&x| sanitize(x)).fold(f32::NEG_INFINITY, f32::max);
    out.clear();
    out.extend(logits.iter().map(|&x| (sanitize(x) - max).exp()));
    let sum: f32 = out.iter().sum();
    let n = out.len();
    if sum > 0.0 && sum.is_finite() {
        for e in out.iter_mut() {
            *e /= sum;
        }
    } else {
        for e in out.iter_mut() {
            *e = 1.0 / n as f32;
        }
    }
}

/// Samples an index from a categorical distribution.
///
/// Falls back to uniform if the probabilities are degenerate (all zero /
/// non-finite), which can happen under heavy fault injection.
pub fn sample_categorical(probs: &Tensor, rng: &mut dyn RngCore) -> usize {
    sample_categorical_slice(probs.data(), rng)
}

/// [`sample_categorical`] over a borrowed probability slice — the tensor
/// version delegates here, so both draw identically from the same RNG
/// stream.
pub(crate) fn sample_categorical_slice(probs: &[f32], rng: &mut dyn RngCore) -> usize {
    let n = probs.len();
    let total: f32 = probs.iter().filter(|p| p.is_finite() && **p > 0.0).sum();
    if !(total.is_finite() && total > 0.0) {
        return (rng.next_u64() % n as u64) as usize;
    }
    let mut u = uniform_f32(rng) * total;
    for (i, &p) in probs.iter().enumerate() {
        if p.is_finite() && p > 0.0 {
            if u < p {
                return i;
            }
            u -= p;
        }
    }
    n - 1
}

/// Draws a uniform f32 in `[0, 1)` from a dyn RngCore (24 high bits give
/// full f32-mantissa resolution).
fn uniform_f32(rng: &mut dyn RngCore) -> f32 {
    (rng.next_u32() >> 8) as f32 / (1u32 << 24) as f32
}

/// Index of the largest *finite* value (faults may have produced NaN /
/// ±∞ entries; those are skipped). Ties and the all-non-finite case
/// resolve to the earliest index — the exact greedy rule the learners
/// have always used, shared here so the inference fast path cannot
/// drift from the tensor path.
pub(crate) fn greedy_argmax(values: &[f32]) -> usize {
    let mut best = 0;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in values.iter().enumerate() {
        if v.is_finite() && v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

/// Allocation-free equivalent of `softmax(logits).argmax()`, selecting
/// the same index **bit for bit**: it replays the exact computation of
/// [`softmax`] (sanitize → subtract max → `exp` → normalize) on the
/// fly instead of materializing the probability tensor, so even
/// rounding-induced ties and the degenerate all-non-finite fallback
/// (uniform → index 0) resolve identically. This keeps the greedy
/// inference fast path free of per-step heap allocation.
pub(crate) fn softmax_argmax(logits: &[f32]) -> usize {
    let sanitize = |x: f32| if x.is_finite() { x } else { -1e30 };
    let max = logits.iter().map(|&x| sanitize(x)).fold(f32::NEG_INFINITY, f32::max);
    let sum: f32 = logits.iter().map(|&x| (sanitize(x) - max).exp()).sum();
    if !(sum > 0.0 && sum.is_finite()) {
        // softmax falls back to the uniform distribution, whose argmax
        // is the first index.
        return 0;
    }
    let mut best = 0;
    let mut best_p = f32::NEG_INFINITY;
    for (i, &x) in logits.iter().enumerate() {
        // `exp` is deterministic, so recomputing yields the same bits
        // `softmax` stored; strict `>` keeps the first of any ties,
        // matching `Tensor::argmax`.
        let p = (sanitize(x) - max).exp() / sum;
        if p > best_p {
            best_p = p;
            best = i;
        }
    }
    best
}

/// ε-greedy selection over a rank-1 Q-value tensor.
pub(crate) fn eps_greedy(q_values: &Tensor, epsilon: f32, rng: &mut dyn RngCore) -> usize {
    eps_greedy_slice(q_values.data(), epsilon, rng)
}

/// `eps_greedy` over a borrowed Q-value slice — the tensor version
/// delegates here, so both consume the RNG stream identically.
pub fn eps_greedy_slice(q_values: &[f32], epsilon: f32, rng: &mut dyn RngCore) -> usize {
    let n = q_values.len();
    let u = uniform_f32(rng);
    if u < epsilon {
        (rng.next_u64() % n as u64) as usize
    } else {
        // Ignore non-finite Q-values that faults may have produced.
        greedy_argmax(q_values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&Tensor::from_vec(vec![4], vec![1.0, 2.0, 3.0, 4.0]).unwrap());
        assert!((p.sum() - 1.0).abs() < 1e-5);
        assert_eq!(p.argmax(), 3);
    }

    #[test]
    fn softmax_survives_nan_logits() {
        let p = softmax(&Tensor::from_vec(vec![3], vec![f32::NAN, 1.0, f32::INFINITY]).unwrap());
        assert!((p.sum() - 1.0).abs() < 1e-5);
        assert!(p.data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn softmax_all_nan_is_uniform() {
        let p = softmax(&Tensor::from_vec(vec![2], vec![f32::NAN, f32::NAN]).unwrap());
        assert!((p.data()[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn softmax_argmax_matches_tensor_path_bitwise() {
        let cases: Vec<Vec<f32>> = vec![
            vec![1.0, 2.0, 3.0, 4.0],
            vec![0.0, 0.0],
            vec![f32::NAN, 1.0, f32::INFINITY],
            vec![f32::NAN, f32::NAN],
            vec![f32::NEG_INFINITY, -1e30, -1e38],
            vec![-1000.0, -900.0, 10.0],
            // Rounding-collapsed near-tie: distinct logits, equal probs.
            vec![1.0, 1.0 + 1e-9],
            vec![5.0; 7],
            vec![0.25],
        ];
        for logits in cases {
            let n = logits.len();
            let t = Tensor::from_vec(vec![n], logits.clone()).unwrap();
            assert_eq!(softmax_argmax(&logits), softmax(&t).argmax(), "divergence on {logits:?}");
        }
    }

    #[test]
    fn sample_respects_point_mass() {
        let mut rng = StdRng::seed_from_u64(0);
        let probs = Tensor::from_vec(vec![3], vec![0.0, 1.0, 0.0]).unwrap();
        for _ in 0..50 {
            assert_eq!(sample_categorical(&probs, &mut rng), 1);
        }
    }

    #[test]
    fn sample_roughly_matches_distribution() {
        let mut rng = StdRng::seed_from_u64(1);
        let probs = Tensor::from_vec(vec![2], vec![0.8, 0.2]).unwrap();
        let hits = (0..5000).filter(|_| sample_categorical(&probs, &mut rng) == 0).count();
        let frac = hits as f32 / 5000.0;
        assert!((frac - 0.8).abs() < 0.05, "frac {frac}");
    }

    #[test]
    fn sample_degenerate_falls_back_to_uniform() {
        let mut rng = StdRng::seed_from_u64(2);
        let probs = Tensor::from_vec(vec![4], vec![0.0; 4]).unwrap();
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[sample_categorical(&probs, &mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn greedy_picks_argmax() {
        let mut rng = StdRng::seed_from_u64(3);
        let q = Tensor::from_vec(vec![3], vec![0.1, 0.9, 0.5]).unwrap();
        assert_eq!(eps_greedy(&q, 0.0, &mut rng), 1);
    }

    #[test]
    fn greedy_skips_nan() {
        let mut rng = StdRng::seed_from_u64(4);
        let q = Tensor::from_vec(vec![3], vec![0.1, f32::NAN, 0.5]).unwrap();
        assert_eq!(eps_greedy(&q, 0.0, &mut rng), 2);
    }

    #[test]
    fn full_epsilon_explores_everything() {
        let mut rng = StdRng::seed_from_u64(5);
        let q = Tensor::from_vec(vec![4], vec![9.0, 0.0, 0.0, 0.0]).unwrap();
        let mut seen = [false; 4];
        for _ in 0..300 {
            seen[eps_greedy(&q, 1.0, &mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
