use rand::Rng;

/// Weight initialization schemes.
///
/// The GridWorld MLP and the DroneNav conv policy both use fan-scaled
/// initializers so that freshly initialized policies produce well-scaled
/// logits — important because the paper's Fig. 3d analysis depends on the
/// trained weight distribution staying in a narrow range.
///
/// ```
/// use frlfi_tensor::{Init, Tensor};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let w = Tensor::random(vec![8, 4], Init::HeUniform, &mut rng);
/// assert!(w.data().iter().all(|x| x.abs() < 2.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Init {
    /// All zeros (used for biases).
    Zeros,
    /// Constant value.
    Constant(f32),
    /// Uniform in `[-limit, limit]` with `limit = sqrt(6 / (fan_in + fan_out))`.
    #[default]
    XavierUniform,
    /// Uniform in `[-limit, limit]` with `limit = sqrt(6 / fan_in)`; suited
    /// to ReLU networks.
    HeUniform,
    /// Uniform in a caller-specified `[lo, hi]`.
    Uniform(f32, f32),
}

impl Init {
    /// Samples one value under this scheme for the given fans.
    pub(crate) fn sample<R: Rng>(self, fan_in: usize, fan_out: usize, rng: &mut R) -> f32 {
        match self {
            Init::Zeros => 0.0,
            Init::Constant(c) => c,
            Init::XavierUniform => {
                let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
                rng.gen_range(-limit..=limit)
            }
            Init::HeUniform => {
                let limit = (6.0 / fan_in.max(1) as f32).sqrt();
                rng.gen_range(-limit..=limit)
            }
            Init::Uniform(lo, hi) => rng.gen_range(lo..=hi),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_is_zero() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(Init::Zeros.sample(10, 10, &mut rng), 0.0);
    }

    #[test]
    fn xavier_within_limit() {
        let mut rng = StdRng::seed_from_u64(1);
        let limit = (6.0_f32 / 20.0).sqrt();
        for _ in 0..1000 {
            let x = Init::XavierUniform.sample(10, 10, &mut rng);
            assert!(x.abs() <= limit + f32::EPSILON);
        }
    }

    #[test]
    fn he_within_limit() {
        let mut rng = StdRng::seed_from_u64(2);
        let limit = (6.0_f32 / 4.0).sqrt();
        for _ in 0..1000 {
            let x = Init::HeUniform.sample(4, 16, &mut rng);
            assert!(x.abs() <= limit + f32::EPSILON);
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let x = Init::Uniform(-0.25, 0.75).sample(1, 1, &mut rng);
            assert!((-0.25..=0.75).contains(&x));
        }
    }
}
