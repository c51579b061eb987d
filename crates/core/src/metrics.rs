//! Evaluation metrics shared by the experiment drivers.

use frlfi_envs::Outcome;
use frlfi_nn::Network;
use frlfi_rl::softmax;
use frlfi_tensor::{Summary, Tensor};

/// Fraction of outcomes that reached the goal (the paper's GridWorld
/// success rate `SRᵢ`).
///
/// ```
/// use frlfi::success_rate_of;
/// use frlfi::envs::Outcome;
///
/// let sr = success_rate_of(&[Outcome::Goal, Outcome::Crash, Outcome::Goal, Outcome::Timeout]);
/// assert_eq!(sr, 0.5);
/// ```
pub fn success_rate_of(outcomes: &[Outcome]) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    outcomes.iter().filter(|o| **o == Outcome::Goal).count() as f64 / outcomes.len() as f64
}

/// The paper's Table I metric: the standard deviation of the consensus
/// policy's action distribution, averaged over a sample of states.
///
/// "A greater standard deviation of the consensus policy indicates a
/// better differentiation between good and bad actions for a given
/// state" (§IV-A-2) — a near-uniform policy has std ≈ 0; a confident
/// policy concentrates mass and its per-state std grows.
pub(crate) fn policy_action_std(net: &mut Network, states: &[Tensor]) -> f32 {
    if states.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    let mut counted = 0;
    for s in states {
        if let Ok(out) = net.forward(s) {
            let probs = softmax(&out);
            total += Summary::of(probs.data()).std;
            counted += 1;
        }
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f32
    }
}

/// The paper's Table I quantity, operationalized: how well the
/// consensus policy "differentiates between good and bad actions for a
/// given state" (§IV-A-2).
///
/// For every probe state the policy's softmax probability mass on
/// *improving* actions (in-bounds, hell-free, distance-reducing moves)
/// is compared with the mass on the remaining actions; the score is the
/// mean margin over states that have at least one improving and one
/// non-improving action. A policy that generalizes across all mazes
/// scores high; a single-agent policy that only knows its own maze
/// scores near zero on foreign states.
///
/// The paper reports this quantity as a raw "std" of the policy; under
/// weight-space federated averaging the raw output std *shrinks* with
/// agent count (gradient cancellation: averaged weights pull opposing
/// per-maze preferences towards zero), so the margin form is the
/// faithful way to reproduce the claimed trend.
pub(crate) fn policy_differentiation(net: &mut Network, probes: &[(Tensor, [bool; 4])]) -> f32 {
    let mut total = 0.0;
    let mut counted = 0;
    for (state, improving) in probes {
        let n_good = improving.iter().filter(|&&g| g).count();
        if n_good == 0 || n_good == improving.len() {
            continue;
        }
        let Ok(out) = net.forward(state) else { continue };
        let probs = softmax(&out);
        let mut good = 0.0;
        let mut bad = 0.0;
        for (i, &p) in probs.data().iter().enumerate() {
            if improving[i] {
                good += p;
            } else {
                bad += p;
            }
        }
        total += good / n_good as f32 - bad / (improving.len() - n_good) as f32;
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frlfi_nn::NetworkBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn success_rate_counts_goals() {
        assert_eq!(success_rate_of(&[]), 0.0);
        assert_eq!(success_rate_of(&[Outcome::Goal]), 1.0);
        assert_eq!(success_rate_of(&[Outcome::Crash, Outcome::Goal]), 0.5);
    }

    #[test]
    fn confident_policy_has_higher_std() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut weak = NetworkBuilder::new(4).dense(4).build(&mut rng).unwrap();
        // Scale all weights down: logits collapse, softmax → uniform.
        let snap: Vec<f32> = weak.snapshot().iter().map(|w| w * 1e-3).collect();
        weak.restore(&snap).unwrap();
        let mut strong = NetworkBuilder::new(4).dense(4).build(&mut rng).unwrap();
        let snap: Vec<f32> = strong.snapshot().iter().map(|w| w * 10.0).collect();
        strong.restore(&snap).unwrap();

        let states: Vec<Tensor> = (0..8)
            .map(|i| {
                Tensor::from_vec(vec![4], vec![i as f32 / 8.0, -0.5, 0.25, 1.0 - i as f32 / 8.0])
                    .unwrap()
            })
            .collect();
        let weak_std = policy_action_std(&mut weak, &states);
        let strong_std = policy_action_std(&mut strong, &states);
        assert!(
            strong_std > weak_std,
            "confident policy should have larger action std: {strong_std} vs {weak_std}"
        );
    }

    #[test]
    fn empty_states_yield_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = NetworkBuilder::new(2).dense(2).build(&mut rng).unwrap();
        assert_eq!(policy_action_std(&mut net, &[]), 0.0);
    }
}
