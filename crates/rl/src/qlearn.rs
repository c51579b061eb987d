use crate::{
    eps_greedy, eps_greedy_slice, greedy_argmax, EpsilonSchedule, Learner, RlError, Transition,
};
use frlfi_nn::{ActShape, BatchInferCtx, Network, NetworkBuilder, NnError};
use frlfi_tensor::Tensor;
use rand::{Rng, RngCore};

/// ε-greedy temporal-difference learning over an NN Q-function.
///
/// The GridWorld policy is the "widely used NN-based method" of §IV-A-1:
/// a small MLP mapping the 4-cell observation to one Q-value per action,
/// updated online with the one-step TD target
/// `r + γ·max_a' Q(s', a')`.
///
/// ```
/// use frlfi_rl::{Learner, QLearner};
/// use frlfi_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut q = QLearner::gridworld_default(&mut rng)?;
/// let a = q.act_greedy(&Tensor::from_vec(vec![6], vec![0.0, -1.0, 1.0, 0.0, 1.0, 0.0])?)?;
/// assert!(a < 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QLearner {
    net: Network,
    gamma: f32,
    lr: f32,
    schedule: EpsilonSchedule,
    episode: usize,
    /// Scratch output-gradient row for the batched-training fast path.
    grad: Vec<f32>,
    /// This learner's training arena: [`Learner::act_train_ctx`]
    /// leaves its cached forward of `Q(s_t)` here for the TD update to
    /// reuse, and the update runs its next-state inference and
    /// backward here too.
    arena: BatchInferCtx,
    /// Whether `arena` holds the forward of the last `act_train_ctx`
    /// on the current weights. Cleared by every weight update and by
    /// [`Learner::network_mut`].
    act_cached: bool,
}

impl QLearner {
    /// Creates a learner around an existing Q-network.
    pub fn new(net: Network, gamma: f32, lr: f32, schedule: EpsilonSchedule) -> Self {
        QLearner {
            net,
            gamma,
            lr,
            schedule,
            episode: 0,
            grad: Vec::new(),
            arena: BatchInferCtx::new(),
            act_cached: false,
        }
    }

    /// The standard GridWorld configuration: MLP 6→32→32→4, γ = 0.9,
    /// lr = 0.01, ε decaying 1.0 → 0.05 over 400 episodes.
    ///
    /// # Errors
    ///
    /// Propagates network-construction errors.
    pub fn gridworld_default<R: Rng>(rng: &mut R) -> Result<Self, NnError> {
        let net = NetworkBuilder::new(6).dense(32).relu().dense(32).relu().dense(4).build(rng)?;
        Ok(QLearner::new(net, 0.9, 0.01, EpsilonSchedule::new(1.0, 0.05, 400)))
    }

    /// One TD update on the batched-training fast path, in this
    /// learner's own arena. The next-state target runs through the
    /// eval kernels (no gradients flow through it, and eval inference
    /// leaves the arena's cached training forward alone); `Q(s_t)` is
    /// read from the cached forward of the `act_train_ctx` that chose
    /// `t.action` when that forward is still valid — same learner,
    /// unchanged weights, `t.state` bit-equal to the cached input —
    /// and recomputed into the arena otherwise. The batch-1 backward
    /// and the SGD step then run on that forward. The forwards and the
    /// batch-1 backward are bitwise the reference kernels, so the
    /// updated weights are **bit-identical** to [`Learner::observe`].
    fn learn_one(&mut self, t: &Transition) -> Result<(), RlError> {
        let cached = std::mem::take(&mut self.act_cached)
            && self.arena.cached_row().is_some_and(|(x, shape, _)| {
                shape.dims() == t.state.shape().dims()
                    && x.iter().zip(t.state.data()).all(|(a, b)| a.to_bits() == b.to_bits())
            });
        let target = match &t.next_state {
            Some(ns) => {
                let shape = ActShape::from_dims(ns.shape().dims())?;
                let next_q = self.net.infer_batch(ns.data(), &shape, 1, &mut self.arena)?;
                let max_next = next_q
                    .iter()
                    .cloned()
                    .filter(|v| v.is_finite())
                    .fold(f32::NEG_INFINITY, f32::max);
                let max_next = if max_next.is_finite() { max_next } else { 0.0 };
                t.reward + self.gamma * max_next
            }
            None => t.reward,
        };
        if !cached {
            let shape = ActShape::from_dims(t.state.shape().dims())?;
            self.net.forward_batch_cached(t.state.data(), &shape, 1, &mut self.arena)?;
        }
        let (q_a, n) = {
            let (_, _, q) = self.arena.cached_row().ok_or(NnError::EmptyNetwork)?;
            RlError::check_action(t.action, q.len())?;
            (q[t.action], q.len())
        };
        self.grad.clear();
        self.grad.resize(n, 0.0);
        let delta = q_a - target;
        // Clip the TD error so fault-corrupted outliers cannot blow up
        // training with a single step (standard DQN-style safeguard).
        self.grad[t.action] = delta.clamp(-10.0, 10.0);
        self.net.backward_batch(&self.grad, 1, &mut self.arena)?;
        self.net.apply_grads(self.lr);
        Ok(())
    }
}

impl Learner for QLearner {
    fn act(&mut self, state: &Tensor, rng: &mut dyn RngCore) -> Result<usize, RlError> {
        let q = self.net.forward(state)?;
        Ok(eps_greedy(&q, self.schedule.epsilon(self.episode), rng))
    }

    fn act_greedy(&mut self, state: &Tensor) -> Result<usize, RlError> {
        let q = self.net.forward(state)?;
        Ok(greedy_argmax(q.data()))
    }

    fn act_greedy_ctx(
        &mut self,
        state: &Tensor,
        ctx: &mut BatchInferCtx,
    ) -> Result<usize, RlError> {
        let q = self.net.infer(state, ctx)?;
        Ok(greedy_argmax(q))
    }

    /// Runs the cached *training* forward of `state` in the learner's
    /// own arena and picks the action from it, so the following
    /// [`Learner::observe_ctx`] of the transition from `state` reuses
    /// `Q(state)` instead of recomputing it. `ctx` is not used.
    fn act_train_ctx(
        &mut self,
        state: &Tensor,
        rng: &mut dyn RngCore,
        ctx: &mut BatchInferCtx,
    ) -> Result<usize, RlError> {
        let _ = ctx;
        // Same Q-values bit for bit as `act` (a batch-1 cached forward
        // runs the reference kernels) and the same `eps_greedy` RNG
        // consumption, so training trajectories are unchanged.
        let shape = ActShape::from_dims(state.shape().dims())?;
        self.act_cached = false;
        let q = self.net.forward_batch_cached(state.data(), &shape, 1, &mut self.arena)?;
        let action = eps_greedy_slice(q, self.schedule.epsilon(self.episode), rng);
        self.act_cached = true;
        Ok(action)
    }

    fn act_greedy_batch(
        &mut self,
        states: &[f32],
        in_shape: &ActShape,
        batch: usize,
        ctx: &mut BatchInferCtx,
        actions: &mut [usize],
    ) -> Result<(), RlError> {
        let q = self.net.infer_batch(states, in_shape, batch, ctx)?;
        let n = q.len() / batch;
        for (b, row) in q.chunks_exact(n).enumerate() {
            actions[b] = greedy_argmax(row);
        }
        Ok(())
    }

    fn observe(&mut self, t: Transition) -> Result<(), RlError> {
        // One-step TD target (computed before re-running forward on the
        // current state so layer caches hold the right activations).
        let target = match &t.next_state {
            Some(ns) => {
                let next_q = self.net.forward(ns)?;
                let max_next = next_q
                    .data()
                    .iter()
                    .cloned()
                    .filter(|v| v.is_finite())
                    .fold(f32::NEG_INFINITY, f32::max);
                let max_next = if max_next.is_finite() { max_next } else { 0.0 };
                t.reward + self.gamma * max_next
            }
            None => t.reward,
        };
        let q = self.net.forward(&t.state)?;
        RlError::check_action(t.action, q.len())?;
        self.act_cached = false;
        let mut grad = vec![0.0f32; q.len()];
        let delta = q.data()[t.action] - target;
        // Clip the TD error so fault-corrupted outliers cannot blow up
        // training with a single step (standard DQN-style safeguard).
        grad[t.action] = delta.clamp(-10.0, 10.0);
        let grad = Tensor::from_vec(vec![grad.len()], grad)?;
        self.net.backward(&grad)?;
        self.net.apply_grads(self.lr);
        Ok(())
    }

    /// The TD update of [`Learner::observe`], bit for bit, on the fast
    /// path of `QLearner::learn_one`: when the preceding
    /// `act_train_ctx` of this learner acted on `t.state` and no weight
    /// has changed since, its forward is reused; otherwise the forward
    /// is recomputed. `ctx` is not used.
    fn observe_ctx(&mut self, t: Transition, ctx: &mut BatchInferCtx) -> Result<(), RlError> {
        let _ = ctx;
        self.learn_one(&t)
    }

    fn end_episode(&mut self) -> Result<(), RlError> {
        self.episode += 1;
        Ok(())
    }

    fn set_episode(&mut self, episode: usize) {
        self.episode = episode;
    }

    fn network(&self) -> &Network {
        &self.net
    }

    fn network_mut(&mut self) -> &mut Network {
        self.act_cached = false;
        &mut self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn observe_moves_q_toward_target() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut q = QLearner::gridworld_default(&mut rng).unwrap();
        let s = Tensor::from_vec(vec![6], vec![0.0, 1.0, -1.0, 0.0, -1.0, 1.0]).unwrap();
        let before = q.network_mut().forward(&s).unwrap().data()[2];
        for _ in 0..20 {
            q.observe(Transition { state: s.clone(), action: 2, reward: 1.0, next_state: None })
                .unwrap();
        }
        let after = q.network_mut().forward(&s).unwrap().data()[2];
        assert!(
            (after - 1.0).abs() < (before - 1.0).abs(),
            "Q should approach target: {before} -> {after}"
        );
    }

    #[test]
    fn epsilon_decays_with_episodes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut q = QLearner::gridworld_default(&mut rng).unwrap();
        let e0 = q.schedule.epsilon(q.episode);
        q.set_episode(399);
        assert!(q.schedule.epsilon(q.episode) < e0);
    }

    #[test]
    fn greedy_action_is_argmax_of_q() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut q = QLearner::gridworld_default(&mut rng).unwrap();
        let s = Tensor::from_vec(vec![6], vec![1.0, 0.0, 0.0, -1.0, -1.0, 0.0]).unwrap();
        let qs = q.network_mut().forward(&s).unwrap();
        assert_eq!(q.act_greedy(&s).unwrap(), qs.argmax());
    }

    #[test]
    fn terminal_transition_uses_raw_reward() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut q = QLearner::gridworld_default(&mut rng).unwrap();
        let s = Tensor::from_vec(vec![6], vec![0.0; 6]).unwrap();
        // Hammer a terminal reward of −1 on action 0.
        for _ in 0..600 {
            q.observe(Transition { state: s.clone(), action: 0, reward: -1.0, next_state: None })
                .unwrap();
        }
        let v = q.network_mut().forward(&s).unwrap().data()[0];
        assert!((v + 1.0).abs() < 0.2, "terminal Q should approach −1, got {v}");
    }
}
