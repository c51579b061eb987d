use crate::{
    sample_categorical, sample_categorical_slice, softmax, softmax_argmax, softmax_into, Learner,
    RlError, Transition,
};
use frlfi_nn::{ActShape, BatchInferCtx, Network, NetworkBuilder, NnError};
use frlfi_tensor::Tensor;
use rand::{Rng, RngCore};

/// Monte-Carlo policy gradient (REINFORCE) with an EMA baseline.
///
/// The DroneNav policy "is first trained offline using REINFORCE ... and
/// then fine-tuned online" (§IV-B-1). The network outputs logits over
/// the 25 motion primitives; after each episode the gradient
/// `∑_t ∇ log π(a_t|s_t) · (G_t − b)` is applied once.
///
/// ```
/// use frlfi_rl::{Learner, Reinforce};
/// use frlfi_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut pi = Reinforce::drone_default(&mut rng)?;
/// let a = pi.act_greedy(&Tensor::zeros(vec![1, 9, 16]))?;
/// assert!(a < 25);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Reinforce {
    net: Network,
    gamma: f32,
    lr: f32,
    baseline: f32,
    baseline_momentum: f32,
    episode_buf: Vec<Transition>,
    episode: usize,
    /// Scratch probability row for the batched-training fast path.
    probs_scratch: Vec<f32>,
}

impl Reinforce {
    /// Creates a REINFORCE learner around an existing logits network.
    pub fn new(net: Network, gamma: f32, lr: f32) -> Self {
        Reinforce {
            net,
            gamma,
            lr,
            baseline: 0.0,
            baseline_momentum: 0.9,
            episode_buf: Vec::new(),
            episode: 0,
            probs_scratch: Vec::new(),
        }
    }

    /// The standard DroneNav configuration: three conv layers and two
    /// dense layers over the 9×16 depth image (§IV-B-1), γ = 0.98,
    /// lr = 5e-4.
    ///
    /// # Errors
    ///
    /// Propagates network-construction errors.
    pub fn drone_default<R: Rng>(rng: &mut R) -> Result<Self, NnError> {
        let net = NetworkBuilder::new_image(1, 9, 16)
            .conv(8, 3)
            .relu()
            .conv(12, 3)
            .relu()
            .conv(16, 3)
            .relu()
            .dense(64)
            .relu()
            .dense(25)
            .build(rng)?;
        Ok(Reinforce::new(net, 0.98, 5e-4))
    }

    /// A small flat-input REINFORCE learner (useful for GridWorld
    /// algorithm-comparison studies).
    ///
    /// # Errors
    ///
    /// Propagates network-construction errors.
    pub fn gridworld_default<R: Rng>(rng: &mut R) -> Result<Self, NnError> {
        let net = NetworkBuilder::new(6).dense(32).relu().dense(32).relu().dense(4).build(rng)?;
        Ok(Reinforce::new(net, 0.9, 0.005))
    }

    /// Learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Current reward baseline (EMA of episode returns).
    pub fn baseline(&self) -> f32 {
        self.baseline
    }

    /// The per-episode REINFORCE update as **one batched forward and
    /// one batched backward** over the buffered steps — this is where
    /// batched training pays: for a T-step episode the sequential
    /// reference runs T tensor-allocating forwards and T backwards,
    /// while this path runs a single arena-backed batch of all kept
    /// steps.
    ///
    /// Bitwise contract with [`Learner::end_episode`]: returns,
    /// advantages, the `advantage == 0.0` step filter, per-row softmax,
    /// gradient rows, the `lr / T` scale and the baseline EMA are all
    /// computed identically, and the batched backward accumulates every
    /// parameter-gradient element in ascending step order — exactly the
    /// order the sequential per-step backwards accumulate (weights only
    /// change at the single `apply_grads`). Trained weights are
    /// therefore bit-identical.
    ///
    /// # Errors
    ///
    /// Returns an error if a buffered observation does not fit the
    /// policy network; the episode buffer is left intact so the caller
    /// can inspect it.
    pub fn learn_batch(&mut self, ctx: &mut BatchInferCtx) -> Result<(), RlError> {
        if self.episode_buf.is_empty() {
            self.episode += 1;
            return Ok(());
        }
        // Discounted returns, computed backward.
        let mut returns = vec![0.0f32; self.episode_buf.len()];
        let mut g = 0.0;
        for (i, t) in self.episode_buf.iter().enumerate().rev() {
            g = t.reward + self.gamma * g;
            returns[i] = g;
        }
        let episode_return = returns[0];

        // Steps the sequential path would actually train on (it skips
        // zero-advantage steps before running any forward).
        let kept: Vec<(usize, f32)> = returns
            .iter()
            .enumerate()
            .filter_map(|(i, &g_t)| {
                let advantage = (g_t - self.baseline).clamp(-50.0, 50.0);
                (advantage != 0.0).then_some((i, advantage))
            })
            .collect();
        if !kept.is_empty() {
            let shape = ActShape::from_dims(self.episode_buf[kept[0].0].state.shape().dims())?;
            let vol = shape.volume();
            let batch = kept.len();
            let mut states = vec![0.0f32; vol * batch];
            for (s, &(i, _)) in kept.iter().enumerate() {
                let data = self.episode_buf[i].state.data();
                if data.len() != vol {
                    return Err(RlError::Nn(NnError::BadDimensions {
                        detail: format!(
                            "episode step {i} observation has {} elements, expected {vol}",
                            data.len()
                        ),
                    }));
                }
                states[s * vol..(s + 1) * vol].copy_from_slice(data);
            }
            let logits = self.net.forward_batch_cached(&states, &shape, batch, ctx)?;
            let n = logits.len() / batch;
            let mut grads = vec![0.0f32; logits.len()];
            for (s, &(i, advantage)) in kept.iter().enumerate() {
                // ∇_logits −log π(a) · A = (π − one_hot(a)) · A, with
                // the bit-exact softmax replay per row.
                softmax_into(&logits[s * n..(s + 1) * n], &mut self.probs_scratch);
                let grow = &mut grads[s * n..(s + 1) * n];
                for (gj, &p) in grow.iter_mut().zip(self.probs_scratch.iter()) {
                    *gj = p * advantage;
                }
                grow[self.episode_buf[i].action] -= advantage;
            }
            self.net.backward_batch(&grads, batch, ctx)?;
        }
        // One SGD step per episode, scaled by episode length.
        let scale = self.lr / self.episode_buf.len() as f32;
        self.net.apply_grads(scale);

        self.baseline = self.baseline_momentum * self.baseline
            + (1.0 - self.baseline_momentum) * episode_return;
        self.episode_buf.clear();
        self.episode += 1;
        Ok(())
    }
}

impl Learner for Reinforce {
    fn act(&mut self, state: &Tensor, rng: &mut dyn RngCore) -> Result<usize, RlError> {
        let logits = self.net.forward(state)?;
        Ok(sample_categorical(&softmax(&logits), rng))
    }

    fn act_greedy(&mut self, state: &Tensor) -> Result<usize, RlError> {
        let logits = self.net.forward(state)?;
        Ok(softmax(&logits).argmax())
    }

    fn act_greedy_ctx(
        &mut self,
        state: &Tensor,
        ctx: &mut BatchInferCtx,
    ) -> Result<usize, RlError> {
        // `softmax_argmax` replays `softmax(..).argmax()` bit-exactly
        // over the borrowed activation slice, keeping the whole greedy
        // step allocation-free.
        let logits = self.net.infer(state, ctx)?;
        Ok(softmax_argmax(logits))
    }

    fn act_train_ctx(
        &mut self,
        state: &Tensor,
        rng: &mut dyn RngCore,
        ctx: &mut BatchInferCtx,
    ) -> Result<usize, RlError> {
        // Same logits bit for bit as `act`, the bit-exact softmax
        // replay, and the same sampler RNG consumption — training
        // trajectories are unchanged.
        let shape = ActShape::from_dims(state.shape().dims())?;
        let logits = self.net.infer_batch(state.data(), &shape, 1, ctx)?;
        softmax_into(logits, &mut self.probs_scratch);
        Ok(sample_categorical_slice(&self.probs_scratch, rng))
    }

    fn act_greedy_batch(
        &mut self,
        states: &[f32],
        in_shape: &ActShape,
        batch: usize,
        ctx: &mut BatchInferCtx,
        actions: &mut [usize],
    ) -> Result<(), RlError> {
        // One batched forward, then the allocation-free bit-exact
        // softmax-argmax replay per logits row (see `act_greedy_ctx`).
        let logits = self.net.infer_batch(states, in_shape, batch, ctx)?;
        let n = logits.len() / batch;
        for (b, row) in logits.chunks_exact(n).enumerate() {
            actions[b] = softmax_argmax(row);
        }
        Ok(())
    }

    fn observe(&mut self, t: Transition) -> Result<(), RlError> {
        // Buffering touches no network, so a mis-shaped state is left
        // for the episode-end update to report; an action the logits
        // cannot index is rejected now, before it reaches a gradient.
        let out = ActShape::from_dims(t.state.shape().dims()).and_then(|s| self.net.out_shape(&s));
        if let Ok(out) = out {
            RlError::check_action(t.action, out.volume())?;
        }
        self.episode_buf.push(t);
        Ok(())
    }

    fn end_episode(&mut self) -> Result<(), RlError> {
        if self.episode_buf.is_empty() {
            self.episode += 1;
            return Ok(());
        }
        // Discounted returns, computed backward.
        let mut returns = vec![0.0f32; self.episode_buf.len()];
        let mut g = 0.0;
        for (i, t) in self.episode_buf.iter().enumerate().rev() {
            g = t.reward + self.gamma * g;
            returns[i] = g;
        }
        let episode_return = returns[0];

        for (t, &g_t) in self.episode_buf.iter().zip(returns.iter()) {
            let advantage = (g_t - self.baseline).clamp(-50.0, 50.0);
            if advantage == 0.0 {
                continue;
            }
            let logits = self.net.forward(&t.state)?;
            let probs = softmax(&logits);
            // ∇_logits −log π(a) · A = (π − one_hot(a)) · A
            let mut grad: Vec<f32> = probs.data().iter().map(|&p| p * advantage).collect();
            grad[t.action] -= advantage;
            let grad = Tensor::from_vec(vec![grad.len()], grad)?;
            self.net.backward(&grad)?;
        }
        // One SGD step per episode, scaled by episode length.
        let scale = self.lr / self.episode_buf.len() as f32;
        self.net.apply_grads(scale);

        self.baseline = self.baseline_momentum * self.baseline
            + (1.0 - self.baseline_momentum) * episode_return;
        self.episode_buf.clear();
        self.episode += 1;
        Ok(())
    }

    fn end_episode_ctx(&mut self, ctx: &mut BatchInferCtx) -> Result<(), RlError> {
        self.learn_batch(ctx)
    }

    fn set_episode(&mut self, episode: usize) {
        self.episode = episode;
    }

    fn network(&self) -> &Network {
        &self.net
    }

    fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A 2-armed bandit: REINFORCE must learn to prefer the rewarded arm.
    #[test]
    fn learns_bandit_preference() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = NetworkBuilder::new(1).dense(8).relu().dense(2).build(&mut rng).unwrap();
        let mut pi = Reinforce::new(net, 1.0, 0.1);
        let s = Tensor::from_vec(vec![1], vec![1.0]).unwrap();
        for _ in 0..300 {
            let a = pi.act(&s, &mut rng).unwrap();
            let r = if a == 1 { 1.0 } else { -1.0 };
            pi.observe(Transition { state: s.clone(), action: a, reward: r, next_state: None })
                .unwrap();
            pi.end_episode().unwrap();
        }
        assert_eq!(pi.act_greedy(&s).unwrap(), 1, "should prefer the rewarded arm");
        let logits = pi.network_mut().forward(&s).unwrap();
        let p = softmax(&logits);
        assert!(p.data()[1] > 0.8, "P(best arm) = {}", p.data()[1]);
    }

    #[test]
    fn empty_episode_is_harmless() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut pi = Reinforce::gridworld_default(&mut rng).unwrap();
        let before = pi.network().snapshot();
        pi.end_episode().unwrap();
        assert_eq!(pi.network().snapshot(), before);
    }

    #[test]
    fn baseline_tracks_returns() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut pi = Reinforce::gridworld_default(&mut rng).unwrap();
        let s = Tensor::from_vec(vec![6], vec![0.0; 6]).unwrap();
        for _ in 0..50 {
            pi.observe(Transition { state: s.clone(), action: 0, reward: 2.0, next_state: None })
                .unwrap();
            pi.end_episode().unwrap();
        }
        assert!(pi.baseline() > 1.0, "baseline {} should approach 2.0", pi.baseline());
    }

    #[test]
    fn drone_default_runs_forward() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut pi = Reinforce::drone_default(&mut rng).unwrap();
        let a = pi.act(&Tensor::zeros(vec![1, 9, 16]), &mut rng).unwrap();
        assert!(a < 25);
    }
}
