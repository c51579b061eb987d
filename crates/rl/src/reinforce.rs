use crate::{
    sample_categorical, sample_categorical_slice, softmax, softmax_argmax, softmax_into, Learner,
    RlError, Transition,
};
use frlfi_nn::{ActShape, BatchInferCtx, Network, NetworkBuilder, NnError, TapeId};
use frlfi_tensor::Tensor;
use rand::{Rng, RngCore};

/// Most kept steps one batched forward/backward of the episode-end
/// update runs at once; longer episodes run as several such chunks.
const CHUNK_ROWS: usize = 32;

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
    /// Where the current episode's act-time forwards are.
    tape: Tape,
    /// The observation of the last taped act: the step observed next
    /// must be on it for its row to serve the update.
    acted: (ActShape, Vec<f32>),
    /// Rows a new tape reserves: the longest episode this learner trains
    /// on, when known (0 lets the tape grow as it goes).
    tape_rows: usize,
}

/// The current episode's act-time forwards, as far as the learner can
/// vouch for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tape {
    /// No act has run this episode yet.
    Fresh,
    /// Row `i` of this tape is the forward of episode step `i`'s
    /// observation under the current weights, for every step observed
    /// so far.
    On(TapeId),
    /// The forwards cannot be vouched for (a step observed on another
    /// observation than its act's, another learner's tape,
    /// `network_mut`): this episode's update runs its own forward.
    Lost,
}

impl Reinforce {
    /// Creates a REINFORCE learner around an existing logits network.
    pub(crate) fn new(net: Network, gamma: f32, lr: f32) -> Self {
        Reinforce {
            net,
            gamma,
            lr,
            baseline: 0.0,
            baseline_momentum: 0.9,
            episode_buf: Vec::new(),
            episode: 0,
            probs_scratch: Vec::new(),
            tape: Tape::Fresh,
            acted: (ActShape::flat(0), Vec::new()),
            tape_rows: 0,
        }
    }

    /// Sizes the training tape for episodes of up to `steps` steps —
    /// the training environment's step cap — so that the tape is
    /// allocated once, at its first row (see
    /// [`Learner::act_train_ctx`]). Longer episodes still train; their
    /// tape grows as it goes.
    pub fn with_tape_rows(mut self, steps: usize) -> Self {
        self.tape_rows = steps;
        self
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

    /// Current reward baseline (EMA of episode returns).
    pub fn baseline(&self) -> f32 {
        self.baseline
    }

    /// Sets the reward baseline, e.g. to resume training from a
    /// snapshot taken at an episode boundary.
    pub fn set_baseline(&mut self, baseline: f32) {
        self.baseline = baseline;
    }

    /// The per-episode REINFORCE update on `ctx`'s cached-activation
    /// arena: the kept steps run as batched backwards of **at most 32
    /// rows each**, however long the episode, and the 32-row bound caps
    /// the arena's size. Each chunk's forward comes from the training
    /// tape the episode's acts wrote ([`Learner::act_train_ctx`]) when
    /// the tape still holds exactly this episode's steps, each on the
    /// observation the step buffered; otherwise (a step observed
    /// without a taped act or on another observation than its act's,
    /// another learner's tape on `ctx`, a [`Learner::network_mut`] call
    /// mid-episode, the act on another ctx) the chunk runs its own
    /// batched forward. For a T-step
    /// episode the sequential reference runs T tensor-allocating
    /// forwards and T backwards; this path runs ⌈kept / 32⌉ batched
    /// backwards and, off the tape, no forward but the first layer's.
    ///
    /// Bitwise contract with [`Learner::end_episode`]: returns,
    /// advantages, the `advantage == 0.0` step filter, per-row softmax,
    /// gradient rows, the `lr / T` scale and the baseline EMA are all
    /// computed identically; a taped forward is the batch-1 forward
    /// the reference runs, and a batched one matches it row for row;
    /// and every batched backward adds each parameter-gradient
    /// element's contributions in ascending step order straight into
    /// the accumulated gradient — exactly the order the sequential
    /// per-step backwards accumulate, so splitting the kept steps into
    /// chunks changes no bit (weights only change at the single
    /// `apply_grads`). Trained weights are therefore bit-identical.
    ///
    /// # Errors
    ///
    /// Returns an error if a buffered observation does not fit the
    /// policy network. Every kept observation's size is checked before
    /// the first forward, so a rejected episode leaves no partial
    /// gradient behind; the episode buffer is left intact so the
    /// caller can inspect it.
    pub(crate) fn learn_batch(&mut self, ctx: &mut BatchInferCtx) -> Result<(), RlError> {
        self.learn_chunked(ctx, CHUNK_ROWS)
    }

    /// [`Reinforce::learn_batch`] with batches of at most `rows` kept
    /// steps (the seam the chunking tests drive).
    fn learn_chunked(&mut self, ctx: &mut BatchInferCtx, rows: usize) -> Result<(), RlError> {
        let tape = std::mem::replace(&mut self.tape, Tape::Fresh);
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
        let (kept, advantages): (Vec<usize>, Vec<f32>) = returns
            .iter()
            .enumerate()
            .filter_map(|(i, &g_t)| {
                let advantage = (g_t - self.baseline).clamp(-50.0, 50.0);
                (advantage != 0.0).then_some((i, advantage))
            })
            .unzip();
        if !kept.is_empty() {
            let shape = ActShape::from_dims(self.episode_buf[kept[0]].state.shape().dims())?;
            let vol = shape.volume();
            if let Some(&i) = kept.iter().find(|&&i| self.episode_buf[i].state.data().len() != vol)
            {
                return Err(RlError::Nn(NnError::BadDimensions {
                    detail: format!(
                        "episode step {i} observation has {} elements, expected {vol}",
                        self.episode_buf[i].state.data().len()
                    ),
                }));
            }
            // The tape serves when it holds one row per step observed.
            let taped = match tape {
                Tape::On(id) if ctx.tape_len(id) == Some(self.episode_buf.len()) => Some(id),
                _ => None,
            };
            let mut states = Vec::with_capacity(vol * rows.min(kept.len()));
            let mut grads = Vec::new();
            for (chunk, advantages) in kept.chunks(rows).zip(advantages.chunks(rows)) {
                let batch = chunk.len();
                states.clear();
                for &i in chunk {
                    states.extend_from_slice(self.episode_buf[i].state.data());
                }
                let logits = match taped {
                    Some(id) => self.net.load_tape(id, chunk, &states, ctx)?,
                    None => self.net.forward_batch_cached(&states, &shape, batch, ctx)?,
                };
                let n = logits.len() / batch;
                grads.clear();
                grads.resize(logits.len(), 0.0f32);
                for (s, (&i, &advantage)) in chunk.iter().zip(advantages).enumerate() {
                    // ∇_logits −log π(a) · A = (π − one_hot(a)) · A, with
                    // the bit-exact softmax replay per row.
                    softmax_into(&logits[s * n..(s + 1) * n], &mut self.probs_scratch);
                    let grow = &mut grads[s * n..(s + 1) * n];
                    for (gj, &p) in grow.iter_mut().zip(self.probs_scratch.iter()) {
                        *gj = p * advantage;
                    }
                    grow[self.episode_buf[i].action] -= advantage;
                }
                // Adds this chunk's rows to the gradients of the ones
                // before it, in step order.
                self.net.backward_batch(&grads, batch, ctx)?;
            }
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
        // trajectories are unchanged. The forward goes on the tape as
        // the row of the step about to be observed, as long as the
        // tape holds exactly the steps observed so far.
        let shape = ActShape::from_dims(state.shape().dims())?;
        let row = self.episode_buf.len();
        self.tape = match self.tape {
            Tape::Fresh if row == 0 => Tape::On(ctx.begin_tape(self.tape_rows)),
            Tape::On(id) if ctx.tape_len(id) == Some(row) => Tape::On(id),
            _ => Tape::Lost,
        };
        let logits = match self.tape {
            Tape::On(id) => {
                self.acted.0 = shape;
                self.acted.1.clear();
                self.acted.1.extend_from_slice(state.data());
                self.net.forward_taped(state.data(), &shape, id, ctx)?
            }
            _ => self.net.infer_batch(state.data(), &shape, 1, ctx)?,
        };
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
        // A taped row serves only a step observed on its act's
        // observation, bit for bit.
        if let Tape::On(_) = self.tape {
            let (shape, x) = &self.acted;
            let acted_on = shape.dims() == t.state.shape().dims()
                && x.iter().zip(t.state.data()).all(|(a, b)| a.to_bits() == b.to_bits());
            if !acted_on {
                self.tape = Tape::Lost;
            }
        }
        self.episode_buf.push(t);
        Ok(())
    }

    fn end_episode(&mut self) -> Result<(), RlError> {
        if self.episode_buf.is_empty() {
            self.episode += 1;
            self.tape = Tape::Fresh;
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
        self.tape = Tape::Fresh;
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

    /// The weights may change through the returned network, so this
    /// episode's taped forwards are no longer vouched for.
    fn network_mut(&mut self) -> &mut Network {
        if let Tape::On(_) = self.tape {
            self.tape = Tape::Lost;
        }
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

    /// Episode lengths on both sides of the 32- and 64-row chunk
    /// boundaries, up to the longest drone training episode.
    const BOUNDARY_LENGTHS: [usize; 7] = [1, 31, 32, 33, 64, 65, 120];

    fn default_learner(drone: bool, seed: u64) -> Reinforce {
        let mut rng = StdRng::seed_from_u64(seed);
        let pi = if drone {
            Reinforce::drone_default(&mut rng)
        } else {
            Reinforce::gridworld_default(&mut rng)
        };
        pi.unwrap()
    }

    /// A `len`-step episode of random observations, actions and
    /// rewards for `pi` (a `drone_default` learner if `drone`). About one step in four gets the reward that
    /// makes its discounted return exactly `0.0`, so at a zero
    /// baseline its advantage is zero and the update skips it: kept
    /// rows and episode steps then fall on different chunk boundaries.
    fn random_episode(pi: &Reinforce, drone: bool, len: usize, seed: u64) -> Vec<Transition> {
        let mut rng = StdRng::seed_from_u64(seed);
        let (dims, n_actions) = if drone { (vec![1, 9, 16], 25) } else { (vec![6], 4) };
        let vol: usize = dims.iter().product();
        let mut rewards = vec![0.0f32; len];
        let mut g = 0.0f32;
        for t in (0..len).rev() {
            // The same expression `learn_chunked` evaluates, so the
            // skipped return is `-(γg) + γg`, exactly zero.
            rewards[t] =
                if rng.gen_range(0..4) == 0 { -(pi.gamma * g) } else { rng.gen_range(-2.0..2.0) };
            g = rewards[t] + pi.gamma * g;
        }
        rewards
            .into_iter()
            .map(|reward| Transition {
                state: Tensor::from_vec(
                    dims.clone(),
                    (0..vol).map(|_| rng.gen_range(0.0f32..1.0)).collect(),
                )
                .unwrap(),
                action: rng.gen_range(0..n_actions),
                reward,
                next_state: None,
            })
            .collect()
    }

    fn weight_bits(pi: &Reinforce) -> Vec<u32> {
        pi.net.snapshot().iter().map(|w| w.to_bits()).collect()
    }

    /// Updates clones of `pi` on `steps` through the per-observation
    /// oracle and through the chunked update at 1-, 7- and 32-row
    /// chunks (all on one reused arena), asserts bit-equal weights,
    /// biases and baselines, and returns the oracle's learner.
    fn assert_chunked_matches_oracle(pi: &Reinforce, steps: &[Transition]) -> Reinforce {
        let buffered = |pi: &Reinforce| {
            let mut pi = pi.clone();
            for t in steps {
                pi.observe(t.clone()).unwrap();
            }
            pi
        };
        let mut oracle = buffered(pi);
        oracle.end_episode().unwrap();
        let mut ctx = BatchInferCtx::new();
        for rows in [1, 7, CHUNK_ROWS] {
            let mut chunked = buffered(pi);
            chunked.learn_chunked(&mut ctx, rows).unwrap();
            assert_eq!(
                weight_bits(&chunked),
                weight_bits(&oracle),
                "{rows}-row chunks of a {}-step episode",
                steps.len()
            );
            assert_eq!(chunked.baseline.to_bits(), oracle.baseline.to_bits());
            assert!(chunked.episode_buf.is_empty());
        }
        oracle
    }

    #[test]
    fn chunked_update_matches_oracle_at_every_boundary_length() {
        for drone in [false, true] {
            let pi = default_learner(drone, 4);
            for (k, &len) in BOUNDARY_LENGTHS.iter().enumerate() {
                assert_chunked_matches_oracle(&pi, &random_episode(&pi, drone, len, k as u64));
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn chunked_update_matches_per_observation_oracle(
            drone in proptest::prelude::any::<bool>(),
            first in 0usize..BOUNDARY_LENGTHS.len(),
            second in 0usize..BOUNDARY_LENGTHS.len(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let pi = default_learner(drone, seed);
            let steps = random_episode(&pi, drone, BOUNDARY_LENGTHS[first], seed ^ 1);
            let pi = assert_chunked_matches_oracle(&pi, &steps);
            // The first update moved the baseline off zero, so this
            // episode's forced-zero returns are ordinary kept steps.
            let steps = random_episode(&pi, drone, BOUNDARY_LENGTHS[second], seed ^ 2);
            assert_chunked_matches_oracle(&pi, &steps);
        }
    }

    /// What happens to a taped episode before its update.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Disturb {
        /// Nothing: every step acts on the tape, and the update reads it.
        Nothing,
        /// `network_mut()` halves every weight before step `at` (the
        /// oracle's too): the rows taped before it are stale.
        NetworkMut,
        /// Another learner acts on the same ctx before step `at`.
        SecondLearner,
        /// The steps from `at` on act on another ctx.
        OtherCtx,
        /// The update runs on another ctx than the acts.
        UpdateElsewhere,
        /// Step `at` is observed without an act.
        Unacted,
        /// Step `at` acts on another observation than the one observed.
        Misobserved,
    }

    const DISTURBANCES: [Disturb; 7] = [
        Disturb::Nothing,
        Disturb::NetworkMut,
        Disturb::SecondLearner,
        Disturb::OtherCtx,
        Disturb::UpdateElsewhere,
        Disturb::Unacted,
        Disturb::Misobserved,
    ];

    /// Whether `disturb` needs a step `at` to act on.
    fn needs_step(disturb: Disturb) -> bool {
        matches!(disturb, Disturb::Unacted | Disturb::Misobserved)
    }

    /// Bit-equal weights, except that a NaN matches any NaN.
    fn same_weights(a: &Reinforce, b: &Reinforce) -> bool {
        let (a, b) = (a.net.snapshot(), b.net.snapshot());
        a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    /// Trains clones of `pi` on `steps`: through the per-observation
    /// oracle, and through `act_train_ctx` + `observe` per step and the
    /// chunked update at 1-, 7- and 32-row chunks, disturbed by
    /// `disturb` at step `at`. Asserts weights equal modulo NaN payload
    /// and bit-equal baselines, that an undisturbed update read the
    /// tape, and returns the oracle's learner.
    fn assert_taped_matches_oracle(
        pi: &Reinforce,
        steps: &[Transition],
        disturb: Disturb,
        at: usize,
    ) -> Reinforce {
        let halve =
            |pi: &mut Reinforce| pi.network_mut().params_mut().iter_mut().for_each(|w| *w *= 0.5);
        let mut oracle = pi.clone();
        if disturb == Disturb::NetworkMut {
            halve(&mut oracle);
        }
        for t in steps {
            oracle.observe(t.clone()).unwrap();
        }
        oracle.end_episode().unwrap();
        let mut second = pi.clone();
        halve(&mut second);
        for rows in [1, 7, CHUNK_ROWS] {
            let (mut ctx, mut ctx2) = (BatchInferCtx::new(), BatchInferCtx::new());
            let mut rng = StdRng::seed_from_u64(rows as u64);
            let (mut taped, mut other) = (pi.clone(), second.clone());
            // Step `steps.len()` is the update: a disturbance there
            // comes after the last step.
            for i in 0..=steps.len() {
                let t = &steps[i.min(steps.len() - 1)];
                if i == at {
                    match disturb {
                        Disturb::NetworkMut => halve(&mut taped),
                        Disturb::SecondLearner => {
                            other.act_train_ctx(&t.state, &mut rng, &mut ctx).unwrap();
                        }
                        Disturb::Unacted | Disturb::Misobserved => {
                            if disturb == Disturb::Misobserved {
                                let elsewhere = t.state.map(|x| x * 0.5 - 0.25);
                                taped.act_train_ctx(&elsewhere, &mut rng, &mut ctx).unwrap();
                            }
                            taped.observe(t.clone()).unwrap();
                            continue;
                        }
                        _ => {}
                    }
                }
                if i == steps.len() {
                    break;
                }
                let on = if disturb == Disturb::OtherCtx && i >= at { &mut ctx2 } else { &mut ctx };
                taped.act_train_ctx(&t.state, &mut rng, on).unwrap();
                taped.observe(t.clone()).unwrap();
            }
            if disturb == Disturb::Nothing {
                assert!(
                    matches!(taped.tape, Tape::On(id) if ctx.tape_len(id) == Some(steps.len())),
                    "an undisturbed episode must update from its tape"
                );
            }
            let update_ctx = if disturb == Disturb::UpdateElsewhere { &mut ctx2 } else { &mut ctx };
            taped.learn_chunked(update_ctx, rows).unwrap();
            assert!(
                same_weights(&taped, &oracle),
                "{disturb:?} at step {at} of a {}-step episode, {rows}-row chunks",
                steps.len()
            );
            assert_eq!(taped.baseline.to_bits(), oracle.baseline.to_bits());
            assert_eq!(taped.tape, Tape::Fresh);
        }
        oracle
    }

    /// Sets `count` weights of `pi`, picked by `seed`, to +∞, −∞ or NaN.
    fn poison(pi: &mut Reinforce, count: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = pi.net.param_count();
        let picks: Vec<(usize, f32)> = (0..count)
            .map(|k| (rng.gen_range(0..n), [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][k % 3]))
            .collect();
        for (i, w) in pi.network_mut().params_mut().iter_mut().enumerate() {
            if let Some(&(_, v)) = picks.iter().find(|&&(j, _)| j == i) {
                *w = v;
            }
        }
    }

    #[test]
    fn tape_update_matches_oracle_at_every_boundary_length() {
        for drone in [false, true] {
            let pi = default_learner(drone, 5);
            for (k, &len) in BOUNDARY_LENGTHS.iter().enumerate() {
                let steps = random_episode(&pi, drone, len, k as u64);
                for disturb in DISTURBANCES {
                    for at in [0, len / 2, len - 1, len] {
                        if needs_step(disturb) && at == len {
                            continue;
                        }
                        assert_taped_matches_oracle(&pi, &steps, disturb, at);
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn tape_update_matches_per_observation_oracle(
            drone in proptest::prelude::any::<bool>(),
            first in 0usize..BOUNDARY_LENGTHS.len(),
            second in 0usize..BOUNDARY_LENGTHS.len(),
            disturb in 0usize..DISTURBANCES.len(),
            at in 0usize..=120,
            poisoned in 0usize..4,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut pi = default_learner(drone, seed);
            poison(&mut pi, poisoned, seed ^ 3);
            let steps = random_episode(&pi, drone, BOUNDARY_LENGTHS[first], seed ^ 1);
            let pi = assert_taped_matches_oracle(&pi, &steps, Disturb::Nothing, 0);
            // The second episode starts off a moved baseline and is
            // disturbed at a step inside it, or just past its end.
            let steps = random_episode(&pi, drone, BOUNDARY_LENGTHS[second], seed ^ 2);
            let at = at % (steps.len() + 1);
            let disturb = DISTURBANCES[disturb];
            let at = if needs_step(disturb) { at.min(steps.len() - 1) } else { at };
            assert_taped_matches_oracle(&pi, &steps, disturb, at);
        }
    }

    #[test]
    fn drone_default_runs_forward() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut pi = Reinforce::drone_default(&mut rng).unwrap();
        let a = pi.act(&Tensor::zeros(vec![1, 9, 16]), &mut rng).unwrap();
        assert!(a < 25);
    }
}
