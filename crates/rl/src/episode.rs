use crate::{Learner, RlError, Transition};
use frlfi_envs::{Environment, Outcome};
use frlfi_nn::{ActShape, BatchInferCtx};
use frlfi_tensor::TensorError;
use rand::RngCore;

/// The result of running one episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpisodeSummary {
    /// Sum of rewards over the episode.
    pub total_reward: f32,
    /// Number of environment steps taken.
    pub steps: usize,
    /// How the episode ended.
    pub outcome: Outcome,
}

/// Runs one *training* episode: the learner explores, observes every
/// transition and receives `end_episode` at the end.
///
/// This per-observation path is the test oracle: every production
/// trainer runs [`run_episode_batched`], which must reproduce its
/// summary and trained weights bit for bit.
///
/// # Errors
///
/// Propagates learner errors (e.g. an observation whose shape does not
/// fit the policy network) so a malformed scenario quarantines instead
/// of panicking inside a worker.
pub fn run_episode(
    env: &mut dyn Environment,
    learner: &mut dyn Learner,
    rng: &mut dyn RngCore,
) -> Result<EpisodeSummary, RlError> {
    let mut state = env.reset(rng);
    let mut total_reward = 0.0;
    let mut steps = 0;
    let outcome = loop {
        let action = learner.act(&state, rng)?;
        let step = env.step(action, rng);
        total_reward += step.reward;
        steps += 1;
        let next_state = if step.outcome.is_terminal() { None } else { Some(step.state.clone()) };
        learner.observe(Transition { state, action, reward: step.reward, next_state })?;
        state = step.state;
        if step.outcome.is_terminal() {
            break step.outcome;
        }
    };
    learner.end_episode()?;
    Ok(EpisodeSummary { total_reward, steps, outcome })
}

/// [`run_episode`] on the batched-training fast path: action selection,
/// online updates and the episode-end update all route through `ctx`'s
/// scratch arenas ([`Learner::act_train_ctx`], [`Learner::observe_ctx`],
/// [`Learner::end_episode_ctx`]). The learner contract makes every hook
/// bit-identical to its sequential counterpart — same actions, same RNG
/// consumption, bit-identical trained weights — so this runner produces
/// exactly [`run_episode`]'s summary and weights, faster.
///
/// # Errors
///
/// As for [`run_episode`].
pub fn run_episode_batched(
    env: &mut dyn Environment,
    learner: &mut dyn Learner,
    rng: &mut dyn RngCore,
    ctx: &mut BatchInferCtx,
) -> Result<EpisodeSummary, RlError> {
    let mut state = env.reset(rng);
    let mut total_reward = 0.0;
    let mut steps = 0;
    let outcome = loop {
        let action = learner.act_train_ctx(&state, rng, ctx)?;
        let step = env.step(action, rng);
        total_reward += step.reward;
        steps += 1;
        let next_state = if step.outcome.is_terminal() { None } else { Some(step.state.clone()) };
        learner.observe_ctx(Transition { state, action, reward: step.reward, next_state }, ctx)?;
        state = step.state;
        if step.outcome.is_terminal() {
            break step.outcome;
        }
    };
    learner.end_episode_ctx(ctx)?;
    Ok(EpisodeSummary { total_reward, steps, outcome })
}

/// Runs one *inference* episode: pure greedy exploitation, no learning
/// (§III-B's second phase). Allocates one scratch [`BatchInferCtx`] for the
/// whole episode; callers evaluating many episodes should pass their
/// own through [`run_greedy_episode_ctx`] instead.
///
/// # Errors
///
/// Propagates learner errors.
pub fn run_greedy_episode(
    env: &mut dyn Environment,
    learner: &mut dyn Learner,
    rng: &mut dyn RngCore,
) -> Result<EpisodeSummary, RlError> {
    run_greedy_episode_ctx(env, learner, rng, &mut BatchInferCtx::new())
}

/// [`run_greedy_episode`] on the zero-allocation inference fast path:
/// every greedy action of the episode reuses `ctx`'s scratch buffers,
/// so a warm context makes the policy evaluation allocation-free.
///
/// # Errors
///
/// Propagates learner errors.
pub fn run_greedy_episode_ctx(
    env: &mut dyn Environment,
    learner: &mut dyn Learner,
    rng: &mut dyn RngCore,
    ctx: &mut BatchInferCtx,
) -> Result<EpisodeSummary, RlError> {
    let mut state = env.reset(rng);
    let mut total_reward = 0.0;
    let mut steps = 0;
    let outcome = loop {
        let action = learner.act_greedy_ctx(&state, ctx)?;
        let step = env.step(action, rng);
        total_reward += step.reward;
        steps += 1;
        state = step.state;
        if step.outcome.is_terminal() {
            break step.outcome;
        }
    };
    Ok(EpisodeSummary { total_reward, steps, outcome })
}

/// Byte budget for the observation keys one [`run_greedy_episodes_batch`]
/// call memoizes. All 729 GridWorld observations (6 × f32 = 24 B each,
/// 17.5 KB) always fit; a DroneNav depth row (1×9×16 f32 = 576 B)
/// fits 56 times. Once the budget is full, later misses are still
/// computed but no longer inserted, so the memo never grows past it.
pub const GREEDY_MEMO_KEY_BYTES: usize = 32 * 1024;
const _: () = assert!(GREEDY_MEMO_KEY_BYTES >= 729 * 6 * 4, "every GridWorld observation fits");

/// A per-call memo from an observation row's exact bits to the greedy
/// action [`Learner::act_greedy_batch`] chose for it. Keys live in one
/// flat `u32` arena (entry `e` at `keys[e * vol..(e + 1) * vol]`); an
/// open-addressed table of `entry + 1` (0 = empty) indexes them by
/// hash, and a hit compares the full row bits.
#[derive(Default)]
struct GreedyMemo {
    vol: usize,
    keys: Vec<u32>,
    actions: Vec<usize>,
    slots: Vec<u32>,
    /// Entries the key budget admits.
    cap: usize,
}

thread_local! {
    /// Each thread's memo, emptied and reused by every
    /// [`run_greedy_episodes_batch`] call on it, so that evaluation
    /// allocates the table once per thread rather than once per call.
    static MEMO: std::cell::Cell<GreedyMemo> = std::cell::Cell::default();
}

impl GreedyMemo {
    /// Empties the memo for rows of `vol` elements, keeping its
    /// buffers.
    fn reset(&mut self, vol: usize) {
        let cap = GREEDY_MEMO_KEY_BYTES / (vol.max(1) * 4);
        // At most half full, so linear probes stay short; a table of
        // at least two slots keeps the hash shift below 64.
        let slots = if cap == 0 { 0 } else { (2 * cap).next_power_of_two() };
        self.slots.clear();
        self.slots.resize(slots, 0);
        self.keys.clear();
        self.keys.reserve(cap * vol);
        self.actions.clear();
        self.actions.reserve(cap);
        (self.vol, self.cap) = (vol, cap);
    }

    /// The table slot holding `row`'s entry (`Ok`), or the empty slot
    /// where it would go (`Err`). Needs a non-empty table.
    fn probe(&self, row: &[f32]) -> Result<usize, usize> {
        let h = row.iter().fold(0u64, |h, x| {
            (h.rotate_left(5) ^ u64::from(x.to_bits())).wrapping_mul(0x517c_c1b7_2722_0a95)
        });
        let mask = self.slots.len() - 1;
        let mut slot = (h >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            let e = match self.slots[slot] {
                0 => return Err(slot),
                e => e as usize - 1,
            };
            let key = &self.keys[e * self.vol..(e + 1) * self.vol];
            if key.iter().zip(row).all(|(k, x)| *k == x.to_bits()) {
                return Ok(slot);
            }
            slot = (slot + 1) & mask;
        }
    }

    fn get(&self, row: &[f32]) -> Option<usize> {
        if self.actions.is_empty() {
            return None;
        }
        let slot = self.probe(row).ok()?;
        Some(self.actions[self.slots[slot] as usize - 1])
    }

    /// Remembers `action` for `row` unless the key budget is full.
    fn insert(&mut self, row: &[f32], action: usize) {
        if self.actions.len() == self.cap {
            return;
        }
        if let Err(slot) = self.probe(row) {
            self.actions.push(action);
            self.slots[slot] = self.actions.len() as u32;
            self.keys.extend(row.iter().map(|x| x.to_bits()));
        }
    }
}

/// Lock-step batched greedy evaluation: runs every environment in
/// `envs` through one shared policy simultaneously and retires
/// finished episodes from the batch as they terminate.
///
/// Each step makes **one batched forward over that step's memo
/// misses** ([`Learner::act_greedy_batch`]), and none when every row
/// hits. The memo maps an observation row's exact bits to the action
/// chosen for it earlier in this call; it holds at most
/// [`GREEDY_MEMO_KEY_BYTES`] of keys and is dropped when the call
/// returns. The weights are fixed for the whole call and a row's
/// greedy action is a pure function of its bits and the weights (the
/// [`Learner::act_greedy_batch`] contract), so a memoized action is
/// the one a forward would pick. Every environment still steps every
/// time; only forwards are skipped.
///
/// Environment `i` uses `rngs[i]` for its entire episode, so each
/// episode consumes exactly the streams it would consume under
/// [`run_greedy_episode_ctx`] — and since every action is
/// bit-identical to single-observation greedy selection, the returned
/// summaries (in environment order) match running the episodes one at
/// a time exactly.
///
/// All environments must share one observation shape (they are fed to
/// the same policy).
///
/// # Errors
///
/// Propagates learner errors and rejects unsupported observation
/// shapes and observations whose volume differs from the declared
/// `obs_shape` ([`RlError::Nn`]); returns [`RlError::EpisodeNotTerminated`] if an environment
/// violates its termination contract.
///
/// # Panics
///
/// Panics if `rngs.len() != envs.len()` or the observation shapes
/// diverge.
pub fn run_greedy_episodes_batch<E: Environment, R: RngCore>(
    learner: &mut dyn Learner,
    envs: &mut [E],
    rngs: &mut [R],
    ctx: &mut BatchInferCtx,
) -> Result<Vec<EpisodeSummary>, RlError> {
    let n = envs.len();
    assert_eq!(rngs.len(), n, "one RNG per environment");
    if n == 0 {
        return Ok(Vec::new());
    }
    let dims = envs[0].obs_shape();
    let shape = ActShape::from_dims(&dims)?;
    let vol = shape.volume();

    // Active environment indices and their current observations, kept
    // compacted: slot `s` of `states` is the observation of environment
    // `active[s]`.
    let mut active: Vec<usize> = (0..n).collect();
    let mut states: Vec<f32> = vec![0.0; n * vol];
    for (s, (env, rng)) in envs.iter_mut().zip(rngs.iter_mut()).enumerate() {
        assert_eq!(env.obs_shape(), dims, "batched environments must share an obs shape");
        let obs = env.reset(rng);
        fill_row(&mut states[s * vol..(s + 1) * vol], obs.data())?;
    }

    let mut memo = MEMO.take();
    memo.reset(vol);
    // This step's memo misses: their slots, and their rows compacted
    // into one batch.
    let mut miss_slots: Vec<usize> = Vec::with_capacity(n);
    let mut miss_states: Vec<f32> = Vec::with_capacity(n * vol);
    let mut miss_actions = vec![0usize; n];
    let (mut hits, mut misses) = (0u64, 0u64);

    let mut totals = vec![0.0f32; n];
    let mut step_counts = vec![0usize; n];
    let mut actions = vec![0usize; n];
    let mut summaries: Vec<Option<EpisodeSummary>> = vec![None; n];
    while !active.is_empty() {
        let b = active.len();
        miss_slots.clear();
        miss_states.clear();
        for s in 0..b {
            let row = &states[s * vol..(s + 1) * vol];
            match memo.get(row) {
                Some(action) => actions[s] = action,
                None => {
                    miss_slots.push(s);
                    miss_states.extend_from_slice(row);
                }
            }
        }
        let m = miss_slots.len();
        if m > 0 {
            learner.act_greedy_batch(&miss_states, &shape, m, ctx, &mut miss_actions[..m])?;
            for (k, &s) in miss_slots.iter().enumerate() {
                actions[s] = miss_actions[k];
                memo.insert(&miss_states[k * vol..(k + 1) * vol], miss_actions[k]);
            }
        }
        hits += (b - m) as u64;
        misses += m as u64;
        // Step every active environment; survivors compact in place so
        // the next step sees only live episodes.
        let mut live = 0;
        for s in 0..b {
            let i = active[s];
            let step = envs[i].step(actions[s], &mut rngs[i]);
            totals[i] += step.reward;
            step_counts[i] += 1;
            if step.outcome.is_terminal() {
                summaries[i] = Some(EpisodeSummary {
                    total_reward: totals[i],
                    steps: step_counts[i],
                    outcome: step.outcome,
                });
            } else {
                active[live] = i;
                fill_row(&mut states[live * vol..(live + 1) * vol], step.state.data())?;
                live += 1;
            }
        }
        active.truncate(live);
    }
    MEMO.set(memo);
    if frlfi_obs::enabled() {
        frlfi_obs::count("rl.greedy_memo.hit", hits);
        frlfi_obs::count("rl.greedy_memo.miss", misses);
    }
    summaries.into_iter().map(|s| s.ok_or(RlError::EpisodeNotTerminated)).collect()
}

/// Copies one observation into its batch row, rejecting one whose
/// volume is not the declared `obs_shape` volume the way a
/// sequential runner's forward does.
fn fill_row(row: &mut [f32], obs: &[f32]) -> Result<(), RlError> {
    if obs.len() != row.len() {
        return Err(TensorError::LengthMismatch { expected: row.len(), actual: obs.len() }.into());
    }
    row.copy_from_slice(obs);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QLearner;
    use frlfi_envs::GridWorld;
    use frlfi_envs::Outcome;
    use frlfi_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn episode_terminates() {
        let mut env = GridWorld::standard_layouts(1)[0].clone();
        let mut rng = StdRng::seed_from_u64(0);
        let mut learner = QLearner::gridworld_default(&mut rng).unwrap();
        let s = run_episode(&mut env, &mut learner, &mut rng).unwrap();
        assert!(s.steps > 0);
        assert!(s.outcome.is_terminal());
    }

    #[test]
    fn greedy_episode_does_not_train() {
        let mut env = GridWorld::standard_layouts(1)[0].clone();
        let mut rng = StdRng::seed_from_u64(0);
        let mut learner = QLearner::gridworld_default(&mut rng).unwrap();
        let before = learner.network().snapshot();
        run_greedy_episode(&mut env, &mut learner, &mut rng).unwrap();
        assert_eq!(learner.network().snapshot(), before);
    }

    #[test]
    fn batched_episodes_match_sequential_greedy_runs() {
        // Train one policy, then evaluate the same four environments
        // sequentially and in lock-step: summaries must be identical
        // (actions are bit-identical, env RNG streams are per-episode).
        let mut rng = StdRng::seed_from_u64(9);
        let mut learner = QLearner::gridworld_default(&mut rng).unwrap();
        let layouts = GridWorld::standard_layouts(4);
        for env in layouts.iter().take(4) {
            let mut env = env.clone();
            for _ in 0..120 {
                run_episode(&mut env, &mut learner, &mut rng).unwrap();
            }
        }
        let mut seq_envs: Vec<GridWorld> = layouts.iter().take(4).cloned().collect();
        let sequential: Vec<EpisodeSummary> = seq_envs
            .iter_mut()
            .enumerate()
            .map(|(i, env)| {
                let mut eval_rng = StdRng::seed_from_u64(1000 + i as u64);
                run_greedy_episode_ctx(env, &mut learner, &mut eval_rng, &mut BatchInferCtx::new())
                    .unwrap()
            })
            .collect();
        let mut batch_envs: Vec<GridWorld> = layouts.iter().take(4).cloned().collect();
        let mut eval_rngs: Vec<StdRng> =
            (0..4).map(|i| StdRng::seed_from_u64(1000 + i as u64)).collect();
        let batched = run_greedy_episodes_batch(
            &mut learner,
            &mut batch_envs,
            &mut eval_rngs,
            &mut BatchInferCtx::new(),
        )
        .unwrap();
        assert_eq!(batched, sequential);
    }

    #[test]
    fn batched_runner_handles_empty_and_single() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut learner = QLearner::gridworld_default(&mut rng).unwrap();
        let none: Vec<EpisodeSummary> = run_greedy_episodes_batch(
            &mut learner,
            &mut Vec::<GridWorld>::new(),
            &mut Vec::<StdRng>::new(),
            &mut BatchInferCtx::new(),
        )
        .unwrap();
        assert!(none.is_empty());
        let mut envs = vec![GridWorld::standard_layouts(1)[0].clone()];
        let mut rngs = vec![StdRng::seed_from_u64(7)];
        let one = run_greedy_episodes_batch(
            &mut learner,
            &mut envs,
            &mut rngs,
            &mut BatchInferCtx::new(),
        )
        .unwrap();
        assert_eq!(one.len(), 1);
        assert!(one[0].outcome.is_terminal());
    }

    /// A [`QLearner`] that counts the rows its batched greedy path is
    /// asked to forward.
    struct CountingLearner {
        inner: QLearner,
        rows: usize,
    }

    impl Learner for CountingLearner {
        fn act(&mut self, state: &Tensor, rng: &mut dyn RngCore) -> Result<usize, RlError> {
            self.inner.act(state, rng)
        }
        fn act_greedy(&mut self, state: &Tensor) -> Result<usize, RlError> {
            self.inner.act_greedy(state)
        }
        fn act_greedy_batch(
            &mut self,
            states: &[f32],
            in_shape: &ActShape,
            batch: usize,
            ctx: &mut BatchInferCtx,
            actions: &mut [usize],
        ) -> Result<(), RlError> {
            self.rows += batch;
            self.inner.act_greedy_batch(states, in_shape, batch, ctx, actions)
        }
        fn observe(&mut self, transition: Transition) -> Result<(), RlError> {
            self.inner.observe(transition)
        }
        fn end_episode(&mut self) -> Result<(), RlError> {
            self.inner.end_episode()
        }
        fn set_episode(&mut self, episode: usize) {
            self.inner.set_episode(episode);
        }
        fn network(&self) -> &frlfi_nn::Network {
            self.inner.network()
        }
        fn network_mut(&mut self) -> &mut frlfi_nn::Network {
            self.inner.network_mut()
        }
    }

    #[test]
    fn memo_skips_forwards_of_a_looping_episode() {
        // The first untrained policy (by seed) whose greedy episode on
        // the first standard layout loops until the 120-step timeout.
        let env = GridWorld::standard_layouts(1)[0].clone();
        let looping = (0..200u64).find_map(|seed| {
            let mut learner = QLearner::gridworld_default(&mut StdRng::seed_from_u64(seed)).ok()?;
            let summary = run_greedy_episode_ctx(
                &mut env.clone(),
                &mut learner,
                &mut StdRng::seed_from_u64(seed),
                &mut BatchInferCtx::new(),
            )
            .ok()?;
            (summary.outcome == Outcome::Timeout).then_some((seed, learner, summary))
        });
        let (seed, inner, oracle) = looping.expect("some untrained policy loops to the timeout");
        assert_eq!(oracle.steps, 120);
        let mut counting = CountingLearner { inner, rows: 0 };
        let batched = run_greedy_episodes_batch(
            &mut counting,
            &mut [env],
            &mut [StdRng::seed_from_u64(seed)],
            &mut BatchInferCtx::new(),
        )
        .unwrap();
        assert_eq!(batched, vec![oracle]);
        assert!(
            counting.rows < oracle.steps,
            "{} rows forwarded over {} steps",
            counting.rows,
            oracle.steps
        );
    }

    #[test]
    fn memo_stops_inserting_at_its_key_budget() {
        // A DroneNav-sized row: the budget admits 56 of them.
        let vol = 144;
        let cap = GREEDY_MEMO_KEY_BYTES / (vol * 4);
        assert_eq!(cap, 56);
        let row = |k: usize| vec![k as f32; vol];
        let mut memo = GreedyMemo::default();
        memo.reset(vol);
        for k in 0..cap + 10 {
            memo.insert(&row(k), k % 25);
        }
        assert_eq!(memo.actions.len(), cap);
        assert_eq!(memo.keys.len(), cap * vol);
        assert!((0..cap).all(|k| memo.get(&row(k)) == Some(k % 25)));
        assert!((cap..cap + 10).all(|k| memo.get(&row(k)).is_none()));
    }

    #[test]
    fn memo_keys_on_exact_bits() {
        let mut memo = GreedyMemo::default();
        memo.reset(2);
        memo.insert(&[0.0, f32::NAN], 1);
        memo.insert(&[-0.0, f32::NAN], 2);
        assert_eq!(memo.get(&[0.0, f32::NAN]), Some(1));
        assert_eq!(memo.get(&[-0.0, f32::NAN]), Some(2));
        assert_eq!(memo.get(&[0.0, -f32::NAN]), None);
        assert_eq!(memo.get(&[f32::from_bits(1), f32::NAN]), None);
    }

    #[test]
    fn reset_memo_forgets_every_entry() {
        // The thread's memo is reused across calls: a reset, to the
        // same row length or another, leaves nothing a lookup finds.
        let mut memo = GreedyMemo::default();
        memo.reset(2);
        memo.insert(&[1.0, 2.0], 3);
        for vol in [2, 3, 2] {
            memo.reset(vol);
            assert_eq!(memo.get(&[1.0, 2.0, 0.0][..vol]), None, "row length {vol}");
            memo.insert(&vec![0.5; vol], 1);
            assert_eq!(memo.get(&vec![0.5; vol]), Some(1));
        }
    }

    #[test]
    fn q_learning_improves_on_simple_maze() {
        // Train on one open maze; the greedy policy should reach the goal.
        let mut env = GridWorld::from_spec(&frlfi_envs::standard_layout_specs(11, 1)[0]);
        let mut rng = StdRng::seed_from_u64(1);
        let mut learner = QLearner::gridworld_default(&mut rng).unwrap();
        for _ in 0..600 {
            run_episode(&mut env, &mut learner, &mut rng).unwrap();
        }
        let successes = (0..20)
            .filter(|_| {
                run_greedy_episode(&mut env, &mut learner, &mut rng).unwrap().outcome
                    == Outcome::Goal
            })
            .count();
        assert!(successes >= 15, "only {successes}/20 greedy episodes reached the goal");
    }
}
