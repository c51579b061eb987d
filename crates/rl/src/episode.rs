use crate::{Learner, RlError, Transition};
use frlfi_envs::{Environment, Outcome};
use frlfi_nn::{ActShape, BatchInferCtx};
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

impl EpisodeSummary {
    /// True if the episode ended at the goal (GridWorld success metric).
    pub fn succeeded(&self) -> bool {
        self.outcome == Outcome::Goal
    }
}

/// Runs one *training* episode: the learner explores, observes every
/// transition and receives `end_episode` at the end.
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

/// Lock-step batched greedy evaluation: runs every environment in
/// `envs` through one shared policy simultaneously, selecting all
/// active environments' actions with **one batched forward per step**
/// ([`Learner::act_greedy_batch`]) and retiring finished episodes from
/// the batch as they terminate.
///
/// Environment `i` uses `rngs[i]` for its entire episode, so each
/// episode consumes exactly the streams it would consume under
/// [`run_greedy_episode_ctx`] — and since every batched action is
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
/// shapes; returns [`RlError::EpisodeNotTerminated`] if an environment
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
        states[s * vol..(s + 1) * vol].copy_from_slice(obs.data());
    }

    let mut totals = vec![0.0f32; n];
    let mut step_counts = vec![0usize; n];
    let mut actions = vec![0usize; n];
    let mut summaries: Vec<Option<EpisodeSummary>> = vec![None; n];
    while !active.is_empty() {
        let b = active.len();
        learner.act_greedy_batch(&states[..b * vol], &shape, b, ctx, &mut actions[..b])?;
        // Step every active environment; survivors compact in place so
        // the next batched forward sees only live episodes.
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
                states[live * vol..(live + 1) * vol].copy_from_slice(step.state.data());
                live += 1;
            }
        }
        active.truncate(live);
    }
    summaries.into_iter().map(|s| s.ok_or(RlError::EpisodeNotTerminated)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QLearner;
    use frlfi_envs::GridWorld;
    use frlfi_envs::Outcome;
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
