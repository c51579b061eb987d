//! Property-based tests for the RL substrate.

use frlfi_envs::{DroneConfig, DroneSim, Environment, GridWorld, Outcome, Step};
use frlfi_nn::{BatchInferCtx, Network, NetworkBuilder};
use frlfi_rl::{
    run_episode, run_greedy_episode, run_greedy_episode_ctx, run_greedy_episodes_batch,
    sample_categorical, softmax, EpisodeSummary, EpsilonSchedule, Learner, QLearner, Reinforce,
    Transition, GREEDY_MEMO_KEY_BYTES,
};
use frlfi_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// An episode summary as exact bits: `total_reward`, `steps`, `outcome`.
type SummaryBits = (u32, usize, Outcome);

fn bits(s: &EpisodeSummary) -> SummaryBits {
    (s.total_reward.to_bits(), s.steps, s.outcome)
}

/// Evaluates `envs` on the memoized lock-step runner and, one at a
/// time, on the unmemoized oracle (`run_greedy_episode_ctx`), with
/// environment `i` drawing from `seed + i` either way, and returns
/// both summary lists as bits.
fn memoized_and_oracle<E: Environment + Clone>(
    learner: &mut dyn Learner,
    envs: &[E],
    seed: u64,
) -> (Vec<SummaryBits>, Vec<SummaryBits>) {
    let rng = |i: usize| StdRng::seed_from_u64(seed.wrapping_add(i as u64));
    let mut ctx = BatchInferCtx::new();
    let oracle = envs
        .iter()
        .enumerate()
        .map(|(i, env)| {
            let s = run_greedy_episode_ctx(&mut env.clone(), learner, &mut rng(i), &mut ctx);
            bits(&s.expect("oracle episode runs"))
        })
        .collect();
    let mut batch_envs = envs.to_vec();
    let mut rngs: Vec<StdRng> = (0..envs.len()).map(rng).collect();
    let memoized = run_greedy_episodes_batch(learner, &mut batch_envs, &mut rngs, &mut ctx)
        .expect("lock-step episodes run");
    (memoized.iter().map(bits).collect(), oracle)
}

/// Overwrites up to three random parameters with NaN, ±inf, a ±subnormal
/// or ±0.
fn plant_special_weights(net: &mut Network, rng: &mut StdRng) {
    const SPECIAL: [f32; 7] =
        [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e-40, -1e-40, 0.0, -0.0];
    let mut w = net.snapshot();
    for _ in 0..rng.gen_range(0..4usize) {
        let i = rng.gen_range(0..w.len());
        w[i] = SPECIAL[rng.gen_range(0..SPECIAL.len())];
    }
    net.restore(&w).expect("same parameter count");
}

/// An environment whose six-float observations differ only below 1e-3:
/// it walks a ring of `ROWS` fixed rows built from tiny, subnormal and
/// signed-zero values, so rows repeat (the memo hits) while a memo
/// keyed on anything coarser than exact bits would merge distinct
/// rows. The reward reveals the chosen action.
#[derive(Clone)]
struct FineGrained {
    rows: Vec<[f32; 6]>,
    at: usize,
    steps: usize,
}

impl FineGrained {
    const ROWS: usize = 8;

    fn new(rng: &mut StdRng) -> Self {
        const GRAIN: [f32; 6] = [0.0, -0.0, 1e-4, -1e-4, 3e-4, 1e-40];
        let rows = (0..Self::ROWS)
            .map(|_| std::array::from_fn(|_| GRAIN[rng.gen_range(0..GRAIN.len())]))
            .collect();
        FineGrained { rows, at: 0, steps: 0 }
    }

    fn obs(&self) -> Tensor {
        Tensor::from_vec(vec![6], self.rows[self.at].to_vec()).expect("six floats")
    }
}

impl Environment for FineGrained {
    fn obs_shape(&self) -> Vec<usize> {
        vec![6]
    }

    fn n_actions(&self) -> usize {
        4
    }

    fn reset(&mut self, rng: &mut dyn RngCore) -> Tensor {
        self.at = rng.next_u32() as usize % Self::ROWS;
        self.steps = 0;
        self.obs()
    }

    fn step(&mut self, action: usize, _rng: &mut dyn RngCore) -> Step {
        self.at = (self.at + action + 1) % Self::ROWS;
        self.steps += 1;
        let outcome = if self.steps == 40 { Outcome::Timeout } else { Outcome::Continue };
        Step { state: self.obs(), reward: 0.25 * action as f32 + 0.1, outcome }
    }
}

proptest! {
    #[test]
    fn softmax_is_a_distribution(logits in proptest::collection::vec(-50.0f32..50.0, 1..32)) {
        let n = logits.len();
        let p = softmax(&Tensor::from_vec(vec![n], logits).expect("logits"));
        prop_assert!((p.sum() - 1.0).abs() < 1e-4);
        prop_assert!(p.data().iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn softmax_is_shift_invariant(logits in proptest::collection::vec(-10.0f32..10.0, 2..8), shift in -20.0f32..20.0) {
        let n = logits.len();
        let a = softmax(&Tensor::from_vec(vec![n], logits.clone()).expect("logits"));
        let shifted: Vec<f32> = logits.iter().map(|&x| x + shift).collect();
        let b = softmax(&Tensor::from_vec(vec![n], shifted).expect("logits"));
        for (x, y) in a.data().iter().zip(b.data().iter()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn sample_always_in_range(seed in any::<u64>(), probs in proptest::collection::vec(0.0f32..1.0, 1..16)) {
        let n = probs.len();
        let t = Tensor::from_vec(vec![n], probs).expect("probs");
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..32 {
            prop_assert!(sample_categorical(&t, &mut rng) < n);
        }
    }

    #[test]
    fn epsilon_monotone_nonincreasing(start in 0.5f32..1.0, end in 0.0f32..0.2, horizon in 1usize..500) {
        let s = EpsilonSchedule::new(start, end, horizon);
        let mut prev = f32::INFINITY;
        for ep in (0..horizon + 50).step_by(7) {
            let e = s.epsilon(ep);
            prop_assert!(e <= prev + 1e-6);
            prop_assert!((end - 1e-6..=start + 1e-6).contains(&e));
            prev = e;
        }
    }

    #[test]
    fn training_episode_is_reproducible(env_seed in any::<u64>(), learner_seed in any::<u64>()) {
        let run = || {
            let mut env = GridWorld::from_spec(&frlfi_envs::standard_layout_specs(env_seed, 1)[0]);
            let mut rng = StdRng::seed_from_u64(learner_seed);
            let mut learner = QLearner::gridworld_default(&mut rng).expect("learner");
            let s = run_episode(&mut env, &mut learner, &mut rng).expect("episode runs");
            (s.steps, s.total_reward.to_bits(), learner.network().snapshot())
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn greedy_episode_never_mutates_policy(env_seed in any::<u64>()) {
        let mut env = GridWorld::from_spec(&frlfi_envs::standard_layout_specs(env_seed, 1)[0]);
        let mut rng = StdRng::seed_from_u64(env_seed);
        let mut learner = Reinforce::gridworld_default(&mut rng).expect("learner");
        let before = learner.network().snapshot();
        run_greedy_episode(&mut env, &mut learner, &mut rng).expect("episode runs");
        prop_assert_eq!(learner.network().snapshot(), before);
    }

    #[test]
    fn reinforce_update_is_finite(seed in any::<u64>(), rewards in proptest::collection::vec(-2.0f32..2.0, 1..16)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pi = Reinforce::gridworld_default(&mut rng).expect("learner");
        let s = Tensor::from_vec(vec![6], vec![0.0, 1.0, -1.0, 0.0, 1.0, -1.0]).expect("state");
        for (i, &r) in rewards.iter().enumerate() {
            pi.observe(Transition {
                state: s.clone(),
                action: i % 4,
                reward: r,
                next_state: (i + 1 < rewards.len()).then(|| s.clone()),
            }).expect("observe");
        }
        pi.end_episode().expect("end episode");
        prop_assert!(pi.network().snapshot().iter().all(|w| w.is_finite()));
    }

    #[test]
    fn qlearner_update_is_finite(seed in any::<u64>(), reward in -5.0f32..5.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut q = QLearner::gridworld_default(&mut rng).expect("learner");
        let s = Tensor::from_vec(vec![6], vec![0.0; 6]).expect("state");
        q.observe(Transition { state: s.clone(), action: 0, reward, next_state: Some(s) }).expect("observe");
        prop_assert!(q.network().snapshot().iter().all(|w| w.is_finite()));
    }

    #[test]
    fn greedy_fast_path_selects_identical_actions(
        seed in any::<u64>(),
        obs in proptest::collection::vec(-2.0f32..2.0, 6),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ctx = frlfi_nn::BatchInferCtx::new();
        let mut q = QLearner::gridworld_default(&mut rng).expect("learner");
        let s = Tensor::from_vec(vec![6], obs.clone()).expect("state");
        prop_assert_eq!(q.act_greedy(&s).expect("act"), q.act_greedy_ctx(&s, &mut ctx).expect("act"));
        let mut pi = Reinforce::gridworld_default(&mut rng).expect("learner");
        prop_assert_eq!(pi.act_greedy(&s).expect("act"), pi.act_greedy_ctx(&s, &mut ctx).expect("act"));
    }

    #[test]
    fn greedy_episode_matches_reference_action_loop(seed in any::<u64>()) {
        use frlfi_envs::Environment;
        // Reference: hand-rolled greedy loop on the slow tensor path.
        let mut env = GridWorld::standard_layouts(1)[0].clone();
        let mut rng = StdRng::seed_from_u64(9);
        let mut learner = QLearner::gridworld_default(&mut rng).expect("learner");
        let mut ep_rng = StdRng::seed_from_u64(seed);
        let mut state = env.reset(&mut ep_rng);
        let mut slow_actions = Vec::new();
        loop {
            let a = learner.act_greedy(&state).expect("act");
            slow_actions.push(a);
            let step = env.step(a, &mut ep_rng);
            state = step.state;
            if step.outcome.is_terminal() {
                break;
            }
        }
        // Fast path: the same loop on the inference scratch arena must
        // choose the identical action sequence.
        let mut env = GridWorld::standard_layouts(1)[0].clone();
        let mut rng = StdRng::seed_from_u64(9);
        let mut learner = QLearner::gridworld_default(&mut rng).expect("learner");
        let mut ep_rng = StdRng::seed_from_u64(seed);
        let mut ctx = frlfi_nn::BatchInferCtx::new();
        let mut state = env.reset(&mut ep_rng);
        let mut fast_actions = Vec::new();
        loop {
            let a = learner.act_greedy_ctx(&state, &mut ctx).expect("act");
            fast_actions.push(a);
            let step = env.step(a, &mut ep_rng);
            state = step.state;
            if step.outcome.is_terminal() {
                break;
            }
        }
        prop_assert_eq!(slow_actions, fast_actions);
    }

    #[test]
    fn memoized_greedy_episodes_match_the_oracle_on_grid_layouts(
        seed in any::<u64>(),
        n_envs in 1usize..7,
        train_episodes in 0usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let specs = frlfi_envs::standard_layout_specs(rng.next_u64(), n_envs);
        let envs: Vec<GridWorld> = specs.iter().map(GridWorld::from_spec).collect();
        let mut learner = QLearner::gridworld_default(&mut rng).expect("learner");
        for _ in 0..train_episodes {
            let mut env = envs[0].clone();
            run_episode(&mut env, &mut learner, &mut rng).expect("training episode runs");
        }
        plant_special_weights(learner.network_mut(), &mut rng);
        let (memoized, oracle) = memoized_and_oracle(&mut learner, &envs, rng.next_u64());
        prop_assert_eq!(memoized, oracle);
    }

    #[test]
    fn memoized_greedy_episodes_match_the_oracle_on_sub_millesimal_rows(
        seed in any::<u64>(),
        n_envs in 1usize..7,
    ) {
        // A single dense layer with large weights and no bias, so rows
        // that differ only below 1e-3 get different actions.
        let mut rng = StdRng::seed_from_u64(seed);
        let net = NetworkBuilder::new(6).dense(4).build(&mut rng).expect("network");
        let mut learner = QLearner::new(net, 0.9, 0.01, EpsilonSchedule::new(0.0, 0.0, 1));
        let w: Vec<f32> = learner
            .network()
            .snapshot()
            .iter()
            .enumerate()
            .map(|(i, w)| if i < 24 { w * 1e6 } else { 0.0 })
            .collect();
        learner.network_mut().restore(&w).expect("same parameter count");
        plant_special_weights(learner.network_mut(), &mut rng);
        let envs: Vec<FineGrained> = (0..n_envs).map(|_| FineGrained::new(&mut rng)).collect();
        let (memoized, oracle) = memoized_and_oracle(&mut learner, &envs, rng.next_u64());
        prop_assert_eq!(memoized, oracle);
    }
}

#[test]
fn memoized_drone_corridors_match_the_oracle_past_the_key_budget() {
    // In wider corridors an untrained policy flies about 25 steps
    // past changing obstacles, so six corridors show more distinct
    // depth rows than the key budget holds: the memo fills and stops
    // inserting.
    let mut rng = StdRng::seed_from_u64(3);
    let mut learner = Reinforce::drone_default(&mut rng).expect("learner");
    let cfg =
        DroneConfig { corridor_width: 100.0, corridor_height: 40.0, ..DroneConfig::default() };
    let envs: Vec<DroneSim> = (0..6).map(|k| DroneSim::new(cfg, 40 + k)).collect();
    let (memoized, oracle) = memoized_and_oracle(&mut learner, &envs, 11);
    assert_eq!(memoized, oracle);
    // Replay the oracle's flights to count their distinct depth rows.
    let mut rows = std::collections::HashSet::new();
    for (i, env) in envs.iter().enumerate() {
        let mut env = env.clone();
        let mut rng = StdRng::seed_from_u64(11 + i as u64);
        let mut obs = env.reset(&mut rng);
        loop {
            rows.insert(obs.data().iter().map(|x| x.to_bits()).collect::<Vec<u32>>());
            let step = env.step(learner.act_greedy(&obs).expect("act"), &mut rng);
            if step.outcome.is_terminal() {
                break;
            }
            obs = step.state;
        }
    }
    let row_bytes = 9 * 16 * std::mem::size_of::<f32>();
    assert!(rows.len() > GREEDY_MEMO_KEY_BYTES / row_bytes, "{} distinct rows fit", rows.len());
}
