//! Regression: a mis-shaped observation anywhere in the training or
//! evaluation hot path must surface as a typed [`RlError`], never a
//! panic. A panic kills the whole campaign worker; an `Err` lets the
//! runner quarantine just the malformed trial (PR 7 path) and keep the
//! rest of the sweep alive.

use frlfi_envs::{Environment, Outcome, Step};
use frlfi_nn::BatchInferCtx;
use frlfi_rl::{
    run_episode, run_episode_batched, run_greedy_episode, run_greedy_episode_ctx, Learner,
    QLearner, Reinforce, RlError, Transition,
};
use frlfi_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// An environment that *claims* the GridWorld observation shape but
/// emits observations of a different volume — the malformed-scenario
/// failure mode the campaign quarantine machinery has to absorb.
struct MisShapedEnv {
    /// Volume of the observations actually produced (the gridworld
    /// policies expect 6).
    emit_dim: usize,
    steps: usize,
}

impl MisShapedEnv {
    fn new(emit_dim: usize) -> Self {
        MisShapedEnv { emit_dim, steps: 0 }
    }
}

impl Environment for MisShapedEnv {
    fn obs_shape(&self) -> Vec<usize> {
        vec![6]
    }

    fn n_actions(&self) -> usize {
        4
    }

    fn reset(&mut self, _rng: &mut dyn RngCore) -> Tensor {
        self.steps = 0;
        Tensor::zeros(vec![self.emit_dim])
    }

    fn step(&mut self, _action: usize, _rng: &mut dyn RngCore) -> Step {
        self.steps += 1;
        let outcome = if self.steps >= 3 { Outcome::Timeout } else { Outcome::Continue };
        Step { state: Tensor::zeros(vec![self.emit_dim]), reward: -1.0, outcome }
    }
}

fn assert_shape_error(result: Result<impl std::fmt::Debug, RlError>, path: &str) {
    match result {
        Err(RlError::Nn(_)) => {}
        other => panic!("{path}: mis-shaped observation must yield RlError::Nn, got {other:?}"),
    }
}

#[test]
fn mis_shaped_observation_errors_through_every_episode_driver() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut q = QLearner::gridworld_default(&mut rng).expect("learner");
    let mut pi = Reinforce::gridworld_default(&mut rng).expect("learner");
    let mut env = MisShapedEnv::new(9);

    assert_shape_error(run_episode(&mut env, &mut q, &mut rng), "run_episode/QLearner");
    assert_shape_error(run_episode(&mut env, &mut pi, &mut rng), "run_episode/Reinforce");
    assert_shape_error(
        run_episode_batched(&mut env, &mut q, &mut rng, &mut BatchInferCtx::new()),
        "run_episode_batched/QLearner",
    );
    assert_shape_error(
        run_episode_batched(&mut env, &mut pi, &mut rng, &mut BatchInferCtx::new()),
        "run_episode_batched/Reinforce",
    );
    assert_shape_error(
        run_greedy_episode(&mut env, &mut q, &mut rng),
        "run_greedy_episode/QLearner",
    );
    assert_shape_error(
        run_greedy_episode_ctx(&mut env, &mut pi, &mut rng, &mut BatchInferCtx::new()),
        "run_greedy_episode_ctx/Reinforce",
    );
}

#[test]
fn mis_shaped_observation_errors_through_direct_learner_calls() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut q = QLearner::gridworld_default(&mut rng).expect("learner");
    let mut pi = Reinforce::gridworld_default(&mut rng).expect("learner");
    let bad = Tensor::zeros(vec![9]);
    let good = Tensor::zeros(vec![6]);

    assert_shape_error(q.act(&bad, &mut rng), "QLearner::act");
    assert_shape_error(q.act_greedy(&bad), "QLearner::act_greedy");
    assert_shape_error(
        q.observe(Transition { state: bad.clone(), action: 0, reward: 0.0, next_state: None }),
        "QLearner::observe(bad state)",
    );
    assert_shape_error(
        q.observe(Transition {
            state: good.clone(),
            action: 0,
            reward: 0.0,
            next_state: Some(bad.clone()),
        }),
        "QLearner::observe(bad next_state)",
    );
    assert_shape_error(pi.act(&bad, &mut rng), "Reinforce::act");
    // REINFORCE defers its update to the episode end: a mis-shaped
    // buffered observation must fail there, through both update paths.
    pi.observe(Transition { state: bad.clone(), action: 0, reward: 1.0, next_state: None })
        .expect("buffering alone does not touch the network");
    assert_shape_error(pi.end_episode(), "Reinforce::end_episode");
    pi.observe(Transition { state: bad, action: 0, reward: 1.0, next_state: None })
        .expect("buffering alone does not touch the network");
    assert_shape_error(pi.end_episode_ctx(&mut BatchInferCtx::new()), "Reinforce::end_episode_ctx");
}

#[test]
fn mis_shaped_trial_leaves_learner_weights_untouched() {
    // The error must also be *clean*: a rejected episode may not leave
    // a half-applied gradient behind, so the same learner can keep
    // serving healthy trials after a quarantined one.
    let mut rng = StdRng::seed_from_u64(11);
    let mut q = QLearner::gridworld_default(&mut rng).expect("learner");
    let before = q.network().snapshot();
    let mut env = MisShapedEnv::new(9);
    assert!(run_episode(&mut env, &mut q, &mut rng).is_err());
    assert_eq!(q.network().snapshot(), before, "failed episode must not step the weights");
}

fn assert_action_error(result: Result<(), RlError>, path: &str) {
    match result {
        Err(RlError::ActionOutOfRange { action: 4, n_actions: 4 }) => {}
        other => {
            panic!("{path}: action 4 of 4 must yield RlError::ActionOutOfRange, got {other:?}")
        }
    }
}

#[test]
fn out_of_range_action_errors_at_observe_in_both_learners() {
    // A transition naming an action the policy has no output for must
    // be rejected before it indexes a Q-value or a gradient row, and
    // must leave the weights as they were.
    let mut rng = StdRng::seed_from_u64(13);
    let mut q = QLearner::gridworld_default(&mut rng).expect("learner");
    let mut pi = Reinforce::gridworld_default(&mut rng).expect("learner");
    let s = Tensor::zeros(vec![6]);
    let bad = || Transition { state: s.clone(), action: 4, reward: 1.0, next_state: None };
    let (q_before, pi_before) = (q.network().snapshot(), pi.network().snapshot());

    assert_action_error(q.observe(bad()), "QLearner::observe");
    assert_action_error(q.observe_ctx(bad(), &mut BatchInferCtx::new()), "QLearner::observe_ctx");
    let mut ctx = BatchInferCtx::new();
    q.act_train_ctx(&s, &mut rng, &mut ctx).expect("act");
    assert_action_error(q.observe_ctx(bad(), &mut ctx), "QLearner::observe_ctx after act");
    assert_eq!(q.network().snapshot(), q_before, "rejected transition must not step the weights");

    assert_action_error(pi.observe(bad()), "Reinforce::observe");
    assert_action_error(pi.observe_ctx(bad(), &mut ctx), "Reinforce::observe_ctx");
    pi.end_episode_ctx(&mut ctx).expect("nothing was buffered");
    assert_eq!(pi.network().snapshot(), pi_before, "rejected transition must not step the weights");
}
