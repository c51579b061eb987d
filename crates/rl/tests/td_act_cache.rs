//! `QLearner` reuses the forward of `act_train_ctx` in the TD update of
//! `observe_ctx` only while that forward is still valid: same learner,
//! unchanged weights, bit-equal state. Each test drives a learner
//! through one of the cases where the cached forward must *not* be used
//! and compares its weight bits with a twin trained through the
//! per-observation `observe` oracle.

use frlfi_nn::{BatchInferCtx, NetworkBuilder};
use frlfi_rl::{EpsilonSchedule, Learner, QLearner, Transition};
use frlfi_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn learner(seed: u64) -> QLearner {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = NetworkBuilder::new(6)
        .dense(32)
        .relu()
        .dense(32)
        .relu()
        .dense(4)
        .build(&mut rng)
        .expect("network");
    QLearner::new(net, 0.9, 0.05, EpsilonSchedule::new(1.0, 0.05, 10))
}

fn obs(v: [f32; 6]) -> Tensor {
    Tensor::from_vec(vec![6], v.to_vec()).expect("observation")
}

fn transition(state: &Tensor, action: usize) -> Transition {
    Transition {
        state: state.clone(),
        action,
        reward: -1.0,
        next_state: Some(obs([1.0, 0.0, -1.0, 0.0, 0.0, 1.0])),
    }
}

fn weight_bits(l: &QLearner) -> Vec<u32> {
    l.network().snapshot().iter().map(|v| v.to_bits()).collect()
}

fn s() -> Tensor {
    obs([0.0, 1.0, -1.0, 0.0, -1.0, 1.0])
}

#[test]
fn weight_change_between_act_and_observe_recomputes_the_forward() {
    let mut fast = learner(1);
    let mut oracle = learner(1);
    let mut ctx = BatchInferCtx::new();
    let mut rng = StdRng::seed_from_u64(2);
    let action = fast.act_train_ctx(&s(), &mut rng, &mut ctx).expect("act");
    // An aggregation or injection between act and observe writes the
    // weights through `network_mut`.
    for l in [&mut fast, &mut oracle] {
        for (i, v) in l.network_mut().params_mut().iter_mut().enumerate() {
            *v += 0.01 * (i % 7) as f32;
        }
    }
    fast.observe_ctx(transition(&s(), action), &mut ctx).expect("observe_ctx");
    oracle.observe(transition(&s(), action)).expect("observe");
    assert_eq!(weight_bits(&fast), weight_bits(&oracle));
}

#[test]
fn another_learner_acting_on_the_same_state_and_ctx_does_not_leak_its_forward() {
    let (mut first, mut second) = (learner(3), learner(4));
    let mut oracle = learner(3);
    let mut ctx = BatchInferCtx::new();
    let mut rng = StdRng::seed_from_u64(5);
    let action = first.act_train_ctx(&s(), &mut rng, &mut ctx).expect("act");
    second.act_train_ctx(&s(), &mut rng, &mut ctx).expect("act");
    first.observe_ctx(transition(&s(), action), &mut ctx).expect("observe_ctx");
    oracle.observe(transition(&s(), action)).expect("observe");
    assert_eq!(weight_bits(&first), weight_bits(&oracle));
}

#[test]
fn observe_without_a_preceding_act_recomputes_the_forward() {
    let mut fast = learner(6);
    let mut oracle = learner(6);
    let mut ctx = BatchInferCtx::new();
    for action in [2, 0] {
        fast.observe_ctx(transition(&s(), action), &mut ctx).expect("observe_ctx");
        oracle.observe(transition(&s(), action)).expect("observe");
        assert_eq!(weight_bits(&fast), weight_bits(&oracle));
    }
}

#[test]
fn a_second_observe_after_one_act_recomputes_the_forward() {
    // The first update changed the weights, so the act's forward is
    // stale by the second observe of the same state.
    let mut fast = learner(11);
    let mut oracle = learner(11);
    let mut ctx = BatchInferCtx::new();
    let mut rng = StdRng::seed_from_u64(12);
    let action = fast.act_train_ctx(&s(), &mut rng, &mut ctx).expect("act");
    for _ in 0..2 {
        fast.observe_ctx(transition(&s(), action), &mut ctx).expect("observe_ctx");
        oracle.observe(transition(&s(), action)).expect("observe");
        assert_eq!(weight_bits(&fast), weight_bits(&oracle));
    }
}

#[test]
fn observing_a_different_state_than_the_act_recomputes_the_forward() {
    let mut fast = learner(7);
    let mut oracle = learner(7);
    let mut ctx = BatchInferCtx::new();
    let mut rng = StdRng::seed_from_u64(8);
    let other = obs([1.0, 1.0, 0.0, -1.0, 0.0, 0.0]);
    let action = fast.act_train_ctx(&s(), &mut rng, &mut ctx).expect("act");
    fast.observe_ctx(transition(&other, action), &mut ctx).expect("observe_ctx");
    oracle.observe(transition(&other, action)).expect("observe");
    assert_eq!(weight_bits(&fast), weight_bits(&oracle));
}

#[test]
fn act_then_observe_steps_match_the_oracle_step_for_step() {
    // The cache-hit path itself, over consecutive steps on one learner
    // (each update invalidates the previous act's forward).
    let mut fast = learner(9);
    let mut oracle = learner(9);
    let mut ctx = BatchInferCtx::new();
    let mut rng = StdRng::seed_from_u64(10);
    let states = [s(), obs([1.0, 0.0, 0.0, 1.0, -1.0, 0.0]), s()];
    for state in &states {
        let action = fast.act_train_ctx(state, &mut rng, &mut ctx).expect("act");
        fast.observe_ctx(transition(state, action), &mut ctx).expect("observe_ctx");
        oracle.observe(transition(state, action)).expect("observe");
        assert_eq!(weight_bits(&fast), weight_bits(&oracle));
    }
}
