//! End-to-end integration: the drone fleet pre-trains, fine-tunes,
//! flies, and degrades under faults in the expected direction.

use frlfi::fault::{Ber, FaultModel};
use frlfi::nn::BatchInferCtx;
use frlfi::{DroneFrlSystem, DroneSystemConfig, InjectionPlan, ReprKind};

fn fleet(n: usize, seed: u64) -> DroneFrlSystem {
    DroneFrlSystem::new(DroneSystemConfig {
        n_drones: n,
        seed,
        pretrain_episodes: 10,
        train_max_steps: 40,
        ..Default::default()
    })
    .expect("valid config")
}

#[test]
fn pipeline_runs_end_to_end() {
    let ctx = &mut BatchInferCtx::new();
    let mut sys = fleet(2, 3);
    sys.pretrain().expect("pretrain");
    sys.train(6, None, ctx).expect("fine-tune");
    let d = sys.safe_flight_distance(2, ctx);
    let cap = sys.config().sim.max_steps as f64 * sys.config().sim.speed as f64;
    assert!(d > 0.0 && d <= cap, "distance {d} out of (0, {cap}]");
}

#[test]
fn heavy_static_faults_shorten_flights() {
    let ctx = &mut BatchInferCtx::new();
    let mut sys = fleet(2, 9);
    sys.pretrain().expect("pretrain");
    sys.train(6, None, ctx).expect("fine-tune");
    // Average both arms over several injection seeds: a single seed can
    // flip bits that happen to be harmless.
    let mut clean = 0.0;
    let mut faulted = 0.0;
    for seed in 0..4u64 {
        clean += sys.with_faulted_policies(
            FaultModel::TransientMulti,
            Ber::ZERO,
            ReprKind::F32,
            seed,
            |s| s.safe_flight_distance(2, ctx),
        );
        faulted += sys.with_faulted_policies(
            FaultModel::TransientMulti,
            Ber::new(0.05).expect("ber"),
            ReprKind::F32,
            seed,
            |s| s.safe_flight_distance(2, ctx),
        );
    }
    assert!(
        faulted <= clean,
        "BER 5% memory faults should not lengthen flights: clean {clean}, faulted {faulted}"
    );
}

#[test]
fn server_fault_reaches_every_drone() {
    let mut sys = fleet(3, 17);
    sys.pretrain().expect("pretrain");
    let before: Vec<Vec<f32>> =
        (0..3).map(|i| frlfi::rl::Learner::network(sys.agent(i)).snapshot()).collect();
    let server = InjectionPlan::server(0, Ber::new(0.001).expect("ber"));
    let plan = InjectionPlan { repr: ReprKind::F32, ..server };
    sys.train(1, Some(&plan), &mut BatchInferCtx::new()).expect("fine-tune");
    let after: Vec<Vec<f32>> =
        (0..3).map(|i| frlfi::rl::Learner::network(sys.agent(i)).snapshot()).collect();
    let touched = before.iter().zip(after.iter()).filter(|(b, a)| b != a).count();
    assert_eq!(touched, 3, "server faults propagate to the whole fleet");
    assert!(!sys.last_fault_records().is_empty());
}

#[test]
fn evaluation_is_reproducible() {
    let ctx = &mut BatchInferCtx::new();
    let mut a = fleet(2, 21);
    a.pretrain().expect("pretrain");
    let mut b = fleet(2, 21);
    b.pretrain().expect("pretrain");
    assert_eq!(a.safe_flight_distance(2, ctx), b.safe_flight_distance(2, ctx));
}
