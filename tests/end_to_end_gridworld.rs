//! End-to-end integration: the federated GridWorld system trains,
//! degrades under faults the way the paper describes, and recovers.

use frlfi::fault::{Ber, FaultModel, FaultSide};
use frlfi::nn::BatchInferCtx;
use frlfi::{GridFrlSystem, GridSystemConfig, InjectionPlan, ReprKind};

fn system(n: usize, seed: u64) -> GridFrlSystem {
    GridFrlSystem::new(GridSystemConfig {
        n_agents: n,
        seed,
        epsilon_decay_episodes: 150,
        ..Default::default()
    })
    .expect("valid config")
}

#[test]
fn federated_training_converges() {
    let ctx = &mut BatchInferCtx::new();
    let mut sys = system(4, 7);
    sys.train(400, None, ctx).expect("training");
    let sr = sys.success_rate(ctx);
    assert!(sr >= 0.75, "federated GridWorld should converge, SR = {sr}");
}

#[test]
fn early_low_ber_fault_is_absorbed() {
    // Paper Fig. 3: "faults in early episodes with low BER have no
    // effect since the system can recover itself".
    let ctx = &mut BatchInferCtx::new();
    let mut clean = system(4, 13);
    clean.train(400, None, ctx).expect("training");
    let baseline = clean.success_rate(ctx);

    let mut faulted = system(4, 13);
    let plan = InjectionPlan::server(30, Ber::new(0.002).expect("ber"));
    faulted.train(400, Some(&plan), ctx).expect("training");
    let sr = faulted.success_rate(ctx);
    assert!(
        sr >= baseline - 0.26,
        "early low-BER fault should be absorbed: baseline {baseline}, got {sr}"
    );
}

#[test]
fn late_high_ber_server_fault_degrades() {
    // A strong server fault near the end of training leaves no recovery
    // window: success rate should drop visibly versus baseline.
    let ctx = &mut BatchInferCtx::new();
    let seeds = [3u64, 5, 11];
    let mut baseline_sum = 0.0;
    let mut faulted_sum = 0.0;
    for &seed in &seeds {
        let mut clean = system(4, seed);
        clean.train(400, None, ctx).expect("training");
        baseline_sum += clean.success_rate(ctx);

        let mut faulted = system(4, seed);
        let plan = InjectionPlan::server(395, Ber::new(0.05).expect("ber"));
        faulted.train(400, Some(&plan), ctx).expect("training");
        faulted_sum += faulted.success_rate(ctx);
    }
    assert!(
        faulted_sum < baseline_sum,
        "late heavy server faults must cost success rate: {faulted_sum} vs {baseline_sum}"
    );
}

#[test]
fn inference_faults_scale_with_ber() {
    let ctx = &mut BatchInferCtx::new();
    let mut sys = system(4, 7);
    sys.train(400, None, ctx).expect("training");
    let mut eval = |sys: &mut GridFrlSystem, ber: f64| -> f64 {
        let mut total = 0.0;
        for seed in 0..6u64 {
            total += sys.with_faulted_policies(
                FaultModel::TransientMulti,
                Ber::new(ber).expect("ber"),
                ReprKind::Int8,
                seed,
                |s| s.success_rate(ctx),
            );
        }
        total / 6.0
    };
    let low = eval(&mut sys, 0.002);
    let high = eval(&mut sys, 0.08);
    assert!(
        high <= low,
        "heavier inference faults must not improve success rate: low {low}, high {high}"
    );
}

#[test]
fn fault_side_grouping_is_consistent() {
    // Agent-side plans touch exactly one agent; server-side plans (via
    // the next communication round) touch all of them.
    let mut sys = system(3, 29);
    sys.train(50, None, &mut BatchInferCtx::new()).expect("training");
    let before: Vec<Vec<f32>> =
        (0..3).map(|i| frlfi::rl::Learner::network(sys.agent(i)).snapshot()).collect();

    let plan = InjectionPlan {
        episode: 0,
        side: FaultSide::AgentSide,
        model: FaultModel::TransientMulti,
        ber: Ber::new(0.01).expect("ber"),
        repr: ReprKind::Int8,
    };
    sys.inject_now(&plan);
    let after: Vec<Vec<f32>> =
        (0..3).map(|i| frlfi::rl::Learner::network(sys.agent(i)).snapshot()).collect();
    let touched = before.iter().zip(after.iter()).filter(|(b, a)| b != a).count();
    assert_eq!(touched, 1, "an agent-side fault must corrupt exactly one agent");
}
