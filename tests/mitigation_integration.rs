//! Integration of detection + recovery across the full stack: the
//! paper's two mitigation schemes deployed on live systems.

use frlfi::fault::{Ber, FaultModel};
use frlfi::mitigation::RangeDetector;
use frlfi::nn::BatchInferCtx;
use frlfi::rl::Learner;
use frlfi::{GridFrlSystem, GridSystemConfig, InjectionPlan, ReprKind, TrainingMitigation};

fn system(seed: u64) -> GridFrlSystem {
    mitigated(seed, None)
}

fn mitigated(seed: u64, mitigation: Option<TrainingMitigation>) -> GridFrlSystem {
    GridFrlSystem::new(GridSystemConfig {
        n_agents: 4,
        seed,
        epsilon_decay_episodes: 150,
        mitigation,
        ..Default::default()
    })
    .expect("valid config")
}

#[test]
fn checkpointing_beats_no_mitigation_under_server_fault() {
    // Average over seeds: individual runs are noisy at this scale.
    let ctx = &mut BatchInferCtx::new();
    let seeds = [5u64, 9, 23];
    let mut unmit = 0.0;
    let mut mit = 0.0;
    for &seed in &seeds {
        let plan = InjectionPlan::server(250, Ber::new(0.05).expect("ber"));

        let mut without = system(seed);
        without.train(400, Some(&plan), ctx).expect("training");
        unmit += without.success_rate(ctx);

        let mut with = mitigated(seed, Some(TrainingMitigation::scaled(8)));
        with.train(400, Some(&plan), ctx).expect("training");
        mit += with.success_rate(ctx);
    }
    assert!(
        mit >= unmit,
        "checkpoint mitigation should not lose to no mitigation: {mit} vs {unmit}"
    );
}

#[test]
fn range_detection_repairs_static_outliers() {
    let ctx = &mut BatchInferCtx::new();
    let mut sys = system(31);
    sys.train(400, None, ctx).expect("training");
    let detectors: Vec<RangeDetector> =
        (0..4).map(|i| RangeDetector::fit(sys.agent(i).network())).collect();

    // High BER on the f32 surface produces exponent-bit outliers that
    // the per-layer ranges catch.
    let ber = Ber::new(0.02).expect("ber");
    let mut repaired_any = false;
    let sr_mit =
        sys.with_faulted_policies(FaultModel::TransientMulti, ber, ReprKind::F32, 77, |s| {
            for (i, det) in detectors.iter().enumerate() {
                if det.repair(s.agent_mut(i).network_mut()) > 0 {
                    repaired_any = true;
                }
            }
            s.success_rate(ctx)
        });
    assert!(repaired_any, "BER 2% on f32 weights must trip the range detector");
    assert!((0.0..=1.0).contains(&sr_mit));
}

#[test]
fn detector_is_silent_on_healthy_training() {
    // Mitigation enabled with no faults must not disturb convergence.
    let ctx = &mut BatchInferCtx::new();
    let mut with = mitigated(41, Some(TrainingMitigation::scaled(8)));
    with.train(400, None, ctx).expect("training");
    let mut without = system(41);
    without.train(400, None, ctx).expect("training");
    let (with, without) = (with.success_rate(ctx), without.success_rate(ctx));
    assert!(
        (with - without).abs() <= 0.26,
        "mitigation on a healthy run should be near-transparent: {with} vs {without}"
    );
}

#[test]
fn overhead_model_favors_detection_on_both_platforms() {
    use frlfi::mitigation::{DronePlatform, ProtectionScheme};
    for p in [DronePlatform::airsim(), DronePlatform::dji_spark()] {
        let ours = p.evaluate(ProtectionScheme::RangeDetection);
        let tmr = p.evaluate(ProtectionScheme::Tmr);
        assert!(ours.relative_distance > tmr.relative_distance);
    }
}
