//! Drone-fleet scenario: pre-train a conv policy offline, fine-tune a
//! four-drone fleet federatedly, then compare inference under memory
//! faults with and without range-based anomaly detection.
//!
//! ```text
//! cargo run -p frlfi --release --example drone_patrol
//! ```

use frlfi::fault::{Ber, FaultModel};
use frlfi::mitigation::RangeDetector;
use frlfi::nn::BatchInferCtx;
use frlfi::rl::Learner;
use frlfi::{DroneFrlSystem, DroneSystemConfig, ReprKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg =
        DroneSystemConfig { n_drones: 4, seed: 11, pretrain_episodes: 30, ..Default::default() };
    let mut fleet = DroneFrlSystem::new(cfg)?;

    println!("offline pre-training (REINFORCE)...");
    fleet.pretrain()?;
    println!("federated online fine-tuning (4 drones)...");
    let ctx = &mut BatchInferCtx::new();
    fleet.train(25, None, ctx)?;
    let clean = fleet.safe_flight_distance(3, ctx);
    println!("  clean safe flight distance: {clean:.0} m");

    // Tally per-layer weight ranges before deployment (the paper's
    // range-based detector, fit on the healthy policy).
    let detectors: Vec<RangeDetector> =
        (0..fleet.n_agents()).map(|i| RangeDetector::fit(fleet.agent(i).network())).collect();

    let ber = Ber::new(1e-2)?;
    let unprotected =
        fleet.with_faulted_policies(FaultModel::TransientMulti, ber, ReprKind::F32, 99, |f| {
            f.safe_flight_distance(3, ctx)
        });
    println!("  with BER 1e-2 memory faults:  {unprotected:.0} m");

    let protected =
        fleet.with_faulted_policies(FaultModel::TransientMulti, ber, ReprKind::F32, 99, |f| {
            let mut repaired = 0;
            for (i, det) in detectors.iter().enumerate() {
                repaired += det.repair(f.agent_mut(i).network_mut());
            }
            println!("  range detector repaired {repaired} anomalous weights");
            f.safe_flight_distance(3, ctx)
        });
    println!("  with range-based detection:   {protected:.0} m");
    if unprotected > 0.0 {
        println!("  improvement: {:.2}x", protected / unprotected);
    }
    Ok(())
}
