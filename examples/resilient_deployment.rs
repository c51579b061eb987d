//! Design-space walkthrough for deploying an FRL policy on a real
//! drone: pick a number format that matches the weight range (§IV-B-3)
//! and a protection scheme the platform can afford (Fig. 9).
//!
//! ```text
//! cargo run -p frlfi --release --example resilient_deployment
//! ```

use frlfi::fault::{Ber, FaultModel};
use frlfi::mitigation::{DronePlatform, ProtectionScheme};
use frlfi::nn::BatchInferCtx;
use frlfi::quant::QFormat;
use frlfi::{GridFrlSystem, GridSystemConfig, ReprKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Step 1: pick a fixed-point format for the policy ==");
    let mut sys = GridFrlSystem::new(GridSystemConfig {
        n_agents: 4,
        seed: 3,
        epsilon_decay_episodes: 200,
        ..Default::default()
    })?;
    let ctx = &mut BatchInferCtx::new();
    sys.train(400, None, ctx)?;
    let ber = Ber::new(2e-4)?;
    for q in [QFormat::Q4_11, QFormat::Q7_8, QFormat::Q10_5] {
        // Average over injection seeds: a single campaign is noisy.
        let mut sr = 0.0;
        for seed in 0..12u64 {
            sr += sys.with_faulted_policies(
                FaultModel::TransientMulti,
                ber,
                ReprKind::Fixed(q),
                seed,
                |s| s.success_rate(ctx) * 100.0,
            );
        }
        println!("  {q}: SR under BER 2e-4 = {:.0}%  (range ±{:.1})", sr / 12.0, q.max_value());
    }
    println!("  -> narrow formats that just cover the weight range survive best\n");

    println!("== Step 2: pick a protection scheme for the airframe ==");
    for platform in [DronePlatform::airsim(), DronePlatform::dji_spark()] {
        println!("  {}:", platform.name);
        for scheme in ProtectionScheme::all() {
            let r = platform.evaluate(scheme);
            println!(
                "    {:<18} {:>6.1} m  ({:>5.1}% degradation)",
                scheme.to_string(),
                r.distance_m,
                r.degradation_percent()
            );
        }
    }
    println!("\n  -> redundancy (DMR/TMR) is affordable on the mini-UAV but cripples");
    println!("     the micro-UAV; software range detection costs <3% on both.");
    Ok(())
}
