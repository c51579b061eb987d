//! A custom fault-injection campaign built directly on the campaign
//! engine: sweep (BER × fault model) over inference faults and print a
//! resilience table — the pattern to copy when designing experiments
//! the paper didn't run.
//!
//! ```text
//! cargo run -p frlfi --release --example gridworld_fault_campaign
//! ```

use frlfi::fault::{sweep, Ber, FaultModel};
use frlfi::nn::BatchInferCtx;
use frlfi::report::Table;
use frlfi::{GridFrlSystem, GridSystemConfig, ReprKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Train the system once; the campaign then corrupts copies of its
    // deployed (int8-quantized) policy.
    println!("training the policy under test...");
    let cfg = GridSystemConfig {
        n_agents: 4,
        seed: 21,
        epsilon_decay_episodes: 200,
        ..Default::default()
    };
    let mut sys = GridFrlSystem::new(cfg)?;
    let ctx = &mut BatchInferCtx::new();
    sys.train(400, None, ctx)?;
    println!("  clean success rate: {:.0}%\n", sys.success_rate(ctx) * 100.0);
    let clean_weights: Vec<Vec<f32>> =
        (0..4).map(|i| frlfi::rl::Learner::network(sys.agent(i)).snapshot()).collect();

    let bers = [0.0, 0.005, 0.01, 0.02, 0.05];
    let models = [FaultModel::TransientMulti, FaultModel::StuckAt0, FaultModel::StuckAt1];
    let cells: Vec<(f64, FaultModel)> =
        bers.iter().flat_map(|&b| models.iter().map(move |&m| (b, m))).collect();

    // Each campaign task rebuilds the trained system from the saved
    // weights (cheap) and evaluates one corrupted deployment.
    let stats = sweep(&cells, 8, 0xCA3D, |&(ber, model), seed| {
        let cfg = GridSystemConfig {
            n_agents: 4,
            seed: 21,
            epsilon_decay_episodes: 200,
            ..Default::default()
        };
        let mut sys = GridFrlSystem::new(cfg).expect("valid config");
        for (i, w) in clean_weights.iter().enumerate() {
            frlfi::rl::Learner::network_mut(sys.agent_mut(i)).restore(w).expect("weights fit");
        }
        sys.with_faulted_policies(
            model,
            Ber::new(ber).expect("valid ber"),
            ReprKind::Int8,
            seed,
            |s| s.success_rate(&mut BatchInferCtx::new()) * 100.0,
        )
    });

    let mut table = Table::new(
        "Custom campaign: SR (%) by fault model",
        "BER",
        models.iter().map(|m| m.to_string()).collect(),
    );
    for (bi, &ber) in bers.iter().enumerate() {
        let row = (0..models.len()).map(|mi| stats[bi * models.len() + mi].mean).collect();
        table.push_row(format!("{:.1}%", ber * 100.0), row);
    }
    println!("{table}");
    println!("(stuck-at-1 should dominate stuck-at-0: trained policies are mostly 0-bits)");
    Ok(())
}
