//! Quickstart: build a federated GridWorld system, train it, inject a
//! transient server fault, and watch the mitigation scheme recover it.
//!
//! ```text
//! cargo run -p frlfi --release --example quickstart
//! ```

use frlfi::fault::Ber;
use frlfi::nn::BatchInferCtx;
use frlfi::{GridFrlSystem, GridSystemConfig, InjectionPlan, TrainingMitigation};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Four agents, each in its own 10x10 maze, sharing a policy through
    // the smoothing-average server.
    let cfg = GridSystemConfig { n_agents: 4, seed: 13, ..Default::default() };
    // Inference scratch arena, reused by every run and evaluation below.
    let mut ctx = BatchInferCtx::new();

    println!("training a fault-free baseline...");
    let mut baseline = GridFrlSystem::new(cfg.clone())?;
    baseline.train(400, None, &mut ctx)?;
    println!("  baseline success rate: {:.0}%", baseline.success_rate(&mut ctx) * 100.0);

    // Now the same system, but a heavy transient fault strikes the
    // *server* at episode 390 — late enough that training has little
    // window left to repair the damage on its own.
    let plan = InjectionPlan::server(390, Ber::new(0.20)?);

    println!("training with an unmitigated server fault (BER 20%, episode 390)...");
    let mut faulty = GridFrlSystem::new(cfg.clone())?;
    faulty.train(400, Some(&plan), &mut ctx)?;
    println!("  faulty success rate:   {:.0}%", faulty.success_rate(&mut ctx) * 100.0);
    println!("  fault injected {} bit flips into server memory", faulty.last_fault_records().len());

    // Same fault, but with the paper's mitigation: reward-drop detection
    // plus server checkpointing every 5 communication rounds.
    println!("training with the fault AND checkpoint mitigation...");
    let mitigation = Some(TrainingMitigation::scaled(8));
    let mut mitigated = GridFrlSystem::new(GridSystemConfig { mitigation, ..cfg })?;
    mitigated.train(400, Some(&plan), &mut ctx)?;
    println!("  mitigated success rate: {:.0}%", mitigated.success_rate(&mut ctx) * 100.0);
    let stats = mitigated.mitigation_stats();
    println!(
        "  detector fired {} time(s) ({} attributed to the server)",
        stats.total(),
        stats.server_detections
    );

    Ok(())
}
