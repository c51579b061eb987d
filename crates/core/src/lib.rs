//! # frlfi — FRL-FI: Transient Fault Analysis for Federated Reinforcement
//! # Learning-Based Navigation Systems
//!
//! A Rust reproduction of **FRL-FI** (Wan et al., DATE 2022): an
//! end-to-end reliability-analysis framework that characterizes the
//! impact of transient hardware faults (random bit-flips) on federated
//! reinforcement-learning navigation systems, and two cost-effective
//! mitigation schemes — reward-drop-triggered **server checkpointing**
//! during training and **range-based anomaly detection** during
//! inference.
//!
//! This crate is the top level of the workspace: it wires the substrate
//! crates (`frlfi-tensor`, `frlfi-quant`, `frlfi-nn`, `frlfi-envs`,
//! `frlfi-rl`, `frlfi-federated`, `frlfi-fault`, `frlfi-mitigation`)
//! into two complete systems and the trial, study and table definitions
//! that regenerate every table and figure of the paper's evaluation:
//!
//! * [`Fleet`] — the federated round protocol (train, inject,
//!   communicate, checkpoint and detect), written once for both systems;
//! * [`GridFrlSystem`] — 12 agents learning 10×10 mazes with an 8-bit
//!   quantized MLP policy (§IV-A);
//! * [`DroneFrlSystem`] — a fleet of drones fine-tuning a conv policy
//!   over raycast depth images in a procedural corridor world (§IV-B);
//! * [`experiments`] — the trial cells (`harness`) and train-once
//!   studies (`study`) the `frlfi-campaign` runner executes for every
//!   fault figure, plus `fig3` (Fig. 3d), `table1` and `fig9`, which
//!   run no fault trials and return printable [`report::Table`]s at a
//!   chosen [`Scale`].
//!
//! ```no_run
//! use frlfi::nn::BatchInferCtx;
//! use frlfi::{GridSystemConfig, GridFrlSystem};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut system = GridFrlSystem::new(GridSystemConfig { n_agents: 4, ..Default::default() })?;
//! let ctx = &mut BatchInferCtx::new();
//! system.train(300, None, ctx)?;
//! let sr = system.success_rate(ctx);
//! println!("success rate: {:.1}%", sr * 100.0);
//! # Ok(())
//! # }
//! ```

mod config;
mod drone_system;
mod error;
pub mod experiments;
mod fleet;
mod grid_system;
mod injection;
mod metrics;
pub mod report;

pub use config::{DroneLayout, DroneSystemConfig, GridLayout, GridSystemConfig, Scale};
pub use drone_system::DroneFrlSystem;
pub use error::FrlfiError;
pub use fleet::{Fleet, FleetConfig, FleetPrefix, ForkLearner, Stop};
pub use grid_system::GridFrlSystem;
pub use injection::{InjectionPlan, MitigationStats, ReprKind, TrainingMitigation};
pub use metrics::success_rate_of;

// Re-export the substrate crates so downstream users need one dependency.
pub use frlfi_envs as envs;
pub use frlfi_fault as fault;
pub use frlfi_federated as federated;
pub use frlfi_mitigation as mitigation;
pub use frlfi_nn as nn;
pub use frlfi_quant as quant;
pub use frlfi_rl as rl;
pub use frlfi_tensor as tensor;
