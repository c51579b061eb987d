use crate::injection::TrainingMitigation;
use frlfi_envs::DroneConfig;
use frlfi_federated::CommSchedule;
use serde::{Deserialize, Serialize};

/// Experiment scale, trading runtime for statistical weight.
///
/// The paper repeats every GridWorld cell 1000× and every drone cell
/// 100×; a laptop-scale reproduction cannot afford that for every
/// heatmap, so each experiment accepts a scale:
///
/// * [`Scale::Smoke`] — minutes-level CI scale (small grids, few
///   repeats); used by integration tests.
/// * [`Scale::Bench`] — the default for the `fig*` binaries and
///   criterion benches; enough repeats for stable trends.
/// * [`Scale::Full`] — paper-sized campaigns (12 agents, 1000 episodes,
///   dense BER grids); hours of runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scale {
    /// CI-sized: smallest grids, 1–2 repeats.
    Smoke,
    /// Benchmark-sized: reduced grids, several repeats.
    Bench,
    /// Paper-sized: full grids and repeat counts.
    Full,
}

impl Scale {
    /// Scales a `(smoke, bench, full)` triple (unused variants are
    /// dropped).
    pub fn pick<T>(self, smoke: T, bench: T, full: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Bench => bench,
            Scale::Full => full,
        }
    }
}

/// GridWorld maze layout family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GridLayout {
    /// The paper's fixed per-agent mazes (Fig. 2).
    Standard,
    /// Obstacles re-jitter around the standard layout every episode —
    /// a harder scenario probing policy robustness to non-stationary
    /// worlds (not in the paper).
    DynamicObstacles,
}

/// Configuration of a federated GridWorld system (§IV-A).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridSystemConfig {
    /// Number of agents/environments (the paper uses 12; 1 disables the
    /// server and reproduces the single-agent baseline of Fig. 3c).
    pub n_agents: usize,
    /// Master seed: maze layouts, policy init and exploration all derive
    /// from it.
    pub seed: u64,
    /// Episodes between communication rounds.
    pub comm_interval: usize,
    /// Exploration-decay horizon in episodes.
    pub epsilon_decay_episodes: usize,
    /// Q-learning rate.
    pub lr: f32,
    /// Discount factor.
    pub gamma: f32,
    /// Initial smoothing-average self-weight α₀ (anneals to 1/n).
    pub alpha0: f32,
    /// Rounds over which α anneals to 1/n.
    pub anneal_rounds: usize,
    /// Maze layout family (standard fixed mazes, or dynamic obstacles).
    pub layout: GridLayout,
    /// Per-round probability that an agent drops out of a communication
    /// round (`None` = reliable links, the paper's setting).
    pub dropout: Option<f32>,
    /// Training-time mitigation (`None` = unprotected training).
    pub mitigation: Option<TrainingMitigation>,
}

impl Default for GridSystemConfig {
    fn default() -> Self {
        GridSystemConfig {
            n_agents: 12,
            seed: 0xF1F1,
            comm_interval: 2,
            epsilon_decay_episodes: 400,
            lr: 0.02,
            gamma: 0.9,
            alpha0: 0.5,
            anneal_rounds: 50,
            layout: GridLayout::Standard,
            dropout: None,
            mitigation: None,
        }
    }
}

impl GridSystemConfig {
    /// The communication schedule implied by `comm_interval`.
    pub fn comm_schedule(&self) -> CommSchedule {
        CommSchedule::every(self.comm_interval)
    }
}

/// DroneNav corridor layout family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DroneLayout {
    /// The paper's static procedural corridors.
    Standard,
    /// Obstacles oscillate around their base positions during the
    /// episode — a harder scenario probing policy robustness to
    /// non-stationary worlds (not in the paper; the DroneNav analogue
    /// of [`GridLayout::DynamicObstacles`]).
    DynamicObstacles,
}

/// Configuration of a federated drone-navigation system (§IV-B).
#[derive(Debug, Clone, PartialEq)]
pub struct DroneSystemConfig {
    /// Number of drones (the paper uses 4, and sweeps 2/4/6 in Fig. 6a).
    pub n_drones: usize,
    /// Master seed.
    pub seed: u64,
    /// Offline pre-training episodes (REINFORCE on a single learner
    /// before federated fine-tuning, §IV-B-1).
    pub pretrain_episodes: usize,
    /// Communication schedule during fine-tuning.
    pub comm: CommSchedule,
    /// Simulator parameters.
    pub sim: DroneConfig,
    /// Step cap during training episodes (shorter than evaluation's to
    /// keep fine-tuning affordable).
    pub train_max_steps: usize,
    /// Corridor layout family (static corridors, or oscillating
    /// obstacles). `DynamicObstacles` turns on `sim.dynamic` with the
    /// default motion at system construction unless `sim.dynamic` is
    /// already set.
    pub layout: DroneLayout,
    /// Per-round probability that a drone drops out of a communication
    /// round (`None` = reliable links, the paper's setting).
    pub dropout: Option<f32>,
    /// Training-time mitigation (`None` = unprotected training).
    pub mitigation: Option<TrainingMitigation>,
}

impl Default for DroneSystemConfig {
    fn default() -> Self {
        DroneSystemConfig {
            n_drones: 4,
            seed: 0xD20E,
            pretrain_episodes: 60,
            comm: CommSchedule::every(1),
            sim: DroneConfig::default(),
            train_max_steps: 120,
            layout: DroneLayout::Standard,
            dropout: None,
            mitigation: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_picks() {
        assert_eq!(Scale::Smoke.pick(1, 2, 3), 1);
        assert_eq!(Scale::Bench.pick(1, 2, 3), 2);
        assert_eq!(Scale::Full.pick(1, 2, 3), 3);
    }

    #[test]
    fn default_matches_paper() {
        let c = GridSystemConfig::default();
        assert_eq!(c.n_agents, 12);
        let d = DroneSystemConfig::default();
        assert_eq!(d.n_drones, 4);
    }
}
