//! Shared campaign harness: pure, declarative *trial specifications*
//! and the functions that evaluate them.
//!
//! A training-fault trial is a [`GridTrial`] / [`DroneTrial`] cell run
//! by [`run_grid_trial_batched`] / [`run_drone_trial_batched`], or by
//! [`run_grid_cell_batched`] / [`run_drone_cell_batched`] forking from
//! a campaign's [`Prefixes`]. All train and evaluate on a
//! [`BatchInferCtx`] arena, the one production path (bit-identical to
//! the per-observation test oracle [`frlfi_rl::run_episode`]). The
//! `frlfi-campaign` orchestration crate runs every figure campaign
//! through these trial functions, so a
//! campaign's statistics depend only on its cells and master seed:
//! identical trial spec + identical derived seed ⇒ identical trial
//! value, and identical aggregation (see
//! [`frlfi_fault::aggregate_in_order`]) ⇒ identical cell statistics.

use std::sync::Arc;

use crate::error::FrlfiError;
pub use crate::experiments::prefix::Prefixes;
use crate::experiments::prefix::{fork_episode, Chains, ForkTrial};
use crate::experiments::{ber_label, SYSTEM_SEED};
use crate::fleet::System;
use crate::report::Table;
use crate::{
    DroneFrlSystem, DroneLayout, DroneSystemConfig, Fleet, GridFrlSystem, GridLayout,
    GridSystemConfig, InjectionPlan, ReprKind, Scale, TrainingMitigation,
};
use frlfi_fault::{Ber, CellStats, FaultModel, FaultSide};
use frlfi_federated::CommSchedule;
use frlfi_nn::BatchInferCtx;

/// Campaign geometry of the GridWorld training heatmaps (Fig. 3/7a).
#[derive(Debug, Clone, PartialEq)]
pub struct GridGeometry {
    /// Bit-error rates swept (fraction of exposed bits).
    pub bers: Vec<f64>,
    /// Episodes at which the fault strikes.
    pub inject_episodes: Vec<usize>,
    /// Training episodes per trial.
    pub total_episodes: usize,
    /// Fleet size.
    pub n_agents: usize,
    /// Repeats per cell.
    pub repeats: usize,
}

/// The Fig. 3 grid-campaign geometry at each scale.
pub fn grid_geometry(scale: Scale) -> GridGeometry {
    match scale {
        Scale::Smoke => GridGeometry {
            bers: vec![0.0, 0.05, 0.2],
            inject_episodes: vec![40, 125],
            total_episodes: 130,
            n_agents: 3,
            repeats: 2,
        },
        Scale::Bench => GridGeometry {
            bers: vec![0.0, 0.01, 0.02, 0.05, 0.1, 0.2],
            inject_episodes: vec![90, 240, 390, 510, 570, 595],
            total_episodes: 600,
            n_agents: 6,
            repeats: 4,
        },
        Scale::Full => GridGeometry {
            bers: vec![0.0, 0.005, 0.01, 0.02, 0.05, 0.08, 0.12, 0.16, 0.2, 0.3, 0.5],
            inject_episodes: (0..10).map(|i| 100 * i + 50).chain([995]).collect(),
            total_episodes: 1000,
            n_agents: 12,
            repeats: 50,
        },
    }
}

/// Campaign geometry of the DroneNav heatmaps (Fig. 5/6/7b/8b).
#[derive(Debug, Clone, PartialEq)]
pub struct DroneGeometry {
    /// Bit-error rates swept.
    pub bers: Vec<f64>,
    /// Fine-tuning episodes at which the fault strikes.
    pub inject_episodes: Vec<usize>,
    /// Fine-tuning episodes per trial.
    pub fine_tune_episodes: usize,
    /// Fleet size.
    pub n_drones: usize,
    /// Repeats per cell.
    pub repeats: usize,
    /// Offline pre-training episodes (shared across all cells).
    pub pretrain_episodes: usize,
    /// Evaluation attempts averaged into the flight-distance metric.
    pub eval_attempts: usize,
}

/// The Fig. 5 drone-campaign geometry at each scale.
pub fn drone_geometry(scale: Scale) -> DroneGeometry {
    match scale {
        Scale::Smoke => DroneGeometry {
            bers: vec![0.0, 1e-2],
            inject_episodes: vec![4, 10],
            fine_tune_episodes: 12,
            n_drones: 2,
            repeats: 1,
            pretrain_episodes: 6,
            eval_attempts: 2,
        },
        Scale::Bench => DroneGeometry {
            bers: vec![0.0, 1e-4, 1e-3, 1e-2, 1e-1],
            inject_episodes: vec![8, 20, 32],
            fine_tune_episodes: 36,
            n_drones: 4,
            repeats: 3,
            pretrain_episodes: 400,
            eval_attempts: 6,
        },
        Scale::Full => DroneGeometry {
            bers: vec![0.0, 1e-4, 1e-3, 1e-2, 1e-1],
            inject_episodes: vec![1000, 3000, 5000],
            fine_tune_episodes: 6000,
            n_drones: 4,
            repeats: 25,
            pretrain_episodes: 2000,
            eval_attempts: 10,
        },
    }
}

/// Pre-trains one policy offline and returns its weights; shared across
/// all campaign cells so cells differ only in faults (paper protocol).
///
/// # Panics
///
/// Panics if pre-training fails.
pub fn drone_pretrained_weights(pretrain_episodes: usize) -> Vec<f32> {
    pretrained(pretrain_episodes).expect("pretraining")
}

/// [`drone_pretrained_weights`], returning pre-training failures.
pub(crate) fn pretrained(pretrain_episodes: usize) -> Result<Vec<f32>, FrlfiError> {
    let mut sys = DroneFrlSystem::new(DroneSystemConfig {
        n_drones: 1,
        seed: SYSTEM_SEED,
        pretrain_episodes,
        ..Default::default()
    })?;
    sys.pretrain()?;
    Ok(sys.fleet_weights())
}

/// Lazily shared pre-trained starting weights for a drone campaign.
///
/// Pre-training is minutes of compute at full scale, so it must not
/// happen while merely *declaring* a campaign (expanding a scenario,
/// resuming a finished run). The first trial that needs the weights
/// computes them once; concurrent first-touchers block on the same
/// cell.
#[derive(Debug)]
pub struct PretrainedWeights {
    pretrain_episodes: usize,
    cell: std::sync::OnceLock<Vec<f32>>,
}

impl PretrainedWeights {
    /// Weights computed on first use from `pretrain_episodes` offline
    /// episodes (see [`drone_pretrained_weights`]).
    pub fn lazy(pretrain_episodes: usize) -> Arc<Self> {
        Arc::new(PretrainedWeights { pretrain_episodes, cell: std::sync::OnceLock::new() })
    }

    /// Pre-computed weights (no deferred work).
    pub fn from_weights(weights: Vec<f32>) -> Arc<Self> {
        let cell = std::sync::OnceLock::new();
        cell.set(weights).expect("fresh cell");
        Arc::new(PretrainedWeights { pretrain_episodes: 0, cell })
    }

    /// The weights, pre-training on first call.
    pub(crate) fn get(&self) -> &[f32] {
        self.cell.get_or_init(|| drone_pretrained_weights(self.pretrain_episodes))
    }
}

/// The fault a trial injects, as pure data (a BER of `0.0` means no
/// injection — the fault-free baseline cell).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialFault {
    /// Episode at which the fault strikes.
    pub episode: usize,
    /// Agent-side or server-side.
    pub side: FaultSide,
    /// Fault model.
    pub model: FaultModel,
    /// Machine representation of the fault surface.
    pub repr: ReprKind,
    /// Bit-error rate (0.0 = baseline, no injection).
    pub ber: f64,
}

impl TrialFault {
    /// The paper's default training fault: transient multi-bit on the
    /// int8 surface.
    pub fn transient_int8(side: FaultSide, episode: usize, ber: f64) -> Self {
        TrialFault { episode, side, model: FaultModel::TransientMulti, repr: ReprKind::Int8, ber }
    }

    /// Materializes into an [`InjectionPlan`], or `None` for BER 0.
    ///
    /// # Panics
    ///
    /// Panics if the BER is not a valid rate.
    pub fn plan(&self) -> Option<InjectionPlan> {
        (self.ber > 0.0).then(|| InjectionPlan {
            episode: self.episode,
            side: self.side,
            model: self.model,
            ber: Ber::new(self.ber).expect("valid trial BER"),
            repr: self.repr,
        })
    }
}

/// What a GridWorld training trial reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GridMetric {
    /// Greedy success rate after training, in percent.
    SuccessRatePct,
    /// Total episodes (training + extra) until the success rate reaches
    /// `threshold`, checking every `check_every` episodes, capped at
    /// `max_extra` extra episodes (Fig. 3e).
    EpisodesToConverge {
        /// Success-rate threshold in [0, 1].
        threshold: f64,
        /// Check cadence in episodes.
        check_every: usize,
        /// Extra-episode cap.
        max_extra: usize,
    },
}

/// One GridWorld training-campaign trial, as pure data. Evaluating the
/// same trial with the same seed always yields the same value.
#[derive(Debug, Clone, PartialEq)]
pub struct GridTrial {
    /// Fleet size (1 = single-agent baseline, no server).
    pub n_agents: usize,
    /// Training episodes.
    pub total_episodes: usize,
    /// System-construction seed (layouts, init, exploration).
    pub system_seed: u64,
    /// Maze layout family.
    pub layout: GridLayout,
    /// Per-round agent-dropout probability.
    pub dropout: Option<f32>,
    /// Fault to inject (None or BER 0 = fault-free).
    pub fault: Option<TrialFault>,
    /// Training-time mitigation, when enabled.
    pub mitigation: Option<TrainingMitigation>,
    /// Reported metric.
    pub metric: GridMetric,
}

impl GridTrial {
    /// A fault-free trial with the experiments' defaults.
    pub fn new(n_agents: usize, total_episodes: usize) -> Self {
        GridTrial {
            n_agents,
            total_episodes,
            system_seed: SYSTEM_SEED,
            layout: GridLayout::Standard,
            dropout: None,
            fault: None,
            mitigation: None,
            metric: GridMetric::SuccessRatePct,
        }
    }

    /// Sets the injected fault.
    #[must_use]
    pub fn with_fault(mut self, fault: TrialFault) -> Self {
        self.fault = Some(fault);
        self
    }

    /// The configuration of the system this trial trains.
    pub(crate) fn system_config(&self) -> GridSystemConfig {
        GridSystemConfig {
            n_agents: self.n_agents,
            seed: self.system_seed,
            epsilon_decay_episodes: self.total_episodes / 2,
            layout: self.layout,
            dropout: self.dropout,
            mitigation: self.mitigation,
            ..Default::default()
        }
    }
}

impl ForkTrial for GridTrial {
    type Config = GridSystemConfig;

    fn same_prefix(&self, other: &Self) -> bool {
        self.system_config() == other.system_config()
    }

    fn episodes(&self) -> usize {
        self.total_episodes
    }

    fn fault(&self) -> Option<&TrialFault> {
        self.fault.as_ref()
    }

    fn system(&self) -> Result<GridFrlSystem, FrlfiError> {
        GridFrlSystem::new(self.system_config())
    }

    fn chains(cache: &Prefixes) -> &Chains<Self> {
        &cache.grid
    }
}

/// Evaluates one GridWorld trial: a pure function of `(trial, seed)`,
/// the one-cell case of [`run_grid_cell_batched`] on a fresh prefix
/// cache. Training runs through `ctx`'s cached-activation arena
/// kernels ([`GridFrlSystem::train`]) and the post-training evaluation
/// on the same arena ([`GridFrlSystem::success_rate`]).
///
/// # Errors
///
/// Returns an error on an invalid trial configuration or a training
/// failure (e.g. a mis-shaped observation), so a campaign can
/// quarantine the trial instead of panicking in a worker.
pub fn run_grid_trial_batched(
    t: &GridTrial,
    seed: u64,
    ctx: &mut BatchInferCtx,
) -> Result<f64, FrlfiError> {
    run_grid_cell_batched(std::slice::from_ref(t), 0, seed, &Prefixes::default(), ctx)
}

/// Evaluates cell `cell` of a campaign's `cells`, forking from the
/// fault-free prefix in `prefixes` (trained there on first use).
/// Bit-identical to [`run_grid_trial_batched`] on `cells[cell]`. This
/// is the campaign runner's GridWorld work unit; campaign workers
/// reuse one context across all their trials.
///
/// # Errors
///
/// Returns an error on an invalid trial configuration or a training
/// failure (e.g. a mis-shaped observation), so a campaign can
/// quarantine the trial instead of panicking in a worker.
///
/// # Panics
///
/// Panics if `cell` is out of range.
pub fn run_grid_cell_batched(
    cells: &[GridTrial],
    cell: usize,
    seed: u64,
    prefixes: &Prefixes,
    ctx: &mut BatchInferCtx,
) -> Result<f64, FrlfiError> {
    let t = &cells[cell];
    let mut sys = trial_system(cells, t, seed, prefixes, ctx)?;
    let _eval = frlfi_obs::span("eval");
    Ok(match t.metric {
        GridMetric::SuccessRatePct => sys.success_rate(ctx) * 100.0,
        GridMetric::EpisodesToConverge { threshold, check_every, max_extra } => {
            let extra = sys.episodes_to_converge(threshold, check_every, max_extra, ctx)?;
            converge_metric(t, extra, max_extra)
        }
    })
}

/// Builds, fault-injects and trains the system of one trial, ready for
/// evaluation.
///
/// Training is a fault-free prefix, a fork of it with the trial's fault
/// stream, then the suffix with the plan's episode shifted to the fork.
/// The prefix is the one `prefixes` caches for `cells` at the deepest
/// stop up to [`fork_episode`]; no prefix at all means a fresh system.
fn trial_system<T: ForkTrial>(
    cells: &[T],
    t: &T,
    seed: u64,
    prefixes: &Prefixes,
    ctx: &mut BatchInferCtx,
) -> Result<System<T::Config>, FrlfiError> {
    // Observability only — the spans read the clock around training,
    // they cannot affect any trained value.
    let _train = frlfi_obs::span("train");
    let at = fork_episode(t);
    let prefix = {
        let _prefix = frlfi_obs::span("prefix");
        prefixes.get(cells, t, at, ctx)?
    };
    let mut sys = match prefix {
        Some(prefix) => Fleet::fork(&prefix, seed)?,
        None => {
            let mut sys = t.system()?;
            sys.reseed_faults(seed);
            sys
        }
    };
    let from = sys.episodes_done();
    let plan = t
        .fault()
        .and_then(TrialFault::plan)
        .filter(|_| at < t.episodes())
        .map(|p| InjectionPlan { episode: p.episode - from, ..p });
    sys.train(t.episodes() - from, plan.as_ref(), ctx)?;
    Ok(sys)
}

/// Folds an episodes-to-converge result into the reported metric.
fn converge_metric(t: &GridTrial, extra: Option<usize>, max_extra: usize) -> f64 {
    match extra {
        Some(extra) => (t.total_episodes + extra) as f64,
        None => (t.total_episodes + max_extra) as f64,
    }
}

/// Communication schedule of a drone trial, as pure data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DroneComm {
    /// Communicate every `n` episodes.
    Every(usize),
    /// Base interval boosted `mult`× from episode `switch` (Fig. 6b).
    Boost {
        /// Base interval.
        base: usize,
        /// Episode at which the boost starts.
        switch: usize,
        /// Interval multiplier after the switch.
        mult: usize,
    },
}

impl DroneComm {
    /// Materializes the [`CommSchedule`].
    pub fn schedule(&self) -> CommSchedule {
        match *self {
            DroneComm::Every(n) => CommSchedule::every(n),
            DroneComm::Boost { base, switch, mult } => CommSchedule::with_boost(base, switch, mult),
        }
    }
}

/// One DroneNav fine-tuning trial, as pure data plus the shared
/// pre-trained weights (under `Arc`, cheap to clone per cell).
#[derive(Debug, Clone)]
pub struct DroneTrial {
    /// Fleet size (1 = single-drone baseline).
    pub n_drones: usize,
    /// Fine-tuning episodes.
    pub fine_tune_episodes: usize,
    /// Evaluation attempts for the flight-distance metric.
    pub eval_attempts: usize,
    /// System-construction seed.
    pub system_seed: u64,
    /// Communication schedule.
    pub comm: DroneComm,
    /// Corridor layout family (static, or oscillating obstacles).
    /// Applies to fine-tuning and evaluation; the shared pre-trained
    /// weights always come from the nominal static simulator, so a
    /// dynamic trial measures a nominally trained policy deployed into
    /// a non-stationary world.
    pub layout: DroneLayout,
    /// Explicit obstacle-motion parameters for
    /// [`DroneLayout::DynamicObstacles`] trials. `None` leaves the
    /// system's normalization in charge (the default
    /// [`frlfi_envs::ObstacleMotion`] when the layout is dynamic), so
    /// existing trials are bit-unchanged; `Some` sweeps the
    /// non-stationarity strength.
    pub motion: Option<frlfi_envs::ObstacleMotion>,
    /// Per-round drone-dropout probability during fine-tuning.
    pub dropout: Option<f32>,
    /// Shared pre-trained starting weights (resolved lazily).
    pub weights: Arc<PretrainedWeights>,
    /// Fault to inject (None or BER 0 = fault-free).
    pub fault: Option<TrialFault>,
    /// Training-time mitigation, when enabled.
    pub mitigation: Option<TrainingMitigation>,
}

impl DroneTrial {
    /// A fault-free trial with the experiments' defaults.
    pub fn new(g: &DroneGeometry, weights: Arc<PretrainedWeights>, n_drones: usize) -> Self {
        DroneTrial {
            n_drones,
            fine_tune_episodes: g.fine_tune_episodes,
            eval_attempts: g.eval_attempts,
            system_seed: SYSTEM_SEED,
            comm: DroneComm::Every(1),
            layout: DroneLayout::Standard,
            motion: None,
            dropout: None,
            weights,
            fault: None,
            mitigation: None,
        }
    }

    /// Sets the injected fault.
    #[must_use]
    pub fn with_fault(mut self, fault: TrialFault) -> Self {
        self.fault = Some(fault);
        self
    }

    /// The configuration of the system this trial fine-tunes.
    pub(crate) fn system_config(&self) -> DroneSystemConfig {
        DroneSystemConfig {
            n_drones: self.n_drones,
            seed: self.system_seed,
            pretrain_episodes: 0,
            comm: self.comm.schedule(),
            layout: self.layout,
            // An explicit motion seeds `sim.dynamic` directly; `None`
            // keeps the system's normalization (default motion for
            // dynamic layouts), bit-identical to the pre-motion-knob
            // build.
            sim: frlfi_envs::DroneConfig { dynamic: self.motion, ..Default::default() },
            dropout: self.dropout,
            mitigation: self.mitigation,
            ..Default::default()
        }
    }
}

impl ForkTrial for DroneTrial {
    type Config = DroneSystemConfig;

    /// The same system and the very same pre-trained weights (compared
    /// by address: a campaign's cells share one [`PretrainedWeights`]).
    fn same_prefix(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.weights, &other.weights) && self.system_config() == other.system_config()
    }

    fn episodes(&self) -> usize {
        self.fine_tune_episodes
    }

    fn fault(&self) -> Option<&TrialFault> {
        self.fault.as_ref()
    }

    /// The fleet, seeded from the shared pre-trained weights (whose
    /// offline pre-training runs on its own arena the first time).
    fn system(&self) -> Result<DroneFrlSystem, FrlfiError> {
        let mut sys = DroneFrlSystem::new(self.system_config())?;
        sys.set_fleet_weights(self.weights.get())?;
        Ok(sys)
    }

    fn chains(cache: &Prefixes) -> &Chains<Self> {
        &cache.drone
    }
}

/// Evaluates one DroneNav trial: safe flight distance (m) after
/// fine-tuning, pure in `(trial, seed)`; the one-cell case of
/// [`run_drone_cell_batched`] on a fresh prefix cache. Fine-tuning runs each
/// episode's REINFORCE update as one batched forward/backward
/// ([`crate::Fleet::train`]) and the flight-distance evaluation
/// runs corridors in lock-step
/// ([`DroneFrlSystem::safe_flight_distance`]), both on `ctx`.
///
/// # Errors
///
/// As for [`run_grid_trial_batched`].
pub fn run_drone_trial_batched(
    t: &DroneTrial,
    seed: u64,
    ctx: &mut BatchInferCtx,
) -> Result<f64, FrlfiError> {
    run_drone_cell_batched(std::slice::from_ref(t), 0, seed, &Prefixes::default(), ctx)
}

/// Evaluates cell `cell` of a campaign's `cells`, forking from the
/// fault-free prefix in `prefixes` (trained there on first use).
/// Bit-identical to [`run_drone_trial_batched`] on `cells[cell]`. This
/// is the campaign runner's DroneNav work unit.
///
/// # Errors
///
/// As for [`run_grid_trial_batched`].
///
/// # Panics
///
/// Panics if `cell` is out of range.
pub fn run_drone_cell_batched(
    cells: &[DroneTrial],
    cell: usize,
    seed: u64,
    prefixes: &Prefixes,
    ctx: &mut BatchInferCtx,
) -> Result<f64, FrlfiError> {
    let t = &cells[cell];
    let mut sys = trial_system(cells, t, seed, prefixes, ctx)?;
    let _eval = frlfi_obs::span("eval");
    Ok(sys.safe_flight_distance(t.eval_attempts, ctx))
}

/// Renders row-major `(BER × inject episode)` cell statistics as the
/// standard heatmap table.
pub fn heatmap_table(
    title: &str,
    bers: &[f64],
    inject_episodes: &[usize],
    stats: &[CellStats],
    precision: usize,
) -> Table {
    let mut table =
        Table::new(title, "BER", inject_episodes.iter().map(|e| format!("ep{e}")).collect())
            .with_precision(precision);
    for (bi, &ber) in bers.iter().enumerate() {
        let row: Vec<f64> = (0..inject_episodes.len())
            .map(|ei| stats[bi * inject_episodes.len() + ei].mean)
            .collect();
        table.push_row(ber_label(ber), row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One grid trial on a fresh arena.
    fn grid(t: &GridTrial, seed: u64) -> f64 {
        run_grid_trial_batched(t, seed, &mut BatchInferCtx::new()).unwrap()
    }

    /// One drone trial on a fresh arena.
    fn drone(t: &DroneTrial, seed: u64) -> f64 {
        run_drone_trial_batched(t, seed, &mut BatchInferCtx::new()).unwrap()
    }

    #[test]
    fn grid_trial_is_pure_in_seed() {
        let t = GridTrial::new(2, 40).with_fault(TrialFault::transient_int8(
            FaultSide::ServerSide,
            20,
            0.05,
        ));
        assert_eq!(grid(&t, 7).to_bits(), grid(&t, 7).to_bits());
    }

    #[test]
    fn ber_zero_means_no_plan() {
        let f = TrialFault::transient_int8(FaultSide::AgentSide, 5, 0.0);
        assert!(f.plan().is_none());
        let f = TrialFault::transient_int8(FaultSide::AgentSide, 5, 0.1);
        assert_eq!(f.plan().expect("plan").episode, 5);
    }

    /// FNV-1a over the little-endian bytes of each weight's bit
    /// pattern (the same digest as `tests/golden_equivalence.rs`).
    fn weight_digest(weights: &[f32]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in weights {
            for b in w.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }

    /// One trial's trained system, on a fresh prefix cache.
    fn trained<T: ForkTrial>(t: &T, seed: u64, ctx: &mut BatchInferCtx) -> System<T::Config> {
        trial_system(std::slice::from_ref(t), t, seed, &Prefixes::default(), ctx).unwrap()
    }

    fn grid_fleet_digest(sys: &GridFrlSystem) -> u64 {
        use frlfi_rl::Learner as _;
        let w: Vec<f32> =
            (0..sys.n_agents()).flat_map(|i| sys.agent(i).network().snapshot()).collect();
        weight_digest(&w)
    }

    #[test]
    fn arena_trials_match_pinned_per_observation_bits() {
        // Every pinned value and digest below was produced by the
        // per-observation trial path (training driven by
        // `frlfi_rl::run_episode`, now only the test oracle) before
        // the arena became the only trial path. Each trial runs on one arena reused across all of
        // them, as a campaign worker reuses it, and again on a fresh
        // arena: no state may leak from one trial into the next.
        let t = GridTrial::new(2, 40).with_fault(TrialFault::transient_int8(
            FaultSide::AgentSide,
            20,
            0.1,
        ));
        let grid_pins = [
            (7u64, 0xcb11_22f6_7036_bccfu64),
            (8, 0x58b8_b6a3_be64_d06f),
            (9, 0x6156_65de_5e45_d20d),
        ];
        let mut ctx = BatchInferCtx::new();
        for &(seed, digest) in &grid_pins {
            let reused = run_grid_trial_batched(&t, seed, &mut ctx).unwrap();
            assert_eq!(reused.to_bits(), 100.0f64.to_bits(), "grid seed {seed}");
            assert_eq!(reused.to_bits(), grid(&t, seed).to_bits(), "grid seed {seed}");
            let sys = trained(&t, seed, &mut ctx);
            assert_eq!(grid_fleet_digest(&sys), digest, "grid seed {seed}: trained weights");
        }

        let g = drone_geometry(Scale::Smoke);
        let weights = PretrainedWeights::lazy(g.pretrain_episodes);
        let dt = DroneTrial::new(&g, weights.clone(), 2).with_fault(TrialFault::transient_int8(
            FaultSide::AgentSide,
            4,
            1e-2,
        ));
        let drone_pins =
            [(7u64, 106.0, 0x8b92_ea4d_3bb6_adf9u64), (8, 24.0, 0xba5b_9da8_5410_8051)];
        for &(seed, value, digest) in &drone_pins {
            let reused = run_drone_trial_batched(&dt, seed, &mut ctx).unwrap();
            assert_eq!(reused.to_bits(), f64::to_bits(value), "drone seed {seed}");
            assert_eq!(reused.to_bits(), drone(&dt, seed).to_bits(), "drone seed {seed}");
            let sys = trained(&dt, seed, &mut ctx);
            assert_eq!(weight_digest(&sys.fleet_weights()), digest, "drone seed {seed}: weights");
        }

        // Dropout + checkpoint mitigation + a server fault: the
        // detector fires mid-training and restores checkpoints taken
        // from partial rounds, so these digests pin arena training
        // through checkpoint restores. Unlike the pins above, these
        // come from the arena path once the checkpoint stopped storing
        // the consensus of dropout-skipped rounds (before any
        // aggregation, a fresh server's all-zero vector).
        let mt = DroneTrial {
            dropout: Some(0.4),
            mitigation: Some(TrainingMitigation {
                p_percent: 10.0,
                k_consecutive: 2,
                checkpoint_interval: 1,
            }),
            ..DroneTrial::new(&g, weights, 3)
        }
        .with_fault(TrialFault::transient_int8(FaultSide::ServerSide, 4, 0.1));
        let mitigated_pins = [
            (3u64, 0xe326_ddf8_9692_f471u64, (0usize, 4usize)),
            (17, 0xbb95_04d6_7a15_0268, (6, 1)),
            (99, 0x88fb_cc37_0986_1bfb, (3, 1)),
        ];
        for &(seed, digest, detections) in &mitigated_pins {
            let sys = trained(&mt, seed, &mut ctx);
            assert_eq!(weight_digest(&sys.fleet_weights()), digest, "mitigated seed {seed}");
            let stats = sys.mitigation_stats();
            let seen = (stats.agent_detections, stats.server_detections);
            assert_eq!(seen, detections, "seed {seed}");
        }
    }

    #[test]
    fn grid_mitigated_trials_match_pinned_bits() {
        // The GridWorld twin of the mitigated drone pins above: 40%
        // dropout, a server fault at episode 30 and a detector that
        // fires on both sides, so the digests pin checkpoint restores
        // of single agents and of the whole fleet (taken, like those,
        // after the checkpoint stopped storing skipped rounds).
        let t = GridTrial {
            system_seed: 7,
            dropout: Some(0.4),
            mitigation: Some(TrainingMitigation {
                p_percent: 10.0,
                k_consecutive: 2,
                checkpoint_interval: 1,
            }),
            ..GridTrial::new(3, 60)
        }
        .with_fault(TrialFault::transient_int8(FaultSide::ServerSide, 30, 0.1));
        let pins = [
            (3u64, 0xff5e_b2a8_88d9_bbc6u64, (29usize, 4usize)),
            (17, 0x492b_6d43_b6c9_d6fe, (27, 6)),
            (99, 0x35b5_ef12_6941_f9ea, (26, 6)),
        ];
        let mut ctx = BatchInferCtx::new();
        for &(seed, digest, detections) in &pins {
            let sys = trained(&t, seed, &mut ctx);
            assert_eq!(grid_fleet_digest(&sys), digest, "grid seed {seed}: trained weights");
            let stats = sys.mitigation_stats();
            assert_eq!(
                (stats.agent_detections, stats.server_detections),
                detections,
                "grid seed {seed}"
            );
        }
    }

    #[test]
    fn explicit_default_motion_matches_normalized_dynamic_layout_bitwise() {
        // `motion: None` on a dynamic-layout trial lets the system
        // normalize to the default ObstacleMotion; spelling that
        // default out must be the *same trial*, bit for bit — the
        // contract that keeps the golden-pinned drone-dynamic builtin
        // unchanged when specs start carrying explicit motion.
        let g = drone_geometry(Scale::Smoke);
        let weights = PretrainedWeights::lazy(g.pretrain_episodes);
        let fault = TrialFault::transient_int8(FaultSide::AgentSide, 4, 1e-2);
        let normalized = DroneTrial {
            layout: DroneLayout::DynamicObstacles,
            ..DroneTrial::new(&g, weights.clone(), 2)
        }
        .with_fault(fault);
        let explicit = DroneTrial {
            layout: DroneLayout::DynamicObstacles,
            motion: Some(frlfi_envs::ObstacleMotion::default()),
            ..DroneTrial::new(&g, weights, 2)
        }
        .with_fault(fault);
        assert_eq!(drone(&normalized, 11).to_bits(), drone(&explicit, 11).to_bits());
    }
}
