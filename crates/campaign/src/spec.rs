//! Declarative scenario specifications.
//!
//! A [`Scenario`] is pure data: which system, which fleet, which fault
//! model, which mitigation, at which scale. Geometry defaults (BER
//! grids, injection episodes, repeats) resolve from the paper's
//! per-scale campaign geometry at *expansion* time, so one scenario
//! file works at every [`Scale`] and a figure campaign expands to
//! exactly the trial cells its retired figure driver ran (the
//! expansion digests in `registry.rs` pin them).

use frlfi::experiments::harness::{
    drone_geometry, grid_geometry, DroneComm, DroneTrial, GridMetric, GridTrial, Prefixes,
    PretrainedWeights, TrialFault,
};
use frlfi::experiments::study::{StudyGeometry, StudyKind};
use frlfi::experiments::{ber_label, DEFAULT_SEED, SYSTEM_SEED};
use frlfi::quant::QFormat;
use frlfi::{DroneLayout, GridLayout, ReprKind, Scale, TrainingMitigation};
use frlfi_fault::{FaultModel, FaultSide};
use serde::{DeError, Deserialize, Serialize};

use crate::fmt::toml;

/// A scenario-level parse or validation failure.
///
/// Everything a spec can get wrong — TOML syntax, unknown fields,
/// inconsistent knob combinations, out-of-range values — surfaces here
/// at *declaration* time ([`Scenario::from_toml`] / [`Scenario::expand`]),
/// never as a panic inside a campaign worker thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    message: String,
}

impl SpecError {
    fn new(message: impl Into<String>) -> Self {
        SpecError { message: message.into() }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for SpecError {}

/// Which of the paper's two systems a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SystemKind {
    /// §IV-A: federated Q-learning in 10×10 mazes.
    GridWorld,
    /// §IV-B: federated REINFORCE drone fleet.
    DroneNav,
}

/// Fault side, spec-level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SideKind {
    /// One agent's policy memory.
    Agent,
    /// Server memory during aggregation.
    Server,
}

impl SideKind {
    fn side(self) -> FaultSide {
        match self {
            SideKind::Agent => FaultSide::AgentSide,
            SideKind::Server => FaultSide::ServerSide,
        }
    }
}

/// Fault model, spec-level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelKind {
    /// Independent transient multi-bit flips (the paper's default).
    TransientMulti,
    /// Bits stuck at 0.
    StuckAt0,
    /// Bits stuck at 1.
    StuckAt1,
}

impl ModelKind {
    fn model(self) -> FaultModel {
        match self {
            ModelKind::TransientMulti => FaultModel::TransientMulti,
            ModelKind::StuckAt0 => FaultModel::StuckAt0,
            ModelKind::StuckAt1 => FaultModel::StuckAt1,
        }
    }
}

/// Fault-surface representation, spec-level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReprSpec {
    /// Symmetric int8 codes fit at injection time (deployment format).
    Int8,
    /// Raw IEEE-754 f32.
    F32,
    /// Fixed point Q(1,4,11).
    Q4_11,
    /// Fixed point Q(1,7,8).
    Q7_8,
    /// Fixed point Q(1,10,5).
    Q10_5,
}

impl ReprSpec {
    fn repr(self) -> ReprKind {
        match self {
            ReprSpec::Int8 => ReprKind::Int8,
            ReprSpec::F32 => ReprKind::F32,
            ReprSpec::Q4_11 => ReprKind::Fixed(QFormat::Q4_11),
            ReprSpec::Q7_8 => ReprKind::Fixed(QFormat::Q7_8),
            ReprSpec::Q10_5 => ReprKind::Fixed(QFormat::Q10_5),
        }
    }
}

/// Environment options.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnvSpec {
    /// Layout family — GridWorld maze jitter or DroneNav oscillating
    /// obstacles, depending on the scenario's system.
    pub layout: LayoutKind,
    /// Obstacle-motion parameters for DroneNav
    /// [`LayoutKind::DynamicObstacles`] layouts: how far and how fast
    /// the obstacles oscillate. `None` = the environment default
    /// (byte-identical to pre-knob campaigns); sweeping it varies the
    /// non-stationarity strength.
    pub motion: Option<MotionSpec>,
}

impl Default for EnvSpec {
    fn default() -> Self {
        EnvSpec { layout: LayoutKind::Standard, motion: None }
    }
}

/// Obstacle-motion parameters, spec-level (DroneNav dynamic layouts).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MotionSpec {
    /// Peak displacement from an obstacle's base position, metres.
    pub amplitude: f64,
    /// Oscillation period in environment steps.
    pub period: f64,
}

impl MotionSpec {
    fn motion(&self) -> frlfi::envs::ObstacleMotion {
        frlfi::envs::ObstacleMotion { amplitude: self.amplitude as f32, period: self.period as f32 }
    }
}

/// Layout family, spec-level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LayoutKind {
    /// The paper's fixed mazes / static corridors.
    Standard,
    /// GridWorld: obstacles re-jitter every episode. DroneNav:
    /// obstacles oscillate during the episode.
    DynamicObstacles,
}

impl LayoutKind {
    fn layout(self) -> GridLayout {
        match self {
            LayoutKind::Standard => GridLayout::Standard,
            LayoutKind::DynamicObstacles => GridLayout::DynamicObstacles,
        }
    }

    fn drone_layout(self) -> DroneLayout {
        match self {
            LayoutKind::Standard => DroneLayout::Standard,
            LayoutKind::DynamicObstacles => DroneLayout::DynamicObstacles,
        }
    }
}

/// Fleet options.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FleetSpec {
    /// Fixed fleet size (`None` = the geometry default; `1` = the
    /// single-agent/drone baseline).
    pub agents: Option<usize>,
    /// When non-empty, the campaign sweeps fleet size as a cell axis
    /// (heterogeneous-fleet study): cells = size × BER, with the fault
    /// injected mid-training.
    pub agents_sweep: Vec<usize>,
    /// Per-round agent/drone-dropout probability, in `[0, 1)`.
    pub dropout: Option<f64>,
    /// When non-empty, the campaign sweeps the communication schedule
    /// as a cell axis (DroneNav, Fig. 6b): multiplier `m` stretches the
    /// interval `m`× from 3/5 of fine-tuning on (`1` = every episode
    /// throughout). Each row runs fault-free, then with a BER 1e-2
    /// fault on each side halfway through the stretched phase.
    pub comm_boosts: Vec<usize>,
}

/// Fault options. Empty vectors mean "use the per-scale geometry
/// default".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Which side the fault strikes.
    pub side: SideKind,
    /// Fault model.
    pub model: ModelKind,
    /// Fault-surface representation.
    pub repr: ReprSpec,
    /// BER grid (empty = geometry default).
    pub bers: Vec<f64>,
    /// Injection episodes (empty = geometry default).
    pub inject_episodes: Vec<usize>,
    /// When non-empty, the campaign sweeps these sides as a cell axis
    /// instead of striking `side` only.
    pub sides: Vec<SideKind>,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            side: SideKind::Agent,
            model: ModelKind::TransientMulti,
            repr: ReprSpec::Int8,
            bers: Vec::new(),
            inject_episodes: Vec::new(),
            sides: Vec::new(),
        }
    }
}

/// Training-loop overrides.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TrainSpec {
    /// Training (GridWorld) / fine-tuning (DroneNav) episodes.
    pub total_episodes: Option<usize>,
    /// Offline pre-training episodes (DroneNav).
    pub pretrain_episodes: Option<usize>,
    /// Flight-distance evaluation attempts (DroneNav).
    pub eval_attempts: Option<usize>,
    /// Reported metric (GridWorld; `None` = the success rate).
    pub metric: Option<MetricSpec>,
}

/// What a GridWorld trial reports instead of its success rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricSpec {
    /// Training episodes until the greedy success rate is back at 96%
    /// (Fig. 3e), checked every 20/25/50 episodes (smoke/bench/full)
    /// for at most twice the training episodes. The fault defaults to
    /// a late one, at 9/10 of training, at every nonzero geometry BER.
    EpisodesToConverge,
}

/// Training-time mitigation parameters (enables the checkpoint scheme).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MitigationSpec {
    /// Reward-drop threshold in percent.
    pub p_percent: f64,
    /// Consecutive dropping episodes before detection.
    pub k_consecutive: usize,
    /// Checkpoint update interval in communication rounds.
    pub checkpoint_interval: usize,
}

impl MitigationSpec {
    fn mitigation(&self) -> TrainingMitigation {
        TrainingMitigation {
            p_percent: self.p_percent as f32,
            k_consecutive: self.k_consecutive,
            checkpoint_interval: self.checkpoint_interval,
        }
    }
}

/// Which train-once / eval-many study a scenario runs, spec-level.
/// Mirrors [`StudyKind`]; a study scenario expands into a task DAG —
/// model-training tasks that publish weight artifacts, plus eval tasks
/// gated on those artifacts — instead of a flat train-per-trial sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StudySpec {
    /// Fig. 4: fleet-size resilience vs the single-agent baseline.
    Fig4,
    /// Fig. 8a: GridWorld inference mitigation (range detection).
    Fig8a,
    /// Fig. 8b: DroneNav inference mitigation (range detection).
    Fig8b,
    /// §IV-B-3: fixed-point data-type resilience.
    Datatypes,
    /// §IV-C: per-layer resilience.
    Layers,
}

impl StudySpec {
    /// The core-crate study this spec selects.
    pub fn kind(self) -> StudyKind {
        match self {
            StudySpec::Fig4 => StudyKind::Fig4,
            StudySpec::Fig8a => StudyKind::Fig8Grid,
            StudySpec::Fig8b => StudyKind::Fig8Drone,
            StudySpec::Datatypes => StudyKind::Datatypes,
            StudySpec::Layers => StudyKind::Layers,
        }
    }

    /// The system the study runs on (fixed per study).
    pub fn system(self) -> SystemKind {
        match self {
            StudySpec::Fig8b => SystemKind::DroneNav,
            _ => SystemKind::GridWorld,
        }
    }
}

/// Model-artifact options (study scenarios only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Train each model exactly once per campaign and share the
    /// serialized weight artifact across every eval task. Studies
    /// require `true` — it is the contract that makes N-worker runs
    /// byte-identical to the sequential drivers.
    pub shared: bool,
}

/// A complete declarative campaign scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name (also the default output-directory stem).
    pub name: String,
    /// Which system runs.
    pub system: SystemKind,
    /// Experiment scale; resolves geometry defaults.
    pub scale: Scale,
    /// Train-once / eval-many study (`None` = a classic sweep where
    /// every trial trains its own model).
    pub study: Option<StudySpec>,
    /// Model-artifact options; required (`shared = true`) with `study`.
    pub model: Option<ModelSpec>,
    /// Repeats per cell (`None` = geometry default).
    pub repeats: Option<usize>,
    /// Campaign master seed (`None` = the experiments' default).
    pub master_seed: Option<u64>,
    /// System-construction seed (`None` = the experiments' default).
    pub system_seed: Option<u64>,
    /// Environment options.
    pub env: EnvSpec,
    /// Fleet options.
    pub fleet: FleetSpec,
    /// Fault options.
    pub fault: FaultSpec,
    /// Training-loop overrides.
    pub train: TrainSpec,
    /// Mitigation (None = unmitigated).
    pub mitigation: Option<MitigationSpec>,
}

impl Scenario {
    /// A fault-free GridWorld scenario skeleton at `scale`.
    pub fn new(name: impl Into<String>, system: SystemKind, scale: Scale) -> Self {
        Scenario {
            name: name.into(),
            system,
            scale,
            study: None,
            model: None,
            repeats: None,
            master_seed: None,
            system_seed: None,
            env: EnvSpec::default(),
            fleet: FleetSpec::default(),
            fault: FaultSpec::default(),
            train: TrainSpec::default(),
            mitigation: None,
        }
    }

    /// A train-once / eval-many study scenario skeleton at `scale`:
    /// the study's system, plus the `model = { shared = true }`
    /// artifact contract every study requires.
    pub fn study(name: impl Into<String>, study: StudySpec, scale: Scale) -> Self {
        let mut s = Scenario::new(name, study.system(), scale);
        s.study = Some(study);
        s.model = Some(ModelSpec { shared: true });
        s
    }

    /// Parses a scenario from TOML text. The `env` / `fleet` / `fault`
    /// / `train` sections (and any keys within them) may be omitted and
    /// default; `name`, `system` and `scale` are required.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for syntax errors, unknown
    /// fields/variants, or shape mismatches.
    pub fn from_toml(text: &str) -> Result<Self, SpecError> {
        let mut value = toml::parse(text).map_err(|e| SpecError::new(e.to_string()))?;
        fill_section_defaults(&mut value);
        Scenario::deserialize(&value).map_err(|e: DeError| SpecError::new(e.to_string()))
    }

    /// Renders the scenario as TOML.
    pub fn to_toml(&self) -> String {
        toml::render(&self.serialize()).expect("scenario model is TOML-representable")
    }

    /// Expands the scenario into concrete campaign cells.
    ///
    /// Every knob that would otherwise fail a trial mid-campaign, deep
    /// inside a worker thread, is validated here, at declaration time.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for inconsistent specs (e.g. an
    /// out-of-range dropout, a zero fleet, or DroneNav-only training
    /// knobs on a GridWorld scenario).
    pub fn expand(&self) -> Result<Campaign, SpecError> {
        self.validate_common()?;
        if let Some(study) = self.study {
            return self.expand_study(study);
        }
        if self.model.is_some() {
            return Err(SpecError::new(
                "model applies to study scenarios; set `study = \"Fig4\"` (or another study) \
                 to use shared model artifacts",
            ));
        }
        match self.system {
            SystemKind::GridWorld => self.expand_grid(),
            SystemKind::DroneNav => self.expand_drone(),
        }
    }

    /// Expands a train-once / eval-many study into its task DAG: the
    /// study geometry fixes every knob (rows, columns, repeats, seeds,
    /// models), so a study scenario is *identification*, not
    /// parameterization — any classic sweep override is rejected here
    /// rather than silently ignored, because honoring one would break
    /// the byte-identity contract with the sequential driver.
    fn expand_study(&self, study: StudySpec) -> Result<Campaign, SpecError> {
        let kind = study.kind();
        match self.model {
            Some(ModelSpec { shared: true }) => {}
            Some(ModelSpec { shared: false }) => {
                return Err(SpecError::new(
                    "model.shared = false is unsupported for study scenarios: every eval task \
                     loads the published weight artifact of its train task",
                ));
            }
            None => {
                return Err(SpecError::new(format!(
                    "study \"{}\" trains once and evaluates many times from a shared weight \
                     artifact; add `model = {{ shared = true }}`",
                    kind.name()
                )));
            }
        }
        if self.system != study.system() {
            return Err(SpecError::new(format!(
                "study \"{}\" runs on {:?}, not {:?}",
                kind.name(),
                study.system(),
                self.system
            )));
        }
        if self.env != EnvSpec::default()
            || self.fleet != FleetSpec::default()
            || self.fault != FaultSpec::default()
            || self.train != TrainSpec::default()
            || self.mitigation.is_some()
        {
            return Err(SpecError::new(format!(
                "study \"{}\" fixes its own geometry (env/fleet/fault/train/mitigation \
                 sections must stay default): the study IS the figure, byte-identical to its \
                 sequential driver",
                kind.name()
            )));
        }
        let g = kind.geometry(self.scale).map_err(|e| SpecError::new(e.to_string()))?;
        if let Some(r) = self.repeats {
            if r != g.repeats {
                return Err(SpecError::new(format!(
                    "study \"{}\" at {:?} scale fixes repeats = {} (got {r}); omit `repeats`",
                    kind.name(),
                    self.scale,
                    g.repeats
                )));
            }
        }
        if let Some(m) = self.master_seed {
            if m != g.master_seed() {
                return Err(SpecError::new(format!(
                    "study \"{}\" fixes master_seed = {:#x} (got {m:#x}); omit `master_seed`",
                    kind.name(),
                    g.master_seed()
                )));
            }
        }
        if let Some(s) = self.system_seed {
            if s != SYSTEM_SEED {
                return Err(SpecError::new(format!(
                    "study \"{}\" fixes system_seed = {SYSTEM_SEED} (got {s}); omit \
                     `system_seed`",
                    kind.name()
                )));
            }
        }
        Ok(Campaign {
            scenario: self.clone(),
            repeats: g.repeats,
            master_seed: g.master_seed(),
            grid: CellGrid::Labelled {
                axis: "row".into(),
                rows: g.row_keys.clone(),
                cols: g.columns.clone(),
            },
            trials: Trials::Study(g),
            prefixes: Prefixes::default(),
        })
    }

    /// System-independent knob validation.
    fn validate_common(&self) -> Result<(), SpecError> {
        if let Some(d) = self.fleet.dropout {
            // Validate the f32 the trial actually runs with: an f64
            // just below 1.0 rounds up to 1.0f32, which the system
            // constructors reject — that must fail here, not as a
            // worker-thread panic.
            if !(0.0..1.0).contains(&d) || !(0.0..1.0).contains(&(d as f32)) {
                return Err(SpecError::new(format!("fleet.dropout = {d} must lie in [0, 1)")));
            }
        }
        if self.fleet.agents == Some(0) {
            return Err(SpecError::new("fleet.agents must be ≥ 1"));
        }
        if self.repeats == Some(0) {
            return Err(SpecError::new("repeats must be ≥ 1"));
        }
        if self.train.eval_attempts == Some(0) {
            // Zero attempts would make every flight-distance trial a
            // silent 0.0, not an error.
            return Err(SpecError::new("train.eval_attempts must be ≥ 1"));
        }
        for &b in &self.fault.bers {
            if !(0.0..=1.0).contains(&b) {
                return Err(SpecError::new(format!("fault.bers entry {b} must lie in [0, 1]")));
            }
        }
        if self.train.total_episodes == Some(0) {
            // No episode runs, so no injection could ever fire.
            return Err(SpecError::new("train.total_episodes must be ≥ 1"));
        }
        if let Some(m) = &self.mitigation {
            // As for dropout, check the f32 the detector runs with.
            let p = m.p_percent as f32;
            if !(p.is_finite() && p > 0.0) || m.k_consecutive == 0 || m.checkpoint_interval == 0 {
                return Err(SpecError::new(format!(
                    "mitigation p_percent = {} must be finite and > 0 (as an f32), and \
                     k_consecutive = {} and checkpoint_interval = {} must be ≥ 1",
                    m.p_percent, m.k_consecutive, m.checkpoint_interval
                )));
            }
            if self.fleet.agents == Some(1) || self.fleet.agents_sweep.contains(&1) {
                return Err(SpecError::new(
                    "mitigation restores agents from the server's checkpoint, so it needs a \
                     fleet of ≥ 2 agents (fleet.agents and every agents_sweep entry): one agent \
                     has no server",
                ));
            }
        }
        Ok(())
    }

    fn expand_grid(&self) -> Result<Campaign, SpecError> {
        let g = grid_geometry(self.scale);
        let total_episodes = self.train.total_episodes.unwrap_or(g.total_episodes);
        if self.train.pretrain_episodes.is_some() || self.train.eval_attempts.is_some() {
            return Err(SpecError::new(
                "pretrain_episodes / eval_attempts apply to DroneNav scenarios",
            ));
        }
        if self.env.motion.is_some() {
            return Err(SpecError::new(
                "env.motion applies to DroneNav scenarios (GridWorld dynamic layouts re-jitter \
                 per episode and have no motion parameters)",
            ));
        }
        if !self.fleet.comm_boosts.is_empty() {
            return Err(SpecError::new("fleet.comm_boosts applies to DroneNav scenarios"));
        }
        let (metric, defaults) = match self.train.metric {
            None => (GridMetric::SuccessRatePct, (g.bers, g.inject_episodes)),
            Some(MetricSpec::EpisodesToConverge) => (
                GridMetric::EpisodesToConverge {
                    threshold: 0.96,
                    check_every: self.scale.pick(20, 25, 50),
                    max_extra: total_episodes * 2,
                },
                (g.bers.into_iter().filter(|&b| b > 0.0).collect(), vec![total_episodes * 9 / 10]),
            ),
        };
        let base = GridTrial {
            n_agents: self.fleet.agents.unwrap_or(g.n_agents),
            total_episodes,
            system_seed: self.system_seed.unwrap_or(SYSTEM_SEED),
            layout: self.env.layout.layout(),
            dropout: self.fleet.dropout.map(|d| d as f32),
            fault: None,
            mitigation: self.mitigation.as_ref().map(MitigationSpec::mitigation),
            metric,
        };
        let (grid, cells) = self.fault_cells(defaults, total_episodes, "total_episodes")?;
        let trials = cells
            .into_iter()
            .map(|c| GridTrial {
                n_agents: c.agents.unwrap_or(base.n_agents),
                fault: c.fault,
                ..base.clone()
            })
            .collect();
        Ok(Campaign {
            scenario: self.clone(),
            repeats: self.repeats.unwrap_or(g.repeats),
            master_seed: self.master_seed.unwrap_or(DEFAULT_SEED),
            grid,
            trials: Trials::Grid(trials),
            prefixes: Prefixes::default(),
        })
    }

    fn expand_drone(&self) -> Result<Campaign, SpecError> {
        let g = drone_geometry(self.scale);
        let fine_tune = self.train.total_episodes.unwrap_or(g.fine_tune_episodes);
        if self.train.metric.is_some() {
            return Err(SpecError::new("train.metric applies to GridWorld scenarios"));
        }
        if let Some(m) = self.env.motion {
            if self.env.layout != LayoutKind::DynamicObstacles {
                return Err(SpecError::new(
                    "env.motion requires env.layout = \"DynamicObstacles\" (static corridors \
                     have nothing to move)",
                ));
            }
            // Validate the f32 values the simulator actually runs
            // with: an f64 period small enough to round to 0.0f32
            // would make every obstacle position NaN, which the
            // system constructor rejects — fail here, at declaration.
            let motion = m.motion();
            if !motion.amplitude.is_finite() || !motion.period.is_finite() || motion.period <= 0.0 {
                return Err(SpecError::new(format!(
                    "env.motion amplitude {} / period {} must be finite with period > 0 \
                     (as f32 values)",
                    m.amplitude, m.period
                )));
            }
        }
        let pretrain = self.train.pretrain_episodes.unwrap_or(g.pretrain_episodes);
        let weights = PretrainedWeights::lazy(pretrain);
        let base = DroneTrial {
            n_drones: self.fleet.agents.unwrap_or(g.n_drones),
            fine_tune_episodes: fine_tune,
            eval_attempts: self.train.eval_attempts.unwrap_or(g.eval_attempts),
            system_seed: self.system_seed.unwrap_or(SYSTEM_SEED),
            comm: DroneComm::Every(1),
            layout: self.env.layout.drone_layout(),
            motion: self.env.motion.as_ref().map(MotionSpec::motion),
            dropout: self.fleet.dropout.map(|d| d as f32),
            weights,
            fault: None,
            mitigation: self.mitigation.as_ref().map(MitigationSpec::mitigation),
        };
        let (grid, cells) =
            self.fault_cells((g.bers, g.inject_episodes), fine_tune, "fine_tune_episodes")?;
        let trials = cells
            .into_iter()
            .map(|c| DroneTrial {
                n_drones: c.agents.unwrap_or(base.n_drones),
                comm: c.comm.unwrap_or(base.comm),
                fault: c.fault,
                ..base.clone()
            })
            .collect();
        Ok(Campaign {
            scenario: self.clone(),
            repeats: self.repeats.unwrap_or(g.repeats),
            master_seed: self.master_seed.unwrap_or(DEFAULT_SEED),
            grid,
            trials: Trials::Drone(trials),
            prefixes: Prefixes::default(),
        })
    }

    /// The fault cells GridWorld and DroneNav scenarios share, on one of
    /// three layouts:
    ///
    /// * BER × injection episode (× side, with `fault.sides`);
    /// * with `fleet.agents_sweep`, fleet size (× side) × BER, the fault
    ///   injected mid-training;
    /// * with `fleet.comm_boosts`, comm multiplier × (no fault, then each
    ///   side at BER 1e-2 halfway through the stretched phase).
    ///
    /// `defaults` are the `(bers, inject_episodes)` of omitted keys, and
    /// `trained` the episode count (`what` names its key in errors).
    fn fault_cells(
        &self,
        defaults: (Vec<f64>, Vec<usize>),
        trained: usize,
        what: &str,
    ) -> Result<(CellGrid, Vec<Cell>), SpecError> {
        let f = &self.fault;
        let sides = if f.sides.is_empty() { std::slice::from_ref(&f.side) } else { &f.sides };
        let fault = |side: SideKind, episode: usize, ber: f64| TrialFault {
            episode,
            side: side.side(),
            model: f.model.model(),
            repr: f.repr.repr(),
            ber,
        };
        let sweep = &self.fleet.agents_sweep;
        let boosts = &self.fleet.comm_boosts;
        if !boosts.is_empty() {
            if !sweep.is_empty() || !f.bers.is_empty() || !f.inject_episodes.is_empty() {
                return Err(SpecError::new(
                    "fleet.comm_boosts fixes its faults (BER 1e-2 halfway through the \
                     stretched phase): leave fault.bers, fault.inject_episodes and \
                     fleet.agents_sweep empty",
                ));
            }
            if boosts.contains(&0) {
                return Err(SpecError::new("comm_boosts entries must be ≥ 1"));
            }
            let switch = trained * 3 / 5;
            let (episode, ber) = (switch + (trained - switch) / 2, 1e-2);
            let comm = |mult| match mult {
                1 => DroneComm::Every(1),
                _ => DroneComm::Boost { base: 1, switch, mult },
            };
            let rows = boosts
                .iter()
                .map(|&m| {
                    let saving = comm(m).schedule().cost_saving_vs_base(trained);
                    format!("{m}x interval ({:.1}% comm saved)", saving * 100.0)
                })
                .collect();
            let cols = std::iter::once("no fault".to_owned())
                .chain(
                    sides.iter().map(|s| format!("{} {} @ ep{episode}", s.side(), ber_label(ber))),
                )
                .collect();
            let cells = boosts
                .iter()
                .flat_map(|&m| {
                    let faults = sides.iter().map(|&s| Some(fault(s, episode, ber)));
                    std::iter::once(None).chain(faults).map(move |fault| Cell {
                        agents: None,
                        comm: Some(comm(m)),
                        fault,
                    })
                })
                .collect();
            return Ok((CellGrid::Labelled { axis: "schedule".into(), rows, cols }, cells));
        }
        let bers = if f.bers.is_empty() { defaults.0 } else { f.bers.clone() };
        let episodes =
            if f.inject_episodes.is_empty() { defaults.1 } else { f.inject_episodes.clone() };
        let cell = |agents, side, episode, ber| Cell {
            agents,
            comm: None,
            fault: Some(fault(side, episode, ber)),
        };
        if sweep.is_empty() {
            reachable(&episodes, trained, what)?;
            let mut cells = Vec::with_capacity(bers.len() * episodes.len() * sides.len());
            for &ber in &bers {
                for &ep in &episodes {
                    cells.extend(sides.iter().map(|&side| cell(None, side, ep, ber)));
                }
            }
            let grid = if f.sides.is_empty() {
                CellGrid::BerByEpisode { bers, episodes }
            } else {
                let cols = episodes
                    .iter()
                    .flat_map(|e| sides.iter().map(move |s| format!("{} @ ep{e}", s.side())))
                    .collect();
                let rows = bers.iter().map(|&b| ber_label(b)).collect();
                CellGrid::Labelled { axis: "BER".into(), rows, cols }
            };
            Ok((grid, cells))
        } else {
            if sweep.contains(&0) {
                return Err(SpecError::new("agents_sweep entries must be ≥ 1"));
            }
            let (mut rows, mut cells) = (Vec::new(), Vec::new());
            for &n in sweep {
                for &side in sides {
                    rows.push(if f.sides.is_empty() {
                        format!("n={n}")
                    } else {
                        format!("n={n} {}", side.side())
                    });
                    cells.extend(bers.iter().map(|&ber| cell(Some(n), side, trained / 2, ber)));
                }
            }
            let cols = bers.iter().map(|b| format!("ber {b}")).collect();
            Ok((CellGrid::Labelled { axis: "fleet".into(), rows, cols }, cells))
        }
    }
}

/// One cell's departures from its scenario's base trial.
struct Cell {
    /// Fleet size, in a fleet sweep.
    agents: Option<usize>,
    /// Communication schedule, in a comm sweep.
    comm: Option<DroneComm>,
    /// The injected fault (`None` in a comm sweep's fault-free column).
    fault: Option<TrialFault>,
}

/// Rejects an injection episode the training loop never reaches: such a
/// cell would report fault-free values under a faulty BER label.
fn reachable(inject_episodes: &[usize], trained: usize, what: &str) -> Result<(), SpecError> {
    match inject_episodes.iter().find(|&&ep| ep >= trained) {
        Some(ep) => Err(SpecError::new(format!(
            "fault.inject_episodes entry {ep} is never reached: training runs episodes \
             0..{trained} ({what} = {trained})"
        ))),
        None => Ok(()),
    }
}

/// Fills omitted sections/keys of a parsed scenario document with
/// their defaults (top-level required keys are left alone).
fn fill_section_defaults(value: &mut serde::Value) {
    let Some(table) = value.as_table_mut() else { return };
    let defaults = [
        ("env", EnvSpec::default().serialize()),
        ("fleet", FleetSpec::default().serialize()),
        ("fault", FaultSpec::default().serialize()),
        ("train", TrainSpec::default().serialize()),
    ];
    for (key, default) in defaults {
        match table.get_mut(key) {
            None => {
                table.insert(key.to_owned(), default);
            }
            Some(existing) => merge_missing(existing, &default),
        }
    }
    if let Some(m) = table.get_mut("mitigation") {
        let d = MitigationSpec { p_percent: 25.0, k_consecutive: 50, checkpoint_interval: 5 }
            .serialize();
        merge_missing(m, &d);
    }
    if let Some(m) = table.get_mut("model") {
        // `model = {}` means the only supported artifact contract.
        merge_missing(m, &ModelSpec { shared: true }.serialize());
    }
}

fn merge_missing(dst: &mut serde::Value, defaults: &serde::Value) {
    if let (Some(dt), Some(df)) = (dst.as_table_mut(), defaults.as_table()) {
        for (k, v) in df {
            dt.entry(k.clone()).or_insert_with(|| v.clone());
        }
    }
}

/// The cell-axis structure, for labelling results.
#[derive(Debug, Clone, PartialEq)]
pub enum CellGrid {
    /// Rows = BERs, columns = injection episodes (the heatmap layout).
    BerByEpisode {
        /// Row axis.
        bers: Vec<f64>,
        /// Column axis.
        episodes: Vec<usize>,
    },
    /// Pre-rendered axes: a study's own row keys and columns, or a
    /// fleet, side or comm sweep's.
    Labelled {
        /// Header of the row-label column.
        axis: String,
        /// Row labels, in row order.
        rows: Vec<String>,
        /// Column headers.
        cols: Vec<String>,
    },
}

impl CellGrid {
    /// Rows × columns — must equal the trial count.
    pub fn cell_count(&self) -> usize {
        match self {
            CellGrid::BerByEpisode { bers, episodes } => bers.len() * episodes.len(),
            CellGrid::Labelled { rows, cols, .. } => rows.len() * cols.len(),
        }
    }
}

/// The concrete trial cells of an expanded campaign.
#[derive(Debug, Clone)]
pub enum Trials {
    /// GridWorld training trials.
    Grid(Vec<GridTrial>),
    /// DroneNav fine-tuning trials.
    Drone(Vec<DroneTrial>),
    /// Train-once / eval-many study: eval cells over frozen weight
    /// artifacts, preceded by the geometry's model-training tasks.
    Study(StudyGeometry),
}

impl Trials {
    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            Trials::Grid(t) => t.len(),
            Trials::Drone(t) => t.len(),
            Trials::Study(g) => g.cells(),
        }
    }

    /// Whether the campaign has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A scenario expanded into concrete, runnable cells.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The source scenario.
    pub scenario: Scenario,
    /// Repeats per cell.
    pub repeats: usize,
    /// Master seed of the `derive_seed` scheme.
    pub master_seed: u64,
    /// Cell-axis structure.
    pub grid: CellGrid,
    /// The cells, row-major with respect to [`Campaign::grid`].
    pub trials: Trials,
    /// Fault-free training prefixes shared by this campaign's trials,
    /// trained on first use.
    prefixes: Prefixes,
}

impl Campaign {
    /// Total `(cell × repeat)` trial count. Model-training tasks are
    /// *not* trials: they prefix the task id space (see
    /// [`Campaign::n_models`]) and publish artifacts, not records.
    pub fn total_trials(&self) -> usize {
        self.trials.len() * self.repeats
    }

    /// The study geometry, when this campaign is a task DAG.
    pub fn study(&self) -> Option<&StudyGeometry> {
        match &self.trials {
            Trials::Study(g) => Some(g),
            _ => None,
        }
    }

    /// Number of model-training tasks that precede the eval trials in
    /// the task id space (`0` for classic sweep campaigns, where every
    /// trial trains its own model).
    pub fn n_models(&self) -> usize {
        self.study().map_or(0, |g| g.models().len())
    }

    /// The fault-free training prefixes this campaign's trials have
    /// forked from so far.
    pub fn prefixes(&self) -> &Prefixes {
        &self.prefixes
    }

    /// The seed of flat trial `cell * repeats + repeat` — the single
    /// place both seed schemes live: classic sweeps derive from the
    /// campaign master seed by flat index, studies reproduce the
    /// sequential drivers' per-row/per-cell seed streams.
    pub fn trial_seed(&self, flat: usize) -> u64 {
        match &self.trials {
            Trials::Study(g) => g.trial_seed_flat(flat),
            _ => frlfi::tensor::derive_seed(self.master_seed, flat as u64),
        }
    }

    /// Evaluates one trial: pure in `(cell, seed)`. The trial trains
    /// through `ctx`'s cached-activation arena kernels and runs its
    /// post-training evaluation in lock-step on the same arena; a
    /// runner worker reuses one arena across every trial it runs.
    ///
    /// # Errors
    ///
    /// Returns an error when the trial fails mid-run (e.g. a mis-shaped
    /// observation reaching a policy network); the runner quarantines
    /// such trials instead of crashing a worker.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn run_trial(
        &self,
        cell: usize,
        seed: u64,
        ctx: &mut frlfi::nn::BatchInferCtx,
    ) -> Result<f64, frlfi::FrlfiError> {
        match &self.trials {
            Trials::Grid(t) => frlfi::experiments::harness::run_grid_cell_batched(
                t,
                cell,
                seed,
                &self.prefixes,
                ctx,
            ),
            Trials::Drone(t) => frlfi::experiments::harness::run_drone_cell_batched(
                t,
                cell,
                seed,
                &self.prefixes,
                ctx,
            ),
            Trials::Study(g) => Err(frlfi::FrlfiError::BadConfig {
                detail: format!(
                    "study \"{}\" trials evaluate against a trained-model context \
                     (StudyGeometry::eval_cell), not the train-per-trial path",
                    g.kind.name()
                ),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toml_round_trip_preserves_scenario() {
        let mut s = Scenario::new("demo", SystemKind::GridWorld, Scale::Smoke);
        s.fault.side = SideKind::Server;
        s.fault.bers = vec![0.0, 0.05];
        s.fleet.dropout = Some(0.25);
        s.mitigation =
            Some(MitigationSpec { p_percent: 25.0, k_consecutive: 4, checkpoint_interval: 5 });
        let text = s.to_toml();
        let back = Scenario::from_toml(&text).expect("round trip");
        assert_eq!(s, back, "TOML:\n{text}");
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let mut text = Scenario::new("x", SystemKind::GridWorld, Scale::Smoke).to_toml();
        text.push_str("\ntypo_field = 3\n");
        let err = Scenario::from_toml(&text).unwrap_err().to_string();
        assert!(err.contains("typo_field"), "{err}");
    }

    #[test]
    fn out_of_range_dropout_fails_at_expansion_not_in_a_worker() {
        // The exact satellite case: a bad TOML must die with a
        // SpecError when the campaign is declared, not panic inside
        // a trial on a worker thread.
        for system in ["GridWorld", "DroneNav"] {
            let text = format!(
                "name = \"bad\"\nsystem = \"{system}\"\nscale = \"Smoke\"\n\n\
                 [fleet]\ndropout = 1.5\n"
            );
            let s = Scenario::from_toml(&text).expect("parses — the value is shape-valid");
            let err = s.expand().expect_err("must reject dropout ≥ 1").to_string();
            assert!(err.contains("dropout"), "{system}: {err}");
        }
    }

    #[test]
    fn bad_mitigation_fails_at_expansion_not_in_a_worker() {
        // Each would panic the detector or the checkpoint inside a
        // worker. The thresholds are checked as the f32 the detector
        // runs with: 1e40 is infinite and 1e-50 zero as an f32.
        let ok = MitigationSpec { p_percent: 10.0, k_consecutive: 2, checkpoint_interval: 1 };
        let bad = [
            MitigationSpec { k_consecutive: 0, ..ok },
            MitigationSpec { checkpoint_interval: 0, ..ok },
            MitigationSpec { p_percent: 0.0, ..ok },
            MitigationSpec { p_percent: -5.0, ..ok },
            MitigationSpec { p_percent: f64::NAN, ..ok },
            MitigationSpec { p_percent: 1e40, ..ok },
            MitigationSpec { p_percent: 1e-50, ..ok },
        ];
        for system in [SystemKind::GridWorld, SystemKind::DroneNav] {
            let mut s = Scenario::new("m", system, Scale::Smoke);
            s.mitigation = Some(ok.clone());
            s.expand().expect("a valid mitigation expands");
            for m in &bad {
                s.mitigation = Some(m.clone());
                let err = s.expand().expect_err("must reject").to_string();
                assert!(err.contains("mitigation"), "{system:?} {m:?}: {err}");
            }
        }
    }

    #[test]
    fn mitigation_on_a_fleet_without_a_server_fails_at_expansion() {
        // A one-agent fleet has no server and never offers a
        // checkpoint, so its mitigation would silently do nothing.
        for system in ["GridWorld", "DroneNav"] {
            let text = format!(
                "name = \"solo\"\nsystem = \"{system}\"\nscale = \"Smoke\"\n\n\
                 [fleet]\nagents = 1\n\n\
                 [mitigation]\np_percent = 10\nk_consecutive = 2\ncheckpoint_interval = 1\n"
            );
            let s = Scenario::from_toml(&text).expect("parses");
            let err = s.expand().expect_err("must reject").to_string();
            assert!(err.contains("≥ 2 agents"), "{system}: {err}");
            let mut sweep = s.clone();
            sweep.fleet.agents = None;
            sweep.fleet.agents_sweep = vec![2, 1];
            let err = sweep.expand().expect_err("must reject").to_string();
            assert!(err.contains("≥ 2 agents"), "{system} sweep: {err}");
            sweep.fleet.agents_sweep = vec![2, 3];
            sweep.expand().expect("fleets with a server expand");
        }
    }

    #[test]
    fn dropout_that_rounds_to_one_as_f32_fails_at_expansion() {
        // 0.999999999f64 is in [0, 1) but casts to 1.0f32 — the value
        // the trial config actually carries — which the system
        // constructors reject. Expansion must catch it.
        assert_eq!(0.999_999_999_f64 as f32, 1.0);
        let mut s = Scenario::new("edge", SystemKind::GridWorld, Scale::Smoke);
        s.fleet.dropout = Some(0.999_999_999);
        assert!(s.expand().unwrap_err().to_string().contains("dropout"));
    }

    #[test]
    fn zero_fleet_and_zero_repeats_fail_at_expansion() {
        let mut s = Scenario::new("z", SystemKind::GridWorld, Scale::Smoke);
        s.fleet.agents = Some(0);
        assert!(s.expand().unwrap_err().to_string().contains("agents"));
        let mut s = Scenario::new("z", SystemKind::DroneNav, Scale::Smoke);
        s.repeats = Some(0);
        assert!(s.expand().unwrap_err().to_string().contains("repeats"));
        let mut s = Scenario::new("z", SystemKind::GridWorld, Scale::Smoke);
        s.fault.bers = vec![0.0, 1.5];
        assert!(s.expand().unwrap_err().to_string().contains("bers"));
        let mut s = Scenario::new("z", SystemKind::DroneNav, Scale::Smoke);
        s.train.eval_attempts = Some(0);
        assert!(s.expand().unwrap_err().to_string().contains("eval_attempts"));
    }

    #[test]
    fn unreachable_injection_episodes_fail_at_expansion() {
        for (system, trained) in [(SystemKind::GridWorld, 130), (SystemKind::DroneNav, 12)] {
            // An explicit entry at or past the trained episode count.
            let mut s = Scenario::new("u", system, Scale::Smoke);
            s.fault.inject_episodes = vec![1, trained];
            let err = s.expand().unwrap_err().to_string();
            assert!(err.contains(&format!("entry {trained}")), "{system:?}: {err}");
            s.fault.inject_episodes = vec![1, trained - 1];
            s.expand().expect("the last trained episode is reachable");
            // A training override below the default injection episodes.
            let mut s = Scenario::new("u", system, Scale::Smoke);
            s.train.total_episodes = Some(5);
            let err = s.expand().unwrap_err().to_string();
            assert!(
                err.contains("inject_episodes entry") && err.contains("= 5"),
                "{system:?}: {err}"
            );
            s.train.total_episodes = Some(0);
            assert!(s.expand().unwrap_err().to_string().contains("total_episodes"));
        }
    }

    #[test]
    fn grid_expansion_matches_geometry_defaults() {
        let s = Scenario::new("g", SystemKind::GridWorld, Scale::Smoke);
        let c = s.expand().expect("expands");
        let g = grid_geometry(Scale::Smoke);
        assert_eq!(c.trials.len(), g.bers.len() * g.inject_episodes.len());
        assert_eq!(c.repeats, g.repeats);
        assert_eq!(c.master_seed, DEFAULT_SEED);
        assert_eq!(c.grid.cell_count(), c.trials.len());
    }

    #[test]
    fn fleet_sweep_expands_size_by_ber() {
        let mut s = Scenario::new("h", SystemKind::GridWorld, Scale::Smoke);
        s.fleet.agents_sweep = vec![2, 3];
        s.fault.bers = vec![0.0, 0.1];
        let c = s.expand().expect("expands");
        assert_eq!(c.trials.len(), 4);
        match &c.trials {
            Trials::Grid(t) => {
                assert_eq!(t[0].n_agents, 2);
                assert_eq!(t[3].n_agents, 3);
            }
            _ => panic!("grid expected"),
        }
    }

    #[test]
    fn side_axis_sweeps_every_layout() {
        // BER × episode × side: columns nest side inside episode.
        let mut s = Scenario::new("s", SystemKind::GridWorld, Scale::Smoke);
        s.fault.sides = vec![SideKind::Server, SideKind::Agent];
        s.fault.bers = vec![0.0, 0.1];
        let c = s.expand().expect("expands");
        let CellGrid::Labelled { rows, cols, .. } = &c.grid else { panic!("labelled grid") };
        assert_eq!(rows, &["0", "10%"]);
        assert_eq!(cols, &["server @ ep40", "agent @ ep40", "server @ ep125", "agent @ ep125"]);
        let Trials::Grid(t) = &c.trials else { panic!("grid expected") };
        let side = |i: usize| t[i].fault.expect("fault").side;
        assert_eq!(
            (side(0), side(1), side(7)),
            (FaultSide::ServerSide, FaultSide::AgentSide, FaultSide::AgentSide)
        );
        assert_eq!(t[7].fault.expect("fault").episode, 125);
        // Fleet size × side rows over BER columns.
        s.fleet.agents_sweep = vec![2, 3];
        let c = s.expand().expect("expands");
        let CellGrid::Labelled { rows, .. } = &c.grid else { panic!("labelled grid") };
        assert_eq!(rows, &["n=2 server", "n=2 agent", "n=3 server", "n=3 agent"]);
        assert_eq!(c.trials.len(), 8);
    }

    #[test]
    fn comm_boosts_sweep_schedules_with_a_fault_free_column() {
        let mut s = Scenario::new("c", SystemKind::DroneNav, Scale::Smoke);
        s.fleet.comm_boosts = vec![1, 3];
        let c = s.expand().expect("expands");
        let CellGrid::Labelled { rows, cols, .. } = &c.grid else { panic!("labelled grid") };
        assert_eq!(cols, &["no fault", "agent 1% @ ep9"]);
        assert_eq!(rows, &["1x interval (0.0% comm saved)", "3x interval (33.3% comm saved)"]);
        let Trials::Drone(t) = &c.trials else { panic!("drone expected") };
        assert_eq!(t[0].comm, DroneComm::Every(1));
        assert_eq!(t[2].comm, DroneComm::Boost { base: 1, switch: 7, mult: 3 });
        assert_eq!((t[2].fault, t[3].fault.map(|f| f.ber)), (None, Some(1e-2)));
        // The sweep fixes its faults and stands alone; it is DroneNav's.
        for bad in [
            |s: &mut Scenario| s.fault.bers = vec![0.1],
            |s: &mut Scenario| s.fault.inject_episodes = vec![3],
            |s: &mut Scenario| s.fleet.agents_sweep = vec![2],
            |s: &mut Scenario| s.fleet.comm_boosts = vec![0],
            |s: &mut Scenario| s.system = SystemKind::GridWorld,
        ] {
            let mut b = s.clone();
            bad(&mut b);
            assert!(b.expand().unwrap_err().to_string().contains("comm_boosts"));
        }
    }

    #[test]
    fn convergence_metric_defaults_to_a_late_fault_and_is_gridworld_only() {
        let mut s = Scenario::new("e", SystemKind::GridWorld, Scale::Smoke);
        s.train.metric = Some(MetricSpec::EpisodesToConverge);
        s.train.total_episodes = Some(100);
        let c = s.expand().expect("expands");
        assert_eq!(c.grid, CellGrid::BerByEpisode { bers: vec![0.05, 0.2], episodes: vec![90] });
        let Trials::Grid(t) = &c.trials else { panic!("grid expected") };
        assert_eq!(
            t[0].metric,
            GridMetric::EpisodesToConverge { threshold: 0.96, check_every: 20, max_extra: 200 }
        );
        s.system = SystemKind::DroneNav;
        s.train.total_episodes = None;
        assert!(s.expand().unwrap_err().to_string().contains("metric"));
    }

    #[test]
    fn drone_scenario_accepts_layout_and_dropout() {
        let mut s = Scenario::new("d", SystemKind::DroneNav, Scale::Smoke);
        s.fleet.dropout = Some(0.25);
        s.env.layout = LayoutKind::DynamicObstacles;
        let c = s.expand().expect("drone variants expand");
        match &c.trials {
            Trials::Drone(t) => {
                assert_eq!(t[0].layout, DroneLayout::DynamicObstacles);
                assert_eq!(t[0].dropout, Some(0.25));
                assert_eq!(t[0].comm, DroneComm::Every(1));
            }
            _ => panic!("drone expected"),
        }
    }

    #[test]
    fn grid_only_training_knobs_still_rejected_for_grid() {
        let mut s = Scenario::new("g", SystemKind::GridWorld, Scale::Smoke);
        s.train.pretrain_episodes = Some(4);
        assert!(s.expand().unwrap_err().to_string().contains("DroneNav"));
    }

    #[test]
    fn motion_expands_onto_drone_trials() {
        let mut s = Scenario::new("m", SystemKind::DroneNav, Scale::Smoke);
        s.env.layout = LayoutKind::DynamicObstacles;
        s.env.motion = Some(MotionSpec { amplitude: 3.5, period: 16.0 });
        let c = s.expand().expect("expands");
        match &c.trials {
            Trials::Drone(t) => {
                assert!(t.iter().all(|t| t.layout == DroneLayout::DynamicObstacles));
                assert!(t.iter().all(|t| {
                    t.motion == Some(frlfi::envs::ObstacleMotion { amplitude: 3.5, period: 16.0 })
                }));
            }
            _ => panic!("drone expected"),
        }
        // And it survives the TOML round trip (what a spec file does).
        let back = Scenario::from_toml(&s.to_toml()).expect("round trip");
        assert_eq!(s, back);
    }

    #[test]
    fn motion_without_dynamic_layout_or_on_gridworld_fails_at_expansion() {
        let mut s = Scenario::new("m", SystemKind::DroneNav, Scale::Smoke);
        s.env.motion = Some(MotionSpec { amplitude: 2.0, period: 24.0 });
        let err = s.expand().unwrap_err().to_string();
        assert!(err.contains("DynamicObstacles"), "{err}");

        let mut s = Scenario::new("m", SystemKind::GridWorld, Scale::Smoke);
        s.env.layout = LayoutKind::DynamicObstacles;
        s.env.motion = Some(MotionSpec { amplitude: 2.0, period: 24.0 });
        let err = s.expand().unwrap_err().to_string();
        assert!(err.contains("DroneNav"), "{err}");
    }

    #[test]
    fn study_scenario_round_trips_and_expands_to_the_study_geometry() {
        let s = Scenario::study("fig4", StudySpec::Fig4, Scale::Smoke);
        let back = Scenario::from_toml(&s.to_toml()).expect("round trip");
        assert_eq!(s, back, "TOML:\n{}", s.to_toml());
        let c = s.expand().expect("expands");
        let g = StudyKind::Fig4.geometry(Scale::Smoke).expect("geometry");
        assert_eq!(c.repeats, g.repeats);
        assert_eq!(c.master_seed, g.master_seed());
        assert_eq!(c.grid.cell_count(), c.trials.len());
        assert_eq!(c.n_models(), 2, "fig4 trains the fleet and the single-agent baseline");
        assert_eq!(c.trial_seed(3), g.trial_seed_flat(3));
    }

    #[test]
    fn study_without_shared_model_fails_at_expansion() {
        let mut s = Scenario::study("fig8a", StudySpec::Fig8a, Scale::Smoke);
        s.model = None;
        assert!(s.expand().unwrap_err().to_string().contains("shared = true"));
        s.model = Some(ModelSpec { shared: false });
        assert!(s.expand().unwrap_err().to_string().contains("unsupported"));
    }

    #[test]
    fn study_rejects_system_mismatch_and_classic_overrides() {
        let mut s = Scenario::study("fig8b", StudySpec::Fig8b, Scale::Smoke);
        s.system = SystemKind::GridWorld;
        assert!(s.expand().unwrap_err().to_string().contains("DroneNav"));

        let mut s = Scenario::study("layers", StudySpec::Layers, Scale::Smoke);
        s.fleet.dropout = Some(0.25);
        assert!(s.expand().unwrap_err().to_string().contains("default"));

        let mut s = Scenario::study("datatypes", StudySpec::Datatypes, Scale::Smoke);
        s.repeats = Some(999);
        assert!(s.expand().unwrap_err().to_string().contains("repeats"));

        let mut s = Scenario::new("classic", SystemKind::GridWorld, Scale::Smoke);
        s.model = Some(ModelSpec { shared: true });
        assert!(s.expand().unwrap_err().to_string().contains("study"));
    }

    #[test]
    fn model_section_defaults_to_shared_in_toml() {
        let text =
            "name = \"f\"\nsystem = \"GridWorld\"\nscale = \"Smoke\"\nstudy = \"Fig4\"\n\n[model]\n";
        let s = Scenario::from_toml(text).expect("parses");
        assert_eq!(s.model, Some(ModelSpec { shared: true }));
        s.expand().expect("expands");
    }

    #[test]
    fn study_trials_reject_the_train_per_trial_path_with_a_typed_error() {
        let c = Scenario::study("fig4", StudySpec::Fig4, Scale::Smoke).expand().expect("expands");
        let err = c
            .run_trial(0, c.trial_seed(0), &mut frlfi::nn::BatchInferCtx::new())
            .unwrap_err()
            .to_string();
        assert!(err.contains("eval_cell"), "{err}");
    }

    #[test]
    fn degenerate_motion_fails_at_expansion_not_in_a_worker() {
        // A period that rounds to 0.0f32 — the value the simulator
        // runs with — would make every obstacle position NaN; the
        // system constructor rejects it, so expansion must too.
        assert_eq!(1e-300_f64 as f32, 0.0);
        for (amplitude, period) in
            [(2.0, 0.0), (2.0, -3.0), (2.0, f64::NAN), (f64::INFINITY, 24.0), (2.0, 1e-300)]
        {
            let mut s = Scenario::new("m", SystemKind::DroneNav, Scale::Smoke);
            s.env.layout = LayoutKind::DynamicObstacles;
            s.env.motion = Some(MotionSpec { amplitude, period });
            let err = s.expand().unwrap_err().to_string();
            assert!(err.contains("motion"), "({amplitude}, {period}): {err}");
        }
    }
}
