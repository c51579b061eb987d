//! Inference studies as **train-once / eval-many task DAGs**.
//!
//! Fig. 4, Fig. 8a/b, the data-type study and the per-layer study all
//! share one protocol: train a model (or two) once, then sweep many
//! pure evaluation cells over its frozen weights. This module splits
//! the two phases into data:
//!
//! * [`StudyModel`] — what to train, as a value. Training is a pure
//!   function of the model description (fixed [`SYSTEM_SEED`]), so the
//!   resulting per-agent weight *planes* are bit-reproducible anywhere.
//! * [`StudyGeometry`] — the cell grid: rows × columns × repeats, the
//!   seed schedule, and how cell means render into the figure table.
//! * [`StudyCtx`] — an evaluation context rebuilt from published
//!   planes. [`StudyGeometry::eval_cell`] is pure in
//!   `(geometry, planes, cell, seed)`, which is exactly what lets the
//!   campaign stack train each model **once**, publish its planes as an
//!   artifact, and fan the eval cells out over workers and processes
//!   while reproducing the sequential [`StudyGeometry::run`] table byte
//!   for byte.
//!
//! The studies run as the `fig4`, `fig8a`, `fig8b`, `datatypes` and
//! `layers` campaign builtins. [`StudyGeometry::run`] is the sequential
//! reference over the same code path, pinned against the campaign by
//! the study-DAG tests.

use crate::error::FrlfiError;
use crate::experiments::harness::{drone_geometry, pretrained};
use crate::experiments::{ber_label, DEFAULT_SEED, SYSTEM_SEED};
use crate::report::Table;
use crate::{DroneFrlSystem, DroneSystemConfig, GridFrlSystem, GridSystemConfig, ReprKind, Scale};
use frlfi_fault::{corrupt_slice, Ber, FaultModel};
use frlfi_mitigation::RangeDetector;
use frlfi_nn::{BatchInferCtx, ParamSpan};
use frlfi_quant::QFormat;
use frlfi_rl::Learner;
use frlfi_tensor::derive_seed;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The five train-once / eval-many inference studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StudyKind {
    /// Fig. 4: GridWorld inference fault characterization — success
    /// rate vs BER for persistent faults in the single-agent and FRL
    /// policies, a one-step register upset, and stuck-at-0/1 (paper:
    /// the one-step upset is negligible, stuck-at-1 dominates).
    Fig4,
    /// Fig. 8a: GridWorld inference mitigation — with and without the
    /// per-layer range detector, on the f32 surface, where bit flips
    /// create the exponent outliers range detection catches.
    Fig8Grid,
    /// Fig. 8b: DroneNav inference mitigation (as [`StudyKind::Fig8Grid`]).
    Fig8Drone,
    /// §IV-B-3 fixed-point data-type study: static faults in three
    /// 16-bit formats (paper: the wide-range Q(1,10,5) is the most
    /// vulnerable).
    Datatypes,
    /// §IV-C per-layer resilience study: the same number of faults
    /// confined to one layer at a time.
    Layers,
}

impl StudyKind {
    /// Stable scenario name (also the builtin campaign-scenario name).
    pub fn name(self) -> &'static str {
        match self {
            StudyKind::Fig4 => "fig4",
            StudyKind::Fig8Grid => "fig8a",
            StudyKind::Fig8Drone => "fig8b",
            StudyKind::Datatypes => "datatypes",
            StudyKind::Layers => "layers",
        }
    }

    /// Per-cell seed salt (XORed into [`DEFAULT_SEED`]), the same salt
    /// the pre-refactor sequential drivers passed to their
    /// `mean_over_repeats` seed scheme (now a test oracle here).
    pub(crate) fn salt(self) -> u64 {
        match self {
            StudyKind::Fig4 => 0xF164,
            StudyKind::Fig8Grid => 0x8A,
            StudyKind::Fig8Drone => 0x8B,
            StudyKind::Datatypes => 0xDA7A,
            StudyKind::Layers => 0x1A7E,
        }
    }

    /// Builds the study's cell geometry at `scale`.
    ///
    /// # Errors
    ///
    /// Returns an error if the reference policy network cannot be
    /// constructed (the per-layer study reads its parameter spans).
    pub fn geometry(self, scale: Scale) -> Result<StudyGeometry, FrlfiError> {
        let n_agents = scale.pick(3, 6, 12);
        let episodes = scale.pick(150, 600, 1000);
        let grid_model = StudyModel::Grid { n_agents, episodes };
        // The Fig. 4 BER grid, shared by Fig. 8a (the paper sweeps the
        // same 0-2% range in both panels).
        let fig4_bers = scale.pick(
            vec![0.0, 0.01, 0.02],
            vec![0.0, 0.0025, 0.005, 0.01, 0.015, 0.02],
            (0..=8).map(|i| i as f64 * 0.0025).collect(),
        );
        Ok(match self {
            StudyKind::Fig4 => StudyGeometry {
                kind: self,
                title: "Fig 4: GridWorld inference (SR %)".into(),
                row_label: "BER".into(),
                precision: 1,
                percent: true,
                row_keys: fig4_bers.iter().map(|&b| ber_label(b)).collect(),
                columns: vec![
                    "Single-Trans-M".into(),
                    "Multi-Trans-M".into(),
                    "Multi-Trans-1".into(),
                    "Stuck-at-0".into(),
                    "Stuck-at-1".into(),
                ],
                repeats: scale.pick(2, 6, 100),
                // One shared seed stream per (BER row, repeat): all five
                // columns see the same fault sites, a paired comparison.
                row_seed_stream: true,
                rows: RowAxis::Bers(fig4_bers),
                spans: Vec::new(),
                eval_attempts: 0,
                models: vec![grid_model, StudyModel::Grid { n_agents: 1, episodes }],
            },
            StudyKind::Fig8Grid => StudyGeometry {
                kind: self,
                title: "Fig 8a: GridWorld inference mitigation (SR %)".into(),
                row_label: "BER".into(),
                precision: 1,
                percent: true,
                row_keys: fig4_bers.iter().map(|&b| ber_label(b)).collect(),
                columns: vec!["No Mitigation".into(), "Mitigation".into()],
                repeats: scale.pick(2, 6, 100),
                row_seed_stream: true,
                rows: RowAxis::Bers(fig4_bers),
                spans: Vec::new(),
                eval_attempts: 0,
                models: vec![grid_model],
            },
            StudyKind::Fig8Drone => {
                let g = drone_geometry(scale);
                let bers = scale.pick(
                    vec![0.0, 1e-2],
                    vec![0.0, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1],
                    vec![0.0, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1],
                );
                StudyGeometry {
                    kind: self,
                    title: "Fig 8b: DroneNav inference mitigation (m)".into(),
                    row_label: "BER".into(),
                    precision: 0,
                    percent: false,
                    row_keys: bers.iter().map(|&b| ber_label(b)).collect(),
                    columns: vec!["No Mitigation".into(), "Mitigation".into()],
                    repeats: g.repeats,
                    row_seed_stream: true,
                    rows: RowAxis::Bers(bers),
                    spans: Vec::new(),
                    eval_attempts: g.eval_attempts,
                    models: vec![StudyModel::Drone {
                        n_drones: g.n_drones,
                        pretrain_episodes: g.pretrain_episodes,
                        fine_tune_episodes: g.fine_tune_episodes,
                    }],
                }
            }
            StudyKind::Datatypes => {
                let bers = scale.pick(
                    vec![0.0, 2e-4, 1e-3],
                    vec![0.0, 5e-5, 2e-4, 5e-4, 1e-3, 2e-3],
                    vec![0.0, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3],
                );
                StudyGeometry {
                    kind: self,
                    title: "Data-type study: SR (%) under static faults by fixed-point format"
                        .into(),
                    row_label: "BER".into(),
                    precision: 1,
                    percent: true,
                    row_keys: bers.iter().map(|&b| ber_label(b)).collect(),
                    columns: datatype_formats().iter().map(|q| q.name()).collect(),
                    repeats: scale.pick(2, 6, 100),
                    row_seed_stream: false,
                    rows: RowAxis::Bers(bers),
                    spans: Vec::new(),
                    eval_attempts: 0,
                    models: vec![grid_model],
                }
            }
            StudyKind::Layers => {
                let fault_counts: Vec<usize> =
                    scale.pick(vec![4, 16], vec![2, 8, 32], vec![2, 8, 32, 128]);
                // The policy architecture is fixed, so an untrained
                // single-agent system exposes the same parameter spans
                // as the trained fleet.
                let probe = GridFrlSystem::new(GridSystemConfig {
                    n_agents: 1,
                    seed: SYSTEM_SEED,
                    epsilon_decay_episodes: episodes / 2,
                    ..Default::default()
                })?;
                let spans = probe.agent(0).network().param_spans().to_vec();
                StudyGeometry {
                    kind: self,
                    title: "Per-layer resilience: SR (%) with faults confined to one layer".into(),
                    row_label: "faults/layer".into(),
                    precision: 1,
                    percent: true,
                    row_keys: fault_counts.iter().map(|n| format!("{n}")).collect(),
                    columns: spans.iter().map(|s| format!("{} ({})", s.name, s.kind)).collect(),
                    repeats: scale.pick(2, 8, 100),
                    row_seed_stream: false,
                    rows: RowAxis::FaultCounts(fault_counts),
                    spans,
                    eval_attempts: 0,
                    models: vec![grid_model],
                }
            }
        })
    }
}

/// The row axis of a study's cell grid.
#[derive(Debug, Clone, PartialEq)]
enum RowAxis {
    /// Bit-error rates (fractions).
    Bers(Vec<f64>),
    /// Bit flips confined to one layer (per-layer study).
    FaultCounts(Vec<usize>),
}

/// One model a study trains, as pure data. Training is deterministic:
/// the same model value always yields bit-identical weight planes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StudyModel {
    /// A GridWorld fleet trained from scratch.
    Grid {
        /// Fleet size (1 = single-agent baseline).
        n_agents: usize,
        /// Training episodes.
        episodes: usize,
    },
    /// A DroneNav fleet: offline single-drone pre-training, then
    /// federated fine-tuning.
    Drone {
        /// Fleet size.
        n_drones: usize,
        /// Offline pre-training episodes.
        pretrain_episodes: usize,
        /// Federated fine-tuning episodes.
        fine_tune_episodes: usize,
    },
}

impl StudyModel {
    /// Number of weight planes [`train`](Self::train) publishes (one
    /// per agent — fleet members diverge, so each keeps its own plane).
    pub(crate) fn n_planes(&self) -> usize {
        match *self {
            StudyModel::Grid { n_agents, .. } => n_agents,
            StudyModel::Drone { n_drones, .. } => n_drones,
        }
    }

    /// Short human label, e.g. `grid×3` (used by status displays).
    pub fn label(&self) -> String {
        match *self {
            StudyModel::Grid { n_agents, .. } => format!("grid×{n_agents}"),
            StudyModel::Drone { n_drones, .. } => format!("drone×{n_drones}"),
        }
    }

    /// Trains the model and returns its per-agent weight planes
    /// ([`Network::snapshot`](frlfi_nn::Network::snapshot) order).
    ///
    /// # Errors
    ///
    /// Returns an error on an invalid configuration or a training
    /// failure, so a campaign can quarantine the train task.
    pub fn train(&self) -> Result<Vec<Vec<f32>>, FrlfiError> {
        // Observability only — the span reads the clock around
        // training, it cannot affect any trained value.
        let _train = frlfi_obs::span("train");
        match *self {
            StudyModel::Grid { n_agents, episodes } => {
                let mut sys = GridFrlSystem::new(GridSystemConfig {
                    n_agents,
                    seed: SYSTEM_SEED,
                    epsilon_decay_episodes: episodes / 2,
                    ..Default::default()
                })?;
                sys.train(episodes, None, &mut BatchInferCtx::new())?;
                Ok((0..n_agents).map(|i| sys.agent(i).network().snapshot()).collect())
            }
            StudyModel::Drone { n_drones, pretrain_episodes, fine_tune_episodes } => {
                let weights = pretrained(pretrain_episodes)?;
                let mut sys = DroneFrlSystem::new(DroneSystemConfig {
                    n_drones,
                    seed: SYSTEM_SEED,
                    pretrain_episodes: 0,
                    ..Default::default()
                })?;
                sys.set_fleet_weights(&weights)?;
                sys.train(fine_tune_episodes, None, &mut BatchInferCtx::new())?;
                Ok((0..n_drones).map(|i| sys.agent(i).network().snapshot()).collect())
            }
        }
    }
}

/// A study's evaluation context: the trained systems (rebuilt from
/// weight planes), any fitted detectors, and the inference arena every
/// evaluation runs on — everything [`StudyGeometry::eval_cell`]
/// mutates in place.
pub struct StudyCtx {
    systems: StudySystems,
    arena: BatchInferCtx,
}

/// The systems of a [`StudyCtx`], by study.
enum StudySystems {
    /// Fig. 4 evaluates both the fleet and the single-agent baseline
    /// (boxed: two whole systems dwarf the other variants).
    Fig4 { multi: Box<GridFrlSystem>, single: Box<GridFrlSystem> },
    /// Fig. 8a: fleet plus per-agent range detectors fitted on the
    /// clean weights.
    Fig8Grid { sys: GridFrlSystem, detectors: Vec<RangeDetector> },
    /// Fig. 8b: drone fleet plus per-drone range detectors.
    Fig8Drone { sys: DroneFrlSystem, detectors: Vec<RangeDetector> },
    /// Data-type study: the fleet alone.
    Datatypes { sys: GridFrlSystem },
    /// Per-layer study: the fleet alone.
    Layers { sys: GridFrlSystem },
}

/// The cell grid of one study at one scale: rows × columns × repeats,
/// the per-trial seed schedule, the models it needs, and the rendering
/// into the figure's table.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyGeometry {
    /// Which study this is.
    pub kind: StudyKind,
    /// Table title (byte-exact figure header).
    pub(crate) title: String,
    /// Label of the row-key column.
    pub(crate) row_label: String,
    /// Value formatting precision.
    pub(crate) precision: usize,
    /// Rendered row keys, in row order.
    pub row_keys: Vec<String>,
    /// Column headers.
    pub columns: Vec<String>,
    /// Repeats averaged into each cell.
    pub repeats: usize,
    /// Cell means are percentages (×100 at render).
    percent: bool,
    /// The five Fig-4/8 panels share one seed stream per (row, repeat)
    /// across all columns (a paired comparison); the datatype and layer
    /// studies stream per cell.
    row_seed_stream: bool,
    /// Row axis values.
    rows: RowAxis,
    /// Per-layer parameter spans (per-layer study only).
    spans: Vec<ParamSpan>,
    /// Flight-distance evaluation attempts (drone study only).
    eval_attempts: usize,
    /// Models to train, in artifact-index order.
    models: Vec<StudyModel>,
}

impl StudyGeometry {
    /// Number of rows.
    pub(crate) fn n_rows(&self) -> usize {
        self.row_keys.len()
    }

    /// Number of value columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// Number of cells (row-major `row * n_cols + col` indexing).
    pub fn cells(&self) -> usize {
        self.n_rows() * self.n_cols()
    }

    /// The models this study trains, in artifact-index order.
    pub fn models(&self) -> &[StudyModel] {
        &self.models
    }

    /// The study's master seed: [`DEFAULT_SEED`] XOR the study salt —
    /// the base of every trial seed, identical to the pre-refactor
    /// drivers' `mean_over_repeats` scheme.
    pub fn master_seed(&self) -> u64 {
        DEFAULT_SEED ^ self.kind.salt()
    }

    /// The seed-stream index of `cell` (see `row_seed_stream`).
    fn seed_index(&self, cell: usize) -> usize {
        if self.row_seed_stream {
            cell / self.n_cols()
        } else {
            cell
        }
    }

    /// The evaluation seed of repeat `repeat` in cell `cell`.
    pub(crate) fn trial_seed(&self, cell: usize, repeat: usize) -> u64 {
        derive_seed(self.master_seed(), (self.seed_index(cell) * self.repeats + repeat) as u64)
    }

    /// `trial_seed` by flat eval index
    /// (`cell * repeats + repeat`), the campaign stack's task indexing.
    pub fn trial_seed_flat(&self, flat: usize) -> u64 {
        self.trial_seed(flat / self.repeats, flat % self.repeats)
    }

    /// Rebuilds the evaluation context from published weight planes
    /// (`planes[m]` = per-agent planes of [`models`](Self::models)`[m]`).
    /// The rebuilt systems are bit-identical to freshly trained ones,
    /// so every subsequent [`eval_cell`](Self::eval_cell) matches the
    /// train-and-evaluate-in-one-process driver exactly.
    ///
    /// # Errors
    ///
    /// Returns [`FrlfiError::BadConfig`] when the planes do not match
    /// the study's models, and propagates system-construction errors.
    pub fn context(&self, planes: &[Vec<Vec<f32>>]) -> Result<StudyCtx, FrlfiError> {
        if planes.len() != self.models.len() {
            return Err(FrlfiError::BadConfig {
                detail: format!(
                    "study {} needs {} model(s), got {} plane set(s)",
                    self.kind.name(),
                    self.models.len(),
                    planes.len()
                ),
            });
        }
        let systems = match self.kind {
            StudyKind::Fig4 => StudySystems::Fig4 {
                multi: Box::new(restored_grid(&self.models[0], &planes[0])?),
                single: Box::new(restored_grid(&self.models[1], &planes[1])?),
            },
            StudyKind::Fig8Grid => {
                let sys = restored_grid(&self.models[0], &planes[0])?;
                let detectors = (0..sys.n_agents())
                    .map(|i| RangeDetector::fit(sys.agent(i).network()))
                    .collect();
                StudySystems::Fig8Grid { sys, detectors }
            }
            StudyKind::Fig8Drone => {
                let sys = restored_drone(&self.models[0], &planes[0])?;
                let detectors = (0..sys.n_agents())
                    .map(|i| RangeDetector::fit(sys.agent(i).network()))
                    .collect();
                StudySystems::Fig8Drone { sys, detectors }
            }
            StudyKind::Datatypes => {
                StudySystems::Datatypes { sys: restored_grid(&self.models[0], &planes[0])? }
            }
            StudyKind::Layers => {
                StudySystems::Layers { sys: restored_grid(&self.models[0], &planes[0])? }
            }
        };
        Ok(StudyCtx { systems, arena: BatchInferCtx::new() })
    }

    /// Evaluates one `(cell, seed)` pair: the raw, unscaled cell value
    /// (success rate in [0, 1], or flight distance in meters). Pure in
    /// `(self, planes-behind-ctx, cell, seed)`; `ctx` is mutated during
    /// evaluation but always restored to its clean weights.
    ///
    /// # Errors
    ///
    /// Returns a typed error on an invalid BER, a cell out of range or
    /// a context built for another study, so a campaign quarantines the
    /// trial instead of a worker dying mid-campaign.
    pub fn eval_cell(&self, ctx: &mut StudyCtx, cell: usize, seed: u64) -> Result<f64, FrlfiError> {
        // Observability only — cannot affect any evaluated value.
        let _eval = frlfi_obs::span("eval");
        let ncols = self.n_cols();
        let (row, col) = (cell / ncols, cell % ncols);
        if row >= self.n_rows() {
            return Err(FrlfiError::BadConfig {
                detail: format!("cell {cell} out of range for {} cells", self.cells()),
            });
        }
        let arena = &mut ctx.arena;
        match (&mut ctx.systems, &self.rows) {
            (StudySystems::Fig4 { multi, single }, RowAxis::Bers(bers)) => {
                let ber = bers[row];
                let ber_v = Ber::new(ber)?;
                Ok(match col {
                    0 => single.with_faulted_policies(
                        FaultModel::TransientMulti,
                        ber_v,
                        ReprKind::Int8,
                        seed,
                        |s| s.success_rate(arena),
                    ),
                    1 => multi.with_faulted_policies(
                        FaultModel::TransientMulti,
                        ber_v,
                        ReprKind::Int8,
                        seed,
                        |s| s.success_rate(arena),
                    ),
                    2 => {
                        if ber == 0.0 {
                            multi.success_rate(arena)
                        } else {
                            multi.success_rate_transient1(ber_v, ReprKind::Int8, seed, arena)
                        }
                    }
                    3 => multi.with_faulted_policies(
                        FaultModel::StuckAt0,
                        ber_v,
                        ReprKind::Int8,
                        seed,
                        |s| s.success_rate(arena),
                    ),
                    _ => multi.with_faulted_policies(
                        FaultModel::StuckAt1,
                        ber_v,
                        ReprKind::Int8,
                        seed,
                        |s| s.success_rate(arena),
                    ),
                })
            }
            (StudySystems::Fig8Grid { sys, detectors }, RowAxis::Bers(bers)) => {
                let ber_v = Ber::new(bers[row])?;
                Ok(sys.with_faulted_policies(
                    FaultModel::TransientMulti,
                    ber_v,
                    ReprKind::F32,
                    seed,
                    |s| {
                        if col == 1 {
                            for (i, det) in detectors.iter().enumerate() {
                                det.repair(s.agent_mut(i).network_mut());
                            }
                        }
                        s.success_rate(arena)
                    },
                ))
            }
            (StudySystems::Fig8Drone { sys, detectors }, RowAxis::Bers(bers)) => {
                let ber_v = Ber::new(bers[row])?;
                let attempts = self.eval_attempts;
                Ok(sys.with_faulted_policies(
                    FaultModel::TransientMulti,
                    ber_v,
                    ReprKind::F32,
                    seed,
                    |s| {
                        if col == 1 {
                            for (i, det) in detectors.iter().enumerate() {
                                det.repair(s.agent_mut(i).network_mut());
                            }
                        }
                        s.safe_flight_distance(attempts, arena)
                    },
                ))
            }
            (StudySystems::Datatypes { sys }, RowAxis::Bers(bers)) => {
                let ber_v = Ber::new(bers[row])?;
                let q = datatype_formats()[col];
                Ok(sys.with_faulted_policies(
                    FaultModel::TransientMulti,
                    ber_v,
                    ReprKind::Fixed(q),
                    seed,
                    |s| s.success_rate(arena),
                ))
            }
            (StudySystems::Layers { sys }, RowAxis::FaultCounts(fault_counts)) => {
                let n_faults = fault_counts[row];
                let span = self.spans[col].range();
                let mut rng = StdRng::seed_from_u64(seed);
                // The int8 scale is fit on the whole plane, but unlike
                // `with_faulted_policies` the weights are not quantized
                // first: only the flipped ones pass through the codec.
                Ok(sys.with_corrupted(
                    0..sys.n_agents(),
                    |plane| {
                        let repr = ReprKind::Int8.materialize_for(plane);
                        let layer = &mut plane[span.clone()];
                        corrupt_slice(layer, repr, FaultModel::TransientMulti, n_faults, &mut rng);
                    },
                    |s| s.success_rate(arena),
                ))
            }
            _ => Err(FrlfiError::BadConfig {
                detail: format!("evaluation context does not match study {}", self.kind.name()),
            }),
        }
    }

    /// Renders row-major cell means into the figure's table, applying
    /// the percent scaling exactly where the pre-refactor drivers did
    /// (after the mean).
    pub fn render(&self, cell_means: &[f64]) -> Table {
        let ncols = self.n_cols();
        let mut table =
            Table::new(self.title.clone(), self.row_label.clone(), self.columns.clone())
                .with_precision(self.precision);
        for (ri, key) in self.row_keys.iter().enumerate() {
            let row: Vec<f64> = (0..ncols)
                .map(|ci| {
                    let m = cell_means[ri * ncols + ci];
                    if self.percent {
                        m * 100.0
                    } else {
                        m
                    }
                })
                .collect();
            table.push_row(key.clone(), row);
        }
        table
    }

    /// Runs the whole study sequentially — train every model, rebuild
    /// the context from the planes, evaluate every cell in row-major
    /// order — and renders the figure table. The campaign path runs
    /// the same planes, `eval_cell` and `render`, so its table is
    /// byte-identical to this one.
    ///
    /// # Errors
    ///
    /// Propagates training, construction and evaluation errors.
    pub fn run(&self) -> Result<Table, FrlfiError> {
        let planes = self.models.iter().map(StudyModel::train).collect::<Result<Vec<_>, _>>()?;
        let mut ctx = self.context(&planes)?;
        let mut means = Vec::with_capacity(self.cells());
        for cell in 0..self.cells() {
            let mut sum = 0.0;
            for r in 0..self.repeats {
                sum += self.eval_cell(&mut ctx, cell, self.trial_seed(cell, r))?;
            }
            means.push(sum / self.repeats as f64);
        }
        Ok(self.render(&means))
    }
}

/// The data-type study's three 16-bit fixed-point formats —
/// Q(1,4,11), Q(1,7,8), Q(1,10,5) — in column order.
fn datatype_formats() -> [QFormat; 3] {
    [QFormat::Q4_11, QFormat::Q7_8, QFormat::Q10_5]
}

/// Rebuilds a GridWorld system from its model description and restores
/// the published per-agent planes — bit-identical to the system
/// [`StudyModel::train`] snapshotted.
fn restored_grid(model: &StudyModel, planes: &[Vec<f32>]) -> Result<GridFrlSystem, FrlfiError> {
    let StudyModel::Grid { n_agents, episodes } = *model else {
        return Err(FrlfiError::BadConfig {
            detail: "grid planes supplied for a non-grid model".into(),
        });
    };
    check_plane_count(model, planes)?;
    let mut sys = GridFrlSystem::new(GridSystemConfig {
        n_agents,
        seed: SYSTEM_SEED,
        epsilon_decay_episodes: episodes / 2,
        ..Default::default()
    })?;
    for (i, plane) in planes.iter().enumerate() {
        sys.agent_mut(i).network_mut().restore(plane)?;
    }
    Ok(sys)
}

/// Rebuilds a DroneNav system from its model description and restores
/// the published per-drone planes.
fn restored_drone(model: &StudyModel, planes: &[Vec<f32>]) -> Result<DroneFrlSystem, FrlfiError> {
    let StudyModel::Drone { n_drones, .. } = *model else {
        return Err(FrlfiError::BadConfig {
            detail: "drone planes supplied for a non-drone model".into(),
        });
    };
    check_plane_count(model, planes)?;
    let mut sys = DroneFrlSystem::new(DroneSystemConfig {
        n_drones,
        seed: SYSTEM_SEED,
        pretrain_episodes: 0,
        ..Default::default()
    })?;
    // Marks the fleet as initialized (the drones then diverge to their
    // own fine-tuned planes below).
    sys.set_fleet_weights(&planes[0])?;
    for (i, plane) in planes.iter().enumerate() {
        sys.agent_mut(i).network_mut().restore(plane)?;
    }
    Ok(sys)
}

fn check_plane_count(model: &StudyModel, planes: &[Vec<f32>]) -> Result<(), FrlfiError> {
    if planes.len() != model.n_planes() || planes.is_empty() {
        return Err(FrlfiError::BadConfig {
            detail: format!(
                "model {} needs {} weight plane(s), artifact holds {}",
                model.label(),
                model.n_planes(),
                planes.len()
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The retired sequential drivers' seed scheme, the oracle of the
    /// study seed streams: averages `eval(seed)` over `repeats` seeds,
    /// repeat `r` of cell `cell_index` seeded
    /// `derive_seed(DEFAULT_SEED ^ salt, cell_index * repeats + r)`.
    fn mean_over_repeats(
        salt: u64,
        cell_index: usize,
        repeats: usize,
        mut eval: impl FnMut(u64) -> f64,
    ) -> f64 {
        let base = DEFAULT_SEED ^ salt;
        (0..repeats)
            .map(|r| eval(derive_seed(base, (cell_index * repeats + r) as u64)))
            .sum::<f64>()
            / repeats as f64
    }

    /// The standard GridWorld system of the inference studies, trained
    /// in place at `scale` (episodes 150/600/1000).
    fn trained_grid_system(scale: Scale, n_agents: usize) -> GridFrlSystem {
        let episodes = scale.pick(150, 600, 1000);
        let mut sys = GridFrlSystem::new(GridSystemConfig {
            n_agents,
            seed: SYSTEM_SEED,
            epsilon_decay_episodes: episodes / 2,
            ..Default::default()
        })
        .expect("valid config");
        sys.train(episodes, None, &mut BatchInferCtx::new()).expect("training");
        sys
    }

    #[test]
    fn mean_over_repeats_uses_engine_seed_scheme() {
        let mut seen = Vec::new();
        mean_over_repeats(0x5A17, 3, 4, |seed| {
            seen.push(seed);
            1.0
        });
        let expect: Vec<u64> =
            (0..4).map(|r| derive_seed(DEFAULT_SEED ^ 0x5A17, (3 * 4 + r) as u64)).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn datatype_formats_are_the_papers() {
        let names: Vec<String> = datatype_formats().iter().map(|q| q.name()).collect();
        assert_eq!(names, vec!["Q(1,4,11)", "Q(1,7,8)", "Q(1,10,5)"]);
    }

    #[test]
    fn seed_schedule_matches_mean_over_repeats() {
        let g = StudyKind::Datatypes.geometry(Scale::Smoke).expect("geometry");
        // Per-cell stream: cell 4, repeat 1 under the driver scheme.
        let mut seen = Vec::new();
        mean_over_repeats(g.kind.salt(), 4, g.repeats, |seed| {
            seen.push(seed);
            0.0
        });
        assert_eq!(g.trial_seed(4, 1), seen[1]);
        assert_eq!(g.trial_seed_flat(4 * g.repeats + 1), seen[1]);

        // Row stream: Fig 4's five columns share the row's seeds.
        let f = StudyKind::Fig4.geometry(Scale::Smoke).expect("geometry");
        assert_eq!(f.trial_seed(5, 0), f.trial_seed(9, 0), "row 1 columns share seeds");
        assert_ne!(f.trial_seed(0, 0), f.trial_seed(5, 0), "rows differ");
    }

    #[test]
    fn restored_context_reproduces_in_place_eval_bitwise() {
        // The load-bearing equivalence: evaluating on a system rebuilt
        // from published planes must match evaluating on the system
        // that was just trained, bit for bit. This is what lets the
        // campaign's train-once artifacts reproduce the sequential
        // drivers exactly.
        let g = StudyKind::Fig8Grid.geometry(Scale::Smoke).expect("geometry");
        let n_agents = match g.models()[0] {
            StudyModel::Grid { n_agents, .. } => n_agents,
            _ => unreachable!(),
        };
        let mut trained = trained_grid_system(Scale::Smoke, n_agents);
        let detectors: Vec<RangeDetector> =
            (0..n_agents).map(|i| RangeDetector::fit(trained.agent(i).network())).collect();
        let seed = g.trial_seed(3, 1); // row 1, mitigation column
        let direct = trained.with_faulted_policies(
            FaultModel::TransientMulti,
            Ber::new(0.01).expect("ber"),
            ReprKind::F32,
            seed,
            |s| {
                for (i, det) in detectors.iter().enumerate() {
                    det.repair(s.agent_mut(i).network_mut());
                }
                s.success_rate(&mut BatchInferCtx::new())
            },
        );
        let planes = vec![g.models()[0].train().expect("train")];
        let mut ctx = g.context(&planes).expect("context");
        let via_ctx = g.eval_cell(&mut ctx, 3, seed).expect("eval");
        assert_eq!(direct.to_bits(), via_ctx.to_bits());
        // And eval_cell is repeatable (the context restores itself).
        let again = g.eval_cell(&mut ctx, 3, seed).expect("eval again");
        assert_eq!(via_ctx.to_bits(), again.to_bits());
    }

    #[test]
    fn bad_planes_yield_typed_errors() {
        let g = StudyKind::Fig8Grid.geometry(Scale::Smoke).expect("geometry");
        assert!(matches!(g.context(&[]), Err(FrlfiError::BadConfig { .. })));
        assert!(matches!(g.context(&[vec![vec![0.0f32; 4]]]), Err(FrlfiError::BadConfig { .. })));
    }
}
