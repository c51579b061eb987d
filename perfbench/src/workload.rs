//! The three named workloads: which scenario each runs, the one-off
//! set-up work it needs before trials can run, and its representative
//! trial for the layer replay.

use std::path::Path;
use std::time::Instant;

use frlfi::experiments::harness::{drone_geometry, drone_pretrained_weights};
use frlfi::experiments::study::StudyGeometry;
use frlfi::experiments::DEFAULT_SEED;
use frlfi::Scale;
use frlfi_campaign::{artifacts, registry, Campaign, Scenario};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 3a geometry at Bench scale: batch-1 TD training dominates.
    GridTrain,
    /// Fig. 5a geometry at Bench scale: conv REINFORCE fine-tuning.
    DroneFinetune,
    /// Fig. 8a train-once / eval-many study at Full scale.
    StudyEval,
}

pub const ALL: [Workload; 3] = [Workload::GridTrain, Workload::DroneFinetune, Workload::StudyEval];

/// Worker threads per workload process: at most two.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::GridTrain => "grid-train",
            Workload::DroneFinetune => "drone-finetune",
            Workload::StudyEval => "study-eval",
        }
    }

    /// Nominal wall-clock of one campaign on two threads: a run
    /// measures `max(1, round(seconds / nominal))` campaigns, a count
    /// that depends on `--seconds` only, never on the machine.
    pub fn nominal_campaign_s(self) -> f64 {
        match self {
            Workload::GridTrain => 7.5,
            Workload::DroneFinetune => 30.0,
            Workload::StudyEval => 1.25,
        }
    }

    /// The scenario, with its master seed drawn from the benchmark
    /// seed (seed 0 keeps the builtin's master seed). The study fixes
    /// its own seeds and geometry, so its inputs do not vary with the
    /// seed.
    pub fn scenario(self, seed: u64) -> Scenario {
        let (builtin, scale, repeats) = match self {
            Workload::GridTrain => ("fig3a", Scale::Bench, Some(2)),
            Workload::DroneFinetune => ("fig5a", Scale::Bench, Some(2)),
            Workload::StudyEval => ("fig8a", Scale::Full, None),
        };
        let mut s = registry::builtin(builtin, scale).expect("builtin scenario exists");
        s.name = self.name().to_owned();
        if self != Workload::StudyEval {
            s.repeats = repeats;
            s.master_seed = Some(s.master_seed.unwrap_or(DEFAULT_SEED) ^ seed);
        }
        s
    }

    /// Flat index of the trial the layer replay re-runs: a faulted,
    /// mid-grid cell (grid: BER 5% @ episode 240; drone: BER 1e-3 @
    /// episode 20; study: BER 1%, mitigated column), repeat 0.
    pub fn replay_cell(self) -> usize {
        match self {
            Workload::GridTrain => 3 * 6 + 1,
            Workload::DroneFinetune => 2 * 3 + 1,
            Workload::StudyEval => 4 * 2 + 1,
        }
    }
}

/// What a workload's set-up produced, reused by its campaigns and by
/// the layer replay.
pub enum Prepared {
    /// Nothing beyond scenario expansion.
    Expanded,
    /// The shared pre-trained drone weights.
    DroneWeights(Vec<f32>),
    /// The study's trained weight planes, per model.
    StudyPlanes(Vec<Vec<Vec<f32>>>),
}

/// Set-up timings: every sample is one complete set-up, with the core
/// speed the probe saw right around it.
pub struct Setup {
    pub samples_s: Vec<f64>,
    pub speeds: Vec<f64>,
    pub prepared: Prepared,
}

impl Setup {
    /// Median wall-clock seconds, as measured.
    pub fn median_s(&self) -> f64 {
        crate::stats::median(&self.samples_s)
    }

    /// Median seconds at the probe's reference speed: each sample
    /// scaled by the speed measured around it.
    pub fn median_ref_s(&self) -> f64 {
        let scaled: Vec<f64> =
            self.samples_s.iter().zip(&self.speeds).map(|(s, v)| s * v).collect();
        crate::stats::median(&scaled)
    }
}

/// Probe samples taken between consecutive set-up samples.
const PROBES_PER_GAP: usize = 4;

fn probe_gap() -> Vec<f64> {
    (0..PROBES_PER_GAP).filter_map(|_| crate::probe::sample()).collect()
}

/// Runs the workload's one-off set-up `samples` times through the same
/// public functions the campaign calls: scenario expansion; plus the
/// drone pre-training; plus the study's train tasks and artifact
/// publication (into `work/setup-<k>`). Probe samples on the same
/// thread before and after every sample give its core speed.
pub fn setup(
    w: Workload,
    scenario: &Scenario,
    samples: usize,
    work: &Path,
) -> Result<Setup, String> {
    // Expansion alone takes microseconds: time it in batches, so each
    // sample is long enough to read off the clock.
    const EXPANSIONS_PER_SAMPLE: usize = 5000;
    let mut samples_s = Vec::with_capacity(samples);
    let mut prepared = Prepared::Expanded;
    let expansions = if w == Workload::GridTrain { EXPANSIONS_PER_SAMPLE } else { 1 };
    // One untimed warm-up pass, so no sample pays first-touch costs.
    for _ in 0..expansions {
        std::hint::black_box(scenario.expand().map_err(|e| e.to_string())?);
    }
    let mut speeds = Vec::with_capacity(samples);
    let mut before = probe_gap();
    for k in 0..samples {
        let t0 = Instant::now();
        let mut campaign = None;
        for _ in 0..expansions {
            campaign = Some(std::hint::black_box(scenario.expand().map_err(|e| e.to_string())?));
        }
        let campaign = campaign.expect("at least one expansion");
        match w {
            Workload::GridTrain => {}
            Workload::DroneFinetune => {
                let episodes = drone_geometry(scenario.scale).pretrain_episodes;
                prepared = Prepared::DroneWeights(drone_pretrained_weights(episodes));
            }
            Workload::StudyEval => {
                let g = campaign.study().expect("study workload");
                let dir = work.join(format!("setup-{k}"));
                let planes = train_study(g)?;
                publish_planes(&dir, &planes)?;
                prepared = Prepared::StudyPlanes(planes);
            }
        }
        samples_s.push(t0.elapsed().as_secs_f64() / expansions as f64);
        let after = probe_gap();
        speeds.push(crate::probe::speed(&[before, after.clone()].concat()));
        before = after;
    }
    Ok(Setup { samples_s, speeds, prepared })
}

/// Trains every model of a study, in artifact order.
pub fn train_study(g: &StudyGeometry) -> Result<Vec<Vec<Vec<f32>>>, String> {
    g.models().iter().map(|m| m.train().map_err(|e| format!("train {}: {e}", m.label()))).collect()
}

/// Publishes trained study planes into campaign directory `dir`, so a
/// campaign run there loads them instead of training.
pub fn publish_planes(dir: &Path, planes: &[Vec<Vec<f32>>]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    for (m, p) in planes.iter().enumerate() {
        artifacts::publish(dir, m, p, "perfbench")?;
    }
    Ok(())
}

/// Fraction of trained episodes that repeat a prefix an earlier trial
/// (in flat order) already trained: every trial trains the same
/// fault-free system until its injection episode (BER-0 trials never
/// diverge), so a trial faulted after episode `e` shares `e + 1`
/// episodes with the first trial. The headroom for fork-at-injection;
/// 0 for studies, whose trials train nothing.
pub fn shared_prefix_frac(c: &Campaign) -> f64 {
    use frlfi_campaign::Trials;
    let per_cell: Vec<(usize, Option<usize>)> = match &c.trials {
        Trials::Grid(t) => t
            .iter()
            .map(|t| (t.total_episodes, t.fault.filter(|f| f.ber > 0.0).map(|f| f.episode)))
            .collect(),
        Trials::Drone(t) => t
            .iter()
            .map(|t| (t.fine_tune_episodes, t.fault.filter(|f| f.ber > 0.0).map(|f| f.episode)))
            .collect(),
        Trials::Study(_) => return 0.0,
    };
    let (mut total, mut shared) = (0usize, 0usize);
    for (cell, &(episodes, inject)) in per_cell.iter().enumerate() {
        for repeat in 0..c.repeats {
            total += episodes;
            if cell == 0 && repeat == 0 {
                continue;
            }
            shared += inject.map_or(episodes, |e| (e + 1).min(episodes));
        }
    }
    if total == 0 {
        0.0
    } else {
        shared as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_scenarios_expand() {
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            let c = w.scenario(3).expand().expect("expands");
            let trials = c.total_trials();
            assert!(w.replay_cell() * c.repeats < trials, "{}", w.name());
        }
        assert_eq!(Workload::parse("fig3a"), None);
    }

    #[test]
    fn seed_changes_classic_inputs_but_not_the_study() {
        let a = Workload::GridTrain.scenario(1).expand().expect("expands");
        let b = Workload::GridTrain.scenario(2).expand().expect("expands");
        assert_ne!(a.trial_seed(0), b.trial_seed(0));
        let a = Workload::StudyEval.scenario(1).expand().expect("expands");
        let b = Workload::StudyEval.scenario(2).expand().expect("expands");
        assert_eq!(a.trial_seed(0), b.trial_seed(0));
    }

    #[test]
    fn shared_prefix_matches_the_geometry() {
        // fig3a @ Bench, 4 repeats: 23 later BER-0 trials × 600 plus
        // 5 BERs × 4 repeats × Σ(e + 1) = 2401, over 144 × 600.
        let mut s = Workload::GridTrain.scenario(0);
        s.repeats = Some(4);
        let f = shared_prefix_frac(&s.expand().expect("expands"));
        assert!((f - (23.0 * 600.0 + 20.0 * 2401.0) / (144.0 * 600.0)).abs() < 1e-12, "{f}");
        let c = Workload::StudyEval.scenario(0).expand().expect("expands");
        assert_eq!(shared_prefix_frac(&c), 0.0);
    }
}
