//! Fig. 7: training-time fault mitigation via **server checkpointing**.
//!
//! Re-runs the worst-case training heatmaps (server faults) with the
//! reward-drop detector + checkpoint recovery enabled. The paper's
//! result: success rate stays >96% (GridWorld) and flight distance
//! recovers to >712 m (drone) across the whole heatmap.

use std::sync::Arc;

use crate::experiments::harness::{
    self, ber_episode_grid, drone_geometry, heatmap_table, DroneTrial, GridTrial,
    PretrainedWeights, TrialFault,
};
use crate::experiments::DEFAULT_SEED;
use crate::report::Table;
use crate::{Scale, TrainingMitigation};
use frlfi_fault::FaultSide;

/// Geometry of the mitigated GridWorld heatmap (Fig. 7a); the smoke
/// scale late-injects at 110 (not Fig. 3's 125) so the shortened k=4
/// detector has episodes left to fire and recover.
fn fig7a_geometry(scale: Scale) -> (Vec<f64>, Vec<usize>, usize, usize, usize) {
    match scale {
        Scale::Smoke => (vec![0.0, 0.2], vec![40, 110], 130usize, 3usize, 2usize),
        Scale::Bench => {
            (vec![0.0, 0.02, 0.05, 0.1, 0.2], vec![90, 240, 390, 510, 570, 595], 600, 6, 4)
        }
        Scale::Full => (
            vec![0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5],
            (0..10).map(|i| 100 * i + 50).collect(),
            1000,
            12,
            50,
        ),
    }
}

/// Builds the Fig. 7a mitigated heatmap cells. Shared with
/// `frlfi-campaign`.
pub fn gridworld_cells(scale: Scale) -> Vec<GridTrial> {
    let (bers, inject_eps, total_eps, n_agents, _) = fig7a_geometry(scale);
    // Detection window scaled to the shortened training runs (the paper
    // uses k = 50 at 1000 episodes).
    let mitigation = TrainingMitigation::scaled(scale.pick(4, 10, 50));
    ber_episode_grid(&bers, &inject_eps)
        .into_iter()
        .map(|(ber, ep)| {
            GridTrial::new(n_agents, total_eps)
                .with_fault(TrialFault::transient_int8(FaultSide::ServerSide, ep, ber))
                .with_mitigation(mitigation)
        })
        .collect()
}

/// Fig. 7a: GridWorld server-fault heatmap with mitigation enabled.
pub fn gridworld(scale: Scale) -> Table {
    let (bers, inject_eps, _, _, repeats) = fig7a_geometry(scale);
    let cells = gridworld_cells(scale);
    let stats = harness::sweep_grid(&cells, repeats, DEFAULT_SEED ^ 0x7A);
    heatmap_table(
        "Fig 7a: GridWorld server faults WITH checkpoint mitigation (SR %)",
        &bers,
        &inject_eps,
        &stats,
        1,
    )
}

/// Fig. 7b: DroneNav server-fault heatmap with mitigation enabled.
pub fn drone(scale: Scale) -> Table {
    let g = drone_geometry(scale);
    let weights = PretrainedWeights::lazy(g.pretrain_episodes);
    let mitigation = TrainingMitigation::scaled(scale.pick(3, 6, 200));

    let cells: Vec<DroneTrial> = ber_episode_grid(&g.bers, &g.inject_episodes)
        .into_iter()
        .map(|(ber, ep)| {
            DroneTrial::new(&g, Arc::clone(&weights), g.n_drones)
                .with_fault(TrialFault::transient_int8(FaultSide::ServerSide, ep, ber))
                .with_mitigation(mitigation)
        })
        .collect();
    let stats = harness::sweep_drone(&cells, g.repeats, DEFAULT_SEED ^ 0x7B);
    heatmap_table(
        "Fig 7b: DroneNav server faults WITH checkpoint mitigation (m)",
        &g.bers,
        &g.inject_episodes,
        &stats,
        0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mitigated_heatmap_stays_flat() {
        let t = gridworld(Scale::Smoke);
        // The mitigated worst cell should stay within reach of the
        // fault-free cell (paper: recovery to near baseline).
        let baseline = t.value(0, 0);
        let worst =
            t.rows.iter().flat_map(|(_, row)| row.iter().copied()).fold(f64::INFINITY, f64::min);
        assert!(
            worst >= baseline - 40.0,
            "mitigation should prevent collapse: baseline {baseline}, worst {worst}"
        );
    }
}
