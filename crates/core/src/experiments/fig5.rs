//! Fig. 5: fault characterization in DroneNav **training**
//! (online fine-tuning).
//!
//! Heatmaps of average safe flight distance over (BER × fault episode)
//! for (a) agent faults, (b) server faults and (c) the single-drone
//! baseline. The paper's trends: later + stronger faults hurt more,
//! server faults dominate, the FRL fleet beats the single drone.

use std::sync::Arc;

use crate::experiments::harness::{
    self, ber_episode_grid, drone_geometry, heatmap_table, DroneTrial, PretrainedWeights,
    TrialFault,
};
use crate::experiments::DEFAULT_SEED;
use crate::report::Table;
use crate::Scale;
use frlfi_fault::FaultSide;

/// Builds the Fig. 5 heatmap cell list for a fault side (`None` = the
/// single-drone baseline, Fig. 5c). Shared with `frlfi-campaign`.
pub fn heatmap_cells(scale: Scale, side: Option<FaultSide>) -> Vec<DroneTrial> {
    let g = drone_geometry(scale);
    let n_drones = if side.is_none() { 1 } else { g.n_drones };
    let weights = PretrainedWeights::lazy(g.pretrain_episodes);
    let side = side.unwrap_or(FaultSide::AgentSide);
    ber_episode_grid(&g.bers, &g.inject_episodes)
        .into_iter()
        .map(|(ber, ep)| {
            DroneTrial::new(&g, Arc::clone(&weights), n_drones)
                .with_fault(TrialFault::transient_int8(side, ep, ber))
        })
        .collect()
}

fn heatmap(scale: Scale, side: Option<FaultSide>, title: &str) -> Table {
    let g = drone_geometry(scale);
    let cells = heatmap_cells(scale, side);
    let stats = harness::sweep_drone(&cells, g.repeats, DEFAULT_SEED ^ 0xF15);
    heatmap_table(title, &g.bers, &g.inject_episodes, &stats, 0)
}

/// Fig. 5a: drone fine-tuning heatmap under **agent** faults.
pub fn agent_faults(scale: Scale) -> Table {
    heatmap(scale, Some(FaultSide::AgentSide), "Fig 5a: DroneNav training, agent faults (m)")
}

/// Fig. 5b: drone fine-tuning heatmap under **server** faults.
pub fn server_faults(scale: Scale) -> Table {
    heatmap(scale, Some(FaultSide::ServerSide), "Fig 5b: DroneNav training, server faults (m)")
}

/// Fig. 5c: single-drone (no server) baseline heatmap.
pub fn single_drone(scale: Scale) -> Table {
    heatmap(scale, None, "Fig 5c: DroneNav training, single-drone (m)")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_heatmap_produces_distances() {
        let t = agent_faults(Scale::Smoke);
        assert_eq!(t.rows.len(), 2);
        for (_, row) in &t.rows {
            for &v in row {
                assert!(v > 0.0, "distance must be positive, got {v}");
            }
        }
    }
}
