//! Fig. 6: system-scale studies on the drone fleet.
//!
//! * (a) resilience vs drone count: flight distance under agent/server
//!   faults for 2/4/6 drones — "more drones helps improve resilience";
//! * (b) communication-interval trade-off: doubling/tripling the
//!   interval late in fine-tuning cuts communication cost and
//!   server-fault exposure but slows recovery from agent faults.

use std::sync::Arc;

use crate::experiments::harness::{
    self, drone_geometry, DroneComm, DroneTrial, PretrainedWeights, TrialFault,
};
use crate::experiments::{ber_label, DEFAULT_SEED};
use crate::report::Table;
use crate::Scale;
use frlfi_fault::FaultSide;
use frlfi_federated::CommSchedule;

/// Fig. 6a: flight distance vs BER for each (drone count, fault side).
pub fn drone_count(scale: Scale) -> Table {
    let g = drone_geometry(scale);
    let weights = PretrainedWeights::lazy(g.pretrain_episodes);
    let counts: Vec<usize> = scale.pick(vec![2, 3], vec![2, 4, 6], vec![2, 4, 6]);
    let inject_ep = g.fine_tune_episodes / 2;

    let mut cells: Vec<DroneTrial> = Vec::new();
    for &n in &counts {
        for side in [FaultSide::ServerSide, FaultSide::AgentSide] {
            for &b in &g.bers {
                cells.push(
                    DroneTrial::new(&g, Arc::clone(&weights), n)
                        .with_fault(TrialFault::transient_int8(side, inject_ep, b)),
                );
            }
        }
    }
    let stats = harness::sweep_drone(&cells, g.repeats, DEFAULT_SEED ^ 0x6A);

    let mut table = Table::new(
        "Fig 6a: flight distance vs BER by (drones, fault side) (m)",
        "(n, side)",
        g.bers.iter().map(|&b| ber_label(b)).collect(),
    )
    .with_precision(0);
    let stride = g.bers.len();
    let mut idx = 0;
    for &n in &counts {
        for side in ["server", "agent"] {
            let row: Vec<f64> = (0..stride).map(|bi| stats[idx * stride + bi].mean).collect();
            table.push_row(format!("({n}, {side})"), row);
            idx += 1;
        }
    }
    table
}

/// Fig. 6b: communication-interval study. Rows are schedules (×1, ×2,
/// ×3 after the switch episode); columns are no-fault / agent-fault /
/// server-fault flight distance plus the relative communication cost.
pub fn comm_interval(scale: Scale) -> Table {
    let g = drone_geometry(scale);
    let weights = PretrainedWeights::lazy(g.pretrain_episodes);
    // The paper boosts the interval "after the 2000th episode"; scaled
    // here to 60% of fine-tuning, with faults striking after the switch.
    let switch = g.fine_tune_episodes * 3 / 5;
    let inject_ep = switch + (g.fine_tune_episodes - switch) / 2;
    let fault_ber = 1e-2;

    let multipliers = [1usize, 2, 3];
    let comm_of = |mult: usize| {
        if mult == 1 {
            DroneComm::Every(1)
        } else {
            DroneComm::Boost { base: 1, switch, mult }
        }
    };
    let cells: Vec<DroneTrial> = multipliers
        .iter()
        .flat_map(|&mult| {
            let base =
                DroneTrial::new(&g, Arc::clone(&weights), g.n_drones).with_comm(comm_of(mult));
            [
                base.clone(),
                base.clone().with_fault(TrialFault::transient_int8(
                    FaultSide::AgentSide,
                    inject_ep,
                    fault_ber,
                )),
                base.with_fault(TrialFault::transient_int8(
                    FaultSide::ServerSide,
                    inject_ep,
                    fault_ber,
                )),
            ]
        })
        .collect();
    let stats = harness::sweep_drone(&cells, g.repeats, DEFAULT_SEED ^ 0x6B);

    let mut table = Table::new(
        "Fig 6b: communication-interval trade-off",
        "schedule",
        vec![
            "no fault (m)".into(),
            "agent fault (m)".into(),
            "server fault (m)".into(),
            "comm saving (%)".into(),
        ],
    )
    .with_precision(1);
    for (mi, &mult) in multipliers.iter().enumerate() {
        let comm: CommSchedule = comm_of(mult).schedule();
        let saving = comm.cost_saving_vs_base(g.fine_tune_episodes) * 100.0;
        table.push_row(
            format!("{mult}x C.I."),
            vec![stats[mi * 3].mean, stats[mi * 3 + 1].mean, stats[mi * 3 + 2].mean, saving],
        );
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_saving_grows_with_multiplier() {
        let t = comm_interval(Scale::Smoke);
        let s1 = t.value(0, 3);
        let s3 = t.value(2, 3);
        assert_eq!(s1, 0.0);
        assert!(s3 > 10.0, "3x interval should save >10% comms, got {s3}");
    }
}
