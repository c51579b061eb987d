//! Ablation studies over the mitigation design choices.
//!
//! The paper fixes its scheme parameters (checkpoint every 5 rounds,
//! p = 25%, k = 50/200, 10% range margin) without sensitivity analysis;
//! these ablations quantify how much each choice matters. They are
//! extensions beyond the paper's evaluation — see DESIGN.md §6.

use crate::experiments::{DEFAULT_SEED, SYSTEM_SEED};
use crate::report::Table;
use crate::{GridFrlSystem, GridSystemConfig, InjectionPlan, ReprKind, Scale, TrainingMitigation};
use frlfi_fault::{sweep, Ber, FaultModel};
use frlfi_mitigation::RangeDetector;
use frlfi_nn::BatchInferCtx;
use frlfi_tensor::derive_seed;

fn trained_system(scale: Scale) -> GridFrlSystem {
    crate::experiments::harness::trained_grid_system(scale, scale.pick(3, 6, 12))
}

/// Ablation 1: checkpoint update interval.
///
/// A longer interval cheapens checkpointing but restores a staler
/// policy; the sweet spot depends on how fast the policy improves
/// between snapshots.
pub fn checkpoint_interval(scale: Scale) -> Table {
    let episodes = scale.pick(150, 600, 1000);
    let n_agents = scale.pick(3, 6, 12);
    let repeats = scale.pick(2, 4, 25);
    let intervals: Vec<usize> = scale.pick(vec![1, 5], vec![1, 5, 20, 60], vec![1, 5, 20, 60]);
    let inject_ep = episodes - episodes / 60;

    let cells: Vec<usize> = intervals.clone();
    let stats = sweep(&cells, repeats, DEFAULT_SEED ^ 0xAB1, |&interval, seed| {
        let mitigation = TrainingMitigation {
            checkpoint_interval: interval,
            ..TrainingMitigation::scaled(scale.pick(4, 8, 50))
        };
        let mut sys = GridFrlSystem::new(GridSystemConfig {
            n_agents,
            seed: SYSTEM_SEED,
            epsilon_decay_episodes: episodes / 2,
            mitigation: Some(mitigation),
            ..Default::default()
        })
        .expect("valid config");
        sys.reseed_faults(seed);
        let plan = InjectionPlan::server(inject_ep, Ber::new(0.2).expect("ber"));
        let ctx = &mut BatchInferCtx::new();
        sys.train(episodes, Some(&plan), ctx).expect("training");
        sys.success_rate(ctx) * 100.0
    });

    let mut table = Table::new(
        "Ablation: checkpoint interval vs recovered SR (%) under a late 20% server fault",
        "interval (rounds)",
        vec!["SR (%)".into()],
    );
    for (i, &interval) in intervals.iter().enumerate() {
        table.push_row(interval.to_string(), vec![stats[i].mean]);
    }
    table
}

/// Ablation 2: detector confirmation window `k`.
///
/// Small `k` reacts fast but false-positives on reward noise; large `k`
/// may confirm only after training has already absorbed (or been ruined
/// by) the fault.
pub fn detector_window(scale: Scale) -> Table {
    let episodes = scale.pick(150, 600, 1000);
    let n_agents = scale.pick(3, 6, 12);
    let repeats = scale.pick(2, 4, 25);
    let windows: Vec<usize> = scale.pick(vec![2, 8], vec![2, 5, 10, 25, 50], vec![5, 15, 50, 100]);
    let inject_ep = episodes - episodes / 15;

    let stats = sweep(&windows, repeats, DEFAULT_SEED ^ 0xAB2, |&k, seed| {
        let mut sys = GridFrlSystem::new(GridSystemConfig {
            n_agents,
            seed: SYSTEM_SEED,
            epsilon_decay_episodes: episodes / 2,
            mitigation: Some(TrainingMitigation::scaled(k)),
            ..Default::default()
        })
        .expect("valid config");
        sys.reseed_faults(seed);
        let plan = InjectionPlan::server(inject_ep, Ber::new(0.2).expect("ber"));
        let ctx = &mut BatchInferCtx::new();
        sys.train(episodes, Some(&plan), ctx).expect("training");
        sys.success_rate(ctx) * 100.0
    });

    let mut table = Table::new(
        "Ablation: detector window k vs recovered SR (%) under a late 20% server fault",
        "k (episodes)",
        vec!["SR (%)".into()],
    );
    for (i, &k) in windows.iter().enumerate() {
        table.push_row(k.to_string(), vec![stats[i].mean]);
    }
    table
}

/// Ablation 3: range-detector margin.
///
/// A tight margin (0%) flags legitimate drift as faults; a loose one
/// (50%) lets moderate outliers through. The paper fixes 10%.
pub fn range_margin(scale: Scale) -> Table {
    let mut sys = trained_system(scale);
    let n_agents = sys.n_agents();
    let repeats = scale.pick(3, 8, 100);
    let margins = [0.0f32, 0.05, 0.10, 0.25, 0.50];
    let ber = Ber::new(0.02).expect("ber");
    let ctx = &mut BatchInferCtx::new();

    let mut table = Table::new(
        "Ablation: range-detector margin vs mitigated SR (%) at BER 2% (f32 surface)",
        "margin",
        vec!["SR (%)".into(), "repairs/net".into()],
    );
    for &margin in &margins {
        let detectors: Vec<RangeDetector> = (0..n_agents)
            .map(|i| {
                RangeDetector::fit_with_margin(frlfi_rl::Learner::network(sys.agent(i)), margin)
            })
            .collect();
        let mut sr_sum = 0.0;
        let mut repair_sum = 0.0;
        for r in 0..repeats {
            let seed = derive_seed(DEFAULT_SEED ^ 0xAB3, (margin.to_bits() as usize + r) as u64);
            sr_sum += sys.with_faulted_policies(
                FaultModel::TransientMulti,
                ber,
                ReprKind::F32,
                seed,
                |s| {
                    let mut repaired = 0;
                    for (i, det) in detectors.iter().enumerate() {
                        repaired += det.repair(frlfi_rl::Learner::network_mut(s.agent_mut(i)));
                    }
                    repair_sum += repaired as f64 / n_agents as f64;
                    s.success_rate(ctx)
                },
            );
        }
        table.push_row(
            format!("{:.0}%", margin * 100.0),
            vec![sr_sum / repeats as f64 * 100.0, repair_sum / repeats as f64],
        );
    }
    table
}

/// Ablation 4: smoothing-average self-weight α₀.
///
/// α₀ = 1/n is immediate full averaging; α₀ → 1 is almost-local
/// learning. The paper's annealed schedule sits between. This ablation
/// measures how the choice affects resilience to an agent fault at
/// mid-training: heavier averaging smooths a faulty agent back faster.
pub fn alpha_annealing(scale: Scale) -> Table {
    let episodes = scale.pick(150, 600, 1000);
    let n_agents = scale.pick(3, 6, 12);
    let repeats = scale.pick(2, 4, 25);
    let alphas = [0.34f64, 0.5, 0.75, 0.95];
    let inject_ep = episodes - episodes / 10;

    let mut cells = Vec::new();
    for &a in &alphas {
        for fault in [false, true] {
            cells.push((a, fault));
        }
    }
    let stats = sweep(&cells, repeats, DEFAULT_SEED ^ 0xAB4, |&(alpha0, fault), seed| {
        let mut sys = GridFrlSystem::new(GridSystemConfig {
            n_agents,
            seed: SYSTEM_SEED,
            epsilon_decay_episodes: episodes / 2,
            alpha0: alpha0 as f32,
            ..Default::default()
        })
        .expect("valid config");
        sys.reseed_faults(seed);
        let plan = fault.then(|| InjectionPlan::agent(inject_ep, Ber::new(0.2).expect("ber")));
        let ctx = &mut BatchInferCtx::new();
        sys.train(episodes, plan.as_ref(), ctx).expect("training");
        sys.success_rate(ctx) * 100.0
    });

    let mut table = Table::new(
        "Ablation: smoothing self-weight alpha0 vs agent-fault resilience (SR %)",
        "alpha0",
        vec!["no fault".into(), "agent fault 20%".into()],
    );
    for (i, &a) in alphas.iter().enumerate() {
        table.push_row(format!("{a:.2}"), vec![stats[i * 2].mean, stats[i * 2 + 1].mean]);
    }
    table
}

/// Ablation 5: communication interval vs agent-fault recovery (the
/// GridWorld counterpart of Fig. 6b's trade-off).
pub fn comm_interval_recovery(scale: Scale) -> Table {
    let episodes = scale.pick(150, 600, 1000);
    let n_agents = scale.pick(3, 6, 12);
    let repeats = scale.pick(2, 4, 25);
    let intervals: Vec<usize> = vec![1, 2, 4, 8];
    let inject_ep = episodes - episodes / 10;

    let mut cells = Vec::new();
    for &iv in &intervals {
        for fault in [false, true] {
            cells.push((iv, fault));
        }
    }
    let stats = sweep(&cells, repeats, DEFAULT_SEED ^ 0xAB5, |&(iv, fault), seed| {
        let mut sys = GridFrlSystem::new(GridSystemConfig {
            n_agents,
            seed: SYSTEM_SEED,
            comm_interval: iv,
            epsilon_decay_episodes: episodes / 2,
            ..Default::default()
        })
        .expect("valid config");
        sys.reseed_faults(seed);
        let plan = fault.then(|| InjectionPlan::agent(inject_ep, Ber::new(0.2).expect("ber")));
        let ctx = &mut BatchInferCtx::new();
        sys.train(episodes, plan.as_ref(), ctx).expect("training");
        sys.success_rate(ctx) * 100.0
    });

    let mut table = Table::new(
        "Ablation: comm interval vs agent-fault recovery (SR %)",
        "interval",
        vec!["no fault".into(), "agent fault 20%".into()],
    );
    for (i, &iv) in intervals.iter().enumerate() {
        table.push_row(iv.to_string(), vec![stats[i * 2].mean, stats[i * 2 + 1].mean]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_interval_table_shape() {
        let t = checkpoint_interval(Scale::Smoke);
        assert_eq!(t.rows.len(), 2);
        for (_, row) in &t.rows {
            assert!((0.0..=100.0).contains(&row[0]));
        }
    }

    #[test]
    fn range_margin_counts_repairs() {
        let t = range_margin(Scale::Smoke);
        // Tighter margins repair at least as many weights as looser ones.
        let repairs_tight = t.value(0, 1);
        let repairs_loose = t.value(t.rows.len() - 1, 1);
        assert!(repairs_tight >= repairs_loose);
    }
}
