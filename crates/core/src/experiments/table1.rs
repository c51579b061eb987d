//! Table I: standard deviation of the consensus policy vs agent count.
//!
//! "Multi-agent system has higher std than single-agent system,
//! indicating its higher performance and resilience" (§IV-A-2).

use crate::experiments::SYSTEM_SEED;
use crate::report::Table;
use crate::{GridFrlSystem, GridSystemConfig, Scale};
use frlfi_nn::BatchInferCtx;
use frlfi_rl::Learner;

/// Agent counts evaluated at each scale (the paper uses 1/4/8/12).
pub(crate) fn agent_counts(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Smoke => vec![1, 3],
        Scale::Bench => vec![1, 4, 8],
        Scale::Full => vec![1, 4, 8, 12],
    }
}

/// Runs Table I: trains one system per agent count and reports the
/// consensus policy's action-distribution std over a **shared** state
/// sample (the free cells of all 12 standard mazes), so every policy is
/// judged on the same generalization surface.
pub fn run(scale: Scale) -> Table {
    let episodes = scale.pick(250, 600, 1000);
    let counts = agent_counts(scale);
    let mut table = Table::new(
        "Table I: std of the consensus policy",
        "metric",
        counts.iter().map(|n| format!("n={n}")).collect(),
    )
    .with_precision(3);

    // Shared probes: every free cell of the 12 standard mazes, with its
    // improving-action mask — all policies are judged on the same
    // generalization surface.
    let probe = GridFrlSystem::new(GridSystemConfig {
        n_agents: 12,
        seed: SYSTEM_SEED,
        ..Default::default()
    })
    .expect("valid config");
    let probes = probe.sample_probes();
    let states: Vec<_> = probes.iter().map(|(s, _)| s.clone()).collect();

    let mut margins = Vec::with_capacity(counts.len());
    let mut stds = Vec::with_capacity(counts.len());
    let mut srs = Vec::with_capacity(counts.len());
    for &n in &counts {
        let cfg = GridSystemConfig {
            n_agents: n,
            seed: SYSTEM_SEED,
            epsilon_decay_episodes: episodes / 2,
            ..Default::default()
        };
        let mut sys = GridFrlSystem::new(cfg).expect("valid config");
        let ctx = &mut BatchInferCtx::new();
        sys.train(episodes, None, ctx).expect("training");
        margins
            .push(crate::metrics::policy_differentiation(sys.agent_mut(0).network_mut(), &probes)
                as f64);
        stds.push(
            crate::metrics::policy_action_std(sys.agent_mut(0).network_mut(), &states) as f64,
        );
        srs.push(sys.success_rate(ctx));
    }
    table.push_row("good-bad differentiation", margins);
    table.push_row("raw action-prob std", stds);
    table.push_row("success rate", srs);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_reports_finite_metrics() {
        // NOTE: the paper's Table I trend (multi-agent std > single-agent
        // std) does not reproduce under this repo's learnable-observation
        // substitution — the single-agent policy already generalizes
        // thanks to the goal-direction features, so its differentiation
        // margin is comparable to the consensus policy's. The trend is
        // not a property of this substitution, so assert well-formedness
        // only.
        let t = run(Scale::Smoke);
        assert_eq!(t.rows.len(), 3);
        for (_, row) in &t.rows {
            for &v in row {
                assert!(v.is_finite());
            }
        }
        // Success-rate row stays within [0, 1].
        for &v in &t.rows[2].1 {
            assert!((0.0..=1.0).contains(&v));
        }
    }
}
