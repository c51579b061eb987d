//! Fig. 3: transient fault characterization in GridWorld **training**.
//!
//! * (a) agent faults, (b) server faults, (c) single-agent baseline —
//!   heatmaps of average success rate over (BER × injection episode),
//!   run as the `fig3a`/`fig3b`/`fig3c` campaign builtins;
//! * (d) trained policy weight distribution and 0/1-bit census;
//! * (e) episodes to re-converge after a fault at the end of training.

use crate::experiments::harness::{self, grid_geometry, GridMetric, GridTrial, TrialFault};
use crate::experiments::{ber_label, DEFAULT_SEED, SYSTEM_SEED};
use crate::report::Table;
use crate::{GridFrlSystem, GridSystemConfig, Scale};
use frlfi_fault::FaultSide;
use frlfi_nn::BatchInferCtx;
use frlfi_quant::{BitCensus, SymInt8Quantizer};
use frlfi_rl::Learner;
use frlfi_tensor::histogram;

/// Results of the Fig. 3d weight-distribution analysis.
#[derive(Debug, Clone)]
pub struct WeightDistribution {
    /// Histogram of trained consensus weights.
    pub histogram: Table,
    /// Fraction of 0 bits in the int8-encoded policy (paper: ~86%).
    pub zero_bit_fraction: f64,
    /// Fraction of 1 bits (paper: ~14%).
    pub one_bit_fraction: f64,
    /// Minimum trained weight.
    pub min_weight: f32,
    /// Maximum trained weight.
    pub max_weight: f32,
}

/// Fig. 3d: trained policy weight distribution and bit census.
///
/// # Panics
///
/// Panics if training fails (propagated from the system).
pub fn weight_distribution(scale: Scale) -> WeightDistribution {
    let episodes = scale.pick(150, 600, 1000);
    let n_agents = scale.pick(3, 6, 12);
    let cfg = GridSystemConfig {
        n_agents,
        seed: SYSTEM_SEED,
        epsilon_decay_episodes: episodes / 2,
        ..Default::default()
    };
    let mut sys = GridFrlSystem::new(cfg).expect("valid config");
    sys.train(episodes, None, None, &mut BatchInferCtx::new()).expect("training");
    let weights = sys.agent(0).network().snapshot();

    let lo = weights.iter().cloned().fold(f32::INFINITY, f32::min);
    let hi = weights.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let bins = 16;
    let counts = histogram(&weights, lo, hi, bins);
    let mut table =
        Table::new("Fig 3d: trained policy weight histogram", "bin", vec!["count".into()])
            .with_precision(0);
    let width = (hi - lo) / bins as f32;
    for (i, &c) in counts.iter().enumerate() {
        let centre = lo + (i as f32 + 0.5) * width;
        table.push_row(format!("{centre:+.2}"), vec![c as f64]);
    }

    let quantizer = SymInt8Quantizer::fit(&weights).expect("non-degenerate weights");
    let codes = quantizer.encode_slice(&weights);
    let census = BitCensus::of_u8(&codes);
    WeightDistribution {
        histogram: table,
        zero_bit_fraction: census.fraction_zeros(),
        one_bit_fraction: census.fraction_ones(),
        min_weight: lo,
        max_weight: hi,
    }
}

/// Fig. 3e: episodes to re-converge (SR ≥ 96%) after a fault injected
/// near the end of training, for agent vs server faults.
pub fn convergence(scale: Scale) -> Table {
    let g = grid_geometry(scale);
    let bers: Vec<f64> = g.bers.iter().copied().filter(|&b| b > 0.0).collect();
    let late_ep = g.total_episodes * 9 / 10;
    let check_every = scale.pick(20, 25, 50);
    let max_extra = g.total_episodes * 2;
    let metric = GridMetric::EpisodesToConverge { threshold: 0.96, check_every, max_extra };

    let cells: Vec<GridTrial> = bers
        .iter()
        .flat_map(|&b| {
            [FaultSide::AgentSide, FaultSide::ServerSide].map(|side| {
                GridTrial::new(g.n_agents, g.total_episodes)
                    .with_fault(TrialFault::transient_int8(side, late_ep, b))
                    .with_metric(metric)
            })
        })
        .collect();
    let stats = harness::sweep_grid(&cells, g.repeats, DEFAULT_SEED ^ 0x3E);

    let mut table = Table::new(
        "Fig 3e: episodes to converge after late fault",
        "BER",
        vec!["agent".into(), "server".into()],
    )
    .with_precision(0);
    for (bi, &ber) in bers.iter().enumerate() {
        table.push_row(ber_label(ber), vec![stats[bi * 2].mean, stats[bi * 2 + 1].mean]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_distribution_finds_zero_bit_majority() {
        let d = weight_distribution(Scale::Smoke);
        assert!(
            d.zero_bit_fraction > 0.5,
            "trained int8 policies should be mostly 0 bits, got {}",
            d.zero_bit_fraction
        );
        assert!((d.zero_bit_fraction + d.one_bit_fraction - 1.0).abs() < 1e-9);
        assert!(d.min_weight < d.max_weight);
    }
}
