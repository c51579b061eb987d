//! Fig. 3d: the trained GridWorld policy's weight distribution and
//! 0/1-bit census. The fault panels are campaigns: (a) agent faults,
//! (b) server faults and (c) the single-agent baseline are the
//! `fig3a`/`fig3b`/`fig3c` builtins, and (e), the episodes to
//! re-converge after a late fault, is `fig3e`.

use crate::experiments::SYSTEM_SEED;
use crate::report::Table;
use crate::{GridFrlSystem, GridSystemConfig, Scale};
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
    sys.train(episodes, None, &mut BatchInferCtx::new()).expect("training");
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
