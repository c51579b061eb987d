//! Regenerates Fig. 3d/e: the trained policy's weight distribution and
//! the episodes to re-converge after a late training fault. Panels a–c
//! are campaigns: `campaign run fig3a|fig3b|fig3c`.
//!
//! Usage: `fig3 [smoke|bench|full] [d|e]` (default: both panels).

use frlfi::experiments::fig3;
use frlfi_bench::scale_from_env;

fn main() {
    let scale = scale_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let panel = args.iter().find(|a| ["d", "e"].contains(&a.as_str()));
    let all = panel.is_none();
    let want = |p: &str| all || panel.map(|s| s == p).unwrap_or(false);

    if want("d") {
        let d = fig3::weight_distribution(scale);
        println!("{}", d.histogram);
        println!(
            "Weights range: [{:.3}, {:.3}]  Bits: {:.2}% zeros / {:.2}% ones\n",
            d.min_weight,
            d.max_weight,
            d.zero_bit_fraction * 100.0,
            d.one_bit_fraction * 100.0
        );
    }
    if want("e") {
        println!("{}", fig3::convergence(scale));
    }
}
