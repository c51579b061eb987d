//! Prints the paper's three artifacts that run no fault trials: Fig. 3d
//! (the trained policy's weight distribution and bit census), Table I
//! (consensus-policy std vs agent count) and Fig. 9 (protection
//! overhead on two drone platforms, an analytic model). Every fault
//! figure is a campaign: `campaign run fig3a`, and so on.
//!
//! ```text
//! cargo run --release --example paper_tables -- [smoke|bench|full]
//! ```
//!
//! The scale defaults to `bench`.

use frlfi::experiments::{fig3, fig9, table1};
use frlfi::Scale;

fn main() -> Result<(), String> {
    let scale = match std::env::args().nth(1).as_deref() {
        None | Some("bench") => Scale::Bench,
        Some("smoke") => Scale::Smoke,
        Some("full") => Scale::Full,
        Some(other) => return Err(format!("unknown scale {other:?}; expected smoke|bench|full")),
    };
    let d = fig3::weight_distribution(scale);
    println!("{}", d.histogram);
    println!(
        "Weights range: [{:.3}, {:.3}]  Bits: {:.2}% zeros / {:.2}% ones\n",
        d.min_weight,
        d.max_weight,
        d.zero_bit_fraction * 100.0,
        d.one_bit_fraction * 100.0
    );
    println!("{}", table1::run(scale));
    for table in fig9::run() {
        println!("{table}");
    }
    Ok(())
}
