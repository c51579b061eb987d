//! # frlfi-bench
//!
//! Criterion micro-benches for the FRL-FI reproduction
//! (`cargo bench -p frlfi-bench`): performance tracking of the heavy
//! components (campaign cells, injection, aggregation, depth rendering,
//! repair scans), training and inference kernels.
//!
//! The paper's artifacts are not made here. Every fault figure is a
//! campaign (`campaign run fig3a`, …, see the `frlfi-campaign` crate),
//! and `cargo run --release --example paper_tables` prints Fig. 3d,
//! Table I and Fig. 9, which run no fault trials.
