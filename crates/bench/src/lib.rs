//! # frlfi-bench
//!
//! Criterion micro-benches for the FRL-FI reproduction
//! (`cargo bench -p frlfi-bench`): campaign cells, injection,
//! aggregation, depth rendering, repair scans, and the training and
//! inference kernels. No paper artifact is made here; those are
//! campaigns (`frlfi-campaign`) and the `paper_tables` example.
