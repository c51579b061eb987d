//! # frlfi-bench
//!
//! Benchmark harness for the FRL-FI reproduction.
//!
//! Two kinds of targets:
//!
//! * **binaries for the artifacts without a campaign builtin** —
//!   `fig3` (panels d and e), `fig6`, `fig9`, `table1`, `surfaces`
//!   and `ablations` print the same rows/series the paper reports.
//!   Each takes an optional scale argument:
//!
//!   ```text
//!   cargo run -p frlfi-bench --release --bin fig3 -- bench d
//!   cargo run -p frlfi-bench --release --bin fig9
//!   ```
//!
//!   The other figures are campaigns: `campaign run fig3a`, …,
//!   `campaign run layers` (see the `frlfi-campaign` crate).
//!
//! * **criterion benches** (`cargo bench -p frlfi-bench`) — performance
//!   tracking of the heavy components (campaign cells, injection,
//!   aggregation, depth rendering, repair scans).

use frlfi::Scale;

/// Parses a scale argument (`smoke` / `bench` / `full`), defaulting to
/// [`Scale::Bench`].
///
/// # Panics
///
/// Panics with a usage message on an unknown scale name.
pub fn parse_scale(args: &[String]) -> Scale {
    match args.iter().map(|s| s.as_str()).find(|s| !s.starts_with('-')) {
        None => Scale::Bench,
        Some("smoke") => Scale::Smoke,
        Some("bench") => Scale::Bench,
        Some("full") => Scale::Full,
        Some(other) => panic!("unknown scale {other:?}; expected smoke | bench | full"),
    }
}

/// Scale from `std::env::args` (skipping the binary name).
pub fn scale_from_env() -> Scale {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_scale(&args)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scales() {
        assert_eq!(parse_scale(&[]), Scale::Bench);
        assert_eq!(parse_scale(&["smoke".into()]), Scale::Smoke);
        assert_eq!(parse_scale(&["full".into()]), Scale::Full);
    }

    #[test]
    #[should_panic]
    fn rejects_unknown() {
        parse_scale(&["huge".into()]);
    }
}
