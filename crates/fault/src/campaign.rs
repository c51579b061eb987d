//! Per-cell campaign statistics.
//!
//! Every heatmap cell and curve point in the paper is a mean over many
//! repeated injections (1000 repeats for GridWorld, 100 for the drone).
//! The campaign runner (`frlfi-campaign`) persists each repeat's value
//! and folds a cell's values, in repeat order, with
//! [`aggregate_in_order`]: [`Welford`] streaming accumulators over a
//! fixed number of contiguous chunks, merged in chunk order. The
//! chunking depends only on the repeat count, so a cell's statistics
//! are a pure function of its values, bit for bit, however many
//! workers computed them and in whatever order they were committed.

/// Upper bound on Welford chunk accumulators per cell.
const MAX_CHUNKS_PER_CELL: usize = 32;

/// Aggregated statistics of one campaign cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellStats {
    /// Mean of the cell metric over repeats.
    pub mean: f64,
    /// Population standard deviation over repeats.
    pub std: f64,
    /// Number of repeats.
    pub n: usize,
    /// Smallest repeat value (0.0 for an empty cell).
    pub min: f64,
    /// Largest repeat value (0.0 for an empty cell).
    pub max: f64,
}

impl CellStats {
    /// Half-width of the normal-approximation 95% confidence interval
    /// of the mean, `1.96 · s / √n` with the *sample* standard
    /// deviation `s` (Bessel-corrected from the stored population
    /// `std`). Returns `0.0` for `n < 2`, where no spread is
    /// estimable. The paper's heatmaps need only means; the runner's
    /// wide summary reports this to show whether cell differences
    /// exceed repeat noise.
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let n = self.n as f64;
        let sample_std = self.std * (n / (n - 1.0)).sqrt();
        1.96 * sample_std / n.sqrt()
    }
}

/// Welford's streaming mean/variance accumulator, extended with
/// min/max tracking.
///
/// O(1) state, one pass, no sample buffering. `merge` implements the
/// Chan et al. parallel combination, which [`aggregate_in_order`] uses
/// to fold per-chunk accumulators deterministically. The min/max fields
/// ride along without touching the mean/variance recurrences, so
/// adding them keeps historical means bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Welford {
    fn default() -> Self {
        Welford::new()
    }
}

impl Welford {
    /// An empty accumulator.
    pub const fn new() -> Self {
        Welford { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Folds one sample in.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Folds another accumulator in (order matters at the ulp level;
    /// [`aggregate_in_order`] always merges in chunk order).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let (na, nb) = (self.n as f64, other.n as f64);
        let total = na + nb;
        let delta = other.mean - self.mean;
        self.m2 += other.m2 + delta * delta * (na * nb / total);
        self.mean += delta * (nb / total);
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples folded in.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The accumulated statistics (population std).
    pub fn stats(&self) -> CellStats {
        if self.n == 0 {
            return CellStats { mean: 0.0, std: 0.0, n: 0, min: 0.0, max: 0.0 };
        }
        CellStats {
            mean: self.mean,
            std: (self.m2 / self.n as f64).max(0.0).sqrt(),
            n: self.n as usize,
            min: self.min,
            max: self.max,
        }
    }
}

/// Number of chunks one cell's repeat axis is split into.
fn chunks_per_cell(repeats: usize) -> usize {
    repeats.min(MAX_CHUNKS_PER_CELL)
}

/// Contiguous repeat range of chunk `c` of `k` over `repeats` repeats.
fn chunk_bounds(repeats: usize, k: usize, c: usize) -> (usize, usize) {
    (c * repeats / k, (c + 1) * repeats / k)
}

/// Folds one cell's per-repeat values (in repeat order): chunked
/// Welford accumulation, chunks merged in order.
pub fn aggregate_in_order(values: &[f64]) -> CellStats {
    if values.is_empty() {
        return Welford::new().stats();
    }
    let k = chunks_per_cell(values.len());
    let mut acc = Welford::new();
    for c in 0..k {
        let (lo, hi) = chunk_bounds(values.len(), k, c);
        let mut chunk = Welford::new();
        for &v in &values[lo..hi] {
            chunk.push(v);
        }
        acc.merge(&chunk);
    }
    acc.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn welford_matches_two_pass() {
        let mut rng = StdRng::seed_from_u64(4);
        let samples: Vec<f64> = (0..500).map(|_| rng.gen_range(-3.0..7.0)).collect();
        let mut w = Welford::new();
        for &s in &samples {
            w.push(s);
        }
        let stats = w.stats();
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / n;
        assert!((stats.mean - mean).abs() < 1e-12);
        assert!((stats.std - var.sqrt()).abs() < 1e-12);
        assert_eq!(stats.n, samples.len());
    }

    #[test]
    fn aggregate_in_order_covers_every_chunk() {
        // Repeat counts below, at and above the chunk cap, with uneven
        // chunk sizes: every value lands in exactly one chunk.
        let mut rng = StdRng::seed_from_u64(5);
        for repeats in [1usize, 2, 7, 32, 33, 100] {
            let values: Vec<f64> = (0..repeats).map(|_| rng.gen_range(-2.0..5.0)).collect();
            let stats = aggregate_in_order(&values);
            let n = values.len() as f64;
            let mean = values.iter().sum::<f64>() / n;
            let var = values.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / n;
            assert_eq!(stats.n, repeats);
            assert!((stats.mean - mean).abs() < 1e-12, "{repeats}");
            assert!((stats.std - var.sqrt()).abs() < 1e-12, "{repeats}");
            let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert_eq!((stats.min, stats.max), (lo, hi), "{repeats}");
        }
    }

    #[test]
    fn ci95_half_width_matches_by_hand() {
        let values = [1.0f64, 2.0, 3.0, 4.0, 5.0];
        let stats = aggregate_in_order(&values);
        // Sample std of 1..5 is sqrt(2.5); half-width = 1.96*s/sqrt(5).
        let expect = 1.96 * 2.5f64.sqrt() / 5f64.sqrt();
        assert!((stats.ci95_half_width() - expect).abs() < 1e-12);
        // Degenerate cells report no interval.
        assert_eq!(aggregate_in_order(&[7.0]).ci95_half_width(), 0.0);
        assert_eq!(aggregate_in_order(&[]).ci95_half_width(), 0.0);
    }

    #[test]
    fn empty_stats_have_neutral_extremes() {
        let s = Welford::new().stats();
        assert_eq!((s.min, s.max, s.n), (0.0, 0.0, 0));
    }

    #[test]
    fn welford_merge_handles_empties() {
        let mut a = Welford::new();
        let b = Welford::new();
        a.merge(&b);
        assert_eq!(a.count(), 0);
        let mut c = Welford::new();
        c.push(2.0);
        a.merge(&c);
        assert_eq!(a.stats().mean, 2.0);
    }
}
