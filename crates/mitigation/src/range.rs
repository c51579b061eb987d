use frlfi_nn::Network;

/// The paper's inference-time range-based anomaly detector (§V-B).
///
/// Before steady exploitation begins, the weights of each layer are
/// tallied and their range `(w_min, w_max)` recorded, widened by a 10%
/// margin. During inference any weight outside its layer's widened range
/// raises an alarm and "the operations around this value are skipped" —
/// realized here by zeroing the weight, which exploits the inherent
/// sparsity of NNs (most values sit near zero, so a high-magnitude
/// outlier is almost certainly a bit-flip, not signal).
///
/// ```
/// use frlfi_mitigation::RangeDetector;
/// use frlfi_nn::NetworkBuilder;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut net = NetworkBuilder::new(4).dense(8).relu().dense(2).build(&mut rng)?;
/// let det = RangeDetector::fit(&net);
/// assert_eq!(det.repair(&mut net), 0); // clean network: nothing to do
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RangeDetector {
    // (flat start, len, lo, hi) per parameterized layer.
    spans: Vec<(usize, usize, f32, f32)>,
}

impl RangeDetector {
    /// Tallies per-layer ranges with the paper's 10% margin.
    pub fn fit(net: &Network) -> Self {
        RangeDetector::fit_with_margin(net, 0.10)
    }

    /// Tallies per-layer ranges with an explicit margin fraction.
    ///
    /// # Panics
    ///
    /// Panics if `margin < 0`.
    pub(crate) fn fit_with_margin(net: &Network, margin: f32) -> Self {
        assert!(margin >= 0.0, "margin must be non-negative");
        let spans = net
            .layer_ranges()
            .into_iter()
            .map(|(span, summary)| {
                let lo = summary.min - margin * summary.min.abs();
                let hi = summary.max + margin * summary.max.abs();
                (span.start, span.len, lo, hi)
            })
            .collect();
        RangeDetector { spans }
    }

    /// Scans a flat parameter vector and returns the flat indices of
    /// out-of-range (or non-finite) values.
    pub fn scan(&self, params: &[f32]) -> Vec<usize> {
        let mut anomalies = Vec::new();
        for &(start, len, lo, hi) in &self.spans {
            for (i, &v) in params[start..start + len].iter().enumerate() {
                if anomalous(v, lo, hi) {
                    anomalies.push(start + i);
                }
            }
        }
        anomalies
    }

    /// Scans a network's parameter plane in place and zeroes every
    /// anomalous weight ("skip the operations around this value").
    /// Returns the number of weights repaired.
    pub fn repair(&self, net: &mut Network) -> usize {
        let params = net.params_mut();
        let mut repaired = 0;
        for &(start, len, lo, hi) in &self.spans {
            for v in &mut params[start..start + len] {
                if anomalous(*v, lo, hi) {
                    *v = 0.0;
                    repaired += 1;
                }
            }
        }
        repaired
    }
}

/// Whether a weight is outside its layer's widened range `[lo, hi]` or
/// not finite.
fn anomalous(v: f32, lo: f32, hi: f32) -> bool {
    !v.is_finite() || v < lo || v > hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use frlfi_nn::NetworkBuilder;
    use frlfi_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net() -> Network {
        let mut rng = StdRng::seed_from_u64(3);
        NetworkBuilder::new(4).dense(8).relu().dense(4).build(&mut rng).unwrap()
    }

    #[test]
    fn clean_network_has_no_anomalies() {
        let n = net();
        let det = RangeDetector::fit(&n);
        assert!(det.scan(&n.snapshot()).is_empty());
    }

    #[test]
    fn margin_tolerates_small_drift() {
        let n = net();
        let det = RangeDetector::fit(&n);
        let mut snap = n.snapshot();
        // Nudge the maximum weight up by 5% — inside the 10% margin.
        let (max_idx, &max_v) =
            snap.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap();
        snap[max_idx] = max_v * 1.05;
        assert!(det.scan(&snap).is_empty());
    }

    #[test]
    fn detects_outlier_and_nan() {
        let n = net();
        let det = RangeDetector::fit(&n);
        let mut snap = n.snapshot();
        snap[3] = 1e6;
        snap[7] = f32::NAN;
        let hits = det.scan(&snap);
        assert!(hits.contains(&3));
        assert!(hits.contains(&7));
    }

    #[test]
    fn repair_zeroes_outliers() {
        let mut n = net();
        let det = RangeDetector::fit(&n);
        let mut snap = n.snapshot();
        snap[0] = -1e6;
        n.restore(&snap).unwrap();
        assert_eq!(det.repair(&mut n), 1);
        assert_eq!(n.snapshot()[0], 0.0);
        // Second pass: already clean.
        assert_eq!(det.repair(&mut n), 0);
    }

    #[test]
    fn repair_restores_usable_forward() {
        let mut n = net();
        let det = RangeDetector::fit(&n);
        let x = Tensor::from_vec(vec![4], vec![1.0, -0.5, 0.25, 0.0]).unwrap();
        let clean = n.forward(&x).unwrap();
        let mut snap = n.snapshot();
        snap[5] = f32::INFINITY;
        n.restore(&snap).unwrap();
        det.repair(&mut n);
        let repaired = n.forward(&x).unwrap();
        assert!(repaired.data().iter().all(|v| v.is_finite()));
        // Repaired output is close to clean (one weight zeroed).
        let dist: f32 =
            repaired.data().iter().zip(clean.data().iter()).map(|(a, b)| (a - b).abs()).sum();
        assert!(dist < 5.0, "repair should approximately preserve behaviour, dist {dist}");
    }

    #[test]
    fn per_layer_ranges_are_independent() {
        let n = net();
        let det = RangeDetector::fit(&n);
        assert_eq!(det.spans.len(), 2, "two dense layers tallied separately");
    }
}
