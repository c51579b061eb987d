//! Property-based tests for the mitigation schemes.

use frlfi_mitigation::{
    Detection, DronePlatform, ProtectionScheme, RangeDetector, RewardDropDetector, ServerCheckpoint,
};
use frlfi_nn::NetworkBuilder;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #[test]
    fn detector_never_fires_on_steady_rewards(n in 1usize..8, reward in -2.0f32..2.0, eps in 0usize..60) {
        let mut d = RewardDropDetector::new(25.0, 3, n);
        for _ in 0..eps {
            prop_assert_eq!(d.observe(&vec![reward; n]), Detection::None);
        }
    }

    #[test]
    fn detector_tolerates_small_noise(n in 1usize..6, seed in any::<u64>()) {
        // ±10% wobble around a positive baseline never crosses the 25%
        // threshold.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = RewardDropDetector::new(25.0, 3, n);
        use rand::Rng;
        for _ in 0..100 {
            let rewards: Vec<f32> = (0..n).map(|_| 1.0 + rng.gen_range(-0.1..0.1)).collect();
            prop_assert_eq!(d.observe(&rewards), Detection::None);
        }
    }

    #[test]
    fn checkpoint_restore_round_trips(data in proptest::collection::vec(-10.0f32..10.0, 1..64)) {
        let mut cp = ServerCheckpoint::new(5);
        cp.on_round(0, &data);
        prop_assert_eq!(cp.stored(), Some(&data[..]));
    }

    #[test]
    fn checkpoint_keeps_latest_interval_snapshot(rounds in 1usize..40, interval in 1usize..8) {
        let mut cp = ServerCheckpoint::new(interval);
        for r in 0..rounds {
            cp.on_round(r, &[r as f32]);
        }
        let last_snap = ((rounds - 1) / interval) * interval;
        prop_assert_eq!(cp.stored(), Some(&[last_snap as f32][..]));
    }

    #[test]
    fn repair_makes_scan_clean(seed in any::<u64>(), outliers in proptest::collection::vec(0usize..50, 0..6)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = NetworkBuilder::new(4).dense(8).relu().dense(4).build(&mut rng).expect("net");
        let det = RangeDetector::fit(&net);
        let mut snap = net.snapshot();
        let len = snap.len();
        for &o in &outliers {
            snap[o % len] = 1e9;
        }
        net.restore(&snap).expect("restore");
        det.repair(&mut net);
        prop_assert!(det.scan(&net.snapshot()).is_empty(), "repair must clear every anomaly");
    }

    #[test]
    fn repair_is_idempotent(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = NetworkBuilder::new(4).dense(8).relu().dense(4).build(&mut rng).expect("net");
        let det = RangeDetector::fit(&net);
        let mut snap = net.snapshot();
        snap[0] = f32::NEG_INFINITY;
        net.restore(&snap).expect("restore");
        let first = det.repair(&mut net);
        let second = det.repair(&mut net);
        prop_assert!(first >= 1);
        prop_assert_eq!(second, 0);
    }

    #[test]
    fn overhead_distance_positive_and_bounded(extra_scheme in 0usize..4) {
        let scheme = ProtectionScheme::all()[extra_scheme];
        for p in [DronePlatform::airsim(), DronePlatform::dji_spark()] {
            let r = p.evaluate(scheme);
            prop_assert!(r.distance_m >= 0.0);
            prop_assert!(r.relative_distance <= 1.0 + 1e-6);
            prop_assert!(r.velocity_factor <= 1.0 + 1e-6);
        }
    }
}
