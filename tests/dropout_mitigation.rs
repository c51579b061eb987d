//! Dropout × mitigation interplay: checkpoint mitigation deployed on
//! a drone fleet with unreliable links (per-round dropout), under
//! server-side faults.
//!
//! Dropout makes communication rounds partial ([`frlfi::federated`]'s
//! `aggregate_subset`), so server checkpoints are taken from partial
//! consensus states and pending server faults can straddle skipped
//! rounds — exactly the interaction the paper's mitigation scheme
//! never had to survive. These tests pin that the combination stays
//! fully deterministic: same trial + same seed ⇒ the same detections,
//! the same checkpoint restores and bit-identical weights/values, on a
//! fresh arena or on one reused across trials. The pinned values below
//! were taken on the arena path once the checkpoint stored only rounds
//! that aggregated; before that, a run whose first rounds dropout
//! skipped could checkpoint a fresh server's all-zero consensus and
//! restore drones to it.

use frlfi::experiments::harness::{
    drone_geometry, run_drone_trial_batched, DroneTrial, PretrainedWeights, TrialFault,
};
use frlfi::fault::{Ber, FaultSide};
use frlfi::nn::BatchInferCtx;
use frlfi::{DroneFrlSystem, DroneSystemConfig, InjectionPlan, Scale, TrainingMitigation};
use frlfi_repro as _;

/// FNV-1a over the little-endian bytes of each weight's bit pattern
/// (the same digest as `tests/golden_equivalence.rs`).
fn weight_digest(weights: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in weights {
        for b in w.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Safe flight distance of the dropout + mitigation + server-fault
/// trial below, by seed.
const TRIAL_VALUES: [(u64, f64); 3] = [(3, 12.0), (17, 181.666_666_666_666_66), (99, 40.0)];

/// Fleet-weight digest and `(agent, server)` detections after the
/// checkpoint-restore fine-tune below.
const RESTORE_DIGEST: u64 = 0x6c5d_5450_8601_0a3a;
const RESTORE_DETECTIONS: (usize, usize) = (9, 0);

fn mitigation() -> TrainingMitigation {
    // Tight detector + every-round checkpoints: at smoke scale the
    // fault must be caught within a handful of episodes.
    TrainingMitigation { p_percent: 10.0, k_consecutive: 2, checkpoint_interval: 1 }
}

#[test]
fn dropout_trial_with_mitigation_is_deterministic_per_observation_and_batched() {
    let g = drone_geometry(Scale::Smoke);
    let weights = PretrainedWeights::lazy(g.pretrain_episodes);
    let t = DroneTrial {
        dropout: Some(0.4),
        mitigation: Some(mitigation()),
        ..DroneTrial::new(&g, weights, 3)
    }
    .with_fault(TrialFault::transient_int8(FaultSide::ServerSide, 4, 0.1));

    // Pure in the seed: mitigation restores and dropout skips replay
    // identically run over run.
    let fresh = |seed| {
        run_drone_trial_batched(&t, seed, &mut BatchInferCtx::new()).expect("drone trial runs")
    };
    for (seed, value) in TRIAL_VALUES {
        let (a, b) = (fresh(seed), fresh(seed));
        assert_eq!(a.to_bits(), b.to_bits(), "seed {seed}: trial must be pure in its seed");
        assert_eq!(a.to_bits(), value.to_bits(), "seed {seed}: value drifted from its pin");
    }

    // And an arena reused across the trials, as a campaign worker
    // reuses it, reports the identical bits: no detector, checkpoint or
    // arena state leaks from one trial into the next.
    let mut ctx = BatchInferCtx::new();
    for (seed, _) in TRIAL_VALUES {
        let reused = run_drone_trial_batched(&t, seed, &mut ctx).expect("drone trial runs");
        assert_eq!(
            reused.to_bits(),
            fresh(seed).to_bits(),
            "seed {seed}: value drifted on a reused arena"
        );
    }
}

#[test]
fn checkpoint_restores_replay_identically_across_skipped_rounds() {
    // Heavy dropout (half the fleet sits out each round) with a
    // mid-training server fault: the pending fault and the checkpoint
    // scheme both straddle partial rounds.
    let plan = InjectionPlan::server(3, Ber::new(0.2).expect("valid BER"));
    let run = || {
        let mut sys = DroneFrlSystem::new(DroneSystemConfig {
            n_drones: 3,
            dropout: Some(0.5),
            pretrain_episodes: 4,
            mitigation: Some(mitigation()),
            ..Default::default()
        })
        .expect("valid config");
        sys.pretrain().expect("pretraining");
        sys.reseed_faults(77);
        sys.train(16, Some(&plan), &mut BatchInferCtx::new()).expect("fine-tune");
        (sys.fleet_weights(), sys.mitigation_stats())
    };
    let (weights_a, stats_a) = run();
    let (weights_b, stats_b) = run();

    assert_eq!(
        stats_a, stats_b,
        "detections (and therefore checkpoint restores) must replay identically"
    );
    assert!(
        stats_a.total() > 0,
        "the server fault must trip the detector, or this test exercises no restores: {stats_a:?}"
    );
    assert_eq!(weights_a.len(), weights_b.len());
    for (i, (a, b)) in weights_a.iter().zip(weights_b.iter()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "weight {i} drifted between identical runs");
    }
    assert_eq!(
        (stats_a.agent_detections, stats_a.server_detections),
        RESTORE_DETECTIONS,
        "detections differ from the pinned fine-tune"
    );
    assert_eq!(
        weight_digest(&weights_a),
        RESTORE_DIGEST,
        "weights after checkpoint restores drifted from the pinned fine-tune"
    );
}
