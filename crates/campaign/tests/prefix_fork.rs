//! Fork-at-injection equivalence for every GridWorld and DroneNav
//! builtin.
//!
//! A campaign's training trials fork from fault-free training prefixes
//! cached per campaign, trained once at the campaign's injection
//! episodes. Every `(cell, repeat)` value on that path must equal the
//! uncached trial function bit for bit — whichever order the cells run
//! in, so chains are extended both front to back and back to front.
//! Mitigated builtins (fig7a, fig7b) fork by the same rule: the
//! snapshots carry the detector and the checkpoint.

use frlfi::experiments::harness::{run_drone_trial_batched, run_grid_trial_batched};
use frlfi::nn::BatchInferCtx;
use frlfi::{Scale, Stop};
use frlfi_campaign::{registry, Campaign, Trials};

const BUILTINS: [&str; 14] = [
    "fig3a",
    "fig3b",
    "fig3c",
    "fig7a",
    "grid-dynamic",
    "grid-dropout",
    "grid-fleet",
    "fig5a",
    "fig5b",
    "fig5c",
    "fig7b",
    "drone-dynamic",
    "drone-dropout",
    "drone-motion",
];

/// Builtins with dropout, where some stop must have skipped a round.
const DROPOUT: [&str; 2] = ["grid-dropout", "drone-dropout"];

fn expand(name: &str) -> Campaign {
    registry::builtin(name, Scale::Smoke)
        .unwrap_or_else(|| panic!("builtin {name}"))
        .expand()
        .expect("builtin expands")
}

/// Every trial's value from the uncached trial function, by cell and
/// repeat.
fn uncached(campaign: &Campaign) -> Vec<Vec<u64>> {
    let value = |cell: usize, seed: u64| {
        let ctx = &mut BatchInferCtx::new();
        match &campaign.trials {
            Trials::Grid(cells) => run_grid_trial_batched(&cells[cell], seed, ctx),
            Trials::Drone(cells) => run_drone_trial_batched(&cells[cell], seed, ctx),
            Trials::Study(_) => panic!("training campaign expected"),
        }
        .expect("trial runs")
        .to_bits()
    };
    (0..campaign.trials.len())
        .map(|cell| {
            (0..campaign.repeats)
                .map(|rep| value(cell, campaign.trial_seed(cell * campaign.repeats + rep)))
                .collect()
        })
        .collect()
}

/// Runs every trial of `campaign` through its prefix cache, in flat
/// order or reversed, checking each value against the uncached
/// reference.
fn check_forks(name: &str, campaign: &Campaign, reference: &[Vec<u64>], reverse: bool) {
    let mut order: Vec<usize> = (0..campaign.total_trials()).collect();
    if reverse {
        order.reverse();
    }
    let mut shared_ctx = BatchInferCtx::new();
    for flat in order {
        let (cell, rep) = (flat / campaign.repeats, flat % campaign.repeats);
        let seed = campaign.trial_seed(flat);
        // Front to back on one reused arena, back to front on a fresh
        // arena per trial: both fork from the same cache.
        let mut fresh_ctx = BatchInferCtx::new();
        let ctx = if reverse { &mut fresh_ctx } else { &mut shared_ctx };
        let value = campaign.run_trial(cell, seed, ctx).expect("trial runs");
        assert_eq!(
            value.to_bits(),
            reference[cell][rep],
            "{name} cell {cell} repeat {rep} (reverse: {reverse}): forked value {value} \
             differs from the uncached trial"
        );
    }
}

#[test]
fn forked_trials_match_uncached_trials_bitwise_for_every_training_builtin() {
    for name in BUILTINS {
        // The reference runs on a campaign of its own, so its trials
        // cannot reach the cache under test. The forward campaign
        // shares its lazily pre-trained DroneNav weights, which the
        // prefix key compares by address.
        let forward = expand(name);
        let reference = uncached(&forward);
        check_forks(name, &forward, &reference, false);
        let backward = expand(name);
        check_forks(name, &backward, &reference, true);

        let stops = forward.prefixes().stops();
        assert!(!stops.is_empty(), "{name}: no prefix was cached");
        // Both orders store the same snapshots (the chain's stops).
        let episodes = |s: &[Stop]| -> Vec<usize> { s.iter().map(|s| s.episodes_done).collect() };
        assert_eq!(episodes(&stops), episodes(&backward.prefixes().stops()), "{name}");
        if DROPOUT.contains(&name) {
            // Dropout-skipped rounds draw nothing from the fault
            // stream, so the fork must replay fewer draws than rounds.
            assert!(
                stops.iter().any(|s| s.fault_draws != s.comm_rounds),
                "{name}: no stop skipped a round, the draw count is untested"
            );
        }
    }
}

#[test]
fn cloned_campaigns_share_their_prefixes() {
    for name in ["fig3b", "fig5b"] {
        let campaign = expand(name);
        campaign
            .run_trial(0, campaign.trial_seed(0), &mut BatchInferCtx::new())
            .expect("trial runs");
        let stored = campaign.prefixes().stops().len();
        assert!(stored > 0, "{name}");
        let clone = campaign.clone();
        assert_eq!(clone.prefixes().stops().len(), stored, "{name}");
    }
}
