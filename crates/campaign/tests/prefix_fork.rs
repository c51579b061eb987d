//! Fork-at-injection equivalence for every GridWorld builtin.
//!
//! A campaign's GridWorld trials fork from fault-free training prefixes
//! cached per campaign, trained once at the campaign's injection
//! episodes. Every `(cell, repeat)` value on that path must equal the
//! uncached trial function bit for bit — whichever order the cells run
//! in, so chains are extended both front to back and back to front.

use frlfi::experiments::harness::run_grid_trial_batched;
use frlfi::nn::BatchInferCtx;
use frlfi::Scale;
use frlfi_campaign::{registry, Campaign, Trials};

const GRID_BUILTINS: [&str; 7] =
    ["fig3a", "fig3b", "fig3c", "fig7a", "grid-dynamic", "grid-dropout", "grid-fleet"];

fn expand(name: &str) -> Campaign {
    registry::builtin(name, Scale::Smoke)
        .unwrap_or_else(|| panic!("builtin {name}"))
        .expand()
        .expect("builtin expands")
}

/// Runs every trial of a fresh `name` campaign through its prefix
/// cache, in flat order or reversed, checking each value against the
/// uncached reference. Returns the campaign, its cache populated.
fn check_forks(name: &str, reference: &[Vec<u64>], reverse: bool) -> Campaign {
    let campaign = expand(name);
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
    campaign
}

#[test]
fn forked_trials_match_uncached_trials_bitwise_for_every_grid_builtin() {
    for name in GRID_BUILTINS {
        let campaign = expand(name);
        let Trials::Grid(cells) = &campaign.trials else { panic!("{name} is a GridWorld builtin") };
        let reference: Vec<Vec<u64>> = cells
            .iter()
            .enumerate()
            .map(|(cell, t)| {
                (0..campaign.repeats)
                    .map(|rep| {
                        let seed = campaign.trial_seed(cell * campaign.repeats + rep);
                        run_grid_trial_batched(t, seed, &mut BatchInferCtx::new())
                            .expect("trial runs")
                            .to_bits()
                    })
                    .collect()
            })
            .collect();
        let forward = check_forks(name, &reference, false);
        let backward = check_forks(name, &reference, true);

        let checkpoints = forward.prefixes().checkpoints();
        if name == "fig7a" {
            // Mitigated trials keep their detector state inside one
            // training call, so they fork from a zero-length prefix.
            assert!(checkpoints.is_empty(), "fig7a must not cache prefixes");
            continue;
        }
        assert!(!checkpoints.is_empty(), "{name}: no prefix was cached");
        // Both orders store the same checkpoints (the chain's stops).
        let episodes = |c: &Campaign| -> Vec<usize> {
            c.prefixes().checkpoints().iter().map(|p| p.episodes_done()).collect()
        };
        assert_eq!(episodes(&forward), episodes(&backward), "{name}");
        if name == "grid-dropout" {
            // Dropout-skipped rounds draw nothing from the fault
            // stream, so the fork must replay fewer draws than rounds.
            assert!(
                checkpoints.iter().any(|p| p.fault_draws() != p.comm_rounds()),
                "grid-dropout: no checkpoint skipped a round, the draw count is untested"
            );
        }
    }
}

#[test]
fn cloned_campaigns_share_their_prefixes() {
    let campaign = expand("fig3b");
    campaign.run_trial(0, campaign.trial_seed(0), &mut BatchInferCtx::new()).expect("trial runs");
    let stored = campaign.prefixes().checkpoints().len();
    assert!(stored > 0);
    let clone = campaign.clone();
    assert_eq!(clone.prefixes().checkpoints().len(), stored);
}
