//! Fault-surface comparison (extension): weights vs activations vs
//! read-register faults.
//!
//! The paper's fault model covers "weights, feature maps, and
//! activations" (§III-C) but its figures report weight faults; this
//! experiment puts the three surfaces side by side at matching BERs:
//!
//! * **weights** — persistent corruption of the stored policy
//!   (`Multi-Trans-M`);
//! * **activations** — fresh corruption of every layer's feature map on
//!   every forward pass (upsets in activation buffers);
//! * **register** — one corrupted action computation per episode
//!   (`Multi-Trans-1`).

use crate::experiments::ber_label;
use crate::experiments::harness::{mean_over_repeats, trained_grid_system};
use crate::report::Table;
use crate::{ReprKind, Scale};
use frlfi_fault::{Ber, FaultModel};
use frlfi_nn::BatchInferCtx;

/// Runs the surface comparison on the GridWorld system (SR %).
pub fn run(scale: Scale) -> Table {
    let n_agents = scale.pick(3, 6, 12);
    let repeats = scale.pick(2, 6, 100);
    let bers: Vec<f64> = scale.pick(
        vec![0.0, 0.005, 0.02],
        vec![0.0, 0.0025, 0.005, 0.01, 0.02],
        (0..=8).map(|i| i as f64 * 0.0025).collect(),
    );

    let mut sys = trained_grid_system(scale, n_agents);
    let ctx = &mut BatchInferCtx::new();

    let mut table = Table::new(
        "Fault-surface comparison: SR (%) by surface (int8, GridWorld inference)",
        "BER",
        vec!["weights".into(), "activations".into(), "register".into()],
    );
    for (bi, &ber) in bers.iter().enumerate() {
        let ber_v = Ber::new(ber).expect("valid ber");
        let weights = mean_over_repeats(0x5F, bi, repeats, |seed| {
            sys.with_faulted_policies(
                FaultModel::TransientMulti,
                ber_v,
                ReprKind::Int8,
                seed,
                |s| s.success_rate(ctx),
            )
        });
        let activations = mean_over_repeats(0x5F, bi, repeats, |seed| {
            if ber == 0.0 {
                sys.success_rate(ctx)
            } else {
                sys.success_rate_activation_faults(ber_v, ReprKind::Int8, seed, ctx)
            }
        });
        let register = mean_over_repeats(0x5F, bi, repeats, |seed| {
            if ber == 0.0 {
                sys.success_rate(ctx)
            } else {
                sys.success_rate_transient1(ber_v, ReprKind::Int8, seed, ctx)
            }
        });
        table
            .push_row(ber_label(ber), vec![weights * 100.0, activations * 100.0, register * 100.0]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_surface_is_mildest() {
        let t = run(Scale::Smoke);
        // At the worst BER, the one-step register fault can be no worse
        // than the persistent weight fault, on average.
        let last = t.rows.len() - 1;
        let weights = t.value(last, 0);
        let register = t.value(last, 2);
        assert!(
            register >= weights - 10.0,
            "register faults should be mildest: weights {weights}, register {register}"
        );
    }
}
