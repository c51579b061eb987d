//! Smoke-scale checks of the paper's headline qualitative claims.
//! Figure trends run the campaign builtins through `runner::run`, the
//! engine behind `campaign run`. Smoke scale is too small to reproduce
//! the paper's numbers, so each check asserts a direction or a bound.

use frlfi::experiments::{fig3, fig9};
use frlfi::fault::{Ber, FaultModel};
use frlfi::nn::BatchInferCtx;
use frlfi::quant::QFormat;
use frlfi::report::Table;
use frlfi::{GridFrlSystem, GridSystemConfig, ReprKind, Scale};
use frlfi_campaign::{registry, runner, RunnerConfig};

/// Runs builtin `name` at smoke scale in a fresh directory and returns
/// its rendered table.
fn smoke_table(name: &str) -> Table {
    let dir = std::env::temp_dir().join(format!("frlfi-trends-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let scenario = registry::builtin(name, Scale::Smoke).expect("built-in");
    let out = runner::run(&scenario, &dir, &RunnerConfig::default()).expect("campaign runs");
    std::fs::remove_dir_all(&dir).ok();
    out.table.expect("complete")
}

#[test]
fn fig4_one_step_upset_stays_near_baseline() {
    // Fig. 4: Transient-1 (column 2) at the highest BER stays close to
    // the fault-free row (sequential decision-making self-corrects).
    let t = smoke_table("fig4");
    assert_eq!(t.columns.len(), 5);
    let baseline = t.value(0, 2);
    let worst_t1 = t.value(t.rows.len() - 1, 2);
    assert!(
        worst_t1 >= baseline - 40.0,
        "Transient-1 should be mild: baseline {baseline}, worst {worst_t1}"
    );
}

#[test]
fn fig7a_checkpointing_prevents_collapse() {
    // Fig. 7a: with checkpoint mitigation the worst cell stays within
    // reach of the fault-free cell (paper: recovery to near baseline).
    let t = smoke_table("fig7a");
    let baseline = t.value(0, 0);
    let worst =
        t.rows.iter().flat_map(|(_, row)| row.iter().copied()).fold(f64::INFINITY, f64::min);
    assert!(
        worst >= baseline - 40.0,
        "mitigation should prevent collapse: baseline {baseline}, worst {worst}"
    );
}

#[test]
fn fig8a_range_detection_never_hurts_at_the_top_ber() {
    // Fig. 8a: at the highest BER the mitigated column (1) is no worse
    // than the unmitigated one (0).
    let t = smoke_table("fig8a");
    let last = t.rows.len() - 1;
    let unmit = t.value(last, 0);
    let mit = t.value(last, 1);
    assert!(
        mit >= unmit - 5.0,
        "range detection should help (or at least not hurt): {unmit} -> {mit}"
    );
}

#[test]
fn layers_study_covers_every_dense_layer() {
    // §IV-C: one column per parameterized layer of the 3-layer MLP,
    // every cell a success rate.
    let t = smoke_table("layers");
    assert_eq!(t.columns.len(), 3, "MLP has three dense layers");
    for (_, row) in &t.rows {
        for &v in row {
            assert!((0.0..=100.0).contains(&v));
        }
    }
}

#[test]
fn trained_policy_is_mostly_zero_bits() {
    // Fig. 3d: ~86% zero bits in the deployed 8-bit policy.
    let d = fig3::weight_distribution(Scale::Smoke);
    assert!(
        d.zero_bit_fraction > 0.6,
        "zero-bit fraction {} too low for a trained narrow policy",
        d.zero_bit_fraction
    );
}

#[test]
fn stuck_at_1_worse_than_stuck_at_0() {
    // Fig. 3/4: 0→1 flips dominate because 0-bits dominate.
    let ctx = &mut BatchInferCtx::new();
    let mut sys = GridFrlSystem::new(GridSystemConfig {
        n_agents: 3,
        seed: 2,
        epsilon_decay_episodes: 150,
        ..Default::default()
    })
    .expect("valid config");
    sys.train(300, None, ctx).expect("training");

    let ber = Ber::new(0.05).expect("ber");
    let mut sr0 = 0.0;
    let mut sr1 = 0.0;
    for seed in 0..8u64 {
        sr0 += sys.with_faulted_policies(FaultModel::StuckAt0, ber, ReprKind::Int8, seed, |s| {
            s.success_rate(ctx)
        });
        sr1 += sys.with_faulted_policies(FaultModel::StuckAt1, ber, ReprKind::Int8, seed, |s| {
            s.success_rate(ctx)
        });
    }
    assert!(sr1 <= sr0, "stuck-at-1 should hurt at least as much as stuck-at-0: {sr1} vs {sr0}");
}

#[test]
fn wide_fixed_point_is_most_vulnerable() {
    // §IV-B-3: Q(1,10,5) provides an unnecessarily large range and
    // suffers the biggest deviations per flip.
    let narrow = QFormat::Q4_11;
    let wide = QFormat::Q10_5;
    let v = 0.3f32;
    let mut dev_narrow = 0.0f32;
    let mut dev_wide = 0.0f32;
    for bit in 0..15 {
        dev_narrow += (narrow.decode(frlfi::quant::flip_bit_u16(narrow.encode(v), bit)) - v).abs();
        dev_wide += (wide.decode(frlfi::quant::flip_bit_u16(wide.encode(v), bit)) - v).abs();
    }
    assert!(dev_wide > dev_narrow * 10.0, "wide format deviations should dominate");
}

#[test]
fn tmr_catastrophic_on_micro_uav_only() {
    // Fig. 9's headline: the same TMR hardware costs the mini-UAV a few
    // percent but most of the micro-UAV's mission.
    let tables = fig9::run();
    let airsim_tmr_deg = tables[0].value(3, 1);
    let spark_tmr_deg = tables[1].value(3, 1);
    assert!(airsim_tmr_deg < 30.0, "AirSim TMR degradation {airsim_tmr_deg}");
    assert!(spark_tmr_deg > 70.0, "Spark TMR degradation {spark_tmr_deg}");
    // And our scheme costs <2.7%-ish everywhere.
    assert!(tables[0].value(1, 1) < 3.0);
    assert!(tables[1].value(1, 1) < 3.0);
}

#[test]
fn transient1_is_negligible_vs_transient_m() {
    // Fig. 4: a one-step register upset barely moves success rate while
    // a persistent memory fault at the same BER hurts more.
    let ctx = &mut BatchInferCtx::new();
    let mut sys = GridFrlSystem::new(GridSystemConfig {
        n_agents: 3,
        seed: 8,
        epsilon_decay_episodes: 150,
        ..Default::default()
    })
    .expect("valid config");
    sys.train(300, None, ctx).expect("training");

    let ber = Ber::new(0.05).expect("ber");
    let mut t1 = 0.0;
    let mut tm = 0.0;
    for seed in 0..8u64 {
        t1 += sys.success_rate_transient1(ber, ReprKind::Int8, seed, ctx);
        tm +=
            sys.with_faulted_policies(FaultModel::TransientMulti, ber, ReprKind::Int8, seed, |s| {
                s.success_rate(ctx)
            });
    }
    assert!(t1 >= tm, "one-step faults should be no worse than persistent ones: t1 {t1}, tm {tm}");
}
