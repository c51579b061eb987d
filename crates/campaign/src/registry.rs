//! Named built-in scenarios.
//!
//! The `fig*`, `datatypes` and `layers` entries are the paper's
//! figures: `campaign run fig3a` is how the Fig. 3a table is made, and
//! every fault figure of the paper has one. Their
//! cell lists and statistics are pinned by tests (cell digests below,
//! per-cell bits in `tests/orchestration.rs`, summary goldens in
//! `tests/data/`). The remaining entries are scenario variants beyond
//! the paper's evaluation: dynamic-obstacle layouts, unreliable
//! federated links and heterogeneous fleets, for both systems.
//!
//! Entries are grouped by system and kept alphabetical within each
//! group, so `campaign list` output is deterministic and stable across
//! releases (a test enforces the ordering).

use frlfi::experiments::DEFAULT_SEED;
use frlfi::Scale;

use crate::spec::{MetricSpec, MitigationSpec, Scenario, SideKind, StudySpec, SystemKind};

/// One registry entry.
#[derive(Debug, Clone, Copy)]
pub struct RegistryEntry {
    /// The scenario name used on the CLI.
    pub name: &'static str,
    /// Which system the scenario runs (entries are grouped by system).
    pub system: SystemKind,
    /// One-line description.
    pub description: &'static str,
    builder: fn(Scale) -> Scenario,
}

impl RegistryEntry {
    /// Builds the scenario at `scale`.
    pub fn scenario(&self, scale: Scale) -> Scenario {
        (self.builder)(scale)
    }
}

/// All built-in scenarios, grouped by system ([`SystemKind::GridWorld`]
/// first) and alphabetical by name within each group.
pub fn entries() -> &'static [RegistryEntry] {
    &[
        RegistryEntry {
            name: "datatypes",
            system: SystemKind::GridWorld,
            description: "per-datatype inference resilience study, train-once (paper §IV-C)",
            builder: datatypes,
        },
        RegistryEntry {
            name: "fig3a",
            system: SystemKind::GridWorld,
            description: "GridWorld training, agent-side faults (paper Fig. 3a)",
            builder: fig3a,
        },
        RegistryEntry {
            name: "fig3b",
            system: SystemKind::GridWorld,
            description: "GridWorld training, server-side faults (paper Fig. 3b)",
            builder: fig3b,
        },
        RegistryEntry {
            name: "fig3c",
            system: SystemKind::GridWorld,
            description: "GridWorld training, single-agent baseline (paper Fig. 3c)",
            builder: fig3c,
        },
        RegistryEntry {
            name: "fig3e",
            system: SystemKind::GridWorld,
            description: "GridWorld episodes to re-converge after a late fault (paper Fig. 3e)",
            builder: fig3e,
        },
        RegistryEntry {
            name: "fig4",
            system: SystemKind::GridWorld,
            description: "GridWorld inference faults, FRL vs single-agent (paper Fig. 4)",
            builder: fig4,
        },
        RegistryEntry {
            name: "fig7a",
            system: SystemKind::GridWorld,
            description: "GridWorld server faults with checkpoint mitigation (paper Fig. 7a)",
            builder: fig7a,
        },
        RegistryEntry {
            name: "fig8a",
            system: SystemKind::GridWorld,
            description: "GridWorld inference faults with range-detector mitigation (paper Fig. 8)",
            builder: fig8a,
        },
        RegistryEntry {
            name: "grid-dropout",
            system: SystemKind::GridWorld,
            description: "federated rounds with 20% agent dropout under server faults",
            builder: grid_dropout,
        },
        RegistryEntry {
            name: "grid-dynamic",
            system: SystemKind::GridWorld,
            description: "dynamic-obstacle GridWorld layout under agent faults",
            builder: grid_dynamic,
        },
        RegistryEntry {
            name: "grid-fleet",
            system: SystemKind::GridWorld,
            description: "heterogeneous fleet sizes × BER (mid-training agent faults)",
            builder: grid_fleet,
        },
        RegistryEntry {
            name: "layers",
            system: SystemKind::GridWorld,
            description: "per-layer inference resilience study, train-once (paper §IV-C)",
            builder: layers,
        },
        RegistryEntry {
            name: "drone-dropout",
            system: SystemKind::DroneNav,
            description: "drone fleet with 20% per-round dropout under server faults",
            builder: drone_dropout,
        },
        RegistryEntry {
            name: "drone-dynamic",
            system: SystemKind::DroneNav,
            description: "oscillating-obstacle corridors under agent faults",
            builder: drone_dynamic,
        },
        RegistryEntry {
            name: "drone-motion",
            system: SystemKind::DroneNav,
            description: "fast wide-sweep obstacle motion (explicit env.motion) under agent faults",
            builder: drone_motion,
        },
        RegistryEntry {
            name: "fig5a",
            system: SystemKind::DroneNav,
            description: "DroneNav fine-tuning, agent-side faults (paper Fig. 5a)",
            builder: fig5a,
        },
        RegistryEntry {
            name: "fig5b",
            system: SystemKind::DroneNav,
            description: "DroneNav fine-tuning, server-side faults (paper Fig. 5b)",
            builder: fig5b,
        },
        RegistryEntry {
            name: "fig5c",
            system: SystemKind::DroneNav,
            description: "DroneNav fine-tuning, single-drone baseline (paper Fig. 5c)",
            builder: fig5c,
        },
        RegistryEntry {
            name: "fig6a",
            system: SystemKind::DroneNav,
            description: "DroneNav fault resilience by drone count and fault side (paper Fig. 6a)",
            builder: fig6a,
        },
        RegistryEntry {
            name: "fig6b",
            system: SystemKind::DroneNav,
            description: "DroneNav communication-interval trade-off under faults (paper Fig. 6b)",
            builder: fig6b,
        },
        RegistryEntry {
            name: "fig7b",
            system: SystemKind::DroneNav,
            description: "DroneNav server faults with checkpoint mitigation (paper Fig. 7b)",
            builder: fig7b,
        },
        RegistryEntry {
            name: "fig8b",
            system: SystemKind::DroneNav,
            description: "DroneNav inference faults with range-detector mitigation (paper Fig. 8)",
            builder: fig8b,
        },
    ]
}

/// Looks a built-in up by name.
pub fn builtin(name: &str, scale: Scale) -> Option<Scenario> {
    entries().iter().find(|e| e.name == name).map(|e| e.scenario(scale))
}

fn fig3a(scale: Scale) -> Scenario {
    let mut s = Scenario::new("fig3a", SystemKind::GridWorld, scale);
    s.fault.side = SideKind::Agent;
    s
}

fn fig3b(scale: Scale) -> Scenario {
    let mut s = Scenario::new("fig3b", SystemKind::GridWorld, scale);
    s.fault.side = SideKind::Server;
    s
}

fn fig3c(scale: Scale) -> Scenario {
    let mut s = Scenario::new("fig3c", SystemKind::GridWorld, scale);
    s.fault.side = SideKind::Agent;
    s.fleet.agents = Some(1);
    s
}

fn fig3e(scale: Scale) -> Scenario {
    let mut s = Scenario::new("fig3e", SystemKind::GridWorld, scale);
    s.fault.sides = vec![SideKind::Agent, SideKind::Server];
    s.train.metric = Some(MetricSpec::EpisodesToConverge);
    s.master_seed = Some(DEFAULT_SEED ^ 0x3E);
    s
}

fn fig5a(scale: Scale) -> Scenario {
    let mut s = Scenario::new("fig5a", SystemKind::DroneNav, scale);
    s.fault.side = SideKind::Agent;
    s.master_seed = Some(DEFAULT_SEED ^ 0xF15);
    s
}

fn fig5b(scale: Scale) -> Scenario {
    let mut s = Scenario::new("fig5b", SystemKind::DroneNav, scale);
    s.fault.side = SideKind::Server;
    s.master_seed = Some(DEFAULT_SEED ^ 0xF15);
    s
}

fn fig5c(scale: Scale) -> Scenario {
    let mut s = Scenario::new("fig5c", SystemKind::DroneNav, scale);
    s.fault.side = SideKind::Agent;
    s.fleet.agents = Some(1);
    s.master_seed = Some(DEFAULT_SEED ^ 0xF15);
    s
}

fn fig6a(scale: Scale) -> Scenario {
    let mut s = Scenario::new("fig6a", SystemKind::DroneNav, scale);
    s.fleet.agents_sweep = scale.pick(vec![2, 3], vec![2, 4, 6], vec![2, 4, 6]);
    s.fault.sides = vec![SideKind::Server, SideKind::Agent];
    s.master_seed = Some(DEFAULT_SEED ^ 0x6A);
    s
}

fn fig6b(scale: Scale) -> Scenario {
    let mut s = Scenario::new("fig6b", SystemKind::DroneNav, scale);
    s.fleet.comm_boosts = vec![1, 2, 3];
    s.fault.sides = vec![SideKind::Agent, SideKind::Server];
    s.master_seed = Some(DEFAULT_SEED ^ 0x6B);
    s
}

fn fig7a(scale: Scale) -> Scenario {
    let mut s = Scenario::new("fig7a", SystemKind::GridWorld, scale);
    s.fault.side = SideKind::Server;
    s.master_seed = Some(DEFAULT_SEED ^ 0x7A);
    // Fig. 7a's geometry diverges from the Fig. 3 defaults: a trimmed
    // BER grid, a smoke late-inject at 110 (not 125) so the shortened
    // k = 4 detector has episodes left to fire and recover, and a full
    // grid without the final ep995 point. The detection window is
    // scaled to the shortened runs (the paper uses k = 50 at 1000
    // episodes).
    s.fault.bers = match scale {
        Scale::Smoke => vec![0.0, 0.2],
        Scale::Bench => vec![0.0, 0.02, 0.05, 0.1, 0.2],
        Scale::Full => vec![0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5],
    };
    s.fault.inject_episodes = match scale {
        Scale::Smoke => vec![40, 110],
        Scale::Bench => vec![90, 240, 390, 510, 570, 595],
        Scale::Full => (0..10).map(|i| 100 * i + 50).collect(),
    };
    s.mitigation = Some(MitigationSpec {
        p_percent: 25.0,
        k_consecutive: scale.pick(4, 10, 50),
        checkpoint_interval: 5,
    });
    s
}

fn fig7b(scale: Scale) -> Scenario {
    let mut s = Scenario::new("fig7b", SystemKind::DroneNav, scale);
    s.fault.side = SideKind::Server;
    s.master_seed = Some(DEFAULT_SEED ^ 0x7B);
    // The drone detection window, scaled like fig7a's (the paper uses
    // k = 200 over 6000 fine-tuning episodes). At smoke scale k = 2 is
    // the largest window that fires within 12 episodes, so the smoke
    // golden exercises the checkpoint restore.
    s.mitigation = Some(MitigationSpec {
        p_percent: 25.0,
        k_consecutive: scale.pick(2, 6, 200),
        checkpoint_interval: 5,
    });
    s
}

fn grid_dynamic(scale: Scale) -> Scenario {
    let mut s = Scenario::new("grid-dynamic", SystemKind::GridWorld, scale);
    s.env.layout = crate::spec::LayoutKind::DynamicObstacles;
    s.fault.side = SideKind::Agent;
    s.master_seed = Some(DEFAULT_SEED ^ 0xD1A);
    s
}

fn grid_dropout(scale: Scale) -> Scenario {
    let mut s = Scenario::new("grid-dropout", SystemKind::GridWorld, scale);
    s.fault.side = SideKind::Server;
    s.fleet.dropout = Some(0.2);
    s.master_seed = Some(DEFAULT_SEED ^ 0xD07);
    s
}

fn grid_fleet(scale: Scale) -> Scenario {
    let mut s = Scenario::new("grid-fleet", SystemKind::GridWorld, scale);
    s.fault.side = SideKind::Agent;
    s.fleet.agents_sweep = scale.pick(vec![1, 2, 3], vec![1, 2, 4, 8], vec![1, 4, 8, 12]);
    s.master_seed = Some(DEFAULT_SEED ^ 0xF1E);
    s
}

fn drone_dynamic(scale: Scale) -> Scenario {
    let mut s = Scenario::new("drone-dynamic", SystemKind::DroneNav, scale);
    s.env.layout = crate::spec::LayoutKind::DynamicObstacles;
    s.fault.side = SideKind::Agent;
    s.master_seed = Some(DEFAULT_SEED ^ 0xDD1A);
    s
}

fn drone_motion(scale: Scale) -> Scenario {
    let mut s = Scenario::new("drone-motion", SystemKind::DroneNav, scale);
    s.env.layout = crate::spec::LayoutKind::DynamicObstacles;
    // A harsher world than drone-dynamic's default (2 m over 24
    // steps): wider sweeps on a faster clock.
    s.env.motion = Some(crate::spec::MotionSpec { amplitude: 3.0, period: 16.0 });
    s.fault.side = SideKind::Agent;
    s.master_seed = Some(DEFAULT_SEED ^ 0xDD40);
    s
}

// The train-once / eval-many studies: each expands to a task DAG —
// train tasks that publish frozen weight artifacts, then eval trials
// over them — whose summary.txt is byte-identical to the sequential
// `StudyGeometry::run` (the geometry supplies the master seed).

fn fig4(scale: Scale) -> Scenario {
    Scenario::study("fig4", StudySpec::Fig4, scale)
}

fn fig8a(scale: Scale) -> Scenario {
    Scenario::study("fig8a", StudySpec::Fig8a, scale)
}

fn fig8b(scale: Scale) -> Scenario {
    Scenario::study("fig8b", StudySpec::Fig8b, scale)
}

fn datatypes(scale: Scale) -> Scenario {
    Scenario::study("datatypes", StudySpec::Datatypes, scale)
}

fn layers(scale: Scale) -> Scenario {
    Scenario::study("layers", StudySpec::Layers, scale)
}

fn drone_dropout(scale: Scale) -> Scenario {
    let mut s = Scenario::new("drone-dropout", SystemKind::DroneNav, scale);
    s.fault.side = SideKind::Server;
    s.fleet.dropout = Some(0.2);
    s.master_seed = Some(DEFAULT_SEED ^ 0xDD07);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_builtins_expand_at_every_scale() {
        // Expansion is declaration only (drone pre-training is lazy),
        // so every entry expands cheaply at every scale.
        for e in entries() {
            for scale in [Scale::Smoke, Scale::Bench, Scale::Full] {
                let s = e.scenario(scale);
                let c = s.expand().unwrap_or_else(|err| panic!("{} @ {scale:?}: {err}", e.name));
                assert!(!c.trials.is_empty());
                assert_eq!(c.grid.cell_count(), c.trials.len(), "{}", e.name);
                assert_eq!(s.system, e.system, "{}: entry system must match the scenario", e.name);
            }
        }
    }

    #[test]
    fn entries_are_grouped_by_system_and_alphabetical_within() {
        let list = entries();
        // GridWorld block first, DroneNav block second, no interleaving.
        let first_drone =
            list.iter().position(|e| e.system == SystemKind::DroneNav).expect("drone entries");
        assert!(
            list[..first_drone].iter().all(|e| e.system == SystemKind::GridWorld)
                && list[first_drone..].iter().all(|e| e.system == SystemKind::DroneNav),
            "entries must be grouped by system"
        );
        for block in [&list[..first_drone], &list[first_drone..]] {
            let names: Vec<&str> = block.iter().map(|e| e.name).collect();
            let mut sorted = names.clone();
            sorted.sort_unstable();
            assert_eq!(names, sorted, "entries must be alphabetical within each system");
        }
    }

    #[test]
    fn descriptions_carry_no_stale_markers() {
        for e in entries() {
            assert!(
                !e.description.contains("NEW:"),
                "{}: shipped scenarios must not advertise themselves as new",
                e.name
            );
        }
    }

    #[test]
    fn drone_variants_expand_with_their_knobs() {
        use crate::spec::Trials;
        use frlfi::DroneLayout;
        let c = builtin("drone-dynamic", Scale::Smoke).expect("built-in").expand().expect("ok");
        match &c.trials {
            Trials::Drone(t) => {
                assert!(t.iter().all(|t| t.layout == DroneLayout::DynamicObstacles));
                assert!(t.iter().all(|t| t.dropout.is_none()));
            }
            _ => panic!("drone campaign expected"),
        }
        let c = builtin("drone-dropout", Scale::Smoke).expect("built-in").expand().expect("ok");
        match &c.trials {
            Trials::Drone(t) => {
                assert!(t.iter().all(|t| t.layout == DroneLayout::Standard));
                assert!(t.iter().all(|t| t.dropout == Some(0.2)));
            }
            _ => panic!("drone campaign expected"),
        }
    }

    #[test]
    fn fig_builtins_expand_to_their_drivers_cells() {
        // FNV-1a (`weight_digest`) of each expansion's `Debug` text,
        // recorded from the
        // cell lists of the figure drivers these builtins replaced
        // (`fig3::heatmap_cells`, `fig7::gridworld_cells`,
        // `fig5::heatmap_cells`, and the cells `fig7::drone`,
        // `fig3::convergence`, `fig6::drone_count` and
        // `fig6::comm_interval` built).
        // fig7b @ Smoke differs from its driver's cells on purpose: its
        // smoke window is k = 2, not the driver's 3, which never fired.
        use crate::spec::Trials;
        const PINNED: [(&str, Scale, u64); 33] = [
            ("fig3a", Scale::Smoke, 0x14e6_404e_ed9c_f38f),
            ("fig3b", Scale::Smoke, 0xa893_8227_01ef_9541),
            ("fig3c", Scale::Smoke, 0xef7a_8bf5_ec09_2de7),
            ("fig7a", Scale::Smoke, 0x738a_c2dc_994a_a801),
            ("fig3a", Scale::Bench, 0xab48_b746_fdcf_a513),
            ("fig3b", Scale::Bench, 0x9e5a_70cf_32d3_a719),
            ("fig3c", Scale::Bench, 0x4d04_2f7e_c762_d055),
            ("fig7a", Scale::Bench, 0x8fb2_42cb_2743_7feb),
            ("fig3a", Scale::Full, 0xf039_4c3c_ac22_fc8d),
            ("fig3b", Scale::Full, 0xb89c_7582_dbef_c29f),
            ("fig3c", Scale::Full, 0xe6e2_47cc_ca30_f39d),
            ("fig7a", Scale::Full, 0x5c9b_2818_334b_d4d8),
            ("fig3e", Scale::Smoke, 0x56e8_aabc_3234_6ad1),
            ("fig3e", Scale::Bench, 0xab84_1952_0052_cdc7),
            ("fig3e", Scale::Full, 0x08d6_6fb0_105f_431d),
            ("fig5a", Scale::Smoke, 0xe9c2_4a3d_51b1_15cd),
            ("fig5b", Scale::Smoke, 0x1425_ee83_b507_00ef),
            ("fig5c", Scale::Smoke, 0x9f44_9c20_4dba_7897),
            ("fig7b", Scale::Smoke, 0xf314_7e23_b5a2_0da7),
            ("fig5a", Scale::Bench, 0x982b_c228_bb46_9062),
            ("fig5b", Scale::Bench, 0xa10a_f448_b266_ca8c),
            ("fig5c", Scale::Bench, 0xbd5e_4da2_1167_d6ad),
            ("fig7b", Scale::Bench, 0xa44a_bfab_01aa_08e8),
            ("fig5a", Scale::Full, 0xed05_14c8_a54c_a990),
            ("fig5b", Scale::Full, 0x39f6_0f36_8305_3308),
            ("fig5c", Scale::Full, 0x6213_bf30_83b9_3b0d),
            ("fig7b", Scale::Full, 0xea17_e1dd_03d7_f148),
            ("fig6a", Scale::Smoke, 0x1120_2e90_d21c_4f63),
            ("fig6a", Scale::Bench, 0x5168_fd8c_3387_27dd),
            ("fig6a", Scale::Full, 0x5f13_f026_4a0f_52e9),
            ("fig6b", Scale::Smoke, 0x8e35_6ff4_c7a9_7b46),
            ("fig6b", Scale::Bench, 0x7fab_16c8_6cff_a8ee),
            ("fig6b", Scale::Full, 0x636b_1860_cba3_f764),
        ];
        for (name, scale, digest) in PINNED {
            let campaign = builtin(name, scale).expect("built-in").expand().expect("expands");
            // Drone cells print their pre-training weights as an
            // uninitialised lazy cell: expansion trains nothing.
            let text = match &campaign.trials {
                Trials::Grid(cells) => format!("{cells:?}"),
                Trials::Drone(cells) => format!("{cells:?}"),
                Trials::Study(_) => panic!("{name}: training campaign expected"),
            };
            let got = frlfi::nn::weight_digest(text.as_bytes());
            assert_eq!(got, digest, "{name} @ {scale:?}: 0x{got:016x}");
        }
    }

    #[test]
    fn builtin_lookup() {
        assert!(builtin("fig3a", Scale::Smoke).is_some());
        assert!(builtin("drone-dynamic", Scale::Smoke).is_some());
        assert!(builtin("no-such", Scale::Smoke).is_none());
    }

    #[test]
    fn builtin_round_trips_through_toml() {
        for e in entries() {
            let s = e.scenario(Scale::Bench);
            let back = crate::spec::Scenario::from_toml(&s.to_toml())
                .unwrap_or_else(|err| panic!("{}: {err}", e.name));
            assert_eq!(s, back, "{}", e.name);
        }
    }
}
