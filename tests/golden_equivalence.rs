//! Golden-equivalence gate for the inference fast path.
//!
//! The constants below were captured on the pre-fast-path build (seed
//! `Network::forward` everywhere). The whole stack — trial harness,
//! prefix forks, campaign runner — now evaluates greedy policies
//! through `Network::infer`, and these tests pin the campaign-level
//! statistics to the slow path's values **bit for bit**. Any kernel
//! change that reorders floating-point accumulation will trip them.

use frlfi::envs::{DroneConfig, DroneSim};
use frlfi::experiments::harness::{
    drone_geometry, drone_pretrained_weights, run_drone_trial_batched, run_grid_cell_batched,
    run_grid_trial_batched, DroneTrial, GridTrial, Prefixes, PretrainedWeights, TrialFault,
};
use frlfi::experiments::study::{StudyKind, StudyModel};
use frlfi::experiments::{DEFAULT_SEED, SYSTEM_SEED};
use frlfi::fault::FaultSide;
use frlfi::nn::BatchInferCtx;
use frlfi::rl::{run_episode, Learner as _};
use frlfi::tensor::derive_seed;
use frlfi::Scale;
use frlfi_repro as _;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(ber, inject_episode)` cells of the fig3-at-test-scale campaign.
const GRID_CELLS: [(f64, usize); 3] = [(0.2, 40), (0.5, 125), (0.35, 90)];

/// Pre-fast-path per-trial success rates (%), bit-exact, in
/// `cell-major` repeat order (2 repeats per cell).
const GRID_GOLDEN_BITS: [u64; 6] = [
    0x4059000000000000, // cell 0 rep 0: 100.0
    0x4050aaaaaaaaaaaa, // cell 0 rep 1: 66.66666666666666
    0x4050aaaaaaaaaaaa, // cell 1 rep 0
    0x4050aaaaaaaaaaaa, // cell 1 rep 1
    0x4059000000000000, // cell 2 rep 0
    0x4059000000000000, // cell 2 rep 1
];

fn grid_cells() -> Vec<GridTrial> {
    GRID_CELLS
        .iter()
        .map(|&(ber, ep)| {
            GridTrial::new(3, 130).with_fault(TrialFault::transient_int8(
                FaultSide::AgentSide,
                ep,
                ber,
            ))
        })
        .collect()
}

#[test]
fn fig3_test_scale_trials_match_pre_fast_path_values_bitwise() {
    let cells = grid_cells();
    let mut ctx = BatchInferCtx::new();
    for (ci, cell) in cells.iter().enumerate() {
        for r in 0..2u64 {
            let seed = derive_seed(DEFAULT_SEED, ci as u64 * 2 + r);
            let v = run_grid_trial_batched(cell, seed, &mut ctx).expect("trial runs");
            assert_eq!(
                v.to_bits(),
                GRID_GOLDEN_BITS[ci * 2 + r as usize],
                "cell {ci} repeat {r}: fast-path trial value {v} drifted from the seed build"
            );
        }
    }
}

#[test]
fn fig3_test_scale_campaign_statistics_unchanged() {
    // The campaign's work unit (each trial forking from the campaign's
    // cached fault-free prefixes) and its in-order aggregation must
    // fold to the same cell statistics as the seed build — this is the
    // campaign-level statistics gate.
    let cells = grid_cells();
    let (prefixes, mut ctx) = (Prefixes::default(), BatchInferCtx::new());
    let stats = (0..cells.len()).map(|ci| {
        let values: Vec<f64> = (0..2)
            .map(|r| {
                let seed = derive_seed(DEFAULT_SEED, (ci * 2 + r) as u64);
                run_grid_cell_batched(&cells, ci, seed, &prefixes, &mut ctx).expect("trial runs")
            })
            .collect();
        frlfi::fault::aggregate_in_order(&values)
    });
    for (ci, s) in stats.enumerate() {
        let golden: Vec<f64> =
            (0..2).map(|r| f64::from_bits(GRID_GOLDEN_BITS[ci * 2 + r])).collect();
        let expect = frlfi::fault::aggregate_in_order(&golden);
        assert_eq!(s.mean.to_bits(), expect.mean.to_bits(), "cell {ci} mean drifted");
        assert_eq!(s.std.to_bits(), expect.std.to_bits(), "cell {ci} std drifted");
        assert_eq!(s.min, golden.iter().cloned().fold(f64::INFINITY, f64::min));
        assert_eq!(s.max, golden.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
    }
}

/// Pre-fast-path drone flight distances (m), bit-exact (smoke
/// geometry, 2 drones, agent-side transient int8 at episode 4,
/// BER 1e-2).
const DRONE_GOLDEN_BITS: [u64; 2] = [
    0x4060300000000000, // rep 0: 129.5
    0x405fe00000000000, // rep 1: 127.5
];

// ---- Batched-path gates (PR 3). The constants below were captured on
// ---- the pre-batching build (per-observation `InferCtx` everywhere)
// ---- by running these exact scenarios through the campaign runner.

/// Per-trial values of the pinned GridWorld campaign (smoke geometry,
/// 130 episodes, 3 agents; BER rows [0.2, 0.5] × episodes [40, 125],
/// 2 repeats), in `[cell][repeat]` order.
const GRID_CAMPAIGN_GOLDEN: [[f64; 2]; 4] =
    [[100.0, 66.66666666666666], [100.0, 100.0], [100.0, 100.0], [33.33333333333333, 0.0]];

/// The pinned campaign's pre-batching `summary.txt`, byte for byte.
const GRID_CAMPAIGN_SUMMARY: &str = "\
== Campaign golden-batch-grid (Smoke scale): success rate (%) ==
BER   ep40  ep125
20%   83.3  100.0
50%  100.0   16.7
";

/// Per-trial values of the pinned DroneNav campaign (smoke geometry,
/// 2 drones; BER rows [0.01, 0.1] × episode [4], 2 repeats).
const DRONE_CAMPAIGN_GOLDEN: [[f64; 2]; 2] = [[13.5, 117.0], [36.0, 12.0]];

/// The pinned drone campaign's pre-batching `summary.txt`.
const DRONE_CAMPAIGN_SUMMARY: &str = "\
== Campaign golden-batch-drone (Smoke scale): flight distance (m) ==
BER   ep4
1%   65.2
10%  24.0
";

fn golden_scenario(
    name: &str,
    system: frlfi_campaign::SystemKind,
    bers: Vec<f64>,
    inject_episodes: Vec<usize>,
) -> frlfi_campaign::Scenario {
    let mut s = frlfi_campaign::Scenario::new(name, system, Scale::Smoke);
    s.repeats = Some(2);
    s.fault.bers = bers;
    s.fault.inject_episodes = inject_episodes;
    s
}

fn run_golden_campaign(scenario: &frlfi_campaign::Scenario, golden: &[[f64; 2]], summary: &str) {
    let dir = std::env::temp_dir().join(format!(
        "frlfi-golden-batch-{}-{}",
        scenario.name,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = frlfi_campaign::RunnerConfig {
        threads: 3,
        batched: true,
        ..frlfi_campaign::RunnerConfig::default()
    };
    let out = frlfi_campaign::runner::run(scenario, &dir, &cfg).expect("campaign runs");
    assert!(out.complete());
    // Per-trial values, bit for bit against the pre-batching build.
    let campaign = scenario.expand().expect("expands");
    let stats = out.stats.expect("complete");
    for (cell, reps) in golden.iter().enumerate() {
        let expect = frlfi::fault::aggregate_in_order(reps);
        let s = stats[cell];
        assert_eq!(s.mean.to_bits(), expect.mean.to_bits(), "cell {cell} mean drifted");
        assert_eq!(s.std.to_bits(), expect.std.to_bits(), "cell {cell} std drifted");
        let mut ctx = BatchInferCtx::new();
        for (r, &g) in reps.iter().enumerate() {
            let seed = derive_seed(campaign.master_seed, (cell * 2 + r) as u64);
            let v = campaign.run_trial(cell, seed, &mut ctx).expect("golden trial runs");
            assert_eq!(
                v.to_bits(),
                g.to_bits(),
                "cell {cell} repeat {r}: batched trial value {v} drifted from the \
                 per-observation seed build ({g})"
            );
        }
    }
    // And the rendered summary.txt statistics are byte-identical.
    let text = std::fs::read_to_string(dir.join("summary.txt")).expect("summary written");
    assert_eq!(text, summary, "summary.txt drifted from the pre-batching build");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batched_grid_campaign_reproduces_pre_batching_summary() {
    let scenario = golden_scenario(
        "golden-batch-grid",
        frlfi_campaign::SystemKind::GridWorld,
        vec![0.2, 0.5],
        vec![40, 125],
    );
    run_golden_campaign(&scenario, &GRID_CAMPAIGN_GOLDEN, GRID_CAMPAIGN_SUMMARY);
}

#[test]
fn batched_drone_campaign_reproduces_pre_batching_summary() {
    let scenario = golden_scenario(
        "golden-batch-drone",
        frlfi_campaign::SystemKind::DroneNav,
        vec![0.01, 0.1],
        vec![4],
    );
    run_golden_campaign(&scenario, &DRONE_CAMPAIGN_GOLDEN, DRONE_CAMPAIGN_SUMMARY);
}

// ---- Drone scenario-variant gates (PR 4). The constants below were
// ---- captured when `drone-dynamic` / `drone-dropout` shipped, by
// ---- running the builtin smoke campaigns on the per-observation
// ---- path. They pin the campaign runner (an interrupted run resumed
// ---- through the JSONL log) and direct trials bit for bit. The test
// ---- names' "across modes" predates the single arena trial path.

/// Per-trial flight distances (m) of the builtin `drone-dynamic`
/// smoke campaign (BER rows [0, 1e-2] × episodes [4, 10], 1 repeat),
/// bit-exact, in cell order.
const DRONE_DYNAMIC_GOLDEN_BITS: [u64; 4] = [
    0x405d800000000000, // cell 0: 118.0
    0x405d800000000000, // cell 1: 118.0
    0x405a200000000000, // cell 2: 104.5
    0x4053a00000000000, // cell 3: 78.5
];

/// The pinned `drone-dynamic` campaign's `summary.txt`, byte for byte
/// (the file CI's builtin-expansion step also diffs against).
const DRONE_DYNAMIC_SUMMARY: &str = include_str!("data/drone_dynamic_smoke_summary.txt");

/// Per-trial flight distances (m) of the builtin `drone-dropout`
/// smoke campaign (20% per-round dropout, server-side faults).
const DRONE_DROPOUT_GOLDEN_BITS: [u64; 4] = [
    0x405fc00000000000, // cell 0: 127.0
    0x405fc00000000000, // cell 1: 127.0
    0x4040400000000000, // cell 2: 32.5
    0x405b800000000000, // cell 3: 110.0
];

/// The pinned `drone-dropout` campaign's `summary.txt`, byte for byte.
const DRONE_DROPOUT_SUMMARY: &str = include_str!("data/drone_dropout_smoke_summary.txt");

/// Runs one of the builtin drone scenario variants through the
/// campaign runner the hard way — killed after two trials, resumed to
/// completion with the ignored `batched` flag set — and pins every
/// persisted trial value, a direct trial run and the rendered summary
/// against the captured golden constants.
fn run_drone_variant_golden(name: &str, golden_bits: &[u64; 4], summary: &str) {
    let scenario = frlfi_campaign::registry::builtin(name, Scale::Smoke).expect("builtin scenario");
    let dir = std::env::temp_dir().join(format!("frlfi-golden-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Leg 1: killed after 2 of the 4 trials.
    let first = frlfi_campaign::runner::run(
        &scenario,
        &dir,
        &frlfi_campaign::RunnerConfig {
            threads: 2,
            max_new_trials: Some(2),
            ..frlfi_campaign::RunnerConfig::default()
        },
    )
    .expect("first leg runs");
    assert!(!first.complete(), "the interrupt budget must leave work");

    // Leg 2: resume to completion; `batched` changes nothing.
    let out = frlfi_campaign::runner::run(
        &scenario,
        &dir,
        &frlfi_campaign::RunnerConfig {
            threads: 3,
            batched: true,
            ..frlfi_campaign::RunnerConfig::default()
        },
    )
    .expect("batched resume leg runs");
    assert!(out.complete());
    assert!(out.new_trials < out.total_trials, "resume must skip persisted trials");

    let campaign = scenario.expand().expect("expands");
    assert_eq!(campaign.repeats, 1, "smoke drone geometry runs one repeat per cell");
    let stats = out.stats.expect("complete");
    for (cell, &bits) in golden_bits.iter().enumerate() {
        let golden = f64::from_bits(bits);
        assert_eq!(
            stats[cell].mean.to_bits(),
            bits,
            "{name} cell {cell}: resumed campaign mean {} drifted from {golden}",
            stats[cell].mean
        );
        let seed = derive_seed(campaign.master_seed, (cell * campaign.repeats) as u64);
        let v = campaign.run_trial(cell, seed, &mut BatchInferCtx::new()).expect("trial runs");
        assert_eq!(v.to_bits(), bits, "{name} cell {cell}: trial value {v} drifted");
    }
    let text = std::fs::read_to_string(dir.join("summary.txt")).expect("summary written");
    assert_eq!(text, summary, "{name}: summary.txt drifted from the captured golden");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drone_dynamic_campaign_matches_pinned_goldens_across_modes_and_resume() {
    run_drone_variant_golden("drone-dynamic", &DRONE_DYNAMIC_GOLDEN_BITS, DRONE_DYNAMIC_SUMMARY);
}

#[test]
fn drone_dropout_campaign_matches_pinned_goldens_across_modes_and_resume() {
    run_drone_variant_golden("drone-dropout", &DRONE_DROPOUT_GOLDEN_BITS, DRONE_DROPOUT_SUMMARY);
}

#[test]
fn committed_grid_dropout_smoke_summary_matches_a_fresh_single_process_run() {
    // tests/data/grid_dropout_smoke_summary.txt is the committed
    // single-process, single-thread output of the `grid-dropout`
    // smoke builtin — CI's multiproc-smoke step diffs the summary a
    // 2-process run (with one worker SIGKILLed mid-flight) produces
    // against this exact file, so it must stay fresh.
    let committed = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/grid_dropout_smoke_summary.txt"
    ))
    .expect("tests/data/grid_dropout_smoke_summary.txt ships in the repo");
    let scenario =
        frlfi_campaign::registry::builtin("grid-dropout", Scale::Smoke).expect("built-in");
    let dir =
        std::env::temp_dir().join(format!("frlfi-golden-grid-dropout-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg =
        frlfi_campaign::RunnerConfig { threads: 1, ..frlfi_campaign::RunnerConfig::default() };
    let out = frlfi_campaign::runner::run(&scenario, &dir, &cfg).expect("campaign runs");
    assert!(out.complete());
    let fresh = std::fs::read_to_string(dir.join("summary.txt")).expect("summary written");
    assert_eq!(
        fresh, committed,
        "grid-dropout smoke drifted from the committed multiproc-smoke golden — \
         regenerate tests/data/grid_dropout_smoke_summary.txt if the change is intended"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn committed_fig3e_fig6a_fig6b_smoke_summaries_match_fresh_runs() {
    // These builtins replaced the Fig. 3e and Fig. 6a/b drivers. Their
    // goldens were rendered before the drivers were deleted, from a
    // build whose smoke cell means were bit-equal to the drivers'.
    for name in ["fig3e", "fig6a", "fig6b"] {
        let path = format!("{}/tests/data/{name}_smoke_summary.txt", env!("CARGO_MANIFEST_DIR"));
        let committed = std::fs::read_to_string(&path).expect("golden ships in the repo");
        let scenario = frlfi_campaign::registry::builtin(name, Scale::Smoke).expect("built-in");
        let dir = std::env::temp_dir().join(format!("frlfi-golden-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg =
            frlfi_campaign::RunnerConfig { threads: 2, ..frlfi_campaign::RunnerConfig::default() };
        let out = frlfi_campaign::runner::run(&scenario, &dir, &cfg).expect("campaign runs");
        assert!(out.complete(), "{name}");
        let fresh = std::fs::read_to_string(dir.join("summary.txt")).expect("summary written");
        assert_eq!(fresh, committed, "{name} smoke drifted from {path}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---- Batched-training gates (PR 8). The constants below pin the
// ---- post-training weights of one GridWorld and one DroneNav
// ---- scenario, captured from the sequential reference training path
// ---- when batched training shipped. The arena path must reproduce
// ---- them bit for bit, on a fresh arena and on one reused from an
// ---- earlier run (the "both modes" of the test names, which predate
// ---- the single arena trial path) — any kernel change that reorders
// ---- gradient accumulation trips these before it reaches a campaign.

/// FNV-1a over the little-endian bytes of each weight's bit pattern:
/// stable, dependency-free, and order-sensitive, so a single flipped
/// mantissa bit anywhere in the fleet changes the digest.
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

/// Digest of the 3-agent GridWorld fleet after 80 sequential training
/// episodes (config pinned in the test below).
const GRID_TRAINED_WEIGHTS_DIGEST: u64 = 0x7680dc8f5fcc8f03;

/// Digest of the 2-drone DroneNav fleet after pretrain + 6 sequential
/// fine-tuning episodes (config pinned in the test below).
const DRONE_TRAINED_WEIGHTS_DIGEST: u64 = 0x59eb7b72422c53a4;

#[test]
fn grid_training_weights_match_pinned_golden_in_both_modes() {
    let run = |ctx: &mut BatchInferCtx| -> Vec<f32> {
        let cfg = frlfi::GridSystemConfig {
            n_agents: 3,
            seed: 77,
            epsilon_decay_episodes: 150,
            ..Default::default()
        };
        let mut s = frlfi::GridFrlSystem::new(cfg).expect("system builds");
        s.train(80, None, ctx).expect("training runs");
        (0..s.n_agents()).flat_map(|i| s.agent(i).network().snapshot()).collect()
    };
    let mut ctx = BatchInferCtx::new();
    let fresh = run(&mut ctx);
    let reused = run(&mut ctx);
    let fresh_bits: Vec<u32> = fresh.iter().map(|w| w.to_bits()).collect();
    let reused_bits: Vec<u32> = reused.iter().map(|w| w.to_bits()).collect();
    assert_eq!(fresh_bits, reused_bits, "grid training drifted on a reused arena");
    assert_eq!(
        weight_digest(&fresh),
        GRID_TRAINED_WEIGHTS_DIGEST,
        "trained grid weights drifted from the pinned sequential golden"
    );
}

#[test]
fn drone_training_weights_match_pinned_golden_in_both_modes() {
    let run = |ctx: &mut BatchInferCtx| -> Vec<f32> {
        let cfg = frlfi::DroneSystemConfig {
            n_drones: 2,
            seed: 0xD20E,
            pretrain_episodes: 10,
            ..Default::default()
        };
        let mut s = frlfi::DroneFrlSystem::new(cfg).expect("system builds");
        s.pretrain().expect("pretraining runs");
        s.train(6, None, ctx).expect("fine-tuning runs");
        s.fleet_weights()
    };
    let mut ctx = BatchInferCtx::new();
    let fresh = run(&mut ctx);
    let reused = run(&mut ctx);
    let fresh_bits: Vec<u32> = fresh.iter().map(|w| w.to_bits()).collect();
    let reused_bits: Vec<u32> = reused.iter().map(|w| w.to_bits()).collect();
    assert_eq!(fresh_bits, reused_bits, "drone fine-tuning drifted on a reused arena");
    assert_eq!(
        weight_digest(&fresh),
        DRONE_TRAINED_WEIGHTS_DIGEST,
        "fine-tuned drone weights drifted from the pinned sequential golden"
    );
}

/// Digest of `drone_pretrained_weights(59)`, captured from the
/// per-observation pre-training (`run_episode`) before pre-training
/// moved to the arena. Its episodes 44, 50 and 58 keep 65, 66 and 94
/// steps, so their updates run three 32-row chunks or more.
const DRONE_PRETRAINED_59_DIGEST: u64 = 0x9bf74b5c91140a4e;

#[test]
fn drone_pretraining_matches_pinned_per_observation_weights() {
    assert_eq!(
        weight_digest(&drone_pretrained_weights(59)),
        DRONE_PRETRAINED_59_DIGEST,
        "pre-trained drone weights drifted from the pinned per-observation golden"
    );
    // At Smoke, against the per-observation loop `pretrain` replaces.
    let n = drone_geometry(Scale::Smoke).pretrain_episodes;
    let cfg = frlfi::DroneSystemConfig {
        n_drones: 1,
        seed: SYSTEM_SEED,
        pretrain_episodes: n,
        ..Default::default()
    };
    let sys = frlfi::DroneFrlSystem::new(cfg).expect("system builds");
    let cfg = sys.config();
    let mut learner = sys.agent(0).clone();
    let mut env = DroneSim::new(
        DroneConfig { max_steps: cfg.train_max_steps, ..cfg.sim },
        derive_seed(cfg.seed, 0x0FF),
    );
    let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, 0x0FF + 1));
    for _ in 0..n {
        run_episode(&mut env, &mut learner, &mut rng).expect("episode runs");
    }
    let bits = |w: Vec<f32>| w.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    assert_eq!(
        bits(drone_pretrained_weights(n)),
        bits(learner.network().snapshot()),
        "arena pre-training diverged from the per-observation loop"
    );
}

#[test]
fn drone_smoke_trials_match_pre_fast_path_values_bitwise() {
    let g = drone_geometry(Scale::Smoke);
    let weights = PretrainedWeights::lazy(g.pretrain_episodes);
    let t = DroneTrial::new(&g, weights, 2).with_fault(TrialFault::transient_int8(
        FaultSide::AgentSide,
        4,
        1e-2,
    ));
    let mut ctx = BatchInferCtx::new();
    for r in 0..2u64 {
        let seed = derive_seed(DEFAULT_SEED ^ 0xD0, r);
        let v = run_drone_trial_batched(&t, seed, &mut ctx).expect("trial runs");
        assert_eq!(
            v.to_bits(),
            DRONE_GOLDEN_BITS[r as usize],
            "drone repeat {r}: fast-path trial value {v} drifted from the seed build"
        );
    }
}

/// Digest of every weight plane of the Fig. 4 study's GridWorld model
/// at Smoke scale, captured from the per-observation training path
/// before study train tasks moved to the arena.
const STUDY_GRID_MODEL_DIGEST: u64 = 0x285ea8286fa1124c;

/// Likewise for the Fig. 8b study's DroneNav model (pre-training plus
/// federated fine-tuning).
const STUDY_DRONE_MODEL_DIGEST: u64 = 0x7bd5a75907f642c5;

#[test]
fn study_model_training_matches_pinned_per_observation_digests() {
    let cases = [
        (StudyKind::Fig4, StudyModel::Grid { n_agents: 3, episodes: 150 }, STUDY_GRID_MODEL_DIGEST),
        (
            StudyKind::Fig8Drone,
            StudyModel::Drone { n_drones: 2, pretrain_episodes: 6, fine_tune_episodes: 12 },
            STUDY_DRONE_MODEL_DIGEST,
        ),
    ];
    for (kind, model, digest) in cases {
        let g = kind.geometry(Scale::Smoke).expect("geometry");
        assert_eq!(g.models()[0], model, "{kind:?}: the pinned model changed");
        let planes = model.train().expect("model trains");
        assert_eq!(
            weight_digest(&planes.concat()),
            digest,
            "{kind:?}: trained study weights drifted from the pinned per-observation golden"
        );
    }
}
