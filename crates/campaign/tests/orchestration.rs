//! End-to-end campaign orchestration guarantees:
//!
//! * a figure campaign reproduces the statistics its deleted figure
//!   driver produced, bit for bit (pinned per-cell constants);
//! * interrupt + resume is bit-identical to a single pass, at multiple
//!   thread counts;
//! * campaign directories are defended against mixing scenarios and
//!   torn trial logs.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use frlfi::nn::weight_digest;
use frlfi::Scale;
use frlfi_campaign::{registry, runner, CampaignOutcome, RunnerConfig, Scenario, SystemKind};
use frlfi_fault::CellStats;

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "frlfi-campaign-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_spec_refused_at_expansion_leaves_its_directory_usable() {
    // A refused spec writes no manifest, so the corrected spec can
    // still run in the same directory.
    let dir = temp_dir("refused");
    let mut bad = cheap_grid_scenario("refused");
    bad.fleet.agents = Some(1);
    bad.mitigation = Some(frlfi_campaign::spec::MitigationSpec {
        p_percent: 10.0,
        k_consecutive: 2,
        checkpoint_interval: 1,
    });
    let err = runner::run(&bad, &dir, &RunnerConfig::default()).expect_err("refused");
    assert!(err.contains("≥ 2 agents"), "{err}");
    assert!(!dir.join("campaign.toml").exists(), "a refused spec wrote a manifest");
    bad.fleet.agents = Some(2);
    let cfg = RunnerConfig { max_new_trials: Some(1), ..RunnerConfig::default() };
    runner::run(&bad, &dir, &cfg).expect("the corrected spec runs in the same directory");
    std::fs::remove_dir_all(&dir).ok();
}

fn cheap_grid_scenario(name: &str) -> Scenario {
    let mut s = Scenario::new(name, SystemKind::GridWorld, Scale::Smoke);
    s.fault.bers = vec![0.0, 0.2];
    s.fault.inject_episodes = vec![40];
    s.train.total_episodes = Some(60);
    s.repeats = Some(3);
    s
}

/// Asserts a completed campaign's per-cell `(mean, std)` bits, and the
/// rendered table's cells, against pinned `(mean, std)` bit patterns.
fn assert_pinned_cells(out: &CampaignOutcome, pinned: &[(u64, u64)]) {
    let stats = out.stats.as_ref().expect("complete");
    let table = out.table.as_ref().expect("complete");
    assert_eq!(stats.len(), pinned.len());
    assert_eq!(table.rows.len() * table.columns.len(), pinned.len());
    for (i, (s, &(mean, std))) in stats.iter().zip(pinned).enumerate() {
        assert_eq!(
            (s.mean.to_bits(), s.std.to_bits()),
            (mean, std),
            "cell {i}: mean {} std {} differ from the pinned figure-driver value",
            s.mean,
            s.std
        );
        let (r, c) = (i / table.columns.len(), i % table.columns.len());
        assert_eq!(table.value(r, c).to_bits(), mean, "table cell ({r}, {c})");
    }
}

const SR_100: (u64, u64) = (0x4059_0000_0000_0000, 0); // 100.0 %, std 0

/// Fig. 3a @ Smoke per-cell `(mean, std)` bits, recorded from the
/// `experiments::fig3` driver this builtin replaced (every cell is
/// saturated at 100 %, which is why the cell digest is pinned too).
const FIG3A_SMOKE: [(u64, u64); 6] = [SR_100; 6];

/// FNV-1a (`weight_digest`) of the Fig. 3a @ Smoke cell list's `Debug`
/// text, recorded from the deleted `fig3::heatmap_cells`.
const FIG3A_SMOKE_CELLS: u64 = 0x14e6_404e_ed9c_f38f;

/// Fig. 5a @ Smoke per-cell `(mean, std)` bits (one repeat per cell),
/// recorded from the `experiments::fig5` driver this builtin replaced.
const FIG5A_SMOKE: [(u64, u64); 4] = [
    (0x405f_c000_0000_0000, 0), // 127.0 m
    (0x405f_c000_0000_0000, 0), // 127.0 m
    (0x4055_e000_0000_0000, 0), // 87.5 m
    (0x4059_2000_0000_0000, 0), // 100.5 m
];

fn assert_stats_bit_identical(a: &[CellStats], b: &[CellStats]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.mean.to_bits(), y.mean.to_bits());
        assert_eq!(x.std.to_bits(), y.std.to_bits());
        assert_eq!(x.n, y.n);
    }
}

#[test]
fn fig3a_campaign_reproduces_the_figure_driver() {
    let scenario = registry::builtin("fig3a", Scale::Smoke).expect("built-in");

    // The campaign's expanded cells are the driver's cells, verbatim.
    let campaign = scenario.expand().expect("expands");
    match &campaign.trials {
        frlfi_campaign::Trials::Grid(cells) => {
            assert_eq!(weight_digest(format!("{cells:?}").as_bytes()), FIG3A_SMOKE_CELLS)
        }
        _ => panic!("grid campaign expected"),
    }

    // And the executed campaign reproduces the figure driver's statistics
    // exactly, as a 3 BER × 2 episode table of success rates.
    let dir = temp_dir("fig3a");
    let out = runner::run(&scenario, &dir, &RunnerConfig::default()).expect("runs");
    assert!(out.complete());
    assert_pinned_cells(&out, &FIG3A_SMOKE);
    let table = out.table.expect("complete");
    assert_eq!((table.rows.len(), table.columns.len()), (3, 2));
    for (_, row) in &table.rows {
        for &v in row {
            assert!((0.0..=100.0).contains(&v), "SR {v} out of range");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn interrupted_campaign_resumes_bit_identically_across_thread_counts() {
    let scenario = cheap_grid_scenario("resume-test");

    // Reference: one uninterrupted pass.
    let ref_dir = temp_dir("ref");
    let reference =
        runner::run(&scenario, &ref_dir, &RunnerConfig { threads: 2, ..RunnerConfig::default() })
            .expect("reference run");
    let ref_stats = reference.stats.expect("complete");

    for &threads in &[1usize, 3, 8] {
        let dir = temp_dir("resumed");
        // Kill after 1 trial, then after 2 more, then run to completion —
        // with a different thread count each leg.
        let legs = [Some(1), Some(2), None];
        let mut last = None;
        for (i, &max) in legs.iter().enumerate() {
            let leg_threads = [threads, 1, threads][i];
            let out = runner::run(
                &scenario,
                &dir,
                &RunnerConfig {
                    threads: leg_threads,
                    max_new_trials: max,
                    ..RunnerConfig::default()
                },
            )
            .expect("leg runs");
            last = Some(out);
        }
        let out = last.expect("ran");
        assert!(out.complete());
        assert!(out.new_trials < out.total_trials, "resume must skip persisted trials");
        assert_stats_bit_identical(&ref_stats, &out.stats.expect("complete"));
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&ref_dir).ok();
}

#[test]
fn batched_flag_is_a_no_op() {
    // Every trial runs on the arena path; `batched` only survives so
    // existing callers still build. One thread fixes the commit order,
    // so the whole trial log must match byte for byte.
    let scenario = cheap_grid_scenario("batched-flag");
    let run = |batched: bool| {
        let dir = temp_dir("batched-flag");
        let cfg = RunnerConfig { threads: 1, batched, ..RunnerConfig::default() };
        assert!(runner::run(&scenario, &dir, &cfg).expect("runs").complete());
        let read = |f: &str| std::fs::read(dir.join(f)).expect(f);
        let bytes = (read("summary.txt"), read("trials.jsonl"));
        std::fs::remove_dir_all(&dir).ok();
        bytes
    };
    let (summary_off, trials_off) = run(false);
    let (summary_on, trials_on) = run(true);
    assert_eq!(summary_on, summary_off, "summary.txt depends on `batched`");
    assert_eq!(trials_on, trials_off, "trials.jsonl depends on `batched`");

    // Legs with and without the flag mix freely across a resume.
    let dir = temp_dir("batched-mixed");
    runner::run(
        &scenario,
        &dir,
        &RunnerConfig { threads: 2, max_new_trials: Some(2), ..RunnerConfig::default() },
    )
    .expect("first leg");
    let out = runner::run(
        &scenario,
        &dir,
        &RunnerConfig { threads: 2, batched: true, ..RunnerConfig::default() },
    )
    .expect("resume leg");
    assert!(out.complete());
    assert!(out.new_trials < out.total_trials, "resume must skip persisted trials");
    let summary = std::fs::read(dir.join("summary.txt")).expect("summary");
    assert_eq!(summary, summary_off, "a mixed resume changed summary.txt");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wide_summary_adds_spread_columns_without_touching_the_means_grid() {
    let scenario = cheap_grid_scenario("wide-summary");
    let plain_dir = temp_dir("wide-off");
    let plain = runner::run(&scenario, &plain_dir, &RunnerConfig::default()).expect("plain");
    let plain_text = std::fs::read_to_string(plain_dir.join("summary.txt")).expect("summary");
    assert!(plain.wide_table.is_none(), "wide table is opt-in");

    let wide_dir = temp_dir("wide-on");
    let out = runner::run(
        &scenario,
        &wide_dir,
        &RunnerConfig { wide_summary: true, batched: true, ..RunnerConfig::default() },
    )
    .expect("wide");
    let text = std::fs::read_to_string(wide_dir.join("summary.txt")).expect("summary");
    // The standard means grid is byte-identical up front...
    assert!(text.starts_with(&plain_text), "means grid must be unchanged:\n{text}");
    // ...followed by the wide table: header row + one labelled row per
    // cell with mean/min/max/ci95 columns.
    let wide = out.wide_table.expect("wide table present");
    assert_eq!(wide.columns, vec!["mean", "min", "max", "ci95"]);
    assert_eq!(wide.rows.len(), 2, "one row per campaign cell");
    assert!(text.contains("per-cell spread over 3 repeats"), "{text}");
    assert!(text.contains("ber 20% @ ep40"), "{text}");
    let stats = out.stats.expect("complete");
    for (r, s) in stats.iter().enumerate() {
        assert_eq!(wide.value(r, 0).to_bits(), s.mean.to_bits());
        assert_eq!(wide.value(r, 1).to_bits(), s.min.to_bits());
        assert_eq!(wide.value(r, 2).to_bits(), s.max.to_bits());
        assert_eq!(wide.value(r, 3).to_bits(), s.ci95_half_width().to_bits());
        assert!(s.min <= s.mean && s.mean <= s.max);
    }
    std::fs::remove_dir_all(&plain_dir).ok();
    std::fs::remove_dir_all(&wide_dir).ok();
}

#[test]
fn campaign_dir_rejects_a_different_scenario() {
    let dir = temp_dir("mismatch");
    let a = cheap_grid_scenario("scenario-a");
    runner::run(
        &a,
        &dir,
        &RunnerConfig { threads: 1, max_new_trials: Some(1), ..RunnerConfig::default() },
    )
    .expect("first leg");
    let mut b = cheap_grid_scenario("scenario-b");
    b.fault.bers = vec![0.0, 0.1];
    let err = runner::run(&b, &dir, &RunnerConfig::default()).expect_err("must refuse");
    assert!(err.contains("different campaign"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_trailing_record_is_tolerated_and_rerun() {
    let dir = temp_dir("torn");
    let scenario = cheap_grid_scenario("torn-test");
    runner::run(
        &scenario,
        &dir,
        &RunnerConfig { threads: 1, max_new_trials: Some(2), ..RunnerConfig::default() },
    )
    .expect("partial run");
    // Simulate a crash mid-write: a torn, unparseable trailing line.
    use std::io::Write;
    let mut f =
        std::fs::OpenOptions::new().append(true).open(dir.join("trials.jsonl")).expect("open log");
    write!(f, "{{\"cell\":1,\"repe").expect("append torn tail");
    drop(f);

    // Resume in two legs: the first appends new records after the torn
    // tail (which must be truncated away, not merged into one corrupt
    // line), and the second re-reads the log it left behind.
    runner::run(
        &scenario,
        &dir,
        &RunnerConfig { threads: 1, max_new_trials: Some(2), ..RunnerConfig::default() },
    )
    .expect("resume after torn tail");
    let out = runner::run(&scenario, &dir, &RunnerConfig::default()).expect("final resume");
    assert!(out.complete());

    // And it still matches a clean single pass.
    let clean_dir = temp_dir("torn-clean");
    let clean = runner::run(&scenario, &clean_dir, &RunnerConfig::default()).expect("clean");
    assert_stats_bit_identical(&clean.stats.expect("c"), &out.stats.expect("o"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&clean_dir).ok();
}

#[test]
fn dropped_unsynced_tail_reruns_exactly_the_lost_trials() {
    let scenario = cheap_grid_scenario("dropped-test");
    let cfg = RunnerConfig { threads: 2, ..RunnerConfig::default() };
    let clean_dir = temp_dir("dropped-clean");
    let clean = runner::run(&scenario, &clean_dir, &cfg).expect("clean");
    let clean_stats = clean.stats.expect("complete");
    let clean_summary = std::fs::read(clean_dir.join("summary.txt")).expect("clean summary");
    let text = std::fs::read_to_string(clean_dir.join("trials.jsonl")).expect("read log");
    let lines: Vec<&str> = text.lines().collect();
    let kept = 2;
    assert!(lines.len() > kept + 1, "{} records", lines.len());
    let prefix = lines[..kept].iter().map(|l| l.len() + 1).sum::<usize>();
    let record = lines[kept].as_bytes();

    // The shapes a crash leaves when appends after the last sync are
    // lost: the log cut back mid-record, then a run of NUL bytes where
    // the lost data blocks were; a record cut right after its closing
    // `}`; a lost block of NULs that ends in a newline, so the bad line
    // is the last complete one.
    let tails: [(&str, Vec<u8>); 3] = [
        ("mid-record", [&record[..record.len() / 2], &[0u8; 96]].concat()),
        ("unterminated", record.to_vec()),
        ("nul-line", [&[0u8; 96][..], b"\n"].concat()),
    ];
    for (shape, tail) in tails {
        let dir = temp_dir(&format!("dropped-{shape}"));
        std::fs::create_dir_all(&dir).expect("create dir");
        std::fs::copy(clean_dir.join("campaign.toml"), dir.join("campaign.toml")).expect("copy");
        let log = dir.join("trials.jsonl");
        std::fs::write(&log, [&text.as_bytes()[..prefix], &tail].concat()).expect("write log");

        let out = runner::resume(&dir, &cfg).unwrap_or_else(|e| panic!("{shape}: resume: {e}"));
        assert!(out.complete(), "{shape}");
        assert_eq!(out.new_trials, lines.len() - kept, "{shape}: exactly the lost trials re-run");
        let resumed = std::fs::read_to_string(&log).expect("read resumed log");
        let resumed: Vec<&str> = resumed.lines().collect();
        assert_eq!(resumed[..kept], lines[..kept], "{shape}: the surviving prefix is kept");
        let (mut rerun, mut lost) = (resumed[kept..].to_vec(), lines[kept..].to_vec());
        rerun.sort_unstable();
        lost.sort_unstable();
        assert_eq!(rerun, lost, "{shape}: the re-run records are the lost records, byte for byte");
        assert_stats_bit_identical(&clean_stats, &out.stats.expect("complete"));
        assert_eq!(std::fs::read(dir.join("summary.txt")).expect("summary"), clean_summary);

        let again = runner::resume(&dir, &cfg).unwrap_or_else(|e| panic!("{shape}: again: {e}"));
        assert!(again.complete() && again.new_trials == 0, "{shape}: {again:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&clean_dir).ok();
}

#[test]
fn corrupt_interior_record_is_an_error() {
    let dir = temp_dir("corrupt");
    let scenario = cheap_grid_scenario("corrupt-test");
    runner::run(
        &scenario,
        &dir,
        &RunnerConfig { threads: 1, max_new_trials: Some(1), ..RunnerConfig::default() },
    )
    .expect("partial run");
    use std::io::Write;
    let mut f =
        std::fs::OpenOptions::new().append(true).open(dir.join("trials.jsonl")).expect("open log");
    writeln!(f, "not json").expect("append");
    writeln!(f, "also not json").expect("append");
    drop(f);
    let err = runner::run(&scenario, &dir, &RunnerConfig::default()).expect_err("must refuse");
    assert!(err.contains("line"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn spec_file_round_trip_drives_the_same_campaign() {
    // A scenario written to TOML, re-parsed and run, is the same
    // campaign (what `campaign run <spec.toml>` does).
    let scenario = cheap_grid_scenario("toml-drive");
    let reparsed = Scenario::from_toml(&scenario.to_toml()).expect("parse");
    assert_eq!(scenario, reparsed);

    let dir_a = temp_dir("toml-a");
    let dir_b = temp_dir("toml-b");
    let a = runner::run(&scenario, &dir_a, &RunnerConfig::default()).expect("a");
    let b = runner::run(&reparsed, &dir_b, &RunnerConfig::default()).expect("b");
    assert_stats_bit_identical(&a.stats.expect("a"), &b.stats.expect("b"));
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

#[test]
fn new_scenario_variants_run_end_to_end() {
    for name in ["grid-dynamic", "grid-dropout", "grid-fleet"] {
        let mut scenario = registry::builtin(name, Scale::Smoke).expect("built-in");
        // Trim to a handful of trials: variants differ in mechanism,
        // not statistical weight, at test time.
        scenario.fault.bers = vec![0.0, 0.2];
        scenario.fault.inject_episodes = vec![30];
        scenario.train.total_episodes = Some(60);
        scenario.repeats = Some(1);
        if name == "grid-fleet" {
            scenario.fleet.agents_sweep = vec![1, 2];
        }
        let dir = temp_dir(name);
        let out = runner::run(&scenario, &dir, &RunnerConfig::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(out.complete(), "{name}");
        let stats = out.stats.expect("complete");
        assert!(
            stats.iter().all(|s| (0.0..=100.0).contains(&s.mean)),
            "{name}: success rates out of range: {stats:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn drone_scenario_variants_run_end_to_end_across_thread_counts() {
    // Trimmed drone-dynamic / drone-dropout campaigns: each runs to
    // completion on one and on two threads, with byte-identical
    // summaries (the full builtin geometry is pinned by
    // tests/golden_equivalence.rs).
    for name in ["drone-dynamic", "drone-dropout"] {
        let mut scenario = registry::builtin(name, Scale::Smoke).expect("built-in");
        scenario.fault.bers = vec![0.0, 1e-2];
        scenario.fault.inject_episodes = vec![3];
        scenario.train.total_episodes = Some(5);
        scenario.train.pretrain_episodes = Some(2);
        scenario.train.eval_attempts = Some(2);
        scenario.repeats = Some(2);

        let one_dir = temp_dir(&format!("{name}-1"));
        let one_cfg = RunnerConfig { threads: 1, ..RunnerConfig::default() };
        let one =
            runner::run(&scenario, &one_dir, &one_cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(one.complete(), "{name}");
        let one_stats = one.stats.expect("complete");
        let max = 361.0 * 2.0; // full step budget × speed
        assert!(
            one_stats.iter().all(|s| s.mean > 0.0 && s.mean <= max),
            "{name}: flight distances out of range: {one_stats:?}"
        );

        let two_dir = temp_dir(&format!("{name}-2"));
        let two = runner::run(
            &scenario,
            &two_dir,
            &RunnerConfig { threads: 2, ..RunnerConfig::default() },
        )
        .unwrap_or_else(|e| panic!("{name} on two threads: {e}"));
        assert!(two.complete(), "{name} on two threads");
        assert_stats_bit_identical(&one_stats, &two.stats.expect("complete"));

        let one_text = std::fs::read_to_string(one_dir.join("summary.txt")).expect("summary");
        let two_text = std::fs::read_to_string(two_dir.join("summary.txt")).expect("summary");
        assert_eq!(one_text, two_text, "{name}: summary must not depend on the thread count");

        std::fs::remove_dir_all(&one_dir).ok();
        std::fs::remove_dir_all(&two_dir).ok();
    }
}

#[test]
fn shipped_fig3_spec_file_is_the_builtin_campaign() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/fig3a_bench.toml");
    let text = std::fs::read_to_string(path).expect("specs/fig3a_bench.toml ships in the repo");
    let from_file = Scenario::from_toml(&text).expect("parses");
    let builtin = registry::builtin("fig3a", Scale::Bench).expect("built-in");
    assert_eq!(from_file, builtin, "the shipped spec must drive the exact Fig. 3a campaign");
}

#[test]
fn shipped_drone_dynamic_spec_file_is_the_builtin_campaign() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/drone_dynamic_smoke.toml");
    let text =
        std::fs::read_to_string(path).expect("specs/drone_dynamic_smoke.toml ships in the repo");
    let from_file = Scenario::from_toml(&text).expect("parses");
    let builtin = registry::builtin("drone-dynamic", Scale::Smoke).expect("built-in");
    assert_eq!(from_file, builtin, "the shipped spec must drive the exact drone-dynamic campaign");
}

#[test]
fn shipped_drone_motion_spec_file_is_the_builtin_campaign() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/drone_motion_smoke.toml");
    let text =
        std::fs::read_to_string(path).expect("specs/drone_motion_smoke.toml ships in the repo");
    let from_file = Scenario::from_toml(&text).expect("parses");
    let builtin = registry::builtin("drone-motion", Scale::Smoke).expect("built-in");
    assert_eq!(from_file, builtin, "the shipped spec must drive the exact drone-motion campaign");
    // The explicit motion reaches the expanded trials.
    match &builtin.expand().expect("expands").trials {
        frlfi_campaign::Trials::Drone(t) => assert!(t.iter().all(|t| {
            t.motion == Some(frlfi::envs::ObstacleMotion { amplitude: 3.0, period: 16.0 })
        })),
        _ => panic!("drone campaign expected"),
    }
}

#[test]
fn fig5a_drone_campaign_reproduces_the_figure_driver() {
    let scenario = registry::builtin("fig5a", Scale::Smoke).expect("built-in");
    let dir = temp_dir("fig5a");
    let out = runner::run(&scenario, &dir, &RunnerConfig::default()).expect("runs");
    assert_pinned_cells(&out, &FIG5A_SMOKE);
    let table = out.table.expect("complete");
    assert_eq!(table.rows.len(), 2);
    for (_, row) in &table.rows {
        for &v in row {
            assert!(v > 0.0, "distance must be positive, got {v}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn campaign_cli_runs_interrupts_and_resumes() {
    let exe = env!("CARGO_BIN_EXE_campaign");
    let dir = temp_dir("cli");
    let spec_path =
        std::env::temp_dir().join(format!("frlfi-cli-spec-{}.toml", std::process::id()));
    std::fs::write(&spec_path, cheap_grid_scenario("cli-test").to_toml()).expect("write spec");

    let run = |args: &[&str]| {
        let out = std::process::Command::new(exe).args(args).output().expect("spawn campaign");
        (
            out.status.success(),
            String::from_utf8_lossy(&out.stdout).into_owned()
                + &String::from_utf8_lossy(&out.stderr),
        )
    };

    let (ok, listing) = run(&["list"]);
    assert!(ok, "{listing}");
    assert!(listing.contains("fig3a") && listing.contains("grid-dropout"), "{listing}");
    assert!(listing.contains("drone-dynamic") && listing.contains("drone-dropout"), "{listing}");
    // Grouped by system, with no stale "NEW:" markers.
    assert!(listing.contains("GridWorld:") && listing.contains("DroneNav:"), "{listing}");
    assert!(!listing.contains("NEW:"), "{listing}");

    let (ok, expanded) = run(&["expand", "--all", "--scale", "smoke"]);
    assert!(ok, "{expanded}");
    for e in registry::entries() {
        assert!(expanded.contains(e.name), "expand --all must cover {}: {expanded}", e.name);
    }
    let (ok, one) = run(&["expand", "drone-dropout", "--scale", "smoke"]);
    assert!(ok, "{one}");
    assert!(one.contains("4 cells × 1 repeats = 4 trials"), "{one}");
    let (ok, err) = run(&["expand", "no-such-builtin"]);
    assert!(!ok);
    assert!(err.contains("neither a file nor a built-in"), "{err}");
    let (ok, err) = run(&["expand", "fig3a", "--all"]);
    assert!(!ok, "a target and --all together must be rejected: {err}");
    let (ok, err) = run(&["run", "fig3a", "--all"]);
    assert!(!ok);
    assert!(err.contains("only valid with"), "{err}");

    let dir_s = dir.to_str().expect("utf8 tmp");
    let spec_s = spec_path.to_str().expect("utf8 tmp");
    let (ok, first) = run(&["run", spec_s, "--out", dir_s, "--max-trials", "2", "--threads", "2"]);
    assert!(ok, "{first}");
    assert!(first.contains("incomplete"), "{first}");

    let (ok, resumed) = run(&["resume", dir_s]);
    assert!(ok, "{resumed}");
    assert!(resumed.contains("Campaign cli-test"), "{resumed}");
    assert!(std::fs::read_to_string(dir.join("summary.txt")).is_ok());

    let (ok, err) = run(&["run", "no-such-builtin"]);
    assert!(!ok);
    assert!(err.contains("neither a file nor a built-in"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&spec_path).ok();
}

/// Fig. 3a @ Bench per-cell `(mean, std)` bits (6 BERs × 6 injection
/// episodes, 4 repeats), recorded from the `experiments::fig3` driver
/// this builtin replaced.
const FIG3A_BENCH: [(u64, u64); 36] = [
    (0x4054_d555_5555_5556, 0),
    (0x4054_d555_5555_5556, 0),
    (0x4054_d555_5555_5556, 0),
    (0x4054_d555_5555_5556, 0),
    (0x4054_d555_5555_5556, 0),
    (0x4054_d555_5555_5556, 0),
    (0x4054_d555_5555_5556, 0x4027_91fa_556f_33a0),
    (0x4053_caaa_aaaa_aaab, 0x401c_de15_5cb1_4fe4),
    (0x4053_caaa_aaaa_aaab, 0x401c_de15_5cb1_4fe4),
    (0x4053_caaa_aaaa_aaab, 0x401c_de15_5cb1_4fe4),
    (0x4055_e000_0000_0001, 0x401c_de15_5cb1_4fd9),
    (0x4054_d555_5555_5556, 0),
    (0x4055_e000_0000_0001, 0x401c_de15_5cb1_4fd9),
    (0x4056_eaaa_aaaa_aaab, 0x4020_aaaa_aaaa_aaa7),
    (0x4056_eaaa_aaaa_aaab, 0x4020_aaaa_aaaa_aaa7),
    (0x4053_caaa_aaaa_aaab, 0x401c_de15_5cb1_4fe5),
    (0x4053_caaa_aaaa_aaab, 0x401c_de15_5cb1_4fe4),
    (0x4053_caaa_aaaa_aaab, 0x401c_de15_5cb1_4fe5),
    (0x4057_f555_5555_5555, 0x401c_de15_5cb1_4fd9),
    (0x4054_d555_5555_5556, 0),
    (0x4054_d555_5555_5556, 0),
    (0x4055_e000_0000_0001, 0x401c_de15_5cb1_4fd9),
    (0x4053_caaa_aaaa_aaab, 0x401c_de15_5cb1_4fe4),
    (0x4054_d555_5555_5556, 0),
    (0x4054_d555_5555_5556, 0),
    (0x4054_d555_5555_5556, 0x4027_91fa_556f_33a0),
    (0x4055_e000_0000_0001, 0x401c_de15_5cb1_4fd9),
    (0x4055_e000_0000_0000, 0x402b_a377_5a27_fe82),
    (0x4053_caaa_aaaa_aaaa, 0x402b_a377_5a27_fe83),
    (0x4054_d555_5555_5556, 0),
    (0x4056_eaaa_aaaa_aaab, 0x4020_aaaa_aaaa_aaa7),
    (0x4051_b555_5555_5555, 0x401c_de15_5cb1_4fe5),
    (0x4053_caaa_aaaa_aaaa, 0x402b_a377_5a27_fe83),
    (0x4051_b555_5555_5555, 0x401c_de15_5cb1_4fe4),
    (0x4053_caaa_aaaa_aaab, 0x401c_de15_5cb1_4fe4),
    (0x4053_caaa_aaaa_aaab, 0x401c_de15_5cb1_4fe4),
];

/// The acceptance check at bench scale (minutes of runtime): run with
/// `cargo test -p frlfi-campaign --release -- --ignored`.
#[test]
#[ignore = "bench-scale acceptance run; minutes of runtime"]
fn fig3a_campaign_reproduces_fig3_at_bench_scale_with_interrupt() {
    let scenario = registry::builtin("fig3a", Scale::Bench).expect("built-in");

    // Interrupted + resumed campaign.
    let dir = temp_dir("fig3a-bench");
    runner::run(
        &scenario,
        &dir,
        &RunnerConfig { threads: 0, max_new_trials: Some(10), ..RunnerConfig::default() },
    )
    .expect("first leg");
    let out = runner::run(&scenario, &dir, &RunnerConfig::default()).expect("resume");
    assert_pinned_cells(&out, &FIG3A_BENCH);
    std::fs::remove_dir_all(&dir).ok();
}
